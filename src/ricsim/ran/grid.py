"""Hexagonal site layout and the polygon bounding the simulated area."""

from __future__ import annotations

import math

import numpy as np


def hex_grid_positions(isd: float, rings: int = 2) -> np.ndarray:
    """Site coordinates for a hex grid with the given inter-site distance.

    Axial coordinates (q, r) with hex distance <= rings, mapped through the
    basis ((isd, 0), (isd/2, isd*sqrt(3)/2)). Ordered centre outwards, each
    ring swept counter-clockwise, so indices are stable.
    """
    ax = np.array([isd, 0.0])
    ay = np.array([isd / 2.0, isd * math.sqrt(3.0) / 2.0])
    sites = []
    for q in range(-rings, rings + 1):
        for r in range(-rings, rings + 1):
            ring = max(abs(q), abs(r), abs(q + r))
            if ring <= rings:
                p = q * ax + r * ay
                angle = math.atan2(p[1], p[0]) % (2 * math.pi)
                sites.append((ring, angle, p))
    sites.sort(key=lambda s: (s[0], s[1]))
    return np.array([p for _, _, p in sites])


def area_vertices(isd: float, rings: int = 2, margin: float = 0.5) -> np.ndarray:
    """Regular hexagon outlining the network's coverage, CCW vertex order.

    Circumradius reaches `margin` ISDs beyond the outermost corner sites,
    with corners aligned to them.
    """
    radius = (rings + margin) * isd
    angles = np.arange(6) * (math.pi / 3.0)
    return np.stack([radius * np.cos(angles), radius * np.sin(angles)], axis=1)


def _edge_normals(vertices: np.ndarray):
    nxt = np.roll(vertices, -1, axis=0)
    edges = nxt - vertices
    # inward normals for CCW polygons
    normals = np.stack([-edges[:, 1], edges[:, 0]], axis=1)
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return normals


def contains(vertices: np.ndarray, points: np.ndarray, eps: float = 1e-9) -> np.ndarray:
    """Boolean mask of points inside the convex polygon (boundary counts)."""
    normals = _edge_normals(vertices)
    rel = points[:, None, :] - vertices[None, :, :]
    dots = np.einsum("pek,ek->pe", rel, normals)
    return (dots >= -eps).all(axis=1)


def random_points(vertices: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform points inside the polygon via rejection from its bounding box."""
    lo = vertices.min(axis=0)
    hi = vertices.max(axis=0)
    out = np.empty((n, 2))
    have = 0
    while have < n:
        batch = rng.uniform(lo, hi, size=(max(n - have, 16) * 2, 2))
        keep = batch[contains(vertices, batch)]
        take = min(len(keep), n - have)
        out[have : have + take] = keep[:take]
        have += take
    return out
