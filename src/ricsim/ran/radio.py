"""Propagation, interference, and link throughput.

Urban-macro style distance path loss plus log-normal shadowing that is
frozen per (site, UE, 10 m ground cell): re-evaluating the same geometry
always yields the same field, which keeps runs reproducible.  Neighbouring
ground cells share lattice draws so the field decorrelates over
shadow_corr_m rather than jumping independently every 10 m.  Each ground
cell's value blends the hash draws at the four corners of its lattice
square in a fixed order.  A `ShadowCorners` cache keeps each UE's four
corner draws, so a UE that crosses a ground cell inside the same lattice
square is re-blended without hashing; the draws and the blend are the same
bit for bit with or without the cache, however many rows are evaluated
together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import ndtri

from ..sdl import ValidationError


@dataclass(frozen=True)
class RadioConfig:
    tx_power_dbm: float = 43.0
    noise_dbm: float = -104.0
    pl_const_db: float = 128.1
    pl_slope_db: float = 37.6
    pl_min_distance_m: float = 10.0
    shadow_sigma_db: float = 6.0
    shadow_grid_m: float = 10.0
    # correlation length of the field; <= shadow_grid_m gives independent draws per cell
    shadow_corr_m: float = 50.0
    max_spectral_efficiency: float = 6.0
    unit_bandwidth_mbps: float = 0.18

    def __post_init__(self) -> None:
        if self.shadow_grid_m <= 0:
            raise ValidationError("shadow_grid_m must be positive")


def path_loss_db(d_m: np.ndarray, cfg: RadioConfig) -> np.ndarray:
    d = np.maximum(np.asarray(d_m, dtype=float), cfg.pl_min_distance_m)
    return cfg.pl_const_db + cfg.pl_slope_db * np.log10(d / 1000.0)


_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_S11, _S27, _S30, _S31 = (np.uint64(s) for s in (11, 27, 30, 31))


def _splitmix64(x: np.ndarray) -> np.ndarray:
    z = x + _GOLDEN
    z ^= z >> _S30
    z *= _MIX1
    z ^= z >> _S27
    z *= _MIX2
    z ^= z >> _S31
    return z


def _ue_hash(seed: int, ue_idx: np.ndarray) -> np.ndarray:
    """The (seed, UE) prefix of every lattice-node hash, shape (n_ue,)."""
    with np.errstate(over="ignore"):
        h = _splitmix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF))
        return _splitmix64(h ^ np.asarray(ue_idx, dtype=np.uint64))


def _node_normals(
    ue_hash: np.ndarray,
    bs_idx: np.ndarray,
    nx: np.ndarray,
    ny: np.ndarray,
) -> np.ndarray:
    """Unit normals hashed from (seed, UE, lattice node, site), shape (..., n_bs).

    `ue_hash` is `_ue_hash(seed, ue_idx)`; it broadcasts against the node
    indices `nx` and `ny`, and their common shape gets a trailing site axis.
    """
    h = _splitmix64(ue_hash ^ nx.astype(np.uint64))
    h = _splitmix64(h ^ ny.astype(np.uint64))
    h = _splitmix64(h[..., None] ^ np.asarray(bs_idx, dtype=np.uint64))
    u = ((h >> _S11).astype(np.float64) + 0.5) * 2.0**-53
    return ndtri(u)


# lattice corner offsets (dx, dy) around a ground cell, in blending order
_CORNERS = ((0, 0), (0, 1), (1, 0), (1, 1))
_CORNER_DX = np.array([dx for dx, _ in _CORNERS])[:, None]
_CORNER_DY = np.array([dy for _, dy in _CORNERS])[:, None]

_NO_SQUARE = np.iinfo(np.int64).min


class ShadowCorners:
    """Per-UE cache of the lattice draws that `shadowing_db` blends.

    Row i holds UE `ue_idx[i]`'s hash prefix, its current lattice square
    (ix, iy) and the four corner draws of that square in `_CORNERS` order,
    shape (4, n_ue, n_bs).  A row is re-hashed only when its UE enters a
    new square; the sentinel square makes the first evaluation fill it.
    """

    def __init__(self, seed: int, bs_idx: np.ndarray, ue_idx: np.ndarray) -> None:
        n_ue = len(ue_idx)
        self.ue_hash = _ue_hash(seed, ue_idx)
        self.ix = np.full(n_ue, _NO_SQUARE, dtype=np.int64)
        self.iy = np.full(n_ue, _NO_SQUARE, dtype=np.int64)
        self.z = np.empty((len(_CORNERS), n_ue, len(bs_idx)))


def shadowing_db(
    seed: int,
    bs_idx: np.ndarray,
    ue_idx: np.ndarray,
    ue_pos: np.ndarray,
    cfg: RadioConfig,
    corners: Optional[ShadowCorners] = None,
) -> np.ndarray:
    """Frozen shadowing field, shape (n_ue, n_bs).

    Positions quantize to shadow_grid_m ground cells, so any point inside
    one cell sees the same value and revisits are reproducible.  Each
    cell's value blends counter-free hash draws at the four surrounding
    shadow_corr_m lattice nodes; the blend is rescaled to unit variance,
    keeping the marginal exactly N(0, sigma^2) while the field stays smooth
    across neighbouring cells.  The four corners are added in the fixed
    order of `_CORNERS`.

    With `corners` (built for the same seed and sites), `ue_idx` are its
    rows: only rows that entered a new lattice square are hashed, and the
    cache is updated.  Without it the field is computed from scratch by
    the same code, through a cache that lives for this call only.
    """
    n_ue = len(ue_idx)
    n_bs = len(bs_idx)
    if cfg.shadow_sigma_db == 0.0:
        return np.zeros((n_ue, n_bs))
    if corners is None:
        corners = ShadowCorners(seed, bs_idx, ue_idx)
        rows = np.arange(n_ue)
    else:
        rows = np.asarray(ue_idx)
    gx = np.floor(ue_pos[:, 0] / cfg.shadow_grid_m).astype(np.int64)
    gy = np.floor(ue_pos[:, 1] / cfg.shadow_grid_m).astype(np.int64)
    if cfg.shadow_corr_m <= cfg.shadow_grid_m:
        # degenerate lattice: one independent draw per ground cell
        vals = _node_normals(corners.ue_hash[rows], bs_idx, gx, gy)
        return cfg.shadow_sigma_db * vals
    # evaluate at cell centres so the result is a pure function of the cell
    fx = (gx.astype(np.float64) + 0.5) * cfg.shadow_grid_m / cfg.shadow_corr_m
    fy = (gy.astype(np.float64) + 0.5) * cfg.shadow_grid_m / cfg.shadow_corr_m
    ix = np.floor(fx).astype(np.int64)
    iy = np.floor(fy).astype(np.int64)
    tx = fx - ix
    ty = fy - iy
    new = (ix != corners.ix[rows]) | (iy != corners.iy[rows])
    if new.any():
        hit = rows[new]
        nix = ix[new]
        niy = iy[new]
        corners.z[:, hit] = _node_normals(
            corners.ue_hash[hit], bs_idx, nix + _CORNER_DX, niy + _CORNER_DY
        )
        corners.ix[hit] = nix
        corners.iy[hit] = niy
    z = corners.z[:, rows]
    acc = np.zeros((n_ue, n_bs))
    wsq = np.zeros(n_ue)
    for k, (dx, dy) in enumerate(_CORNERS):
        w = (tx if dx else 1.0 - tx) * (ty if dy else 1.0 - ty)
        acc += w[:, None] * z[k]
        wsq += w * w
    return cfg.shadow_sigma_db * acc / np.sqrt(wsq)[:, None]


def sinr_db(
    rsrp_dbm: np.ndarray,
    linear: np.ndarray,
    serving: np.ndarray,
    noise_dbm: float,
    total_mw: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-UE SINR on the serving link, all other sites as interference.

    `linear` is the received power in mW, `10 ** (rsrp_dbm / 10)`, and
    `total_mw` its row sums, `linear.sum(axis=1)`; the caller computes them
    once and shares them with its other uses.
    """
    if total_mw is None:
        total_mw = linear.sum(axis=1)
    rows = np.arange(len(serving))
    own = linear[rows, serving]
    noise = 10.0 ** (noise_dbm / 10.0)
    denom = total_mw - own + noise
    return rsrp_dbm[rows, serving] - 10.0 * np.log10(denom)


def unit_throughput_mbps(sinr: np.ndarray, cfg: RadioConfig) -> np.ndarray:
    """Throughput of one resource unit at the given SINR, Shannon-capped."""
    se = np.log2(1.0 + 10.0 ** (np.asarray(sinr, dtype=float) / 10.0))
    return np.minimum(cfg.max_spectral_efficiency, se) * cfg.unit_bandwidth_mbps
