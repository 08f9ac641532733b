"""Propagation, interference, and link throughput.

Urban-macro style distance path loss plus log-normal shadowing that is
frozen per (site, UE, 10 m ground cell): re-evaluating the same geometry
always yields the same field, which keeps runs reproducible without
storing any per-pair state.  Neighbouring ground cells share lattice
draws so the field decorrelates over shadow_corr_m rather than jumping
independently every 10 m.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri


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


def path_loss_db(d_m: np.ndarray, cfg: RadioConfig) -> np.ndarray:
    d = np.maximum(np.asarray(d_m, dtype=float), cfg.pl_min_distance_m)
    return cfg.pl_const_db + cfg.pl_slope_db * np.log10(d / 1000.0)


_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    z = (x + _GOLDEN).astype(np.uint64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _node_normals(
    seed: int,
    bs_idx: np.ndarray,
    ue_idx: np.ndarray,
    nx: np.ndarray,
    ny: np.ndarray,
) -> np.ndarray:
    """Unit normals hashed from (seed, UE, lattice node, site), shape (n_ue, n_bs)."""
    with np.errstate(over="ignore"):
        h = _splitmix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF))
        h = _splitmix64(h ^ np.asarray(ue_idx, dtype=np.uint64))
        h = _splitmix64(h ^ nx.astype(np.uint64))
        h = _splitmix64(h ^ ny.astype(np.uint64))
        h = _splitmix64(h[:, None] ^ np.asarray(bs_idx, dtype=np.uint64)[None, :])
    u = ((h >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    return ndtri(u)


def shadowing_db(
    seed: int,
    bs_idx: np.ndarray,
    ue_idx: np.ndarray,
    ue_pos: np.ndarray,
    cfg: RadioConfig,
) -> np.ndarray:
    """Frozen shadowing field, shape (n_ue, n_bs).

    Positions quantize to shadow_grid_m ground cells, so any point inside
    one cell sees the same value and revisits are reproducible without
    stored state.  Each cell's value blends counter-free hash draws at the
    four surrounding shadow_corr_m lattice nodes; the blend is rescaled to
    unit variance, keeping the marginal exactly N(0, sigma^2) while the
    field stays smooth across neighbouring cells.
    """
    n_ue = len(ue_idx)
    n_bs = len(bs_idx)
    if cfg.shadow_sigma_db == 0.0:
        return np.zeros((n_ue, n_bs))
    gx = np.floor(ue_pos[:, 0] / cfg.shadow_grid_m).astype(np.int64)
    gy = np.floor(ue_pos[:, 1] / cfg.shadow_grid_m).astype(np.int64)
    if cfg.shadow_corr_m <= cfg.shadow_grid_m:
        # degenerate lattice: one independent draw per ground cell
        vals = _node_normals(seed, bs_idx, ue_idx, gx, gy)
        return cfg.shadow_sigma_db * vals
    # evaluate at cell centres so the result is a pure function of the cell
    fx = (gx.astype(np.float64) + 0.5) * cfg.shadow_grid_m / cfg.shadow_corr_m
    fy = (gy.astype(np.float64) + 0.5) * cfg.shadow_grid_m / cfg.shadow_corr_m
    ix = np.floor(fx).astype(np.int64)
    iy = np.floor(fy).astype(np.int64)
    tx = fx - ix
    ty = fy - iy
    acc = np.zeros((n_ue, n_bs))
    wsq = np.zeros(n_ue)
    for dx in (0, 1):
        for dy in (0, 1):
            w = (tx if dx else 1.0 - tx) * (ty if dy else 1.0 - ty)
            z = _node_normals(seed, bs_idx, ue_idx, ix + dx, iy + dy)
            acc += w[:, None] * z
            wsq += w * w
    return cfg.shadow_sigma_db * acc / np.sqrt(wsq)[:, None]


def sinr_db(rsrp_dbm: np.ndarray, serving: np.ndarray, noise_dbm: float) -> np.ndarray:
    """Per-UE SINR on the serving link, all other sites as interference."""
    linear = 10.0 ** (rsrp_dbm / 10.0)
    own = linear[np.arange(len(serving)), serving]
    noise = 10.0 ** (noise_dbm / 10.0)
    denom = linear.sum(axis=1) - own + noise
    return rsrp_dbm[np.arange(len(serving)), serving] - 10.0 * np.log10(denom)


def unit_throughput_mbps(sinr: np.ndarray, cfg: RadioConfig) -> np.ndarray:
    """Throughput of one resource unit at the given SINR, Shannon-capped."""
    se = np.log2(1.0 + 10.0 ** (np.asarray(sinr, dtype=float) / 10.0))
    return np.minimum(cfg.max_spectral_efficiency, se) * cfg.unit_bandwidth_mbps
