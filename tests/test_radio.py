"""Radio formulas against hand-computed values."""

import math

import numpy as np
import pytest

from ricsim.ran.config import ScenarioConfig
from ricsim.ran.radio import (
    RadioConfig,
    _node_normals,
    _ue_hash,
    path_loss_db,
    shadowing_db,
    sinr_db,
    unit_throughput_mbps,
)
from ricsim.ran.world import build_scenario

CFG = RadioConfig()
NO_SHADOW = RadioConfig(shadow_sigma_db=0.0)


def test_path_loss_reference_point():
    # 128.1 + 37.6 log10(d/km): exactly the constant at 1 km
    assert path_loss_db(np.array([1000.0]), CFG)[0] == pytest.approx(128.1)


def test_path_loss_clamps_below_10m():
    near = path_loss_db(np.array([10.0, 5.0, 0.0]), CFG)
    expected = 128.1 + 37.6 * math.log10(10.0 / 1000.0)
    assert near == pytest.approx([expected] * 3)


def one_site_rsrp(ue_pos):
    """RSRP the world computes for UEs placed at `ue_pos` around one site at the origin."""
    cfg = ScenarioConfig(rings=0, n_ue=len(ue_pos), radio=NO_SHADOW, seed=0)
    world = build_scenario(cfg)
    assert np.array_equal(world.bs_pos, [[0.0, 0.0]])
    world.pos[:] = ue_pos
    return world._rsrp()


def test_rsrp_at_1km_without_shadowing():
    rsrp = one_site_rsrp(np.array([[1000.0, 0.0]]))
    # 43 dBm transmit power minus 128.1 dB of path loss at 1 km
    assert rsrp[0, 0] == pytest.approx(-85.1)


def test_rsrp_monotone_in_distance_without_shadowing():
    ue = np.stack([np.linspace(10, 2000, 50), np.zeros(50)], axis=1)
    rsrp = one_site_rsrp(ue)[:, 0]
    assert np.all(np.diff(rsrp) < 0)


def test_shadowing_frozen_per_grid_cell():
    pos = np.array([[123.0, 451.0]])
    a = shadowing_db(7, np.arange(3), np.array([5]), pos, CFG)
    b = shadowing_db(7, np.arange(3), np.array([5]), pos, CFG)
    assert np.array_equal(a, b)
    # moving within the same 10 m cell: unchanged
    c = shadowing_db(7, np.arange(3), np.array([5]), pos + 4.0, CFG)
    assert np.array_equal(a, c)
    # crossing into the next cell: a new draw
    d = shadowing_db(7, np.arange(3), np.array([5]), pos + 10.0, CFG)
    assert not np.array_equal(a, d)
    # other ue, other field
    e = shadowing_db(7, np.arange(3), np.array([6]), pos, CFG)
    assert not np.array_equal(a, e)


def test_shadowing_distribution_roughly_normal():
    n = 20_000
    pos = np.stack([np.linspace(0, 2e6, n), np.zeros(n)], axis=1)  # distinct cells
    vals = shadowing_db(3, np.arange(1), np.arange(n), pos, CFG)[:, 0]
    assert abs(vals.mean()) < 0.2
    assert abs(vals.std() - 6.0) < 0.2


def test_shadowing_smooth_within_correlation_length():
    # one UE walking a line, sampled at every ground cell
    n = 4_000
    pos = np.stack([np.linspace(0, n * 10.0, n, endpoint=False), np.full(n, 55.0)], axis=1)
    vals = shadowing_db(11, np.arange(1), np.full(n, 9), pos, CFG)[:, 0]

    def corr(lag_cells):
        return float(np.corrcoef(vals[:-lag_cells], vals[lag_cells:])[0, 1])

    assert corr(1) > 0.8  # neighbouring 10 m cells move together
    assert abs(corr(20)) < 0.3  # two correlation lengths apart: nearly independent
    assert abs(vals.std() - 6.0) < 0.5  # blending must not shrink the marginal


def test_shadowing_independent_when_correlation_disabled():
    flat = RadioConfig(shadow_corr_m=0.0)
    n = 4_000
    pos = np.stack([np.linspace(0, n * 10.0, n, endpoint=False), np.full(n, 55.0)], axis=1)
    vals = shadowing_db(11, np.arange(1), np.full(n, 9), pos, flat)[:, 0]
    assert abs(float(np.corrcoef(vals[:-1], vals[1:])[0, 1])) < 0.1


def four_pass_shadowing(seed, bs_idx, ue_idx, ue_pos, cfg):
    """Reference blend: one `_node_normals` call per lattice corner."""
    gx = np.floor(ue_pos[:, 0] / cfg.shadow_grid_m).astype(np.int64)
    gy = np.floor(ue_pos[:, 1] / cfg.shadow_grid_m).astype(np.int64)
    fx = (gx.astype(np.float64) + 0.5) * cfg.shadow_grid_m / cfg.shadow_corr_m
    fy = (gy.astype(np.float64) + 0.5) * cfg.shadow_grid_m / cfg.shadow_corr_m
    ix = np.floor(fx).astype(np.int64)
    iy = np.floor(fy).astype(np.int64)
    tx = fx - ix
    ty = fy - iy
    acc = np.zeros((len(ue_idx), len(bs_idx)))
    wsq = np.zeros(len(ue_idx))
    for dx in (0, 1):
        for dy in (0, 1):
            w = (tx if dx else 1.0 - tx) * (ty if dy else 1.0 - ty)
            z = _node_normals(_ue_hash(seed, ue_idx), bs_idx, ix + dx, iy + dy)
            acc += w[:, None] * z
            wsq += w * w
    return cfg.shadow_sigma_db * acc / np.sqrt(wsq)[:, None]


def shadowing_cases():
    rng = np.random.default_rng(2024)
    n = 1500
    yield rng.uniform(-4000.0, 4000.0, size=(n, 2)), rng.integers(0, 1000, n)
    # points exactly on 10 m ground-cell and 50 m lattice lines, both signs
    line = np.arange(-200.0, 201.0, 10.0)
    gx, gy = np.meshgrid(line, line)
    on = np.stack([gx.ravel(), gy.ravel()], axis=1)
    yield on, np.arange(len(on))
    # a hair either side of the same lines
    yield np.nextafter(on, -np.inf), np.arange(len(on))
    yield np.nextafter(on, np.inf), np.arange(len(on))
    yield np.array([[-0.0, 49.999]]), np.array([3])


@pytest.mark.parametrize("n_bs", [1, 7, 19])
@pytest.mark.parametrize("seed", [0, 5, 2**40 + 3])
def test_one_pass_shadowing_is_bit_identical_to_four_passes(seed, n_bs):
    bs_idx = np.arange(n_bs)
    for pos, ue_idx in shadowing_cases():
        got = shadowing_db(seed, bs_idx, ue_idx, pos, CFG)
        assert got.shape == (len(ue_idx), n_bs)
        assert np.array_equal(got, four_pass_shadowing(seed, bs_idx, ue_idx, pos, CFG))


def test_sinr_hand_computed():
    rsrp = np.array([[-60.0, -70.0, -80.0]])
    serving = np.array([0])
    got = sinr_db(rsrp, 10.0 ** (rsrp / 10.0), serving, noise_dbm=-104.0)[0]
    interference_mw = 10 ** (-70 / 10) + 10 ** (-80 / 10) + 10 ** (-104 / 10)
    expected = -60.0 - 10 * math.log10(interference_mw)
    assert got == pytest.approx(expected)
    assert got == pytest.approx(9.585, abs=0.01)


@pytest.mark.parametrize("n_rows", [1, 3, 7, 17, 380])
def test_row_subset_sinr_and_throughput_equal_full_evaluation(n_rows):
    world = build_scenario(ScenarioConfig())
    for _ in range(20):
        world.step()
    rsrp = world._rsrp()
    linear = 10.0 ** (rsrp / 10.0)
    total = linear.sum(axis=1)
    noise = CFG.noise_dbm
    full = sinr_db(rsrp, linear, world.serving, noise, total)
    assert np.array_equal(full, sinr_db(rsrp, linear, world.serving, noise))
    rows = np.random.default_rng(n_rows).choice(len(rsrp), n_rows, replace=False)
    sub = sinr_db(rsrp[rows], linear[rows], world.serving[rows], noise, total[rows])
    assert np.array_equal(sub, full[rows])
    assert np.array_equal(unit_throughput_mbps(sub, CFG), unit_throughput_mbps(full, CFG)[rows])


def test_unit_throughput_formula_and_cap():
    assert unit_throughput_mbps(np.array([0.0]), CFG)[0] == pytest.approx(0.18)
    # 30 dB -> log2(1001) ≈ 9.97, capped at 6 spectral-efficiency units
    assert unit_throughput_mbps(np.array([30.0]), CFG)[0] == pytest.approx(6 * 0.18)
    s = 7.0
    expected = math.log2(1 + 10 ** (s / 10)) * 0.18
    assert unit_throughput_mbps(np.array([s]), CFG)[0] == pytest.approx(expected)
