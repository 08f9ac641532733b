"""Hexagonal layout and simulation area geometry."""

import numpy as np
import pytest

from ricsim.ran.config import ScenarioConfig
from ricsim.ran.grid import (
    area_vertices,
    contains,
    hex_grid_positions,
    random_points,
)


def test_two_ring_grid_has_19_sites():
    pos = hex_grid_positions(600.0, rings=2)
    assert pos.shape == (19, 2)
    # ring populations 1 / 6 / 12, ordered centre outwards
    r = np.hypot(pos[:, 0], pos[:, 1])
    assert r[0] == 0.0
    assert np.sum(np.isclose(r, 600.0)) == 6
    assert (np.sort(r) == r).sum() >= 1  # centre first
    assert len(pos) == 19


@pytest.mark.parametrize("rings", range(4))
def test_config_site_count_matches_the_grid(rings):
    assert ScenarioConfig(rings=rings).n_bs == len(hex_grid_positions(600.0, rings))


def test_nearest_neighbour_distance_is_isd():
    pos = hex_grid_positions(600.0, rings=2)
    d = np.hypot(pos[:, None, 0] - pos[None, :, 0], pos[:, None, 1] - pos[None, :, 1])
    d[d == 0] = np.inf
    nn = d.min(axis=1)
    assert np.all(np.abs(nn - 600.0) <= 1e-6)


def test_grid_deterministic():
    a = hex_grid_positions(600.0)
    b = hex_grid_positions(600.0)
    assert np.array_equal(a, b)


def test_area_contains_all_sites():
    pos = hex_grid_positions(600.0, rings=2)
    verts = area_vertices(600.0, rings=2)
    assert contains(verts, pos).all()
    # and a little margin beyond the outermost site
    assert contains(verts, np.array([[1350.0, 0.0]]))[0]
    assert not contains(verts, np.array([[3000.0, 0.0]]))[0]


def test_random_points_inside_and_deterministic():
    verts = area_vertices(600.0)
    rng1 = np.random.default_rng(7)
    rng2 = np.random.default_rng(7)
    p1 = random_points(verts, 500, rng1)
    p2 = random_points(verts, 500, rng2)
    assert p1.shape == (500, 2)
    assert contains(verts, p1).all()
    assert np.array_equal(p1, p2)
