"""Decision-rule tests for the two control applications."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ricsim.ran.config import ScenarioConfig
from ricsim.ran.world import KpiSample
from ricsim.sdl import Scope, ValidationError
from ricsim.xapps import (
    MLB_XAPP_ID,
    MRO_XAPP_ID,
    MlbConfig,
    MroConfig,
    XappConfig,
    mlb_decide,
    mro_decide,
)

SCEN = ScenarioConfig()
XCFG = XappConfig()


def sample(cell="bs0", load=0.3, sat=1.0, cb=0, rlf=0, ho=0, pp=0, ts=5000):
    return KpiSample(cell, ts, load, sat, cb, rlf, ho, pp)


def params(hysteresis=3.0, ttt=480.0, cio=0.0, cells=("bs0",)):
    return {c: {"hysteresis": hysteresis, "ttt": ttt, "cio": cio} for c in cells}


def ids():
    return itertools.count(1)


# -- mro ---------------------------------------------------------------------


def test_mro_raises_on_pingpong_ratio():
    recs = mro_decide([sample(ho=10, pp=2, rlf=0)], params(), SCEN, XCFG, ids(), 5000)
    assert len(recs) == 1
    r = recs[0]
    assert r.xapp_id == MRO_XAPP_ID
    assert r.target.scope is Scope.CELL and r.target.id == "bs0"
    assert r.changes == {"hysteresis": 3.5, "ttt": 512.0}
    # no span: the record lasts while the value it set is in force
    assert r.span is None and r.ts == 5000


def test_mro_quiet_when_ratios_low():
    assert mro_decide([sample(ho=20, pp=2, rlf=1)], params(), SCEN, XCFG, ids(), 5000) == []


def test_mro_lowers_on_rlf_ratio():
    recs = mro_decide([sample(ho=10, rlf=1)], params(), SCEN, XCFG, ids(), 5000)
    assert recs[0].changes == {"hysteresis": 2.5, "ttt": 320.0}


def test_mro_pingpong_branch_wins_over_rlf():
    recs = mro_decide([sample(ho=10, pp=5, rlf=5)], params(), SCEN, XCFG, ids(), 5000)
    assert recs[0].changes["hysteresis"] == 3.5


def test_mro_clamped_hysteresis_emits_ttt_only():
    recs = mro_decide([sample(ho=10, pp=2)], params(hysteresis=10.0), SCEN, XCFG, ids(), 5000)
    assert recs[0].changes == {"ttt": 512.0}


def test_mro_fully_clamped_emits_nothing():
    p = params(hysteresis=10.0, ttt=5120.0)
    assert mro_decide([sample(ho=10, pp=2)], p, SCEN, XCFG, ids(), 5000) == []
    p = params(hysteresis=0.0, ttt=40.0)
    assert mro_decide([sample(ho=10, rlf=2)], p, SCEN, XCFG, ids(), 5000) == []


def test_mro_rlfs_without_handovers_still_act():
    # a cell with failures but no completed handovers reads as handing over too late
    recs = mro_decide([sample(ho=0, rlf=1)], params(), SCEN, XCFG, ids(), 5000)
    assert recs[0].changes == {"hysteresis": 2.5, "ttt": 320.0}


def test_mro_silent_cell_untouched():
    assert mro_decide([sample()], params(), SCEN, XCFG, ids(), 5000) == []


def test_mro_multiple_cells_ordered_ids():
    samples = [
        sample(cell="bs0", ho=10, pp=3),
        sample(cell="bs1"),
        sample(cell="bs2", ho=10, rlf=2),
    ]
    p = params(cells=("bs0", "bs1", "bs2"))
    recs = mro_decide(samples, p, SCEN, XCFG, ids(), 5000)
    assert [(r.msg_id, r.target.id) for r in recs] == [(1, "bs0"), (2, "bs2")]


def test_mro_never_emits_cio():
    for s in (sample(ho=10, pp=5), sample(ho=10, rlf=5)):
        for r in mro_decide([s], params(), SCEN, XCFG, ids(), 5000):
            assert "cio" not in r.changes


# -- mlb ---------------------------------------------------------------------


def test_mlb_sheds_load():
    recs = mlb_decide([sample(load=0.9)], params(), SCEN, XCFG, ids(), 5000)
    assert len(recs) == 1
    assert recs[0].xapp_id == MLB_XAPP_ID
    assert recs[0].changes == {"cio": -1.0}


def test_mlb_quiet_in_band():
    for load in (0.5, 0.65, 0.8):
        assert mlb_decide([sample(load=load)], params(), SCEN, XCFG, ids(), 5000) == []


def test_mlb_clamped_at_floor():
    assert mlb_decide([sample(load=0.9)], params(cio=-6.0), SCEN, XCFG, ids(), 5000) == []


def test_mlb_relaxes_when_cool():
    recs = mlb_decide([sample(load=0.3)], params(cio=-2.0), SCEN, XCFG, ids(), 5000)
    assert recs[0].changes == {"cio": -1.0}


def test_mlb_no_relax_at_zero():
    assert mlb_decide([sample(load=0.3)], params(cio=0.0), SCEN, XCFG, ids(), 5000) == []


def test_mlb_never_emits_handover_params():
    for load, cio in ((0.95, 0.0), (0.2, -3.0)):
        for r in mlb_decide([sample(load=load)], params(cio=cio), SCEN, XCFG, ids(), 5000):
            assert set(r.changes) == {"cio"}


# -- shared properties ----------------------------------------------------------

@st.composite
def kpi_samples(draw):
    ho = draw(st.integers(0, 50))
    return sample(
        load=draw(st.floats(0.0, 1.0)),
        ho=ho,
        pp=draw(st.integers(0, ho)),
        rlf=draw(st.integers(0, 20)),
    )

param_sets = st.builds(
    params,
    hysteresis=st.sampled_from([0.0, 0.5, 3.0, 9.5, 10.0]),
    ttt=st.sampled_from([40.0, 480.0, 512.0, 5120.0]),
    cio=st.sampled_from([-6.0, -2.0, -1.0, 0.0, 3.0]),
)


@given(kpi_samples(), param_sets)
def test_decisions_are_pure_and_in_range(s, p):
    a = mro_decide([s], p, SCEN, XCFG, ids(), 5000)
    b = mro_decide([s], p, SCEN, XCFG, ids(), 5000)
    assert a == b
    for r in a:
        assert set(r.changes) <= {"hysteresis", "ttt"}
        if "hysteresis" in r.changes:
            assert 0.0 <= r.changes["hysteresis"] <= 10.0
        if "ttt" in r.changes:
            assert r.changes["ttt"] in SCEN.ttt_ladder_ms
    a = mlb_decide([s], p, SCEN, XCFG, ids(), 5000)
    b = mlb_decide([s], p, SCEN, XCFG, ids(), 5000)
    assert a == b
    for r in a:
        assert set(r.changes) == {"cio"}
        assert -6.0 <= r.changes["cio"] <= 6.0
        assert r.span is None


def test_config_validation():
    with pytest.raises(ValidationError):
        MroConfig(pp_high=0.0)
    with pytest.raises(ValidationError):
        MroConfig(step_hysteresis_db=-0.5)
    with pytest.raises(ValidationError):
        MlbConfig(load_low=0.9, load_high=0.8)
