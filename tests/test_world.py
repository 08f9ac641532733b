"""World simulation tests against closed-form and replay oracles."""

import math

import numpy as np
import pytest
from scipy import stats

from ricsim.ran import grid
from ricsim.ran.config import ScenarioConfig
from ricsim.ran.radio import RadioConfig
from ricsim.ran.world import WorldState, build_scenario
from ricsim.sdl import ControlRecord, ControlTarget, Scope, ValidationError

NO_SHADOW = RadioConfig(shadow_sigma_db=0.0)


# closed-form timings below assume these exact constants, so pin them
# rather than inheriting tunable defaults
PINNED = dict(
    t_pingpong_ms=3_000,
    qout_db=-8.0,
    t_rlf_ms=1_000,
    t_reest_ms=200,
    capacity_units=100.0,
)


def small_cfg(**kw):
    base = dict(
        n_bs=7,
        rings=1,
        n_ue=1,
        radio=NO_SHADOW,
        initial_hysteresis_db=0.0,
        initial_ttt_ms=40,
        seed=7,
        **PINNED,
    )
    base.update(kw)
    return ScenarioConfig(**base)


def one_cell_cfg(**kw):
    base = dict(n_bs=1, rings=0, n_ue=2, radio=NO_SHADOW, seed=3, **PINNED)
    base.update(kw)
    return ScenarioConfig(**base)


def script_ue(world, i, pos, waypoint, speed):
    """Put a UE on a straight deterministic path."""
    world.pos[i] = pos
    world.waypoint[i] = waypoint
    world.speed[i] = speed
    world.needs_waypoint[i] = False
    world.paused_until[i] = 0


def run_until_handover(world, max_ticks=200):
    for _ in range(max_ticks):
        world.step()
        for ev in world.drain_events():
            if ev["kind"] == "handover":
                return ev
    return None


# -- construction ------------------------------------------------------------------


def test_profile_mix_within_binomial_ci():
    world = build_scenario(ScenarioConfig())
    counts = np.bincount(world.profile, minlength=3)
    assert counts.sum() == 380
    for k, p in enumerate((0.6, 0.3, 0.1)):
        lo = stats.binom.ppf(0.005, 380, p)
        hi = stats.binom.ppf(0.995, 380, p)
        assert lo <= counts[k] <= hi, f"profile {k}: {counts[k]} outside [{lo}, {hi}]"


def test_profile_bitrate_mapping():
    world = build_scenario(ScenarioConfig(profile_bitrates_mbps=(1.0, 5.0, 20.0)))
    rates = np.asarray([1.0, 5.0, 20.0])
    assert np.array_equal(world.target_mbps, rates[world.profile])


def test_initial_attachment_is_strongest_cell():
    world = build_scenario(small_cfg(n_ue=40))
    rsrp = world._rsrp()
    assert np.array_equal(world.serving, np.argmax(rsrp, axis=1))


def test_all_ues_inside_area_throughout_run():
    world = build_scenario(small_cfg(n_ue=50, seed=11))
    start = world.pos.copy()
    for t in range(300):
        world.step()
        if t % 50 == 0:
            assert grid.contains(world.area, world.pos).all()
    assert grid.contains(world.area, world.pos).all()
    assert not np.allclose(start, world.pos)


# -- handover closed forms -----------------------------------------------------------

# Cells 0 and 1 sit at (0,0) and (600,0). On the line between them the
# biased-signal difference is 37.6*log10(x/(600-x)) dB, so the A3 condition
# "candidate > serving + hysteresis - candidate_offset" flips at
# x/(600-x) = 10**((hys - cio)/37.6).


def crossover_x(hys_db, cio_db=0.0):
    r = 10.0 ** ((hys_db - cio_db) / 37.6)
    return 600.0 * r / (1.0 + r)


def test_handover_at_midpoint_without_hysteresis():
    world = build_scenario(small_cfg())
    script_ue(world, 0, (250.0, 0.0), (590.0, 0.0), speed=10.0)
    world.serving[0] = 0
    ev = run_until_handover(world)
    assert ev is not None and ev["from"] == "bs0" and ev["to"] == "bs1"
    # crossover at x=300; first strict crossing is x=301 reached at t=5100
    assert ev["ts"] == 5100


def test_hysteresis_shifts_handover_boundary():
    world = build_scenario(small_cfg(initial_hysteresis_db=3.0))
    script_ue(world, 0, (250.0, 0.0), (590.0, 0.0), speed=10.0)
    world.serving[0] = 0
    ev = run_until_handover(world)
    # boundary at 327.48 m, first position beyond it is x=328 at t=7800
    assert math.isclose(crossover_x(3.0), 327.48, abs_tol=0.01)
    assert ev["ts"] == 7800


def test_candidate_offset_cancels_hysteresis():
    world = build_scenario(small_cfg(initial_hysteresis_db=3.0))
    script_ue(world, 0, (250.0, 0.0), (590.0, 0.0), speed=10.0)
    world.serving[0] = 0
    applied = world.apply_control(
        ControlRecord(
            msg_id=1,
            ts=0,
            xapp_id="test",
            target=ControlTarget(Scope.CELL, "bs1"),
            changes={"cio": 3.0},
            span=10**9,
        )
    )
    assert applied == {"cio": 3.0}
    ev = run_until_handover(world)
    assert ev["ts"] == 5100


def test_time_to_trigger_delays_handover():
    world = build_scenario(small_cfg(initial_ttt_ms=480))
    script_ue(world, 0, (250.0, 0.0), (590.0, 0.0), speed=10.0)
    world.serving[0] = 0
    ev = run_until_handover(world)
    # condition holds from t=5100; timer reaches 500ms >= 480 four ticks later
    assert ev["ts"] == 5500


def test_handover_boundary_monotone_in_hysteresis():
    xs = [crossover_x(h) for h in (0.0, 1.0, 2.0, 3.0, 5.0)]
    assert xs == sorted(xs)
    ts = []
    for h in (0.0, 2.0, 5.0):
        world = build_scenario(small_cfg(initial_hysteresis_db=h))
        script_ue(world, 0, (250.0, 0.0), (590.0, 0.0), speed=10.0)
        world.serving[0] = 0
        ev = run_until_handover(world, max_ticks=400)
        ts.append(ev["ts"])
    assert ts == sorted(ts) and len(set(ts)) == 3


def test_pingpong_flagged_on_quick_return():
    world = build_scenario(small_cfg())
    script_ue(world, 0, (250.0, 0.0), (590.0, 0.0), speed=50.0)
    world.serving[0] = 0
    first = run_until_handover(world)
    assert first is not None and not first["pingpong"]
    # turn straight back; the return crossing happens well inside 3s
    script_ue(world, 0, world.pos[0], (10.0, 0.0), speed=50.0)
    second = run_until_handover(world)
    assert second is not None
    assert second["from"] == "bs1" and second["to"] == "bs0"
    assert second["pingpong"]
    assert second["ts"] - first["ts"] <= 3000


def full_target_setup(mover_active: bool):
    """Mover walks from bs0 into bs1 while a parked session saturates bs1."""
    world = build_scenario(small_cfg(n_ue=2))
    script_ue(world, 0, (250.0, 0.0), (590.0, 0.0), speed=10.0)
    world.serving[0] = 0
    script_ue(world, 1, (600.0, 0.0), (600.0, 0.0), speed=0.0)
    world.serving[1] = 1
    world.session_active[1] = True
    world.session_demand[1] = 200.0  # > 100 units at any achievable SINR
    world.session_end[1] = 10**12
    if mover_active:
        world.session_active[0] = True
        world.session_demand[0] = 1.0
        world.session_end[0] = 10**12
    return world


def test_handover_into_full_cell_is_rejected():
    world = full_target_setup(mover_active=True)
    for _ in range(80):
        world.step()
    events = world.drain_events()
    kinds = {ev["kind"] for ev in events}
    assert "handover" not in kinds
    assert "handover_rejected" in kinds
    assert world.serving[0] == 0
    assert world.totals["ho_rejected"] >= 1
    # capacity frees up and the next sustained trigger goes through
    world.session_active[1] = False
    ev = run_until_handover(world)
    assert ev is not None and ev["to"] == "bs1"


def test_idle_ue_ignores_target_capacity():
    world = full_target_setup(mover_active=False)
    ev = run_until_handover(world)
    assert ev is not None and ev["to"] == "bs1" and ev["ts"] == 5100
    assert world.totals["ho_rejected"] == 0


def test_slow_return_is_not_pingpong():
    world = build_scenario(small_cfg())
    script_ue(world, 0, (250.0, 0.0), (590.0, 0.0), speed=50.0)
    world.serving[0] = 0
    first = run_until_handover(world)
    # dawdle past the ping-pong horizon before returning
    script_ue(world, 0, world.pos[0], (10.0, 0.0), speed=1.0)
    for _ in range(31):
        world.step()
    world.drain_events()
    script_ue(world, 0, world.pos[0], (10.0, 0.0), speed=50.0)
    second = run_until_handover(world)
    assert second is not None and second["to"] == "bs0"
    assert second["ts"] - first["ts"] > 3000
    assert not second["pingpong"]


# -- radio link failure ------------------------------------------------------------


def rlf_setup():
    """UE stuck on a far cell with handover rescue disabled."""
    cfg = small_cfg(
        n_ue=1,
        initial_hysteresis_db=10.0,
        initial_ttt_ms=5120,
    )
    world = build_scenario(cfg)
    script_ue(world, 0, (870.0, 0.0), (870.0, 0.0), speed=0.0)
    world.serving[0] = 3  # (-300, 519.6), ~1280m away; bs1 at 270m dominates
    world.session_active[0] = True
    world.session_demand[0] = 1.0
    world.session_end[0] = 10**9
    world._p_arrival = -1.0  # no new sessions
    return world


def test_rlf_fires_after_sustained_low_sinr():
    world = rlf_setup()
    events = []
    for _ in range(9):
        world.step()
        events += world.drain_events()
    assert events == []  # below threshold for only 900ms so far
    world.step()
    events = world.drain_events()
    kinds = [e["kind"] for e in events]
    assert kinds == ["rlf", "session_end"]
    assert events[0]["ts"] == 1000 and events[0]["cell"] == "bs3"
    assert events[1]["outcome"] == "dropped"
    assert world.totals["dropped"] == 1
    assert world.in_outage[0] and world.outage_until[0] == 1200


def test_reattach_after_outage():
    world = rlf_setup()
    for _ in range(11):
        world.step()
    assert world.in_outage[0]  # 1100ms: still re-establishing
    world.step()
    assert world.now_ms == 1200 and not world.in_outage[0]
    rsrp = world._rsrp()
    assert world.serving[0] == np.argmax(rsrp[0])
    # reattachment is not a handover and cannot seed a ping-pong
    assert world.last_ho_from[0] == -1
    assert not any(e["kind"] == "handover" for e in world.drain_events())


def test_no_rlf_while_in_outage():
    world = rlf_setup()
    for _ in range(10):
        world.step()
    world.drain_events()
    world.step()  # 1100ms, still in outage, no second rlf
    assert [e["kind"] for e in world.drain_events()] == []


# -- admission and satisfaction ----------------------------------------------------------


def unit_tp_at(world, ue):
    world.step()
    return float(
        np.minimum(6.0, np.log2(1.0 + 10.0 ** (world.last_sinr_db[ue] / 10.0))) * 0.18
    )


def test_admission_blocks_when_capacity_exceeded():
    cfg = one_cell_cfg()
    world = build_scenario(cfg)
    for i, x in enumerate((100.0, 120.0)):
        script_ue(world, i, (x, 0.0), (x, 0.0), speed=0.0)
    world.serving[:] = 0
    # single cell, no interference: spectral efficiency is capped at 6
    unit_tp = 6.0 * 0.18
    world.session_active[0] = True
    world.session_demand[0] = 95.0 * unit_tp
    world.session_end[0] = 10**9
    world.target_mbps[1] = 20.0
    world._p_arrival = 2.0  # force an arrival attempt every tick
    world.step()
    ev = [e for e in world.drain_events() if e["kind"] == "session_arrival"]
    assert len(ev) == 1
    need = 20.0 / unit_tp
    assert ev[0]["admitted"] is False and 95.0 + need > 100.0
    assert math.isclose(ev[0]["ru"], need, rel_tol=1e-9)
    assert math.isclose(ev[0]["cell_ru"], 95.0, rel_tol=1e-9)
    assert world.totals["blocked"] == 1 and world._win_cb[0] == 1


def test_admission_succeeds_within_capacity():
    world = build_scenario(one_cell_cfg())
    for i, x in enumerate((100.0, 120.0)):
        script_ue(world, i, (x, 0.0), (x, 0.0), speed=0.0)
    world.serving[:] = 0
    unit_tp = 6.0 * 0.18
    world.session_active[0] = True
    world.session_demand[0] = 80.0 * unit_tp
    world.session_end[0] = 10**9
    world.target_mbps[1] = 20.0
    world._p_arrival = 2.0
    world.step()
    ev = [e for e in world.drain_events() if e["kind"] == "session_arrival"]
    assert ev[0]["admitted"] is True and 80.0 + 20.0 / unit_tp <= 100.0
    assert world.session_active[1]
    assert world.totals == {
        "arrivals": 1,
        "admitted": 1,
        "blocked": 0,
        "completed": 0,
        "dropped": 0,
        "ho_rejected": 0,
    }


def test_overload_scales_satisfaction():
    world = build_scenario(one_cell_cfg(n_ue=2))
    for i, x in enumerate((100.0, 120.0)):
        script_ue(world, i, (x, 0.0), (x, 0.0), speed=0.0)
    world.serving[:] = 0
    unit_tp = 6.0 * 0.18
    world.session_active[:] = True
    world.session_demand[:] = 95.0 * unit_tp  # joint demand 190 units
    world.session_end[:] = 10**9
    world._p_arrival = -1.0
    world.step()
    per_cell, network = world.collect_kpis()
    scale = 100.0 / 190.0
    assert per_cell[0].mean_bs_load == 1.0
    assert math.isclose(per_cell[0].mean_user_satisfaction, scale, rel_tol=1e-9)
    assert math.isclose(network.mean_user_satisfaction, scale, rel_tol=1e-9)
    assert np.allclose(world.last_achieved_mbps, world.session_demand * scale)


def test_idle_cell_reports_full_satisfaction():
    world = build_scenario(one_cell_cfg())
    world._p_arrival = -1.0
    world.step()
    per_cell, network = world.collect_kpis()
    assert per_cell[0].mean_user_satisfaction == 1.0
    assert network.mean_user_satisfaction == 1.0
    assert per_cell[0].mean_bs_load == 0.0


def test_satisfaction_recomputable_from_snapshots():
    world = build_scenario(small_cfg(n_ue=120, seed=42))
    for _ in range(600):
        world.step()
    active = world.last_active_mask
    if active.any():
        ratio = world.last_achieved_mbps[active] / world.session_demand[active]
        assert (ratio <= 1.0 + 1e-9).all() and (ratio > 0.0).all()


# -- conservation -------------------------------------------------------------------


def test_session_conservation_over_run():
    world = build_scenario(small_cfg(n_ue=100, seed=5))
    events = []
    for _ in range(3000):
        world.step()
        events += world.drain_events()
    t = world.totals
    assert t["arrivals"] == t["admitted"] + t["blocked"]
    assert t["admitted"] == t["completed"] + t["dropped"] + int(world.session_active.sum())
    arr = [e for e in events if e["kind"] == "session_arrival"]
    ends = [e for e in events if e["kind"] == "session_end"]
    assert len(arr) == t["arrivals"]
    assert sum(e["admitted"] for e in arr) == t["admitted"]
    assert len(ends) == t["completed"] + t["dropped"]
    assert t["arrivals"] > 0


def test_admission_rule_replay_from_events():
    world = build_scenario(small_cfg(n_ue=100, seed=5))
    events = []
    for _ in range(3000):
        world.step()
        events += world.drain_events()
    arrivals = [e for e in events if e["kind"] == "session_arrival"]
    assert len(arrivals) > 20
    for e in arrivals:
        should_admit = e["cell_ru"] + e["ru"] <= e["capacity"]
        assert e["admitted"] == should_admit


# -- control application ---------------------------------------------------------------


def ctl(cell_id, changes):
    return ControlRecord(
        msg_id=1,
        ts=0,
        xapp_id="x",
        target=ControlTarget(Scope.CELL, cell_id),
        changes=changes,
        span=1000,
    )


def test_apply_control_clamps_ranges():
    world = build_scenario(small_cfg())
    assert world.apply_control(ctl("bs2", {"hysteresis": 11.0})) == {"hysteresis": 10.0}
    assert world.apply_control(ctl("bs2", {"hysteresis": -1.0})) == {"hysteresis": 0.0}
    assert world.apply_control(ctl("bs2", {"cio": -9.0})) == {"cio": -6.0}
    assert world.apply_control(ctl("bs2", {"cio": 6.5})) == {"cio": 6.0}
    assert world.cio[2] == 6.0


def test_apply_control_snaps_ttt_to_ladder():
    world = build_scenario(small_cfg())
    assert world.apply_control(ctl("bs0", {"ttt": 500.0})) == {"ttt": 512.0}
    assert world.apply_control(ctl("bs0", {"ttt": 496.0})) == {"ttt": 480.0}  # tie: lower wins
    assert world.apply_control(ctl("bs0", {"ttt": 9999.0})) == {"ttt": 5120.0}
    assert world.apply_control(ctl("bs0", {"ttt": 1.0})) == {"ttt": 40.0}
    assert world.ttt[0] == 40


def test_apply_control_rejects_bad_input():
    world = build_scenario(small_cfg())
    with pytest.raises(ValidationError):
        world.apply_control(ctl("bs99", {"cio": 1.0}))
    with pytest.raises(ValidationError):
        world.apply_control(ctl("bs0", {"tx_power": 40.0}))
    with pytest.raises(ValidationError):
        world.apply_control(
            ControlRecord(
                msg_id=1,
                ts=0,
                xapp_id="x",
                target=ControlTarget(Scope.UE, "ue1"),
                changes={"cio": 1.0},
                span=1000,
            )
        )


# -- determinism ---------------------------------------------------------------------------


def run_fingerprint(cfg, ticks=200):
    world = build_scenario(cfg)
    events = []
    for _ in range(ticks):
        world.step()
    events = world.drain_events()
    return world.fingerprint(), events


def test_same_seed_same_trajectory():
    cfg = small_cfg(n_ue=60, seed=9)
    fp1, ev1 = run_fingerprint(cfg)
    fp2, ev2 = run_fingerprint(cfg)
    assert fp1 == fp2
    assert ev1 == ev2


def test_different_seed_different_trajectory():
    fp1, _ = run_fingerprint(small_cfg(n_ue=60, seed=9))
    fp2, _ = run_fingerprint(small_cfg(n_ue=60, seed=10))
    assert fp1 != fp2


def test_cell_labels_do_not_affect_dynamics():
    fp1, ev1 = run_fingerprint(small_cfg(n_ue=60, seed=9, cell_id_prefix="bs"))
    fp2, ev2 = run_fingerprint(small_cfg(n_ue=60, seed=9, cell_id_prefix="sector-"))
    assert fp1 == fp2
    strip = lambda e: {k: v for k, v in e.items() if k not in ("cell", "from", "to")}
    assert [strip(e) for e in ev1] == [strip(e) for e in ev2]


def test_kpi_sample_validation():
    from ricsim.ran.world import KpiSample

    with pytest.raises(ValidationError):
        KpiSample("c", 0, 1.5, 1.0, 0, 0, 0, 0)
    with pytest.raises(ValidationError):
        KpiSample("c", 0, 0.5, 1.0, 0, 0, 2, 3)  # pp > ho
    s = KpiSample("c", 0, 0.5, 0.9, 1, 2, 3, 1)
    assert s.value("rlfs") == 2
