"""Detector semantics, checked against hand-computed values and brute force."""

import random
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detection_oracle import random_log, replay_reports
from ricsim.detection import (
    ConflictKind,
    ConflictReport,
    DegradationEvent,
    ImplicitConfig,
    KpiPoint,
    PerformanceMonitor,
    check_thresholds,
    correlate_implicit,
    detect_direct,
    detect_indirect,
    map_parameter_groups,
)
from ricsim.sdl import (
    ControlRecord,
    ControlTarget,
    GroupChangeRecord,
    ParameterGroupDef,
    Scope,
    SdlStore,
    ValidationError,
)


def cell(cid="c1"):
    return ControlTarget(Scope.CELL, cid)


def rec(msg_id, ts=0, xapp="x1", target=None, changes=None, span=5000):
    return ControlRecord(
        msg_id=msg_id,
        ts=ts,
        xapp_id=xapp,
        target=target or cell(),
        changes={"hysteresis": 3.0} if changes is None else changes,
        span=span,
    )


HO_GROUP = ParameterGroupDef("ho_boundary", frozenset({"hysteresis", "ttt", "cio"}), Scope.CELL)


def record_with_groups(store, r, defs):
    store.supersede(r)
    store.record_control(r)
    for gid in map_parameter_groups(r, defs):
        store.record_group_change(GroupChangeRecord.from_control(r, gid))


# -- direct detection ---------------------------------------------------------


def test_direct_conflict_on_shared_parameter():
    store = SdlStore()
    store.record_control(rec(1, ts=0, xapp="mro", changes={"hysteresis": 3.5, "ttt": 640}))
    incoming = rec(2, ts=1000, xapp="mlb", changes={"hysteresis": 2.0})
    reports = detect_direct(incoming, store)
    assert len(reports) == 1
    rep = reports[0]
    assert rep.kind is ConflictKind.DIRECT
    assert rep.incoming_msg_id == 2
    assert rep.conflicting_msg_ids == (1,)
    assert rep.xapp_ids == frozenset({"mro", "mlb"})
    assert rep.shared_parameters == frozenset({"hysteresis"})
    assert rep.shared_groups == frozenset()


def test_direct_requires_overlapping_window():
    store = SdlStore()
    store.record_control(rec(1, ts=0, span=500, xapp="mro"))
    assert detect_direct(rec(2, ts=500, xapp="mlb"), store) == []


def test_direct_same_xapp_is_supersession_not_conflict():
    store = SdlStore()
    store.record_control(rec(1, ts=0, xapp="mro"))
    assert detect_direct(rec(2, ts=100, xapp="mro"), store) == []


def test_direct_reports_ordered_by_msg_id():
    store = SdlStore()
    store.record_control(rec(7, ts=0, xapp="x2"))
    store.record_control(rec(3, ts=0, xapp="x3"))
    reports = detect_direct(rec(9, ts=100, xapp="x1"), store)
    assert [r.conflicting_msg_ids[0] for r in reports] == [3, 7]


def test_detectors_leave_store_untouched():
    store = SdlStore()
    store.add_parameter_group(HO_GROUP)
    record_with_groups(store, rec(1, ts=0, xapp="mro"), store.parameter_groups())
    before = store.dump()
    incoming = rec(2, ts=100, xapp="mlb", changes={"cio": -1.0, "hysteresis": 2.0})
    detect_direct(incoming, store)
    groups = map_parameter_groups(incoming, store.parameter_groups())
    detect_indirect(incoming, groups, store)
    assert store.dump() == before
    # incoming is not yet recorded, so it can never appear as a counterpart
    for rep in detect_direct(incoming, store):
        assert 2 not in rep.conflicting_msg_ids


# -- group mapping ---------------------------------------------------------------


def test_map_parameter_groups_by_member_and_scope():
    defs = [
        HO_GROUP,
        ParameterGroupDef("power", frozenset({"tx_power", "pilot_power"}), Scope.CELL),
        ParameterGroupDef("ue_grp", frozenset({"hysteresis", "cio"}), Scope.UE),
    ]
    incoming = rec(1, changes={"hysteresis": 1.0})
    assert map_parameter_groups(incoming, defs) == ["ho_boundary"]
    assert map_parameter_groups(rec(2, changes={"tx_power": 40.0}), defs) == ["power"]
    assert map_parameter_groups(rec(3, changes={"unrelated": 1.0}), defs) == []


def test_map_parameter_groups_sorted():
    defs = [
        ParameterGroupDef("zeta", frozenset({"p1", "p2"}), Scope.CELL),
        ParameterGroupDef("alpha", frozenset({"p1", "p3"}), Scope.CELL),
    ]
    assert map_parameter_groups(rec(1, changes={"p1": 0.0}), defs) == ["alpha", "zeta"]


# -- indirect detection ------------------------------------------------------------


def test_indirect_conflict_via_shared_group():
    store = SdlStore()
    store.add_parameter_group(HO_GROUP)
    record_with_groups(store, rec(1, ts=0, xapp="mro", changes={"hysteresis": 3.5}), store.parameter_groups())
    incoming = rec(2, ts=1000, xapp="mlb", changes={"cio": -1.0})
    groups = map_parameter_groups(incoming, store.parameter_groups())
    reports = detect_indirect(incoming, groups, store)
    assert len(reports) == 1
    rep = reports[0]
    assert rep.kind is ConflictKind.INDIRECT
    assert rep.conflicting_msg_ids == (1,)
    assert rep.shared_groups == frozenset({"ho_boundary"})
    assert rep.shared_parameters == frozenset()


def test_indirect_excludes_pairs_already_direct():
    store = SdlStore()
    store.add_parameter_group(HO_GROUP)
    record_with_groups(store, rec(1, ts=0, xapp="mro", changes={"hysteresis": 3.5, "ttt": 640}), store.parameter_groups())
    incoming = rec(2, ts=1000, xapp="mlb", changes={"ttt": 480, "cio": -1.0})
    groups = map_parameter_groups(incoming, store.parameter_groups())
    assert detect_direct(incoming, store) != []
    assert detect_indirect(incoming, groups, store) == []


def test_indirect_same_xapp_excluded():
    store = SdlStore()
    store.add_parameter_group(HO_GROUP)
    record_with_groups(store, rec(1, ts=0, xapp="mlb", changes={"hysteresis": 1.0}), store.parameter_groups())
    incoming = rec(2, ts=100, xapp="mlb", changes={"cio": -1.0})
    assert detect_indirect(incoming, ["ho_boundary"], store) == []


# -- equivalence with the brute-force oracle -----------------------------------------


def _pipeline_reports(messages, defs):
    store = SdlStore()
    out = []
    for m in messages:
        direct = detect_direct(m, store)
        groups = map_parameter_groups(m, defs)
        indirect = detect_indirect(m, groups, store)
        out.append(
            (
                {(r.conflicting_msg_ids[0], r.shared_parameters) for r in direct},
                {(next(iter(r.shared_groups)), r.conflicting_msg_ids[0]) for r in indirect},
            )
        )
        store.supersede(m)
        store.record_control(m)
        for gid in groups:
            store.record_group_change(GroupChangeRecord.from_control(m, gid))
    return out


@pytest.mark.parametrize("seed", range(40))
def test_detection_matches_oracle_on_random_logs(seed):
    messages, defs = random_log(random.Random(seed))
    assert _pipeline_reports(messages, defs) == replay_reports(messages, defs)


# -- performance monitor --------------------------------------------------------------


def feed(mon, values, kpi="rlfs", cell_id="c1", start=0, step=5000):
    events = []
    for i, v in enumerate(values):
        ev = mon.observe(KpiPoint(ts=start + i * step, kpi_name=kpi, cell_id=cell_id, value=v))
        if ev is not None:
            events.append(ev)
    return events


def test_pmon_quiet_on_steady_stream():
    mon = PerformanceMonitor(window=20)
    assert feed(mon, [1.0, 1.2] * 30) == []


def test_pmon_needs_full_window():
    mon = PerformanceMonitor(window=20)
    assert feed(mon, [0.0] * 19 + [100.0]) == []


def test_pmon_flags_step_with_hand_computed_magnitude():
    mon = PerformanceMonitor(window=20)
    base = [1.0, 2.0] * 10
    events = feed(mon, base + [50.0])
    assert len(events) == 1
    ev = events[0]
    expected_z = (50.0 - statistics.mean(base)) / statistics.stdev(base)
    assert ev.magnitude == pytest.approx(expected_z)
    assert ev.window_mean == pytest.approx(statistics.mean(base))
    assert ev.window_stdev == pytest.approx(statistics.stdev(base))
    assert ev.kpi_name == "rlfs" and ev.cell_id == "c1"


def test_pmon_satisfaction_drop_is_adverse():
    mon = PerformanceMonitor(window=20)
    base = [0.94, 0.96] * 10
    events = feed(mon, base + [0.2], kpi="mean_user_satisfaction")
    assert len(events) == 1
    expected_z = (statistics.mean(base) - 0.2) / statistics.stdev(base)
    assert events[0].magnitude == pytest.approx(expected_z)
    # an upward move in satisfaction is not a degradation
    mon2 = PerformanceMonitor(window=20)
    assert feed(mon2, base + [1.0], kpi="mean_user_satisfaction") == []


def test_pmon_stdev_floor_keeps_constant_streams_usable():
    mon = PerformanceMonitor(window=20)
    events = feed(mon, [1.0] * 20 + [1.5])
    assert len(events) == 1
    assert events[0].magnitude == pytest.approx(0.5 / 1e-6)


def test_pmon_rejects_time_going_backwards():
    mon = PerformanceMonitor(window=20)
    mon.observe(KpiPoint(ts=1000, kpi_name="rlfs", cell_id="c1", value=1.0))
    with pytest.raises(ValidationError):
        mon.observe(KpiPoint(ts=999, kpi_name="rlfs", cell_id="c1", value=1.0))
    # separate streams have separate clocks
    mon.observe(KpiPoint(ts=0, kpi_name="rlfs", cell_id="c2", value=1.0))


def test_pmon_rejects_nonfinite_value():
    with pytest.raises(ValidationError):
        KpiPoint(ts=0, kpi_name="rlfs", cell_id="c1", value=float("inf"))


@given(st.lists(st.floats(-100, 100), min_size=0, max_size=60))
@settings(max_examples=100)
def test_pmon_deterministic_for_identical_streams(values):
    a = PerformanceMonitor(window=10)
    b = PerformanceMonitor(window=10)
    assert feed(a, values) == feed(b, values)


# -- implicit correlation ----------------------------------------------------------


def degradation(event_id=1, ts=10_000, kpi="rlfs", cell_id="c1", magnitude=4.0):
    return DegradationEvent(
        event_id=event_id,
        ts=ts,
        kpi_name=kpi,
        cell_id=cell_id,
        magnitude=magnitude,
        window_mean=0.0,
        window_stdev=1.0,
    )


def test_correlate_same_parameter_two_xapps():
    store = SdlStore()
    store.record_control(rec(1, ts=8000, xapp="x1", changes={"hysteresis": 2.0}))
    store.record_control(rec(2, ts=9000, xapp="x2", changes={"hysteresis": 4.0}))
    keys = correlate_implicit(degradation(ts=9500), store, ImplicitConfig())
    assert keys == [(("x1", "x2"), "hysteresis", cell())]
    ctr = store.get_counter(keys[0])
    assert ctr.count == 1 and ctr.msg_ids == (1, 2)


def test_correlate_group_key_for_distinct_parameters():
    # distinct raw parameters, same group: evidence keyed by the group
    store = SdlStore()
    store.add_parameter_group(HO_GROUP)
    defs = store.parameter_groups()
    record_with_groups(store, rec(1, ts=8000, xapp="mro", changes={"hysteresis": 2.0}), defs)
    record_with_groups(store, rec(2, ts=9000, xapp="mlb", changes={"cio": -1.0}), defs)
    keys = correlate_implicit(degradation(ts=9500), store, ImplicitConfig())
    assert keys == [(("mlb", "mro"), "ho_boundary", cell())]
    # oracle recomputation from the full log: both messages active, both map
    # onto ho_boundary for c1, two distinct xapps -> exactly one group key
    assert store.get_counter(keys[0]).msg_ids == (1, 2)


def test_correlate_honours_lookback():
    store = SdlStore()
    cfg = ImplicitConfig(lookback_ms=10_000)
    store.record_control(rec(1, ts=0, span=1000, xapp="x1", changes={"p": 1.0}))
    store.record_control(rec(2, ts=29_000, span=1000, xapp="x2", changes={"p": 2.0}))
    # msg 1 expired 29s before the event, far past the lookback
    assert correlate_implicit(degradation(ts=30_000), store, cfg) == []
    # within lookback: a record expired 5s ago still correlates
    store2 = SdlStore()
    store2.record_control(rec(1, ts=24_000, span=1000, xapp="x1", changes={"p": 1.0}))
    store2.record_control(rec(2, ts=29_000, span=1000, xapp="x2", changes={"p": 2.0}))
    assert correlate_implicit(degradation(ts=30_000), store2, cfg) == [
        (("x1", "x2"), "p", cell())
    ]


def test_correlate_ignores_messages_after_event():
    store = SdlStore()
    store.record_control(rec(1, ts=8000, xapp="x1", changes={"p": 1.0}))
    store.record_control(rec(2, ts=11_000, xapp="x2", changes={"p": 2.0}))
    assert correlate_implicit(degradation(ts=10_000), store, ImplicitConfig()) == []


def test_correlate_requires_two_xapps():
    store = SdlStore()
    store.record_control(rec(1, ts=8000, xapp="x1", changes={"p": 1.0}))
    store.record_control(rec(2, ts=9000, xapp="x1", changes={"p": 2.0}))
    assert correlate_implicit(degradation(ts=9500), store, ImplicitConfig()) == []


def test_correlate_resolves_ue_targets_to_serving_cell():
    store = SdlStore()
    ue = ControlTarget(Scope.UE, "u7")
    store.record_control(rec(1, ts=8000, xapp="x1", target=ue, changes={"p": 1.0}))
    store.record_control(rec(2, ts=9000, xapp="x2", target=ue, changes={"p": 2.0}))
    cfg = ImplicitConfig(cell_of_ue={"u7": "c1"})
    assert correlate_implicit(degradation(ts=9500), store, cfg) == [(("x1", "x2"), "p", ue)]
    # same records, event on a different cell: no correlation
    assert correlate_implicit(degradation(event_id=2, ts=9600, cell_id="c9"), store, cfg) == []


# -- thresholds -----------------------------------------------------------------------


def test_check_thresholds_reports_and_resets():
    store = SdlStore()
    cfg = ImplicitConfig(threshold=3)
    store.record_control(rec(1, ts=0, span=60_000, xapp="x1", changes={"p": 1.0}))
    store.record_control(rec(2, ts=0, span=60_000, xapp="x2", changes={"p": 2.0}))
    for i in range(3):
        ev = degradation(event_id=i + 1, ts=10_000 + i * 1000)
        keys = correlate_implicit(ev, store, cfg)
        if i < 2:
            assert check_thresholds(store, cfg.threshold) == []
    reports = check_thresholds(store, cfg.threshold)
    assert len(reports) == 1
    rep = reports[0]
    assert rep.kind is ConflictKind.IMPLICIT
    assert rep.incoming_msg_id is None
    assert rep.conflicting_msg_ids == (1, 2)
    assert rep.xapp_ids == frozenset({"x1", "x2"})
    assert rep.evidence.key == (("x1", "x2"), "p", cell())
    assert rep.evidence.count == 3
    # counter was consumed
    assert store.get_counter(keys[0]).count == 0
    assert check_thresholds(store, cfg.threshold) == []


def test_check_thresholds_orders_reports_by_key():
    store = SdlStore()
    k1 = (("x1", "x2"), "p2", cell("c1"))
    k2 = (("x1", "x2"), "p1", cell("c2"))
    for _ in range(2):
        store.bump_counter(k1, msg_ids=(1, 2))
        store.bump_counter(k2, msg_ids=(3, 4))
    reports = check_thresholds(store, 2)
    assert [r.evidence.key for r in reports] == [k2, k1]


def test_conflict_report_invariants():
    with pytest.raises(ValidationError):
        ConflictReport(
            kind=ConflictKind.DIRECT,
            incoming_msg_id=1,
            conflicting_msg_ids=(),
            xapp_ids=frozenset({"a"}),
            target=cell(),
            shared_parameters=frozenset({"p"}),
        )
    with pytest.raises(ValidationError):
        ConflictReport(
            kind=ConflictKind.DIRECT,
            incoming_msg_id=1,
            conflicting_msg_ids=(2,),
            xapp_ids=frozenset({"a", "b"}),
            target=cell(),
            shared_parameters=frozenset(),
        )
    with pytest.raises(ValidationError):
        ConflictReport(
            kind=ConflictKind.INDIRECT,
            incoming_msg_id=1,
            conflicting_msg_ids=(2,),
            xapp_ids=frozenset({"a", "b"}),
            target=cell(),
            shared_groups=frozenset(),
        )
