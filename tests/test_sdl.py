"""Store semantics: validation, half-open windows, ordering, expiry."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ricsim.sdl import (
    ControlRecord,
    ControlTarget,
    DuplicateRecordError,
    GroupChangeRecord,
    ImplicitCounter,
    ParameterGroupDef,
    Scope,
    SdlStore,
    ValidationError,
)


def cell(cid="c1"):
    return ControlTarget(Scope.CELL, cid)


def rec(msg_id, ts=0, xapp="x1", target=None, changes=None, span=1000):
    return ControlRecord(
        msg_id=msg_id,
        ts=ts,
        xapp_id=xapp,
        target=target or cell(),
        changes={"p1": 1.0} if changes is None else changes,
        span=span,
    )


# -- validation ----------------------------------------------------------------


def test_empty_changes_rejected():
    with pytest.raises(ValidationError):
        rec(1, changes={})


def test_nonpositive_span_rejected():
    with pytest.raises(ValidationError):
        rec(1, span=0)
    with pytest.raises(ValidationError):
        rec(1, span=-5)


def test_empty_ids_rejected():
    with pytest.raises(ValidationError):
        ControlTarget(Scope.CELL, "")
    with pytest.raises(ValidationError):
        rec(1, xapp="")
    with pytest.raises(ValidationError):
        rec(1, changes={"": 1.0})


def test_nonfinite_change_rejected():
    with pytest.raises(ValidationError):
        rec(1, changes={"p1": float("nan")})


def test_group_needs_two_members():
    with pytest.raises(ValidationError):
        ParameterGroupDef("g1", frozenset({"p1"}), Scope.CELL)


def test_duplicate_msg_id_rejected():
    store = SdlStore()
    store.record_control(rec(1))
    with pytest.raises(DuplicateRecordError):
        store.record_control(rec(1, ts=99))


def test_duplicate_group_change_rejected():
    store = SdlStore()
    gc = GroupChangeRecord.from_control(rec(1), "g1")
    store.record_group_change(gc)
    with pytest.raises(DuplicateRecordError):
        store.record_group_change(gc)


# -- activity window -------------------------------------------------------------


def test_activity_window_half_open():
    store = SdlStore()
    store.record_control(rec(1, ts=1000, span=500))
    t = cell()
    assert store.active_controls(t, 999) == []
    assert len(store.active_controls(t, 1000)) == 1
    assert len(store.active_controls(t, 1499)) == 1
    assert store.active_controls(t, 1500) == []


def test_active_controls_insertion_order():
    store = SdlStore()
    # insertion order, not msg_id order
    store.record_control(rec(5, ts=0))
    store.record_control(rec(2, ts=0))
    store.record_control(rec(9, ts=0))
    assert [r.msg_id for r in store.active_controls(cell(), 10)] == [5, 2, 9]


# -- oracle equivalence -----------------------------------------------------------

_targets = st.sampled_from([cell("c1"), cell("c2"), ControlTarget(Scope.UE, "u1")])


@st.composite
def _records(draw):
    seq = draw(st.lists(st.tuples(st.integers(0, 200), st.integers(1, 80), _targets), max_size=30))
    return [
        rec(i, ts=ts, span=span, target=tgt, xapp=f"x{i % 3}")
        for i, (ts, span, tgt) in enumerate(seq)
    ]


@given(_records(), _targets, st.integers(0, 300))
@settings(max_examples=200)
def test_active_controls_matches_history_filter(records, target, now):
    store = SdlStore()
    for r in records:
        store.record_control(r)
    oracle = [r for r in records if r.target == target and r.ts <= now < r.ts + r.span]
    assert store.active_controls(target, now) == oracle


@given(_records(), st.integers(0, 300), _targets, st.integers(0, 100))
@settings(max_examples=200)
def test_expire_preserves_queries_at_or_after_now(records, now, target, ahead):
    store = SdlStore()
    for r in records:
        store.record_control(r)
    before = store.active_controls(target, now + ahead)
    store.expire(now)
    assert store.active_controls(target, now + ahead) == before


# -- expiry -----------------------------------------------------------------------


def test_expire_purges_closed_windows():
    store = SdlStore()
    for i in range(3):
        store.record_control(rec(i, ts=0, span=100))
    assert store.expire(100) == 3
    assert store.all_controls() == ()


def test_expire_mixed():
    store = SdlStore()
    store.record_control(rec(1, ts=0, span=100))
    store.record_control(rec(2, ts=0, span=200))
    store.record_control(rec(3, ts=150, span=100))
    assert store.expire(150) == 1  # only msg 1 has closed
    assert [r.msg_id for r in store.all_controls()] == [2, 3]


def test_expire_drops_group_changes_with_controls():
    store = SdlStore()
    r = rec(1, ts=0, span=100)
    store.record_control(r)
    store.record_group_change(GroupChangeRecord.from_control(r, "g1"))
    assert store.expire(100) == 2
    assert store.all_group_changes() == ()


# -- supersession -------------------------------------------------------------------


def test_supersede_replaces_same_xapp_overlap():
    store = SdlStore()
    old = rec(1, ts=0, span=10_000, changes={"hysteresis": 3.0, "ttt": 480})
    store.record_control(old)
    store.record_group_change(GroupChangeRecord.from_control(old, "g1"))
    new = rec(2, ts=5000, span=10_000, changes={"hysteresis": 3.5})
    assert store.supersede(new) == [1]
    assert store.all_controls() == ()
    assert store.all_group_changes() == ()


def test_supersede_ignores_other_xapps_and_disjoint_params():
    store = SdlStore()
    store.record_control(rec(1, ts=0, span=10_000, xapp="x1", changes={"cio": -1.0}))
    store.record_control(rec(2, ts=0, span=10_000, xapp="x2", changes={"hysteresis": 3.0}))
    new = rec(3, ts=100, span=10_000, xapp="x2", changes={"ttt": 640})
    assert store.supersede(new) == []
    assert len(store.all_controls()) == 2


def test_supersede_skips_expired_records():
    store = SdlStore()
    store.record_control(rec(1, ts=0, span=100))
    assert store.supersede(rec(2, ts=5000)) == []


# -- counters ------------------------------------------------------------------------


def test_counter_bump_reset_and_threshold():
    store = SdlStore()
    key = (("x1", "x2"), "g1", cell())
    assert store.bump_counter(key, msg_ids=(4, 2)) == 1
    assert store.bump_counter(key, msg_ids=(2, 7)) == 2
    assert store.bump_counter(key) == 3
    ctr = store.get_counter(key)
    assert ctr.count == 3
    assert ctr.msg_ids == (2, 4, 7)
    assert [c.key for c in store.counters_over(3)] == [key]
    assert store.counters_over(4) == []
    store.reset_counter(key)
    assert store.get_counter(key).count == 0
    assert store.get_counter(key).msg_ids == ()


def test_counters_over_sorted_by_key():
    store = SdlStore()
    k1 = (("x1", "x2"), "g2", cell("c1"))
    k2 = (("x1", "x2"), "g1", cell("c2"))
    store.bump_counter(k1)
    store.bump_counter(k2)
    assert [c.key for c in store.counters_over(1)] == [k2, k1]


def test_open_record_outlives_expiry_until_superseded():
    store = SdlStore()
    store.add_parameter_group(ParameterGroupDef("g", frozenset({"p1", "p2"}), Scope.CELL))
    r = rec(1, ts=100, span=None)
    store.record_control(r)
    store.record_group_change(GroupChangeRecord.from_control(r, "g"))
    assert store.active_controls(cell(), 99) == []
    assert store.expire(10**9) == 0
    assert store.active_controls(cell(), 10**9) == [r]
    assert len(store.active_group_changes(cell(), "g", 10**9)) == 1
    assert store.supersede(rec(2, ts=10**9, span=None)) == [1]
    assert store.all_controls() == () and store.all_group_changes() == ()
