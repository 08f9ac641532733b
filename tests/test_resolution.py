"""Resolution policy, pipeline processing order, quarantine, wire formats."""

import json
from dataclasses import replace

import pytest

from ricsim.detection import ConflictKind, ImplicitConfig
from ricsim.resolution import (
    ConflictPipeline,
    Decision,
    ResolutionMode,
    ResolutionPolicy,
    Verdict,
    control_record_from_dict,
    control_record_to_dict,
    resolve,
    verdict_log_line,
)
from ricsim.sdl import (
    ControlRecord,
    ControlTarget,
    ParameterGroupDef,
    Scope,
    SdlStore,
    ValidationError,
)


def cell(cid="c1"):
    return ControlTarget(Scope.CELL, cid)


def rec(msg_id, ts=0, xapp="mro", target=None, changes=None, span=5000):
    return ControlRecord(
        msg_id=msg_id,
        ts=ts,
        xapp_id=xapp,
        target=target or cell(),
        changes={"hysteresis": 3.0} if changes is None else changes,
        span=span,
    )


HO_GROUP = ParameterGroupDef("ho_boundary", frozenset({"hysteresis", "ttt", "cio"}), Scope.CELL)


def make_pipeline(policy, store=None, **kwargs):
    store = store or SdlStore()
    if not store.parameter_groups():
        store.add_parameter_group(HO_GROUP)
    return ConflictPipeline(store, policy, **kwargs)


# -- policy / resolve ---------------------------------------------------------------


def test_policy_validation():
    with pytest.raises(ValidationError):
        ResolutionPolicy(ResolutionMode.PRIORITIZE, None)
    with pytest.raises(ValidationError):
        ResolutionPolicy(ResolutionMode.DISABLED, "mro")
    assert ResolutionPolicy.prioritize("mro").prioritized_xapp == "mro"
    assert ResolutionPolicy.disabled().mode is ResolutionMode.DISABLED


def _dummy_report(incoming):
    from ricsim.detection import ConflictReport

    return ConflictReport(
        kind=ConflictKind.DIRECT,
        incoming_msg_id=incoming.msg_id,
        conflicting_msg_ids=(1,),
        xapp_ids=frozenset({"mro", "mlb"}),
        target=incoming.target,
        shared_parameters=frozenset({"hysteresis"}),
    )


def test_resolve_disabled_always_allows():
    incoming = rec(2, xapp="mlb")
    verdict = resolve(incoming, [_dummy_report(incoming)], ResolutionPolicy.disabled())
    assert verdict.decision is Decision.ALLOW
    assert len(verdict.reports) == 1


def test_resolve_prioritize_rules():
    policy = ResolutionPolicy.prioritize("mro")
    clean = rec(5, xapp="mlb")
    assert resolve(clean, [], policy).decision is Decision.ALLOW
    conflicted = rec(6, xapp="mlb")
    assert resolve(conflicted, [_dummy_report(conflicted)], policy).decision is Decision.BLOCK
    own = rec(7, xapp="mro")
    assert resolve(own, [_dummy_report(own)], policy).decision is Decision.ALLOW


# -- pipeline: processing and state ---------------------------------------------------


def test_disabled_pipeline_records_both_sides():
    pipe = make_pipeline(ResolutionPolicy.disabled())
    v1 = pipe.process_control_message(rec(1, ts=0, xapp="mro", changes={"hysteresis": 3.5}))
    v2 = pipe.process_control_message(rec(2, ts=100, xapp="mlb", changes={"cio": -1.0}))
    assert v1.decision is Decision.ALLOW and v2.decision is Decision.ALLOW
    assert [r.kind for r in v2.reports] == [ConflictKind.INDIRECT]
    assert [r.msg_id for r in pipe.store.all_controls()] == [1, 2]
    assert {g.msg_id for g in pipe.store.all_group_changes()} == {1, 2}


def test_prioritize_blocks_conflicting_other_xapp():
    pipe = make_pipeline(ResolutionPolicy.prioritize("mro"))
    pipe.process_control_message(rec(1, ts=0, xapp="mro"))
    verdict = pipe.process_control_message(rec(2, ts=100, xapp="mlb", changes={"cio": -1.0}))
    assert verdict.decision is Decision.BLOCK
    # blocked messages leave no trace
    assert [r.msg_id for r in pipe.store.all_controls()] == [1]
    assert {g.msg_id for g in pipe.store.all_group_changes()} == {1}
    # and non-conflicting messages from the same sender still pass
    ok = pipe.process_control_message(rec(3, ts=100, xapp="mlb", target=cell("c2"), changes={"cio": -1.0}))
    assert ok.decision is Decision.ALLOW


def test_same_xapp_update_supersedes():
    pipe = make_pipeline(ResolutionPolicy.prioritize("mro"))
    pipe.process_control_message(rec(1, ts=0, xapp="mro", changes={"hysteresis": 3.0}))
    v = pipe.process_control_message(rec(2, ts=1000, xapp="mro", changes={"hysteresis": 3.5}))
    assert v.decision is Decision.ALLOW and v.reports == ()
    assert [r.msg_id for r in pipe.store.all_controls()] == [2]
    assert {g.msg_id for g in pipe.store.all_group_changes()} == {2}


def test_pipeline_counts_verdicts_and_conflicts():
    pipe = make_pipeline(ResolutionPolicy.prioritize("mro"))
    pipe.process_control_message(rec(1, ts=0, xapp="mro"))
    pipe.process_control_message(rec(2, ts=100, xapp="mlb", changes={"cio": -1.0}))
    pipe.process_control_message(rec(3, ts=100, xapp="mlb", target=cell("c2"), changes={"cio": 1.0}))
    assert pipe.allowed_by_xapp == {"mro": 1, "mlb": 1}
    assert pipe.blocked_by_xapp == {"mlb": 1}
    assert pipe.conflicts_by_kind[ConflictKind.INDIRECT] == 1
    assert pipe.conflicts_by_kind[ConflictKind.DIRECT] == 0


def test_verdict_log_lines_schema():
    lines = []
    pipe = make_pipeline(ResolutionPolicy.prioritize("mro"), verdict_sink=lines.append)
    pipe.process_control_message(rec(1, ts=0, xapp="mro", changes={"hysteresis": 3.5, "ttt": 640}))
    pipe.process_control_message(rec(2, ts=100, xapp="mlb", changes={"hysteresis": 1.0}))
    assert lines[0] == {"msg_id": 1, "decision": "allow", "quarantine_hit": None, "conflicts": []}
    assert lines[1] == {
        "msg_id": 2,
        "decision": "block",
        "quarantine_hit": None,
        "conflicts": [{"kind": "direct", "with": [1], "shared": ["hysteresis"]}],
    }
    # lines are JSON-serializable as-is
    for line in lines:
        assert json.loads(json.dumps(line)) == line


# -- quarantine --------------------------------------------------------------------


def bump_to_threshold(pipe, name="ho_boundary", target=None, xapps=("mlb", "mro"), ts=50_000):
    """Saturate a counter and fire one degradation check."""
    from ricsim.detection import DegradationEvent

    target = target or cell()
    key = (tuple(sorted(xapps)), name, target)
    for i in range(pipe.implicit_config.threshold):
        pipe.store.bump_counter(key, msg_ids=(101, 102))
    event = DegradationEvent(
        event_id=900, ts=ts, kpi_name="rlfs", cell_id=target.id, magnitude=5.0,
        window_mean=0.0, window_stdev=1.0,
    )
    return pipe.on_degradation(event)


def test_on_degradation_quarantines_non_prioritized():
    pipe = make_pipeline(ResolutionPolicy.prioritize("mro"), quarantine_ms=10_000)
    outcomes = bump_to_threshold(pipe, ts=50_000)
    assert len(outcomes) == 1
    out = outcomes[0]
    assert out.report.kind is ConflictKind.IMPLICIT
    assert out.decision is Decision.BLOCK
    assert out.quarantined == ("mlb",)
    # mlb's next message touching the quarantined group on that cell is blocked
    v = pipe.process_control_message(rec(10, ts=55_000, xapp="mlb", changes={"cio": -1.0}))
    assert v.decision is Decision.BLOCK
    assert pipe.store.get_control(10) is None
    # a different cell is unaffected
    v2 = pipe.process_control_message(
        rec(11, ts=55_000, xapp="mlb", target=cell("c2"), changes={"cio": -1.0})
    )
    assert v2.decision is Decision.ALLOW
    # the prioritized xApp is never quarantined
    v3 = pipe.process_control_message(rec(12, ts=55_000, xapp="mro", changes={"ttt": 640}))
    assert v3.decision is Decision.ALLOW


def test_quarantine_expires():
    pipe = make_pipeline(ResolutionPolicy.prioritize("mro"), quarantine_ms=10_000)
    bump_to_threshold(pipe, ts=50_000)
    assert (
        pipe.process_control_message(rec(10, ts=59_999, xapp="mlb", changes={"cio": -1.0})).decision
        is Decision.BLOCK
    )
    assert (
        pipe.process_control_message(rec(11, ts=60_000, xapp="mlb", changes={"cio": -1.0})).decision
        is Decision.ALLOW
    )


def test_disabled_policy_never_quarantines():
    pipe = make_pipeline(ResolutionPolicy.disabled())
    outcomes = bump_to_threshold(pipe, ts=50_000)
    assert outcomes[0].decision is Decision.ALLOW
    assert outcomes[0].quarantined == ()
    v = pipe.process_control_message(rec(10, ts=55_000, xapp="mlb", changes={"cio": -1.0}))
    assert v.decision is Decision.ALLOW


def test_quarantine_blocks_raw_parameter_names_too():
    pipe = make_pipeline(ResolutionPolicy.prioritize("mro"), quarantine_ms=10_000)
    bump_to_threshold(pipe, name="cio", ts=50_000)
    v = pipe.process_control_message(rec(10, ts=55_000, xapp="mlb", changes={"cio": -1.0}))
    assert v.decision is Decision.BLOCK


# -- wire formats -------------------------------------------------------------------


def test_control_record_round_trip():
    r = rec(42, ts=5000, xapp="mlb", changes={"cio": -2.0}, span=5000)
    d = control_record_to_dict(r)
    assert d == {
        "msg_id": 42,
        "ts_ms": 5000,
        "xapp_id": "mlb",
        "target": {"scope": "cell", "id": "c1"},
        "changes": {"cio": -2.0},
        "span_ms": 5000,
    }
    assert control_record_from_dict(json.loads(json.dumps(d))) == r


def test_control_record_from_dict_validates():
    with pytest.raises(ValidationError):
        control_record_from_dict({"msg_id": 1})
    with pytest.raises(ValidationError):
        control_record_from_dict(
            {
                "msg_id": 1,
                "ts_ms": 0,
                "xapp_id": "x",
                "target": {"scope": "nope", "id": "c1"},
                "changes": {"p": 1},
                "span_ms": 10,
            }
        )


def test_verdict_log_line_for_indirect():
    pipe = make_pipeline(ResolutionPolicy.disabled())
    pipe.process_control_message(rec(1, ts=0, xapp="mro", changes={"hysteresis": 3.5}))
    v = pipe.process_control_message(rec(2, ts=0, xapp="mlb", changes={"cio": -1.0}))
    line = verdict_log_line(2, v)
    assert line == {
        "msg_id": 2,
        "decision": "allow",
        "quarantine_hit": None,
        "conflicts": [{"kind": "indirect", "with": [1], "shared": ["ho_boundary"]}],
    }


# -- priority regardless of submission order, and for as long as a change lasts ----


def serve_period(pipe, submissions, now):
    """Run one period's submissions the way the run loop does: in the RIC's
    serving order, the i-th one stamped now + i. Returns the applied records."""
    served = [replace(m, ts=now + i) for i, m in enumerate(pipe.serve_order(submissions))]
    return [m for m in served if pipe.process_control_message(m).decision is Decision.ALLOW]


@pytest.mark.parametrize("prio", ["mro", "mlb"])
@pytest.mark.parametrize("mro_first", [True, False])
def test_prioritized_change_wins_in_either_submission_order(prio, mro_first):
    pipe = make_pipeline(ResolutionPolicy.prioritize(prio))
    mro = rec(1, xapp="mro", changes={"hysteresis": 4.0}, span=None)
    mlb = rec(2, xapp="mlb", changes={"cio": -1.0}, span=None)
    subs = [mro, mlb] if mro_first else [mlb, mro]
    applied = serve_period(pipe, subs, now=5000)
    assert [m.xapp_id for m in applied] == [prio]
    assert pipe.blocked_by_xapp[prio] == 0
    assert pipe.blocked_by_xapp[{"mro": "mlb", "mlb": "mro"}[prio]] == 1


def test_disabled_serves_in_submission_order():
    pipe = make_pipeline(ResolutionPolicy.disabled())
    subs = [rec(1, xapp="mlb", changes={"cio": -1.0}), rec(2, xapp="mro")]
    assert pipe.serve_order(subs) == subs
    assert [m.msg_id for m in serve_period(pipe, subs, now=5000)] == [1, 2]


def test_open_change_blocks_other_xapp_while_in_force():
    pipe = make_pipeline(ResolutionPolicy.prioritize("mlb"))
    serve_period(pipe, [rec(1, xapp="mlb", changes={"cio": -1.0}, span=None)], now=5000)
    # the cio value stays in force period after period, and so does the block
    for k, now in enumerate((10_000, 100_000, 1_000_000)):
        pipe.store.expire(now)
        assert serve_period(pipe, [rec(10 + k, xapp="mro", span=None)], now=now) == []
    # the prioritized xApp's next change replaces its first one and keeps the block
    serve_period(pipe, [rec(20, xapp="mlb", changes={"cio": -2.0}, span=None)], now=1_005_000)
    assert [r.msg_id for r in pipe.store.all_controls()] == [20]
    assert serve_period(pipe, [rec(21, xapp="mro", span=None)], now=1_010_000) == []
    assert pipe.blocked_by_xapp == {"mro": 4}


def test_change_with_span_blocks_until_it_runs_out():
    pipe = make_pipeline(ResolutionPolicy.prioritize("mlb"))
    serve_period(pipe, [rec(1, xapp="mlb", changes={"cio": -1.0}, span=10_000)], now=0)
    assert serve_period(pipe, [rec(2, xapp="mro")], now=9_000) == []
    pipe.store.expire(10_000)
    assert pipe.store.all_controls() == ()
    assert [m.msg_id for m in serve_period(pipe, [rec(3, xapp="mro")], now=10_000)] == [3]


def test_verdict_log_line_names_quarantine_hit():
    lines = []
    pipe = make_pipeline(
        ResolutionPolicy.prioritize("mro"), quarantine_ms=10_000, verdict_sink=lines.append
    )
    bump_to_threshold(pipe, ts=50_000)
    pipe.process_control_message(rec(10, ts=55_000, xapp="mlb", changes={"cio": -1.0}))
    assert lines[-1]["decision"] == "block"
    assert lines[-1]["quarantine_hit"] == ["mlb", "ho_boundary"]
