"""Resolution policy, pipeline processing order, quarantine, wire formats."""

import json
import random
from dataclasses import replace

import pytest

from detection_oracle import random_stream, replay_pipeline
from ricsim.detection import ConflictKind, DegradationEvent, ImplicitConfig
from ricsim.resolution import (
    ConflictPipeline,
    Decision,
    ResolutionPolicy,
    Verdict,
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


def make_pipeline(policy, quarantine_ms=10_000, **kwargs):
    store = SdlStore()
    store.add_parameter_group(HO_GROUP)
    implicit = ImplicitConfig(lookback_ms=10_000, threshold=3)
    return ConflictPipeline(
        store, policy, implicit_config=implicit, quarantine_ms=quarantine_ms, **kwargs
    )


# -- policy / resolve ---------------------------------------------------------------


def test_policy_validation():
    with pytest.raises(ValidationError):
        ResolutionPolicy(3)
    with pytest.raises(ValidationError):
        ResolutionPolicy("")
    assert ResolutionPolicy("mro").prioritized_xapp == "mro"
    assert ResolutionPolicy().prioritized_xapp is None


def _dummy_report(incoming):
    from ricsim.detection import ConflictReport

    return ConflictReport(
        kind=ConflictKind.DIRECT,
        conflicting_msg_ids=(1,),
        xapp_ids=frozenset({"mro", "mlb"}),
        target=incoming.target,
        shared=("hysteresis",),
    )


def test_resolve_disabled_always_allows():
    incoming = rec(2, xapp="mlb")
    reports = [_dummy_report(incoming)]
    verdict = resolve(incoming, reports, ResolutionPolicy())
    assert (verdict.decision, verdict.reports) == (Decision.ALLOW, tuple(reports))


def test_resolve_prioritize_rules():
    policy = ResolutionPolicy("mro")
    # (sender, with a report, decision)
    table = [
        ("mro", True, Decision.ALLOW),
        ("mlb", True, Decision.BLOCK),
        ("mlb", False, Decision.ALLOW),
    ]
    for sender, conflicted, decision in table:
        incoming = rec(6, xapp=sender)
        reports = [_dummy_report(incoming)] if conflicted else []
        verdict = resolve(incoming, reports, policy)
        assert (verdict.decision, verdict.reports) == (decision, tuple(reports))


# -- pipeline: processing and state ---------------------------------------------------


def test_disabled_pipeline_records_both_sides():
    pipe = make_pipeline(ResolutionPolicy())
    v1 = pipe.process_control_message(rec(1, ts=0, xapp="mro", changes={"hysteresis": 3.5}))
    v2 = pipe.process_control_message(rec(2, ts=100, xapp="mlb", changes={"cio": -1.0}))
    assert v1.decision is Decision.ALLOW and v2.decision is Decision.ALLOW
    assert [r.kind for r in v2.reports] == [ConflictKind.INDIRECT]
    assert [r.msg_id for r in pipe.store.all_controls()] == [1, 2]
    assert {r.msg_id for _, r in pipe.store.all_group_changes()} == {1, 2}


def test_prioritize_blocks_conflicting_other_xapp():
    pipe = make_pipeline(ResolutionPolicy("mro"))
    pipe.process_control_message(rec(1, ts=0, xapp="mro"))
    verdict = pipe.process_control_message(rec(2, ts=100, xapp="mlb", changes={"cio": -1.0}))
    assert verdict.decision is Decision.BLOCK
    # blocked messages leave no trace
    assert [r.msg_id for r in pipe.store.all_controls()] == [1]
    assert {r.msg_id for _, r in pipe.store.all_group_changes()} == {1}
    # and non-conflicting messages from the same sender still pass
    ok = pipe.process_control_message(rec(3, ts=100, xapp="mlb", target=cell("c2"), changes={"cio": -1.0}))
    assert ok.decision is Decision.ALLOW


def test_same_xapp_update_supersedes():
    pipe = make_pipeline(ResolutionPolicy("mro"))
    pipe.process_control_message(rec(1, ts=0, xapp="mro", changes={"hysteresis": 3.0}))
    v = pipe.process_control_message(rec(2, ts=1000, xapp="mro", changes={"hysteresis": 3.5}))
    assert v.decision is Decision.ALLOW and v.reports == ()
    assert [r.msg_id for r in pipe.store.all_controls()] == [2]
    assert {r.msg_id for _, r in pipe.store.all_group_changes()} == {2}


def test_pipeline_counts_verdicts_and_conflicts():
    pipe = make_pipeline(ResolutionPolicy("mro"))
    pipe.process_control_message(rec(1, ts=0, xapp="mro"))
    pipe.process_control_message(rec(2, ts=100, xapp="mlb", changes={"cio": -1.0}))
    pipe.process_control_message(rec(3, ts=100, xapp="mlb", target=cell("c2"), changes={"cio": 1.0}))
    assert pipe.allowed_by_xapp == {"mro": 1, "mlb": 1}
    assert pipe.blocked_by_xapp == {"mlb": 1}
    assert pipe.conflicts_by_kind[ConflictKind.INDIRECT] == 1
    assert pipe.conflicts_by_kind[ConflictKind.DIRECT] == 0


def test_verdict_log_lines_schema():
    lines = []
    pipe = make_pipeline(ResolutionPolicy("mro"), verdict_sink=lines.append)
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
    pipe = make_pipeline(ResolutionPolicy("mro"), quarantine_ms=10_000)
    outcomes = bump_to_threshold(pipe, ts=50_000)
    assert len(outcomes) == 1
    out = outcomes[0]
    assert out.report.kind is ConflictKind.IMPLICIT
    assert out.decision is Decision.BLOCK
    assert out.quarantined == ("mlb",)
    # mlb's next message touching the quarantined group on that cell is blocked
    v = pipe.process_control_message(rec(10, ts=55_000, xapp="mlb", changes={"cio": -1.0}))
    assert v.decision is Decision.BLOCK
    assert 10 not in [r.msg_id for r in pipe.store.all_controls()]
    # a different cell is unaffected
    v2 = pipe.process_control_message(
        rec(11, ts=55_000, xapp="mlb", target=cell("c2"), changes={"cio": -1.0})
    )
    assert v2.decision is Decision.ALLOW
    # the prioritized xApp is never quarantined
    v3 = pipe.process_control_message(rec(12, ts=55_000, xapp="mro", changes={"ttt": 640}))
    assert v3.decision is Decision.ALLOW


def test_quarantine_expires():
    pipe = make_pipeline(ResolutionPolicy("mro"), quarantine_ms=10_000)
    bump_to_threshold(pipe, ts=50_000)
    assert (
        pipe.process_control_message(rec(10, ts=59_999, xapp="mlb", changes={"cio": -1.0})).decision
        is Decision.BLOCK
    )
    assert (
        pipe.process_control_message(rec(11, ts=60_000, xapp="mlb", changes={"cio": -1.0})).decision
        is Decision.ALLOW
    )


def test_quarantine_blocks_by_expiry_not_by_latest_message():
    # a key blocks while now < expiry, whatever later-stamped message came first
    pipe = make_pipeline(ResolutionPolicy("mro"), quarantine_ms=10_000)
    bump_to_threshold(pipe, ts=50_000)
    pipe.process_control_message(rec(10, ts=61_000, xapp="mlb", target=cell("c2"), changes={"cio": -1.0}))
    v = pipe.process_control_message(rec(11, ts=55_000, xapp="mlb", changes={"cio": -1.0}))
    assert v.decision is Decision.BLOCK
    assert v.quarantine_hit == ("mlb", "ho_boundary")


def test_disabled_policy_never_quarantines():
    pipe = make_pipeline(ResolutionPolicy())
    outcomes = bump_to_threshold(pipe, ts=50_000)
    assert outcomes[0].decision is Decision.ALLOW
    assert outcomes[0].quarantined == ()
    v = pipe.process_control_message(rec(10, ts=55_000, xapp="mlb", changes={"cio": -1.0}))
    assert v.decision is Decision.ALLOW


def test_quarantine_blocks_raw_parameter_names_too():
    pipe = make_pipeline(ResolutionPolicy("mro"), quarantine_ms=10_000)
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


def test_verdict_log_line_for_indirect():
    pipe = make_pipeline(ResolutionPolicy())
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
    pipe = make_pipeline(ResolutionPolicy(prio))
    mro = rec(1, xapp="mro", changes={"hysteresis": 4.0}, span=None)
    mlb = rec(2, xapp="mlb", changes={"cio": -1.0}, span=None)
    subs = [mro, mlb] if mro_first else [mlb, mro]
    applied = serve_period(pipe, subs, now=5000)
    assert [m.xapp_id for m in applied] == [prio]
    assert pipe.blocked_by_xapp[prio] == 0
    assert pipe.blocked_by_xapp[{"mro": "mlb", "mlb": "mro"}[prio]] == 1


def test_disabled_serves_in_submission_order():
    pipe = make_pipeline(ResolutionPolicy())
    subs = [rec(1, xapp="mlb", changes={"cio": -1.0}), rec(2, xapp="mro")]
    assert pipe.serve_order(subs) == subs
    assert [m.msg_id for m in serve_period(pipe, subs, now=5000)] == [1, 2]


def test_open_change_blocks_other_xapp_while_in_force():
    pipe = make_pipeline(ResolutionPolicy("mlb"))
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
    pipe = make_pipeline(ResolutionPolicy("mlb"))
    serve_period(pipe, [rec(1, xapp="mlb", changes={"cio": -1.0}, span=10_000)], now=0)
    assert serve_period(pipe, [rec(2, xapp="mro")], now=9_000) == []
    pipe.store.expire(10_000)
    assert pipe.store.all_controls() == ()
    assert [m.msg_id for m in serve_period(pipe, [rec(3, xapp="mro")], now=10_000)] == [3]


def test_verdict_log_line_names_quarantine_hit():
    lines = []
    pipe = make_pipeline(
        ResolutionPolicy("mro"), quarantine_ms=10_000, verdict_sink=lines.append
    )
    bump_to_threshold(pipe, ts=50_000)
    pipe.process_control_message(rec(10, ts=55_000, xapp="mlb", changes={"cio": -1.0}))
    assert lines[-1]["decision"] == "block"
    assert lines[-1]["quarantine_hit"] == ["mlb", "ho_boundary"]


# -- the whole pipeline against the brute-force oracle ------------------------------


def _pipeline_outcomes(stream, defs, prioritized, lookback_ms, threshold, quarantine_ms):
    # the real pipeline and store, its outcomes in the oracle's plain shape
    store = SdlStore()
    for g in defs:
        store.add_parameter_group(g)
    pipe = ConflictPipeline(
        store,
        ResolutionPolicy(prioritized),
        implicit_config=ImplicitConfig(lookback_ms=lookback_ms, threshold=threshold),
        quarantine_ms=quarantine_ms,
    )
    out = []
    for event_id, item in enumerate(stream, 1):
        if item[0] == "expire":
            store.expire(item[1])
            out.append(None)
        elif item[0] == "message":
            v = pipe.process_control_message(item[1])
            direct = [
                (r.conflicting_msg_ids[0], r.shared)
                for r in v.reports
                if r.kind is ConflictKind.DIRECT
            ]
            indirect = [
                (r.shared[0], r.conflicting_msg_ids[0])
                for r in v.reports
                if r.kind is ConflictKind.INDIRECT
            ]
            out.append((v.decision.value, direct, indirect, v.quarantine_hit))
        else:
            _, ts, cell_id = item
            event = DegradationEvent(event_id, ts, "rlfs", cell_id, 5.0, 0.0, 1.0)
            out.append(
                [
                    (
                        tuple(sorted(o.report.xapp_ids)),
                        o.report.shared[0],
                        (o.report.target.scope.value, o.report.target.id),
                        o.report.conflicting_msg_ids,
                        o.decision.value,
                        o.quarantined,
                    )
                    for o in pipe.on_degradation(event)
                ]
            )
    return out


def test_pipeline_matches_oracle_on_random_streams():
    rng = random.Random(20261018)
    seen = {"direct": 0, "indirect": 0, "implicit": 0, "quarantine_hit": 0, "quarantined": 0}
    for _ in range(300):
        stream, defs = random_stream(rng)
        # lookback, threshold, quarantine
        settings = (rng.randrange(0, 2100, 100), rng.randint(1, 3), rng.randrange(100, 3100, 100))
        for prioritized in (None, "x1", "x2"):
            expected = replay_pipeline(stream, defs, prioritized, *settings)
            assert _pipeline_outcomes(stream, defs, prioritized, *settings) == expected
            for got in expected:
                if isinstance(got, tuple):
                    seen["direct"] += len(got[1])
                    seen["indirect"] += len(got[2])
                    seen["quarantine_hit"] += got[3] is not None
                elif got:
                    seen["implicit"] += len(got)
                    seen["quarantined"] += sum(1 for o in got if o[5])
    # the streams exercise every path the comparison is meant to cover
    assert min(seen.values()) > 0, seen
