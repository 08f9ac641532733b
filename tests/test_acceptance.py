"""End-to-end acceptance suite.

One test per criterion, in order. Every test prints a single
"[criterion N] PASS/FAIL ..." line with the measured numbers (run with
`pytest -s` or `-rP` to see the lines for passing tests). Criteria 3 and
7 through 9 share one full three-mode sweep over ten seeds, built once
per module.
"""

import random
import statistics
import time

import numpy as np
import pytest

from detection_oracle import random_log, replay_reports
from passthrough import run_bypassing_ric
from ricsim.detection import (
    DegradationEvent,
    KpiPoint,
    PerformanceMonitor,
    detect_direct,
    detect_indirect,
    map_parameter_groups,
)
from ricsim.experiment import MODES, ExperimentConfig, run, sweep
from ricsim.resolution import ConflictPipeline, Decision, ResolutionPolicy
from ricsim.sdl import (
    ControlRecord,
    ControlTarget,
    GroupChangeRecord,
    ParameterGroupDef,
    Scope,
    SdlStore,
)
from ricsim.xapps import MLB_XAPP_ID, MRO_XAPP_ID

N_SEEDS = 10
SWEEP_BUDGET_S = 600.0

PRIORITIZED = {"prioritize-mro": MRO_XAPP_ID, "prioritize-mlb": MLB_XAPP_ID}


def _verdict(n: int, ok: bool, detail: str) -> None:
    line = "[criterion %d] %s %s" % (n, "PASS" if ok else "FAIL", detail)
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def full_sweep():
    config = ExperimentConfig()
    t0 = time.monotonic()
    table, results = sweep(config, seeds=list(range(N_SEEDS)))
    elapsed = time.monotonic() - t0
    return config, table, results, elapsed


# -- 1: detection equivalence ---------------------------------------------------


def _pipeline_reports(messages, defs):
    # same adapter as the unit suite: run the real detectors over a store
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


def test_detection_matches_bruteforce_oracle():
    n_logs = 1000
    rng = random.Random(20260819)
    t0 = time.monotonic()
    for _ in range(n_logs):
        messages, defs = random_log(rng)
        assert _pipeline_reports(messages, defs) == replay_reports(messages, defs)
    elapsed = time.monotonic() - t0
    _verdict(
        1,
        elapsed < 60.0,
        f"direct/indirect reports match the pairwise oracle on {n_logs} random "
        f"logs in {elapsed:.1f}s",
    )


# -- 2: pass-through identity ---------------------------------------------------


def test_pipeline_bypass_identity(full_sweep):
    config, _table, results, _elapsed = full_sweep
    disabled = {r.seed: r for r in results if r.mode == "disabled"}
    seeds = list(range(5))
    for seed in seeds:
        direct, passthrough = run_bypassing_ric(config, seed)
        # every message of the run went through the pass-through, none through the RIC
        assert passthrough.calls == direct.allowed == disabled[seed].allowed > 0, f"seed {seed}"
        assert direct.fingerprint == disabled[seed].fingerprint, f"seed {seed}"
        assert direct.kpis == disabled[seed].kpis, f"seed {seed}"
    _verdict(
        2,
        True,
        f"disabled-mode trajectory is bit-identical to a run whose messages "
        f"skip the RIC for seeds {seeds}",
    )


# -- 3: prioritized immunity ----------------------------------------------------


def test_prioritized_xapp_never_blocked(full_sweep):
    _config, _table, results, _elapsed = full_sweep
    worst = 0
    checked = 0
    for r in results:
        xapp = PRIORITIZED.get(r.mode)
        if xapp is None:
            continue
        checked += 1
        worst = max(worst, r.blocked_by_xapp.get(xapp, 0))
    _verdict(
        3,
        checked == 2 * N_SEEDS and worst == 0,
        f"zero blocked messages from the prioritized app across {checked} "
        f"prioritized runs",
    )


# -- 4: implicit detection semantics --------------------------------------------


def _degradation(event_id: int, ts: int) -> DegradationEvent:
    return DegradationEvent(
        event_id=event_id,
        ts=ts,
        kpi_name="rlfs",
        cell_id="c1",
        magnitude=5.0,
        window_mean=1.0,
        window_stdev=0.1,
    )


def test_implicit_detection_scripted_semantics():
    cell = ControlTarget(Scope.CELL, "c1")
    group_key = (("mlb", "mro"), "ho_boundary", cell)

    store = SdlStore()
    store.add_parameter_group(
        ParameterGroupDef("ho_boundary", frozenset({"hysteresis", "ttt", "cio"}), Scope.CELL)
    )
    pipeline = ConflictPipeline(store, ResolutionPolicy.disabled())

    sent = {
        1: ControlRecord(1, 1000, "mro", cell, {"hysteresis": 4.0}, 5000),
        2: ControlRecord(2, 1200, "mlb", cell, {"cio": -1.0}, 5000),
    }
    for rec in sent.values():
        assert pipeline.process_control_message(rec).decision is Decision.ALLOW

    # both apps touched the same group on c1, so each degradation bumps
    # exactly one counter; the third one crosses the threshold of 3
    triggered = []
    for event_id, ts in ((1, 2000), (2, 2500)):
        assert pipeline.on_degradation(_degradation(event_id, ts)) == []
        ctr = store.get_counter(group_key)
        assert ctr is not None and ctr.count == event_id
        assert ctr.msg_ids == (1, 2)

    trigger = _degradation(3, 3000)
    outcomes = pipeline.on_degradation(trigger)
    triggered.append((trigger, outcomes))
    assert len(outcomes) == 1
    report = outcomes[0].report
    assert report.kind.name == "IMPLICIT"
    assert report.xapp_ids == frozenset({"mro", "mlb"})
    assert report.target == cell
    assert report.evidence.key == group_key
    assert report.evidence.count == 3
    assert report.conflicting_msg_ids == (1, 2)
    assert outcomes[0].decision is Decision.ALLOW  # disabled policy
    assert store.get_counter(group_key).count == 0  # reset after reporting

    # counting resumes from zero, and a message sent after the trigger can
    # only appear in reports triggered by later events; message 3 supersedes
    # message 2 (same app, same target, shared parameter), so the second
    # report cites messages 1 and 3
    sent[3] = ControlRecord(3, 3100, "mlb", cell, {"cio": -2.0}, 5000)
    assert pipeline.process_control_message(sent[3]).decision is Decision.ALLOW
    for event_id, ts in ((4, 3200), (5, 3300)):
        assert pipeline.on_degradation(_degradation(event_id, ts)) == []
    trigger2 = _degradation(6, 3400)
    outcomes2 = pipeline.on_degradation(trigger2)
    triggered.append((trigger2, outcomes2))
    assert len(outcomes2) == 1
    assert outcomes2[0].report.conflicting_msg_ids == (1, 3)

    stale = 0
    for event, outs in triggered:
        for out in outs:
            stale += sum(
                1 for mid in out.report.conflicting_msg_ids if sent[mid].ts > event.ts
            )
    _verdict(
        4,
        stale == 0,
        "scripted degradations produce hand-computed counters and reports; "
        "no report references a message later than its trigger",
    )


# -- 5: degradation monitor -----------------------------------------------------


def test_monitor_flags_step_and_low_false_positive_rate():
    window = 20

    rng = np.random.default_rng(5)
    monitor = PerformanceMonitor(window=window, sigma=3.0)
    for i, value in enumerate(rng.standard_normal(window)):
        assert monitor.observe(KpiPoint(i, "rlfs", "c1", float(value))) is None

    # first observation after the window fills carries a 10 sigma step
    step = monitor.observe(KpiPoint(window, "rlfs", "c1", 10.0))
    assert step is not None and step.magnitude > 3.0

    n_noise = 10_000
    monitor = PerformanceMonitor(window=window, sigma=3.0)
    false_positives = 0
    for i, value in enumerate(rng.standard_normal(n_noise + window)):
        if monitor.observe(KpiPoint(i, "rlfs", "c1", float(value))) is not None:
            false_positives += 1
    rate = false_positives / n_noise
    _verdict(
        5,
        rate < 0.01,
        f"10 sigma step flagged on the first sample after window-full; "
        f"false-positive rate {rate:.2%} on {n_noise} Gaussian samples at k=3",
    )


# -- 6: determinism -------------------------------------------------------------


def test_csv_rows_deterministic(full_sweep):
    config, _table, results, _elapsed = full_sweep
    rows = {(r.mode, r.seed): r.csv_row() for r in results}
    repeats = [("prioritize-mlb", 0), ("disabled", 1)]
    for mode, seed in repeats:
        again = run(config, mode, seed)
        assert again.csv_row() == rows[(mode, seed)], f"{mode} seed {seed}"
    _verdict(
        6,
        True,
        f"identical (mode, seed, config) reproduced identical CSV rows for "
        f"{repeats}",
    )


# -- 7 and 8: mitigation effects ------------------------------------------------


def _fmt(deltas, stdevs, kpi):
    return f"{deltas[kpi]:+.2f}%±{stdevs[kpi]:.2f}"


def test_prioritize_mro_effects(full_sweep):
    _config, table, _results, elapsed = full_sweep
    assert elapsed < SWEEP_BUDGET_S, f"sweep took {elapsed:.0f}s"
    d = table.deltas["prioritize-mro"]
    s = table.delta_stdevs["prioritize-mro"]
    ok = d["handovers"] <= -3.0 and d["call_blockages"] > 0.0
    _verdict(
        7,
        ok,
        f"prioritize-mro vs disabled over {N_SEEDS} seeds ({elapsed:.0f}s): "
        f"handovers {_fmt(d, s, 'handovers')} (need <= -3%), "
        f"call blockages {_fmt(d, s, 'call_blockages')} (need > 0%)",
    )


def test_prioritize_mlb_effects(full_sweep):
    _config, table, _results, _elapsed = full_sweep
    d = table.deltas["prioritize-mlb"]
    s = table.delta_stdevs["prioritize-mlb"]
    ok = (
        d["call_blockages"] <= -3.0
        and d["mean_user_satisfaction"] > 0.0
        and abs(d["mean_bs_load"]) <= 2.0
        and d["rlfs"] >= 0.0
        and d["handovers"] >= 0.0
    )
    _verdict(
        8,
        ok,
        f"prioritize-mlb vs disabled over {N_SEEDS} seeds: "
        f"call blockages {_fmt(d, s, 'call_blockages')} (need <= -3%), "
        f"satisfaction {_fmt(d, s, 'mean_user_satisfaction')} (need > 0%), "
        f"load {_fmt(d, s, 'mean_bs_load')} (need |x| <= 2%), "
        f"rlfs {_fmt(d, s, 'rlfs')} (need >= 0%), "
        f"handovers {_fmt(d, s, 'handovers')} (need >= 0%)",
    )


# -- 9: the conflict actually occurs --------------------------------------------


def test_indirect_conflicts_occur_without_resolution(full_sweep):
    config, _table, results, _elapsed = full_sweep
    sim_seconds = config.scenario.duration_ms / 1000.0
    rates = [
        r.conflicts["indirect"] / (sim_seconds / 100.0)
        for r in results
        if r.mode == "disabled"
    ]
    mean_rate = statistics.fmean(rates)
    _verdict(
        9,
        mean_rate >= 1.0,
        f"disabled mode logs {mean_rate:.1f} indirect conflicts per 100 "
        f"simulated seconds (need >= 1)",
    )


assert list(PRIORITIZED) == [m for m in MODES if m != "disabled"]
