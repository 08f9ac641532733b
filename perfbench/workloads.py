"""The three benchmark workloads: inputs, one timed pass, output checks.

Every workload is built from the benchmark seed alone and drives the
public API of `ricsim`. One pass is the unit that is timed and repeated:
its body is timed, then its check (untimed) turns the output into a
`PassResult` that carries the check results, the per-run fingerprints and
a digest of the whole trajectory, so that a repeat which drifts from the
first pass is caught.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import ricsim.experiment as ex
from ricsim.detection import DegradationEvent, ImplicitConfig
from ricsim.ran.config import ScenarioConfig
from ricsim.resolution import ConflictPipeline, Decision
from ricsim.sdl import ControlRecord, ControlTarget, Scope, SdlStore
from ricsim.xapps import MLB_XAPP_ID, MRO_XAPP_ID

# Sizes of one pass. Simulated durations are shortened from the 1000 s
# default so that one pass takes seconds and a run holds several passes.
SIZES: Dict[str, Dict[str, int]] = {
    "run-default": {"duration_ms": 120_000, "warmup_ms": 60_000},
    "sweep-out": {"duration_ms": 40_000, "warmup_ms": 10_000, "seeds": 2},
    "ric-replay": {"windows": 250, "msgs_per_window": 40, "degradations_per_window": 3},
}

WHY = {
    "run-default": "one prioritize-mlb run of the default 19-cell world: the world tick "
    "(shadowing, SINR, handover, monitor) is ~99% of host time; no output is written",
    "sweep-out": "3 modes x 2 seeds sweep writing JSONL/CSV: sweep turnaround, summary "
    "aggregation and the file write path; disabled mode exercises the store writes",
    "ric-replay": "seeded MRO/MLB control stream straight into ConflictPipeline with "
    "degradations and expiry: detectors, resolution and the store do nearly all the work",
}

REPLAY_MODE = "prioritize-mlb"
REPLAY_WINDOW_MS = 5_000
N_CELLS = 19
# share of MLB messages in the replay stream, and of messages that also
# write a parameter the other xApp owns (which is what fires direct conflicts)
P_MLB = 0.35
P_CROSS_WRITE = 0.15


@dataclass
class PassResult:
    """What one pass produced, in the form the checks and metrics need."""

    attempted: int
    failed: int
    errors: List[str]
    digest: str
    fingerprints: List[Tuple[str, int, str]]
    sim_s: float
    messages: int
    bytes_written: int = 0


@dataclass
class Plan:
    """One workload ready to run: the timed body of a pass, the untimed check
    that turns the body's output into a PassResult, and the operations a
    pass attempts (runs or messages)."""

    body: Callable[[], object]
    check: Callable[[object], PassResult]
    attempts: int


def _sha(parts: List[str]) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode())
        h.update(b"\n")
    return h.hexdigest()


def _prioritized(mode: str) -> Optional[str]:
    return ex.policy_for_mode(mode).prioritized_xapp


def check_run_result(r: ex.RunResult) -> List[str]:
    """KPI ranges and the policy invariants of one world run."""
    errs = []
    tag = f"{r.mode}/seed{r.seed}"
    for kpi in ("mean_bs_load", "mean_user_satisfaction"):
        if not 0.0 <= r.kpis[kpi] <= 1.0:
            errs.append(f"{tag}: {kpi}={r.kpis[kpi]!r} outside [0, 1]")
    if r.kpis["pingpong_handovers"] > r.kpis["handovers"]:
        errs.append(f"{tag}: more ping-pongs than handovers")
    if r.mode == "disabled" and r.blocked:
        errs.append(f"{tag}: disabled mode blocked {r.blocked} messages")
    prio = _prioritized(r.mode)
    if prio is not None and r.blocked_by_xapp.get(prio, 0):
        errs.append(f"{tag}: prioritized xApp {prio} was blocked")
    return errs


def _world_config(sizes: Dict[str, int]) -> ex.ExperimentConfig:
    scen = dataclasses.replace(
        ScenarioConfig(), duration_ms=sizes["duration_ms"], warmup_ms=sizes["warmup_ms"]
    )
    return ex.ExperimentConfig(scenario=scen)


def _plan_run_default(seed: int, sizes: Dict[str, int], scratch: Path) -> Plan:
    config = _world_config(sizes)
    sim_s = config.scenario.duration_ms / 1000.0

    def body() -> ex.RunResult:
        # looked up on the module at call time, so the traced run sees its wrapper
        return ex.run(config, "prioritize-mlb", seed)

    def check(r: ex.RunResult) -> PassResult:
        errs = check_run_result(r)
        return PassResult(
            attempted=1,
            failed=1 if errs else 0,
            errors=errs,
            digest=_sha([r.fingerprint, ex.runs_csv([r])]),
            fingerprints=[(r.mode, r.seed, r.fingerprint)],
            sim_s=sim_s,
            messages=r.allowed + r.blocked,
        )

    return Plan(body, check, attempts=1)


RUN_FILES = ("events.jsonl", "messages.jsonl", "verdicts.jsonl", "result.json")


def _jsonl(path: Path) -> List[object]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def check_sweep_dir(out: Path, results: List[ex.RunResult]) -> Dict[int, List[str]]:
    """Every run wrote its four files, every line parses, one verdict per
    message, and runs.csv is exactly what `runs_csv` renders.

    Errors are keyed by the index of the run they belong to; a broken
    summary file belongs to every run.
    """
    errs: Dict[int, List[str]] = {}

    def bad(i: int, msg: str) -> None:
        errs.setdefault(i, []).append(msg)

    for i, r in enumerate(results):
        stem = f"{r.mode}_seed{r.seed}"
        missing = [f for f in RUN_FILES if not (out / f"{stem}_{f}").is_file()]
        if missing:
            bad(i, f"{stem}: missing {missing}")
            continue
        try:
            _jsonl(out / f"{stem}_events.jsonl")
            messages = _jsonl(out / f"{stem}_messages.jsonl")
            verdicts = _jsonl(out / f"{stem}_verdicts.jsonl")
            with open(out / f"{stem}_result.json", "r", encoding="utf-8") as fh:
                stored = json.load(fh)
        except ValueError as exc:
            bad(i, f"{stem}: unparseable output: {exc}")
            continue
        if [m["msg_id"] for m in messages] != [v["msg_id"] for v in verdicts]:
            bad(i, f"{stem}: {len(verdicts)} verdict lines for {len(messages)} messages")
        if len(messages) != r.allowed + r.blocked:
            bad(i, f"{stem}: {len(messages)} message lines, result counts {r.allowed + r.blocked}")
        if stored != json.loads(json.dumps(ex.result_to_dict(r))):
            bad(i, f"{stem}: result.json differs from the returned result")
    every = range(len(results))
    for name in ("summary.csv", "summary.txt"):
        if not (out / name).is_file():
            for i in every:
                bad(i, f"missing {name}")
    csv_path = out / "runs.csv"
    want = ex.runs_csv(results).splitlines()
    got = csv_path.read_text(encoding="utf-8").splitlines() if csv_path.is_file() else []
    if len(got) != len(want) or got[:1] != want[:1]:
        for i in every:
            bad(i, "runs.csv header or row count differs from runs_csv(results)")
    else:
        for i in every:
            if got[i + 1] != want[i + 1]:
                bad(i, f"runs.csv row {i + 1} differs from runs_csv(results)")
    return errs


def _plan_sweep_out(seed: int, sizes: Dict[str, int], scratch: Path) -> Plan:
    config = _world_config(sizes)
    seeds = [seed + i for i in range(sizes["seeds"])]
    n_runs = len(ex.MODES) * len(seeds)
    sim_s = n_runs * config.scenario.duration_ms / 1000.0

    def body() -> Tuple[Path, List[ex.RunResult]]:
        out = Path(tempfile.mkdtemp(prefix="sweep-", dir=scratch))
        try:
            _table, results = ex.sweep(config, seeds, out_dir=str(out))
        except BaseException:
            shutil.rmtree(out)
            raise
        return out, results

    def check(outputs: Tuple[Path, List[ex.RunResult]]) -> PassResult:
        out, results = outputs
        try:
            bytes_written = sum(p.stat().st_size for p in out.iterdir())
            by_run = check_sweep_dir(out, results)
        finally:
            shutil.rmtree(out)
        for i, r in enumerate(results):
            by_run.setdefault(i, []).extend(check_run_result(r))
        errs = [e for i in sorted(by_run) for e in by_run[i]]
        failed = sum(1 for e in by_run.values() if e)
        if len(results) != n_runs:
            errs.append(f"sweep returned {len(results)} runs, expected {n_runs}")
            failed = n_runs
        return PassResult(
            attempted=n_runs,
            failed=failed,
            errors=errs,
            digest=_sha([r.fingerprint for r in results] + [ex.runs_csv(results)]),
            fingerprints=[(r.mode, r.seed, r.fingerprint) for r in results],
            sim_s=sim_s,
            messages=sum(r.allowed + r.blocked for r in results),
            bytes_written=bytes_written,
        )

    return Plan(body, check, attempts=n_runs)


# -- ric-replay ---------------------------------------------------------------------


def replay_stream(seed: int, sizes: Dict[str, int]) -> List[Tuple[str, object]]:
    """Seeded event stream in the order the run loop produces it.

    Per window: degradation events, then the window's control messages
    stamped now+i, then store expiry at now. Spans run to a minute, so the
    store holds many live records; a share of the messages writes a
    parameter the other xApp owns, so the direct-conflict path fires.
    """
    rng = random.Random(seed)
    cells = [f"bs{i}" for i in range(N_CELLS)]
    hys_values = [x * 0.5 for x in range(21)]
    ttt_values = [40.0, 64.0, 80.0, 100.0, 128.0, 160.0, 256.0, 320.0, 480.0, 640.0, 1024.0]
    cio_values = [float(x) for x in range(-6, 7)]
    kpis = ("mean_bs_load", "call_blockages", "rlfs", "handovers", "pingpong_handovers")
    events: List[Tuple[str, object]] = []
    msg_id = 0
    event_id = 0
    for w in range(1, sizes["windows"] + 1):
        now = w * REPLAY_WINDOW_MS
        for _ in range(sizes["degradations_per_window"]):
            event_id += 1
            sigma = 3.0 + rng.random() * 3.0
            events.append(
                (
                    "degradation",
                    DegradationEvent(
                        event_id=event_id,
                        ts=now,
                        kpi_name=rng.choice(kpis),
                        cell_id=rng.choice(cells),
                        magnitude=sigma,
                        window_mean=1.0,
                        window_stdev=0.1,
                    ),
                )
            )
        for i in range(sizes["msgs_per_window"]):
            msg_id += 1
            cross = rng.random() < P_CROSS_WRITE
            if rng.random() < P_MLB:
                xapp = MLB_XAPP_ID
                changes = {"cio": rng.choice(cio_values)}
                if cross:
                    changes["hysteresis"] = rng.choice(hys_values)
            else:
                xapp = MRO_XAPP_ID
                pick = rng.randrange(3)
                changes = {}
                if pick != 1:
                    changes["hysteresis"] = rng.choice(hys_values)
                if pick != 0:
                    changes["ttt"] = rng.choice(ttt_values)
                if cross:
                    changes["cio"] = rng.choice(cio_values)
            events.append(
                (
                    "message",
                    ControlRecord(
                        msg_id=msg_id,
                        ts=now + i,
                        xapp_id=xapp,
                        target=ControlTarget(Scope.CELL, rng.choice(cells)),
                        changes=changes,
                        span=rng.randrange(5_000, 60_001, 1_000),
                    ),
                )
            )
        events.append(("expire", now))
    return events


def build_replay_pipeline(verdict_sink) -> Tuple[SdlStore, ConflictPipeline]:
    """The store and pipeline the run loop builds, with the default settings."""
    pcfg = ex.PipelineConfig()
    store = SdlStore()
    for g in ex.DEFAULT_GROUPS:
        store.add_parameter_group(g)
    pipeline = ConflictPipeline(
        store,
        ex.policy_for_mode(REPLAY_MODE),
        implicit_config=ImplicitConfig(
            lookback_ms=pcfg.implicit_lookback_ms, threshold=pcfg.implicit_threshold
        ),
        quarantine_ms=pcfg.quarantine_ms,
        verdict_sink=verdict_sink,
    )
    return store, pipeline


@dataclass
class ReplayOutput:
    lines: List[dict]
    implicit: List[str]
    pipeline: ConflictPipeline
    done: int
    error: Optional[str]


def _plan_ric_replay(seed: int, sizes: Dict[str, int], scratch: Path) -> Plan:
    stream = replay_stream(seed, sizes)
    msg_ids = [rec.msg_id for kind, rec in stream if kind == "message"]
    xapp_of = {rec.msg_id: rec.xapp_id for kind, rec in stream if kind == "message"}
    prio = _prioritized(REPLAY_MODE)
    sim_s = sizes["windows"] * REPLAY_WINDOW_MS / 1000.0

    def body() -> ReplayOutput:
        lines: List[dict] = []
        store, pipeline = build_replay_pipeline(lines.append)
        implicit: List[str] = []
        done = 0
        try:
            for kind, item in stream:
                if kind == "message":
                    pipeline.process_control_message(item)
                    done += 1
                elif kind == "degradation":
                    for o in pipeline.on_degradation(item):
                        implicit.append(f"{item.event_id} {o.decision.value} {','.join(o.quarantined)}")
                else:
                    store.expire(item)
        except Exception as exc:  # any exception fails the rest of the stream
            return ReplayOutput(lines, implicit, pipeline, done, f"replay raised after {done} messages: {exc!r}")
        return ReplayOutput(lines, implicit, pipeline, done, None)

    def check(out: ReplayOutput) -> PassResult:
        errs = [out.error] if out.error else []
        failed = set(msg_ids[out.done :])
        seen = [line["msg_id"] for line in out.lines]
        if seen != msg_ids[: len(seen)] or len(seen) != out.done:
            errs.append(f"{len(seen)} verdicts for {out.done} processed messages, or out of order")
            failed.update(msg_ids)
        for line in out.lines:
            if line["decision"] == Decision.BLOCK.value and xapp_of[line["msg_id"]] == prio:
                errs.append(f"msg {line['msg_id']}: prioritized xApp {prio} blocked")
                failed.add(line["msg_id"])
        pipeline = out.pipeline
        counted = sum(pipeline.allowed_by_xapp.values()) + sum(pipeline.blocked_by_xapp.values())
        if counted != out.done:
            errs.append(f"pipeline counted {counted} messages, {out.done} were processed")
            failed.update(msg_ids)
        digest = _sha([json.dumps(line, sort_keys=True) for line in out.lines] + out.implicit)
        return PassResult(
            attempted=len(msg_ids),
            failed=len(failed),
            errors=errs,
            digest=digest,
            fingerprints=[(REPLAY_MODE, seed, digest)],
            sim_s=sim_s,
            messages=out.done,
        )

    return Plan(body, check, attempts=len(msg_ids))


PLANS = {
    "run-default": _plan_run_default,
    "sweep-out": _plan_sweep_out,
    "ric-replay": _plan_ric_replay,
}


def plan(name: str, seed: int, scratch: Path) -> Plan:
    """Build the inputs of workload `name` from `seed`; passes write under `scratch`."""
    return PLANS[name](seed, SIZES[name], scratch)


def setup(name: str, seed: int) -> object:
    """What the workload builds before its first step: the world for the
    world workloads, the store and pipeline for the replay."""
    if name == "ric-replay":
        return build_replay_pipeline(lambda line: None)
    return ex.build_scenario(_world_config(SIZES[name]).scenario.with_seed(seed))
