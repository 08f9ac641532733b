"""Experiment driver: one seeded run, and sweeps across seeds and modes.

A run wires the network world to the mitigation pipeline: every decision
period the KPI window closes, the monitor scans per-cell KPI streams for
degradations (feeding the post-action detector), then both xApps submit
their control messages through the pipeline, and allowed messages hit the
network. Post-warmup KPI windows are aggregated into the run result.
The decision period is the KPI window, `ScenarioConfig.kpi_window_ms`.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import itertools
import json
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .detection import ImplicitConfig, KpiPoint, PerformanceMonitor
from .ran.config import ScenarioConfig, config_from_dict
from .ran.world import KPI_NAMES, MEAN_KPIS, build_scenario
from .resolution import (
    ConflictPipeline,
    Decision,
    ResolutionPolicy,
    control_record_to_dict,
)
from .sdl import ParameterGroupDef, Scope, SdlStore, ValidationError
from .xapps import MLB_XAPP_ID, MRO_XAPP_ID, XappConfig, mlb_decide, mro_decide

# mitigation mode -> the xApp it gives the right of way; None lets every
# message through and is the baseline of a sweep's deltas
PRIORITIZED_XAPP = {
    "disabled": None,
    "prioritize-mro": MRO_XAPP_ID,
    "prioritize-mlb": MLB_XAPP_ID,
}
MODES = tuple(PRIORITIZED_XAPP)

CSV_COLUMNS = (
    "mode",
    "seed",
    *KPI_NAMES,
    "allowed",
    "blocked",
    "direct_conflicts",
    "indirect_conflicts",
    "implicit_conflicts",
)

DEFAULT_GROUPS = (
    ParameterGroupDef("ho_boundary", frozenset({"hysteresis", "ttt", "cio"}), Scope.CELL),
)


def policy_for_mode(mode: str) -> ResolutionPolicy:
    if mode not in PRIORITIZED_XAPP:
        raise ValidationError(f"unknown mode {mode!r}, expected one of {MODES}")
    return ResolutionPolicy(PRIORITIZED_XAPP[mode])


@dataclass(frozen=True)
class PipelineConfig:
    """The monitor and pipeline settings of a run; the only place of their defaults."""

    monitor_window: int = 20
    monitor_sigma: float = 3.0
    implicit_lookback_ms: int = 10_000
    implicit_threshold: int = 3
    quarantine_ms: int = 10_000

    def __post_init__(self) -> None:
        # each component checks its own values
        PerformanceMonitor(window=self.monitor_window, sigma=self.monitor_sigma)
        ConflictPipeline(
            SdlStore(),
            ResolutionPolicy(),
            implicit_config=self.implicit(),
            quarantine_ms=self.quarantine_ms,
        )

    def implicit(self) -> ImplicitConfig:
        return ImplicitConfig(self.implicit_lookback_ms, self.implicit_threshold)


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    xapps: XappConfig = field(default_factory=XappConfig)
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    parameter_groups: Tuple[ParameterGroupDef, ...] = DEFAULT_GROUPS

    def __post_init__(self) -> None:
        ids = [g.group_id for g in self.parameter_groups]
        if len(set(ids)) < len(ids):
            raise ValidationError(f"parameter_groups repeat a group_id: {ids}")


def experiment_from_dict(data: Mapping) -> ExperimentConfig:
    """Build a config from parsed JSON; unknown keys and the seed are rejected."""
    scenario = data.get("scenario") if isinstance(data, Mapping) else None
    if isinstance(scenario, Mapping) and "seed" in scenario:
        raise ValidationError(
            "scenario.seed is not a config key: set the seed with --seed "
            "(--seeds or --seed-list for a sweep)"
        )
    return config_from_dict(ExperimentConfig, data, "config")


def load_experiment_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return experiment_from_dict(json.load(fh))


@dataclass(frozen=True)
class RunResult:
    mode: str
    seed: int
    kpis: Dict[str, float]
    allowed_by_xapp: Dict[str, int]
    blocked_by_xapp: Dict[str, int]
    conflicts: Dict[str, int]
    fingerprint: str

    @property
    def allowed(self) -> int:
        return sum(self.allowed_by_xapp.values())

    @property
    def blocked(self) -> int:
        return sum(self.blocked_by_xapp.values())

    def csv_row(self) -> List[object]:
        return [
            self.mode,
            self.seed,
            *(repr(self.kpis[k]) if k in MEAN_KPIS else int(self.kpis[k]) for k in KPI_NAMES),
            self.allowed,
            self.blocked,
            self.conflicts["direct"],
            self.conflicts["indirect"],
            self.conflicts["implicit"],
        ]


def _write_jsonl(path: Path, rows: Iterable[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def run(
    config: ExperimentConfig,
    mode: str,
    seed: int,
    out_dir: Optional[str] = None,
) -> RunResult:
    """One deterministic simulation under the given mitigation mode.

    With `out_dir` the run keeps its world events, control messages and
    verdicts and writes them there with the result; without it no log is
    kept. Either way the trajectory is the same.
    """
    policy = policy_for_mode(mode)
    scen = config.scenario.with_seed(seed)
    pcfg = config.pipeline
    world = build_scenario(scen)

    store = SdlStore()
    for g in config.parameter_groups:
        store.add_parameter_group(g)
    monitor = PerformanceMonitor(window=pcfg.monitor_window, sigma=pcfg.monitor_sigma)
    # file suffix -> lines, kept only when they are written
    logs: Optional[Dict[str, List[dict]]] = (
        None if out_dir is None else {"events": [], "messages": [], "verdicts": []}
    )
    pipeline = ConflictPipeline(
        store,
        policy,
        implicit_config=pcfg.implicit(),
        quarantine_ms=pcfg.quarantine_ms,
        verdict_sink=None if logs is None else logs["verdicts"].append,
    )
    ids = itertools.count(1)

    ticks_per_window = scen.kpi_window_ms // scen.tick_ms
    n_windows = scen.duration_ms // scen.kpi_window_ms
    kpi_totals = {name: 0.0 for name in KPI_NAMES}
    mean_windows = 0

    for _ in range(n_windows):
        for _ in range(ticks_per_window):
            world.step()
        now = world.now_ms
        per_cell, network = world.collect_kpis()
        events = world.drain_events()
        if logs is not None:
            logs["events"].extend(events)

        for s in per_cell:
            for kpi in KPI_NAMES:
                ev = monitor.observe(KpiPoint(s.window_end_ts, kpi, s.cell_id, s.value(kpi)))
                if ev is not None:
                    pipeline.on_degradation(ev)

        params = world.control_params()
        msgs = mro_decide(per_cell, params, scen, config.xapps, ids, now)
        msgs += mlb_decide(per_cell, params, scen, config.xapps, ids, now)
        # the RIC serves the period's messages one at a time, the prioritized
        # xApp's queue first, and stamps the i-th one t+i ms; each is checked
        # against every record still in force, including the earlier ones of
        # this period
        msgs = pipeline.serve_order(msgs)
        msgs = [dataclasses.replace(m, ts=now + i) for i, m in enumerate(msgs)]
        for rec in msgs:
            if logs is not None:
                logs["messages"].append(control_record_to_dict(rec))
            if pipeline.process_control_message(rec).decision is Decision.ALLOW:
                world.apply_control(rec)
        store.expire(now)

        if now > scen.warmup_ms:
            for name in KPI_NAMES:
                kpi_totals[name] += network.value(name)
            mean_windows += 1

    for name in MEAN_KPIS:
        kpi_totals[name] /= max(mean_windows, 1)

    result = RunResult(
        mode=mode,
        seed=seed,
        kpis=kpi_totals,
        allowed_by_xapp=dict(pipeline.allowed_by_xapp),
        blocked_by_xapp=dict(pipeline.blocked_by_xapp),
        conflicts={kind.value: n for kind, n in pipeline.conflicts_by_kind.items()},
        fingerprint=world.fingerprint(),
    )
    if mode == "disabled" and result.blocked:
        raise AssertionError("a disabled pipeline must never block")

    if logs is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        stem = f"{mode}_seed{seed}"
        for suffix, rows in logs.items():
            _write_jsonl(out / f"{stem}_{suffix}.jsonl", rows)
        with open(out / f"{stem}_result.json", "w", encoding="utf-8") as fh:
            json.dump(result_to_dict(result), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return result


def result_to_dict(r: RunResult) -> dict:
    d = dataclasses.asdict(r)
    d["allowed"] = r.allowed
    d["blocked"] = r.blocked
    return d


@dataclass(frozen=True)
class ComparisonTable:
    """Per-mode KPI means, and percentage deltas against the `disabled` runs.

    A mode's delta for a KPI is the mean, over the seeds whose `disabled`
    value of that KPI is non-zero, of the per-seed percentage change, and
    its stdev is their sample stdev. `disabled` itself has delta 0.0 and no
    stdev. A delta is None when no seed qualifies, as in a sweep without
    `disabled`; a stdev is None with fewer than two such seeds.
    """

    means: Dict[str, Dict[str, float]]
    deltas: Dict[str, Dict[str, Optional[float]]]
    delta_stdevs: Dict[str, Dict[str, Optional[float]]]

    @classmethod
    def from_runs(cls, by_mode: Mapping[str, Sequence[RunResult]]) -> "ComparisonTable":
        """Aggregate the runs of each mode, in the mapping's order."""
        base = {r.seed: r.kpis for r in by_mode.get("disabled", ())}
        means: Dict[str, Dict[str, float]] = {}
        deltas: Dict[str, Dict[str, Optional[float]]] = {}
        stdevs: Dict[str, Dict[str, Optional[float]]] = {}
        for m, runs in by_mode.items():
            means[m] = {k: statistics.fmean(r.kpis[k] for r in runs) for k in KPI_NAMES}
            if m == "disabled":
                deltas[m], stdevs[m] = dict.fromkeys(KPI_NAMES, 0.0), dict.fromkeys(KPI_NAMES)
                continue
            deltas[m], stdevs[m] = {}, {}
            pairs = [(r.kpis, base[r.seed]) for r in runs if r.seed in base]
            for k in KPI_NAMES:
                vals = [100.0 * (v[k] - b[k]) / b[k] for v, b in pairs if b[k] != 0]
                deltas[m][k] = statistics.fmean(vals) if vals else None
                stdevs[m][k] = statistics.stdev(vals) if len(vals) > 1 else None
        return cls(means=means, deltas=deltas, delta_stdevs=stdevs)

    def render(self) -> str:
        modes = list(self.means)
        lines = []
        header = f"{'kpi':<24}" + "".join(f"{m:>18}" for m in modes)
        lines.append(header)
        lines.append("-" * len(header))
        for kpi in KPI_NAMES:
            row = f"{kpi:<24}"
            for m in modes:
                row += f"{self.means[m][kpi]:>18.4f}"
            lines.append(row)
        lines.append("")
        lines.append("percentage deltas vs disabled (mean of per-seed deltas +/- stdev)")
        for kpi in KPI_NAMES:
            row = f"{kpi:<24}"
            for m in modes:
                if m == "disabled":
                    row += f"{'--':>18}"
                    continue
                d = self.deltas[m][kpi]
                s = self.delta_stdevs[m][kpi]
                if d is None:
                    row += f"{'n/a':>18}"
                else:
                    cell = f"{d:+.2f}%"
                    if s is not None:
                        cell += f" ({s:.2f})"
                    row += f"{cell:>18}"
            lines.append(row)
        return "\n".join(lines)

    def summary_rows(self) -> List[List[str]]:
        """The rows of `summary.csv`, header first; None is an empty cell."""
        rows = [["mode", "kpi", "mean", "delta_pct_vs_disabled", "delta_stdev"]]
        for m in self.means:
            for kpi in KPI_NAMES:
                values = (self.means[m][kpi], self.deltas[m][kpi], self.delta_stdevs[m][kpi])
                rows.append([m, kpi, *("" if v is None else repr(v) for v in values)])
        return rows


def _csv(rows: Iterable[Sequence[object]]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def runs_csv(results: Sequence[RunResult]) -> str:
    return _csv([CSV_COLUMNS, *(r.csv_row() for r in results)])


def sweep(
    config: ExperimentConfig,
    seeds: Sequence[int],
    modes: Sequence[str] = MODES,
    out_dir: Optional[str] = None,
) -> Tuple[ComparisonTable, List[RunResult]]:
    if not seeds:
        raise ValidationError("sweep needs at least one seed")
    for what, values in (("seed", seeds), ("mode", modes)):
        repeated = [v for i, v in enumerate(values) if v in values[:i]]
        if repeated:
            raise ValidationError(f"repeated {what} {repeated[0]!r} would count twice in the means")
    for m in modes:
        policy_for_mode(m)  # validate early
    results: List[RunResult] = []
    for mode in modes:
        for seed in seeds:
            results.append(run(config, mode, seed, out_dir=out_dir))

    table = ComparisonTable.from_runs({m: [r for r in results if r.mode == m] for m in modes})
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "runs.csv").write_text(runs_csv(results), encoding="utf-8")
        (out / "summary.txt").write_text(table.render() + "\n", encoding="utf-8")
        (out / "summary.csv").write_text(_csv(table.summary_rows()), encoding="utf-8")
    return table, results
