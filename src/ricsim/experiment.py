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

from .detection import (
    ImplicitConfig,
    KpiPoint,
    PerformanceMonitor,
    parameter_group_from_dict,
)
from .ran.config import ScenarioConfig, config_from_dict, scenario_from_dict
from .ran.world import KPI_NAMES, build_scenario
from .resolution import (
    ConflictPipeline,
    Decision,
    ResolutionPolicy,
    control_record_to_dict,
)
from .sdl import ParameterGroupDef, Scope, SdlStore, ValidationError
from .xapps import (
    MLB_XAPP_ID,
    MRO_XAPP_ID,
    MlbConfig,
    MroConfig,
    XappConfig,
    mlb_decide,
    mro_decide,
)

MODES = ("disabled", "prioritize-mro", "prioritize-mlb")

CSV_COLUMNS = (
    "mode",
    "seed",
    "mean_bs_load",
    "mean_user_satisfaction",
    "call_blockages",
    "rlfs",
    "handovers",
    "pingpong_handovers",
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
    if mode == "disabled":
        return ResolutionPolicy.disabled()
    if mode == "prioritize-mro":
        return ResolutionPolicy.prioritize(MRO_XAPP_ID)
    if mode == "prioritize-mlb":
        return ResolutionPolicy.prioritize(MLB_XAPP_ID)
    raise ValidationError(f"unknown mode {mode!r}, expected one of {MODES}")


@dataclass(frozen=True)
class PipelineConfig:
    monitor_window: int = 20
    monitor_sigma: float = 3.0
    implicit_lookback_ms: int = 10_000
    implicit_threshold: int = 3
    quarantine_ms: int = 10_000

    def __post_init__(self) -> None:
        if self.monitor_window < 2 or self.monitor_sigma <= 0:
            raise ValidationError("monitor needs window >= 2 and positive sigma")
        if min(self.implicit_lookback_ms, self.quarantine_ms) < 0:
            raise ValidationError("lookback and quarantine must be non-negative")
        if self.implicit_threshold < 1:
            raise ValidationError("implicit threshold must be at least 1")


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    xapps: XappConfig = field(default_factory=XappConfig)
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    parameter_groups: Tuple[ParameterGroupDef, ...] = DEFAULT_GROUPS


def experiment_from_dict(data: Mapping) -> ExperimentConfig:
    """Build a config from parsed JSON; unknown keys are rejected."""
    return config_from_dict(
        ExperimentConfig,
        data,
        "config",
        scenario=scenario_from_dict,
        xapps=lambda raw: config_from_dict(
            XappConfig,
            raw,
            "xapps",
            mro=lambda r: config_from_dict(MroConfig, r, "xapps.mro"),
            mlb=lambda r: config_from_dict(MlbConfig, r, "xapps.mlb"),
        ),
        pipeline=lambda raw: config_from_dict(PipelineConfig, raw, "pipeline"),
        parameter_groups=lambda raw: tuple(parameter_group_from_dict(g) for g in raw),
    )


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
            repr(self.kpis["mean_bs_load"]),
            repr(self.kpis["mean_user_satisfaction"]),
            int(self.kpis["call_blockages"]),
            int(self.kpis["rlfs"]),
            int(self.kpis["handovers"]),
            int(self.kpis["pingpong_handovers"]),
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
    cell_of_ue: Dict[str, str] = {}
    # file suffix -> lines, kept only when they are written
    logs: Optional[Dict[str, List[dict]]] = (
        None if out_dir is None else {"events": [], "messages": [], "verdicts": []}
    )
    pipeline = ConflictPipeline(
        store,
        policy,
        implicit_config=ImplicitConfig(
            lookback_ms=pcfg.implicit_lookback_ms,
            threshold=pcfg.implicit_threshold,
            cell_of_ue=cell_of_ue,
        ),
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

        cell_of_ue.clear()
        cell_of_ue.update(world.ue_cells())
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
            kpi_totals["mean_bs_load"] += network.mean_bs_load
            kpi_totals["mean_user_satisfaction"] += network.mean_user_satisfaction
            kpi_totals["call_blockages"] += network.call_blockages
            kpi_totals["rlfs"] += network.rlfs
            kpi_totals["handovers"] += network.handovers
            kpi_totals["pingpong_handovers"] += network.pingpong_handovers
            mean_windows += 1

    for name in ("mean_bs_load", "mean_user_satisfaction"):
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


DELTA_KPIS = KPI_NAMES


@dataclass(frozen=True)
class ComparisonTable:
    """Per-mode KPI means plus percentage deltas against the baseline mode."""

    results: Tuple[RunResult, ...]
    means: Dict[str, Dict[str, float]]
    deltas: Dict[str, Dict[str, Optional[float]]]
    delta_stdevs: Dict[str, Dict[str, Optional[float]]]

    def render(self) -> str:
        modes = list(self.means)
        lines = []
        header = f"{'kpi':<24}" + "".join(f"{m:>18}" for m in modes)
        lines.append(header)
        lines.append("-" * len(header))
        for kpi in DELTA_KPIS:
            row = f"{kpi:<24}"
            for m in modes:
                row += f"{self.means[m][kpi]:>18.4f}"
            lines.append(row)
        lines.append("")
        lines.append("percentage deltas vs disabled (mean of per-seed deltas +/- stdev)")
        for kpi in DELTA_KPIS:
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


def runs_csv(results: Sequence[RunResult]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_COLUMNS)
    for r in results:
        w.writerow(r.csv_row())
    return buf.getvalue()


def percentage_deltas(
    baseline: Sequence[RunResult], variant: Sequence[RunResult]
) -> Dict[str, List[float]]:
    """Per-seed percentage deltas per KPI; seeds with a zero baseline value
    for a KPI are skipped for that KPI."""
    base_by_seed = {r.seed: r for r in baseline}
    out: Dict[str, List[float]] = {k: [] for k in DELTA_KPIS}
    for v in variant:
        b = base_by_seed[v.seed]
        for kpi in DELTA_KPIS:
            denom = b.kpis[kpi]
            if denom == 0:
                continue
            out[kpi].append(100.0 * (v.kpis[kpi] - denom) / denom)
    return out


def sweep(
    config: ExperimentConfig,
    seeds: Sequence[int],
    modes: Sequence[str] = MODES,
    out_dir: Optional[str] = None,
) -> Tuple[ComparisonTable, List[RunResult]]:
    if not seeds:
        raise ValidationError("sweep needs at least one seed")
    for m in modes:
        policy_for_mode(m)  # validate early
    results: List[RunResult] = []
    for mode in modes:
        for seed in seeds:
            results.append(run(config, mode, seed, out_dir=out_dir))

    by_mode = {m: [r for r in results if r.mode == m] for m in modes}
    means: Dict[str, Dict[str, float]] = {}
    for m in modes:
        means[m] = {
            kpi: statistics.fmean(r.kpis[kpi] for r in by_mode[m]) for kpi in DELTA_KPIS
        }
    deltas: Dict[str, Dict[str, Optional[float]]] = {}
    stdevs: Dict[str, Dict[str, Optional[float]]] = {}
    base = by_mode.get("disabled", [])
    for m in modes:
        deltas[m] = {}
        stdevs[m] = {}
        if m == "disabled" or not base:
            for kpi in DELTA_KPIS:
                deltas[m][kpi] = 0.0 if m == "disabled" else None
                stdevs[m][kpi] = None
            continue
        per_seed = percentage_deltas(base, by_mode[m])
        for kpi in DELTA_KPIS:
            vals = per_seed[kpi]
            deltas[m][kpi] = statistics.fmean(vals) if vals else None
            stdevs[m][kpi] = statistics.stdev(vals) if len(vals) > 1 else None

    table = ComparisonTable(
        results=tuple(results), means=means, deltas=deltas, delta_stdevs=stdevs
    )
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "runs.csv").write_text(runs_csv(results), encoding="utf-8")
        (out / "summary.txt").write_text(table.render() + "\n", encoding="utf-8")
        summary_rows = [["mode", "kpi", "mean", "delta_pct_vs_disabled", "delta_stdev"]]
        for m in modes:
            for kpi in DELTA_KPIS:
                d = deltas[m][kpi]
                s = stdevs[m][kpi]
                summary_rows.append(
                    [
                        m,
                        kpi,
                        repr(means[m][kpi]),
                        "" if d is None else repr(d),
                        "" if s is None else repr(s),
                    ]
                )
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(summary_rows)
        (out / "summary.csv").write_text(buf.getvalue(), encoding="utf-8")
    return table, results
