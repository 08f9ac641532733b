"""Span tracing for the traced run, installed from outside the program.

`Tracer.install` replaces public functions and methods of `ricsim` at the
attributes their callers look them up through (module globals and class
attributes) with wrappers that record a span: name, start, end and the
index of the enclosing span. Hooks on the same wrappers count work done
(rows hashed, messages blocked, events drained). Spans stay in memory
until the run ends; `layer_metrics` then derives self times and counts.
"""

from __future__ import annotations

import functools
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns
from typing import Callable, Dict, Iterator, List, Optional

import ricsim.detection as detection
import ricsim.experiment as experiment
import ricsim.ran.grid as grid
import ricsim.ran.radio as radio
import ricsim.ran.world as world
import ricsim.resolution as resolution
import ricsim.sdl as sdl
from ricsim.resolution import Decision

WORLD_TOTALS = ("arrivals", "admitted", "blocked", "completed", "dropped", "ho_rejected")

# Span names start with their layer; the benchmark's own glue is "bench".
LAYERS = ("bench", "experiment", "world", "radio", "grid", "detection", "resolution", "sdl", "xapps")

# ROADMAP profile of one default run (share of host time), for the sanity line.
PROFILE_SHARES = {"radio.shadowing_db": 0.32, "radio.sinr_db": 0.11}


class Tracer:
    def __init__(self) -> None:
        # spans of the current pass: [name, start_ns, end_ns, parent index];
        # a list keeps the wrapper cheap
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.counts: Counter = Counter()
        self.store_records_max = 0
        self.gaps_ms: List[float] = []
        self.worlds: List[world.WorldState] = []
        self._last_collect: Dict[int, int] = {}
        # folded totals over finished passes, so memory holds one pass of spans
        self.passes = 0
        self.total_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.layer_self_ns: Counter = Counter()
        self.tick_ms: List[float] = []
        self.last_pass: List[list] = []

    # -- spans ----------------------------------------------------------------

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span the benchmark opens itself."""
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0, 0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter_ns()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable, hook: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if hook is not None:
                hook(args, out, rec)
            return out

        return traced

    # -- hooks ----------------------------------------------------------------

    def _count(self, key: str, n: Callable) -> Callable:
        def hook(args, out, rec):
            self.counts[key] += n(args, out)

        return hook

    def _on_shadowing(self, args, out, rec) -> None:
        # rows rehashed inside a tick are the cache misses; the initial fill
        # happens under build_scenario
        if rec[3] >= 0 and self.spans[rec[3]][0] == "world.step":
            self.counts["radio.shadow_rows_in_ticks"] += len(args[2])
        self.counts["radio.shadowing_db.rows"] += len(args[2])

    def _on_build(self, args, out, rec) -> None:
        self.worlds.append(out)

    def _on_collect(self, args, out, rec) -> None:
        key = id(args[0])
        last = self._last_collect.get(key)
        if last is not None:
            self.gaps_ms.append((rec[1] - last) / 1e6)
        self._last_collect[key] = rec[1]

    def _on_process(self, args, verdict, rec) -> None:
        self.counts["resolution.processed"] += 1
        if verdict.decision is Decision.BLOCK:
            self.counts["resolution.blocked"] += 1
        if verdict.quarantine_hit is not None:
            self.counts["resolution.quarantine_hits"] += 1

    def _on_record_control(self, all_controls, all_group_changes) -> Callable:
        # the store's own accessors, captured before they are wrapped
        def hook(args, out, rec):
            store = args[0]
            size = len(all_controls(store)) + len(all_group_changes(store))
            self.store_records_max = max(self.store_records_max, size)

        return hook

    # -- installation ----------------------------------------------------------

    def targets(self) -> List[tuple]:
        """(owner, attribute, span name, hook) for every traced call site.

        Only functions that a reported metric reads are wrapped; the time of
        an unwrapped callee counts as its caller's self time.
        """
        n_out = lambda args, out: len(out)  # noqa: E731
        store = sdl.SdlStore
        t = [
            (radio, "path_loss_db", "radio.path_loss_db", None),
            (radio, "shadowing_db", "radio.shadowing_db", self._on_shadowing),
            (radio, "sinr_db", "radio.sinr_db", None),
            (radio, "unit_throughput_mbps", "radio.unit_throughput_mbps", None),
            (grid, "random_points", "grid.random_points", None),
            (experiment, "build_scenario", "world.build_scenario", self._on_build),
            (world.WorldState, "step", "world.step", None),
            (world.WorldState, "collect_kpis", "world.collect_kpis", self._on_collect),
            (world.WorldState, "drain_events", "world.drain_events", self._count("world.events", n_out)),
            (world.WorldState, "ue_cells", "world.ue_cells", None),
            (world.WorldState, "control_params", "world.control_params", None),
            (world.WorldState, "apply_control", "world.apply_control", None),
            (
                detection.PerformanceMonitor,
                "observe",
                "detection.observe",
                self._count("detection.degradations", lambda a, out: out is not None),
            ),
            (resolution, "detect_direct", "detection.detect_direct", self._count("detection.reports.direct", n_out)),
            (
                resolution,
                "detect_indirect",
                "detection.detect_indirect",
                self._count("detection.reports.indirect", n_out),
            ),
            (resolution, "correlate_implicit", "detection.correlate_implicit", None),
            (
                resolution,
                "check_thresholds",
                "detection.check_thresholds",
                self._count("detection.reports.implicit", n_out),
            ),
            (resolution.ConflictPipeline, "process_control_message", "resolution.process", self._on_process),
            (resolution.ConflictPipeline, "on_degradation", "resolution.on_degradation", None),
            (experiment, "mro_decide", "xapps.mro_decide", self._count("xapps.msgs.mro", n_out)),
            (experiment, "mlb_decide", "xapps.mlb_decide", self._count("xapps.msgs.mlb", n_out)),
            (experiment, "run", "experiment.run", None),
            (experiment, "sweep", "experiment.sweep", None),
        ]
        record_hook = self._on_record_control(store.all_controls, store.all_group_changes)
        for meth in ("record_control", "active_controls", "active_group_changes", "supersede", "expire"):
            t.append((store, meth, f"sdl.{meth}", record_hook if meth == "record_control" else None))
        return t

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        saved = []
        try:
            for owner, attr, name, hook in self.targets():
                orig = owner.__dict__[attr]
                saved.append((owner, attr, orig))
                setattr(owner, attr, self.wrap(name, orig, hook))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def fold(self) -> None:
        """Add the finished pass's spans and worlds to the totals and drop them."""
        spans = self.spans
        for (name, start, end, parent), own in zip(spans, self_times(spans)):
            self.total_ns[name] += end - start
            self.self_ns[name] += own
            self.calls[name] += 1
            self.layer_self_ns[name.split(".", 1)[0]] += own
            if name == "world.step":
                self.tick_ms.append((end - start) / 1e6)
            elif parent >= 0 and name.startswith("radio.") and spans[parent][0] == "world.step":
                self.counts["world.step.radio_ns"] += end - start
        for w in self.worlds:
            for key in WORLD_TOTALS:
                self.counts[f"world.totals.{key}"] += w.totals[key]
        self.passes += 1
        self.last_pass = spans
        self.spans = []
        self.worlds = []
        self._last_collect = {}

    def write(self, path: Path) -> None:
        """Spans of the last traced pass as CSV, times in ns from its start."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.last_pass[0][1] if self.last_pass else 0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_ns,end_ns,parent\n")
            for name, start, end, parent in self.last_pass:
                fh.write(f"{name},{start - t0},{end - t0},{parent}\n")


def self_times(spans: List[list]) -> List[int]:
    """Each span's duration minus the part its child spans cover, in ns."""
    child = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (name, start, end, parent) in enumerate(spans)]


def _pct(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(tracer: Tracer, wall_s: float) -> Dict[str, float]:
    """Per-pass layer metrics from the folded spans and counts.

    Times are in seconds per pass (total over the traced passes divided by
    their number); counts are per pass too, so they repeat exactly.
    `wall_s` is the mean wall time of a traced pass, the base of the shares.
    """
    per = 1.0 / tracer.passes
    calls = tracer.calls
    sec = lambda name: tracer.total_ns[name] * 1e-9 * per  # noqa: E731
    cnt = lambda key: tracer.counts[key] * per  # noqa: E731
    m: Dict[str, float] = {}
    m["radio.shadowing_db.calls"] = calls["radio.shadowing_db"] * per
    m["radio.shadowing_db.s"] = sec("radio.shadowing_db")
    m["radio.shadowing_db.rows"] = cnt("radio.shadowing_db.rows")
    m["radio.shadow_rows_per_tick"] = (
        tracer.counts["radio.shadow_rows_in_ticks"] / calls["world.step"] if calls["world.step"] else 0.0
    )
    m["radio.sinr_db.calls"] = calls["radio.sinr_db"] * per
    m["radio.sinr_db.s"] = sec("radio.sinr_db")
    m["radio.path_loss_db.s"] = sec("radio.path_loss_db")
    m["radio.unit_throughput_mbps.s"] = sec("radio.unit_throughput_mbps")
    m["radio.shadowing_db.share"] = sec("radio.shadowing_db") / wall_s if wall_s else 0.0
    m["radio.sinr_db.share"] = sec("radio.sinr_db") / wall_s if wall_s else 0.0
    m["world.step.calls"] = calls["world.step"] * per
    m["world.step.self_s"] = (tracer.total_ns["world.step"] - tracer.counts["world.step.radio_ns"]) * 1e-9 * per
    m["world.tick_ms_p50"] = _pct(tracer.tick_ms, 0.50)
    m["world.tick_ms_p99"] = _pct(tracer.tick_ms, 0.99)
    for name in ("collect_kpis", "ue_cells", "control_params"):
        m[f"world.{name}.s"] = sec(f"world.{name}")
    m["world.apply_control.calls"] = calls["world.apply_control"] * per
    m["world.events"] = cnt("world.events")
    for key in WORLD_TOTALS:
        m[f"world.totals.{key}"] = cnt(f"world.totals.{key}")
    m["grid.random_points.calls"] = calls["grid.random_points"] * per
    m["detection.observe.calls"] = calls["detection.observe"] * per
    m["detection.observe.s"] = sec("detection.observe")
    m["detection.degradations"] = cnt("detection.degradations")
    m["detection.detect_direct.s"] = sec("detection.detect_direct")
    m["detection.detect_indirect.s"] = sec("detection.detect_indirect")
    m["detection.correlate_implicit.calls"] = calls["detection.correlate_implicit"] * per
    m["detection.correlate_implicit.s"] = sec("detection.correlate_implicit")
    m["detection.check_thresholds.s"] = sec("detection.check_thresholds")
    for kind in ("direct", "indirect", "implicit"):
        m[f"detection.reports.{kind}"] = cnt(f"detection.reports.{kind}")
    m["resolution.process.calls"] = calls["resolution.process"] * per
    m["resolution.process.s"] = sec("resolution.process")
    m["resolution.process.self_s"] = tracer.self_ns["resolution.process"] * 1e-9 * per
    m["resolution.on_degradation.calls"] = calls["resolution.on_degradation"] * per
    m["resolution.on_degradation.s"] = sec("resolution.on_degradation")
    processed = tracer.counts["resolution.processed"]
    m["resolution.block_ratio"] = tracer.counts["resolution.blocked"] / processed if processed else 0.0
    m["resolution.quarantine_hits"] = cnt("resolution.quarantine_hits")
    m["sdl.expire.calls"] = calls["sdl.expire"] * per
    for name in ("expire", "active_controls", "active_group_changes", "supersede"):
        m[f"sdl.{name}.s"] = sec(f"sdl.{name}")
    m["sdl.record_control.calls"] = calls["sdl.record_control"] * per
    m["sdl.store_records_max"] = float(tracer.store_records_max)
    m["xapps.mro_decide.s"] = sec("xapps.mro_decide")
    m["xapps.mlb_decide.s"] = sec("xapps.mlb_decide")
    m["xapps.msgs.mro"] = cnt("xapps.msgs.mro")
    m["xapps.msgs.mlb"] = cnt("xapps.msgs.mlb")
    m["experiment.run.calls"] = calls["experiment.run"] * per
    m["experiment.run.self_s"] = tracer.self_ns["experiment.run"] * 1e-9 * per
    m["experiment.sweep.self_s"] = tracer.self_ns["experiment.sweep"] * 1e-9 * per
    m["experiment.window_ms_p50"] = _pct(tracer.gaps_ms, 0.50)
    m["experiment.window_ms_p95"] = _pct(tracer.gaps_ms, 0.95)
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = tracer.layer_self_ns[layer] * 1e-9 * per
    m["trace.spans"] = sum(calls.values()) * per
    return m


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith(".s") or name.endswith("self_s"):
        return "s"
    if "_ms_p" in name:
        return "ms"
    if name.endswith((".share", "_ratio", ".overhead")):
        return "ratio"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"
