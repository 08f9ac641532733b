"""Benchmark of ricsim: end-to-end metrics per workload, or per-layer metrics.

    python3 perfbench/run.py --workload run-default --seed 0 --seconds 35 --trace 0

Run from the repository root. The program is imported from `src/`. A run
repeats one pass of the workload (see `workloads.py`) until `--seconds`
are used, checks every pass's outputs, and requires every pass to
reproduce the first pass's trajectory digest. With `--trace 0` it
reports calibrated host-time end-to-end metrics (see `end_to_end`) and
the median set-up time of several fresh processes. With `--trace 1` it runs
untraced passes, then traced passes (see `spans.py`), and reports
per-layer metrics plus the tracing overhead. The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import array
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import calibrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# sweep output and span files; removed or overwritten by every run
WORK = ROOT / ".perfbench"

WORKLOADS = ("run-default", "sweep-out", "ric-replay")
MIN_PASSES = 3
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60
# share of a traced run spent on untraced passes, the base of the overhead
UNTRACED_SHARE = 0.35
# the self times of all spans must cover the traced passes' wall time to this share
SELF_SUM_TOLERANCE = 0.01


def load_program() -> None:
    """Import ricsim from this checkout's sources, or stop before any result."""
    pkg = SRC / "ricsim"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"perfbench: no ricsim sources at {pkg}; run from the repository root")
    sys.path.insert(0, str(SRC))
    import ricsim

    if Path(ricsim.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"perfbench: imported ricsim from {ricsim.__file__}, not {pkg}")


def provenance(args: argparse.Namespace, sizes: Dict[str, int]) -> dict:
    import numpy
    import scipy

    h = hashlib.sha256()
    for path in sorted((SRC / "ricsim").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "source_sha256": h.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": sizes,
    }


def git_commit() -> str:
    """HEAD of the checkout read from its .git directory, without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class MessageClock:
    """Times every ConflictPipeline.process_control_message call, in ns.

    The run loop calls the method through the class, so one timer covers
    the world workloads and the replay alike.
    """

    def __init__(self) -> None:
        self.samples = array.array("q")

    def take(self) -> Optional[Tuple[int, float, float, float]]:
        """Count, total, p50 and p99 of the samples since the last take, in ns.

        Only the summary is kept, so memory does not grow with the number
        of passes a faster program fits into a run.
        """
        ns, self.samples = sorted(self.samples), array.array("q")
        if not ns:
            return None
        return len(ns), float(sum(ns)), percentile(ns, 0.50), percentile(ns, 0.99)

    @contextmanager
    def installed(self) -> Iterator[None]:
        from ricsim.resolution import ConflictPipeline

        orig = ConflictPipeline.__dict__["process_control_message"]
        clock = self

        def timed(pipeline, incoming):
            t0 = perf_counter_ns()
            verdict = orig(pipeline, incoming)
            clock.samples.append(perf_counter_ns() - t0)
            return verdict

        ConflictPipeline.process_control_message = timed
        try:
            yield
        finally:
            ConflictPipeline.process_control_message = orig


class Passes:
    """Timed passes of one workload with their checked results."""

    def __init__(self, attempts: int) -> None:
        from workloads import PassResult

        self.walls: List[float] = []
        # calibration factor of each pass, from kernel timings around it (calibrate.py)
        self.factors: List[float] = []
        self.results: List[PassResult] = []
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.digest = None
        self._failed_pass = lambda exc: PassResult(
            attempted=attempts,
            failed=attempts,
            errors=[f"pass raised {exc!r}"],
            digest="",
            fingerprints=[],
            sim_s=0.0,
            messages=0,
        )

    def run(
        self,
        body: Callable,
        check: Callable,
        seconds: float,
        min_passes: int,
        after: Callable = lambda: None,
    ) -> Tuple[int, int]:
        """Repeat passes while the next one is expected to end within `seconds`.

        Only `body` is timed; `after` and `check` run outside the timing.
        Returns the index range of the passes this call added.
        """
        first = len(self.walls)
        end = perf_counter() + seconds
        kernel = calibrate.kernel_seconds()
        while True:
            t0 = perf_counter()
            try:
                out = body()
            except Exception as exc:  # a pass that raises fails all its operations
                out = exc
            wall = perf_counter() - t0
            kernel_after = calibrate.kernel_seconds()
            self.factors.append(calibrate.factor(kernel, kernel_after))
            after()
            try:
                r = self._failed_pass(out) if isinstance(out, Exception) else check(out)
            except Exception as exc:
                r = self._failed_pass(exc)
            kernel = calibrate.kernel_seconds()
            self._account(r)
            self.walls.append(wall)
            self.results.append(r)
            done = len(self.walls) - first
            if done >= min_passes and perf_counter() + statistics.median(self.walls[first:]) > end:
                return first, len(self.walls)

    def calibrated(self, first: int = 0, last: int = None) -> List[float]:
        """Pass wall times at the reference machine speed."""
        return [w * f for w, f in zip(self.walls[first:last], self.factors[first:last])]

    def _account(self, r) -> None:
        failed = r.failed
        self.errors.extend(r.errors)
        if r.digest:
            if self.digest is None:
                self.digest = r.digest
            elif r.digest != self.digest:
                self.errors.append(f"trajectory digest {r.digest} differs from the first pass")
                failed = r.attempted
        self.attempted += r.attempted
        self.failed += failed


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def setup_times(workload: str, seed: int) -> List[float]:
    """Calibrated set-up times of fresh processes (setup_probe.py)."""
    out = []
    kernel = calibrate.kernel_seconds()
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
            check=True,
        )
        kernel_after = calibrate.kernel_seconds()
        out.append(float(proc.stdout.strip().splitlines()[-1]) * calibrate.factor(kernel, kernel_after))
        kernel = kernel_after
    return out


def end_to_end(passes: Passes, latencies: List[Optional[tuple]], setups: List[float], rss_kib: int) -> dict:
    """End-to-end metrics from the untraced passes, at the reference speed.

    Every time is calibrated (calibrate.py) and every timing is taken per
    pass. Host time on a shared machine only ever gains noise, so each
    metric reports the quartile of its per-pass values on the fast side:
    the first quartile of times, the third quartile of rates. The message
    rate is messages per second of pipeline time, so it does not depend on
    how many messages a seed's trajectory sends.
    """
    times = passes.calibrated()
    n = len(times)
    # (count, total, p50, p99) of each pass with messages, in us at the reference speed
    msgs = []
    for lat, f in zip(latencies, passes.factors):
        if lat:
            count, total, p50, p99 = lat
            msgs.append((count, total * f / 1e3, p50 * f / 1e3, p99 * f / 1e3))
    n_msgs = sum(m[0] for m in msgs)
    series = {
        "wall_s": times,
        "sim_speed": [r.sim_s / t for r, t in zip(passes.results, times)],
        "msgs_per_s": [c / (tot * 1e-6) for c, tot, _, _ in msgs],
        "msg_us_p50": [p50 for _, _, p50, _ in msgs],
        "msg_us_p99": [p99 for _, _, _, p99 in msgs],
    }
    rows = [
        ("setup_s", statistics.median(setups), "s", f"median of {len(setups)} fresh processes", setups),
        ("wall_s", quartiles(series["wall_s"])[0], "s", f"first quartile of {n} passes", series["wall_s"]),
        ("sim_speed", quartiles(series["sim_speed"])[2], "sim_s/s", f"third quartile of {n} passes", series["sim_speed"]),
    ]
    for name, unit, fast in (("msgs_per_s", "1/s", 2), ("msg_us_p50", "us", 0), ("msg_us_p99", "us", 0)):
        basis = f"{'third' if fast else 'first'} quartile of {len(series[name])} passes, {n_msgs} messages"
        rows.append((name, quartiles(series[name])[fast], unit, basis, series[name]))
    rows.append(("peak_rss_mb", rss_kib / 1024.0, "MiB", "max RSS of this process plus its largest child", None))
    print("pass wall_s raw " + " ".join(f"{x:.4f}" for x in passes.walls))
    print("pass calibration factor " + " ".join(f"{x:.4f}" for x in passes.factors))
    metrics = {}
    for name, value, unit, basis, values in rows:
        spread = ""
        if values is not None and len(values) > 1:
            q1, q2, q3 = quartiles(values)
            spread = f"; quartiles {q1:.6g} {q2:.6g} {q3:.6g}"
        print(f"metric {name} {value:.6g} {unit} ({basis}{spread})")
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def layer_report(passes: Passes, traced: Tuple[int, int], untraced: Tuple[int, int], tracer) -> dict:
    import spans

    t_walls = passes.walls[traced[0] : traced[1]]
    n_traced = len(t_walls)
    m = spans.layer_metrics(tracer, sum(t_walls) / n_traced)
    traced_s = statistics.median(passes.calibrated(*traced))
    untraced_s = statistics.median(passes.calibrated(*untraced))
    m["trace.overhead"] = traced_s / untraced_s - 1.0
    m["experiment.bytes_written"] = float(passes.results[-1].bytes_written)
    print(
        f"trace overhead {m['trace.overhead']:+.4f} = traced wall_s {traced_s:.6g} "
        f"(median of {n_traced}) / untraced wall_s {untraced_s:.6g} "
        f"(median of {untraced[1] - untraced[0]}) - 1, both calibrated"
    )
    processed = tracer.counts["resolution.processed"]
    print(
        f"resolution.block_ratio {m['resolution.block_ratio']:.6g} = "
        f"{tracer.counts['resolution.blocked']} blocked / {processed} processed"
    )
    self_sum = sum(m[f"layer.{layer}.self_s"] for layer in spans.LAYERS) * n_traced
    share = self_sum / sum(t_walls)
    print(f"layer self times sum to {share:.6f} of the traced wall time")
    if abs(share - 1.0) > SELF_SUM_TOLERANCE:
        passes.errors.append(f"layer self times cover {share:.4f} of the traced wall time")
    for name, expected in spans.PROFILE_SHARES.items() if m["world.step.calls"] else ():
        got = m[f"{name}.share"]
        verdict = "in line with" if 0.5 * expected <= got <= 1.5 * expected else "DIFFERS from"
        print(f"profile {name} share {got:.3f} of traced wall, {verdict} the ROADMAP profile {expected:.2f}")
    metrics = {}
    for name, value in m.items():
        unit = spans.unit_of(name)
        print(f"layer {name} {value:.6g} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main(argv: List[str] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    load_program()
    import workloads

    name, seed = args.workload, args.seed
    print("provenance " + json.dumps(provenance(args, workloads.SIZES[name]), sort_keys=True))
    print(f"workload {name}: {workloads.WHY[name]}")
    WORK.mkdir(exist_ok=True)
    plan = workloads.plan(name, seed, WORK)
    body, check = plan.body, plan.check
    passes = Passes(plan.attempts)

    clock = MessageClock()
    if not args.trace:
        latencies: List[Optional[tuple]] = []
        with clock.installed():
            passes.run(body, check, args.seconds, MIN_PASSES, lambda: latencies.append(clock.take()))
        usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics = end_to_end(passes, latencies, setup_times(name, seed), usage)
    else:
        import spans

        with clock.installed():
            untraced = passes.run(body, check, args.seconds * UNTRACED_SHARE, 1)
        tracer = spans.Tracer()

        def traced_body():
            with tracer.span("bench.pass"):
                return body()

        with tracer.installed():
            traced = passes.run(traced_body, check, args.seconds * (1 - UNTRACED_SHARE), 1, tracer.fold)
        tracer.write(WORK / f"spans-{name}-seed{seed}.csv")
        metrics = layer_report(passes, traced, untraced, tracer)

    for mode, seed, fp in passes.results[0].fingerprints:
        print(f"fingerprint {mode} seed={seed} {fp}")
    print(f"trajectory_digest {passes.digest}")
    unit = "messages" if name == "ric-replay" else "runs"
    print(
        f"error_rate {passes.failed / passes.attempted:.6g} "
        f"({passes.failed} of {passes.attempted} {unit} failed, {len(passes.walls)} passes)"
    )
    for err in passes.errors[:20]:
        print(f"error {err}")
    result = {
        "correct": passes.failed == 0 and not passes.errors,
        "attempted": passes.attempted,
        "failed": passes.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
