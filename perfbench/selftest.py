"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json declares is printed with its unit
for every workload, traced and untraced; that the trajectory digest
repeats across runs; that tampered outputs are counted as failures; and
that the benchmark refuses to run without the program's sources. Exits 0
when every check holds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Callable, List

import run

run.load_program()

import ricsim.experiment as ex  # noqa: E402
import workloads  # noqa: E402
from ricsim.resolution import ConflictPipeline  # noqa: E402

TINY = {
    "run-default": {"duration_ms": 10_000, "warmup_ms": 5_000},
    "sweep-out": {"duration_ms": 10_000, "warmup_ms": 5_000, "seeds": 2},
    "ric-replay": {"windows": 20, "msgs_per_window": 10, "degradations_per_window": 2},
}

failures: List[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def bench(workload: str, trace: int, seed: int = 3) -> List[str]:
    """Run the benchmark in-process; its standard output as lines."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace)])
    check(rc == 0, f"{workload} trace={trace} exits 0")
    return buf.getvalue().splitlines()


def line_value(lines: List[str], prefix: str) -> str:
    return next(line for line in lines if line.startswith(prefix))


@contextlib.contextmanager
def patched(owner, attr: str, make: Callable[[Callable], Callable]):
    orig = owner.__dict__[attr]
    setattr(owner, attr, make(orig))
    try:
        yield
    finally:
        setattr(owner, attr, orig)


def declared_metrics() -> dict:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def test_metrics_and_digest() -> None:
    declared = declared_metrics()
    for workload in run.WORKLOADS:
        digests = []
        for trace in (0, 1, 0):
            lines = bench(workload, trace)
            result = json.loads(lines[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{workload}: result keys")
            check(result["correct"] and result["failed"] == 0, f"{workload} trace={trace}: correct, 0 failed")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == declared[trace], f"{workload} trace={trace}: every declared metric with its unit")
            digests.append(line_value(lines, "trajectory_digest"))
        check(len(set(digests)) == 1, f"{workload}: digest repeats across runs and under tracing")


def tampered_result(workload: str) -> dict:
    result = json.loads(bench(workload, 0)[-1])
    print(f"     tampered {workload}: {result['failed']} of {result['attempted']} failed")
    return result


def test_tampering_is_counted() -> None:
    def corrupt_csv(sweep):
        def sweep_then_corrupt(config, seeds, modes=ex.MODES, out_dir=None):
            out = sweep(config, seeds, modes, out_dir)
            path = Path(out_dir) / "runs.csv"
            rows = path.read_text().splitlines()
            rows[2] = rows[2].replace(",", ",9", 1)
            path.write_text("\n".join(rows) + "\n")
            return out

        return sweep_then_corrupt

    with patched(ex, "sweep", corrupt_csv):
        r = tampered_result("sweep-out")
    runs = len(ex.MODES) * TINY["sweep-out"]["seeds"]
    check(not r["correct"] and r["failed"] == r["attempted"] // runs, "a corrupted runs.csv row fails its run")

    def bad_kpi(run_fn):
        def run_then_corrupt(*args, **kwargs):
            res = run_fn(*args, **kwargs)
            return dataclasses.replace(res, kpis={**res.kpis, "mean_user_satisfaction": 1.5})

        return run_then_corrupt

    with patched(ex, "run", bad_kpi):
        r = tampered_result("run-default")
    check(not r["correct"] and r["failed"] == r["attempted"], "satisfaction outside [0, 1] fails the run")

    calls = {"n": 0}

    def drifting(run_fn):
        def run_drifting(*args, **kwargs):
            res = run_fn(*args, **kwargs)
            calls["n"] += 1
            return dataclasses.replace(res, fingerprint=f"{res.fingerprint}{calls['n']}")

        return run_drifting

    with patched(ex, "run", drifting):
        r = tampered_result("run-default")
    check(not r["correct"] and r["failed"] == r["attempted"] - 1, "a pass off the first pass's digest fails")

    def double_verdict(process):
        def process_twice(self, incoming):
            verdict = process(self, incoming)
            if incoming.msg_id == 7:
                self.verdict_sink({"msg_id": incoming.msg_id, "decision": "allow", "conflicts": []})
            return verdict

        return process_twice

    with patched(ConflictPipeline, "process_control_message", double_verdict):
        r = tampered_result("ric-replay")
    check(not r["correct"] and r["failed"] > 0, "a second verdict for one message is counted")


def test_refuses_without_program() -> None:
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / run.BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, f"{run.BENCH.name}/run.py", "--workload", "run-default",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout, "exits non-zero without ricsim sources")


def main() -> int:
    for name, sizes in TINY.items():
        workloads.SIZES[name] = sizes
    test_metrics_and_digest()
    test_tampering_is_counted()
    test_refuses_without_program()
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
