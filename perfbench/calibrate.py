"""Machine-speed calibration for host-time metrics on a shared machine.

The shared 2-vCPU VM the baseline was measured on changes speed by up
to 2x, in phases from milliseconds to half a minute long, and noise only
ever adds time. Before every timed pass the benchmark times a fixed kernel that
does not touch ricsim (interpreter work plus small-array numpy work, the
two kinds of work the workloads do) and keeps the fastest of a few
repeats, and times it again after the pass. A pass's wall time times
`REF_KERNEL_S` over the mean of the two kernel times is its time at the
reference speed; the end-to-end timings are built from these
calibrated times, and the raw times are printed beside them.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# fastest kernel time on the reference machine (shared 2-vCPU VM, Python
# 3.11.7, numpy 2.4.6); only scales the calibrated times, never their spread
REF_KERNEL_S = 0.0042
REPEATS = 3

_GRID = np.linspace(0.1, 2.0, 380 * 19).reshape(380, 19)


class _Rec:
    __slots__ = ("target", "ts", "names")

    def __init__(self, target: int, ts: int, names: frozenset) -> None:
        self.target, self.ts, self.names = target, ts, names


_RECS = [_Rec(i % 19, i, frozenset({"cio", str(i % 3)})) for i in range(60)]


def _kernel() -> float:
    acc = 0.0
    # interpreter work shaped like the store scans: filter, dict build, set ops
    for i in range(400):
        hits = [r for r in _RECS if r.target == i % 19 and r.ts <= i + 30]
        acc += len({(r.target, r.ts): r for r in hits}) + len(_RECS[i % 60].names & {"cio", "1"})
    # numpy work shaped like the radio layer on a (UE, cell) matrix
    for i in range(25):
        b = np.log10(_GRID * (1.0 + i * 1e-3)) + np.hypot(_GRID, _GRID)
        acc += float((10.0 ** (b / 10.0)).sum(axis=1)[i]) + int(np.argmax(b, axis=1)[0])
    return acc


def kernel_seconds() -> float:
    """Fastest of a few kernel runs: the machine's current speed floor."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = perf_counter()
        _kernel()
        best = min(best, perf_counter() - t0)
    return best


def factor(before: float, after: float) -> float:
    """Multiply a wall time measured between two kernel timings by this to
    get its time at the reference speed."""
    return 2.0 * REF_KERNEL_S / (before + after)
