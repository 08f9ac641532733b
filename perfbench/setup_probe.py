"""Set-up time of one workload in a fresh process.

Times `import ricsim` plus what the workload builds before its first step
(see `workloads.setup`) and prints the seconds. `run.py` starts this
several times per run and reports the median as `setup_s`.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

workloads.setup(sys.argv[1], int(sys.argv[2]))
print(repr(time.perf_counter() - T0))
