"""Set-up probe, run in a fresh interpreter by run.py.

Prints the wall seconds taken to import numpy and latscreen and make the
workload's fixed warm-up call, and the median of three timings of the
calibration loop taken right after (see speed.py; it imports numpy, so it
cannot run before):

    python3 perfbench/setup_probe.py WORKLOAD
"""

import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402  (standard library only; not part of the timing)


def main() -> None:
    name = sys.argv[1]
    t0 = time.perf_counter()
    import numpy  # noqa: F401

    import latscreen
    import latscreen.cli  # noqa: F401

    workloads.run_call(latscreen, workloads.WARMUP[name])
    wall = time.perf_counter() - t0
    import speed

    loop = statistics.median(speed.calibrate() for _ in range(3))
    print(json.dumps({"wall": wall, "loop": loop}))


if __name__ == "__main__":
    main()
