"""Time one workload's set-up in a fresh interpreter and print the seconds.

Set-up is importing numpy and the package, then building the workload's
config, env, trainer and replay buffer (or its seeded start states). The
clock starts before the first import, after the interpreter itself has
started. run.py calls this several times per run, reads the machine's
speed with the calibration kernel before and after each call, and
reports the median calibrated set-up time.

usage: python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import sys
import time
from pathlib import Path


def main(argv) -> int:
    name, seed = argv[0], int(argv[1])
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    t0 = time.perf_counter()
    from workloads import make_workload

    make_workload(name).setup(seed)
    print(repr(time.perf_counter() - t0))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
