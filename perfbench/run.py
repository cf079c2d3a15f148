"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Builds nothing: it imports the program from src/ of the checkout it sits
in, and exits with code 2, printing no result, when that source is absent.

BLAS runs single-threaded. The benchmark is one closed-loop client with
--threads 1; multi-threaded BLAS gave no speed-up on a 2-core box (the
second thread only spins on the grid dot products) and made timings
depend on whatever else ran on the other core.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main():
    if not os.path.isfile(os.path.join(SRC, "mzphase", "cli.py")):
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    sys.path.insert(0, SRC)
    import bench

    return bench.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
