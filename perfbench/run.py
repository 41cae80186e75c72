"""Entry point of the feyncomb benchmark; run it from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --check-determinism
    python3 perfbench/run.py --transcript cli-matrix|hopf-bphz

It imports `feyncomb` from the checkout's `src/` and nowhere else, and exits
non-zero without a result when that package is missing.
"""

import os
import sys
from time import perf_counter

START = perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

if __name__ == "__main__":
    if not os.path.isfile(os.path.join(SRC, "feyncomb", "__init__.py")):
        sys.exit(f"perfbench: no feyncomb package under {SRC}")
    sys.path.insert(0, SRC)
    import bench

    sys.exit(bench.main(sys.argv[1:], ROOT, START))
