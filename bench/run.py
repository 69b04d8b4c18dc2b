"""coherentlab benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  It builds nothing: the program is imported
from the checkout's ``src/``; without it the benchmark exits with code 2.
The OpenBLAS thread count is capped at the number of usable cores before
numpy loads.  See ``harness.py`` for what is measured.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _cap_blas_threads() -> None:
    cores = len(os.sched_getaffinity(0))
    raw = os.environ.get("OPENBLAS_NUM_THREADS", "")
    wanted = int(raw) if raw.isdigit() and int(raw) > 0 else cores
    os.environ["OPENBLAS_NUM_THREADS"] = str(min(wanted, cores))


if __name__ == "__main__":
    if not os.path.isfile(os.path.join(SRC, "coherentlab", "__init__.py")):
        print(f"error: no coherentlab sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    _cap_blas_threads()
    sys.path[:0] = [SRC, HERE]
    import harness

    sys.exit(harness.main(sys.argv[1:], ROOT))
