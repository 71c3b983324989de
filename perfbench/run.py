"""Entry point of the graphfuse train/predict benchmark.

    python3 perfbench/run.py --workload relational-full --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --all

Run from the repository root. The package is imported from ``src/``, so no
install or build is needed. BLAS threads and ``GRAPHFUSE_THREADS`` are
pinned to 1 here, before numpy is imported, so the shell cannot change
them. The last line of standard output is the result object.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

PINNED = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "GRAPHFUSE_THREADS": "1",
}

if __name__ == "__main__":
    os.environ.update(PINNED)
    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "graphfuse" / "__init__.py").is_file():
        sys.exit(f"run.py: no graphfuse package under {src}; "
                 "run from a checkout of the repository")
    sys.path.insert(0, str(src))
    import bench
    sys.exit(bench.main(sys.argv[1:], T_START))
