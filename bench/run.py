"""Run one dsym benchmark workload and print its metrics.

    python3 bench/run.py --workload small-mixed --seed 1 --seconds 25 --trace 0

Run from the root of a checkout: dsym is imported from its src/ directory,
and spec files go to .bench_tmp/ (removed on exit).  The last stdout line is
a JSON object with keys correct, attempted, failed and metrics.
"""

import os
import signal
import sys

# One BLAS thread (at most nproc): a single-client loop on small and
# mid-size matrices gains nothing from more, and the timings steady.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
# dsym's default dense cap defines which workloads run a dense check.
os.environ.pop("DSYM_DENSE_CAP", None)
# Exit through SystemExit on SIGTERM, so the generated spec files are removed.
signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

from pathlib import Path  # noqa: E402

from dsym_bench.runner import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:], root=Path(__file__).resolve().parent.parent))
