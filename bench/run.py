"""hsnet benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload tiny-hs --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/`` directory. The last line on stdout is the result object
``{"correct", "attempted", "failed", "metrics"}``; see README.md for the
workloads, metrics and checks. Exits with code 2, printing no result,
when the arguments are wrong or the sources are missing.
"""

import time

T_SCRIPT = time.perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _process_age() -> float:
    """Seconds since this process started (0 where /proc is missing)."""
    try:
        with open("/proc/self/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        start = int(fields[19]) / os.sysconf("SC_CLK_TCK")  # field 22: starttime
        return max(0.0, time.clock_gettime(time.CLOCK_BOOTTIME) - start)
    except (OSError, ValueError, IndexError):
        return 0.0


# perf_counter reading at which the process started: set-up is timed from here
T_PROCESS = T_SCRIPT - _process_age()

# Pin BLAS threads before NumPy loads its BLAS. One thread: the figures in
# README.md use it, and it leaves the second core to the rest of the host.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

from workloads import WORKLOADS  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def usage_error(message: str):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one hsnet benchmark workload.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        usage_error("--seed must be >= 0 and --seconds positive")
    if not (SRC / "hsnet" / "__init__.py").is_file():
        usage_error(f"no hsnet sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))

    import runner  # imports hsnet, so only after the sources are on the path

    return runner.run(args, T_PROCESS, BLAS_THREADS)


if __name__ == "__main__":
    sys.exit(main())
