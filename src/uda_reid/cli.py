"""Command-line entry point: data synthesis, staged training, clustering,
re-ranking, evaluation, ensembling, and the gradient checker.

Conventions
-----------
Machine-readable results are printed to standard output as a single JSON
object; progress and diagnostics go to standard error.  Exit codes: 0 on
success, 1 on usage errors, 2 on data or format errors, 3 on numerical
failures (training divergence, gradient-check tolerance breach).  An output
(``--out`` or ``--log``) naming an input or the other output exits 2 before
any work; ``cluster --out`` may name its ``--data``, which it rewrites in place.

``--threads N`` caps BLAS/OpenMP parallelism; N below 1 exits 2 before any
work starts.  The cap must be in place before numpy first loads, so this
module imports only the standard library at module scope and scans argv for
the flag before touching the rest of the package.
"""
from __future__ import annotations

import os
import sys

__all__ = ["main", "run"]

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _apply_thread_cap(argv) -> None:
    threads = None
    for i, arg in enumerate(argv):
        if arg == "--threads" and i + 1 < len(argv):
            threads = argv[i + 1]
        elif arg.startswith("--threads="):
            threads = arg.split("=", 1)[1]
    if threads is None:
        return
    try:
        n = int(threads)
    except ValueError:
        return  # argparse reports the malformed value later
    if n < 1:
        raise ValueError(f"--threads must be >= 1, got {n}")
    if "numpy" not in sys.modules:
        for var in THREAD_VARS:
            os.environ[var] = str(n)


def run(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        _apply_thread_cap(argv)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    from . import commands  # the package, numpy with it, loads under the cap

    return commands.dispatch(argv)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
