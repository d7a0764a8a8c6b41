"""`python -m robinspectra` and the installed `robinspectra` command.

BLAS defaults to one thread: the solves are many small dense products, on
which OpenBLAS's default thread pool made the oscillating preset run 1.8x
slower on a 2-vCPU VM.  A value already set in the environment is kept.
"""
import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .cli import main  # noqa: E402  (numpy reads the thread counts at import)

if __name__ == "__main__":
    sys.exit(main())
