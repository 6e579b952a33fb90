"""Process environment shared by every benchmark process.

Imported before numpy: the BLAS thread count is read from the environment
when numpy loads its BLAS, so it has to be pinned first. One thread keeps
timings independent of how many cores the machine has (it is at or below
nproc on every machine) and is passed on to every child process.
"""

from __future__ import annotations

import os
import sys

BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")


def pin_threads() -> None:
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def use_checkout_source() -> None:
    """Import spikeprune from this checkout's src/, never from elsewhere.

    Exits with code 2 when the checkout has no source tree, so the
    benchmark cannot silently measure an installed copy of the package.
    """
    if not os.path.isfile(os.path.join(SRC, "spikeprune", "__init__.py")):
        print(f"error: no spikeprune source under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import spikeprune

    found = os.path.realpath(spikeprune.__file__)
    if not found.startswith(os.path.realpath(SRC) + os.sep):
        print(f"error: spikeprune imported from {found}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
