"""qfock: desk-scale numerics for truncated q-deformed Fock spaces
with a two-sided (modular) deformation parameter.

The package builds truncated deformed Fock spaces over a small letter
alphabet, realizes creation/annihilation, Wick, and modular operators as
block maps between letter-multiset sectors, and verifies the computable
identities, norm bounds, convergence sequences, and invertibility
thresholds of the underlying operator-algebraic model at desk scale.

Importing qfock before numpy sets ``OPENBLAS_NUM_THREADS=1`` in the
process environment, unless ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS``
or ``MKL_NUM_THREADS`` is already set: on this package's small blocks
more BLAS threads cost time, and the last bits of a few reported gaps
depend on the thread count.  A variable the user set wins, and so does a
numpy that was loaded first.

Importing qfock also fixes glibc's mmap threshold at 4 MiB
(mallopt(3), ``M_MMAP_THRESHOLD``), so every array of 4 MiB or more goes
back to the system when it is freed.  By default the threshold rises
with each large array freed, up to 32 MiB, and the Gram build's
transients then come from the heap and stay resident after they are
freed.  A user's ``MALLOC_MMAP_THRESHOLD_``, or a
``glibc.malloc.mmap_threshold`` in ``GLIBC_TUNABLES``, wins; where libc
has no ``mallopt`` nothing changes.

Arrays under the threshold still come from the heap, and the pages
they leave free inside it stay resident.  So
``limits.invertibility_certificate`` hands them back (malloc_trim(3))
once per truncation, after that truncation's series is dropped: a
sweep point's rank-one diagnostics then start from the heap the point
holds, not from the certificate's working set.  Where libc has no
``malloc_trim`` nothing is released.
"""

import ctypes
import os
import sys

# before the first numpy import below, which starts the BLAS threads
_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")
if "numpy" not in sys.modules \
        and not any(v in os.environ for v in _THREAD_VARIABLES):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

_M_MMAP_THRESHOLD = -3          # mallopt's parameter number in glibc
_MMAP_THRESHOLD = 1 << 22


def _return_large_frees() -> bool:
    """Fix the mmap threshold at _MMAP_THRESHOLD unless the user set
    one; True when mallopt took it."""
    if "MALLOC_MMAP_THRESHOLD_" in os.environ \
            or "glibc.malloc.mmap_threshold" in os.environ.get(
                "GLIBC_TUNABLES", ""):
        return False
    # Windows refuses CDLL(None); macOS's libc has no mallopt
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return False
    return mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD) == 1


def _release_freed_heap() -> bool:
    """Hand the heap's free pages back to the system, malloc_trim(0);
    True when memory went back."""
    # as above; macOS's libc has no malloc_trim either
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, TypeError, AttributeError):
        return False
    return trim(ctypes.c_size_t(0)) == 1


_return_large_frees()

from .qcomb import (
    q_int,
    q_factorial,
    q_binomial,
    d_family,
    bound_constants,
    inversions,
    crossings,
    wick_coefficients,
    pair_partition_moment,
)
from .fock import ModelParams, FockSpace, FockVector, build_space
from . import ops
from . import limits

__version__ = "0.1.0"
