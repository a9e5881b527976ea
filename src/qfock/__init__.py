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
"""

import os
import sys

# before the first numpy import below, which starts the BLAS threads
_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")
if "numpy" not in sys.modules \
        and not any(v in os.environ for v in _THREAD_VARIABLES):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

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
