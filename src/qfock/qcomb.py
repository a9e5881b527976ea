"""Scalar q-combinatorics: q-integers, q-factorials, Gaussian binomials,
the deformation product family d_j, growth constants, and crossing counts
for subset and pair-partition enumerations.

Everything here is plain float arithmetic on a real deformation parameter
|q| < 1.  The product family is the numerically stable route to the
q-binomials, so all binomials are computed through it rather than by
dividing large q-factorials.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "q_int",
    "q_factorial",
    "q_binomial",
    "DFamily",
    "d_family",
    "BoundConstants",
    "bound_constants",
    "inversions",
    "crossings",
    "wick_coefficients",
    "pair_partition_moment",
    "ENUMERATION_CAP",
]

# Enumeration workloads grow like 2^n (subsets) or (n-1)!! (pairings);
# the cap keeps accidental large calls from hanging a session.
ENUMERATION_CAP = 8
PAIRING_CAP = 16

_PRODUCT_TOL = 1e-15


def _check_q(q: float) -> None:
    if not -1.0 < q < 1.0:
        raise ValueError(f"deformation parameter must satisfy |q| < 1, got {q}")


def q_int(n: int, q: float) -> float:
    """[n]_q = 1 + q + ... + q^(n-1), with [0]_q = 0."""
    _check_q(q)
    if n < 0:
        raise ValueError(f"q-integer index must be >= 0, got {n}")
    if q == 0.0:
        return 0.0 if n == 0 else 1.0
    # geometric form is exact enough and O(1)
    return (1.0 - q**n) / (1.0 - q)


def q_factorial(n: int, q: float) -> float:
    """[n]_q! = [1]_q [2]_q ... [n]_q, empty product = 1."""
    _check_q(q)
    if n < 0:
        raise ValueError(f"q-factorial index must be >= 0, got {n}")
    out = 1.0
    for m in range(1, n + 1):
        out *= q_int(m, q)
    return out


def _d_prefix(q: float, j_max: int) -> list[float]:
    """[d_0, ..., d_j_max], d_j = prod_{i=1..j} (1 - q^i), as one
    running product."""
    ds = [1.0]
    p = 1.0
    for _ in range(j_max):
        p *= q
        ds.append(ds[-1] * (1.0 - p))
    return ds


def q_binomial(n: int, k: int, q: float) -> float:
    """Gaussian binomial coefficient, computed as d_n / (d_{n-k} d_k).

    The (1-q) powers cancel between numerator and denominator, so this
    form stays well scaled for every |q| < 1 including q = 0.
    """
    _check_q(q)
    if k < 0 or k > n:
        return 0.0
    d = _d_prefix(q, n)
    return d[n] / (d[n - k] * d[k])


@dataclass
class DFamily:
    """Partial products d_j = prod_{i<=j}(1 - q^i), their limit, and
    the reciprocals c_j = 1/d_j."""

    q: float
    d: list[float]
    d_inf: float
    c: list[float] = field(init=False)

    def __post_init__(self):
        self.c = [1.0 / dj for dj in self.d]


def d_family(q: float, j_max: int) -> DFamily:
    """Compute d_0..d_{j_max} and the truncated limit d_inf.

    The limit product is cut off once |q|^i < _PRODUCT_TOL.
    """
    _check_q(q)
    if j_max < 0:
        raise ValueError(f"j_max must be >= 0, got {j_max}")
    ds = _d_prefix(q, j_max)
    if q == 0.0:
        return DFamily(q=q, d=ds, d_inf=1.0)
    # extend the product until the dropped factors are below _PRODUCT_TOL
    aq = abs(q)
    d_inf = ds[-1]
    p_abs = aq**j_max
    p_signed = q**j_max
    while p_abs >= _PRODUCT_TOL:
        p_abs *= aq
        p_signed *= q
        d_inf *= 1.0 - p_signed
    return DFamily(q=q, d=ds, d_inf=d_inf)


@dataclass
class BoundConstants:
    """Growth constants attached to a deformation parameter.

    c_q = prod_i 1/(1 - |q|^i) dominates every 1/d_j and every d_j;
    d_sup = sup_j d_j (equal to 1 for q >= 0, attained at small j for
    q < 0 where the partial products overshoot 1).
    """

    q: float
    c_q: float
    d_sup: float


def bound_constants(q: float) -> BoundConstants:
    _check_q(q)
    aq = abs(q)
    if aq == 0.0:
        return BoundConstants(q=q, c_q=1.0, d_sup=1.0)
    c_q = 1.0 / d_family(aq, 0).d_inf
    # scan the signed partial products until the factors are within
    # _PRODUCT_TOL of 1; beyond that point d_j is monotone within the tail
    # bound, so the running max is the sup.
    sup = 1.0
    dj = 1.0
    p = 1.0
    while abs(p) >= _PRODUCT_TOL:
        p *= q
        dj *= 1.0 - p
        sup = max(sup, dj)
    return BoundConstants(q=q, c_q=c_q, d_sup=sup)


def inversions(perm) -> int:
    """Number of inverted pairs i < j with perm[i] > perm[j]."""
    return sum(
        perm[i] > perm[j] for i, j in itertools.combinations(range(len(perm)), 2)
    )


def crossings(n: int, subset) -> int:
    """Crossing count c(J, J^c) between a subset of {1..n} and its
    complement: the number of pairs (j, k), j in J, k not in J, j > k.
    """
    J = set(subset)
    for j in J:
        if not 1 <= j <= n:
            raise ValueError(f"subset element {j} outside 1..{n}")
    comp = [k for k in range(1, n + 1) if k not in J]
    return sum(j > k for j in J for k in comp)


def wick_coefficients(n: int, q: float):
    """Coefficient matrix of the normal-ordered expansion of the Wick
    operator of the balanced word (conjugate letter repeated n times,
    then the letter n times).

    Entry [k][l] multiplies the monomial with k left conjugate-creations,
    l left creations, n-k annihilations of the letter and n-l of the
    conjugate.  The factored form splits the crossing count into the two
    halves of the word plus the forced (n-k)*l cross-half crossings.
    """
    _check_q(q)
    half = [q_binomial(n, k, q) for k in range(n + 1)]
    coeff = np.empty((n + 1, n + 1))
    for k in range(n + 1):
        for l in range(n + 1):
            coeff[k, l] = q ** ((n - k) * l) * half[k] * half[l]
    return coeff


def _branches(n: int):
    """Yield (i, arcs, crossings) of the pairings of {0..2n-1} joining 0
    to i, for i = 1..2n-1: the rest is the level n-1 table relabelled past
    i, and the arc (0, i) crosses each sub-arc with one end inside it."""
    arcs, cross = _pairing_table(n - 1)
    lo, hi = arcs[..., 0], arcs[..., 1]
    for i in range(1, 2 * n):
        yield i, arcs, cross + ((lo < i - 1) & (hi >= i - 1)).sum(
            axis=1, dtype=np.int8)


@functools.cache
def _pairing_table(n: int):
    """Arcs (row, arc, lo/hi) and crossing counts of all pairings of
    {0..2n-1}, in enumeration order: 0 paired with 1, 2, ... in turn."""
    if n == 0:
        return np.zeros((1, 0, 2), np.int8), np.zeros(1, np.int8)
    arcs, cross = [], []
    for i, sub, c in _branches(n):
        head = np.broadcast_to(np.array([0, i], np.int8), (len(sub), 1, 2))
        arcs.append(np.concatenate([head, sub + 1 + (sub >= i - 1)], axis=1))
        cross.append(c)
    return np.concatenate(arcs), np.concatenate(cross)


def pair_partition_moment(m: int, q: float) -> float:
    """sum over pairings of {1..m} of q^(#crossings); 0 for odd m.

    At q = 0 this is the Catalan number C_{m/2}; at q = 1 it would be
    (m-1)!!.  These are the even vacuum moments of the standard field
    operator of a unit-length letter.  ``sum`` adds the powers in
    enumeration order: bit-identical to summing over the pairings.
    """
    _check_q(q)
    if m < 0:
        raise ValueError(f"moment order must be >= 0, got {m}")
    if m % 2 != 0:
        return 0.0
    if m > PAIRING_CAP:
        raise ValueError(
            f"pairing enumeration for m={m} exceeds cap {PAIRING_CAP}")
    if m == 0:
        return 1.0
    n = m // 2
    pw = np.array([q ** k for k in range(n * (n - 1) // 2 + 1)])
    return sum(itertools.chain.from_iterable(
        pw[c].tolist() for _, _, c in _branches(n)))
