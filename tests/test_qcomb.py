"""Combinatorial layer: deformed integers, partial products, crossing
enumerations, pairing moments.  Reference values are either exact by
hand or recomputed here by an independent enumeration."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfock import qcomb
from qfock.qcomb import (
    PAIRING_CAP,
    bound_constants,
    crossings,
    d_family,
    inversions,
    pair_partition_moment,
    q_binomial,
    q_factorial,
    q_int,
    wick_coefficients,
)

QS = [-0.8, -0.5, -0.3, 0.0, 0.3, 0.5, 0.8]


def test_q_int_hand_values():
    assert q_int(0, 0.5) == 0.0
    assert q_int(1, 0.5) == 1.0
    assert q_int(3, 0.5) == pytest.approx(1.75, abs=0)
    assert q_int(4, -0.5) == pytest.approx(1.0 - 0.5 + 0.25 - 0.125)
    assert q_int(5, 0.0) == 1.0


def test_q_factorial_hand_values():
    assert q_factorial(0, 0.7) == 1.0
    assert q_factorial(3, 0.5) == pytest.approx(2.625, abs=0)
    for q in QS:
        got = q_factorial(5, q)
        want = math.prod(q_int(j, q) for j in range(1, 6))
        assert got == pytest.approx(want, rel=1e-14)


def test_q_binomial_hand_value_and_symmetry():
    assert q_binomial(3, 1, 0.5) == pytest.approx(1.75, abs=0)
    for q in QS:
        for n in range(9):
            for k in range(n + 1):
                assert q_binomial(n, k, q) == pytest.approx(
                    q_binomial(n, n - k, q), rel=1e-12)


def test_q_binomial_pascal_recursion():
    for q in QS:
        for n in range(9):
            for k in range(1, n + 1):
                lhs = q ** k * q_binomial(n, k, q) + q_binomial(n, k - 1, q)
                assert lhs == pytest.approx(q_binomial(n + 1, k, q),
                                            rel=1e-12)


def test_q_binomial_counts_at_q_one_limit():
    # partial products degenerate at q = 1; approach it instead
    for n, k in ((4, 2), (6, 3), (7, 2)):
        got = q_binomial(n, k, 1.0 - 1e-9)
        assert got == pytest.approx(math.comb(n, k), rel=1e-6)


def _d_partial(j: int, q: float) -> float:
    """Oracle: d_j = prod_{i=1..j} (1 - q^i), one running product per j."""
    out = 1.0
    p = 1.0
    for _ in range(j):
        p *= q
        out *= 1.0 - p
    return out


@pytest.mark.parametrize("q", [-0.9, -0.5, 0.0, 0.3, 0.8, 0.9])
def test_q_binomial_matches_the_partial_product_oracle(q):
    # one running product gives every d_j, bit for bit with the oracle,
    # and so the same binomials and the same d_family
    for n in range(15):
        assert d_family(q, n).d == [_d_partial(j, q) for j in range(n + 1)]
        for k in range(n + 1):
            assert q_binomial(n, k, q) == _d_partial(n, q) \
                / (_d_partial(n - k, q) * _d_partial(k, q))


def test_d_family_partial_products():
    fam = d_family(0.5, j_max=3)
    assert fam.d[0] == 1.0
    assert fam.d[1] == 0.5
    assert fam.d[2] == pytest.approx(0.375, abs=0)
    assert fam.d[3] == pytest.approx(0.328125, abs=0)
    assert fam.d_inf == pytest.approx(0.28878809508660264, rel=1e-15)
    assert fam.c[2] == pytest.approx(1.0 / 0.375, rel=1e-14)


def test_d_family_factorial_link():
    for q in QS:
        fam = d_family(q, j_max=10)
        for n in range(11):
            assert q_factorial(n, q) == pytest.approx(
                fam.d[n] * (1.0 - q) ** (-n), rel=1e-12)


def test_d_inf_monotone_envelope():
    for q in [0.0, 0.3, 0.5, 0.8]:
        fam = d_family(q, j_max=30)
        diffs = np.diff(fam.d)
        assert np.all(diffs <= 1e-15)
        assert fam.d_inf <= fam.d[-1] + 1e-15
        assert fam.d_inf > 0.0


def test_bound_constants_hand_values():
    bc = bound_constants(0.5)
    assert bc.c_q == pytest.approx(3.462746619455061, rel=1e-14)
    assert bc.c_q * d_family(0.5, j_max=0).d_inf == pytest.approx(1.0)
    assert bound_constants(-0.5).d_sup == pytest.approx(1.5, abs=0)
    assert bound_constants(0.3).d_sup == pytest.approx(1.0, abs=0)
    for q in QS:
        assert bound_constants(q).d_sup >= 1.0


def test_inversions_hand_values():
    assert inversions(()) == 0
    assert inversions((1, 2, 3)) == 0
    assert inversions((3, 1, 2)) == 2
    assert inversions((3, 2, 1)) == 3
    perm = (4, 1, 3, 2)
    want = sum(1 for i, j in itertools.combinations(range(4), 2)
               if perm[i] > perm[j])
    assert inversions(perm) == want


def test_inversions_generating_function():
    # summing q^inv over the symmetric group gives the deformed factorial
    for q in (0.3, -0.5):
        for n in range(1, 6):
            total = sum(q ** inversions(p)
                        for p in itertools.permutations(range(1, n + 1)))
            assert total == pytest.approx(q_factorial(n, q), rel=1e-12)


def test_crossings_hand_value():
    assert crossings(4, (3, 4)) == 4
    assert crossings(3, ()) == 0
    assert crossings(2, (1, 2)) == 0


def subset_crossing_sum(n: int, k: int, q: float) -> float:
    """sum over J subset of {1..n}, |J| = k, of q^c(J, J^c), by
    enumerating the subsets: the oracle of the deformed binomial."""
    return sum(q ** crossings(n, J)
               for J in itertools.combinations(range(1, n + 1), k))


def test_subset_crossing_sum_binomial_identity():
    # crossing-weighted subset sums reproduce the deformed binomial
    for q in (0.3, -0.5, 0.0):
        for n in range(7):
            for k in range(n + 1):
                got = subset_crossing_sum(n, k, q)
                assert got == pytest.approx(q_binomial(n, k, q), rel=1e-12)


def pair_partitions(m: int):
    """Yield all pairings of {0..m-1} as tuples of (a, b) pairs, a < b.

    m must be even; the count is (m-1)!!.
    """
    if m % 2 != 0:
        raise ValueError(f"pair partitions need an even ground set, got {m}")
    if m > PAIRING_CAP:
        raise ValueError(
            f"pairing enumeration for m={m} exceeds cap {PAIRING_CAP}")

    def rec(remaining):
        if not remaining:
            yield ()
            return
        a = remaining[0]
        for i in range(1, len(remaining)):
            b = remaining[i]
            rest = remaining[1:i] + remaining[i + 1 :]
            for tail in rec(rest):
                yield ((a, b),) + tail

    yield from rec(tuple(range(m)))


def pairing_crossings(pairing) -> int:
    """Crossings of a pairing: pairs (a,b), (c,d) with a < c < b < d."""
    out = 0
    for (a, b), (c, d) in itertools.combinations(pairing, 2):
        lo, hi = ((a, b), (c, d)) if a < c else ((c, d), (a, b))
        if lo[0] < hi[0] < lo[1] < hi[1]:
            out += 1
    return out


def enumerated_moment(m: int, q: float) -> float:
    """The pairing moment summed over the enumerated pairings, the way
    the library computed it before the crossing-count tables."""
    if m % 2 != 0:
        return 0.0
    return sum(q ** pairing_crossings(p) for p in pair_partitions(m))


def test_pair_partition_moment_against_direct_enumeration():
    # bit for bit, and a float also for m = 0 and odd m
    for q in (-0.9, -0.5, 0.0, 0.3, 0.8):
        for m in range(13):
            got = pair_partition_moment(m, q)
            assert type(got) is float
            assert got == enumerated_moment(m, q)
    assert pair_partition_moment(14, -0.5) == enumerated_moment(14, -0.5)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(q=st.floats(-0.95, 0.95), m=st.integers(0, 10))
def test_pair_partition_moment_matches_enumeration_property(q, m):
    assert pair_partition_moment(m, q) == enumerated_moment(m, q)


@pytest.mark.parametrize("n", range(6))
def test_pairing_table_in_enumeration_order(n):
    arcs, cross = qcomb._pairing_table(n)
    pairings = list(pair_partitions(2 * n))
    assert [tuple(map(tuple, row)) for row in arcs.tolist()] == pairings
    assert cross.tolist() == [pairing_crossings(p) for p in pairings]


def _touchard_riordan(n: int) -> list:
    """Integer coefficients of the crossing generating polynomial of the
    pairings of 2n points, expanded from the Touchard-Riordan formula
    sum_k (-1)^k (C(2n, n-k) - C(2n, n-k-1)) q^(k(k+1)/2) / (1-q)^n."""
    def comb(a, b):
        return math.comb(a, b) if b >= 0 else 0

    coeffs = [0] * (n * (n + 1) // 2 + 1)
    for k in range(n + 1):
        coeffs[k * (k + 1) // 2] += (-1) ** k * (
            comb(2 * n, n - k) - comb(2 * n, n - k - 1))
    for _ in range(n):
        # exact division by 1 - q: prefix sums, zero remainder
        assert sum(coeffs) == 0
        coeffs = list(itertools.accumulate(coeffs))[:-1]
    return coeffs


@pytest.mark.parametrize("n", range(9))
def test_crossing_distribution_is_touchard_riordan(n):
    # level 8 (m = 16) is streamed branch by branch, as the moment reads it
    counts = (np.concatenate([c for _, _, c in qcomb._branches(n)]) if n
              else qcomb._pairing_table(0)[1])
    want = _touchard_riordan(n)
    assert np.bincount(counts, minlength=len(want)).tolist() == want


def test_pairing_tables_lazy_and_top_level_streamed():
    qcomb._pairing_table.cache_clear()
    assert qcomb._pairing_table.cache_info().currsize == 0
    pair_partition_moment(PAIRING_CAP, 0.3)
    # levels 0..7 are kept; the (2 * 8 - 1)!! rows of level 8 are not
    assert qcomb._pairing_table.cache_info().currsize == PAIRING_CAP // 2


def test_pair_partition_moment_closed_forms():
    for q in QS:
        assert pair_partition_moment(2, q) == pytest.approx(1.0)
        assert pair_partition_moment(4, q) == pytest.approx(2.0 + q)
        assert pair_partition_moment(6, q) == pytest.approx(
            5.0 + 6.0 * q + 3.0 * q ** 2 + q ** 3)
    assert pair_partition_moment(4, 0.3) == pytest.approx(2.3)
    assert pair_partition_moment(6, 0.0) == pytest.approx(5.0)
    assert pair_partition_moment(6, 0.5) == pytest.approx(8.875)


def test_pair_partition_moment_odd_and_empty():
    assert pair_partition_moment(0, 0.3) == 1.0
    for q in (0.3, -0.5):
        for m in (1, 3, 5, 7):
            assert pair_partition_moment(m, q) == 0.0


def test_pair_partitions_double_factorial_counts():
    for two_k in (2, 4, 6, 8):
        k = two_k // 2
        want = math.factorial(two_k) // (2 ** k * math.factorial(k))
        assert sum(1 for _ in pair_partitions(two_k)) == want


def test_pair_partitions_noncrossing_catalan_counts():
    # the q = 0 moment counts exactly the noncrossing pairings
    for two_k, catalan in ((2, 1), (4, 2), (6, 5), (8, 14), (10, 42)):
        assert pair_partition_moment(two_k, 0.0) == pytest.approx(catalan)


def test_wick_coefficients_base_case():
    got = wick_coefficients(1, 0.3)
    assert np.allclose(got, [[1.0, 0.3], [1.0, 1.0]], atol=0)


def test_wick_coefficients_decay_bound():
    for q in (0.3, -0.5, 0.8):
        bc = bound_constants(q)
        for n in range(1, 7):
            coeffs = np.asarray(wick_coefficients(n, q))
            assert coeffs.shape == (n + 1, n + 1)
            assert coeffs[n, n] == pytest.approx(1.0)
            for k in range(n + 1):
                for ell in range(n + 1):
                    cap = bc.c_q ** 2 * abs(q) ** ((n - k) * ell)
                    assert abs(coeffs[k, ell]) <= cap + 1e-12


def test_enumeration_caps_raise():
    with pytest.raises(ValueError):
        pair_partition_moment(2 * PAIRING_CAP + 2, 0.3)
    with pytest.raises(ValueError, match="for m=18 exceeds cap 16"):
        pair_partition_moment(18, 0.3)
    with pytest.raises(ValueError, match="moment order"):
        pair_partition_moment(-2, 0.3)
