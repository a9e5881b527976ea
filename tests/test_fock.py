"""Truncated deformed Fock spaces: enumeration, Gram data, the two
inner-product paths, the model's envelope and budget guards, and the
vector and Gram-block layouts that the dump command writes."""

import ctypes
import gc
import itertools
import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from qfock import cli, fock, limits
from qfock.fock import (
    BRUTE_FORCE_MAX_LEVEL,
    E,
    EBAR,
    BudgetExceededError,
    FockVector,
    ModelParams,
    build_space,
)
from qfock.qcomb import inversions, q_factorial


@pytest.fixture(scope="module")
def sp():
    return build_space(q=0.3, lam=0.4, depth=8)


@pytest.fixture(scope="module")
def sp_neg():
    return build_space(q=-0.5, lam=0.3, depth=8)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(q=0.95, lam=0.3, depth=6)
    with pytest.raises(ValueError):
        ModelParams(q=-0.95, lam=0.3, depth=6)
    with pytest.raises(ValueError):
        ModelParams(q=0.3, lam=0.0, depth=6)
    with pytest.raises(ValueError):
        ModelParams(q=0.3, lam=1.0, depth=6)
    with pytest.raises(ValueError):
        ModelParams(q=0.3, lam=0.3, depth=15)
    with pytest.raises(ValueError, match="q = nan outside"):
        ModelParams(q=math.nan, lam=0.3, depth=6)


def test_block_scalars_refused_by_the_library():
    # lambda^(-3) = 1e600 overflows: norm_sq, op_norm and the rank-one
    # diagnostics of such a space gave RuntimeWarnings, so the library
    # refuses the point as the command line does
    with pytest.raises(ValueError, match="block scalars"):
        build_space(q=0.3, lam=1e-200, depth=6)
    edge = 2.0 ** (-fock.SCALE_EXPONENT_MAX / 3.0)
    with pytest.raises(ValueError, match="block scalars"):
        ModelParams(q=0.3, lam=edge * 0.99, depth=6)
    ModelParams(q=0.3, lam=edge * 1.01, depth=6)


def test_word_budget_guard():
    with pytest.raises(BudgetExceededError):
        build_space(q=0.3, lam=0.3, depth=9, aux_letters=4)
    # generous explicit budget admits the same configuration
    big = build_space(q=0.3, lam=0.3, depth=6, aux_letters=4,
                      max_total_words=100_000)
    assert big.n_letters == 6


def test_enumeration_counts(sp):
    # two letters: 2^level words per level, level + 1 signatures
    for level in range(sp.depth + 1):
        sigs = sp.blocks_at_level(level)
        assert len(sigs) == level + 1
        total = sum(len(sp.block_words(s)) for s in sigs)
        assert total == 2 ** level
    for sig in sp.blocks_at_level(3):
        for w in sp.block_words(sig):
            assert sp.signature(w) == tuple(sig)


def _multiset_permutations(sig):
    """Oracle: the distinct rearrangements of the block's letters,
    sorted lexicographically."""
    letters = [ell for ell, count in enumerate(sig) for _ in range(count)]
    return sorted(set(itertools.permutations(letters)))


@pytest.mark.parametrize("aux, depth", [(0, 8), (1, 8), (2, 8), (128, 2)])
def test_word_tables_match_permutation_oracle(aux, depth):
    space = build_space(q=0.3, lam=0.4, depth=depth, aux_letters=aux)
    for level in range(depth + 1):
        for sig in space.blocks_at_level(level):
            W = space.word_array(sig)
            assert W.shape == (len(W), level)
            want = _multiset_permutations(sig)
            assert [tuple(w) for w in W.tolist()] == want
            assert space.block_words(sig) == want


def test_word_index_round_trips():
    space = build_space(q=-0.5, lam=0.4, depth=6, aux_letters=1)
    for level in range(space.depth + 1):
        for sig in space.blocks_at_level(level):
            for i, w in enumerate(space.block_words(sig)):
                assert space.word_index(w) == i


def test_by_blocks_sorts_rows_and_keeps_coefficients(sp):
    rng = np.random.default_rng(11)
    words = [w for lv in range(6) for s in sp.blocks_at_level(lv)
             for w in sp.block_words(s)]
    picked = [words[i] for i in rng.permutation(len(words))[:40]]
    vec = FockVector({w: complex(*rng.standard_normal(2)) for w in picked})
    blocks = vec.by_blocks(sp)
    assert sum(len(idx) for idx, _ in blocks.values()) == len(picked)
    for sig, (idx, coef) in blocks.items():
        assert np.all(np.diff(idx) > 0)
        words_sig = sp.block_words(sig)
        assert [vec.terms[words_sig[i]] for i in idx] == list(coef)


def test_letter_names_and_word_parsing(sp):
    assert sp.letter_name(E) == "e"
    assert sp.letter_name(EBAR) == "Ebar"
    assert sp.word_name((E, EBAR, E)) == "eEbare"


def test_one_particle_scales(sp):
    lam = sp.lam
    assert sp.u[E] == pytest.approx(lam ** -0.5, rel=1e-15)
    assert sp.u[EBAR] == pytest.approx(lam ** 0.5, rel=1e-15)
    assert sp.u_factor((2, 0)) == pytest.approx(lam ** -1.0, rel=1e-14)
    assert sp.u_factor((0, 2)) == pytest.approx(lam, rel=1e-14)
    assert sp.u_factor((1, 1)) == pytest.approx(1.0, rel=1e-14)


def test_gram_hand_value(sp):
    # level-2 pure block: (1 + q) times the squared one-particle scale
    G = sp.gram((2, 0))
    assert G.shape == (1, 1)
    assert G[0, 0] == pytest.approx(3.25, rel=1e-14)
    H = sp.gram((0, 2))
    assert H[0, 0] == pytest.approx((1 + sp.q) * sp.lam, rel=1e-14)


def test_power_norms_match_deformed_factorial(sp, sp_neg):
    for space in (sp, sp_neg):
        for n in range(1, space.depth + 1):
            v = FockVector.word((E,) * n)
            got = space.norm_sq(v) * space.lam ** (n / 2.0)
            assert got == pytest.approx(q_factorial(n, space.q), rel=1e-12)


def test_gram_matches_bruteforce(sp, sp_neg):
    for space in (sp, sp_neg):
        for level in range(1, 5):
            for sig in space.blocks_at_level(level):
                G = space.gram(sig)
                B = space.gram_bruteforce(sig)
                assert np.allclose(G, B, rtol=1e-12, atol=1e-12)


def test_bruteforce_level_guard(sp):
    deep = (BRUTE_FORCE_MAX_LEVEL + 1, 0)
    with pytest.raises(ValueError):
        sp.gram_bruteforce(deep)


def test_cholesky_factors(sp, sp_neg):
    for space in (sp, sp_neg):
        for level in range(1, 7):
            for sig in space.blocks_at_level(level):
                G = space.gram(sig)
                L = space.gram_chol(sig)
                assert np.allclose(L @ L.T, G, rtol=1e-12, atol=1e-12)
                assert np.diag(L).min() > 0.0
        assert space.gram_cond((2, 2)) >= 1.0


def test_indefinite_block_refused():
    unit = fock._UnitGramCache(0.3, 2)
    G = unit.block[(1, 1)] = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(fock.GramFactorizationError,
                       match="not numerically positive definite"):
        unit.chol((1, 1))
    assert (1, 1) not in unit.cond
    assert unit.block[(1, 1)] is G
    assert G.tolist() == [[1.0, 2.0], [2.0, 1.0]]


def test_ill_conditioned_block_warns_and_is_factored():
    unit = fock._UnitGramCache(0.3, 2)
    unit.block[(1, 1)] = np.diag([1.0, 1e-14])
    with pytest.warns(fock.GramConditionWarning,
                      match=r"condition estimate 1\.000e\+14"):
        L = unit.chol((1, 1))
    assert unit.cond[(1, 1)] > fock.COND_LIMIT
    assert unit.block[(1, 1)] is L
    assert np.array_equal(unit.gram((1, 1)), np.diag([1.0, 1e-14]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_factor_refused(bad):
    # cholesky hands a NaN or inf Gram back as a factor without raising;
    # solves against cached factors rely on this one check
    unit = fock._UnitGramCache(0.3, 2)
    G = unit.block[(1, 1)] = np.array([[bad, 0.0], [0.0, 1.0]])
    with pytest.raises(fock.GramFactorizationError, match="non-finite"):
        unit.chol((1, 1))
    # the refused block is not stored as factored: cond marks a factored
    # block, and the cache still holds the Gram block itself
    assert (1, 1) not in unit.cond
    assert unit.block[(1, 1)] is G


def _gather_indices(m: int, rng):
    """Row and column index pairs for a block of m words: equal
    increasing arrays (an index map against itself), arrays that hit
    the diagonal and both triangles with repeated rows, and disjoint
    ones."""
    r = rng.integers(0, m, size=m + 3)
    c = np.concatenate([r[::2], rng.integers(0, m, size=m // 2 + 1)])
    up = np.sort(rng.choice(m, size=(m + 1) // 2, replace=False))
    return [(up, up.copy()), (r, c), (c, r), (r, r), (up, up[::-1]),
            (np.arange(m // 2), np.arange(m // 2, m))]


@pytest.mark.parametrize("q", [-0.5, 0.0, 0.3, 0.8])
def test_packing_keeps_every_bit(q, cold_gram_caches, monkeypatch):
    # a cold cache that never factors a block is the oracle for the
    # packed one: every read of G and of the factor is byte-equal to it
    oracle = fock._UnitGramCache(q, 2)
    space = build_space(q=q, lam=0.3, depth=10)
    rng = np.random.default_rng(17)
    # gram calls made by a gather of a factored block: none on the
    # packed read, one on the fallback to an entry gather from gram
    rebuilds = []
    rebuild = space._unit.gram
    monkeypatch.setattr(space._unit, "gram",
                        lambda sig: rebuilds.append(sig) or rebuild(sig))
    for level in range(11):
        for sig in space.blocks_at_level(level):
            G = oracle.gram(sig)
            u = space.u_factor(sig)
            # blocks of lower levels are factored by now, so the
            # recursion builds this one from rebuilt copies
            before = space.unit_gram(sig)
            assert before.tobytes() == G.tobytes()
            assert space.gram_chol(sig).tobytes() \
                == (math.sqrt(u) * np.linalg.cholesky(G)).tobytes()
            assert sig in space._unit.cond
            # the block is factored in its cached array, never in the
            # fresh copy read before
            assert space._unit.block[sig] is space.unit_chol(sig)
            assert not np.shares_memory(before, space._unit.block[sig])
            assert space.unit_gram(sig).tobytes() == G.tobytes()
            assert space.gram(sig).tobytes() == (u * G).tobytes()
            whole = space.unit_gram(sig, slice(None), slice(None))
            assert whole.tobytes() == G.tobytes()
            paths = set()
            for r, c in _gather_indices(len(G), rng):
                rebuilds.clear()
                assert space.unit_gram(sig, r, c).tobytes() \
                    == G[np.ix_(r, c)].tobytes()
                paths.add(len(rebuilds))
            assert paths == {0, 1}, sig


def test_factored_block_is_sampled_never_rebuilt(cold_gram_caches,
                                                  monkeypatch):
    # a norm and the whole-block reads take a factored block's entries
    # from its packed array: with the block's rebuild made to raise,
    # they keep their bits
    space = build_space(q=0.3, lam=0.4, depth=8)
    sig = (3, 3)
    rng = np.random.default_rng(5)
    v = FockVector({w: complex(*rng.standard_normal(2))
                    for w in space.block_words(sig)[::3]})
    before = space.norm_sq(v)
    G, uG = space.unit_gram(sig), space.gram(sig)
    space.gram_chol(sig)
    assert space.norm_sq(v) == before
    unit = space._unit
    rebuild = unit.gram

    def gram(s):
        if s == sig:
            raise AssertionError(f"block {sig} rebuilt")
        return rebuild(s)

    monkeypatch.setattr(unit, "gram", gram)
    with pytest.raises(AssertionError, match="rebuilt"):
        unit.gram(sig)
    assert space.norm_sq(v) == before
    assert space.unit_gram(sig).tobytes() == G.tobytes()
    assert space.gram(sig).tobytes() == uG.tobytes()


def test_gram_reads_never_share_the_cache(cold_gram_caches):
    # every Gram array a space hands out is fresh, before and after the
    # block is factored; only unit_chol gives the cached packed array
    space = build_space(q=0.55, lam=0.4, depth=6)
    blocks = [sig for level in range(7)
              for sig in space.blocks_at_level(level)]
    whole = slice(None)
    for factored in (False, True):
        for sig in blocks:
            reads = [space.unit_gram(sig), space.gram(sig),
                     space.unit_gram(sig, whole, whole)]
            assert (sig in space._unit.cond) is factored
            if factored:
                reads.append(space.gram_chol(sig))
            cached = space._unit.block[sig]
            assert not any(np.shares_memory(a, cached) for a in reads), sig
        for sig in blocks:
            space.unit_chol(sig)


def test_packing_keeps_signed_zeros():
    # values are copied, never added: -0.0 + 0.0 would read +0.0
    unit = fock._UnitGramCache(0.3, 2)
    G = np.array([[2.0, -0.0, 0.5], [-0.0, 1.0, 0.0], [0.5, 0.0, 3.0]])
    unit.block[(1, 2)] = G.copy()
    assert np.signbit(unit.chol((1, 2))[0, 1])
    assert unit.gram((1, 2)).tobytes() == G.tobytes()
    r = np.array([0, 1, 1, 2, 0])
    for rows, cols in ((r, r), (r, r[::-1]), (np.arange(3), np.arange(3))):
        assert unit.gather((1, 2), rows, cols).tobytes() \
            == G[np.ix_(rows, cols)].tobytes()


def _cache_arrays(obj):
    """Every array reachable through the dicts, tuples and lists of the
    cache's attributes."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _cache_arrays(v)
    elif isinstance(obj, (tuple, list)):
        for v in obj:
            yield from _cache_arrays(v)


def test_one_array_per_block(cold_gram_caches):
    space = build_space(q=0.3, lam=0.4, depth=10)
    blocks = [sig for level in range(11)
              for sig in space.blocks_at_level(level)]
    for sig in blocks:
        space.gram_chol(sig)
    unit = space._unit
    sizes = {sig: len(space.word_array(sig)) for sig in blocks}
    arrays = list(_cache_arrays(list(vars(unit).values())))
    square = [a for a in arrays if a.ndim == 2 and a.dtype == np.float64]
    # no view into a larger buffer hides memory from nbytes
    assert all(a.base is None for a in square)
    assert len(square) == len(blocks)
    assert sum(a.nbytes for a in square) \
        == sum(m * m * 8 for m in sizes.values())
    assert {id(a) for a in square} == {id(unit.block[sig]) for sig in blocks}
    # besides those, one m-vector per factored block: G's diagonal
    assert unit.cond.keys() == unit.diag.keys() == set(blocks)
    assert all(unit.diag[sig].shape == (m,) for sig, m in sizes.items())


class _StackedGramCache(fock._UnitGramCache):
    """The unit Gram cache with the plain stacked build: each block
    stacks its letters' strips G_red @ T_ell with np.vstack and
    symmetrizes as 0.5 * (G + G.T), and each transfer is summed into a
    dense scratch array whose nonzero entries np.flatnonzero then
    finds.  The oracle for the one-array build's bits."""

    def transfer_matrix(self, sig, ell, scale=1.0):
        key = (sig, ell)
        if key not in self.transfer:
            src = self.word_array(sig)
            red_sig = fock._sig_add(sig, ell, -1)
            T = np.zeros((len(self.word_array(red_sig)), len(src)))
            qp = 1.0
            for i in range(sum(sig)):
                cols = np.flatnonzero(src[:, i] == ell)
                rows = self.rows_of(red_sig, np.delete(src[cols], i, axis=1))
                T[rows, cols] += qp
                qp *= self.q
            nz = np.flatnonzero(T)
            self.transfer[key] = (T.shape, nz, T.flat[nz])
        shape, nz, vals = self.transfer[key]
        out = np.zeros(shape)
        out.flat[nz] = scale * vals
        return out

    def gram(self, sig):
        if sig in self.cond:
            return self.gather(sig, slice(None), slice(None))
        if sig not in self.block:
            if sum(sig) == 0:
                G = np.ones((1, 1))
            else:
                G = np.vstack([
                    self.gram(fock._sig_add(sig, ell, -1))
                    @ self.transfer_matrix(sig, ell)
                    for ell in range(self.n_letters) if sig[ell]])
                G = 0.5 * (G + G.T)
            self.block[sig] = G
        return self.block[sig]


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("q, n_letters, depth, factor_as_built", [
    (-0.5, 2, 12, True), (0.0, 2, 12, True), (0.3, 2, 12, True),
    (0.8, 2, 12, True), (0.3, 3, 8, False)])
def test_build_matches_stacked_oracle(q, n_letters, depth, factor_as_built):
    # factored level by level, a block is built from gathered copies of
    # its reduced blocks; built first, from the cached arrays themselves
    unit = fock._UnitGramCache(q, n_letters)
    oracle = _StackedGramCache(q, n_letters)
    sigs = [sig for n in range(depth + 1)
            for sig in fock._compositions(n, n_letters)]
    for cache in (unit, oracle):
        for sig in sigs:
            cache.gram(sig)
            if factor_as_built:
                cache.chol(sig)
    for sig in sigs:
        if not factor_as_built:
            assert _same_bytes(unit.gram(sig), oracle.gram(sig))
            unit.chol(sig)
            oracle.chol(sig)
        assert _same_bytes(unit.block[sig], oracle.block[sig])
        assert _same_bytes(unit.diag[sig], oracle.diag[sig])
        assert unit.cond[sig] == oracle.cond[sig]
    assert unit.transfer.keys() == oracle.transfer.keys()
    for key, (shape, nz, vals) in unit.transfer.items():
        o_shape, o_nz, o_vals = oracle.transfer[key]
        assert tuple(shape) == tuple(o_shape)
        assert _same_bytes(nz, o_nz) and _same_bytes(vals, o_vals)
    if q == 0.0:
        # only position 0 weighs 1.0, so a transfer keeps one entry per
        # word that ell opens; the terms of later positions sum to 0.0
        for (sig, ell), (_, nz, vals) in unit.transfer.items():
            assert len(nz) == len(unit.word_array(fock._sig_add(sig, ell, -1)))
            assert (vals == 1.0).all()


def test_block_build_holds_at_most_twice_its_bytes():
    # the strips are written into the block and symmetrized in place:
    # besides the block, one gathered reduced block and one transfer
    unit = fock._UnitGramCache(0.3, 2)
    for n in range(12):
        for sig in fock._compositions(n, 2):
            unit.chol(sig)
    tracemalloc.start()
    try:
        G = unit.gram((6, 6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert G.shape == (924, 924)
    assert peak <= 2 * G.nbytes


@pytest.mark.parametrize("factored", [False, True])
def test_gram_into_strided_view(cold_gram_caches, factored):
    # gram(sig, out=) writes the bits of gram(sig) into the real part of
    # a complex array, a view with twice the element stride, and leaves
    # the imaginary part alone
    space = build_space(q=-0.5, lam=0.3, depth=8)
    for sig in ((4, 4), (5, 3), (0, 1), (0, 0)):
        if factored:
            space.unit_chol(sig)
        want = space.gram(sig)
        Z = np.full(want.shape, complex(np.nan, np.nan))
        got = space.gram(sig, out=Z.real)
        assert np.shares_memory(got, Z)
        assert _same_bytes(Z.real.copy(), want), sig
        assert np.isnan(Z.imag).all()
        assert (sig in space._unit.cond) is factored
    rows = np.arange(3)
    with pytest.raises(ValueError, match="whole block"):
        space._unit.gather((4, 4), rows, rows, out=np.empty((3, 3)))


def _all_sigs(n_letters, level_max):
    return [sig for n in range(level_max + 1)
            for sig in fock._compositions(n, n_letters)]


@pytest.mark.parametrize("q, n_letters, level_max", [
    (-0.5, 2, 10), (0.3, 2, 10), (0.8, 2, 10), (0.3, 3, 7)])
def test_in_place_factor_matches_cholesky_path(q, n_letters, level_max,
                                               monkeypatch):
    # with numpy's dpotrf looked up, blocks are factored in their own
    # arrays; without it, np.linalg.cholesky runs and is copied in: the
    # oracle, byte for byte
    if fock._numpy_lapack("dpotrf") is None:
        pytest.skip("numpy's LAPACK exports no ILP64 dpotrf")
    sigs = _all_sigs(n_letters, level_max)
    in_place = fock._UnitGramCache(q, n_letters)
    for sig in sigs:
        in_place.chol(sig)
    monkeypatch.setattr(fock, "_numpy_lapack", lambda name: None)
    oracle = fock._UnitGramCache(q, n_letters)
    for sig in sigs:
        oracle.chol(sig)
        assert _same_bytes(in_place.block[sig], oracle.block[sig]), sig
        assert _same_bytes(in_place.diag[sig], oracle.diag[sig]), sig
        assert in_place.cond[sig] == oracle.cond[sig], sig


@pytest.mark.parametrize("lapack", [True, False], ids=["dpotrf", "cholesky"])
@pytest.mark.parametrize("q", [-0.5, 0.3, 0.8])
def test_packed_upper_triangle_is_the_factor(q, lapack, monkeypatch):
    # the packed array is what dpotrf('L') leaves in a C-ordered block:
    # L^T in the upper triangle, diagonal included, G's strict lower
    # triangle below it; block (6, 5) spans two tiles
    if not lapack:
        monkeypatch.setattr(fock, "_numpy_lapack", lambda name: None)
    unit = fock._UnitGramCache(q, 2)
    oracle = fock._UnitGramCache(q, 2)
    for sig in _all_sigs(2, 11):
        A = unit.chol(sig)
        G = oracle.gram(sig)
        upper = np.triu_indices(len(G))
        strict_lower = np.tril_indices(len(G), -1)
        assert _same_bytes(A[upper], np.linalg.cholesky(G).T[upper]), sig
        assert _same_bytes(A[strict_lower], G[strict_lower]), sig


def _gram_chol_oracle(space, sig):
    """np.tril of the factor in the packed array's transpose, times the
    square root of the block scalar, with its m x m mask."""
    L = np.tril(space.unit_chol(sig).T)
    L *= math.sqrt(space.u_factor(sig))
    return L


@pytest.mark.parametrize("q", [-0.5, 0.3, 0.8])
def test_gram_chol_matches_masked_oracle(q, cold_gram_caches):
    # balanced blocks have the scalar 1.0, the others not
    space = build_space(q=q, lam=0.3, depth=11)
    for level in range(12):
        for sig in space.blocks_at_level(level):
            L = space.gram_chol(sig)
            assert L.flags.c_contiguous and L.base is None
            assert _same_bytes(L, _gram_chol_oracle(space, sig)), sig


def test_gram_chol_allocates_one_block():
    # the factor is copied tile by tile through a shared tile mask; an
    # np.tril copy built an m x m boolean mask beside it (1.125 blocks)
    space = build_space(q=0.3, lam=0.4, depth=11)
    sig = (6, 5)
    space.gram_chol(sig)
    tracemalloc.start()
    try:
        L = space.gram_chol(sig)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert L.shape == (462, 462)
    assert peak <= 1.05 * L.nbytes


@pytest.mark.parametrize("lapack", [True, False], ids=["dpotrf", "cholesky"])
def test_factor_overwrites_the_cached_array(lapack, monkeypatch):
    # the cache's gram of an unfactored block is the cached array, which
    # the factor overwrites in place; a space hands out only gathers
    if not lapack:
        monkeypatch.setattr(fock, "_numpy_lapack", lambda name: None)
    unit = fock._UnitGramCache(0.3, 2)
    for sig in _all_sigs(2, 8):
        assert unit.gram(sig) is unit.chol(sig)


@pytest.mark.parametrize("m", [1, 15, 16, 17, 256, 462])
def test_mirror_copies_values_in_place(m):
    # _copy_upper(P, P.T) writes P's strict lower triangle onto its
    # strict upper one, -0.0 included, and copies no diagonal tile: a
    # 462-word block's mirror peaked at 512 KiB, one 256 x 256 tile,
    # while numpy copied each overlapping tile whole
    P = np.random.default_rng(m).standard_normal((m, m))
    P[P < -1.0] = -0.0
    want = P.copy()
    upper = np.triu_indices(m, 1)
    want[upper] = P.T[upper]
    tracemalloc.start()
    try:
        fock._copy_upper(P, P.T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert P.tobytes() == want.tobytes()
    assert peak <= 8 * fock._LEAF ** 2 + 1024


@pytest.mark.parametrize("lapack", [True, False], ids=["dpotrf", "cholesky"])
@pytest.mark.parametrize("bad, why", [
    (-1.0, "not numerically positive definite"), (np.nan, "non-finite")],
    ids=["negative", "nan"])
def test_refused_factor_restores_every_byte(bad, why, lapack, monkeypatch):
    # block (6, 5) spans two tiles of the in-place passes; a bad
    # diagonal entry at row 400 stops dpotrf there (negative) or runs it
    # to the end (NaN, which OpenBLAS does not test), and either way the
    # refused block is G again, every byte of it
    if not lapack:
        monkeypatch.setattr(fock, "_numpy_lapack", lambda name: None)
    unit = fock._UnitGramCache(0.3, 2)
    sig = (6, 5)
    G = unit.gram(sig)
    assert len(G) == 462 > fock._TILE
    G[400, 400] = bad
    want = G.copy()
    with pytest.raises(fock.GramFactorizationError, match=why):
        unit.chol(sig)
    assert sig not in unit.cond
    assert unit.block[sig] is G
    assert G.tobytes() == want.tobytes()


@pytest.mark.parametrize("q", [-0.5, 0.3, 0.8])
def test_distinct_letter_block_has_zagier_determinant(q):
    # the block of n distinct letters is the q-deformed Gram matrix of
    # the symmetric group, det = prod_k (1 - q^(k^2+k))^((n-k) n!/(k^2+k))
    # (Zagier 1992), read off the factor's diagonal
    eps = np.finfo(float).eps
    for n in range(3, 7):
        space = build_space(q=q, lam=0.5, depth=n, aux_letters=n - 2)
        sig = (1,) * n
        L = space.unit_chol(sig)
        m = len(L)
        assert m == math.factorial(n)
        got = 2.0 * np.log(L.diagonal()).sum()
        want = sum((n - k) * math.factorial(n) / (k * k + k)
                   * math.log1p(-q ** (k * k + k)) for k in range(1, n))
        assert abs(got - want) <= m * space.gram_cond(sig) * eps, (n, got)


def _inner_bruteforce(space, w, v):
    """Permutation-sum inner product of two words: the oracle for
    FockSpace.inner."""
    if len(w) != len(v):
        return 0.0
    n = len(w)
    assert n <= BRUTE_FORCE_MAX_LEVEL
    total = 0.0
    for perm in itertools.permutations(range(n)):
        prod = 1.0
        for j in range(n):
            if w[j] != v[perm[j]]:
                prod = 0.0
                break
            prod *= space.u[w[j]]
        if prod:
            total += space.q ** inversions(perm) * prod
    return total


def test_inner_agreement_with_bruteforce(sp):
    words = [w for lv in range(1, 4) for s in sp.blocks_at_level(lv)
             for w in sp.block_words(s)]
    for wa in words:
        for wb in words:
            if len(wa) != len(wb):
                continue
            fast = sp.inner(FockVector.word(wa), FockVector.word(wb))
            slow = _inner_bruteforce(sp, wa, wb)
            assert fast == pytest.approx(slow, rel=1e-12, abs=1e-12)


def test_inner_conjugate_symmetry_complex(sp):
    rng = np.random.default_rng(7)
    words = [w for lv in range(4) for s in sp.blocks_at_level(lv)
             for w in sp.block_words(s)]
    f = FockVector({w: complex(*rng.standard_normal(2)) for w in words})
    g = FockVector({w: complex(*rng.standard_normal(2)) for w in words})
    assert sp.inner(f, g) == pytest.approx(np.conj(sp.inner(g, f)),
                                           rel=1e-12)
    assert sp.norm_sq(f) > 0.0


def test_vacuum_properties(sp):
    vac = FockVector.vacuum()
    assert sp.norm(vac) == pytest.approx(1.0, abs=1e-15)
    assert sp.inner(vac, FockVector.word((E,))) == 0.0
    assert sp.inner(vac, FockVector.word((EBAR, E))) == 0.0


def test_cross_signature_orthogonality(sp):
    f = FockVector.word((E, EBAR))
    g = FockVector.word((E, E))
    assert sp.inner(f, g) == 0.0
    h = FockVector.word((E,))
    assert sp.inner(f, h) == 0.0


def _gram_data(space, level_max):
    """Every Gram reading of the blocks up to level_max: gram, Cholesky
    factor, condition estimate and annihilation transfers."""
    out = {}
    for level in range(level_max + 1):
        for sig in space.blocks_at_level(level):
            out[sig] = [space.gram(sig), space.gram_chol(sig),
                        np.array(space.gram_cond(sig))]
            out[sig] += [space.annihilation_transfer(sig, ell)
                         for ell in range(space.n_letters) if sig[ell]]
    return out


def test_with_lambda_shares_unit_data(sp, cold_gram_caches, monkeypatch):
    # one cache per (q, letter count), across lambda and depth
    other = sp.with_lambda(0.15)
    assert (other.q, other.lam) == (sp.q, 0.15)
    cold_gram_caches()
    a = build_space(q=0.3, lam=0.4, depth=8)
    assert a.with_lambda(0.15)._unit is a._unit
    assert build_space(q=0.3, lam=0.15, depth=5)._unit is a._unit
    assert build_space(q=-0.5, lam=0.4, depth=8)._unit is not a._unit
    assert build_space(q=0.3, lam=0.4, depth=5,
                       aux_letters=1)._unit is not a._unit
    # scaled blocks differ from the original by exactly the u ratio
    ratio = other.u_factor((2, 1)) / sp.u_factor((2, 1))
    assert np.allclose(other.gram((2, 1)), ratio * sp.gram((2, 1)),
                       rtol=1e-14)

    # the cache is freed with its last space
    a.gram_chol((2, 2))
    unit = weakref.ref(a._unit)
    del a
    gc.collect()
    assert unit() is None

    # a depth-10 space on a cache a depth-12 space grew first reads the
    # same bits as a cold depth-10 space
    for q in (-0.5, 0.3):
        cold_gram_caches()
        deep = build_space(q=q, lam=0.4, depth=12)
        _gram_data(deep, 12)
        warm = _gram_data(build_space(q=q, lam=0.3, depth=10), 10)
        cold_gram_caches()
        cold = _gram_data(build_space(q=q, lam=0.3, depth=10), 10)
        assert warm.keys() == cold.keys()
        for sig in cold:
            assert all(np.array_equal(w, c)
                       for w, c in zip(warm[sig], cold[sig], strict=True))

    # one certificate over three truncations builds one cache
    built = []

    class CountedCache(fock._UnitGramCache):
        def __init__(self, *key):
            super().__init__(*key)
            built.append(key)

    cold_gram_caches()
    monkeypatch.setattr(fock, "_UnitGramCache", CountedCache)
    limits.invertibility_certificate(0.3, 0.3, truncations=(8, 10, 12))
    assert built == [(0.3, 2)]


def test_vector_algebra():
    a = FockVector.word((E,), coeff=2.0)
    b = FockVector.word((EBAR,), coeff=1.0)
    c = 0.5 * (a + b) - b * 0.5
    assert c.coefficient((E,)) == pytest.approx(1.0)
    assert c.coefficient((EBAR,)) == pytest.approx(0.0)
    assert c.coefficient((E, E)) == 0.0


# -- the vector and Gram-block layouts the dump command writes ----------


def test_vector_json_round_trip(sp, tmp_path):
    assert cli.main(["dump", "xi", "--terms", "4", "--q", "0.3",
                     "--lambda", "0.4", "--depth", "8", "--format", "json",
                     "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "xi.json").read_text())["vector"]
    assert payload["format"] == "qfock-vector-1"
    levels = [entry["level"] for entry in payload["levels"]]
    assert levels == sorted(levels)
    # each word is written by name; reading the names back through the
    # space's own words gives the written vector bit for bit
    by_name = {sp.word_name(w): w
               for level in range(sp.depth + 1)
               for sig in sp.blocks_at_level(level)
               for w in sp.block_words(sig)}
    back = {by_name[term["word"]]: complex(*term["coeff"])
            for entry in payload["levels"] for term in entry["terms"]}
    for entry in payload["levels"]:
        assert all(len(by_name[t["word"]]) == entry["level"]
                   for t in entry["terms"])
    assert back == dict(limits.xi_vector(sp, n_terms=4).vector.terms)


def test_gram_block_json_layout(sp, tmp_path):
    assert cli.main(["dump", "gram", "--level", "2", "--q", "0.3",
                     "--lambda", "0.4", "--depth", "8", "--format", "json",
                     "--out", str(tmp_path)]) == 0
    blocks = json.loads((tmp_path / "gram_level2.json").read_text())["blocks"]
    sigs = [b["signature"] for b in blocks]
    payload = blocks[sigs.index({"e": 1, "Ebar": 1})]
    assert payload["format"] == "qfock-gram-1"
    assert payload["level"] == 2
    assert payload["words"] == ["eEbar", "Ebare"]
    M = np.asarray(payload["matrix"])
    assert M.shape == (2, 2)
    assert np.array_equal(M, sp.gram((1, 1)))


# -- numpy's LAPACK solves against scipy's wrappers ----------------------


def _same_array(a, b):
    return _same_bytes(a, b) and a.strides == b.strides


def _both_paths(monkeypatch, solve):
    """solve() with numpy's routines looked up, then with none (scipy's
    wrappers, the oracle)."""
    got = solve()
    with monkeypatch.context() as m:
        m.setattr(fock, "_numpy_lapack", lambda name: None)
        want = solve()
    return got, want


@pytest.fixture(scope="module")
def factor():
    # a unit factor of 70 words, C-ordered with zeros above the diagonal
    return build_space(q=0.3, lam=0.4, depth=8).gram_chol((4, 4))


def _right_side(kind, m):
    """A right side of m rows: a vector, a C- or F-ordered matrix, one
    column, or a complex vector or matrix."""
    rng = np.random.default_rng(7)
    b = rng.standard_normal((m, 5))
    if kind.startswith("complex"):
        b = b + 1j * rng.standard_normal((m, 5))
    if kind.endswith("vector"):
        return b[:, 0].copy()
    if kind == "column":
        return b[:, :1].copy()
    return np.asfortranarray(b) if kind == "F" else b


SIDES = ["vector", "C", "F", "column", "complex-vector", "complex"]


@pytest.mark.parametrize("b_kind", SIDES)
@pytest.mark.parametrize("a_kind, lower", [
    ("L", True), ("L, F-ordered", True), ("L.T", False),
    ("L.T, C-ordered", False)])
@pytest.mark.parametrize("check_finite", [True, False])
def test_triangular_solve_matches_scipy(factor, a_kind, lower, b_kind,
                                        check_finite, monkeypatch):
    # a C-ordered a runs trtrs on a.T with the triangle and the
    # transposition flipped; an F-ordered one runs as it is
    if fock._numpy_lapack("dtrtrs") is None:
        pytest.skip("numpy's LAPACK exports no ILP64 dtrtrs")
    a = {"L": factor, "L, F-ordered": np.asfortranarray(factor),
         "L.T": factor.T,
         "L.T, C-ordered": np.ascontiguousarray(factor.T)}[a_kind]
    b = _right_side(b_kind, len(a))
    b_bytes = b.tobytes()
    got, want = _both_paths(monkeypatch, lambda: fock._solve_triangular(
        a, b, lower=lower, check_finite=check_finite))
    assert _same_array(got, want)
    assert b.tobytes() == b_bytes


@pytest.mark.parametrize("b_kind", ["vector", "C", "F", "column"])
@pytest.mark.parametrize("order", ["C", "F"])
def test_cholesky_solve_matches_scipy(factor, order, b_kind, monkeypatch):
    if fock._numpy_lapack("dpotrs") is None:
        pytest.skip("numpy's LAPACK exports no ILP64 dpotrs")
    c = np.asarray(factor, order=order)
    b = _right_side(b_kind, len(c))
    got, want = _both_paths(monkeypatch, lambda: fock._cho_solve(c, b))
    assert _same_array(got, want)


def _pencil(m, width, offset):
    """A Fortran-ordered, symmetric width x width K and, for its m x m
    diagonal block at offset, the transposed packed array of a unit
    factor."""
    rng = np.random.default_rng(m)
    K = rng.standard_normal((width, width))
    K = np.asfortranarray(K + K.T)
    space = build_space(q=-0.5, lam=0.4, depth=8)
    sig = {70: (4, 4), 56: (5, 3)}[m]
    packed = space.unit_chol(sig)
    assert len(packed) == m
    rs = slice(offset, offset + m)
    return K, rs, packed.T


@pytest.mark.parametrize("m, width, offset", [(70, 70, 0), (56, 150, 40)],
                         ids=["whole", "diagonal-block"])
def test_pencil_reduction_matches_scipy(m, width, offset, monkeypatch):
    # dsygst works in K itself where K[rs, rs] is Fortran-ordered, as
    # f2py does with overwrite_a=1, and in a Fortran copy otherwise
    if fock._numpy_lapack("dsygst") is None:
        pytest.skip("numpy's LAPACK exports no ILP64 dsygst")
    results = []
    for lookup in (True, False):
        K, rs, factor_T = _pencil(m, width, offset)
        with monkeypatch.context() as mp:
            if not lookup:
                mp.setattr(fock, "_numpy_lapack", lambda name: None)
            out = fock._sygst_lower(K[rs, rs], factor_T)
        assert np.shares_memory(out, K) is (width == m)
        results.append(out)
        K[rs, rs] = out
        results.append(K)
    assert _same_array(results[0], results[2])
    assert _same_array(results[1], results[3])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_checked_solves_refuse_non_finite_input(factor, bad, monkeypatch):
    # scipy's default check_finite=True is kept where the call sites ran
    # with it, on both paths; the unchecked solves stay unchecked
    b = np.ones((len(factor), 2))
    b[3, 1] = bad
    a = factor.copy()
    a[5, 2] = bad
    for lookup in (True, False):
        with monkeypatch.context() as mp:
            if not lookup:
                mp.setattr(fock, "_numpy_lapack", lambda name: None)
            for solve in (lambda a, b: fock._solve_triangular(a, b, True),
                          fock._cho_solve):
                with pytest.raises(ValueError, match="infs or NaNs"):
                    solve(factor, b)
                with pytest.raises(ValueError, match="infs or NaNs"):
                    solve(a, np.ones(len(a)))
            x = fock._solve_triangular(factor, b, True, check_finite=False)
            assert not np.isfinite(x[3:, 1]).any()


def test_singular_triangular_solve_raises(factor, monkeypatch):
    a = factor.copy()
    a[6, 6] = 0.0
    for lookup in (True, False):
        with monkeypatch.context() as mp:
            if not lookup:
                mp.setattr(fock, "_numpy_lapack", lambda name: None)
            for order in ("C", "F"):
                with pytest.raises(np.linalg.LinAlgError,
                                   match="at diagonal 6"):
                    fock._solve_triangular(np.asarray(a, order=order),
                                           np.ones(len(a)), lower=True)


def _info_setter(value):
    """A stand-in LAPACK routine that sets info, the last reference it is
    passed, to value."""
    ref_type = type(ctypes.byref(ctypes.c_int64()))

    def routine(*args):
        [a for a in args if isinstance(a, ref_type)][-1]._obj.value = value
    return routine


def test_lapack_errors_raise(factor, monkeypatch):
    # potrs and sygst fail only on an illegal argument, which the
    # wrappers cannot pass: a stand-in routine reports one
    m = len(factor)
    monkeypatch.setattr(fock, "_numpy_lapack",
                        lambda name: _info_setter(-4))
    with pytest.raises(ValueError, match="4th argument of internal potrs"):
        fock._cho_solve(factor, np.ones(m))
    with pytest.raises(ValueError, match="4th argument of internal sygst"):
        fock._sygst_lower(np.eye(m, order="F"), factor.T)
    with pytest.raises(ValueError, match="4-th argument of internal trtrs"):
        fock._solve_triangular(factor, np.ones(m), lower=True)
    monkeypatch.setattr(fock, "_numpy_lapack",
                        lambda name: _info_setter(3))
    with pytest.raises(np.linalg.LinAlgError, match="at diagonal 2"):
        fock._solve_triangular(factor, np.ones(m), lower=True)
