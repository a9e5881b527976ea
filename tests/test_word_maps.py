"""Bit-identity of the word-map operators, the annihilation transfers
and the operator chains against hand-written constructions kept here as
oracles: one loop per operator, each writing its 0/1 (or block-scalar)
entries word by word, one transfer loop per side, and chains composed
block by block with the plain dense product, so the gathers of
FockOperator.__matmul__ are held to the GEMM they replace.  The library
builds the right annihilation letters as F a F; the right transfer loop
stays here as their independent oracle."""

import gc
import itertools
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfock import ops
from qfock.fock import E, EBAR, build_space
from qfock.qcomb import crossings, q_binomial, wick_coefficients

LEVEL_MAX = 7


@pytest.fixture(scope="module", params=[(0.3, 0.4), (-0.5, 0.4)],
                ids=["pos-q", "neg-q"])
def sp(request):
    q, lam = request.param
    return build_space(q=q, lam=lam, depth=LEVEL_MAX + 1, aux_letters=1)


def _sig_add(sig, ell, delta=1):
    out = list(sig)
    out[ell] += delta
    return tuple(out)


def _creation_oracle(space, ell, sig):
    level = sum(sig)
    if level + 1 > space.depth:
        return {}
    tgt = _sig_add(sig, ell)
    src_words = space.block_words(sig)
    tgt_index = {w: i for i, w in enumerate(space.block_words(tgt))}
    M = np.zeros((len(tgt_index), len(src_words)))
    for col, w in enumerate(src_words):
        M[tgt_index[(ell,) + w], col] = 1.0
    return {tgt: M}


def _right_creation_oracle(space, ell, sig):
    level = sum(sig)
    if level + 1 > space.depth:
        return {}
    tgt = _sig_add(sig, ell)
    src_words = space.block_words(sig)
    tgt_index = {w: i for i, w in enumerate(space.block_words(tgt))}
    M = np.zeros((len(tgt_index), len(src_words)))
    for col, w in enumerate(src_words):
        M[tgt_index[w + (ell,)], col] = 1.0
    return {tgt: M}


def _flip_oracle(space, sig):
    words = space.block_words(sig)
    index = {w: i for i, w in enumerate(words)}
    M = np.zeros((len(words), len(words)))
    for col, w in enumerate(words):
        M[index[w[::-1]], col] = 1.0
    return {tuple(sig): M}


def _bar_reversal_oracle(space, scale_power, sig):
    words = space.block_words(sig)
    tgt = list(sig)
    tgt[E], tgt[EBAR] = tgt[EBAR], tgt[E]
    tgt = tuple(tgt)
    tgt_index = {w: i for i, w in enumerate(space.block_words(tgt))}
    factor = 1.0
    for ell, count in enumerate(sig):
        if count:
            factor *= space.aeig[ell] ** (scale_power * count)
    M = np.zeros((len(tgt_index), len(words)))
    for col, w in enumerate(words):
        barred = tuple(ops.conjugate_letter(l) for l in reversed(w))
        M[tgt_index[barred], col] = factor
    return {tgt: M}


def _delta_oracle(space, power, sig):
    factor = 1.0
    for ell, count in enumerate(sig):
        if count:
            factor *= space.aeig[ell] ** (-power * count)
    m = len(space.block_words(sig))
    return {tuple(sig): factor * np.eye(m)}


def _transfer_oracle(space, sig, ell):
    src = space.block_words(sig)
    red_sig = _sig_add(sig, ell, -1)
    red_index = {w: i for i, w in enumerate(space.block_words(red_sig))}
    T = np.zeros((len(red_index), len(src)))
    q = space.q
    for col, w in enumerate(src):
        qp = 1.0
        for i, wl in enumerate(w):
            if wl == ell:
                T[red_index[w[:i] + w[i + 1:]], col] += qp
            qp *= q
    return T


def _right_transfer_oracle(space, sig, ell):
    src = space.block_words(sig)
    red_sig = _sig_add(sig, ell, -1)
    red_index = {w: i for i, w in enumerate(space.block_words(red_sig))}
    T = np.zeros((len(red_index), len(src)))
    q = space.q
    n = sum(sig)
    for col, w in enumerate(src):
        for i, wl in enumerate(w):
            if wl == ell:
                T[red_index[w[:i] + w[i + 1:]], col] += q ** (n - 1 - i)
    return T


def _blocks(space, level_max=LEVEL_MAX):
    return [sig for level in range(level_max + 1)
            for sig in space.blocks_at_level(level)]


def _assert_blocks_equal(op, oracle, space, level_max=LEVEL_MAX):
    """Every block of op equals the oracle's byte for byte (so -0.0 and
    +0.0 differ), with the same dtype, and is C-ordered."""
    for sig in _blocks(space, level_max):
        got, want = op.action(sig), oracle(sig)
        assert got.keys() == want.keys(), sig
        for tgt, M in want.items():
            assert got[tgt].dtype == M.dtype, (sig, tgt)
            assert got[tgt].shape == M.shape, (sig, tgt)
            assert got[tgt].flags.c_contiguous, (sig, tgt)
            assert got[tgt].tobytes() == M.tobytes(), (sig, tgt)


def test_creation_letters_bit_identical(sp):
    for ell in range(sp.n_letters):
        for build, oracle in ((ops.creation_letter, _creation_oracle),
                              (ops.right_creation_letter,
                               _right_creation_oracle)):
            _assert_blocks_equal(build(sp, ell),
                                 lambda sig: oracle(sp, ell, sig), sp)


def test_flip_bit_identical(sp):
    _assert_blocks_equal(ops.flip_unitary(sp),
                         lambda sig: _flip_oracle(sp, sig), sp)


@pytest.mark.parametrize("scale_power", [0.0, 0.5])
def test_bar_reversal_bit_identical(sp, scale_power):
    """S is the plain bar reversal; J = S Delta^(-1/2) scales it by the
    square roots of the generator eigenvalues."""
    mo = ops.modular_ops(sp)
    op = mo.S if scale_power == 0.0 else mo.J
    assert op.antilinear
    _assert_blocks_equal(
        op, lambda sig: _bar_reversal_oracle(sp, scale_power, sig), sp)


@pytest.mark.parametrize("power", [1.0, -0.5])
def test_modular_delta_bit_identical(sp, power):
    _assert_blocks_equal(ops.modular_delta(sp, power),
                         lambda sig: _delta_oracle(sp, power, sig), sp)


def test_field_bit_identical(sp):
    for ell in range(sp.n_letters):
        _assert_blocks_equal(
            ops.field(sp, ell),
            _dense_sum([(1.0, _cre(sp, ell)), (1.0, _ann(sp, ell))]), sp)


def test_unit_transfers_bit_identical(sp):
    unit = sp._unit
    for sig in _blocks(sp):
        for ell in range(sp.n_letters):
            if sig[ell] == 0:
                continue
            assert np.array_equal(unit.transfer_matrix(sig, ell),
                                  _transfer_oracle(sp, sig, ell)), sig


@pytest.mark.parametrize("q", [-0.5, 0.25, 0.5, 0.3, -0.7, 0.9])
def test_right_annihilation_matches_right_transfer_oracle(q):
    """F a F against the hand-written right transfer (weights q^(n-1-i)
    by position): byte for byte where q is a power of two, so every
    weight and sum is exact, and elsewhere within 2 eps of each block's
    largest entry, the rounding of the two summation orders."""
    space = build_space(q=q, lam=0.4, depth=LEVEL_MAX + 1, aux_letters=1)
    exact = math.frexp(abs(q))[0] == 0.5
    eps = np.finfo(float).eps
    for ell in range(space.n_letters):
        op = ops.right_annihilation_letter(space, ell)
        for sig in _blocks(space):
            got = op.action(sig)
            if sig[ell] == 0:
                assert got == {}, sig
                continue
            (tgt, M), = got.items()
            want = space.u[ell] * _right_transfer_oracle(space, sig, ell)
            assert tgt == _sig_add(sig, ell, -1)
            assert M.shape == want.shape and M.flags.c_contiguous, sig
            if exact:
                assert M.tobytes() == want.tobytes(), sig
            else:
                assert np.abs(M - want).max() <= 2 * eps * np.abs(want).max(), sig


def test_unit_transfers_kept_as_entries_and_returned_fresh(sp):
    """The cache keeps each transfer as its nonzero entries, at most n
    per source column, and every call scatters them into a fresh array,
    so a caller's edit reaches no other reader; the annihilation blocks
    are the letter's squared length times the oracle, byte for byte."""
    unit = sp._unit
    for sig in _blocks(sp):
        for ell in range(sp.n_letters):
            if sig[ell] == 0:
                continue
            want = _transfer_oracle(sp, sig, ell)
            unit.transfer_matrix(sig, ell)[:] = np.nan
            got = unit.transfer_matrix(sig, ell)
            assert got.tobytes() == want.tobytes(), sig
            ann = sp.annihilation_transfer(sig, ell)
            assert ann.shape == want.shape
            assert ann.tobytes() == (sp.u[ell] * want).tobytes()
    assert unit.transfer
    for (sig, ell), stored in unit.transfer.items():
        bound = sum(sig) * len(unit.word_array(sig))
        arrays = [part for part in stored if isinstance(part, np.ndarray)]
        assert arrays and all(a.ndim == 1 and a.size <= bound
                              for a in arrays), (sig, ell)


def _dense_compose(A_actions, B_actions, antilinear=False):
    """Blocks of A @ B, each formed with the plain dense product Ma @ Mb
    (Mb.conj() for an antilinear left factor A) and added per target in
    the order the middle blocks come."""
    def act(sig):
        acc = {}
        for mid, Mb in B_actions(sig).items():
            Mb_eff = Mb.conj() if antilinear else Mb
            for tgt, Ma in A_actions(mid).items():
                prod = Ma @ Mb_eff
                acc[tgt] = acc[tgt] + prod if tgt in acc else prod
        return acc
    return act


def _dense_sum(terms):
    """Blocks of the sum of coef * A over the (coef, A_actions) terms,
    added in term order."""
    def act(sig):
        acc = {}
        for coef, A in terms:
            for tgt, M in A(sig).items():
                M = coef * M
                acc[tgt] = acc[tgt] + M if tgt in acc else M
        return acc
    return act


def _identity_oracle(space):
    return lambda sig: {tuple(sig): np.eye(len(space.block_words(sig)))}


def _dense_chain(space, factors):
    """factors[0] @ (... @ (factors[-1] @ identity)), composed densely."""
    out = _identity_oracle(space)
    for A in reversed(factors):
        out = _dense_compose(A, out)
    return out


def _cre(space, ell):
    return lambda sig: _creation_oracle(space, ell, sig)


def _rcre(space, ell):
    return lambda sig: _right_creation_oracle(space, ell, sig)


def _ann(space, ell):
    def act(sig):
        if sig[ell] == 0:
            return {}
        return {_sig_add(sig, ell, -1): space.annihilation_transfer(sig, ell)}
    return act


def _rann(space, ell):
    """flip @ a @ flip, composed densely."""
    flip = lambda sig: _flip_oracle(space, sig)
    return _dense_compose(_dense_compose(flip, _ann(space, ell)), flip)


def _wick_oracle(space, word):
    n = len(word)
    terms = []
    for mask in range(1 << n):
        J = [p for p in range(1, n + 1) if mask & (1 << (p - 1))]
        comp = [p for p in range(1, n + 1) if not mask & (1 << (p - 1))]
        chain = [_cre(space, word[p - 1]) for p in J] + [
            _ann(space, ops.conjugate_letter(word[p - 1])) for p in comp]
        terms.append((space.q ** crossings(n, J), _dense_chain(space, chain)))
    return _dense_sum(terms)


def _wick_right_oracle(space, word):
    n = len(word)
    terms = []
    for mask in range(1 << n):
        P = [p for p in range(1, n + 1) if mask & (1 << (p - 1))]
        compP = [p for p in range(1, n + 1) if not mask & (1 << (p - 1))]
        weight = space.q ** crossings(n, [n + 1 - p for p in P])
        scale = 1.0
        for p in compP:
            scale *= space.aeig[word[p - 1]]
        chain = [_rcre(space, word[p - 1]) for p in reversed(P)] + [
            _rann(space, ops.conjugate_letter(word[p - 1]))
            for p in reversed(compP)]
        terms.append((weight * scale, _dense_chain(space, chain)))
    return _dense_sum(terms)


def _wen_oracle(space, n):
    return _dense_sum([
        (q_binomial(n, k, space.q),
         _dense_chain(space, [_cre(space, E)] * (n - k)
                      + [_ann(space, EBAR)] * k))
        for k in range(n + 1)])


def _wick_balanced_oracle(space, n):
    coeff = wick_coefficients(n, space.q)
    return _dense_sum([
        (coeff[k, l],
         _dense_chain(space, [_cre(space, EBAR)] * k + [_cre(space, E)] * l
                      + [_ann(space, E)] * (n - k)
                      + [_ann(space, EBAR)] * (n - l)))
        for k in range(n + 1) for l in range(n + 1)])


def _wick_right_balanced_oracle(space, n):
    J = lambda sig: _bar_reversal_oracle(space, 0.5, sig)
    JW = _dense_compose(J, _wick_balanced_oracle(space, n), antilinear=True)
    return _dense_compose(JW, J, antilinear=True)


AUX = 2
CHAINS = {
    "c(e)^3": (lambda sp: ops.creation_letter(sp, E).power(3),
               lambda sp: _dense_chain(sp, [_cre(sp, E)] * 3)),
    "c(Ebar)*^2": (
        lambda sp: ops.annihilation_letter(sp, EBAR).power(2),
        lambda sp: _dense_chain(sp, [_ann(sp, EBAR)] * 2)),
    "c(e)^2 ladder rung": (
        lambda sp: ops.power_ladder(ops.creation_letter(sp, E), 2)[2],
        lambda sp: _dense_chain(sp, [_cre(sp, E)] * 2)),
    "T-type c(e)*^2 c(e)^2": (
        lambda sp: (ops.annihilation_letter(sp, E).power(2)
                    @ ops.creation_letter(sp, E).power(2)),
        lambda sp: _dense_compose(_dense_chain(sp, [_ann(sp, E)] * 2),
                                  _dense_chain(sp, [_cre(sp, E)] * 2))),
    "W[e]": (lambda sp: ops.wick(sp, (E,)),
             lambda sp: _wick_oracle(sp, (E,))),
    "W[Ebar e]": (lambda sp: ops.wick(sp, (EBAR, E)),
                  lambda sp: _wick_oracle(sp, (EBAR, E))),
    "W[e e Ebar]": (lambda sp: ops.wick(sp, (E, E, EBAR)),
                    lambda sp: _wick_oracle(sp, (E, E, EBAR))),
    "Wr[Ebar e]": (lambda sp: ops.wick_right(sp, (EBAR, E)),
                   lambda sp: _wick_right_oracle(sp, (EBAR, E))),
    "Wr[e Aux Ebar]": (lambda sp: ops.wick_right(sp, (E, AUX, EBAR)),
                       lambda sp: _wick_right_oracle(sp, (E, AUX, EBAR))),
    "W[e^3]": (lambda sp: ops.wen_operator(sp, 3),
               lambda sp: _wen_oracle(sp, 3)),
    "W[Ebar^2 e^2]": (lambda sp: ops.wick_balanced(sp, 2),
                      lambda sp: _wick_balanced_oracle(sp, 2)),
    "Wr[Ebar^2 e^2]": (lambda sp: ops.wick_right_balanced(sp, 2),
                       lambda sp: _wick_right_balanced_oracle(sp, 2)),
}


@pytest.mark.parametrize("name", CHAINS)
def test_chains_bit_identical(sp, name):
    build, oracle = CHAINS[name]
    _assert_blocks_equal(build(sp), oracle(sp), sp)


def _wen_by_chains(space, n):
    """wen_operator as one chain of letters per monomial, the library's
    construction before its annihilations came from a power ladder."""
    ce = ops.creation_letter(space, E)
    aeb = ops.annihilation_letter(space, EBAR)
    terms = [q_binomial(n, k, space.q)
             * ops._chain(space, [ce] * (n - k) + [aeb] * k)
             for k in range(n + 1)]
    return sum(terms[1:], terms[0])


def _wick_balanced_by_chains(space, n):
    """wick_balanced as one chain of letters per monomial, the library's
    construction before its annihilation tails came from one table."""
    coeff = wick_coefficients(n, space.q)
    ce = ops.creation_letter(space, E)
    ceb = ops.creation_letter(space, EBAR)
    ae = ops.annihilation_letter(space, E)
    aeb = ops.annihilation_letter(space, EBAR)
    terms = [coeff[k, l] * ops._chain(space, [ceb] * k + [ce] * l
                                      + [ae] * (n - k) + [aeb] * (n - l))
             for k in range(n + 1) for l in range(n + 1)]
    return sum(terms[1:], terms[0])


LADDER_DEPTH = 10


@pytest.mark.parametrize("q", [-0.5, 0.3, 0.8])
def test_ladder_builders_match_chain_sums(shared_space, q):
    # every block of the depth-10 space, for every n the depth allows
    space = shared_space(q, 0.4, LADDER_DEPTH)
    for n in range(1, LADDER_DEPTH // 2 + 1):
        for build, by_chains in ((ops.wen_operator, _wen_by_chains),
                                 (ops.wick_balanced,
                                  _wick_balanced_by_chains)):
            got, want = build(space, n), by_chains(space, n)
            assert (got.reach, got.peak) == (want.reach, want.peak)
            _assert_blocks_equal(got, want.action, space, LADDER_DEPTH)


def test_rows_of_finds_words_and_refuses_others(sp):
    sig = (2, 1, 1)
    W = sp.word_array(sig)
    assert W.dtype == np.int8
    assert [tuple(w) for w in W.tolist()] == sorted(
        set(itertools.permutations((0, 0, 1, 2))))
    assert np.array_equal(sp.rows_of(sig, W[::-1]), np.arange(len(W))[::-1])
    with pytest.raises(KeyError):
        sp.rows_of(sig, np.array([[0, 0, 0, 1]], dtype=np.int8))
    with pytest.raises(KeyError):
        sp.rows_of(sig, W[:, 1:])


def test_word_maps_past_int8_letters():
    """Word arrays widen past 128 letters; the letter 129 still prepends."""
    space = build_space(q=0.3, lam=0.5, depth=2, aux_letters=128)
    sig = (1,) + (0,) * 129
    assert space.word_array(sig).dtype == np.int16
    op = ops.creation_letter(space, 129)
    _assert_blocks_equal(op, lambda s: _creation_oracle(space, 129, s),
                         space, level_max=0)
    got, want = op.action(sig), _creation_oracle(space, 129, sig)
    assert got.keys() == want.keys()
    assert all(got[t].tobytes() == want[t].tobytes() for t in want)


def test_word_codes_refuse_overflow(sp):
    unit = sp._unit
    long_word = np.zeros((1, 40), dtype=np.int8)  # 3**40 >= 2**63
    with pytest.raises(OverflowError):
        unit._word_codes(long_word)
    assert unit._word_codes(long_word[:, :39]).tolist() == [0]


def test_index_operators_freed_without_cycle_collector(sp):
    """An index operator, and F a F built from them, holds no reference
    back to itself, so its block caches go with its last user, not at
    the next cyclic collection."""
    builders = (lambda: ops.creation_letter(sp, E),
                lambda: ops.identity(sp),
                lambda: ops.memoized(ops.creation_letter(sp, E)
                                     @ ops.flip_unitary(sp)),
                lambda: ops.right_annihilation_letter(sp, E))
    gc.disable()
    try:
        for build in builders:
            op = build()
            assert op.action((1, 1, 0))
            ref = weakref.ref(op)
            del op
            assert ref() is None
    finally:
        gc.enable()


# -- the gather against the dense product, on random chains --------------

PROPERTY_DEPTH = 8
FACTOR_KINDS = ("c", "cr", "a", "ar", "flip", "J", "delta", "id")
SCALARS = (None, -1.0, -0.25, 0.5, 1.5)


def _factor(space, kind, ell, power, scalar):
    """(library operator, oracle block function, antilinear)."""
    if kind == "c":
        op, oracle = ops.creation_letter(space, ell), _cre(space, ell)
    elif kind == "cr":
        op, oracle = ops.right_creation_letter(space, ell), _rcre(space, ell)
    elif kind == "a":
        op, oracle = ops.annihilation_letter(space, ell), _ann(space, ell)
    elif kind == "ar":
        op = ops.right_annihilation_letter(space, ell)
        oracle = _rann(space, ell)
    elif kind == "flip":
        op = ops.flip_unitary(space)
        oracle = lambda sig: _flip_oracle(space, sig)
    elif kind == "J":
        op = ops.modular_ops(space).J
        oracle = lambda sig: _bar_reversal_oracle(space, 0.5, sig)
    elif kind == "delta":
        op = ops.modular_delta(space, power)
        oracle = lambda sig: _delta_oracle(space, power, sig)
    else:
        op, oracle = ops.identity(space), _identity_oracle(space)
    if scalar is not None:
        op = scalar * op
        oracle = (lambda base: lambda sig: {
            tgt: scalar * M for tgt, M in base(sig).items()})(oracle)
    return op, oracle, kind == "J"


_FACTORS = st.tuples(st.sampled_from(FACTOR_KINDS), st.sampled_from((E, EBAR)),
                     st.sampled_from((1.0, -0.5, 0.25)),
                     st.sampled_from(SCALARS))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(q=st.floats(-0.9, 0.9), lam=st.floats(0.05, 0.95),
       factors=st.lists(_FACTORS, min_size=1, max_size=5),
       nest_left=st.booleans())
def test_gathers_match_dense_product_property(q, lam, factors, nest_left):
    """Chains of 1-5 word maps, diagonal maps, annihilations and scalar
    multiples, grouped left or right: every block equals the dense
    composition byte for byte and is C-ordered, and an index operator's
    declared (rows, scale) reproduces its block."""
    space = build_space(q=q, lam=lam, depth=PROPERTY_DEPTH)
    parts = [_factor(space, *f) for f in factors]
    if nest_left:
        op, oracle, anti = parts[0]
        for op_b, oracle_b, anti_b in parts[1:]:
            op = op @ op_b
            oracle = _dense_compose(oracle, oracle_b, antilinear=anti)
            anti = anti != anti_b
    else:
        op, oracle, anti = parts[-1]
        for op_a, oracle_a, anti_a in reversed(parts[:-1]):
            op = op_a @ op
            oracle = _dense_compose(oracle_a, oracle, antilinear=anti_a)
            anti = anti != anti_a
    assert op.antilinear == anti
    _assert_blocks_equal(op, oracle, space, level_max=PROPERTY_DEPTH)
    for sig in _blocks(space, PROPERTY_DEPTH):
        ix = op.index(sig)
        if ix is None:
            if op._index_fn is not None:
                assert oracle(sig) == {}
            continue
        tgt, rows, scale = ix
        (want_tgt, want), = oracle(sig).items()
        declared = np.zeros(want.shape, dtype=want.dtype)
        declared[rows, np.arange(len(rows))] = scale
        assert tgt == want_tgt
        assert np.array_equal(declared, want), sig
