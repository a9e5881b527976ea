"""Operator layer: ladder operators, commutation relation, adjoints,
modular data, Wick words and their closed forms."""

import itertools
import math

import numpy as np
import pytest

from qfock import ops
from qfock.fock import E, EBAR, FockVector, build_space
from qfock.qcomb import bound_constants, q_factorial, wick_coefficients

TOL = 1e-10


@pytest.fixture(scope="module", params=[(0.3, 0.4), (-0.5, 0.3)],
                ids=["pos-q", "neg-q"])
def sp(request):
    q, lam = request.param
    return build_space(q=q, lam=lam, depth=10)


def _max_coeff(vec):
    return max((abs(c) for c in vec.terms.values()), default=0.0)


def test_creation_annihilation_adjoint(sp):
    # the right pair is checked through the Cholesky solves of q_adjoint,
    # not through the flip that builds both right letters
    for ell in (E, EBAR):
        for create, annihilate in (
                (ops.creation_letter, ops.annihilation_letter),
                (ops.right_creation_letter, ops.right_annihilation_letter)):
            assert ops.action_gap(ops.q_adjoint(create(sp, ell)),
                                  annihilate(sp, ell), 8) < TOL


def test_action_gap_when_one_side_has_no_target():
    # zero(sp) has no target block, so each gap is the other side's
    # largest entry over the scale, here 1 for the single creation letter
    sp = build_space(q=0.3, lam=0.4, depth=6)
    create = ops.creation_letter(sp, E)
    assert ops.action_gap(ops.zero(sp), create, 3) == 1.0
    assert ops.action_gap(create, ops.zero(sp), 3) == 1.0


def test_commutation_relation(sp):
    q = sp.q
    ce = ops.creation_letter(sp, E)
    ae = ops.annihilation_letter(sp, E)
    lhs = (ae @ ce) + (-q) * (ce @ ae)
    assert ops.action_gap(lhs, sp.u[E] * ops.identity(sp), 6) < TOL

    cb = ops.creation_letter(sp, EBAR)
    cross = (ae @ cb) + (-q) * (cb @ ae)
    assert ops.action_gap(cross, ops.zero(sp), 6) < TOL


def test_right_commutation_relation(sp):
    q = sp.q
    rc = ops.right_creation_letter(sp, E)
    ra = ops.right_annihilation_letter(sp, E)
    lhs = (ra @ rc) + (-q) * (rc @ ra)
    assert ops.action_gap(lhs, sp.u[E] * ops.identity(sp), 6) < TOL


def test_annihilation_split_identity(sp):
    # removing a letter from a concatenation splits into the two-word
    # rule with the deformation weight on the crossing of the first part
    q = sp.q
    ae = ops.annihilation_letter(sp, E)
    for head in ((E,), (E, EBAR), (EBAR, E, E)):
        for tail in ((E,), (EBAR, E), (E, E)):
            whole = ae.apply(FockVector.word(head + tail))
            first = ae.apply(FockVector.word(head))
            second = ae.apply(FockVector.word(tail))
            split = FockVector()
            for w, c in first.terms.items():
                split.terms[w + tail] = split.terms.get(w + tail, 0.0) + c
            for w, c in second.terms.items():
                key = head + w
                split.terms[key] = split.terms.get(key, 0.0) \
                    + q ** len(head) * c
            assert _max_coeff(whole - split) < TOL


def test_annihilation_power_closed_form(sp):
    q, lam = sp.q, sp.lam
    ae = ops.annihilation_letter(sp, E)
    for n, m in ((1, 3), (2, 4), (3, 5)):
        got = FockVector.word((E,) * m)
        for _ in range(n):
            got = ae.apply(got)
        coef = (q_factorial(m, q) / q_factorial(m - n, q)) \
            * lam ** (-n / 2.0)
        want = FockVector.word((E,) * (m - n), coeff=coef)
        assert _max_coeff(got - want) / coef < TOL


@pytest.mark.parametrize("scalar", [0.5j, np.complex128(0.5j),
                                    np.complex64(1.0)])
def test_complex_scalar_refused(sp, scalar):
    with pytest.raises(TypeError):
        scalar * ops.creation_letter(sp, E)


def test_operator_algebra_reach_and_power(sp):
    ce = ops.creation_letter(sp, E)
    assert ce.reach == 1
    sq = ce.power(2)
    assert sq.reach == 2
    diff = sq.apply(FockVector.vacuum()) \
        - ce.apply(ce.apply(FockVector.vacuum()))
    assert _max_coeff(diff) < TOL
    assert (ce + (-1.0) * ce).apply(FockVector.word((E,))).terms in ({},
                                                                     {(E, E): 0.0})


def test_annihilation_letter_keeps_no_block(sp):
    # the unit cache keeps each transfer's nonzero entries, and the
    # letter scatters a fresh dense block from them on every call
    for ell in (E, EBAR):
        A = ops.annihilation_letter(sp, ell)
        assert A._cache is None
        for sig in sp.blocks_at_level(6):
            first, again = A.action(sig), A.action(sig)
            assert list(first) == list(again)
            for tgt, M in first.items():
                assert again[tgt] is not M
                assert again[tgt].tobytes() == M.tobytes()


@pytest.mark.parametrize("k_max", [0, 1, 4])
def test_ladder_starts_at_the_letter(sp, k_max):
    for A in (ops.annihilation_letter(sp, E), ops.creation_letter(sp, E)):
        rungs = ops.power_ladder(A, k_max)
        assert len(rungs) == k_max + 1
        if k_max >= 1:
            assert rungs[1] is A


def _oracle_ladder(A, k_max):
    """The ladder as it was built before rung 1 became the letter: every
    rung memoized, rung k + 1 = A @ rung k from the identity."""
    rungs = [ops.identity(A.space)]
    for _ in range(k_max):
        rungs.append(ops.memoized(A @ rungs[-1]))
    return rungs


@pytest.mark.parametrize("q", [-0.5, 0.3, 0.8])
@pytest.mark.parametrize("ell", [E, EBAR], ids=["ae", "aeb"])
def test_ladder_matches_oracle_ladder(shared_space, q, ell):
    # every rung's blocks, on every block of the space, equal the oracle
    # ladder's byte for byte and in memory order
    space = shared_space(q, 0.4, 10)
    got = ops.power_ladder(ops.annihilation_letter(space, ell), 10)
    want = _oracle_ladder(ops.annihilation_letter(space, ell), 10)
    for k in range(11):
        for level in range(11):
            for sig in space.blocks_at_level(level):
                g, w = got[k].action(sig), want[k].action(sig)
                assert list(g) == list(w)
                for tgt in w:
                    assert (g[tgt].shape, g[tgt].strides) \
                        == (w[tgt].shape, w[tgt].strides), (k, sig)
                    assert g[tgt].tobytes() == w[tgt].tobytes(), (k, sig)


# (reach, peak) come from composition alone and do not depend on q
@pytest.mark.parametrize("n", range(7))
def test_wick_bookkeeping_computed(n):
    sp = build_space(q=0.3, lam=0.4, depth=10)
    for word in itertools.product((E, EBAR), repeat=n):
        for make in (ops.wick, ops.wick_right):
            A = make(sp, word)
            assert (A.reach, A.peak) == (n, n), (make.__name__, word)


@pytest.mark.parametrize("n", range(6))
def test_closed_form_bookkeeping_computed(n):
    sp = build_space(q=0.3, lam=0.4, depth=10)
    A = ops.wen_operator(sp, n)
    assert (A.reach, A.peak) == (n, n)
    for make in (ops.wick_balanced, ops.wick_right_balanced):
        A = make(sp, n)
        assert (A.reach, A.peak) == (2 * n, 2 * n), make.__name__


def test_modular_involutions(sp):
    mo = ops.modular_ops(sp)
    assert ops.action_gap(mo.J @ mo.J, ops.identity(sp), 6) < TOL
    assert ops.action_gap(mo.S @ mo.S, ops.identity(sp), 6) < TOL
    assert ops.action_gap(mo.J, mo.S @ ops.modular_delta(sp, -0.5), 6) < TOL


def test_modular_letter_action(sp):
    lam = sp.lam
    mo = ops.modular_ops(sp)
    je = mo.J.apply(FockVector.word((E,)))
    assert je.coefficient((EBAR,)) == pytest.approx(lam ** -0.5, rel=1e-12)
    de = ops.modular_delta(sp, 1.0).apply(FockVector.word((E,)))
    assert de.coefficient((E,)) == pytest.approx(lam, rel=1e-12)
    db = ops.modular_delta(sp, 1.0).apply(FockVector.word((EBAR,)))
    assert db.coefficient((EBAR,)) == pytest.approx(1.0 / lam, rel=1e-12)


def test_modular_conjugation_intertwines_sides(sp):
    lam = sp.lam
    mo = ops.modular_ops(sp)
    ce = ops.creation_letter(sp, E)
    want = lam ** -0.5 * ops.right_creation_letter(sp, EBAR)
    assert ops.action_gap(mo.J @ ce @ mo.J, want, 6) < TOL


def test_modular_scaling_of_wick(sp):
    lam = sp.lam
    we = ops.wick(sp, (E,))
    lhs = ops.modular_delta(sp, 1.0) @ we @ ops.modular_delta(sp, -1.0)
    assert ops.action_gap(lhs, lam * we, 6) < TOL


def test_wick_vacuum_defining_property(sp):
    for word in ((E,), (EBAR,), (EBAR, E), (E, E, EBAR), (E, EBAR, E, E)):
        got = ops.wick(sp, word).apply(FockVector.vacuum())
        assert _max_coeff(got - FockVector.word(word)) < TOL
    got = ops.wick_right(sp, (EBAR, E)).apply(FockVector.vacuum())
    assert _max_coeff(got - FockVector.word((EBAR, E))) < TOL


def test_wen_closed_form_triple(sp):
    single = ops.wick(sp, (E,))
    for n in range(1, 6):
        closed = ops.wen_operator(sp, n)
        lim = sp.depth - n
        assert ops.action_gap(closed, ops.wick(sp, (E,) * n), lim) < TOL
        assert ops.action_gap(closed, single.power(n), lim) < TOL


def test_balanced_wick_coefficient_reconstruction(sp):
    q = sp.q
    ce = ops.creation_letter(sp, E)
    cb = ops.creation_letter(sp, EBAR)
    ae = ops.annihilation_letter(sp, E)
    ab = ops.annihilation_letter(sp, EBAR)
    for n in range(1, 5):
        coeffs = np.asarray(wick_coefficients(n, q))
        total = ops.zero(sp)
        for k in range(n + 1):
            for ell in range(n + 1):
                term = cb.power(k) @ ce.power(ell) \
                    @ ae.power(n - k) @ ab.power(n - ell)
                total = total + float(coeffs[k, ell]) * term
        got = ops.action_gap(ops.wick_balanced(sp, n), total,
                             sp.depth - 2 * n)
        assert got < TOL


def test_left_right_commutant(sp):
    for wl, wr in (((E,), (E,)), ((EBAR,), (EBAR, E)), ((E, EBAR), (E,))):
        A = ops.wick(sp, wl)
        B = ops.wick_right(sp, wr)
        AB, BA = A @ B, B @ A
        lim = sp.depth - max(AB.peak, BA.peak)
        assert ops.action_gap(AB, BA, lim) < TOL


def test_flip_preserves_form_but_is_not_right_map(sp):
    fl = ops.flip_unitary(sp)
    for sig in ((2, 1), (2, 2), (3, 1)):
        P = fl.action(sig)[tuple(sig)]
        G = sp.gram(sig)
        assert np.allclose(P.T @ G @ P, G, rtol=1e-12, atol=1e-12)
    gap = ops.action_gap(fl @ ops.wick(sp, (E,)) @ fl,
                         ops.wick_right(sp, (E,)), 6)
    assert gap > 1e-3


def test_field_self_adjoint(sp):
    X = ops.field(sp, E)
    assert ops.action_gap(ops.q_adjoint(X), X, 6) < 1e-9


def test_double_adjoint_identity(sp):
    A = ops.wen_operator(sp, 2)
    back = ops.q_adjoint(ops.q_adjoint(A, src_level_max=8),
                         src_level_max=8)
    assert ops.action_gap(back, A, 6) < 1e-9


def test_norm_paths_free_case():
    sp0 = build_space(q=0.0, lam=0.25, depth=8)
    got = ops.op_norm(ops.creation_letter(sp0, E))
    assert got == pytest.approx(0.25 ** -0.25, rel=1e-10)
    assert ops.min_singular(ops.identity(sp0), src_level_max=4) \
        == pytest.approx(1.0, rel=1e-12)


def test_creation_norm_bounded(sp):
    q = sp.q
    norm_e = sp.lam ** -0.25
    for n in range(1, 7):
        got = ops.op_norm(ops.creation_letter(sp, E).power(n),
                          src_level_max=min(6, sp.depth - n))
        cap = (norm_e / math.sqrt(1.0 - q)) ** n if q >= 0 \
            else norm_e ** n
        assert got <= cap * (1.0 + 1e-12)


def test_op_norm_same_value_every_call(shared_space):
    # a 4096 x 127 matrix takes the Gram pencil; its flat q = 0 spectrum
    # made ARPACK's last bits depend on the start vector
    sp0 = shared_space(0.0, 0.3, 12)
    A = ops.creation_letter(sp0, E).power(6)
    assert len({ops.op_norm(A, src_level_max=6) for _ in range(10)}) == 1


@pytest.mark.parametrize("level_max", [5, 11], ids=["dense", "pencil"])
def test_op_norm_of_zero_operator(shared_space, level_max):
    # window 11 at depth 12 is 8178 x 4095, the Gram-pencil path, where
    # a zero operator gives a zero pencil
    ce = ops.creation_letter(shared_space(0.3, 0.4, 12), E)
    for A in (0.0 * ce, ce - ce):
        assert ops.op_norm(A, src_level_max=level_max) == 0.0


def test_dual_window_norm_equality(sp):
    ce = ops.creation_letter(sp, E)
    ae = ops.annihilation_letter(sp, E)
    na = ops.op_norm(ce, src_level_max=6)
    nb = ops.op_norm(ae, src_level_max=7)
    assert na == pytest.approx(nb, rel=1e-10)


def test_wick_rejects_overdeep_words(sp):
    with pytest.raises(ValueError):
        ops.wick(sp, (E,) * (sp.depth + 1))
