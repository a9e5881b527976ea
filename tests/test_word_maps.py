"""Bit-identity of the word-map operators and the annihilation transfers
against hand-written block constructions kept here as oracles: one loop
per operator, each writing its 0/1 (or block-scalar) entries word by
word, and one transfer loop per side."""

import numpy as np
import pytest

from qfock import ops
from qfock.fock import E, EBAR, build_space

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


def _blocks(space):
    return [sig for level in range(LEVEL_MAX + 1)
            for sig in space.blocks_at_level(level)]


def _assert_blocks_equal(op, oracle, space):
    for sig in _blocks(space):
        got, want = op.action(sig), oracle(sig)
        assert got.keys() == want.keys(), sig
        for tgt, M in want.items():
            assert got[tgt].dtype == M.dtype
            assert np.array_equal(got[tgt], M), (sig, tgt)


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
    op = ops._bar_reversal(sp, scale_power, "bar")
    assert op.antilinear
    _assert_blocks_equal(
        op, lambda sig: _bar_reversal_oracle(sp, scale_power, sig), sp)


@pytest.mark.parametrize("power", [1.0, -0.5])
def test_modular_delta_bit_identical(sp, power):
    _assert_blocks_equal(ops.modular_delta(sp, power),
                         lambda sig: _delta_oracle(sp, power, sig), sp)


def test_unit_transfers_bit_identical(sp):
    unit = sp._unit
    for sig in _blocks(sp):
        for ell in range(sp.n_letters):
            if sig[ell] == 0:
                continue
            for side, oracle in (("left", _transfer_oracle),
                                 ("right", _right_transfer_oracle)):
                assert np.array_equal(unit.transfer_matrix(sig, ell, side),
                                      oracle(sp, sig, ell)), (sig, side)
