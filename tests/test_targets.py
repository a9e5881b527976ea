"""Declared targets and the solvers that stream by them.

Every operator lists the target blocks of a source block (targets)
without building a block.  op_norm, min_singular and adjoint_vacuum read
those targets first and then evaluate one component, or one source, at
a time.  Their former versions, which evaluated the whole window before
grouping it, are kept here as oracles, and the streamed values must
equal them bit for bit."""

import functools
import math
import tracemalloc

import numpy as np
import pytest

from qfock import checks, limits, ops
from qfock.fock import (E, EBAR, FockVector, _eigvalsh_in_place,
                        _lower_factor, _solve_triangular, _sygst_lower,
                        build_space)


def _operators(space):
    """(name, operator) for every kind of operator that verify, sweep and
    the deep session build, and sums and products with zero."""
    ce, cb = ops.creation_letter(space, E), ops.creation_letter(space, EBAR)
    ae = ops.annihilation_letter(space, E)
    ab = ops.annihilation_letter(space, EBAR)
    mod = ops.modular_ops(space)
    zero = ops.zero(space)
    N = space.depth
    out = [
        ("ce", ce), ("cb", cb), ("ae", ae), ("ab", ab),
        ("right-ce", ops.right_creation_letter(space, E)),
        ("right-ab", ops.right_annihilation_letter(space, EBAR)),
        ("flip", ops.flip_unitary(space)), ("S", mod.S), ("J", mod.J),
        ("delta", ops.modular_delta(space, 0.5)),
        ("identity", ops.identity(space)),
        ("field", ops.field(space, E)),
        ("ce^3", ce.power(3)),
        ("adjoint", ops.q_adjoint(ce)),
        ("adjoint-field", ops.q_adjoint(ops.field(space, EBAR), N - 2)),
        ("wick", ops.wick(space, (E, EBAR, E))),
        ("wick-right", ops.wick_right(space, (EBAR, E))),
        ("wen", ops.wen_operator(space, 2)),
        ("wick-balanced", ops.wick_balanced(space, 2)),
        ("wick-right-balanced", ops.wick_right_balanced(space, 1)),
        ("t3", limits.t_n_operator(space, 3)),
        ("s2", limits.s_n_operator(space, 2)),
        ("z1", limits.z_n_operator(space, 1)),
        ("s-infinity", limits.s_infinity(space).op),
        ("s-infinity-capped", limits.s_infinity(space, t_cap=2).op),
        ("zero", zero),
        ("zero+ce", zero + ce), ("ab+zero", ab + zero),
        ("ce@zero", ce @ zero), ("zero@ae", zero @ ae),
        ("J@zero", mod.J @ zero), ("-2*zero", -2.0 * zero),
        ("ce-ce", ce - ce),
    ]
    return out


@pytest.mark.parametrize("q", [-0.5, 0.3, 0.8])
def test_targets_are_the_action_keys(q, monkeypatch):
    # every block up to the depth; targets are asked first and must build
    # no block: each way to one is disabled while they are read
    space = build_space(q=q, lam=0.3, depth=8)
    named = _operators(space)
    blocks = ops.Window(space, space.depth).blocks
    with monkeypatch.context() as mp:
        for name in ("gram", "unit_gram", "gram_chol",
                     "annihilation_transfer", "rows_of"):
            mp.setattr(space, name, None)
        declared = {name: {sig: A.targets(sig) for sig in blocks}
                    for name, A in named}
    for name, A in named:
        for sig in blocks:
            assert declared[name][sig] == tuple(A.action(sig)), (name, sig)


def test_targets_with_an_auxiliary_letter(monkeypatch):
    space = build_space(q=0.3, lam=0.4, depth=6, aux_letters=1)
    aux = 2
    named = [("c-aux", ops.creation_letter(space, aux)),
             ("a-aux", ops.annihilation_letter(space, aux)),
             ("wick", ops.wick(space, (aux, E, aux))),
             ("J", ops.modular_ops(space).J),
             ("right-a-aux", ops.right_annihilation_letter(space, aux))]
    for name, A in named:
        for sig in ops.Window(space, space.depth).blocks:
            assert A.targets(sig) == tuple(A.action(sig)), (name, sig)


def test_targets_leave_the_block_caches_empty():
    space = build_space(q=0.3, lam=0.4, depth=8)
    rungs = ops.power_ladder(ops.creation_letter(space, E), 3)
    J = ops.modular_ops(space).J
    for sig in ops.Window(space, space.depth).blocks:
        for A in (*rungs[2:], J):
            A.targets(sig)
    for A in (*rungs[2:], J):
        assert A._cache == {} and A._index_cache == {}
        assert A._targets_cache


# -- the whole-window solvers, as they were before targets ---------------


def _whole_window_frame_matrix(A, images, cols, rows, chol):
    col_off, ncol = ops._offsets(A.space, cols)
    row_off, nrow = ops._offsets(A.space, rows)
    dense = np.zeros((nrow, ncol))
    for src in cols:
        for tgt, M in images[src]:
            if not isinstance(M, np.ndarray):
                M = ops._index_matrix(A.space, (tgt, *M))
            Mo = ops._orthonormal_block(M, chol(src), chol(tgt))
            r0, c0 = row_off[tgt], col_off[src]
            dense[r0 : r0 + Mo.shape[0], c0 : c0 + Mo.shape[1]] += Mo
    return dense


def _whole_window_pencil_norm(space, images):
    groups = ops._components(
        [src for src, row in images.items() if row],
        [(src, ("to", tgt)) for src, row in images.items() for tgt, _ in row])
    top = 0.0
    for srcs in groups:
        offset, width = ops._offsets(space, srcs)
        by_tgt = {}
        for src in srcs:
            for tgt, M in images[src]:
                by_tgt.setdefault(tgt, []).append((src, M))
        K = None
        filled = set()
        for tgt, row in by_tgt.items():
            dense = isinstance(row[0][1], np.ndarray)
            G = space.unit_gram(tgt) if dense else None
            u = space.u_factor(tgt)
            for a, (sj, Mj) in enumerate(row):
                GMj = G @ Mj if dense else None
                for si, Mi in row[a:]:
                    scale = u / math.sqrt(space.u_factor(si)) \
                        / math.sqrt(space.u_factor(sj))
                    if dense:
                        P = Mi.T @ GMj
                        P *= scale
                    else:
                        P = space.unit_gram_gather(tgt, Mi[0], Mj[0])
                        P *= scale * Mi[1] * Mj[1]
                    if K is None and len(srcs) == 1 and not dense:
                        P += 0.0
                        K = P.T
                    else:
                        if K is None:
                            K = np.zeros((width, width), order="F")
                        r0, c0 = offset[si], offset[sj]
                        K[r0 : r0 + P.shape[0], c0 : c0 + P.shape[1]] += P
                    filled.add((si, sj))
        factor = functools.cache(
            lambda s: _lower_factor(space.unit_chol(s)))
        for si, sj in filled:
            rs, cs = (slice(offset[s], offset[s] + len(space.word_array(s)))
                      for s in (si, sj))
            if si == sj:
                K[rs, rs] = _sygst_lower(K[rs, rs], space.unit_chol(si).T)
                continue
            X = _solve_triangular(factor(si), K[rs, cs], lower=True,
                                  check_finite=False)
            K[rs, cs] = _solve_triangular(factor(sj), X.T, lower=True,
                                          check_finite=False).T
        top = max(top, _eigvalsh_in_place(K)[-1])
    return math.sqrt(top)


def _whole_window_op_norm(A, src_level_max=None):
    space = A.space
    if src_level_max is None:
        src_level_max = max(space.depth - max(A.peak, 0), 0)
    window = ops.Window(space, src_level_max)
    images = {src: ops._images(A, src) for src in window.blocks}
    tgts = dict.fromkeys(tgt for row in images.values() for tgt, _ in row)
    if max(ops._offsets(space, tgts)[1], window.width) <= ops.NORM_DENSE_LIMIT:
        dense = _whole_window_frame_matrix(
            A, images, window.blocks, tgts, functools.cache(space.gram_chol))
        return float(np.linalg.norm(dense, 2))
    return _whole_window_pencil_norm(space, images)


def _whole_window_min_singular(A, src_level_max=None):
    space = A.space
    if src_level_max is None:
        src_level_max = space.depth
    images = {sig: ops._images(A, sig)
              for sig in ops.Window(space, src_level_max).blocks}
    chol = functools.cache(space.gram_chol)
    groups = ops._components(images, [(sig, tgt) for sig, row in images.items()
                                      for tgt, _ in row])
    smallest = np.inf
    for sigs in groups:
        rows = sorted({tgt for sig in sigs for tgt, _ in images[sig]}
                      | set(sigs))
        dense = _whole_window_frame_matrix(A, images, sigs, rows, chol)
        s = np.linalg.svd(dense, compute_uv=False)
        smallest = min(smallest, float(s.min()) if s.size else 0.0)
    return float(smallest)


def _whole_window_adjoint_vacuum(space, A, level_max):
    vac_sig = (0,) * space.n_letters
    terms = {}
    for sig, tgt, M in ops.Window(space, level_max).images(A):
        if tgt != vac_sig:
            continue
        row = np.asarray(M)[0, :]
        if not np.any(row):
            continue
        x = np.linalg.solve(space.gram(sig), np.conj(row))
        words = space.block_words(sig)
        for i in np.nonzero(x)[0]:
            terms[words[i]] = terms.get(words[i], 0.0) + x[i]
    return FockVector(terms)


@pytest.mark.parametrize("q", [-0.5, 0.3])
def test_streamed_norms_equal_the_whole_window_versions(q, shared_space):
    # depth 12 takes the pencil for the full windows, and the dense path
    # for the capped ones and at depth 8
    for depth in (8, 12):
        space = shared_space(q, 0.4, depth)
        ce = ops.creation_letter(space, E)
        cases = [(ops.wen_operator(space, n), None) for n in (1, 2, 3)] + [
            (ops.wick_balanced(space, n), None) for n in (1, 2)] + [
            (ce.power(n), None) for n in (1, 3, 6)] + [
            (ce.power(2), 5), (ops.wen_operator(space, 1), 4)]
        if depth == 8:
            # 2.4 s a call at depth 12; the series is min_singular's input
            cases.append((limits.s_infinity(space).op, depth - 2))
        for A, level_max in cases:
            assert ops.op_norm(A, level_max) \
                == _whole_window_op_norm(A, level_max)
        series = limits.s_infinity(space)
        for window in (depth - 2, depth // 2):
            assert ops.min_singular(series.op, window) \
                == _whole_window_min_singular(series.op, window)
        A = ops.wen_operator(space, 1)
        assert ops.min_singular(A, 5) == _whole_window_min_singular(A, 5)


def test_adjoint_vacuum_equals_the_whole_window_version(shared_space):
    for q in (-0.5, 0.3):
        space = shared_space(q, 0.4, 12)
        A = limits.s_infinity(space).op
        got = limits.adjoint_vacuum(space, A, 12)
        want = _whole_window_adjoint_vacuum(space, A, 12)
        assert got.terms == want.terms


def _count_actions(A, monkeypatch) -> dict:
    """{sig: calls} of A.action from now on."""
    calls = {}
    action = A.action

    def counted(sig):
        calls[tuple(sig)] = calls.get(tuple(sig), 0) + 1
        return action(sig)

    monkeypatch.setattr(A, "action", counted)
    return calls


@pytest.mark.parametrize("depth", [8, 12])
def test_each_source_is_evaluated_once(shared_space, monkeypatch, depth):
    # depth 8 takes op_norm's dense path, depth 12 its pencil; a source
    # with targets is evaluated once per call, one without none or once
    space = shared_space(0.3, 0.4, depth)
    for solve, A, level_max in [
            (ops.op_norm, ops.wen_operator(space, 1), depth - 1),
            (ops.op_norm, ops.wick_balanced(space, 1), depth - 2),
            (ops.min_singular, limits.s_infinity(space).op, depth - 2)]:
        with monkeypatch.context() as mp:
            calls = _count_actions(A, mp)
            solve(A, level_max)
        blocks = ops.Window(space, level_max).blocks
        assert set(calls) <= set(blocks)
        assert all(n == 1 for n in calls.values())
        assert {sig for sig in blocks if A.targets(sig)} <= set(calls)


def test_adjoint_vacuum_evaluates_only_balanced_blocks(shared_space,
                                                       monkeypatch):
    # at depth 12 the series has 6 terms: the 7 blocks (k, k), k <= 6,
    # of the 91 blocks of levels <= 12 reach the vacuum
    space = shared_space(0.3, 0.4, 12)
    A = limits.s_infinity(space).op
    calls = _count_actions(A, monkeypatch)
    limits.adjoint_vacuum(space, A, 12)
    assert calls == {(k, k): 1 for k in range(7)}


def test_wen_norm_holds_one_component_at_a_time(shared_space):
    # the first norm of limits/boundedness-wen, on a warm space.  The
    # whole-window version held all 144 images of the window (17.6 MiB)
    # before it solved anything and peaked at 32.4 MiB traced; streamed,
    # the largest component (six sources, 4.5 MiB of images) and the
    # 924-word target's unit Gram block set a peak of 19.2 MiB
    space = shared_space(0.3, 0.4, 12)
    want = ops.op_norm(ops.wen_operator(space, 1))
    A = ops.wen_operator(space, 1)
    tracemalloc.start()
    try:
        got = ops.op_norm(A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < 24 * 2**20


@pytest.mark.parametrize("q", [-0.8, 0.0, 0.3, 0.8])
def test_creation_adjoint_gram_reads_levels_up_to_three(q, shared_space):
    # the adjoint's blocks out of levels <= 4 are fed by creation out of
    # levels <= 3 alone, so the narrowed adjoint keeps every bit
    space = shared_space(q, 0.3, 12)
    whole = max(ops.action_gap(ops.q_adjoint(ops.creation_letter(space, ell)),
                               ops.annihilation_letter(space, ell), 4)
                for ell in (E, EBAR))
    assert checks._creation_adjoint_gram(space) == whole
