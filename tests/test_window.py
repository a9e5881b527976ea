"""Bit-identity of the block window and the lazy adjoint against the
eager constructions kept here as oracles: an adjoint that solves every
block of the window up front, the hand-written block offsets and
stacked images of the rank-one compression, and the assemblies of
op_norm and min_singular with their own offset loops, and the dense
blocks that op_norm's assembly of an index operator no longer builds.
op_norm's former route, a seeded ARPACK solve on the sparse
orthonormal-frame matrix, is the oracle of its Gram-pencil path."""

import threading
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sps
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve

from qfock import cli, fock, limits, ops
from qfock.fock import E, EBAR, build_space

DEPTH = 8


@pytest.fixture(scope="module", params=[0.3, -0.5], ids=["pos-q", "neg-q"])
def sp(request):
    return build_space(q=request.param, lam=0.4, depth=DEPTH)


def _window_blocks(space, level_max):
    blocks = []
    offset = 0
    for level in range(level_max + 1):
        for sig in space.blocks_at_level(level):
            dim = len(space.block_words(sig))
            blocks.append((sig, offset, dim))
            offset += dim
    return blocks, offset


def _stacked_images(space, A, blocks, width):
    out = {}
    for sig, offset, dim in blocks:
        for tgt, M in A.action(sig).items():
            tdim = M.shape[0]
            if tgt not in out:
                out[tgt] = np.zeros((tdim, width), dtype=complex)
            out[tgt][:, offset:offset + dim] += M
    return out


def _q_adjoint_oracle(A, src_level_max=None):
    space = A.space
    if src_level_max is None:
        src_level_max = space.depth
    table = {}
    for level in range(src_level_max + 1):
        for sig in space.blocks_at_level(level):
            for tgt, M in A.action(sig).items():
                table[(sig, tgt)] = M
    adj = {}
    for (src, tgt), M in table.items():
        L_src = space.gram_chol(src)
        G_tgt = space.gram(tgt)
        adj.setdefault(tgt, {})[src] = cho_solve((L_src, True),
                                                 M.conj().T @ G_tgt)
    shifts = [sum(t) - sum(s) for (s, t) in table]
    reach = -min(shifts) if shifts else 0
    return adj, reach, max(reach, 0)


def _sparse_norm(mat) -> float:
    """Largest singular value of a sparse matrix by ARPACK: the steps of
    scipy's svds(mat, k=1) with every random draw seeded.

    Left to itself ARPACK takes each vector it draws from fresh OS
    entropy: svds fixes only the start vector, and its eigsh draws a
    fresh vector when a Lanczos run breaks down, as it does on the
    depth-12 creation letter."""
    A = spla.aslinearoperator(mat)
    X, XH = (A, A.H) if mat.shape[0] >= mat.shape[1] else (A.H, A)
    n = min(mat.shape)
    gram = spla.LinearOperator(
        shape=(n, n), dtype=mat.dtype,
        matvec=lambda x: XH.matvec(X.matvec(x)))
    v0 = np.random.default_rng(0).uniform(size=n)
    _, vec = spla.eigsh(gram, k=1, v0=v0, rng=0)
    vec, _ = np.linalg.qr(vec)
    s = scipy.linalg.svd(X.matmat(vec), compute_uv=False, overwrite_a=True)
    return float(s.max())


def _op_norm_oracle(A, src_level_max=None):
    """op_norm with its own offset loops and every entry of each
    orthonormal block stored: the dense 2-norm up to NORM_DENSE_LIMIT,
    the seeded ARPACK solve above it; (norm, matrix)."""
    space = A.space
    if src_level_max is None:
        src_level_max = max(space.depth - max(A.peak, 0), 0)
    src_offset, tgt_offset = {}, {}
    src_dim = tgt_dim = 0
    for level in range(src_level_max + 1):
        for sig in space.blocks_at_level(level):
            src_offset[sig] = src_dim
            src_dim += len(space.block_words(sig))
    pairs = []
    for sig in src_offset:
        for tgt, M in A.action(sig).items():
            if tgt not in tgt_offset:
                tgt_offset[tgt] = tgt_dim
                tgt_dim += len(space.block_words(tgt))
            pairs.append((sig, tgt, M))
    rows, cols, vals = [], [], []
    for sig, tgt, M in pairs:
        Mo = ops._orthonormal_block(M, space.gram_chol(sig),
                                    space.gram_chol(tgt))
        rr, cc = np.nonzero(np.ones_like(Mo, dtype=bool))
        rows.append(rr + tgt_offset[tgt])
        cols.append(cc + src_offset[sig])
        vals.append(Mo.ravel())
    mat = sps.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(tgt_dim, src_dim))
    if max(mat.shape) <= ops.NORM_DENSE_LIMIT:
        return float(np.linalg.norm(mat.toarray(), 2)), mat
    return _sparse_norm(mat), mat


def _cond(A, src_level_max):
    """The worst Gram condition estimate over the window's source blocks
    and their targets."""
    space = A.space
    sigs = {sig for src in ops.Window(space, src_level_max).blocks
            for sig in (src, *A.action(src))}
    return max(space.gram_cond(sig) for sig in sigs)


def _assemble_oracle(A, src_level_max):
    """op_norm's assembly through dense blocks: every block from
    A.action, rewritten by _orthonormal_block, its nonzero entries
    stacked, target rows in the order the targets are first seen."""
    space = A.space
    window = ops.Window(space, src_level_max)
    images = list(window.images(A))
    tgt_offset = {}
    tgt_dim = 0
    rows, cols, vals = [], [], []
    for src, tgt, M in images:
        if tgt not in tgt_offset:
            tgt_offset[tgt] = tgt_dim
            tgt_dim += M.shape[0]
        Mo = ops._orthonormal_block(M, space.gram_chol(src),
                                    space.gram_chol(tgt))
        rr, cc = np.nonzero(Mo)
        rows.append(rr + tgt_offset[tgt])
        cols.append(cc + window.offset[src])
        vals.append(Mo[rr, cc])
    if not images:
        return sps.csr_matrix((1, window.width))
    return sps.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(tgt_dim, window.width))


def _min_singular_oracle(A, src_level_max):
    space = A.space
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    actions = {}
    for level in range(src_level_max + 1):
        for sig in space.blocks_at_level(level):
            act = A.action(sig)
            actions[sig] = act
            find(sig)
            for tgt in act:
                ra, rb = find(sig), find(tgt)
                if ra != rb:
                    parent[ra] = rb
    groups = {}
    for sig in actions:
        groups.setdefault(find(sig), []).append(sig)
    smallest = np.inf
    for sigs in groups.values():
        tgts = set()
        for sig in sigs:
            tgts.update(actions[sig].keys())
        col_off, ncol = {}, 0
        for sig in sigs:
            col_off[sig] = ncol
            ncol += len(space.block_words(sig))
        row_off, nrow = {}, 0
        for t in sorted(tgts | set(sigs)):
            row_off[t] = nrow
            nrow += len(space.block_words(t))
        dense = np.zeros((nrow, ncol))
        for sig in sigs:
            for tgt, M in actions[sig].items():
                Mo = ops._orthonormal_block(M, space.gram_chol(sig),
                                            space.gram_chol(tgt))
                r0, c0 = row_off[tgt], col_off[sig]
                dense[r0:r0 + Mo.shape[0], c0:c0 + Mo.shape[1]] += Mo
        s = np.linalg.svd(dense, compute_uv=False)
        smallest = min(smallest, float(s.min()) if s.size else 0.0)
    return float(smallest)


@pytest.mark.parametrize("level_max", [0, 3, DEPTH])
def test_window_offsets_match_oracle(sp, level_max):
    window = ops.Window(sp, level_max)
    blocks, width = _window_blocks(sp, level_max)
    assert window.width == width
    assert list(window.offset.items()) == [(sig, off) for sig, off, _ in blocks]
    assert window.blocks == [sig for sig, _, _ in blocks]


def test_stacked_images_match_oracle(sp):
    # the rank-one compression stacks one target at a time, from the
    # window's images grouped by target, into the leading rows of one
    # buffer that every target overwrites
    A = ops.wick_balanced(sp, 1)
    window = ops.Window(sp, 4)
    stale = np.full((max(len(sp.word_array(t)) for t in sp.blocks_at_level(6)),
                     window.width), np.nan, dtype=complex)
    got = {tgt: limits._stacked_target(window, row, stale).copy()
           for tgt, row in window.by_target(A).items()}
    want = _stacked_images(sp, A, *_window_blocks(sp, 4))
    assert list(got) == list(want)
    for t in want:
        assert (got[t].dtype, got[t].shape) == (want[t].dtype, want[t].shape)
        assert got[t].tobytes() == want[t].tobytes()


@pytest.mark.parametrize("kept, make", [
    (True, ops.identity),
    (True, lambda s: ops.modular_delta(s, 0.5)),
    (True, lambda s: ops.creation_letter(s, E)),
    (True, ops.flip_unitary),
    (True, lambda s: ops.modular_ops(s).S),
    (True, lambda s: ops.right_creation_letter(s, E)),
    (True, lambda s: ops.right_annihilation_letter(s, EBAR)),
    (True, lambda s: ops.modular_ops(s).J),
    (True, lambda s: ops.q_adjoint(ops.creation_letter(s, E), 3)),
    (True, lambda s: ops.power_ladder(ops.annihilation_letter(s, E), 3)[2]),
    (True, lambda s: ops.power_ladder(ops.creation_letter(s, E), 3)[3]),
    (False, lambda s: ops.creation_letter(s, E) @ ops.creation_letter(s, E)),
    (False, lambda s: ops.field(s, E)),
    (False, lambda s: 2.0 * ops.creation_letter(s, E)),
    (False, lambda s: ops.annihilation_letter(s, E)),
    (False, ops.zero),
    (False, lambda s: limits.s_infinity(s).op),
], ids=["identity", "delta", "ce", "flip", "S", "right-c", "right-a", "J",
        "adjoint", "rung-a2", "rung-c3", "product", "sum", "multiple",
        "ae", "zero", "s_infinity"])
def test_memoized_is_the_one_cache(sp, kept, make):
    # the builders that keep results return memoized operators, whose
    # three caches are dicts; every other operator keeps none of them
    A = make(sp)
    caches = (A._cache, A._index_cache, A._targets_cache)
    if kept:
        assert caches == ({}, {}, {})
        A.action((1, 1))
        assert (1, 1) in A._cache
    else:
        assert caches == (None, None, None)


def test_window_streams_its_images(sp):
    # images are yielded one source at a time, and the series operator,
    # whose readers take each block once, caches none of its blocks
    A = ops.creation_letter(sp, E)
    window = ops.Window(sp, 3)
    images = window.images(A)
    assert iter(images) is images
    assert [(src, tgt) for src, tgt, _ in images] \
        == [(src, tgt) for src in window.blocks for tgt in A.action(src)]
    assert limits.s_infinity(sp).op._cache is None


def test_rank_one_holds_no_whole_window_stack(cold_gram_caches):
    # the images of both Wick operators stacked over the whole window
    # take 31.9 MiB here; holding them whole peaked at 45.0 MiB, and
    # stacking one target at a time at 14.3 MiB
    space = build_space(q=0.3, lam=0.3, depth=10)
    for level in range(space.depth + 1):
        for sig in space.blocks_at_level(level):
            space.unit_chol(sig)
    tracemalloc.start()
    try:
        limits.rank_one_diagnostics(space, n_list=[1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    blocks, width = _window_blocks(space, min(space.depth - 2,
                                              limits.WINDOW_CAP))
    stacks = sum(M.nbytes for A in (ops.wick_right_balanced(space, 1),
                                    ops.wick_balanced(space, 1))
                 for M in _stacked_images(space, A, blocks, width).values())
    assert peak < stacks


@pytest.mark.parametrize("make", [
    lambda s: ops.creation_letter(s, E),
    lambda s: ops.annihilation_letter(s, EBAR),
    lambda s: ops.wen_operator(s, 2),
], ids=["creation", "annihilation", "wen2"])
def test_lazy_adjoint_matches_eager_oracle(sp, make):
    A = make(sp)
    adj = ops.q_adjoint(A)
    want, reach, peak = _q_adjoint_oracle(A)
    assert (adj.reach, adj.peak) == (reach, peak)
    for sig in ops.Window(sp, DEPTH).blocks:
        got = adj.action(sig)
        expected = want.get(sig, {})
        assert list(got) == list(expected)
        assert all(np.array_equal(got[s], expected[s]) for s in expected)


def test_min_singular_matches_oracle(sp):
    series = limits.s_infinity(sp)
    window = DEPTH - 2
    assert ops.min_singular(series.op, src_level_max=window) \
        == _min_singular_oracle(series.op, window)
    eye = ops.identity(sp)
    assert ops.min_singular(eye) == _min_singular_oracle(eye, DEPTH)


# the pencil path's agreement with the ARPACK oracle and with closed
# forms, in units of the worst Gram condition times machine epsilon
COND_EPS_FACTOR = 4


def _dense_assembly(A, level_max):
    window = ops.Window(A.space, level_max)
    tgts = dict.fromkeys(tgt for src in window.blocks
                         for tgt in A.targets(src))
    return ops._frame_matrix(A, window.blocks, tgts)


def test_op_norm_of_creation_powers_matches_oracle(sp, shared_space):
    # depth 8 stays on the dense path, equal to the oracle bit for bit;
    # the depth-12 inputs take the Gram pencil: ce^6 on window 6 at
    # q = 0 (4096 x 127, a flat spectrum), also scaled by -2.0, which
    # the pencil's gather carries as s_i s_j, the full-window letter
    # (8178 x 4095), and two words whose target rows mix several source
    # blocks.  Closed forms: at q = 0 the letter is lam^(-1/4) times an
    # isometry, and at q < 0 its norm lam^(-1/4) is taken on the vacuum
    sp12 = shared_space(sp.q, sp.lam, 12)
    flat = shared_space(0.0, sp.lam, 12)
    ce = ops.creation_letter(sp, E)
    cases = [(ce.power(n), None, None) for n in range(1, 5)] + [
        (ops.creation_letter(flat, E).power(6), 6, sp.lam ** -1.5),
        (-2.0 * ops.creation_letter(flat, E).power(6), 6,
         2.0 * sp.lam ** -1.5),
        (ops.creation_letter(sp12, E), None,
         sp.lam ** -0.25 if sp.q < 0 else None),
        (ops.wen_operator(sp12, 3), None, None),
        (ops.wick_balanced(sp12, 2), None, None),
    ]
    eps = np.finfo(float).eps
    for A, level_max, exact in cases:
        window = A.space.depth - A.peak if level_max is None else level_max
        norm, want = _op_norm_oracle(A, level_max)
        large = max(want.shape) > ops.NORM_DENSE_LIMIT
        assert large == (A.space.depth == 12)
        got = ops.op_norm(A, level_max)
        if not large:
            assert got == norm
            assert _dense_assembly(A, window).tobytes() \
                == want.toarray().tobytes()
            continue
        bound = COND_EPS_FACTOR * _cond(A, window) * eps
        assert abs(got - norm) <= bound * norm
        if exact is not None:
            assert abs(got - exact) <= bound * exact


@pytest.mark.parametrize("make", [
    lambda s: ops.creation_letter(s, E),
    lambda s: ops.creation_letter(s, EBAR),
    lambda s: ops.creation_letter(s, E).power(3),
    lambda s: ops.flip_unitary(s),
    lambda s: 0.0 * ops.creation_letter(s, E),
    lambda s: -1.0 * ops.creation_letter(s, E),
], ids=["ce", "cEbar", "ce^3", "flip", "zero-ce", "minus-ce"])
def test_index_assembly_matches_dense_oracle(sp, shared_space, make):
    A = make(shared_space(sp.q, sp.lam, 10))
    window = A.space.depth - A.peak
    got = _dense_assembly(A, window)
    want = _assemble_oracle(A, window).toarray()
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_index_blocks_keep_their_solve_columns(shared_space):
    # the flip's level-11 blocks at depth 12 (up to 462 words): an index
    # image is written out from its map, never read through action(),
    # and solved as the block that action() gives, byte for byte.  (A
    # solve of s I on the source columns alone moved bits of block
    # (5, 6): OpenBLAS runs the last columns of a right-hand side, width
    # mod its unroll, in another kernel.)
    # The frame matrix adds each block into zeros, so the block that
    # action() gives is compared after "+ 0.0".
    space = shared_space(-0.5, 0.4, 12)
    for A in (ops.flip_unitary(space), ops.modular_ops(space).J):
        for sig in space.blocks_at_level(11):
            tgts = A.targets(sig)
            got = ops._frame_matrix(A, [sig], tgts)
            assert not A._cache
            want = [(tgt, ops._orthonormal_block(M, space.gram_chol(sig),
                                                 space.gram_chol(tgt)) + 0.0)
                    for tgt, M in A.action(sig).items()]
            assert list(tgts) == [t for t, _ in want]
            row, _ = ops._offsets(space, tgts)
            assert all(got[row[t]:row[t] + len(w)].tobytes() == w.tobytes()
                       for t, w in want), sig
            A._cache.clear()


def test_min_singular_factors_each_source_once(shared_space, monkeypatch):
    # one gram_chol call per distinct block that is a source with an
    # image or a target: the 28 sources of levels <= 6 and the 7 level-7
    # targets of their creation images (77 calls at one call per source
    # and per image, 98 at one source factor per image)
    space = shared_space(0.3, 0.4, 8)
    A = ops.field(space, E)
    images = {sig: ops._images(A, sig) for sig in ops.Window(space, 6).blocks}
    blocks = {sig for sig, row in images.items() if row} \
        | {tgt for row in images.values() for tgt, _ in row}
    calls = []
    factor = space.gram_chol
    monkeypatch.setattr(space, "gram_chol",
                        lambda sig: calls.append(sig) or factor(sig))
    ops.min_singular(A, 6)
    assert sorted(calls) == sorted(blocks)
    assert len(calls) == 35


def _count_factors(space, monkeypatch) -> list:
    """The blocks of the space's gram_chol calls from now on, in order."""
    calls = []
    factor = space.gram_chol
    monkeypatch.setattr(space, "gram_chol",
                        lambda sig: calls.append(sig) or factor(sig))
    return calls


def test_frame_matrix_factors_each_block_once(shared_space, monkeypatch):
    # the field's window of levels <= 6 at depth 8: every source has an
    # image, so each block of rows and cols is asked once; a level-0
    # annihilation has no image, so the vacuum is asked only as a target
    space = shared_space(0.3, 0.4, 8)
    for A in (ops.field(space, E), ops.annihilation_letter(space, E)):
        cols = ops.Window(space, 6).blocks
        rows = dict.fromkeys(t for src in cols for t in A.targets(src))
        calls = _count_factors(space, monkeypatch)
        ops._frame_matrix(A, cols, rows)
        needed = {s for s in cols if A.targets(s)} | set(rows)
        assert sorted(calls) == sorted(needed)
        monkeypatch.undo()
    assert (0, 0) in rows and not A.targets((0, 0))


def test_adjoint_factors_each_source_once(shared_space, monkeypatch):
    # every target block asked: the 28 sources of levels <= 6 are each
    # the source of two targets (49 calls at one factor per image)
    space = shared_space(0.3, 0.4, 8)
    A = ops.field(space, E)
    images = {sig: ops._images(A, sig) for sig in ops.Window(space, 6).blocks}
    sources = {sig for sig, row in images.items() if row}
    calls = _count_factors(space, monkeypatch)
    adj = ops.q_adjoint(A, 6)
    for tgt in {tgt for row in images.values() for tgt, _ in row}:
        adj.action(tgt)
    assert sorted(calls) == sorted(sources)
    assert len(calls) == 28


def test_rank_one_factors_each_window_block_once(shared_space, monkeypatch):
    # the frame loops of n = 1..4 and the distinguished vector's blocks
    # share one factor per block of the largest window, levels <= 8
    space = shared_space(0.3, 0.3, 10)
    calls = _count_factors(space, monkeypatch)
    limits.rank_one_diagnostics(space)
    assert sorted(calls) == sorted(ops.Window(space, 8).blocks)
    assert len(calls) == 45


def test_norms_of_index_operators_build_no_blocks(shared_space):
    # depth 10 takes the dense path, the full-window depth-12 letter
    # (8178 x 4095) the Gram pencil
    for depth in (10, 12):
        ce = ops.creation_letter(shared_space(-0.5, 0.4, depth), E)
        ops.op_norm(ce)
        assert ce._cache == {} and ce._index_cache
    eye = ops.identity(shared_space(-0.5, 0.4, 10))
    ops.min_singular(eye, 6)
    assert eye._cache == {}


def test_large_path_repeats_its_value(shared_space):
    # the pencil takes no random draw: ARPACK drew a fresh vector where
    # its Lanczos run broke down, on this very letter
    A = ops.creation_letter(shared_space(-0.5, 0.4, 12), E)
    assert ops.Window(A.space, 11).width > ops.NORM_DENSE_LIMIT
    assert len({ops.op_norm(A) for _ in range(4)}) == 1


@pytest.mark.parametrize("q, want", [(-0.5, "0x1.41e7284162a54p+0"),
                                     (0.3, "0x1.80bf5da407391p+0")])
def test_pencil_reduces_in_place(shared_space, q, want):
    # each source of the depth-12 letter is its own component, the
    # largest of 462 words: its gathered product is K, which dsygst
    # reduces against the transposed packed array and dsyevd solves,
    # neither copying K or the factor.  The pencil then holds at most
    # 1.2 K-sized arrays (4.08 when K was C-ordered, 2.42 with a zeroed
    # K, a Fortran copy of the factor and eigvalsh's copy of K, 1.39
    # while the gather's mirror copied each diagonal tile); the values
    # are the ones measured before these changes
    space = shared_space(q, 0.4, 12)
    for level in range(13):
        for sig in space.blocks_at_level(level):
            space.unit_chol(sig)
    A = ops.creation_letter(space, E)
    tracemalloc.start()
    try:
        got = ops.op_norm(A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.hex() == want
    assert peak <= 1.2 * 462 * 462 * 8


@pytest.mark.parametrize("q", [-0.5, 0.3, 0.8])
def test_in_place_eigensolver_matches_eigvalsh(shared_space, q, monkeypatch):
    # on every reduced pencil of the depth-12 letter, numpy's dsyevd run
    # in K gives eigvalsh's eigenvalues, byte for byte
    if fock._numpy_lapack("dsyevd") is None:
        pytest.skip("numpy's LAPACK exports no ILP64 dsyevd")
    pencils = []
    solve = ops._eigvalsh_in_place

    def record(K):
        pencils.append(K.copy(order="F"))
        return solve(K)

    monkeypatch.setattr(ops, "_eigvalsh_in_place", record)
    A = ops.creation_letter(shared_space(q, 0.4, 12), E)
    ops.op_norm(A)
    assert len(pencils) == len(ops.Window(A.space, 11).blocks) == 78
    assert max(len(K) for K in pencils) == 462
    for K in pencils:
        want = np.linalg.eigvalsh(K)
        assert solve(K).tobytes() == want.tobytes()


def test_in_place_eigensolver_takes_only_fortran_arrays():
    # dsyevd reads K's memory in Fortran order: a C-ordered K would be
    # read transposed, its upper triangle taken for the lower one
    for K in (np.eye(3), np.eye(3, dtype=np.float32, order="F"),
              np.ones((2, 3), order="F")):
        with pytest.raises(ValueError, match="Fortran-ordered"):
            ops._eigvalsh_in_place(K)


def test_eigensolver_falls_back_to_eigvalsh(shared_space, monkeypatch):
    # without numpy's dsyevd the pencil calls eigvalsh, one call per
    # component, and the norm keeps its bits
    A = ops.creation_letter(shared_space(-0.5, 0.4, 12), E)
    monkeypatch.setattr(fock, "_numpy_lapack", lambda name: None)
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda K: calls.append(len(K)) or eigvalsh(K))
    assert ops.op_norm(A).hex() == "0x1.41e7284162a54p+0"
    assert len(calls) == 78


def _solver_threads(monkeypatch, thread_min=1) -> list:
    """Send op_norm to the Gram pencil at any size and let _pencil_norm
    thread components at least thread_min columns wide, with two usable
    CPUs whatever the host has.  Returns the list that collects the name
    of the thread each component is solved on.  Each solve must leave
    its job empty: the pool's work item keeps the job until after the
    caller hears of the result, so a K left in it would outlive its
    solve."""
    if fock._blas_threads() != 1:
        pytest.skip("BLAS runs more than one thread a call")
    monkeypatch.setattr(ops, "NORM_DENSE_LIMIT", 0)
    monkeypatch.setattr(ops, "_THREAD_MIN", thread_min)
    monkeypatch.setattr(ops, "_usable_cpus", lambda: 2)
    names = []
    top = ops._pencil_top

    def recorded(job):
        names.append(threading.current_thread().name)
        out = top(job)
        assert job == []
        return out

    monkeypatch.setattr(ops, "_pencil_top", recorded)
    return names


def _pencil_threads() -> list:
    return [t for t in threading.enumerate()
            if t.name.startswith("qfock-pencil")]


THREADED_OPERATORS = [
    lambda s: ops.creation_letter(s, E),
    lambda s: ops.creation_letter(s, E).power(3),
    lambda s: ops.wen_operator(s, 2),
    lambda s: ops.wick_balanced(s, 2),
]


@pytest.mark.parametrize("q", [-0.5, 0.3, 0.8])
def test_threaded_pencil_matches_serial(shared_space, q, monkeypatch):
    # the same LAPACK calls on the same operands, one BLAS thread each,
    # folded by max in component order: the same bits from two threads.
    # wen and the balanced Wick word have many-source components, so
    # off-diagonal solves run on the workers too
    space = shared_space(q, 0.4, 10)
    names = _solver_threads(monkeypatch, thread_min=10 ** 9)
    serial = [ops.op_norm(make(space)) for make in THREADED_OPERATORS]
    assert set(names) == {threading.current_thread().name}
    names.clear()
    monkeypatch.setattr(ops, "_THREAD_MIN", 1)
    threaded = [ops.op_norm(make(space)) for make in THREADED_OPERATORS]
    assert threaded == serial
    assert {name.rsplit("_", 1)[0] for name in names} == {"qfock-pencil"}
    assert not _pencil_threads()


@pytest.mark.parametrize("make", THREADED_OPERATORS[::2])
def test_threaded_pencil_builds_each_component_once(shared_space, make,
                                                    monkeypatch):
    # the calling thread builds every K, one per component, and only
    # while at most one other K is alive; each K is solved once
    A = make(shared_space(0.3, 0.4, 10))
    _solver_threads(monkeypatch)
    caller = threading.get_ident()
    built, alive, solved = [], [], []
    build, solve = ops._pencil_matrix, ops._eigvalsh_in_place

    def counted_build(A, srcs):
        assert threading.get_ident() == caller
        out = build(A, srcs)
        built.append((tuple(srcs), weakref.ref(out[0])))
        alive.append(sum(ref() is not None for _, ref in built))
        return out

    def counted_solve(K):
        solved.append(len(K))
        return solve(K)

    monkeypatch.setattr(ops, "_pencil_matrix", counted_build)
    monkeypatch.setattr(ops, "_eigvalsh_in_place", counted_solve)
    ops.op_norm(A)
    window = ops.Window(A.space, A.space.depth - A.peak)
    sources = [src for src in window.blocks if A.targets(src)]
    assert sorted(src for srcs, _ in built for src in srcs) == sorted(sources)
    assert len(built) == len(solved) > 2
    assert sorted(solved) == sorted(ops._offsets(A.space, srcs)[1]
                                    for srcs, _ in built)
    assert max(alive) <= 2


def test_worker_error_comes_out_of_op_norm(shared_space, monkeypatch):
    # the widest component fails on its worker: op_norm raises it once
    # the other worker is done, and no solver thread is left behind
    A = ops.creation_letter(shared_space(0.3, 0.4, 10), E)
    names = _solver_threads(monkeypatch)
    widest = max(len(A.space.word_array(src))
                 for src in ops.Window(A.space, 9).blocks)
    solve = ops._eigvalsh_in_place

    def failing(K):
        if len(K) == widest:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return solve(K)

    monkeypatch.setattr(ops, "_eigvalsh_in_place", failing)
    with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        ops.op_norm(A)
    assert names and all(name.startswith("qfock-pencil") for name in names)
    assert not _pencil_threads()


def test_no_solver_thread_below_the_floor(shared_space, monkeypatch):
    # the depth-12 letter takes the pencil, its widest component 462
    # words; a low floor starts no thread either with one usable CPU or
    # with BLAS threads of its own
    def refuse(*args, **kwargs):
        raise AssertionError("a solver thread started")

    monkeypatch.setattr(ops, "ThreadPoolExecutor", refuse)
    A = ops.creation_letter(shared_space(-0.5, 0.4, 12), E)
    assert ops.op_norm(A).hex() == "0x1.41e7284162a54p+0"
    monkeypatch.setattr(ops, "_THREAD_MIN", 1)
    with monkeypatch.context() as m:
        m.setattr(ops.os, "sched_getaffinity", lambda pid: {0},
                  raising=False)
        assert ops._usable_cpus() == 1
        assert ops.op_norm(A).hex() == "0x1.41e7284162a54p+0"
    monkeypatch.setattr(ops, "_blas_threads", lambda: 2)
    assert ops.op_norm(A).hex() == "0x1.41e7284162a54p+0"


def test_verify_forks_after_threaded_norm(shared_space, monkeypatch,
                                          tmp_path):
    # the pool lives inside op_norm, so --jobs forks a process with no
    # solver thread in it
    names = _solver_threads(monkeypatch)
    ops.op_norm(ops.creation_letter(shared_space(0.3, 0.4, 10), E))
    assert any(name.startswith("qfock-pencil") for name in names)
    monkeypatch.undo()
    assert cli.main(["verify", "--depth", "6", "--jobs", "2",
                     "--out", str(tmp_path)]) == 0


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(q=st.floats(-0.9, 0.9), lam=st.floats(0.05, 0.95),
       word=st.lists(st.sampled_from([E, EBAR]), min_size=1, max_size=4))
def test_op_norm_of_wick_words_matches_oracle_property(q, lam, word):
    A = ops.wick(build_space(q=q, lam=lam, depth=DEPTH), tuple(word))
    assert ops.op_norm(A) == _op_norm_oracle(A)[0]


def test_frame_and_adjoint_solves_refuse_non_finite_input(sp):
    # _orthonormal_block's and the adjoint's solves check their input
    # finite, as scipy's solve_triangular and cho_solve did by default
    L = sp.gram_chol((1, 1))
    M = np.ones((len(L), len(L)))
    M[1, 0] = np.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        ops._orthonormal_block(M, L, L)
    with pytest.raises(ValueError, match="infs or NaNs"):
        ops.q_adjoint(np.nan * ops.creation_letter(sp, E)).action((1, 0))


def test_adjoint_solves_only_requested_blocks(cold_gram_caches):
    sp = build_space(q=0.3, lam=0.4, depth=10)
    ce = ops.creation_letter(sp, E)
    ae = ops.annihilation_letter(sp, E)
    assert ops.action_gap(ops.q_adjoint(ce), ae, 4) < 1e-12
    assert sp._unit.cond
    assert max(sum(sig) for sig in sp._unit.cond) <= 4
