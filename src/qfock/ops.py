"""Operators on the truncated deformed Fock space as lazy block maps.

An operator is a rule sending each source multiset block to a few target
blocks with dense coefficient matrices in word coordinates.  Compositions
and sums stay lazy, so models with wide alphabets only ever materialize
the blocks an application actually touches.

Truncation bookkeeping: each operator carries its net maximal level
raise (``reach``) and the maximal intermediate raise of its evaluation
chain (``peak``).  Applied to sources of level <= depth - peak, the
truncated action coincides with the untruncated operator; identity
checks quantify over exactly those levels.  An operator built from its
blocks (a letter, a word map, a deformed adjoint) declares its reach,
and its peak is max(reach, 0); every other operator takes both from
composition alone, and no builder overwrites them.  Products add
reaches and chain peaks, sums take the larger of each, and scalar
multiples keep both.  Annihilation-first monomials thus have peak
max(reach, 0), while freely composed chains accumulate peak additively.

A word map carries its index map (a target row and a scale per source
column): the Gram pencil gathers Gram entries by it, and an index block
written out from it takes the one frame solve that dense blocks take.

Every operator also lists the target blocks of a source block
(``targets``) without building a block, composed the way its blocks
are.  The solvers read a window's targets first: op_norm and
min_singular group the sources into components by them and evaluate
and drop one component at a time (the dense 2-norm fills its one
matrix one source at a time), so no whole-window set of images is held.
min_singular solves its components one at a time; op_norm's Gram pencil
solves wide ones on two threads, at most two at once, each with the
bits of the one-at-a-time solve (_pencil_norm).  An operator keeps
results only where it is memoized; a frame matrix owns its memo of
Cholesky factors, and a deformed adjoint owns its own.
"""

from __future__ import annotations

import collections
import functools
import math
import os
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from .fock import (FockSpace, FockVector, E, EBAR, _blas_threads,
                   _cho_solve, _eigvalsh_in_place, _lower_factor, _sig_add,
                   _solve_triangular, _sygst_lower)
from .qcomb import q_binomial, wick_coefficients, crossings, ENUMERATION_CAP

__all__ = [
    "Window",
    "FockOperator",
    "identity",
    "zero",
    "memoized",
    "power_ladder",
    "creation_letter",
    "annihilation_letter",
    "right_creation_letter",
    "right_annihilation_letter",
    "flip_unitary",
    "field",
    "wick",
    "wick_right",
    "wick_balanced",
    "wick_right_balanced",
    "wen_operator",
    "modular_ops",
    "modular_delta",
    "q_adjoint",
    "op_norm",
    "min_singular",
    "action_gap",
    "conjugate_letter",
]

# op_norm takes a dense 2-norm up to this matrix size and the Gram
# pencil above it; min_singular refuses components larger than
# SINGULAR_DENSE_LIMIT
NORM_DENSE_LIMIT = 3000
SINGULAR_DENSE_LIMIT = 4000
# the Gram pencil's components are solved on two threads only where two
# of them are at least this many columns wide (_threads_pay); depth <= 12
# blocks hold at most 924 words, so no run there starts a thread
_THREAD_MIN = 1024


def _offsets(space: FockSpace, sigs):
    """Offsets of the given blocks, in the given order, in one stacked
    index, and the total width."""
    offset = {}
    width = 0
    for sig in sigs:
        offset[sig] = width
        width += len(space.word_array(sig))
    return offset, width


def _memo(cache: dict | None, fn, sig):
    """fn(sig), kept in cache under sig; computed afresh where cache is
    None."""
    if cache is None:
        return fn(sig)
    if sig not in cache:
        cache[sig] = fn(sig)
    return cache[sig]


class Window:
    """The source blocks of levels <= level_max in level order, with
    their offsets in one stacked index of the given width; level_max
    is at least 0 and at most the depth (blocks_at_level)."""

    def __init__(self, space: FockSpace, level_max: int):
        if level_max < 0:
            raise ValueError(f"level_max must be >= 0, got {level_max}")
        self.blocks = [sig for level in range(level_max + 1)
                       for sig in space.blocks_at_level(level)]
        self.offset, self.width = _offsets(space, self.blocks)

    def images(self, A: "FockOperator"):
        """The blocks (src, tgt, M) of A's action on the window, sources
        in window order, yielded one source at a time: a caller holds
        only the blocks it keeps."""
        return ((src, tgt, M) for src in self.blocks
                for tgt, M in A.action(src).items())

    def by_target(self, A: "FockOperator") -> dict:
        """{tgt: [(src, M)]}: the images grouped by target, targets in
        the order first seen, sources in window order."""
        out: dict = {}
        for src, tgt, M in self.images(A):
            out.setdefault(tgt, []).append((src, M))
        return out


class FockOperator:
    """Lazy block map on a truncated space.

    action(sig) returns {target_sig: matrix}; matrices are dense numpy
    arrays of shape (len(target block), len(source block)).  Targets
    that would exceed the truncation depth are dropped silently; the
    ``peak`` attribute tells which source levels are unaffected by that.

    Blocks are real.  Antilinear operators store their linear part;
    application conjugates input coefficients first.

    Every operator declares targets_fn(sig): the keys of action(sig) in
    its order, found without building a block.  Letters, word maps, the
    diagonal, zero and the deformed adjoint declare it from their rules;
    products, sums, scalar multiples and memoized compose it the way
    action composes blocks.  The solvers group source blocks by these
    targets before they evaluate any block.

    An index operator also declares index_fn(sig) -> (tgt, rows, scale),
    or None where it drops the block: column j of its block matrix holds
    the one entry scale, in row rows[j] of block tgt, and the rows are
    distinct.  Without an action_fn its blocks are built from that map.
    The builders of word maps, identity and modular_delta declare it;
    memoized, scalar multiples and products of two index operators keep
    it, so products with one side an index operator are gathers.

    An operator keeps no result unless it is memoized (memoized), which
    keeps every result of action(), index() and targets() for as long
    as it lives.  The builders that return memoized operators are the
    word maps (creation letters, flip_unitary, S), the diagonal
    (identity, modular_delta), the right letters, J, q_adjoint and a
    power_ladder's rungs from A^2 on.  Products, sums, scalar multiples
    and zero are bare, and so is annihilation_letter, whose blocks the
    unit cache keeps sparse.  So a left annihilation letter holds no
    block and a left creation letter only its index maps.
    """

    def __init__(self, space: FockSpace, action_fn, targets_fn, reach: int,
                 peak: int | None = None, antilinear: bool = False,
                 index_fn=None):
        self.space = space
        self._action_fn = action_fn
        self._targets_fn = targets_fn
        self._index_fn = index_fn
        self.reach = reach
        self.peak = max(reach, 0) if peak is None else peak
        self.antilinear = antilinear
        # memoized() alone makes these dicts
        self._cache = self._index_cache = self._targets_cache = None

    def action(self, sig) -> dict:
        # an index operator without action_fn builds its blocks from its
        # map; keeping no bound method on self keeps the operator out of
        # a reference cycle, so its caches go when its last user does
        fn = self._index_block if self._action_fn is None else self._action_fn
        return _memo(self._cache, fn, tuple(sig))

    def targets(self, sig) -> tuple:
        """The target blocks of action(sig), in its order; no block is
        built."""
        return _memo(self._targets_cache,
                     lambda s: tuple(self._targets_fn(s)), tuple(sig))

    def index(self, sig):
        """(tgt, rows, scale) of an index operator on block sig, or None
        where it drops the block; None for every other operator."""
        if self._index_fn is None:
            return None
        return _memo(self._index_cache, self._index_fn, tuple(sig))

    def _index_block(self, sig) -> dict:
        """The dense block of an index operator."""
        ix = self.index(sig)
        return {} if ix is None else {ix[0]: _index_matrix(self.space, ix)}

    # -- algebra --------------------------------------------------------

    def __matmul__(self, other: "FockOperator") -> "FockOperator":
        """Lazy product; each block is what the dense Ma @ Mb gives, bit
        for bit.  A product of two index operators is an index operator
        (rows ra[rb], scale sa * sb).  With one index factor the product
        is a gather: the index block has one entry per column, so the
        GEMM adds one rounded s * b to exact zeros from a zeroed result,
        which the gather computes alone; "+= 0.0" turns a -0.0 into the
        +0.0 the GEMM gives, and the result is C-ordered, as later GEMMs
        expect."""
        if self.space is not other.space:
            raise ValueError("operators live on different spaces")

        index_fn = act = None
        if self._index_fn is not None and other._index_fn is not None:
            def index_fn(sig):
                b = other.index(sig)
                a = None if b is None else self.index(b[0])
                if a is None:
                    return None
                return a[0], a[1][b[1]], a[2] * b[2]
        elif other._index_fn is not None:
            def act(sig):
                b = other.index(sig)
                if b is None:
                    return {}
                mid, rows, s = b
                return {tgt: _gather_columns(Ma, rows, s)
                        for tgt, Ma in self.action(mid).items()}
        else:
            def act(sig):
                acc: dict = {}
                for mid, Mb in other.action(sig).items():
                    a = self.index(mid)
                    if a is not None:
                        products = [(a[0], _gather_rows(self.space, a, Mb))]
                    else:
                        products = [(tgt, Ma @ Mb)
                                    for tgt, Ma in self.action(mid).items()]
                    for tgt, prod in products:
                        if tgt in acc:
                            acc[tgt] = acc[tgt] + prod
                        else:
                            acc[tgt] = prod
                return acc

        def targets(sig):
            return dict.fromkeys(tgt for mid in other.targets(sig)
                                 for tgt in self.targets(mid))

        return FockOperator(
            self.space, act, targets,
            reach=self.reach + other.reach,
            peak=max(other.peak, other.reach + self.peak),
            antilinear=self.antilinear != other.antilinear,
            index_fn=index_fn,
        )

    def __add__(self, other: "FockOperator") -> "FockOperator":
        if self.antilinear != other.antilinear:
            raise ValueError("cannot add linear and antilinear operators")

        def act(sig):
            acc = dict(self.action(sig))
            for tgt, M in other.action(sig).items():
                if tgt in acc:
                    acc[tgt] = acc[tgt] + M
                else:
                    acc[tgt] = M
            return acc

        def targets(sig):
            return dict.fromkeys((*self.targets(sig), *other.targets(sig)))

        return FockOperator(
            self.space, act, targets,
            reach=max(self.reach, other.reach),
            peak=max(self.peak, other.peak),
            antilinear=self.antilinear,
        )

    def __sub__(self, other):
        return self + (-1.0) * other

    def __mul__(self, scalar):
        # blocks are real; float() alone would only warn on a numpy
        # complex scalar and drop its imaginary part
        if isinstance(scalar, (complex, np.complexfloating)):
            raise TypeError(f"operator blocks are real, got {scalar!r}")
        s = float(scalar)

        def act(sig):
            return {tgt: s * M for tgt, M in self.action(sig).items()}

        index_fn = None
        if self._index_fn is not None:
            def index_fn(sig):
                ix = self.index(sig)
                return None if ix is None else (ix[0], ix[1], s * ix[2])

        return FockOperator(
            self.space, act, self.targets, reach=self.reach, peak=self.peak,
            antilinear=self.antilinear, index_fn=index_fn,
        )

    __rmul__ = __mul__

    def power(self, k: int) -> "FockOperator":
        if k < 0:
            raise ValueError("power must be >= 0")
        return _chain(self.space, [self] * k)

    # -- application ----------------------------------------------------

    def apply(self, vec: FockVector) -> FockVector:
        out: dict = {}
        for sig, (idx, coef) in vec.by_blocks(self.space).items():
            if self.antilinear:
                coef = np.conj(coef)
            x = np.zeros(len(self.space.word_array(sig)), dtype=coef.dtype)
            x[idx] = coef
            for tgt, M in self.action(sig).items():
                y = M @ x
                nz = np.nonzero(y)[0]
                words = self.space.word_array(tgt)[nz].tolist()
                for w, c in zip(map(tuple, words), y[nz]):
                    out[w] = out.get(w, 0.0) + c
        return FockVector(out)

    def materialize(self, src_level_max: int) -> dict:
        """Explicit {(src_sig, tgt_sig): matrix} over all source blocks
        up to the given level.  Enumerates every block, so use on
        narrow-alphabet models only."""
        return {(src, tgt): M for src, tgt, M
                in Window(self.space, src_level_max).images(self)}


def _index_matrix(space: FockSpace, index) -> np.ndarray:
    """The dense block of index = (tgt, rows, scale): column j holds
    scale in row rows[j] of block tgt.  "+ 0.0" turns a scale of -0.0
    (a product such as -1.0 * 0.0) into the +0.0 that the GEMM of the
    factors gives."""
    tgt, rows, scale = index
    M = np.zeros((len(space.word_array(tgt)), len(rows)))
    M[rows, np.arange(len(rows))] = scale + 0.0
    return M


def _gather_rows(space: FockSpace, index, Mb: np.ndarray) -> np.ndarray:
    """Ma @ Mb for the block Ma of index = (tgt, rows, s): row rows[j]
    of the product is s times row j of Mb, every other row is zero."""
    tgt, rows, s = index
    P = np.zeros((len(space.word_array(tgt)), Mb.shape[1]))
    P[rows] = s * Mb
    P += 0.0
    return P


def _gather_columns(Ma: np.ndarray, rows, s) -> np.ndarray:
    """Ma @ Mb for a block Mb whose column j holds s in row rows[j]:
    column j of the product is s times column rows[j] of Ma, written
    into a C-ordered array (Ma[:, rows] alone comes out F-ordered)."""
    P = np.empty((Ma.shape[0], len(rows)))
    np.multiply(Ma[:, rows], s, out=P)
    P += 0.0
    return P


def _diagonal(space: FockSpace, factor=None) -> FockOperator:
    """Index operator keeping every block, times the block scalar
    factor(sig) (1.0 without a factor)."""

    def index(sig):
        rows = np.arange(len(space.word_array(sig)))
        return sig, rows, 1.0 if factor is None else factor(sig)

    return memoized(FockOperator(space, None, lambda sig: (sig,), reach=0,
                                 index_fn=index))


def identity(space: FockSpace) -> FockOperator:
    return _diagonal(space)


def zero(space: FockSpace) -> FockOperator:
    return FockOperator(space, lambda sig: {}, lambda sig: (), reach=0)


def _chain(space: FockSpace, factors, base=None) -> FockOperator:
    """factors[0] @ (factors[1] @ (... @ base)), base the identity by
    default: base acts first, then the last factor, and each product is
    grouped onto the chain built so far."""
    out = identity(space) if base is None else base
    for A in reversed(factors):
        out = A @ out
    return out


def memoized(A: FockOperator) -> FockOperator:
    """A keeping what action(), index() and targets() return for as long
    as it lives: the one place an operator is given its caches."""
    out = FockOperator(A.space, A._action_fn, A._targets_fn, reach=A.reach,
                       peak=A.peak, antilinear=A.antilinear,
                       index_fn=A._index_fn)
    out._cache, out._index_cache, out._targets_cache = {}, {}, {}
    return out


def power_ladder(A: FockOperator, k_max: int) -> list:
    """The powers A^0, ..., A^k_max: the identity, A itself, then
    memoized rungs, each built as A @ (previous rung), which is how
    FockOperator.power groups its products.  Rung 1 is A, not a cached
    A @ identity: for a letter, whose blocks are C-ordered and hold no
    -0.0, that product is an index map or a gather with the bits and
    the memory order of A's blocks, so caching it would only hold a
    second copy.
    Operators that need several powers of one letter share a ladder, so
    each chain of products runs once per source block."""
    rungs = [identity(A.space)]
    if k_max >= 1:
        rungs.append(A)
    for _ in range(k_max - 1):
        rungs.append(memoized(A @ rungs[-1]))
    return rungs


# -- word maps and letter operators -------------------------------------


def _word_map(space: FockSpace, tgt_sig, word_fn, reach: int = 0,
              antilinear: bool = False) -> FockOperator:
    """Index operator sending each word w of a block sig to the one word
    word_fn(w) of block tgt_sig(sig), with scale 1.0; targets above the
    depth are dropped.

    word_fn maps the block's word array (one word per row) to the
    array of image words; their rows in the target block are found by
    code lookup (FockSpace.rows_of), so the map is declared, never read
    off the matrix."""

    def targets(sig):
        tgt = tgt_sig(sig)
        return () if sum(tgt) > space.depth else (tgt,)

    def index(sig):
        tgt = targets(sig)
        if not tgt:
            return None
        rows = space.rows_of(tgt[0], word_fn(space.word_array(sig)))
        return tgt[0], rows, 1.0

    return memoized(FockOperator(space, None, targets, reach=reach,
                                 antilinear=antilinear, index_fn=index))


def creation_letter(space: FockSpace, ell: int) -> FockOperator:
    """Left creation: prepend the letter."""
    return _word_map(
        space, lambda sig: _sig_add(sig, ell),
        lambda W: np.hstack((np.full((len(W), 1), ell, W.dtype), W)),
        reach=1)


def right_creation_letter(space: FockSpace, ell: int) -> FockOperator:
    """Right creation, F c F: appending a letter is prepending it to the
    reversed word."""
    F = flip_unitary(space)
    return memoized(F @ creation_letter(space, ell) @ F)


def annihilation_letter(space: FockSpace, ell: int) -> FockOperator:
    """Left annihilation: the block's annihilation transfer, scattered
    afresh from the unit cache's nonzero entries on every call.  The
    letter keeps no block: the sparse transfer already is the cache, and
    a dense copy per block would only sit beside it."""
    def targets(sig):
        return () if sig[ell] == 0 else (_sig_add(sig, ell, -1),)

    def act(sig):
        return {tgt: space.annihilation_transfer(sig, ell)
                for tgt in targets(sig)}

    return FockOperator(space, act, targets, reach=-1)


def right_annihilation_letter(space: FockSpace, ell: int) -> FockOperator:
    """Right annihilation, F a F = (F c F)*: F is unitary for the form,
    and each product with it is a gather, so every block is the left
    block with its rows and columns permuted."""
    F = flip_unitary(space)
    return memoized(F @ annihilation_letter(space, ell) @ F)


# -- simple unitaries and modular data ----------------------------------


def flip_unitary(space: FockSpace) -> FockOperator:
    """Word reversal; a self-inverse unitary of the deformed form."""
    return _word_map(space, lambda sig: sig, lambda W: W[:, ::-1])


def conjugate_letter(ell: int) -> int:
    """Conjugation on letters: the distinguished pair swaps, auxiliary
    letters are fixed."""
    if ell == E:
        return EBAR
    if ell == EBAR:
        return E
    return ell


def _letter_power(space: FockSpace, sig, power: float) -> float:
    """Product over the letters of a block of their generator
    eigenvalues, each to the given power."""
    factor = 1.0
    for ell, count in enumerate(sig):
        if count:
            factor *= space.aeig[ell] ** (power * count)
    return factor


def modular_delta(space: FockSpace, power: float = 1.0) -> FockOperator:
    """Real power of the modular operator: each letter is scaled by its
    generator eigenvalue to the -power, so blocks scale by a constant."""

    return _diagonal(space, lambda sig: _letter_power(space, sig, -power))


@dataclass
class ModularOps:
    """The conjugation S and the modular conjugation J = S Delta^(-1/2)
    on the truncated space.  Both are antilinear: their FockOperators
    conjugate input coefficients."""

    S: FockOperator
    J: FockOperator


def modular_ops(space: FockSpace) -> ModularOps:
    """S reverses a word and conjugates each letter; J is S after
    modular_delta(space, -0.5)."""
    table = np.array([conjugate_letter(l) for l in range(space.n_letters)])
    S = _word_map(
        space, lambda sig: tuple(sig[conjugate_letter(l)] for l in range(len(sig))),
        lambda W: table[W[:, ::-1]], antilinear=True)
    return ModularOps(S=S, J=memoized(S @ modular_delta(space, -0.5)))


def field(space: FockSpace, ell: int) -> FockOperator:
    """Field operator of a letter, its creation plus its annihilation;
    deformed-self-adjoint."""
    return creation_letter(space, ell) + annihilation_letter(space, ell)


# -- Wick operators ------------------------------------------------------


def wick(space: FockSpace, word) -> FockOperator:
    """Wick operator of a letter word: the unique truncation-compatible
    operator with vacuum value the word, assembled as the crossing-
    weighted sum over splittings into created and annihilated letters.

    Enumeration is 2^n over the word length, so the length is capped;
    balanced repeated words have a closed form in wick_balanced.
    """
    word = tuple(word)
    n = len(word)
    if n > ENUMERATION_CAP:
        raise ValueError(f"wick word length {n} exceeds cap {ENUMERATION_CAP}")
    terms = []
    for mask in range(1 << n):
        J = [p for p in range(1, n + 1) if mask & (1 << (p - 1))]
        comp = [p for p in range(1, n + 1) if not mask & (1 << (p - 1))]
        weight = space.q ** crossings(n, J)
        # rightmost factor acts first: annihilations of the conjugated
        # complement letters in increasing position order
        created = [creation_letter(space, word[p - 1]) for p in J]
        annihilated = [
            annihilation_letter(space, conjugate_letter(word[p - 1]))
            for p in comp]
        terms.append(weight * _chain(space, created + annihilated))
    return sum(terms[1:], terms[0])


def wick_right(space: FockSpace, word) -> FockOperator:
    """Right Wick operator of a letter word: commutes with every left
    Wick operator on safe levels and has vacuum value the word.

    The splitting weight is the crossing count of the reversed creation
    set, and annihilated letters carry the right conjugation, which
    rescales the swapped letter pair by its modular eigenvalue.
    """
    word = tuple(word)
    n = len(word)
    if n > ENUMERATION_CAP:
        raise ValueError(f"wick word length {n} exceeds cap {ENUMERATION_CAP}")
    terms = []
    for mask in range(1 << n):
        P = [p for p in range(1, n + 1) if mask & (1 << (p - 1))]
        compP = [p for p in range(1, n + 1) if not mask & (1 << (p - 1))]
        rev = [n + 1 - p for p in P]
        weight = space.q ** crossings(n, rev)
        scale = 1.0
        for p in compP:
            scale *= space.aeig[word[p - 1]]
        # decreasing positions, rightmost factor acts first
        created = [right_creation_letter(space, word[p - 1])
                   for p in reversed(P)]
        annihilated = [right_annihilation_letter(space,
                                                 conjugate_letter(word[p - 1]))
                       for p in reversed(compP)]
        terms.append((weight * scale) * _chain(space, created + annihilated))
    return sum(terms[1:], terms[0])


def wen_operator(space: FockSpace, n: int) -> FockOperator:
    """Wick operator of the n-fold repeated distinguished letter in
    normal-ordered closed form: sum over k of the Gaussian binomial times
    (left creations)^(n-k) (conjugate annihilations)^k."""
    if n < 0:
        raise ValueError("n must be >= 0")
    q = space.q
    ce = creation_letter(space, E)
    aeb = power_ladder(annihilation_letter(space, EBAR), n)
    terms = [q_binomial(n, k, q) * _chain(space, [ce] * (n - k), base=aeb[k])
             for k in range(n + 1)]
    return sum(terms[1:], terms[0])


def wick_balanced(space: FockSpace, n: int) -> FockOperator:
    """Wick operator of (conjugate letter)^n (letter)^n via the factored
    normal-ordered coefficient matrix; (n+1)^2 monomials instead of a
    4^n splitting enumeration.  The annihilation tails come from one
    table, table[i][j] = ae^i aeb^j, grouped as the chain of each
    monomial groups them: its first row and column are the two power
    ladders, and every other entry is memoized(ae @ table[i-1][j])."""
    if n < 0:
        raise ValueError("n must be >= 0")
    coeff = wick_coefficients(n, space.q)
    ce = creation_letter(space, E)
    ceb = creation_letter(space, EBAR)
    ae_pow = power_ladder(annihilation_letter(space, E), n)
    table = [power_ladder(annihilation_letter(space, EBAR), n)]
    for i in range(1, n + 1):
        table.append([ae_pow[i]] + [memoized(ae_pow[1] @ below)
                                    for below in table[-1][1:]])
    terms = [coeff[k, l] * _chain(space, [ceb] * k + [ce] * l,
                                  base=table[n - k][n - l])
             for k in range(n + 1) for l in range(n + 1)]
    return sum(terms[1:], terms[0])


def wick_right_balanced(space: FockSpace, n: int) -> FockOperator:
    """Right Wick operator of the balanced word, obtained by conjugating
    the left one with the modular conjugation; the balanced word is fixed
    by it."""
    J = modular_ops(space).J
    return J @ wick_balanced(space, n) @ J


# -- adjoints, norms, gaps -----------------------------------------------


def q_adjoint(A: FockOperator, src_level_max: int | None = None) -> FockOperator:
    """Adjoint with respect to the deformed inner product.

    Indexes the images of A over the window of source levels <=
    src_level_max (default: the full depth) by target block.  The
    adjoint's blocks out of a block conjugate each image into it by the
    two block Cholesky factors, solved when the block is first requested
    and kept (the adjoint is memoized).  The adjoint owns its factor
    memo: a source's factor is taken once for as long as the adjoint
    lives.  Narrow-alphabet models only.
    """
    if A.antilinear:
        raise ValueError("deformed adjoint implemented for linear operators")
    space = A.space
    if src_level_max is None:
        src_level_max = space.depth
    by_tgt = Window(space, src_level_max).by_target(A)
    reach = max((sum(src) - sum(tgt) for tgt, row in by_tgt.items()
                 for src, _ in row), default=0)
    chol = functools.cache(space.gram_chol)

    def act(sig):
        row = by_tgt.get(tuple(sig), ())
        if not row:
            return {}
        G_tgt = space.gram(sig)
        # adjoint block src <- sig: G_src^{-1} M^T G_sig
        return {src: _cho_solve(chol(src), M.T @ G_tgt)
                for src, M in row}

    def targets(sig):
        return (src for src, _ in by_tgt.get(tuple(sig), ()))

    return memoized(FockOperator(A.space, act, targets, reach=reach))


def _orthonormal_block(M: np.ndarray, L_src: np.ndarray,
                       L_tgt: np.ndarray) -> np.ndarray:
    """Rewrite a word-coordinate block in the orthonormal frames of the
    source and target Cholesky factors: L_tgt^T M L_src^{-T}."""
    X = _solve_triangular(L_src, M.T, lower=True).T
    return L_tgt.T @ X


def _images(A: FockOperator, src) -> list:
    """[(tgt, M)]: the blocks of A out of block src in word coordinates,
    targets in action order.  For an index operator M is the pair
    (rows, scale) of its index map, and no block is built through
    action(), so nothing lands in its cache."""
    if A._index_fn is None:
        return list(A.action(src).items())
    ix = A.index(src)
    return [] if ix is None else [(ix[0], ix[1:])]


def _components(keys, edges) -> list:
    """The keys grouped into the connected components of the graph with
    the given edges (pairs of nodes; a node need not be a key): groups
    in the order of their first key, keys in their given order."""
    parent: dict = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    groups: dict = {}
    for key in keys:
        groups.setdefault(find(key), []).append(key)
    return list(groups.values())


def _frame_matrix(A: FockOperator, cols, rows) -> np.ndarray:
    """The blocks of A out of the source blocks cols, rewritten in the
    orthonormal frames of the Cholesky factors (_orthonormal_block), in
    one dense matrix: block columns in the order of cols, block rows in
    the order of the blocks in rows.  A source's images (_images) are
    evaluated, written and dropped before the next source's, so one
    source's blocks are held at a time; an index image (rows, s) is
    written out by _index_matrix, so nothing lands in A's cache.  Each
    block is added into zeros, which turns a -0.0 into the +0.0 of an
    unwritten entry.

    The matrix owns its factor memo: gram_chol is asked once for each
    block with an image or a source of one, and the factors are dropped
    on return."""
    space = A.space
    chol = functools.partial(_memo, {}, space.gram_chol)
    col_off, ncol = _offsets(space, cols)
    row_off, nrow = _offsets(space, rows)
    dense = np.zeros((nrow, ncol))
    for src in cols:
        c0 = col_off[src]
        for tgt, M in _images(A, src):
            if not isinstance(M, np.ndarray):
                M = _index_matrix(space, (tgt, *M))
            Mo = _orthonormal_block(M, chol(src), chol(tgt))
            r0 = row_off[tgt]
            dense[r0 : r0 + Mo.shape[0], c0 : c0 + Mo.shape[1]] += Mo
    return dense


def _pencil_matrix(A: FockOperator, srcs) -> tuple:
    """(K, offset, filled) of one component: K the lower blocks of the
    pencil matrix over the source blocks srcs (_pencil_norm), offset
    their offsets in it and filled the (i, j) source pairs written.
    The sources' images (_images) are evaluated here and dropped on
    return, so they are held only while K is formed."""
    space = A.space
    offset, width = _offsets(space, srcs)
    by_tgt: dict = {}
    for src in srcs:
        for tgt, M in _images(A, src):
            by_tgt.setdefault(tgt, []).append((src, M))
    K = None
    filled = set()
    for tgt, row in by_tgt.items():
        # an operator's blocks are all index pairs or all arrays
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
                    P = space.unit_gram(tgt, Mi[0], Mj[0])
                    P *= scale * Mi[1] * Mj[1]
                if K is None and len(srcs) == 1 and not dense:
                    P += 0.0
                    K = P.T
                else:
                    if K is None:
                        K = np.zeros((width, width), order="F")
                    r0, c0 = offset[si], offset[sj]
                    K[r0 : r0 + P.shape[0], c0 : c0 + P.shape[1]] += P
                del P
                filled.add((si, sj))
        del G
    return K, offset, filled


def _pencil_job(A: FockOperator, srcs) -> list:
    """[K, reductions, packed] of one component over the source blocks
    srcs: K from _pencil_matrix, reductions the (si, sj, rows, cols) of
    each source pair written, rows and cols slices of K, and packed the
    sources' packed unit arrays (space.unit_chol) by block.  Built on
    the calling thread: the unit cache factors a block in place, so no
    other thread calls into it."""
    space = A.space
    K, offset, filled = _pencil_matrix(A, srcs)
    packed = {}
    reductions = []
    for si, sj in filled:
        for s in (si, sj):
            if s not in packed:
                packed[s] = space.unit_chol(s)
        rs, cs = (slice(offset[s], offset[s] + len(packed[s]))
                  for s in (si, sj))
        reductions.append((si, sj, rs, cs))
    return [K, reductions, packed]


def _pencil_top(job: list) -> float:
    """The largest eigenvalue of one component's reduced pencil, job a
    list from _pencil_job.  Takes only arrays and calls only the LAPACK
    wrappers, which run in ctypes calls that release the GIL, so it may
    run on a worker thread.  The job is emptied first, so K is freed
    when this returns, before the caller learns of it.

    Diagonal blocks are reduced by dsygst against the transposed packed
    unit array, Fortran-ordered with L^ in its lower triangle, so
    neither K of a one-source component nor the factor is copied;
    off-diagonal blocks are solved against a C-ordered copy of each
    source's L^, made once per component and freed before the
    eigenvalues are computed in K."""
    K, reductions, packed = job
    job.clear()
    factor = functools.cache(lambda s: _lower_factor(packed[s]))
    for si, sj, rs, cs in reductions:
        if si == sj:
            # LAPACK's reduction of a symmetric block: half the flops
            # of the two solves; it writes the lower triangle
            K[rs, rs] = _sygst_lower(K[rs, rs], packed[si].T)
            continue
        X = _solve_triangular(factor(si), K[rs, cs], lower=True,
                              check_finite=False)
        K[rs, cs] = _solve_triangular(factor(sj), X.T, lower=True,
                                      check_finite=False).T
    del factor
    return _eigvalsh_in_place(K)[-1]


def _usable_cpus() -> int:
    """The CPUs this process may run on (all of them where the platform
    has no affinity mask)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _threads_pay(widths) -> bool:
    """Whether _pencil_norm's components, of these widths, are solved on
    two threads: two of them at least _THREAD_MIN columns wide, two
    usable CPUs, and a BLAS that runs each call on one thread."""
    return sum(w >= _THREAD_MIN for w in widths) >= 2 \
        and _usable_cpus() >= 2 and _blas_threads() == 1


def _tops_from_both_ends(A: FockOperator, groups, widths) -> list:
    """The _pencil_top of each component, in component order, solved on
    two worker threads: one slot takes the components widest first, the
    other narrowest first, until they meet.  The calling thread builds a
    component's job (_pencil_job) only when a slot is free, so at most
    two K's are alive, and the widest components mostly meet narrow
    ones.  The pool lives inside this call, so no thread outlives it or
    meets a fork, and an error in a worker is raised here once the
    other has finished."""
    order = collections.deque(sorted(range(len(groups)),
                                     key=widths.__getitem__))
    tops = [None] * len(groups)
    with ThreadPoolExecutor(2, thread_name_prefix="qfock-pencil") as pool:
        running = {}

        def submit(widest: bool) -> None:
            i = order.pop() if widest else order.popleft()
            job = _pencil_job(A, groups[i])
            running[pool.submit(_pencil_top, job)] = i, widest

        submit(True)
        submit(False)
        while running:
            done, _ = wait(running, return_when=FIRST_COMPLETED)
            for future in done:
                i, widest = running.pop(future)
                tops[i] = future.result()
                if order:
                    submit(widest)
    return tops


def _pencil_norm(A: FockOperator, targets: dict) -> float:
    """sqrt of the largest eigenvalue of the pencil (K, G_src), K the sum
    over targets t of M_t^T G_t M_t, on each component of the source
    blocks of {src: A.targets(src)} that share a target, formed by
    _pencil_matrix.  Each component is built from its own images, held
    only while its K is formed, and reduced and solved by _pencil_top.
    Where two components are at least _THREAD_MIN columns wide
    (_threads_pay) the components are solved on two threads from both
    ends of their widths (_tops_from_both_ends), otherwise one at a
    time, each K freed before the next is built.  Either way each
    component gets the same LAPACK calls on the same operands, one BLAS
    thread each, and the largest eigenvalues are folded by max in
    component order, so the value is the same to the bit.

    With G = u G^ per block (u the block scalar, G^ the unit Gram) and
    L^ the unit factor of G^, the reduced block of sources (i, j) is
    C_ij = L^_i^{-1} K^_ij L^_j^{-T}, where K^_ij sums u_t / sqrt(u_i
    u_j) M_ti^T G^_t M_tj: the scalars are applied to these products,
    never to a copy of a Gram block or factor.  An index block (rows, s)
    makes the product the gather s_i s_j G^_t[rows_i, rows_j], read from
    the packed array without rebuilding G^_t where a target has one
    source (rows_i = rows_j, increasing), as for creation powers; dense
    blocks take a copy of G^_t.  Only the lower blocks are formed, which
    is what the eigensolver reads.  A source without targets adds
    nothing, and a zero K gives 0.0.

    K is Fortran-ordered and each product is freed once added.  In a
    one-source component of index blocks, the first product, exactly
    symmetric, is K itself: its transpose, with "+ 0.0" for the zeros
    it would have been added into."""
    space = A.space
    groups = _components(
        [src for src, row in targets.items() if row],
        [(src, ("to", tgt)) for src, row in targets.items() for tgt in row])
    widths = [_offsets(space, srcs)[1] for srcs in groups]
    if _threads_pay(widths):
        tops = _tops_from_both_ends(A, groups, widths)
    else:
        tops = [_pencil_top(_pencil_job(A, srcs)) for srcs in groups]
    return math.sqrt(max([0.0, *tops]))


def op_norm(A: FockOperator, src_level_max: int | None = None) -> float:
    """Largest singular value of A over source levels <= src_level_max,
    measured in the orthonormal frames of the deformed form.

    The window's targets are read first (A.targets), so the path is
    chosen before any block is evaluated.  Up to NORM_DENSE_LIMIT rows
    and columns it is the dense 2-norm of the blocks rewritten in those
    frames (_frame_matrix, filled one source at a time, target rows in
    the order the targets are first seen, each block's factor taken
    once); above it, the square root of the largest eigenvalue of the
    Gram pencil (_pencil_norm), each component solved by a dense
    symmetric eigensolver, two components at a time on two threads
    where two are wide.  No iterative solver, and the threads change no
    call or operand, so a value repeats bit for bit.  The truncated value never
    exceeds the untruncated operator norm.
    """
    space = A.space
    if src_level_max is None:
        src_level_max = max(space.depth - max(A.peak, 0), 0)
    window = Window(space, src_level_max)
    targets = {src: A.targets(src) for src in window.blocks}
    tgts = dict.fromkeys(tgt for row in targets.values() for tgt in row)
    if max(_offsets(space, tgts)[1], window.width) > NORM_DENSE_LIMIT:
        return _pencil_norm(A, targets)
    dense = _frame_matrix(A, window.blocks, tgts)
    return float(np.linalg.norm(dense, 2))


def min_singular(A: FockOperator, src_level_max: int | None = None) -> float:
    """Smallest singular value of A over source levels <= src_level_max.

    Decomposes the block graph, read from A.targets, into connected
    components and runs a dense SVD of each component's frame matrix,
    evaluating its sources only then; raises if a component is too
    large.  Each block lies in one component, so its factor is taken
    once per call, by that component's frame matrix, and each
    component's factors go before the next component is built."""
    space = A.space
    if src_level_max is None:
        src_level_max = space.depth
    targets = {sig: A.targets(sig)
               for sig in Window(space, src_level_max).blocks}
    # blocks connected by their action's targets
    groups = _components(targets, [(sig, tgt) for sig, row in targets.items()
                                   for tgt in row])
    smallest = np.inf
    for sigs in groups:
        rows = sorted({tgt for sig in sigs for tgt in targets[sig]}
                      | set(sigs))
        nrow, ncol = _offsets(space, rows)[1], _offsets(space, sigs)[1]
        if max(nrow, ncol) > SINGULAR_DENSE_LIMIT:
            raise ValueError(
                f"component around {sigs[0]} is {nrow}x{ncol}, too large "
                f"for a dense smallest-singular-value computation"
            )
        dense = _frame_matrix(A, sigs, rows)
        s = np.linalg.svd(dense, compute_uv=False)
        smallest = min(smallest, float(s.min()) if s.size else 0.0)
    return float(smallest)


def _max_abs(M: np.ndarray) -> float:
    """Largest absolute entry of a block; 0.0 for an empty one."""
    return np.abs(M).max() if M.size else 0.0


def action_gap(A: FockOperator, B: FockOperator, src_level_max: int) -> float:
    """Largest relative word-coordinate discrepancy between two operators
    over all source blocks up to a level."""
    if A.antilinear != B.antilinear:
        raise ValueError("cannot compare linear with antilinear")
    worst = 0.0
    for sig in Window(A.space, src_level_max).blocks:
        a = A.action(sig)
        b = B.action(sig)
        scale = max([1.0] + [_max_abs(M) for M in (*a.values(), *b.values())])
        for tgt in set(a) | set(b):
            Ma = a.get(tgt)
            Mb = b.get(tgt)
            if Ma is None:
                gap = _max_abs(Mb)
            elif Mb is None:
                gap = _max_abs(Ma)
            else:
                gap = _max_abs(Ma - Mb)
            worst = max(worst, gap / scale)
    return worst
