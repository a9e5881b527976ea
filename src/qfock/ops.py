"""Operators on the truncated deformed Fock space as lazy block maps.

An operator is a rule sending each source multiset block to a few target
blocks with dense coefficient matrices in word coordinates.  Compositions
and sums stay lazy, so models with wide alphabets only ever materialize
the blocks an application actually touches.

Truncation bookkeeping: each operator carries its net maximal level
raise (``reach``) and the maximal intermediate raise of its evaluation
chain (``peak``).  Applied to sources of level <= depth - peak, the
truncated action coincides with the untruncated operator; identity
checks quantify over exactly those levels.  Annihilation-first monomials
have peak equal to max(reach, 0), while freely composed chains
accumulate peak additively.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import FockSpace, FockVector, E, EBAR
from .qcomb import q_binomial, wick_coefficients, crossings, ENUMERATION_CAP

__all__ = [
    "FockOperator",
    "identity",
    "zero",
    "memoized",
    "power_ladder",
    "creation_letter",
    "annihilation_letter",
    "right_creation_letter",
    "right_annihilation_letter",
    "creation",
    "annihilation",
    "right_creation",
    "right_annihilation",
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
    "vacuum_expectation",
    "action_gap",
    "conjugate_letter",
]

# op_norm takes a dense 2-norm up to this matrix size and ARPACK above
# it; min_singular refuses components larger than SINGULAR_DENSE_LIMIT
NORM_DENSE_LIMIT = 3000
SINGULAR_DENSE_LIMIT = 4000


def _sig_add(sig, ell, delta=1):
    out = list(sig)
    out[ell] += delta
    return tuple(out)


class FockOperator:
    """Lazy block map on a truncated space.

    action(sig) returns {target_sig: matrix}; matrices are dense numpy
    arrays of shape (len(target block), len(source block)).  Targets
    that would exceed the truncation depth are dropped silently; the
    ``peak`` attribute tells which source levels are unaffected by that.

    Antilinear operators store their linear part; application
    conjugates input coefficients first.
    """

    def __init__(self, space: FockSpace, action_fn, reach: int, peak: int | None = None,
                 label: str = "", antilinear: bool = False, cache: bool = True):
        self.space = space
        self._action_fn = action_fn
        self.reach = reach
        self.peak = max(reach, 0) if peak is None else peak
        self.label = label
        self.antilinear = antilinear
        self._cache: dict | None = {} if cache else None

    def __repr__(self):
        tag = "antilinear " if self.antilinear else ""
        return (f"<{tag}FockOperator {self.label or '?'} reach={self.reach} "
                f"peak={self.peak}>")

    def safe_source_max(self) -> int:
        """Largest source level on which truncation cannot bite."""
        return self.space.depth - self.peak

    def action(self, sig) -> dict:
        sig = tuple(sig)
        if self._cache is not None and sig in self._cache:
            return self._cache[sig]
        out = self._action_fn(sig)
        if self._cache is not None:
            self._cache[sig] = out
        return out

    # -- algebra --------------------------------------------------------

    def __matmul__(self, other: "FockOperator") -> "FockOperator":
        if self.space is not other.space:
            raise ValueError("operators live on different spaces")

        def act(sig):
            acc: dict = {}
            for mid, Mb in other.action(sig).items():
                Mb_eff = Mb.conj() if self.antilinear else Mb
                for tgt, Ma in self.action(mid).items():
                    prod = Ma @ Mb_eff
                    if tgt in acc:
                        acc[tgt] = acc[tgt] + prod
                    else:
                        acc[tgt] = prod
            return acc

        return FockOperator(
            self.space, act,
            reach=self.reach + other.reach,
            peak=max(other.peak, other.reach + self.peak),
            label=f"({self.label}@{other.label})",
            antilinear=self.antilinear != other.antilinear,
            cache=False,
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

        return FockOperator(
            self.space, act,
            reach=max(self.reach, other.reach),
            peak=max(self.peak, other.peak),
            label=f"({self.label}+{other.label})",
            antilinear=self.antilinear,
            cache=False,
        )

    def __sub__(self, other):
        return self + (-1.0) * other

    def __mul__(self, scalar):
        s = complex(scalar)
        if s.imag == 0.0:
            s = s.real

        def act(sig):
            return {tgt: s * M for tgt, M in self.action(sig).items()}

        return FockOperator(
            self.space, act, reach=self.reach, peak=self.peak,
            label=f"({scalar}*{self.label})", antilinear=self.antilinear,
            cache=False,
        )

    __rmul__ = __mul__

    def power(self, k: int) -> "FockOperator":
        if k < 0:
            raise ValueError("power must be >= 0")
        out = identity(self.space)
        for _ in range(k):
            out = self @ out
        return out

    # -- application ----------------------------------------------------

    def apply(self, vec: FockVector) -> FockVector:
        out: dict = {}
        for sig, (idx, coef) in vec.by_blocks(self.space).items():
            if self.antilinear:
                coef = np.conj(coef)
            words_src = self.space.block_words(sig)
            x = np.zeros(len(words_src), dtype=coef.dtype)
            x[idx] = coef
            for tgt, M in self.action(sig).items():
                y = M @ x
                words_tgt = self.space.block_words(tgt)
                for i in np.nonzero(y)[0]:
                    w = words_tgt[i]
                    out[w] = out.get(w, 0.0) + y[i]
        return FockVector(out)

    def materialize(self, src_level_max: int) -> dict:
        """Explicit {(src_sig, tgt_sig): matrix} over all source blocks
        up to the given level.  Enumerates every block, so use on
        narrow-alphabet models only."""
        out = {}
        for level in range(src_level_max + 1):
            for sig in self.space.blocks_at_level(level):
                for tgt, M in self.action(sig).items():
                    out[(sig, tgt)] = M
        return out


def identity(space: FockSpace) -> FockOperator:
    def act(sig):
        m = len(space.block_words(sig))
        return {tuple(sig): np.eye(m)}

    return FockOperator(space, act, reach=0, label="id")


def zero(space: FockSpace) -> FockOperator:
    return FockOperator(space, lambda sig: {}, reach=0, label="0")


def memoized(A: FockOperator) -> FockOperator:
    """A with its block results cached; the cache lives as long as the
    returned operator."""
    return FockOperator(A.space, A._action_fn, reach=A.reach, peak=A.peak,
                        label=A.label, antilinear=A.antilinear)


def power_ladder(A: FockOperator, k_max: int) -> list:
    """The powers A^0, ..., A^k_max as memoized rungs, each built as
    A @ (previous rung), which is how FockOperator.power groups its
    products.  Operators that need several powers of one letter share a
    ladder, so each chain of products runs once per source block."""
    rungs = [identity(A.space)]
    for _ in range(k_max):
        rungs.append(memoized(A @ rungs[-1]))
    return rungs


# -- word maps and letter operators -------------------------------------


def _word_map(space: FockSpace, tgt_sig, word_fn, label: str, reach: int = 0,
              factor=None, antilinear: bool = False) -> FockOperator:
    """Operator sending each word w of a block sig to the one word
    word_fn(w) of block tgt_sig(sig), times the block scalar factor(sig)
    (1.0 without a factor); targets above the depth are dropped."""

    def act(sig):
        tgt = tgt_sig(sig)
        if sum(tgt) > space.depth:
            return {}
        words = space.block_words(sig)
        tgt_index = {w: i for i, w in enumerate(space.block_words(tgt))}
        M = np.zeros((len(tgt_index), len(words)))
        rows = [tgt_index[word_fn(w)] for w in words]
        M[rows, range(len(words))] = 1.0 if factor is None else factor(sig)
        return {tgt: M}

    return FockOperator(space, act, reach=reach, label=label,
                        antilinear=antilinear)


def creation_letter(space: FockSpace, ell: int) -> FockOperator:
    """Left creation: prepend the letter."""
    return _word_map(space, lambda sig: _sig_add(sig, ell),
                     lambda w: (ell,) + w,
                     f"c({space.letter_name(ell)})", reach=1)


def right_creation_letter(space: FockSpace, ell: int) -> FockOperator:
    """Right creation: append the letter."""
    return _word_map(space, lambda sig: _sig_add(sig, ell),
                     lambda w: w + (ell,),
                     f"cr({space.letter_name(ell)})", reach=1)


def _annihilation_letter(space: FockSpace, ell: int, side: str) -> FockOperator:
    def act(sig):
        if sig[ell] == 0:
            return {}
        tgt = _sig_add(sig, ell, -1)
        return {tgt: space.annihilation_transfer(sig, ell, side)}

    tag = "c" if side == "left" else "cr"
    return FockOperator(
        space, act, reach=-1, label=f"{tag}({space.letter_name(ell)})*"
    )


def annihilation_letter(space: FockSpace, ell: int) -> FockOperator:
    return _annihilation_letter(space, ell, "left")


def right_annihilation_letter(space: FockSpace, ell: int) -> FockOperator:
    return _annihilation_letter(space, ell, "right")


def _one_particle_coeffs(space: FockSpace, v) -> np.ndarray:
    """Accept {letter index: coeff}, a sequence, or a single index."""
    if isinstance(v, (int, np.integer)):
        out = np.zeros(space.n_letters, dtype=complex)
        out[v] = 1.0
        return out
    if isinstance(v, dict):
        out = np.zeros(space.n_letters, dtype=complex)
        for ell, c in v.items():
            out[ell] = c
        return out
    out = np.asarray(v, dtype=complex)
    if out.shape != (space.n_letters,):
        raise ValueError(f"one-particle vector needs {space.n_letters} entries")
    return out


def _real_if_possible(c: complex):
    return c.real if c.imag == 0.0 else c


def _letter_sum(space: FockSpace, v, letter, conj: bool, reach: int, peak: int,
                label: str) -> FockOperator:
    """Sum of letter(space, ell) weighted by the coefficients of the
    one-particle vector v, conjugated for the annihilations."""
    coeffs = _one_particle_coeffs(space, v)
    parts = [
        _real_if_possible(np.conj(c) if conj else c) * letter(space, ell)
        for ell, c in enumerate(coeffs)
        if c != 0
    ]
    out = _op_sum(space, parts, reach=reach, peak=peak)
    out.label = label
    return out


def creation(space: FockSpace, v) -> FockOperator:
    """Left creation by a one-particle vector: prepend, linear in v."""
    return _letter_sum(space, v, creation_letter, False, 1, 1, "c(v)")


def annihilation(space: FockSpace, v) -> FockOperator:
    """Left annihilation: the deformed adjoint of creation(space, v);
    conjugate linear in v."""
    return _letter_sum(space, v, annihilation_letter, True, -1, 0, "c(v)*")


def right_creation(space: FockSpace, v) -> FockOperator:
    return _letter_sum(space, v, right_creation_letter, False, 1, 1, "cr(v)")


def right_annihilation(space: FockSpace, v) -> FockOperator:
    return _letter_sum(space, v, right_annihilation_letter, True, -1, 0,
                       "cr(v)*")


def _op_sum(space: FockSpace, parts, reach: int, peak: int) -> FockOperator:
    if not parts:
        return zero(space)
    out = parts[0]
    for p in parts[1:]:
        out = out + p
    out.reach = reach
    out.peak = peak
    return out


# -- simple unitaries and modular data ----------------------------------


def flip_unitary(space: FockSpace) -> FockOperator:
    """Word reversal; a self-inverse unitary of the deformed form."""
    return _word_map(space, lambda sig: sig, lambda w: w[::-1], "flip")


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

    def act(sig):
        m = len(space.block_words(sig))
        return {tuple(sig): _letter_power(space, sig, -power) * np.eye(m)}

    return FockOperator(space, act, reach=0, label=f"Delta^{power}")


def _bar_reversal(space: FockSpace, scale_power: float, label: str) -> FockOperator:
    """Linear part shared by the modular conjugations: reverse the word,
    conjugate each letter, scale by the product of generator eigenvalues
    to scale_power."""
    return _word_map(
        space, lambda sig: tuple(sig[conjugate_letter(l)] for l in range(len(sig))),
        lambda w: tuple(conjugate_letter(l) for l in reversed(w)), label,
        factor=lambda sig: _letter_power(space, sig, scale_power),
        antilinear=True,
    )


@dataclass
class ModularOps:
    """The conjugation S, the modular conjugation J = S Delta^(-1/2),
    and the modular operator Delta on the truncated space.  S and J are
    antilinear: their FockOperators conjugate input coefficients."""

    S: FockOperator
    J: FockOperator
    Delta: FockOperator


def modular_ops(space: FockSpace) -> ModularOps:
    S = _bar_reversal(space, 0.0, "S")
    J = _bar_reversal(space, 0.5, "J")
    Delta = modular_delta(space, 1.0)
    return ModularOps(S=S, J=J, Delta=Delta)


def field(space: FockSpace, v, side: str = "left") -> FockOperator:
    """Field operator creation(v) + annihilation(v); deformed-self-adjoint
    for real letter combinations."""
    if side == "left":
        out = creation(space, v) + annihilation(space, v)
    elif side == "right":
        out = right_creation(space, v) + right_annihilation(space, v)
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side}")
    out.label = f"field({side})"
    return out


# -- Wick operators ------------------------------------------------------


def wick(space: FockSpace, word, cap: int = ENUMERATION_CAP) -> FockOperator:
    """Wick operator of a letter word: the unique truncation-compatible
    operator with vacuum value the word, assembled as the crossing-
    weighted sum over splittings into created and annihilated letters.

    Enumeration is 2^n over the word length, so the length is capped;
    balanced repeated words have a closed form in wick_balanced.
    """
    word = tuple(word)
    n = len(word)
    if n > cap:
        raise ValueError(f"wick word length {n} exceeds cap {cap}")
    terms = []
    for mask in range(1 << n):
        J = [p for p in range(1, n + 1) if mask & (1 << (p - 1))]
        comp = [p for p in range(1, n + 1) if not mask & (1 << (p - 1))]
        weight = space.q ** crossings(n, J)
        chain = identity(space)
        # rightmost factor acts first: annihilations of the conjugated
        # complement letters in increasing position order
        for p in reversed(comp):
            chain = annihilation_letter(
                space, conjugate_letter(word[p - 1])
            ) @ chain
        for p in reversed(J):
            chain = creation_letter(space, word[p - 1]) @ chain
        terms.append(weight * chain)
    out = _op_sum(space, terms, reach=n, peak=n)
    out.label = f"W[{space.word_name(word)}]"
    return out


def wick_right(space: FockSpace, word, cap: int = ENUMERATION_CAP) -> FockOperator:
    """Right Wick operator of a letter word: commutes with every left
    Wick operator on safe levels and has vacuum value the word.

    The splitting weight is the crossing count of the reversed creation
    set, and annihilated letters carry the right conjugation, which
    rescales the swapped letter pair by its modular eigenvalue.
    """
    word = tuple(word)
    n = len(word)
    if n > cap:
        raise ValueError(f"wick word length {n} exceeds cap {cap}")
    terms = []
    for mask in range(1 << n):
        P = [p for p in range(1, n + 1) if mask & (1 << (p - 1))]
        compP = [p for p in range(1, n + 1) if not mask & (1 << (p - 1))]
        rev = [n + 1 - p for p in P]
        weight = space.q ** crossings(n, rev)
        scale = 1.0
        chain = identity(space)
        # decreasing positions, rightmost factor acts first
        for p in compP:
            ell = word[p - 1]
            scale *= space.aeig[ell]
            chain = right_annihilation_letter(
                space, conjugate_letter(ell)
            ) @ chain
        for p in P:
            chain = right_creation_letter(space, word[p - 1]) @ chain
        terms.append((weight * scale) * chain)
    out = _op_sum(space, terms, reach=n, peak=n)
    out.label = f"Wr[{space.word_name(word)}]"
    return out


def wen_operator(space: FockSpace, n: int) -> FockOperator:
    """Wick operator of the n-fold repeated distinguished letter in
    normal-ordered closed form: sum over k of the Gaussian binomial times
    (left creations)^(n-k) (conjugate annihilations)^k."""
    q = space.q
    ce = creation_letter(space, E)
    aeb = annihilation_letter(space, EBAR)
    terms = []
    for k in range(n + 1):
        chain = identity(space)
        for _ in range(k):
            chain = aeb @ chain
        for _ in range(n - k):
            chain = ce @ chain
        terms.append(q_binomial(n, k, q) * chain)
    out = _op_sum(space, terms, reach=n, peak=n)
    out.label = f"W[e^{n}]"
    return out


def wick_balanced(space: FockSpace, n: int) -> FockOperator:
    """Wick operator of (conjugate letter)^n (letter)^n via the factored
    normal-ordered coefficient matrix; (n+1)^2 monomials instead of a
    4^n splitting enumeration."""
    coeff = wick_coefficients(n, space.q, cap=max(n, ENUMERATION_CAP))
    ce = creation_letter(space, E)
    ceb = creation_letter(space, EBAR)
    ae = annihilation_letter(space, E)
    aeb = annihilation_letter(space, EBAR)
    terms = []
    for k in range(n + 1):
        for l in range(n + 1):
            chain = identity(space)
            for _ in range(n - l):
                chain = aeb @ chain
            for _ in range(n - k):
                chain = ae @ chain
            for _ in range(l):
                chain = ce @ chain
            for _ in range(k):
                chain = ceb @ chain
            terms.append(coeff[k, l] * chain)
    out = _op_sum(space, terms, reach=2 * n, peak=2 * n)
    out.label = f"W[Ebar^{n}e^{n}]"
    return out


def wick_right_balanced(space: FockSpace, n: int) -> FockOperator:
    """Right Wick operator of the balanced word, obtained by conjugating
    the left one with the modular conjugation; the balanced word is fixed
    by it."""
    J = modular_ops(space).J
    out = J @ wick_balanced(space, n) @ J
    out.reach = 2 * n
    out.peak = 2 * n
    out.label = f"Wr[Ebar^{n}e^{n}]"
    return out


# -- adjoints, norms, expectations ---------------------------------------


def q_adjoint(A: FockOperator, src_level_max: int | None = None) -> FockOperator:
    """Adjoint with respect to the deformed inner product.

    Materializes A over every block up to src_level_max (default: the
    full depth), then conjugates each block matrix by the two block
    Cholesky factors.  Narrow-alphabet models only.
    """
    if A.antilinear:
        raise ValueError("deformed adjoint implemented for linear operators")
    from scipy.linalg import cho_solve

    space = A.space
    if src_level_max is None:
        src_level_max = space.depth
    table = A.materialize(src_level_max)
    adj: dict = {}
    for (src, tgt), M in table.items():
        L_src = space.gram_chol(src)
        G_tgt = space.gram(tgt)
        # adjoint block src <- tgt: G_src^{-1} M^H G_tgt
        M_adj = cho_solve((L_src, True), M.conj().T @ G_tgt)
        adj.setdefault(tgt, {})[src] = M_adj
    shifts = [sum(t) - sum(s) for (s, t) in table.keys()]
    reach = -min(shifts) if shifts else 0

    def act(sig):
        return dict(adj.get(tuple(sig), {}))

    return FockOperator(
        A.space, act, reach=reach, peak=max(reach, 0),
        label=f"({A.label})*",
    )


def _orthonormal_block(space: FockSpace, M: np.ndarray, src_sig, tgt_sig):
    """Rewrite a word-coordinate block in the orthonormal frames:
    L_tgt^T M L_src^{-T}."""
    from scipy.linalg import solve_triangular

    L_src = space.gram_chol(src_sig)
    L_tgt = space.gram_chol(tgt_sig)
    X = solve_triangular(L_src, M.T, lower=True).T
    return L_tgt.T @ X


def _assemble(A: FockOperator, src_level_max: int):
    """Stack the orthonormal-coordinate blocks of A over all sources up
    to a level into one sparse matrix; returns the matrix plus the
    source and target offset tables."""
    import scipy.sparse as sp

    space = A.space
    entries = []
    src_offset: dict = {}
    tgt_offset: dict = {}
    src_dim = 0
    tgt_dim = 0
    for level in range(src_level_max + 1):
        for sig in space.blocks_at_level(level):
            m = len(space.block_words(sig))
            src_offset[sig] = src_dim
            src_dim += m
    pairs = []
    for sig in src_offset:
        for tgt, M in A.action(sig).items():
            if tgt not in tgt_offset:
                tgt_offset[tgt] = tgt_dim
                tgt_dim += len(space.block_words(tgt))
            pairs.append((sig, tgt, M))
    rows, cols, vals = [], [], []
    for sig, tgt, M in pairs:
        Mo = _orthonormal_block(space, M, sig, tgt)
        r0, c0 = tgt_offset[tgt], src_offset[sig]
        rr, cc = np.nonzero(np.ones_like(Mo, dtype=bool))
        rows.append(rr + r0)
        cols.append(cc + c0)
        vals.append(Mo.ravel())
    if not rows:
        return sp.csr_matrix((max(tgt_dim, 1), max(src_dim, 1))), src_offset, tgt_offset
    mat = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(tgt_dim, src_dim),
    )
    return mat, src_offset, tgt_offset


def op_norm(A: FockOperator, src_level_max: int | None = None) -> float:
    """Largest singular value of A over source levels <= src_level_max,
    measured in the orthonormal frames of the deformed form.

    The truncated value never exceeds the untruncated operator norm.
    """
    space = A.space
    if src_level_max is None:
        src_level_max = max(space.depth - max(A.peak, 0), 0)
    mat, _, _ = _assemble(A, src_level_max)
    if mat.nnz == 0:
        return 0.0
    if max(mat.shape) <= NORM_DENSE_LIMIT:
        return float(np.linalg.norm(mat.toarray(), 2))
    import scipy.sparse.linalg as spla

    k = 1
    s = spla.svds(mat, k=k, return_singular_vectors=False)
    return float(s.max())


def min_singular(A: FockOperator, src_level_max: int | None = None) -> float:
    """Smallest singular value of A over source levels <= src_level_max.

    Decomposes the block graph into connected components and runs a
    dense SVD per component; raises if a component is too large."""
    space = A.space
    if src_level_max is None:
        src_level_max = space.depth
    # union-find over blocks connected by nonzero action entries
    parent: dict = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    actions = {}
    for level in range(src_level_max + 1):
        for sig in space.blocks_at_level(level):
            act = A.action(sig)
            actions[sig] = act
            find(sig)
            for tgt in act:
                union(sig, tgt)
    groups: dict = {}
    for sig in actions:
        groups.setdefault(find(sig), []).append(sig)
    smallest = np.inf
    for root, sigs in groups.items():
        tgts = set()
        for sig in sigs:
            tgts.update(actions[sig].keys())
        cols = {sig: len(space.block_words(sig)) for sig in sigs}
        rows = {t: len(space.block_words(t)) for t in sorted(tgts | set(sigs))}
        ncol = sum(cols.values())
        nrow = sum(rows.values())
        if max(nrow, ncol) > SINGULAR_DENSE_LIMIT:
            raise ValueError(
                f"component around {root} is {nrow}x{ncol}, too large for a "
                f"dense smallest-singular-value computation"
            )
        col_off = {}
        off = 0
        for sig in sigs:
            col_off[sig] = off
            off += cols[sig]
        row_off = {}
        off = 0
        for t in rows:
            row_off[t] = off
            off += rows[t]
        dense = np.zeros((nrow, ncol))
        for sig in sigs:
            for tgt, M in actions[sig].items():
                Mo = _orthonormal_block(space, M, sig, tgt)
                r0, c0 = row_off[tgt], col_off[sig]
                dense[r0 : r0 + Mo.shape[0], c0 : c0 + Mo.shape[1]] += Mo
        s = np.linalg.svd(dense, compute_uv=False)
        smallest = min(smallest, float(s.min()) if s.size else 0.0)
    return float(smallest)


def vacuum_expectation(A: FockOperator) -> complex:
    """<vacuum, A vacuum> in the deformed form."""
    out = A.apply(FockVector.vacuum())
    return out.coefficient(())


def action_gap(A: FockOperator, B: FockOperator, src_level_max: int) -> float:
    """Largest relative word-coordinate discrepancy between two operators
    over all source blocks up to a level."""
    if A.antilinear != B.antilinear:
        raise ValueError("cannot compare linear with antilinear")
    space = A.space
    worst = 0.0
    for level in range(src_level_max + 1):
        for sig in space.blocks_at_level(level):
            a = A.action(sig)
            b = B.action(sig)
            scale = 1.0
            for M in a.values():
                scale = max(scale, np.abs(M).max() if M.size else 0.0)
            for M in b.values():
                scale = max(scale, np.abs(M).max() if M.size else 0.0)
            for tgt in set(a) | set(b):
                Ma = a.get(tgt)
                Mb = b.get(tgt)
                if Ma is None:
                    gap = np.abs(Mb).max() if Mb.size else 0.0
                elif Mb is None:
                    gap = np.abs(Ma).max() if Ma.size else 0.0
                else:
                    gap = np.abs(Ma - Mb).max() if Ma.size else 0.0
                worst = max(worst, gap / scale)
    return worst
