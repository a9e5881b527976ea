"""Truncated deformed Fock space over a small letter alphabet.

The one-particle space is spanned by mutually orthogonal letters: a
distinguished letter ``e`` with squared length lam^(-1/2), its conjugate
partner ``Ebar`` with squared length lam^(1/2), and optional auxiliary
unit letters fixed by the modular flow.  Level-n vectors are linear
combinations of length-n words over the alphabet.

Because the one-particle inner product is diagonal on letters, the
deformed Gram form of a level is block diagonal over letter multisets,
and inside a block the lambda-dependence is a single positive scalar.
The q-dependent "unit" Gram blocks are therefore computed once per
deformation parameter and shared across lambda values; they are built by
a level recursion through annihilation transfer matrices, with a
brute-force permutation sum kept as an independent test oracle for small
levels.
"""

from __future__ import annotations

import itertools
import json
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "Letter",
    "ModelParams",
    "FockSpace",
    "FockVector",
    "build_space",
    "gram",
    "gram_bruteforce",
    "inner",
    "norm",
    "orthonormalize",
    "BudgetExceededError",
    "GramFactorizationError",
    "GramConditionWarning",
    "vector_to_json",
    "vector_from_json",
    "gram_block_to_json",
]

BRUTE_FORCE_MAX_LEVEL = 7
# supported envelope: |q| <= Q_ENVELOPE and depth <= MAX_DEPTH; Gram
# blocks whose condition estimate exceeds COND_LIMIT raise a warning
Q_ENVELOPE = 0.9
MAX_DEPTH = 14
COND_LIMIT = 1e12


class BudgetExceededError(RuntimeError):
    """Raised when a configuration would enumerate too many words."""


class GramFactorizationError(RuntimeError):
    """Raised when a Gram block fails its triangular factorization."""


class GramConditionWarning(UserWarning):
    """Emitted when a Gram block is ill conditioned beyond the guard."""


@dataclass(frozen=True)
class Letter:
    """One alphabet letter: display name, squared one-particle length,
    and its eigenvalue under the analytic generator of the modular flow.
    """

    name: str
    u_norm_sq: float
    a_eigenvalue: float


@dataclass(frozen=True)
class ModelParams:
    """Parameters of a truncated model.

    q         deformation parameter, |q| <= Q_ENVELOPE < 1
    lam       asymmetry parameter of the two-dimensional part, 0 < lam < 1
    depth     truncation level N; words longer than N are dropped
    aux_letters  number of extra unit letters fixed by the modular flow
    """

    q: float
    lam: float
    depth: int
    aux_letters: int = 0
    max_total_words: int = 2_000_000

    def __post_init__(self):
        if not abs(self.q) <= Q_ENVELOPE:
            raise ValueError(
                f"|q| = {abs(self.q)} outside the supported envelope "
                f"{Q_ENVELOPE}; factorizations degrade beyond it"
            )
        if not 0.0 < self.lam < 1.0:
            raise ValueError(f"lam must lie in (0, 1), got {self.lam}")
        if self.depth < 0:
            raise ValueError(f"depth must be >= 0, got {self.depth}")
        if self.depth > MAX_DEPTH:
            raise ValueError(
                f"depth {self.depth} exceeds the supported envelope "
                f"{MAX_DEPTH}"
            )
        if self.aux_letters < 0:
            raise ValueError("aux_letters must be >= 0")

    @property
    def n_letters(self) -> int:
        return 2 + self.aux_letters

    def total_words(self) -> int:
        L = self.n_letters
        return sum(L**n for n in range(self.depth + 1))


def _make_letters(params: ModelParams) -> list[Letter]:
    rl = math.sqrt(params.lam)
    letters = [
        Letter("e", 1.0 / rl, 1.0 / params.lam),
        Letter("Ebar", rl, params.lam),
    ]
    for k in range(1, params.aux_letters + 1):
        letters.append(Letter(f"Aux{k}", 1.0, 1.0))
    return letters


E = 0
EBAR = 1


def signature_of(word, n_letters: int):
    sig = [0] * n_letters
    for ell in word:
        sig[ell] += 1
    return tuple(sig)


def _multiset_words(sig):
    """All words with the given letter counts, lexicographic order."""
    total = sum(sig)
    if total == 0:
        return [()]
    out = []
    counts = list(sig)
    word = []

    def rec():
        if len(word) == total:
            out.append(tuple(word))
            return
        for ell in range(len(counts)):
            if counts[ell]:
                counts[ell] -= 1
                word.append(ell)
                rec()
                word.pop()
                counts[ell] += 1

    rec()
    return out


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _cond_estimate(L: np.ndarray) -> float:
    """Rough 2-norm condition number of L^T L via power iterations."""
    m = L.shape[0]
    if m == 1:
        return 1.0
    rng = np.random.default_rng(12345)
    x = rng.standard_normal(m)
    x /= np.linalg.norm(x)
    hi = 0.0
    for _ in range(8):
        x = L.T @ (L @ x)
        hi = np.linalg.norm(x)
        if hi == 0.0:
            return np.inf
        x /= hi
    y = rng.standard_normal(m)
    y /= np.linalg.norm(y)
    lo = 0.0
    from scipy.linalg import solve_triangular

    for _ in range(8):
        y = solve_triangular(L, y, lower=True)
        y = solve_triangular(L.T, y, lower=False)
        nrm = np.linalg.norm(y)
        if nrm == 0.0:
            return np.inf
        lo = nrm
        y /= nrm
    return hi * lo  # sigma_max^2 * sigma_min^-2 of L = cond(L^T L)


class _UnitGramCache:
    """q-dependent, lambda-free part of the Gram data, shared between
    spaces that differ only in lambda.

    Per block (level, signature): the word list, the unit Gram (all
    letter lengths set to 1), its lower Cholesky factor, a condition
    estimate, and the unit annihilation transfer matrices used both by
    the Gram recursion and by the annihilation operators.
    """

    def __init__(self, q: float, n_letters: int):
        self.q = q
        self.n_letters = n_letters
        self.words: dict = {}
        self.index: dict = {}
        self.gram_unit: dict = {}
        self.chol_unit: dict = {}
        self.cond: dict = {}
        self.transfer: dict = {}

    def block_words(self, sig):
        if sig not in self.words:
            ws = _multiset_words(sig)
            self.words[sig] = ws
            self.index[sig] = {w: i for i, w in enumerate(ws)}
        return self.words[sig]

    def word_index(self, word):
        sig = signature_of(word, self.n_letters)
        self.block_words(sig)
        return self.index[sig][word]

    def transfer_matrix(self, sig, ell: int, side: str = "left"):
        """Unit annihilation transfer for removing letter ell from the
        block: rows index the reduced block, columns the source block,
        entry the sum over positions i (0-based, word length n) holding
        ell whose removal yields the row word, of q^i for removal from
        the left and of q^(n-1-i) for removal from the right.
        """
        key = (sig, ell, side)
        if key in self.transfer:
            return self.transfer[key]
        if sig[ell] == 0:
            raise KeyError(f"block {sig} holds no letter {ell}")
        src = self.block_words(sig)
        red_sig = tuple(c - (i == ell) for i, c in enumerate(sig))
        self.block_words(red_sig)
        red_index = self.index[red_sig]
        T = np.zeros((len(red_index), len(src)))
        q = self.q
        n = sum(sig)
        left = side == "left"
        for col, w in enumerate(src):
            qp = 1.0
            for i, wl in enumerate(w):
                if wl == ell:
                    T[red_index[w[:i] + w[i + 1 :]], col] += (
                        qp if left else q ** (n - 1 - i))
                qp *= q
        self.transfer[key] = T
        return T

    def gram(self, sig):
        if sig in self.gram_unit:
            return self.gram_unit[sig]
        words = self.block_words(sig)
        n = sum(sig)
        if n == 0:
            G = np.ones((1, 1))
        else:
            rows = []
            for ell in range(self.n_letters):
                if sig[ell] == 0:
                    continue
                red_sig = tuple(c - (i == ell) for i, c in enumerate(sig))
                G_red = self.gram(red_sig)
                rows.append(G_red @ self.transfer_matrix(sig, ell))
            G = np.vstack(rows)
            # lexicographic word order lists first letters in increasing
            # order, so the stacked rows already align with `words`
            assert G.shape == (len(words), len(words))
            G = 0.5 * (G + G.T)
        self.gram_unit[sig] = G
        return G

    def chol(self, sig):
        if sig in self.chol_unit:
            return self.chol_unit[sig]
        G = self.gram(sig)
        try:
            L = np.linalg.cholesky(G)
        except np.linalg.LinAlgError as exc:
            raise GramFactorizationError(
                f"Gram block level={sum(sig)} signature={sig} is not "
                f"numerically positive definite at q={self.q}: {exc}"
            ) from None
        cond = _cond_estimate(L)
        self.cond[sig] = cond
        if cond > COND_LIMIT:
            warnings.warn(
                f"Gram block level={sum(sig)} signature={sig} at q={self.q} "
                f"has condition estimate {cond:.3e} beyond {COND_LIMIT:.1e}",
                GramConditionWarning,
                stacklevel=3,
            )
        self.chol_unit[sig] = L
        return L


class FockSpace:
    """A truncated model: parameters, letters, and cached Gram data."""

    def __init__(self, params: ModelParams, _unit_cache: _UnitGramCache | None = None):
        total = params.total_words()
        if total > params.max_total_words:
            raise BudgetExceededError(
                f"configuration enumerates {total} words "
                f"(> budget {params.max_total_words}); lower depth or "
                f"aux_letters, or raise max_total_words"
            )
        self.params = params
        self.letters = _make_letters(params)
        self.u = np.array([l.u_norm_sq for l in self.letters])
        self.aeig = np.array([l.a_eigenvalue for l in self.letters])
        if _unit_cache is None:
            _unit_cache = _UnitGramCache(params.q, params.n_letters)
        elif _unit_cache.q != params.q or _unit_cache.n_letters != params.n_letters:
            raise ValueError("unit cache belongs to a different model")
        self._unit = _unit_cache

    # -- basic structure ------------------------------------------------

    @property
    def q(self) -> float:
        return self.params.q

    @property
    def lam(self) -> float:
        return self.params.lam

    @property
    def depth(self) -> int:
        return self.params.depth

    @property
    def n_letters(self) -> int:
        return self.params.n_letters

    def with_lambda(self, lam: float) -> "FockSpace":
        """A space at a different lambda sharing this one's q-dependent
        Gram caches."""
        return FockSpace(replace(self.params, lam=lam), _unit_cache=self._unit)

    def blocks_at_level(self, level: int):
        """All multiset signatures at a level (may enumerate lazily
        populated blocks; the word lists themselves stay lazy)."""
        if not 0 <= level <= self.depth:
            raise ValueError(f"level {level} outside 0..{self.depth}")
        return list(_compositions(level, self.n_letters))

    def block_words(self, sig):
        return self._unit.block_words(tuple(sig))

    def word_index(self, word) -> int:
        return self._unit.word_index(tuple(word))

    def signature(self, word):
        return signature_of(word, self.n_letters)

    def letter_name(self, ell: int) -> str:
        return self.letters[ell].name

    def word_name(self, word) -> str:
        return "".join(self.letters[ell].name for ell in word)

    def parse_word(self, text: str):
        names = {l.name: i for i, l in enumerate(self.letters)}
        ordered = sorted(names, key=len, reverse=True)
        out = []
        pos = 0
        while pos < len(text):
            for name in ordered:
                if text.startswith(name, pos):
                    out.append(names[name])
                    pos += len(name)
                    break
            else:
                raise ValueError(f"cannot parse word {text!r} at offset {pos}")
        return tuple(out)

    # -- Gram data ------------------------------------------------------

    def u_factor(self, sig) -> float:
        out = 1.0
        for ell, count in enumerate(sig):
            if count:
                out *= self.u[ell] ** count
        return out

    def gram(self, sig) -> np.ndarray:
        """Deformed Gram matrix of one multiset block, word order as in
        block_words."""
        sig = tuple(sig)
        return self.u_factor(sig) * self._unit.gram(sig)

    def gram_chol(self, sig) -> np.ndarray:
        sig = tuple(sig)
        return math.sqrt(self.u_factor(sig)) * self._unit.chol(sig)

    def gram_cond(self, sig) -> float:
        sig = tuple(sig)
        self._unit.chol(sig)
        return self._unit.cond[sig]

    def annihilation_transfer(self, sig, ell: int, side: str = "left") -> np.ndarray:
        """Block matrix of the left or right annihilation of letter ell
        on the block: includes the letter's squared length."""
        return self.u[ell] * self._unit.transfer_matrix(tuple(sig), ell, side)

    def gram_bruteforce(self, sig) -> np.ndarray:
        """Permutation-sum Gram of a block; independent oracle path,
        cost |block|^2 * n! * n, so levels are capped."""
        sig = tuple(sig)
        n = sum(sig)
        if n > BRUTE_FORCE_MAX_LEVEL:
            raise ValueError(
                f"brute-force Gram at level {n} exceeds cap {BRUTE_FORCE_MAX_LEVEL}"
            )
        words = np.array(self._unit.block_words(sig), dtype=np.int64).reshape(
            len(self._unit.block_words(sig)), n
        )
        if n == 0:
            return np.ones((1, 1))
        from .qcomb import inversions

        perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
        qpow = np.array([self.q ** inversions(p) for p in perms])
        permuted = words[:, perms]  # (m, n!, n)
        eq = (words[:, None, None, :] == permuted[None, :, :, :]).all(axis=3)
        return self.u_factor(sig) * (eq @ qpow)

    def inner_bruteforce(self, w, v) -> float:
        """Permutation-sum inner product of two words (any signatures)."""
        w, v = tuple(w), tuple(v)
        if len(w) != len(v):
            return 0.0
        n = len(w)
        if n > BRUTE_FORCE_MAX_LEVEL:
            raise ValueError(f"brute force at level {n} exceeds cap")
        total = 0.0
        for perm in itertools.permutations(range(n)):
            prod = 1.0
            for j in range(n):
                if w[j] != v[perm[j]]:
                    prod = 0.0
                    break
                prod *= self.u[w[j]]
            if prod:
                from .qcomb import inversions

                total += self.q ** inversions(perm) * prod
        return total

    # -- vectors --------------------------------------------------------

    def inner(self, f: "FockVector", g: "FockVector") -> complex:
        """Deformed inner product, conjugate linear in the first slot."""
        total = 0.0 + 0.0j
        fb = f.by_blocks(self)
        gb = g.by_blocks(self)
        for sig, (fi, fc) in fb.items():
            if sig not in gb:
                continue
            gi, gc = gb[sig]
            G = self.gram(sig)
            total += np.conj(fc) @ G[np.ix_(fi, gi)] @ gc
        return complex(total)

    def norm_sq(self, f: "FockVector") -> float:
        return float(self.inner(f, f).real)

    def norm(self, f: "FockVector") -> float:
        return math.sqrt(max(self.norm_sq(f), 0.0))


class FockVector:
    """Finite complex combination of words, stored sparsely."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms: dict = {}
        if terms:
            for w, c in dict(terms).items():
                c = complex(c)
                if c != 0:
                    self.terms[tuple(w)] = c

    @classmethod
    def vacuum(cls, coeff=1.0) -> "FockVector":
        return cls({(): coeff})

    @classmethod
    def word(cls, word, coeff=1.0) -> "FockVector":
        return cls({tuple(word): coeff})

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0.0) + c
        return FockVector(out)

    def __sub__(self, other):
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0.0) - c
        return FockVector(out)

    def __mul__(self, scalar):
        s = complex(scalar)
        return FockVector({w: s * c for w, c in self.terms.items()})

    __rmul__ = __mul__

    def conjugate(self) -> "FockVector":
        return FockVector({w: np.conj(c) for w, c in self.terms.items()})

    def levels(self):
        return sorted({len(w) for w in self.terms})

    def max_level(self) -> int:
        return max((len(w) for w in self.terms), default=0)

    def truncate(self, max_level: int) -> "FockVector":
        return FockVector(
            {w: c for w, c in self.terms.items() if len(w) <= max_level}
        )

    def coefficient(self, word) -> complex:
        return self.terms.get(tuple(word), 0.0 + 0.0j)

    def by_blocks(self, space: FockSpace):
        """Group into {signature: (index array, coefficient array)}."""
        grouped: dict = {}
        for w, c in self.terms.items():
            sig = space.signature(w)
            grouped.setdefault(sig, []).append((space.word_index(w), c))
        out = {}
        for sig, pairs in grouped.items():
            pairs.sort()
            idx = np.array([p[0] for p in pairs], dtype=np.int64)
            coef = np.array([p[1] for p in pairs], dtype=np.complex128)
            out[sig] = (idx, coef)
        return out


# -- module-level conveniences mirroring the operation catalogue ---------


def build_space(params: ModelParams | None = None, **kwargs) -> FockSpace:
    if params is None:
        params = ModelParams(**kwargs)
    elif kwargs:
        raise TypeError("pass either a ModelParams or keyword fields, not both")
    return FockSpace(params)


def gram(space: FockSpace, sig) -> np.ndarray:
    return space.gram(sig)


def gram_bruteforce(space: FockSpace, sig) -> np.ndarray:
    return space.gram_bruteforce(sig)


def inner(space: FockSpace, f: FockVector, g: FockVector) -> complex:
    return space.inner(f, g)


def norm(space: FockSpace, f: FockVector) -> float:
    return space.norm(f)


def orthonormalize(space: FockSpace, sig) -> np.ndarray:
    """Column transform T with T^T G T = I for one block: the inverse
    transpose of the lower Cholesky factor of the block Gram."""
    L = space.gram_chol(sig)
    from scipy.linalg import solve_triangular

    return solve_triangular(L, np.eye(L.shape[0]), lower=True).T


# -- serialization -------------------------------------------------------


def vector_to_json(space: FockSpace, vec: FockVector) -> str:
    levels = {}
    for w, c in vec.terms.items():
        levels.setdefault(len(w), []).append((space.word_name(w), c))
    payload = {
        "format": "qfock-vector-1",
        "levels": [
            {
                "level": lv,
                "terms": [
                    {"word": name, "coeff": [c.real, c.imag]}
                    for name, c in sorted(items)
                ],
            }
            for lv, items in sorted(levels.items())
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def vector_from_json(space: FockSpace, text: str) -> FockVector:
    payload = json.loads(text)
    if payload.get("format") != "qfock-vector-1":
        raise ValueError("not a serialized vector")
    terms = {}
    for level in payload["levels"]:
        for item in level["terms"]:
            word = space.parse_word(item["word"])
            re, im = item["coeff"]
            terms[word] = complex(re, im)
    return FockVector(terms)


def gram_block_to_json(space: FockSpace, sig) -> str:
    sig = tuple(sig)
    words = space.block_words(sig)
    G = space.gram(sig)
    payload = {
        "format": "qfock-gram-1",
        "level": sum(sig),
        "signature": {
            space.letter_name(ell): int(count) for ell, count in enumerate(sig)
        },
        "words": [space.word_name(w) for w in words],
        "matrix": [[float(x) for x in row] for row in G],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
