"""Truncated deformed Fock space over a small letter alphabet.

The one-particle space is spanned by mutually orthogonal letters: a
distinguished letter ``e`` with squared length lam^(-1/2), its conjugate
partner ``Ebar`` with squared length lam^(1/2), and optional auxiliary
unit letters fixed by the modular flow.  Level-n vectors are linear
combinations of length-n words over the alphabet.

Because the one-particle inner product is diagonal on letters, the
deformed Gram form of a level is block diagonal over letter multisets,
and inside a block the lambda-dependence is a single positive scalar.
The q-dependent "unit" Gram blocks therefore depend only on q and the
block's letter multiset, not on lambda or the depth: every live space at
one (q, letter count) reads them from one cache, which is freed with the
last such space.  They are built by a level recursion through
annihilation transfer matrices, each block in one array: every letter's
strip is written into its rows and the array is symmetrized in place.  A
brute-force permutation sum is kept as an independent test oracle for
small levels.  A unit block is exactly symmetric and its Cholesky factor
triangular, so the cache keeps one array for both: the block is factored
in the array that held it, by LAPACK's dpotrf('L'), which leaves L^T in
the upper triangle, diagonal included, and the Gram block's strict lower
triangle below it; the Gram diagonal is kept as a vector.  Read in
Fortran order (its transpose), the packed array has L in its lower
triangle, which is how LAPACK takes it without a copy.  A space hands
out Gram entries only as fresh arrays, each one gather from that array,
factored or not; a clean factor is a fresh C-ordered copy, and the
packed array is the one cached array a caller can see.  The cache takes
no lock: only the calling thread builds or factors a unit block, and a
solver thread (ops._pencil_norm) is handed packed arrays that are
already factored, which nothing writes again.
Every LAPACK routine the package runs (the factor, the triangular,
Cholesky and pencil solves, the pencil's eigenvalues) comes from the
library numpy links, called through ctypes from this module; scipy's
wrappers make the same calls where numpy exports no ILP64 routines.
A transfer has at most n nonzero entries in a column of n-letter words;
the cache builds and keeps only those, and every reader gets a fresh
dense copy.  A block's words follow the same recursion: its word array
stacks, for each letter in increasing order, that letter in front of the
reduced block's array, which is lexicographic order and the row order of
the Gram blocks.  Words are kept only as these arrays, looked up by
their base-L codes.

``ModelParams`` is the one home of the model's envelope: every space,
whether the library or the command line asks for it, is built from
parameters that passed its checks.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import math
import warnings
import weakref
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "Letter",
    "ModelParams",
    "FockSpace",
    "FockVector",
    "build_space",
    "BudgetExceededError",
    "GramFactorizationError",
    "GramConditionWarning",
]

BRUTE_FORCE_MAX_LEVEL = 7
# supported envelope: |q| <= Q_ENVELOPE and depth <= MAX_DEPTH; Gram
# blocks whose condition estimate exceeds COND_LIMIT raise a warning
Q_ENVELOPE = 0.9
MAX_DEPTH = 14
COND_LIMIT = 1e12
# the block scalars lambda^(+-n/2), n <= depth, must lie within
# 2^(+-SCALE_EXPONENT_MAX): the normal float range, 2^(+-1022), less 64
# bits for the unit Gram entries they multiply (at most [n]_q! <=
# (1 - |q|)^-n < 2^47 in the envelope) and for sums over a block's
# words (at most 3432 < 2^12)
SCALE_EXPONENT_MAX = 1022 - 64


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
    """Parameters of a truncated model, checked against the envelope
    the truncation supports; the command line refuses exactly the
    points refused here.

    q         deformation parameter, |q| <= Q_ENVELOPE < 1
    lam       asymmetry parameter of the two-dimensional part, 0 < lam < 1,
              with the block scalars lam^(+-depth/2) inside
              2^(+-SCALE_EXPONENT_MAX), so Gram blocks and operator
              products do not overflow
    depth     truncation level N, 0 <= N <= MAX_DEPTH; words longer than
              N are dropped
    aux_letters  number of extra unit letters fixed by the modular flow
    max_total_words  the most words, over every level, the model may
              enumerate (BudgetExceededError beyond it)
    """

    q: float
    lam: float
    depth: int
    aux_letters: int = 0
    max_total_words: int = 2_000_000

    def __post_init__(self):
        # written so that a NaN, which fails every comparison, is refused
        if not abs(self.q) <= Q_ENVELOPE:
            raise ValueError(
                f"q = {self.q} outside the supported envelope "
                f"|q| <= {Q_ENVELOPE}")
        if not 0.0 < self.lam < 1.0:
            raise ValueError(f"lambda = {self.lam} outside (0, 1)")
        if not 0 <= self.depth <= MAX_DEPTH:
            raise ValueError(f"depth {self.depth} outside [0, {MAX_DEPTH}]")
        if self.aux_letters < 0:
            raise ValueError("aux_letters must be >= 0")
        exponent = self.depth / 2.0 * -math.log2(self.lam)
        if exponent > SCALE_EXPONENT_MAX:
            raise ValueError(
                f"lambda = {self.lam} at depth {self.depth}: the block "
                f"scalars lambda^(+-depth/2) reach 2^(+-{exponent:.0f}), "
                f"beyond the 2^(+-{SCALE_EXPONENT_MAX}) that floats hold "
                f"with room for the Gram entries")
        total = sum(self.n_letters ** n for n in range(self.depth + 1))
        if total > self.max_total_words:
            raise BudgetExceededError(
                f"configuration enumerates {total} words "
                f"(> budget {self.max_total_words}); lower depth or "
                f"aux_letters, or raise max_total_words"
            )

    @property
    def n_letters(self) -> int:
        return 2 + self.aux_letters


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


def _sig_add(sig, ell: int, delta: int = 1):
    """The signature with delta more copies of letter ell."""
    out = list(sig)
    out[ell] += delta
    return tuple(out)


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
    # L is a factor checked finite by _factor_in_place, and y is finite
    # until an overflow, which the norm catches
    for _ in range(8):
        y = _solve_triangular(L, y, lower=True, check_finite=False)
        y = _solve_triangular(L.T, y, lower=False, check_finite=False)
        nrm = np.linalg.norm(y)
        if nrm == 0.0 or not np.isfinite(nrm):
            return np.inf
        lo = nrm
        y /= nrm
    return hi * lo  # sigma_max^2 * sigma_min^-2 of L = cond(L^T L)


# rows per strip, and the side of a tile, of the in-place passes below;
# a k x k tile's triangles are the views _LOWER[:k, :k] (diagonal
# included) and _STRICT_UPPER[:k, :k], built once.  _copy_upper mirrors
# a diagonal tile in strips of _LEAF rows
_TILE = 256
_LEAF = 16
_LOWER = np.tri(_TILE, dtype=bool)
_STRICT_UPPER = ~_LOWER


def _copy_upper(dst: np.ndarray, src: np.ndarray) -> None:
    """Copy the strict upper triangle of the square array src into dst's,
    one strip of _TILE rows at a time.  Values are copied, never added,
    so a -0.0 keeps its sign.  _copy_upper(P, P.T) mirrors P's strict
    lower triangle onto its strict upper one in place: it reads only
    entries it does not write.

    numpy copies a source that may overlap its destination, and a
    diagonal tile of P and of P.T span the same memory.  So a diagonal
    tile is itself copied in strips of _LEAF rows, each strip's part
    right of its own diagonal leaf first, whose source lies in later
    rows of P, and then the leaf through the tile mask: at most one
    _LEAF x _LEAF leaf (2 KiB) is copied whole at a time.  The
    off-diagonal part of a _TILE strip reads later rows of P too."""
    m = len(src)
    for i0 in range(0, m, _TILE):
        i1 = min(i0 + _TILE, m)
        dst[i0:i1, i1:] = src[i0:i1, i1:]
        for r0 in range(i0, i1, _LEAF):
            r1 = min(r0 + _LEAF, i1)
            dst[r0:r1, r1:i1] = src[r0:r1, r1:i1]
            k = r1 - r0
            np.copyto(dst[r0:r1, r0:r1], src[r0:r1, r0:r1],
                      where=_STRICT_UPPER[:k, :k])


def _symmetrize(G: np.ndarray) -> None:
    """G = 0.5 * (G + G.T) in place, bit for bit, one pair of tiles at a
    time: tile (i, j) takes S = 0.5 * (G_ij + G_ji.T) and tile (j, i)
    takes S.T, so entries (a, b) and (b, a) both get 0.5 * (g_ab + g_ba),
    one value since IEEE addition commutes."""
    m = len(G)
    for i0 in range(0, m, _TILE):
        i1 = min(i0 + _TILE, m)
        for j0 in range(i0, m, _TILE):
            j1 = min(j0 + _TILE, m)
            S = G[i0:i1, j0:j1] + G[j0:j1, i0:i1].T
            S *= 0.5
            G[i0:i1, j0:j1] = S
            G[j0:j1, i0:i1] = S.T


def _lower_factor(A: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """scale * L as a fresh C-ordered array with exact zeros above the
    diagonal, L the factor that the packed array A holds transposed in
    its upper triangle: the bits of np.tril(L) * scale for a positive
    scale.  Each strip of _TILE rows of L is copied from a strip of A's
    columns, its diagonal tile through the shared tile mask, so no
    m x m mask is built; the scale is then applied in place."""
    m = len(A)
    L = np.zeros((m, m))
    for i0 in range(0, m, _TILE):
        i1 = min(i0 + _TILE, m)
        L[i0:i1, :i0] = A[:i0, i0:i1].T
        k = i1 - i0
        np.copyto(L[i0:i1, i0:i1], A[i0:i1, i0:i1].T, where=_LOWER[:k, :k])
    if scale != 1.0:
        L *= scale
    return L


_I64 = ctypes.POINTER(ctypes.c_int64)
_CHR, _PTR, _LEN = ctypes.c_char_p, ctypes.c_void_p, ctypes.c_size_t
# uplo, trans, diag, n, nrhs, a, lda, b, ldb, info
_TRTRS = (_CHR, _CHR, _CHR, _I64, _I64, _PTR, _I64, _PTR, _I64, _I64,
          _LEN, _LEN, _LEN)
# the argument types of every LAPACK routine taken from numpy's library,
# in LAPACK's order: integers are 64-bit and go by reference, and the
# Fortran length of each character argument trails as a size_t
_LAPACK_ARGTYPES = {
    # uplo, n, a, lda, info
    "dpotrf": (_CHR, _I64, _PTR, _I64, _I64, _LEN),
    # jobz, uplo, n, a, lda, w, work, lwork, iwork, liwork, info
    "dsyevd": (_CHR, _CHR, _I64, _PTR, _I64, _PTR, _PTR, _I64, _PTR, _I64,
               _I64, _LEN, _LEN),
    "dtrtrs": _TRTRS,
    "ztrtrs": _TRTRS,
    # uplo, n, nrhs, a, lda, b, ldb, info
    "dpotrs": (_CHR, _I64, _I64, _PTR, _I64, _PTR, _I64, _I64, _LEN),
    # itype, uplo, n, a, lda, b, ldb, info
    "dsygst": (_I64, _CHR, _I64, _PTR, _I64, _PTR, _I64, _I64, _LEN),
}


@functools.cache
def _numpy_library():
    """The library that numpy.linalg links, the one np.linalg calls, as
    a ctypes library; None where it cannot be loaded."""
    from numpy.linalg import _umath_linalg

    try:
        return ctypes.CDLL(_umath_linalg.__file__)
    except OSError:
        return None


@functools.cache
def _numpy_lapack(name: str):
    """The LAPACK routine name, a key of _LAPACK_ARGTYPES, of
    _numpy_library() as a ctypes function; None where that library
    exports no ILP64 routine of that name (MKL or LP64 builds of numpy).
    Looked up on the first call for each name.  Without it, a caller
    runs the numpy or scipy function that makes the same call, which is
    also the tests' oracle."""
    lib = _numpy_library()
    if lib is None:
        return None
    for symbol in (f"scipy_{name}_64_", f"{name}_64_"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.argtypes = _LAPACK_ARGTYPES[name]
            fn.restype = None
            return fn
    return None


def _blas_threads() -> int | None:
    """The number of threads that _numpy_library()'s OpenBLAS runs a
    call on, read at each call; None where the library reports none
    (not an OpenBLAS)."""
    lib = _numpy_library()
    for symbol in ("scipy_openblas_get_num_threads64_",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.argtypes, fn.restype = (), ctypes.c_int
            return fn()
    return None


def _run(fn, *args) -> int:
    """Call the routine fn of _numpy_lapack on args, in LAPACK's order
    without info and the character lengths, and return info.  An int
    goes by reference as a 64-bit integer, an array by its data pointer,
    and bytes or a ctypes reference as they are.  The caller checks
    shapes, dtypes and memory order."""
    info = ctypes.c_int64(0)
    fn(*(ctypes.byref(ctypes.c_int64(a)) if isinstance(a, int)
         else a.ctypes.data if isinstance(a, np.ndarray) else a
         for a in args),
       ctypes.byref(info), *(1 for a in args if isinstance(a, bytes)))
    return info.value


def _lapack_operands(a: np.ndarray, b: np.ndarray, check_finite: bool):
    """The LAPACK type prefix ("d" or "z") and dtype of a solve of the
    square a against b, as scipy picks them: complex when either is.
    With check_finite, a NaN or inf in either raises ValueError, as
    scipy's asarray_chkfinite does."""
    if a.ndim != 2 or a.shape[0] != a.shape[1] or b.ndim not in (1, 2) \
            or len(b) != len(a):
        raise ValueError(f"shapes of a {a.shape} and b {b.shape} "
                         "are incompatible")
    if check_finite and not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    if np.iscomplexobj(a) or np.iscomplexobj(b):
        return "z", np.complex128
    return "d", np.float64


def _solve_triangular(a: np.ndarray, b: np.ndarray, lower: bool,
                      check_finite: bool = True) -> np.ndarray:
    """scipy.linalg.solve_triangular(a, b, lower=lower,
    check_finite=check_finite) bit for bit, with its shape, dtype and
    memory order, run by numpy's trtrs: the same call on the same data.
    As scipy's wrapper does, an a that is not Fortran-ordered is solved
    as a.T with the triangle and the transposition flipped, the real factor of a complex
    solve is cast to a complex Fortran copy, and b is copied into a
    Fortran array of the result dtype, which is returned.  A zero on the
    diagonal raises LinAlgError."""
    kind, dtype = _lapack_operands(a, b, check_finite)
    trtrs = _numpy_lapack(kind + "trtrs")
    if trtrs is None:
        from scipy.linalg import solve_triangular

        return solve_triangular(a, b, lower=lower, check_finite=False)
    trans = b"N"
    if not a.flags.f_contiguous:
        a, lower, trans = a.T, not lower, b"T"
    a = np.asarray(a, dtype, order="F")
    x = np.array(b, dtype, order="F")
    n = len(a)
    info = _run(trtrs, b"L" if lower else b"U", trans, b"N", n,
                1 if x.ndim == 1 else x.shape[1], a, n, x, n)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of "
                         "internal trtrs")
    return x


def _cho_solve(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """scipy.linalg.cho_solve((c, True), b) bit for bit, with its shape,
    dtype and memory order, run by numpy's dpotrs on the lower triangle
    of c: the same call on the same data.  c goes in as the Fortran copy
    that scipy's wrapper makes (none where c already is one), and b is
    copied into a Fortran array, which is returned.  A complex solve,
    which no operator makes (their blocks are real), is scipy's.  A NaN
    or inf in c or b raises ValueError."""
    kind, dtype = _lapack_operands(c, b, check_finite=True)
    potrs = _numpy_lapack("dpotrs") if kind == "d" else None
    if potrs is None:
        from scipy.linalg import cho_solve

        return cho_solve((c, True), b, check_finite=False)
    c = np.asarray(c, dtype, order="F")
    x = np.array(b, dtype, order="F")
    n = len(c)
    info = _run(potrs, b"L", n, 1 if x.ndim == 1 else x.shape[1], c, n,
                x, n)
    if info != 0:
        raise ValueError(f"illegal value in {-info}th argument of "
                         "internal potrs")
    return x


def _sygst_lower(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """scipy.linalg.lapack.dsygst(a, b, lower=1, overwrite_a=1)[0] bit
    for bit: L^-1 A L^-T in the lower triangle, A the symmetric matrix in
    a's lower triangle and L the factor in b's, run by numpy's dsygst on
    the same data.  As scipy's wrapper does, it works in a itself where a
    is a Fortran-ordered float64 array and in a Fortran copy otherwise,
    and b is read in place where it is one; the array worked in is
    returned.  Nothing is checked finite.  A nonzero info raises
    ValueError."""
    if a.ndim != 2 or a.shape[0] != a.shape[1] or b.shape != a.shape:
        raise ValueError(f"shapes of a {a.shape} and b {b.shape} differ")
    sygst = _numpy_lapack("dsygst")
    if sygst is None:
        from scipy.linalg.lapack import dsygst

        a, info = dsygst(a, b, lower=1, overwrite_a=1)
    else:
        a = np.asarray(a, np.float64, order="F")
        b = np.asarray(b, np.float64, order="F")
        n = len(a)
        info = _run(sygst, 1, b"L", n, a, n, b, n)
    if info != 0:
        raise ValueError(f"illegal value in {-info}th argument of "
                         "internal sygst")
    return a


def _eigvalsh_in_place(K: np.ndarray) -> np.ndarray:
    """np.linalg.eigvalsh(K), ascending, bit for bit, computed in the
    Fortran-ordered K itself, which it overwrites; only K's lower
    triangle is read.  eigvalsh runs numpy's dsyevd('N', 'L') on a
    Fortran copy of K, with the workspace a size query returns: the same
    call on the same Fortran data, here without the copy.  Where numpy's
    LAPACK exports no such dsyevd, eigvalsh itself runs."""
    if K.dtype != np.float64 or K.ndim != 2 or len(K) != K.shape[1] \
            or not K.flags.f_contiguous:
        raise ValueError("K must be a square, Fortran-ordered float64 array")
    syevd = _numpy_lapack("dsyevd")
    if syevd is None:
        return np.linalg.eigvalsh(K)
    n = len(K)
    w = np.empty(n)
    work, iwork = ctypes.c_double(0.0), ctypes.c_int64(0)
    info = _run(syevd, b"N", b"L", n, K, n, w, ctypes.byref(work), -1,
                ctypes.byref(iwork), -1)
    if info == 0:
        work = np.empty(int(work.value))
        iwork = np.empty(iwork.value, np.int64)
        info = _run(syevd, b"N", b"L", n, K, n, w, work, len(work), iwork,
                    len(iwork))
    if info != 0:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return w


def _factor_in_place(G: np.ndarray, diag: np.ndarray) -> str | None:
    """Overwrite the bit-symmetric, C-ordered G with its packed array:
    L^T, L the lower Cholesky factor of G, in the upper triangle,
    diagonal included, and G's strict lower triangle below it; the bits
    of L are np.linalg.cholesky's.  Returns None, or why G has no finite
    factor, with every bit of G as it was (diag is G's diagonal).

    np.linalg.cholesky runs dpotrf('L') on a Fortran copy of G.  Read in
    Fortran order, G's own array is G again, so the same call on it
    writes L^T into the C upper triangle and leaves G's strict lower
    triangle alone, which is the packed layout.  Where numpy's LAPACK
    exports no such dpotrf, np.linalg.cholesky itself runs and L^T is
    copied into G's upper triangle."""
    potrf = _numpy_lapack("dpotrf")
    if potrf is None:
        try:
            L = np.linalg.cholesky(G)
        except np.linalg.LinAlgError:
            return "is not numerically positive definite"
        if not np.isfinite(L).all():
            return "has a non-finite Cholesky factor"
        _copy_upper(G, L.T)
        np.fill_diagonal(G, L.diagonal())
        return None
    m = len(G)
    if _run(potrf, b"L", m, G, m) == 0:
        # the array is finite exactly when L is: G is symmetric, so a
        # non-finite entry of its strict lower triangle reaches L too
        if all(np.isfinite(G[i0:i0 + _TILE]).all()
               for i0 in range(0, m, _TILE)):
            return None
        why = "has a non-finite Cholesky factor"
    else:
        why = "is not numerically positive definite"
    # dpotrf wrote only the C upper triangle: mirror G's strict lower
    # triangle back onto it and put the diagonal back
    _copy_upper(G, G.T)
    np.fill_diagonal(G, diag)
    return why


class _UnitGramCache:
    """q-dependent, lambda-free part of the Gram data, shared by every
    space at one (q, letter count) whatever its lambda and depth.

    Per block (level, signature): one word table, the words as a
    small-integer array in lexicographic order with their sorted base-L
    codes (words are looked up by code only, and no tuples are kept),
    the unit Gram G (all letter lengths set to 1), built in one array,
    and per removed letter the unit annihilation transfer as its nonzero
    entries (shape, flat indices, values), built from the entries alone,
    which transfer_matrix scatters into a fresh array for the Gram
    recursion and the annihilation letters.  No dense transfer is
    stored, and none is built to find the entries.

    block[sig] is G until the block is factored.  chol then overwrites
    that array with the packed array A, as dpotrf('L') leaves it: L^T,
    L the lower Cholesky factor of G, in A's upper triangle, diagonal
    included, checked finite once so that solves against it skip the
    check, and G's strict lower triangle below it.  A.T, Fortran-ordered,
    has L in its lower triangle.  diag[sig] keeps G's diagonal and
    cond[sig] a condition estimate.  A block is factored exactly when it
    is in cond.  gather then reads G's entries from A and diag into a
    fresh array, and gram is its gather over the whole block.  gram of an
    unfactored block is the cached array itself, which chol overwrites,
    so only the recursion and chol read it: a space reads every block by
    gather.
    """

    def __init__(self, q: float, n_letters: int):
        self.q = q
        self.n_letters = n_letters
        self.arrays: dict = {}
        self.codes: dict = {}
        self.block: dict = {}
        self.diag: dict = {}
        self.cond: dict = {}
        self.transfer: dict = {}

    def word_array(self, sig):
        """The block's words in lexicographic order as an array of the
        smallest signed integer type that holds every letter (int8 up to
        128 letters), one word per row.  Built by the recursion of the
        Gram blocks: for each letter ell in the block, in increasing
        order, the column ell next to the array of the block without
        one ell."""
        if sig not in self.arrays:
            dtype = np.min_scalar_type(-self.n_letters)
            if sum(sig) == 0:
                W = np.zeros((1, 0), dtype)
            else:
                parts = []
                for ell in range(self.n_letters):
                    if sig[ell]:
                        R = self.word_array(_sig_add(sig, ell, -1))
                        parts.append(np.hstack(
                            (np.full((len(R), 1), ell, dtype), R)))
                W = np.vstack(parts)
            self.arrays[sig] = W
        return self.arrays[sig]

    def _word_codes(self, W: np.ndarray) -> np.ndarray:
        """Base-L code of each row of W, first letter most significant;
        within a block, lexicographic order is increasing code order."""
        n = W.shape[1]
        if self.n_letters ** n >= 2**63:
            raise OverflowError(
                f"words of length {n} over {self.n_letters} letters overflow "
                f"64-bit codes")
        weights = self.n_letters ** np.arange(n - 1, -1, -1, dtype=np.int64)
        return W.astype(np.int64) @ weights

    def rows_of(self, sig, W: np.ndarray) -> np.ndarray:
        """Index in block sig of each word (row) of the integer array W;
        raises KeyError if a word is not in the block."""
        if sig not in self.codes:
            self.codes[sig] = self._word_codes(self.word_array(sig))
        codes = self.codes[sig]
        if W.shape[1] != sum(sig):
            raise KeyError(f"words of length {W.shape[1]} are not in block {sig}")
        want = self._word_codes(W)
        rows = np.searchsorted(codes, want)
        found = rows < len(codes)
        found[found] = codes[rows[found]] == want[found]
        if not found.all():
            missing = tuple(int(l) for l in W[np.argmin(found)])
            raise KeyError(f"word {missing} is not in block {sig}")
        return rows

    def transfer_matrix(self, sig, ell: int, scale: float = 1.0) -> np.ndarray:
        """Unit left annihilation transfer for removing letter ell from
        the block, times scale, as a fresh array: rows index the reduced
        block, columns the source block, entry the sum of q^i over the
        positions i (0-based) holding ell whose removal yields the row
        word.

        Built from the entries alone, one position at a time over the
        block's word array: each position i gives the flat indices of
        its terms, and every entry, starting from 0.0, adds its terms
        in increasing i, as a loop over each word's positions adds
        them; q^i is the running product 1.0 * q * ... * q.  Entries
        that sum to exactly zero (q = 0 makes them) are dropped.  The
        cache keeps only the nonzero entries (at most n per column of
        n-letter words), in increasing flat index, and each call
        scatters scale times them into zeros, which is scale * T bit
        for bit for a positive scale: every zero stays +0.0.
        """
        key = (sig, ell)
        if key not in self.transfer:
            if sig[ell] == 0:
                raise KeyError(f"block {sig} holds no letter {ell}")
            src = self.word_array(sig)
            red_sig = _sig_add(sig, ell, -1)
            m = len(src)
            flat = []
            for i in range(sum(sig)):
                cols = np.flatnonzero(src[:, i] == ell)
                rows = self.rows_of(red_sig, np.delete(src[cols], i, axis=1))
                flat.append(rows * m + cols)
            nz, entry = np.unique(np.concatenate(flat), return_inverse=True)
            vals = np.zeros(len(nz))
            qp = 1.0
            start = 0
            for f in flat:
                # one position's columns are distinct, so are its entries
                vals[entry[start:start + len(f)]] += qp
                start += len(f)
                qp *= self.q
            kept = vals != 0.0
            self.transfer[key] = ((len(self.word_array(red_sig)), m),
                                  nz[kept], vals[kept])
        shape, nz, vals = self.transfer[key]
        out = np.zeros(shape)
        out.flat[nz] = scale * vals
        return out

    def gram(self, sig):
        """The unit Gram block: the cached array itself (read only)
        until the block is factored, which overwrites that array, then
        its gather over the whole block, a fresh copy.

        Built in one m x m array: letter ell's strip, the reduced
        block's gram times transfer_matrix(sig, ell), is written by
        np.matmul into the rows of the words ell opens, and _symmetrize
        then gives the array the bits of 0.5 * (G + G.T) in place.
        Besides the array, the build holds one reduced block and one
        transfer at a time."""
        if sig in self.cond:
            return self.gather(sig, slice(None), slice(None))
        if sig in self.block:
            return self.block[sig]
        m = len(self.word_array(sig))
        if sum(sig) == 0:
            G = np.ones((1, 1))
        else:
            # word_array stacks its rows over the first letter in the
            # same increasing order, so the strips fill G's rows in turn
            G = np.empty((m, m))
            r0 = 0
            for ell in range(self.n_letters):
                if sig[ell] == 0:
                    continue
                red = _sig_add(sig, ell, -1)
                r1 = r0 + len(self.word_array(red))
                np.matmul(self.gram(red), self.transfer_matrix(sig, ell),
                          out=G[r0:r1])
                r0 = r1
            assert r0 == m
            _symmetrize(G)
        self.block[sig] = G
        return G

    def gather(self, sig, rows, cols, out=None) -> np.ndarray:
        """gram(sig)[np.ix_(rows, cols)] as a fresh array, bit for bit,
        or the whole block for rows = cols = slice(None).  For a factored
        block, the whole block or equal, increasing rows and cols (an
        index map's block against itself) gather A's lower triangle,
        mirror it and set the diagonal; other pairs read gram(sig).

        The whole block may go into out, a real m x m array of any
        strides (the real part of a complex one, say), which is
        returned: the same copies, so the same bits, with no fresh
        array."""
        whole = isinstance(rows, slice)
        if out is not None and not whole:
            raise ValueError("out takes the whole block only")
        packed = sig in self.cond and (whole or (
            np.array_equal(rows, cols) and (rows[1:] > rows[:-1]).all()))
        src = self.block[sig] if packed else self.gram(sig)
        if whole:
            P = np.empty_like(src) if out is None else out
            np.copyto(P, src)
        else:
            P = src[np.ix_(rows, cols)]
        if packed:
            _copy_upper(P, P.T)
            np.fill_diagonal(P, self.diag[sig][rows])
        return P

    def chol(self, sig):
        """The block's packed array: the transposed lower Cholesky factor
        L^T of the unit Gram in its upper triangle, G's strict lower
        triangle below it.  Factors the block on first use, in the cached
        array that gram returned, so that array becomes the packed one; a
        refused block keeps G, every bit of it."""
        if sig in self.cond:
            return self.block[sig]
        G = self.gram(sig)
        diag = G.diagonal().copy()
        why = _factor_in_place(G, diag)
        if why is not None:
            raise GramFactorizationError(
                f"Gram block level={sum(sig)} signature={sig} at q={self.q} "
                f"{why}")
        # the factor is checked finite, so solves against it skip the check
        cond = _cond_estimate(_lower_factor(G))
        self.diag[sig] = diag
        self.cond[sig] = cond
        if cond > COND_LIMIT:
            warnings.warn(
                f"Gram block level={sum(sig)} signature={sig} at q={self.q} "
                f"has condition estimate {cond:.3e} beyond {COND_LIMIT:.1e}",
                GramConditionWarning,
                stacklevel=3,
            )
        return G


# (q, n_letters) -> the unit Gram cache of the live spaces there
_GRAM_CACHES = weakref.WeakValueDictionary()


class FockSpace:
    """A truncated model: parameters, letters, and cached Gram data."""

    def __init__(self, params: ModelParams):
        self.params = params
        self.letters = _make_letters(params)
        self.u = np.array([l.u_norm_sq for l in self.letters])
        self.aeig = np.array([l.a_eigenvalue for l in self.letters])
        key = (params.q, params.n_letters)
        self._unit = _GRAM_CACHES.get(key)
        if self._unit is None:
            self._unit = _GRAM_CACHES[key] = _UnitGramCache(*key)

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
        """The space at a different lambda; like every space at this q,
        it shares this one's Gram caches."""
        return FockSpace(replace(self.params, lam=lam))

    def blocks_at_level(self, level: int):
        """All multiset signatures at a level (may enumerate lazily
        populated blocks; the word lists themselves stay lazy)."""
        if not 0 <= level <= self.depth:
            raise ValueError(f"level {level} outside 0..{self.depth}")
        return list(_compositions(level, self.n_letters))

    def block_words(self, sig):
        """The rows of word_array(sig) as tuples, a fresh list."""
        return [tuple(w) for w in self.word_array(sig).tolist()]

    def word_index(self, word) -> int:
        W = np.array(word, dtype=np.int64).reshape(1, len(word))
        return int(self.rows_of(self.signature(word), W)[0])

    def word_array(self, sig) -> np.ndarray:
        """The block's words as an integer array, one word per row, in
        the order of block_words and of the Gram rows."""
        return self._unit.word_array(tuple(sig))

    def rows_of(self, sig, W: np.ndarray) -> np.ndarray:
        """Index in block sig of each word (row) of the integer array W."""
        return self._unit.rows_of(tuple(sig), W)

    def signature(self, word):
        return signature_of(word, self.n_letters)

    def letter_name(self, ell: int) -> str:
        return self.letters[ell].name

    def word_name(self, word) -> str:
        return "".join(self.letters[ell].name for ell in word)

    # -- Gram data ------------------------------------------------------

    def u_factor(self, sig) -> float:
        out = 1.0
        for ell, count in enumerate(sig):
            if count:
                out *= self.u[ell] ** count
        return out

    def gram(self, sig, out=None) -> np.ndarray:
        """Deformed Gram matrix of one multiset block, word order as in
        block_words: unit_gram scaled in place, a fresh array, or
        written into out (a real array of the block's shape, any
        strides), which is returned, with the same bits."""
        G = self._unit.gather(tuple(sig), slice(None), slice(None), out)
        G *= self.u_factor(sig)
        return G

    def gram_chol(self, sig) -> np.ndarray:
        """The lower Cholesky factor of gram(sig), a fresh C-ordered
        array with exact zeros above the diagonal."""
        return _lower_factor(self.unit_chol(sig),
                             math.sqrt(self.u_factor(sig)))

    def unit_gram(self, sig, rows=slice(None),
                  cols=slice(None)) -> np.ndarray:
        """The entries [np.ix_(rows, cols)] of gram(sig) / u_factor(sig),
        the unit Gram block shared by every space at this (q, letter
        count), as a fresh array whether or not the block is factored;
        by default the whole block.  The whole block and equal,
        increasing rows and cols read a factored block without
        rebuilding it."""
        return self._unit.gather(tuple(sig), rows, cols)

    def unit_chol(self, sig) -> np.ndarray:
        """The block's cached packed array, read only: its upper
        triangle, diagonal included, is L^T, L the lower Cholesky factor
        of unit_gram(sig), and its strict lower triangle is the Gram
        block's.  Its transpose is Fortran-ordered with L in the lower
        triangle; only solvers that read that triangle alone may take
        it as the factor."""
        return self._unit.chol(tuple(sig))

    def gram_cond(self, sig) -> float:
        """The condition estimate of gram(sig), taken when the unit
        block is factored (factoring it here if need be).  The tests
        take it for their precision floors, and the benchmark's deep
        session reports its largest as cond_max."""
        sig = tuple(sig)
        self._unit.chol(sig)
        return self._unit.cond[sig]

    def annihilation_transfer(self, sig, ell: int) -> np.ndarray:
        """Block matrix of the (left) annihilation of letter ell on the
        block: includes the letter's squared length."""
        return self._unit.transfer_matrix(tuple(sig), ell, self.u[ell])

    def gram_bruteforce(self, sig) -> np.ndarray:
        """Permutation-sum Gram of a block; independent oracle path,
        cost |block|^2 * n! * n, so levels are capped."""
        sig = tuple(sig)
        n = sum(sig)
        if n > BRUTE_FORCE_MAX_LEVEL:
            raise ValueError(
                f"brute-force Gram at level {n} exceeds cap {BRUTE_FORCE_MAX_LEVEL}"
            )
        if n == 0:
            return np.ones((1, 1))
        words = self.word_array(sig)
        from .qcomb import inversions

        perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
        qpow = np.array([self.q ** inversions(p) for p in perms])
        permuted = words[:, perms]  # (m, n!, n)
        eq = (words[:, None, None, :] == permuted[None, :, :, :]).all(axis=3)
        return self.u_factor(sig) * (eq @ qpow)

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
            G = self.u_factor(sig) * self.unit_gram(sig, fi, gi)
            total += np.conj(fc) @ G @ gc
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
            grouped.setdefault(space.signature(w), []).append((w, c))
        out = {}
        for sig, pairs in grouped.items():
            W = np.array([w for w, _ in pairs], dtype=np.int64)
            idx = space.rows_of(sig, W.reshape(len(pairs), sum(sig)))
            order = np.argsort(idx)
            coef = np.array([c for _, c in pairs], dtype=np.complex128)
            out[sig] = (idx[order], coef[order])
        return out


# -- construction --------------------------------------------------------


def build_space(params: ModelParams | None = None, **kwargs) -> FockSpace:
    if params is None:
        params = ModelParams(**kwargs)
    elif kwargs:
        raise TypeError("pass either a ModelParams or keyword fields, not both")
    return FockSpace(params)

