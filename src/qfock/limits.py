"""Truncation-honest convergence studies on the deformed Fock model.

Everything here reduces a limit claim to finite data: a sequence of
values computed exactly on the truncated space, the closed-form limit,
and the gap per step.  Reports never extrapolate; they record a
monotone-trend flag and the final gap and leave pass/fail thresholds
to the caller.

The compression sequence (``t_n_operator``), the inverse-candidate
series (``s_n_operator`` / ``s_infinity``), and the rank-one witness
sequence (``z_n_operator``) all act on a shared ``FockSpace``; the
sweep shares one space's Gram data across the lambdas of each q.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

from . import ops
from .fock import (
    E,
    EBAR,
    BudgetExceededError,
    FockSpace,
    FockVector,
    build_space,
)
from .qcomb import (
    PAIRING_CAP,
    bound_constants,
    d_family,
    pair_partition_moment,
    q_binomial,
    q_factorial,
)

__all__ = [
    "ConvergenceReport",
    "InvertibilityCertificate",
    "TruncatedSeries",
    "XiVector",
    "adjoint_vacuum",
    "boundedness_scan",
    "centralizer_word",
    "comp_limit",
    "invertibility_certificate",
    "lim_decay",
    "moment_check",
    "rank_one_diagnostics",
    "s_infinity",
    "s_n_operator",
    "s_series_identity_gap",
    "t_eigenvalue",
    "t_limit_check",
    "t_n_operator",
    "xi_vector",
    "z_n_operator",
]


# -- report plumbing -----------------------------------------------------


def _trend_nonincreasing(gaps, rtol=0.05, atol=1e-12) -> bool:
    """Non-increasing up to a small relative wiggle; plateaus at
    roundoff level count as flat."""
    for a, b in zip(gaps, gaps[1:]):
        if b > max(a * (1.0 + rtol), a + atol):
            return False
    return True


def _jsonable(x):
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, complex):
        return {"re": x.real, "im": x.imag}
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


@dataclass
class ConvergenceReport:
    """Finite-truncation evidence for one limit claim."""

    name: str
    q: float
    lam: float
    depth: int
    values: list            # (n, float) or (n, {key: float})
    limit: float | None
    gaps: list              # one nonnegative float per entry of values
    monotone: bool
    final_gap: float
    details: dict = field(default_factory=dict)

    def passed(self, gap_threshold: float, require_trend: bool = True) -> bool:
        ok = self.final_gap <= gap_threshold
        if require_trend:
            ok = ok and self.monotone
        return ok

    def to_json_dict(self) -> dict:
        return {
            "format": "qfock-report-1",
            "name": self.name,
            "q": self.q,
            "lam": self.lam,
            "depth": self.depth,
            "values": _jsonable(self.values),
            "limit": _jsonable(self.limit),
            "gaps": _jsonable(list(self.gaps)),
            "monotone": self.monotone,
            "final_gap": self.final_gap,
            "details": _jsonable(self.details),
        }

    def csv_rows(self) -> list:
        """Flat rows, one per (n) step, dict values exploded by key."""
        rows = []
        for (n, val), gap in zip(self.values, self.gaps):
            if isinstance(val, dict):
                for key in sorted(val):
                    rows.append({
                        "check": self.name, "q": self.q, "lam": self.lam,
                        "n": n, "key": key, "value": val[key], "gap": gap,
                    })
            else:
                rows.append({
                    "check": self.name, "q": self.q, "lam": self.lam,
                    "n": n, "key": "value", "value": val, "gap": gap,
                })
        return rows


def _report(name, space, values, limit, gaps, details=None) -> ConvergenceReport:
    gaps = [float(g) for g in gaps]
    if any(g < 0 for g in gaps):
        raise ValueError("gaps must be nonnegative")
    return ConvergenceReport(
        name=name,
        q=space.q,
        lam=space.lam,
        depth=space.depth,
        values=values,
        limit=limit,
        gaps=gaps,
        monotone=_trend_nonincreasing(gaps),
        final_gap=gaps[-1] if gaps else 0.0,
        details=details or {},
    )


# -- the compression sequence T_n ---------------------------------------


def t_eigenvalue(q: float, k: int, n: int) -> float:
    """Product over j = 1..n of (1 - q^(k+j)); the exact eigenvalue of
    the n-th compression on the k-th pure power of the distinguished
    letter."""
    out = 1.0
    for j in range(1, n + 1):
        out *= 1.0 - q ** (k + j)
    return out


def t_n_operator(space: FockSpace, n: int, ladders=None) -> ops.FockOperator:
    """Scaled n-fold annihilation-after-creation of the distinguished
    letter; level preserving, diagonal on its pure powers.

    ``ladders`` is an optional pair of ``ops.power_ladder`` lists, for
    the annihilation and the creation of the distinguished letter, with
    at least n rungs each; series over several steps pass shared ones.
    The operator caches its block results.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > space.depth:
        raise ValueError(f"compression step {n} exceeds depth {space.depth}")
    if ladders is None:
        ladders = (ops.power_ladder(ops.annihilation_letter(space, E), n),
                   ops.power_ladder(ops.creation_letter(space, E), n))
    ae_pow, ce_pow = ladders
    scale = (1.0 - space.q) ** n * space.lam ** (n / 2.0)
    out = ops.memoized(scale * (ae_pow[n] @ ce_pow[n]))
    out.label = f"T[{n}]"
    return out


def t_limit_check(space: FockSpace, k_max: int | None = None,
                  n_max: int | None = None, k_scan: int = 200) -> ConvergenceReport:
    """Eigenvalue identity, limit gap, spectral bounds and the sup-form
    error bound for the compression sequence.

    The per-n value is the largest distance, over pure powers k <= k_max,
    between the step-n eigenvalue and its limit.
    """
    N = space.depth
    q = space.q
    if k_max is None:
        k_max = N // 2
    if n_max is None:
        n_max = N - k_max
    if k_max + n_max > N:
        raise ValueError(f"k_max + n_max = {k_max + n_max} exceeds depth {N}")

    # operator-level identity on every in-budget (n, k) pair
    ae = ops.annihilation_letter(space, E)
    ce = ops.creation_letter(space, E)
    eig_err = 0.0
    for k in range(0, N):
        base = FockVector.word((E,) * k)
        w = base
        for n in range(1, N - k + 1):
            w = ce.apply(w)
            v = w
            for _ in range(n):
                v = ae.apply(v)
            scale = (1.0 - q) ** n * space.lam ** (n / 2.0)
            meas = scale * v.coefficient((E,) * k)
            eig_err = max(eig_err, abs(meas - t_eigenvalue(q, k, n)))

    fam = d_family(q, j_max=k_scan + n_max + 1)
    d = np.asarray(fam.d)
    d_inf = fam.d_inf

    values = []
    gaps = []
    bound_ok = True
    ratio_sup = max(d[n + k] / d[k]
                    for n in range(1, n_max + 1) for k in range(k_scan))
    for n in range(1, n_max + 1):
        gap_n = max(abs(d[n + k] - d_inf) / d[k] for k in range(k_max + 1))
        sup_form = max(abs(1.0 - d_inf / d[n + k]) for k in range(k_scan))
        if gap_n > ratio_sup * sup_form + 1e-12:
            bound_ok = False
        values.append((n, gap_n))
        gaps.append(gap_n)

    # spectral bounds of the limit eigenvalues d_inf / d_k
    eigs = d_inf / d[:k_scan]
    if q >= 0:
        lo, hi = d_inf, 1.0
    else:
        lo, hi = d_inf / (1.0 - q), 1.0 - q
    bounds_ok = bool(eigs.min() >= lo - 1e-12 and eigs.max() <= hi + 1e-12)

    beta = float(eigs.max())
    beta_condition = q < 0 and abs(q) * (1.0 + abs(q)) <= 1.0 + 1e-15

    details = {
        "eig_identity_max_err": eig_err,
        "bounds_ok": bounds_ok,
        "spectrum_lo": lo,
        "spectrum_hi": hi,
        "spectrum_min": float(eigs.min()),
        "spectrum_max": float(eigs.max()),
        "sup_bound_ok": bound_ok,
        "sup_bound_constant": ratio_sup,
        "beta": beta,
        "beta_condition": beta_condition,
        "beta_equals_d_inf": bool(abs(beta - d_inf) <= 1e-12),
        "d_inf": d_inf,
    }
    return _report("t_limit", space, values, 0.0, gaps, details)


# -- the inverse-candidate series ---------------------------------------


def s_n_operator(space: FockSpace, n: int) -> ops.FockOperator:
    """Step-n candidate: scaled n-fold annihilation composed with the
    Wick operator of the n-th pure power."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > space.depth:
        raise ValueError(f"series step {n} exceeds depth {space.depth}")
    ae = ops.annihilation_letter(space, E)
    scale = (1.0 - space.q) ** n * space.lam ** (n / 2.0)
    out = scale * (ae.power(n) @ ops.wen_operator(space, n))
    out.label = f"S[{n}]"
    return out


def s_series_identity_gap(space: FockSpace, n: int,
                          src_level_max: int | None = None) -> float:
    """Relative action gap between the step-n candidate and its
    annihilation-sandwich expansion; zero up to roundoff at every n."""
    q, lam = space.q, space.lam
    ae = ops.annihilation_letter(space, E)
    aeb = ops.annihilation_letter(space, EBAR)
    total = None
    for k in range(n + 1):
        coef = q_binomial(n, k, q) * (1.0 - q) ** k * lam ** (k / 2.0)
        term = coef * (ae.power(k) @ t_n_operator(space, n - k) @ aeb.power(k))
        total = term if total is None else total + term
    if src_level_max is None:
        src_level_max = space.depth - n
    return ops.action_gap(s_n_operator(space, n), total, src_level_max)


def adjoint_vacuum(space: FockSpace, A: ops.FockOperator,
                   level_max: int) -> FockVector:
    """The vector A*(vacuum), recovered block by block from matrix
    elements of A against words up to level_max."""
    if A.antilinear:
        raise ValueError("adjoint recovery implemented for linear operators")
    vac_sig = (0,) * space.n_letters
    terms: dict = {}
    for level in range(level_max + 1):
        for sig in space.blocks_at_level(level):
            act = A.action(sig)
            if vac_sig not in act:
                continue
            row = np.asarray(act[vac_sig])[0, :]
            if not np.any(row):
                continue
            G = space.gram(sig)
            x = np.linalg.solve(G, np.conj(row))
            words = space.block_words(sig)
            for i in np.nonzero(x)[0]:
                terms[words[i]] = terms.get(words[i], 0.0) + x[i]
    return FockVector(terms)


def s_adjoint_vacuum_closed_form(space: FockSpace, n: int) -> FockVector:
    """Closed form of the step-n adjoint applied to the vacuum: balanced
    pair words weighted by ratios of the partial products."""
    q, lam = space.q, space.lam
    fam = d_family(q, j_max=n)
    d = fam.d
    terms = {}
    for k in range(n + 1):
        coef = (1.0 - q) ** k * (d[n] ** 2 / (d[n - k] * d[k] ** 2)) \
            * lam ** (k / 2.0)
        terms[(EBAR,) * k + (E,) * k] = coef
    return FockVector(terms)


@dataclass
class TruncatedSeries:
    """A series operator cut at finitely many terms, with the analytic
    bound on what was dropped."""

    op: ops.FockOperator
    n_terms: int
    tail_bound: float


def s_infinity(space: FockSpace, n_terms: int | None = None,
               t_cap: int | None = None) -> TruncatedSeries:
    """Truncated limit series: sum over k of c_k (1-q)^k lam^(k/2)
    (annihilations of the letter)^k T (annihilations of the conjugate)^k
    with T realized adaptively as a deep compression step.

    The compression order at each source block is the largest one the
    depth allows, optionally capped by t_cap; the reported tail bound
    covers only the dropped series terms.  Every power of a letter and
    every compression step is built once and caches its block results
    for as long as the series operator lives.
    """
    N = space.depth
    q, lam = space.q, space.lam
    K = N // 2 if n_terms is None else n_terms
    if K > N // 2:
        raise BudgetExceededError(
            f"series with {K} terms needs depth >= {2 * K}, have {N}")
    fam = d_family(q, j_max=K)
    coefs = [fam.c[k] * (1.0 - q) ** k * lam ** (k / 2.0)
             for k in range(K + 1)]

    m_max = N if t_cap is None else max(min(N, t_cap), 0)
    ae_pow = ops.power_ladder(ops.annihilation_letter(space, E),
                              max(K, m_max))
    aeb_pow = ops.power_ladder(ops.annihilation_letter(space, EBAR), K)
    ce_pow = ops.power_ladder(ops.creation_letter(space, E), m_max)
    T = [t_n_operator(space, m, (ae_pow, ce_pow)) for m in range(m_max + 1)]

    def act(sig):
        level = sum(sig)
        acc: dict = {}
        for k in range(K + 1):
            if sig[E] < k or sig[EBAR] < k:
                continue
            m = N - (level - k)
            if t_cap is not None:
                m = min(m, t_cap)
            m = max(m, 0)
            chain = ae_pow[k] @ T[m] @ aeb_pow[k]
            for tgt, M in chain.action(sig).items():
                add = coefs[k] * M
                acc[tgt] = acc[tgt] + add if tgt in acc else add
        return acc

    out = ops.FockOperator(space, act, reach=0, peak=0,
                           label=f"Sinf[{K}]")

    bc = bound_constants(q)
    if q > 0:
        coef = bc.c_q
    elif q < 0:
        coef = bc.c_q ** 2 * bc.d_sup * (1.0 - q)
    else:
        coef = 1.0
    root = math.sqrt(lam)
    tail = coef * root ** (K + 1) / (1.0 - root)
    return TruncatedSeries(op=out, n_terms=K, tail_bound=tail)


# -- invertibility certificates -----------------------------------------


@dataclass
class InvertibilityCertificate:
    """Analytic threshold data next to measured smallest singular
    values of the truncated series."""

    q: float
    lam: float
    threshold: float
    c_q: float
    d_inf: float
    d_sup: float
    t_inv_norm_bound: float
    v_norm_bound: float
    product: float
    analytic_verdict: bool
    q_zero_flag: bool
    min_singular: list      # (depth, source window, value)
    tail_bounds: list       # (depth, series terms, tail bound)
    details: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "format": "qfock-certificate-1",
            "q": self.q,
            "lam": self.lam,
            "threshold": self.threshold,
            "c_q": self.c_q,
            "d_inf": self.d_inf,
            "d_sup": self.d_sup,
            "t_inv_norm_bound": self.t_inv_norm_bound,
            "v_norm_bound": self.v_norm_bound,
            "product": self.product,
            "analytic_verdict": self.analytic_verdict,
            "q_zero_flag": self.q_zero_flag,
            "min_singular": _jsonable(self.min_singular),
            "tail_bounds": _jsonable(self.tail_bounds),
            "details": _jsonable(self.details),
        }

    def csv_rows(self) -> list:
        rows = []
        for (depth, window, sigma) in self.min_singular:
            rows.append({
                "check": "invertibility", "q": self.q, "lam": self.lam,
                "n": depth, "key": f"min_singular_w{window}",
                "value": sigma, "gap": self.product,
            })
        return rows


def invertibility_threshold(q: float) -> float:
    """The closed-form deformation bound below which the series is
    provably invertible; both signed branches, with the q = 0 limit of
    the formulas in between."""
    if not -1.0 < q < 1.0:
        raise ValueError("q must lie in (-1, 1)")
    bc = bound_constants(q)
    d_inf = d_family(q, j_max=0).d_inf
    if q >= 0:
        ratio = bc.c_q / d_inf
    else:
        ratio = (bc.c_q * (1.0 - q)) ** 2 * bc.d_sup / d_inf
    return (1.0 + ratio) ** -2


def invertibility_certificate(q: float, lam: float,
                              truncations=(8, 10, 12),
                              window_margin: int = 2,
                              t_cap: int | None = 6,
                              space_factory=None,
                              n_terms: int | None = None) -> InvertibilityCertificate:
    """Analytic invertibility data for the limit series at (q, lam),
    plus measured smallest singular values across truncation depths.

    The numeric column uses source windows depth - window_margin so the
    window grows with the truncation; q = 0 is allowed but flagged,
    since the threshold there comes from the formula limit rather than
    the sharp kernel boundary.  ``n_terms`` is the series order at every
    depth (default: half the depth, as in s_infinity).
    """
    fam = d_family(q, j_max=0)
    bc = bound_constants(q)
    d_inf = fam.d_inf
    threshold = invertibility_threshold(q)
    if q > 0:
        t_inv = 1.0 / d_inf
        v_coef = bc.c_q
    elif q < 0:
        t_inv = (1.0 - q) / d_inf
        v_coef = bc.c_q ** 2 * bc.d_sup * (1.0 - q)
    else:
        t_inv = 1.0
        v_coef = 1.0
    root = math.sqrt(lam)
    v_norm_bound = v_coef * root / (1.0 - root)
    product = t_inv * v_norm_bound
    verdict = bool(lam < threshold)

    t_lower = d_inf if q >= 0 else d_inf / (1.0 - q)

    sigmas = []
    tails = []
    for N in sorted(truncations):
        if space_factory is None:
            space = build_space(q=q, lam=lam, depth=N)
        else:
            space = space_factory(q, lam, N)
        series = s_infinity(space, n_terms=n_terms, t_cap=t_cap)
        window = max(N - window_margin, 0)
        sigma = ops.min_singular(series.op, src_level_max=window)
        sigmas.append((N, window, float(sigma)))
        tails.append((N, series.n_terms, series.tail_bound))

    details = {
        "t_cap": t_cap,
        "t_lower_bound": t_lower,
        "sigma_lower_estimate": (1.0 - product) * t_lower - tails[-1][2]
        if product < 1.0 else None,
    }
    return InvertibilityCertificate(
        q=q, lam=lam, threshold=threshold, c_q=bc.c_q, d_inf=d_inf,
        d_sup=bc.d_sup, t_inv_norm_bound=t_inv, v_norm_bound=v_norm_bound,
        product=product, analytic_verdict=verdict, q_zero_flag=(q == 0.0),
        min_singular=sigmas, tail_bounds=tails, details=details,
    )


# -- the distinguished vector -------------------------------------------


@dataclass
class XiVector:
    """Truncation of the distinguished cyclic vector with its exact
    norm bookkeeping."""

    vector: FockVector
    n_terms: int
    norm_sq_closed_form: float
    tail_bound: float               # on the dropped norm
    fixed_point_residual: float | None = None
    residual_window: int | None = None


def xi_norm_sq_limit(q: float, lam: float, terms: int = 400) -> float:
    """Fully converged closed-form squared norm of the distinguished
    vector."""
    fam = d_family(q, j_max=terms)
    d = np.asarray(fam.d)
    return fam.d_inf ** 2 * float(np.sum(lam ** np.arange(terms + 1) / d ** 2))


def xi_vector(space: FockSpace, n_terms: int | None = None,
              compute_residual: bool = True) -> XiVector:
    """Truncated distinguished vector: balanced conjugate/plain pair
    words with inverse-partial-product weights.

    The fixed-point residual re-derives the vector from the one-letter
    Wick relation; the identity is exact on levels <= 2(K-1) once the
    Wick series carries K terms, so the residual is measured there.
    """
    N = space.depth
    q, lam = space.q, space.lam
    K = N // 2 if n_terms is None else n_terms
    if 2 * K > N:
        raise BudgetExceededError(
            f"vector with {K} terms needs depth >= {2 * K}, have {N}")
    fam = d_family(q, j_max=K)
    d = fam.d
    d_inf = fam.d_inf
    terms = {}
    for k in range(K + 1):
        terms[(EBAR,) * k + (E,) * k] = (
            d_inf * (1.0 - q) ** k * lam ** (k / 2.0) / d[k] ** 2)
    vec = FockVector(terms)
    closed = d_inf ** 2 * sum(lam ** k / d[k] ** 2 for k in range(K + 1))
    bc = bound_constants(q)
    tail = d_inf * bc.c_q * lam ** ((K + 1) / 2.0) / math.sqrt(1.0 - lam)

    residual = None
    window = None
    if compute_residual:
        K_res = min(K, (N - 2) // 2)
        window = 2 * (K_res - 1)
        if window >= 0:
            wick_xi_parts = []
            for k in range(K_res + 1):
                coef = d_inf * (1.0 - q) ** k * lam ** (k / 2.0) / d[k] ** 2
                wick_xi_parts.append((coef, ops.wick_balanced(space, k)))
            e_vec = FockVector.word((E,))
            acc = FockVector()
            for coef, W in wick_xi_parts:
                acc = acc + coef * W.apply(e_vec)
            rhs = math.sqrt(lam) * (1.0 - q) \
                * ops.wick(space, (EBAR,)).apply(acc)
            diff = (rhs - vec).truncate(window)
            residual = space.norm(diff) / space.norm(vec)
        else:
            window = None
    return XiVector(vector=vec, n_terms=K, norm_sq_closed_form=closed,
                    tail_bound=tail, fixed_point_residual=residual,
                    residual_window=window)


# -- rank-one witness sequence ------------------------------------------


def z_n_operator(space: FockSpace, n: int) -> ops.FockOperator:
    """Scaled right-then-left Wick operator of the balanced pair word.
    Its worst-case intermediate raise is 4n, so compressions should go
    through the pairing route rather than direct application near the
    depth."""
    if 2 * n > space.depth:
        raise ValueError(
            f"balanced word of size {2 * n} exceeds depth {space.depth}")
    q = space.q
    out = (1.0 - q) ** (2 * n) * (
        ops.wick_right_balanced(space, n) @ ops.wick_balanced(space, n))
    out.label = f"z[{n}]"
    return out


def _window_blocks(space: FockSpace, level_max: int):
    """Blocks up to a level with their offsets in one stacked index."""
    blocks = []
    offset = 0
    for level in range(level_max + 1):
        for sig in space.blocks_at_level(level):
            dim = len(space.block_words(sig))
            blocks.append((sig, offset, dim))
            offset += dim
    return blocks, offset


def _stacked_images(space: FockSpace, A: ops.FockOperator, blocks, width):
    """Word-basis images of every window block under A, stacked per
    target block: {target_sig: matrix of shape (dim_target, width)}."""
    out: dict = {}
    for sig, offset, dim in blocks:
        for tgt, M in A.action(sig).items():
            tdim = M.shape[0]
            if tgt not in out:
                out[tgt] = np.zeros((tdim, width), dtype=complex)
            out[tgt][:, offset:offset + dim] += M
    return out


def rank_one_diagnostics(space: FockSpace, n_list=None,
                         window_cap: int = 8) -> ConvergenceReport:
    """Top-of-spectrum diagnostics of the compressed witness sequence.

    For each n the witness is compressed to the orthonormalized window
    of levels <= min(depth - 2n, window_cap) through the exact pairing
    with Wick images of the balanced pair word; reported per n: the top
    singular value against the squared norm of the window-restricted
    distinguished vector, the second-to-first singular ratio, and the
    absolute cosine to the distinguished vector (phase-free match).
    """
    N = space.depth
    q, lam = space.q, space.lam
    if n_list is None:
        n_list = list(range(1, (N - 1) // 2 + 1))
    fam = d_family(q, j_max=N)
    norm_sq_full = xi_norm_sq_limit(q, lam)

    values = []
    gaps = []
    vacuum_track = []
    for n in n_list:
        L = min(N - 2 * n, window_cap)
        if L < 0:
            raise ValueError(f"witness step {n} leaves no window at depth {N}")
        scale = (1.0 - q) ** (2 * n)
        Wb = ops.wick_balanced(space, n)
        Wrb = ops.wick_right_balanced(space, n)
        blocks, width = _window_blocks(space, L)
        U = _stacked_images(space, Wrb, blocks, width)
        V = _stacked_images(space, Wb, blocks, width)
        M = np.zeros((width, width), dtype=complex)
        for tgt, Vt in V.items():
            if tgt in U:
                M += U[tgt].conj().T @ (space.gram(tgt) @ Vt)
        M *= scale
        # into the orthonormal frame of the window
        for sig, offset, dim in blocks:
            Lc = space.gram_chol(sig)
            sl = slice(offset, offset + dim)
            M[sl, :] = scipy.linalg.solve_triangular(Lc, M[sl, :], lower=True)
            M[:, sl] = scipy.linalg.solve_triangular(
                Lc, M[:, sl].conj().T, lower=True).conj().T
        asym = float(np.linalg.norm(M - M.conj().T) /
                     max(np.linalg.norm(M), 1e-300))
        H = (M + M.conj().T) / 2.0
        evals, evecs = np.linalg.eigh(H)
        order = np.argsort(np.abs(evals))[::-1]
        sigma1 = float(np.abs(evals[order[0]]))
        sigma2 = float(np.abs(evals[order[1]])) if len(evals) > 1 else 0.0
        top = evecs[:, order[0]]

        # window coordinates of the distinguished vector
        xi_coords = np.zeros(width, dtype=complex)
        for k in range(L // 2 + 1):
            coef = fam.d_inf * (1.0 - q) ** k * lam ** (k / 2.0) \
                / fam.d[k] ** 2
            word = (EBAR,) * k + (E,) * k
            sig = space.signature(word)
            for bsig, offset, dim in blocks:
                if bsig == sig:
                    x = np.zeros(dim, dtype=complex)
                    x[space.word_index(word)] = coef
                    xi_coords[offset:offset + dim] += \
                        space.gram_chol(sig).conj().T @ x
                    break
        xi_win_norm = float(np.linalg.norm(xi_coords))
        cosine = float(abs(np.vdot(top, xi_coords)) /
                       max(xi_win_norm * np.linalg.norm(top), 1e-300))

        vac = scale * space.norm_sq(FockVector.word((EBAR,) * n + (E,) * n))
        vacuum_track.append((n, float(vac),
                             abs(vac - fam.d_inf ** 2)))

        values.append((n, {
            "sigma1": sigma1,
            "ratio": sigma2 / sigma1 if sigma1 > 0 else 0.0,
            "cosine": cosine,
            "window": float(L),
            "window_norm_sq": xi_win_norm ** 2,
            "asymmetry": asym,
        }))
        gaps.append(abs(sigma1 - xi_win_norm ** 2))

    details = {
        "norm_sq_limit": norm_sq_full,
        "vacuum_sequence": vacuum_track,
        "window_cap": window_cap,
    }
    return _report("rank_one", space, values, norm_sq_full, gaps, details)


# -- decoupled limits of balanced-word pairings -------------------------


def comp_limit(space: FockSpace, a: int, b: int, alpha: int, beta: int,
               eta=(), chi=(), n_max: int | None = None) -> ConvergenceReport:
    """Scaled pairings of padded balanced words against the closed-form
    decoupled limit.

    eta rides in front of the left word, chi at the back of the right
    word; the limit factors through the two Dirac conditions and
    one-block overlaps of eta and chi."""
    N = space.depth
    q, lam = space.q, space.lam
    eta = tuple(eta)
    chi = tuple(chi)
    j, i = len(eta), len(chi)
    feas = min(N - b - beta - j, N - a - alpha - i)
    if feas < 0:
        raise ValueError("padding already exceeds the depth at n = 0")
    n_hi = feas // 2
    if n_max is not None:
        n_hi = min(n_hi, n_max)

    dirac = (a == b + j) and (alpha + i == beta)
    fam = d_family(q, j_max=0)
    if dirac:
        ebj = FockVector.word((EBAR,) * j)
        ei = FockVector.word((E,) * i)
        f1 = space.inner(FockVector.word(eta), ebj) / space.norm_sq(ebj)
        f2 = space.inner(ei, FockVector.word(chi)) / space.norm_sq(ei)
        # real coefficients and real Gram blocks throughout
        limit = float((fam.d_inf ** 2 * lam ** ((a - beta) / 2.0)
                       * (1.0 - q) ** (-(a + beta)) * f1 * f2).real)
    else:
        limit = 0.0

    left0 = eta + (EBAR,) * b + (E,) * beta
    right0 = (EBAR,) * a + (E,) * alpha + chi
    same_block = (space.signature(left0) == space.signature(right0))

    values = []
    gaps = []
    for n in range(n_hi + 1):
        left = eta + (EBAR,) * (n + b) + (E,) * (n + beta)
        right = (EBAR,) * (n + a) + (E,) * (n + alpha) + chi
        val = (1.0 - q) ** (2 * n) * space.inner(
            FockVector.word(left), FockVector.word(right))
        val = float(val.real)
        values.append((n, val))
        gaps.append(abs(val - limit))

    details = {
        "dirac": dirac,
        "same_block": same_block,
        "exact_zero": (not same_block),
        "eta_level": j,
        "chi_level": i,
    }
    return _report("comp_limit", space, values, limit, gaps, details)


# -- boundedness scans ---------------------------------------------------


def _balanced_word_bound(q: float, lam: float, n: int) -> float:
    """Finite-sum proof bound for the scaled balanced-word Wick norms;
    valid for every n without a smallness condition on |q|^n."""
    bc = bound_constants(q)
    aq = abs(q)
    s1 = sum(lam ** (j / 2.0) for j in range(n + 1)) / (1.0 - aq) \
        if aq < 1 else math.inf
    s2 = sum(lam ** (-j / 2.0) * (n + 1) * aq ** (n * j)
             for j in range(1, n + 1))
    return bc.c_q ** 6 * (s1 + s2)


def boundedness_scan(space: FockSpace, kind: str,
                     n_max: int | None = None,
                     m_word: int = 5) -> ConvergenceReport:
    """Scaled operator-norm scans with their analytic ceilings.

    kinds: creation_powers (scaled powers of the letter and of its
    conjugate), wen_powers (scaled Wick powers of the letter),
    weew_powers (scaled balanced-word Wick operators), mixed_word
    (norms of unit-letter words against the crossing-constant bound,
    plus the reversal symmetry of the norm).

    Gaps record the excess over the ceiling, so an in-bound scan shows
    all zeros."""
    N = space.depth
    q, lam = space.q, space.lam
    bc = bound_constants(q)

    if kind == "creation_powers":
        hi = N - 1 if n_max is None else n_max
        if hi > N - 1:
            raise ValueError(f"power {hi} exceeds depth budget {N - 1}")
        ce = ops.creation_letter(space, E)
        cb = ops.creation_letter(space, EBAR)
        bound = 1.0 if q >= 0 else math.sqrt(bc.c_q * bc.d_sup)
        values, gaps = [], []
        for n in range(1, hi + 1):
            ve = lam ** (n / 4.0) * (1.0 - q) ** (n / 2.0) \
                * ops.op_norm(ce.power(n))
            vb = lam ** (-n / 4.0) * (1.0 - q) ** (n / 2.0) \
                * ops.op_norm(cb.power(n))
            values.append((n, {"letter": ve, "conjugate": vb}))
            gaps.append(max(0.0, ve - bound, vb - bound))
        details = {"bound": bound,
                   "sup": max(max(v["letter"], v["conjugate"])
                              for _, v in values)}
        return _report("creation_powers", space, values, None, gaps, details)

    if kind == "wen_powers":
        hi = N - 1 if n_max is None else n_max
        if hi > N - 1:
            raise ValueError(f"power {hi} exceeds depth budget {N - 1}")
        scale_const = 1.0 if q >= 0 else bc.c_q * bc.d_sup
        values, gaps = [], []
        for n in range(1, hi + 1):
            v = lam ** (n / 4.0) * (1.0 - q) ** (n / 2.0) \
                * ops.op_norm(ops.wen_operator(space, n))
            bound = scale_const * sum(
                abs(q_binomial(n, k, q)) * lam ** (k / 2.0)
                for k in range(n + 1))
            values.append((n, {"value": v, "bound": bound}))
            gaps.append(max(0.0, v - bound))
        details = {"sup": max(v["value"] for _, v in values)}
        return _report("wen_powers", space, values, None, gaps, details)

    if kind == "weew_powers":
        hi = (N - 2) // 2 if n_max is None else n_max
        if 2 * hi + 2 > N:
            raise ValueError(f"balanced size {hi} exceeds depth budget")
        values, gaps = [], []
        for n in range(1, hi + 1):
            v = (1.0 - q) ** n * ops.op_norm(ops.wick_balanced(space, n))
            bound = _balanced_word_bound(q, lam, n)
            values.append((n, {"value": v, "bound": bound}))
            gaps.append(max(0.0, v - bound))
        details = {"sup": max(v["value"] for _, v in values)}
        return _report("weew_powers", space, values, None, gaps, details)

    if kind == "mixed_word":
        hi = 4 if n_max is None else n_max
        need = hi + m_word
        if need <= 10 and space.params.aux_letters >= 2 and N >= need:
            sp = space
        elif need <= 10:
            sp = build_space(replace(space.params, aux_letters=2,
                                     depth=min(max(N, need), 10)))
        else:
            # deep words blow the four-letter budget; the two model
            # letters alone keep the level-(hi+m) blocks affordable
            sp = build_space(replace(space.params, aux_letters=0,
                                     depth=need))
        if sp.params.aux_letters >= 2:
            aux0, aux1 = 2, 3
            # unit letters: plain aux plus the two model letters rescaled
            cycle = [(aux1, 1.0), (E, lam ** 0.25), (EBAR, lam ** -0.25)]
            tail = (aux0, 1.0)
        else:
            cycle = [(EBAR, lam ** -0.25), (E, lam ** 0.25)]
            tail = (E, lam ** 0.25)
        m = min(m_word, sp.depth - hi)
        if m < 1:
            raise ValueError("no room for the repeated tail letter")
        bound_tail = math.sqrt(q_factorial(m, q))
        values, gaps = [], []
        for n in range(1, hi + 1):
            head = [cycle[t % len(cycle)] for t in range(n)]
            scale = math.prod(s for _, s in head) * tail[1] ** m
            word = tuple(ell for ell, _ in head) + (tail[0],) * m
            flipped = (tail[0],) * m + tuple(ell for ell, _ in reversed(head))
            nrm = abs(scale) * sp.norm(FockVector.word(word))
            nrm_flip = abs(scale) * sp.norm(FockVector.word(flipped))
            bound = bc.c_q ** (n / 2.0) * bound_tail
            values.append((n, {"norm": nrm, "bound": bound,
                               "flip_gap": abs(nrm - nrm_flip)}))
            gaps.append(max(0.0, nrm - bound))
        details = {"m": m, "flip_max": max(v["flip_gap"] for _, v in values)}
        return _report("mixed_word", space, values, None, gaps, details)

    raise ValueError(f"unknown scan kind {kind!r}")


# -- decay of adjoint hits on padded words ------------------------------


def lim_decay(space: FockSpace, n1: int = 0, n2: int = 0, psi=(),
              n_max: int | None = None) -> ConvergenceReport:
    """Scaled annihilation hits on conjugate-padded words; both tracked
    sequences decay to zero at rate about |q|."""
    N = space.depth
    q, lam = space.q, space.lam
    psi = tuple(psi)
    ae = ops.annihilation_letter(space, E)
    feas = (N - n1 - n2 - len(psi)) // 2
    hi = feas if n_max is None else min(n_max, feas)
    if hi < 0:
        raise ValueError("padding already exceeds the depth")
    values, gaps = [], []
    for n in range(hi + 1):
        wa = (EBAR,) * (n + n1) + (E,) * (n + n2) + psi
        a_val = (1.0 - q) ** n * space.norm(ae.apply(FockVector.word(wa)))
        wb = (EBAR,) * (n + n1) + psi
        b_val = (1.0 - q) ** (n / 2.0) * lam ** (-n / 4.0) \
            * space.norm(ae.apply(FockVector.word(wb)))
        values.append((n, {"balanced": a_val, "single": b_val}))
        gaps.append(max(a_val, b_val))
    # the n = 0 row can be structurally zero (annihilating the vacuum);
    # it would spoil the trend flag without carrying information
    while len(gaps) > 1 and gaps[0] == 0.0 and gaps[1] > 0.0:
        gaps.pop(0)
        values.pop(0)
    ratios = [gaps[t + 1] / gaps[t] for t in range(len(gaps) - 1)
              if gaps[t] > 1e-300]
    details = {"decay_ratios": ratios, "abs_q": abs(q)}
    return _report("lim_decay", space, values, 0.0, gaps, details)


# -- centralizer predicate and moment cross-check -----------------------


def centralizer_word(space: FockSpace, word) -> bool:
    """True when the product of modular eigenvalues along the word is
    one; with a single deformation scale that means equal counts of the
    letter and its conjugate, aux letters free."""
    sig = space.signature(word)
    return sig[E] == sig[EBAR]


def moment_check(space: FockSpace, k_max: int = 6) -> ConvergenceReport:
    """Vacuum moments of the field of one unit aux letter against the
    crossing-weighted pairing count; odd moments vanish by parity."""
    if space.params.aux_letters < 1:
        sp = build_space(replace(space.params, aux_letters=1))
    else:
        sp = space
    q = sp.q
    hi = min(k_max, PAIRING_CAP // 2, sp.depth)
    X = ops.field(sp, 2)
    w = FockVector.vacuum()
    values, gaps = [], []
    odd_max = 0.0
    for t in range(1, 2 * hi + 1):
        w = X.apply(w)
        mt = float(complex(w.coefficient(())).real)
        if t % 2 == 1:
            odd_max = max(odd_max, abs(mt))
        else:
            expected = pair_partition_moment(t, q)
            values.append((t, {"moment": mt, "expected": expected}))
            gaps.append(abs(mt - expected))
    details = {"odd_max": odd_max}
    rep = _report("moments", sp, values, None, gaps, details)
    # moment gaps are roundoff-flat, not a decaying sequence
    rep.monotone = True
    return rep
