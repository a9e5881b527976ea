"""The checks that ``qfock verify`` runs: one table, ``CHECKS``, in
report order.

Each entry is declared once, by the ``check`` decorator on the function
that measures its gap; the declaration order is the report order, so
adding a check means adding one decorated function.  The function
returns the gap, or ``(gap, note)``.  A grid-free entry's function
takes the run's ``Context``.  A grid entry's function takes one grid
point's space (``over="point"``) or one q row's T-limit report
(``over="q"``), and its record is the worst gap over the grid.

``cli.run_checks`` evaluates the table in order.  Whatever raises -- a
check, a fixture it reads, a grid point, the calibration file -- gives
failed records with an infinite gap and a ``Type: message`` note; the
run itself goes on.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import limits, ops
from .fock import E, EBAR, FockVector, _UnitGramCache, build_space
from .qcomb import (
    bound_constants,
    crossings,
    d_family,
    inversions,
    pair_partition_moment,
    q_binomial,
    q_factorial,
    q_int,
    wick_coefficients,
)

__all__ = ["Check", "CheckResult", "Context", "CHECKS", "evaluate"]


@dataclass
class CheckResult:
    name: str
    passed: bool
    gap: float
    tol: float
    note: str = ""


@dataclass(frozen=True)
class Check:
    name: str
    tol: object        # a number, a RunConfig field name, or fn(Context)
    fn: Callable
    note: str = ""     # the note of a function that returns a bare gap
    over: str = ""     # "" grid-free; "point" or "q" for a grid entry


CHECKS: list = []


def check(name: str, tol="tol_identity", note: str = "", over: str = ""):
    """Declare the decorated function as the table's next entry."""
    def declare(fn):
        CHECKS.append(Check(name, tol, fn, note, over))
        return fn
    return declare


class Context:
    """One verify run: its configuration and what several checks read,
    each built on first use and kept for the run.  A failure to build
    one is kept too, so each reader fails with it instead of retrying."""

    def __init__(self, cfg, load_calibration, map_rows):
        self.cfg = cfg
        self._load_calibration = load_calibration
        self._map_rows = map_rows
        self._memo = {}

    def _once(self, key, make):
        if key not in self._memo:
            try:
                self._memo[key] = make()
            except Exception as exc:
                self._memo[key] = exc
        if isinstance(self._memo[key], Exception):
            raise self._memo[key]
        return self._memo[key]

    def space(self, q, lam, depth):
        """A space that several checks read."""
        return self._once(("space", q, lam, depth),
                          lambda: build_space(q=q, lam=lam, depth=depth))

    @property
    def cal(self) -> dict:
        return self._once("cal", self._load_calibration)

    @property
    def can(self):
        """The calibration file's canonical space."""
        pt = self.cal["rank_one"]["point"]
        return self.space(pt["q"], pt["lam"], pt["depth"])

    @property
    def rank_one(self):
        return self._once("rank_one",
                          lambda: limits.rank_one_diagnostics(self.can))

    @property
    def xis(self) -> list:
        """(distinguished vector, its norm squared) on three spaces; the
        depth-12 kernel space is not kept."""
        def make():
            out = []
            for sp in (self.can, build_space(q=0.0, lam=0.75, depth=12),
                       self.space(-0.5, 0.3, 10)):
                xi = limits.xi_vector(sp)
                out.append((xi, sp.norm_sq(xi.vector)))
            return out
        return self._once("xis", make)

    def certificate(self, q, lam, truncations):
        return self._once(
            ("certificate", q, lam, truncations),
            lambda: limits.invertibility_certificate(
                q, lam, truncations=truncations))

    def grid(self) -> dict:
        """Grid entry name -> its worst (gap, note) over the grid."""
        return self._once("grid", self._grid)

    def _grid(self) -> dict:
        cfg = self.cfg
        tasks = [(q, tuple(cfg.lam_grid), cfg.depth, cfg.max_total_words)
                 for q in cfg.q_grid if cfg.lam_grid]
        rows = self._map_rows(_grid_row, tasks, cfg.jobs)
        out = {}
        for c in CHECKS:
            if c.over:
                # a per-q record keeps "empty grid" while its gap stays 0.0
                best = (0.0, "empty grid") if c.over == "q" else None
                for gap, note in (f for row in rows for f in row[c.name]):
                    if best is None or gap > best[0]:
                        best = (gap, note)
                out[c.name] = best or (0.0, "empty grid")
        return out


def _grid_row(task) -> dict:
    """Worker: every grid entry's [(gap, note), ...] on one q row; its
    spaces share one Gram cache while base is alive."""
    q, lams, depth, max_words = task
    base = build_space(q=q, lam=lams[0], depth=depth,
                       max_total_words=max_words)
    found = {c.name: [] for c in CHECKS if c.over}

    def record(over, arg, note):
        for c in CHECKS:
            if c.over == over:
                found[c.name].append(_outcome(lambda: c.fn(arg), note))

    for lam in lams:
        record("point", base.with_lambda(lam), f"q={q:g} lam={lam:g}")
    record("q", limits.t_limit_check(base), f"q={q:g}")
    return found


def _crash_note(exc) -> str:
    return f"{type(exc).__name__}: {exc}"


def _outcome(measure, note: str) -> tuple:
    """measure() as (gap, note); an exception as an infinite gap."""
    try:
        out = measure()
    except Exception as exc:  # a crashed check is a failed check
        return math.inf, _crash_note(exc)
    if isinstance(out, tuple):
        return float(out[0]), str(out[1])
    return float(out), note


def evaluate(entry: Check, ctx: Context) -> CheckResult:
    """One entry's record."""
    try:
        tol = entry.tol
        if isinstance(tol, str):
            tol = getattr(ctx.cfg, tol)
        elif callable(tol):
            tol = tol(ctx)
    except Exception as exc:
        return CheckResult(entry.name, False, math.inf, math.nan,
                           _crash_note(exc))
    if entry.over:
        gap, note = _outcome(lambda: ctx.grid()[entry.name], "")
    else:
        gap, note = _outcome(lambda: entry.fn(ctx), entry.note)
    return CheckResult(entry.name, gap <= tol, gap, tol, note)


# -- helpers ------------------------------------------------------------


def _hinge(x: float) -> float:
    return max(0.0, float(x))


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(b))


def _max_coeff(vec: FockVector) -> float:
    return max((abs(c) for c in vec.terms.values()), default=0.0)


def _concat(vec: FockVector, suffix: tuple, front: bool = False) -> FockVector:
    out = FockVector()
    for w, c in vec.terms.items():
        key = (suffix + w) if front else (w + suffix)
        out.terms[key] = out.terms.get(key, 0.0) + c
    return out


def _probe_qs(ctx) -> tuple:
    return tuple(ctx.cfg.q_grid) if ctx.cfg.q_grid else (-0.5, 0.0, 0.5)


def _pair(ctx) -> tuple:
    """The two depth-10 spaces of the operator checks."""
    return ctx.space(0.3, 0.4, 10), ctx.space(-0.5, 0.3, 10)


# -- combinatorial checks (grid-free) -----------------------------------


@check("qcomb/pascal-identity")
def _pascal(ctx):
    worst = 0.0
    for q in _probe_qs(ctx):
        for n in range(11):
            for k in range(1, n + 1):
                lhs = q ** k * q_binomial(n, k, q) + q_binomial(n, k - 1, q)
                rhs = q_binomial(n + 1, k, q)
                worst = max(worst, _rel(lhs, rhs))
    return worst


@check("qcomb/factorial-d-product")
def _factorial_product(ctx):
    worst = 0.0
    for q in _probe_qs(ctx):
        fam = d_family(q, j_max=12)
        for n in range(13):
            lhs = q_factorial(n, q)
            rhs = fam.d[n] * (1.0 - q) ** (-n)
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
    return worst


@check("qcomb/binomial-symmetry")
def _binom_symmetry(ctx):
    worst = 0.0
    for q in _probe_qs(ctx):
        for n in range(11):
            for k in range(n + 1):
                worst = max(worst, _rel(q_binomial(n, k, q),
                                        q_binomial(n, n - k, q)))
    return worst


@check("qcomb/d-inf-product", 1e-13)
def _d_inf_product(ctx):
    worst = 0.0
    for q in _probe_qs(ctx):
        fam = d_family(q, j_max=0)
        direct = 1.0
        for j in range(1, 2000):
            step = q ** j
            direct *= 1.0 - step
            if abs(step) < 1e-300:
                break
        worst = max(worst, abs(direct - fam.d_inf))
    return worst


@check("qcomb/bound-constants", 1e-13)
def _constants(ctx):
    worst = 0.0
    for q in _probe_qs(ctx):
        bc = bound_constants(q)
        fam_abs = d_family(abs(q), j_max=0)
        worst = max(worst, abs(bc.c_q * fam_abs.d_inf - 1.0))
        worst = max(worst, _hinge(1.0 - bc.d_sup))
    return worst


@check("qcomb/moment-closed-forms")
def _moments_closed(ctx):
    worst = 0.0
    for q in _probe_qs(ctx):
        worst = max(worst, abs(pair_partition_moment(0, q) - 1.0))
        worst = max(worst, abs(pair_partition_moment(2, q) - 1.0))
        worst = max(worst, abs(pair_partition_moment(4, q) - (2.0 + q)))
        m6 = 5.0 + 6.0 * q + 3.0 * q ** 2 + q ** 3
        worst = max(worst, abs(pair_partition_moment(6, q) - m6))
        worst = max(worst, abs(pair_partition_moment(3, q)))
        worst = max(worst, abs(pair_partition_moment(5, q)))
    return worst


@check("qcomb/wick-coefficient-bound", 1e-12)
def _wick_bound(ctx):
    worst = 0.0
    for q in _probe_qs(ctx):
        if q == 0.0:
            continue
        bc = bound_constants(q)
        for n in range(1, 7):
            coeffs = wick_coefficients(n, q)
            for k in range(n + 1):
                for ell in range(n + 1):
                    cap = bc.c_q ** 2 * abs(q) ** ((n - k) * ell)
                    worst = max(worst, _hinge(abs(coeffs[k][ell]) - cap))
    return worst


@check("qcomb/enumeration-frozen-values", 1e-14)
def _frozen(ctx):
    worst = abs(inversions((3, 1, 2)) - 2)
    worst = max(worst, abs(crossings(4, (3, 4)) - 4))
    worst = max(worst, abs(q_int(3, 0.5) - 1.75))
    worst = max(worst, abs(q_factorial(3, 0.5) - 2.625))
    worst = max(worst, abs(q_binomial(3, 1, 0.5) - 1.75))
    return worst


# -- per grid point (fock and ops identities) ---------------------------


@check("fock/gram-path-agreement", over="point")
def _gram_path_agreement(sp):
    worst = 0.0
    for level in range(1, 4):
        for sig in sp.blocks_at_level(level):
            G = sp.gram(sig)
            B = sp.gram_bruteforce(sig)
            scale = max(1.0, float(np.abs(G).max()))
            worst = max(worst, float(np.abs(G - B).max()) / scale)
    return worst


@check("fock/gram-factorization", over="point")
def _gram_factorization(sp):
    worst = 0.0
    for level in range(1, min(6, sp.depth) + 1):
        for sig in sp.blocks_at_level(level):
            G = sp.gram(sig)
            L = sp.gram_chol(sig)
            scale = max(1.0, float(np.abs(G).max()))
            worst = max(worst, float(np.abs(L @ L.T - G).max()) / scale)
            worst = max(worst, _hinge(-float(np.diag(L).min())))
    return worst


@check("fock/power-norm-factorial", over="point")
def _power_norm_factorial(sp):
    worst = 0.0
    for n in range(1, sp.depth + 1):
        v = FockVector.word((E,) * n)
        lhs = sp.norm_sq(v) * sp.lam ** (n / 2.0)
        rhs = q_factorial(n, sp.q)
        worst = max(worst, abs(lhs - rhs) / rhs)
    return worst


@check("fock/vacuum-state", over="point")
def _vacuum_state(sp):
    vac = FockVector.vacuum()
    worst = abs(sp.norm(vac) - 1.0)
    return max(worst, abs(sp.inner(vac, FockVector.word((E,)))))


@check("fock/inner-conjugate-symmetry", over="point")
def _inner_conjugate_symmetry(sp):
    rng = np.random.default_rng(20240711)
    words = [w for lv in range(4) for s in sp.blocks_at_level(lv)
             for w in sp.block_words(s)]
    u = FockVector()
    v = FockVector()
    for w in words:
        u.terms[w] = complex(*rng.standard_normal(2))
        v.terms[w] = complex(*rng.standard_normal(2))
    ip, pi = sp.inner(u, v), sp.inner(v, u)
    return abs(ip - np.conj(pi)) / (1.0 + abs(ip))


@check("fock/rescale-consistency", over="point")
def _rescale_consistency(sp):
    # a private cache: a space built here would share sp's cache and
    # compare each block with itself
    cold = _UnitGramCache(sp.q, sp.n_letters)
    worst = 0.0
    for level in range(1, 5):
        for sig in sp.blocks_at_level(level):
            fresh = sp.u_factor(sig) * cold.gram(sig)
            worst = max(worst, float(np.abs(sp.gram(sig) - fresh).max()))
    return worst


@check("ops/commutation-relation", over="point")
def _commutation_relation(sp):
    q = sp.q
    ce = ops.creation_letter(sp, E)
    ae = ops.annihilation_letter(sp, E)
    cb = ops.creation_letter(sp, EBAR)
    uE = sp.u[E]
    # sources up to level 4, below the depth so the creation stays exact
    top = min(4, sp.depth - 1)
    lhs = (ae @ ce) + (-q) * (ce @ ae)
    g1 = ops.action_gap(lhs, uE * ops.identity(sp), top)
    lhs = (ae @ cb) + (-q) * (cb @ ae)
    g2 = ops.action_gap(lhs, ops.zero(sp), top)
    rce = ops.right_creation_letter(sp, E)
    rae = ops.right_annihilation_letter(sp, E)
    lhs = (rae @ rce) + (-q) * (rce @ rae)
    g3 = ops.action_gap(lhs, uE * ops.identity(sp), top)
    return max(g1, g2, g3)


@check("ops/split-adjoint", over="point")
def _split_adjoint(sp):
    ae = ops.annihilation_letter(sp, E)
    worst = 0.0
    for head in ((E,), (E, EBAR), (EBAR, E, E)):
        for tail in ((E,), (EBAR, E)):
            whole = ae.apply(FockVector.word(head + tail))
            split = _concat(ae.apply(FockVector.word(head)), tail) \
                + sp.q ** len(head) * _concat(
                    ae.apply(FockVector.word(tail)), head, front=True)
            worst = max(worst, _max_coeff(whole - split))
    return worst


@check("ops/adjoint-powers", over="point")
def _adjoint_powers(sp):
    q, lam = sp.q, sp.lam
    ae = ops.annihilation_letter(sp, E)
    worst = 0.0
    for n, m in ((1, 3), (2, 4), (3, 5)):
        got = FockVector.word((E,) * m)
        for _ in range(n):
            got = ae.apply(got)
        coef = (q_factorial(m, q) / q_factorial(m - n, q)) \
            * lam ** (-n / 2.0)
        want = FockVector.word((E,) * (m - n), coeff=coef)
        worst = max(worst, _max_coeff(got - want) / coef)
    return worst


@check("ops/creation-adjoint-gram", over="point")
def _creation_adjoint_gram(sp):
    # the adjoint's blocks out of levels <= 4 come from creation out of
    # levels <= 3, so its window stops there
    return max(ops.action_gap(
        ops.q_adjoint(ops.creation_letter(sp, ell), src_level_max=3),
        ops.annihilation_letter(sp, ell), 4) for ell in (E, EBAR))


@check("ops/creation-norm-bound", over="point")
def _creation_norm_bound(sp):
    q, N = sp.q, sp.depth
    ce = ops.creation_letter(sp, E)
    worst = 0.0
    norm_e = sp.lam ** -0.25
    for n in range(1, min(6, N) + 1):
        got = ops.op_norm(ce.power(n), src_level_max=min(6, N - n))
        if q >= 0:
            cap = (norm_e / math.sqrt(1.0 - q)) ** n
        else:
            cap = norm_e ** n
        worst = max(worst, _hinge(got - cap) / cap)
    return worst


# -- per q row: the T-limit report on the row's first space -------------


@check("limits/t-eigenvalue-identity", "tol_eigen", over="q")
def _t_eigenvalue_identity(rep):
    return rep.details["eig_identity_max_err"]


@check("limits/t-spectral-bounds", 0.5, over="q")
def _t_spectral_bounds(rep):
    return 0.0 if rep.details["bounds_ok"] else 1.0  # indicator


@check("limits/t-norm-bound-ratio", 0.5, over="q")
def _t_norm_bound_ratio(rep):
    return 0.0 if rep.details["sup_bound_ok"] else 1.0  # indicator


# -- fixed-point operator checks ----------------------------------------


@check("ops/modular-involutions")
def _modular_involutions(ctx):
    worst = 0.0
    for sp in _pair(ctx):
        mo = ops.modular_ops(sp)
        worst = max(worst, ops.action_gap(mo.J @ mo.J, ops.identity(sp), 6))
        worst = max(worst, ops.action_gap(mo.S @ mo.S, ops.identity(sp), 6))
        worst = max(worst, ops.action_gap(
            mo.J, mo.S @ ops.modular_delta(sp, -0.5), 6))
    return worst


@check("ops/modular-letter-map")
def _modular_letter_map(ctx):
    worst = 0.0
    for sp in _pair(ctx):
        mo = ops.modular_ops(sp)
        je = mo.J.apply(FockVector.word((E,)))
        worst = max(worst, abs(je.coefficient((EBAR,)) - sp.lam ** -0.5))
        de = ops.modular_delta(sp, 1.0).apply(FockVector.word((E,)))
        worst = max(worst, abs(de.coefficient((E,)) - sp.lam))
        db = ops.modular_delta(sp, 1.0).apply(FockVector.word((EBAR,)))
        worst = max(worst, abs(db.coefficient((EBAR,)) - 1.0 / sp.lam))
    return worst


@check("ops/modular-intertwining")
def _modular_intertwine(ctx):
    worst = 0.0
    for sp in _pair(ctx):
        mo = ops.modular_ops(sp)
        ce = ops.creation_letter(sp, E)
        worst = max(worst, ops.action_gap(
            mo.J @ ce @ mo.J,
            sp.lam ** -0.5 * ops.right_creation_letter(sp, EBAR), 6))
        we = ops.wick(sp, (E,))
        worst = max(worst, ops.action_gap(
            ops.modular_delta(sp, 1.0) @ we @ ops.modular_delta(sp, -1.0),
            sp.lam * we, 6))
    return worst


@check("ops/wick-vacuum-defining")
def _wick_vacuum(ctx):
    worst = 0.0
    for sp in _pair(ctx):
        for word in ((E,), (EBAR,), (EBAR, E), (E, E, EBAR)):
            got = ops.wick(sp, word).apply(FockVector.vacuum())
            worst = max(worst, _max_coeff(got - FockVector.word(word)))
        got = ops.wick_right(sp, (EBAR, E)).apply(FockVector.vacuum())
        worst = max(worst, _max_coeff(got - FockVector.word((EBAR, E))))
    return worst


@check("ops/wen-triple-equality")
def _wen_triple(ctx):
    worst = 0.0
    for sp in _pair(ctx):
        single = ops.wick(sp, (E,))
        for n in range(1, 6):
            closed = ops.wen_operator(sp, n)
            lim = sp.depth - n
            worst = max(worst, ops.action_gap(
                closed, ops.wick(sp, (E,) * n), lim))
            worst = max(worst, ops.action_gap(closed, single.power(n), lim))
    return worst


@check("ops/ween-reconstruction")
def _ween_reconstruction(ctx):
    worst = 0.0
    for sp in _pair(ctx):
        ce = ops.creation_letter(sp, E)
        cb = ops.creation_letter(sp, EBAR)
        ae = ops.annihilation_letter(sp, E)
        ab = ops.annihilation_letter(sp, EBAR)
        for n in range(1, 5):
            coeffs = wick_coefficients(n, sp.q)
            total = ops.zero(sp)
            for k in range(n + 1):
                for ell in range(n + 1):
                    term = cb.power(k) @ ce.power(ell) \
                        @ ae.power(n - k) @ ab.power(n - ell)
                    total = total + coeffs[k][ell] * term
            worst = max(worst, ops.action_gap(
                ops.wick_balanced(sp, n), total, sp.depth - 2 * n))
    return worst


@check("ops/left-right-commutant")
def _commutant(ctx):
    worst = 0.0
    for sp in _pair(ctx):
        for wl, wr in (((E,), (E,)), ((EBAR,), (EBAR, E)),
                       ((E, EBAR), (E,))):
            A = ops.wick(sp, wl)
            B = ops.wick_right(sp, wr)
            AB, BA = A @ B, B @ A
            lim = sp.depth - max(AB.peak, BA.peak)
            worst = max(worst, ops.action_gap(AB, BA, lim))
    return worst


@check("ops/flip-form-preserving",
       note="also requires plain flip conjugation != right version")
def _flip_unitary(ctx):
    worst = 0.0
    for sp in _pair(ctx):
        fl = ops.flip_unitary(sp)
        for sig in ((2, 1), (2, 2), (3, 1)):
            P = fl.action(sig)[sig]
            G = sp.gram(sig)
            worst = max(worst, float(np.abs(P.T @ G @ P - G).max()))
        gflip = ops.action_gap(fl @ ops.wick(sp, (E,)) @ fl,
                               ops.wick_right(sp, (E,)), 6)
        worst = max(worst, _hinge(1e-3 - gflip))
    return worst


@check("ops/free-case-norms")
def _free_case(ctx):
    sp0 = build_space(q=0.0, lam=0.25, depth=8)
    worst = abs(ops.op_norm(ops.creation_letter(sp0, E)) - 0.25 ** -0.25)
    return max(worst, abs(ops.min_singular(ops.identity(sp0),
                                           src_level_max=4) - 1.0))


@check("ops/adjoint-consistency", 1e-8)
def _adjoint_consistency(ctx):
    # norm equality needs exactly dual windows, so pair the shift
    # operators src <= 6 against src <= 7; the mixed operator gets the
    # double-adjoint identity instead
    worst = 0.0
    for sp in _pair(ctx):
        ce = ops.creation_letter(sp, E)
        ae = ops.annihilation_letter(sp, E)
        worst = max(worst, abs(ops.op_norm(ce, src_level_max=6)
                               - ops.op_norm(ae, src_level_max=7)))
        A = ops.wen_operator(sp, 2)
        back = ops.q_adjoint(ops.q_adjoint(A, src_level_max=8),
                             src_level_max=8)
        worst = max(worst, ops.action_gap(back, A, 6))
    return worst


# -- convergence and certificate checks ---------------------------------


@check("limits/t-limit-convergence", 1e-6)
def _t_limit_convergence(ctx):
    worst = 0.0
    arg = ""
    for q in (-0.2, -0.1, 0.1, 0.2):
        sp = build_space(q=q, lam=0.3, depth=14)
        gap = limits.t_limit_check(sp, k_max=4, n_max=10).gaps[-1]
        if gap > worst:
            worst, arg = gap, f"q={q:g} n=10"
    return worst, arg


@check("limits/spectral-sup-criterion", 0.5,
       note="indicator: sup of limit spectrum hits d_inf exactly when the "
            "small-|q| condition holds")
def _beta_constant(ctx):
    worst = 0.0
    for q, expect_eq in ((-0.5, True), (-0.3, True), (-0.7, False)):
        det = limits.t_limit_check(build_space(q=q, lam=0.3, depth=8)).details
        if (det["beta_equals_d_inf"] and det["beta_condition"]) != expect_eq:
            worst = max(worst, 1.0)
    return worst


@check("limits/s-vacuum-family")
def _s_vacuum(ctx):
    sp = ctx.can
    fam = d_family(sp.q, j_max=6)
    worst = 0.0
    for n in range(1, 6):
        got = limits.s_n_operator(sp, n).apply(FockVector.vacuum())
        worst = max(worst,
                    _max_coeff(got - FockVector.vacuum(coeff=fam.d[n])))
    return worst


@check("limits/s-series-identity")
def _s_series(ctx):
    worst = limits.s_series_identity_gap(ctx.can, 3)
    return max(worst, limits.s_series_identity_gap(ctx.space(-0.5, 0.3, 10),
                                                   3))


@check("limits/s-adjoint-closed-form")
def _s_adjoint_closed(ctx):
    worst = 0.0
    for sp in (ctx.can, ctx.space(-0.5, 0.3, 10)):
        A = limits.s_n_operator(sp, 3)
        got = limits.adjoint_vacuum(sp, A, level_max=6)
        want = limits.s_adjoint_vacuum_closed_form(sp, 3)
        worst = max(worst, sp.norm(got - want))
    return worst


@check("limits/s-infinity-adjoint-vacuum",
       lambda ctx: 5 * abs(ctx.can.q) ** (ctx.can.depth + 1))
def _s_infinity_adjoint(ctx):
    sp = ctx.can
    series = limits.s_infinity(sp)
    xi = limits.xi_vector(sp, n_terms=series.n_terms, compute_residual=False)
    got = limits.adjoint_vacuum(sp, series.op, level_max=sp.depth)
    return (sp.norm(got - xi.vector),
            f"adaptive-compression budget at N={sp.depth}")


@check("limits/xi-closed-form-norm")
def _xi_closed_form(ctx):
    worst = 0.0
    for xi, got in ctx.xis:
        worst = max(worst, abs(got - xi.norm_sq_closed_form)
                    / xi.norm_sq_closed_form)
    return worst


@check("limits/xi-fixed-point-residual")
def _xi_fixed_point(ctx):
    worst = 0.0
    for xi, _ in ctx.xis:
        worst = max(worst, xi.fixed_point_residual)
    return worst


@check("limits/invertibility-below-threshold", 0.0)
def _invertibility_below(ctx):
    cert = ctx.certificate(0.1, 0.15, (10, 12))
    worst = _hinge(cert.product - 1.0)
    floor = 0.5 * cert.d_inf * (1.0 - cert.product)
    for _, _, sig in cert.min_singular:
        worst = max(worst, _hinge(floor - sig) / floor)
    if cert.analytic_verdict != (cert.product < 1.0):
        worst = max(worst, 1.0)
    return worst, f"floor={floor:.6g}"


@check("limits/invertibility-kernel-regime", 0.0)
def _invertibility_kernel(ctx):
    cert = ctx.certificate(0.0, 0.75, (8, 10, 12))
    sigs = [sig for _, _, sig in cert.min_singular]
    decrease = 1.0 - sigs[-1] / sigs[0]
    need = ctx.cal["certificates"]["kernel_decrease_min"]
    return _hinge(need - decrease), f"decrease={decrease:.4f}"


def _drift_rel(ctx):
    return ctx.cal["rank_one"]["thresholds"]["drift_rel"]


@check("limits/certificate-drift", _drift_rel)
def _certificate_drift(ctx):
    rows = ctx.cal["certificates"]["rows"]
    worst = 0.0
    for frozen, truncs in ((rows[0], (10, 12)), (rows[1], (8, 10, 12))):
        cert = ctx.certificate(frozen["q"], frozen["lam"], truncs)
        for (_, _, got), (_, _, want) in zip(cert.min_singular,
                                             frozen["min_singular"]):
            worst = max(worst, abs(got - want) / want)
        worst = max(worst, _rel(cert.threshold, frozen["threshold"]))
    return worst


@check("limits/threshold-frozen-values", 1e-6)
def _threshold_values(ctx):
    worst = abs(limits.invertibility_threshold(0.1)
                - 0.19536490356513797) / 0.19536490356513797
    worst = max(worst, abs(limits.invertibility_threshold(0.5)
                           - 0.005925713267144628) / 0.005925713267144628)
    worst = max(worst, abs(limits.invertibility_threshold(1e-9) - 0.25))
    return max(worst, abs(limits.invertibility_threshold(-1e-9) - 0.25))


def _rank(ctx) -> tuple:
    """The canonical rank-one rows by n, the last row, and the
    calibration thresholds."""
    rows = {n: v for n, v in ctx.rank_one.values}
    return rows, rows[max(rows)], ctx.cal["rank_one"]["thresholds"]


@check("limits/rank-one-ratio-decrease", 0.0)
def _rank_ratio(ctx):
    rows, _, _ = _rank(ctx)
    ratios = [rows[n]["ratio"] for n in sorted(rows)]
    worst = 0.0
    for a, b in zip(ratios, ratios[1:]):
        worst = max(worst, _hinge(b - a + 1e-12))
    return worst, "ratios " + " ".join(f"{r:.4f}" for r in ratios)


@check("limits/rank-one-cosine", 0.0)
def _rank_cosine(ctx):
    _, last, thr = _rank(ctx)
    c = last["cosine"]
    return _hinge(thr["cosine_min_final"] - c), f"cosine={c:.6f}"


@check("limits/rank-one-sigma-window", 0.0)
def _rank_sigma_window(ctx):
    _, v, thr = _rank(ctx)
    rel = abs(v["sigma1"] - v["window_norm_sq"]) / v["window_norm_sq"]
    return _hinge(rel - thr["sigma1_window_rel"]), f"rel={rel:.2e}"


@check("limits/rank-one-sigma-full", 0.0)
def _rank_sigma_full(ctx):
    rows, _, thr = _rank(ctx)
    full = ctx.rank_one.details["norm_sq_limit"]
    v = rows[thr["sigma1_full_rel_at"]]
    rel = abs(v["sigma1"] - full) / full
    return _hinge(rel - thr["sigma1_full_rel"]), f"rel={rel:.4f}"


@check("limits/rank-one-tail-account", 0.0)
def _rank_tail_account(ctx):
    _, v, thr = _rank(ctx)
    full = ctx.rank_one.details["norm_sq_limit"]
    deficit = full - v["sigma1"]
    tail = full - v["window_norm_sq"]
    rel = abs(deficit - tail) / tail
    return _hinge(rel - thr["tail_account_rel"]), f"rel={rel:.2e}"


@check("limits/rank-one-fixture-drift", _drift_rel)
def _rank_drift(ctx):
    rows, _, _ = _rank(ctx)
    worst = 0.0
    for row in ctx.cal["rank_one"]["rows"]:
        v = rows[row["n"]]
        for key in ("sigma1", "ratio", "cosine", "window_norm_sq"):
            worst = max(worst, _rel(v[key], row[key]))
    return worst


@check("limits/comp-table", 1e-9)
def _comp_table(ctx):
    comp = ctx.cal["comp"]
    worst = 0.0
    for row in comp["rows"]:
        idx = {k: (tuple(v) if isinstance(v, list) else v)
               for k, v in row["indices"].items()}
        rep = limits.comp_limit(ctx.can, **idx)
        if not rep.monotone:
            worst = max(worst, 1.0)
        if rep.limit == 0.0:
            worst = max(worst, _hinge(rep.final_gap - comp["abs_tol_zero"]))
        else:
            worst = max(worst, _hinge(rep.final_gap / abs(rep.limit)
                                      - comp["rel_tol_final"]))
        for (_, got), (_, want) in zip(rep.values, row["values"]):
            worst = max(worst, abs(got - want))
    return worst


def _scan(kind):
    """The worst gap of one boundedness scan on its two depth-12 spaces."""
    def run(ctx):
        worst = 0.0
        for sp in (ctx.space(0.3, 0.4, 12), ctx.space(-0.5, 0.3, 12)):
            rep = limits.boundedness_scan(sp, kind)
            worst = max(worst, max(rep.gaps))
        return worst
    return run


check("limits/boundedness-creation")(_scan("creation_powers"))
check("limits/boundedness-wen")(_scan("wen_powers"))
check("limits/boundedness-weew")(_scan("weew_powers"))
check("limits/boundedness-mixed-word")(_scan("mixed_word"))


@check("limits/decay-contraction", 0.05)
def _decay_contraction(ctx):
    sp = ctx.can
    rep = limits.lim_decay(sp)
    worst = 0.0 if rep.monotone else 1.0
    ratios = rep.details["decay_ratios"]
    if ratios:
        worst = max(worst, abs(ratios[-1] - abs(sp.q)))
    return worst, "final ratio vs |q|"


@check("limits/decay-free-case", 1e-13)
def _decay_free(ctx):
    rep = limits.lim_decay(build_space(q=0.0, lam=0.75, depth=10))
    vals = [max(v.values()) for _, v in rep.values]
    return max(vals[1:]) if len(vals) > 1 else 0.0


@check("limits/centralizer-criterion", 0.5,
       note="indicator: balanced words in, unbalanced out")
def _centralizer(ctx):
    sp = ctx.can
    ok = limits.centralizer_word(sp, (EBAR, E)) \
        and limits.centralizer_word(sp, (E, EBAR, EBAR, E)) \
        and not limits.centralizer_word(sp, (E,)) \
        and not limits.centralizer_word(sp, (E, E, EBAR))
    return 0.0 if ok else 1.0


@check("limits/moment-oracle", "tol_moment")
def _moment_oracle(ctx):
    worst = 0.0
    for q in (0.3, -0.5, 0.0):
        rep = limits.moment_check(build_space(q=q, lam=0.5, depth=10),
                                  k_max=5)
        worst = max(worst, rep.final_gap, max(rep.gaps))
        worst = max(worst, rep.details["odd_max"])
    return worst
