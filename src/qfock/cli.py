"""Command-line front end for the truncated deformed-Fock laboratory.

Three subcommands:

  verify   run the named invariant checks of every module over a
           parameter grid and write a machine-readable report
  sweep    tabulate the invertibility and rank-one diagnostics over a
           (q, lambda) grid as CSV or JSON, plus a plot script
  dump     write a single object (Gram block, operator, distinguished
           vector) in a documented JSON or CSV layout

All outputs are deterministic for a fixed configuration: no timestamps
inside data files, fixed column order, floats at 17 significant digits
in CSV.  The sweep's per-row runtime column is informational and is the
one field allowed to vary between runs.

Exit codes: 0 success, 1 at least one check failed, 2 bad
configuration.
"""

import argparse
import concurrent.futures
import json
import math
import re
import sys
import time
from dataclasses import asdict, dataclass, fields, replace
from importlib import resources
from pathlib import Path

import numpy as np

from . import limits, ops
from .fock import (
    E,
    EBAR,
    MAX_DEPTH,
    Q_ENVELOPE,
    BudgetExceededError,
    FockVector,
    ModelParams,
    build_space,
    gram_block_to_json,
    vector_to_json,
)
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

__all__ = [
    "RunConfig",
    "ConfigError",
    "CheckResult",
    "run_checks",
    "cmd_verify",
    "cmd_sweep",
    "cmd_dump",
    "main",
]

DEFAULT_Q = (-0.8, -0.5, -0.3, 0.0, 0.3, 0.5, 0.8)
DEFAULT_LAM = (0.05, 0.15, 0.3, 0.5, 0.75)

REPORT_SCHEMA = "qfock-verify-1"
SWEEP_SCHEMA = "qfock-sweep-1"
SWEEP_COLUMNS = ("q", "lambda", "depth", "threshold", "analytic_verdict",
                 "min_singular", "sigma_ratio", "cosine", "status",
                 "runtime_ms")

# envelope guards; |q| <= Q_ENVELOPE and depth <= MAX_DEPTH come from
# the model
DEPTH_MIN = 4
TAIL_BUDGET_MAX = 8.0


class ConfigError(Exception):
    """Raised for configurations the tool refuses to run."""


@dataclass
class RunConfig:
    """Grid, truncation and output settings shared by all subcommands.

    ``terms = 0`` means the series order defaults to half the depth.
    """

    q_grid: tuple = DEFAULT_Q
    lam_grid: tuple = DEFAULT_LAM
    depth: int = 12
    terms: int = 0
    max_total_words: int = 2_000_000
    pairing_cap: int = 16
    tol_identity: float = 1e-10
    tol_eigen: float = 1e-12
    tol_moment: float = 1e-8
    out_dir: str = "out"
    fmt: str = "csv"
    jobs: int = 1

    def effective_terms(self) -> int:
        return self.terms if self.terms else self.depth // 2

    def to_text(self) -> str:
        lines = ["# run configuration"]
        lines.append("q = " + ", ".join(repr(x) for x in self.q_grid))
        lines.append("lambda = " + ", ".join(repr(x) for x in self.lam_grid))
        lines.append(f"depth = {self.depth}")
        lines.append(f"terms = {self.terms}")
        lines.append(f"max_total_words = {self.max_total_words}")
        lines.append(f"pairing_cap = {self.pairing_cap}")
        lines.append(f"tol_identity = {self.tol_identity!r}")
        lines.append(f"tol_eigen = {self.tol_eigen!r}")
        lines.append(f"tol_moment = {self.tol_moment!r}")
        lines.append(f"out_dir = {self.out_dir}")
        lines.append(f"format = {self.fmt}")
        lines.append(f"jobs = {self.jobs}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        cfg = cls()
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected key = value")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            try:
                cfg = _apply_key(cfg, key, val)
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: {exc}") from None
        return cfg


def _float_list(val: str) -> tuple:
    parts = [p for p in val.replace(",", " ").split() if p]
    return tuple(float(p) for p in parts)


def _apply_key(cfg: RunConfig, key: str, val: str) -> RunConfig:
    if key == "q":
        return replace(cfg, q_grid=_float_list(val))
    if key == "lambda":
        return replace(cfg, lam_grid=_float_list(val))
    if key in ("depth", "terms", "max_total_words", "pairing_cap", "jobs"):
        return replace(cfg, **{key: int(val)})
    if key in ("tol_identity", "tol_eigen", "tol_moment"):
        return replace(cfg, **{key: float(val)})
    if key == "out_dir":
        return replace(cfg, out_dir=val)
    if key == "format":
        return replace(cfg, fmt=val)
    raise ConfigError(f"unknown configuration key {key!r}")


def validate_config(cfg: RunConfig) -> None:
    """Reject parameter points the truncated model cannot support.

    The series-tail guard bounds lam^{(K+1)/2} / (1 - sqrt(lam)); past
    TAIL_BUDGET_MAX the truncated series says nothing about its limit,
    so the point is refused rather than reported with a vacuous bound.
    """
    if not (DEPTH_MIN <= cfg.depth <= MAX_DEPTH):
        raise ConfigError(
            f"depth {cfg.depth} outside [{DEPTH_MIN}, {MAX_DEPTH}]")
    K = cfg.effective_terms()
    if not (1 <= K <= cfg.depth // 2):
        raise ConfigError(
            f"terms {K} outside [1, depth//2 = {cfg.depth // 2}]")
    if not (10 <= cfg.pairing_cap <= 20):
        raise ConfigError("pairing_cap must lie in [10, 20]")
    if cfg.fmt not in ("csv", "json"):
        raise ConfigError(f"format {cfg.fmt!r} not in {{csv, json}}")
    if cfg.jobs < 1:
        raise ConfigError("jobs must be >= 1")
    for tol in (cfg.tol_identity, cfg.tol_eigen, cfg.tol_moment):
        if not (0 < tol < 1):
            raise ConfigError("tolerances must lie in (0, 1)")
    for q in cfg.q_grid:
        if abs(q) > Q_ENVELOPE:
            raise ConfigError(
                f"q = {q} outside the supported envelope |q| <= {Q_ENVELOPE}")
    for lam in cfg.lam_grid:
        if not (0.0 < lam < 1.0):
            raise ConfigError(f"lambda = {lam} outside (0, 1)")
        tail_budget = lam ** ((K + 1) / 2.0) / (1.0 - math.sqrt(lam))
        if tail_budget > TAIL_BUDGET_MAX:
            raise ConfigError(
                f"lambda = {lam} at depth {cfg.depth}: series tail budget "
                f"{tail_budget:.3g} exceeds {TAIL_BUDGET_MAX}; the "
                f"truncation cannot certify anything at this point")
    # one representative model per point, so the word budget is caught
    # here instead of mid-run
    for q in cfg.q_grid or (0.0,):
        try:
            ModelParams(q=q, lam=0.5, depth=cfg.depth,
                        max_total_words=cfg.max_total_words)
        except (ValueError, BudgetExceededError) as exc:
            raise ConfigError(str(exc)) from None


def load_calibration() -> dict:
    text = resources.files("qfock").joinpath("calibration.json").read_text()
    return json.loads(text)


# -- check plumbing -----------------------------------------------------


@dataclass
class CheckResult:
    name: str
    passed: bool
    gap: float
    tol: float
    note: str = ""


class _Suite:
    def __init__(self):
        self.results: list[CheckResult] = []

    def add(self, name: str, tol: float, fn, note: str = ""):
        try:
            out = fn()
        except Exception as exc:  # a crashed check is a failed check
            self.results.append(CheckResult(
                name, False, float("inf"), tol,
                f"{type(exc).__name__}: {exc}"))
            return
        if isinstance(out, tuple):
            gap, extra = float(out[0]), str(out[1])
        else:
            gap, extra = float(out), note
        self.results.append(CheckResult(name, gap <= tol, gap, tol, extra))


def _hinge(x: float) -> float:
    return max(0.0, float(x))


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(b))


# -- combinatorial checks (grid-free) -----------------------------------


def _probe_qs(cfg: RunConfig) -> tuple:
    return tuple(cfg.q_grid) if cfg.q_grid else (-0.5, 0.0, 0.5)


def _qcomb_checks(suite: _Suite, cfg: RunConfig) -> None:
    qs = _probe_qs(cfg)
    tol = cfg.tol_identity

    def pascal():
        worst = 0.0
        for q in qs:
            for n in range(11):
                for k in range(1, n + 1):
                    lhs = q ** k * q_binomial(n, k, q) + q_binomial(n, k - 1, q)
                    rhs = q_binomial(n + 1, k, q)
                    worst = max(worst, _rel(lhs, rhs))
        return worst
    suite.add("qcomb/pascal-identity", tol, pascal)

    def factorial_product():
        worst = 0.0
        for q in qs:
            fam = d_family(q, j_max=12)
            for n in range(13):
                lhs = q_factorial(n, q)
                rhs = fam.d[n] * (1.0 - q) ** (-n)
                worst = max(worst, abs(lhs - rhs) / abs(rhs))
        return worst
    suite.add("qcomb/factorial-d-product", tol, factorial_product)

    def binom_symmetry():
        worst = 0.0
        for q in qs:
            for n in range(11):
                for k in range(n + 1):
                    worst = max(worst, _rel(q_binomial(n, k, q),
                                            q_binomial(n, n - k, q)))
        return worst
    suite.add("qcomb/binomial-symmetry", tol, binom_symmetry)

    def d_inf_product():
        worst = 0.0
        for q in qs:
            fam = d_family(q, j_max=0)
            direct = 1.0
            for j in range(1, 2000):
                step = q ** j
                direct *= 1.0 - step
                if abs(step) < 1e-300:
                    break
            worst = max(worst, abs(direct - fam.d_inf))
        return worst
    suite.add("qcomb/d-inf-product", 1e-13, d_inf_product)

    def constants():
        worst = 0.0
        for q in qs:
            bc = bound_constants(q)
            fam_abs = d_family(abs(q), j_max=0)
            worst = max(worst, abs(bc.c_q * fam_abs.d_inf - 1.0))
            worst = max(worst, _hinge(1.0 - bc.d_sup))
        return worst
    suite.add("qcomb/bound-constants", 1e-13, constants)

    def moments_closed():
        worst = 0.0
        for q in qs:
            worst = max(worst, abs(pair_partition_moment(0, q) - 1.0))
            worst = max(worst, abs(pair_partition_moment(2, q) - 1.0))
            worst = max(worst, abs(pair_partition_moment(4, q) - (2.0 + q)))
            m6 = 5.0 + 6.0 * q + 3.0 * q ** 2 + q ** 3
            worst = max(worst, abs(pair_partition_moment(6, q) - m6))
            worst = max(worst, abs(pair_partition_moment(3, q)))
            worst = max(worst, abs(pair_partition_moment(5, q)))
        return worst
    suite.add("qcomb/moment-closed-forms", tol, moments_closed)

    def wick_bound():
        worst = 0.0
        for q in qs:
            if q == 0.0:
                continue
            bc = bound_constants(q)
            for n in range(1, 7):
                coeffs = wick_coefficients(n, q)
                for k in range(n + 1):
                    for ell in range(n + 1):
                        cap = bc.c_q ** 2 * abs(q) ** ((n - k) * ell)
                        worst = max(worst,
                                    _hinge(abs(coeffs[k][ell]) - cap))
        return worst
    suite.add("qcomb/wick-coefficient-bound", 1e-12, wick_bound)

    def frozen():
        worst = abs(inversions((3, 1, 2)) - 2)
        worst = max(worst, abs(crossings(4, (3, 4)) - 4))
        worst = max(worst, abs(q_int(3, 0.5) - 1.75))
        worst = max(worst, abs(q_factorial(3, 0.5) - 2.625))
        worst = max(worst, abs(q_binomial(3, 1, 0.5) - 1.75))
        return worst
    suite.add("qcomb/enumeration-frozen-values", 1e-14, frozen)


# -- per-point battery (fock + ops identities) --------------------------

_BATTERY_NAMES = (
    "fock/gram-path-agreement",
    "fock/gram-factorization",
    "fock/power-norm-factorial",
    "fock/vacuum-state",
    "fock/inner-conjugate-symmetry",
    "fock/rescale-consistency",
    "ops/commutation-relation",
    "ops/split-adjoint",
    "ops/adjoint-powers",
    "ops/creation-adjoint-gram",
    "ops/creation-norm-bound",
)


def _concat(vec: FockVector, suffix: tuple, front: bool = False) -> FockVector:
    out = FockVector()
    for w, c in vec.terms.items():
        key = (suffix + w) if front else (w + suffix)
        out.terms[key] = out.terms.get(key, 0.0) + c
    return out


def _battery_point(sp) -> dict:
    """All cheap per-point identity checks; returns name -> gap."""
    q, lam = sp.q, sp.lam
    N = sp.depth
    gaps = {}

    worst = 0.0
    for level in range(1, 4):
        for sig in sp.blocks_at_level(level):
            G = sp.gram(sig)
            B = sp.gram_bruteforce(sig)
            scale = max(1.0, float(np.abs(G).max()))
            worst = max(worst, float(np.abs(G - B).max()) / scale)
    gaps["fock/gram-path-agreement"] = worst

    worst = 0.0
    for level in range(1, min(6, N) + 1):
        for sig in sp.blocks_at_level(level):
            G = sp.gram(sig)
            L = sp.gram_chol(sig)
            scale = max(1.0, float(np.abs(G).max()))
            worst = max(worst, float(np.abs(L @ L.T - G).max()) / scale)
            worst = max(worst, _hinge(-float(np.diag(L).min())))
    gaps["fock/gram-factorization"] = worst

    worst = 0.0
    for n in range(1, N + 1):
        v = FockVector.word((E,) * n)
        lhs = sp.norm_sq(v) * lam ** (n / 2.0)
        rhs = q_factorial(n, q)
        worst = max(worst, abs(lhs - rhs) / rhs)
    gaps["fock/power-norm-factorial"] = worst

    vac = FockVector.vacuum()
    worst = abs(sp.norm(vac) - 1.0)
    worst = max(worst, abs(sp.inner(vac, FockVector.word((E,)))))
    gaps["fock/vacuum-state"] = worst

    rng = np.random.default_rng(20240711)
    words = [w for lv in range(4) for s in sp.blocks_at_level(lv)
             for w in sp.block_words(s)]
    u = FockVector()
    v = FockVector()
    for w in words:
        cu = complex(*rng.standard_normal(2))
        cv = complex(*rng.standard_normal(2))
        u.terms[w] = cu
        v.terms[w] = cv
    ip, pi = sp.inner(u, v), sp.inner(v, u)
    gaps["fock/inner-conjugate-symmetry"] = \
        abs(ip - np.conj(pi)) / (1.0 + abs(ip))

    fresh = build_space(q=q, lam=lam, depth=4,
                        max_total_words=sp.params.max_total_words)
    worst = 0.0
    for level in range(1, 5):
        for sig in sp.blocks_at_level(level):
            worst = max(worst, float(np.abs(sp.gram(sig)
                                            - fresh.gram(sig)).max()))
    gaps["fock/rescale-consistency"] = worst

    ce = ops.creation_letter(sp, E)
    ae = ops.annihilation_letter(sp, E)
    cb = ops.creation_letter(sp, EBAR)
    uE = sp.u[E]
    # sources up to level 4, below the depth so the creation stays exact
    top = min(4, N - 1)
    lhs = (ae @ ce) + (-q) * (ce @ ae)
    g1 = ops.action_gap(lhs, uE * ops.identity(sp), top)
    lhs = (ae @ cb) + (-q) * (cb @ ae)
    g2 = ops.action_gap(lhs, ops.zero(sp), top)
    rce = ops.right_creation_letter(sp, E)
    rae = ops.right_annihilation_letter(sp, E)
    lhs = (rae @ rce) + (-q) * (rce @ rae)
    g3 = ops.action_gap(lhs, uE * ops.identity(sp), top)
    gaps["ops/commutation-relation"] = max(g1, g2, g3)

    worst = 0.0
    for head in ((E,), (E, EBAR), (EBAR, E, E)):
        for tail in ((E,), (EBAR, E)):
            whole = ae.apply(FockVector.word(head + tail))
            split = _concat(ae.apply(FockVector.word(head)), tail) \
                + q ** len(head) * _concat(ae.apply(FockVector.word(tail)),
                                           head, front=True)
            diff = whole - split
            err = max((abs(c) for c in diff.terms.values()), default=0.0)
            worst = max(worst, err)
    gaps["ops/split-adjoint"] = worst

    worst = 0.0
    for n, m in ((1, 3), (2, 4), (3, 5)):
        got = FockVector.word((E,) * m)
        for _ in range(n):
            got = ae.apply(got)
        coef = (q_factorial(m, q) / q_factorial(m - n, q)) \
            * lam ** (-n / 2.0)
        want = FockVector.word((E,) * (m - n), coeff=coef)
        diff = got - want
        err = max((abs(c) for c in diff.terms.values()), default=0.0)
        worst = max(worst, err / coef)
    gaps["ops/adjoint-powers"] = worst

    g1 = ops.action_gap(ops.q_adjoint(ce), ae, 4)
    g2 = ops.action_gap(ops.q_adjoint(cb),
                        ops.annihilation_letter(sp, EBAR), 4)
    gaps["ops/creation-adjoint-gram"] = max(g1, g2)

    worst = 0.0
    norm_e = lam ** -0.25
    for n in range(1, min(6, N) + 1):
        got = ops.op_norm(ce.power(n), src_level_max=min(6, N - n))
        if q >= 0:
            cap = (norm_e / math.sqrt(1.0 - q)) ** n
        else:
            cap = norm_e ** n
        worst = max(worst, _hinge(got - cap) / cap)
    gaps["ops/creation-norm-bound"] = worst

    return gaps


def _battery_for_q(args):
    """Worker: one q value, every lambda; returns aggregated gaps."""
    q, lams, depth, max_words = args
    agg = {}
    base = None
    t_details = None
    for lam in lams:
        if base is None:
            base = build_space(q=q, lam=lam, depth=depth,
                               max_total_words=max_words)
            sp = base
        else:
            sp = base.with_lambda(lam)
        for name, gap in _battery_point(sp).items():
            prev = agg.get(name)
            if prev is None or gap > prev[0]:
                agg[name] = (gap, f"q={q:g} lam={lam:g}")
        del sp
    if base is not None:
        rep = limits.t_limit_check(base)
        det = rep.details
        t_details = {
            "eig": (det["eig_identity_max_err"], f"q={q:g}"),
            "bounds": (0.0 if det["bounds_ok"] else 1.0, f"q={q:g}"),
            "sup": (0.0 if det["sup_bound_ok"] else 1.0, f"q={q:g}"),
        }
    return q, agg, t_details


def _grid_checks(suite: _Suite, cfg: RunConfig) -> None:
    qs = list(cfg.q_grid)
    agg: dict = {}
    t_agg = {"eig": (0.0, "empty grid"), "bounds": (0.0, "empty grid"),
             "sup": (0.0, "empty grid")}
    tasks = [(q, tuple(cfg.lam_grid), cfg.depth, cfg.max_total_words)
             for q in qs if cfg.lam_grid]

    if cfg.jobs > 1 and len(tasks) > 1:
        try:
            with concurrent.futures.ProcessPoolExecutor(
                    max_workers=min(cfg.jobs, len(tasks))) as pool:
                outs = list(pool.map(_battery_for_q, tasks))
        except OSError:
            outs = [_battery_for_q(t) for t in tasks]
    else:
        outs = [_battery_for_q(t) for t in tasks]

    for _, point_gaps, t_details in outs:
        for name, (gap, note) in point_gaps.items():
            prev = agg.get(name)
            if prev is None or gap > prev[0]:
                agg[name] = (gap, note)
        if t_details is not None:
            for key, (gap, note) in t_details.items():
                if gap > t_agg[key][0]:
                    t_agg[key] = (gap, note)

    tol = cfg.tol_identity
    for name in _BATTERY_NAMES:
        gap, note = agg.get(name, (0.0, "empty grid"))
        suite.add(name, tol, lambda g=gap, n=note: (g, n))

    suite.add("limits/t-eigenvalue-identity", cfg.tol_eigen,
              lambda: t_agg["eig"])
    suite.add("limits/t-spectral-bounds", 0.5, lambda: t_agg["bounds"],
              note="indicator gap: 0 iff bounds hold")
    suite.add("limits/t-norm-bound-ratio", 0.5, lambda: t_agg["sup"],
              note="indicator gap: 0 iff sup-form bound holds")


# -- fixed-point operator checks ----------------------------------------


def _ops_checks(suite: _Suite, cfg: RunConfig) -> None:
    tol = cfg.tol_identity
    sps = [build_space(q=0.3, lam=0.4, depth=10),
           build_space(q=-0.5, lam=0.3, depth=10)]

    def modular_involutions():
        worst = 0.0
        for sp in sps:
            mo = ops.modular_ops(sp)
            worst = max(worst, ops.action_gap(mo.J @ mo.J,
                                              ops.identity(sp), 6))
            worst = max(worst, ops.action_gap(mo.S @ mo.S,
                                              ops.identity(sp), 6))
            worst = max(worst, ops.action_gap(
                mo.J, mo.S @ ops.modular_delta(sp, -0.5), 6))
        return worst
    suite.add("ops/modular-involutions", tol, modular_involutions)

    def modular_letter_map():
        worst = 0.0
        for sp in sps:
            mo = ops.modular_ops(sp)
            je = mo.J.apply(FockVector.word((E,)))
            worst = max(worst,
                        abs(je.coefficient((EBAR,)) - sp.lam ** -0.5))
            de = ops.modular_delta(sp, 1.0).apply(FockVector.word((E,)))
            worst = max(worst, abs(de.coefficient((E,)) - sp.lam))
            db = ops.modular_delta(sp, 1.0).apply(FockVector.word((EBAR,)))
            worst = max(worst, abs(db.coefficient((EBAR,)) - 1.0 / sp.lam))
        return worst
    suite.add("ops/modular-letter-map", tol, modular_letter_map)

    def modular_intertwine():
        worst = 0.0
        for sp in sps:
            mo = ops.modular_ops(sp)
            ce = ops.creation_letter(sp, E)
            worst = max(worst, ops.action_gap(
                mo.J @ ce @ mo.J,
                sp.lam ** -0.5 * ops.right_creation_letter(sp, EBAR), 6))
            we = ops.wick(sp, (E,))
            worst = max(worst, ops.action_gap(
                ops.modular_delta(sp, 1.0) @ we
                @ ops.modular_delta(sp, -1.0),
                sp.lam * we, 6))
        return worst
    suite.add("ops/modular-intertwining", tol, modular_intertwine)

    def wick_vacuum():
        worst = 0.0
        for sp in sps:
            for word in ((E,), (EBAR,), (EBAR, E), (E, E, EBAR)):
                got = ops.wick(sp, word).apply(FockVector.vacuum())
                diff = got - FockVector.word(word)
                worst = max(worst, max((abs(c) for c in diff.terms.values()),
                                       default=0.0))
            got = ops.wick_right(sp, (EBAR, E)).apply(FockVector.vacuum())
            diff = got - FockVector.word((EBAR, E))
            worst = max(worst, max((abs(c) for c in diff.terms.values()),
                                   default=0.0))
        return worst
    suite.add("ops/wick-vacuum-defining", tol, wick_vacuum)

    def wen_triple():
        worst = 0.0
        for sp in sps:
            single = ops.wick(sp, (E,))
            for n in range(1, 6):
                closed = ops.wen_operator(sp, n)
                lim = sp.depth - n
                worst = max(worst, ops.action_gap(
                    closed, ops.wick(sp, (E,) * n), lim))
                worst = max(worst, ops.action_gap(
                    closed, single.power(n), lim))
        return worst
    suite.add("ops/wen-triple-equality", tol, wen_triple)

    def ween_reconstruction():
        worst = 0.0
        for sp in sps:
            q = sp.q
            ce = ops.creation_letter(sp, E)
            cb = ops.creation_letter(sp, EBAR)
            ae = ops.annihilation_letter(sp, E)
            ab = ops.annihilation_letter(sp, EBAR)
            for n in range(1, 5):
                coeffs = wick_coefficients(n, q)
                total = ops.zero(sp)
                for k in range(n + 1):
                    for ell in range(n + 1):
                        term = cb.power(k) @ ce.power(ell) \
                            @ ae.power(n - k) @ ab.power(n - ell)
                        total = total + coeffs[k][ell] * term
                worst = max(worst, ops.action_gap(
                    ops.wick_balanced(sp, n), total, sp.depth - 2 * n))
        return worst
    suite.add("ops/ween-reconstruction", tol, ween_reconstruction)

    def commutant():
        worst = 0.0
        for sp in sps:
            for wl, wr in (((E,), (E,)), ((EBAR,), (EBAR, E)),
                           ((E, EBAR), (E,))):
                A = ops.wick(sp, wl)
                B = ops.wick_right(sp, wr)
                AB, BA = A @ B, B @ A
                lim = sp.depth - max(AB.peak, BA.peak)
                worst = max(worst, ops.action_gap(AB, BA, lim))
        return worst
    suite.add("ops/left-right-commutant", tol, commutant)

    def flip_unitary():
        worst = 0.0
        for sp in sps:
            fl = ops.flip_unitary(sp)
            for sig in ((2, 1), (2, 2), (3, 1)):
                P = fl.action(sig)[sig]
                G = sp.gram(sig)
                worst = max(worst,
                            float(np.abs(P.T @ G @ P - G).max()))
            gflip = ops.action_gap(fl @ ops.wick(sp, (E,)) @ fl,
                                   ops.wick_right(sp, (E,)), 6)
            worst = max(worst, _hinge(1e-3 - gflip))
        return worst
    suite.add("ops/flip-form-preserving", tol, flip_unitary,
              note="also requires plain flip conjugation != right version")

    def free_case():
        sp0 = build_space(q=0.0, lam=0.25, depth=8)
        worst = abs(ops.op_norm(ops.creation_letter(sp0, E))
                    - 0.25 ** -0.25)
        worst = max(worst,
                    abs(ops.min_singular(ops.identity(sp0),
                                         src_level_max=4) - 1.0))
        return worst
    suite.add("ops/free-case-norms", tol, free_case)

    def adjoint_consistency():
        # norm equality needs exactly dual windows, so pair the shift
        # operators src <= 6 against src <= 7; the mixed operator gets
        # the double-adjoint identity instead
        worst = 0.0
        for sp in sps:
            ce = ops.creation_letter(sp, E)
            ae = ops.annihilation_letter(sp, E)
            worst = max(worst, abs(ops.op_norm(ce, src_level_max=6)
                                   - ops.op_norm(ae, src_level_max=7)))
            A = ops.wen_operator(sp, 2)
            back = ops.q_adjoint(ops.q_adjoint(A, src_level_max=8),
                                 src_level_max=8)
            worst = max(worst, ops.action_gap(back, A, 6))
        return worst
    suite.add("ops/adjoint-consistency", 1e-8, adjoint_consistency)


# -- convergence and certificate checks ---------------------------------


def _limits_checks(suite: _Suite, cfg: RunConfig) -> None:
    tol = cfg.tol_identity
    cal = load_calibration()
    pt = cal["rank_one"]["point"]
    sp_can = build_space(q=pt["q"], lam=pt["lam"], depth=pt["depth"])

    def t_limit_convergence():
        worst = 0.0
        arg = ""
        for q in (-0.2, -0.1, 0.1, 0.2):
            sp = build_space(q=q, lam=0.3, depth=14)
            rep = limits.t_limit_check(sp, k_max=4, n_max=10)
            gap = rep.gaps[-1]
            if gap > worst:
                worst, arg = gap, f"q={q:g} n=10"
        return worst, arg
    suite.add("limits/t-limit-convergence", 1e-6, t_limit_convergence)

    def beta_constant():
        worst = 0.0
        for q, expect_eq in ((-0.5, True), (-0.3, True), (-0.7, False)):
            sp = build_space(q=q, lam=0.3, depth=8)
            det = limits.t_limit_check(sp).details
            eq = det["beta_equals_d_inf"] and det["beta_condition"]
            if eq != expect_eq:
                worst = max(worst, 1.0)
        return worst
    suite.add("limits/spectral-sup-criterion", 0.5, beta_constant,
              note="indicator: sup of limit spectrum hits d_inf exactly "
                   "when the small-|q| condition holds")

    def s_vacuum():
        fam = d_family(sp_can.q, j_max=6)
        worst = 0.0
        for n in range(1, 6):
            got = limits.s_n_operator(sp_can, n).apply(FockVector.vacuum())
            diff = got - FockVector.vacuum(coeff=fam.d[n])
            worst = max(worst, max((abs(c) for c in diff.terms.values()),
                                   default=0.0))
        return worst
    suite.add("limits/s-vacuum-family", tol, s_vacuum)

    def s_series():
        worst = limits.s_series_identity_gap(sp_can, 3)
        sp_neg = build_space(q=-0.5, lam=0.3, depth=10)
        worst = max(worst, limits.s_series_identity_gap(sp_neg, 3))
        return worst
    suite.add("limits/s-series-identity", tol, s_series)

    def s_adjoint_closed():
        worst = 0.0
        for sp in (sp_can, build_space(q=-0.5, lam=0.3, depth=10)):
            A = limits.s_n_operator(sp, 3)
            got = limits.adjoint_vacuum(sp, A, level_max=6)
            want = limits.s_adjoint_vacuum_closed_form(sp, 3)
            worst = max(worst, sp.norm(got - want))
        return worst
    suite.add("limits/s-adjoint-closed-form", tol, s_adjoint_closed)

    def s_infinity_adjoint():
        series = limits.s_infinity(sp_can)
        K = series.n_terms
        xi = limits.xi_vector(sp_can, n_terms=K, compute_residual=False)
        got = limits.adjoint_vacuum(sp_can, series.op,
                                    level_max=sp_can.depth)
        dd = sp_can.norm(got - xi.vector)
        return dd, f"adaptive-compression budget at N={sp_can.depth}"
    suite.add("limits/s-infinity-adjoint-vacuum",
              5 * abs(sp_can.q) ** (sp_can.depth + 1), s_infinity_adjoint)

    def xi_closed_form():
        worst = 0.0
        for sp in (sp_can, build_space(q=0.0, lam=0.75, depth=12),
                   build_space(q=-0.5, lam=0.3, depth=10)):
            xi = limits.xi_vector(sp)
            got = sp.norm_sq(xi.vector)
            worst = max(worst, abs(got - xi.norm_sq_closed_form)
                        / xi.norm_sq_closed_form)
        return worst
    suite.add("limits/xi-closed-form-norm", tol, xi_closed_form)

    def xi_fixed_point():
        worst = 0.0
        for sp in (sp_can, build_space(q=0.0, lam=0.75, depth=12),
                   build_space(q=-0.5, lam=0.3, depth=10)):
            xi = limits.xi_vector(sp)
            worst = max(worst, xi.fixed_point_residual)
        return worst
    suite.add("limits/xi-fixed-point-residual", tol, xi_fixed_point)

    cal_below = cal["certificates"]["rows"][0]
    cal_kernel = cal["certificates"]["rows"][1]

    def invertibility_below():
        cert = limits.invertibility_certificate(0.1, 0.15,
                                                truncations=(10, 12))
        worst = _hinge(cert.product - 1.0)
        floor = 0.5 * cert.d_inf * (1.0 - cert.product)
        for _, _, sig in cert.min_singular:
            worst = max(worst, _hinge(floor - sig) / floor)
        if cert.analytic_verdict != (cert.product < 1.0):
            worst = max(worst, 1.0)
        return worst, f"floor={floor:.6g}"
    suite.add("limits/invertibility-below-threshold", 0.0,
              invertibility_below)

    def invertibility_kernel():
        cert = limits.invertibility_certificate(0.0, 0.75,
                                                truncations=(8, 10, 12))
        sigs = [sig for _, _, sig in cert.min_singular]
        decrease = 1.0 - sigs[-1] / sigs[0]
        need = cal["certificates"]["kernel_decrease_min"]
        return _hinge(need - decrease), f"decrease={decrease:.4f}"
    suite.add("limits/invertibility-kernel-regime", 0.0,
              invertibility_kernel)

    def certificate_drift():
        worst = 0.0
        for frozen, truncs in ((cal_below, (10, 12)),
                               (cal_kernel, (8, 10, 12))):
            cert = limits.invertibility_certificate(
                frozen["q"], frozen["lam"], truncations=tuple(truncs))
            for (_, _, got), (_, _, want) in zip(cert.min_singular,
                                                 frozen["min_singular"]):
                worst = max(worst, abs(got - want) / want)
            worst = max(worst, _rel(cert.threshold, frozen["threshold"]))
        return worst
    suite.add("limits/certificate-drift",
              cal["rank_one"]["thresholds"]["drift_rel"], certificate_drift)

    def threshold_values():
        worst = abs(limits.invertibility_threshold(0.1)
                    - 0.19536490356513797) / 0.19536490356513797
        worst = max(worst, abs(limits.invertibility_threshold(0.5)
                               - 0.005925713267144628)
                    / 0.005925713267144628)
        worst = max(worst, abs(limits.invertibility_threshold(1e-9) - 0.25))
        worst = max(worst, abs(limits.invertibility_threshold(-1e-9) - 0.25))
        return worst
    suite.add("limits/threshold-frozen-values", 1e-6, threshold_values)

    rank_rep = limits.rank_one_diagnostics(sp_can)
    rank_rows = {n: v for n, v in rank_rep.values}
    thr = cal["rank_one"]["thresholds"]
    n_last = max(rank_rows)

    def rank_ratio():
        ratios = [rank_rows[n]["ratio"] for n in sorted(rank_rows)]
        worst = 0.0
        for a, b in zip(ratios, ratios[1:]):
            worst = max(worst, _hinge(b - a + 1e-12))
        return worst, "ratios " + " ".join(f"{r:.4f}" for r in ratios)
    suite.add("limits/rank-one-ratio-decrease", 0.0, rank_ratio)

    def rank_cosine():
        c = rank_rows[n_last]["cosine"]
        return _hinge(thr["cosine_min_final"] - c), f"cosine={c:.6f}"
    suite.add("limits/rank-one-cosine", 0.0, rank_cosine)

    def rank_sigma_window():
        v = rank_rows[n_last]
        rel = abs(v["sigma1"] - v["window_norm_sq"]) / v["window_norm_sq"]
        return _hinge(rel - thr["sigma1_window_rel"]), f"rel={rel:.2e}"
    suite.add("limits/rank-one-sigma-window", 0.0, rank_sigma_window)

    def rank_sigma_full():
        full = rank_rep.details["norm_sq_limit"]
        v = rank_rows[thr["sigma1_full_rel_at"]]
        rel = abs(v["sigma1"] - full) / full
        return _hinge(rel - thr["sigma1_full_rel"]), f"rel={rel:.4f}"
    suite.add("limits/rank-one-sigma-full", 0.0, rank_sigma_full)

    def rank_tail_account():
        full = rank_rep.details["norm_sq_limit"]
        v = rank_rows[n_last]
        deficit = full - v["sigma1"]
        tail = full - v["window_norm_sq"]
        rel = abs(deficit - tail) / tail
        return _hinge(rel - thr["tail_account_rel"]), f"rel={rel:.2e}"
    suite.add("limits/rank-one-tail-account", 0.0, rank_tail_account)

    def rank_drift():
        worst = 0.0
        for row in cal["rank_one"]["rows"]:
            v = rank_rows[row["n"]]
            for key in ("sigma1", "ratio", "cosine", "window_norm_sq"):
                worst = max(worst, _rel(v[key], row[key]))
        return worst
    suite.add("limits/rank-one-fixture-drift", thr["drift_rel"], rank_drift)

    def comp_table():
        worst = 0.0
        rel_tol = cal["comp"]["rel_tol_final"]
        abs_tol = cal["comp"]["abs_tol_zero"]
        for row in cal["comp"]["rows"]:
            idx = {k: (tuple(v) if isinstance(v, list) else v)
                   for k, v in row["indices"].items()}
            rep = limits.comp_limit(sp_can, n_max=5, **idx)
            if not rep.monotone:
                worst = max(worst, 1.0)
            if rep.limit == 0.0:
                worst = max(worst, _hinge(rep.final_gap - abs_tol))
            else:
                worst = max(worst,
                            _hinge(rep.final_gap / abs(rep.limit) - rel_tol))
            for (_, got), (_, want) in zip(rep.values, row["values"]):
                worst = max(worst, abs(got - want))
        return worst
    suite.add("limits/comp-table", 1e-9, comp_table)

    scan_pos = build_space(q=0.3, lam=0.4, depth=12)
    scan_neg = build_space(q=-0.5, lam=0.3, depth=12)

    def scan(kind, **kw):
        def run():
            worst = 0.0
            for sp in (scan_pos, scan_neg):
                rep = limits.boundedness_scan(sp, kind, **kw)
                worst = max(worst, max(rep.gaps))
            return worst
        return run
    suite.add("limits/boundedness-creation", tol,
              scan("creation_powers", n_max=10))
    suite.add("limits/boundedness-wen", tol, scan("wen_powers", n_max=10))
    suite.add("limits/boundedness-weew", tol, scan("weew_powers"))
    suite.add("limits/boundedness-mixed-word", tol,
              scan("mixed_word", n_max=4, m_word=8))

    def decay_contraction():
        rep = limits.lim_decay(sp_can)
        worst = 0.0 if rep.monotone else 1.0
        ratios = rep.details["decay_ratios"]
        if ratios:
            worst = max(worst, abs(ratios[-1] - abs(sp_can.q)))
        return worst, f"final ratio vs |q|"
    suite.add("limits/decay-contraction", 0.05, decay_contraction)

    def decay_free():
        sp0 = build_space(q=0.0, lam=0.75, depth=10)
        rep = limits.lim_decay(sp0)
        vals = [max(v.values()) for _, v in rep.values]
        return max(vals[1:]) if len(vals) > 1 else 0.0
    suite.add("limits/decay-free-case", 1e-13, decay_free)

    def centralizer():
        ok = limits.centralizer_word(sp_can, (EBAR, E)) \
            and limits.centralizer_word(sp_can, (E, EBAR, EBAR, E)) \
            and not limits.centralizer_word(sp_can, (E,)) \
            and not limits.centralizer_word(sp_can, (E, E, EBAR))
        return 0.0 if ok else 1.0
    suite.add("limits/centralizer-criterion", 0.5, centralizer,
              note="indicator: balanced words in, unbalanced out")

    def moment_oracle():
        worst = 0.0
        for q in (0.3, -0.5, 0.0):
            sp = build_space(q=q, lam=0.5, depth=10)
            rep = limits.moment_check(sp, k_max=5)
            worst = max(worst, rep.final_gap, max(rep.gaps))
            worst = max(worst, rep.details["odd_max"])
        return worst
    suite.add("limits/moment-oracle", cfg.tol_moment, moment_oracle)


def run_checks(cfg: RunConfig) -> list:
    suite = _Suite()
    _qcomb_checks(suite, cfg)
    _grid_checks(suite, cfg)
    _ops_checks(suite, cfg)
    _limits_checks(suite, cfg)
    return suite.results


# -- subcommands --------------------------------------------------------


def _fmt_float(x) -> str:
    if x is None:
        return ""
    return f"{x:.17g}"


def cmd_verify(cfg: RunConfig) -> int:
    t0 = time.perf_counter()
    results = run_checks(cfg)
    elapsed = time.perf_counter() - t0

    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = {
        "format": REPORT_SCHEMA,
        "config": {**asdict(cfg),
                   "q_grid": list(cfg.q_grid),
                   "lam_grid": list(cfg.lam_grid)},
        "checks": [asdict(r) for r in results],
        "summary": {
            "total": len(results),
            "passed": sum(r.passed for r in results),
            "failed": sum(not r.passed for r in results),
            "first_failure": next((r.name for r in results if not r.passed),
                                  None),
        },
    }
    (out / "report.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n")

    for r in results:
        tag = "PASS" if r.passed else "FAIL"
        note = f"  [{r.note}]" if r.note else ""
        print(f"{tag} {r.name}  gap={r.gap:.3e} tol={r.tol:.3e}{note}")
    print(f"{payload['summary']['passed']}/{len(results)} checks passed "
          f"in {elapsed:.1f}s; report: {out / 'report.json'}")
    first = payload["summary"]["first_failure"]
    if first is not None:
        print(f"first failing check: {first}", file=sys.stderr)
        return 1
    return 0


def _sweep_point(q, lam, depth, terms, max_words, base=None):
    """One sweep row.  With ``base`` the point runs on
    ``base.with_lambda(lam)`` and shares its Gram caches; otherwise on a
    fresh space.  Returns the row and the space used (None if none could
    be built)."""
    t0 = time.perf_counter()
    row = {"q": q, "lambda": lam, "depth": depth, "threshold": None,
           "analytic_verdict": None, "min_singular": None,
           "sigma_ratio": None, "cosine": None, "status": "ok",
           "runtime_ms": None}
    sp = None
    try:
        if base is None:
            sp = build_space(q=q, lam=lam, depth=depth,
                             max_total_words=max_words)
        else:
            sp = base.with_lambda(lam)
        cert = limits.invertibility_certificate(
            q, lam, truncations=(depth,),
            space_factory=lambda _q, _l, _n: sp, n_terms=terms)
        row["threshold"] = cert.threshold
        row["analytic_verdict"] = cert.analytic_verdict
        row["min_singular"] = cert.min_singular[0][2]
        n_star = (depth - 2) // 2
        rep = limits.rank_one_diagnostics(sp, n_list=[n_star])
        row["sigma_ratio"] = rep.values[0][1]["ratio"]
        row["cosine"] = rep.values[0][1]["cosine"]
    except Exception as exc:
        row["status"] = f"error:{type(exc).__name__}"
    row["runtime_ms"] = round((time.perf_counter() - t0) * 1000.0, 3)
    return row, sp


def _sweep_q_row(args):
    """Worker: one q value, every lambda on one space's Gram caches;
    the first point that builds a space pays for the shared Gram work."""
    q, lams, depth, terms, max_words = args
    rows = []
    base = None
    for lam in lams:
        row, sp = _sweep_point(q, lam, depth, terms, max_words, base)
        if base is None:
            base = sp
        rows.append(row)
    return rows


def _sweep_csv(rows) -> str:
    lines = [f"# {SWEEP_SCHEMA}", ",".join(SWEEP_COLUMNS)]
    for row in rows:
        cells = []
        for col in SWEEP_COLUMNS:
            val = row[col]
            if col == "analytic_verdict":
                cells.append("" if val is None else str(bool(val)).lower())
            elif col in ("depth",):
                cells.append(str(val))
            elif col == "status":
                cells.append(val)
            elif col == "runtime_ms":
                cells.append("" if val is None else f"{val:.3f}")
            else:
                cells.append(_fmt_float(val))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _plot_script(cfg: RunConfig, data_name: str) -> str:
    lines = [
        f"# {SWEEP_SCHEMA} plot commands (gnuplot)",
        f"# data file: {data_name}",
        "set datafile separator comma",
        "set key outside",
        'set xlabel "lambda"',
        'set ylabel "min singular value of the truncated inverse candidate"',
        "set grid",
    ]
    qs = list(cfg.q_grid)
    if not qs:
        lines.append("# empty grid: nothing to plot")
        return "\n".join(lines) + "\n"
    series = []
    for q in qs:
        qtxt = _fmt_float(q)
        series.append(
            f'  "{data_name}" using ($1=={qtxt}?$2:1/0):6 '
            f'with linespoints title "q={q:g}"')
    lines.append("plot \\")
    lines.append(", \\\n".join(series))
    lines += [
        "",
        "# column 7 is sigma2/sigma1 of the rank-one witness and column 8",
        "# the cosine to the distinguished vector; swap the 6 above to see",
        "# those surfaces instead",
        "pause -1",
    ]
    return "\n".join(lines) + "\n"


def cmd_sweep(cfg: RunConfig) -> int:
    tasks = [(q, tuple(cfg.lam_grid), cfg.depth, cfg.effective_terms(),
              cfg.max_total_words) for q in cfg.q_grid if cfg.lam_grid]

    if cfg.jobs > 1 and len(tasks) > 1:
        try:
            with concurrent.futures.ProcessPoolExecutor(
                    max_workers=min(cfg.jobs, len(tasks))) as pool:
                outs = list(pool.map(_sweep_q_row, tasks))
        except OSError:
            outs = [_sweep_q_row(t) for t in tasks]
    else:
        outs = [_sweep_q_row(t) for t in tasks]
    rows = [row for q_rows in outs for row in q_rows]

    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if cfg.fmt == "json":
        data_name = "sweep.json"
        payload = {"format": SWEEP_SCHEMA, "columns": list(SWEEP_COLUMNS),
                   "rows": rows}
        (out / data_name).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        data_name = "sweep.csv"
        (out / data_name).write_text(_sweep_csv(rows))
    (out / "sweep_plot.gp").write_text(_plot_script(cfg, data_name))

    bad = sum(1 for r in rows if r["status"] != "ok")
    print(f"{len(rows)} grid points -> {out / data_name} "
          f"({bad} failed in-row); plot script: {out / 'sweep_plot.gp'}")
    return 0


def _dump_space(cfg: RunConfig):
    q = cfg.q_grid[0] if cfg.q_grid else 0.3
    lam = cfg.lam_grid[0] if cfg.lam_grid else 0.3
    return build_space(q=q, lam=lam, depth=cfg.depth,
                       max_total_words=cfg.max_total_words)

_DUMP_OPERATORS = {
    "wen": lambda sp, n: ops.wen_operator(sp, n),
    "weew": lambda sp, n: ops.wick_balanced(sp, n),
    "t": lambda sp, n: limits.t_n_operator(sp, n),
    "s": lambda sp, n: limits.s_n_operator(sp, n),
    "z": lambda sp, n: limits.z_n_operator(sp, n),
}


def cmd_dump(cfg: RunConfig, ns) -> int:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    sp = _dump_space(cfg)

    if ns.object == "xi":
        K = ns.terms if ns.terms is not None else cfg.effective_terms()
        xi = limits.xi_vector(sp, n_terms=K)
        vec_payload = json.loads(vector_to_json(sp, xi.vector))
        payload = {
            "format": "qfock-xi-dump-1",
            "q": sp.q, "lambda": sp.lam, "depth": sp.depth, "terms": K,
            "norm_sq_closed_form": xi.norm_sq_closed_form,
            "tail_bound": xi.tail_bound,
            "fixed_point_residual": xi.fixed_point_residual,
            "vector": vec_payload,
        }
        if cfg.fmt == "json":
            path = out / "xi.json"
            path.write_text(json.dumps(payload, indent=2, sort_keys=True)
                            + "\n")
        else:
            path = out / "xi.csv"
            lines = ["# qfock-xi-dump-1", "level,word,coeff"]
            for lv in vec_payload["levels"]:
                for term in lv["terms"]:
                    lines.append(f"{lv['level']},{term['word']},"
                                 f"{_fmt_float(term['coeff'][0])}")
            path.write_text("\n".join(lines) + "\n")
        print(f"wrote {path}")
        return 0

    if ns.object == "gram":
        level = ns.level
        if not (0 <= level <= sp.depth):
            raise ConfigError(f"gram level {level} outside [0, {sp.depth}]")
        blocks = [json.loads(gram_block_to_json(sp, sig))
                  for sig in sp.blocks_at_level(level)]
        payload = {"format": "qfock-gram-dump-1", "q": sp.q,
                   "lambda": sp.lam, "level": level, "blocks": blocks}
        if cfg.fmt == "json":
            path = out / f"gram_level{level}.json"
            path.write_text(json.dumps(payload, indent=2, sort_keys=True)
                            + "\n")
        else:
            path = out / f"gram_level{level}.csv"
            lines = ["# qfock-gram-dump-1", "block,i,j,value"]
            for b, blk in enumerate(blocks):
                M = blk["matrix"]
                for i, rowv in enumerate(M):
                    for j, val in enumerate(rowv):
                        lines.append(f"{b},{i},{j},{_fmt_float(val)}")
            path.write_text("\n".join(lines) + "\n")
        print(f"wrote {path}")
        return 0

    if ns.object == "operator":
        maker = _DUMP_OPERATORS.get(ns.name)
        if maker is None:
            raise ConfigError(
                f"unknown operator selector {ns.name!r}; "
                f"choose from {sorted(_DUMP_OPERATORS)}")
        A = maker(sp, ns.n)
        src_max = max(0, sp.depth - max(A.peak, 0))
        src_max = min(src_max, 4)
        mats = A.materialize(src_max)
        blocks = []
        for (src, tgt), M in sorted(mats.items()):
            blocks.append({
                "source": list(src), "target": list(tgt),
                "matrix": [[float(x) for x in row] for row in np.real(M)],
            })
        payload = {"format": "qfock-operator-dump-1", "q": sp.q,
                   "lambda": sp.lam, "name": ns.name, "n": ns.n,
                   "reach": A.reach, "peak": A.peak,
                   "source_level_max": src_max, "blocks": blocks}
        if cfg.fmt == "json":
            path = out / f"operator_{ns.name}{ns.n}.json"
            path.write_text(json.dumps(payload, indent=2, sort_keys=True)
                            + "\n")
        else:
            path = out / f"operator_{ns.name}{ns.n}.csv"
            lines = ["# qfock-operator-dump-1",
                     "source,target,i,j,value"]
            for blk in blocks:
                s = "+".join(map(str, blk["source"]))
                t = "+".join(map(str, blk["target"]))
                for i, rowv in enumerate(blk["matrix"]):
                    for j, val in enumerate(rowv):
                        lines.append(f"{s},{t},{i},{j},{_fmt_float(val)}")
            path.write_text("\n".join(lines) + "\n")
        print(f"wrote {path}")
        return 0

    raise ConfigError(f"unknown dump object {ns.object!r}")


# -- argument parsing ---------------------------------------------------


def _config_epilog() -> str:
    cfg = RunConfig()
    return (
        "configuration file: plain 'key = value' lines, '#' comments; "
        "keys and defaults:\n"
        f"  q               {', '.join(map(str, cfg.q_grid))}\n"
        f"  lambda          {', '.join(map(str, cfg.lam_grid))}\n"
        f"  depth           {cfg.depth}\n"
        f"  terms           {cfg.terms} (0 means depth // 2)\n"
        f"  max_total_words {cfg.max_total_words}\n"
        f"  pairing_cap     {cfg.pairing_cap}\n"
        f"  tol_identity    {cfg.tol_identity}\n"
        f"  tol_eigen       {cfg.tol_eigen}\n"
        f"  tol_moment      {cfg.tol_moment}\n"
        f"  out_dir         {cfg.out_dir}\n"
        f"  format          {cfg.fmt}\n"
        f"  jobs            {cfg.jobs}\n"
        "command-line flags override file values; exit codes: 0 ok, "
        "1 check failure, 2 bad configuration"
    )


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="PATH",
                   help="configuration file (key = value lines)")
    p.add_argument("--q", metavar="LIST",
                   help="comma-separated q grid, e.g. '-0.5,0,0.5'")
    p.add_argument("--lambda", dest="lam", metavar="LIST",
                   help="comma-separated lambda grid in (0, 1)")
    p.add_argument("--depth", type=int, metavar="N",
                   help="truncation level")
    p.add_argument("--terms", type=int, metavar="K",
                   help="series order (0 means depth // 2); at depth N "
                        "only orders up to (N - 2) // 2 reach the "
                        "certificate window, higher ones give the same rows")
    p.add_argument("--jobs", type=int, metavar="J",
                   help="worker processes for grid points")
    p.add_argument("--format", dest="fmt", choices=("csv", "json"),
                   help="data file format")
    p.add_argument("--out", dest="out_dir", metavar="DIR",
                   help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfock",
        description="deformed Fock laboratory: verification, sweeps, dumps",
        epilog=_config_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the invariant checks",
                       epilog=_config_epilog(),
                       formatter_class=argparse.RawDescriptionHelpFormatter)
    _add_common(p)

    p = sub.add_parser("sweep", help="tabulate diagnostics over the grid",
                       epilog=_config_epilog(),
                       formatter_class=argparse.RawDescriptionHelpFormatter)
    _add_common(p)

    p = sub.add_parser("dump", help="write one object in full")
    _add_common(p)
    p.add_argument("object", choices=("gram", "operator", "xi"),
                   help="what to dump")
    p.add_argument("--level", type=int, default=2,
                   help="gram: word length of the dumped blocks")
    p.add_argument("--name", default="wen",
                   help="operator: selector "
                        f"({', '.join(sorted(_DUMP_OPERATORS))})")
    p.add_argument("--n", type=int, default=3,
                   help="operator: size parameter")
    return parser


def _merge_config(ns) -> RunConfig:
    if ns.config:
        text = Path(ns.config).read_text()
        cfg = RunConfig.from_text(text)
    else:
        cfg = RunConfig()
    if ns.q is not None:
        cfg = replace(cfg, q_grid=_float_list(ns.q))
    if ns.lam is not None:
        cfg = replace(cfg, lam_grid=_float_list(ns.lam))
    for key in ("depth", "terms", "jobs", "fmt", "out_dir"):
        val = getattr(ns, key, None)
        if val is not None:
            cfg = replace(cfg, **{key: val})
    return cfg


_LIST_FLAGS = ("--q", "--lambda")


def _normalize_argv(argv):
    """Fold grid values that open with a negative number into --flag=
    form; bare argparse would read them as option names."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _LIST_FLAGS and i + 1 < len(argv) \
                and re.fullmatch(r"-\d[\d.,eE+\- ]*", argv[i + 1]):
            out.append(tok + "=" + argv[i + 1])
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    ns = parser.parse_args(_normalize_argv(list(argv)))
    try:
        cfg = _merge_config(ns)
        validate_config(cfg)
        if ns.command == "verify":
            return cmd_verify(cfg)
        if ns.command == "sweep":
            return cmd_sweep(cfg)
        if ns.command == "dump":
            return cmd_dump(cfg, ns)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, BudgetExceededError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable command dispatch")


if __name__ == "__main__":
    sys.exit(main())
