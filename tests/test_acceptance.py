"""Acceptance suite: one test per headline capability, each printing a
single pass/fail line with its measured margin.

Diagnostic thresholds for the rank-one collapse (criterion 4) are the
ones frozen in the packaged calibration file after the one-time
calibration run; see that file for the recorded reference values.
"""

import time

import pytest

from qfock import cli, limits, ops
from qfock.fock import E, EBAR, FockVector, build_space
from qfock.qcomb import (
    bound_constants,
    d_family,
    pair_partition_moment,
    q_factorial,
    wick_coefficients,
)

import numpy as np


def _line(num: int, ok: bool, detail: str) -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"[criterion-{num}] {tag}: {detail}")


@pytest.fixture(scope="module")
def verify_run(default_verify):
    """One full default-configuration verification run, timed."""
    return default_verify[:3]


def _check_map(report):
    return {c["name"]: c for c in report["checks"]}


def test_criterion_1_exact_identities(verify_run):
    _, report, elapsed = verify_run
    checks = _check_map(report)
    names = [
        "qcomb/pascal-identity",
        "qcomb/factorial-d-product",
        "ops/commutation-relation",
        "ops/split-adjoint",
        "fock/power-norm-factorial",
        "fock/gram-path-agreement",
    ]
    ok = all(checks[n]["passed"] and checks[n]["tol"] <= 1e-10
             for n in names) and elapsed < 120.0
    worst = max(checks[n]["gap"] for n in names)
    _line(1, ok, f"six identity families over the default grid, worst "
                 f"gap {worst:.2e} (tol 1e-10), suite ran in "
                 f"{elapsed:.0f}s < 120s")
    assert ok


def test_criterion_2_t_spectrum(verify_run):
    _, report, _ = verify_run
    checks = _check_map(report)
    eig_ok = checks["limits/t-eigenvalue-identity"]["passed"]
    eig_gap = checks["limits/t-eigenvalue-identity"]["gap"]
    bounds_ok = checks["limits/t-spectral-bounds"]["passed"]

    # limiting values at step 10 for powers k <= 4; the gap scales like
    # |q|^11, so the 1e-6 demand is meaningful only on the inner grid
    worst_lim = 0.0
    for q in (-0.2, -0.1, 0.0, 0.1, 0.2):
        sp = build_space(q=q, lam=0.3, depth=14)
        rep = limits.t_limit_check(sp, k_max=4, n_max=10)
        worst_lim = max(worst_lim, rep.gaps[-1])
    lim_ok = worst_lim < 1e-6

    ok = eig_ok and bounds_ok and lim_ok and eig_gap < 1e-12
    _line(2, ok, f"eigenvalue identity to {eig_gap:.2e} (tol 1e-12) on "
                 f"the full grid, spectral bounds hold, step-10 limit "
                 f"gap {worst_lim:.2e} < 1e-6 for |q| <= 0.2")
    assert ok


def test_criterion_3_invertibility_certificates(cal):
    t0 = time.perf_counter()
    below = limits.invertibility_certificate(0.1, 0.15,
                                             truncations=(10, 12))
    floor = 0.5 * below.d_inf * (1.0 - below.product)
    below_ok = below.product < 1.0 and all(
        s >= floor for _, _, s in below.min_singular)

    kernel = limits.invertibility_certificate(0.0, 0.75,
                                              truncations=(8, 10, 12))
    sigs = [s for _, _, s in kernel.min_singular]
    decrease = 1.0 - sigs[-1] / sigs[0]
    kernel_ok = decrease >= 0.30
    elapsed = time.perf_counter() - t0

    ok = below_ok and kernel_ok and elapsed < 180.0
    _line(3, ok, f"(0.1, 0.15): product {below.product:.3f} < 1 with "
                 f"min singulars >= floor {floor:.3f}; (0, 0.75): "
                 f"{100 * decrease:.1f}% >= 30% decrease from depth 8 "
                 f"to 12; {elapsed:.0f}s < 180s")
    assert ok


def test_criterion_4_rank_one_collapse(cal, rank_one_can):
    thr = cal["rank_one"]["thresholds"]
    rep = rank_one_can
    rows = {n: v for n, v in rep.values}
    n_last = max(rows)

    ratios = [rows[n]["ratio"] for n in sorted(rows)]
    decreasing = all(b < a for a, b in zip(ratios, ratios[1:]))
    cos_ok = rows[n_last]["cosine"] >= thr["cosine_min_final"]
    v = rows[n_last]
    win_rel = abs(v["sigma1"] - v["window_norm_sq"]) / v["window_norm_sq"]
    win_ok = win_rel <= thr["sigma1_window_rel"]
    full = rep.details["norm_sq_limit"]
    v4 = rows[thr["sigma1_full_rel_at"]]
    full_rel = abs(v4["sigma1"] - full) / full
    full_ok = full_rel <= thr["sigma1_full_rel"]
    deficit = full - v["sigma1"]
    tail = full - v["window_norm_sq"]
    tail_rel = abs(deficit - tail) / tail
    tail_ok = tail_rel <= thr["tail_account_rel"]

    ok = decreasing and cos_ok and win_ok and full_ok and tail_ok
    _line(4, ok, f"singular ratios strictly decrease "
                 f"({ratios[0]:.3f} -> {ratios[-1]:.4f}), final cosine "
                 f"{rows[n_last]['cosine']:.6f} >= 0.99, top singular "
                 f"value matches the reachable mass to "
                 f"{100 * win_rel:.2f}% <= 1% (calibration-frozen "
                 f"thresholds; window tail accounts for the full-norm "
                 f"deficit to {100 * tail_rel:.2f}%)")
    assert ok


def test_criterion_5_product_form_limits(cal, sp_can):
    sp = sp_can
    all_ok = True
    notes = []
    for frozen in cal["comp"]["rows"]:
        idx = {k: (tuple(v) if isinstance(v, list) else v)
               for k, v in frozen["indices"].items()}
        rep = limits.comp_limit(sp, **idx)
        gaps = rep.gaps[-4:]
        mono = all(b < a or (a == b == 0.0)
                   for a, b in zip(gaps, gaps[1:]))
        if rep.limit == 0.0:
            close = rep.final_gap <= 1e-6
            notes.append(f"{rep.final_gap:.1e} abs")
        else:
            close = rep.final_gap <= 0.10 * abs(rep.limit)
            notes.append(f"{100 * rep.final_gap / abs(rep.limit):.2f}%")
        all_ok = all_ok and mono and close
    _line(5, all_ok, "three index tuples: step-5 gaps "
          + ", ".join(notes)
          + " (tol 10% of limit, 1e-6 absolute for the vanishing one); "
            "gaps decrease monotonically over steps 2..5")
    assert all_ok


def test_criterion_6_wick_closed_forms():
    worst_triple = 0.0
    worst_recon = 0.0
    bound_ok = True
    for q, lam in ((0.3, 0.4), (-0.5, 0.3)):
        sp = build_space(q=q, lam=lam, depth=10)
        single = ops.wick(sp, (E,))
        for n in range(1, 6):
            closed = ops.wen_operator(sp, n)
            lim = sp.depth - n
            worst_triple = max(
                worst_triple,
                ops.action_gap(closed, ops.wick(sp, (E,) * n), lim),
                ops.action_gap(closed, single.power(n), lim))
        ce = ops.creation_letter(sp, E)
        cb = ops.creation_letter(sp, EBAR)
        ae = ops.annihilation_letter(sp, E)
        ab = ops.annihilation_letter(sp, EBAR)
        bc = bound_constants(q)
        for n in range(1, 5):
            coeffs = np.asarray(wick_coefficients(n, q))
            total = ops.zero(sp)
            for k in range(n + 1):
                for ell in range(n + 1):
                    cap = bc.c_q ** 2 * abs(q) ** ((n - k) * ell)
                    if abs(coeffs[k, ell]) > cap + 1e-12:
                        bound_ok = False
                    term = cb.power(k) @ ce.power(ell) \
                        @ ae.power(n - k) @ ab.power(n - ell)
                    total = total + float(coeffs[k, ell]) * term
            worst_recon = max(worst_recon, ops.action_gap(
                ops.wick_balanced(sp, n), total, sp.depth - 2 * n))
    ok = worst_triple < 1e-10 and worst_recon < 1e-10 and bound_ok
    _line(6, ok, f"closed form vs generic Wick vs operator power agree "
                 f"to {worst_triple:.2e} (n <= 5); balanced-word "
                 f"coefficients reproduce the normal-ordered expansion "
                 f"to {worst_recon:.2e} (n <= 4) and respect the decay "
                 f"bound")
    assert ok


def test_criterion_7_norm_boundedness(boundedness_scan):
    pos_one_ok = True
    neg_ok = True
    wen_ok = True
    mixed_ok = True
    worst_pos = 0.0
    for q, lam in ((0.3, 0.4), (-0.5, 0.3)):
        rep = boundedness_scan(q, lam, "creation_powers")
        if q >= 0:
            for _, val in rep.values:
                for key in ("letter", "conjugate"):
                    worst_pos = max(worst_pos, val[key] - 1.0)
            pos_one_ok = pos_one_ok and worst_pos <= 1e-10
        else:
            neg_ok = neg_ok and max(rep.gaps) <= 1e-10
        wrep = boundedness_scan(q, lam, "wen_powers")
        wen_ok = wen_ok and max(wrep.gaps) <= 1e-10
        mrep = boundedness_scan(q, lam, "mixed_word")
        mixed_ok = mixed_ok and max(mrep.gaps) <= 1e-10 \
            and mrep.details["flip_max"] <= 1e-10
    ok = pos_one_ok and neg_ok and wen_ok and mixed_ok
    _line(7, ok, f"scaled creation powers <= 1 + {worst_pos:.1e} for "
                 f"q >= 0 (n <= 10) and within the negative-q constant; "
                 f"scaled Wick powers under their explicit bound; mixed "
                 f"words (n <= 4, tail 8) under the split estimate with "
                 f"exact flip symmetry")
    assert ok


def test_criterion_8_vacuum_moments():
    worst = 0.0
    m4_ok = True
    for q in (0.3, -0.5, 0.0):
        sp = build_space(q=q, lam=0.5, depth=10)
        rep = limits.moment_check(sp, k_max=5)
        worst = max(worst, max(rep.gaps), rep.details["odd_max"])
        got4 = dict(rep.values)[4]["moment"]
        m4_ok = m4_ok and abs(got4 - (2.0 + q)) < 1e-8
    ok = worst < 1e-8 and m4_ok
    _line(8, ok, f"vacuum moments of the auxiliary field match the "
                 f"crossing-weighted pairing sums to {worst:.2e} "
                 f"(2k <= 10), including 2 + q at 2k = 4")
    assert ok


def test_criterion_9_determinism_and_runtime(verify_run, tmp_path):
    rc, report, elapsed = verify_run
    verify_ok = rc == 0 and report["summary"]["failed"] == 0 \
        and report["summary"]["total"] >= 40 and elapsed < 600.0

    grids = ["--q", "-0.8,-0.5,-0.3,0,0.3,0.5,0.8",
             "--lambda", "0.15,0.3", "--depth", "10"]
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["sweep", *grids, "--out", str(d1)]) == 0
    assert cli.main(["sweep", *grids, "--out", str(d2)]) == 0

    def stable(path):
        rows = (path / "sweep.csv").read_text().splitlines()
        return "\n".join(",".join(r.split(",")[:9]) for r in rows)

    sweep_ok = stable(d1) == stable(d2) and \
        (d1 / "sweep_plot.gp").read_text() \
        == (d2 / "sweep_plot.gp").read_text()

    ok = verify_ok and sweep_ok
    _line(9, ok, f"consecutive sweeps byte-identical (informational "
                 f"runtime column excluded); full verification: "
                 f"{report['summary']['passed']}/"
                 f"{report['summary']['total']} checks "
                 f"(>= 40) in {elapsed:.0f}s < 600s")
    assert ok
