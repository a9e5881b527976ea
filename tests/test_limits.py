"""Limit laboratory: compression sequences, series limits, the
distinguished vector, invertibility certificates, rank-one collapse,
boundedness scans and the moment cross-check."""

import math
import tracemalloc

import numpy as np
import pytest

from qfock import limits, ops
from qfock.fock import E, EBAR, FockVector, build_space
from qfock.qcomb import PAIRING_CAP, d_family, pair_partition_moment, q_binomial

TOL = 1e-10


@pytest.fixture(scope="module")
def sp_neg():
    return build_space(q=-0.5, lam=0.3, depth=10)


# -- compression sequence ----------------------------------------------


def test_t_eigenvalue_closed_form():
    for q in (0.3, -0.5, 0.0, 0.8):
        for k in range(5):
            for n in range(1, 6):
                want = math.prod(1.0 - q ** (k + j) for j in range(1, n + 1))
                assert limits.t_eigenvalue(q, k, n) == pytest.approx(
                    want, rel=1e-14)


def test_t_operator_diagonal_on_powers(sp_can):
    q = sp_can.q
    for n in (1, 2, 3):
        T = limits.t_n_operator(sp_can, n)
        for k in (0, 1, 2, 4):
            v = FockVector.word((E,) * k) if k else FockVector.vacuum()
            got = T.apply(v)
            want = limits.t_eigenvalue(q, k, n)
            key = (E,) * k
            assert got.coefficient(key) == pytest.approx(want, rel=1e-12)
            off = {w: c for w, c in got.terms.items() if w != key
                   and abs(c) > 1e-13}
            assert not off


def test_t_limit_check_identity_and_bounds(sp_can, sp_neg):
    for sp in (sp_can, sp_neg):
        rep = limits.t_limit_check(sp)
        det = rep.details
        assert det["eig_identity_max_err"] < 1e-12
        assert det["bounds_ok"]
        assert det["sup_bound_ok"]
        assert rep.monotone
        fam = d_family(sp.q, j_max=0)
        assert det["d_inf"] == pytest.approx(fam.d_inf, rel=1e-14)
        if sp.q >= 0:
            assert det["spectrum_min"] >= fam.d_inf - 1e-12
            assert det["spectrum_max"] <= 1.0 + 1e-12
        else:
            assert det["spectrum_min"] >= fam.d_inf / (1 - sp.q) - 1e-12
            assert det["spectrum_max"] <= (1 - sp.q) + 1e-12


def test_t_limit_gap_decays_toward_limit():
    for q in (0.2, -0.2):
        sp = build_space(q=q, lam=0.3, depth=12)
        rep = limits.t_limit_check(sp, k_max=4, n_max=8)
        gaps = rep.gaps
        assert gaps[-1] < 1e-6
        assert gaps[-1] < gaps[0]
        assert rep.monotone


def test_t_limit_beta_constant_cases():
    # the sup-form constant collapses to the limit value exactly in the
    # small-negative-q regime and not outside it
    for q, expect in ((-0.5, True), (-0.3, True), (-0.7, False)):
        sp = build_space(q=q, lam=0.3, depth=8)
        det = limits.t_limit_check(sp).details
        assert (det["beta_equals_d_inf"] and det["beta_condition"]) == expect


# -- series sequence and its limit vector -------------------------------


def test_s_vacuum_family(sp_can, sp_neg):
    for sp in (sp_can, sp_neg):
        fam = d_family(sp.q, j_max=6)
        for n in range(1, 6):
            got = limits.s_n_operator(sp, n).apply(FockVector.vacuum())
            diff = got - FockVector.vacuum(coeff=fam.d[n])
            worst = max((abs(c) for c in diff.terms.values()), default=0.0)
            assert worst < TOL


def test_s_series_identity(sp_can, sp_neg):
    for sp in (sp_can, sp_neg):
        assert limits.s_series_identity_gap(sp, 3) < TOL


def _identity_gap_per_term(space, n):
    """The step-n identity gap with each letter power recomposed per
    term by FockOperator.power: the oracle for the ladder-built gap."""
    q, lam = space.q, space.lam
    ae = ops.annihilation_letter(space, E)
    aeb = ops.annihilation_letter(space, EBAR)
    total = None
    for k in range(n + 1):
        coef = q_binomial(n, k, q) * (1.0 - q) ** k * lam ** (k / 2.0)
        term = coef * (ae.power(k) @ limits.t_n_operator(space, n - k)
                       @ aeb.power(k))
        total = term if total is None else total + term
    return ops.action_gap(limits.s_n_operator(space, n), total,
                          space.depth - n)


@pytest.mark.parametrize("q", [-0.5, 0.3, 0.8])
def test_s_series_identity_gap_matches_per_term_powers(q):
    # the ladders group every power as FockOperator.power does, so the
    # gap keeps its bits
    space = build_space(q=q, lam=0.3, depth=8)
    for n in range(1, 5):
        got = limits.s_series_identity_gap(space, n)
        assert got.hex() == _identity_gap_per_term(space, n).hex(), n


def test_s_adjoint_vacuum_closed_form(sp_can, sp_neg):
    for sp in (sp_can, sp_neg):
        A = limits.s_n_operator(sp, 3)
        got = limits.adjoint_vacuum(sp, A, level_max=6)
        want = limits.s_adjoint_vacuum_closed_form(sp, 3)
        assert sp.norm(got - want) < TOL


def test_adjoint_vacuum_rejects_antilinear(sp_can):
    mo = ops.modular_ops(sp_can)
    with pytest.raises(ValueError):
        limits.adjoint_vacuum(sp_can, mo.J, level_max=2)


def test_s_infinity_adjoint_vacuum_matches_xi(sp_can):
    series = limits.s_infinity(sp_can)
    assert series.tail_bound >= 0.0
    xi = limits.xi_vector(sp_can, n_terms=series.n_terms,
                          compute_residual=False)
    got = limits.adjoint_vacuum(sp_can, series.op, level_max=sp_can.depth)
    # the series is assembled with adaptive compression, so the match is
    # at the compression budget, not machine precision
    budget = 5.0 * abs(sp_can.q) ** (sp_can.depth + 1)
    assert sp_can.norm(got - xi.vector) < budget


def _unshared_series_action(space, n_terms, t_cap):
    """The inverse-candidate series built without shared powers: every
    term composes fresh letter powers around a fresh compression step."""
    N, q, lam = space.depth, space.q, space.lam
    fam = d_family(q, j_max=n_terms)
    coefs = [fam.c[k] * (1.0 - q) ** k * lam ** (k / 2.0)
             for k in range(n_terms + 1)]
    ae = ops.annihilation_letter(space, E)
    aeb = ops.annihilation_letter(space, EBAR)
    ce = ops.creation_letter(space, E)

    def t_op(m):
        return ((1.0 - q) ** m * lam ** (m / 2.0)) * (ae.power(m) @ ce.power(m))

    def act(sig):
        level = sum(sig)
        acc = {}
        for k in range(n_terms + 1):
            if sig[E] < k or sig[EBAR] < k:
                continue
            m = N - (level - k)
            if t_cap is not None:
                m = min(m, t_cap)
            m = max(m, 0)
            chain = ae.power(k) @ t_op(m) @ aeb.power(k)
            for tgt, M in chain.action(sig).items():
                add = coefs[k] * M
                acc[tgt] = acc[tgt] + add if tgt in acc else add
        return acc

    return act


@pytest.mark.parametrize("q,lam", [(-0.5, 0.3), (0.3, 0.3)])
@pytest.mark.parametrize("t_cap", [None, 6])
def test_s_infinity_bit_identical_to_unshared_series(q, lam, t_cap):
    sp = build_space(q=q, lam=lam, depth=10)
    series = limits.s_infinity(sp, t_cap=t_cap)
    oracle = _unshared_series_action(sp, series.n_terms, t_cap)
    for level in range(sp.depth + 1):
        for sig in sp.blocks_at_level(level):
            got = series.op.action(sig)
            want = oracle(sig)
            assert got.keys() == want.keys()
            for tgt in want:
                assert np.array_equal(got[tgt], want[tgt]), (sig, tgt)


def test_certificate_series_order():
    def cert(**kw):
        return limits.invertibility_certificate(0.3, 0.3, truncations=(8,),
                                                **kw)

    default, order3, order2 = cert(), cert(n_terms=3), cert(n_terms=2)
    assert [c.tail_bounds[0][1] for c in (default, order3, order2)] \
        == [4, 3, 2]
    # the order-k term acts only on levels >= 2k, so the depth-8 window
    # (levels <= 6) sees the third term but not the fourth
    assert order3.min_singular == default.min_singular
    assert order2.min_singular != default.min_singular


def test_xi_vector_properties(sp_can, sp_neg, shared_space):
    kernel = shared_space(0.0, 0.75, 12)
    for sp in (sp_can, sp_neg, kernel):
        xi = limits.xi_vector(sp)
        got = sp.norm_sq(xi.vector)
        assert got == pytest.approx(xi.norm_sq_closed_form, rel=1e-12)
        assert xi.fixed_point_residual < TOL
        lim = limits.xi_norm_sq_limit(sp.q, sp.lam)
        assert xi.norm_sq_closed_form <= lim + 1e-14
        assert lim - xi.norm_sq_closed_form <= xi.tail_bound + 1e-14
        even = all(len(w) % 2 == 0 for w in xi.vector.terms)
        assert even


def test_xi_norm_limit_frozen(cal):
    pt = cal["rank_one"]["point"]
    got = limits.xi_norm_sq_limit(pt["q"], pt["lam"])
    assert got == pytest.approx(cal["rank_one"]["norm_sq_limit"],
                                rel=1e-12)


# -- invertibility certificates -----------------------------------------


def test_threshold_frozen_values():
    assert limits.invertibility_threshold(0.1) == pytest.approx(
        0.19536490356513797, rel=1e-9)
    # hand value: (1 + 1/d**2)**-2 with d the q = 1/2 infinite product
    d_half = 0.28878809508660264
    assert limits.invertibility_threshold(0.5) == pytest.approx(
        (1.0 + d_half ** -2) ** -2, rel=1e-12)
    assert limits.invertibility_threshold(0.5) == pytest.approx(
        0.005925713267144628, rel=1e-9)
    assert limits.invertibility_threshold(1e-9) == pytest.approx(
        0.25, abs=1e-6)
    assert limits.invertibility_threshold(-1e-9) == pytest.approx(
        0.25, abs=1e-6)


def test_threshold_shrinks_with_deformation():
    vals = [limits.invertibility_threshold(q)
            for q in (0.1, 0.3, 0.5, 0.7, 0.8)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert all(0.0 < v < 1.0 for v in vals)


def test_certificate_holds_each_block_once(cold_gram_caches):
    # a depth-10 certificate with its Gram cache built cold: 3.78 MiB at
    # its peak while each annihilation letter kept a dense copy of every
    # block it touched and rung 1 of each ladder a gathered copy of the
    # letter, 1.83 MiB with the letters holding no block.  A first,
    # shallow certificate loads what the solvers import
    limits.invertibility_certificate(0.3, 0.3, truncations=(4,))
    cold_gram_caches()
    tracemalloc.start()
    try:
        limits.invertibility_certificate(0.3, 0.3, truncations=(10,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 2**20


def test_certificate_below_threshold(cal):
    frozen = cal["certificates"]["rows"][0]
    cert = limits.invertibility_certificate(0.1, 0.15,
                                            truncations=(10, 12))
    assert cert.product < 1.0
    assert cert.analytic_verdict is True
    floor = 0.5 * cert.d_inf * (1.0 - cert.product)
    for (_, _, sig), (_, _, want) in zip(cert.min_singular,
                                         frozen["min_singular"]):
        assert sig >= floor
        assert sig == pytest.approx(want, rel=1e-9)
    assert cert.threshold == pytest.approx(frozen["threshold"], rel=1e-12)
    assert cert.product == pytest.approx(frozen["product"], rel=1e-12)
    assert cert.v_norm_bound == pytest.approx(frozen["v_norm_bound"],
                                              rel=1e-12)
    d = cert.to_json_dict()
    assert d["format"] == "qfock-certificate-1"


def test_certificate_kernel_regime(cal):
    frozen = cal["certificates"]["rows"][1]
    cert = limits.invertibility_certificate(0.0, 0.75,
                                            truncations=(8, 10, 12))
    assert cert.q_zero_flag is True
    assert cert.analytic_verdict is False
    sigs = [s for _, _, s in cert.min_singular]
    assert all(b < a for a, b in zip(sigs, sigs[1:]))
    decrease = 1.0 - sigs[-1] / sigs[0]
    assert decrease >= cal["certificates"]["kernel_decrease_min"]
    for got, (_, _, want) in zip(sigs, frozen["min_singular"]):
        assert got == pytest.approx(want, rel=1e-9)


def test_certificate_verdict_tracks_product():
    for q, lam in ((0.1, 0.15), (0.1, 0.25), (0.3, 0.1)):
        cert = limits.invertibility_certificate(q, lam, truncations=(8,))
        assert cert.analytic_verdict == (cert.product < 1.0)
        assert cert.tail_bounds[0][2] >= 0.0


# -- rank-one collapse --------------------------------------------------


def test_rank_one_against_calibration(cal, rank_one_can):
    rep = rank_one_can
    rows = {n: v for n, v in rep.values}
    thr = cal["rank_one"]["thresholds"]
    for frozen in cal["rank_one"]["rows"]:
        v = rows[frozen["n"]]
        for key in ("sigma1", "ratio", "cosine", "window_norm_sq"):
            assert v[key] == pytest.approx(frozen[key],
                                           rel=thr["drift_rel"])

    ratios = [rows[n]["ratio"] for n in sorted(rows)]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))

    n_last = max(rows)
    assert rows[n_last]["cosine"] >= thr["cosine_min_final"]

    v = rows[n_last]
    rel_win = abs(v["sigma1"] - v["window_norm_sq"]) / v["window_norm_sq"]
    assert rel_win <= thr["sigma1_window_rel"]

    full = rep.details["norm_sq_limit"]
    v4 = rows[thr["sigma1_full_rel_at"]]
    assert abs(v4["sigma1"] - full) / full <= thr["sigma1_full_rel"]

    deficit = full - rows[n_last]["sigma1"]
    tail = full - rows[n_last]["window_norm_sq"]
    assert abs(deficit - tail) / tail <= thr["tail_account_rel"]


def test_rank_one_terms_share_their_arrays(cold_gram_caches):
    # n = 2 at depth 10, every block factored first: 3.97 MiB at the
    # peak when each term held the real and the complex Gram, V_t, G_t V_t
    # and the conjugated U_t beside U_t, and the letters and ladders
    # their copies; 3.42 MiB with the terms in shared arrays
    space = build_space(q=0.3, lam=0.3, depth=10)
    for level in range(space.depth + 1):
        for sig in space.blocks_at_level(level):
            space.unit_chol(sig)
    tracemalloc.start()
    try:
        limits.rank_one_diagnostics(space, n_list=[2])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.7 * 2**20


def _window_matrix_oracle(space, window, U, V):
    """_window_matrix as first written: each target's Gram block a fresh
    real array (space.gram), cast into the complex scratch by
    np.copyto."""
    width = window.width
    M = np.zeros((width, width), dtype=complex)
    pairs = [(tgt, U[tgt], row) for tgt, row in V.items() if tgt in U]
    m_max = max((len(space.word_array(t)) for t, _, _ in pairs), default=0)
    stack = np.empty((m_max, width), dtype=complex)
    gv = np.empty_like(stack)
    scratch = np.empty(max(width, m_max) ** 2, dtype=complex)
    term = scratch[:width * width].reshape(width, width)
    for tgt, urow, vrow in pairs:
        m = len(space.word_array(tgt))
        G = scratch[:m * m].reshape(m, m)
        np.copyto(G, space.gram(tgt))
        GV = np.matmul(G, limits._stacked_target(window, vrow, stack),
                       out=gv[:m])
        Us = limits._stacked_target(window, urow, stack)
        M += np.matmul(np.conjugate(Us, out=Us).T, GV, out=term)
    return M


def _witness_images(space, n):
    """The window of rank_one_diagnostics' step n and the images U, V of
    its two Wick operators over it, by target."""
    window = ops.Window(space, min(space.depth - 2 * n, limits.WINDOW_CAP))
    return (window, window.by_target(ops.wick_right_balanced(space, n)),
            window.by_target(ops.wick_balanced(space, n)))


def _same_window_matrix(space, n):
    window, U, V = _witness_images(space, n)
    got = limits._window_matrix(space, window, U, V)
    want = _window_matrix_oracle(space, window, U, V)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_window_matrix_matches_oracle_at_calibration(sp_can, n):
    assert _same_window_matrix(sp_can, n)


def test_window_matrix_matches_oracle_partly_unfactored(cold_gram_caches):
    # the seed-0 sweep's first point and step: window levels <= 2,
    # targets up to level 12; the targets of even level are factored,
    # so the Gram blocks come from both kinds of gather
    space = build_space(q=-0.8, lam=0.05, depth=12)
    window, U, V = _witness_images(space, 5)
    shared = [tgt for tgt in V if tgt in U]
    for tgt in shared:
        if sum(tgt) % 2 == 0:
            space.unit_chol(tgt)
    factored = {tgt in space._unit.cond for tgt in shared}
    assert factored == {False, True}
    got = limits._window_matrix(space, window, U, V)
    assert {tgt in space._unit.cond for tgt in shared} == factored
    want = _window_matrix_oracle(space, window, U, V)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_window_matrix_matches_oracle_aux_letter(n):
    space = build_space(q=0.3, lam=0.3, depth=8, aux_letters=1)
    assert _same_window_matrix(space, n)


@pytest.mark.parametrize("n", [1, 2])
def test_window_matrix_zeroes_what_it_does_not_write(sp_can, monkeypatch,
                                                      n):
    # reused heap can hand np.empty anything: with every fresh array
    # NaN bytes, the oracle still overwrites its whole scratch, and the
    # window matrix matches it only if it zeroes G_t's imaginary part
    empty = np.empty

    def nan_empty(*args, **kwargs):
        out = empty(*args, **kwargs)
        out.view(np.uint8).fill(0xFF)
        return out

    monkeypatch.setattr(np, "empty", nan_empty)
    assert np.isnan(np.empty(1, dtype=complex)[0].imag)
    assert _same_window_matrix(sp_can, n)


def test_window_matrix_allocates_only_its_arrays(sp_can):
    # the n = 2 term at the calibration point traces M, stack, gv and
    # the complex scratch, and at most one image block cast to complex
    # as it is stacked (0.39 MB of at most 1.03 MB); a real copy of the
    # largest target's Gram block (6.8 MB) would break the bound
    window, U, V = _witness_images(sp_can, 2)
    shared = [tgt for tgt in V if tgt in U]
    for tgt in shared:
        sp_can.unit_chol(tgt)
    width = window.width
    m_max = max(len(sp_can.word_array(tgt)) for tgt in shared)
    assert (width, m_max) == (511, 924)
    arrays = 16 * (width * width + 2 * m_max * width
                   + max(width, m_max) ** 2)
    image = max(2 * M.nbytes for tgt in shared
                for _, M in (*U[tgt], *V[tgt]))
    tracemalloc.start()
    try:
        limits._window_matrix(sp_can, window, U, V)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= arrays + image


def test_rank_one_frames_refuse_non_finite_input(monkeypatch):
    # the frame loop's triangular solves check their input finite, as
    # scipy's solve_triangular did by default
    space = build_space(q=0.3, lam=0.3, depth=6)
    window_matrix = limits._window_matrix

    def poisoned(*args):
        M = window_matrix(*args)
        M[0, 0] = np.nan
        return M

    monkeypatch.setattr(limits, "_window_matrix", poisoned)
    with pytest.raises(ValueError, match="infs or NaNs"):
        limits.rank_one_diagnostics(space, n_list=[1])


def test_rank_one_vacuum_sequence(sp_can):
    rep = limits.rank_one_diagnostics(sp_can, n_list=[1, 2, 3])
    fam = d_family(sp_can.q, j_max=4)
    for n, val, gap in rep.details["vacuum_sequence"]:
        assert val == pytest.approx(fam.d[n] ** 2, rel=1e-10)
        assert gap >= 0.0


# -- product-form limits ------------------------------------------------


def test_comp_limits_against_calibration(cal, sp_can):
    for frozen in cal["comp"]["rows"]:
        idx = {k: (tuple(v) if isinstance(v, list) else v)
               for k, v in frozen["indices"].items()}
        rep = limits.comp_limit(sp_can, **idx)
        assert rep.monotone
        assert rep.limit == pytest.approx(frozen["limit"], abs=1e-12)
        for (_, got), (_, want) in zip(rep.values, frozen["values"]):
            assert got == pytest.approx(want, abs=1e-12)
        if frozen["limit"] == 0.0:
            assert rep.final_gap <= 1e-6
        else:
            assert rep.final_gap / abs(frozen["limit"]) <= 0.10


def test_comp_limit_conjugate_pad_closed_form(sp_can):
    # padding with one conjugate letter scales the limit by a closed
    # factor instead of collapsing it to zero
    q, lam = sp_can.q, sp_can.lam
    fam = d_family(q, j_max=0)
    rep = limits.comp_limit(sp_can, 1, 0, 0, 0, eta=(EBAR,))
    want = fam.d_inf ** 2 * math.sqrt(lam) / (1.0 - q)
    assert rep.limit == pytest.approx(want, rel=1e-12)


# -- uniform boundedness ------------------------------------------------


@pytest.mark.parametrize("kind,kw", [
    ("creation_powers", {"steps": 10}),
    ("wen_powers", {"steps": 10}),
    ("weew_powers", {"steps": 5}),
    ("mixed_word", {"steps": 4, "m": 8}),
])
def test_boundedness_scans(kind, kw, boundedness_scan):
    """Each depth-12 scan stays under its ceiling, over the number of
    steps and the tail length m that limits fixes for its kind."""
    for q, lam in ((0.3, 0.4), (-0.5, 0.3)):
        rep = boundedness_scan(q, lam, kind)
        assert max(rep.gaps) <= TOL
        assert len(rep.values) == kw["steps"]
        if kind == "mixed_word":
            assert rep.details["flip_max"] <= TOL
            assert rep.details["m"] == kw["m"]


def test_scan_values_sit_clear_of_their_bounds(boundedness_scan):
    """On the two depth-12 spaces of verify's scans, every creation, wen
    and weew value is at least 1e-9 relative below its bound, so the
    scans' hinge gaps read 0.0 whatever op_norm's last bits are."""
    for q, lam in ((0.3, 0.4), (-0.5, 0.3)):
        rep = boundedness_scan(q, lam, "creation_powers")
        for _, v in rep.values:
            assert max(v["letter"], v["conjugate"]) \
                <= rep.details["bound"] * (1.0 - 1e-9)
        for kind in ("wen_powers", "weew_powers"):
            for _, v in boundedness_scan(q, lam, kind).values:
                assert v["value"] <= v["bound"] * (1.0 - 1e-9)


def test_boundedness_scan_rejects_unknown_kind(sp_can):
    with pytest.raises(ValueError):
        limits.boundedness_scan(sp_can, "no_such_scan")


# -- decay, centralizer, moments ----------------------------------------


def test_decay_contraction(sp_can, sp_neg):
    for sp in (sp_can, sp_neg):
        rep = limits.lim_decay(sp)
        assert rep.monotone
        ratios = rep.details["decay_ratios"]
        assert ratios
        assert ratios[-1] == pytest.approx(abs(sp.q), abs=0.05)


def test_decay_free_case_exact_zero():
    sp0 = build_space(q=0.0, lam=0.75, depth=10)
    rep = limits.lim_decay(sp0)
    for _, val in rep.values:
        assert max(val.values()) == 0.0


def test_centralizer_criterion(sp_can):
    assert limits.centralizer_word(sp_can, (EBAR, E))
    assert limits.centralizer_word(sp_can, (E, EBAR, EBAR, E))
    assert limits.centralizer_word(sp_can, ())
    assert not limits.centralizer_word(sp_can, (E,))
    assert not limits.centralizer_word(sp_can, (E, E, EBAR))


def test_centralizer_ignores_aux_letters():
    sp = build_space(q=0.3, lam=0.4, depth=6, aux_letters=1)
    assert limits.centralizer_word(sp, (2, 2))
    assert limits.centralizer_word(sp, (E, 2, EBAR))
    assert not limits.centralizer_word(sp, (E, 2))


def test_moment_check_matches_pairing_sum():
    for q in (0.3, -0.5, 0.0):
        sp = build_space(q=q, lam=0.5, depth=10)
        rep = limits.moment_check(sp, k_max=5)
        assert rep.final_gap < 1e-8
        assert max(rep.gaps) < 1e-8
        assert rep.details["odd_max"] < 1e-10
        for t, val in rep.values:
            assert val["expected"] == pytest.approx(
                pair_partition_moment(t, q), rel=1e-12)
        assert rep.values[1][1]["expected"] == pytest.approx(2.0 + q)


def test_moment_check_clamps_to_pairing_cap(sp_can):
    rep = limits.moment_check(sp_can, k_max=50)
    top = max(t for t, _ in rep.values)
    assert top <= PAIRING_CAP


# -- empty inputs are refused by name -------------------------------------


def test_certificate_refuses_empty_truncations():
    with pytest.raises(ValueError, match="at least one depth in truncations"):
        limits.invertibility_certificate(0.1, 0.15, truncations=())


@pytest.mark.parametrize("kind, need", [
    ("creation_powers", 2), ("wen_powers", 2), ("weew_powers", 4)])
def test_boundedness_scan_refuses_a_space_without_steps(kind, need):
    # one level below the first depth with a step n is refused; at that
    # depth the scan runs its one step
    with pytest.raises(ValueError, match=f"{kind}.*depth >= {need}, got "
                                         f"depth {need - 1}"):
        limits.boundedness_scan(build_space(q=0.3, lam=0.4, depth=need - 1),
                                kind)
    rep = limits.boundedness_scan(build_space(q=0.3, lam=0.4, depth=need),
                                  kind)
    assert [n for n, _ in rep.values] == [1]


def test_t_limit_check_refuses_no_steps():
    with pytest.raises(ValueError, match="n_max >= 1, got k_max = 0, n_max = 0 at depth 0"):
        limits.t_limit_check(build_space(q=0.3, lam=0.4, depth=0))
    with pytest.raises(ValueError, match="n_max = 0 at depth 6"):
        limits.t_limit_check(build_space(q=0.3, lam=0.4, depth=6), n_max=0)
    rep = limits.t_limit_check(build_space(q=0.3, lam=0.4, depth=1))
    assert [n for n, _ in rep.values] == [1]


def test_window_refuses_a_negative_level():
    # a level above the depth is refused by blocks_at_level, one below 0
    # by the window itself, so op_norm reads no empty window as 0.0
    sp = build_space(q=0.3, lam=0.4, depth=4)
    A = ops.creation_letter(sp, E)
    with pytest.raises(ValueError, match="level_max must be >= 0, got -1"):
        ops.op_norm(A, -1)
    with pytest.raises(ValueError, match="level_max must be >= 0"):
        ops.min_singular(A, -2)
    assert ops.op_norm(A, 0) > 0.0
