"""One-time calibration run that freezes diagnostic reference values.

Regenerates src/qfock/calibration.json.  The frozen numbers are the
measured outputs of the rank-one compression diagnostics, the
invertibility certificates at the two reference parameter points, and
the compression-limit table at the canonical point.  The verification
suite compares fresh runs against these values with a small drift
tolerance, so any behavioural regression in the operator stack shows
up even when the analytic bounds still hold.

The tool imports qfock before numpy, so it runs at the one BLAS thread
the package pins unless a thread variable is set: the count `qfock
verify` and the tests run at, so the calibration drift they check
stays at its one-thread values.

Run from the repository root:

    python3 tools/calibrate.py
"""

import json
import pathlib

from qfock.fock import build_space
from qfock import limits

OUT = pathlib.Path(__file__).resolve().parent.parent \
    / "src" / "qfock" / "calibration.json"

Q, LAM, DEPTH = 0.3, 0.3, 12


def rank_one_section():
    sp = build_space(q=Q, lam=LAM, depth=DEPTH)
    rep = limits.rank_one_diagnostics(sp)
    rows = []
    for (n, v), gap in zip(rep.values, rep.gaps):
        rows.append({"n": n, "window": v["window"],
                     "sigma1": v["sigma1"], "ratio": v["ratio"],
                     "cosine": v["cosine"],
                     "window_norm_sq": v["window_norm_sq"],
                     "gap": gap})
    xi = limits.xi_vector(sp)
    return {
        "point": {"q": Q, "lam": LAM, "depth": DEPTH,
                  "window_cap": rep.details["window_cap"]},
        "rows": rows,
        "norm_sq_limit": rep.details["norm_sq_limit"],
        "xi_norm_sq": sp.norm_sq(xi.vector),
        "vacuum": [[n, val, gap]
                   for n, val, gap in rep.details["vacuum_sequence"]],
        "thresholds": {
            # ratio sigma2/sigma1 must fall strictly in n
            "ratio_strictly_decreasing": True,
            # cosine against the distinguished vector at the last n
            "cosine_min_final": 0.99,
            # sigma1 against the window-restricted norm at the last n
            "sigma1_window_rel": 0.01,
            # sigma1 against the full closed-form norm, checked at the
            # largest n whose window still carries the tail mass
            "sigma1_full_rel_at": 4,
            "sigma1_full_rel": 0.10,
            # the final-n deficit against the full norm must match the
            # closed-form tail that the window cuts off
            "tail_account_rel": 0.01,
            # drift allowance when re-measuring the frozen rows
            "drift_rel": 1e-6,
        },
    }


def certificate_section():
    rows = []
    cert = limits.invertibility_certificate(0.1, 0.15, truncations=(10, 12))
    rows.append(cert.to_json_dict())
    cert = limits.invertibility_certificate(0.0, 0.75,
                                            truncations=(8, 10, 12))
    rows.append(cert.to_json_dict())
    return {"rows": rows, "kernel_decrease_min": 0.30}


def comp_section():
    sp = build_space(q=Q, lam=LAM, depth=DEPTH)
    rows = []
    for kwargs in ({"a": 0, "b": 0, "alpha": 0, "beta": 0},
                   {"a": 1, "b": 0, "alpha": 0, "beta": 0},
                   {"a": 1, "b": 0, "alpha": 0, "beta": 0,
                    "eta": (limits.EBAR,)}):
        rep = limits.comp_limit(sp, **kwargs)
        rows.append({"indices": {k: (list(v) if isinstance(v, tuple) else v)
                                 for k, v in kwargs.items()},
                     "limit": rep.limit,
                     "values": [[n, v] for n, v in rep.values],
                     "gaps": rep.gaps,
                     "monotone": rep.monotone})
    return {"rows": rows, "rel_tol_final": 0.10, "abs_tol_zero": 1e-6}


def main():
    data = {
        "format": "qfock-calibration-1",
        "rank_one": rank_one_section(),
        "certificates": certificate_section(),
        "comp": comp_section(),
    }
    OUT.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
