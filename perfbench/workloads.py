"""The benchmark's workloads: seeded inputs, the commands that run one
unit of each, and the checks on their outputs.

A unit is one process: one `qfock verify`, one `qfock sweep`, or one
`deep` library session.  Seed 0 gives fixed grids taken from the CLI
defaults; for `verify` and `sweep` any other seed draws a grid of the
same shape from the ranges below, so a claim can be re-checked on
parameters nobody tuned for.
"""

import csv
import json
import math
import random
from pathlib import Path

from measure import PY

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference"

WORKLOADS = ("verify", "sweep", "deep")
DEPTH = 12                    # the CLI's default truncation depth
DEEP_DEPTH = 14               # the envelope edge: blocks up to 3432^2
MOMENT_DEPTH, MOMENT_K = 8, 8  # moments up to the pairing cap m = 16

# Seed-0 grids.  `sweep` takes the CLI's default 7x5 grid.  `verify`
# takes three of the seven default q values by all five default
# lambdas: the full default `verify` runs about 40 s at one BLAS thread,
# which would leave too little of a run's share of the benchmark's
# budget (70 runs within 3420 s) for set-up and the other workloads.
SEED0 = {
    "verify": ((-0.8, 0.0, 0.8), (0.05, 0.15, 0.3, 0.5, 0.75)),
    "sweep": ((-0.8, -0.5, -0.3, 0.0, 0.3, 0.5, 0.8),
              (0.05, 0.15, 0.3, 0.5, 0.75)),
    "deep": ((-0.5,), (0.3,)),
}
# Ranges for other seeds.  `deep` keeps its one point for every seed:
# its op_norm step runs ARPACK, whose iteration count moves with lambda
# (lambda = 0.725 took 63 s against 37-44 s), so a drawn point would
# make the run time depend on the seed.  Its checks stay exact anyway:
# for q < 0 the creation norm has the closed form lam^(-1/4).
RANGES = {
    "verify": ((-0.8, 0.8), (0.05, 0.75)),
    "sweep": ((-0.8, 0.8), (0.05, 0.75)),
}


def _draw(rng, lo, hi, n):
    vals = set()
    while len(vals) < n:
        vals.add(round(rng.uniform(lo, hi), 3) + 0.0)
    return tuple(sorted(vals))


def grid(workload, seed):
    """(q values, lambda values) for a workload and seed."""
    qs0, lams0 = SEED0[workload]
    if seed == 0 or workload not in RANGES:
        return qs0, lams0
    rng = random.Random(f"{workload}:{seed}")
    (qlo, qhi), (llo, lhi) = RANGES[workload]
    return _draw(rng, qlo, qhi, len(qs0)), _draw(rng, llo, lhi, len(lams0))


def _csv(vals):
    return ",".join(repr(v) for v in vals)


def cli_args(workload, seed, out_dir):
    """Arguments of `qfock verify|sweep` for one unit."""
    qs, lams = grid(workload, seed)
    return [workload, f"--q={_csv(qs)}", f"--lambda={_csv(lams)}",
            "--depth", str(DEPTH), "--jobs", "1", "--out", str(out_dir)]


def unit_argv(workload, seed, work, traced):
    """The command of one unit and the file it leaves its result in."""
    child = str(HERE / "child.py")
    result = Path(work, f"{workload}.result.json")
    out_dir = Path(work, f"{workload}.out")
    if workload == "deep":
        (q,), (lam,) = grid(workload, seed)
        args = ["deep", repr(q), repr(lam), str(DEEP_DEPTH),
                str(MOMENT_DEPTH), str(MOMENT_K)]
        head = [PY, child, str(result)] + (["--trace"] if traced else [])
        return head + args, result
    if traced:
        return [PY, child, str(result), "--trace", "cli"] \
            + cli_args(workload, seed, out_dir), result
    return [PY, "-m", "qfock.cli"] + cli_args(workload, seed, out_dir), result


# -- output checks ------------------------------------------------------
#
# Each check returns (attempted, failed, notes, extra): the operations
# this unit attempted (checks, grid rows or steps), how many failed, a
# line per failure and workload-specific figures such as per-point times.


def _strip_out_dir(report):
    report = json.loads(json.dumps(report))
    report.get("config", {}).pop("out_dir", None)
    return report


def load_verify_reference(seed):
    return json.loads((REFERENCE / f"verify_seed{seed}.json").read_text())


def grid_free_checks(ref0, ref1):
    """Names of the verify checks that do not depend on the grid: the
    records that agree between the seed-0 and seed-1 references, less
    the qcomb checks.  Those probe the q grid itself but carry no note
    naming a grid point, so their roundoff-level gaps can agree between
    two grids by chance and differ on a third."""
    by1 = {c["name"]: c for c in ref1["checks"]}
    return {c["name"] for c in ref0["checks"]
            if by1.get(c["name"]) == c and not c["name"].startswith("qcomb/")}


def check_verify(out_dir, code, ref, grid_free=None):
    """Every check passes, and the report is identical to `ref` except
    for out_dir.  With `grid_free` (a reference made on another grid)
    only those named records must be identical, and the config must
    match apart from the grid.  One extra operation stands for the
    report's non-check fields and the exit code."""
    try:
        report = _strip_out_dir(
            json.loads(Path(out_dir, "report.json").read_text()))
    except (OSError, ValueError) as exc:
        n = len(ref["checks"]) + 1
        return n, n, [f"no readable report.json: {exc}"], {}
    ref = _strip_out_dir(ref)
    if grid_free is None:
        want = {c["name"]: c for c in ref["checks"]}
        head, head0 = report, ref
    else:
        want = {c["name"]: c for c in ref["checks"] if c["name"] in grid_free}
        head = {"format": report.get("format"),
                "config": {k: v for k, v in report.get("config", {}).items()
                           if k not in ("q_grid", "lam_grid")}}
        head0 = {"format": ref["format"],
                 "config": {k: v for k, v in ref["config"].items()
                            if k not in ("q_grid", "lam_grid")}}
    got = {c.get("name"): c for c in report.get("checks", [])}
    names = [c["name"] for c in ref["checks"]]
    names += [n for n in got if n not in names]
    notes = []
    for name in names:
        c = got.get(name)
        if c is None:
            notes.append(f"check missing: {name}")
        elif not c.get("passed"):
            notes.append(f"check failed: {name} gap={c.get('gap')}")
        elif name in want and c != want[name]:
            notes.append(f"differs from reference: {name}")
    failed = len(notes)
    same_head = {k: v for k, v in head.items() if k != "checks"} \
        == {k: v for k, v in head0.items() if k != "checks"}
    if not same_head or (code != 0 and failed == 0):
        failed += 1
        notes.append(f"report fields differ from reference or exit {code}")
    return len(names) + 1, failed, notes, {}


def _read_sweep(path):
    lines = [ln for ln in Path(path).read_text().splitlines()
             if not ln.startswith("#")]
    return list(csv.DictReader(lines))


NUMERIC = ("threshold", "min_singular", "sigma_ratio", "cosine")


def check_sweep(out_dir, code, points, depth, ref, drift_rel):
    """Every row has status ok, its grid point, finite values in range
    and, when reference rows are given, numeric columns within drift_rel
    of them."""
    try:
        rows = _read_sweep(Path(out_dir, "sweep.csv"))
    except OSError as exc:
        return len(points), len(points), [f"no sweep.csv: {exc}"], {}
    notes, failed, times = [], 0, []
    for i, (q, lam) in enumerate(points):
        row = rows[i] if i < len(rows) else None
        why = _sweep_row_problem(row, q, lam, depth,
                                 ref[i] if ref else None, drift_rel)
        if why:
            failed += 1
            notes.append(f"row q={q} lambda={lam}: {why}")
        if row and row.get("runtime_ms"):
            times.append(float(row["runtime_ms"]))
    if len(rows) != len(points) or code != 0:
        failed = max(failed, 1)
        notes.append(f"{len(rows)} rows for {len(points)} points, exit {code}")
    return len(points), failed, notes, {"point_ms": times}


def _sweep_row_problem(row, q, lam, depth, ref, drift_rel):
    if row is None:
        return "missing"
    if row["status"] != "ok":
        return f"status {row['status']}"
    if (float(row["q"]), float(row["lambda"]), row["depth"]) \
            != (q, lam, str(depth)):
        return "grid point or depth differs"
    vals = {k: float(row[k]) for k in NUMERIC}
    if not all(math.isfinite(v) for v in vals.values()):
        return "non-finite value"
    if not (vals["min_singular"] > 0 and 0 <= vals["sigma_ratio"] <= 1
            and abs(vals["cosine"]) <= 1 + 1e-12
            and row["analytic_verdict"] in ("true", "false")):
        return "value out of range"
    if ref is None:
        return None
    if row["analytic_verdict"] != ref["analytic_verdict"]:
        return "analytic verdict differs from reference"
    for k in NUMERIC:
        want = float(ref[k])
        if abs(vals[k] - want) > drift_rel * abs(want):
            return f"{k} {vals[k]!r} drifts from reference {want!r}"
    return None


def check_deep(result, code, lam, ref):
    """No step raises, no Gram condition warning, the creation norm
    equals lam^(-1/4) (q < 0), the moments match the pairing count and,
    when a reference is given, the reference.  op_norm runs ARPACK from
    a random start, so the comparison uses a relative tolerance, not bit
    equality."""
    if result is None or code != 0:
        return 3, 3, [f"deep session produced no result, exit {code}"], {}
    notes = []
    steps = {s["step"]: s for s in result["steps"]}
    ref_steps = {s["step"]: s for s in ref["steps"]} if ref else {}

    def close(a, b, rel):
        return abs(a - b) <= rel * abs(b)

    def problem(name, s):
        if s is None:
            return "missing"
        if "error" in s:
            return s["error"].strip().splitlines()[-1]
        r = ref_steps.get(name)
        if name == "factor":
            if result["cond_warnings"]:
                return f"{result['cond_warnings']} GramConditionWarning"
            if r and (s["blocks"], s["largest_block"]) \
                    != (r["blocks"], r["largest_block"]):
                return "block count differs from reference"
            if r and not close(s["cond_max"], r["cond_max"], 1e-6):
                return "condition estimate differs from reference"
        elif name == "op_norm":
            if not close(s["op_norm"], lam ** -0.25, 1e-9):
                return f"op_norm {s['op_norm']!r} != lam^(-1/4)"
            if r and not close(s["op_norm"], r["op_norm"], 1e-9):
                return "op_norm differs from reference"
        else:
            if s["odd_max"] != 0.0:
                return f"odd moment {s['odd_max']!r}"
            for t, got, want in s["moments"]:
                if abs(got - want) > 1e-8 * max(1.0, abs(want)):
                    return f"moment {t}: {got!r} vs pairing count {want!r}"
            if r and [m[0] for m in s["moments"]] \
                    != [m[0] for m in r["moments"]]:
                return "moment orders differ from reference"
            if r and not all(close(a[1], b[1], 1e-12) for a, b
                             in zip(s["moments"], r["moments"])):
                return "moments differ from reference"
        return None

    failed = 0
    for name in ("factor", "op_norm", "moments"):
        why = problem(name, steps.get(name))
        if why:
            failed += 1
            notes.append(f"step {name}: {why}")
    return 3, failed, notes, {
        "step_s": {s["step"]: s.get("seconds") for s in result["steps"]}}


def drift_rel(root):
    cal = json.loads(Path(root, "src", "qfock", "calibration.json")
                     .read_text())
    return cal["rank_one"]["thresholds"]["drift_rel"]


def check_unit(workload, root, work, seed, code, result_path):
    """Dispatch to the workload's output check.  References are made at
    seed 0 (verify also keeps seed 1 to tell grid-free checks apart);
    deep runs the seed-0 point at every seed.  At other seeds the sweep
    and most verify checks can only be checked for range and status;
    `compare_outputs` holds a change to its parent's outputs there."""
    if workload == "verify":
        ref0 = load_verify_reference(0)
        free = None if seed == 0 else \
            grid_free_checks(ref0, load_verify_reference(1))
        return check_verify(Path(work, "verify.out"), code, ref0, free)
    if workload == "sweep":
        ref = _read_sweep(REFERENCE / "sweep_seed0.csv") if seed == 0 \
            else None
        return check_sweep(Path(work, "sweep.out"), code,
                           sweep_points(seed), DEPTH, ref, drift_rel(root))
    ref = json.loads((REFERENCE / "deep_seed0.json").read_text())
    return check_deep(_read_json(result_path), code, grid("deep", seed)[1][0],
                      ref)


def compare_outputs(workload, root, seed, base_dir, change_dir):
    """Where one unit's outputs in `change_dir` differ from the parent's
    in `base_dir`, both kept by `run_workload` at the same seed: the
    verify report must be identical apart from out_dir, the sweep's
    numeric columns within drift_rel, the deep results within the
    tolerances of `check_deep`.  Returns the list of differences."""
    if workload == "verify":
        base = json.loads(Path(base_dir, "verify.out", "report.json")
                          .read_text())
        return check_verify(Path(change_dir, "verify.out"), 0, base)[2]
    if workload == "sweep":
        base = _read_sweep(Path(base_dir, "sweep.out", "sweep.csv"))
        return check_sweep(Path(change_dir, "sweep.out"), 0,
                           sweep_points(seed), DEPTH, base,
                           drift_rel(root))[2]
    base = _read_json(Path(base_dir, "deep.result.json"))
    return check_deep(_read_json(Path(change_dir, "deep.result.json")), 0,
                      grid("deep", seed)[1][0], base)[2]


def sweep_points(seed):
    qs, lams = grid("sweep", seed)
    return [(q, lam) for q in qs for lam in lams]


def _read_json(path):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return None
