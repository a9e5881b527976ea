"""Fast self-test of the benchmark harness:

    python3 perfbench/run.py --self-test

It checks the seeded grids, the span and self-time arithmetic, the
output checks against the stored references, the compare mode's
statistics and its parent-against-change output comparison, and one
tiny traced sweep (depth 4, one q, one lambda) and deep session through
the real program.  Run from the root of a source tree.
"""

import json
import math
import shutil
from pathlib import Path

import compare
import workloads as wl
from measure import PY, child_env, run_child
from spans import Tracer, layer_metrics, metric_units, span_names


def check(cond, what):
    if not cond:
        raise AssertionError(what)


def test_grids():
    check(wl.grid("deep", 5) == wl.SEED0["deep"], "deep keeps its point")
    for workload in wl.RANGES:
        check(wl.grid(workload, 0) == wl.SEED0[workload], "seed 0 grid")
        g7 = wl.grid(workload, 7)
        check(g7 == wl.grid(workload, 7), "same seed, same grid")
        check(g7 != wl.grid(workload, 8), "other seed, other grid")
        (qlo, qhi), (llo, lhi) = wl.RANGES[workload]
        for seed in range(1, 40):
            qs, lams = wl.grid(workload, seed)
            check(len(qs) == len(wl.SEED0[workload][0])
                  and len(lams) == len(wl.SEED0[workload][1]), "shape")
            check(all(qlo <= q <= qhi for q in qs)
                  and all(llo <= x <= lhi for x in lams), "range")
            check(list(qs) == sorted(set(qs)), "sorted and distinct")


def test_spans():
    now = [0.0]
    tr = Tracer(clock=lambda: now[0])

    def tick(dt):
        now[0] += dt

    leaf = tr.wrap("ops.op_norm", lambda: tick(2.0))

    def mid_fn():
        tick(1.0)
        leaf()
        tick(1.0)
    mid = tr.wrap("limits.rank_one_diagnostics", mid_fn)

    def rec_fn(n):
        tick(1.0)
        if n:
            rec(n - 1)
    rec = tr.wrap("qcomb.d_family", rec_fn)

    def top_fn():
        tick(0.5)
        mid()
        mid()
        rec(2)
        tick(0.5)
    top = tr.wrap("cli.run_checks", top_fn)

    top()
    tick(3.0)          # outside every span
    leaf()
    s = tr.stats
    check(s["ops.op_norm"] == [3, 6.0, 6.0], f"leaf {s['ops.op_norm']}")
    check(s["limits.rank_one_diagnostics"] == [2, 8.0, 4.0], "mid")
    check(s["qcomb.d_family"] == [3, 3.0, 3.0], "recursion counted once")
    check(s["cli.run_checks"] == [1, 12.0, 1.0], f"top {s['cli.run_checks']}")
    check(tr.top_level_s == 14.0, "top-level spans")
    m = layer_metrics(tr.snapshot(0), wall_s=20.0)
    selfs = sum(v for k, v in m.items() if k.endswith(".self_s"))
    check(selfs == 14.0, "self times add up to the top-level spans")
    check(m["cli.unattributed_s"] == 6.0, "unattributed")
    check(selfs + m["cli.unattributed_s"] == m["trace.wall_s"], "account")
    check([k for k, _ in metric_units()] == list(m), "metric names")
    check(len(span_names()) == len(set(span_names())), "unique spans")


def test_verify_check(tmp):
    ref0, ref1 = wl.load_verify_reference(0), wl.load_verify_reference(1)
    free = wl.grid_free_checks(ref0, ref1)
    check(0 < len(free) < len(ref0["checks"]), "grid-free split")

    def run(report, seed):
        out = tmp / "verify"
        out.mkdir(exist_ok=True)
        report = json.loads(json.dumps(report))
        report["config"]["out_dir"] = str(out)
        (out / "report.json").write_text(json.dumps(report))
        return wl.check_verify(out, 0, ref0, None if seed == 0 else free)

    n = len(ref0["checks"]) + 1
    check(run(ref0, 0)[:2] == (n, 0), "reference passes")
    check(run(ref1, 1)[:2] == (n, 0), "seed-1 reference passes")
    bad = json.loads(json.dumps(ref0))
    bad["checks"][0]["gap"] = bad["checks"][0]["gap"] * 2 + 1e-300
    check(run(bad, 0)[1] == 1, "a changed gap fails at seed 0")
    dep = next(c["name"] for c in ref1["checks"] if c["name"] not in free)
    other = json.loads(json.dumps(ref1))
    next(c for c in other["checks"] if c["name"] == dep)["gap"] *= 0.5
    check(run(other, 2)[1] == 0, "a grid check may differ at other seeds")
    name = sorted(free)[0]
    next(c for c in other["checks"] if c["name"] == name)["note"] += "x"
    check(run(other, 2)[1] == 1, "a grid-free check may not")
    failing = json.loads(json.dumps(ref0))
    failing["checks"][3]["passed"] = False
    check(run(failing, 0)[1] == 1, "a failed check fails")


def test_sweep_check(tmp):
    ref = wl._read_sweep(wl.REFERENCE / "sweep_seed0.csv")
    qs, lams = wl.grid("sweep", 0)
    points = [(q, lam) for q in qs for lam in lams]
    text = (wl.REFERENCE / "sweep_seed0.csv").read_text()
    out = tmp / "sweep"
    out.mkdir(exist_ok=True)

    def run(body):
        (out / "sweep.csv").write_text(body)
        return wl.check_sweep(out, 0, points, wl.DEPTH, ref, 1e-6)

    check(run(text)[:2] == (len(points), 0), "reference passes")
    lines = text.splitlines()
    cells = lines[2].split(",")
    cells[5] = repr(float(cells[5]) * (1 + 1e-5))
    check(run("\n".join(lines[:2] + [",".join(cells)] + lines[3:]))[1] == 1,
          "drift beyond drift_rel fails")
    cells[5] = repr(float(lines[2].split(",")[5]) * (1 + 1e-8))
    check(run("\n".join(lines[:2] + [",".join(cells)] + lines[3:]))[1] == 0,
          "drift within drift_rel passes")
    cells = lines[3].split(",")
    cells[8] = "error:GramFactorizationError"
    check(run("\n".join(lines[:3] + [",".join(cells)] + lines[4:]))[1] == 1,
          "an error row fails")
    check(run("\n".join(lines[:-1]))[1] >= 1, "a missing row fails")


def test_deep_check():
    ref = json.loads((wl.REFERENCE / "deep_seed0.json").read_text())
    lam = wl.grid("deep", 0)[1][0]
    res = json.loads(json.dumps(ref))
    check(wl.check_deep(res, 0, lam, ref)[:2] == (3, 0), "reference passes")
    res["cond_warnings"] = 1
    check(wl.check_deep(res, 0, lam, ref)[1] == 1, "a warning fails")
    res = json.loads(json.dumps(ref))
    res["steps"][1]["op_norm"] *= 1 + 1e-6
    check(wl.check_deep(res, 0, lam, ref)[1] == 1, "a wrong norm fails")
    res = json.loads(json.dumps(ref))
    res["steps"][2]["moments"][-1][1] += 1.0
    check(wl.check_deep(res, 0, lam, None)[1] == 1, "a wrong moment fails")


def test_compare():
    def results(values):
        return {("sweep", s): {"metrics": {
            "wall_s": {"value": v, "unit": "s"}}} for s, v in
            enumerate(values, 1)}

    spec = {"wall_s": {"better": "lower", "bound": 0.1}}
    base = results([10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10, 10])
    faster = results([8.0, 8.1, 7.9, 8.05, 7.95, 8.0, 8.1, 7.9, 8, 8])
    same = results([10.02, 10.0, 9.93, 10.1, 9.97, 10.03, 10.0, 9.92, 10.04,
                    9.99])
    noisy = results([5.0, 15.0, 7.0, 13.0, 9.0, 11.0, 6.0, 14.0, 10, 10])
    slower = results([11.5, 11.6, 11.4, 11.5, 11.5, 11.6, 11.4, 11.5, 11.5,
                      11.5])
    verdict = {name: compare.compare(base, other, spec)[0]["verdict"]
               for name, other in (("faster", faster), ("same", same),
                                   ("noisy", noisy), ("slower", slower))}
    check(verdict == {"faster": "better", "same": "no change beyond bound",
                      "noisy": "unresolved",
                      "slower": "worse beyond bound"}, str(verdict))
    row = compare.compare(base, faster, spec)[0]
    check(row["win_share"] == 1.0 and row["n"] == 10, "win share")
    compare.format_row(row)


def test_compare_outputs(root, tmp):
    """The parent's outputs at a seed are the reference for the change's
    at that seed; here the stored seed-0 outputs play the parent."""
    base, change = tmp / "base", tmp / "change"
    for side in (base, change):
        (side / "verify.out").mkdir(parents=True)
        (side / "sweep.out").mkdir()
    ref = wl.load_verify_reference(0)
    sweep = (wl.REFERENCE / "sweep_seed0.csv").read_text()
    deep = json.loads((wl.REFERENCE / "deep_seed0.json").read_text())

    def write(side, report, csv_text, deep_result):
        (side / "verify.out" / "report.json").write_text(json.dumps(report))
        (side / "sweep.out" / "sweep.csv").write_text(csv_text)
        (side / "deep.result.json").write_text(json.dumps(deep_result))

    def diffs():
        return {w: len(wl.compare_outputs(w, root, 0, base, change))
                for w in wl.WORKLOADS}

    write(base, ref, sweep, deep)
    write(change, ref, sweep, deep)
    check(diffs() == {"verify": 0, "sweep": 0, "deep": 0}, "equal outputs")
    report = json.loads(json.dumps(ref))
    report["checks"][-1]["gap"] += 1e-3
    lines = sweep.splitlines()
    cells = lines[2].split(",")
    cells[5] = repr(float(cells[5]) * 1.01)
    moved = json.loads(json.dumps(deep))
    moved["steps"][0]["cond_max"] *= 1.01
    write(change, report, "\n".join(lines[:2] + [",".join(cells)]
                                    + lines[3:]), moved)
    check(diffs() == {"verify": 1, "sweep": 1, "deep": 1}, str(diffs()))


def test_tiny_runs(root, tmp):
    env = child_env(root)
    child = str(Path(__file__).resolve().parent / "child.py")
    out = tmp / "tiny.out"
    result = tmp / "tiny.json"
    res = run_child([PY, child, str(result), "--trace", "cli", "sweep",
                     "--q=0.3", "--lambda=0.3", "--depth", "4", "--jobs",
                     "1", "--out", str(out)], env, root, tmp / "tiny.log")
    check(res["code"] == 0, (tmp / "tiny.log").read_text())
    attempted, failed, notes, extra = wl.check_sweep(
        out, res["code"], [(0.3, 0.3)], 4, None, 1e-6)
    check((attempted, failed) == (1, 0), str(notes))
    m = layer_metrics(json.loads(result.read_text())["trace"], res["wall_s"])
    check(m["cli.cmd_sweep.calls"] == 1, "cmd_sweep traced")
    check(m["limits.invertibility_certificate.calls"] == 1, "certificate")
    check(m["ops.min_singular.calls"] >= 1, "min_singular traced")
    check(m["fock.build_space.calls"] >= 1, "build_space rebound in cli")
    check(m["qcomb.d_family.calls"] >= 1, "d_family rebound in limits")
    check(m["fock.FockSpace.gram_chol.calls"]
          >= m["fock.gram_chol.distinct_blocks"] > 0, "chol counts")
    selfs = sum(v for k, v in m.items() if k.endswith(".self_s"))
    check(math.isclose(selfs + m["cli.unattributed_s"], res["wall_s"]),
          "spans plus unattributed account for the wall time")
    check(0 < m["cli.cmd_sweep.total_s"] < res["wall_s"], "span inside wall")

    res = run_child([PY, child, str(result), "--trace", "deep", "-0.5",
                     "0.3", "4", "4", "2"], env, root, tmp / "tiny.log")
    check(res["code"] == 0, (tmp / "tiny.log").read_text())
    deep = json.loads(result.read_text())
    attempted, failed, notes, _ = wl.check_deep(deep, 0, 0.3, None)
    check((attempted, failed) == (3, 0), str(notes))
    m = layer_metrics(deep["trace"], res["wall_s"])
    check(m["limits.moment_check.calls"] == 1
          and m["qcomb.pair_partition_moment.calls"] == 2, "moment spans")
    check(m["ops.op_norm.calls"] == 1, "op_norm span")


def main():
    root = Path.cwd()
    tmp = root / ".perfbench-work" / "selftest"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    tests = [("seeded grids", test_grids), ("span arithmetic", test_spans),
             ("verify check", lambda: test_verify_check(tmp)),
             ("sweep check", lambda: test_sweep_check(tmp)),
             ("deep check", test_deep_check), ("compare", test_compare),
             ("compare outputs", lambda: test_compare_outputs(root, tmp)),
             ("tiny traced runs", lambda: test_tiny_runs(root, tmp))]
    try:
        for name, fn in tests:
            fn()
            print(f"ok {name}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("self-test passed")
    return 0
