"""Compare two sets of benchmark results, parent against change.

`run_pairs` runs this benchmark on two source trees in alternating
order, PAIRS pairs at seeds 0 to PAIRS - 1, the same seed on both sides
of a pair, and stores every result line in a JSON-lines file;
`report_files` reads two such files back.  For every workload and
metric the report gives each side's median and quartiles and the share
of pairs the change wins (ties count for neither).  A metric whose
spread (quartile distance over median) on either side exceeds its bound
is unresolved, unless every change run beats every parent run.

The stored references hold outputs at seed 0 only, so `run_pairs` also
holds the change's outputs to the parent's at every seed of a pair.
"""

import json
import shutil
import time
from pathlib import Path

from measure import quartiles
from workloads import WORKLOADS, compare_outputs

HERE = Path(__file__).resolve().parent
PAIRS = 10   # the fewest pairs a claimed gain may rest on


def load_spec():
    """Bounds and directions from BENCHMARK.json, when it is present."""
    path = HERE.parent / "BENCHMARK.json"
    if not path.is_file():
        return {}
    spec = json.loads(path.read_text())
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def run_pairs(base_root, change_root, seconds, trace, run_workload):
    """Run the pairs with `run_workload` (from run.py); exit 1 if a run
    fails its checks or the change's outputs differ from the parent's."""
    sides = {"base": Path(base_root).resolve(),
             "change": Path(change_root).resolve()}
    for root in sides.values():
        if not (root / "src" / "qfock" / "cli.py").is_file():
            print(f"no qfock source tree at {root}")
            return 2
    out = Path.cwd() / ".perfbench-work" / f"compare-{int(time.time())}"
    out.mkdir(parents=True, exist_ok=True)
    files = {side: out / f"{side}.jsonl" for side in sides}
    bad = 0
    for seed in range(PAIRS):
        order = ("base", "change") if seed % 2 == 0 else ("change", "base")
        for workload in WORKLOADS:
            kept = {side: out / f"{side}-{workload}-{seed}" for side in sides}
            correct = True
            for side in order:
                lines = []
                shutil.rmtree(kept[side], ignore_errors=True)
                kept[side].mkdir()
                line = run_workload(sides[side], workload, seed, seconds,
                                    bool(trace), log=lines.append,
                                    keep=kept[side])
                machine = next((json.loads(ln.split(" ", 1)[1])
                                for ln in lines if ln.startswith("machine ")),
                               None)
                with open(files[side], "a") as fh:
                    fh.write(json.dumps({"workload": workload, "seed": seed,
                                         "machine": machine,
                                         "result": line}) + "\n")
                print(f"pair {seed + 1}/{PAIRS} {workload} {side}: "
                      f"correct={line['correct']}", flush=True)
                correct = correct and line["correct"]
            diffs = compare_outputs(workload, sides["base"], seed,
                                    kept["base"], kept["change"]) \
                if correct else ["a run failed its own output checks"]
            for diff in diffs:
                print(f"pair {seed + 1}/{PAIRS} {workload}: change differs "
                      f"from parent: {diff}")
            bad += bool(diffs)
            for path in kept.values():
                shutil.rmtree(path, ignore_errors=True)
    print(f"results: {files['base']} {files['change']}")
    report_files(files["base"], files["change"])
    print("outputs of the change match the parent's in every pair"
          if bad == 0 else f"outputs differ in {bad} pair(s)")
    return 0 if bad == 0 else 1


def _read(path):
    runs = {}
    for line in Path(path).read_text().splitlines():
        rec = json.loads(line)
        runs[(rec["workload"], rec["seed"])] = rec["result"]
    return runs


def report_files(base_path, change_path):
    rows = compare(_read(base_path), _read(change_path), load_spec())
    for row in rows:
        print(format_row(row))
    return 0


def compare(base, change, spec):
    """One row per (workload, metric) over the seeds both sides ran."""
    rows = []
    keys = sorted(set(base) & set(change))
    for workload in sorted({w for w, _ in keys}):
        seeds = [s for w, s in keys if w == workload]
        metrics = base[(workload, seeds[0])]["metrics"]
        for name, m in metrics.items():
            b = [base[(workload, s)]["metrics"][name]["value"]
                 for s in seeds]
            c = [change[(workload, s)]["metrics"][name]["value"]
                 for s in seeds]
            info = spec.get(name, {})
            rows.append(_row(workload, name, m["unit"], b, c,
                             info.get("better", "lower"),
                             info.get("bound")))
    return rows


def _row(workload, name, unit, b, c, better, bound):
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (y - x) < 0 for x, y in zip(b, c))
    bq, cq = quartiles(b), quartiles(c)

    def spread(q):
        return (q[2] - q[0]) / abs(q[1]) if q[1] else 0.0

    change_rel = (cq[1] - bq[1]) / abs(bq[1]) if bq[1] else 0.0
    all_better = all(sign * (y - x) < 0 for x in b for y in c)
    if bound is None:
        verdict = "no bound"
    elif max(spread(bq), spread(cq)) > bound and not all_better:
        verdict = "unresolved"
    elif sign * change_rel > bound:
        verdict = "worse beyond bound"
    elif wins >= 0.9 * len(b) and sign * (cq[1] - bq[1]) < 0 \
            and abs(cq[1] - bq[1]) > bq[2] - bq[0]:
        verdict = "better"
    else:
        verdict = "no change beyond bound"
    return {"workload": workload, "metric": name, "unit": unit,
            "n": len(b), "base": bq, "change": cq,
            "base_spread": spread(bq), "change_spread": spread(cq),
            "change_rel": change_rel, "win_share": wins / len(b),
            "verdict": verdict}


def format_row(r):
    def q(t):
        return f"{t[1]:.6g} [{t[0]:.6g}, {t[2]:.6g}]"

    return (f"{r['workload']:7s} {r['metric']:24s} {r['unit']:5s} "
            f"n={r['n']:<3d} base {q(r['base'])}  change {q(r['change'])}  "
            f"{r['change_rel']:+.2%}  wins {r['win_share']:.0%}  "
            f"{r['verdict']}")
