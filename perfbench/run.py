"""The qfock benchmark: end-to-end and per-layer timings of `qfock
verify`, `qfock sweep` and a deep library session.

    python3 perfbench/run.py --workload verify|sweep|deep --seed N \\
        --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]
    python3 perfbench/run.py --compare BASE_ROOT CHANGE_ROOT
    python3 perfbench/run.py --compare-files BASE.jsonl CHANGE.jsonl
    python3 perfbench/run.py --self-test

Run from the root of a source tree; the program is imported from its
`src/` (with --compare, from the two trees named).  One run sets up a
few times, then runs units of the workload, one process each, until the
next unit would end after --seconds (at least one unit), and checks
every unit's outputs.  With --trace 0 it reports the end-to-end metrics, with
--trace 1 the per-layer metrics of traced units.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See perfbench/NOTES.md for the workloads and what each metric is for.
"""

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path
from statistics import median

from measure import (CHILD_TIMEOUT_S, child_env, high_percentile,
                     machine_block, run_child, setup_times)
from spans import layer_metrics, metric_units
from workloads import WORKLOADS, check_unit, unit_argv

RUN_LIMIT_S = 175.0

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"))


def run_workload(root, workload, seed, seconds, trace, log=print,
                 keep=None):
    """One benchmark run; returns the result object of the last line.
    With `keep`, the outputs of the run's last unit are copied into
    that directory."""
    t_start = time.perf_counter()
    work = Path(root, ".perfbench-work", f"{workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        env = child_env(root)
        log("machine " + json.dumps(machine_block(root, env), sort_keys=True))
        setup = setup_times(root, env, work)
        units = []
        t0 = time.perf_counter()
        while True:
            for stale in work.glob(f"{workload}.*"):
                if stale.is_dir():
                    shutil.rmtree(stale)
                else:
                    stale.unlink()
            argv, result_path = unit_argv(workload, seed, work, trace)
            left = RUN_LIMIT_S - (time.perf_counter() - t_start)
            res = run_child(argv, env, root, work / "unit.log",
                            timeout=min(CHILD_TIMEOUT_S, left))
            attempted, failed, notes, extra = check_unit(
                workload, root, work, seed, res["code"], result_path)
            res.update(attempted=attempted, failed=failed, **extra)
            for note in notes:
                log(f"check {workload}: {note}")
            if failed and res["code"] != 0:
                tail = (work / "unit.log").read_text(errors="replace")
                log(tail[-2000:])
            if trace:
                snap = json.loads(result_path.read_text())["trace"] \
                    if result_path.exists() else None
                res["layers"] = layer_metrics(snap, res["wall_s"]) \
                    if snap else {}
            units.append(res)
            elapsed = time.perf_counter() - t0
            if failed or elapsed + res["wall_s"] > seconds:
                break
        if keep is not None:
            for out in work.glob(f"{workload}.*"):
                copy = shutil.copytree if out.is_dir() else shutil.copy
                copy(out, Path(keep, out.name))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return summarize(workload, units, setup, trace, log)


def summarize(workload, units, setup, trace, log=print):
    attempted = sum(u["attempted"] for u in units)
    failed = sum(u["failed"] for u in units)
    samples = {"wall_s": [u["wall_s"] for u in units],
               "cpu_s": [u["cpu_s"] for u in units],
               "peak_rss_mb": [u["peak_rss_mb"] for u in units],
               "setup_s": setup}
    log(f"{workload}: {len(units)} unit(s), {attempted} operations, "
        f"failed_share = {failed / max(attempted, 1):.6g}")
    for name, unit in END_TO_END:
        log(_timing_line(name, unit, samples[name]))
    points = [t for u in units for t in u.get("point_ms", [])]
    if points:
        log(_timing_line("point_ms", "ms", points))
    for u in units:
        for step, secs in u.get("step_s", {}).items():
            log(f"  step {step}: {secs:.3f} s")
    if trace:
        if not all(u["layers"] for u in units):
            failed = max(failed, 1)
            log("trace: a traced unit left no snapshot")
        metrics = {n: {"value": median([u["layers"].get(n, 0.0)
                                        for u in units]), "unit": unit}
                   for n, unit in metric_units()}
    else:
        metrics = {name: {"value": median(samples[name]), "unit": unit}
                   for name, unit in END_TO_END}
    return {"correct": failed == 0, "attempted": max(attempted, 1),
            "failed": failed, "metrics": metrics}


def _timing_line(name, unit, xs):
    hi = high_percentile(xs)
    tail = f", p{hi[0]} = {hi[1]:.6g} {unit}" if hi else \
        ", no percentile has ten samples beyond it"
    return f"  {name} = {median(xs):.6g} {unit} (median of n = {len(xs)}" \
        f"{tail})"


def run_all(root, seed, seconds):
    """Every workload untraced and traced, with the tracing overhead as
    measured (one run each, so host noise dominates it); exit 1 if any
    output check failed."""
    bad = 0
    for workload in WORKLOADS:
        plain = run_workload(root, workload, seed, seconds, False)
        traced = run_workload(root, workload, seed, seconds, True)
        bad += plain["failed"] + traced["failed"]
        m = traced["metrics"]
        wall = plain["metrics"]["wall_s"]["value"]
        twall = m["trace.wall_s"]["value"]
        spans = sum(v["value"] for k, v in m.items() if k.endswith(".self_s"))
        print(f"{workload}: traced wall {twall:.3f} s against untraced "
              f"{wall:.3f} s: overhead {(twall - wall) / wall:+.2%}; spans "
              f"{spans:.3f} s + unattributed "
              f"{m['cli.unattributed_s']['value']:.3f} s")
        top = sorted(((v["value"], k) for k, v in m.items()
                      if k.endswith(".self_s")), reverse=True)[:8]
        for secs, name in top:
            calls = m[name[:-len("self_s")] + "calls"]["value"]
            print(f"  {name} = {secs:.3f} s over {calls:g} calls")
        for k in ("fock.gram_chol.distinct_blocks",
                  "fock.gram_chol.repeat_ratio", "fock.cond_warnings",
                  "fock.factorization_errors"):
            print(f"  {k} = {m[k]['value']:g}")
    print("all output checks passed" if bad == 0 else
          f"{bad} failed operation(s)")
    return 0 if bad == 0 else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true",
                    help="every workload, untraced and traced")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"))
    ap.add_argument("--compare-files", nargs=2, metavar=("BASE", "CHANGE"))
    ap.add_argument("--self-test", action="store_true")
    ns = ap.parse_args(argv)

    if ns.self_test:
        import selftest
        return selftest.main()
    if ns.compare_files:
        import compare
        return compare.report_files(*ns.compare_files)
    if ns.compare:
        import compare
        return compare.run_pairs(ns.compare[0], ns.compare[1], ns.seconds,
                                 ns.trace, run_workload)

    root = Path.cwd()
    if not (root / "src" / "qfock" / "cli.py").is_file():
        print(f"no qfock source tree at {root} (expected src/qfock/)",
              file=sys.stderr)
        return 2
    if ns.all:
        return run_all(root, ns.seed, ns.seconds)
    if ns.workload is None:
        ap.error("--workload, --all, --compare or --self-test is required")
    result = run_workload(root, ns.workload, ns.seed, ns.seconds,
                          bool(ns.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
