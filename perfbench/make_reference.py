"""Regenerate the reference outputs the benchmark's checks compare
against.  Run it once, on the commit whose outputs are the reference,
from the root of that source tree:

    python3 perfbench/make_reference.py

It writes perfbench/reference/: the verify reports at seeds 0 and 1
without out_dir (seed 1 only tells the grid-free checks apart), the
seed-0 sweep CSV and the seed-0 deep session results without timings.
"""

import json
import shutil
import sys
from pathlib import Path

from measure import child_env, run_child
from workloads import REFERENCE, unit_argv


def main():
    root = Path.cwd()
    env = child_env(root)
    work = root / ".perfbench-work" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    REFERENCE.mkdir(exist_ok=True)
    for workload, seed in (("verify", 0), ("verify", 1), ("sweep", 0),
                           ("deep", 0)):
        argv, result = unit_argv(workload, seed, work, traced=False)
        res = run_child(argv, env, root, work / "unit.log")
        if res["code"] != 0:
            sys.exit(f"{workload} seed {seed} exited {res['code']}:\n"
                     + (work / "unit.log").read_text()[-2000:])
        if workload == "verify":
            report = json.loads((work / "verify.out" / "report.json")
                                .read_text())
            report["config"].pop("out_dir")
            (REFERENCE / f"verify_seed{seed}.json").write_text(
                json.dumps(report, indent=2, sort_keys=True) + "\n")
        elif workload == "sweep":
            shutil.copy(work / "sweep.out" / "sweep.csv",
                        REFERENCE / "sweep_seed0.csv")
        else:
            out = json.loads(result.read_text())
            for step in out["steps"]:
                step.pop("seconds")
            (REFERENCE / "deep_seed0.json").write_text(
                json.dumps(out, indent=2, sort_keys=True) + "\n")
        print(f"{workload} seed {seed}: {res['wall_s']:.1f} s")
    shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
