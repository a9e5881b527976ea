"""Process-level measurement for the benchmark: child processes with
their own rusage, set-up time, the machine block and order statistics.
Standard library only."""

import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

PY = sys.executable or "python3"

# Two-thread OpenBLAS on this program's small blocks spins more than it
# computes: the seed-0 `verify` unit took 34-38 s of wall and 64-68 s of
# CPU at two threads on a 2-core machine, against 20-25 s of both at one
# thread, and the two-thread wall time wandered by 10% between identical
# runs.  The last bits of some report gaps also depend on the thread
# count.  So the benchmark pins one thread in its children, for the
# parent and the change alike, and records the setting in the machine
# block.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1"}

CHILD_TIMEOUT_S = 170.0


def child_env(root):
    env = dict(os.environ)
    src = str(Path(root, "src").resolve())
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    env.update(BLAS_ENV)
    return env


def run_child(argv, env, cwd, log_path, timeout=CHILD_TIMEOUT_S):
    """Run one child to completion; returns its exit code, wall time
    from spawn to exit, user+system CPU and peak RSS, all of that child
    alone (via wait4)."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "wall_s": wall,
            "cpu_s": ru.ru_utime + ru.ru_stime,
            "peak_rss_mb": ru.ru_maxrss / 1024.0}


def setup_times(root, env, work, n=5):
    """Interpreter start plus `import qfock.cli`, n times: one start
    takes about half a second, so a single one would read mostly the
    host's noise."""
    out = []
    for i in range(n):
        res = run_child([PY, "-c", "import qfock.cli"], env, root,
                        Path(work, f"setup{i}.log"))
        if res["code"] != 0:
            raise RuntimeError("import qfock.cli failed: "
                               + Path(work, f"setup{i}.log").read_text())
        out.append(res["wall_s"])
    return out


_MACHINE_PROBE = r"""
import ctypes, glob, json, os, platform, sys
import numpy, scipy
cfg = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
threads = None
libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
for lib in glob.glob(os.path.join(libdir, "*openblas*")):
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(ctypes.CDLL(lib), sym, None)
        if fn is not None:
            threads = fn()
            break
print(json.dumps({"python": platform.python_version(),
                  "numpy": numpy.__version__, "scipy": scipy.__version__,
                  "blas": f"{cfg.get('name')} {cfg.get('version')}",
                  "blas_threads_in_effect": threads}))
"""


def _cgroup_memory_limit():
    for path in ("/sys/fs/cgroup/memory.max",
                 "/sys/fs/cgroup/memory/memory.limit_in_bytes"):
        try:
            text = Path(path).read_text().strip()
        except OSError:
            continue
        if text == "max" or int(text) >= 1 << 62:
            return "unlimited"
        return f"{int(text) / 2**20:.0f} MB"
    return "unknown"


def machine_block(root, env):
    """What the numbers were measured on; read only, nothing is set
    here beyond the child's BLAS_ENV."""
    probe = subprocess.run([PY, "-c", _MACHINE_PROBE], cwd=root, env=env,
                           capture_output=True, text=True, timeout=60)
    block = json.loads(probe.stdout) if probe.returncode == 0 else \
        {"probe_error": probe.stderr.strip()[-300:]}
    block.update({"nproc": os.cpu_count(),
                  "cpus_usable": len(os.sched_getaffinity(0)),
                  "blas_env": BLAS_ENV,
                  "cgroup_memory_limit": _cgroup_memory_limit()})
    return block


def quartiles(xs):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def high_percentile(xs):
    """The highest multiple-of-ten percentile with at least ten samples
    beyond it, as (p, value) by nearest rank; None below 11 samples."""
    n = len(xs)
    p = (100 * (n - 10) // n) // 10 * 10
    if p <= 0:
        return None
    rank = math.ceil(p / 100 * n)
    return p, sorted(xs)[rank - 1]
