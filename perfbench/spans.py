"""Span tracer for the benchmark's traced runs.

The tracer wraps public functions of the qfock layers from outside the
program and keeps, per wrapped function, the call count, the total time
and the self time.  Self time is a span's duration minus the time its
direct child spans cover, so the self times of all spans add up to the
durations of the top-level spans.

Operator actions in ``qfock.ops`` are lazy closures: the work that a
layer prepares (for example the ``s_infinity`` chains built in
``limits``) runs only when an ``ops`` call forces it, and is charged to
that call.  Spans inside the program itself are a later change.
"""

import functools
import sys
import time

# layer -> public functions timed in the traced run ("Class.method" for
# methods).  The benchmark's per-layer metrics are named after them.
LAYERS = {
    "qcomb": ("pair_partition_moment", "d_family", "wick_coefficients"),
    "fock": ("build_space", "FockSpace.with_lambda", "FockSpace.gram",
             "FockSpace.gram_chol", "FockSpace.gram_bruteforce",
             "FockSpace.inner"),
    "ops": ("q_adjoint", "op_norm", "min_singular", "action_gap",
            "FockOperator.apply", "FockOperator.materialize", "wick",
            "wick_right"),
    "limits": ("rank_one_diagnostics", "invertibility_certificate",
               "s_infinity", "boundedness_scan", "adjoint_vacuum",
               "t_limit_check", "xi_vector", "moment_check"),
    "cli": ("run_checks", "cmd_verify", "cmd_sweep"),
}

# counters that are not spans: (name, unit)
COUNTERS = (
    ("fock.gram_chol.distinct_blocks", "count"),
    ("fock.gram_chol.repeat_ratio", "ratio"),
    ("fock.cond_warnings", "count"),
    ("fock.factorization_errors", "count"),
    ("cli.unattributed_s", "s"),
    ("trace.wall_s", "s"),
)


def span_names():
    """Every span name, '<layer>.<function>', in a fixed order."""
    return [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]


def metric_units():
    """Every per-layer metric name with its unit, in a fixed order."""
    out = []
    for name in span_names():
        out += [(f"{name}.calls", "count"), (f"{name}.total_s", "s"),
                (f"{name}.self_s", "s")]
    return out + list(COUNTERS)


class Tracer:
    """Collects spans in memory; `layer_metrics` turns a snapshot into
    the per-layer metrics once the workload has finished."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {name: [0, 0.0, 0.0] for name in span_names()}
        self.top_level_s = 0.0
        self.chol_blocks = set()
        self.factorization_errors = []
        self.error_types = ()
        self._stack = []       # child time covered, one entry per open span
        self._active = {}      # name -> open spans of that name

    def wrap(self, name, fn, on_call=None):
        """A wrapper that times each call of `fn` as a span `name`."""
        stats = self.stats[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            self._stack.append(0.0)
            self._active[name] = self._active.get(name, 0) + 1
            start = self.clock()
            try:
                return fn(*args, **kwargs)
            except self.error_types as exc:
                if not any(exc is seen for seen in self.factorization_errors):
                    self.factorization_errors.append(exc)
                raise
            finally:
                dur = self.clock() - start
                covered = self._stack.pop()
                self._active[name] -= 1
                stats[0] += 1
                if self._active[name] == 0:   # recursion counts once
                    stats[1] += dur
                stats[2] += dur - covered
                if self._stack:
                    self._stack[-1] += dur
                else:
                    self.top_level_s += dur

        return wrapper

    def install(self):
        """Wrap every function in LAYERS and rebind it in every module
        namespace that holds it: `cli` and `limits` import `build_space`
        by name, and `cli` and `ops` import several `qcomb` functions,
        so patching only the defining module would let those calls
        escape the trace."""
        import qfock.fock

        self.error_types = (qfock.fock.GramFactorizationError,)
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "qfock"
                                         or key.startswith("qfock."))]
        for layer, fns in LAYERS.items():
            home = sys.modules[f"qfock.{layer}"]
            for fn_name in fns:
                name = f"{layer}.{fn_name}"
                hook = self._count_block if fn_name == "FockSpace.gram_chol" \
                    else None
                if "." in fn_name:
                    cls_name, meth = fn_name.split(".")
                    cls = getattr(home, cls_name)
                    setattr(cls, meth, self.wrap(name, cls.__dict__[meth],
                                                 hook))
                    continue
                original = getattr(home, fn_name)
                wrapped = self.wrap(name, original, hook)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is original:
                            setattr(mod, attr, wrapped)

    def _count_block(self, space, sig):
        self.chol_blocks.add((space.q, space.n_letters, tuple(sig)))

    def snapshot(self, cond_warnings):
        """What the traced process hands back to the benchmark."""
        return {"stats": self.stats, "top_level_s": self.top_level_s,
                "chol_distinct_blocks": len(self.chol_blocks),
                "factorization_errors": len(self.factorization_errors),
                "cond_warnings": cond_warnings}


def layer_metrics(snap, wall_s):
    """Per-layer metrics as {name: value} from a tracer snapshot;
    `wall_s` is the traced process's wall time measured from outside,
    so `cli.unattributed_s` holds start-up, imports and the glue between
    top-level spans."""
    out = {}
    for name, (calls, total, self_s) in snap["stats"].items():
        out[f"{name}.calls"] = calls
        out[f"{name}.total_s"] = total
        out[f"{name}.self_s"] = self_s
    calls = snap["stats"]["fock.FockSpace.gram_chol"][0]
    distinct = snap["chol_distinct_blocks"]
    out["fock.gram_chol.distinct_blocks"] = distinct
    out["fock.gram_chol.repeat_ratio"] = calls / distinct if distinct else 0.0
    out["fock.cond_warnings"] = snap["cond_warnings"]
    out["fock.factorization_errors"] = snap["factorization_errors"]
    out["cli.unattributed_s"] = wall_s - snap["top_level_s"]
    out["trace.wall_s"] = wall_s
    return out
