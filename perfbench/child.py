"""One workload unit inside its own process, for the benchmark.

    python3 child.py RESULT.json deep Q LAM DEPTH MOMENT_DEPTH K_MAX
    python3 child.py RESULT.json --trace deep ...
    python3 child.py RESULT.json --trace cli verify|sweep ARGS...

`deep` runs the library session at the envelope edge.  `cli` hands the
remaining arguments to `qfock.cli.main`; untraced CLI units run
`python3 -m qfock.cli` directly and do not come through here.  With
`--trace` the span tracer is installed first.  The result file gets the
session's outputs, the count of Gram condition warnings and, when
traced, the tracer snapshot.
"""

import json
import sys
import time
import traceback
import warnings

from spans import Tracer


def deep_session(q, lam, depth, moment_depth, k_max):
    """Three steps: factor every Gram block of a deep space, take the
    norm of a creation letter over the full safe window, and check the
    vacuum moments up to the pairing cap.  Returns one record per step;
    a step that raises records its traceback and the rest still run
    where they can."""
    from qfock import limits, ops
    from qfock.fock import E, build_space

    steps = []
    space = None

    def step(name, fn):
        t0 = time.perf_counter()
        rec = {"step": name}
        try:
            rec.update(fn())
        except Exception:
            rec["error"] = traceback.format_exc()
        rec["seconds"] = time.perf_counter() - t0
        steps.append(rec)

    def factor():
        nonlocal space
        space = build_space(q=q, lam=lam, depth=depth)
        blocks = [sig for level in range(depth + 1)
                  for sig in space.blocks_at_level(level)]
        for sig in blocks:
            space.gram_chol(sig)
        return {"blocks": len(blocks),
                "largest_block": max(len(space.block_words(s))
                                     for s in blocks),
                "cond_max": max(space.gram_cond(s) for s in blocks)}

    def norm():
        if space is None:
            raise RuntimeError("no space: the factor step failed")
        return {"op_norm": ops.op_norm(ops.creation_letter(space, E))}

    def moments():
        # moment_check on the deep space would rebuild it with an extra
        # letter, which exceeds the word budget at depth 14; the moments
        # of order <= 2 * k_max need only depth k_max
        sp = build_space(q=q, lam=lam, depth=moment_depth, aux_letters=1)
        rep = limits.moment_check(sp, k_max=k_max)
        return {"moments": [[t, v["moment"], v["expected"]]
                            for t, v in rep.values],
                "odd_max": rep.details["odd_max"]}

    step("factor", factor)
    step("op_norm", norm)
    step("moments", moments)
    return {"steps": steps}


def main(argv):
    out_path, args = argv[0], argv[1:]
    traced = args[:1] == ["--trace"]
    if traced:
        args = args[1:]
    import qfock.cli
    from qfock.fock import GramConditionWarning

    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", GramConditionWarning)
        if args[0] == "deep":
            q, lam = float(args[1]), float(args[2])
            depth, moment_depth, k_max = (int(a) for a in args[3:6])
            result = deep_session(q, lam, depth, moment_depth, k_max)
            code = 0
        else:
            result = {}
            code = qfock.cli.main(args[1:])
    for w in caught:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    cond = sum(issubclass(w.category, GramConditionWarning) for w in caught)
    result["cond_warnings"] = cond
    if tracer is not None:
        result["trace"] = tracer.snapshot(cond)
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
