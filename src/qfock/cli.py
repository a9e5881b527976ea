"""Command-line front end for the truncated deformed-Fock laboratory.

Three subcommands:

  verify   run the check table of ``qfock.checks`` over a parameter
           grid and write a machine-readable report
  sweep    tabulate the invertibility and rank-one diagnostics over a
           (q, lambda) grid as CSV or JSON, plus a plot script
  dump     write a single object (Gram block, operator, distinguished
           vector) in a documented JSON or CSV layout

All outputs are deterministic for a fixed configuration: no timestamps
inside data files, fixed column order, floats at 17 significant digits
in CSV.  A few last bits depend on the BLAS thread count, which the
package pins to one unless the user sets it.  The sweep's per-row
runtime column is informational and is the one field allowed to vary
between runs.

Exit codes: 0 success, 1 at least one check failed or raised, 2 bad
configuration.
"""

import argparse
import concurrent.futures
import json
import math
import re
import sys
import time
from dataclasses import asdict, dataclass, replace
from importlib import resources
from pathlib import Path

from . import checks, limits, ops
from .fock import MAX_DEPTH, BudgetExceededError, ModelParams, build_space

__all__ = [
    "RunConfig",
    "ConfigError",
    "run_checks",
    "cmd_verify",
    "cmd_sweep",
    "cmd_dump",
    "main",
]

DEFAULT_Q = (-0.8, -0.5, -0.3, 0.0, 0.3, 0.5, 0.8)
DEFAULT_LAM = (0.05, 0.15, 0.3, 0.5, 0.75)

REPORT_SCHEMA = "qfock-verify-1"
SWEEP_SCHEMA = "qfock-sweep-1"
SWEEP_COLUMNS = ("q", "lambda", "depth", "threshold", "analytic_verdict",
                 "min_singular", "sigma_ratio", "cosine", "status",
                 "runtime_ms")

# the command line's own guards; the model's envelope is ModelParams'
DEPTH_MIN = 4
TAIL_BUDGET_MAX = 8.0


class ConfigError(Exception):
    """Raised for configurations the tool refuses to run."""


@dataclass
class RunConfig:
    """Grid, truncation and output settings shared by all subcommands.

    ``terms = 0`` means the series order defaults to half the depth.
    """

    q_grid: tuple = DEFAULT_Q
    lam_grid: tuple = DEFAULT_LAM
    depth: int = 12
    terms: int = 0
    max_total_words: int = 2_000_000
    pairing_cap: int = 16
    tol_identity: float = 1e-10
    tol_eigen: float = 1e-12
    tol_moment: float = 1e-8
    out_dir: str = "out"
    fmt: str = "csv"
    jobs: int = 1

    def effective_terms(self) -> int:
        return self.terms if self.terms else self.depth // 2

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        """Parse 'key = value' lines; each value by the type of its
        field's default, the grids as number lists."""
        cfg = cls()
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected key = value")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in _KEYS:
                raise ConfigError(f"unknown configuration key {key!r}")
            name = _KEYS[key]
            default = getattr(cfg, name)
            parse = (_float_list if isinstance(default, tuple)
                     else type(default))
            try:
                cfg = replace(cfg, **{name: parse(val)})
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: {exc}") from None
        return cfg


# configuration file key -> RunConfig field, in printed order
_KEYS = {
    "q": "q_grid",
    "lambda": "lam_grid",
    "depth": "depth",
    "terms": "terms",
    "max_total_words": "max_total_words",
    "pairing_cap": "pairing_cap",
    "tol_identity": "tol_identity",
    "tol_eigen": "tol_eigen",
    "tol_moment": "tol_moment",
    "out_dir": "out_dir",
    "format": "fmt",
    "jobs": "jobs",
}


def _float_list(val: str) -> tuple:
    parts = [p for p in val.replace(",", " ").split() if p]
    return tuple(float(p) for p in parts)


def _show(value) -> str:
    """A configuration value as written in files and in --help."""
    if isinstance(value, tuple):
        return ", ".join(map(str, value))
    return str(value)


def _axis(grid: tuple) -> tuple:
    """A grid axis, or (0.3,) for an empty one: the value dump builds
    its space at, and the one validate_config checks in its place."""
    return grid or (0.3,)


def validate_config(cfg: RunConfig, reads_terms: bool = True) -> None:
    """Reject parameter points the truncated model cannot support.

    Every grid point, an empty axis read as _axis reads it, must pass
    ModelParams, the one home of the model's envelope (|q|, lambda, the
    block scalars, depth <= MAX_DEPTH and the word budget); its error is
    raised again as a ConfigError with the same message.  The rules
    below are the command line's own.

    The series-tail guard bounds lam^{(K+1)/2} / (1 - sqrt(lam)); past
    TAIL_BUDGET_MAX the truncated series says nothing about its limit,
    so the point is refused rather than reported with a vacuous bound.
    A subcommand that does not read ``terms`` (verify) has the guard at
    the default order depth // 2 and no range check on ``terms``.
    """
    if cfg.depth < DEPTH_MIN:
        raise ConfigError(
            f"depth {cfg.depth} outside [{DEPTH_MIN}, {MAX_DEPTH}]")
    K = cfg.effective_terms() if reads_terms else cfg.depth // 2
    if not (1 <= K <= cfg.depth // 2):
        raise ConfigError(
            f"terms {K} outside [1, depth//2 = {cfg.depth // 2}]")
    if not (10 <= cfg.pairing_cap <= 20):
        raise ConfigError("pairing_cap must lie in [10, 20]")
    if cfg.fmt not in ("csv", "json"):
        raise ConfigError(f"format {cfg.fmt!r} not in {{csv, json}}")
    if cfg.jobs < 1:
        raise ConfigError("jobs must be >= 1")
    for tol in (cfg.tol_identity, cfg.tol_eigen, cfg.tol_moment):
        if not (0 < tol < 1):
            raise ConfigError("tolerances must lie in (0, 1)")
    for q in _axis(cfg.q_grid):
        for lam in _axis(cfg.lam_grid):
            try:
                ModelParams(q, lam, cfg.depth,
                            max_total_words=cfg.max_total_words)
            except (ValueError, BudgetExceededError) as exc:
                raise ConfigError(str(exc)) from None
    for lam in cfg.lam_grid:
        tail_budget = lam ** ((K + 1) / 2.0) / (1.0 - math.sqrt(lam))
        if tail_budget > TAIL_BUDGET_MAX:
            raise ConfigError(
                f"lambda = {lam} at depth {cfg.depth}: series tail budget "
                f"{tail_budget:.3g} exceeds {TAIL_BUDGET_MAX}; the "
                f"truncation cannot certify anything at this point")


def load_calibration() -> dict:
    text = resources.files("qfock").joinpath("calibration.json").read_text()
    return json.loads(text)


def run_checks(cfg: RunConfig) -> list:
    """Evaluate the check table in report order; each record that
    cannot be measured because something raised is a failed record."""
    ctx = checks.Context(cfg, load_calibration, _map_q_rows)
    return [checks.evaluate(entry, ctx) for entry in checks.CHECKS]


def _map_q_rows(worker, tasks: list, jobs: int) -> list:
    """worker over the per-q tasks, in a process pool when jobs > 1 and
    there are several rows; serially otherwise, or if no pool starts."""
    if jobs > 1 and len(tasks) > 1:
        try:
            with concurrent.futures.ProcessPoolExecutor(
                    max_workers=min(jobs, len(tasks))) as pool:
                return list(pool.map(worker, tasks))
        except OSError:
            pass
    return [worker(t) for t in tasks]


# -- subcommands --------------------------------------------------------


def _fmt_float(x) -> str:
    if x is None:
        return ""
    return f"{x:.17g}"


def cmd_verify(cfg: RunConfig) -> int:
    t0 = time.perf_counter()
    results = run_checks(cfg)
    elapsed = time.perf_counter() - t0

    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = {
        "format": REPORT_SCHEMA,
        "config": {**asdict(cfg),
                   "q_grid": list(cfg.q_grid),
                   "lam_grid": list(cfg.lam_grid)},
        "checks": [asdict(r) for r in results],
        "summary": {
            "total": len(results),
            "passed": sum(r.passed for r in results),
            "failed": sum(not r.passed for r in results),
            "first_failure": next((r.name for r in results if not r.passed),
                                  None),
        },
    }
    (out / "report.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n")

    for r in results:
        tag = "PASS" if r.passed else "FAIL"
        note = f"  [{r.note}]" if r.note else ""
        print(f"{tag} {r.name}  gap={r.gap:.3e} tol={r.tol:.3e}{note}")
    print(f"{payload['summary']['passed']}/{len(results)} checks passed "
          f"in {elapsed:.1f}s; report: {out / 'report.json'}")
    first = payload["summary"]["first_failure"]
    if first is not None:
        print(f"first failing check: {first}", file=sys.stderr)
        return 1
    return 0


def _sweep_point(q, lam, depth, terms, max_words):
    """One sweep row.  Returns the row and its space (None if none could
    be built), which shares its Gram caches with every live space at q."""
    t0 = time.perf_counter()
    row = {"q": q, "lambda": lam, "depth": depth, "threshold": None,
           "analytic_verdict": None, "min_singular": None,
           "sigma_ratio": None, "cosine": None, "status": "ok",
           "runtime_ms": None}
    sp = None
    try:
        sp = build_space(q=q, lam=lam, depth=depth, max_total_words=max_words)
        cert = limits.invertibility_certificate(
            q, lam, truncations=(depth,), n_terms=terms)
        row["threshold"] = cert.threshold
        row["analytic_verdict"] = cert.analytic_verdict
        row["min_singular"] = cert.min_singular[0][2]
        n_star = (depth - 2) // 2
        rep = limits.rank_one_diagnostics(sp, n_list=[n_star])
        row["sigma_ratio"] = rep.values[0][1]["ratio"]
        row["cosine"] = rep.values[0][1]["cosine"]
    except Exception as exc:
        row["status"] = f"error:{type(exc).__name__}"
    row["runtime_ms"] = round((time.perf_counter() - t0) * 1000.0, 3)
    return row, sp


def _sweep_q_row(args):
    """Worker: one q value, every lambda.  The row keeps its spaces
    until it ends, so its points share one set of Gram caches, and the
    first point that builds a space pays for the shared Gram work."""
    q, lams, depth, terms, max_words = args
    points = [_sweep_point(q, lam, depth, terms, max_words) for lam in lams]
    return [row for row, _ in points]


def _sweep_csv(rows) -> str:
    lines = [f"# {SWEEP_SCHEMA}", ",".join(SWEEP_COLUMNS)]
    for row in rows:
        cells = []
        for col in SWEEP_COLUMNS:
            val = row[col]
            if col == "analytic_verdict":
                cells.append("" if val is None else str(bool(val)).lower())
            elif col in ("depth", "status"):
                cells.append(str(val))
            elif col == "runtime_ms":
                cells.append("" if val is None else f"{val:.3f}")
            else:
                cells.append(_fmt_float(val))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _plot_script(cfg: RunConfig, data_name: str) -> str:
    lines = [
        f"# {SWEEP_SCHEMA} plot commands (gnuplot)",
        f"# data file: {data_name}",
        "set datafile separator comma",
        "set key outside",
        'set xlabel "lambda"',
        'set ylabel "min singular value of the truncated inverse candidate"',
        "set grid",
    ]
    qs = list(cfg.q_grid)
    if not qs:
        lines.append("# empty grid: nothing to plot")
        return "\n".join(lines) + "\n"
    series = []
    for q in qs:
        qtxt = _fmt_float(q)
        series.append(
            f'  "{data_name}" using ($1=={qtxt}?$2:1/0):6 '
            f'with linespoints title "q={q:g}"')
    lines.append("plot \\")
    lines.append(", \\\n".join(series))
    lines += [
        "",
        "# column 7 is sigma2/sigma1 of the rank-one witness and column 8",
        "# the cosine to the distinguished vector; swap the 6 above to see",
        "# those surfaces instead",
        "pause -1",
    ]
    return "\n".join(lines) + "\n"


def cmd_sweep(cfg: RunConfig) -> int:
    # the order-k term acts on levels >= 2k, the window stops at depth - 2
    top = (cfg.depth - 2) // 2
    if cfg.terms > top:
        raise ConfigError(
            f"terms {cfg.terms} above the order limit (depth - 2) // 2 = "
            f"{top}: higher orders do not reach the certificate window")
    tasks = [(q, tuple(cfg.lam_grid), cfg.depth, cfg.effective_terms(),
              cfg.max_total_words) for q in cfg.q_grid if cfg.lam_grid]
    rows = [row for q_rows in _map_q_rows(_sweep_q_row, tasks, cfg.jobs)
            for row in q_rows]

    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if cfg.fmt == "json":
        data_name = "sweep.json"
        payload = {"format": SWEEP_SCHEMA, "columns": list(SWEEP_COLUMNS),
                   "rows": rows}
        (out / data_name).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        data_name = "sweep.csv"
        (out / data_name).write_text(_sweep_csv(rows))
    (out / "sweep_plot.gp").write_text(_plot_script(cfg, data_name))

    bad = sum(1 for r in rows if r["status"] != "ok")
    print(f"{len(rows)} grid points -> {out / data_name} "
          f"({bad} failed in-row); plot script: {out / 'sweep_plot.gp'}")
    return 0


def _dump_space(cfg: RunConfig):
    return build_space(q=_axis(cfg.q_grid)[0], lam=_axis(cfg.lam_grid)[0],
                       depth=cfg.depth, max_total_words=cfg.max_total_words)

_DUMP_OPERATORS = {
    "wen": lambda sp, n: ops.wen_operator(sp, n),
    "weew": lambda sp, n: ops.wick_balanced(sp, n),
    "t": lambda sp, n: limits.t_n_operator(sp, n),
    "s": lambda sp, n: limits.s_n_operator(sp, n),
    "z": lambda sp, n: limits.z_n_operator(sp, n),
}


def _dump_xi(cfg: RunConfig, sp, ns):
    K = cfg.effective_terms()
    xi = limits.xi_vector(sp, n_terms=K)
    levels = {}
    for w, c in xi.vector.terms.items():
        levels.setdefault(len(w), []).append((sp.word_name(w), c))
    vec_payload = {
        "format": "qfock-vector-1",
        "levels": [{"level": lv,
                    "terms": [{"word": name, "coeff": [c.real, c.imag]}
                              for name, c in sorted(items)]}
                   for lv, items in sorted(levels.items())],
    }
    payload = {
        "format": "qfock-xi-dump-1",
        "q": sp.q, "lambda": sp.lam, "depth": sp.depth, "terms": K,
        "norm_sq_closed_form": xi.norm_sq_closed_form,
        "tail_bound": xi.tail_bound,
        "fixed_point_residual": xi.fixed_point_residual,
        "vector": vec_payload,
    }
    rows = [(lv["level"], term["word"], _fmt_float(term["coeff"][0]))
            for lv in vec_payload["levels"] for term in lv["terms"]]
    return "xi", payload, "level,word,coeff", rows


def _dump_gram(cfg: RunConfig, sp, ns):
    level = ns.level
    blocks = [{"format": "qfock-gram-1", "level": level,
               "signature": {sp.letter_name(ell): count
                             for ell, count in enumerate(sig)},
               "words": [sp.word_name(w) for w in sp.block_words(sig)],
               "matrix": sp.gram(sig).tolist()}
              for sig in sp.blocks_at_level(level)]
    payload = {"format": "qfock-gram-dump-1", "q": sp.q,
               "lambda": sp.lam, "level": level, "blocks": blocks}
    rows = [(b, i, j, _fmt_float(val)) for b, blk in enumerate(blocks)
            for i, rowv in enumerate(blk["matrix"])
            for j, val in enumerate(rowv)]
    return f"gram_level{level}", payload, "block,i,j,value", rows


def _dump_operator(cfg: RunConfig, sp, ns):
    maker = _DUMP_OPERATORS.get(ns.name)
    if maker is None:
        raise ConfigError(
            f"unknown operator selector {ns.name!r}; "
            f"choose from {sorted(_DUMP_OPERATORS)}")
    A = maker(sp, ns.n)
    src_max = min(max(0, sp.depth - max(A.peak, 0)), 4)
    blocks = [{"source": list(src), "target": list(tgt),
               "matrix": [[float(x) for x in row] for row in M]}
              for (src, tgt), M in sorted(A.materialize(src_max).items())]
    payload = {"format": "qfock-operator-dump-1", "q": sp.q,
               "lambda": sp.lam, "name": ns.name, "n": ns.n,
               "reach": A.reach, "peak": A.peak,
               "source_level_max": src_max, "blocks": blocks}
    rows = [("+".join(map(str, blk["source"])),
             "+".join(map(str, blk["target"])), i, j, _fmt_float(val))
            for blk in blocks for i, rowv in enumerate(blk["matrix"])
            for j, val in enumerate(rowv)]
    return (f"operator_{ns.name}{ns.n}", payload, "source,target,i,j,value",
            rows)


_DUMPERS = {"xi": _dump_xi, "gram": _dump_gram, "operator": _dump_operator}


def cmd_dump(cfg: RunConfig, ns) -> int:
    """Write one object: its dumper gives the file stem, the JSON payload
    and the CSV header and rows; the CSV opens with the payload's format
    tag."""
    dumper = _DUMPERS[ns.object]
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem, payload, header, rows = dumper(cfg, _dump_space(cfg), ns)
    path = out / f"{stem}.{cfg.fmt}"
    if cfg.fmt == "json":
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        lines = [f"# {payload['format']}", header]
        lines += [",".join(map(str, row)) for row in rows]
        path.write_text("\n".join(lines) + "\n")
    print(f"wrote {path}")
    return 0


# -- argument parsing ---------------------------------------------------


def _config_epilog() -> str:
    cfg = RunConfig()
    lines = ["configuration file: plain 'key = value' lines, '#' comments; "
             "keys and defaults:"]
    for key, name in _KEYS.items():
        note = " (0 means depth // 2)" if key == "terms" else ""
        lines.append(f"  {key:<15} {_show(getattr(cfg, name))}{note}")
    lines.append("command-line flags override file values; exit codes: 0 ok, "
                 "1 check failure, 2 bad configuration")
    return "\n".join(lines)


# RunConfig field -> its command-line flag and argparse options, in
# --help order; each subcommand takes the flags of the fields it reads
_FLAGS = {
    "q_grid": ("--q", dict(type=_float_list, metavar="LIST",
                           help="comma-separated q grid, e.g. '-0.5,0,0.5'")),
    "lam_grid": ("--lambda", dict(
        type=_float_list, metavar="LIST",
        help="comma-separated lambda grid in (0, 1)")),
    "depth": ("--depth", dict(type=int, metavar="N", help="truncation level")),
    "terms": ("--terms", dict(
        type=int, metavar="K",
        help="series order (0 means depth // 2); at depth N only orders up "
             "to (N - 2) // 2 reach the certificate window, so sweep refuses "
             "a higher K, and 0 gives the rows of (N - 2) // 2")),
    "jobs": ("--jobs", dict(type=int, metavar="J",
                            help="worker processes for grid points")),
    "fmt": ("--format", dict(choices=("csv", "json"),
                             help="data file format")),
    "out_dir": ("--out", dict(metavar="DIR", help="output directory")),
}


def _add_flags(p: argparse.ArgumentParser, names, **helps) -> None:
    """Add the flags of the named fields; ``helps`` replaces the help
    text of a field whose flag means something else in this subcommand."""
    p.add_argument("--config", metavar="PATH",
                   help="configuration file (key = value lines)")
    for name in names:
        flag, options = _FLAGS[name]
        p.add_argument(flag, dest=name,
                       **{**options, "help": helps.get(name, options["help"])})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfock",
        description="deformed Fock laboratory: verification, sweeps, dumps",
        epilog=_config_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the invariant checks",
                       epilog=_config_epilog(),
                       formatter_class=argparse.RawDescriptionHelpFormatter)
    _add_flags(p, ("q_grid", "lam_grid", "depth", "jobs", "out_dir"))

    p = sub.add_parser("sweep", help="tabulate diagnostics over the grid",
                       epilog=_config_epilog(),
                       formatter_class=argparse.RawDescriptionHelpFormatter)
    _add_flags(p, _FLAGS)

    p = sub.add_parser("dump", help="write one object in full")
    _add_flags(p, ("q_grid", "lam_grid", "depth", "terms", "fmt", "out_dir"),
               terms="xi: series order K (0 means depth // 2); the vector "
                     "holds the levels 0, 2, ..., 2K")
    p.add_argument("object", choices=("gram", "operator", "xi"),
                   help="what to dump")
    p.add_argument("--level", type=int, default=2,
                   help="gram: word length of the dumped blocks")
    p.add_argument("--name", default="wen",
                   help="operator: selector "
                        f"({', '.join(sorted(_DUMP_OPERATORS))})")
    p.add_argument("--n", type=int, default=3,
                   help="operator: size parameter")
    return parser


def _merge_config(ns) -> RunConfig:
    cfg = RunConfig.from_text(Path(ns.config).read_text()) if ns.config \
        else RunConfig()
    for name in _FLAGS:
        val = getattr(ns, name, None)
        if val is not None:
            cfg = replace(cfg, **{name: val})
    return cfg


_LIST_FLAGS = ("--q", "--lambda")


def _normalize_argv(argv):
    """Fold grid values that open with a negative number (-0.5, -.5)
    into --flag= form; bare argparse would read them as option names."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _LIST_FLAGS and i + 1 < len(argv) \
                and re.fullmatch(r"-\.?\d[\d.,eE+\- ]*", argv[i + 1]):
            out.append(tok + "=" + argv[i + 1])
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    ns = parser.parse_args(_normalize_argv(list(argv)))
    try:
        cfg = _merge_config(ns)
        validate_config(cfg, reads_terms=ns.command != "verify")
        if ns.command == "verify":
            return cmd_verify(cfg)
        if ns.command == "sweep":
            return cmd_sweep(cfg)
        if ns.command == "dump":
            return cmd_dump(cfg, ns)
    except (ConfigError, ValueError, BudgetExceededError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable command dispatch")


if __name__ == "__main__":
    sys.exit(main())
