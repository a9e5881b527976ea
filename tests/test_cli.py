"""Command-line layer: configuration handling, exit codes, sweep
determinism, report layout, dump formats."""

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import warnings
import weakref
from dataclasses import replace
from pathlib import Path

import pytest

import qfock
from qfock import checks, cli, fock, limits, ops
from qfock.cli import ConfigError, RunConfig
from qfock.fock import ModelParams


# -- configuration ------------------------------------------------------


def test_config_round_trip():
    assert RunConfig.from_text(DEFAULT_TEXT) == RunConfig()


def test_config_parses_comments_and_spacing():
    text = "# a comment\n\n  q = 0.1 , -0.2\nlambda=0.3\n depth =  8 \n"
    cfg = RunConfig.from_text(text)
    assert cfg.q_grid == (0.1, -0.2)
    assert cfg.lam_grid == (0.3,)
    assert cfg.depth == 8


def test_config_rejects_unknown_key_and_bad_lines():
    with pytest.raises(ConfigError):
        RunConfig.from_text("nonsense = 3\n")
    with pytest.raises(ConfigError):
        RunConfig.from_text("just some words\n")
    with pytest.raises(ConfigError):
        RunConfig.from_text("depth = twelve\n")


@pytest.mark.parametrize("bad", [
    dict(q_grid=(0.99,)),
    dict(q_grid=(-0.95,)),
    dict(q_grid=(float("nan"),)),
    dict(lam_grid=(1.5,)),
    dict(lam_grid=(0.0,)),
    dict(lam_grid=(0.95,), depth=14),
    dict(depth=3),
    dict(depth=15),
    dict(terms=9),
    dict(pairing_cap=5),
    dict(fmt="xml"),
    dict(jobs=0),
    dict(tol_identity=0.0),
    dict(max_total_words=100),
])
def test_validate_rejects(bad):
    with pytest.raises(ConfigError):
        cli.validate_config(replace(RunConfig(), **bad))


def test_validate_accepts_defaults_and_edge_lambdas():
    cli.validate_config(RunConfig())
    cli.validate_config(replace(RunConfig(), lam_grid=(0.75,), depth=12))
    cli.validate_config(replace(RunConfig(), q_grid=(), lam_grid=()))


def test_tail_budget_guard_boundary():
    # the guard separates the workable 0.75 from the hopeless 0.95
    ok = replace(RunConfig(), lam_grid=(0.75,), depth=12)
    cli.validate_config(ok)
    bad = replace(RunConfig(), lam_grid=(0.95,), depth=14)
    with pytest.raises(ConfigError, match="tail budget"):
        cli.validate_config(bad)


def test_block_scalar_range_guard_boundary(tmp_path, capsys):
    # at depth 6 the edge is lambda = 2^(-958/3), about 7.4e-97; beyond
    # it the sweep's products overflowed (lambda = 1e-200 gave an error
    # row after RuntimeWarnings), inside it a sweep runs cleanly
    edge = 2.0 ** (-fock.SCALE_EXPONENT_MAX / 3.0)
    argv = ["sweep", "--q", "0.3", "--depth", "6", "--out", str(tmp_path)]
    for lam in (1e-200, edge * 0.99):
        assert cli.main(argv + ["--lambda", repr(lam)]) == 2
        assert "block scalars" in capsys.readouterr().err
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(argv + ["--lambda", repr(edge * 1.01)]) == 0
    row = (tmp_path / "sweep.csv").read_text().splitlines()[2]
    assert row.split(",")[8] == "ok"
    # at depth 14 the edge is about 6.3e-42
    cli.validate_config(replace(RunConfig(), lam_grid=(1e-30,), depth=14))
    with pytest.raises(ConfigError, match="block scalars"):
        cli.validate_config(replace(RunConfig(), lam_grid=(1e-60,), depth=14))


# the edges of the block-scalar guard at depths 6 and 14
_EDGE6 = 2.0 ** (-fock.SCALE_EXPONENT_MAX / 3.0)
_EDGE14 = 2.0 ** (-fock.SCALE_EXPONENT_MAX / 7.0)


@pytest.mark.parametrize("depth", [3, 6, 14])
def test_validate_config_refuses_what_the_model_refuses(depth):
    """validate_config refuses a point exactly when ModelParams does, with
    its message, or when a rule of the command line's own fires: depth
    below DEPTH_MIN or the series-tail budget."""
    K = depth // 2
    for q in (math.nan, 0.9, -0.9, 0.9000001):
        for lam in (0.0, 1.0, 0.99, _EDGE6 * 0.99, _EDGE6 * 1.01,
                    _EDGE14 * 0.99, _EDGE14 * 1.01):
            try:
                ModelParams(q, lam, depth)
                model_error = None
            except ValueError as exc:
                model_error = str(exc)
            cfg = RunConfig(q_grid=(q,), lam_grid=(lam,), depth=depth)
            if depth < cli.DEPTH_MIN:
                want = f"depth {depth} outside"
            elif model_error is not None:
                want = model_error
            elif (lam ** ((K + 1) / 2) / (1 - math.sqrt(lam))
                  > cli.TAIL_BUDGET_MAX):
                want = "series tail budget"
            else:
                cli.validate_config(cfg)
                continue
            with pytest.raises(ConfigError) as exc:
                cli.validate_config(cfg)
            if want == model_error:
                assert str(exc.value) == want, (q, lam)
            else:
                assert want in str(exc.value), (q, lam)


def test_terms_validated_only_where_read():
    # verify reads no series order: its tail-budget guard uses depth // 2
    for bad in (dict(terms=9), dict(terms=1, lam_grid=(0.85,))):
        cfg = replace(RunConfig(), **bad)
        cli.validate_config(cfg, reads_terms=False)
        with pytest.raises(ConfigError):
            cli.validate_config(cfg)


def test_verify_accepts_terms_it_does_not_read(tmp_path, monkeypatch,
                                                capsys):
    cfg = tmp_path / "terms.cfg"
    cfg.write_text("terms = 9\n")
    monkeypatch.setattr(cli, "cmd_verify", lambda cfg: 0)
    assert cli.main(["verify", "--config", str(cfg)]) == 0
    for argv in (["sweep"], ["dump", "xi"]):
        assert cli.main(argv + ["--config", str(cfg),
                                "--out", str(tmp_path)]) == 2
        assert "terms 9 outside" in capsys.readouterr().err


def test_sweep_refuses_terms_beyond_the_window(tmp_path, capsys):
    # at depth 8 the certificate window reads orders up to 3; the
    # default, depth // 2 = 4, runs and gives the rows of order 3
    base = ["sweep", "--depth", "8", "--q", "0.3", "--lambda", "0.3"]
    assert cli.main(base + ["--terms", "4", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "terms 4 above the order limit (depth - 2) // 2 = 3" in err
    assert not tmp_path.joinpath("sweep.csv").exists()
    rows = {}
    for terms in ("3", "0"):
        out = tmp_path / terms
        assert cli.main(base + ["--terms", terms, "--out", str(out)]) == 0
        rows[terms] = [line.split(",")[:9] for line
                       in (out / "sweep.csv").read_text().splitlines()]
    assert rows["3"] == rows["0"]
    assert rows["0"][2][-1] == "ok"


def _flag_help(command, dest):
    parser = cli.build_parser()
    subs = next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction))
    return next(a.help for a in subs.choices[command]._actions
                if a.dest == dest)


def test_terms_help_per_subcommand():
    assert _flag_help("sweep", "terms") == (
        "series order (0 means depth // 2); at depth N only orders up to "
        "(N - 2) // 2 reach the certificate window, so sweep refuses a "
        "higher K, and 0 gives the rows of (N - 2) // 2")
    assert _flag_help("dump", "terms") == (
        "xi: series order K (0 means depth // 2); the vector holds the "
        "levels 0, 2, ..., 2K")


def test_main_exit_code_two_for_bad_config(tmp_path, capsys):
    rc = cli.main(["verify", "--q", "0.99", "--lambda", "0.3",
                   "--out", str(tmp_path)])
    assert rc == 2
    assert "envelope" in capsys.readouterr().err
    rc = cli.main(["sweep", "--lambda", "0.95", "--depth", "14",
                   "--q", "0.1", "--out", str(tmp_path)])
    assert rc == 2


def test_word_budget_refused_before_any_row(tmp_path, capsys):
    cfg = tmp_path / "small.cfg"
    cfg.write_text("max_total_words = 100\nq = 0.3\nlambda = 0.3\n"
                   "depth = 6\n")
    out = tmp_path / "out"
    for command in ("sweep", "verify"):
        assert cli.main([command, "--config", str(cfg),
                         "--out", str(out)]) == 2
        assert "budget 100" in capsys.readouterr().err
    assert not out.exists()


def test_nan_q_refused_before_any_output(tmp_path, capsys):
    # NaN fails every comparison, so it must fail the envelope test too
    out = tmp_path / "out"
    for command in (["verify"], ["sweep"], ["dump", "xi"]):
        assert cli.main(command + ["--q", "nan", "--lambda", "0.3",
                                   "--depth", "6", "--out", str(out)]) == 2
        assert "q = nan outside the supported envelope" \
            in capsys.readouterr().err
    assert not out.exists()


def test_empty_axis_and_gram_level_refused(tmp_path, capsys):
    # an empty grid axis stands for 0.3, so the other axis is still
    # checked against the model
    out = tmp_path / "out"
    for argv, reason in (
            (["sweep", "--q", "", "--lambda", "1e-200"], "block scalars"),
            (["sweep", "--q", "0.95", "--lambda", ""],
             "q = 0.95 outside the supported envelope"),
            (["dump", "gram", "--level", "9"], "level 9 outside 0..8")):
        assert cli.main(argv + ["--depth", "8", "--out", str(out)]) == 2
        assert reason in capsys.readouterr().err


def test_negative_leading_grid_values_parse(tmp_path):
    rc = cli.main(["sweep", "--q", "-0.3,0.3", "--lambda", "0.2",
                   "--depth", "8", "--out", str(tmp_path)])
    assert rc == 0
    rows = (tmp_path / "sweep.csv").read_text().splitlines()[2:]
    assert [float(r.split(",")[0]) for r in rows] == [-0.3, 0.3]


@pytest.mark.parametrize("command", [["verify"], ["sweep"], ["dump", "xi"]])
def test_grid_opening_with_a_bare_point_parses(command):
    assert _parse([*command, "--q", "-.5,0.5"]).q_grid == (-0.5, 0.5)
    assert _parse([*command, "--lambda", "-.25,.5"]).lam_grid == (-0.25, 0.5)


def test_dump_boundary_values_exit_cleanly(tmp_path, capsys):
    # each dump at the edges of its size parameters writes (0) or is
    # refused (2), never raises; a negative operator size is refused
    depth = 4
    cases = [["operator", "--name", name, "--n", str(n)]
             for name in sorted(cli._DUMP_OPERATORS)
             for n in range(-1, depth + 2)]
    cases += [["gram", "--level", str(level)]
              for level in (-1, 0, depth, depth + 1)]
    cases += [["xi", "--terms", str(k)] for k in range(-1, depth // 2 + 2)]
    assert len(cases) == 44
    codes = {}
    for args in cases:
        argv = ["dump", *args, "--depth", str(depth), "--out", str(tmp_path)]
        try:
            codes[" ".join(args)] = cli.main(argv)
        except Exception as exc:
            codes[" ".join(args)] = repr(exc)
    capsys.readouterr()
    assert {k: v for k, v in codes.items() if v not in (0, 2)} == {}
    assert all(codes[f"operator --name {name} --n -1"] == 2
               for name in cli._DUMP_OPERATORS)


def test_help_documents_defaults(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert "key = value" in text
    assert "depth" in text and "12" in text
    assert "exit codes" in text


DEFAULT_TEXT = """\
# run configuration
q = -0.8, -0.5, -0.3, 0.0, 0.3, 0.5, 0.8
lambda = 0.05, 0.15, 0.3, 0.5, 0.75
depth = 12
terms = 0
max_total_words = 2000000
pairing_cap = 16
tol_identity = 1e-10
tol_eigen = 1e-12
tol_moment = 1e-08
out_dir = out
format = csv
jobs = 1
"""

DEFAULT_EPILOG = """\
configuration file: plain 'key = value' lines, '#' comments; keys and defaults:
  q               -0.8, -0.5, -0.3, 0.0, 0.3, 0.5, 0.8
  lambda          0.05, 0.15, 0.3, 0.5, 0.75
  depth           12
  terms           0 (0 means depth // 2)
  max_total_words 2000000
  pairing_cap     16
  tol_identity    1e-10
  tol_eigen       1e-12
  tol_moment      1e-08
  out_dir         out
  format          csv
  jobs            1
command-line flags override file values; exit codes: 0 ok, 1 check failure, \
2 bad configuration"""


def test_default_text_and_epilog_pinned():
    assert cli._config_epilog() == DEFAULT_EPILOG


# a non-default value for every configuration key, and the keys whose
# flag each subcommand takes
KEY_VALUES = {
    "q": "0.1, -0.2", "lambda": "0.2, 0.4", "depth": "8", "terms": "3",
    "max_total_words": "1000", "pairing_cap": "12", "tol_identity": "1e-09",
    "tol_eigen": "1e-11", "tol_moment": "1e-07", "out_dir": "some/dir",
    "format": "json", "jobs": "2",
}
COMMAND_KEYS = {
    "verify": ("q", "lambda", "depth", "jobs", "out_dir"),
    "sweep": ("q", "lambda", "depth", "terms", "jobs", "format", "out_dir"),
    "dump": ("q", "lambda", "depth", "terms", "format", "out_dir"),
}


def _parse(argv) -> RunConfig:
    ns = cli.build_parser().parse_args(cli._normalize_argv(argv))
    return cli._merge_config(ns)


@pytest.mark.parametrize("key", list(cli._KEYS))
def test_config_line_and_flag_agree(key):
    from_file = RunConfig.from_text(f"{key} = {KEY_VALUES[key]}\n")
    assert from_file != RunConfig()
    if cli._KEYS[key] not in cli._FLAGS:
        assert not any(key in keys for keys in COMMAND_KEYS.values())
        return
    flag, _ = cli._FLAGS[cli._KEYS[key]]
    for command, keys in COMMAND_KEYS.items():
        argv = [command, "xi"] if command == "dump" else [command]
        argv += [flag, KEY_VALUES[key]]
        if key in keys:
            assert _parse(argv) == from_file
        else:
            # verify --terms, verify --format and dump --jobs among them
            with pytest.raises(SystemExit) as exc:
                _parse(argv)
            assert exc.value.code == 2


# -- verify -------------------------------------------------------------


@pytest.fixture(scope="module")
def verify_out(default_verify):
    rc, report = default_verify[:2]
    return rc, report


def test_verify_small_grid_passes(verify_out):
    rc, report = verify_out
    assert rc == 0
    assert report["format"] == "qfock-verify-1"
    assert report["summary"]["failed"] == 0
    assert report["summary"]["first_failure"] is None
    assert report["summary"]["total"] >= 40


def test_verify_report_layout(verify_out):
    _, report = verify_out
    names = [c["name"] for c in report["checks"]]
    assert len(names) == len(set(names))
    for prefix in ("qcomb/", "fock/", "ops/", "limits/"):
        assert any(n.startswith(prefix) for n in names)
    for check in report["checks"]:
        assert set(check) == {"name", "passed", "gap", "tol", "note"}
        assert check["gap"] >= 0.0
    # data files carry no wall-clock information
    assert "runtime" not in json.dumps(report)
    assert report["config"]["depth"] == 12


REPO = Path(__file__).resolve().parents[1]
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS")


def _child_env(**variables):
    """This environment with none of BLAS_THREAD_VARIABLES and no glibc
    allocator setting, as a fresh shell has none, then `variables`, and
    this tree's src/ on the path."""
    env = {k: v for k, v in os.environ.items()
           if k not in BLAS_THREAD_VARIABLES and k != "GLIBC_TUNABLES"
           and not k.startswith("MALLOC_")}
    env.update(variables)
    src = str(REPO / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))
    return env


def _cli_in_default_environment(args):
    """Runs `python -m qfock.cli ARGS` in a child process that sets no
    BLAS thread variable and asserts it exits 0: the package then pins
    one BLAS thread itself, the count the references were made at."""
    proc = subprocess.run(
        [sys.executable, "-m", "qfock.cli", *args],
        env=_child_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_verify_matches_benchmark_reference(tmp_path):
    """The benchmark's seed-0 verify run, out of the box, writes the
    committed reference report apart from out_dir."""
    _cli_in_default_environment(
        ["verify", "--q=-0.8,0.0,0.8", "--lambda=0.05,0.15,0.3,0.5,0.75",
         "--depth", "12", "--jobs", "1", "--out", str(tmp_path)])
    report = json.loads((tmp_path / "report.json").read_text())
    report["config"].pop("out_dir")
    ref = REPO / "perfbench" / "reference" / "verify_seed0.json"
    assert json.dumps(report, indent=2, sort_keys=True) + "\n" \
        == ref.read_text()


def test_sweep_matches_benchmark_reference(tmp_path):
    """The benchmark's seed-0 sweep at q = -0.8 and 0.8, out of the box,
    writes the committed reference rows: every column before runtime_ms,
    byte for byte."""
    _cli_in_default_environment(
        ["sweep", "--q=-0.8,0.8", "--lambda=0.05,0.15,0.3,0.5,0.75",
         "--depth", "12", "--jobs", "1", "--out", str(tmp_path)])
    got = [line.split(",")[:9]
           for line in (tmp_path / "sweep.csv").read_text().splitlines()]
    ref = REPO / "perfbench" / "reference" / "sweep_seed0.csv"
    want = [line.split(",")[:9] for line in ref.read_text().splitlines()]
    # the format line and the header, then the rows at q = -0.8 and 0.8
    want = want[:2] + [row for row in want[2:] if abs(float(row[0])) == 0.8]
    assert len(want) == 12
    assert got == want


def _python(code, **variables):
    """The JSON that CODE prints last, run in a fresh interpreter in
    _child_env(**variables): this one has loaded numpy long ago."""
    proc = subprocess.run([sys.executable, "-c", code],
                          env=_child_env(**variables),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _thread_variables_after(imports, **variables):
    """BLAS_THREAD_VARIABLES as a child in _child_env(**variables) sees
    them after running IMPORTS."""
    return _python(f"import json, os; {imports}; print(json.dumps("
                   f"{{v: os.environ.get(v) "
                   f"for v in {BLAS_THREAD_VARIABLES!r}}}))", **variables)


def test_import_pins_one_blas_thread():
    assert _thread_variables_after("import qfock") == {
        "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None,
        "MKL_NUM_THREADS": None}


@pytest.mark.parametrize("name", BLAS_THREAD_VARIABLES)
def test_user_thread_variable_wins(name):
    want = dict.fromkeys(BLAS_THREAD_VARIABLES)
    want[name] = "2"
    assert _thread_variables_after("import qfock", **{name: "2"}) == want


def test_numpy_loaded_first_keeps_environment():
    assert _thread_variables_after("import numpy; import qfock") \
        == dict.fromkeys(BLAS_THREAD_VARIABLES)


def _rss_kept_after_large_frees(**variables):
    """MiB of resident memory that a child in _child_env(**variables)
    keeps after importing qfock and allocating and freeing a 6 MiB array
    twice.  Under glibc's default the first free raises the mmap
    threshold above 6 MiB, so the second array comes from the heap and
    its pages stay."""
    return _python(
        "import json, qfock, numpy as np\n"
        "def rss():\n"
        "    with open('/proc/self/status') as f:\n"
        "        line = next(ln for ln in f if ln.startswith('VmRSS:'))\n"
        "    return int(line.split()[1]) / 1024\n"
        "before = rss()\n"
        "for _ in range(2):\n"
        "    a = np.ones(6 << 17)\n"
        "    del a\n"
        "print(json.dumps(rss() - before))", **variables)


on_glibc = pytest.mark.skipif(
    sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
    reason="glibc's allocator and /proc/self/status")


@on_glibc
def test_import_returns_large_arrays():
    assert _rss_kept_after_large_frees() < 1.0


@on_glibc
@pytest.mark.parametrize("variables", [
    {"MALLOC_MMAP_THRESHOLD_": "33554432",
     "MALLOC_TRIM_THRESHOLD_": "1073741824"},
    {"GLIBC_TUNABLES": "glibc.malloc.mmap_threshold=33554432:"
                       "glibc.malloc.trim_threshold=1073741824"},
], ids=["MALLOC_MMAP_THRESHOLD_", "GLIBC_TUNABLES"])
def test_user_mmap_threshold_wins(variables):
    # a user's 32 MiB threshold, with a trim threshold that keeps the
    # heap's free top, leaves the freed array resident; qfock's 4 MiB
    # threshold would return it
    assert _rss_kept_after_large_frees(**variables) > 5.0


class _Libc:
    """A libc whose mallopt and malloc_trim record their calls and
    succeed."""
    calls: list = []

    def __init__(self, name):
        assert name is None

    def mallopt(self, param, value):
        self.calls.append((param, value))
        return 1

    def malloc_trim(self, pad):
        self.calls.append(("malloc_trim", pad.value))
        return 1


def _no_libc(name):
    raise OSError("no C library")


@pytest.mark.parametrize("variables, lookup, want", [
    ({}, _Libc, [(-3, 4 << 20)]),
    ({"MALLOC_MMAP_THRESHOLD_": "33554432"}, _Libc, []),
    ({"GLIBC_TUNABLES": "glibc.malloc.mmap_threshold=33554432"}, _Libc, []),
    ({}, _no_libc, []),
    ({}, lambda name: object(), []),
], ids=["default", "MALLOC_MMAP_THRESHOLD_", "GLIBC_TUNABLES", "no-libc",
        "no-mallopt"])
def test_mmap_threshold_policy(monkeypatch, variables, lookup, want):
    # mallopt(M_MMAP_THRESHOLD = -3, 4 MiB) unless the user set a
    # threshold; quietly nothing where libc or its mallopt is missing
    for name in ("MALLOC_MMAP_THRESHOLD_", "GLIBC_TUNABLES"):
        monkeypatch.delenv(name, raising=False)
    for name, value in variables.items():
        monkeypatch.setenv(name, value)
    monkeypatch.setattr(qfock.ctypes, "CDLL", lookup)
    monkeypatch.setattr(_Libc, "calls", [])
    assert qfock._return_large_frees() is bool(want)
    assert _Libc.calls == want


@pytest.mark.parametrize("lookup, want", [
    (_Libc, [("malloc_trim", 0)]),
    (_no_libc, []),
    (lambda name: object(), []),
], ids=["default", "no-libc", "no-malloc_trim"])
def test_heap_release_policy(monkeypatch, lookup, want):
    # malloc_trim(0); quietly nothing where libc or its malloc_trim is
    # missing
    monkeypatch.setattr(qfock.ctypes, "CDLL", lookup)
    monkeypatch.setattr(_Libc, "calls", [])
    assert qfock._release_freed_heap() is bool(want)
    assert _Libc.calls == want


def test_certificate_releases_heap_once_per_truncation(monkeypatch):
    # each truncation's series is gone when its heap is released
    series = []
    s_infinity = limits.s_infinity

    def recorded(*args, **kwargs):
        out = s_infinity(*args, **kwargs)
        series.append(weakref.ref(out))
        return out

    def release():
        assert all(ref() is None for ref in series)
        released.append(len(series))
        return True

    released = []
    monkeypatch.setattr(limits, "s_infinity", recorded)
    monkeypatch.setattr(limits, "_release_freed_heap", release)
    limits.invertibility_certificate(0.3, 0.3, truncations=(4, 6, 8))
    assert released == [1, 2, 3]


def _rss_after_certificate(release):
    """MiB of resident memory in a child after one depth-12 certificate
    at the seed-0 sweep's first point; with release False the
    certificate's heap release does nothing."""
    return _python(
        "import json, qfock\n"
        "from qfock import limits\n"
        f"if not {release}:\n"
        "    limits._release_freed_heap = lambda: False\n"
        "limits.invertibility_certificate(-0.8, 0.05, truncations=(12,))\n"
        "with open('/proc/self/status') as f:\n"
        "    line = next(ln for ln in f if ln.startswith('VmRSS:'))\n"
        "print(json.dumps(int(line.split()[1]) / 1024))")


@on_glibc
def test_certificate_returns_freed_heap():
    # the series' freed working set goes back to the system
    assert _rss_after_certificate(True) \
        < _rss_after_certificate(False) - 8.0


def test_cli_import_loads_no_scipy():
    """Importing the command line loads every layer the benchmark traces
    and no scipy, which only a numpy without ILP64 LAPACK routines loads,
    at its first solve."""
    loaded = _python("import json, sys, qfock.cli; "
                     "print(json.dumps(sorted(sys.modules)))")
    assert not [m for m in loaded if m.split(".")[0] == "scipy"]
    assert {f"qfock.{layer}" for layer in
            ("qcomb", "fock", "ops", "limits", "cli")} <= set(loaded)


@pytest.mark.parametrize("args, code", [
    (["dump", "gram", "--depth", "6"], 0),
    (["verify", "--q", "2"], 2),
])
def test_dump_and_refusal_load_no_scipy(tmp_path, args, code):
    """A dump and a refused configuration load no scipy, whatever LAPACK
    numpy links: they solve nothing."""
    argv = [*args, "--out", str(tmp_path)]
    got = _python("import json, sys; from qfock import cli; "
                  f"rc = cli.main({argv!r}); "
                  "print(json.dumps([rc, 'scipy' in sys.modules]))")
    assert got == [code, False]


def test_solves_load_no_scipy(tmp_path):
    """Every solve runs on the LAPACK that numpy links: a small verify, a
    deformed adjoint, the rank-one diagnostics and the Gram pencil run
    each of its routines, and no scipy module is loaded."""
    if any(fock._numpy_lapack(name) is None for name in fock._LAPACK_ARGTYPES):
        pytest.skip("numpy's LAPACK exports no ILP64 routines")
    argv = ["verify", "--q", "0.3", "--lambda", "0.3", "--depth", "6",
            "--out", str(tmp_path)]
    got = _python(
        "import json, sys\n"
        "from qfock import checks, cli, fock, limits, ops\n"
        "from qfock.fock import E, build_space\n"
        "run, names = fock._run, set()\n"
        "def counted(fn, *args):\n"
        "    names.add(fn.__name__)\n"
        "    return run(fn, *args)\n"
        "fock._run = counted\n"
        "checks.CHECKS[:] = [c for c in checks.CHECKS if c.over == 'point']\n"
        f"rc = cli.main({argv!r})\n"
        "sp = build_space(q=0.3, lam=0.4, depth=6)\n"
        "A = ops.creation_letter(sp, E)\n"
        "ops.q_adjoint(A).action((1, 0))\n"
        "limits.rank_one_diagnostics(sp, n_list=[1])\n"
        "ops._pencil_norm(A, {s: A.targets(s)\n"
        "                     for s in ops.Window(sp, 5).blocks})\n"
        "print(json.dumps([rc, sorted(names), sorted(\n"
        "    m for m in sys.modules if m.split('.')[0] == 'scipy')]))")
    rc, names, scipy_modules = got
    assert rc == 0
    assert {name.removeprefix("scipy_").removesuffix("_64_")
            for name in names} == set(fock._LAPACK_ARGTYPES)
    assert scipy_modules == []


# the entries whose gap or tolerance reads a value frozen in the
# calibration file
CALIBRATED = ("limits/invertibility-kernel-regime", "limits/certificate-drift",
              "limits/rank-one-ratio-decrease", "limits/rank-one-cosine",
              "limits/rank-one-sigma-window", "limits/rank-one-sigma-full",
              "limits/rank-one-tail-account", "limits/rank-one-fixture-drift",
              "limits/comp-table")


def _only(monkeypatch, keep) -> None:
    """Restrict the check table to the entries keep(entry) selects."""
    monkeypatch.setattr(checks, "CHECKS",
                        [c for c in checks.CHECKS if keep(c)])


def test_verify_failure_names_first_check(tmp_path, capsys, monkeypatch):
    cal = cli.load_calibration()
    broken = json.loads(json.dumps(cal))
    broken["rank_one"]["rows"][0]["sigma1"] *= 1.5
    broken["certificates"]["rows"][0]["min_singular"][0][2] *= 1.5
    monkeypatch.setattr(cli, "load_calibration", lambda: broken)
    _only(monkeypatch, lambda c: c.name in CALIBRATED)
    rc = cli.main(["verify", "--q", "", "--lambda", "",
                   "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "first failing check" in err
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["summary"]["failed"] >= 1
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    assert "limits/certificate-drift" in failed
    assert "limits/rank-one-fixture-drift" in failed


def test_verify_records_failed_fixture(tmp_path, monkeypatch):
    def unreadable():
        raise OSError("calibration file unreadable")

    monkeypatch.setattr(cli, "load_calibration", unreadable)
    _only(monkeypatch, lambda c: c.name in CALIBRATED)
    assert cli.main(["verify", "--q", "", "--lambda", "",
                     "--out", str(tmp_path)]) == 1
    report = json.loads((tmp_path / "report.json").read_text())
    assert [c["name"] for c in report["checks"]] == list(CALIBRATED)
    assert report["summary"]["failed"] == len(CALIBRATED)
    assert {c["note"] for c in report["checks"]} \
        == {"OSError: calibration file unreadable"}


# -- sweep --------------------------------------------------------------


def _strip_runtime(csv_text: str) -> str:
    lines = csv_text.splitlines()
    return "\n".join(",".join(line.split(",")[:9]) for line in lines)


@pytest.fixture(scope="module")
def sweep_pair(tmp_path_factory):
    grids = ["--q", "0.1,-0.3", "--lambda", "0.15,0.3", "--depth", "10"]
    d1 = tmp_path_factory.mktemp("sweep1")
    d2 = tmp_path_factory.mktemp("sweep2")
    assert cli.main(["sweep", *grids, "--out", str(d1)]) == 0
    assert cli.main(["sweep", *grids, "--out", str(d2)]) == 0
    return d1, d2


def test_sweep_schema_and_rows(sweep_pair):
    d1, _ = sweep_pair
    lines = (d1 / "sweep.csv").read_text().splitlines()
    assert lines[0] == "# qfock-sweep-1"
    assert lines[1].split(",") == list(cli.SWEEP_COLUMNS)
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 4
    qs = [float(r[0]) for r in rows]
    assert qs == [0.1, 0.1, -0.3, -0.3]
    for r in rows:
        assert r[8] == "ok"
        assert r[4] in ("true", "false")
        assert 0.0 < float(r[5]) < 10.0
        assert float(r[9]) >= 0.0


def test_sweep_determinism_excluding_runtime(sweep_pair):
    d1, d2 = sweep_pair
    a = _strip_runtime((d1 / "sweep.csv").read_text())
    b = _strip_runtime((d2 / "sweep.csv").read_text())
    assert a == b
    assert (d1 / "sweep_plot.gp").read_text() \
        == (d2 / "sweep_plot.gp").read_text()


def test_sweep_plot_script_mentions_each_q(sweep_pair):
    d1, _ = sweep_pair
    text = (d1 / "sweep_plot.gp").read_text()
    assert "set datafile separator comma" in text
    assert 'title "q=0.1"' in text
    assert 'title "q=-0.3"' in text
    assert "sweep.csv" in text


def test_sweep_worker_pool_matches_serial(tmp_path):
    grids = ["--q", "0.1,-0.3", "--lambda", "0.15,0.3", "--depth", "8"]
    d1 = tmp_path / "serial"
    d2 = tmp_path / "pooled"
    assert cli.main(["sweep", *grids, "--out", str(d1)]) == 0
    assert cli.main(["sweep", *grids, "--jobs", "3", "--out", str(d2)]) == 0
    assert _strip_runtime((d1 / "sweep.csv").read_text()) \
        == _strip_runtime((d2 / "sweep.csv").read_text())


def test_grid_checks_pool_matches_serial(monkeypatch):
    cfg = replace(RunConfig(), q_grid=(0.3, -0.5), lam_grid=(0.2, 0.4),
                  depth=6)
    _only(monkeypatch, lambda c: c.over)
    suites = []
    for jobs in (1, 2):
        suites.append(cli.run_checks(replace(cfg, jobs=jobs)))
    assert suites[0] == suites[1]
    assert all(r.passed for r in suites[0])


def test_grid_records_on_empty_grid(monkeypatch):
    _only(monkeypatch, lambda c: c.over)
    results = cli.run_checks(replace(RunConfig(), q_grid=(), lam_grid=()))
    assert len(results) == 14
    for r in results:
        assert (r.gap, r.note, r.passed) == (0.0, "empty grid", True)


def test_verify_records_crash_at_grid_point(tmp_path, capsys, monkeypatch):
    def op_norm(A, src_level_max=None):
        raise ValueError("synthetic")

    monkeypatch.setattr(ops, "op_norm", op_norm)
    _only(monkeypatch, lambda c: c.over)
    rc = cli.main(["verify", "--q", "0.3", "--lambda", "0.3", "--depth", "6",
                   "--out", str(tmp_path)])
    assert rc == 1
    report = json.loads((tmp_path / "report.json").read_text())
    failed = {c["name"]: c["note"] for c in report["checks"]
              if not c["passed"]}
    assert failed == {"ops/creation-norm-bound": "ValueError: synthetic"}
    assert report["summary"]["total"] == 14
    assert "first failing check: ops/creation-norm-bound" \
        in capsys.readouterr().err


def test_sweep_verdict_flips_across_threshold(tmp_path):
    assert cli.main(["sweep", "--q", "0.1", "--lambda", "0.15,0.25",
                     "--depth", "10", "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "sweep.csv").read_text().splitlines()[2:]
    verdicts = [r.split(",")[4] for r in rows]
    assert verdicts == ["true", "false"]


def test_sweep_kernel_point_shrinks_with_depth(tmp_path):
    sigs = []
    for depth in (8, 12):
        d = tmp_path / f"n{depth}"
        assert cli.main(["sweep", "--q", "0", "--lambda", "0.75",
                         "--depth", str(depth), "--out", str(d)]) == 0
        row = (d / "sweep.csv").read_text().splitlines()[2].split(",")
        sigs.append(float(row[5]))
    assert sigs[1] < sigs[0]


def test_sweep_json_format(tmp_path):
    assert cli.main(["sweep", "--q", "0.3", "--lambda", "0.3",
                     "--depth", "8", "--format", "json",
                     "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "sweep.json").read_text())
    assert payload["format"] == "qfock-sweep-1"
    assert payload["columns"] == list(cli.SWEEP_COLUMNS)
    assert len(payload["rows"]) == 1
    assert payload["rows"][0]["status"] == "ok"


def test_sweep_empty_grid_writes_header_only(tmp_path):
    assert cli.main(["sweep", "--q", "", "--lambda", "",
                     "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines == ["# qfock-sweep-1", ",".join(cli.SWEEP_COLUMNS)]


def test_sweep_records_errors_in_row_and_continues(tmp_path, monkeypatch):
    real = cli.limits.rank_one_diagnostics

    def flaky(space, n_list=None):
        if space.lam == 0.3:
            raise RuntimeError("synthetic point failure")
        return real(space, n_list=n_list)

    monkeypatch.setattr(cli.limits, "rank_one_diagnostics", flaky)
    assert cli.main(["sweep", "--q", "0.1", "--lambda", "0.15,0.3",
                     "--depth", "8", "--out", str(tmp_path)]) == 0
    rows = [r.split(",") for r in
            (tmp_path / "sweep.csv").read_text().splitlines()[2:]]
    assert rows[0][8] == "ok"
    assert rows[1][8] == "error:RuntimeError"
    assert rows[1][6] == ""


def _json_rows_without_runtime(out_dir):
    rows = json.loads((out_dir / "sweep.json").read_text())["rows"]
    for row in rows:
        del row["runtime_ms"]
    return rows


@pytest.mark.parametrize("jobs", [1, 2])
def test_grouped_sweep_matches_cold_points(tmp_path, jobs, cold_gram_caches):
    assert cli.main(["sweep", "--q", "-0.3,0.3", "--lambda", "0.15,0.3,0.5",
                     "--depth", "8", "--jobs", str(jobs), "--format", "json",
                     "--out", str(tmp_path)]) == 0
    want = []
    for q in (-0.3, 0.3):
        for lam in (0.15, 0.3, 0.5):
            cold_gram_caches()
            row, _ = cli._sweep_point(q, lam, 8, 4,
                                      RunConfig().max_total_words)
            del row["runtime_ms"]
            want.append(row)
    assert _json_rows_without_runtime(tmp_path) == want


def test_sweep_terms_set_series_order(tmp_path):
    grid = ["sweep", "--q", "0.3", "--lambda", "0.3", "--depth", "8",
            "--format", "json"]
    assert cli.main([*grid, "--terms", "2", "--out", str(tmp_path / "k2")]) == 0
    assert cli.main([*grid, "--out", str(tmp_path / "default")]) == 0
    [k2] = _json_rows_without_runtime(tmp_path / "k2")
    [default] = _json_rows_without_runtime(tmp_path / "default")
    cert = limits.invertibility_certificate(0.3, 0.3, truncations=(8,),
                                            n_terms=2)
    assert k2["min_singular"] == cert.min_singular[0][2]
    assert k2["min_singular"] != default["min_singular"]


# -- verify battery -----------------------------------------------------


@pytest.mark.parametrize("depth", [4, 5])
def test_battery_point_at_shallow_depth(depth, monkeypatch):
    _only(monkeypatch, lambda c: c.over == "point")
    results = cli.run_checks(replace(RunConfig(), q_grid=(0.5,),
                                     lam_grid=(0.3,), depth=depth))
    gaps = {r.name: r.gap for r in results}
    assert set(gaps) == {c.name for c in checks.CHECKS}
    assert max(gaps.values()) < 1e-10


# -- dump ---------------------------------------------------------------


def test_dump_xi_levels(tmp_path):
    assert cli.main(["dump", "xi", "--terms", "6", "--q", "0.3",
                     "--lambda", "0.3", "--format", "json",
                     "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "xi.json").read_text())
    assert payload["format"] == "qfock-xi-dump-1"
    levels = [lv["level"] for lv in payload["vector"]["levels"]]
    assert levels == [0, 2, 4, 6, 8, 10, 12]
    assert payload["norm_sq_closed_form"] > 0.0


def test_dump_xi_terms_zero_means_half_depth(tmp_path):
    assert cli.main(["dump", "xi", "--terms", "0", "--depth", "8",
                     "--q", "0.3", "--lambda", "0.3", "--format", "json",
                     "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "xi.json").read_text())
    assert payload["terms"] == 4
    levels = [lv["level"] for lv in payload["vector"]["levels"]]
    assert levels == [0, 2, 4, 6, 8]


def test_dump_gram_level_two(tmp_path):
    assert cli.main(["dump", "gram", "--level", "2", "--q", "0.3",
                     "--lambda", "0.3", "--format", "json",
                     "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "gram_level2.json").read_text())
    assert payload["format"] == "qfock-gram-dump-1"
    assert len(payload["blocks"]) == 3
    sigs = [b["signature"] for b in payload["blocks"]]
    assert {"e": 1, "Ebar": 1} in sigs


def test_dump_operator_with_reach(tmp_path):
    assert cli.main(["dump", "operator", "--name", "wen", "--n", "3",
                     "--q", "0.3", "--lambda", "0.3", "--format", "json",
                     "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "operator_wen3.json").read_text())
    assert payload["format"] == "qfock-operator-dump-1"
    assert payload["reach"] == 3
    assert payload["blocks"]
    for blk in payload["blocks"]:
        assert sum(blk["target"]) - sum(blk["source"]) <= payload["reach"]


# (reach, peak) of each dump selector at size n; the dumped window is
# min(depth - peak, 4)
SELECTOR_BOOKKEEPING = {
    "wen": lambda n: (n, n),
    "weew": lambda n: (2 * n, 2 * n),
    "t": lambda n: (0, n),
    "s": lambda n: (0, n),
    "z": lambda n: (4 * n, 4 * n),
}


@pytest.mark.parametrize("name", sorted(SELECTOR_BOOKKEEPING))
def test_dump_operator_bookkeeping(tmp_path, name):
    for depth in (8, 12):
        for n in range(5):
            assert cli.main(["dump", "operator", "--name", name, "--n",
                             str(n), "--depth", str(depth), "--format",
                             "json", "--out", str(tmp_path)]) == 0
            payload = json.loads(
                (tmp_path / f"operator_{name}{n}.json").read_text())
            reach, peak = SELECTOR_BOOKKEEPING[name](n)
            got = (payload["reach"], payload["peak"],
                   payload["source_level_max"])
            assert got == (reach, peak, min(max(depth - peak, 0), 4)), \
                (depth, n)


def test_dump_csv_variants(tmp_path):
    assert cli.main(["dump", "gram", "--level", "2", "--q", "0.3",
                     "--lambda", "0.3", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "gram_level2.csv").read_text().splitlines()
    assert lines[0] == "# qfock-gram-dump-1"
    assert lines[1] == "block,i,j,value"
    assert len(lines) > 2


def test_dump_unknown_selector_exits_two(tmp_path, capsys):
    rc = cli.main(["dump", "operator", "--name", "bogus",
                   "--out", str(tmp_path)])
    assert rc == 2
    assert "unknown operator selector" in capsys.readouterr().err
    rc = cli.main(["dump", "gram", "--level", "40", "--out", str(tmp_path)])
    assert rc == 2
