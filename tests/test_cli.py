"""Command-line layer: configuration handling, exit codes, sweep
determinism, report layout, dump formats."""

import json
from dataclasses import replace

import pytest

from qfock import cli, limits
from qfock.cli import ConfigError, RunConfig
from qfock.fock import build_space


# -- configuration ------------------------------------------------------


def test_config_round_trip():
    cfg = RunConfig(q_grid=(0.1, -0.3), lam_grid=(0.2, 0.5), depth=10,
                    terms=4, jobs=3, fmt="json", out_dir="some/dir",
                    tol_identity=1e-9)
    assert RunConfig.from_text(cfg.to_text()) == cfg
    assert RunConfig.from_text(RunConfig().to_text()) == RunConfig()


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


def test_main_exit_code_two_for_bad_config(tmp_path, capsys):
    rc = cli.main(["verify", "--q", "0.99", "--lambda", "0.3",
                   "--out", str(tmp_path)])
    assert rc == 2
    assert "envelope" in capsys.readouterr().err
    rc = cli.main(["sweep", "--lambda", "0.95", "--depth", "14",
                   "--q", "0.1", "--out", str(tmp_path)])
    assert rc == 2


def test_negative_leading_grid_values_parse(tmp_path):
    rc = cli.main(["sweep", "--q", "-0.3,0.3", "--lambda", "0.2",
                   "--depth", "8", "--out", str(tmp_path)])
    assert rc == 0
    rows = (tmp_path / "sweep.csv").read_text().splitlines()[2:]
    assert [float(r.split(",")[0]) for r in rows] == [-0.3, 0.3]


def test_help_documents_defaults(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert "key = value" in text
    assert "depth" in text and "12" in text
    assert "exit codes" in text


# -- verify -------------------------------------------------------------


@pytest.fixture(scope="module")
def verify_out(tmp_path_factory):
    d = tmp_path_factory.mktemp("verify")
    rc = cli.main(["verify", "--q", "0.3", "--lambda", "0.3",
                   "--out", str(d)])
    report = json.loads((d / "report.json").read_text())
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


def test_verify_failure_names_first_check(tmp_path, capsys, monkeypatch):
    cal = cli.load_calibration()
    broken = json.loads(json.dumps(cal))
    broken["rank_one"]["rows"][0]["sigma1"] *= 1.5
    broken["certificates"]["rows"][0]["min_singular"][0][2] *= 1.5
    monkeypatch.setattr(cli, "load_calibration", lambda: broken)
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

    def flaky(space, n_list=None, window_cap=8):
        if space.lam == 0.3:
            raise RuntimeError("synthetic point failure")
        return real(space, n_list=n_list, window_cap=window_cap)

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
def test_grouped_sweep_matches_cold_points(tmp_path, jobs):
    assert cli.main(["sweep", "--q", "-0.3,0.3", "--lambda", "0.15,0.3,0.5",
                     "--depth", "8", "--jobs", str(jobs), "--format", "json",
                     "--out", str(tmp_path)]) == 0
    want = []
    for q in (-0.3, 0.3):
        for lam in (0.15, 0.3, 0.5):
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
def test_battery_point_at_shallow_depth(depth):
    gaps = cli._battery_point(build_space(q=0.5, lam=0.3, depth=depth))
    assert set(gaps) == set(cli._BATTERY_NAMES)
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
