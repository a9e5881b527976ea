"""Session fixtures for the objects that several test modules read: one
default verification run, the calibration file, the canonical space and
its rank-one report, and the boundedness scans."""

import json
import time
from importlib import resources

import pytest

from qfock import cli, limits
from qfock.fock import build_space


@pytest.fixture(scope="session")
def default_verify(tmp_path_factory):
    """One full default-configuration verification run, timed:
    (exit code, report, seconds)."""
    d = tmp_path_factory.mktemp("verify")
    t0 = time.perf_counter()
    rc = cli.main(["verify", "--out", str(d)])
    elapsed = time.perf_counter() - t0
    report = json.loads((d / "report.json").read_text())
    return rc, report, elapsed


@pytest.fixture(scope="session")
def cal():
    text = resources.files("qfock").joinpath("calibration.json").read_text()
    return json.loads(text)


@pytest.fixture(scope="session")
def shared_space():
    """shared_space(q, lam, depth): the space at (q, lam, depth); the
    spaces at one (q, depth) share their Gram caches through
    FockSpace.with_lambda, so a block is factored once a session."""
    units = {}

    def space(q, lam, depth):
        if (q, depth) not in units:
            units[q, depth] = build_space(q=q, lam=lam, depth=depth)
        return units[q, depth].with_lambda(lam)

    return space


@pytest.fixture(scope="session")
def sp_can(cal, shared_space):
    pt = cal["rank_one"]["point"]
    return shared_space(pt["q"], pt["lam"], pt["depth"])


@pytest.fixture(scope="session")
def rank_one_can(sp_can):
    """The canonical space's rank-one report at the default n list."""
    return limits.rank_one_diagnostics(sp_can)


# each scan kind with its arguments, as the tests call it
BOUNDEDNESS_SCANS = {
    "creation_powers": {"n_max": 10},
    "wen_powers": {"n_max": 10},
    "weew_powers": {},
    "mixed_word": {"n_max": 4, "m_word": 8},
}


@pytest.fixture(scope="session")
def boundedness_scan(shared_space):
    """limits.boundedness_scan on the depth-12 space at (q, lam), for the
    two points and the scans of BOUNDEDNESS_SCANS, each computed once."""
    reports = {}
    for q, lam in ((0.3, 0.4), (-0.5, 0.3)):
        sp = shared_space(q, lam, 12)
        for kind, kw in BOUNDEDNESS_SCANS.items():
            reports[q, lam, kind] = limits.boundedness_scan(sp, kind, **kw)

    def scan(q, lam, kind, **kw):
        assert kw == BOUNDEDNESS_SCANS[kind]
        return reports[q, lam, kind]

    return scan
