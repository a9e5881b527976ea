"""Session fixtures for the objects that several test modules read: one
default verification run, the calibration file, the canonical space and
its rank-one report, and the boundedness scans, read from the
verification run; and cold_gram_caches, for tests that must see no Gram
data that an earlier space built."""

import functools
import json
import time
import weakref
from importlib import resources

import pytest

from qfock import cli, fock, limits
from qfock.fock import build_space


def _scan_key(q, lam, depth, aux_letters, kind):
    return q, lam, depth, aux_letters, kind


@pytest.fixture(scope="session")
def default_verify(tmp_path_factory):
    """One full default-configuration verification run, timed:
    (exit code, report, seconds, scans), where scans holds the report of
    every limits.boundedness_scan call the run made, by _scan_key."""
    d = tmp_path_factory.mktemp("verify")
    scans = {}
    scan = limits.boundedness_scan

    @functools.wraps(scan)
    def recording_scan(space, kind):
        rep = scan(space, kind)
        scans[_scan_key(space.q, space.lam, space.depth,
                        space.params.aux_letters, kind)] = rep
        return rep

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(limits, "boundedness_scan", recording_scan)
        t0 = time.perf_counter()
        rc = cli.main(["verify", "--out", str(d)])
        elapsed = time.perf_counter() - t0
    report = json.loads((d / "report.json").read_text())
    return rc, report, elapsed, scans


@pytest.fixture(scope="session")
def cal():
    text = resources.files("qfock").joinpath("calibration.json").read_text()
    return json.loads(text)


@pytest.fixture(scope="session")
def shared_space():
    """shared_space(q, lam, depth): the session's space at (q, lam,
    depth).  Keeping it alive keeps the Gram cache of its q, which every
    space at that q reads, so a block is factored once a session."""
    @functools.cache
    def space(q, lam, depth):
        return build_space(q=q, lam=lam, depth=depth)

    return space


@pytest.fixture
def cold_gram_caches(monkeypatch):
    """Installs an empty Gram cache registry, so that the spaces built
    next share no Gram data with any space built before; returns the
    installer, to go cold again."""
    def cold():
        monkeypatch.setattr(fock, "_GRAM_CACHES",
                            weakref.WeakValueDictionary())

    cold()
    return cold


@pytest.fixture(scope="session")
def sp_can(cal, shared_space):
    pt = cal["rank_one"]["point"]
    return shared_space(pt["q"], pt["lam"], pt["depth"])


@pytest.fixture(scope="session")
def rank_one_can(sp_can):
    """The canonical space's rank-one report at the default n list."""
    return limits.rank_one_diagnostics(sp_can)


# the scan kinds the session verify runs
BOUNDEDNESS_SCANS = ("creation_powers", "wen_powers", "weew_powers",
                     "mixed_word")


@pytest.fixture(scope="session")
def boundedness_scan(default_verify):
    """limits.boundedness_scan on the depth-12 space at (q, lam), for the
    two points and the scans of BOUNDEDNESS_SCANS: the reports the
    session verify computed, which must be exactly these scans."""
    scans = default_verify[3]
    assert set(scans) == {_scan_key(q, lam, 12, 0, kind)
                          for q, lam in ((0.3, 0.4), (-0.5, 0.3))
                          for kind in BOUNDEDNESS_SCANS}

    def scan(q, lam, kind):
        return scans[_scan_key(q, lam, 12, 0, kind)]

    return scan
