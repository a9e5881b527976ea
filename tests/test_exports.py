"""Every exported name resolves, so a deletion cannot leave a dangling
entry in a module's __all__ or in the package namespace."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import qfock

MODULES = ("qcomb", "fock", "ops", "limits", "checks", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"qfock.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing


def test_package_imports_resolve():
    tree = ast.parse(Path(qfock.__file__).read_text())
    names = [alias.asname or alias.name
             for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for alias in node.names]
    assert names
    missing = [n for n in names if not hasattr(qfock, n)]
    assert not missing


def _import_time_modules(node):
    """The absolute imports under `node` that run when its module is
    imported: everything but function bodies."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(child, ast.Import):
            yield from (alias.name for alias in child.names)
        elif isinstance(child, ast.ImportFrom) and child.level == 0:
            yield child.module
        yield from _import_time_modules(child)


def test_no_module_imports_scipy_at_import_time():
    """No module imports scipy when it is imported: the solves run on
    numpy's LAPACK, and only where numpy exports no ILP64 routines do the
    functions that solve import scipy, so `import qfock.cli` and the
    benchmark's setup_s never pay for it."""
    found = {path.name: {m.split(".")[0] for m in
                         _import_time_modules(ast.parse(path.read_text()))}
             for path in Path(qfock.__file__).parent.glob("*.py")}
    assert "numpy" in found["fock.py"]
    assert [name for name, tops in found.items() if "scipy" in tops] == []


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _traced_layers() -> dict:
    """spans.LAYERS, read off the source without running it."""
    tree = ast.parse((PERFBENCH / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYERS"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no LAYERS")


def test_traced_names_resolve():
    """The benchmark's tracer wraps each name of spans.LAYERS in its
    qfock module, and a method only where its class defines it."""
    missing = []
    for layer, fns in _traced_layers().items():
        module = importlib.import_module(f"qfock.{layer}")
        for fn in fns:
            cls_name, _, meth = fn.rpartition(".")
            owner = getattr(module, cls_name, None) if cls_name else module
            if owner is None or not callable(vars(owner).get(meth)):
                missing.append(f"{layer}.{fn}")
    assert not missing
    assert hasattr(importlib.import_module("qfock.fock"),
                   "GramFactorizationError")


def test_benchmark_session_calls_resolve():
    """Every qfock name perfbench/child.py imports, and every attribute
    it reads off a space or off the ops and limits modules, exists."""
    from qfock.fock import FockSpace

    tree = ast.parse((PERFBENCH / "child.py").read_text())
    owners = {"space": FockSpace,
              "ops": importlib.import_module("qfock.ops"),
              "limits": importlib.import_module("qfock.limits")}
    used = set()
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module \
                and node.module.startswith("qfock."):
            module = importlib.import_module(node.module)
            for alias in node.names:
                used.add(alias.name)
                if not hasattr(module, alias.name):
                    missing.append(f"{node.module}.{alias.name}")
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id in owners:
            used.add(node.attr)
            if not hasattr(owners[node.value.id], node.attr):
                missing.append(f"{node.value.id}.{node.attr}")
    assert not missing
    assert {"gram_cond", "blocks_at_level", "block_words", "gram_chol",
            "build_space", "op_norm", "moment_check"} <= used


TOOLS = Path(__file__).resolve().parents[1] / "tools"


def test_calibration_tool_calls_resolve():
    """Every qfock name tools/calibrate.py imports, and every attribute it
    reads off the limits module, exists, and so does the certificate's
    to_json_dict it writes with; the tool is run by hand, so a rename
    would otherwise break it unseen."""
    limits = importlib.import_module("qfock.limits")
    tree = ast.parse((TOOLS / "calibrate.py").read_text())
    used = set()
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module \
                and node.module.startswith("qfock"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                used.add(alias.name)
                if not hasattr(module, alias.name):
                    missing.append(f"{node.module}.{alias.name}")
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "limits":
            used.add(node.attr)
            if not hasattr(limits, node.attr):
                missing.append(f"limits.{node.attr}")
    assert not missing
    assert {"build_space", "limits", "rank_one_diagnostics",
            "invertibility_certificate"} <= used
    assert callable(getattr(limits.InvertibilityCertificate,
                            "to_json_dict", None))


def test_benchmark_self_test_passes():
    """The benchmark's own self-test, in a child process from the root of
    this tree: a tiny traced sweep and deep session through the library,
    so a change that breaks what perfbench/child.py calls fails here.
    It writes only under the tree's .perfbench-work/."""
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--self-test"],
        cwd=PERFBENCH.parent, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
