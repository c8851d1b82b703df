"""The names the benchmark's traced run wraps or imports exist in ``src/``.

``perfbench/layers.py`` wraps each ``(owner, attr)`` of ``PATCHES`` in the
module or class that calls it, and ``perfbench/`` imports names from
``repro``. A refactor that renames or unbinds one of them crashes
``perfbench/run.py --trace 1``; these tests read the benchmark's files and
edit none of them.
"""
import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _layers():
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers", PERFBENCH / "layers.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _repro_imports():
    """(file, module, name) of every ``from repro… import name`` in
    ``perfbench/``."""
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
                for alias in node.names:
                    yield path.name, node.module, alias.name


@pytest.mark.parametrize(
    "owner, attr", [(owner, attr) for owner, attr, *_ in _layers().PATCHES]
)
def test_every_patched_name_resolves(owner, attr):
    # Tracer.patch looks a module owner up in sys.modules: the package
    # attribute repro.core.search is the re-exported function, not the module.
    target = importlib.import_module(owner) if isinstance(owner, str) else owner
    assert callable(getattr(target, attr, None)), f"{owner}.{attr}"


def test_run_imports_the_generators():
    names = {(m, n) for f, m, n in _repro_imports() if f == "run.py"}
    assert {
        ("repro.influence.rrset", "generate_rr_local"),
        ("repro.influence.rrset", "generate_rr_collection"),
    } <= names


@pytest.mark.parametrize("file, module, name", list(_repro_imports()))
def test_every_repro_import_resolves(file, module, name):
    target = importlib.import_module(module)
    assert hasattr(target, name) or importlib.util.find_spec(f"{module}.{name}"), (
        f"{file}: from {module} import {name}"
    )
