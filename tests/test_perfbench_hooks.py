"""The names and calls the benchmark and the jobs make into ``src/`` still
fit it.

``perfbench/layers.py`` wraps each ``(owner, attr)`` of ``PATCHES`` in the
module or class that calls it, and ``perfbench/`` imports names from
``repro``. A refactor that renames or unbinds one of them crashes
``perfbench/run.py --trace 1``; one that drops or renames a parameter that
``perfbench/`` or ``jobs/`` passes crashes them as well. These tests read
those files and edit none of them.
"""
import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
JOBS = ROOT / "jobs"


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


def _repro_calls():
    """(``dir/file name k``, target, positional count, keyword names) of the
    k-th call, in line order, that a file of ``perfbench/`` or ``jobs/``
    makes to ``name``: a function bound by ``from repro… import``, directly
    or as an attribute of an imported ``repro`` module. A call that unpacks
    ``*args`` or ``**kwargs`` is left out: its arguments cannot be
    counted."""
    for path in sorted([*PERFBENCH.glob("*.py"), *JOBS.glob("*.py")]):
        tree = ast.parse(path.read_text())
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    bound[alias.asname or alias.name] = getattr(module, alias.name)
        calls = sorted(
            (n for n in ast.walk(tree) if isinstance(n, ast.Call)),
            key=lambda n: (n.lineno, n.col_offset),
        )
        seen: dict[str, int] = {}
        for node in calls:
            func = node.func
            if isinstance(func, ast.Name) and func.id in bound:
                name, target = func.id, bound[func.id]
            elif (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and inspect.ismodule(bound.get(func.value.id))
            ):
                name = f"{func.value.id}.{func.attr}"
                target = getattr(bound[func.value.id], func.attr)
            else:
                continue
            if any(isinstance(a, ast.Starred) for a in node.args) or any(
                k.arg is None for k in node.keywords
            ):
                continue
            seen[name] = seen.get(name, 0) + 1
            where = f"{path.parent.name}/{path.name} {name} {seen[name]}"
            yield where, target, len(node.args), [k.arg for k in node.keywords]


REPRO_CALLS = {where: rest for where, *rest in _repro_calls()}


def test_the_experiment_entry_calls_are_checked():
    """The guard below sees the calls that matter: the instance and harness
    calls, both RR generators and every table builder a job runs."""
    names = {where.split()[1] for where in REPRO_CALLS}
    assert {
        "instances.build_instance", "instances.generate_rr_collection",
        "harness.run_rma", "harness.run_ti",
        "generate_rr_local", "generate_rr_collection",
        "table1_datasets", "table2_budgets", "table3_runtime", "table5_tau",
        "table6_subsim",
    } <= names


@pytest.mark.parametrize("where", list(REPRO_CALLS))
def test_every_repro_call_binds(where):
    """Each call's positional count and keyword names still bind to the
    current signature of the function it calls."""
    target, n_args, keywords = REPRO_CALLS[where]
    inspect.signature(target).bind(*[None] * n_args, **dict.fromkeys(keywords))
