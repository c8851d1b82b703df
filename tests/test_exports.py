"""Every ``repro`` subpackage imports and every name in its ``__all__``
resolves, so a deleted definition cannot leave a stale export behind; and
no module imports a name it never uses, so a deleted use cannot leave a
stale import behind."""
import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import repro

PACKAGES = [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.") if m.ispkg]


def test_packages_found():
    assert {"repro.core", "repro.influence", "repro.graphs"} <= set(PACKAGES)


@pytest.mark.parametrize("name", PACKAGES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [a for a in module.__all__ if not hasattr(module, a)]
    assert not missing


ROOT = Path(__file__).resolve().parents[1]
# The package's ``__init__.py`` files import names only to re-export them.
SCANNED = [
    p
    for d in ("src/repro", "jobs", "benchmarks", "tests")
    for p in sorted((ROOT / d).rglob("*.py"))
    if p.name != "__init__.py"
]


def _unused_imports(path: Path) -> list[str]:
    """Names bound by the module's top-level imports that its code never
    reads (``from __future__`` aside)."""
    tree = ast.parse(path.read_text(), str(path))
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


def test_no_unused_imports():
    assert len(SCANNED) > 50
    unused = {
        str(p.relative_to(ROOT)): names for p in SCANNED if (names := _unused_imports(p))
    }
    assert not unused


def _imported_modules(path: Path) -> set[str]:
    """Top-level package of every module ``path`` imports, at any depth."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names.add(node.module.split(".")[0])
    return names


def test_no_package_module_imports_duckdb():
    """DuckDB is the tests' oracle (``tests/oracle.py``), not a dependency
    of the program."""
    package = sorted((ROOT / "src/repro").rglob("*.py"))
    assert len(package) > 20
    assert not [
        str(p.relative_to(ROOT)) for p in package if "duckdb" in _imported_modules(p)
    ]
