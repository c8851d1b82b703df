"""Every ``repro`` subpackage imports and every name in its ``__all__``
resolves, so a deleted definition cannot leave a stale export behind."""
import importlib
import pkgutil

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
