"""Every package's ``__all__`` names real objects, once each.

``make api-check`` snapshots the signatures of ``repro`` and ``repro.api``
only; this suite checks the export lists of the top-level package and of
every subpackage, so a deleted object cannot leave its name behind.
"""

import importlib
import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__) if info.ispkg
)


@pytest.mark.parametrize("name", PACKAGES)
def test_every_export_resolves(name):
    package = importlib.import_module(name)
    missing = [export for export in package.__all__ if not hasattr(package, export)]
    assert missing == []


@pytest.mark.parametrize("name", PACKAGES)
def test_every_export_is_listed_once(name):
    exports = importlib.import_module(name).__all__
    assert sorted({e for e in exports if exports.count(e) > 1}) == []


@pytest.mark.parametrize("name", PACKAGES)
def test_star_import_succeeds(name):
    namespace = {}
    exec(f"from {name} import *", namespace)
    exports = importlib.import_module(name).__all__
    assert set(exports) <= set(namespace)
