"""Every name a package exports through ``__all__`` resolves.

A deletion that leaves its name in some ``__all__`` breaks
``from repro.<package> import *`` and misleads readers of the package's
public surface; this walks ``repro`` and every subpackage and looks each
exported name up.
"""

import importlib
import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg
)

_MISSING = object()


@pytest.mark.parametrize("name", PACKAGES)
def test_every_export_resolves(name):
    package = importlib.import_module(name)
    exports = getattr(package, "__all__", ())
    dangling = [
        export for export in exports
        if getattr(package, export, _MISSING) is _MISSING
    ]
    assert dangling == [], f"{name}.__all__ names what it lacks"


def test_walk_reaches_every_exporting_package():
    exporting = [
        name for name in PACKAGES
        if hasattr(importlib.import_module(name), "__all__")
    ]
    # ``repro`` and its 14 subpackages that declare ``__all__``.
    assert len(exporting) >= 15
    assert "repro.scheduler" in exporting
