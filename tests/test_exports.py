import importlib
import pkgutil

import pytest

import paramech

# Every library module declares __all__; the CLI and the error classes do not.
MODULES = sorted(
    f"paramech.{info.name}"
    for info in pkgutil.iter_modules(paramech.__path__)
    if info.name not in ("cli", "errors")
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
