"""Every exported name resolves and is exported once."""

import importlib
import pkgutil

import pytest

import triellipse

MODULES = sorted(
    f"triellipse.{info.name}" for info in pkgutil.iter_modules(triellipse.__path__)
)


@pytest.mark.parametrize("name", ["triellipse", *MODULES])
def test_all_names_resolve_once(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    missing = [n for n in exported if not hasattr(module, n)]
    repeated = sorted({n for n in exported if exported.count(n) > 1})
    assert missing == [] and repeated == [], f"{name}: missing {missing}, repeated {repeated}"

