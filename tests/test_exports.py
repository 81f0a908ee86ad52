"""Every exported name resolves, so a deleted symbol cannot linger in an
`__all__` list."""

import importlib
import pkgutil

import pytest

import cxdesign

MODULES = ("bridge", "cli", "criteria", "metrics", "optimize", "orthopoly", "sphere")


@pytest.mark.parametrize(
    "name", ("cxdesign",) + tuple(f"cxdesign.{mod}" for mod in MODULES)
)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []


def test_every_module_is_checked():
    found = {info.name for info in pkgutil.iter_modules(cxdesign.__path__)}
    assert found == set(MODULES)
