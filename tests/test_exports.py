import importlib

import pytest

MODULES = ("arch", "cli", "fock", "gaussian", "linalg", "matfn", "stats")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"shallowbs.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"shallowbs.{name}.__all__ names missing attributes: {missing}"
