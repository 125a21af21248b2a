import importlib

import pytest

import shallowbs

MODULES = ("arch", "cli", "fock", "gaussian", "linalg", "matfn", "stats")
# every library module; ``cli`` stays a submodule so that ``python -m shallowbs.cli``
# runs a module the package has not already imported
LIBRARY = ("arch", "fock", "gaussian", "linalg", "matfn", "stats")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"shallowbs.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"shallowbs.{name}.__all__ names missing attributes: {missing}"


@pytest.mark.parametrize("name", LIBRARY)
def test_root_reexports_each_library_name(name):
    module = importlib.import_module(f"shallowbs.{name}")
    root = vars(shallowbs)
    missing = [attr for attr in module.__all__ if root.get(attr) is not getattr(module, attr)]
    assert not missing, f"shallowbs does not re-export shallowbs.{name}: {missing}"


def test_root_all_is_version_then_each_library_all():
    expect = ["__version__"]
    for name in LIBRARY:
        expect += importlib.import_module(f"shallowbs.{name}").__all__
    assert shallowbs.__all__ == expect
