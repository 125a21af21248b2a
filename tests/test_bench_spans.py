"""The benchmark's span tracer names package functions by module and attribute.

``bench/spans.py`` looks each one up when it installs its wrappers, so a
function renamed or moved in ``src/`` would make a traced benchmark run fail
with a ``KeyError``; this test reports it instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_traced():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("layer, module, attr", load_traced())
def test_traced_function_resolves(layer, module, attr):
    owner = importlib.import_module(f"shallowbs.{module}")
    *classes, name = attr.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    assert callable(vars(owner).get(name)), f"{layer}: shallowbs.{module}.{attr} is missing"
