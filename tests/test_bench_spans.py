"""The benchmark's span tracer names package functions by module and attribute.

``bench/spans.py`` looks each one up when it installs its wrappers, so a
function renamed or moved in ``src/`` would make a traced benchmark run fail
with a ``KeyError``; this test reports it instead.  A driver that reached a
kernel by a name the tracer does not wrap would hide that kernel's time, so a
traced run of the drivers must record a span for each kernel.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from shallowbs.cli import main

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("layer, module, attr", load_spans().TRACED)
def test_traced_function_resolves(layer, module, attr):
    owner = importlib.import_module(f"shallowbs.{module}")
    *classes, name = attr.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    assert callable(vars(owner).get(name)), f"{layer}: shallowbs.{module}.{attr} is missing"


def test_traced_drivers_record_every_kernel(tmp_path):
    tracer = load_spans().Tracer()
    tasks = [
        ["density-fbs", "--ensemble", "haar", "--modes", "4", "--photons", "2", "--buckets", "2"],
        ["density-gbs", "--ensemble", "haar", "--modes", "4", "--photons", "2", "--buckets", "2"],
        ["page-curve", "--ensemble", "haar", "--modes", "4"],
        ["hiding", "--kind", "fbs", "--modes", "4", "--photons", "2"],
    ]
    with tracer.installed(0):
        for i, argv in enumerate(tasks):
            out = tmp_path / f"{i}.csv"
            assert main(argv + ["--samples", "6", "--seed", "1", "--out", str(out)]) == 0, argv
    names = set(tracer.names)
    assert any(name.startswith("matfn.permanent.") for name in names), names
    assert {"matfn.hafnian", "gaussian.symplectic"} <= names, names
