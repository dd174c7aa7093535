"""One cycle of every benchmark workload, checked by the benchmark's own checks.

`perfbench/workloads.py` and `perfbench/spans.py` are imported read-only from
their files.  Each op kind runs once on the inputs its first cycle draws, so a
wrong output fails here and not only in a benchmark run, and every traced
target that the library lacks is named, so no deletion zeroes a metric silently.
The `orbit` and `ensemble` observables must fill their tables from node rows,
building no frame point.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from framelab import flows as fl
from framelab import geometry as geo


def _load(name):
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
spans = _load("spans")

SEED = 5


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_one_cycle_passes_its_checks(name):
    wl = workloads.WORKLOADS[name]
    ctx = wl.setup(lambda label, fn: fn)
    for op_id, kind in enumerate(wl.ops):
        inputs = kind.inputs(np.random.default_rng([SEED, op_id]))
        out = kind.run(ctx, inputs)
        assert kind.check(ctx, inputs, out) == [], (kind.name, inputs)


@pytest.mark.parametrize("name", ["orbit", "ensemble"])
def test_flow_observables_fill_tables_without_frame_points(name, monkeypatch):
    # the library's chart observables read node rows; a refactor that sends
    # them back through one FramePoint per row would fail here
    ctx = workloads.WORKLOADS[name].setup(lambda label, fn: fn)
    built = []

    class Counting(geo.FramePoint):
        def __init__(self, *args, **kwargs):
            built.append(None)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(geo, "FramePoint", Counting)
    for kind, obs in ctx.obs.items():
        model = ctx.models.get(kind) or ctx.models["torus2"]  # the witness runs on T^2
        points, frames, _ = fl.liouville_nodes(model, 4)
        table = obs.table(points, frames)
        assert table.shape == (len(points), 1, 1)
        assert built == [], kind


def test_meridian_probe_reads_ok():
    assert workloads.meridian_probe() == "ok"


def test_benchmark_targets_missing_from_the_library_are_named():
    # the tracer reports a target the library lacks as absent, with value 0
    missing = set()
    for target in spans.SHARE_TARGETS + spans.CALL_TARGETS:
        module, name = target.split(".")
        if not hasattr(importlib.import_module(f"framelab.{module}"), name):
            missing.add(target)
    assert missing == {"algebra.haar_average_conjugation", "algebra.haar_sample"}
