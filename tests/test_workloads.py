"""One cycle of every benchmark workload, checked by the benchmark's own checks.

`perfbench/workloads.py` is imported read-only from its file; each op kind
runs once on the inputs its first cycle draws, so a wrong output fails here
and not only in a benchmark run.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_workloads", Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)

SEED = 5


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_one_cycle_passes_its_checks(name):
    wl = workloads.WORKLOADS[name]
    ctx = wl.setup(lambda label, fn: fn)
    for op_id, kind in enumerate(wl.ops):
        inputs = kind.inputs(np.random.default_rng([SEED, op_id]))
        out = kind.run(ctx, inputs)
        assert kind.check(ctx, inputs, out) == [], (kind.name, inputs)


def test_meridian_probe_reads_ok_or_known_defect():
    assert workloads.meridian_probe() in ("ok", "known-defect")
