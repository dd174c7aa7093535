"""Self-tests of the benchmark itself, kept out of the timed runs.

    python3 perfbench/selftest.py            # or: python -m pytest perfbench/selftest.py

The file name does not match ``test_*.py``, so the repository's own pytest
run does not collect it.  The smoke test runs one cycle of every workload,
untraced and traced (about 40 s on two cores).
"""

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402  (fixes the BLAS thread count before numpy loads)
import numpy as np  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _spec():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_names_match_benchmark_json():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == spans.per_layer_names()


def test_inputs_repeat_per_seed_and_never_within_a_run():
    for wl in workloads.WORKLOADS.values():
        seen = set()
        for op_id in range(300):
            kind = wl.ops[op_id % len(wl.ops)]
            first = kind.inputs(np.random.default_rng([7, op_id]))
            again = kind.inputs(np.random.default_rng([7, op_id]))
            assert first == again, (wl.name, op_id)
            key = (kind.name, json.dumps(first, sort_keys=True))
            assert key not in seen, (wl.name, op_id, first)
            seen.add(key)


def test_op_mix_weighs_every_kind_equally():
    # kind 0 has three ops of 1 s, kind 1 one of 3 s
    m = bench.mix_metrics([[(1.0, True)] * 3, [(3.0, True)]])
    assert abs(m["ops_per_s"] - 0.5) < 1e-12
    assert m["op_s_p50"] == 1.0 and m["op_s_tail"] == 3.0


def test_fast_ops_are_reported_raw_and_slow_kinds_brought_to_the_fast_level():
    level = 1.0
    fast = [bench.Op(i, 0, 0, 1.0, [], 1.0, 1.1) for i in range(bench.MIN_FAST_PER_KIND)]
    slow = bench.Op(9, 0, 0, 2.0, [], 1.0, 2.0)
    assert bench.kind_times(fast + [slow], level) == [(1.0, True)] * len(fast)
    # too few fast ops: every op is brought to the fast level
    [(seconds, passed)] = bench.kind_times([slow], level)
    assert passed and abs(seconds - 2.0 * 2.0 ** -(0.5 * bench.SLOW_EXPONENT)) < 1e-12


def _smoke(workload, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = bench.main(["--workload", workload, "--seed", "5",
                           "--seconds", "0", "--trace", str(trace)])
    assert code == 0
    return json.loads(out.getvalue().splitlines()[-1])


def test_smoke_run_prints_every_metric_with_its_unit():
    spec = _spec()
    for name in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = _smoke(name, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, (name, trace)
            assert result["attempted"] >= len(workloads.WORKLOADS[name].ops)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            assert got == want, (name, trace)
            assert all(np.isfinite(m["value"]) for m in result["metrics"].values())


if __name__ == "__main__":
    for test_name, fn in list(globals().items()):
        if test_name.startswith("test_"):
            fn()
            print("ok", test_name)
