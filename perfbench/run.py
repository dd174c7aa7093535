"""Run one benchmark workload against the framelab sources of this checkout.

    python3 perfbench/run.py --workload ensemble --seed 1 --seconds 14 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The lines
before it give a readable summary (including ``fail_frac``) and the run's
provenance.  See perfbench/README.md for the workloads and metrics.
"""

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import namedtuple
from pathlib import Path

T_START = time.perf_counter()

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import numpy as np  # noqa: E402  (after the BLAS thread count is fixed)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
# Cold set-ups in child processes beside the run's own.
SETUP_CHILDREN = 2
# The speed probe's time in the fast state of the 2-vCPU machine the bounds
# were set on (1.4-1.6 ms there).  A run's fast level is the lower of this and
# the 2nd percentile of the run's own probes, which a few outlying fast probes
# do not move; an interval counts as slow when a probe next to it is
# SLOW_FACTOR over that level.
NOMINAL_PROBE_S = 0.0015
SLOW_FACTOR = 1.15
# An op kind with fewer fast ops than this in a run reports all its ops, each
# brought to the fast level by (fast level / probe) ** SLOW_EXPONENT, the
# middle of the exponents measured for the op kinds of all five workloads
# (0.55-0.96) between runs spent wholly in the fast and in the slow state.
MIN_FAST_PER_KIND = 3
SLOW_EXPONENT = 0.75
CALIBRATION_PROBES = 20
# A run that has not got enough fast ops after `--seconds` goes on, finishing
# whole cycles, until it has them or until this many times `--seconds` have
# passed.
EXTEND_FACTOR = 1.25
# Fixed, so that a faster commit is compared at the same percentile.  A run is
# extended until it has MIN_FAST_OPS fast ops, the same number of each kind,
# so that ten lie beyond it.
TAIL_PERCENTILE = 75
MIN_FAST_OPS = 40
# A traced run alternates untraced and traced cycles and needs one of each.
MIN_TRACED_CYCLES = 2
END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_s_p50", "s"),
              ("op_s_tail", "s"), ("peak_rss_mb", "MB"))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measure for this long; the last cycle of op kinds is completed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import and set up, print the set-up time as JSON, and exit")
    return ap.parse_args(argv)


def speed_probe():
    """Median wall time of three runs of a fixed computation that does not
    touch framelab (about 1.5 ms each on the machine the bounds were set on,
    in its fast state).

    Interpreted arithmetic with tiny numpy calls, as in framelab's per-point
    loops: this is the kind of code that slows down most when the machine
    switches to a slow state, so it flags that state best.
    """
    a = np.array([[0.6, -0.8, 0.0], [0.8, 0.6, 0.0], [0.0, 0.0, 1.0]])
    times = []
    for _ in range(3):
        v = np.array([0.3, 0.4, 0.5])
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(560):
            v = a @ v
            z = complex(v[0], v[1]) * (1.0 + 1e-3j)
            acc += abs(z) + float(np.sqrt(v @ v)) * (i % 7)
        times.append(time.perf_counter() - t0)
        if not acc > 0:
            raise RuntimeError("speed probe computation went wrong")
    return sorted(times)[1]


def fix_allocator_thresholds():
    """Keep freed memory in the heap for reuse (glibc), with fixed thresholds.

    By default glibc raises its mmap threshold as large blocks are freed and
    trims the heap top, so whether an op's zero-filled dense vectors land on
    untouched or on reused (and therefore resident) memory depends on the
    run's history: peak RSS of the same op cycle moved by 15 % between runs.
    With blocks up to 32 MiB served from the heap and no trimming, a repeated
    op reuses memory, so the peak counts its dense buffers as resident, as the
    default allocator also does whenever they land on reused memory.  Returns
    whether both settings took effect.
    """
    try:
        libc = ctypes.CDLL(None)
        return bool(libc.mallopt(ctypes.c_int(-3), ctypes.c_int(32 << 20))      # M_MMAP_THRESHOLD
                    and libc.mallopt(ctypes.c_int(-1), ctypes.c_int(1 << 30)))  # M_TRIM_THRESHOLD
    except (OSError, AttributeError):
        return False


def fast_level(probes):
    return min(NOMINAL_PROBE_S, statistics.quantiles(probes, n=50)[0])


def to_fast_state(seconds, probe_before, probe_after, level):
    """A slow interval's time brought to the fast level (README "Machine speed")."""
    return seconds * (level / math.sqrt(probe_before * probe_after)) ** SLOW_EXPONENT


def cold_setup_s(args):
    """Set-up time of a fresh process: imports and set-up, nothing cached."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if out.returncode:
        raise RuntimeError(f"cold set-up failed ({out.returncode}): {out.stderr[-2000:]}")
    return json.loads(out.stdout.splitlines()[-1])["setup_s"]


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "framelab").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    """The checked-out commit when the checkout is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else None


# One timed op: its wall time, the problems its check found, and the speed
# probes taken right before and right after it.
Op = namedtuple("Op", "id kind cycle wall problems probe_before probe_after")


def run_op(kind, ctx, inputs, tracer):
    """Time one op; returns (wall seconds, output or the exception raised)."""
    t0 = time.perf_counter()
    try:
        out = tracer.op_span(kind.run, ctx, inputs) if tracer else kind.run(ctx, inputs)
    except Exception as exc:
        out = exc
    elapsed = time.perf_counter() - t0
    if tracer:
        tracer.active = False
    return elapsed, out


def check_op(kind, ctx, inputs, out):
    """Problems found in an op's output; an op that raised, or whose check
    raises, has failed."""
    try:
        if isinstance(out, Exception):
            raise out
        return kind.check(ctx, inputs, out)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        return [f"raised {type(exc).__name__}: {exc}"]


def is_fast(op, level):
    return max(op.probe_before, op.probe_after) <= SLOW_FACTOR * level


def kind_times(ops, level):
    """Reported (seconds, passed) of one op kind's ops: the raw wall times of
    its fast ops when it has MIN_FAST_PER_KIND of them, else every op's time
    brought to the fast level."""
    fast = [(op.wall, not op.problems) for op in ops if is_fast(op, level)]
    if len(fast) >= MIN_FAST_PER_KIND:
        return fast
    return [(to_fast_state(op.wall, op.probe_before, op.probe_after, level), not op.problems)
            for op in ops]


def weighted_percentile(values, weights, q):
    """Smallest value at or below which `q` percent of the weight lies."""
    order = np.argsort(values)
    cum = np.cumsum(np.asarray(weights)[order])
    return float(np.asarray(values)[order][np.searchsorted(cum, q / 100.0 * cum[-1])])


def mix_metrics(per_kind):
    """Op-time metrics of the workload's op mix from per-kind lists of
    (seconds, passed): every kind has the same total weight, however many of
    its ops were taken."""
    times = np.array([t for kops in per_kind for t, _ in kops])
    weights = np.array([1.0 / len(kops) for kops in per_kind for _ in kops])
    passed = np.array([ok for kops in per_kind for _, ok in kops])
    return {"ops_per_s": float(weights @ passed / (weights @ times)),
            "op_s_p50": weighted_percentile(times, weights, 50),
            "op_s_tail": weighted_percentile(times, weights, TAIL_PERCENTILE)}


def run_workload(args):
    if not (SRC / "framelab" / "__init__.py").is_file():
        print(f"perfbench: no framelab sources under {SRC}", file=sys.stderr)
        return 2
    allocator_fixed = fix_allocator_thresholds()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import scipy
    import scipy.sparse.linalg

    import framelab
    from framelab import algebra, flows, geometry, limits, spectral
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    import_s = time.perf_counter() - T_START
    ctx = wl.setup(lambda name, fn: fn)
    own_setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup_s}))
        return 0

    probes = [speed_probe() for _ in range(CALIBRATION_PROBES)]
    # (set-up seconds, probe before, probe after); the run's own set-up has
    # no probe before it
    setups = [(own_setup_s, probes[0], probes[0])]
    for _ in range(0 if args.trace else SETUP_CHILDREN):
        before = speed_probe()
        sample = cold_setup_s(args)
        after = speed_probe()
        probes += [before, after]
        setups.append((sample, before, after))

    modules = {"geometry": geometry, "flows": flows, "spectral": spectral,
               "limits": limits, "algebra": algebra}
    tracer = spans.Tracer() if args.trace else None
    # traced cycles use their own context, whose benchmark callables record
    # spans; untraced cycles run with no wrapper at all
    ctx_traced = wl.setup(tracer.wrap) if tracer else None

    kinds = wl.ops
    records = []
    min_fast = -(-MIN_FAST_OPS // len(kinds))
    op_id = 0
    cycle = 0
    t_loop = time.perf_counter()
    while True:
        traced_cycle = bool(tracer) and cycle % 2 == 1
        if traced_cycle:
            tracer.install(modules, scipy.sparse.linalg)
        for k, kind in enumerate(kinds):
            inputs = kind.inputs(np.random.default_rng([args.seed, op_id]))
            before = speed_probe()
            if traced_cycle:
                tracer.op_id = op_id
                tracer.active = True
            elapsed, out = run_op(kind, ctx_traced if traced_cycle else ctx, inputs,
                                  tracer if traced_cycle else None)
            after = speed_probe()
            problems = check_op(kind, ctx_traced if traced_cycle else ctx, inputs, out)
            for p in problems:
                print(f"perfbench: op {op_id} ({kind.name}) failed: {p}", file=sys.stderr)
            records.append(Op(op_id, k, cycle, elapsed, problems, before, after))
            probes += [before, after]
            op_id += 1
        if traced_cycle:
            tracer.uninstall()
        cycle += 1
        loop_s = time.perf_counter() - t_loop
        if tracer:
            if loop_s >= args.seconds and cycle >= MIN_TRACED_CYCLES:
                break
            continue
        if loop_s >= EXTEND_FACTOR * args.seconds:
            break
        level = fast_level(probes)
        if loop_s >= args.seconds and min(
                sum(1 for r in records if r.kind == k and is_fast(r, level))
                for k in range(len(kinds))) >= min_fast:
            break

    probe = None
    if wl.name == "orbit":
        if tracer:
            tracer.install(modules, scipy.sparse.linalg)
            tracer.op_id, tracer.active = -2, True
        probe = workloads.meridian_probe()
        if tracer:
            tracer.active = False
            tracer.uninstall()

    level = fast_level(probes)
    fast_setups = [sample for sample, y0, y1 in setups if max(y0, y1) <= SLOW_FACTOR * level]
    setup_s = statistics.median(fast_setups or [to_fast_state(sample, y0, y1, level)
                                                for sample, y0, y1 in setups])

    failed = sum(1 for r in records if r.problems)
    attempted = len(records)
    probe_ok = probe in (None, "ok", "known-defect")
    correct = failed == 0 and probe_ok

    # end-to-end metrics come from untraced cycles
    plain = [r for r in records if not (tracer and r.cycle % 2 == 1)]
    per_kind = [kind_times([r for r in plain if r.kind == k], level)
                for k in range(len(kinds))]
    end_to_end = dict(
        setup_s=setup_s, **mix_metrics(per_kind),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    provenance = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "sizes": wl.sizes, "op_kinds": [k.name for k in kinds],
        "cycles": cycle, "loop_s": loop_s, "import_s": import_s,
        "setup_samples_s": [sample for sample, _, _ in setups],
        "setup_fast_samples": len(fast_setups),
        "fast_ops_by_kind": [sum(1 for r in plain if r.kind == k and is_fast(r, level))
                             for k in range(len(kinds))],
        "reported_ops_by_kind": [len(kops) for kops in per_kind],
        "probe_fast_level_s": level,
        "probe_s_quartiles": np.percentile(probes, [25, 50, 75]).tolist(),
        "tail_percentile": TAIL_PERCENTILE,
        "op_s_p50_by_kind": {kind.name: float(np.median([t for t, _ in kops]))
                             for kind, kops in zip(kinds, per_kind)},
        "fail_frac": failed / attempted,
        "meridian_probe": probe,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "framelab": framelab.__version__,
        "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
        "allocator_thresholds_fixed": allocator_fixed,
        "commit": git_commit(), "source_sha256_16": source_digest(),
    }

    if tracer:
        def kind_medians(cycle_parity):
            return sum(float(np.median([t for t, _ in kind_times(
                [r for r in records if r.kind == k and r.cycle % 2 == cycle_parity], level)]))
                for k in range(len(kinds)))

        first_traced = {r.id for r in records if r.cycle == 1}
        metrics = tracer.metrics(first_traced, kind_medians(0), kind_medians(1))
        units = dict(spans.per_layer_names())
        provenance["absent_wrap_targets"] = tracer.absent
        provenance["spans"] = len(tracer.start)
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{wl.name}.npz"
        tracer.dump(trace_path, json.dumps(provenance))
        provenance["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        metrics = end_to_end
        units = dict(END_TO_END)

    print(json.dumps({"provenance": provenance}))
    print(f"# {wl.name} seed={args.seed} trace={args.trace}: {attempted} ops, "
          f"{failed} failed, correct={correct}")
    summary = dict(end_to_end, fail_frac=failed / attempted)
    summary_units = dict(END_TO_END, fail_frac="1")
    for name, value in summary.items():
        print(f"#   {name:<12} {value:.6g} {summary_units[name]}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": float(metrics[n]), "unit": units[n]} for n in units},
    }))
    return 0


def main(argv=None):
    return run_workload(parse_args(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":
    sys.exit(main())
