"""In-memory span tracer for the traced benchmark run.

The tracer replaces the public functions of framelab's five modules at their
module attributes, from outside the package.  Calls inside a module go through
the module globals, so replacing ``framelab.geometry.geodesic_advance`` also
catches every call that ``flows`` makes to it.  No library file changes.

Each call made while the tracer is active appends one span (name, start, end,
parent span, op id) to flat arrays.  Self time is computed when the run ends:
a span's duration minus the durations of its direct children.  The benchmark
is single-threaded and has no queues, so no layer has a wait time to record.
"""

import inspect
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("geometry", "flows", "spectral", "limits", "algebra")
ALL_LAYERS = LAYERS + ("bench",)
OP_SPAN = "op"
ERROR_LAYERS = ("geometry", "algebra")

# Per-op function self-time shares reported as per-layer metrics.  A target a
# later change removes is reported as absent with a value of 0.
SHARE_TARGETS = (
    "geometry.geodesic_advance",
    "flows.frame_flow", "flows.birkhoff_average", "flows.random_frame_point",
    "flows.liouville_haar_average",
    "limits.tracial_state", "limits.ergodic_decomposition", "limits.evaluate",
    "limits.subspace_eigensections", "limits.quantum_variance",
    "limits.compare_states", "limits.egorov_residual", "limits.negative_order_decay",
    "spectral.basis_for", "spectral.quantize", "spectral.hodge_projections",
    "spectral.exterior_d", "spectral.hodge_star", "spectral.helicity_R",
    "spectral.build_dirac", "spectral.sign_and_halves",
    "spectral.sphere_multiplication", "spectral.spectral_norm",
    "algebra.haar_sample", "algebra.exterior_rep", "algebra.restrict_to_stabilizer",
    "algebra.conjugation_rep", "algebra.isotypic_projections",
    "algebra.haar_average_conjugation", "algebra.commutation_residual",
    "algebra.spin_lift",
)
CALL_TARGETS = (
    "geometry.geodesic_advance", "geometry.gram_orthonormalize", "geometry.metric_at",
    "flows.frame_flow", "flows.random_frame_point", "flows.liouville_haar_average",
    "limits.evaluate", "spectral.spectral_norm", "algebra.spin_lift",
)


def _sparse_nnz(out):
    items = out if isinstance(out, tuple) else (out,)
    return sum(int(x.matrix.nnz) for x in items
               if hasattr(getattr(x, "matrix", None), "nnz"))


# Result hooks: counters derived from what a wrapped function returns.
RESULT_COUNTS = {
    "limits.subspace_eigensections": ("sections", len),
    "algebra.haar_sample": ("haar_nodes", len),
}


def per_layer_names():
    """Every per-layer metric the traced run prints, in order, with its unit."""
    names = [(f"{t}.calls", "count") for t in CALL_TARGETS]
    names += [("geometry.errors", "count"), ("algebra.errors", "count"),
              ("flows.liouville_haar_average.nodes", "count"),
              ("limits.symbol_evals", "count"),
              ("limits.subspace_eigensections.sections", "count"),
              ("spectral.nnz", "count"), ("algebra.haar_sample.nodes", "count"),
              ("flows.frame_flow.reortho_ratio", "1"),
              ("flows.random_frame_point.accept_ratio", "1"),
              ("spectral.spectral_norm.iterative_frac", "1")]
    names += [(f"{t}.self_share", "1") for t in SHARE_TARGETS]
    names += [(f"layer.{layer}.self_share", "1") for layer in ALL_LAYERS]
    names += [("trace.overhead_frac", "1")]
    return names


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.active = False
        self.op_id = -1
        self._names = []
        self._ids = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self._stack = [-1]
        self.errors = dict.fromkeys(ERROR_LAYERS, 0)
        self.hook_counts = defaultdict(float)   # (counter, op id) -> value
        self.svds_in_norm = 0
        self.absent = []
        self._restore = []
        # op_span(fn, *args) runs one benchmark op as the root span of its tree.
        self.op_span = self.wrap(OP_SPAN, lambda fn, *args: fn(*args))

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self._names)
            self._names.append(name)
        return self._ids[name]

    def wrap(self, name, fn):
        """Return fn recorded as a span called `name` while the tracer is active."""
        nid = self._name_id(name)
        layer = name.split(".", 1)[0]
        counter = RESULT_COUNTS.get(name)
        is_spectral = layer == "spectral"
        tr = self

        def traced(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            idx = len(tr.start)
            tr.name.append(nid)
            tr.parent.append(tr._stack[-1])
            tr.op.append(tr.op_id)
            tr.end.append(0.0)
            tr._stack.append(idx)
            tr.start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                tr._count_error(layer, exc)
                raise
            finally:
                tr.end[idx] = perf_counter()
                tr._stack.pop()
            if counter is not None:
                tr.hook_counts[(counter[0], tr.op_id)] += counter[1](out)
            if is_spectral:
                tr.hook_counts[("nnz", tr.op_id)] += _sparse_nnz(out)
            return out

        return traced

    def _count_error(self, layer, exc):
        # An exception is counted once, in the layer of the innermost wrapped
        # function it passed through.
        if getattr(exc, "_perfbench_counted", False):
            return
        exc._perfbench_counted = True
        if layer in self.errors:
            self.errors[layer] += 1

    def install(self, modules, svds_owner):
        """Wrap every public function of each framelab module in place."""
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                setattr(mod, attr, self.wrap(f"{layer}.{attr}", obj))
                self._restore.append((mod, attr, obj))
        self.absent = [t for t in set(SHARE_TARGETS + CALL_TARGETS)
                       if not callable(getattr(modules[t.split(".")[0]],
                                               t.split(".")[1], None))]
        self.absent.sort()
        norm_id = self._name_id("spectral.spectral_norm")
        svds = svds_owner.svds
        tr = self

        def counted_svds(*args, **kwargs):
            top = tr._stack[-1]
            if tr.active and top >= 0 and tr.name[top] == norm_id:
                tr.svds_in_norm += 1
            return svds(*args, **kwargs)

        svds_owner.svds = counted_svds
        self._restore.append((svds_owner, "svds", svds))

    def uninstall(self):
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore = []

    # ------------------------------------------------------------------
    # reduction

    def arrays(self):
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        op = np.frombuffer(self.op, dtype=np.int32)
        return start, end, name, parent, op

    def metrics(self, count_ops, untraced_op_s, traced_op_s):
        """Per-layer metrics.

        count_ops: op ids whose counts are averaged (one full cycle of op
        kinds, so counts repeat exactly for a seed).  Shares are taken over
        every traced op.  untraced_op_s / traced_op_s: mean op times of the
        untraced and traced cycles of the same run.
        """
        start, end, name, parent, op = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_t = dur - child
        ids = self._ids
        nnames = len(self._names)
        in_ops = op >= 0
        in_count = np.isin(op, np.asarray(sorted(count_ops), dtype=np.int32))
        ncount = max(1, len(count_ops))
        calls_c = np.bincount(name[in_count], minlength=nnames)
        calls_all = np.bincount(name[in_ops], minlength=nnames)
        self_by = np.bincount(name[in_ops], weights=self_t[in_ops], minlength=nnames)
        op_id = ids.get(OP_SPAN)
        op_time = float(dur[name == op_id].sum()) if op_id is not None else 0.0
        op_time = op_time or 1.0

        def nid(n):
            return ids.get(n, -1)

        def count_per_op(n):
            i = nid(n)
            return float(calls_c[i]) / ncount if i >= 0 else 0.0

        def parent_named(child_mask, pname):
            pid = nid(pname)
            if pid < 0:
                return np.zeros(child_mask.shape, dtype=bool)
            ok = child_mask & has_parent
            out = np.zeros(child_mask.shape, dtype=bool)
            out[ok] = name[parent[ok]] == pid
            return out

        out = {f"{t}.calls": count_per_op(t) for t in CALL_TARGETS}
        out["geometry.errors"] = float(self.errors["geometry"])
        out["algebra.errors"] = float(self.errors["algebra"])
        obs_ids = [i for n, i in ids.items() if n.endswith(".observable")]
        sym_ids = [i for n, i in ids.items() if n.endswith(".symbol")]
        is_obs = np.isin(name, obs_ids) & in_count
        out["flows.liouville_haar_average.nodes"] = float(
            parent_named(is_obs, "flows.liouville_haar_average").sum()) / ncount
        out["limits.symbol_evals"] = float((np.isin(name, sym_ids) & in_count).sum()) / ncount
        for metric, counter in (("limits.subspace_eigensections.sections", "sections"),
                                ("spectral.nnz", "nnz"),
                                ("algebra.haar_sample.nodes", "haar_nodes")):
            out[metric] = sum(self.hook_counts.get((counter, o), 0.0)
                              for o in count_ops) / ncount
        ff = calls_all[nid("flows.frame_flow")] if nid("flows.frame_flow") >= 0 else 0
        gram = parent_named((name == nid("geometry.gram_orthonormalize")) & in_ops,
                            "flows.frame_flow").sum()
        out["flows.frame_flow.reortho_ratio"] = float(gram) / ff if ff else 0.0
        contains = parent_named((name == nid("geometry.octagon_contains")) & in_ops,
                                "flows.random_frame_point")
        accepted = np.unique(parent[contains]).size
        out["flows.random_frame_point.accept_ratio"] = (
            accepted / float(contains.sum()) if contains.any() else 0.0)
        norms = calls_all[nid("spectral.spectral_norm")] if nid("spectral.spectral_norm") >= 0 else 0
        out["spectral.spectral_norm.iterative_frac"] = (
            self.svds_in_norm / float(norms) if norms else 0.0)
        for t in SHARE_TARGETS:
            i = nid(t)
            out[f"{t}.self_share"] = float(self_by[i]) / op_time if i >= 0 else 0.0
        layer_of = np.array([n.split(".", 1)[0] for n in self._names])
        for layer in ALL_LAYERS:
            out[f"layer.{layer}.self_share"] = float(self_by[layer_of == layer].sum()) / op_time
        out["trace.overhead_frac"] = (traced_op_s / untraced_op_s - 1.0
                                      if untraced_op_s > 0 else 0.0)
        return out

    def dump(self, path, meta):
        """Write the spans and the run's metadata (compressed numpy archive)."""
        start, end, name, parent, op = self.arrays()
        np.savez_compressed(path, names=np.array(self._names), start=start, end=end,
                            name=name, parent=parent, op=op, meta=np.array(meta))
