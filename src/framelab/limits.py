"""State functionals on truncated observable algebras and their high-energy
diagnostics: eigenstate / Cesaro / heat / tracial states, convergence ladders,
negative-order decay, the time-evolution (Egorov) residual, quantum variance,
and ergodic decomposition of the tracial state.

Every state evaluation returns a value together with an error estimate
(truncation or quadrature), never a bare number.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from . import geometry as geo
from . import spectral as sp

_SLACK = 1.1
_GAP_FLOOR = 1e-12


@dataclass(frozen=True)
class StateValue:
    """A state evaluation: value plus truncation/quadrature error estimate."""

    value: complex
    error: float


@dataclass(frozen=True, eq=False)
class StateFunctional:
    """Positive normalized functional on truncated observables.

    Kinds: "eigen" (diagonal matrix element j), "cesaro" (average of the first
    N eigenstates, N on a degeneracy-block boundary), "heat" (Gibbs trace
    ratio at time t), "tracial" (normalized Liouville average of the symbol,
    optionally weighted by an invariant section).
    """

    kind: str
    context: object
    j: int = None
    n: int = None
    t: float = None
    fiber_dim: int = 1
    resolution: int = 8
    weight: object = None
    weight_trace: float = field(default=None, repr=False)


def eigen_state(sm, j):
    """State <phi_j, . phi_j> in the canonical eigen-ordering."""
    if not 0 <= j < sm.dim:
        raise ValueError(f"eigenstate index {j} outside the truncated basis")
    return StateFunctional(kind="eigen", context=sm, j=j)


def cesaro_state(sm, n):
    """Average of the first N eigenstates, N rounded up to a degeneracy block."""
    if not 1 <= n <= sm.dim:
        raise ValueError(f"Cesaro length {n} outside the truncated basis")
    boundary = 0
    for block in sm.degeneracy_blocks():
        boundary = block[-1] + 1
        if boundary >= n:
            break
    return StateFunctional(kind="cesaro", context=sm, n=boundary)


def heat_state(sm, t):
    """Gibbs trace-ratio state at inverse temperature t; its error is the
    truncation bound of `spectral.heat_state_trace`."""
    if t <= 0:
        raise ValueError("heat time must be positive")
    return StateFunctional(kind="heat", context=sm, t=float(t))


def tracial_state_functional(model, fiber_dim=1, resolution=8, weight=None):
    """Normalized Liouville trace state on symbols, optionally weighted by an
    invariant section (used by the ergodic decomposition)."""
    wt = None
    if weight is not None:
        wt = _symbol_average(model, weight, fiber_dim, resolution)
    return StateFunctional(kind="tracial", context=model, fiber_dim=fiber_dim,
                           resolution=resolution, weight=weight, weight_trace=wt)


# ---------------------------------------------------------------------------
# Unit-bundle quadrature for symbols


def _symbol_average(model, symbol, fiber_dim, res, other=None):
    """Normalized quadrature of tr(symbol [other]) over the unit bundle, with
    xi the metric-unit direction of each node of `geometry.unit_bundle_nodes`."""
    points, dirs, weights = geo.unit_bundle_nodes(model, res)
    acc = 0.0 + 0.0j
    for point, xi, w in zip(points, dirs, weights):
        m = np.asarray(symbol(point, xi), dtype=complex).reshape(fiber_dim, fiber_dim)
        if other is not None:
            m = m @ np.asarray(other(point, xi), dtype=complex).reshape(fiber_dim,
                                                                        fiber_dim)
        acc += w * np.trace(m)
    return acc / weights.sum()


def tracial_state(model, symbol, fiber_dim=1, resolution=8):
    """(1 / fiber rank) * Liouville average of tr(symbol), with the error
    estimated against the rule at half the resolution (at least 4); at
    resolution 4 there is no coarser rule and the error is nan."""
    return evaluate(tracial_state_functional(model, fiber_dim, resolution), symbol)


# ---------------------------------------------------------------------------
# evaluation


def evaluate(state, a_op):
    """Evaluate a state on an observable; returns a StateValue."""
    if state.kind == "tracial":
        return _evaluate_tracial(state, a_op)
    sm = state.context
    if isinstance(a_op, sp.OperatorMatrix):
        if a_op.domain.labels != sm.labels:
            raise ValueError("observable basis does not match the state context")
        mat = a_op.matrix
    else:
        mat = a_op
    if state.kind == "eigen":
        return StateValue(value=complex(mat[state.j, state.j]), error=0.0)
    if state.kind == "cesaro":
        diag = mat.diagonal()[: state.n]
        return StateValue(value=complex(diag.sum() / state.n), error=0.0)
    if state.kind == "heat":
        # a constant potential or mass cancels in the Gibbs ratio
        value, error = sp._gibbs_ratio(sm.lam, mat.diagonal(), state.t)
        return StateValue(value=complex(value), error=error)
    raise ValueError(f"unknown state kind {state.kind!r}")


def _evaluate_tracial(state, a_op):
    sym = a_op.symbol if isinstance(a_op, sp.OperatorMatrix) else a_op
    if isinstance(sym, sp.SymbolField):
        sym = sym.evaluator
    if not callable(sym):
        raise ValueError("tracial evaluation needs an attached symbol")
    model, k, res = state.context, state.fiber_dim, state.resolution
    if state.weight is None:
        weight, other, norm = sym, None, k
    else:
        weight, other, norm = state.weight, sym, state.weight_trace
    fine = _symbol_average(model, weight, k, res, other)
    coarse_res = max(4, res // 2)
    if coarse_res == res:  # the coarsest rule has nothing to compare with
        return StateValue(value=fine / norm, error=float("nan"))
    coarse = _symbol_average(model, weight, k, coarse_res, other)
    return StateValue(value=fine / norm, error=float(abs(fine - coarse) / abs(norm)))


def state_positivity_residual(state, ops):
    """Most negative value of omega(A* A) across the given observables."""
    worst = 0.0
    for a in ops:
        m = a.matrix if isinstance(a, sp.OperatorMatrix) else a
        val = evaluate(state, m.conj().T @ m).value
        worst = min(worst, float(np.real(val)))
    return worst


# ---------------------------------------------------------------------------
# state comparison ladders


@dataclass(frozen=True)
class ConvergenceReport:
    """Cesaro and heat ladders against the tracial value, with gap trends."""

    tracial: StateValue
    cesaro_rows: tuple        # (N_effective, value, gap)
    heat_rows: tuple          # (t, value, gap, reliable)
    cesaro_monotone: bool
    heat_monotone: bool

    def to_dict(self):
        return {
            "tracial_value": _c2(self.tracial.value),
            "tracial_error": self.tracial.error,
            "cesaro_rows": [{"n": n, "value": _c2(v), "gap": g}
                            for n, v, g in self.cesaro_rows],
            "heat_rows": [{"t": t, "value": _c2(v), "gap": g, "reliable": r}
                          for t, v, g, r in self.heat_rows],
            "cesaro_monotone": self.cesaro_monotone,
            "heat_monotone": self.heat_monotone,
        }


def _c2(z):
    z = complex(z)
    return [z.real, z.imag]


def _monotone_with_slack(gaps):
    return all(b <= _SLACK * a + _GAP_FLOOR for a, b in zip(gaps, gaps[1:]))


def compare_states(sm, a_op, n_ladder=None, t_ladder=None, resolution=8):
    """Cesaro / heat / tracial comparison for an order-0 observable with symbol.

    Gaps are measured against the tracial value and must shrink monotonically
    (10 percent slack) along N-doubling and t-halving ladders.
    """
    if a_op.symbol is None:
        raise ValueError("compare_states needs an observable with a symbol")
    if a_op.order != 0:
        raise ValueError("compare_states applies to order-0 observables")
    trac = tracial_state(sm.model, a_op.symbol, a_op.symbol.fiber_dim, resolution)
    if n_ladder is None:
        n_ladder = []
        n = max(2, sm.dim // 16)
        while n < sm.dim:
            n_ladder.append(n)
            n *= 2
        n_ladder.append(sm.dim)
    cesaro_rows = []
    seen = set()
    for n in n_ladder:
        st = cesaro_state(sm, min(n, sm.dim))
        if st.n in seen:
            continue
        seen.add(st.n)
        val = evaluate(st, a_op).value
        cesaro_rows.append((st.n, val, abs(val - trac.value)))
    t0 = sp._heat_floor(sm.lam)
    if t_ladder is None:
        t_ladder = [8 * t0, 4 * t0, 2 * t0, t0]
    heat_rows = []
    for t in t_ladder:
        out = evaluate(heat_state(sm, t), a_op)
        heat_rows.append((t, out.value, abs(out.value - trac.value), t >= t0))
    return ConvergenceReport(
        tracial=trac,
        cesaro_rows=tuple(cesaro_rows),
        heat_rows=tuple(heat_rows),
        cesaro_monotone=_monotone_with_slack([g for _, _, g in cesaro_rows]),
        heat_monotone=_monotone_with_slack([g for _, _, g, _ in heat_rows]),
    )


# ---------------------------------------------------------------------------
# negative-order decay and the time-evolution residual


@dataclass(frozen=True)
class DecayReport:
    """Dyadic shell decay table: rows (shell floor, norm, max diagonal)."""

    rows: tuple
    ratios: tuple

    def ratios_in(self, lo=0.3, hi=0.7):
        return all(lo <= r <= hi for r in self.ratios)

    def to_dict(self):
        return {"rows": [{"shell": s, "norm": n, "max_diag": d}
                         for s, n, d in self.rows],
                "ratios": list(self.ratios)}


def negative_order_decay(sm, a_op, shells):
    """Shell maxima of a negative-order observable over dyadic frequency shells.

    The shell value is the operator norm of the compression to frequencies in
    [shell, 2 shell): the largest expectation against unit states supported in
    the shell.  Plane-wave diagonal maxima are reported alongside.
    """
    if a_op.domain.labels != sm.labels:
        raise ValueError("observable basis does not match")
    rows = []
    for lo in shells:
        idx = sp.shell_indices(sm, lo, 2 * lo)
        if idx.size == 0:
            raise ValueError(f"empty frequency shell [{lo}, {2 * lo})")
        sub = a_op.matrix[np.ix_(idx, idx)]
        diag_max = float(np.abs(a_op.matrix.diagonal()[idx]).max())
        rows.append((float(lo), sp.spectral_norm(sub), diag_max))
    ratios = tuple(b / a if a > 0 else np.inf for (_, a, _), (_, b, _)
                   in zip(rows, rows[1:]))
    return DecayReport(rows=tuple(rows), ratios=ratios)


def evolve_observable(a_op, t):
    """Heisenberg evolution of the observable under exp(-i t sqrt(Delta))."""
    sm = a_op.domain
    phase = np.exp(-1j * t * sm.freq)
    d1 = scipy.sparse.diags(phase)
    d2 = scipy.sparse.diags(phase.conj())
    return sp.OperatorMatrix(matrix=(d1 @ a_op.matrix @ d2).tocsr(),
                             order=a_op.order, domain=sm, symbol=a_op.symbol)


def egorov_residual(model, symbol, t, shell, K):
    """Norm of the compression to frequencies [shell, 2 shell) of the
    difference between the evolved quantization and the quantized flow
    push-forward of the symbol.

    Exactly zero at t = 0 and for Fourier multipliers; decays like 1/shell
    for admissible base-dependent symbols.
    """
    a_op = sp.quantize(model, symbol, K)
    sm = a_op.domain
    idx = sp.shell_indices(sm, shell, 2 * shell)
    if idx.size == 0:
        raise ValueError(f"empty frequency shell [{shell}, {2 * shell})")
    if 2 * shell > sm.freq.max() + 1e-9:
        raise ValueError("shell exceeds the truncation; increase K")
    evolved = evolve_observable(a_op, t)
    pushed = sp.quantize(model, symbol.pushed(t), K)
    diff = (evolved.matrix - pushed.matrix).tocsr()
    sub = diff[np.ix_(idx, idx)]
    return sp.spectral_norm(sub)


# ---------------------------------------------------------------------------
# quantum variance


@dataclass(frozen=True)
class VarianceReport:
    """Eigenstate variance within an invariant subspace.

    variance = (1/N) sum |<phi_j, A phi_j> - limit_value|^2 over the first N
    eigensections in the range of the projector.
    """

    label: str
    n: int
    variance: float
    limit_value: complex
    deviations: tuple

    def recomputed_variance(self):
        return float(np.mean([abs(d) ** 2 for d in self.deviations]))

    def to_dict(self):
        return {"label": self.label, "n": self.n, "variance": self.variance,
                "limit_value": _c2(self.limit_value),
                "deviations": [_c2(d) for d in self.deviations]}


def subspace_eigensections(sm, proj_op, tol=1e-10):
    """Orthonormal eigensections of Delta spanning the projector range,
    ordered by eigenvalue; requires [P, Delta] = 0."""
    delta = scipy.sparse.diags(sm.lam)
    comm = proj_op.matrix @ delta - delta @ proj_op.matrix
    if sp.frob(comm) > tol * max(1.0, float(sm.lam.max())):
        raise ValueError("projector does not commute with the Laplacian")
    sections = []
    for block in sm.degeneracy_blocks():
        idx = np.array(block)
        sub = proj_op.matrix[np.ix_(idx, idx)].toarray()
        vals, vecs = np.linalg.eigh(0.5 * (sub + sub.conj().T))
        for col in range(len(block)):
            if vals[col] > 0.5:
                vec = np.zeros(sm.dim, dtype=complex)
                vec[idx] = vecs[:, col]
                sections.append((sm.lam[idx[0]], vec))
    return sections


def quantum_variance(sm, a_op, proj_op, n, limit_value=None, resolution=8,
                     label="subspace"):
    """Variance of eigenstate values of A against the ergodic-component value
    within the range of the projector (first n eigensections)."""
    sections = subspace_eigensections(sm, proj_op)
    if n > len(sections):
        raise ValueError(f"requested {n} eigensections, subspace holds "
                         f"{len(sections)}")
    if limit_value is None:
        if a_op.symbol is None or proj_op.symbol is None:
            raise ValueError("need symbols (or an explicit limit) for the "
                             "component value")
        k = proj_op.symbol.fiber_dim
        num = _symbol_average(sm.model, proj_op.symbol.evaluator, k, resolution,
                              other=a_op.symbol.evaluator)
        den = _symbol_average(sm.model, proj_op.symbol.evaluator, k, resolution)
        limit_value = num / den
    devs = []
    for _, vec in sections[:n]:
        val = np.vdot(vec, a_op.matrix @ vec)
        devs.append(val - limit_value)
    variance = float(np.mean([abs(d) ** 2 for d in devs])) if devs else 0.0
    return VarianceReport(label=label, n=len(devs), variance=variance,
                          limit_value=complex(limit_value),
                          deviations=tuple(devs))


# ---------------------------------------------------------------------------
# ergodic decomposition of the tracial state


def invariant_section(apply_fn, proj, fiber_dim):
    """Symbol of a stabilizer-invariant fiber matrix: at a unit covector xi
    in orthonormal components the matrix is conjugated by the representation
    of the completion of xi to an SO(n) matrix (`geometry.frame_completion`
    on the flat torus, whose chart components are orthonormal)."""
    proj = np.asarray(proj, dtype=complex)

    def ev(point, xi):
        frame = geo.frame_completion(geo.flat_torus(len(xi)), point, xi)
        u = np.asarray(apply_fn(frame), dtype=complex)
        return u @ proj @ u.conj().T

    return sp.SymbolField(evaluator=ev, fiber_dim=fiber_dim)


def _in_chart(model, section):
    """A section of orthonormal components read at the chart directions of the
    unit-bundle quadrature: sqrt(G) maps a metric-unit chart vector to them."""

    def ev(point, xi):
        return section(point, np.sqrt(np.diag(geo.metric_at(model, point))) * xi)

    return ev


def ergodic_decomposition(tracial, projections, apply_fn):
    """Split a tracial state along invariant fiber projections.

    Returns [(weight, component state)]: weight = omega(p_i) and component
    omega_i(A) = omega(p_i A) / omega(p_i).  The identity decomposition
    returns the state itself with weight 1.
    """
    if tracial.kind != "tracial" or tracial.weight is not None:
        raise ValueError("decomposition starts from the plain tracial state")
    model, k, res = tracial.context, tracial.fiber_dim, tracial.resolution
    mats = [p.projector if hasattr(p, "projector") else np.asarray(p)
            for p in projections]
    total = sum(mats)
    if np.abs(total - np.eye(k)).max() > 1e-10:
        raise ValueError("projections do not sum to the identity")
    out = []
    for mat in mats:
        section = _in_chart(model, invariant_section(apply_fn, mat, k).evaluator)
        weight_trace = _symbol_average(model, section, k, res)
        weight = float(np.real(weight_trace)) / k
        comp = StateFunctional(kind="tracial", context=model, fiber_dim=k,
                               resolution=res, weight=section,
                               weight_trace=weight_trace)
        out.append((weight, comp))
    return out

