"""State functionals on truncated observable algebras and their high-energy
diagnostics: eigenstate / Cesaro / heat / tracial states, convergence ladders,
negative-order decay, the time-evolution (Egorov) residual, quantum variance,
and ergodic decomposition of the tracial state.

Every state evaluation returns a value together with an error estimate
(truncation or quadrature), never a bare number.  The one weighted average
is omega_W(A) = omega(W A) / omega(W), the tracial state weighted by a symbol
W (the identity for the plain state): an ergodic component is weighted by an
invariant section, the quantum-variance limit by the projector's symbol.  Per
chunk of nodes the symbol's and the weight's tables come from
`SymbolField.table`, one evaluator call for the library's batched symbols;
a per-point symbol, and an invariant section's `apply_fn`, are called once
per node by `geometry._per_node_table`.  One product contracts
[tr(W A), tr(W)] (`geometry._node_average`).  The matrix side reads CSR
arrays: a Cesaro or heat rung the diagonal, a degeneracy block or frequency
shell one contiguous row range, the commutation check the stored entries.
"""

import itertools
from dataclasses import dataclass

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
    ratio at time t), "tracial" (the Liouville average omega_W(A) =
    omega(W A) / omega(W) of the symbol weighted by the SymbolField `weight`,
    the plain normalized trace when `weight` is None; an ergodic component
    is weighted by an invariant section).
    """

    kind: str
    context: object
    j: int = None
    n: int = None
    t: float = None
    fiber_dim: int = 1
    resolution: int = 8
    weight: sp.SymbolField = None


def eigen_state(sm, j):
    """State <phi_j, . phi_j> in the canonical eigen-ordering."""
    if not 0 <= j < sm.dim:
        raise ValueError(f"eigenstate index {j} outside the truncated basis")
    return StateFunctional(kind="eigen", context=sm, j=j)


def cesaro_state(sm, n):
    """Average of the first N eigenstates, N rounded up to a degeneracy block."""
    if not 1 <= n <= sm.dim:
        raise ValueError(f"Cesaro length {n} outside the truncated basis")
    boundary = next(b for b in sm._block_bounds()[1:] if b >= n)
    return StateFunctional(kind="cesaro", context=sm, n=boundary)


def heat_state(sm, t):
    """Gibbs trace-ratio state at inverse temperature t.  Its error bounds
    what the modes beyond the cutoff would add; `compare_states` flags heat
    times below `heat_time_floor(sm)` as not reliable."""
    t = sp._finite_real(t, "heat time")
    if t <= 0:
        raise ValueError("heat time must be positive")
    return StateFunctional(kind="heat", context=sm, t=t)


def heat_time_floor(sm):
    """Smallest t at which the truncated tail, for the eigenvalues of sm, is
    below 1e-12 of the leading term."""
    span = sm.lam.max() - sm.lam.min()
    if span <= 0:
        return 0.0
    return float((np.log(sm.lam.size) + 12 * np.log(10.0)) / span)


def _gibbs_ratio(lam, diag, t):
    """sum(diag exp(-t lam)) / sum(exp(-t lam)) and its truncation bound.

    The bound, dim exp(-t (max lam - min lam)) (1 + max |diag|) / Z with Z the
    shifted denominator, estimates what the modes beyond the cutoff would add.
    """
    gibbs = np.exp(-t * (lam - lam.min()))
    den = gibbs.sum()
    tail = lam.size * np.exp(-t * (lam.max() - lam.min()))
    scale = float(np.abs(diag).max())
    return (diag * gibbs).sum() / den, float(tail * (1.0 + scale) / den)


def tracial_state_functional(model, fiber_dim=1, resolution=8):
    """Normalized Liouville trace state on symbols."""
    return StateFunctional(kind="tracial", context=model, fiber_dim=fiber_dim,
                           resolution=resolution)


# ---------------------------------------------------------------------------
# Unit-bundle quadrature for symbols


def _weighted_average(state, symbol, resolution):
    """omega_W(A) = sum_n w_n tr(W_n A_n) / sum_n w_n tr(W_n) over the
    unit-bundle nodes at the resolution, A the symbol's and W the state's
    weight's node table (the identity when the weight is None)."""
    k, weight = state.fiber_dim, state.weight
    for sym in (symbol, weight):
        if sym is not None and sym.fiber_dim != k:
            raise ValueError(f"symbol of fiber rank {sym.fiber_dim} on a rank-{k} state")

    def rows(points, dirs):  # dirs are the metric-unit directions
        a = symbol.table(points, dirs)
        w = np.broadcast_to(np.eye(k), a.shape) if weight is None else weight.table(points, dirs)
        return np.column_stack([np.einsum("nij,nji->n", w, a), np.einsum("nii->n", w)])

    points, dirs, weights = geo.unit_bundle_nodes(state.context, resolution)
    return geo._node_average(weights, rows, points, dirs)[0]


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
    if isinstance(a_op, sp.OperatorMatrix):
        if not sp._same_basis(a_op.domain, state.context):
            raise ValueError("observable basis does not match the state context")
        mat = a_op.matrix
    else:
        mat = a_op
    if state.kind == "eigen":
        return StateValue(value=complex(mat[state.j, state.j]), error=0.0)
    return _diagonal_value(state, mat.diagonal())


def _diagonal_value(state, diag):
    """A Cesaro or heat state's value on an observable of diagonal `diag`."""
    if state.kind == "cesaro":
        return StateValue(value=complex(diag[: state.n].sum() / state.n), error=0.0)
    if state.kind == "heat":
        # a constant potential cancels in the Gibbs ratio
        value, error = _gibbs_ratio(state.context.lam, diag, state.t)
        return StateValue(value=complex(value), error=error)
    raise ValueError(f"unknown state kind {state.kind!r}")


def _evaluate_tracial(state, a_op):
    sym = a_op.symbol if isinstance(a_op, sp.OperatorMatrix) else a_op
    res = state.resolution
    if not callable(sym):
        raise ValueError("tracial evaluation needs an attached symbol")
    if not isinstance(sym, sp.SymbolField):  # a bare per-point function
        sym = sp.SymbolField(evaluator=sym, fiber_dim=state.fiber_dim)
    fine, coarse_res = _weighted_average(state, sym, res), max(4, res // 2)
    if coarse_res == res:  # the coarsest rule has nothing to compare with
        return StateValue(value=fine, error=float("nan"))
    coarse = _weighted_average(state, sym, coarse_res)
    return StateValue(value=fine, error=float(abs(fine - coarse)))


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

    Gaps to the tracial value must shrink monotonically (10 percent slack)
    along N-doubling and t-halving ladders, read from the matrix's diagonal.
    """
    if a_op.symbol is None:
        raise ValueError("compare_states needs an observable with a symbol")
    if a_op.order != 0:
        raise ValueError("compare_states applies to order-0 observables")
    if not sp._same_basis(a_op.domain, sm):
        raise ValueError("observable basis does not match the state context")
    trac = tracial_state(sm.model, a_op.symbol, a_op.symbol.fiber_dim, resolution)
    diag = a_op.matrix.diagonal()
    if n_ladder is None:  # doubling from dim / 16, then dim
        n0 = max(2, sm.dim // 16)
        n_ladder = [n0 << i for i in range(sm.dim.bit_length()) if n0 << i < sm.dim] + [sm.dim]
    cesaro_rows = []  # one row per block boundary the rungs round up to
    for rung in {r.n: r for r in (cesaro_state(sm, min(n, sm.dim)) for n in n_ladder)}.values():
        val = _diagonal_value(rung, diag).value
        cesaro_rows.append((rung.n, val, abs(val - trac.value)))
    t0 = heat_time_floor(sm)
    if t_ladder is None:
        t_ladder = [8 * t0, 4 * t0, 2 * t0, t0]
    heat_rows = []
    for t in t_ladder:
        out = _diagonal_value(heat_state(sm, t), diag)
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


def _shell(sm, lo):
    """The frequency shell [lo, 2 lo) as a slice (frequencies ascend), which
    must be nonempty and inside the truncation (`ValueError`)."""
    idx = sp.shell_indices(sm, lo, 2 * lo)
    if idx.size == 0:
        raise ValueError(f"empty frequency shell [{lo}, {2 * lo})")
    if 2 * lo > sm.freq.max() + 1e-9:
        raise ValueError("shell exceeds the truncation; increase K")
    return slice(int(idx[0]), int(idx[-1]) + 1)


def negative_order_decay(sm, a_op, shells):
    """Shell maxima of a negative-order observable over dyadic frequency shells.

    The shell value is the operator norm of the compression to frequencies in
    [shell, 2 shell): the largest expectation against unit states supported in
    the shell.  Plane-wave diagonal maxima are reported alongside.  A shell
    that is empty or reaches past the truncation raises `ValueError`: its
    norm would be that of a partial shell.
    """
    if not sp._same_basis(a_op.domain, sm):
        raise ValueError("observable basis does not match")
    rows, diag = [], np.abs(a_op.matrix.diagonal())
    for lo in shells:
        band = _shell(sm, lo)
        rows.append((float(lo), sp.spectral_norm(a_op.matrix[band, band]),
                     float(diag[band].max())))
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
    for admissible base-dependent symbols.  Both the evolution and the
    push-forward keep the modes of each entry, so only the entries whose row
    and column lie in the shell are built, from one coefficient table with
    one call of each coefficient per entry (`spectral._quantizations`): the
    quantization places it at (k + nu, k), the push-forward places it times
    exp(-i t nu . xi_k), xi_k the unit covector of mode k.  A t that is not a
    finite real number, an empty shell and a shell past the truncation raise
    `ValueError` before any coefficient call; the model and symbol meet
    `quantize`'s checks.
    """
    t = sp._finite_real(t, "evolution time")
    sm = sp.basis_for(model, "functions", K)
    band = _shell(sm, shell)
    keep = np.isin(np.arange(sm.dim), np.arange(band.start, band.stop))
    a, pushed = sp._quantizations(model, symbol, K, keep, t)
    evolved = evolve_observable(sp.OperatorMatrix(matrix=a, order=0, domain=sm), t)
    diff = (evolved.matrix - pushed).tocsr()
    return sp.spectral_norm(diff[band, band])


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


def subspace_eigensections(sm, proj_op):
    """Orthonormal eigensections of Delta spanning the projector range,
    ordered by eigenvalue; requires [P, Delta] = 0.

    A section lies in one degeneracy block of Delta and is returned as
    (eigenvalue, block indices, coefficients): its entries at the block's
    indices, zero elsewhere.  The sections of a block share its index array.
    """
    return list(_eigensections(sm, proj_op))


def _eigensections(sm, proj_op):
    """The sections of `subspace_eigensections` as a lazy iterator that
    diagonalizes one degeneracy block at a time, each from `_dense_block`.
    The commutation check runs at once, on the stored entries of P."""
    proj = scipy.sparse.csr_matrix(proj_op.matrix)
    if _commutator_norm(proj, sm.lam) > 1e-10 * max(1.0, float(sm.lam.max())):
        raise ValueError("projector does not commute with the Laplacian")
    return _block_sections(sm, proj)


def _commutator_norm(mat, lam):
    """Frobenius norm of [mat, diag(lam)], sqrt(sum |m_ij|^2 (lam_i - lam_j)^2)
    over a CSR mat's stored entries, duplicates summed first in new arrays."""
    mat = mat if mat.has_canonical_format else mat.tocoo().tocsr()
    gap = np.repeat(lam, np.diff(mat.indptr)) - lam[mat.indices]
    return float(np.sqrt(np.sum(np.abs(mat.data) ** 2 * gap ** 2)))


def _dense_block(mat, a, b):
    """Dense mat[a:b, a:b] of a CSR mat from the rows' one indptr range and a
    column mask; duplicates are summed in stored order, as `toarray` does."""
    lo, hi = mat.indptr[a], mat.indptr[b]
    rows = np.repeat(np.arange(b - a), np.diff(mat.indptr[a:b + 1]))
    cols = mat.indices[lo:hi] - a
    keep = (cols >= 0) & (cols < b - a)
    out = np.zeros((b - a, b - a), dtype=mat.dtype)
    np.add.at(out, (rows[keep], cols[keep]), mat.data[lo:hi][keep])
    return out


def _block_sections(sm, proj):
    bounds = sm._block_bounds()
    for a, b in zip(bounds, bounds[1:]):
        sub = _dense_block(proj, a, b)
        vals, vecs = np.linalg.eigh(0.5 * (sub + sub.conj().T))
        idx = np.arange(a, b)
        for vec in vecs[:, vals > 0.5].T:
            yield sm.lam[a], idx, vec


def quantum_variance(sm, a_op, proj_op, n, limit_value=None, resolution=8,
                     label="subspace"):
    """Variance of eigenstate values of A against the ergodic-component value
    within the range of the projector (first n eigensections).

    Without `limit_value` the component value is omega_P(A) = omega(P A) /
    omega(P), the tracial state weighted by the projector's symbol, at
    `resolution`.  Only the degeneracy blocks that hold the first n sections
    are diagonalized, and each value v^H A v is taken on its block,
    v^H A[idx, idx] v, the block read from A's CSR arrays (`_dense_block`).
    """
    sections = list(itertools.islice(_eigensections(sm, proj_op), n))
    if n > len(sections):
        raise ValueError(f"requested {n} eigensections, subspace holds "
                         f"{len(sections)}")
    if limit_value is None:
        if a_op.symbol is None or proj_op.symbol is None:
            raise ValueError("need symbols (or an explicit limit) for the "
                             "component value")
        weighted = StateFunctional(kind="tracial", context=sm.model, resolution=resolution,
                                   fiber_dim=proj_op.symbol.fiber_dim, weight=proj_op.symbol)
        limit_value = _weighted_average(weighted, a_op.symbol, resolution)
    a_mat = scipy.sparse.csr_matrix(a_op.matrix)
    devs, block, a_block = [], None, None
    for _, idx, coef in sections:
        if idx is not block:
            block, a_block = idx, _dense_block(a_mat, idx[0], idx[-1] + 1)
        devs.append(np.vdot(coef, a_block @ coef) - limit_value)
    variance = float(np.mean([abs(d) ** 2 for d in devs])) if devs else 0.0
    return VarianceReport(label=label, n=len(devs), variance=variance,
                          limit_value=complex(limit_value),
                          deviations=tuple(devs))


# ---------------------------------------------------------------------------
# ergodic decomposition of the tracial state


def invariant_section(apply_fn, proj, fiber_dim):
    """Symbol of a stabilizer-invariant fiber matrix: at a unit covector xi
    in orthonormal components the matrix is conjugated by the representation
    of the completion of xi to an SO(n) matrix.  Batched: covectors (..., n)
    give (..., k, k), apply_fn called once per covector."""
    proj = np.asarray(proj, dtype=complex)

    def ev(points, xi):
        xi = np.asarray(xi, dtype=float)
        frames = geo.frame_completion(geo.flat_torus(xi.shape[-1]), points, xi)
        u = geo._per_node_table(apply_fn, frames.reshape((-1,) + frames.shape[-2:]))
        u = np.asarray(u, dtype=complex).reshape(frames.shape[:-2] + (fiber_dim, fiber_dim))
        return u @ proj @ u.conj().swapaxes(-1, -2)

    return sp.SymbolField(evaluator=ev, fiber_dim=fiber_dim, batched=True)


def ergodic_decomposition(tracial, projections, apply_fn):
    """Split a tracial state along invariant fiber projections.

    Returns [(weight, component state)]: the component omega_i(A) =
    omega(s_i A) / omega(s_i) is the tracial state weighted by the invariant
    section s_i of p_i (`StateFunctional.weight`), and its weight omega(s_i)
    is exactly tr(p_i) / k, since tr(u p_i u^H) = tr(p_i) for unitary u.  The
    identity decomposition has weight 1 and gives the state's values to
    rounding.  apply_fn is a user callback on one SO(n) matrix; the
    decomposition makes no call, and each evaluation of a component calls it
    once per node.
    """
    if tracial.kind != "tracial" or tracial.weight is not None:
        raise ValueError("decomposition starts from the plain tracial state")
    model, k, res = tracial.context, tracial.fiber_dim, tracial.resolution
    mats = [p.projector if hasattr(p, "projector") else np.asarray(p)
            for p in projections]
    if np.abs(sum(mats) - np.eye(k)).max() > 1e-10:
        raise ValueError("projections do not sum to the identity")
    if any(np.trace(mat).real < 0.5 for mat in mats):
        raise ValueError("a zero-rank projection has no component state")

    def chart_section(mat):  # at the chart's metric-unit directions
        ev = invariant_section(apply_fn, mat, k).evaluator
        scale = lambda x: np.sqrt(geo._metric_diagonal(model, np.asarray(x, dtype=float)))
        return sp.SymbolField(lambda x, xi: ev(x, scale(x) * xi), k, batched=True)

    return [(float(np.trace(mat).real) / k,
             StateFunctional(kind="tracial", context=model, fiber_dim=k, resolution=res,
                             weight=chart_section(mat)))
            for mat in mats]
