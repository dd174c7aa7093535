import dataclasses
import fractions
import tracemalloc

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from framelab import algebra as alg
from framelab import flows as fl
from framelab import geometry as geo
from framelab import limits as lm
from framelab import spectral as sp


T2 = geo.flat_torus(2)
T3 = geo.flat_torus(3)
S2 = geo.round_sphere()
OCT = geo.hyperbolic_octagon()
MODELS = [T2, T3, S2, OCT]


def model_id(m):
    return m.kind + str(m.dim)


# ---------------------------------------------------------------------------
# tracial states


def test_tracial_hodge_projections_t3():
    p, q, _ = sp.hodge_projections(T3, 1, 2)
    assert abs(lm.tracial_state(T3, p.symbol, 3, 4).value - 2 / 3) < 1e-12
    assert abs(lm.tracial_state(T3, q.symbol, 3, 4).value - 1 / 3) < 1e-12


def test_tracial_state_is_the_tracial_functional():
    sym = sp.SymbolField(lambda x, xi: np.cos(x[0]) + xi[0] ** 2 + 0.5j * xi[1], 1)
    for model in (T2, S2):
        direct = lm.tracial_state(model, sym, 1, 6)
        state = lm.evaluate(lm.tracial_state_functional(model, 1, 6), sym)
        assert direct == state


def test_tracial_state_resolution_must_be_an_integer():
    sym = sp.SymbolField(lambda x, xi: np.cos(x[0]) + xi[0] ** 2, 1)
    for res in (4.5, 8.0, "8"):
        with pytest.raises(ValueError, match="resolution"):
            lm.tracial_state(T2, sym, 1, res)


def test_tracial_circle_rule_exact_below_its_degree():
    # 8 equispaced directions integrate cos^6 exactly (mean 5/16); the error
    # estimate is the gap to the 4-direction rule, which reads 1/2
    val = lm.tracial_state(T2, lambda x, xi: xi[0] ** 6, 1, 8)
    assert abs(val.value - 5 / 16) < 1e-15
    assert abs(val.error - 3 / 16) < 1e-15


def test_tracial_error_unknown_at_coarsest_rule():
    val = lm.tracial_state(T2, lambda x, xi: xi[0] ** 6, 1, 4)
    assert abs(val.value - 0.5) < 1e-15
    assert np.isnan(val.error)


@pytest.mark.parametrize("model", MODELS, ids=model_id)
def test_position_symbol_tracial_matches_liouville(model):
    if model.kind == geo.OCTAGON:
        fn = lambda p: np.exp(-(p[0] ** 2 + 2 * p[1] ** 2))
    else:
        fn = lambda p: np.cos(p[0]) ** 2 + 0.3 * np.sin(p[1])
    res = 4 if model.dim == 3 else 12
    trac = lm.tracial_state(model, lambda x, xi: fn(x), 1, res).value
    liou = fl.liouville_haar_average(model, fl.position_observable(fn), res)[0, 0]
    assert abs(trac - liou) < 1e-13


def test_tracial_rejects_bare_matrix():
    state = lm.tracial_state_functional(T2, 1, 4)
    mat = np.eye(3)
    with pytest.raises(ValueError, match="attached symbol"):
        lm.evaluate(state, mat)
    with pytest.raises(ValueError, match="attached symbol"):
        lm.state_positivity_residual(state, [mat])


# ---------------------------------------------------------------------------
# ergodic decomposition and Egorov


def test_ergodic_weights_lambda1_t3():
    state = lm.tracial_state_functional(T3, fiber_dim=3, resolution=4)
    parts = lm.ergodic_decomposition(state, alg.branching_projections(3, 1),
                                     lambda g: alg.exterior_power_matrix(g, 1))
    assert len(parts) == 3
    for weight, _ in parts:
        assert abs(weight - 1 / 3) < 1e-12


@pytest.mark.parametrize("model", [T2, S2, OCT], ids=model_id)
def test_ergodic_decomposition_frames_are_orthonormal(model):
    # with apply_fn the identity, the weights are mean squared lengths of the
    # completed frames' columns, in orthonormal components (T^3: the
    # Lambda^1 test above)
    state = lm.tracial_state_functional(model, fiber_dim=2, resolution=8)
    (whole, _), = lm.ergodic_decomposition(state, [np.eye(2)], lambda g: g)
    assert abs(whole - 1.0) < 1e-12
    lines = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    for weight, _ in lm.ergodic_decomposition(state, lines, lambda g: g):
        assert abs(weight - 0.5) < 1e-12


def test_ergodic_decomposition_rejects_zero_rank_projection():
    state = lm.tracial_state_functional(T2, 2, 8)
    with pytest.raises(ValueError, match="zero-rank"):
        lm.ergodic_decomposition(state, [np.eye(2), np.zeros((2, 2))], lambda g: g)


# ---------------------------------------------------------------------------
# node-table quadratures against the per-node loops they replace


def _ref_symbol_average(model, symbol, fiber_dim, res, other=None):
    """Normalized quadrature of tr(symbol [other]) over the unit bundle, one
    node at a time."""
    points, dirs, weights = geo.unit_bundle_nodes(model, res)
    acc = 0.0 + 0.0j
    for point, xi, w in zip(points, dirs, weights):
        m = np.asarray(symbol(point, xi), dtype=complex).reshape(fiber_dim, fiber_dim)
        if other is not None:
            m = m @ np.asarray(other(point, xi), dtype=complex).reshape(fiber_dim,
                                                                        fiber_dim)
        acc += w * np.trace(m)
    return acc / weights.sum()


def _ref_section(model, apply_fn, proj):
    """u P u^H at a chart direction, u = apply_fn of the flat-torus completion
    of the direction's orthonormal components, one node at a time."""

    def ev(point, xi):
        xi = np.sqrt(np.diag(geo.metric_at(model, point))) * xi
        frame = geo.frame_completion(geo.flat_torus(len(xi)), point, xi)
        u = np.asarray(apply_fn(frame), dtype=complex)
        return u @ proj @ u.conj().T

    return ev


def _ref_tracial(model, symbol, k, res, section=None):
    """(value, error) of the tracial state, or of the component weighted by
    the section, from the per-node averages."""
    if section is None:
        weight, other, norm = symbol, None, k
    else:
        weight, other = section, symbol
        norm = _ref_symbol_average(model, section, k, res)
    fine = _ref_symbol_average(model, weight, k, res, other) / norm
    coarse_res = max(4, res // 2)
    if coarse_res == res:
        return fine, float("nan")
    coarse = _ref_symbol_average(model, weight, k, coarse_res, other) / norm
    return fine, abs(fine - coarse)


def _assert_close(got, want):
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def _hodge_mix(x, xi):
    xi = np.asarray(xi)
    return (np.outer(xi, xi) * (1 + 0.5 * np.cos(x[0] + 2 * x[2]))
            + 0.3j * np.sin(x[1]) * sp.helicity_symbol(x, xi))


@pytest.mark.parametrize("res", [4, 8])
def test_tracial_matches_per_node_reference(res):
    got = lm.tracial_state(T3, _hodge_mix, 3, res)
    value, error = _ref_tracial(T3, _hodge_mix, 3, res)
    _assert_close(got.value, value)
    if res == 4:
        assert np.isnan(got.error)
    else:
        _assert_close(got.error, error)


def test_tracial_in_node_chunks_matches_per_node_reference(monkeypatch):
    monkeypatch.setattr(geo, "_NODE_CHUNK", 300)
    got = lm.tracial_state(T3, _hodge_mix, 3, 4)
    value, _ = _ref_tracial(T3, _hodge_mix, 3, 4)
    _assert_close(got.value, value)


def test_tracial_state_memory_peak():
    # the whole res-8 node table (65,536 x 3 x 3 complex) alone takes 9.4 MB
    p, _, _ = sp.hodge_projections(T3, 1, 2)
    lm.tracial_state(T3, p.symbol, 3, 4)
    tracemalloc.start()
    try:
        value = lm.tracial_state(T3, p.symbol, 3, 8).value
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(value - 2 / 3) < 1e-12
    assert peak <= 6.4e6


def _plane_mix(x, xi):
    return np.array([[xi[0] ** 2 + np.cos(x[0]), xi[0] * xi[1]],
                     [0.3j, xi[1] + np.sin(x[1])]])


_LINE = np.array([np.cos(0.3), 1j * np.sin(0.3)])
_COMPLEX_LINES = [np.outer(_LINE, _LINE.conj()), np.eye(2) - np.outer(_LINE, _LINE.conj())]

# the sphere's complex lines give non-symmetric sections, so tr(p A) is told
# apart from sum_ij p_ij A_ij
_ERGODIC_CASES = {
    "torus3": (T3, 4, alg.branching_projections(3, 1),
               lambda g: alg.exterior_power_matrix(g, 1), _hodge_mix),
    "sphere2": (S2, 8, _COMPLEX_LINES, lambda g: g, _plane_mix),
    "octagon2": (OCT, 16, [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], lambda g: g,
                 _plane_mix),
}


@pytest.mark.parametrize("case", sorted(_ERGODIC_CASES))
def test_ergodic_decomposition_matches_per_node_reference(case):
    model, res, projections, apply_fn, symbol = _ERGODIC_CASES[case]
    k = model.dim
    state = lm.tracial_state_functional(model, k, res)
    parts = lm.ergodic_decomposition(state, projections, apply_fn)
    for (weight, comp), p in zip(parts, projections):
        proj = np.asarray(getattr(p, "projector", p), dtype=complex)
        section = _ref_section(model, apply_fn, proj)
        _assert_close(weight, np.real(_ref_symbol_average(model, section, k, res)) / k)
        value, error = _ref_tracial(model, symbol, k, res, section)
        got = lm.evaluate(comp, symbol)
        _assert_close(got.value, value)
        if np.isnan(error):
            assert np.isnan(got.error)
        else:
            _assert_close(got.error, error)


_WEIGHT_CASES = {
    "torus2": (T2, 8, [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], lambda g: g),
    "sphere2": (S2, 8, _COMPLEX_LINES, lambda g: g),
    "octagon2": (OCT, 16, [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], lambda g: g),
    "torus3": (T3, 4, alg.branching_projections(3, 1),
               lambda g: alg.exterior_power_matrix(g, 1)),
}


@pytest.mark.parametrize("case", sorted(_WEIGHT_CASES))
def test_ergodic_weights_are_the_tracial_values_of_the_sections(case):
    # the weights are exact, tr(p_i) / k; the tracial value of a section
    # equals it only where the completed frames are orthonormal
    model, res, projections, apply_fn = _WEIGHT_CASES[case]
    k = model.dim
    state = lm.tracial_state_functional(model, k, res)
    for weight, comp in lm.ergodic_decomposition(state, projections, apply_fn):
        assert abs(lm.tracial_state(model, comp.weight, k, res).value - weight) <= 1e-12


def test_invariant_section_is_the_per_node_section():
    apply_fn = lambda g: alg.exterior_power_matrix(g, 1)
    points, dirs, _ = geo.unit_bundle_nodes(T3, 4)
    for p in alg.branching_projections(3, 1):
        section = lm.invariant_section(apply_fn, p.projector, 3)
        ref = _ref_section(T3, apply_fn, p.projector)
        for point, xi in zip(points[::97], dirs[::97]):
            assert np.abs(section(point, xi) - ref(point, xi)).max() <= 1e-15


def test_invariant_section_call_is_a_row_of_its_table():
    apply_fn = lambda g: alg.exterior_power_matrix(g, 1)
    points, dirs, _ = geo.unit_bundle_nodes(T3, 4)
    for p in alg.branching_projections(3, 1):
        section = lm.invariant_section(apply_fn, p.projector, 3)
        assert section.batched
        table = section.table(points, dirs)
        for i in range(0, len(dirs), 37):
            assert np.abs(section(points[i], dirs[i]) - table[i]).max() <= 1e-15


def test_dirac_half_tracial_state_is_one_symbol_call(monkeypatch):
    _, D = sp.build_dirac(T3, 2)
    _, plus, _ = sp.sign_and_halves(D)
    calls = []
    clifford = alg.clifford_mult
    monkeypatch.setattr(alg, "clifford_mult", lambda *a: calls.append(a) or clifford(*a))
    value = lm.tracial_state(T3, plus.symbol, plus.symbol.fiber_dim, 4)
    assert len(geo.unit_bundle_nodes(T3, 4)[2]) == 2048
    assert len(calls) == 1
    assert abs(value.value - 0.5) <= 1e-12


def test_tracial_rejects_a_symbol_of_another_fiber_rank():
    p, _, _ = sp.hodge_projections(T3, 1, 2)
    with pytest.raises(ValueError, match="fiber rank"):
        lm.tracial_state(T3, p.symbol, 1, 4)


def test_ergodic_component_calls_each_callback_once_per_node():
    calls = {"apply": 0, "symbol": 0}

    def apply_fn(g):
        calls["apply"] += 1
        return alg.exterior_power_matrix(g, 1)

    def symbol(x, xi):
        calls["symbol"] += 1
        return _hodge_mix(x, xi)

    nodes = len(geo.unit_bundle_nodes(T3, 4)[2])
    state = lm.tracial_state_functional(T3, 3, 4)
    parts = lm.ergodic_decomposition(state, alg.branching_projections(3, 1), apply_fn)
    lm.evaluate(parts[1][1], symbol)
    assert nodes == 2048
    assert calls == {"apply": nodes, "symbol": nodes}


def test_per_point_callbacks_go_through_the_one_adapter(monkeypatch):
    tables, calls = [], []
    adapter = geo._per_node_table

    def counting(fn, *columns):
        out = adapter(fn, *columns)
        tables.append(len(out))
        return out

    def per_point(fn):
        def counted(*args):
            calls.append(None)
            return fn(*args)
        return counted

    monkeypatch.setattr(geo, "_per_node_table", counting)
    rng = np.random.default_rng(61)
    fps = [fl.random_frame_point(T3, rng) for _ in range(12)]
    points, frames = np.stack([fp.point for fp in fps]), np.stack([fp.frame for fp in fps])
    dirs = frames[..., 0]
    section = lm.invariant_section(per_point(lambda g: alg.exterior_power_matrix(g, 1)),
                                   np.eye(3), 3)
    trig = sp.TrigSymbol(terms={(1, 0): per_point(lambda xi: xi[0]),
                                (0, 1): per_point(lambda xi: 1j * xi[1])}, dim=2)
    kinds = {  # the call, then its number of tables
        "opaque": (lambda: fl.FlowObservable(evaluator=per_point(lambda fp: fp.frame[0, 1]))
                   .table(points, frames), 1),
        "scalar": (lambda: fl.scalar_observable(per_point(lambda p, f: f[0, 1]))
                   .table(points, frames), 1),
        "position": (lambda: fl.position_observable(per_point(lambda p: np.cos(p[0])))
                     .table(points, frames), 1),
        "symbol": (lambda: sp.SymbolField(per_point(lambda x, xi: xi[0])).table(points, dirs), 1),
        "quantize": (lambda: sp.quantize(T2, trig, 3), 2),  # one per frequency
        "sphere": (lambda: sp.sphere_multiplication(4, per_point(lambda th, ph: np.cos(th))), 1),
        "section": (lambda: section.table(points, dirs), 1),
    }
    for name, (call, count) in kinds.items():
        tables.clear()
        calls.clear()
        call()
        assert len(tables) == count and sum(tables) == len(calls) > 0, name
    tables.clear()
    bump = fl.smooth_bump()
    oct_points, oct_frames, _ = fl.liouville_nodes(OCT, 8)
    for obs in (bump, fl.beta_flow(OCT, bump, 0.5), fl.obs_product(bump, fl.smooth_bump(0.8)),
                fl.obs_adjoint(bump), fl.FlowObservable(evaluator=bump.evaluator)):
        obs.table(oct_points, oct_frames)
        fl.liouville_haar_average(OCT, obs, 8)
    assert tables == []


def test_egorov_residual_zero_at_t0():
    res = lm.egorov_residual(T2, sp.cosine_symbol(axis=0, dim=2), 0.0, 2, 8)
    assert res == 0.0


# ---------------------------------------------------------------------------
# the shared quadrature


@pytest.mark.parametrize("model", MODELS, ids=model_id)
def test_liouville_frames_orthonormal_and_oriented(model):
    points, frames, weights = fl.liouville_nodes(model, 4 if model.dim == 3 else 8)
    assert len(points) == len(frames) == len(weights) > 0
    assert np.all(weights > 0)
    for point, frame in zip(points, frames):
        g = geo.metric_at(model, point)
        assert np.abs(frame.T @ g @ frame - np.eye(model.dim)).max() < 1e-14
        assert np.linalg.det(frame) > 0


# ---------------------------------------------------------------------------
# eigensections and quantum variance


def _coexact_sections(K):
    P, _, _ = sp.hodge_projections(T3, 1, K)
    return P, lm.subspace_eigensections(P.domain, P)


def _dense(sm, section):
    _, idx, coef = section
    vec = np.zeros(sm.dim, dtype=complex)
    vec[idx] = coef
    return vec


def test_coexact_eigensections_t3():
    P, sections = _coexact_sections(3)
    sm = P.domain
    vecs = np.array([_dense(sm, s) for s in sections]).T
    assert len(sections) == round(np.real(P.matrix.diagonal().sum()))
    assert np.abs(vecs.conj().T @ vecs - np.eye(len(sections))).max() <= 1e-12
    assert np.abs(P.matrix @ vecs - vecs).max() <= 1e-12
    lams = [lam for lam, _, _ in sections]
    assert np.all(np.diff(lams) >= 0)
    for lam, idx, _ in sections:
        assert np.all(sm.lam[idx] == lam)


def test_quantum_variance_deviations_match_dense_expectations():
    P, sections = _coexact_sections(3)
    sm = P.domain
    R = sp.helicity_R(T3, 3)
    mix = scipy.sparse.random(sm.dim, sm.dim, density=0.01, random_state=7, format="csr")
    a_op = sp.OperatorMatrix(matrix=(R.matrix + mix + mix.T).tocsr(), order=0, domain=sm)
    n = len(sections) - 5
    report = lm.quantum_variance(sm, a_op, P, n, limit_value=0.25)
    dense = a_op.matrix.toarray()
    want = [np.vdot(v, dense @ v) - 0.25 for v in (_dense(sm, s) for s in sections[:n])]
    assert report.n == n
    assert np.abs(np.array(report.deviations) - want).max() <= 1e-13
    assert abs(report.variance - np.mean(np.abs(want) ** 2)) <= 1e-13
    with pytest.raises(ValueError):
        lm.quantum_variance(sm, a_op, P, len(sections) + 1, limit_value=0.25)


def _csr_with_duplicates(rows, cols, vals, dim):
    """The CSR matrix of entries (rows, cols, vals) in the given order within
    each row, duplicates kept."""
    order = np.argsort(rows, kind="stable")
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=dim))])
    return scipy.sparse.csr_matrix((vals[order], cols[order], indptr), shape=(dim, dim))


def _non_canonical(mat, seed):
    """mat as a CSR matrix that is not canonical: each stored entry split into
    three random duplicates, one explicit zero per row at a random column,
    and the entries of every row in random order."""
    rng = np.random.default_rng(seed)
    coo, dim = mat.tocoo(), mat.shape[0]
    r1, r2 = (rng.uniform(-1, 1, coo.nnz) * coo.data for _ in range(2))
    rows = np.concatenate([coo.row] * 3 + [np.arange(dim)])
    cols = np.concatenate([coo.col] * 3 + [rng.integers(0, dim, dim)])
    data = np.concatenate([r1, r2, coo.data - r1 - r2, np.zeros(dim)])
    perm = rng.permutation(rows.size)
    out = _csr_with_duplicates(rows[perm], cols[perm], data[perm], dim)
    assert not out.has_sorted_indices and not out.has_canonical_format
    return out


def _arrays(mat):
    return [getattr(mat, attr).tobytes() for attr in ("data", "indices", "indptr")]


def test_blocks_and_variance_on_non_canonical_csr_are_the_sliced_bytes():
    P, _, _ = sp.hodge_projections(T3, 1, 3)
    sm = P.domain
    R = sp.helicity_R(T3, 3)
    p_mat = _non_canonical(P.matrix, 1)
    a_mat = _non_canonical((R.matrix + 0.3 * P.matrix).tocsr(), 2)
    real = _non_canonical(R.matrix.real.tocsr(), 3)
    before = [_arrays(m) for m in (p_mat, a_mat, real)]
    bounds = sm._block_bounds()
    ranges = list(zip(bounds, bounds[1:]))[:6] + [(0, 1), (0, 7), (sm.dim - 5, sm.dim)]
    for mat in (p_mat, a_mat, real):
        for a, b in ranges:
            got = lm._dense_block(mat, a, b)
            assert got.dtype == mat.dtype
            assert got.tobytes() == mat[a:b, a:b].toarray().tobytes()
            idx = np.arange(a, b)
            assert got.tobytes() == mat[np.ix_(idx, idx)].toarray().tobytes()
    p_op = sp.OperatorMatrix(matrix=p_mat, order=0, domain=sm)
    a_op = sp.OperatorMatrix(matrix=a_mat, order=0, domain=sm)
    n = 40
    report = lm.quantum_variance(sm, a_op, p_op, n, limit_value=0.3)
    sections = lm.subspace_eigensections(sm, p_op)
    want_sections, want_devs = oracles.quantum_variance_by_slicing(bounds, a_mat, p_mat, n, 0.3)
    assert np.array(report.deviations).tobytes() == np.array(want_devs).tobytes()
    for (_, idx, coef), (want_idx, want_coef) in zip(sections, want_sections):
        assert idx.tobytes() == want_idx.tobytes() and coef.tobytes() == want_coef.tobytes()
    assert [_arrays(m) for m in (p_mat, a_mat, real)] == before


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_stored_entry_commutator_norm_is_the_product_norm(data):
    # dyadic entries and integer eigenvalues: both routes round only in the
    # moduli and the square root
    dim = data.draw(st.integers(1, 12))
    count = data.draw(st.integers(0, 40))
    ints = lambda lo, hi, size: np.array(data.draw(st.lists(st.integers(lo, hi), min_size=size,
                                                            max_size=size)), dtype=int)
    lam = ints(0, 100, dim).astype(float)
    rows, cols = ints(0, dim - 1, count), ints(0, dim - 1, count)
    vals = (ints(-64, 64, count) + 1j * ints(-64, 64, count)) / 8
    mat = _csr_with_duplicates(rows, cols, vals, dim)
    before = _arrays(mat)
    delta = scipy.sparse.diags(lam)
    want = sp.frob(mat @ delta - delta @ mat)
    got = lm._commutator_norm(mat, lam)
    assert abs(got - want) <= 1e-12 * want
    assert _arrays(mat) == before


@pytest.mark.parametrize("factor, raises", [(1.01, True), (0.99, False)])
def test_commutation_check_threshold(factor, raises):
    # P = I plus a symmetric pair across two eigenvalues, of commutator norm
    # factor * 1e-10 * max(1, lam_max)
    sm = sp.basis_for(T2, "functions", 3)
    i, j = 0, sm.dim - 1
    gap = sm.lam[j] - sm.lam[i]
    eps = factor * 1e-10 * max(1.0, sm.lam.max()) / (np.sqrt(2) * gap)
    pert = scipy.sparse.csr_matrix(([eps, eps], ([i, j], [j, i])), shape=(sm.dim, sm.dim))
    p_op = sp.OperatorMatrix(matrix=(scipy.sparse.identity(sm.dim) + pert).tocsr(), order=0,
                             domain=sm)
    if raises:
        with pytest.raises(ValueError, match="does not commute"):
            lm.subspace_eigensections(sm, p_op)
    else:
        assert len(lm.subspace_eigensections(sm, p_op)) == sm.dim


@pytest.mark.parametrize("K", [2, 3, 6])
def test_coexact_variance_of_helicity_and_exact_projection_is_rounding(K):
    # a guard, not a pin of the sections: inside a degenerate block the
    # eigenvectors depend on P's last bits, and the deviations with them
    P, Q, _ = sp.hodge_projections(T3, 1, K)
    n = round(P.matrix.diagonal().real.sum())
    for a_op in (sp.helicity_R(T3, K), Q):
        report = lm.quantum_variance(P.domain, a_op, P, n, limit_value=0.0)
        assert report.n == n
        assert report.variance <= 1e-24
        assert np.abs(report.deviations).max() <= 1e-12


def test_quantum_variance_component_value_from_symbols():
    # tr(P R) = 0 and tr(P P) = tr(P) on the symbols: omega_P(R + s P) = s
    P, sections = _coexact_sections(3)
    R = sp.helicity_R(T3, 3)
    s = 0.3
    sym = sp.SymbolField(lambda x, xi: R.symbol(x, xi) + s * P.symbol(x, xi), 3)
    a_op = sp.OperatorMatrix(matrix=(R.matrix + s * P.matrix).tocsr(), order=0,
                             domain=P.domain, symbol=sym)
    report = lm.quantum_variance(P.domain, a_op, P, 10, resolution=4)
    assert abs(report.limit_value - s) <= 1e-12


def test_quantum_variance_component_value_in_node_chunks(monkeypatch):
    P, _ = _coexact_sections(3)
    R = sp.helicity_R(T3, 3)
    sym = sp.SymbolField(lambda x, xi: R.symbol(x, xi) + 0.3 * P.symbol(x, xi), 3)
    a_op = sp.OperatorMatrix(matrix=(R.matrix + 0.3 * P.matrix).tocsr(), order=0,
                             domain=P.domain, symbol=sym)
    whole = lm.quantum_variance(P.domain, a_op, P, 10, resolution=4).limit_value
    monkeypatch.setattr(geo, "_NODE_CHUNK", 300)
    chunked = lm.quantum_variance(P.domain, a_op, P, 10, resolution=4).limit_value
    _assert_close(chunked, whole)


def test_quantum_variance_component_value_matches_per_node_reference():
    # omega(P A) / omega(P) from the batched Hodge P symbol and a per-point A
    P, _ = _coexact_sections(3)
    a_sym = sp.SymbolField(lambda x, xi: np.diag([1 + 0.5 * np.cos(x[0]), 2.0, 0.3 + np.sin(x[1])])
                           + 0.2j * np.outer(xi, xi[::-1]), 3)
    a_op = sp.OperatorMatrix(matrix=P.matrix, order=0, domain=P.domain, symbol=a_sym)
    got = lm.quantum_variance(P.domain, a_op, P, 10, resolution=6).limit_value
    want = (_ref_symbol_average(T3, P.symbol, 3, 6, a_sym)
            / _ref_symbol_average(T3, P.symbol, 3, 6))
    assert abs(got - want) <= 1e-12 * abs(want)
    assert abs(want) > 0.1


@pytest.mark.parametrize("res", [4, 6])
def test_quantum_variance_limit_is_the_projector_weighted_state(res):
    P, _ = _coexact_sections(3)
    a_sym = sp.SymbolField(lambda x, xi: np.diag([1 + 0.5 * np.cos(x[0]), 2.0, 0.3 + np.sin(x[1])])
                           + 0.2j * np.outer(xi, xi[::-1]), 3)
    a_op = sp.OperatorMatrix(matrix=P.matrix, order=0, domain=P.domain, symbol=a_sym)
    got = lm.quantum_variance(P.domain, a_op, P, 10, resolution=res).limit_value
    state = lm.StateFunctional(kind="tracial", context=T3, fiber_dim=3, resolution=res,
                               weight=P.symbol)
    want = lm.evaluate(state, a_sym).value
    assert np.array(got).tobytes() == np.array(complex(want)).tobytes()


# ---------------------------------------------------------------------------
# eigen states


def test_eigen_state_reads_the_diagonal_entry():
    sm = sp.basis_for(T2, "functions", 3)
    mat = scipy.sparse.random(sm.dim, sm.dim, density=0.2, random_state=3, format="csr")
    mat = (mat + 1j * scipy.sparse.identity(sm.dim)).tocsr()
    dense = mat.toarray()
    for j in range(sm.dim):
        got = lm.evaluate(lm.eigen_state(sm, j), mat)
        assert got.value == dense[j, j] and got.error == 0.0


@pytest.mark.parametrize("j", [-1, 49, 50])
def test_eigen_state_index_outside_the_basis_raises(j):
    sm = sp.basis_for(T2, "functions", 3)
    assert sm.dim == 49
    with pytest.raises(ValueError):
        lm.eigen_state(sm, j)


def test_eigen_states_average_to_the_cesaro_state():
    sm, D = sp.build_dirac(T3, 3)
    _, plus, _ = sp.sign_and_halves(D)
    n = sm._block_bounds()[3]
    mean = np.mean([lm.evaluate(lm.eigen_state(sm, j), plus).value for j in range(n)])
    cesaro = lm.evaluate(lm.cesaro_state(sm, n), plus).value
    assert lm.cesaro_state(sm, n).n == n
    assert abs(mean - cesaro) <= 1e-14


# ---------------------------------------------------------------------------
# Egorov residual


def test_egorov_residual_decay_pinned():
    # cos x at t = 1, K = 12: roughly 1/shell
    sym = sp.cosine_symbol()
    assert abs(lm.egorov_residual(T2, sym, 1.0, 2, 12) - 0.17651518163812) <= 1e-12
    assert abs(lm.egorov_residual(T2, sym, 1.0, 4, 12) - 0.10224863168056) <= 1e-12


class _CountedCoefficient:
    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, xi):
        self.calls += 1
        return self.fn(xi)


def _counted_symbol():
    return sp.TrigSymbol(terms={
        (1, 0): _CountedCoefficient(lambda xi: 0.7 * xi[0] ** 2),
        (-1, 1): _CountedCoefficient(lambda xi: 0.2 - 0.4j * xi[1]),
        (0, 0): _CountedCoefficient(lambda xi: xi[0] * xi[1])}, dim=2)


def _benchmark_symbol(c):
    """The symbol of the quantize_egorov benchmark op with coefficients c."""
    return sp.TrigSymbol(terms={(1, 0): lambda xi: c[0] * xi[0] ** 2,
                                (-1, 0): lambda xi: c[0] * xi[0] ** 2,
                                (0, 1): lambda xi: c[1], (0, -1): lambda xi: c[1],
                                (0, 0): lambda xi: c[2] * xi[1] ** 2}, dim=2)


def _two_quantize_residual(sym, t, shell, K):
    """The Egorov residual from the quantizations of sym and sym.pushed(t)."""
    a_op = sp.quantize(T2, sym, K)
    idx = sp.shell_indices(a_op.domain, shell, 2 * shell)
    pushed = sp.quantize(T2, sym.pushed(t), K).matrix
    diff = (lm.evolve_observable(a_op, t).matrix - pushed).tocsr()
    return sp.spectral_norm(diff[np.ix_(idx, idx)]), pushed


def _shell_entry_counts(sym, shell, K):
    """Per term nu, the entries (k + nu, k) with both modes in the shell."""
    sm = sp.basis_for(T2, "functions", K)
    inside = {sm.labels[i][1] for i in sp.shell_indices(sm, shell, 2 * shell)}
    return [sum(tuple(a + b for a, b in zip(k, nu)) in inside for k in inside)
            for nu in sym.terms]


@pytest.mark.parametrize("shell", [2, 4])  # dense SVD, then ARPACK
def test_egorov_residual_quantizes_once(shell):
    # only the shell's entries are quantized: one coefficient call each
    t, K = 0.9, 10
    sym = _counted_symbol()
    sp.quantize(T2, sym, K)
    once = [c.calls for c in sym.terms.values()]
    for c in sym.terms.values():
        c.calls = 0
    got = lm.egorov_residual(T2, sym, t, shell, K)
    calls = [c.calls for c in sym.terms.values()]
    assert calls == _shell_entry_counts(sym, shell, K)
    assert all(0 < n < m for n, m in zip(calls, once))
    want, pushed = _two_quantize_residual(sym, t, shell, K)
    assert got == want
    # the quantization and its push-forward come from one coefficient table
    for c in sym.terms.values():
        c.calls = 0
    plain, fast = sp._quantizations(T2, sym, K, t=t)
    assert [c.calls for c in sym.terms.values()] == once
    for attr in ("data", "indices", "indptr"):
        assert getattr(fast, attr).tobytes() == getattr(pushed, attr).tobytes()
        assert (getattr(plain, attr).tobytes()
                == getattr(sp.quantize(T2, sym, K).matrix, attr).tobytes())


def test_egorov_residual_of_a_pushed_symbol():
    # both routes multiply in each push's phase as one array product: the
    # quantized push-forward and the residual are bit for bit the same
    for K, t0, t in [(10, 0.35, 0.6), (20, 0.35, 0.6), (10, 0.2, 1.3), (20, 0.2, 1.3)]:
        sym = _counted_symbol().pushed(t0)
        want, pushed = _two_quantize_residual(sym, t, 4, K)
        fast = sp._quantizations(T2, sym, K, t=t)[1]
        for attr in ("data", "indices", "indptr"):
            assert getattr(fast, attr).tobytes() == getattr(pushed, attr).tobytes()
        assert lm.egorov_residual(T2, sym, t, 4, K) == want


@pytest.mark.parametrize("K", [10, 20])
def test_quantize_of_a_twice_pushed_symbol_is_the_quantized_push(K):
    # every push's phase is one array product, innermost first
    sym = _counted_symbol()
    twice = sp.quantize(T2, sym.pushed(0.35).pushed(0.6), K).matrix
    fast = sp._quantizations(T2, sym.pushed(0.35), K, t=0.6)[1]
    for attr in ("data", "indices", "indptr"):
        assert getattr(twice, attr).tobytes() == getattr(fast, attr).tobytes()


def test_egorov_shell_norm_matches_dense_svd():
    # the K = 20 shell [8, 16) is 600 x 600: large enough for ARPACK
    sym, t, K = sp.cosine_symbol(), 1.0, 20
    a_op = sp.quantize(T2, sym, K)
    idx = sp.shell_indices(a_op.domain, 8, 16)
    assert idx.size > sp._DENSE_SIDE
    diff = lm.evolve_observable(a_op, t).matrix - sp.quantize(T2, sym.pushed(t), K).matrix
    want = np.linalg.norm(diff.toarray()[np.ix_(idx, idx)], 2)
    got = lm.egorov_residual(T2, sym, t, 8, K)
    assert abs(got - want) <= 1e-12 * want


def test_egorov_shell_norm_past_a_stalled_arpack_matches_dense_svd(monkeypatch):
    # T^2 Egorov shells [8, 16) at K = 20 of quantize_egorov benchmark ops
    # (seed 55 ops 298 and 418, seed 222 op 573).  The first has top singular
    # value 0.01903 of multiplicity 4 with the next cluster 0.6 % below; the
    # complex svds stalled on it and took the dense SVD.  The real Gram
    # matrix's Lanczos resolves all three without it.
    cases = [((-0.6537359343827138, -0.006570511794595113, 0.8598794015845592),
              1.2657932713299114),
             ((-0.7847645723148835, 0.09042804901905921, -0.585182214349016),
              1.308927454293278),
             ((0.9148917966852315, -0.10745037360374643, 0.6691749895352901),
              1.074941488338381)]
    K = 20
    subs, wants = [], []
    for c, t in cases:
        sym = _benchmark_symbol(c)
        a_op = sp.quantize(T2, sym, K)
        idx = sp.shell_indices(a_op.domain, 8, 16)
        diff = lm.evolve_observable(a_op, t).matrix - sp.quantize(T2, sym.pushed(t), K).matrix
        subs.append(diff.tocsr()[np.ix_(idx, idx)])
        wants.append(np.linalg.norm(subs[-1].toarray(), 2))

    def no_dense_svd(*args, **kwargs):
        raise AssertionError("dense SVD taken")

    monkeypatch.setattr(np.linalg, "norm", no_dense_svd)
    for (c, t), sub, want in zip(cases, subs, wants):
        assert abs(sp.spectral_norm(sub) - want) <= 1e-12 * want
        assert abs(lm.egorov_residual(T2, _benchmark_symbol(c), t, 8, K) - want) <= 1e-12 * want


def test_egorov_residual_rejects_non_finite_time():
    # rejected before any coefficient is called
    sym = _counted_symbol()
    for t in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="not finite"):
            lm.egorov_residual(T2, sym, t, 4, 10)
    assert [c.calls for c in sym.terms.values()] == [0, 0, 0]


def test_times_that_are_not_real_are_rejected():
    # a complex t used to give an Egorov residual (20.55 for cos at 0.5j),
    # and a NaN heat time a NaN state with a RuntimeWarning
    sym = _counted_symbol()
    for t in (0.5j, np.complex128(0.5), "0.5", np.array(0.5j), np.array([0.5])):
        with pytest.raises(ValueError, match="not real"):
            lm.egorov_residual(T2, sym, t, 2, 8)
    assert [c.calls for c in sym.terms.values()] == [0, 0, 0]
    sm = sp.basis_for(T2, "functions", 4)
    for t in (np.nan, np.inf, np.array(np.nan)):
        with pytest.raises(ValueError, match="not finite"):
            lm.heat_state(sm, t)
    for t in (0.5j, None, np.array(0.5j)):
        with pytest.raises(ValueError, match="not real"):
            lm.heat_state(sm, t)
    # a real time of any numeric type, a 0-d array included, is taken
    for t in (np.float32(0.5), np.array(0.5), fractions.Fraction(1, 2)):
        assert lm.heat_state(sm, t).t == 0.5
    cos = sp.cosine_symbol()
    assert (lm.egorov_residual(T2, cos, np.array(0.5), 2, 8)
            == lm.egorov_residual(T2, cos, 0.5, 2, 8))


def test_egorov_shell_is_byte_equal_to_the_full_quantization_route():
    # the shell-only difference, compressed, against the compression of the
    # full one: same data, indices and indptr
    for c, t, shell, K in [((0.3, -0.8, 0.5), 1.1, 8, 20), ((-0.6, 0.2, 0.9), 0.7, 2, 10)]:
        sym = _benchmark_symbol(c)
        full = sp.quantize(T2, sym, K)
        sm = full.domain
        idx = sp.shell_indices(sm, shell, 2 * shell)
        keep = np.zeros(sm.dim, dtype=bool)
        keep[idx] = True
        routes = [sp._quantizations(T2, sym, K, mask, t) for mask in (None, keep)]
        subs = [(lm.evolve_observable(sp.OperatorMatrix(matrix=a, order=0, domain=sm), t).matrix
                 - push).tocsr()[np.ix_(idx, idx)] for a, push in routes]
        for attr in ("data", "indices", "indptr"):
            assert getattr(subs[0], attr).tobytes() == getattr(subs[1], attr).tobytes()
            assert getattr(routes[0][0], attr).tobytes() == getattr(full.matrix, attr).tobytes()
        # the kept entries are quantize's own, bit for bit
        part = routes[1][0]
        inside = full.matrix[np.ix_(idx, idx)]
        assert (inside != part[np.ix_(idx, idx)]).nnz == 0
        assert part.nnz == inside.nnz


# ---------------------------------------------------------------------------
# negative-order decay


@pytest.mark.parametrize("axis", [0, 1])
def test_resolvent_times_cosine_decays_over_dyadic_shells(axis):
    sm = sp.basis_for(T2, "functions", 20)
    r = sp.compose(sp.resolvent_sqrt_inverse(sm), sp.quantize(T2, sp.cosine_symbol(axis), 20))
    assert r.order == -1
    report = lm.negative_order_decay(sm, r, (2, 4, 8))
    assert [s for s, _, _ in report.rows] == [2.0, 4.0, 8.0]
    for shell, norm, diag_max in report.rows:
        # the shell compression is (Delta + 1)^{-1/2} <= (s^2 + 1)^{-1/2} times
        # a compression of multiplication by cos, whose norm is at most 1
        assert 0.0 < norm <= (shell ** 2 + 1) ** -0.5
        assert diag_max == 0.0  # cos has no zero Fourier mode
    assert report.ratios_in()
    assert not lm.negative_order_decay(sm, r, (1, 2, 4, 8)).ratios_in()


def test_negative_order_decay_rejects_a_shell_past_the_truncation():
    # K = 20 stops at frequency 28.3: [16, 32) would be a partial shell
    sm = sp.basis_for(T2, "functions", 20)
    r = sp.compose(sp.resolvent_sqrt_inverse(sm), sp.quantize(T2, sp.cosine_symbol(0), 20))
    with pytest.raises(ValueError, match="exceeds the truncation"):
        lm.negative_order_decay(sm, r, (4, 16))
    with pytest.raises(ValueError, match="empty frequency shell"):
        lm.negative_order_decay(sm, r, (0.1,))


def test_basis_checks_take_equal_labels_and_reject_another_basis():
    sm = sp.basis_for(T2, "functions", 6)
    a_op = sp.quantize(T2, sp.cosine_symbol(0), 6)
    twin = dataclasses.replace(sm)
    assert twin is not sm and twin.labels == sm.labels
    twin_op = dataclasses.replace(a_op, domain=twin, codomain=twin)
    state = lm.cesaro_state(sm, 12)
    assert lm.evaluate(state, twin_op) == lm.evaluate(state, a_op)
    assert lm.negative_order_decay(sm, twin_op, (2,)) == lm.negative_order_decay(sm, a_op, (2,))
    assert (sp.compose(twin_op, a_op).matrix != (a_op.matrix @ a_op.matrix)).nnz == 0
    other = sp.quantize(T2, sp.cosine_symbol(0), 5)
    with pytest.raises(ValueError):
        lm.evaluate(state, other)
    with pytest.raises(ValueError):
        lm.negative_order_decay(sm, other, (2,))
    with pytest.raises(ValueError):
        sp.compose(other, a_op)


# ---------------------------------------------------------------------------
# compare_states


def test_compare_states_rows_equal_full_operator_states():
    sphere = sp.sphere_multiplication(6, lambda th, ph: np.cos(th) ** 2 + np.sin(th) * np.sin(ph))
    torus = sp.quantize(T2, sp.cosine_symbol(axis=0, dim=2), 6)
    for a_op in (sphere, torus):
        sm = a_op.domain
        report = lm.compare_states(sm, a_op, resolution=4)
        assert report.cesaro_rows and report.heat_rows
        for n, val, _ in report.cesaro_rows:
            assert val == lm.evaluate(lm.cesaro_state(sm, n), a_op).value
        for t, val, _, _ in report.heat_rows:
            assert val == lm.evaluate(lm.heat_state(sm, t), a_op).value
    # the rungs keep the basis check
    with pytest.raises(ValueError):
        lm.compare_states(sp.basis_for(S2, "functions", 5), sphere, resolution=4)


def test_matrix_side_reads_csr_arrays_without_index_arrays_or_diags(monkeypatch):
    # the benchmark's operators, built first; then a CSR index array or a
    # scipy.sparse.diags call inside the matrix side of limits fails the test
    P, _, _ = sp.hodge_projections(T3, 1, 6)
    R = sp.helicity_R(T3, 6)
    mix = sp.OperatorMatrix(matrix=(R.matrix + 0.3 * P.matrix).tocsr(), order=0, domain=P.domain)
    dirac_sm, dirac = sp.build_dirac(T3, 8)
    _, plus, _ = sp.sign_and_halves(dirac)
    quant = sp.quantize(T2, _benchmark_symbol((0.3, -0.8, 0.5)), 20)
    smoothed = sp.compose(sp.resolvent_sqrt_inverse(quant.domain), quant)

    for cls in (scipy.sparse.csr_matrix, scipy.sparse.csr_array):
        def slices_only(self, key, getitem=cls.__getitem__):
            if not all(isinstance(k, (int, np.integer, slice))
                       for k in (key if isinstance(key, tuple) else (key,))):
                pytest.fail(f"CSR indexed by an index array: {key!r}")
            return getitem(self, key)
        monkeypatch.setattr(cls, "__getitem__", slices_only)

    def no_diags(*args, **kwargs):
        pytest.fail("scipy.sparse.diags called")

    monkeypatch.setattr(scipy.sparse, "diags", no_diags)
    with pytest.raises(pytest.fail.Exception):  # the guard is live
        P.matrix[np.ix_([0, 1], [0, 1])]
    assert P.matrix[2:4, 2:4].shape == (2, 2)
    assert lm.quantum_variance(P.domain, mix, P, 64, limit_value=0.3).n == 64
    assert len(lm.subspace_eigensections(P.domain, P)) > 64
    lm.compare_states(dirac_sm, plus, n_ladder=[8, 16, 32], t_ladder=[0.1, 0.05], resolution=4)
    lm.compare_states(quant.domain, quant, resolution=4)
    assert len(lm.negative_order_decay(quant.domain, smoothed, (2, 4, 8)).rows) == 3
