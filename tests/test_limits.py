import tracemalloc

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

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


def _two_quantize_residual(sym, t, shell, K):
    """The Egorov residual from the quantizations of sym and sym.pushed(t)."""
    a_op = sp.quantize(T2, sym, K)
    idx = sp.shell_indices(a_op.domain, shell, 2 * shell)
    pushed = sp.quantize(T2, sym.pushed(t), K).matrix
    diff = (lm.evolve_observable(a_op, t).matrix - pushed).tocsr()
    return sp.spectral_norm(diff[np.ix_(idx, idx)]), pushed


@pytest.mark.parametrize("shell", [2, 4])  # dense SVD, then ARPACK
def test_egorov_residual_quantizes_once(shell):
    t, K = 0.9, 10
    sym = _counted_symbol()
    sp.quantize(T2, sym, K)
    once = [c.calls for c in sym.terms.values()]
    assert min(once) > 0
    for c in sym.terms.values():
        c.calls = 0
    got = lm.egorov_residual(T2, sym, t, shell, K)
    assert [c.calls for c in sym.terms.values()] == once
    want, pushed = _two_quantize_residual(sym, t, shell, K)
    assert got == want
    fast = sp._quantized_push(sp.quantize(T2, sym, K), t)
    for attr in ("data", "indices", "indptr"):
        assert getattr(fast, attr).tobytes() == getattr(pushed, attr).tobytes()


def test_egorov_residual_of_a_pushed_symbol():
    # both routes multiply in each push's phase as one array product: the
    # quantized push-forward and the residual are bit for bit the same
    for K, t0, t in [(10, 0.35, 0.6), (20, 0.35, 0.6), (10, 0.2, 1.3), (20, 0.2, 1.3)]:
        sym = _counted_symbol().pushed(t0)
        want, pushed = _two_quantize_residual(sym, t, 4, K)
        fast = sp._quantized_push(sp.quantize(T2, sym, K), t)
        for attr in ("data", "indices", "indptr"):
            assert getattr(fast, attr).tobytes() == getattr(pushed, attr).tobytes()
        assert lm.egorov_residual(T2, sym, t, 4, K) == want


@pytest.mark.parametrize("K", [10, 20])
def test_quantize_of_a_twice_pushed_symbol_is_the_quantized_push(K):
    # every push's phase is one array product, innermost first
    sym = _counted_symbol()
    twice = sp.quantize(T2, sym.pushed(0.35).pushed(0.6), K).matrix
    fast = sp._quantized_push(sp.quantize(T2, sym.pushed(0.35), K), 0.6)
    for attr in ("data", "indices", "indptr"):
        assert getattr(twice, attr).tobytes() == getattr(fast, attr).tobytes()


def test_egorov_shell_norm_matches_dense_svd():
    # the K = 20 shell [8, 16) is 600 x 600: large enough for the sparse SVD
    sym, t, K = sp.cosine_symbol(), 1.0, 20
    a_op = sp.quantize(T2, sym, K)
    idx = sp.shell_indices(a_op.domain, 8, 16)
    assert idx.size > sp._DENSE_SIDE
    diff = lm.evolve_observable(a_op, t).matrix - sp.quantize(T2, sym.pushed(t), K).matrix
    want = np.linalg.norm(diff.toarray()[np.ix_(idx, idx)], 2)
    got = lm.egorov_residual(T2, sym, t, 8, K)
    assert abs(got - want) <= 1e-12 * want


def test_egorov_shell_norm_past_a_stalled_arpack_matches_dense_svd():
    # the T^2 Egorov shell [8, 16) at K = 20 of a quantize_egorov benchmark
    # op: its top singular value 0.01903 has multiplicity 4 and the next
    # cluster lies 0.6 % below, so ARPACK stalls and the dense SVD decides
    c = (-0.6537359343827138, -0.006570511794595113, 0.8598794015845592)
    t, K = 1.2657932713299114, 20
    sym = sp.TrigSymbol(terms={(1, 0): lambda xi: c[0] * xi[0] ** 2,
                               (-1, 0): lambda xi: c[0] * xi[0] ** 2,
                               (0, 1): lambda xi: c[1], (0, -1): lambda xi: c[1],
                               (0, 0): lambda xi: c[2] * xi[1] ** 2}, dim=2)
    a_op = sp.quantize(T2, sym, K)
    idx = sp.shell_indices(a_op.domain, 8, 16)
    diff = lm.evolve_observable(a_op, t).matrix - sp.quantize(T2, sym.pushed(t), K).matrix
    sub = diff.tocsr()[np.ix_(idx, idx)]
    with pytest.raises(scipy.sparse.linalg.ArpackNoConvergence):
        scipy.sparse.linalg.svds(sub.tocsc().astype(complex), k=1, return_singular_vectors=False,
                                 v0=np.random.default_rng(0).standard_normal(len(idx)),
                                 maxiter=sp._ARPACK_MAXITER)
    want = np.linalg.norm(sub.toarray(), 2)
    assert abs(sp.spectral_norm(sub) - want) <= 1e-12 * want
    assert abs(lm.egorov_residual(T2, sym, t, 8, K) - want) <= 1e-12 * want


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
