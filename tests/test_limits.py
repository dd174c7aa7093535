import numpy as np
import pytest

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
