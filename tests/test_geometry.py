import itertools
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from framelab import ResolutionError
from framelab import flows as fl
from framelab import geometry as geo
from framelab import spectral


TORUS2 = geo.flat_torus(2)
TORUS3 = geo.flat_torus(3)
SPHERE = geo.round_sphere()
OCT = geo.hyperbolic_octagon()

ALL_MODELS = [TORUS2, TORUS3, SPHERE, OCT]


def random_state(model, rng):
    if model.kind == geo.TORUS:
        p = rng.uniform(0, 2 * np.pi, size=model.dim)
        v = rng.normal(size=model.dim)
    elif model.kind == geo.SPHERE:
        p = np.array([rng.uniform(0.4, np.pi - 0.4), rng.uniform(0, 2 * np.pi)])
        v = rng.normal(size=2)
    else:
        r = 0.55 * np.sqrt(rng.uniform(0, 1))
        a = rng.uniform(0, 2 * np.pi)
        p = np.array([r * np.cos(a), r * np.sin(a)])
        v = rng.normal(size=2)
    return geo.unit_speed(model, p, v)


# ---------------------------------------------------------------------------
# metric


def test_metric_torus_identity():
    assert np.array_equal(geo.metric_at(TORUS2, [0.3, 5.1]), np.eye(2))
    assert np.array_equal(geo.metric_at(TORUS3, [0.3, 5.1, 2.0]), np.eye(3))


def test_metric_sphere_equator():
    g = geo.metric_at(SPHERE, [np.pi / 2, 0.0])
    assert np.allclose(g, np.diag([1.0, 1.0]), atol=1e-15)


def test_metric_octagon_origin():
    # Poincare factor (2 / (1 - |z|^2))^2 = 4 at z = 0
    g = geo.metric_at(OCT, [0.0, 0.0])
    assert np.allclose(g, np.diag([4.0, 4.0]), atol=1e-15)


def test_metric_octagon_closed_form():
    z = 0.21 - 0.34j
    lam2 = (2.0 / (1.0 - abs(z) ** 2)) ** 2
    g = geo.metric_at(OCT, [z.real, z.imag])
    assert np.allclose(g, lam2 * np.eye(2), rtol=1e-14)


def test_metric_at_is_the_diagonal_bitwise():
    # one conformal factor for the checked matrix and the batched diagonal
    rng = np.random.default_rng(0)
    for _ in range(2000):
        p = fl.random_frame_point(OCT, rng).point
        assert np.array_equal(geo.metric_at(OCT, p), np.diag(geo._metric_diagonal(OCT, p)))


@pytest.mark.parametrize("res", [24, 80])
def test_octagon_nodes_use_the_metric_diagonal_bitwise(res):
    # base weights lambda^2 and direction scales lambda from the one conformal factor
    points, dirs, weights = geo.unit_bundle_nodes(OCT, res)
    g = geo._metric_diagonal(OCT, points)
    assert np.array_equal(weights, g[:, 0])
    a = np.arange(res) * (2 * np.pi / res)
    fibre = np.tile(np.column_stack([np.cos(a), np.sin(a)]), (len(points) // res, 1))
    assert np.array_equal(dirs, fibre / np.sqrt(g))


def test_metric_domain_errors():
    with pytest.raises(ValueError):
        geo.metric_at(SPHERE, [0.0, 0.3])
    with pytest.raises(ValueError):
        geo.metric_at(OCT, [0.95, 0.0])


def test_octagon_pairings_unit_det():
    # SU(1,1) matrices; P_{k+4} inverts P_k, and P_k maps the midpoint of
    # side k+4 to the midpoint of side k
    pairs = OCT.side_pairings
    mid = geo._OCT_RHO_MID * geo._OCT_DIRS
    for k, m in enumerate(pairs):
        assert abs(np.linalg.det(m) - 1.0) <= 1e-12
        assert m[1, 1] == np.conj(m[0, 0]) and m[1, 0] == np.conj(m[0, 1])
        assert np.abs(pairs[(k + 4) % 8] @ m - np.eye(2)).max() <= 1e-12
        w = mid[(k + 4) % 8]
        assert abs((m[0, 0] * w + m[0, 1]) / (m[1, 0] * w + m[1, 1]) - mid[k]) <= 1e-12


def test_model_constants_follow_from_the_kind():
    # a model built from its kind alone has the octagon's own constants
    bare = geo.ManifoldModel(kind=geo.OCTAGON, dim=2)
    assert bare.curvature == -1.0
    assert bare.side_pairings is geo.hyperbolic_octagon().side_pairings
    assert geo.ManifoldModel(kind=geo.SPHERE, dim=2).curvature == 1.0
    assert TORUS2.curvature == TORUS3.curvature == 0.0
    assert TORUS2.side_pairings is SPHERE.side_pairings is None
    with pytest.raises(TypeError):  # derived, so not settable
        geo.ManifoldModel(kind=geo.SPHERE, dim=2, curvature=5.0)


def test_models_compare_and_hash_by_value():
    assert geo.flat_torus(2) == geo.flat_torus(2)
    assert hash(geo.flat_torus(2)) == hash(geo.flat_torus(2))
    assert geo.flat_torus(2) != geo.flat_torus(2, periods=(1.0, 2.5))
    assert geo.hyperbolic_octagon() == OCT != SPHERE


@pytest.mark.parametrize("kind,dim,periods", [
    (geo.TORUS, 2, None), (geo.TORUS, 2, (1.0,)), (geo.TORUS, 2, (1.0, 0.0)),
    (geo.TORUS, 2, (1.0, float("nan"))), (geo.TORUS, 3, (1.0, float("inf"), 2.0)),
    (geo.TORUS, 2, (-1.0, 2.0)), (geo.TORUS, 2, 3.0), (geo.TORUS, 2, [[1.0], [2.0]]),
    (geo.SPHERE, 2, (1.0, 1.0)), (geo.OCTAGON, 2, ()),
], ids=["torus-none", "torus-short", "torus-zero", "torus-nan", "torus-inf",
        "torus-negative", "torus-scalar", "torus-nested", "sphere-periods", "octagon-periods"])
def test_model_rejects_bad_periods(kind, dim, periods):
    with pytest.raises(ValueError):
        geo.ManifoldModel(kind=kind, dim=dim, periods=periods)


def test_model_periods_are_a_tuple_of_floats():
    # a list or array of periods gives the same hashable model as flat_torus
    listed = geo.ManifoldModel(kind=geo.TORUS, dim=2, periods=[1, 2.5])
    assert listed.periods == (1.0, 2.5) and type(listed.periods[0]) is float
    assert listed == geo.flat_torus(2, periods=np.array([1.0, 2.5]))
    assert hash(listed) == hash(geo.flat_torus(2, periods=(1.0, 2.5)))
    assert spectral.basis_for(listed, "functions", 2) is spectral.basis_for(
        geo.flat_torus(2, periods=(1.0, 2.5)), "functions", 2)


# ---------------------------------------------------------------------------
# geodesic flow


def test_torus_full_period():
    s = geo.PointState(np.array([0.0, 0.0]), np.array([1.0, 0.0]))
    out = geo.geodesic_advance(TORUS2, s, 2 * np.pi)
    assert np.allclose(out.point, [0.0, 0.0], atol=1e-12)
    assert np.allclose(out.velocity, [1.0, 0.0])


def test_sphere_great_circle_closes():
    s = geo.unit_speed(SPHERE, [np.pi / 2, 0.3], [0.0, 1.0])
    out = geo.geodesic_advance(SPHERE, s, 2 * np.pi)
    assert np.allclose(out.point, s.point, atol=1e-9)
    assert np.allclose(out.velocity, s.velocity, atol=1e-9)


def test_octagon_reversibility():
    rng = np.random.default_rng(7)
    for _ in range(10):
        s = random_state(OCT, rng)
        t = rng.uniform(0.5, 8.0)
        fwd = geo.geodesic_advance(OCT, s, t)
        back = geo.geodesic_advance(OCT, fwd, -t)
        assert np.allclose(back.point, s.point, atol=1e-9)
        assert np.allclose(back.velocity, s.velocity, atol=1e-9)


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind + str(m.dim))
def test_unit_speed_preserved(model):
    rng = np.random.default_rng(11)
    for _ in range(20):
        s = random_state(model, rng)
        out = geo.geodesic_advance(model, s, rng.uniform(0.1, 6.0))
        assert abs(geo.speed(model, out) - 1.0) < 1e-10


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind + str(m.dim))
def test_speed_scales_time(model):
    # a speed-2 state advanced 0.4 lands where the unit-speed state lands at 0.8
    rng = np.random.default_rng(17)
    for _ in range(10):
        s = random_state(model, rng)
        fast = geo.geodesic_advance(model, geo.PointState(s.point, 2.0 * s.velocity), 0.4)
        slow = geo.geodesic_advance(model, s, 0.8)
        assert np.abs(fast.point - slow.point).max() <= 1e-12
        assert np.abs(fast.velocity - 2.0 * slow.velocity).max() <= 1e-12
        assert abs(geo.speed(model, fast) - 2.0) <= 1e-12


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind + str(m.dim))
def test_flow_property(model):
    rng = np.random.default_rng(3)
    for _ in range(10):
        s = random_state(model, rng)
        t1, t2 = rng.uniform(0.2, 3.0, size=2)
        one = geo.geodesic_advance(model, s, t1 + t2)
        two = geo.geodesic_advance(model, geo.geodesic_advance(model, s, t1), t2)
        assert np.allclose(one.point, two.point, atol=1e-9)
        assert np.allclose(one.velocity, two.velocity, atol=1e-9)


def test_octagon_stays_in_domain():
    rng = np.random.default_rng(5)
    s = random_state(OCT, rng)
    for _ in range(60):
        s = geo.geodesic_advance(OCT, s, 0.37)
        assert geo.octagon_contains(complex(s.point[0], s.point[1]), tol=1e-12)


def test_octagon_contains_array_matches_scalar_loop():
    # reference: the per-point test, on the res-80 clipping grid and on points
    # within 1e-12 of the side circles
    rv = geo._OCT_RHO_VERTEX
    grid = -rv + (2.0 * rv / 80) * (np.arange(80) + 0.5)
    rng = np.random.default_rng(9)
    k = rng.integers(0, 8, size=4000)
    near = (geo._OCT_CENTERS[k] + (geo._OCT_CIRCLE_R + rng.uniform(-1e-12, 1e-12, 4000))
            * np.exp(1j * rng.uniform(0, 2 * np.pi, 4000)))
    for z in ((grid[:, None] + 1j * grid[None, :]).ravel(), near):
        want = [abs(c) < 1.0 and np.min(np.abs(c - geo._OCT_CENTERS))
                >= geo._OCT_CIRCLE_R - geo._BOUNDARY_TOL for c in z]
        mask = geo.octagon_contains(z)
        assert mask.shape == z.shape
        assert np.array_equal(mask, want)
        assert [geo.octagon_contains(c) for c in z] == want
    assert type(geo.octagon_contains(0.1 + 0.2j)) is bool


def _stacked_states(model, rng, count):
    states = [random_state(model, rng) for _ in range(count)]
    return geo.PointState(point=np.stack([s.point for s in states]),
                          velocity=np.stack([s.velocity for s in states]))


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind + str(m.dim))
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_batched_advance_matches_scalar_calls(model, seed, data):
    # times of either sign, past the octagon's 0.5 substep, broadcast (m, 1) or (m, N)
    count = data.draw(st.integers(1, 5))
    cols = data.draw(st.sampled_from([1, count]))
    t = data.draw(arrays(float, (data.draw(st.integers(1, 4)), cols),
                         elements=st.floats(-3.0, 3.0)))
    states = _stacked_states(model, np.random.default_rng(seed), count)
    out = geo.geodesic_advance(model, states, t)
    assert out.point.shape == out.velocity.shape == (len(t), count, model.dim)
    for k in range(len(t)):
        for j in range(count):
            one = geo.geodesic_advance(
                model, geo.PointState(states.point[j], states.velocity[j]), t[k, j % cols])
            assert np.abs(out.point[k, j] - one.point).max() <= 1e-12
            assert np.abs(out.velocity[k, j] - one.velocity).max() <= 1e-12


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind + str(m.dim))
def test_scalar_advance_keeps_shapes(model):
    s = random_state(model, np.random.default_rng(12))
    for t in (0.7, np.float64(-1.3), np.array(2.1)):
        out = geo.geodesic_advance(model, s, t)
        assert out.point.shape == out.velocity.shape == (model.dim,)
    batch = geo.geodesic_advance(model, _stacked_states(model, np.random.default_rng(13), 3), 0.4)
    assert batch.point.shape == (3, model.dim)


def test_octagon_rejects_non_finite_times():
    s = random_state(OCT, np.random.default_rng(14))
    for t in (np.nan, np.inf, np.array([0.3, -np.inf])):
        with pytest.raises(ValueError):
            geo.geodesic_advance(OCT, s, t)


@pytest.mark.parametrize("model", [TORUS2, TORUS3, SPHERE], ids=lambda m: m.kind + str(m.dim))
def test_flows_reject_non_finite_times(model):
    # tori and the sphere returned NaN states (the sphere inf with a
    # RuntimeWarning), and torus transport returned w unchanged
    rng = np.random.default_rng(15)
    s = random_state(model, rng)
    fp = fl.random_frame_point(model, rng)
    for t in (np.nan, np.inf, -np.inf, np.array([0.3, np.nan])):
        with pytest.raises(ValueError, match="finite"):
            geo.geodesic_advance(model, s, t)
        with pytest.raises(ValueError, match="finite"):
            fl.frame_flow(model, fp, t)
    for t in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            geo.parallel_transport(model, s, t, s.velocity)


def test_octagon_rejects_non_finite_states():
    # for one row and for a batch, before any arithmetic (no RuntimeWarning)
    good = geo.unit_speed(OCT, [0.1, -0.2], [0.3, 1.0])
    for bad in ([np.nan, 0.1], [0.1, np.nan], [np.inf, 0.2]):
        for state in (geo.PointState(np.array(bad), good.velocity),
                      geo.PointState(good.point, np.array(bad)),
                      geo.PointState(np.stack([good.point, bad, good.point]),
                                     np.stack([good.velocity] * 3))):
            with pytest.raises(ValueError, match="finite"):
                geo.geodesic_advance(OCT, state, 0.3)
            with pytest.raises(ValueError, match="finite"):
                next(geo.geodesic_samples(OCT, state, 0.1, 20, 20))


def test_octagon_rejects_points_off_the_disk():
    # on or outside the unit circle there is no SU(1,1) state: ValueError for
    # one row and for a batch, not NaN through sqrt (no RuntimeWarning)
    good = geo.unit_speed(OCT, [0.1, -0.2], [0.3, 1.0])
    for bad in ([1.2, 0.0], [0.8, 0.7], [1.0, 0.0], [0.0, -1.0]):
        for state in (geo.PointState(np.array(bad), np.array([0.1, 0.0])),
                      geo.PointState(np.stack([good.point, bad]),
                                     np.stack([good.velocity] * 2))):
            with pytest.raises(ValueError, match="unit disk"):
                geo.geodesic_advance(OCT, state, 0.3)
            with pytest.raises(ValueError, match="unit disk"):
                next(geo.geodesic_samples(OCT, state, 0.1, 20, 20))


def test_octagon_reentry_failure_is_a_resolution_error(monkeypatch):
    # identity pairings (c = 1, q = 0 on every side crossed) never bring the
    # state back inside, on the one-row kernel and on the array kernel
    identity = [[1.0, 1.0], [0.0, -0.0], [0.0, 0.0]]
    monkeypatch.setattr(geo, "_OCT_CROSSINGS", np.broadcast_to(identity, (8, 3, 2)))
    s = geo.unit_speed(OCT, [0.0, 0.0], [1.0, 0.0])
    for state in (s, geo.PointState(np.stack([s.point] * 2), np.stack([s.velocity, -s.velocity]))):
        with pytest.raises(ResolutionError, match="re-entry"):
            geo.geodesic_advance(OCT, state, 2.0)
    assert issubclass(ResolutionError, RuntimeError)


def _octagon_edge_point(rng):
    # within 1e-10 of a side circle (on its arc in the disk), of a vertex, or
    # anywhere in the fundamental domain
    kind, side = rng.integers(3), rng.integers(8)
    if kind == 0:
        w = geo._OCT_DIRS[side] * np.exp(1j * rng.uniform(-0.3, 0.3))
        return geo._OCT_CENTERS[side] - geo._OCT_CIRCLE_R * w * (1.0 + rng.uniform(-1e-10, 1e-10))
    if kind == 1:
        return (geo._OCT_RHO_VERTEX * geo._OCT_DIRS[side] * np.exp(1j * np.pi / 8)
                + complex(*rng.uniform(-1e-10, 1e-10, 2)))
    rv = geo._OCT_RHO_VERTEX
    while not geo.octagon_contains(z := complex(*rng.uniform(-rv, rv, 2))):
        pass
    return z


def test_octagon_one_row_kernel_is_the_array_kernel_bitwise(monkeypatch):
    # one row of `_oct_flow` against the same row inside a batch of 3; the
    # points near a side or a vertex reach the undecided band
    calls, fallbacks = [], 0
    reenter = geo._oct_reenter
    monkeypatch.setattr(geo, "_oct_reenter", lambda g: calls.append(g) or reenter(g))
    rng = np.random.default_rng(44)
    for _ in range(150):
        z = np.array([_octagon_edge_point(rng) for _ in range(3)])
        speed = rng.choice([1.0, 2.0, 0.5, 1e-3, 0.0], size=3)
        turn = rng.choice([1.0, 1j, -1j, np.exp(1j * rng.uniform(0, 2 * np.pi))], size=3)
        v = turn * speed * (1.0 - np.abs(z) ** 2) / 2
        a, b, s = (c.ravel() for c in geo._lift(OCT, np.column_stack([z.real, z.imag]),
                                                    np.column_stack([v.real, v.imag])))
        t = rng.choice([0.0, 0.5, -1.5, 3.0, rng.uniform(-3.0, 3.0)], size=3)
        k = int(rng.integers(1, 41))
        batch = geo._oct_flow(a, b, s, t, k)
        j = rng.integers(3)
        before = len(calls)
        one = geo._oct_flow(a[j:j + 1], b[j:j + 1], s[j:j + 1], t[j:j + 1], k)
        fallbacks += len(calls) - before
        assert one.shape == (2, k, 1)
        assert one.tobytes() == batch[:, :, j:j + 1].tobytes()
    assert fallbacks


def test_octagon_one_row_kernel_keeps_signed_zeros():
    # states on the real axis heading along it have exact zero components,
    # whose signs both kernels' real arithmetic must give alike
    for x, y, vx, vy in itertools.product([0.0, -0.0, 0.3, -0.3], [0.0, -0.0],
                                          [0.3, -0.3], [0.0, -0.0]):
        a, b, s = (c.ravel() for c in geo._lift(OCT, np.array([[x, y], [0.1, 0.2]]),
                                                    np.array([[vx, vy], [0.2, 0.1]])))
        for t in (0.0, 0.5, -0.5):
            batch = geo._oct_flow(a, b, s, np.full(2, t), 2)
            one = geo._oct_flow(a[:1], b[:1], s[:1], np.full(1, t), 2)
            assert one.tobytes() == batch[:, :, :1].tobytes()


def _octagon_unit_states(rng, count):
    # uniform base points in the whole fundamental domain, uniform directions
    rv = geo._OCT_RHO_VERTEX
    z = rng.uniform(-rv, rv, size=(8 * count, 2))
    z = z[geo.octagon_contains(z[:, 0] + 1j * z[:, 1])][:count]
    a = rng.uniform(0, 2 * np.pi, size=count)
    states = [geo.unit_speed(OCT, p, [np.cos(t), np.sin(t)]) for p, t in zip(z, a)]
    return geo.PointState(point=np.stack([s.point for s in states]),
                          velocity=np.stack([s.velocity for s in states]))


@pytest.mark.parametrize("t", [0.3, 2.0, 5.0])
def test_octagon_advance_matches_the_chart_step_oracle(t):
    states = _octagon_unit_states(np.random.default_rng(41), 200)
    out = geo.geodesic_advance(OCT, states, t)
    for j in range(200):
        z, v = oracles.octagon_chart_advance(complex(*states.point[j]),
                                             complex(*states.velocity[j]), t)
        assert np.abs(out.point[j] - [z.real, z.imag]).max() <= 1e-12
        assert np.abs(out.velocity[j] - [v.real, v.imag]).max() <= 1e-12


@pytest.mark.parametrize("t, tol", [(2.0, 5e-14), (5.0, 1e-12)])
def test_octagon_advance_matches_the_50_digit_su11_referee(t, tol):
    # the same SU(1,1) chain in 50-digit arithmetic; the tolerance allows the
    # flow's chaotic growth of double rounding (about 5e-15 at T = 2 and
    # 1.3e-13 at T = 5 on such states)
    states = _octagon_unit_states(np.random.default_rng(45), 8)
    batch = geo.geodesic_advance(OCT, states, t)
    for j in range(8):
        z, v = oracles.octagon_su11_referee(complex(*states.point[j]),
                                            complex(*states.velocity[j]), t)
        one = geo.geodesic_advance(OCT, geo.PointState(states.point[j], states.velocity[j]), t)
        for out in (geo.PointState(batch.point[j], batch.velocity[j]), one):
            assert np.abs(out.point - [z.real, z.imag]).max() <= tol
            assert np.abs(out.velocity - [v.real, v.imag]).max() <= tol


def _octagon_anchor_chain(count):
    # the 798-hop anchor chain of a 4,000-sample block at dt 0.1: one substep
    # of 0.5 per hop, for `count` unit-speed rows
    states = _octagon_unit_states(np.random.default_rng(46), count)
    a, b, s = (c.ravel() for c in geo._lift(OCT, states.point, states.velocity))
    return a, b, s, np.full(count, 0.5)


def test_octagon_long_anchor_chain_is_the_batch_row_bitwise(monkeypatch):
    # after every substep one row equals its row in a batch of 16, whose
    # rows outside pair one at a time on Python floats or all on arrays, and
    # |a|^2 - |b|^2 - 1, evaluated exactly, stays within 4 eps of the scale
    # |a|^2 + |b|^2 at which its four squares round
    a, b, s, t = _octagon_anchor_chain(16)
    batch = geo._oct_flow(a, b, s, t, 798)
    monkeypatch.setattr(geo, "_OCT_FEW_ROWS", 0)
    assert geo._oct_flow(a, b, s, t, 798).tobytes() == batch.tobytes()
    monkeypatch.undo()
    for j in range(16):
        one = geo._oct_flow(a[j:j + 1], b[j:j + 1], s[j:j + 1], t[j:j + 1], 798)
        assert one.tobytes() == batch[:, :, j:j + 1].tobytes()
    eps = np.finfo(float).eps
    for x, y in zip(batch[0].ravel().tolist(), batch[1].ravel().tolist()):
        residual = (Fraction(x.real) ** 2 + Fraction(x.imag) ** 2
                    - Fraction(y.real) ** 2 - Fraction(y.imag) ** 2 - 1)
        assert abs(residual) <= 4 * eps * (abs(x) ** 2 + abs(y) ** 2)


def test_octagon_decided_row_substeps_make_no_numpy_call(monkeypatch):
    # the anchor chain of one row with `geometry.np` counting its calls: a
    # substep decided on Python floats, with or without side pairings, makes
    # none; only `_oct_reenter`, the fallback of an undecided state, may
    calls, depth, fallbacks = [], [0], []

    class CountingNumpy:
        def __getattr__(self, name):
            attr = getattr(np, name)
            if not callable(attr):
                return attr

            def counted(*args, **kwargs):
                if depth[0]:
                    calls.append(name)
                return attr(*args, **kwargs)
            return counted

    substep, reenter = geo._oct_row_substep, geo._oct_reenter

    def counting_substep(*args):
        depth[0] += 1
        try:
            return substep(*args)
        finally:
            depth[0] -= 1

    def uncounted_fallback(g):
        fallbacks.append(g)
        depth[0] -= 1
        try:
            return reenter(g)
        finally:
            depth[0] += 1

    a, b, s, t = (x[:1] for x in _octagon_anchor_chain(1))
    want = geo._oct_flow(a, b, s, t, 798)
    monkeypatch.setattr(geo, "np", CountingNumpy())
    monkeypatch.setattr(geo, "_oct_row_substep", counting_substep)
    monkeypatch.setattr(geo, "_oct_reenter", uncounted_fallback)
    got = geo._oct_flow(a, b, s, t, 798)
    monkeypatch.undo()
    assert got.tobytes() == want.tobytes()
    assert calls == []
    assert len(fallbacks) < 0.05 * 798
    # the chain crosses sides: many boosted states lie outside the octagon
    g = np.concatenate([np.stack([a, b])[:, None], want[:, :-1]], axis=1)[..., 0]
    c, sh = np.cosh(0.5 * s * 0.5), np.sinh(0.5 * s * 0.5)
    boosted_a, boosted_b = g[0] * c + g[1] * sh, g[0] * sh + g[1] * c
    assert (~geo.octagon_contains(boosted_b / np.conj(boosted_a))).sum() > 100


def test_sphere_batch_with_pole_bound_row_views_nan_velocity():
    # the second row heads north from the equator and reaches the pole at t = pi/2
    s = geo.PointState(point=np.array([[np.pi / 2, 0.3], [np.pi / 2, 0.3]]),
                       velocity=np.array([[0.0, 1.0], [-1.0, 0.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = geo.geodesic_advance(SPHERE, s, np.pi / 2)
        alone = geo.geodesic_advance(SPHERE, geo.PointState(s.point[0], s.velocity[0]), np.pi / 2)
    assert np.isnan(out.velocity[1]).all()
    assert 0.0 <= out.point[1, 0] < 1e-15
    assert np.array_equal(out.point[0], alone.point)
    assert np.array_equal(out.velocity[0], alone.velocity)


@pytest.mark.parametrize("theta", [1e-3, 1e-6, 1e-9])
def test_sphere_meridian_keeps_polar_precision(theta):
    # a meridian from the equator that stops theta short of the north pole
    s = geo.unit_speed(SPHERE, [np.pi / 2, 0.3], [-1.0, 0.0])
    t = np.pi / 2 - theta
    out = geo.geodesic_advance(SPHERE, s, t)
    assert abs(out.point[0] - (np.pi / 2 - t)) <= 1e-15


def test_sphere_zero_speed_state_unchanged():
    # the last row rests on the pole, where the chart has no velocity components
    s = geo.PointState(point=np.array([[0.8, 1.1], [1.2, 4.0], [0.0, 0.0]]),
                       velocity=np.array([[0.0, 0.0], [0.6, 0.1], [0.0, 0.0]]))
    out = geo.geodesic_advance(SPHERE, s, np.array([[0.0], [1.5], [-7.0]]))
    for row in (0, 2):
        assert np.array_equal(out.point[:, row], np.broadcast_to(s.point[row], (3, 2)))
        assert np.array_equal(out.velocity[:, row], np.zeros((3, 2)))
    moved = geo.geodesic_advance(SPHERE, geo.PointState(s.point[1], s.velocity[1]), 1.5)
    assert np.allclose(out.point[1, 1], moved.point, atol=1e-14)
    for row in (0, 2):
        alone = geo.geodesic_advance(SPHERE, geo.PointState(s.point[row], s.velocity[row]), 2.0)
        assert np.array_equal(alone.point, s.point[row])
        assert np.array_equal(alone.velocity, s.velocity[row])


def test_octagon_samples_keep_a_non_unit_speed():
    # 40 samples at dt 0.1 span eight anchor groups of five; a block of at most
    # 12 samples stops at its last whole group
    unit = geo.unit_speed(OCT, [0.1, 0.05], [1.0, 0.3])
    start = geo.PointState(point=unit.point, velocity=2.0 * unit.velocity)
    dt, count = 0.1, 40
    blocks = list(geo.geodesic_samples(OCT, start, dt, count, 12))
    assert [len(b.point) for b in blocks] == [10, 10, 10, 10]
    out = geo.PointState(np.concatenate([b.point for b in blocks]),
                         np.concatenate([b.velocity for b in blocks]))
    assert out.point.shape == out.velocity.shape == (count, 2)
    for k in range(count):
        one = geo.geodesic_advance(OCT, start, k * dt)
        assert np.abs(out.point[k] - one.point).max() <= 1e-12
        assert np.abs(out.velocity[k] - one.velocity).max() <= 1e-12
        assert abs(geo.speed(OCT, geo.PointState(out.point[k], out.velocity[k])) - 2.0) <= 1e-12


def test_octagon_resting_state_unchanged():
    rest = geo.PointState(np.array([0.1, 0.2]), np.array([0.0, 0.0]))
    for t in (1.0, -3.0, 0.0):
        out = geo.geodesic_advance(OCT, rest, t)
        assert np.array_equal(out.point, rest.point)
        assert np.array_equal(out.velocity, rest.velocity)
    # a resting row beside a moving one leaves the moving row as it is alone
    move = random_state(OCT, np.random.default_rng(31))
    batch = geo.PointState(np.stack([rest.point, move.point]),
                           np.stack([rest.velocity, move.velocity]))
    out = geo.geodesic_advance(OCT, batch, np.array([1.7, 1.7]))
    alone = geo.geodesic_advance(OCT, move, 1.7)
    assert np.array_equal(out.point[0], rest.point)
    assert np.array_equal(out.velocity[0], rest.velocity)
    assert np.array_equal(out.point[1], alone.point)
    assert np.array_equal(out.velocity[1], alone.velocity)


def _per_hop_samples(model, state, dt, count):
    # one `_flow` call per anchor group of h = max(1, floor(0.5 / dt)) samples,
    # each from the group state of the last sample of the group before
    hop = max(1, int(geo._MAX_SUBSTEP / dt))
    anchor = geo._lift(model, state.point, state.velocity)
    points, velocities = [], []
    for first in range(0, count, hop):
        n = min(hop, count - first)
        offsets = np.arange(n) if first == 0 else np.arange(1, n + 1)
        g = geo._flow(model, anchor, (offsets * dt)[:, None])
        out = geo._chart(model, g, state)
        points.append(out.point)
        velocities.append(out.velocity)
        anchor = tuple(c[-1] for c in g)
    return np.concatenate(points), np.concatenate(velocities)


@pytest.mark.parametrize("dt", [0.1, 0.07, 0.8])
def test_octagon_sample_chain_of_mixed_speeds_matches_per_hop_flows(dt):
    # speeds 1, 2 and 0.5 and a resting row; at dt 0.8 a hop takes two substeps
    rng = np.random.default_rng(42)
    unit = [random_state(OCT, rng) for _ in range(4)]
    state = geo.PointState(np.stack([s.point for s in unit]),
                           np.stack([k * s.velocity for k, s in zip([1.0, 2.0, 0.5, 0.0], unit)]))
    count = 1500
    blocks = list(geo.geodesic_samples(OCT, state, dt, count, 400))
    assert len(blocks) >= 4
    points, velocities = _per_hop_samples(OCT, state, dt, count)
    assert np.array_equal(np.concatenate([b.point for b in blocks]), points)
    assert np.array_equal(np.concatenate([b.velocity for b in blocks]), velocities)
    assert np.array_equal(points[:, 3], np.broadcast_to(state.point[3], (count, 2)))


def test_octagon_sample_block_chains_anchors_in_two_flow_calls(monkeypatch):
    # one block of 4,000 samples at dt 0.1 is 800 anchor groups: the chain takes
    # two `_oct_flow` calls (the first hop, then the rest) and the samples one
    calls = []
    flow = geo._oct_flow
    monkeypatch.setattr(geo, "_oct_flow", lambda *a: calls.append(a) or flow(*a))
    state = random_state(OCT, np.random.default_rng(43))
    blocks = list(geo.geodesic_samples(OCT, state, 0.1, 4000, 4096))
    assert [len(b.point) for b in blocks] == [4000]
    assert len(calls) <= 3


def test_octagon_sample_chain_runs_off_the_array_reentry(monkeypatch):
    # the 4,000-sample block at dt 0.1 chains 800 one-row substeps: fewer than
    # 5 % of them may fall back to the array re-entry
    rows = []
    reenter = geo._oct_reenter
    monkeypatch.setattr(geo, "_oct_reenter", lambda g: rows.append(g.shape[1]) or reenter(g))
    state = random_state(OCT, np.random.default_rng(43))
    assert len(next(geo.geodesic_samples(OCT, state, 0.1, 4000, 4096)).point) == 4000
    assert rows.count(1) < 0.05 * 800


# ---------------------------------------------------------------------------
# parallel transport


def test_torus_transport_trivial():
    s = geo.PointState(np.array([0.2, 0.4]), np.array([1.0, 0.0]))
    w = np.array([0.3, -1.2])
    assert np.array_equal(geo.parallel_transport(TORUS2, s, 3.7, w), w)


def test_sphere_transport_keeps_angle_to_tangent():
    s = geo.unit_speed(SPHERE, [np.pi / 2, 0.0], [0.0, 1.0])
    w = np.array([1.0, 0.0])  # northward unit vector on the equator
    t = np.pi / 2
    w2 = geo.parallel_transport(SPHERE, s, t, w)
    end = geo.geodesic_advance(SPHERE, s, t)
    g = geo.metric_at(SPHERE, end.point)
    # norm preserved and angle to the transported tangent preserved (pi/2)
    assert abs(np.sqrt(w2 @ g @ w2) - 1.0) < 1e-10
    assert abs(w2 @ g @ end.velocity) < 1e-10


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind + str(m.dim))
def test_transport_preserves_inner_products(model):
    rng = np.random.default_rng(23)
    for _ in range(8):
        s = random_state(model, rng)
        w1 = rng.normal(size=model.dim)
        w2 = rng.normal(size=model.dim)
        t = rng.uniform(0.2, 2.5)
        g0 = geo.metric_at(model, s.point)
        u1 = geo.parallel_transport(model, s, t, w1)
        u2 = geo.parallel_transport(model, s, t, w2)
        g1 = geo.metric_at(model, geo.geodesic_advance(model, s, t).point)
        assert abs(u1 @ g1 @ u2 - w1 @ g0 @ w2) < 1e-10


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind + str(m.dim))
def test_transport_depends_on_the_path_not_the_speed(model):
    rng = np.random.default_rng(29)
    for _ in range(10):
        s = random_state(model, rng)
        w = rng.normal(size=model.dim)
        t = rng.uniform(0.2, 1.5)
        fast = geo.parallel_transport(model, geo.PointState(s.point, 2.0 * s.velocity), t, w)
        slow = geo.parallel_transport(model, s, 2.0 * t, w)
        assert np.abs(fast - slow).max() <= 1e-12 * max(1.0, np.abs(slow).max())


@pytest.mark.parametrize("model,t", [(SPHERE, 1.0), (OCT, 1.0)])
def test_transport_matches_rk4_oracle(model, t):
    rng = np.random.default_rng(4)
    for _ in range(4):
        s = random_state(model, rng)
        if model.kind == geo.OCTAGON:
            s = geo.unit_speed(model, 0.3 * s.point, s.velocity)
        w = rng.normal(size=2)
        closed = geo.parallel_transport(model, s, t, w)
        p_rk, v_rk, w_rk = oracles.parallel_transport_rk4(model, s, t, w, steps=4000)
        end = geo.geodesic_advance(model, s, t)
        assert np.allclose(p_rk, end.point, atol=1e-8)
        assert np.allclose(v_rk, end.velocity, atol=1e-8)
        assert np.allclose(w_rk, closed, atol=1e-8)


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind + str(m.dim))
def test_transport_along_zero_displacement_keeps_w(model):
    rng = np.random.default_rng(37)
    s = random_state(model, rng)
    w = rng.normal(size=model.dim)
    rest = geo.PointState(s.point, np.zeros(model.dim))
    for t in (0.0, 1.3, -2.0):
        assert np.array_equal(geo.parallel_transport(model, rest, t, w), w)
    assert np.array_equal(geo.parallel_transport(model, s, 0.0, w), w)


# ---------------------------------------------------------------------------
# holonomy


def test_holonomy_torus_zero():
    tri = [[0.1, 0.1], [1.0, 0.2], [0.4, 1.3]]
    assert geo.holonomy(TORUS2, tri) == 0.0


def test_holonomy_degenerate_polygon():
    with pytest.raises(ValueError):
        geo.holonomy(TORUS2, [[0.1, 0.1], [0.1, 0.1], [0.4, 1.3]])


def test_holonomy_sphere_octant():
    # north pole, (1,0,0), (0,1,0): spherical-excess oracle gives area pi/2
    tri = [[1e-9, 0.0], [np.pi / 2, 0.0], [np.pi / 2, np.pi / 2]]
    area = oracles.geodesic_polygon_area(SPHERE, tri)
    assert abs(area - np.pi / 2) < 1e-6
    hol = geo.holonomy(SPHERE, tri)
    assert abs(hol - np.pi / 2) < 1e-6


def test_holonomy_sphere_matches_area():
    rng = np.random.default_rng(2)
    for _ in range(5):
        th = rng.uniform(0.7, 1.3, size=3)
        ph = np.sort(rng.uniform(0, 1.5, size=3))
        tri = [[th[0], ph[0]], [th[1], ph[1]], [th[2], ph[2]]]
        area = oracles.geodesic_polygon_area(SPHERE, tri)
        hol = geo.holonomy(SPHERE, tri)
        assert abs((hol - SPHERE.curvature * area + np.pi) % (2 * np.pi) - np.pi) < 1e-6


def test_holonomy_octagon_triangle():
    # counterclockwise hyperbolic triangle: holonomy = -area (angle-defect oracle)
    tri = [[0.3, 0.0], [0.1, 0.35], [-0.25, 0.05]]
    area = oracles.geodesic_polygon_area(OCT, tri)
    assert area > 0.01
    hol = geo.holonomy(OCT, tri)
    assert abs(hol - (-area)) < 1e-6


def test_holonomy_octagon_random_polygons():
    rng = np.random.default_rng(9)
    for _ in range(5):
        ang = np.sort(rng.uniform(0, 2 * np.pi, size=4))
        rad = rng.uniform(0.15, 0.45, size=4)
        poly = [[r * np.cos(a), r * np.sin(a)] for r, a in zip(rad, ang)]
        area = oracles.geodesic_polygon_area(OCT, poly)
        hol = geo.holonomy(OCT, poly)
        assert abs((hol - OCT.curvature * area + np.pi) % (2 * np.pi) - np.pi) < 1e-6


def _sphere_triangle(data):
    # one vertex within [1e-9, 1e-3] of the north pole, two at mid latitudes
    unit = st.floats(0.0, 1.0)
    th0 = 10.0 ** data.draw(st.floats(-9.0, -3.0))
    ph1 = 1.5 * data.draw(unit)
    return [[th0, 2 * np.pi * data.draw(unit)], [0.3 + 1.1 * data.draw(unit), ph1],
            [0.3 + 1.1 * data.draw(unit), ph1 + 0.3 + 1.7 * data.draw(unit)]]


def _octagon_quadrilateral(data):
    # radius <= 0.6 keeps every vertex inside the octagon's inscribed circle
    unit = st.floats(0.0, 1.0)
    ang = 2 * np.pi * data.draw(unit) + np.cumsum([0.0] + [0.2 + 1.2 * data.draw(unit)
                                                           for _ in range(3)])
    rad = [0.1 + 0.5 * data.draw(unit) for _ in range(4)]
    return [[r * np.cos(a), r * np.sin(a)] for r, a in zip(rad, ang)]


@pytest.mark.parametrize("model,polygon", [(SPHERE, _sphere_triangle),
                                           (OCT, _octagon_quadrilateral)],
                         ids=["sphere", "octagon"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_holonomy_is_curvature_times_area(model, polygon, data):
    poly = polygon(data)
    area = oracles.geodesic_polygon_area(model, poly)
    hol = geo.holonomy(model, poly)
    assert abs((hol - model.curvature * area + np.pi) % (2 * np.pi) - np.pi) < 1e-6


def _seeded_sphere_triangle(rng):
    # `_sphere_triangle`'s law: one vertex at theta in [1e-9, 1e-3]
    th0, ph0, ph1 = 10.0 ** rng.uniform(-9.0, -3.0), rng.uniform(0, 2 * np.pi), rng.uniform(0, 1.5)
    return [[th0, ph0], [rng.uniform(0.3, 1.4), ph1],
            [rng.uniform(0.3, 1.4), ph1 + rng.uniform(0.3, 2.0)]]


def _seeded_octagon_quadrilateral(rng):
    # `_octagon_quadrilateral`'s law: radius <= 0.6
    ang = rng.uniform(0, 2 * np.pi) + np.cumsum([0.0] + list(rng.uniform(0.2, 1.4, size=3)))
    rad = rng.uniform(0.1, 0.6, size=4)
    return [[r * np.cos(a), r * np.sin(a)] for r, a in zip(rad, ang)]


@pytest.mark.parametrize("model,polygon", [(SPHERE, _seeded_sphere_triangle),
                                           (OCT, _seeded_octagon_quadrilateral)],
                         ids=["sphere-near-pole", "octagon"])
def test_holonomy_matches_the_area_oracle_to_1e_13(model, polygon):
    # the group-form edge flow keeps full precision a hair from a sphere pole,
    # where a chart round trip per edge lost up to 1.2e-7
    rng = np.random.default_rng(25)
    for _ in range(200):
        poly = polygon(rng)
        area = oracles.geodesic_polygon_area(model, poly)
        hol = geo.holonomy(model, poly)
        assert abs((hol - model.curvature * area + np.pi) % (2 * np.pi) - np.pi) <= 1e-13


@pytest.mark.parametrize("outside", [0.0, 1e-12, 1e-10])
def test_holonomy_with_vertices_on_the_octagon_boundary(outside):
    # vertices on a side, or just past it within the chart's 1e-9 margin: no
    # edge may be re-entered through a side pairing, which turned the
    # incoming direction and shifted the holonomy by about 0.1
    rng = np.random.default_rng(3)
    for side in range(8):
        centre = geo._OCT_CENTERS[side]
        z = centre - (geo._OCT_CIRCLE_R - outside) * centre / abs(centre) * np.exp(
            1j * rng.uniform(-0.1, 0.1, size=2))
        poly = [[z[0].real, z[0].imag], [0.1, 0.3], [-0.2, -0.1], [z[1].real, z[1].imag]]
        area = oracles.geodesic_polygon_area(OCT, poly)
        hol = geo.holonomy(OCT, poly)
        assert abs((hol + area + np.pi) % (2 * np.pi) - np.pi) <= 1e-13


@pytest.mark.parametrize("model,poly", [
    (SPHERE, [[np.pi / 2, 0.0], [np.pi / 2, np.pi], [0.5, 1.0]]),
    (SPHERE, [[0.5, 0.3], [0.5, 0.3], [1.0, 1.0]]),
    (SPHERE, [[0.5, 0.3], [1.0, 1.0], [0.5, 0.3]]),
    (OCT, [[0.3, 0.0], [0.3, 0.0], [0.1, 0.35]]),
    (OCT, [[0.3, 0.0], [0.1, 0.35], [0.3, 0.0]]),
    (TORUS2, [[0.1, 0.1], [1.0, 0.2]]),
    (SPHERE, [[0.5, 0.3], [1.0, 1.0]]),
    (OCT, [[0.3, 0.0], [0.1, 0.35]]),
], ids=["sphere-antipodal-edge", "sphere-repeated", "sphere-closing-repeated",
        "octagon-repeated", "octagon-closing-repeated", "torus-two-vertices",
        "sphere-two-vertices", "octagon-two-vertices"])
def test_holonomy_rejects_degenerate_polygons(model, poly):
    with pytest.raises(ValueError):
        geo.holonomy(model, poly)


def test_holonomy_rejects_vertices_outside_the_chart():
    with pytest.raises(ValueError):
        geo.holonomy(SPHERE, [[0.0, 0.0], [np.pi / 2, 0.0], [np.pi / 2, np.pi / 2]])
    with pytest.raises(ValueError):
        geo.holonomy(SPHERE, [[np.pi / 2, 0.0], [np.pi / 2, np.pi / 2], [0.0, 0.0]])
    with pytest.raises(ValueError):  # in the chart, but without directions
        geo.holonomy(SPHERE, [[1e-14, 0.0], [np.pi / 2, 0.0], [np.pi / 2, np.pi / 2]])
    with pytest.raises(ValueError):
        geo.holonomy(OCT, [[0.3, 0.0], [0.1, 0.35], [0.75, 0.0]])
    with pytest.raises(ValueError):
        geo.holonomy(OCT, [[0.3, 0.0], [1.5, 0.2], [0.1, 0.35]])


# ---------------------------------------------------------------------------
# frames


def test_gram_orthonormalize():
    rng = np.random.default_rng(1)
    p = np.array([0.2, -0.1])
    f = geo.gram_orthonormalize(OCT, p, rng.normal(size=(2, 2)))
    fp = geo.FramePoint(point=p, frame=f)
    assert geo.orthonormality_residual(OCT, fp) < 1e-12


@pytest.mark.parametrize("model", [geo.flat_torus(3, (1.0, 2.0, 1.5)), SPHERE, OCT])
def test_gram_orthonormalize_is_array_first(model):
    rng = np.random.default_rng(4)
    n = model.dim
    points = rng.uniform(0.3, 0.4, size=(4, 3, n))
    frames = rng.normal(size=(4, 3, n, n))
    out = geo.gram_orthonormalize(model, points, frames)
    assert out.shape == frames.shape
    assert (geo.orthonormality_residual(model, geo.FramePoint(points, out)) < 1e-12).all()
    for i in np.ndindex(4, 3):
        assert np.array_equal(out[i], geo.gram_orthonormalize(model, points[i], frames[i]))
    # the first column keeps its direction
    unit = lambda v: v / np.linalg.norm(v, axis=-1, keepdims=True)
    assert np.allclose(unit(out[..., 0]), unit(frames[..., 0]), atol=1e-12)


def test_gram_orthonormalize_rejects_points_outside_the_chart():
    frames = np.broadcast_to(np.eye(2), (2, 2, 2))
    with pytest.raises(ValueError, match="poles"):
        geo.gram_orthonormalize(SPHERE, np.array([[1.0, 0.3], [0.0, 0.3]]), frames)
    with pytest.raises(ValueError, match="octagon"):
        geo.gram_orthonormalize(OCT, np.array([[0.1, 0.2], [0.9, 0.0]]), frames)


@pytest.mark.parametrize("model", [geo.flat_torus(3, (1.0, 2.0, 1.5)), SPHERE, OCT])
def test_frame_residual_and_orientation_are_array_first(model):
    rng = np.random.default_rng(3)
    n = model.dim
    points = rng.uniform(0.3, 0.4, size=(4, 3, n))
    frames = rng.normal(size=(4, 3, n, n))
    batch = geo.FramePoint(point=points, frame=frames)
    residual = geo.orthonormality_residual(model, batch)
    oriented = geo.is_oriented(batch)
    assert residual.shape == oriented.shape == (4, 3)
    for i in np.ndindex(4, 3):
        one = geo.FramePoint(point=points[i], frame=frames[i])
        g = geo.metric_at(model, points[i])
        expect = np.abs(frames[i].T @ g @ frames[i] - np.eye(n)).max()
        assert isinstance(geo.orthonormality_residual(model, one), float)
        assert abs(residual[i] - expect) <= 1e-12 * max(1.0, expect)
        assert geo.is_oriented(one) is bool(oriented[i]) is bool(np.linalg.det(frames[i]) > 0)
