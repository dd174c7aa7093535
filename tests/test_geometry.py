import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from framelab import geometry as geo


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


def test_metric_domain_errors():
    with pytest.raises(ValueError):
        geo.metric_at(SPHERE, [0.0, 0.3])
    with pytest.raises(ValueError):
        geo.metric_at(OCT, [0.95, 0.0])


def test_octagon_pairings_unit_det():
    for m in OCT.side_pairings:
        assert abs(np.linalg.det(m) - 1.0) <= 1e-12


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


def test_sphere_batch_with_pole_bound_row_raises():
    # the second row heads north from the equator and reaches the pole at t = pi/2
    s = geo.PointState(point=np.array([[np.pi / 2, 0.3], [np.pi / 2, 0.3]]),
                       velocity=np.array([[0.0, 1.0], [-1.0, 0.0]]))
    geo.geodesic_advance(SPHERE, s, 0.5)
    with pytest.raises(ValueError):
        geo.geodesic_advance(SPHERE, s, np.pi / 2)


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


@pytest.mark.parametrize("model,t", [(SPHERE, 1.0), (OCT, 1.0)])
def test_transport_matches_rk4_oracle(model, t):
    rng = np.random.default_rng(4)
    for _ in range(4):
        s = random_state(model, rng)
        if model.kind == geo.OCTAGON:
            s = geo.unit_speed(model, 0.3 * s.point, s.velocity)
        w = rng.normal(size=2)
        closed = geo.parallel_transport(model, s, t, w)
        p_rk, v_rk, w_rk = geo.parallel_transport_rk4(model, s, t, w, steps=4000)
        end = geo.geodesic_advance(model, s, t)
        assert np.allclose(p_rk, end.point, atol=1e-8)
        assert np.allclose(v_rk, end.velocity, atol=1e-8)
        assert np.allclose(w_rk, closed, atol=1e-8)


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
    area = geo.geodesic_polygon_area(SPHERE, tri)
    assert abs(area - np.pi / 2) < 1e-6
    hol = geo.holonomy(SPHERE, tri)
    assert abs(hol - np.pi / 2) < 1e-6


def test_holonomy_sphere_matches_area():
    rng = np.random.default_rng(2)
    for _ in range(5):
        th = rng.uniform(0.7, 1.3, size=3)
        ph = np.sort(rng.uniform(0, 1.5, size=3))
        tri = [[th[0], ph[0]], [th[1], ph[1]], [th[2], ph[2]]]
        area = geo.geodesic_polygon_area(SPHERE, tri)
        hol = geo.holonomy(SPHERE, tri)
        assert abs((hol - SPHERE.curvature * area + np.pi) % (2 * np.pi) - np.pi) < 1e-6


def test_holonomy_octagon_triangle():
    # counterclockwise hyperbolic triangle: holonomy = -area (angle-defect oracle)
    tri = [[0.3, 0.0], [0.1, 0.35], [-0.25, 0.05]]
    area = geo.geodesic_polygon_area(OCT, tri)
    assert area > 0.01
    hol = geo.holonomy(OCT, tri)
    assert abs(hol - (-area)) < 1e-6


def test_holonomy_octagon_random_polygons():
    rng = np.random.default_rng(9)
    for _ in range(5):
        ang = np.sort(rng.uniform(0, 2 * np.pi, size=4))
        rad = rng.uniform(0.15, 0.45, size=4)
        poly = [[r * np.cos(a), r * np.sin(a)] for r, a in zip(rad, ang)]
        area = geo.geodesic_polygon_area(OCT, poly)
        hol = geo.holonomy(OCT, poly)
        assert abs((hol - OCT.curvature * area + np.pi) % (2 * np.pi) - np.pi) < 1e-6


# ---------------------------------------------------------------------------
# frames


def test_gram_orthonormalize():
    rng = np.random.default_rng(1)
    p = np.array([0.2, -0.1])
    f = geo.gram_orthonormalize(OCT, p, rng.normal(size=(2, 2)))
    fp = geo.FramePoint(point=p, frame=f)
    assert geo.orthonormality_residual(OCT, fp) < 1e-12


@pytest.mark.parametrize("model", [geo.flat_torus(3, (1.0, 2.0, 1.5)), SPHERE, OCT])
def test_frame_residual_and_orientation_are_array_first(model):
    rng = np.random.default_rng(3)
    n = model.dim
    points = rng.uniform(0.3, 0.4, size=(4, 3, n))
    frames = rng.normal(size=(4, 3, n, n))
    batch = geo.FramePoint(point=points, frame=frames)
    residual = geo.orthonormality_residual(model, batch)
    oriented = geo.is_oriented(model, batch)
    assert residual.shape == oriented.shape == (4, 3)
    for i in np.ndindex(4, 3):
        one = geo.FramePoint(point=points[i], frame=frames[i])
        g = geo.metric_at(model, points[i])
        expect = np.abs(frames[i].T @ g @ frames[i] - np.eye(n)).max()
        assert isinstance(geo.orthonormality_residual(model, one), float)
        assert abs(residual[i] - expect) <= 1e-12 * max(1.0, expect)
        assert geo.is_oriented(model, one) is bool(oriented[i]) is bool(np.linalg.det(frames[i]) > 0)
