import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from framelab import algebra as alg
from framelab import flows as fl
from framelab import geometry as geo


TORUS2 = geo.flat_torus(2)
TORUS3 = geo.flat_torus(3)
SPHERE = geo.round_sphere()
OCT = geo.hyperbolic_octagon()


# ---------------------------------------------------------------------------
# frame flow


def test_frame_flow_identity_at_zero():
    rng = np.random.default_rng(0)
    for model in (TORUS2, TORUS3, SPHERE, OCT):
        fp = fl.random_frame_point(model, rng)
        out = fl.frame_flow(model, fp, 0.0)
        assert np.allclose(out.point, fp.point, atol=1e-12)
        assert np.allclose(out.frame, fp.frame, atol=1e-12)


def test_frame_flow_torus_constant_frame():
    rng = np.random.default_rng(1)
    fp = fl.random_frame_point(TORUS3, rng)
    out = fl.frame_flow(TORUS3, fp, 2.3)
    assert np.allclose(out.frame, fp.frame, atol=1e-14)
    assert np.allclose(out.point, (fp.point + 2.3 * fp.frame[:, 0]) % (2 * np.pi),
                       atol=1e-12)


def test_frame_flow_sphere_great_circle_closure():
    rng = np.random.default_rng(2)
    fp = fl.random_frame_point(SPHERE, rng)
    out = fl.frame_flow(SPHERE, fp, 2 * np.pi)
    assert np.allclose(out.point, fp.point, atol=1e-9)
    assert np.allclose(out.frame, fp.frame, atol=1e-9)


@pytest.mark.parametrize("model", [TORUS2, TORUS3, SPHERE, OCT],
                         ids=lambda m: m.kind + str(m.dim))
def test_frame_flow_orthonormality(model):
    rng = np.random.default_rng(3)
    for _ in range(5):
        fp = fl.random_frame_point(model, rng)
        out = fl.frame_flow(model, fp, rng.uniform(0.5, 5.0))
        assert geo.orthonormality_residual(model, out) < 1e-10
        assert geo.is_oriented(out)


def test_frame_flow_group_law():
    rng = np.random.default_rng(4)
    for model in (TORUS3, OCT):
        fp = fl.random_frame_point(model, rng)
        t, s = 1.3, 0.9
        one = fl.frame_flow(model, fp, t + s)
        two = fl.frame_flow(model, fl.frame_flow(model, fp, t), s)
        assert np.allclose(one.point, two.point, atol=1e-9)
        assert np.allclose(one.frame, two.frame, atol=1e-9)


def test_orthonormality_drift_long_run():
    rng = np.random.default_rng(5)
    fp = fl.random_frame_point(OCT, rng)
    for _ in range(1000):
        fp = fl.frame_flow(OCT, fp, 1.0)
    assert geo.orthonormality_residual(OCT, fp) < 1e-10


def _stacked(fps):
    return geo.FramePoint(point=np.stack([fp.point for fp in fps]),
                          frame=np.stack([fp.frame for fp in fps]))


def _sphere_z(fp, t):
    """cos(theta) along the exact unit-speed great circle of a sphere frame point."""
    th = fp.point[0]
    return np.cos(th) * np.cos(t) - fp.frame[0, 0] * np.sin(th) * np.sin(t)


@pytest.mark.parametrize("model", [TORUS2, TORUS3, SPHERE, OCT],
                         ids=lambda m: m.kind + str(m.dim))
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_batched_frame_flow_matches_scalar_calls(model, seed, data):
    rng = np.random.default_rng(seed)
    count = data.draw(st.integers(1, 5))
    fps = [fl.random_frame_point(model, rng) for _ in range(count)]
    if model.dim == 2:  # negatively oriented frames keep their side
        fps = [geo.FramePoint(point=fp.point, frame=fp.frame * [1.0, s])
               for fp, s in zip(fps, rng.choice([-1.0, 1.0], size=count))]
    cols = data.draw(st.sampled_from([1, count]))
    t = data.draw(arrays(float, (data.draw(st.integers(1, 4)), cols),
                         elements=st.floats(-3.0, 3.0)))
    out = fl.frame_flow(model, _stacked(fps), t)
    n = model.dim
    assert out.point.shape == (len(t), count, n)
    assert out.frame.shape == (len(t), count, n, n)
    for k in range(len(t)):
        for j, fp in enumerate(fps):
            one = fl.frame_flow(model, fp, t[k, j % cols])
            assert np.abs(out.point[k, j] - one.point).max() <= 1e-12
            assert np.abs(out.frame[k, j] - one.frame).max() <= 1e-12
            assert np.sign(np.linalg.det(one.frame)) == np.sign(np.linalg.det(fp.frame))


@pytest.mark.parametrize("model", [TORUS2, TORUS3, SPHERE, OCT],
                         ids=lambda m: m.kind + str(m.dim))
def test_scalar_frame_flow_keeps_shapes(model):
    fp = fl.random_frame_point(model, np.random.default_rng(18))
    out = fl.frame_flow(model, fp, 0.8)
    assert out.point.shape == (model.dim,)
    assert out.frame.shape == (model.dim, model.dim)


# ---------------------------------------------------------------------------
# right action


def test_right_action_identity():
    rng = np.random.default_rng(6)
    fp = fl.random_frame_point(TORUS3, rng)
    out = fl.right_action(fp, np.eye(2))
    assert np.array_equal(out.frame, fp.frame)


def test_right_action_quarter_turn():
    rng = np.random.default_rng(7)
    fp = fl.random_frame_point(TORUS3, rng)
    g = np.array([[0.0, -1.0], [1.0, 0.0]])
    out = fl.right_action(fp, g)
    assert np.allclose(out.frame[:, 1], fp.frame[:, 2])
    assert np.allclose(out.frame[:, 2], -fp.frame[:, 1])


def test_right_action_rejects_non_rotation():
    rng = np.random.default_rng(8)
    fp = fl.random_frame_point(TORUS3, rng)
    with pytest.raises(ValueError):
        fl.right_action(fp, np.array([[1.0, 1.0], [0.0, 1.0]]))


@pytest.mark.parametrize("model", [TORUS2, TORUS3], ids=["torus2", "torus3"])
def test_right_action_on_a_batch_is_the_per_frame_action(model):
    rng = np.random.default_rng(10)
    fps = [fl.random_frame_point(model, rng) for _ in range(12)]
    batch = geo.FramePoint(point=np.array([fp.point for fp in fps]),
                           frame=np.array([fp.frame for fp in fps]))
    m = model.dim - 1
    turn = lambda a: np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
    g = turn(0.7) if m == 2 else np.eye(1)
    gs = np.array([turn(a) if m == 2 else np.eye(1) for a in rng.uniform(0, 2 * np.pi, 12)])
    for rot, per_frame in ((g, [g] * 12), (gs, gs)):
        out = fl.right_action(batch, rot)
        assert out.frame.shape == batch.frame.shape
        for i, (fp, h) in enumerate(zip(fps, per_frame)):
            one = fl.right_action(fp, h)
            assert out.point[i].tobytes() == one.point.tobytes()
            assert out.frame[i].tobytes() == one.frame.tobytes()


def test_right_action_commutes_with_flow():
    rng = np.random.default_rng(9)
    for _ in range(10):
        fp = fl.random_frame_point(TORUS3, rng)
        a = rng.uniform(0, 2 * np.pi)
        g = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
        t = rng.uniform(0.2, 4.0)
        one = fl.frame_flow(TORUS3, fl.right_action(fp, g), t)
        two = fl.right_action(fl.frame_flow(TORUS3, fp, t), g)
        assert np.allclose(one.point, two.point, atol=1e-9)
        assert np.allclose(one.frame, two.frame, atol=1e-9)


# ---------------------------------------------------------------------------
# beta flow


def test_beta_flow_at_zero_and_constants():
    rng = np.random.default_rng(10)
    f = fl.position_observable(lambda p: np.cos(p[0]))
    c = fl.position_observable(lambda p: 2.5)
    for t in (0.0, 1.7):
        bc = fl.beta_flow(TORUS2, c, t)
        fp = fl.random_frame_point(TORUS2, rng)
        assert bc.evaluator(fp) == 2.5
    b0 = fl.beta_flow(TORUS2, f, 0.0)
    fp = fl.random_frame_point(TORUS2, rng)
    assert abs(b0.evaluator(fp) - f.evaluator(fp)) < 1e-15


def test_beta_flow_flat_oracle():
    # (beta_t f)(x, v) = cos(x_1 - t v_1) for f = cos(x_1) on the torus
    rng = np.random.default_rng(11)
    f = fl.position_observable(lambda p: np.cos(p[0]))
    for _ in range(10):
        fp = fl.random_frame_point(TORUS2, rng)
        t = rng.uniform(-3, 3)
        got = fl.beta_flow(TORUS2, f, t).evaluator(fp)
        expect = np.cos(fp.point[0] - t * fp.frame[0, 0])
        assert abs(got - expect) < 1e-12


def test_beta_flow_group_law_on_samples():
    rng = np.random.default_rng(12)
    f = fl.position_observable(lambda p: np.sin(p[0]) + np.cos(2 * p[1]))
    t1, t2 = 0.8, 1.9
    lhs = fl.beta_flow(OCT, fl.beta_flow(OCT, f, t1), t2)
    rhs = fl.beta_flow(OCT, f, t1 + t2)
    f_oct = fl.position_observable(lambda p: np.exp(-(p[0] ** 2 + p[1] ** 2)))
    lhs = fl.beta_flow(OCT, fl.beta_flow(OCT, f_oct, t1), t2)
    rhs = fl.beta_flow(OCT, f_oct, t1 + t2)
    for _ in range(5):
        fp = fl.random_frame_point(OCT, rng)
        assert abs(lhs.evaluator(fp) - rhs.evaluator(fp)) < 1e-9


def test_beta_flow_star_morphism_bitwise():
    f = fl.position_observable(lambda p: np.cos(p[0]) + 0.3j * np.sin(p[1]))
    h = fl.position_observable(lambda p: np.sin(p[0] + p[1]))
    t = 1.1
    rng = np.random.default_rng(13)
    left = fl.beta_flow(TORUS2, fl.obs_product(f, h), t)
    right = fl.obs_product(fl.beta_flow(TORUS2, f, t), fl.beta_flow(TORUS2, h, t))
    star_left = fl.beta_flow(TORUS2, fl.obs_adjoint(f), t)
    star_right = fl.obs_adjoint(fl.beta_flow(TORUS2, f, t))
    for _ in range(5):
        fp = fl.random_frame_point(TORUS2, rng)
        assert left.evaluator(fp) == right.evaluator(fp)
        assert star_left.evaluator(fp) == star_right.evaluator(fp)


# ---------------------------------------------------------------------------
# Liouville x Haar averages


@pytest.mark.parametrize("model", [TORUS2, TORUS3, SPHERE, OCT],
                         ids=lambda m: m.kind + str(m.dim))
def test_liouville_normalization_exact(model):
    one = fl.position_observable(lambda p: 1.0)
    res = 6 if model.dim == 3 else 10
    avg = fl.liouville_haar_average(model, one, resolution=res)
    assert abs(avg[0, 0] - 1.0) < 1e-14


def _ref_eval(obs, fp):
    """The observable at one frame point as an m x m complex matrix."""
    out = np.asarray(obs.evaluator(fp), dtype=complex)
    return out.reshape(1, 1) if obs.fiber_dim == 1 else out


def _ref_liouville(model, obs, resolution):
    """Liouville x Haar average accumulated one node at a time."""
    out = np.zeros((obs.fiber_dim, obs.fiber_dim), dtype=complex)
    total = 0.0
    for point, frame, w in zip(*fl.liouville_nodes(model, resolution)):
        out += w * _ref_eval(obs, geo.FramePoint(point=point, frame=frame))
        total += w
    return out / total


def _frame_matrix(fp):
    p, f = fp.point, fp.frame
    return np.array([[np.cos(p[0]) + f[0, 0] ** 2, f[1, 0] * f[0, -1]],
                     [1j * np.sin(p[1]), f[-1, -1] + np.exp(-p[0] ** 2)]])


@pytest.mark.parametrize("model, res", [(TORUS2, 8), (TORUS3, 4), (SPHERE, 8), (OCT, 24)],
                         ids=["torus2", "torus3", "sphere2", "octagon2"])
def test_liouville_matches_per_node_reference(model, res):
    for obs in (fl.FlowObservable(evaluator=_frame_matrix, fiber_dim=2),
                fl.scalar_observable(lambda p, f: np.cos(p[1]) * f[0, 0] - f[1, 0] ** 2)):
        got = fl.liouville_haar_average(model, obs, res)
        want = _ref_liouville(model, obs, res)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("model, res", [(TORUS3, 4), (OCT, 24)], ids=["torus3", "octagon2"])
def test_liouville_in_node_chunks_matches_per_node_reference(model, res, monkeypatch):
    monkeypatch.setattr(geo, "_NODE_CHUNK", 1000)
    obs = fl.FlowObservable(evaluator=_frame_matrix, fiber_dim=2)
    assert len(fl.liouville_nodes(model, res)[2]) > 7 * geo._NODE_CHUNK
    got = fl.liouville_haar_average(model, obs, res)
    want = _ref_liouville(model, obs, res)
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
    one = fl.position_observable(lambda p: 1.0)
    assert abs(fl.liouville_haar_average(model, one, res)[0, 0] - 1.0) < 1e-14


def test_liouville_torus_cosine_vanishes():
    f = fl.position_observable(lambda p: np.cos(p[0]))
    avg = fl.liouville_haar_average(TORUS2, f, resolution=8)
    assert abs(avg[0, 0]) < 1e-12


def test_liouville_sphere_z2():
    f = fl.position_observable(lambda p: np.cos(p[0]) ** 2)
    avg = fl.liouville_haar_average(SPHERE, f, resolution=8)
    assert abs(avg[0, 0] - 1.0 / 3.0) < 1e-12


def test_liouville_resolution_floor():
    with pytest.raises(ValueError):
        fl.liouville_nodes(TORUS2, 3)


def test_quadrature_resolution_must_be_an_integer():
    # 4.5 and 8.0 reached numpy's "expected a sequence of integers", "8" a
    # TypeError on <
    obs = fl.position_observable(lambda p: np.cos(p[0]))
    for res in (4.5, 8.0, "8", 3, True):
        with pytest.raises(ValueError, match="resolution"):
            geo.unit_bundle_nodes(TORUS2, res)
        with pytest.raises(ValueError, match="resolution"):
            fl.liouville_haar_average(TORUS2, obs, res)
    # an integer of any integer type is taken
    assert all(np.array_equal(a, b) for a, b in zip(geo.unit_bundle_nodes(TORUS2, np.int64(6)),
                                                    geo.unit_bundle_nodes(TORUS2, 6)))


def test_octagon_bump_average_converges():
    bump = fl.smooth_bump()
    coarse = fl.liouville_haar_average(OCT, bump, resolution=40)[0, 0].real
    fine = fl.liouville_haar_average(OCT, bump, resolution=80)[0, 0].real
    assert fine > 0.05
    assert abs(coarse - fine) < 5e-3


# ---------------------------------------------------------------------------
# node tables of per-point observables


def test_product_and_adjoint_tables_are_their_evaluator_rows():
    f = fl.FlowObservable(evaluator=lambda fp: fp.frame[:2, :2] + 1j * fp.frame[1:, :2],
                          fiber_dim=2)
    h = fl.FlowObservable(evaluator=lambda fp: fp.frame[:2, 1:] * np.cos(fp.point[0]),
                          fiber_dim=2)
    rng = np.random.default_rng(30)
    fps = [fl.random_frame_point(TORUS3, rng) for _ in range(6)]
    block = _stacked(fps)
    for obs in (fl.obs_product(f, h), fl.obs_adjoint(f)):
        table = obs.table(block.point, block.frame)
        assert table.shape == (6, 2, 2)
        for fp, row in zip(fps, table):
            assert np.array_equal(obs.evaluator(fp), row)
    assert np.array_equal(fl.obs_adjoint(f).evaluator(fps[0]), f.evaluator(fps[0]).conj().T)


def _frame_points_built(monkeypatch, call):
    """call() and the number of frame points it built."""
    built = []

    class Counting(geo.FramePoint):
        def __init__(self, *args, **kwargs):
            built.append(None)
            super().__init__(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(geo, "FramePoint", Counting)
        out = call()
    return out, len(built)


def _rows(model, count, seed):
    """`count` seeded random frame points as one (8, count // 8) block."""
    rng = np.random.default_rng(seed)
    block = _stacked([fl.random_frame_point(model, rng) for _ in range(count)])
    n = model.dim
    return block.point.reshape(8, -1, n), block.frame.reshape(8, -1, n, n)


def _ref_table(obs, points, frames):
    """The observable's table built one `FramePoint` at a time."""
    n = points.shape[-1]
    vals = np.array([_ref_eval(obs, geo.FramePoint(point=p, frame=f))
                     for p, f in zip(points.reshape(-1, n), frames.reshape(-1, n, n))])
    return vals.reshape(points.shape[:-1] + vals.shape[1:])


_CHART_OBSERVABLES = {
    "scalar-torus2": (TORUS2, fl.scalar_observable(
        lambda p, f: np.cos(p[1]) * f[0, 0] - f[1, 0] ** 2)),
    "scalar-torus3": (TORUS3, fl.scalar_observable(
        lambda p, f: np.sin(p[2]) * f[0, 1] * f[2, 2] + 1j * f[1, 0])),
    "position-sphere2": (SPHERE, fl.position_observable(lambda p: np.cos(p[0]) ** 2)),
    "position-torus2": (TORUS2, fl.position_observable(lambda p: np.cos(p[0]))),
    "bump-octagon2": (OCT, fl.smooth_bump()),
    "bump-evaluator-octagon2": (OCT, fl.FlowObservable(evaluator=fl.smooth_bump().evaluator)),
}


@pytest.mark.parametrize("name", list(_CHART_OBSERVABLES))
def test_chart_observable_table_reads_the_rows(name, monkeypatch):
    model, obs = _CHART_OBSERVABLES[name]
    points, frames = _rows(model, 1000, 40)
    want = _ref_table(obs, points, frames)
    got, built = _frame_points_built(monkeypatch, lambda: obs.table(points, frames))
    assert built == 0
    assert got.shape == want.shape == (8, 125, 1, 1)
    assert got.tobytes() == want.tobytes()
    ev = obs.evaluator
    opaque = fl.FlowObservable(evaluator=lambda fp: ev(fp))
    got, built = _frame_points_built(monkeypatch, lambda: opaque.table(points, frames))
    assert built == 1000
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("model, res", [(TORUS3, 4), (SPHERE, 8), (OCT, 24)],
                         ids=["torus3", "sphere2", "octagon2"])
def test_chart_observable_liouville_average_builds_no_frame_point(model, res, monkeypatch):
    if model.kind == geo.TORUS:
        obs = fl.scalar_observable(lambda p, f: np.cos(p[1]) * f[0, 0] - f[1, 0] ** 2)
    else:
        obs = fl.smooth_bump(radius=0.9)
    want = _ref_liouville(model, obs, res)
    got, built = _frame_points_built(
        monkeypatch, lambda: fl.liouville_haar_average(model, obs, res))
    assert built == 0
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


def test_chart_evaluators_take_one_frame_point():
    fp = fl.random_frame_point(TORUS3, np.random.default_rng(41))
    fn = lambda p, f: np.cos(p[0]) * f[1, 2]
    assert fl.scalar_observable(fn).evaluator(fp) == fn(fp.point, fp.frame)
    assert fl.position_observable(np.sin).evaluator(fp).tobytes() == np.sin(fp.point).tobytes()
    bump = fl.smooth_bump()
    oct_fp = geo.FramePoint(point=np.array([0.1, -0.2]), frame=np.eye(2))
    assert bump.evaluator(oct_fp) == bump.table(oct_fp.point, oct_fp.frame) > 0.5
    assert fl.obs_product(bump, bump).evaluator(oct_fp) == bump.evaluator(oct_fp) ** 2
    # beta_t, products and adjoints at one point are the row of a stack of one:
    # a scalar for m = 1, an m x m array otherwise
    factors = {1: fl.position_observable(lambda p: np.exp(1j * p[0])),
               2: fl.FlowObservable(evaluator=lambda fp: fp.frame[1:, 1:] + 1j * fp.frame[:2, :2],
                                    fiber_dim=2)}
    for m, f in factors.items():
        for obs in (fl.beta_flow(TORUS3, f, 0.6), fl.obs_product(f, fl.obs_adjoint(f)),
                    fl.obs_adjoint(f)):
            value = obs.evaluator(fp)
            row = obs.table(fp.point[None], fp.frame[None])[0]
            assert type(value) is (np.complex128 if m == 1 else np.ndarray)
            assert np.shape(value) == (() if m == 1 else (2, 2))
            assert np.asarray(value).tobytes() == row.tobytes()


def test_per_point_observable_table_rejects_a_wrong_sized_value():
    rng = np.random.default_rng(32)
    block = _stacked([fl.random_frame_point(TORUS2, rng) for _ in range(8)])
    with pytest.raises(ValueError):
        fl.FlowObservable(evaluator=lambda fp: 1.0, fiber_dim=2).table(block.point, block.frame)
    with pytest.raises(ValueError):
        fl.liouville_haar_average(TORUS2, fl.FlowObservable(evaluator=lambda fp: np.eye(3),
                                                            fiber_dim=2), 4)


# ---------------------------------------------------------------------------
# row observables: smooth_bump, its products and adjoints


def test_smooth_bump_vanishes_from_the_radius_on_without_warnings():
    points = np.array([[0.5, 0.0], [0.0, -0.5], [-0.5, 0.0], [0.3, 0.5], [0.0, 2.0],
                       [-7.0, 3.0], [0.0, 0.5 * (1 - 2.0 ** -52)], [0.0, 0.0]])
    frames = np.broadcast_to(np.eye(2), (len(points), 2, 2))
    bump = fl.smooth_bump(radius=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = bump.table(points, frames)[:, 0, 0]
        one = [bump.evaluator(geo.FramePoint(point=p, frame=np.eye(2))) for p in points]
    assert (points[0] @ points[0]) / 0.25 == 1.0  # r^2 exactly 1
    assert np.array_equal(table[:6], np.zeros(6)) and np.array_equal(one[:6], np.zeros(6))
    assert 0.0 <= table[6].real < 1e-300 and table[7] == 1.0


@pytest.mark.parametrize("radius", [0.55, 0.9])
def test_smooth_bump_is_the_closed_form(radius):
    points = np.random.default_rng(50).uniform(-1.1 * radius, 1.1 * radius, (100_000, 2))
    want = []
    for x, y in points.tolist():
        r2 = (x ** 2 + y ** 2) / radius ** 2
        want.append(math.exp(1.0 - 1.0 / (1.0 - r2)) if r2 < 1.0 else 0.0)
    got = fl.smooth_bump(radius).table(points, np.zeros((len(points), 2, 2)))[:, 0, 0]
    assert np.count_nonzero(want) > 50_000
    assert np.abs(got - np.array(want)).max() <= 4e-16
    assert not got.imag.any()


def test_smooth_bump_at_one_frame_point_is_its_one_row_table():
    rng = np.random.default_rng(51)
    bump = fl.smooth_bump()
    fps = [fl.random_frame_point(OCT, rng) for _ in range(40)]
    assert 0 < sum(bump.evaluator(fp) > 0 for fp in fps) < 40
    for fp in fps:
        row = bump.table(fp.point[None], fp.frame[None])
        assert row.shape == (1, 1, 1)
        assert np.complex128(bump.evaluator(fp)).tobytes() == row.tobytes()


def test_row_observable_tables_use_no_per_point_adapter(monkeypatch):
    def refuse(*args):
        raise AssertionError("per-point adapter called")

    rng = np.random.default_rng(54)
    fps = [fl.random_frame_point(OCT, rng) for _ in range(3)]
    bump = fl.smooth_bump()
    monkeypatch.setattr(geo, "_per_node_table", refuse)
    monkeypatch.setattr(geo, "_NODE_CHUNK", 1000)
    for obs in (bump, fl.FlowObservable(evaluator=bump.evaluator), fl.obs_adjoint(bump),
                fl.obs_product(bump, fl.obs_product(fl.smooth_bump(0.8), bump))):
        assert 0.0 < fl.liouville_haar_average(OCT, obs, 24)[0, 0].real < 1.0
        est = fl.birkhoff_average(OCT, obs, fps, 5.0, 0.1, space_average=0.0)
        assert 0.0 <= est.time_average[0, 0].real <= 1.0


_ROW_PAIRS = {
    "bump-bump": (fl.smooth_bump(), fl.smooth_bump(0.8)),
    "bump-position": (fl.smooth_bump(), fl.position_observable(lambda p: 1j + p[0])),
    "position-bump": (fl.position_observable(lambda p: np.cos(p[1])), fl.smooth_bump(0.7)),
}


@pytest.mark.parametrize("name", list(_ROW_PAIRS))
def test_products_and_adjoints_of_row_observables_are_their_row_products(name, monkeypatch):
    f, h = _ROW_PAIRS[name]
    points, frames = _rows(OCT, 400, 52)
    fps = [geo.FramePoint(point=p, frame=fr)
           for p, fr in zip(points.reshape(-1, 2), frames.reshape(-1, 2, 2))]
    for obs, ref in ((fl.obs_product(f, h), lambda fp: f.evaluator(fp) * h.evaluator(fp)),
                     (fl.obs_adjoint(f), lambda fp: np.conj(f.evaluator(fp)))):
        want = np.array([ref(fp) for fp in fps], dtype=complex).reshape(8, 50, 1, 1)
        got, built = _frame_points_built(monkeypatch, lambda: obs.table(points, frames))
        assert built == 0
        assert got.tobytes() == want.tobytes()
        for fp, value in zip(fps[:20], want.reshape(-1)):
            assert np.complex128(obs.evaluator(fp)).tobytes() == value.tobytes()


_OPAQUE = {
    1: fl.FlowObservable(evaluator=lambda fp: np.sin(fp.point[1]) * fp.frame[0, 1] - 0.1),
    2: fl.FlowObservable(evaluator=lambda fp: fp.frame[:2, :2] + 1j * fp.frame[1:, :2],
                         fiber_dim=2),
}
# row factors and the number of opaque evaluators each calls per frame point
_ROW_FACTORS = {
    1: (fl.scalar_observable(lambda p, f: np.cos(p[0]) * f[2, 1] - 0.2), 0),
    # an adjoint is a row observable whatever its factor
    2: (fl.obs_adjoint(fl.FlowObservable(
        evaluator=lambda fp: fp.frame[:2, 1:] * np.cos(fp.point[0]), fiber_dim=2)), 1),
}


@pytest.mark.parametrize("m", [1, 2])
def test_products_of_opaque_and_row_factors_are_their_evaluator_rows(m, monkeypatch):
    opaque, (row, row_opaque) = _OPAQUE[m], _ROW_FACTORS[m]
    points, frames = _rows(TORUS3, 400, 53)
    for obs in (fl.obs_product(opaque, row), fl.obs_product(row, opaque),
                fl.obs_adjoint(fl.obs_product(opaque, row))):
        want = _ref_table(obs, points, frames)
        got, built = _frame_points_built(monkeypatch, lambda: obs.table(points, frames))
        assert built == 400 * (1 + row_opaque)  # the opaque evaluators' frame points only
        assert got.shape == (8, 50, m, m)
        assert got.tobytes() == want.tobytes()


def test_adjoints_and_products_keep_equivariance():
    rep = alg.restrict_to_stabilizer(alg.exterior_rep(3, 1))
    b = np.diag([1.0, 2.0, -0.5])
    obs = fl.FlowObservable(evaluator=lambda fp: fp.frame.T @ b @ fp.frame, fiber_dim=3,
                            equivariance_rep=rep)
    for derived in (fl.obs_adjoint(obs), fl.obs_product(obs, obs),
                    fl.beta_flow(TORUS3, fl.obs_product(obs, fl.obs_adjoint(obs)), 0.7)):
        assert derived.equivariance_rep is rep
        assert fl.equivariance_residual(TORUS3, derived, np.random.default_rng(16)) < 1e-8
    plain = fl.FlowObservable(evaluator=lambda fp: b, fiber_dim=3)
    other = dataclasses.replace(obs, equivariance_rep=alg.restrict_to_stabilizer(
        alg.exterior_rep(3, 1)))
    for product in (fl.obs_product(obs, plain), fl.obs_product(plain, obs),
                    fl.obs_product(obs, other)):
        assert product.equivariance_rep is None
        with pytest.raises(ValueError):
            fl.equivariance_residual(TORUS3, product)


# ---------------------------------------------------------------------------
# beta flow on tables

_BETA_CASES = {
    "torus2": (TORUS2, fl.scalar_observable(lambda p, f: np.cos(p[1]) * f[0, 0] - f[1, 0] ** 2)),
    "torus3": (TORUS3, fl.scalar_observable(
        lambda p, f: np.sin(p[2]) * f[0, 1] * f[2, 2] + 1j * f[1, 0])),
    "sphere2": (SPHERE, fl.position_observable(lambda p: np.cos(p[0]) ** 2)),
    "octagon2": (OCT, fl.smooth_bump(0.9)),
}


@pytest.mark.parametrize("name", list(_BETA_CASES))
def test_beta_flow_table_is_the_per_point_evaluator_bitwise(name):
    model, obs = _BETA_CASES[name]
    points, frames = _rows(model, 400, 55)
    for t in (0.3, 2.0, 7.5):
        beta = fl.beta_flow(model, obs, t)
        assert beta.table(points, frames).tobytes() == _ref_table(beta, points, frames).tobytes()


@pytest.mark.parametrize("name", list(_BETA_CASES))
def test_beta_flow_birkhoff_blocks_match_the_per_point_evaluator(name, monkeypatch):
    model, obs = _BETA_CASES[name]
    fps = [fl.random_frame_point(model, np.random.default_rng([56, k])) for k in range(3)]
    monkeypatch.setattr(fl, "_BLOCK_POINTS", 60)  # several blocks
    for t in (0.3, 2.0, 7.5):
        beta = fl.beta_flow(model, obs, t)
        opaque = fl.FlowObservable(evaluator=lambda fp: beta.evaluator(fp))
        got, want = (fl.birkhoff_average(model, o, fps, 3.0, 0.05, space_average=0.0)
                     for o in (beta, opaque))
        assert got.time_average.tobytes() == want.time_average.tobytes()


def test_beta_flow_table_flows_each_node_chunk_in_one_call(monkeypatch):
    obs = fl.smooth_bump(radius=0.9)
    beta = fl.beta_flow(OCT, obs, 2.0)
    want = _ref_liouville(OCT, beta, 12)
    calls, single, frame_flow = [], [], fl.frame_flow

    class Counting(geo.FramePoint):
        def __init__(self, point, frame):
            single.append(np.ndim(point) == 1)
            super().__init__(point, frame)

    def counted(model, fp, t):
        calls.append(len(fp.point))
        return frame_flow(model, fp, t)

    monkeypatch.setattr(geo, "_NODE_CHUNK", 300)
    monkeypatch.setattr(geo, "FramePoint", Counting)
    monkeypatch.setattr(fl, "frame_flow", counted)
    got = fl.liouville_haar_average(OCT, beta, 12)
    nodes = len(fl.liouville_nodes(OCT, 12)[0])
    assert nodes > 900 and calls == [min(300, nodes - lo) for lo in range(0, nodes, 300)]
    assert single and not any(single)  # one stacked FramePoint in and out per chunk
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


# ---------------------------------------------------------------------------
# Birkhoff averages


def test_birkhoff_constant_exact():
    rng = np.random.default_rng(14)
    c = fl.position_observable(lambda p: 0.7)
    fp = fl.random_frame_point(TORUS2, rng)
    est = fl.birkhoff_average(TORUS2, c, fp, horizon=10.0, dt=0.1)
    assert est.time_average[0, 0] == pytest.approx(0.7, abs=1e-13)
    assert est.trajectory_count == 1


def test_birkhoff_torus_irrational_direction_decays():
    f = fl.position_observable(lambda p: np.cos(p[0]))
    e1 = np.array([1.0, np.sqrt(2)])
    e1 /= np.linalg.norm(e1)
    fp = geo.FramePoint(point=np.array([0.3, 0.9]),
                        frame=np.column_stack([e1, [-e1[1], e1[0]]]))
    est = fl.birkhoff_average(TORUS2, f, fp, horizon=2000.0, dt=0.5,
                              space_resolution=8)
    assert est.gap < 0.01


def test_birkhoff_torus_rational_direction_witness():
    # flow along x_1 keeps cos(x_2) frozen: time average cos(x_2(0)), space 0
    f = fl.position_observable(lambda p: np.cos(p[1]))
    fp = geo.FramePoint(point=np.array([0.3, 0.0]),
                        frame=np.array([[1.0, 0.0], [0.0, 1.0]]))
    est = fl.birkhoff_average(TORUS2, f, fp, horizon=500.0, dt=0.25,
                              space_resolution=8)
    assert abs(est.space_average[0, 0]) < 1e-12
    assert abs(est.time_average[0, 0] - 1.0) < 1e-9
    assert est.gap > 0.1


def test_birkhoff_octagon_short_horizon_sanity():
    rng = np.random.default_rng(15)
    bump = fl.smooth_bump()
    fps = [fl.random_frame_point(OCT, rng) for _ in range(4)]
    space = fl.liouville_haar_average(OCT, bump, resolution=60)
    est = fl.birkhoff_average(OCT, bump, fps, horizon=400.0, dt=0.1,
                              space_average=space)
    assert est.trajectory_count == 4
    assert est.gap < 0.1


@pytest.mark.parametrize("model", [TORUS3, SPHERE, OCT], ids=lambda m: m.kind + str(m.dim))
def test_birkhoff_ensemble_is_mean_of_single_trajectories(model):
    rng = np.random.default_rng(19)
    fps = [fl.random_frame_point(model, rng) for _ in range(5)]
    obs = fl.scalar_observable(lambda p, f: np.cos(p[0]) * f[0, 0] + f[1, 0] ** 2)
    zero = np.zeros((1, 1))
    est = fl.birkhoff_average(model, obs, fps, horizon=8.0, dt=0.1, space_average=zero)
    singles = [fl.birkhoff_average(model, obs, fp, horizon=8.0, dt=0.1,
                                   space_average=zero).time_average for fp in fps]
    assert abs(est.time_average[0, 0] - np.mean(singles)) <= 1e-14


def test_birkhoff_sphere_over_several_blocks_matches_great_circles():
    # 40 trajectories x 400 samples is 16,000 frame points: four blocks
    rng = np.random.default_rng(20)
    fps = [fl.random_frame_point(SPHERE, rng) for _ in range(40)]
    obs = fl.position_observable(lambda p: np.cos(p[0]) ** 2)
    steps, dt = 400, 0.1
    est = fl.birkhoff_average(SPHERE, obs, fps, horizon=steps * dt, dt=dt,
                              space_average=np.zeros((1, 1)))
    assert steps * len(fps) > 3 * fl._BLOCK_POINTS
    t = np.arange(steps) * dt
    want = np.mean([np.mean(_sphere_z(fp, t) ** 2) for fp in fps])
    assert abs(est.time_average[0, 0] - want) < 1e-9


def test_sample_trajectory_follows_the_great_circle():
    fp = fl.random_frame_point(SPHERE, np.random.default_rng(21))
    obs = fl.position_observable(lambda p: np.cos(p[0]) ** 2)
    steps, dt = 5000, 0.05
    times, points, frames, values = fl.sample_trajectory(SPHERE, obs, fp, steps * dt, dt)
    assert times.shape == values.shape == (steps,)
    assert points.shape == (steps, 2) and frames.shape == (steps, 2, 2)
    assert np.array_equal(times, np.arange(steps) * dt)
    assert np.abs(values - _sphere_z(fp, times) ** 2).max() < 1e-12
    assert np.abs(np.cos(points[:, 0]) - _sphere_z(fp, times)).max() < 1e-12


def _ref_sample_blocks(model, fps, steps, dt):
    """The per-hop block sampler: one group-form flow per block of at most
    `_BLOCK_POINTS` frame points and, on the octagon, at most floor(0.5 / dt)
    samples, each block advanced from the group state of the last sample of
    the block before and read in the chart as `frame_flow` reads it."""
    start = fl._orthonormalize_drifted(model, _stacked(fps))
    anchor = geo._lift(model, start.point, start.frame[..., 0])
    size = max(1, fl._BLOCK_POINTS // len(fps))
    if model.kind == geo.OCTAGON:
        size = min(size, max(1, int(0.5 / dt)))
    first = 0
    while first < steps:
        count = min(size, steps - first)
        offsets = np.arange(count) if first == 0 else np.arange(1, count + 1)
        states = geo._flow(model, anchor, (offsets * dt)[:, None])
        end = geo._view(model, states)
        yield geo.FramePoint(point=end.point, frame=fl._flowed_frames(model, start, end))
        anchor = tuple(c[-1] for c in states)
        first += count


def _meridian(dt, steps):
    # start on the equator heading north; cos^2(theta) averages to 1/2 over
    # whole half-periods
    fp = geo.FramePoint(point=np.array([np.pi / 2, 0.3]), frame=-np.eye(2))
    obs = fl.position_observable(lambda p: np.cos(p[0]) ** 2)
    est = fl.birkhoff_average(SPHERE, obs, fp, steps * dt, dt, space_average=np.zeros((1, 1)))
    return fp, obs, est


def test_sphere_meridian_through_the_poles():
    # the samples k = 100, 300, ... lie on a pole
    _, _, est = _meridian(np.pi / 200, 4000)
    assert abs(est.time_average[0, 0] - 0.5) <= 1e-12


def test_sphere_meridian_block_ending_on_a_pole():
    # the first 4,096-sample block ends on the north pole at t = 2.5 pi
    dt, steps = np.pi / 1638, 6552
    assert steps > fl._BLOCK_POINTS and (fl._BLOCK_POINTS - 1) * dt == 2.5 * np.pi
    fp, obs, est = _meridian(dt, steps)
    assert abs(est.time_average[0, 0] - 0.5) <= 1e-12
    _, points, _, _ = fl.sample_trajectory(SPHERE, obs, fp, steps * dt, dt)
    assert len(points) == steps and np.isfinite(points).all()


def _ref_samples(model, obs, fps, steps, dt):
    """Points, frames and observable values (samples, trajectories, ...) of the
    reference sampler, and the parent's Birkhoff time average."""
    points, frames, values = [], [], []
    traj = np.zeros((len(fps), obs.fiber_dim, obs.fiber_dim), dtype=complex)
    for block in _ref_sample_blocks(model, fps, steps, dt):
        n = model.dim
        vals = np.array([_ref_eval(obs, geo.FramePoint(point=p, frame=f))
                         for p, f in zip(block.point.reshape(-1, n),
                                         block.frame.reshape(-1, n, n))])
        vals = vals.reshape(block.point.shape[:2] + vals.shape[1:])
        traj += vals.sum(axis=0)
        points.append(block.point)
        frames.append(block.frame)
        values.append(vals)
    time_average = (traj / steps).sum(axis=0) / len(fps)
    return (np.concatenate(points), np.concatenate(frames), np.concatenate(values),
            time_average)


def _assert_birkhoff_close(got, want):
    assert np.all(np.abs(got - want) <= 1e-15 * np.maximum(1.0, np.abs(want)))


_MATRIX_OBS = fl.FlowObservable(evaluator=_frame_matrix, fiber_dim=2)
_ORBIT_OBS = {geo.OCTAGON: fl.smooth_bump(),
              geo.SPHERE: fl.position_observable(lambda p: np.cos(p[0]) ** 2),
              geo.TORUS: fl.position_observable(lambda p: np.cos(p[0]))}


@pytest.mark.parametrize("dt", [0.1, 0.07, 0.8])
@pytest.mark.parametrize("model", [TORUS2, TORUS3, SPHERE, OCT],
                         ids=lambda m: m.kind + str(m.dim))
def test_sample_trajectory_matches_per_hop_reference(model, dt):
    # 0.07 does not divide the 0.5 substep, 0.8 takes two substeps per sample;
    # at dt 0.07 the 5,714 samples fill two blocks
    fp = fl.random_frame_point(model, np.random.default_rng(22))
    horizon = 400.0
    steps = int(round(horizon / dt))
    times, points, frames, values = fl.sample_trajectory(model, _MATRIX_OBS, fp, horizon, dt)
    ref_points, ref_frames, ref_values, _ = _ref_samples(model, _MATRIX_OBS, [fp], steps, dt)
    assert np.array_equal(points, ref_points[:, 0])
    assert np.array_equal(frames, ref_frames[:, 0])
    assert np.array_equal(values, np.trace(ref_values[:, 0], axis1=-2, axis2=-1) / 2)
    # the orbit benchmark's observables; only the order of the time sum changes
    obs = _ORBIT_OBS[model.kind]
    ref_avg = _ref_samples(model, obs, [fp], steps, dt)[3]
    est = fl.birkhoff_average(model, obs, fp, horizon, dt, space_average=np.zeros((1, 1)))
    _assert_birkhoff_close(est.time_average, ref_avg)


def test_drifted_octagon_start_matches_per_hop_reference():
    # Gram-Schmidt fires once, on the start, and every sample flows from the
    # re-orthonormalized start
    fp = fl.random_frame_point(OCT, np.random.default_rng(23))
    frame = fp.frame.copy()
    frame[:, 0] *= 1.0 + 1e-9
    start = geo.FramePoint(point=fp.point, frame=frame)
    assert geo.orthonormality_residual(OCT, start) > 1e-9
    steps, dt = 4000, 0.1
    _, points, frames, values = fl.sample_trajectory(OCT, _MATRIX_OBS, start, steps * dt, dt)
    ref_points, ref_frames, ref_values, _ = _ref_samples(OCT, _MATRIX_OBS, [start], steps, dt)
    assert np.array_equal(points, ref_points[:, 0])
    assert np.array_equal(frames, ref_frames[:, 0])
    assert np.array_equal(values, np.trace(ref_values[:, 0], axis1=-2, axis2=-1) / 2)
    fixed = geo.FramePoint(point=start.point,
                           frame=geo.gram_orthonormalize(OCT, start.point, start.frame))
    assert geo.orthonormality_residual(OCT, fixed) < 1e-14
    _, fixed_points, fixed_frames, fixed_values = fl.sample_trajectory(
        OCT, _MATRIX_OBS, fixed, steps * dt, dt)
    assert np.array_equal(points, fixed_points)
    assert np.array_equal(frames, fixed_frames)
    assert np.array_equal(values, fixed_values)


def test_drifted_torus_start_is_orthonormalized_once(monkeypatch):
    rng = np.random.default_rng(26)
    fps = [fl.random_frame_point(TORUS3, rng) for _ in range(16)]
    drifted = [geo.FramePoint(point=fp.point, frame=fp.frame * (1.0 + 1e-9)) for fp in fps]
    start = _stacked(drifted)
    assert (geo.orthonormality_residual(TORUS3, start) > 1e-12).all()
    fixed = geo.gram_orthonormalize(TORUS3, start.point, start.frame)
    fixed_fps = [geo.FramePoint(point=fp.point, frame=f) for fp, f in zip(drifted, fixed)]
    obs = fl.scalar_observable(lambda p, f: np.cos(p[0] + p[2]) * f[0, 1] + f[2, 2] ** 2)
    steps, dt = 250, 0.1
    calls = []
    gram = geo.gram_orthonormalize
    monkeypatch.setattr(geo, "gram_orthonormalize", lambda *a: calls.append(a) or gram(*a))
    est = fl.birkhoff_average(TORUS3, obs, drifted, steps * dt, dt, space_average=np.zeros((1, 1)))
    assert len(calls) == 1
    want = fl.birkhoff_average(TORUS3, obs, fixed_fps, steps * dt, dt,
                               space_average=np.zeros((1, 1)))
    assert len(calls) == 1
    assert np.array_equal(est.time_average, want.time_average)


@pytest.mark.parametrize("count, steps", [(16, 600), (300, 40)])
def test_octagon_ensemble_matches_per_hop_reference(count, steps):
    rng = np.random.default_rng(24)
    fps = [fl.random_frame_point(OCT, rng) for _ in range(count)]
    obs = fl.smooth_bump()
    dt = 0.1
    blocks = list(fl._sample_blocks(OCT, fps, steps, dt))
    assert len(blocks) >= 3
    ref_points, ref_frames, ref_values, ref_avg = _ref_samples(OCT, obs, fps, steps, dt)
    assert np.array_equal(np.concatenate([b.point for b in blocks]), ref_points)
    assert np.array_equal(np.concatenate([b.frame for b in blocks]), ref_frames)
    assert np.array_equal(np.concatenate([obs.table(b.point, b.frame) for b in blocks]),
                          ref_values)
    est = fl.birkhoff_average(OCT, obs, fps, steps * dt, dt, space_average=np.zeros((1, 1)))
    _assert_birkhoff_close(est.time_average, ref_avg)


_FP = fl.random_frame_point(TORUS2, np.random.default_rng(25))
_ONE = fl.position_observable(lambda p: 1.0)


@pytest.mark.parametrize("call, match", [
    (lambda: fl.birkhoff_average(TORUS2, _ONE, _FP, np.inf, 0.1), "finite"),
    (lambda: fl.birkhoff_average(TORUS2, _ONE, _FP, np.nan, 0.1), "finite"),
    (lambda: fl.birkhoff_average(TORUS2, _ONE, _FP, 10.0, np.nan), "finite"),
    (lambda: fl.birkhoff_average(TORUS2, _ONE, [], 10.0, 0.1), "frame point"),
    (lambda: fl.sample_trajectory(TORUS2, _ONE, _FP, np.inf, 0.1), "finite"),
    (lambda: fl.sample_trajectory(TORUS2, _ONE, _FP, 10.0, np.inf), "finite"),
    (lambda: fl.sample_trajectory(TORUS2, _ONE, _FP, 10.0, 0.0), "finite"),
    (lambda: fl.sample_trajectory(TORUS2, _ONE, _FP, 10.0, -0.1), "finite"),
], ids=["birkhoff-inf-horizon", "birkhoff-nan-horizon", "birkhoff-nan-dt",
        "birkhoff-no-frame-points", "trajectory-inf-horizon", "trajectory-inf-dt",
        "trajectory-zero-dt", "trajectory-negative-dt"])
def test_sampling_rejects_bad_inputs(call, match):
    with pytest.raises(ValueError, match=match):
        call()


# ---------------------------------------------------------------------------
# random frame points on the octagon


def test_octagon_frame_points_match_the_numpy_rejection_oracle():
    for seed in range(200):
        rng, ref_rng = np.random.default_rng([seed, 7]), np.random.default_rng([seed, 7])
        for _ in range(10):
            fp = fl.random_frame_point(OCT, rng)
            point, frame = oracles.octagon_frame_point(OCT, ref_rng)
            assert fp.point.tobytes() == point.tobytes()
            assert fp.frame.tobytes() == frame.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_uniform_draws_are_affine_random_draws():
    # random_frame_point's octagon loop draws random() where the numpy loop
    # drew uniform(-rho, rho, size=2) and uniform()
    rho = 2.0 ** (-0.25)
    a, b = np.random.default_rng(53), np.random.default_rng(53)
    pairs = a.uniform(-rho, rho, size=(100_000, 2))
    same = [-rho + (rho - -rho) * u for u in b.random(200_000).tolist()]
    assert pairs.tobytes() == np.array(same).tobytes()
    assert a.uniform(size=100_000).tobytes() == b.random(100_000).tobytes()
    assert [a.uniform() for _ in range(1000)] == [b.random() for _ in range(1000)]
    assert a.bit_generator.state == b.bit_generator.state


class _ScriptedRng:
    """Unit draws from scripts: random(2) serves the next candidate pair,
    random() the next scalar; uniform(low, high, size) is
    low + (high - low) * random(size), as numpy's."""

    def __init__(self, pairs, scalars):
        self.pairs, self.scalars = list(pairs), list(scalars)

    def random(self, size=None):
        if size is None:
            return self.scalars.pop(0)
        assert size == 2
        return np.array(self.pairs.pop(0))

    def uniform(self, low=0.0, high=1.0, size=None):
        return low + (high - low) * self.random(size)


def _near_circle_candidates():
    """Unit draws whose octagon candidates lie within 1e-12 of a side circle,
    of the unit circle and of the inscribed circle, on both sides; those
    next to a side circle also within 1e-13 of the boundary of
    `octagon_contains`."""
    rho = 2.0 ** (-0.25)
    rho_mid = math.sqrt(math.sqrt(2.0) - 1.0)
    c = 0.5 * (rho_mid + 1.0 / rho_mid)
    r = 0.5 * (1.0 / rho_mid - rho_mid)
    targets = []  # (point, centre, radius)
    for eps in (-1e-13, -2e-15, 0.0, 2e-15, 1e-13):
        for k in range(8):
            centre = c * np.exp(1j * np.pi / 4 * k)
            for phi in (np.pi - 0.3, np.pi, np.pi + 0.35, np.pi + 0.39):
                # the side circle and octagon_contains' boundary 1e-14 inside it
                for radius in (r, r - 1e-14):
                    targets.append((centre + radius * (1 + eps)
                                    * np.exp(1j * (np.pi / 4 * k + phi)), centre, r))
        for ang in (0.0, np.pi / 8, 0.4, 3.0):
            targets.append((rho_mid * (1 + eps) * np.exp(1j * ang), 0.0, rho_mid))
        for ang in (0.75, 2.4, -0.8):
            targets.append(((1 + eps) * np.exp(1j * ang), 0.0, 1.0))
    out = []
    for z, centre, radius in targets:
        z = complex(z)
        u = [(w + rho) / (rho - -rho) for w in (z.real, z.imag)]
        x, y = (-rho + (rho - -rho) * w for w in u)
        if max(abs(x), abs(y)) <= rho:
            assert abs(abs(complex(x, y) - centre) - radius) < 1e-12
            out.append((u, complex(x, y)))
    return out


def test_octagon_sampler_decides_near_circles_as_octagon_contains():
    cases = _near_circle_candidates()
    kept = []
    for u, z in cases:
        # a rejected candidate is followed by the origin; 0.0 accepts any
        # candidate in the octagon, 0.25 is the direction's draw
        origin = [0.5, 0.5]
        for draw in (lambda rng: fl.random_frame_point(OCT, rng).point,
                     lambda rng: oracles.octagon_frame_point(OCT, rng)[0]):
            rng = _ScriptedRng([u, origin], [0.0, 0.25])
            point = draw(rng)
            assert not rng.scalars
            kept.append(point.tobytes() == np.array([z.real, z.imag]).tobytes())
            assert kept[-1] == geo.octagon_contains(z)
            assert kept[-1] or not point.any()
    assert len(cases) > 300 and 0 < sum(kept) < len(kept)


# ---------------------------------------------------------------------------
# equivariance


def test_equivariant_observable_passes():
    rep = alg.restrict_to_stabilizer(alg.exterior_rep(3, 1))
    b = np.diag([1.0, 2.0, -0.5])
    obs = fl.FlowObservable(
        evaluator=lambda fp: fp.frame.T @ b @ fp.frame,
        fiber_dim=3,
        equivariance_rep=rep,
    )
    res = fl.equivariance_residual(TORUS3, obs, np.random.default_rng(16))
    assert res < 1e-8


def test_non_equivariant_observable_fails():
    rep = alg.restrict_to_stabilizer(alg.exterior_rep(3, 1))
    b = np.diag([1.0, 2.0, -0.5])
    obs = fl.FlowObservable(evaluator=lambda fp: b, fiber_dim=3,
                            equivariance_rep=rep)
    res = fl.equivariance_residual(TORUS3, obs, np.random.default_rng(17))
    assert res > 0.1
