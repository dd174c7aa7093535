import numpy as np
import pytest

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
        assert geo.is_oriented(model, out)


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


def test_octagon_bump_average_converges():
    bump = fl.smooth_bump()
    coarse = fl.liouville_haar_average(OCT, bump, resolution=40)[0, 0].real
    fine = fl.liouville_haar_average(OCT, bump, resolution=80)[0, 0].real
    assert fine > 0.05
    assert abs(coarse - fine) < 5e-3


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
