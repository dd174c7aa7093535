"""The five benchmark workloads.

A workload is a fixed cycle of op kinds.  Each op kind has three parts:

- ``inputs(rng)`` draws the op's inputs as plain numbers from
  ``numpy.random.default_rng([workload_seed, op_index])``; the library only
  sees what is drawn here;
- ``run(ctx, inputs)`` is the timed part: calls into framelab's public,
  experiment-level functions;
- ``check(ctx, inputs, out)`` is untimed and returns a list of problems.
  Non-chaotic outputs are compared with closed forms or with an independent
  evaluation of the same quadrature rule; chaotic ones (octagon time averages
  past T ~ 10) are checked by invariants and range only.

``setup(wrap)`` builds what does not depend on an op's inputs (models,
operators, space averages, library caches); its cost is ``setup_s``.  ``wrap``
names a callable for the tracer (identity when tracing is off).
"""

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import scipy.sparse

from framelab import algebra as alg
from framelab import flows as fl
from framelab import geometry as geo
from framelab import limits as lm
from framelab import spectral as sp


@dataclass(frozen=True)
class OpKind:
    name: str
    inputs: callable
    run: callable
    check: callable


@dataclass(frozen=True)
class Workload:
    name: str
    setup: callable
    ops: tuple
    sizes: dict


def _seed(rng):
    return int(rng.integers(2**62))


def _close(problems, label, got, want, tol):
    err = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
    if not err <= tol:
        problems.append(f"{label}: |got - want| = {err:.3g} > {tol:g}")


def _require(problems, label, ok):
    if not ok:
        problems.append(label)


def _frame_points(model, seed, count):
    rng = np.random.default_rng(seed)
    return [fl.random_frame_point(model, rng) for _ in range(count)]


def _sphere_ambient(fp):
    """Unit ambient position and velocity of a sphere frame point."""
    th, ph = fp.point
    x = np.array([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)])
    e_th = np.array([np.cos(th) * np.cos(ph), np.cos(th) * np.sin(ph), -np.sin(th)])
    e_ph = np.array([-np.sin(ph), np.cos(ph), 0.0])
    u = fp.frame[0, 0] * e_th + fp.frame[1, 0] * np.sin(th) * e_ph
    return x, u


def _great_circle_z2(fps, steps, dt):
    """Exact time average of cos^2(theta) along unit-speed great circles."""
    t = np.arange(steps) * dt
    vals = []
    for fp in fps:
        x, u = _sphere_ambient(fp)
        vals.append(np.mean((x[2] * np.cos(t) + u[2] * np.sin(t)) ** 2))
    return float(np.mean(vals))


def _cos2_theta(point):
    return np.cos(point[0]) ** 2


def _frame_product(point, frame):
    return frame[0, 1] * frame[2, 2] * np.cos(point[0])


def _check_estimate(problems, est, count, space):
    _require(problems, "trajectory count", est.trajectory_count == count)
    _require(problems, "time average not finite", np.all(np.isfinite(est.time_average)))
    _close(problems, "space average echo", est.space_average, space, 0.0)


def _check_octagon_range(problems, est):
    # chaotic past T ~ 10: invariants and range only
    avg = est.time_average[0, 0]
    _require(problems, "bump average out of [0, 1]", 0.0 <= avg.real <= 1.0)
    _close(problems, "bump average imaginary part", avg.imag, 0.0, 1e-15)


# ---------------------------------------------------------------------------
# ensemble: many short trajectories (geometry + flows, batchable)

ENS_TRAJ, ENS_HORIZON, ENS_DT = 16, 25.0, 0.1
ENS_STEPS = int(round(ENS_HORIZON / ENS_DT))


def _curved_observables(wrap):
    """smooth_bump on the octagon and cos^2(theta) on the sphere."""
    bump = fl.smooth_bump()
    return {"octagon": fl.FlowObservable(evaluator=wrap("flows.observable", bump.evaluator)),
            "sphere": fl.position_observable(wrap("bench.observable", _cos2_theta))}


def _ensemble_setup(wrap):
    models = {"octagon": geo.hyperbolic_octagon(), "sphere": geo.round_sphere(),
              "torus3": geo.flat_torus(3)}
    obs = dict(_curved_observables(wrap),
               torus3=fl.scalar_observable(wrap("bench.observable", _frame_product)))
    res = {"octagon": 32, "sphere": 8, "torus3": 4}
    space = {k: fl.liouville_haar_average(models[k], obs[k], res[k]) for k in models}
    return SimpleNamespace(models=models, obs=obs, space=space)


def _ensemble_kind(kind):
    def inputs(rng):
        return {"frame_seed": _seed(rng)}

    def run(ctx, inp):
        fps = _frame_points(ctx.models[kind], inp["frame_seed"], ENS_TRAJ)
        est = fl.birkhoff_average(ctx.models[kind], ctx.obs[kind], fps, ENS_HORIZON,
                                  ENS_DT, space_average=ctx.space[kind])
        return fps, est

    def check(ctx, inp, out):
        fps, est = out
        problems = []
        _check_estimate(problems, est, ENS_TRAJ, ctx.space[kind])
        if kind == "octagon":
            _check_octagon_range(problems, est)
        elif kind == "sphere":
            _close(problems, "sphere time average vs great circles", est.time_average[0, 0],
                   _great_circle_z2(fps, ENS_STEPS, ENS_DT), 1e-9)
        else:
            t = np.arange(ENS_STEPS) * ENS_DT
            want = np.mean([fp.frame[0, 1] * fp.frame[2, 2]
                            * np.cos(fp.point[0] + t * fp.frame[0, 0]) for fp in fps])
            _close(problems, "torus time average vs straight lines",
                   est.time_average[0, 0], want, 1e-9)
        return problems

    return OpKind(f"ensemble_{kind}", inputs, run, check)


ENSEMBLE = Workload(
    name="ensemble", setup=_ensemble_setup,
    ops=tuple(_ensemble_kind(k) for k in ("octagon", "sphere", "torus3")),
    sizes={"trajectories": ENS_TRAJ, "steps": ENS_STEPS, "dt": ENS_DT,
           "space_resolution": {"octagon": 32, "sphere": 8, "torus3": 4}})


# ---------------------------------------------------------------------------
# orbit: one long trajectory per op (the sequential use of the same layers)

ORB_STEPS = 4000
ORB_DT = {"octagon": 0.1, "sphere": 0.1, "torus2": 0.5}
WITNESS_STEPS, WITNESS_DT = 1000, 0.25


def _orbit_setup(wrap):
    models = {"octagon": geo.hyperbolic_octagon(), "sphere": geo.round_sphere(),
              "torus2": geo.flat_torus(2)}
    obs = dict(_curved_observables(wrap),
               torus2=fl.position_observable(wrap("bench.observable", lambda p: np.cos(p[0]))),
               witness=fl.position_observable(wrap("bench.observable", lambda p: np.cos(p[1]))))
    space = {"octagon": fl.liouville_haar_average(models["octagon"], obs["octagon"], 32),
             "sphere": fl.liouville_haar_average(models["sphere"], obs["sphere"], 8),
             "torus2": fl.liouville_haar_average(models["torus2"], obs["torus2"], 8),
             "witness": fl.liouville_haar_average(models["torus2"], obs["witness"], 8)}
    return SimpleNamespace(models=models, obs=obs, space=space)


def _orbit_kind(kind):
    dt = ORB_DT[kind]

    def inputs(rng):
        if kind != "torus2":
            return {"frame_seed": _seed(rng)}
        # an irrational slope sqrt(q) for a non-square q, and a rational-direction
        # witness whose frozen coordinate keeps |cos| > 0.35
        q = int(rng.choice([q for q in range(2, 51) if int(q ** 0.5) ** 2 != q]))
        return {"point": rng.uniform(0.0, 2 * np.pi, size=2).tolist(), "q": q,
                "sign": int(rng.choice([-1, 1])),
                "witness_point": [float(rng.uniform(0.0, 2 * np.pi)),
                                  float(rng.uniform(-1.2, 1.2))]}

    def run(ctx, inp):
        model = ctx.models[kind]
        if kind != "torus2":
            fp = _frame_points(model, inp["frame_seed"], 1)[0]
            return fp, fl.birkhoff_average(model, ctx.obs[kind], fp, ORB_STEPS * dt, dt,
                                           space_average=ctx.space[kind])
        e1 = np.array([1.0, inp["sign"] * np.sqrt(inp["q"])])
        e1 /= np.linalg.norm(e1)
        fp = geo.FramePoint(point=np.array(inp["point"]),
                            frame=np.column_stack([e1, [-e1[1], e1[0]]]))
        est = fl.birkhoff_average(model, ctx.obs["torus2"], fp, ORB_STEPS * dt, dt,
                                  space_average=ctx.space["torus2"])
        wfp = geo.FramePoint(point=np.array(inp["witness_point"]), frame=np.eye(2))
        witness = fl.birkhoff_average(model, ctx.obs["witness"], wfp,
                                      WITNESS_STEPS * WITNESS_DT, WITNESS_DT,
                                      space_average=ctx.space["witness"])
        return fp, est, witness

    def check(ctx, inp, out):
        problems = []
        fp, est = out[0], out[1]
        _check_estimate(problems, est, 1, ctx.space[kind])
        if kind == "octagon":
            _check_octagon_range(problems, est)
        elif kind == "sphere":
            _close(problems, "sphere orbit vs great circle", est.time_average[0, 0],
                   _great_circle_z2([fp], ORB_STEPS, dt), 1e-9)
        else:
            t = np.arange(ORB_STEPS) * dt
            want = np.mean(np.cos(fp.point[0] + t * fp.frame[0, 0]))
            _close(problems, "irrational orbit vs straight line",
                   est.time_average[0, 0], want, 1e-9)
            _require(problems, "irrational direction gap >= 0.01", est.gap < 0.01)
            witness = out[2]
            _check_estimate(problems, witness, 1, ctx.space["witness"])
            _close(problems, "witness space average", witness.space_average, 0.0, 1e-12)
            _close(problems, "witness time average", witness.time_average[0, 0],
                   np.cos(inp["witness_point"][1]), 1e-9)
            _require(problems, "rational witness gap <= 0.1", witness.gap > 0.1)
        return problems

    return OpKind(f"orbit_{kind}", inputs, run, check)


MERIDIAN_STEPS = 4000
MERIDIAN_DT = np.pi / 200


def meridian_probe():
    """The sphere meridian orbit: start on the equator heading north.

    Returns "ok" when the orbit completes with the exact time average 1/2 of
    cos^2(theta) over its 20 full periods of that function, "known-defect" when the flow
    raises ValueError at the pole (the behaviour of the sphere chart flow this
    benchmark was written against), and a description of anything else.
    """
    model = geo.round_sphere()
    fp = geo.FramePoint(point=np.array([np.pi / 2, 0.3]),
                        frame=np.array([[-1.0, 0.0], [0.0, -1.0]]))
    obs = fl.position_observable(_cos2_theta)
    try:
        est = fl.birkhoff_average(model, obs, fp, MERIDIAN_STEPS * MERIDIAN_DT,
                                  MERIDIAN_DT, space_average=np.zeros((1, 1)))
    except ValueError:
        return "known-defect"
    err = abs(est.time_average[0, 0] - 0.5)
    return "ok" if err <= 1e-9 else f"wrong time average (error {err:.3g})"


ORBIT = Workload(
    name="orbit", setup=_orbit_setup,
    ops=tuple(_orbit_kind(k) for k in ("octagon", "sphere", "torus2")),
    sizes={"steps": ORB_STEPS, "dt": ORB_DT, "witness_steps": WITNESS_STEPS,
           "witness_dt": WITNESS_DT, "meridian_probe_steps": MERIDIAN_STEPS})


# ---------------------------------------------------------------------------
# averages: quadrature-dominated state functionals

AVG_RES = {"torus3": 4, "octagon": 24, "sphere": 16, "tracial": 4, "ergodic": 4}
_RHO_MID = np.sqrt(np.sqrt(2.0) - 1.0)
_OCT_CENTERS = 0.5 * (_RHO_MID + 1 / _RHO_MID) * np.exp(1j * np.pi / 4 * np.arange(8))
_OCT_R = 0.5 * (1 / _RHO_MID - _RHO_MID)
_OCT_RHO_VERTEX = 2.0 ** -0.25


def _octagon_grid_average(fn, res):
    """The octagon midpoint-grid rule, evaluated independently of framelab."""
    h = 2 * _OCT_RHO_VERTEX / res
    g = -_OCT_RHO_VERTEX + h * (np.arange(res) + 0.5)
    z = (g[:, None] + 1j * g[None, :]).ravel()
    inside = (np.abs(z) < 1) & (np.abs(z[:, None] - _OCT_CENTERS).min(axis=1)
                                >= _OCT_R - 1e-14)
    z = z[inside]
    w = (2 / (1 - np.abs(z) ** 2)) ** 2
    return float(np.sum(w * fn(z)) / np.sum(w))


def _bump(r2_over_radius2):
    out = np.zeros_like(r2_over_radius2)
    m = r2_over_radius2 < 1
    out[m] = np.exp(1 - 1 / (1 - r2_over_radius2[m]))
    return out


def _helicity(xi):
    return 1j * np.array([[0.0, -xi[2], xi[1]], [xi[2], 0.0, -xi[0]],
                          [-xi[1], xi[0], 0.0]])


def _averages_setup(wrap):
    t3 = geo.flat_torus(3)
    p_op, q_op, _ = sp.hodge_projections(t3, 1, 2)
    return SimpleNamespace(
        torus3=t3, octagon=geo.hyperbolic_octagon(), sphere=geo.round_sphere(),
        # evaluated inside the counted bench.symbol of each op, so each
        # evaluation is one span and one symbol_evals count
        p_sym=p_op.symbol.evaluator, q_sym=q_op.symbol.evaluator,
        projections=alg.branching_projections(3, 1),
        apply_fn=lambda g: alg.exterior_power_matrix(g, 1), wrap=wrap)


def _avg_liouville_torus3():
    def inputs(rng):
        return {"c": rng.uniform(-1, 1, size=(3, 3)).tolist(), "a": float(rng.uniform(-1, 1))}

    def run(ctx, inp):
        c, a = np.array(inp["c"]), inp["a"]

        def f(point, frame):
            return np.sum(c * frame ** 2) * (1 + a * np.cos(point[0]))

        obs = fl.scalar_observable(ctx.wrap("bench.observable", f))
        return fl.liouville_haar_average(ctx.torus3, obs, AVG_RES["torus3"])

    def check(ctx, inp, out):
        # Haar: E[F_ij^2] = 1/3; the rule is exact for this degree
        problems = []
        _close(problems, "T^3 frame average", out[0, 0], np.sum(inp["c"]) / 3, 1e-12)
        return problems

    return OpKind("liouville_torus3", inputs, run, check)


def _avg_liouville_octagon():
    def inputs(rng):
        return {"radius": float(rng.uniform(0.35, 0.6))}

    def run(ctx, inp):
        rad2 = inp["radius"] ** 2

        def f(fp):
            r2 = (fp.point[0] ** 2 + fp.point[1] ** 2) / rad2
            return np.diag((math.exp(1 - 1 / (1 - r2)) if r2 < 1 else 0.0, 1.0))

        obs = fl.FlowObservable(evaluator=ctx.wrap("bench.observable", f), fiber_dim=2)
        return fl.liouville_haar_average(ctx.octagon, obs, AVG_RES["octagon"])

    def check(ctx, inp, out):
        problems = []
        _close(problems, "Liouville average of the constant 1", out[1, 1], 1.0, 1e-12)
        _close(problems, "off-diagonal", [out[0, 1], out[1, 0]], 0.0, 0.0)
        want = _octagon_grid_average(
            lambda z: _bump(np.abs(z) ** 2 / inp["radius"] ** 2), AVG_RES["octagon"])
        _close(problems, "octagon bump vs grid rule", out[0, 0], want, 1e-12)
        return problems

    return OpKind("liouville_octagon", inputs, run, check)


def _avg_liouville_sphere():
    def inputs(rng):
        return {"c": rng.uniform(-1, 1, size=5).tolist()}

    def run(ctx, inp):
        c = inp["c"]

        def f(point, frame):
            th, ph = point
            angle = np.arctan2(frame[1, 0] * np.sin(th), frame[0, 0])
            return (c[0] + c[1] * np.cos(th) + c[2] * np.cos(th) ** 2
                    + c[3] * (np.sin(th) * np.cos(ph)) ** 2 + c[4] * np.cos(2 * angle))

        obs = fl.scalar_observable(ctx.wrap("bench.observable", f))
        return fl.liouville_haar_average(ctx.sphere, obs, AVG_RES["sphere"])

    def check(ctx, inp, out):
        c = inp["c"]
        problems = []
        _close(problems, "sphere average", out[0, 0], c[0] + (c[2] + c[3]) / 3, 1e-12)
        return problems

    return OpKind("liouville_sphere", inputs, run, check)


def _avg_tracial():
    def inputs(rng):
        return {"a": float(rng.uniform(-1, 1)), "b": float(rng.uniform(-1, 1))}

    def run(ctx, inp):
        a, b = inp["a"], inp["b"]
        eye = np.eye(3)
        # the seeded terms average to 0 on the rule's grid; the pinned values stay
        sym_p = sp.SymbolField(ctx.wrap("bench.symbol", lambda x, xi: ctx.p_sym(x, xi)
                                        + a * np.cos(x[0] + x[1]) * eye), 3)
        sym_q = sp.SymbolField(ctx.wrap("bench.symbol", lambda x, xi: ctx.q_sym(x, xi)
                                        + b * np.cos(x[2]) * eye), 3)
        res = AVG_RES["tracial"]
        return (lm.tracial_state(ctx.torus3, sym_p, 3, res),
                lm.tracial_state(ctx.torus3, sym_q, 3, res))

    def check(ctx, inp, out):
        problems = []
        _close(problems, "tracial(P)", out[0].value, 2 / 3, 1e-12)
        _close(problems, "tracial(Q)", out[1].value, 1 / 3, 1e-12)
        return problems

    return OpKind("tracial_hodge", inputs, run, check)


def _avg_ergodic():
    def inputs(rng):
        return {"c": rng.uniform(-1, 1, size=4).tolist(), "component": int(rng.integers(3))}

    def run(ctx, inp):
        c = inp["c"]

        def a(x, xi):
            xi = np.asarray(xi)
            return (c[0] * np.outer(xi, xi) + c[1] * np.eye(3) + c[2] * _helicity(xi)
                    + c[3] * np.cos(x[0]) * np.eye(3))

        state = lm.tracial_state_functional(ctx.torus3, fiber_dim=3,
                                            resolution=AVG_RES["ergodic"])
        parts = lm.ergodic_decomposition(state, ctx.projections, ctx.apply_fn)
        sym = sp.SymbolField(ctx.wrap("bench.symbol", a), 3)
        return parts, lm.evaluate(parts[inp["component"]][1], sym)

    def check(ctx, inp, out):
        parts, value = out
        c = inp["c"]
        problems = []
        _close(problems, "ergodic weights", [w for w, _ in parts], 1 / 3, 1e-12)
        # tr(p_i(xi) A(xi)) does not depend on xi and cos(x_0) averages to 0,
        # so the component value is read off at xi = e_1 (identity completion)
        e1 = np.array([1.0, 0.0, 0.0])
        a0 = c[0] * np.outer(e1, e1) + c[1] * np.eye(3) + c[2] * _helicity(e1)
        proj = ctx.projections[inp["component"]]
        want = np.trace(proj.projector @ a0) / proj.dimension
        _close(problems, "ergodic component value", value.value, want, 1e-10)
        return problems

    return OpKind("ergodic_decomposition", inputs, run, check)


AVERAGES = Workload(
    name="averages", setup=_averages_setup,
    ops=(_avg_liouville_torus3(), _avg_liouville_octagon(), _avg_liouville_sphere(),
         _avg_tracial(), _avg_ergodic()),
    sizes={"resolution": AVG_RES})


# ---------------------------------------------------------------------------
# operators: spectral assembly and the matrix side of limits

OPS_K = {"hodge": 8, "variance": 6, "dirac": 8, "quantize": 20, "egorov": 20,
         "sphere_L": 24, "compare_resolution": 4}
EGOROV_SHELL = 8
DECAY_SHELLS = (2, 4, 8)


def _operators_setup(wrap):
    t2, t3, s2 = geo.flat_torus(2), geo.flat_torus(3), geo.round_sphere()
    for p in (0, 1, 2):
        sp.basis_for(t3, "forms", OPS_K["hodge"], p)
        sp.basis_for(t3, "forms", OPS_K["variance"], p)
    sp.basis_for(t3, "spinors", OPS_K["dirac"])
    sp.basis_for(t2, "functions", OPS_K["quantize"])
    sp.basis_for(t2, "functions", OPS_K["egorov"])
    # fills the spherical-harmonic grid and table caches
    sp.sphere_multiplication(OPS_K["sphere_L"], lambda th, ph: 1.0)
    coexact, _, _ = sp.hodge_projections(t3, 1, OPS_K["variance"])
    return SimpleNamespace(torus2=t2, torus3=t3, coexact=coexact, wrap=wrap)


def _frob_le(problems, label, mat, tol):
    val = sp.frob(mat)
    _require(problems, f"{label}: {val:.3g} > {tol:g}", val <= tol)


def _ops_sphere():
    def inputs(rng):
        return {"a": rng.uniform(-1, 1, size=4).tolist()}

    def run(ctx, inp):
        a = inp["a"]

        def f(th, ph):
            return a[0] + a[1] * np.cos(th) + a[2] * np.cos(th) ** 2 + a[3] * np.sin(th) * np.cos(ph)

        mult = sp.sphere_multiplication(OPS_K["sphere_L"], ctx.wrap("bench.symbol", f))
        return mult, lm.compare_states(mult.domain, mult,
                                       resolution=OPS_K["compare_resolution"])

    def check(ctx, inp, out):
        mult, report = out
        a = inp["a"]
        want = a[0] + a[2] / 3
        problems = []
        _require(problems, "multiplier adjoint defect", mult.adjoint_defect() <= 1e-12)
        _close(problems, "<Y00, f Y00>", mult.matrix[0, 0], want, 1e-12)
        _close(problems, "sphere tracial value", report.tracial.value, want, 1e-12)
        return problems

    return OpKind("sphere_multiplication", inputs, run, check)


def _ops_dirac():
    def inputs(rng):
        return {"n0": int(rng.integers(8, 65)), "t0": float(rng.uniform(0.05, 0.2))}

    def run(ctx, inp):
        sm, dirac = sp.build_dirac(ctx.torus3, OPS_K["dirac"])
        sign, p_plus, p_minus = sp.sign_and_halves(dirac)
        ladder = [inp["n0"] * 2 ** i for i in range(12) if inp["n0"] * 2 ** i < sm.dim]
        report = lm.compare_states(sm, p_plus, n_ladder=ladder,
                                   t_ladder=[inp["t0"] / 2 ** i for i in range(4)],
                                   resolution=OPS_K["compare_resolution"])
        return sm, sign, report

    def check(ctx, inp, out):
        sm, sign, report = out
        problems = []
        kernel = (sm.lam == 0).astype(float)
        _frob_le(problems, "sign^2 - (1 - ker)",
                 sign.matrix @ sign.matrix - scipy.sparse.diags(1.0 - kernel), 1e-12)
        _close(problems, "tracial(P+)", report.tracial.value, 0.5, 1e-12)
        nker = kernel.sum()
        for n, val, _ in report.cesaro_rows:
            _close(problems, f"Cesaro({n})", val, (n - nker) / (2 * n), 1e-12)
        for t, val, _, _ in report.heat_rows:
            g = np.exp(-t * sm.lam)
            _close(problems, f"heat({t:.3g})", val, 0.5 * (1 - nker / g.sum()), 1e-12)
        return problems

    return OpKind("dirac_halves", inputs, run, check)


def _ops_hodge():
    def inputs(rng):
        return {"form_seed": _seed(rng)}

    def run(ctx, inp):
        p, q, h = sp.hodge_projections(ctx.torus3, 1, OPS_K["hodge"])
        rng = np.random.default_rng(inp["form_seed"])
        v = rng.normal(size=p.domain.dim) + 1j * rng.normal(size=p.domain.dim)
        return p, q, h, v, p.matrix @ v, q.matrix @ v, h.matrix @ v

    def check(ctx, inp, out):
        p, q, h, v, pv, qv, hv = out
        problems = []
        for label, m in (("P", p.matrix), ("Q", q.matrix)):
            _frob_le(problems, f"{label}^2 - {label}", m @ m - m, 1e-10)
        _frob_le(problems, "PQ", p.matrix @ q.matrix, 1e-10)
        _frob_le(problems, "P + Q + H - 1", p.matrix + q.matrix + h.matrix
                 - scipy.sparse.identity(p.domain.dim), 1e-10)
        _close(problems, "(P + Q + H) v - v", pv + qv + hv, v, 1e-10)
        return problems

    return OpKind("hodge_projections", inputs, run, check)


def _ops_variance():
    def inputs(rng):
        return {"n": int(rng.integers(32, 97)), "shift": float(rng.uniform(-1, 1))}

    def run(ctx, inp):
        r = sp.helicity_R(ctx.torus3, OPS_K["variance"])
        p = ctx.coexact
        # P = 1 on co-exact sections, so <R + s P> - s = <R>: the deviations
        # are those of R against its limit value 0
        a_op = sp.OperatorMatrix(matrix=(r.matrix + inp["shift"] * p.matrix).tocsr(),
                                 order=0, domain=p.domain)
        return r, lm.quantum_variance(p.domain, a_op, p, inp["n"],
                                      limit_value=inp["shift"], label="co-exact")

    def check(ctx, inp, out):
        r, report = out
        problems = []
        _frob_le(problems, "R^2 - P", r.matrix @ r.matrix - ctx.coexact.matrix, 1e-10)
        _require(problems, "section count", report.n == inp["n"])
        # |<R>| <= 1 on unit sections, whatever eigenbasis is chosen
        _require(problems, "variance out of [0, 1]", 0.0 <= report.variance <= 1.0 + 1e-12)
        _close(problems, "recomputed variance", report.recomputed_variance(),
               report.variance, 1e-12)
        return problems

    return OpKind("quantum_variance", inputs, run, check)


def _trig_symbol(c, wrap):
    def term(fn):
        return wrap("bench.symbol", fn)

    return sp.TrigSymbol(terms={
        (1, 0): term(lambda xi: c[0] * xi[0] ** 2), (-1, 0): term(lambda xi: c[0] * xi[0] ** 2),
        (0, 1): term(lambda xi: c[1]), (0, -1): term(lambda xi: c[1]),
        (0, 0): term(lambda xi: c[2] * xi[1] ** 2)}, dim=2)


def _ops_quantize():
    def inputs(rng):
        return {"c": rng.uniform(-1, 1, size=3).tolist(), "t": float(rng.uniform(0.5, 1.5)),
                "columns": rng.integers(0, (2 * OPS_K["quantize"] + 1) ** 2, size=16).tolist()}

    def run(ctx, inp):
        sym = _trig_symbol(inp["c"], ctx.wrap)
        a_op = sp.quantize(ctx.torus2, sym, OPS_K["quantize"])
        report = lm.compare_states(a_op.domain, a_op, resolution=OPS_K["compare_resolution"])
        residual = lm.egorov_residual(ctx.torus2, sym, inp["t"], EGOROV_SHELL, OPS_K["egorov"])
        smoothed = sp.compose(sp.resolvent_sqrt_inverse(a_op.domain), a_op)
        decay = lm.negative_order_decay(a_op.domain, smoothed, list(DECAY_SHELLS))
        return a_op, report, residual, decay

    def check(ctx, inp, out):
        a_op, report, residual, decay = out
        c = inp["c"]
        problems = []
        _close(problems, "tracial value", report.tracial.value, c[2] / 2, 1e-12)
        sm = a_op.domain
        dense_cols = a_op.matrix[:, inp["columns"]].toarray()
        coeff = {(1, 0): lambda xi: c[0] * xi[0] ** 2, (-1, 0): lambda xi: c[0] * xi[0] ** 2,
                 (0, 1): lambda xi: c[1], (0, -1): lambda xi: c[1],
                 (0, 0): lambda xi: c[2] * xi[1] ** 2}
        for j, col in enumerate(inp["columns"]):
            want = np.zeros(sm.dim, dtype=complex)
            k = sm.labels[col][1]
            if any(k):
                xi = np.asarray(k, float) / np.linalg.norm(k)
                for nu, fn in coeff.items():
                    k2 = (k[0] + nu[0], k[1] + nu[1])
                    if any(k2) and ("f", k2) in sm.index:
                        want[sm.index[("f", k2)]] = fn(xi)
            _close(problems, f"quantized column {k}", dense_cols[:, j], want, 1e-14)
        bound = 2 * (2 * abs(c[0]) + 2 * abs(c[1]) + abs(c[2]))
        _require(problems, f"Egorov residual {residual} outside [0, {bound:.3g}]",
                 0.0 <= residual <= bound)
        norms = [n for _, n, _ in decay.rows]
        _require(problems, "decay norms not positive and finite",
                 all(np.isfinite(n) and n > 0 for n in norms))
        _require(problems, f"decay ratios {decay.ratios} not below 1",
                 all(r < 1 for r in decay.ratios))
        return problems

    return OpKind("quantize_egorov", inputs, run, check)


OPERATORS = Workload(
    name="operators", setup=_operators_setup,
    ops=(_ops_sphere(), _ops_dirac(), _ops_hodge(), _ops_quantize(), _ops_variance()),
    sizes={"K": OPS_K, "egorov_shell": EGOROV_SHELL, "decay_shells": DECAY_SHELLS})


# ---------------------------------------------------------------------------
# branching: the algebra layer (Haar-sampled commutants)

# Lambda^p R^n restricted to SO(n-1) is Lambda^p + Lambda^(p-1) of R^(n-1),
# with Lambda^2 R^4 splitting further into its self-dual halves.
BRANCHING_RANKS = {(4, 1): [1, 3], (4, 2): [3, 3], (4, 3): [1, 3], (5, 1): [1, 4]}
BRANCHING_CASES = tuple(BRANCHING_RANKS)
CONJUGATION_N = 4


def _branching_setup(wrap):
    return SimpleNamespace(clifford=alg.build_clifford(CONJUGATION_N))


def _branching_kind(n, p):
    def inputs(rng):
        return {"seed": int(rng.integers(2**31))}

    def run(ctx, inp):
        return alg.branching_report(n, p, seed=inp["seed"])

    def check(ctx, inp, out):
        problems = []
        _require(problems, "pascal split", out["pascal_split_ok"])
        _require(problems, f"ranks {out['ranks']}", sorted(out["ranks"]) == BRANCHING_RANKS[n, p])
        _require(problems, "commutant residual", out["commutant_residual"] <= 1e-10)
        _require(problems, "identity residual", out["identity_residual"] <= 1e-10)
        return problems

    return OpKind(f"branching_{n}_{p}", inputs, run, check)


def _conjugation_kind():
    def inputs(rng):
        return {"seed": int(rng.integers(2**31))}

    def run(ctx, inp):
        rep = alg.conjugation_rep(ctx.clifford)
        return rep, alg.isotypic_projections(rep, seed=inp["seed"])

    def check(ctx, inp, out):
        rep, projs = out
        problems = []
        _require(problems, "spin ranks", sorted(p.dimension for p in projs) == [2, 2])
        total = sum(p.projector for p in projs)
        _close(problems, "projections sum to 1", total, np.eye(rep.degree), 1e-10)
        _require(problems, "commutation residual",
                 alg.commutation_residual(rep, projs) <= 1e-10)
        return problems

    return OpKind("conjugation_isotypic", inputs, run, check)


BRANCHING = Workload(
    name="branching", setup=_branching_setup,
    ops=tuple(_branching_kind(n, p) for n, p in BRANCHING_CASES) + (_conjugation_kind(),),
    sizes={"cases": BRANCHING_CASES, "conjugation_clifford_n": CONJUGATION_N})


WORKLOADS = {w.name: w for w in (ENSEMBLE, ORBIT, AVERAGES, OPERATORS, BRANCHING)}
