"""Frame flow, observable pull-back flow, Birkhoff and Liouville-Haar averages.

Observables are End(C^m)-valued functions of oriented orthonormal frames
(scalars for m = 1).  On two-dimensional models the frame is the oriented
completion of the flow direction, so the frame flow reduces to the geodesic
flow; on T^3 the transported part of the frame is constant.  Ergodicity is
always diagnosed, never asserted: Birkhoff estimates carry both the time and
the space average.

`frame_flow` is array-first: frame points (..., n) / (..., n, n) advance by
times that broadcast against the batch, and a single frame point is a batch of
one.  Birkhoff averages and `sample_trajectory` advance all trajectories
through blocks of sample times k dt with one `frame_flow` call per block,
each sample taken from the block's anchor by the closed-form flow.  A block
holds at most `_BLOCK_POINTS` frame points and, on the octagon, spans at most
one geodesic substep (0.5); the observable is still evaluated once per sample
and trajectory.

Space averages use the package's one unit-bundle quadrature,
`geometry.unit_bundle_nodes`, with each direction completed to a frame by
`geometry.frame_completion` and, on T^3, turned through equispaced angles of
the SO(2) fibre (Haar measure).
"""

from dataclasses import dataclass

import numpy as np

from . import geometry as geo

_ORTHO_FIX = 1e-12
_BLOCK_POINTS = 4096  # frame points per frame_flow call in _sample_blocks


@dataclass(frozen=True, eq=False)
class FlowObservable:
    """Map from frame points to m x m complex matrices (scalars for m = 1).

    `equivariance_rep`, when present, is an SO(n-1) RepresentationTable whose
    conjugation action the observable must intertwine under the right action
    on fibers; `equivariance_residual` checks this on the table's sample.
    """

    evaluator: callable
    fiber_dim: int = 1
    equivariance_rep: object = None


@dataclass(frozen=True, eq=False)
class BirkhoffEstimate:
    """Time and space averages of an observable along frame-flow trajectories."""

    time_average: np.ndarray
    space_average: np.ndarray
    horizon: float
    step: float
    trajectory_count: int

    @property
    def gap(self):
        return float(np.abs(self.time_average - self.space_average).max())


def _eval(obs, fp):
    out = np.asarray(obs.evaluator(fp), dtype=complex)
    if obs.fiber_dim == 1:
        return out.reshape(1, 1)
    return out


def scalar_observable(fn):
    """Observable from a function of (point, frame)."""
    return FlowObservable(evaluator=lambda fp: fn(fp.point, fp.frame), fiber_dim=1)


def position_observable(fn):
    """Scalar observable depending on the base point only."""
    return FlowObservable(evaluator=lambda fp: fn(fp.point), fiber_dim=1)


# ---------------------------------------------------------------------------
# Frame flow and right action


def frame_flow(model, fp, t):
    """Advance frame point(s): e_1 flows along the geodesic, the rest is
    parallel transported.

    Array-first like `geometry.geodesic_advance`: `fp.point` has shape
    (..., n), `fp.frame` (..., n, n), and `t` is a scalar or an array that
    broadcasts against the batch shape; a single frame point and a scalar t
    give the shapes (n,) and (n, n).  On two-dimensional models e_2 is the
    metric normal of e_1 on the side given by the sign of the incoming frame's
    determinant.  A frame whose orthonormality residual exceeds 1e-12 is
    re-orthonormalized by Gram-Schmidt.
    """
    state = geo.PointState(point=fp.point, velocity=fp.frame[..., 0])
    end = geo.geodesic_advance(model, state, t)
    n = model.dim
    if model.kind == geo.TORUS:  # flat: the whole frame is parallel
        frame = np.broadcast_to(fp.frame, end.point.shape + (n,)).copy()
    else:
        frame = geo.frame_completion(model, end.point, end.velocity)
        negative = np.logical_not(geo.is_oriented(model, fp))
        if negative.any():
            frame[..., 1] *= np.where(negative, -1.0, 1.0)[..., None]
    residual = geo.orthonormality_residual(model, geo.FramePoint(point=end.point, frame=frame))
    drifted = np.flatnonzero(residual > _ORTHO_FIX)
    if len(drifted):
        points, frames = end.point.reshape(-1, n), frame.reshape(-1, n, n)
        for i in drifted:
            frames[i] = geo.gram_orthonormalize(model, points[i], frames[i])
    return geo.FramePoint(point=end.point, frame=frame)


def _turns(a):
    """SO(2) rotations by the angles a, shape a.shape + (2, 2)."""
    c, s = np.cos(a), np.sin(a)
    return np.stack([np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)], axis=-2)


def right_action(fp, g):
    """Rotate the transported frame part (e_2 .. e_n) by g in SO(n-1)."""
    g = np.asarray(g, dtype=float)
    m = fp.frame.shape[1] - 1
    if g.shape != (m, m):
        raise ValueError(f"expected a {m}x{m} rotation")
    if np.abs(g.T @ g - np.eye(m)).max() > 1e-10 or np.linalg.det(g) < 0:
        raise ValueError("right action requires a special orthogonal matrix")
    frame = fp.frame.copy()
    frame[:, 1:] = frame[:, 1:] @ g
    return geo.FramePoint(point=fp.point.copy(), frame=frame)


def beta_flow(model, obs, t):
    """Pull-back flow on observables: (beta_t f)(x) = f(gamma_{-t} x)."""
    return FlowObservable(
        evaluator=lambda fp: obs.evaluator(frame_flow(model, fp, -t)),
        fiber_dim=obs.fiber_dim,
        equivariance_rep=obs.equivariance_rep,
    )


def obs_product(f, h):
    """Pointwise product observable."""
    if f.fiber_dim != h.fiber_dim:
        raise ValueError("fiber dimensions differ")
    if f.fiber_dim == 1:
        ev = lambda fp: f.evaluator(fp) * h.evaluator(fp)
    else:
        ev = lambda fp: f.evaluator(fp) @ h.evaluator(fp)
    return FlowObservable(evaluator=ev, fiber_dim=f.fiber_dim)


def obs_adjoint(f):
    """Pointwise adjoint observable."""
    if f.fiber_dim == 1:
        ev = lambda fp: np.conj(f.evaluator(fp))
    else:
        ev = lambda fp: np.asarray(f.evaluator(fp)).conj().T
    return FlowObservable(evaluator=ev, fiber_dim=f.fiber_dim)


def equivariance_residual(model, obs, rng=None, samples=20):
    """Max defect of f(x.g) = rho(g)^{-1} f(x) rho(g) over sampled (x, g)."""
    if obs.equivariance_rep is None:
        raise ValueError("observable carries no equivariance table")
    rng = rng or np.random.default_rng(0)
    rep = obs.equivariance_rep
    worst = 0.0
    for _ in range(samples):
        fp = random_frame_point(model, rng)
        g, u, _ = rep.sample[rng.integers(len(rep.sample))]
        lhs = _eval(obs, right_action(fp, g))
        rhs = u.conj().T @ _eval(obs, fp) @ u
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst


# ---------------------------------------------------------------------------
# Random frame points


def random_frame_point(model, rng):
    """Seeded random frame point, base distributed by the Riemannian measure."""
    n = model.dim
    if model.kind == geo.TORUS:
        point = rng.uniform(0, model.periods, size=n)
        e1 = rng.normal(size=n)
        frame = geo.frame_completion(model, point, e1 / np.linalg.norm(e1))
        if n == 3:  # Haar on the SO(2) fibre over the uniform direction
            frame[:, 1:] = frame[:, 1:] @ _turns(rng.uniform(0, 2 * np.pi))
        return geo.FramePoint(point=point, frame=frame)
    if model.kind == geo.SPHERE:
        c = rng.uniform(-0.98, 0.98)
        point = np.array([np.arccos(c), rng.uniform(0, 2 * np.pi)])
    else:
        lam_max = 2.0 / (1.0 - geo._OCT_RHO_VERTEX ** 2)
        while True:
            xy = rng.uniform(-geo._OCT_RHO_VERTEX, geo._OCT_RHO_VERTEX, size=2)
            z = complex(xy[0], xy[1])
            if not geo.octagon_contains(z):
                continue
            lam = 2.0 / (1.0 - abs(z) ** 2)
            if rng.uniform() < (lam / lam_max) ** 2:
                point = xy
                break
    a = rng.uniform(0, 2 * np.pi)
    g = geo.metric_at(model, point)
    scale = 1.0 / np.sqrt(np.diag(g))
    e1 = np.array([np.cos(a) * scale[0], np.sin(a) * scale[1]])
    e1 /= np.sqrt(e1 @ g @ e1)
    return geo.FramePoint(point=point, frame=geo.frame_completion(model, point, e1))


# ---------------------------------------------------------------------------
# Liouville x Haar quadrature


def liouville_nodes(model, resolution):
    """Quadrature for the Liouville measure on the unit tangent bundle extended
    by Haar measure on the frame fibre: arrays (points (N, n), frames
    (N, n, n), weights (N,)), weights not normalized.

    The unit-bundle nodes of `geometry.unit_bundle_nodes` are completed to
    frames; on T^3 each frame's (e_2, e_3) is turned through `resolution`
    equispaced angles.
    """
    points, dirs, weights = geo.unit_bundle_nodes(model, resolution)
    frames = geo.frame_completion(model, points, dirs)
    if model.dim == 3:
        turns = _turns(np.arange(resolution) * (2 * np.pi / resolution))
        turned = np.repeat(frames[:, None], resolution, axis=1)
        turned[..., 1:] = frames[:, None, :, 1:] @ turns
        frames = turned.reshape(-1, 3, 3)
        points = np.repeat(points, resolution, axis=0)
        weights = np.repeat(weights, resolution)
    return points, frames, weights


def liouville_haar_average(model, obs, resolution=12):
    """Liouville x Haar quadrature average of the observable (one call per node;
    the constant 1 averages to 1 up to rounding)."""
    points, frames, weights = liouville_nodes(model, resolution)
    table = np.ones((len(weights), obs.fiber_dim ** 2 + 1), dtype=complex)
    for i, (point, frame) in enumerate(zip(points, frames)):
        table[i, :-1] = _eval(obs, geo.FramePoint(point=point, frame=frame)).ravel()
    sums = weights @ table  # numerator and normalization from one reduction
    return (sums[:-1] / sums[-1]).reshape(obs.fiber_dim, obs.fiber_dim)


# ---------------------------------------------------------------------------
# Birkhoff averages


def _sample_blocks(model, fps, steps, dt):
    """Frame points of the trajectories from `fps` at the sample times k dt,
    k = 0 .. steps - 1, as FramePoint blocks of shape (samples, len(fps), ...).

    One `frame_flow` call gives a whole block, each sample advanced from the
    block's anchor, the last sample of the block before (the starting points
    for the first).  A block holds at most `_BLOCK_POINTS` frame points (at
    least one sample) and spans at most `geometry._advance_span` (on the
    octagon one geodesic substep, floor(0.5 / dt) samples), so every sample
    takes a single closed-form advance.
    """
    anchor = geo.FramePoint(point=np.stack([fp.point for fp in fps]),
                            frame=np.stack([fp.frame for fp in fps]))
    size = max(1, _BLOCK_POINTS // len(fps))
    span = geo._advance_span(model)
    if np.isfinite(span):
        size = min(size, max(1, int(span / dt)))
    first = 0
    while first < steps:
        count = min(size, steps - first)
        offsets = np.arange(count) if first == 0 else np.arange(1, count + 1)
        block = frame_flow(model, anchor, (offsets * dt)[:, None])
        yield block
        anchor = geo.FramePoint(point=block.point[-1], frame=block.frame[-1])
        first += count


def _block_values(obs, block):
    """Observable values (samples, trajectories, m, m) on a block."""
    n = block.point.shape[-1]
    values = [_eval(obs, geo.FramePoint(point=p, frame=f))
              for p, f in zip(block.point.reshape(-1, n), block.frame.reshape(-1, n, n))]
    return np.array(values).reshape(block.point.shape[:2] + values[0].shape)


def birkhoff_average(model, obs, fps, horizon, dt=0.01,
                     space_resolution=12, space_average=None):
    """Trajectory time average versus Liouville-Haar space average.

    `fps` is one FramePoint or a list (the time average is then the ensemble
    mean over trajectories).  The observable is sampled at the times k dt,
    k = 0 .. round(horizon / dt) - 1.  All trajectories advance together, one
    `frame_flow` call per block of sample times: a block holds at most 4,096
    frame points (samples x trajectories, at least one sample) and, on the
    octagon, at most floor(0.5 / dt) samples, so memory stays flat in the
    horizon.  The space average can be passed in to avoid recomputation
    across calls.
    """
    if horizon < dt or dt <= 0:
        raise ValueError("need horizon >= dt > 0")
    if isinstance(fps, geo.FramePoint):
        fps = [fps]
    steps = int(round(horizon / dt))
    traj = np.zeros((len(fps), obs.fiber_dim, obs.fiber_dim), dtype=complex)
    for block in _sample_blocks(model, fps, steps, dt):
        traj += _block_values(obs, block).sum(axis=0)
    acc = (traj / steps).sum(axis=0) / len(fps)
    if space_average is None:
        space_average = liouville_haar_average(model, obs, space_resolution)
    return BirkhoffEstimate(time_average=acc, space_average=np.asarray(space_average, dtype=complex).reshape(obs.fiber_dim, obs.fiber_dim),
                            horizon=float(horizon), step=float(dt),
                            trajectory_count=len(fps))


def sample_trajectory(model, obs, fp, horizon, dt):
    """Trajectory samples at the times k dt, k = 0 .. round(horizon / dt) - 1:
    arrays (times, points, frames, normalized traces of the observable)."""
    steps = int(round(horizon / dt))
    times = np.arange(steps) * dt
    points = np.empty((steps, model.dim))
    frames = np.empty((steps, model.dim, model.dim))
    values = np.empty(steps, dtype=complex)
    first = 0
    for block in _sample_blocks(model, [fp], steps, dt):
        rows = slice(first, first + len(block.point))
        points[rows], frames[rows] = block.point[:, 0], block.frame[:, 0]
        values[rows] = np.trace(_block_values(obs, block)[:, 0], axis1=-2, axis2=-1) / obs.fiber_dim
        first = rows.stop
    return times, points, frames, values


def smooth_bump(radius=0.55):
    """Compactly supported mollifier of the euclidean radius (octagon base)."""

    def fn(point):
        r2 = (point[0] ** 2 + point[1] ** 2) / (radius * radius)
        if r2 >= 1.0:
            return 0.0
        return np.exp(1.0 - 1.0 / (1.0 - r2))

    return position_observable(fn)
