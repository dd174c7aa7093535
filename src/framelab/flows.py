"""Frame flow, observable pull-back flow, Birkhoff and Liouville-Haar averages.

Observables are End(C^m)-valued functions of oriented orthonormal frames
(scalars for m = 1).  On two-dimensional models the frame is the oriented
completion of the flow direction, so the frame flow reduces to the geodesic
flow; on T^3 the transported part of the frame is constant.  Ergodicity is
always diagnosed, never asserted: Birkhoff estimates carry both the time and
the space average.

`frame_flow` is array-first: frame points (..., n) / (..., n, n) advance by
times that broadcast against the batch, and a single frame point is a batch of
one.  Geodesic states flow in the group form of `geometry` (SO(3) on the
sphere, SU(1,1) on the octagon), and the chart frame is completed from the
flowed velocity in the chart view; within 1e-13 of a sphere pole that frame
is NaN and the point is kept.  Birkhoff averages and `sample_trajectory`
advance all trajectories through blocks of sample times k dt.  A block holds
at most `_BLOCK_POINTS` frame points (samples x trajectories, at least one
sample).  Its geodesic states are one block of `geometry.geodesic_samples`,
which keeps block and octagon anchors in group form (so a block may end on
a pole) and on the octagon advances each sample from an anchor at most one
geodesic substep back.  Its frames come from one pass of the frame step
that `frame_flow` uses.

Every observable the library builds is one function of a whole stack of
frame points, and its value at one frame point is the row of a stack of one:
`scalar_observable`, `position_observable` and `smooth_bump`, and every
`beta_flow`, product and adjoint, which flows the stack in one `frame_flow`
call or combines its factors' values.  A user callback that takes one point
(the function of `scalar_observable` or `position_observable`, or any other
evaluator) is called once per frame point by `geometry._per_node_table`.

Orthonormality is an entry condition: `frame_flow` and the block sampler
Gram-Schmidt, in one batched call, the entering frames whose residual exceeds
1e-12.  The flow keeps frames orthonormal, so flowed frames are not re-checked.

Space averages use the package's one unit-bundle quadrature,
`geometry.unit_bundle_nodes`, with each direction completed to a frame by
`geometry.frame_completion` and, on T^3, turned through equispaced angles of
the SO(2) fibre (Haar measure).  Node tables are filled by
`FlowObservable.table` and contracted by `geometry._node_average`, as are
the symbol tables of the tracial states of `limits`.
"""

import operator
from dataclasses import dataclass

import numpy as np

from . import geometry as geo

_BLOCK_POINTS = 4096  # frame points per block in _sample_blocks
_ORTHO_FIX = 1e-12  # orthonormality residual above which an entering frame is repaired


@dataclass(frozen=True, eq=False)
class FlowObservable:
    """Map from frame points to m x m complex matrices (scalars for m = 1).

    `equivariance_rep`, when present, is an SO(n-1) RepresentationTable whose
    conjugation action the observable must intertwine under the right action
    on fibers; `equivariance_residual` checks this on the table's sample.

    The evaluator takes one frame point.  `table` is the one entry through
    which the library's quadratures call it: a library observable's rows once
    per block or chunk, building no `FramePoint`, and any other evaluator once
    per frame point.
    """

    evaluator: callable
    fiber_dim: int = 1
    equivariance_rep: object = None

    def table(self, points, frames):
        """The observable at the frame points (points (..., n), frames
        (..., n, n)): (..., m, m) complex."""
        n, m = points.shape[-1], self.fiber_dim
        values = self._values(points.reshape(-1, n), frames.reshape(-1, n, n))
        return np.asarray(values, dtype=complex).reshape(points.shape[:-1] + (m, m))

    def _values(self, points, frames):
        """The values at points (N, n), frames (N, n, n), in their own dtype:
        (N,) for m = 1, else (N, m, m).  A library observable's rows, or one
        evaluator call per frame point; a value of the wrong size raises
        instead of broadcasting."""
        ev, m = self.evaluator, self.fiber_dim
        values = (ev.rows(points, frames) if isinstance(ev, _RowEvaluator)
                  else geo._per_node_table(ev, map(geo.FramePoint, points, frames)))
        return np.reshape(values, (len(points),) if m == 1 else (len(points), m, m))


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


@dataclass(frozen=True)
class _RowEvaluator:
    """Evaluator of a library observable: rows(points (N, n), frames
    (N, n, n)) gives the N values in one call, and its value at one frame
    point is the row of a stack of one."""

    rows: callable

    def __call__(self, fp):
        return self.rows(np.asarray(fp.point)[None], np.asarray(fp.frame)[None])[0]


def scalar_observable(fn):
    """Observable from a function of (point, frame), called on each row."""
    return FlowObservable(evaluator=_RowEvaluator(
        lambda points, frames: geo._per_node_table(fn, points, frames)))


def position_observable(fn):
    """Scalar observable depending on the base point only; fn is called on
    each point row."""
    return FlowObservable(evaluator=_RowEvaluator(
        lambda points, frames: geo._per_node_table(fn, points)))


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
    determinant.  Entering frames whose orthonormality residual exceeds 1e-12
    are first re-orthonormalized, in one Gram-Schmidt call.  A frame that
    ends within 1e-13 of a sphere pole is NaN, and its point is kept.
    """
    fp = _orthonormalize_drifted(model, fp)
    end = geo.geodesic_advance(model, geo.PointState(fp.point, fp.frame[..., 0]), t)
    return geo.FramePoint(point=end.point, frame=_flowed_frames(model, fp, end))


def _orthonormalize_drifted(model, fp):
    """Frame point(s) fp with the frames whose orthonormality residual exceeds
    1e-12 replaced by their Gram-Schmidt frames (one call); fp when none drifts."""
    drifted = np.asarray(geo.orthonormality_residual(model, fp)) > _ORTHO_FIX
    if not drifted.any():
        return fp
    point = np.asarray(fp.point, dtype=float)
    frame = np.array(fp.frame, dtype=float)
    frame[drifted] = geo.gram_orthonormalize(model, point[drifted], frame[drifted])
    return geo.FramePoint(point=point, frame=frame)


def _flowed_frames(model, fp, end):
    """The frame step of the frame flow: frames (..., n, n) at the geodesic
    states `end` flowed from the frame point(s) fp, whose batch broadcasts
    against end's.

    Tori carry the whole frame along; the curved surfaces complete the new
    e_1 and keep the side of fp's frame.  fp's frames must be orthonormal;
    the output is not re-checked.
    """
    n = model.dim
    if model.kind == geo.TORUS:  # flat: the whole frame is parallel
        frame = np.broadcast_to(fp.frame, end.point.shape + (n,)).copy()
    else:
        frame = geo.frame_completion(model, end.point, end.velocity)
        negative = np.logical_not(geo.is_oriented(fp))
        if negative.any():
            frame[..., 1] *= np.where(negative, -1.0, 1.0)[..., None]
    return frame


def _turns(a):
    """SO(2) rotations by the angles a, shape a.shape + (2, 2)."""
    c, s = np.cos(a), np.sin(a)
    return np.stack([np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)], axis=-2)


def right_action(fp, g):
    """Rotate the transported frame part (e_2 .. e_n) of frames (..., n, n)
    by g in SO(n-1), one g or a stack that broadcasts against the batch."""
    g = np.asarray(g, dtype=float)
    m = fp.frame.shape[-1] - 1
    if g.shape[-2:] != (m, m):
        raise ValueError(f"expected a {m}x{m} rotation")
    if (np.abs(g.swapaxes(-1, -2) @ g - np.eye(m)).max() > 1e-10
            or (np.linalg.det(g) < 0).any()):
        raise ValueError("right action requires a special orthogonal matrix")
    frame = fp.frame.copy()
    frame[..., 1:] = frame[..., 1:] @ g
    return geo.FramePoint(point=fp.point.copy(), frame=frame)


def beta_flow(model, obs, t):
    """Pull-back flow on observables: (beta_t f)(x) = f(gamma_{-t} x).

    Its rows flow the whole stack in one `frame_flow` call and read the
    values of `obs` there."""
    def rows(points, frames):
        end = frame_flow(model, geo.FramePoint(point=points, frame=frames), -t)
        return obs._values(end.point, end.frame)

    return FlowObservable(evaluator=_RowEvaluator(rows), fiber_dim=obs.fiber_dim,
                          equivariance_rep=obs.equivariance_rep)


def obs_product(f, h):
    """Pointwise product observable, whose rows are the products of the
    factors' values; equivariant when both factors carry the same table."""
    if f.fiber_dim != h.fiber_dim:
        raise ValueError("fiber dimensions differ")
    op = operator.mul if f.fiber_dim == 1 else operator.matmul
    ev = _RowEvaluator(lambda *stack: op(f._values(*stack), h._values(*stack)))
    rep = f.equivariance_rep if f.equivariance_rep is h.equivariance_rep else None
    return FlowObservable(evaluator=ev, fiber_dim=f.fiber_dim, equivariance_rep=rep)


def obs_adjoint(f):
    """Pointwise adjoint observable, whose rows are the conjugate transposed
    values; as equivariant as f (rho is unitary)."""
    adjoint = np.conj if f.fiber_dim == 1 else lambda v: np.conj(v).swapaxes(-1, -2)
    return FlowObservable(evaluator=_RowEvaluator(lambda *stack: adjoint(f._values(*stack))),
                          fiber_dim=f.fiber_dim, equivariance_rep=f.equivariance_rep)


def equivariance_residual(model, obs, rng=None):
    """Max defect of f(x.g) = rho(g)^{-1} f(x) rho(g) over 20 sampled (x, g)."""
    if obs.equivariance_rep is None:
        raise ValueError("observable carries no equivariance table")
    rng = rng or np.random.default_rng(0)
    rep = obs.equivariance_rep
    draws = [(random_frame_point(model, rng), rep.sample[rng.integers(len(rep.sample))])
             for _ in range(20)]
    fp = geo.FramePoint(point=np.array([f.point for f, _ in draws]),
                        frame=np.array([f.frame for f, _ in draws]))
    moved = right_action(fp, np.array([g for _, (g, _, _) in draws]))
    table = obs.table(np.concatenate([moved.point, fp.point]),
                      np.concatenate([moved.frame, fp.frame]))
    us = np.array([u for _, (_, u, _) in draws])
    rhs = us.conj().swapaxes(-1, -2) @ table[len(us):] @ us
    return float(np.abs(table[:len(us)] - rhs).max())


# ---------------------------------------------------------------------------
# Random frame points


def random_frame_point(model, rng):
    """Seeded random frame point, base distributed by the Riemannian measure;
    on the sphere that measure restricted to |cos theta| <= 0.98, away from
    the chart's poles.

    The octagon base point is a rejection draw: candidates uniform in the
    square [-rho, rho]^2 around the octagon (rho its vertex radius), kept
    when in the octagon, then with probability (lambda / lambda_max)^2 for
    the conformal factor lambda.  Candidates are decided on Python floats,
    with the draws and bits of numpy's uniform(-rho, rho, size=2) and
    uniform(): every seed gives the frame points and generator state of
    that loop written on numpy arrays.
    """
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
        rho = geo._OCT_RHO_VERTEX
        lam_max = 2.0 / (1.0 - rho ** 2)
        while True:
            # uniform(low, high) is low + (high - low) * random(), bit for bit
            u, v = rng.random(2).tolist()
            x, y = -rho + (rho - -rho) * u, -rho + (rho - -rho) * v
            r2 = x * x + y * y
            if not geo._oct_row_contains(x, y, r2):
                continue
            lam = 2.0 / (1.0 - r2)  # the square root of the metric's lambda^2, exactly
            if rng.random() < (lam / lam_max) ** 2:
                point = np.array([x, y])
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
    """Liouville x Haar quadrature average of the observable (the constant 1
    averages to 1 up to rounding).

    The node table is filled by `FlowObservable.table` and contracted by
    `geometry._node_average`, with a ones column for the normalization."""
    points, frames, weights = liouville_nodes(model, resolution)

    def rows(points, frames):
        values = obs.table(points, frames).reshape(len(points), -1)
        return np.column_stack([values, np.ones(len(points))])

    m = obs.fiber_dim
    return geo._node_average(weights, rows, points, frames).reshape(m, m)


# ---------------------------------------------------------------------------
# Birkhoff averages


def _sample_blocks(model, fps, steps, dt):
    """Frame points of the trajectories from `fps` at the sample times k dt,
    k = 0 .. steps - 1, as FramePoint blocks of shape (samples, len(fps), ...).

    A block holds at most `_BLOCK_POINTS` frame points (at least one sample).
    Its geodesic states are one block of `geometry.geodesic_samples` from the
    starting points, re-orthonormalized where they drift.  Its frames come
    from one pass of the frame step of `frame_flow`, with the starting
    frames' sides.
    """
    start = _orthonormalize_drifted(model, geo.FramePoint(
        point=np.stack([fp.point for fp in fps]), frame=np.stack([fp.frame for fp in fps])))
    size = max(1, _BLOCK_POINTS // len(fps))
    for end in geo.geodesic_samples(model, geo.PointState(start.point, start.frame[..., 0]),
                                    dt, steps, size):
        yield geo.FramePoint(point=end.point, frame=_flowed_frames(model, start, end))


def _sample_count(horizon, dt):
    """round(horizon / dt) samples; ValueError unless horizon >= dt > 0 are finite."""
    if not (np.isfinite(horizon) and np.isfinite(dt) and horizon >= dt > 0):
        raise ValueError("need finite horizon >= dt > 0")
    return int(round(horizon / dt))


def birkhoff_average(model, obs, fps, horizon, dt=0.01,
                     space_resolution=12, space_average=None):
    """Trajectory time average versus Liouville-Haar space average.

    `fps` is one FramePoint or a non-empty list (the time average is then
    the ensemble mean over trajectories).  The observable is sampled at the
    times k dt, k = 0 .. round(horizon / dt) - 1, for finite horizon >= dt > 0.
    All trajectories advance together through blocks of sample times: a block
    holds at most 4,096 frame points (samples x trajectories, at least one
    sample), so memory stays flat in the horizon.  The space average can be
    passed in to avoid recomputation across calls.
    """
    steps = _sample_count(horizon, dt)
    if isinstance(fps, geo.FramePoint):
        fps = [fps]
    if not len(fps):
        raise ValueError("need at least one frame point")
    traj = np.zeros((len(fps), obs.fiber_dim, obs.fiber_dim), dtype=complex)
    for block in _sample_blocks(model, fps, steps, dt):
        traj += obs.table(block.point, block.frame).sum(axis=0)
    acc = (traj / steps).sum(axis=0) / len(fps)
    if space_average is None:
        space_average = liouville_haar_average(model, obs, space_resolution)
    return BirkhoffEstimate(time_average=acc, space_average=np.asarray(space_average, dtype=complex).reshape(obs.fiber_dim, obs.fiber_dim),
                            horizon=float(horizon), step=float(dt),
                            trajectory_count=len(fps))


def sample_trajectory(model, obs, fp, horizon, dt):
    """Trajectory samples at the times k dt, k = 0 .. round(horizon / dt) - 1,
    for finite horizon >= dt > 0: arrays (times, points, frames, normalized
    traces of the observable)."""
    steps = _sample_count(horizon, dt)
    times = np.arange(steps) * dt
    points = np.empty((steps, model.dim))
    frames = np.empty((steps, model.dim, model.dim))
    values = np.empty(steps, dtype=complex)
    first = 0
    for block in _sample_blocks(model, [fp], steps, dt):
        rows = slice(first, first + len(block.point))
        points[rows], frames[rows] = block.point[:, 0], block.frame[:, 0]
        values[rows] = np.trace(obs.table(block.point, block.frame)[:, 0],
                                axis1=-2, axis2=-1) / obs.fiber_dim
        first = rows.stop
    return times, points, frames, values


def smooth_bump(radius=0.55):
    """Compactly supported mollifier of the euclidean radius (octagon base):
    exp(1 - 1 / (1 - r^2 / radius^2)) inside the radius, 0 from it on.

    Its rows are one array expression of the point rows (N, 2) per block
    or chunk."""

    def rows(points, frames):
        x, y = points[..., 0], points[..., 1]
        r2 = (x * x + y * y) / (radius * radius)
        inside = r2 < 1.0
        out = np.zeros(r2.shape)
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - r2[inside]))
        return out

    return FlowObservable(evaluator=_RowEvaluator(rows))
