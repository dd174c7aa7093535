"""Closed-form model manifolds: metric, geodesics, parallel transport, holonomy.

Three models are provided, each with exact (closed-form) flow and transport:

- flat tori T^n (n = 2, 3) with configurable periods,
- the round unit 2-sphere in spherical coordinates (poles excluded from the
  chart),
- the regular genus-2 hyperbolic octagon in the Poincare disk, with the
  standard opposite-side pairings.

Geodesic states flow in group form, and the chart `PointState` is a view of
it.  A sphere state is the ambient pair (x, u), a point of SO(3) = S^2's
frame bundle, which the flow rotates in its plane.  An octagon state is the
first row (a, b) of g in SU(1,1) with its speed s: the flow multiplies g on
the right by a one-parameter subgroup, re-entry into the fundamental domain
on the left by a side pairing, and the view is z = b / conj(a),
v = s / (2 conj(a)^2).  Within 1e-13 of a sphere pole the view keeps the
point and gives NaN velocity components: the chart has none there.

The octagon flow runs a batch on numpy arrays and a single state (one
trajectory's anchor chain) on Python complex values, bit for bit alike
(`_oct_flow`).  Octagon states and times must be finite and points inside
the unit disk (`ValueError`).

The package's one quadrature rule on the unit tangent bundle
(`unit_bundle_nodes`), its one sphere rule (`_sphere_rule`, also used by
`spectral`), oriented frame completion (`frame_completion`) and chunked node
contraction (`_node_average`) live here; the Liouville-Haar averages of
`flows` and the tracial states of `limits` integrate with them.  `holonomy`
carries a vector around a polygon with `parallel_transport`.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import ResolutionError

TORUS = "flat_torus"
SPHERE = "sphere"
OCTAGON = "octagon"

_BOUNDARY_TOL = 1e-14
_MAX_SUBSTEP = 0.5
_OCT_MAX_PAIRINGS = 32  # per substep, before re-entry counts as failed
_NODE_CHUNK = 8192  # quadrature nodes per callback table in `_node_average`


@dataclass(frozen=True)
class ManifoldModel:
    """A closed-form Riemannian model manifold, whose value is (kind, dim,
    periods): models compare and hash by it.

    Fields
    ------
    kind : one of "flat_torus", "sphere", "octagon"
    dim : chart dimension n
    periods : tuple of n positive reals (tori only)

    `curvature` and `side_pairings` are derived from the kind.
    """

    kind: str
    dim: int
    periods: tuple | None = None

    def __post_init__(self):
        if self.kind == TORUS:
            if self.dim not in (2, 3):
                raise ValueError(f"flat torus supports dim 2 or 3, got {self.dim}")
            if len(self.periods) != self.dim or min(self.periods) <= 0:
                raise ValueError("torus needs one positive period per dimension")
        elif self.kind in (SPHERE, OCTAGON):
            if self.dim != 2:
                raise ValueError(f"{self.kind} is two-dimensional")
        else:
            raise ValueError(f"unknown manifold kind {self.kind!r}")

    @property
    def curvature(self):
        """Constant sectional curvature (0, +1, -1)."""
        return {TORUS: 0.0, SPHERE: 1.0, OCTAGON: -1.0}[self.kind]

    @property
    def side_pairings(self):
        """The octagon's (8, 2, 2) SU(1,1) side pairings, the table its flow
        uses (`_OCT_PAIRINGS`); None on the other kinds."""
        return _OCT_PAIRINGS if self.kind == OCTAGON else None


@dataclass(frozen=True, eq=False)
class PointState:
    """A base point with a tangent vector, both in chart coordinates."""

    point: np.ndarray
    velocity: np.ndarray


@dataclass(frozen=True, eq=False)
class FramePoint:
    """A base point with an oriented orthonormal frame (columns e_1 .. e_n).

    The first column is the flow direction; orthonormality is with respect to
    the chart metric at `point`.
    """

    point: np.ndarray
    frame: np.ndarray


def flat_torus(dim=2, periods=None):
    """Flat torus with the given periods (default 2*pi in each coordinate)."""
    if periods is None:
        periods = (2.0 * np.pi,) * dim
    return ManifoldModel(kind=TORUS, dim=dim, periods=tuple(float(p) for p in periods))


def round_sphere():
    """Round unit 2-sphere, chart (theta, phi) with theta in (0, pi)."""
    return ManifoldModel(kind=SPHERE, dim=2)


# ---------------------------------------------------------------------------
# Regular genus-2 octagon in the Poincare disk.
#
# All eight vertex angles equal pi/4, so the inradius d satisfies
# cosh d = cot(pi/8) = 1 + sqrt(2).  Opposite sides are identified by the
# hyperbolic translation of length 2d through the origin along the side
# midpoint direction exp(i k pi/4).

_OCT_COSH_D = 1.0 + np.sqrt(2.0)
_OCT_SINH_HALF = np.sqrt(_OCT_COSH_D**2 - 1.0)          # sinh of the translation half-length
_OCT_RHO_MID = np.sqrt(np.sqrt(2.0) - 1.0)              # euclidean radius of side midpoints
_OCT_RHO_VERTEX = 2.0 ** (-0.25)                        # euclidean radius of vertices
_OCT_CIRCLE_C = 0.5 * (_OCT_RHO_MID + 1.0 / _OCT_RHO_MID)
_OCT_CIRCLE_R = 0.5 * (1.0 / _OCT_RHO_MID - _OCT_RHO_MID)
_OCT_DIRS = np.exp(1j * np.pi / 4.0 * np.arange(8))
_OCT_CENTERS = _OCT_CIRCLE_C * _OCT_DIRS

# SU(1,1) pairing P_k = [[cosh d, sinh d e^{ik pi/4}], [sinh d e^{-ik pi/4}, cosh d]]:
# the translation by 2d along exp(i k pi/4).  It maps side k+4 onto side k,
# so crossing side k applies P_{k+4}.
_OCT_PAIRINGS = np.array([[[_OCT_COSH_D, _OCT_SINH_HALF * w],
                           [_OCT_SINH_HALF * np.conj(w), _OCT_COSH_D]] for w in _OCT_DIRS])
_OCT_PAIRINGS.setflags(write=False)


def hyperbolic_octagon():
    """Regular genus-2 octagon quotient of the Poincare disk (curvature -1)."""
    return ManifoldModel(kind=OCTAGON, dim=2)


def octagon_contains(z, tol=_BOUNDARY_TOL):
    """True where the disk point(s) z lie in the closed fundamental octagon;
    a bool for a scalar z, a mask of its shape for an array."""
    z = np.asarray(z)
    out = (np.abs(z) < 1.0) & (np.abs(z[..., None] - _OCT_CENTERS).min(axis=-1)
                               >= _OCT_CIRCLE_R - tol)
    return out if out.ndim else bool(out)


def _oct_flow(a, b, s, t, k):
    """Octagon group states (1-D arrays a, b, not changed; speeds s) advanced
    k times in succession by their own times t: an array (2, k, len(a)) of
    (a, b) after each advance.

    The times are cut into substeps h (|h| <= `_MAX_SUBSTEP`) once, by
    `_oct_plan`, and every advance applies the same substeps, so k advances
    are bit-identical to k calls of one.  A substep is `_oct_boost`, then
    `_oct_reenter`, on arrays for a batch.  One row (len(a) == 1), where
    numpy's per-call cost would dominate, runs `_oct_row_substep` on Python
    complex values with the same bits.  Python boosts (a complex times a real
    rounds once per component, as in numpy) and decides inside or outside,
    and the side, from squared distances to the side circles, with a
    relative margin of 1e-9 on the test against `_OCT_CIRCLE_R -
    _BOUNDARY_TOL` and on the argmin.  numpy, whose rounding Python's differs
    from, does the pairing product (it fuses the complex multiply-add) and
    the norm's complex abs (not libm's hypot) on the array (a, b); the state
    is multiplied by the norm's reciprocal, as numpy divides by a real.  A
    state in the margin, at an argmin tie or not finite goes to
    `_oct_reenter` as a one-row array, which decides as in a batch.
    """
    plan = _oct_plan(s, t)
    if len(a) == 1:
        steps = [(float(c[0]), float(sh[0])) for _, c, sh in plan if len(c)]
        a, b = complex(a[0]), complex(b[0])
        out = []
        for _ in range(k):
            for c, sh in steps:
                a, b = _oct_row_substep(a, b, c, sh)
            out.append((a, b))
        return np.array(out, dtype=complex).T.reshape(2, k, 1)
    out = np.empty((2, k, len(a)), dtype=complex)
    for j in range(k):
        out[0, j], out[1, j] = a, b
        a, b = out[0, j], out[1, j]
        for rows, c, sh in plan:
            a[rows], b[rows] = _oct_reenter(*_oct_boost(a[rows], b[rows], c, sh))
    return out


def _oct_plan(s, t):
    """The substeps of an octagon advance of speeds s by times t: a list of
    (rows, cosh(s h / 2), sinh(s h / 2)) over the rows each substep moves.

    Every moving row takes at least one (possibly zero-length) substep, and
    a resting row (s = 0) takes none.
    """
    if not np.isfinite(t).all():
        raise ValueError("octagon flow times must be finite")
    remaining = np.where(s == 0, 0.0, t)
    rows = slice(None) if s.all() else np.flatnonzero(s)
    plan = []
    while True:
        h = np.sign(remaining[rows]) * np.minimum(_MAX_SUBSTEP, np.abs(remaining[rows]))
        half = 0.5 * s[rows] * h
        plan.append((rows, np.cosh(half), np.sinh(half)))
        remaining[rows] -= h
        rows = np.flatnonzero(remaining)
        if not len(rows):
            return plan


def _oct_boost(a, b, c, sh):
    """g times [[c, sh], [sh, c]] on the right: arrays or Python values."""
    return a * c + b * sh, a * sh + b * c


def _oct_reenter(a, b):
    """The rows (a, b), new arrays: while the point b / conj(a) lies outside
    the octagon, the pairing of the most violated side on the left; then
    renormalized to |a|^2 - |b|^2 = 1."""
    d = np.abs((b / np.conj(a))[:, None] - _OCT_CENTERS)
    # rounding is monotone, so the least distance over all rows tells
    # whether any row lies outside
    if _OCT_CIRCLE_R - d.min(initial=np.inf) > _BOUNDARY_TOL:
        out = np.arange(len(a))  # the rows still outside
        for _ in range(_OCT_MAX_PAIRINGS):
            outside = _OCT_CIRCLE_R - d.min(axis=-1) > _BOUNDARY_TOL
            out = out[outside]
            if not len(out):
                break
            p = _OCT_PAIRINGS[(d[outside].argmin(axis=-1) + 4) % 8]
            a[out], b[out] = (p[:, 0, 0] * a[out] + p[:, 0, 1] * np.conj(b[out]),
                              p[:, 0, 0] * b[out] + p[:, 0, 1] * np.conj(a[out]))
            d = np.abs((b[out] / np.conj(a[out]))[:, None] - _OCT_CENTERS)
        else:
            raise ResolutionError("octagon re-entry did not terminate")
    norm = np.sqrt(np.abs(a) ** 2 - np.abs(b) ** 2)
    return a / norm, b / norm


_OCT_ROW_MARGIN = 1e-9
_OCT_ROW_INNER2 = (_OCT_RHO_MID * (1.0 - _OCT_ROW_MARGIN)) ** 2  # in the inscribed disk
_OCT_ROW_EDGE2 = (_OCT_CIRCLE_R - _BOUNDARY_TOL) ** 2
_OCT_ROW_CENTERS = [(w.real, w.imag) for w in _OCT_CENTERS.tolist()]


def _oct_row_substep(a, b, c, sh):
    """One substep of a single state (Python complex a, b; floats c, sh),
    bit-identical to `_oct_reenter(*_oct_boost(...))` on one-row arrays:
    the decisions and numpy's share are set out in `_oct_flow`."""
    a, b = _oct_boost(a, b, c, sh)
    for _ in range(_OCT_MAX_PAIRINGS):
        z = b / a.conjugate()
        x, y = z.real, z.imag
        if x * x + y * y >= _OCT_ROW_INNER2:
            d2 = [(x - cx) * (x - cx) + (y - cy) * (y - cy) for cx, cy in _OCT_ROW_CENTERS]
            least, second = sorted(d2)[:2]
            if (least < _OCT_ROW_EDGE2 * (1.0 - _OCT_ROW_MARGIN)
                    and second > least * (1.0 + _OCT_ROW_MARGIN)):
                p = _OCT_PAIRINGS[(d2.index(least) + 4) % 8]
                g = np.array([a, b])
                a, b = (p[0, 0] * g + p[0, 1] * g[::-1].conj()).tolist()
                continue
            if not least > _OCT_ROW_EDGE2 * (1.0 + _OCT_ROW_MARGIN):
                break
        na, nb = np.abs([a, b]).tolist()
        norm2 = na * na - nb * nb
        if not 0.0 < norm2 < math.inf:
            break
        r = 1.0 / math.sqrt(norm2)  # numpy's complex / real, signed zeros included
        return (complex((a.real + a.imag * 0.0) * r, (a.imag - a.real * 0.0) * r),
                complex((b.real + b.imag * 0.0) * r, (b.imag - b.real * 0.0) * r))
    else:
        raise ResolutionError("octagon re-entry did not terminate")
    # undecided, or no SU(1,1) state (numpy's NaN and warnings): the array code
    a, b = _oct_reenter(np.array([a]), np.array([b]))
    return complex(a[0]), complex(b[0])


# ---------------------------------------------------------------------------
# Group form of geodesic states
#
# A batch of geodesic states is a tuple of arrays (..., k), batch shape first:
# (p, v) on tori, (x, u) on the sphere, (a, b, s) on the octagon, where the
# direction of g is g_*(1/2), the unit vector 1/2 at 0 pushed forward.  The
# octagon's arrays are (..., 1): that trailing axis keeps complex arithmetic
# on arrays (numpy's complex scalars can round differently).


def _lift(model, p, v):
    """Group form of the chart states (p, v), arrays (..., n)."""
    p, v = np.asarray(p, dtype=float), np.asarray(v, dtype=float)
    if model.kind == TORUS:
        return p, v
    if model.kind == SPHERE:
        st, ct = np.sin(p[..., 0]), np.cos(p[..., 0])
        sp, cp = np.sin(p[..., 1]), np.cos(p[..., 1])
        vt, vs = v[..., 0], v[..., 1] * st  # components along e_theta and e_phi
        return (np.stack([st * cp, st * sp, ct], axis=-1),
                np.stack([vt * (ct * cp) - vs * sp, vt * (ct * sp) + vs * cp, -vt * st], axis=-1))
    if not (np.isfinite(p).all() and np.isfinite(v).all()):
        raise ValueError("octagon states must be finite")
    x, y = p[..., :1], p[..., 1:]
    conf = 1.0 - (x * x + y * y)  # 2 / lambda
    if not (conf > 0.0).all():
        raise ValueError("octagon points must lie inside the unit disk")
    vz = np.ascontiguousarray(v).view(complex)
    size = np.abs(vz)
    rest = size == 0.0  # a resting state takes the direction 1
    a = np.sqrt((vz + rest) / (conf * (size + rest)))  # a^2 = (v / |v|) / (1 - |z|^2)
    return a, np.ascontiguousarray(p).view(complex) * np.conj(a), 2.0 * size / conf


def _flow(model, g, t):
    """Group states g advanced by times t that broadcast against their batch."""
    t = np.asarray(t, dtype=float)
    if model.kind == TORUS:
        p, v = g
        p = (p + t[..., None] * v) % np.asarray(model.periods)
        return p, np.broadcast_to(v, p.shape).copy()
    if model.kind == SPHERE:  # rotation in the plane of (x, u)
        x, u = g
        s = np.linalg.norm(u, axis=-1, keepdims=True)
        uh = u / np.where(s > 0.0, s, 1.0)
        ang = s * t[..., None]
        c, sn = np.cos(ang), np.sin(ang)
        return x * c + uh * sn, s * (uh * c - x * sn)
    a, b, s, t = np.broadcast_arrays(*g, t[..., None])
    shape = a.shape
    a, b = _oct_flow(a.ravel(), b.ravel(), s.ravel(), t.ravel(), 1)[:, 0]
    return a.reshape(shape), b.reshape(shape), s.copy()


def _view(model, g):
    """The chart states of group states g.

    Within 1e-13 of a sphere pole the point is kept and the velocity
    components are NaN: the chart has none there.
    """
    if model.kind == TORUS:
        return PointState(*g)
    if model.kind == SPHERE:
        x, (u0, u1, u2) = g[0], np.moveaxis(g[1], -1, 0)
        # arccos(x_3) would lose all precision near a pole
        th = np.arctan2(np.hypot(x[..., 0], x[..., 1]), x[..., 2])
        ph = np.arctan2(x[..., 1], x[..., 0]) % (2.0 * np.pi)
        st, ct, sp, cp = np.sin(th), np.cos(th), np.sin(ph), np.cos(ph)
        st = np.where(st < 1e-13, np.nan, st)
        # u . e_theta and u . e_phi / sin(theta)
        return PointState(np.stack([th, ph], axis=-1),
                          np.stack([u0 * (ct * cp) + u1 * (ct * sp) - u2 * st,
                                    (u1 * cp - u0 * sp) / st], axis=-1))
    a, b, s = g
    ca = np.conj(a)
    return PointState((b / ca).view(float), (0.5 * s / (ca * ca)).view(float))


def _chart(model, g, state):
    """`_view` of group states g flowed from the chart `state`, except that on
    the curved models a resting state keeps its chart point and zero velocity
    (also on a sphere pole)."""
    out = _view(model, g)
    v = np.asarray(state.velocity, dtype=float)
    if model.kind == TORUS or v.all():
        return out
    rest = ~v.any(axis=-1, keepdims=True)
    return PointState(np.where(rest, state.point, out.point), np.where(rest, v, out.velocity))


# ---------------------------------------------------------------------------
# Metric, Christoffel symbols, speeds


def _check_chart(model, points):
    """`ValueError` unless every chart point of the array (..., n) lies in
    the chart: theta in (0, pi) on the sphere, the fundamental octagon (to
    1e-9) on the octagon."""
    if model.kind == SPHERE:
        th = points[..., 0]
        if not np.all((0.0 < th) & (th < np.pi)):
            raise ValueError("sphere chart excludes the poles")
    elif model.kind == OCTAGON:
        if not np.all(octagon_contains(points[..., 0] + 1j * points[..., 1], tol=1e-9)):
            raise ValueError("point outside the fundamental octagon")


def metric_at(model, point):
    """Metric matrix G(point), symmetric positive definite, exact closed form:
    the diagonal of `_metric_diagonal`; `ValueError` outside the chart."""
    point = np.asarray(point, dtype=float)
    _check_chart(model, point)
    return np.diag(_metric_diagonal(model, point))


def speed(model, state):
    """g-norm of the state's velocity."""
    g = metric_at(model, state.point)
    return float(np.sqrt(np.real(state.velocity @ g @ state.velocity)))


def unit_speed(model, point, direction):
    """Unit-speed PointState at `point` heading along `direction`."""
    point = np.asarray(point, dtype=float)
    v = np.asarray(direction, dtype=float)
    g = metric_at(model, point)
    nrm = np.sqrt(v @ g @ v)
    if nrm == 0.0:
        raise ValueError("direction must be nonzero")
    return PointState(point=point, velocity=v / nrm)


# ---------------------------------------------------------------------------
# Geodesic flow


def geodesic_advance(model, state, t):
    """Advance geodesic state(s) by time(s) t (closed form per model).

    Array-first: `state.point` and `state.velocity` have shape (..., n) and
    `t` is a scalar or an array that broadcasts against the batch shape `...`;
    the result has the broadcast batch shape.  A single state and a scalar t
    are a batch of one and give arrays of shape (n,).

    The states are lifted to group form, flowed, and read back in the chart.
    Every state moves its own speed times t and keeps its speed; a zero-speed
    state keeps its chart point, also on a sphere pole.  Torus geodesics are
    straight lines modulo the periods.  Sphere geodesics are great circles,
    exact for any t; a moving state that ends within 1e-13 of a pole has NaN
    velocity components there (the chart has none), and its point is kept.

    Octagon geodesics are right multiplications in SU(1,1), taken in time
    substeps of at most 0.5, each followed by side-pairing re-entry into the
    fundamental domain, so an advance by |t| <= 0.5 is one closed-form step.
    Long runs of sample times go through `geodesic_samples`, which advances
    each sample by at most one substep from an anchor.
    """
    return _chart(model, _flow(model, _lift(model, state.point, state.velocity), t), state)


def geodesic_samples(model, state, dt, count, size):
    """Geodesic states of a batch at the sample times k dt, k = 0 .. count - 1,
    in blocks of at most `size` samples (at least one).

    `state` has shape (..., n); each block is a PointState (c, ..., n) of
    the next c samples, flowed from its anchor: `state`, then the last sample
    of the block before, kept in group form (a block may end on a pole).

    On the octagon the samples come in groups of h = max(1, floor(0.5 / dt))
    sample times, each group flowed from the last sample of the group before,
    at most h dt <= 0.5 (one substep) back.  The chain of group anchors is
    two flows of the whole batch, one over the first group and one that
    repeats a hop of h dt over the rest, and one more flow advances every
    sample from its anchor.  A block of more than one group stops at its
    last whole group.

    Every state keeps its own speed, and a resting state its chart point, as
    in `geodesic_advance`.  `dt` must be finite and positive.
    """
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError("sample step dt must be finite and positive")
    g = _lift(model, state.point, state.velocity)
    done = 0
    while done < count:
        g = _group_samples(model, g, dt, min(size, count - done), min(done, 1))
        yield _chart(model, g, state)
        done += len(g[0])
        g = tuple(c[-1] for c in g)


def _group_samples(model, g, dt, count, first):
    """Group states at the sample times k dt, k = first, first + 1, ...
    (first = 0 or 1) from the group states g: one block of `geodesic_samples`.

    On the octagon the samples of group j flow from anchor j, the last
    sample of group j - 1: anchor 0 is g, anchor 1 is g flowed by
    (first + hop - 1) dt, and each further anchor is the one before flowed
    by hop dt, all in one `_oct_flow` call that applies its substep plan
    groups - 2 times.
    """
    if model.kind != OCTAGON:
        lead = g[0].ndim - 1
        return _flow(model, g, ((first + np.arange(count)) * dt).reshape((count,) + (1,) * lead))
    hop = max(1, int(_MAX_SUBSTEP / dt))
    if count > hop:
        count -= count % hop
    groups = -(-count // hop)
    shape = (count,) + g[0].shape
    s = g[2].ravel()
    seed = np.empty((2, max(groups, 1), len(s)), dtype=complex)
    seed[0, 0], seed[1, 0] = g[0].ravel(), g[1].ravel()
    if groups > 1:
        seed[:, 1:2] = _oct_flow(*seed[:, 0], s, np.full(len(s), (first + hop - 1) * dt), 1)
    if groups > 2:
        seed[:, 2:] = _oct_flow(*seed[:, 1], s, np.full(len(s), hop * dt), groups - 2)
    k = np.arange(count)
    group = k // hop
    offset = np.where(group == 0, first + k, k - group * hop + 1)
    t = np.repeat(offset * dt, len(s))
    s = np.tile(s, count)
    a, b = _oct_flow(seed[0, group].ravel(), seed[1, group].ravel(), s, t, 1)[:, 0]
    return a.reshape(shape), b.reshape(shape), s.reshape(shape)


# ---------------------------------------------------------------------------
# Parallel transport


def parallel_transport(model, state, t, w):
    """Levi-Civita transport of tangent vector w along the geodesic of `state`.

    Returns the transported vector in chart components at the endpoint.
    Tori are flat.  On the curved surfaces w keeps its components in the
    completed frame (`frame_completion`) of the unit velocity, which is
    parallel along the geodesic.  Along a zero displacement (a resting state
    or t = 0) w comes back unchanged; at an endpoint within 1e-13 of a sphere
    pole its components are NaN, as the chart has none there.
    """
    w = np.asarray(w, dtype=float)
    if model.kind == TORUS:
        return w.copy()
    p, s = np.asarray(state.point, dtype=float), speed(model, state)
    if s * t == 0.0:
        return w.copy()
    end = geodesic_advance(model, state, t)
    start = frame_completion(model, p, np.asarray(state.velocity, dtype=float) / s)
    coeffs = start.T @ metric_at(model, p) @ w
    return frame_completion(model, end.point, end.velocity / s) @ coeffs


# ---------------------------------------------------------------------------
# Holonomy


def _connect(model, a, b):
    """Unit-speed chart state at vertex a heading along the geodesic edge
    a -> b, and the edge's length."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if model.kind == TORUS:
        per = np.asarray(model.periods)
        d = (b - a) % per
        d = np.where(d > 0.5 * per, d - per, d)
        length = np.linalg.norm(d)
    elif model.kind == SPHERE:
        x, y = _lift(model, np.stack([a, b]), np.zeros((2, 2)))[0]
        c = np.clip(x @ y, -1.0, 1.0)
        length = np.arccos(c)
        if length > np.pi - 1e-12:
            raise ValueError("antipodal polygon edge")
        d = _view(model, (x, y - c * x)).velocity  # the edge direction at a
        if not np.isfinite(d).all():
            raise ValueError("polygon vertex within 1e-13 of a pole")
    else:
        za, zb = complex(a[0], a[1]), complex(b[0], b[1])
        q = (zb - za) / (1.0 - np.conj(za) * zb)  # b after the isometry taking a to 0
        length = 2.0 * np.arctanh(abs(q))
        d = np.array([q.real, q.imag])
    if length < 1e-12:
        raise ValueError("degenerate polygon: repeated vertices")
    return unit_speed(model, a, d), length


def holonomy(model, vertices):
    """Rotation angle of parallel transport around a closed geodesic polygon.

    The polygon is the list of vertices traversed in order (the closing edge
    back to the first vertex is implied).  A vector leaves the first vertex
    along the first edge, is carried along every edge by
    `parallel_transport`, and the angle is read in the first edge's
    completed frame.  It equals curvature * enclosed area, modulo 2*pi, with
    the sign of the traversal orientation.

    Vertices are chart points: theta in (0, pi) on the sphere and points of
    the fundamental domain on the octagon; a vertex outside the chart (on a
    pole, or outside the octagon) raises `ValueError`, and so does a sphere
    vertex within 1e-13 of a pole, where the chart has no directions.
    """
    m = len(vertices)
    if m < 3:
        raise ValueError("polygon needs at least 3 vertices")
    for v in vertices:
        metric_at(model, v)  # raises outside the chart
    edges = [_connect(model, vertices[i], vertices[(i + 1) % m]) for i in range(m)]
    if model.kind == TORUS:
        return 0.0  # flat: parallel transport is the identity
    first = edges[0][0]
    w = first.velocity
    for state, length in edges:
        w = parallel_transport(model, state, length, w)
    frame = frame_completion(model, first.point, first.velocity)
    c = frame.T @ metric_at(model, first.point) @ w
    return float(np.arctan2(c[1], c[0]))


# ---------------------------------------------------------------------------
# Frame utilities


def _metric_diagonal(model, points):
    """Diagonals (..., n) of the chart metrics at points (..., n), unchecked;
    every chart metric here is diagonal (`metric_at` is the checked matrix)."""
    if model.kind == TORUS:
        return np.ones(points.shape)
    if model.kind == SPHERE:
        s = np.sin(points[..., 0])
        return np.stack([np.ones_like(s), s * s], axis=-1)
    lam = 2.0 / (1.0 - (points[..., 0] ** 2 + points[..., 1] ** 2))
    return np.stack([lam * lam] * 2, axis=-1)


def orthonormality_residual(model, fp):
    """Max-norm residual of frame^T G frame = I at the frame's base point.

    Array-first: for frames (..., n, n) at points (..., n) the residuals have
    the batch shape; a single frame gives a float.
    """
    frame = np.asarray(fp.frame, dtype=float)
    g = _metric_diagonal(model, np.asarray(fp.point, dtype=float))
    gram = np.swapaxes(frame, -1, -2) @ (g[..., :, None] * frame)
    out = np.abs(gram - np.eye(model.dim)).max(axis=(-2, -1))
    return out if out.ndim else float(out)


def is_oriented(fp):
    """True where the frame is positively oriented in the orthonormal gauge;
    a bool for a single frame, a mask of the batch shape for frames (..., n, n)."""
    out = np.linalg.det(fp.frame) > 0
    return out if out.ndim else bool(out)


def gram_orthonormalize(model, point, frame):
    """Metric Gram-Schmidt of the frame columns at `point`.

    Array-first like `orthonormality_residual`: frames (..., n, n) at points
    (..., n), a single frame a batch of one; `ValueError` outside the chart,
    as in `metric_at`.  The frame flow applies it only to entering frames.
    """
    point = np.asarray(point, dtype=float)
    _check_chart(model, point)
    g = _metric_diagonal(model, point)
    out = np.array(frame, dtype=float, copy=True)
    for i in range(model.dim):
        col = out[..., i]
        for j in range(i):
            col -= (g * out[..., j] * col).sum(axis=-1)[..., None] * out[..., j]
        col /= np.sqrt((g * col * col).sum(axis=-1))[..., None]
    return out


def frame_completion(model, point, e1):
    """Oriented metric-orthonormal frame(s) at `point` with first column e1.

    `e1` is a metric-unit tangent vector (n,) or a batch (..., n) at points
    (..., n); the result has shape (..., n, n).  Two-dimensional models rotate
    e1 by +pi/2 in the metric.  On T^3 the second column is the unit normal
    of e1 against the pole e_3 (against e_1 when |e1 . e_3| > 0.9) and the
    third completes the right-handed triple.
    """
    e1 = np.asarray(e1, dtype=float)
    out = np.empty(e1.shape + (model.dim,))
    out[..., 0] = e1
    x, y = e1[..., 0], e1[..., 1]
    if model.dim == 2:
        s = np.sin(np.asarray(point, dtype=float)[..., 0]) if model.kind == SPHERE else 1.0
        out[..., 0, 1] = -s * y
        out[..., 1, 1] = x / s
        return out
    z = e1[..., 2]
    # u = pole x e1 with the pole e_3, or e_1 where e1 is near e_3
    p1 = (np.abs(z) > 0.9) * 1.0
    p3 = 1.0 - p1
    u0, u1, u2 = -p3 * y, p3 * x - p1 * z, p1 * y
    norm = np.sqrt(u0 * u0 + u1 * u1 + u2 * u2)
    u0, u1, u2 = u0 / norm, u1 / norm, u2 / norm
    out[..., 0, 1], out[..., 1, 1], out[..., 2, 1] = u0, u1, u2
    # e1 x u written out: np.cross costs tens of microseconds on one vector
    out[..., 0, 2] = y * u2 - z * u1
    out[..., 1, 2] = z * u0 - x * u2
    out[..., 2, 2] = x * u1 - y * u0
    return out


# ---------------------------------------------------------------------------
# Unit-bundle quadrature


def _sphere_rule(n_theta, n_phi):
    """Gauss-Legendre in cos(theta) (n_theta nodes) times n_phi equispaced
    azimuths on S^2: flat arrays (cos theta, phi, Gauss weight), cos theta
    outermost; the weights leave out the azimuth spacing 2 pi / n_phi."""
    cs, ws = np.polynomial.legendre.leggauss(n_theta)
    phis = np.arange(n_phi) * (2 * np.pi / n_phi)
    return np.repeat(cs, n_phi), np.tile(phis, n_theta), np.repeat(ws, n_phi)


def _node_average(weights, rows, *arrays):
    """sum_n w_n r_n[:-1] / sum_n w_n r_n[-1], the last column of the rows
    r_n the normalization, from one product per chunk: rows(*arrays) is
    called on chunks of at most `_NODE_CHUNK` consecutive nodes."""
    sums = 0.0
    for lo in range(0, len(weights), _NODE_CHUNK):
        nodes = slice(lo, lo + _NODE_CHUNK)
        sums = sums + weights[nodes] @ rows(*(a[nodes] for a in arrays))
    return sums[:-1] / sums[-1]


def _per_node_table(fn, shape, *columns):
    """The table of a per-point callback: fn(*row) for each row of the zipped
    `columns`, as one complex array of the given shape (rows first, then
    m x m).  The package's one adapter for callbacks that take one point; a
    value of the wrong size raises instead of broadcasting."""
    return np.asarray([fn(*row) for row in zip(*columns)], dtype=complex).reshape(shape)


def unit_bundle_nodes(model, resolution):
    """Product quadrature for the Liouville measure on the unit tangent bundle.

    Returns base points (N, n), metric-unit directions (N, n) and positive
    weights (N,), not normalized.  Base rules: the equispaced grid on tori;
    Gauss-Legendre in cos(theta) times 2 * resolution azimuths on the sphere;
    the midpoint grid of the octagon's bounding square, clipped to the
    fundamental domain and weighted by the conformal factor lambda^2.  Unit
    fibres: `resolution` equispaced angles on the circle (the trapezoid rule,
    exact below angular degree `resolution`), the sphere rule on T^3.
    """
    if resolution < 4:
        raise ValueError("resolution must be at least 4 nodes per dimension")
    res = resolution
    if model.kind == TORUS:
        axes = [np.arange(res) * (p / res) for p in model.periods]
        points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, model.dim)
        base_w = np.ones(len(points))
        root_g = np.ones_like(points)
    elif model.kind == SPHERE:
        c, ph, base_w = _sphere_rule(res, 2 * res)
        th = np.arccos(c)
        points = np.column_stack([th, ph])
        root_g = np.column_stack([np.ones_like(th), np.sin(th)])
    else:
        rv = _OCT_RHO_VERTEX
        grid = -rv + (2.0 * rv / res) * (np.arange(res) + 0.5)
        z = (grid[:, None] + 1j * grid[None, :]).ravel()
        z = z[octagon_contains(z)]
        points = np.column_stack([z.real, z.imag])
        g = _metric_diagonal(model, points)  # lambda^2, twice
        base_w, root_g = g[:, 0], np.sqrt(g)
    if model.dim == 2:
        a = np.arange(res) * (2 * np.pi / res)
        fibre, fibre_w = np.column_stack([np.cos(a), np.sin(a)]), np.ones(res)
    else:
        c, ph, fibre_w = _sphere_rule(res, 2 * res)
        s = np.sqrt(1.0 - c * c)
        fibre = np.column_stack([s * np.cos(ph), s * np.sin(ph), c])
    # the metric is diagonal in every chart: divide by its square root
    dirs = (fibre[None, :, :] / root_g[:, None, :]).reshape(-1, model.dim)
    return (np.repeat(points, len(fibre), axis=0), dirs,
            np.outer(base_w, fibre_w).ravel())
