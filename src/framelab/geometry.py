"""Closed-form model manifolds: metric, geodesics, parallel transport, holonomy.

Three models are provided, each with exact (closed-form) flow and transport:

- flat tori T^n (n = 2, 3) with configurable periods,
- the round unit 2-sphere in spherical coordinates (poles excluded from the
  chart; the flow is computed in the ambient embedding),
- the regular genus-2 hyperbolic octagon in the Poincare disk, with the
  standard opposite-side pairings.

The package's one quadrature rule on the unit tangent bundle
(`unit_bundle_nodes`), its one sphere rule (`_sphere_rule`, also used by
`spectral`) and its one oriented frame completion (`frame_completion`) live
here; the Liouville-Haar averages of `flows` and the tracial states of
`limits` both integrate with them.  `holonomy` carries a vector around a
polygon with `parallel_transport`.
"""

from dataclasses import dataclass

import numpy as np

from . import ResolutionError

TORUS = "flat_torus"
SPHERE = "sphere"
OCTAGON = "octagon"

_PAIRING_DET_TOL = 1e-12
_BOUNDARY_TOL = 1e-14
_MAX_SUBSTEP = 0.5
_NODE_CHUNK = 8192  # quadrature nodes per callback table in flows and limits


@dataclass(frozen=True, eq=False)
class ManifoldModel:
    """A closed-form Riemannian model manifold.

    Fields
    ------
    kind : one of "flat_torus", "sphere", "octagon"
    dim : chart dimension n
    periods : tuple of n positive reals (tori only)
    curvature : constant sectional curvature (0, +1, -1)
    side_pairings : tuple of 8 real 2x2 unit-determinant matrices acting on
        the upper half-plane (octagon only)
    """

    kind: str
    dim: int
    periods: tuple | None = None
    curvature: float = 0.0
    side_pairings: tuple | None = None

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
        if self.kind == OCTAGON:
            for m in self.side_pairings:
                if abs(np.linalg.det(m) - 1.0) > _PAIRING_DET_TOL:
                    raise ValueError("side pairing matrix is not unit determinant")


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
    return ManifoldModel(kind=TORUS, dim=dim, periods=tuple(float(p) for p in periods),
                         curvature=0.0)


def round_sphere():
    """Round unit 2-sphere, chart (theta, phi) with theta in (0, pi)."""
    return ManifoldModel(kind=SPHERE, dim=2, curvature=1.0)


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

# SU(1,1) pairing for side k: translation by 2d along exp(i k pi/4); it maps
# side k+4 onto side k, so crossing side k applies pairing k+4.
_OCT_PAIR_A = _OCT_COSH_D
_OCT_PAIR_B = _OCT_SINH_HALF * _OCT_DIRS


def _octagon_sl2r_pairings():
    w = np.array([[1.0, -1.0j], [1.0, 1.0j]])
    winv = np.linalg.inv(w)
    out = []
    for k in range(8):
        g = np.array([[_OCT_PAIR_A, _OCT_PAIR_B[k]],
                      [np.conj(_OCT_PAIR_B[k]), _OCT_PAIR_A]])
        m = winv @ g @ w
        if np.abs(m.imag).max() > 1e-12:
            raise AssertionError("octagon pairing failed to conjugate to SL(2,R)")
        m = m.real
        m = m / np.sqrt(np.linalg.det(m))
        out.append(m)
    return tuple(out)


def hyperbolic_octagon():
    """Regular genus-2 octagon quotient of the Poincare disk (curvature -1)."""
    return ManifoldModel(kind=OCTAGON, dim=2, curvature=-1.0,
                         side_pairings=_octagon_sl2r_pairings())


def octagon_contains(z, tol=_BOUNDARY_TOL):
    """True where the disk point(s) z lie in the closed fundamental octagon;
    a bool for a scalar z, a mask of its shape for an array."""
    z = np.asarray(z)
    out = (np.abs(z) < 1.0) & (np.abs(z[..., None] - _OCT_CENTERS).min(axis=-1)
                               >= _OCT_CIRCLE_R - tol)
    return out if out.ndim else bool(out)


def _oct_apply_pairing(k, z, v):
    a = _OCT_PAIR_A
    b = _OCT_PAIR_B[k]
    den = np.conj(b) * z + a
    z2 = (a * z + b) / den
    v2 = v / (den * den)
    # renormalize to the incoming speed; kills accumulated rounding at each crossing
    v2 *= np.abs(v) / (1.0 - np.abs(z) ** 2) * (1.0 - np.abs(z2) ** 2) / np.abs(v2)
    return z2, v2


def _oct_normalize(z, v):
    """Map disk states (1-D arrays, changed in place) back into the octagon.

    Each pass applies the pairing of the most violated side to the rows still
    outside, and only to those rows.
    """
    rows = np.arange(len(z))
    for _ in range(32):
        d = np.abs(z[rows, None] - _OCT_CENTERS)
        outside = _OCT_CIRCLE_R - d.min(axis=-1) > _BOUNDARY_TOL
        rows = rows[outside]
        if not len(rows):
            return z, v
        k = (d[outside].argmin(axis=-1) + 4) % 8
        z[rows], v[rows] = _oct_apply_pairing(k, z[rows], v[rows])
    raise ResolutionError("octagon re-entry did not terminate")


def _oct_geodesic_step(z, v, t):
    """Advance (z, v) by time t along the disk geodesic at the speed of v;
    no domain reduction."""
    size = np.abs(v)
    phase = v / size
    conf = 1.0 - np.abs(z) ** 2
    half_speed = size / conf  # the conformal factor is 2 / conf
    w = np.tanh(half_speed * t) * phase
    den = 1.0 + np.conj(z) * w
    z2 = (w + z) / den
    v2 = conf / (den * den) * phase
    v2 *= half_speed * (1.0 - np.abs(z2) ** 2) / np.abs(v2)
    return z2, v2


def _oct_advance(z, v, t):
    """Advance disk states (1-D arrays) by their own times t at their own
    speeds, in time substeps of at most `_MAX_SUBSTEP` with re-entry after
    each; every moving row takes at least one (possibly zero-length) substep,
    and a resting row (v = 0) stays as it is."""
    if not np.isfinite(t).all():
        raise ValueError("octagon flow times must be finite")
    remaining = t.copy()
    rows = slice(None)
    if not v.all():  # the substep divides by the speed
        remaining[v == 0] = 0.0
        rows = np.flatnonzero(v)
    while True:
        h = np.sign(remaining[rows]) * np.minimum(_MAX_SUBSTEP, np.abs(remaining[rows]))
        z[rows], v[rows] = _oct_normalize(*_oct_geodesic_step(z[rows], v[rows], h))
        remaining[rows] -= h
        rows = np.flatnonzero(remaining)
        if not len(rows):
            return z, v


# ---------------------------------------------------------------------------
# Sphere chart <-> ambient conversion (arrays (..., 2) <-> (..., 3))


def _sph_frame(p):
    """Ambient position x and the unit directions e_theta, e_phi of the chart's
    coordinate lines at chart points p."""
    th, ph = p[..., 0], p[..., 1]
    st, ct, sp, cp = np.sin(th), np.cos(th), np.sin(ph), np.cos(ph)
    x = np.stack([st * cp, st * sp, ct], axis=-1)
    e_th = np.stack([ct * cp, ct * sp, -st], axis=-1)
    e_ph = np.stack([-sp, cp, np.zeros_like(ph)], axis=-1)
    return x, e_th, e_ph


def _sph_to_ambient(p, v):
    """Ambient position and tangent vector of chart point(s) p, vector(s) v."""
    x, e_th, e_ph = _sph_frame(p)
    return x, v[..., :1] * e_th + (v[..., 1] * np.sin(p[..., 0]))[..., None] * e_ph


def _sph_to_chart(x, u):
    """Chart point(s) and vector(s) of ambient position x, tangent vector u."""
    # arccos(z) would lose all precision near a pole
    th = np.arctan2(np.hypot(x[..., 0], x[..., 1]), x[..., 2])
    ph = np.arctan2(x[..., 1], x[..., 0]) % (2.0 * np.pi)
    p = np.stack([th, ph], axis=-1)
    _, e_th, e_ph = _sph_frame(p)
    s = np.sin(th)
    if np.any(s < 1e-13):
        raise ValueError("tangent chart components undefined at the poles")
    return p, np.stack([(u * e_th).sum(axis=-1), (u * e_ph).sum(axis=-1) / s], axis=-1)


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
    """Metric matrix G(point), symmetric positive definite, exact closed form."""
    point = np.asarray(point, dtype=float)
    _check_chart(model, point)
    if model.kind == TORUS:
        return np.eye(model.dim)
    if model.kind == SPHERE:
        return np.diag([1.0, np.sin(point[0]) ** 2])
    lam = 2.0 / (1.0 - abs(complex(point[0], point[1])) ** 2)
    return lam * lam * np.eye(2)


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

    Every state moves its own speed times t and keeps its speed.  Torus
    geodesics are straight lines modulo the periods; sphere geodesics
    are great circles, exact for any t (a zero-speed state stays where it is,
    also on a pole; `ValueError` when a moving state's result lies within
    1e-13 of a pole, where the chart has no velocity components).

    Octagon geodesics are hyperbolic translations, taken in time substeps of
    at most 0.5 with side-pairing re-entry into the fundamental domain after
    each, so an advance by |t| <= 0.5 is one closed-form step; a resting state
    stays where it is.  Long runs of sample times go through
    `geodesic_samples`, which advances each sample by at most one substep
    from an anchor.
    """
    t = np.asarray(t, dtype=float)
    p = np.asarray(state.point, dtype=float)
    v = np.asarray(state.velocity, dtype=float)
    if model.kind == TORUS:
        point = (p + t[..., None] * v) % np.asarray(model.periods)
        return PointState(point=point, velocity=np.broadcast_to(v, point.shape).copy())
    if model.kind == SPHERE:
        x, u = _sph_to_ambient(p, v)
        s = np.linalg.norm(u, axis=-1, keepdims=True)
        moving = s > 0.0
        uh = u / np.where(moving, s, 1.0)
        ang = s * t[..., None]
        x2 = x * np.cos(ang) + uh * np.sin(ang)
        u2 = s * (-x * np.sin(ang) + uh * np.cos(ang))
        if moving.all():
            return PointState(*_sph_to_chart(x2, u2))
        # only the moving rows are converted, so a resting state may sit at a pole
        go = np.broadcast_to(moving[..., 0], x2.shape[:-1])
        p2 = np.broadcast_to(p, go.shape + (2,)).copy()
        v2 = np.broadcast_to(v, go.shape + (2,)).copy()
        p2[go], v2[go] = _sph_to_chart(x2[go], u2[go])
        return PointState(point=p2, velocity=v2)
    z, vz, t = np.broadcast_arrays(p[..., 0] + 1j * p[..., 1], v[..., 0] + 1j * v[..., 1], t)
    shape = z.shape
    z, vz = _oct_advance(z.ravel().copy(), vz.ravel().copy(), t.ravel())
    return PointState(point=np.stack([z.real, z.imag], axis=-1).reshape(shape + (2,)),
                      velocity=np.stack([vz.real, vz.imag], axis=-1).reshape(shape + (2,)))


def geodesic_samples(model, state, dt, count, first=0):
    """Geodesic states of a batch at the sample times k dt, k = first, first + 1, ...

    `state` has shape (..., n).  The result has shape (c, ..., n) and holds
    the states at k = first .. first + c - 1.  Tori and the sphere advance
    every sample from `state` in one broadcast `geodesic_advance`, and
    c = count.

    On the octagon the samples come in groups of h = max(1, floor(0.5 / dt))
    sample times.  The first group advances from `state`, each later group
    from the last sample of the group before, its anchor, which lies at most
    h dt <= 0.5 (one substep) back.  The anchors advance one group at a time
    over the whole batch, then one pass advances every sample from its
    anchor.  A run of more than one group stops at its last whole group
    (c <= count), so that its last sample can anchor the next run.

    Every state keeps its own speed, as in `geodesic_advance`; no frame is
    formed here.  `dt` must be finite and positive.
    """
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError("sample step dt must be finite and positive")
    p = np.asarray(state.point, dtype=float)
    v = np.asarray(state.velocity, dtype=float)
    batch = p.shape[:-1]
    if model.kind != OCTAGON:
        times = ((first + np.arange(count)) * dt).reshape((count,) + (1,) * len(batch))
        return geodesic_advance(model, state, times)
    hop = max(1, int(_MAX_SUBSTEP / dt))
    if count > hop:
        count -= count % hop
    groups = -(-count // hop)
    seed_z = np.empty((max(groups, 1), int(np.prod(batch))), dtype=complex)
    seed_v = np.empty_like(seed_z)
    seed_z[0] = (p[..., 0] + 1j * p[..., 1]).ravel()
    seed_v[0] = (v[..., 0] + 1j * v[..., 1]).ravel()
    for j in range(1, groups):
        t = np.full(seed_z.shape[1], (first + hop - 1 if j == 1 else hop) * dt)
        seed_z[j], seed_v[j] = _oct_advance(seed_z[j - 1].copy(), seed_v[j - 1].copy(), t)
    k = np.arange(count)
    group = k // hop
    offset = np.where(group == 0, first + k, k - group * hop + 1)
    t = np.repeat(offset * dt, seed_z.shape[1])
    z, vz = _oct_advance(seed_z[group].ravel(), seed_v[group].ravel(), t)
    shape = (count,) + batch + (2,)
    return PointState(point=np.stack([z.real, z.imag], axis=-1).reshape(shape),
                      velocity=np.stack([vz.real, vz.imag], axis=-1).reshape(shape))


# ---------------------------------------------------------------------------
# Parallel transport


def parallel_transport(model, state, t, w):
    """Levi-Civita transport of tangent vector w along the geodesic of `state`.

    Returns the transported vector in chart components at the endpoint.
    Tori are flat.  On the curved surfaces w keeps its components in the
    completed frame (`frame_completion`) of the unit velocity, which is
    parallel along the geodesic.  Along a zero displacement (a resting state
    or t = 0) w comes back unchanged.
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
        (x, e_th, e_ph), y = _sph_frame(a), _sph_frame(b)[0]
        c = np.clip(x @ y, -1.0, 1.0)
        length = np.arccos(c)
        if length > np.pi - 1e-12:
            raise ValueError("antipodal polygon edge")
        u = y - c * x
        # sin(theta) times the chart components of u: the same direction
        d = np.array([np.sin(a[0]) * (u @ e_th), u @ e_ph])
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
    pole, or outside the octagon) raises `ValueError`.
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
    every chart metric here is diagonal (`metric_at` is the checked scalar)."""
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


def is_oriented(model, fp):
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


def _node_chunks(count):
    """Slices of at most `_NODE_CHUNK` consecutive nodes that cover `count`
    quadrature nodes: the unit in which callback tables are filled and
    contracted."""
    return [slice(lo, lo + _NODE_CHUNK) for lo in range(0, count, _NODE_CHUNK)]


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
        lam = 2.0 / (1.0 - np.abs(z) ** 2)
        points = np.column_stack([z.real, z.imag])
        base_w = lam * lam
        root_g = np.column_stack([lam, lam])
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
