"""Closed-form model manifolds: metric, geodesics, parallel transport, holonomy.

Three models are provided, each with exact (closed-form) flow and transport:

- flat tori T^n (n = 2, 3) with configurable periods,
- the round unit 2-sphere in spherical coordinates (poles excluded from the
  chart; flow and transport are computed in the ambient embedding),
- the regular genus-2 hyperbolic octagon in the Poincare disk, with the
  standard opposite-side pairings.

The package's one quadrature rule on the unit tangent bundle
(`unit_bundle_nodes`) and its one oriented frame completion
(`frame_completion`) live here; the Liouville-Haar averages of `flows` and the
tracial states of `limits` both integrate with them.

A generic 4th-order integrator of the geodesic/transport equations is kept
only as a cross-check oracle (`parallel_transport_rk4`).
"""

from dataclasses import dataclass

import numpy as np

TORUS = "flat_torus"
SPHERE = "sphere"
OCTAGON = "octagon"

_PAIRING_DET_TOL = 1e-12
_BOUNDARY_TOL = 1e-14
_MAX_SUBSTEP = 0.5


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

OCTAGON_INRADIUS_EUCLIDEAN = _OCT_RHO_MID


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


def _oct_violation(z):
    d = np.abs(z - _OCT_CENTERS)
    k = int(np.argmin(d))
    return _OCT_CIRCLE_R - d[k], k


def _oct_apply_pairing(k, z, v):
    a = _OCT_PAIR_A
    b = _OCT_PAIR_B[k]
    den = np.conj(b) * z + a
    z2 = (a * z + b) / den
    v2 = v / (den * den)
    # renormalize to unit speed; kills accumulated rounding at each crossing
    v2 *= 0.5 * (1.0 - abs(z2) ** 2) / abs(v2)
    return z2, v2


def _oct_normalize(z, v):
    for _ in range(32):
        depth, k = _oct_violation(z)
        if depth <= _BOUNDARY_TOL:
            return z, v
        z, v = _oct_apply_pairing((k + 4) % 8, z, v)
    raise RuntimeError("octagon re-entry did not terminate")


def _oct_geodesic_step(z, v, t):
    """Advance (z, v) by time t along the disk geodesic; no domain reduction."""
    phase = v / abs(v)
    w = np.tanh(0.5 * t) * phase
    den = 1.0 + np.conj(z) * w
    z2 = (w + z) / den
    dT = (1.0 - abs(z) ** 2) / (den * den)
    v2 = dT * phase
    v2 *= 0.5 * (1.0 - abs(z2) ** 2) / abs(v2)
    return z2, v2


# ---------------------------------------------------------------------------
# Sphere chart <-> ambient helpers


def _sph_point(p):
    th, ph = float(p[0]), float(p[1])
    s = np.sin(th)
    return np.array([s * np.cos(ph), s * np.sin(ph), np.cos(th)])


def _sph_chart(x):
    th = np.arccos(np.clip(x[2], -1.0, 1.0))
    ph = np.arctan2(x[1], x[0]) % (2.0 * np.pi)
    return np.array([th, ph])


def _sph_basis(p):
    th, ph = float(p[0]), float(p[1])
    e_th = np.array([np.cos(th) * np.cos(ph), np.cos(th) * np.sin(ph), -np.sin(th)])
    e_ph = np.array([-np.sin(ph), np.cos(ph), 0.0])
    return e_th, e_ph


def _sph_vel_ambient(p, v):
    e_th, e_ph = _sph_basis(p)
    return v[0] * e_th + v[1] * np.sin(p[0]) * e_ph


def _sph_vel_chart(p, u):
    e_th, e_ph = _sph_basis(p)
    s = np.sin(p[0])
    if s < 1e-13:
        raise ValueError("tangent chart components undefined at the poles")
    return np.array([u @ e_th, (u @ e_ph) / s])


# ---------------------------------------------------------------------------
# Metric, Christoffel symbols, speeds


def metric_at(model, point):
    """Metric matrix G(point), symmetric positive definite, exact closed form."""
    point = np.asarray(point, dtype=float)
    if model.kind == TORUS:
        return np.eye(model.dim)
    if model.kind == SPHERE:
        th = point[0]
        if not (0.0 < th < np.pi):
            raise ValueError("sphere chart excludes the poles")
        return np.diag([1.0, np.sin(th) ** 2])
    z = complex(point[0], point[1])
    if not octagon_contains(z, tol=1e-9):
        raise ValueError("point outside the fundamental octagon")
    lam = 2.0 / (1.0 - abs(z) ** 2)
    return lam * lam * np.eye(2)


def christoffel_at(model, point):
    """Christoffel symbols Gamma[k, i, j] of the Levi-Civita connection."""
    point = np.asarray(point, dtype=float)
    n = model.dim
    gam = np.zeros((n, n, n))
    if model.kind == TORUS:
        return gam
    if model.kind == SPHERE:
        th = point[0]
        cot = np.cos(th) / np.sin(th)
        gam[0, 1, 1] = -np.sin(th) * np.cos(th)
        gam[1, 0, 1] = gam[1, 1, 0] = cot
        return gam
    x, y = point
    r2 = x * x + y * y
    # conformal factor log-derivatives: d log(lambda) = 2 (x, y) / (1 - r^2)
    ax = 2.0 * x / (1.0 - r2)
    ay = 2.0 * y / (1.0 - r2)
    gam[0, 0, 0] = ax
    gam[0, 0, 1] = gam[0, 1, 0] = ay
    gam[0, 1, 1] = -ax
    gam[1, 1, 1] = ay
    gam[1, 0, 1] = gam[1, 1, 0] = ax
    gam[1, 0, 0] = -ay
    return gam


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
    """Advance a geodesic state by time t (closed form per model).

    Torus geodesics are straight lines modulo the periods; sphere geodesics
    are great circles; octagon geodesics are hyperbolic translations with
    side-pairing re-entry into the fundamental domain.
    """
    t = float(t)
    p = np.asarray(state.point, dtype=float)
    v = np.asarray(state.velocity, dtype=float)
    if model.kind == TORUS:
        per = np.asarray(model.periods)
        return PointState(point=(p + t * v) % per, velocity=v.copy())
    if model.kind == SPHERE:
        x = _sph_point(p)
        u = _sph_vel_ambient(p, v)
        s = np.linalg.norm(u)
        if s == 0.0:
            return PointState(point=p.copy(), velocity=v.copy())
        uh = u / s
        ang = s * t
        x2 = x * np.cos(ang) + uh * np.sin(ang)
        u2 = s * (-x * np.sin(ang) + uh * np.cos(ang))
        p2 = _sph_chart(x2)
        return PointState(point=p2, velocity=_sph_vel_chart(p2, u2))
    z = complex(p[0], p[1])
    vz = complex(v[0], v[1])
    remaining = t
    sgn = 1.0 if t >= 0 else -1.0
    while True:
        h = sgn * min(_MAX_SUBSTEP, abs(remaining))
        z, vz = _oct_geodesic_step(z, vz, h)
        z, vz = _oct_normalize(z, vz)
        remaining -= h
        if abs(remaining) <= 0.0:
            break
    return PointState(point=np.array([z.real, z.imag]),
                      velocity=np.array([vz.real, vz.imag]))


# ---------------------------------------------------------------------------
# Parallel transport


def parallel_transport(model, state, t, w):
    """Levi-Civita transport of tangent vector w along the geodesic of `state`.

    Returns the transported vector in chart components at the endpoint.
    Closed form per model: tori are flat; the sphere is transported in the
    ambient embedding; the octagon uses conformal angle preservation relative
    to the geodesic tangent.
    """
    w = np.asarray(w, dtype=float)
    if model.kind == TORUS:
        return w.copy()
    if model.kind == SPHERE:
        p = np.asarray(state.point, dtype=float)
        x = _sph_point(p)
        u = _sph_vel_ambient(p, state.velocity)
        s = np.linalg.norm(u)
        uh = u / s
        b = np.cross(x, uh)
        wa = _sph_vel_ambient(p, w)
        cu, cb, cx = wa @ uh, wa @ b, wa @ x
        ang = s * t
        x2 = x * np.cos(ang) + uh * np.sin(ang)
        uh2 = -x * np.sin(ang) + uh * np.cos(ang)
        wa2 = cu * uh2 + cb * b + cx * x2
        return _sph_vel_chart(_sph_chart(x2), wa2)
    vz = complex(state.velocity[0], state.velocity[1])
    wz = complex(w[0], w[1])
    ratio = wz / vz
    end = geodesic_advance(model, state, t)
    v2 = complex(end.velocity[0], end.velocity[1])
    w2 = v2 * ratio
    return np.array([w2.real, w2.imag])


def parallel_transport_rk4(model, state, t, w, steps=400):
    """Generic RK4 integration of the geodesic + transport equations.

    Cross-check oracle only; it integrates in the chart and does not know
    about octagon side pairings, so octagon paths must stay inside the
    fundamental domain.
    """
    y = np.concatenate([np.asarray(state.point, float),
                        np.asarray(state.velocity, float),
                        np.asarray(w, float)])
    n = model.dim

    def rhs(y):
        p, v, wv = y[:n], y[n:2 * n], y[2 * n:]
        gam = christoffel_at(model, p)
        dv = -np.einsum("kij,i,j->k", gam, v, v)
        dw = -np.einsum("kij,i,j->k", gam, v, wv)
        return np.concatenate([v, dv, dw])

    h = float(t) / steps
    for _ in range(steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return y[:n], y[n:2 * n], y[2 * n:]


# ---------------------------------------------------------------------------
# Connecting geodesics, holonomy, polygon areas


def _torus_connect(model, a, b):
    per = np.asarray(model.periods)
    d = (np.asarray(b, float) - np.asarray(a, float)) % per
    d = np.where(d > 0.5 * per, d - per, d)
    dist = np.linalg.norm(d)
    if dist == 0.0:
        raise ValueError("degenerate polygon: repeated vertices")
    return d / dist, dist


def _sphere_vertex(v):
    v = np.asarray(v, dtype=float)
    if v.shape == (3,):
        return v / np.linalg.norm(v)
    th, ph = float(v[0]), float(v[1])
    return np.array([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)])


def _sphere_connect(a, b):
    """Unit tangents at both ends of the arc a -> b (ambient), plus length."""
    c = np.clip(a @ b, -1.0, 1.0)
    psi = np.arccos(c)
    if psi < 1e-12 or psi > np.pi - 1e-12:
        raise ValueError("degenerate or antipodal polygon edge")
    u_a = (b - c * a) / np.sin(psi)
    u_b = (a * (-np.sin(psi)) + u_a * np.cos(psi))
    return u_a, u_b, psi


def _disk_connect(a, b):
    """Departure/arrival unit tangents for the disk geodesic a -> b."""
    bp = (b - a) / (1.0 - np.conj(a) * b)
    if abs(bp) < 1e-14:
        raise ValueError("degenerate polygon: repeated vertices")
    eta = bp / abs(bp)
    dep = (1.0 - abs(a) ** 2) * eta
    arr = (1.0 - abs(a) ** 2) / (1.0 + np.conj(a) * bp) ** 2 * eta
    dist = 2.0 * np.arctanh(abs(bp))
    return dep, arr, dist


def _wrap_angle(x):
    return (x + np.pi) % (2.0 * np.pi) - np.pi


def holonomy(model, vertices):
    """Rotation angle of parallel transport around a closed geodesic polygon.

    The polygon is the list of vertices traversed in order (the closing edge
    back to the first vertex is implied).  The angle equals
    curvature * enclosed area, modulo 2*pi, with the sign of the traversal
    orientation.
    """
    if len(vertices) < 3:
        raise ValueError("polygon needs at least 3 vertices")
    if model.kind == TORUS:
        for a, b in _edges(vertices):
            _torus_connect(model, a, b)  # raises on repeated vertices
        return 0.0
    if model.kind == SPHERE:
        pts = [_sphere_vertex(v) for v in vertices]
        w = None
        for a, b in _edges(pts):
            u_a, u_b, _ = _sphere_connect(a, b)
            if w is None:
                w0 = u_a
                n0 = np.cross(a, u_a)
                w = u_a
            n_edge = np.cross(a, u_a)
            w = (w @ u_a) * u_b + (w @ n_edge) * n_edge
        return float(_wrap_angle(np.arctan2(w @ n0, w @ w0)))
    zs = [complex(v[0], v[1]) for v in vertices]
    total = 0.0
    for a, b in _edges(zs):
        dep, arr, _ = _disk_connect(a, b)
        total += np.angle(arr / dep)
    return float(_wrap_angle(total))


def _edges(vertices):
    m = len(vertices)
    return [(vertices[i], vertices[(i + 1) % m]) for i in range(m)]


def geodesic_polygon_area(model, vertices):
    """Signed enclosed area from the angle excess/defect (Gauss-Bonnet oracle).

    Positive for counterclockwise traversal.  Torus polygons use the planar
    shoelace formula on the unwrapped straight edges.
    """
    m = len(vertices)
    if model.kind == TORUS:
        pts = [np.asarray(vertices[0], dtype=float)]
        for a, b in _edges(vertices)[:-1]:
            d, dist = _torus_connect(model, a, b)
            pts.append(pts[-1] + d * dist)
        area = 0.0
        for i in range(m):
            x0, y0 = pts[i][:2]
            x1, y1 = pts[(i + 1) % m][:2]
            area += 0.5 * (x0 * y1 - x1 * y0)
        return float(area)
    turning = 0.0
    if model.kind == SPHERE:
        pts = [_sphere_vertex(v) for v in vertices]
        for i in range(m):
            a, b, c = pts[(i - 1) % m], pts[i], pts[(i + 1) % m]
            _, incoming, _ = _sphere_connect(a, b)
            outgoing, _, _ = _sphere_connect(b, c)
            nb = np.cross(b, incoming)
            turning += np.arctan2(outgoing @ nb, outgoing @ incoming)
    else:
        zs = [complex(v[0], v[1]) for v in vertices]
        for i in range(m):
            a, b, c = zs[(i - 1) % m], zs[i], zs[(i + 1) % m]
            _, incoming, _ = _disk_connect(a, b)
            outgoing, _, _ = _disk_connect(b, c)
            turning += np.angle(outgoing / incoming)
    # Gauss-Bonnet for a counterclockwise geodesic polygon
    return float((2.0 * np.pi - turning) / model.curvature)


# ---------------------------------------------------------------------------
# Frame utilities


def orthonormality_residual(model, fp):
    """Max-norm residual of frame^T G frame = I at the frame's base point."""
    g = metric_at(model, fp.point)
    return float(np.abs(fp.frame.T @ g @ fp.frame - np.eye(model.dim)).max())


def is_oriented(model, fp):
    """True if the frame is positively oriented in the orthonormal gauge."""
    return bool(np.linalg.det(fp.frame) > 0)


def gram_orthonormalize(model, point, frame):
    """Metric Gram-Schmidt of the frame columns at `point`."""
    g = metric_at(model, point)
    out = np.array(frame, dtype=float, copy=True)
    n = out.shape[1]
    for i in range(n):
        for j in range(i):
            out[:, i] -= (out[:, j] @ g @ out[:, i]) * out[:, j]
        out[:, i] /= np.sqrt(out[:, i] @ g @ out[:, i])
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


def _sphere_rule(res):
    """Gauss-Legendre in cos(theta) times 2 res equispaced azimuths on S^2:
    flat arrays (cos theta, phi, weight), cos theta outermost."""
    cs, ws = np.polynomial.legendre.leggauss(res)
    phis = np.arange(2 * res) * (np.pi / res)
    return np.repeat(cs, 2 * res), np.tile(phis, res), np.repeat(ws, 2 * res)


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
        c, ph, base_w = _sphere_rule(res)
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
        c, ph, fibre_w = _sphere_rule(res)
        s = np.sqrt(1.0 - c * c)
        fibre = np.column_stack([s * np.cos(ph), s * np.sin(ph), c])
    # the metric is diagonal in every chart: divide by its square root
    dirs = (fibre[None, :, :] / root_g[:, None, :]).reshape(-1, model.dim)
    return (np.repeat(points, len(fibre), axis=0), dirs,
            np.outer(base_w, fibre_w).ravel())
