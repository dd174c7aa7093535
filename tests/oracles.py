"""Independent reference implementations that the tests check the library against.

- `haar_sample`: Haar quadratures on SO(m), m <= 4, an oracle for the exact
  commutants of `algebra`:
  - SO(2): trapezoid on the rotation angle (64 nodes, exact below degree 64);
  - SO(3): z-y-z Euler angles, trapezoid in alpha/gamma and Gauss-Legendre in
    cos(beta) (16^3 nodes);
  - SO(4): product of two SU(2) Euler quadratures pushed through the
    quaternion double cover (exact for spin content up to (2, 2)).
- `christoffel_at` and `parallel_transport_rk4`: a generic RK4 integration of
  the geodesic and transport equations in the chart, against the closed forms
  of `geometry.parallel_transport`.
- `geodesic_polygon_area`: the signed enclosed area from the angle excess or
  defect (Gauss-Bonnet), against `geometry.holonomy`.
- `octagon_chart_advance`: the octagon geodesic flow in the disk chart, a
  Mobius step per substep with the speed renormalized at every step and
  every side crossing, against the SU(1,1) flow of `geometry`.
- `octagon_frame_point`: the octagon's random frame point by a rejection
  loop on numpy arrays, against the Python-float loop of
  `flows.random_frame_point`.

None of them imports a private helper of the code it checks.
"""

import numpy as np

from framelab import geometry as geo


# ---------------------------------------------------------------------------
# Haar quadratures


def _trapezoid_angles(count, period=2.0 * np.pi):
    return np.arange(count) * (period / count)


def haar_sample(m):
    """Haar quadrature sample [(element, weight)] on SO(m), m in {1, 2, 3, 4}.

    Exact for the trigonometric/Legendre coefficient degrees of the
    representations the tests use.
    """
    so2_nodes, so3_nodes, su2_nodes = 64, 16, (8, 3, 8)
    if m == 1:
        return [(np.eye(1), 1.0)]
    if m == 2:
        return [(_rot2(a), 1.0 / so2_nodes) for a in _trapezoid_angles(so2_nodes)]
    if m == 3:
        nodes, weights = np.polynomial.legendre.leggauss(so3_nodes)
        out = []
        for al in _trapezoid_angles(so3_nodes):
            for c, wb in zip(nodes, weights):
                for ga in _trapezoid_angles(so3_nodes):
                    w = wb / (2.0 * so3_nodes * so3_nodes)
                    out.append((_euler_zyz(al, np.arccos(c), ga), w))
        return out
    if m == 4:
        su2 = _su2_sample(*su2_nodes)
        out = []
        for u, wu in su2:
            for v, wv in su2:
                out.append((_so4_from_quaternions(u, v), wu * wv))
        return out
    raise ValueError(f"no Haar quadrature for SO({m})")


def _rot2(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s], [s, c]])


def _euler_zyz(al, be, ga):
    rz1 = np.eye(3)
    rz1[:2, :2] = _rot2(al)
    ry = np.array([[np.cos(be), 0, np.sin(be)], [0, 1, 0], [-np.sin(be), 0, np.cos(be)]])
    rz2 = np.eye(3)
    rz2[:2, :2] = _rot2(ga)
    return rz1 @ ry @ rz2


def _su2_sample(na, nb, ng):
    nodes, weights = np.polynomial.legendre.leggauss(nb)
    out = []
    for al in _trapezoid_angles(na):
        for c, wb in zip(nodes, weights):
            be = np.arccos(c)
            for ga in _trapezoid_angles(ng, period=4.0 * np.pi):
                q = _su2_euler_quaternion(al, be, ga)
                out.append((q, wb / (2.0 * na * ng)))
    return out


def _su2_euler_quaternion(al, be, ga):
    # unit quaternion of exp(-i al s3/2) exp(-i be s2/2) exp(-i ga s3/2)
    cb, sb = np.cos(be / 2), np.sin(be / 2)
    return np.array([
        cb * np.cos((al + ga) / 2),
        sb * np.sin((ga - al) / 2),
        sb * np.cos((ga - al) / 2),
        cb * np.sin((al + ga) / 2),
    ])


def _quat_left(q):
    w, x, y, z = q
    return np.array([
        [w, -x, -y, -z],
        [x, w, -z, y],
        [y, z, w, -x],
        [z, -y, x, w],
    ])


def _quat_right(q):
    w, x, y, z = q
    return np.array([
        [w, -x, -y, -z],
        [x, w, z, -y],
        [y, -z, w, x],
        [z, y, -x, w],
    ])


def _so4_from_quaternions(u, v):
    # x -> u x conj(v) on quaternions identified with R^4
    vb = np.array([v[0], -v[1], -v[2], -v[3]])
    return _quat_left(u) @ _quat_right(vb)


# ---------------------------------------------------------------------------
# Generic transport


def christoffel_at(model, point):
    """Christoffel symbols Gamma[k, i, j] of the Levi-Civita connection."""
    point = np.asarray(point, dtype=float)
    n = model.dim
    gam = np.zeros((n, n, n))
    if model.kind == geo.TORUS:
        return gam
    if model.kind == geo.SPHERE:
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


def parallel_transport_rk4(model, state, t, w, steps=400):
    """Generic RK4 integration of the geodesic + transport equations.

    It integrates in the chart and does not know about octagon side pairings,
    so octagon paths must stay inside the fundamental domain.
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
# Gauss-Bonnet polygon areas


def _sphere_point(v):
    """Ambient unit vector of the chart point (theta, phi)."""
    th, ph = v
    return np.array([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)])


def _sphere_tangents(a, b):
    """Unit tangents at both ends of the great-circle arc a -> b (ambient)."""
    c = np.clip(a @ b, -1.0, 1.0)
    psi = np.arccos(c)
    if psi < 1e-12 or psi > np.pi - 1e-12:
        raise ValueError("degenerate or antipodal polygon edge")
    u_a = (b - c * a) / np.sin(psi)
    return u_a, -np.sin(psi) * a + np.cos(psi) * u_a


def _disk_tangents(a, b):
    """Departure and arrival tangents of the disk geodesic a -> b."""
    bp = (b - a) / (1.0 - np.conj(a) * b)
    if abs(bp) < 1e-14:
        raise ValueError("degenerate polygon: repeated vertices")
    eta = bp / abs(bp)
    return (1.0 - abs(a) ** 2) * eta, (1.0 - abs(a) ** 2) / (1.0 + np.conj(a) * bp) ** 2 * eta


def geodesic_polygon_area(model, vertices):
    """Signed enclosed area of a geodesic polygon on the sphere or the octagon,
    from the angle excess/defect (Gauss-Bonnet oracle).

    Positive for counterclockwise traversal.
    """
    m = len(vertices)
    turning = 0.0
    if model.kind == geo.SPHERE:
        pts = [_sphere_point(v) for v in vertices]
        for i in range(m):
            a, b, c = pts[(i - 1) % m], pts[i], pts[(i + 1) % m]
            _, incoming = _sphere_tangents(a, b)
            outgoing, _ = _sphere_tangents(b, c)
            turning += np.arctan2(outgoing @ np.cross(b, incoming), outgoing @ incoming)
    else:
        zs = [complex(v[0], v[1]) for v in vertices]
        for i in range(m):
            a, b, c = zs[(i - 1) % m], zs[i], zs[(i + 1) % m]
            _, incoming = _disk_tangents(a, b)
            outgoing, _ = _disk_tangents(b, c)
            turning += np.angle(outgoing / incoming)
    # Gauss-Bonnet for a counterclockwise geodesic polygon
    return float((2.0 * np.pi - turning) / model.curvature)


# ---------------------------------------------------------------------------
# Octagon chart flow

_OCT_COSH_D = 1.0 + np.sqrt(2.0)  # cosh of the inradius d
_OCT_SINH_D = np.sqrt(_OCT_COSH_D ** 2 - 1.0)
_OCT_RHO_MID = np.sqrt(np.sqrt(2.0) - 1.0)  # euclidean radius of the side midpoints
_OCT_DIRS = np.exp(1j * np.pi / 4.0 * np.arange(8))
_OCT_CENTERS = 0.5 * (_OCT_RHO_MID + 1.0 / _OCT_RHO_MID) * _OCT_DIRS
_OCT_CIRCLE_R = 0.5 * (1.0 / _OCT_RHO_MID - _OCT_RHO_MID)


def _oct_apply_pairing(k, z, v):
    # the translation by 2d along exp(i k pi/4), which maps side k+4 onto side k
    a, b = _OCT_COSH_D, _OCT_SINH_D * _OCT_DIRS[k]
    den = np.conj(b) * z + a
    z2 = (a * z + b) / den
    v2 = v / (den * den)
    # renormalize to the incoming speed
    v2 *= abs(v) / (1.0 - abs(z) ** 2) * (1.0 - abs(z2) ** 2) / abs(v2)
    return z2, v2


def _oct_geodesic_step(z, v, t):
    # the disk geodesic of (z, v) for time t at the speed of v, no re-entry
    size = abs(v)
    phase = v / size
    conf = 1.0 - abs(z) ** 2
    half_speed = size / conf  # the conformal factor is 2 / conf
    w = np.tanh(half_speed * t) * phase
    den = 1.0 + np.conj(z) * w
    z2 = (w + z) / den
    v2 = conf / (den * den) * phase
    v2 *= half_speed * (1.0 - abs(z2) ** 2) / abs(v2)
    return z2, v2


def octagon_chart_advance(z, v, t):
    """The disk state (z, v), complex scalars with v != 0, advanced by time t.

    Substeps of at most 0.5 in time, each followed by re-entry through the
    pairing of the most violated side until the point lies in the octagon
    (to 1e-14).
    """
    remaining = float(t)
    while True:
        h = np.sign(remaining) * min(0.5, abs(remaining))
        z, v = _oct_geodesic_step(z, v, h)
        for _ in range(32):
            d = np.abs(z - _OCT_CENTERS)
            if _OCT_CIRCLE_R - d.min() <= 1e-14:
                break
            z, v = _oct_apply_pairing((int(d.argmin()) + 4) % 8, z, v)
        else:
            raise RuntimeError("octagon re-entry did not terminate")
        remaining -= h
        if remaining == 0.0:
            return z, v


# ---------------------------------------------------------------------------
# Octagon frame points

_OCT_RHO_VERTEX = 2.0 ** (-0.25)  # euclidean radius of the vertices


def octagon_frame_point(model, rng):
    """A random octagon frame point (point (2,), frame (2, 2)): candidates
    uniform in the square [-rho, rho]^2 (rho the vertex radius), kept when
    `octagon_contains` holds, then with probability (lambda / lambda_max)^2
    for the conformal factor lambda; e_1 at a uniform chart angle, made
    metric-unit and completed."""
    rv = _OCT_RHO_VERTEX
    lam_max = 2.0 / (1.0 - rv ** 2)
    while True:
        xy = rng.uniform(-rv, rv, size=2)
        if not geo.octagon_contains(complex(xy[0], xy[1])):
            continue
        lam = np.sqrt(geo.metric_at(model, xy)[0, 0])
        if rng.uniform() < (lam / lam_max) ** 2:
            break
    a = rng.uniform(0, 2 * np.pi)
    g = geo.metric_at(model, xy)
    scale = 1.0 / np.sqrt(np.diag(g))
    e1 = np.array([np.cos(a) * scale[0], np.sin(a) * scale[1]])
    e1 /= np.sqrt(e1 @ g @ e1)
    return xy, geo.frame_completion(model, xy, e1)
