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
- `octagon_su11_referee`: the octagon flow as the same SU(1,1) chain (boost,
  side choices, renormalization) in 50-digit arithmetic (mpmath), against
  the double-precision kernel of `geometry`.
- `octagon_frame_point`: the octagon's random frame point by a rejection
  loop on numpy arrays, against the Python-float loop of
  `flows.random_frame_point`.
- `generic_rotations_per_draw` and `table_residuals_per_pair`: the seeded
  generic rotations, one draw and one QR at a time, and a table's
  diagnostics, one cocycle pair at a time, against the stacked forms of
  `algebra`.
- `so_log_real_schur`: the rotation logarithm from one real Schur form per
  matrix, against the batched eigendecomposition of `algebra.so_log`.
- `bivector_einsum` and `commutation_residual_per_pair`: the spin Lie
  algebra element as one three-operand einsum over the gammas, and the
  commutation residual of projections one (sample, projection) pair at a
  time, against the pair-table product of `algebra._bivector` and the 2-D
  products of `algebra.commutation_residual`.
- `helicity_chain`, `hodge_chain`, `dirac_einsum` and
  `sign_and_halves_through_square`: the torus helicity operator as the
  sparse chain Delta^{-1/2} star d, the Hodge projections as
  pinv(Delta) delta d and pinv(Delta) d delta, the Dirac operator from
  gamma . kappa rows, and its sign and halves through the diagonal of D^2,
  against the Fourier multipliers of `spectral` (and, on the sphere, the
  Hodge projections bit for bit).

None of them imports a private helper of the code it checks.
"""

import numpy as np
import scipy.linalg
import scipy.sparse

from framelab import algebra as alg
from framelab import geometry as geo
from framelab import spectral as sp


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


def generic_rotations_per_draw(m, count, seed):
    """`count` successive normal (m, m) draws, each orthonormalized by QR with
    column 0 flipped where the determinant is negative, weights 1/count."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        q, _ = np.linalg.qr(rng.normal(size=(m, m)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        out.append((q, 1.0 / count))
    return out


def table_residuals_per_pair(rep):
    """Weight sum defect, max non-unitarity and (projective) cocycle defect of
    a representation table, over the same 12 seeded sample pairs as
    `algebra.table_residuals`, one `apply` per pair."""
    wsum = sum(w for _, _, w in rep.sample)
    eye = np.eye(rep.degree)
    unit = max(np.abs(u.conj().T @ u - eye).max() for _, u, _ in rep.sample)
    idx = np.random.default_rng(0).integers(0, len(rep.sample), size=(12, 2))
    coc = 0.0
    for i, j in idx:
        g, u, _ = rep.sample[i]
        h, v, _ = rep.sample[j]
        prod = rep.apply(g @ h)
        phase = np.trace(prod.conj().T @ (u @ v)) / rep.degree
        phase = phase / abs(phase) if rep.projective else 1.0
        coc = max(coc, np.abs(u @ v - phase * prod).max())
    return {"weight_sum": float(abs(wsum - 1.0)), "unitarity": float(unit),
            "cocycle": float(coc)}


def so_log_real_schur(r):
    """Principal antisymmetric logarithm of one rotation matrix from its real
    Schur form: each 2 x 2 block of angle theta gives a theta-rotation
    generator, and paired -1 scalar blocks (angle-pi planes) are rotated by
    +pi, in Schur order."""
    t, q = scipy.linalg.schur(np.asarray(r, dtype=float), output="real")
    n = len(t)
    log_t = np.zeros_like(t)
    flipped = []
    i = 0
    while i < n:
        if i + 1 < n and abs(t[i + 1, i]) > 1e-12:
            theta = np.arctan2(t[i + 1, i], t[i, i])
            log_t[i, i + 1], log_t[i + 1, i] = -theta, theta
            i += 2
        else:
            if t[i, i] < -0.5:
                flipped.append(i)
            i += 1
    for a, b in zip(flipped[0::2], flipped[1::2]):
        log_t[a, b], log_t[b, a] = -np.pi, np.pi
    return q @ log_t @ q.T


def bivector_einsum(cl, a):
    """1/4 sum_ij a_ij gamma_i gamma_j of an antisymmetric a (n, n), or of
    each of a stack (..., n, n), as one three-operand einsum."""
    g = cl.gammas
    return 0.25 * np.einsum("...ij,iab,jbc->...ac", a, g, g)


def commutation_residual_per_pair(rep, projs):
    """Max |rho(g) p - p rho(g)| entry over the sampled g and the projections
    p, one pair at a time."""
    return float(max(np.abs(u @ p.projector - p.projector @ u).max()
                     for _, u, _ in rep.sample for p in projs))


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


def octagon_su11_referee(z, v, t, digits=50):
    """The disk state (z, v), complex scalars with v != 0, advanced by time t
    as an SU(1,1) chain in `digits`-digit arithmetic, returned as complex
    floats.

    The state lifts to a^2 = (v / |v|) / (1 - |z|^2), b = z conj(a) and speed
    s = 2 |v| / (1 - |z|^2).  Each substep of at most 0.5 in time boosts
    (a, b) by [[cosh(s h / 2), sinh(s h / 2)], [sinh(s h / 2), cosh(s h / 2)]]
    on the right; then, while b / conj(a) lies outside the octagon (to 1e-14),
    it applies the pairing of the most violated side on the left; then it
    renormalizes to |a|^2 - |b|^2 = 1.  The chart view is z = b / conj(a),
    v = s / (2 conj(a)^2).
    """
    import mpmath  # a test dependency that only this oracle needs

    with mpmath.workdps(digits):
        z, v = mpmath.mpc(z), mpmath.mpc(v)
        conf = 1 - abs(z) ** 2
        a = mpmath.sqrt(v / abs(v) / conf)
        b = z * mpmath.conj(a)
        s = 2 * abs(v) / conf
        cosh_d = 1 + mpmath.sqrt(2)
        sinh_d = mpmath.sqrt(cosh_d ** 2 - 1)
        rho = mpmath.sqrt(mpmath.sqrt(2) - 1)
        centers = [(rho + 1 / rho) / 2 * mpmath.expjpi(mpmath.mpf(k) / 4) for k in range(8)]
        radius = (1 / rho - rho) / 2
        remaining = mpmath.mpf(t)
        while True:
            h = mpmath.sign(remaining) * min(mpmath.mpf(0.5), abs(remaining))
            c, sh = mpmath.cosh(s * h / 2), mpmath.sinh(s * h / 2)
            a, b = a * c + b * sh, a * sh + b * c
            for _ in range(32):
                d = [abs(b / mpmath.conj(a) - w) for w in centers]
                k = min(range(8), key=d.__getitem__)
                if radius - d[k] <= 1e-14:
                    break
                q = sinh_d * mpmath.expjpi(mpmath.mpf((k + 4) % 8) / 4)
                a, b = cosh_d * a + q * mpmath.conj(b), cosh_d * b + q * mpmath.conj(a)
            else:
                raise RuntimeError("octagon re-entry did not terminate")
            norm = mpmath.sqrt(abs(a) ** 2 - abs(b) ** 2)
            a, b = a / norm, b / norm
            remaining -= h
            if remaining == 0:
                ca = mpmath.conj(a)
                return complex(b / ca), complex(s / (2 * ca ** 2))


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


# ---------------------------------------------------------------------------
# Operators as sparse product chains


def _pseudo_power(vals, exponent):
    """vals ** exponent, and 0 on the kernel (relative to max(vals.max(), 1))."""
    out = np.zeros_like(vals)
    keep = vals > 1e-10 * max(vals.max(), 1.0)
    out[keep] = vals[keep] ** exponent
    return out


def helicity_chain(model, K):
    """Delta^{-1/2} star d on the 1-forms of T^3, one sparse product after
    another."""
    sm = sp.basis_for(model, "forms", K, 1)
    star_d = sp.hodge_star(model, 2, K).matrix @ sp.exterior_d(model, 1, K).matrix
    return (scipy.sparse.diags(_pseudo_power(sm.lam, -0.5)) @ star_d).tocsr()


def hodge_chain(model, p, K):
    """The Hodge projections (P, Q, H) on p-forms as sparse products:
    P = pinv(Delta) delta d, Q = pinv(Delta) d delta with delta from
    `codifferential`, and H = 1 - P - Q."""
    sm = sp.basis_for(model, "forms", K, p)
    dinv = scipy.sparse.diags(_pseudo_power(sm.lam, -1.0))
    pmat = qmat = scipy.sparse.csr_matrix((sm.dim, sm.dim), dtype=complex)
    if p < model.dim:
        pmat = (dinv @ (sp.codifferential(model, p + 1, K).matrix
                        @ sp.exterior_d(model, p, K).matrix)).tocsr()
    if p > 0:
        qmat = (dinv @ (sp.exterior_d(model, p - 1, K).matrix
                        @ sp.codifferential(model, p, K).matrix)).tocsr()
    hmat = (scipy.sparse.identity(sm.dim, dtype=complex) - pmat - qmat).tocsr()
    return pmat, qmat, hmat


def dirac_einsum(model, K):
    """The flat Dirac operator on T^2 or T^3: row a of each element's mode
    block gamma . kappa, kappa = 2 pi k / period, a the element's spinor
    index, with every nonzero entry placed by its label."""
    sm = sp.basis_for(model, "spinors", K)
    gammas = alg.build_clifford(model.dim).gammas
    kappa = 2.0 * np.pi * np.asarray(sm.modes, dtype=float) / np.asarray(model.periods)
    block_rows = np.einsum("ij,jib->ib", kappa, gammas[:, sm.components, :])
    rows, b = np.nonzero(block_rows)
    cols = [sm.index["s", tuple(k), c] for k, c in zip(sm.modes[rows].tolist(), b.tolist())]
    return scipy.sparse.csr_matrix((block_rows[rows, b], (rows, cols)),
                                   shape=(sm.dim, sm.dim), dtype=complex)


def sign_and_halves_through_square(d):
    """sign(D) = D |D|^{-1} from the diagonal of D^2 (`ValueError` if D^2 is
    not diagonal), and the halves (sign^2 +- sign)/2, all sparse products."""
    sq = (d @ d).tocsr()
    diag = sq.diagonal()
    if abs(sq - scipy.sparse.diags(diag)).max() > 1e-12 * max(1.0, abs(diag).max()):
        raise ValueError("D^2 is not diagonal in the canonical basis")
    sign = (d @ scipy.sparse.diags(_pseudo_power(diag.real, -0.5))).tocsr()
    sign2 = (sign @ sign).tocsr()
    return sign, (0.5 * (sign2 + sign)).tocsr(), (0.5 * (sign2 - sign)).tocsr()
