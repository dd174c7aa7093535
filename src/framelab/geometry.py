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

The octagon flow's substep is written in the real components of (a, b), one
rounded operation at a time, which numpy's elementwise ufuncs and Python
floats round alike.  So a batch runs on numpy arrays and a single state (one
trajectory's anchor chain) on Python floats with the same bits, and a
decided single-state substep makes no numpy call (`_oct_flow`).  Flow
times on every model and octagon states must be finite, and octagon points
inside the unit disk (`ValueError`).

The package's one quadrature rule on the unit tangent bundle
(`unit_bundle_nodes`), its one sphere rule (`_sphere_rule`, also used by
`spectral`), oriented frame completion (`frame_completion`) and chunked node
contraction (`_node_average`) live here; the Liouville-Haar averages of
`flows` and the tracial states of `limits` integrate with them.  `holonomy`
sums turning angles after one group-form flow of every polygon edge.
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
# A batch pairs at most this many rows outside one at a time on Python floats;
# one round of array pairing costs about as much as four such rows.
_OCT_FEW_ROWS = 4
_NODE_CHUNK = 8192  # quadrature nodes per callback table in `_node_average`


@dataclass(frozen=True)
class ManifoldModel:
    """A closed-form Riemannian model manifold, whose value is (kind, dim,
    periods): models compare and hash by it.

    Fields
    ------
    kind : one of "flat_torus", "sphere", "octagon"
    dim : chart dimension n
    periods : n finite positive reals, kept as a tuple of floats (tori only)

    `curvature` and `side_pairings` are derived from the kind; invalid fields
    raise `ValueError`.
    """

    kind: str
    dim: int
    periods: tuple | None = None

    def __post_init__(self):
        if self.kind == TORUS:
            if self.dim not in (2, 3):
                raise ValueError(f"flat torus supports dim 2 or 3, got {self.dim}")
            per = np.asarray(() if self.periods is None else self.periods, dtype=float)
            if per.shape != (self.dim,) or not (np.isfinite(per) & (per > 0)).all():
                raise ValueError("torus needs one finite positive period per dimension")
            object.__setattr__(self, "periods", tuple(per.tolist()))  # hashable, equal by value
        elif self.kind in (SPHERE, OCTAGON):
            if self.dim != 2 or self.periods is not None:
                raise ValueError(f"{self.kind} is two-dimensional and takes no periods")
        else:
            raise ValueError(f"unknown manifold kind {self.kind!r}")

    @property
    def curvature(self):
        """Constant sectional curvature (0, +1, -1)."""
        return {TORUS: 0.0, SPHERE: 1.0, OCTAGON: -1.0}[self.kind]

    @property
    def side_pairings(self):
        """The octagon's (8, 2, 2) SU(1,1) side pairings (`_OCT_PAIRINGS`),
        from which its flow's crossing table is built; None on the other
        kinds."""
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
    return ManifoldModel(TORUS, dim, (2.0 * np.pi,) * dim if periods is None else periods)


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

# Crossing side k applies the first row (c, q) of P_{k+4} on the left: a goes
# to c a + q conj(b), and b to c b + q conj(a).  Per component (re, im), with
# w the partner's components and w~ = (im w, re w), that is
# c a + (w (qr, -qr) + w~ (qi, qi)); `_OCT_CROSSINGS[k]` holds the rows
# (c, c), (qr, -qr) and (qi, qi).
_OCT_CROSSINGS = np.array([[[p.real, p.real], [q.real, -q.real], [q.imag, q.imag]]
                           for p, q in np.roll(_OCT_PAIRINGS, -4, axis=0)[:, 0]])
_OCT_CROSSINGS.setflags(write=False)


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
    `_oct_reenter`: side pairings while the point lies outside the octagon,
    then renormalization to |a|^2 - |b|^2 = 1.  Its arithmetic is written in
    the real components (ar, ai, br, bi), one rounded operation at a time,
    so numpy's elementwise ufuncs on a batch and Python floats on one row
    give the same bits, signed zeros included.

    One row (len(a) == 1), where numpy's per-call cost would dominate, runs
    `_oct_row_substep` on Python floats, and a batch pairs a few rows outside
    the same way.  Python decides inside or outside, and the side, by
    `_oct_side`: squared distances with a relative margin of 1e-9 against the
    batch's test.  A state in the margin, at a tie or not finite goes to
    `_oct_reenter` as a one-row array, which decides as in a batch.
    """
    plan = _oct_plan(s, t)
    if len(a) == 1:
        steps = [(float(c[0]), float(sh[0])) for _, c, sh in plan if len(c)]
        a, b = complex(a[0]), complex(b[0])
        g = a.real, a.imag, b.real, b.imag
        out = []
        for _ in range(k):
            for c, sh in steps:
                g = _oct_row_substep(*g, c, sh)
            out.append(g)
        return np.array(out).view(complex).T.reshape(2, k, 1)
    # each coefficient once per component (re, im): products broadcast only
    # over a and b
    plan = [(rows, np.repeat(c, 2).reshape(-1, 2), np.repeat(sh, 2).reshape(-1, 2))
            for rows, c, sh in plan]
    g = np.array([a, b]).view(float).reshape(2, len(a), 2)
    out = np.empty((2, k, len(a)), dtype=complex)
    for j in range(k):
        for rows, c, sh in plan:
            g[:, rows] = _oct_reenter(_oct_boost(g[:, rows], c, sh))
        out[:, j] = g.view(complex)[..., 0]
    return out


def _oct_plan(s, t):
    """The substeps of an octagon advance of speeds s by times t: a list of
    (rows, cosh(s h / 2), sinh(s h / 2)) over the rows each substep moves.

    Every moving row takes at least one (possibly zero-length) substep, and
    a resting row (s = 0) takes none.
    """
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


def _oct_boost(g, c, sh):
    """The states g (2, ..., 2), a and b by real and imaginary part, times
    [[c, sh], [sh, c]] on the right: a c + b sh and b c + a sh, per
    component (c and sh broadcast against g[0])."""
    return g * c + g[::-1] * sh


def _oct_reenter(g):
    """The states g (2, m, 2) of `_oct_boost`, a new array: while the point
    b / conj(a) lies outside the octagon, the pairing of the most violated
    side on the left (in place); then renormalized to |a|^2 - |b|^2 = 1.

    Up to `_OCT_FEW_ROWS` rows outside go one at a time through
    `_oct_row_reenter`, whose arithmetic is the same; a row it leaves
    undecided is decided here in the next round.
    """
    d = _oct_distances(g)
    out = None  # the rows of d, once any is outside
    for _ in range(_OCT_MAX_PAIRINGS):
        # rounding is monotone, so the least distance over the rows tells
        # whether any lies outside
        if not _OCT_CIRCLE_R - d.min(initial=np.inf) > _BOUNDARY_TOL:
            break
        outside = _OCT_CIRCLE_R - d.min(axis=0) > _BOUNDARY_TOL
        out = np.flatnonzero(outside) if out is None else out[outside]
        sides = d[:, outside].argmin(axis=0)
        if len(out) <= _OCT_FEW_ROWS:  # one at a time on Python floats
            left = []  # the rows `_oct_row_reenter` leaves undecided
            for j, side in zip(out.tolist(), sides.tolist()):
                (ar, ai, br, bi), side = _oct_row_reenter(*g[:, j].ravel().tolist(), side)
                g[:, j] = (ar, ai), (br, bi)
                if side is None:
                    left.append(j)
            if not left:
                break
            out = np.array(left)
            h = g[:, out]
        else:
            c, q1, q2 = _OCT_CROSSINGS[sides].transpose(1, 0, 2)
            h = g[:, out]
            w = h[::-1]  # the partner of each of a and b
            h = h * c + (w * q1 + w[..., ::-1] * q2)
            g[:, out] = h
        d = _oct_distances(h)
    else:
        raise ResolutionError("octagon re-entry did not terminate")
    n2 = g * g
    n2 = n2[..., 0] + n2[..., 1]  # |a|^2 and |b|^2
    return g * (1.0 / np.sqrt(n2[0] - n2[1]))[:, None]


def _oct_distances(g):
    """Distances (8, m) to the side circles' centres from the points
    b / conj(a) of the states g (2, m, 2), as `octagon_contains` measures
    them (side first: the least over the sides is then elementwise)."""
    a, b = g.view(complex)[..., 0]
    return np.abs(b / np.conj(a) - _OCT_CENTERS[:, None])


# The one-row kernel's constants, as Python floats: its arithmetic never
# meets a numpy scalar
_OCT_ROW_MARGIN = 1e-9
_OCT_ROW_INNER2 = float(_OCT_RHO_MID * (1.0 - _OCT_ROW_MARGIN)) ** 2  # in the inscribed disk
_OCT_ROW_EDGE2 = float(_OCT_CIRCLE_R - _BOUNDARY_TOL) ** 2
_OCT_ROW_CENTERS = [(w.real, w.imag) for w in _OCT_CENTERS.tolist()]


def _oct_side(x, y):
    """The side circle that the disk point (x, y), Python floats, lies in, by
    squared distances: -1 for none, else the side k of the nearest; None when
    a relative margin of 1e-9 leaves that undecided, against the radius less
    `_BOUNDARY_TOL` or between the two nearest circles."""
    d2 = [(x - cx) * (x - cx) + (y - cy) * (y - cy) for cx, cy in _OCT_ROW_CENTERS]
    least = min(d2)
    if least > _OCT_ROW_EDGE2 * (1.0 + _OCT_ROW_MARGIN):
        return -1
    if (least < _OCT_ROW_EDGE2 * (1.0 - _OCT_ROW_MARGIN)
            and sorted(d2)[1] > least * (1.0 + _OCT_ROW_MARGIN)):
        return d2.index(least)
    return None


def _oct_row_side(ar, ai, br, bi):
    """`_oct_side` of the point z = b / conj(a) = b a / |a|^2 of a single
    state (Python floats); -1 at once when |z|^2 = |b|^2 / |a|^2 puts it in
    the inscribed disk."""
    na = ar * ar + ai * ai
    if br * br + bi * bi < _OCT_ROW_INNER2 * na:
        return -1
    return _oct_side((br * ar - bi * ai) / na, (br * ai + bi * ar) / na)


def _oct_row_contains(x, y, r2):
    """`octagon_contains(complex(x, y))` for Python floats x, y with
    r2 = x * x + y * y: inside the inscribed disk, outside the unit disk, or
    by `_oct_side`, each with a relative margin of 1e-9, as the one-row
    substep decides; octagon_contains itself decides in the margin."""
    if r2 < _OCT_ROW_INNER2:
        return True
    if r2 > 1.0 + _OCT_ROW_MARGIN:
        return False
    side = _oct_side(x, y)
    if side is None or (side < 0 and r2 >= 1.0 - _OCT_ROW_MARGIN):
        return octagon_contains(complex(x, y))
    return side < 0


def _oct_row_reenter(ar, ai, br, bi, side):
    """A single state (Python floats) outside side `side`, after the pairing
    of that side and of each side `_oct_row_side` finds after it: the state
    and its last side, -1 (inside) or None (undecided).

    The pairing is `_oct_reenter`'s, rounded alike; its qi br - qr bi is
    numpy's (-qr) bi + qi br, since x - y is x + (-y) in floating point.
    """
    for _ in range(_OCT_MAX_PAIRINGS):
        if side is None or side < 0:
            return (ar, ai, br, bi), side
        c, qr, qi = _OCT_CROSSINGS[side, :, 0].tolist()
        ar, ai, br, bi = (c * ar + (qr * br + qi * bi), c * ai + (qi * br - qr * bi),
                          c * br + (qr * ar + qi * ai), c * bi + (qi * ar - qr * ai))
        side = _oct_row_side(ar, ai, br, bi)
    raise ResolutionError("octagon re-entry did not terminate")


def _oct_row_substep(ar, ai, br, bi, c, sh):
    """One substep of a single state (Python floats ar, ai, br, bi; c, sh),
    bit-identical to `_oct_reenter(_oct_boost(...))` on a one-row array: the
    same operations in the same order, and the same decisions (`_oct_flow`)."""
    ar, ai, br, bi = ar * c + br * sh, ai * c + bi * sh, br * c + ar * sh, bi * c + ai * sh
    side = _oct_row_side(ar, ai, br, bi)
    if side != -1:  # outside, or undecided
        (ar, ai, br, bi), side = _oct_row_reenter(ar, ai, br, bi, side)
    n2 = (ar * ar + ai * ai) - (br * br + bi * bi)
    if side is not None and 0.0 < n2 < math.inf:
        r = 1.0 / math.sqrt(n2)
        return ar * r, ai * r, br * r, bi * r
    # undecided, or no SU(1,1) state (numpy's NaN and warnings): the array code
    return tuple(_oct_reenter(np.array([[[ar, ai]], [[br, bi]]])).ravel().tolist())


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
    each sample by at most one substep from an anchor.  Times must be finite
    on every model (`ValueError`).
    """
    if not np.isfinite(t).all():
        raise ValueError("flow times must be finite")
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
    pole its components are NaN, as the chart has none there.  Times must be
    finite (`ValueError`), on a torus too.
    """
    w = np.asarray(w, dtype=float)
    if not np.isfinite(t):
        raise ValueError("flow times must be finite")
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


def holonomy(model, vertices):
    """Rotation angle of parallel transport around the closed geodesic polygon
    through the chart points `vertices` (m, n), in order: curvature * enclosed
    area modulo 2*pi, in (-pi, pi], signed by the orientation (Gauss-Bonnet);
    0.0 on tori.  Each edge leaves its vertex along a closed form (the tangent
    part of the chord on the sphere, the Mobius image (b - a) / (1 - conj(a) b)
    on the octagon) and flows by its length in group form, all edges at once
    (an SO(3) rotation; an SU(1,1) boost in the disk, never re-entering the
    octagon); the angle is minus the sum of the turning angles at the
    vertices.  `ValueError`: under 3 vertices, a vertex outside the chart or
    within 1e-13 of a sphere pole, an edge shorter than 1e-12, an antipodal
    sphere edge."""
    p = np.asarray(vertices, dtype=float)
    if len(p) < 3:
        raise ValueError("polygon needs at least 3 vertices")
    _check_chart(model, p)
    if model.kind == TORUS:
        d = (np.roll(p, -1, axis=0) - p) % np.asarray(model.periods)
        length = np.linalg.norm(np.minimum(d, model.periods - d), axis=-1)
    elif model.kind == SPHERE:
        if (np.sin(p[:, 0]) < 1e-13).any():
            raise ValueError("polygon vertex within 1e-13 of a pole")
        x = _lift(model, p, np.zeros_like(p))[0]
        c = (x * np.roll(x, -1, axis=0)).sum(axis=-1)
        chord = np.roll(x, -1, axis=0) - c[:, None] * x  # along the edge, of size sin(length)
        length = np.arctan2(np.linalg.norm(chord, axis=-1), c)
        if (length > np.pi - 1e-12).any():
            raise ValueError("antipodal polygon edge")
    else:
        z = p[:, 0] + 1j * p[:, 1]
        w = np.roll(z, -1)
        q = (w - z) / (1.0 - np.conj(z) * w)  # w after the isometry taking z to 0
        length = 2.0 * np.arctanh(np.abs(q))
    if (length < 1e-12).any():
        raise ValueError("degenerate polygon: repeated vertices")
    if model.kind == TORUS:
        return 0.0  # flat: parallel transport is the identity
    if model.kind == SPHERE:  # incoming directions flowed to each vertex, turned ambiently
        u = np.roll(_flow(model, (x, chord / np.sin(length)[:, None]), length)[1], 1, axis=0)
        turning = np.arctan2((x * np.cross(u, chord)).sum(axis=-1), (u * chord).sum(axis=-1))
    else:  # the same in the disk: boosts, without `_flow`'s re-entry into the octagon
        a, b, _ = _lift(model, p, np.column_stack([q.real, q.imag]))
        g = np.array([a[:, 0], b[:, 0]]).view(float).reshape(2, -1, 2)
        half = 0.5 * length[:, None]  # the boost of a unit-speed edge
        a = np.roll(_oct_boost(g, np.cosh(half), np.sinh(half))[0].view(complex)[:, 0], 1)
        turning = np.angle(q * np.conj(a) ** 2)  # the direction of (a, b) is a^2 / |a|^4
    return float(np.angle(np.exp(-1j * turning.sum())))


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


def _per_node_table(fn, *columns):
    """The table of a per-point callback: fn on each row of the `columns`
    (fn(a[i], b[i], ...)), as one array, rows first, in the values' own dtype
    (a product of real values then has no -0 imaginary parts).  The package's
    one loop over a callback that takes one point: observables in `flows`,
    symbols, coefficients and multipliers in `spectral`, sections in
    `limits`; the callers cast and reshape it."""
    return np.asarray(list(map(fn, *columns)))


def unit_bundle_nodes(model, resolution):
    """Product quadrature for the Liouville measure on the unit tangent bundle.

    Returns base points (N, n), metric-unit directions (N, n) and positive
    weights (N,), not normalized.  Base rules: the equispaced grid on tori;
    Gauss-Legendre in cos(theta) times 2 * resolution azimuths on the sphere;
    the midpoint grid of the octagon's bounding square, clipped to the
    fundamental domain and weighted by the conformal factor lambda^2.  Unit
    fibres: `resolution` equispaced angles on the circle (the trapezoid rule,
    exact below angular degree `resolution`), the sphere rule on T^3.  The
    resolution must be an integer >= 4 (`ValueError`).
    """
    if not isinstance(resolution, (int, np.integer)) or resolution < 4:
        raise ValueError(f"resolution must be an integer >= 4, got {resolution!r}")
    res = int(resolution)
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
