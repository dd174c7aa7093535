"""Clifford algebras, SO(n)/SO(n-1) representation tables, invariant projections.

A representation table is a group map, its Lie-algebra map and a seeded
spot-check sample of generic rotations.  Invariant projections are exact: the
groups are connected, so the commutant of a representation is the null space
of the commutators with its Lie-algebra image.  The Haar quadratures on SO(m),
m <= 4, are an independent oracle for the tests:

- SO(2): trapezoid on the rotation angle (64 nodes, exact below degree 64);
- SO(3): z-y-z Euler angles, trapezoid in alpha/gamma and Gauss-Legendre in
  cos(beta) (16^3 nodes);
- SO(4): product of two SU(2) Euler quadratures pushed through the quaternion
  double cover (exact for spin content up to (2, 2)).
"""

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np
import scipy.linalg

from . import ResolutionError

_PAULI1 = np.array([[0, 1], [1, 0]], dtype=complex)
_PAULI2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
_PAULI3 = np.array([[1, 0], [0, -1]], dtype=complex)

# Relative null-space cut: the other eigenvalues of the commutant's Gram
# matrix are Casimir values of nontrivial tensor representations, all >= 1.
_NULL_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class CliffordModel:
    """Hermitian gamma matrices generating Cl(R^n) on C^(2^floor(n/2))."""

    n: int
    gammas: tuple


@dataclass(frozen=True, eq=False)
class RepresentationTable:
    """A (possibly projective) unitary representation of SO(group_dim).

    `apply` maps a group element matrix to its representing unitary; `lie`
    maps an antisymmetric A to d rho(A), with expm(d rho(A)) = apply(expm(A))
    (up to sign if projective).  `sample` holds (generic rotation, unitary,
    weight) spot-check triples, weights summing to 1; it is not a quadrature.
    """

    group: str
    group_dim: int
    degree: int
    sample: tuple
    projective: bool
    apply: callable
    lie: callable


@dataclass(frozen=True, eq=False)
class IsotypicProjection:
    """Hermitian idempotent onto one invariant component."""

    projector: np.ndarray
    dimension: int
    label: int


# ---------------------------------------------------------------------------
# Clifford algebra


def build_clifford(n):
    """Gamma matrices by the standard tensor (Jordan-Wigner) construction.

    Entries lie in {0, +-1, +-i}; the anticommutation relations are exact.
    """
    if not 2 <= n <= 6:
        raise ValueError(f"Clifford construction supports 2 <= n <= 6, got {n}")
    k = (n + 1) // 2
    gammas = []
    for j in range(1, k + 1):
        pre = [np.eye(2, dtype=complex)] * (j - 1)
        post = [_PAULI3] * (n // 2 - j)
        if j <= n // 2:
            gammas.append(_kron_chain(pre + [_PAULI1] + post))
            gammas.append(_kron_chain(pre + [_PAULI2] + post))
    if n % 2 == 1:
        gammas.append(_kron_chain([_PAULI3] * (n // 2)))
    return CliffordModel(n=n, gammas=tuple(gammas))


def _kron_chain(mats):
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def clifford_mult(cl, xi):
    """Clifford multiplication sum_i xi_i gamma_i."""
    xi = np.asarray(xi)
    if xi.shape != (cl.n,):
        raise ValueError(f"expected a vector of length {cl.n}")
    dim = cl.gammas[0].shape[0]
    out = np.zeros((dim, dim), dtype=complex)
    for c, g in zip(xi, cl.gammas):
        out = out + c * g
    return out


def so_log(r):
    """Principal antisymmetric logarithm of a rotation matrix (real Schur).

    Angle-pi planes (paired -1 eigenvalues, which real Schur leaves as scalar
    blocks) are rotated by +pi; the sign choice is immaterial for conjugation.
    """
    r = np.asarray(r, dtype=float)
    t, q = scipy.linalg.schur(r, output="real")
    n = r.shape[0]
    log_t = np.zeros_like(t)
    flipped = []
    i = 0
    while i < n:
        if i + 1 < n and abs(t[i + 1, i]) > 1e-12:
            theta = np.arctan2(t[i + 1, i], t[i, i])
            log_t[i, i + 1] = -theta
            log_t[i + 1, i] = theta
            i += 2
        else:
            if t[i, i] < -0.5:
                flipped.append(i)
            i += 1
    for a, b in zip(flipped[0::2], flipped[1::2]):
        log_t[a, b] = -np.pi
        log_t[b, a] = np.pi
    return q @ log_t @ q.T


def spin_lift(cl, r):
    """Spin group element implementing the rotation r by conjugation.

    Satisfies lift(r) gamma_xi lift(r)^{-1} = gamma_{r xi}; the branch is the
    Clifford exponential of the principal bivector logarithm.
    """
    return scipy.linalg.expm(_bivector(cl, so_log(r)))


def _bivector(cl, a):
    """Spin Lie algebra element 1/4 sum_ij a_ij gamma_i gamma_j of an antisymmetric a."""
    g = np.asarray(cl.gammas)
    return 0.25 * np.einsum("ij,iab,jbc->ac", a, g, g)


# ---------------------------------------------------------------------------
# Haar quadratures


def _trapezoid_angles(count, period=2.0 * np.pi):
    return np.arange(count) * (period / count)


def haar_sample(m):
    """Haar quadrature sample [(element, weight)] on SO(m), m in {1, 2, 3, 4}.

    Exact for the trigonometric/Legendre coefficient degrees of the
    representations used in this package; the tests use it as an oracle.
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


def generic_rotations(m, count=24, seed=0):
    """Seeded generic sample of SO(m) with equal weights (not a Haar rule)."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        q, _ = np.linalg.qr(rng.normal(size=(m, m)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        out.append((q, 1.0 / count))
    return out


# ---------------------------------------------------------------------------
# Representation tables


def exterior_power_matrix(g, p):
    """p-th exterior power on the lexicographic wedge basis.

    Accepts a single matrix or a stacked array of matrices.
    """
    g = np.asarray(g)
    n = g.shape[-1]
    if not 0 <= p <= n:
        raise ValueError(f"p must lie in [0, {n}]")
    if p == 0:
        return np.ones(g.shape[:-2] + (1, 1), dtype=g.dtype)
    if p == 1:
        return g.copy()
    rows = np.array(list(itertools.combinations(range(n), p)))
    if p >= 3:
        # subnormal entries make LAPACK's LU divide by zero inside det
        g = np.where(np.abs(g) < np.finfo(float).tiny, 0, g)
    minors = g[..., rows[:, None, :, None], rows[None, :, None, :]]
    if p == 2:
        return (minors[..., 0, 0] * minors[..., 1, 1]
                - minors[..., 0, 1] * minors[..., 1, 0])
    return np.linalg.det(minors)


def exterior_rep(n, p):
    """SO(n) acting on the p-th exterior power of C^n.

    The Lie map is the derivation action: d rho(A) e_J sums A[r, j] e_J' over
    j in J and r not in J, where J' is J with j replaced by r, re-sorted with
    the sign of that permutation (A has zero diagonal).
    """
    basis = list(itertools.combinations(range(n), p))
    index = {s: i for i, s in enumerate(basis)}
    terms = [(index[tuple(sorted(set(s) - {j} | {r}))], col, r, j,
              (-1) ** sum(min(j, r) < x < max(j, r) for x in s))
             for col, s in enumerate(basis) for j in s for r in range(n) if r not in s]
    rows, cols, rs, js, signs = np.array(terms, dtype=int).reshape(-1, 5).T

    def apply(g):
        return exterior_power_matrix(g, p)

    def lie(a):
        out = np.zeros((len(basis), len(basis)), dtype=np.result_type(a, float))
        out[rows, cols] = signs * np.asarray(a)[rs, js]
        return out

    return _table(n, len(basis), False, apply, lie)


def _table(m, degree, projective, apply, lie):
    """An SO(m) table with the seeded generic spot-check sample."""
    sample = tuple((g, apply(g), w) for g, w in generic_rotations(m))
    return RepresentationTable(group=f"SO({m})", group_dim=m, degree=degree,
                               sample=sample, projective=projective,
                               apply=apply, lie=lie)


def embed_stabilizer(h):
    """Embed h in SO(n-1) as block-diag(1, h) in SO(n); accepts stacks."""
    h = np.asarray(h)
    m = h.shape[-1]
    out = np.zeros(h.shape[:-2] + (m + 1, m + 1), dtype=h.dtype)
    out[..., 0, 0] = 1.0
    out[..., 1:, 1:] = h
    return out


def restrict_to_stabilizer(rep):
    """Restrict an SO(n) table to the SO(n-1) subgroup fixing the first vector."""

    def apply(h):
        return rep.apply(embed_stabilizer(h))

    def lie(a):
        return rep.lie(np.pad(a, ((1, 0), (1, 0))))  # block-diag(0, a)

    return _table(rep.group_dim - 1, rep.degree, rep.projective, apply, lie)


def conjugation_rep(cl):
    """SO(n-1) acting on End(C^(2^floor(n/2))) by tau(g) x = rho(g)^{-1} x rho(g).

    The representing unitaries are the projective spin lifts rho(g); the
    conjugation action tau itself is phase-independent.
    """

    def apply(h):
        return spin_lift(cl, embed_stabilizer(h))

    def lie(a):
        return _bivector(cl, np.pad(a, ((1, 0), (1, 0))))

    return _table(cl.n - 1, cl.gammas[0].shape[0], True, apply, lie)


def conjugate_by(rep_matrix, x):
    """tau(g) x = rho(g)^{-1} x rho(g) for a representing unitary."""
    return rep_matrix.conj().T @ x @ rep_matrix


def table_residuals(rep, rng=None, pairs=12):
    """Diagnostics: weight sum defect, max non-unitarity, (projective) cocycle defect."""
    wsum = sum(w for _, _, w in rep.sample)
    eye = np.eye(rep.degree)
    unit = max(np.abs(u.conj().T @ u - eye).max() for _, u, _ in rep.sample)
    rng = rng or np.random.default_rng(0)
    idx = rng.integers(0, len(rep.sample), size=(pairs, 2))
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


# ---------------------------------------------------------------------------
# Invariant projections


def isotypic_projections(rep, seed=0, cluster_gap=1e-6, tol=1e-10):
    """Decompose C^degree into invariant subspaces of the representation.

    The commutant of the connected group is the null space of sum_{i<j}
    ad_ij^H ad_ij, ad_ij X = [d rho(E_ij), X].  A seeded generic Hermitian
    matrix, projected onto it (as its Haar average of conjugates would be), is
    split by eigenspaces into projections; commuting with every sampled
    unitary checks the Lie map against the group map.
    """
    m, k = rep.group_dim, rep.degree
    eye = np.eye(k)
    gram = np.zeros((k * k, k * k))
    for i, j in itertools.combinations(range(m), 2):
        e = np.zeros((m, m))
        e[i, j], e[j, i] = -1.0, 1.0
        g = rep.lie(e)
        ad = np.kron(g, eye) - np.kron(eye, g.T)
        gram = gram + ad.conj().T @ ad
    vals, vecs = np.linalg.eigh(gram)
    null = vecs[:, vals < _NULL_TOL * max(vals[-1], 1.0)]
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    x = x + x.conj().T
    xbar = (null @ (null.conj().T @ x.ravel())).reshape(k, k)
    xbar = 0.5 * (xbar + xbar.conj().T)
    vals, vecs = np.linalg.eigh(xbar)
    scale = max(np.abs(vals).max(), 1.0)
    clusters = [[0]]
    for i in range(1, k):
        if vals[i] - vals[clusters[-1][-1]] > cluster_gap * scale:
            clusters.append([i])
        else:
            clusters[-1].append(i)
    projs = []
    for label, idx in enumerate(clusters):
        v = vecs[:, idx]
        projs.append(IsotypicProjection(projector=v @ v.conj().T,
                                        dimension=len(idx), label=label))
    total = sum(p.projector for p in projs)
    if np.abs(total - eye).max() > tol:
        raise ResolutionError("projections do not resolve the identity")
    if commutation_residual(rep, projs) > tol:
        raise ResolutionError("projection fails to commute with the sampled "
                              "representation; its Lie map disagrees with its group map")
    return projs


def commutation_residual(rep, projs):
    """Max |[rho(g), p]| entry over all sampled g and all projections."""
    u = np.stack([m for _, m, _ in rep.sample])[:, None]
    stack = np.stack([p.projector for p in projs])
    return float(np.abs(u @ stack - stack @ u).max())


def pascal_split_check(ranks, n, p):
    """True if the component ranks can be grouped as C(n-1,p) + C(n-1,p-1)."""
    target = comb(n - 1, p)
    total = comb(n - 1, p) + (comb(n - 1, p - 1) if p >= 1 else 0)
    if sum(ranks) != total:
        return False
    if p == 0 or p == n:
        return True
    reachable = {0}
    for r in ranks:
        reachable |= {s + r for s in reachable}
    return target in reachable


@lru_cache(maxsize=16)
def _branching(n, p, seed):
    rep = restrict_to_stabilizer(exterior_rep(n, p))
    projs = isotypic_projections(rep, seed=seed)
    ranks = [pr.dimension for pr in projs]
    return {
        "n": n,
        "p": p,
        "components": [{"label": pr.label, "rank": pr.dimension} for pr in projs],
        "ranks": ranks,
        "pascal_split_ok": pascal_split_check(ranks, n, p),
        "commutant_residual": commutation_residual(rep, projs),
        "identity_residual": float(np.abs(sum(pr.projector for pr in projs)
                                          - np.eye(rep.degree)).max()),
    }, tuple(projs)


def branching_projections(n, p, seed=0):
    """Invariant projections of the p-th exterior power under the stabilizer."""
    return list(_branching(n, p, seed)[1])


def branching_report(n, p, seed=0):
    """Branching data for the p-th exterior power restricted to the stabilizer."""
    report, _ = _branching(n, p, seed)
    return dict(report)
