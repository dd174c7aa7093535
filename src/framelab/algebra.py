"""Clifford and exterior algebras, SO(n)/SO(n-1) representation tables,
invariant projections.

Clifford and exterior multiplication by a covector contract it with a stacked
table: the gamma matrices, or `wedge_table`, the one place that works out an
exterior-multiplication sign (`spectral`'s torus symbols read it too).

A representation table is a group map, its Lie-algebra map and a seeded
spot-check sample of generic rotations.  The group maps are array-first: a
rotation (m, m) is a stack of one, and a table's unitaries come from one
stacked call.  A spin lift takes one batched eigendecomposition for its
rotation logarithms, one product with the table of the products
gamma_i gamma_j for their bivectors, and one batched Hermitian `eigh` for
their exponentials, which the anti-Hermitian bivectors allow.  Every table
of SO(m) shares one cached, read-only sample stack, drawn by one batched
QR.  Invariant projections are exact: the groups are connected, so the
commutant of a representation is the null space of the commutators with its
Lie-algebra image, whose Gram matrix is one contraction over the stacked
images of the cached so(m) generators.
"""

import itertools
import operator
from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from . import ResolutionError

_PAULI1 = np.array([[0, 1], [1, 0]], dtype=complex)
_PAULI2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
_PAULI3 = np.array([[1, 0], [0, -1]], dtype=complex)

# Relative null-space cut: the other eigenvalues of the commutant's Gram
# matrix are Casimir values of nontrivial tensor representations, all >= 1.
_NULL_TOL = 1e-8
# Isotypic clusters: relative eigenvalue gap, and the accepted projection defect.
_CLUSTER_GAP = 1e-6
_RESOLVE_TOL = 1e-10
# Rotations in a table's spot-check sample.
_SAMPLE_SIZE = 24


@dataclass(frozen=True, eq=False)
class CliffordModel:
    """Hermitian gammas (n, dim, dim) generating Cl(R^n) on C^dim, dim = 2^floor(n/2)."""

    n: int
    gammas: np.ndarray


@dataclass(frozen=True, eq=False)
class RepresentationTable:
    """A (possibly projective) unitary representation of SO(group_dim).

    `apply` takes a matrix or a stack: it maps a group element (m, m), or
    each of a stack (..., m, m), to its representing unitary; `lie` maps an
    antisymmetric A to d rho(A), with expm(d rho(A)) = apply(expm(A)) (up to
    sign if projective).  `sample` holds (generic rotation, unitary, weight)
    spot-check triples, weights summing to 1; it is not a quadrature.
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
    return CliffordModel(n=n, gammas=np.array(gammas))


def _kron_chain(mats):
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def clifford_mult(cl, xi):
    """Clifford multiplication sum_i xi_i gamma_i of a covector (n,) or a
    stack of covectors (..., n): (..., d, d)."""
    xi = np.asarray(xi)
    if xi.shape[-1:] != (cl.n,):
        raise ValueError(f"expected vectors of length {cl.n}")
    dim = cl.gammas.shape[1]
    return (xi @ cl.gammas.reshape(cl.n, -1)).reshape(xi.shape[:-1] + (dim, dim))


# ---------------------------------------------------------------------------
# Exterior algebra


def permutation_sign(seq):
    """Sign of the permutation that sorts the distinct integers in `seq`."""
    return (-1) ** sum(a > b for i, a in enumerate(seq) for b in seq[i + 1:])


@lru_cache(maxsize=None)
def wedge_table(n, p):
    """eps_j = e_j ^ . : Lambda^p R^n -> Lambda^(p+1) R^n on the lexicographic
    wedge bases, stacked over j as a read-only 0/+-1 array (n, C(n, p+1),
    C(n, p)); the transposes are the interior multiplications.  p = -1 gives
    a table without columns, so Lambda^0 needs no special case."""
    cols = list(itertools.combinations(range(n), p)) if p >= 0 else []
    rows = {c: i for i, c in enumerate(itertools.combinations(range(n), p + 1))}
    eps = np.zeros((n, len(rows), len(cols)))
    for col, comp in enumerate(cols):
        for j in range(n):
            if j not in comp:
                eps[j, rows[tuple(sorted(comp + (j,)))], col] = permutation_sign((j,) + comp)
    eps.flags.writeable = False
    return eps


def exterior_mult(xi, p):
    """The matrix of xi ^ . = sum_j xi_j eps_j from p-forms to (p+1)-forms,
    for a covector (n,) or a stack of covectors (..., n)."""
    xi = np.asarray(xi)
    eps = wedge_table(xi.shape[-1], p)
    return (xi @ eps.reshape(len(eps), -1)).reshape(xi.shape[:-1] + eps.shape[1:])


def so_log(r):
    """Principal antisymmetric logarithm of a rotation matrix (n, n), or of
    each of a stack (..., n, n), from one batched eigendecomposition:
    log r = Re(V diag(i arg lambda) V^-1), antisymmetrized.

    Real -1 eigenvalues (exact angle-pi planes) are taken in pairs, with
    their eigenvectors orthonormalized in order: the pair (u, w) becomes the
    conjugate pair u -+ i w of angles +-pi, so the plane turns by +pi from u
    toward w; the sign choice is immaterial for conjugation.  A matrix with
    a non-finite entry, one that is not orthogonal (max |r^T r - I| above
    1e-10) and an unpaired -1 (a reflection) raise `ValueError`.
    """
    r = np.asarray(r, dtype=float)
    if not np.isfinite(r).all():
        raise ValueError("so_log needs rotations; an entry is not finite")
    if np.abs(r.swapaxes(-1, -2) @ r - np.eye(r.shape[-1])).max(initial=0.0) > 1e-10:
        raise ValueError("so_log needs rotations; r^T r differs from I")
    lam, v = np.linalg.eig(r.reshape(-1, *r.shape[-2:]))
    lam, v = lam.astype(complex), v.astype(complex)  # all-real spectra come back real
    theta = np.angle(lam)
    flipped = (lam.imag == 0) & (lam.real < 0)
    for i in np.flatnonzero(flipped.any(axis=-1)):
        cols = np.flatnonzero(flipped[i])
        if len(cols) % 2:
            raise ValueError("so_log needs rotations; a -1 eigenvalue is unpaired (det < 0)")
        q, tri = np.linalg.qr(v[i][:, cols].real)
        q = q * np.sign(np.diagonal(tri))
        u, w = q[:, 0::2] / np.sqrt(2), 1j * q[:, 1::2] / np.sqrt(2)
        v[i][:, cols[0::2]], v[i][:, cols[1::2]] = u - w, u + w
        theta[i, cols] = np.pi * (-1.0) ** np.arange(len(cols))
    log = ((v * (1j * theta)[:, None, :]) @ np.linalg.inv(v)).real
    return (0.5 * (log - log.swapaxes(-1, -2))).reshape(r.shape)


def spin_lift(cl, r):
    """Spin group elements implementing a rotation r (n, n), or each of a
    stack (..., n, n), by conjugation.

    Satisfies lift(r) gamma_xi lift(r)^{-1} = gamma_{r xi}; the branch is the
    Clifford exponential of the principal bivector logarithm B.  The gammas
    are Hermitian, so B is anti-Hermitian and iB = V diag(w) V^H is
    Hermitian: exp(B) = V diag(exp(-i w)) V^H.  The logarithms, bivectors
    and eigendecompositions take one stacked call each.
    """
    r = np.asarray(r)
    if r.shape[-2:] != (cl.n, cl.n):
        raise ValueError(f"spin_lift of Cl({cl.n}) expects rotations of shape "
                         f"(..., {cl.n}, {cl.n}), got {r.shape}")
    w, v = np.linalg.eigh(1j * _bivector(cl, so_log(r)))
    return (v * np.exp(-1j * w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def _bivector(cl, a):
    """Spin Lie algebra element 1/4 sum_ij a_ij gamma_i gamma_j of an
    antisymmetric a (n, n), or of each of a stack (..., n, n): one
    product with the table of the products gamma_i gamma_j."""
    a = np.asarray(a)
    n, dim = cl.gammas.shape[:2]
    pairs = (cl.gammas[:, None] @ cl.gammas).reshape(n * n, -1)
    return 0.25 * (a.reshape(-1, n * n) @ pairs).reshape(a.shape[:-2] + (dim, dim))


def generic_rotations(m, count=_SAMPLE_SIZE, seed=0):
    """Seeded generic sample of SO(m) with equal weights (not a Haar rule):
    a list of `count` (rotation, 1/count) pairs, for an integer seed.

    The draws are those of `count` successive (m, m) normal draws, each
    orthonormalized by QR with column 0 flipped where the determinant is
    negative; one batched QR does them all, cached per (m, count, seed).
    The rotations returned are the caller's copies.
    """
    return [(q, 1.0 / count) for q in _rotation_stack(m, count, operator.index(seed)).copy()]


@lru_cache(maxsize=32)
def _rotation_stack(m, count, seed):
    """The rotations of `generic_rotations` as one read-only (count, m, m)
    array, shared by every table of SO(m); the 32 latest keys are kept."""
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(count, m, m)))
    q[np.linalg.det(q) < 0, :, 0] *= -1
    q.flags.writeable = False
    return q


# ---------------------------------------------------------------------------
# Representation tables


def exterior_power_matrix(g, p):
    """p-th exterior power on the lexicographic wedge basis.

    Accepts a single matrix or a stacked array of matrices.  A p-minor is the
    Laplace expansion along its first row: products and sums only.
    """
    g = np.asarray(g)
    n = g.shape[-1]
    if not 0 <= p <= n:
        raise ValueError(f"p must lie in [0, {n}]")
    if p == 0:
        return np.ones(g.shape[:-2] + (1, 1), dtype=g.dtype)
    if p == 1:
        return g.copy()
    if p >= 3:  # a rotation within subnormal ulps of I maps to I exactly
        g = np.where(np.abs(g) < np.finfo(float).tiny, 0, g)
    rows, drop, signs = _laplace_indices(n, p)
    tails = exterior_power_matrix(g, p - 1)[..., drop[:, :1, None], drop[None, :, :]]
    return (g[..., rows[:, :1, None], rows[None, :, :]] * tails * signs).sum(axis=-1)


@lru_cache(maxsize=None)
def _laplace_indices(n, p):
    """p-subsets, (p-1)-subset indices of each without its k-th element, signs (-1)^k."""
    rows = np.array(list(itertools.combinations(range(n), p)))
    cof = wedge_table(n, p - 1)[rows, np.arange(len(rows))[:, None]]
    return rows, np.abs(cof).argmax(axis=-1), cof.sum(axis=-1)


def exterior_rep(n, p):
    """SO(n) acting on the p-th exterior power of C^n.

    The Lie map is the derivation action d rho(A) = sum_{r != j} A[r, j]
    eps_r eps_j^T (A has zero diagonal).  These eps_r eps_j^T are 0/+-1 with
    disjoint supports, so a call scatters signed entries of A.
    """
    rs, js, rows, cols, signs = _derivation_indices(n, p)

    def apply(g):
        return exterior_power_matrix(g, p)

    def lie(a):
        out = np.zeros((comb(n, p),) * 2, dtype=np.result_type(a, float))
        out[rows, cols] = signs * np.asarray(a)[rs, js]
        return out

    return _table(n, comb(n, p), False, apply, lie)


@lru_cache(maxsize=None)
def _derivation_indices(n, p):
    """Nonzero entries (r, j, row, col) and their signs of eps_r eps_j^T, r != j."""
    eps = wedge_table(n, p - 1)
    ops = np.einsum("rac,jbc->rjab", eps, eps)
    ops[np.arange(n), np.arange(n)] = 0.0
    where = np.nonzero(ops)
    out = (*where, ops[where])
    for a in out:
        a.flags.writeable = False
    return out


def _table(m, degree, projective, apply, lie):
    """An SO(m) table with the seeded generic spot-check sample, whose
    unitaries come from one `apply` on the stack of rotations."""
    gs = _rotation_stack(m, _SAMPLE_SIZE, 0)
    sample = tuple((g, u, 1.0 / _SAMPLE_SIZE) for g, u in zip(gs, apply(gs)))
    return RepresentationTable(group=f"SO({m})", group_dim=m, degree=degree,
                               sample=sample, projective=projective,
                               apply=apply, lie=lie)


def embed_stabilizer(h):
    """Embed h in SO(n-1) as block-diag(1, h) in SO(n); accepts stacks."""
    return _block_diag(1.0, h)


def _block_diag(corner, h):
    """block-diag(corner, h) for a matrix or a stack h (..., m, m)."""
    h = np.asarray(h)
    m = h.shape[-1]
    out = np.zeros(h.shape[:-2] + (m + 1, m + 1), dtype=h.dtype)
    out[..., 0, 0] = corner
    out[..., 1:, 1:] = h
    return out


def restrict_to_stabilizer(rep):
    """Restrict an SO(n) table to the SO(n-1) subgroup fixing the first vector."""

    def apply(h):
        return rep.apply(embed_stabilizer(h))

    def lie(a):
        return rep.lie(_block_diag(0.0, a))

    return _table(rep.group_dim - 1, rep.degree, rep.projective, apply, lie)


def conjugation_rep(cl):
    """SO(n-1) acting on End(C^(2^floor(n/2))) by tau(g) x = rho(g)^{-1} x rho(g).

    The representing unitaries are the projective spin lifts rho(g); the
    conjugation action tau itself is phase-independent.
    """

    def apply(h):
        return spin_lift(cl, embed_stabilizer(h))

    def lie(a):
        return _bivector(cl, _block_diag(0.0, a))

    return _table(cl.n - 1, cl.gammas[0].shape[0], True, apply, lie)


def conjugate_by(rep_matrix, x):
    """tau(g) x = rho(g)^{-1} x rho(g) for a representing unitary."""
    return rep_matrix.conj().T @ x @ rep_matrix


def table_residuals(rep):
    """Diagnostics: weight sum defect, max non-unitarity, (projective) cocycle
    defect over 12 seeded pairs of sample elements, whose products take one
    stacked `apply`."""
    wsum = sum(w for _, _, w in rep.sample)
    gs = np.stack([g for g, _, _ in rep.sample])
    us = np.stack([u for _, u, _ in rep.sample])
    unit = np.abs(us.conj().swapaxes(-1, -2) @ us - np.eye(rep.degree)).max()
    i, j = np.random.default_rng(0).integers(0, len(rep.sample), size=(12, 2)).T
    prods, uv = rep.apply(gs[i] @ gs[j]), us[i] @ us[j]
    phase = 1.0
    if rep.projective:
        phase = np.trace(prods.conj().swapaxes(-1, -2) @ uv, axis1=-2,
                         axis2=-1) / rep.degree
        phase = (phase / abs(phase))[:, None, None]
    coc = np.abs(uv - phase * prods).max()
    return {"weight_sum": float(abs(wsum - 1.0)), "unitarity": float(unit),
            "cocycle": float(coc)}


# ---------------------------------------------------------------------------
# Invariant projections


def isotypic_projections(rep, seed=0):
    """Decompose C^degree into invariant subspaces of the representation.

    The commutant of the connected group is the null space of sum_{i<j}
    ad_ij^H ad_ij, ad_ij X = [d rho(E_ij), X]: the Lie map is called once per
    generator E_ij, and the stacked ad_ij give this Gram matrix in one
    product.  A seeded generic Hermitian matrix, projected onto it (as its
    Haar average of conjugates would be), is split by eigenspaces into
    projections; commuting with every sampled unitary checks the Lie map
    against the group map.
    """
    return _projections(rep, seed)[0]


def _projections(rep, seed):
    """`isotypic_projections` and their `commutation_residual`."""
    m, k = rep.group_dim, rep.degree
    eye = np.eye(k)
    g = np.array([rep.lie(e) for e in _so_basis(m)]).reshape(-1, k, k)  # SO(1) has none
    # ad_ij = kron(g, 1) - kron(1, g^T) for every generator, stacked by rows
    ad = (np.einsum("pac,bd->pabcd", g, eye)
          - np.einsum("ac,pdb->pabcd", eye, g)).reshape(-1, k * k)
    gram = ad.conj().T @ ad
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
        if vals[i] - vals[clusters[-1][-1]] > _CLUSTER_GAP * scale:
            clusters.append([i])
        else:
            clusters[-1].append(i)
    projs = []
    for label, idx in enumerate(clusters):
        v = vecs[:, idx]
        projs.append(IsotypicProjection(projector=v @ v.conj().T,
                                        dimension=len(idx), label=label))
    total = sum(p.projector for p in projs)
    if np.abs(total - eye).max() > _RESOLVE_TOL:
        raise ResolutionError("projections do not resolve the identity")
    residual = commutation_residual(rep, projs)
    if residual > _RESOLVE_TOL:
        raise ResolutionError("projection fails to commute with the sampled "
                              "representation; its Lie map disagrees with its group map")
    return projs, residual


@lru_cache(maxsize=None)
def _so_basis(m):
    """The generators E_ij = e_j e_i^T - e_i e_j^T, i < j, of so(m) as one
    read-only (m(m-1)/2, m, m) stack."""
    i, j = np.triu_indices(m, 1)
    basis = np.zeros((len(i), m, m))
    pair = np.arange(len(i))
    basis[pair, i, j], basis[pair, j, i] = -1.0, 1.0
    basis.flags.writeable = False
    return basis


def commutation_residual(rep, projs):
    """Max |[rho(g), p]| entry over all sampled g and all projections; the
    products rho(g) p and p rho(g) of every pair are two 2-D products."""
    u = np.stack([m for _, m, _ in rep.sample])
    stack = np.stack([p.projector for p in projs])
    s, k = u.shape[:2]
    up = (u.reshape(-1, k) @ stack.swapaxes(0, 1).reshape(k, -1)).reshape(s, k, -1, k)
    pu = (stack.reshape(-1, k) @ u.swapaxes(0, 1).reshape(k, -1)).reshape(-1, k, s, k)
    return float(np.abs(up - pu.transpose(2, 1, 0, 3)).max())


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


def _branching(n, p, seed):
    rep = restrict_to_stabilizer(exterior_rep(n, p))
    projs, residual = _projections(rep, seed)
    ranks = [pr.dimension for pr in projs]
    return {
        "n": n,
        "p": p,
        "components": [{"label": pr.label, "rank": pr.dimension} for pr in projs],
        "ranks": ranks,
        "pascal_split_ok": pascal_split_check(ranks, n, p),
        "commutant_residual": residual,
        "identity_residual": float(np.abs(sum(pr.projector for pr in projs)
                                          - np.eye(rep.degree)).max()),
    }, projs


def branching_projections(n, p, seed=0):
    """Invariant projections of the p-th exterior power under the stabilizer."""
    return _branching(n, p, seed)[1]


def branching_report(n, p, seed=0):
    """Branching data for the p-th exterior power restricted to the stabilizer."""
    return _branching(n, p, seed)[0]
