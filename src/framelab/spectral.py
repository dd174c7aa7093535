"""Truncated exact spectral models of Laplace- and Dirac-type operators.

Bases are exact eigenbases (Fourier modes, spherical harmonics, spinor
blocks), so the structural identities d^2 = 0, Delta = d delta + delta d,
P + Q + H = 1, sign(D)^2 = 1 - ker hold to rounding rather than to a
discretization error.  Operators are stored as sparse matrices over the
canonical basis ordering (ascending eigenvalue, then lexicographic label).

Assembly is array-first.  Every basis keeps the integer mode and fiber
component of each canonical position and the canonical position of each
element in enumeration order, so d and the Hodge star come from numpy over
the whole basis and `algebra`'s exterior table.  The co-exact and exact
Hodge projections, the helicity operator, the Dirac operator and its sign and
halves are each a torus `multiplier`: the block of mode k is |kappa_k|^order
times the symbol at kappa_k / |kappa_k|, from one batched symbol call.
Sphere multipliers integrate with `geometry._sphere_rule`: an FFT in phi at
each polar node, then one real matmul over the polar nodes per order m, over
the columns of live phi-bands only.  A band is live when some ring carries it
above 8 eps of the largest weight-free ring coefficient; the dropped part of
the multiplier is at most n_phi times that in sup norm, which bounds the
change in operator norm; a full-band multiplier stores every entry.
User callbacks are still called one point at a time: a coefficient function
in `quantize` once per label, and the `fn` of `sphere_multiplication` once
per quadrature node.
"""

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from . import CapabilityError
from . import algebra as alg
from . import geometry as geo

_KERNEL_RELATIVE = 1e-10
# Largest smaller side for which `spectral_norm` takes the dense SVD of a
# sparse matrix (the two methods cost about the same at 100 x 100).
_DENSE_SIDE = 100
# ARPACK iterations `spectral_norm` waits for before it takes the dense SVD: the
# operator shells of the lab converge within about 20, and a stalled one
# would otherwise spend seconds before the same fallback.
_ARPACK_MAXITER = 100


@dataclass(frozen=True, eq=False)
class SpectralModel:
    """Truncated eigenbasis of a bundle Laplacian over a model manifold.

    `lam` holds the geometric Laplacian eigenvalue of each basis element;
    the operator built on top may add a constant potential, in its matrix.
    Ordering is canonical: ascending eigenvalue, then lexicographic label.

    Label arrays, in canonical order: `modes` (dim, n) holds the Fourier mode
    k of each element on a torus and its (l, m) on the sphere; `components`
    the fiber index, i.e. the form component (position in
    `itertools.combinations(range(n), p)`), the spinor index, or the sphere
    family (position in `_SPHERE_FAMILIES`).  `position` maps the enumeration
    order (modes in `itertools.product` order on a torus, (l, m) ascending on
    the sphere, then components) to the canonical order.
    """

    model: geo.ManifoldModel
    bundle: str
    form_degree: int | None
    cutoff: int
    labels: tuple
    lam: np.ndarray
    fiber_dim: int
    index: dict = field(repr=False, default=None)
    modes: np.ndarray = field(repr=False, default=None)
    components: np.ndarray = field(repr=False, default=None)
    position: np.ndarray = field(repr=False, default=None)
    _bounds: dict = field(init=False, repr=False, default_factory=dict)

    @property
    def dim(self):
        return len(self.labels)

    @property
    def freq(self):
        return np.sqrt(self.lam)

    def degeneracy_blocks(self, tol=1e-9):
        """Index ranges of equal-eigenvalue clusters, in canonical order: a
        cluster holds the indices i after its first index f with
        lam[i] - lam[f] <= tol (1 + lam[i])."""
        bounds = self._block_bounds(tol)
        return [list(range(a, b)) for a, b in zip(bounds, bounds[1:])]

    def _block_bounds(self, tol=1e-9):
        """First index of each degeneracy block, then dim; computed once per
        tol.  A block can only start where lam changes, so the greedy scan
        runs over distinct eigenvalues, not over basis elements."""
        if tol not in self._bounds:
            lam = self.lam.tolist()
            bounds = [0] if lam else []
            for i in (np.flatnonzero(np.diff(self.lam)) + 1).tolist():
                if lam[i] - lam[bounds[-1]] > tol * (1.0 + lam[i]):
                    bounds.append(i)
            self._bounds[tol] = tuple(bounds) + (self.dim,)
        return self._bounds[tol]


@dataclass(frozen=True, eq=False)
class SymbolField:
    """Principal symbol: map (point, unit covector) -> m x m matrix.

    A `batched` evaluator takes points and covectors (..., n) and returns
    (..., m, m), one point being a batch of one; `table` calls any other
    once per node.
    """

    evaluator: callable
    fiber_dim: int = 1
    batched: bool = False

    def __call__(self, point, xi):
        """The symbol at one point: `table` on a batch of one, (m, m)."""
        return self.table(np.asarray(point), np.asarray(xi))

    def table(self, points, dirs):
        """The symbol at the nodes (points, covectors (..., n)): (..., m, m)
        complex, one evaluator call when batched."""
        m = self.fiber_dim
        shape = dirs.shape[:-1] + (m, m)
        if self.batched:
            return np.asarray(self.evaluator(points, dirs), dtype=complex).reshape(shape)
        n = dirs.shape[-1]
        return geo._per_node_table(self.evaluator, shape, points.reshape(-1, n),
                                   dirs.reshape(-1, n))


@dataclass(eq=False)
class OperatorMatrix:
    """Finite operator over a spectral basis, with optional symbol data."""

    matrix: scipy.sparse.spmatrix
    order: int
    domain: SpectralModel
    codomain: SpectralModel = None
    symbol: SymbolField = None

    def __post_init__(self):
        if self.codomain is None:
            self.codomain = self.domain

    def dense(self):
        return self.matrix.toarray()

    def adjoint_defect(self):
        return frob(self.matrix - self.matrix.conj().T)


def frob(m):
    """Frobenius norm of a sparse or dense matrix."""
    if scipy.sparse.issparse(m):
        return float(np.sqrt(np.sum(np.abs(m.data) ** 2))) if m.nnz else 0.0
    return float(np.linalg.norm(np.asarray(m)))


def spectral_norm(m):
    """Operator 2-norm.

    A sparse matrix whose smaller side exceeds `_DENSE_SIDE` gets its largest
    singular value from ARPACK (`svds`), which needs only matrix-vector
    products; anything smaller, and every dense matrix, takes the dense SVD,
    which is the faster of the two below that size.  A top singular value
    that ARPACK does not resolve within `_ARPACK_MAXITER` iterations (a tight
    cluster can stall it) also takes the dense SVD.
    """
    if scipy.sparse.issparse(m):
        if min(m.shape) == 0 or m.nnz == 0:
            return 0.0
        if min(m.shape) <= _DENSE_SIDE:
            return float(np.linalg.norm(m.toarray(), 2))
        # a generic start: a structured one such as all-ones can lie in the
        # kernel (ARPACK then stops on a zero starting vector) or in an
        # invariant subspace that misses the top singular vector
        v0 = np.random.default_rng(0).standard_normal(min(m.shape))
        try:
            s = scipy.sparse.linalg.svds(m.tocsc().astype(complex), k=1, v0=v0,
                                         return_singular_vectors=False,
                                         maxiter=_ARPACK_MAXITER)
        except scipy.sparse.linalg.ArpackNoConvergence:
            return float(np.linalg.norm(m.toarray(), 2))
        return float(s[0])
    if min(np.asarray(m).shape) == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def _same_basis(a, b):
    """Whether two spectral models carry the same labels; identity first,
    since `basis_for` hands out one cached object per basis and comparing
    label tuples is O(dim)."""
    return a is b or a.labels == b.labels


def compose(a, b):
    """Operator product a @ b with basis-compatibility checking."""
    if not _same_basis(a.domain, b.codomain):
        raise ValueError("operator factors act on different truncated bases")
    return OperatorMatrix(matrix=(a.matrix @ b.matrix).tocsr(),
                          order=a.order + b.order,
                          domain=b.domain, codomain=a.codomain)


def shell_indices(sm, lo, hi):
    """Basis indices with frequency sqrt(lam) in [lo, hi)."""
    f = sm.freq
    return np.nonzero((f >= lo) & (f < hi))[0]


def mode_block(op, mode):
    """Dense fiber block of a mode-diagonal operator at the given mode label."""
    sm = op.domain
    rows = np.flatnonzero((sm.modes == np.asarray(mode)).all(axis=1)).tolist()
    return op.matrix[np.ix_(rows, rows)].toarray(), rows


# ---------------------------------------------------------------------------
# Bases

def _dual(model, k):
    """Dual covector(s) 2 pi k / period of torus mode(s) k, shape (..., n)."""
    return 2.0 * np.pi * np.asarray(k, dtype=float) / np.asarray(model.periods)


def _sorted_model(model, bundle, p, K, labels, lam, fiber_dim, modes, components,
                  keys):
    """Canonical model from elements in enumeration order.

    `keys` are integer arrays that order the labels lexicographically, most
    significant first; with `lam` in front they give the canonical order.
    """
    order = np.lexsort(keys[::-1] + (lam,))
    position = np.empty(order.size, dtype=int)
    position[order] = np.arange(order.size)
    labels = tuple(labels[i] for i in order)
    return SpectralModel(model=model, bundle=bundle, form_degree=p, cutoff=K,
                         labels=labels, lam=lam[order], fiber_dim=fiber_dim,
                         index={lab: i for i, lab in enumerate(labels)},
                         modes=modes[order], components=components[order],
                         position=position)


def _locate(sm, modes, components):
    """Canonical positions of (mode, component) pairs in `sm`; -1 for a mode
    outside the truncation."""
    modes = np.asarray(modes)
    K = sm.cutoff
    if sm.model.kind == geo.TORUS:
        inside = (np.abs(modes) <= K).all(axis=-1)
        strides = (2 * K + 1) ** np.arange(modes.shape[-1] - 1, -1, -1)
        mode_id = (modes + K) @ strides
    else:
        l, m = modes[..., 0], modes[..., 1]
        _, l0 = _SPHERE_FAMILIES[sm.form_degree or 0]
        inside = (l >= l0) & (l <= K) & (np.abs(m) <= l)
        mode_id = l * l + l + m - l0 * l0
    enum = np.where(inside, mode_id * sm.fiber_dim + components, 0)
    return np.where(inside, sm.position[enum], -1)


def basis_for(model, bundle, K, p=None):
    """Truncated basis for (model, bundle); bundle in
    {"functions", "forms", "spinors"}.  One cached object per (model, bundle,
    K, p): models compare by value, so equal models share it."""
    # positional, so that calls with p= and with a positional p share one entry
    return _cached_basis(model, bundle, K, p)


@lru_cache(maxsize=None)
def _cached_basis(model, bundle, K, p):
    if model.kind == geo.TORUS:
        return _torus_basis(model, bundle, p, K)
    if model.kind == geo.SPHERE:
        return _sphere_basis(model, bundle, p, K)
    raise CapabilityError("spectral models exist for tori and the sphere only")


def _torus_basis(model, bundle, p, K):
    n = model.dim
    if bundle == "functions":
        tag, comps = "f", [None]
    elif bundle == "forms":
        tag, comps = "w", list(itertools.combinations(range(n), p))
    elif bundle == "spinors":
        tag, comps = "s", list(range(2 ** (n // 2)))
    else:
        raise CapabilityError(f"unknown bundle {bundle!r}")
    # modes in itertools.product order, the enumeration order of `position`
    grid = np.indices((2 * K + 1,) * n).reshape(n, -1).T - K
    mode_tuples = list(map(tuple, grid.tolist()))
    if tag == "f":
        labels = [("f", k) for k in mode_tuples]
    else:
        labels = [(tag, k, c) for k in mode_tuples for c in comps]
    kappa = _dual(model, grid)
    # the stacked matmul runs the same dot kernel as kappa @ kappa per mode, so
    # the eigenvalues, and with them the canonical order, are bit-identical
    lam = (kappa[:, None, :] @ kappa[:, :, None])[:, 0, 0]
    nc = len(comps)
    modes = np.repeat(grid, nc, axis=0)
    components = np.tile(np.arange(nc), len(grid))
    return _sorted_model(model, bundle, p if tag == "w" else None, K, labels,
                         np.repeat(lam, nc), nc, modes, components,
                         tuple(modes.T) + (components,))


# Sphere bases by form degree (functions count as degree 0): the families in
# enumeration order and the lowest l.
_SPHERE_FAMILIES = {0: (("f",), 0), 1: (("ex", "co"), 1), 2: (("v",), 0)}


def _sphere_basis(model, bundle, p, K):
    if bundle == "functions":
        degree = 0
    elif bundle == "forms" and p in _SPHERE_FAMILIES:
        degree = p
    else:
        raise CapabilityError("sphere bundles: functions, p-forms for p in {0,1,2}")
    fams, l0 = _SPHERE_FAMILIES[degree]
    lms = [(l, m) for l in range(l0, K + 1) for m in range(-l, l + 1)]
    labels = [(fam, lm) for lm in lms for fam in fams]
    nf = len(fams)
    modes = np.repeat(np.array(lms, dtype=int).reshape(-1, 2), nf, axis=0)
    components = np.tile(np.arange(nf), len(lms))
    l = modes[:, 0]
    fam_rank = np.argsort(np.argsort(fams))[components]
    return _sorted_model(model, bundle, p, K, labels, (l * (l + 1)).astype(float), nf,
                         modes, components, (fam_rank, l, modes[:, 1]))


# ---------------------------------------------------------------------------
# Laplacians


def build_laplacian(model, bundle, K, potential=0.0, p=None):
    """Laplace-type operator Delta + potential on the chosen bundle, for a
    constant potential >= 0; a mass m is the potential m^2.

    Returns the cached `basis_for` basis and the operator, diagonal in it,
    with the principal symbol g(xi, xi) * id (identity on the unit bundle).
    """
    if potential < 0:
        raise ValueError("need potential >= 0 for square roots")
    sm = basis_for(model, bundle, K, p)
    mat = scipy.sparse.diags(sm.lam + potential).tocsr().astype(complex)
    eye = np.eye(sm.fiber_dim, dtype=complex)
    sym = SymbolField(lambda x, xi: np.broadcast_to(eye, np.shape(xi)[:-1] + eye.shape).copy(),
                      sm.fiber_dim, batched=True)
    return sm, OperatorMatrix(matrix=mat, order=2, domain=sm, symbol=sym)


# ---------------------------------------------------------------------------
# Exterior calculus


def _sparse(rows, cols, vals, shape):
    return scipy.sparse.csr_matrix((vals, (rows, cols)), shape=shape, dtype=complex)


def _frozen(a):
    """Read-only array: the cached tables are shared by every caller."""
    a.flags.writeable = False
    return a


def exterior_d(model, p, K):
    """Exterior derivative from p-forms to (p+1)-forms on the truncated basis."""
    dom = basis_for(model, "forms", K, p)
    n = model.dim
    if p >= n:
        cod = _empty_model(model, p + 1, K)
        mat = scipy.sparse.csr_matrix((0, dom.dim), dtype=complex)
        return OperatorMatrix(matrix=mat, order=1, domain=dom, codomain=cod)
    cod = basis_for(model, "forms", K, p + 1)
    if model.kind == geo.TORUS:
        # d(e^{ik.x} dx_I) = sum_j i kappa_j dx_j ^ dx_I: the mode block is i kappa ^ .
        # each fiber component has n - p pairs (j, target), ascending in j
        eps = alg.wedge_table(n, p)
        comp, j, target = np.nonzero(eps.transpose(2, 0, 1))
        j, target, sign = (np.take(a.reshape(-1, n - p), dom.components, axis=0).ravel()
                           for a in (j, target, eps[j, target, comp]))
        cols = np.repeat(np.arange(dom.dim), n - p)
        rows = _locate(cod, np.repeat(dom.modes, n - p, axis=0), target)
        vals = 1j * _dual(model, dom.modes)[cols, j] * sign
    else:
        l = dom.modes[:, 0]
        if p == 0:      # d Y_lm = sqrt(l (l + 1)) ex_lm for l >= 1
            cols, fam, sign = np.flatnonzero(l >= 1), "ex", 1.0
        else:           # d co_lm = -sqrt(l (l + 1)) v_lm; d ex_lm = 0
            co = _SPHERE_FAMILIES[1][0].index("co")
            cols, fam, sign = np.flatnonzero(dom.components == co), "v", -1.0
        rows = _locate(cod, dom.modes[cols], _SPHERE_FAMILIES[p + 1][0].index(fam))
        vals = sign * np.sqrt(l[cols] * (l[cols] + 1.0))
    return OperatorMatrix(matrix=_sparse(rows, cols, vals, (cod.dim, dom.dim)), order=1,
                          domain=dom, codomain=cod)


def _empty_model(model, p, K):
    return SpectralModel(model=model, bundle="forms", form_degree=p, cutoff=K,
                         labels=(), lam=np.zeros(0), fiber_dim=0, index={},
                         modes=np.zeros((0, model.dim), dtype=int),
                         components=np.zeros(0, dtype=int),
                         position=np.zeros(0, dtype=int))


def codifferential(model, p, K):
    """Codifferential from p-forms to (p-1)-forms: the conjugate transpose of
    d on (p-1)-forms, delta = d^H, since the canonical basis is orthonormal."""
    if p == 0:
        dom = basis_for(model, "forms", K, 0)
        mat = scipy.sparse.csr_matrix((0, dom.dim), dtype=complex)
        return OperatorMatrix(matrix=mat, order=1, domain=dom,
                              codomain=_empty_model(model, -1, K))
    d = exterior_d(model, p - 1, K)
    return OperatorMatrix(matrix=d.matrix.conj().T.tocsr(), order=1,
                          domain=d.codomain, codomain=d.domain)


_SPHERE_STAR = {"f": ("v", 1.0), "v": ("f", 1.0), "ex": ("co", 1.0), "co": ("ex", -1.0)}


@lru_cache(maxsize=None)
def _star_table(kind, n, p):
    """Hodge star of each p-form fiber component: the index of its image
    component among the (n-p)-forms and the sign."""
    if kind == geo.TORUS:
        comps = list(itertools.combinations(range(n), p))
        images = {c: i for i, c in enumerate(itertools.combinations(range(n), n - p))}
        pairs = []
        for comp in comps:
            comp_c = tuple(i for i in range(n) if i not in comp)
            pairs.append((images[comp_c], float(alg.permutation_sign(comp + comp_c))))
    else:
        images = _SPHERE_FAMILIES[n - p][0]
        pairs = [(images.index(_SPHERE_STAR[fam][0]), _SPHERE_STAR[fam][1])
                 for fam in _SPHERE_FAMILIES[p][0]]
    target, sign = zip(*pairs)
    return _frozen(np.array(target)), _frozen(np.array(sign))


def hodge_star(model, p, K):
    """Hodge star from p-forms to (n-p)-forms on the truncated basis."""
    dom = basis_for(model, "forms", K, p)
    n = model.dim
    cod = basis_for(model, "forms", K, n - p)
    target, sign = _star_table(model.kind, n, p)
    rows = _locate(cod, dom.modes, target[dom.components])
    mat = _sparse(rows, np.arange(dom.dim), sign[dom.components], (cod.dim, dom.dim))
    return OperatorMatrix(matrix=mat, order=0, domain=dom, codomain=cod)


def _pinv_diag(vals):
    """1 / vals, and 0 on the kernel (relative to max(vals.max(), 1))."""
    vals = np.asarray(vals, dtype=float)
    scale = vals.max() if vals.size else 1.0
    out = np.zeros_like(vals)
    keep = vals > _KERNEL_RELATIVE * max(scale, 1.0)
    out[keep] = vals[keep] ** -1.0
    return out


def hodge_projections(model, p, K):
    """Spectral projections (P, Q, H) onto co-exact, exact, harmonic p-forms.

    On a torus P and Q are the order-0 `multiplier`s of iota_xi xi ^ =
    E_p^H E_p and xi ^ iota_xi = E_(p-1) E_(p-1)^H, E_q = xi ^ . on q-forms
    (`algebra.exterior_mult`), and H is the identity on the zero mode, each
    exact per mode.  On the sphere P = pinv(Delta) delta d, Q = pinv(Delta)
    d delta and H = 1 - P - Q, with each d assembled once and delta = d^H
    (the canonical basis is orthonormal); sphere projections carry no symbol.
    """
    sm = basis_for(model, "forms", K, p)
    mk = lambda mat, sym: OperatorMatrix(matrix=mat, order=0, domain=sm, symbol=sym)
    if model.kind == geo.TORUS:
        def coexact(x, xi):  # the projection onto iota_xi Lambda^(p+1)
            e = alg.exterior_mult(xi, p)
            return e.swapaxes(-1, -2) @ e

        def exact(x, xi):  # the projection onto xi ^ Lambda^(p-1)
            e = alg.exterior_mult(xi, p - 1)
            return e @ e.swapaxes(-1, -2)

        zero = np.flatnonzero(~sm.modes.any(axis=1))
        hmat = _sparse(zero, zero, np.ones(zero.size), (sm.dim, sm.dim))
        return (multiplier(sm, SymbolField(coexact, sm.fiber_dim, batched=True), 0),
                multiplier(sm, SymbolField(exact, sm.fiber_dim, batched=True), 0),
                mk(hmat, None))
    dinv_m = scipy.sparse.diags(_pinv_diag(sm.lam))
    pmat = qmat = scipy.sparse.csr_matrix((sm.dim, sm.dim), dtype=complex)
    if p < model.dim:
        d = exterior_d(model, p, K).matrix
        pmat = (dinv_m @ (d.conj().T.tocsr() @ d)).tocsr()
    if p > 0:
        d = exterior_d(model, p - 1, K).matrix
        qmat = (dinv_m @ (d @ d.conj().T.tocsr())).tocsr()
    hmat = (scipy.sparse.identity(sm.dim, dtype=complex) - pmat - qmat).tocsr()
    return mk(pmat, None), mk(qmat, None), mk(hmat, None)


# ---------------------------------------------------------------------------
# Fourier multipliers on tori: Hodge, helicity, Dirac, sign and halves


@lru_cache(maxsize=None)
def _multiplier_pattern(sm):
    """Unit covectors xi_k and eigenvalues |kappa_k|^2 of the modes k != 0 of
    a torus basis, a base point per mode, and the CSR indices and indptr of
    their dense fiber blocks.  Canonical order sorts by eigenvalue, mode, then
    component, so the zero mode comes first and each mode fills a run."""
    if sm.model.kind != geo.TORUS:
        raise CapabilityError("Fourier multipliers live on torus bases")
    m, dim = sm.fiber_dim, sm.dim
    xi = _unit_covectors(sm)[m::m]
    indices = np.repeat(np.arange(m, dim, dtype=np.int32).reshape(-1, m), m, axis=0)
    indptr = np.maximum(np.arange(dim + 1, dtype=np.int32) - m, 0) * m
    return tuple(map(_frozen, (xi, np.zeros_like(xi), sm.lam[m::m], indices.ravel(), indptr)))


def multiplier(sm, symbol, order):
    """The operator |kappa_k|^order symbol(kappa_k / |kappa_k|) on each mode
    k != 0 of a torus basis, with the zero mode in its kernel.

    `symbol` is a `SymbolField` of the basis' fiber rank that does not depend
    on the point; one table call covers every mode, and exact zeros are not
    stored.  Other bases raise `CapabilityError`, other ranks `ValueError`."""
    xi, origin = _multiplier_pattern(sm)[:2]
    if symbol.fiber_dim != sm.fiber_dim:
        raise ValueError("symbol fiber rank does not match the basis")
    return _place(sm, symbol.table(origin, xi), order, symbol)


def _place(sm, blocks, order, symbol):
    """`multiplier` from the table `blocks` of its symbol over the modes."""
    lam, indices, indptr = _multiplier_pattern(sm)[2:]
    if order:
        blocks = blocks * (lam ** (order / 2))[:, None, None]
    # copied: pruning in place must reach neither the shared pattern nor blocks
    mat = scipy.sparse.csr_matrix((blocks.ravel(), indices, indptr), (sm.dim,) * 2, copy=True)
    mat.eliminate_zeros()
    return OperatorMatrix(matrix=mat, order=order, domain=sm, symbol=symbol)


@lru_cache(maxsize=None)
def _helicity_table():
    """i star eps_j on the 1-forms of T^3, stacked over j and flattened."""
    target, sign = _star_table(geo.TORUS, 3, 2)
    table = np.empty((3, 3, 3), dtype=complex)
    table[:, target] = 1j * sign[:, None] * alg.wedge_table(3, 1)
    return _frozen(table.reshape(3, 9))


def helicity_symbol(point, xi):
    """Polarization symbol on 1-forms over T^3: i star(xi ^ .), i times the
    cross product with xi, for covectors (..., 3): (..., 3, 3)."""
    xi = np.asarray(xi, dtype=float)
    return (xi @ _helicity_table()).reshape(xi.shape[:-1] + (3, 3))


def helicity_R(model, K):
    """Polarization operator on 1-forms over T^3, the order-0 `multiplier` of
    `helicity_symbol`: Delta^{-1/2} star d, whose square is the co-exact
    projection and whose eigenvalues on co-exact shells are exactly +-1."""
    if model.kind != geo.TORUS or model.dim != 3:
        raise CapabilityError("the polarization operator lives on T^3, p = 1")
    sym = SymbolField(evaluator=helicity_symbol, fiber_dim=3, batched=True)
    return multiplier(basis_for(model, "forms", K, 1), sym, 0)


def build_dirac(model, K):
    """Flat Dirac operator on the trivial spin bundle of T^2 or T^3, the
    order-1 `multiplier` of Clifford multiplication (gamma . kappa per mode),
    whose square is the spinor Laplacian."""
    if model.kind != geo.TORUS or model.dim not in (2, 3):
        raise CapabilityError("Dirac models exist on flat tori of dim 2, 3")
    sm = basis_for(model, "spinors", K)
    cl = alg.build_clifford(model.dim)
    sym = SymbolField(evaluator=lambda x, xi: alg.clifford_mult(cl, xi),
                      fiber_dim=sm.fiber_dim, batched=True)
    return sm, multiplier(sm, sym, 1)


def sign_and_halves(d_op):
    """sign(D) and the halves (1 +- sign(D))/2 of D = multiplier(sm, s, 1):
    the order-0 multipliers of s and (1 +- s)/2, all from one table of D's
    symbol s, not its matrix, with s(xi)^2 = 1 (Clifford multiplication).
    They vanish on the zero mode, so P+ + P- = 1 - kernel projection.  A D
    without a symbol raises `ValueError`."""
    sym, sm = d_op.symbol, d_op.domain
    if sym is None:
        raise ValueError("sign_and_halves needs the symbol of D")
    xi, origin = _multiplier_pattern(sm)[:2]
    s, m, eye = sym.table(origin, xi), sym.fiber_dim, np.eye(sym.fiber_dim)
    # batched halves on sym's table, whatever its convention
    plus_sym = SymbolField(lambda x, xi: 0.5 * (eye + sym.table(x, xi)), m, batched=True)
    minus_sym = SymbolField(lambda x, xi: 0.5 * (eye - sym.table(x, xi)), m, batched=True)
    return (_place(sm, s, 0, sym), _place(sm, 0.5 * (eye + s), 0, plus_sym),
            _place(sm, 0.5 * (eye - s), 0, minus_sym))


# ---------------------------------------------------------------------------
# Quantization on tori


@dataclass(frozen=True, eq=False)
class TrigSymbol:
    """Admissible order-0 torus symbol: finite trigonometric polynomial in x
    with direction-dependent coefficients.

    `terms` maps integer frequency tuples nu to coefficient functions of the
    unit covector.  They are user callbacks on one covector, so `field` is a
    per-point symbol.
    """

    terms: dict
    dim: int

    def field(self):
        def ev(x, xi):
            x = np.asarray(x, float)
            return sum(c(np.asarray(xi, float)) * np.exp(1j * (np.array(nu) @ x))
                       for nu, c in self.terms.items())

        return SymbolField(evaluator=ev, fiber_dim=1)

    def pushed(self, t):
        """Composition with the reversed geodesic flow: x -> x - t xi."""
        return TrigSymbol(terms={nu: _Shifted(c, np.array(nu, dtype=float), t)
                                 for nu, c in self.terms.items()}, dim=self.dim)


@dataclass(frozen=True, eq=False)
class _Shifted:
    """Coefficient c(xi) exp(-i t nu . xi) of a pushed symbol.

    It takes one covector like any coefficient; `quantize` calls only the
    innermost `base` per label and multiplies in each push's phases of all
    covectors in one array operation, innermost push first.
    """

    base: callable
    nu: np.ndarray
    t: float

    def __call__(self, xi):
        return self.base(xi) * np.exp(-1j * self.t * (self.nu @ np.asarray(xi)))

    def phase(self, xis):
        """exp(-i t nu . xi) for covectors xis (N, n)."""
        return _flow_phase(xis, self.nu, self.t)


def _flow_phase(xis, nu, t):
    """exp(-i t nu . xi) for covectors xis (N, n) and a frequency nu, one (n,)
    or one per covector (N, n); the stacked matmul runs the dot kernel of a
    single call, so the phases agree bit for bit whichever nu is given."""
    return np.exp(-1j * t * (xis[:, None, :] @ nu[..., None])[:, 0, 0])


def cosine_symbol(axis=0, dim=2):
    """The symbol cos(x_axis)."""
    plus = tuple(1 if i == axis else 0 for i in range(dim))
    minus = tuple(-v for v in plus)
    return TrigSymbol(terms={plus: lambda xi: 0.5, minus: lambda xi: 0.5}, dim=dim)


def direction_symbol(fn, dim=2):
    """Fourier-multiplier symbol a(xi) (no base dependence)."""
    return TrigSymbol(terms={(0,) * dim: fn}, dim=dim)


@lru_cache(maxsize=None)
def _unit_covectors(sm):
    """Unit covector kappa / |kappa| of each mode of a torus basis, (dim, n),
    with |kappa|^2 = lam as np.linalg.norm computes it; 0 at the zero mode.
    Read-only, once per basis."""
    live = sm.modes.any(axis=1)
    xi = _dual(sm.model, sm.modes)
    xi[live] /= np.sqrt(sm.lam[live])[:, None]
    return _frozen(xi)


def quantize(model, symbol, K):
    """Left quantization of an admissible symbol on the torus function basis.

    Matrix elements <e_{k+nu}, Op(a) e_k> are the x-Fourier coefficients of
    the symbol evaluated at the unit covector k/|k|; the zero mode is
    annihilated (direction undefined there).  Each frequency nu must be an
    integer vector (`ValueError`).
    """
    if model.kind != geo.TORUS:
        raise CapabilityError("quantization is implemented on torus functions")
    if not isinstance(symbol, TrigSymbol):
        raise ValueError("quantize needs a TrigSymbol (finite trig polynomial)")
    if symbol.dim != model.dim:
        raise ValueError("symbol dimension does not match the model")
    sm = basis_for(model, "functions", K)
    live = sm.modes.any(axis=1)  # the zero mode has no direction and is skipped
    xi = _unit_covectors(sm)
    rows, cols, vals = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)], [np.zeros(0)]
    for nu, coeff in symbol.terms.items():
        step = np.asarray(nu, dtype=int)
        if (step != np.asarray(nu)).any():
            raise ValueError(f"symbol frequency {nu} is not an integer vector")
        k2 = sm.modes + step
        target = _locate(sm, k2, 0)
        col = np.flatnonzero(live & (target >= 0) & k2.any(axis=1))
        pushes = []  # innermost push first
        while isinstance(coeff, _Shifted):
            coeff, pushes = coeff.base, [coeff] + pushes
        val = np.fromiter(map(coeff, xi[col]), dtype=complex, count=col.size)
        for push in pushes:
            val *= push.phase(xi[col])
        keep = val != 0
        rows.append(target[col[keep]])
        cols.append(col[keep])
        vals.append(val[keep])
    mat = _sparse(np.concatenate(rows), np.concatenate(cols), np.concatenate(vals),
                  (sm.dim, sm.dim))
    return OperatorMatrix(matrix=mat, order=0, domain=sm, symbol=symbol.field())


def _quantized_push(a_op, t):
    """The matrix of quantize(model, symbol.pushed(t), K) from
    a_op = quantize(model, symbol, K), without calling the coefficients again.

    Distinct frequencies nu fill distinct entries (k + nu, k), so each entry
    of a_op is one term's coefficient at the column's unit covector xi_k, and
    the push-forward's entry is it times the phase exp(-i t nu . xi_k) of
    `_Shifted`, nu the mode difference.  For plain coefficients this is
    `quantize`'s own product, bit for bit, and so is it where the symbol is
    itself pushed: `quantize` multiplies in each push's phases in turn.
    """
    sm, a = a_op.domain, a_op.matrix
    cols = a.indices
    rows = np.repeat(np.arange(sm.dim), np.diff(a.indptr))
    nu = (sm.modes[rows] - sm.modes[cols]).astype(float)
    phase = _flow_phase(_unit_covectors(sm)[cols], nu, t)
    return scipy.sparse.csr_matrix((a.data * phase, cols, a.indptr), shape=a.shape)


def resolvent_sqrt_inverse(sm):
    """(Delta + 1)^{-1/2} as a diagonal operator (order -1)."""
    mat = scipy.sparse.diags(1.0 / np.sqrt(sm.lam + 1.0)).tocsr().astype(complex)
    return OperatorMatrix(matrix=mat, order=-1, domain=sm)


# ---------------------------------------------------------------------------
# Multiplication operators on the sphere


# A phi-band of `sphere_multiplication` is live above this multiple of the
# largest ring coefficient.  In 10,000 seeded multipliers of the benchmark's
# shape at L = 24, FFT rounding noise stayed below 1.1 eps and live bands
# above 3e-5.
_BAND_RELATIVE = 8 * np.finfo(float).eps


@lru_cache(maxsize=8)
def _sphere_grid(L):
    """Nodes (theta, phi) and weights of `geometry._sphere_rule` with L + 8
    polar and 2 L + 8 azimuthal nodes, exact for band-limited multipliers."""
    n_ph = 2 * L + 8
    cs, phi, w = geo._sphere_rule(L + 8, n_ph)
    return np.arccos(cs), phi, w * (2 * np.pi / n_ph)


@lru_cache(maxsize=8)
def _sphere_polar(L):
    """Polar factors Theta_lm(theta_t) = Y_lm(theta_t, 0), real, of the
    canonical basis at the L + 8 polar nodes of `_sphere_grid`: (basis, n_theta)."""
    from scipy.special import sph_harm_y
    th, _, _ = _sphere_grid(L)
    sm = basis_for(geo.round_sphere(), "functions", L)
    theta = th[:: 2 * L + 8]
    return _frozen(np.ascontiguousarray(sph_harm_y(sm.modes[:, :1], sm.modes[:, 1:],
                                                   theta, 0.0).real))


def _runs(a, width):
    """Writable view of the contiguous flat array a whose row k is
    a[k : k + width]: fancy rows of it address CSR rows of one length by their
    indptr, one copy per row rather than per entry."""
    return np.ndarray((a.size - width + 1, width), a.dtype, a, 0, a.strides * 2)


def sphere_multiplication(L, fn):
    """Multiplication operator by fn(theta, phi) on the spherical-harmonic basis.

    Assembled by a quadrature that is exact for band-limited multipliers; the
    principal symbol is the multiplier itself (direction independent).  Since
    Y_lm = Theta_lm(theta) e^{i m phi}, entry (i, j) is
    sum_t Theta_i(t) Theta_j(t) G[t, (m_i - m_j) mod n_phi], where G is the
    weighted FFT of fn along phi: one real matmul per order m_i.

    Only live phi-bands are assembled.  With F = fft(f rings) / n_phi the
    weight-free ring coefficients, band d is live when
    max_t |F[t, d]| > 8 eps max |F|; on rows of order m only the columns with
    (m - m') mod n_phi live are computed and stored.  A multiplier of phi-degree
    k thus stores the orders |m - m'| <= k (f = 1 is block-diagonal in m), and
    a full-band one every entry, bit for bit as the plain product would.  Each
    dropped band moves f at a node by at most 8 eps max |F|, so the dropped
    part of f has sup norm at most n_phi 8 eps max |F|; since the harmonics are
    orthonormal under the quadrature, that bounds the change of the matrix in
    operator norm.

    L must be a non-negative integer and fn must return one finite scalar per
    node (`ValueError` otherwise).  fn is a user callback on one (theta, phi),
    called once per node, and the attached symbol is per-point.
    """
    if isinstance(L, bool) or not isinstance(L, (int, np.integer)) or L < 0:
        raise ValueError(f"L must be a non-negative integer, got {L!r}")
    L = int(L)
    sm = basis_for(geo.round_sphere(), "functions", L)
    th, ph, w = _sphere_grid(L)
    theta = _sphere_polar(L)
    n_th = theta.shape[1]
    n_ph = ph.size // n_th
    f = np.asarray([fn(t, p) for t, p in zip(th, ph)], dtype=complex)
    if f.shape != th.shape:
        raise ValueError(f"fn must return one scalar per node, got shape {f.shape[1:]}")
    if not np.isfinite(f).all():
        raise ValueError("fn must return finite values")
    spec = np.fft.fft(f.reshape(n_th, n_ph), axis=1)
    amp = np.abs(spec)  # n_phi |F|: the band rule is scale-free
    live = amp.max(axis=0) > _BAND_RELATIVE * amp.max()
    g = spec * w[::n_ph, None]
    m = sm.modes[:, 1]
    orders = range(-L, L + 1)
    cols = [np.flatnonzero(live[(order - m) % n_ph]) for order in orders]
    indptr = np.zeros(sm.dim + 1, dtype=np.int64)
    np.cumsum(np.array([c.size for c in cols])[m + L], out=indptr[1:])
    data = np.empty(indptr[-1], dtype=complex)
    indices = np.empty(indptr[-1], dtype=np.int32)
    for order, c in zip(orders, cols):
        r = np.flatnonzero(m == order)
        block = np.take(g, (order - m[c]) % n_ph, axis=1)
        block *= theta[c].T
        # interleaved real/imaginary columns: a real matmul gives the complex rows
        _runs(data, c.size)[indptr[r]] = (theta[r] @ block.view(float)).view(complex)
        _runs(indices, c.size)[indptr[r]] = c
    mat = scipy.sparse.csr_matrix((data, indices, indptr), shape=(sm.dim, sm.dim))
    return OperatorMatrix(matrix=mat, order=0, domain=sm,
                          symbol=SymbolField(evaluator=lambda point, xi: fn(point[0], point[1]),
                                             fiber_dim=1))
