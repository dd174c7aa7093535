"""Truncated exact spectral models of Laplace- and Dirac-type operators.

Bases are exact eigenbases (Fourier modes, spherical harmonics, spinor
blocks), so the structural identities d^2 = 0, Delta = d delta + delta d,
P + Q + H = 1, sign(D)^2 = 1 - ker hold to rounding rather than to a
discretization error.  Operators are stored as sparse matrices over the
canonical basis ordering (ascending eigenvalue, then lexicographic label).

Assembly is array-first.  Every basis keeps the integer mode and fiber
component of each canonical position and the canonical position of each
element in enumeration order.  An operator that acts mode by mode, on a
torus or the sphere, is a table of per-mode blocks (m_out, m_in) placed at
(k + nu, k) on one cached `_block_pattern`: d is i kappa ^ . on `algebra`'s
wedge table, or +-sqrt(l (l + 1)) on the sphere; the star is `_star_table`;
P, Q, the helicity operator, D and its sign and halves are torus
`multiplier`s, one batched symbol table at kappa_k / |kappa_k| times
|kappa_k|^order; `quantize` places a `_term_table` per frequency, the Egorov
push-forward that table times its phases.  Left-out entries, the zero
mode's among them, are pruned zeros.  The sphere's P and Q are diagonals;
sphere multipliers use the live phi-bands of `geometry._sphere_rule`.  User
callbacks that take one point are called by `geometry._per_node_table`: a
per-point symbol once per node, a `TrigSymbol` coefficient once per
covector, the `fn` of `sphere_multiplication` once per quadrature node.
"""

import itertools
import numbers
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from . import CapabilityError
from . import algebra as alg
from . import geometry as geo

# Largest smaller side for which `spectral_norm` takes the dense SVD of a
# sparse matrix: at 100 x 100 it is about twice as fast as the Gram matrix's
# Lanczos, which catches up near 150 x 150 on real data.
_DENSE_SIDE = 100
# ARPACK iterations `spectral_norm` waits for in each of its two attempts
# before it takes the dense SVD: the operator shells of the lab converge within
# about 20, and a stalled one would otherwise spend seconds before the same
# fallback.
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
        m, n = self.fiber_dim, dirs.shape[-1]
        values = (self.evaluator(points, dirs) if self.batched else
                  geo._per_node_table(self.evaluator, points.reshape(-1, n), dirs.reshape(-1, n)))
        return np.asarray(values, dtype=complex).reshape(dirs.shape[:-1] + (m, m))


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
    """Operator 2-norm: 0.0 when no entry is nonzero, `ValueError` for a
    non-finite entry.

    A sparse matrix A whose smaller side exceeds `_DENSE_SIDE` gets its norm
    as the square root of the top eigenvalue of a real symmetric Gram matrix,
    from ARPACK's symmetric Lanczos (`eigsh`), which needs only matrix-vector
    products.  Real data, a complex dtype with no imaginary part included,
    takes A^T A over the smaller side.  Complex data takes the Gram matrix of
    the real form [[Re A, -Im A], [Im A, Re A]], which holds each singular
    value of A twice; it is built as the real form of A^H A.  Anything
    smaller, and every dense matrix, takes the dense SVD, which is the faster
    of the two below that size.  A top eigenvalue that ARPACK does not
    resolve within `_ARPACK_MAXITER` iterations (a tight cluster can stall
    it) is sought once more with 40 Lanczos vectors, twice ARPACK's default,
    and only then from the dense SVD.
    """
    sparse = scipy.sparse.issparse(m)
    m = m.tocsr() if sparse else np.asarray(m)
    vals = m.data if sparse else m
    if not np.isfinite(vals).all():
        raise ValueError("spectral_norm needs finite entries")
    if min(m.shape) == 0 or not vals.any():
        return 0.0
    if not sparse:
        return float(np.linalg.norm(m, 2))
    if min(m.shape) <= _DENSE_SIDE:
        return float(np.linalg.norm(m.toarray(), 2))
    a = m if m.shape[0] >= m.shape[1] else m.T
    if np.iscomplexobj(a.data) and not a.data.imag.any():
        a = a.real
    gram = (a.T.conj() @ a).tocsr()
    if np.iscomplexobj(gram.data):
        gram = scipy.sparse.bmat([[gram.real, -gram.imag], [gram.imag, gram.real]],
                                 format="csr")
    # a generic start: a structured one such as all-ones can lie in the
    # kernel (ARPACK then stops on a zero starting vector) or in an
    # invariant subspace that misses the top singular vector
    v0 = np.random.default_rng(0).standard_normal(gram.shape[0])
    for ncv in (None, 40):
        try:
            top = scipy.sparse.linalg.eigsh(gram, k=1, which="LA", v0=v0, ncv=ncv,
                                            maxiter=_ARPACK_MAXITER,
                                            return_eigenvectors=False)[0]
        except scipy.sparse.linalg.ArpackNoConvergence:
            continue
        return float(np.sqrt(max(top, 0.0)))
    return float(np.linalg.norm(m.toarray(), 2))


def _same_basis(a, b):
    """Whether two spectral models carry the same labels; identity first,
    since `basis_for` hands out one cached object per basis and comparing
    label tuples is O(dim)."""
    return a is b or a.labels == b.labels


def _finite_real(value, what):
    """float(value), or `ValueError` unless value is a finite real number, a
    0-d array included: the rule for times and potentials."""
    real = (isinstance(value, numbers.Real)
            or (np.ndim(value) == 0 and np.asarray(value).dtype.kind in "iuf"))
    if not real or not np.isfinite(float(value)):
        raise ValueError(f"{what} {value!r} is not finite, or not real")
    return float(value)


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
    """Dense fiber block of a mode-diagonal operator at a mode and its rows,
    in fiber component order; empty for a mode outside the truncation."""
    rows = _locate(op.domain, mode, np.arange(op.domain.fiber_dim))
    rows = rows.tolist() if (rows >= 0).all() else []
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
                         labels=labels, lam=_frozen(lam[order]), fiber_dim=fiber_dim,
                         index={lab: i for i, lab in enumerate(labels)},
                         modes=_frozen(modes[order]), components=_frozen(components[order]),
                         position=_frozen(position))


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
    enum = np.where(inside, mode_id * sm.fiber_dim + components, -1)
    # -1 reads the appended -1, also from a basis with no element
    return np.append(sm.position, -1)[enum]


@lru_cache(maxsize=64)
def _block_pattern(dom, cod, shifts, fiber=None):
    """CSR layout of the operators from basis `dom` to `cod` with one block at
    (k + nu, k) per mode k and integer shift nu in `shifts`, on the (row,
    column) entries `fiber` of a block, or on all of them row by row, each
    found by (mode, component) with `_locate`, whatever the fiber layout:
    the shift of each block, the positions of component 0 of its domain and
    codomain mode (shift by shift, in canonical order), the CSR indices and
    indptr, and the order that takes the entries to CSR order, None if they
    are in it.  Read-only, cached."""
    m_in, m_out = dom.fiber_dim, cod.fiber_dim
    a, b = np.array(fiber).T if fiber else np.divmod(np.arange(m_out * m_in), m_in)
    heads = np.flatnonzero(cod.components == 0)
    nus = np.array(shifts, dtype=int).reshape(-1, 1, cod.model.dim)
    src = _locate(dom, cod.modes[heads] - nus, 0)
    shift, tgt = np.nonzero(src >= 0)
    src, tgt = src[shift, tgt], heads[tgt]
    rows = _locate(cod, cod.modes[tgt, None], a).ravel()
    cols = _locate(dom, dom.modes[src, None], b).ravel()
    order = np.lexsort((cols, rows))
    indptr = np.searchsorted(rows[order], np.arange(cod.dim + 1)).astype(np.int32)
    pattern = tuple(map(_frozen, (shift, src, tgt, cols[order].astype(np.int32), indptr)))
    # a gather there made sign_and_halves on T^3 at K = 8 a fifth slower
    return pattern + ((None if (np.diff(order) > 0).all() else _frozen(order)),)


def _place_blocks(dom, cod, shifts, values, fiber=None):
    """The matrix of `_block_pattern(dom, cod, shifts, fiber)` with entries
    `values` in its order, taken over: dense blocks drop their exact zeros,
    `fiber` entries keep theirs.  Its index arrays are its own."""
    indices, indptr, order = _block_pattern(dom, cod, shifts, fiber)[3:]
    values = values.ravel() if order is None else values.ravel()[order]
    mat = scipy.sparse.csr_matrix((values, indices.copy(), indptr.copy()),
                                  shape=(cod.dim, dom.dim))
    if fiber is None:
        mat.eliminate_zeros()
    return mat


def basis_for(model, bundle, K, p=None):
    """Truncated basis for (model, bundle); bundle in
    {"functions", "forms", "spinors"}, cutoff K a non-negative integer and p
    a form degree for forms only (`ValueError` otherwise).  One cached object
    per (model, bundle, K, p): models compare by value, so equal models share
    it."""
    if isinstance(K, bool) or not isinstance(K, (int, np.integer)) or K < 0:
        raise ValueError(f"the cutoff must be a non-negative integer, got {K!r}")
    # positional, so that calls with p= and with a positional p share one entry
    return _cached_basis(model, bundle, int(K), p)


@lru_cache(maxsize=None)
def _cached_basis(model, bundle, K, p):
    if model.kind not in (geo.TORUS, geo.SPHERE):
        raise CapabilityError("spectral models exist for tori and the sphere only")
    if bundle == "forms":
        # membership compares by value, as the basis cache does: 1.0 is 1
        if p not in range(model.dim + 1):
            raise ValueError(f"form degrees are integers 0 <= p <= {model.dim}, got {p!r}")
        p = int(p)
    elif bundle in ("functions", "spinors") and p is not None:
        raise ValueError(f"{bundle} take no form degree, got p = {p!r}")
    return (_torus_basis if model.kind == geo.TORUS else _sphere_basis)(model, bundle, p, K)


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
    return _sorted_model(model, bundle, p, K, labels,
                         np.repeat(lam, nc), nc, modes, components,
                         tuple(modes.T) + (components,))


# Sphere bases by form degree (functions count as degree 0): the families in
# enumeration order and the lowest l.
_SPHERE_FAMILIES = {0: (("f",), 0), 1: (("ex", "co"), 1), 2: (("v",), 0)}


def _sphere_basis(model, bundle, p, K):
    if bundle not in ("functions", "forms"):
        raise CapabilityError("sphere bundles: functions, p-forms for p in {0,1,2}")
    fams, l0 = _SPHERE_FAMILIES[p or 0]  # functions are 0-forms
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
    constant finite real potential >= 0 (`ValueError` otherwise); a mass m is
    the potential m^2.

    Returns the cached `basis_for` basis and the operator, diagonal in it,
    with the principal symbol g(xi, xi) * id (identity on the unit bundle).
    """
    shift = _finite_real(potential, "potential")
    if shift < 0:
        raise ValueError(f"need a finite real potential >= 0, got {potential!r}")
    sm = basis_for(model, bundle, K, p)
    mat = scipy.sparse.diags(sm.lam + shift).tocsr().astype(complex)
    eye = np.eye(sm.fiber_dim, dtype=complex)
    sym = SymbolField(lambda x, xi: np.broadcast_to(eye, np.shape(xi)[:-1] + eye.shape).copy(),
                      sm.fiber_dim, batched=True)
    return sm, OperatorMatrix(matrix=mat, order=2, domain=sm, symbol=sym)


# ---------------------------------------------------------------------------
# Exterior calculus


def _frozen(a):
    """Read-only array: the cached tables are shared by every caller."""
    a.flags.writeable = False
    return a


def exterior_d(model, p, K):
    """Exterior derivative from p-forms to (p+1)-forms on the truncated basis."""
    dom = basis_for(model, "forms", K, p)
    n = model.dim
    if p == n:
        return OperatorMatrix(matrix=scipy.sparse.csr_matrix((0, dom.dim), dtype=complex),
                              order=1, domain=dom, codomain=_empty_model(model, p + 1, K))
    cod, zero = basis_for(model, "forms", K, p + 1), ((0,) * n,)
    if model.kind == geo.TORUS:
        # d(e^{ik.x} dx_I) = sum_j i kappa_j dx_j ^ dx_I: the block of mode k is
        # i kappa ^ . on the wedge table's entries, stored even where kappa_j = 0
        eps = alg.wedge_table(n, p)
        target, comp, j = np.nonzero(eps.transpose(1, 2, 0))
        fiber = tuple(zip(target.tolist(), comp.tolist()))
        k = cod.modes[_block_pattern(dom, cod, zero, fiber)[2]]
        vals = 1j * _dual(model, k)[:, j] * eps[j, target, comp]
    else:
        # d Y_lm = sqrt(l (l + 1)) ex_lm; d co_lm = -sqrt(l (l + 1)) v_lm, d ex_lm = 0
        ex, co = map(_SPHERE_FAMILIES[1][0].index, ("ex", "co"))
        fiber, sign = (((ex, 0),), 1.0) if p == 0 else (((0, co),), -1.0)
        l = cod.modes[_block_pattern(dom, cod, zero, fiber)[2], :1]
        vals = (sign * np.sqrt(l * (l + 1.0))).astype(complex)
    return OperatorMatrix(matrix=_place_blocks(dom, cod, zero, vals, fiber), order=1,
                          domain=dom, codomain=cod)


def _empty_model(model, p, K):
    return _sorted_model(model, "forms", p, K, (), np.zeros(0), 0,
                         np.zeros((0, model.dim), dtype=int), np.zeros(0, dtype=int), ())


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
    zero, fiber = ((0,) * n,), tuple(zip(target.tolist(), range(dom.fiber_dim)))
    vals = np.tile(sign.astype(complex), (_block_pattern(dom, cod, zero, fiber)[0].size, 1))
    mat = _place_blocks(dom, cod, zero, vals, fiber)
    return OperatorMatrix(matrix=mat, order=0, domain=dom, codomain=cod)


def hodge_projections(model, p, K):
    """Spectral projections (P, Q, H) onto co-exact, exact, harmonic p-forms.

    On a torus P and Q are the order-0 `multiplier`s of iota_xi xi ^ =
    E_p^H E_p and xi ^ iota_xi = E_(p-1) E_(p-1)^H, E_q = xi ^ . on q-forms
    (`algebra.exterior_mult`), each exact per mode.  On the sphere they are
    0/1 diagonals read from the family index in `components`: P is l >= 1
    on the `f` and `co` families, Q is l >= 1 on `ex` and `v`, and they carry
    no symbol.  On every model H is the identity on the basis elements with
    lam == 0.
    """
    sm = basis_for(model, "forms", K, p)
    diagonal = lambda rows: OperatorMatrix(scipy.sparse.csr_matrix(
        (np.ones(rows.size, dtype=complex), (rows, rows)), shape=(sm.dim,) * 2), 0, sm)
    if model.kind == geo.TORUS:
        def coexact(x, xi):  # the projection onto iota_xi Lambda^(p+1)
            e = alg.exterior_mult(xi, p)
            return e.swapaxes(-1, -2) @ e

        def exact(x, xi):  # the projection onto xi ^ Lambda^(p-1)
            e = alg.exterior_mult(xi, p - 1)
            return e @ e.swapaxes(-1, -2)

        pq = (multiplier(sm, SymbolField(coexact, sm.fiber_dim, batched=True), 0),
              multiplier(sm, SymbolField(exact, sm.fiber_dim, batched=True), 0))
    else:
        fams = np.array(_SPHERE_FAMILIES[p][0])[sm.components]
        pq = tuple(diagonal(np.flatnonzero(np.isin(fams, members) & (sm.lam > 0)))
                   for members in (("f", "co"), ("ex", "v")))
    return pq + (diagonal(np.flatnonzero(sm.lam == 0)),)


# ---------------------------------------------------------------------------
# Fourier multipliers on tori: Hodge, helicity, Dirac, sign and halves


def multiplier(sm, symbol, order):
    """The operator |kappa_k|^order symbol(kappa_k / |kappa_k|) on each mode
    k != 0 of a torus basis, with the zero mode in its kernel.

    `symbol` is a `SymbolField` of the basis' fiber rank that does not depend
    on the point; one table call covers every mode, and exact zeros are not
    stored.  Other bases raise `CapabilityError`, other ranks `ValueError`."""
    return _multiplier_of(sm, _live_table(sm, symbol), order, symbol)


def _live_table(sm, symbol):
    """The table of `symbol` at the unit covectors of the modes k != 0 of a
    torus basis, which canonical order puts after any zero mode, in order."""
    if sm.model.kind != geo.TORUS:
        raise CapabilityError("Fourier multipliers live on torus bases")
    if symbol.fiber_dim != sm.fiber_dim:
        raise ValueError("symbol fiber rank does not match the basis")
    xi = _unit_covectors(sm)[np.searchsorted(sm.lam, 0.0, side="right") // sm.fiber_dim:]
    return symbol.table(np.zeros(xi.shape), xi)


def _multiplier_of(sm, table, order, symbol):
    """`multiplier` from the table of its symbol over the modes k != 0, the
    last len(table): the zero mode's block is 0, pruned with the other zeros."""
    lam = sm.lam[::sm.fiber_dim]
    live = lam.size - len(table)
    scaled = table * (lam[live:] ** (order / 2))[:, None, None] if order else table
    blocks = np.concatenate([np.zeros((live,) + table.shape[1:], dtype=complex), scaled])
    mat = _place_blocks(sm, sm, ((0,) * sm.model.dim,), blocks)
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
    s, m, eye = _live_table(sm, sym), sym.fiber_dim, np.eye(sym.fiber_dim)
    # batched halves on sym's table, whatever its convention
    plus_sym = SymbolField(lambda x, xi: 0.5 * (eye + sym.table(x, xi)), m, batched=True)
    minus_sym = SymbolField(lambda x, xi: 0.5 * (eye - sym.table(x, xi)), m, batched=True)
    return (_multiplier_of(sm, s, 0, sym), _multiplier_of(sm, 0.5 * (eye + s), 0, plus_sym),
            _multiplier_of(sm, 0.5 * (eye - s), 0, minus_sym))


# ---------------------------------------------------------------------------
# Quantization on tori


@dataclass(frozen=True, eq=False)
class TrigSymbol:
    """Admissible order-0 torus symbol: finite trigonometric polynomial in x
    with direction-dependent coefficients, pushed by the flow for each time
    in `pushes`.

    `terms` maps integer frequency tuples nu to coefficient functions c_nu of
    the unit covector, user callbacks on one covector: the symbol is
    sum_nu c_nu(xi) exp(i nu . x) prod_t exp(-i t nu . xi) over the push
    times t, innermost first.  `field` is it as a batched `SymbolField`.
    """

    terms: dict
    dim: int
    pushes: tuple = ()

    def field(self):
        def ev(x, xi):
            x, xi = (a.reshape(-1, self.dim) for a in np.broadcast_arrays(
                np.asarray(x, float), np.asarray(xi, float)))
            return sum((_term_table(nu, c, xi, self.pushes) * np.exp(1j * (x @ np.array(nu)))
                        for nu, c in self.terms.items()), np.zeros(len(xi), dtype=complex))

        return SymbolField(evaluator=ev, fiber_dim=1, batched=True)

    def pushed(self, t):
        """Composition with the reversed geodesic flow x -> x - t xi, as data;
        `ValueError` unless t is a finite real number."""
        t = _finite_real(t, "push time")
        return TrigSymbol(terms=self.terms, dim=self.dim, pushes=self.pushes + (t,))


def _term_table(nu, coeff, xi, pushes):
    """The term of frequency nu at the unit covectors xi (N, n), complex (N,):
    one `geometry._per_node_table` call of its coefficient, which must return
    one finite scalar per covector (`ValueError`), times `_flow_phase` for
    each push time, innermost first."""
    val = np.asarray(geo._per_node_table(coeff, xi), dtype=complex)
    if val.shape != (len(xi),):
        raise ValueError(f"the coefficient of frequency {nu} must return one scalar "
                         f"per covector, got shape {val.shape[1:]}")
    if not np.isfinite(val).all():
        raise ValueError(f"the coefficient of frequency {nu} must return finite values")
    for t in pushes:
        val *= _flow_phase(xi, nu, t)
    return val


def _flow_phase(xis, nu, t):
    """exp(-i t nu . xi) for covectors xis (N, n) and a frequency nu (n,); the
    stacked matmul takes one dot per covector, so no phase depends on N."""
    return np.exp(-1j * t * (xis[:, None, :] @ np.asarray(nu, dtype=float)[:, None])[:, 0, 0])


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
    """Unit covector kappa / |kappa| of each mode of a torus basis, contiguous
    in canonical mode order, with |kappa|^2 = lam as np.linalg.norm computes
    it; 0 at the zero mode.  Read-only, once per basis."""
    lam = sm.lam[::sm.fiber_dim]
    xi = _dual(sm.model, sm.modes[::sm.fiber_dim])
    xi[lam > 0] /= np.sqrt(lam[lam > 0])[:, None]
    return _frozen(xi)


def quantize(model, symbol, K):
    """Left quantization of an admissible symbol on the torus function basis.

    Matrix elements <e_{k+nu}, Op(a) e_k> are the x-Fourier coefficients of
    the symbol at the unit covector k/|k|, push phases included
    (`_term_table`); the zero mode is annihilated (direction undefined
    there).  Each frequency nu must be an integer vector of the model's
    dimension, and each coefficient must return one finite scalar per
    covector (`ValueError`).
    """
    return OperatorMatrix(matrix=_quantizations(model, symbol, K)[0], order=0,
                          domain=basis_for(model, "functions", K), symbol=symbol.field())


def _quantizations(model, symbol, K, keep=None, t=None):
    """[`quantize`'s matrix], and with a time t [it, that of symbol.pushed(t)],
    on the entries whose row and column are kept (`keep` masks the function
    basis; None keeps all but the zero mode).  One table on the frequencies'
    `_block_pattern` holds, per kept block (k + nu, k), the `_term_table` of
    nu at the unit covector xi_k, and 0 elsewhere; the push-forward is it
    times exp(-i t nu . xi_k).  Frequencies are checked before any call."""
    if model.kind != geo.TORUS:
        raise CapabilityError("quantization is implemented on torus functions")
    if not isinstance(symbol, TrigSymbol):
        raise ValueError("quantize needs a TrigSymbol (finite trig polynomial)")
    if symbol.dim != model.dim:
        raise ValueError("symbol dimension does not match the model")
    for nu in symbol.terms:
        if np.shape(nu) != (model.dim,) or (np.asarray(nu, dtype=int) != np.asarray(nu)).any():
            raise ValueError(f"symbol frequency {nu} is not an integer {model.dim}-vector")
    sm = basis_for(model, "functions", K)
    keep = sm.lam > 0 if keep is None else keep & (sm.lam > 0)
    shift, src, tgt = _block_pattern(sm, sm, tuple(symbol.terms))[:3]
    kept = keep[src] & keep[tgt]
    values = np.zeros((1 if t is None else 2, src.size), dtype=complex)
    for i, (nu, coeff) in enumerate(symbol.terms.items()):
        at = np.flatnonzero(kept & (shift == i))
        xi = _unit_covectors(sm)[src[at]]
        val = _term_table(nu, coeff, xi, symbol.pushes)
        values[:, at] = [val] if t is None else [val, val * _flow_phase(xi, nu, t)]
    return [_place_blocks(sm, sm, tuple(symbol.terms), row) for row in values]


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
    sm = basis_for(geo.round_sphere(), "functions", L)
    L = sm.cutoff
    th, ph, w = _sphere_grid(L)
    theta = _sphere_polar(L)
    n_th = theta.shape[1]
    n_ph = ph.size // n_th
    f = np.asarray(geo._per_node_table(fn, th, ph), dtype=complex)
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
