"""Truncated exact spectral models of Laplace- and Dirac-type operators.

Bases are exact eigenbases (Fourier modes, spherical harmonics, spinor
blocks), so the structural identities d^2 = 0, Delta = d delta + delta d,
P + Q + H = 1, sign(D)^2 = 1 - ker hold to rounding rather than to a
discretization error.  Operators are stored as sparse matrices over the
canonical basis ordering (ascending eigenvalue, then lexicographic label).
"""

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from . import CapabilityError
from . import algebra as alg
from . import geometry as geo

_KERNEL_RELATIVE = 1e-10


@dataclass(frozen=True, eq=False)
class SpectralModel:
    """Truncated eigenbasis of a bundle Laplacian over a model manifold.

    `lam` holds the geometric Laplacian eigenvalue of each basis element;
    the operator built on top may add a constant potential and mass^2.
    Ordering is canonical: ascending eigenvalue, then lexicographic label.
    """

    model: geo.ManifoldModel
    bundle: str
    form_degree: int | None
    cutoff: int
    labels: tuple
    lam: np.ndarray
    fiber_dim: int
    potential: float = 0.0
    mass: float = 0.0
    index: dict = field(repr=False, default=None)

    @property
    def dim(self):
        return len(self.labels)

    @property
    def freq(self):
        return np.sqrt(self.lam)

    def degeneracy_blocks(self, tol=1e-9):
        """Index ranges of equal-eigenvalue clusters, in canonical order."""
        blocks = [[0]]
        for i in range(1, self.dim):
            if self.lam[i] - self.lam[blocks[-1][0]] <= tol * (1.0 + self.lam[i]):
                blocks[-1].append(i)
            else:
                blocks.append([i])
        return blocks


@dataclass(frozen=True, eq=False)
class SymbolField:
    """Principal symbol: map (point, unit covector) -> m x m matrix."""

    evaluator: callable
    fiber_dim: int = 1

    def __call__(self, point, xi):
        out = np.asarray(self.evaluator(point, xi), dtype=complex)
        return out.reshape(self.fiber_dim, self.fiber_dim)


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
    """Operator 2-norm; dense SVD for small matrices, iterative otherwise."""
    if scipy.sparse.issparse(m):
        if min(m.shape) == 0 or m.nnz == 0:
            return 0.0
        if max(m.shape) <= 600:
            return float(np.linalg.norm(m.toarray(), 2))
        v0 = np.ones(min(m.shape))
        s = scipy.sparse.linalg.svds(m.tocsc().astype(complex), k=1, v0=v0,
                                     return_singular_vectors=False, maxiter=5000)
        return float(s[0])
    if min(np.asarray(m).shape) == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def compose(a, b):
    """Operator product a @ b with basis-compatibility checking."""
    if a.domain.labels != b.codomain.labels:
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
    rows = [i for i, lab in enumerate(sm.labels) if lab[1] == mode]
    return op.matrix[np.ix_(rows, rows)].toarray(), rows


# ---------------------------------------------------------------------------
# Bases

_BASIS_CACHE = {}


def _cache_key(model, bundle, p, K):
    return (model.kind, model.dim, model.periods, bundle, p, K)


def _torus_modes(model, K):
    n = model.dim
    return [k for k in itertools.product(range(-K, K + 1), repeat=n)]


def _dual(model, k):
    return 2.0 * np.pi * np.asarray(k, dtype=float) / np.asarray(model.periods)


def _sorted_model(model, bundle, p, K, labels, lam, fiber_dim):
    order = sorted(range(len(labels)), key=lambda i: (lam[i], labels[i]))
    labels = tuple(labels[i] for i in order)
    lam = np.array([lam[i] for i in order])
    return SpectralModel(model=model, bundle=bundle, form_degree=p, cutoff=K,
                         labels=labels, lam=lam, fiber_dim=fiber_dim,
                         index={lab: i for i, lab in enumerate(labels)})


def basis_for(model, bundle, K, p=None):
    """Truncated basis for (model, bundle); bundle in
    {"functions", "forms", "spinors"}."""
    key = _cache_key(model, bundle, p, K)
    if key in _BASIS_CACHE:
        return _BASIS_CACHE[key]
    if model.kind == geo.TORUS:
        sm = _torus_basis(model, bundle, p, K)
    elif model.kind == geo.SPHERE:
        sm = _sphere_basis(model, bundle, p, K)
    else:
        raise CapabilityError("spectral models exist for tori and the sphere only")
    _BASIS_CACHE[key] = sm
    return sm


def _torus_basis(model, bundle, p, K):
    n = model.dim
    modes = _torus_modes(model, K)
    lam_of = {k: float(_dual(model, k) @ _dual(model, k)) for k in modes}
    if bundle == "functions":
        labels = [("f", k) for k in modes]
        lam = [lam_of[k] for k in modes]
        return _sorted_model(model, bundle, None, K, labels, lam, 1)
    if bundle == "forms":
        comps = list(itertools.combinations(range(n), p))
        labels = [("w", k, c) for k in modes for c in comps]
        lam = [lam_of[k] for k in modes for _ in comps]
        return _sorted_model(model, bundle, p, K, labels, lam, comb(n, p))
    if bundle == "spinors":
        d = 2 ** (n // 2)
        labels = [("s", k, a) for k in modes for a in range(d)]
        lam = [lam_of[k] for k in modes for _ in range(d)]
        return _sorted_model(model, bundle, None, K, labels, lam, d)
    raise CapabilityError(f"unknown bundle {bundle!r}")


def _sphere_basis(model, bundle, p, K):
    if bundle == "functions" or (bundle == "forms" and p == 0):
        labels = [("f", (l, m)) for l in range(K + 1) for m in range(-l, l + 1)]
        lam = [float(l * (l + 1)) for l in range(K + 1) for _ in range(-l, l + 1)]
        return _sorted_model(model, bundle, p, K, labels, lam, 1)
    if bundle == "forms" and p == 1:
        labels, lam = [], []
        for fam in ("ex", "co"):
            for l in range(1, K + 1):
                for m in range(-l, l + 1):
                    labels.append((fam, (l, m)))
                    lam.append(float(l * (l + 1)))
        return _sorted_model(model, bundle, p, K, labels, lam, 2)
    if bundle == "forms" and p == 2:
        labels = [("v", (l, m)) for l in range(K + 1) for m in range(-l, l + 1)]
        lam = [float(l * (l + 1)) for l in range(K + 1) for _ in range(-l, l + 1)]
        return _sorted_model(model, bundle, p, K, labels, lam, 1)
    raise CapabilityError("sphere bundles: functions, p-forms for p in {0,1,2}")


# ---------------------------------------------------------------------------
# Laplacians


def build_laplacian(model, bundle, K, potential=0.0, mass=0.0, p=None):
    """Laplace-type operator Delta + mass^2 + potential on the chosen bundle.

    Diagonal in the canonical basis; the principal symbol g(xi, xi) * id
    (identity on the unit bundle) is attached.
    """
    if potential + mass * mass < 0:
        raise ValueError("need mass^2 + potential >= 0 for square roots")
    sm = basis_for(model, bundle, K, p)
    sm = SpectralModel(model=sm.model, bundle=sm.bundle, form_degree=sm.form_degree,
                       cutoff=sm.cutoff, labels=sm.labels, lam=sm.lam,
                       fiber_dim=sm.fiber_dim, potential=float(potential),
                       mass=float(mass), index=sm.index)
    shift = potential + mass * mass
    mat = scipy.sparse.diags(sm.lam + shift).tocsr().astype(complex)
    m = sm.fiber_dim
    sym = SymbolField(evaluator=lambda x, xi: np.eye(m, dtype=complex), fiber_dim=m)
    return sm, OperatorMatrix(matrix=mat, order=2, domain=sm, symbol=sym)


def laplacian_diagonal(op):
    """Diagonal of a diagonal operator; raises if off-diagonal mass exists."""
    m = op.matrix.tocsr()
    d = m.diagonal()
    off = m - scipy.sparse.diags(d)
    if frob(off) > 1e-12 * max(1.0, float(np.abs(d).max())):
        raise ValueError("operator is not diagonal in the canonical basis")
    return d.real


# ---------------------------------------------------------------------------
# Exterior calculus


def _perm_sign(seq):
    s = 1
    seq = list(seq)
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                s = -s
    return s


def exterior_d(model, p, K):
    """Exterior derivative from p-forms to (p+1)-forms on the truncated basis."""
    dom = basis_for(model, "forms", K, p)
    n = model.dim
    if p >= n:
        cod = _empty_model(model, p + 1, K)
        mat = scipy.sparse.csr_matrix((0, dom.dim), dtype=complex)
        return OperatorMatrix(matrix=mat, order=1, domain=dom, codomain=cod)
    cod = basis_for(model, "forms", K, p + 1)
    rows, cols, vals = [], [], []
    if model.kind == geo.TORUS:
        for j0, lab in enumerate(dom.labels):
            _, k, comp = lab
            kappa = _dual(model, k)
            for j in range(n):
                if j in comp:
                    continue
                target = tuple(sorted(comp + (j,)))
                sign = _perm_sign((j,) + comp)
                rows.append(cod.index[("w", k, target)])
                cols.append(j0)
                vals.append(1j * kappa[j] * sign)
    else:
        for j0, lab in enumerate(dom.labels):
            fam, (l, m) = lab
            if p == 0 and l >= 1:
                rows.append(cod.index[("ex", (l, m))])
                cols.append(j0)
                vals.append(np.sqrt(l * (l + 1.0)))
            elif p == 1 and fam == "co":
                rows.append(cod.index[("v", (l, m))])
                cols.append(j0)
                vals.append(-np.sqrt(l * (l + 1.0)))
    mat = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(cod.dim, dom.dim),
                                  dtype=complex)
    return OperatorMatrix(matrix=mat, order=1, domain=dom, codomain=cod)


def _empty_model(model, p, K):
    return SpectralModel(model=model, bundle="forms", form_degree=p, cutoff=K,
                         labels=(), lam=np.zeros(0), fiber_dim=0, index={})


def codifferential(model, p, K):
    """Codifferential from p-forms to (p-1)-forms (adjoint of d)."""
    if p == 0:
        dom = basis_for(model, "forms", K, 0)
        mat = scipy.sparse.csr_matrix((0, dom.dim), dtype=complex)
        return OperatorMatrix(matrix=mat, order=1, domain=dom,
                              codomain=_empty_model(model, -1, K))
    d = exterior_d(model, p - 1, K)
    return OperatorMatrix(matrix=d.matrix.conj().T.tocsr(), order=1,
                          domain=d.codomain, codomain=d.domain)


def hodge_star(model, p, K):
    """Hodge star from p-forms to (n-p)-forms on the truncated basis."""
    dom = basis_for(model, "forms", K, p)
    n = model.dim
    cod = basis_for(model, "forms", K, n - p)
    rows, cols, vals = [], [], []
    if model.kind == geo.TORUS:
        for j0, lab in enumerate(dom.labels):
            _, k, comp = lab
            comp_c = tuple(i for i in range(n) if i not in comp)
            rows.append(cod.index[("w", k, comp_c)])
            cols.append(j0)
            vals.append(float(_perm_sign(comp + comp_c)))
    else:
        star_map = {"f": ("v", 1.0), "v": ("f", 1.0), "ex": ("co", 1.0),
                    "co": ("ex", -1.0)}
        for j0, (fam, lm) in enumerate(dom.labels):
            fam2, sign = star_map[fam]
            rows.append(cod.index[(fam2, lm)])
            cols.append(j0)
            vals.append(sign)
    mat = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(cod.dim, dom.dim),
                                  dtype=complex)
    return OperatorMatrix(matrix=mat, order=0, domain=dom, codomain=cod)


def _pinv_diag(vals, power=-1.0):
    vals = np.asarray(vals, dtype=float)
    scale = vals.max() if vals.size else 1.0
    out = np.zeros_like(vals)
    keep = vals > _KERNEL_RELATIVE * max(scale, 1.0)
    out[keep] = vals[keep] ** power
    return out, ~keep


def hodge_projections(model, p, K):
    """Spectral projections (P, Q, H) onto co-exact, exact, harmonic p-forms.

    P = pinv(Delta) delta d, Q = pinv(Delta) d delta, H = 1 - P - Q; the
    pseudo-inverse vanishes on the kernel of Delta.
    """
    sm = basis_for(model, "forms", K, p)
    d_p = exterior_d(model, p, K)
    del_p1 = codifferential(model, p + 1, K) if p < model.dim else None
    dinv, _ = _pinv_diag(sm.lam)
    dinv_m = scipy.sparse.diags(dinv)
    if del_p1 is not None:
        pmat = (dinv_m @ (del_p1.matrix @ d_p.matrix)).tocsr()
    else:
        pmat = scipy.sparse.csr_matrix((sm.dim, sm.dim), dtype=complex)
    if p > 0:
        d_prev = exterior_d(model, p - 1, K)
        del_p = codifferential(model, p, K)
        qmat = (dinv_m @ (d_prev.matrix @ del_p.matrix)).tocsr()
    else:
        qmat = scipy.sparse.csr_matrix((sm.dim, sm.dim), dtype=complex)
    hmat = (scipy.sparse.identity(sm.dim, dtype=complex) - pmat - qmat).tocsr()
    mk = lambda mat, sym: OperatorMatrix(matrix=mat, order=0, domain=sm, symbol=sym)
    if model.kind == geo.TORUS:
        n = model.dim
        comps = list(itertools.combinations(range(n), p))
        psym = SymbolField(lambda x, xi: _form_coexact_symbol(xi, comps),
                           fiber_dim=len(comps))
        qsym = SymbolField(lambda x, xi: _form_exact_symbol(xi, comps),
                           fiber_dim=len(comps))
    else:
        psym = qsym = None
    return mk(pmat, psym), mk(qmat, qsym), mk(hmat, None)


def _wedge_basis_matrix(xi, comps):
    """Matrix of (interior product with xi) composed with (xi wedge .)."""
    # entries of the symbol of Q = projection onto xi ^ Lambda^{p-1}
    out = np.zeros((len(comps), len(comps)), dtype=complex)
    for a, ca in enumerate(comps):
        for b, cb in enumerate(comps):
            acc = 0.0
            for i in ca:
                for j in cb:
                    rest_a = tuple(x for x in ca if x != i)
                    rest_b = tuple(x for x in cb if x != j)
                    if rest_a == rest_b:
                        sa = _perm_sign((i,) + rest_a)
                        sb = _perm_sign((j,) + rest_b)
                        acc += sa * sb * xi[i] * xi[j]
            out[a, b] = acc
    return out


def _form_exact_symbol(xi, comps):
    return _wedge_basis_matrix(np.asarray(xi, float), comps)


def _form_coexact_symbol(xi, comps):
    return np.eye(len(comps), dtype=complex) - _wedge_basis_matrix(np.asarray(xi, float), comps)


def helicity_symbol(point, xi):
    """Polarization symbol on 1-forms over T^3: i times the cross product."""
    xi = np.asarray(xi, dtype=float)
    cross = np.array([[0.0, -xi[2], xi[1]],
                      [xi[2], 0.0, -xi[0]],
                      [-xi[1], xi[0], 0.0]])
    return 1j * cross


def helicity_R(model, K):
    """Polarization operator on 1-forms over T^3.

    Normalized so its square is the co-exact projection: the inverse square
    root of Delta_1 composed with (star d).  Eigenvalues on each co-exact
    Fourier shell are exactly +-1.
    """
    if model.kind != geo.TORUS or model.dim != 3:
        raise CapabilityError("the polarization operator lives on T^3, p = 1")
    sm = basis_for(model, "forms", K, 1)
    d1 = exterior_d(model, 1, K)
    star2 = hodge_star(model, 2, K)
    dinv_sqrt, _ = _pinv_diag(sm.lam, power=-0.5)
    mat = (scipy.sparse.diags(dinv_sqrt) @ (star2.matrix @ d1.matrix)).tocsr()
    sym = SymbolField(evaluator=helicity_symbol, fiber_dim=3)
    return OperatorMatrix(matrix=mat, order=0, domain=sm, symbol=sym)


# ---------------------------------------------------------------------------
# Dirac operators


def build_dirac(model, K):
    """Flat Dirac operator on the trivial spin bundle of T^2 or T^3.

    Block gamma . kappa per Fourier mode; the square is the spinor Laplacian.
    """
    if model.kind != geo.TORUS or model.dim not in (2, 3):
        raise CapabilityError("Dirac models exist on flat tori of dim 2, 3")
    sm = basis_for(model, "spinors", K)
    cl = alg.build_clifford(model.dim)
    d = sm.fiber_dim
    rows, cols, vals = [], [], []
    seen = set()
    for i, lab in enumerate(sm.labels):
        _, k, a = lab
        if k in seen:
            continue
        seen.add(k)
        block = alg.clifford_mult(cl, _dual(model, k))
        idx = [sm.index[("s", k, b)] for b in range(d)]
        for r in range(d):
            for c in range(d):
                if block[r, c] != 0:
                    rows.append(idx[r])
                    cols.append(idx[c])
                    vals.append(block[r, c])
    mat = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(sm.dim, sm.dim),
                                  dtype=complex)
    sym = SymbolField(evaluator=lambda x, xi: alg.clifford_mult(cl, xi), fiber_dim=d)
    return sm, OperatorMatrix(matrix=mat, order=1, domain=sm, symbol=sym)


def sign_and_halves(d_op):
    """sign(D) by spectral calculus plus the half projections (1 +- sign)/2.

    Requires D^2 diagonal in the canonical basis (true for the flat Dirac
    models); sign vanishes on ker D, so P+ + P- = 1 - kernel projection.
    """
    sq = (d_op.matrix @ d_op.matrix).tocsr()
    diag = laplacian_diagonal(OperatorMatrix(matrix=sq, order=2, domain=d_op.domain))
    inv_sqrt, _ = _pinv_diag(diag, power=-0.5)
    sign = (d_op.matrix @ scipy.sparse.diags(inv_sqrt)).tocsr()
    sgn2 = (sign @ sign).tocsr()
    p_plus = (0.5 * (sgn2 + sign)).tocsr()
    p_minus = (0.5 * (sgn2 - sign)).tocsr()
    sym = d_op.symbol
    sm = d_op.domain
    mk = lambda mat, s: OperatorMatrix(matrix=mat, order=0, domain=sm, symbol=s)
    if sym is not None:
        m = sym.fiber_dim
        plus_sym = SymbolField(lambda x, xi: 0.5 * (np.eye(m) + sym(x, xi)), m)
        minus_sym = SymbolField(lambda x, xi: 0.5 * (np.eye(m) - sym(x, xi)), m)
    else:
        plus_sym = minus_sym = None
    return mk(sign, sym), mk(p_plus, plus_sym), mk(p_minus, minus_sym)


# ---------------------------------------------------------------------------
# Quantization on tori


@dataclass(frozen=True, eq=False)
class TrigSymbol:
    """Admissible order-0 torus symbol: finite trigonometric polynomial in x
    with direction-dependent coefficients.

    `terms` maps integer frequency tuples nu to coefficient functions of the
    unit covector.
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
        def shift(nu, c):
            nu_arr = np.array(nu, dtype=float)
            return lambda xi: c(xi) * np.exp(-1j * t * (nu_arr @ np.asarray(xi)))

        return TrigSymbol(terms={nu: shift(nu, c) for nu, c in self.terms.items()},
                          dim=self.dim)


def cosine_symbol(axis=0, dim=2):
    """The symbol cos(x_axis)."""
    plus = tuple(1 if i == axis else 0 for i in range(dim))
    minus = tuple(-v for v in plus)
    return TrigSymbol(terms={plus: lambda xi: 0.5, minus: lambda xi: 0.5}, dim=dim)


def direction_symbol(fn, dim=2):
    """Fourier-multiplier symbol a(xi) (no base dependence)."""
    return TrigSymbol(terms={(0,) * dim: fn}, dim=dim)


def quantize(model, symbol, K):
    """Left quantization of an admissible symbol on the torus function basis.

    Matrix elements <e_{k+nu}, Op(a) e_k> are the x-Fourier coefficients of
    the symbol evaluated at the unit covector k/|k|; the zero mode is
    annihilated (direction undefined there).
    """
    if model.kind != geo.TORUS:
        raise CapabilityError("quantization is implemented on torus functions")
    if not isinstance(symbol, TrigSymbol):
        raise ValueError("quantize needs a TrigSymbol (finite trig polynomial)")
    if symbol.dim != model.dim:
        raise ValueError("symbol dimension does not match the model")
    sm = basis_for(model, "functions", K)
    rows, cols, vals = [], [], []
    zero = (0,) * model.dim
    for nu, coeff in symbol.terms.items():
        for lab in sm.labels:
            _, k = lab
            if k == zero:
                continue
            k2 = tuple(a + b for a, b in zip(k, nu))
            if k2 == zero or ("f", k2) not in sm.index:
                continue
            kappa = _dual(model, k)
            xi = kappa / np.linalg.norm(kappa)
            c = coeff(xi)
            if c != 0:
                rows.append(sm.index[("f", k2)])
                cols.append(sm.index[("f", k)])
                vals.append(complex(c))
    mat = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(sm.dim, sm.dim),
                                  dtype=complex)
    return OperatorMatrix(matrix=mat, order=0, domain=sm, symbol=symbol.field())


def resolvent_sqrt_inverse(sm):
    """(Delta + 1)^{-1/2} as a diagonal operator (order -1)."""
    mat = scipy.sparse.diags(1.0 / np.sqrt(sm.lam + 1.0)).tocsr().astype(complex)
    return OperatorMatrix(matrix=mat, order=-1, domain=sm)


# ---------------------------------------------------------------------------
# Multiplication operators on the sphere


@lru_cache(maxsize=8)
def _sphere_grid(L):
    n_th = L + 8
    n_ph = 2 * L + 8
    cs, ws = np.polynomial.legendre.leggauss(n_th)
    theta = np.arccos(cs)
    phi = np.arange(n_ph) * (2 * np.pi / n_ph)
    th_g, ph_g = np.meshgrid(theta, phi, indexing="ij")
    w_g = np.repeat(ws[:, None], n_ph, axis=1) * (2 * np.pi / n_ph)
    return th_g.ravel(), ph_g.ravel(), w_g.ravel()


@lru_cache(maxsize=8)
def _sphere_harmonics(L):
    from scipy.special import sph_harm_y
    th, ph, w = _sphere_grid(L)
    sm = basis_for(geo.round_sphere(), "functions", L)
    y = np.empty((sm.dim, th.size), dtype=complex)
    for i, (_, (l, m)) in enumerate(sm.labels):
        y[i] = sph_harm_y(l, m, th, ph)
    return y


def sphere_multiplication(L, fn, symbol_fn=None):
    """Multiplication operator by fn(theta, phi) on the spherical-harmonic basis.

    Assembled by a quadrature that is exact for band-limited multipliers; the
    principal symbol is the multiplier itself (direction independent).
    """
    sm = basis_for(geo.round_sphere(), "functions", L)
    th, ph, w = _sphere_grid(L)
    y = _sphere_harmonics(L)
    f = np.asarray([fn(t, p) for t, p in zip(th, ph)], dtype=complex)
    mat = (y.conj() * (w * f)) @ y.T
    sym_fn = symbol_fn or (lambda point, xi: fn(point[0], point[1]))
    return OperatorMatrix(matrix=scipy.sparse.csr_matrix(mat), order=0, domain=sm,
                          symbol=SymbolField(evaluator=sym_fn, fiber_dim=1))


# ---------------------------------------------------------------------------
# Heat traces


@dataclass(frozen=True)
class HeatValue:
    """Heat-state value with a truncation-error estimate."""

    value: complex
    truncation_estimate: float
    reliable: bool


def _heat_floor(lam):
    """Smallest t at which the truncated tail, for eigenvalues lam, is below
    1e-12 of the leading term."""
    span = lam.max() - lam.min()
    if span <= 0:
        return 0.0
    return float((np.log(lam.size) + 12 * np.log(10.0)) / span)


def _gibbs_ratio(lam, diag, t):
    """sum(diag exp(-t lam)) / sum(exp(-t lam)) and its truncation bound.

    The bound, dim exp(-t (max lam - min lam)) (1 + max |diag|) / Z with Z the
    shifted denominator, estimates what the modes beyond the cutoff would add.
    """
    gibbs = np.exp(-t * (lam - lam.min()))
    den = gibbs.sum()
    tail = lam.size * np.exp(-t * (lam.max() - lam.min()))
    scale = float(np.abs(diag).max())
    return (diag * gibbs).sum() / den, float(tail * (1.0 + scale) / den)


def heat_time_floor(delta_op):
    """Smallest t at which the truncated tail is below 1e-12 of the leading term."""
    return _heat_floor(laplacian_diagonal(delta_op))


def heat_state_trace(a_op, delta_op, t):
    """tr(A exp(-t Delta)) / tr(exp(-t Delta)) over the truncated basis."""
    if a_op.domain.labels != delta_op.domain.labels:
        raise ValueError("observable and Laplacian act on different bases")
    if t <= 0:
        raise ValueError("heat time must be positive")
    lam = laplacian_diagonal(delta_op)
    value, estimate = _gibbs_ratio(lam, a_op.matrix.diagonal(), t)
    return HeatValue(value=value, truncation_estimate=estimate,
                     reliable=t >= _heat_floor(lam))


# ---------------------------------------------------------------------------
# Export helpers


def spectrum_rows(sm):
    """(index, eigenvalue, label) rows in canonical order."""
    shift = sm.potential + sm.mass * sm.mass
    return [(i, sm.lam[i] + shift, repr(sm.labels[i])) for i in range(sm.dim)]


def operator_header(op, name):
    """JSON-ready description of an operator for export."""
    sm = op.domain
    return {
        "name": name,
        "model": sm.model.kind,
        "dim": sm.model.dim,
        "bundle": sm.bundle,
        "form_degree": sm.form_degree,
        "cutoff": sm.cutoff,
        "basis_size": sm.dim,
        "order": op.order,
        "ordering": "ascending eigenvalue, then lexicographic label",
    }
