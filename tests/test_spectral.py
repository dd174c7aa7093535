import dataclasses
import tracemalloc
from fractions import Fraction
from math import comb

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from scipy.special import sph_harm_y

import oracles
from framelab import CapabilityError
from framelab import algebra as alg
from framelab import geometry as geo
from framelab import limits as lm
from framelab import spectral as sp


T2 = geo.flat_torus(2)
T3 = geo.flat_torus(3)
S2 = geo.round_sphere()
T3_STRETCHED = geo.flat_torus(3, periods=(1.0, 2.5, 7.0))
TORI = [T2, T3, T3_STRETCHED]


def _torus_id(model):
    return f"T{model.dim}" + ("" if len(set(model.periods)) == 1 else "-stretched")


def eye_res(m):
    n = m.shape[0]
    return sp.frob(m - scipy.sparse.identity(n, dtype=complex))


# ---------------------------------------------------------------------------
# Laplacians


def test_torus_function_spectrum_k1():
    # enumerate k in {-1,0,1}^2, |k|^2 -> {0, 1 x4, 2 x4}
    sm, delta = sp.build_laplacian(T2, "functions", 1)
    assert np.allclose(sm.lam, [0, 1, 1, 1, 1, 2, 2, 2, 2])
    assert sp.frob(delta.matrix - scipy.sparse.diags(sm.lam)) == 0.0


def test_sphere_function_spectrum_l2():
    sm, _ = sp.build_laplacian(S2, "functions", 2)
    assert np.allclose(sm.lam, [0, 2, 2, 2, 6, 6, 6, 6, 6])


def test_potential_shifts_spectrum():
    _, delta0 = sp.build_laplacian(T2, "functions", 2)
    _, deltac = sp.build_laplacian(T2, "functions", 2, potential=0.7)
    assert np.allclose(deltac.matrix.diagonal(), delta0.matrix.diagonal() + 0.7)


def test_laplacian_returns_the_cached_basis():
    sm, _ = sp.build_laplacian(T2, "functions", 3, potential=0.7)
    assert sm is sp.basis_for(T2, "functions", 3)
    # equal models, and p by keyword or by position, share one basis
    assert sp.basis_for(geo.flat_torus(3), "forms", 2, 1) is sp.basis_for(T3, "forms", 2, p=1)


def test_cached_basis_arrays_are_read_only():
    sm = sp.basis_for(T2, "functions", 2)
    want = sp.build_laplacian(T2, "functions", 2)[1].matrix.toarray()
    empty = sp.exterior_d(T2, 2, 2).codomain
    for basis in (sm, empty):
        for name in ("lam", "modes", "components", "position"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(basis, name)[:] = 0
    got = sp.build_laplacian(T2, "functions", 2)[1].matrix
    assert got.nnz == 24 and np.array_equal(got.toarray(), want)


def test_negative_potential_raises():
    with pytest.raises(ValueError):
        sp.build_laplacian(T2, "functions", 2, potential=-0.1)


def test_potential_must_be_finite_real_and_non_negative():
    # nan gave an all-NaN diagonal (nan < 0 is False), inf an infinite one,
    # and 1j numpy's TypeError
    for bad in (np.nan, np.inf, -np.inf, 1j, np.complex128(0.5), "0.5", None, np.array([0.5])):
        with pytest.raises(ValueError, match="potential"):
            sp.build_laplacian(T2, "functions", 2, potential=bad)
    want = sp.build_laplacian(T2, "functions", 2, potential=0.5)[1].matrix
    for good in (np.float32(0.5), np.array(0.5)):
        got = sp.build_laplacian(T2, "functions", 2, potential=good)[1].matrix
        assert (got != want).nnz == 0


@pytest.mark.parametrize("model", [T2, T3, S2], ids=["T2", "T3", "S2"])
def test_basis_cutoff_must_be_a_non_negative_integer(model):
    # 2.5 raised a TypeError and -1 numpy's "negative dimensions"; 3.0 failed
    # or returned the K = 3 basis, by whether that was cached first
    sm = sp.basis_for(model, "functions", 3)
    for K in (2.5, 3.0, -1, True, "3", None):
        with pytest.raises(ValueError, match="non-negative integer"):
            sp.basis_for(model, "functions", K)
        with pytest.raises(ValueError, match="non-negative integer"):
            sp.build_laplacian(model, "functions", K)
    assert sp.basis_for(model, "functions", np.int64(3)) is sm
    assert sp.basis_for(model, "functions", 0).dim == 1


@pytest.mark.parametrize("model", [T2, T3, S2], ids=["T2", "T3", "S2"])
def test_function_and_spinor_bases_take_no_form_degree(model):
    # a degree used to cache a second basis, and on the sphere to be stored
    # and read by _locate from the wrong family table (p = 5: KeyError)
    bundles = ("functions",) if model.kind == geo.SPHERE else ("functions", "spinors")
    for bundle in bundles:
        for p in (0, 1, 5, 1.0):
            with pytest.raises(ValueError, match="form degree"):
                sp.basis_for(model, bundle, 3, p)
        sm = sp.basis_for(model, bundle, 3)
        assert sm.form_degree is None
        assert (sp._locate(sm, sm.modes, sm.components) == np.arange(sm.dim)).all()


def test_torus_form_multiplicity():
    sm, _ = sp.build_laplacian(T3, "forms", 1, p=1)
    assert sm.dim == 27 * 3
    assert sm.fiber_dim == 3


def test_unsupported_bundle_raises():
    with pytest.raises(CapabilityError):
        sp.build_laplacian(S2, "spinors", 4)
    with pytest.raises(CapabilityError):
        sp.build_laplacian(geo.hyperbolic_octagon(), "functions", 4)


def test_canonical_ordering_deterministic():
    sm1 = sp.basis_for(T2, "functions", 3)
    sm2 = sp.basis_for(geo.flat_torus(2), "functions", 3)
    assert sm1.labels == sm2.labels
    assert (np.diff(sm1.lam) >= 0).all()


# ---------------------------------------------------------------------------
# exterior calculus


@pytest.mark.parametrize("model,K,ps", [(T2, 4, (0, 1, 2)), (T3, 2, (0, 1, 2, 3)),
                                        (S2, 6, (0, 1, 2))])
def test_d_squared_zero(model, K, ps):
    for p in ps[:-1]:
        d1 = sp.exterior_d(model, p, K)
        d2 = sp.exterior_d(model, p + 1, K)
        assert sp.frob(d2.matrix @ d1.matrix) <= 1e-14


def test_torus_d_fourier_oracle():
    # d(e^{ik.x} dx_I) = sum_j i k_j dx_j ^ dx_I, checked against the wedge rule
    K = 2
    d = sp.exterior_d(T3, 1, K)
    dom, cod = d.domain, d.codomain
    k = (1, -2, 1)
    col = dom.index[("w", k, (1,))]
    column = d.matrix[:, col].toarray().ravel()
    expect = np.zeros(cod.dim, dtype=complex)
    # i k_0 dx_0 ^ dx_1 and i k_2 dx_2 ^ dx_1 = -i k_2 dx_1 ^ dx_2
    expect[cod.index[("w", k, (0, 1))]] = 1j * k[0]
    expect[cod.index[("w", k, (1, 2))]] = -1j * k[2]
    assert np.abs(column - expect).max() <= 1e-14


@pytest.mark.parametrize("model,K,n", [(T2, 3, 2), (T3, 2, 3), (S2, 5, 2)])
def test_star_involution(model, K, n):
    for p in range(n + 1):
        if model.kind == geo.SPHERE and p not in (0, 1, 2):
            continue
        s1 = sp.hodge_star(model, p, K)
        s2 = sp.hodge_star(model, n - p, K)
        sign = (-1.0) ** (p * (n - p))
        assert sp.frob(s2.matrix @ s1.matrix - sign * scipy.sparse.identity(
            s1.domain.dim, dtype=complex)) <= 1e-14


@pytest.mark.parametrize("model,K,n", [(T2, 3, 2), (T3, 2, 3), (S2, 5, 2)])
def test_codifferential_is_adjoint_and_star_formula(model, K, n):
    for p in range(1, n + 1):
        dl = sp.codifferential(model, p, K)
        d_prev = sp.exterior_d(model, p - 1, K)
        assert sp.frob(dl.matrix - d_prev.matrix.conj().T) == 0.0
        # delta = (-1)^{n(p+1)+1} star d star on p-forms
        s_p = sp.hodge_star(model, p, K)
        d_np = sp.exterior_d(model, n - p, K)
        s_back = sp.hodge_star(model, n - p + 1, K)
        sign = (-1.0) ** (n * (p + 1) + 1)
        formula = sign * (s_back.matrix @ (d_np.matrix @ s_p.matrix))
        assert sp.frob(dl.matrix - formula) <= 1e-12


@pytest.mark.parametrize("model,K,n", [(T2, 4, 2), (T3, 2, 3), (S2, 8, 2)])
def test_hodge_laplacian_identity(model, K, n):
    for p in range(n + 1):
        if model.kind == geo.SPHERE and p > 2:
            continue
        sm = sp.basis_for(model, "forms", K, p)
        d_p = sp.exterior_d(model, p, K)
        del_p = sp.codifferential(model, p, K)
        d_prev = sp.exterior_d(model, p - 1, K) if p > 0 else None
        lap = d_p.matrix.conj().T @ d_p.matrix
        if d_prev is not None:
            lap = lap + d_prev.matrix @ del_p.matrix
        assert sp.frob(lap - scipy.sparse.diags(sm.lam)) <= 1e-12


def test_delta_on_functions_is_zero_map():
    dl = sp.codifferential(T2, 0, 3)
    assert dl.matrix.shape[0] == 0


# ---------------------------------------------------------------------------
# Hodge projections


@pytest.mark.parametrize("model,K,p", [(T2, 4, 0), (T2, 4, 1), (T3, 2, 1),
                                       (S2, 8, 0), (S2, 8, 1), (S2, 8, 2),
                                       (T3, 2, 0), (T3, 2, 2), (T3, 2, 3),
                                       (T3_STRETCHED, 2, 0), (T3_STRETCHED, 2, 1),
                                       (T3_STRETCHED, 2, 2), (T3_STRETCHED, 2, 3)])
def test_hodge_projection_identities(model, K, p):
    P, Q, H = sp.hodge_projections(model, p, K)
    sm = P.domain
    ident = scipy.sparse.identity(sm.dim, dtype=complex)
    assert sp.frob(P.matrix @ P.matrix - P.matrix) <= 1e-10
    assert sp.frob(Q.matrix @ Q.matrix - Q.matrix) <= 1e-10
    assert sp.frob(P.matrix @ Q.matrix) <= 1e-10
    assert sp.frob(Q.matrix @ P.matrix) <= 1e-10
    assert sp.frob(P.matrix + Q.matrix + H.matrix - ident) <= 1e-10
    delta = scipy.sparse.diags(sm.lam)
    assert sp.frob(P.matrix @ delta - delta @ P.matrix) <= 1e-10
    # H projects onto ker Delta
    assert sp.frob(H.matrix @ delta) <= 1e-10


@pytest.mark.parametrize("model,p,want", [(T3, 1, 0), (T3, 0, 0), (T3, 3, 0),
                                          (T2, 1, 0), (S2, 0, 0), (S2, 2, 0)],
                         ids=["T3-p1", "T3-p0", "T3-p3", "T2-p1", "S2-p0", "S2-p2"])
def test_hodge_projections_assemble_each_derivative_once(monkeypatch, model, p, want):
    calls, exterior_d = [], sp.exterior_d

    def counted(model, q, K):
        calls.append(q)
        return exterior_d(model, q, K)

    monkeypatch.setattr(sp, "exterior_d", counted)
    sp.hodge_projections(model, p, 2)
    assert len(calls) == want
    assert len(set(calls)) == want


def _zero_mode_identity(sm):
    """The projection onto the zero mode of a torus basis (l = 0 on the
    sphere), as CSR."""
    mat = scipy.sparse.diags((~sm.modes.any(axis=1)).astype(complex)).tocsr()
    mat.eliminate_zeros()
    return mat


def _assert_csr_bytes_equal(a, b):
    for attr in ("data", "indices", "indptr"):
        x, y = getattr(a, attr), getattr(b, attr)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("model,K", [(T2, 4), (T3_STRETCHED, 2), (S2, 6)],
                         ids=["T2", "T3-periods", "S2"])
def test_hodge_projections_match_codifferential_construction_bitwise(model, K):
    # P and Q have the chain's pattern and sit within rounding of it, and H
    # is the exact zero-mode projection
    for p in range(model.dim + 1):
        got = sp.hodge_projections(model, p, K)
        want = oracles.hodge_chain(model, p, K)
        for op, ref in zip(got[:2], want[:2]):
            assert op.matrix.nnz == ref.nnz
            if ref.nnz:
                assert abs(op.matrix - ref).max() <= 1e-15 * abs(ref).max()
        _assert_csr_bytes_equal(got[2].matrix, _zero_mode_identity(got[2].domain))


@pytest.mark.parametrize("K", [6, 24])
def test_sphere_hodge_projections_are_exact_label_diagonals(K):
    # co-exact: the f and co families, exact: ex and v, both off l = 0; S^2 has
    # harmonic forms in degrees 0 and 2 only, the constants and the area form
    for p, harmonic in ((0, 1), (1, 0), (2, 1)):
        sm = sp.basis_for(S2, "forms", K, p)
        fams = np.array([lab[0] for lab in sm.labels])
        live = sm.modes[:, 0] >= 1
        P, Q, H = sp.hodge_projections(S2, p, K)
        for op, members in ((P, ("f", "co")), (Q, ("ex", "v"))):
            rows = np.flatnonzero(np.isin(fams, members) & live)
            _assert_csr_bytes_equal(op.matrix, scipy.sparse.csr_matrix(
                (np.ones(rows.size), (rows, rows)), shape=(sm.dim, sm.dim), dtype=complex))
        assert H.matrix.nnz == harmonic
        _assert_csr_bytes_equal(H.matrix, _zero_mode_identity(sm))


@pytest.mark.parametrize("model", TORI, ids=_torus_id)
def test_torus_harmonic_projection_is_the_zero_mode_identity(model):
    for K in (3, 8):
        for p in range(model.dim + 1):
            H = sp.hodge_projections(model, p, K)[2].matrix
            assert H.nnz == comb(model.dim, p)
            _assert_csr_bytes_equal(H, _zero_mode_identity(sp.basis_for(model, "forms", K, p)))
            assert (H @ H != H).nnz == 0


@pytest.mark.parametrize("model", TORI, ids=_torus_id)
def test_torus_hodge_symbols_are_exact_projections(model):
    n = model.dim
    dirs = np.random.default_rng(11).normal(size=(64, n))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    points = np.zeros_like(dirs)
    for p in range(n + 1):
        coexact, exact, _ = sp.hodge_projections(model, p, 2)
        ptab, qtab = coexact.symbol.table(points, dirs), exact.symbol.table(points, dirs)
        assert np.abs(ptab + qtab - np.eye(comb(n, p))).max() <= 1e-15
        if p == n:
            assert not ptab.any()
        if p == 0:
            assert not qtab.any()


def test_hodge_functions_case():
    P, Q, H = sp.hodge_projections(T2, 0, 3)
    assert sp.frob(Q.matrix) == 0.0
    assert abs(np.real(np.trace(H.matrix.toarray())) - 1.0) < 1e-12


def test_torus2_harmonic_one_forms():
    _, _, H = sp.hodge_projections(T2, 1, 4)
    assert round(np.real(np.trace(H.matrix.toarray()))) == 2  # b_1(T^2) = 2


def test_torus3_rank_oracle_k1():
    # per-mode oracle: 26 nonzero modes, rank P = 2 per mode, rank Q = 1
    P, Q, H = sp.hodge_projections(T3, 1, 1)
    assert round(np.real(np.trace(P.matrix.toarray()))) == 52
    assert round(np.real(np.trace(Q.matrix.toarray()))) == 26
    assert round(np.real(np.trace(H.matrix.toarray()))) == 3  # b_1(T^3)


# ---------------------------------------------------------------------------
# helicity


def test_helicity_square_is_coexact_projection():
    R = sp.helicity_R(T3, 2)
    P, _, _ = sp.hodge_projections(T3, 1, 2)
    assert sp.frob(R.matrix @ R.matrix - P.matrix) <= 1e-10
    assert sp.frob(R.matrix @ P.matrix - P.matrix @ R.matrix) <= 1e-10
    delta = scipy.sparse.diags(R.domain.lam)
    assert sp.frob(R.matrix @ delta - delta @ R.matrix) <= 1e-10


def test_helicity_shell_eigenvalues():
    R = sp.helicity_R(T3, 2)
    for k in [(1, 0, 0), (1, 1, 0), (2, 1, -1)]:
        block, _ = sp.mode_block(R, k)
        vals = np.sort(np.linalg.eigvalsh(block))
        assert np.abs(vals - np.array([-1.0, 0.0, 1.0])).max() <= 1e-12


def test_helicity_kills_harmonics():
    R = sp.helicity_R(T3, 1)
    block, _ = sp.mode_block(R, (0, 0, 0))
    assert np.abs(block).max() == 0.0


def test_helicity_anticommutes_with_reflection():
    K = 2
    R = sp.helicity_R(T3, K)
    sm = R.domain
    rows, cols, vals = [], [], []
    for i, (_, k, comp) in enumerate(sm.labels):
        k2 = (-k[0], k[1], k[2])
        rows.append(sm.index[("w", k2, comp)])
        cols.append(i)
        vals.append(-1.0 if comp == (0,) else 1.0)
    theta = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(sm.dim, sm.dim))
    assert sp.frob(theta @ R.matrix + R.matrix @ theta) <= 1e-12


def test_helicity_symbol_traceless_and_squares():
    rng = np.random.default_rng(0)
    for _ in range(5):
        xi = rng.normal(size=3)
        xi /= np.linalg.norm(xi)
        m = sp.helicity_symbol(None, xi)
        assert abs(np.trace(m)) <= 1e-15
        proj = np.eye(3) - np.outer(xi, xi)
        assert np.abs(m @ m - proj).max() <= 1e-14


def test_helicity_requires_t3():
    with pytest.raises(CapabilityError):
        sp.helicity_R(T2, 3)


# ---------------------------------------------------------------------------
# Dirac


def test_dirac_zero_mode_kernel():
    sm, D = sp.build_dirac(T2, 2)
    block, _ = sp.mode_block(D, (0, 0))
    assert np.abs(block).max() == 0.0


def test_dirac_block_eigenvalues():
    # Pauli block eigensolve: eigenvalues +-|kappa| per mode
    _, D = sp.build_dirac(T2, 2)
    for k in [(1, 0), (1, 1), (2, -1)]:
        block, _ = sp.mode_block(D, k)
        kappa = np.linalg.norm(k)
        assert np.allclose(np.sort(np.linalg.eigvalsh(block)),
                           [-kappa, kappa], atol=1e-12)


def test_dirac_square_is_laplacian():
    for model, K in ((T2, 3), (T3, 2)):
        sm, D = sp.build_dirac(model, K)
        sq = D.matrix @ D.matrix
        assert sp.frob(sq - scipy.sparse.diags(sm.lam)) <= 1e-12
        assert D.adjoint_defect() <= 1e-12


def test_dirac_spectrum_multiplicity():
    sm, D = sp.build_dirac(T2, 2)
    smf, _ = sp.build_laplacian(T2, "functions", 2)
    dirac_sq = np.sort(np.linalg.eigvalsh(D.dense()) ** 2)
    scalar = np.sort(np.repeat(smf.lam, 2))
    assert np.allclose(dirac_sq, scalar, atol=1e-12)


def test_sign_blocks_are_clifford_directions():
    cl = alg.build_clifford(2)
    _, D = sp.build_dirac(T2, 3)
    sign, p_plus, p_minus = sp.sign_and_halves(D)
    for k in [(1, 0), (2, 1), (-1, 2)]:
        block, _ = sp.mode_block(sign, k)
        expect = alg.clifford_mult(cl, np.array(k) / np.linalg.norm(k))
        assert np.abs(block - expect).max() <= 1e-12


def test_sign_and_halves_identities():
    _, D = sp.build_dirac(T3, 2)
    sign, p_plus, p_minus = sp.sign_and_halves(D)
    sm = D.domain
    kernel = scipy.sparse.diags((sm.lam == 0).astype(complex))
    ident = scipy.sparse.identity(sm.dim, dtype=complex)
    assert sp.frob(sign.matrix @ sign.matrix - (ident - kernel)) <= 1e-12
    assert sp.frob(p_plus.matrix + p_minus.matrix - (ident - kernel)) <= 1e-12
    absd = scipy.sparse.diags(np.sqrt(sm.lam))
    for p in (p_plus, p_minus):
        assert sp.frob(p.matrix @ p.matrix - p.matrix) <= 1e-12
        assert sp.frob(p.matrix @ absd - absd @ p.matrix) <= 1e-12


def test_half_projections_balance_per_shell():
    sm, D = sp.build_dirac(T2, 3)
    _, p_plus, p_minus = sp.sign_and_halves(D)
    dp = p_plus.matrix.diagonal()
    dm = p_minus.matrix.diagonal()
    for lam in sorted(set(np.round(sm.lam, 9))):
        if lam == 0:
            continue
        idx = np.nonzero(np.round(sm.lam, 9) == lam)[0]
        assert abs(dp[idx].sum() - dm[idx].sum()) <= 1e-12


# ---------------------------------------------------------------------------
# mode blocks against principal symbols: an order-0 operator's block at mode k
# is its symbol at kappa / |kappa|, and the Dirac block is |kappa| times it

SYMBOL_MODES = {2: [(1, 0), (2, -1), (-3, 1)], 3: [(1, 0, 0), (1, -2, 1), (0, 3, -1)]}


def _unit_directions(model):
    for k in SYMBOL_MODES[model.dim]:
        kappa = _kappa(model, k)
        yield k, np.linalg.norm(kappa), kappa / np.linalg.norm(kappa)


@pytest.mark.parametrize("model", TORI, ids=_torus_id)
def test_hodge_mode_blocks_are_their_symbols(model):
    for p in range(model.dim + 1):
        coexact, exact, _ = sp.hodge_projections(model, p, 3)
        for k, _, xi in _unit_directions(model):
            for op in (coexact, exact):
                block, _ = sp.mode_block(op, k)
                assert np.abs(block - op.symbol(None, xi)).max() <= 1e-14


@pytest.mark.parametrize("model", TORI[1:], ids=_torus_id)
def test_helicity_mode_blocks_are_its_symbol(model):
    R = sp.helicity_R(model, 3)
    for k, _, xi in _unit_directions(model):
        block, _ = sp.mode_block(R, k)
        assert np.abs(block - R.symbol(None, xi)).max() <= 1e-14


@pytest.mark.parametrize("model", TORI, ids=_torus_id)
def test_dirac_mode_blocks_are_clifford_multiplication(model):
    cl = alg.build_clifford(model.dim)
    _, D = sp.build_dirac(model, 3)
    for k, size, xi in _unit_directions(model):
        block, _ = sp.mode_block(D, k)
        assert np.abs(block / size - alg.clifford_mult(cl, xi)).max() <= 1e-14
        assert np.array_equal(D.symbol(None, xi), alg.clifford_mult(cl, xi))


def _library_symbols(model):
    """(name, symbol) of every symbol the library attaches on a torus."""
    _, D = sp.build_dirac(model, 2)
    _, plus, minus = sp.sign_and_halves(D)
    out = [("D", D.symbol), ("P+", plus.symbol), ("P-", minus.symbol)]
    for p in range(model.dim + 1):
        coexact, exact, _ = sp.hodge_projections(model, p, 2)
        out += [(f"P{p}", coexact.symbol), (f"Q{p}", exact.symbol)]
    for bundle, p in (("functions", None), ("forms", 1), ("spinors", None)):
        out.append((f"laplacian-{bundle}", sp.build_laplacian(model, bundle, 2, p=p)[1].symbol))
    if model.dim == 3:
        out.append(("helicity", sp.helicity_R(model, 2).symbol))
    return out


@pytest.mark.parametrize("model", TORI[:2], ids=_torus_id)
def test_library_symbol_call_is_a_row_of_its_table(model):
    points, dirs, _ = geo.unit_bundle_nodes(model, 4)
    for name, sym in _library_symbols(model):
        assert sym.batched, name
        table = sym.table(points, dirs)
        m = sym.fiber_dim
        assert table.shape == (len(dirs), m, m) and table.dtype == complex, name
        for i in range(0, len(dirs), 37):
            assert np.abs(sym(points[i], dirs[i]) - table[i]).max() <= 1e-15, name
        # any batch shape (..., n)
        half = len(dirs) // 2
        stacked = sym.table(points.reshape(2, half, -1), dirs.reshape(2, half, -1))
        assert np.abs(stacked.reshape(table.shape) - table).max() <= 1e-15, name


@pytest.mark.parametrize("model", TORI[:2], ids=_torus_id)
def test_halves_of_a_per_point_dirac_symbol_are_batched(model):
    cl = alg.build_clifford(model.dim)
    _, D = sp.build_dirac(model, 2)
    per_point = sp.SymbolField(lambda x, xi: alg.clifford_mult(cl, xi), D.symbol.fiber_dim)
    halves = sp.sign_and_halves(dataclasses.replace(D, symbol=per_point))[1:]
    points, dirs, _ = geo.unit_bundle_nodes(model, 4)
    for half, library in zip(halves, sp.sign_and_halves(D)[1:]):
        assert half.symbol.batched
        want = library.symbol.table(points, dirs)
        assert half.symbol.table(points, dirs).tobytes() == want.tobytes()


def test_per_point_symbol_table_rejects_a_wrong_sized_value():
    points, dirs, _ = geo.unit_bundle_nodes(T2, 4)
    good = sp.SymbolField(lambda x, xi: np.outer(xi, xi), 2)
    table = good.table(points, dirs)
    assert np.array_equal(table, [good(x, xi) for x, xi in zip(points, dirs)])
    with pytest.raises(ValueError):
        sp.SymbolField(lambda x, xi: xi[0], 2).table(points, dirs)
    with pytest.raises(ValueError):
        sp.SymbolField(lambda x, xi: np.eye(3), 2).table(points, dirs)


# ---------------------------------------------------------------------------
# Fourier multipliers against the product chains they replace


@pytest.mark.parametrize("model", TORI, ids=_torus_id)
def test_multipliers_match_the_product_chain_oracles(model):
    K = 4
    _, D = sp.build_dirac(model, K)
    ref_d = oracles.dirac_einsum(model, K)
    pairs = [(D, ref_d)] + list(zip(sp.sign_and_halves(D),
                                    oracles.sign_and_halves_through_square(ref_d)))
    if model.dim == 3:
        pairs.append((sp.helicity_R(model, K), oracles.helicity_chain(model, K)))
    for op, ref in pairs:
        assert op.matrix.nnz == ref.nnz
        assert abs(op.matrix - ref).max() <= 1e-15 * abs(ref).max()


@pytest.mark.parametrize("model", TORI, ids=_torus_id)
def test_hodge_projections_are_the_multipliers_of_their_symbols(model):
    for p in range(model.dim + 1):
        for op in sp.hodge_projections(model, p, 3)[:2]:
            _assert_csr_bytes_equal(sp.multiplier(op.domain, op.symbol, 0).matrix, op.matrix)


@pytest.mark.parametrize("model", TORI, ids=_torus_id)
def test_identity_multiplier_of_order_two_is_the_laplacian(model):
    for bundle, p in (("functions", None), ("forms", 1), ("spinors", None)):
        sm, lap = sp.build_laplacian(model, bundle, 3, p=p)
        got = sp.multiplier(sm, lap.symbol, 2)
        assert got.order == 2 and got.symbol is lap.symbol
        want = scipy.sparse.diags(sm.lam).tocsr().astype(complex)
        assert want.nnz == sm.dim - sm.fiber_dim
        _assert_csr_bytes_equal(got.matrix, want)


def test_multiplier_rejects_sphere_bases_and_other_fiber_ranks():
    _, lap = sp.build_laplacian(S2, "functions", 3)
    with pytest.raises(CapabilityError):
        sp.multiplier(lap.domain, lap.symbol, 2)
    _, D = sp.build_dirac(T3, 2)
    with pytest.raises(ValueError, match="fiber rank"):
        sp.multiplier(sp.basis_for(T3, "forms", 2, 1), D.symbol, 1)


def test_sign_and_halves_without_a_symbol_raises():
    _, D = sp.build_dirac(T2, 2)
    with pytest.raises(ValueError, match="symbol"):
        sp.sign_and_halves(dataclasses.replace(D, symbol=None))


@pytest.mark.parametrize("model", [T2, T3], ids=["T2", "T3"])
def test_sign_and_halves_read_one_table_of_the_symbol(model):
    # S and both halves from one evaluation of D's symbol; the halves keep
    # the symbols (1 +- s)/2
    _, D = sp.build_dirac(model, 3)
    calls = []

    def counted(x, xi):
        calls.append(xi.shape)
        return D.symbol.evaluator(x, xi)

    sym = sp.SymbolField(counted, D.symbol.fiber_dim, batched=True)
    S, plus, minus = sp.sign_and_halves(dataclasses.replace(D, symbol=sym))
    assert len(calls) == 1
    assert S.symbol is sym
    xi = np.eye(model.dim)
    s = D.symbol.table(np.zeros_like(xi), xi)
    eye = np.eye(D.symbol.fiber_dim)
    assert np.array_equal(plus.symbol.table(np.zeros_like(xi), xi), 0.5 * (eye + s))
    assert np.array_equal(minus.symbol.table(np.zeros_like(xi), xi), 0.5 * (eye - s))


def test_unit_covectors_are_one_read_only_table_per_basis():
    sm = sp.basis_for(T2, "functions", 4)
    xi = sp._unit_covectors(sm)
    assert sp._unit_covectors(sm) is xi and not xi.flags.writeable
    # a multiplier's symbol reads that table at the modes k != 0, and its
    # placement is one read-only pattern per (basis, basis, shifts)
    seen = []

    def sym(x, v):
        seen.append(v)
        return np.ones(v.shape[:-1] + (1, 1))

    sp.multiplier(sm, sp.SymbolField(sym, 1, batched=True), 0)
    assert len(seen) == 1 and np.array_equal(seen[0], xi[sm.lam > 0])
    assert np.shares_memory(seen[0], xi)
    pattern = sp._block_pattern(sm, sm, ((0, 0),))
    assert sp._block_pattern(sm, sm, ((0, 0),)) is pattern
    assert not any(a.flags.writeable for a in pattern if a is not None)
    assert pattern[-1] is None  # one shift of dense blocks is in CSR order


def test_a_multiplier_pruned_in_place_leaves_later_builds_intact():
    def build():
        _, D = sp.build_dirac(T3, 2)
        return [D.matrix] + [op.matrix for op in sp.sign_and_halves(D)]

    before = build()
    edited = sp.build_dirac(T3, 2)[1].matrix
    edited.data[:] = 0
    edited.eliminate_zeros()
    assert edited.nnz == 0
    for old, new in zip(before, build()):
        _assert_csr_bytes_equal(new, old)


# ---------------------------------------------------------------------------
# quantization


def test_quantize_constant_symbol():
    op = sp.quantize(T2, sp.direction_symbol(lambda xi: 1.0, dim=2), 3)
    sm = op.domain
    diag = op.matrix.diagonal()
    zero = sm.index[("f", (0, 0))]
    assert diag[zero] == 0.0
    mask = np.ones(sm.dim, bool)
    mask[zero] = False
    assert np.allclose(diag[mask], 1.0)
    assert op.matrix.nnz == sm.dim - 1


def test_quantize_cosine_shift_halves():
    op = sp.quantize(T2, sp.cosine_symbol(axis=0, dim=2), 3)
    sm = op.domain
    a = sm.index[("f", (2, 1))]
    b = sm.index[("f", (1, 1))]
    assert op.matrix[a, b] == 0.5
    assert op.matrix[b, a] == 0.5
    assert op.matrix[sm.index[("f", (1, 1))], sm.index[("f", (0, 0))]] == 0.0


def test_quantize_multiplier_diagonal():
    op = sp.quantize(T2, sp.direction_symbol(lambda xi: xi[0] ** 2, dim=2), 3)
    sm = op.domain
    for k in [(1, 0), (1, 2), (-3, 1)]:
        i = sm.index[("f", k)]
        expect = k[0] ** 2 / (k[0] ** 2 + k[1] ** 2)
        assert abs(op.matrix[i, i] - expect) <= 1e-14


def test_constant_coefficient_quantization_selfadjoint():
    # direction-independent coefficients give an exactly symmetric matrix
    op = sp.quantize(T2, sp.cosine_symbol(axis=0, dim=2), 8)
    assert op.adjoint_defect() == 0.0


def test_quantize_adjoint_defect_has_order_minus_one():
    # a = cos(x_1) xi_1/|xi| is real, so Op(a)* - Op(a) measures the ordering
    # defect; its dyadic shell norms decay like 1/Lambda
    sym = sp.TrigSymbol(terms={(1, 0): lambda xi: 0.5 * xi[0],
                               (-1, 0): lambda xi: 0.5 * xi[0]}, dim=2)
    op = sp.quantize(T2, sym, 18)
    defect = (op.matrix.conj().T - op.matrix).tocsr()
    norms = []
    for lo in (4, 8):
        idx = sp.shell_indices(op.domain, lo, 2 * lo)
        sub = defect[np.ix_(idx, idx)]
        norms.append(sp.spectral_norm(sub))
    assert norms[0] > 0
    ratio = norms[1] / norms[0]
    assert 0.3 <= ratio <= 0.7


def test_quantize_norm_bounded_across_cutoffs():
    sym = sp.cosine_symbol(axis=0, dim=2)
    n1 = sp.spectral_norm(sp.quantize(T2, sym, 8).matrix)
    n2 = sp.spectral_norm(sp.quantize(T2, sym, 16).matrix)
    c_measured = abs(n2 - n1) * 8
    assert c_measured <= 5.0


def test_quantize_rejects_bad_input():
    with pytest.raises(CapabilityError):
        sp.quantize(S2, sp.cosine_symbol(), 4)
    with pytest.raises(ValueError):
        sp.quantize(T2, "not a symbol", 4)
    with pytest.raises(ValueError):
        sp.quantize(T3, sp.cosine_symbol(axis=0, dim=2), 4)
    # a frequency that is no mode difference: int() would truncate it to 0
    half = sp.TrigSymbol(terms={(0.5, 0): lambda xi: 1.0}, dim=2)
    with pytest.raises(ValueError, match="integer"):
        sp.quantize(T2, half, 4)
    with pytest.raises(ValueError, match="integer"):
        lm.egorov_residual(T2, half, 1.0, 1, 4)
    # a frequency of the wrong length is rejected, not broadcast, before
    # any coefficient call
    calls = []
    short = sp.TrigSymbol(terms={(0, 0): lambda xi: calls.append(xi) or 1.0,
                                 (1,): lambda xi: calls.append(xi) or 1.0}, dim=2)
    with pytest.raises(ValueError, match="integer 2-vector"):
        sp.quantize(T2, short, 3)
    with pytest.raises(ValueError, match="integer 2-vector"):
        lm.egorov_residual(T2, short, 1.0, 2, 8)
    with pytest.raises(ValueError, match="integer 2-vector"):
        sp.quantize(T2, sp.TrigSymbol(terms={(1, 0, 0): lambda xi: 1.0}, dim=2), 3)
    assert calls == []
    # the Egorov residual's shell-only quantization makes the same checks
    with pytest.raises(CapabilityError):
        lm.egorov_residual(S2, sp.cosine_symbol(), 1.0, 2, 4)
    with pytest.raises(ValueError, match="TrigSymbol"):
        lm.egorov_residual(T2, "not a symbol", 1.0, 1, 4)
    with pytest.raises(ValueError, match="dimension"):
        lm.egorov_residual(T3, sp.cosine_symbol(axis=0, dim=2), 1.0, 1, 4)
    # a coefficient takes one covector and returns one scalar
    for coeff in (lambda xi: xi, lambda xi: [1.0]):
        sym = sp.TrigSymbol(terms={(0, 0): lambda xi: 1.0, (1, 0): coeff}, dim=2)
        with pytest.raises(ValueError, match="one scalar per covector"):
            sp.quantize(T2, sym, 3)
        with pytest.raises(ValueError, match="one scalar per covector"):
            lm.egorov_residual(T2, sym, 1.0, 2, 8)


def test_quantize_rejects_non_finite_coefficients():
    # one NaN coefficient value used to store 40 NaN entries at K = 3
    for bad in (np.nan, np.inf, complex(1.0, np.nan)):
        sym = sp.TrigSymbol(terms={(1, 0): lambda xi: 1.0,
                                   (0, 1): lambda xi, bad=bad: bad if xi[0] > 0 else 0.5},
                            dim=2)
        with pytest.raises(ValueError, match="finite values"):
            sp.quantize(T2, sym, 3)
        with pytest.raises(ValueError, match="finite values"):
            lm.egorov_residual(T2, sym, 1.0, 2, 8)


@pytest.mark.parametrize("model", TORI + [S2],
                         ids=lambda m: "S2" if m.kind == geo.SPHERE else _torus_id(m))
def test_torus_form_degrees_outside_0_to_n_are_rejected(model):
    n = model.dim
    for p in (-1, n + 1, None, 0.5, "1"):
        with pytest.raises(ValueError, match=f"0 <= p <= {n}"):
            sp.basis_for(model, "forms", 2, p)
    with pytest.raises(ValueError, match=f"0 <= p <= {n}"):
        sp.hodge_projections(model, n + 1, 2)
    # a degree equal to an integer is that integer, whichever comes first
    for K, p in ((5, 1.0), (6, True)):
        assert type(sp.basis_for(model, "forms", K, p).form_degree) is int
    # d on n-forms still maps to the empty (n + 1)-form model
    d = sp.exterior_d(model, n, 2)
    assert d.matrix.shape == (0, d.domain.dim) and d.codomain.fiber_dim == 0


# ---------------------------------------------------------------------------
# multiplication on the sphere and heat traces


def test_sphere_multiplication_z2_oracle():
    # quadrature oracle: <Y_10 | z^2 | Y_10> = 3/5
    op = sp.sphere_multiplication(4, lambda th, ph: np.cos(th) ** 2)
    sm = op.domain
    i = sm.index[("f", (1, 0))]
    assert abs(op.matrix[i, i] - 0.6) <= 1e-12
    assert op.adjoint_defect() <= 1e-12


def test_heat_trace_identity_and_symmetry():
    sm = sp.basis_for(T2, "functions", 6)
    ident = sp.OperatorMatrix(matrix=scipy.sparse.identity(sm.dim, dtype=complex),
                              order=0, domain=sm)
    out = lm.evaluate(lm.heat_state(sm, 0.5), ident)
    assert out.value == pytest.approx(1.0, abs=1e-14)
    op = sp.quantize(T2, sp.cosine_symbol(axis=0, dim=2), 6)
    out = lm.evaluate(lm.heat_state(sm, 0.5), op)
    assert abs(out.value) <= 1e-14


def test_heat_trace_sphere_z2_to_liouville():
    L = 16
    op = sp.sphere_multiplication(L, lambda th, ph: np.cos(th) ** 2)
    sm = op.domain
    t0 = lm.heat_time_floor(sm)
    vals = [lm.evaluate(lm.heat_state(sm, t), op) for t in (4 * t0, 2 * t0, t0)]
    errs = [abs(v.value - 1.0 / 3.0) for v in vals]
    assert errs[-1] <= 2e-2
    report = lm.compare_states(sm, op, t_ladder=[4 * t0, 2 * t0, t0, 0.25 * t0])
    assert [reliable for *_, reliable in report.heat_rows] == [True, True, True, False]


def test_compose_cutoff_mismatch():
    d4 = sp.exterior_d(T2, 0, 4)
    d5 = sp.exterior_d(T2, 1, 5)
    with pytest.raises(ValueError):
        sp.compose(d5, d4)
    ok = sp.compose(sp.exterior_d(T2, 1, 4), d4)
    assert sp.frob(ok.matrix) <= 1e-14


# ---------------------------------------------------------------------------
# array-first assembly against per-label reference loops


def _perm_sign(seq):
    return (-1) ** sum(a > b for i, a in enumerate(seq) for b in seq[i + 1:])


def _kappa(model, k):
    return 2.0 * np.pi * np.asarray(k, dtype=float) / np.asarray(model.periods)


def _ref_exterior_d(model, p, K):
    dom = sp.basis_for(model, "forms", K, p)
    cod = sp.basis_for(model, "forms", K, p + 1)
    out = {}
    for col, lab in enumerate(dom.labels):
        if model.kind == geo.TORUS:
            _, k, comp = lab
            for j in range(model.dim):
                if j not in comp:
                    row = cod.index[("w", k, tuple(sorted(comp + (j,))))]
                    out[row, col] = 1j * _kappa(model, k)[j] * _perm_sign((j,) + comp)
        else:
            fam, (l, m) = lab
            if p == 0 and l >= 1:
                out[cod.index[("ex", (l, m))], col] = np.sqrt(l * (l + 1.0))
            elif p == 1 and fam == "co":
                out[cod.index[("v", (l, m))], col] = -np.sqrt(l * (l + 1.0))
    return out


def _ref_hodge_star(model, p, K):
    n = model.dim
    dom = sp.basis_for(model, "forms", K, p)
    cod = sp.basis_for(model, "forms", K, n - p)
    star = {"f": ("v", 1.0), "v": ("f", 1.0), "ex": ("co", 1.0), "co": ("ex", -1.0)}
    out = {}
    for col, lab in enumerate(dom.labels):
        if model.kind == geo.TORUS:
            _, k, comp = lab
            comp_c = tuple(i for i in range(n) if i not in comp)
            out[cod.index[("w", k, comp_c)], col] = float(_perm_sign(comp + comp_c))
        else:
            fam, lm = lab
            out[cod.index[(star[fam][0], lm)], col] = star[fam][1]
    return out


def _ref_dirac(model, K):
    sm = sp.basis_for(model, "spinors", K)
    cl = alg.build_clifford(model.dim)
    out = {}
    for row, (_, k, a) in enumerate(sm.labels):
        block = alg.clifford_mult(cl, _kappa(model, k))
        for b in range(sm.fiber_dim):
            if block[a, b] != 0:
                out[row, sm.index[("s", k, b)]] = block[a, b]
    return out


def _ref_quantize(model, symbol, K):
    sm = sp.basis_for(model, "functions", K)
    out = {}
    for nu, coeff in symbol.terms.items():
        for col, (_, k) in enumerate(sm.labels):
            k2 = tuple(a + b for a, b in zip(k, nu))
            if any(k) and any(k2) and ("f", k2) in sm.index:
                kappa = _kappa(model, k)
                xi = kappa / np.linalg.norm(kappa)
                c = coeff(xi)
                for t in symbol.pushes:
                    c *= np.exp(-1j * t * (np.asarray(nu) @ xi))
                if c != 0:
                    out[sm.index[("f", k2)], col] = complex(c)
    return out


def _ref_sphere_multiplication(L, fn):
    """The dense product of harmonics and multiplier over every grid node."""
    sm = sp.basis_for(S2, "functions", L)
    th, ph, w = sp._sphere_grid(L)
    y = sph_harm_y(sm.modes[:, :1], sm.modes[:, 1:], th, ph)
    f = np.asarray([fn(t, p) for t, p in zip(th, ph)], dtype=complex)
    return (y.conj() * (w * f)) @ y.T


def _assert_same_entries(mat, ref):
    coo = mat.tocoo()
    got = {(r, c): v for r, c, v in zip(coo.row.tolist(), coo.col.tolist(), coo.data)}
    assert mat.nnz == len(ref)
    assert got.keys() == ref.keys()
    assert max((abs(got[key] - val) for key, val in ref.items()), default=0.0) <= 1e-15


@pytest.mark.parametrize("model,K", [(T2, 3), (T3, 2), (S2, 4),
                                     (geo.flat_torus(3, periods=(1.0, 2.5, 7.0)), 2)])
def test_exterior_calculus_matches_per_label_reference(model, K):
    for p in range(model.dim):
        _assert_same_entries(sp.exterior_d(model, p, K).matrix,
                             _ref_exterior_d(model, p, K))
    for p in range(model.dim + 1):
        _assert_same_entries(sp.hodge_star(model, p, K).matrix,
                             _ref_hodge_star(model, p, K))


@pytest.mark.parametrize("model,K", [(T2, 3), (T3, 2)])
def test_dirac_matches_per_label_reference(model, K):
    _, D = sp.build_dirac(model, K)
    _assert_same_entries(D.matrix, _ref_dirac(model, K))


_QUANTIZE_CASES = [
    (T2, sp.cosine_symbol(axis=0, dim=2), (2, 5)), (T2, sp.cosine_symbol(axis=1, dim=2), (2, 5)),
    (T2, sp.direction_symbol(lambda xi: xi[0] ** 2 + 0.5j * xi[1], dim=2), (2, 5)),
    (T2, sp.TrigSymbol(terms={(2, 1): lambda xi: xi[1] - 0.5, (0, 0): lambda xi: 0.0,
                              (-1, 0): lambda xi: 0.3 * xi[0]}, dim=2), (2, 5)),
] + [(model, symbol, (1, 3)) for model in (T3, T3_STRETCHED) for symbol in (
    sp.cosine_symbol(axis=2, dim=3),
    sp.TrigSymbol(terms={(1, -2, 0): lambda xi: xi[2] - 0.5j * xi[0], (0, 0, 0): lambda xi: 0.0,
                         (0, 1, 1): lambda xi: 0.3 * xi[1] * xi[2],
                         (-1, 0, 2): lambda xi: 1.0 + xi[0]}, dim=3))]


@pytest.mark.parametrize("model,symbol,cutoffs", _QUANTIZE_CASES,
                         ids=["cos0", "cos1", "direction", "mixed", "T3-cos2", "T3-mixed",
                              "T3-stretched-cos2", "T3-stretched-mixed"])
def test_quantize_matches_per_label_reference(model, symbol, cutoffs):
    for K in cutoffs:
        _assert_same_entries(sp.quantize(model, symbol, K).matrix,
                             _ref_quantize(model, symbol, K))
        pushed = symbol.pushed(0.7)
        _assert_same_entries(sp.quantize(model, pushed, K).matrix,
                             _ref_quantize(model, pushed, K))


class _Counted:
    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, xi):
        self.calls += 1
        return self.fn(xi)


def test_a_pushed_symbol_keeps_its_terms_and_records_its_times():
    terms = {(1, 0): _Counted(lambda xi: 0.7 * xi[0] ** 2),
             (-1, 2): _Counted(lambda xi: 0.2 - 0.4j * xi[1]),
             (0, 0): _Counted(lambda xi: xi[0] * xi[1])}
    sym = sp.TrigSymbol(terms=terms, dim=2)
    twice = sym.pushed(0.35).pushed(-1.2)
    assert twice.pushes == (0.35, -1.2) and sym.pushes == ()
    assert twice.terms.keys() == terms.keys()
    assert all(twice.terms[nu] is c for nu, c in terms.items())
    rng = np.random.default_rng(5)
    x = rng.uniform(0, 2 * np.pi, size=(4, 3, 2))
    xi = rng.normal(size=(4, 3, 2))
    xi /= np.linalg.norm(xi, axis=-1, keepdims=True)
    table = twice.field().table(x, xi)
    assert table.shape == (4, 3, 1, 1)
    assert [c.calls for c in terms.values()] == [12] * 3  # once per node and term
    for i, j in np.ndindex(4, 3):
        nu_x = {nu: np.asarray(nu) @ x[i, j] for nu in terms}
        want = sum(c.fn(xi[i, j]) * np.exp(1j * nu_x[nu])
                   * np.exp(-1j * 0.35 * (np.asarray(nu) @ xi[i, j]))
                   * np.exp(-1j * -1.2 * (np.asarray(nu) @ xi[i, j])) for nu, c in terms.items())
        assert abs(table[i, j, 0, 0] - want) <= 1e-15


def test_push_times_must_be_finite_and_real():
    # NaN gave a quantization of 140 NaN entries, 1j a non-unitary phase
    terms = {(1, 0): _Counted(lambda xi: 0.5), (-1, 0): _Counted(lambda xi: 0.5)}
    sym = sp.TrigSymbol(terms=terms, dim=2)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="not finite"):
            sym.pushed(bad)
    for bad in (1j, np.complex128(0.5), "0.5", None, np.array([0.5]), np.array(0.5j)):
        with pytest.raises(ValueError, match="not real"):
            sym.pushed(bad)
    assert [c.calls for c in terms.values()] == [0, 0]
    for good in (np.float32(0.5), np.array(0.5), Fraction(1, 2), 1):
        assert sym.pushed(good).pushes == (float(good),)
    a = sp.quantize(T2, sym.pushed(np.array(0.5)), 4).matrix
    assert (a != sp.quantize(T2, sym.pushed(0.5), 4).matrix).nnz == 0


def test_a_potential_is_any_finite_real_number_as_a_time_is():
    want = sp.build_laplacian(T2, "functions", 2, potential=0.5)[1].matrix
    got = sp.build_laplacian(T2, "functions", 2, potential=Fraction(1, 2))[1].matrix
    assert (got != want).nnz == 0
    sm = sp.basis_for(T2, "functions", 2)
    assert lm.heat_state(sm, Fraction(1, 2)).t == 0.5
    with pytest.raises(ValueError, match=">= 0"):
        sp.build_laplacian(T2, "functions", 2, potential=Fraction(-1, 2))


_SPHERE_MULTIPLIERS = {
    "real": lambda th, ph: 0.3 - 0.7 * np.cos(th) + 1.1 * np.cos(th) ** 2
    + 0.45 * np.sin(th) * np.cos(ph),
    "complex": lambda th, ph: np.exp(np.sin(3 * ph) * np.cos(th)) + 1j * np.cos(5 * th + ph),
}


@pytest.mark.parametrize("L", [0, 4, 6, 16, 24])
def test_sphere_multiplication_matches_dense_grid_product(L):
    for fn in _SPHERE_MULTIPLIERS.values():
        got = sp.sphere_multiplication(L, fn).matrix
        assert got.shape == ((L + 1) ** 2, (L + 1) ** 2)
        assert np.abs(got.toarray() - _ref_sphere_multiplication(L, fn)).max() <= 1e-13
    # the quadrature's own orthonormality defect: 1.6e-14 at L = 16 (dense product too)
    one = sp.sphere_multiplication(L, lambda th, ph: 1.0).matrix
    assert np.abs(one.toarray() - np.eye((L + 1) ** 2)).max() <= 2e-14


def test_sphere_multiplication_gaunt_oracle():
    # <Y_1^{+-1}, sin(theta) cos(phi) Y_0^0> = -+1/sqrt(6) in scipy's phase convention
    op = sp.sphere_multiplication(4, lambda th, ph: np.sin(th) * np.cos(ph))
    col = op.domain.index[("f", (0, 0))]
    for m, want in ((1, -1.0), (-1, 1.0)):
        got = op.matrix[op.domain.index[("f", (1, m))], col]
        assert abs(got - want / np.sqrt(6.0)) <= 1e-14


def _sphere_peak(L, fn):
    """tracemalloc's peak over one `sphere_multiplication` after a warm-up call."""
    sp.sphere_multiplication(L, fn)
    tracemalloc.start()
    try:
        sp.sphere_multiplication(L, fn)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sphere_multiplication_memory_peak():
    peak = _sphere_peak(24, _SPHERE_BANDS["indicator"][0])
    polar = sp._sphere_polar(24)
    assert polar.dtype == np.float64 and polar.shape == (625, 32)
    # a basis-by-grid temporary (625 x 1,792 complex) alone takes 18 MB
    assert peak <= 16e6


def test_sphere_multiplication_band_limited_memory_peak():
    # phi-degree 1 at L = 24: 31,225 stored entries, against 390,625 (11.3 MB) when all were
    assert _sphere_peak(24, _SPHERE_MULTIPLIERS["real"]) <= 3e6


def _ring_nearest_pole(L):
    return sp._sphere_grid(L)[0][0]


def _band_on_polar_ring(th, ph):
    """1 off the ring nearest the south pole at L = 4 and 24, and
    32 eps cos(phi) on it: phi-band 1 carries 16 eps there, and the Gauss
    weight of that ring is 0.19 (L = 4) and 0.07 (L = 24) of the largest."""
    if th in (_ring_nearest_pole(4), _ring_nearest_pole(24)):
        return 32 * np.finfo(float).eps * np.cos(ph)
    return 1.0


# Multipliers by name: fn and the largest |m - m'| of their live phi-bands
# (None: no band is live).  "faint" carries its phi-band at 1e-13 of its
# largest value.  An indicator of phi < 1 covers 3 of 16 and 9 of 56
# azimuths, so no phi-band of it vanishes at L = 4 or 24.
_SPHERE_BANDS = {
    "degree-1": (_SPHERE_MULTIPLIERS["real"], 1),
    "faint": (lambda th, ph: 1.0 + 1e-13 * np.sin(th) * np.cos(ph), 1),
    "polar": (_band_on_polar_ring, 1),
    "one": (lambda th, ph: 1.0, 0),
    "zero": (lambda th, ph: 0.0, None),
    "indicator": (lambda th, ph: float(ph < 1.0) + 0.3 * np.cos(th), 48),
}


def _band_nnz(L, k):
    """Entries of the orders |m - m'| <= k in the (L + 1)^2 harmonics."""
    if k is None:
        return 0
    orders = np.arange(-L, L + 1)
    count = L + 1 - np.abs(orders)
    return int(count @ (np.abs(np.subtract.outer(orders, orders)) <= k) @ count)


@pytest.mark.parametrize("name", list(_SPHERE_BANDS))
@pytest.mark.parametrize("L", [4, 24])
def test_sphere_multiplication_stores_only_live_bands(L, name):
    fn, k = _SPHERE_BANDS[name]
    ref = _ref_sphere_multiplication(L, fn)
    got = sp.sphere_multiplication(L, fn).matrix
    assert got.nnz == _band_nnz(L, k)
    assert np.abs(got.toarray() - ref).max() <= 1e-13
    for scale in (1e-200, 1e200):
        scaled = sp.sphere_multiplication(L, lambda th, ph: scale * fn(th, ph)).matrix
        assert np.array_equal(scaled.indptr, got.indptr)
        assert np.array_equal(scaled.indices, got.indices)
        assert np.abs(scaled.toarray() / scale - ref).max() <= 1e-13


def _nan_at_one_node(th, ph):
    return np.nan if th == _ring_nearest_pole(3) and ph == 0.0 else 1.0


@pytest.mark.parametrize("L,fn,match", [
    (-1, _SPHERE_MULTIPLIERS["real"], "non-negative integer"),
    (2.5, _SPHERE_MULTIPLIERS["real"], "non-negative integer"),
    (True, _SPHERE_MULTIPLIERS["real"], "non-negative integer"),
    (3, _nan_at_one_node, "finite"),
    (3, lambda th, ph: np.inf if ph == 0.0 else 1.0, "finite"),
    (3, lambda th, ph: (np.cos(th), np.sin(ph)), "one scalar"),
], ids=["negative", "float", "bool", "nan", "inf", "vector"])
def test_sphere_multiplication_rejects_bad_input(L, fn, match):
    with pytest.raises(ValueError, match=match):
        sp.sphere_multiplication(L, fn)


@pytest.mark.parametrize("model,bundle,p", [(T3, "forms", 1), (T2, "spinors", None),
                                            (T2, "functions", None), (S2, "forms", 1)])
def test_label_arrays_match_labels(model, bundle, p):
    sm = sp.basis_for(model, bundle, 2, p)
    assert [tuple(k) for k in sm.modes.tolist()] == [lab[1] for lab in sm.labels]
    assert sorted(sm.position.tolist()) == list(range(sm.dim))
    if bundle == "spinors":
        assert sm.components.tolist() == [lab[2] for lab in sm.labels]
    # every (mode, component) pair finds its own canonical position
    assert (sp._locate(sm, sm.modes, sm.components) == np.arange(sm.dim)).all()


def test_mode_block_rows_are_the_mode():
    _, D = sp.build_dirac(T3, 2)
    block, rows = sp.mode_block(D, (1, -2, 0))
    assert [D.domain.labels[i][1] for i in rows] == [(1, -2, 0)] * 2
    assert block.shape == (2, 2)


def test_mode_block_outside_the_truncation_is_empty():
    _, D = sp.build_dirac(T3, 2)
    for mode in ((3, 0, 0), (0, -3, 2)):
        block, rows = sp.mode_block(D, mode)
        assert rows == [] and block.shape == (0, 0)


@pytest.mark.parametrize("K", [3, 6])
def test_sphere_identity_blocks_place_the_identity(K):
    # the placement finds entries by (mode, component): the sphere's
    # canonical order puts all co rows of a shell before all ex rows
    for p in range(3):
        sm = sp.basis_for(S2, "forms", K, p)
        m, zero = sm.fiber_dim, ((0, 0),)
        blocks = sp._block_pattern(sm, sm, zero)[0].size
        dense = sp._place_blocks(sm, sm, zero, np.tile(np.eye(m).ravel(), (blocks, 1)))
        diagonal = tuple((c, c) for c in range(m))
        fiber = sp._place_blocks(sm, sm, zero, np.ones((blocks, m)), diagonal)
        for mat in (dense, fiber):
            assert mat.nnz == sm.dim
            assert np.array_equal(mat.toarray(), np.eye(sm.dim))


# ---------------------------------------------------------------------------
# degeneracy blocks and the spectral norm


def _ref_blocks(lam, tol):
    blocks = [[0]]
    for i in range(1, len(lam)):
        if lam[i] - lam[blocks[-1][0]] <= tol * (1.0 + lam[i]):
            blocks[-1].append(i)
        else:
            blocks.append([i])
    return blocks


def test_degeneracy_blocks_anchor_at_first_element():
    # 1, 1 + 1.5e-9, 1 + 3e-9: each step is within tol (1 + lam) of the one
    # before, but the third is not within it of the block's first element
    base = sp.basis_for(T2, "functions", 1)
    lam = np.array([0.0, 1.0, 1.0, 1.0 + 1.5e-9, 1.0 + 3e-9, 2.0, 2.0, 2.0, 2.0 + 1e-12])
    sm = sp.SpectralModel(model=T2, bundle="functions", form_degree=None, cutoff=1,
                          labels=base.labels, lam=lam, fiber_dim=1, index=base.index)
    assert sm.degeneracy_blocks() == _ref_blocks(lam, 1e-9)
    assert sm.degeneracy_blocks() == [[0], [1, 2, 3], [4], [5, 6, 7, 8]]
    assert sm.degeneracy_blocks(0.5) == _ref_blocks(lam, 0.5)
    for model, K, p in ((T3, 3, 1), (S2, 5, 1), (geo.flat_torus(2, periods=(3.0, 1.3)), 4, 0)):
        real = sp.basis_for(model, "forms", K, p)
        assert real.degeneracy_blocks() == _ref_blocks(real.lam, 1e-9)


def test_degeneracy_blocks_of_empty_basis():
    empty = sp.exterior_d(T3, 3, 2).codomain
    assert empty.dim == 0
    assert empty.degeneracy_blocks() == []


@pytest.mark.parametrize("shape", [(1, 700), (700, 1), (2, 700), (150, 120), (40, 40)])
def test_spectral_norm_matches_dense_svd(shape):
    m = scipy.sparse.random(*shape, density=0.5, random_state=3, format="csr")
    m = m + 1j * scipy.sparse.random(*shape, density=0.5, random_state=4, format="csr")
    want = np.linalg.norm(m.toarray(), 2)
    assert abs(sp.spectral_norm(m) - want) <= 1e-13 * want


def test_spectral_norm_when_arpack_does_not_converge(monkeypatch):
    # a tight cluster of top singular values can stall ARPACK: both attempts,
    # with ARPACK's default 20 Lanczos vectors and then with 40, fail here,
    # and the dense SVD decides
    attempts = []

    def stalled(*args, **kwargs):
        attempts.append(kwargs["ncv"])
        raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", [], [])

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", stalled)
    m = scipy.sparse.random(150, 120, density=0.5, random_state=5, format="csr")
    want = np.linalg.norm(m.toarray(), 2)
    assert abs(sp.spectral_norm(m) - want) <= 1e-13 * want
    assert attempts == [None, 40]


def _gram_case(kind, shape):
    m = scipy.sparse.random(*shape, density=0.05, random_state=6, format="csr")
    if kind == "real":
        return m
    if kind == "complex-dtype":
        return m.astype(complex)
    return m + 1j * scipy.sparse.random(*shape, density=0.05, random_state=7, format="csr")


@pytest.mark.parametrize("shape", [(700, 150), (150, 700)])
@pytest.mark.parametrize("kind", ["real", "complex-dtype", "complex"])
def test_spectral_norm_from_the_real_gram_matrix(monkeypatch, kind, shape):
    # the top eigenvalue of one real symmetric Gram matrix over the smaller
    # side, twice that side for the real form of complex data; no dense SVD
    m = _gram_case(kind, shape)
    want = np.linalg.norm(m.toarray(), 2)
    grams = []
    eigsh = scipy.sparse.linalg.eigsh

    def recorded(a, *args, **kwargs):
        grams.append(a)
        return eigsh(a, *args, **kwargs)

    def no_dense_svd(*args, **kwargs):
        raise AssertionError("dense SVD taken")

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", recorded)
    monkeypatch.setattr(np.linalg, "norm", no_dense_svd)
    got = sp.spectral_norm(m)
    assert abs(got - want) <= 1e-13 * want
    side = 150 * (2 if kind == "complex" else 1)
    assert len(grams) == 1 and grams[0].shape == (side, side)
    assert grams[0].dtype == np.float64 and (grams[0] != grams[0].T).nnz == 0


def test_spectral_norm_of_stored_zeros_is_zero():
    # every stored entry zero: ARPACK would stop on a zero Krylov vector
    zeros = scipy.sparse.csr_matrix((np.zeros(300), (np.arange(300), np.arange(300))),
                                    shape=(300, 300))
    assert zeros.nnz == 300
    assert sp.spectral_norm(zeros) == 0.0
    assert sp.spectral_norm(zeros.astype(complex)) == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.inf)])
@pytest.mark.parametrize("side", [300, 40])  # the Gram path, then the dense SVD
def test_spectral_norm_rejects_non_finite_entries(bad, side):
    m = scipy.sparse.random(side, side, density=0.05, random_state=8, format="lil",
                            dtype=complex)
    m[3, 5] = bad
    with pytest.raises(ValueError, match="finite"):
        sp.spectral_norm(m.tocsr())
    with pytest.raises(ValueError, match="finite"):
        sp.spectral_norm(m.toarray())


@pytest.mark.parametrize("n", [150, 700])
def test_spectral_norm_when_ones_is_in_the_kernel(n):
    # cycle-graph Laplacian: the all-ones vector spans its kernel, and the top
    # singular value is 4 (n even); an all-ones ARPACK start stops at once
    shift = scipy.sparse.csr_matrix((np.ones(n), (np.arange(n), (np.arange(n) + 1) % n)),
                                    shape=(n, n))
    lap = 2 * scipy.sparse.identity(n, format="csr") - shift - shift.T
    assert abs(sp.spectral_norm(lap) - 4.0) <= 1e-13 * 4.0
