import dataclasses
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from framelab import ResolutionError
from framelab import algebra as alg


# ---------------------------------------------------------------------------
# Clifford


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_clifford_anticommutation_exact(n):
    cl = alg.build_clifford(n)
    dim = 2 ** (n // 2)
    assert len(cl.gammas) == n
    assert cl.gammas[0].shape == (dim, dim)
    for i, gi in enumerate(cl.gammas):
        assert np.array_equal(gi, gi.conj().T)
        for j, gj in enumerate(cl.gammas):
            anti = gi @ gj + gj @ gi
            expect = 2.0 * np.eye(dim) if i == j else np.zeros((dim, dim))
            assert np.array_equal(anti, expect)


def test_clifford_entries_quantized():
    cl = alg.build_clifford(5)
    for g in cl.gammas:
        vals = np.unique(np.round(g.flatten(), 15))
        assert set(vals) <= {0, 1, -1, 1j, -1j}


def test_clifford_mult_squares():
    cl = alg.build_clifford(3)
    rng = np.random.default_rng(0)
    for _ in range(100):
        xi = rng.normal(size=3)
        m = alg.clifford_mult(cl, xi)
        assert np.abs(m @ m - (xi @ xi) * np.eye(2)).max() < 1e-14


def test_clifford_mult_basics():
    cl = alg.build_clifford(4)
    assert np.array_equal(alg.clifford_mult(cl, [1, 0, 0, 0]), cl.gammas[0])
    assert np.abs(alg.clifford_mult(cl, [0, 0, 0, 0])).max() == 0.0
    with pytest.raises(ValueError):
        alg.clifford_mult(cl, [1.0, 2.0])


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_clifford_mult_unit_spectrum(n):
    # dense eigensolve oracle: |xi| = 1 gives eigenvalues +-1 with equal counts
    cl = alg.build_clifford(n)
    rng = np.random.default_rng(1)
    for _ in range(5):
        xi = rng.normal(size=n)
        xi /= np.linalg.norm(xi)
        vals = np.linalg.eigvalsh(alg.clifford_mult(cl, xi))
        dim = 2 ** (n // 2)
        assert np.allclose(np.sort(vals), [-1.0] * (dim // 2) + [1.0] * (dim // 2),
                           atol=1e-12)


# ---------------------------------------------------------------------------
# rotation logs and spin lifts


def test_so_log_roundtrip():
    rng = np.random.default_rng(3)
    for m in (2, 3, 4):
        for g, _ in alg.generic_rotations(m, count=5, seed=7):
            a = alg.so_log(g)
            assert np.abs(a + a.T).max() < 1e-12
            assert np.abs(scipy.linalg.expm(a) - g).max() < 1e-12
    del rng


def test_spin_lift_covariance():
    # lift(r) gamma_xi lift(r)^{-1} = gamma_{r xi}
    cl = alg.build_clifford(3)
    rng = np.random.default_rng(5)
    for g, _ in alg.generic_rotations(3, count=8, seed=2):
        s = alg.spin_lift(cl, g)
        assert np.abs(s @ s.conj().T - np.eye(2)).max() < 1e-12
        xi = rng.normal(size=3)
        lhs = s @ alg.clifford_mult(cl, xi) @ s.conj().T
        assert np.abs(lhs - alg.clifford_mult(cl, g @ xi)).max() < 1e-10


def test_spin_lift_half_angle():
    # rotation by theta in the (e2,e3)-plane lifts to exp(-theta g2 g3 / 2)
    cl = alg.build_clifford(3)
    theta = 0.73
    h = alg._rot2(theta)
    s = alg.spin_lift(cl, alg.embed_stabilizer(h))
    expect = (np.cos(theta / 2) * np.eye(2)
              - np.sin(theta / 2) * (cl.gammas[1] @ cl.gammas[2]))
    assert np.abs(s - expect).max() < 1e-12


# ---------------------------------------------------------------------------
# Haar quadratures


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_haar_sample_is_normalized_rotations(m):
    sample = alg.haar_sample(m)
    w = sum(w for _, w in sample)
    assert abs(w - 1.0) < 1e-12
    for g, _ in sample[:: max(1, len(sample) // 40)]:
        assert np.abs(g.T @ g - np.eye(m)).max() < 1e-12
        assert abs(np.linalg.det(g) - 1.0) < 1e-12


@pytest.mark.parametrize("m", [2, 3, 4])
def test_haar_sample_kills_defining_rep(m):
    # int_G g dg = 0 for the defining representation
    sample = alg.haar_sample(m)
    avg = sum(w * g for g, w in sample)
    assert np.abs(avg).max() < 1e-12


def test_haar_so4_kills_wedge2():
    avg = 0.0
    for g, w in alg.haar_sample(4):
        avg = avg + w * alg.exterior_power_matrix(g, 2)
    assert np.abs(avg).max() < 1e-12


# ---------------------------------------------------------------------------
# representation tables


def test_exterior_rep_trivial_and_det():
    triv = alg.exterior_rep(3, 0)
    assert triv.degree == 1
    assert all(np.allclose(u, 1.0) for _, u, _ in triv.sample)
    det = alg.exterior_rep(3, 3)
    assert det.degree == 1
    assert all(abs(u[0, 0] - 1.0) < 1e-12 for _, u, _ in det.sample)


def test_exterior_rep_defining():
    rep = alg.exterior_rep(3, 1)
    for g, u, _ in rep.sample:
        assert np.array_equal(g, u)


def test_exterior_power_is_homomorphism():
    rng = np.random.default_rng(11)
    for _ in range(5):
        a, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        b, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        lhs = alg.exterior_power_matrix(a @ b, 2)
        rhs = alg.exterior_power_matrix(a, 2) @ alg.exterior_power_matrix(b, 2)
        assert np.abs(lhs - rhs).max() < 1e-12


@pytest.mark.parametrize("n", [4, 5])
def test_exterior_power_of_subnormal_rotation_is_quiet(n):
    # rotations within a few subnormal ulps of I made det's LU divide by zero
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.integers(-4, 5, size=(n, n)) * 5e-324
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = alg.exterior_power_matrix(np.eye(n) + x - x.T, 3)
        assert np.array_equal(out, np.eye(len(out)))


def test_restriction_embeds_stabilizer():
    rep = alg.restrict_to_stabilizer(alg.exterior_rep(3, 1))
    assert rep.group == "SO(2)"
    for h, u, _ in rep.sample[::8]:
        emb = alg.embed_stabilizer(h)
        assert np.array_equal(u, emb)
    res = alg.table_residuals(rep)
    assert res["weight_sum"] < 1e-12
    assert res["unitarity"] < 1e-12
    assert res["cocycle"] < 1e-10


def test_conjugation_rep_table():
    cl = alg.build_clifford(3)
    rep = alg.conjugation_rep(cl)
    assert rep.projective
    assert rep.degree == 2
    res = alg.table_residuals(rep)
    assert res["weight_sum"] < 1e-12
    assert res["unitarity"] < 1e-12
    assert res["cocycle"] < 1e-10


def _lie_tables():
    for n in range(2, 6):
        for p in range(n + 1):
            ext = alg.exterior_rep(n, p)
            yield pytest.param(ext, id=f"exterior-{n}-{p}")
            yield pytest.param(alg.restrict_to_stabilizer(ext), id=f"restricted-{n}-{p}")
    for n in range(3, 7):
        yield pytest.param(alg.conjugation_rep(alg.build_clifford(n)), id=f"conjugation-{n}")


@pytest.mark.parametrize("rep", _lie_tables())
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_lie_map_integrates_to_group_map(rep, data):
    m = rep.group_dim
    x = data.draw(arrays(float, (m, m), elements=st.floats(-2.0, 2.0)))
    a = x - x.T
    lhs = scipy.linalg.expm(rep.lie(a))
    rhs = rep.apply(scipy.linalg.expm(a))
    err = np.abs(lhs - rhs).max()
    if rep.projective:
        err = min(err, np.abs(lhs + rhs).max())
    assert err < 1e-10


def test_exterior_lie_map_is_integral():
    rep = alg.exterior_rep(5, 2)
    for i in range(5):
        for j in range(i + 1, 5):
            e = np.zeros((5, 5))
            e[i, j], e[j, i] = -1.0, 1.0
            g = rep.lie(e)
            assert np.array_equal(g, np.round(g)) and np.array_equal(g, -g.T)


def test_conjugation_acts_on_clifford_vectors():
    # tau(g)(gamma_xi) = gamma_{embed(g)^{-1} xi}, checked on samples
    cl = alg.build_clifford(3)
    rep = alg.conjugation_rep(cl)
    rng = np.random.default_rng(2)
    for h, u, _ in rep.sample[::7]:
        xi = rng.normal(size=3)
        tau = alg.conjugate_by(u, alg.clifford_mult(cl, xi))
        expect = alg.clifford_mult(cl, alg.embed_stabilizer(h).T @ xi)
        assert np.abs(tau - expect).max() < 1e-10


def test_conjugation_preserves_products_and_hermiticity():
    cl = alg.build_clifford(3)
    rep = alg.conjugation_rep(cl)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    y = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    xh = x + x.conj().T
    for _, u, _ in rep.sample[::11]:
        assert np.abs(alg.conjugate_by(u, x @ y)
                      - alg.conjugate_by(u, x) @ alg.conjugate_by(u, y)).max() < 1e-12
        t = alg.conjugate_by(u, xh)
        assert np.abs(t - t.conj().T).max() < 1e-12


# ---------------------------------------------------------------------------
# isotypic projections and branching


def _check_projections(rep, projs, tol=1e-10):
    k = rep.degree
    total = sum(p.projector for p in projs)
    assert np.abs(total - np.eye(k)).max() < tol
    for p in projs:
        assert np.abs(p.projector @ p.projector - p.projector).max() < tol
        assert np.abs(p.projector - p.projector.conj().T).max() < tol
        assert p.dimension == round(np.real(np.trace(p.projector)))
    for i, p in enumerate(projs):
        for q in projs[i + 1:]:
            assert np.abs(p.projector @ q.projector).max() < tol


def test_isotypic_trivial_rep():
    rep = alg.restrict_to_stabilizer(alg.exterior_rep(3, 0))
    projs = alg.isotypic_projections(rep)
    assert len(projs) == 1
    assert projs[0].dimension == 1


def test_isotypic_weights_so2():
    # explicit weight-basis oracle: C^3 under SO(2) splits into weights -1, 0, +1
    rep = alg.restrict_to_stabilizer(alg.exterior_rep(3, 1))
    projs = alg.isotypic_projections(rep)
    _check_projections(rep, projs)
    assert sorted(p.dimension for p in projs) == [1, 1, 1]
    e1 = np.array([1.0, 0.0, 0.0], dtype=complex)
    wp = np.array([0.0, 1.0, -1.0j]) / np.sqrt(2)
    wm = np.array([0.0, 1.0, 1.0j]) / np.sqrt(2)
    expected = [np.outer(v, v.conj()) for v in (e1, wp, wm)]
    for target in expected:
        dist = min(np.abs(p.projector - target).max() for p in projs)
        assert dist < 1e-10


def test_isotypic_wedge2_c4():
    rep = alg.restrict_to_stabilizer(alg.exterior_rep(4, 2))
    projs = alg.isotypic_projections(rep)
    _check_projections(rep, projs)
    assert sorted(p.dimension for p in projs) == [3, 3]


def _spin_split(n):
    rep = alg.conjugation_rep(alg.build_clifford(n))
    projs = alg.isotypic_projections(rep)
    _check_projections(rep, projs)
    return sorted(p.dimension for p in projs)


def test_isotypic_spin_rep():
    # C^2 under the projective SO(2) spin lift: weights +-1/2, two lines
    assert _spin_split(3) == [1, 1]


# Cl(5): the two half-spin representations of Spin(4); Cl(4), Cl(6): two
# copies of the spin representation of Spin(3), Spin(5)
@pytest.mark.parametrize("n,ranks", [(4, [2, 2]), (5, [2, 2]), (6, [4, 4])])
def test_isotypic_spin_rep_higher(n, ranks):
    assert _spin_split(n) == ranks


def test_isotypic_detects_lie_map_contradicting_apply():
    # a zero Lie map makes every matrix commute; the sampled unitaries refute it
    rep = alg.restrict_to_stabilizer(alg.exterior_rep(4, 1))
    bad = dataclasses.replace(rep, lie=lambda a: np.zeros((4, 4)))
    with pytest.raises(ResolutionError):
        alg.isotypic_projections(bad)


@pytest.mark.parametrize("n,p", [(4, 2), (5, 1)])
def test_exact_projections_commute_with_haar_nodes(n, p):
    # the Haar quadrature of SO(n-1) is an independent oracle for the commutant
    rep = alg.restrict_to_stabilizer(alg.exterior_rep(n, p))
    mats = rep.apply(np.stack([h for h, _ in alg.haar_sample(n - 1)]))
    for pr in alg.branching_projections(n, p):
        q = pr.projector
        assert np.abs(mats @ q - q @ mats).max() < 1e-12


# Lambda^p R^n restricted to SO(n-1) is Lambda^p + Lambda^(p-1) of R^(n-1)
BRANCHING_RANKS = {(3, 1): [1, 1, 1], (4, 1): [1, 3], (4, 2): [3, 3], (5, 2): [3, 3, 4],
                   (6, 2): [5, 10], (6, 3): [10, 10]}


@pytest.mark.parametrize("n,p", list(BRANCHING_RANKS))
def test_branching_pascal_split(n, p):
    rep = alg.branching_report(n, p)
    assert rep["pascal_split_ok"], rep["ranks"]
    assert sorted(rep["ranks"]) == BRANCHING_RANKS[n, p]
    assert rep["identity_residual"] < 1e-10
    assert rep["commutant_residual"] < 1e-10
    from math import comb
    assert sum(rep["ranks"]) == comb(n, p)


def test_pascal_split_check_logic():
    assert alg.pascal_split_check([1, 1, 1], 3, 1)
    assert alg.pascal_split_check([3, 3], 4, 2)
    assert alg.pascal_split_check([3, 3, 4], 5, 2)
    assert not alg.pascal_split_check([2, 2], 4, 2)
    assert not alg.pascal_split_check([5, 1], 4, 2)
