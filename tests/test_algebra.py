import dataclasses
import itertools
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
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
def test_clifford_mult_on_a_stack_is_each_single_call(n):
    cl = alg.build_clifford(n)
    xis = np.random.default_rng(2).normal(size=(4, 5, n))
    dim = 2 ** (n // 2)
    stack = alg.clifford_mult(cl, xis)
    assert stack.shape == (4, 5, dim, dim)
    for idx in np.ndindex(4, 5):
        assert np.abs(stack[idx] - alg.clifford_mult(cl, xis[idx])).max() <= 1e-15
    with pytest.raises(ValueError):
        alg.clifford_mult(cl, np.ones((3, n + 1)))


@pytest.mark.parametrize("n,p", [(2, -1), (2, 0), (3, 0), (3, 1), (4, 1), (4, 2)])
def test_exterior_mult_on_a_stack_is_each_single_call(n, p):
    xis = np.random.default_rng(3).normal(size=(4, 5, n))
    eps = alg.wedge_table(n, p)
    stack = alg.exterior_mult(xis, p)
    assert stack.shape == (4, 5) + eps.shape[1:]
    for idx in np.ndindex(4, 5):
        single = alg.exterior_mult(xis[idx], p)
        assert np.all(np.abs(stack[idx] - single) <= 1e-15)
        assert np.all(np.abs(single - np.einsum("j,jab->ab", xis[idx], eps)) <= 1e-15)


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


def _rotated(q, d):
    return q @ d @ q.T


_Q5 = np.linalg.qr(np.random.default_rng(1).normal(size=(5, 5)))[0]
_PI_AND_GENERIC_PLANE = np.eye(5)
_PI_AND_GENERIC_PLANE[:2, :2] = -np.eye(2)
_PI_AND_GENERIC_PLANE[2:4, 2:4] = oracles._rot2(0.7)
_NEAR_PI = np.eye(3)
_NEAR_PI[:2, :2] = oracles._rot2(np.pi - 1e-9)
ANGLE_PI_ROTATIONS = {
    "diag(-1,-1,1)": np.diag([-1.0, -1.0, 1.0]),
    "-I4": -np.eye(4),
    "pi-and-generic-plane": _rotated(_Q5, _PI_AND_GENERIC_PLANE),
    "two-pi-planes": _rotated(_Q5, np.diag([-1.0, -1.0, -1.0, -1.0, 1.0])),
    "near-pi": _NEAR_PI,
}


@pytest.mark.parametrize("r", ANGLE_PI_ROTATIONS.values(), ids=ANGLE_PI_ROTATIONS.keys())
def test_so_log_of_angle_pi_rotations_exponentiates_back(r):
    a = alg.so_log(r)
    assert np.abs(a + a.T).max() <= 1e-12
    assert np.abs(scipy.linalg.expm(a) - r).max() <= 1e-12


@pytest.mark.parametrize("bad", [
    2.0 * np.eye(3),
    np.diag([1.0, 1.0, 1.0 + 1e-9]),
    np.array([[1.0, 0.5], [0.0, 1.0]]),
], ids=["2I", "stretched-by-1e-9", "shear"])
def test_so_log_rejects_a_matrix_that_is_not_orthogonal(bad):
    # without the check, 2 I has the zero log and lifts to the identity
    good = np.eye(len(bad))
    for r in (bad, np.stack([good, bad, good])):
        with pytest.raises(ValueError, match="rotations"):
            alg.so_log(r)
    with pytest.raises(ValueError, match="rotations"):
        alg.spin_lift(alg.build_clifford(len(bad)), bad)


def test_so_log_rejects_non_finite_entries():
    for value in (np.nan, np.inf, -np.inf):
        r = np.eye(4)
        r[1, 2] = value
        with pytest.raises(ValueError, match="finite"):
            alg.so_log(r)
        with pytest.raises(ValueError, match="finite"):
            alg.so_log(np.stack([np.eye(4), r]))


def test_so_log_takes_rotations_within_the_orthogonality_bound():
    # rounding-level defects pass, as in flows.right_action
    r = oracles._rot2(0.3) + 1e-12
    assert np.abs(alg.so_log(r) - np.array([[0.0, -0.3], [0.3, 0.0]])).max() < 1e-11


def test_conjugation_table_rejects_a_matrix_that_is_not_a_rotation():
    rep = alg.conjugation_rep(alg.build_clifford(4))
    with pytest.raises(ValueError, match="rotations"):
        rep.apply(2.0 * np.eye(3))


@pytest.mark.parametrize("shape", [(3, 3), (2, 5, 5), (4,), (4, 3)])
def test_spin_lift_rejects_a_wrong_shape(shape):
    cl = alg.build_clifford(4)
    with pytest.raises(ValueError, match=r"\(\.\.\., 4, 4\)"):
        alg.spin_lift(cl, np.zeros(shape))


def test_so_log_rejects_a_reflection():
    # an improper matrix has no real logarithm; it used to give the zero matrix
    for r in (np.diag([-1.0, 1.0, 1.0]), _rotated(_Q5, np.diag([-1.0, 1.0, 1.0, 1.0, 1.0]))):
        with pytest.raises(ValueError, match="rotations"):
            alg.so_log(r)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_so_log_matches_the_real_schur_oracle(n):
    # the 24-sample tables of SO(n), and of SO(n-1) embedded in SO(n)
    own = [g for g, _ in alg.generic_rotations(n)]
    embedded = [alg.embed_stabilizer(h) for h, _ in alg.generic_rotations(n - 1)]
    for r in own + embedded:
        assert np.abs(alg.so_log(r) - oracles.so_log_real_schur(r)).max() <= 1e-12


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_spin_lifts_match_lifts_of_the_real_schur_log(n):
    cl = alg.build_clifford(n)
    g = cl.gammas
    for h, u, _ in alg.conjugation_rep(cl).sample:
        a = oracles.so_log_real_schur(alg.embed_stabilizer(h))
        want = scipy.linalg.expm(0.25 * np.einsum("ij,iab,jbc->ac", a, g, g))
        assert np.abs(u - want).max() <= 1e-12


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_so_log_of_a_stack_is_each_log_bitwise(n):
    rs = np.stack([g for g, _ in alg.generic_rotations(n, count=6, seed=n)])
    flip = np.diag([-1.0, -1.0] + [1.0] * (n - 2))
    rs[1], rs[4] = flip, _rotated(rs[0], flip)  # angle-pi planes in the stack
    rs = rs.reshape(2, 3, n, n)
    stack = alg.so_log(rs)
    assert stack.shape == (2, 3, n, n)
    for idx in np.ndindex(2, 3):
        assert stack[idx].tobytes() == alg.so_log(rs[idx]).tobytes()


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_bivector_is_the_three_operand_einsum(n):
    cl = alg.build_clifford(n)
    x = np.random.default_rng(n).normal(size=(2, 3, n, n))
    a = x - x.swapaxes(-1, -2)
    got = alg._bivector(cl, a)
    assert got.shape == (2, 3) + cl.gammas.shape[1:]
    assert got.tobytes() == oracles.bivector_einsum(cl, a).tobytes()
    for idx in np.ndindex(2, 3):
        assert alg._bivector(cl, a[idx]).tobytes() == got[idx].tobytes()


@pytest.mark.parametrize("r", [r for r in ANGLE_PI_ROTATIONS.values() if len(r) <= 6],
                         ids=[k for k, r in ANGLE_PI_ROTATIONS.items() if len(r) <= 6])
def test_angle_pi_lifts_are_expm_of_the_einsum_bivector(r):
    cl = alg.build_clifford(len(r))
    want = scipy.linalg.expm(oracles.bivector_einsum(cl, alg.so_log(r)))
    assert np.abs(alg.spin_lift(cl, r) - want).max() <= 1e-13


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
    h = oracles._rot2(theta)
    s = alg.spin_lift(cl, alg.embed_stabilizer(h))
    expect = (np.cos(theta / 2) * np.eye(2)
              - np.sin(theta / 2) * (cl.gammas[1] @ cl.gammas[2]))
    assert np.abs(s - expect).max() < 1e-12


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_spin_lift_of_a_stack_is_each_lift_bitwise(n):
    cl = alg.build_clifford(n)
    rs = np.stack([g for g, _ in alg.generic_rotations(n, count=6, seed=n)])
    rs = rs.reshape(2, 3, n, n)
    stack = alg.spin_lift(cl, rs)
    assert stack.shape == (2, 3) + cl.gammas.shape[1:]
    for idx in np.ndindex(2, 3):
        assert stack[idx].tobytes() == alg.spin_lift(cl, rs[idx]).tobytes()


# ---------------------------------------------------------------------------
# generic rotations


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_generic_rotations_are_the_per_draw_loop_bitwise(m):
    for count, seed in itertools.product((1, 5, 24), (0, 2, 7)):
        got = alg.generic_rotations(m, count=count, seed=seed)
        ref = oracles.generic_rotations_per_draw(m, count, seed)
        assert len(got) == count
        for (g, w), (q, v) in zip(got, ref):
            assert g.shape == (m, m) and g.tobytes() == q.tobytes() and w == v


@pytest.mark.parametrize("count", [0, -1, -24])
def test_generic_rotations_reject_an_empty_sample(count):
    with pytest.raises(ValueError):
        alg.generic_rotations(3, count=count)


# ---------------------------------------------------------------------------
# Haar quadratures


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_haar_sample_is_normalized_rotations(m):
    sample = oracles.haar_sample(m)
    w = sum(w for _, w in sample)
    assert abs(w - 1.0) < 1e-12
    for g, _ in sample[:: max(1, len(sample) // 40)]:
        assert np.abs(g.T @ g - np.eye(m)).max() < 1e-12
        assert abs(np.linalg.det(g) - 1.0) < 1e-12


@pytest.mark.parametrize("m", [2, 3, 4])
def test_haar_sample_kills_defining_rep(m):
    # int_G g dg = 0 for the defining representation
    sample = oracles.haar_sample(m)
    avg = sum(w * g for g, w in sample)
    assert np.abs(avg).max() < 1e-12


def test_haar_so4_kills_wedge2():
    avg = 0.0
    for g, w in oracles.haar_sample(4):
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


def test_exterior_power_of_singular_minor_is_quiet():
    # a normal-range 3 x 3 block with a zero row: LU-based det divided by zero
    g = np.eye(5)
    g[np.ix_([0, 2, 4], [1, 3, 4])] = [
        [0.0, 0.0, 0.0],
        [-1.1953917922306849e-01, 3.0830474539209124e-292, -4.7815671689227396e-01],
        [-3.0564363971772639e-02, 7.8828870280298078e-293, 8.7774254411290942e-01]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = alg.exterior_power_matrix(g, 3)
    rows = [list(s) for s in itertools.combinations(range(5), 3)]
    want = np.array([[_leibniz(g[np.ix_(r, c)]) for c in rows] for r in rows])
    assert np.abs(out - want).max() < 1e-15


def _leibniz(m):
    """Determinant as the signed sum over permutations: products and sums only."""
    return sum(alg.permutation_sign(perm) * np.prod(m[np.arange(len(m)), perm])
               for perm in itertools.permutations(range(len(m))))


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_exterior_power_matches_determinant_minors(n):
    rng = np.random.default_rng(n)
    for _ in range(3):
        g, _ = np.linalg.qr(rng.normal(size=(n, n)))
        for p in range(2, n + 1):
            rows = np.array(list(itertools.combinations(range(n), p)))
            want = np.linalg.det(g[rows[:, None, :, None], rows[None, :, None, :]])
            assert np.abs(alg.exterior_power_matrix(g, p) - want).max() < 1e-15


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


def _tables(exterior_dims, conjugation_dims):
    for n in exterior_dims:
        for p in range(n + 1):
            ext = alg.exterior_rep(n, p)
            yield pytest.param(ext, id=f"exterior-{n}-{p}")
            yield pytest.param(alg.restrict_to_stabilizer(ext), id=f"restricted-{n}-{p}")
    for n in conjugation_dims:
        yield pytest.param(alg.conjugation_rep(alg.build_clifford(n)), id=f"conjugation-{n}")


@pytest.mark.parametrize("rep", _tables(range(2, 7), range(3, 7)))
def test_table_sample_unitaries_are_each_apply_bitwise(rep):
    assert len(rep.sample) == 24
    for g, u, w in rep.sample:
        assert u.tobytes() == rep.apply(g).tobytes() and w == 1.0 / 24


@pytest.mark.parametrize("rep", _tables(range(2, 7), range(3, 7)))
def test_table_residuals_are_the_per_pair_loop(rep):
    assert alg.table_residuals(rep) == oracles.table_residuals_per_pair(rep)


@pytest.mark.parametrize("rep", _tables((), range(3, 7)))
def test_conjugation_lifts_are_expm_of_the_einsum_bivector(rep):
    cl = alg.build_clifford(rep.group_dim + 1)
    rs = alg.embed_stabilizer(np.stack([h for h, _, _ in rep.sample]))
    want = scipy.linalg.expm(oracles.bivector_einsum(cl, alg.so_log(rs)))
    assert np.abs(np.stack([u for _, u, _ in rep.sample]) - want).max() <= 1e-13


def _counting(monkeypatch, owner, name):
    calls = []
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("build", [
    (lambda: alg.exterior_rep(5, 2), lambda: alg.exterior_rep(5, 3)),
    (lambda: alg.conjugation_rep(alg.build_clifford(5)), lambda: alg.exterior_rep(4, 2)),
], ids=["exterior", "conjugation"])
def test_building_a_table_takes_one_qr(monkeypatch, build):
    # the first table of a group draws the sample; a second table shares it
    first, second = build
    alg._rotation_stack.cache_clear()
    calls = _counting(monkeypatch, np.linalg, "qr")
    first()
    assert len(calls) == 1
    second()
    assert len(calls) == 1


def test_restricting_a_table_takes_one_qr(monkeypatch):
    ext, other = alg.exterior_rep(5, 2), alg.exterior_rep(5, 1)
    alg._rotation_stack.cache_clear()
    calls = _counting(monkeypatch, np.linalg, "qr")
    alg.restrict_to_stabilizer(ext)
    assert len(calls) == 1
    alg.restrict_to_stabilizer(other)
    assert len(calls) == 1


def test_the_shared_sample_is_read_only_and_generic_rotations_are_copies():
    rep = alg.exterior_rep(4, 2)
    assert not alg._rotation_stack(4, 24, 0).flags.writeable
    assert not any(g.flags.writeable for g, _, _ in rep.sample)
    assert not any(a.flags.writeable for a in alg._derivation_indices(4, 2))
    want = [g.copy() for g, _, _ in rep.sample]
    for q, _ in alg.generic_rotations(4):
        assert q.flags.writeable
        q[:] = 0.0
    assert all(np.array_equal(q, w) for (q, _), w in zip(alg.generic_rotations(4), want))
    assert all(np.array_equal(g, w) for (g, _, _), w in zip(alg.exterior_rep(4, 1).sample, want))
    # a seed that is not an integer would freeze one draw in the cache
    for seed in (None, np.random.default_rng(0)):
        with pytest.raises(TypeError):
            alg.generic_rotations(3, seed=seed)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_tables_and_projections_take_no_schur_and_no_kron(monkeypatch, n):
    cl = alg.build_clifford(n)
    schur = _counting(monkeypatch, scipy.linalg, "schur")
    kron = _counting(monkeypatch, np, "kron")
    expm = _counting(monkeypatch, scipy.linalg, "expm")
    rep = alg.conjugation_rep(cl)
    alg.isotypic_projections(rep)
    alg.branching_report(n, 2)
    assert schur == [] and kron == []
    assert expm == []


def test_conjugation_table_takes_one_spin_lift(monkeypatch):
    cl = alg.build_clifford(5)
    calls = _counting(monkeypatch, alg, "spin_lift")
    rep = alg.conjugation_rep(cl)
    assert len(calls) == 1 and len(rep.sample) == 24


@pytest.mark.parametrize("rep", _tables(range(2, 6), range(3, 7)))
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
    mats = rep.apply(np.stack([h for h, _ in oracles.haar_sample(n - 1)]))
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


@pytest.mark.parametrize("n,p", [(3, 1), (4, 2), (5, 2), (6, 3)])
def test_branching_residual_is_the_projections_commutation_residual(n, p):
    rep = alg.restrict_to_stabilizer(alg.exterior_rep(n, p))
    projs = alg.branching_projections(n, p, seed=5)
    report = alg.branching_report(n, p, seed=5)
    assert report["commutant_residual"] == alg.commutation_residual(rep, projs)


@pytest.mark.parametrize("rep", _tables(range(2, 7), range(3, 7)))
def test_commutation_residual_is_the_per_pair_loop(rep):
    projs = alg.isotypic_projections(rep)
    got = alg.commutation_residual(rep, projs)
    assert abs(got - oracles.commutation_residual_per_pair(rep, projs)) <= 4 * np.finfo(float).eps


def test_branching_results_are_fresh_per_call():
    report, projs = alg.branching_report(4, 1), alg.branching_projections(4, 1)
    want, want_projector = alg.branching_report(4, 1), projs[0].projector.copy()
    report["ranks"].append(99)
    report["components"][0]["rank"] = -5
    projs[0].projector[0, 0] = 42
    assert alg.branching_report(4, 1) == want
    assert np.array_equal(alg.branching_projections(4, 1)[0].projector, want_projector)


def test_pascal_split_check_logic():
    assert alg.pascal_split_check([1, 1, 1], 3, 1)
    assert alg.pascal_split_check([3, 3], 4, 2)
    assert alg.pascal_split_check([3, 3, 4], 5, 2)
    assert not alg.pascal_split_check([2, 2], 4, 2)
    assert not alg.pascal_split_check([5, 1], 4, 2)
