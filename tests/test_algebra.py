import numpy as np
import pytest
import scipy.linalg as la

from preforge.algebra import (
    block_leak,
    build_basis,
    bloch_to_rho,
    eig_full,
    exp_flow,
    expm,
    null_space,
    orth,
    pure_radius_sq,
    random_density_matrix,
    real_direction,
    rho_to_bloch,
)
from preforge.errors import DimensionError, NormalizationError, ShapeError

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]])
SZ = np.diag([1.0, -1.0]).astype(complex)


def test_qubit_basis_is_pauli():
    basis = build_basis(2)
    for got, want in zip(basis.elements, [SX, SY, SZ, np.eye(2)]):
        assert np.allclose(got, want)


def test_qutrit_basis_orthogonality():
    basis = build_basis(3)
    assert len(basis.elements) == 9
    assert np.allclose(basis.elements[-1], np.eye(3))
    for i in range(9):
        for j in range(9):
            tr = np.trace(basis.elements[i] @ basis.elements[j])
            if i == j:
                assert np.isclose(tr, 3.0 if i == 8 else 2.0)
            else:
                assert abs(tr) < 1e-14
    # first eight are traceless
    for m in basis.elements[:-1]:
        assert abs(np.trace(m)) < 1e-14
        assert np.allclose(m, m.conj().T)


def test_basis_rejects_dim_one():
    with pytest.raises(DimensionError):
        build_basis(1)


def test_bloch_of_special_states():
    basis = build_basis(2)
    assert np.allclose(rho_to_bloch(np.eye(2) / 2, basis), 0.0)
    assert np.allclose(rho_to_bloch(np.diag([1.0, 0.0]), basis), [0, 0, 1])


def test_bloch_of_driven_qubit_steady_state(rf_bm):
    gamma, omega = 1.0, 0.18
    expected = np.array([0.0, 2 * gamma * omega, -(gamma**2)]) / (gamma**2 + 2 * omega**2)
    assert np.allclose(rf_bm.x_ss, expected, atol=1e-12)


def test_rho_to_bloch_requires_unit_trace():
    basis = build_basis(2)
    with pytest.raises(NormalizationError):
        rho_to_bloch(np.eye(2), basis)


def test_bloch_to_rho_special_points():
    basis = build_basis(2)
    assert np.allclose(bloch_to_rho(np.zeros(3), basis), np.eye(2) / 2)
    assert np.allclose(bloch_to_rho(np.array([0, 0, 1.0]), basis), np.diag([1.0, 0.0]))


def test_bloch_to_rho_shape_check():
    basis = build_basis(2)
    with pytest.raises(ShapeError):
        bloch_to_rho(np.zeros(4), basis)


def test_sphere_points_can_leave_state_set_for_qutrits(rng):
    # On the pure-radius sphere the reconstruction must not be rejected even
    # when it falls outside the state set (possible for D > 2).
    basis = build_basis(3)
    saw_negative = False
    for _ in range(200):
        x = rng.normal(size=8)
        x *= np.sqrt(pure_radius_sq(3)) / np.linalg.norm(x)
        rho = bloch_to_rho(x, basis)
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert abs(np.trace(rho @ rho).real - 1.0) < 1e-12
        if np.min(np.linalg.eigvalsh(rho)) < -1e-12:
            saw_negative = True
    assert saw_negative


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_round_trip_on_random_states(dim, rng):
    basis = build_basis(dim)
    for _ in range(1000):
        rho = random_density_matrix(dim, rng)
        back = bloch_to_rho(rho_to_bloch(rho, basis), basis)
        assert np.max(np.abs(back - rho)) < 1e-12


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_purity_bridge(dim, rng):
    basis = build_basis(dim)
    for _ in range(1000):
        rho = random_density_matrix(dim, rng)
        x = rho_to_bloch(rho, basis)
        purity = np.trace(rho @ rho).real
        assert abs(purity - (1.0 / dim + 2.0 / dim**2 * (x @ x))) < 1e-12


def test_eig_full_diagonal_matrix():
    spec = eig_full(np.diag([-1.0, -2.0, -3.0]))
    assert not spec.defective
    assert sorted(c.value.real for c in spec.clusters) == [-3.0, -2.0, -1.0]
    assert len(spec.real_clusters) == 3
    directions = [real_direction(c.vectors[:, 0]) for c in spec.real_clusters]
    assert all(d is not None and abs(np.linalg.norm(d) - 1) < 1e-15 for d in directions)


def test_real_clusters_leave_out_a_complex_pair_whose_vectors_are_not_real():
    # A rotation block has eigenvalues -1 +- i and complex eigenvectors.
    spec = eig_full(np.array([[-1.0, -1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, -2.0]]))
    assert [c.value.real for c in spec.real_clusters] == [-2.0]
    pair = [c for c in spec.clusters if c.value.imag != 0]
    assert len(pair) == 2 and all(real_direction(c.vectors[:, 0]) is None for c in pair)


def test_eig_full_driven_qubit_generator(rf_bm):
    pairs = {
        round(c.value.real, 9): real_direction(c.vectors[:, 0]) for c in eig_full(rf_bm.l0).real_clusters
    }
    root = np.sqrt(0.4816)
    e_plus = np.array([0.0, 1 + root, 0.72])
    e_minus = np.array([0.0, 1 - root, 0.72])
    got_e1 = pairs[round(-0.5, 9)]
    assert np.allclose(np.abs(got_e1), [1, 0, 0], atol=1e-10)
    lam_p = (-3 + np.sqrt(0.4816)) / 4  # (-3 gamma + sqrt(gamma^2 - 16 Omega^2)) / 4
    lam_m = (-3 - np.sqrt(0.4816)) / 4
    for lam, expected in ((lam_p, e_plus), (lam_m, e_minus)):
        vec = pairs[round(lam, 9)]
        expected = expected / np.linalg.norm(expected)
        assert min(np.linalg.norm(vec - expected), np.linalg.norm(vec + expected)) < 1e-9


def test_eig_full_defective_point():
    from preforge.mespec import load_catalog
    from preforge.model import vectorize

    bm = vectorize(load_catalog("resonance_fluorescence", {"gamma": 1.0, "Omega": 0.25}))
    spec = eig_full(bm.l0)
    assert spec.defective
    bad = [c for c in spec.clusters if c.defective]
    assert len(bad) == 1
    cluster = bad[0]
    assert cluster.algebraic == 2 and cluster.geometric == 1
    vec = cluster.vectors[:, 0].real
    e2 = np.array([0, 1.0, 1.0]) / np.sqrt(2)
    assert min(np.linalg.norm(vec - e2), np.linalg.norm(vec + e2)) < 1e-8
    chain = cluster.jordan_chains[0]
    assert len(chain) == 2
    # rank-2 generalized eigenvector lies in the coherently driven plane x = 0
    assert abs(chain[1][0]) < 1e-8
    # chain residual at the default clustering tolerance
    shifted = bm.l0 - cluster.value.real * np.eye(3)
    assert np.linalg.norm(shifted @ chain[1] - chain[0]) <= 1e-8 * np.linalg.norm(bm.l0, 2)


def test_jordan_chain_residuals(rng):
    # A rotated 3x3 Jordan block: the computed eigenvalues split by
    # O(eps^(1/3)), so the clustering tolerance must be widened to see the
    # defect; the reported chains must then be consistent at that tolerance.
    j = np.array([[-1.0, 1, 0], [0, -1, 1], [0, 0, -1]])
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    m = q @ j @ q.T
    spec = eig_full(m, tol_scale=1e-4)
    assert spec.defective
    scale = np.linalg.norm(m, 2)
    found_chain = False
    for cluster in spec.clusters:
        for chain in cluster.jordan_chains:
            shifted = m - cluster.value.real * np.eye(3)
            for prev, cur in zip(chain, chain[1:]):
                found_chain = True
                assert np.linalg.norm(shifted @ cur - prev) <= 1e-4 * scale * max(
                    1.0, np.linalg.norm(cur)
                )
    assert found_chain


def test_eig_full_rejects_nonsquare():
    with pytest.raises(ShapeError):
        eig_full(np.zeros((2, 3)))


# scipy.linalg is the reference for the numpy-only expm / null_space / orth.


def _assert_expm_matches(a, rtol):
    got, want = expm(a), la.expm(a)
    assert np.all(np.isfinite(want))
    # Divided by the largest entry so that norms of entries near 1e300 stay finite.
    scale = max(np.max(np.abs(want)), np.finfo(float).tiny)
    assert np.linalg.norm((got - want) / scale) <= rtol * np.linalg.norm(want / scale)


def test_expm_matches_scipy_on_rotation_generators(ae_bm):
    from preforge.symmetry import find_wigner_symmetries

    gens = [w.generator for w in find_wigner_symmetries(ae_bm) if w.generator is not None]
    assert gens
    for gen in gens:
        for angle in (0.1, 2 * np.pi / 3, np.pi, 7.5, 100.0):
            _assert_expm_matches(angle * gen, 1e-12)


@pytest.mark.parametrize("model", ["rf", "ae", "cascade_d3"])
def test_expm_matches_scipy_on_augmented_generators(model, request):
    bm = request.getfixturevalue(f"{model}_bm")
    n = bm.n_coords
    rep = np.block([[bm.l0, bm.b[:, None]], [np.zeros(n + 1)]])
    for t in (0.5, 2.0, 20.0):
        _assert_expm_matches(rep * t, 1e-12)


def test_expm_matches_scipy_on_jordan_block():
    h_eff = np.array([[-0.5j, 0.5], [0.0, -0.5j]])
    flow = exp_flow(-1j * h_eff)
    for tau in np.concatenate([[0.0], np.logspace(-6, 6, 49)]):
        _assert_expm_matches(-1j * tau * h_eff, 1e-12)
        want = la.expm(-1j * tau * h_eff)
        assert np.linalg.norm(flow(tau) - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_expm_matches_scipy_on_random_complex_matrices(n):
    rng = np.random.default_rng(100 + n)
    for norm in np.logspace(-3, 3, 13):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        _assert_expm_matches(a * (norm / np.linalg.norm(a, 2)), 1e-10)


def test_expm_of_zero_and_diagonal():
    assert np.array_equal(expm(np.zeros((3, 3))), np.eye(3))
    d = np.array([-2.0, 0.5, 3.0])
    assert np.allclose(expm(np.diag(d)), np.diag(np.exp(d)), rtol=1e-14, atol=0)


def test_expm_rejects_bad_input():
    with pytest.raises(ShapeError):
        expm(np.zeros((2, 3)))
    with pytest.raises(ShapeError):
        expm(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def _rank_test_matrices():
    rng = np.random.default_rng(5)
    full = rng.normal(size=(4, 6))
    deficient = rng.normal(size=(7, 2)) @ rng.normal(size=(2, 5))
    cplx = (rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))) @ (
        rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    )
    square = rng.normal(size=(5, 5))
    return {"full-rank": full, "rank-deficient": deficient, "complex": cplx, "square": square}


def _assert_orthonormal_columns(q):
    assert np.linalg.norm(q.conj().T @ q - np.eye(q.shape[1])) <= 1e-14


@pytest.mark.parametrize("rcond", [None, 1e-10])
@pytest.mark.parametrize("name", ["full-rank", "rank-deficient", "complex", "square"])
def test_null_space_matches_scipy(name, rcond):
    a = _rank_test_matrices()[name]
    null, want = null_space(a, rcond), la.null_space(a, rcond)
    assert null.shape == want.shape
    _assert_orthonormal_columns(null)
    assert np.linalg.norm(a @ null) <= 1e-12 * np.linalg.norm(a)
    # Same subspace: equal orthogonal projectors.
    assert np.linalg.norm(null @ null.conj().T - want @ want.conj().T) <= 1e-12


def test_null_space_of_full_rank_square_matrix_is_empty():
    a = _rank_test_matrices()["square"]
    null = null_space(a)
    assert null.shape == (5, 0)
    assert la.null_space(a).shape == (5, 0)


@pytest.mark.parametrize("rcond", [None, 1e-10])
@pytest.mark.parametrize("name", ["full-rank", "rank-deficient", "complex", "square"])
def test_orth_matches_scipy(name, rcond):
    a = _rank_test_matrices()[name]
    q, want = orth(a, rcond), la.orth(a, rcond)
    assert q.shape == want.shape
    _assert_orthonormal_columns(q)
    assert np.linalg.norm(a - q @ (q.conj().T @ a)) <= 1e-12 * np.linalg.norm(a)
    assert np.linalg.norm(q @ q.conj().T - want @ want.conj().T) <= 1e-12


def test_rank_cut_follows_rcond():
    a = np.diag([1.0, 1e-6, 1e-12])
    assert null_space(a, rcond=1e-8).shape == (3, 1) == la.null_space(a, rcond=1e-8).shape
    assert orth(a, rcond=1e-8).shape == (3, 2) == la.orth(a, rcond=1e-8).shape
    assert null_space(a).shape == (3, 0) == la.null_space(a).shape


def test_block_leak_is_the_relative_lower_left_block():
    rng = np.random.default_rng(17)
    q = np.linalg.qr(rng.normal(size=(7, 7)))[0]
    i0, r0 = q[:, :3], q[:, 3:]
    blocks = rng.normal(size=(7, 7))
    upper = blocks.copy()
    upper[3:, :3] = 0.0  # block-upper-triangular in the split (i0, r0)
    mat = q @ upper @ q.T
    assert block_leak(mat, i0, r0) <= 1e-15
    mat = q @ blocks @ q.T
    want = np.linalg.norm(blocks[3:, :3], 2) / np.linalg.norm(blocks, 2)
    assert block_leak(mat, i0, r0) == pytest.approx(want, rel=1e-12)
    assert block_leak(mat, q, np.zeros((7, 0))) == 0.0
    assert block_leak(mat, np.zeros((7, 0)), q) == 0.0
