import numpy as np
import pytest

from preforge.algebra import coordinate_rep, pure_radius_sq, random_density_matrix, rho_to_bloch
from preforge.errors import InvalidSettingError, SteadyStateError
from preforge.model import (
    MasterEquation,
    UnravellingSetting,
    apply_unravelling,
    lindbladian,
    superoperator,
    vectorize,
)


def _apply(sop, rho):
    """A superoperator matrix applied to a D x D matrix through row-major vec."""
    return (sop @ rho.ravel()).reshape(rho.shape)


def test_generator_annihilates_steady_state(rf_me, rf_bm):
    liou = lindbladian(rf_me)
    assert np.linalg.norm(_apply(liou, rf_bm.steady_rho())) < 1e-10


def test_zero_model_gives_zero_map(rng):
    me = MasterEquation(2, np.zeros((2, 2)), [])
    liou = lindbladian(me)
    for _ in range(5):
        rho = random_density_matrix(2, rng)
        assert np.linalg.norm(_apply(liou, rho)) < 1e-15


def test_trace_preservation_on_random_matrices(ae_me, rng):
    liou = lindbladian(ae_me)
    for _ in range(1000):
        rho = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert abs(np.trace(_apply(liou, rho))) < 1e-12 * max(1.0, np.linalg.norm(rho))


def test_superoperator_matches_operator_form_d3(cascade_d3_me, rng):
    me = cascade_d3_me
    h_eff = me.effective_hamiltonian()
    sop = superoperator(h_eff, me.lindblads)
    for _ in range(20):
        rho = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        expected = -1j * (h_eff @ rho - rho @ h_eff.conj().T)
        for c in me.lindblads:
            expected = expected + c @ rho @ c.conj().T
        assert np.max(np.abs(_apply(sop, rho) - expected)) < 1e-13


@pytest.mark.parametrize("model", ["rf", "ae", "cascade_d3"])
def test_coordinate_rep_is_bloch_reduction(model, request):
    me = request.getfixturevalue(f"{model}_me")
    bm = request.getfixturevalue(f"{model}_bm")
    n = bm.n_coords
    rep = coordinate_rep(lindbladian(me), bm.basis)
    # Column-by-column reference, Tr[s_i L(s_j)] / Tr[s_i^2], from the operator form.
    h_eff = me.effective_hamiltonian()
    reference = np.empty((n + 1, n + 1))
    for j, s_j in enumerate(bm.basis.elements):
        img = -1j * (h_eff @ s_j - s_j @ h_eff.conj().T) + sum(c @ s_j @ c.conj().T for c in me.lindblads)
        reference[:, j] = [np.trace(s_i @ img).real / np.trace(s_i @ s_i).real for s_i in bm.basis.elements]
    assert np.max(np.abs(rep - reference)) < 1e-14
    expected = np.block([[bm.l0, bm.b[:, None]], [np.zeros(n + 1)]])
    assert np.max(np.abs(rep - expected)) < 1e-14


@pytest.mark.parametrize("model", ["rf", "ae", "cascade_d3"])
def test_pure_slice_cuts_the_pure_sphere(model, request, rng):
    bm = request.getfixturevalue(f"{model}_bm")
    radius_sq = pure_radius_sq(bm.dim)
    for n_sub in range(1, bm.n_coords + 1):
        span, _ = np.linalg.qr(rng.normal(size=(bm.n_coords, n_sub)))
        centre, slice_sq = bm.pure_slice(span)
        # the slice point nearest the origin, and its squared distance from it
        nearest = bm.x_ss + span @ centre
        assert np.max(np.abs(span.T @ nearest)) < 1e-12
        assert abs(slice_sq - (radius_sq - nearest @ nearest)) < 1e-12
        if slice_sq > 0:
            direction = rng.normal(size=n_sub)
            x = bm.x_ss + span @ (centre + np.sqrt(slice_sq) * direction / np.linalg.norm(direction))
            assert abs(x @ x - radius_sq) < 1e-12


def test_vectorize_driven_qubit_matches_closed_form(rf_bm):
    gamma, omega = 1.0, 0.18
    l0 = np.array([[-gamma / 2, 0, 0], [0, -gamma / 2, -omega], [0, omega, -gamma]])
    b = np.array([0.0, 0.0, -gamma])
    assert np.max(np.abs(rf_bm.l0 - l0)) < 1e-12
    assert np.max(np.abs(rf_bm.b - b)) < 1e-12


def test_vectorize_thermal_qubit_matches_closed_form(ae_bm):
    gs, gd = 1.3, 0.3 - 1.0
    assert np.max(np.abs(ae_bm.l0 + gs * np.diag([0.5, 0.5, 1.0]))) < 1e-12
    assert np.max(np.abs(ae_bm.b - np.array([0, 0, gd]))) < 1e-12
    assert np.max(np.abs(ae_bm.x_ss - np.array([0, 0, gd / gs]))) < 1e-12


def test_vectorize_consistency_on_random_states(rf_me, rf_bm, rng):
    liou = lindbladian(rf_me)
    basis = rf_bm.basis
    for _ in range(100):
        rho = random_density_matrix(2, rng)
        x = rho_to_bloch(rho, basis)
        img = _apply(liou, rho)  # traceless, so rho + img has unit trace
        lhs = rho_to_bloch(rho + img, basis) - x
        assert np.max(np.abs(lhs - (rf_bm.l0 @ x + rf_bm.b))) < 1e-10


def test_vectorize_rejects_pure_dephasing():
    me = MasterEquation(2, np.zeros((2, 2)), [np.diag([1.0, -1.0])])
    with pytest.raises(SteadyStateError):
        vectorize(me)


def test_traceless_enforcement_keeps_generator(rng):
    c_traceful = np.array([[0.3, 0.0], [1.0, 0.3]], dtype=complex)
    with pytest.warns(UserWarning):
        me = MasterEquation(2, np.zeros((2, 2)), [c_traceful])
    liou = lindbladian(me)
    for _ in range(20):
        rho = random_density_matrix(2, rng)
        h_eff = -0.5j * c_traceful.conj().T @ c_traceful
        expected = (
            -1j * (h_eff @ rho - rho @ h_eff.conj().T)
            + c_traceful @ rho @ c_traceful.conj().T
        )
        assert np.max(np.abs(_apply(liou, rho) - expected)) < 1e-12
    assert abs(np.trace(me.lindblads[0])) < 1e-12


def test_identity_setting_returns_originals(rf_me):
    setting = UnravellingSetting.identity(1)
    jumps, h_eff = apply_unravelling(rf_me, setting)
    assert np.allclose(jumps[0], rf_me.lindblads[0])
    assert np.allclose(h_eff, rf_me.effective_hamiltonian())


def test_imaginary_amplitude_setting_preserves_generator(rf_me, rf_bm):
    setting = UnravellingSetting(np.eye(1), [0.5j])
    basis = rf_bm.basis
    ref = coordinate_rep(lindbladian(rf_me), basis)
    rep = coordinate_rep(superoperator(*apply_unravelling(rf_me, setting)[::-1]), basis)
    assert np.linalg.norm(rep - ref, 2) < 1e-10 * np.linalg.norm(ref, 2)


def test_random_settings_preserve_generator(ae_me, ae_bm, rng):
    basis = ae_bm.basis
    ref = coordinate_rep(lindbladian(ae_me), basis)
    for _ in range(10):
        raw = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        q, _ = np.linalg.qr(raw)
        setting = UnravellingSetting(q, rng.normal(size=3) + 1j * rng.normal(size=3))
        rep = coordinate_rep(superoperator(*apply_unravelling(ae_me, setting)[::-1]), basis)
        assert np.linalg.norm(rep - ref, 2) < 1e-10 * np.linalg.norm(ref, 2)


def test_generator_invariance_pointwise_cases(rf_me, ae_me, rng):
    # 1000 randomized (setting, state) evaluations across both models.
    cases = 0
    for me in (rf_me, ae_me):
        liou = lindbladian(me)
        n_l = me.n_channels
        for _ in range(50):
            raw = rng.normal(size=(n_l, n_l)) + 1j * rng.normal(size=(n_l, n_l))
            q, _ = np.linalg.qr(raw)
            setting = UnravellingSetting(q, rng.normal(size=n_l) + 1j * rng.normal(size=n_l))
            other = superoperator(*apply_unravelling(me, setting)[::-1])
            for _ in range(10):
                rho = random_density_matrix(2, rng)
                assert np.max(np.abs(_apply(liou, rho) - _apply(other, rho))) < 1e-10
                cases += 1
    assert cases == 1000


def test_no_jump_generator_with_zero_amplitude(rf_me):
    setting = UnravellingSetting.identity(1)
    assert np.allclose(apply_unravelling(rf_me, setting)[1], rf_me.effective_hamiltonian())


def test_no_jump_generator_pins_a_pure_state(rf_me, rf_bm):
    # With the imaginary half-unit amplitude, one eigenvector of the no-jump
    # operator is a pure state on the axis decoupled from the drive.
    from preforge.solver import analytic_k2

    members = None
    for ens, tag in zip(analytic_k2(rf_bm).ensembles, analytic_k2(rf_bm).family_tags):
        if abs(tag["eigenvalue"] + 0.5) < 1e-12:
            members = ens.kets()
    assert members is not None
    for beta in (0.5j, -0.5j):
        _, h_eff = apply_unravelling(rf_me, UnravellingSetting(np.eye(1), [beta]))
        vals, vecs = np.linalg.eig(h_eff)
        overlaps = [
            max(abs(np.vdot(vecs[:, i], members[0])), abs(np.vdot(vecs[:, i], members[1])))
            for i in range(2)
        ]
        assert max(overlaps) > 1 - 1e-10


def test_no_jump_generator_thermal_poles(ae_me):
    setting = UnravellingSetting.identity(2)
    _, h_eff = apply_unravelling(ae_me, setting)
    assert np.max(np.abs(h_eff - np.diag(np.diag(h_eff)))) < 1e-14  # diagonal
    for ket in (np.array([1.0, 0]), np.array([0, 1.0])):
        v = h_eff @ ket
        assert np.linalg.norm(v - (ket.conj() @ v) * ket) < 1e-14


def test_setting_validation():
    with pytest.raises(InvalidSettingError):
        UnravellingSetting(np.array([[1.0, 0.0], [0.0, 0.5]]), [0.0, 0.0])
    with pytest.raises(InvalidSettingError):
        UnravellingSetting(np.zeros((1, 2)), [0.0])  # fewer detectors than channels
