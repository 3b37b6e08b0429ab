import math

import numpy as np
import pytest

from preforge.algebra import build_basis, coordinate_rep, rho_to_bloch
from preforge.constraints import Ensemble, build_full, build_subspace_reduced, verify
from preforge.errors import RealizationError, SynthesisError
from preforge.measurement import (
    NO_TARGET,
    AdaptiveScheme,
    _coherence_distance,
    certify,
    check_subspace_preservation,
    check_wigner_scheme,
    synthesize,
)
from preforge.model import (
    MasterEquation,
    UnravellingSetting,
    apply_unravelling,
    lindbladian,
    superoperator,
    vectorize,
)
from preforge.solver import SolverConfig, analytic_k2, solve_numeric
from preforge.symmetry import (
    WignerSymmetry,
    apply_wigner,
    find_invariant_subspaces,
    find_wigner_symmetries,
    subspace_from_span,
)
from preforge.trajectory import TrajectoryConfig, member_click_rates, simulate


@pytest.fixture(scope="module")
def rf_k2(rf_bm):
    sols = analytic_k2(rf_bm)
    by_lam = {round(t["eigenvalue"], 6): e for e, t in zip(sols.ensembles, sols.family_tags)}
    return by_lam


@pytest.fixture(scope="module")
def axis_scheme(rf_me, rf_k2):
    return synthesize(rf_me, rf_k2[-0.5])


@pytest.fixture(scope="module")
def disc_k3(rf_me, rf_bm):
    rebit = subspace_from_span(rf_bm, np.array([[0, 1.0, 0], [0, 0, 1.0]]).T)
    cs = build_subspace_reduced(rf_bm, rebit, 3, "cyclic")
    sols = solve_numeric(cs, SolverConfig(seeds=64, rng_seed=1))
    assert sols.ensembles
    return sols.ensembles[0]


def test_axis_scheme_has_imaginary_half_amplitude(axis_scheme):
    betas = [s.beta[0] for s in axis_scheme.settings]
    assert abs(betas[0] + betas[1]) < 1e-10  # opposite amplitudes
    for beta in betas:
        assert abs(beta.real) < 1e-8
        assert abs(abs(beta) - 0.5) < 1e-6
    assert axis_scheme.jump_map.tolist() == [[1], [0]]


def test_single_channel_schemes_use_opposite_amplitudes(rf_me, rf_k2):
    for lam, ens in rf_k2.items():
        scheme = synthesize(rf_me, ens)
        b1, b2 = (s.beta[0] for s in scheme.settings)
        assert abs(b1 + b2) < 1e-10


def test_disc_schemes_have_real_amplitudes(rf_me, rf_k2):
    for lam in (-0.923494, -0.576506):
        ens = rf_k2[lam]
        scheme = synthesize(rf_me, ens)
        for setting in scheme.settings:
            assert abs(setting.beta[0].imag) < 1e-8


def test_thermal_poles_scheme_needs_no_oscillator(ae_me, ae_bm):
    poles = next(
        e
        for e, t in zip(analytic_k2(ae_bm).ensembles, analytic_k2(ae_bm).family_tags)
        if t["family"] is None
    )
    scheme = synthesize(ae_me, poles)
    for setting in scheme.settings:
        assert np.max(np.abs(setting.beta)) < 1e-10
        assert np.allclose(setting.s, np.eye(2))
    # each member clicks through exactly one live detector
    for k in range(2):
        routing = scheme.jump_map[k]
        assert sorted(routing.tolist()) == sorted([1 - k, NO_TARGET])


def test_scheme_reconstructs_generator(rf_me, rf_bm, axis_scheme):
    basis = rf_bm.basis
    ref = coordinate_rep(lindbladian(rf_me), basis)
    for setting in axis_scheme.settings:
        rep = coordinate_rep(superoperator(*apply_unravelling(rf_me, setting)[::-1]), basis)
        assert np.linalg.norm(rep - ref, 2) <= 1e-10 * np.linalg.norm(ref, 2)


def test_rate_sum_rule(rf_me, rf_k2):
    for ens in rf_k2.values():
        scheme = synthesize(rf_me, ens)
        kets = ens.kets()
        for k in range(ens.k):
            jumps, _ = scheme.jumps_and_generator(rf_me, k)
            total = sum(float(np.vdot(c @ kets[k], c @ kets[k]).real) for c in jumps)
            outgoing = float(ens.kappa[:, k].sum())
            # no self-loops in these schemes, so totals match the rates
            assert abs(total - outgoing) < 1e-8


def test_synthesis_failure_reports_best_residual(rf_me, rf_k2):
    ens = rf_k2[-0.5]
    broken = Ensemble.from_states_kappa(2, ens.states, ens.kappa * 1.7)
    with pytest.raises(SynthesisError) as err:
        synthesize(rf_me, broken)
    assert err.value.best_residual is not None
    assert err.value.best_residual > 1e-8


def test_axis_scheme_violates_axis_slice(rf_me, rf_bm, axis_scheme):
    u_axis = subspace_from_span(rf_bm, np.array([[1.0, 0, 0]]).T)
    report = check_subspace_preservation(rf_me, axis_scheme, u_axis)
    assert not report.preserves
    # both the click and the no-click evolution leak from the slice interior
    kinds = {v.operation for v in report.verdicts if not v.preserves}
    assert any(op.startswith("jump") for op in kinds)
    assert "no-jump" in kinds
    assert all(v.leak > 1e-8 for v in report.verdicts if not v.preserves)


def test_disc_scheme_preserves_disc(rf_me, rf_bm, disc_k3):
    scheme = synthesize(rf_me, disc_k3)
    for setting in scheme.settings:
        assert abs(setting.beta[0].imag) < 1e-8  # real amplitudes on the disc
    rebit = subspace_from_span(rf_bm, np.array([[0, 1.0, 0], [0, 0, 1.0]]).T)
    report = check_subspace_preservation(rf_me, scheme, rebit)
    assert report.preserves


def test_zero_amplitude_scheme_preserves_axis(ae_me, ae_bm):
    poles = next(
        e
        for e, t in zip(analytic_k2(ae_bm).ensembles, analytic_k2(ae_bm).family_tags)
        if t["family"] is None
    )
    scheme = synthesize(ae_me, poles)
    w_axis = subspace_from_span(ae_bm, np.array([[0, 0, 1.0]]).T)
    assert check_subspace_preservation(ae_me, scheme, w_axis).preserves


def test_equatorial_scheme_verdicts_on_the_steady_state_disc(ae_me, ae_bm):
    # The slice x_ss + span(u, v) holds the states with the steady-state
    # polarization; it does not pass through the maximally mixed state.  On
    # the equatorial ensemble's scheme the clicking detector and the no-jump
    # evolution leave it and the dark detector keeps it, as sampling shows.
    sols = analytic_k2(ae_bm)
    equatorial = next(
        e for e, t in zip(sols.ensembles, sols.family_tags) if t["family"] is not None
    )
    disc = subspace_from_span(ae_bm, np.array([[1.0, 0, 0], [0, 1.0, 0]]).T)
    assert disc.distance(ae_bm.x_ss) > 0.5
    scheme = synthesize(ae_me, equatorial)
    assert scheme.jump_map.tolist() == [[1, NO_TARGET], [0, NO_TARGET]]
    report = check_subspace_preservation(ae_me, scheme, disc)
    assert [(v.operation, v.preserves) for v in report.verdicts] == [
        ("jump[0]", False), ("jump[1]", True), ("no-jump", False)
    ] * 2
    assert all(v.leak <= 1e-12 for v in report.verdicts if v.preserves)
    assert all(v.leak > 0.1 for v in report.verdicts if not v.preserves)


def test_wigner_scheme_verdicts(rf_me, rf_bm, rf_k2, axis_scheme):
    flip = find_wigner_symmetries(rf_bm)[0]
    swap = [1, 0]
    assert check_wigner_scheme(rf_me, axis_scheme, flip, swap).passed
    for lam in (-0.923494, -0.576506):
        scheme = synthesize(rf_me, rf_k2[lam])
        assert not check_wigner_scheme(rf_me, scheme, flip, swap).passed
    identity = WignerSymmetry(t0=np.eye(3), antiunitary=False)
    assert check_wigner_scheme(rf_me, axis_scheme, identity, [0, 1]).passed


def test_symmetry_transfers_scheme_conditions(ae_me, ae_bm):
    # Conjugating every scheme operator by a certified symmetry must yield
    # operators satisfying the defining conditions for the rotated ensemble.
    sols = analytic_k2(ae_bm)
    equatorial = next(
        e for e, t in zip(sols.ensembles, sols.family_tags) if t["family"] is not None
    )
    scheme = synthesize(ae_me, equatorial)
    gen = next(w.generator for w in find_wigner_symmetries(ae_bm) if w.generator is not None)
    from preforge.symmetry import lie_element

    theta = np.pi / 3
    w = WignerSymmetry(t0=lie_element(gen, theta), antiunitary=False)
    rotated = apply_wigner(w, equatorial)
    # a qubit rotation about the polarization axis implementing t0
    u = np.diag(np.exp(np.array([1j, -1j]) * theta / 2))
    kets_rot = rotated.kets()
    for k in range(equatorial.k):
        jumps, h_eff = scheme.jumps_and_generator(ae_me, k)
        jumps_t = [u @ c @ u.conj().T for c in jumps]
        h_t = u @ h_eff @ u.conj().T
        phi = None
        # find the rotated member matching this conjugated setting
        for cand in kets_rot:
            v = h_t @ cand
            if np.linalg.norm(v - (cand.conj() @ v) * cand) < 1e-8:
                phi = cand
                break
        assert phi is not None
        total = sum(float(np.vdot(c @ phi, c @ phi).real) for c in jumps_t)
        assert abs(total - float(equatorial.kappa[:, k].sum())) < 1e-8


@pytest.fixture(scope="module")
def rf_k3(rf_bm):
    """The full-space rf K=3 ensembles of each graph, as ``search`` lists them."""
    cfg = SolverConfig(seeds=128, rng_seed=0)
    return {g: solve_numeric(build_full(rf_bm, 3, g), cfg).ensembles for g in ("cyclic", "full")}


def _assert_realized(me, ens, scheme):
    cap = np.sqrt(10.0 * max(np.linalg.norm(c, 2) ** 2 for c in me.lindblads))
    assert certify(me, scheme, ens).realized.all()
    for setting in scheme.settings:
        assert np.max(np.abs(setting.beta)) <= cap


RF_K3_COUNTS = {"cyclic": 8, "full": 1}


@pytest.mark.parametrize(
    "graph, index", [(g, i) for g, count in RF_K3_COUNTS.items() for i in range(count)]
)
def test_rf_k3_ensembles_are_realized(rf_me, rf_k3, graph, index):
    assert len(rf_k3[graph]) == RF_K3_COUNTS[graph]
    ens = rf_k3[graph][index]
    scheme = synthesize(rf_me, ens)
    _assert_realized(rf_me, ens, scheme)
    # one channel: a cyclic member needs one detector; two targets need two
    assert scheme.n_detectors == {"cyclic": 1, "full": 2}[graph]
    assert [d["detectors"] for d in scheme.diagnostics] == [scheme.n_detectors] * 3
    assert all(d["gram_residual"] < 1e-8 for d in scheme.diagnostics)


def test_free_shift_is_put_on_the_no_self_loop_sphere(rf_me):
    # With dephasing as a second channel the eigenvector condition leaves b
    # one free direction, and on full-graph members its nearest point to -a
    # would need an oscillator-only detector (sigma < 0).  Moving b onto the
    # sphere sigma = 0 realizes every member with the two channels alone.
    dephasing = np.sqrt(0.05) * np.diag([1.0, -1.0])
    me = MasterEquation(2, rf_me.hamiltonian, [rf_me.lindblads[0], dephasing])
    found = solve_numeric(build_full(vectorize(me), 3, "full"), SolverConfig(seeds=64, rng_seed=0))
    assert found.ensembles
    for ens in found.ensembles:
        scheme = synthesize(me, ens)
        _assert_realized(me, ens, scheme)
        assert scheme.n_detectors == 2
        assert all(d["sigma"] == 0.0 for d in scheme.diagnostics)


def test_synthesis_logs_member_diagnostics(rf_me, rf_k2, caplog):
    with caplog.at_level("DEBUG", logger="preforge"):
        scheme = synthesize(rf_me, rf_k2[-0.5])
    assert [d["sigma"] for d in scheme.diagnostics] == [0.0, 0.0]
    records = [r for r in caplog.records if r.getMessage().startswith("synthesis:")]
    assert len(records) == 1 and "1 detectors" in records[0].getMessage()


def _pump_d3_ensemble():
    """The basis kets of the three-level pumping model, at its pumping rates."""
    basis = build_basis(3)
    states = [rho_to_bloch(np.diag(np.eye(3)[i]).astype(complex), basis) for i in range(3)]
    kappa = np.zeros((3, 3))
    kappa[0, 1], kappa[1, 2], kappa[2, 0] = 1.0, 0.6, 0.3
    return Ensemble.from_states_kappa(3, states, kappa)


def test_three_level_pumping_scheme_is_bare_detection(pump_d3_me):
    bm = vectorize(pump_d3_me)
    ens = _pump_d3_ensemble()
    kappa = ens.kappa
    assert verify(bm, ens).passed
    scheme = synthesize(pump_d3_me, ens)
    _assert_realized(pump_d3_me, ens, scheme)
    for k, setting in enumerate(scheme.settings):
        assert np.allclose(setting.s, np.eye(3), atol=1e-12)
        assert np.max(np.abs(setting.beta)) < 1e-12
        live = [t for t in scheme.jump_map[k] if t != NO_TARGET]
        assert live == [int(np.flatnonzero(kappa[:, k])[0])]
    stats = simulate(pump_d3_me, scheme, ens, TrajectoryConfig(n_jumps=6000, rng_seed=5))
    sigma = np.sqrt(ens.occupations * (1 - ens.occupations) / stats.n_jumps)
    assert np.all(np.abs(stats.occupancy - ens.occupations) <= 3 * sigma + 5e-3)
    assert stats.max_state_drift <= 1e-6


@pytest.mark.parametrize(
    "tags, preserves",
    [
        (("pair(re=-0.95)",), True),
        (("pair(re=-0.95)", "pair(re=-0.45)"), True),
        (("pair(re=-0.8)", "pair(re=-0.65)", "pair(re=-0.45)"), False),
    ],
)
def test_three_level_bare_detection_slice_verdicts(pump_d3_me, tags, preserves):
    # The -0.95 pair spans the diagonal slice (the populations), which bare
    # detection keeps.  The 4-D slice of the -0.95 and -0.45 pairs is kept
    # too, although random points of it near its pure sphere are mostly not
    # states; the slice without the -0.95 pair leaks under every operation.
    bm = vectorize(pump_d3_me)
    scheme = synthesize(pump_d3_me, _pump_d3_ensemble())
    subs = {s.tags: s for s in find_invariant_subspaces(bm)}
    if tags == ("pair(re=-0.95)",):
        diagonal = subspace_from_span(bm, np.eye(bm.n_coords)[:, -2:])
        assert np.allclose(subs[tags].basis_i0 @ subs[tags].basis_i0.T,
                           diagonal.basis_i0 @ diagonal.basis_i0.T, atol=1e-12)
    report = check_subspace_preservation(pump_d3_me, scheme, subs[tags])
    assert len(report.verdicts) == scheme.k * (scheme.n_detectors + 1)
    assert report.preserves is preserves
    assert all(v.preserves is preserves for v in report.verdicts)
    if preserves:
        assert max(v.leak for v in report.verdicts) <= 1e-12
    else:
        assert max(v.leak for v in report.verdicts) > 0.5


def _drift_as_simulate_computed_it(me, scheme, ens):
    """The closure certificate in the order of operations ``simulate`` used
    before the certificate had one function: one running max over the lit
    members, each member's terms in detector order."""
    kets = ens.kets().astype(complex)
    ops = [scheme.jumps_and_generator(me, k) for k in range(ens.k)]
    amps = np.array([np.asarray(jumps) @ phi for (jumps, _), phi in zip(ops, kets)])
    rates = np.sum(np.abs(amps) ** 2, axis=2).sum(axis=1)
    drift = 0.0
    for k in np.flatnonzero(rates > 1e-12 * rates.max()):
        drift = max(
            drift,
            _coherence_distance(ops[k][1] @ kets[k], kets[k]) / rates[k],
            *(_coherence_distance(a / math.sqrt(rates[k]), kets[j]) for a, j in zip(amps[k], scheme.next_labels[k])),
        )
    return drift


@pytest.fixture(scope="module")
def catalog_ensembles(rf_me, rf_bm, ae_me, ae_bm, pump_d3_me):
    """Name -> (model, ensembles): the catalog ensembles every verdict is pinned on."""
    cfg = SolverConfig(seeds=64, rng_seed=7)
    return {
        "rf-k2": (rf_me, analytic_k2(rf_bm).ensembles),
        "rf-k3": (rf_me, solve_numeric(build_full(rf_bm, 3, "cyclic"), cfg).ensembles),
        "ae-k2": (ae_me, analytic_k2(ae_bm).ensembles),
        "ae-k3": (ae_me, solve_numeric(build_full(ae_bm, 3, "full"), cfg).ensembles),
        "pump-d3": (pump_d3_me, [_pump_d3_ensemble()]),
    }


CATALOG_COUNTS = {"rf-k2": 3, "rf-k3": 8, "ae-k2": 2, "ae-k3": 4, "pump-d3": 1}


@pytest.mark.parametrize("name, index", [(n, i) for n, count in CATALOG_COUNTS.items() for i in range(count)])
def test_catalog_schemes_are_realized_with_the_drift_simulate_reported(catalog_ensembles, name, index):
    me, ensembles = catalog_ensembles[name]
    assert len(ensembles) == CATALOG_COUNTS[name]
    ens = ensembles[index]
    scheme = synthesize(me, ens)
    real = certify(me, scheme, ens)
    assert real.realized.all() and real.closed
    stats = simulate(me, scheme, ens, TrajectoryConfig(n_jumps=200, rng_seed=0))
    assert stats.max_state_drift == real.drift == _drift_as_simulate_computed_it(me, scheme, ens)
    assert np.array_equal(member_click_rates(stats)[1], real.rates)


def test_certificate_rejects_what_synthesis_and_simulation_rejected(rf_me, rf_k2, axis_scheme):
    ens = rf_k2[-0.5]
    with pytest.raises(SynthesisError) as err:
        synthesize(rf_me, Ensemble.from_states_kappa(2, ens.states, ens.kappa * 1.7))
    assert err.value.best_residual > 1e-8
    flipped = AdaptiveScheme(
        tuple(UnravellingSetting(s.s, -s.beta) for s in axis_scheme.settings), axis_scheme.jump_map.copy()
    )
    real = certify(rf_me, flipped, ens)
    assert not real.closed and not real.realized.any()
    with pytest.raises(RealizationError, match="closure certificate"):
        simulate(rf_me, flipped, ens, TrajectoryConfig(n_jumps=100))


def test_certificate_of_a_dark_member(rf_me):
    # Decay e1 -> e0 on identity settings: e0 is dark, so it has no closure
    # certificate and no exit rate, and its missing rate is a rate mismatch.
    decay = np.sqrt(0.8) * np.array([[0.0, 1.0], [0.0, 0.0]])
    me = MasterEquation(2, np.zeros((2, 2)), [decay])
    ens = Ensemble.from_states_kappa(2, [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]], [[0, 1], [1, 0]])
    identity = UnravellingSetting.identity(1)
    scheme = AdaptiveScheme((identity, identity), np.array([[1], [0]]))
    real = certify(me, scheme, ens)
    assert real.closed and real.closure.tolist() == [0.0, 0.0]
    assert real.rates[0] == 0.0 and real.rates[1] == pytest.approx(0.8, rel=1e-12)
    assert real.realized.tolist() == [False, False]  # rates 0 and 0.8 against kappa 1
    with pytest.raises(RealizationError, match="never clicks"):
        simulate(me, scheme, ens, TrajectoryConfig(n_jumps=10))


def test_a_clicking_no_target_detector_is_a_self_loop(rf_me, rf_k2, axis_scheme):
    # A second detector beta = 0.3 on the identity: it clicks on each member
    # at rate 0.09 and leaves the member ket as it is.  Routed to NO_TARGET it
    # is a self-loop, so the scheme still realizes the pair, with exit rates
    # raised by 0.09 that the chain samples as self-loops.
    ens = rf_k2[-0.5]
    settings = tuple(UnravellingSetting(np.vstack([s.s, [[0.0]]]), [s.beta[0], 0.3]) for s in axis_scheme.settings)
    scheme = AdaptiveScheme(settings, np.array([[1, NO_TARGET], [0, NO_TARGET]]))
    real = certify(rf_me, scheme, ens)
    assert real.realized.all() and real.drift <= 1e-14
    assert real.next_labels.tolist() == [[1, 0], [0, 1]]
    assert np.allclose(real.weights[:, 1], 0.09, rtol=1e-12)
    assert np.allclose(real.rates, ens.kappa.sum(axis=0) + 0.09, rtol=1e-12)
    stats = simulate(rf_me, scheme, ens, TrajectoryConfig(n_jumps=4000, rng_seed=0))
    assert stats.max_state_drift == real.drift
    loops = stats.self_loop_counts.sum() / stats.n_jumps
    share = 0.09 / real.rates[0]  # both members exit at the same rate
    assert abs(loops - share) <= 4 * np.sqrt(share * (1 - share) / stats.n_jumps)


def test_a_scheme_that_does_not_fit_the_ensemble_is_refused(rf_me, rf_k2, catalog_ensembles, axis_scheme):
    k3 = catalog_ensembles["rf-k3"][1][0]
    k3_scheme = synthesize(rf_me, k3)
    cfg = TrajectoryConfig(n_jumps=10)
    for scheme, ens in ((axis_scheme, k3), (k3_scheme, rf_k2[-0.5])):
        with pytest.raises(RealizationError, match="does not fit an ensemble"):
            simulate(rf_me, scheme, ens, cfg)
    for routing in ([[1], [2]], [[1], [-2]], [[1, 0], [0, 1]], [1, 0]):
        scheme = AdaptiveScheme(axis_scheme.settings, np.array(routing))
        with pytest.raises(RealizationError, match="does not fit an ensemble"):
            certify(rf_me, scheme, rf_k2[-0.5])
