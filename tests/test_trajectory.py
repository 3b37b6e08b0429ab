import numpy as np
import pytest
import scipy.linalg as la

from preforge.algebra import build_basis, random_pure_ket, rho_to_bloch
from preforge.constraints import Ensemble
from preforge.errors import ConvergenceError, RealizationError
from preforge.measurement import CLOSURE_TOL, NO_TARGET, AdaptiveScheme, _coherence_distance, synthesize
from preforge.mespec import load_catalog
from preforge.model import MasterEquation, UnravellingSetting
from preforge.solver import analytic_k2
from preforge.trajectory import (
    _DRAW_BLOCK,
    _LOCKSTEP_ROWS,
    TrajectoryConfig,
    _ClickEngine,
    _Draws,
    _apply,
    _vdot_rows,
    member_click_rates,
    simulate,
    unconditional_check,
)


@pytest.fixture(scope="module")
def poles(ae_bm):
    sols = analytic_k2(ae_bm)
    return next(
        e for e, t in zip(sols.ensembles, sols.family_tags) if t["family"] is None
    )


@pytest.fixture(scope="module")
def poles_scheme(ae_me, poles):
    return synthesize(ae_me, poles)


@pytest.fixture(scope="module")
def axis_pair(rf_bm):
    sols = analytic_k2(rf_bm)
    return next(
        e
        for e, t in zip(sols.ensembles, sols.family_tags)
        if abs(t["eigenvalue"] + 0.5) < 1e-12
    )


@pytest.fixture(scope="module")
def axis_scheme(rf_me, axis_pair):
    return synthesize(rf_me, axis_pair)


@pytest.fixture(scope="module")
def dark_case():
    """Decay e1 -> e0 with both members on identity settings: e0 never clicks."""
    decay = np.sqrt(0.8) * np.array([[0.0, 1.0], [0.0, 0.0]])
    me = MasterEquation(2, np.zeros((2, 2)), [decay])
    identity = UnravellingSetting.identity(1)
    scheme = AdaptiveScheme(settings=(identity, identity), jump_map=np.array([[1], [0]]))
    return me, scheme


@pytest.fixture(scope="module")
def ep_case():
    """Driven decaying qubit at the exceptional point of H_eff, one self-looping setting."""
    me = load_catalog("resonance_fluorescence", {"gamma": 1.0, "Omega": 0.5})
    scheme = AdaptiveScheme(settings=(UnravellingSetting.identity(1),), jump_map=np.array([[0]]))
    return me, scheme


def _trajectory_draws(seed, traj):
    """Trajectory ``traj``'s uniform draws in the documented layout, one at a time.

    Its first ``_DRAW_BLOCK`` draws are its block of the shared stream,
    taken here by drawing every earlier block too; then its own child stream.
    """
    shared = np.random.default_rng([seed, 1000]).random((traj + 1) * _DRAW_BLOCK)
    yield from shared[traj * _DRAW_BLOCK :].tolist()
    own = np.random.default_rng(np.random.SeedSequence([seed, 1000], spawn_key=(traj,)))
    while True:
        yield own.random()


def _scheme_engine(me, scheme):
    return _ClickEngine([scheme.jumps_and_generator(me, k) for k in range(scheme.k)])


def _labels(n, label=0):
    return np.full(n, label, dtype=np.int64)


def _reference_samples(me, scheme, cfg, psi0, times, n_trajectories):
    """One trajectory at a time, each engine call on a stack of one row.

    Returns the samples phi phi^dagger, shape (n_trajectories, n_times, D, D),
    and the number of uniform draws each trajectory took.
    """
    engine = _scheme_engine(me, scheme)

    def one(method, label, rows, values):
        return [out[0] for out in getattr(engine, method)(np.array([rows]), _labels(1, label), np.array([values]))]

    psi0 = np.asarray(psi0, dtype=complex) / np.linalg.norm(psi0)
    samples = np.zeros((n_trajectories, len(times), me.dim, me.dim), dtype=complex)
    n_draws = np.zeros(n_trajectories, dtype=int)
    for traj in range(n_trajectories):
        draws = _trajectory_draws(cfg.rng_seed, traj)
        psi = psi0
        label = 0
        t = 0.0
        tau, pre = one("wait", label, psi, 1.0 - next(draws))
        n_draws[traj] = 1
        for c_idx, t_check in enumerate(times):
            while t + tau <= t_check:
                channel, psi = one("click", label, pre, next(draws))
                target = int(scheme.jump_map[label, channel])
                label = label if target == NO_TARGET else target
                t += tau
                tau, pre = one("wait", label, psi, 1.0 - next(draws))
                n_draws[traj] += 2
            phi = engine.propagate(psi[None], _labels(1, label), np.array([t_check - t]))[0]
            phi = phi / np.linalg.norm(phi)
            samples[traj, c_idx] = np.outer(phi, phi.conj())
    return samples, n_draws


def _batch_sigma(stats_list):
    occ = np.array([s.occupancy[0] for s in stats_list])
    return occ.mean(), occ.std(ddof=1) / np.sqrt(len(occ))


def test_thermal_poles_occupancy_matches_rates(ae_me, poles, poles_scheme):
    stats = simulate(ae_me, poles_scheme, poles, TrajectoryConfig(n_jumps=6000, rng_seed=7))
    assert abs(stats.occupancy.sum() - 1.0) < 1e-12
    assert stats.max_state_drift <= 1e-6
    # binomial-style three-sigma band around the stationary fraction
    n_visits = stats.jump_counts.sum()
    sigma = np.sqrt(poles.occupations[0] * poles.occupations[1] / n_visits) * 3.0
    # dwell-weighted occupancy has comparable relative error to visit counts
    assert abs(stats.occupancy[0] - poles.occupations[0]) < 5 * sigma + 0.02
    # excited member is the rarer one for gamma_plus < gamma_minus
    excited = int(np.argmax(poles.states[:, 2]))
    assert stats.occupancy[excited] < stats.occupancy[1 - excited]


def test_jump_counts_follow_rates(ae_me, poles, poles_scheme):
    stats = simulate(ae_me, poles_scheme, poles, TrajectoryConfig(n_jumps=6000, rng_seed=11))
    for j in range(2):
        k = 1 - j
        expected = poles.kappa[j, k] * stats.occupancy[k] * stats.total_time
        got = stats.jump_counts[j, k]
        assert abs(got - expected) <= 4.0 * np.sqrt(expected)
    assert np.all(np.diag(stats.jump_counts) == 0)


def test_axis_pair_occupancy_and_drift(rf_me, axis_pair, axis_scheme):
    stats = simulate(rf_me, axis_scheme, axis_pair, TrajectoryConfig(n_jumps=6000, rng_seed=3))
    assert stats.max_state_drift <= 1e-6
    sigma = 3.0 * np.sqrt(0.25 / stats.n_jumps)
    assert abs(stats.occupancy[0] - axis_pair.occupations[0]) < 3 * sigma + 0.02


def test_wrong_amplitude_sign_fails_to_pin(rf_me, axis_pair, axis_scheme):
    flipped = AdaptiveScheme(
        settings=tuple(
            UnravellingSetting(s.s, -s.beta) for s in axis_scheme.settings
        ),
        jump_map=axis_scheme.jump_map.copy(),
    )
    with pytest.raises(RealizationError):
        simulate(rf_me, flipped, axis_pair, TrajectoryConfig(n_jumps=1000, rng_seed=0))


def test_norm_decays_monotonically_between_clicks(rf_me, axis_scheme, rng):
    jumps, h_eff = axis_scheme.jumps_and_generator(rf_me, 0)
    engine = _ClickEngine([(jumps, h_eff)])
    taus = np.linspace(0.0, 20.0, 401)
    for _ in range(5):
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi /= np.linalg.norm(psi)
        norms = np.linalg.norm(engine.propagate(np.tile(psi, (taus.size, 1)), _labels(taus.size), taus), axis=1) ** 2
        assert np.all(np.diff(norms) <= 1e-12)
        exact = np.array([np.linalg.norm(la.expm(-1j * h_eff * tau) @ psi) ** 2 for tau in taus])
        assert np.max(np.abs(norms - exact)) <= 1e-12


def test_pinned_member_waits_closed_form(rf_me, axis_scheme, axis_pair):
    kets = axis_pair.kets()
    for k in range(2):
        jumps, h_eff = axis_scheme.jumps_and_generator(rf_me, k)
        engine = _ClickEngine([(jumps, h_eff)])
        rate = sum(np.linalg.norm(c @ kets[k]) ** 2 for c in jumps)
        draws = np.array([0.9, 0.3, 1e-3])
        taus, phis = engine.wait(np.tile(kets[k], (draws.size, 1)), _labels(draws.size), draws)
        for u, tau, phi in zip(draws, taus, phis):
            assert abs(tau - (-np.log(u) / rate)) <= 1e-12 * tau
            assert abs(np.linalg.norm(phi) ** 2 - u) <= 1e-12


def test_jordan_block_wait_solves_norm_equation(rng):
    gamma = 1.0
    h_eff = np.array([[-0.5j * gamma, 0.5 * gamma], [0.0, -0.5j * gamma]])
    engine = _ClickEngine([([np.sqrt(gamma) * np.eye(2)], h_eff)])
    assert engine.defective[0]  # propagated by matrix exponential
    for _ in range(5):
        psi = random_pure_ket(2, rng)
        draws = np.array([0.95, 0.5, 0.01])
        for u, tau, phi in zip(draws, *engine.wait(np.tile(psi, (draws.size, 1)), _labels(draws.size), draws)):
            assert np.isfinite(tau) and tau > 0
            state = la.expm(-1j * h_eff * tau) @ psi
            assert abs(np.linalg.norm(state) ** 2 - u) <= 1e-12
            assert np.allclose(phi, state, atol=1e-12)


@pytest.mark.parametrize("eps", [1e-9, 1e-11])
def test_norm_near_exceptional_point_matches_expm(eps):
    # Driven decaying qubit just above its exceptional point Omega = 1/4:
    # the eigenvectors are nearly parallel (cond(V) about 4e4 and 4e5).
    omega = 0.25 * (1.0 + eps)
    h_eff = np.array([[-0.5j, omega], [omega, 0.0]])
    engine = _ClickEngine([([np.array([[0.0, 0.0], [1.0, 0.0]])], h_eff)])
    psi = np.array([1.0, 0.0], dtype=complex)
    taus = np.linspace(0.0, 30.0, 301)
    norms = np.linalg.norm(engine.propagate(np.tile(psi, (taus.size, 1)), _labels(taus.size), taus), axis=1) ** 2
    exact = np.array([np.linalg.norm(la.expm(-1j * h_eff * tau) @ psi) ** 2 for tau in taus])
    assert np.max(np.abs(norms - exact)) <= 1e-13


def test_checkpoint_grid_insensitivity(ae_me, poles_scheme):
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    cfg = TrajectoryConfig(rng_seed=21)
    alone = unconditional_check(
        ae_me, poles_scheme, cfg, psi0=plus, times=[1.0], n_trajectories=300
    )
    grid = unconditional_check(
        ae_me, poles_scheme, cfg, psi0=plus, times=[0.25, 0.5, 1.0], n_trajectories=300
    )
    assert np.array_equal(alone.times, [1.0])
    assert np.array_equal(grid.times, [0.25, 0.5, 1.0])
    # checkpoints draw no random numbers: t = 1 sees the same clicks either way
    assert np.array_equal(alone.averages[0], grid.averages[2])
    assert alone.distances[0] == grid.distances[2]


def test_dark_state_never_clicks_and_fails_bounded():
    gamma = 0.8
    decay = np.sqrt(gamma) * np.array([[0.0, 1.0], [0.0, 0.0]])  # e1 -> e0
    h_eff = np.diag([0.0, -0.5j * gamma])
    engine = _ClickEngine([([decay], h_eff)])
    e0 = np.array([1.0, 0.0], dtype=complex)
    plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    kets = np.array([e0, e0, e0, plus, plus, plus, plus])
    # plus keeps the no-jump norm 1/2 forever: u at or below it never clicks
    draws = np.array([0.999, 0.5, 1e-9, 0.4, 0.5 - 1e-12, 0.5 + 1e-12, 0.8])
    taus, phis = engine.wait(kets, _labels(len(kets)), draws)
    assert np.all(taus[:5] == np.inf) and np.all(np.isnan(phis[:5]))
    assert np.isfinite(taus[5])
    assert abs(taus[6] - (-np.log(0.6) / gamma)) <= 1e-12 * taus[6]

    me = MasterEquation(2, np.zeros((2, 2)), [decay])
    ens = Ensemble.from_states_kappa(2, [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]], [[0, 1], [1, 0]])
    identity = UnravellingSetting.identity(1)
    scheme = AdaptiveScheme(settings=(identity, identity), jump_map=np.array([[1], [0]]))
    with pytest.raises(RealizationError):
        simulate(me, scheme, ens, TrajectoryConfig(n_jumps=10))
    # The walk starts in the dark member, so t_max ends during the burn-in.
    with pytest.raises(RealizationError, match="member 0 never clicks: the walk reached it after 0 of the 20 burn-in"):
        simulate(me, scheme, ens, TrajectoryConfig(n_jumps=10, t_max=5.0))


def test_time_limit_inside_the_burn_in_raises(rf_me, axis_scheme, axis_pair):
    with pytest.raises(ValueError, match=r"t_max = 1 ends after \d+ of the 20 burn-in clicks: nothing was recorded"):
        simulate(rf_me, axis_scheme, axis_pair, TrajectoryConfig(n_jumps=100, t_max=1.0))
    stats = simulate(rf_me, axis_scheme, axis_pair, TrajectoryConfig(n_jumps=100, t_max=100.0))
    assert stats.n_jumps > 0 and abs(stats.occupancy.sum() - 1.0) <= 1e-12


def test_dark_member_reached_after_burn_in_holds_until_t_max():
    # Member 0 (e1) clicks back to itself at rate 5 and decays to the dark
    # member 1 (e0) at rate 0.1, so the walk ends there after about 50 clicks.
    loop = np.sqrt(5.0) / 2 * np.diag([-1.0, 1.0])  # shifted to sqrt(5) |e1><e1| below
    decay = np.sqrt(0.1) * np.array([[0.0, 1.0], [0.0, 0.0]])
    me = MasterEquation(2, np.zeros((2, 2)), [loop, decay])
    ens = Ensemble.from_states_kappa(2, [[0.0, 0.0, -1.0], [0.0, 0.0, 1.0]], [[0, 1], [1, 0]])
    shift = UnravellingSetting(np.eye(2), np.array([np.sqrt(5.0) / 2, 0.0]))
    scheme = AdaptiveScheme(settings=(shift, shift), jump_map=np.array([[0, 1], [NO_TARGET, NO_TARGET]]))
    stats = simulate(me, scheme, ens, TrajectoryConfig(t_max=50.0, rng_seed=1))
    assert stats.max_state_drift == 0.0 and stats.n_jumps > 0
    t_last, _, _, to = stats.events[-1]
    assert to == 1 and abs(stats.total_time - 50.0) <= 1e-12
    assert abs(stats.occupancy[1] * stats.total_time - (50.0 - t_last)) <= 1e-12
    with pytest.raises(RealizationError, match="member 1 never clicks"):
        simulate(me, scheme, ens, TrajectoryConfig(n_jumps=1000, rng_seed=1))


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_drift_is_coherence_distance(dim, rng):
    basis = build_basis(dim)
    for offset in (10.0, 1e-3):  # unrelated kets, then nearby ones
        for _ in range(10):
            psi = random_pure_ket(dim, rng)
            phi = psi + offset * random_pure_ket(dim, rng)
            phi /= np.linalg.norm(phi)
            bloch = np.linalg.norm(
                rho_to_bloch(np.outer(psi, psi.conj()), basis)
                - rho_to_bloch(np.outer(phi, phi.conj()), basis)
            )
            assert abs(_coherence_distance(psi, phi) - bloch) <= 1e-12 * bloch


def test_unconditional_average_from_ground(rf_me, axis_scheme):
    ground = np.array([0.0, 1.0])
    report = unconditional_check(
        rf_me,
        axis_scheme,
        TrajectoryConfig(rng_seed=5, t_max=2.0),
        psi0=ground,
        n_trajectories=200,
    )
    assert report.passed
    assert report.distances.max() <= 5e-3


def test_unconditional_average_near_zero_time(rf_me, axis_scheme, axis_pair):
    report = unconditional_check(
        rf_me,
        axis_scheme,
        TrajectoryConfig(rng_seed=5),
        psi0=axis_pair.kets()[0],
        times=[1e-3],
        n_trajectories=50,
    )
    assert report.distances.max() < 1e-4  # essentially no evolution yet


def test_unconditional_band_scales_with_the_sampled_spread(rf_me, axis_scheme):
    cfg = TrajectoryConfig(rng_seed=3, t_max=2.0)
    banded = unconditional_check(rf_me, axis_scheme, cfg, n_trajectories=100)
    # sigma^2 is the summed entry variance of the unit-norm samples phi phi^dagger.
    assert np.allclose(banded.sigma ** 2, 1.0 - np.sum(np.abs(banded.averages) ** 2, axis=(1, 2)))
    assert banded.tol is None and banded.z == 4.0
    assert np.allclose(banded.bounds, 4.0 * banded.sigma / 10.0, rtol=0, atol=1e-8)
    assert banded.passed == bool(np.all(banded.distances <= banded.bounds))
    fixed = unconditional_check(rf_me, axis_scheme, cfg, n_trajectories=100, tol=1e-3)
    assert np.array_equal(fixed.distances, banded.distances)
    assert np.all(fixed.bounds == 1e-3) and fixed.passed == bool(np.max(fixed.distances) <= 1e-3)
    # One trajectory is a pure state at every time: the band has zero width.
    single = unconditional_check(rf_me, axis_scheme, cfg, n_trajectories=1)
    assert np.all(single.sigma < 1e-7) and np.all(single.bounds < 1e-6) and not single.passed


def test_unconditional_thermal_relaxation(ae_me, ae_bm, poles_scheme):
    # Equatorial start: trajectories roam the continuum before capture, so
    # the sampling error dominates; check the relaxation rates against the
    # exact curves at a Monte-Carlo band (~3 sigma for this sample size).
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    times = [0.4, 1.0, 2.0]
    n_traj = 1200
    report = unconditional_check(
        ae_me,
        poles_scheme,
        TrajectoryConfig(rng_seed=9),
        psi0=plus,
        times=times,
        n_trajectories=n_traj,
        tol=3.0 / np.sqrt(n_traj),
    )
    assert report.passed
    gs = 1.3
    for t, avg, exact in zip(report.times, report.averages, report.exact):
        x_mc = 2 * avg[0, 1].real
        x_exact = 2 * exact[0, 1].real
        assert abs(x_exact - np.exp(-gs * t / 2)) < 1e-9  # coherence decay rate
        assert abs(x_mc - x_exact) < 3.0 / np.sqrt(n_traj)
        z_exact = (exact[0, 0] - exact[1, 1]).real
        z_ss = -0.7 / 1.3
        assert abs(z_exact - (z_ss + (0 - z_ss) * np.exp(-gs * t))) < 1e-9


def test_event_log(ae_me, poles, poles_scheme):
    stats = simulate(ae_me, poles_scheme, poles, TrajectoryConfig(n_jumps=200, rng_seed=2))
    assert len(stats.events) == 200
    t_prev = 0.0
    for t, channel, src, dst in stats.events:
        assert t >= t_prev
        assert dst == 1 - src  # two-member cycle
        t_prev = t


@pytest.mark.parametrize("n_jumps", [0, -5])
def test_config_rejects_non_positive_jump_count(n_jumps):
    with pytest.raises(ValueError, match="jump count must be positive"):
        TrajectoryConfig(n_jumps=n_jumps)


@pytest.mark.parametrize("n_trajectories", [0, -3])
def test_unconditional_check_rejects_non_positive_trajectory_count(rf_me, axis_scheme, n_trajectories):
    with pytest.raises(ValueError, match="trajectory count must be positive"):
        unconditional_check(rf_me, axis_scheme, n_trajectories=n_trajectories)


LOCKSTEP_CASES = {
    # name: (model/scheme fixture, psi0, seed, times, trajectories)
    "rf-axis": ("rf_axis_case", [0.0, 1.0], 5, [0.5, 1.0, 2.0], 200),
    "ae-poles-roaming": ("ae_poles_case", [1.0, 1.0], 9, [0.4, 1.0, 2.0], 200),
    "dark-state": ("dark_case", [1.0, 1.0], 4, [0.5, 2.0, 6.0], 200),
    "exceptional-point": ("ep_case", [1.0, 0.0], 6, [1.0, 3.0], 200),
    "block-exhausted": ("ae_poles_case", [1.0, 1.0], 2, [2.0, 12.0], 60),
    "pump-d3-unrouted-clicks": ("pump_d3_case", [1.0, 1.0, 1.0], 8, [0.5, 2.0], 150),
    # Unsorted, with 0.0 and a duplicate; 1e-7 lies before every first click
    # and 60.0 after every last one, as each trajectory ends in the dark member.
    "many-checkpoints": (
        "loop_to_dark_case", [1.0, 1.0], 12, [30.0, 0.0, 1e-7, 0.5, 2.0, 0.5, 1.0, 0.25, 4.0, 60.0, 8.0, 3.0], 120,
    ),
}


@pytest.fixture(scope="module")
def loop_to_dark_case():
    """e1 clicks back to itself at rate 5 and decays to the dark e0 at rate 1."""
    loop = np.sqrt(5.0) / 2 * np.diag([-1.0, 1.0])  # shifted to sqrt(5) |e1><e1| by the setting
    decay = np.array([[0.0, 1.0], [0.0, 0.0]])
    me = MasterEquation(2, np.zeros((2, 2)), [loop, decay])
    shift = UnravellingSetting(np.eye(2), np.array([np.sqrt(5.0) / 2, 0.0]))
    scheme = AdaptiveScheme(settings=(shift, shift), jump_map=np.array([[0, 1], [NO_TARGET, NO_TARGET]]))
    return me, scheme


@pytest.fixture(scope="module")
def pump_d3_case(pump_d3_me):
    """Bare detection on the basis kets.

    From a superposition a click may come from a detector with no target.
    """
    basis = build_basis(3)
    states = [rho_to_bloch(np.diag(np.eye(3)[i]).astype(complex), basis) for i in range(3)]
    kappa = np.zeros((3, 3))
    kappa[0, 1], kappa[1, 2], kappa[2, 0] = 1.0, 0.6, 0.3
    scheme = synthesize(pump_d3_me, Ensemble.from_states_kappa(3, states, kappa))
    assert np.any(scheme.jump_map == NO_TARGET)
    return pump_d3_me, scheme


@pytest.fixture(scope="module")
def rf_axis_case(rf_me, axis_scheme):
    return rf_me, axis_scheme


@pytest.fixture(scope="module")
def ae_poles_case(ae_me, poles_scheme):
    return ae_me, poles_scheme


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_row_kernels_equal_one_row_products_bit_for_bit(dim, rng):
    def stack(*shape):
        out = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        out[rng.random(shape) < 0.1] = 0.0  # exact zeros, so that signed zeros are compared too
        return out

    mats, rows = stack(60, dim, dim), stack(60, dim)
    assert _apply(mats, rows).tobytes() == np.array([m @ v for m, v in zip(mats, rows)]).tobytes()
    jumps = stack(60, 3, dim, dim)  # a click's (n, M, D, D) detectors against its (n, 1, D) kets
    one_row = np.array([[m @ v for m in ms] for ms, v in zip(jumps, rows)])
    assert _apply(jumps, rows[:, None]).tobytes() == one_row.tobytes()
    other = stack(60, dim)
    assert _vdot_rows(rows, other).tobytes() == np.array([np.vdot(a, b) for a, b in zip(rows, other)]).tobytes()
    amps = stack(60, 3, dim)
    assert _vdot_rows(amps, amps).tobytes() == np.array([[np.vdot(a, a) for a in row] for row in amps]).tobytes()


# Every engine call in a lockstep batch of 16 rows is a stack of at most 16.
@pytest.mark.parametrize(
    "lockstep_rows", [None, 16, 37], ids=["one-stack", "stacks-of-16", "batches-of-37"],
)
@pytest.mark.parametrize("name", list(LOCKSTEP_CASES))
def test_lockstep_matches_one_trajectory_at_a_time(request, monkeypatch, name, lockstep_rows):
    fixture, psi0, seed, times, n = LOCKSTEP_CASES[name]
    me, scheme = request.getfixturevalue(fixture)
    if lockstep_rows is not None:
        monkeypatch.setattr("preforge.trajectory._LOCKSTEP_ROWS", lockstep_rows)
    cfg = TrajectoryConfig(rng_seed=seed)
    report = unconditional_check(me, scheme, cfg, psi0=np.array(psi0), times=times, n_trajectories=n)
    assert np.array_equal(report.times, np.unique(times))
    samples, n_draws = _reference_samples(me, scheme, cfg, psi0, report.times, n)
    reference = samples.mean(axis=0)
    assert np.max(np.abs(report.averages - reference)) <= 1e-12
    distances = np.linalg.norm(reference - report.exact, axis=(1, 2))
    assert report.passed == bool(np.all(distances <= report.bounds))
    if name == "block-exhausted":
        assert n_draws.max() > _DRAW_BLOCK  # some stream was re-created and drew a longer block
    if name == "exceptional-point":
        assert _scheme_engine(me, scheme).defective[0]


def test_trajectory_does_not_depend_on_the_trajectory_count(ae_me, poles_scheme):
    plus = np.array([1.0, 1.0])
    cfg = TrajectoryConfig(rng_seed=13)
    times = [0.5, 1.5]
    n = 40
    full = unconditional_check(ae_me, poles_scheme, cfg, psi0=plus, times=times, n_trajectories=n)
    fewer = unconditional_check(ae_me, poles_scheme, cfg, psi0=plus, times=times, n_trajectories=n - 1)
    samples, _ = _reference_samples(ae_me, poles_scheme, cfg, plus, times, n)
    last = n * full.averages - (n - 1) * fewer.averages
    assert np.max(np.abs(last - samples[n - 1])) <= 1e-12


def _wait_cases(rf_me, axis_scheme, axis_pair, rng):
    """(engine, kets, draws) covering pinned members, random kets, dark states, a Jordan block and near-EP."""
    cases = []
    kets = axis_pair.kets().astype(complex)
    random = np.array([random_pure_ket(2, rng) for _ in range(12)])
    for k in range(2):
        engine = _ClickEngine([axis_scheme.jumps_and_generator(rf_me, k)])
        cases.append((engine, np.repeat(kets[k : k + 1], 3, axis=0), np.array([0.9, 0.3, 1e-3])))
        cases.append((engine, random, rng.uniform(1e-6, 1.0, size=len(random))))
    gamma = 0.8
    decay = np.sqrt(gamma) * np.array([[0.0, 1.0], [0.0, 0.0]])
    dark = _ClickEngine([([decay], np.diag([0.0, -0.5j * gamma]))])
    e0 = np.array([1.0, 0.0], dtype=complex)
    plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    dark_kets = np.array([e0, plus, plus, plus, *random])
    cases.append((dark, dark_kets, np.array([0.5, 0.4, 0.8, 0.5001, *rng.uniform(size=12)])))
    jordan = np.array([[-0.5j, 0.5], [0.0, -0.5j]])
    cases.append((_ClickEngine([([np.eye(2)], jordan)]), random, rng.uniform(0.01, 0.95, size=len(random))))
    for eps in (1e-9, 1e-11, 1e-6):
        omega = 0.25 * (1.0 + eps)
        h_eff = np.array([[-0.5j, omega], [omega, 0.0]])
        engine = _ClickEngine([([np.array([[0.0, 0.0], [1.0, 0.0]])], h_eff)])
        cases.append((engine, random, rng.uniform(1e-4, 1.0, size=len(random))))
    return cases


def test_stacked_wait_solves_the_norm_equation_row_by_row(rf_me, axis_scheme, axis_pair, rng):
    n_inf = 0
    for engine, kets, draws in _wait_cases(rf_me, axis_scheme, axis_pair, rng):
        taus, phis = engine.wait(kets, _labels(len(kets)), draws)
        h_eff = engine.h[0]
        for psi, u, tau, phi in zip(kets, draws, taus, phis):
            if tau == np.inf:
                n_inf += 1
                assert np.all(np.isnan(phi))
                # no click ever: the norm never falls below u
                assert np.linalg.norm(la.expm(-1j * h_eff * 1e3) @ psi) ** 2 >= u - 1e-12
                continue
            state = la.expm(-1j * h_eff * tau) @ psi
            assert abs(np.linalg.norm(state) ** 2 - u) <= 1e-12
            assert np.max(np.abs(phi - state)) <= 1e-12
    assert n_inf >= 2  # dark kets below their limit norm never click


def test_stacked_click_and_propagate_match_direct_products(rf_me, axis_scheme, rng):
    jumps, h_eff = axis_scheme.jumps_and_generator(rf_me, 0)
    engine = _ClickEngine([(jumps, h_eff)])
    kets = np.array([random_pure_ket(2, rng) for _ in range(20)])
    r = rng.uniform(size=20)
    channels, posts = engine.click(kets, _labels(20), r)
    taus = rng.uniform(0.0, 5.0, size=20)
    flows = engine.propagate(kets, _labels(20), taus)
    for psi, ri, ch, post, tau, flow in zip(kets, r, channels, posts, taus, flows):
        amps = np.asarray(jumps) @ psi
        cumulative = np.cumsum(np.linalg.norm(amps, axis=1) ** 2)
        assert ch == np.searchsorted(cumulative, ri * cumulative[-1], side="right")
        assert np.max(np.abs(post - amps[ch] / np.linalg.norm(amps[ch]))) <= 1e-12
        assert np.max(np.abs(flow - la.expm(-1j * h_eff * tau) @ psi)) <= 1e-12


@pytest.mark.parametrize("case, ensemble", [("rf_axis_case", "axis_pair"), ("ae_poles_case", "poles")])
def test_chain_agrees_with_the_stacked_engine_from_the_member_kets(request, case, ensemble):
    # The engine solves every wait and click from the state itself; on a
    # pinned ensemble its statistics must be those of the sampled chain.
    me, scheme = request.getfixturevalue(case)
    ens = request.getfixturevalue(ensemble)
    engine = _scheme_engine(me, scheme)
    kets = ens.kets().astype(complex)
    dwell, clicks = np.zeros(ens.k), np.zeros(ens.k)
    for seed in (1, 2):
        rng = np.random.default_rng(seed)
        rows = 50
        psi, label = np.tile(kets[0], (rows, 1)), np.zeros(rows, dtype=int)
        for _ in range(60):
            u, r = 1.0 - rng.random(rows), rng.random(rows)
            for k in range(ens.k):
                at = np.flatnonzero(label == k)
                tau, pre = engine.wait(psi[at], label[at], u[at])
                channels, psi[at] = engine.click(pre, label[at], r[at])
                dwell[k] += tau.sum()
                clicks[k] += at.size
                label[at] = scheme.next_labels[k, channels]
            assert max(_coherence_distance(p, kets[k]) for p, k in zip(psi, label)) <= CLOSURE_TOL
    stats = simulate(me, scheme, ens, TrajectoryConfig(n_jumps=6000, rng_seed=4))
    occupancy = dwell / dwell.sum()
    p0p1 = ens.occupations[0] * ens.occupations[1]
    # four standard errors of the difference of two independent estimates
    band = 4.0 * np.sqrt(p0p1 * (1 / clicks.sum() + 1 / stats.n_jumps))
    assert abs(occupancy[0] - stats.occupancy[0]) <= band
    sampled, exact = member_click_rates(stats)
    chain_clicks = stats.jump_counts.sum(axis=0) + stats.self_loop_counts
    for k in range(ens.k):
        band = 4.0 * np.sqrt(1 / clicks[k] + 1 / chain_clicks[k]) * exact[k]
        assert abs(clicks[k] / dwell[k] - sampled[k]) <= band


def test_longer_run_extends_a_shorter_one(rf_me, axis_scheme, axis_pair):
    short = simulate(rf_me, axis_scheme, axis_pair, TrajectoryConfig(n_jumps=100, rng_seed=4))
    long = simulate(rf_me, axis_scheme, axis_pair, TrajectoryConfig(n_jumps=300, rng_seed=4))
    assert long.events[:100] == short.events
    assert short.max_state_drift == long.max_state_drift <= 1e-12  # certified once, from the operators


@pytest.mark.parametrize(
    "case, psi0, seed, times, n, lockstep_rows",
    [
        ("rf_axis_case", None, 3, None, 2000, None),
        ("rf_axis_case", None, 3, None, 2000, 512),
        ("ae_poles_case", [1.0, 1.0], 2, [2.0, 12.0], 60, 16),
    ],
    ids=["rf-axis-one-batch", "rf-axis-batches-of-512", "block-exhausted"],
)
def test_unconditional_check_creates_a_generator_per_batch_and_overflow(
    request, monkeypatch, case, psi0, seed, times, n, lockstep_rows
):
    if lockstep_rows is not None:
        monkeypatch.setattr("preforge.trajectory._LOCKSTEP_ROWS", lockstep_rows)
    created, batches = [], []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda *a: created.append(a) or default_rng(*a))

    class RecordedDraws(_Draws):
        def __init__(self, *args):
            super().__init__(*args)
            batches.append(self)

    monkeypatch.setattr("preforge.trajectory._Draws", RecordedDraws)
    me, scheme = request.getfixturevalue(case)
    psi0 = None if psi0 is None else np.array(psi0)
    unconditional_check(me, scheme, TrajectoryConfig(rng_seed=seed, t_max=2.0), psi0=psi0, times=times, n_trajectories=n)
    assert len(batches) == -(-n // (lockstep_rows or _LOCKSTEP_ROWS))
    overflowed = sum(int(np.sum(d.cursor > _DRAW_BLOCK)) for d in batches)
    assert len(created) <= len(batches) + overflowed
    if case == "ae_poles_case":
        assert overflowed > 0


def test_stacked_wait_raises_when_a_row_does_not_converge(monkeypatch):
    engine = _ClickEngine([([np.eye(2)], np.array([[-0.5j, 0.5], [0.0, -0.5j]]))])
    monkeypatch.setattr("preforge.trajectory._MAX_ITER", 2)
    kets = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(ConvergenceError):
        engine.wait(kets, _labels(2), np.array([0.5, 0.1]))


@pytest.mark.parametrize(
    "psi0, times, message",
    [
        (None, [np.inf], "checkpoint times"),
        (None, [0.5, np.nan], "checkpoint times"),
        (np.zeros(2), None, "initial state"),
        (np.ones(3), None, "initial state"),
        (np.array([1.0, np.nan]), None, "initial state"),
    ],
    ids=["infinite-time", "nan-time", "zero-psi0", "wrong-length-psi0", "non-finite-psi0"],
)
def test_unconditional_check_rejects_bad_inputs_before_any_trajectory(
    monkeypatch, rf_me, axis_scheme, psi0, times, message
):
    def no_trajectories(*args):
        raise AssertionError("a trajectory ran")

    monkeypatch.setattr("preforge.trajectory._Draws", no_trajectories)
    with pytest.raises(ValueError, match=message):
        unconditional_check(rf_me, axis_scheme, psi0=psi0, times=times, n_trajectories=10)


def test_member_click_rates_match_pinned_rates(rf_me, axis_scheme, axis_pair):
    stats = simulate(rf_me, axis_scheme, axis_pair, TrajectoryConfig(n_jumps=4000, rng_seed=17))
    sampled, exact = member_click_rates(stats)
    clicks = stats.jump_counts.sum(axis=0) + stats.self_loop_counts
    kets = axis_pair.kets()
    for k in range(2):
        jumps, _ = axis_scheme.jumps_and_generator(rf_me, k)
        assert exact[k] == pytest.approx(sum(np.linalg.norm(c @ kets[k]) ** 2 for c in jumps), rel=1e-12)
        assert sampled[k] == clicks[k] / (stats.occupancy[k] * stats.total_time)
        assert abs(sampled[k] - exact[k]) <= 4.0 / np.sqrt(clicks[k]) * exact[k]


def _mixed_settings(rf_me, axis_scheme):
    """An eigenbasis setting, a defective setting with two detectors and a setting with a dark eigenvector."""
    decay = np.sqrt(0.8) * np.array([[0.0, 1.0], [0.0, 0.0]])
    jordan = np.array([[-0.5j, 0.5], [0.0, -0.5j]])
    return [
        axis_scheme.jumps_and_generator(rf_me, 0),
        ([np.sqrt(0.5) * np.eye(2), np.sqrt(0.5) * np.eye(2)], jordan),
        ([decay], np.diag([0.0, -0.4j])),
    ]


def test_one_stacked_call_equals_one_row_calls_per_setting(rf_me, axis_scheme, rng):
    settings = _mixed_settings(rf_me, axis_scheme)
    engine = _ClickEngine(settings)
    assert engine.defective.tolist() == [False, True, False] and engine.dark is not None
    plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    kets = np.array([*(random_pure_ket(2, rng) for _ in range(27)), plus, plus, plus])
    labels = np.array([*(np.arange(27) % 3), 2, 2, 2])
    u = np.array([*rng.uniform(1e-3, 1.0, size=27), 0.4, 0.5 - 1e-12, 0.8])  # plus on the dark setting
    r = rng.uniform(size=kets.shape[0])
    taus = rng.uniform(0.0, 5.0, size=kets.shape[0])
    tau, pre = engine.wait(kets, labels, u)
    assert np.all(tau[-3:-1] == np.inf) and np.isfinite(tau[-1])  # no click below the dark weight 1/2
    channels, post = engine.click(kets, labels, r)
    flows = engine.propagate(kets, labels, taus)
    for i, k in enumerate(labels):
        one = _ClickEngine([settings[k]])
        row, label = slice(i, i + 1), _labels(1)
        for stacked, alone in [
            ((tau[row], pre[row]), one.wait(kets[row], label, u[row])),
            ((channels[row], post[row]), one.click(kets[row], label, r[row])),
            ((flows[row],), (one.propagate(kets[row], label, taus[row]),)),
        ]:
            assert [a.tobytes() for a in stacked] == [a.tobytes() for a in alone]


def test_settings_with_fewer_detectors_are_padded_with_zero_detectors(rf_me, axis_scheme, rng):
    engine = _ClickEngine(_mixed_settings(rf_me, axis_scheme))
    assert engine.jumps.shape == (3, 2, 2, 2)
    assert not engine.jumps[[0, 2], 1].any()
    kets = np.array([random_pure_ket(2, rng) for _ in range(40)])
    r = np.array([*rng.uniform(size=36), 0.0, 0.5, 1.0 - 1e-16, np.nextafter(1.0, 0.0)])
    for label in (0, 2):
        channels, post = engine.click(kets, _labels(40, label), r)
        assert np.all(channels == 0) and np.all(np.isfinite(post))


def _lockstep_schedule(me, scheme, psi0, n, cfg):
    """The engine calls of one unconditional check, in order, as (name, labels) with name
    ``wait``, ``click`` or ``checkpoint`` (a ``propagate`` outside a wait); its report; and
    the clicks each trajectory makes up to the last checkpoint, counted one trajectory at a time."""
    calls, in_wait = [], []
    wait, click, propagate = _ClickEngine.wait, _ClickEngine.click, _ClickEngine.propagate

    def spy_wait(self, psi, label, *rest):
        calls.append(("wait", label.copy()))
        in_wait.append(True)
        try:
            return wait(self, psi, label, *rest)
        finally:
            in_wait.pop()

    def spy_click(self, pre, label, r):
        calls.append(("click", label.copy()))
        return click(self, pre, label, r)

    def spy_propagate(self, psi, label, *rest):
        if not in_wait:
            calls.append(("checkpoint", label.copy()))
        return propagate(self, psi, label, *rest)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_ClickEngine, "wait", spy_wait)
        patch.setattr(_ClickEngine, "click", spy_click)
        patch.setattr(_ClickEngine, "propagate", spy_propagate)
        report = unconditional_check(me, scheme, cfg, psi0=np.array(psi0), n_trajectories=n)
    _, n_draws = _reference_samples(me, scheme, cfg, psi0, report.times, n)
    return calls, report, (n_draws - 1) // 2


def test_each_lockstep_round_is_one_wait_and_one_click_call(rf_me, axis_scheme, ae_me, poles_scheme):
    # Every click on the rf axis pair switches the setting, so the rows of a
    # round all carry one label; the ae poles self-loop, so their rounds mix.
    n, cfg = 300, TrajectoryConfig(rng_seed=3, t_max=2.0)
    for me, scheme, psi0, mixed in [(rf_me, axis_scheme, [0.0, 1.0], False), (ae_me, poles_scheme, [1.0, 1.0], True)]:
        calls, report, clicks_made = _lockstep_schedule(me, scheme, psi0, n, cfg)
        names = [name for name, _ in calls]
        rounds = names.count("click")
        assert rounds == clicks_made.max() > 1 and names.count("wait") == rounds + 1
        assert names == ["wait"] + ["click", "wait"] * rounds + ["checkpoint"] * len(report.times)
        assert all(label.size == n for name, label in calls if name == "checkpoint")
        clicks = [label for name, label in calls if name == "click"]
        assert [label.size for label in clicks] == [np.sum(clicks_made >= j) for j in range(1, rounds + 1)]
        assert any(np.unique(label).size == 2 for label in clicks) == mixed  # both settings in one call


@pytest.mark.parametrize("t_max", [np.nan, 0.0, -1.0])
def test_config_rejects_a_time_limit_that_is_not_positive(t_max):
    with pytest.raises(ValueError, match=f"time limit must be positive, got {t_max}"):
        TrajectoryConfig(t_max=t_max)


def test_infinite_time_limit_is_no_limit(rf_me, axis_scheme, axis_pair, dark_case):
    assert TrajectoryConfig(t_max=np.inf, n_jumps=100) == TrajectoryConfig(n_jumps=100)
    unlimited = simulate(rf_me, axis_scheme, axis_pair, TrajectoryConfig(t_max=np.inf, n_jumps=100, rng_seed=4))
    assert unlimited.events == simulate(rf_me, axis_scheme, axis_pair, TrajectoryConfig(n_jumps=100, rng_seed=4)).events
    me, scheme = dark_case
    ens = Ensemble.from_states_kappa(2, [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]], [[0, 1], [1, 0]])
    with pytest.raises(RealizationError, match="never clicks"):
        simulate(me, scheme, ens, TrajectoryConfig(t_max=np.inf, n_jumps=10))


def test_config_rejects_a_fractional_jump_count():
    with pytest.raises(ValueError, match="jump count must be positive and an integer, got 2.5"):
        TrajectoryConfig(n_jumps=2.5)
    assert TrajectoryConfig(n_jumps=np.int64(3)).n_jumps == 3


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"n_trajectories": 2.5}, "trajectory count must be positive and an integer, got 2.5"),
        ({"tol": np.nan}, "tolerance must be non-negative, got nan"),
        ({"tol": -1e-3}, "tolerance must be non-negative, got -0.001"),
    ],
    ids=["fractional-trajectory-count", "nan-tol", "negative-tol"],
)
def test_unconditional_check_rejects_bad_counts_and_tolerances_before_any_trajectory(
    monkeypatch, rf_me, axis_scheme, kwargs, message
):
    def no_trajectories(*args):
        raise AssertionError("a trajectory ran")

    monkeypatch.setattr("preforge.trajectory._Draws", no_trajectories)
    with pytest.raises(ValueError, match=message):
        unconditional_check(rf_me, axis_scheme, **{"n_trajectories": 10, **kwargs})
