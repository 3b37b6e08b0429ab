import dataclasses
import itertools
from pathlib import Path

import numpy as np
import pytest

from preforge import cli
from preforge.algebra import eig_full
from preforge.constraints import (
    Ensemble,
    build_full,
    clamp_rates,
    build_subspace_reduced,
    negative_rate,
    projector_residuals,
    stack_systems,
    verify,
)
from preforge import solver
from preforge.errors import EnsembleError
from preforge.solver import (
    DEDUP_EPS,
    MAX_ITER,
    SolutionSet,
    SolverConfig,
    _Batch,
    _Candidate,
    _levenberg_marquardt,
    analytic_k2,
    dedup,
    ensemble_distance,
    family_equivalent,
    new_ensembles,
    route_skip_reasons,
    same_ensemble,
    scan_existence,
    solve_numeric,
    solve_systems,
    solve_wigner_family,
)
from preforge.symmetry import find_invariant_subspaces, subspace_from_span
from preforge.mespec import load_catalog
from preforge.model import vectorize

EQUATOR_GEN = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


def test_analytic_census_real_regime(rf_bm):
    sols = analytic_k2(rf_bm)
    assert len(sols.ensembles) == 3
    for ens in sols.ensembles:
        assert verify(rf_bm, ens, tol=1e-10).passed


def test_analytic_census_complex_regime(rf_bm_fast):
    sols = analytic_k2(rf_bm_fast)
    assert len(sols.ensembles) == 1
    assert abs(sols.family_tags[0]["eigenvalue"] + 0.5) < 1e-12


def test_analytic_thermal_family_and_poles(ae_bm):
    sols = analytic_k2(ae_bm)
    assert len(sols.ensembles) == 2
    tags = {t["family"] for t in sols.family_tags}
    assert None in tags and any(t is not None for t in tags)
    poles = next(
        e for e, t in zip(sols.ensembles, sols.family_tags) if t["family"] is None
    )
    assert np.allclose(np.abs(poles.states[:, 2]), 1.0)
    assert np.allclose(sorted(poles.kappa[poles.kappa > 0]), [0.3, 1.0])
    # occupations follow the rates: excited fraction gamma_plus / gamma_sum
    w_excited = poles.occupations[np.argmax(poles.states[:, 2])]
    assert abs(w_excited - 0.3 / 1.3) < 1e-12


def test_numeric_k2_census_matches_analytic(rf_bm):
    analytic = analytic_k2(rf_bm).ensembles
    sols = solve_numeric(build_full(rf_bm, 2, "cyclic"), SolverConfig(seeds=128, rng_seed=0))
    assert len(sols.ensembles) == 3
    for ens in sols.ensembles:
        assert any(same_ensemble(ens, ref, 1e-6) for ref in analytic)


def _k2_routes(bm):
    """Route subspaces (None for the full space) and K=2 systems of the full
    space and of each detected subspace with a pure state."""
    subs = [s for s in find_invariant_subspaces(bm) if s.pure_witness is not None]
    systems = [build_full(bm, 2, "cyclic")] + [build_subspace_reduced(bm, s, 2, "cyclic") for s in subs]
    return [None] + subs, systems


@pytest.mark.parametrize("model", ["rf_me", "rf_me_fast", "rf_omega_1", "cascade_d3_me", "pump_d3_me"])
def test_analytic_k2_is_complete_when_real_eigenspaces_are_lines(request, model):
    # The K=2 proof of route_skip_reasons: every K=2 ensemble lies on a line
    # through x_ss along a real eigenvector, so with 1-D real eigenspaces
    # analytic_k2 lists them all and no numeric route finds anything else.
    if model == "rf_omega_1":
        me = load_catalog("resonance_fluorescence", {"gamma": 1.0, "Omega": 1.0})
    else:
        me = request.getfixturevalue(model)
    bm = vectorize(me)
    subs, systems = _k2_routes(bm)
    assert all(route_skip_reasons(bm, 2, subs, "cyclic"))
    cfg = SolverConfig(seeds=24, rng_seed=5)
    analytic = analytic_k2(bm).ensembles
    for cs in systems:
        for ens in solve_numeric(cs, cfg).ensembles:
            assert any(same_ensemble(ens, ref, DEDUP_EPS) for ref in analytic)


def test_skip_helper_solves_k2_with_a_degenerate_real_eigenspace(ae_bm):
    # The equatorial plane is a 2-D eigenspace of l0: analytic_k2 lists one
    # representative of a rotation family, and the numeric routes find others.
    subs, _ = _k2_routes(ae_bm)
    assert route_skip_reasons(ae_bm, 2, subs, "cyclic") == [None] * len(subs)
    analytic = analytic_k2(ae_bm).ensembles
    found = solve_numeric(build_full(ae_bm, 2, "cyclic"), SolverConfig(seeds=24, rng_seed=5)).ensembles
    assert any(not any(same_ensemble(ens, ref, 1e-3) for ref in analytic) for ens in found)


@pytest.mark.parametrize("k", [3, 4])
def test_skip_helper_skips_one_dimensional_slices_from_three_members(rf_bm, k):
    # One 2-D slice leaves two invariant planes that meet the pure sphere
    # unsearched, so the full route is solved at K=3 too.
    line, plane = (next(s for s in find_invariant_subspaces(rf_bm) if s.n == n) for n in (1, 2))
    reasons = route_skip_reasons(rf_bm, k, [line, plane, None], "cyclic")
    assert reasons[0] == "a 1-D slice holds at most 2 distinct pure states" and reasons[1:] == [None, None]


def _plane_normals(bm):
    """Unit normals of the invariant planes of a qubit model: its real left eigenvectors."""
    spec = eig_full(bm.l0.T)
    real = [c.vectors[:, 0] for c in spec.clusters if abs(c.value.imag) <= spec.tol]
    return [np.real(n) / np.linalg.norm(n) for n in real]


def _plan(bm):
    """A ``search --subspace auto`` plan: every detected subspace by dimension, then the full space."""
    return sorted(find_invariant_subspaces(bm), key=lambda s: s.n) + [None]


# rf in the real regime, at Omega = 1 and in the complex regime, and the
# defective generator of criterion 7 (a 2x2 Jordan block at -3 gamma / 4).
PLANE_MODELS = {"rf": 0.18, "rf-omega-1": 1.0, "rf-fast": 0.5, "defective": 0.25}


@pytest.mark.parametrize("graph", ["cyclic", "full"])
@pytest.mark.parametrize("model", list(PLANE_MODELS))
def test_every_qubit_k3_ensemble_lies_in_an_invariant_plane(model, graph):
    # The K=3 proof of route_skip_reasons: the members' affine hull holds
    # x_ss and is invariant, and three pure states span a plane, so every
    # ensemble lies in some x_ss + n^perp with n a real left eigenvector.
    # Each cyclic one is then an ensemble of that plane's subspace route,
    # which the full route is skipped for.  An invariant plane of a Jordan
    # block moves as the square root of a perturbation, so there members
    # solved to a residual near 1e-13 lie off it by up to about 1e-6.
    bm = vectorize(load_catalog("resonance_fluorescence", {"gamma": 1.0, "Omega": PLANE_MODELS[model]}))
    normals = _plane_normals(bm)
    plane_tol = 1e-6 if model == "defective" else 1e-10
    cfg = SolverConfig(seeds=64, rng_seed=3) if graph == "cyclic" else SolverConfig(seeds=256, rng_seed=4)
    found = solve_numeric(build_full(bm, 3, graph), cfg).ensembles
    for ens in found:
        assert min(np.max(np.abs((ens.states - bm.x_ss) @ n)) for n in normals) <= plane_tol
    plan = _plan(bm)
    reasons = route_skip_reasons(bm, 3, plan, graph)
    assert (reasons[-1] is not None) == (graph == "cyclic")
    if graph == "cyclic":
        planes = [s for s in plan if s is not None and s.n == 2]
        assert len(planes) == len(normals)
        solved = solve_systems([build_subspace_reduced(bm, s, 3, graph) for s in planes])
        listed = [ens for sols in solved for ens in sols.ensembles]
        assert len(found) == len(listed)
        for ens in found:
            assert any(same_ensemble(ens, ref, DEDUP_EPS) for ref in listed)


def test_no_full_route_skip_without_a_proof(rf_bm, ae_bm):
    # The K=3 plane proof needs one invariant plane per real eigenvalue, the
    # cyclic graph, a full route to skip and every plane that meets the pure
    # sphere searched.
    plan = _plan(rf_bm)
    assert route_skip_reasons(rf_bm, 3, plan, "cyclic")[-1] is not None
    assert route_skip_reasons(ae_bm, 3, _plan(ae_bm), "cyclic")[-1] is None  # a 2-D real eigenspace
    assert route_skip_reasons(rf_bm, 3, plan, "full")[-1] is None
    assert route_skip_reasons(rf_bm, 3, [None], "cyclic") == [None]  # --subspace none
    assert route_skip_reasons(rf_bm, 4, plan, "cyclic")[-1] is None
    meeting = [s for s in plan if s is not None and s.n == 2]
    for dropped in meeting:
        assert route_skip_reasons(rf_bm, 3, [s for s in plan if s is not dropped], "cyclic")[-1] is None


def test_numeric_finds_single_ensemble_in_complex_regime(rf_bm_fast):
    sols = solve_numeric(build_full(rf_bm_fast, 2, "cyclic"), SolverConfig(seeds=96, rng_seed=0))
    assert len(sols.ensembles) == 1


def test_equatorial_disc_k3_is_inconsistent(ae_bm):
    # No three-member cycle fits inside the disc orthogonal to the
    # polarization axis.
    disc = subspace_from_span(ae_bm, np.array([[1.0, 0, 0], [0, 1.0, 0]]).T)
    cs = build_subspace_reduced(ae_bm, disc, 3, "cyclic")
    sols = solve_numeric(cs, SolverConfig(seeds=128, rng_seed=0))
    assert len(sols.ensembles) == 0


def test_meridian_disc_k3_census_below_and_above_threshold():
    span = np.array([[1.0, 0, 0], [0, 0, 1.0]]).T
    for ratio, expected_raw in ((0.05, 4), (0.2, 0)):
        bm = vectorize(
            load_catalog("absorption_emission", {"gamma_minus": 1.0, "gamma_plus": ratio})
        )
        sub = subspace_from_span(bm, span)
        sols = solve_numeric(
            build_subspace_reduced(bm, sub, 3, "cyclic"), SolverConfig(seeds=160, rng_seed=0)
        )
        assert len(sols.ensembles) == expected_raw
        if expected_raw:
            reduced = []
            for ens in sols.ensembles:
                if not any(family_equivalent(kept, ens, EQUATOR_GEN) for kept in reduced):
                    reduced.append(ens)
            assert len(reduced) == 2


def test_wigner_family_k3_matches_independent_linear_solve(ae_bm):
    fam = solve_wigner_family(ae_bm, 3)
    assert len(fam.ensembles) == 1
    rates = fam.family_tags[0]["rates_out"]
    # independent 2x2 linear solve of the in-plane projection
    angles = 2 * np.pi * np.arange(1, 3) / 3
    mat = np.array([1 - np.cos(angles), np.sin(angles)])
    rhs = np.array([1.3 / 2.0, 0.0])
    expected = np.linalg.solve(mat, rhs)
    assert np.max(np.abs(np.asarray(rates) - expected)) < 1e-12
    assert np.max(np.abs(np.asarray(rates) - 1.3 / 6.0)) < 1e-12


def test_wigner_family_k4_solution_line(ae_bm):
    fam = solve_wigner_family(ae_bm, 4)
    assert fam.ensembles
    for tag in fam.family_tags:
        r2, r3, r4 = tag["rates_out"]
        assert abs(r2 - r4) < 1e-10
        assert abs((r2 + r3) - 1.3 / 4.0) < 1e-10
    # the subcycle-trapped vertex (r2 = r4 = 0) must have been dropped
    assert all(tag["rates_out"][0] > 1e-12 for tag in fam.family_tags)


def test_wigner_family_k2_recovers_equatorial(ae_bm):
    fam = solve_wigner_family(ae_bm, 2)
    assert len(fam.ensembles) == 1
    equatorial = next(
        e
        for e, t in zip(analytic_k2(ae_bm).ensembles, analytic_k2(ae_bm).family_tags)
        if t["family"] is not None
    )
    assert family_equivalent(fam.ensembles[0], equatorial, EQUATOR_GEN)


@pytest.mark.parametrize("k", range(2, 9))
def test_wigner_family_verifies_for_all_sizes(ae_bm, k):
    fam = solve_wigner_family(ae_bm, k)
    assert fam.ensembles
    for ens in fam.ensembles:
        assert verify(ae_bm, ens, tol=1e-10).passed


def test_wigner_family_requires_symmetry(rf_bm):
    fam = solve_wigner_family(rf_bm, 3)
    assert len(fam.ensembles) == 0
    with pytest.raises(ValueError):
        solve_wigner_family(rf_bm, 1)


def test_solver_determinism(rf_bm):
    cfg = SolverConfig(seeds=64, rng_seed=5)
    cs = build_full(rf_bm, 2, "cyclic")
    a = solve_numeric(cs, cfg)
    b = solve_numeric(cs, cfg)
    assert len(a.ensembles) == len(b.ensembles)
    for e1, e2 in zip(a.ensembles, b.ensembles):
        assert np.array_equal(e1.states, e2.states)
        assert np.array_equal(e1.kappa, e2.kappa)


MERIDIAN_SPAN = np.array([[1.0, 0, 0], [0, 0, 1.0]]).T


def _ae_grid_systems(values, k=3):
    """The ``scan`` README systems: K cyclic on the meridian disc at each gamma_plus."""
    systems = []
    for value in values:
        bm = vectorize(load_catalog("absorption_emission", {"gamma_minus": 1.0, "gamma_plus": value}))
        systems.append(build_subspace_reduced(bm, subspace_from_span(bm, MERIDIAN_SPAN), k, "cyclic"))
    return systems


def _rf_k3_disc_systems(rf_bm):
    """The three 2-D subspace routes of ``search`` on rf at K=3."""
    subs = [sub for sub in find_invariant_subspaces(rf_bm) if sub.n == 2]
    assert len(subs) == 3
    return [build_subspace_reduced(rf_bm, sub, 3, "cyclic") for sub in subs]


def test_batch_composition_does_not_change_results(rf_bm):
    # Each start's final parameter vector is bit-identical whether it is
    # solved alone on its own system, in a stack of one or several
    # same-shape systems, or in reversed stack order.
    cfg = SolverConfig(seeds=48, rng_seed=5)
    stacks = [[build_full(rf_bm, k, "cyclic")] for k in (2, 3)]
    stacks.append(_ae_grid_systems([0.04, 0.05, 0.06, 0.07]))
    stacks.append(_rf_k3_disc_systems(rf_bm))
    for systems in stacks:
        seeds = cfg.seeds // len(systems)
        stack = stack_systems(systems)
        which = np.repeat(np.arange(len(systems)), seeds)
        starts = np.array(
            [
                cs.sample_start(np.random.default_rng([cfg.rng_seed, i]))
                for cs in systems
                for i in range(seeds)
            ]
        )
        stacked, _, _ = _levenberg_marquardt(stack, starts, cfg.tol, MAX_ITER, which)
        reversed_order, _, _ = _levenberg_marquardt(stack, starts[::-1], cfg.tol, MAX_ITER, which[::-1])
        assert np.array_equal(stacked, reversed_order[::-1])
        for start, g, theta in zip(starts, which, stacked):
            alone, _, _ = _levenberg_marquardt(systems[g], start[None], cfg.tol, MAX_ITER)
            assert np.array_equal(alone[0], theta)


def test_stack_needs_one_shape(rf_bm):
    with pytest.raises(ValueError, match="stack_key"):
        stack_systems([build_full(rf_bm, 3, "cyclic"), build_full(rf_bm, 3, "full")])


def test_solve_systems_equals_solve_numeric_per_system(rf_bm):
    # Mixed shapes and repeats: the rf disc routes, the rf full route, and
    # grid points of the scan disc on both sides of the threshold.
    systems = [
        *_rf_k3_disc_systems(rf_bm),
        build_full(rf_bm, 3, "cyclic"),
        *_ae_grid_systems([0.05, 0.07]),
        build_full(rf_bm, 3, "cyclic"),
    ]
    cfg = SolverConfig(seeds=32, rng_seed=4)
    together = solve_systems(systems, cfg)
    assert len(together) == len(systems)
    assert sum(len(sols.ensembles) for sols in together) > 0
    for cs, sols in zip(systems, together):
        alone = solve_numeric(cs, cfg)
        assert sols.diagnostics == alone.diagnostics
        assert len(sols.ensembles) == len(alone.ensembles)
        for e1, e2 in zip(sols.ensembles, alone.ensembles):
            assert np.array_equal(e1.states, e2.states) and np.array_equal(e1.kappa, e2.kappa)


@pytest.mark.parametrize("rng_seed", [0, 2, 3])
def test_converged_non_states_are_filed_as_non_positive(cascade_d3_bm, rng_seed):
    # On the D=3 cascade at K=6 every converged point is no state and has
    # two coincident members; positivity is checked first, so each is filed
    # under its non-positive member.
    sols = solve_numeric(build_full(cascade_d3_bm, 6, "cyclic"), SolverConfig(seeds=16, rng_seed=rng_seed))
    diag = sols.diagnostics
    rejections = diag["rejections"]
    assert diag["n_converged"] > 0
    assert rejections["member maps to a non-positive matrix"] == diag["n_converged"]
    assert "coincident members" not in rejections
    assert diag["n_starts"] == diag["n_accepted"] + sum(rejections.values())


def _min_member_gap(states):
    return min(np.linalg.norm(states[i] - states[j]) for i in range(len(states)) for j in range(i))


@pytest.mark.parametrize("rng_seed", [0, 1, 2])
def test_underdetermined_full_graph_finds_verified_ensembles(rf_bm, rng_seed):
    # Most starts end on a relabelled K=2 ensemble, which is rejected; 256
    # starts reach one with three distinct members at each rng_seed.
    cs = build_full(rf_bm, 3, "full")
    assert cs.n_params > cs.n_constraints
    sols = solve_numeric(cs, SolverConfig(seeds=256, rng_seed=rng_seed))
    assert sols.ensembles
    for ens in sols.ensembles:
        assert verify(rf_bm, ens).passed
        assert _min_member_gap(ens.states) > 1e-3


def _canonical_sort(ensembles):
    return sorted(ensembles, key=lambda e: np.round(np.sort(e.states, axis=0), 9).tobytes())


def _solve_verify_then_dedup(cs, cfg, check):
    """The acceptance step before deduplication came first: every converged
    start with distinct members is validated and checked, and the survivors
    are deduplicated."""
    starts = np.array(
        [cs.sample_start(np.random.default_rng([cfg.rng_seed, i])) for i in range(cfg.seeds)]
    )
    thetas, resids, failed = _levenberg_marquardt(cs, starts, cfg.tol, MAX_ITER)
    accepted = []
    for theta, resid, fail in zip(thetas, resids, failed):
        if fail or np.max(np.abs(resid)) > cfg.tol or negative_rate(cs.unpack(theta)[1]):
            continue
        if _min_member_gap(cs.unpack(theta)[0]) <= DEDUP_EPS:
            continue
        try:
            ens = cs.ensemble(theta)
        except EnsembleError:
            continue
        if check(cs.bm, ens, tol=10 * cfg.tol).passed:
            accepted.append(ens)
    return dedup(_canonical_sort(accepted), DEDUP_EPS)


def _label_dependent_verify(bm, ens, tol):
    """``verify``, failing also every ensemble whose first member lies above
    the steady state in z; a relabeled copy of a failed one can pass."""
    report = verify(bm, ens, tol=tol)
    return dataclasses.replace(report, passed=report.passed and ens.states[0, 2] <= bm.x_ss[2])


def _label_dependent_residuals(bm):
    """``projector_residuals``, failing also every row whose first member lies
    above the steady state in z, as ``_label_dependent_verify`` does."""

    def residuals(basis, liou, states, kappa):
        out = projector_residuals(basis, liou, states, kappa)
        out[states[:, 0, 2] > bm.x_ss[2]] = np.inf
        return out

    return residuals


@pytest.mark.parametrize("check", [verify, _label_dependent_verify], ids=["verify", "label-dependent"])
@pytest.mark.parametrize(
    "k, graph, seeds",
    # Few full-graph starts reach three distinct members (the others are
    # rejected as coincident), hence the larger start count there.
    [(2, "cyclic", 64), (3, "cyclic", 96), (3, "full", 768), (3, "meridian", 96)],
    ids=["rf-k2", "rf-k3-cyclic", "rf-k3-full", "ae-k3-meridian"],
)
def test_dedup_before_verify_matches_verify_then_dedup(rf_bm, monkeypatch, k, graph, seeds, check):
    # The multistart's acceptance step, run directly: the meridian disc is a
    # chord-map system for solve_numeric.  The acceptance checks every
    # validated candidate in one stacked call, and a candidate that fails
    # hides no later relabelled copy that passes.
    if graph == "meridian":
        bm = vectorize(
            load_catalog("absorption_emission", {"gamma_minus": 1.0, "gamma_plus": 0.05})
        )
        sub = subspace_from_span(bm, np.array([[1.0, 0, 0], [0, 0, 1.0]]).T)
        cs = build_subspace_reduced(bm, sub, k, "cyclic")
    else:
        cs = build_full(rf_bm, k, graph)
    cfg = SolverConfig(seeds=seeds, rng_seed=3)
    expected = _solve_verify_then_dedup(cs, cfg, check)

    rows = []
    stacked = projector_residuals if check is verify else _label_dependent_residuals(cs.bm)

    def counting_check(basis, liou, states, kappa):
        rows.append(len(states))
        return stacked(basis, liou, states, kappa)

    monkeypatch.setattr(solver, "projector_residuals", counting_check)
    sols = solver._verified(solver._multistart([cs], cfg))[0]
    assert expected
    assert len(sols.ensembles) == len(expected)
    for got, ref in zip(sols.ensembles, expected):
        assert np.array_equal(got.states, ref.states)
        assert np.array_equal(got.kappa, ref.kappa)
        assert np.array_equal(got.occupations, ref.occupations)
    diag = sols.diagnostics
    rejections = diag["rejections"]
    failed = rejections.get("projector-form verification failed", 0)
    assert len(rows) == 1 and rows[0] >= len(sols.ensembles) + failed
    assert (failed > 0) == (check is not verify)
    assert diag["n_accepted"] == len(sols.ensembles)
    assert diag["n_starts"] == diag["n_accepted"] + sum(rejections.values())
    if graph != "full":  # the full graph's solutions form continuous families
        assert rejections["duplicate"] > len(sols.ensembles) + failed


def test_full_graph_rejects_coincident_members_once_per_start(rf_bm):
    # On the full graph many starts converge to a relabelled K=2 ensemble
    # with two members at the same point; each is one rejected start.
    sols = solve_numeric(build_full(rf_bm, 3, "full"), SolverConfig(seeds=64, rng_seed=0))
    diag = sols.diagnostics
    assert diag["rejections"]["coincident members"] > 0
    assert diag["n_starts"] == diag["n_accepted"] + sum(diag["rejections"].values())
    assert diag["n_accepted"] == len(sols.ensembles)
    assert all(_min_member_gap(ens.states) > 1e-3 for ens in sols.ensembles)


def test_new_ensembles_drops_copies_relabellings_and_rotations(ae_bm):
    poles, equatorial = analytic_k2(ae_bm).ensembles
    swapped = Ensemble.from_states_kappa(2, equatorial.states[::-1], equatorial.kappa[::-1, ::-1].copy())
    quarter_turn = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    rotated = Ensemble.from_states_kappa(2, equatorial.states @ quarter_turn.T, equatorial.kappa.copy())

    def ids(ensembles):
        return [id(e) for e in ensembles]

    assert ids(new_ensembles([equatorial, swapped, poles])) == ids([equatorial, poles])
    assert ids(new_ensembles([rotated, poles], earlier=[equatorial])) == ids([rotated, poles])
    assert ids(new_ensembles([rotated, poles], [equatorial], [EQUATOR_GEN])) == ids([poles])
    assert new_ensembles([rotated], [poles, equatorial], [EQUATOR_GEN]) == []


def _dedup_reference(ensembles, eps):
    """The pairwise definition: keep an ensemble unless a kept one is within eps."""
    kept = []
    for ens in ensembles:
        if all(ensemble_distance(ens, other) > eps for other in kept):
            kept.append(ens)
    return kept


def _in_unit(ens, unit):
    """``ens`` with every rate multiplied by ``unit``."""
    return _Candidate(ens.dim, ens.states, unit * ens.kappa)


def test_dedup_matches_pairwise_reference(rng):
    # Relabeled copies whose members and rates moved by about eps (on both
    # sides of it), among ensembles of two sizes.
    eps = 1e-3
    ensembles = []
    for _ in range(100):
        k = int(rng.integers(2, 4))
        states = rng.normal(size=(k, 3))
        kappa = rng.uniform(0.1, 1.0, size=(k, k))
        ensembles.append(_Candidate(2, states, clamp_rates(kappa)))
        for _ in range(int(rng.integers(0, 3))):
            perm = rng.permutation(k)
            moved = states[perm] + rng.normal(scale=0.4 * eps, size=(k, 3))
            rates = kappa[np.ix_(perm, perm)] + rng.uniform(0.0, 0.3 * eps, size=(k, k))
            ensembles.append(_Candidate(2, moved, clamp_rates(rates)))
    order = rng.permutation(len(ensembles))
    ensembles = [ensembles[i] for i in order]
    expected = _dedup_reference(ensembles, eps)
    got = dedup(ensembles, eps)
    assert 100 < len(got) < len(ensembles)
    assert len(got) == len(expected)
    assert all(a is b for a, b in zip(got, expected))
    # The rate term is relative to the rates compared: in another rate unit
    # the same ensembles are kept.
    for unit in (2.0**-30, 2.0**23):
        scaled = [_in_unit(ens, unit) for ens in ensembles]
        kept = {id(ens) for ens in dedup(scaled, eps)}
        assert [id(ens) for ens, copy in zip(ensembles, scaled) if id(copy) in kept] == [id(ens) for ens in got]


def test_dedup_is_idempotent_and_permutation_blind(rng):
    radius = 1.0
    ensembles = []
    for _ in range(1000):
        states = rng.normal(size=(2, 3))
        states = radius * states / np.linalg.norm(states, axis=1, keepdims=True)
        kappa = np.zeros((2, 2))
        kappa[1, 0], kappa[0, 1] = rng.uniform(0.1, 1.0, size=2)
        ens = Ensemble.from_states_kappa(2, states, kappa)
        ensembles.append(ens)
        if rng.random() < 0.3:  # a relabeled duplicate
            ensembles.append(
                Ensemble.from_states_kappa(2, states[::-1], kappa[::-1, ::-1].copy())
            )
    once = dedup(ensembles, eps=1e-9)
    twice = dedup(once, eps=1e-9)
    assert len(once) == 1000
    assert len(twice) == len(once)
    for e1, e2 in zip(once, twice):
        assert e1 is e2


def _ensemble_distance_loop(e1, e2):
    """``ensemble_distance`` as one relabelling at a time, skipping those
    whose member displacement alone is no better; rate mismatches count
    relative to the larger of the two largest rates."""
    if e1.k != e2.k or e1.dim != e2.dim:
        return np.inf
    rate = max(e1.kappa.max(), e2.kappa.max())
    best = np.inf
    for perm in itertools.permutations(range(e1.k)):
        perm = list(perm)
        d_states = np.max(np.linalg.norm(e1.states - e2.states[perm], axis=1))
        if d_states >= best:
            continue
        d_kappa = np.max(np.abs(e1.kappa - e2.kappa[np.ix_(perm, perm)]))
        best = min(best, d_states + d_kappa / rate)
    return float(best)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_ensemble_distance_matches_relabelling_loop(rng, k):
    def random_ensemble(dim, states=None, kappa=None):
        states = rng.normal(size=(k, dim * dim - 1)) if states is None else states
        kappa = rng.uniform(0.0, 2.0, size=(k, k)) if kappa is None else kappa
        np.fill_diagonal(kappa, 0.0)
        return _Candidate(dim, states, clamp_rates(kappa))

    for dim in (2, 3):
        for _ in range(20):
            e1 = random_ensemble(dim)
            perm = rng.permutation(k)
            # A far ensemble, and a relabelled copy of e1 moved a little.
            near = random_ensemble(
                dim, e1.states[perm] + 1e-7 * rng.normal(size=e1.states.shape), e1.kappa[np.ix_(perm, perm)].copy()
            )
            for e2 in (random_ensemble(dim), near):
                distance = ensemble_distance(e1, e2)
                assert distance == _ensemble_distance_loop(e1, e2)
                for unit in (0.37, 2.0**-30, 2.0**23):
                    scaled = _in_unit(e1, unit), _in_unit(e2, unit)
                    assert ensemble_distance(*scaled) == _ensemble_distance_loop(*scaled)
                    # A power of two scales every rate exactly.
                    assert unit == 0.37 or ensemble_distance(*scaled) == distance
    assert ensemble_distance(random_ensemble(2), random_ensemble(3)) == np.inf


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_same_ensemble_decides_the_full_minimum_against_eps(rng, k):
    # Far pairs, relabelled copies moved a little, and crowded pairs whose
    # members lie closer to each other than the rates differ, so that every
    # relabelling passes the member test and the rates decide.  eps runs
    # through the exact minimum and the float just below it.
    def candidate(dim, states, kappa):
        return _Candidate(dim, states, clamp_rates(kappa))

    for dim in (2, 3):
        for _ in range(6):
            e1 = candidate(dim, rng.normal(size=(k, dim * dim - 1)), rng.uniform(0.0, 2.0, size=(k, k)))
            crowd = candidate(dim, 1e-5 * rng.normal(size=e1.states.shape), e1.kappa)
            pairs = [(e1, candidate(dim, rng.normal(size=e1.states.shape), rng.uniform(0.0, 2.0, size=(k, k))))]
            for first in (e1, crowd):
                perm = rng.permutation(k)
                moved = first.states[perm] + 1e-7 * rng.normal(size=first.states.shape)
                rates = first.kappa[np.ix_(perm, perm)] + rng.uniform(0.0, 1e-4, size=(k, k))
                pairs.append((first, candidate(dim, moved, rates)))
            for pair in pairs + [pair[::-1] for pair in pairs]:
                for unit in (1.0, 0.37, 2.0**-30):
                    pair = _in_unit(pair[0], unit), _in_unit(pair[1], unit)
                    minimum = _ensemble_distance_loop(*pair)
                    for eps in (minimum, np.nextafter(minimum, -np.inf), 0.5 * minimum, 2.0 * minimum, DEDUP_EPS):
                        assert same_ensemble(*pair, eps) == (minimum <= eps)
                        # The acceptance's walk decides a stack of candidates the same way.
                        first, second = pair
                        stacked = solver._same_as(first.states[None], first.kappa[None], second.states, second.kappa, eps)
                        assert stacked.tolist() == [minimum <= eps]
    # Ensembles of another dimension or size are never the same.
    assert not same_ensemble(e1, candidate(2, rng.normal(size=(k, 3)), e1.kappa), np.inf)
    assert not same_ensemble(e1, candidate(3, rng.normal(size=(k + 1, 8)), np.ones((k + 1, k + 1))), np.inf)


def test_ensemble_distance_is_relabeling_invariant(rf_bm):
    ens = analytic_k2(rf_bm).ensembles[0]
    swapped = Ensemble.from_states_kappa(
        2, ens.states[::-1], ens.kappa[::-1, ::-1].copy()
    )
    assert ensemble_distance(ens, swapped) < 1e-14
    assert ensemble_distance(ens, ens) == 0.0


def test_scan_single_point(rf_bm):
    table = scan_existence(
        lambda _v: rf_bm,
        [0.18],
        lambda bm: build_full(bm, 2, "cyclic"),
        SolverConfig(seeds=96, rng_seed=0),
        parameter="drive",
    )
    assert table.rows() == [(0.18, 3)]
    assert table.thresholds == []


def test_scan_detects_drive_strength_transition():
    def bm_at(omega):
        return vectorize(load_catalog("resonance_fluorescence", {"gamma": 1.0, "Omega": omega}))

    table = scan_existence(
        bm_at,
        [0.20, 0.24, 0.26, 0.30],
        lambda bm: build_full(bm, 2, "cyclic"),
        SolverConfig(seeds=96, rng_seed=0),
        parameter="Omega",
    )
    assert list(table.counts) == [3, 3, 1, 1]
    assert len(table.thresholds) == 1
    assert abs(table.thresholds[0] - 0.25) <= 0.011


# The chord-map route: cyclic systems on 2-D qubit slices.

README_GRID = np.arange(0.02, 0.1001, 0.005)


def _chord_routes(systems):
    """The chord maps of ``systems``, their candidate roots as (system index,
    angle), and the runs of unresolved cells as (system, a, b, g(a)), found
    as ``_solve_chord`` finds them."""
    maps = solver._ChordMaps(systems)
    single, runs, _, handed = solver._chord_cells(maps, len(systems))
    assert not handed.any()
    which, a, b, ga = (np.concatenate(pair) for pair in zip(single, runs))
    roots = solver._chord_polish(maps, which, a, b, ga, np.arange(len(which)) < len(single[0]))
    return maps, which, roots, runs


@pytest.mark.parametrize("k", [2, 3, 4])
def test_chord_census_equals_multistart_on_the_readme_grid(k):
    _assert_chord_census_equals_multistart(_ae_grid_systems(README_GRID, k))


def test_chord_census_equals_multistart_on_the_rf_discs(rf_bm):
    _assert_chord_census_equals_multistart(_rf_k3_disc_systems(rf_bm), expected=[0, 4, 4])


def _assert_chord_census_equals_multistart(systems, expected=None):
    cfg = SolverConfig(seeds=512, rng_seed=0)
    chord = solve_systems(systems, cfg)
    multistart = solver._verified(solver._multistart(systems, cfg))
    assert all(sols.diagnostics["method"] == "chord map" for sols in chord)
    assert all(sols.diagnostics["method"] == "multistart" for sols in multistart)
    counts = [len(sols.ensembles) for sols in chord]
    assert counts == [len(sols.ensembles) for sols in multistart]
    if expected is not None:
        assert counts == expected
    for ours, theirs in zip(chord, multistart):
        for ens in ours.ensembles:
            assert any(same_ensemble(ens, other, 1e-9) for other in theirs.ensembles)


def test_chord_misses_no_root_of_a_dense_grid(rf_bm):
    # Every sign change of g between neighbouring points of a 200k-point grid
    # (wrap jumps of 2 pi aside) holds a candidate root, or lies in a run of
    # unresolved cells (about a fixed point where the chord touches the circle).
    sets = [_rf_k3_disc_systems(rf_bm)] + [_ae_grid_systems([0.03, 0.055, 0.06, 0.1], k) for k in (2, 3, 4)]
    grid = np.linspace(-np.pi, np.pi, 200_001)
    for systems in sets:
        maps, which, roots, (run_which, run_a, run_b, _) = _chord_routes(systems)
        for s in range(len(systems)):
            g = maps.orbits(np.full(grid.size, s), grid).gap
            change = np.flatnonzero((np.sign(g[:-1]) != np.sign(g[1:])) & (np.abs(g[1:] - g[:-1]) < np.pi))
            own, runs = roots[which == s], np.column_stack([run_a, run_b])[run_which == s]
            for i in change:
                lo, hi = grid[i] - 1e-12, grid[i + 1] + 1e-12
                assert np.any((own >= lo) & (own <= hi)) or np.any((runs[:, 0] <= hi) & (runs[:, 1] >= lo)), (s, grid[i])


def test_chord_diagnostics_count_every_root_once(rf_bm):
    systems = _rf_k3_disc_systems(rf_bm) + _ae_grid_systems([0.04, 0.06])
    for sols in solve_systems(systems, SolverConfig()):
        diag = sols.diagnostics
        assert diag["method"] == "chord map" and diag["n_cells"] >= solver._CHORD_CELLS
        assert diag["n_starts"] == diag["n_accepted"] + sum(diag["rejections"].values())
        assert diag["n_converged"] <= diag["n_starts"] and diag["n_accepted"] == len(sols.ensembles)
        # The other K - 1 roots of an accepted orbit are relabelled copies.
        assert diag["rejections"].get("duplicate", 0) >= 2 * diag["n_accepted"]


def test_chord_hands_one_candidate_per_orbit_to_the_acceptance(rf_bm, monkeypatch):
    # The K roots of an orbit are one ensemble relabelled: K - 1 of them are
    # counted as duplicates before the pairwise comparison of _distinct.
    seen = []
    real = solver._verified

    def recording(batches):
        seen.append([len(batch.states) for batch in batches])
        return real(batches)

    monkeypatch.setattr(solver, "_verified", recording)
    solsets = solve_systems(_rf_k3_disc_systems(rf_bm), SolverConfig())
    assert seen == [[len(sols.ensembles) for sols in solsets]] == [[0, 4, 4]]
    assert [sols.diagnostics["rejections"].get("duplicate", 0) for sols in solsets] == [0, 8, 8]


def test_chord_candidate_that_is_no_root_fails_verification(rf_bm):
    # A steep cell next to a root of g: its middle is no root, and the orbit
    # from it does not close.  It is a candidate like the roots and is
    # filed by the projector-form check, not dropped.
    cs = _rf_k3_disc_systems(rf_bm)[2]
    maps, which, roots, _ = _chord_routes([cs])
    steep = roots[np.argmax(np.abs(maps.orbits(which, roots).slope))]
    angles = np.sort(np.append(roots, steep + 1e-4))
    orb = maps.orbits(np.zeros(angles.size, dtype=int), angles)
    sols = solver._verified(solver._chord_accept([cs], SolverConfig(), orb, [np.arange(angles.size)]))[0]
    diag = sols.diagnostics
    assert np.abs(orb.gap[angles == steep + 1e-4]) > 1e-3
    assert diag["rejections"]["projector-form verification failed"] == 1
    assert diag["n_converged"] == len(roots) and diag["n_starts"] == len(roots) + 1
    assert diag["n_starts"] == diag["n_accepted"] + sum(diag["rejections"].values())
    assert len(sols.ensembles) == 4


def test_chord_orbit_run_backwards_is_a_negative_rate(rf_bm):
    # Reversing the flow keeps the chord map (the chord along -v is the
    # chord along v) and negates every chord parameter t, so each periodic
    # orbit of the disc runs backwards and no rate 1/t is positive.  The
    # forward flow keeps 4 of these orbits (see the test above).
    cs = _rf_k3_disc_systems(rf_bm)[2]
    backwards = dataclasses.replace(cs, lin=-cs.lin)
    maps, which, roots, _ = _chord_routes([backwards])
    orb = maps.orbits(which, roots)
    sols = solver._verified(solver._chord_accept([backwards], SolverConfig(), orb, [np.argsort(roots)]))[0]
    diag = sols.diagnostics
    assert np.sum(np.min(orb.chord, axis=0) < 0) == 12
    assert diag["rejections"] == {"negative rate": 12, "coincident members": 1}
    assert diag["n_starts"] == len(roots) == 13 and sols.ensembles == []


def test_chord_cells_left_unresolved_are_candidates_verify_decides(rf_bm, monkeypatch):
    # With no halving allowed, every cell the first grid cannot settle is a
    # candidate; those whose orbits do not close fail verification.
    monkeypatch.setattr(solver, "_CHORD_DEPTH", 0)
    systems = _rf_k3_disc_systems(rf_bm)
    solsets = solve_systems(systems, SolverConfig())
    failed = 0
    for cs, sols in zip(systems, solsets):
        diag = sols.diagnostics
        assert diag["n_unresolved"] > 0 and diag["n_cells"] == solver._CHORD_CELLS
        assert diag["n_starts"] == diag["n_accepted"] + sum(diag["rejections"].values())
        failed += diag["rejections"].get("projector-form verification failed", 0)
        assert all(verify(cs.bm, ens, tol=1e-9).passed for ens in sols.ensembles)
    assert failed > 0


def test_chord_results_do_not_depend_on_seeds_or_rng(rf_bm):
    systems = _rf_k3_disc_systems(rf_bm) + _ae_grid_systems([0.05])
    reference = solve_systems(systems, SolverConfig(seeds=512, rng_seed=0))
    for cfg in (SolverConfig(seeds=1, rng_seed=0), SolverConfig(seeds=48, rng_seed=7)):
        for sols, ref in zip(solve_systems(systems, cfg), reference):
            assert sols.diagnostics == ref.diagnostics
            assert len(sols.ensembles) == len(ref.ensembles)
            for e1, e2 in zip(sols.ensembles, ref.ensembles):
                assert np.array_equal(e1.states, e2.states) and np.array_equal(e1.kappa, e2.kappa)


def test_only_cyclic_qubit_discs_take_the_chord_route(rf_bm, ae_bm, cascade_d3_bm):
    d3_slice = next(s for s in find_invariant_subspaces(cascade_d3_bm) if s.n == 2 and s.pure_witness is not None)
    equator = subspace_from_span(ae_bm, np.array([[1.0, 0, 0], [0, 1.0, 0]]).T)
    multistart = [
        *(build_subspace_reduced(rf_bm, sub, 3, "full") for sub in find_invariant_subspaces(rf_bm) if sub.n == 2),
        build_subspace_reduced(cascade_d3_bm, d3_slice, 3, "cyclic"),
        build_full(rf_bm, 3, "cyclic"),
        # Every point of the equator lies on a 2-periodic orbit of the chord
        # map, a continuous family: the chord route leaves it to the multistart.
        build_subspace_reduced(ae_bm, equator, 2, "cyclic"),
    ]
    assert [solver._chord_qualifies(cs) for cs in multistart] == [False] * 5 + [True]
    cfg = SolverConfig(seeds=8, rng_seed=0)
    assert [sols.diagnostics["method"] for sols in solve_systems(multistart, cfg)] == ["multistart"] * 6
    assert solve_numeric(build_subspace_reduced(ae_bm, equator, 3, "cyclic"), cfg).diagnostics["method"] == "chord map"


def test_chord_leaves_a_circle_over_its_cell_budget_to_the_multistart(rf_bm, monkeypatch):
    # The rf disc with no ensemble settles with few halvings; the two others
    # need more than 32 cells halved at once and are solved by the multistart.
    monkeypatch.setattr(solver, "_CHORD_BUDGET", 32)
    solsets = solve_systems(_rf_k3_disc_systems(rf_bm), SolverConfig(seeds=8, rng_seed=0))
    assert [sols.diagnostics["method"] for sols in solsets] == ["chord map", "multistart", "multistart"]


@pytest.mark.parametrize("k", range(2, 9))
@pytest.mark.parametrize("model", ["rf_bm", "ae_bm"])
def test_closed_forms_count_every_candidate_once(request, model, k):
    # The closed forms go through the shared acceptance, so their
    # bookkeeping is the numeric routes': every candidate is kept or filed.
    bm = request.getfixturevalue(model)
    for sols in (analytic_k2(bm), solve_wigner_family(bm, k)):
        diag = sols.diagnostics
        assert diag["method"] in ("analytic-k2", "wigner-family")
        assert diag["n_starts"] == diag["n_accepted"] + sum(diag["rejections"].values())
        assert diag["n_accepted"] == len(sols.ensembles) == len(sols.family_tags)


def test_closed_forms_keep_only_what_the_projector_form_check_passes(rf_bm, ae_bm, monkeypatch):
    assert len(analytic_k2(rf_bm).ensembles) == 3
    monkeypatch.setattr(solver, "projector_residuals", lambda basis, liou, states, kappa: np.ones(states.shape[:2]))
    for sols in (analytic_k2(rf_bm), analytic_k2(ae_bm), solve_wigner_family(ae_bm, 3)):
        assert sols.ensembles == []
        assert sols.diagnostics["rejections"]["projector-form verification failed"] == sols.diagnostics["n_converged"] > 0


@pytest.mark.parametrize("scale", [1e7, 1e12])
def test_closed_forms_verify_relative_to_the_rate_scale(rf_bm, ae_bm, scale):
    # Scaling every rate scales the projector-form residual, rounding
    # included; an exact ensemble of a fast model still passes, checked in
    # the model's rate unit, and matches the slow one with its rates scaled
    # under the relative rate term.
    rf_fast = vectorize(load_catalog("resonance_fluorescence", {"gamma": scale, "Omega": 0.18 * scale}))
    ae_fast = vectorize(load_catalog("absorption_emission", {"gamma_minus": scale, "gamma_plus": 0.3 * scale}))
    for bm in (rf_fast, ae_fast):
        assert bm.rate_unit == 2.0 ** round(np.log2(np.linalg.norm(bm.l0, 2))) > scale / 2
    pairs = [(analytic_k2(rf_fast), analytic_k2(rf_bm)), (solve_wigner_family(ae_fast, 3), solve_wigner_family(ae_bm, 3))]
    for fast, slow in pairs:
        assert fast.diagnostics["rejections"] == {}
        assert len(fast.ensembles) == len(slow.ensembles) > 0
        for e_fast, e_slow in zip(fast.ensembles, slow.ensembles):
            assert same_ensemble(e_fast, _in_unit(e_slow, scale), 1e-9)
            assert not same_ensemble(e_fast, _in_unit(e_slow, 1.01 * scale), 1e-9)


def test_ensemble_distance_is_the_minimum_over_all_relabellings(rf_bm, ae_bm):
    # The value is the full K! minimum's, bit for bit, and same_ensemble,
    # which tries only the relabellings that move no member beyond eps,
    # decides it against eps on the closed-form ensembles.
    def reference(e1, e2):
        perms = np.array(list(itertools.permutations(range(e1.k))))
        d_states = np.max(np.linalg.norm(e1.states - e2.states[perms], axis=2), axis=1)
        d_kappa = np.max(np.abs(e1.kappa - e2.kappa[perms[:, :, None], perms[:, None, :]]), axis=(1, 2))
        return float(np.min(d_states + d_kappa / max(e1.kappa.max(), e2.kappa.max())))

    ensembles = analytic_k2(rf_bm).ensembles + analytic_k2(ae_bm).ensembles
    ensembles += [e for k in (3, 5, 6) for e in solve_wigner_family(ae_bm, k).ensembles]
    for e1 in ensembles:
        shuffled = np.random.default_rng(e1.k).permutation(e1.k)
        moved = _Candidate(e1.dim, e1.states[shuffled] + 4e-7, e1.kappa[np.ix_(shuffled, shuffled)])
        for e2 in ensembles + [moved]:
            if e2.k == e1.k:
                minimum = reference(e1, e2)
                assert ensemble_distance(e1, e2) == minimum
                assert same_ensemble(e1, e2, minimum) and not same_ensemble(e1, e2, np.nextafter(minimum, -np.inf))
        assert ensemble_distance(e1, moved) <= DEDUP_EPS
        assert same_ensemble(e1, moved, DEDUP_EPS)


# The stacked acceptance against the per-candidate walk it replaced.


def _per_candidate_verified(batches):
    """The acceptance one candidate at a time: each batch walked in order, a
    candidate the same as a kept one counted as a duplicate, any other
    validated by ``Ensemble.from_states_kappa`` and checked by ``verify``."""
    solsets = []
    for batch in batches:
        kept, tags, duplicates = [], [], 0
        for i in range(len(batch.states)):
            cand = _Candidate(batch.bm.dim, batch.states[i], clamp_rates(batch.kappa[i]))
            if any(same_ensemble(cand, ens, DEDUP_EPS) for ens in kept):
                duplicates += 1
                continue
            try:
                ens = Ensemble.from_states_kappa(batch.bm.dim, batch.states[i], batch.kappa[i])
            except EnsembleError as exc:
                solver._reject(batch.diagnostics, str(exc))
                continue
            if not verify(batch.bm, ens, tol=10 * batch.tol).passed:
                solver._reject(batch.diagnostics, "projector-form verification failed")
                continue
            kept.append(ens)
            tags.append(batch.tags[i])
        if duplicates:
            solver._reject(batch.diagnostics, "duplicate", duplicates)
        batch.diagnostics["n_accepted"] = len(kept)
        solsets.append(SolutionSet(kept, batch.diagnostics, tags))
    return solsets


def _assert_same_solutions(ours, theirs):
    assert len(ours) == len(theirs)
    for a, b in zip(ours, theirs):
        assert a.diagnostics == b.diagnostics
        assert list(a.diagnostics["rejections"].items()) == list(b.diagnostics["rejections"].items())
        assert len(a.ensembles) == len(b.ensembles) and a.family_tags == b.family_tags
        for e1, e2 in zip(a.ensembles, b.ensembles):
            for name in ("states", "kappa", "occupations"):
                assert np.array_equal(getattr(e1, name), getattr(e2, name))


RF_ARGS = ["resonance_fluorescence", "--param", "gamma=1", "--param", "Omega=0.18"]
AE_ARGS = ["absorption_emission", "--param", "gamma_minus=1", "--param", "gamma_plus=0.3"]
CASCADE_D3_SPEC = str(Path(__file__).resolve().parents[1] / "bench" / "models" / "cascade_d3.json")
SEARCHES = {
    "rf-k2-cyclic": [*RF_ARGS, "--k", "2", "--seeds", "16", "--rng", "7"],
    "rf-k3-cyclic": [*RF_ARGS, "--k", "3", "--seeds", "128", "--rng", "7"],
    "rf-k2-full": [*RF_ARGS, "--k", "2", "--graph", "full", "--seeds", "64", "--rng", "7"],
    "rf-k3-full": [*RF_ARGS, "--k", "3", "--graph", "full", "--seeds", "128", "--rng", "7"],
    "ae-k2": [*AE_ARGS, "--k", "2", "--seeds", "64", "--rng", "7"],
    "ae-k3": [*AE_ARGS, "--k", "3", "--seeds", "64", "--rng", "7"],
    "cascade-d3-k3-full": [CASCADE_D3_SPEC, "--k", "3", "--graph", "full", "--seeds", "16"],
}


@pytest.mark.parametrize("args", SEARCHES.values(), ids=SEARCHES)
def test_stacked_acceptance_matches_the_per_candidate_walk_in_search(tmp_path, monkeypatch, capsys, args):
    # The bundle holds every route's counts and rejection histogram and the
    # listed ensembles in order, each to the last bit.
    bundles = []
    for accept in (solver._verified, _per_candidate_verified):
        monkeypatch.setattr(solver, "_verified", accept)
        path = tmp_path / f"{len(bundles)}.json"
        assert cli.main(["search", *args, "-o", str(path)]) in (0, 1)
        bundles.append(path.read_bytes())
    assert bundles[0] == bundles[1]


def test_stacked_acceptance_matches_the_per_candidate_walk_on_the_readme_scan(monkeypatch):
    systems = _ae_grid_systems(README_GRID)
    ours = solve_systems(systems, SolverConfig())
    monkeypatch.setattr(solver, "_verified", _per_candidate_verified)
    _assert_same_solutions(ours, solve_systems(systems, SolverConfig()))
    assert sum(len(sols.ensembles) for sols in ours) > 0


def test_stacked_acceptance_files_every_reason_in_order(ae_bm):
    # One route's candidates: copies of a K=10 ensemble that fail each check
    # in the order the checks are made, the ensemble, then relabelled copies,
    # one with rates off by 5e-7 that the projector-form check alone would
    # reject; a duplicate counts as one whatever else it fails.  The copy just
    # outside the state set lies within DEDUP_EPS of the ensemble, so it
    # comes first.
    (ens,) = [e for e in solve_wigner_family(ae_bm, 10).ensembles if np.count_nonzero(e.kappa) == 20][:1]
    blocks = np.zeros((10, 10))
    for block in (range(5), range(5, 10)):
        blocks[np.ix_(block, block)] = 1.0 - np.eye(5)
    blocks[5, 0] = blocks[0, 5] = 1.0001e-9  # connected, but no unique stationary distribution
    perm = np.roll(np.arange(10), 3)
    rows = []

    def copy(states=None, kappa=None):
        rows.append((ens.states.copy() if states is None else states, ens.kappa.copy() if kappa is None else kappa))
        return rows[-1]

    copy()[0][3, 0] = np.nan
    copy()[1][1, 0] = np.inf
    copy()[1][1, 0] = -0.5
    copy()[0][2] *= 1.01
    copy()[0][2] *= np.sqrt(1 + 5e-7)
    copy(kappa=np.where(np.arange(10)[:, None] == 0, 0.0, ens.kappa))
    copy(kappa=blocks)
    copy(kappa=1.1 * ens.kappa)
    copy()
    copy(ens.states[perm], ens.kappa[np.ix_(perm, perm)])
    copy(ens.states[perm], (1 + 5e-7) * ens.kappa[np.ix_(perm, perm)])
    states, kappa = map(np.array, zip(*rows))

    def batch():
        diagnostics = solver._new_diagnostics("mixed", len(rows))
        return _Batch(ae_bm, SolverConfig().tol, states, kappa, list(range(len(rows))), diagnostics)

    (sols,) = solver._verified([batch()])
    assert list(sols.diagnostics["rejections"].items()) == [
        ("non-finite member coordinate", 1),
        ("non-finite rate", 1),
        ("negative transition rate -0.5", 1),
        ("member is not on the pure-state sphere", 1),
        ("member maps to a non-positive matrix", 1),
        ("transition graph is not strongly connected", 1),
        ("rate matrix has no unique stationary distribution", 1),
        ("projector-form verification failed", 1),
        ("duplicate", 2),
    ]
    assert sols.diagnostics["n_accepted"] == 1 and sols.family_tags == [8]
    assert np.array_equal(sols.ensembles[0].states, ens.states)
    assert np.array_equal(sols.ensembles[0].occupations, ens.occupations)
    _assert_same_solutions([sols], _per_candidate_verified([batch()]))
