import itertools
import re

import numpy as np
import pytest

from preforge.algebra import bloch_to_rho, build_basis, null_space, pure_radius_sq, random_pure_ket, rho_to_bloch
from preforge.constraints import (
    PURITY_TOL,
    Ensemble,
    _perm_order,
    build_full,
    build_subspace_reduced,
    build_wigner_reduced,
    KAPPA_CLAMP,
    clamp_rates,
    heuristic_min_k,
    is_strongly_connected,
    negative_rate,
    projector_residuals,
    transition_edges,
    validate_stack,
    verify,
)
from preforge.errors import EnsembleError, PermutationError
from preforge.model import lindbladian
from preforge.solver import analytic_k2, solve_wigner_family
from preforge.symmetry import WignerSymmetry, find_wigner_symmetries, lie_element, subspace_from_span


def test_constraint_counts_qubit_cyclic(rf_bm):
    cs = build_full(rf_bm, 2, "cyclic")
    assert cs.n_constraints == 8
    assert cs.n_params == 8


def test_constraint_counts_sweep(rf_bm):
    # K(D^2 - 1) + K rows; K(D^2 - 1) + |edges| unknowns.
    for d in (2, 3, 4):
        n = d * d - 1
        for k in range(2, 7):
            for graph, n_edges in (("cyclic", k), ("full", k * (k - 1))):
                edges = transition_edges(graph, k)
                assert len(edges) == n_edges
    cs = build_full(rf_bm, 5, "full")
    assert cs.n_constraints == 5 * 3 + 5
    assert cs.n_params == 5 * 3 + 20


def test_explicit_edge_lists_are_validated():
    assert transition_edges([(1, 0), (0, 1)], 2) == [(1, 0), (0, 1)]
    for bad in ([(0, 0)], [(2, 0)], [(1, 0), (1, 0)]):
        with pytest.raises(ValueError):
            transition_edges(bad, 2)


def test_constraint_count_matches_qutrit_expectation():
    # For D = 3, K = 5 the full system carries 5 * 9 = 45 + 5 rows.
    k, d = 5, 3
    n = d * d - 1
    assert k * n + k == 45  # Bloch rows plus normalization rows
    assert heuristic_min_k(3) == 5


def test_full_residual_vanishes_on_analytic_solutions(rf_bm):
    cs = build_full(rf_bm, 2, "cyclic")
    for ens in analytic_k2(rf_bm).ensembles:
        theta = np.concatenate(
            [ens.states.ravel(), [ens.kappa[1, 0], ens.kappa[0, 1]]]
        )
        assert np.max(np.abs(cs.residual(theta))) < 1e-12


def test_full_jacobian_matches_finite_differences(rf_bm, rng):
    cs = build_full(rf_bm, 3, "cyclic")
    theta = cs.sample_start(rng)
    jac = cs.jacobian(theta)
    eps = 1e-7
    for i in range(theta.size):
        bump = theta.copy()
        bump[i] += eps
        col = (cs.residual(bump) - cs.residual(theta)) / eps
        assert np.max(np.abs(col - jac[:, i])) < 1e-5


def _rf_disc(bm):
    return subspace_from_span(bm, np.array([[0, 1.0, 0], [0, 0, 1.0]]).T)


def _ae_rotation(bm, k):
    gen = next(w.generator for w in find_wigner_symmetries(bm) if w.generator is not None)
    return WignerSymmetry(t0=lie_element(gen, 2 * np.pi / k), antiunitary=False)


SYSTEMS = {
    "full-cyclic": lambda rf, ae: build_full(rf, 3, "cyclic"),
    "full-full": lambda rf, ae: build_full(rf, 3, "full"),
    "subspace-cyclic": lambda rf, ae: build_subspace_reduced(rf, _rf_disc(rf), 3, "cyclic"),
    "subspace-full": lambda rf, ae: build_subspace_reduced(rf, _rf_disc(rf), 3, "full"),
    "wigner-flip": lambda rf, ae: build_wigner_reduced(
        rf, find_wigner_symmetries(rf)[0], perm=[1, 0], k=2, graph="cyclic"
    ),
    "wigner-rotation": lambda rf, ae: build_wigner_reduced(
        ae, _ae_rotation(ae, 3), perm=[1, 2, 0], k=3, graph="full"
    ),
}


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_jacobian_matches_central_differences(name, rf_bm, ae_bm, rng):
    cs = SYSTEMS[name](rf_bm, ae_bm)
    stack = np.array([cs.sample_start(rng) for _ in range(8)])
    jac = cs.jacobian(stack)
    assert jac.shape == (8, cs.n_constraints, cs.n_params)
    fd = np.empty_like(jac)
    for i in range(cs.n_params):
        h = 1e-6 * np.maximum(1.0, np.abs(stack[:, i]))
        bump = np.zeros_like(stack)
        bump[:, i] = h
        fd[:, :, i] = (cs.residual(stack + bump) - cs.residual(stack - bump)) / (2 * h[:, None])
    assert np.all(np.abs(jac - fd) <= 1e-6 * np.maximum(np.abs(jac), 1.0))


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_stacked_evaluation_equals_single_vectors(name, rf_bm, ae_bm, rng):
    cs = SYSTEMS[name](rf_bm, ae_bm)
    stack = np.array([cs.sample_start(rng) for _ in range(8)])
    resid, jac = cs.residual(stack), cs.jacobian(stack)
    assert resid.shape == (8, cs.n_constraints)
    for theta, r_row, j_row in zip(stack, resid, jac):
        assert np.array_equal(cs.residual(theta), r_row)
        assert np.array_equal(cs.jacobian(theta), j_row)


def test_perm_order_is_lcm_of_cycle_lengths():
    assert _perm_order((1, 2, 0, 4, 5, 6, 3)) == 12  # a 3-cycle and a 4-cycle
    assert _perm_order((0, 1, 2)) == 1
    assert _perm_order((1, 0, 2)) == 2


def test_subspace_counts_and_equivalence(rf_bm, rng):
    disc = subspace_from_span(rf_bm, np.array([[0, 1.0, 0], [0, 0, 1.0]]).T)
    cs = build_subspace_reduced(rf_bm, disc, 3, "cyclic")
    assert cs.n_constraints == 9  # K(N+1) against 12 in the full space
    full = build_full(rf_bm, 3, "cyclic")
    for _ in range(20):
        theta = cs.sample_start(rng)
        states, kappa = cs.unpack(theta)
        theta_full = np.concatenate(
            [states.ravel(), [kappa[1, 0], kappa[2, 1], kappa[0, 2]]]
        )
        r_sub = np.linalg.norm(cs.residual(theta))
        r_full = np.linalg.norm(full.residual(theta_full))
        assert abs(r_sub - r_full) < 1e-12 * max(1.0, r_full)


def test_qutrit_system_counts_from_built_systems():
    # A three-level loop with distinct rates: unique full-rank steady state.
    from preforge.model import MasterEquation, vectorize
    from preforge.symmetry import find_invariant_subspaces

    def ladder(i, j):
        m = np.zeros((3, 3), complex)
        m[i, j] = 1.0
        return m

    me = MasterEquation(
        3, np.zeros((3, 3)), [1.0 * ladder(1, 0), 0.7 * ladder(2, 1), 0.4 * ladder(0, 2)]
    )
    bm = vectorize(me)
    for k in range(2, 7):
        cs = build_full(bm, k, "cyclic")
        assert cs.n_constraints == k * 8 + k
        assert cs.n_params == k * 8 + k
    subs = find_invariant_subspaces(bm)
    assert subs and all(s.n >= 2 for s in subs)  # at least D-1 dimensional
    five_dim = [s for s in subs if s.n == 5]
    assert five_dim  # same size class as real-valued density matrices
    cs = build_subspace_reduced(bm, five_dim[0], 4, "cyclic")
    assert cs.n_constraints == 24 and cs.n_params == 24  # square, down from 36
    for sub in subs[:6]:
        for k in (2, 4):
            cs = build_subspace_reduced(bm, sub, k, "cyclic")
            assert cs.n_constraints == k * (sub.n + 1)
            assert cs.n_params == k * sub.n + k


def test_redit_subspace_system_size_for_qutrits():
    # Real density matrices of a qutrit: N = (D^2 + D)/2 - 1 = 5, so a K = 4
    # cyclic search is a 24-equation square system.
    n_sub = (9 + 3) // 2 - 1
    k = 4
    assert k * (n_sub + 1) == 24
    assert k * n_sub + k == 24
    assert heuristic_min_k(3, real_subspace=True) == 4


def test_verify_passes_analytic_and_flags_perturbation(rf_bm):
    ens = analytic_k2(rf_bm).ensembles[0]
    report = verify(rf_bm, ens)
    assert report.passed and report.max_residual < 1e-10
    worse = Ensemble.from_states_kappa(2, ens.states, ens.kappa * 1.1)
    report_bad = verify(rf_bm, worse)
    assert not report_bad.passed
    # residual scales with the rate perturbation
    assert report_bad.max_residual > 0.01 * np.max(ens.kappa)


def test_verify_wigner_family_rates(ae_bm):
    fam = solve_wigner_family(ae_bm, 3)
    assert len(fam.ensembles) == 1
    ens = fam.ensembles[0]
    assert np.allclose(sorted(ens.kappa[ens.kappa > 0]), [1.3 / 6] * 6, atol=1e-12)
    assert verify(ae_bm, ens, tol=1e-10).passed


def test_residual_equivalence_bloch_vs_projector(rf_bm, rng):
    # For arbitrary candidates the two evaluation routes differ only by the
    # fixed algebraic factor sqrt(2)/D per member row.
    basis = build_basis(2)
    cs = build_full(rf_bm, 2, "cyclic")
    radius = np.sqrt(pure_radius_sq(2))
    for _ in range(1000):
        states = rng.normal(size=(2, 3))
        states = radius * states / np.linalg.norm(states, axis=1, keepdims=True)
        kappa = np.zeros((2, 2))
        kappa[1, 0], kappa[0, 1] = rng.uniform(0.05, 2.0, size=2)
        ens = Ensemble.from_states_kappa(2, states, kappa)
        report = verify(rf_bm, ens)
        theta = np.concatenate([states.ravel(), [kappa[1, 0], kappa[0, 1]]])
        resid = cs.residual(theta)
        for k in range(2):
            bloch_norm = np.linalg.norm(resid[k * 3 : (k + 1) * 3])
            assert abs(report.residuals[k] - np.sqrt(2.0) / 2.0 * bloch_norm) < 1e-12


def test_heuristic_minimum_sizes():
    expected_general = {2: 2, 3: 5, 4: 10, 5: 17, 6: 26}
    expected_real = {2: 2, 3: 4, 4: 7, 5: 11, 6: 16}
    for d, want in expected_general.items():
        assert heuristic_min_k(d) == want
    for d, want in expected_real.items():
        assert heuristic_min_k(d, real_subspace=True) == want
    with pytest.raises(ValueError):
        heuristic_min_k(1)


def test_ensemble_validation_rejects_bad_input():
    good_states = np.array([[0, 0, 1.0], [0, 0, -1.0]])
    kappa = np.array([[0.0, 0.3], [1.0, 0.0]])
    Ensemble.from_states_kappa(2, good_states, kappa)
    with pytest.raises(EnsembleError):
        Ensemble.from_states_kappa(2, good_states * 1.1, kappa)
    with pytest.raises(EnsembleError):
        Ensemble.from_states_kappa(2, good_states, -kappa)
    with pytest.raises(EnsembleError):
        Ensemble.from_states_kappa(
            2, good_states, np.array([[0.0, 0.0], [1.0, 0.0]])
        )  # one-way graph


@pytest.mark.parametrize("as_arrays", [True, False])
@pytest.mark.parametrize(
    "states, kappa, message",
    [
        ([[0, 0, 1.0], [0, 0, -1.0], [1.0, 0, 0]], [[0, 1.0], [1.0, 0]], "kappa needs shape (3, 3)"),
        ([[0, 0, 1.0], [0, 0, -1.0]], np.ones((3, 3)), "kappa needs shape (2, 2)"),
        ([[0, 0, 1.0]], [[0.0]], "K >= 2"),
        ([0, 0, 1.0], [[0.0]], "K >= 2"),
        ([[0, 1.0], [0, -1.0]], [[0, 1.0], [1.0, 0]], "(K, 3)"),
    ],
    ids=["3-states-2x2-kappa", "2-states-3x3-kappa", "one-member", "flat-states", "short-states"],
)
def test_ensemble_shapes_are_checked_without_validation(states, kappa, message, as_arrays):
    # The shapes are checked before any member or rate, on arrays and
    # nested lists alike.
    states, kappa = (np.array(x) if as_arrays else np.array(x).tolist() for x in (states, kappa))
    with pytest.raises(EnsembleError, match=re.escape(message)):
        Ensemble.from_states_kappa(2, states, kappa)


def test_ensemble_occupations_are_stationary(ae_bm):
    ens = analytic_k2(ae_bm).ensembles[0]
    gen = ens.kappa - np.diag(ens.kappa.sum(axis=0))
    assert np.max(np.abs(gen @ ens.occupations)) < 1e-12
    assert abs(ens.occupations.sum() - 1.0) < 1e-14
    assert np.max(np.abs(ens.average() - ae_bm.x_ss)) < 1e-10


def test_ensemble_kets_are_computed_once_and_read_only(ae_bm, monkeypatch):
    ens = analytic_k2(ae_bm).ensembles[0]
    kets = ens.kets()
    for ket, p in zip(kets, ens.projectors()):
        assert abs(np.linalg.norm(ket) - 1.0) < 1e-14 and np.max(np.abs(p @ ket - ket)) < 1e-14

    def no_eigh(*args):
        raise AssertionError("kets were decomposed again")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    assert ens.kets() is kets
    with pytest.raises(ValueError, match="read-only"):
        kets[0, 0] = 0.0


def test_wigner_reduced_thermal_family_matches_linear_equations(ae_bm):
    # Full symmetry reduction: one free member, rates tied along the two
    # edge orbits of the full graph; the known equal-rate solution solves it.
    gen = next(w.generator for w in find_wigner_symmetries(ae_bm) if w.generator is not None)
    k = 3
    w = WignerSymmetry(t0=lie_element(gen, 2 * np.pi / k), antiunitary=False)
    cs = build_wigner_reduced(ae_bm, w, perm=[1, 2, 0], k=k, graph="full")
    assert cs.structure["n_orbits"] == 1
    assert cs.n_constraints == 4
    assert cs.notes["fix_dims"] == [3]  # the cubed rotation is the identity
    assert len(cs.notes["edge_orbits"]) == 2
    fam = solve_wigner_family(ae_bm, k)
    ens = fam.ensembles[0]
    # The state parameter gives coefficients in the fixed-space basis; any
    # circle point works because the system is rotation invariant.
    rate = 1.3 / 6.0
    theta = np.concatenate([ens.states[0], [rate, rate]])
    states, kappa = cs.unpack(theta)
    assert np.max(np.abs(kappa - ens.kappa)) < 1e-9
    assert np.max(np.abs(cs.residual(theta))) < 1e-10
    expanded = cs.ensemble(theta)
    assert verify(ae_bm, expanded, tol=1e-10).passed
    from preforge.solver import family_equivalent

    assert family_equivalent(expanded, ens, gen, eps=1e-8)


def test_wigner_reduced_flags_cyclic_inconsistency(rf_bm):
    # The swap maps the cycle edge 1 <- 0 onto 0 <- 1, which the cycle lacks.
    w = find_wigner_symmetries(rf_bm)[0]
    with pytest.raises(PermutationError, match="absent from the graph"):
        build_wigner_reduced(rf_bm, w, perm=[1, 0, 2], k=3, graph="cyclic")


def test_wigner_reduced_trivial_perm_equals_subspace_reduction(rf_bm, rng):
    w = find_wigner_symmetries(rf_bm)[0]
    cs = build_wigner_reduced(rf_bm, w, perm=[0, 1, 2], k=3, graph="cyclic")
    assert cs.notes["edge_orbits"] == [[edge] for edge in cs.edges]  # one rate per edge
    disc = subspace_from_span(rf_bm, np.array([[0, 1.0, 0], [0, 0, 1.0]]).T)
    cs_sub = build_subspace_reduced(rf_bm, disc, 3, "cyclic")
    # identical-fixed-point parametrization: members confined to the x = 0 disc
    assert cs.notes["fix_dims"] == [2, 2, 2]
    for _ in range(10):
        theta = cs.sample_start(rng)
        states, kappa = cs.unpack(theta)
        assert np.max(np.abs(states[:, 0])) < 1e-12
        coeffs = states - rf_bm.x_ss
        theta_sub = np.concatenate(
            [
                (disc.basis_i0.T @ coeffs.T).T.ravel(),
                [kappa[1, 0], kappa[2, 1], kappa[0, 2]],
            ]
        )
        assert abs(
            np.linalg.norm(cs.residual(theta)) - np.linalg.norm(cs_sub.residual(theta_sub))
        ) < 1e-10


def test_wigner_reduced_validates_permutation(rf_bm):
    w = find_wigner_symmetries(rf_bm)[0]
    with pytest.raises(PermutationError):
        build_wigner_reduced(rf_bm, w, perm=[1, 2, 1], k=3, graph="cyclic")


def _strongly_connected_bfs(kappa, tol):
    """Reference: breadth-first search from member 0 along edges and against them."""
    adj = kappa > tol

    def reaches_all(step):
        seen, frontier = {0}, [0]
        while frontier:
            node = frontier.pop()
            for nxt in np.flatnonzero(step[node]):
                if nxt not in seen:
                    seen.add(int(nxt))
                    frontier.append(int(nxt))
        return len(seen) == len(kappa)

    return reaches_all(adj) and reaches_all(adj.T)


def test_strong_connectivity_matches_bfs_on_every_small_digraph():
    for k in range(1, 5):
        slots = [(j, i) for j in range(k) for i in range(k) if j != i]
        for mask in itertools.product((0.0, 1.0), repeat=len(slots)):
            kappa = np.zeros((k, k))
            for (j, i), rate in zip(slots, mask):
                kappa[j, i] = rate
            assert is_strongly_connected(kappa) == _strongly_connected_bfs(kappa, 0.0)


def test_strong_connectivity_matches_bfs_on_random_digraphs():
    # Rates spread over twelve decades and given in three rate units: a rate
    # below KAPPA_CLAMP times the largest is clamped to zero and is no edge,
    # in every unit, and every positive rate of the clamped matrix is one.
    rng = np.random.default_rng(8)
    found = set()
    for _ in range(200):
        k = int(rng.integers(2, 9))
        kappa = 10.0 ** rng.uniform(-12.0, 0.0, size=(k, k)) * (rng.random((k, k)) < rng.uniform(0.1, 0.6))
        np.fill_diagonal(kappa, 0.0)
        expected = _strongly_connected_bfs(kappa, KAPPA_CLAMP * kappa.max())
        assert is_strongly_connected(kappa) == _strongly_connected_bfs(kappa, 0.0)
        for unit in (2.0**-40, 1.0, 2.0**40):
            assert is_strongly_connected(clamp_rates(unit * kappa)) == expected
        found.add(expected)
    assert found == {True, False}


def test_strong_connectivity_single_member_and_clamp():
    assert is_strongly_connected(np.zeros((1, 1)))
    cycle = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert is_strongly_connected(cycle)
    # Every positive rate is an edge, until the clamp zeroes those below
    # KAPPA_CLAMP times the largest rate; the diagonal never matters.
    weak = cycle.copy()
    weak[0, 2] = 0.5 * KAPPA_CLAMP
    assert is_strongly_connected(weak)
    for unit in (2.0**-40, 1.0, 2.0**40):
        assert not is_strongly_connected(clamp_rates(unit * weak))
        assert is_strongly_connected(clamp_rates(unit * (cycle + 5.0 * np.eye(3))))
    weak[0, 2] = 2.0 * KAPPA_CLAMP
    assert is_strongly_connected(clamp_rates(weak))
    assert not is_strongly_connected(0.0 * cycle)
    assert is_strongly_connected(cycle + 5.0 * np.eye(3))
    assert not is_strongly_connected(np.eye(2))


def _validate_alone(dim, states, kappa):
    """One candidate validated as ``Ensemble.from_states_kappa`` did it, one
    member at a time: (first reason or None, clamped rates, occupations)."""
    if not np.isfinite(states).all():
        return "non-finite member coordinate", None, None
    if not np.isfinite(kappa).all():
        return "non-finite rate", None, None
    if negative_rate(kappa):
        return f"negative transition rate {np.min(kappa):g}", None, None
    kappa = clamp_rates(kappa)
    basis = build_basis(dim)
    for x in states:
        if abs(x @ x - pure_radius_sq(dim)) > 1e-6:
            return "member is not on the pure-state sphere", kappa, None
        if np.min(np.linalg.eigvalsh(bloch_to_rho(x, basis))) < -PURITY_TOL:
            return "member maps to a non-positive matrix", kappa, None
    if not is_strongly_connected(kappa):
        return "transition graph is not strongly connected", kappa, None
    null = null_space(kappa - np.diag(kappa.sum(axis=0)), rcond=1e-10)
    if null.shape[1] != 1:
        return "rate matrix has no unique stationary distribution", kappa, None
    w = null[:, 0].real
    w = w / w.sum()
    if np.min(w) < -1e-10:
        return "stationary distribution has negative entries", kappa, None
    return None, kappa, np.clip(w, 0.0, None) / np.clip(w, 0.0, None).sum()


def _projector_residuals_alone(bm, states, kappa):
    """The projector-form residuals of one candidate as ``verify`` formed
    them, one member at a time."""
    liou = lindbladian(bm.me)
    projectors = [bloch_to_rho(x, bm.basis) for x in states]
    residuals = []
    for k0 in range(len(states)):
        lhs = (liou @ projectors[k0].ravel()).reshape(bm.dim, bm.dim)
        rhs = sum(kappa[j, k0] * (projectors[j] - projectors[k0]) for j in range(len(states)) if j != k0)
        residuals.append(np.linalg.norm(lhs - rhs))
    return np.array(residuals)


def _random_stack(rng, dim, n_rows, k):
    """Candidates of every kind: pure members, some moved off the sphere or
    out of the state set, rates sparse, negative, tiny or non-finite."""
    states = np.array(
        [[rho_to_bloch(np.outer(psi, psi.conj()), build_basis(dim)) for psi in (random_pure_ket(dim, rng) for _ in range(k))]
         for _ in range(n_rows)]
    )
    kappa = rng.uniform(0.0, 2.0, size=(n_rows, k, k)) * (rng.random((n_rows, k, k)) < 0.7)
    for row in range(n_rows):
        kind = rng.integers(9)
        member = rng.integers(k)
        if kind == 0:
            states[row, member] *= 1.01
        elif kind == 1:
            states[row, member] *= np.sqrt(1 + 5e-7)  # on the sphere, just outside the state set
        elif kind == 2:
            kappa[row, member, (member + 1) % k] = -0.5
        elif kind == 3:
            states[row, member, rng.integers(dim * dim - 1)] = rng.choice([np.nan, np.inf])
        elif kind == 4:
            kappa[row, member, (member + 1) % k] = rng.choice([np.nan, np.inf, -np.inf])
        elif kind == 5:
            kappa[row] *= 10.0 ** rng.uniform(-12, -8, size=(k, k))
    return states, kappa


def test_stacked_validation_and_check_round_as_one_candidate_alone(rf_bm, ae_bm, cascade_d3_bm, cascade_d4_bm):
    # 200 random stacks: each row gets the reason, the clamped rates and the
    # occupations it gets validated alone, one member at a time, bit for bit
    # (a stacked SVD treats each matrix as alone), and each valid row the
    # projector-form residuals of the one-member-at-a-time loop, with its
    # own generator.
    rng = np.random.default_rng(23)
    models = {2: [rf_bm, ae_bm], 3: [cascade_d3_bm], 4: [cascade_d4_bm]}
    counts = {}
    for _ in range(200):
        dim = int(rng.choice([2, 2, 3, 4]))
        k, n_rows = int(rng.integers(2, 9)), int(rng.integers(1, 13))
        states, kappa = _random_stack(rng, dim, n_rows, k)
        reasons, clamped, occupations = validate_stack(build_basis(dim), states, kappa)
        valid = []
        for row in range(n_rows):
            reason, ref_kappa, ref_occupations = _validate_alone(dim, states[row], kappa[row])
            assert reasons[row] == reason
            counts[reason] = counts.get(reason, 0) + 1
            if reason is None:
                assert np.array_equal(clamped[row], ref_kappa)
                assert np.array_equal(occupations[row], ref_occupations)
                valid.append(row)
        if not valid:
            continue
        bms = [models[dim][i] for i in rng.integers(len(models[dim]), size=len(valid))]
        liou = np.array([bm.liouvillian for bm in bms])
        residuals = projector_residuals(build_basis(dim), liou, states[valid], clamped[valid])
        for row, bm, got in zip(valid, bms, residuals):
            assert np.array_equal(got, _projector_residuals_alone(bm, states[row], clamped[row]))
    # Every reason but the two the rate graph can hardly reach comes up.
    assert set(counts) >= {
        None,
        "non-finite member coordinate",
        "non-finite rate",
        "member is not on the pure-state sphere",
        "member maps to a non-positive matrix",
        "transition graph is not strongly connected",
    }
    assert any(str(reason).startswith("negative transition rate") for reason in counts)
    assert counts[None] > 100


def test_validation_files_the_first_failing_check_of_each_row(ae_bm):
    # One stack of K=10 rows, each failing one check after passing those
    # before it, in the order they are made; a row failing two checks gets
    # the earlier one, and a member's sphere test comes before the next
    # member's.
    (ens,) = [e for e in solve_wigner_family(ae_bm, 10).ensembles if np.count_nonzero(e.kappa) == 20][:1]
    blocks = np.zeros((10, 10))
    for block in (range(5), range(5, 10)):
        blocks[np.ix_(block, block)] = 1.0 - np.eye(5)
    blocks[5, 0] = blocks[0, 5] = 1.0001e-9  # connected, but no unique stationary distribution
    rows = []

    def row(states=None, kappa=None):
        rows.append((ens.states.copy() if states is None else states, ens.kappa.copy() if kappa is None else kappa))
        return rows[-1]

    row()[0][3, 0] = np.nan
    row()[1][1, 0] = np.inf
    row()[1][1, 0] = -0.5
    row()[0][2] *= 1.01
    row()[0][2] *= np.sqrt(1 + 5e-7)
    row(kappa=np.where(np.arange(10)[:, None] == 0, 0.0, ens.kappa))
    row(kappa=blocks)
    both = row()
    both[0][3, 0], both[1][1, 0] = np.inf, -0.5
    order = row()
    order[0][4] *= np.sqrt(1 + 5e-7)
    order[0][6] *= 1.01
    row()
    reasons, _, occupations = validate_stack(ae_bm.basis, *map(np.array, zip(*rows)))
    assert reasons == [
        "non-finite member coordinate",
        "non-finite rate",
        "negative transition rate -0.5",
        "member is not on the pure-state sphere",
        "member maps to a non-positive matrix",
        "transition graph is not strongly connected",
        "rate matrix has no unique stationary distribution",
        "non-finite member coordinate",
        "member maps to a non-positive matrix",
        None,
    ]
    assert np.array_equal(occupations[-1], ens.occupations)
    for (states, kappa), reason in zip(rows, reasons):
        if reason is None:
            Ensemble.from_states_kappa(2, states, kappa)
        else:
            with pytest.raises(EnsembleError, match=re.escape(reason)):
                Ensemble.from_states_kappa(2, states, kappa)
