import collections
import itertools
import logging

import numpy as np
import pytest
import scipy.linalg as la

from preforge.algebra import bloch_to_rho, null_space, orth, pure_radius_sq, random_pure_ket, rho_to_bloch
from preforge.constraints import _levenberg_marquardt, build_subspace_reduced
from preforge.errors import ShapeError, SubspaceError
from preforge.model import MasterEquation, vectorize
from preforge.solver import analytic_k2, same_ensemble
from preforge import symmetry
from preforge.symmetry import (
    WITNESS_MAX_ITER,
    WITNESS_STARTS,
    WITNESS_TOL,
    _pure_witnesses,
    apply_wigner,
    certify_wigner,
    find_invariant_subspaces,
    find_wigner_symmetries,
    lie_element,
    subspace_from_span,
    WignerSymmetry,
)


def _has_span(subspaces, vectors, tol=1e-8):
    cols = np.array(vectors, dtype=float).T  # one spanning vector per row
    q, _ = np.linalg.qr(cols)
    proj = q @ q.T
    return any(
        s.n == q.shape[1] and np.max(np.abs(s.basis_i0 @ s.basis_i0.T - proj)) < tol
        for s in subspaces
    )


def test_driven_qubit_subspaces_real_regime(rf_bm):
    subs = find_invariant_subspaces(rf_bm)
    one_d = [s for s in subs if s.n == 1]
    assert len(one_d) == 3
    assert _has_span(subs, [[1.0, 0, 0]])
    root = np.sqrt(0.4816)
    assert _has_span(subs, [[0.0, 1 + root, 0.72]])
    assert _has_span(subs, [[0.0, 1 - root, 0.72]])
    assert _has_span(subs, np.array([[0, 1.0, 0], [0, 0, 1.0]]))  # driven-plane disc
    for s in subs:
        assert s.pure_witness is not None
        assert s.certificate <= 1e-8


def test_driven_qubit_subspaces_complex_regime(rf_bm_fast):
    subs = find_invariant_subspaces(rf_bm_fast)
    assert len(subs) == 2
    assert _has_span(subs, [[1.0, 0, 0]])
    assert _has_span(subs, np.array([[0, 1.0, 0], [0, 0, 1.0]]))


def test_thermal_qubit_subspace_families(ae_bm):
    subs = find_invariant_subspaces(ae_bm)
    axis = [s for s in subs if s.n == 1 and abs(s.basis_i0[2, 0]) > 0.99]
    assert axis and axis[0].family is None
    diameters = [s for s in subs if s.n == 1 and abs(s.basis_i0[2, 0]) < 1e-12]
    assert diameters and diameters[0].family is not None
    assert diameters[0].family.generator is not None
    assert _has_span(subs, np.array([[1.0, 0, 0], [0, 1.0, 0]]))  # equatorial disc
    planes = [s for s in subs if s.n == 2 and s.family is not None]
    assert planes  # canonical plane through the symmetry axis


def test_subspace_propagation_stays_inside(rf_bm, ae_bm, rng):
    for bm in (rf_bm, ae_bm):
        scale = np.linalg.norm(bm.l0, 2)
        for sub in find_invariant_subspaces(bm):
            for t in (0.1 / scale, 1.0 / scale, 10.0 / scale):
                prop = la.expm(bm.l0 * t)
                for _ in range(20):
                    coeff = rng.normal(size=sub.n)
                    u = sub.basis_i0 @ coeff
                    u_t = prop @ u
                    assert sub.distance(u_t) <= 1e-8 * max(1.0, np.linalg.norm(u_t))


def test_jordan_chain_subspace_invariant():
    from preforge.mespec import load_catalog
    from preforge.model import vectorize

    bm = vectorize(load_catalog("resonance_fluorescence", {"gamma": 1.0, "Omega": 0.25}))
    subs = find_invariant_subspaces(bm)
    chain_subs = [s for s in subs if any("chain" in t for t in s.tags)]
    assert chain_subs
    sub = chain_subs[0]
    assert sub.n == 2
    assert np.max(np.abs(sub.basis_i0[0, :])) < 1e-10  # the x = 0 disc
    prop = la.expm(bm.l0 * 1.0)
    for coeff in np.eye(2):
        u_t = prop @ (sub.basis_i0 @ coeff)
        assert sub.distance(u_t) <= 1e-8


def test_driven_qubit_wigner_symmetry(rf_bm):
    syms = find_wigner_symmetries(rf_bm)
    assert len(syms) == 1
    w = syms[0]
    assert np.allclose(w.t0, np.diag([-1.0, 1.0, 1.0]))
    assert w.antiunitary is True
    assert w.generator is None  # no continuous component


def test_thermal_qubit_wigner_group(ae_bm):
    syms = find_wigner_symmetries(ae_bm)
    lie = [w for w in syms if w.generator is not None]
    assert len(lie) == 1
    gen = lie[0].generator
    assert np.max(np.abs(gen[2, :])) < 1e-12 and np.max(np.abs(gen[:, 2])) < 1e-12
    # arbitrary rotations about the symmetry axis certify
    for angle in (0.3, 1.1, 2.5):
        assert certify_wigner(ae_bm, lie_element(gen, angle))["certified"]
    # no flip of the polarization axis at unequal rates
    assert not any(w.t0[2, 2] < 0 for w in syms)


def test_equal_rate_thermal_qubit_gains_reflection():
    from preforge.mespec import load_catalog
    from preforge.model import vectorize

    bm = vectorize(load_catalog("absorption_emission", {"gamma_minus": 1.0, "gamma_plus": 1.0}))
    syms = find_wigner_symmetries(bm)
    assert any(np.allclose(w.t0, np.diag([1.0, 1.0, -1.0])) for w in syms)


def test_group_closure_and_inverse(ae_bm):
    syms = find_wigner_symmetries(ae_bm)
    mats = [w.t0 for w in syms][:6]
    for a in mats[:3]:
        assert certify_wigner(ae_bm, a.T)["certified"]  # inverse (orthogonal)
        for b in mats[:3]:
            assert certify_wigner(ae_bm, a @ b)["certified"]


def test_apply_wigner_rotates_equatorial_ensemble(ae_bm):
    from preforge.constraints import verify

    sols = analytic_k2(ae_bm)
    equatorial = next(
        e for e, t in zip(sols.ensembles, sols.family_tags) if t["family"] is not None
    )
    gen = next(w.generator for w in find_wigner_symmetries(ae_bm) if w.generator is not None)
    w = WignerSymmetry(t0=lie_element(gen, np.pi / 3), antiunitary=False)
    rotated = apply_wigner(w, equatorial)
    assert verify(ae_bm, rotated, tol=1e-10).passed
    assert np.allclose(rotated.kappa, equatorial.kappa)
    assert not same_ensemble(rotated, equatorial, 0.1)  # genuinely moved


def test_apply_wigner_identity_is_noop(rf_bm):
    ens = analytic_k2(rf_bm).ensembles[0]
    w = WignerSymmetry(t0=np.eye(3), antiunitary=False)
    image = apply_wigner(w, ens)
    assert same_ensemble(image, ens, 1e-14)


def test_apply_wigner_pairs_the_axis_ensemble(rf_bm):
    # The two members of the decoupled-axis ensemble swap under the flip.
    sols = analytic_k2(rf_bm)
    e1 = next(e for e, t in zip(sols.ensembles, sols.family_tags) if abs(t["eigenvalue"] + 0.5) < 1e-12)
    w = find_wigner_symmetries(rf_bm)[0]
    image = apply_wigner(w, e1)
    assert same_ensemble(image, e1, 1e-12)  # same ensemble up to relabeling
    assert np.max(np.abs(image.states[0] - e1.states[1])) < 1e-12


def test_subspace_from_span_rejects_non_invariant(rf_bm):
    with pytest.raises(SubspaceError):
        subspace_from_span(rf_bm, np.array([[0, 1.0, 0]]).T)  # drive mixes y into z


def test_subspace_from_span_checks_vector_length(rf_bm):
    for span in ([[1.0, 0.0]], [[1.0], [0.0]], [1.0, 0.0, 0.0, 0.0]):
        with pytest.raises(ShapeError, match="D\\^2-1 = 3"):
            subspace_from_span(rf_bm, span)
    # one spanning vector, given as a row, a column or a flat list
    for span in ([[1.0, 0.0, 0.0]], [[1.0], [0.0], [0.0]], [1.0, 0.0, 0.0]):
        assert subspace_from_span(rf_bm, span).n == 1


@pytest.mark.parametrize("model", ["rf", "ae", "cascade_d3"])
def test_subspace_witnesses_and_starts_are_pure_and_in_slice(model, request):
    bm = request.getfixturevalue(f"{model}_bm")
    radius_sq = pure_radius_sq(bm.dim)
    subs = find_invariant_subspaces(bm)
    assert subs
    rng = np.random.default_rng(3)
    for sub in subs:
        w = sub.pure_witness
        assert abs(w @ w - radius_sq) <= 1e-9
        assert sub.distance(w - bm.x_ss) <= 1e-8
        assert np.min(np.linalg.eigvalsh(bloch_to_rho(w, bm.basis))) >= -1e-9
        cs = build_subspace_reduced(bm, sub, 3)
        for _ in range(4):
            states, _ = cs.unpack(cs.sample_start(rng))
            assert np.max(np.abs(np.einsum("kn,kn->k", states, states) - radius_sq)) <= 1e-9


@pytest.mark.parametrize("model", ["cascade_d3", "cascade_d4"])
def test_witness_found_on_slices_through_a_pure_state(model, request):
    # Every slice x_ss + span(B) below holds the pure state psi by construction.
    bm = request.getfixturevalue(f"{model}_bm")
    radius_sq = pure_radius_sq(bm.dim)
    rng = np.random.default_rng(3)
    spans = []
    for n_sub in (2, 3, 4):
        for _ in range(6):
            psi = random_pure_ket(bm.dim, rng)
            x = rho_to_bloch(np.outer(psi, psi.conj()), bm.basis)
            cols = np.column_stack([x - bm.x_ss, rng.normal(size=(bm.n_coords, n_sub - 1))])
            spans.append(orth(cols, rcond=1e-10))
    witnesses = _pure_witnesses(bm, [(basis_i0, la.null_space(basis_i0.T)) for basis_i0 in spans])
    for basis_i0, w in zip(spans, witnesses):
        assert w is not None
        assert np.min(np.linalg.eigvalsh(bloch_to_rho(w, bm.basis))) >= -1e-9
        assert abs(w @ w - radius_sq) <= 1e-9
        u = w - bm.x_ss
        assert np.linalg.norm(u - basis_i0 @ (basis_i0.T @ u)) <= 1e-8


def _logged_subspace_search(bm, caplog):
    with caplog.at_level(logging.DEBUG, logger="preforge"):
        subs = find_invariant_subspaces(bm)
    (message,) = [r.getMessage() for r in caplog.records if "invariant subspaces" in r.getMessage()]
    parts = (part.split(" ", 1) for part in message.split(": ", 1)[1].split(", "))
    return subs, {label: int(value) for value, label in parts}


def test_subspace_search_logs_its_counts(cascade_d3_bm, caplog):
    subs, counts = _logged_subspace_search(cascade_d3_bm, caplog)
    reached = counts["witnessed by solve"] + counts["witness inherited"] + counts["no witness found"]
    assert reached == 28
    assert counts["no witness found"] == 5
    assert counts["witnessed by solve"] + counts["witness inherited"] == len(subs) == 23
    # The 10 solved slices share 3 stacks, one per level that has any.
    assert counts["witness stacks"] == 3
    assert counts["witness rows"] == WITNESS_STARTS * (counts["witnessed by solve"] + counts["no witness found"])
    # A row ends at a stationary point, and a slice once its first root is final (without these exits: 75 and 1532).
    assert counts["witness stacks"] <= counts["witness evaluations"] <= 50
    assert counts["witness rows"] <= counts["witness row evaluations"] <= 1000


def test_d4_subspace_search_logs_its_counts(cascade_d4_bm, caplog):
    subs, counts = _logged_subspace_search(cascade_d4_bm, caplog)
    assert {key: counts[key] for key in ("candidates tested", "witnessed by solve", "witness inherited",
                                         "rejected as a repeat", "no witness found", "not invariant")} == {
        "candidates tested": 750,
        "witnessed by solve": 33,
        "witness inherited": 373,
        "rejected as a repeat": 254,
        "no witness found": 344,
        "not invariant": 0,
    }
    assert len(subs) == 406
    assert counts["witness stacks"] == 5 and counts["witness rows"] == WITNESS_STARTS * 377
    assert counts["witness evaluations"] <= 180  # 230 when every row runs out


def _recorded_witness_calls(bm, monkeypatch):
    """The slice lists and LM stacks of each ``_pure_witnesses`` call of one subspace search."""
    calls, solve, lm = [], symmetry._pure_witnesses, symmetry._levenberg_marquardt

    def recording_witnesses(bm, slices, counts=None):
        calls.append((list(slices), []))
        return solve(bm, slices, counts)

    def recording_lm(cs, starts, tol, max_iter, which=None, **options):
        calls[-1][1].append((cs.n_constraints, np.array(which)))
        return lm(cs, starts, tol, max_iter, which, **options)

    monkeypatch.setattr(symmetry, "_pure_witnesses", recording_witnesses)
    monkeypatch.setattr(symmetry, "_levenberg_marquardt", recording_lm)
    find_invariant_subspaces(bm)
    monkeypatch.undo()
    return calls


def test_subspace_search_makes_one_solve_per_level(cascade_d3_bm, monkeypatch):
    calls = _recorded_witness_calls(cascade_d3_bm, monkeypatch)
    for slices, stacks in calls:
        assert len(stacks) == (1 if slices else 0)
        for n_constraints, which in stacks:
            assert np.array_equal(n_constraints, [r0.shape[1] + 1 for _, r0 in slices])
            assert np.array_equal(which, np.repeat(np.arange(len(slices)), WITNESS_STARTS))
    # Level 2 (pairs of atoms) mixes complement dimensions in its one stack.
    assert len({r0.shape[1] for _, r0 in calls[1][0]}) >= 3
    assert sum(len(stacks) for _, stacks in calls) == 3
    assert sum(len(slices) for slices, _ in calls) == 10


def test_rows_of_a_slice_without_witness_end_at_its_stationary_point(cascade_d3_bm, monkeypatch):
    # A slice is in each evaluation while any of its rows runs, so the
    # calls it is in count the evaluations of its longest-running row.
    evaluations, empty = [], []
    evaluate, solve = symmetry._KetSlice.evaluate, symmetry._pure_witnesses

    def counting_evaluate(self, theta, which):
        evaluations[-1][np.unique(which)] += 1
        return evaluate(self, theta, which)

    def recording_witnesses(bm, slices, counts=None):
        evaluations.append(np.zeros(len(slices), dtype=int))
        witnesses = solve(bm, slices, counts)
        empty.append(np.array([w is None for w in witnesses], dtype=bool))
        return witnesses

    monkeypatch.setattr(symmetry._KetSlice, "evaluate", counting_evaluate)
    monkeypatch.setattr(symmetry, "_pure_witnesses", recording_witnesses)
    find_invariant_subspaces(cascade_d3_bm)
    # Each of these slices reaches a positive minimum; until the 20-iteration
    # slow-progress patience ran out, their rows took 26-31 evaluations.
    assert empty[0].sum() == 2 and sum(m.sum() for m in empty) == 5
    for evals, missing in zip(evaluations, empty):
        assert np.all(evals[missing] <= 15)


@pytest.mark.parametrize("model", ["cascade_d3", "cascade_d4"])
def test_each_slice_keeps_the_first_root_of_a_run_whose_rows_all_run_out(model, request, monkeypatch):
    bm = request.getfixturevalue(f"{model}_bm")
    runs, lm = [], symmetry._levenberg_marquardt

    def with_full_run(cs, starts, tol, max_iter, which=None, **options):
        before = cs.counts["witness row evaluations"]
        out = lm(cs, starts, tol, max_iter, which, **options)
        middle = cs.counts["witness row evaluations"]
        full = lm(cs, starts, tol, max_iter, which)
        runs.append((out, full, middle - before, cs.counts["witness row evaluations"] - middle))
        return out

    monkeypatch.setattr(symmetry, "_levenberg_marquardt", with_full_run)
    find_invariant_subspaces(bm)
    assert runs
    for (theta, resid, failed), (full_theta, full_resid, full_failed), rows, full_rows in runs:
        root = (~failed & (np.max(np.abs(resid), axis=1) <= WITNESS_TOL)).reshape(-1, WITNESS_STARTS)
        full_root = (~full_failed & (np.max(np.abs(full_resid), axis=1) <= WITNESS_TOL)).reshape(-1, WITNESS_STARTS)
        assert np.array_equal(root.any(axis=1), full_root.any(axis=1))
        for g in np.flatnonzero(full_root.any(axis=1)):
            first = np.argmax(full_root[g])
            assert np.argmax(root[g]) == first
            row = g * WITNESS_STARTS + first
            assert theta[row].tobytes() == full_theta[row].tobytes()
            assert resid[row].tobytes() == full_resid[row].tobytes()
        assert rows <= full_rows
    # The starts after each slice's first root stop early.
    assert sum(run[2] for run in runs) < sum(run[3] for run in runs)


def _slice_through_pure_state(bm, n_sub, rng):
    """(basis_i0, basis_r0) of a slice x_ss + span(B) holding a random pure state."""
    psi = random_pure_ket(bm.dim, rng)
    x = rho_to_bloch(np.outer(psi, psi.conj()), bm.basis)
    basis_i0 = orth(np.column_stack([x - bm.x_ss, rng.normal(size=(bm.n_coords, n_sub - 1))]))
    return basis_i0, la.null_space(basis_i0.T)


def test_mixed_witness_stack_damps_each_row_by_its_own_count(cascade_d3_bm):
    # A 5-dim slice gives 4 equations in 2D = 6 unknowns (isotropic damping),
    # a 2-dim one 7 equations (More's scaling); one stack holds both.
    bm = cascade_d3_bm
    rng = np.random.default_rng(11)
    slices = [_slice_through_pure_state(bm, n_sub, rng) for n_sub in (5, 2)]
    starts = symmetry._witness_starts(bm.dim)

    def solve(members):
        ket_slice = symmetry._KetSlice(bm, [slices[i][1] for i in members], collections.Counter())
        assert np.array_equal(ket_slice.n_constraints < 2 * bm.dim, [i == 0 for i in members])
        which = np.repeat(np.arange(len(members)), WITNESS_STARTS)
        theta, resid, _ = _levenberg_marquardt(
            ket_slice, np.tile(starts, (len(members), 1)), WITNESS_TOL, WITNESS_MAX_ITER, which
        )
        return theta, resid

    theta, resid = solve([0, 1])
    for i in (0, 1):
        alone_theta, alone_resid = solve([i])
        rows = slice(i * WITNESS_STARTS, (i + 1) * WITNESS_STARTS)
        assert theta[rows].tobytes() == alone_theta.tobytes()
        assert resid[rows].tobytes() == alone_resid.tobytes()


def _clock_shift_bm(dim):
    """The fully depolarizing generator: all D^2 - 1 clock-and-shift jumps at one rate."""
    shift = np.roll(np.eye(dim), 1, axis=0)
    clock = np.diag(np.exp(2j * np.pi * np.arange(dim) / dim))
    jumps = [
        np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b)
        for a, b in itertools.product(range(dim), repeat=2)
        if a or b
    ]
    return vectorize(MasterEquation(dim, np.zeros((dim, dim)), jumps))


@pytest.mark.parametrize("dim, n_span", [(3, 1), (4, 2)])
def test_subspace_from_span_witnesses_a_span_narrower_than_d_minus_1(dim, n_span):
    # Every coherence vector is an eigenvector of the fully depolarizing
    # generator (all D^2 - 1 clock-and-shift jumps at one rate), so any span
    # is invariant.  Below D - 1 dimensions the complement is wider than any
    # the enumeration makes, and the witness stack is widened to hold it.
    bm = _clock_shift_bm(dim)
    basis_i0, basis_r0 = _slice_through_pure_state(bm, n_span, np.random.default_rng(5))
    assert basis_r0.shape[1] + 1 > bm.n_coords - dim + 2
    sub = subspace_from_span(bm, basis_i0)
    w = sub.pure_witness
    assert sub.n == n_span
    assert abs(w @ w - pure_radius_sq(dim)) <= 1e-9
    assert sub.distance(w - bm.x_ss) <= 1e-8
    assert np.min(np.linalg.eigvalsh(bloch_to_rho(w, bm.basis))) >= -1e-9


def _per_slice_forms(bm, complements):
    """Witness forms and shifts built slice by slice, one product per complement:
    its rows, then the norm row, then zero rows up to the stack's width."""
    d = bm.dim
    width = max(bm.n_coords - d + 2, *[r0.shape[1] + 1 for r0 in complements])
    forms = np.zeros((len(complements), width, 2 * d, 2 * d))
    shift = np.zeros((len(complements), width))
    for s, basis_r0 in enumerate(complements):
        herm = 0.5 * d * np.tensordot(basis_r0.T, bm.basis.traceless, axes=1)
        herm -= (basis_r0.T @ bm.x_ss)[:, None, None] * np.eye(d)
        herm = np.concatenate([herm, np.eye(d)[None]])
        re, im = herm.real, herm.imag
        forms[s, : len(herm)] = np.block([[re, -im], [im, re]])
        shift[s, len(herm) - 1] = 1.0
    return forms, shift


@pytest.mark.parametrize("model", ["cascade_d3", "clock_shift_3", "clock_shift_4"])
def test_ket_slice_forms_keep_the_per_slice_layout(model, request, monkeypatch):
    if model == "cascade_d3":  # every complement width the search makes
        bm = request.getfixturevalue("cascade_d3_bm")
        complements = [r0 for sliced, _ in _recorded_witness_calls(bm, monkeypatch) for _, r0 in sliced]
    else:  # spans from narrower than D - 1, which widens the stack, to D^2 - 2
        bm = _clock_shift_bm(int(model[-1]))
        rng = np.random.default_rng(5)
        spans = range(bm.dim - 2, bm.n_coords)
        complements = [_slice_through_pure_state(bm, n_sub, rng)[1] for n_sub in spans]
    widths = [r0.shape[1] for r0 in complements]
    assert len(set(widths)) >= 3
    d = bm.dim
    ket_slice = symmetry._KetSlice(bm, complements, collections.Counter())
    forms, shift = _per_slice_forms(bm, complements)
    assert ket_slice.forms.shape == forms.shape
    assert ket_slice.forms.shape[1] == max(bm.n_coords - d + 2, max(widths) + 1)
    assert np.array_equal(ket_slice.forms, forms)  # equal values; a padding zero may carry a sign
    assert np.array_equal(ket_slice.shift, shift)
    for s, width in enumerate(widths):
        assert np.array_equal(ket_slice.forms[s, width], np.eye(2 * d))  # the norm row
        assert not ket_slice.forms[s, width + 1 :].any()
        assert np.flatnonzero(ket_slice.shift[s]).tolist() == [width]
    # One evaluation gives what the separate residual and Jacobian einsums gave.
    rng = np.random.default_rng(7)
    which = rng.permutation(np.repeat(np.arange(len(complements)), 3))
    theta = rng.normal(size=(len(which), 2 * d))
    resid, jac = ket_slice.evaluate(theta, which)
    want_resid = np.einsum("sp,smpq,sq->sm", theta, forms[which], theta) - shift[which]
    want_jac = 2.0 * np.einsum("smpq,sq->smp", forms[which], theta)
    assert np.max(np.abs(resid - want_resid)) <= 1e-15 * np.max(np.abs(want_resid))
    assert np.max(np.abs(jac - want_jac)) <= 1e-15 * np.max(np.abs(want_jac))


class _CallRecorder:
    """Stands in for a residual system and counts the calls of each of its methods."""

    def __init__(self, inner):
        self.inner, self.calls, self.rows = inner, collections.Counter(), 0

    def __getattr__(self, name):
        value = getattr(self.inner, name)
        if not callable(value):
            return value

        def recorded(theta, *args, **kwargs):
            self.calls[name] += 1
            self.rows += len(theta)
            return value(theta, *args, **kwargs)

        return recorded


@pytest.mark.parametrize("model, evaluations, row_evaluations", [("cascade_d3", 39, 732), ("cascade_d4", 141, None)])
def test_witness_search_never_evaluates_a_separate_jacobian(model, evaluations, row_evaluations, request, monkeypatch, caplog):
    bm = request.getfixturevalue(f"{model}_bm")
    recorders, lm = [], symmetry._levenberg_marquardt

    def recording_lm(cs, *args, **options):
        recorders.append(_CallRecorder(cs))
        return lm(recorders[-1], *args, **options)

    monkeypatch.setattr(symmetry, "_levenberg_marquardt", recording_lm)
    _, counts = _logged_subspace_search(bm, caplog)
    assert recorders
    assert set().union(*(r.calls for r in recorders)) == {"evaluate"}  # no residual- or Jacobian-only call
    assert sum(r.calls["evaluate"] for r in recorders) == counts["witness evaluations"] == evaluations
    assert sum(r.rows for r in recorders) == counts["witness row evaluations"]
    if row_evaluations is not None:
        assert counts["witness row evaluations"] == row_evaluations


@pytest.mark.parametrize("model", ["cascade_d3", "cascade_d4"])
def test_stacked_witnesses_equal_per_slice_solves(model, request, monkeypatch):
    bm = request.getfixturevalue(f"{model}_bm")
    slices = [sl for sliced, _ in _recorded_witness_calls(bm, monkeypatch) for sl in sliced]
    slices = slices[:: max(1, len(slices) // 40)]  # a spread over the levels of the search
    stacked = _pure_witnesses(bm, slices)
    alone = [_pure_witnesses(bm, [sl])[0] for sl in slices]
    assert len({r0.shape[1] for _, r0 in slices}) >= 3
    assert any(w is None for w in stacked) and any(w is not None for w in stacked)
    for got, want in zip(stacked, alone):
        assert (got is None and want is None) or got.tobytes() == want.tobytes()


def test_subspace_from_span_rejects_a_slice_with_no_pure_state(cascade_d3_bm, monkeypatch):
    bm = cascade_d3_bm
    slices = [sl for sliced, _ in _recorded_witness_calls(bm, monkeypatch) for sl in sliced]
    basis_i0 = next(i0 for i0, r0 in slices if _pure_witnesses(bm, [(i0, r0)])[0] is None)
    with pytest.raises(SubspaceError, match="no pure state"):
        subspace_from_span(bm, basis_i0)


def test_state_set_sampled_only_after_algebraic_checks(cascade_d3_bm):
    bm = cascade_d3_bm
    n = bm.n_coords
    algebraic = 0
    for signs in itertools.product((1.0, -1.0), repeat=n):
        report = certify_wigner(bm, np.diag(signs))
        passed = (
            report["orthogonality"] <= 1e-10
            and max(report["commutation"], report["drift"], report["steady_state"]) <= 1e-8
        )
        algebraic += passed
        assert np.isnan(report["state_set"]) != passed
        assert report["certified"] == (passed and report["state_set"] <= 1e-8)
    assert algebraic == 8  # the identity and 7 sign flips
    assert len(find_wigner_symmetries(bm)) == 4


def _sampled_state_set(bm, t0, n_samples=200):
    """Reference state-set test: worst negative eigenvalue over seeded pure-state images."""
    rng = np.random.default_rng(bm.n_coords)
    worst = 0.0
    for _ in range(n_samples):
        psi = random_pure_ket(bm.dim, rng)
        x = rho_to_bloch(np.outer(psi, psi.conj()), bm.basis)
        worst = max(worst, -float(np.min(np.linalg.eigvalsh(bloch_to_rho(t0 @ x, bm.basis)))))
    return worst


def _depolarizing_bm(dim):
    """l0 proportional to the identity and b = 0: every (anti)unitary map is a symmetry."""
    from preforge.algebra import build_basis
    from preforge.model import MasterEquation, vectorize

    return vectorize(MasterEquation(dim, np.zeros((dim, dim)), list(build_basis(dim).traceless)))


def _coherence_map(bm, u, antiunitary):
    """Coherence-space matrix of rho -> U rho U^+ (or U rho* U^+)."""
    s = bm.basis.traceless
    images = [u @ (m.conj() if antiunitary else m) @ u.conj().T for m in s]
    return np.array([[0.5 * np.trace(si @ img).real for img in images] for si in s])


def test_structure_certificate_matches_sampled_state_test(cascade_d3_bm):
    bm = cascade_d3_bm
    rejected = 0
    for signs in itertools.product((1.0, -1.0), repeat=bm.n_coords):
        t0 = np.diag(signs)
        report = certify_wigner(bm, t0)
        algebraic = not np.isnan(report["state_set"])
        reference = algebraic and _sampled_state_set(bm, t0) <= 1e-8
        assert report["certified"] == reference
        if algebraic and not reference:
            rejected += 1
            assert report["state_set"] >= 0.5 and report["failed"] == "state_set"
    assert rejected == 4


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_haar_coherence_maps_certify_with_their_dichotomy(dim):
    bm = _depolarizing_bm(dim)
    rng = np.random.default_rng(dim)
    for antiunitary in (False, True, False, True):
        u, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        report = certify_wigner(bm, _coherence_map(bm, u, antiunitary))
        assert report["certified"], report
        assert report["state_set"] <= 1e-12
        assert report["antiunitary"] is antiunitary


@pytest.mark.parametrize("dim", [3, 4])
def test_orthogonal_map_that_is_not_jordan_fails_state_set(dim):
    bm = _depolarizing_bm(dim)
    q, _ = np.linalg.qr(np.random.default_rng(dim).normal(size=(bm.n_coords, bm.n_coords)))
    report = certify_wigner(bm, q)
    assert report["orthogonality"] <= 1e-10 and report["commutation"] <= 1e-8
    assert report["failed"] == "state_set" and report["state_set"] > 0.1
    assert not report["certified"]
    assert _sampled_state_set(bm, q) > 1e-8  # the map really leaves the state set


def _signed_permutations(n):
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1.0, -1.0), repeat=n):
            t = np.zeros((n, n))
            for row, (col, s) in enumerate(zip(perm, signs)):
                t[row, col] = s
            yield t


def test_qubit_signed_permutations_lie_in_the_reported_group(ae_bm):
    syms = find_wigner_symmetries(ae_bm)
    (gen,) = [w.generator for w in syms if w.generator is not None]
    flips = [np.eye(3)] + [w.t0 for w in syms if w.generator is None]
    plane = -gen @ gen  # projector onto the rotation plane
    certified = 0
    for t in _signed_permutations(3):
        if np.array_equal(t, np.eye(3)) or not certify_wigner(ae_bm, t)["certified"]:
            continue
        certified += 1
        matches = []
        for f in flips:
            rot = t @ f.T
            # exp(angle gen) = 1 - plane + cos(angle) plane + sin(angle) gen
            angle = np.arctan2(-np.trace(gen @ rot), np.trace(plane @ rot))
            matches.append(np.max(np.abs(lie_element(gen, angle) @ f - t)) <= 1e-12)
        assert any(matches), t
    assert certified == 7  # 3 flips and 4 swaps of the x and y axes


def test_wigner_screen_logs_its_counts(cascade_d3_bm, caplog):
    with caplog.at_level(logging.DEBUG, logger="preforge"):
        syms = find_wigner_symmetries(cascade_d3_bm)
    (message,) = [r.getMessage() for r in caplog.records if "wigner symmetries" in r.getMessage()]
    parts = (part.split(" ", 1) for part in message.split(": ", 1)[1].split(", "))
    counts = {label: int(value) for value, label in parts}
    assert counts["coupling components"] == 4 and counts["free components"] == 3
    assert counts["candidates tested"] == 2**3 - 1
    assert counts["certified"] == len([w for w in syms if w.generator is None]) == 3
    assert counts["rejected by state set"] == 4
    assert counts["rejected by commutation"] + counts["rejected by drift"] == 0
    assert counts["rejected by steady state"] == 0


_WIGNER_MODELS = ["rf_bm", "ae_bm", "cascade_d3_bm", "cascade_d4_bm"]


def _pairwise_lie_generators(bm):
    """Rotation generators built one coordinate pair at a time (reference)."""
    n = bm.n_coords
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    cols = []
    for i, j in pairs:
        a = np.zeros((n, n))
        a[i, j], a[j, i] = 1.0, -1.0
        cols.append(np.concatenate([(a @ bm.l0 - bm.l0 @ a).ravel(), a @ bm.b]))
    null = null_space(np.column_stack(cols), rcond=1e-10)
    gens = []
    for idx in range(null.shape[1]):
        a = np.zeros((n, n))
        for (i, j), value in zip(pairs, null[:, idx]):
            a[i, j], a[j, i] = value, -value
        gens.append(a / np.linalg.norm(a, 2))
    return gens


def _screen_one_by_one(bm):
    """The Wigner screen with each candidate certified alone (reference)."""
    out = []
    for g, gen in enumerate(_pairwise_lie_generators(bm)):
        t0 = lie_element(gen, symmetry.REP_ANGLE)
        report = certify_wigner(bm, t0)
        if report["certified"]:
            out.append(WignerSymmetry(t0, report["antiunitary"], f"rotation[{g}] angle={symmetry.REP_ANGLE:.6g}", gen))
    _, free = symmetry._free_components(bm)
    for signs in itertools.islice(itertools.product((1.0, -1.0), repeat=len(free)), 1, None):
        diagonal = np.ones(bm.n_coords)
        for coords, sign in zip(free, signs):
            diagonal[coords] = sign
        report = certify_wigner(bm, np.diag(diagonal))
        if report["certified"]:
            out.append(WignerSymmetry(t0=np.diag(diagonal), antiunitary=report["antiunitary"]))
    return out


def _wigner_candidates(bm):
    """A stack of certified and rejected candidates: the rotations and flips the
    screen tests, each single-coordinate flip, a seeded orthogonal map and 2 * 1."""
    n = bm.n_coords
    rotations = [lie_element(gen, symmetry.REP_ANGLE) for gen in symmetry._lie_generators(bm)]
    _, free = symmetry._free_components(bm)
    flips = []
    for signs in itertools.islice(itertools.product((1.0, -1.0), repeat=len(free)), 1, None):
        diagonal = np.ones(n)
        for coords, sign in zip(free, signs):
            diagonal[coords] = sign
        flips.append(np.diag(diagonal))
    singles = [np.diag(np.where(np.arange(n) == i, -1.0, 1.0)) for i in range(n)]
    q, _ = np.linalg.qr(np.random.default_rng(n).normal(size=(n, n)))
    return np.array(rotations + flips + singles + [q, 2.0 * np.eye(n)])


@pytest.mark.parametrize("model", _WIGNER_MODELS)
def test_stacked_wigner_reports_equal_certify_wigner_one_by_one(model, request):
    bm = request.getfixturevalue(model)
    t0s = _wigner_candidates(bm)
    reports = symmetry._wigner_reports(bm, t0s)
    assert len(reports) == len(t0s)
    outcomes = {report["failed"] for report in reports}
    assert None in outcomes and len(outcomes) >= 3  # certified and rejected candidates mixed
    for t0, report in zip(t0s, reports):
        alone = certify_wigner(bm, t0)
        assert list(report) == list(alone)
        assert repr(report) == repr(alone)  # every value, nan, None and bools included
    assert symmetry._wigner_reports(bm, np.empty((0, bm.n_coords, bm.n_coords))) == []


# (antiunitary, generator tag, flip diagonal) of each symmetry found.
_WIGNER_FOUND = {
    "rf_bm": [(True, None, [-1, 1, 1])],
    "ae_bm": [
        (False, "rotation[0] angle=1.0472", None),
        (True, None, [1, -1, 1]),
        (True, None, [-1, 1, 1]),
        (False, None, [-1, -1, 1]),
    ],
    "cascade_d3_bm": [
        (False, "rotation[0] angle=1.0472", None),
        (True, None, [1, -1, -1, -1, 1, 1, 1, 1]),
        (True, None, [-1, 1, -1, 1, -1, 1, 1, 1]),
        (False, None, [-1, -1, 1, -1, -1, 1, 1, 1]),
    ],
    "cascade_d4_bm": [
        (False, "rotation[0] angle=1.0472", None),
        (True, None, [1, -1, 1, -1, 1, -1, -1, 1, -1, 1, -1, 1, 1, 1, 1]),
        (True, None, [-1, 1, -1, -1, 1, -1, 1, -1, 1, 1, -1, 1, 1, 1, 1]),
        (False, None, [-1, -1, -1, 1, 1, 1, -1, -1, -1, 1, 1, 1, 1, 1, 1]),
    ],
}


@pytest.mark.parametrize("model", _WIGNER_MODELS)
def test_wigner_screen_equals_certifying_each_candidate_alone(model, request):
    bm = request.getfixturevalue(model)
    syms = find_wigner_symmetries(bm)
    found = [
        (w.antiunitary, w.generator_tag, None if w.generator is not None else np.diag(w.t0).astype(int).tolist())
        for w in syms
    ]
    assert found == _WIGNER_FOUND[model]
    reference = _screen_one_by_one(bm)
    assert len(syms) == len(reference)
    for got, want in zip(syms, reference):
        assert got.t0.tobytes() == want.t0.tobytes()
        assert got.antiunitary is want.antiunitary and got.generator_tag == want.generator_tag
        assert (got.generator is None and want.generator is None) or got.generator.tobytes() == want.generator.tobytes()
