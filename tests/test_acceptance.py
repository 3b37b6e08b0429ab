"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Criteria are pinned to their stated tolerances; the heavy censuses,
thresholds and trajectory closures run at full scale here rather than in
the unit suites.
"""

import time

import numpy as np
import pytest

from preforge.algebra import build_basis, eig_full, pure_radius_sq, random_density_matrix
from preforge.algebra import bloch_to_rho, rho_to_bloch
from preforge.constraints import (
    Ensemble,
    build_full,
    build_subspace_reduced,
    heuristic_min_k,
    verify,
)
from preforge.measurement import check_subspace_preservation, check_wigner_scheme, synthesize
from preforge.mespec import load_catalog
from preforge.model import UnravellingSetting, apply_unravelling, lindbladian, superoperator, vectorize
from preforge.solver import (
    SolverConfig,
    analytic_k2,
    dedup,
    ensemble_distance,
    family_equivalent,
    scan_existence,
    solve_numeric,
    solve_wigner_family,
)
from preforge.symmetry import (
    CERT_TOL,
    certify_wigner,
    find_invariant_subspaces,
    find_wigner_symmetries,
    subspace_from_span,
)
from preforge.trajectory import TrajectoryConfig, simulate, unconditional_check

GAMMA = 1.0
OMEGA = 0.18
G_MINUS = 1.0
G_PLUS = 0.3
EQUATOR_GEN = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


def _report(index, ok, detail):
    print(f"\nACCEPTANCE {index}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {index}: {detail}"


@pytest.fixture(scope="module")
def rf():
    me = load_catalog("resonance_fluorescence", {"gamma": GAMMA, "Omega": OMEGA})
    return me, vectorize(me)


@pytest.fixture(scope="module")
def ae():
    me = load_catalog("absorption_emission", {"gamma_minus": G_MINUS, "gamma_plus": G_PLUS})
    return me, vectorize(me)


def test_criterion_1_vectorization_oracle(rf, ae):
    start = time.perf_counter()
    _, rf_bm = rf
    l0_rf = np.array(
        [[-GAMMA / 2, 0, 0], [0, -GAMMA / 2, -OMEGA], [0, OMEGA, -GAMMA]]
    )
    b_rf = np.array([0.0, 0.0, -GAMMA])
    xss_rf = np.array([0.0, 2 * GAMMA * OMEGA, -GAMMA**2]) / (GAMMA**2 + 2 * OMEGA**2)
    _, ae_bm = ae
    gs, gd = G_MINUS + G_PLUS, G_PLUS - G_MINUS
    l0_ae = -gs * np.diag([0.5, 0.5, 1.0])
    b_ae = np.array([0.0, 0.0, gd])
    xss_ae = np.array([0.0, 0.0, gd / gs])

    def rel(a, b):
        return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300)

    worst = max(
        rel(rf_bm.l0, l0_rf),
        rel(rf_bm.b, b_rf),
        rel(rf_bm.x_ss, xss_rf),
        rel(ae_bm.l0, l0_ae),
        rel(ae_bm.b, b_ae),
        rel(ae_bm.x_ss, xss_ae),
    )
    elapsed = time.perf_counter() - start
    _report(
        1,
        worst <= 1e-12 and elapsed < 1.0,
        f"max relative deviation {worst:.3e} (tol 1e-12), {elapsed:.2f}s",
    )


def test_criterion_2_k2_census(rf):
    start = time.perf_counter()
    me, bm = rf
    analytic = analytic_k2(bm)
    numeric = solve_numeric(build_full(bm, 2, "cyclic"), SolverConfig(seeds=512, rng_seed=0))
    ok = len(analytic.ensembles) == 3 and len(numeric.ensembles) == 3
    worst_resid = 0.0
    worst_match = 0.0
    for ens in analytic.ensembles + numeric.ensembles:
        worst_resid = max(worst_resid, verify(bm, ens).max_residual)
    for ens in numeric.ensembles:
        worst_match = max(
            worst_match, min(ensemble_distance(ens, ref) for ref in analytic.ensembles)
        )
    ok = ok and worst_resid <= 1e-10 and worst_match <= 1e-6
    bm_fast = vectorize(load_catalog("resonance_fluorescence", {"gamma": GAMMA, "Omega": 0.5}))
    analytic_fast = analytic_k2(bm_fast)
    numeric_fast = solve_numeric(
        build_full(bm_fast, 2, "cyclic"), SolverConfig(seeds=512, rng_seed=0)
    )
    ok = ok and len(analytic_fast.ensembles) == 1 and len(numeric_fast.ensembles) == 1
    elapsed = time.perf_counter() - start
    _report(
        2,
        ok and elapsed < 30.0,
        f"census 3/3 at drive 0.18 and 1/1 at 0.5, residual {worst_resid:.2e}, "
        f"analytic-numeric distance {worst_match:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_k3_census_stability(rf):
    start = time.perf_counter()
    _, bm = rf
    cs = build_full(bm, 3, "cyclic")
    counts = []
    disc_counts = []
    last = None
    for seed in range(10):
        sols = solve_numeric(cs, SolverConfig(seeds=512, rng_seed=seed))
        counts.append(len(sols.ensembles))
        disc_counts.append(
            sum(1 for e in sols.ensembles if np.max(np.abs(e.states[:, 0])) <= 1e-7)
        )
        last = sols
    # the off-disc solutions pair up under the coherence flip
    from preforge.symmetry import WignerSymmetry, apply_wigner

    flip = WignerSymmetry(t0=np.diag([-1.0, 1.0, 1.0]), antiunitary=True)
    paired = True
    off_disc = [e for e in last.ensembles if np.max(np.abs(e.states[:, 0])) > 1e-7]
    for ens in off_disc:
        image = apply_wigner(flip, ens)
        paired = paired and any(
            ensemble_distance(image, other) <= 1e-6 for other in off_disc
        )
    elapsed = time.perf_counter() - start
    ok = counts == [8] * 10 and disc_counts == [4] * 10 and paired and elapsed < 600.0
    _report(
        3,
        ok,
        f"counts {sorted(set(counts))}, in-disc {sorted(set(disc_counts))} across 10 rng seeds, "
        f"off-disc solutions flip-paired: {paired}, {elapsed:.0f}s",
    )


def test_criterion_4_threshold_scan():
    start = time.perf_counter()
    span = np.array([[1.0, 0, 0], [0, 0, 1.0]]).T

    def bm_at(ratio):
        return vectorize(
            load_catalog("absorption_emission", {"gamma_minus": 1.0, "gamma_plus": ratio})
        )

    table = scan_existence(
        bm_at,
        np.arange(0.02, 0.1001, 0.005),
        lambda bm: build_subspace_reduced(bm, subspace_from_span(bm, span), 3, "cyclic"),
        SolverConfig(seeds=256, rng_seed=0),
        parameter="rate-ratio",
        quotient_generator=EQUATOR_GEN,
    )
    below = [int(c) for v, c in table.rows() if v < 1 / 18]
    above = [int(c) for v, c in table.rows() if v > 1 / 18]
    ok = all(c == 2 for c in below) and all(c == 0 for c in above)
    ok = ok and len(table.thresholds) == 1 and abs(table.thresholds[0] - 1 / 18) <= 0.005
    elapsed = time.perf_counter() - start
    _report(
        4,
        ok and elapsed < 600.0,
        f"2 ensembles below and 0 above, threshold {table.thresholds[0]:.4f} "
        f"(target {1 / 18:.4f} +/- 0.005), {elapsed:.0f}s",
    )


def test_criterion_5_symmetric_linear_families(ae):
    start = time.perf_counter()
    _, bm = ae
    gs = G_MINUS + G_PLUS
    fam3 = solve_wigner_family(bm, 3)
    rates3 = np.asarray(fam3.family_tags[0]["rates_out"])
    ok = len(fam3.ensembles) == 1 and np.max(np.abs(rates3 - gs / 6)) <= 1e-12
    fam4 = solve_wigner_family(bm, 4)
    ok = ok and len(fam4.ensembles) >= 1
    for tag in fam4.family_tags:
        r2, r3, r4 = tag["rates_out"]
        ok = ok and abs(r2 - r4) <= 1e-10 and abs(r2 + r3 - gs / 4) <= 1e-10
    worst = 0.0
    for k in range(2, 9):
        fam = solve_wigner_family(bm, k)
        ok = ok and len(fam.ensembles) >= 1
        for ens in fam.ensembles:
            report = verify(bm, ens, tol=1e-10)
            worst = max(worst, report.max_residual)
            ok = ok and report.passed
    elapsed = time.perf_counter() - start
    _report(
        5,
        ok and elapsed < 5.0,
        f"K=3 rates {rates3.tolist()} = total/6, K=4 line verified, "
        f"K=2..8 residual {worst:.2e} (tol 1e-10), {elapsed:.2f}s",
    )


def test_criterion_6_heuristic_table():
    expected = {
        (2, False): 2,
        (3, False): 5,
        (4, False): 10,
        (5, False): 17,
        (6, False): 26,
        (2, True): 2,
        (3, True): 4,
        (4, True): 7,
        (5, True): 11,
        (6, True): 16,
    }
    mismatches = {
        key: (heuristic_min_k(d, real), want)
        for (d, real), want in expected.items()
        for key in [(d, real)]
        if heuristic_min_k(d, real) != want
    }
    _report(6, not mismatches, f"all 10 minimum-size entries reproduced ({mismatches or 'exact'})")


def test_criterion_7_defective_generator():
    start = time.perf_counter()
    bm = vectorize(load_catalog("resonance_fluorescence", {"gamma": 1.0, "Omega": 0.25}))
    spec = eig_full(bm.l0)
    defective = [c for c in spec.clusters if c.defective]
    ok = spec.defective and len(defective) == 1
    cluster = defective[0]
    e2 = np.array([0.0, 1.0, 1.0]) / np.sqrt(2)
    vec = cluster.vectors[:, 0].real
    ok = ok and min(np.linalg.norm(vec - e2), np.linalg.norm(vec + e2)) <= 1e-8
    ordinary = {round(c.value.real, 9): c for c in spec.clusters}
    e1 = ordinary[-0.5].vectors[:, 0].real
    ok = ok and min(np.linalg.norm(e1 - [1, 0, 0]), np.linalg.norm(e1 + [1, 0, 0])) <= 1e-8
    chain = cluster.jordan_chains[0]
    ok = ok and len(chain) == 2 and abs(chain[1][0]) <= 1e-8  # generalized vector in x = 0
    subs = find_invariant_subspaces(bm)
    disc = [
        s
        for s in subs
        if s.n == 2 and np.max(np.abs(s.basis_i0[0, :])) < 1e-10 and s.certificate <= 1e-8
    ]
    ok = ok and bool(disc)
    elapsed = time.perf_counter() - start
    _report(
        7,
        ok and elapsed < 1.0,
        f"defect detected with ordinary eigenvectors on the expected axes, rank-2 "
        f"generalized vector in the x=0 plane, invariant disc certified, {elapsed:.2f}s",
    )


def test_criterion_8_scheme_and_trajectory_closure(rf):
    start = time.perf_counter()
    me, bm = rf
    sols = analytic_k2(bm)
    ens = next(
        e for e, t in zip(sols.ensembles, sols.family_tags) if abs(t["eigenvalue"] + 0.5) < 1e-12
    )
    scheme = synthesize(me, ens)
    betas = [s.beta[0] for s in scheme.settings]
    ok = abs(betas[0] + betas[1]) <= 1e-10
    ok = ok and all(abs(b.real) <= 1e-6 and abs(abs(b) - 0.5 * np.sqrt(GAMMA)) <= 1e-6 for b in betas)

    stats = simulate(me, scheme, ens, TrajectoryConfig(n_jumps=100_000, rng_seed=3))
    ok = ok and stats.max_state_drift <= 1e-6
    # three-sigma band from the visit statistics of the two-state cycle
    n = stats.n_jumps
    sigma = np.sqrt(ens.occupations[0] * ens.occupations[1] / n)
    occ_err = abs(stats.occupancy[0] - ens.occupations[0])
    ok = ok and occ_err <= 3 * sigma + 5e-3

    report = unconditional_check(
        me,
        scheme,
        TrajectoryConfig(rng_seed=11, t_max=2.0 / GAMMA),
        psi0=ens.kets()[0],
        n_trajectories=2000,
    )
    ok = ok and report.passed and report.distances.max() <= 5e-3
    elapsed = time.perf_counter() - start
    _report(
        8,
        ok and elapsed < 300.0,
        f"oscillator amplitudes {betas[0]:.6f}/{betas[1]:.6f} (imaginary, half sqrt-rate), "
        f"occupancy error {occ_err:.2e} vs 3-sigma {3 * sigma:.2e}, drift "
        f"{stats.max_state_drift:.2e}, unconditional distance {report.distances.max():.2e} "
        f"(tol 5e-3), {elapsed:.0f}s",
    )


def test_criterion_9_symmetry_checks(rf, ae):
    start = time.perf_counter()
    me, bm = rf
    ae_me, ae_bm = ae
    flip = np.diag([-1.0, 1.0, 1.0])
    ok = certify_wigner(bm, flip)["certified"]
    lie = [w for w in find_wigner_symmetries(ae_bm) if w.generator is not None]
    ok = ok and len(lie) == 1

    sols = analytic_k2(bm)
    by_lam = {round(t["eigenvalue"], 6): e for e, t in zip(sols.ensembles, sols.family_tags)}
    axis_scheme = synthesize(me, by_lam[-0.5])
    u_axis = subspace_from_span(bm, np.array([[1.0, 0, 0]]).T)
    ok = ok and not check_subspace_preservation(me, axis_scheme, u_axis).preserves

    rebit = subspace_from_span(bm, np.array([[0, 1.0, 0], [0, 0, 1.0]]).T)
    k3 = solve_numeric(
        build_subspace_reduced(bm, rebit, 3, "cyclic"), SolverConfig(seeds=64, rng_seed=1)
    ).ensembles[0]
    k3_scheme = synthesize(me, k3)
    real_amplitudes = all(abs(s.beta[0].imag) < 1e-8 for s in k3_scheme.settings)
    ok = ok and real_amplitudes and check_subspace_preservation(me, k3_scheme, rebit).preserves

    from preforge.symmetry import WignerSymmetry

    flip_sym = WignerSymmetry(t0=flip, antiunitary=True)
    ok = ok and check_wigner_scheme(me, axis_scheme, flip_sym, [1, 0]).passed
    for lam in (-0.923494, -0.576506):
        scheme = synthesize(me, by_lam[lam])
        ok = ok and not check_wigner_scheme(me, scheme, flip_sym, [1, 0]).passed
    elapsed = time.perf_counter() - start
    _report(
        9,
        ok and elapsed < 60.0,
        "flip certified, planar rotation family certified, slice-preservation and "
        f"symmetry-transfer verdicts reproduced, {elapsed:.1f}s",
    )


def test_criterion_10_property_suites(rf, ae):
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    me, bm = rf
    ae_me, ae_bm = ae
    ok = True

    # round trip and purity bridge, 1000 cases each
    basis = build_basis(2)
    for _ in range(1000):
        rho = random_density_matrix(2, rng)
        x = rho_to_bloch(rho, basis)
        ok = ok and np.max(np.abs(bloch_to_rho(x, basis) - rho)) <= 1e-12
        ok = ok and abs(np.trace(rho @ rho).real - (0.5 + 0.5 * (x @ x))) <= 1e-12

    # generator invariance under detection settings, 1000 pointwise cases
    cases = 0
    for model in (me, ae_me):
        liou = lindbladian(model)
        n_l = model.n_channels
        for _ in range(50):
            q, _ = np.linalg.qr(
                rng.normal(size=(n_l, n_l)) + 1j * rng.normal(size=(n_l, n_l))
            )
            setting = UnravellingSetting(q, rng.normal(size=n_l) + 1j * rng.normal(size=n_l))
            other = superoperator(*apply_unravelling(model, setting)[::-1])
            for _ in range(10):
                rho = random_density_matrix(2, rng)
                vec = rho.ravel()
                ok = ok and np.max(np.abs(liou @ vec - other @ vec)) <= 1e-10
                cases += 1
    ok = ok and cases == 1000

    # residual equivalence between evaluation routes, 1000 cases
    cs = build_full(bm, 2, "cyclic")
    radius = np.sqrt(pure_radius_sq(2))
    for _ in range(1000):
        states = rng.normal(size=(2, 3))
        states = radius * states / np.linalg.norm(states, axis=1, keepdims=True)
        kappa = np.zeros((2, 2))
        kappa[1, 0], kappa[0, 1] = rng.uniform(0.05, 2.0, size=2)
        ens = Ensemble.from_states_kappa(2, states, kappa)
        report = verify(bm, ens)
        resid = cs.residual(np.concatenate([states.ravel(), [kappa[1, 0], kappa[0, 1]]]))
        for k in range(2):
            bloch_norm = np.linalg.norm(resid[k * 3 : (k + 1) * 3])
            ok = ok and abs(report.residuals[k] - np.sqrt(2) / 2 * bloch_norm) <= 1e-12

    # dedup idempotence over 1000 randomized ensembles in small batches
    total = 0
    while total < 1000:
        batch = []
        for _ in range(4):
            states = rng.normal(size=(2, 3))
            states = radius * states / np.linalg.norm(states, axis=1, keepdims=True)
            kappa = np.zeros((2, 2))
            kappa[1, 0], kappa[0, 1] = rng.uniform(0.1, 1.0, size=2)
            batch.append(Ensemble.from_states_kappa(2, states, kappa))
            total += 1
        if rng.random() < 0.5:
            batch.append(
                Ensemble.from_states_kappa(
                    2, batch[0].states[::-1], batch[0].kappa[::-1, ::-1].copy()
                )
            )
        once = dedup(batch, eps=1e-9)
        twice = dedup(once, eps=1e-9)
        ok = ok and len(once) == 4 and len(twice) == 4
    elapsed = time.perf_counter() - start
    _report(
        10,
        ok,
        f"round-trip, purity-bridge, setting-invariance, residual-equivalence and "
        f"dedup-idempotence suites over 1000 cases each, {elapsed:.0f}s",
    )


def test_criterion_11_d4_subspace_detection(cascade_d4_bm):
    bm = cascade_d4_bm
    start = time.perf_counter()
    subs = find_invariant_subspaces(bm)
    elapsed = time.perf_counter() - start
    radius_sq = pure_radius_sq(bm.dim)
    ok = len(subs) >= 44
    for sub in subs:
        w = sub.pure_witness
        ok = ok and sub.certificate <= CERT_TOL
        ok = ok and abs(w @ w - radius_sq) <= 1e-9 and sub.distance(w - bm.x_ss) <= 1e-8
        ok = ok and np.min(np.linalg.eigvalsh(bloch_to_rho(w, bm.basis))) >= -1e-9
    _report(
        11,
        ok and elapsed < 60.0,
        f"D=4 cascade: {len(subs)} invariant subspaces, each certified with a pure "
        f"witness in its slice, {elapsed:.1f}s",
    )


def test_criterion_12_d4_wigner_detection(cascade_d4_bm):
    bm = cascade_d4_bm
    start = time.perf_counter()
    syms = find_wigner_symmetries(bm)
    elapsed = time.perf_counter() - start
    ok = len(syms) == 4
    for w in syms:
        ok = ok and certify_wigner(bm, w.t0)["certified"] and isinstance(w.antiunitary, bool)
    _report(
        12,
        ok and elapsed <= 2.0,
        f"D=4 cascade: {len(syms)} Wigner symmetries, each certified with its "
        f"unitary/antiunitary type decided, {elapsed:.2f}s",
    )
