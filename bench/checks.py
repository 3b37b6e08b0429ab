"""Workload checks: the program's outputs against the oracle.

Each ``check_*`` function takes what a workload produced (a search bundle,
a scan CSV, trajectory results, detected symmetries) and returns a list of
failure messages; an empty list means every check passed.  The reference
values all come from :mod:`oracle`, never from a stored copy of an earlier
output.
"""

from __future__ import annotations

import csv
import io

import numpy as np

import oracle

RESIDUAL_TOL = 1e-8
MATCH_TOL = 1e-6
PLANE_TOL = 1e-7
THRESHOLD = 1.0 / 18.0
THRESHOLD_TOL = 0.005
OCCUPANCY_SLACK = 5e-3
DRIFT_TOL = 1e-6
UNCONDITIONAL_TOL = 5e-3
SYMMETRY_TOL = 1e-8


def _check_member_set(gen, rho_ss, states, kappa, occupations, label) -> list:
    """Realizability, rates, purity and steady-state average of one ensemble."""
    fails = []
    residual = float(np.max(oracle.projector_residuals(gen, states, kappa)))
    if residual > RESIDUAL_TOL:
        fails.append(f"{label}: projector residual {residual:.3e} > {RESIDUAL_TOL:g}")
    if np.min(kappa) < 0:
        fails.append(f"{label}: negative rate {np.min(kappa):.3e}")
    if not oracle.strongly_connected(kappa):
        fails.append(f"{label}: transition graph not strongly connected")
    for k, x in enumerate(states):
        rho = oracle.bloch_to_rho(x)
        purity = np.trace(rho @ rho).real
        if abs(purity - 1.0) > RESIDUAL_TOL or np.min(np.linalg.eigvalsh(rho)) < -RESIDUAL_TOL:
            fails.append(f"{label}: member {k} is not a pure state (purity {purity:.12f})")
    weights = oracle.stationary(kappa)
    if np.max(np.abs(weights - occupations)) > RESIDUAL_TOL:
        fails.append(f"{label}: occupations {occupations} differ from stationary {weights}")
    average = sum(w * oracle.bloch_to_rho(x) for w, x in zip(weights, states))
    err = np.linalg.norm(average - rho_ss)
    if err > RESIDUAL_TOL:
        fails.append(f"{label}: occupation-weighted average misses the steady state by {err:.3e}")
    return fails


def check_search(doc: dict, k: int, gamma: float, omega: float) -> list:
    """A resonance-fluorescence search bundle at K=2 or K=3."""
    gen = oracle.liouvillian(*oracle.resonance_fluorescence(gamma, omega))
    rho_ss = oracle.steady_state(gen)
    found = [
        (np.asarray(e["states"], float), np.asarray(e["kappa"], float), np.asarray(e["occupations"], float))
        for e in doc["results"]["ensembles"]
    ]
    fails = []
    for i, (states, kappa, occ) in enumerate(found):
        fails += _check_member_set(gen, rho_ss, states, kappa, occ, f"K={k} ensemble {i}")
    if k == 2:
        expected = oracle.rf_k2_ensembles(gamma, omega)
        if len(found) != len(expected):
            fails.append(f"K=2 census {len(found)}, closed form gives {len(expected)}")
        unmatched = list(range(len(found)))
        for lam, states, kappa in expected:
            dists = [oracle.ensemble_distance(states, kappa, *found[i][:2]) for i in unmatched]
            if not dists or min(dists) > MATCH_TOL:
                best = min(dists) if dists else np.inf
                fails.append(f"K=2 closed-form pair at eigenvalue {lam:.6f} unmatched (distance {best:.3e})")
            else:
                unmatched.pop(int(np.argmin(dists)))
    elif k == 3:
        if len(found) != 8:
            fails.append(f"K=3 census {len(found)}, expected 8")
        in_plane = [f for f in found if np.max(np.abs(f[0][:, 0])) <= PLANE_TOL]
        off_plane = [f for f in found if np.max(np.abs(f[0][:, 0])) > PLANE_TOL]
        if len(in_plane) != 4:
            fails.append(f"K=3: {len(in_plane)} ensembles in the x=0 plane, expected 4")
        flip = np.array([-1.0, 1.0, 1.0])
        for i, (states, kappa, _) in enumerate(off_plane):
            if not any(
                oracle.ensemble_distance(states * flip, kappa, s, q) <= MATCH_TOL
                for s, q, _ in off_plane
            ):
                fails.append(f"K=3: off-plane ensemble {i} has no partner under x -> -x")
    return fails


def check_scan(csv_text: str, expected_values) -> list:
    """Counts 2 below 1/18 and 0 above, with one change within 0.005 of it."""
    rows = list(csv.reader(io.StringIO(csv_text)))
    values = np.array([float(r[0]) for r in rows[1:]])
    counts = np.array([int(r[1]) for r in rows[1:]])
    fails = []
    if values.shape != np.shape(expected_values) or np.max(np.abs(values - expected_values)) > 1e-9:
        return [f"scan grid {values.tolist()} differs from the requested one"]
    for v, c in zip(values, counts):
        want = 2 if v < THRESHOLD else 0
        if c != want:
            fails.append(f"scan: {c} ensembles at {v:g}, expected {want}")
    changes = [0.5 * (a + b) for a, b, m, n in zip(values, values[1:], counts, counts[1:]) if m != n]
    if len(changes) != 1 or abs(changes[0] - THRESHOLD) > THRESHOLD_TOL:
        fails.append(f"scan: count changes at {changes}, expected one within {THRESHOLD_TOL} of 1/18")
    return fails


def check_simulation(betas, stats, report, states, kappa, psi0, gamma: float, omega: float) -> list:
    """Adaptive scheme, jump statistics and unconditional average of a K=2 ensemble."""
    fails = []
    for k, beta in enumerate(betas):
        if abs(beta.real) > 1e-6 or abs(abs(beta) - 0.5 * np.sqrt(gamma)) > 1e-6:
            fails.append(f"member {k}: oscillator amplitude {beta:.6f} is not i*sqrt(gamma)/2 up to sign")
    weights = oracle.stationary(kappa)
    sigma = np.sqrt(weights[0] * weights[1] / stats.n_jumps)
    err = abs(stats.occupancy[0] - weights[0])
    if err > 3 * sigma + OCCUPANCY_SLACK:
        fails.append(f"occupancy error {err:.3e} > 3 sigma {3 * sigma:.3e} + {OCCUPANCY_SLACK:g}")
    if stats.max_state_drift > DRIFT_TOL:
        fails.append(f"pre-click drift {stats.max_state_drift:.3e} > {DRIFT_TOL:g}")
    gen = oracle.liouvillian(*oracle.resonance_fluorescence(gamma, omega))
    rho0 = np.outer(psi0, np.conj(psi0))
    for t, avg in zip(report.times, report.averages):
        dist = np.linalg.norm(avg - oracle.evolve(gen, rho0, t))
        if dist > UNCONDITIONAL_TOL:
            fails.append(f"unconditional average at t={t:.4g} is {dist:.3e} from exp(Lt) rho0")
    return fails


def check_symmetries(subspaces, symmetries, h, jumps) -> list:
    """Invariant subspaces and Wigner symmetries of a model against its generator."""
    gen = oracle.liouvillian(h, jumps)
    l0, _, x_ss = oracle.bloch_generator(gen)
    scale = np.linalg.norm(l0, 2)
    n = l0.shape[0]
    fails = []
    projectors = []
    for i, sub in enumerate(subspaces):
        basis = np.asarray(sub.basis_i0, float)
        proj = basis @ np.linalg.pinv(basis)
        leak = np.linalg.norm((np.eye(n) - proj) @ l0 @ basis, 2)
        if leak > SYMMETRY_TOL * scale:
            fails.append(f"subspace {i}: generator leaks {leak:.3e} out of it")
        witness = sub.pure_witness
        if witness is None:
            fails.append(f"subspace {i}: no pure state reported")
        else:
            off_slice = np.linalg.norm((np.eye(n) - proj) @ (witness - x_ss))
            rho = oracle.bloch_to_rho(witness)
            purity = np.trace(rho @ rho).real
            negative = np.min(np.linalg.eigvalsh(rho)) < -SYMMETRY_TOL
            if off_slice > SYMMETRY_TOL or abs(purity - 1) > SYMMETRY_TOL or negative:
                fails.append(f"subspace {i}: witness is not a pure state of the slice")
        if any(np.max(np.abs(p - proj)) <= SYMMETRY_TOL for p in projectors):
            fails.append(f"subspace {i}: duplicate of an earlier one")
        projectors.append(proj)
    for i, w in enumerate(symmetries):
        t0 = np.asarray(w.t0, float)
        if np.max(np.abs(t0.T @ t0 - np.eye(n))) > SYMMETRY_TOL:
            fails.append(f"symmetry {i}: not orthogonal")
        if np.linalg.norm(t0 @ l0 - l0 @ t0, 2) > SYMMETRY_TOL * scale:
            fails.append(f"symmetry {i}: does not commute with the generator")
        if np.linalg.norm(t0 @ x_ss - x_ss) > SYMMETRY_TOL:
            fails.append(f"symmetry {i}: moves the steady state")
    phase = oracle.phase_generator(3, 0)
    generators = [np.asarray(w.generator, float) for w in symmetries if w.generator is not None]
    # distance from the phase generator to its projection on each reported generator
    if not any(
        np.linalg.norm(phase - np.sum(phase * g) / np.sum(g * g) * g) <= SYMMETRY_TOL * np.linalg.norm(phase)
        for g in generators
    ):
        fails.append("phase rotation diag(e^ia, 1, 1) is in the span of no reported generator")
    flip = oracle.coherence_map(np.diag([1.0, 1.0, -1.0]).astype(complex), antiunitary=True)
    if not any(
        np.max(np.abs(np.asarray(w.t0) - flip)) <= SYMMETRY_TOL for w in symmetries if w.generator is None
    ):
        fails.append("antiunitary map diag(1, 1, -1) o conjugation is not among the discrete symmetries")
    return fails
