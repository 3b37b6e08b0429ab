"""Adaptive measurement schemes realizing a verified ensemble.

A scheme holds one detection setting (S_k, beta_k) per ensemble member plus
a routing table saying which detector click moves the state to which member.
Member k is pinned by requiring it to be an eigenstate of the setting's
no-jump operator, while every nonzero outgoing rate kappa_jk must be matched
by detectors whose jump operators send member k exactly onto member j with
the right total weight.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm
from scipy.optimize import least_squares

from .algebra import bloch_to_rho, build_basis, coordinate_rep, rho_to_bloch
from .constraints import Ensemble
from .errors import SynthesisError
from .model import (
    MasterEquation,
    UnravellingSetting,
    apply_unravelling,
    lindbladian,
    superoperator,
    transformed_operators,
    unravelled_lindbladian,
    vectorize,
)

__all__ = [
    "AdaptiveScheme",
    "synthesize",
    "check_subspace_preservation",
    "check_wigner_scheme",
]

NO_TARGET = -1

EIGENSTATE_TOL = 1e-8
DIRECTION_TOL = 1e-8
RATE_TOL = 1e-6


@dataclass(frozen=True)
class AdaptiveScheme:
    """Per-member detection settings and detector-to-member routing.

    ``jump_map[k, m]`` is the member reached when detector m clicks while
    the system sits in member k; the member's own index marks a self-loop
    and ``NO_TARGET`` a detector whose amplitude vanishes on that member.
    """

    settings: tuple
    jump_map: np.ndarray

    @property
    def k(self) -> int:
        return len(self.settings)

    @property
    def n_detectors(self) -> int:
        return self.jump_map.shape[1]

    def jumps_and_generator(self, me: MasterEquation, k: int):
        """Transformed jump operators and no-jump operator of member k."""
        return apply_unravelling(me, self.settings[k])


def _hermitian_from_params(theta: np.ndarray, m: int) -> np.ndarray:
    h = np.zeros((m, m), dtype=complex)
    idx = 0
    for i in range(m):
        h[i, i] = theta[idx]
        idx += 1
    for i in range(m):
        for j in range(i + 1, m):
            h[i, j] = theta[idx] + 1j * theta[idx + 1]
            h[j, i] = theta[idx] - 1j * theta[idx + 1]
            idx += 2
    return h


def _setting_from_params(theta: np.ndarray, m: int, l: int, vary_s: bool):
    if vary_s:
        n_s = m * m
        s = expm(1j * _hermitian_from_params(theta[:n_s], m))[:, :l]
        rest = theta[n_s:]
    else:
        s = np.eye(m, l, dtype=complex)
        rest = theta
    beta = rest[:m] + 1j * rest[m:]
    return s, beta


def _member_residual(me, kets, k, routing, s, beta, kappa):
    """Stacked real residual of eigenstate, direction, rate and null rows."""
    jumps, h_eff = transformed_operators(me, s, beta)
    phi = kets[k]
    rows = []
    v = h_eff @ phi
    rows.append(v - (phi.conj() @ v) * phi)  # eigenstate row
    weights = {}
    for m0, target in enumerate(routing):
        w = jumps[m0] @ phi
        if target == NO_TARGET:
            rows.append(w)  # detector must stay dark on this member
            continue
        tket = kets[target]
        rows.append(w - (tket.conj() @ w) * tket)
        if target != k:
            weights[target] = weights.get(target, 0.0) + float(np.vdot(w, w).real)
    rate_rows = [weights.get(j, 0.0) - kappa[j, k] for j in range(len(kets)) if kappa[j, k] > 0]
    flat = np.concatenate([np.concatenate([r.real, r.imag]) for r in rows])
    return np.concatenate([flat, np.asarray(rate_rows)])


def _check_member(me, kets, k, routing, s, beta, kappa, rate_scale):
    """Tolerance verdicts for a candidate setting on one member."""
    jumps, h_eff = transformed_operators(me, s, beta)
    phi = kets[k]
    v = h_eff @ phi
    scale = max(np.linalg.norm(h_eff, 2), 1e-300)
    if np.linalg.norm(v - (phi.conj() @ v) * phi) > EIGENSTATE_TOL * scale:
        return False
    weights = {}
    for m0, target in enumerate(routing):
        w = jumps[m0] @ phi
        wn = np.linalg.norm(w)
        if target == NO_TARGET:
            if wn * wn > RATE_TOL * max(1.0, rate_scale):
                return False
            continue
        tket = kets[target]
        if wn > 1e-12 and np.linalg.norm(w - (tket.conj() @ w) * tket) > DIRECTION_TOL * max(
            wn, 1e-12
        ):
            return False
        if target != k:
            weights[target] = weights.get(target, 0.0) + wn * wn
    for j in range(len(kets)):
        if kappa[j, k] > 0 and abs(weights.get(j, 0.0) - kappa[j, k]) > RATE_TOL * max(
            1.0, rate_scale
        ):
            return False
    return True


def _routings(targets, k, m):
    """Detector-to-target assignments covering every required target.

    Deterministic order, simplest first: direct target assignments, then
    self-loops, then dark detectors.
    """
    options = list(targets) + [k, NO_TARGET]
    for combo in itertools.product(options, repeat=m):
        if all(any(c == t for c in combo) for t in targets):
            yield combo


def synthesize(
    me: MasterEquation,
    ens: Ensemble,
    m: int | None = None,
    beta_cap: float | None = None,
) -> AdaptiveScheme:
    """Find per-member settings realizing a verified ensemble.

    For each member the small nonlinear system in beta (and, if the identity
    mixing fails, in the detector mixing matrix) is solved by multistart
    least squares over deterministic seeds.  Oscillator amplitudes are
    capped (default ``|beta|^2 <= 10 max_l ||c_l||^2``) to keep the
    unravelling jump-like rather than diffusive.  Raises
    :class:`SynthesisError` carrying the best residual when some member
    admits no setting at tolerance.
    """
    n_channels = me.n_channels
    m = n_channels if m is None else m
    if m < n_channels:
        raise ValueError("need at least as many detectors as decoherence channels")
    kets = ens.kets()
    if beta_cap is None:
        beta_cap = np.sqrt(
            10.0 * max(np.linalg.norm(c, 2) ** 2 for c in me.lindblads)
        )
    rate_scale = float(np.max(ens.kappa))

    settings = []
    jump_map = np.full((ens.k, m), NO_TARGET, dtype=int)
    for k in range(ens.k):
        targets = [j for j in range(ens.k) if ens.kappa[j, k] > 0]
        found = None
        best_member = np.inf
        skipped = 0
        for vary_s in (False, True):
            if found:
                break
            n_theta = (m * m if vary_s else 0) + 2 * m
            for routing in _routings(targets, k, m):
                if found:
                    break
                rng = np.random.default_rng([17, k, int(vary_s), hash(routing) % (2**31)])
                starts = [np.zeros(n_theta)]
                for _ in range(24 if not vary_s else 48):
                    theta = rng.uniform(-1.0, 1.0, size=n_theta)
                    theta[-2 * m :] *= beta_cap
                    starts.append(theta)
                for theta0 in starts:
                    def residual(theta):
                        s, beta = _setting_from_params(theta, m, n_channels, vary_s)
                        return _member_residual(me, kets, k, routing, s, beta, ens.kappa)

                    try:
                        res = least_squares(residual, theta0, xtol=1e-15, ftol=1e-15,
                                            gtol=1e-15, max_nfev=400)
                    except (ValueError, np.linalg.LinAlgError):
                        skipped += 1  # non-finite residual or singular step
                        continue
                    best_member = min(best_member, float(np.max(np.abs(res.fun))))
                    s, beta = _setting_from_params(res.x, m, n_channels, vary_s)
                    if np.max(np.abs(beta)) > beta_cap + 1e-9:
                        continue
                    if _check_member(me, kets, k, routing, s, beta, ens.kappa, rate_scale):
                        found = (UnravellingSetting(s, beta), routing)
                        break
        if not found:
            raise SynthesisError(
                f"no setting found for member {k} "
                f"({skipped} starts skipped after a numerical error)",
                best_residual=best_member,
            )
        setting, routing = found
        settings.append(setting)
        jump_map[k] = _relabel_dark_detectors(me, kets[k], setting, routing, rate_scale)
    scheme = AdaptiveScheme(settings=tuple(settings), jump_map=jump_map)
    _assert_generator_invariance(me, scheme)
    return scheme


def _relabel_dark_detectors(me, phi, setting, routing, rate_scale):
    """Route detectors with vanishing click amplitude to NO_TARGET."""
    jumps, _ = transformed_operators(me, setting.s, setting.beta)
    routing = np.asarray(routing, dtype=int).copy()
    for m0, c in enumerate(jumps):
        w = c @ phi
        if float(np.vdot(w, w).real) <= 1e-12 * max(1.0, rate_scale):
            routing[m0] = NO_TARGET
    return routing


def _assert_generator_invariance(me: MasterEquation, scheme: AdaptiveScheme, tol=1e-10):
    basis = build_basis(me.dim)
    ref = coordinate_rep(lindbladian(me), basis)
    scale = max(np.linalg.norm(ref, 2), 1e-300)
    for setting in scheme.settings:
        rep = coordinate_rep(unravelled_lindbladian(me, setting), basis)
        if np.linalg.norm(rep - ref, 2) > tol * scale:
            raise SynthesisError("setting does not preserve the unconditional generator")


@dataclass
class OperationVerdict:
    member: int
    operation: str
    preserves: bool
    max_distance: float
    witness: np.ndarray | None = None


@dataclass
class PreservationReport:
    """Per-operation verdicts for invariant-subspace preservation."""

    verdicts: list = field(default_factory=list)
    preserves: bool = True

    def add(self, verdict: OperationVerdict):
        self.verdicts.append(verdict)
        self.preserves = self.preserves and verdict.preserves


def _slice_samples(bm, sub, rng, n_pure=6, n_mixed=6):
    """Pure and interior states of the invariant slice."""
    centre, r_sq = bm.pure_slice(sub.basis_i0)
    r = np.sqrt(max(r_sq, 0.0))
    samples = []
    for i in range(n_pure + n_mixed):
        direction = rng.normal(size=sub.n)
        direction /= np.linalg.norm(direction)
        radius = r if i < n_pure else r * rng.uniform(0.2, 0.9)
        samples.append(bm.x_ss + sub.basis_i0 @ (centre + radius * direction))
    if bm.dim > 2:
        basis = bm.basis
        samples = [
            x
            for x in samples
            if np.min(np.linalg.eigvalsh(bloch_to_rho(x, basis))) >= -1e-9
        ]
    return samples


def check_subspace_preservation(me: MasterEquation, scheme: AdaptiveScheme, sub) -> PreservationReport:
    """Whether every measurement operation keeps the invariant slice.

    For sampled pure and mixed states of the slice, each jump operation and
    the finite-time no-jump evolution are applied and the normalized image's
    distance to the slice compared against 1e-8; violations carry a witness
    state.
    """
    bm = vectorize(me)
    basis = bm.basis
    rng = np.random.default_rng(991)
    samples = _slice_samples(bm, sub, rng)
    report = PreservationReport()
    tau = 0.1 / max(np.linalg.norm(bm.l0, 2), 1e-300)
    for k in range(scheme.k):
        jumps, h_eff = scheme.jumps_and_generator(me, k)
        operations = [(f"jump[{m}]", ("jump", c)) for m, c in enumerate(jumps)]
        operations.append(("no-jump", ("nojump", expm(-1j * h_eff * tau))))
        for name, (kind, op) in operations:
            worst = 0.0
            witness = None
            for x in samples:
                rho = bloch_to_rho(x, basis)
                image = op @ rho @ op.conj().T
                tr = float(np.trace(image).real)
                if tr < 1e-12:
                    continue
                u_img = rho_to_bloch(image / tr, basis) - bm.x_ss
                dist = sub.distance(u_img)
                if dist > worst:
                    worst = dist
                    witness = x
            ok = worst <= 1e-8
            report.add(
                OperationVerdict(
                    member=k,
                    operation=name,
                    preserves=ok,
                    max_distance=worst,
                    witness=None if ok else witness,
                )
            )
    return report


@dataclass
class WignerSchemeReport:
    """Per-operator distances for the symmetry transfer of a scheme."""

    jump_distances: np.ndarray  # (K, M) min distance over partner detectors
    nojump_distances: np.ndarray  # (K,)
    tol: float
    passed: bool


def check_wigner_scheme(me: MasterEquation, scheme: AdaptiveScheme, w, perm) -> WignerSchemeReport:
    """Compare conjugated jump superoperators across symmetry-paired members.

    For members k and k' = perm[k] the scheme has the symmetry iff the
    matrix representation of every jump operation at k equals the
    t0-conjugated representation of a jump operation at k'; the no-jump
    generators must transfer likewise.
    """
    basis = build_basis(me.dim)
    n = me.dim * me.dim
    t_full = np.eye(n)
    t_full[: n - 1, : n - 1] = w.t0
    t_inv = np.linalg.inv(t_full)
    perm = [int(p) for p in perm]

    jump_reps = []
    nojump_reps = []
    for k in range(scheme.k):
        jumps, h_eff = scheme.jumps_and_generator(me, k)
        jump_reps.append([coordinate_rep(np.kron(c, c.conj()), basis) for c in jumps])
        nojump_reps.append(coordinate_rep(superoperator(h_eff, []), basis))
    scale = max(max(np.linalg.norm(r, 2) for reps in jump_reps for r in reps), 1e-300)
    tol = 1e-8
    jump_distances = np.empty((scheme.k, scheme.n_detectors))
    nojump_distances = np.empty(scheme.k)
    for k in range(scheme.k):
        kp = perm[k]
        for m in range(scheme.n_detectors):
            ref = jump_reps[k][m]
            best = min(
                np.linalg.norm(t_inv @ rep @ t_full - ref, 2) for rep in jump_reps[kp]
            )
            jump_distances[k, m] = best / scale
        nojump_distances[k] = np.linalg.norm(
            t_inv @ nojump_reps[kp] @ t_full - nojump_reps[k], 2
        ) / max(np.linalg.norm(nojump_reps[k], 2), 1e-300)
    passed = bool(np.all(jump_distances <= tol) and np.all(nojump_distances <= tol))
    return WignerSchemeReport(
        jump_distances=jump_distances,
        nojump_distances=nojump_distances,
        tol=tol,
        passed=passed,
    )
