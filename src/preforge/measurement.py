"""Adaptive measurement schemes realizing a verified ensemble.

A scheme holds one detection setting (S_k, beta_k) per ensemble member plus
a routing table saying which detector click moves the state to which member.
Every physically realizable ensemble has one (Wiseman & Vaccaro, PRL 87,
240402 (2001)), and it is built in closed form: member phi is an eigenstate
of the no-jump operator iff a condition linear in the oscillator shift
holds, after which the click columns [c'_m phi] and the target columns
[sqrt(kappa_jk) phi_j] have the same Gram matrix, so one SVD gives the
detector mixing.  The detector count is derived: the most any member needs.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .algebra import block_leak, build_basis, coordinate_rep, null_space, orth
from .constraints import Ensemble
from .errors import RealizationError, SynthesisError
from .model import MasterEquation, UnravellingSetting, apply_unravelling, lindbladian, superoperator, vectorize

__all__ = [
    "AdaptiveScheme",
    "Realization",
    "certify",
    "synthesize",
    "check_subspace_preservation",
    "check_wigner_scheme",
]

_log = logging.getLogger("preforge")

NO_TARGET = -1

# The tolerance rule of :func:`certify`.  The closure certificate is a
# coherence distance D ||psi - phi <phi|psi>||, and CLOSURE_TOL is a ket error
# of 1e-8 on a qubit; rates pass within RATE_TOL of the rate scale (:func:`_rate_tol`).
CLOSURE_TOL = 2e-8
RATE_TOL = 1e-6
# Exit rates below this fraction of the largest member's (in the certificate),
# or decay rates below this fraction of ||H'_eff|| (in the click engine), count as dark.
DARK_TOL = 1e-12
PRESERVATION_TOL = 1e-8


@dataclass(frozen=True)
class AdaptiveScheme:
    """Per-member detection settings and detector-to-member routing.

    ``jump_map[k, m]`` is the member reached when detector m clicks while
    the system sits in member k.  The member's own index marks a self-loop,
    and so does ``NO_TARGET``: such a click keeps member k, so :func:`certify`
    checks it like any self-loop (the post-click ket must be phi_k) and counts
    it in k's exit rate but in no rate kappa_jk.  :func:`synthesize` routes
    to ``NO_TARGET`` only the detectors whose amplitude vanishes on member k.
    ``diagnostics`` holds one dict per member from :func:`synthesize`.
    """

    settings: tuple
    jump_map: np.ndarray
    diagnostics: tuple = ()

    @property
    def k(self) -> int:
        return len(self.settings)

    @property
    def n_detectors(self) -> int:
        return self.jump_map.shape[1]

    @property
    def next_labels(self) -> np.ndarray:
        """The member after each click: ``jump_map`` with ``NO_TARGET`` keeping the member."""
        return np.where(self.jump_map == NO_TARGET, np.arange(self.k)[:, None], self.jump_map)

    def jumps_and_generator(self, me: MasterEquation, k: int):
        """Transformed jump operators and no-jump operator of member k."""
        return apply_unravelling(me, self.settings[k])


def _model_scale(me) -> float:
    """max_l ||c_l||_2^2: the model's own rate scale."""
    return max(np.linalg.norm(c, 2) ** 2 for c in me.lindblads)


def _rate_tol(me, kappa) -> float:
    """RATE_TOL times the rate scale max(max_l ||c_l||_2^2, max kappa), in the model's own time unit."""
    return RATE_TOL * max(_model_scale(me), float(np.max(kappa)))


def _coherence_distance(psi, phi) -> float:
    """Coherence-vector distance of two pure unit kets, D * ||psi - phi <phi|psi>||."""
    return psi.size * float(np.linalg.norm(psi - phi * np.vdot(phi, psi)))


@dataclass(frozen=True)
class Realization:
    """The per-member realization facts of a scheme on an ensemble, and their verdicts, from :func:`certify`."""

    weights: np.ndarray  # (K, M) ||c'_m phi_k||^2 under member k's setting
    rates: np.ndarray  # (K,) exit rates, 0 for a dark member
    next_labels: np.ndarray  # (K, M) the member after each click
    closure: np.ndarray  # (K,) closure certificates, 0 for a dark member
    rate_mismatch: np.ndarray  # (K,) max over j != k of |sum_{m -> j} weights[k, m] - kappa_jk|
    generator_defect: np.ndarray  # (K,) ||L_k - L||_F for the generator L_k rebuilt from member k's operators
    realized: np.ndarray  # (K,) each member's verdict on all three facts
    drift: float  # the scheme's closure certificate, the largest member's
    closed: bool  # whether the drift passes, which keeps the chain on the member kets


def certify(me: MasterEquation, scheme: AdaptiveScheme, ens: Ensemble) -> Realization:
    """Every per-member realization fact of ``scheme`` on ``ens``, from one build of each member's operators.

    Member k's closure certificate is the largest of its no-jump residual
    D ||(1 - phi phi^dagger) H'_eff phi_k|| over one mean wait 1/r_k and of
    the coherence distance from its next member (k itself for ``NO_TARGET``)
    of each c'_m phi_k / sqrt(r_k), a post-click ket weighted by the square
    root of its detector's probability.  A member whose exit rate r_k is
    below ``DARK_TOL`` of the largest never clicks and has none.  The one
    tolerance rule: the closure certificate, a relative distance, passes at
    most ``CLOSURE_TOL``; the rate mismatch and the generator defect (on
    row-major vec(rho)) are rates and pass at most ``RATE_TOL`` times the
    rate scale max(max_l ||c_l||^2, max kappa).  A scheme whose settings,
    routing rows or targets do not fit the ensemble raises :class:`RealizationError`.
    """
    k_members, routes = ens.k, scheme.jump_map
    if (
        scheme.k != k_members
        or routes.shape[:-1] != (k_members,)
        or {setting.n_detectors for setting in scheme.settings} != {routes.shape[-1]}
        or not np.all((routes >= NO_TARGET) & (routes < k_members))  # NO_TARGET is -1
    ):
        raise RealizationError(
            f"scheme of {scheme.k} settings with routing of shape {routes.shape} does not fit an ensemble of "
            f"{k_members} members: it needs a setting and a routing row per member, targets in 0..{k_members - 1}"
        )
    kets = ens.kets().astype(complex)
    ops = [scheme.jumps_and_generator(me, k) for k in range(k_members)]
    amps = np.array([np.asarray(jumps) @ phi for (jumps, _), phi in zip(ops, kets)])
    weights = np.sum(np.abs(amps) ** 2, axis=2)
    rates = weights.sum(axis=1)
    lit = rates > DARK_TOL * rates.max()
    next_labels = scheme.next_labels
    closure = np.zeros(k_members)
    for k in np.flatnonzero(lit):
        closure[k] = max(
            _coherence_distance(ops[k][1] @ kets[k], kets[k]) / rates[k],
            *(_coherence_distance(a / math.sqrt(rates[k]), kets[j]) for a, j in zip(amps[k], next_labels[k])),
        )
    flow = np.zeros((k_members, k_members))
    np.add.at(flow, (next_labels, np.arange(k_members)[:, None]), weights)
    mismatch = np.max(np.abs(flow - ens.kappa) * ~np.eye(k_members, dtype=bool), axis=0)
    ref = lindbladian(me)
    defect = np.array([np.linalg.norm(superoperator(h_eff, jumps) - ref) for jumps, h_eff in ops])
    rate_tol = _rate_tol(me, ens.kappa)
    drift = float(closure.max())
    return Realization(
        weights, np.where(lit, rates, 0.0), next_labels, closure, mismatch, defect,
        realized=(closure <= CLOSURE_TOL) & (mismatch <= rate_tol) & (defect <= rate_tol),
        drift=drift,
        closed=drift <= CLOSURE_TOL,
    )


def _member_fit(me, kets, k, kappa, sigma_tol):
    """Shift b, self-loop weight sigma, click and target columns of member k.

    phi is an eigenvector of H'_eff iff (1 - phi phi^dag)(H_eff - i sum_l
    conj(b_l) c_l) phi = 0.  On that affine set W W^dag = sum_j kappa_jk
    phi_j phi_j^dag + sigma phi phi^dag, sigma = |b + a|^2 - rho^2 with
    a_l = <phi|c_l phi>, for the click columns W = [(c_l + b_l) phi].  A
    free b goes on the sphere sigma = 0 nearest the min-norm solution or, if
    the set misses that sphere, to the set's point nearest -a.
    """
    phi = kets[k]
    cphi = np.array([c @ phi for c in me.lindblads]).T
    proj = np.eye(me.dim) - np.outer(phi, phi.conj())
    lhs, rhs = -1j * proj @ cphi, -proj @ (me.effective_hamiltonian() @ phi)
    b_min = np.linalg.lstsq(lhs, rhs, rcond=1e-10)[0].conj()
    null = null_space(lhs, rcond=1e-10).conj()
    a = phi.conj() @ cphi
    rho_sq = kappa[:, k].sum() - np.sum(np.abs(proj @ cphi) ** 2)
    b = b_min - null @ (null.conj().T @ (b_min + a))
    gap = rho_sq - np.sum(np.abs(b + a) ** 2)
    if null.shape[1] and gap > sigma_tol:
        toward = b_min - b
        norm = np.linalg.norm(toward)
        b = b + np.sqrt(gap) * (toward / norm if norm > 1e-12 else null[:, 0])
    sigma = float(np.sum(np.abs(b + a) ** 2) - rho_sq)
    sigma = 0.0 if abs(sigma) <= sigma_tol else sigma
    w = cphi + np.outer(phi, b)
    if sigma < 0:  # an oscillator-only detector direction
        w = np.column_stack([w, np.sqrt(-sigma) * phi])
    labels = [j for j in range(len(kets)) if j != k and kappa[j, k] > 0]
    cols = [np.sqrt(kappa[j, k]) * kets[j] for j in labels]
    if sigma > 0:
        labels.append(k)
        cols.append(np.sqrt(sigma) * phi)
    eigen_residual = float(np.linalg.norm(lhs @ b.conj() - rhs))
    return b, sigma, w, np.array(cols).T.reshape(me.dim, -1), labels, eigen_residual


def _aligned_targets(w, cols, labels, kets, m):
    """Target columns padded to m and their routing; a column that a click
    column already points at is placed and phased to face it."""
    out = np.zeros((w.shape[0], m), dtype=complex)
    routing = np.full(m, NO_TARGET, dtype=int)
    free = list(range(len(labels)))
    for i, wi in enumerate(w.T):
        for t in free:
            ket = kets[labels[t]]
            overlap = np.vdot(ket, wi)
            if abs(overlap) > 1e-12 and np.linalg.norm(wi - overlap * ket) <= 1e-6 * abs(overlap):
                out[:, i], routing[i] = cols[:, t] * overlap / abs(overlap), labels[t]
                free.remove(t)
                break
    slots = [i for i in range(m) if routing[i] == NO_TARGET]
    for i, t in zip(slots, free):
        out[:, i], routing[i] = cols[:, t], labels[t]
    return out, routing


def synthesize(me: MasterEquation, ens: Ensemble) -> AdaptiveScheme:
    """Per-member settings realizing a verified ensemble, in closed form.

    With the click columns W and target columns Phi of :func:`_member_fit`
    padded to M columns, the polar factor U of W^dag Phi gives S = U[:L]^T
    and beta = S b (+ sqrt(-sigma) U[L] for an oscillator-only detector).
    M is the most detectors any member needs; the rest stay dark and route
    to ``NO_TARGET``.  A self-loop weight sigma within the rate tolerance of
    :func:`certify` counts as none.  Each member must be realized by the
    certificate of :func:`certify` and have ``|beta|^2 <= 10 max_l
    ||c_l||^2``, else :class:`SynthesisError` carries its residual.
    Per-member eigenvector and Gram residuals, sigma and detector counts go
    to ``diagnostics`` and the ``preforge`` debug log.
    """
    kets = ens.kets()
    beta_cap = np.sqrt(10.0 * _model_scale(me))
    sigma_tol = _rate_tol(me, ens.kappa)
    fits = [_member_fit(me, kets, k, ens.kappa, sigma_tol) for k in range(ens.k)]
    m = max(max(w.shape[1], cols.shape[1]) for _, _, w, cols, _, _ in fits)
    settings, diagnostics = [], []
    jump_map = np.empty((ens.k, m), dtype=int)
    for k, (b, sigma, w, cols, labels, eigen_residual) in enumerate(fits):
        x = np.zeros((me.dim, m), dtype=complex)
        x[:, : w.shape[1]] = w
        phi_cols, jump_map[k] = _aligned_targets(w, cols, labels, kets, m)
        p, _, qh = np.linalg.svd(x.conj().T @ phi_cols)
        u = p @ qh  # polar factor: x @ u = phi_cols when their Gram matrices agree
        s = u[: me.n_channels].T
        beta = s @ b + (np.sqrt(-sigma) * u[me.n_channels] if sigma < 0 else 0)
        gram = float(np.linalg.norm(x @ x.conj().T - phi_cols @ phi_cols.conj().T, 2))
        diagnostics.append({"eigen_residual": eigen_residual, "gram_residual": gram,
                            "sigma": sigma, "detectors": max(w.shape[1], cols.shape[1])})
        settings.append(UnravellingSetting(s, beta))
    scheme = AdaptiveScheme(tuple(settings), jump_map, tuple(diagnostics))
    realized = certify(me, scheme, ens).realized
    for k, (setting, diag) in enumerate(zip(settings, diagnostics)):
        residual, amplitude = max(diag["eigen_residual"], diag["gram_residual"]), np.max(np.abs(setting.beta))
        if amplitude > beta_cap + 1e-9 or not realized[k]:
            raise SynthesisError(f"no setting found for member {k}: residual {residual:.3e}, |beta| "
                                 f"{amplitude:.3g} (cap {beta_cap:.3g})", best_residual=residual)
    _log.debug("synthesis: %d detectors; per member (eigen residual, Gram residual, sigma, "
               "detectors): %s", m, [tuple(d.values()) for d in diagnostics])
    return scheme


@dataclass
class OperationVerdict:
    member: int
    operation: str
    preserves: bool
    leak: float  # block_leak of the operation out of the slice's state cone


@dataclass
class PreservationReport:
    """Per-operation verdicts for invariant-subspace preservation."""

    verdicts: list

    @property
    def preserves(self) -> bool:
        return all(v.preserves for v in self.verdicts)


def _operation_reps(me: MasterEquation, scheme: AdaptiveScheme, basis) -> list:
    """Per member, the ``coordinate_rep`` of each jump operation c rho c^dag
    and of the no-jump generator -i(H_eff rho - rho H_eff^dag)."""
    reps = []
    for k in range(scheme.k):
        jumps, h_eff = scheme.jumps_and_generator(me, k)
        reps.append((
            [coordinate_rep(np.kron(c, c.conj()), basis) for c in jumps],
            coordinate_rep(superoperator(h_eff, []), basis),
        ))
    return reps


def check_subspace_preservation(me: MasterEquation, scheme: AdaptiveScheme, sub) -> PreservationReport:
    """Whether every measurement operation keeps the invariant slice, decided exactly.

    In ``coordinate_rep`` coordinates (x, Tr rho) the unnormalized states of
    the slice x_ss + span(basis_i0) span V = span{(x_ss, 1), (basis_i0, 0)}:
    the steady state is full rank, so the states near it fill the slice.  A
    linear operation keeps the slice iff its representation maps V into V.
    For a jump that is the representation of c kron conj(c); the normalized
    no-jump evolution keeps it for every waiting time iff its generator
    does.  Each verdict compares :func:`block_leak` out of V with
    ``PRESERVATION_TOL``.
    """
    bm = vectorize(me)
    cone = orth(np.vstack([np.column_stack([bm.x_ss, sub.basis_i0]), np.eye(1, sub.n + 1)]))
    outside = null_space(cone.T)
    verdicts = []
    for k, (jump_reps, nojump_rep) in enumerate(_operation_reps(me, scheme, bm.basis)):
        names = [f"jump[{m}]" for m in range(len(jump_reps))] + ["no-jump"]
        for name, rep in zip(names, jump_reps + [nojump_rep]):
            leak = block_leak(rep, cone, outside)
            verdicts.append(OperationVerdict(k, name, leak <= PRESERVATION_TOL, leak))
    return PreservationReport(verdicts)


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
    n = me.dim * me.dim
    t_full = np.eye(n)
    t_full[: n - 1, : n - 1] = w.t0
    t_inv = np.linalg.inv(t_full)
    perm = [int(p) for p in perm]
    jump_reps, nojump_reps = zip(*_operation_reps(me, scheme, build_basis(me.dim)))
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
