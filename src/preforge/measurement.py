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
from dataclasses import dataclass

import numpy as np

from .algebra import block_leak, build_basis, coordinate_rep, null_space, orth
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

_log = logging.getLogger("preforge")

NO_TARGET = -1

EIGENSTATE_TOL = 1e-8
DIRECTION_TOL = 1e-8
RATE_TOL = 1e-6
PRESERVATION_TOL = 1e-8


@dataclass(frozen=True)
class AdaptiveScheme:
    """Per-member detection settings and detector-to-member routing.

    ``jump_map[k, m]`` is the member reached when detector m clicks while
    the system sits in member k; the member's own index marks a self-loop
    and ``NO_TARGET`` a detector whose amplitude vanishes on that member.
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


def _check_member(me, kets, k, routing, s, beta, kappa, rate_scale):
    """Tolerance verdicts for a candidate setting on one member.

    Rates are judged to ``RATE_TOL * max(max_l ||c_l||^2, rate_scale)``.
    """
    rate_tol = RATE_TOL * max(_model_scale(me), rate_scale)
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
            if wn * wn > rate_tol:
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
        if kappa[j, k] > 0 and abs(weights.get(j, 0.0) - kappa[j, k]) > rate_tol:
            return False
    return True


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
    to ``NO_TARGET``.  Each member must pass :func:`_check_member` with
    ``|beta|^2 <= 10 max_l ||c_l||^2``, else :class:`SynthesisError` carries
    its residual.  Rates are judged to ``RATE_TOL`` times the larger of
    max_l ||c_l||^2 and the largest rate, so in the model's own time unit.
    Per-member eigenvector and Gram residuals, sigma and detector counts go
    to ``diagnostics`` and the ``preforge`` debug log.
    """
    kets = ens.kets()
    model_scale, rate_scale = _model_scale(me), float(np.max(ens.kappa))
    beta_cap = np.sqrt(10.0 * model_scale)
    sigma_tol = RATE_TOL * max(model_scale, rate_scale)
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
        residual, amplitude = max(eigen_residual, gram), np.max(np.abs(beta))
        if amplitude > beta_cap + 1e-9 or not _check_member(
            me, kets, k, jump_map[k], s, beta, ens.kappa, rate_scale
        ):
            raise SynthesisError(
                f"no setting found for member {k}: residual {residual:.3e}, "
                f"|beta| {amplitude:.3g} (cap {beta_cap:.3g})",
                best_residual=residual,
            )
        settings.append(UnravellingSetting(s, beta))
    _log.debug("synthesis: %d detectors; per member (eigen residual, Gram residual, sigma, "
               "detectors): %s", m, [tuple(d.values()) for d in diagnostics])
    scheme = AdaptiveScheme(tuple(settings), jump_map, tuple(diagnostics))
    _assert_generator_invariance(me, scheme)
    return scheme


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
