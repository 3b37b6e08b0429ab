"""PRE constraint systems, ensemble validation and counting heuristics.

An ensemble of K pure states with transition rates kappa_jk >= 0 (rate of
j <- k) is physically realizable iff for every member

    L |phi_k><phi_k| = sum_j kappa_jk (|phi_j><phi_j| - |phi_k><phi_k|),

equivalently in coherence coordinates

    l0 x_k + b = sum_j kappa_jk (x_j - x_k),      |x_k|^2 = D(D-1)/2.

This module assembles that system over a chosen transition graph, in the
full coordinate space, restricted to an invariant subspace, or reduced by a
Wigner symmetry, and verifies candidate ensembles through the independent
projector-form residual.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .algebra import build_basis, pure_radius_sq, random_pure_ket, rho_to_bloch
from .errors import EnsembleError, PermutationError, SubspaceError
from .model import BlochModel

__all__ = [
    "Ensemble",
    "ConstraintSystem",
    "VerificationReport",
    "transition_edges",
    "build_full",
    "build_subspace_reduced",
    "build_wigner_reduced",
    "stack_systems",
    "validate_stack",
    "projector_residuals",
    "verify",
    "heuristic_min_k",
]

KAPPA_CLAMP = 1e-9
KAPPA_REJECT = -1e-6
PURITY_TOL = 1e-9
# Default largest projector-form residual of ``verify``, in the model's rate unit.
VERIFY_TOL = 1e-8
# A start ends at a stationary point that is no root when an accepted step
# (gain at most 2) was predicted to remove less than this share of its cost.
# Slice-witness starts that reach a positive minimum fall through 1e-4 on to
# 1e-14; multistart starts that still converge after slow stretches keep
# the share at 8e-3 and above on their accepted steps.
STATIONARY_SHARE = 1e-3


def transition_edges(graph, k: int) -> list:
    """Directed edges (j, k) carrying free rates j <- k.

    ``graph`` is ``'cyclic'`` (the single cycle k -> k+1), ``'full'``
    (all off-diagonal rates) or an explicit list of index pairs.
    """
    if k < 2:
        raise ValueError("need at least two ensemble members")
    if isinstance(graph, str):
        if graph == "cyclic":
            return [((k0 + 1) % k, k0) for k0 in range(k)]
        if graph == "full":
            return [(j, k0) for k0 in range(k) for j in range(k) if j != k0]
        raise ValueError(f"unknown graph '{graph}'")
    edges = [(int(j), int(k0)) for j, k0 in graph]
    if any(j == k0 or not (0 <= j < k) or not (0 <= k0 < k) for j, k0 in edges):
        raise ValueError("edge list contains self-loops or out-of-range indices")
    if len(set(edges)) != len(edges):
        raise ValueError("edge list contains duplicate edges")
    return edges


def is_strongly_connected(kappa: np.ndarray):
    """Whether every member reaches every other through positive rates, for
    one rate matrix (K, K) or each of a stack (..., K, K).

    Squaring the reachability matrix (A | I) doubles the path length it
    covers, so ceil(log2 K) squarings close it.
    """
    k = kappa.shape[-1]
    reach = (kappa > 0) | np.eye(k, dtype=bool)
    for _ in range((k - 1).bit_length()):
        reach = reach @ reach
    return reach.all(axis=(-2, -1))


def negative_rate(kappa: np.ndarray):
    """Whether a rate lies below ``KAPPA_REJECT`` times the largest rate, for
    one rate matrix or each of a stack."""
    return np.min(kappa, axis=(-2, -1)) < KAPPA_REJECT * np.max(kappa, axis=(-2, -1))


def clamp_rates(kappa: np.ndarray) -> np.ndarray:
    """Copy of a rate matrix, or of each of a stack, with the diagonal and
    rates below ``KAPPA_CLAMP`` times its largest rate zeroed."""
    kappa = np.array(kappa, dtype=float)
    diagonal = np.arange(kappa.shape[-1])
    kappa[..., diagonal, diagonal] = 0.0
    kappa[kappa < KAPPA_CLAMP * np.max(kappa, axis=(-2, -1), keepdims=True)] = 0.0
    return kappa


def member_projectors(basis, states: np.ndarray) -> np.ndarray:
    """Density matrices (..., D, D) of coherence vectors (..., D^2 - 1).

    Each vector is one vector-matrix product, so every matrix rounds as
    :func:`bloch_to_rho` forms it alone.
    """
    d = basis.dim
    flat = basis.traceless.reshape(d * d - 1, d * d)
    spans = (np.asarray(states, dtype=complex)[..., None, :] @ flat)[..., 0, :]
    return (np.eye(d, dtype=complex) + spans.reshape(*spans.shape[:-1], d, d)) / d


def validate_stack(basis, states: np.ndarray, kappa: np.ndarray) -> tuple:
    """Validate N candidate ensembles at once: members ``states`` (N, K, D^2-1)
    and rates ``kappa`` (N, K, K), kappa[n, j, k] = rate j <- k.

    Returns ``(reasons, kappa, occupations)``: for each row the first reason
    it fails, or None; the rates with :func:`clamp_rates` applied; and the
    stationary occupations (N, K), meaningful on rows with no reason.  The
    checks, in order: every member coordinate and every rate finite; no
    :func:`negative_rate`; member by member, on the pure-state sphere and
    mapped to a matrix with no eigenvalue below ``-PURITY_TOL``; a strongly
    connected graph; a unique stationary distribution, with no entry below
    -1e-10.  Each row's decisions and occupations are those of that row
    validated alone.
    """
    n_rows, k = kappa.shape[:2]
    reasons = [None] * n_rows
    live = np.arange(n_rows)

    def settle(bad, reason):
        """File ``reason``, one string or one per marked row, on the live rows marked ``bad``."""
        nonlocal live
        marked = live[bad].tolist()
        for i, why in zip(marked, [reason] * len(marked) if isinstance(reason, str) else reason):
            reasons[i] = why
        live = live[~bad]

    settle(~np.isfinite(states).all(axis=(1, 2)), "non-finite member coordinate")
    settle(~np.isfinite(kappa[live]).all(axis=(1, 2)), "non-finite rate")
    bad = negative_rate(kappa[live])
    settle(bad, [f"negative transition rate {np.min(kappa[i]):g}" for i in live[bad]])
    kappa = clamp_rates(kappa)
    x = states[live]
    off_sphere = np.abs(np.vecdot(x, x) - pure_radius_sq(basis.dim)) > 1e-6
    failing = off_sphere | (np.min(np.linalg.eigvalsh(member_projectors(basis, x)), axis=-1) < -PURITY_TOL)
    bad = failing.any(axis=1)
    sphere_first = off_sphere[np.arange(len(x)), np.argmax(failing, axis=1)][bad]
    settle(bad, ["member is not on the pure-state sphere" if first else "member maps to a non-positive matrix"
                 for first in sphere_first.tolist()])
    settle(~is_strongly_connected(kappa[live]), "transition graph is not strongly connected")
    rates = kappa[live]
    _, s, vh = np.linalg.svd(rates - rates.sum(axis=1)[:, None, :] * np.eye(k))
    unique = np.sum(s > 1e-10 * np.amax(s, axis=1, initial=0.0, keepdims=True), axis=1) == k - 1
    settle(~unique, "rate matrix has no unique stationary distribution")
    w = vh[unique, -1]
    w = w / w.sum(axis=1, keepdims=True)
    bad = np.min(w, axis=1) < -1e-10
    settle(bad, "stationary distribution has negative entries")
    w = np.clip(w[~bad], 0.0, None)
    occupations = np.full((n_rows, k), np.nan)
    occupations[live] = w / w.sum(axis=1, keepdims=True)
    return reasons, kappa, occupations


@dataclass(frozen=True)
class Ensemble:
    """K pure states (coherence vectors), transition rates and occupations."""

    dim: int
    states: np.ndarray  # (K, D^2 - 1)
    kappa: np.ndarray  # (K, K), kappa[j, k] = rate j <- k, zero diagonal
    occupations: np.ndarray  # (K,)

    @classmethod
    def from_states_kappa(cls, dim: int, states, kappa) -> "Ensemble":
        """States of shape (K, D^2-1) with K >= 2 and a (K, K) ``kappa`` that
        pass :func:`validate_stack`, else ``EnsembleError`` with its reason."""
        states = np.asarray(states, dtype=float)
        kappa = np.asarray(kappa, dtype=float)
        n_coords = dim * dim - 1
        if states.ndim != 2 or states.shape[1] != n_coords or states.shape[0] < 2:
            raise EnsembleError(
                f"states need shape (K, D^2-1) = (K, {n_coords}) with K >= 2, got {states.shape}"
            )
        k = states.shape[0]
        if kappa.shape != (k, k):
            raise EnsembleError(f"kappa needs shape ({k}, {k}) for {k} members, got {kappa.shape}")
        (reason,), kappa, occupations = validate_stack(build_basis(dim), states[None], kappa[None])
        if reason is not None:
            raise EnsembleError(reason)
        return cls(dim=dim, states=states, kappa=kappa[0], occupations=occupations[0])

    @property
    def k(self) -> int:
        return self.states.shape[0]

    def projectors(self, basis=None) -> np.ndarray:
        return member_projectors(build_basis(self.dim) if basis is None else basis, self.states)

    def kets(self) -> np.ndarray:
        """Member states as kets (largest-eigenvalue vectors of the projectors), (K, D).

        Computed once per ensemble and shared by every caller, so read-only.
        """
        return self._kets

    @cached_property
    def _kets(self) -> np.ndarray:
        kets = np.linalg.eigh(self.projectors())[1][..., -1].copy()
        kets.flags.writeable = False
        return kets

    def average(self) -> np.ndarray:
        return self.occupations @ self.states


@dataclass
class ConstraintSystem:
    """Residual map for candidate ensembles over a fixed transition graph.

    In units of ``bm.rate_unit``, every system solves the same core equations for
    K member vectors y_k in an n-dimensional space and one rate per graph edge (j, k):

        flow rows    L y_k + f - sum_{(j, k) in edges} kappa_jk (y_j - y_k),
        purity rows  |y_k + a|^2 - r^2.

    Member k has coherence vector ``origin + embed @ y_k``.  A reduced
    system maps its own parameters linearly onto the core parameters
    (``expand``) and keeps a subset of the core rows (``rows``).
    ``residual`` and ``jacobian`` take one parameter vector, giving (m,) and
    (m, p), or a stack of shape (S, p), giving (S, m) and (S, m, p); every
    start in a stack is evaluated independently of the others.  Systems
    with one ``stack_key`` can share a stack (:func:`stack_systems`); then
    ``which`` gives each row's system, whose L, f, a and r^2 that row uses.
    """

    bm: BlochModel
    k: int
    edges: list
    structure: dict
    lin: np.ndarray  # L, (n, n)
    drift: np.ndarray  # f, (n,)
    centre: np.ndarray  # a, (n,)
    radius_sq: float  # r^2
    embed: np.ndarray  # (D^2 - 1, n)
    origin: np.ndarray  # (D^2 - 1,)
    _sample: callable
    expand: np.ndarray | None = None  # (core params, params)
    rows: np.ndarray | None = None  # kept core rows
    notes: dict = field(default_factory=dict)

    def __post_init__(self):
        k = self.k
        # Edge e = (j, k) carries a rate from member _from[e] = k to member
        # _to[e] = j; _leaving[k, e] marks the edges out of member k and
        # _net = _leaving - (edges into each member).
        self._to = np.array([j for j, _ in self.edges], dtype=int)
        self._from = np.array([k0 for _, k0 in self.edges], dtype=int)
        self._leaving = (np.arange(k)[:, None] == self._from).astype(float)
        self._net = self._leaving - (np.arange(k)[:, None] == self._to)
        # L, f, a and r^2 with a leading system axis, shaped to broadcast
        # against member coordinates (S, K, n) once gathered per row.
        self._models = (
            self.lin[None],
            self.drift[None, None],
            self.centre[None, None],
            np.array([[self.radius_sq]], dtype=float),
        )

    @property
    def stack_key(self) -> tuple:
        """What systems sharing a stack agree on: K, edges, n and the reduction."""

        def key(a):
            return None if a is None else (a.shape, a.tobytes())

        return (self.k, tuple(self.edges), self.lin.shape[0], key(self.expand), key(self.rows))

    @property
    def n_params(self) -> int:
        if self.expand is not None:
            return self.expand.shape[1]
        return self.k * self.lin.shape[0] + len(self.edges)

    @property
    def n_constraints(self) -> int:
        if self.rows is not None:
            return len(self.rows)
        return self.k * (self.lin.shape[0] + 1)

    def _core(self, theta: np.ndarray):
        """Core parameters of a stack: member coordinates (S, K, n), rates (S, E)."""
        if self.expand is not None:
            theta = (theta[:, None, :] @ self.expand.T)[:, 0]
        n = self.lin.shape[0]
        y = theta[:, : self.k * n].reshape(-1, self.k, n)
        return y, theta[:, self.k * n :]

    def _model(self, which, s: int) -> tuple:
        """L (S, n, n), f and a (S, 1, n), r^2 (S, 1) of each row's system."""
        which = np.zeros(s, dtype=int) if which is None else which
        return tuple(a[which] for a in self._models)

    def residual(self, theta: np.ndarray, which=None) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        y, rates = self._core(np.atleast_2d(theta))
        lin, drift, centre, radius_sq = self._model(which, len(y))
        flow = y @ np.swapaxes(lin, 1, 2) + drift
        flow -= self._leaving @ (rates[:, :, None] * (y[:, self._to] - y[:, self._from]))
        shifted = y + centre
        purity = np.einsum("skn,skn->sk", shifted, shifted) - radius_sq
        out = np.concatenate([flow.reshape(len(y), -1), purity], axis=1)
        if self.rows is not None:
            out = out[:, self.rows]
        return out if theta.ndim > 1 else out[0]

    def jacobian(self, theta: np.ndarray, which=None) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        y, rates = self._core(np.atleast_2d(theta))
        s, k, n = y.shape
        lin, _, centre, _ = self._model(which, s)
        jac = np.zeros((s, k * (n + 1), k * n + rates.shape[1]))
        # Each block is written through a view of jac: rows (member, coordinate)
        # and columns (member, coordinate) or rates.
        d_states = jac[:, : k * n, : k * n].reshape(s, k, n, k, n)
        d_rates = jac[:, : k * n, k * n :].reshape(s, k, n, -1)
        d_purity = jac[:, k * n :, : k * n].reshape(s, k, k, n)
        # d(flow_k)/d(y_j) = L delta_kj + G[k, j] I_n with G from the rates.
        gmat = (self._leaving * rates[:, None, :]) @ self._net.T
        for a in range(n):
            d_states[:, :, a, :, a] = gmat
        for i in range(k):
            d_states[:, i, :, i] += lin
        diff = y[:, self._to] - y[:, self._from]
        np.multiply(-self._leaving[None, :, None, :], np.swapaxes(diff, 1, 2)[:, None], out=d_rates)
        members = np.arange(k)
        d_purity[:, members, members] = 2.0 * (y + centre)
        if self.rows is not None:
            jac = jac[:, self.rows]
        if self.expand is not None:
            jac = jac @ self.expand
        return jac if theta.ndim > 1 else jac[0]

    def unpack(self, theta: np.ndarray):
        """(states, kappa) for a parameter vector, with the rates back in the
        model's unit; for a stack (S, p), states (S, K, D^2-1) and kappa (S, K, K)."""
        theta = np.asarray(theta, dtype=float)
        y, rates = self._core(np.atleast_2d(theta))
        kappa = np.zeros((len(y), self.k, self.k))
        kappa[:, self._to, self._from] = rates * self.bm.rate_unit
        states = self.origin + y @ self.embed.T
        return (states, kappa) if theta.ndim > 1 else (states[0], kappa[0])

    def sample_start(self, rng: np.random.Generator) -> np.ndarray:
        return self._sample(rng)

    def ensemble(self, theta: np.ndarray) -> Ensemble:
        return Ensemble.from_states_kappa(self.bm.dim, *self.unpack(theta))


def stack_systems(systems: list) -> ConstraintSystem:
    """One system for a stack holding starts of every system in ``systems``.

    All of them need the same ``stack_key``.  The result is the first
    system, except that ``residual`` and ``jacobian`` evaluate row i
    against ``systems[which[i]]``.
    """
    if len({cs.stack_key for cs in systems}) != 1:
        raise ValueError("only systems with one stack_key can share a stack")
    out = copy.copy(systems[0])
    out._models = tuple(np.concatenate(parts) for parts in zip(*(cs._models for cs in systems)))
    return out


def _solve_stack(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve each (p, p) system of a stack; an exactly singular one gives NaN."""
    try:
        return np.linalg.solve(lhs, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.full_like(rhs, np.nan)
        for i, (mat, vec) in enumerate(zip(lhs, rhs)):
            try:
                out[i] = np.linalg.solve(mat, vec)
            except np.linalg.LinAlgError:
                continue  # left NaN: the caller counts the start as failed
        return out


def _levenberg_marquardt(cs, theta: np.ndarray, tol: float, max_iter: int, which=None, first_root=0):
    """Levenberg-Marquardt on a stack of starts (S, p), all iterated at once.

    ``cs`` needs ``n_constraints``, ``n_params`` and, on stacks, either
    ``residual(theta, which)`` and ``jacobian(theta, which)`` (as
    :class:`ConstraintSystem` has them) or one ``evaluate(theta, which)``
    giving both.  ``which`` (S,) gives each start's system in a stack of
    same-shape systems (:func:`stack_systems`), and goes along with every
    row handed to ``cs``; None means one system.
    ``n_constraints`` is one count for the whole stack or one per system;
    a system padded with zero rows to the stack's width gives its own
    count, so that it is damped as it would be alone.
    Each start keeps its own damping lambda (Nielsen's update from the gain
    ratio) and leaves the stack

    * when its residual is at most 1e-3 * min(tol, 1e-10), with 1e-10 the
      default search tolerance (so a looser ``tol`` only decides which
      starts count as converged, and the copies of one root still land
      together);
    * at a stationary point that is no root: an accepted step with gain
      ratio at most 2 was predicted to lower its cost by less than
      ``STATIONARY_SHARE`` of it (the ``ftol`` test of MINPACK's ``lmder``;
      More, LNM 630, 1978);
    * when no step lowers its cost any more (lambda above 1e16);
    * after ``max_iter`` residual evaluations;
    * when its linear model has promised less than a tenth of its cost for
      20 iterations in a row: it is then in a slow valley, approaching a
      local minimum or rates running off to infinity.

    With ``first_root`` = k > 0 the rows come in consecutive groups of k
    starts of one system, of which only the lowest-index root (residual at
    most ``tol``) is wanted: a group leaves the stack once that root is
    final, i.e. every start before it in the group has left, and the
    group's later starts stop where they are.
    The state of the running starts is kept compacted, and a start's row is
    written back when it leaves.  An accepted trial keeps the Jacobian that
    ``evaluate`` gave with its residual; without ``evaluate``, the Jacobian
    is evaluated after the residual, for the accepted rows only.
    Each start's damping follows its own system's count: square and
    overdetermined systems use More's scaling (running maximum of the
    squared Jacobian column norms); underdetermined ones damp isotropically,
    so steps are minimum-norm and change the rates as little as the
    equations allow.  Starts do not interact, so each result is the same
    whatever else is in the stack.  Returns the final parameters, their
    residuals and a mask of starts whose step became singular or non-finite.
    """
    theta = np.array(theta, dtype=float)
    which = np.zeros(len(theta), dtype=int) if which is None else np.asarray(which)
    # Without a joint evaluation, the Jacobian (None here) is evaluated later.
    joint = hasattr(cs, "evaluate")
    evaluate = cs.evaluate if joint else lambda theta, which: (cs.residual(theta, which), None)
    resid, jac = evaluate(theta, which)
    cost = 0.5 * np.einsum("si,si->s", resid, resid)
    failed = ~np.isfinite(cost)
    stop = 1e-3 * min(tol, 1e-10)
    size = np.max(np.abs(resid), axis=1)
    over = failed | (size <= stop)
    active = np.flatnonzero(~over)
    if not active.size:  # every start is done already
        return theta, resid, failed
    x, r, c, w = theta[active], resid[active], cost[active], which[active]  # the running rows
    jac = cs.jacobian(x, w) if jac is None else jac[active]
    scale = np.einsum("smp,smp->sp", jac, jac)
    scale[scale == 0.0] = 1.0
    n_eq = np.asarray(cs.n_constraints)
    isotropic = np.broadcast_to(n_eq[w] if n_eq.ndim else n_eq, active.shape) < cs.n_params
    scale[isotropic] = scale[isotropic].max(axis=1, keepdims=True)
    lam, nu, slow = np.full(len(active), 1e-3), np.full(len(active), 2.0), np.zeros(len(active), dtype=int)
    eye = np.eye(theta.shape[1])
    root = over & ~failed & (size <= tol)
    evals = 1  # residual evaluations so far, the same for every running row
    while active.size and max_iter > 1:
        jac_t = np.swapaxes(jac, 1, 2)
        grad = (jac_t @ r[:, :, None])[:, :, 0]
        damping = lam[:, None] * scale
        step = _solve_stack(jac_t @ jac + damping[:, :, None] * eye, -grad)
        trial = x + step
        trial_r, trial_jac = evaluate(trial, w)
        evals += 1
        trial_cost = 0.5 * np.einsum("si,si->s", trial_r, trial_r)
        finite = np.isfinite(trial_cost) & np.isfinite(step).all(axis=1)
        # Cost reduction predicted by the linear model, which is positive.
        predicted = 0.5 * np.einsum("sp,sp->s", step, damping * step - grad)
        with np.errstate(all="ignore"):  # non-finite starts are dropped below
            gain = (c - trial_cost) / predicted
            good = finite & (gain > 1e-4)
            stationary = good & (gain <= 2) & (predicted < STATIONARY_SHARE * c)
            lam = np.where(good, lam * np.maximum(1 / 3, 1 - (2 * gain - 1) ** 3), lam * nu)
        lam = np.maximum(lam, 1e-15)
        nu = np.where(good, 2.0, 2.0 * nu)
        slow = np.where(predicted < 0.1 * c, slow + 1, 0)
        np.copyto(x, trial, where=good[:, None])
        np.copyto(r, trial_r, where=good[:, None])
        np.copyto(c, trial_cost, where=good)
        if joint:
            np.copyto(jac, trial_jac, where=good[:, None, None])
            del trial_jac  # free before the next evaluation
        size = np.max(np.abs(r), axis=1)
        done = ~finite | stationary | (slow >= 20) | (lam > 1e16) | (size <= stop) | (evals >= max_iter)
        if done.any():
            if first_root:
                ended = active[done]
                over[ended] = True
                root[ended] = finite[done] & (size[done] <= tol)
                # A group is settled when its first row that is a root or still running is a root.
                groups = (root | ~over).reshape(-1, first_root)
                settled = root.reshape(-1, first_root)[np.arange(len(groups)), np.argmax(groups, axis=1)]
                done |= settled[active // first_root]
            ended = active[done]
            failed[ended], theta[ended], resid[ended] = ~finite[done], x[done], r[done]
            running = (active, x, r, c, w, good, jac, scale, isotropic, lam, nu, slow)
            active, x, r, c, w, good, jac, scale, isotropic, lam, nu, slow = (a[~done] for a in running)
        if good.any():
            if not joint:
                jac[good] = cs.jacobian(x[good], w[good])
            more = good & ~isotropic
            norms = np.einsum("smp,smp->sp", jac[more], jac[more])
            scale[more] = np.maximum(scale[more], norms)
    return theta, resid, failed


def _sample_pure_state(bm: BlochModel, rng: np.random.Generator) -> np.ndarray:
    """Coherence vector of a Haar-random ket."""
    psi = random_pure_ket(bm.dim, rng)
    return rho_to_bloch(np.outer(psi, psi.conj()), bm.basis)


def _sample_kappa(n_edges: int, scale: float, rng: np.random.Generator) -> np.ndarray:
    """Log-uniform rates between 1e-2 and 10 times ``scale`` (the norm of l0 in the rate unit)."""
    return scale * 10.0 ** rng.uniform(-2.0, 1.0, size=n_edges)


def _sample_sphere(rng: np.random.Generator, centre: np.ndarray, radius_sq: float) -> np.ndarray:
    """Uniform point on the sphere of squared radius ``radius_sq`` about ``centre``."""
    direction = rng.normal(size=centre.size)
    direction /= np.linalg.norm(direction)
    return centre + math.sqrt(radius_sq) * direction


def build_full(bm: BlochModel, k: int, graph="cyclic") -> ConstraintSystem:
    """Constraint system over the full coherence space.

    Parameters are the K member vectors plus one rate per graph edge;
    constraints are K Bloch rows of length D^2-1 plus K purity rows.
    """
    n = bm.n_coords
    edges = transition_edges(graph, k)
    scale = bm.l0_norm / bm.rate_unit

    def sample(rng):
        states = [_sample_pure_state(bm, rng) for _ in range(k)]
        return np.concatenate(states + [_sample_kappa(len(edges), scale, rng)])

    return ConstraintSystem(
        bm=bm,
        k=k,
        edges=edges,
        structure={"kind": "full"},
        lin=bm.l0 / bm.rate_unit,
        drift=bm.b / bm.rate_unit,
        centre=np.zeros(n),
        radius_sq=pure_radius_sq(bm.dim),
        embed=np.eye(n),
        origin=np.zeros(n),
        _sample=sample,
    )


def build_subspace_reduced(bm: BlochModel, sub, k: int, graph="cyclic") -> ConstraintSystem:
    """Constraint system with all members confined to an invariant subspace.

    Members are parametrized by their components along the subspace basis
    (translated by the steady state), shrinking the row count from
    K(D^2-1) + K to K(N+1).  The flow rows are exact because
    l0 x_ss + b = 0 and l0 maps the subspace into itself.
    """
    edges = transition_edges(graph, k)
    if sub.pure_witness is None:
        raise SubspaceError("subspace admits no pure state: nothing to search")
    basis_i0 = np.asarray(sub.basis_i0, dtype=float)
    n_sub = basis_i0.shape[1]
    # Pure states within the slice sit on a sphere in coefficient space.
    centre, slice_radius_sq = bm.pure_slice(basis_i0)
    scale = bm.l0_norm / bm.rate_unit

    def sample(rng):
        states = [_sample_sphere(rng, centre, slice_radius_sq) for _ in range(k)]
        return np.concatenate(states + [_sample_kappa(len(edges), scale, rng)])

    return ConstraintSystem(
        bm=bm,
        k=k,
        edges=edges,
        structure={"kind": "subspace", "n": n_sub},
        lin=basis_i0.T @ bm.l0 @ basis_i0 / bm.rate_unit,
        drift=np.zeros(n_sub),
        centre=-centre,
        radius_sq=slice_radius_sq,
        embed=basis_i0,
        origin=bm.x_ss,
        _sample=sample,
    )


def _cycles(perm: tuple) -> list:
    """Cycles of a permutation, each starting at its smallest member."""
    cycles = []
    seen = set()
    for start in range(len(perm)):
        if start in seen:
            continue
        cycle = [start]
        current = perm[start]
        while current != start:
            cycle.append(current)
            current = perm[current]
        seen.update(cycle)
        cycles.append(cycle)
    return cycles


def _perm_order(perm: tuple) -> int:
    return math.lcm(*(len(cycle) for cycle in _cycles(perm)))


def _matrix_order(t0: np.ndarray, cap: int = 64) -> int | None:
    power = t0.copy()
    for q in range(1, cap + 1):
        if np.max(np.abs(power - np.eye(t0.shape[0]))) < 1e-8:
            return q
        power = power @ t0
    return None


def build_wigner_reduced(bm: BlochModel, w, perm, k: int, graph="cyclic") -> ConstraintSystem:
    """Constraint system with members identified along symmetry orbits.

    ``perm`` assigns each member its image index under the symmetry action
    (x_{perm[k]} = t0 x_k, with matching rates).  Only one member per orbit
    is free; its residual rows imply the rest.  Orbit representatives whose
    orbit closes after s steps are confined to the fixed space of t0^s.
    The parameters map linearly onto the full system's members and rates,
    and the residual keeps the representatives' rows of the full system.
    Raises :class:`PermutationError` when ``perm`` is no permutation, its
    order is incompatible with that of t0, a fixed space is empty, or it
    maps a graph edge onto a pair outside the graph.
    """
    edges = transition_edges(graph, k)
    perm = tuple(int(p) for p in perm)
    if sorted(perm) != list(range(k)):
        raise PermutationError(f"{perm} is not a permutation of 0..{k - 1}")
    t0 = np.asarray(w.t0, dtype=float)
    order = _matrix_order(t0)
    p_order = _perm_order(perm)
    if order is not None and order % p_order != 0 and p_order % order != 0:
        raise PermutationError(
            f"permutation order {p_order} incompatible with symmetry order {order}"
        )
    orbits = _cycles(perm)
    n = bm.n_coords

    # Fixed-space bases: representative of an orbit of size s satisfies
    # t0^s x = x.  An absolute singular-value cut keeps the full space when
    # the power returns to the identity up to roundoff.
    def fixed_space(mat):
        _, s_vals, vh = np.linalg.svd(mat - np.eye(n))
        return vh[s_vals <= 1e-8].T

    fix_bases = []
    t_powers = [np.eye(n)]
    for _ in range(k + 1):
        t_powers.append(t_powers[-1] @ t0)
    for orbit in orbits:
        s = len(orbit)
        fix = fixed_space(t_powers[s])
        if fix.size == 0:
            raise PermutationError("symmetry power has no fixed space: empty orbit constraint")
        fix_bases.append(fix)

    # Rate symmetry: orbits of edges under (j, k) -> (perm[j], perm[k]),
    # each carrying one rate; an orbit must stay inside the graph.
    edge_set = set(edges)
    edge_orbit_of = {}
    edge_orbits = []
    for e in edges:
        if e in edge_orbit_of:
            continue
        orbit = [e]
        edge_orbit_of[e] = len(edge_orbits)
        current = (perm[e[0]], perm[e[1]])
        while current != e:
            if current not in edge_set:
                raise PermutationError(f"permutation maps edge {e} onto {current}, absent from the graph")
            edge_orbit_of[current] = len(edge_orbits)
            orbit.append(current)
            current = (perm[current[0]], perm[current[1]])
        edge_orbits.append(orbit)

    state_dims = [fb.shape[1] for fb in fix_bases]
    state_offsets = np.concatenate([[0], np.cumsum(state_dims)]).astype(int)
    n_state_params = int(state_offsets[-1])
    n_rate = len(edge_orbits)
    radius_sq = pure_radius_sq(bm.dim)
    # Representatives are fix @ theta; t0 fixes x_ss, so x_ss lies in every fixed
    # space and the pure representatives are the sphere |theta|^2 = slice radius_sq.
    fix_radii_sq = [bm.pure_slice(fix)[1] for fix in fix_bases]
    scale = bm.l0_norm / bm.rate_unit

    # Member k = perm^p(rep) sits at t0^p x_rep; every edge of an orbit
    # carries the orbit's rate.
    expand = np.zeros((k * n + len(edges), n_state_params + n_rate))
    for o_idx, orbit in enumerate(orbits):
        cols = slice(state_offsets[o_idx], state_offsets[o_idx + 1])
        for p, member in enumerate(orbit):
            expand[member * n : (member + 1) * n, cols] = t_powers[p] @ fix_bases[o_idx]
    for e_idx, e in enumerate(edges):
        expand[k * n + e_idx, n_state_params + edge_orbit_of[e]] = 1.0
    rows = np.concatenate([[*range(o[0] * n, o[0] * n + n), k * n + o[0]] for o in orbits])

    def sample(rng):
        theta = np.empty(n_state_params + n_rate)
        for o_idx, (fix, rad_sq) in enumerate(zip(fix_bases, fix_radii_sq)):
            point = _sample_sphere(rng, np.zeros(fix.shape[1]), rad_sq)
            theta[state_offsets[o_idx] : state_offsets[o_idx + 1]] = point
        theta[n_state_params:] = _sample_kappa(n_rate, scale, rng)
        return theta

    return ConstraintSystem(
        bm=bm,
        k=k,
        edges=edges,
        structure={
            "kind": "wigner",
            "perm": perm,
            "n_orbits": len(orbits),
            "orbits": orbits,
        },
        lin=bm.l0 / bm.rate_unit,
        drift=bm.b / bm.rate_unit,
        centre=np.zeros(n),
        radius_sq=radius_sq,
        embed=np.eye(n),
        origin=np.zeros(n),
        _sample=sample,
        expand=expand,
        rows=rows,
        notes={"edge_orbits": edge_orbits, "fix_dims": state_dims},
    )


@dataclass
class VerificationReport:
    """Outcome of the projector-form check of a candidate ensemble."""

    residuals: np.ndarray
    max_residual: float
    kappa_min: float
    strongly_connected: bool
    occupations: np.ndarray
    ensemble_average_error: float
    tol: float
    passed: bool

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status}: max residual {self.max_residual:.3e} (tol {self.tol:.1e}), "
            f"min rate {self.kappa_min:.3e}, "
            f"connected={self.strongly_connected}, "
            f"average error {self.ensemble_average_error:.3e}"
        )


def projector_residuals(basis, liou: np.ndarray, states: np.ndarray, kappa: np.ndarray) -> np.ndarray:
    """Projector-form residuals of N candidate ensembles, (N, K).

    Entry (n, k) is || L P_k - sum_j kappa_jk (P_j - P_k) ||_F for the
    member projectors P of row n, with ``liou`` the generator on row-major
    vec(rho), one (D^2, D^2) for every row or one per row (N, D^2, D^2).
    Each product L P_k is its own matrix-vector product, the rate terms add
    up in member order and each norm is two dot products, so every row
    rounds as it does evaluated alone.
    """
    proj = member_projectors(basis, states)
    n_rows, k, d, _ = proj.shape
    lhs = (liou[..., None, :, :] @ proj.reshape(n_rows, k, d * d, 1))[..., 0]
    rhs = np.zeros_like(proj)
    for j in range(k):
        rhs = rhs + kappa[:, j, :, None, None] * (proj[:, j, None] - proj)
    diff = lhs - rhs.reshape(n_rows, k, d * d)
    return np.sqrt(np.vecdot(diff.real, diff.real) + np.vecdot(diff.imag, diff.imag))


def verify(bm: BlochModel, ens: Ensemble, tol: float = VERIFY_TOL) -> VerificationReport:
    """Check an ensemble against the projector-form condition.

    This path evaluates the generator on the member projectors directly and
    is independent of the coherence-space residual used by the solvers.  It
    passes when the largest residual is at most the report's ``tol``, ``tol * bm.rate_unit``:
    purity, positivity, rates and connectivity were checked when the ensemble was built.
    """
    residuals = projector_residuals(bm.basis, bm.liouvillian, ens.states[None], ens.kappa[None])[0]
    max_residual, tol = float(residuals.max()), tol * bm.rate_unit
    return VerificationReport(
        residuals=residuals,
        max_residual=max_residual,
        kappa_min=float(ens.kappa[~np.eye(ens.k, dtype=bool)].min()),
        strongly_connected=bool(is_strongly_connected(ens.kappa)),
        occupations=ens.occupations,
        ensemble_average_error=float(np.linalg.norm(ens.average() - bm.x_ss)),
        tol=tol,
        passed=bool(max_residual <= tol),
    )


def heuristic_min_k(d: int, real_subspace: bool = False) -> int:
    """Parameter-counting lower bound on the ensemble size.

    ``d*d - 2*d + 2`` in general; restricting states and matrices to real
    values halves the leading coefficient, giving ``ceil((d*d - d + 2)/2)``.
    """
    if d < 2:
        raise ValueError("dimension must be at least 2")
    if real_subspace:
        return math.ceil((d * d - d + 2) / 2)
    return d * d - 2 * d + 2
