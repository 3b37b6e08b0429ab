"""Jump trajectories of an adaptive scheme: the certified member chain and an exact click engine.

A scheme that pins its ensemble makes the conditioned state a K-state jump
chain on the member kets.  Member phi_k is then an eigenvector of its
setting's H'_eff, so it waits an exponential time at exit rate
r_k = sum_m ||c'_m phi_k||^2, detector m clicks with probability
||c'_m phi_k||^2 / r_k, and the post-click ket is member ``jump_map[k][m]``
(a ``NO_TARGET`` detector keeps the label).  :func:`simulate` reads these
facts from :func:`preforge.measurement.certify` and samples the chain exactly
with arrays (Gillespie, J. Comput. Phys. 22, 403 (1976)).

:func:`unconditional_check` starts from any ket and runs the waiting-time
Monte Carlo wavefunction method (Dalibard, Castin & Molmer, PRL 68, 580
(1992); Plenio & Knight, RMP 70, 101 (1998)) on one :class:`_ClickEngine`
that stacks all of the scheme's settings.  The unnormalized state follows
exp(-i H'_eff tau) psi between detections, and its squared norm N(tau) is
the probability of no click yet: each wait solves N(tau) = u for u uniform
in (0, 1], detector m is picked with weight ||c'_m psi||^2, and the routing
table switches the setting, so each click round is one engine call on kets
with mixed settings, and one pass of rounds serves every checkpoint.
Propagation uses the eigendecomposition of H'_eff, or a matrix exponential
when it is defective or nearly so.  Neither path steps in time, so there is
no step size and no discretization bias.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import bloch_to_rho, build_basis, coordinate_rep, exp_flow, expm, orth, rho_to_bloch
from .constraints import Ensemble
from .errors import ConvergenceError, RealizationError
from .measurement import DARK_TOL, AdaptiveScheme, certify
from .model import MasterEquation, lindbladian

__all__ = [
    "TrajectoryConfig",
    "TrajectoryStats",
    "member_click_rates",
    "simulate",
    "unconditional_check",
]

# Eigenvector condition number above which H'_eff counts as defective: the
# eigenbasis loses about cond(V) ulps of the norm N(tau), the expm path none.
_DEFECTIVE_COND = 1e4
# Waiting times beyond this many units of 1/||H'_eff|| count as no click.
_TAU_CAP = 1e15
# Root-finder tolerance on log N(tau) - log u, and its iteration budget.
_LOG_TOL = 1e-13
_MAX_ITER = 200
# Uniform draws taken at once from each unconditional-check trajectory's
# stream: the first wait and three clicks, each click drawing r and u.
_DRAW_BLOCK = 8
# Trajectories run in lockstep at once; a batch keeps 16D + 24 bytes per click.
_LOCKSTEP_ROWS = 4096
# Clicks that ``simulate`` discards before it records statistics.
BURN_IN_JUMPS = 20
# Width, in standard errors, of the unconditional check's sampling band, and
# the numerical floor added to it.
UNCONDITIONAL_Z = 4.0
_BAND_FLOOR = 1e-9


@dataclass(frozen=True)
class TrajectoryConfig:
    """Stopping target and random stream; ``t_max`` None or inf is no time limit."""

    t_max: float | None = None
    n_jumps: int | None = None
    rng_seed: int = 0

    def __post_init__(self):
        if self.t_max is not None and not self.t_max > 0:
            raise ValueError(f"time limit must be positive, got {self.t_max}")
        if self.t_max == math.inf:
            object.__setattr__(self, "t_max", None)
        if self.n_jumps is not None:
            _check_count(self.n_jumps, "jump count")


def _check_count(value, what: str):
    if not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{what} must be positive and an integer, got {value!r}")


@dataclass
class TrajectoryStats:
    """Time-resolved statistics accumulated after burn-in."""

    occupancy: np.ndarray  # fraction of time per member label
    jump_counts: np.ndarray  # (K, K), off-diagonal transitions j <- k
    self_loop_counts: np.ndarray  # (K,)
    max_state_drift: float
    n_jumps: int
    total_time: float
    exit_rates: np.ndarray  # (K,) exact, from the realization certificate
    events: list = field(default_factory=list)  # (time, channel, from, to)


class _ClickEngine:
    """Exact no-jump propagation and click sampling for all of a scheme's settings.

    Built from one ``(jumps, h_eff)`` pair per setting label, a setting with
    fewer detectors padded with zero detectors, which never click.  Each
    method takes a stack of kets, one per row, with each row's label.
    """

    def __init__(self, settings):
        self.h = np.array([h for _, h in settings], dtype=complex)
        k, dim, _ = self.h.shape
        self.jumps = np.zeros((k, max(len(jumps) for jumps, _ in settings), dim, dim), dtype=complex)
        self.lam, self.v = np.linalg.eig(self.h)
        scale = np.maximum(np.linalg.norm(self.h, 2, axis=(1, 2)), 1e-300)
        self.tau_unit = 1.0 / scale
        # Eigenvectors that never decay are annihilated by every jump operator
        # and orthogonal to all decaying (generalized) eigenvectors, so the
        # no-jump norm tends to the weight of psi on their span: the rows of
        # ``dark`` are an orthonormal basis of it, conjugated and zero-padded.
        dark = self.lam.imag >= -DARK_TOL * scale[:, None]
        self.vinv, self.dark = np.zeros_like(self.v), np.zeros_like(self.v)
        self.exp_h = {}  # label -> exp_flow of a defective setting, which propagates row by row
        for i, (jumps, _) in enumerate(settings):
            self.jumps[i, : len(jumps)] = jumps
            if np.linalg.cond(self.v[i]) <= _DEFECTIVE_COND:
                self.vinv[i] = np.linalg.inv(self.v[i])
            else:
                self.exp_h[i] = exp_flow(-1j * self.h[i])
            basis = orth(self.v[i][:, dark[i]])
            self.dark[i, : basis.shape[1]] = basis.conj().T
        self.defective = np.isin(np.arange(k), list(self.exp_h))
        self.dark = self.dark if dark.any() else None

    def coefficients(self, psi, label):
        """Rows of psi in the form ``propagate`` reads: eigen-coordinates, or psi itself."""
        coeffs = _apply(self.vinv.take(label, 0), psi)
        if self.exp_h:
            at = self.defective[label]
            coeffs[at] = psi[at]
        return coeffs

    def propagate(self, psi, label, tau, coeffs=None):
        """exp(-i H'_eff tau_n) psi_n, unnormalized, for each row n, from the rows' ``coefficients`` if given."""
        coeffs = self.coefficients(psi, label) if coeffs is None else coeffs
        # ``take`` gathers the rows' settings faster than fancy indexing does.
        out = _apply(self.v.take(label, 0), np.exp(-1j * tau[:, None] * self.lam.take(label, 0)) * coeffs)
        if self.exp_h:
            for row in np.flatnonzero(self.defective[label]):
                out[row] = self.exp_h[label[row]](tau[row]) @ coeffs[row]
        return out

    def wait(self, psi, label, u, coeffs=None):
        """Waiting times tau_n with N(tau_n) = u_n in (0, 1], for the unit kets ``psi`` (n, D).

        Returns ``(tau, phi)`` with ``phi`` the unnormalized states at tau,
        and ``tau[n] = inf`` with a NaN row ``phi[n]`` where u_n is at or
        below N(infinity), the weight of psi_n on the eigenvectors that
        never decay, so that no click ever happens.  Each row takes Newton
        steps on log N(tau), whose slope is 2 Im<phi|H'_eff|phi> / N, kept
        inside its own bracket of the root and replaced by bisection (or
        doubling, before an upper bound is known) when they leave it, and
        leaves the stack once converged.  For a pinned member log N is
        linear, and the first step gives tau = -ln u / sum_m ||c'_m psi||^2.
        ``coeffs``, if given, are the rows' ``coefficients``.
        """
        tau_out = np.full(len(u), math.inf)
        phi_out = np.full(psi.shape, np.nan, dtype=complex)
        limit = 0.0 if self.dark is None else np.sum(np.abs(_apply(self.dark.take(label, 0), psi)) ** 2, axis=1)
        rows = np.flatnonzero(u > limit)
        label = label[rows]
        coeffs = self.coefficients(psi[rows], label) if coeffs is None else coeffs[rows]
        tau_unit = self.tau_unit[label]
        log_u = np.log(u[rows])
        lo, hi = np.zeros(rows.size), np.full(rows.size, math.inf)
        tau, g = np.zeros(rows.size), -log_u
        phi, n = psi[rows], np.ones(rows.size)
        for _ in range(_MAX_ITER):
            with np.errstate(divide="ignore", invalid="ignore"):
                slope = np.where(n > 0, 2.0 * _vdot_rows(phi, _apply(self.h.take(label, 0), phi)).imag / n, math.nan)
                step = np.where(slope < 0, tau - g / slope, math.inf)
            tau = np.where(
                (lo < step) & (step < hi),
                step,
                np.where(hi < math.inf, 0.5 * (lo + hi), np.maximum(2.0 * tau, tau_unit)),
            )
            phi = self.propagate(None, label, tau, coeffs)
            n = _vdot_rows(phi, phi).real
            with np.errstate(divide="ignore"):
                g = np.log(n) - log_u
            above = g > 0
            lo, hi = np.where(above, tau, lo), np.where(above, hi, tau)
            live = tau <= _TAU_CAP * tau_unit  # beyond the cap: no click
            done = live & ((np.abs(g) <= _LOG_TOL) | ((hi < math.inf) & (hi - lo <= 4e-16 * hi)))
            tau_out[rows[done]] = tau[done]
            phi_out[rows[done]] = phi[done]
            keep = live & ~done
            rows, label, tau_unit, coeffs, log_u, lo, hi, tau, g, phi, n = (
                a[keep] for a in (rows, label, tau_unit, coeffs, log_u, lo, hi, tau, g, phi, n)
            )
            if rows.size == 0:
                return tau_out, phi_out
        worst = int(np.argmax(np.abs(g)))
        raise ConvergenceError(
            f"waiting time for u = {math.exp(log_u[worst]):.3g} did not converge", residual=float(g[worst])
        )

    def click(self, pre, label, r):
        """Detector of each row of ``pre`` (n, D) and the post-click kets.

        Detector m is chosen with weight ||c'_m pre_n||^2 from r_n in [0, 1);
        ``pre`` need not be normalized: only the relative weights matter.
        """
        amps = _apply(self.jumps.take(label, 0), pre[:, None])
        cumulative = np.cumsum(_vdot_rows(amps, amps).real, axis=1)
        channels = np.sum(cumulative <= (r * cumulative[:, -1])[:, None], axis=1)
        return channels, _unit_rows(amps[np.arange(len(channels)), channels])


# The engine's products round each row on its own, so a row rounds the same
# in a stack of any size and settings.  ``mat @ row`` is the in-order sum of
# the column products from a zero accumulator, which is how the batched
# matmul sums up to D = 3, signed zeros included, at a fraction of its cost;
# from D = 4 numpy hands the matmul to BLAS, which sums in another order, so
# it is kept there.  ``np.vecdot`` rounds as the row-wise matmul does.
def _apply(mat, rows):
    """``mat @ row`` for each row."""
    dim = rows.shape[-1]
    if dim > 3:
        return (mat @ rows[..., None])[..., 0]
    out = 0.0 + mat[..., 0] * rows[..., None, 0]
    for k in range(1, dim):
        out += mat[..., k] * rows[..., None, k]
    return out


def _vdot_rows(a, b):
    """``np.vdot(a_n, b_n)`` for each row n."""
    return np.vecdot(a, b)


def _unit_rows(rows):
    """Each row divided by its norm."""
    return rows / np.sqrt(_vdot_rows(rows, rows).real)[:, None]


class _Draws:
    """Uniform draws of trajectories first, ..., first + n - 1 (row i - first), in stream order.

    Trajectory i's first ``_DRAW_BLOCK`` draws are block i of one stream
    ``default_rng([seed, 1000])``, read as one table (PCG64 advances exactly
    to block ``first``); then it continues on its own stream, child i of
    ``SeedSequence([seed, 1000])``, created when first needed.
    """

    def __init__(self, seed: int, first: int, n: int):
        self.seed = seed
        self.first = first
        rng = np.random.default_rng([seed, 1000])
        rng.bit_generator.advance(first * _DRAW_BLOCK)
        self.table = rng.random((n, _DRAW_BLOCK))
        self.cursor = np.zeros(n, dtype=np.int64)
        self.own = {}  # row -> its trajectory's own stream

    def next(self, rows, count=1):
        """The next ``count`` draws of each trajectory in ``rows`` (distinct row indices), as (n, count)."""
        cursor = self.cursor[rows, None] + np.arange(count)
        out = self.table[rows[:, None], np.minimum(cursor, _DRAW_BLOCK - 1)]
        for j, c in zip(*np.nonzero(cursor >= _DRAW_BLOCK)):
            row = int(rows[j])
            if row not in self.own:
                child = np.random.SeedSequence([self.seed, 1000], spawn_key=(self.first + row,))
                self.own[row] = np.random.default_rng(child)
            out[j, c] = self.own[row].random()
        self.cursor[rows] += count
        return out


def _lockstep_sums(engine: _ClickEngine, next_labels, psi0, times, draws: _Draws):
    """Sum of phi phi^dagger at each of the sorted ``times`` over the trajectories of ``draws``, run in lockstep.

    One pass of click rounds takes every trajectory up to its last click at
    or before the last checkpoint: round j clicks the rows that make a j-th
    click, one ``click`` and one ``wait`` call whatever their settings, and
    keeps each row's clock, label and ``coefficients`` after it.  Each
    checkpoint then gathers every row's state after its last click at or
    before it (the start counts as a click at 0) and propagates the stack
    there in one ``propagate`` call.
    """
    n = draws.cursor.size
    rows = np.arange(n)
    label = np.zeros(n, dtype=np.int64)
    clock = np.zeros(n)
    psi = np.tile(psi0, (n, 1))
    coeffs = engine.coefficients(psi, label)
    tau, pre = engine.wait(psi, label, 1.0 - draws.next(rows)[:, 0], coeffs)
    rounds = [(rows, clock, label, coeffs)]
    due = clock + tau <= times[-1]
    while due.any():
        rows = rows[due]
        r, u = draws.next(rows, 2).T
        channels, post = engine.click(pre[due], label[due], r)
        label = next_labels[label[due], channels]
        clock = clock[due] + tau[due]
        coeffs = engine.coefficients(post, label)
        rounds.append((rows, clock, label, coeffs))
        tau, pre = engine.wait(post, label, 1.0 - u, coeffs)
        due = clock + tau <= times[-1]
    # Row i's states, in round order and so in clock order, are order[first[i]:][:count[i]].
    rows, clock, label, coeffs = (np.concatenate(a) for a in zip(*rounds))
    order = np.argsort(rows, kind="stable")
    count = np.bincount(rows, minlength=n)
    first = np.cumsum(count) - count
    sums = np.empty((len(times), psi0.size, psi0.size), dtype=complex)
    for c_idx, t_check in enumerate(times):
        at = order[first + np.bincount(rows[clock <= t_check], minlength=n) - 1]
        phi = _unit_rows(engine.propagate(None, label[at], t_check - clock[at], coeffs[at]))
        sums[c_idx] = np.einsum("ni,nj->ij", phi, phi.conj())
    return sums


def simulate(
    me: MasterEquation,
    scheme: AdaptiveScheme,
    ens: Ensemble,
    cfg: TrajectoryConfig | None = None,
) -> TrajectoryStats:
    """Sample the member chain of ``scheme`` on ``ens``, started in member 0.

    The chain is certified first by :func:`preforge.measurement.certify`,
    which gives the detector weights, exit rates and next labels it samples.
    ``max_state_drift`` is the closure certificate; if it fails the rule, or
    the scheme does not fit the ensemble, :class:`RealizationError` is
    raised.  Only the closure is judged, so a hand-built scheme need not run
    at the ensemble's rates.

    The chain then draws one table from ``default_rng([cfg.rng_seed, 0])``
    with a row per click and K + 1 columns: column 0 gives click i's wait
    -log(1 - u) / r_label, and column 1 + k the detector of member k's i-th
    click, so each member has its own queue of detectors and a run is a
    prefix of any longer run at the same seed.  Statistics are accumulated
    after a burn-in of ``BURN_IN_JUMPS`` clicks, at whose end the clock
    restarts.  A member that never clicks holds the trajectory until
    ``t_max``, and raises :class:`RealizationError` without one.  A run
    whose ``t_max`` ends during the burn-in records nothing and raises,
    naming the cause: :class:`RealizationError` when the walk stopped in a
    member that never clicks, ``ValueError`` when the time limit was too
    short.
    """
    cfg = TrajectoryConfig() if cfg is None else cfg
    real = certify(me, scheme, ens)
    if not real.closed:
        raise RealizationError(f"closure certificate {real.drift:.3e} is above its tolerance: scheme does not pin the ensemble")
    weights, rates = real.weights, real.rates
    k_members, burn = ens.k, BURN_IN_JUMPS
    n_clicks = burn + (cfg.n_jumps if cfg.n_jumps is not None else 10_000)
    draws = np.random.default_rng([cfg.rng_seed, 0]).random((n_clicks, k_members + 1))
    cumulative = np.cumsum(weights, axis=1)
    channels = np.stack(
        [np.searchsorted(c[:-1], draws[:, 1 + k] * c[-1], side="right") for k, c in enumerate(cumulative)], axis=1
    )
    nxt = real.next_labels
    queues = [iter(nxt[k, channels[:, k]].tolist() if rates[k] > 0 else ()) for k in range(k_members)]
    walk = [0]
    try:
        for _ in range(n_clicks):
            walk.append(next(queues[walk[-1]]))
    except StopIteration:  # the walk reached a dark member
        pass
    labels = np.array(walk)
    n_done = labels.size - 1
    waits = -np.log1p(-draws[:n_done, 0]) / rates[labels[:n_done]]
    if n_done < n_clicks:
        waits = np.append(waits, math.inf)
    clock = np.concatenate([np.cumsum(waits[:burn]), np.cumsum(waits[burn:])])
    over = np.flatnonzero(clock >= (math.inf if cfg.t_max is None else cfg.t_max))
    end = int(over[0]) if over.size else waits.size
    if cfg.t_max is None and end < waits.size:
        raise RealizationError(f"member {labels[end]} never clicks after {end} clicks: it is dark to every detector")
    if end < burn:
        if end == n_done:
            raise RealizationError(
                f"member {labels[end]} never clicks: the walk reached it after {end} of the {burn} burn-in "
                f"clicks, so nothing was recorded before t_max = {cfg.t_max:g}"
            )
        raise ValueError(f"t_max = {cfg.t_max:g} ends after {end} of the {burn} burn-in clicks: nothing was recorded")

    src, dst = labels[burn:end], labels[burn + 1 : end + 1]
    dwell = np.bincount(src, waits[burn:end], minlength=k_members).astype(float)
    if end < waits.size:
        dwell[labels[end]] += cfg.t_max - (clock[end - 1] if end > burn else 0.0)
    channel = np.empty(end, dtype=np.int64)
    for k in range(k_members):
        at = np.flatnonzero(labels[:end] == k)
        channel[at] = channels[: at.size, k]
    pairs = np.bincount(dst * k_members + src, minlength=k_members**2).reshape(k_members, k_members)
    loops = pairs.diagonal().copy()
    total_time = float(dwell.sum())
    return TrajectoryStats(
        occupancy=dwell / total_time if total_time > 0 else dwell,
        jump_counts=pairs - np.diag(loops),
        self_loop_counts=loops,
        max_state_drift=real.drift,
        n_jumps=int(src.size),
        total_time=total_time,
        exit_rates=rates,
        events=list(zip(clock[burn:end].tolist(), channel[burn:].tolist(), src.tolist(), dst.tolist())),
    )


def member_click_rates(stats: TrajectoryStats):
    """Sampled and exact click rate out of each member, as two (K,) arrays.

    The sampled rate is the number of clicks out of member k (transitions
    and self-loops) over the time spent in k after burn-in, NaN for a member
    never visited.  The exact rate is the certificate's exit rate r_k = sum_m
    ||c'_m phi_k||^2 (0 for a dark member), which the chain was sampled at.
    """
    clicks = stats.jump_counts.sum(axis=0) + stats.self_loop_counts
    dwell = stats.occupancy * stats.total_time
    with np.errstate(divide="ignore", invalid="ignore"):
        sampled = np.where(dwell > 0, clicks / dwell, math.nan)
    return sampled, stats.exit_rates


@dataclass
class UnconditionalReport:
    """Monte-Carlo average against exact generator propagation.

    ``bounds`` holds the largest distance allowed at each time: ``tol`` when
    one was given, else ``z * sigma / sqrt(n_trajectories)`` plus a
    numerical floor, where ``sigma`` is the sampled spread of the
    trajectory states about their average.
    """

    times: np.ndarray
    distances: np.ndarray
    tol: float | None
    passed: bool
    n_trajectories: int
    sigma: np.ndarray
    z: float
    bounds: np.ndarray
    averages: np.ndarray | None = None  # (n_times, D, D) sampled means
    exact: np.ndarray | None = None  # (n_times, D, D) reference propagation


def unconditional_check(
    me: MasterEquation,
    scheme: AdaptiveScheme,
    cfg: TrajectoryConfig | None = None,
    psi0: np.ndarray | None = None,
    times=None,
    n_trajectories: int = 200,
    tol: float | None = None,
) -> UnconditionalReport:
    """Average many trajectories and compare with exp(L t) propagation.

    The initial label is 0 regardless of ``psi0``; any finite nonzero ket of
    length D is allowed and is normalized.  Checkpoint times must be finite
    and non-negative.  Each checkpoint before the next click records the
    state propagated exactly from the last click, so checkpoints draw no
    random numbers and the reported times are the requested ones (sorted,
    duplicates merged).  The reference is the exact matrix-exponential
    propagation of the generator in coordinate representation, so the model
    needs no unique or full-rank steady state (a dark state is allowed).

    The trajectories run in lockstep, up to ``_LOCKSTEP_ROWS`` at a time, on
    one :class:`_ClickEngine` for all of the scheme's settings: one pass of
    click rounds takes every row up to its last click at or before the last
    checkpoint, round j clicking each row's j-th click and sending it to its
    next wait, one stack whatever their settings; each checkpoint then
    propagates every row's state after its last click at or before it (a
    click at exactly the checkpoint is applied).  Trajectory i draws u of the
    first wait, then r of the click and u of the next wait per click, from
    the stream laid out by :class:`_Draws` (its block of
    ``default_rng([cfg.rng_seed, 1000])``, then its own child stream), so it
    does not depend on ``n_trajectories``, on the batch sizes or on the
    other rows.

    With ``tol=None`` the check passes when every distance lies within the
    sampling band.  Each sample phi phi^dagger has unit Frobenius norm, so
    the summed per-entry variance of the samples at time t is
    sigma(t)^2 = 1 - ||rho_bar(t)||_F^2 and the average's Frobenius error
    has root mean square sigma(t)/sqrt(N); the band is z times that plus a
    numerical floor, with z = ``UNCONDITIONAL_Z``.  One trajectory gives a
    band of zero width.  An explicit ``tol`` (non-negative) is a fixed bound
    on every distance instead.
    """
    _check_count(n_trajectories, "trajectory count")
    if tol is not None and not tol >= 0:
        raise ValueError(f"tolerance must be non-negative, got {tol}")
    cfg = TrajectoryConfig() if cfg is None else cfg
    dim = me.dim
    basis = build_basis(dim)
    # Generator on (x, 1): the coherence block l0, the drive column b, and a
    # zero last row, since the trace is preserved.
    rep = coordinate_rep(lindbladian(me), basis)
    rep[-1] = 0.0
    n = dim * dim - 1
    t_max = cfg.t_max if cfg.t_max is not None else 2.0 / max(np.linalg.norm(rep[:n, :n], 2), 1e-300)
    if times is None:
        times = np.linspace(0.0, t_max, 5)[1:]
    times = np.unique(np.asarray(times, dtype=float))
    if times.size == 0 or not np.all(np.isfinite(times)) or times[0] < 0:
        raise ValueError("checkpoint times must be non-empty, finite and non-negative")
    if psi0 is None:
        psi0 = np.zeros(dim, complex)
        psi0[0] = 1.0
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (dim,) or not np.all(np.isfinite(psi0)) or not np.any(psi0):
        raise ValueError(f"initial state must be a finite nonzero vector of length {dim}")
    psi0 = psi0 / np.linalg.norm(psi0)

    engine = _ClickEngine([scheme.jumps_and_generator(me, k) for k in range(scheme.k)])
    sums = (
        _lockstep_sums(
            engine, scheme.next_labels, psi0, times,
            _Draws(cfg.rng_seed, first, min(_LOCKSTEP_ROWS, n_trajectories - first)),
        )
        for first in range(0, n_trajectories, _LOCKSTEP_ROWS)
    )
    averages = sum(sums) / n_trajectories

    r0 = np.concatenate([rho_to_bloch(np.outer(psi0, psi0.conj()), basis), [1.0]])
    distances = np.empty(len(times))
    exact = np.empty_like(averages)
    for c_idx, t_check in enumerate(times):
        r_t = expm(rep * t_check) @ r0
        exact[c_idx] = bloch_to_rho(r_t[:n] / r_t[n], basis)
        distances[c_idx] = float(np.linalg.norm(averages[c_idx] - exact[c_idx]))
    sigma = np.sqrt(np.maximum(0.0, 1.0 - np.sum(np.abs(averages) ** 2, axis=(1, 2))))
    if tol is None:
        bounds = UNCONDITIONAL_Z * sigma / math.sqrt(n_trajectories) + _BAND_FLOOR
    else:
        bounds = np.full(len(times), float(tol))
    return UnconditionalReport(
        times=times,
        distances=distances,
        tol=tol,
        passed=bool(np.all(distances <= bounds)),
        n_trajectories=n_trajectories,
        sigma=sigma,
        z=UNCONDITIONAL_Z,
        bounds=bounds,
        averages=averages,
        exact=exact,
    )
