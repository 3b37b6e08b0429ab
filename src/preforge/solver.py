"""Producing ensembles: closed forms, symmetric linear families, chord
maps, multistart.

Four routes are implemented.

* ``analytic_k2``: every real eigenvector of l0 supplies a two-member
  ensemble on the line through the steady state, with rates fixed by the
  eigenvalue and the stationarity split.
* ``solve_wigner_family``: when the generator admits an azimuthal rotation
  symmetry, K equally spaced members on the symmetry circle reduce the
  whole system to two linear equations for the rates out of one member;
  the vertices of the nonnegative solution polytope, plus one interior
  point, are the candidates.
* the chord map, for a cyclic system on a 2-D qubit slice: the pure
  states of the slice form a circle, each member's one outgoing rate makes
  the next member the second point where the chord along the flow meets
  the circle, and the ensembles are the K-periodic orbits of that map.  All
  roots of Phi^K(phi) - phi on the circle are found in certified cells
  (a census, with no starts), polished by Newton, and become candidates.
  ``solve_numeric`` and ``solve_systems`` use it for every system it
  solves, all of them in one array pass.
* ``solve_numeric``: otherwise seeded multistart Levenberg-Marquardt on
  any assembled constraint system, all starts iterated as one stack.
  ``solve_systems`` does the same for a list of systems and iterates the
  starts of all same-shape systems in one stack.

All four routes share one screen, one projector-form check and one
quotient.  Each route gives one outcome per start, root or closed-form
candidate, a rejection reason or a candidate; ``_screen`` files negative
rates, non-positive members and coincident members (a relabelled smaller
ensemble with a free rate split) of all of a route's candidates at once;
the chord map's orbits are pure, and it makes the other two checks itself.
``_verified`` then validates every candidate of a ``solve_systems`` call
(or of a closed form) in one ``validate_stack`` call, checks the valid ones
in one ``projector_residuals`` call, and walks each route's candidates in
order to drop duplicates of the kept ones.  What counts as a new ensemble is decided here and
nowhere else, by one eps-test with no K! search, ``same_ensemble``: within a
route, after each trial rotation of ``family_equivalent``, and in
``new_ensembles``, which drops results the same as one already listed or
related to one by a continuous symmetry, for ``search`` across all its
routes and for ``scan`` at each grid value.
``route_skip_reasons`` says when a numeric route provably adds nothing to
the closed forms or to the other routes, so that it need not be solved.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .algebra import exp_flow, real_direction
from .constraints import (
    PURITY_TOL,
    VERIFY_TOL,
    ConstraintSystem,
    Ensemble,
    _levenberg_marquardt,
    member_projectors,
    negative_rate,
    projector_residuals,
    stack_systems,
    transition_edges,
    validate_stack,
)
from .model import BlochModel
from .symmetry import certify_wigner, lie_element

__all__ = [
    "SolverConfig",
    "SolutionSet",
    "analytic_k2",
    "route_skip_reasons",
    "solve_wigner_family",
    "solve_numeric",
    "solve_systems",
    "new_ensembles",
    "scan_existence",
    "same_ensemble",
    "dedup",
]

# Two member states, or two ensembles, closer than this are the same.
DEDUP_EPS = 1e-6
# Residual evaluations allowed per multistart start.
MAX_ITER = 200
# Jacobian entries of one Levenberg-Marquardt stack; more starts of one
# shape are iterated in consecutive stacks of whole starts.
_STACK_ENTRIES = 1 << 21
# The chord-map route: equal cells per circle to start with, halvings after
# them, cells one halving may split on one circle before the circle is left
# to the multistart, and Newton steps per root.
_CHORD_CELLS = 64
_CHORD_DEPTH = 40
_CHORD_BUDGET = 1 << 14
_NEWTON_STEPS = 60
_EPS = np.finfo(float).eps
# A subspace route is an invariant plane x_ss + n^perp when its orthonormal
# basis is this close to orthogonal to the unit normal n.
_PLANE_TOL = 1e-8


@dataclass(frozen=True)
class SolverConfig:
    """Multistart settings; identical rng_seed gives identical output."""

    tol: float = 1e-10
    seeds: int = 512
    rng_seed: int = 0

    def __post_init__(self):
        if not 0 < self.tol < np.inf:
            raise ValueError(f"tol must be a positive finite number, got {self.tol!r}")
        if self.seeds < 1:
            raise ValueError("need at least one start")


@dataclass
class SolutionSet:
    """Deduplicated ensembles plus per-start convergence bookkeeping."""

    ensembles: list
    diagnostics: dict = field(default_factory=dict)
    family_tags: list = field(default_factory=list)

    def __len__(self):
        return len(self.ensembles)


def _mismatches(s1, k1, s2, k2, eps: float = np.inf) -> np.ndarray:
    """The largest member move plus the rate mismatch over the largest rate,
    for each relabelling of members ``s2`` and rates ``k2`` that moves no
    member of ``s1`` beyond ``eps``."""
    k = len(s1)
    moves = np.linalg.norm(s1[:, None] - s2[None], axis=2)  # member i to member j
    perms = [()]
    for row in (moves <= eps).tolist():  # a NaN move allows no relabelling
        perms = [p + (j,) for p in perms for j, near in enumerate(row) if near and j not in p]
    if not perms:
        return np.empty(0)
    perms = np.array(perms, dtype=int)
    d_states = moves[np.arange(k), perms].max(axis=1)
    d_kappa = np.abs(k1 - k2[perms[:, :, None], perms[:, None, :]]).max(axis=(1, 2))
    return d_states + d_kappa / max(np.max(k1), np.max(k2), 1e-300)


def _same_as(states: np.ndarray, kappa: np.ndarray, ref_states: np.ndarray, ref_kappa: np.ndarray, eps: float):
    """``same_ensemble`` of each of M candidates of one shape, members
    ``states`` (M, K, n) and rates ``kappa`` (M, K, K), against one reference,
    with the same arithmetic.

    A candidate each of whose members has exactly one reference member
    within ``eps``, all different, has one relabelling to try, and all of
    those are evaluated at once; a candidate with a member that has several
    goes through :func:`_mismatches`; any other has none.
    """
    k = ref_states.shape[0]
    moves = np.linalg.norm(states[:, :, None] - ref_states, axis=3)  # (M, K, K)
    near = moves <= eps
    options = near.sum(axis=2)
    perm = np.argmax(near, axis=2)
    rows = np.flatnonzero((options == 1).all(axis=1) & (np.sort(perm, axis=1) == np.arange(k)).all(axis=1))
    perm = perm[rows]
    d_states = np.take_along_axis(moves[rows], perm[:, :, None], axis=2).max(axis=(1, 2))
    d_kappa = np.abs(kappa[rows] - ref_kappa[perm[:, :, None], perm[:, None, :]]).max(axis=(1, 2))
    scale = np.maximum(np.maximum(kappa[rows].max(axis=(1, 2)), np.max(ref_kappa)), 1e-300)
    same = np.zeros(len(states), dtype=bool)
    with np.errstate(invalid="ignore"):  # an infinite rate gives NaN: not the same
        same[rows] = d_states + d_kappa / scale <= eps
    for m in np.flatnonzero((options > 1).any(axis=1) & (options > 0).all(axis=1)):
        same[m] = _mismatches(states[m], kappa[m], ref_states, ref_kappa, eps).min(initial=np.inf) <= eps
    return same


def same_ensemble(e1, e2, eps: float) -> bool:
    """The one test of ensemble identity: whether some relabelling of ``e2``
    has largest member move plus rate mismatch over the largest rate of
    either at most ``eps``.  The rate term is never negative, so only
    relabellings that move no member beyond ``eps`` are tried, usually one
    or none, and the answer is that of the minimum over all K!."""
    same_shape = e1.k == e2.k and e1.dim == e2.dim
    return same_shape and bool(_mismatches(e1.states, e1.kappa, e2.states, e2.kappa, eps).min(initial=np.inf) <= eps)


def ensemble_distance(e1, e2) -> float:
    """The ``same_ensemble`` quantity minimized over all K! relabellings; no
    search or scan decision pays for it, it reports how far apart two are."""
    same_shape = e1.k == e2.k and e1.dim == e2.dim
    return float(_mismatches(e1.states, e1.kappa, e2.states, e2.kappa).min(initial=np.inf)) if same_shape else np.inf


class _Candidate(NamedTuple):
    """A result before validation, comparable by ``same_ensemble``; a
    closed form carries its family tag."""

    dim: int
    states: np.ndarray
    kappa: np.ndarray
    tag: dict | None = None

    @property
    def k(self) -> int:
        return self.states.shape[0]


class _Batch(NamedTuple):
    """One route's candidates on one model, in the order its acceptance walks them."""

    bm: BlochModel
    tol: float
    states: np.ndarray  # (M, K, D^2 - 1)
    kappa: np.ndarray  # (M, K, K)
    tags: list  # (M,) a closed form's family tag, or None
    diagnostics: dict


def _distinct(states: np.ndarray, kappa: np.ndarray, eps: float, valid) -> np.ndarray:
    """Walk M candidates of one shape, members ``states`` (M, K, n) and rates
    ``kappa`` (M, K, K), in order, and return the mask of duplicates.

    A candidate is a duplicate when a kept one before it is the same within
    ``eps``; one that is not is kept when ``valid``, and a candidate not
    kept hides no later one.  Each kept candidate is compared at once with
    every later one not yet a duplicate whose member centroid lies near its
    own: the centroid does not depend on the labels and moves by at most
    the largest member displacement, so by at most ``eps`` between two that
    are the same (the radius allows for roundoff).
    """
    duplicate = np.zeros(len(states), dtype=bool)
    centroids = states.mean(axis=1)
    for i in np.flatnonzero(valid):
        if duplicate[i]:
            continue
        later = i + 1 + np.flatnonzero(~duplicate[i + 1 :])
        offset = centroids[later] - centroids[i]
        later = later[np.sqrt(np.vecdot(offset, offset)) <= 2 * eps + 1e-12]
        if later.size:
            duplicate[later[_same_as(states[later], kappa[later], states[i], kappa[i], eps)]] = True
    return duplicate


def dedup(ensembles: list, eps: float = DEDUP_EPS) -> list:
    """Drop duplicates up to member relabeling; order-stable and idempotent.

    An ensemble is kept unless an earlier kept one lies within ``eps``.  This
    is the walk the acceptance makes over each route's candidates, with
    every distinct ensemble accepted.
    """
    groups = {}
    for i, ens in enumerate(ensembles):
        groups.setdefault((ens.dim, ens.k), []).append(i)
    dropped = set()
    for members in groups.values():
        states = np.array([ensembles[i].states for i in members], dtype=float)
        kappa = np.array([ensembles[i].kappa for i in members], dtype=float)
        duplicate = _distinct(states, kappa, eps, np.ones(len(members), dtype=bool))
        dropped.update(np.array(members)[duplicate].tolist())
    return [ens for i, ens in enumerate(ensembles) if i not in dropped]


def _canonical_order(states: np.ndarray) -> list:
    """Indices sorting candidates (M, K, n) by their member coordinates,
    sorted per coordinate and rounded to 9 digits, so labels do not matter."""
    keys = np.round(np.sort(states, axis=1), 9)
    return sorted(range(len(keys)), key=lambda i: keys[i].tobytes())


def analytic_k2(bm: BlochModel) -> SolutionSet:
    """Two-member ensembles from the real eigenvectors of l0, by eigenvalue.

    The member pair sits where the line through the steady state along an
    eigenvector pierces the pure-state sphere; the rate sum is the negated
    eigenvalue and the split follows the stationary occupations.  Degenerate
    eigenspaces yield one representative tagged as a rotation family.  Each
    line is one candidate for the shared acceptance.
    """
    lines = []  # (eigenvalue, real direction or None, degenerate)
    for cluster in bm.spectrum.real_clusters:
        degenerate = cluster.geometric >= 2 and not cluster.defective
        vectors = cluster.vectors.T[:1] if degenerate else cluster.vectors.T
        lines += [(cluster.value.real, real_direction(e), degenerate) for e in vectors]
    outcomes = []
    for lam, e, degenerate in sorted(lines, key=lambda line: line[0]):
        if e is None:
            outcomes.append("eigenvector is not real")
            continue
        # |x_ss + t e|^2 = R^2 at t = centre +- sqrt(disc), disc > 0
        (centre,), disc = bm.pure_slice(e[:, None])
        t_plus = centre + np.sqrt(disc)
        t_minus = centre - np.sqrt(disc)
        x1 = bm.x_ss + t_plus * e
        x2 = bm.x_ss + t_minus * e
        eta1, eta2 = t_plus, -t_minus
        kappa = np.zeros((2, 2))
        kappa[1, 0] = -lam * eta1 / (eta1 + eta2)  # rate 2 <- 1
        kappa[0, 1] = -lam * eta2 / (eta1 + eta2)
        family = "rotation within degenerate eigenspace" if degenerate else None
        outcomes.append(_Candidate(bm.dim, np.array([x1, x2]), kappa, {"eigenvalue": lam, "family": family}))
    return _closed_form("analytic-k2", bm, outcomes)


def route_skip_reasons(bm: BlochModel, k: int, subspaces: list, graph: str) -> list:
    """For each numeric K-member route, why it provably adds no ensemble, or None to solve it.

    ``subspaces`` holds each route's ``InvariantSubspace``, None for the
    full space, and ``graph`` the transition graph of every route.  The
    proofs take for granted that results with two coincident members are
    dropped, as ``solve_numeric`` does.

    * K=2: subtracting the two flow rows gives
      l0 (x1 - x2) = -(kappa_12 + kappa_21) (x1 - x2), and the
      occupation-weighted average is x_ss, so every two-member ensemble lies
      on a line through x_ss along a real eigenvector of l0, for any D.  When
      each real eigenvalue has a one-dimensional eigenspace, those lines are
      the ones ``analytic_k2`` cuts with the pure-state sphere, so it already
      lists every K=2 ensemble of every route.
    * K>=3 on a slice of dimension at most 1: a line meets the pure-state
      sphere in at most two points, so two members coincide.
    * The full space of a qubit at K=3 under the cyclic graph: each flow row
      l0 x_k + b = sum_j kappa_jk (x_j - x_k) lies in the direction space of
      the members' affine hull, which holds x_ss, so that hull is an
      invariant affine subspace.  Three distinct pure states are never
      collinear, so every ensemble lies in an invariant plane x_ss + n^perp,
      n a real left eigenvector of l0.  When each real eigenvalue has a
      one-dimensional eigenspace those planes are finitely many, one per
      eigenvalue (see :func:`_invariant_plane_normals`).  The full route is
      skipped when each plane is a 2-D subspace route: that route solves the
      same cyclic system restricted to the plane, by the chord map where it
      qualifies.
    """
    if k == 2 and all(
        c.geometric == 1 and real_direction(c.vectors[:, 0]) is not None for c in bm.spectrum.real_clusters
    ):
        reason = "analytic_k2 lists every K=2 ensemble: each real eigenvalue of l0 has a 1-D eigenspace"
        return [reason] * len(subspaces)
    reasons = [
        f"a {sub.n}-D slice holds at most 2 distinct pure states" if k >= 3 and sub is not None and sub.n <= 1 else None
        for sub in subspaces
    ]
    if k == 3 and bm.dim == 2 and graph == "cyclic" and None in subspaces:
        normals = _invariant_plane_normals(bm)
        routes = [sub.basis_i0 for sub in subspaces if sub is not None and sub.n == 2]
        if normals is not None and all(
            any(np.linalg.norm(basis.T @ normal) <= _PLANE_TOL for basis in routes) for normal in normals
        ):
            reason = "every K=3 ensemble lies in an invariant plane, each one with pure states a subspace route"
            reasons = [reason if sub is None else why for sub, why in zip(subspaces, reasons)]
    return reasons


def _invariant_plane_normals(bm: BlochModel):
    """The unit normals n of the invariant planes x_ss + n^perp of a qubit
    model; None when a real eigenvalue of l0 has a degenerate eigenspace,
    and so infinitely many planes.

    A plane n^perp is invariant under l0 exactly when n is a real left
    eigenvector.  For a real eigenvalue with a one-dimensional eigenspace,
    the shifted generator l0 - lambda has rank 2, and n is its left
    singular vector for the zero singular value.
    """
    real = bm.spectrum.real_clusters
    if any(c.geometric != 1 for c in real):
        return None
    return [np.linalg.svd(bm.l0 - c.value.real * np.eye(bm.n_coords))[0][:, -1] for c in real]


def _azimuthal_frame(bm: BlochModel, k: int):
    """Rotation generator certified at angle 2*pi/k, its plane and radius."""
    for cluster in bm.spectrum.real_clusters:
        if cluster.geometric < 2:
            continue
        space = np.real(cluster.vectors[:, :2])
        q, _ = np.linalg.qr(space)
        e1, e2 = q[:, 0], q[:, 1]
        gen = np.outer(e2, e1) - np.outer(e1, e2)
        t0 = lie_element(gen, 2 * np.pi / k)
        if certify_wigner(bm, t0)["certified"]:
            return gen, e1, e2
    return None


def solve_wigner_family(bm: BlochModel, k: int) -> SolutionSet:
    """Maximally symmetric K-member ensembles on the symmetry circle.

    Needs an azimuthal rotation symmetry (certified internally).  Members
    are pinned at angles 2*pi*j/K on the circle of pure states around the
    symmetry axis, one of them on the canonical in-plane axis; the rates
    out of the first member satisfy two linear equations, and the vertices
    of their nonnegative polytope plus one interior point are the
    candidates for the shared acceptance, in that order, in units of ``bm.rate_unit``.
    """
    if k < 2:
        raise ValueError("need at least two ensemble members")
    frame = _azimuthal_frame(bm, k)
    if frame is None:
        return _closed_form("wigner-family", bm, [], reason="no azimuthal symmetry")
    gen, e1, e2 = frame
    # The rotation fixes x_ss, so the circle is centred on it.
    r = np.sqrt(bm.pure_slice(np.column_stack([e1, e2]))[1])
    angles = 2 * np.pi * np.arange(k) / k
    states = np.array(
        [bm.x_ss + r * (np.cos(a) * e1 + np.sin(a) * e2) for a in angles]
    )

    # Constraint row for member 0 projected on the plane:
    #   sum_j kappa_j0 (cos th_j - 1) = a,  sum_j kappa_j0 sin th_j = c.
    lhs = (bm.l0 @ states[0] + bm.b) / bm.rate_unit
    a_coef = e1 @ lhs / r
    c_coef = e2 @ lhs / r
    cols = np.array([[np.cos(a) - 1.0, np.sin(a)] for a in angles[1:]]).T  # (2, k-1)
    rhs = np.array([a_coef, c_coef])

    # Vertices of {kappa >= 0 : cols @ kappa = rhs}: basic feasible solutions.
    n_free = k - 1
    rank = np.linalg.matrix_rank(cols, tol=1e-12)
    vertices = []
    for support in itertools.combinations(range(n_free), min(rank, n_free)):
        sub = cols[:, support]
        sol, res, *_ = np.linalg.lstsq(sub, rhs, rcond=None)
        full = np.zeros(n_free)
        full[list(support)] = sol
        if np.linalg.norm(cols @ full - rhs) > 1e-10 * max(1.0, np.linalg.norm(rhs)):
            continue
        if np.min(full) < -1e-12:
            continue
        full = np.clip(full, 0.0, None)
        if not any(np.max(np.abs(full - v)) < 1e-10 for v in vertices):
            vertices.append(full)
    if len(vertices) > 1:
        vertices.append(np.mean(vertices, axis=0))  # interior point
    outcomes = []
    for rates in np.array(vertices) * bm.rate_unit:
        # Rate rates[s - 1] from each member k0 to member k0 + s.
        kappa = sum(value * np.roll(np.eye(k), shift, axis=0) for shift, value in enumerate(rates, start=1))
        tag = {"family": "azimuthal rotation", "generator": gen, "rates_out": rates}
        outcomes.append(_Candidate(bm.dim, states, kappa, tag))
    return _closed_form("wigner-family", bm, outcomes)


def solve_numeric(cs: ConstraintSystem, cfg: SolverConfig | None = None) -> SolutionSet:
    """All ensembles of an assembled constraint system that the solver finds.

    A cyclic system on a 2-D qubit slice is solved exactly by the chord map
    (:func:`_solve_chord`); ``cfg.seeds`` and ``cfg.rng_seed`` do not
    affect it.  Any other system gets the multistart: starts are drawn from
    the pure-state set (or its subspace slice) with log-uniform rates, start
    i from ``default_rng([cfg.rng_seed, i])``, and solved together by a
    batched Levenberg-Marquardt iteration.  Converged points whose residual
    meets ``cfg.tol`` go to the shared screen.  On both routes the
    candidates that pass are sorted canonically, then deduplicated,
    validated and verified by ``_verified``.  Every start (every root, on
    the chord route) ends up either kept (``n_accepted``) or counted once
    under ``rejections``, ``"duplicate"`` included.
    """
    return solve_systems([cs], cfg)[0]


def solve_systems(systems: list, cfg: SolverConfig | None = None) -> list:
    """:func:`solve_numeric` on each of ``systems``, one SolutionSet per system.

    The systems the chord map solves are solved together in one array pass;
    the others get :func:`_multistart`.  The candidates of all of them are
    accepted by one ``_verified`` call.
    """
    cfg = SolverConfig() if cfg is None else cfg
    chord = [i for i, cs in enumerate(systems) if _chord_qualifies(cs)]
    batches = dict(zip(chord, _solve_chord([systems[i] for i in chord], cfg)))
    rest = [i for i in range(len(systems)) if batches.get(i) is None]
    batches.update(zip(rest, _multistart([systems[i] for i in rest], cfg)))
    return _verified([batches[i] for i in range(len(systems))])


def _multistart(systems: list, cfg: SolverConfig) -> list:
    """The multistart of :func:`solve_numeric` on each of ``systems``, as
    one batch of candidates per system for ``_verified``.

    The starts of all systems with one ``stack_key`` are iterated in one
    Levenberg-Marquardt stack, each row on its own system's model, in
    consecutive stacks of at most ``_STACK_ENTRIES`` Jacobian entries.  Starts do not interact, so every start ends where it
    ends when its system is solved alone.
    """
    groups = {}
    for i, cs in enumerate(systems):
        groups.setdefault(cs.stack_key, []).append(i)
    finals = {}
    for members in groups.values():
        stack = stack_systems([systems[i] for i in members])
        which = np.repeat(np.arange(len(members)), cfg.seeds)
        starts = np.array(
            [
                systems[i].sample_start(np.random.default_rng([cfg.rng_seed, j]))
                for i in members
                for j in range(cfg.seeds)
            ]
        )
        rows = max(1, _STACK_ENTRIES // (stack.n_constraints * stack.n_params))
        pieces = [
            _levenberg_marquardt(stack, starts[a : a + rows], cfg.tol, MAX_ITER, which[a : a + rows])
            for a in range(0, len(starts), rows)
        ]
        thetas, resids, failed = (np.concatenate(parts) for parts in zip(*pieces))
        for g, i in enumerate(members):
            own = slice(g * cfg.seeds, (g + 1) * cfg.seeds)
            finals[i] = thetas[own], resids[own], failed[own]
    return [_converged(cs, cfg, finals[i]) for i, cs in enumerate(systems)]


def _coincident(states: np.ndarray) -> np.ndarray:
    """Whether two members of each candidate (M, K, n) lie within ``DEDUP_EPS`` of each other."""
    first, second = np.triu_indices(states.shape[1], 1)
    return np.min(np.linalg.norm(states[:, first] - states[:, second], axis=2), axis=1) <= DEDUP_EPS


def _new_diagnostics(method: str, n_starts: int, **extra) -> dict:
    return {
        "method": method,
        "n_starts": n_starts,
        "n_converged": 0,
        "n_accepted": 0,
        "rejections": {},
        **extra,
    }


def _reject(diagnostics: dict, reason: str, count: int = 1):
    diagnostics["rejections"][reason] = diagnostics["rejections"].get(reason, 0) + count


def _converged(cs: ConstraintSystem, cfg: SolverConfig, final) -> _Batch:
    """The multistart's candidates on one system, from its final
    (parameters, residuals, failed) starts, screened and in canonical order."""
    diagnostics = _new_diagnostics("multistart", cfg.seeds)
    theta, resid, failed = final
    above = np.max(np.abs(resid), axis=1) > cfg.tol
    outcomes = [
        "solver failure" if fail else "residual above tolerance" if high else None
        for fail, high in zip(failed.tolist(), above.tolist())
    ]
    converged = ~failed & ~above
    diagnostics["n_converged"] = int(converged.sum())
    states, kappa = cs.unpack(theta[converged])
    passed = _screen(cs.bm, outcomes, states, kappa, diagnostics)
    order = _canonical_order(states[passed])
    return _Batch(cs.bm, cfg.tol, states[passed][order], kappa[passed][order], [None] * len(order), diagnostics)


def _closed_form(method: str, bm: BlochModel, outcomes: list, **extra) -> SolutionSet:
    """The acceptance of a closed-form route's ``outcomes``, rejection
    reasons and ``_Candidate``s, kept in their order and verified at the
    default tolerance."""
    diagnostics = _new_diagnostics(method, len(outcomes), **extra)
    candidates = [out for out in outcomes if not isinstance(out, str)]
    diagnostics["n_converged"] = len(candidates)
    states = np.array([cand.states for cand in candidates])
    kappa = np.array([cand.kappa for cand in candidates])
    passed = _screen(bm, [out if isinstance(out, str) else None for out in outcomes], states, kappa, diagnostics)
    tags = [cand.tag for cand, ok in zip(candidates, passed) if ok]
    return _verified([_Batch(bm, SolverConfig().tol, states[passed], kappa[passed], tags, diagnostics)])[0]


def _screen(bm: BlochModel, outcomes: list, states: np.ndarray, kappa: np.ndarray, diagnostics: dict) -> np.ndarray:
    """Screen one route's candidates, members ``states`` (M, K, n) and rates
    ``kappa`` (M, K, K), one for each None among ``outcomes``; the other
    outcomes are rejection reasons.

    A candidate fails on a ``negative_rate``, then on a member mapped to a
    matrix with an eigenvalue below ``-PURITY_TOL``, then on two members
    within ``DEDUP_EPS`` of each other.  Every reason is filed in
    ``diagnostics`` in outcome order.  Returns the mask of candidates that pass.
    """
    flaws = iter(())
    if len(states):
        positive = np.min(np.linalg.eigvalsh(member_projectors(bm.basis, states)), axis=(1, 2)) >= -PURITY_TOL
        checks = [negative_rate(kappa), ~positive, _coincident(states)]
        reasons = ["negative rate", "member maps to a non-positive matrix", "coincident members"]
        flaws = iter(np.select(checks, reasons, "").tolist())
    passed = []
    for out in outcomes:
        if out is None:
            out = next(flaws) or None
            passed.append(out is None)
        if out is not None:
            _reject(diagnostics, out)
    return np.array(passed, dtype=bool)


def _verified(batches: list) -> list:
    """One SolutionSet per batch: its distinct candidates, in order, that
    pass validation and the projector-form check, with their tags.

    The candidates of one shape in all batches are validated by one
    ``validate_stack`` call and checked by one ``projector_residuals`` call,
    each against its own model; the residual is a rate, held to ``10 * tol``
    in the model's rate unit but never above ``VERIFY_TOL``, the default of
    ``verify``, so that every ensemble listed passes ``verify``.  Then
    ``_distinct`` walks each batch with the rates as validated: a duplicate
    of a kept candidate counts as ``"duplicate"`` whatever else it fails,
    any other failing candidate under its first reason, and the kept ones
    as ``n_accepted``.
    """
    groups = {}
    for b, batch in enumerate(batches):
        if len(batch.states):
            groups.setdefault(batch.states.shape[1:], []).append(b)
    verdicts = [((), None, None)] * len(batches)  # per batch: reasons, rates, occupations
    for members in groups.values():
        sizes = [len(batches[b].states) for b in members]
        owner = np.repeat(np.arange(len(members)), sizes)
        basis = batches[members[0]].bm.basis
        states = np.concatenate([batches[b].states for b in members])
        reasons, kappa, occupations = validate_stack(basis, states, np.concatenate([batches[b].kappa for b in members]))
        valid = np.flatnonzero([reason is None for reason in reasons])
        liou = np.array([batches[b].bm.liouvillian for b in members])[owner[valid]]
        limit = np.array([min(10 * batches[b].tol, VERIFY_TOL) * batches[b].bm.rate_unit for b in members])
        limit = limit[owner[valid]]
        residual = projector_residuals(basis, liou, states[valid], kappa[valid]).max(axis=1)
        for i in valid[~(residual <= limit)].tolist():
            reasons[i] = "projector-form verification failed"
        ends = np.cumsum(sizes).tolist()
        for b, start, end in zip(members, [0] + ends, ends):
            verdicts[b] = reasons[start:end], kappa[start:end], occupations[start:end]
    solsets = []
    for batch, (reasons, kappa, occupations) in zip(batches, verdicts):
        ensembles, tags = [], []
        if reasons:
            duplicate = _distinct(batch.states, kappa, DEDUP_EPS, [reason is None for reason in reasons])
            for i, reason in enumerate(reasons):
                if duplicate[i]:
                    continue
                if reason is None:
                    ensembles.append(Ensemble(batch.bm.dim, batch.states[i], kappa[i], occupations[i]))
                    tags.append(batch.tags[i])
                else:
                    _reject(batch.diagnostics, reason)
            if duplicate.any():
                _reject(batch.diagnostics, "duplicate", int(duplicate.sum()))
        batch.diagnostics["n_accepted"] = len(ensembles)
        solsets.append(SolutionSet(ensembles=ensembles, diagnostics=batch.diagnostics, family_tags=tags))
    return solsets


def _chord_qualifies(cs: ConstraintSystem) -> bool:
    """Whether the chord map solves ``cs``: a cyclic system on a 2-D qubit
    slice whose flow L y + f vanishes nowhere on the circle of pure states."""
    if not (
        cs.bm.dim == 2
        and cs.structure.get("kind") == "subspace"
        and cs.lin.shape == (2, 2)
        and cs.expand is None
        and cs.rows is None
        and cs.edges == transition_edges("cyclic", cs.k)
    ):
        return False
    try:
        rest = np.linalg.solve(cs.lin, -cs.drift)  # the one zero of the flow
    except np.linalg.LinAlgError:
        return False
    return abs(np.sum((rest + cs.centre) ** 2) - cs.radius_sq) > 1e-9 * cs.radius_sq


def _wrap(angle):
    """Angles reduced to [-pi, pi)."""
    return (angle + np.pi) % (2 * np.pi) - np.pi


class _Orbits(NamedTuple):
    """K chord steps from each of P start angles (see :class:`_ChordMaps`)."""

    angles: np.ndarray  # (K + 1, P), phi_0 .. phi_K
    speed: np.ndarray  # (K, P), |v| at phi_0 .. phi_{K-1}
    turn: np.ndarray  # (K, P), v x dv/dphi there
    bend: np.ndarray  # (K, P), d^2 arg(v) / dphi^2 there
    chord: np.ndarray  # (K, P), the chord parameters t_k
    gap: np.ndarray  # (P,), g = wrap(phi_K - phi_0)
    slope: np.ndarray  # (P,), dg/dphi_0
    noise: np.ndarray  # (P,), bound on the rounding error of gap


class _ChordMaps:
    """The chord maps of circle systems with one K, evaluated on member angles.

    On each system the members are y = c + r u(phi), u = (cos phi, sin phi),
    with c = -centre and r^2 = radius_sq, and the flow there is
    v = L y + f = d + r L u with d = L c + f.  The chord from y along v
    meets the circle again at the mirror image of u in the line normal to
    v, so the map is Phi(phi) = 2 psi + pi - phi with psi = arg v, and the
    chord parameter is t = -2 r u.v / |v|^2.  With N = v x dv/dphi,
    psi' = N / |v|^2, so Phi' = 2 N / |v|^2 - 1 in closed form.
    """

    def __init__(self, systems: list):
        self.k = systems[0].k
        lin = np.array([cs.lin for cs in systems])
        radius = np.sqrt([cs.radius_sq for cs in systems])
        drift = np.einsum("sij,sj->si", lin, -np.array([cs.centre for cs in systems]))
        drift += np.array([cs.drift for cs in systems])
        lin_r = radius[:, None, None] * lin
        # Per system: d, r L by rows, and r.
        self.coef = np.vstack([drift.T, lin_r.reshape(-1, 4).T, radius])
        # |dv/dphi| <= lip everywhere on the circle.
        self.lip = np.linalg.norm(lin_r, 2, axis=(1, 2))
        self.drift_norm = np.linalg.norm(drift, axis=1)

    def orbits(self, which: np.ndarray, phi: np.ndarray) -> _Orbits:
        """The orbit of angle ``phi[i]`` on system ``which[i]``, for every i.

        ``noise`` follows the rounding error of each angle along the orbit:
        evaluating v and arg v adds about eps (|d| + lip) / |v| and a few
        eps pi per step, and the next step multiplies what came before by
        |Phi'|.
        """
        dx, dy, a, b, c, e, radius = self.coef[:, which]
        v_err = 8 * _EPS * (self.drift_norm + self.lip)[which]
        angles, speed, turn, bend, chord = [phi], [], [], [], []
        err = np.zeros_like(phi)
        for _ in range(self.k):
            cos, sin = np.cos(phi), np.sin(phi)
            vx = dx + a * cos + b * sin
            vy = dy + c * cos + e * sin
            wx, wy = b * cos - a * sin, e * cos - c * sin  # dv/dphi
            sq = vx * vx + vy * vy
            speed.append(np.sqrt(sq))
            turn.append(vx * wy - vy * wx)
            bend.append((vx * dy - vy * dx) / sq - 2 * turn[-1] * (vx * wx + vy * wy) / sq**2)
            chord.append(-2 * radius * (cos * vx + sin * vy) / sq)
            err = np.abs(2 * turn[-1] / sq - 1) * err + v_err / speed[-1] + 16 * _EPS * np.pi
            phi = _wrap(2 * np.arctan2(vy, vx) + np.pi - phi)
            angles.append(phi)
        angles, speed, turn, bend, chord = map(np.array, (angles, speed, turn, bend, chord))
        return _Orbits(
            angles=angles,
            speed=speed,
            turn=turn,
            bend=bend,
            chord=chord,
            gap=_wrap(angles[-1] - angles[0]),
            slope=np.prod(2 * turn / speed**2 - 1, axis=0) - 1,
            noise=4 * (err + _EPS * np.pi),
        )

    def cell_bounds(self, which: np.ndarray, mid: _Orbits, rho: np.ndarray):
        """Bounds on |g'| and |g''| over the cells [m - rho, m + rho] whose
        midpoints m start the orbits ``mid``.

        The k-th image of a cell lies within rho_k of the k-th angle of the
        mid orbit, with rho_0 = rho and rho_{k+1} = B_k rho_k, where B_k bounds
        |Phi'| on that arc.  On it |v| lies within lip rho_k of |v_k|, and
        dN/dphi = v x d bounds N; that bounds psi' = N / |v|^2 and
        psi'' = (v x d) / |v|^2 - 2 N (v . dv/dphi) / |v|^4 term by term, or
        by its value at phi_k plus rho_k times a bound on psi''' got the same
        way, whichever is smaller; hence |Phi''| <= C_k and
        B_k <= |Phi'(phi_k)| + C_k rho_k.  By the chain
        rule |g'| <= prod B_k + 1 and |g''| <= sum_k C_k (prod_{j<k} B_j)^2
        prod_{j>k} B_j.  An arc on which the bound on |v| reaches 0 gets
        infinite bounds.
        """
        lip, drift_norm = self.lip[which], self.drift_norm[which]
        reach = rho
        d1 = np.ones_like(rho)
        d2 = np.zeros_like(rho)
        with np.errstate(all="ignore"):
            for speed, turn, bend in zip(mid.speed, mid.turn, mid.bend):
                low, high = speed - lip * reach, speed + lip * reach
                turn_max = np.abs(turn) + reach * high * drift_norm
                dot_max = high * lip  # |v . dv/dphi|
                twist = (  # bounds |psi'''|
                    (lip + 2 * high * dot_max / low**2) * drift_norm / low**2
                    + 2 * (high * drift_norm * dot_max + turn_max * (lip**2 + high * (drift_norm + high))) / low**4
                    + 8 * turn_max * dot_max**2 / low**6
                )
                curve = 2 * np.minimum(
                    high * drift_norm / low**2 + 2 * dot_max * turn_max / low**4,
                    np.abs(bend) + twist * reach,
                )
                step = np.minimum(
                    np.abs(2 * turn / speed**2 - 1) + curve * reach,
                    2 * np.minimum(turn_max / low**2, lip / low) + 1,
                )
                step = np.where(low > 0, step, np.inf)
                curve = np.where(low > 0, curve, np.inf)
                d2 = d2 * step + curve * d1 * d1
                d1 = d1 * step
                reach = reach * step
            d1 = np.minimum(d1 + 1, np.abs(mid.slope) + d2 * rho)
        return np.where(np.isnan(d1), np.inf, d1), np.where(np.isnan(d2), np.inf, d2)


def _chord_cells(maps: _ChordMaps, n_systems: int):
    """Split every circle into cells until each is settled.

    Each circle starts as ``_CHORD_CELLS`` equal cells [a, b), each owning
    the roots of g in it.  With M >= |g'| on a cell of width h and values
    lifted across it (exact once M h < pi), a cell is settled as

    * root-free when M h < |g(a)| + |g(b)| less their rounding errors, or
      when g is provably monotone (|g'(m)| > |g''|max h / 2, with M h < pi)
      and does not change sign;
    * holding exactly one simple root when g is monotone and changes sign;
    * unresolved when g is within rounding of 0 at a, m and b, or after
      ``_CHORD_DEPTH`` halvings.

    Other cells are halved.  Returns (system, a, b, g(a)) of the one-root
    cells; the same of the runs of adjacent unresolved cells; the cells
    examined per system; and a mask of the systems left to the multistart:
    those on which g vanishes on the whole first grid (T^K is the identity,
    a continuous family) or that would split more than ``_CHORD_BUDGET``
    cells in one halving.
    """
    grid = np.linspace(-np.pi, np.pi, _CHORD_CELLS + 1)
    which = np.repeat(np.arange(n_systems), _CHORD_CELLS)
    start = maps.orbits(which, np.tile(grid[:-1], n_systems))
    g_grid = start.gap.reshape(n_systems, -1)
    noise_grid = start.noise.reshape(n_systems, -1)
    handed = np.max(np.abs(g_grid), axis=1) <= 1e-8
    a, b = np.tile(grid[:-1], n_systems), np.tile(grid[1:], n_systems)
    ga, gb = g_grid.ravel(), np.roll(g_grid, -1, axis=1).ravel()
    na, nb = noise_grid.ravel(), np.roll(noise_grid, -1, axis=1).ravel()
    n_cells = np.full(n_systems, _CHORD_CELLS)
    keep = ~handed[which]
    none = np.zeros(0, dtype=int), np.zeros(0), np.zeros(0), np.zeros(0)
    single, loose = [none], [none]
    for depth in range(_CHORD_DEPTH + 1):
        which, a, b, ga, gb, na, nb = (x[keep] for x in (which, a, b, ga, gb, na, nb))
        if not which.size:
            break
        width = b - a
        mid = a + width / 2
        orb = maps.orbits(which, mid)
        d1, d2 = maps.cell_bounds(which, orb, width / 2)
        g_end = ga + _wrap(gb - ga)  # g(a) plus the lifted increment
        sign_change = (ga == 0) | (ga * g_end < 0)
        with np.errstate(invalid="ignore"):
            lipschitz = d1 * width * (1 + 1e-9) < np.abs(ga) - na + np.abs(gb) - nb
            monotone = (d1 * width * (1 + 1e-9) < np.pi) & (np.abs(orb.slope) > d2 * width / 2 * (1 + 1e-9))
        free = lipschitz | (monotone & ~sign_change)
        one = ~lipschitz & monotone & sign_change
        flat = ~free & ~one
        if depth < _CHORD_DEPTH:
            flat &= (np.abs(ga) <= na) & (np.abs(orb.gap) <= orb.noise) & (np.abs(gb) <= nb)
        single.append((which[one], a[one], b[one], ga[one]))
        loose.append((which[flat], a[flat], b[flat], ga[flat]))
        halve = ~(free | one | flat)
        n_halved = np.bincount(which[halve], minlength=n_systems)
        handed |= n_halved > _CHORD_BUDGET
        n_cells += 2 * n_halved
        keep = np.repeat(halve & ~handed[which], 2)
        which = np.repeat(which, 2)
        a, b = np.column_stack([a, mid]).ravel(), np.column_stack([mid, b]).ravel()
        ga, gb = np.column_stack([ga, orb.gap]).ravel(), np.column_stack([orb.gap, gb]).ravel()
        na, nb = np.column_stack([na, orb.noise]).ravel(), np.column_stack([orb.noise, nb]).ravel()
    single = tuple(np.concatenate(x) for x in zip(*single))
    lw, la, lb, lg = (np.concatenate(x) for x in zip(*loose))
    order = np.lexsort((la, lw))
    lw, la, lb, lg = lw[order], la[order], lb[order], lg[order]
    first = np.ones(lw.size, dtype=bool)
    first[1:] = (lw[1:] != lw[:-1]) | (la[1:] != lb[:-1])
    last = np.append(first[1:], True)[: lw.size]
    runs = lw[first], la[first], lb[last], lg[first]
    return single, runs, n_cells, handed


def _chord_polish(maps: _ChordMaps, which, a, b, ga, bracketed) -> np.ndarray:
    """A root of g in each cell or run [a, b) with g(a) = ``ga``, from its
    middle: Newton steps with the closed-form slope, up to one step after
    |g| reaches rounding level.  In a ``bracketed`` cell (one simple root)
    the steps are kept inside the shrinking bracket by bisection; elsewhere
    they are clipped to [a, b]."""
    x = np.where(bracketed & (ga == 0), a, a + (b - a) / 2)
    left, right = a.copy(), b.copy()
    active = np.flatnonzero(~bracketed | (ga != 0))
    for _ in range(_NEWTON_STEPS):
        if not active.size:
            break
        orb = maps.orbits(which[active], x[active])
        shrink = bracketed[active]
        g_here = np.where(shrink, ga[active] + _wrap(orb.gap - ga[active]), orb.gap)
        below = np.sign(g_here) == np.sign(ga[active])
        left[active] = np.where(shrink & below, x[active], left[active])
        right[active] = np.where(shrink & ~below, x[active], right[active])
        lo, hi = left[active], right[active]
        with np.errstate(all="ignore"):
            newton = x[active] - g_here / orb.slope
        inside = (newton >= lo) & (newton <= hi)
        converged = np.abs(g_here) <= orb.noise
        fallback = np.where(shrink, lo + (hi - lo) / 2, np.clip(newton, lo, hi))
        step = np.where(inside, newton, np.where(converged, x[active], fallback))
        done = converged | ~(np.abs(step - x[active]) > 4 * _EPS * np.maximum(1.0, np.abs(x[active])))
        x[active] = step
        active = active[~done]
    return x


def _solve_chord(systems: list, cfg: SolverConfig) -> list:
    """Every cyclic ensemble of each system, as a K-periodic orbit of its chord map.

    A cyclic K-member ensemble on the slice is y_0 .. y_{K-1} on the circle
    with L y_k + f = kappa_k (y_{k+1} - y_k): each y_{k+1} is where the chord
    from y_k along the flow meets the circle again, and kappa_k = 1/t_k.
    So its member angles are roots of g(phi) = wrap(Phi^K(phi) - phi), and
    :func:`_chord_cells` finds them all, each simple root certified alone in
    its cell.  Each root (a polished one, or the middle of a run of
    unresolved cells) is one candidate: its orbit, labelled from it.  The
    other K - 1 roots of an orbit give relabelled copies, counted as
    ``"duplicate"``.  A candidate with two members within ``DEDUP_EPS``
    (a shorter orbit, or a fixed point of the map) is rejected as
    ``"coincident members"``, one with a chord run backwards (t_k <= 0) as
    ``"negative rate"``; the others go straight to ``_verified``.
    ``n_starts`` counts the candidates and ``n_converged`` those with |g| at
    rounding level.  Returns one batch of candidates per system, or None for
    a system left to the multistart (see :func:`_chord_cells`).
    """
    out = [None] * len(systems)
    by_k = {}
    for i, cs in enumerate(systems):
        by_k.setdefault(cs.k, []).append(i)
    for members in by_k.values():
        maps = _ChordMaps([systems[i] for i in members])
        single, runs, n_cells, handed = _chord_cells(maps, len(members))
        which, a, b, ga = (np.concatenate(pair) for pair in zip(single, runs))
        roots = _chord_polish(maps, which, a, b, ga, np.arange(len(which)) < len(single[0]))
        orb = maps.orbits(which, roots)
        unresolved = np.bincount(runs[0], minlength=len(members))
        kept = np.flatnonzero(~handed).tolist()
        owns = [np.flatnonzero(which == s) for s in kept]
        owns = [own[np.argsort(roots[own], kind="stable")] for own in owns]
        for s, batch in zip(kept, _chord_accept([systems[members[s]] for s in kept], cfg, orb, owns)):
            batch.diagnostics.update(n_cells=int(n_cells[s]), n_unresolved=int(unresolved[s]))
            out[members[s]] = batch
    return out


def _chord_accept(systems: list, cfg: SolverConfig, orb: _Orbits, owns: list) -> list:
    """The candidates of each system from its roots ``owns[i]`` in ``orb``,
    one batch per system for ``_verified``.

    A root whose orbit runs through the members of an earlier kept root's of
    its system, each within ``DEDUP_EPS``, is that candidate relabelled and
    counts as ``"duplicate"`` at once; an orbit with coincident members,
    then one with a chord run backwards, is rejected before it can hide a
    later root.  The other candidates, pure by construction, are kept in
    canonical order.  Every test runs on all roots at once; one walk over
    the roots applies them in order.
    """
    if not systems:
        return []
    own = np.concatenate(owns).astype(int)
    system = np.repeat(np.arange(len(systems)), [len(rows) for rows in owns])
    angles, chord = orb.angles[:-1, own].T, orb.chord[:, own].T
    radius = np.sqrt([cs.radius_sq for cs in systems])[system]
    members = -np.array([cs.centre for cs in systems])[system, None] + radius[:, None, None] * np.stack(
        [np.cos(angles), np.sin(angles)], axis=2
    )
    with np.errstate(divide="ignore"):
        theta = np.concatenate([members.reshape(len(own), 2 * systems[0].k), 1 / chord], axis=1)
    states = np.empty((len(own), systems[0].k, systems[0].bm.n_coords))
    kappa = np.empty((len(own), systems[0].k, systems[0].k))
    bounds = np.cumsum([0] + [len(rows) for rows in owns]).tolist()
    for cs, start, end in zip(systems, bounds, bounds[1:]):
        if end > start:
            states[start:end], kappa[start:end] = cs.unpack(theta[start:end])
    # Each root against every earlier root of its system.
    first = np.array(bounds[:-1], dtype=int)[system]
    n_earlier = np.arange(len(own)) - first
    later = np.repeat(np.arange(len(own)), n_earlier)
    earlier = np.arange(len(later)) - np.repeat(np.cumsum(n_earlier) - n_earlier, n_earlier) + first[later]
    hit = _cycle_repeats(angles, radius, later, earlier)
    repeats = {}
    for i, j in zip(later[hit].tolist(), earlier[hit].tolist()):
        repeats.setdefault(i, []).append(j)
    coincident, backwards = _coincident(states).tolist(), (np.min(chord, axis=1) <= 0).tolist()
    converged = np.bincount(system, np.abs(orb.gap[own]) <= orb.noise[own], len(systems)).astype(int).tolist()
    batches = []
    for s, cs in enumerate(systems):
        diagnostics = _new_diagnostics("chord map", len(owns[s]))
        diagnostics["n_converged"] = converged[s]
        kept = []
        for i in range(bounds[s], bounds[s + 1]):
            if any(j in kept for j in repeats.get(i, ())):
                _reject(diagnostics, "duplicate")
            elif coincident[i]:
                _reject(diagnostics, "coincident members")
            elif backwards[i]:
                _reject(diagnostics, "negative rate")
            else:
                kept.append(i)
        order = [kept[j] for j in _canonical_order(states[kept])]
        batches.append(_Batch(cs.bm, cfg.tol, states[order], kappa[order], [None] * len(order), diagnostics))
    return batches


def _cycle_repeats(angles: np.ndarray, radius: np.ndarray, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """For each pair (first[p], second[p]) of rows of ``angles`` (P, K):
    whether the member angles of orbit first[p] are those of orbit second[p]
    started elsewhere, each member within ``DEDUP_EPS`` on a circle of
    ``radius[first[p]]``."""
    a, b = angles[first], angles[second]
    shift = np.argmin(np.abs(_wrap(b - a[:, :1])), axis=1)
    rolled = np.take_along_axis(b, (np.arange(angles.shape[1]) + shift[:, None]) % angles.shape[1], axis=1)
    return radius[first] * np.max(np.abs(_wrap(rolled - a)), axis=1) <= DEDUP_EPS


class _Family(NamedTuple):
    """A rotation family: the plane it turns, from one SVD, and its
    rotation by each angle, from one ``exp_flow`` of the generator."""

    plane: np.ndarray
    rotation: Callable  # angle -> exp(angle * generator)


def _family(generator) -> _Family:
    """The ``_Family`` of a generator; one already built is returned as it is."""
    if isinstance(generator, _Family):
        return generator
    gen = np.asarray(generator, dtype=float)
    return _Family(np.linalg.svd(gen)[0][:, :2], exp_flow(gen))


def family_equivalent(e1: Ensemble, e2: Ensemble, generator: np.ndarray, eps: float = DEDUP_EPS) -> bool:
    """Whether two ensembles differ only by a rotation of the family with
    this generator, given as an array or as its ``_Family``."""
    if e1.k != e2.k:
        return False
    plane, rotation = _family(generator)
    # Align each member of e2 in turn with member 0 of e1; the plane basis
    # from the SVD carries no orientation, so both senses are tried.  Each
    # projection is its own matrix-vector product and each length its own
    # dot product, as for one member alone.
    p1 = plane.T @ e1.states[0]
    a1 = np.arctan2(p1[1], p1[0])
    p2 = (plane.T @ e2.states[:, :, None])[:, :, 0]
    r2 = np.sqrt(np.vecdot(p2, p2))
    for j in np.flatnonzero((r2 >= 1e-12) & ~(np.abs(r2 - np.linalg.norm(p1)) > eps)):
        theta = a1 - np.arctan2(p2[j, 1], p2[j, 0])
        for angle in (theta, -theta):
            if same_ensemble(e1, _Candidate(e2.dim, e2.states @ rotation(angle).T, e2.kappa), eps):
                return True
    return False


def new_ensembles(candidates: list, earlier=(), generators=()) -> list:
    """The candidates, in order, that are new next to ``earlier`` and to each other.

    A candidate is not new when it lies within ``DEDUP_EPS`` of an earlier
    or already kept ensemble, or differs from one only by a rotation of the
    family of any of ``generators``, arrays or their ``_Family``.
    """
    families = [_family(gen) for gen in generators]
    kept = []
    for ens in candidates:
        if not any(
            same_ensemble(ens, prev, DEDUP_EPS) or any(family_equivalent(prev, ens, fam) for fam in families)
            for prev in [*earlier, *kept]
        ):
            kept.append(ens)
    return kept


@dataclass
class ExistenceTable:
    """Distinct-solution counts over a parameter grid plus change points.

    ``diagnostics`` holds the solver's diagnostics at each grid value.
    """

    parameter: str
    values: np.ndarray
    counts: np.ndarray
    thresholds: list
    diagnostics: list = field(default_factory=list)

    def rows(self):
        return list(zip(self.values.tolist(), self.counts.tolist()))


def scan_existence(
    bm_factory,
    values,
    cs_builder,
    cfg: SolverConfig | None = None,
    parameter: str = "parameter",
    quotient_generator: np.ndarray | None = None,
) -> ExistenceTable:
    """Count distinct ensembles at each grid value and locate count changes.

    ``bm_factory`` maps a grid value to a Bloch model, ``cs_builder`` maps
    that model to the constraint system to solve.  Every grid value's
    system is built first and all are solved by one ``solve_systems`` call,
    so same-shape systems share a stack; each value's result is the one
    ``solve_numeric`` gives on its system alone.  The count is that of
    ``new_ensembles``: with a family generator supplied, solutions related by
    the continuous symmetry are counted once.
    """
    cfg = SolverConfig() if cfg is None else cfg
    generators = [] if quotient_generator is None else [_family(quotient_generator)]
    values = np.asarray(list(values), dtype=float)
    solsets = solve_systems([cs_builder(bm_factory(value)) for value in values], cfg)
    counts = np.array(
        [len(new_ensembles(solset.ensembles, generators=generators)) for solset in solsets], dtype=int
    )
    thresholds = [
        float(0.5 * (values[i] + values[i + 1]))
        for i in range(len(values) - 1)
        if counts[i] != counts[i + 1]
    ]
    return ExistenceTable(
        parameter=parameter,
        values=values,
        counts=counts,
        thresholds=thresholds,
        diagnostics=[solset.diagnostics for solset in solsets],
    )
