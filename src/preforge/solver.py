"""Producing ensembles: closed forms, symmetric linear families, multistart.

Three routes are implemented.

* ``analytic_k2``: every real eigenvector of l0 supplies a two-member
  ensemble on the line through the steady state, with rates fixed by the
  eigenvalue and the stationarity split.
* ``solve_wigner_family``: when the generator admits an azimuthal rotation
  symmetry, K equally spaced members on the symmetry circle reduce the
  whole system to two linear equations for the rates out of one member;
  the nonnegative solution polytope is returned through its vertices.
* ``solve_numeric``: seeded multistart Levenberg-Marquardt on any
  assembled constraint system, all starts iterated as one stack, then
  permutation-aware deduplication of the converged points, with
  validation and independent projector-form verification of the distinct
  ones only.  ``solve_systems`` does the same for a list of systems and
  iterates the starts of all same-shape systems in one stack.

What counts as a new ensemble is decided here and nowhere else.  A result
with two members within ``DEDUP_EPS`` is a relabelled smaller ensemble with
a free rate split, so ``solve_numeric`` rejects it; ``new_ensembles`` then
drops results within ``DEDUP_EPS`` of one already listed or related to one
by a continuous symmetry, for ``search`` across its routes and for ``scan``
at each grid value.  ``route_skip_reasons`` says when a numeric route
provably adds nothing to the closed forms, so that it need not be solved.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .algebra import eig_full
from .constraints import (
    KAPPA_REJECT,
    PURITY_TOL,
    ConstraintSystem,
    Ensemble,
    _levenberg_marquardt,
    clamp_rates,
    is_strongly_connected,
    stack_systems,
    verify,
)
from .errors import EnsembleError
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
    "ensemble_distance",
    "dedup",
]

# Two member states, or two ensembles, closer than this are the same.
DEDUP_EPS = 1e-6
# Residual evaluations allowed per multistart start.
MAX_ITER = 200
# Jacobian entries of one Levenberg-Marquardt stack; more starts of one
# shape are iterated in consecutive stacks of whole starts.
_STACK_ENTRIES = 1 << 21


@dataclass(frozen=True)
class SolverConfig:
    """Multistart settings; identical rng_seed gives identical output."""

    tol: float = 1e-10
    seeds: int = 512
    rng_seed: int = 0

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")
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


def ensemble_distance(e1: Ensemble, e2: Ensemble, rate_scale: float = 1.0) -> float:
    """Label-free distance: minimum over member relabelings of the largest
    member displacement plus the scaled rate-matrix mismatch."""
    if e1.k != e2.k or e1.dim != e2.dim:
        return np.inf
    perms = np.array(list(itertools.permutations(range(e1.k))))  # one relabeling per row
    d_states = np.max(np.linalg.norm(e1.states - e2.states[perms], axis=2), axis=1)
    d_kappa = np.max(np.abs(e1.kappa - e2.kappa[perms[:, :, None], perms[:, None, :]]), axis=(1, 2))
    return float(np.min(d_states + d_kappa / rate_scale))


class _Candidate(NamedTuple):
    """A converged start before validation, comparable by ``ensemble_distance``."""

    dim: int
    states: np.ndarray
    kappa: np.ndarray

    @property
    def k(self) -> int:
        return self.states.shape[0]


def _distinct(candidates: list, eps: float, rate_scale: float, accept) -> tuple:
    """Walk ``candidates`` in order and keep those no kept one lies within ``eps`` of.

    ``accept(candidate)`` gives the object to keep for a distinct candidate,
    or None to drop it; a dropped candidate does not hide later ones.
    Returns the kept objects and the number of duplicates skipped.  The
    member centroid does not depend on the labels and moves by at most the
    largest member displacement, hence by at most ``ensemble_distance``; only
    kept objects whose centroid lies that close are compared exactly.
    """
    kept = []
    groups = {}  # (dim, k) -> centroids and objects kept so far
    duplicates = 0
    for cand in candidates:
        centroid = cand.states.mean(axis=0)
        centroids, members = groups.get((cand.dim, cand.k), (np.empty((0, centroid.size)), []))
        # The radius allows for roundoff in the centroids.
        near = np.linalg.norm(centroids - centroid, axis=1) <= 2 * eps + 1e-12
        if not all(
            ensemble_distance(cand, members[j], rate_scale) > eps for j in np.flatnonzero(near)
        ):
            duplicates += 1
            continue
        obj = accept(cand)
        if obj is None:
            continue
        kept.append(obj)
        groups[cand.dim, cand.k] = (np.vstack([centroids, centroid]), members + [obj])
    return kept, duplicates


def dedup(ensembles: list, eps: float = DEDUP_EPS, rate_scale: float = 1.0) -> list:
    """Drop duplicates up to member relabeling; order-stable and idempotent.

    An ensemble is kept unless an earlier kept one lies within ``eps``.  This
    is the walk ``solve_numeric`` makes over its converged points, with
    every distinct ensemble accepted.
    """
    return _distinct(ensembles, eps, rate_scale, lambda ens: ens)[0]


def _canonical_sort(ensembles: list) -> list:
    return sorted(
        ensembles,
        key=lambda e: np.round(np.sort(e.states, axis=0), 9).tobytes(),
    )


def _real_direction(e: np.ndarray):
    """``e`` as a real unit vector, or None if it has an imaginary part."""
    e = np.real_if_close(e)
    if np.max(np.abs(np.imag(e))) > 1e-10:
        return None
    e = np.real(e)
    return e / np.linalg.norm(e)


def analytic_k2(bm: BlochModel) -> SolutionSet:
    """Two-member ensembles from the real eigenvectors of l0.

    The member pair sits where the line through the steady state along an
    eigenvector pierces the pure-state sphere; the rate sum is the negated
    eigenvalue and the split follows the stationary occupations.  Degenerate
    eigenspaces yield one representative tagged as a rotation family.
    """
    spec = eig_full(bm.l0)
    out = []
    tags = []
    diagnostics = {"eigenvalues": [], "skipped": []}
    for cluster in spec.clusters:
        if abs(cluster.value.imag) > spec.tol:
            continue
        lam = cluster.value.real
        pairs = [(i, cluster.vectors[:, i]) for i in range(cluster.vectors.shape[1])]
        degenerate = cluster.geometric >= 2 and not cluster.defective
        reps = pairs[:1] if degenerate else pairs
        for _, e in reps:
            e = _real_direction(e)
            if e is None:
                continue
            # |x_ss + t e|^2 = R^2 at t = centre +- sqrt(disc)
            (centre,), disc = bm.pure_slice(e[:, None])
            if disc <= 0:
                diagnostics["skipped"].append((lam, "line misses the pure sphere"))
                continue
            t_plus = centre + np.sqrt(disc)
            t_minus = centre - np.sqrt(disc)
            x1 = bm.x_ss + t_plus * e
            x2 = bm.x_ss + t_minus * e
            eta1, eta2 = t_plus, -t_minus
            kappa = np.zeros((2, 2))
            kappa[1, 0] = -lam * eta1 / (eta1 + eta2)  # rate 2 <- 1
            kappa[0, 1] = -lam * eta2 / (eta1 + eta2)
            try:
                ens = Ensemble.from_states_kappa(bm.dim, np.array([x1, x2]), kappa)
            except EnsembleError as exc:
                diagnostics["skipped"].append((lam, str(exc)))
                continue
            out.append(ens)
            tags.append(
                {
                    "eigenvalue": lam,
                    "family": "rotation within degenerate eigenspace" if degenerate else None,
                }
            )
            diagnostics["eigenvalues"].append(lam)
    order = np.argsort([t["eigenvalue"] for t in tags]) if tags else []
    return SolutionSet(
        ensembles=[out[i] for i in order],
        diagnostics=diagnostics,
        family_tags=[tags[i] for i in order],
    )


def route_skip_reasons(bm: BlochModel, k: int, slice_dims: list) -> list:
    """For each numeric K-member route, why it provably adds no ensemble, or None to solve it.

    ``slice_dims`` holds each route's invariant-subspace dimension, None for
    the full space.  Both proofs take for granted that results with two
    coincident members are dropped, as ``solve_numeric`` does.

    * K=2: subtracting the two flow rows gives
      l0 (x1 - x2) = -(kappa_12 + kappa_21) (x1 - x2), and the
      occupation-weighted average is x_ss, so every two-member ensemble lies
      on a line through x_ss along a real eigenvector of l0, for any D.  When
      each real eigenvalue has a one-dimensional eigenspace, those lines are
      the ones ``analytic_k2`` cuts with the pure-state sphere, so it already
      lists every K=2 ensemble of every route.
    * K>=3 on a slice of dimension at most 1: a line meets the pure-state
      sphere in at most two points, so two members coincide.
    """
    if k == 2:
        spec = eig_full(bm.l0)
        real = [c for c in spec.clusters if abs(c.value.imag) <= spec.tol]
        if all(c.geometric == 1 and _real_direction(c.vectors[:, 0]) is not None for c in real):
            reason = "analytic_k2 lists every K=2 ensemble: each real eigenvalue of l0 has a 1-D eigenspace"
            return [reason] * len(slice_dims)
    return [
        f"a {n}-D slice holds at most 2 distinct pure states" if k >= 3 and n is not None and n <= 1 else None
        for n in slice_dims
    ]


def _azimuthal_frame(bm: BlochModel, k: int):
    """Rotation generator certified at angle 2*pi/k, its plane and radius."""
    spec = eig_full(bm.l0)
    for cluster in spec.clusters:
        if abs(cluster.value.imag) > spec.tol or cluster.geometric < 2:
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
    out of the first member satisfy two linear equations whose nonnegative
    polytope is returned via its vertices plus one interior point.
    """
    if k < 2:
        raise ValueError("need at least two ensemble members")
    frame = _azimuthal_frame(bm, k)
    if frame is None:
        return SolutionSet(ensembles=[], diagnostics={"reason": "no azimuthal symmetry"})
    gen, e1, e2 = frame
    # The rotation fixes x_ss, so the circle is centred on it.
    _, r_sq = bm.pure_slice(np.column_stack([e1, e2]))
    if r_sq <= 0:
        return SolutionSet(ensembles=[], diagnostics={"reason": "symmetry circle is empty"})
    r = np.sqrt(r_sq)
    angles = 2 * np.pi * np.arange(k) / k
    states = np.array(
        [bm.x_ss + r * (np.cos(a) * e1 + np.sin(a) * e2) for a in angles]
    )

    # Constraint row for member 0 projected on the plane:
    #   sum_j kappa_j0 (cos th_j - 1) = a,  sum_j kappa_j0 sin th_j = c.
    lhs = bm.l0 @ states[0] + bm.b
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
    diagnostics = {
        "linear_system": {"matrix": cols, "rhs": rhs},
        "vertices": vertices,
        "radius": r,
    }
    candidates = list(vertices)
    if len(vertices) > 1:
        candidates.append(np.mean(vertices, axis=0))  # interior point
    out = []
    tags = []
    for rates in candidates:
        kappa = np.zeros((k, k))
        for shift, value in enumerate(rates, start=1):
            if value <= 0:
                continue
            for k0 in range(k):
                kappa[(k0 + shift) % k, k0] = value
        if not is_strongly_connected(kappa):
            diagnostics.setdefault("dropped", []).append(
                {"rates": rates, "reason": "not strongly connected"}
            )
            continue
        try:
            ens = Ensemble.from_states_kappa(bm.dim, states, kappa)
        except EnsembleError as exc:
            diagnostics.setdefault("dropped", []).append({"rates": rates, "reason": str(exc)})
            continue
        if not verify(bm, ens, tol=1e-8).passed:
            diagnostics.setdefault("dropped", []).append(
                {"rates": rates, "reason": "verification failed"}
            )
            continue
        out.append(ens)
        tags.append({"family": "azimuthal rotation", "generator": gen, "rates_out": rates})
    return SolutionSet(ensembles=out, diagnostics=diagnostics, family_tags=tags)


def solve_numeric(cs: ConstraintSystem, cfg: SolverConfig | None = None) -> SolutionSet:
    """Multistart root finding on an assembled constraint system.

    Starts are drawn from the pure-state set (or its subspace slice) with
    log-uniform rates, start i from ``default_rng([cfg.rng_seed, i])``, and
    solved together by a batched Levenberg-Marquardt iteration.  Converged
    points whose residual meets ``cfg.tol`` and whose rates are nonnegative
    up to clamping are rejected when a member maps to a non-positive matrix
    (possible for D > 2 only), then as ``"coincident members"`` when two
    members lie within ``DEDUP_EPS``; the others are sorted canonically and
    deduplicated first; each distinct one is then validated as an
    ``Ensemble`` (pure members, strongly connected graph) and kept only if
    the independent projector-form check passes.  On a graph-consistent
    system every start ends up either kept (``n_accepted``) or counted once
    under ``rejections``, ``"duplicate"`` included.
    """
    return solve_systems([cs], cfg)[0]


def solve_systems(systems: list, cfg: SolverConfig | None = None) -> list:
    """:func:`solve_numeric` on each of ``systems``, one SolutionSet per system.

    The starts of all graph-consistent systems with one ``stack_key`` are
    iterated in one Levenberg-Marquardt stack, each row on its own
    system's model, in consecutive stacks of at most ``_STACK_ENTRIES``
    Jacobian entries.  Starts do not interact, so every start ends where it
    ends when its system is solved alone.
    """
    cfg = SolverConfig() if cfg is None else cfg
    groups = {}
    for i, cs in enumerate(systems):
        if cs.graph_consistent:
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
    return [_accept(cs, cfg, finals.get(i)) for i, cs in enumerate(systems)]


def _positive_members(bm: BlochModel, states: np.ndarray) -> bool:
    """Whether every member maps to a matrix with no eigenvalue below ``-PURITY_TOL``."""
    rho = (np.eye(bm.dim, dtype=complex) + np.tensordot(states, bm.basis.traceless, axes=1)) / bm.dim
    return bool(np.min(np.linalg.eigvalsh(rho)) >= -PURITY_TOL)


def _accept(cs: ConstraintSystem, cfg: SolverConfig, final) -> SolutionSet:
    """The acceptance step of :func:`solve_numeric` on one system's final
    (parameters, residuals, failed) starts; None when the system is not
    graph-consistent and was not solved."""
    diagnostics = {
        "n_starts": cfg.seeds,
        "n_converged": 0,
        "n_accepted": 0,
        "rejections": {},
        "graph_consistent": cs.graph_consistent,
    }
    if final is None:
        diagnostics["reason"] = cs.inconsistency_reason
        return SolutionSet(ensembles=[], diagnostics=diagnostics)

    def reject(reason, count=1):
        diagnostics["rejections"][reason] = diagnostics["rejections"].get(reason, 0) + count

    candidates = []
    for theta, resid, fail in zip(*final):
        if fail:
            reject("solver failure")
            continue
        if np.max(np.abs(resid)) > cfg.tol:
            reject("residual above tolerance")
            continue
        diagnostics["n_converged"] += 1
        states, kappa = cs.unpack(theta)
        if np.min(kappa) < KAPPA_REJECT:
            reject("negative rate")
            continue
        if not _positive_members(cs.bm, states):
            reject("member maps to a non-positive matrix")
            continue
        if min(math.dist(a, b) for a, b in itertools.combinations(states.tolist(), 2)) <= DEDUP_EPS:
            reject("coincident members")
            continue
        candidates.append(_Candidate(cs.bm.dim, states, clamp_rates(kappa)))

    def accept(cand):
        try:
            ens = Ensemble.from_states_kappa(cand.dim, cand.states, cand.kappa)
        except EnsembleError as exc:
            reject(str(exc))
            return None
        if not verify(cs.bm, ens, tol=10 * cfg.tol).passed:
            reject("projector-form verification failed")
            return None
        return ens

    rate_scale = max(np.linalg.norm(cs.bm.l0, 2), 1e-300)
    unique, duplicates = _distinct(_canonical_sort(candidates), DEDUP_EPS, rate_scale, accept)
    if duplicates:
        reject("duplicate", duplicates)
    diagnostics["n_accepted"] = len(unique)
    return SolutionSet(ensembles=unique, diagnostics=diagnostics)


def family_equivalent(e1: Ensemble, e2: Ensemble, generator: np.ndarray, eps: float = DEDUP_EPS) -> bool:
    """Whether two ensembles differ only by a rotation of the given family."""
    if e1.k != e2.k:
        return False
    gen = np.asarray(generator, dtype=float)
    # Align each member of e2 in turn with member 0 of e1; the plane basis
    # from the SVD carries no orientation, so both senses are tried.
    u, _, _ = np.linalg.svd(gen)
    plane = u[:, :2]
    p1 = plane.T @ e1.states[0]
    a1 = np.arctan2(p1[1], p1[0])
    for j in range(e2.k):
        p2 = plane.T @ e2.states[j]
        if np.linalg.norm(p2) < 1e-12 or abs(np.linalg.norm(p2) - np.linalg.norm(p1)) > eps:
            continue
        theta = a1 - np.arctan2(p2[1], p2[0])
        for angle in (theta, -theta):
            rotated = Ensemble.from_states_kappa(
                e2.dim, e2.states @ lie_element(gen, angle).T, e2.kappa.copy(), validate=False
            )
            if ensemble_distance(e1, rotated) <= eps:
                return True
    return False


def new_ensembles(candidates: list, earlier=(), generators=()) -> list:
    """The candidates, in order, that are new next to ``earlier`` and to each other.

    A candidate is not new when it lies within ``DEDUP_EPS`` of an earlier
    or already kept ensemble, or differs from one only by a rotation of the
    family of any of ``generators``.
    """
    kept = []
    for ens in candidates:
        if not any(
            ensemble_distance(ens, prev) <= DEDUP_EPS
            or any(family_equivalent(prev, ens, g) for g in generators)
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
    generators = [] if quotient_generator is None else [quotient_generator]
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
