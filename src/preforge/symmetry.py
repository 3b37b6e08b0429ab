"""Dynamical symmetries of the Bloch-space generator.

Two reductions are supported:

* invariant subspaces: projective subspaces of the steady-state-centred
  coordinates mapped into themselves by the flow of l0 (including the
  generalized-eigenvector construction when l0 is defective);
* Wigner symmetries: orthogonal coherence-space maps t0 commuting with l0
  and fixing the drift vector (hence the steady state), corresponding to
  unitary or antiunitary transformations of the underlying Hilbert space.
"""

from __future__ import annotations

import collections
import functools
import itertools
import logging
from dataclasses import dataclass

import numpy as np

from .algebra import (
    block_leak_each,
    expm,
    null_space,
    null_space_each,
    orth,
    orth_each,
    random_pure_ket,
    rho_to_bloch,
)
from .constraints import Ensemble, _levenberg_marquardt
from .errors import ShapeError, SubspaceError
from .model import BlochModel

__all__ = [
    "InvariantSubspace",
    "WignerSymmetry",
    "FamilyTag",
    "find_invariant_subspaces",
    "find_wigner_symmetries",
    "certify_wigner",
    "lie_element",
    "apply_wigner",
]

_log = logging.getLogger("preforge")

CERT_TOL = 1e-8
WITNESS_STARTS = 8
WITNESS_TOL = 1e-12
WITNESS_MAX_ITER = 100
# Angle of the representative rotation reported for each rotation generator.
REP_ANGLE = np.pi / 3
# Most Wigner candidates certified in one stack (more come in further stacks);
# a D = 4 stack's structure tensors then stay near 14 MB.
_WIGNER_STACK = 256


@dataclass(frozen=True)
class FamilyTag:
    """Marks a subspace that stands for a continuous family of equal ones."""

    kind: str
    description: str
    generator: np.ndarray | None = None


@dataclass(frozen=True)
class InvariantSubspace:
    """Orthonormal basis of an invariant subspace plus its complement."""

    basis_i0: np.ndarray  # (n_coords, N)
    basis_r0: np.ndarray  # (n_coords, n_coords - N)
    n: int
    certificate: float  # ||basis_r0^T l0 basis_i0|| / ||l0||
    pure_witness: np.ndarray | None  # a pure coherence vector inside the slice
    family: FamilyTag | None = None
    tags: tuple = ()

    def distance(self, u: np.ndarray) -> float:
        u = np.asarray(u, dtype=float)
        return float(np.linalg.norm(u - self.basis_i0 @ (self.basis_i0.T @ u)))


@dataclass(frozen=True)
class WignerSymmetry:
    """Orthogonal coherence-space action of an inner-product-preserving map."""

    t0: np.ndarray
    antiunitary: bool
    generator_tag: str | None = None
    generator: np.ndarray | None = None


class _KetSlice:
    """Residual map of kets psi (stacked as [Re psi, Im psi]) onto slices.

    Row j is psi^dag M_j psi = r_j^T (x(psi) - x_ss) for unit psi, with
    M_j = (D/2) sum_i (r0)_ij s_i - (r_j^T x_ss) 1 for each complement
    column r_j; the row after them is psi^dag psi - 1.  Every row is a real
    quadratic form theta^T Q theta, so the Jacobian 2 Q theta is exact.
    All slices share one stack, and ``which`` picks each row's slice.  Each
    slice's rows are padded with zero forms to one width: the widest
    complement the enumeration can make (D^2 - D, from a slice of dimension
    D - 1) plus the norm row, or the widest slice given if that is wider.
    All forms come from one stacked product, and a slice rounds the same
    alone or stacked with any others.  ``n_constraints`` holds each slice's
    unpadded count, which decides its damping.  Each :meth:`evaluate` call
    adds one to ``counts["witness evaluations"]`` and its row count to
    ``counts["witness row evaluations"]``.
    """

    def __init__(self, bm: BlochModel, complements: list, counts: collections.Counter):
        d, n_slices = bm.dim, len(complements)
        self.n_constraints = np.array([basis_r0.shape[1] + 1 for basis_r0 in complements])
        self.n_params = 2 * d
        width = max(bm.n_coords - d + 2, *self.n_constraints)
        columns = np.zeros((n_slices, width, bm.n_coords))  # each complement's columns, then zero rows
        for s, basis_r0 in enumerate(complements):
            columns[s, : basis_r0.shape[1]] = basis_r0.T
        herm = 0.5 * d * (columns @ bm.basis.traceless.reshape(bm.n_coords, -1)).reshape(n_slices, width, d, d)
        herm -= (columns @ bm.x_ss)[:, :, None, None] * np.eye(d)
        norm_row = (np.arange(n_slices), self.n_constraints - 1)
        herm[norm_row] = np.eye(d)
        self.forms = np.block([[herm.real, -herm.imag], [herm.imag, herm.real]])  # symmetric
        self.shift = (np.arange(width) == norm_row[1][:, None]).astype(float)
        self.counts = counts

    def evaluate(self, theta: np.ndarray, which) -> tuple:
        """Residuals (S, width) and Jacobians (S, width, 2D) of a stack, both from one product Q theta."""
        self.counts["witness evaluations"] += 1
        self.counts["witness row evaluations"] += len(theta)
        forms = self.forms.reshape(len(self.forms), -1, self.n_params)
        q_theta = (forms.take(which, axis=0) @ theta[:, :, None]).reshape(len(theta), -1, self.n_params)
        resid = np.einsum("smp,sp->sm", q_theta, theta) - self.shift.take(which, axis=0)
        q_theta *= 2.0  # the Jacobian, in place: the gathered forms are already freed
        return resid, q_theta


@functools.cache
def _witness_starts(dim: int) -> np.ndarray:
    """The ``WITNESS_STARTS`` seeded Haar kets of one dimension, as [Re psi, Im psi] rows.

    Built on first use and kept, so every witness search of a dimension
    starts from the same rows without drawing them again.
    """
    rng = np.random.default_rng(dim * dim - 1)
    kets = [random_pure_ket(dim, rng) for _ in range(WITNESS_STARTS)]
    starts = np.array([np.concatenate([psi.real, psi.imag]) for psi in kets])
    starts.setflags(write=False)
    return starts


def _pure_witnesses(bm: BlochModel, slices: list, counts: collections.Counter | None = None) -> list:
    """A pure state in each translated slice {x_ss + span(basis_i0)}, or None.

    ``slices`` holds (basis_i0, basis_r0) pairs.  Every slice meets the
    pure sphere (see :meth:`BlochModel.pure_slice`), and for a qubit every
    point of that sphere is a state.  In larger dimension the witness is the
    coherence vector of a ket psi solving the quadratic equations of
    :class:`_KetSlice` (one per complement column plus the norm).  Each slice
    gets the same seeded Haar starts (:func:`_witness_starts`), all slices
    share one batched Levenberg-Marquardt solve whatever their complement
    dimension, and a slice's first root within ``WITNESS_TOL`` gives an
    exactly pure witness.  A slice leaves the solve once that root is
    final (every lower-index start has ended), and a start that reaches a
    positive minimum ends there, so each witness is the one that running
    every start to its end would give.  ``None`` then means no root was
    reached from those starts, which does not prove that the slice holds no
    pure state.  ``counts`` tallies the stacks, rows and residual
    evaluations, and the rows those evaluations held.
    """
    counts = collections.Counter() if counts is None else counts
    if bm.dim == 2:
        witnesses = []
        for basis_i0, _ in slices:
            centre, r_sq = bm.pure_slice(basis_i0)
            direction = np.eye(basis_i0.shape[1])[0]
            witnesses.append(bm.x_ss + basis_i0 @ (centre + np.sqrt(r_sq) * direction))
        return witnesses
    witnesses = [None] * len(slices)
    if not slices:
        return witnesses
    counts["witness stacks"] += 1
    counts["witness rows"] += len(slices) * WITNESS_STARTS
    theta, resid, failed = _levenberg_marquardt(
        _KetSlice(bm, [basis_r0 for _, basis_r0 in slices], counts),
        np.tile(_witness_starts(bm.dim), (len(slices), 1)),
        WITNESS_TOL,
        WITNESS_MAX_ITER,
        np.repeat(np.arange(len(slices)), WITNESS_STARTS),
        first_root=WITNESS_STARTS,
    )
    root = ~failed & (np.max(np.abs(resid), axis=1) <= WITNESS_TOL)
    for i, own in enumerate(root.reshape(len(slices), WITNESS_STARTS)):
        if own.any():
            row = theta[i * WITNESS_STARTS + np.argmax(own)]
            psi = row[: bm.dim] + 1j * row[bm.dim :]
            psi /= np.linalg.norm(psi)
            witnesses[i] = rho_to_bloch(np.outer(psi, psi.conj()), bm.basis)
    return witnesses


def _certified(bm: BlochModel, candidates: list, counts: collections.Counter, strict=False) -> list:
    """Each candidate (basis_i0, family, tags, witness) as a certified subspace,
    or ``None`` when its block certificate fails or no pure state is found in
    its slice; ``strict`` raises :class:`SubspaceError` instead.  A given
    ``witness`` is reused; the other slices are solved in one
    :func:`_pure_witnesses` call.  ``counts`` tallies the outcomes.
    """
    complements = null_space_each([c[0].T for c in candidates])  # (n_coords, 0) for the whole space
    certs = block_leak_each(bm.l0, [(c[0], r0) for c, r0 in zip(candidates, complements)])
    pending = [i for i, c in enumerate(candidates) if certs[i] <= CERT_TOL and c[3] is None]
    slices = [(candidates[i][0], complements[i]) for i in pending]
    solved = dict(zip(pending, _pure_witnesses(bm, slices, counts)))
    out = []
    for i, (basis_i0, family, tags, witness) in enumerate(candidates):
        counts["tested"] += 1
        if certs[i] > CERT_TOL:
            counts["not invariant"] += 1
            if strict:
                raise SubspaceError(f"span is not invariant: certificate {certs[i]:.3e}")
            out.append(None)
            continue
        if witness is not None:
            counts["inherited"] += 1
        elif solved[i] is not None:
            witness = solved[i]
            counts["solved"] += 1
        else:
            counts["no witness"] += 1
            if strict:
                raise SubspaceError("span admits no pure state")
            out.append(None)
            continue
        n = basis_i0.shape[1]
        out.append(InvariantSubspace(basis_i0, complements[i], n, float(certs[i]), witness, family, tags))
    return out


def _realify(vectors: list) -> np.ndarray:
    """Real column span of a list of possibly complex vectors."""
    cols = []
    for v in vectors:
        v = np.asarray(v)
        if np.max(np.abs(v.imag)) > 1e-12 * max(1.0, np.max(np.abs(v))):
            cols.append(v.real)
            cols.append(v.imag)
        else:
            cols.append(v.real)
    return np.column_stack(cols)


def find_invariant_subspaces(bm: BlochModel) -> list:
    """Enumerate invariant subspaces containing at least one pure state.

    Atomic candidates come from real eigenvectors, realified complex
    conjugate pairs, and generalized-eigenvector chain prefixes when l0 is
    defective; unions of atoms fill in the dimensions from D-1, the least
    that can hold a pure state, to D^2-2, one below the whole space.
    Degenerate eigenspaces stand for continuous families and carry a
    :class:`FamilyTag` with an in-space rotation generator.  Candidates
    are kept when a pure witness is found (see :func:`_pure_witnesses`), so
    a missing subspace is not a proof that its slice holds no pure state.
    The outcome counts go to the ``preforge`` logger at debug level.
    """
    n = bm.n_coords
    spec = bm.spectrum

    atoms = []  # (columns, tag template, eigenvalue, family)

    for cluster in spec.clusters:
        if abs(cluster.value.imag) > spec.tol:
            if cluster.value.imag > 0:  # one atom per conjugate pair
                for i in range(cluster.vectors.shape[1]):
                    cols = _realify([cluster.vectors[:, i]])
                    atoms.append((cols, "pair(re={})", cluster.value.real, None))
        else:
            space = _realify([cluster.vectors[:, i] for i in range(cluster.vectors.shape[1])])
            space = orth(space, rcond=1e-10)
            m = space.shape[1]
            if m == 1:
                atoms.append((space, "eig({})", cluster.value.real, None))
            else:
                # Degenerate eigenspace: every ray inside it is invariant.
                gen = np.zeros((n, n))
                rot = np.zeros((m, m))
                rot[0, 1], rot[1, 0] = -1.0, 1.0
                gen += space @ rot @ space.T
                family = FamilyTag(
                    kind="eigenspace-rotation",
                    description=(
                        "canonical ray of a degenerate eigenspace; every image "
                        "under exp(angle * generator) is equally invariant"
                    ),
                    generator=gen,
                )
                atoms.append((space[:, :1], "eig({})-ray", cluster.value.real, family))
                atoms.append((space, "eig({})-space", cluster.value.real, None))
        for chain in cluster.jordan_chains:
            for j in range(2, len(chain) + 1):
                cols = orth(_realify(chain[:j]), rcond=1e-10)
                atoms.append((cols, f"chain(len={j},eig={{}})", cluster.value.real, None))

    # Witness existence is monotone: a span of atoms holds the slice of
    # every sub-span, so a candidate reuses the witness of any witnessed
    # subset of its atoms, met at an earlier level (number of atoms).  A
    # projector met before is decided already.  Tags print eigenvalues in
    # model units; the order uses the rate unit, so no time unit changes it.
    def tags(combo, unit=1.0):
        return tuple(atoms[i][1].format(f"{atoms[i][2] / unit:.6g}") for i in combo)

    results = []  # (order key, subspace)
    # Projectors met so far, by dimension: a buffer whose first rows hold them
    # and their count; a full buffer grows to twice its rows plus 16.
    # Projectors of unequal rank have unequal traces, so some diagonal entry
    # differs by 1/n or more and only equal ranks need comparing.
    seen = {}
    witnessed = []  # (atom index set, witness)
    counts = collections.Counter()

    for size in range(1, len(atoms) + 1):
        level = []  # (atom index set, order key, candidate)
        combos = list(itertools.combinations(range(len(atoms)), size))
        spans = orth_each([np.column_stack([atoms[i][0] for i in combo]) for combo in combos], rcond=1e-10)
        for combo, basis_i0 in zip(combos, spans):
            if not (bm.dim - 1 <= basis_i0.shape[1] <= n - 1):
                continue
            proj = basis_i0 @ basis_i0.T
            projectors, n_seen = seen.get(basis_i0.shape[1], (np.empty((0, n, n)), 0))
            if np.any(np.max(np.abs(projectors[:n_seen] - proj), axis=(1, 2)) < 1e-8):
                counts["repeat"] += 1
                continue
            if n_seen == len(projectors):
                projectors = np.concatenate([projectors, np.empty((n_seen + 16, n, n))])
            projectors[n_seen] = proj
            seen[basis_i0.shape[1]] = projectors, n_seen + 1
            members = frozenset(combo)
            inherited = next((w for held, w in witnessed if held <= members), None)
            family = next((atoms[i][3] for i in combo if atoms[i][3] is not None), None)
            key = (basis_i0.shape[1], tags(combo, bm.rate_unit))
            level.append((members, key, (basis_i0, family, tags(combo), inherited)))
        subs = _certified(bm, [candidate for _, _, candidate in level], counts)
        for (members, key, _), sub in zip(level, subs):
            if sub is not None:
                witnessed.append((members, sub.pure_witness))
                results.append((key, sub))

    _log.debug(
        "invariant subspaces: %d candidates tested, %d witnessed by solve, "
        "%d witness inherited, %d rejected as a repeat, %d no witness found, "
        "%d not invariant, %d witness stacks, %d witness rows, %d witness evaluations, "
        "%d witness row evaluations",
        counts["tested"], counts["solved"], counts["inherited"], counts["repeat"],
        counts["no witness"], counts["not invariant"], counts["witness stacks"],
        counts["witness rows"], counts["witness evaluations"], counts["witness row evaluations"],
    )
    results.sort(key=lambda item: item[0])
    return [sub for _, sub in results]


def subspace_from_span(bm: BlochModel, columns: np.ndarray, family: FamilyTag | None = None) -> InvariantSubspace:
    """Certify an explicitly given span as an invariant subspace.

    ``columns`` holds the spanning vectors as columns (or as rows); each
    needs D^2 - 1 coordinates.  Raises when the span has rank 0, the block
    certificate fails or no pure state is found in the translated slice.
    """
    span = np.atleast_2d(np.asarray(columns, dtype=float))
    span = span if span.shape[0] == bm.n_coords else span.T
    if span.shape[0] != bm.n_coords:
        raise ShapeError(
            f"span vectors need D^2-1 = {bm.n_coords} coordinates; got shape {np.shape(columns)}"
        )
    basis_i0 = orth(span, rcond=1e-10)
    if basis_i0.shape[1] == 0:
        raise SubspaceError("span has rank 0: it needs at least one nonzero vector")
    candidate = (basis_i0, family, ("explicit",), None)
    return _certified(bm, [candidate], collections.Counter(), strict=True)[0]


_WIGNER_LIMITS = {
    "orthogonality": 1e-10,
    "commutation": CERT_TOL,
    "drift": CERT_TOL,
    "steady_state": CERT_TOL,
}
_STRUCTURE = {}  # basis bytes -> T_ijk = Tr(s_i s_j s_k) / 2


def _structure_constants(basis) -> np.ndarray:
    """T_ijk = Tr(s_i s_j s_k)/2 = d_ijk + i f_ijk over the traceless basis.

    Built on first use and kept per basis, so a dimension pays for it once.
    """
    key = basis.elements.tobytes()
    if key not in _STRUCTURE:
        s = basis.traceless
        _STRUCTURE[key] = 0.5 * np.einsum("iab,jbc,kca->ijk", s, s, s, optimize=True)
    return _STRUCTURE[key]


def _wigner_reports(bm: BlochModel, t0s: np.ndarray) -> list:
    """The :func:`certify_wigner` report of each candidate of a stack (N, n, n),
    each check run once on the stack (the structure tensors on the candidates
    that pass the algebraic checks); every report is the one its t0 gets alone."""
    t0s_t = np.swapaxes(t0s, 1, 2)
    checks = {
        "orthogonality": np.max(np.abs(t0s_t @ t0s - np.eye(bm.n_coords)), axis=(1, 2)),
        "commutation": np.linalg.svd(t0s_t @ bm.l0 @ t0s - bm.l0, compute_uv=False)[:, 0] / bm.l0_norm,
        "drift": np.linalg.norm(t0s @ bm.b - bm.b, axis=1) / max(np.linalg.norm(bm.b), 1e-300),
        "steady_state": np.linalg.norm(t0s @ bm.x_ss - bm.x_ss, axis=1) / max(np.linalg.norm(bm.x_ss), 1e-300),
    }
    algebraic = np.all([checks[key] <= limit for key, limit in _WIGNER_LIMITS.items()], axis=0)
    checks["state_set"] = np.full(len(t0s), np.nan)
    antiunitary = np.full(len(t0s), None)
    if algebraic.any():
        tensor = image = _structure_constants(bm.basis)
        passed_t = t0s_t[algebraic, None]
        for _ in range(3):  # each t0 on all three indices: sum_ijk t0_ai t0_bj t0_ck T_ijk
            image = np.moveaxis(image @ passed_t, -1, 1)
        checks["state_set"][algebraic] = np.max(np.abs(image.real - tensor.real), axis=(1, 2, 3))
        # Antiunitary: t0 flips f rather than keeping it, |f' + f| < |f' - f|, i.e. <f', f> < 0.
        antiunitary[algebraic] = image.imag.reshape(len(image), -1) @ tensor.imag.ravel() < 0
    limits = dict(_WIGNER_LIMITS, state_set=CERT_TOL)
    reports = []
    for i, anti in enumerate(antiunitary):
        report = {key: float(values[i]) for key, values in checks.items()}
        report["antiunitary"] = None if anti is None else bool(anti)
        report["failed"] = next((key for key, limit in limits.items() if not report[key] <= limit), None)
        report["certified"] = report["failed"] is None
        reports.append(report)
    return reports


def certify_wigner(bm: BlochModel, t0: np.ndarray) -> dict:
    """Residuals of the Wigner-symmetry conditions for a candidate t0.

    The algebraic checks are orthogonality, commutation with l0 and the
    fixed drift and steady state.  An orthogonal t0 maps states to states
    exactly when it is a Jordan automorphism, i.e. when it preserves the
    symmetric structure tensor d_ijk of the basis (Kadison; Wigner's
    theorem), so ``state_set`` is max|t0.d - d| with t0 acting on all three
    indices.  It is computed only when the algebraic checks pass and is
    ``nan`` otherwise.  d vanishes for a qubit, where every orthogonal t0
    qualifies.  A certified t0 preserves the antisymmetric tensor f_ijk
    (unitary) or flips its sign (antiunitary); ``antiunitary`` records
    which, and is ``None`` when ``state_set`` was not computed.  For a
    qubit it equals det t0 < 0.  ``failed`` names the first check that
    fails, in report order, or is ``None``.  It is the one-candidate
    stack of :func:`_wigner_reports`.
    """
    return _wigner_reports(bm, np.asarray(t0, dtype=float)[None])[0]


def _lie_generators(bm: BlochModel) -> list:
    """Antisymmetric solutions of A l0 = l0 A, A b = 0 (rotation generators)."""
    n = bm.n_coords
    upper = np.nonzero(np.arange(n)[:, None] < np.arange(n))  # the pairs i < j, in row order
    pairs = np.arange(len(upper[0]))
    units = np.zeros((len(pairs), n, n))  # one unit generator per coordinate pair
    units[(pairs, *upper)], units[(pairs, *upper[::-1])] = 1.0, -1.0
    system = np.concatenate([(units @ bm.l0 - bm.l0 @ units).reshape(len(pairs), -1), units @ bm.b], axis=1).T
    null = null_space(system, rcond=1e-10).T
    gens = np.zeros((len(null), n, n))
    gens[:, upper[0], upper[1]], gens[:, upper[1], upper[0]] = null, -null
    # Unit angular speed: exp(theta * a) rotates its leading plane by theta.
    return list(gens / np.linalg.svd(gens, compute_uv=False)[:, :1, None])


def lie_element(gen: np.ndarray, angle: float) -> np.ndarray:
    """Group element exp(angle * generator)."""
    return expm(angle * np.asarray(gen, dtype=float))


def _free_components(bm: BlochModel) -> tuple:
    """Components of the coupling graph that a sign flip may negate.

    Coordinates i and j are linked when max(|l0_ij|, |l0_ji|) exceeds
    (CERT_TOL/2) ||l0||: a flip across the link moves t0 l0 t0 by twice
    that entry, which already breaks commutation.  For the same reason a
    component holding a coordinate with |b_i| or |x_ss,i| above CERT_TOL/2
    of its norm stays fixed.  Returns the number of components and the
    free ones, each as the index array of its coordinates, ordered by their
    first coordinate.
    """
    n = bm.n_coords
    half = 0.5 * CERT_TOL
    coupled = np.abs(bm.l0) > half * bm.l0_norm
    reach = coupled | coupled.T | np.eye(n, dtype=bool)
    for _ in range((n - 1).bit_length()):
        reach = reach @ reach
    root = np.argmax(reach, axis=1)  # first coordinate of each one's component
    pinned = (np.abs(bm.b) > half * np.linalg.norm(bm.b)) | (
        np.abs(bm.x_ss) > half * np.linalg.norm(bm.x_ss)
    )
    roots = np.flatnonzero(root == np.arange(n))
    return len(roots), [np.flatnonzero(root == r) for r in roots if not pinned[root == r].any()]


def find_wigner_symmetries(bm: BlochModel) -> list:
    """Orthogonal symmetries of the generator, each certified exactly.

    The connected component is found by solving the linear commutant problem
    for antisymmetric generators; each one is reported as a representative
    rotation by ``REP_ANGLE`` carrying its generator.  Discrete candidates
    are the coordinate sign flips that are constant on each component of
    the generator's coupling graph and leave the drift and steady state
    alone (see :func:`_free_components`); every flip that can pass
    the algebraic checks is among them.  All candidates are certified in one
    stacked pass of :func:`certify_wigner`'s checks (:func:`_wigner_reports`),
    which decide each one through the structure constants and set
    ``antiunitary`` for every D.  Symmetries outside the rotations and the
    sign flips, such as the coordinate swaps of a qubit's rotation axis, are
    not listed; on a qubit with a rotation generator those swaps are
    products of a reported rotation and a reported flip.  The screen's
    counts go to the ``preforge`` logger at debug level.
    """
    gens = _lie_generators(bm)
    n_components, free = _free_components(bm)
    # The rotations (with their generator's index), then the flips constant on
    # each free component, in product order over the components and without
    # the identity; for components ordered by their first coordinate this is
    # the order of a product over coordinates.
    def flips():
        for signs in itertools.islice(itertools.product((1.0, -1.0), repeat=len(free)), 1, None):
            diagonal = np.ones(bm.n_coords)
            for coords, sign in zip(free, signs):
                diagonal[coords] = sign
            yield np.diag(diagonal), None

    candidates = itertools.chain(((lie_element(gen, REP_ANGLE), g) for g, gen in enumerate(gens)), flips())
    out, counts = [], collections.Counter()
    while stack := list(itertools.islice(candidates, _WIGNER_STACK)):
        for (t0, g), report in zip(stack, _wigner_reports(bm, np.array([t0 for t0, _ in stack]))):
            if g is None:
                counts["tested"] += 1
                counts[report["failed"] or "certified"] += 1
            if report["certified"]:
                tag = None if g is None else f"rotation[{g}] angle={REP_ANGLE:.6g}"
                out.append(WignerSymmetry(t0, report["antiunitary"], tag, None if g is None else gens[g]))
    _log.debug(
        "wigner symmetries: %d coupling components, %d free components, "
        "%d candidates tested, %d certified, %d rejected by commutation, "
        "%d rejected by drift, %d rejected by steady state, %d rejected by state set",
        n_components, len(free), counts["tested"], counts["certified"], counts["commutation"],
        counts["drift"], counts["steady_state"], counts["state_set"],
    )
    return out


def apply_wigner(w: WignerSymmetry, ens: Ensemble) -> Ensemble:
    """Map every member through t0, keeping rates and occupations.

    A certified symmetry sends solutions of the realizability condition to
    solutions; the image is revalidated by :meth:`Ensemble.from_states_kappa`,
    which raises :class:`EnsembleError` if any state leaves the state set.
    """
    return Ensemble.from_states_kappa(ens.dim, ens.states @ w.t0.T, ens.kappa.copy())
