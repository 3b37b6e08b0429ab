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

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from .algebra import bloch_to_rho, build_basis, eig_full, random_pure_ket, rho_to_bloch
from .constraints import Ensemble
from .errors import ShapeError, SubspaceError, SymmetryViolationError
from .model import BlochModel

__all__ = [
    "InvariantSubspace",
    "WignerSymmetry",
    "FamilyTag",
    "JointReport",
    "find_invariant_subspaces",
    "block_form",
    "BlockForm",
    "find_wigner_symmetries",
    "certify_wigner",
    "lie_element",
    "check_joint",
    "apply_wigner",
]

CERT_TOL = 1e-8


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

    def contains(self, u: np.ndarray, tol: float = 1e-8) -> bool:
        """Whether a centred vector u lies in the subspace."""
        u = np.asarray(u, dtype=float)
        return self.distance(u) <= tol * max(1.0, np.linalg.norm(u))

    def distance(self, u: np.ndarray) -> float:
        u = np.asarray(u, dtype=float)
        return float(np.linalg.norm(u - self.basis_i0 @ (self.basis_i0.T @ u)))


@dataclass(frozen=True)
class WignerSymmetry:
    """Orthogonal coherence-space action of an inner-product-preserving map."""

    t0: np.ndarray
    antiunitary: bool | None  # None when the dichotomy was not decided
    generator_tag: str | None = None
    generator: np.ndarray | None = None


def _orthonormalize(columns: np.ndarray, rcond: float = 1e-10) -> np.ndarray:
    """Orthonormal basis of the column span (SVD-based, rank-revealing)."""
    q, s, _ = np.linalg.svd(columns, full_matrices=False)
    rank = int(np.sum(s > rcond * (s[0] if s.size else 1.0)))
    return q[:, :rank]


def _pure_witness(bm: BlochModel, basis_i0: np.ndarray, n_samples: int = 64) -> np.ndarray | None:
    """A pure state in the translated slice {x_ss + span(basis_i0)}, if any.

    Pure candidates sit on a sphere in slice coordinates.  For a qubit every
    point of it is a valid state; in larger dimension valid points are a
    measure-zero subset of that sphere, so sampled starts are polished by
    maximizing the smallest reconstruction eigenvalue over the sphere.
    """
    centre, r_sq = bm.pure_slice(basis_i0)
    if r_sq <= 0:
        return None
    r = np.sqrt(r_sq)
    n_sub = basis_i0.shape[1]

    def point(raw):
        direction = raw / np.linalg.norm(raw)
        return bm.x_ss + basis_i0 @ (centre + r * direction)

    if bm.dim == 2:
        return point(np.eye(n_sub)[0])

    def negativity(raw):
        rho = bloch_to_rho(point(raw), bm.basis)
        return -float(np.min(np.linalg.eigvalsh(rho)))

    rng = np.random.default_rng(len(bm.x_ss) * 1000 + n_sub)  # deterministic screen
    best = None
    for _ in range(n_samples):
        raw = rng.normal(size=n_sub)
        value = negativity(raw)
        if best is None or value < best[0]:
            best = (value, raw)
        if value <= 1e-9:
            return point(raw)
    from scipy.optimize import minimize

    for start in (best[1], rng.normal(size=n_sub), rng.normal(size=n_sub)):
        res = minimize(negativity, start, method="Nelder-Mead",
                       options={"fatol": 1e-12, "xatol": 1e-10, "maxiter": 2000})
        if res.fun <= 1e-9:
            return point(res.x)
    return None


def _certificate(bm: BlochModel, basis_i0: np.ndarray, basis_r0: np.ndarray) -> float:
    scale = max(np.linalg.norm(bm.l0, 2), 1e-300)
    if basis_r0.size == 0:
        return 0.0
    return float(np.linalg.norm(basis_r0.T @ bm.l0 @ basis_i0, 2) / scale)


def _certified_subspace(
    bm: BlochModel, basis_i0: np.ndarray, family: FamilyTag | None, tags: tuple
) -> InvariantSubspace:
    """The subspace with orthonormal basis ``basis_i0``, once certified.

    Raises when the block certificate fails or no pure state lies in the
    translated slice.
    """
    basis_r0 = la.null_space(basis_i0.T)  # (n_coords, 0) for the whole space
    cert = _certificate(bm, basis_i0, basis_r0)
    if cert > CERT_TOL:
        raise SubspaceError(f"span is not invariant: certificate {cert:.3e}")
    witness = _pure_witness(bm, basis_i0)
    if witness is None:
        raise SubspaceError("span admits no pure state")
    return InvariantSubspace(
        basis_i0=basis_i0,
        basis_r0=basis_r0,
        n=basis_i0.shape[1],
        certificate=cert,
        pure_witness=witness,
        family=family,
        tags=tags,
    )


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


def find_invariant_subspaces(
    bm: BlochModel, n_min: int | None = None, n_max: int | None = None
) -> list:
    """Enumerate invariant subspaces containing at least one pure state.

    Atomic candidates come from real eigenvectors, realified complex
    conjugate pairs, and generalized-eigenvector chain prefixes when l0 is
    defective; unions of atoms fill in the requested dimension range.
    Degenerate eigenspaces stand for continuous families and carry a
    :class:`FamilyTag` with an in-space rotation generator.
    """
    n = bm.n_coords
    n_min = bm.dim - 1 if n_min is None else n_min
    n_max = n - 1 if n_max is None else min(n_max, n - 1)
    if n_min < bm.dim - 1:
        raise SubspaceError(f"n_min must be at least D-1 = {bm.dim - 1}")
    spec = eig_full(bm.l0)

    atoms = []  # (columns, tag, family)

    for cluster in spec.clusters:
        if abs(cluster.value.imag) > spec.tol:
            if cluster.value.imag > 0:  # one atom per conjugate pair
                for i in range(cluster.vectors.shape[1]):
                    cols = _realify([cluster.vectors[:, i]])
                    atoms.append((cols, f"pair(re={cluster.value.real:.6g})", None))
        else:
            space = _realify([cluster.vectors[:, i] for i in range(cluster.vectors.shape[1])])
            space = _orthonormalize(space)
            m = space.shape[1]
            if m == 1:
                atoms.append((space, f"eig({cluster.value.real:.6g})", None))
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
                atoms.append((space[:, :1], f"eig({cluster.value.real:.6g})-ray", family))
                atoms.append((space, f"eig({cluster.value.real:.6g})-space", None))
        for chain in cluster.jordan_chains:
            for j in range(2, len(chain) + 1):
                cols = _orthonormalize(_realify(chain[:j]))
                atoms.append((cols, f"chain(len={j},eig={cluster.value.real:.6g})", None))

    results = []
    seen_projectors = []

    for size in range(1, len(atoms) + 1):
        for combo in itertools.combinations(range(len(atoms)), size):
            basis_i0 = _orthonormalize(np.column_stack([atoms[i][0] for i in combo]))
            if not (n_min <= basis_i0.shape[1] <= n_max):
                continue
            proj = basis_i0 @ basis_i0.T
            if any(np.max(np.abs(p - proj)) < 1e-8 for p in seen_projectors):
                continue
            families = [atoms[i][2] for i in combo if atoms[i][2] is not None]
            tags = tuple(atoms[i][1] for i in combo)
            try:
                sub = _certified_subspace(bm, basis_i0, families[0] if families else None, tags)
            except SubspaceError:
                continue
            seen_projectors.append(proj)
            results.append(sub)

    results.sort(key=lambda s: (s.n, s.tags))
    return results


def subspace_from_span(bm: BlochModel, columns: np.ndarray, family: FamilyTag | None = None) -> InvariantSubspace:
    """Certify an explicitly given span as an invariant subspace.

    ``columns`` holds the spanning vectors as columns (or as rows); each
    needs D^2 - 1 coordinates.  Raises when the block certificate fails or
    no pure state lies in the translated slice.
    """
    span = np.atleast_2d(np.asarray(columns, dtype=float))
    span = span if span.shape[0] == bm.n_coords else span.T
    if span.shape[0] != bm.n_coords:
        raise ShapeError(
            f"span vectors need D^2-1 = {bm.n_coords} coordinates; got shape {np.shape(columns)}"
        )
    return _certified_subspace(bm, _orthonormalize(span), family, ("explicit",))


@dataclass(frozen=True)
class BlockForm:
    """Generator blocks in a subspace-adapted orthonormal basis."""

    l_i0: np.ndarray
    l_i0r0: np.ndarray
    l_r0: np.ndarray
    is_dual_invariant: bool


def block_form(bm: BlochModel, sub: InvariantSubspace) -> BlockForm:
    """Blocks of l0 adapted to the subspace; lower-left must vanish."""
    cert = _certificate(bm, sub.basis_i0, sub.basis_r0)
    if cert > CERT_TOL:
        raise SubspaceError(f"subspace certificate violated: {cert:.3e}")
    scale = max(np.linalg.norm(bm.l0, 2), 1e-300)
    l_i0 = sub.basis_i0.T @ bm.l0 @ sub.basis_i0
    l_i0r0 = sub.basis_i0.T @ bm.l0 @ sub.basis_r0
    l_r0 = sub.basis_r0.T @ bm.l0 @ sub.basis_r0
    return BlockForm(
        l_i0=l_i0,
        l_i0r0=l_i0r0,
        l_r0=l_r0,
        is_dual_invariant=bool(np.linalg.norm(l_i0r0, 2) <= CERT_TOL * scale),
    )


def certify_wigner(bm: BlochModel, t0: np.ndarray, n_state_samples: int = 200) -> dict:
    """Residuals of the Wigner-symmetry conditions for a candidate t0.

    The sampled state-set test (D > 2) runs only when the algebraic checks
    pass; otherwise ``state_set`` is reported as ``nan``.
    """
    t0 = np.asarray(t0, dtype=float)
    n = bm.n_coords
    scale = max(np.linalg.norm(bm.l0, 2), 1e-300)
    report = {
        "orthogonality": float(np.max(np.abs(t0.T @ t0 - np.eye(n)))),
        "commutation": float(np.linalg.norm(t0.T @ bm.l0 @ t0 - bm.l0, 2) / scale),
        "drift": float(
            np.linalg.norm(t0 @ bm.b - bm.b) / max(np.linalg.norm(bm.b), 1e-300)
        ),
        "steady_state": float(
            np.linalg.norm(t0 @ bm.x_ss - bm.x_ss) / max(np.linalg.norm(bm.x_ss), 1e-300)
        ),
        "state_set": 0.0,
    }
    algebraic = (
        report["orthogonality"] <= 1e-10
        and report["commutation"] <= CERT_TOL
        and report["drift"] <= CERT_TOL
        and report["steady_state"] <= CERT_TOL
    )
    if bm.dim > 2 and not algebraic:
        report["state_set"] = float("nan")
    elif bm.dim > 2:
        rng = np.random.default_rng(n)
        worst = 0.0
        for _ in range(n_state_samples):
            psi = random_pure_ket(bm.dim, rng)
            x = rho_to_bloch(np.outer(psi, psi.conj()), bm.basis)
            image = bloch_to_rho(t0 @ x, bm.basis)
            worst = max(worst, -float(np.min(np.linalg.eigvalsh(image))))
        report["state_set"] = worst
    report["certified"] = algebraic and report["state_set"] <= 1e-8
    return report


def _antiunitary_flag(bm: BlochModel, t0: np.ndarray) -> bool | None:
    """For a qubit the Bloch action decides the dichotomy by orientation."""
    if bm.dim == 2:
        return bool(np.linalg.det(t0) < 0)
    return None


def _lie_generators(bm: BlochModel) -> list:
    """Antisymmetric solutions of A l0 = l0 A, A b = 0 (rotation generators)."""
    n = bm.n_coords
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    cols = []
    for i, j in pairs:
        a = np.zeros((n, n))
        a[i, j], a[j, i] = 1.0, -1.0
        cols.append(np.concatenate([(a @ bm.l0 - bm.l0 @ a).ravel(), a @ bm.b]))
    system = np.column_stack(cols) if cols else np.zeros((n * n + n, 0))
    null = la.null_space(system, rcond=1e-10)
    gens = []
    for idx in range(null.shape[1]):
        a = np.zeros((n, n))
        for (i, j), value in zip(pairs, null[:, idx]):
            a[i, j], a[j, i] = value, -value
        # Unit angular speed: exp(theta * a) rotates its leading plane by theta.
        a /= np.linalg.norm(a, 2)
        gens.append(a)
    return gens


def lie_element(gen: np.ndarray, angle: float) -> np.ndarray:
    """Group element exp(angle * generator)."""
    return la.expm(angle * np.asarray(gen, dtype=float))


def _signed_permutations(n: int):
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1.0, -1.0), repeat=n):
            t = np.zeros((n, n))
            for row, (col, s) in enumerate(zip(perm, signs)):
                t[row, col] = s
            yield t


def _diagonal_signs(n: int):
    for signs in itertools.product((1.0, -1.0), repeat=n):
        yield np.diag(np.array(signs))


def find_wigner_symmetries(bm: BlochModel, rep_angle: float = np.pi / 3) -> list:
    """Orthogonal symmetries of the generator.

    The connected component is found by solving the linear commutant problem
    for antisymmetric generators; each one is reported as a representative
    rotation by ``rep_angle`` carrying its generator.  Discrete candidates
    are screened from signed permutation matrices (diagonal sign flips only
    once the coordinate count makes full enumeration unreasonable).
    """
    n = bm.n_coords
    out = []
    for g_idx, gen in enumerate(_lie_generators(bm)):
        t0 = lie_element(gen, rep_angle)
        report = certify_wigner(bm, t0)
        if report["certified"]:
            out.append(
                WignerSymmetry(
                    t0=t0,
                    antiunitary=_antiunitary_flag(bm, t0),
                    generator_tag=f"rotation[{g_idx}] angle={rep_angle:.6g}",
                    generator=gen,
                )
            )
    candidates = _signed_permutations(n) if n <= 3 else _diagonal_signs(n)
    for t0 in candidates:
        if np.max(np.abs(t0 - np.eye(n))) < 1e-12:
            continue
        report = certify_wigner(bm, t0)
        if report["certified"]:
            out.append(
                WignerSymmetry(t0=t0, antiunitary=_antiunitary_flag(bm, t0))
            )
    return out


@dataclass
class JointReport:
    """Compatibility of an invariant subspace with a Wigner symmetry."""

    off_block_norm: float
    blocks_decouple: bool
    restricted_commutes: bool
    steady_state_fixed: bool
    full_space_symmetry: bool
    passed: bool

    def __str__(self):
        return (
            f"{'PASS' if self.passed else 'FAIL'}: "
            f"off-blocks {self.off_block_norm:.2e}, "
            f"restricted commutation {self.restricted_commutes}, "
            f"steady state fixed {self.steady_state_fixed}, "
            f"full-space symmetry {self.full_space_symmetry}"
        )


def check_joint(sub: InvariantSubspace, w: WignerSymmetry, bm: BlochModel) -> JointReport:
    """Check that a symmetry restricts to the subspace.

    Requires the symmetry's off-diagonal blocks (in the subspace-adapted
    basis) to vanish, the restriction to commute with the restricted
    generator and the steady state to be fixed.  The full-space flag records
    whether the symmetry also holds on the complement, which is not needed
    for searching inside the subspace.
    """
    bi, br = sub.basis_i0, sub.basis_r0
    t0 = w.t0
    t_ir = bi.T @ t0 @ br
    t_ri = br.T @ t0 @ bi
    off = float(max(np.max(np.abs(t_ir), initial=0.0), np.max(np.abs(t_ri), initial=0.0)))
    blocks_decouple = off <= CERT_TOL
    t_i = bi.T @ t0 @ bi
    l_i = bi.T @ bm.l0 @ bi
    scale = max(np.linalg.norm(l_i, 2), 1e-300)
    if blocks_decouple:  # t_i is orthogonal on the subspace, hence invertible
        restricted = bool(
            np.linalg.norm(np.linalg.solve(t_i, l_i @ t_i) - l_i, 2) <= CERT_TOL * scale
        )
    else:
        restricted = bool(
            np.linalg.norm(np.linalg.pinv(t_i) @ l_i @ t_i - l_i, 2) <= CERT_TOL * scale
        )
    steady = bool(
        np.linalg.norm(t0 @ bm.x_ss - bm.x_ss)
        <= CERT_TOL * max(np.linalg.norm(bm.x_ss), 1.0)
    )
    full_scale = max(np.linalg.norm(bm.l0, 2), 1e-300)
    full = bool(
        np.linalg.norm(t0.T @ bm.l0 @ t0 - bm.l0, 2) <= CERT_TOL * full_scale
        and np.linalg.norm(t0 @ bm.b - bm.b) <= CERT_TOL * max(np.linalg.norm(bm.b), 1.0)
    )
    return JointReport(
        off_block_norm=off,
        blocks_decouple=blocks_decouple,
        restricted_commutes=restricted,
        steady_state_fixed=steady,
        full_space_symmetry=full,
        passed=blocks_decouple and restricted and steady,
    )


def apply_wigner(w: WignerSymmetry, ens: Ensemble) -> Ensemble:
    """Map every member through t0, keeping rates and occupations.

    A certified symmetry sends solutions of the realizability condition to
    solutions; the image is revalidated and rejected if any state leaves the
    state set.
    """
    new_states = ens.states @ w.t0.T
    basis = build_basis(ens.dim)
    for x in new_states:
        rho = bloch_to_rho(x, basis)
        if np.min(np.linalg.eigvalsh(rho)) < -1e-9:
            raise SymmetryViolationError("symmetry image leaves the state set")
    return Ensemble.from_states_kappa(ens.dim, new_states, ens.kappa.copy())
