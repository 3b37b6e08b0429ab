"""Hermitian operator bases, coherence-vector maps and eigen primitives.

The traceless basis elements are normalized to ``Tr[s_i s_j] = 2 delta_ij``
and the last element is the identity.  With that normalization a pure state
has squared coherence-vector length ``D(D-1)/2`` and purity obeys
``Tr[rho^2] = 1/D + (2/D^2) x.x``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DimensionError, NormalizationError, ShapeError

__all__ = [
    "OperatorBasis",
    "Spectrum",
    "EigenCluster",
    "build_basis",
    "rho_to_bloch",
    "bloch_to_rho",
    "pure_radius_sq",
    "coordinate_rep",
    "block_leak",
    "block_leak_each",
    "eig_full",
    "real_direction",
    "expm",
    "exp_flow",
    "null_space",
    "null_space_each",
    "orth",
    "orth_each",
]


def pure_radius_sq(dim: int) -> float:
    """Squared coherence-vector length of a pure state, D(D-1)/2."""
    return dim * (dim - 1) / 2.0


@dataclass(frozen=True)
class OperatorBasis:
    """Orthogonal Hermitian basis with the identity in the last slot."""

    dim: int
    elements: np.ndarray  # (dim^2, dim, dim) complex

    def __post_init__(self):
        object.__setattr__(self, "elements", np.asarray(self.elements, dtype=complex))

    @property
    def traceless(self) -> np.ndarray:
        """The dim^2 - 1 traceless elements."""
        return self.elements[:-1]


def build_basis(dim: int) -> OperatorBasis:
    """Generalized Gell-Mann basis: symmetric, antisymmetric, diagonal families.

    For ``dim == 2`` this is exactly the Pauli set (sx, sy, sz, identity).
    """
    if dim < 2:
        raise DimensionError(f"basis needs dim >= 2, got {dim}")
    mats = []
    # Symmetric off-diagonal family (sigma_x-like).
    for j in range(dim):
        for k in range(j + 1, dim):
            m = np.zeros((dim, dim), dtype=complex)
            m[j, k] = m[k, j] = 1.0
            mats.append(m)
    # Antisymmetric off-diagonal family (sigma_y-like).
    for j in range(dim):
        for k in range(j + 1, dim):
            m = np.zeros((dim, dim), dtype=complex)
            m[j, k] = -1.0j
            m[k, j] = 1.0j
            mats.append(m)
    # Diagonal family (sigma_z-like), Tr[m^2] = 2.
    for l in range(1, dim):
        d = np.zeros(dim, dtype=complex)
        d[:l] = 1.0
        d[l] = -l
        mats.append(np.diag(d) * np.sqrt(2.0 / (l * (l + 1))))
    mats.append(np.eye(dim, dtype=complex))
    return OperatorBasis(dim=dim, elements=np.array(mats))


def rho_to_bloch(rho: np.ndarray, basis: OperatorBasis) -> np.ndarray:
    """Coherence vector x_i = (D/2) Tr[rho s_i] of a unit-trace matrix."""
    rho = np.asarray(rho, dtype=complex)
    d = basis.dim
    if rho.shape != (d, d):
        raise ShapeError(f"expected {(d, d)} matrix, got {rho.shape}")
    tr = np.trace(rho)
    if abs(tr - 1.0) > 1e-10:
        raise NormalizationError(f"matrix trace {tr} is not 1 within 1e-10")
    x = 0.5 * d * np.einsum("kij,ji->k", basis.traceless, rho)
    return x.real


def bloch_to_rho(x: np.ndarray, basis: OperatorBasis) -> np.ndarray:
    """Reconstruct rho = (1/D)(1 + sum_j x_j s_j); Hermitian with unit trace.

    No positivity check is made: vectors on the pure-radius sphere may still
    map outside the state set for D > 2.
    """
    x = np.asarray(x, dtype=float)
    d = basis.dim
    if x.shape != (d * d - 1,):
        raise ShapeError(f"expected coherence vector of length {d * d - 1}, got {x.shape}")
    rho = (np.eye(d, dtype=complex) + np.tensordot(x, basis.traceless, axes=1)) / d
    return rho


def random_density_matrix(dim: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Random mixed state from a Ginibre factor (full rank by default)."""
    rank = dim if rank is None else rank
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def random_pure_ket(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unit ket."""
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


def coordinate_rep(sop: np.ndarray, basis: OperatorBasis) -> np.ndarray:
    """Real D^2 x D^2 representation of a superoperator on row-major vec(rho).

    It acts on the coordinate vector r (r_j = D Tr[s_j rho] / Tr[s_j^2],
    identity slot last): entry (i, j) is Tr[s_i L(s_j)] / Tr[s_i^2], and since
    the s_i are Hermitian, Tr[s_i X] = conj(vec(s_i)) . vec(X).
    """
    flat = basis.elements.reshape(len(basis.elements), -1)
    norms = np.full(len(flat), 2.0)
    norms[-1] = basis.dim
    return (flat.conj() @ sop @ flat.T).real / norms[:, None]


def block_leak(mat: np.ndarray, basis_i0: np.ndarray, basis_r0: np.ndarray) -> float:
    """Relative block ||basis_r0^T mat basis_i0||_2 / ||mat||_2 carrying span(basis_i0) out.

    For orthonormal columns ``basis_i0`` and an orthonormal basis ``basis_r0``
    of their orthogonal complement it vanishes exactly when ``mat`` maps
    span(basis_i0) into itself.  It is 0 when either basis is empty.
    """
    return float(block_leak_each(mat, [(basis_i0, basis_r0)])[0])


def block_leak_each(mat: np.ndarray, pairs: list) -> np.ndarray:
    """:func:`block_leak` of ``mat`` for each (basis_i0, basis_r0) pair.

    The pairs of one shape share one stacked product and one stacked SVD,
    and each value equals the one computed alone.
    """
    out = np.zeros(len(pairs))
    full = [k for k, (i0, r0) in enumerate(pairs) if i0.size and r0.size]
    if not full:
        return out
    scale = max(np.linalg.norm(mat, 2), 1e-300)
    for members in _by_shape([pairs[k][0] for k in full], [pairs[k][1] for k in full]):
        rows = [full[k] for k in members]
        blocks = np.array([pairs[k][1].T for k in rows]) @ mat @ np.array([pairs[k][0] for k in rows])
        out[rows] = np.linalg.norm(blocks, 2, axis=(1, 2)) / scale
    return out


def _by_shape(*lists) -> list:
    """Index lists of the positions whose entries share their shapes, in first-seen order."""
    groups = {}
    for k, entries in enumerate(zip(*lists)):
        groups.setdefault(tuple(e.shape for e in entries), []).append(k)
    return list(groups.values())


def _svd_ranks(s: np.ndarray, shape: tuple, rcond: float | None) -> np.ndarray:
    """Per row of a stack of singular values, the number above rcond * s_max
    (default eps * max(M, N) for matrices of ``shape``)."""
    if rcond is None:
        rcond = np.finfo(s.dtype).eps * max(shape)
    return np.sum(s > rcond * np.amax(s, axis=-1, keepdims=True, initial=0.0), axis=-1)


def null_space(a: np.ndarray, rcond: float | None = None) -> np.ndarray:
    """Orthonormal basis of the null space of ``a``, as columns (one SVD)."""
    return null_space_each([np.asarray(a)], rcond)[0]


def null_space_each(mats: list, rcond: float | None = None) -> list:
    """:func:`null_space` of each matrix: one stacked SVD per shape."""
    out = [None] * len(mats)
    for members in _by_shape(mats):
        _, s, vh = np.linalg.svd(np.array([mats[k] for k in members]), full_matrices=True)
        for k, rank, vh_k in zip(members, _svd_ranks(s, mats[members[0]].shape, rcond), vh):
            out[k] = vh_k[rank:].conj().T
    return out


def orth(a: np.ndarray, rcond: float | None = None) -> np.ndarray:
    """Orthonormal basis of the column span of ``a``, as columns (one SVD)."""
    return orth_each([np.asarray(a)], rcond)[0]


def orth_each(mats: list, rcond: float | None = None) -> list:
    """:func:`orth` of each matrix: one stacked SVD per shape."""
    out = [None] * len(mats)
    for members in _by_shape(mats):
        u, s, _ = np.linalg.svd(np.array([mats[k] for k in members]), full_matrices=False)
        for k, rank, u_k in zip(members, _svd_ranks(s, mats[members[0]].shape, rcond), u):
            out[k] = u_k[:, :rank]
    return out


# Taylor degree of exp_flow: at ||x||_1 <= 1/2 the truncated tail of exp(x)
# is below 2^-19 / 19! (about 2e-23) relative, far under one rounding.
_TAYLOR_DEGREE = 18
_TAYLOR_ORDERS = np.arange(_TAYLOR_DEGREE + 1)
_TAYLOR_INV_FACTORIALS = np.array([1.0 / math.factorial(k) for k in _TAYLOR_ORDERS])


def exp_flow(b: np.ndarray):
    """``tau -> exp(tau * b)`` by scaling and squaring a degree-18 Taylor sum.

    The powers of b / ||b||_1 are formed once.  For each real tau the step
    tau * b is halved s times until its 1-norm is at most 1/2; its Taylor sum
    is then one weighted sum of the stored powers, squared s times.
    """
    b = np.asarray(b)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise ShapeError(f"expected square matrix, got {b.shape}")
    n = b.shape[0]
    norm = float(np.linalg.norm(b, 1))
    if not np.isfinite(norm):
        raise ShapeError("matrix has non-finite entries")
    unit = b / norm if norm > 0 else b
    powers = [np.eye(n, dtype=unit.dtype)]
    for _ in range(_TAYLOR_DEGREE):
        powers.append(powers[-1] @ unit)
    powers = np.reshape(powers, (_TAYLOR_DEGREE + 1, n * n))

    def at(tau: float) -> np.ndarray:
        step = abs(tau) * norm
        squarings = math.ceil(math.log2(2.0 * step)) if step > 0.5 else 0
        h = tau * norm / 2.0**squarings
        out = ((h**_TAYLOR_ORDERS * _TAYLOR_INV_FACTORIALS) @ powers).reshape(n, n)
        for _ in range(squarings):
            out = out @ out
        return out

    return at


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential exp(a), see :func:`exp_flow`."""
    return exp_flow(a)(1.0)


@dataclass
class EigenCluster:
    """One eigenvalue cluster with multiplicities and any Jordan chains."""

    value: complex
    algebraic: int
    geometric: int
    vectors: np.ndarray  # (n, geometric) ordinary eigenvectors, columns
    jordan_chains: list = field(default_factory=list)  # each a list of vectors

    @property
    def defective(self) -> bool:
        return self.geometric < self.algebraic


@dataclass
class Spectrum:
    """Full eigen-decomposition with a defect report."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns, as returned by the eigensolver
    clusters: list
    tol: float

    @property
    def defective(self) -> bool:
        return any(c.defective for c in self.clusters)

    @property
    def real_clusters(self) -> list:
        """The clusters whose eigenvalue is real to within ``tol``."""
        return [c for c in self.clusters if abs(c.value.imag) <= self.tol]


def real_direction(e: np.ndarray):
    """An eigenvector ``e`` as a real unit vector, or None if it has an
    imaginary part above 1e-10."""
    e = np.real_if_close(e)
    if np.max(np.abs(np.imag(e))) > 1e-10:
        return None
    e = np.real(e)
    return e / np.linalg.norm(e)


def eig_full(m: np.ndarray, tol_scale: float = 1e-8) -> Spectrum:
    """Eigen-decomposition with tolerance-clustered multiplicities.

    Eigenvalues closer than ``tol_scale * ||m||`` are merged into one cluster.
    For each cluster the geometric multiplicity is the SVD-rank deficiency of
    ``m - value*I``; when it falls short of the algebraic multiplicity,
    Jordan chains ``(m - value) e_j = e_{j-1}`` are built on top of each
    ordinary eigenvector.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"expected square matrix, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ShapeError("matrix has non-finite entries")
    n = m.shape[0]
    try:
        vals, vecs = np.linalg.eig(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceError(f"eigensolver failed: {exc}") from exc
    resid = np.linalg.norm(m @ vecs - vecs * vals, axis=0)
    scale = max(np.linalg.norm(m, 2), 1e-300)
    if np.any(resid > 1e-6 * scale):
        raise ConvergenceError("eigenpair residual too large", residual=float(resid.max()))
    tol = tol_scale * scale

    order = np.lexsort((vals.imag, vals.real))
    clusters = []
    used = np.zeros(n, dtype=bool)
    for i in order:
        if used[i]:
            continue
        group = [j for j in range(n) if not used[j] and abs(vals[j] - vals[i]) <= tol]
        for j in group:
            used[j] = True
        value = vals[group].mean()
        shifted = m - value * np.eye(n)
        null = null_space(shifted, rcond=tol / scale)
        geometric = null.shape[1] if null.size else 0
        cluster = EigenCluster(
            value=value,
            algebraic=len(group),
            geometric=max(geometric, 1),
            vectors=null if null.size else vecs[:, group[:1]],
        )
        if cluster.defective:
            cluster.jordan_chains = _jordan_chains(shifted, cluster, tol)
        clusters.append(cluster)
    return Spectrum(eigenvalues=vals, eigenvectors=vecs, clusters=clusters, tol=tol)


def _jordan_chains(shifted: np.ndarray, cluster: EigenCluster, tol: float) -> list:
    """Extend each ordinary eigenvector by generalized ones while consistent."""
    chains = []
    budget = cluster.algebraic - cluster.geometric
    for i in range(cluster.vectors.shape[1]):
        chain = [cluster.vectors[:, i]]
        while budget > 0:
            nxt, *_ = np.linalg.lstsq(shifted, chain[-1], rcond=None)
            if np.linalg.norm(shifted @ nxt - chain[-1]) > tol * max(1.0, np.linalg.norm(nxt)):
                break
            chain.append(nxt)
            budget -= 1
        chains.append(chain)
    return chains
