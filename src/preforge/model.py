"""Master-equation definition, Bloch-space reduction and unravellings.

A master equation is fixed by a Hermitian Hamiltonian H and jump operators
c_l; its generator acts as

    L rho = -i(H_eff rho - rho H_eff^dag) + sum_l c_l rho c_l^dag,
    H_eff = H - (i/2) sum_l c_l^dag c_l.

Detection settings are parametrized by a semi-unitary matrix S and
local-oscillator amplitudes beta, under which the generator is invariant:

    c'_m = sum_l S_ml c_l + beta_m,
    H'   = H - (i/2) sum_m (conj(beta_m) c'_m - beta_m c'_m^dag).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import OperatorBasis, Spectrum, build_basis, bloch_to_rho, coordinate_rep, eig_full, pure_radius_sq
from .errors import (
    AssumptionError,
    InvalidSettingError,
    NormalizationError,
    ShapeError,
    SteadyStateError,
)

__all__ = [
    "MasterEquation",
    "BlochModel",
    "UnravellingSetting",
    "superoperator",
    "lindbladian",
    "vectorize",
    "transformed_operators",
    "apply_unravelling",
]

_HERM_TOL = 1e-12


@dataclass(frozen=True)
class MasterEquation:
    """Hamiltonian (rate units) plus jump operators (sqrt-rate units).

    Jump operators are made traceless on construction; the discarded trace is
    absorbed into the Hamiltonian so the generator is unchanged.
    """

    dim: int
    hamiltonian: np.ndarray
    lindblads: tuple

    def __init__(self, dim, hamiltonian, lindblads):
        hamiltonian = np.asarray(hamiltonian, dtype=complex)
        if hamiltonian.shape != (dim, dim):
            raise ShapeError(f"hamiltonian must be {dim}x{dim}")
        if np.max(np.abs(hamiltonian - hamiltonian.conj().T)) > _HERM_TOL * max(
            1.0, np.linalg.norm(hamiltonian)
        ):
            raise NormalizationError("hamiltonian is not Hermitian to 1e-12")
        cleaned = []
        ham = hamiltonian.copy()
        for c in lindblads:
            c = np.asarray(c, dtype=complex)
            if c.shape != (dim, dim):
                raise ShapeError(f"jump operator must be {dim}x{dim}")
            alpha = np.trace(c) / dim
            if abs(alpha) > 1e-12:
                warnings.warn(
                    "jump operator has nonzero trace; removing it and "
                    "correcting the Hamiltonian so the generator is unchanged",
                    stacklevel=2,
                )
                c = c - alpha * np.eye(dim)
                # c -> c - alpha is the beta = -alpha relabelling.
                ham = ham + (0.5j) * (np.conj(alpha) * c - alpha * c.conj().T)
            cleaned.append(c)
        if cleaned:
            flat = np.array([c.ravel() for c in cleaned])
            if np.linalg.matrix_rank(flat, tol=1e-10) < len(cleaned):
                raise AssumptionError("jump operators must be linearly independent")
            if len(cleaned) > dim * dim - 1:
                raise AssumptionError("at most D^2 - 1 independent jump operators")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "hamiltonian", ham)
        object.__setattr__(self, "lindblads", tuple(cleaned))

    @property
    def n_channels(self) -> int:
        return len(self.lindblads)

    def effective_hamiltonian(self) -> np.ndarray:
        """H_eff = H - (i/2) sum c^dag c (non-Hermitian)."""
        sink = sum(c.conj().T @ c for c in self.lindblads)
        return self.hamiltonian - 0.5j * sink


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two square matrices, without its per-call overhead of about 25 us."""
    n = a.shape[0] * b.shape[0]
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(n, n)


def superoperator(h_eff: np.ndarray, jumps) -> np.ndarray:
    """-i(H_eff rho - rho H_eff^dag) + sum_m c_m rho c_m^dag as a D^2 x D^2
    matrix acting on the row-major vec(rho), where vec(A rho B) = (A kron B^T) vec(rho)."""
    h_eff = np.asarray(h_eff, dtype=complex)
    eye = np.eye(h_eff.shape[0])
    out = -1j * (_kron(h_eff, eye) - _kron(eye, h_eff.conj()))
    for c in jumps:
        out = out + _kron(c, c.conj())
    return out


def lindbladian(me: MasterEquation) -> np.ndarray:
    """The generator as a D^2 x D^2 matrix on row-major vec(rho)."""
    return superoperator(me.effective_hamiltonian(), me.lindblads)


@dataclass(frozen=True)
class BlochModel:
    """Coherence-space reduction xdot = l0 x + b, steady state x_ss, the
    norm ||l0||_2 and the rate unit 2^round(log2 ||l0||_2), and the
    generator it was reduced from on row-major vec(rho)."""

    me: MasterEquation
    basis: OperatorBasis
    l0: np.ndarray
    b: np.ndarray
    x_ss: np.ndarray
    l0_norm: float
    rate_unit: float
    liouvillian: np.ndarray

    @property
    def dim(self) -> int:
        return self.me.dim

    @property
    def n_coords(self) -> int:
        return self.dim * self.dim - 1

    @cached_property
    def spectrum(self) -> Spectrum:
        """``eig_full(l0)``, computed on first use and then kept."""
        return eig_full(self.l0)

    def steady_rho(self) -> np.ndarray:
        return bloch_to_rho(self.x_ss, self.basis)

    def pure_slice(self, span: np.ndarray):
        """Where the slice x_ss + span(span) cuts the pure-state sphere.

        For orthonormal columns ``span``, x_ss + span @ c is on the sphere
        |x|^2 = D(D-1)/2 iff |c - centre|^2 = radius_sq; returns
        ``(centre, radius_sq)``.  The steady state has full rank (see
        :func:`vectorize`), so |x_ss|^2 < D(D-1)/2 and radius_sq >=
        D(D-1)/2 - |x_ss|^2 > 0: every slice through x_ss meets the sphere.
        """
        proj = span.T @ self.x_ss
        return -proj, pure_radius_sq(self.dim) - self.x_ss @ self.x_ss + proj @ proj


def vectorize(me: MasterEquation, basis: OperatorBasis | None = None) -> BlochModel:
    """Build (l0, b, x_ss) with l0_ij = Tr[s_i L(s_j)]/2, b_i = Tr[s_i L(1)]/2.

    Raises if l0 is singular (no unique steady state), if a mode decays
    slower than 1e-12 ||l0||_2, or if the steady state is rank deficient.
    """
    basis = build_basis(me.dim) if basis is None else basis
    liou = lindbladian(me)
    rep = coordinate_rep(liou, basis)
    l0 = rep[:-1, :-1].copy()
    b = rep[:-1, -1].copy()

    sv = np.linalg.svd(l0, compute_uv=False)  # sv[0] = ||l0||_2
    if sv[0] > 1e12 * sv[-1]:
        raise SteadyStateError("l0 is singular: no unique steady state")
    x_ss = np.linalg.solve(l0, -b)
    if np.max(np.linalg.eigvals(l0).real) >= -1e-12 * sv[0]:
        raise SteadyStateError("l0 has a non-decaying mode: steady state not attracting")
    rho_ss = bloch_to_rho(x_ss, basis)
    if np.min(np.linalg.eigvalsh(rho_ss)) <= 1e-12:
        raise AssumptionError("steady state is rank deficient")
    rate_unit = 2.0 ** np.round(np.log2(sv[0]))
    return BlochModel(
        me=me, basis=basis, l0=l0, b=b, x_ss=x_ss, l0_norm=float(sv[0]), rate_unit=rate_unit, liouvillian=liou
    )


@dataclass(frozen=True)
class UnravellingSetting:
    """Detection setting: semi-unitary s (M x L) and amplitude vector beta (M)."""

    s: np.ndarray
    beta: np.ndarray

    def __init__(self, s, beta):
        s = np.atleast_2d(np.asarray(s, dtype=complex))
        beta = np.atleast_1d(np.asarray(beta, dtype=complex))
        m, l = s.shape
        if m < l:
            raise InvalidSettingError("need at least as many detectors as channels")
        if beta.shape != (m,):
            raise InvalidSettingError(f"beta must have length {m}")
        if np.max(np.abs(s.conj().T @ s - np.eye(l))) > 1e-10:
            raise InvalidSettingError("s is not semi-unitary (s^dag s != 1)")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "beta", beta)

    @classmethod
    def identity(cls, n_channels: int) -> "UnravellingSetting":
        return cls(np.eye(n_channels), np.zeros(n_channels))

    @property
    def n_detectors(self) -> int:
        return self.s.shape[0]


def transformed_operators(me: MasterEquation, s: np.ndarray, beta: np.ndarray):
    """Transformed jump operators and no-jump operator, without validation.

    Returns ``(jumps, h_eff)`` with ``jumps[m] = sum_l S_ml c_l + beta_m`` and
    ``h_eff = H' - (i/2) sum_m c'_m^dag c'_m`` built on the compensated
    Hamiltonian H'; the generator rebuilt from them equals the original.
    """
    eye = np.eye(me.dim)
    jumps = [
        sum(s[m, l] * me.lindblads[l] for l in range(me.n_channels)) + beta[m] * eye
        for m in range(len(beta))
    ]
    h = me.hamiltonian.copy()
    for m, c in enumerate(jumps):
        h = h - 0.5j * (np.conj(beta[m]) * c - beta[m] * c.conj().T)
    return jumps, h - 0.5j * sum(c.conj().T @ c for c in jumps)


def apply_unravelling(me: MasterEquation, u: UnravellingSetting):
    """:func:`transformed_operators` of a setting checked against the model."""
    if u.s.shape[1] != me.n_channels:
        raise InvalidSettingError(
            f"setting mixes {u.s.shape[1]} channels, model has {me.n_channels}"
        )
    return transformed_operators(me, u.s, u.beta)
