"""Independent physics for the benchmark checks, in plain numpy/scipy.

Nothing here imports ``preforge``: every quantity a workload check compares
against is rebuilt from the Hamiltonian and jump operators.  Conventions
follow the package README: the traceless generalized Gell-Mann basis
(symmetric, antisymmetric, then diagonal elements, ``Tr[s_i s_j] = 2
delta_ij``), coherence vectors ``x_i = (D/2) Tr[rho s_i]``, and
``kappa[j, k]`` the rate of the transition ``j <- k``.  Superoperators act
on row-major vectorized matrices, ``vec(A X B) = kron(A, B.T) vec(X)``.
"""

from __future__ import annotations

import itertools

import numpy as np
import scipy.linalg as la


def ggm_basis(dim: int) -> np.ndarray:
    """Traceless generalized Gell-Mann matrices, shape (dim^2 - 1, dim, dim)."""
    mats = []
    pairs = [(j, k) for j in range(dim) for k in range(j + 1, dim)]
    for j, k in pairs:
        m = np.zeros((dim, dim), complex)
        m[j, k] = m[k, j] = 1.0
        mats.append(m)
    for j, k in pairs:
        m = np.zeros((dim, dim), complex)
        m[j, k], m[k, j] = -1j, 1j
        mats.append(m)
    for l in range(1, dim):
        d = np.zeros(dim)
        d[:l] = 1.0
        d[l] = -l
        mats.append(np.diag(d * np.sqrt(2.0 / (l * (l + 1)))).astype(complex))
    return np.array(mats)


def bloch_to_rho(x) -> np.ndarray:
    x = np.asarray(x, float)
    dim = int(round(np.sqrt(x.size + 1)))
    return (np.eye(dim) + np.tensordot(x, ggm_basis(dim), axes=1)) / dim


def liouvillian(h, jumps) -> np.ndarray:
    """Lindblad generator -i[H, .] + sum_c (c . c^+ - {c^+ c, .}/2)."""
    h = np.asarray(h, complex)
    eye = np.eye(h.shape[0])
    gen = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for c in jumps:
        c = np.asarray(c, complex)
        cdc = c.conj().T @ c
        gen += np.kron(c, c.conj()) - 0.5 * (np.kron(cdc, eye) + np.kron(eye, cdc.T))
    return gen


def apply(gen: np.ndarray, rho) -> np.ndarray:
    rho = np.asarray(rho, complex)
    return (gen @ rho.ravel()).reshape(rho.shape)


def bloch_generator(gen: np.ndarray):
    """(l0, b, x_ss) of xdot = l0 x + b for a Lindblad generator."""
    dim = int(round(np.sqrt(gen.shape[0])))
    basis = ggm_basis(dim)
    l0 = np.array(
        [[0.5 * np.trace(si @ apply(gen, sj)).real for sj in basis] for si in basis]
    )
    b = np.array([0.5 * np.trace(si @ apply(gen, np.eye(dim))).real for si in basis])
    return l0, b, np.linalg.solve(l0, -b)


def steady_state(gen: np.ndarray) -> np.ndarray:
    """Unit-trace null vector of the generator."""
    null = la.null_space(gen, rcond=1e-12)
    if null.shape[1] != 1:
        raise ValueError(f"generator has a {null.shape[1]}-dimensional kernel")
    dim = int(round(np.sqrt(gen.shape[0])))
    rho = null[:, 0].reshape(dim, dim)
    return rho / np.trace(rho)


def evolve(gen: np.ndarray, rho0, t: float) -> np.ndarray:
    """Reference propagation exp(L t) rho0."""
    rho0 = np.asarray(rho0, complex)
    return (la.expm(gen * t) @ rho0.ravel()).reshape(rho0.shape)


def stationary(kappa) -> np.ndarray:
    """Stationary distribution of the jump chain (kappa[j, k] = rate j <- k)."""
    kappa = np.asarray(kappa, float)
    rates = kappa - np.diag(np.diag(kappa))
    null = la.null_space(rates - np.diag(rates.sum(axis=0)), rcond=1e-12)
    if null.shape[1] != 1:
        raise ValueError("rate matrix has no unique stationary distribution")
    w = null[:, 0]
    return w / w.sum()


def strongly_connected(kappa, tol: float = 1e-9) -> bool:
    adj = (np.asarray(kappa, float) > tol).astype(float) + np.eye(len(kappa))
    reach = np.linalg.matrix_power(adj, len(kappa))
    return bool(np.all(reach > 0))


def projector_residuals(gen: np.ndarray, states, kappa) -> np.ndarray:
    """Per-member Frobenius norm of L P_k - sum_j kappa_jk (P_j - P_k)."""
    projectors = [bloch_to_rho(x) for x in states]
    kappa = np.asarray(kappa, float)
    out = []
    for k, pk in enumerate(projectors):
        rhs = sum(kappa[j, k] * (pj - pk) for j, pj in enumerate(projectors) if j != k)
        out.append(np.linalg.norm(apply(gen, pk) - rhs))
    return np.array(out)


def ensemble_distance(states1, kappa1, states2, kappa2) -> float:
    """Label-free distance: best member relabeling of the largest member
    displacement plus the largest rate mismatch."""
    s1, s2 = np.asarray(states1, float), np.asarray(states2, float)
    k1, k2 = np.asarray(kappa1, float), np.asarray(kappa2, float)
    if s1.shape != s2.shape:
        return np.inf
    best = np.inf
    for perm in itertools.permutations(range(len(s1))):
        p = list(perm)
        d = np.max(np.linalg.norm(s1 - s2[p], axis=1)) + np.max(np.abs(k1 - k2[np.ix_(p, p)]))
        best = min(best, d)
    return float(best)


# ---- models -------------------------------------------------------------


def resonance_fluorescence(gamma: float, omega: float):
    """Driven emitter in the (excited, ground) basis, jump operator i sqrt(gamma) sigma_-."""
    h = 0.5 * omega * np.array([[0, 1], [1, 0]], complex)
    return h, [1j * np.sqrt(gamma) * np.array([[0, 0], [1, 0]], complex)]


def absorption_emission(gamma_minus: float, gamma_plus: float):
    h = np.zeros((2, 2), complex)
    lower = np.array([[0, 0], [1, 0]], complex)
    return h, [np.sqrt(gamma_minus) * lower, np.sqrt(gamma_plus) * lower.T]


def cascade_d3():
    """H = 0.2(|1><2| + |2><1|), L = |1><0|, 0.6|2><1|, 0.3|0><2|."""

    def ket_bra(i, j):
        m = np.zeros((3, 3), complex)
        m[i, j] = 1.0
        return m

    h = 0.2 * (ket_bra(1, 2) + ket_bra(2, 1))
    return h, [ket_bra(1, 0), 0.6 * ket_bra(2, 1), 0.3 * ket_bra(0, 2)]


def rf_bloch(gamma: float, omega: float):
    """Closed-form (l0, b, x_ss) of resonance fluorescence."""
    l0 = np.array([[-gamma / 2, 0, 0], [0, -gamma / 2, -omega], [0, omega, -gamma]])
    b = np.array([0.0, 0.0, -gamma])
    x_ss = np.array([0.0, 2 * gamma * omega, -gamma**2]) / (gamma**2 + 2 * omega**2)
    return l0, b, x_ss


def rf_k2_ensembles(gamma: float, omega: float) -> list:
    """Two-member ensembles from the closed-form l0 and b.

    Each real eigenpair (lam, e) of l0 puts the members where the line
    x_ss + t e meets the pure sphere |x| = 1; the rates out of each member
    follow from l0 (x - x_ss) = lam t e.  Returns (eigenvalue, states,
    kappa) sorted by eigenvalue.
    """
    l0, _, x_ss = rf_bloch(gamma, omega)
    vals, vecs = np.linalg.eig(l0)
    out = []
    for lam, e in zip(vals, vecs.T):
        if abs(lam.imag) > 1e-12:
            continue
        e = np.real(e) / np.linalg.norm(np.real(e))
        dot = e @ x_ss
        disc = dot * dot - (x_ss @ x_ss - 1.0)
        if disc <= 0:
            continue
        t_plus, t_minus = -dot + np.sqrt(disc), -dot - np.sqrt(disc)
        states = np.array([x_ss + t_plus * e, x_ss + t_minus * e])
        kappa = np.zeros((2, 2))
        kappa[1, 0] = -lam.real * t_plus / (t_plus - t_minus)
        kappa[0, 1] = lam.real * t_minus / (t_plus - t_minus)
        out.append((lam.real, states, kappa))
    return sorted(out, key=lambda item: item[0])


def coherence_map(u: np.ndarray, antiunitary: bool = False) -> np.ndarray:
    """Coherence-space matrix of rho -> U rho U^+ (or U rho* U^+)."""
    basis = ggm_basis(u.shape[0])
    images = [u @ (s.conj() if antiunitary else s) @ u.conj().T for s in basis]
    return np.array([[0.5 * np.trace(si @ img).real for img in images] for si in basis])


def phase_generator(dim: int, level: int) -> np.ndarray:
    """Coherence-space generator of the phase rotation exp(i a |l><l|)."""
    proj = np.zeros((dim, dim), complex)
    proj[level, level] = 1.0
    basis = ggm_basis(dim)
    images = [1j * (proj @ s - s @ proj) for s in basis]
    return np.array([[0.5 * np.trace(si @ img).real for img in images] for si in basis])
