"""Shared fixtures for the test suite.

Systems are assembled once per session where reuse is safe; anything a
test mutates gets a fresh build.
"""

import types

import numpy as np
import pytest
from scipy.linalg import eig

from bresse.model import ModelParams
from bresse.discretization import _field_matrices, assemble, build_mesh


def make_params(**overrides):
    """Unit parameter set with damping on (0.25, 0.75); override freely."""
    base = dict(
        rho1=1.0, rho2=1.0, k1=1.0, k2=1.0, k3=1.0,
        l=1.0, L=1.0, d0=1.0, alpha=0.25, beta=0.75,
    )
    base.update(overrides)
    return ModelParams(**base)


def make_system(n, **overrides):
    p = make_params(**overrides)
    return assemble(p, build_mesh(p, n))


@pytest.fixture(scope="session")
def default_params():
    return make_params()


@pytest.fixture(scope="session")
def sys16():
    return make_system(16)


@pytest.fixture(scope="session")
def sys32():
    return make_system(32)


@pytest.fixture(scope="session")
def sys64():
    return make_system(64)


@pytest.fixture(scope="session")
def sys16_undamped():
    return make_system(16, d0=0.0)


def tridiagonal_dense(T):
    """Dense matrix of a tridiagonal from _field_matrices (diagonal, super, sub)."""
    return np.diag(T[0]) + np.diag(T[1][:-1], 1) + np.diag(T[2][:-1], -1)


def reference_matrices(sys):
    """Dense field-major (M, C, K) of a system by np.block, independently of
    its node-major bands: the per-field tridiagonals of _field_matrices are
    expanded to dense matrices and combined block by block.
    """
    p, mesh = sys.params, sys.mesh
    damped = np.zeros(mesh.n_elements)
    damped[mesh.alpha_index : mesh.beta_index] = p.d0
    A, S, D = map(tridiagonal_dense, _field_matrices(mesh.nodes, np.ones(mesh.n_elements)))
    Ad, Sd, Dd = map(tridiagonal_dense, _field_matrices(mesh.nodes, damped))
    l = p.l
    zero = np.zeros_like(A)
    K = np.block([
        [p.k1 * S + p.k3 * l * l * A, p.k1 * D, p.k1 * l * D - p.k3 * l * D.T],
        [p.k1 * D.T, p.k1 * A + p.k2 * S, p.k1 * l * A],
        [p.k1 * l * D.T - p.k3 * l * D, p.k1 * l * A, p.k1 * l * l * A + p.k3 * S],
    ])
    C = np.block([
        [l * l * Ad, zero, -l * Dd.T],
        [zero, zero, zero],
        [-l * Dd, zero, Sd],
    ])
    M = np.block([
        [p.rho1 * A, zero, zero],
        [zero, p.rho2 * A, zero],
        [zero, zero, p.rho1 * A],
    ])
    return M, C, K


def node_major(A):
    """A field-major dense matrix reordered to node-major dofs 3*node + field."""
    order = np.arange(A.shape[0]).reshape(3, -1).T.ravel()
    return A[np.ix_(order, order)]


def lower_band_dense(band):
    """Dense lower-triangular matrix of a LAPACK lower band, band[k, j] = A[j+k, j],
    in the band's dtype."""
    n = band.shape[1]
    out = np.zeros((n, n), dtype=band.dtype)
    for k in range(band.shape[0]):
        out[np.arange(k, n), np.arange(n - k)] = band[k, : n - k]
    return out


def full_band_dense(band):
    """Dense matrix of a LAPACK general band with kl = ku, band[kl + i - j, j] = A[i, j],
    in the band's dtype."""
    kl = (band.shape[0] - 1) // 2
    n = band.shape[1]
    out = np.zeros((n, n), dtype=band.dtype)
    for i in range(n):
        for j in range(max(0, i - kl), min(n, i + kl + 1)):
            out[i, j] = band[kl + i - j, j]
    return out


def dense_lower_band(A, kd):
    """Lower band (kd + 1, N) of a dense symmetric matrix, band[k, j] = A[j+k, j]."""
    n = A.shape[0]
    band = np.zeros((kd + 1, n), dtype=A.dtype)
    for k in range(kd + 1):
        band[k, : n - k] = np.diagonal(A, -k)
    return band


def matrix_system(M, C, K, mesh):
    """A bare system of dense symmetric M, C, K, for the spectral layer.

    It holds the dense matrices, their lower bands as wide as the widest
    of them, solve_m by a dense solve, n_dofs and the given mesh.
    """
    kd = max(int(np.abs(np.subtract(*np.nonzero(A))).max()) for A in (M, C, K))
    return types.SimpleNamespace(
        M=M, C=C, K=K,
        M_band=dense_lower_band(M, kd),
        C_band=dense_lower_band(C, kd),
        K_band=dense_lower_band(K, kd),
        n_dofs=M.shape[0],
        solve_m=lambda rhs: np.linalg.solve(M, rhs),
        mesh=mesh,
    )


def random_state(sys, rng, complex_valued=False):
    """Random state vector sized for the given system."""
    from bresse.discretization import StateVector

    n = sys.n_dofs
    if complex_valued:
        q = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    else:
        q = rng.standard_normal(n)
        v = rng.standard_normal(n)
    return StateVector(q, v)


class MidpointModalOracle:
    """Exact modal propagation of the implicit-midpoint map, dense and direct.

    The companion matrix A_h = [[0, I], [-M^-1 K, -M^-1 C]] is diagonalized
    once, A_h = V diag(s) V^-1.  The midpoint map (I - dt/2 A_h)^-1
    (I + dt/2 A_h) shares the eigenvectors and multiplies mode k by
    r_k = (1 + s_k dt/2) / (1 - s_k dt/2) per step, so the state after any
    number of steps is V diag(r^steps) V^-1 U0 without time stepping.  Its
    roundoff is of order cond(V) * eps per entry.
    """

    def __init__(self, sys, dt):
        n = sys.n_dofs
        self.sys = sys
        companion = np.block([
            [np.zeros((n, n)), np.eye(n)],
            [-np.linalg.solve(sys.M, sys.K), -np.linalg.solve(sys.M, sys.C)],
        ])
        self.s, self.V = eig(companion)
        self.r = (1.0 + 0.5 * dt * self.s) / (1.0 - 0.5 * dt * self.s)
        self.cond = float(np.linalg.cond(self.V))

    def _coefficients(self, U0):
        return np.linalg.solve(self.V, np.concatenate([U0.q, U0.v]))

    def _energies(self, Z):
        # 0.5 (q^H K q + v^H M v) for each column of stacked states Z
        n = self.sys.n_dofs
        q, v = Z[:n], Z[n:]
        return 0.5 * (np.einsum("ij,ij->j", q.conj(), self.sys.K @ q)
                      + np.einsum("ij,ij->j", v.conj(), self.sys.M @ v)).real

    def energies(self, U0, steps):
        """Energies of the midpoint trajectory from U0 after each step count."""
        c = self._coefficients(U0)
        powers = self.r[:, None] ** np.asarray(steps)[None, :]
        return self._energies(self.V @ (c[:, None] * powers))

    def dominant_pair(self, U0):
        """(s, share) of the mode pair holding most of U0's energy.

        A real U0 has conjugate coefficients on conjugate modes, so each
        pair contributes the real state 2 Re(c_k V_k); a real eigenvalue
        contributes c_k V_k.  share is that state's energy over E(U0).
        """
        c = self._coefficients(U0)
        upper = self.s.imag >= 0.0
        weight = np.where(self.s.imag > 0.0, 2.0, 1.0)[upper]
        parts = (weight * c[upper]) * self.V[:, upper]
        pair_energy = self._energies(parts.real)
        k = int(np.argmax(pair_energy))
        total = self._energies(np.concatenate([U0.q, U0.v])[:, None])[0]
        return complex(self.s[upper][k]), float(pair_energy[k] / total)
