"""Shared fixtures for the test suite.

Systems are assembled once per session where reuse is safe; anything a
test mutates gets a fresh build.
"""

import itertools
import types

import numpy as np
import pytest
from scipy.linalg import block_diag, eig

from bresse.model import ModelParams
from bresse.discretization import _band_csr, assemble, build_mesh


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


def energy_strains(p):
    """The strains (k, coefficients of (phi', psi', w'), coefficients of
    (phi, psi, w)) of the mass, damping and stiffness energies of p."""
    l = p.l
    return {
        "M": [(p.rho1, (0, 0, 0), (1, 0, 0)), (p.rho2, (0, 0, 0), (0, 1, 0)),
              (p.rho1, (0, 0, 0), (0, 0, 1))],
        "C": [(1.0, (0, 0, 1), (-l, 0, 0))],
        "K": [(p.k1, (1, 0, 0), (0, 1, l)), (p.k2, (0, 1, 0), (0, 0, 0)),
              (p.k3, (0, 0, 1), (-l, 0, 0))],
    }


def element_loop(nodes, weights, strains):
    """Dense node-major matrix, interior dofs only, of the energy sum_e
    weights[e] sum_s k_s int_e |a_s . (phi', psi', w') + b_s . (phi, psi,
    w)|^2 over the P1 elements of the mesh with these nodes.

    A plain loop: each element's matrix entry for local dofs (i, g) and
    (j, f), field g at node i and field f at node j, is (c / h) P + c Q
    + (c h) R, where P, Q and R sum over the strains the products k (a_g
    a_f), k (a_g b_f), k (b_g a_f) and k (b_g b_f), scaled by the exact
    P1 integrals (h N_i')(h N_j'), h N_i' / 2, h N_j' / 2 and (1 + [i =
    j]) / 6, with h N_0' = -1 and h N_1' = 1.  Entries are added into a
    matrix of zeros element by element, in the order of the elements.
    """
    n = len(nodes) - 1
    A = np.zeros((3 * (n + 1), 3 * (n + 1)))
    slope = (-1.0, 1.0)
    for e in range(n):
        h, c = nodes[e + 1] - nodes[e], weights[e]
        for i, g, j, f in itertools.product(range(2), range(3), range(2), range(3)):
            P = Qa = Qb = R = 0.0
            for k, a, b in strains:
                P += (float(a[g]) * a[f]) * k
                Qa += (float(a[g]) * b[f]) * k
                Qb += (float(b[g]) * a[f]) * k
                R += (float(b[g]) * b[f]) * k
            P *= slope[i] * slope[j]
            Q = Qa * (0.5 * slope[i]) + Qb * (0.5 * slope[j])
            R *= (2 if i == j else 1) / 6.0
            A[3 * (e + i) + g, 3 * (e + j) + f] += (P * (c / h) + Q * c) + R * (c * h)
    return A[3:-3, 3:-3]


def reference_matrices(sys):
    """Dense node-major (M, C, K) of a system by element_loop, independently
    of its bands: the damping weight is d0 on the elements of (alpha,
    beta) and 0 elsewhere, every other weight 1."""
    p, mesh = sys.params, sys.mesh
    n = mesh.n_elements
    damped = [p.d0 if mesh.alpha_index <= e < mesh.beta_index else 0.0 for e in range(n)]
    weights = {"M": [1.0] * n, "C": damped, "K": [1.0] * n}
    return tuple(
        element_loop(mesh.nodes, weights[name], strains)
        for name, strains in energy_strains(p).items()
    )


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


def matrix_system(M, C, K):
    """A bare system of dense symmetric M, C, K, for the spectral layer.

    It holds the dense matrices, their lower bands as wide as the widest
    of them, the CSR of diag(K, M, C) from those bands, solve_m by a
    dense solve and n_dofs.
    """
    kd = max(int(np.abs(np.subtract(*np.nonzero(A))).max()) for A in (M, C, K))
    M_band, C_band, K_band = (dense_lower_band(A, kd) for A in (M, C, K))
    return types.SimpleNamespace(
        M=M, C=C, K=K,
        M_band=M_band, C_band=C_band, K_band=K_band,
        KMC_csr=_band_csr(K_band, M_band, C_band),
        n_dofs=M.shape[0],
        solve_m=lambda rhs: np.linalg.solve(M, rhs),
    )


def random_state(sys, rng, complex_valued=False):
    """Random flat state (q, v) of shape (2 n_dofs,) for the given system,
    q drawn before v."""
    n = sys.n_dofs
    if complex_valued:
        q = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    else:
        q = rng.standard_normal(n)
        v = rng.standard_normal(n)
    return np.concatenate((q, v))


def dense_generator(sys):
    """The companion matrix A_h = [[0, I], [-M^-1 K, -M^-1 C]], dense."""
    n = sys.n_dofs
    return np.block([
        [np.zeros((n, n)), np.eye(n)],
        [-np.linalg.solve(sys.M, sys.K), -np.linalg.solve(sys.M, sys.C)],
    ])


def energy_generator(sys):
    """L^T A L^-T with G = diag(K, M) = L L^T: the generator in coordinates
    where the G-norm is the 2-norm, all dense."""
    L = block_diag(np.linalg.cholesky(sys.K), np.linalg.cholesky(sys.M))
    return L.T @ np.linalg.solve(L, dense_generator(sys).T).T


def dense_resolvent_norm(At, lam):
    """||R(lam)||_G = 1 / sigma_min(i lam - At), At from energy_generator.

    Taken as the 2-norm of the LU inverse: the SVD of i lam - At is only
    normwise backward stable, and at the n = 64 peaks, where sigma_min
    falls to 2.6e-10 ||At||_2, its sigma_min was up to 9.1e-9 off.
    """
    return float(np.linalg.norm(np.linalg.inv(1j * lam * np.eye(At.shape[0]) - At), 2))


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
        self.sys = sys
        self.s, self.V = eig(dense_generator(sys))
        self.r = (1.0 + 0.5 * dt * self.s) / (1.0 - 0.5 * dt * self.s)
        self.cond = float(np.linalg.cond(self.V))

    def _coefficients(self, U0):
        return np.linalg.solve(self.V, U0)

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
        total = self._energies(U0[:, None])[0]
        return complex(self.s[upper][k]), float(pair_energy[k] / total)
