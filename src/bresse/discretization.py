"""Conforming P1 finite-element discretization of the damped beam system.

All three fields (phi, psi, w) share one mesh of (0, L) whose nodes include
the damping interface points alpha and beta, so the discontinuous
coefficient d(x) is constant on every element and the element integrals are
exact.  Clamped ends are imposed by excluding the boundary nodes from the
degree-of-freedom set; with interior dofs only, the stiffness matrix K and
mass matrix M are positive definite and the energy metric G = diag(K, M)
realizes the continuous energy norm.

Matrices are dense, assembled onto the interior dofs from vectorized
element sums; at desk scale (a few hundred dofs per field) this is both
fastest and simplest.
"""

import threading
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, LinAlgError

from .errors import (
    DimensionMismatch,
    FactorizationFailed,
    IncompatibleBoundary,
    TooCoarse,
)
from .model import ModelParams

__all__ = [
    "FIELDS",
    "Mesh",
    "DofMap",
    "AssembledSystem",
    "StateVector",
    "EnergyComponents",
    "build_mesh",
    "assemble",
    "apply_generator",
    "energy",
    "inner_product_H",
    "g_norm_sq",
    "domain_norm",
    "project_initial_data",
]

FIELDS = ("phi", "psi", "w")


@dataclass(frozen=True, eq=False)
class Mesh:
    """1D mesh with the damping interface aligned to nodes.

    nodes is strictly increasing with nodes[0]=0 and nodes[-1]=L;
    nodes[alpha_index] and nodes[beta_index] equal alpha and beta bit-exactly.
    """

    n_elements: int
    nodes: np.ndarray
    alpha_index: int
    beta_index: int

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.nodes)


class DofMap:
    """Field-major layout of the interior dofs.

    Field blocks are laid out phi, psi, w, each holding the n_interior
    interior nodes in mesh order.
    """

    def __init__(self, n_nodes: int):
        self.n_interior = n_nodes - 2

    @property
    def size(self) -> int:
        return 3 * self.n_interior

    def field_slice(self, field: str) -> slice:
        k = FIELDS.index(field)
        return slice(k * self.n_interior, (k + 1) * self.n_interior)


@dataclass(frozen=True, eq=False)
class StateVector:
    """Discrete state U = (q, v): displacement and velocity blocks.

    Each block stacks the interior nodal values of (phi, psi, w) in dof_map
    order; entries may be real or complex.
    """

    q: np.ndarray
    v: np.ndarray

    def copy(self) -> "StateVector":
        return StateVector(self.q.copy(), self.v.copy())


@dataclass(frozen=True)
class EnergyComponents:
    kinetic: float
    potential: float
    total: float


def build_mesh(p: ModelParams, n_elements: int) -> Mesh:
    """Uniform mesh of (0, L) with alpha and beta snapped onto nodes.

    Snapping moves one node by at most half an element width, so element
    widths stay within a factor 2 of L/n_elements.  Raises TooCoarse when
    the damping interval cannot contain a complete element (including when
    n_elements < 4 or an interface point sits closer to a boundary than
    half an element).
    """
    n = int(n_elements)
    if n < 4:
        raise TooCoarse(f"need at least 4 elements, got {n}")
    h = p.L / n
    nodes = np.linspace(0.0, p.L, n + 1)

    def snap_index(value, lo, hi):
        if value == 0.0:
            return 0
        if value == p.L:
            return n
        i = int(round(value / h))
        return min(max(i, lo), hi)

    ia = snap_index(p.alpha, 1, n - 1)
    ib = snap_index(p.beta, 1, n - 1)
    if ib <= ia:
        raise TooCoarse(
            f"interval ({p.alpha!r}, {p.beta!r}) holds no complete element "
            f"at n={n}"
        )
    if ia > 0:
        nodes[ia] = p.alpha
    if ib < n:
        nodes[ib] = p.beta
    widths = np.diff(nodes)
    if widths.min() < 0.5 * h * (1.0 - 1e-12):
        raise TooCoarse(
            f"snapping alpha/beta at n={n} would distort an element beyond "
            f"the factor-2 width bound; refine the mesh"
        )
    return Mesh(n_elements=n, nodes=nodes, alpha_index=ia, beta_index=ib)


def _field_matrices(nodes: np.ndarray, weights: np.ndarray):
    """Per-field tridiagonal matrices of the P1 products on the interior nodes.

    Returns (A, S, D) with A[i,j] = sum_e w_e int N_i N_j, S[i,j] =
    sum_e w_e int N_i' N_j', D[i,j] = sum_e w_e int N_i' N_j over the
    interior hat functions, each integral over element e.  Exact: all
    integrands are polynomials of degree <= 2.
    """
    h = np.diff(nodes)
    mass_ref = np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0
    stiff_ref = np.array([[1.0, -1.0], [-1.0, 1.0]])
    mixed_ref = np.array([[-0.5, -0.5], [0.5, 0.5]])
    return (
        _interior_sum(weights * h, mass_ref),
        _interior_sum(weights / h, stiff_ref),
        _interior_sum(weights, mixed_ref),
    )


def _interior_sum(scale: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """sum_e scale_e * ref over the elements, restricted to the interior nodes.

    Interior node i takes ref[1, 1] from element i-1 and then ref[0, 0] from
    element i.  Every sum starts from +0.0, so a zero weight adds +0.0 and
    the entries equal an element-by-element accumulation bit for bit.
    """
    T = np.diag((0.0 + scale[:-1] * ref[1, 1]) + scale[1:] * ref[0, 0])
    inner = scale[1:-1]
    i = np.arange(inner.size)
    T[i, i + 1] = 0.0 + inner * ref[0, 1]
    T[i + 1, i] = 0.0 + inner * ref[1, 0]
    return T


class AssembledSystem:
    """Dense matrices of the discretized system, immutable after assembly.

    M, C, K act on the displacement/velocity blocks; the energy metric on
    states (q, v) is G = diag(K, M), which is never formed.  chol_m is the
    lower Cholesky factor of M (a read-only array with a zero upper
    triangle), computed eagerly: it applies M^{-1} for the generator and
    the eigensolver.  The midpoint-step factorization is cached lazily
    behind a lock so the object stays shareable.
    """

    def __init__(self, params: ModelParams, mesh: Mesh):
        self.params = params
        self.mesh = mesh
        self.dof_map = DofMap(mesh.nodes.size)
        self.M, self.C, self.K = _assemble_matrices(params, mesh)
        try:
            self.chol_m = np.tril(cho_factor(self.M, lower=True)[0])
        except LinAlgError as exc:
            raise FactorizationFailed(
                f"mass matrix is not positive definite: {exc}"
            ) from exc
        self.chol_m.flags.writeable = False
        self._cache_lock = threading.Lock()
        self._step_cache: tuple | None = None  # (dt, midpoint-matrix factor)

    @property
    def n_dofs(self) -> int:
        return self.dof_map.size

    def solve_m(self, rhs: np.ndarray) -> np.ndarray:
        return cho_solve((self.chol_m, True), rhs)


def _assemble_matrices(p: ModelParams, mesh: Mesh):
    """Element-exact assembly of M, C, K on interior dofs."""
    damped = np.zeros(mesh.n_elements)
    damped[mesh.alpha_index : mesh.beta_index] = p.d0

    A, S, D = _field_matrices(mesh.nodes, np.ones(mesh.n_elements))
    Ad, Sd, Dd = _field_matrices(mesh.nodes, damped)
    l = p.l

    zero = np.zeros_like(A)
    # Each off-diagonal block is the exact transpose of its mirror, so the
    # three matrices are symmetric bit for bit.
    # Stiffness: k1|phi' + psi + l w|^2 + k2|psi'|^2 + k3|w' - l phi|^2
    K = np.block(
        [
            [p.k1 * S + p.k3 * l * l * A, p.k1 * D, p.k1 * l * D - p.k3 * l * D.T],
            [p.k1 * D.T, p.k1 * A + p.k2 * S, p.k1 * l * A],
            [p.k1 * l * D.T - p.k3 * l * D, p.k1 * l * A, p.k1 * l * l * A + p.k3 * S],
        ]
    )
    # Damping: d(x)|v_w' - l v_phi|^2, active dofs only under (alpha, beta)
    C = np.block(
        [
            [l * l * Ad, zero, -l * Dd.T],
            [zero, zero, zero],
            [-l * Dd, zero, Sd],
        ]
    )
    # Mass: rho1|v_phi|^2 + rho2|v_psi|^2 + rho1|v_w|^2
    M = np.block(
        [
            [p.rho1 * A, zero, zero],
            [zero, p.rho2 * A, zero],
            [zero, zero, p.rho1 * A],
        ]
    )
    return M, C, K


def assemble(p: ModelParams, mesh: Mesh) -> AssembledSystem:
    """Assemble mass, damping and stiffness and factor M for a mesh."""
    return AssembledSystem(p, mesh)


def _check_dims(sys: AssembledSystem, U: StateVector):
    n = sys.n_dofs
    if U.q.shape != (n,) or U.v.shape != (n,):
        raise DimensionMismatch(
            f"state blocks {U.q.shape}/{U.v.shape} do not match {n} dofs"
        )


def apply_generator(sys: AssembledSystem, U: StateVector) -> StateVector:
    """Discrete generator: (q, v) -> (v, -M^{-1}(K q + C v))."""
    _check_dims(sys, U)
    accel = -sys.solve_m(sys.K @ U.q + sys.C @ U.v)
    return StateVector(U.v.copy(), accel)


def energy(sys: AssembledSystem, U: StateVector) -> EnergyComponents:
    """Kinetic/potential split of the energy.

    For complex states the real parts are taken; all quadratic forms here
    are real-valued on Hermitian arguments anyway.
    """
    _check_dims(sys, U)
    kinetic = 0.5 * np.vdot(U.v, sys.M @ U.v).real
    potential = 0.5 * np.vdot(U.q, sys.K @ U.q).real
    return EnergyComponents(
        kinetic=kinetic,
        potential=potential,
        total=kinetic + potential,
    )


def inner_product_H(sys: AssembledSystem, U: StateVector, V: StateVector) -> complex:
    """Energy inner product (U, V) = V* G U with G = diag(K, M)."""
    _check_dims(sys, U)
    _check_dims(sys, V)
    return complex(np.vdot(V.q, sys.K @ U.q) + np.vdot(V.v, sys.M @ U.v))


def g_norm_sq(sys: AssembledSystem, U: StateVector) -> float:
    """Squared energy norm ||U||_G^2 (twice the total energy)."""
    return inner_product_H(sys, U, U).real


def domain_norm(sys: AssembledSystem, U: StateVector) -> float:
    """Graph norm squared ||U||_G^2 + ||A_h U||_G^2."""
    AU = apply_generator(sys, U)
    return g_norm_sq(sys, U) + g_norm_sq(sys, AU)


def project_initial_data(sys: AssembledSystem, fields) -> StateVector:
    """Nodal interpolation of closed-form initial data on sys.mesh.

    fields = (phi0, psi0, w0, phi1, psi1, w1): the first three fill the
    displacement block, the last three the velocity block.  Every function
    must vanish at both ends (|f| <= 1e-12 at x=0 and x=L), matching the
    clamped boundary conditions.
    """
    if len(fields) != 6:
        raise DimensionMismatch(f"expected 6 field functions, got {len(fields)}")
    nodes = sys.mesh.nodes
    L = nodes[-1]
    for i, f in enumerate(fields):
        if abs(f(0.0)) > 1e-12 or abs(f(L)) > 1e-12:
            raise IncompatibleBoundary(
                f"initial field #{i} does not vanish at the clamped ends"
            )
    xi = nodes[1:-1]
    q = np.concatenate([np.asarray([f(x) for x in xi], dtype=float) for f in fields[:3]])
    v = np.concatenate([np.asarray([f(x) for x in xi], dtype=float) for f in fields[3:]])
    return StateVector(q, v)
