"""Conforming P1 finite-element discretization of the damped beam system.

All three fields (phi, psi, w) share one mesh of (0, L) whose nodes include
the damping interface points alpha and beta, so the discontinuous
coefficient d(x) is constant on every element and the element integrals are
exact.  Clamped ends are imposed by excluding the boundary nodes from the
degree-of-freedom set; with interior dofs only, the stiffness matrix K and
mass matrix M are positive definite and the energy metric G = diag(K, M)
realizes the continuous energy norm.

Every dof is numbered node-major, 3*node + field for the fields (phi,
psi, w) = (0, 1, 2).  A state U = (q, v) is one flat array: q = U[:N],
then v = U[N:], N = n_dofs.  M, C and K are stored once, as lower
symmetric bands (bandwidth 5), assembled element by element from the
seven squared strains of the energy.  The bands are the stored form and
feed the banded Cholesky factors (dpbtrf) of M, once at assembly, and of
the midpoint matrix.  _full_band mirrors a lower band into the one full layout
that is LAPACK's general band storage and scipy's dia data, from which
_band_csr converts the one CSR of a system, diag(K, M, C), on first use:
every product goes through it or its leading rows G = diag(K, M), O(nnz)
each.  Every operator here is real; the resolvent forms and factors its
complex pencil itself, from the bands.  The dense matrices
are expanded from the bands on demand, for dense checks and the tests.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dpbtrf, dpbtrs
from scipy.sparse import csr_array, dia_array

from .errors import (
    DimensionMismatch,
    FactorizationFailed,
    IncompatibleBoundary,
    OutOfDomain,
    SchemaError,
    TooCoarse,
)
from .model import ModelParams

__all__ = [
    "Mesh",
    "AssembledSystem",
    "build_mesh",
    "assemble",
    "apply_generator",
    "inner_product_H",
    "g_norm_sq",
    "domain_norm",
    "project_initial_data",
]


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


def _integer(name: str, value, expected: str = "an integer") -> int:
    """int(value) for an integral int, float, numpy integer or numpy floating
    value, never a bool; SchemaError(name, expected) for anything else."""
    real = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    try:
        if real and float(value).is_integer():
            return int(value)
    except OverflowError:
        pass
    raise SchemaError(name, expected)


def build_mesh(p: ModelParams, n_elements: int) -> Mesh:
    """Uniform mesh of (0, L) with alpha and beta snapped onto nodes.

    Each point moves its nearest interior node, so element widths stay
    within a factor 2 of h = L/n_elements; p has checked on construction
    that L is finite and 0 < alpha < beta < L.  Raises, before any work,
    SchemaError when n_elements is not an integer (see _integer); then
    TooCoarse when the damping interval cannot contain a complete element
    (or n_elements < 4, or an element would be narrower than h/2), and
    OutOfDomain when its nodes cannot be allocated.
    """
    n = _integer("n_elements", n_elements)
    if n < 4:
        raise TooCoarse(f"need at least 4 elements, got {n}")
    h = p.L / n
    try:
        nodes = np.linspace(0.0, p.L, n + 1)
    except (ValueError, MemoryError):
        raise OutOfDomain(f"n_elements={n:.3e} asks for more nodes than can be allocated") from None
    ia, ib = (min(max(round(value / h), 1), n - 1) for value in (p.alpha, p.beta))
    if ib <= ia:
        raise TooCoarse(
            f"interval ({p.alpha!r}, {p.beta!r}) holds no complete element "
            f"at n={n}"
        )
    nodes[ia] = p.alpha
    nodes[ib] = p.beta
    widths = np.diff(nodes)
    if widths.min() < 0.5 * h * (1.0 - 1e-12):
        raise TooCoarse(
            f"snapping alpha/beta at n={n} would distort an element beyond "
            f"the factor-2 width bound; refine the mesh"
        )
    return Mesh(n_elements=n, nodes=nodes, alpha_index=ia, beta_index=ib)


# Slot 6 f + r of interior node p holds A[3 p + f + r, 3 p + f].  Node p
# is node 0 of element p + 1 and node 1 of element p (local dofs 3 i + f):
# slots 0 to 17 take local entry (f + r, f) of element p + 1 (zero past row
# 5), slots 18 to 35 entry (f + r + 3, f + 3) of element p (zero past row 5).
_FIELD, _ROW = np.indices((3, 6)).reshape(2, -1)
_ROW += _FIELD
_I, _G = np.divmod(np.minimum(np.append(_ROW, _ROW + 3), 5), 3)
_J, _F = np.divmod(np.append(_FIELD, _FIELD + 3), 3)
# _LEFT, _RIGHT pick a strain row's (k, a, b) products a_g a_f, a_g b_f,
# b_g a_f, b_g b_f (g, f the slot's row and column fields); _SCALE holds
# their P1 integrals, from h N_i' = 2 i - 1, int N_i N_j = h (1 + [i = j]) / 6.
_LEFT = np.concatenate((_G + 1, _G + 1, _G + 4, _G + 4))
_RIGHT = np.concatenate((_F + 1, _F + 4, _F + 1, _F + 4))
_SCALE = np.stack(((2 * _I - 1) * (2 * _J - 1), _I - 0.5, _J - 0.5, (1 + (_I == _J)) / 6.0))
_SCALE *= np.append(_ROW < 6, _ROW < 3)


def _energy_bands(h: np.ndarray, energies) -> tuple:
    """Read-only lower bands (6, N) of the P1 matrices of energies.

    An energy (c, strains) is sum_s int c k_s |a_s . (phi', psi', w') +
    b_s . (phi, psi, w)|^2, c = c[e] on element e of width h[e].  An
    element's matrix is exactly (c / h) P + c Q + (c h) R, P, Q and R
    summing k_s times its strains' coefficient products (see _SCALE).
    Row k holds A[j + k, j] over the interior node-major dofs: LAPACK's
    lower band storage, in Fortran order for BLAS.  Sums start from +0.0,
    so no entry is -0.0 and a band equals an element-by-element sum from
    zero bit for bit.
    """
    kab = np.array([(k, *a, *b) for _, strains in energies for k, a, b in strains], dtype=float)
    starts = np.cumsum([0] + [len(strains) for _, strains in energies[:-1]])
    products = np.add.reduceat((kab[:, _LEFT] * kab[:, _RIGHT]) * kab[:, :1], starts)
    P, Qa, Qb, R = (products.reshape(-1, *_SCALE.shape) * _SCALE).swapaxes(0, 1)
    c = np.array([weights for weights, _ in energies])
    E = np.zeros((len(energies), _SCALE.shape[1], h.size))  # (energy, slot, element)
    for T, w in ((P, c / h), (Qa + Qb, c), (R, c * h)):
        e, s = T.nonzero()  # each term feeds few slots
        E[e, s] += T[e, s, None] * w[e]
    E[:, :18, -1] *= _ROW < 3  # the last node's right neighbour is the clamped end
    bands = np.add(E[:, :18, 1:].transpose(0, 2, 1), E[:, 18:, :-1].transpose(0, 2, 1), order="C")
    bands = bands.reshape(len(energies), -1, 6)
    bands.flags.writeable = False
    return tuple(band.T for band in bands)


def _full_band(lower: np.ndarray) -> np.ndarray:
    """Full band (2 kd + 1, N), in lower's dtype and Fortran order, of the
    symmetric matrix with lower band `lower` (kd + 1, N): A[i, j] sits at
    row kd + i - j of column j, LAPACK's general band storage with kl = ku
    = kd and the data of a scipy dia_array with offsets kd, ..., -kd."""
    kd, n = lower.shape[0] - 1, lower.shape[1]
    full = np.zeros((2 * kd + 1, n), dtype=lower.dtype, order="F")
    full[kd:] = lower
    for k in range(1, kd + 1):
        full[kd - k, k:] = lower[k, : n - k]  # A[j - k, j] = A[j, j - k]
    return full


def _band_csr(*bands: np.ndarray) -> csr_array:
    """Read-only CSR of the block diagonal of the symmetric matrices with
    lower bands `bands`, holding only the nonzeros, each row's in column
    order.  The bands are concatenated along their columns: the padding of
    each band past its own matrix is zero, so it couples no two blocks,
    and eliminate_zeros drops it."""
    band = np.concatenate(bands, axis=1)
    kd, n = band.shape[0] - 1, band.shape[1]
    A = dia_array((_full_band(band), np.arange(kd, -kd - 1, -1)), shape=(n, n)).tocsr()
    A.eliminate_zeros()
    A.sort_indices()
    for array in (A.data, A.indices, A.indptr):
        array.flags.writeable = False
    return A


def _leading_block(A: csr_array, n: int) -> csr_array:
    """The leading n x n block of a block-diagonal CSR A whose blocks do
    not straddle row n: its first n rows, sharing A's arrays (no copy)."""
    end = A.indptr[n]
    return csr_array((A.data[:end], A.indices[:end], A.indptr[: n + 1]), shape=(n, n))


def _band_solve(factor: np.ndarray, rhs: np.ndarray, in_place: bool = False) -> np.ndarray:
    """Solve with a lower band Cholesky factor for a vector or (N, k) matrix
    rhs, real or complex (part by part, so the real factor is never cast to
    complex).  Raw dpbtrs, column by column: nothing is scanned for NaN or
    Inf, so initial data is checked where it enters (project_initial_data,
    simulate).  in_place overwrites rhs, a contiguous vector, with the
    solution and returns it: dpbtrs solves a real one in its own memory."""
    if np.iscomplexobj(rhs):
        re, im = _band_solve(factor, rhs.real), _band_solve(factor, rhs.imag)
        if in_place:
            rhs.real, rhs.imag = re, im
            return rhs
        return re + 1j * im
    x, info = dpbtrs(factor, rhs, lower=1, overwrite_b=in_place)
    if info != 0:
        raise FactorizationFailed(f"banded Cholesky solve: dpbtrs info={info}")
    return x


def _band_cholesky(band: np.ndarray, what: str) -> np.ndarray:
    """Read-only lower band Cholesky factor of the SPD matrix with lower
    band `band`, by raw dpbtrf (the routine cholesky_banded wraps).  Nothing
    is scanned for NaN or Inf: the bands are checked once at assembly.
    Raises FactorizationFailed, naming `what`, when dpbtrf reports info != 0."""
    factor, info = dpbtrf(band, lower=1)
    if info != 0:
        raise FactorizationFailed(f"{what} is not positive definite: dpbtrf info={info}")
    factor.flags.writeable = False
    return factor


class AssembledSystem:
    """Banded matrices of the discretized system, an immutable value.

    M_band, C_band and K_band are read-only lower bands, shape (6, N), of
    M, C, K (see _energy_bands); they are the stored form and the only
    input to the LAPACK factors, and each is checked finite at assembly
    (OutOfDomain otherwise).  KMC_csr is the one read-only CSR of diag(K,
    M, C) with the bands' zeros dropped (see _band_csr), derived on first
    use: it maps [a | b | c] to [K a | M b | C c], and every product goes
    through it.  G_csr, its leading 2N rows, is the energy metric G =
    diag(K, M) on flat states (q, v); it shares KMC_csr's arrays, so it
    costs no copy.  M, C and K are the dense matrices expanded from the
    bands on each access, for dense algorithms and checks; all share the
    node-major dof order.  The read-only banded Cholesky factor of M,
    computed at assembly, applies M^{-1} through solve_m.
    """

    def __init__(self, params: ModelParams, mesh: Mesh):
        self.params = params
        self.mesh = mesh
        with np.errstate(over="ignore", invalid="ignore"):  # checked just below
            self.M_band, self.C_band, self.K_band = _assemble_bands(params, mesh)
        for name, band in zip("MCK", (self.M_band, self.C_band, self.K_band)):
            if not np.isfinite(band).all():
                raise OutOfDomain(
                    f"{name} has a non-finite entry: a coefficient is infinite "
                    f"or overflows at n={mesh.n_elements}"
                )
        self._m_factor = _band_cholesky(self.M_band, "the mass matrix")

    @property
    def n_dofs(self) -> int:
        return 3 * (self.mesh.nodes.size - 2)

    @cached_property
    def KMC_csr(self) -> csr_array:
        return _band_csr(self.K_band, self.M_band, self.C_band)

    @cached_property
    def G_csr(self) -> csr_array:
        return _leading_block(self.KMC_csr, 2 * self.n_dofs)

    @property
    def M(self) -> np.ndarray:
        return _band_csr(self.M_band).toarray()

    @property
    def C(self) -> np.ndarray:
        return _band_csr(self.C_band).toarray()

    @property
    def K(self) -> np.ndarray:
        return _band_csr(self.K_band).toarray()

    def solve_m(self, rhs: np.ndarray) -> np.ndarray:
        """M^{-1} rhs for a vector or (N, k) matrix rhs, real or complex."""
        return _band_solve(self._m_factor, rhs)


def _assemble_bands(p: ModelParams, mesh: Mesh):
    """Element-exact bands of M, C, K on interior dofs from their strains."""
    ones, damped = np.ones(mesh.n_elements), np.zeros(mesh.n_elements)
    damped[mesh.alpha_index : mesh.beta_index] = p.d0
    no = (0, 0, 0)
    return _energy_bands(mesh.widths, [
        # Mass: rho1|v_phi|^2 + rho2|v_psi|^2 + rho1|v_w|^2
        (ones, [(p.rho1, no, (1, 0, 0)), (p.rho2, no, (0, 1, 0)), (p.rho1, no, (0, 0, 1))]),
        # Damping: d(x)|v_w' - l v_phi|^2, d = d0 on (alpha, beta) and 0 elsewhere
        (damped, [(1.0, (0, 0, 1), (-p.l, 0, 0))]),
        # Stiffness: k1|phi' + psi + l w|^2 + k2|psi'|^2 + k3|w' - l phi|^2
        (ones, [(p.k1, (1, 0, 0), (0, 1, p.l)), (p.k2, (0, 1, 0), no), (p.k3, (0, 0, 1), (-p.l, 0, 0))]),
    ])


def assemble(p: ModelParams, mesh: Mesh) -> AssembledSystem:
    """Assemble the bands of mass, damping and stiffness and factor M."""
    return AssembledSystem(p, mesh)


def _check_dims(sys: AssembledSystem, U: np.ndarray):
    """DimensionMismatch unless U is a flat state of shape (2 n_dofs,)."""
    if np.shape(U) != (2 * sys.n_dofs,):
        raise DimensionMismatch(
            f"state of shape {np.shape(U)} does not match 2 x {sys.n_dofs} dofs"
        )


def apply_generator(sys: AssembledSystem, U: np.ndarray) -> np.ndarray:
    """Discrete generator: (q, v) -> (v, -M^{-1}(K q + C v)), with K q
    and C v from one KMC_csr product on (q, v, v)."""
    _check_dims(sys, U)
    n = sys.n_dofs
    Y = sys.KMC_csr @ np.concatenate((U, U[n:]))
    return np.concatenate((U[n:], -sys.solve_m(Y[:n] + Y[2 * n :])))


def inner_product_H(sys: AssembledSystem, U: np.ndarray, V: np.ndarray) -> complex:
    """Energy inner product (U, V) = V* G U with G = diag(K, M), as two
    block sums, the K block's first: one sum over all 2N entries rounds
    differently."""
    _check_dims(sys, U)
    _check_dims(sys, V)
    n = sys.n_dofs
    GU = sys.G_csr @ U
    return complex(np.vdot(V[:n], GU[:n]) + np.vdot(V[n:], GU[n:]))


def g_norm_sq(sys: AssembledSystem, U: np.ndarray) -> float:
    """Squared energy norm ||U||_G^2 (twice the total energy)."""
    return inner_product_H(sys, U, U).real


def domain_norm(sys: AssembledSystem, U: np.ndarray) -> float:
    """Graph norm squared ||U||_G^2 + ||A_h U||_G^2."""
    AU = apply_generator(sys, U)
    return g_norm_sq(sys, U) + g_norm_sq(sys, AU)


def project_initial_data(sys: AssembledSystem, fields) -> np.ndarray:
    """Nodal interpolation of closed-form initial data on sys.mesh.

    fields = (phi0, psi0, w0, phi1, psi1, w1): the first three fill the
    displacements q, the last three the velocities v of the flat state
    (q, v).  Each field is evaluated once at every node, ends included,
    and must give one real number there, an int or a float (OutOfDomain
    otherwise), within 1e-12 of zero at both clamped ends
    (IncompatibleBoundary otherwise, NaN included), and finite inside
    (OutOfDomain otherwise).  Each refusal names the field's index.
    """
    if len(fields) != 6:
        raise DimensionMismatch(f"expected 6 field functions, got {len(fields)}")
    nodes = sys.mesh.nodes
    values = np.empty((nodes.size, 6))  # row j holds the six fields at node j
    for k, f in enumerate(fields):
        column = [f(x) for x in nodes]
        try:
            column = np.array(column)
        except ValueError:  # values of unequal shapes
            column = None
        if column is None or column.shape != nodes.shape or column.dtype.kind not in "iuf":
            raise OutOfDomain(f"initial field #{k} does not give one real number per node")
        if not (abs(column[0]) <= 1e-12 and abs(column[-1]) <= 1e-12):
            raise IncompatibleBoundary(f"initial field #{k} does not vanish at the clamped ends")
        if not np.isfinite(column).all():
            raise OutOfDomain(f"initial field #{k} is not finite at every interior node")
        values[:, k] = column
    interior = values[1:-1]  # dof 3*i + k is column k of row i
    return np.concatenate((interior[:, :3].ravel(), interior[:, 3:].ravel()))
