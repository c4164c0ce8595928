"""Eigenvalues of the damped system via the quadratic pencil.

The homogeneous problem (s^2 M + s C + K) x = 0 is linearized in (q, s q)
variables as the standard companion eigenproblem

    Z y = s y,    Z = [[0, I], [-M^{-1} K, -M^{-1} C]],    y = (x, s x),

with M^{-1} applied by the system's solve_m, through the banded factor of
M taken at assembly.  When the mirror x -> L - x, (phi, psi, w) -> (phi,
-psi, -w), maps M, C and K onto themselves bit for bit (constant
coefficients, a damping interval symmetric about L/2 and mesh nodes
that mirror exactly), Z splits into an even and an odd block of about N
each; otherwise the one block is Z itself.  One dense eigensolve per block, with right vectors, gives the
whole discrete spectrum; each shift then selects, by index, the
eigenvalues nearest to it, so eigenvalues closer together than any
tolerance stay distinct, within a block or across the two.

Each selected eigenvalue s and its conjugate partner is certified on the
pencil itself, never on the companion problem alone: x, read from its
own eigenvector y and lifted from the block basis, must have a small
||P(s) x|| / ||x||, P(s) = s^2 M + s C + K, the backward error of (s, x)
up to the norms of M, C and K (Tisseur, Linear Algebra Appl. 2000).
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eig, eig_banded
from scipy.sparse import csr_array

from .discretization import AssembledSystem, _integer
from .errors import DimensionMismatch, EmptyGrid, NoConvergence, NonPositiveParameter, OutOfDomain

__all__ = ["SpectrumReport", "quadratic_eigs"]


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    """Certified eigenvalues with their residuals, sorted by (Re, Im).

    residuals[i] = ||(s^2 M + s C + K) x|| / ||x|| for eigenvalues[i] = s,
    with x read from its companion eigenvector (see _companion_eig);
    k_norm is the spectral norm of K (its largest eigenvalue, K being
    SPD) used for relative residual checks.
    Eigenvalues come conjugate-completed: the conjugate partner of each
    selected eigenvalue is certified on its own eigenvector, the exact
    conjugate of the selected one's, so with the same residual.
    """

    eigenvalues: np.ndarray
    residuals: np.ndarray
    spectral_abscissa: float
    min_abs_real: float
    k_norm: float


_RESIDUAL_TOL = 1e-10  # a pick counts when its residual is <= this * ||K||_2


def _parity_blocks(sys: AssembledSystem) -> list:
    """Invariant subspaces of the mirror x -> L - x, as (cols, partner, sign).

    The mirror maps dof 3 j + f to 3 (m - 1 - j) + f, m = N / 3 nodes,
    with sign +1 for phi and -1 for psi and w.  When it maps M, C and K
    onto themselves bit for bit (P3 KMC_csr P3^T == KMC_csr, P3 that
    signed permutation on each of the CSR's three slots), the pencil
    splits into an even and an odd block: vectors x with x[partner] =
    sign * x[cols], cols being the left-half dofs and the self-mirrored
    dofs of that parity (their own partners, with sign 1).  Otherwise the
    one block is the identity.
    """
    n = sys.n_dofs
    dofs = np.arange(n)
    identity = [(dofs, dofs, np.ones(n))]
    if n % 3:
        return identity
    node, field = np.divmod(dofs, 3)
    mirror = 3 * (n // 3 - 1 - node) + field
    sign = np.where(field == 0, 1.0, -1.0)
    slots = np.concatenate((mirror, n + mirror, 2 * n + mirror))
    P3 = csr_array((np.tile(sign, 3), (np.arange(3 * n), slots)))
    KMC = sys.KMC_csr
    if (P3 @ KMC @ P3.T != KMC).nnz:
        return identity
    left, own = dofs[dofs < mirror], dofs[dofs == mirror]
    blocks = []
    for parity in (1.0, -1.0):
        own_p = own[sign[own] == parity]
        cols = np.concatenate((left, own_p))
        partner = np.concatenate((mirror[left], own_p))
        blocks.append((cols, partner, np.concatenate((parity * sign[left], np.ones(own_p.size)))))
    return blocks


def _companion_eig(sys: AssembledSystem) -> tuple:
    """All eigenvalues w of the pencil, block by block, and per parity
    block (see _parity_blocks) its (cols, partner, sign, z), from one dense
    eigensolve with right vectors per block: column j of z is the half of
    the eigenvector (x, s x) of the block's j-th eigenvalue s that holds x
    to more digits, x if |s| <= 1 and s x if not, and B z[:, j] is an
    eigenvector of the pencil.

    A block with basis B (N x k: B[cols] = I, B[partner] = sign) is
    invariant under M^{-1} K and M^{-1} C, so X = M^{-1} [K B | C B],
    read at the rows cols, gives its companion [[0, I], [-X_K, -X_C]].
    [K B | C B] comes from one KMC_csr product and M^{-1} from one
    solve_m; the identity block reproduces the full companion exactly.
    """
    n = sys.n_dofs
    w, blocks = [], []
    for cols, partner, sign in _parity_blocks(sys):
        k = cols.size
        E = np.zeros((3 * n, k))  # B in the slots of K and C, 0 in M's
        E[partner, np.arange(k)] = sign
        E[cols, np.arange(k)] = 1.0
        E[2 * n :] = E[:n]
        Y = sys.KMC_csr @ E
        Z = np.zeros((2 * k, 2 * k))
        Z[:k, k:] = np.eye(k)
        Z[k:] = -sys.solve_m(np.hstack((Y[:n], Y[2 * n :])))[cols]
        s, y = eig(Z)
        w.append(s)
        blocks.append((cols, partner, sign, np.where(np.abs(s) > 1.0, y[k:], y[:k])))
    return np.concatenate(w), blocks


def _lift(blocks: list, picks: np.ndarray, n: int) -> np.ndarray:
    """The pencil eigenvectors B z of the eigenvalues w[picks], one column
    each (see _companion_eig); 0 on the dofs of the other parity."""
    X = np.zeros((n, picks.size), dtype=complex)
    offset = 0
    for cols, partner, sign, z in blocks:
        here = np.flatnonzero((picks >= offset) & (picks < offset + z.shape[1]))
        X[np.ix_(cols, here)] = z[:, picks[here] - offset]
        X[np.ix_(partner, here)] = sign[:, None] * X[np.ix_(cols, here)]
        offset += z.shape[1]
    return X


def quadratic_eigs(
    sys: AssembledSystem,
    shifts,
    per_shift: int = 5,
) -> SpectrumReport:
    """Eigenvalues of the quadratic pencil nearest each shift.

    The full spectrum comes from one dense companion eigensolve with
    right vectors per parity block (_companion_eig).  Each shift selects
    the indices of its per_shift nearest eigenvalues (stable sort on
    distance).  The picks are the selected indices and each one's
    conjugate partner, which eig stores next to it (a pair as (Im > 0,
    Im < 0)).  Each pick s counts when its own lifted eigenvector x
    (_lift) has ||P(s) x|| / ||x|| <= _RESIDUAL_TOL * ||K||_2, from one
    KMC_csr product for all picks, no pencil factored.  Raises, before the
    eigensolve, DimensionMismatch unless shifts is one-dimensional,
    OutOfDomain for a NaN or infinite shift, SchemaError for a
    non-integral per_shift (an integral float is taken as an int) and
    NonPositiveParameter when per_shift < 1, and after it NoConvergence
    when a shift has no certified pair among its selection.  The result
    is sorted by (Re, Im).
    """
    shifts = np.asarray(shifts, dtype=complex)
    if shifts.ndim != 1:
        raise DimensionMismatch(f"shift list of shape {shifts.shape} is not one-dimensional")
    if not shifts.size:
        raise EmptyGrid("no shifts supplied")
    if not np.isfinite(shifts).all():
        raise OutOfDomain(f"every shift must be finite, got {shifts!r}")
    per_shift = _integer("per_shift", per_shift)
    if per_shift < 1:
        raise NonPositiveParameter("per_shift", per_shift)
    n = sys.n_dofs
    top = eig_banded(sys.K_band, lower=True, eigvals_only=True, select="i", select_range=(n - 1,) * 2)
    k_norm = float(top[0])
    tol_abs = _RESIDUAL_TOL * k_norm
    w, blocks = _companion_eig(sys)
    nearest = np.argsort(np.abs(w - shifts[:, None]), axis=1, kind="stable")[:, :per_shift]
    near = np.unique(nearest)
    picks = np.union1d(near, near + np.sign(w[near].imag).astype(int))
    X = _lift(blocks, picks, n)
    KX, MX, CX = np.split(sys.KMC_csr @ np.vstack((X, X, X)), 3)
    s = w[picks]
    ratios = np.linalg.norm(KX + s * (s * MX + CX), axis=0) / np.linalg.norm(X, axis=0)
    chosen = ratios[np.searchsorted(picks, nearest)]  # one row per shift
    failed = np.flatnonzero(~(chosen <= tol_abs).any(axis=1))
    if failed.size:
        i = failed[0]
        raise NoConvergence(
            f"eigensolve at shift {complex(shifts[i])!r} certified no pair"
            f" (best residual {chosen[i].min():.3e} exceeds the bound {tol_abs:.3e})"
        )

    certified = np.flatnonzero(ratios <= tol_abs)
    certified = certified[np.lexsort((s[certified].imag, s[certified].real))]
    eigenvalues = s[certified]
    re = eigenvalues.real
    return SpectrumReport(
        eigenvalues=eigenvalues,
        residuals=ratios[certified],
        spectral_abscissa=float(re.max()),
        min_abs_real=float(np.abs(re).min()),
        k_norm=k_norm,
    )
