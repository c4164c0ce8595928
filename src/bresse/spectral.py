"""Eigenvalues of the damped system via the quadratic pencil.

The homogeneous problem (s^2 M + s C + K) x = 0 is linearized in (q, s q)
variables as the standard companion eigenproblem

    Z y = s y,    Z = [[0, I], [-M^{-1} K, -M^{-1} C]],    y = (x, s x),

with M^{-1} applied by the system's solve_m, through the banded factor of
M taken at assembly.  One dense eigensolve of Z, eigenvalues only, gives
the whole discrete spectrum; each shift then selects, by index, the
eigenvalues nearest to it, so eigenvalues closer together than any
tolerance stay distinct.

Each selected eigenvalue s is certified on the quadratic pencil itself,
never on the companion problem alone: two steps of inverse iteration with
the banded LU of P(s) = s^2 M + s C + K (discretization._Pencil, the one
the resolvent solves with) give a vector x, and s counts when the
residual ||P(s) x|| / ||x|| is small.
"""

import cmath
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eig_banded, eigvals

from .discretization import AssembledSystem, _Pencil
from .errors import EmptyGrid, NoConvergence, NonPositiveParameter, OutOfDomain, SchemaError

__all__ = ["SpectrumReport", "quadratic_eigs", "axis_scan"]


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    """Certified eigenvalues with their residuals, sorted by (Re, Im).

    residuals[i] = ||(s^2 M + s C + K) x|| / ||x|| for eigenvalues[i] = s,
    with x from two inverse-iteration steps with the banded LU of the
    pencil at s; k_norm is the spectral norm of K (its largest
    eigenvalue, K being SPD) used for relative residual checks.
    Eigenvalues come conjugate-completed: for real matrices the conjugate
    of a certified pair is certified too, with the same residual.
    """

    eigenvalues: np.ndarray
    residuals: np.ndarray
    spectral_abscissa: float
    min_abs_real: float
    closest_to_axis: complex
    mesh_size: int
    k_norm: float


# Inverse iteration starts from a fixed random vector: a ones vector has no
# component along the modes that are odd about L/2 in a mirror-symmetric system.
_START_SEED = 271828


def _inverse_residual(sys: AssembledSystem, s: complex, start: np.ndarray) -> float:
    """||P(s) x||_2 / ||x||_2 after two inverse-iteration steps from start.

    Each step solves with the banded LU of P(s) and normalizes.  An exact
    zero pivot leaves s uncertified: the residual is inf.
    """
    pencil = _Pencil(sys, s)
    if pencil.info != 0:
        return np.inf
    x = start
    for _ in range(2):
        x = pencil.solve(x)
        x /= np.linalg.norm(x)
    return float(np.linalg.norm(pencil.residual(x, np.zeros_like(x))))


def _companion_eig(sys: AssembledSystem) -> np.ndarray:
    """All eigenvalues of the pencil, from the dense companion matrix."""
    n = sys.n_dofs
    Z = np.zeros((2 * n, 2 * n))
    Z[:n, n:] = np.eye(n)
    Z[n:, :n] = -sys.solve_m(sys.K)
    Z[n:, n:] = -sys.solve_m(sys.C)
    return eigvals(Z)


def quadratic_eigs(
    sys: AssembledSystem,
    shifts,
    per_shift: int = 5,
    tol: float = 1e-10,
) -> SpectrumReport:
    """Eigenvalues of the quadratic pencil nearest each shift.

    The full spectrum comes from one dense companion eigensolve,
    eigenvalues only.  Each shift selects the indices of its per_shift
    nearest eigenvalues (stable sort on distance), and each selected
    eigenvalue is certified once, by inverse iteration on the banded
    pencil from one fixed seeded start: it counts when its quadratic
    residual is <= tol * ||K||_2.  Raises, before the eigensolve,
    OutOfDomain for a NaN or infinite shift, SchemaError for a
    non-integral per_shift (an integral float is taken as an int) and
    NonPositiveParameter when per_shift < 1, and after it NoConvergence
    when a shift has no certified pair among its selection.  The conjugate
    partner of a certified eigenvalue is added by index, since a real
    companion matrix's eigenvalues come in exact conjugate pairs, and the
    result is sorted by (Re, Im).
    """
    shifts = [complex(s) for s in shifts]
    if not shifts:
        raise EmptyGrid("no shifts supplied")
    if not all(map(cmath.isfinite, shifts)):
        raise OutOfDomain(f"every shift must be finite, got {shifts!r}")
    if not float(per_shift).is_integer():  # NaN and Inf included
        raise SchemaError("per_shift", "an integer")
    if per_shift < 1:
        raise NonPositiveParameter("per_shift", per_shift)
    per_shift = int(per_shift)
    n = sys.n_dofs
    top = eig_banded(sys.K_band, lower=True, eigvals_only=True, select="i", select_range=(n - 1,) * 2)
    k_norm = float(top[0])
    tol_abs = tol * k_norm
    w = _companion_eig(sys)

    selections = [
        np.argsort(np.abs(w - sigma), kind="stable")[:per_shift] for sigma in shifts
    ]
    rng = np.random.default_rng(_START_SEED)
    start = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    residual = {
        i: _inverse_residual(sys, w[i], start)
        for i in np.unique(np.concatenate(selections)).tolist()
    }
    for sigma, nearest in zip(shifts, selections):
        if not any(residual[i] <= tol_abs for i in nearest):
            best = min((residual[i] for i in nearest), default=np.inf)
            raise NoConvergence(
                what=f"eigensolve at shift {sigma!r}",
                reason=f"certified no pair (best residual {best:.3e} exceeds the bound {tol_abs:.3e})",
            )

    certified = {}
    for i, r in residual.items():
        if r <= tol_abs:
            certified[i] = r
            if w[i].imag != 0.0:  # eigvals stores a pair as (Im > 0, Im < 0)
                certified.setdefault(i + 1 if w[i].imag > 0 else i - 1, r)
    order = sorted(certified, key=lambda i: (w[i].real, w[i].imag))

    eigenvalues = w[order]
    residuals = np.array([certified[i] for i in order])
    re = eigenvalues.real
    i_min = int(np.argmin(np.abs(re)))
    return SpectrumReport(
        eigenvalues=eigenvalues,
        residuals=residuals,
        spectral_abscissa=float(re.max()),
        min_abs_real=float(np.abs(re).min()),
        closest_to_axis=complex(eigenvalues[i_min]),
        mesh_size=sys.mesh.n_elements,
        k_norm=k_norm,
    )


def axis_scan(
    sys: AssembledSystem,
    mu_grid,
    per_shift: int = 5,
    tol: float = 1e-10,
) -> SpectrumReport:
    """Scan shifts i*mu along the imaginary axis.

    Maps the discrete spectrum's approach to the axis: min_abs_real in the
    report is the observed gap.  The grid is sorted internally so output is
    independent of input ordering.
    """
    mu = np.atleast_1d(np.asarray(mu_grid, dtype=float))
    if mu.size == 0:
        raise EmptyGrid("mu_grid is empty")
    shifts = [1j * m for m in np.sort(mu)]
    return quadratic_eigs(sys, shifts, per_shift=per_shift, tol=tol)
