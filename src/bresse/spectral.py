"""Eigenvalues of the damped system via the quadratic pencil.

The homogeneous problem (s^2 M + s C + K) x = 0 is linearized in (q, s q)
variables as the standard companion eigenproblem

    Z y = s y,    Z = [[0, I], [-M^{-1} K, -M^{-1} C]],    y = (x, s x),

with M^{-1} applied by the system's solve_m, through the banded factor of
M taken at assembly.  One dense eigensolve of Z gives the whole discrete
spectrum; each shift then selects, by index, the eigenvalues nearest to
it, so eigenvalues closer together than any tolerance stay distinct.

Eigenpair accuracy is certified directly on the quadratic residual
||(s^2 M + s C + K)x|| / ||x||, never on the companion problem alone.
"""

import cmath
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eig

from .discretization import AssembledSystem
from .errors import EmptyGrid, NoConvergence, NonPositiveParameter, OutOfDomain

__all__ = ["SpectrumReport", "quadratic_eigs", "axis_scan"]


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    """Certified eigenvalues with their residuals, sorted by (Re, Im).

    residuals[i] = ||(s^2 M + s C + K) x|| / ||x|| for the pair behind
    eigenvalues[i]; k_norm is the spectral norm of K used for relative
    residual checks.  Eigenvalues come conjugate-completed: for real
    matrices the conjugate of a certified pair has the same residual.
    """

    eigenvalues: np.ndarray
    residuals: np.ndarray
    spectral_abscissa: float
    min_abs_real: float
    closest_to_axis: complex
    mesh_size: int
    k_norm: float


def _quad_residuals(M, C, K, s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """||(s_j^2 M + s_j C + K) x_j|| / ||x_j|| for the columns x_j of x.

    The real matrices multiply the real and imaginary parts separately,
    so none of them is cast to complex.
    """
    def times(A):
        return A @ x.real + 1j * (A @ x.imag)

    r = np.linalg.norm((s * s) * times(M) + s * times(C) + times(K), axis=0)
    nx = np.linalg.norm(x, axis=0)
    return np.divide(r, nx, out=np.full_like(r, np.inf), where=nx > 0.0)


def _companion_eig(sys: AssembledSystem):
    """All eigenvalues of the pencil and the x-part of their eigenvectors."""
    n = sys.n_dofs
    Z = np.zeros((2 * n, 2 * n))
    Z[:n, n:] = np.eye(n)
    Z[n:, :n] = -sys.solve_m(sys.K)
    Z[n:, n:] = -sys.solve_m(sys.C)
    w, y = eig(Z)
    return w, y[:n]


def quadratic_eigs(
    sys: AssembledSystem,
    shifts,
    per_shift: int = 5,
    tol: float = 1e-10,
) -> SpectrumReport:
    """Eigenvalues of the quadratic pencil nearest each shift.

    The full spectrum comes from one dense companion eigensolve.  Each
    shift selects the indices of its per_shift nearest eigenvalues (stable
    sort on distance), and each selected pair is certified once: it counts
    when its quadratic residual is <= tol * ||K||_2.  Raises, before the
    eigensolve, OutOfDomain for a NaN or infinite shift and
    NonPositiveParameter when per_shift < 1, and after it NoConvergence
    when a shift has no certified pair among its selection.  The conjugate
    partner of a certified pair is added by index, since a real pencil's
    eig returns exact conjugate pairs, and the result is sorted by (Re, Im).
    """
    shifts = [complex(s) for s in shifts]
    if not shifts:
        raise EmptyGrid("no shifts supplied")
    if not all(map(cmath.isfinite, shifts)):
        raise OutOfDomain(f"every shift must be finite, got {shifts!r}")
    if not per_shift >= 1:
        raise NonPositiveParameter("per_shift", per_shift)
    M, C, K = sys.M, sys.C, sys.K
    k_norm = float(np.linalg.norm(K, 2))
    tol_abs = tol * k_norm
    w, x = _companion_eig(sys)

    selections = [
        np.argsort(np.abs(w - sigma), kind="stable")[:per_shift] for sigma in shifts
    ]
    picked = np.unique(np.concatenate(selections))
    r_picked = _quad_residuals(M, C, K, w[picked], x[:, picked])
    residual = dict(zip(picked.tolist(), r_picked.tolist()))
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
            if w[i].imag != 0.0:  # eig stores a pair as (Im > 0, Im < 0)
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
