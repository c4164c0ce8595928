"""Resolvent solves along the imaginary axis and growth-exponent fitting.

(i*lambda - A_h) U = F is solved through the second-order reduction: with
F = (f, g), the displacement block satisfies

    (-lambda^2 M + i lambda C + K) q = M (g + i lambda f) + C f,

and v = i*lambda*q - f.  The operator norm is taken in the energy metric
G = diag(K, M) itself, by power iteration x <- R* R x on states.  Because
M, C and K are real and symmetric, the G-adjoint of the generator is
A_h* = J A_h J with J = diag(I, -I), so R(i lambda)* y = J conj(R(i lambda)
conj(J y)): the adjoint is one more solve with the same LU of P(lambda).

P(lambda) is complex symmetric and, in the node-major dof order of the
system's bands, banded.  Its lower band is combined from the system's
bands and mirrored by _full_band into LAPACK's general band storage, the
one layout that the banded LU with partial pivoting (zgbtrf) and each
residual (zgbmv) read, so the factor, each solve (zgbtrs) and each
residual cost O(N).  The right-hand side's products with M and C go
through the system's CSRs, like every other product.  States share the
bands' node-major dof order, so each vector goes to LAPACK as it is.
Every solve's backward error is tested on the spot.

Profiles are capped at lambda_max = c_resolve / h: P1 elements cannot
represent modes beyond O(1/h), and fitting past the cap would measure the
discretization rather than the system.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import zgbmv
from scipy.linalg.lapack import zgbcon, zgbtrf, zgbtrs

from .discretization import AssembledSystem, StateVector, _full_band, g_norm_sq
from .errors import (
    EmptyGrid,
    GridBeyondResolution,
    NoConvergence,
    OutOfDomain,
    SingularAtLambda,
    WindowTooSmall,
)
from .timedomain import _loglog_fit

__all__ = [
    "ResolventProfile",
    "GrowthFit",
    "resolvent_solve",
    "resolvent_norm",
    "lambda_cap",
    "profile",
    "fit_growth_exponent",
]

_POWER_SEED = 314159


@dataclass(frozen=True, eq=False)
class ResolventProfile:
    """Resolvent norms over a frequency grid, with solver diagnostics.

    iters and residuals record, per lambda, the power-iteration count and
    the worst relative backward error ||rhs - P q||_1 / (||P||_1 ||q||_1 +
    ||rhs||_1) over every forward and adjoint P(lambda) solve behind that
    norm; each solve tests its own and passes only at most dim * eps.  The
    power iteration's tol bounds the change between successive estimates,
    not the error of a norm: that can be larger when sigma_2/sigma_1 is
    near 1, and every norm lies below the true one.
    """

    lambdas: np.ndarray
    norms: np.ndarray
    iters: np.ndarray
    residuals: np.ndarray
    mesh_size: int
    lambda_max: float


@dataclass(frozen=True)
class GrowthFit:
    """Least-squares growth line of log(norm) against log(lambda)."""

    slope: float
    intercept: float
    window: tuple
    r_squared: float


class _Resolvent:
    """Factored resolvent at one real lambda, with forward/adjoint solves.

    band holds P(lambda) in LAPACK's general band storage (_full_band),
    kl = ku rows on either side of the diagonal; lu and piv are its banded
    LU with partial pivoting.  A NaN or infinite lambda is OutOfDomain.
    """

    def __init__(self, sys: AssembledSystem, lam: float):
        self.sys = sys
        self.lam = float(lam)
        if not math.isfinite(self.lam):
            raise OutOfDomain(f"lambda={self.lam!r} must be finite")
        self.il = 1j * self.lam
        lower = (-self.lam * self.lam) * sys.M_band + self.il * sys.C_band + sys.K_band
        self.band = _full_band(lower)
        kl, n = self.band.shape[0] // 2, self.band.shape[1]
        self.bound = n * np.finfo(float).eps
        # zgbtrf's workspace: kl rows for the fill-in of pivoting above the band
        ab = np.zeros((3 * kl + 1, n), dtype=complex, order="F")
        ab[kl:] = self.band
        self.lu, self.piv, info = zgbtrf(ab, kl, kl, overwrite_ab=1)
        if info != 0:
            raise SingularAtLambda(self.lam, f"the LU of P has an exact zero pivot (info {info})")
        self.p_norm = float(np.abs(self.band).sum(axis=0).max())
        # i*lam on the discrete spectrum: a vanishing reciprocal condition number
        rcond, _ = zgbcon(kl, kl, self.lu, self.piv, self.p_norm, norm="1")
        if not rcond > self.bound:
            raise SingularAtLambda(
                self.lam, f"reciprocal condition number {rcond:.3e} <= {self.bound:.3e}"
            )

    def solve(self, F: StateVector) -> tuple[StateVector, float]:
        """(U, backward error of its P solve), U = R(i lam) F.

        The backward error is ||rhs - P q||_1 / (||P||_1 ||q||_1 +
        ||rhs||_1), and the solve passes when it is at most dim * eps: the
        worst-case rounding bound of a dim-term inner product, the error of
        evaluating that residual itself, so a larger one (or a non-finite
        one) is a failed solve, not roundoff, and raises SingularAtLambda.
        """
        sys = self.sys
        f = F.q.astype(complex)
        g = F.v.astype(complex)
        rhs = sys.M_csr @ (g + self.il * f) + sys.C_csr @ f
        kl, n = self.band.shape[0] // 2, rhs.size
        q, _ = zgbtrs(self.lu, kl, kl, rhs, self.piv)
        err = np.linalg.norm(zgbmv(n, n, kl, kl, -1.0, self.band, q, beta=1.0, y=rhs), 1)
        scale = self.p_norm * np.linalg.norm(q, 1) + np.linalg.norm(rhs, 1)
        backward = err / scale if scale else 0.0  # F = 0 gives U = 0 exactly
        if not backward <= self.bound:
            raise SingularAtLambda(
                self.lam, f"backward error {backward:.3e} of the P solve exceeds {self.bound:.3e}"
            )
        return StateVector(q, self.il * q - f), float(backward)

    def solve_adjoint(self, Y: StateVector) -> tuple[StateVector, float]:
        """R(i lam)* Y in the G inner product, J conj(R(i lam) conj(J Y)),
        with the backward error of its P solve."""
        U, backward = self.solve(StateVector(np.conj(Y.q), -np.conj(Y.v)))
        return StateVector(np.conj(U.q), -np.conj(U.v)), backward


def resolvent_solve(sys: AssembledSystem, lam: float, F: StateVector) -> StateVector:
    """Solve (i*lam - A_h) U = F with a backward-stable P(lam) solve.

    Raises OutOfDomain for a NaN or infinite lam, and SingularAtLambda
    when i*lam sits on the discrete spectrum (possible only for the
    undamped system): the 1-norm reciprocal condition number of P(lam) is
    at most dim * eps.  It raises too when the P solve leaves a residual
    above dim * eps * (||P||_1 ||q||_1 + ||rhs||_1), the rounding level of
    the residual itself.
    """
    U, _ = _Resolvent(sys, lam).solve(F)
    return U


def _scaled(U: StateVector, c: float) -> StateVector:
    return StateVector(U.q * c, U.v * c)


def _norm_details(
    sys: AssembledSystem,
    lam: float,
    tol: float = 1e-6,
    max_iters: int = 200,
    seed: int = 0,
):
    """Power iteration x <- R* R x for ||R(lam)||_G.

    Returns (norm, iters, worst backward error over all its solves).
    """
    op = _Resolvent(sys, lam)
    n = sys.n_dofs
    rng = np.random.default_rng(_POWER_SEED + seed)

    def draw():  # drawn field by field, so each seed keeps its start vector and iters
        return rng.standard_normal((3, n // 3)).T.ravel()

    x = StateVector(draw() + 1j * draw(), draw() + 1j * draw())
    x = _scaled(x, 1.0 / np.sqrt(g_norm_sq(sys, x)))
    sigma_prev = 0.0
    worst = 0.0
    for it in range(1, max_iters + 1):
        y, err_y = op.solve(x)
        sigma = float(np.sqrt(g_norm_sq(sys, y)))
        z, err_z = op.solve_adjoint(y)
        worst = max(worst, err_y, err_z)
        nz = np.sqrt(g_norm_sq(sys, z))
        if nz == 0.0:
            raise SingularAtLambda(lam, "power iterate collapsed")
        x = _scaled(z, 1.0 / nz)
        if abs(sigma - sigma_prev) <= tol * max(sigma, np.finfo(float).tiny):
            return sigma, it, worst
        sigma_prev = sigma
    raise NoConvergence(max_iters, what=f"resolvent norm at lambda={lam!r}")


def resolvent_norm(
    sys: AssembledSystem,
    lam: float,
    tol: float = 1e-6,
    max_iters: int = 200,
    seed: int = 0,
) -> float:
    """Operator norm ||(i*lam - A_h)^{-1}||_G by power iteration.

    Converged when successive estimates differ by <= tol relative (default
    1e-6), capped at max_iters (default 200) before NoConvergence.  tol
    bounds that change, not the error, which can be larger when
    sigma_2/sigma_1 is near 1 (2.1e-5 at lambda = 58.39, n = 64, equal
    speeds); the estimate lies below the true norm.
    """
    norm, _, _ = _norm_details(sys, lam, tol=tol, max_iters=max_iters, seed=seed)
    return norm


def lambda_cap(sys: AssembledSystem, c_resolve: float = 1.0) -> float:
    """Largest frequency the mesh resolves: c_resolve / max element width."""
    return c_resolve / float(sys.mesh.widths.max())


def profile(
    sys: AssembledSystem,
    lambda_grid,
    tol: float = 1e-6,
    seed: int = 0,
    c_resolve: float = 1.0,
) -> ResolventProfile:
    """Map resolvent_norm over a positive grid, sorted, capped at lambda_max.

    tol bounds the change between successive power-iteration estimates at
    each lambda, not the error of the norm (see resolvent_norm).
    """
    grid = np.atleast_1d(np.asarray(lambda_grid, dtype=float))
    if grid.size == 0:
        raise EmptyGrid("lambda grid is empty")
    if not np.all(grid > 0):  # NaN included
        raise OutOfDomain("lambda grid must be strictly positive")
    grid = np.sort(grid)
    cap = lambda_cap(sys, c_resolve)
    beyond = grid[grid > cap * (1.0 + 1e-12)]
    if beyond.size:
        raise GridBeyondResolution(float(beyond[0]), cap)

    details = [_norm_details(sys, lam, tol=tol, seed=seed) for lam in grid]
    norms = np.array([d[0] for d in details])
    iters = np.array([d[1] for d in details], dtype=int)
    residuals = np.array([d[2] for d in details])
    return ResolventProfile(
        lambdas=grid,
        norms=norms,
        iters=iters,
        residuals=residuals,
        mesh_size=sys.mesh.n_elements,
        lambda_max=cap,
    )


def default_fit_window(prof: ResolventProfile) -> tuple:
    """[lambda_max/10, lambda_max], clipped below at lambda=3."""
    return (max(3.0, prof.lambda_max / 10.0), prof.lambda_max)


def fit_growth_exponent(prof: ResolventProfile, window=None) -> GrowthFit:
    """Least-squares slope of log(norm) vs log(lambda) inside the window.

    The stored window is the effective one (smallest and largest grid
    points actually used), so it always lies within the profile range.
    Needs at least 5 grid points; raises WindowTooSmall otherwise.
    """
    if window is None:
        window = default_fit_window(prof)
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise WindowTooSmall(f"window {window!r} is empty")
    mask = (prof.lambdas >= lo) & (prof.lambdas <= hi)
    if int(mask.sum()) < 5:
        raise WindowTooSmall(
            f"only {int(mask.sum())} grid points in window [{lo}, {hi}]; need 5"
        )
    slope, intercept, r2, eff = _loglog_fit(prof.lambdas[mask], prof.norms[mask])
    return GrowthFit(
        slope=float(slope), intercept=float(intercept), window=eff, r_squared=r2
    )
