"""Resolvent solves along the imaginary axis and growth-exponent fitting.

(i*lambda - A_h) U = F is solved through the second-order reduction: with
F = (f, g), the displacement block satisfies

    (-lambda^2 M + i lambda C + K) q = M g + (i lambda M + C) f,

and v = i*lambda*q - f.  The operator norm in the energy metric G = L L^T
is sigma_max(L^T R L^{-T}), estimated by power iteration on that
composition and its adjoint; every application costs triangular solves
plus one complex LU solve, and the adjoint reuses the same LU because
P(lambda) is complex symmetric (P^H x = conj(P^{-1} conj(x)) solve-wise).

Profiles are capped at lambda_max = c_resolve / h: P1 elements cannot
represent modes beyond O(1/h), and fitting past the cap would measure the
discretization rather than the system.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve, solve_triangular
from scipy.linalg.lapack import zgecon

from .discretization import AssembledSystem, StateVector, g_norm_sq
from .errors import (
    EmptyGrid,
    GridBeyondResolution,
    NoConvergence,
    OutOfDomain,
    SingularAtLambda,
    WindowTooSmall,
)
from .model import params_digest
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
    the verified solve residual at the final maximizing input.
    """

    lambdas: np.ndarray
    norms: np.ndarray
    iters: np.ndarray
    residuals: np.ndarray
    mesh_size: int
    lambda_max: float
    params_digest: str


@dataclass(frozen=True)
class GrowthFit:
    """Least-squares growth line of log(norm) against log(lambda)."""

    slope: float
    intercept: float
    window: tuple
    r_squared: float


class _Resolvent:
    """Factored resolvent at one real lambda, with forward/adjoint applies."""

    def __init__(self, sys: AssembledSystem, lam: float):
        self.sys = sys
        self.lam = float(lam)
        il = 1j * self.lam
        P = (-self.lam * self.lam) * sys.M + il * sys.C + sys.K
        self.P = P
        self.lu = lu_factor(P.astype(complex))
        self.il = il
        # i*lam on the discrete spectrum: a vanishing reciprocal condition number
        rcond, _ = zgecon(self.lu[0], np.linalg.norm(P, 1), norm="1")
        bound = P.shape[0] * np.finfo(float).eps
        if not rcond > bound:
            raise SingularAtLambda(
                self.lam, f"reciprocal condition number {rcond:.3e} <= {bound:.3e}"
            )

    def _solve_p(self, rhs: np.ndarray) -> np.ndarray:
        """LU solve with one iterative-refinement pass."""
        q = lu_solve(self.lu, rhs)
        r = rhs - self.P @ q
        q = q + lu_solve(self.lu, r)
        return q

    def solve(self, F: StateVector) -> StateVector:
        sys = self.sys
        f = F.q.astype(complex)
        g = F.v.astype(complex)
        rhs = sys.M @ g + self.il * (sys.M @ f) + sys.C @ f
        q = self._solve_p(rhs)
        v = self.il * q - f
        return StateVector(q, v)

    def solve_checked(self, F: StateVector) -> tuple[StateVector, float]:
        """Solve and verify the state-space residual in the G norm."""
        U = self.solve(F)
        res = self.residual(U, F)
        if not np.isfinite(res) or res > 1e-10:
            raise SingularAtLambda(
                self.lam, f"relative residual {res:.3e} exceeds 1e-10"
            )
        return U, res

    def residual(self, U: StateVector, F: StateVector) -> float:
        """||(i lam - A_h) U - F||_G / ||F||_G, computed directly.

        The first block i*lam*q - v - f vanishes identically by
        construction of v, so only the velocity equation contributes.
        """
        sys = self.sys
        r2 = (
            self.il * U.v
            + sys.solve_m(sys.K @ U.q + sys.C @ U.v)
            - F.v.astype(complex)
        )
        num = np.sqrt(np.vdot(r2, sys.M @ r2).real)
        den = np.sqrt(g_norm_sq(sys, F))
        if den == 0.0:
            return 0.0
        return float(num / den)

    # sigma_max machinery: B = L^T R L^{-T} with L = diag(chol K, chol M)

    def _split(self, w):
        n = self.sys.n_dofs
        return w[:n], w[n:]

    def apply_b(self, w: np.ndarray) -> np.ndarray:
        sys = self.sys
        wq, wv = self._split(w)
        xq = solve_triangular(sys.chol_k, wq, lower=True, trans="T")
        xv = solve_triangular(sys.chol_m, wv, lower=True, trans="T")
        U = self.solve(StateVector(xq, xv))
        yq = sys.chol_k.T @ U.q
        yv = sys.chol_m.T @ U.v
        return np.concatenate([yq, yv])

    def apply_bh(self, y: np.ndarray) -> np.ndarray:
        sys = self.sys
        yq, yv = self._split(y)
        a = sys.chol_k @ yq
        b = sys.chol_m @ yv
        # R^H (a,b) = ((-i lam M + C) t - b, M t), t = P^{-H}(a - i lam b);
        # P is complex symmetric, so P^{-H} x = conj(P^{-1} conj(x))
        t = np.conj(lu_solve(self.lu, np.conj(a - self.il * b)))
        row1 = (-self.il) * (sys.M @ t) + sys.C @ t - b
        row2 = sys.M @ t
        zq = solve_triangular(sys.chol_k, row1, lower=True)
        zv = solve_triangular(sys.chol_m, row2, lower=True)
        return np.concatenate([zq, zv])


def resolvent_solve(sys: AssembledSystem, lam: float, F: StateVector) -> StateVector:
    """Solve (i*lam - A_h) U = F; the result meets a 1e-10 G-norm residual.

    Raises SingularAtLambda when i*lam sits on the discrete spectrum
    (possible only for the undamped system): the 1-norm reciprocal
    condition number of P(lam) is at most dim * eps.
    """
    U, _ = _Resolvent(sys, lam).solve_checked(F)
    return U


def _norm_details(
    sys: AssembledSystem,
    lam: float,
    tol: float = 1e-6,
    max_iters: int = 200,
    seed: int = 0,
):
    """Power iteration for ||R(lam)||_G; returns (norm, iters, residual)."""
    op = _Resolvent(sys, lam)
    dim = 2 * sys.n_dofs
    rng = np.random.default_rng(_POWER_SEED + seed)
    w = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    w /= np.linalg.norm(w)
    sigma_prev = 0.0
    for it in range(1, max_iters + 1):
        y = op.apply_b(w)
        sigma = float(np.linalg.norm(y))
        if not np.isfinite(sigma):
            raise SingularAtLambda(lam, "power iterate diverged")
        z = op.apply_bh(y)
        nz = np.linalg.norm(z)
        if nz == 0.0:
            raise SingularAtLambda(lam, "power iterate collapsed")
        w = z / nz
        if abs(sigma - sigma_prev) <= tol * max(sigma, np.finfo(float).tiny):
            xq = solve_triangular(sys.chol_k, w[: sys.n_dofs], lower=True, trans="T")
            xv = solve_triangular(sys.chol_m, w[sys.n_dofs :], lower=True, trans="T")
            _, res = op.solve_checked(StateVector(xq, xv))
            return sigma, it, res
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
    1e-6), capped at max_iters (default 200) before NoConvergence.
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
    max_iters: int = 200,
    seed: int = 0,
    c_resolve: float = 1.0,
) -> ResolventProfile:
    """Map resolvent_norm over a positive grid, sorted, capped at lambda_max."""
    grid = np.atleast_1d(np.asarray(lambda_grid, dtype=float))
    if grid.size == 0:
        raise EmptyGrid("lambda grid is empty")
    if np.any(grid <= 0):
        raise OutOfDomain("lambda grid must be strictly positive")
    grid = np.sort(grid)
    cap = lambda_cap(sys, c_resolve)
    beyond = grid[grid > cap * (1.0 + 1e-12)]
    if beyond.size:
        raise GridBeyondResolution(float(beyond[0]), cap)

    details = [
        _norm_details(sys, lam, tol=tol, max_iters=max_iters, seed=seed) for lam in grid
    ]
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
        params_digest=params_digest(sys.params, sys.mesh.n_elements),
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
