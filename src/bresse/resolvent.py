"""Resolvent solves along the imaginary axis and growth-exponent fitting.

(i*lambda - A_h) U = F is solved through the second-order reduction: with
F = (f, g), the displacement block satisfies

    (-lambda^2 M + i lambda C + K) q = M (g + i lambda f) + C f,

and v = i*lambda*q - f.  The operator norm is taken in the energy metric
G = diag(K, M) itself, by Lanczos on R* R over flat complex states (q, v);
a profile draws the seeded start state and allocates the Lanczos
workspace once, for all its lambdas.  Because
M, C and K are real and symmetric, the G-adjoint of the generator is
A_h* = J A_h J with J = diag(I, -I), so R(i lambda)* y = J conj(R(i lambda)
conj(J y)): the adjoint is one more solve with the same LU of P(lambda).

P(lambda) is the system's quadratic pencil at s = i lambda, banded and
LU-factored once per lambda by discretization._Pencil, which the spectrum
certifies on too.  The right-hand side M (g + i lambda f) + C f comes
from one product with the system's KMC_csr = diag(K, M, C), like every
other product; a profile casts that CSR to complex once, for all its
lambdas.  Every solve's backward error is tested on the spot.

Profiles are capped at lambda_max = 1 / h, h the largest element width:
P1 elements cannot represent modes beyond O(1/h), and fitting past the cap
would measure the discretization rather than the system.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dstevd, zgbcon
from scipy.sparse import csr_array

from .discretization import AssembledSystem, _check_dims, _integer, _leading_block, _Pencil
from .errors import (
    DimensionMismatch,
    EmptyGrid,
    GridBeyondResolution,
    NoConvergence,
    OutOfDomain,
    SchemaError,
    SingularAtLambda,
    WindowTooSmall,
)
from .timedomain import PowerLawFit, _loglog_fit

__all__ = [
    "ResolventProfile",
    "resolvent_solve",
    "lambda_cap",
    "profile",
    "fit_growth_exponent",
]

_START_SEED = 314159
_LANCZOS_CAP = 50  # Lanczos steps before NoConvergence
_RITZ_GAP = 1e-12  # Kato-Temple: r^2 / (theta_1 - theta_2) <= this * theta_1
_RITZ_RESIDUAL = 1e-6  # and r <= this * theta_1


@dataclass(frozen=True, eq=False)
class ResolventProfile:
    """Resolvent norms over a frequency grid, with solver diagnostics.

    iters and residuals record, per lambda, the Lanczos step count and
    the worst relative backward error ||rhs - P q||_1 / (||P||_1 ||q||_1 +
    ||rhs||_1) over every forward and adjoint P(lambda) solve behind that
    norm; each solve tests its own and passes only at most dim * eps.
    Each norm lies below the true one, its square by about 1e-12 relative
    at most, and depends only on its lambda and the seed (see profile).
    """

    lambdas: np.ndarray
    norms: np.ndarray
    iters: np.ndarray
    residuals: np.ndarray
    lambda_max: float


class _Resolvent:
    """Factored resolvent at one real lambda, with forward/adjoint solves.

    pencil is P(lambda) = P(i lambda) with its banded LU (_Pencil).  KMC
    is the system's diag(K, M, C) as a CSR, from the caller: real for one
    solve, complex for a profile, so that no product casts it again.  A
    NaN or infinite lambda is OutOfDomain.  apply and apply_adjoint read a
    flat state x = (q, v) of length 2N and write into a given complex
    buffer of that length; neither checks the shape.
    """

    def __init__(self, sys: AssembledSystem, lam: float, KMC: csr_array):
        self.sys = sys
        self.KMC = KMC
        self.lam = float(lam)
        if not math.isfinite(self.lam):
            raise OutOfDomain(f"lambda={self.lam!r} must be finite")
        self.il = 1j * self.lam
        self.pencil = pencil = _Pencil(sys, self.il)
        self.bound = sys.n_dofs * np.finfo(float).eps
        if pencil.info != 0:
            raise SingularAtLambda(self.lam, f"the LU of P has an exact zero pivot (info {pencil.info})")
        # i*lam on the discrete spectrum: a vanishing reciprocal condition number
        rcond, _ = zgbcon(pencil.kl, pencil.kl, pencil.lu, pencil.piv, pencil.norm1, norm="1")
        if not rcond > self.bound:
            raise SingularAtLambda(
                self.lam, f"reciprocal condition number {rcond:.3e} <= {self.bound:.3e}"
            )
        self._work = np.empty((3, sys.n_dofs), dtype=complex)  # rhs, q, rhs - P q
        self._magnitudes = np.empty((3, sys.n_dofs))

    def apply(self, x: np.ndarray, out: np.ndarray) -> float:
        """out <- R(i lam) x for a flat state x = (f, g); returns the
        backward error of its P solve.  The right-hand side sums rows N:2N
        and 2N: of one KMC product on (f, g + i lam f, f).

        The backward error is ||rhs - P q||_1 / (||P||_1 ||q||_1 +
        ||rhs||_1), and the solve passes when it is at most dim * eps: the
        worst-case rounding bound of a dim-term inner product, the error of
        evaluating that residual itself, so a larger one (or a non-finite
        one) is a failed solve, not roundoff, and raises SingularAtLambda.
        """
        n = self.sys.n_dofs
        f, g = x[:n], x[n:]
        rhs, q, res = self._work
        Y = self.KMC @ np.concatenate((f, g + self.il * f, f))
        np.add(Y[n : 2 * n], Y[2 * n :], out=rhs)
        q[:] = self.pencil.solve(rhs)
        res[:] = self.pencil.residual(q, rhs)
        rhs_norm, q_norm, err = np.abs(self._work, out=self._magnitudes).sum(axis=1)
        scale = self.pencil.norm1 * q_norm + rhs_norm
        backward = err / scale if scale else 0.0  # F = 0 gives U = 0 exactly
        if not backward <= self.bound:
            raise SingularAtLambda(
                self.lam, f"backward error {backward:.3e} of the P solve exceeds {self.bound:.3e}"
            )
        out[:n] = q
        np.multiply(self.il, q, out=out[n:])
        out[n:] -= f
        return float(backward)

    def apply_adjoint(self, y: np.ndarray, out: np.ndarray) -> float:
        """out <- R(i lam)* y in the G inner product, J conj(R(i lam) conj(J y)),
        with the backward error of its P solve; y is overwritten with conj(J y)."""
        _flip(y)
        backward = self.apply(y, out)
        _flip(out)
        return backward


def _flip(x: np.ndarray):
    """x <- J conj(x) in place, J = diag(I, -I) on a flat state."""
    np.conjugate(x, out=x)
    v = x[x.size // 2 :]
    np.negative(v, out=v)


def resolvent_solve(sys: AssembledSystem, lam: float, F: np.ndarray) -> np.ndarray:
    """Solve (i*lam - A_h) U = F with a backward-stable P(lam) solve.

    Raises OutOfDomain for a NaN or infinite lam, and SingularAtLambda
    when i*lam sits on the discrete spectrum (possible only for the
    undamped system): the 1-norm reciprocal condition number of P(lam) is
    at most dim * eps.  It raises too when the P solve leaves a residual
    above dim * eps * (||P||_1 ||q||_1 + ||rhs||_1), the rounding level of
    the residual itself.  DimensionMismatch, before any work, unless F is
    a flat state of shape (2 sys.n_dofs,).  Returns U complex.
    """
    _check_dims(sys, F)
    U = np.empty(2 * sys.n_dofs, dtype=complex)
    _Resolvent(sys, lam, sys.KMC_csr).apply(F, U)
    return U


class _Lanczos:
    """Lanczos on T = R* R, self-adjoint in the G inner product, for
    ||R(lam)||_G, with one start state and one workspace for every lambda.

    The seeded start state, G-normalized, and its G-image are formed once;
    every lambda starts from them.  The basis V is stored by rows with the
    conjugates of its G-images, GVc, so the G inner products with a state
    are one row product; both are sized to the step cap (plus the row that
    takes each step's new vector) and reused by every lambda, which reads
    only the rows it wrote itself.  KMC is the system's KMC_csr with
    complex entries, so that no product casts the real ones again, and G
    = diag(K, M) its leading 2N rows, sharing its arrays as G_csr does;
    one G product gives K q and M v at once.  SchemaError unless seed is an
    integer >= 0 (see discretization._integer).
    """

    def __init__(self, sys: AssembledSystem, seed: int = 0):
        seed = _integer("seed", seed, "an integer >= 0")
        if seed < 0:
            raise SchemaError("seed", "an integer >= 0")
        self.sys = sys
        n = sys.n_dofs
        self.KMC = sys.KMC_csr.astype(complex)
        self.G = _leading_block(self.KMC, 2 * n)
        rng = np.random.default_rng(_START_SEED + seed)

        def draw():  # drawn field by field, so each seed keeps its start vector
            return rng.standard_normal((3, n // 3)).T.ravel()

        x = np.concatenate((draw() + 1j * draw(), draw() + 1j * draw()))
        gx = self.G @ x
        scale = 1.0 / np.sqrt(np.vdot(x, gx).real)
        self.V = np.empty((_LANCZOS_CAP + 1, 2 * n), dtype=complex)
        self.GVc = np.empty_like(self.V)
        self.V[0] = x * scale
        np.conjugate(gx * scale, out=self.GVc[0])
        self.y = np.empty(2 * n, dtype=complex)
        self.alpha, self.beta = np.empty(_LANCZOS_CAP), np.empty(_LANCZOS_CAP)

    def norm(self, lam: float):
        """(||R(lam)||_G, Lanczos steps, worst backward error over its solves).

        The basis is reorthogonalized in full, in two passes.  The largest
        Ritz value theta_1 (dstevd on the tridiagonal), with residual r =
        beta_k |y_k| and second Ritz value theta_2 (0 after one step), is
        accepted when r^2 <= _RITZ_GAP * theta_1 (theta_1 - theta_2) (the
        Kato-Temple bound on its error) and r <= _RITZ_RESIDUAL * theta_1;
        the norm is sqrt(theta_1).  NoConvergence past _LANCZOS_CAP steps.
        """
        op = _Resolvent(self.sys, lam, self.KMC)
        V, GVc, y, alpha, beta = self.V, self.GVc, self.y, self.alpha, self.beta
        worst = 0.0
        for k in range(_LANCZOS_CAP):
            w = V[k + 1]
            err_y = op.apply(V[k], y)
            err_z = op.apply_adjoint(y, w)
            worst = max(worst, err_y, err_z)
            alpha[k] = 0.0
            for _ in range(2):
                h = GVc[: k + 1] @ w
                w -= h @ V[: k + 1]
                alpha[k] += h[k].real
            gw = self.G @ w
            beta[k] = np.sqrt(max(np.vdot(w, gw).real, 0.0))
            # dstevd reads k off-diagonals; f2py wants at least one entry
            theta, S, info = dstevd(alpha[: k + 1], beta[: max(k, 1)])
            if info != 0:
                raise NoConvergence(f"resolvent norm at lambda={lam!r} has no Ritz values: dstevd info={info}")
            theta1 = theta[-1]
            theta2 = theta[-2] if k else 0.0
            r = beta[k] * abs(S[-1, -1])
            if r * r <= _RITZ_GAP * theta1 * (theta1 - theta2) and r <= _RITZ_RESIDUAL * theta1:
                return float(np.sqrt(theta1)), k + 1, worst
            w /= beta[k]
            np.conjugate(gw / beta[k], out=GVc[k + 1])
        raise NoConvergence(
            f"resolvent norm at lambda={lam!r} did not converge within {_LANCZOS_CAP} iterations"
        )


def lambda_cap(sys: AssembledSystem) -> float:
    """Largest frequency the mesh resolves: 1 / max element width."""
    return 1.0 / float(sys.mesh.widths.max())


def profile(sys: AssembledSystem, lambda_grid, seed: int = 0) -> ResolventProfile:
    """||(i*lam - A_h)^{-1}||_G by Lanczos on R* R over a positive grid,
    sorted, capped at lambda_max.

    Each squared norm lies within about 1e-12 relative of the true one,
    from below (see _Lanczos.norm); NoConvergence past 50 steps.  Every
    lambda starts from the one vector that seed, an integer >= 0
    (SchemaError otherwise), picks.  A scalar grid is one point; any other
    shape than (k,) is DimensionMismatch, and a NaN, infinite or
    nonpositive lambda OutOfDomain, before any work.
    """
    grid = np.atleast_1d(np.asarray(lambda_grid, dtype=float))
    if grid.ndim != 1:
        raise DimensionMismatch(f"lambda grid of shape {grid.shape} is not one-dimensional")
    if grid.size == 0:
        raise EmptyGrid("lambda grid is empty")
    if not np.all(np.isfinite(grid)):
        raise OutOfDomain("every lambda of the grid must be finite")
    if not np.all(grid > 0):
        raise OutOfDomain("lambda grid must be strictly positive")
    grid = np.sort(grid)
    cap = lambda_cap(sys)
    beyond = grid[grid > cap * (1.0 + 1e-12)]
    if beyond.size:
        raise GridBeyondResolution(float(beyond[0]), cap)

    lanczos = _Lanczos(sys, seed)
    details = [lanczos.norm(lam) for lam in grid]
    norms = np.array([d[0] for d in details])
    iters = np.array([d[1] for d in details], dtype=int)
    residuals = np.array([d[2] for d in details])
    return ResolventProfile(
        lambdas=grid,
        norms=norms,
        iters=iters,
        residuals=residuals,
        lambda_max=cap,
    )


def default_fit_window(prof: ResolventProfile) -> tuple:
    """[lambda_max/10, lambda_max], clipped below at lambda=3."""
    return (max(3.0, prof.lambda_max / 10.0), prof.lambda_max)


def fit_growth_exponent(prof: ResolventProfile, window=None) -> PowerLawFit:
    """Least-squares PowerLawFit of log(norm) vs log(lambda) inside the window.

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
    return _loglog_fit(prof.lambdas[mask], prof.norms[mask])
