"""Resolvent solves, operator-norm estimation, and growth-exponent fits."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import block_diag, eig
from scipy.linalg.lapack import zgbtrf, zgbtrs

from bresse import discretization, resolvent
from bresse.discretization import (
    AssembledSystem,
    StateVector,
    apply_generator,
    g_norm_sq,
)
from bresse.errors import (
    EmptyGrid,
    GridBeyondResolution,
    OutOfDomain,
    SingularAtLambda,
    WindowTooSmall,
)
from bresse.resolvent import (
    ResolventProfile,
    default_fit_window,
    fit_growth_exponent,
    lambda_cap,
    profile,
    resolvent_norm,
    resolvent_solve,
)

from conftest import full_band_dense, make_system, random_state


def dense_generator(sys):
    n = sys.n_dofs
    return np.block([
        [np.zeros((n, n)), np.eye(n)],
        [-np.linalg.solve(sys.M, sys.K), -np.linalg.solve(sys.M, sys.C)],
    ])


def dense_resolvent_norm(sys, A, lam):
    """sigma_max(L^T (i lam - A)^-1 L^-T) with G = diag(K, M) = L L^T, all dense."""
    L = block_diag(np.linalg.cholesky(sys.K), np.linalg.cholesky(sys.M))
    X = np.linalg.solve(1j * lam * np.eye(A.shape[0]) - A, np.linalg.inv(L).T)
    return float(np.linalg.norm(L.T @ X, 2))


# ---------------------------------------------------------------------------
# pointwise solves
# ---------------------------------------------------------------------------


class TestResolventSolve:
    def test_state_space_residual(self, sys16):
        """(i lam - A) U = F holds in the energy norm for random data."""
        rng = np.random.default_rng(41)
        for _ in range(20):
            lam = float(rng.uniform(0.5, 20.0))
            F = random_state(sys16, rng, complex_valued=True)
            U = resolvent_solve(sys16, lam, F)
            AU = apply_generator(sys16, U)
            r = StateVector(
                1j * lam * U.q - AU.q - F.q, 1j * lam * U.v - AU.v - F.v
            )
            rel = np.sqrt(g_norm_sq(sys16, r) / g_norm_sq(sys16, F))
            assert rel <= 1e-10

    def test_zero_frequency_solves_static_problem(self, sys16):
        """At lam = 0: K q = M g + C f and v = -f."""
        rng = np.random.default_rng(42)
        F = random_state(sys16, rng)
        U = resolvent_solve(sys16, 0.0, F)
        rhs = sys16.M @ F.v + sys16.C @ F.q
        assert_allclose(sys16.K @ U.q, rhs, rtol=1e-11)
        assert np.array_equal(U.v, -F.q.astype(complex))

    def test_zero_data(self, sys16):
        z = StateVector(np.zeros(sys16.n_dofs), np.zeros(sys16.n_dofs))
        U = resolvent_solve(sys16, 3.0, z)
        assert np.all(U.q == 0.0) and np.all(U.v == 0.0)

    def test_linearity(self, sys16):
        rng = np.random.default_rng(43)
        F1 = random_state(sys16, rng, complex_valued=True)
        F2 = random_state(sys16, rng, complex_valued=True)
        both = StateVector(2.0 * F1.q + F2.q, 2.0 * F1.v + F2.v)
        U1 = resolvent_solve(sys16, 4.0, F1)
        U2 = resolvent_solve(sys16, 4.0, F2)
        U = resolvent_solve(sys16, 4.0, both)
        assert_allclose(U.q, 2.0 * U1.q + U2.q, rtol=1e-10, atol=1e-12)
        assert_allclose(U.v, 2.0 * U1.v + U2.v, rtol=1e-10, atol=1e-12)


class TestBandedPencil:
    """The banded P(lambda) and its LU against dense algebra."""

    @staticmethod
    def dense_pencil(sys, lam):
        return -lam * lam * sys.M + 1j * lam * sys.C + sys.K

    @pytest.mark.parametrize("lam", [3.0, 7.5, 20.0])
    def test_band_is_the_pencil(self, sys16, lam):
        op = resolvent._Resolvent(sys16, lam)
        P = self.dense_pencil(sys16, lam)
        assert np.array_equal(full_band_dense(op.pencil.band), P)
        assert abs(op.pencil.norm1 - np.linalg.norm(P, 1)) <= 1e-14 * np.linalg.norm(P, 1)

    @pytest.mark.parametrize("k2", [1.0, 2.0])
    @pytest.mark.parametrize("lam", [3.0, 7.5, 20.0])
    def test_solve_matches_dense_solve(self, k2, lam):
        """Equal (k2 = 1) and unequal (k2 = 2) speeds."""
        sys = make_system(16, k2=k2)
        F = random_state(sys, np.random.default_rng(45), complex_valued=True)
        U = resolvent._Resolvent(sys, lam).solve(F)[0]
        P = -lam * lam * sys.M + 1j * lam * sys.C + sys.K
        q = np.linalg.solve(P, sys.M @ (F.v + 1j * lam * F.q) + sys.C @ F.q)
        assert np.linalg.norm(U.q - q) <= 1e-12 * np.linalg.norm(q)
        assert np.linalg.norm(U.v - (1j * lam * q - F.q)) <= 1e-12 * np.linalg.norm(U.v)

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf])
    def test_non_finite_frequency_is_out_of_domain(self, sys16, lam):
        """A NaN or infinite lambda is bad input (exit 15), refused before
        P(lambda) is formed, for a solve and for a norm."""
        F = random_state(sys16, np.random.default_rng(47))
        with pytest.raises(OutOfDomain, match="must be finite") as exc:
            resolvent_solve(sys16, lam, F)
        assert exc.value.exit_code == 15
        with pytest.raises(OutOfDomain, match="must be finite"):
            resolvent_norm(sys16, lam)

    def test_zero_pivot_raises(self, sys16, monkeypatch):
        def zero_pivot(ab, kl, ku, **kwargs):
            lu, piv, _ = zgbtrf(ab, kl, ku, **kwargs)
            return lu, piv, 1

        monkeypatch.setattr(discretization, "zgbtrf", zero_pivot)
        with pytest.raises(SingularAtLambda, match="zero pivot"):
            resolvent_solve(sys16, 3.0, random_state(sys16, np.random.default_rng(46)))


# ---------------------------------------------------------------------------
# operator norm
# ---------------------------------------------------------------------------


class TestResolventNorm:
    def test_undamped_norm_is_reciprocal_spectral_distance(self):
        """Skew generator: ||R(lam)|| = 1 / dist(i lam, spectrum)."""
        sys = make_system(16, d0=0.0)
        spectrum = eig(dense_generator(sys), right=False)
        lam = 2.0
        dist = np.min(np.abs(1j * lam - spectrum))
        norm = resolvent_norm(sys, lam, tol=1e-9, max_iters=2000)
        assert abs(norm - 1.0 / dist) <= 1e-4 / dist

    def test_undamped_eigenfrequency_raises(self, sys16_undamped):
        """i*lam on the undamped spectrum fails the conditioning test.

        3.1081249323692366 is the first eigenfrequency at n = 16, where
        rcond(P) is about 3e-16; the power iteration alone would run into
        its 200-iteration cap there.
        """
        with pytest.raises(SingularAtLambda, match="reciprocal condition number"):
            resolvent_norm(sys16_undamped, 3.1081249323692366)

    def test_norm_bounds_random_solves(self, sys16):
        """No right-hand side is amplified beyond the estimated norm."""
        norm = resolvent_norm(sys16, 5.0, tol=1e-10, max_iters=2000)
        rng = np.random.default_rng(44)
        for _ in range(20):
            F = random_state(sys16, rng, complex_valued=True)
            U = resolvent_solve(sys16, 5.0, F)
            ratio = np.sqrt(g_norm_sq(sys16, U) / g_norm_sq(sys16, F))
            assert ratio <= norm * (1.0 + 1e-6)

    def test_even_in_frequency(self, sys16):
        """The damped system is real, so the norm is even in lam."""
        plus = resolvent_norm(sys16, 5.0, tol=1e-9, max_iters=2000)
        minus = resolvent_norm(sys16, -5.0, tol=1e-9, max_iters=2000)
        assert abs(plus - minus) <= 1e-6 * plus

    def test_finite_at_zero(self, sys16):
        norm = resolvent_norm(sys16, 0.0)
        assert np.isfinite(norm) and norm > 0.0

    def test_stable_under_refinement(self):
        """At a fixed moderate frequency the norm is mesh-converged."""
        n64 = resolvent_norm(make_system(64), 5.0)
        n128 = resolvent_norm(make_system(128), 5.0)
        assert abs(n128 - n64) / n64 < 0.05

    def test_deterministic(self, sys16):
        a = resolvent_norm(sys16, 7.0)
        b = resolvent_norm(sys16, 7.0)
        assert a == b


class TestNormAtPeaks:
    """At an eigenfrequency lam = Im s the norm peaks near 1/|Re s|.

    The power iteration stops when successive estimates differ by 1e-6
    relative; 1e-5 leaves room for a contraction ratio up to 0.9 per
    step in the remaining error.  Every point is checked and all failures
    are reported together.
    """

    @staticmethod
    def mismatches(sys, A, lams):
        failures = []
        for lam in map(float, lams):
            try:
                norm = resolvent_norm(sys, lam)
            except SingularAtLambda as exc:
                failures.append(f"lambda {lam!r}: {exc}")
                continue
            exact = dense_resolvent_norm(sys, A, lam)
            rel = abs(norm - exact) / exact
            if not rel <= 1e-5:
                failures.append(f"lambda {lam!r}: norm {norm} vs dense {exact}, rel {rel:.3e}")
        return failures

    @pytest.mark.parametrize("k2", [1.0, 2.0])
    def test_every_resolved_eigenfrequency_matches_dense(self, k2):
        """n = 32: every eigenfrequency 0 < Im s <= lambda_max."""
        sys = make_system(32, k2=k2)
        A = dense_generator(sys)
        im = eig(A, right=False).imag
        lams = np.sort(im[(im > 0.0) & (im <= lambda_cap(sys))])
        assert lams.size >= 20
        assert self.mismatches(sys, A, lams) == []

    def test_equal_speed_peak_at_n64(self):
        """A peak whose G-norm solve residual (about 7e-10) exceeds 1e-10."""
        sys = make_system(64)
        assert self.mismatches(sys, dense_generator(sys), [34.98946235961022]) == []


# ---------------------------------------------------------------------------
# profiles over a frequency grid
# ---------------------------------------------------------------------------


class TestProfile:
    def test_basic_profile(self, sys16):
        grid = [3.0, 5.0, 8.0, 12.0, 16.0]
        prof = profile(sys16, grid)
        assert_allclose(prof.lambdas, grid, rtol=0)
        assert prof.norms.shape == (5,)
        assert np.all(prof.norms > 0.0)
        assert np.all(prof.residuals <= 1e-10)
        assert np.all(prof.iters >= 1)
        assert prof.mesh_size == 16
        assert prof.lambda_max == 16.0

    def test_grid_is_sorted_on_output(self, sys16):
        prof = profile(sys16, [8.0, 3.0, 5.0])
        assert np.array_equal(prof.lambdas, [3.0, 5.0, 8.0])

    def test_empty_grid(self, sys16):
        with pytest.raises(EmptyGrid):
            profile(sys16, [])

    def test_nonpositive_frequency(self, sys16):
        with pytest.raises(OutOfDomain):
            profile(sys16, [1.0, -2.0])

    def test_nan_frequency_is_out_of_domain(self, sys16):
        with pytest.raises(OutOfDomain) as exc:
            profile(sys16, [3.0, np.nan])
        assert exc.value.exit_code == 15

    def test_cap_enforced_with_both_numbers_reported(self, sys16):
        assert lambda_cap(sys16) == 16.0
        with pytest.raises(GridBeyondResolution) as exc:
            profile(sys16, [3.0, 40.0])
        assert exc.value.offending == 40.0
        assert exc.value.lambda_max == 16.0
        msg = str(exc.value)
        assert "40.0" in msg and "16.0" in msg

    def test_cap_scales_with_c_resolve(self, sys16):
        prof = profile(sys16, [3.0, 20.0], c_resolve=2.0)
        assert prof.lambda_max == 32.0

    def test_residual_is_backward_error_of_the_checked_solve(self):
        """At the n = 64 equal-speed peak the G-norm state residual is about
        7e-10, while the P solve it certifies is backward stable to dim * eps."""
        sys = make_system(64)
        prof = profile(sys, [34.98946235961022])
        assert prof.residuals[0] <= sys.n_dofs * np.finfo(float).eps

    @pytest.mark.parametrize("first_bad", [1, 2, 5])
    def test_failed_solve_raises_at_that_solve(self, sys16, monkeypatch, first_bad):
        """A banded LU solve that stops being backward stable raises at once."""
        calls = []

        def perturbed(*args, **kwargs):
            q, info = zgbtrs(*args, **kwargs)
            calls.append(None)
            if len(calls) >= first_bad:
                q[0] += 1e-6 * np.abs(q).max()
            return q, info

        monkeypatch.setattr(discretization, "zgbtrs", perturbed)
        with pytest.raises(SingularAtLambda, match="backward error"):
            profile(sys16, [3.0, 5.0])
        assert len(calls) == first_bad

    def test_needs_no_dense_matrix(self, sys16, monkeypatch):
        """The resolvent works on the bands alone: no dense M, C or K."""

        def dense(self):
            raise AssertionError("dense matrix expanded")

        for name in ("M", "C", "K"):
            monkeypatch.setattr(AssembledSystem, name, property(dense))
        prof = profile(sys16, [3.0, 5.0, 12.0])
        assert np.all(prof.norms > 0.0)

    def test_deterministic(self, sys16):
        grid = [3.0, 6.0, 12.0]
        p1 = profile(sys16, grid)
        p2 = profile(sys16, grid)
        assert np.array_equal(p1.norms, p2.norms)
        assert np.array_equal(p1.iters, p2.iters)

    @pytest.mark.parametrize("k2, iters", [
        (1.0, [9, 21, 42, 17, 12, 66]),
        (2.0, [6, 5, 46, 7, 4, 6]),
    ])
    def test_seeded_start_vector_is_pinned(self, k2, iters):
        """The default seed's power iterations take these counts.

        The counts depend on the start vector, so they pin its draws and
        their placement in the dof order.
        """
        prof = profile(make_system(32, k2=k2), np.geomspace(3.0, 30.0, 6))
        assert prof.iters.tolist() == iters


# ---------------------------------------------------------------------------
# growth-exponent fits
# ---------------------------------------------------------------------------


def synthetic_profile(exponent, count=12):
    lams = np.logspace(np.log10(3.0), np.log10(30.0), count)
    return ResolventProfile(
        lambdas=lams,
        norms=2.7 * lams**exponent,
        iters=np.ones(count, dtype=int),
        residuals=np.zeros(count),
        mesh_size=64,
        lambda_max=30.0,
    )


class TestGrowthFit:
    def test_recovers_quadratic_growth(self):
        fit = fit_growth_exponent(synthetic_profile(2.0))
        assert abs(fit.slope - 2.0) <= 1e-10
        assert fit.r_squared == 1.0

    def test_recovers_quartic_growth(self):
        fit = fit_growth_exponent(synthetic_profile(4.0))
        assert abs(fit.slope - 4.0) <= 1e-10

    def test_intercept_recovers_prefactor(self):
        fit = fit_growth_exponent(synthetic_profile(2.0))
        assert abs(np.exp(fit.intercept) - 2.7) <= 1e-8

    def test_default_window(self):
        prof = synthetic_profile(2.0)
        lo, hi = default_fit_window(prof)
        assert lo == 3.0 and hi == 30.0

    def test_effective_window_is_within_grid(self):
        prof = synthetic_profile(2.0)
        fit = fit_growth_exponent(prof, window=(2.0, 50.0))
        assert fit.window[0] >= prof.lambdas[0]
        assert fit.window[1] <= prof.lambdas[-1]

    def test_window_with_too_few_points(self):
        prof = synthetic_profile(2.0)
        with pytest.raises(WindowTooSmall):
            fit_growth_exponent(prof, window=(3.0, 3.5))
        with pytest.raises(WindowTooSmall):
            fit_growth_exponent(prof, window=(5.0, 4.0))

    def test_r_squared_bounded_on_measured_data(self, sys16):
        grid = np.logspace(np.log10(3.0), np.log10(16.0), 8)
        prof = profile(sys16, grid)
        fit = fit_growth_exponent(prof)
        assert 0.0 <= fit.r_squared <= 1.0
