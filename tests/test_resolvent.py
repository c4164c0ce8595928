"""Resolvent solves, operator-norm estimation, and growth-exponent fits."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import eig
from scipy.linalg.lapack import zgbtrf, zgbtrs

from bresse import resolvent
from bresse.discretization import AssembledSystem, apply_generator, g_norm_sq
from bresse.errors import (
    DimensionMismatch,
    EmptyGrid,
    GridBeyondResolution,
    OutOfDomain,
    SchemaError,
    SingularAtLambda,
    WindowTooSmall,
)
from bresse.resolvent import (
    ResolventProfile,
    _trailing_block,
    default_fit_window,
    fit_growth_exponent,
    lambda_cap,
    profile,
    resolvent_solve,
)

from conftest import (
    dense_generator,
    dense_resolvent_norm,
    energy_generator,
    full_band_dense,
    make_system,
    random_state,
)


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
            r = 1j * lam * U - AU - F
            rel = np.sqrt(g_norm_sq(sys16, r) / g_norm_sq(sys16, F))
            assert rel <= 1e-10

    def test_zero_frequency_solves_static_problem(self, sys16):
        """At lam = 0: K q = M g + C f and v = -f."""
        rng = np.random.default_rng(42)
        F = random_state(sys16, rng)
        U = resolvent_solve(sys16, 0.0, F)
        (f, g), (q, v) = np.split(F, 2), np.split(U, 2)
        rhs = sys16.M @ g + sys16.C @ f
        assert_allclose(sys16.K @ q, rhs, rtol=1e-11)
        assert np.array_equal(v, -f.astype(complex))

    def test_zero_data(self, sys16):
        U = resolvent_solve(sys16, 3.0, np.zeros(2 * sys16.n_dofs))
        assert U.shape == (2 * sys16.n_dofs,) and np.all(U == 0.0)

    def test_linearity(self, sys16):
        rng = np.random.default_rng(43)
        F1 = random_state(sys16, rng, complex_valued=True)
        F2 = random_state(sys16, rng, complex_valued=True)
        both = 2.0 * F1 + F2
        U1 = resolvent_solve(sys16, 4.0, F1)
        U2 = resolvent_solve(sys16, 4.0, F2)
        U = resolvent_solve(sys16, 4.0, both)
        assert_allclose(U, 2.0 * U1 + U2, rtol=1e-10, atol=1e-12)


class TestBandedPencil:
    """The banded P(lambda) and its LU against dense algebra."""

    @staticmethod
    def dense_pencil(sys, lam):
        return -lam * lam * sys.M + 1j * lam * sys.C + sys.K

    @pytest.mark.parametrize("lam", [3.0, 7.5, 20.0])
    def test_band_is_the_pencil(self, sys16, lam):
        op = resolvent._Resolvent(sys16, lam, _trailing_block(sys16.KMC_csr, sys16.n_dofs))
        P = self.dense_pencil(sys16, lam)
        assert np.array_equal(full_band_dense(op.band), P)
        assert abs(op.norm1 - np.linalg.norm(P, 1)) <= 1e-14 * np.linalg.norm(P, 1)

    @pytest.mark.parametrize("k2", [1.0, 2.0])
    @pytest.mark.parametrize("lam", [3.0, 7.5, 20.0])
    def test_solve_matches_dense_solve(self, k2, lam):
        """Equal (k2 = 1) and unequal (k2 = 2) speeds."""
        sys = make_system(16, k2=k2)
        F = random_state(sys, np.random.default_rng(45), complex_valued=True)
        U = np.empty_like(F)
        resolvent._Resolvent(sys, lam, _trailing_block(sys.KMC_csr, sys.n_dofs)).apply(F, U)
        (f, g), (Uq, Uv) = np.split(F, 2), np.split(U, 2)
        P = -lam * lam * sys.M + 1j * lam * sys.C + sys.K
        q = np.linalg.solve(P, sys.M @ (g + 1j * lam * f) + sys.C @ f)
        assert np.linalg.norm(Uq - q) <= 1e-12 * np.linalg.norm(q)
        assert np.linalg.norm(Uv - (1j * lam * q - f)) <= 1e-12 * np.linalg.norm(Uv)

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf])
    def test_non_finite_frequency_is_out_of_domain(self, sys16, lam):
        """A NaN or infinite lambda is bad input (exit 15), refused before
        P(lambda) is formed, for a solve and for a profile."""
        F = random_state(sys16, np.random.default_rng(47))
        with pytest.raises(OutOfDomain, match="must be finite") as exc:
            resolvent_solve(sys16, lam, F)
        assert exc.value.exit_code == 15
        with pytest.raises(OutOfDomain, match="must be finite") as exc:
            profile(sys16, lam)
        assert exc.value.exit_code == 15

    def test_residual_with_fewer_dofs_than_band_rows(self, monkeypatch):
        """4 elements give N = 9, fewer than the band's 2 kl + 1 = 11 rows:
        the rhs - P q that apply forms on the padded product is the dense
        one.  q is a random vector in place of the solution, so the
        residual is O(1) and the solve is refused on it."""
        sys = make_system(4)
        lam = 3.0
        rng = np.random.default_rng(9)
        x = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        monkeypatch.setattr(resolvent, "zgbtrs", lambda *args, **kwargs: (x.copy(), 0))
        op = resolvent._Resolvent(sys, lam, _trailing_block(sys.KMC_csr, sys.n_dofs))
        with pytest.raises(SingularAtLambda, match="backward error"):
            op.apply(random_state(sys, rng, complex_valued=True), np.empty(2 * sys.n_dofs, dtype=complex))
        rhs, q, res = op._work
        assert np.array_equal(q, x)
        P = self.dense_pencil(sys, lam)
        assert_allclose(res, rhs - P @ q, rtol=0, atol=1e-12 * np.abs(rhs).max())

    def test_zero_pivot_raises(self, sys16, monkeypatch):
        """An exact zero on U's diagonal, which zgbtrf reports as info > 0,
        makes zgbcon's reciprocal condition number 0.0: the one
        conditioning test refuses it, exit 22."""
        j = sys16.n_dofs // 2

        def zero_pivot(ab, kl, ku, **kwargs):
            lu, piv, _ = zgbtrf(ab, kl, ku, **kwargs)
            lu[kl + ku, j] = 0.0
            return lu, piv, j + 1

        monkeypatch.setattr(resolvent, "zgbtrf", zero_pivot)
        with pytest.raises(SingularAtLambda, match="reciprocal condition number 0.000e[+]00") as exc:
            resolvent_solve(sys16, 3.0, random_state(sys16, np.random.default_rng(46)))
        assert exc.value.exit_code == 22


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
        norm = profile(sys, lam).norms[0]
        assert abs(norm - 1.0 / dist) <= 1e-9 / dist

    def test_undamped_eigenfrequency_raises(self, sys16_undamped):
        """i*lam on the undamped spectrum fails the conditioning test.

        3.1081249323692366 is the first eigenfrequency at n = 16, where
        rcond(P) is about 3e-16: the conditioning test refuses it before
        any Lanczos step, since a norm there would measure only roundoff.
        """
        with pytest.raises(SingularAtLambda, match="reciprocal condition number"):
            profile(sys16_undamped, 3.1081249323692366)

    def test_norm_bounds_random_solves(self, sys16):
        """No right-hand side is amplified beyond the estimated norm."""
        norm = profile(sys16, 5.0).norms[0]
        rng = np.random.default_rng(44)
        for _ in range(20):
            F = random_state(sys16, rng, complex_valued=True)
            U = resolvent_solve(sys16, 5.0, F)
            ratio = np.sqrt(g_norm_sq(sys16, U) / g_norm_sq(sys16, F))
            assert ratio <= norm * (1.0 + 1e-6)

    def test_even_in_frequency(self, sys16):
        """The damped system is real, so the norm is even in lam."""
        plus = profile(sys16, 5.0).norms[0]
        minus = resolvent._Lanczos(sys16, 0).norm(-5.0)[0]
        assert abs(plus - minus) <= 1e-6 * plus

    def test_finite_at_zero(self, sys16):
        norm = resolvent._Lanczos(sys16, 0).norm(0.0)[0]
        assert np.isfinite(norm) and norm > 0.0

    def test_stable_under_refinement(self):
        """At a fixed moderate frequency the norm is mesh-converged."""
        n64 = profile(make_system(64), 5.0).norms[0]
        n128 = profile(make_system(128), 5.0).norms[0]
        assert abs(n128 - n64) / n64 < 0.05

    def test_deterministic(self, sys16):
        a = profile(sys16, 7.0).norms[0]
        b = profile(sys16, 7.0).norms[0]
        assert a == b


class TestNormAtPeaks:
    """At an eigenfrequency lam = Im s the norm peaks near 1/|Re s|.

    Lanczos accepts a squared norm within about 1e-12 of the true one, so
    1e-9 leaves the dense oracle's own rounding room.  Every point is
    checked and all failures are reported together.
    """

    @staticmethod
    def mismatches(sys, lams):
        At = energy_generator(sys)
        failures = []
        for lam in map(float, lams):
            try:
                norm = profile(sys, lam).norms[0]
            except SingularAtLambda as exc:
                failures.append(f"lambda {lam!r}: {exc}")
                continue
            exact = dense_resolvent_norm(At, lam)
            rel = abs(norm - exact) / exact
            if not rel <= 1e-9:
                failures.append(f"lambda {lam!r}: norm {norm} vs dense {exact}, rel {rel:.3e}")
        return failures

    @staticmethod
    def resolved_eigenfrequencies(sys):
        im = eig(dense_generator(sys), right=False).imag
        return np.sort(im[(im > 0.0) & (im <= lambda_cap(sys))])

    @pytest.mark.parametrize("k2", [1.0, 2.0])
    def test_every_resolved_eigenfrequency_matches_dense(self, k2):
        """n = 32: every eigenfrequency 0 < Im s <= lambda_max."""
        sys = make_system(32, k2=k2)
        lams = self.resolved_eigenfrequencies(sys)
        assert lams.size >= 20
        assert self.mismatches(sys, lams) == []

    @pytest.mark.parametrize("k2", [1.0, 2.0])
    def test_every_resolved_eigenfrequency_at_n64(self, k2):
        """n = 64: every eigenfrequency 0 < Im s <= lambda_max."""
        sys = make_system(64, k2=k2)
        lams = self.resolved_eigenfrequencies(sys)
        assert lams.size >= 40
        assert self.mismatches(sys, lams) == []

    def test_coarsest_mesh(self):
        """n = 4: 9 dofs, fewer than the 11 rows of the pencil's band."""
        assert self.mismatches(make_system(4), [1.0, 2.0, 3.0, 4.0]) == []

    def test_equal_speed_peak_at_n64(self):
        """A peak whose G-norm solve residual (about 7e-10) exceeds 1e-10."""
        assert self.mismatches(make_system(64), [34.98946235961022]) == []

    def test_valleys_at_n128(self):
        """Between peaks at n = 128, where the two largest singular values
        of R nearly coincide: sigma_min/sigma_next of i lam - At is 0.98
        to 0.99."""
        assert self.mismatches(make_system(128), [42.8, 58.6, 68.5, 109.5]) == []


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

    def test_one_ulp_past_the_cap_is_beyond_resolution(self, sys16):
        """The cap has no slack: the cap itself profiles, the next float
        above it is GridBeyondResolution (exit 21)."""
        cap = lambda_cap(sys16)
        assert profile(sys16, cap).lambdas[-1] == cap
        with pytest.raises(GridBeyondResolution) as exc:
            profile(sys16, [3.0, np.nextafter(cap, np.inf)])
        assert exc.value.exit_code == 21 and exc.value.offending > cap

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

        monkeypatch.setattr(resolvent, "zgbtrs", perturbed)
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

    @pytest.mark.parametrize("seed", [0, 1])
    def test_each_lambda_as_if_alone(self, seed):
        """A profile draws one start state and fills one workspace for all
        its lambdas, and each lambda gets the norm, step count and residual
        of a run on it alone.  On this grid (resolvent-n128's) the counts
        go up and down (5, 9, 4, ... at seed 0), so a short run follows
        a longer one whose basis rows are still in the workspace."""
        sys = make_system(128)
        grid = np.logspace(np.log10(3.0), np.log10(38.3), 8)
        prof = profile(sys, grid, seed=seed)
        alone = [resolvent._Lanczos(sys, seed).norm(lam) for lam in grid]
        assert prof.norms.tolist() == [norm for norm, _, _ in alone]
        assert prof.iters.tolist() == [steps for _, steps, _ in alone]
        assert prof.residuals.tolist() == [worst for _, _, worst in alone]
        assert min(prof.iters) < max(prof.iters[: int(np.argmin(prof.iters))])

    def test_stale_workspace_rows_are_never_read(self, sys16):
        """Every workspace row past the start state may hold anything."""
        fresh = resolvent._Lanczos(sys16, 0).norm(7.0)
        lanczos = resolvent._Lanczos(sys16, 0)
        for rows in (lanczos.V[1:], lanczos.GVc[1:], lanczos.alpha, lanczos.beta, lanczos.y):
            rows[...] = np.nan
        assert lanczos.norm(7.0) == fresh

    def test_one_complex_csr_per_profile(self, sys16, monkeypatch):
        """The workspace casts KMC_csr to complex once; its G is that CSR's
        leading 2N rows and its tail the rows N:3N, both sharing its data
        and indices, and every lambda's resolvent multiplies with that
        same tail."""
        lanczos = resolvent._Lanczos(sys16, 0)
        n = sys16.n_dofs
        assert lanczos.KMC.dtype == complex
        assert np.array_equal(lanczos.KMC.toarray(), sys16.KMC_csr.toarray())
        assert np.array_equal(lanczos.G.toarray(), sys16.G_csr.toarray())
        assert np.array_equal(lanczos.tail.toarray(), sys16.KMC_csr.toarray()[n:])
        for name in ("data", "indices", "indptr"):
            assert np.shares_memory(getattr(lanczos.G, name), getattr(lanczos.KMC, name))
        for name in ("data", "indices"):
            assert np.shares_memory(getattr(lanczos.tail, name), getattr(lanczos.KMC, name))
        operators = []
        real = resolvent._Resolvent

        def recording(sys, lam, tail):
            operators.append(tail)
            return real(sys, lam, tail)

        monkeypatch.setattr(resolvent, "_Resolvent", recording)
        lanczos.norm(3.0)
        lanczos.norm(7.0)
        assert len(operators) == 2 and all(op is lanczos.tail for op in operators)

    def test_deterministic(self, sys16):
        grid = [3.0, 6.0, 12.0]
        p1 = profile(sys16, grid)
        p2 = profile(sys16, grid)
        assert np.array_equal(p1.norms, p2.norms)
        assert np.array_equal(p1.iters, p2.iters)

    @pytest.mark.parametrize("k2, iters", [
        (1.0, [5, 11, 9, 7, 5, 8]),
        (2.0, [5, 5, 9, 6, 4, 6]),
    ])
    def test_seeded_start_vector_is_pinned(self, k2, iters):
        """The default seed's Lanczos runs take these step counts.

        The counts depend on the start vector, so they pin its draws and
        their placement in the dof order: seeds 1, 2 and 3 give other
        equal-speed counts.
        """
        prof = profile(make_system(32, k2=k2), np.geomspace(3.0, 30.0, 6))
        assert prof.iters.tolist() == iters

    @pytest.mark.parametrize("seed", [-1, -400000, 1.5, np.nan, np.inf])
    def test_seed_not_a_nonnegative_integer_is_refused(self, monkeypatch, seed):
        """Such a seed is the CLI's SchemaError (exit 11), raised before the
        Lanczos workspace is built."""
        monkeypatch.setattr(resolvent, "_Resolvent", None)  # never reached
        sys = make_system(16)
        with pytest.raises(SchemaError) as exc:
            profile(sys, [3.0], seed=seed)
        assert exc.value.exit_code == 11 and exc.value.path == "seed"
        assert not {"KMC_csr", "G_csr"} & vars(sys).keys()  # the workspace's CSR was never formed

    @pytest.mark.parametrize("grid", [[[3.0, 4.0], [5.0, 6.0]], [[3.0]], np.ones((2, 0))])
    def test_grid_not_one_dimensional_is_refused(self, monkeypatch, grid):
        """A grid of more than one dimension is DimensionMismatch (exit 24),
        raised before the Lanczos workspace is built."""
        monkeypatch.setattr(resolvent, "_Lanczos", None)  # never reached
        with pytest.raises(DimensionMismatch, match="not one-dimensional") as exc:
            profile(make_system(8), grid)
        assert exc.value.exit_code == 24

    def test_scalar_grid_is_one_point(self, sys16):
        prof = profile(sys16, 7.0)
        assert prof.lambdas.tolist() == [7.0]
        assert prof.norms.tolist() == [resolvent._Lanczos(sys16, 0).norm(7.0)[0]]

    def test_integral_float_seed(self, sys16):
        """An integral float seed draws the integer's start vector."""
        assert profile(sys16, 7.0, seed=2.0).norms[0] == profile(sys16, 7.0, seed=2).norms[0]


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
        """[max(3, top/10), top], top the grid's largest lambda."""
        prof = synthetic_profile(2.0)
        assert default_fit_window(prof.lambdas) == (3.0, prof.lambdas[-1])
        top = 300.0
        assert default_fit_window(np.linspace(10.0, top, prof.lambdas.size)) == (top / 10.0, top)

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
