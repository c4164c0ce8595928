"""Midpoint integration, the discrete energy balance, and decay fitting."""

import math
import re
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bresse import discretization
from bresse.discretization import domain_norm, g_norm_sq, project_initial_data
from bresse.errors import (
    BadInterval,
    FactorizationFailed,
    NonPositiveParameter,
    NonpositiveEnergy,
    OutOfDomain,
    SchemaError,
    WindowTooSmall,
)
from bresse import timedomain
from bresse.timedomain import (
    EnergySeries,
    PowerLawFit,
    SimConfig,
    fit_decay,
    initial_data,
    simulate,
    step_midpoint,
)

from conftest import c7_initial_data, make_system, random_state


def default_state(sys):
    return project_initial_data(sys, initial_data(1.0))


def series_from(times, energies, e0=None):
    """Wrap raw arrays in an EnergySeries for fit-only tests."""
    times = np.asarray(times, dtype=float)
    energies = np.asarray(energies, dtype=float)
    zeros = np.zeros_like(times)
    return EnergySeries(
        times=times,
        energies=energies,
        kinetics=0.5 * energies,
        potentials=0.5 * energies,
        sample_residuals=zeros,
        dissipation_residuals=np.zeros(max(times.size - 1, 1)),
    )


def reference_series(sys, U0, cfg):
    """simulate's series built step by step from step_midpoint, with the
    kinetic and potential energy of each state from one G_csr product and
    the balance term from the solved midpoint velocity v_mid."""
    dt, stride = cfg.dt, cfg.sample_stride
    n_steps = int(round(cfg.t_final / dt))
    eps = np.finfo(float).tiny
    n = sys.n_dofs
    C = discretization._band_csr(sys.C_band)
    factor = timedomain._midpoint_factor(sys, dt)

    def energies(U):  # (total, kinetic, potential)
        GU = sys.G_csr @ U
        kinetic = 0.5 * np.vdot(U[n:], GU[n:]).real
        potential = 0.5 * np.vdot(U[:n], GU[:n]).real
        return kinetic + potential, kinetic, potential

    comp = energies(U0)
    e0 = comp[0]
    rows = [(0.0, *comp, 0.0)]
    residuals = []
    U, window_max = U0, 0.0
    for step in range(1, n_steps + 1):
        U_next = step_midpoint(sys, U, dt)
        comp_next = energies(U_next)
        Kq, Mv = np.split(sys.G_csr @ U, 2)
        v_mid = discretization._band_solve(factor, Mv - (0.5 * dt) * Kq)
        dissipated = dt * float(np.vdot(v_mid, C @ v_mid).real)
        r = abs(comp_next[0] - comp[0] + dissipated) / (e0 + eps)
        residuals.append(r)
        window_max = max(window_max, r)
        U, comp = U_next, comp_next
        if step % stride == 0 or step == n_steps:
            rows.append((step * dt, *comp, window_max))
            window_max = 0.0
    return [np.array(col) for col in zip(*rows)] + [np.array(residuals)]


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------


class TestSimConfig:
    def test_nonpositive_dt(self, sys16):
        with pytest.raises(NonPositiveParameter) as exc:
            simulate(sys16, default_state(sys16), SimConfig(dt=0.0, t_final=1.0))
        assert exc.value.name == "dt"

    @pytest.mark.parametrize("field, dt, t_final", [
        ("dt", np.inf, 1.0), ("dt", np.inf, np.inf), ("dt", np.nan, 1.0),
        ("t_final", 0.01, np.inf), ("t_final", 0.01, np.nan),
    ])
    def test_non_finite_time_setting(self, sys16, field, dt, t_final):
        """A NaN or infinite dt or t_final is OutOfDomain (exit 15), naming
        the field, not a bare ValueError or OverflowError."""
        cfg = SimConfig(dt=dt, t_final=t_final)
        with pytest.raises(OutOfDomain, match=f"^{field}=") as exc:
            simulate(sys16, default_state(sys16), cfg)
        assert exc.value.exit_code == 15

    @pytest.mark.parametrize("dt", [1e-300, 1e-30, 5e-324])
    def test_step_count_too_large_to_record(self, sys16, monkeypatch, dt):
        """A step count no array can hold, or past the float range (1/5e-324
        overflows to inf), is OutOfDomain (exit 15), naming the count,
        before the midpoint factor runs."""
        monkeypatch.setattr(timedomain, "_midpoint_factor", None)  # never reached
        with pytest.raises(OutOfDomain, match=re.escape(f"{1.0 / dt:.3e} steps")) as exc:
            simulate(sys16, default_state(sys16), SimConfig(dt, 1.0))
        assert exc.value.exit_code == 15

    def test_horizon_too_short_for_dt(self, sys16):
        cfg = SimConfig(dt=0.5, t_final=1.0)
        with pytest.raises(BadInterval):
            simulate(sys16, default_state(sys16), cfg)

    def test_bad_stride(self, sys16):
        cfg = SimConfig(dt=0.01, t_final=1.0, sample_stride=0)
        with pytest.raises(NonPositiveParameter):
            simulate(sys16, default_state(sys16), cfg)

    @pytest.mark.parametrize("stride", [2.5, 1.0000001, np.float64(3.5), np.nan, np.inf])
    def test_non_integral_stride(self, sys16, stride):
        """A stride that is no integer is refused with the CLI's SchemaError
        (exit 11), not truncated."""
        cfg = SimConfig(dt=0.01, t_final=1.0, sample_stride=stride)
        with pytest.raises(SchemaError) as exc:
            simulate(sys16, default_state(sys16), cfg)
        assert exc.value.exit_code == 11 and exc.value.path == "sample_stride"

    def test_integral_float_stride(self, sys16):
        """An integral float stride samples as the integer does."""
        U0 = default_state(sys16)
        got = simulate(sys16, U0, SimConfig(dt=0.01, t_final=1.0, sample_stride=4.0))
        ref = simulate(sys16, U0, SimConfig(dt=0.01, t_final=1.0, sample_stride=4))
        assert np.array_equal(got.times, ref.times)
        assert np.array_equal(got.energies, ref.energies)

    def test_fit_window_outside_horizon(self, sys16):
        """simulate ignores the window, and a window past the horizon
        holds no sample for fit_decay: WindowTooSmall (exit 26).  The CLI
        refuses such a window before the first step."""
        series = simulate(sys16, default_state(sys16), SimConfig(dt=0.01, t_final=1.0))
        with pytest.raises(WindowTooSmall, match="only 0 usable samples") as exc:
            fit_decay(series, (10.0, 100.0))
        assert exc.value.exit_code == 26

    def test_fit_window_without_samples(self, sys16):
        """A window inside the horizon that holds no sample fails the fit
        with WindowTooSmall (exit 26)."""
        cfg = SimConfig(dt=0.0625, t_final=20.0, sample_stride=16)
        series = simulate(sys16, default_state(sys16), cfg)
        with pytest.raises(WindowTooSmall, match="only 0 usable samples") as exc:
            fit_decay(series, (10.1, 10.2))
        assert exc.value.exit_code == 26

    @pytest.mark.parametrize("block, value", [("q", np.nan), ("v", np.nan),
                                              ("q", np.inf), ("v", 1e160)])
    def test_non_finite_initial_state(self, sys16, block, value):
        """A NaN or Inf entry, or an energy that overflows, is out of domain."""
        U0 = default_state(sys16)
        U0[{"q": 0, "v": sys16.n_dofs}[block] + 4] = value
        cfg = SimConfig(dt=0.01, t_final=1.0)
        with pytest.raises(OutOfDomain) as exc:
            simulate(sys16, U0, cfg)
        assert exc.value.exit_code == 15


# ---------------------------------------------------------------------------
# single step
# ---------------------------------------------------------------------------


class TestStepMidpoint:
    def test_energy_balance_one_step(self, sys16):
        """E1 - E0 = -dt * v_mid^T C v_mid to solver roundoff."""
        rng = np.random.default_rng(51)
        U0 = random_state(sys16, rng)
        dt = 0.02
        U1 = step_midpoint(sys16, U0, dt)
        v_mid = 0.5 * (U0 + U1)[sys16.n_dofs :]
        drop = 0.5 * g_norm_sq(sys16, U1) - 0.5 * g_norm_sq(sys16, U0)
        dissipated = dt * v_mid @ sys16.C @ v_mid
        assert abs(drop + dissipated) <= 1e-11 * 0.5 * g_norm_sq(sys16, U0)

    def test_zero_state_stays_zero(self, sys16):
        U1 = step_midpoint(sys16, np.zeros(2 * sys16.n_dofs), 0.05)
        assert U1.shape == (2 * sys16.n_dofs,) and np.all(U1 == 0.0)

    def test_rejects_nonpositive_dt(self, sys16):
        rng = np.random.default_rng(52)
        U = random_state(sys16, rng)
        with pytest.raises(NonPositiveParameter):
            step_midpoint(sys16, U, -0.1)

    def test_undamped_step_preserves_energy(self, sys16_undamped):
        rng = np.random.default_rng(53)
        U0 = random_state(sys16_undamped, rng)
        e0 = 0.5 * g_norm_sq(sys16_undamped, U0)
        U1 = step_midpoint(sys16_undamped, U0, 0.03)
        e1 = 0.5 * g_norm_sq(sys16_undamped, U1)
        assert abs(e1 - e0) <= 1e-12 * e0


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------


class TestSimulate:
    @pytest.mark.parametrize("t_final, stride", [
        (2.0, 1), (2.0, 3), (2.0, 40), (2.0, 45), (0.05, 1), (0.05, 4),
    ], ids=["stride1", "stride3", "stride_n", "stride_n_plus_5", "one_step",
            "one_step_stride4"])
    def test_matches_step_by_step_reference(self, sys16, monkeypatch, t_final, stride):
        """The fused loop and its after-loop sampling reproduce
        step_midpoint and its G_csr energies bit for bit: every step, a stride that
        leaves a short last window (40 steps by 3), one sample at the end
        (stride 40 or 45), and a single step, which only a run past the
        t_final >= 10 dt check can take."""
        cfg = SimConfig(dt=0.05, t_final=t_final, sample_stride=stride)
        if t_final < 10 * cfg.dt:
            monkeypatch.setattr(timedomain, "_validate_sim_config", lambda cfg: cfg.sample_stride)
        U0 = default_state(sys16)
        series = simulate(sys16, U0, cfg)
        got = (series.times, series.energies, series.kinetics, series.potentials,
               series.sample_residuals, series.dissipation_residuals)
        for a, b in zip(got, reference_series(sys16, U0, cfg), strict=True):
            assert np.array_equal(a, b)

    def test_complex_initial_data(self, sys16):
        """Complex data integrates in full: (1 + i) U0 carries twice the
        energies of U0, and nothing is cast away with a warning."""
        cfg = SimConfig(dt=0.05, t_final=2.0)
        U0 = default_state(sys16)
        Uc = (1 + 1j) * U0
        ref = simulate(sys16, U0, cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = simulate(sys16, Uc, cfg)
        for a, b in ((got.energies, ref.energies), (got.kinetics, ref.kinetics),
                     (got.potentials, ref.potentials)):
            assert_allclose(a, 2.0 * b, rtol=1e-14, atol=0)

    def test_non_finite_energy_stops_the_run(self, monkeypatch):
        """A step whose energy is not finite raises instead of filling NaNs."""
        cfg = SimConfig(dt=0.05, t_final=1.0)
        sys = make_system(16)
        factor = timedomain._midpoint_factor(sys, cfg.dt).copy()
        factor[0, 7] = np.nan
        monkeypatch.setattr(timedomain, "_midpoint_factor", lambda sys, dt: factor)
        with pytest.raises(FactorizationFailed, match="after step 1"):
            simulate(sys, default_state(sys), cfg)

    def test_one_factorization_per_trajectory(self, sys16, monkeypatch):
        """simulate factors its midpoint matrix once per trajectory."""
        calls = []
        original = timedomain._band_cholesky

        def counting(band, what):
            calls.append(what)
            return original(band, what)

        monkeypatch.setattr(timedomain, "_band_cholesky", counting)
        cfg = SimConfig(dt=0.05, t_final=2.0)
        simulate(sys16, default_state(sys16), cfg)
        assert len(calls) == 1

    def test_one_band_solve_per_step(self, sys16, monkeypatch):
        """A trajectory of n_steps steps makes exactly n_steps banded
        solves, each in place into the state buffer."""
        calls = []
        original = timedomain._band_solve

        def counting(factor, rhs, *args, **kwargs):
            calls.append(kwargs.get("in_place", False))
            return original(factor, rhs, *args, **kwargs)

        monkeypatch.setattr(timedomain, "_band_solve", counting)
        cfg = SimConfig(dt=0.05, t_final=2.0, sample_stride=3)
        simulate(sys16, default_state(sys16), cfg)
        assert calls == [True] * 40

    def test_one_csr_per_system(self, monkeypatch):
        """A trajectory and the graph norm of its datum convert bands to a
        CSR once per system, for KMC_csr, which both reuse."""
        calls = []
        original = discretization._band_csr

        def counting(*bands):
            calls.append(len(bands))
            return original(*bands)

        monkeypatch.setattr(discretization, "_band_csr", counting)
        cfg = SimConfig(dt=0.05, t_final=20.0)
        for k2 in (1.0, 2.0):
            sys = make_system(16, k2=k2)
            U0 = default_state(sys)
            simulate(sys, U0, cfg)
            domain_norm(sys, U0)
        assert calls == [3, 3]

    def test_balance_residuals_every_step(self, sys16):
        cfg = SimConfig(dt=1.0 / 32.0, t_final=5.0, sample_stride=4)
        series = simulate(sys16, default_state(sys16), cfg)
        assert series.dissipation_residuals.size == 160
        assert series.dissipation_residuals.max() <= 1e-10
        assert series.sample_residuals[0] == 0.0
        assert series.sample_residuals.max() <= 1e-10

    def test_sampling_grid(self, sys16):
        cfg = SimConfig(dt=0.01, t_final=3.0, sample_stride=7)
        series = simulate(sys16, default_state(sys16), cfg)
        assert series.times[0] == 0.0
        assert_allclose(series.times[-1], 3.0, rtol=1e-12)
        assert_allclose(np.diff(series.times)[:-1], 0.07, rtol=1e-12)
        assert series.energies.size == series.times.size
        assert series.kinetics.size == series.times.size

    def test_energy_monotone_under_damping(self, sys16):
        cfg = SimConfig(dt=1.0 / 32.0, t_final=8.0, sample_stride=2)
        series = simulate(sys16, default_state(sys16), cfg)
        e0 = series.energies[0]
        assert np.all(np.diff(series.energies) <= 1e-12 * e0)
        assert series.energies[-1] < e0

    def test_undamped_energy_conserved(self, sys16_undamped):
        """With no damping the midpoint rule conserves E to 1e-10."""
        cfg = SimConfig(dt=1.0 / 32.0, t_final=10.0, sample_stride=8)
        series = simulate(sys16_undamped, default_state(sys16_undamped), cfg)
        e0 = series.energies[0]
        drift = np.max(np.abs(series.energies - e0)) / e0
        assert drift <= 1e-10
        assert series.dissipation_residuals.max() <= 1e-12

    def test_components_sum_to_total(self, sys16):
        cfg = SimConfig(dt=0.05, t_final=2.0)
        series = simulate(sys16, default_state(sys16), cfg)
        assert_allclose(
            series.kinetics + series.potentials, series.energies, rtol=1e-12
        )

    def test_zero_data_gives_zero_series(self, sys16):
        cfg = SimConfig(dt=0.05, t_final=1.0)
        series = simulate(sys16, np.zeros(2 * sys16.n_dofs), cfg)
        assert np.all(series.energies == 0.0)


# ---------------------------------------------------------------------------
# decay fitting
# ---------------------------------------------------------------------------


class TestFitDecay:
    def test_recovers_exact_power_law(self):
        t = np.linspace(1.0, 100.0, 400)
        series = series_from(t, 5.0 / t)
        fit = fit_decay(series, (10.0, 100.0))
        assert isinstance(fit, PowerLawFit)
        assert abs(fit.slope + 1.0) <= 1e-10
        assert abs(math.exp(fit.intercept) - 5.0) <= 1e-8
        assert fit.r_squared == 1.0
        assert fit.window[0] >= 10.0 and fit.window[1] <= 100.0

    def test_floor_samples_are_excluded(self):
        """A flat roundoff tail below the cutoff does not bias the slope."""
        t = np.linspace(1.0, 100.0, 600)
        clean = 5.0 * t**-5.0
        series = series_from(t, np.maximum(clean, 4e-8))
        fit = fit_decay(series, (2.0, 100.0))
        assert abs(fit.slope + 5.0) <= 1e-10

    def test_exponential_data_fits_poorly(self):
        """Exponential decay shows up as low r-squared, not a clean slope."""
        t = np.linspace(1.0, 35.0, 300)
        series = series_from(t, 3.0 * np.exp(-0.5 * t))
        fit = fit_decay(series, (5.0, 35.0))
        assert fit.slope < 0.0
        assert fit.r_squared < 0.99

    def test_zero_energy_in_window(self):
        t = np.linspace(1.0, 20.0, 50)
        E = np.ones_like(t)
        E[30] = 0.0
        with pytest.raises(NonpositiveEnergy):
            fit_decay(series_from(t, E), (1.0, 20.0))

    def test_zero_initial_energy_with_an_empty_window(self):
        """E_0 = 0 is refused even when no sample lies in the window, so
        the window's own energy check has nothing to see."""
        t = np.linspace(0.0, 10.0, 50)
        with pytest.raises(NonpositiveEnergy, match="initial energy is zero") as exc:
            fit_decay(series_from(t, np.zeros_like(t)), (20.0, 30.0))
        assert exc.value.exit_code == 27

    def test_too_few_samples(self):
        t = np.linspace(1.0, 100.0, 400)
        series = series_from(t, 5.0 / t)
        with pytest.raises(WindowTooSmall):
            fit_decay(series, (50.0, 51.0))
        with pytest.raises(WindowTooSmall):
            fit_decay(series, (20.0, 10.0))

    def test_measured_decay_stable_under_refinement(self):
        """Fitted decay exponents do not degrade from n=64 to n=128."""
        for k2 in (1.0, 2.0):
            gammas = []
            for n in (64, 128):
                sys = make_system(n, k2=k2)
                h = 1.0 / n
                cfg = SimConfig(dt=0.5 * h, t_final=100.0, sample_stride=16)
                series = simulate(sys, default_state(sys), cfg)
                gammas.append(-fit_decay(series, (10.0, 100.0)).slope)
            assert gammas[1] >= gammas[0] - 0.1


# ---------------------------------------------------------------------------
# canned initial data
# ---------------------------------------------------------------------------


class TestInitialData:
    def test_default_data_satisfies_boundary_conditions(self):
        fields = initial_data(2.0)
        assert len(fields) == 6
        for f in fields:
            assert abs(f(0.0)) <= 1e-12
            assert abs(f(2.0)) <= 1e-12

    def test_default_data_shape(self):
        fields = initial_data(1.0)
        assert_allclose(fields[0](0.5), 1.0, rtol=1e-12)
        assert_allclose(fields[1](0.25), 1.0, rtol=1e-12)
        assert fields[3](0.3) == 0.0

    def test_family_has_three_distinct_members(self):
        """Criterion 7's three data vanish at both ends and differ."""
        family = c7_initial_data(1.0)
        assert len(family) == 3
        for fields in family:
            assert len(fields) == 6
            for f in fields:
                assert abs(f(0.0)) <= 1e-12
                assert abs(f(1.0)) <= 1e-12
        probes = [tuple(fields[i](0.3) for i in range(3)) for fields in family]
        assert len(set(probes)) == 3
