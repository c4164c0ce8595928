"""Implicit-midpoint time integration and polynomial decay fitting.

The midpoint rule (I - dt/2 A_h) U_{n+1} = (I + dt/2 A_h) U_n is reduced to
one symmetric positive-definite solve per step,

    (M + dt/2 C + (dt/2)^2 K) v_mid = M v_n - dt/2 K q_n,
    q_{n+1} = q_n + dt v_mid,      v_{n+1} = 2 v_mid - v_n,

which reproduces the continuous energy balance exactly in discrete time:
E_{n+1} - E_n = -dt * v_mid^T C v_mid holds to solver roundoff for every
step and every dt (the scheme is unconditionally stable here).  That
identity is what turns the dissipation law into a unit test instead of an
approximation.

A step of simulate costs one banded Cholesky solve and one product with
the system's KMC_csr = diag(K, M, C) on [q_{n+1} | v_{n+1} | v_bar],
whose first 2N entries are the flat state (q, v): K q_{n+1} and M v_{n+1}
give the energy and are carried to the next step's right-hand side, and
C v_bar, with v_bar = (v_n + v_{n+1}) / 2, gives the balance term.  The
loop records every step; the samples are taken from that record after it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .discretization import (
    AssembledSystem,
    _band_cholesky,
    _band_solve,
    _check_dims,
    _integer,
    domain_norm,
    project_initial_data,
)
from .errors import (
    BadInterval,
    FactorizationFailed,
    NonPositiveParameter,
    NonpositiveEnergy,
    OutOfDomain,
    WindowTooSmall,
)

__all__ = [
    "SimConfig",
    "EnergySeries",
    "PowerLawFit",
    "step_midpoint",
    "simulate",
    "fit_decay",
    "decay_analysis",
    "initial_data",
]

_MIN_ENERGY_RATIO = 1e-8  # fit_decay drops samples below this fraction of E_0


@dataclass(frozen=True)
class SimConfig:
    """Time grid and decay-fit window for one trajectory.

    sample_stride, an integer >= 1 (an integral float is taken as one),
    defaults to 1 (every step), the CLI's SimSettings to 16;
    SimSettings takes its fit_window default from here.  simulate ignores
    fit_window; decay_analysis checks it.
    """

    dt: float
    t_final: float
    sample_stride: int = 1
    fit_window: tuple = (10.0, 100.0)


@dataclass(frozen=True, eq=False)
class EnergySeries:
    """Sampled energies plus the per-step dissipation balance record.

    times/energies/kinetics/potentials hold the sampled trajectory
    (always including the initial and final instants).
    dissipation_residuals has one entry per step n:
    |E_{n+1} - E_n + dt * v_mid^T C v_mid| / (E_0 + eps).
    sample_residuals aligns with times: the largest step residual since the
    previous sample (0 at t=0).
    """

    times: np.ndarray
    energies: np.ndarray
    kinetics: np.ndarray
    potentials: np.ndarray
    sample_residuals: np.ndarray
    dissipation_residuals: np.ndarray
    initial_domain_norm: float


def _midpoint_factor(sys: AssembledSystem, dt: float):
    """Banded Cholesky factor of M + dt/2 C + (dt/2)^2 K, SPD for dt > 0."""
    half = 0.5 * dt
    W = sys.M_band + half * sys.C_band + (half * half) * sys.K_band
    return _band_cholesky(W, f"the midpoint matrix at dt={dt!r}")


def step_midpoint(sys: AssembledSystem, U: np.ndarray, dt: float) -> np.ndarray:
    """One implicit-midpoint step of U_t = A_h U.  It factors the midpoint
    matrix on every call; simulate factors it once per trajectory.  K q
    and M v come from one G_csr product."""
    if not dt > 0:
        raise NonPositiveParameter("dt", dt)
    _check_dims(sys, U)
    q, v = np.split(U, 2)
    factor = _midpoint_factor(sys, dt)
    Kq, Mv = np.split(sys.G_csr @ U, 2)
    v_mid = _band_solve(factor, Mv - (0.5 * dt) * Kq)
    return np.concatenate((q + dt * v_mid, 2.0 * v_mid - v))


def _validate_sim_config(cfg: SimConfig) -> int:
    """Check cfg and return its sample stride as an int."""
    for name in ("dt", "t_final"):
        value = getattr(cfg, name)
        if not math.isfinite(value):
            raise OutOfDomain(f"{name}={value!r} must be finite")
    if not cfg.dt > 0:
        raise NonPositiveParameter("dt", cfg.dt)
    if not cfg.t_final >= 10.0 * cfg.dt:
        raise BadInterval(
            f"t_final={cfg.t_final!r} must be at least 10*dt={10.0 * cfg.dt!r}"
        )
    stride = _integer("sample_stride", cfg.sample_stride)
    if stride < 1:
        raise NonPositiveParameter("sample_stride", cfg.sample_stride)
    return stride


def simulate(sys: AssembledSystem, U0: np.ndarray, cfg: SimConfig) -> EnergySeries:
    """Integrate with the midpoint rule, recording the energy budget.

    Per-step dissipation residuals verify the exact balance; the sampled
    series (every sample_stride steps plus the final step) is what decay
    fitting and the CSV output consume.  A step costs one banded Cholesky
    solve and one sys.KMC_csr product on the buffer [q_{n+1} | v_{n+1} |
    v_bar], which has the dtype of U0, so complex data integrates too; the
    initial energy comes from that product on [U0 | 0].  The loop records
    the kinetic and potential energy and the balance residual of every
    step in one (3, n_steps + 1) array, and the samples are taken from it
    once the loop ends.  Raises SchemaError for a non-integral
    sample_stride, DimensionMismatch unless U0 has shape (2 sys.n_dofs,),
    OutOfDomain for a NaN or Inf dt or t_final, for a step count too large
    to record (t_final/dt past the float range included) and when U0 has
    a NaN or Inf entry or an energy that overflows, and
    FactorizationFailed when a later energy is not finite.
    """
    stride = _validate_sim_config(cfg)
    dt = cfg.dt
    ratio = cfg.t_final / dt  # inf when the quotient overflows
    try:
        n_steps = int(round(ratio))
        record = np.empty((3, n_steps + 1))
    except (OverflowError, ValueError, MemoryError):
        raise OutOfDomain(f"t_final/dt asks for {ratio:.3e} steps, too many to record") from None
    kinetics, potentials, residuals = record
    eps = np.finfo(float).tiny

    dom0 = domain_norm(sys, U0)
    n = sys.n_dofs
    KMC = sys.KMC_csr
    X = np.zeros(3 * n, dtype=np.result_type(U0, float))
    X[: 2 * n] = U0
    q, v, v_bar = X[:n], X[n : 2 * n], X[2 * n :]
    Y = KMC @ X  # [K q | M v | C v_bar]
    kinetic = kinetics[0] = 0.5 * np.vdot(v, Y[n : 2 * n]).real
    potential = potentials[0] = 0.5 * np.vdot(q, Y[:n]).real
    e0 = E = kinetic + potential
    if not math.isfinite(e0):  # a NaN or Inf entry of U0 always reaches e0
        raise OutOfDomain("initial state has a non-finite entry or energy")
    factor = _midpoint_factor(sys, dt)

    for step in range(1, n_steps + 1):
        v_mid = _band_solve(factor, Y[n : 2 * n] - (0.5 * dt) * Y[:n])
        q += dt * v_mid
        v_next = 2.0 * v_mid - v
        v_bar[:] = 0.5 * (v + v_next)
        v[:] = v_next
        Y = KMC @ X
        kinetic = kinetics[step] = 0.5 * np.vdot(v, Y[n : 2 * n]).real
        potential = potentials[step] = 0.5 * np.vdot(q, Y[:n]).real
        E_next = kinetic + potential
        if not math.isfinite(E_next):
            raise FactorizationFailed(f"energy is not finite after step {step}")
        dissipated = dt * float(np.vdot(v_bar, Y[2 * n :]).real)
        residuals[step] = abs(E_next - E + dissipated) / (e0 + eps)
        E = E_next

    samples = np.append(np.arange(0, n_steps, stride), n_steps)
    return EnergySeries(
        times=samples * dt,
        energies=kinetics[samples] + potentials[samples],
        kinetics=kinetics[samples],
        potentials=potentials[samples],
        sample_residuals=np.append(0.0, np.maximum.reduceat(residuals[1:], samples[:-1])),
        dissipation_residuals=residuals[1:],
        initial_domain_norm=dom0,
    )


@dataclass(frozen=True)
class PowerLawFit:
    """Least-squares line log(y) = slope * log(x) + intercept, with the
    effective window: the (smallest, largest) x actually used."""

    slope: float
    intercept: float
    window: tuple
    r_squared: float


def _loglog_fit(x_data: np.ndarray, y_data: np.ndarray) -> PowerLawFit:
    """Least-squares PowerLawFit of log(y) against log(x) over the given
    samples.  Shared by the decay and the resolvent-growth fits."""
    x = np.log(x_data)
    y = np.log(y_data)
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    return PowerLawFit(
        slope=float(slope),
        intercept=float(intercept),
        window=(float(x_data.min()), float(x_data.max())),
        r_squared=r2,
    )


def fit_decay(series: EnergySeries, window) -> PowerLawFit:
    """Fit E(t) ~ c t^(-gamma) by least squares on (log t, log E): the
    PowerLawFit has gamma = -slope and c = exp(intercept).

    Samples below 1e-8 * E_0 are dropped (exponential-tail
    contamination); at least 10 samples must remain.  Raises
    NonpositiveEnergy when the window touches the roundoff floor and
    WindowTooSmall when too few samples survive.
    """
    lo, hi = float(window[0]), float(window[1])
    if not 0.0 < lo < hi:
        raise WindowTooSmall(f"window {window!r} is empty")
    t = series.times
    E = series.energies
    mask = (t >= lo) & (t <= hi)
    if np.any(E[mask] <= 0.0):
        raise NonpositiveEnergy(
            "energy reaches the roundoff floor inside the window; shrink it"
        )
    e0 = E[0]
    if e0 <= 0.0:
        raise NonpositiveEnergy("initial energy is zero; nothing to fit")
    mask &= E >= _MIN_ENERGY_RATIO * e0
    count = int(mask.sum())
    if count < 10:
        raise WindowTooSmall(
            f"only {count} usable samples in window [{lo}, {hi}]; need 10"
        )
    return _loglog_fit(t[mask], E[mask])


def decay_analysis(sys: AssembledSystem, cfg: SimConfig):
    """Simulate the default datum, initial_data(L), and fit its decay.

    Returns (series, fit): the EnergySeries and its PowerLawFit on
    cfg.fit_window.  Raises BadInterval, before the trajectory, unless
    cfg.fit_window is a pair (lo, hi) with 0 < lo < hi <= t_final, and
    the errors of fit_decay (WindowTooSmall, NonpositiveEnergy) after it.
    """
    if len(cfg.fit_window) != 2:
        raise BadInterval(f"fit_window={cfg.fit_window!r} must be a pair (lo, hi)")
    lo, hi = cfg.fit_window
    if not (0.0 < lo < hi <= cfg.t_final):
        raise BadInterval(
            f"fit_window={cfg.fit_window!r} must lie inside (0, t_final]"
        )
    series = simulate(sys, project_initial_data(sys, initial_data(sys.params.L)), cfg)
    return series, fit_decay(series, cfg.fit_window)


def initial_data(L: float):
    """The default smooth initial condition on (0, L), clamped at both
    ends: what the simulate command runs and decay_analysis fits."""
    zero = lambda x: 0.0
    return (
        lambda x: math.sin(math.pi * x / L),
        lambda x: math.sin(2.0 * math.pi * x / L),
        lambda x: math.sin(math.pi * x / L),
        zero,
        zero,
        zero,
    )
