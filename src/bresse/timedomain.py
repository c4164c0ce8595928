"""Implicit-midpoint time integration and polynomial decay fitting.

The module steps (simulate) and fits (fit_decay); the CLI composes them.

The midpoint rule (I - dt/2 A_h) U_{n+1} = (I + dt/2 A_h) U_n is reduced to
one symmetric positive-definite solve per step,

    (M + dt/2 C + (dt/2)^2 K) v_mid = M v_n - dt/2 K q_n,
    q_{n+1} = q_n + dt v_mid,      v_{n+1} = 2 v_mid - v_n,

which reproduces the continuous energy balance exactly in discrete time:
E_{n+1} - E_n = -dt * v_mid^T C v_mid holds to solver roundoff for every
step and every dt (the scheme is unconditionally stable here).  That
identity is what turns the dissipation law into a unit test instead of an
approximation.

simulate keeps the state in one buffer X = [q | v | v_mid], whose first
2N entries are the flat state (q, v).  A step writes M v_n - dt/2 K q_n
into the third slot and solves it there into v_mid (one banded Cholesky
solve, in place), updates q and v in place, and makes one product with
the system's KMC_csr = diag(K, M, C), [K q_{n+1} | M v_{n+1} | C v_mid].
The first two blocks give the energy and the next step's right-hand
side, the third the balance term, and one vecdot of X with that product
records the step's three dot products.  The energies, their samples and
the balance residuals are formed from that record after the loop.
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
    "initial_data",
]

_MIN_ENERGY_RATIO = 1e-8  # fit_decay drops samples below this fraction of E_0


@dataclass(frozen=True)
class SimConfig:
    """Time grid for one trajectory.

    sample_stride, an integer >= 1 (an integral float is taken as one),
    defaults to 1 (every step), the CLI's SimSettings to 16.
    """

    dt: float
    t_final: float
    sample_stride: int = 1


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
    fitting and the CSV output consume.  A step costs one in-place banded
    Cholesky solve, one sys.KMC_csr product and one vecdot on the buffer
    [q | v | v_mid], which has the dtype of U0, so complex data integrates
    too (solved part by part); the initial energy comes from that product
    on [U0 | 0].  The loop records the dot products q.Kq, v.Mv and
    v_mid.C v_mid of every step in one (n_steps + 1, 3) array and checks
    only that the energy is finite; the energies, samples and balance
    residuals are formed from that array once the loop ends.  Raises
    SchemaError for a non-integral sample_stride, DimensionMismatch unless
    U0 has shape (2 sys.n_dofs,), OutOfDomain for a NaN or Inf dt or
    t_final, for a step count too large to record (t_final/dt past the
    float range included) and when U0 has a NaN or Inf entry or an energy
    that overflows, and FactorizationFailed when a later energy is not
    finite.
    """
    stride = _validate_sim_config(cfg)
    dt = cfg.dt
    ratio = cfg.t_final / dt  # inf when the quotient overflows
    _check_dims(sys, U0)
    n = sys.n_dofs
    X = np.zeros(3 * n, dtype=np.result_type(U0, float))
    try:
        n_steps = int(round(ratio))
        dots = np.empty((n_steps + 1, 3), dtype=X.dtype)
    except (OverflowError, ValueError, MemoryError):
        raise OutOfDomain(f"t_final/dt asks for {ratio:.3e} steps, too many to record") from None
    real = dots.real  # (q.Kq, v.Mv, v_mid.C v_mid) of each step

    KMC = sys.KMC_csr
    X[: 2 * n] = U0
    q, v, v_mid = X[:n], X[n : 2 * n], X[2 * n :]
    slots = X.reshape(3, n)
    work = np.empty_like(q)
    half = 0.5 * dt
    Y = KMC @ X  # [K q | M v | C v_mid]
    with np.errstate(over="ignore", invalid="ignore"):  # vecdot warns on an Inf entry
        np.vecdot(slots, Y.reshape(3, n), out=dots[0])
    e0 = 0.5 * real[0, 1] + 0.5 * real[0, 0]
    if not math.isfinite(e0):  # a NaN or Inf entry of U0 always reaches e0
        raise OutOfDomain("initial state has a non-finite entry or energy")
    factor = _midpoint_factor(sys, dt)

    for step in range(1, n_steps + 1):
        np.subtract(Y[n : 2 * n], np.multiply(half, Y[:n], out=v_mid), out=v_mid)
        _band_solve(factor, v_mid, in_place=True)
        q += np.multiply(dt, v_mid, out=work)
        np.subtract(np.multiply(2.0, v_mid, out=work), v, out=v)
        Y = KMC @ X
        np.vecdot(slots, Y.reshape(3, n), out=dots[step])
        if not math.isfinite(real[step, 0] + real[step, 1]):  # so the energy formed below is too
            raise FactorizationFailed(f"energy is not finite after step {step}")

    # Formed in the record, so the residuals are the one new array of its
    # length: its columns (q.Kq, v.Mv, v_mid.C v_mid) become (potential,
    # kinetic, dt v_mid.C v_mid), then the first one the energy.
    samples = np.append(np.arange(0, n_steps, stride), n_steps)
    real[:, 0] *= 0.5  # column by column: a 2-D strided update buffers a copy
    real[:, 1] *= 0.5
    real[:, 2] *= dt
    kinetics, potentials = real[samples, 1], real[samples, 0]
    energies = real[:, 0]
    energies += real[:, 1]
    residuals = np.diff(energies)  # |E_{n+1} - E_n + dt v_mid.C v_mid| / (E_0 + eps)
    residuals += real[1:, 2]
    np.abs(residuals, out=residuals)
    residuals /= e0 + np.finfo(float).tiny
    return EnergySeries(
        times=samples * dt,
        energies=energies[samples],
        kinetics=kinetics,
        potentials=potentials,
        sample_residuals=np.append(0.0, np.maximum.reduceat(residuals, samples[:-1])),
        dissipation_residuals=residuals,
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


def initial_data(L: float):
    """The default smooth initial condition on (0, L), clamped at both
    ends: what the simulate and decay-fit commands run."""
    zero = lambda x: 0.0
    return (
        lambda x: math.sin(math.pi * x / L),
        lambda x: math.sin(2.0 * math.pi * x / L),
        lambda x: math.sin(math.pi * x / L),
        zero,
        zero,
        zero,
    )
