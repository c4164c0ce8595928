"""Stability laboratory for a clamped curved beam with local Kelvin-Voigt damping.

The package discretizes the three-field beam system (vertical displacement,
shear angle, longitudinal displacement) with conforming P1 elements, then
probes its stability three independent ways: eigenvalues of the quadratic
pencil, resolvent norms along the imaginary axis, and energy decay of
midpoint-integrated trajectories.  The headline experiment is the decay
dichotomy: equal wave speeds give resolvent growth ~ lambda^2 and energy
decay ~ 1/t, unequal speeds give ~ lambda^4 and ~ 1/sqrt(t).
"""

from . import errors
from .discretization import (
    AssembledSystem,
    EnergyComponents,
    Mesh,
    StateVector,
    apply_generator,
    assemble,
    build_mesh,
    domain_norm,
    energy,
    inner_product_H,
    project_initial_data,
)
from .model import (
    ModelParams,
    SpeedClass,
    classify_speeds,
    damping_at,
    validate_params,
)
from .resolvent import (
    GrowthFit,
    ResolventProfile,
    fit_growth_exponent,
    resolvent_norm,
    resolvent_solve,
)
from .spectral import SpectrumReport, axis_scan, quadratic_eigs
from .timedomain import (
    DecayFit,
    EnergySeries,
    SimConfig,
    decay_analysis,
    fit_decay,
    simulate,
    step_midpoint,
)

__version__ = "0.1.0"

__all__ = [
    "errors",
    "ModelParams",
    "SpeedClass",
    "validate_params",
    "damping_at",
    "classify_speeds",
    "Mesh",
    "AssembledSystem",
    "StateVector",
    "EnergyComponents",
    "build_mesh",
    "assemble",
    "apply_generator",
    "energy",
    "inner_product_H",
    "domain_norm",
    "project_initial_data",
    "SpectrumReport",
    "quadratic_eigs",
    "axis_scan",
    "ResolventProfile",
    "GrowthFit",
    "resolvent_solve",
    "resolvent_norm",
    "fit_growth_exponent",
    "SimConfig",
    "EnergySeries",
    "DecayFit",
    "step_midpoint",
    "simulate",
    "fit_decay",
    "decay_analysis",
    "__version__",
]
