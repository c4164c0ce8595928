"""Physical parameters, their validation, and wave-speed classification.

The beam carries three coupled fields (vertical displacement, shear angle,
longitudinal displacement) on (0, L) with clamped ends.  Viscoelastic
damping of Kelvin-Voigt type acts on the axial strain rate only, and only
on the subinterval (alpha, beta).
"""

import math
from dataclasses import dataclass

from .errors import BadInterval, NonPositiveParameter, OutOfDomain

__all__ = [
    "ModelParams",
    "SpeedClass",
    "EQUAL_SPEEDS",
    "UNEQUAL_SPEEDS",
    "validate_params",
    "classify_speeds",
]

EQUAL_SPEEDS = "EqualSpeeds"
UNEQUAL_SPEEDS = "UnequalSpeeds"

_POSITIVE_FIELDS = ("rho1", "rho2", "k1", "k2", "k3", "l", "L", "d0")

_SPEED_REL_TOL = 1e-12  # relative tolerance of classify_speeds


@dataclass(frozen=True)
class ModelParams:
    """Coefficients of the damped curved-beam system.

    rho1   mass density times cross-section area
    rho2   rotational inertia
    k1     shear stiffness
    k2     bending stiffness
    k3     axial stiffness
    l      curvature of the undeformed centerline
    L      beam length
    alpha  left endpoint of the damped subinterval
    beta   right endpoint of the damped subinterval
    d0     viscoelastic damping coefficient on (alpha, beta)
    """

    rho1: float
    rho2: float
    k1: float
    k2: float
    k3: float
    l: float
    L: float
    alpha: float
    beta: float
    d0: float


@dataclass(frozen=True)
class SpeedClass:
    """Stability regime determined by the two wave speeds k1/rho1, k2/rho2.

    variant is ``EqualSpeeds`` or ``UnequalSpeeds``; the predicted exponents
    are the resolvent growth order (2 or 4) and the energy decay exponent
    (1.0 or 0.5) associated with the regime.
    """

    variant: str
    predicted_resolvent_exponent: int
    predicted_decay_exponent: float


def validate_params(p: ModelParams) -> ModelParams:
    """Check strict positivity, finiteness and the damping-interval ordering.

    Returns p unchanged when valid.  Raises NonPositiveParameter or
    OutOfDomain naming the first coefficient that is not > 0 (NaN
    included) or not finite, or BadInterval unless 0 < alpha < beta < L.
    """
    for name in _POSITIVE_FIELDS:
        value = getattr(p, name)
        if not value > 0:  # also rejects NaN
            raise NonPositiveParameter(name, value)
        _check_finite(name, value)
    return _check_interval(p)


def _check_finite(name: str, value):
    """OutOfDomain naming the coefficient unless value is a finite float
    (an integer beyond the float range is not)."""
    try:
        finite = math.isfinite(value)
    except OverflowError:
        finite = False
    if not finite:
        raise OutOfDomain(f"parameter {name!r} must be finite (got {value!r})")


def _check_interval(p: ModelParams) -> ModelParams:
    """p, unless it breaks 0 < alpha < beta < L (NaN too): then BadInterval."""
    if not (0.0 < p.alpha < p.beta < p.L):
        raise BadInterval(
            f"damping interval must satisfy 0 < alpha < beta < L, got "
            f"alpha={p.alpha!r}, beta={p.beta!r}, L={p.L!r}"
        )
    return p


def classify_speeds(p: ModelParams) -> SpeedClass:
    """Classify into the equal-speed or unequal-speed regime.

    Speeds are compared with a relative tolerance of 1e-12 because
    floating-point parameter entry makes exact equality fragile.
    """
    validate_params(p)
    s1 = p.k1 / p.rho1
    s2 = p.k2 / p.rho2
    if abs(s1 - s2) <= _SPEED_REL_TOL * max(s1, s2):
        return SpeedClass(EQUAL_SPEEDS, 2, 1.0)
    return SpeedClass(UNEQUAL_SPEEDS, 4, 0.5)

