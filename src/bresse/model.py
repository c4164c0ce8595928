"""Physical parameters, checked on construction, and wave-speed classification.

The beam carries three coupled fields (vertical displacement, shear angle,
longitudinal displacement) on (0, L) with clamped ends.  Viscoelastic
damping of Kelvin-Voigt type acts on the axial strain rate only, and only
on the subinterval (alpha, beta).
"""

import math
import numbers
from dataclasses import dataclass, fields

from .errors import BadInterval, NonPositiveParameter, OutOfDomain, SchemaError

__all__ = [
    "ModelParams",
    "SpeedClass",
    "EQUAL_SPEEDS",
    "UNEQUAL_SPEEDS",
    "classify_speeds",
]

EQUAL_SPEEDS = "EqualSpeeds"
UNEQUAL_SPEEDS = "UnequalSpeeds"

_COEFFICIENTS = ("rho1", "rho2", "k1", "k2", "k3", "l", "L", "d0")

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

    Construction, dataclasses.replace included, checks every field and
    raises SchemaError naming the first that is a bool or no real number
    (numpy's real scalars are real numbers), NonPositiveParameter naming
    the first coefficient that is not > 0, or for d0 not >= 0 (NaN
    included; d0 = 0, the undamped system, is accepted), OutOfDomain naming
    the first that is not finite (an integer beyond the float range
    included), or BadInterval unless 0 < alpha < beta < L.
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

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise SchemaError(f.name, "a real number")
        for name in _COEFFICIENTS:
            value = getattr(self, name)
            if name == "d0":
                if not value >= 0:  # also rejects NaN
                    raise NonPositiveParameter(name, value, ">= 0")
            elif not value > 0:
                raise NonPositiveParameter(name, value)
            if not _isfinite(value):
                raise OutOfDomain(f"parameter {name!r} must be finite (got {value!r})")
        if not (0.0 < self.alpha < self.beta < self.L):
            raise BadInterval(
                f"damping interval must satisfy 0 < alpha < beta < L, got "
                f"alpha={self.alpha!r}, beta={self.beta!r}, L={self.L!r}"
            )


def _isfinite(value) -> bool:
    """math.isfinite, with an integer beyond the float range not finite."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


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


def classify_speeds(p: ModelParams) -> SpeedClass:
    """Classify into the equal-speed or unequal-speed regime.

    Speeds are compared with a relative tolerance of 1e-12 because
    floating-point parameter entry makes exact equality fragile.  p has
    checked itself on construction, so both speeds are finite and positive.
    """
    s1 = p.k1 / p.rho1
    s2 = p.k2 / p.rho2
    if abs(s1 - s2) <= _SPEED_REL_TOL * max(s1, s2):
        return SpeedClass(EQUAL_SPEEDS, 2, 1.0)
    return SpeedClass(UNEQUAL_SPEEDS, 4, 0.5)

