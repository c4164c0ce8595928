"""Parameter checks on construction and wave-speed classification."""

import math
from dataclasses import replace

import numpy as np
import pytest

from bresse.errors import BadInterval, NonPositiveParameter, OutOfDomain, SchemaError
from bresse.model import (
    EQUAL_SPEEDS,
    UNEQUAL_SPEEDS,
    classify_speeds,
)

from conftest import make_params


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


class TestValidateParams:
    def test_unit_parameters_accepted(self):
        """The all-ones parameter set with (0.25, 0.75) damping is valid,
        and replace, which checks again, accepts it unchanged."""
        p = make_params()
        assert replace(p) == p

    def test_replace_checks_again(self):
        """dataclasses.replace constructs, so it checks too."""
        with pytest.raises(NonPositiveParameter) as exc:
            replace(make_params(), k2=-1.0)
        assert exc.value.name == "k2"

    def test_swapped_interval_rejected(self):
        """alpha >= beta is a bad interval and both values are reported."""
        with pytest.raises(BadInterval) as exc:
            make_params(alpha=0.8, beta=0.2)
        msg = str(exc.value)
        assert "0.8" in msg and "0.2" in msg

    def test_interval_must_be_interior(self):
        with pytest.raises(BadInterval):
            make_params(alpha=0.0)
        with pytest.raises(BadInterval):
            make_params(beta=1.0)

    def test_negative_and_nan_rejected(self):
        """Building the params refuses each coefficient at -1 or NaN (exit
        12), so assemble never sees an indefinite M or K or an
        anti-damping C; d0 = 0, the undamped system, is built (see
        sys16_undamped)."""
        for field in ("rho1", "rho2", "k1", "k2", "k3", "l", "L", "d0"):
            with pytest.raises(NonPositiveParameter) as exc:
                make_params(**{field: -1.0})
            assert exc.value.name == field and exc.value.exit_code == 12
            with pytest.raises(NonPositiveParameter):
                make_params(**{field: math.nan})

    def test_negative_d0_message_says_nonnegative(self):
        """d0 = 0 is built, so d0 < 0 is refused as not >= 0, exit 12; the
        other coefficients must be strictly positive."""
        with pytest.raises(NonPositiveParameter, match=r"parameter 'd0' must be >= 0 \(got -1\)") as exc:
            make_params(d0=-1)
        assert exc.value.exit_code == 12
        with pytest.raises(NonPositiveParameter, match="'k1' must be strictly positive"):
            make_params(k1=-1)

    @pytest.mark.parametrize("value", ["1", None, True, 1j], ids=["str", "None", "bool", "complex"])
    @pytest.mark.parametrize("field", ["rho1", "d0", "alpha"])
    def test_value_that_is_no_real_number_rejected(self, field, value):
        """A string, None, a bool or a complex is a SchemaError (exit 11)
        naming the field, not a bare TypeError, and True is not taken as 1."""
        with pytest.raises(SchemaError, match=f"'{field}': expected a real number") as exc:
            make_params(**{field: value})
        assert exc.value.exit_code == 11

    @pytest.mark.parametrize("value", [np.float64(1.0), np.int64(1)], ids=["float64", "int64"])
    def test_numpy_real_scalars_accepted(self, value):
        p = make_params(rho1=value, d0=value)
        assert p.rho1 == 1 and p.d0 == 1

    @pytest.mark.parametrize("value", [math.inf, 10**400], ids=["inf", "10**400"])
    @pytest.mark.parametrize("field", ["rho1", "rho2", "k1", "k2", "k3", "l", "L", "d0"])
    def test_infinite_coefficient_rejected(self, field, value):
        """inf, or an integer beyond the float range, passes the positivity
        test but is refused as out of domain (exit 15), naming the
        coefficient."""
        with pytest.raises(OutOfDomain, match=f"parameter '{field}' must be finite") as exc:
            make_params(**{field: value})
        assert exc.value.exit_code == 15

    def test_zero_curvature_rejected(self):
        """l = 0 would decouple the system; strict positivity excludes it."""
        with pytest.raises(NonPositiveParameter):
            make_params(l=0.0)


# ---------------------------------------------------------------------------
# wave-speed classification
# ---------------------------------------------------------------------------


class TestClassifySpeeds:
    def test_equal_speeds(self):
        """k1/rho1 == k2/rho2 gives the faster-decay regime."""
        sc = classify_speeds(make_params())
        assert sc.variant == EQUAL_SPEEDS
        assert sc.predicted_decay_exponent == 1.0
        assert sc.predicted_resolvent_exponent == 2

    def test_unequal_speeds(self):
        sc = classify_speeds(make_params(k2=2.0))
        assert sc.variant == UNEQUAL_SPEEDS
        assert sc.predicted_decay_exponent == 0.5
        assert sc.predicted_resolvent_exponent == 4

    def test_tolerance_band(self):
        """Speeds differing by ~1e-14 relative still count as equal."""
        sc = classify_speeds(make_params(k2=1.0 + 1e-14))
        assert sc.variant == EQUAL_SPEEDS
        sc = classify_speeds(make_params(k2=1.0 + 1e-9))
        assert sc.variant == UNEQUAL_SPEEDS

    def test_scale_invariance(self):
        """Scaling rho1, rho2, k1, k2 by a common factor keeps the class."""
        rng = np.random.default_rng(7)
        for _ in range(20):
            c = float(rng.uniform(0.1, 10.0))
            k2 = float(rng.uniform(0.5, 2.0))
            base = classify_speeds(make_params(k2=k2))
            scaled = classify_speeds(
                make_params(rho1=c, rho2=c, k1=c, k2=c * k2)
            )
            assert scaled.variant == base.variant

