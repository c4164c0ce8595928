"""Exception hierarchy shared by all bresse modules.

Every error carries an ``exit_code`` used by the command line interface:
configuration problems map to 10-19, numerical failures to 20-29, and
I/O failures to 30.  No two classes share a code.
"""

__all__ = [
    "BresseError",
    "ConfigError",
    "NumericsError",
    "OutputError",
    "NonPositiveParameter",
    "BadInterval",
    "OutOfDomain",
    "IncompatibleBoundary",
    "ParseError",
    "SchemaError",
    "TooCoarse",
    "GridBeyondResolution",
    "SingularAtLambda",
    "NoConvergence",
    "EmptyGrid",
    "WindowTooSmall",
    "NonpositiveEnergy",
    "FactorizationFailed",
    "DimensionMismatch",
]


class BresseError(Exception):
    """Base class for all package-specific errors."""

    exit_code = 1


class ConfigError(BresseError):
    """Invalid parameters or configuration input."""

    exit_code = 19


class NumericsError(BresseError):
    """Failure inside assembly, eigensolves, resolvent solves, or fitting."""

    exit_code = 29


class OutputError(BresseError):
    """Failure while reading the config or writing result files."""

    exit_code = 30


class ParseError(ConfigError):
    """Configuration text is not well-formed JSON."""

    exit_code = 10

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"{message} (line {line}, column {col})"
        super().__init__(message)


class SchemaError(ConfigError):
    """Configuration JSON violates the documented schema."""

    exit_code = 11

    def __init__(self, path, expected):
        self.path = path
        self.expected = expected
        super().__init__(f"config key {path!r}: expected {expected}")


class NonPositiveParameter(ConfigError):
    """A parameter that must be strictly positive is not."""

    exit_code = 12

    def __init__(self, name, value=None):
        self.name = name
        self.value = value
        detail = "" if value is None else f" (got {value!r})"
        super().__init__(f"parameter {name!r} must be strictly positive{detail}")


class BadInterval(ConfigError):
    """An interval violates its required ordering or containment."""

    exit_code = 13


class IncompatibleBoundary(ConfigError):
    """Initial data does not vanish at the clamped ends."""

    exit_code = 14


class OutOfDomain(ConfigError):
    """An evaluation point or grid value lies outside its admissible set."""

    exit_code = 15


class TooCoarse(NumericsError):
    """Mesh cannot resolve the damping interval."""

    exit_code = 20


class GridBeyondResolution(NumericsError):
    """A frequency grid extends past what the mesh can represent."""

    exit_code = 21

    def __init__(self, offending, lambda_max):
        self.offending = offending
        self.lambda_max = lambda_max
        super().__init__(
            f"lambda={offending!r} exceeds the mesh resolution cap "
            f"lambda_max={lambda_max!r}"
        )


class SingularAtLambda(NumericsError):
    """i*lambda lies on (or numerically at) the discrete spectrum."""

    exit_code = 22

    def __init__(self, lam, detail=""):
        self.lam = lam
        tail = f": {detail}" if detail else ""
        super().__init__(f"resolvent solve singular at lambda={lam!r}{tail}")


class NoConvergence(NumericsError):
    """An iteration hit its cap, or a result failed its certification."""

    exit_code = 23


class EmptyGrid(NumericsError):
    """A frequency or time grid contains no points."""

    exit_code = 25


class WindowTooSmall(NumericsError):
    """A fit window contains too few samples."""

    exit_code = 26


class NonpositiveEnergy(NumericsError):
    """Energies in the fit window reached the roundoff floor."""

    exit_code = 27


class FactorizationFailed(NumericsError):
    """A matrix factorization that should succeed did not."""

    exit_code = 28


class DimensionMismatch(NumericsError):
    """State or matrix dimensions are inconsistent."""

    exit_code = 24
