"""Exception hierarchy shared by the library and the CLI.

Each error carries a stable ``name`` (printed on stderr by the CLI) and the
exit code the CLI maps it to: 2 for invalid input, 3 for resource caps.
"""
import math
import operator

# points in one grid or raster, and entries in one dense matrix
DEFAULT_GRID_CAP = 2 ** 24


class SynspecError(Exception):
    name = "error"
    exit_code = 2


class InvalidInputError(SynspecError):
    name = "invalid-input"
    exit_code = 2


class InvalidWitnessError(SynspecError):
    name = "invalid-witness"
    exit_code = 2


class EmptyInputError(SynspecError):
    name = "empty-input"
    exit_code = 2


class EmptyRegionError(SynspecError):
    name = "empty-region"
    exit_code = 2


class UnsupportedDimensionError(SynspecError):
    name = "unsupported-dimension"
    exit_code = 2


class PointOnEssentialSpectrumError(SynspecError):
    name = "point-in-essential-spectrum"
    exit_code = 2


class GaplessCertificateError(SynspecError):
    name = "gapless-certificate"
    exit_code = 1


class NoObstructionError(SynspecError):
    name = "no-obstruction"
    exit_code = 1


class ResourceLimitError(SynspecError):
    name = "resource-limit"
    exit_code = 3


def as_index(value, message: str, least: int | None = None) -> int:
    """``operator.index(value)``, or InvalidInputError(message) when value is
    not an integer (numpy integers pass, booleans do not) or is below
    ``least``."""
    if isinstance(value, bool):
        raise InvalidInputError(message)
    try:
        i = operator.index(value)
    except TypeError:
        raise InvalidInputError(message) from None
    if least is not None and i < least:
        raise InvalidInputError(message)
    return i


def _check_cap(n, cap: int = DEFAULT_GRID_CAP,
               what: str = "grid has %s points") -> None:
    """ResourceLimitError when the count n is above cap, its message opening
    with ``what`` filled in with n.  An integer n prints exactly, however
    long; %.0f would overflow on one past the floats."""
    if math.isnan(cap):
        raise InvalidInputError("grid cap must not be NaN")
    if n > cap:
        count = "%.0f" % n if isinstance(n, float) else "%d" % n
        raise ResourceLimitError("%s, above the cap %d" % (what % count, cap))
