"""Exception hierarchy shared by the library and the CLI.

Each error carries a stable ``name`` (printed on stderr by the CLI) and the
exit code the CLI maps it to: 2 for invalid input, 3 for resource caps.
"""
import operator


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
