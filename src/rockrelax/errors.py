"""Exception types shared across the package, and the rules every caller shares:
`check_count` and `check_real` for the counts and reals that enter the library,
and `file_faults`, which makes any fault of reading a file a FormatError naming
that file."""

import numbers
import zipfile
import zlib
from contextlib import contextmanager


class RockrelaxError(Exception):
    """Base class for all package errors."""


class InvalidInputError(RockrelaxError, ValueError):
    """An argument violates a documented precondition."""


class FormatError(RockrelaxError, ValueError):
    """A file does not conform to its declared on-disk format."""


class SchemaError(RockrelaxError, ValueError):
    """A configuration document fails schema validation."""


class NumericError(RockrelaxError, ArithmeticError):
    """A numeric computation produced non-finite values."""


class UnsupportedScaleError(RockrelaxError, ValueError):
    """A verification-only routine was called beyond its supported size."""


def check_count(name: str, value, low: int) -> int:
    """`value` as a Python int; InvalidInputError unless it is an integer (not a bool) >= `low`.

    A numpy integer is accepted, and returned as an int so that it echoes as JSON.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise InvalidInputError(f"{name} must be >= {low}, got {value}")
    return int(value)


def check_real(name: str, value) -> None:
    """Raise InvalidInputError unless `value` is a real number; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidInputError(f"{name} must be a real number, got {value!r}")


@contextmanager
def file_faults(path, what: str):
    """Raise any fault of reading `path` in the block as a FormatError naming `what` and `path`."""
    try:
        yield
    except (OSError, KeyError, TypeError, ValueError, EOFError, zipfile.BadZipFile,
            zlib.error) as exc:
        raise FormatError(f"invalid {what} {path}: {exc}") from exc
