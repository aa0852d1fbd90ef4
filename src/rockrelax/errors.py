"""Exception types shared across the package, and `file_faults`, the one rule
that makes any fault of reading a file a FormatError naming that file."""

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


@contextmanager
def file_faults(path, what: str):
    """Raise any fault of reading `path` in the block as a FormatError naming `what` and `path`."""
    try:
        yield
    except (OSError, KeyError, TypeError, ValueError, EOFError, zipfile.BadZipFile,
            zlib.error) as exc:
        raise FormatError(f"invalid {what} {path}: {exc}") from exc
