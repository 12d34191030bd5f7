"""Exception types raised across the package, and the one way it warns."""

import sys
import warnings

__all__ = ["SynthconfError", "DimensionError", "NumericalError", "RankDeficiencyError", "ParseError"]

_PACKAGE = __name__.partition(".")[0]


class SynthconfError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(SynthconfError, ValueError):
    """Inputs have incompatible or unsupported shapes."""


class NumericalError(SynthconfError, RuntimeError):
    """A numerical routine failed (factorization breakdown, overflow, ...)."""


class RankDeficiencyError(NumericalError):
    """A least-squares design is singular or too ill-conditioned to solve."""


class ParseError(SynthconfError, ValueError):
    """An input file could not be parsed; the message carries the line number."""


def _warn(message: str) -> None:
    """A ``UserWarning`` that names the first line outside the package, however deep
    in it the warning is raised (``skip_file_prefixes`` needs Python 3.12)."""
    frame, level = sys._getframe(1), 2
    while frame is not None and frame.f_globals.get("__name__", "").partition(".")[0] == _PACKAGE:
        frame, level = frame.f_back, level + 1
    warnings.warn(message, UserWarning, stacklevel=level)
