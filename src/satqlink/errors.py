"""Exception hierarchy for the satqlink package.

Everything raised on purpose derives from :class:`SatLinkError` so callers
can catch one base class at API boundaries (the CLI maps these onto exit
codes).  Validation of user-supplied numbers raises ``ConfigError`` with the
offending field named; file parsers raise ``DataFormatError`` carrying
row/column context.
"""

from __future__ import annotations

__all__ = [
    "SatLinkError",
    "ConfigError",
    "DataFormatError",
    "NoVisibilityError",
    "NoOverlapError",
    "GridMismatchError",
    "ReplayError",
]


class SatLinkError(Exception):
    """Base class for all errors raised by satqlink."""


class ConfigError(SatLinkError):
    """A configuration value is missing, out of range, or inconsistent.

    ``field`` names the offending field of the object being checked, when
    the raiser knows it.
    """

    def __init__(self, message: str, field: str | None = None) -> None:
        super().__init__(message)
        self.field = field


class DataFormatError(SatLinkError):
    """A file being read does not match the expected format.

    The message includes the path and, where known, the line number.
    """


class NoVisibilityError(SatLinkError):
    """An operation needs at least one visible sample and found none."""


class NoOverlapError(ConfigError):
    """Two pass profiles share no co-visible samples: the stations and orbit of the spec never meet."""


class GridMismatchError(SatLinkError):
    """Two time series are not on the same sample or bin grid."""


class ReplayError(SatLinkError):
    """A round log cannot be replayed (missing data or version mismatch)."""
