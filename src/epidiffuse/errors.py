"""Exception hierarchy shared across the package.

Everything raised on purpose derives from :class:`EpidiffuseError` so callers
(and the CLI) can distinguish anticipated failures from genuine bugs.  The
subclasses map onto the broad failure categories: bad user input (config,
data files, masks), inconsistent shapes or parameter values, and numerical
trouble during a solve.
"""

from __future__ import annotations


class EpidiffuseError(Exception):
    """Base class for all errors raised deliberately by this package."""


class ConfigError(EpidiffuseError):
    """A run configuration is missing, malformed, or self-contradictory; ``message`` is unprefixed."""

    def __init__(self, message: str, *, path: str | None = None, key: str | None = None):
        prefix = ""
        if path is not None:
            prefix += f"{path}: "
        if key is not None:
            prefix += f"[{key}] "
        super().__init__(prefix + message)
        self.message, self.path, self.key = message, path, key


class MaskFormatError(EpidiffuseError):
    """A mask file violates the expected header/row layout or cell values."""


class CaseDataError(EpidiffuseError):
    """A case-count file cannot be parsed or contains invalid records."""


class DimensionError(EpidiffuseError):
    """Array shapes or compartment counts do not match the grid or model."""


class ParameterError(EpidiffuseError):
    """A scalar parameter is outside its admissible range."""


class NormalizationError(EpidiffuseError):
    """Population is non-positive somewhere it is needed as a divisor."""


class DegenerateRegionError(EpidiffuseError):
    """A region mask covers no cells, so totals cannot be distributed."""


class AlignmentError(EpidiffuseError):
    """Observation days and trajectory days do not line up."""


class StabilityError(EpidiffuseError):
    """A solver step produced state values outside the trusted range."""


class SequencingError(EpidiffuseError):
    """A backward sweep was requested without the matching forward levels."""
