"""Exception types shared across the toolkit."""


class EpkitError(Exception):
    """Base class for all toolkit errors."""


class DimensionTooLarge(EpkitError):
    """Matrix dimension exceeds the supported dense-solver limit."""


class DimensionMismatch(EpkitError):
    """Operator dimensions are inconsistent."""


class NonConvergence(EpkitError):
    """An iterative solver failed to converge; the input is pathological."""


class UnknownModel(EpkitError):
    """Requested model name is not in the catalog."""


class ResolutionTooLarge(EpkitError):
    """Grid resolution exceeds the configured cell budget."""


class StepTooCoarse(EpkitError):
    """Step-doubling check failed: integration step is too large."""


class SampleTooCoarse(EpkitError):
    """Branch matching along a path is ambiguous at the given sampling."""


class ProjectionUndefined(EpkitError):
    """All branch overlaps vanish; the spectral projection is undefined."""


class NoIntersections(EpkitError):
    """A path never crosses the fold lines; the crossing test is undefined."""


class ConfigError(EpkitError):
    """A configuration file failed to validate; carries line information."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
