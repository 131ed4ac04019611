"""Exception types shared across the package."""


class DivGraphError(Exception):
    """Base class for all package errors."""


class ElementForeignToModel(DivGraphError):
    """An element built by one model was passed to a different model."""


class OffGrid(DivGraphError):
    """An exact rational is no multiple of 1/grid, the grid that would hold it."""


class DegreeCapExceeded(DivGraphError):
    """An element cannot be split into atoms: after the declared atoms are
    divided out, its polynomial part has degree above the configured cap or a
    factor of degree >= 4 that the rational-root test cannot decide, or its
    integer part has a factor too large to be certified prime or a composite
    factor whose prime factors are all too large to find in the step budget."""


class EmptyWindow(DivGraphError):
    """The window bounds exclude every element."""


class WindowTooLarge(DivGraphError):
    """The window exceeds the exhaustive-search guard."""


class ConfigError(DivGraphError):
    """Problem in a run configuration."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ParseError(ConfigError):
    """Malformed configuration text."""


class UnknownModelKind(ConfigError):
    """The config names a model kind this package does not ship."""


class InvalidBounds(ConfigError):
    """A window or search bound is non-positive or missing."""
