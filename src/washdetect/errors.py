"""Exception types shared across the toolkit."""


class WashdetectError(Exception):
    """Base class for all toolkit errors."""


class AmountError(WashdetectError, ValueError):
    """A trade amount is malformed, non-positive, or too precise to represent."""


class PairConfigError(WashdetectError):
    """A pair's base-unit configuration or an exchange's regulatory class is
    unknown or out of range."""


class InsufficientDataError(WashdetectError, ValueError):
    """Not enough observations to run a test or fit."""


class EstimationError(WashdetectError, ValueError):
    """An estimator is undefined on the given input (degenerate or singular)."""


class ConfigError(WashdetectError, ValueError):
    """A run configuration value is out of range."""


class ParseError(WashdetectError, ValueError):
    """A trade file could not be read, or not parsed in strict mode."""
