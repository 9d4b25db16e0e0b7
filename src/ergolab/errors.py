"""Exception types shared across the package."""


class ErgolabError(Exception):
    """Base class for all package errors."""


class DegenerateLadderError(ErgolabError):
    """Too few usable rungs to fit a slope."""


class AllCensoredError(ErgolabError):
    """Every rung of a hitting-time ladder was censored at the cap."""


class InvalidBetaError(ErgolabError):
    """Ladder exponent beta outside the admissible range (0, 1/d_upper)."""


class DegenerateSeriesError(ErgolabError):
    """Correlation series has too few usable lags for a decay fit."""


class NoDecayFitError(ErgolabError):
    """An operation needed a fitted decay envelope and none was available."""


class RejectionStallError(ErgolabError):
    """Rejection sampler acceptance rate fell below the stall threshold."""


class ConfigError(ErgolabError):
    """Invalid experiment configuration; carries the offending field path."""

    def __init__(self, field, message):
        self.field = field
        self.message = message
        super().__init__(f"{field}: {message}")

    def __reduce__(self):
        return ConfigError, (self.field, self.message)


class SchemaMismatchError(ErgolabError):
    """A file is not a result, or results of mixed schema versions were combined."""
