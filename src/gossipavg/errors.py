"""Exception types shared across the package."""


class ParameterError(ValueError):
    """An argument is outside its documented domain."""


class QuantileRangeError(ParameterError):
    """A noise quantile or a bound built on it lies beyond the float range, or
    needs a discrete pmf tabulated past its limit: the noise scale is too large."""


class ConfigError(ValueError):
    """An experiment configuration field is invalid; message names the field."""


class ModelMismatchError(ValueError):
    """An operation was applied to data from the wrong communication or noise model."""


class InsufficientDataError(ValueError):
    """Not enough qualifying data points for a statistical fit."""


class NumericalDriftError(RuntimeError):
    """Incremental trackers diverged from a full recomputation beyond tolerance."""


class UndefinedPredictionError(ValueError):
    """A closed-form prediction is undefined for these inputs (e.g. noiseless channel)."""
