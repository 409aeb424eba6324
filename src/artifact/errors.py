"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Raised when a scenario config or model definition is malformed."""


class NumericalFailure(RuntimeError):
    """Raised when a computation produces non-finite values or a
    factorization fails to converge."""


class SigmaMinUndefinedError(ValueError):
    """Raised when a matrix has no singular value above the rank tolerance,
    so its smallest nontrivial singular value does not exist."""


class SynthesisError(RuntimeError):
    """Raised when observer gains cannot be synthesized for a mode
    (typically a failed rank condition on the measurable input channel)."""
