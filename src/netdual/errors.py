"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Raised when a config file, graph file, or constructor input is malformed."""


class TopologyError(ValueError):
    """Raised when a communication structure fails validation."""


class ComparatorError(RuntimeError):
    """The hindsight comparator did not reach the requested tolerance.

    Carries the last point it reached so callers can inspect how close it got.
    """

    def __init__(self, message, best, value, grad_norm):
        super().__init__(message)
        self.best = best
        self.value = value
        self.grad_norm = grad_norm
