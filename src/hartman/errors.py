"""Exception types shared across the package."""


class ConvergenceError(RuntimeError):
    """A numerical procedure failed to reach its tolerance.

    Carries the best available estimate so callers can still report it.
    """

    def __init__(self, message, *, estimate=None, error=None):
        super().__init__(message)
        self.estimate = estimate
        self.error = error


class ThresholdDivergenceError(ConvergenceError):
    """The passage-time integral grows without bound as the low-momentum
    cutoff shrinks: |T(0)| = 1, as for the free case or a well at a
    bound-state threshold, with a packet that does not vanish at p = 0."""
