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
    """A low-momentum quantity grows without bound: the passage-time integral
    as its cutoff shrinks, where |T(0)| = 1 (the free case or a well at a
    bound-state threshold) and the packet does not vanish at p = 0, or the
    k -> 0 phase slopes of a well at a threshold."""
