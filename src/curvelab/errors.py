"""Exception types shared across the package."""


class CurveValidationError(ValueError):
    """A curve (or curve spec file) violates a structural invariant."""


class SpecFileError(ValueError):
    """A curve spec file failed to parse or validate."""


class QuadratureBudgetError(RuntimeError):
    """Requested tolerance was not reached within the node budget.

    Carries the best available estimate and the last observed error bound.
    """

    def __init__(self, message, estimate, error_bound):
        super().__init__(f"{message} (estimate={estimate!r}, error_bound={error_bound!r})")
        self.estimate = estimate
        self.error_bound = error_bound


class LocusEmptyError(ValueError):
    """All exponent polynomials agree in real part; the equal-value locus is empty."""


class ContinuationError(RuntimeError):
    """Predictor-corrector continuation failed along a branch."""

    def __init__(self, pair, last_point, message=""):
        detail = f"branch {pair}: continuation failed at z={last_point}"
        if message:
            detail += f" ({message})"
        super().__init__(detail)
        self.pair = pair
        self.last_point = last_point


class AsymptoticsError(RuntimeError):
    """Fitted branch asymptotics disagree with the symbolic prediction."""
