"""Exception types shared across the package."""


class CurvelabError(Exception):
    """Base of the package's errors. The CLI exits with ``exit_code``: 2 for
    bad input, 3 for a numerical failure."""
    exit_code = 3


class CurveValidationError(CurvelabError, ValueError):
    """A curve (or curve spec file) violates a structural invariant."""
    exit_code = 2


class SpecFileError(CurvelabError, ValueError):
    """A curve spec file failed to parse or validate."""
    exit_code = 2


class QuadratureBudgetError(CurvelabError, RuntimeError):
    """Requested tolerance was not reached within the node budget.

    Carries the best available estimate and the last observed error bound.
    """

    def __init__(self, message, estimate, error_bound):
        super().__init__(f"{message} (estimate={estimate!r}, error_bound={error_bound!r})")
        self.estimate = estimate
        self.error_bound = error_bound


class AsymptoticsError(CurvelabError, RuntimeError):
    """Fitted branch asymptotics disagree with the symbolic prediction."""
