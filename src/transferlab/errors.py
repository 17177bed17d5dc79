"""Exception types shared across the package."""


class ContractViolation(ValueError):
    """An argument failed a documented precondition (shape, finiteness, range)."""


class DegenerateInput(ValueError):
    """Input is numerically rank-deficient where full rank is required."""


class SingularMatrixError(ValueError):
    """A positive-definite factorization failed.

    Carries the index of the first nonpositive pivot so callers can tell
    which direction collapsed.
    """

    def __init__(self, message: str, pivot_index: int):
        super().__init__(message)
        self.pivot_index = pivot_index


class InfeasibleSamplingError(ValueError):
    """Rejection sampling cannot produce draws at a usable acceptance rate."""


class InfeasibleDiversityError(ValueError):
    """Requested head dimensions cannot yield a full-rank Gram spectrum."""
