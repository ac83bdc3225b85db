"""Exception types shared across the package."""


class InvalidInputError(ValueError):
    """Raised when an operation receives arguments violating its contract."""


class NumericalBlowupError(RuntimeError):
    """Raised when a simulated state leaves the trusted numeric range.

    Carries enough context to replay the offending path.
    """

    def __init__(self, message: str, step_index: int, path_index: int | None = None,
                 seed=None):
        super().__init__(message)
        self.step_index = step_index
        self.path_index = path_index
        self.seed = seed


class InvariantError(RuntimeError):
    """Raised when simulated results break an invariant the package relies on.

    This is a defect in the package, not bad input; the message names the
    invariant.
    """
