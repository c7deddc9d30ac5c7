"""Exception types shared across the workbench."""


class WeingartenError(Exception):
    """Base class for all workbench errors."""


class DegeneratePointError(WeingartenError):
    """Surface parametrization is singular at the requested point (|X_u x X_v| ~ 0)."""


class GuardViolationError(WeingartenError):
    """An integration guard failed where the theory says it must not."""


class StepUnderflowError(WeingartenError):
    """Adaptive step fell below the minimum step size (stiffness or singularity).

    Carries the partial trajectory integrated so far in ``trajectory``.
    """

    def __init__(self, message, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory


class NoSignChangeError(WeingartenError):
    """Root bracketing failed: f(lo) and f(hi) have the same sign."""


class RootNotConvergedError(WeingartenError):
    """Bracketing root refinement ran out of iterations before the bracket
    shrank to the tolerance.

    Carries the last bracket (lo, hi), across which f still changes sign, in
    ``bracket``.
    """

    def __init__(self, message, bracket=None):
        super().__init__(message)
        self.bracket = bracket


class NotCircleCaseError(WeingartenError):
    """Parameters do not satisfy the circle condition a^2 + 4b^2 + 4b = 0."""


class OutOfScopeParamsError(WeingartenError):
    """Parameter configuration outside the classified range; refused, not guessed."""


class NoRootError(WeingartenError):
    """Expected root does not exist in the search interval (bug signal)."""


class NonPositiveRadiusError(WeingartenError):
    """Circle radius function is not strictly positive on the requested interval."""
