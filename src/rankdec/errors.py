"""Exception types shared across the package."""


class RankdecError(Exception):
    """Base class for package-specific errors."""


class ContextMismatchError(RankdecError):
    """Operands belong to different field contexts or base subfields."""


class CapExceededError(RankdecError):
    """An enumeration would exceed the configured budget.

    Carries the budget actually required so callers can re-run with an
    explicit opt-in.
    """

    def __init__(self, required, cap, what="enumeration"):
        self.required = required
        self.cap = cap
        self.what = what
        super().__init__(
            f"{what} needs {required} steps but the cap is {cap}; "
            f"raise the cap to proceed"
        )


class UnsupportedFieldError(RankdecError):
    """A computation does not support the field it was given."""


class NotApplicableError(RankdecError):
    """A check's hypotheses are not met (e.g. a prime-degree-only result
    queried on a composite extension)."""


class FalsificationAlarm(RankdecError):
    """A computation contradicted a statement that is proved to hold.

    This never fires on correct inputs; if it does, either the
    implementation or the statement is wrong, and the run must abort
    loudly rather than report an ordinary failure.
    """
