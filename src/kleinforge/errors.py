"""Shared exception types, and the one budget check."""


class CapacityError(ValueError):
    """Input exceeds a hard representation limit (e.g. bit-mask width)."""


class FeasibilityError(RuntimeError):
    """A search or enumeration would exceed its configured work budget."""


def check_budget(count: int, budget: int, what: str) -> None:
    """Raise "<count> <what>, over the budget of <budget>" when count > budget."""
    if count > budget:
        raise FeasibilityError(f"{count} {what}, over the budget of {budget}")
