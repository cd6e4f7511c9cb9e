"""The one rule for integer inputs; a leaf, so every module may use it."""

import operator


def check_integer(value: int, what: str) -> None:
    """Reject a value that is not an integer (bool and numpy integers pass)."""
    try:
        operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def check_at_least(value: int, minimum: int, what: str) -> None:
    """Reject a non-integer, or an integer below minimum."""
    check_integer(value, what)
    if value < minimum:
        least = "nonnegative" if minimum == 0 else f"at least {minimum}"
        raise ValueError(f"{what} must be {least}, got {value}")
