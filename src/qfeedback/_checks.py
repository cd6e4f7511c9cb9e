"""The one rule for integer inputs; a leaf, so every module may use it."""

import operator


def check_integer(value: int, what: str) -> int:
    """The value as a plain int; a ValueError if it is not an integer
    (bool and numpy integers are)."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def check_at_least(value: int, minimum: int, what: str) -> int:
    """The value as a plain int; a ValueError for a non-integer, or an
    integer below minimum."""
    # a plain int skips the call: the bound curves check q at every tau
    if type(value) is not int:
        value = check_integer(value, what)
    if value < minimum:
        least = "nonnegative" if minimum == 0 else f"at least {minimum}"
        raise ValueError(f"{what} must be {least}, got {value}")
    return value
