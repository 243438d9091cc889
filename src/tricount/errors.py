"""Exception hierarchy shared by all modules.

One class per CLI exit code, and the message names the reason:
  2 -- InputError: bad input, a library call's bad argument included
       (also a ValueError)
  3 -- ResourceRefusal: size guards, caps, memory budgets
  4 -- InternalInvariantViolation: a bug, never expected on valid input
"""


class TricountError(Exception):
    exit_code = 1


class InputError(TricountError, ValueError):
    exit_code = 2


class ResourceRefusal(TricountError):
    exit_code = 3


class InternalInvariantViolation(TricountError):
    exit_code = 4


def check_nonnegative(name: str, value) -> None:
    """The one check of a count parameter: an int (not a bool) >= 0."""
    if type(value) is not int or value < 0:
        raise InputError(f"{name} must be a nonnegative int")


def shown(value) -> str:
    """repr(value) for a message that names a caller's value; it cannot
    raise, so an int past the int-to-str digit limit shows as its size and
    any other unprintable value as its type."""
    try:
        return repr(value)
    except Exception:
        return (f"<int of {value.bit_length()} bits>" if type(value) is int
                else f"<unprintable {type(value).__name__}>")
