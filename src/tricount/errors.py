"""Exception hierarchy shared by all modules.

Exit-code mapping used by the CLI:
  2 -- bad input (validation failures)
  3 -- resource refusal (size guards, caps, memory budgets)
  4 -- internal invariant violation (a bug, never expected on valid input)
"""


class TricountError(Exception):
    exit_code = 1


class InputError(TricountError):
    exit_code = 2


class DuplicatePoint(InputError):
    pass


class CollinearTriple(InputError):
    pass


class TooFewPoints(InputError):
    pass


class PreconditionViolated(TricountError, ValueError):
    exit_code = 2


class EdgeNotInTriangulation(TricountError):
    exit_code = 2


class EdgeDoesNotCrossLine(TricountError):
    exit_code = 2


class NotFlippable(TricountError):
    exit_code = 2


class IncompatibleTuple(TricountError):
    exit_code = 2


class ResourceRefusal(TricountError):
    exit_code = 3


class TooLarge(ResourceRefusal):
    pass


class CapExceeded(ResourceRefusal):
    pass


class MemoryBudgetExceeded(ResourceRefusal):
    pass


class InternalInvariantViolation(TricountError):
    exit_code = 4


def check_nonnegative(name: str, value) -> None:
    """The one check of a count parameter: an int (not a bool) >= 0."""
    if type(value) is not int or value < 0:
        raise PreconditionViolated(f"{name} must be a nonnegative int")
