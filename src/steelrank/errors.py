"""Exception types shared across the package, and the rule for integer arguments."""
import numbers


class ParameterError(ValueError):
    """Invalid argument values: sizes, probabilities, dimensions, malformed samples."""


class BudgetError(RuntimeError):
    """Exact enumeration would exceed the configured split budget."""


class NumericError(RuntimeError):
    """A numeric routine failed to meet its accuracy contract."""


def integer(value, name: str) -> int:
    """value as an int if it is a Python or numpy integer but no bool, as in ``RunConfig``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    return int(value)
