"""Exception types shared across the package.

Validation problems (bad input data, broken preconditions) raise
subclasses of ValidationError.  Requests that would exceed a size cap
raise CapExceeded; the CLI maps the two families to exit codes 1 and 2.
require_keys turns a key missing from a JSON input into a MissingKey,
and parse_key a value that does not parse into a BadValue; both name
the key and where the input came from.  parse_int is the one parser of
integer keys (q, n, k, m) in point, spec and code files.
"""


class QrankError(Exception):
    pass


class ValidationError(QrankError, ValueError):
    """Input violates a documented precondition."""


class CapExceeded(QrankError, RuntimeError):
    """Requested object exceeds a configured size cap."""


class NotAPrimePower(ValidationError):
    pass


class UnsupportedOrder(ValidationError):
    pass


class OutOfRange(ValidationError):
    pass


class TooLarge(CapExceeded):
    pass


class NotADenominator(ValidationError):
    pass


class DimensionMismatch(ValidationError):
    pass


class NotFeasible(ValidationError):
    pass


class InvalidCollection(ValidationError):
    pass


class CoefficientSum(ValidationError):
    pass


class LatticeMismatch(ValidationError):
    pass


class Overlap(ValidationError):
    pass


class RankMismatch(ValidationError):
    pass


class ZeroCode(ValidationError):
    pass


class UnsupportedShape(ValidationError):
    pass


class HypothesisFail(ValidationError):
    pass


class MissingKey(ValidationError):
    pass


class BadValue(ValidationError):
    pass


def require_keys(obj, keys, source):
    """Return obj once it has every key in keys; otherwise raise
    MissingKey naming the first absent key and source."""
    for key in keys:
        if key not in obj:
            raise MissingKey(f"{source}: missing key {key!r}")
    return obj


def parse_int(value):
    """value itself when it is an int; bool, str, float and the rest
    raise TypeError, so an integer key never passes by conversion."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def parse_key(obj, key, parse, source):
    """parse(obj[key]); a ValueError, TypeError or ZeroDivisionError it
    raises becomes a BadValue naming key and source."""
    try:
        return parse(obj[key])
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise BadValue(f"{source}: bad value for key {key!r}: {exc}") from exc
