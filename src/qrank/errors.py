"""Exception types shared across the package.

Validation problems (bad input data, broken preconditions) raise
subclasses of ValidationError.  Requests that would exceed a size cap
raise CapExceeded; the CLI maps the two families to exit codes 1 and 2.
require_keys turns a JSON input that is not an object into NotAnObject
and a missing key into MissingKey, and parse_key a value that does not
parse into BadValue; each names where the input came from, and the key.
parse_int, parse_rational and parse_list parse the integer keys (q, n,
k, m), exact rationals and lists.
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


class NotAnObject(ValidationError):
    pass


class MissingKey(ValidationError):
    pass


class BadValue(ValidationError):
    pass


def require_keys(obj, keys, source):
    """Return obj once it is a JSON object with every key in keys; else
    raise NotAnObject, or MissingKey naming the first absent key."""
    if type(obj) is not dict:
        raise NotAnObject(f"{source}: expected a JSON object, got {obj!r:.60}")
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


def parse_rational(value):
    """The Fraction of value when it is an int or a string that parses as
    a rational; bool, float and the rest raise TypeError, so a rational
    never passes by way of a binary float."""
    if type(value) is not int and type(value) is not str:
        raise TypeError(f"expected an integer or a rational string, got {value!r}")
    from fractions import Fraction  # only the commands that read one load it
    return Fraction(value)


def parse_rationals(values):
    """parse_rational of each entry of the list values."""
    return [parse_rational(v) for v in parse_list(values)]


def parse_list(value):
    """value itself when it is a list; anything else raises TypeError."""
    if type(value) is not list:
        raise TypeError(f"expected a list, got {value!r}")
    return value


def parse_key(obj, key, parse, source):
    """parse(obj[key]); a ValueError, TypeError or ZeroDivisionError it
    raises becomes a BadValue naming key and source."""
    try:
        return parse(obj[key])
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise BadValue(f"{source}: bad value for key {key!r}: {exc}") from exc
