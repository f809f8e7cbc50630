"""Exception types shared across the package, and the JSON input reader.

Validation problems (bad input data, broken preconditions) raise
subclasses of ValidationError.  Requests that would exceed a size cap
raise CapExceeded; the CLI maps the two families to exit codes 1 and 2.
read_json turns a file that does not decode as JSON into a
ValidationError, require_keys a JSON input that is not an object into
NotAnObject and a missing key into MissingKey, and parse_key a value
that does not parse into BadValue; each names where the input came from,
and the key.  parse_int, parse_rational and parse_list parse the integer
keys (q, n, k, m), exact rationals and lists.  No integer of more than
MAX_DIGITS decimal digits is built from an input, on any Python, and
show_int keeps a message that quotes a long one short.
"""

import json
import math

# CPython's default int-string limit (sys.get_int_max_str_digits), kept
# here so that Pythons without that limit refuse the same inputs
MAX_DIGITS = 4300


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


def show_int(value):
    """value in decimal when it has at most 20 digits, else by its digit
    count, as "<4001-digit int>", so that a message quoting an input
    stays short whatever the input."""
    size = abs(value)
    if size < 10 ** 20:
        return str(value)
    digits = int(math.log10(size)) - 1  # a float: raised to the count below
    while size >= 10 ** digits:
        digits += 1
    return f"{'-' if value < 0 else ''}<{digits}-digit int>"


def read_json(path, keys=()):
    """The JSON object in the file at path, checked to have every key in
    keys (require_keys).  A file that is not UTF-8, is not JSON, nests
    past the recursion limit or holds an integer literal of more than
    MAX_DIGITS digits raises a ValidationError naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh, parse_int=_json_int)
        except (ValueError, RecursionError) as exc:  # UnicodeDecodeError too
            raise ValidationError(f"{path}: not a JSON file: {exc}") from exc
    return require_keys(obj, keys, path)


def _json_int(text):
    """json's parse_int: on Pythons with no int-string limit, the same
    refusal as CPython's default one."""
    if len(text) > MAX_DIGITS + (text[0] == "-"):
        raise ValueError(f"an integer literal of more than {MAX_DIGITS} digits")
    return int(text)


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
    never passes by way of a binary float.  A string whose numerator or
    denominator would pass MAX_DIGITS digits before reduction raises
    ValueError before Fraction builds it: a decimal w.f with exponent x
    is the integer wf times 10^x over 10^len(f), so "1e100000000" is
    refused at once, while "0.5" and "1e-3" parse.  (read_json bounds
    the ints.)"""
    if type(value) is str:
        num, _, den = value.partition("/")
        mantissa, e, exp = num.upper().partition("E")
        whole, _, frac = mantissa.partition(".")
        # an exponent with more digits than MAX_DIGITS has exceeds
        # MAX_DIGITS, and int() of a long one is itself slow
        shift = (MAX_DIGITS + 1 if len(exp.strip().lstrip("+-0_")) > len(str(MAX_DIGITS))
                 else int(exp) if e else 0)
        if max(len(whole + frac) + max(shift, 0), len(den),
               len(frac) + max(-shift, 0) + 1) > MAX_DIGITS:
            raise ValueError("a numerator or denominator of more than "
                             f"{MAX_DIGITS} digits")
    elif type(value) is not int:
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
