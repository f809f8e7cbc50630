"""Moebius function of the subspace lattice and the characteristic
Puiseux polynomial of a rational q-polymatroid.

The polynomial is a finite sum of monomials c * t^e with integer c and
exact rational exponent e; it is stored as a sorted exponent->coefficient
map and compared by exact map equality.  Evaluation at arbitrary t is
deliberately not offered (t^(1-lambda) is irrational for generic t);
only the coefficient sum, i.e. the value at t = 1, is supported.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import comb


def moebius(dim, q):
    """mu(<0>, X) = (-1)^dim q^binom(dim, 2) for any X of that dimension."""
    if dim < 0:
        raise ValueError("dimension must be nonnegative")
    sign = -1 if dim % 2 else 1
    return sign * q ** comb(dim, 2)


class TruncatedPuiseux(namedtuple("TruncatedPuiseux", "terms")):
    """Finite map exponent -> nonzero integer coefficient, held as terms,
    a sorted tuple of (Fraction exponent, int coefficient)."""

    __slots__ = ()

    @classmethod
    def from_terms(cls, pairs):
        acc = {}
        for exp, coeff in pairs:
            exp = Fraction(exp)
            acc[exp] = acc.get(exp, 0) + coeff
        cleaned = tuple(sorted((e, c) for e, c in acc.items() if c != 0))
        return cls(cleaned)

    @classmethod
    def zero(cls):
        return cls(())

    def coefficient(self, exp):
        exp = Fraction(exp)
        for e, c in self.terms:
            if e == exp:
                return c
        return 0

    def __add__(self, other):
        return TruncatedPuiseux.from_terms(list(self.terms) + list(other.terms))

    def __sub__(self, other):
        return TruncatedPuiseux.from_terms(
            list(self.terms) + [(e, -c) for e, c in other.terms])

    def scale(self, k):
        return TruncatedPuiseux.from_terms((e, k * c) for e, c in self.terms)

    def eval_at_one(self):
        return sum(c for _, c in self.terms)

    def min_exponent(self):
        return self.terms[0][0] if self.terms else None

    def max_exponent(self):
        return self.terms[-1][0] if self.terms else None

    def to_pairs(self):
        return [[str(e), c] for e, c in self.terms]

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in reversed(self.terms):
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                power = "t" if e == 1 else f"t^{e}" if e.denominator == 1 else f"t^({e})"
                body = power if mag == 1 else f"{mag}*{power}"
            parts.append((c < 0, body))
        out = ("-" if parts[0][0] else "") + parts[0][1]
        for neg, body in parts[1:]:
            out += (" - " if neg else " + ") + body
        return out


def char_puiseux(p):
    """Characteristic Puiseux polynomial: sum over X of
    mu(<0>, X) * t^(rho(E) - rho(X)), with like exponents collected."""
    lat = p.lattice
    top = p.rank
    return TruncatedPuiseux.from_terms(
        (top - p.values[i], moebius(lat.dims[i], lat.q))
        for i in range(lat.size))


def paving_combo_char(chi, sizes, k, q, lam, via=1):
    """Closed form for the polynomial of a paving convex combination.

    chi is the characteristic polynomial of the first paving q-matroid
    when via=1 and of the second when via=2; sizes = (|S1|, |S2|);
    the combination weighs the first q-matroid by lam.
    """
    lam = Fraction(lam)
    s1, s2 = sizes
    unit = moebius(k, q)
    if via == 1:
        corr = TruncatedPuiseux.from_terms(
            [(lam, s1), (1, -s1), (1 - lam, s2), (0, -s2)])
    elif via == 2:
        corr = TruncatedPuiseux.from_terms(
            [(lam, s1), (0, -s1), (1 - lam, s2), (1, -s2)])
    else:
        raise ValueError("via must be 1 or 2")
    return chi + corr.scale(unit)
