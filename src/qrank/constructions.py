"""Named rank points: uniform q-matroids, the paving construction, and
convex combinations, together with the closed-form predictions that the
brute-force oracles in rankfun are tested against.

Conventions for two-term combinations follow the source constructions:

* paving combinations weigh the FIRST paving q-matroid by lam,
  so values on S1 read lam*(k-1) + (1-lam)*k;
* two-uniform and MRD combinations weigh the SECOND (higher rank)
  term by lam, so middle dimensions read k1 + lam*(dim - k1).

Combinations of uniform q-matroids take the same value on every
subspace of one dimension, so reports carry a values_by_dim profile,
sum_i c_i * profile_i over the terms (combined_profile), that exists
even when the full lattice is over the size cap; the mu-independence
of such a point is decided exactly from the profile.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .errors import (CoefficientSum, InvalidCollection, LatticeMismatch,
                     Overlap, OutOfRange, RankMismatch, parse_int,
                     parse_key, parse_list, parse_rationals, require_keys)
from .rankfun import RankPoint, scaled_values
from .subspaces import MAX_LATTICE_SIZE, build_lattice


def uniform(lattice, k):
    """Uniform q-matroid of rank k: v_X = min(k, dim X)."""
    return point_from_profile(lattice, uniform_profile(lattice.n, k))


class PavingSpec(namedtuple("PavingSpec", "lattice k spaces")):
    """A collection S of k-dimensional spaces with pairwise intersections
    of dimension at most k-2, the input of the paving construction;
    spaces is a frozenset of lattice indices."""

    __slots__ = ()

    def __new__(cls, lattice, k, spaces):
        if not 1 <= k <= lattice.n - 1:
            raise InvalidCollection(f"need 1 <= k <= n-1, got k={k}")
        ordered = sorted(spaces)
        for i in ordered:
            if lattice.dims[i] != k:
                raise InvalidCollection(
                    f"space {i} has dimension {lattice.dims[i]}, expected {k}")
        for a in range(len(ordered)):
            for b in range(a + 1, len(ordered)):
                m = lattice.meet(ordered[a], ordered[b])
                if lattice.dims[m] > k - 2:
                    raise InvalidCollection(
                        f"spaces {ordered[a]} and {ordered[b]} intersect in "
                        f"dimension {lattice.dims[m]} > k-2")
        return super().__new__(cls, lattice, k, spaces)


def paving_spec(lattice, k, spaces):
    return PavingSpec(lattice, k, frozenset(spaces))


def space_indices(lattice, spaces):
    """Lattice indices of the spaces, each given as a list of spanning
    rows over F_q (element encodings)."""
    return frozenset(lattice.index_of_rows(
        [tuple(parse_int(x) for x in r) for r in rows]) for rows in spaces)


def paving(spec):
    """Paving q-matroid induced by S: value k-1 on S, min(dim, k) elsewhere."""
    lat = spec.lattice
    profile = uniform_profile(lat.n, spec.k)
    vals = [profile[d] for d in lat.dims]
    for i in spec.spaces:
        vals[i] = Fraction(spec.k - 1)
    return RankPoint(lat, tuple(vals))


def combo_denominator(coeffs):
    return math.lcm(*(Fraction(c).denominator for c in coeffs))


def convex_combination(terms):
    """Coordinatewise mix sum(lam_i * p_i) with lam_i > 0 summing to 1."""
    terms = [(Fraction(c), p) for c, p in terms]
    if not terms:
        raise CoefficientSum("empty combination")
    total = sum(c for c, _ in terms)
    if total != 1 or any(c <= 0 for c, _ in terms):
        raise CoefficientSum(f"coefficients must be positive with sum 1, sum={total}")
    lat = terms[0][1].lattice
    if any(p.lattice is not lat for _, p in terms):
        raise LatticeMismatch("all points must live on one lattice")
    # in integers over one common denominator: c p = (c mu) ints / mu
    scaled = [(c, *scaled_values(p.values)) for c, p in terms]
    den = math.lcm(*(c.denominator * mu for c, mu, _ in scaled))
    nums = [0] * lat.size
    for c, mu, ints in scaled:
        f = c.numerator * (den // (c.denominator * mu))
        nums = [a + f * v for a, v in zip(nums, ints)]
    fractions = {a: Fraction(a, den) for a in set(nums)}
    return RankPoint(lat, tuple(fractions[a] for a in nums))


# -- profiles: rank functions constant on each grade --------------------

def uniform_profile(n, k):
    """The values by dimension of the uniform q-matroid of rank k on
    F_q^n: min(k, d) in dimension d."""
    if not 0 <= k <= n:
        raise OutOfRange(f"need 0 <= k <= {n}, got {k}")
    return tuple(Fraction(min(k, d)) for d in range(n + 1))


def combined_profile(terms):
    """The profile sum_i c_i * profile_i of the (c_i, profile_i) pairs."""
    terms = [(Fraction(c), profile) for c, profile in terms]
    return tuple(sum(c * profile[d] for c, profile in terms)
                 for d in range(len(terms[0][1])))


def point_from_profile(lattice, values_by_dim):
    profile = [Fraction(v) for v in values_by_dim]
    return RankPoint(lattice, tuple(profile[d] for d in lattice.dims))


def report_point(lattice, values_by_dim, q=None):
    """A report's point: None without a lattice, else the profile's
    point on it, once the lattice has the profile's n and, when q is
    given, that q (LatticeMismatch otherwise)."""
    if lattice is None:
        return None
    if lattice.n != len(values_by_dim) - 1 or q not in (None, lattice.q):
        raise LatticeMismatch("lattice does not match the report's (q, n)")
    return point_from_profile(lattice, values_by_dim)


def profile_independent_dims(values_by_dim, mu):
    """Dimensions D whose spaces are mu-independent, for a point that is
    constant on grades: D qualifies iff f(s) >= s/mu for all s <= D."""
    good = []
    for d, v in enumerate(values_by_dim):
        if Fraction(v) < Fraction(d, mu):
            break
        good.append(d)
    return frozenset(good)


# -- paving combination --------------------------------------------------

PavingComboReport = namedtuple("PavingComboReport", [
    "point", "lam", "mu", "k",
    "s0",  # int, or None when no dimension violates the bound
    "independent_prediction", "circuits_prediction", "flats_prediction",
    "cyclic_prediction", "cyclic_flats_prediction"])


def paving_combo_report(spec1, spec2, lam):
    """Combination lam*M_S1 + (1-lam)*M_S2 of two disjoint equal-rank
    paving collections, with every closed-form prediction attached.

    For k = 1 a nonempty collection makes its atoms loops (rank k-1 = 0),
    and a loop space of one term need not stay cyclic in a combination,
    so the cyclic-space and cyclic-flat closed forms only hold in the
    loopless regime; they are reported as None when k = 1 and some
    collection is nonempty."""
    if spec1.lattice is not spec2.lattice:
        raise LatticeMismatch("paving specs on different lattices")
    if spec1.k != spec2.k:
        raise RankMismatch(f"ranks differ: {spec1.k} vs {spec2.k}")
    if spec1.spaces & spec2.spaces:
        raise Overlap("S1 and S2 must be disjoint; the closed forms do not "
                      "cover overlapping collections")
    lam = Fraction(lam)
    if not 0 < lam < 1:
        raise CoefficientSum(f"need 0 < lam < 1, got {lam}")
    lat = spec1.lattice
    k = spec1.k
    mu = lam.denominator
    point = convex_combination([(lam, paving(spec1)), (1 - lam, paving(spec2))])

    s0 = k * mu + 1 if k * mu + 1 <= lat.n else None
    everything = frozenset(range(lat.size))
    if s0 is None:
        indep = everything
        circuits = frozenset()
    else:
        indep = frozenset(i for i in range(lat.size) if lat.dims[i] <= s0 - 1)
        circuits = frozenset(i for i in range(lat.size) if lat.dims[i] == s0)
    both = spec1.spaces | spec2.spaces
    fl = both | {lat.top} | frozenset(
        i for i in range(lat.size) if lat.dims[i] <= k - 1)
    if k == 1 and both:
        cy = None
        zf = None
    else:
        cy = both | {lat.zero} | frozenset(
            i for i in range(lat.size) if lat.dims[i] >= k + 1)
        zf = both | {lat.zero, lat.top}
    return PavingComboReport(point, lam, mu, k, s0, indep, circuits, fl, cy, zf)


# -- two uniform q-matroids ----------------------------------------------

TwoUniformReport = namedtuple("TwoUniformReport", [
    "q", "n", "k1", "k2", "lam", "mu", "values_by_dim",
    "predicts_all_independent", "all_independent", "flat_dims",
    "cyclic_dims", "cyclic_flat_dims",
    "point"])  # a RankPoint when a lattice was supplied, else None


def two_uniform_combo_report(q, n, k1, k2, lam, lattice=None):
    """Report on (1-lam)*U_{k1,n} + lam*U_{k2,n}.

    The sufficient conditions for full mu-independence (mu at least
    ceil(n/k1), or k1+k2 >= n) are reported separately from the exact
    profile-checked answer, since they are not necessary.
    """
    if not 1 < k1 < k2 < n:
        raise OutOfRange(f"need 1 < k1 < k2 < n, got {k1}, {k2}, {n}")
    lam = Fraction(lam)
    if not 0 < lam < 1:
        raise OutOfRange(f"need 0 < lam < 1, got {lam}")
    mu = lam.denominator
    vals = combined_profile([(1 - lam, uniform_profile(n, k1)),
                             (lam, uniform_profile(n, k2))])
    predicted = mu >= math.ceil(Fraction(n, k1)) or k1 + k2 >= n
    actual = n in profile_independent_dims(vals, mu)
    flat_dims = frozenset(range(k2)) | {n}
    cyclic_dims = frozenset(range(k1 + 1, n + 1)) | {0}
    zf_dims = frozenset({0, n}) | frozenset(range(k1 + 1, k2))
    return TwoUniformReport(q, n, k1, k2, lam, mu, vals, predicted, actual,
                            flat_dims, cyclic_dims, zf_dims,
                            report_point(lattice, vals, q))


# -- flag of n-2 uniform q-matroids ---------------------------------------

FlagComboReport = namedtuple("FlagComboReport", [
    "q", "n", "lambdas", "mu", "values_by_dim", "predicts_all_independent",
    "all_independent", "independent_dims", "point"])


def flag_uniform_combo(q, n, lambdas, lattice=None):
    """Report on sum_i lam_i * U_{i+1,n} for i = 1..n-2 (n >= 5).

    Every space of dimension at most n-1 is mu-independent; the whole
    lattice is predicted mu-independent when mu >= ceil(n/2).
    """
    if n < 5:
        raise OutOfRange(f"need n >= 5, got {n}")
    lambdas = tuple(Fraction(x) for x in lambdas)
    if len(lambdas) != n - 2:
        raise OutOfRange(f"need {n - 2} coefficients, got {len(lambdas)}")
    if any(x <= 0 for x in lambdas) or sum(lambdas) != 1:
        raise CoefficientSum("coefficients must be positive with sum 1")
    mu = combo_denominator(lambdas)
    vals = combined_profile((x, uniform_profile(n, i + 2))
                            for i, x in enumerate(lambdas))
    indep_dims = profile_independent_dims(vals, mu)
    predicted = mu >= math.ceil(Fraction(n, 2))
    return FlagComboReport(q, n, lambdas, mu, vals, predicted,
                           n in indep_dims, indep_dims,
                           report_point(lattice, vals, q))


# -- declarative construction specs (consumed by the CLI) ------------------

_SPEC_KEYS = {"uniform": ("q", "n", "k"), "paving": ("q", "n", "k", "spaces"),
             "combo": ("coefficients", "terms"), "flag": ("q", "n", "lambdas")}


def compile_spec(obj, lattice_cache=None, source="spec",
                 max_size=MAX_LATTICE_SIZE):
    """Build a RankPoint from a declarative JSON-style construction spec:
    {"kind": "uniform"|"paving"|"combo"|"flag", ...}.  A spec or combo
    term that is not an object raises NotAnObject, a key the kind needs
    (_SPEC_KEYS) that is absent MissingKey, and integer keys (q, n, k),
    spaces, coefficients, terms or lambdas that do not parse BadValue,
    naming source, and for a combo term its position.
    Every lattice the spec names, a combo term's included, is built
    under the cap max_size (TooLarge past it)."""
    if lattice_cache is None:
        lattice_cache = {}

    def int_key(key):
        return parse_key(obj, key, parse_int, source)

    def get_lattice():
        key = (int_key("q"), int_key("n"))
        if key not in lattice_cache:
            lattice_cache[key] = build_lattice(*key, max_size=max_size)
        return lattice_cache[key]

    kind = require_keys(obj, (), source).get("kind")
    if type(kind) is not str or kind not in _SPEC_KEYS:
        raise OutOfRange(f"{source}: unknown construction kind {kind!r}")
    require_keys(obj, _SPEC_KEYS[kind], source)
    if kind == "uniform":
        return uniform(get_lattice(), int_key("k"))
    if kind == "paving":
        lat = get_lattice()
        k = int_key("k")
        spaces = parse_key(obj, "spaces", lambda v: space_indices(lat, v),
                           source)
        return paving(paving_spec(lat, k, spaces))
    if kind == "combo":
        coeffs = parse_key(obj, "coefficients", parse_rationals, source)
        terms = parse_key(obj, "terms", parse_list, source)
        points = [compile_spec(t, lattice_cache, f"{source}: terms[{i}]",
                               max_size) for i, t in enumerate(terms)]
        if len(coeffs) != len(points):
            raise CoefficientSum("coefficient/term count mismatch")
        return convex_combination(list(zip(coeffs, points)))
    lambdas = parse_key(obj, "lambdas", parse_rationals, source)  # kind "flag"
    lat = get_lattice()
    return flag_uniform_combo(lat.q, lat.n, lambdas, lattice=lat).point
