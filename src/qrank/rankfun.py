"""Rank points: candidate q-rank functions as exact rational vectors.

A RankPoint assigns one Fraction to every subspace in a lattice, in the
lattice's canonical order.  Everything the theory defines at the level
of the rank function lives here: the three axioms, denominators,
mu-independence with circuits and loops, bases, closure, flats, cyclic
spaces, cyclic flats, and the classification report (q-matroid, loop
space, fullness, pavingness).

All set-valued operations evaluate the defining condition over the
whole lattice, containment on the atom sets; mu-independence reads it
off the lower covers, one space at a time.  They double as the oracles
against which every closed-form construction is tested.

Linear conditions (the axioms here, the facet rows in polytope) are
evaluated on mu-scaled integers: the point is multiplied once by mu,
the lcm of its denominators, so no Fraction arithmetic happens per row.
A facet row (x, y, m, j) holds iff w[m] + w[j] <= w[x] + w[y] on the
padded vector w = (0, mu v_1, .., mu v_top, 0, mu, 2 mu, .., n mu)
(SubspaceLattice.padded).  A point's facet status, the facets tight and
violated there, is evaluated once, on first use, and kept on the
immutable point (RankPoint.facet_status), so check_axioms, membership,
is_vertex and f_vector share one pass over the facet table per point.
Each facet is one axiom instance (facet_instance), so check_axioms
reports the violated facets of that status, and is_vertex names them
when it refuses a point: every axiom failure shows in one.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import cached_property

from .errors import (DimensionMismatch, NotADenominator, parse_key,
                     parse_rational, parse_rationals)

__all__ = [
    "RankPoint", "FacetStatus", "AxiomReport", "Violation",
    "IndependenceReport", "Classification", "rank_point", "scaled_values",
    "check_axioms", "facet_instance", "principal_denominator",
    "independence_report", "mu_bases", "closure", "flats", "cyclic_spaces",
    "cyclic_flats", "classify", "is_strong_independent",
    "point_to_json", "point_from_json",
]


class RankPoint(namedtuple("RankPoint", "lattice values")):
    """A vector of exact rationals indexed by lattice positions.

    Immutable: setting any attribute raises AttributeError.  The
    instance dict holds only the cached facet_status, which
    cached_property writes into it directly."""

    def __new__(cls, lattice, values):
        if len(values) != lattice.size:
            raise DimensionMismatch(
                f"expected {lattice.size} values, got {len(values)}")
        return super().__new__(cls, lattice, values)

    def __setattr__(self, name, value):
        raise AttributeError(f"RankPoint is immutable; cannot set {name!r}")

    @cached_property
    def facet_status(self):
        """The FacetStatus of the point on its lattice's facet table,
        with v_0 read as 0 (SubspaceLattice.padded), evaluated on first
        use and kept: the point is immutable, so every certifier that
        reads it afterwards reads the same status."""
        mu, vals = scaled_values(self.values)
        return _facet_status(self.lattice, mu, self.lattice.padded(mu, vals))

    @property
    def rank(self):
        return self.values[self.lattice.top]

    def is_integral(self):
        return all(v.denominator == 1 for v in self.values)

    def grade_values(self, d):
        return tuple(self.values[i] for i in self.lattice.grade(d))

    def __repr__(self):
        vals = ",".join(str(v) for v in self.values)
        return f"RankPoint(q={self.lattice.q}, n={self.lattice.n}, [{vals}])"


def rank_point(lattice, values):
    """The RankPoint of values: Fractions as they are, ints and rational
    strings by parse_rational."""
    return RankPoint(lattice, tuple(v if isinstance(v, Fraction) else parse_rational(v)
                                    for v in values))


def scaled_values(values):
    """(mu, ints) with mu the lcm of the denominators of the Fractions in
    values and ints[i] == mu * values[i], exactly."""
    mu = math.lcm(*(v.denominator for v in values))
    return mu, tuple(v.numerator * (mu // v.denominator) for v in values)


# tight and violated are positions in lattice.facets, in increasing order
FacetStatus = namedtuple("FacetStatus", "mu w tight violated")


def _facet_status(lattice, mu, w):
    """The FacetStatus of the padded vector w, scaled by mu: one loop
    over the lattice's facet table (SubspaceLattice.facets), in which
    facet (x, y, m, j) is tight when w[m] + w[j] == w[x] + w[y] and
    violated when it is greater."""
    tight, violated = [], []
    for i, (x, y, m, j) in enumerate(lattice.facets):
        if w[m] + w[j] >= w[x] + w[y]:  # no slack kept: most are strict
            (violated if w[m] + w[j] > w[x] + w[y] else tight).append(i)
    return FacetStatus(mu, w, tuple(tight), tuple(violated))


Violation = tuple  # (axiom tag, witness indices, positive slack)


AxiomReport = namedtuple("AxiomReport", "ok violations")


def check_axioms(p):
    """Check the axioms (R1) bounds, (R2) monotonicity and (R3)
    submodularity, and report the facets of the polytope that the point
    violates (SubspaceLattice.facets), each as (tag, spaces, slack): the
    axiom instance it is (facet_instance) and its slack.  A nonzero v_0
    comes first, as ("R1", (0,), |v_0|).  Each slack is the exact
    positive amount by which the instance fails; violations are data,
    not errors.

    The report is complete: the point fails some axiom iff it is
    reported.  Every other axiom instance is a nonnegative sum of facet
    rows and of v_0 >= 0 and v_0 <= 0 with the same right-hand side (see
    polytope), so it fails only where v_0 or some facet does.  Each
    entry is also an entry of the literal report, which walks every
    instance (R1 on every space, R2 on every cover, R3 on every
    incomparable pair) in the order R1, R2, R3: the report is that list
    with only the facet instances kept, in its order.

    The facets are read from the point's cached facet status
    (facet_status), so a certifier that reads the status afterwards
    evaluates no facet again.  That status reads v_0 as 0; a diamond
    with a zero meet reads v_0, so a point with v_0 != 0 is evaluated
    instead, uncached, on the padded vector that keeps it."""
    lat = p.lattice
    if p.values[0]:
        mu, vals = scaled_values(p.values)
        w = (vals[0],) + lat.padded(mu, vals)[1:]  # see SubspaceLattice.facets
        status = _facet_status(lat, mu, w)
        bad = [("R1", (0,), Fraction(abs(vals[0]), mu))]
    else:
        status = p.facet_status
        bad = []
    mu, w = status.mu, status.w
    for i in status.violated:
        x, y, m, j = f = lat.facets[i]
        bad.append((*facet_instance(lat, f),
                    Fraction(w[m] + w[j] - w[x] - w[y], mu)))
    return AxiomReport(not bad, tuple(bad))


def facet_instance(lattice, facet):
    """The axiom instance that an entry (x, y, m, j) of the lattice's
    facet table is, as (tag, spaces): an atom bound v_a <= 1 is
    ("R1", (a,)), a top cover v_h <= v_top is ("R2", (h, top)), and a
    diamond is ("R3", (x, y))."""
    x, y, m, _ = facet
    if y < lattice.size:
        return "R3", (x, y)
    if x > lattice.top:  # the atom bound (size + 1, size, a, size)
        return "R1", (m,)
    return "R2", (m, x)  # the top cover (top, size, h, size)


def principal_denominator(p):
    """Smallest positive integer mu with mu * v_X integral for all X."""
    return math.lcm(*(v.denominator for v in p.values))


def is_denominator(p, mu):
    return mu >= 1 and all((v * mu).denominator == 1 for v in p.values)


def _require_denominator(p, mu):
    if not isinstance(mu, int) or not is_denominator(p, mu):
        raise NotADenominator(f"{mu} is not a denominator of the point")


def is_strong_independent(p, i):
    return p.values[i] == p.lattice.dims[i]


IndependenceReport = namedtuple("IndependenceReport",
                                "mu independent circuits loops")


def independence_report(p, mu):
    """mu-independent spaces, mu-circuits and mu-loops, by definition.

    A space I is mu-independent iff rho(J) >= dim(J)/mu for every
    subspace J <= I.  Every J < I lies in a lower cover of I, so I is
    mu-independent iff rho(I) >= dim(I)/mu and every lower cover of I
    is: one pass in the lattice order, lower covers first.  Circuits are
    the dependent spaces all of whose hyperplanes are independent.
    """
    _require_denominator(p, mu)
    lat = p.lattice
    ok = []
    for v, d, down in zip(p.values, lat.dims, lat.covers_down):
        ok.append(v >= Fraction(d, mu) and all(ok[c] for c in down))
    indep = frozenset(i for i, good in enumerate(ok) if good)
    circuits = frozenset(
        i for i in range(lat.size)
        if i not in indep and all(h in indep for h in lat.covers_down[i]))
    loops = frozenset(i for i in lat.atom_range if i not in indep)
    return IndependenceReport(mu, indep, circuits, loops)


def mu_bases(p, mu, v):
    """Inclusion-maximal mu-independent subspaces of the space at index v."""
    rep = independence_report(p, mu)
    indep, leq = rep.independent, p.lattice.leq
    return frozenset(i for i in indep if leq(i, v) and not any(
        u in indep and leq(u, v) for u in p.lattice.covers_up[i]))


# atoms are the 1-dimensional members of Cl_rho(A), closure their join
ClosureResult = namedtuple("ClosureResult", "atoms closure")


def closure(p, a):
    lat = p.lattice
    va = p.values[a]
    atoms = frozenset(x for x in lat.atom_range
                      if p.values[lat.join(a, x)] == va)
    return ClosureResult(atoms, lat.join_many(atoms))


def flats(p):
    """Spaces whose rank strictly increases under any external atom."""
    lat = p.lattice
    vals, A = p.values, lat.atom_sets  # an atom's set is its own bit
    out = []
    for x, ax in enumerate(A):
        vx = vals[x]
        if all(A[a] & ax or vals[lat.join(x, a)] > vx
               for a in lat.atom_range):
            out.append(x)
    return frozenset(out)


def cyclic_spaces(p):
    """Spaces X satisfying, for every hyperplane H of X, condition (1)
    rho(X) = rho(H) or condition (2) 0 < rho(X) - rho(H) < rho(a) for
    some atom a of X outside H."""
    lat = p.lattice
    vals, A = p.values, lat.atom_sets  # an atom's set is its own bit
    out = []
    for x in range(lat.size):
        vx = vals[x]
        good = True
        for h in lat.covers_down[x]:
            diff = vx - vals[h]
            if diff == 0:
                continue
            if diff > 0 and any(not A[a] & A[h] and diff < vals[a]
                                for a in lat.atoms_of[x]):
                continue
            good = False
            break
        if good:
            out.append(x)
    return frozenset(out)


def cyclic_flats(p):
    return flats(p) & cyclic_spaces(p)


# is_paving is a bool for q-matroids, None otherwise
Classification = namedtuple("Classification", "is_qmatroid loop_space "
                            "is_full is_paving is_mu_paving")


def classify(p, mu):
    _require_denominator(p, mu)
    lat = p.lattice
    is_qm = p.is_integral()
    loop_space = lat.join_many(a for a in lat.atom_range if p.values[a] == 0)
    fl = flats(p)
    cy = cyclic_spaces(p)
    full = lat.zero in fl and lat.top in cy
    rep = independence_report(p, mu)
    if rep.independent:
        max_indep_dim = max(lat.dims[i] for i in rep.independent)
    else:
        max_indep_dim = 0
    mu_paving = all(lat.dims[c] >= max_indep_dim for c in rep.circuits)
    paving = None
    if is_qm:
        rep1 = independence_report(p, 1)
        paving = all(lat.dims[c] >= p.rank for c in rep1.circuits)
    return Classification(is_qm, loop_space, full, paving, mu_paving)


# -- serialization -----------------------------------------------------

def point_to_json(p):
    lat = p.lattice
    return {
        "q": lat.q,
        "n": lat.n,
        "order_digest": lat.order_digest(),
        "values": [str(v) for v in p.values],
    }


def point_from_json(obj, lattice, source="point"):
    """The RankPoint of a point file's object on the lattice; values
    that do not parse raise BadValue naming the key and source, and a
    wrong number of them DimensionMismatch."""
    if obj.get("q") != lattice.q or obj.get("n") != lattice.n:
        raise DimensionMismatch("point parameters do not match the lattice")
    if "order_digest" not in obj:
        raise DimensionMismatch(
            "point has no order_digest; it cannot be checked against the "
            "lattice ordering")
    if obj["order_digest"] != lattice.order_digest():
        raise DimensionMismatch(
            "order digest mismatch: point was serialized against a "
            "different lattice ordering")
    return rank_point(lattice,
                      parse_key(obj, "values", parse_rationals, source))
