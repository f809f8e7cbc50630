import json
import random
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (facet_axiom_violations, literal_axiom_violations,
                     literal_independence, literal_mu_bases)
from qrank.constructions import convex_combination, paving, paving_spec, uniform
from qrank.errors import DimensionMismatch, NotADenominator
from qrank.polytope import (build_hrep, enumerate_vertices, interior_witness,
                            lattice_points)
from qrank.rankfun import (check_axioms, classify, closure,
                           cyclic_flats, cyclic_spaces, flats,
                           independence_report,
                           is_strong_independent, mu_bases, point_from_json,
                           point_to_json, principal_denominator, rank_point)
from qrank.subspaces import build_lattice


def dims_set(lat, pred):
    return frozenset(i for i in range(lat.size) if pred(lat.dims[i]))


@pytest.mark.parametrize("text,value", [
    ("0.5", Fraction(1, 2)), ("1e-3", Fraction(1, 1000)), ("-3/4", Fraction(-3, 4)),
    ("2.5E+2", Fraction(250)), ("1e4299", Fraction(10 ** 4299)),
    ("1e-4299", Fraction(1, 10 ** 4299)), ("1" * 4300, Fraction(int("1" * 4300))),
], ids=["half", "milli", "ratio", "exponent", "4300-digit-numerator",
        "4300-digit-denominator", "4300-digit-int"])
def test_rank_point_parses_exact_rationals(lat22, text, value):
    assert rank_point(lat22, [0, text, 1, 1, 2]).values[1] == value


@pytest.mark.parametrize("text", [
    "1e100000000", "1E4300", "-1e-4300", "0e99999", "1e" + "9" * 10 ** 6,
    "1" * 4301, "1/" + "1" * 4301, "0." + "0" * 4299 + "1",
], ids=["exponent-1e8", "exponent-4300", "negative-exponent-4300",
        "zero-exponent-99999", "million-digit-exponent", "4301-digit-int",
        "4301-digit-denominator", "4301-decimal-places"])
def test_rank_point_refuses_rationals_past_4300_digits(lat22, text):
    # refused before Fraction builds the integer: "1e100000000" alone
    # would take minutes
    with pytest.raises(ValueError, match="more than 4300 digits"):
        rank_point(lat22, [0, text, 1, 1, 2])


def test_axioms_on_paper_points(lat22):
    ok1 = rank_point(lat22, [0, 1, 1, 1, 2])
    ok2 = rank_point(lat22, [0, 1, 1, 1, 1])
    assert check_axioms(ok1).ok
    assert check_axioms(ok2).ok
    bad = rank_point(lat22, [0, 2, 0, 0, 1])
    rep = check_axioms(bad)
    assert not rep.ok
    assert any(tag == "R1" and w == (1,) for tag, w, _ in rep.violations)


def test_axiom_violation_witnesses(lat22):
    # break monotonicity on a cover
    rep = check_axioms(rank_point(lat22, [0, 1, 1, 1, Fraction(1, 2)]))
    assert any(tag == "R2" for tag, _, _ in rep.violations)
    # break submodularity: two lines full, join E full, but third line 0
    rep = check_axioms(rank_point(lat22, [0, 1, 1, 0, 2]))
    assert any(tag == "R3" for tag, _, _ in rep.violations)
    slacks = [s for tag, _, s in rep.violations if tag == "R3"]
    assert all(s > 0 for s in slacks)


def test_random_single_inequality_breakage(lat23):
    rng = random.Random(42)
    base = uniform(lat23, 2)
    for _ in range(30):
        i = rng.randrange(1, lat23.size)
        vals = list(base.values)
        vals[i] = vals[i] + Fraction(rng.randrange(1, 4), 1) + lat23.dims[i]
        rep = check_axioms(rank_point(lat23, vals))
        assert not rep.ok
        # the report names facets: i lies in the support of one, as one
        # of a diamond's four spaces when i is the top
        assert any(i in _support(lat23, tag, w) for tag, w, _ in rep.violations)


def _support(lat, tag, spaces):
    """The spaces an axiom instance reads: a pair's meet and join too."""
    if tag == "R3":
        x, y = spaces
        return {x, y, lat.meet(x, y), lat.join(x, y)}
    return set(spaces)


def test_principal_denominator(lat22):
    assert principal_denominator(uniform(lat22, 1)) == 1
    p = rank_point(lat22, [0, 1, 1, 1, Fraction(3, 2)])
    assert principal_denominator(p) == 2
    p = rank_point(lat22, [0, Fraction(1, 2), 1, 1, Fraction(8, 3) - 1])
    assert principal_denominator(p) == 6
    # mu * v integral for all, and mu-1 fails unless mu == 1
    for point in (uniform(lat22, 2), p):
        mu = principal_denominator(point)
        assert all((v * mu).denominator == 1 for v in point.values)
        if mu > 1:
            assert any((v * (mu - 1)).denominator != 1 for v in point.values)


def test_independence_uniform_rank1(lat22):
    u = uniform(lat22, 1)
    rep = independence_report(u, 1)
    assert rep.independent == frozenset(range(4))  # <0> and the three lines
    assert rep.circuits == frozenset({lat22.top})
    assert rep.loops == frozenset()


def test_independence_requires_denominator(lat22):
    p = rank_point(lat22, [0, 1, 1, 1, Fraction(3, 2)])
    with pytest.raises(NotADenominator):
        independence_report(p, 3)
    with pytest.raises(NotADenominator):
        classify(p, 3)


def test_independence_monotone_and_classical(lat23):
    rng = random.Random(7)
    s = frozenset({rng.choice([i for i in range(lat23.size) if lat23.dims[i] == 2])})
    points = [uniform(lat23, k) for k in range(4)] + [paving(paving_spec(lat23, 2, s))]
    for p in points:
        rep = independence_report(p, 1)
        # downward closed
        for i in rep.independent:
            assert all(j in rep.independent for j in range(lat23.size)
                       if lat23.leq(j, i))
        # classical characterization rho(A) = dim A
        assert rep.independent == frozenset(
            i for i in range(lat23.size) if is_strong_independent(p, i))


@cache
def _vertices(q, n):
    return enumerate_vertices(build_hrep(build_lattice(q, n)))


@pytest.mark.parametrize("q,n,sample", [(2, 3, 200), (7, 2, None)])
def test_independence_matches_the_literal_definition(q, n, sample):
    # the vertices are fractional and mostly not constant on grades; at
    # each one's principal denominator mu, and at 2 mu, the recursion
    # over lower covers and mu_bases agree with the definitions read
    # over every pair.  At mu no sampled vertex has a dependent space
    # below one that passes its own bound; at 2 mu nine do, each above
    # a mu-loop, so the recursion itself is tested
    verts = _vertices(q, n)
    if sample:
        verts = random.Random(48).sample(verts, sample)
    for p in verts:
        for mu in (principal_denominator(p), 2 * principal_denominator(p)):
            rep = literal_independence(p, mu)
            assert independence_report(p, mu) == rep
            for v in range(p.lattice.size):
                assert mu_bases(p, mu, v) == literal_mu_bases(p, rep, v)


def test_mu_bases(lat22, lat23):
    u = uniform(lat22, 1)
    assert mu_bases(u, 1, lat22.top) == frozenset(lat22.atom_range)
    u23 = uniform(lat23, 2)
    bases = mu_bases(u23, 1, lat23.top)
    assert bases == dims_set(lat23, lambda d: d == 2)
    # V independent => {V}
    a = next(iter(lat23.atom_range))
    assert mu_bases(u23, 1, a) == frozenset({a})
    # all bases carry the rank of V
    for v in range(lat23.size):
        for b in mu_bases(u23, 1, v):
            assert u23.values[b] == u23.values[v]


def test_closure(lat23):
    u = uniform(lat23, 2)
    assert closure(u, lat23.top).closure == lat23.top
    a = next(iter(lat23.atom_range))
    res = closure(u, a)
    assert res.closure == a  # dim < k: already a flat
    plane = next(i for i in range(lat23.size) if lat23.dims[i] == 2)
    assert closure(u, plane).closure == lat23.top  # dim >= k closes to E
    # cl(A) is always a flat; flats are their own closure
    fl = flats(u)
    for x in range(lat23.size):
        assert closure(u, x).closure in fl
    for f in fl:
        assert closure(u, f).closure == f


def test_flats_cyclic_uniform(lat23):
    for k in (1, 2):
        u = uniform(lat23, k)
        assert flats(u) == dims_set(lat23, lambda d: d < k) | {lat23.top}
        assert cyclic_spaces(u) == dims_set(lat23, lambda d: d > k) | {lat23.zero}
        assert cyclic_flats(u) == frozenset({lat23.zero, lat23.top})


def test_flats_cyclic_paving(lat23):
    planes = [i for i in range(lat23.size) if lat23.dims[i] == 2]
    s = frozenset({planes[0]})
    p = paving(paving_spec(lat23, 2, s))
    # F = (L_{<=k-1} \ I) u S u {E} with I the hyperplanes under S
    inside = frozenset(h for h in lat23.covers_down[planes[0]])
    expect_flats = (dims_set(lat23, lambda d: d <= 1) - inside) | s | {lat23.top}
    assert flats(p) == expect_flats
    # O = (L_{>=k+1} \ J) u S u {0} with J the spaces over S
    over = frozenset(u for u in lat23.covers_up[planes[0]])
    expect_cyc = (dims_set(lat23, lambda d: d >= 3) - over) | s | {lat23.zero}
    assert cyclic_spaces(p) == expect_cyc
    # here k = n-1, so E itself sits over S and drops out of the cyclic
    # set; the compact closed form S u {0} u {E} needs k < n-1
    assert cyclic_flats(p) == s | {lat23.zero}


def test_cyclic_flats_paving_small_rank(lat24):
    planes = [i for i in range(lat24.size) if lat24.dims[i] == 2]
    s = frozenset({planes[0]})
    p = paving(paving_spec(lat24, 2, s))
    assert cyclic_flats(p) == s | {lat24.zero, lat24.top}


def test_cyclic_condition_two_superfluous_for_qmatroids(lat23):
    # integer points: cyclic set must equal {X : rho(H) = rho(X) for all H}
    rng = random.Random(3)
    planes = [i for i in range(lat23.size) if lat23.dims[i] == 2]
    points = [uniform(lat23, k) for k in range(4)]
    points.append(paving(paving_spec(lat23, 2, frozenset(planes[:1]))))
    for p in points:
        simple = frozenset(
            x for x in range(lat23.size)
            if all(p.values[h] == p.values[x] for h in lat23.covers_down[x]))
        assert cyclic_spaces(p) == simple


def test_classify(lat22, lat23):
    u = uniform(lat23, 2)
    cls = classify(u, 1)
    assert cls.is_qmatroid and cls.is_full and cls.is_paving and cls.is_mu_paving
    assert cls.loop_space == lat23.zero
    # rank-1 q-matroid with a loop: (0,1,1,0,1) has loop space <11>
    p = rank_point(lat22, [0, 1, 1, 0, 1])
    cls = classify(p, 1)
    assert cls.loop_space == 3
    assert not cls.is_full  # <0> is not a flat (the loop keeps rank 0)
    the_loops = independence_report(p, 1).loops
    assert the_loops == frozenset({3})


def test_classify_mu_paving_vacuous(lat22):
    # U_{1,2} + U_{2,2} with lam=1/2: mu=2, no mu-circuit exists
    combo = convex_combination([(Fraction(1, 2), uniform(lat22, 1)),
                                (Fraction(1, 2), uniform(lat22, 2))])
    rep = independence_report(combo, 2)
    assert rep.circuits == frozenset()
    assert classify(combo, 2).is_mu_paving


def test_point_json_roundtrip(lat22):
    p = rank_point(lat22, [0, Fraction(1, 2), 1, 1, Fraction(3, 2)])
    obj = point_to_json(p)
    back = point_from_json(obj, lat22)
    assert back.values == p.values
    obj["order_digest"] = "0" * 16
    with pytest.raises(Exception):
        point_from_json(obj, lat22)


def test_point_json_names_a_lattice_of_another_q_or_n(lat22, lat23, lat32):
    obj = point_to_json(uniform(lat22, 1))
    for other in (lat23, lat32):
        with pytest.raises(DimensionMismatch, match="parameters"):
            point_from_json(obj, other)


def test_point_json_requires_digest(lat22):
    obj = point_to_json(uniform(lat22, 1))
    del obj["order_digest"]
    with pytest.raises(DimensionMismatch, match="order_digest"):
        point_from_json(obj, lat22)


_small_lattice = cache(build_lattice)


@st.composite
def _json_points(draw):
    """A point of arbitrary small rationals on L(F_2^2), L(F_2^3) or
    L(F_3^2)."""
    lat = _small_lattice(*draw(st.sampled_from([(2, 2), (2, 3), (3, 2)])))
    vals = draw(st.lists(st.fractions(-3, 3, max_denominator=9),
                         min_size=lat.size, max_size=lat.size))
    return rank_point(lat, vals)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_json_points())
def test_point_json_roundtrips_under_the_digest(p):
    lat = p.lattice
    obj = json.loads(json.dumps(point_to_json(p)))
    assert obj["order_digest"] == lat.order_digest()
    assert point_from_json(obj, lat).values == p.values
    # a lattice built again orders its spaces the same way
    assert point_from_json(obj, build_lattice(lat.q, lat.n)).values == p.values
    digest = obj["order_digest"]
    obj["order_digest"] = digest[:-1] + ("1" if digest[-1] == "0" else "0")
    with pytest.raises(DimensionMismatch, match="digest"):
        point_from_json(obj, lat)


@cache
def _qmatroids(q, n):
    lat = _small_lattice(q, n)
    return lat, lattice_points(lat), interior_witness(lat)


@st.composite
def _axiom_points(draw):
    """(kind, point): a convex combination of a q-matroid with another
    one or with the interior witness, which is feasible; the same with a
    few coordinates moved by small rationals, which is often outside;
    or the same with v_0 moved off 0."""
    lat, pts, wit = _qmatroids(*draw(st.sampled_from(
        [(2, 2), (3, 2), (2, 3), (3, 3)])))
    a = draw(st.sampled_from(pts))
    b = draw(st.one_of(st.just(wit), st.sampled_from(pts)))
    lam = draw(st.fractions(min_value=0, max_value=1, max_denominator=7))
    vals = [lam * x + (1 - lam) * y for x, y in zip(a.values, b.values)]
    kind = draw(st.sampled_from(["feasible", "moved", "zero moved"]))
    small = st.fractions(min_value=-1, max_value=1, max_denominator=5)
    if kind == "moved":
        for i, d in draw(st.lists(st.tuples(st.integers(1, lat.size - 1),
                                            small), min_size=1, max_size=3)):
            vals[i] += d
    elif kind == "zero moved":
        vals[0] = draw(small.filter(bool))
    return kind, rank_point(lat, vals)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_axiom_points())
def test_check_axioms_matches_the_literal_walk(case):
    kind, p = case
    rep = check_axioms(p)
    literal = literal_axiom_violations(p)
    assert rep.violations == facet_axiom_violations(p)
    assert rep.ok == (not literal)
    assert rep.ok == (not rep.violations)
    if kind != "moved":
        assert rep.ok == (kind == "feasible")


def test_mu_bases_equal_rank_fractional(lat23):
    # fractional combination: every mu-basis of V carries rho(V)
    combo = convex_combination([
        (Fraction(1, 3), uniform(lat23, 1)),
        (Fraction(2, 3), uniform(lat23, 2)),
    ])
    for v in range(lat23.size):
        bases = mu_bases(combo, 3, v)
        assert bases
        for b in bases:
            assert combo.values[b] == combo.values[v]
