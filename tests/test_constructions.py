import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_disjoint_paving_pair, random_lambda
from qrank.constructions import (combo_denominator, compile_spec,
                                 convex_combination, flag_uniform_combo,
                                 paving, paving_combo_report, paving_spec,
                                 profile_independent_dims,
                                 two_uniform_combo_report, uniform)
from qrank.errors import (CoefficientSum, InvalidCollection, Overlap,
                          OutOfRange, RankMismatch)
from qrank.rankfun import (check_axioms, classify, closure, cyclic_flats,
                           cyclic_spaces, flats, independence_report,
                           principal_denominator, rank_point)
from qrank.subspaces import build_lattice


def dims_set(lat, pred):
    return frozenset(i for i in range(lat.size) if pred(lat.dims[i]))


# -- uniform ----------------------------------------------------------------

def test_uniform_points(lat22, lat23):
    assert [int(v) for v in uniform(lat22, 2).values] == [0, 1, 1, 1, 2]
    assert all(v == 0 for v in uniform(lat23, 0).values)
    free = uniform(lat23, 3)
    assert [int(v) for v in free.values] == list(lat23.dims)
    with pytest.raises(OutOfRange):
        uniform(lat22, 3)


# -- paving -------------------------------------------------------------

def test_paving_empty_is_uniform(lat23):
    for k in (1, 2):
        assert paving(paving_spec(lat23, k, frozenset())).values == \
            uniform(lat23, k).values


def test_paving_validation(lat23, lat24):
    planes23 = [i for i in range(lat23.size) if lat23.dims[i] == 2]
    # two planes of F_2^3 always meet in a line: k-2 = 0 fails
    with pytest.raises(InvalidCollection):
        paving_spec(lat23, 2, frozenset(planes23[:2]))
    with pytest.raises(InvalidCollection):
        paving_spec(lat23, 3, frozenset({lat23.top}))  # k = n not allowed
    with pytest.raises(InvalidCollection):
        paving_spec(lat23, 2, frozenset({next(iter(lat23.atom_range))}))
    # a partial spread of F_2^4 is fine
    lat = lat24
    planes = [i for i in range(lat.size) if lat.dims[i] == 2]
    a = planes[0]
    b = next(p for p in planes if lat.dims[lat.meet(a, p)] == 0)
    spec = paving_spec(lat, 2, frozenset({a, b}))
    assert check_axioms(paving(spec)).ok


def test_paving_circuits_are_the_collection(lat23):
    planes = [i for i in range(lat23.size) if lat23.dims[i] == 2]
    s = frozenset({planes[3]})
    p = paving(paving_spec(lat23, 2, s))
    rep = independence_report(p, 1)
    rank_k_circuits = {c for c in rep.circuits if p.values[c] == 1}
    assert rank_k_circuits == s


# -- convex combinations ---------------------------------------------------

def test_convex_combination_identity_and_errors(lat22):
    u = uniform(lat22, 1)
    assert convex_combination([(Fraction(1), u)]).values == u.values
    with pytest.raises(CoefficientSum):
        convex_combination([(Fraction(1, 2), u)])
    with pytest.raises(CoefficientSum):
        convex_combination([(Fraction(3, 2), u), (Fraction(-1, 2), u)])


_LAT22 = build_lattice(2, 2)


@st.composite
def _combination_terms(draw):
    """Two or three (coefficient, point) terms on L(F_2^2): positive
    weights with mixed denominators scaled to sum 1, and values that
    are any rationals, ints among them."""
    count = draw(st.integers(2, 3))
    weights = [Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 9)))
               for _ in range(count)]
    total = sum(weights)
    return [(w / total, rank_point(_LAT22, [
        Fraction(draw(st.integers(-12, 12)), draw(st.integers(1, 6)))
        for _ in range(_LAT22.size)])) for w in weights]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_combination_terms())
def test_convex_combination_is_the_fraction_sum(terms):
    combo = convex_combination(terms)
    assert combo.lattice is _LAT22
    assert combo.values == tuple(sum(c * p.values[i] for c, p in terms)
                                 for i in range(_LAT22.size))
    assert all(type(v) is Fraction for v in combo.values)


def test_combo_of_lattice_points_stays_feasible(lat23):
    rng = random.Random(8)
    from qrank.polytope import build_hrep, lattice_points, membership
    pts = lattice_points(lat23)
    H = build_hrep(lat23)
    for _ in range(25):
        a, b = rng.sample(pts, 2)
        lam = random_lambda(rng)
        combo = convex_combination([(lam, a), (1 - lam, b)])
        assert check_axioms(combo).ok
        assert membership(H, combo).status != "outside"
        assert lam.denominator % principal_denominator(combo) == 0


def _random_qmatroid_pair(rng, lat):
    from qrank.polytope import lattice_points
    pts = lattice_points(lat)
    return rng.sample(pts, 2)


def test_flats_heredity_and_characterization(lat23):
    # flats(M1) u flats(M2) <= flats(combo); and F is a flat of the combo
    # iff the atom closures intersect in exactly the atoms of F
    rng = random.Random(17)
    for _ in range(12):
        m1, m2 = _random_qmatroid_pair(rng, lat23)
        lam = random_lambda(rng)
        combo = convex_combination([(lam, m1), (1 - lam, m2)])
        f1, f2, fc = flats(m1), flats(m2), flats(combo)
        assert f1 | f2 <= fc
        for x in range(lat23.size):
            cl_both = closure(m1, x).atoms & closure(m2, x).atoms
            atoms_x = frozenset(lat23.atoms_of[x])
            assert (x in fc) == (cl_both == atoms_x)


def test_cyclic_union_and_characterization_loopless(lat23):
    rng = random.Random(29)
    from qrank.polytope import lattice_points
    pts = [p for p in lattice_points(lat23)
           if independence_report(p, 1).loops == frozenset()]
    for _ in range(12):
        m1, m2 = rng.sample(pts, 2)
        lam = random_lambda(rng)
        combo = convex_combination([(lam, m1), (1 - lam, m2)])
        o1, o2, oc = cyclic_spaces(m1), cyclic_spaces(m2), cyclic_spaces(combo)
        assert o1 | o2 <= oc
        assert cyclic_flats(m1) | cyclic_flats(m2) <= cyclic_flats(combo)
        for x in range(lat23.size):
            n1 = {h for h in lat23.covers_down[x] if m1.values[h] < m1.values[x]}
            n2 = {h for h in lat23.covers_down[x] if m2.values[h] < m2.values[x]}
            assert (x in oc) == (not (n1 & n2))


def test_loop_space_not_cyclic_in_combo(lat22):
    # M1 with loop space <11>, M2 the free q-matroid: the loop space is
    # cyclic in M1 but not in M2, and the combination loses it
    m1 = rank_point(lat22, [0, 1, 1, 0, 1])
    m2 = uniform(lat22, 2)
    loop = 3
    assert loop in cyclic_spaces(m1)
    assert loop not in cyclic_spaces(m2)
    combo = convex_combination([(Fraction(1, 2), m1), (Fraction(1, 2), m2)])
    assert loop not in cyclic_spaces(combo)


def test_independence_union_and_dependent_intersection(lat23):
    rng = random.Random(31)
    for _ in range(12):
        m1, m2 = _random_qmatroid_pair(rng, lat23)
        lam = random_lambda(rng)
        combo = convex_combination([(lam, m1), (1 - lam, m2)])
        mu = lam.denominator
        rep = independence_report(combo, mu)
        i1 = independence_report(m1, 1).independent
        i2 = independence_report(m2, 1).independent
        assert i1 | i2 <= rep.independent
        dep = frozenset(range(lat23.size)) - rep.independent
        d1 = frozenset(range(lat23.size)) - i1
        d2 = frozenset(range(lat23.size)) - i2
        assert dep <= d1 & d2
        # circuits of either input that stay dependent become mu-circuits
        c1 = independence_report(m1, 1).circuits
        c2 = independence_report(m2, 1).circuits
        assert ((c1 | c2) & dep) <= rep.circuits


def test_fullness_proposition(lat23):
    rng = random.Random(37)
    from qrank.polytope import lattice_points
    pts = lattice_points(lat23)
    full_pts = [p for p in pts
                if classify(p, 1).is_full]
    loopless = [p for p in pts
                if independence_report(p, 1).loops == frozenset()]
    for _ in range(10):
        m1 = rng.choice(full_pts)
        m2 = rng.choice(loopless)
        if m1.values == m2.values:
            continue
        lam = random_lambda(rng)
        combo = convex_combination([(lam, m1), (1 - lam, m2)])
        assert classify(combo, lam.denominator).is_full


def test_principal_denominator_theorem(lat23):
    # a strong independent 1-space in the combo forces denom(lam) principal
    rng = random.Random(41)
    for _ in range(20):
        m1, m2 = _random_qmatroid_pair(rng, lat23)
        if m1.values == m2.values:
            continue
        lam = random_lambda(rng)
        combo = convex_combination([(lam, m1), (1 - lam, m2)])
        strong_atom = any(combo.values[a] == 1 for a in lat23.atom_range)
        if strong_atom:
            assert principal_denominator(combo) == lam.denominator


# -- paving combinations ---------------------------------------------------

def test_paving_combo_validation(lat23, lat24):
    planes = [i for i in range(lat23.size) if lat23.dims[i] == 2]
    s1 = paving_spec(lat23, 2, frozenset({planes[0]}))
    with pytest.raises(Overlap):
        paving_combo_report(s1, s1, Fraction(1, 2))
    atoms = list(lat23.atom_range)
    with pytest.raises(RankMismatch):
        paving_combo_report(s1, paving_spec(lat23, 1, frozenset({atoms[0]})),
                            Fraction(1, 2))


def test_paving_combo_values_match_shape(lat24):
    # point values: lam(k-1)+(1-lam)k on S1, lam k+(1-lam)(k-1) on S2
    rng = random.Random(43)
    s1, s2 = random_disjoint_paving_pair(rng, lat24, 2)
    if not s1 or not s2:
        pytest.skip("sampler returned empty collection")
    lam = Fraction(1, 3)
    rep = paving_combo_report(paving_spec(lat24, 2, s1),
                              paving_spec(lat24, 2, s2), lam)
    for x in s1:
        assert rep.point.values[x] == lam * 1 + (1 - lam) * 2
    for x in s2:
        assert rep.point.values[x] == lam * 2 + (1 - lam) * 1
    for x in range(lat24.size):
        if x in s1 or x in s2:
            continue
        assert rep.point.values[x] == min(lat24.dims[x], 2)


@pytest.mark.parametrize("fixture,ks", [("lat23", (2,)), ("lat24", (2, 3))])
def test_paving_combo_oracle_small(fixture, ks, request):
    lat = request.getfixturevalue(fixture)
    rng = random.Random(47)
    for _ in range(10):
        k = rng.choice(ks)
        s1, s2 = random_disjoint_paving_pair(rng, lat, k)
        lam = random_lambda(rng)
        rep = paving_combo_report(paving_spec(lat, k, s1),
                                  paving_spec(lat, k, s2), lam)
        assert check_axioms(rep.point).ok
        ir = independence_report(rep.point, rep.mu)
        assert ir.independent == rep.independent_prediction
        assert ir.circuits == rep.circuits_prediction
        assert flats(rep.point) == rep.flats_prediction
        assert cyclic_spaces(rep.point) == rep.cyclic_prediction
        assert cyclic_flats(rep.point) == rep.cyclic_flats_prediction
        assert classify(rep.point, rep.mu).is_mu_paving


def test_paving_combo_k1_loops_break_cyclic_form(lat23):
    # k = 1 collections make loops; the cyclic closed forms are not
    # asserted there (report carries None) and indeed fail: the S1 atom
    # is not cyclic in the combination
    atoms = list(lat23.atom_range)
    rep = paving_combo_report(paving_spec(lat23, 1, frozenset({atoms[0]})),
                              paving_spec(lat23, 1, frozenset({atoms[1]})),
                              Fraction(1, 2))
    assert rep.cyclic_prediction is None
    assert rep.cyclic_flats_prediction is None
    assert atoms[0] not in cyclic_spaces(rep.point)
    # independence and flats forms still hold at k = 1
    ir = independence_report(rep.point, rep.mu)
    assert ir.independent == rep.independent_prediction
    assert ir.circuits == rep.circuits_prediction
    assert flats(rep.point) == rep.flats_prediction


def test_paving_combo_s0_degenerate(lat23):
    # k*mu >= n leaves no dimension violating the bound: everything is
    # mu-independent and mu-pavingness holds vacuously
    planes = [i for i in range(lat23.size) if lat23.dims[i] == 2]
    rep = paving_combo_report(paving_spec(lat23, 2, frozenset({planes[0]})),
                              paving_spec(lat23, 2, frozenset({planes[1]})),
                              Fraction(1, 2))
    assert rep.s0 is None
    ir = independence_report(rep.point, rep.mu)
    assert ir.independent == frozenset(range(lat23.size))
    assert ir.circuits == frozenset()
    assert classify(rep.point, rep.mu).is_mu_paving


# -- two uniform q-matroids --------------------------------------------

def test_two_uniform_formula_matches_direct(lat24):
    rng = random.Random(53)
    for _ in range(8):
        k1, k2 = 2, 3
        lam = random_lambda(rng)
        rep = two_uniform_combo_report(2, 4, k1, k2, lam, lattice=lat24)
        direct = convex_combination([(1 - lam, uniform(lat24, k1)),
                                     (lam, uniform(lat24, k2))])
        assert rep.point.values == direct.values


def test_two_uniform_theorem_instances(lat24, lat25):
    # mu >= ceil(n/k1) instances, oracle-confirmed
    cases = [
        (lat24, 2, 3, Fraction(1, 2)),   # mu=2 >= ceil(4/2)
        (lat24, 2, 3, Fraction(1, 3)),   # mu=3
        (lat25, 2, 3, Fraction(2, 3)),   # mu=3 >= ceil(5/2)
        (lat25, 2, 4, Fraction(1, 3)),
        (lat25, 3, 4, Fraction(1, 2)),   # mu=2 >= ceil(5/3)
    ]
    for lat, k1, k2, lam in cases:
        rep = two_uniform_combo_report(lat.q, lat.n, k1, k2, lam, lattice=lat)
        assert rep.predicts_all_independent
        ir = independence_report(rep.point, rep.mu)
        assert ir.independent == frozenset(range(lat.size))
        assert rep.all_independent


def test_two_uniform_counterexample_n8():
    # mu = 3 < ceil(8/2) and k1+k2 < n, yet everything is mu-independent
    rep = two_uniform_combo_report(2, 8, 2, 3, Fraction(2, 3))
    assert not rep.predicts_all_independent
    assert rep.all_independent
    assert all(v == Fraction(8, 3) for v in rep.values_by_dim[4:])
    assert rep.mu == 3


def test_two_uniform_flats_cyclic_flats(lat24):
    rep = two_uniform_combo_report(2, 4, 2, 3, Fraction(1, 2), lattice=lat24)
    # flats of the combo = flats of U_{k2}; cyclic = cyclic of U_{k1}
    assert flats(rep.point) == dims_set(lat24, lambda d: d in rep.flat_dims)
    assert cyclic_spaces(rep.point) == dims_set(lat24, lambda d: d in rep.cyclic_dims)
    assert cyclic_flats(rep.point) == dims_set(
        lat24, lambda d: d in rep.cyclic_flat_dims)


def test_two_uniform_validation():
    with pytest.raises(OutOfRange):
        two_uniform_combo_report(2, 4, 1, 3, Fraction(1, 2))
    with pytest.raises(OutOfRange):
        two_uniform_combo_report(2, 4, 2, 4, Fraction(1, 2))
    with pytest.raises(OutOfRange):
        two_uniform_combo_report(2, 4, 2, 3, Fraction(3, 2))


# -- flag of uniforms --------------------------------------------------

def test_flag_formula_matches_direct(lat25):
    rng = random.Random(61)
    for lambdas in ([Fraction(1, 3)] * 3,
                    [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)],
                    [Fraction(1, 5), Fraction(2, 5), Fraction(2, 5)]):
        rep = flag_uniform_combo(2, 5, lambdas, lattice=lat25)
        terms = [(lambdas[i], uniform(lat25, i + 2)) for i in range(3)]
        direct = convex_combination(terms)
        assert rep.point.values == direct.values
        assert check_axioms(rep.point).ok


def test_flag_theorem_oracle(lat25):
    # always: dims <= n-1 independent; mu >= ceil(n/2) gives everything
    for lambdas in ([Fraction(1, 3)] * 3,
                    [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)],
                    [Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)],
                    [Fraction(2, 5), Fraction(1, 5), Fraction(2, 5)],
                    [Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)]):
        rep = flag_uniform_combo(2, 5, lambdas, lattice=lat25)
        ir = independence_report(rep.point, rep.mu)
        low = dims_set(lat25, lambda d: d <= 4)
        assert low <= ir.independent
        if rep.predicts_all_independent:
            assert ir.independent == frozenset(range(lat25.size))
            assert rep.all_independent


def test_flag_validation():
    with pytest.raises(OutOfRange):
        flag_uniform_combo(2, 4, [Fraction(1, 2), Fraction(1, 2)])
    with pytest.raises(CoefficientSum):
        flag_uniform_combo(2, 5, [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)])
    with pytest.raises(OutOfRange):
        flag_uniform_combo(2, 5, [Fraction(1, 2), Fraction(1, 2)])


def test_profile_independence_matches_oracle(lat24):
    # grade-constant points: profile check == lattice brute force
    rng = random.Random(67)
    for _ in range(10):
        lam = random_lambda(rng)
        rep = two_uniform_combo_report(2, 4, 2, 3, lam, lattice=lat24)
        ir = independence_report(rep.point, rep.mu)
        by_profile = profile_independent_dims(rep.values_by_dim, rep.mu)
        assert ir.independent == dims_set(lat24, lambda d: d in by_profile)


# -- declarative specs -------------------------------------------------

def test_compile_spec_roundtrip(lat23):
    spec = {
        "kind": "combo",
        "coefficients": ["1/2", "1/2"],
        "terms": [
            {"kind": "uniform", "q": 2, "n": 3, "k": 2},
            {"kind": "paving", "q": 2, "n": 3, "k": 2,
             "spaces": [[[0, 1, 0], [0, 0, 1]]]},
        ],
    }
    point = compile_spec(spec)
    lat = point.lattice
    idx = lat.index_of_rows([(0, 1, 0), (0, 0, 1)])
    expected = convex_combination([
        (Fraction(1, 2), uniform(lat, 2)),
        (Fraction(1, 2), paving(paving_spec(lat, 2, frozenset({idx})))),
    ])
    assert point.values == expected.values


def test_combo_denominator():
    assert combo_denominator([Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]) == 6
    assert combo_denominator([Fraction(1), Fraction(2)]) == 1


def test_paving_combo_oracle_q3(lat33):
    # the closed forms are field-agnostic; spot-check over GF(3)
    rng = random.Random(83)
    planes = [i for i in range(lat33.size) if lat33.dims[i] == 2]
    for _ in range(5):
        p1, p2 = rng.sample(planes, 2)
        lam = random_lambda(rng)
        rep = paving_combo_report(paving_spec(lat33, 2, frozenset({p1})),
                                  paving_spec(lat33, 2, frozenset({p2})), lam)
        ir = independence_report(rep.point, rep.mu)
        assert ir.independent == rep.independent_prediction
        assert ir.circuits == rep.circuits_prediction
        assert flats(rep.point) == rep.flats_prediction
        assert cyclic_spaces(rep.point) == rep.cyclic_prediction
        assert cyclic_flats(rep.point) == rep.cyclic_flats_prediction
