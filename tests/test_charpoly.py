import random
from fractions import Fraction

from qrank.charpoly import (TruncatedPuiseux, char_puiseux, moebius,
                            paving_combo_char)
from qrank.constructions import (convex_combination, paving,
                                 paving_combo_report, paving_spec, uniform)
from qrank.fields import FqMatrix, rref
from qrank.rankfun import rank_point

from helpers import puiseux_from_pairs


def test_moebius_values():
    assert moebius(0, 2) == 1
    assert moebius(1, 5) == -1
    assert moebius(2, 2) == 2
    assert moebius(3, 2) == -8
    assert moebius(2, 3) == 3
    # oracle: Moebius sum over any interval [0, E] vanishes
    for q, n in [(2, 2), (2, 3), (3, 2)]:
        from qrank.subspaces import gaussian_binomial
        total = sum(moebius(d, q) * gaussian_binomial(n, d, q)
                    for d in range(n + 1))
        assert total == 0


def test_puiseux_arithmetic():
    f = TruncatedPuiseux.from_terms([(2, 1), (1, -7), (0, 6)])
    g = TruncatedPuiseux.from_terms([(0, -6), (1, 7), (2, -1)])
    assert (f + g) == TruncatedPuiseux.zero()
    assert f.scale(2).coefficient(1) == -14
    assert f - f == TruncatedPuiseux.zero()
    assert str(TruncatedPuiseux.zero()) == "0"
    h = TruncatedPuiseux.from_terms([(Fraction(1, 2), 2), (0, -2)])
    assert str(h) == "2*t^(1/2) - 2"
    assert h.eval_at_one() == 0
    # like exponents collapse, zero coefficients vanish
    z = TruncatedPuiseux.from_terms([(1, 3), (1, -3), (0, 5)])
    assert z.terms == ((Fraction(0), 5),)


def test_serialization_roundtrip():
    f = TruncatedPuiseux.from_terms([(Fraction(1, 2), 2), (2, 1), (1, -7), (0, 4)])
    pairs = f.to_pairs()
    assert puiseux_from_pairs(pairs) == f


def test_worked_example(lat23):
    u = uniform(lat23, 2)
    chi1 = char_puiseux(u)
    assert chi1 == TruncatedPuiseux.from_terms([(2, 1), (1, -7), (0, 6)])
    s = frozenset({lat23.index_of_rows([(0, 1, 0), (0, 0, 1)])})
    ms = paving(paving_spec(lat23, 2, s))
    chi2 = char_puiseux(ms)
    assert chi2 == TruncatedPuiseux.from_terms([(2, 1), (1, -5), (0, 4)])
    for lam in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)):
        combo = convex_combination([(lam, u), (1 - lam, ms)])
        chim = char_puiseux(combo)
        expect = TruncatedPuiseux.from_terms(
            [(2, 1), (1, -7), (0, 4), (1 - lam, 2)])
        assert chim == expect
        assert paving_combo_char(chi1, (0, 1), 2, 2, lam, via=1) == chim
        assert paving_combo_char(chi2, (0, 1), 2, 2, lam, via=2) == chim


def test_closed_form_matches_direct_randomized(lat23, lat24):
    from helpers import random_disjoint_paving_pair, random_lambda
    rng = random.Random(71)
    for lat, k_choices in [(lat23, (2,)), (lat24, (2, 3))]:
        for _ in range(12):
            k = rng.choice(k_choices)
            s1, s2 = random_disjoint_paving_pair(rng, lat, k)
            lam = random_lambda(rng)
            rep = paving_combo_report(paving_spec(lat, k, s1),
                                      paving_spec(lat, k, s2), lam)
            direct = char_puiseux(rep.point)
            chi1 = char_puiseux(paving(paving_spec(lat, k, s1)))
            chi2 = char_puiseux(paving(paving_spec(lat, k, s2)))
            sizes = (len(s1), len(s2))
            assert paving_combo_char(chi1, sizes, k, lat.q, lam, via=1) == direct
            assert paving_combo_char(chi2, sizes, k, lat.q, lam, via=2) == direct
            assert direct.eval_at_one() == 0


def test_exponent_range_and_integrality(lat23, lat32):
    from qrank.polytope import lattice_points
    for lat in (lat23, lat32):
        for p in lattice_points(lat):
            chi = char_puiseux(p)
            assert chi.eval_at_one() == 0
            assert all(isinstance(c, int) for _, c in chi.terms)
            if p.rank > 0 and not any(
                    p.values[a] == 0 for a in lat.atom_range):
                assert chi.min_exponent() == 0
                assert chi.max_exponent() == p.rank


def test_rank_zero_polynomial_vanishes(lat22):
    assert char_puiseux(uniform(lat22, 0)) == TruncatedPuiseux.zero()


def _lattice_automorphism(lat, mat):
    """Index permutation induced by the invertible matrix acting on rows."""
    perm = []
    for sub in lat.subspaces:
        if sub.dim == 0:
            perm.append(0)
            continue
        rows = [tuple(mat.field.dot(r, col) for col in mat.transpose().entries)
                for r in sub.basis.entries]
        perm.append(lat.index_of_rows(rows))
    return perm


def test_isomorphism_invariance(lat23):
    rng = random.Random(73)
    F = lat23.field
    from qrank.polytope import lattice_points
    pts = lattice_points(lat23)
    # a handful of invertible matrices over F_2^3
    mats = []
    while len(mats) < 4:
        rows = [tuple(rng.randrange(2) for _ in range(3)) for _ in range(3)]
        M = FqMatrix.from_rows(F, rows, 3)
        if rref(M).rank == 3:
            mats.append(M)
    for M in mats:
        perm = _lattice_automorphism(lat23, M)
        assert sorted(perm) == list(range(lat23.size))
        for p in pts[:10]:
            vals = [None] * lat23.size
            for i, v in enumerate(p.values):
                vals[perm[i]] = v
            q = rank_point(lat23, vals)
            assert char_puiseux(q) == char_puiseux(p)
