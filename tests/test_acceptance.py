"""Acceptance suite: one test per criterion, each printing a PASS line
with its runtime.  Criterion 4 asserts the Euler-consistent f-vector
(6, 15, 18, 9) of P(2,2), not the published (6, 15, 19, 9): P(2,2) is
4-dimensional, and Euler's relation f0 - f1 + f2 - f3 = 0 with the
published f0 = 6, f1 = 15, f3 = 9 forces f2 = 18 (see
tests/test_polytope.py::test_f_vector_22_computed).
"""

import hashlib
import random
import time
from fractions import Fraction

from helpers import random_disjoint_paving_pair, random_lambda
from qrank.charpoly import TruncatedPuiseux, char_puiseux, paving_combo_char
from qrank.codes import (code_metrics, gabidulin_line_code,
                         induced_polymatroid, mrd_closed_form,
                         vertex_example_code)
from qrank.constructions import (convex_combination, flag_uniform_combo,
                                 paving, paving_combo_report, paving_spec,
                                 two_uniform_combo_report, uniform)
from qrank.polytope import (affine_dimension, build_hrep, enumerate_vertices,
                            f_vector, interior_witness, is_vertex,
                            lattice_points, membership)
from qrank.rankfun import (check_axioms, cyclic_flats, cyclic_spaces, flats,
                           independence_report, rank_point)

PAPER_POINTS_22 = {
    (0, 0, 0, 0, 0), (0, 1, 1, 1, 1), (0, 1, 1, 1, 2),
    (0, 1, 1, 0, 1), (0, 1, 0, 1, 1), (0, 0, 1, 1, 1),
}


class _Timer:
    def __init__(self, criterion, limit_s):
        self.criterion = criterion
        self.limit = limit_s

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{status} criterion {self.criterion} ({elapsed:.2f}s, "
              f"limit {self.limit}s)")
        if exc_type is None:
            assert elapsed < self.limit, (
                f"criterion {self.criterion} exceeded {self.limit}s")
        return False


def test_criterion_1_lattice_points_2_2(lat22):
    with _Timer(1, 1.0):
        pts = lattice_points(lat22)
        assert {tuple(int(v) for v in p.values) for p in pts} == PAPER_POINTS_22


def test_criterion_2_polytope_3_2(lat32):
    with _Timer(2, 60.0):
        H = build_hrep(lat32)
        assert affine_dimension(H) == 5
        pts = lattice_points(lat32)
        assert len(pts) == 7
        assert all(membership(H, p).status != "interior" for p in pts)
        assert len(enumerate_vertices(H)) == 11


def test_criterion_3_polytope_2_3(lat23):
    with _Timer(3, 300.0):
        H = build_hrep(lat23)
        assert affine_dimension(H) == 15
        pts = lattice_points(lat23)
        assert len(pts) == 32
        for p in pts:
            assert membership(H, p).status != "interior"
            assert is_vertex(H, p).is_vertex


def test_criterion_3_long_vertex_count_2_3(lat23):
    with _Timer("3 (long)", 3600.0):
        H = build_hrep(lat23)
        verts = enumerate_vertices(H)
        assert len(verts) == 3483
        # the text of qrank polytope vertices --q 2 --n 3, byte for byte
        text = "".join(" ".join(str(v) for v in p.values) + "\n" for p in verts)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "c2a0bf7bb434cb4d1ee5f5fe22249df7f428d9ffc89ec5b699eb346d2ddabfe5")
        vset = {tuple(p.values) for p in verts}
        for p in lattice_points(lat23):
            assert tuple(p.values) in vset


def test_criterion_4_f_vector_2_2(lat22):
    # The published value (6, 15, 19, 9) is not asserted: its alternating
    # sum is 1, but Euler's relation for a 4-polytope needs 0, so f2 = 18.
    with _Timer(4, 10.0):
        assert f_vector(build_hrep(lat22)) == (6, 15, 18, 9)


def test_criterion_5_interior_witness(lat22, lat32, lat23):
    with _Timer(5, 1.0):
        for lat in (lat22, lat32, lat23):
            H = build_hrep(lat)
            assert membership(H, interior_witness(lat)).status == "interior"


def test_criterion_6_char_puiseux_example(lat23):
    with _Timer(6, 1.0):
        u = uniform(lat23, 2)
        chi1 = char_puiseux(u)
        assert chi1 == TruncatedPuiseux.from_terms([(2, 1), (1, -7), (0, 6)])
        s = frozenset({lat23.index_of_rows([(0, 1, 0), (0, 0, 1)])})
        ms = paving(paving_spec(lat23, 2, s))
        chi2 = char_puiseux(ms)
        assert chi2 == TruncatedPuiseux.from_terms([(2, 1), (1, -5), (0, 4)])
        lam = Fraction(1, 2)
        combo = convex_combination([(lam, u), (1 - lam, ms)])
        chim = char_puiseux(combo)
        assert chim == TruncatedPuiseux.from_terms(
            [(2, 1), (1, -7), (0, 4), (Fraction(1, 2), 2)])
        assert paving_combo_char(chi1, (0, 1), 2, 2, lam, via=1) == chim
        assert paving_combo_char(chi2, (0, 1), 2, 2, lam, via=2) == chim


def test_criterion_7_paving_combo_property_suite(lat23, lat24):
    # 200 randomized instances at q=2, n in {3, 4}; the closed forms of
    # the cyclic sets require loopless inputs, i.e. k >= 2 (see ledger)
    with _Timer(7, 600.0):
        rng = random.Random(2024)
        boards = [(lat23, (2,)), (lat24, (2, 3))]
        for trial in range(200):
            lat, ks = boards[trial % 2]
            k = rng.choice(ks)
            s1, s2 = random_disjoint_paving_pair(rng, lat, k)
            lam = random_lambda(rng)
            rep = paving_combo_report(paving_spec(lat, k, s1),
                                      paving_spec(lat, k, s2), lam)
            ir = independence_report(rep.point, rep.mu)
            assert ir.independent == rep.independent_prediction
            assert ir.circuits == rep.circuits_prediction
            assert flats(rep.point) == rep.flats_prediction
            assert cyclic_spaces(rep.point) == rep.cyclic_prediction
            assert cyclic_flats(rep.point) == rep.cyclic_flats_prediction


def test_criterion_8_two_uniform_suite(lat24, lat25):
    with _Timer(8, 600.0):
        everything = {}
        for lat in (lat24, lat25):
            everything[lat.n] = frozenset(range(lat.size))
        # (a) mu >= ceil(n/k1): five instances, oracle-checked
        cases_a = [
            (lat24, 2, 3, Fraction(1, 2)),
            (lat24, 2, 3, Fraction(1, 3)),
            (lat25, 2, 3, Fraction(2, 3)),
            (lat25, 2, 4, Fraction(1, 3)),
            (lat25, 3, 4, Fraction(1, 2)),
        ]
        for lat, k1, k2, lam in cases_a:
            rep = two_uniform_combo_report(lat.q, lat.n, k1, k2, lam, lattice=lat)
            assert rep.mu >= -(-lat.n // k1)
            ir = independence_report(rep.point, rep.mu)
            assert ir.independent == everything[lat.n]
        # (b) k1 + k2 >= n: five instances (two with mu below ceil(n/k1))
        cases_b = [
            (lat25, 2, 3, Fraction(1, 2)),
            (lat25, 2, 4, Fraction(1, 2)),
            (lat25, 3, 4, Fraction(1, 5)),
            (lat24, 2, 3, Fraction(2, 5)),
            (lat24, 2, 3, Fraction(1, 6)),
        ]
        for lat, k1, k2, lam in cases_b:
            assert k1 + k2 >= lat.n
            rep = two_uniform_combo_report(lat.q, lat.n, k1, k2, lam, lattice=lat)
            ir = independence_report(rep.point, rep.mu)
            assert ir.independent == everything[lat.n]
        # (c) flag of n-2 uniforms with mu >= ceil(n/2): five instances
        flags = [
            [Fraction(1, 3)] * 3,
            [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)],
            [Fraction(1, 5), Fraction(2, 5), Fraction(2, 5)],
            [Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)],
            [Fraction(2, 5), Fraction(1, 5), Fraction(2, 5)],
        ]
        for lambdas in flags:
            rep = flag_uniform_combo(2, 5, lambdas, lattice=lat25)
            assert rep.mu >= 3
            ir = independence_report(rep.point, rep.mu)
            assert ir.independent == everything[5]
        # (d) the counterexample: neither hypothesis, still independent
        rep = two_uniform_combo_report(2, 8, 2, 3, Fraction(2, 3))
        assert rep.mu == 3 and not rep.predicts_all_independent
        assert rep.all_independent
        assert all(v == Fraction(8, 3) for v in rep.values_by_dim[4:])


def test_criterion_9_codes_suite(lat23):
    with _Timer(9, 30.0):
        H = build_hrep(lat23)
        C = vertex_example_code()
        met = code_metrics(C)
        assert (met.k, met.d) == (3, 1)
        p = induced_polymatroid(C, lat23)
        assert sorted(p.grade_values(1)) == sorted(
            [Fraction(1, 2)] * 2 + [Fraction(1)] * 5)
        assert sorted(p.grade_values(2)) == sorted(
            [Fraction(1)] * 2 + [Fraction(3, 2)] * 5)
        assert list(p.grade_values(3)) == [Fraction(3, 2)]
        assert is_vertex(H, p).is_vertex
        # the MRD-shaped point (1, ..., 1, 3/2, ..., 3/2) is not a vertex
        mrd_point = rank_point(
            lat23, [0] + [1] * 7 + [Fraction(3, 2)] * 8)
        assert not is_vertex(H, mrd_point).is_vertex
        # the derived [3x2, 3, 2] MRD code matches the closed form
        G = gabidulin_line_code()
        gm = code_metrics(G)
        assert (gm.k, gm.d, gm.is_mrd) == (3, 2, True)
        assert induced_polymatroid(G, lat23).values == \
            mrd_closed_form(lat23, 2, 2).values == mrd_point.values


def test_criterion_10_global_invariants(lat23):
    with _Timer(10, 600.0):
        rng = random.Random(77)
        pts = lattice_points(lat23)
        generated = list(pts)
        generated.append(uniform(lat23, 2))
        s = frozenset({lat23.index_of_rows([(0, 1, 0), (0, 0, 1)])})
        generated.append(paving(paving_spec(lat23, 2, s)))
        combos = []
        for _ in range(20):
            m1, m2 = rng.sample(pts, 2)
            lam = random_lambda(rng)
            combos.append((m1, m2, lam,
                           convex_combination([(lam, m1), (1 - lam, m2)])))
        generated.extend(c for _, _, _, c in combos)
        # axioms and chi(1) = 0 on every generated point
        for p in generated:
            assert check_axioms(p).ok
            assert char_puiseux(p).eval_at_one() == 0
        # convexity of midpoints
        H = build_hrep(lat23)
        for _ in range(30):
            a, b = rng.sample(generated, 2)
            mid = rank_point(lat23,
                             [(x + y) / 2 for x, y in zip(a.values, b.values)])
            assert membership(H, mid).status != "outside"
        # I_1 u I_2 <= I_mu on all combos
        for m1, m2, lam, combo in combos:
            i1 = independence_report(m1, 1).independent
            i2 = independence_report(m2, 1).independent
            imu = independence_report(combo, lam.denominator).independent
            assert i1 | i2 <= imu
