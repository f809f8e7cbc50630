import random
from collections import Counter
from fractions import Fraction

import pytest

from qrank.codes import (code_from_json,
                         code_metrics, code_to_json, dual_code,
                         expanded_matrix_code, gabidulin_line_code,
                         induced_polymatroid, load_code, matrix_code,
                         minimum_distance, mrd_closed_form,
                         mrd_combo_independence, shortening_dim, vector_code,
                         vector_code_qmatroid, vertex_example_code)
from qrank.constructions import convex_combination, uniform
from qrank.errors import (HypothesisFail, LatticeMismatch, OutOfRange,
                          UnsupportedShape, ValidationError, ZeroCode)
from qrank.fields import FqMatrix, make_field, rref
from qrank.polytope import build_hrep, is_vertex
from qrank.rankfun import check_axioms, independence_report, principal_denominator
from qrank.subspaces import build_lattice

from helpers import reference_vector_code_ranks


def grade_multiset(point, d):
    return sorted(Counter(str(v) for v in point.grade_values(d)).items())


def test_vertex_example_metrics():
    C = vertex_example_code()
    met = code_metrics(C)
    assert (met.k, met.d) == (3, 1)
    assert not met.is_mrd
    D = dual_code(C)
    assert C.k + D.k == C.n * C.m
    # the trace form really annihilates: sum of entrywise products is 0
    F = C.field
    for G in C.generators:
        for Gd in D.generators:
            acc = 0
            for r1, r2 in zip(G.entries, Gd.entries):
                for a, b in zip(r1, r2):
                    acc = F.add(acc, F.mul(a, b))
            assert acc == 0


def test_vertex_example_point(lat23):
    C = vertex_example_code()
    p = induced_polymatroid(C, lat23)
    assert check_axioms(p).ok
    assert grade_multiset(p, 1) == [("1", 5), ("1/2", 2)]
    assert grade_multiset(p, 2) == [("1", 2), ("3/2", 5)]
    assert grade_multiset(p, 3) == [("3/2", 1)]
    H = build_hrep(lat23)
    assert is_vertex(H, p).is_vertex


def test_shortening_extremes(lat23):
    C = vertex_example_code()
    assert shortening_dim(C, lat23, lat23.zero) == C.k
    assert shortening_dim(C, lat23, lat23.top) == 0


def test_gabidulin_line_is_mrd(lat23):
    G = gabidulin_line_code()
    met = code_metrics(G)
    assert (met.k, met.d) == (3, 2)
    assert met.is_mrd
    induced = induced_polymatroid(G, lat23)
    closed = mrd_closed_form(lat23, 2, 2)
    assert induced.values == closed.values
    # not a vertex: the uniform-profile MRD point sits on a low face
    H = build_hrep(lat23)
    cert = is_vertex(H, induced)
    assert not cert.is_vertex


def test_mrd_closed_form_shapes(lat23):
    assert mrd_closed_form(lat23, 4, 2).values == uniform(lat23, 2).values
    assert mrd_closed_form(lat23, 3, 1).values == uniform(lat23, 3).values
    p = mrd_closed_form(lat23, 2, 2)
    assert principal_denominator(p) in (1, 2)  # divides n-1 = 2
    with pytest.raises(UnsupportedShape):
        mrd_closed_form(lat23, 1, 1)
    with pytest.raises(OutOfRange):
        mrd_closed_form(lat23, 2, 5)


def test_shortening_rank_bounds(lat23):
    # rho(U) = k/m for dim U > n - d, rho(U) = dim U for dim U < d_perp
    for C in (vertex_example_code(), gabidulin_line_code()):
        met = code_metrics(C)
        p = induced_polymatroid(C, lat23)
        for u in range(lat23.size):
            du = lat23.dims[u]
            if du > C.n - met.d:
                assert p.values[u] == Fraction(C.k, C.m)
            if du < met.d_perp:
                assert p.values[u] == du


def test_zero_code_and_validation(lat23):
    F2 = make_field(2)
    Z = matrix_code(F2, 3, 2, [])
    with pytest.raises(ZeroCode):
        minimum_distance(Z)
    assert induced_polymatroid(Z, lat23).values == uniform(lat23, 0).values
    with pytest.raises(ValidationError):
        matrix_code(F2, 3, 2, [FqMatrix.zero(F2, 3, 2)])
    g = FqMatrix.from_rows(F2, [(1, 0), (0, 0), (0, 0)])
    with pytest.raises(ValidationError):
        matrix_code(F2, 3, 2, [g, g])


def test_duality_random_small_codes():
    rng = random.Random(101)
    for q, n, m in [(2, 2, 2), (2, 3, 2), (3, 2, 2), (2, 2, 3)]:
        F = make_field(q)
        nm = n * m
        for _ in range(6):
            k = rng.randrange(0, nm + 1)
            rows = []
            while True:
                rows = [tuple(rng.randrange(q) for _ in range(nm))
                        for _ in range(k)]
                from qrank.fields import rref
                if k == 0 or rref(FqMatrix.from_rows(F, rows, nm)).rank == k:
                    break
            gens = [FqMatrix.from_rows(F, [r[i * m:(i + 1) * m] for i in range(n)], m)
                    for r in rows]
            C = matrix_code(F, n, m, gens)
            D = dual_code(C)
            assert C.k + D.k == nm
            DD = dual_code(D)
            span = {w for w in C.codewords()}
            span_dd = {w for w in DD.codewords()}
            assert span == span_dd


def test_induced_polymatroid_always_valid(lat22, lat23):
    rng = random.Random(103)
    from qrank.fields import rref
    for lat, m in [(lat22, 2), (lat23, 2), (lat22, 3)]:
        q, n = lat.q, lat.n
        F = make_field(q)
        for _ in range(8):
            k = rng.randrange(1, min(n * m, 5) + 1)
            rows = [tuple(rng.randrange(q) for _ in range(n * m)) for _ in range(k)]
            mat = rref(FqMatrix.from_rows(F, rows, n * m)).matrix
            gens = [FqMatrix.from_rows(F, [r[i * m:(i + 1) * m] for i in range(n)], m)
                    for r in mat.entries]
            if not gens:
                continue
            C = matrix_code(F, n, m, gens)
            p = induced_polymatroid(C, lat)
            assert check_axioms(p).ok
            assert p.values[lat.zero] == 0


def test_mrd_combo_example(lat25):
    rep = mrd_combo_independence(5, 3, 2, Fraction(1, 2), lattice=lat25)
    assert (rep.k1, rep.k2, rep.mu) == (10, 15, 8)
    assert rep.all_independent
    ir = independence_report(rep.point, rep.mu)
    assert ir.independent == frozenset(range(lat25.size))
    assert check_axioms(rep.point).ok


@pytest.mark.parametrize("d1,d2,lam", [(3, 2, Fraction(1, 2)),
                                       (4, 2, Fraction(1, 3)),
                                       (4, 3, Fraction(3, 4))])
def test_mrd_combo_point_is_the_combination_of_mrd_points(lat25, d1, d2, lam):
    # the second (higher rank) term is weighed by lam
    rep = mrd_combo_independence(5, d1, d2, lam, lattice=lat25)
    assert rep.point == convex_combination([
        (1 - lam, mrd_closed_form(lat25, 4, d1)),
        (lam, mrd_closed_form(lat25, 4, d2))])


def test_mrd_combo_more_instances():
    # profile-only instances with the hypothesis chain satisfied
    for n, d1, d2, lam in [(5, 3, 2, Fraction(1, 3)),
                           (5, 4, 2, Fraction(2, 3)),
                           (6, 4, 3, Fraction(1, 2)),
                           (7, 5, 3, Fraction(1, 4))]:
        rep = mrd_combo_independence(n, d1, d2, lam)
        assert rep.all_independent


def test_mrd_combo_hypothesis_fail():
    with pytest.raises(HypothesisFail):
        mrd_combo_independence(5, 4, 4, Fraction(1, 2))  # k1 == k2
    with pytest.raises(HypothesisFail):
        mrd_combo_independence(3, 2, 2, Fraction(1, 2))


def test_vector_code_basics(lat22):
    full = vector_code(2, 3, 2, [(1, 0), (0, 1)])
    p = vector_code_qmatroid(full, lat22)
    assert p.values == uniform(lat22, 2).values
    zero = vector_code(2, 3, 2, [])
    assert vector_code_qmatroid(zero, lat22).values == uniform(lat22, 0).values
    line = vector_code(2, 3, 2, [(1, 2)])  # the F_8-line through (1, t)
    pl = vector_code_qmatroid(line, lat22)
    assert pl.values == uniform(lat22, 1).values
    assert pl.is_integral()


def test_vector_code_with_loop(lat22):
    # generator (1, 1): the line <(1,1)> of F_2^2 becomes a loop
    vc = vector_code(2, 3, 2, [(1, 1)])
    p = vector_code_qmatroid(vc, lat22)
    assert p.rank == 1
    loop = lat22.index_of_rows([(1, 1)])
    assert p.values[loop] == 0


def test_expansion_correspondence(lat23):
    # expanding the F_8-line gives the derived MRD code; shapes swap
    vc = vector_code(2, 3, 2, [(1, 2)])
    C = expanded_matrix_code(vc)
    assert (C.n, C.m, C.k) == (3, 2, 3)
    assert code_metrics(C).is_mrd
    assert induced_polymatroid(C, lat23).values == mrd_closed_form(lat23, 2, 2).values


def test_code_json_roundtrip(tmp_path):
    C = vertex_example_code()
    obj = code_to_json(C)
    back = code_from_json(obj)
    assert back.generators == C.generators
    path = tmp_path / "code.json"
    import json
    path.write_text(json.dumps(obj))
    assert load_code(path).generators == C.generators


def _random_code(rng, field, n, m, k):
    """A seeded code of k independent n x m generators over the field."""
    nm = n * m
    while True:
        rows = [tuple(rng.randrange(field.q) for _ in range(nm)) for _ in range(k)]
        if rref(FqMatrix.from_rows(field, rows, nm)).rank == k:
            break
    return matrix_code(field, n, m, [
        FqMatrix.from_rows(field, [r[i * m:(i + 1) * m] for i in range(n)], m)
        for r in rows])


@pytest.mark.parametrize("q,n,m", [(2, 3, 2), (2, 4, 2), (3, 3, 2),
                                   (4, 3, 2), (4, 2, 3)])
def test_induced_polymatroid_is_its_definition(q, n, m):
    # the prefix recursion against shortening_dim, one subspace at a
    # time, from the zero code to the whole space F_q^{n x m}
    lat = build_lattice(q, n)
    F = make_field(q)
    rng = random.Random(100 * q + 10 * n + m)
    for k in (0, 1, 2, 3, n * m - 1, n * m):
        for _ in range(2):
            C = _random_code(rng, F, n, m, k)
            assert induced_polymatroid(C, lat).values == tuple(
                Fraction(k - shortening_dim(C, lat, u), m)
                for u in range(lat.size))
    # the whole space induces v_U = dim U
    assert induced_polymatroid(C, lat).values == uniform(lat, n).values
    with pytest.raises(LatticeMismatch):
        induced_polymatroid(C, build_lattice(q, n + 1))


@pytest.mark.parametrize("q,m,n", [(2, 2, 3), (2, 3, 3), (3, 2, 3), (2, 2, 4)])
def test_vector_code_qmatroid_matches_per_subspace_rref(q, m, n):
    lat = build_lattice(q, n)
    rng = random.Random(100 * q + 10 * m + n)
    for k in range(n + 1):
        for _ in range(3):
            while True:
                gens = [tuple(rng.randrange(q ** m) for _ in range(n))
                        for _ in range(k)]
                try:
                    V = vector_code(q, m, n, gens)
                    break
                except ValidationError:  # dependent generators: draw again
                    continue
            assert vector_code_qmatroid(V, lat).values == tuple(
                Fraction(r) for r in reference_vector_code_ranks(V, lat))
    with pytest.raises(LatticeMismatch):
        vector_code_qmatroid(V, build_lattice(q, n + 1))
