import math
import random
from itertools import product

import pytest

from qrank import fields, subspaces
from qrank.errors import OutOfRange, TooLarge
from qrank.fields import FqMatrix, make_field, matrix_vectors, rref
from qrank.polytope import build_hrep
from qrank.subspaces import build_lattice, gaussian_binomial

from helpers import reference_pairs, reference_rows, span_containment_order


def _brute_count_subspaces(q, n, l):
    """Count l-dim subspaces by collecting RREF forms of all l-tuples."""
    F = make_field(q)
    seen = set()
    vectors = list(product(range(q), repeat=n))
    for rows in product(vectors, repeat=l):
        M = FqMatrix.from_rows(F, rows, n)
        res = rref(M)
        if res.rank == l:
            seen.add(res.matrix.entries)
    return len(seen)


@pytest.mark.parametrize("q,n,l,expect", [
    (2, 2, 1, 3),
    (2, 3, 1, 7),
    (2, 3, 2, 7),
    (3, 2, 1, 4),
    (4, 2, 1, 5),
])
def test_gaussian_binomial_against_brute_force(q, n, l, expect):
    assert gaussian_binomial(n, l, q) == expect
    assert _brute_count_subspaces(q, n, l) == expect


def test_gaussian_binomial_edges():
    assert gaussian_binomial(5, 0, 3) == 1
    assert gaussian_binomial(5, 5, 3) == 1
    with pytest.raises(OutOfRange):
        gaussian_binomial(3, 4, 2)


@pytest.mark.parametrize("q,n,total", [(2, 2, 5), (3, 2, 6), (2, 3, 16), (2, 4, 67)])
def test_lattice_sizes(q, n, total):
    lat = build_lattice(q, n)
    assert lat.size == total
    for l in range(n + 1):
        assert len(lat.grade(l)) == gaussian_binomial(n, l, q)


def test_lattice_cap():
    with pytest.raises(TooLarge):
        build_lattice(2, 6)
    # override works
    assert build_lattice(2, 2, max_size=5).size == 5


def test_linear_order_matches_grades_and_lex(lat22):
    # paper's running order on F_2^2: <0>, <01>, <10>, <11>, E
    assert [s.basis.entries for s in lat22.subspaces] == [
        (), ((0, 1),), ((1, 0),), ((1, 1),), ((1, 0), (0, 1))]
    assert lat22.dims == (0, 1, 1, 1, 2)


def test_canonicalization_order_independent(lat23):
    rng = random.Random(5)
    F = lat23.field
    for i, sub in enumerate(lat23.subspaces):
        if sub.dim == 0:
            continue
        rows = list(sub.basis.entries)
        # random row operations: shuffle and add one row to another
        rng.shuffle(rows)
        if len(rows) > 1:
            a, b = rng.sample(range(len(rows)), 2)
            rows[a] = tuple(F.add(x, y) for x, y in zip(rows[a], rows[b]))
        assert lat23.index_of_rows(rows) == i


def test_meet_join_basics(lat22, lat23):
    for i in range(lat22.size):
        assert lat22.meet(i, i) == i and lat22.join(i, i) == i
    # two distinct lines in F_2^2 meet at 0 and join to E
    a, b = list(lat22.atom_range)[:2]
    assert lat22.meet(a, b) == lat22.zero
    assert lat22.join(a, b) == lat22.top
    # <e1> vs <e1+e2, e3> in F_2^3
    x = lat23.index_of_rows([(1, 0, 0)])
    y = lat23.index_of_rows([(1, 1, 0), (0, 0, 1)])
    assert lat23.meet(x, y) == lat23.zero
    assert lat23.join(x, y) == lat23.top


@pytest.mark.parametrize("q,n", [(2, 2), (2, 3), (3, 2)])
def test_modular_law_all_pairs(q, n):
    lat = build_lattice(q, n)
    for i in range(lat.size):
        for j in range(lat.size):
            m, v = lat.meet(i, j), lat.join(i, j)
            assert lat.dims[i] + lat.dims[j] == lat.dims[m] + lat.dims[v]
            assert lat.leq(m, i) and lat.leq(m, j)
            assert lat.leq(i, v) and lat.leq(j, v)


def _meet_join_by_rref(lat, i, j):
    """Oracle: the meet is the RREF of the vectors the two spaces share,
    the join the RREF of their stacked bases."""
    bi, bj = lat.subspaces[i].basis, lat.subspaces[j].basis
    common = set(matrix_vectors(bi)) & set(matrix_vectors(bj))
    meet = lat.index_of_rows([v for v in common if any(v)])
    join = lat.index_of_rows(list(bi.entries + bj.entries))
    return meet, join


def test_meet_join_agree_with_vector_sets(lat24, lat33, lat43, lat25):
    # every pair of the smaller lattices, L(F_4^3) over a field that is
    # not prime among them, and a seeded sample of the largest
    rng = random.Random(11)
    sample = [(rng.randrange(lat25.size), rng.randrange(lat25.size))
              for _ in range(2000)]
    for lat, pairs in ((lat24, product(range(lat24.size), repeat=2)),
                       (lat33, product(range(lat33.size), repeat=2)),
                       (lat43, product(range(lat43.size), repeat=2)),
                       (lat25, sample)):
        for i, j in pairs:
            assert (lat.meet(i, j), lat.join(i, j)) == _meet_join_by_rref(lat, i, j)


def test_incomparable_table_agrees_with_vector_sets(lat24, lat33, lat43):
    # the reference pair rows and the diamonds, L(F_4^3) over a field
    # that is not prime among them
    for lat in (lat24, lat33, lat43):
        expected = tuple((x, y) + _meet_join_by_rref(lat, x, y)
                         for x in range(lat.size)
                         for y in range(x + 1, lat.size)
                         if not lat.leq(x, y) and not lat.leq(y, x))
        assert reference_pairs(lat) == expected
        dims = lat.dims
        assert lat.diamonds == tuple(
            row for row in expected
            if dims[row[0]] == dims[row[1]] == dims[row[2]] + 1)


def test_pair_tables_share_one_int_per_index(lat25):
    # 374 spaces, past the small ints that CPython shares anyway
    table = lat25.diamonds
    assert len({id(i) for row in table for i in row}) <= lat25.size


def test_incomparable_table_size_25(lat25):
    pairs = reference_pairs(lat25)
    assert len(pairs) == 64_356
    # H's pair rows are its last 64,356, after the cover rows
    rows = reference_rows(lat25)
    start = len(build_hrep(lat25).rows) - 64_356
    assert rows[start:] == pairs
    assert rows[start - 1][1] == lat25.size


@pytest.mark.parametrize("fixture", ["lat22", "lat32", "lat23", "lat33",
                                     "lat24", "lat25"])
def test_diamonds_are_the_pairs_covering_their_meet(fixture, request):
    # the diamond table keeps the pair block's order and entries
    lat = request.getfixturevalue(fixture)
    dims = lat.dims
    assert lat.diamonds == tuple(
        row for row in reference_pairs(lat)
        if dims[row[0]] == dims[row[1]] == dims[row[2]] + 1)
    for x, y, m, j in lat.diamonds:
        assert m in lat.covers_down[x] and m in lat.covers_down[y]
        assert x in lat.covers_down[j] and y in lat.covers_down[j]


def test_diamond_counts():
    # sum over the grades k of [n k]_q * C([n-k 1]_q, 2)
    for (q, n), count in (((2, 5), 7_440), ((3, 4), 4_680)):
        lat = build_lattice(q, n)
        expected = sum(gaussian_binomial(n, k, q)
                       * math.comb(gaussian_binomial(n - k, 1, q), 2)
                       for k in range(n))
        assert len(lat.diamonds) == expected == count


def test_covers(lat23):
    for y in range(lat23.size):
        for x in lat23.covers_down[y]:
            assert lat23.leq(x, y) and lat23.dims[y] == lat23.dims[x] + 1
    # E in F_2^3 covers the 7 planes
    assert len(lat23.covers_down[lat23.top]) == 7


def test_boundary_sets(lat22, lat23):
    # the hyperplanes and the atoms of a subspace
    a = next(iter(lat22.atom_range))
    assert lat22.covers_down[a] == (lat22.zero,) and lat22.atoms_of[a] == (a,)
    assert len(lat22.covers_down[lat22.top]) == 3
    assert len(lat22.atoms_of[lat22.top]) == 3
    assert len(lat23.covers_down[lat23.top]) == 7


@pytest.mark.parametrize("q,n", [(2, 2), (2, 3), (3, 2), (2, 4)])
def test_orthogonal_complement_involution(q, n):
    lat = build_lattice(q, n)
    assert lat.orthogonal_complement(lat.zero) == lat.top
    assert lat.orthogonal_complement(lat.top) == lat.zero
    for i in range(lat.size):
        c = lat.orthogonal_complement(i)
        assert lat.dims[i] + lat.dims[c] == n
        assert lat.orthogonal_complement(c) == i
    # inclusion-reversing
    for i in range(lat.size):
        for j in range(lat.size):
            if lat.leq(i, j):
                assert lat.leq(lat.orthogonal_complement(j),
                               lat.orthogonal_complement(i))


def test_self_orthogonal_line(lat22):
    i = lat22.index_of_rows([(1, 1)])
    assert lat22.orthogonal_complement(i) == i


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (2, 3), (4, 3)])
def test_zero_space_is_the_empty_basis(q, n):
    # grade 0 of the RREF enumeration is the one empty basis, and no
    # rows, or only zero rows, span the zero space at index 0
    lat = build_lattice(q, n)
    assert lat.subspaces[0].basis.entries == ()
    assert lat.index_of_rows([]) == 0
    assert lat.index_of_rows([(0,) * n]) == 0


def test_dump_digest_stable(lat22):
    d1 = lat22.order_digest()
    d2 = build_lattice(2, 2).order_digest()
    assert d1 == d2
    assert len(d1) == 16


@pytest.mark.parametrize("q,n,digest", [(2, 5, "13b06af2d2929c83"),
                                         (3, 4, "b95b55863a599b34"),
                                         (4, 3, "703389ed3522faa0"),
                                         (9, 2, "c17aca4e3ba4521b")])
def test_order_digest_is_pinned(q, n, digest):
    # the linear order coordinatizes every point file
    assert build_lattice(q, n).order_digest() == digest


def _order(lat):
    got = {name: getattr(lat, name) for name in (
        "below_mask", "covers_down", "covers_up", "atoms_of",
        "atom_sets", "hyperplane_sets", "space_of_atom_set",
        "space_of_hyperplane_set")}
    return got


@pytest.mark.parametrize("q,n", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3),
                                 (4, 2), (4, 3), (5, 2), (7, 2), (9, 2)])
def test_masks_from_atoms_match_span_containment(q, n):
    lat = build_lattice(q, n)
    assert _order(lat) == span_containment_order(lat)


@pytest.mark.parametrize("fixture", ["lat25", "lat34"])
def test_certify_lattices_match_span_containment(fixture, request):
    lat = request.getfixturevalue(fixture)
    assert _order(lat) == span_containment_order(lat)


def test_no_mask_with_a_bit_per_space_is_built():
    # the atom sets carry the order: no routine of the package builds
    # the below-mask, which only callers outside it read, and the
    # lattice has no above-mask at all
    from qrank import charpoly, codes, polytope, rankfun
    from qrank.constructions import uniform

    lat = build_lattice(3, 2)
    H = polytope.build_hrep(lat)
    assert len(H.rows) == len(reference_rows(lat))
    assert sum(1 for _ in H.text_lines(full=True)) == len(H.rows) + 3
    points = [uniform(lat, 1), polytope.interior_witness(lat)]
    points += polytope.enumerate_vertices(H) + polytope.lattice_points(lat)
    points.append(codes.induced_polymatroid(codes.matrix_code(
        lat.field, 2, 2, [FqMatrix.identity(lat.field, 2)]), lat))
    assert len(polytope.f_vector(H)) == 5
    for p in points:
        mu = rankfun.principal_denominator(p)
        assert rankfun.check_axioms(p).ok
        polytope.membership(H, p)
        polytope.is_vertex(H, p)
        rankfun.classify(p, mu)
        rankfun.cyclic_flats(p)
        rankfun.mu_bases(p, mu, lat.top)
        rankfun.closure(p, lat.atom_range.start)
        charpoly.char_puiseux(p)
    assert "below_mask" not in vars(lat)
    assert not hasattr(lat, "above_mask")
    assert lat.below_mask == span_containment_order(lat)["below_mask"]


@pytest.mark.parametrize("q,n", [(2, 4), (3, 3), (4, 3)])
def test_build_lists_no_span_and_runs_no_rref(q, n, monkeypatch):
    # the order comes from tails and covers: no vector of any span is
    # listed and no basis is reduced while the lattice is built
    def fail(*args):
        raise AssertionError("span enumeration or rref in the build")

    for module in (fields, subspaces):
        for name in ("matrix_vectors", "rref"):
            monkeypatch.setattr(module, name, fail, raising=False)
    lat = build_lattice(q, n)
    monkeypatch.undo()
    assert _order(lat) == span_containment_order(lat)


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9])
def test_extension_and_larger_prime_lattices(q):
    lat = build_lattice(q, 2)
    assert lat.size == 1 + (q + 1) + 1
    for l in range(3):
        assert len(lat.grade(l)) == gaussian_binomial(2, l, q)
    for i in range(lat.size):
        c = lat.orthogonal_complement(i)
        assert lat.orthogonal_complement(c) == i


def test_build_lattice_rejects_n1():
    with pytest.raises(OutOfRange):
        build_lattice(2, 1)
