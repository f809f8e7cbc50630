import random
import time
from collections import Counter
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (_int_rank, literal_axiom_violations, plain_dfs_lattice_points,
                     random_disjoint_paving_pair, random_lambda,
                     random_paving_collection, rank_test_vertices,
                     reference_sparse_rank)
from qrank import polytope
from qrank.codes import induced_polymatroid, matrix_code
from qrank.constructions import (paving, paving_combo_report, paving_spec,
                                 two_uniform_combo_report, uniform)
from qrank.errors import NotFeasible, TooLarge
from qrank.fields import FqMatrix, make_field, rref
from qrank.polytope import (_rank, affine_dimension,
                            build_hrep, enumerate_vertices, f_vector,
                            interior_witness, is_vertex, lattice_points,
                            membership)
from qrank.rankfun import check_axioms, rank_point
from qrank.subspaces import build_lattice

PAPER_POINTS_22 = {
    (0, 0, 0, 0, 0), (0, 1, 1, 1, 1), (0, 1, 1, 1, 2),
    (0, 1, 1, 0, 1), (0, 1, 0, 1, 1), (0, 0, 1, 1, 1),
}


def _unfiltered_feasible(lat, values):
    """Oracle: the raw axiom system with no redundancy filtering at all."""
    if values[0] != 0:
        return False
    for i, v in enumerate(values):
        if v < 0 or v > lat.dims[i]:
            return False
    for i in range(lat.size):
        for j in range(lat.size):
            if i != j and lat.leq(i, j) and values[i] > values[j]:
                return False
    for i in range(lat.size):
        for j in range(lat.size):
            m, s = lat.meet(i, j), lat.join(i, j)
            if values[m] + values[s] > values[i] + values[j]:
                return False
    return True


def test_hrep_row_counts_22(lat22):
    H = build_hrep(lat22, reduced=False)
    counts = H.tag_counts()
    # the paper's system: 10 inequality rows of types 1-3 plus v_0 = 0
    assert counts["type1"] + counts["type2"] + counts["type3"] == 10
    assert counts == {"type1": 4, "nonneg": 3, "type2": 3, "type3": 3, "zero": 2}
    Hr = build_hrep(lat22, reduced=True)
    assert Hr.ambient_dim == 4
    assert "zero" not in Hr.tag_counts()


def test_hrep_matches_paper_rows(lat22):
    # paper's explicit inequalities for P_2^2 (with v_0 = 0 substituted)
    lines = build_hrep(lat22, reduced=True).to_text().splitlines()[1:]
    dense = {(tuple(int(a) for a in line.split()[:-1]), int(line.split()[-1]))
             for line in lines}
    paper = {
        ((1, 0, 0, 0), 1), ((0, 1, 0, 0), 1), ((0, 0, 1, 0), 1), ((0, 0, 0, 1), 2),
        ((1, 0, 0, -1), 0), ((0, 1, 0, -1), 0), ((0, 0, 1, -1), 0),
        ((-1, -1, 0, 1), 0), ((-1, 0, -1, 1), 0), ((0, -1, -1, 1), 0),
        ((-1, 0, 0, 0), 0), ((0, -1, 0, 0), 0), ((0, 0, -1, 0), 0),
    }
    assert dense == paper


def _row_value(coeffs, values):
    return sum(c * values[i] for i, c in coeffs)


def _dense_normal(H, coeffs):
    offset = 1 if H.reduced else 0
    vec = [0] * H.ambient_dim
    for i, c in coeffs:
        vec[i - offset] = c
    return vec


def _dense_hrep_text(H):
    """Reference formatter: every reference row written out as a dense
    list."""
    rows = _reference_hrep_rows(H.lattice, H.reduced)
    lines = [f"HREP {len(rows)} {H.ambient_dim}"]
    for coeffs, rhs, _ in rows:
        lines.append(" ".join(str(x) for x in _dense_normal(H, coeffs))
                     + f" {rhs}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("fixture", ["lat23", "lat32", "lat24"])
@pytest.mark.parametrize("reduced", [True, False])
def test_hrep_text_matches_dense_formatter(fixture, reduced, request):
    H = build_hrep(request.getfixturevalue(fixture), reduced=reduced)
    assert ("zero" in H.tag_counts()) == (not reduced)
    assert H.to_text() == _dense_hrep_text(H)


@cache
def _reference_hrep_rows(lat, reduced):
    """(coeffs, rhs, tag) of every row in build_hrep's row order, built
    by a double loop over all index pairs with lat.meet and lat.join for
    each incomparable one; the row source of every oracle in this file."""
    rows = [(((x, 1),), lat.dims[x], ("type1", x)) for x in range(1, lat.size)]
    rows += [(((a, -1),), 0, ("nonneg", a)) for a in lat.atom_range]
    for y in range(1, lat.size):
        for x in lat.covers_down[y]:
            if x != lat.zero:
                rows.append((((x, 1), (y, -1)), 0, ("type2", x, y)))
    for x in range(1, lat.size):
        for y in range(x + 1, lat.size):
            if lat.leq(x, y) or lat.leq(y, x):
                continue
            m, j = lat.meet(x, y), lat.join(x, y)
            coeffs = [(j, 1), (x, -1), (y, -1)]
            if m != lat.zero or not reduced:
                coeffs.append((m, 1))
            rows.append((tuple(sorted(coeffs)), 0, ("type3", x, y)))
    if not reduced:
        rows += [(((0, 1),), 0, ("zero", 1)), (((0, -1),), 0, ("zero", -1))]
    return tuple(rows)


@pytest.mark.parametrize("fixture", ["lat23", "lat32", "lat24"])
@pytest.mark.parametrize("reduced", [True, False])
def test_hrep_rows_match_pairwise_reference(fixture, reduced, request):
    # the row order fixes to_text, membership's row indices and the
    # double-description insertion order
    lat = request.getfixturevalue(fixture)
    H = build_hrep(lat, reduced=reduced)
    ref = _reference_hrep_rows(lat, reduced)
    assert H.rows == range(len(ref))
    assert _text_rows(H) == [(coeffs, rhs) for coeffs, rhs, _ in ref]
    assert H.tag_counts() == Counter(tag[0] for _, _, tag in ref)


def _text_rows(H):
    """The rows of H's text read back as (sparse coeffs, rhs): the
    nonzero (lattice index, coefficient) pairs in increasing index."""
    offset = 1 if H.reduced else 0
    lines = H.text_lines()
    assert next(lines) == f"HREP {len(H.rows)} {H.ambient_dim}\n"
    rows = []
    for line in lines:
        *coeffs, rhs = (int(x) for x in line.split())
        rows.append((tuple((i + offset, c) for i, c in enumerate(coeffs) if c),
                     rhs))
    return rows


@pytest.mark.parametrize("fixture", ["lat23", "lat32"])
@pytest.mark.parametrize("reduced", [True, False])
def test_row_blocks_index_like_a_tuple(fixture, reduced, request):
    # rows are the row numbers
    lat = request.getfixturevalue(fixture)
    H = build_hrep(lat, reduced=reduced)
    ref = _reference_hrep_rows(lat, reduced)
    rows = tuple(H.rows)
    assert rows == tuple(range(len(ref)))
    assert tuple(H.rows[k] for k in range(-len(rows), len(rows))) == rows * 2
    for k in (len(rows), -len(rows) - 1):
        with pytest.raises(IndexError):
            H.rows[k]
    assert sum(1 for _ in H.text_lines()) == len(rows) + 1


def test_membership_and_certificates_build_no_hrow(lat22, lat32, lat24):
    for reduced in (True, False):
        H = build_hrep(lat24, reduced=reduced)
        u = uniform(lat24, 2)
        assert membership(H, interior_witness(lat24)).status == "interior"
        assert membership(H, rank_point(lat24, [v + 1 for v in u.values])
                          ).status == "outside"
        cert = is_vertex(H, u)
        assert cert.is_vertex and cert.normal_rank == H.ambient_dim
        assert H.to_text().count("\n") == len(H.rows) + 1
        assert sum(H.tag_counts().values()) == len(H.rows)
    # double description and the f-vector read the blocks too
    for lat, n_verts, fv in ((lat22, 6, (6, 15, 18, 9)),
                             (lat32, 11, (11, 41, 70, 52, 14))):
        for reduced in (True, False):
            H = build_hrep(lat, reduced=reduced)
            assert len(enumerate_vertices(H)) == n_verts
            assert f_vector(H) == fv


@pytest.mark.parametrize("qn", [(2, 2), (3, 2), (2, 3)])
def test_redundancy_filter_soundness(qn, request):
    lat = {(2, 2): "lat22", (3, 2): "lat32", (2, 3): "lat23"}[qn]
    lat = request.getfixturevalue(lat)
    H = build_hrep(lat, reduced=False)
    rng = random.Random(99)
    wit = interior_witness(lat)
    agree = 0
    for _ in range(120):
        mode = rng.randrange(3)
        if mode == 0:
            vals = [Fraction(rng.randrange(0, 3 * lat.dims[i] + 1), 3)
                    for i in range(lat.size)]
            vals[0] = Fraction(0)
        elif mode == 1:
            vals = [v + Fraction(rng.randrange(-1, 2), 6) for v in wit.values]
            vals[0] = Fraction(0)
        else:
            vals = list(wit.values)  # feasible for sure
        p = rank_point(lat, vals)
        ours = membership(H, p).status != "outside"
        oracle = _unfiltered_feasible(lat, p.values)
        assert ours == oracle
        agree += 1
    assert agree == 120


def test_membership_states(lat22):
    H = build_hrep(lat22, reduced=True)
    assert membership(H, interior_witness(lat22)).status == "interior"
    boundary = rank_point(lat22, [0, 1, 1, 1, 2])
    assert membership(H, boundary).status == "boundary"
    outside = rank_point(lat22, [0, 1, 1, 1, 3])
    mem = membership(H, outside)
    assert mem.status == "outside"
    ref = _reference_hrep_rows(lat22, True)
    assert any(ref[k][2] == ("type1", 4) for k in mem.violated_rows)


def test_membership_feasibility_equals_axioms(lat23):
    rng = random.Random(13)
    H = build_hrep(lat23, reduced=False)
    for _ in range(60):
        vals = [Fraction(rng.randrange(0, 2 * lat23.dims[i] + 1), 2)
                for i in range(lat23.size)]
        vals[0] = Fraction(0)
        p = rank_point(lat23, vals)
        assert (membership(H, p).status != "outside") == check_axioms(p).ok


@cache
def _property_setup(q, n, reduced):
    lat = build_lattice(q, n)
    return (lat, build_hrep(lat, reduced=reduced), lattice_points(lat),
            interior_witness(lat))


@st.composite
def _rational_points(draw, reduced=(False,)):
    """(H, point): a convex combination of a q-matroid with another one
    or with the interior witness, then a few coordinates moved by small
    rationals, which may leave the polytope; the zero coordinate is
    sometimes moved too, which the reduced H-rep (drawn when reduced
    allows True) must ignore."""
    qn = draw(st.sampled_from([(2, 3), (3, 2)]))
    lat, H, pts, wit = _property_setup(*qn, draw(st.sampled_from(reduced)))
    a = draw(st.sampled_from(pts))
    b = draw(st.one_of(st.just(wit), st.sampled_from(pts)))
    lam = draw(st.fractions(min_value=0, max_value=1, max_denominator=7))
    vals = [lam * x + (1 - lam) * y for x, y in zip(a.values, b.values)]
    nudges = draw(st.lists(
        st.tuples(st.integers(0, lat.size - 1),
                  st.fractions(min_value=-1, max_value=1, max_denominator=5)),
        max_size=3))
    for i, d in nudges:
        vals[i] += d
    return H, rank_point(lat, vals)


_PROPERTY_SETTINGS = settings(max_examples=200, deadline=None,
                              derandomize=True, database=None)


@_PROPERTY_SETTINGS
@given(_rational_points(reduced=(False, True)))
def test_scaled_membership_matches_fraction_rows(hp):
    H, p = hp
    mem = membership(H, p)
    rows = _reference_hrep_rows(H.lattice, H.reduced)
    tight = tuple(k for k, (coeffs, rhs, _) in enumerate(rows)
                  if _row_value(coeffs, p.values) == rhs)
    violated = tuple(k for k, (coeffs, rhs, _) in enumerate(rows)
                     if _row_value(coeffs, p.values) > rhs)
    assert mem.tight_rows == tight
    assert mem.violated_rows == violated
    assert (mem.status == "outside") == bool(violated)


@_PROPERTY_SETTINGS
@given(_rational_points())
def test_axioms_agree_with_membership_and_fraction_slacks(hp):
    H, p = hp
    rep = check_axioms(p)
    assert rep.ok == (membership(H, p).status != "outside")
    assert rep.violations == literal_axiom_violations(p)
    assert all(type(slack) is Fraction for _, _, slack in rep.violations)


@st.composite
def _int_matrices(draw):
    """(column labels, integer matrix): entries in [-3, 3], with zero
    rows, duplicate rows and scaled copies mixed in, and the columns
    given arbitrary distinct labels."""
    ncols = draw(st.integers(1, 9))
    row = st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols)
    m = draw(st.lists(row, max_size=8))
    m += [[0] * ncols] * draw(st.integers(0, 2))
    if m:
        for f in draw(st.lists(st.sampled_from([1, -1, 2, -3]), max_size=3)):
            m.append([f * x for x in draw(st.sampled_from(m))])
    labels = [3 * c + 1 for c in draw(st.permutations(range(ncols)))]
    return labels, draw(st.permutations(m))


@_PROPERTY_SETTINGS
@given(_int_matrices())
def test_sparse_rank_matches_dense_reference(case):
    labels, m = case
    sparse = [[(labels[j], x) for j, x in enumerate(r)] for r in m]
    assert _rank(sparse) == _int_rank(m)


@_PROPERTY_SETTINGS
@given(_int_matrices())
def test_full_rank_stop_keeps_the_rank_exact(case):
    # no rank exceeds the number of columns, so stopping there is exact
    labels, m = case
    sparse = [[(labels[j], x) for j, x in enumerate(r)] for r in m]
    assert _rank(sparse, full=len(labels)) == _int_rank(m)


@st.composite
def _solved_column_rows(draw):
    """(column labels, sparse rows) over 6 to 14 labelled columns: rows
    of at most four (column, value) entries in [-3, 3], a listed column
    with value 0 among them, one-entry rows whose lead is any of +-1,
    +-2, +-3 (such as {c: 2}), which solve columns as they come, and
    star rows {c: a, f: b} that all share the first column f, which
    leave f the last free column once they cover every other column.
    Sums of two star rows (in their span) and star rows with the sign
    at f flipped (outside it) follow the star in half the cases, and
    rows over the one-entry rows' columns come last."""
    ncols = draw(st.integers(6, 14))
    labels = [5 * c + 2 for c in draw(st.permutations(range(ncols)))]
    lead = st.sampled_from([1, -1, 2, -2, 3, -3])
    entry = st.tuples(st.sampled_from(labels), st.integers(-3, 3))
    rows = draw(st.lists(st.lists(entry, max_size=4, unique_by=lambda e: e[0]),
                         max_size=16))
    units = draw(st.lists(st.tuples(st.sampled_from(labels), lead),
                          max_size=ncols))
    rows += [[u] for u in units]
    f = labels[0]
    star_cols = (labels[1:] if draw(st.booleans()) else
                 draw(st.lists(st.sampled_from(labels[1:]), unique=True)))
    star = [[(c, draw(lead)), (f, draw(lead))] for c in star_cols]
    extra = []
    if star:
        for r1, r2, a, b in draw(st.lists(st.tuples(
                st.sampled_from(star), st.sampled_from(star), lead, lead),
                max_size=6)):
            row = Counter()
            for r, k in ((r1, a), (r2, b)):
                for c, v in r:
                    row[c] += k * v
            extra.append(list(row.items()))
        extra += [[e, (f, -v)] for e, (_, v) in
                  draw(st.lists(st.sampled_from(star), max_size=3))]
    if draw(st.booleans()):
        rows = star + draw(st.permutations(extra)) + draw(st.permutations(rows))
    else:
        rows = draw(st.permutations(rows + star + extra))
    if units:
        entry = st.tuples(st.sampled_from([c for c, _ in units]),
                          st.integers(-3, 3))
        rows += draw(st.lists(st.lists(entry, min_size=1, max_size=4,
                                       unique_by=lambda e: e[0]), max_size=6))
    return labels, rows


@_PROPERTY_SETTINGS
@given(_solved_column_rows())
# clearing column 12 leaves row 2 as {2: 1, 7: 1}, two entries, so
# column 2 is not solved and {2: 1} raises the rank to 3
@example(([2, 7, 12, 17, 22, 27], [[(2, 1), (7, 1), (12, 1)], [(12, 1)],
                                   [(2, 1)]]))
def test_solved_column_skip_keeps_the_rank_exact(case):
    # a row is skipped only when every one of its columns is solved, and
    # at rank full - 1 only when it lies on the pivot columns and the
    # last free column with a zero dot product with their null vector;
    # a full below the number of columns stops at min(full, rank)
    labels, rows = case
    dense = []
    for row in rows:
        d = [0] * len(labels)
        for c, v in row:
            d[labels.index(c)] = v
        dense.append(d)
    rank = _int_rank(dense)
    assert _rank(rows) == rank
    assert _rank(rows, full=len(labels)) == rank
    assert [_rank(rows, full=k) for k in range(rank + 2)] == [
        min(k, rank) for k in range(rank + 2)]


def _dense_normal_rank(H, ks):
    rows = _reference_hrep_rows(H.lattice, H.reduced)
    return _int_rank([_dense_normal(H, rows[k][0]) for k in ks])


def _random_code_point(rng, lat, m=2, k=3):
    F = make_field(lat.q)
    n = lat.n
    rows = [tuple(rng.randrange(lat.q) for _ in range(n * m)) for _ in range(k)]
    mat = rref(FqMatrix.from_rows(F, rows, n * m)).matrix
    gens = [FqMatrix.from_rows(F, [r[i * m:(i + 1) * m] for i in range(n)], m)
            for r in mat.entries]
    return induced_polymatroid(matrix_code(F, n, m, gens), lat)


def _point_kinds(lat, rng):
    """(kind, point) for every kind of point the certificates see:
    uniform, paving, paving combo, two-uniform combo (it needs
    1 < k1 < k2 < n, so L(F_3^3) has none), code-induced, the interior
    witness, and copies of each with one seeded coordinate raised by 1,
    as the benchmark raises them, which leaves the polytope."""
    n = lat.n
    pts = [("uniform", uniform(lat, k)) for k in range(n + 1)]
    for k in range(2, n):
        s1, s2 = random_disjoint_paving_pair(rng, lat, k)
        spec1, spec2 = paving_spec(lat, k, s1), paving_spec(lat, k, s2)
        pts.append(("paving", paving(spec1)))
        pts.append(("paving combo", paving_combo_report(
            spec1, spec2, random_lambda(rng)).point))
        for k2 in range(k + 1, n):
            pts.append(("two-uniform combo", two_uniform_combo_report(
                lat.q, n, k, k2, random_lambda(rng), lattice=lat).point))
    pts.append(("code-induced", _random_code_point(rng, lat)))
    pts.append(("witness", interior_witness(lat)))
    raised = []
    for kind, p in pts:
        for i in rng.sample(range(1, lat.size), 3):
            vals = list(p.values)
            vals[i] += 1
            raised.append(("raised " + kind, rank_point(lat, vals)))
    return pts + raised


def _check_certificates(lat, reduced):
    H = build_hrep(lat, reduced=reduced)
    kinds, certified = set(), set()
    for kind, p in _point_kinds(lat, random.Random(41)):
        kinds.add(kind)
        mem = membership(H, p)
        if mem.status == "outside":
            with pytest.raises(NotFeasible):
                is_vertex(H, p)
            continue
        cert = is_vertex(H, p)
        assert cert.normal_rank == _dense_normal_rank(H, cert.tight_rows), kind
        # the certificate lists tight facets by their row numbers, and
        # they span what all the tight rows span
        assert set(cert.tight_rows) <= set(mem.tight_rows), kind
        assert cert.normal_rank == _dense_normal_rank(H, mem.tight_rows), kind
        assert cert.is_vertex == (cert.normal_rank == H.ambient_dim)
        certified.add(kind)
    assert certified == {k for k in kinds if not k.startswith("raised")}
    assert len(kinds) == 2 * len(certified)


@pytest.mark.parametrize("fixture", ["lat24", "lat33"])
def test_vertex_normal_rank_matches_dense_reference(fixture, request):
    _check_certificates(request.getfixturevalue(fixture), reduced=True)


@pytest.mark.parametrize("fixture", ["lat24", "lat33"])
def test_unreduced_vertex_normal_rank_matches_dense_reference(fixture, request):
    _check_certificates(request.getfixturevalue(fixture), reduced=False)


def _facet_normals(H):
    """{row number: sparse normal} of the facet rows, read from the
    blocks: the atom bounds, the top covers, the diamonds (v_0 dropped
    from a zero meet in the reduced system) and the zero rows."""
    lat = H.lattice
    normals = {a - 1: ((a, 1),) for a in H.atoms}
    normals.update((k, ((h, 1), (lat.top, -1)))
                   for k, h in zip(H.top_cover_rows, H.hyperplanes))
    for k, (x, y, m, j) in zip(H.pair_rows(lat.diamonds), lat.diamonds):
        normals[k] = (((m, 1), (x, -1), (y, -1), (j, 1)) if m or not H.reduced
                      else ((x, -1), (y, -1), (j, 1)))
    normals.update((k, ((0, sign),)) for k, sign in
                   zip(range(len(H.rows) - len(H.zero), len(H.rows)), H.zero))
    return normals


def _integral_points(lat, rng):
    """(kind, point) for the uniform q-matroids, a paving q-matroid for
    each k in 2 .. n-1, and a code-induced point."""
    pts = [("uniform", uniform(lat, k)) for k in range(lat.n + 1)]
    pts += [("paving", paving(paving_spec(
        lat, k, random_paving_collection(rng, lat, k)))) for k in range(2, lat.n)]
    pts.append(("code-induced", _random_code_point(rng, lat)))
    return pts


@pytest.mark.parametrize("reduced", [True, False])
@pytest.mark.parametrize("fixture", ["lat34", "lat25"])
def test_vertex_normal_rank_matches_the_reference_kernel(fixture, reduced,
                                                         request):
    # the certificate's rank equals that of the reference kernel, which
    # reduces every row in full, on the same tight facet normals in the
    # same order: every point kind of (3,4), the integral and
    # code-induced points of (2,5)
    lat = request.getfixturevalue(fixture)
    H = build_hrep(lat, reduced=reduced)
    normals = _facet_normals(H)
    rng = random.Random(43)
    pts = (_point_kinds(lat, rng) if fixture == "lat34"
           else _integral_points(lat, rng))
    certified = set()
    for kind, p in pts:
        try:
            cert = is_vertex(H, p)
        except NotFeasible:
            continue
        rows = [normals[k] for k in cert.tight_rows]
        assert cert.normal_rank == reference_sparse_rank(rows), kind
        certified.add(kind)
    assert certified == {k for k, _ in pts if not k.startswith("raised")}


@pytest.mark.parametrize("fixture", ["lat23", "lat33", "lat24"])
@pytest.mark.parametrize("reduced", [True, False])
def test_facet_row_numbers_match_the_reference(fixture, reduced, request):
    # the atom bounds, the top covers and every pair row (the diamonds
    # among them) sit at the row numbers the certificates report
    lat = request.getfixturevalue(fixture)
    H = build_hrep(lat, reduced=reduced)
    ref = _reference_hrep_rows(lat, reduced)
    assert all(ref[a - 1][2] == ("type1", a) for a in H.atoms)
    assert [ref[k][2] for k in H.top_cover_rows] == [
        ("type2", h, lat.top) for h in H.hyperplanes]
    assert [ref[k][2] for k in H.pair_rows(lat.incomparable)] == [
        ("type3", x, y) for x, y, _, _ in lat.incomparable]


def test_pair_row_numbers_25(lat25):
    H = build_hrep(lat25)
    start = len(H.bounds) + len(H.atoms) + len(H.covers)
    assert H.pair_rows(lat25.incomparable) == list(
        range(start, start + len(lat25.incomparable)))
    assert H.pair_rows(lat25.diamonds) == [
        k for k, (x, y, m, _) in enumerate(lat25.incomparable, start)
        if lat25.dims[x] == lat25.dims[y] == lat25.dims[m] + 1]


def _row_sum(rows):
    """The sum of (coeffs, rhs) rows, as ({index: coefficient}, rhs)."""
    total, rhs = Counter(), 0
    for coeffs, b in rows:
        total.update(dict(coeffs))
        rhs += b
    return {i: c for i, c in total.items() if c}, rhs


def _diamond_summands(lat, x, y):
    """Pairs whose rows sum to the row of the incomparable pair x, y:
    with m = x ^ y and m < x' < x, the row is row(x', y) + row(x, x' v y),
    by modularity, until both spaces cover their meet."""
    m = lat.meet(x, y)
    for a, b in ((x, y), (y, x)):
        if lat.dims[a] > lat.dims[m] + 1:
            a1 = next(c for c in lat.covers_down[a] if lat.leq(m, c))
            b1 = lat.join(a1, b)
            assert lat.meet(a, b1) == a1
            return _diamond_summands(lat, a1, b) + _diamond_summands(lat, a, b1)
    return [(min(x, y), max(x, y))]


@pytest.mark.parametrize("fixture", ["lat23", "lat33", "lat24"])
def test_paper_rows_are_sums_of_facet_rows(fixture, request):
    # every row of the reduced system is a nonnegative sum of facet rows
    # and other rows with the same right-hand side, so the facets imply it
    lat = request.getfixturevalue(fixture)
    H = build_hrep(lat, reduced=True)
    ref = _reference_hrep_rows(lat, True)
    row = {tag: (coeffs, rhs) for coeffs, rhs, tag in ref}
    diamonds = {(x, y) for x, y, _, _ in H.diamonds}
    top = lat.top

    def pair(x, y):
        return row["type3", min(x, y), max(x, y)]

    for x, y, _, _ in lat.incomparable:
        parts = _diamond_summands(lat, x, y)
        assert set(parts) <= diamonds
        assert _row_sum([pair(*d) for d in parts]) == _row_sum([pair(x, y)])
    for y in range(1, top):
        for x in lat.covers_down[y]:
            if x == lat.zero:
                continue
            y2 = next(c for c in lat.covers_up[x] if c != y)
            j = lat.join(y, y2)
            assert (min(y, y2), max(y, y2)) in diamonds
            assert (_row_sum([pair(y, y2), row["type2", y2, j]])
                    == _row_sum([row["type2", x, y]]))
    for x in range(1, lat.size):
        if lat.dims[x] >= 2:
            h = lat.covers_down[x][0]
            a = next(a for a in lat.atoms_of[x] if not lat.leq(a, h))
            assert (_row_sum([pair(h, a), row["type1", h], row["type1", a]])
                    == _row_sum([row["type1", x]]))
    for a in lat.atom_range:
        h = next(h for h in H.hyperplanes if not lat.leq(a, h))
        assert (_row_sum([pair(a, h), row["type2", h, top]])
                == _row_sum([row["nonneg", a]]))


def test_lattice_points_22(lat22):
    pts = lattice_points(lat22)
    assert {tuple(int(v) for v in p.values) for p in pts} == PAPER_POINTS_22


@pytest.mark.parametrize("fixture,count",
                         [("lat32", 7), ("lat23", 32), ("lat24", 1516)])
def test_lattice_point_counts(fixture, count, request):
    lat = request.getfixturevalue(fixture)
    pts = lattice_points(lat)
    assert len(pts) == count
    for p in pts:
        assert check_axioms(p).ok
        assert p.is_integral()
    # closed under q-matroid duality: r*(X) = dim X - r(E) + r(X^perp)
    values = {p.values for p in pts}
    perp = [lat.orthogonal_complement(i) for i in range(lat.size)]
    for v in values:
        assert tuple(lat.dims[i] - v[lat.top] + v[perp[i]]
                     for i in range(lat.size)) in values


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (2, 3), (3, 3), (5, 2)])
def test_lattice_points_match_plain_dfs(q, n):
    lat = build_lattice(q, n)
    assert ([p.values for p in lattice_points(lat)]
            == [p.values for p in plain_dfs_lattice_points(lat)])


def test_lattice_points_node_cap(lat24, lat25, lat33):
    start = time.perf_counter()
    with pytest.raises(TooLarge):
        lattice_points(lat25)
    assert time.perf_counter() - start < 30
    # forward checking visits 41,756 nodes on L(F_2^4) and exactly 903
    # on L(F_3^3); a weaker propagation would pass the latter cap
    with pytest.raises(TooLarge):
        lattice_points(lat24, max_nodes=10_000)
    assert len(lattice_points(lat33, max_nodes=903)) == 56
    with pytest.raises(TooLarge):
        lattice_points(lat33, max_nodes=902)


def test_every_lattice_point_is_vertex_and_not_interior(lat22, lat32):
    for lat in (lat22, lat32):
        H = build_hrep(lat, reduced=True)
        for p in lattice_points(lat):
            assert membership(H, p).status == "boundary"
            assert is_vertex(H, p).is_vertex


def test_is_vertex_rejects_infeasible(lat22):
    H = build_hrep(lat22, reduced=True)
    with pytest.raises(NotFeasible):
        is_vertex(H, rank_point(lat22, [0, 1, 1, 1, 3]))


def test_interior_witness_values(lat22, lat23):
    wit = interior_witness(lat22)
    assert [str(v) for v in wit.values] == ["0", "1/2", "1/2", "1/2", "2/3"]
    wit3 = interior_witness(lat23)
    assert {str(v) for v in wit3.values} == {"0", "1/2", "2/3", "3/4"}
    # strict submodularity slack everywhere, per the dimension argument
    lat = lat23
    for i in range(lat.size):
        for j in range(i + 1, lat.size):
            if lat.leq(i, j) or lat.leq(j, i):
                continue
            slack = (wit3.values[lat.meet(i, j)] + wit3.values[lat.join(i, j)]
                     - wit3.values[i] - wit3.values[j])
            assert slack < 0


@pytest.mark.parametrize("fixture,dim", [("lat22", 4), ("lat32", 5), ("lat23", 15)])
def test_affine_dimension(fixture, dim, request):
    lat = request.getfixturevalue(fixture)
    assert affine_dimension(build_hrep(lat, reduced=True)) == dim
    assert affine_dimension(build_hrep(lat, reduced=False)) == dim


def test_vertices_22(lat22):
    H = build_hrep(lat22, reduced=True)
    verts = enumerate_vertices(H)
    assert {tuple(int(v) for v in p.values) for p in verts} == PAPER_POINTS_22


def test_vertices_32(lat32):
    H = build_hrep(lat32, reduced=True)
    verts = enumerate_vertices(H)
    assert len(verts) == 11
    pts = {tuple(p.values) for p in lattice_points(lat32)}
    vset = {tuple(p.values) for p in verts}
    assert pts <= vset
    # every vertex is feasible, rational by construction, and certified
    for p in verts:
        assert check_axioms(p).ok
        cert = is_vertex(H, p)
        assert cert.is_vertex and cert.normal_rank == H.ambient_dim


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_vertices_match_rank_test_adjacency(q):
    H = build_hrep(build_lattice(q, 2), reduced=True)
    assert ([p.values for p in enumerate_vertices(H)]
            == [p.values for p in rank_test_vertices(H)])


def test_vertices_deterministic(lat32):
    H = build_hrep(lat32, reduced=True)
    a = [tuple(p.values) for p in enumerate_vertices(H)]
    b = [tuple(p.values) for p in enumerate_vertices(H)]
    assert a == b == sorted(a)


def test_vertex_enum_cap(lat24):
    H = build_hrep(lat24, reduced=True)
    with pytest.raises(TooLarge):
        enumerate_vertices(H)  # ambient dim 66 > 15


def test_midpoint_convexity(lat23):
    rng = random.Random(21)
    H = build_hrep(lat23, reduced=True)
    pts = lattice_points(lat23)
    for _ in range(40):
        a, b = rng.sample(pts, 2)
        mid = rank_point(lat23, [(x + y) / 2 for x, y in zip(a.values, b.values)])
        assert membership(H, mid).status != "outside"


def _edge_count_by_rank_certificates(H, verts):
    dim = H.ambient_dim
    rows = _reference_hrep_rows(H.lattice, H.reduced)
    tight = []
    for p in verts:
        tight.append([k for k, (coeffs, rhs, _) in enumerate(rows)
                      if _row_value(coeffs, p.values) == rhs])
    edges = 0
    for i in range(len(verts)):
        ti = set(tight[i])
        for j in range(i + 1, len(verts)):
            if _dense_normal_rank(H, ti.intersection(tight[j])) == dim - 1:
                edges += 1
    return edges


def test_f_vector_22_computed(lat22):
    """The paper's example prints (6, 15, 19, 9), which cannot be correct:
    Euler's relation for 4-polytopes forces f0 - f1 + f2 - f3 = 0, and
    f0 = 6, f3 = 9 are the paper's own vertex and facet counts while
    f1 = 15 is recomputed below from exact rank certificates.  The
    incidence-closure computation gives 18 two-faces, Euler-consistent."""
    H = build_hrep(lat22, reduced=True)
    fv = f_vector(H)
    assert fv == (6, 15, 18, 9)
    assert sum((-1) ** i * c for i, c in enumerate(fv)) == 0
    verts = enumerate_vertices(H)
    assert _edge_count_by_rank_certificates(H, verts) == 15


def test_f_vector_32_regression(lat32):
    # frozen from the incidence-closure oracle; alternating sum 2 (dim 5)
    fv = f_vector(build_hrep(lat32, reduced=True))
    assert fv == (11, 41, 70, 52, 14)
    assert sum((-1) ** i * c for i, c in enumerate(fv)) == 2


def _simplex_face_counts():
    # the standard 4-simplex {v >= 0, sum v_i <= 1}: its vertices 0 and
    # the unit vectors e_1 .. e_4, and the vertex set of each facet
    # (v_i = 0 holds at all but e_i; the sum is 1 at all but 0)
    coords = [(0, 0, 0, 0)] + [tuple(int(i == j) for j in range(4))
                               for i in range(4)]
    facets = [set(range(5)) - {i + 1} for i in range(4)] + [{1, 2, 3, 4}]
    return polytope._face_counts(coords, facets)


def test_f_vector_simplex():
    assert _simplex_face_counts() == (5, 10, 10, 5)  # binomial C(5, k+1)


@pytest.mark.parametrize("case,d", [("P(2,2)", 4), ("P(3,2)", 5),
                                    ("P(4,2)", 6), ("simplex", 4)])
def test_f_vectors_satisfy_euler(case, d, lat22, lat32):
    # every f-vector the suite computes: f_0 - f_1 + ... over the faces
    # of dimension 0 .. d-1 of a d-polytope is 1 - (-1)^d
    fv = {"P(2,2)": lambda: f_vector(build_hrep(lat22)),
          "P(3,2)": lambda: f_vector(build_hrep(lat32)),
          "P(4,2)": lambda: f_vector(build_hrep(build_lattice(4, 2))),
          "simplex": _simplex_face_counts}[case]()
    assert len(fv) == d
    assert sum((-1) ** i * f for i, f in enumerate(fv)) == 1 - (-1) ** d


def test_unreduced_vertex_certificates(lat22):
    H = build_hrep(lat22, reduced=False)
    u = uniform(lat22, 2)
    cert = is_vertex(H, u)
    assert cert.is_vertex and cert.normal_rank == 5


def test_unreduced_vertex_enumeration_agrees(lat22, lat32):
    for lat in (lat22, lat32):
        vr = [tuple(p.values) for p in enumerate_vertices(build_hrep(lat, True))]
        vu = [tuple(p.values) for p in enumerate_vertices(build_hrep(lat, False))]
        assert vr == vu


def test_membership_lattice_guard(lat22, lat32):
    from qrank.errors import DimensionMismatch
    H = build_hrep(lat22, reduced=True)
    with pytest.raises(DimensionMismatch):
        membership(H, uniform(lat32, 1))


def test_fractional_vertex_32(lat32):
    # P(3,2) has rational non-integer vertices; pick one from the run
    H = build_hrep(lat32, reduced=True)
    verts = enumerate_vertices(H)
    frac = [p for p in verts if not p.is_integral()]
    assert len(frac) == 4
    for p in frac:
        assert is_vertex(H, p).is_vertex
        assert check_axioms(p).ok


def test_hrep_structural_invariants(lat23):
    for reduced in (True, False):
        H = build_hrep(lat23, reduced=reduced)
        for x, y in H.covers:
            assert x != lat23.zero
            assert x in lat23.covers_down[y]
        for x, y, m, j in H.pairs:
            assert not lat23.leq(x, y) and not lat23.leq(y, x)
            assert (m, j) == (lat23.meet(x, y), lat23.join(x, y))
        assert all(lat23.dims[a] == 1 for a in H.atoms)


def test_polytope_4_2_extension_field():
    # frozen from the double-description run over GF(4)
    from qrank.subspaces import build_lattice
    lat = build_lattice(4, 2)
    H = build_hrep(lat, reduced=True)
    assert affine_dimension(H) == 6
    pts = lattice_points(lat)
    assert len(pts) == 8  # three uniforms plus one rank-1 per loop line
    verts = enumerate_vertices(H)
    assert len(verts) == 23
    vset = {tuple(p.values) for p in verts}
    assert all(tuple(p.values) in vset for p in pts)
    fv = f_vector(H)
    assert fv == (23, 128, 280, 270, 115, 20)
    assert sum((-1) ** i * c for i, c in enumerate(fv)) == 0


def _brute_force_vertices(H):
    """Independent oracle: solve every d x d invertible subsystem of
    tight rows and keep the feasible solutions (exact, Fraction-based)."""
    from fractions import Fraction
    from itertools import combinations
    lat = H.lattice
    assert H.reduced
    d = H.ambient_dim
    rows = []
    for coeffs, rhs, _ in _reference_hrep_rows(lat, H.reduced):
        vec = [Fraction(0)] * d
        for i, c in coeffs:
            vec[i - 1] = Fraction(c)
        rows.append((vec, Fraction(rhs)))
    found = set()
    for combo in combinations(range(len(rows)), d):
        mat = [list(rows[k][0]) + [rows[k][1]] for k in combo]
        # Gauss-Jordan with exact fractions
        ok = True
        for col in range(d):
            piv = next((r for r in range(col, d) if mat[r][col] != 0), None)
            if piv is None:
                ok = False
                break
            mat[col], mat[piv] = mat[piv], mat[col]
            pv = mat[col][col]
            mat[col] = [x / pv for x in mat[col]]
            for r in range(d):
                if r != col and mat[r][col] != 0:
                    f = mat[r][col]
                    mat[r] = [a - f * b for a, b in zip(mat[r], mat[col])]
        if not ok:
            continue
        sol = tuple(mat[r][d] for r in range(d))
        if all(sum(a * x for a, x in zip(vec, sol)) <= rhs for vec, rhs in rows):
            found.add(sol)
    return found


@pytest.mark.parametrize("fixture", ["lat22", "lat32"])
def test_vertices_match_brute_force_oracle(fixture, request):
    lat = request.getfixturevalue(fixture)
    H = build_hrep(lat, reduced=True)
    oracle = _brute_force_vertices(H)
    dd = {tuple(p.values[1:]) for p in enumerate_vertices(H)}
    assert dd == oracle


def test_polytope_5_2_regression():
    # frozen from the double-description run over GF(5)
    from qrank.subspaces import build_lattice
    lat = build_lattice(5, 2)
    H = build_hrep(lat, reduced=True)
    assert affine_dimension(H) == 7
    pts = lattice_points(lat)
    assert len(pts) == 9
    verts = enumerate_vertices(H)
    assert len(verts) == 50
    vset = {tuple(p.values) for p in verts}
    assert all(tuple(p.values) in vset for p in pts)
    for p in verts:
        cert = is_vertex(H, p)
        assert cert.is_vertex and cert.normal_rank == H.ambient_dim
