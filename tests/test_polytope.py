import random
import time
from collections import Counter
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (_int_rank, facet_axiom_violations,
                     literal_axiom_violations, plain_dfs_lattice_points,
                     random_disjoint_paving_pair, random_lambda,
                     random_paving_collection, rank_test_vertices,
                     facet_row_numbers, reference_face_counts, reference_pairs,
                     reference_rows, reference_sparse_rank, table_row)
from qrank import polytope, rankfun
from qrank.codes import (induced_polymatroid, matrix_code,
                         mrd_combo_independence)
from qrank.constructions import (paving, paving_combo_report, paving_spec,
                                 two_uniform_combo_report, uniform)
from qrank.errors import DimensionMismatch, NotFeasible, TooLarge
from qrank.fields import FqMatrix, make_field, rref
from qrank.polytope import (HRepresentation, _rank, affine_dimension,
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


def _row_tag(lat, row):
    """The reference tag of a row (x, y, m, j) of H, read off where its
    padding sits: a pair row names two spaces first, a bound reads
    size + dim x at x, an atom row reads 0 at m, and a cover
    (y, size, x, size) names its spaces at x and m."""
    x, y, m, _ = row
    if y < lat.size:
        return ("type3", x, y)
    if x > lat.size:
        return ("type1", m)
    if m == lat.size:
        return ("nonneg", x)
    return ("type2", m, x)


def test_hrep_row_counts_22(lat22):
    H = build_hrep(lat22)
    blocks = Counter(_row_tag(lat22, row)[0] for row in reference_rows(lat22))
    # the paper's system: 10 inequality rows of types 1-3 plus v_0 = 0,
    # which the full text writes as the two rows +-v_0 <= 0
    assert blocks == {"type1": 4, "nonneg": 3, "type2": 3, "type3": 3}
    assert len(H.rows) == 13
    assert blocks["type1"] + blocks["type2"] + blocks["type3"] == 10
    assert H.ambient_dim == 4
    assert next(H.text_lines(full=True)) == "HREP 15 5\n"


def test_hrep_matches_paper_rows(lat22):
    # paper's explicit inequalities for P_2^2 (with v_0 = 0 substituted)
    lines = build_hrep(lat22).to_text().splitlines()[1:]
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


def _dense_normal(lat, coeffs, full=False):
    """The row's normal over the columns v_1 .. v_top, or v_0 .. v_top
    with full."""
    offset = 0 if full else 1
    vec = [0] * (lat.size - offset)
    for i, c in coeffs:
        vec[i - offset] = c
    return vec


def _dense_hrep_text(lat, full):
    """Reference formatter: every reference row written out as a dense
    list."""
    rows = _reference_hrep_rows(lat, full)
    lines = [f"HREP {len(rows)} {lat.size - (0 if full else 1)}"]
    for coeffs, rhs, _ in rows:
        lines.append(" ".join(str(x) for x in _dense_normal(lat, coeffs, full))
                     + f" {rhs}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("fixture", ["lat23", "lat32", "lat24"])
@pytest.mark.parametrize("full", [True, False])
def test_hrep_text_matches_dense_formatter(fixture, full, request):
    lat = request.getfixturevalue(fixture)
    assert build_hrep(lat).to_text(full) == _dense_hrep_text(lat, full)


@cache
def _reference_hrep_rows(lat, full=False):
    """(coeffs, rhs, tag) of every row in build_hrep's row order, built
    by a double loop over all index pairs with lat.meet and lat.join for
    each incomparable one; the row source of every oracle in this file.
    With full, the rows of the unreduced system that the full text
    renders: v_0 stays in the zero-meet pair rows, and +-v_0 <= 0 follow."""
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
            if m != lat.zero or full:
                coeffs.append((m, 1))
            rows.append((tuple(sorted(coeffs)), 0, ("type3", x, y)))
    if full:
        rows += [(((0, 1),), 0, ("zero", 1)), (((0, -1),), 0, ("zero", -1))]
    return tuple(rows)


@pytest.mark.parametrize("fixture", ["lat23", "lat32", "lat24"])
@pytest.mark.parametrize("full", [True, False])
def test_hrep_rows_match_pairwise_reference(fixture, full, request):
    # the row order fixes to_text; each row of H decodes to the
    # reference row at its number
    lat = request.getfixturevalue(fixture)
    H = build_hrep(lat)
    ref = _reference_hrep_rows(lat, full)
    tags = Counter(tag[0] for _, _, tag in ref)
    assert H.rows == range(len(ref) - tags["zero"])
    assert _text_rows(H, full) == [(coeffs, rhs) for coeffs, rhs, _ in ref]
    reduced = _reference_hrep_rows(lat)
    rows = reference_rows(lat)
    assert [table_row(lat, row) for row in rows] == [
        (coeffs, rhs) for coeffs, rhs, _ in reduced]
    assert [_row_tag(lat, row) for row in rows] == [tag for _, _, tag in reduced]
    assert tags["zero"] == (2 if full else 0)


@pytest.mark.parametrize("fixture", ["lat23", "lat32", "lat24", "lat25"])
def test_hrep_rows_are_row_numbers(fixture, request):
    # H stores no row and the lattice holds no row table: H.rows is
    # range(N), counted from the grades, N the length of the system
    lat = request.getfixturevalue(fixture)
    assert build_hrep(lat).rows == range(len(reference_rows(lat)))
    assert not hasattr(lat, "rows")


@pytest.mark.parametrize("q,n,rows,digest", [
    (5, 4, 620_998, "1ed66578ad536682"),
    (3, 5, 3_508_396, "86fe058b36b4648d"),
    (2, 6, 3_922_405, "ef0a2b1e238469c8")])
def test_row_counts_past_the_cap(q, n, rows, digest):
    # L(F_5^4), L(F_3^5) and L(F_2^6) pass the default cap; their row
    # counts read the grades, so no mask with a bit per space is built
    lat = build_lattice(q, n, max_size=3000)
    assert len(HRepresentation(lat).rows) == rows
    assert lat.order_digest() == digest
    assert "below_mask" not in vars(lat)


@pytest.mark.parametrize("q,n,rank", [(2, 6, 2824), (3, 5, 2663)])
def test_vertex_certificates_past_the_cap(q, n, rank):
    # U_2 on L(F_2^6) and L(F_3^5), which pass the default cap, is
    # certified a vertex: its tight facet normals reach the ambient
    # dimension
    lat = build_lattice(q, n, max_size=3000)
    H = build_hrep(lat)
    cert = is_vertex(H, uniform(lat, 2))
    assert cert.is_vertex and cert.normal_rank == H.ambient_dim == rank


def test_only_build_hrep_builds_the_facet_table():
    # H holds the lattice alone and its text reads no facet, so writing
    # the text builds no facet table; build_hrep builds it, diamonds and
    # all, so that its cost falls in the set-up of the certifiers
    lat = build_lattice(2, 3)
    H = HRepresentation(lat)
    assert vars(H) == {"lattice": lat}
    assert sum(1 for _ in H.text_lines()) == len(H.rows) + 1
    assert sum(1 for _ in H.text_lines(full=True)) == len(H.rows) + 3
    assert "facets" not in vars(lat) and "diamonds" not in vars(lat)
    lat = build_lattice(2, 3)
    build_hrep(lat)
    assert "facets" in vars(lat) and "diamonds" in vars(lat)


@pytest.mark.parametrize("q,n", [(2, 3), (3, 2), (2, 4), (3, 3)])
def test_row_starts_bound_the_blocks(q, n):
    # the blocks start at rows top (the atoms), top + atoms (the covers)
    # and the first pair row, the first facet after the top covers, and
    # each block holds the rows of one kind; the pair rows end H's count
    lat = build_lattice(q, n)
    H = build_hrep(lat)
    atoms = lat.top
    covers = atoms + len(lat.atom_range)
    pairs = len(H.rows) - len(reference_pairs(lat))
    assert facet_row_numbers(lat)[
        len(lat.atom_range) + len(lat.covers_down[lat.top])] == pairs
    kinds = [_row_tag(lat, row)[0] for row in reference_rows(lat)]
    assert kinds == (["type1"] * atoms + ["nonneg"] * (covers - atoms)
                     + ["type2"] * (pairs - covers)
                     + ["type3"] * (len(kinds) - pairs))
    assert len(kinds) == len(H.rows)


def _text_rows(H, full=False):
    """The rows of H's text read back as (sparse coeffs, rhs): the
    nonzero (lattice index, coefficient) pairs in increasing index."""
    offset = 0 if full else 1
    lines = H.text_lines(full)
    extra = 2 if full else 0
    assert next(lines) == (f"HREP {len(H.rows) + extra} "
                           f"{H.lattice.size - offset}\n")
    rows = []
    for line in lines:
        *coeffs, rhs = (int(x) for x in line.split())
        rows.append((tuple((i + offset, c) for i, c in enumerate(coeffs) if c),
                     rhs))
    return rows


@pytest.mark.parametrize("fixture", ["lat23", "lat32"])
@pytest.mark.parametrize("full", [True, False])
def test_row_blocks_index_like_a_tuple(fixture, full, request):
    # rows indexes like the tuple of row numbers, which the full text
    # keeps, adding the rows +-v_0 <= 0 after them
    lat = request.getfixturevalue(fixture)
    H = build_hrep(lat)
    ref = _reference_hrep_rows(lat, full)
    extra = 2 if full else 0
    rows = H.rows
    assert len(rows) == len(ref) - extra
    assert (tuple(H.rows[k] for k in range(-len(rows), len(rows)))
            == tuple(range(len(rows))) * 2)
    for k in (len(rows), -len(rows) - 1):
        with pytest.raises(IndexError):
            H.rows[k]
    assert sum(1 for _ in H.text_lines(full)) == len(rows) + extra + 1


@pytest.mark.parametrize("fixture", ["lat23", "lat32", "lat24"])
def test_full_text_is_the_rows_with_a_v0_column(fixture, request):
    # full row k is row k with a v_0 entry in front, 1 on the zero-meet
    # pair rows and 0 elsewhere, and the last two rows are +-v_0 <= 0
    lat = request.getfixturevalue(fixture)
    H = build_hrep(lat)
    rows = H.to_text().splitlines()
    full = H.to_text(full=True).splitlines()
    assert full[0] == f"HREP {len(H.rows) + 2} {lat.size}"
    zero_meet = {k for k, (_, y, m, _) in enumerate(reference_rows(lat))
                 if y < lat.size and m == lat.zero}
    assert zero_meet
    assert full[1:-2] == [("1 " if k in zero_meet else "0 ") + rows[k + 1]
                          for k in range(len(H.rows))]
    zeros = " 0" * lat.size
    assert full[-2:] == ["1" + zeros, "-1" + zeros]


def test_membership_and_certificates_build_no_hrow(lat22, lat32, lat24):
    H = build_hrep(lat24)
    u = uniform(lat24, 2)
    assert membership(H, interior_witness(lat24)).status == "interior"
    assert membership(H, rank_point(lat24, [v + 1 for v in u.values])
                      ).status == "outside"
    cert = is_vertex(H, u)
    assert cert.is_vertex and cert.normal_rank == H.ambient_dim
    assert H.to_text().count("\n") == len(H.rows) + 1
    # double description and the f-vector read the rows too
    for lat, n_verts, fv in ((lat22, 6, (6, 15, 18, 9)),
                             (lat32, 11, (11, 41, 70, 52, 14))):
        H = build_hrep(lat)
        assert len(enumerate_vertices(H)) == n_verts
        assert f_vector(H) == fv


@pytest.mark.parametrize("qn", [(2, 2), (3, 2), (2, 3)])
def test_redundancy_filter_soundness(qn, request):
    lat = {(2, 2): "lat22", (3, 2): "lat32", (2, 3): "lat23"}[qn]
    lat = request.getfixturevalue(lat)
    H = build_hrep(lat)
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
        ours = p.values[0] == 0 and membership(H, p).status != "outside"
        oracle = _unfiltered_feasible(lat, p.values)
        assert ours == oracle
        agree += 1
    assert agree == 120


def test_membership_states(lat22):
    H = build_hrep(lat22)
    assert membership(H, interior_witness(lat22)).status == "interior"
    boundary = rank_point(lat22, [0, 1, 1, 1, 2])
    assert membership(H, boundary).status == "boundary"
    outside = rank_point(lat22, [0, 1, 1, 1, 3])
    mem = membership(H, outside)
    assert mem.status == "outside"
    # the bound v_top <= 2 is violated too, but it is no facet: the
    # report names the facets by their positions in the facet table,
    # here the three diamonds v_a + v_b >= v_top
    ref = _reference_hrep_rows(lat22)
    row = facet_row_numbers(lat22)
    assert [ref[row[i]][2] for i in mem.violated_rows] == [
        ("type3", 1, 2), ("type3", 1, 3), ("type3", 2, 3)]
    assert mem.violated_rows == outside.facet_status.violated


def test_membership_feasibility_equals_axioms(lat23):
    rng = random.Random(13)
    H = build_hrep(lat23)
    for _ in range(60):
        vals = [Fraction(rng.randrange(0, 2 * lat23.dims[i] + 1), 2)
                for i in range(lat23.size)]
        vals[0] = Fraction(0)
        p = rank_point(lat23, vals)
        assert check_axioms(p).ok == (
            p.values[0] == 0 and membership(H, p).status != "outside")


@cache
def _property_setup(q, n):
    lat = build_lattice(q, n)
    return lat, build_hrep(lat), lattice_points(lat), interior_witness(lat)


@st.composite
def _rational_points(draw):
    """(H, point): a convex combination of a q-matroid with another one
    or with the interior witness, then a few coordinates moved by small
    rationals, which may leave the polytope; the zero coordinate is
    sometimes moved too, which the system, having no v_0, must ignore."""
    qn = draw(st.sampled_from([(2, 3), (3, 2)]))
    lat, H, pts, wit = _property_setup(*qn)
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
@given(_rational_points())
def test_scaled_membership_matches_fraction_rows(hp):
    # membership reads the facets alone: its report is the Fraction
    # evaluation restricted to the facet rows, and its status is that of
    # every row, since every row is a nonnegative sum of facet rows
    H, p = hp
    mem = membership(H, p)
    rows = _reference_hrep_rows(H.lattice)
    tight = tuple(k for k, (coeffs, rhs, _) in enumerate(rows)
                  if _row_value(coeffs, p.values) == rhs)
    violated = tuple(k for k, (coeffs, rhs, _) in enumerate(rows)
                     if _row_value(coeffs, p.values) > rhs)
    row = facet_row_numbers(H.lattice)
    facet = set(row)
    assert tuple(row[i] for i in mem.tight_rows) == tuple(
        k for k in tight if k in facet)
    assert tuple(row[i] for i in mem.violated_rows) == tuple(
        k for k in violated if k in facet)
    assert mem.status == ("outside" if violated
                          else "boundary" if tight else "interior")


@_PROPERTY_SETTINGS
@given(_rational_points())
def test_axioms_agree_with_membership_and_fraction_slacks(hp):
    H, p = hp
    rep = check_axioms(p)
    assert rep.ok == (p.values[0] == 0
                      and membership(H, p).status != "outside")
    assert rep.violations == facet_axiom_violations(p)
    assert rep.ok == (not literal_axiom_violations(p))
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
# the first row sees column 1 and leaves column 4 unseen, since its
# coefficient there is 0; so the second row, 0 on column 4 too, is
# dependent and does not raise the rank
@example(([1, 4], [[1, 0], [2, 0]]))
# the third row is the sum of the first two, all its columns seen, and
# it has a zero dot with both null space vectors, e_4 - e_1 - e_10 and
# e_7 - e_1 + e_10
@example(([1, 4, 7, 10], [[1, 1, 1, 0], [0, 1, -1, 1], [1, 2, 0, 1]]))
# the second row sees no new column and has a nonzero dot with e_4 - e_1
@example(([1, 4], [[1, 1], [1, -1]]))
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
    +-2, +-3 (such as {c: 2}), which solve columns as they come (no
    null space vector holds them after), and star rows {c: a, f: b}
    that all share the first column f, which leave one null space
    vector, on f and the star's columns, once they cover every other
    column.
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
# after {12: 1} the vector e_7 - e_2 still holds column 2, so column 2
# is not solved and {2: 1} raises the rank to 3
@example(([2, 7, 12, 17, 22, 27], [[(2, 1), (7, 1), (12, 1)], [(12, 1)],
                                   [(2, 1)]]))
# a column never seen, listed with value 0, stays unseen and raises
# no rank
@example(([2, 7, 12, 17, 22, 27], [[(2, 1)], [(2, 3), (7, 0)]]))
# the third row is dependent while two null space vectors,
# e_7 - e_2 - e_17 and e_12 - e_2 + e_17, hold the free columns 7 and 12
@example(([2, 7, 12, 17, 22, 27], [[(2, 1), (7, 1), (12, 1)],
                                   [(17, 1), (7, 1), (12, -1)],
                                   [(2, 1), (17, 1), (7, 2)]]))
# independent with no column never seen: a nonzero dot with e_7 - e_2
@example(([2, 7, 12, 17, 22, 27], [[(2, 1), (7, 1)], [(2, 1), (7, -1)]]))
def test_solved_column_skip_keeps_the_rank_exact(case):
    # a row is skipped only when every one of its columns is solved,
    # held by no vector of the null space basis, and is dependent
    # otherwise only when it has no entry on a column never seen and a
    # zero dot product with every vector that holds one of its columns,
    # however many such vectors there are; a full below the number of
    # columns stops at min(full, rank)
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


def test_rank_reads_no_row_past_full():
    # the kernel returns as soon as the rank reaches full: with full 0
    # it reads no row, once full is reached no row after the one that
    # reaches it, and every row when full is never reached
    rows = [[(1, 1)], [(1, 2)], [(4, 1), (1, 1)], [(7, 1)], [(4, 1)]]

    def counted(read):
        for row in rows:
            read.append(row)
            yield row

    for full, reads, rank in [(0, 0, 0), (2, 3, 2), (3, 4, 3), (4, 5, 3)]:
        read = []
        assert _rank(counted(read), full=full) == rank
        assert len(read) == reads


def test_is_vertex_writes_no_normal_past_full_rank(lat24, monkeypatch):
    # on U_2 of L(F_2^4) the first 136 of the 240 tight facet normals
    # reach rank 66, so is_vertex writes no more than those
    written = []
    normals = polytope._normals

    def counted(facets, top):
        for row in normals(facets, top):
            written.append(row)
            yield row

    monkeypatch.setattr(polytope, "_normals", counted)
    H = build_hrep(lat24)
    cert = is_vertex(H, uniform(lat24, 2))
    assert cert.is_vertex and len(cert.tight_rows) == 240
    assert len(written) == 136
    assert reference_sparse_rank(written[:-1]) == H.ambient_dim - 1


def _dense_normal_rank(lat, ks):
    rows = _reference_hrep_rows(lat)
    return _int_rank([_dense_normal(lat, rows[k][0]) for k in ks])


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


def _check_certificates(lat):
    H = build_hrep(lat)
    row = facet_row_numbers(lat)
    kinds, certified = set(), set()
    for kind, p in _point_kinds(lat, random.Random(41)):
        kinds.add(kind)
        mem = membership(H, p)
        if mem.status == "outside":
            with pytest.raises(NotFeasible):
                is_vertex(H, p)
            continue
        cert = is_vertex(H, p)
        assert cert.normal_rank == _dense_normal_rank(
            lat, [row[i] for i in cert.tight_rows]), kind
        # the certificate lists the tight facets by their positions in
        # the facet table, as membership does, and they span what all
        # the tight rows span
        assert cert.tight_rows == mem.tight_rows, kind
        tight = [k for k, (c, rhs, _) in enumerate(_reference_hrep_rows(lat))
                 if _row_value(c, p.values) == rhs]
        assert cert.normal_rank == _dense_normal_rank(lat, tight), kind
        assert cert.is_vertex == (cert.normal_rank == H.ambient_dim)
        certified.add(kind)
    assert certified == {k for k in kinds if not k.startswith("raised")}
    assert len(kinds) == 2 * len(certified)


@pytest.mark.parametrize("fixture", ["lat24", "lat33"])
def test_vertex_normal_rank_matches_dense_reference(fixture, request):
    _check_certificates(request.getfixturevalue(fixture))


def _full_tight_rank(lat, full_rows, p):
    """The rank of the normals of the rows of the full text, read back
    by _text_rows, that are tight at the point, after checking that the
    point satisfies every one of them."""
    assert all(_row_value(c, p.values) <= rhs for c, rhs in full_rows)
    return _int_rank([_dense_normal(lat, c, full=True) for c, rhs in full_rows
                      if _row_value(c, p.values) == rhs])


@pytest.mark.parametrize("fixture", ["lat24", "lat33"])
def test_unreduced_vertex_normal_rank_matches_dense_reference(fixture, request):
    # the full text's system, with the column v_0 and the rows
    # +-v_0 <= 0, certifies the same points: at a feasible point its
    # tight facet rows are membership's, those two are tight, and the
    # normals of its tight rows have rank one more than the
    # certificate's, over one more column
    lat = request.getfixturevalue(fixture)
    H = build_hrep(lat)
    full_rows = _text_rows(H, full=True)
    zero_rows = (len(H.rows), len(H.rows) + 1)
    row = facet_row_numbers(lat)
    facet = set(row)
    certified = 0
    for kind, p in _point_kinds(lat, random.Random(41)):
        mem = membership(H, p)
        if mem.status == "outside":
            continue
        tight = tuple(k for k, (c, rhs) in enumerate(full_rows)
                      if _row_value(c, p.values) == rhs)
        assert tuple(k for k in tight if k in facet) == tuple(
            row[i] for i in mem.tight_rows), kind
        assert tight[-2:] == zero_rows, kind
        assert (_full_tight_rank(lat, full_rows, p)
                == is_vertex(H, p).normal_rank + 1), kind
        certified += 1
    assert certified


def _facet_normals(lat):
    """The sparse normal of each entry of the lattice's facet table, in
    the table's order, as the reference rows write them."""
    return [table_row(lat, f)[0] for f in lat.facets]


def _integral_points(lat, rng):
    """(kind, point) for the uniform q-matroids, a paving q-matroid for
    each k in 2 .. n-1, and a code-induced point."""
    pts = [("uniform", uniform(lat, k)) for k in range(lat.n + 1)]
    pts += [("paving", paving(paving_spec(
        lat, k, random_paving_collection(rng, lat, k)))) for k in range(2, lat.n)]
    pts.append(("code-induced", _random_code_point(rng, lat)))
    return pts


@pytest.mark.parametrize("fixture", ["lat34", "lat25"])
def test_vertex_normal_rank_matches_the_reference_kernel(fixture, request):
    # the certificate's rank equals that of the reference kernel, which
    # reduces every row in full, on the same tight facet normals in the
    # same order: every point kind of (3,4), the integral and
    # code-induced points of (2,5)
    lat = request.getfixturevalue(fixture)
    H = build_hrep(lat)
    normals = _facet_normals(lat)
    rng = random.Random(43)
    pts = (_point_kinds(lat, rng) if fixture == "lat34"
           else _integral_points(lat, rng))
    certified = set()
    for kind, p in pts:
        try:
            cert = is_vertex(H, p)
        except NotFeasible:
            continue
        rows = [normals[i] for i in cert.tight_rows]
        assert cert.normal_rank == reference_sparse_rank(rows), kind
        certified.add(kind)
    assert certified == {k for k, _ in pts if not k.startswith("raised")}


@pytest.mark.parametrize("fixture", ["lat23", "lat33", "lat24"])
@pytest.mark.parametrize("full", [True, False])
def test_facet_row_numbers_match_the_reference(fixture, full, request):
    # the atom bounds, the top covers and the diamonds sit, in both
    # texts, at the row numbers of the facet positions the certificates
    # report, in row order, and each facet-table entry is the row at its
    # number (less v_0, which the full text keeps in a zero meet)
    lat = request.getfixturevalue(fixture)
    row = facet_row_numbers(lat)
    assert list(row) == sorted(set(row))
    ref = _reference_hrep_rows(lat, full)
    hyperplanes = lat.covers_down[lat.top]
    atoms, tops = len(lat.atom_range), len(hyperplanes)
    tags = [ref[k][2] for k in row]
    assert tags[:atoms] == [("type1", a) for a in lat.atom_range]
    assert tags[atoms:atoms + tops] == [("type2", h, lat.top)
                                       for h in hyperplanes]
    assert tags[atoms + tops:] == [("type3", x, y)
                                   for x, y, _, _ in lat.diamonds]
    assert all(table_row(lat, f) == _reference_hrep_rows(lat)[k][:2]
               for k, f in zip(row, lat.facets))


@pytest.mark.parametrize("fixture", ["lat23", "lat33", "lat24", "lat25"])
def test_facets_are_rows_of_h(fixture, request):
    # the facet table is in the rows' format: each entry is a row of the
    # system, padding and all, no row twice, in row order, and H counts
    # the rows they are among
    lat = request.getfixturevalue(fixture)
    row = facet_row_numbers(lat)
    assert len(row) == len(lat.facets)
    assert list(row) == sorted(set(row))
    assert row[-1] < len(build_hrep(lat).rows)


def test_pair_row_numbers_25(lat25):
    H = build_hrep(lat25)
    rows = reference_rows(lat25)
    pairs = reference_pairs(lat25)
    start = len(H.rows) - len(pairs)
    assert rows[start:] == pairs
    assert all(y == lat25.size for _, y, _, _ in rows[:start])
    diamonds = facet_row_numbers(lat25)[-len(lat25.diamonds):]
    assert list(diamonds) == [
        k for k, (x, y, m, _) in enumerate(pairs, start)
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
    # every row of the system is a nonnegative sum of facet rows
    # and other rows with the same right-hand side, so the facets imply it
    lat = request.getfixturevalue(fixture)
    ref = _reference_hrep_rows(lat)
    row = {tag: (coeffs, rhs) for coeffs, rhs, tag in ref}
    facets = [ref[k][2] for k in facet_row_numbers(lat)]
    diamonds = {tag[1:] for tag in facets if tag[0] == "type3"}
    hyperplanes = [tag[1] for tag in facets if tag[0] == "type2"]
    top = lat.top

    def pair(x, y):
        return row["type3", min(x, y), max(x, y)]

    for x, y, _, _ in reference_pairs(lat):
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
        h = next(h for h in hyperplanes if not lat.leq(a, h))
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
    # forward checking on the diamonds visits 45,920 nodes on L(F_2^4)
    # and exactly 935 on L(F_3^3); a propagation weaker than the
    # diamonds would pass the latter cap
    with pytest.raises(TooLarge):
        lattice_points(lat24, max_nodes=10_000)
    assert len(lattice_points(lat33, max_nodes=935)) == 56
    with pytest.raises(TooLarge):
        lattice_points(lat33, max_nodes=934)


def test_certifiers_and_searches_read_only_facets(monkeypatch, lat22, lat23,
                                                 lat32):
    # membership, affine_dimension, is_vertex, check_axioms, double
    # description, f_vector and the integer-point search read the facet
    # table and the diamonds, never the whole system, which only the
    # text writes out, pair block and all
    def fail(*_):
        raise AssertionError("the rows were read")

    monkeypatch.setattr(HRepresentation, "text_lines", fail)
    hreps = [build_hrep(lat) for lat in (lat22, lat23, lat32)]
    for H in hreps[1:]:
        lat = H.lattice
        verts = enumerate_vertices(H)
        assert all(is_vertex(H, v).is_vertex for v in verts)
        assert all(check_axioms(v).ok for v in verts)
        assert membership(H, interior_witness(lat)).status == "interior"
        assert membership(H, verts[-1]).status == "boundary"
        raised = rank_point(lat, [v + 1 for v in verts[-1].values])
        assert membership(H, raised).status == "outside"
        assert not check_axioms(raised).ok
        assert affine_dimension(H) == lat.size - 1
    assert f_vector(hreps[0]) == (6, 15, 18, 9)
    assert f_vector(hreps[2]) == (11, 41, 70, 52, 14)
    assert len(lattice_points(build_lattice(3, 3))) == 56


def test_every_lattice_point_is_vertex_and_not_interior(lat22, lat32):
    for lat in (lat22, lat32):
        H = build_hrep(lat)
        for p in lattice_points(lat):
            assert membership(H, p).status == "boundary"
            assert is_vertex(H, p).is_vertex


def test_is_vertex_rejects_infeasible(lat22):
    H = build_hrep(lat22)
    with pytest.raises(NotFeasible):
        is_vertex(H, rank_point(lat22, [0, 1, 1, 1, 3]))


def test_not_feasible_names_a_bounded_number_of_rows(lat22, lat25):
    # a top of 3 on L(F_2^2) fails the 3 diamonds of its atom pairs; on
    # L(F_2^5), atoms at 0 and every other space at its dimension fail
    # the diamond of each of the 465 atom pairs, and the message gives
    # that count and the first three facets only, as axiom instances
    cases = [(lat22, [0, 1, 1, 1, 3], 3,
              "point violates 3 facets: R3 (1, 2), R3 (1, 3), R3 (2, 3)"),
             (lat25, [0 if d == 1 else d for d in lat25.dims], 465,
              "point violates 465 facets: R3 (1, 2), R3 (1, 3), R3 (1, 4), "
              "...")]
    for lat, values, count, message in cases:
        H = build_hrep(lat)
        p = rank_point(lat, values)
        assert len(membership(H, p).violated_rows) == count
        with pytest.raises(NotFeasible) as err:
            is_vertex(H, p)
        assert str(err.value) == message
        assert len(str(err.value)) < 80
        # the instances are those check_axioms reports, in its order
        named = ", ".join(f"{a} ({', '.join(map(str, w))})"
                          for a, w, _ in check_axioms(p).violations[:3])
        assert message.startswith(f"point violates {count} facets: {named}")


@pytest.mark.parametrize("fixture", ["lat23", "lat24"])
def test_certifying_a_point_walks_the_facet_table_once(monkeypatch, fixture,
                                                       request):
    # check_axioms, then membership and is_vertex, evaluate the point's
    # facet status once, and they answer as on a fresh equal point,
    # whose status nothing read before; every kind of point the
    # benchmark certifies, an MRD combination included
    lat = request.getfixturevalue(fixture)
    H = build_hrep(lat)
    mrd = mrd_combo_independence(lat.n, 2, 1, Fraction(1, 3), lattice=lat)
    kinds = _point_kinds(lat, random.Random(41)) + [("mrd combo", mrd.point)]
    walks = []
    evaluate = rankfun._facet_status

    def counting(*args):
        walks.append(args)
        return evaluate(*args)

    monkeypatch.setattr(rankfun, "_facet_status", counting)
    outside = 0
    for kind, q in kinds:
        p, fresh = rank_point(lat, q.values), rank_point(lat, q.values)
        walks.clear()
        rep = check_axioms(p)
        mem = membership(H, p)
        try:
            cert = is_vertex(H, p)
        except NotFeasible as exc:
            cert = str(exc)
        assert len(walks) == 1, kind
        # the certificates report the facet status's positions as they are
        status = p.facet_status
        assert (mem.tight_rows, mem.violated_rows) == (status.tight,
                                                       status.violated), kind
        if rep.ok:
            assert cert.tight_rows == status.tight, kind
        assert fresh == p and hash(fresh) == hash(p)
        assert membership(H, fresh) == mem, kind
        if rep.ok:
            assert is_vertex(H, fresh) == cert, kind
        else:
            outside += 1
            with pytest.raises(NotFeasible) as err:
                is_vertex(H, fresh)
            assert str(err.value) == cert, kind
        assert len(walks) == 2, kind
    assert outside


def test_a_cached_status_keeps_the_lattice_guard(lat22, lat32):
    p = uniform(lat32, 1)
    assert check_axioms(p).ok and is_vertex(build_hrep(lat32), p).is_vertex
    H = build_hrep(lat22)
    for certify in (membership, is_vertex):
        with pytest.raises(DimensionMismatch):
            certify(H, p)


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
    assert affine_dimension(build_hrep(lat)) == dim


def test_vertices_22(lat22):
    H = build_hrep(lat22)
    verts = enumerate_vertices(H)
    assert {tuple(int(v) for v in p.values) for p in verts} == PAPER_POINTS_22


def test_vertices_32(lat32):
    H = build_hrep(lat32)
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
    H = build_hrep(build_lattice(q, 2))
    assert ([p.values for p in enumerate_vertices(H)]
            == [p.values for p in rank_test_vertices(H)])


def test_vertices_deterministic(lat32):
    H = build_hrep(lat32)
    a = [tuple(p.values) for p in enumerate_vertices(H)]
    b = [tuple(p.values) for p in enumerate_vertices(H)]
    assert a == b == sorted(a)


def test_vertex_enum_cap(lat24):
    H = build_hrep(lat24)
    with pytest.raises(TooLarge):
        enumerate_vertices(H)  # ambient dim 66 > 15


def test_midpoint_convexity(lat23):
    rng = random.Random(21)
    H = build_hrep(lat23)
    pts = lattice_points(lat23)
    for _ in range(40):
        a, b = rng.sample(pts, 2)
        mid = rank_point(lat23, [(x + y) / 2 for x, y in zip(a.values, b.values)])
        assert membership(H, mid).status != "outside"


def _edge_count_by_rank_certificates(H, verts):
    dim = H.ambient_dim
    rows = _reference_hrep_rows(H.lattice)
    tight = []
    for p in verts:
        tight.append([k for k, (coeffs, rhs, _) in enumerate(rows)
                      if _row_value(coeffs, p.values) == rhs])
    edges = 0
    for i in range(len(verts)):
        ti = set(tight[i])
        for j in range(i + 1, len(verts)):
            if _dense_normal_rank(H.lattice, ti.intersection(tight[j])) == dim - 1:
                edges += 1
    return edges


def test_f_vector_22_computed(lat22):
    """The paper's example prints (6, 15, 19, 9), which cannot be correct:
    Euler's relation for 4-polytopes forces f0 - f1 + f2 - f3 = 0, and
    f0 = 6, f3 = 9 are the paper's own vertex and facet counts while
    f1 = 15 is recomputed below from exact rank certificates.  Stepping
    from each face to its facets on the vertex-facet incidences gives 18
    two-faces, Euler-consistent."""
    H = build_hrep(lat22)
    fv = f_vector(H)
    assert fv == (6, 15, 18, 9)
    assert sum((-1) ** i * c for i, c in enumerate(fv)) == 0
    verts = enumerate_vertices(H)
    assert _edge_count_by_rank_certificates(H, verts) == 15


def test_f_vector_32_regression(lat32):
    # frozen from the incidence-closure oracle; alternating sum 2 (dim 5)
    fv = f_vector(build_hrep(lat32))
    assert fv == (11, 41, 70, 52, 14)
    assert sum((-1) ** i * c for i, c in enumerate(fv)) == 2


# the standard 4-simplex {v >= 0, sum v_i <= 1}: its vertices 0 and the
# unit vectors e_1 .. e_4, and the vertex set of each facet (v_i = 0
# holds at all but e_i; the sum is 1 at all but 0)
_SIMPLEX_COORDS = [(0, 0, 0, 0)] + [tuple(int(i == j) for j in range(4))
                                    for i in range(4)]
_SIMPLEX_FACETS = [set(range(5)) - {i + 1} for i in range(4)] + [{1, 2, 3, 4}]


def _simplex_face_counts():
    return polytope._face_counts(sum(1 << v for v in f) for f in _SIMPLEX_FACETS)


def test_f_vector_simplex():
    assert _simplex_face_counts() == (5, 10, 10, 5)  # binomial C(5, k+1)


@cache
def _f_vector_q2(q):
    return f_vector(build_hrep(build_lattice(q, 2)))


@pytest.mark.parametrize("case,d", [("P(2,2)", 4), ("P(3,2)", 5),
                                    ("P(4,2)", 6), ("simplex", 4),
                                    ("P(5,2)", 7), ("P(7,2)", 9)])
def test_f_vectors_satisfy_euler(case, d):
    # every f-vector the suite computes: f_0 - f_1 + ... over the faces
    # of dimension 0 .. d-1 of a d-polytope is 1 - (-1)^d
    fv = (_simplex_face_counts() if case == "simplex"
          else _f_vector_q2(int(case[2])))
    assert len(fv) == d
    assert sum((-1) ** i * f for i, f in enumerate(fv)) == 1 - (-1) ** d


@pytest.mark.parametrize("q,fv", [
    (5, (50, 358, 969, 1205, 735, 216, 27)),
    (7, (229, 2227, 8040, 14560, 14966, 9086, 3164, 568, 44)),
])
def test_f_vector_past_dimension_6(q, fv):
    # P(5,2) and P(7,2), of dimension 7 and 9: f_0 = 2^N - C(N,2) + 1
    # and f_{d-1} = 2N + C(N,2), the facet table, for N = q + 1 atoms
    assert _f_vector_q2(q) == fv
    n = q + 1
    assert fv[0] == 2 ** n - n * (n - 1) // 2 + 1
    assert fv[-1] == 2 * n + n * (n - 1) // 2


def _incidence_sets(H, verts):
    """The vertex set of each entry of the facet table, found by
    evaluating the reference rows (helpers.table_row) at each vertex."""
    lat = H.lattice
    out = []
    for row in lat.facets:
        coeffs, rhs = table_row(lat, row)
        out.append(frozenset(i for i, p in enumerate(verts)
                             if sum(v * p.values[c] for c, v in coeffs) == rhs))
    return out


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_maximal_incidence_sets_are_the_facet_table(q):
    # every facet of P(q,2) is one entry of the facet table, and no two
    # entries cut out one face: the inclusion-maximal incidence sets
    # number exactly len(lat.facets), each the set of one entry
    lat = build_lattice(q, 2)
    H = build_hrep(lat)
    sets = _incidence_sets(H, enumerate_vertices(H))
    maximal = {s for s in sets if not any(s < t for t in sets)}
    assert len(maximal) == len(set(sets)) == len(lat.facets)


@pytest.mark.parametrize("case", ["P(2,2)", "P(3,2)", "P(4,2)", "simplex"])
def test_reference_closure_agrees_with_f_vector(case):
    # the intersection closure with an affine rank per face
    # (helpers.reference_face_counts) against the level recursion
    if case == "simplex":
        assert (reference_face_counts(_SIMPLEX_COORDS, _SIMPLEX_FACETS)
                == _simplex_face_counts())
        return
    H = build_hrep(build_lattice(int(case[2]), 2))
    verts = enumerate_vertices(H)
    coords = [p.values[1:] for p in verts]
    assert (reference_face_counts(coords, _incidence_sets(H, verts))
            == f_vector(H))


def test_unreduced_vertex_certificates(lat22):
    # U_{2,2} is a vertex of the full text's system too: its tight rows
    # there have rank 5, the number of columns v_0 .. v_4
    H = build_hrep(lat22)
    u = uniform(lat22, 2)
    assert _full_tight_rank(lat22, _text_rows(H, full=True), u) == 5
    cert = is_vertex(H, u)
    assert cert.is_vertex and cert.normal_rank == 4


def test_unreduced_vertex_enumeration_agrees(lat22, lat32):
    # every vertex that double description finds is a vertex of the
    # full text's system
    for lat in (lat22, lat32):
        H = build_hrep(lat)
        full_rows = _text_rows(H, full=True)
        for p in enumerate_vertices(H):
            assert _full_tight_rank(lat, full_rows, p) == lat.size


def test_membership_lattice_guard(lat22, lat32):
    from qrank.errors import DimensionMismatch
    H = build_hrep(lat22)
    with pytest.raises(DimensionMismatch):
        membership(H, uniform(lat32, 1))


def test_fractional_vertex_32(lat32):
    # P(3,2) has rational non-integer vertices; pick one from the run
    H = build_hrep(lat32)
    verts = enumerate_vertices(H)
    frac = [p for p in verts if not p.is_integral()]
    assert len(frac) == 4
    for p in frac:
        assert is_vertex(H, p).is_vertex
        assert check_axioms(p).ok


def test_hrep_structural_invariants(lat23):
    H = build_hrep(lat23)
    size = lat23.size
    kinds = Counter()
    for row in reference_rows(lat23):
        x, y, m, j = row
        kind = _row_tag(lat23, row)[0]
        kinds[kind] += 1
        if kind == "type3":
            assert not lat23.leq(x, y) and not lat23.leq(y, x)
            assert (m, j) == (lat23.meet(x, y), lat23.join(x, y))
        elif kind == "type1":
            assert (x, y, j) == (size + lat23.dims[m], size, size)
        elif kind == "nonneg":
            assert lat23.dims[x] == 1 and y == m == j == size
        else:  # the cover m < x
            assert m != lat23.zero and m in lat23.covers_down[x]
            assert y == j == size
    assert kinds["type1"] == lat23.top and kinds["nonneg"] == len(lat23.atom_range)
    assert sum(kinds.values()) == len(H.rows)


def test_polytope_4_2_extension_field():
    # frozen from the double-description run over GF(4)
    from qrank.subspaces import build_lattice
    lat = build_lattice(4, 2)
    H = build_hrep(lat)
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
    d = H.ambient_dim
    rows = []
    for coeffs, rhs, _ in _reference_hrep_rows(lat):
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
    H = build_hrep(lat)
    oracle = _brute_force_vertices(H)
    dd = {tuple(p.values[1:]) for p in enumerate_vertices(H)}
    assert dd == oracle


def test_polytope_5_2_regression():
    # frozen from the double-description run over GF(5)
    from qrank.subspaces import build_lattice
    lat = build_lattice(5, 2)
    H = build_hrep(lat)
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
