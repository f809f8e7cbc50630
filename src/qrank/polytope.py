"""The polytope of all q-rank functions, in H-representation.

A q-rank function has r(0) = 0, so v_0 is fixed at zero and the
polytope lives on the nonzero subspaces.  Rows use the
redundancy-filtered system on those coordinates: type-1 upper bounds
v_X <= dim X on every nonzero subspace, nonnegativity on atoms, type-2
monotonicity only on cover pairs not starting at the zero space, and
type-3 submodularity only on unordered incomparable pairs, where a zero
meet drops out.  The unreduced system, which keeps the column v_0 and
pins it with the rows v_0 <= 0 and -v_0 <= 0, is only a rendering of
these rows (HRepresentation.text_lines with full set).

Every row has one format, that of SubspaceLattice.facets: a row
(x, y, m, j) holds iff w[m] + w[j] <= w[x] + w[y], where
w = (0, mu v_1, .., mu v_top, 0, mu, 2 mu, .., n mu) is the point's
padded vector (SubspaceLattice.padded): v_0 reads 0, and index
size + d reads d mu.  The lattice owns the rows, one tuple in row order
(SubspaceLattice.rows), and build_hrep returns an HRepresentation whose
rows are that tuple.  The text is produced one line at a time by one
loop per block of rows (HRepresentation.text_lines), so the CLI
streams it.

The facets are a marked subset of these rows, not a second system:
the bounds v_a <= 1 on the atoms, the top covers v_h <= v_top on the
hyperplanes h (the last rows of the cover block), the submodularity
rows on the diamonds, two spaces x, y that both cover their meet
(SubspaceLattice.diamonds).  They are defined once, as the lattice's
facet table (SubspaceLattice.facets).
Every other row is a nonnegative sum of these with the same right-hand
side, by these identities on a modular lattice:
  - a pair (x, y) with meet m, and x' with m < x' covered by x: with
    y' = x' v y, modularity gives x ^ y' = x', so
    row(x, y) = row(x', y) + row(x, y'); by induction on the height
    gap every pair row is a sum of diamond rows (the local-to-global
    argument for submodularity on lattices; Topkis, Oper. Res. 1978);
  - a cover x < y below the top, and y' another cover of x:
    cover(x, y) = diamond(x; y, y') + cover(y', y v y');
  - a bound on X with dim X >= 2, a hyperplane X' of X and an atom a of
    X not in X': bound(X) = pair(X', a) + bound(X') + bound(a);
  - atom nonnegativity, with h a hyperplane not above a:
    -v_a <= 0 is pair(a, h) + cover(h, top).
So the facets hold iff every row holds, and at a feasible point a
tight row forces its summands tight, so a point is outside iff it
violates a facet, interior iff every facet is strict, and the tight
rows and the tight facets span the same normals.  membership,
is_vertex, check_axioms' fast path (rankfun), double description and
f_vector read the facet table alone; each entry is a row of H, and
H.facet_rows gives its row number, counted once when H is built (the
atom bound on a is row a - 1, and HRepresentation.pair_rows numbers
diamonds from the masks), so a report names rows of the whole system.
The whole tuple of rows is read only by the text and by the literal
axiom check (rankfun).

Facets are evaluated on mu-scaled integers (rankfun.scaled_values): a
point is multiplied once by the lcm mu of its denominators and padded,
and one plain loop over the facet table (_facets_at) files facet i as
tight or violated by comparing w[m] + w[j] with w[x] + w[y], in Python
ints; membership, is_vertex and f_vector all read its result.

Every rank is taken by one exact kernel, _rank: Gauss-Jordan elimination
in Python ints over the normals of tight facets, the only rows not in
the (x, y, m, j) format: _normals writes each as its at most four
nonzero (column, value) entries.  Each pivot row is primitive and holds
no other pivot's column, and an index maps each free column to the rows
that hold it, so a row is reduced in one pass over its own entries, and
a new pivot is cleared from only the rows that hold its column.  Most
tight facet rows turn out dependent, and two tests skip them cheaply: a
pivot column is solved once its row holds it alone, so a row on solved
columns only is skipped before any dict is built; and at one rank below
the column count the pivot rows leave one free column, so after the
first dependent row each row costs one dot product with their null
vector.  Vertex certification
ranks the tight facet normals, so every certificate is checkable by
hand; the elimination stops once the rank reaches the number of columns,
since no further row can raise it.  f_vector takes no rank: it reads
each vertex's tight facets as bitsets over the vertices and steps from
each face to its facets, so a face's dimension is its level.

Two search kernels materialize points.  Vertex enumeration runs an
exact integer double description pass whose rays are padded vectors
with t in place of mu, so each constraint is a row read by the same four
lookups (the type-1 bounds and t >= 0 for the initial cone, then the top
covers and the diamonds), with the combinatorial adjacency test in
bitset form: two rays are adjacent iff no third ray is tight on every
constraint tight at both (Fukuda & Prodon 1996), read off an AND of
per-constraint bitsets over the rays.  The integer points (the
q-matroids) come from a depth-first search that forward-checks bounds
on the spaces not yet assigned, propagating the diamonds.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .errors import DimensionMismatch, NotFeasible, TooLarge
from .rankfun import rank_point, scaled_values

MAX_VERTEX_ENUM_DIM = 15
MAX_FVECTOR_DIM = 10
MAX_DFS_NODES = 100_000


class HRepresentation:
    """The H-representation of the polytope on the lattice, over the
    columns v_1 .. v_top.  rows is the lattice's tuple of rows
    (SubspaceLattice.rows), not a copy, and facet_rows is the row number
    of each entry of the lattice's facet table, which is that row:
    rows[facet_rows[i]] == facets[i]."""

    def __init__(self, lattice):
        self.lattice = lattice
        size = lattice.size
        # built here, in the set-up, for the text and for check_axioms'
        # literal walk, the only readers of every row; no status reads it
        lattice.rows
        # _pair_base[x] + x is the first pair row of x: each x'' < x
        # has one row for each of the size - x'' - |above x''| spaces
        # after it that do not lie above it (see pair_rows)
        _, _, pairs = lattice.row_starts
        base, pair_offset = [], pairs
        for x, ax in enumerate(lattice.above_mask):
            base.append(pair_offset - x)
            pair_offset += size - x - ax.bit_count()
        self._pair_base = tuple(base)
        self._low = tuple((1 << y) - 1 for y in range(size))
        # the row number of each entry of lattice.facets, counted here so
        # that no query counts them: the bound on atom a is row a - 1,
        # and the top covers end the cover block
        top_covers = len(lattice.covers_down[lattice.top])
        self.facet_rows = (tuple(a - 1 for a in lattice.atom_range)
                           + tuple(range(pairs - top_covers, pairs))
                           + tuple(self.pair_rows(lattice.diamonds)))

    @property
    def rows(self):
        return self.lattice.rows

    @property
    def ambient_dim(self):
        return self.lattice.size - 1

    def pair_rows(self, pairs):
        """The row numbers of the pair rows on pairs, (x, y, meet, join)
        entries of the pair block such as the diamonds, counted from the
        masks with no pass over the rows: the pairs (x, y') before
        (x, y) are the y' strictly between x and y not above x."""
        base, above, low = self._pair_base, self.lattice.above_mask, self._low
        return [base[x] + y - (above[x] & low[y]).bit_count()
                for x, y, _, _ in pairs]

    def text_lines(self, full=False):
        """The text one line at a time, each ending in a newline.
        Line 1: HREP <rows> <dim>; then one inequality a.v <= b per
        line as space-separated reduced rationals a_1 .. a_dim b.

        With full, the unreduced system: the columns start at v_0,
        which keeps its 1 in the zero-meet pair rows, and the rows
        v_0 <= 0 and -v_0 <= 0 come last.  One loop per block of rows
        (the bounds, the atoms, the covers, the pairs); each line is an
        f-string over the runs of zeros between the row's few nonzero
        entries."""
        lat, rows = self.lattice, self.rows
        dims = lat.dims
        o = 0 if full else 1   # column of lattice index i is i - o
        dim = lat.size - o
        top = lat.top  # so z[top - i] zeros follow index i
        atoms, covers, pairs = lat.row_starts  # where each block starts
        z = ["0 " * k for k in range(dim + 1)]
        yield f"HREP {len(rows) + (2 if full else 0)} {dim}\n"
        for _, _, x, _ in rows[:atoms]:
            yield f"{z[x - o]}1 {z[top - x]}{dims[x]}\n"
        for a, _, _, _ in rows[atoms:covers]:
            yield f"{z[a - o]}-1 {z[top - a]}0\n"
        for y, _, x, _ in rows[covers:pairs]:
            yield f"{z[x - o]}1 {z[y - x - 1]}-1 {z[top - y]}0\n"
        for x, y, m, j in rows[pairs:]:
            if m or full:
                yield (f"{z[m - o]}1 {z[x - m - 1]}-1 {z[y - x - 1]}-1 "
                       f"{z[j - y - 1]}1 {z[top - j]}0\n")
            else:  # with no column v_0, a zero meet drops out
                yield (f"{z[x - o]}-1 {z[y - x - 1]}-1 "
                       f"{z[j - y - 1]}1 {z[top - j]}0\n")
        if full:
            yield f"1 {z[top]}0\n"
            yield f"-1 {z[top]}0\n"

    def to_text(self, full=False):
        return "".join(self.text_lines(full))


def build_hrep(lattice):
    """H-representation of the q-rank polytope on the given lattice.

    Builds the lattice's rows and its diamonds, which the facet table
    holds, here, so their one-time cost falls in the set-up and not in
    the first query; two calls on one lattice share one rows tuple."""
    return HRepresentation(lattice)


# status is "interior", "boundary" or "outside"
Membership = namedtuple("Membership", "status tight_rows violated_rows")


def membership(H, p):
    """The status of the point, decided on the facet rows alone
    (_facets_at): outside when it violates a facet, boundary when it is
    tight on one, interior when every facet is strict.  tight_rows and
    violated_rows are the row numbers of those facets (H.facet_rows), in
    row order.

    This reads no other row, and the status is that of the whole
    system: every row is a nonnegative sum of facet rows with the same
    right-hand side, so a row is violated only where some facet is, and
    at a feasible point a tight row forces its summands tight."""
    tight, violated = _facets_at(H, p)
    rows = H.facet_rows
    tight = tuple(rows[i] for i in tight)
    if violated:
        return Membership("outside", tight, tuple(rows[i] for i in violated))
    return Membership("boundary" if tight else "interior", tight, ())


VertexCertificate = namedtuple("VertexCertificate",
                               "point tight_rows normal_rank is_vertex")


def is_vertex(H, p):
    """Certify the point on the facet rows alone (_facets_at): a
    violated facet raises NotFeasible naming the violated facet rows.
    The certificate lists the row numbers of the tight facets and the
    rank of their normals, taken by exact elimination; the point is a
    vertex iff that rank equals the ambient dimension.  The normals have
    ambient_dim columns, so elimination may stop at that rank and stay
    exact.

    The result is that of the whole system, as in membership, and a
    tight row at a feasible point forces its summands tight, so the
    tight rows and the tight facets have normals of equal span
    (_normals)."""
    tight, violated = _facets_at(H, p)
    rows, facets = H.facet_rows, H.lattice.facets
    if violated:
        raise NotFeasible("point violates facet rows "
                          f"{tuple(rows[i] for i in violated)}")
    rank = _rank(_normals([facets[i] for i in tight], H.lattice.top),
                 full=H.ambient_dim)
    return VertexCertificate(p, tuple(rows[i] for i in tight), rank,
                             rank == H.ambient_dim)


def _facets_at(H, p):
    """(tight, violated): the positions in the lattice's facet table
    (SubspaceLattice.facets) of the facets tight and violated at the
    point, each in increasing order, which is row order.  One loop over
    the table on the point's padded vector w: facet (x, y, m, j) is
    tight when w[m] + w[j] == w[x] + w[y] and violated when it is
    greater.  The system has no v_0, so the point's value there is read
    as 0 (SubspaceLattice.padded)."""
    lat = H.lattice
    if p.lattice is not lat:
        raise DimensionMismatch(
            "point and H-representation use different lattices")
    w = lat.padded(*scaled_values(p.values))
    tight, violated = [], []
    for i, (x, y, m, j) in enumerate(lat.facets):
        if w[m] + w[j] >= w[x] + w[y]:  # no slack kept: most are strict
            (violated if w[m] + w[j] > w[x] + w[y] else tight).append(i)
    return tight, violated


def _normals(facets, top):
    """The sparse normals, over the columns of the lattice indices, of
    entries of the facet table on a lattice with top index top: e_a for
    an atom bound, e_h - e_top for a top cover, and e_m - e_x - e_y + e_j
    for a diamond, with v_0 left out of a zero meet, as in the
    system's rows."""
    out = []
    for x, y, m, j in facets:
        if y > top:  # an atom bound (x > top reads mu) or a top cover
            out.append(((m, 1),) if x > top else ((m, 1), (x, -1)))
        elif m:
            out.append(((m, 1), (x, -1), (y, -1), (j, 1)))
        else:
            out.append(((x, -1), (y, -1), (j, 1)))
    return out


def interior_witness(lattice):
    """The point v_X = dim(X) / (dim(X) + 1); strictly inside."""
    return rank_point(lattice, (Fraction(d, d + 1) for d in lattice.dims))


def affine_dimension(H):
    """The dimension of the polytope, certified by the interior witness
    being strict on every facet, and so on every row (membership): one
    less than the lattice size, the number of columns, since v_0 is
    fixed at 0 and has no column."""
    if membership(H, interior_witness(H.lattice)).status != "interior":
        raise AssertionError("interior witness failed; cannot certify dimension")
    return H.lattice.size - 1


def lattice_points(lattice, max_nodes=MAX_DFS_NODES):
    """All integer points of the polytope, i.e. all q-matroid rank
    functions on the lattice.

    Depth-first search in the lattice's linear order, with forward
    checking: every space not yet assigned keeps bounds lo <= v <= hi
    (at first 0 and its dimension).  Setting v_Z = v raises lo to v on
    every space above Z (monotonicity), lowers hi to v + 1 on every
    upper cover of Z (on a cover X < Y, v_Y <= v_X + 1 is submodularity
    against an atom), and, for each diamond X < Z with meet M and join J,
    lowers hi on J to v_X + v - v_M (submodularity), so a diamond row is
    applied as soon as the later space of its pair is set.  Every facet
    (SubspaceLattice.facets) is then enforced by the time its last space
    is set, so every leaf is a point; the other pair rows are sums of
    diamond rows and would only cut earlier.  A branch is cut once some
    bounds cross; the changes are undone on backtrack.  Values are tried
    in increasing order, so the points come out sorted by their values,
    and forward checking removes only values no point takes, so the
    points are the same as without it.

    Raises TooLarge once the search has visited more than max_nodes
    partial assignments (the default admits L(F_2^4), 45,920, and
    L(F_7^3), 16,731, and refuses L(F_2^5) within seconds)."""
    lat = lattice
    size = lat.size
    # above[z]: the spaces j > z over z, the bits of its above-mask
    above = [[j for j in range(z + 1, size) if mask >> j & 1]
             for z, mask in enumerate(lat.above_mask)]
    covers_up = lat.covers_up
    later = [[] for _ in range(size)]  # later[y]: (x, meet, join), x < y
    for x, y, m, j in lat.diamonds:
        later[y].append((x, m, j))
    lo = [0] * size
    hi = list(lat.dims)
    vals = [0] * size
    as_fraction = [Fraction(v) for v in range(lat.n + 1)]
    trail = []  # (bounds list, index, old value), undone on backtrack
    out = []
    nodes = 0

    def assign(z, v):
        """Set v_z = v and tighten the bounds it implies; False once
        some space is left with no value."""
        vals[z] = v
        for j in above[z]:
            if lo[j] < v:
                trail.append((lo, j, lo[j]))
                lo[j] = v
                if v > hi[j]:
                    return False
        w = v + 1
        for j in covers_up[z]:
            if hi[j] > w:
                trail.append((hi, j, hi[j]))
                hi[j] = w
                if lo[j] > w:
                    return False
        for x, m, j in later[z]:
            w = vals[x] + v - vals[m]
            if hi[j] > w:
                trail.append((hi, j, hi[j]))
                hi[j] = w
                if lo[j] > w:
                    return False
        return True

    def rec(z):
        nonlocal nodes
        nodes += 1
        if nodes > max_nodes:
            raise TooLarge(f"integer-point search on L(F_{lat.q}^{lat.n}) "
                           f"passed {max_nodes} nodes")
        if z == size:
            out.append(rank_point(lat, [as_fraction[v] for v in vals]))
            return
        for v in range(lo[z], hi[z] + 1):
            mark = len(trail)
            if assign(z, v):
                rec(z + 1)
            while len(trail) > mark:
                bounds, j, old = trail.pop()
                bounds[j] = old

    rec(1)
    return out


# -- exact linear algebra helpers ---------------------------------------

def _rank(rows, full=None):
    """Rank over Q of an integer matrix given as sparse rows, each a
    sequence of (column, value) pairs with distinct columns, such as the
    tight facet normals (_normals).  With full set to the number of
    columns (or any known bound on the rank), the remaining rows are
    skipped once that many pivots are found.

    Exact Gauss-Jordan elimination in ints.  Each pivot row is
    primitive, positive at its pivot column and zero at every other
    pivot column, and an index maps each free column to the pivot
    columns whose rows hold it.  So an incoming row is reduced in one
    pass over its own pivot entries, in any order, each cleared by one
    multiple of that pivot's row, and what is left lies on free columns
    and is the same up to a positive factor whatever the order.  If it
    does not vanish, it becomes the pivot of its first column, which is
    cleared from just the rows that hold it.

    A pivot column is solved once its row holds it alone, so e_c is in
    the span; that row never changes again, and reducing by it only
    drops column c.  A row whose columns are all solved is dependent and
    is skipped before any dict is built, and the solved columns of any
    other row are dropped as it is read.  At rank full - 1, the first
    row reduced to zero builds the null vector of the pivot rows
    (_null_vector), which needs them to hold one free column f between
    them, as they do when full is the number of columns.  A later row on
    the pivot columns and f lies in their span iff its dot product with
    that vector vanishes; a row with any other column is reduced."""
    pivots = {}   # pivot column -> its row {column: value}
    holders = {}  # free column -> the pivot columns whose rows hold it
    solved = set()  # pivot columns whose rows hold no other column
    null = None   # at rank full - 1: {column: y_column}, see _null_vector
    gcd = math.gcd
    for row in rows:
        if len(pivots) == full:
            break
        for c, _ in row:
            if c not in solved:
                break
        else:
            continue
        if null is not None:
            dot = 0
            for c, v in row:
                y = null.get(c)
                if y is None:  # a column the null vector does not cover
                    break
                dot += v * y
            else:
                if not dot:
                    continue
        r = {}  # a loop: a comprehension naming solved is a closure per row
        for c, v in row:
            if v and c not in solved:
                r[c] = v
        for c in r.keys() & pivots.keys():
            p = pivots[c]
            a, b = p[c], r.pop(c)
            if a != 1:
                g = gcd(a, b)
                a, b = a // g, b // g
                if a != 1:
                    r = {k: a * v for k, v in r.items()}
            for k, v in p.items():
                if k != c:
                    x = r.get(k, 0) - b * v
                    if x:
                        r[k] = x
                    else:
                        del r[k]
        if not r:
            if null is None and len(pivots) + 1 == full:
                null = _null_vector(pivots, holders)
            continue
        col = next(iter(r))
        g = gcd(*r.values())
        if r[col] < 0:
            g = -g
        if g != 1:
            r = {k: v // g for k, v in r.items()}
        a = r[col]
        for pc in holders.pop(col, ()):
            p = pivots[pc]
            g = gcd(a, p[col])
            s, t = a // g, p.pop(col) // g
            if s != 1:
                for k in p:
                    p[k] *= s
            for k, v in r.items():
                if k != col:
                    x = p.get(k, 0) - t * v
                    if not x:
                        del p[k]
                        holders[k].discard(pc)
                    else:
                        if k not in p:
                            holders.setdefault(k, set()).add(pc)
                        p[k] = x
            g = gcd(*p.values())
            if g != 1:
                for k in p:
                    p[k] //= g
            if len(p) == 1:
                solved.add(pc)
        pivots[col] = r
        if len(r) == 1:
            solved.add(col)
        for k in r:
            if k != col:
                holders.setdefault(k, set()).add(col)
    return len(pivots)


def _null_vector(pivots, holders):
    """The null vector of _rank's pivot rows when they hold one free
    column f between them, as {column: int} on the pivot columns and f:
    y_f = L, the lcm of the leads of the rows that hold f, and
    y_c = -L p_c[f] / p_c[c] on each pivot column c, so 0 on a solved one.
    Each such row is p_c[c] e_c + p_c[f] e_f, so y is orthogonal to every
    pivot row, and the vectors on these columns orthogonal to y are
    exactly their span.  Empty when the rows hold no free column or
    several."""
    held = [k for k, h in holders.items() if h]
    if len(held) != 1:
        return {}
    f = held[0]
    lead = math.lcm(*(pivots[pc][pc] for pc in holders[f]))
    y = dict.fromkeys(pivots, 0)
    y[f] = lead
    for pc in holders[f]:
        p = pivots[pc]
        y[pc] = -p[f] * (lead // p[pc])
    return y


# -- vertex enumeration: exact double description ------------------------

def _dd_constraints(H):
    """The homogenized constraints of double description in insertion
    order, as rows (x, y, m, j) read on a ray's padded vector, where t
    stands in for mu: first the type-1 rows of H, v_x <= dim(x) t, each
    (size + dim x, size, x, size), and
    the row t >= 0, (size + 1, size, size, size), which cut out the
    initial simplicial cone, then the facet rows not among them: the top
    covers and the diamonds of the facet table, as they are.  Every
    other row is a sum of these (see is_vertex), so it cuts nothing more
    off.

    These come coordinate-major along the lattice order: a row belongs
    to the stage of the last of its spaces in the linear order (the top
    for a top cover, the join for a diamond), which keeps every
    intermediate cone equal to a small prefix polytope crossed with
    down-rays on the untouched coordinates.  The top covers open the
    top's stage, in order of their hyperplanes; the diamonds of a stage
    go by their second space, then their meet, then their first, an
    order that ran P(2,3), P(7,2) and P(9,2) faster than going by their
    first space."""
    lat = H.lattice
    top, zero, dims = lat.top, lat.size, lat.dims
    staged = sorted((f for f in lat.facets if f[0] <= top),  # no atom bound
                    key=lambda f: ((top, 0, f[2], 0) if f[1] > top
                                   else (f[3], f[1], f[2], f[0])))
    return [*((zero + dims[x], zero, x, zero) for x in range(1, zero)),
            (zero + 1, zero, zero, zero), *staged]


def enumerate_vertices(H):
    """All vertices of the polytope, by exact double description.

    Works over the homogenization cone {(v, t) : Av <= bt, t >= 0}: the
    initial simplicial cone comes from the type-1 rows plus the t-row,
    and the remaining rows are inserted one at a time (_dd_constraints).
    Rays are primitive integer vectors in padded form
    (SubspaceLattice.padded with t in place of mu), each with the
    bitmask of the constraints it is tight on; a linear combination of
    padded vectors is padded, so a constraint (x, y, m, j) is read off
    every ray by four lookups, w[m] + w[j] - w[x] - w[y].
    A positive/negative ray pair combines only if it is adjacent: the
    constraints tight at both number at least dim-1 and no third ray is
    tight on all of them.  Each step keeps, per constraint, a bitset
    over the current rays tight on it, so the test is one AND of
    bitsets that must leave exactly the pair.  Output is sorted by
    coordinates.  Raises TooLarge past MAX_VERTEX_ENUM_DIM coordinates."""
    lat = H.lattice
    size = lat.size
    d = size - 1
    if d > MAX_VERTEX_ENUM_DIM:
        raise TooLarge(f"ambient dimension {d} exceeds cap {MAX_VERTEX_ENUM_DIM}")
    cons = _dd_constraints(H)
    D = d + 1  # columns v_1 .. v_d and t; as many initial constraints
    base_mask = (1 << D) - 1
    rays = []
    for k in range(1, size):  # the down-ray -e_k, at t = 0
        down = [0] * size
        down[k] = -1
        rays.append((lat.padded(0, down), base_mask ^ (1 << (k - 1))))
    rays.append((lat.padded(1, lat.dims), base_mask ^ (1 << d)))

    for ci in range(D, len(cons)):
        x, y, m, j = cons[ci]
        bit = 1 << ci
        plus, zero, minus = [], [], []
        for r, (w, z) in enumerate(rays):
            val = w[m] + w[j] - w[x] - w[y]
            if val > 0:
                plus.append((w, z, val, r))
            elif val < 0:
                minus.append((w, z, val, r))
            else:
                zero.append((w, z | bit))
        if not plus:
            rays = zero + [(w, z) for w, z, _, _ in minus]
            continue
        # tight[k]: bitset over the positions in rays of the rays tight
        # on constraint k
        tight = [0] * ci
        for r, (_, z) in enumerate(rays):
            rbit = 1 << r
            while z:
                low = z & -z
                tight[low.bit_length() - 1] |= rbit
                z ^= low
        new = []
        need = D - 2
        for pw, pz, pval, pr in plus:
            pbit = 1 << pr
            for mw, mz, mval, mr in minus:
                z = pz & mz
                if z.bit_count() < need:
                    continue
                # adjacent iff no third ray is tight on all of z: the
                # AND of the tight sets can stop once only the pair is left
                pair = pbit | (1 << mr)
                common = -1
                rest = z
                while rest:
                    low = rest & -rest
                    common &= tight[low.bit_length() - 1]
                    if common == pair:
                        break
                    rest ^= low
                if common != pair:
                    continue
                comb = [pval * b - mval * a for a, b in zip(pw, mw)]
                g = math.gcd(*comb)
                if g > 1:
                    comb = [c // g for c in comb]
                new.append((tuple(comb), z | bit))
        rays = zero + [(w, z) for w, z, _, _ in minus] + new

    verts = []
    for w, _ in rays:
        t = w[size + 1]
        assert t > 0, "unbounded direction survived; polytope must be bounded"
        values = (Fraction(0),) + tuple(Fraction(v, t) for v in w[1:size])
        verts.append(rank_point(lat, values))
    verts.sort(key=lambda p: p.values)
    return verts


def f_vector(H):
    """Face counts by dimension 0 .. dim(P)-1, from the incidence of
    the vertices and the facets tight at each (_facets_at), as bitsets
    over the vertices (_face_counts).  Raises TooLarge past
    MAX_FVECTOR_DIM coordinates, before double description runs."""
    d = H.lattice.size - 1
    if d > MAX_FVECTOR_DIM:
        raise TooLarge(f"ambient dimension {d} exceeds cap {MAX_FVECTOR_DIM}")
    incidence = {}  # facet -> bitset of the vertices tight on it
    for i, p in enumerate(enumerate_vertices(H)):
        for k in _facets_at(H, p)[0]:
            incidence[k] = incidence.get(k, 0) | 1 << i
    return _face_counts(incidence.values())


def _face_counts(incidence):
    """Face counts by dimension 0 .. dim-1 of a polytope, given as the
    vertex bitsets of inequalities that define it, none tight on every
    vertex.  Level by level, as Kaibel & Pfetsch ("Computing the face
    lattice of a polytope from its vertex-facet incidences", Comput.
    Geom. 2002) step from a face to its facets: the facets of P are the
    inclusion-maximal incidence sets, and the facets of a face G are the
    inclusion-maximal sets G & F, over the facets F of P, that are
    neither G nor empty.  So level k holds the faces of dimension
    dim - 1 - k, and the last level the vertices, which have no
    facets."""
    facets = _maximal(set(incidence))
    counts, level = [], facets
    while level:
        counts.append(len(level))
        below = set()
        for g in level:
            below.update(_maximal({g & f for f in facets} - {g, 0}))
        level = below
    return tuple(reversed(counts))


def _maximal(sets):
    """The inclusion-maximal bitsets among sets: by falling size, each
    kept unless a kept one holds it."""
    out = []
    for s in sorted(sets, key=int.bit_count, reverse=True):
        for t in out:
            if s & t == s:
                break
        else:
            out.append(s)
    return out
