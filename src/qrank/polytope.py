"""The polytope of all q-rank functions, in H-representation.

Rows use the redundancy-filtered system: type-1 upper bounds v_X <= dim X
on every nonzero subspace, nonnegativity on atoms, type-2 monotonicity
only on cover pairs not starting at the zero space, and type-3
submodularity only on unordered incomparable pairs.  The unreduced
variant keeps the zero coordinate and pins it with the paired rows
v_0 <= 0 and -v_0 <= 0 (tag "zero").

build_hrep returns an HRepresentation that holds the rows as blocks of
plain index tuples, in row order: the type-1 bounds, the atoms, the
cover pairs (x, y), the lattice's incomparable-pair table
(x, y, meet, join) as it is, and the zero rows.  No row object exists:
H.rows is the range of row numbers, and every reader in this module
walks the blocks (the text, membership, f-vectors and tag counts).
The text is produced one line at a time by one loop per block
(HRepresentation.text_lines), so the CLI streams it.

The facets are a marked subset of these rows, not a second system:
the bounds v_a <= 1 on the atoms, the top covers v_h <= v_top on the
hyperplanes h (the last rows of the cover block), the submodularity
rows on the diamonds, two spaces x, y that both cover their meet
(SubspaceLattice.diamonds), and the zero rows.  Every other row is a
nonnegative sum of these with the same right-hand side, by these
identities on a modular lattice:
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
    -v_a <= 0 is pair(a, h) + cover(h, top) (plus -v_0 <= 0 unreduced).
So the facets hold iff every row holds, and at a feasible point a
tight row forces its summands tight, so the tight rows and the tight
facets span the same normals.  is_vertex, check_axioms' fast path
(rankfun) and double description read the facets alone; each facet
keeps its row number (the atom bound on a is row a - 1, and
HRepresentation.pair_rows numbers diamonds from the masks), so a
certificate names rows of the whole system.

Rows are evaluated on mu-scaled integers (rankfun.scaled_values): a
point is multiplied once by the lcm mu of its denominators, and
membership runs one plain loop per block, filing row k as tight or
violated by the sign of s = a.(mu v) - mu b, in Python ints.

Every rank is taken by one exact kernel, _rank: Gauss-Jordan
elimination in Python ints over rows given as (column, value) pairs, so
an H-row keeps its at most four nonzero entries.  Each pivot row is
primitive and holds no other pivot's column, and an index maps each
free column to the rows that hold it, so a row is reduced in one pass
over its own entries, and a new pivot is cleared from only the rows
that hold its column.  Most tight facet rows turn out dependent, and
two tests skip them cheaply: a pivot column is solved once its row
holds it alone, so a row on solved columns only is skipped before any
dict is built; and at one rank below the column count the pivot rows
leave one free column, so after the first dependent row each row costs
one dot product with their null vector.  Vertex certification ranks the
tight facet normals, so every certificate is checkable by hand; the
elimination stops once the rank reaches the number of columns, since
no further row can raise it.  f_vector reads each vertex's tight rows
from membership, and its face dimensions are the rank of scaled
difference rows.

Two search kernels materialize points.  Vertex enumeration runs an
exact integer double description pass over sparse homogenized
constraints (the type-1 bounds for the initial cone, then the top
covers and the diamonds), with the combinatorial adjacency test in
bitset form: two rays are adjacent iff no third ray is tight on every
constraint tight at both (Fukuda & Prodon 1996), read off an AND of
per-constraint bitsets over the rays.  The integer points (the
q-matroids) come from a depth-first search that forward-checks bounds
on the spaces not yet assigned.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .errors import DimensionMismatch, NotFeasible, TooLarge
from .rankfun import rank_point, scaled_values

MAX_VERTEX_ENUM_DIM = 15
MAX_FVECTOR_DIM = 6
MAX_DFS_NODES = 100_000


class HRepresentation:
    """The H-representation of the polytope on the lattice, as blocks of
    plain index tuples in row order: bounds (the nonzero indices x, row
    v_x <= dim x), atoms (-v_a <= 0), covers ((x, y), v_x - v_y <= 0),
    pairs (the lattice's incomparable-pair table (x, y, meet, join),
    v_meet - v_x - v_y + v_join <= 0) and zero (the signs of the
    unreduced rows +-v_0 <= 0).  rows is range(N), the row numbers
    that membership reports."""

    def __init__(self, lattice, reduced):
        self.lattice = lattice
        self.reduced = reduced
        self.bounds = range(1, lattice.size)
        self.atoms = lattice.atom_range
        self.covers = tuple((x, y) for y in self.bounds
                            for x in lattice.covers_down[y]
                            if x != lattice.zero)
        self.pairs = lattice.incomparable
        self.zero = () if reduced else (1, -1)
        self.rows = range(len(self.bounds) + len(self.atoms)
                          + len(self.covers) + len(self.pairs) + len(self.zero))
        # the facet subset: the bounds on the atoms, the top covers (the
        # hyperplanes h, whose rows v_h - v_top <= 0 end the cover
        # block), the diamonds and the zero rows, at their row numbers
        self.hyperplanes = lattice.covers_down[lattice.top]
        self.diamonds = lattice.diamonds
        pair_offset = len(self.bounds) + len(self.atoms) + len(self.covers)
        self.top_cover_rows = range(pair_offset - len(self.hyperplanes),
                                    pair_offset)
        # _pair_base[x] + x is the first pair row of x: each x'' < x
        # has one row for each of the size - x'' - |above x''| spaces
        # after it that do not lie above it (see pair_rows)
        base = []
        for x, ax in enumerate(lattice.above_mask):
            base.append(pair_offset - x)
            pair_offset += lattice.size - x - ax.bit_count()
        self._pair_base = tuple(base)
        self._low = tuple((1 << y) - 1 for y in range(lattice.size))

    @property
    def ambient_dim(self):
        return self.lattice.size - (1 if self.reduced else 0)

    def tag_counts(self):
        """The number of rows of each tag that has any, by block length."""
        counts = {"type1": len(self.bounds), "nonneg": len(self.atoms),
                  "type2": len(self.covers), "type3": len(self.pairs),
                  "zero": len(self.zero)}
        return {tag: n for tag, n in counts.items() if n}

    def pair_rows(self, pairs):
        """The row numbers of the pair rows on pairs, (x, y, meet, join)
        entries of the pair table such as the diamonds, counted from
        the masks with no pass over the table: the pairs (x, y') before
        (x, y) are the y' strictly between x and y not above x."""
        base, above, low = self._pair_base, self.lattice.above_mask, self._low
        return [base[x] + y - (above[x] & low[y]).bit_count()
                for x, y, _, _ in pairs]

    def text_lines(self):
        """The text one line at a time, each ending in a newline.
        Line 1: HREP <rows> <dim>; then one inequality a.v <= b per
        line as space-separated reduced rationals a_1 .. a_dim b.

        One loop per block of build_hrep's rows, as in membership; each
        line is an f-string over the runs of zeros between the row's
        few nonzero entries."""
        dims = self.lattice.dims
        dim = self.ambient_dim
        o = 1 if self.reduced else 0  # column of lattice index i is i - o
        top = self.lattice.top        # so z[top - i] zeros follow index i
        z = ["0 " * k for k in range(dim + 1)]
        yield f"HREP {len(self.rows)} {dim}\n"
        for x in self.bounds:
            yield f"{z[x - o]}1 {z[top - x]}{dims[x]}\n"
        for a in self.atoms:
            yield f"{z[a - o]}-1 {z[top - a]}0\n"
        for x, y in self.covers:
            yield f"{z[x - o]}1 {z[y - x - 1]}-1 {z[top - y]}0\n"
        for x, y, m, j in self.pairs:
            if m or not self.reduced:
                yield (f"{z[m - o]}1 {z[x - m - 1]}-1 {z[y - x - 1]}-1 "
                       f"{z[j - y - 1]}1 {z[top - j]}0\n")
            else:  # the reduced system has no v_0: a zero meet drops out
                yield (f"{z[x - o]}-1 {z[y - x - 1]}-1 "
                       f"{z[j - y - 1]}1 {z[top - j]}0\n")
        for sign in self.zero:
            yield f"{sign} {z[dim - 1]}0\n"

    def to_text(self):
        return "".join(self.text_lines())


def build_hrep(lattice, reduced=True):
    """H-representation of the q-rank polytope on the given lattice.

    Reads the lattice's incomparable-pair table here, so its one-time
    cost falls in the set-up and not in the first query."""
    return HRepresentation(lattice, reduced)


# status is "interior", "boundary" or "outside"
Membership = namedtuple("Membership", "status tight_rows violated_rows")


def membership(H, p):
    """Exact evaluation of every row at the point, one plain loop per
    block of build_hrep's H-representation: row k with
    s = a.(mu v) - mu b is tight at s == 0 and violated at s > 0.

    Interior means strict on every inequality (the unreduced zero pair
    only has to hold, since it is an equality in disguise)."""
    if p.lattice is not H.lattice:
        raise DimensionMismatch(
            "point and H-representation use different lattices")
    mu, vals = scaled_values(p.values)
    if H.reduced:
        # the reduced system has no v_0: reading it as 0 leaves it out
        # of the zero-meet pair rows, the only ones that name index 0
        vals = (0,) + vals[1:]
    dims = H.lattice.dims
    tight = []
    violated = []
    start = 0
    for k, x in enumerate(H.bounds, start):
        s = vals[x] - mu * dims[x]
        if s >= 0:
            (violated if s else tight).append(k)
    start += len(H.bounds)
    for k, a in enumerate(H.atoms, start):
        s = -vals[a]
        if s >= 0:
            (violated if s else tight).append(k)
    start += len(H.atoms)
    for k, (x, y) in enumerate(H.covers, start):
        s = vals[x] - vals[y]
        if s >= 0:
            (violated if s else tight).append(k)
    start += len(H.covers)
    for k, (x, y, m, j) in enumerate(H.pairs, start):
        s = vals[m] + vals[j] - vals[x] - vals[y]
        if s >= 0:
            (violated if s else tight).append(k)
    start += len(H.pairs)
    for k, sign in enumerate(H.zero, start):
        s = sign * vals[0]
        if s >= 0:
            (violated if s else tight).append(k)
    if violated:
        return Membership("outside", tuple(tight), tuple(violated))
    if tight and tight[0] < start:  # the zero rows come last
        return Membership("boundary", tuple(tight), ())
    return Membership("interior", tuple(tight), ())


VertexCertificate = namedtuple("VertexCertificate",
                               "point tight_rows normal_rank is_vertex")


def is_vertex(H, p):
    """Certify the point on the facet rows alone: evaluate the bounds on
    the atoms, the top covers, the diamonds and the zero rows on the
    mu-scaled ints, as membership does; a violated facet raises
    NotFeasible.  The certificate lists the row numbers of the tight
    facets and the rank of their normals, taken by exact elimination;
    the point is a vertex iff that rank equals the ambient dimension.
    The normals have ambient_dim columns, so elimination may stop at
    that rank and stay exact.

    This reads no other row, and the result is that of the whole
    system: every row is a nonnegative sum of facet rows with the same
    right-hand side, so the facets hold iff every row holds, and a
    tight row at a feasible point forces its summands tight, so the
    tight rows and the tight facets have normals of equal span."""
    lat = H.lattice
    if p.lattice is not lat:
        raise DimensionMismatch(
            "point and H-representation use different lattices")
    mu, vals = scaled_values(p.values)
    if H.reduced:
        vals = (0,) + vals[1:]  # as in membership: v_0 drops out
    rows, normals, violated = [], [], []  # tight rows in row order
    for a in H.atoms:  # the bound on atom a is row a - 1
        s = vals[a] - mu
        if s >= 0:
            if s:
                violated.append(a - 1)
            else:
                rows.append(a - 1)
                normals.append(((a, 1),))
    top = lat.top
    vtop = vals[top]
    for k, h in zip(H.top_cover_rows, H.hyperplanes):
        s = vals[h] - vtop
        if s >= 0:
            if s:
                violated.append(k)
            else:
                rows.append(k)
                normals.append(((h, 1), (top, -1)))
    tight, bad = [], []
    for d in H.diamonds:
        x, y, m, j = d
        s = vals[m] + vals[j] - vals[x] - vals[y]
        if s >= 0:
            (bad if s else tight).append(d)
    rows += H.pair_rows(tight)
    violated += H.pair_rows(bad)
    keep_zero = not H.reduced  # else v_0 drops out of a zero-meet row
    normals += [((m, 1), (x, -1), (y, -1), (j, 1)) if m or keep_zero
                else ((x, -1), (y, -1), (j, 1)) for x, y, m, j in tight]
    for k, sign in enumerate(H.zero, len(H.rows) - len(H.zero)):
        s = sign * vals[0]
        if s >= 0:
            if s:
                violated.append(k)
            else:
                rows.append(k)
                normals.append(((0, sign),))
    if violated:
        raise NotFeasible(f"point violates facet rows {tuple(violated)}")
    rank = _rank(normals, full=H.ambient_dim)
    return VertexCertificate(p, tuple(rows), rank, rank == H.ambient_dim)


def interior_witness(lattice):
    """The point v_X = dim(X) / (dim(X) + 1); strictly inside."""
    return rank_point(lattice, (Fraction(d, d + 1) for d in lattice.dims))


def affine_dimension(H):
    """The dimension of the polytope, certified by the interior witness
    being strict on every inequality row: one less than the lattice
    size in both systems, since v_0 = 0 is the one implied equality of
    the unreduced system and the reduced one has no v_0 coordinate."""
    wit = interior_witness(H.lattice)
    mem = membership(H, wit)
    if mem.status != "interior":
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
    against an atom), and, for each incomparable pair X < Z with meet M
    and join J, lowers hi on J to v_X + v - v_M (submodularity), so a
    row is applied as soon as the later space of its pair is set.  A
    branch is cut once some bounds cross; the changes are undone on
    backtrack.  Values are tried in increasing order, so the points come
    out sorted by their values, and forward checking removes only values
    no point takes, so the points are the same as without it.

    Raises TooLarge once the search has visited more than max_nodes
    partial assignments (the default admits L(F_2^4), 41,756, and
    L(F_7^3), 16,059, and refuses L(F_2^5) within seconds)."""
    lat = lattice
    size = lat.size
    above = [[] for _ in range(size)]  # above[z]: the spaces j > z over z
    for j in range(size):
        for i in lat.below(j):
            if i < j:
                above[i].append(j)
    covers_up = lat.covers_up
    later = [[] for _ in range(size)]  # later[y]: (x, meet, join), x < y
    for x, y, m, j in lat.incomparable:
        later[y].append((x, m, j))
    lo = [0] * size
    hi = list(lat.dims)
    vals = [0] * size
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
            out.append(rank_point(lat, vals))
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
    sequence of (column, value) pairs with distinct columns; column
    numbering is immaterial.  With full set to the number of columns
    (or any known bound on the rank), the remaining rows are skipped
    once that many pivots are found.

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


def _affine_rank(points):
    """Dimension of the affine hull of a list of rational tuples."""
    if len(points) <= 1:
        return 0
    base = points[0]
    rows = []
    for p in points[1:]:
        diff = [a - b for a, b in zip(p, base)]
        lcm = math.lcm(*(f.denominator for f in diff)) if diff else 1
        rows.append([(j, int(f * lcm)) for j, f in enumerate(diff)])
    return _rank(rows)


# -- vertex enumeration: exact double description ------------------------

def _dd_constraints(H):
    """The homogenized constraints of double description in insertion
    order, as sparse (column, coefficient) rows over the columns
    v_1 .. v_d and t (column d): first the type-1 rows
    v_x - dim(x) t <= 0 and the row -t <= 0, which cut out the initial
    simplicial cone, then the facet rows not among them: the top covers
    and the diamonds.  Every other row is a sum of these (see is_vertex),
    so it cuts nothing more off.

    These come coordinate-major along the lattice order, top cover then
    diamond rows inside each coordinate's stage.  A diamond row belongs
    to the stage of its join, the last of its spaces in the linear
    order, which keeps every intermediate cone equal to a small prefix
    polytope crossed with down-rays on the untouched coordinates.
    v_0 is 0 in both systems, so a zero meet drops out and the zero rows
    are left out."""
    d = H.lattice.size - 1
    dims = H.lattice.dims
    top = H.lattice.top
    cons = [((x - 1, 1), (d, -dims[x])) for x in H.bounds]
    cons.append(((d, -1),))
    # (stage, row); every stage key is distinct, so no row is compared
    staged = [((top, 1, h, 0), ((h - 1, 1), (top - 1, -1)))
              for h in H.hyperplanes]
    staged += [((j, 2, x, y),
                ((m - 1, 1), (x - 1, -1), (y - 1, -1), (j - 1, 1)) if m
                else ((x - 1, -1), (y - 1, -1), (j - 1, 1)))
               for x, y, m, j in H.diamonds]
    staged.sort()
    cons.extend(row for _, row in staged)
    return cons


def enumerate_vertices(H):
    """All vertices of the polytope, by exact double description.

    Works over the homogenization cone {(v, t) : Av <= bt, t >= 0}: the
    initial simplicial cone comes from the type-1 rows plus the t-row,
    and the remaining rows are inserted one at a time (_dd_constraints).
    Rays are dense primitive integer vectors, each with the bitmask of
    the constraints it is tight on.
    A positive/negative ray pair combines only if it is adjacent: the
    constraints tight at both number at least dim-1 and no third ray is
    tight on all of them.  Each step keeps, per constraint, a bitset
    over the current rays tight on it, so the test is one AND of
    bitsets that must leave exactly the pair.  Output is sorted by
    coordinates.  Raises TooLarge past MAX_VERTEX_ENUM_DIM coordinates."""
    lat = H.lattice
    d = lat.size - 1
    if d > MAX_VERTEX_ENUM_DIM:
        raise TooLarge(f"ambient dimension {d} exceeds cap {MAX_VERTEX_ENUM_DIM}")
    cons = _dd_constraints(H)
    D = d + 1  # columns v_1 .. v_d and t; as many initial constraints
    base_mask = (1 << D) - 1
    rays = []
    for k in range(d):
        vec = [0] * D
        vec[k] = -1
        rays.append((tuple(vec), base_mask ^ (1 << k)))
    corner = tuple(lat.dims[1:]) + (1,)
    rays.append((corner, base_mask ^ (1 << d)))

    for ci in range(D, len(cons)):
        c = cons[ci]
        bit = 1 << ci
        plus, zero, minus = [], [], []
        for r, (vec, z) in enumerate(rays):
            val = sum(a * vec[i] for i, a in c)
            if val > 0:
                plus.append((vec, z, val, r))
            elif val < 0:
                minus.append((vec, z, val, r))
            else:
                zero.append((vec, z | bit))
        if not plus:
            rays = zero + [(vec, z) for vec, z, _, _ in minus]
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
        for pvec, pz, pval, pr in plus:
            pbit = 1 << pr
            for mvec, mz, mval, mr in minus:
                z = pz & mz
                if z.bit_count() < need:
                    continue
                # adjacent iff no third ray is tight on all of z: the
                # AND of the tight sets can stop once only the pair is left
                pair = pbit | (1 << mr)
                common = -1
                m = z
                while m:
                    low = m & -m
                    common &= tight[low.bit_length() - 1]
                    if common == pair:
                        break
                    m ^= low
                if common != pair:
                    continue
                comb = [pval * mm - mval * pp for pp, mm in zip(pvec, mvec)]
                g = 0
                for x in comb:
                    g = math.gcd(g, x)
                if g > 1:
                    comb = [x // g for x in comb]
                new.append((tuple(comb), z | bit))
        rays = zero + [(vec, z) for vec, z, _, _ in minus] + new

    verts = []
    for vec, _ in rays:
        t = vec[-1]
        assert t > 0, "unbounded direction survived; polytope must be bounded"
        values = (Fraction(0),) + tuple(Fraction(x, t) for x in vec[:-1])
        verts.append(rank_point(lat, values))
    verts.sort(key=lambda p: p.values)
    return verts


def f_vector(H):
    """Face counts by dimension 0 .. dim(P)-1, from the vertex-row
    incidence that membership reports at each vertex.  Raises TooLarge
    past MAX_FVECTOR_DIM coordinates."""
    d = H.lattice.size - 1
    if d > MAX_FVECTOR_DIM:
        raise TooLarge(f"ambient dimension {d} exceeds cap {MAX_FVECTOR_DIM}")
    verts = enumerate_vertices(H)
    rowsets = {}  # row index -> the vertices tight on it
    for i, p in enumerate(verts):
        for k in membership(H, p).tight_rows:
            rowsets.setdefault(k, set()).add(i)
    return _face_counts([p.values for p in verts], rowsets.values())


def _face_counts(coords, rowsets):
    """Face counts by dimension 0 .. dim-1 of the polytope with the
    given vertex coordinates, where each of rowsets holds the indices of
    the vertices tight on one valid inequality: the faces are the
    incidence sets closed under intersection, less the whole polytope."""
    all_v = frozenset(range(len(coords)))
    rowsets = {frozenset(s) for s in rowsets} - {all_v}
    faces = set()
    frontier = set(rowsets)
    while frontier:
        faces |= frontier
        nxt = set()
        for f in frontier:
            for r in rowsets:
                g = f & r
                if g and g not in faces:
                    nxt.add(g)
        frontier = nxt - faces
    dim_p = _affine_rank(coords)
    counts = [0] * dim_p
    for f in faces:
        fdim = _affine_rank([coords[i] for i in f])
        if fdim < dim_p:
            counts[fdim] += 1
    return tuple(counts)
