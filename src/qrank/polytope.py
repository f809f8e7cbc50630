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
size + d reads d mu.  No table holds every row: an HRepresentation
holds the lattice alone, counts its rows from the grades (a space of
dimension d holds [d, e]_q spaces of dimension e), and writes the
text one line at a time by one loop per block of rows
(HRepresentation.text_lines), which reads each pair's meet and join as
it goes, so the CLI streams it.

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
is_vertex, check_axioms (rankfun), double description and f_vector read
the facet table alone.  Each facet is one axiom instance (an atom bound
is R1, a top cover R2 and a diamond R3), so the violated facets explain
why a point is outside: every axiom failure shows in one.  Each entry is
a row of the system, and the table lists them in row order, so a report
names facets by their positions in the table, which no query maps to
row numbers.  Only the text writes every row, and it reads no facet.

Facets are evaluated on mu-scaled integers (rankfun.scaled_values): a
point is multiplied once by the lcm mu of its denominators and padded,
and a loop over the facet table files facet i as tight or violated by
comparing w[m] + w[j] with w[x] + w[y], in Python ints.  That facet
status is evaluated once per point, on first use, and kept on the
immutable point (RankPoint.facet_status); check_axioms, membership,
is_vertex and f_vector all read it (_facets_at), so certifying a point,
its axioms first, walks the facet table once.

Every rank is taken by one exact kernel, _rank, in Python ints over
the normals of tight facets, the only rows not in the (x, y, m, j)
format: _normals yields each, as _rank reads it, as its at most four
nonzero (column, value) entries.  _rank keeps a basis of the null space
of the rows read so far, with each column never seen standing for its
own unit vector, and an index from each column to the vectors nonzero
there.  A row is independent iff it is not orthogonal to that space:
when it has an entry on a column never seen, or else a nonzero dot
product with a vector that holds one of its columns.  Most tight facet
rows turn out dependent, and their columns are mostly solved, held by
no vector, so such a row is skipped before any dict is built; any
other costs one dot product per vector that holds one of its columns,
however many columns are left free.  Vertex certification ranks the
tight facet normals, so every certificate is checkable by hand; the
elimination returns once the rank reaches the number of columns, since
no further row can raise it, and the normals of the tight facets after
that are never written.  f_vector takes no rank: it reads each vertex's
tight facets as bitsets over the vertices and steps from each face to
its facets, so a face's dimension is its level.

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
from .rankfun import facet_instance, rank_point
from .subspaces import gaussian_binomial

MAX_VERTEX_ENUM_DIM = 15
MAX_FVECTOR_DIM = 10
MAX_DFS_NODES = 100_000


class HRepresentation:
    """The H-representation of the polytope on the lattice, over the
    columns v_1 .. v_top.  It holds the lattice alone: rows counts the
    rows of the system from the grades, and text_lines writes each one
    as it goes.  Certificates name facets by their positions in the
    lattice's facet table, so no row is numbered."""

    def __init__(self, lattice):
        self.lattice = lattice

    @property
    def ambient_dim(self):
        return self.lattice.size - 1

    @property
    def rows(self):
        """range(N), N the number of rows of the system, counted on each
        read: a bound on each nonzero space, the atoms, the covers above
        the atoms, and a pair row for each incomparable pair, that is
        each pair of nonzero spaces less the comparable ones.  A space
        of dimension d holds [d, e]_q spaces of dimension e, so the
        count reads only the grades."""
        lat = self.lattice
        top, q = lat.top, lat.q
        comparable = sum(len(lat.grade(d)) * gaussian_binomial(d, e, q)
                         for d in range(2, lat.n + 1) for e in range(1, d))
        return range(top + len(lat.atom_range)
                     + sum(map(len, lat.covers_down[lat.grade_offsets[2]:]))
                     + top * (top - 1) // 2 - comparable)

    def text_lines(self, full=False):
        """The text one line at a time, each ending in a newline.
        Line 1: HREP <rows> <dim>; then one inequality a.v <= b per
        line as space-separated reduced rationals a_1 .. a_dim b.

        With full, the unreduced system: the columns start at v_0,
        which keeps its 1 in the zero-meet pair rows, and the rows
        v_0 <= 0 and -v_0 <= 0 come last.  One loop per block of rows,
        in row order: the bound v_x <= dim x on each nonzero space, the
        nonnegativity of each atom, the cover x < y for each y above
        the atoms, and the submodularity row of each incomparable pair
        x < y, in order of x, then y.  As the order is graded, y > x is
        comparable with x only by holding every atom of x, and the meet
        and join are read off the atom and hyperplane sets.  Each line
        is an f-string over the runs of zeros between the row's few
        nonzero entries."""
        lat = self.lattice
        size, dims = lat.size, lat.dims
        A, Hs = lat.atom_sets, lat.hyperplane_sets
        meet, join = lat.space_of_atom_set, lat.space_of_hyperplane_set
        o = 0 if full else 1   # column of lattice index i is i - o
        dim = size - o
        top = lat.top  # so z[top - i] zeros follow index i
        z = ["0 " * k for k in range(dim + 1)]
        yield f"HREP {len(self.rows) + (2 if full else 0)} {dim}\n"
        for x in range(1, size):
            yield f"{z[x - o]}1 {z[top - x]}{dims[x]}\n"
        for a in lat.atom_range:
            yield f"{z[a - o]}-1 {z[top - a]}0\n"
        for y in range(lat.grade_offsets[2], size):
            for x in lat.covers_down[y]:
                yield f"{z[x - o]}1 {z[y - x - 1]}-1 {z[top - y]}0\n"
        for x in range(1, size):
            ax, hx = A[x], Hs[x]
            for y, ay, hy in zip(range(x + 1, size), A[x + 1:], Hs[x + 1:]):
                if ax & ay == ax:  # y lies above x
                    continue
                m, j = meet[ax & ay], join[hx & hy]
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
    """H-representation of the q-rank polytope on the given lattice,
    for the certifiers and the vertex search, which read its facets.

    Builds the lattice's facet table, diamonds and all, here, so its
    one-time cost falls in the set-up and not in the first query.  The
    text alone needs no facet: HRepresentation(lattice).text_lines
    builds none."""
    lattice.facets  # a cached_property: built on this first read
    return HRepresentation(lattice)


# status is "interior", "boundary" or "outside"
Membership = namedtuple("Membership", "status tight_rows violated_rows")


def membership(H, p):
    """The status of the point, decided on the facet rows alone, from
    its facet status (_facets_at): outside when it violates a facet,
    boundary when it is tight on one, interior when every facet is
    strict.  tight_rows and violated_rows are the positions of those
    facets in the lattice's facet table (SubspaceLattice.facets), in
    increasing order, which is row order.

    This reads no other row, and the status is that of the whole
    system: every row is a nonnegative sum of facet rows with the same
    right-hand side, so a row is violated only where some facet is, and
    at a feasible point a tight row forces its summands tight."""
    status = _facets_at(H, p)
    tight, violated = status.tight, status.violated
    return Membership("outside" if violated else "boundary" if tight
                      else "interior", tight, violated)


VertexCertificate = namedtuple("VertexCertificate",
                               "point tight_rows normal_rank is_vertex")


def is_vertex(H, p):
    """Certify the point on the facet rows alone, from its facet status
    (_facets_at): a violated facet raises NotFeasible, which gives the
    number of violated facets and names the first three as the axiom
    instances they are (rankfun.facet_instance), so its length does not
    grow with the lattice.  The certificate lists the positions of the
    tight facets in the facet table, as membership does, and the rank of
    their normals, taken by exact elimination (_rank); the point is a
    vertex iff that rank equals the ambient dimension.  The normals have
    ambient_dim columns, so the elimination returns once it reaches that
    rank and stays exact; they reach it as an iterator (_normals), read
    one at a time, so no normal after the one that completes the rank is
    written.

    The result is that of the whole system, as in membership, and a
    tight row at a feasible point forces its summands tight, so the
    tight rows and the tight facets have normals of equal span."""
    status = _facets_at(H, p)
    lat = H.lattice
    if status.violated:
        bad = status.violated
        first = ", ".join(
            f"{tag} ({', '.join(map(str, spaces))})"
            for tag, spaces in (facet_instance(lat, lat.facets[i])
                                for i in bad[:3]))
        raise NotFeasible(f"point violates {len(bad)} facets: {first}"
                          + (", ..." if len(bad) > 3 else ""))
    rank = _rank(_normals(map(lat.facets.__getitem__, status.tight), lat.top),
                 full=H.ambient_dim)
    return VertexCertificate(p, status.tight, rank, rank == H.ambient_dim)


def _facets_at(H, p):
    """The point's facet status (rankfun.FacetStatus: mu, the padded
    vector w, and the positions in the lattice's facet table of the
    facets tight and violated at the point, each in increasing order,
    which is row order), after checking that the point lies on H's
    lattice.  The status is evaluated on the point's first use and kept
    on it (RankPoint.facet_status), with v_0 read as 0, since the system
    has no v_0 (SubspaceLattice.padded)."""
    if p.lattice is not H.lattice:
        raise DimensionMismatch(
            "point and H-representation use different lattices")
    return p.facet_status


def _normals(facets, top):
    """The sparse normals, over the columns of the lattice indices, of
    entries of the facet table on a lattice with top index top, yielded
    one at a time as they are read: e_a for an atom bound, e_h - e_top
    for a top cover, and e_m - e_x - e_y + e_j for a diamond, with v_0
    left out of a zero meet, as in the system's rows."""
    for x, y, m, j in facets:
        if y > top:  # an atom bound (x > top reads mu) or a top cover
            yield ((m, 1),) if x > top else ((m, 1), (x, -1))
        elif m:
            yield (m, 1), (x, -1), (y, -1), (j, 1)
        else:
            yield (x, -1), (y, -1), (j, 1)


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
    (at first 0 and its dimension).  Setting v_Z = v raises lo to v and
    lowers hi to v + 1 on every upper cover of Z (monotonicity, and on a
    cover X < Y, v_Y <= v_X + 1 is submodularity against an atom), and,
    for each diamond X < Z with meet M and join J,
    lowers hi on J to v_X + v - v_M (submodularity), so a diamond row is
    applied as soon as the later space of its pair is set.  Every facet
    (SubspaceLattice.facets) is then enforced by the time its last space
    is set, so every leaf is a point; the other pair rows are sums of
    diamond rows and would only cut earlier.  Covers suffice for
    monotonicity: the order is graded, so every lower cover of a space
    is set before the space, and each has raised its lo to its value;
    along a chain of covers that bounds the space below by every space
    under it.  Raising lo on a space two or more grades up would cut
    nothing earlier either, since no space of the grade between has been
    set, so its hi is still its dimension, above v.  A branch is cut
    once some bounds cross; the changes are undone on backtrack.  Values
    are tried in increasing order, so the points come out sorted by
    their values, and forward checking removes only values no point
    takes, so the points are the same as without it.

    Raises TooLarge once the search has visited more than max_nodes
    partial assignments (the default admits L(F_2^4), 45,920, and
    L(F_7^3), 16,731, and refuses L(F_2^5) within seconds)."""
    lat = lattice
    size = lat.size
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
        w = v + 1
        for j in covers_up[z]:
            if lo[j] < v:
                trail.append((lo, j, lo[j]))
                lo[j] = v
            if hi[j] > w:
                trail.append((hi, j, hi[j]))
                hi[j] = w
            if lo[j] > hi[j]:
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
    """Rank over Q of an integer matrix given as sparse rows, read once
    in order from any iterable, each a sequence of (column, value) pairs
    with distinct columns, such as the tight facet normals (_normals).
    With full set to the number of columns (or any known bound on the
    rank), it returns as soon as the rank reaches full, so no row past
    that point is read, and none at all when full is 0.

    Exact elimination in ints on a basis of the null space of the rows
    read so far.  A column never seen stands for its own unit vector,
    which is not stored; null holds the other basis vectors, each
    primitive, and holds maps each column seen to the keys of the
    vectors nonzero there.  A row lies in the span of the rows before it
    iff it is orthogonal to every basis vector, so, zero entries
    skipped:
      - a row whose columns are all seen and held by no vector (solved:
        their unit vectors lie in the span) is dependent, and is skipped
        before any dict is built;
      - a row with an entry on a column never seen is independent: the
        first such column c leaves the basis without ever being stored,
        and the other columns never seen enter it;
      - any other row is dependent iff its dot product with each vector
        that holds one of its columns vanishes.
    An independent row cuts the basis by one: among the vectors with a
    nonzero dot, one g with the fewest entries leaves (e_c, if there is
    such a c), and every other such f becomes d_g f - d_f g, made
    primitive (d the dots, d_g's sign moved onto d_f), so that f is
    orthogonal to the row.  A column stays held as long as some vector
    is nonzero there."""
    if full == 0:
        return 0
    null = {}   # key -> a basis vector {column: entry}
    holds = {}  # column seen -> the keys of the vectors nonzero there
    rank = 0
    gcd = math.gcd
    get = holds.get
    for row in rows:
        for c, _ in row:
            if get(c, True):  # never seen, or held
                break
        else:  # every column solved
            continue
        dots = {}   # key -> the vector's dot product with the row
        y = None    # the vector that leaves, with a its dot
        for c, v in row:
            if v:
                h = get(c)
                if h is not None:
                    for k in h:
                        dots[k] = dots.get(k, 0) + v * null[k][c]
                elif y is None:  # e_c leaves, never stored
                    y, a = {c: 1}, v
                    holds[c] = set()
                else:  # e_c enters
                    null[c] = {c: 1}
                    holds[c] = {c}
                    dots[c] = v
        if y is None:
            if not any(dots.values()):
                continue
            out = min((k for k, d in dots.items() if d),
                      key=lambda k: len(null[k]))
            y, a = null.pop(out), dots.pop(out)
            for c in y:
                holds[c].discard(out)
        for k, d in dots.items():
            if d:
                f = null[k]
                g = gcd(a, d)
                s, t = abs(a) // g, d // g if a > 0 else -d // g
                if s != 1:
                    for c in f:
                        f[c] *= s
                for c, v in y.items():
                    x = f.get(c, 0) - t * v
                    if x:
                        if c not in f:
                            holds[c].add(k)
                        f[c] = x
                    elif c in f:
                        del f[c]
                        holds[c].discard(k)
                g = gcd(*f.values())
                if g != 1:
                    for c in f:
                        f[c] //= g
        rank += 1
        if rank == full:
            break
    return rank


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
        for k in _facets_at(H, p).tight:
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
