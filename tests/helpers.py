"""Shared sampling helpers and reference oracles for the test suites."""

import math
from collections import Counter
from fractions import Fraction
from functools import cache

from qrank.charpoly import TruncatedPuiseux
from qrank.fields import FqMatrix, make_field, matrix_vectors, rref
from qrank.polytope import _dd_constraints, _rank
from qrank.rankfun import IndependenceReport, rank_point


def random_paving_collection(rng, lat, k, limit=3):
    candidates = [i for i in range(lat.size) if lat.dims[i] == k]
    rng.shuffle(candidates)
    chosen = []
    for c in candidates:
        if len(chosen) >= limit:
            break
        if all(lat.dims[lat.meet(c, other)] <= k - 2 for other in chosen):
            chosen.append(c)
    return frozenset(chosen)


def random_disjoint_paving_pair(rng, lat, k, limit=3):
    s1 = random_paving_collection(rng, lat, k, limit)
    pool = [i for i in range(lat.size) if lat.dims[i] == k and i not in s1]
    rng.shuffle(pool)
    s2 = []
    for c in pool:
        if len(s2) >= limit:
            break
        if all(lat.dims[lat.meet(c, other)] <= k - 2 for other in s2):
            s2.append(c)
    return s1, frozenset(s2)


def random_lambda(rng, max_den=5):
    den = rng.randrange(2, max_den + 1)
    num = rng.randrange(1, den)
    return Fraction(num, den)


def _int_rank(rows):
    """Rank over Q of an integer matrix, by fraction-free elimination."""
    m = [list(r) for r in rows if any(r)]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pr = m[rank]
        pv = pr[col]
        for i in range(rank + 1, len(m)):
            ri = m[i]
            f = ri[col]
            if f:
                for j in range(col, ncols):
                    ri[j] = ri[j] * pv - pr[j] * f
                g = 0
                for x in ri:
                    g = math.gcd(g, x)
                if g > 1:
                    for j in range(ncols):
                        ri[j] //= g
        rank += 1
        if rank == len(m):
            break
    return rank


def reference_face_counts(coords, rowsets):
    """Face counts by dimension 0 .. dim-1 of the polytope with the
    given vertex coordinates, where each of rowsets holds the indices of
    the vertices tight on one valid inequality: the faces are the
    incidence sets closed under intersection, less the whole polytope,
    and a face's dimension is the rank of its vertices' differences.  The
    reference for polytope._face_counts, which takes no rank."""
    def affine_rank(points):
        rows = []
        for p in points[1:]:
            diff = [Fraction(a) - b for a, b in zip(p, points[0])]
            lcm = math.lcm(*(f.denominator for f in diff))
            rows.append([int(f * lcm) for f in diff])
        return _int_rank(rows)

    all_v = frozenset(range(len(coords)))
    rowsets = {frozenset(s) for s in rowsets} - {all_v}
    faces = set()
    frontier = set(rowsets)
    while frontier:
        faces |= frontier
        frontier = {f & r for f in frontier for r in rowsets} - faces - {frozenset()}
    dim_p = affine_rank(coords)
    counts = [0] * dim_p
    for f in faces:
        counts[affine_rank([coords[i] for i in sorted(f)])] += 1
    return tuple(counts)


@cache
def reference_rows(lat):
    """The paper's reduced system as (x, y, m, j) rows in row order (see
    table_row): the bound on every nonzero space, the nonnegativity of
    every atom, the cover x < y for every y above the atoms in order of
    y, then x, and the submodularity row (x, y, meet, join) of every
    incomparable pair x < y, in order of x, then y.  Built by pairwise
    double loops with lat.leq, lat.meet and lat.join, with no table of
    the lattice's: the reference for the row numbers and the text."""
    size, dims, leq = lat.size, lat.dims, lat.leq
    rows = [(size + dims[x], size, x, size) for x in range(1, size)]
    rows += [(a, size, size, size) for a in range(1, size) if dims[a] == 1]
    rows += [(y, size, x, size) for y in range(1, size) if dims[y] >= 2
             for x in range(1, size) if dims[x] == dims[y] - 1 and leq(x, y)]
    rows += [(x, y, lat.meet(x, y), lat.join(x, y))
             for x in range(1, size) for y in range(x + 1, size)
             if not leq(x, y) and not leq(y, x)]
    return tuple(rows)


def reference_pairs(lat):
    """The pair rows of reference_rows, (x, y, meet, join) for every
    incomparable pair x < y, in order of x, then y."""
    return tuple(row for row in reference_rows(lat) if row[1] < lat.size)


def facet_row_numbers(lat):
    """The row number in reference_rows of each entry of lat.facets, in
    the table's order: the map from the facet positions that membership
    and is_vertex report to the rows of the text.  A KeyError means an
    entry that is no row of the system."""
    number = {row: k for k, row in enumerate(reference_rows(lat))}
    return tuple(number[f] for f in lat.facets)


def table_row(lat, row):
    """(coeffs, rhs) of a row (x, y, m, j) of the polytope's system,
    which holds iff w[m] + w[j] <= w[x] + w[y] on the padded vector
    w = (0, mu v_1, .., mu v_top, 0, mu, 2 mu, .., n mu): coeffs are the
    nonzero (lattice index, coefficient) pairs of coeffs.v <= rhs in
    increasing index, with v_0 dropped from a zero meet, as the test
    suites' reference rows write them.  Index size + d is read as the
    constant d, so double description's row t >= 0,
    (size + 1, size, size, size), decodes to ((), 1): 0 <= 1, that is
    -t <= 0 in homogenized form."""
    coeffs, rhs = Counter(), 0
    for c, v in zip(row, (-1, -1, 1, 1)):
        if c >= lat.size:
            rhs -= v * (c - lat.size)
        elif c:
            coeffs[c] += v
    return tuple(sorted((c, v) for c, v in coeffs.items() if v)), rhs


def literal_axiom_violations(p):
    """The axiom check walked literally in plain Fraction arithmetic:
    R1 on every space, R2 on every cover and R3 on every incomparable
    pair, found by a double loop with lat.meet and lat.join.  Empty iff
    check_axioms' report is, and that report is this one with only the
    facet instances kept (facet_axiom_violations)."""
    lat, vals = p.lattice, p.values
    bad = []
    for i, v in enumerate(vals):
        if v < 0:
            bad.append(("R1", (i,), -v))
        elif v > lat.dims[i]:
            bad.append(("R1", (i,), v - lat.dims[i]))
    for y in range(lat.size):
        for x in lat.covers_down[y]:
            if vals[x] > vals[y]:
                bad.append(("R2", (x, y), vals[x] - vals[y]))
    for x in range(lat.size):
        for y in range(x + 1, lat.size):
            if lat.leq(x, y) or lat.leq(y, x):
                continue
            slack = vals[lat.meet(x, y)] + vals[lat.join(x, y)] - vals[x] - vals[y]
            if slack > 0:
                bad.append(("R3", (x, y), slack))
    return tuple(bad)


def facet_axiom_violations(p):
    """literal_axiom_violations(p) with only the facet instances kept,
    in its order: R1 on the zero space, R1 upper bounds on the atoms, R2
    on the covers of the top and R3 on the diamonds, the pairs that both
    cover their meet.  The reference for check_axioms."""
    lat, vals, dims = p.lattice, p.values, p.lattice.dims

    def facet(tag, spaces):
        if tag == "R1":
            (i,) = spaces
            return i == 0 or (dims[i] == 1 and vals[i] > 1)
        x, y = spaces
        if tag == "R2":
            return y == lat.top
        return dims[x] == dims[y] == dims[lat.meet(x, y)] + 1

    return tuple(v for v in literal_axiom_violations(p) if facet(*v[:2]))


def literal_independence(p, mu):
    """The IndependenceReport of p at mu from the definitions, with
    lat.leq over every pair of spaces: I is mu-independent iff
    rho(J) >= dim J / mu for every J with J <= I, a mu-circuit is a
    dependent space whose proper subspaces are all independent, and a
    mu-loop is a dependent atom.  The reference for independence_report,
    which recurses over the lower covers."""
    lat, vals, dims = p.lattice, p.values, p.lattice.dims
    spaces = range(lat.size)
    below = [[j for j in spaces if lat.leq(j, i)] for i in spaces]
    indep = frozenset(i for i in spaces if all(
        vals[j] >= Fraction(dims[j], mu) for j in below[i]))
    circuits = frozenset(i for i in spaces if i not in indep and all(
        j in indep for j in below[i] if j != i))
    loops = frozenset(a for a in spaces if dims[a] == 1 and a not in indep)
    return IndependenceReport(mu, indep, circuits, loops)


def literal_mu_bases(p, rep, v):
    """The inclusion-maximal spaces of rep.independent inside the space
    at index v, by lat.leq over every pair: the reference for mu_bases."""
    lat = p.lattice
    inside = [i for i in rep.independent if lat.leq(i, v)]
    return frozenset(i for i in inside if not any(
        j != i and lat.leq(i, j) for j in inside))


def span_containment_order(lat):
    """The lattice's order attributes by name, all found by testing for
    every pair whether each basis row of i lies in the span of j: the
    reference for the order built from tails and covers."""
    subs, dims, size = lat.subspaces, lat.dims, lat.size
    below = []
    for sj in subs:
        vs = frozenset(matrix_vectors(sj.basis))
        below.append(sum(1 << i for i, s in enumerate(subs)
                         if s.dim <= sj.dim and all(r in vs for r in s.basis.entries)))
    above = [sum(1 << j for j in range(size) if (below[j] >> i) & 1)
             for i in range(size)]
    lows = [tuple(i for i in range(size) if (m >> i) & 1) for m in below]
    highs = [tuple(j for j in range(size) if (m >> j) & 1) for m in above]
    covers_down = tuple(tuple(i for i in lows[j] if dims[i] == dims[j] - 1)
                        for j in range(size))
    covers_up = tuple(tuple(j for j in range(size) if i in covers_down[j])
                      for i in range(size))
    atoms_of = tuple(tuple(i for i in lows[j] if dims[i] == 1)
                     for j in range(size))
    atoms = [i for i in range(size) if dims[i] == 1]
    hyperplanes = [i for i in range(size) if dims[i] == lat.n - 1]
    atom_sets = tuple(sum(1 << k for k, a in enumerate(atoms) if a in lows[j])
                      for j in range(size))
    hyperplane_sets = tuple(sum(1 << k for k, h in enumerate(hyperplanes)
                                if h in highs[i])
                            for i in range(size))
    return {"below_mask": tuple(below),
            "covers_down": covers_down, "covers_up": covers_up,
            "atoms_of": atoms_of, "atom_sets": atom_sets,
            "hyperplane_sets": hyperplane_sets,
            "space_of_atom_set": {m: j for j, m in enumerate(atom_sets)},
            "space_of_hyperplane_set": {m: j for j, m in enumerate(hyperplane_sets)}}


def reference_vector_code_ranks(V, lattice):
    """rho(W) = k - dim C(W) for every W of the lattice, one rref per
    subspace of the rows (g_1 . b, ..., g_k . b) over the basis rows b
    of W, with no prefix recursion: the reference for
    vector_code_qmatroid."""
    ext = V.ext_field
    ranks = []
    for s in lattice.subspaces:
        B = s.basis
        if B.rows == 0:
            ranks.append(0)
            continue
        rows = [tuple(ext.dot(g, brow) for g in V.generators)
                for brow in B.entries]
        ranks.append(rref(FqMatrix.from_rows(ext, rows, V.k)).rank)
    return tuple(ranks)


def reference_sparse_rank(rows):
    """Rank over Q of sparse integer rows by Gauss-Jordan elimination
    that reduces every row in full: each pivot row is primitive,
    positive at its pivot column and zero at every other pivot column,
    and a new pivot is cleared from the rows that hold its column.  The
    reference for polytope._rank, which keeps the null space of the rows
    instead: its skip of rows on solved columns, its dot-product test
    with any number of free columns, and its full-rank stop."""
    pivots = {}   # pivot column -> its row {column: value}
    holders = {}  # free column -> the pivot columns whose rows hold it
    gcd = math.gcd
    for row in rows:
        r = {c: v for c, v in row if v}
        for c in [c for c in r if c in pivots]:
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
        pivots[col] = r
        for k in r:
            if k != col:
                holders.setdefault(k, set()).add(col)
    return len(pivots)


def matrix_to_json(M):
    return {"q": M.field.q, "rows": [list(r) for r in M.entries], "cols": M.cols}


def matrix_from_json(obj):
    field = make_field(obj["q"])
    rows = [tuple(r) for r in obj["rows"]]
    cols = obj.get("cols")
    if cols is None:
        cols = len(rows[0]) if rows else 0
    return FqMatrix.from_rows(field, rows, cols) if rows else FqMatrix(field, 0, cols, ())


def puiseux_from_pairs(pairs):
    """The inverse of TruncatedPuiseux.to_pairs."""
    return TruncatedPuiseux.from_terms((Fraction(e), int(c)) for e, c in pairs)


def plain_dfs_lattice_points(lat):
    """The integer points by depth-first search in the lattice order
    with no forward checking: the bounds of each space come from its
    lower covers and from the submodularity rows whose join it is.  The
    reference for the forward-checked search of lattice_points."""
    size = lat.size
    join_pairs = [[] for _ in range(size)]
    for x, y, m, j in reference_pairs(lat):
        join_pairs[j].append((x, y, m))
    vals = [0] * size
    out = []

    def rec(z):
        if z == size:
            out.append(rank_point(lat, vals))
            return
        lo = 0
        hi = lat.dims[z]
        for x in lat.covers_down[z]:
            lo = max(lo, vals[x])
            hi = min(hi, vals[x] + 1)
        for a, b, m in join_pairs[z]:
            hi = min(hi, vals[a] + vals[b] - vals[m])
        for v in range(lo, hi + 1):
            vals[z] = v
            rec(z + 1)
        vals[z] = 0

    rec(1)
    return out


def rank_test_vertices(H):
    """The vertices by the same double description as
    enumerate_vertices, deciding adjacency by the algebraic test: a
    plus/minus pair combines iff the constraints tight at both have rank
    dim - 1.  The constraints are _dd_constraints' rows decoded by
    table_row into dense homogenized rows over v_1 .. v_d and t, and the
    rays are plain vectors over those columns, so this shares nothing
    with the padded rays.  The reference for the bitset adjacency test."""
    lat = H.lattice
    d = lat.size - 1
    cons = []
    for row in _dd_constraints(H):
        coeffs, rhs = table_row(lat, row)
        cons.append([(c - 1, v) for c, v in coeffs] + ([(d, -rhs)] if rhs else []))
    base = d + 1

    D = d + 1
    base_mask = (1 << base) - 1
    rays = []
    for k in range(d):
        vec = [0] * D
        vec[k] = -1
        rays.append((tuple(vec), base_mask ^ (1 << k)))
    rays.append((tuple(lat.dims[1:]) + (1,), base_mask ^ (1 << d)))

    def adjacent(z):
        tight = [cons[k] for k in range(len(cons)) if (z >> k) & 1]
        return _rank(tight) == D - 2

    for ci in range(base, len(cons)):
        c = cons[ci]
        bit = 1 << ci
        plus, zero, minus = [], [], []
        for vec, z in rays:
            val = sum(a * vec[i] for i, a in c)
            if val > 0:
                plus.append((vec, z, val))
            elif val < 0:
                minus.append((vec, z, val))
            else:
                zero.append((vec, z | bit))
        new = []
        for pvec, pz, pval in plus:
            for mvec, mz, mval in minus:
                z = pz & mz
                if z.bit_count() < D - 2 or not adjacent(z):
                    continue
                comb = [pval * mm - mval * pp for pp, mm in zip(pvec, mvec)]
                g = math.gcd(*comb)
                new.append((tuple(x // g for x in comb), z | bit))
        rays = zero + [(vec, z) for vec, z, _ in minus] + new

    verts = [rank_point(lat, (Fraction(0),)
                        + tuple(Fraction(x, vec[-1]) for x in vec[:-1]))
             for vec, _ in rays]
    verts.sort(key=lambda p: p.values)
    return verts
