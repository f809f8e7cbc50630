"""Shared sampling helpers and reference oracles for the test suites."""

import math
from fractions import Fraction

from qrank.charpoly import TruncatedPuiseux
from qrank.fields import FqMatrix, make_field, matrix_vectors
from qrank.polytope import _dd_constraints, _rank
from qrank.rankfun import rank_point


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


def literal_axiom_violations(p):
    """The axiom check walked literally in plain Fraction arithmetic:
    R1 on every space, R2 on every cover and R3 on every incomparable
    pair, found by a double loop with lat.meet and lat.join.  The
    reference for check_axioms, its fast path included."""
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


def span_containment_order(lat):
    """(below_mask, above_mask, covers_down, covers_up, atoms_of) of the
    lattice, by testing for every pair whether each basis row of i lies
    in the span of j: the reference for the masks built from atoms."""
    subs, dims = lat.subspaces, lat.dims
    below = []
    for sj in subs:
        vs = frozenset(matrix_vectors(sj.basis))
        below.append(sum(1 << i for i, s in enumerate(subs)
                         if s.dim <= sj.dim and all(r in vs for r in s.basis.entries)))
    above = [sum(1 << j for j in range(lat.size) if (below[j] >> i) & 1)
             for i in range(lat.size)]
    lows = [[i for i in range(lat.size) if (m >> i) & 1] for m in below]
    covers_down = tuple(tuple(i for i in lows[j] if dims[i] == dims[j] - 1)
                        for j in range(lat.size))
    covers_up = tuple(tuple(j for j in range(lat.size) if i in covers_down[j])
                      for i in range(lat.size))
    atoms_of = tuple(tuple(i for i in lows[j] if dims[i] == 1)
                     for j in range(lat.size))
    return tuple(below), tuple(above), covers_down, covers_up, atoms_of


def reference_sparse_rank(rows):
    """Rank over Q of sparse integer rows by Gauss-Jordan elimination
    that reduces every row in full: each pivot row is primitive,
    positive at its pivot column and zero at every other pivot column,
    and a new pivot is cleared from the rows that hold its column.  The
    reference for polytope._rank's solved-column skip, null-vector test
    and full-rank stop."""
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
    for x, y, m, j in lat.incomparable:
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
    dim - 1.  The reference for the bitset adjacency test."""
    lat = H.lattice
    d = lat.size - 1
    cons = _dd_constraints(H)
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
