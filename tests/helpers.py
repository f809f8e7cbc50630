"""Shared sampling helpers and reference oracles for the test suites."""

import math
from fractions import Fraction


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
