"""Seeded input generators.  They draw plain values (subspace indices,
coefficients, matrix entries) from a random.Random; qrank only ever
receives the values."""

from __future__ import annotations

from fractions import Fraction


def paving_collection(rng, lat, k, limit):
    """Up to `limit` k-spaces meeting pairwise in dimension <= k - 2."""
    pool = list(lat.grade(k))
    rng.shuffle(pool)
    chosen = []
    for c in pool:
        if len(chosen) >= limit:
            break
        if all(lat.dims[lat.meet(c, o)] <= k - 2 for o in chosen):
            chosen.append(c)
    return frozenset(chosen)


def disjoint_paving_pair(rng, lat, k, limit):
    s1 = paving_collection(rng, lat, k, limit)
    pool = [i for i in lat.grade(k) if i not in s1]
    rng.shuffle(pool)
    s2 = []
    for c in pool:
        if len(s2) >= limit:
            break
        if all(lat.dims[lat.meet(c, o)] <= k - 2 for o in s2):
            s2.append(c)
    return s1, frozenset(s2)


def fraction(rng, max_den=5):
    den = rng.randrange(2, max_den + 1)
    return Fraction(rng.randrange(1, den), den)


def simplex_weights(rng, parts, max_den=6):
    """`parts` positive fractions summing to 1."""
    raw = [rng.randrange(1, max_den + 1) for _ in range(parts)]
    return [Fraction(r, sum(raw)) for r in raw]


def code_rows(rng, q, n, m, k, rank_of):
    """k linearly independent flattened n x m matrices over F_q; rank_of
    maps a row list to its rank (the caller supplies qrank's rref)."""
    while True:
        rows = [tuple(rng.randrange(q) for _ in range(n * m)) for _ in range(k)]
        if rank_of(rows) == k:
            return rows


def raise_one(rng, values):
    """Copy of the values with one seeded coordinate raised by 1; never
    the zero space's, which the reduced H-representation leaves out."""
    out = list(values)
    i = rng.randrange(1, len(out))
    out[i] += 1
    return out
