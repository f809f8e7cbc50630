"""Seeded rank points of every kind the benchmark certifies or reports on.

Calls go through qrank's module attributes (``constructions.paving``,
never a ``from`` import), so the traced run's wrappers see them.
"""

from __future__ import annotations

from qrank import codes, constructions, fields, polytope

import samplers


def mrd_pairs(n):
    """Distance pairs (d1, d2) meeting mrd_combo_independence's hypotheses."""
    out = []
    for d1 in range(2, n + 1):
        for d2 in range(1, d1):
            k1, k2 = n * (n - d1), n * (n - d2)
            if 1 < k1 < k2 and k1 + k2 >= n:
                out.append((d1, d2))
    return out


def random_code_rows(rng, q, n, m, k):
    """Flattened generators of a seeded code of k independent n x m
    matrices over F_q."""
    F = fields.make_field(q)
    return samplers.code_rows(
        rng, q, n, m, k,
        lambda rs: fields.rref(fields.FqMatrix.from_rows(F, rs, n * m)).rank)


def code_from_rows(q, n, m, rows):
    F = fields.make_field(q)
    gens = [fields.FqMatrix.from_rows(F, [r[i * m:(i + 1) * m] for i in range(n)], m)
            for r in rows]
    return codes.matrix_code(F, n, m, gens)


def build(kind, lat, rng, k=None):
    """(point, description) of the given kind on the lattice; k fixes the
    rank parameter where the kind has one, otherwise the seed picks it."""
    n = lat.n
    if kind == "uniform":
        k = k if k is not None else rng.randrange(1, n)
        return constructions.uniform(lat, k), f"uniform k={k}"
    if kind == "paving":
        k = k if k is not None else rng.randrange(2, n)
        s = samplers.paving_collection(rng, lat, k, 3)
        return (constructions.paving(constructions.paving_spec(lat, k, s)),
                f"paving k={k} |S|={len(s)}")
    if kind == "paving_combo":
        k = k if k is not None else rng.randrange(2, n)
        s1, s2 = samplers.disjoint_paving_pair(rng, lat, k, 3)
        lam = samplers.fraction(rng)
        rep = constructions.paving_combo_report(
            constructions.paving_spec(lat, k, s1),
            constructions.paving_spec(lat, k, s2), lam)
        return rep.point, f"paving_combo k={k} lam={lam}"
    if kind == "two_uniform":
        k1 = rng.randrange(2, n - 1)
        k2 = rng.randrange(k1 + 1, n)
        lam = samplers.fraction(rng)
        rep = constructions.two_uniform_combo_report(lat.q, n, k1, k2, lam,
                                                     lattice=lat)
        return rep.point, f"two_uniform k1={k1} k2={k2} lam={lam}"
    if kind == "flag":
        lambdas = samplers.simplex_weights(rng, n - 2)
        rep = constructions.flag_uniform_combo(lat.q, n, lambdas, lattice=lat)
        return rep.point, "flag " + ",".join(str(x) for x in lambdas)
    if kind == "mrd_combo":
        d1, d2 = rng.choice(mrd_pairs(n))
        lam = samplers.fraction(rng)
        rep = codes.mrd_combo_independence(n, d1, d2, lam, lattice=lat)
        return rep.point, f"mrd_combo d1={d1} d2={d2} lam={lam}"
    if kind == "code":
        C = code_from_rows(lat.q, n, 2, random_code_rows(rng, lat.q, n, 2, 3))
        return codes.induced_polymatroid(C, lat), "code m=2 k=3"
    if kind == "witness":
        return polytope.interior_witness(lat), "witness"
    raise ValueError(f"unknown point kind {kind!r}")
