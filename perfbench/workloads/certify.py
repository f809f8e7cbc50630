"""certify: exact certification of rank points on the two large lattices.

Set-up builds L(F_2^5) and L(F_3^4) (both above MEMO_THRESHOLD, so every
meet and join goes through RREF), their H-representations, and a
seeded stream of points.  A query certifies one point: check_axioms,
then is_vertex when the point is feasible, otherwise membership.

Each pass has a fixed schedule of point kinds, with the rank parameter
fixed where a kind has one, so every seed does the same kinds of work
and the seed picks the remaining parameters.  A pass is two rounds;
each round certifies every kind on L(F_3^4), integral vertices
included, then one flag combination (fractional and feasible) and one
raised copy on L(F_2^5).  The (3,4) kinds come in pairs, so the median
query lies among like queries; the (2,5) queries are the slowest, and
the tail, the slowest of them, rests on four queries spread over the
run rather than two at its end.  Integral vertices of L(F_2^5) are left
out (perfbench/exclusions.json).
"""

from __future__ import annotations

import random

from qrank import polytope, rankfun, subspaces

import points
import samplers
from harness import Query, State, expect

NAME = "certify"
SEGMENTS = 3
PASS_SECONDS = 40.0
ROUNDS = 2

LATTICES = {"big": (2, 5), "small": (3, 4)}
SMOKE_LATTICES = {"big": (2, 4), "small": (2, 4)}

# ":k" fixes the rank parameter; "raised" copies an earlier point of the
# pass with one seeded coordinate raised by 1
SMALL_KINDS = ("uniform:2", "paving:2", "paving_combo:2", "two_uniform",
               "mrd_combo", "code", "witness", "raised")
BIG_KINDS = ("flag", "raised")
SMOKE_BIG_KINDS = ("mrd_combo", "raised")


def _certify(H, p):
    rep = rankfun.check_axioms(p)
    if rep.ok:
        return rep, polytope.is_vertex(H, p)
    return rep, polytope.membership(H, p)


def _checker(H, kind, constructed):
    dim = H.ambient_dim

    def check(out):
        rep, res = out
        if not rep.ok:
            expect(res.status == "outside",
                   f"check_axioms fails but membership says {res.status}")
            expect(not constructed, "a constructed point failed check_axioms: "
                   f"{rep.violations[:3]}")
            return
        # is_vertex returned, so membership found no violated row
        p = res.point
        if p.is_integral():
            expect(res.is_vertex and res.normal_rank == dim,
                   f"integral feasible point has normal rank {res.normal_rank}"
                   f" of {dim}")
        if kind == "witness":
            expect(not res.tight_rows and not res.is_vertex,
                   f"witness is not interior: {len(res.tight_rows)} tight rows")
    return check


def _query(H, kind, p, desc, constructed):
    shape = f"({H.lattice.q},{H.lattice.n})"
    return Query(f"{shape} {desc}", lambda: _certify(H, p),
                 _checker(H, kind, constructed))


def _pass(lat, H, kinds, rng):
    queries = []
    built = []
    for entry in kinds:
        kind, _, k = entry.partition(":")
        if kind == "raised":
            base = rng.choice(built)
            p = rankfun.rank_point(lat, samplers.raise_one(rng, base[0].values))
            queries.append(_query(H, kind, p, f"raised {base[1]}", False))
            continue
        p, desc = points.build(kind, lat, rng, int(k) if k else None)
        built.append((p, desc))
        queries.append(_query(H, kind, p, desc, True))
    return queries


def setup(seed, passes, smoke):
    rng = random.Random(seed)
    shapes = SMOKE_LATTICES if smoke else LATTICES
    lats = {k: subspaces.build_lattice(*qn) for k, qn in shapes.items()}
    hreps = {k: polytope.build_hrep(lat) for k, lat in lats.items()}
    big_kinds = SMOKE_BIG_KINDS if smoke else BIG_KINDS
    queries = []
    for _ in range(passes):
        for _ in range(ROUNDS):
            queries += _pass(lats["small"], hreps["small"], SMALL_KINDS, rng)
            queries += _pass(lats["big"], hreps["big"], big_kinds, rng)
    return State(queries)
