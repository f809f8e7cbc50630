"""Which public entry points the traced run wraps, and how the wrapped
calls and spans turn into the per-layer metrics.

Each entry is (target, group, span, counter): target is
"module:function" or "module:Class.method"; calls and time accumulate
in the metric group, and time nested inside another call of the same
group is not counted twice; span says whether each call also records a
span (the hot, fine-grained entry points only count); counter adds
work counts taken from the arguments and the result.
"""

from __future__ import annotations

import statistics

from harness import shape, self_times


def _rows_evaluated(tr, args, result):
    tr.count("polytope.rows_evaluated", len(args[0].rows))


def _tight_rows(tr, args, result):
    tr.count("polytope.tight_rows", len(result.tight_rows))
    tr.samples.setdefault(f"is_vertex.tight_rows {shape(args)}", []).append(
        len(result.tight_rows))


def _hrep_rows(tr, args, result):
    tr.count("polytope.hrep_rows", len(result.rows))


def _vertices(tr, args, result):
    tr.count("polytope.vertices", len(result))


def _faces(tr, args, result):
    tr.count("polytope.faces", sum(result))


def _points(tr, args, result):
    tr.count("polytope.points", len(result))


def _text_bytes(tr, args, result):
    tr.count("polytope.to_text.bytes", len(result))


ORACLES = ("independence_report", "mu_bases", "closure", "flats",
           "cyclic_spaces", "cyclic_flats", "classify")
CONSTRUCTIONS = ("uniform", "paving_spec", "paving", "convex_combination",
                 "point_from_profile", "paving_combo_report",
                 "two_uniform_combo_report", "flag_uniform_combo",
                 "compile_spec")
CODES = ("matrix_code", "dual_code", "minimum_distance", "code_metrics",
         "induced_polymatroid", "mrd_closed_form", "mrd_combo_independence",
         "vector_code", "vector_code_qmatroid", "expanded_matrix_code",
         "load_code", "gabidulin_line_code")

ENTRY_POINTS = (
    [("qrank.subspaces:SubspaceLattice.meet", "subspaces.meet_join", False, None),
     ("qrank.subspaces:SubspaceLattice.join", "subspaces.meet_join", False, None),
     ("qrank.subspaces:build_lattice", "subspaces.build_lattice", True, None),
     ("qrank.fields:rref", "fields.rref", False, None),
     ("qrank.polytope:build_hrep", "polytope.build_hrep", True, _hrep_rows),
     ("qrank.polytope:membership", "polytope.membership", True, _rows_evaluated),
     ("qrank.polytope:is_vertex", "polytope.is_vertex", True, _tight_rows),
     ("qrank.polytope:enumerate_vertices", "polytope.enumerate_vertices", True,
      _vertices),
     ("qrank.polytope:f_vector", "polytope.f_vector", True, _faces),
     ("qrank.polytope:lattice_points", "polytope.lattice_points", True, _points),
     ("qrank.polytope:HRepresentation.to_text", "polytope.to_text", True,
      _text_bytes),
     ("qrank.rankfun:check_axioms", "rankfun.check_axioms", True, None),
     ("qrank.codes:MatrixCode.word_rank", "codes.word_rank", False, None),
     ("qrank.charpoly:char_puiseux", "charpoly", True, None),
     ("qrank.charpoly:paving_combo_char", "charpoly", True, None),
     ("qrank.cli:main", "cli.main", True, None)]
    + [(f"qrank.rankfun:{f}", "rankfun.oracles", True, None) for f in ORACLES]
    + [(f"qrank.constructions:{f}", "constructions", True, None)
       for f in CONSTRUCTIONS]
    + [(f"qrank.codes:{f}", "codes", True, None) for f in CODES]
)

# (metric, unit); every traced run reports all of them, 0 where the
# workload never reaches the layer.
PER_LAYER = (
    ("subspaces.meet_join.calls", "count"),
    ("subspaces.meet_join.s", "s"),
    ("subspaces.build_lattice.calls", "count"),
    ("subspaces.build_lattice.s", "s"),
    ("fields.rref.calls", "count"),
    ("fields.rref.s", "s"),
    ("polytope.build_hrep.s", "s"),
    ("polytope.hrep_rows", "count"),
    ("polytope.membership.s", "s"),
    ("polytope.rows_evaluated", "count"),
    ("polytope.is_vertex.s", "s"),
    ("polytope.tight_rows", "count"),
    ("polytope.enumerate_vertices.s", "s"),
    ("polytope.vertices", "count"),
    ("polytope.f_vector.s", "s"),
    ("polytope.faces", "count"),
    ("polytope.lattice_points.s", "s"),
    ("polytope.points", "count"),
    ("polytope.to_text.s", "s"),
    ("polytope.to_text.bytes", "bytes"),
    ("rankfun.check_axioms.calls", "count"),
    ("rankfun.check_axioms.s", "s"),
    ("rankfun.oracles.calls", "count"),
    ("rankfun.oracles.s", "s"),
    ("constructions.s", "s"),
    ("codes.s", "s"),
    ("codes.words_ranked", "count"),
    ("charpoly.s", "s"),
    ("cli.main.s", "s"),
    ("cli.startup_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("trace.overhead_frac", "ratio"),
)

# ROADMAP item-1 baselines (seconds per call), keyed by span name and the
# lattice the call ran on; "cli hrep (2,5)" is a whole subprocess.
BASELINES = {
    "polytope.build_hrep (2,5)": 3.2,
    "rankfun.check_axioms (2,5)": 3.8,
    "polytope.membership (2,5)": 1.5,
    "polytope.is_vertex (2,5)": 3.4,
    "polytope.enumerate_vertices (5,2)": 0.011,
    "polytope.lattice_points (3,3)": 0.29,
    "cli polytope hrep --q 2 --n 5": 8.0,
}


def per_layer(tracer, overhead_frac, cli_extra=None):
    """All PER_LAYER metrics from one traced run."""
    g = tracer.groups
    c = tracer.counts

    def calls(name):
        return g[name].calls if name in g else 0

    def secs(name):
        return g[name].seconds if name in g else 0.0

    selfs = self_times(tracer.spans)
    is_vertex_self = sum(t for s, t in zip(tracer.spans, selfs)
                         if s.name == "polytope.is_vertex")
    cli_extra = cli_extra or {}
    values = {
        "subspaces.meet_join.calls": calls("subspaces.meet_join"),
        "subspaces.meet_join.s": secs("subspaces.meet_join"),
        "subspaces.build_lattice.calls": calls("subspaces.build_lattice"),
        "subspaces.build_lattice.s": secs("subspaces.build_lattice"),
        "fields.rref.calls": calls("fields.rref"),
        "fields.rref.s": secs("fields.rref"),
        "polytope.build_hrep.s": secs("polytope.build_hrep"),
        "polytope.hrep_rows": c.get("polytope.hrep_rows", 0),
        "polytope.membership.s": secs("polytope.membership"),
        "polytope.rows_evaluated": c.get("polytope.rows_evaluated", 0),
        "polytope.is_vertex.s": is_vertex_self,
        "polytope.tight_rows": c.get("polytope.tight_rows", 0),
        "polytope.enumerate_vertices.s": secs("polytope.enumerate_vertices"),
        "polytope.vertices": c.get("polytope.vertices", 0),
        "polytope.f_vector.s": secs("polytope.f_vector"),
        "polytope.faces": c.get("polytope.faces", 0),
        "polytope.lattice_points.s": secs("polytope.lattice_points"),
        "polytope.points": c.get("polytope.points", 0),
        "polytope.to_text.s": secs("polytope.to_text"),
        "polytope.to_text.bytes": c.get("polytope.to_text.bytes", 0),
        "rankfun.check_axioms.calls": calls("rankfun.check_axioms"),
        "rankfun.check_axioms.s": secs("rankfun.check_axioms"),
        "rankfun.oracles.calls": calls("rankfun.oracles"),
        "rankfun.oracles.s": secs("rankfun.oracles"),
        "constructions.s": secs("constructions"),
        "codes.s": secs("codes"),
        "codes.words_ranked": calls("codes.word_rank"),
        "charpoly.s": secs("charpoly"),
        "cli.main.s": secs("cli.main"),
        "cli.startup_s": cli_extra.get("startup_s", 0.0),
        "cli.output_bytes": cli_extra.get("output_bytes", 0),
        "trace.overhead_frac": overhead_frac,
    }
    return {name: (values[name], unit) for name, unit in PER_LAYER}


def roadmap_crosscheck(tracer, cli_extra=None):
    """Median traced duration per call beside each ROADMAP baseline that
    this run reached.  For is_vertex the tight-row count is attached,
    since its cost scales with it."""
    by_key = {}
    for s in tracer.spans:
        if s.key is not None and not isinstance(s.key, int):
            by_key.setdefault(f"{s.name} {s.key}", []).append(s.end - s.start)
    for label, secs in (cli_extra or {}).get("subprocess_s", {}).items():
        by_key.setdefault(f"cli {label}", []).extend(secs)
    out = {}
    for key, baseline in BASELINES.items():
        if key in by_key:
            out[key] = {"baseline_s": baseline,
                        "median_s": statistics.median(by_key[key]),
                        "calls": len(by_key[key])}
    if "polytope.is_vertex (2,5)" in out:
        out["polytope.is_vertex (2,5)"]["tight_rows_per_call"] = \
            tracer.samples.get("is_vertex.tight_rows (2,5)", [])
    return out
