"""Command line frontend.

Every subcommand is a one-shot pipeline over the JSON / text formats
defined by the library modules: lattice dumps, rank-point files with an
order digest, H-representation text, vertex lists, code files, and
polynomial serializations.  Exit codes: 0 success, 1 validation
failure, 2 size cap exceeded.  A file that does not decode as JSON
(errors.read_json) is a validation failure naming the file; one that is
not a JSON object, lacks a key it needs, or holds a value that does not
parse (a subspace row of the wrong length or outside the field, a
rational that is not one or has too many digits), is one naming the
file and the key.  With --json-errors
failures are also reported as one JSON object on stderr.

One table, _GROUPS, declares every leaf: its group, its help and the
names of the options it takes, each defined once in _OPTIONS.  This last
paragraph is left out of the parser's description.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import islice

# every other library module is imported inside the handlers that use
# it, so a subcommand loads only what it runs
from . import subspaces
from .errors import (CapExceeded, ValidationError, parse_int, parse_key,
                     parse_rational, read_json)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationError(message)


def _positive_int(text):
    """The value of --max-lattice: a cap below 1 would refuse every
    lattice, so it is refused as a bad value instead."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"need a positive integer, got {text!r}")
    return value


def _write(args, text):
    _write_lines(args, (text,))


def _write_lines(args, lines):
    """Write the strings in turn to --out, or to stdout without it."""
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(_chunks(lines))
    else:
        sys.stdout.writelines(_chunks(lines))


def _chunks(lines, size=4096):
    """The strings joined size at a time: an unbuffered stream (python -u,
    PYTHONUNBUFFERED) makes one system call of each write."""
    lines = iter(lines)
    for first in lines:
        yield first + "".join(islice(lines, size - 1))


def _emit_json(args, obj):
    _write(args, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _lattice(args):
    return subspaces.build_lattice(args.q, args.n, max_size=args.max_lattice)


def _file_lattice(args, obj, source):
    """The lattice named by the file's integer keys q and n."""
    q, n = (parse_key(obj, key, parse_int, source) for key in ("q", "n"))
    return subspaces.build_lattice(q, n, max_size=args.max_lattice)


def _load_point(args, path):
    from . import rankfun
    obj = read_json(path, ("q", "n", "values"))
    return rankfun.point_from_json(obj, _file_lattice(args, obj, path), path)


def _points_text(points):
    lines = [" ".join(str(v) for v in p.values) for p in points]
    return "\n".join(lines) + ("\n" if lines else "")


# -- subcommand handlers -------------------------------------------------

def _cmd_lattice_build(args):
    lat = _lattice(args)
    dump = lat.dump()
    dump["order_digest"] = lat.order_digest()
    _emit_json(args, dump)
    return 0


def _cmd_polytope(args):
    from . import polytope, rankfun
    lat = _lattice(args)
    if args.which == "points":
        _write(args, _points_text(polytope.lattice_points(lat)))
        return 0
    if args.which == "hrep":  # the text reads no facet: build none
        _write_lines(args, polytope.HRepresentation(lat).text_lines(args.full))
        return 0
    H = polytope.build_hrep(lat)
    if args.which == "vertices":
        _write(args, _points_text(polytope.enumerate_vertices(H)))
    elif args.which == "fvector":
        fv = polytope.f_vector(H)
        _write(args, " ".join(str(c) for c in fv) + "\n")
    elif args.which == "dim":
        _write(args, f"{polytope.affine_dimension(H)}\n")
    elif args.which == "witness":
        wit = polytope.interior_witness(lat)
        status = polytope.membership(H, wit).status
        _emit_json(args, {"point": rankfun.point_to_json(wit), "status": status})
    return 0


def _cmd_pm(args):
    from . import rankfun
    p = _load_point(args, args.point)
    if args.which == "check":
        rep = rankfun.check_axioms(p)
        _emit_json(args, {
            "ok": rep.ok,
            "violations": [{"axiom": a, "spaces": list(w), "slack": str(s)}
                           for a, w, s in rep.violations],
        })
    elif args.which in ("flats", "cyclic", "zflats"):
        fn = {"flats": rankfun.flats, "cyclic": rankfun.cyclic_spaces,
              "zflats": rankfun.cyclic_flats}[args.which]
        _emit_json(args, {args.which: sorted(fn(p))})
    elif args.which == "indep":
        rep = rankfun.independence_report(p, args.mu)
        _emit_json(args, {
            "mu": rep.mu,
            "independent": sorted(rep.independent),
            "circuits": sorted(rep.circuits),
            "loops": sorted(rep.loops),
        })
    elif args.which == "classify":
        mu = args.mu if args.mu else rankfun.principal_denominator(p)
        cls = rankfun.classify(p, mu)
        _emit_json(args, {
            "mu": mu,
            "is_qmatroid": cls.is_qmatroid,
            "loop_space": cls.loop_space,
            "is_full": cls.is_full,
            "is_paving": cls.is_paving,
            "is_mu_paving": cls.is_mu_paving,
            "principal_denominator": rankfun.principal_denominator(p),
        })
    return 0


def _cmd_make(args):
    from . import constructions, rankfun
    if args.which == "uniform":
        spec = {"kind": "uniform", "q": args.q, "n": args.n, "k": args.k}
        source = "make uniform"
    else:
        spec, source = read_json(args.spec), args.spec
        if spec.get("kind") != args.which:
            raise ValidationError(
                f"spec kind {spec.get('kind')!r} does not match subcommand {args.which}")
    point = constructions.compile_spec(spec, source=source,
                                       max_size=args.max_lattice)
    _emit_json(args, rankfun.point_to_json(point))
    return 0


def _cmd_invariant(args):
    from . import charpoly
    if args.which == "chi":
        p = _load_point(args, args.point)
        chi = charpoly.char_puiseux(p)
        _emit_json(args, {"terms": chi.to_pairs(), "pretty": str(chi),
                          "at_one": chi.eval_at_one()})
        return 0
    # chi-combo: closed form for a paving combination, cross-checked
    from . import constructions
    spec = read_json(args.spec, ("q", "n", "k", "lambda", "s1", "s2"))
    lat = _file_lattice(args, spec, args.spec)
    k = parse_key(spec, "k", parse_int, args.spec)
    lam = parse_key(spec, "lambda", parse_rational, args.spec)
    s1, s2 = (parse_key(spec, key, lambda v: constructions.space_indices(lat, v),
                        args.spec) for key in ("s1", "s2"))
    specs = [constructions.paving_spec(lat, k, s) for s in (s1, s2)]
    rep = constructions.paving_combo_report(*specs, lam)
    direct = charpoly.char_puiseux(rep.point)
    via = args.via
    base = charpoly.char_puiseux(constructions.paving(specs[via - 1]))
    formula = charpoly.paving_combo_char(base, (len(s1), len(s2)), k, lat.q, lam, via=via)
    if formula != direct:
        raise ValidationError("closed form disagrees with the direct computation")
    _emit_json(args, {"terms": direct.to_pairs(), "pretty": str(direct),
                      "via": via, "agrees": True})
    return 0


def _cmd_code(args):
    from . import codes, rankfun
    if args.which == "mrd":
        lat = _lattice(args)
        point = codes.mrd_closed_form(lat, args.m, args.d)
        _emit_json(args, rankfun.point_to_json(point))
        return 0
    C = codes.load_code(args.code)
    if args.which == "metrics":
        met = codes.code_metrics(C)
        _emit_json(args, {"k": met.k, "d": met.d, "d_perp": met.d_perp,
                          "is_mrd": met.is_mrd})
    elif args.which == "rho":
        lat = subspaces.build_lattice(C.field.q, C.n, max_size=args.max_lattice)
        point = codes.induced_polymatroid(C, lat)
        _emit_json(args, rankfun.point_to_json(point))
    return 0


# every option a leaf can take, each defined once; a name with "=0"
# is the option under that flag, optional with default 0
_INT, _PATH = dict(type=int, required=True), dict(required=True)
_OPTIONS = {
    "q": _INT, "n": _INT, "k": _INT, "m": _INT, "d": _INT, "mu": _INT,
    "point": _PATH, "spec": _PATH, "code": _PATH,
    "mu=0": dict(type=int, default=0),  # 0: the principal denominator
    "via": dict(type=int, choices=(1, 2), default=1),
    "full": dict(action="store_true",
                 help="print the unreduced system: add the column "
                      "v_0 and the rows v_0 <= 0, -v_0 <= 0"),
}

# group -> (help, handler name, {leaf: (help, option names)}); every
# leaf also takes --out/-o.  The handler is looked up when the parser is
# built, so a handler replaced on the module is the one that runs.
_GROUPS = {
    "lattice": ("subspace lattice pipelines", "_cmd_lattice_build", {
        "build": ("enumerate L(F_q^n) and dump it as JSON", ("q", "n")),
    }),
    "polytope": ("q-rank polytope pipelines", "_cmd_polytope", {
        # --full: the one output that v_0 changes
        "hrep": ("H-representation as text", ("q", "n", "full")),
        "points": ("all integer points", ("q", "n")),
        "vertices": ("all vertices (double description)", ("q", "n")),
        "fvector": ("face counts by dimension", ("q", "n")),
        "dim": ("affine dimension", ("q", "n")),
        "witness": ("interior witness and its membership", ("q", "n")),
    }),
    "pm": ("q-polymatroid reports for a point file", "_cmd_pm", {
        "check": ("axiom report", ("point",)),
        "flats": ("set of flats", ("point",)),
        "cyclic": ("set of cyclic spaces", ("point",)),
        "zflats": ("set of cyclic flats", ("point",)),
        "indep": ("mu-independence report", ("point", "mu")),
        "classify": ("classification report", ("point", "mu=0")),
    }),
    "make": ("compile a construction to a point file", "_cmd_make", {
        "uniform": ("uniform q-matroid", ("q", "n", "k")),
        "paving": ("paving construction from a JSON spec", ("spec",)),
        "combo": ("combo construction from a JSON spec", ("spec",)),
        "flag": ("flag construction from a JSON spec", ("spec",)),
    }),
    "invariant": ("characteristic Puiseux polynomial", "_cmd_invariant", {
        "chi": ("polynomial of a point file", ("point",)),
        "chi-combo": ("closed form for a paving combination spec",
                      ("spec", "via")),
    }),
    "code": ("rank-metric code pipelines", "_cmd_code", {
        "metrics": ("k, d, dual distance, MRD check", ("code",)),
        "rho": ("induced q-polymatroid point", ("code",)),
        "mrd": ("MRD closed-form rank function", ("q", "n", "m", "d")),
    }),
}


def build_parser(argv=None):
    """The qrank parser.  Every group is added, but the leaf sub-parsers
    only of the group named by the first token of argv that names one,
    since a process parses one command; with no group named (argv None,
    --help, a bad group) every group gets its leaves."""
    top = _Parser(prog="qrank", description=__doc__.rpartition("\n\n")[0])
    top.add_argument("--json-errors", action="store_true",
                     help="report failures as JSON on stderr")
    top.add_argument("--max-lattice", type=_positive_int,
                     default=subspaces.MAX_LATTICE_SIZE,
                     help="cap on the number of subspaces")
    sub = top.add_subparsers(dest="command", required=True)
    named = next((a for a in argv or () if a in _GROUPS), None)
    for name, (hlp, handler, leaves) in _GROUPS.items():
        group = sub.add_parser(name, help=hlp).add_subparsers(
            dest="which", required=True)
        if named not in (None, name):
            continue
        for leaf, (leaf_help, options) in leaves.items():
            parser = group.add_parser(leaf, help=leaf_help)
            for option in options:
                parser.add_argument("--" + option.partition("=")[0],
                                    **_OPTIONS[option])
            parser.add_argument("--out", "-o")
            parser.set_defaults(func=globals()[handler])
    return top


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv)
    json_errors = "--json-errors" in argv
    args = None
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CapExceeded as exc:
        _report_error(exc, json_errors)
        return 2
    except BrokenPipeError as exc:
        if getattr(args, "out", None):  # the --out file broke, not stdout
            _report_error(exc, json_errors)
        else:
            # stdout's reader has gone, as with `| head`: say nothing, and
            # point stdout at devnull so that the flush at exit is silent
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValidationError, OSError) as exc:
        _report_error(exc, json_errors)
        return 1


def _report_error(exc, json_errors):
    if json_errors:
        sys.stderr.write(json.dumps(
            {"error": type(exc).__name__, "message": str(exc)}) + "\n")
    else:
        sys.stderr.write(f"qrank: error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
