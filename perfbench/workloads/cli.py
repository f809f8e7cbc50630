"""cli: the user-facing pipelines, one `python -m qrank` subprocess per
query, run one after another against the checkout's src/.

Set-up writes the seeded input files (rank points on L(F_2^5), a combo
spec, a chi-combo spec, a matrix code).  Every invocation pays the
import, argparse, a lattice rebuild and serialization, which no other
workload measures.  Outputs are checked against in-process library
results or lattice combinatorics; the last query must exit 2.

The traced run calls qrank.cli.main(argv) in-process as well, which
gives the per-layer numbers and, against the subprocess times,
cli.startup_s.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from qrank import charpoly, cli, codes, constructions, polytope, rankfun, subspaces

import points
import samplers
from harness import Query, State, expect

NAME = "cli"
SEGMENTS = 28
PASS_SECONDS = 20.0
# the four pipelines over 1 s run once a pass, the light ones twice, so
# the median query rests on samples of like queries
HEAVY = ("polytope hrep", "polytope witness", "pm check")
LIGHT_ROUNDS = 2
RSS_OF_CHILDREN = True

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / "out"
CHILD_TIMEOUT_S = 150


def _run_subprocess(argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    res = subprocess.run([sys.executable, "-m", "qrank", *argv], cwd=ROOT,
                         env=env, capture_output=True, text=True,
                         timeout=CHILD_TIMEOUT_S)
    return res.returncode, res.stdout, res.stderr


def _run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _hrep_rows(lat):
    """Row count of the reduced H-representation from the lattice's
    combinatorics alone: type 1, nonnegativity, covers above atoms and
    incomparable pairs."""
    size = lat.size
    covers = sum(1 for y in range(1, size) for x in lat.covers_down[y] if x != 0)
    incomparable = 0
    for x in range(1, size):
        bx = lat.below_mask[x]
        for y in range(x + 1, size):
            if not (bx >> y) & 1 and not (lat.below_mask[y] >> x) & 1:
                incomparable += 1
    return (size - 1) + len(lat.atom_range) + covers + incomparable


def _points_lines(pts):
    return [" ".join(str(v) for v in p.values) for p in pts]


def _make_queries(files, data):
    """(argv, expected exit code, check(stdout)) for one pass.  Oracle
    data is computed on first use, outside the timed region, and kept."""
    lat25 = data["lat25"]
    pB = data["pB"]
    lattice = functools.cache(lambda q, n: subspaces.build_lattice(q, n))

    @functools.cache
    def expected(what):
        if what == "vertices":
            H = polytope.build_hrep(lattice(7, 2))
            return _points_lines(polytope.enumerate_vertices(H))
        if what == "fvector":
            H = polytope.build_hrep(lattice(3, 2))
            return polytope.f_vector(H), len(polytope.enumerate_vertices(H))
        if what == "points":
            return _points_lines(polytope.lattice_points(lattice(3, 3)))
        C = data["code"]
        if what == "code rho":
            p = codes.induced_polymatroid(C, lattice(C.field.q, C.n))
            return [str(v) for v in p.values]
        met = codes.code_metrics(C)
        return {"k": met.k, "d": met.d, "d_perp": met.d_perp, "is_mrd": met.is_mrd}

    def hrep(q, n):
        def check(out):
            lat = lattice(q, n)
            rows, dim = _hrep_rows(lat), lat.size - 1
            lines = out.splitlines()
            expect(lines[0] == f"HREP {rows} {dim}", f"header {lines[0]!r}")
            expect(len(lines) == rows + 1, f"{len(lines) - 1} rows, expected {rows}")
            step = max(1, rows // 64)
            for line in lines[1::step]:
                expect(len(line.split()) == dim + 1, "row with the wrong width")
        return check

    def witness(out):
        obj = json.loads(out)
        wit = polytope.interior_witness(lat25)
        expect(obj["status"] == "interior", f"status {obj['status']}")
        expect(obj["point"]["values"] == [str(v) for v in wit.values],
               "witness values")
        expect(obj["point"]["order_digest"] == lat25.order_digest(), "digest")

    def vertices(out):
        lines = out.splitlines()
        expect(len(lines) == 229, f"{len(lines)} vertices, expected 229")
        expect(lines == expected("vertices"),
               "vertex lines differ from enumerate_vertices")

    def fvector(out):
        fv = [int(x) for x in out.split()]
        lib, n_vertices = expected("fvector")
        expect(fv == list(lib), f"f-vector {fv}, library gives {list(lib)}")
        expect(fv[0] == n_vertices, f"f_0 = {fv[0]}, {n_vertices} vertices")
        euler = sum((-1) ** i * f for i, f in enumerate(fv))
        expect(euler == 1 - (-1) ** len(fv), f"Euler sum {euler}")

    def lattice_points(out):
        lines = out.splitlines()
        expect(len(lines) == 56, f"{len(lines)} points, expected 56")
        expect(lines == expected("points"), "point lines differ from lattice_points")

    def lattice_build(out):
        obj = json.loads(out)
        expect(obj.pop("order_digest") == lat25.order_digest(), "digest")
        expect(obj == json.loads(json.dumps(lat25.dump())), "lattice dump")

    def make_combo(out):
        obj = json.loads(out)
        p = constructions.compile_spec(data["combo_spec"])
        expect(obj["values"] == [str(v) for v in p.values], "combo values")

    def pm_check(out):
        expect(json.loads(out) == {"ok": True, "violations": []},
               "a constructed point fails pm check")

    def pm_classify(out):
        obj = json.loads(out)
        mu = rankfun.principal_denominator(pB)
        cls = rankfun.classify(pB, mu)
        expect(obj == {"mu": mu, "is_qmatroid": cls.is_qmatroid,
                       "loop_space": cls.loop_space, "is_full": cls.is_full,
                       "is_paving": cls.is_paving,
                       "is_mu_paving": cls.is_mu_paving,
                       "principal_denominator": mu}, f"classify {obj}")

    def pm_zflats(out):
        expect(json.loads(out) == {"zflats": sorted(rankfun.cyclic_flats(pB))},
               "cyclic flats")

    def chi(out):
        obj = json.loads(out)
        poly = charpoly.char_puiseux(pB)
        expect(obj["terms"] == poly.to_pairs(), "chi terms")
        expect(obj["at_one"] == poly.eval_at_one(), "chi(1)")

    def chi_combo(out):
        obj = json.loads(out)
        expect(obj["agrees"] is True, "closed form disagrees")
        expect(obj["terms"] == charpoly.char_puiseux(data["cc_point"]).to_pairs(),
               "chi-combo terms")

    def code_rho(out):
        expect(json.loads(out)["values"] == expected("code rho"), "code rho")

    def code_metrics(out):
        expect(json.loads(out) == expected("code metrics"), "code metrics")

    def refused(out):
        expect(out == "", "a refused command wrote output")

    f = {k: str(v) for k, v in files.items()}
    return [
        ("polytope hrep --q 2 --n 5".split(), 0, hrep(2, 5)),
        ("polytope hrep --q 3 --n 4".split(), 0, hrep(3, 4)),
        ("polytope witness --q 2 --n 5".split(), 0, witness),
        ("polytope vertices --q 7 --n 2".split(), 0, vertices),
        ("polytope fvector --q 3 --n 2".split(), 0, fvector),
        ("polytope points --q 3 --n 3".split(), 0, lattice_points),
        ("lattice build --q 2 --n 5".split(), 0, lattice_build),
        (["make", "combo", "--spec", f["combo"]], 0, make_combo),
        (["pm", "check", "--point", f["pA"]], 0, pm_check),
        (["pm", "classify", "--point", f["pB"]], 0, pm_classify),
        (["pm", "zflats", "--point", f["pB"]], 0, pm_zflats),
        (["invariant", "chi", "--point", f["pB"]], 0, chi),
        (["invariant", "chi-combo", "--spec", f["cc"]], 0, chi_combo),
        (["code", "rho", "--code", f["code"]], 0, code_rho),
        (["code", "metrics", "--code", f["code"]], 0, code_metrics),
        ("lattice build --q 2 --n 6".split(), 2, refused),
    ]


SMOKE_LABELS = ("polytope fvector", "polytope points --q 3 --n 3", "make combo", "pm zflats",
                "invariant chi-combo", "code metrics", "lattice build --q 2 --n 6")


def _label(argv):
    """The command line with input files shown by their base names."""
    return " ".join(Path(a).name if os.sep in a else a for a in argv)


def _query(argv, rc_expected, check, runner):
    def full_check(res):
        rc, out, err = res
        expect(rc == rc_expected, f"exit {rc}, expected {rc_expected}: {err[-300:]}")
        check(out)
    return Query(_label(argv), lambda: runner(argv), full_check)


def _write(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")


def _seeded_inputs(rng, workdir):
    lat25 = subspaces.build_lattice(2, 5)
    lat24 = subspaces.build_lattice(2, 4)
    pA, _ = points.build("two_uniform", lat25, rng)
    pB, _ = points.build("paving_combo", lat25, rng, k=3)
    rows_of = lambda lat, i: [list(r) for r in lat.subspaces[i].basis.entries]
    lam = samplers.fraction(rng)
    s = samplers.paving_collection(rng, lat24, 2, 3)
    combo_spec = {"kind": "combo", "coefficients": [str(lam), str(1 - lam)],
                  "terms": [{"kind": "uniform", "q": 2, "n": 4,
                             "k": rng.randrange(1, 4)},
                            {"kind": "paving", "q": 2, "n": 4, "k": 2,
                             "spaces": [rows_of(lat24, i) for i in sorted(s)]}]}
    s1, s2 = samplers.disjoint_paving_pair(rng, lat24, 2, 3)
    lam2 = samplers.fraction(rng)
    cc_spec = {"q": 2, "n": 4, "k": 2, "lambda": str(lam2),
               "s1": [rows_of(lat24, i) for i in sorted(s1)],
               "s2": [rows_of(lat24, i) for i in sorted(s2)]}
    cc_point = constructions.paving_combo_report(
        constructions.paving_spec(lat24, 2, s1),
        constructions.paving_spec(lat24, 2, s2), Fraction(lam2)).point
    code = points.code_from_rows(2, 4, 3, points.random_code_rows(rng, 2, 4, 3, 3))
    files = {"pA": workdir / "pA.json", "pB": workdir / "pB.json",
             "combo": workdir / "combo.json", "cc": workdir / "chi_combo.json",
             "code": workdir / "code.json"}
    _write(files["pA"], rankfun.point_to_json(pA))
    _write(files["pB"], rankfun.point_to_json(pB))
    _write(files["combo"], combo_spec)
    _write(files["cc"], cc_spec)
    _write(files["code"], codes.code_to_json(code))
    data = {"lat25": lat25, "pA": pA, "pB": pB, "combo_spec": combo_spec,
            "cc_point": cc_point, "code": code}
    return files, data


def setup(seed, passes, smoke):
    rng = random.Random(seed)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="cli-", dir=WORK))
    files, data = _seeded_inputs(rng, workdir)
    specs = _make_queries(files, data)
    if smoke:
        specs = [s for s in specs if _label(s[0]).startswith(SMOKE_LABELS)]
    state = State([], {"specs": specs, "passes": passes, "output_bytes": 0},
                  close=lambda: shutil.rmtree(workdir, ignore_errors=True))

    def counted(argv):
        rc, out, err = _run_subprocess(argv)
        state.extra["output_bytes"] += len(out.encode())
        return rc, out, err
    state.queries = _queries(state, counted)
    return state


def _queries(state, runner):
    specs = state.extra["specs"]
    heavy = [s for s in specs if _label(s[0]).startswith(HEAVY)]
    light = [s for s in specs if s not in heavy]
    one_pass = heavy + light * LIGHT_ROUNDS
    return [_query(argv, rc, check, runner)
            for _ in range(state.extra["passes"])
            for argv, rc, check in one_pass]


def in_process_queries(state):
    """The same pass through qrank.cli.main."""
    return _queries(state, _run_in_process)


def startup_extra(state, sub, base):
    """cli.startup_s: median over invocations of subprocess wall time
    minus in-process time; also per-label subprocess times for the
    ROADMAP cross-check and the stdout bytes of the subprocess passes."""
    labels = [q.label for q in state.queries]
    by_label = {}
    for label, secs in zip(labels, sub.latencies):
        by_label.setdefault(label, []).append(secs)
    return {"startup_s": statistics.median(s - b for s, b in
                                           zip(sub.latencies, base.latencies)),
            "output_bytes": state.extra["output_bytes"],
            "subprocess_s": by_label}
