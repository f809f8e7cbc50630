import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from helpers import facet_axiom_violations, literal_axiom_violations
from qrank.cli import build_parser, main
from qrank.errors import show_int
from qrank.rankfun import point_from_json
from qrank.subspaces import SubspaceLattice


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_lattice_build(capsys):
    code, out, _ = run(capsys, "lattice", "build", "--q", "2", "--n", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["q"] == 2 and obj["n"] == 2
    assert len(obj["subspaces"]) == 5
    assert len(obj["order_digest"]) == 16


def test_polytope_points(capsys):
    code, out, _ = run(capsys, "polytope", "points", "--q", "2", "--n", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6
    assert "0 1 1 1 2" in lines


def test_polytope_vertices_and_determinism(capsys, tmp_path):
    f1, f2 = tmp_path / "a.txt", tmp_path / "b.txt"
    assert main(["polytope", "vertices", "--q", "3", "--n", "2", "-o", str(f1)]) == 0
    assert main(["polytope", "vertices", "--q", "3", "--n", "2", "-o", str(f2)]) == 0
    b1, b2 = f1.read_bytes(), f2.read_bytes()
    assert b1 == b2
    assert len(b1.splitlines()) == 11


def test_polytope_hrep_format(capsys):
    code, out, _ = run(capsys, "polytope", "hrep", "--q", "2", "--n", "2")
    assert code == 0
    lines = out.strip().splitlines()
    head = lines[0].split()
    assert head[0] == "HREP" and int(head[2]) == 4
    assert len(lines) == int(head[1]) + 1
    for line in lines[1:]:
        assert len(line.split()) == 5


class _HashingStdout:
    """Stands in for stdout and keeps only the sha256 of what is
    written, so a large text is never held."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def write(self, text):
        self.sha.update(text.encode("utf-8"))
        return len(text)

    def writelines(self, lines):
        for line in lines:
            self.write(line)


@pytest.mark.parametrize("q,n,flags,digest", [
    (2, 5, (), "8e8b272662ebcc5fce9793d80a8202f409d4802c0437e5dc2dbad849576a041a"),
    (3, 4, (), "281baec1e23f9bea3507980723f9ee84f02e941a3e5ecbda61fcaed5b92fc68d"),
    (2, 5, ("--full",),
     "1006ec8ccdc146a2403506a28cae8e985a2b926ec5275d5f20dd30dc2fc21e7f"),
    (2, 2, ("--full",),
     "347a843a1a27c785bad5a76ced23b3b036929ddb7458e6504be8a39f0bf14c1e"),
    (3, 3, ("--full",),
     "ea260eda091f02d1bc7b899872beb9b5ea850ad70cdb99944b1d633dc3a7a75e"),
], ids=["L(F_2^5)", "L(F_3^4)", "L(F_2^5)-full", "L(F_2^2)-full",
        "L(F_3^3)-full"])
def test_polytope_hrep_text_is_pinned(monkeypatch, q, n, flags, digest):
    out = _HashingStdout()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["polytope", "hrep", "--q", str(q), "--n", str(n), *flags]) == 0
    assert out.sha.hexdigest() == digest


def test_polytope_hrep_reads_no_facet(monkeypatch):
    # the text is written from the covers and the atom and hyperplane
    # sets alone, which give each meet and join: the leaf builds no
    # facet table and no diamond
    def unread(self):
        raise AssertionError("the hrep leaf read the facet table")

    monkeypatch.setattr(SubspaceLattice, "facets", property(unread))
    monkeypatch.setattr(SubspaceLattice, "diamonds", property(unread))
    out = _HashingStdout()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["polytope", "hrep", "--q", "2", "--n", "3"]) == 0
    assert out.sha.hexdigest() == (
        "a9ea65d74a5f3bdc88b9aa6418b14b15de342654dce8efcac4ddcfd7a879f9e0")


@pytest.mark.parametrize("q,digest", [
    (3, "0759578d3887abe4c3fd34a2571a13bde1a236b032e6e692c7b638df36b7aae7"),
    (7, "ddaf30f5ee99a7a3f5c349fec0cea075410a2343fca7b0c9c4d1299395ec1a1d"),
], ids=["P(3,2)", "P(7,2)"])
def test_polytope_vertices_text_is_pinned(monkeypatch, q, digest):
    # double description's vertex list, byte for byte
    out = _HashingStdout()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["polytope", "vertices", "--q", str(q), "--n", "2"]) == 0
    assert out.sha.hexdigest() == digest


def test_polytope_dim_witness_fvector(capsys):
    code, out, _ = run(capsys, "polytope", "dim", "--q", "3", "--n", "2")
    assert code == 0 and out.strip() == "5"
    code, out, _ = run(capsys, "polytope", "witness", "--q", "2", "--n", "2")
    assert code == 0
    assert json.loads(out)["status"] == "interior"
    code, out, _ = run(capsys, "polytope", "fvector", "--q", "2", "--n", "2")
    assert code == 0 and out.strip() == "6 15 18 9"


def test_make_and_pm_pipeline(capsys, tmp_path):
    point = tmp_path / "u.json"
    assert main(["make", "uniform", "--q", "2", "--n", "3", "--k", "2",
                 "-o", str(point)]) == 0
    code, out, _ = run(capsys, "pm", "check", "--point", str(point))
    assert code == 0 and json.loads(out)["ok"] is True
    code, out, _ = run(capsys, "pm", "flats", "--point", str(point))
    flats = json.loads(out)["flats"]
    assert len(flats) == 1 + 7 + 1  # dims < 2 plus E
    code, out, _ = run(capsys, "pm", "indep", "--point", str(point), "--mu", "1")
    rep = json.loads(out)
    assert rep["circuits"] == [15]
    code, out, _ = run(capsys, "pm", "classify", "--point", str(point))
    cls = json.loads(out)
    assert cls["is_qmatroid"] and cls["is_paving"] and cls["is_full"]
    code, out, _ = run(capsys, "pm", "zflats", "--point", str(point))
    assert json.loads(out)["zflats"] == [0, 15]
    code, out, _ = run(capsys, "pm", "cyclic", "--point", str(point))
    assert json.loads(out)["cyclic"] == [0, 15]


def test_pm_check_reports_every_violation(capsys, tmp_path, lat33):
    # U_{2,3} over F_3 with three values moved fails R1, R2 and R3; the
    # report names the violated facets, each an axiom instance, which
    # are the facet instances of the literal report
    point = tmp_path / "bad.json"
    assert main(["make", "uniform", "--q", "3", "--n", "3", "--k", "2",
                 "-o", str(point)]) == 0
    obj = json.loads(point.read_text())
    for i, v in ((5, "2"), (20, "-1/3"), (25, "5/2")):
        obj["values"][i] = v
    point.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "pm", "check", "--point", str(point))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "02105beb6495e04828b10f30322ca8ce60b47ccd52ee3443cf8af938be962250")
    rep = json.loads(out)
    assert rep["ok"] is False
    assert Counter(v["axiom"] for v in rep["violations"]) == {
        "R1": 1, "R2": 1, "R3": 18}
    p = point_from_json(obj, lat33)
    assert rep["violations"] == [
        {"axiom": a, "spaces": list(w), "slack": str(s)}
        for a, w, s in facet_axiom_violations(p)]
    assert Counter(a for a, _, _ in literal_axiom_violations(p)) == {
        "R1": 3, "R2": 5, "R3": 27}


def test_pm_check_reads_v0_in_the_zero_meet_rows(capsys, tmp_path, lat23):
    # U_{1,3} over F_2 with v_0 = 2 fails R1 on the zero space and R3
    # on the 21 diamonds whose meet is zero, which read v_0; R2 on its
    # seven covers and R3 on the other pairs with a zero meet fail too,
    # but they are no facets
    point = tmp_path / "v0.json"
    assert main(["make", "uniform", "--q", "2", "--n", "3", "--k", "1",
                 "-o", str(point)]) == 0
    obj = json.loads(point.read_text())
    obj["values"][0] = "2"
    point.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "pm", "check", "--point", str(point))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "b6b0ef18c90693da820c86dd5b49b02af3ac60ae2ede4022c842fa02b3cf00aa")
    rep = json.loads(out)
    assert rep["ok"] is False
    assert Counter(v["axiom"] for v in rep["violations"]) == {
        "R1": 1, "R3": 21}
    p = point_from_json(obj, lat23)
    assert rep["violations"] == [
        {"axiom": a, "spaces": list(w), "slack": str(s)}
        for a, w, s in facet_axiom_violations(p)]
    assert Counter(a for a, _, _ in literal_axiom_violations(p)) == {
        "R1": 1, "R2": 7, "R3": 49}


def test_make_combo_and_chi(capsys, tmp_path):
    spec = tmp_path / "combo.json"
    spec.write_text(json.dumps({
        "kind": "combo",
        "coefficients": ["1/2", "1/2"],
        "terms": [
            {"kind": "uniform", "q": 2, "n": 3, "k": 2},
            {"kind": "paving", "q": 2, "n": 3, "k": 2,
             "spaces": [[[0, 1, 0], [0, 0, 1]]]},
        ],
    }))
    point = tmp_path / "combo_point.json"
    assert main(["make", "combo", "--spec", str(spec), "-o", str(point)]) == 0
    code, out, _ = run(capsys, "invariant", "chi", "--point", str(point))
    assert code == 0
    obj = json.loads(out)
    assert obj["terms"] == [["0", 4], ["1/2", 2], ["1", -7], ["2", 1]]
    assert obj["at_one"] == 0


def test_chi_combo_closed_form(capsys, tmp_path):
    spec = tmp_path / "pc.json"
    spec.write_text(json.dumps({
        "q": 2, "n": 3, "k": 2, "lambda": "1/2",
        "s1": [],
        "s2": [[[0, 1, 0], [0, 0, 1]]],
    }))
    for via in ("1", "2"):
        code, out, _ = run(capsys, "invariant", "chi-combo",
                           "--spec", str(spec), "--via", via)
        assert code == 0
        obj = json.loads(out)
        assert obj["agrees"] is True
        assert obj["terms"] == [["0", 4], ["1/2", 2], ["1", -7], ["2", 1]]


def test_code_commands(capsys, tmp_path):
    from qrank.codes import bundled_vertex_code_path
    fixture = str(bundled_vertex_code_path())
    code, out, _ = run(capsys, "code", "metrics", "--code", fixture)
    assert code == 0
    assert json.loads(out) == {"k": 3, "d": 1, "d_perp": 1, "is_mrd": False}
    code, out, _ = run(capsys, "code", "rho", "--code", fixture)
    assert code == 0
    vals = json.loads(out)["values"]
    assert vals.count("1/2") == 2 and vals.count("3/2") == 6
    code, out, _ = run(capsys, "code", "mrd",
                       "--q", "2", "--n", "3", "--m", "2", "--d", "2")
    assert code == 0
    assert json.loads(out)["values"] == ["0"] + ["1"] * 7 + ["3/2"] * 8


@pytest.mark.parametrize("m,d,bad", [("0", "1", "m=0"), ("3", "4", "d=4")],
                         ids=["m-zero", "d-past-n"])
def test_code_mrd_names_the_bad_parameter(capsys, m, d, bad):
    # d must lie in 1 .. min(n, m): the message gives d, n and m, so a
    # bad m is not blamed on d
    code, out, err = run(capsys, "code", "mrd",
                         "--q", "2", "--n", "3", "--m", m, "--d", d)
    assert code == 1 and out == ""
    assert bad in err and "n=3" in err and "Traceback" not in err


def test_exit_codes(capsys, tmp_path):
    # validation failure -> 1
    code, _, err = run(capsys, "make", "uniform", "--q", "2", "--n", "2", "--k", "9")
    assert code == 1 and "error" in err
    # cap exceeded -> 2
    code, _, err = run(capsys, "lattice", "build", "--q", "2", "--n", "9")
    assert code == 2
    # bad usage -> 1 (argparse errors are validation failures)
    code, _, _ = run(capsys, "polytope", "points", "--q", "2")
    assert code == 1
    # missing file -> 1
    code, _, _ = run(capsys, "pm", "check", "--point", str(tmp_path / "no.json"))
    assert code == 1


def test_make_refuses_a_spec_of_another_kind(capsys, tmp_path):
    spec = tmp_path / "combo.json"
    spec.write_text(json.dumps({
        "kind": "combo", "coefficients": ["1"],
        "terms": [{"kind": "uniform", "q": 2, "n": 2, "k": 1}]}))
    code, out, err = run(capsys, "make", "paving", "--spec", str(spec))
    assert code == 1 and out == ""
    assert "does not match subcommand paving" in err


def test_json_errors_flag(capsys):
    code, _, err = run(capsys, "--json-errors", "lattice", "build",
                       "--q", "2", "--n", "9")
    assert code == 2
    obj = json.loads(err)
    assert obj["error"] == "TooLarge"


def test_exhaustive_caps_exit_2_with_empty_stdout(capsys, tmp_path):
    # the library caps are the only limits: P(2,4) has 66 coordinates,
    # past the 15 of vertex enumeration; P(2,3) has 15, past the 10 of
    # the f-vector; the 21 unit 3 x 7 matrices span 2^21 words
    units = [[[int((r, c) == (i, j)) for c in range(7)] for r in range(3)]
             for i in range(3) for j in range(7)]
    code_file = tmp_path / "units.json"
    code_file.write_text(json.dumps({"q": 2, "n": 3, "m": 7, "generators": units}))
    for argv, size in ((("polytope", "vertices", "--q", "2", "--n", "4"), "66"),
                       (("polytope", "fvector", "--q", "2", "--n", "3"), "15"),
                       (("code", "metrics", "--code", str(code_file)), "2^21")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert size in err, argv


def _src_env():
    """The environment of a child that imports qrank from src/."""
    paths = [str(Path(__file__).resolve().parents[1] / "src"),
             os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


def _python_subprocess(*args, timeout):
    """python args in a child that imports qrank from src/."""
    return subprocess.run([sys.executable, *args], env=_src_env(),
                          capture_output=True, text=True, timeout=timeout)


def _qrank_subprocess(*argv, timeout, python_flags=()):
    """python -m qrank argv in a child that imports qrank from src/."""
    return _python_subprocess(*python_flags, "-m", "qrank", *argv, timeout=timeout)


def test_large_n_is_refused_at_once(tmp_path):
    # a large n is refused before q**n is formed, and under a huge cap the
    # grades are counted one at a time up to the first past the cap
    # (summing all 998 Gaussian binomials of F_2^997 takes minutes); a
    # subprocess, so a hang fails on the timeout instead of stalling
    point = tmp_path / "big.json"
    point.write_text(json.dumps({"q": 2, "n": 2000, "order_digest": "0" * 16,
                                 "values": ["0"]}))
    for argv in (("lattice", "build", "--q", "2", "--n", "2000"),
                 ("lattice", "build", "--q", "9", "--n", "100000000"),
                 ("--max-lattice", str(10 ** 300),
                  "lattice", "build", "--q", "2", "--n", "997"),
                 ("pm", "check", "--point", str(point))):
        res = _qrank_subprocess(*argv, timeout=10)
        assert res.returncode == 2 and res.stdout == "", argv
        assert "subspaces, the cap" in res.stderr, argv


@pytest.mark.parametrize("command", [("pm", "check", "--point"),
                                     ("code", "metrics", "--code")])
@pytest.mark.parametrize("bad", ["exponent", "long-int", "deep", "not-utf8"])
def test_unreadable_input_exits_1_at_once(tmp_path, command, bad):
    # a value that would build a 10^(10^8) integer, an int literal past
    # 4,300 digits, 100,000 nested lists and a file that is not UTF-8 are
    # each a named error, never a traceback or a hang; a subprocess, so a
    # hang fails on the timeout
    path = _input_file(tmp_path, command, "q", 2)
    key = "generators" if command[0] == "code" else "values"
    obj = json.loads(path.read_text())
    if bad == "exponent":
        entries = obj[key][0][0] if command[0] == "code" else obj[key]
        entries[0] = "1e100000000"
        path.write_text(json.dumps(obj))
    elif bad == "long-int":
        path.write_text(json.dumps(obj).replace('"q": 2', '"q": 1' + "0" * 5000))
    elif bad == "deep":
        path.write_text("[" * 100_000)
    else:
        path.write_bytes(b"\xff\xfe")
    start = time.perf_counter()
    res = _qrank_subprocess("--json-errors", *command, str(path), timeout=10)
    assert time.perf_counter() - start < 2
    assert res.returncode == 1 and res.stdout == ""
    assert "Traceback" not in res.stderr
    err = json.loads(res.stderr)
    assert str(path) in err["message"]
    if bad == "exponent":
        assert err["error"] == "BadValue" and repr(key) in err["message"]
    else:
        assert err["error"] == "ValidationError"


def test_show_int_gives_long_ints_by_their_digit_count():
    assert show_int(10 ** 20 - 1) == "9" * 20
    assert show_int(1 - 10 ** 20) == "-" + "9" * 20
    assert show_int(10 ** 20) == "<21-digit int>"
    assert show_int(-10 ** 4000) == "-<4001-digit int>"
    # past the int-string limit too, where str() of the value fails
    assert show_int(10 ** 10_000 - 1) == "<10000-digit int>"
    for k in range(20, 400):
        assert show_int(10 ** k) == f"<{k + 1}-digit int>"
        assert show_int(10 ** (k + 1) - 1) == f"<{k + 1}-digit int>"


@pytest.mark.parametrize("case", ["pm-q", "code-q", "pm-negative-q",
                                  "code-negative-q", "lattice-n"])
def test_long_ints_in_messages_are_shown_by_their_digit_count(
        tmp_path, capsys, case):
    # a 4,001-digit q or n, under the reader's 4,300-digit budget, is
    # refused by the order cap, the prime-power check or the lattice cap
    # with a message that counts its digits instead of printing them
    big = int("1" + "0" * 3999 + "1")
    if case == "lattice-n":
        argv, expected = ("lattice", "build", "--q", "2", "--n", str(big)), 2
    else:
        command = (("pm", "check", "--point") if case.startswith("pm")
                   else ("code", "metrics", "--code"))
        q = -big if "negative" in case else big
        path = _input_file(tmp_path, command, "q", q)
        capsys.readouterr()
        argv, expected = (*command, str(path)), 1
    code, out, err = run(capsys, *argv)
    assert code == expected and out == ""
    assert "<4001-digit int>" in err and len(err.encode()) < 300


@pytest.mark.parametrize("cap", ["-5", "0", "x"])
def test_max_lattice_below_one_is_a_bad_value(capsys, cap):
    code, out, err = run(capsys, "--max-lattice", cap,
                         "lattice", "build", "--q", "2", "--n", "2")
    assert code == 1 and out == ""
    assert "--max-lattice" in err and "positive integer" in err


def _combo_spec(tmp_path, n):
    spec = tmp_path / "combo.json"
    spec.write_text(json.dumps({
        "kind": "combo", "coefficients": ["1/3", "2/3"],
        "terms": [{"kind": "uniform", "q": 2, "n": n, "k": 1},
                  {"kind": "uniform", "q": 2, "n": n, "k": 2}]}))
    return str(spec)


def test_make_builds_under_the_lattice_cap(capsys, tmp_path):
    # L(F_2^4) has 67 subspaces: a cap of 10 refuses it for a uniform
    # point and for each term of a combo
    for argv in (("make", "uniform", "--q", "2", "--n", "4", "--k", "1"),
                 ("make", "combo", "--spec", _combo_spec(tmp_path, 4))):
        code, out, err = run(capsys, "--max-lattice", "10", *argv)
        assert (code, out) == (2, ""), argv
        assert "subspaces, the cap" in err
        # the default cap of 1000 still admits it
        code, out, _ = run(capsys, *argv)
        assert code == 0 and len(json.loads(out)["values"]) == 67
    # and a raised cap admits L(F_5^4), 1120 subspaces past the default
    argv = ("make", "uniform", "--q", "5", "--n", "4", "--k", "2")
    assert run(capsys, *argv)[:2] == (2, "")
    code, out, _ = run(capsys, "--max-lattice", "2000", *argv)
    assert code == 0 and len(json.loads(out)["values"]) == 1120


def test_digest_guard(capsys, tmp_path):
    point = tmp_path / "u.json"
    assert main(["make", "uniform", "--q", "2", "--n", "2", "--k", "1",
                 "-o", str(point)]) == 0
    obj = json.loads(point.read_text())
    obj["order_digest"] = "f" * 16
    point.write_text(json.dumps(obj))
    code, _, err = run(capsys, "pm", "check", "--point", str(point))
    assert code == 1 and "digest" in err


def test_missing_digest_rejected(capsys, tmp_path):
    point = tmp_path / "u.json"
    assert main(["make", "uniform", "--q", "2", "--n", "2", "--k", "1",
                 "-o", str(point)]) == 0
    obj = json.loads(point.read_text())
    del obj["order_digest"]
    point.write_text(json.dumps(obj))
    code, out, err = run(capsys, "pm", "check", "--point", str(point))
    assert code == 1 and out == "" and "order_digest" in err


def test_make_flag(capsys, tmp_path):
    spec = tmp_path / "flag.json"
    spec.write_text(json.dumps({
        "kind": "flag", "q": 2, "n": 5,
        "lambdas": ["1/3", "1/3", "1/3"],
    }))
    code, out, _ = run(capsys, "make", "flag", "--spec", str(spec))
    assert code == 0
    obj = json.loads(out)
    assert obj["q"] == 2 and obj["n"] == 5
    assert obj["values"][-1] == "3"  # rank (2+3+4)/3


def test_hrep_full_variant(capsys):
    code, out, _ = run(capsys, "polytope", "hrep", "--q", "2", "--n", "2",
                       "--full")
    assert code == 0
    head = out.splitlines()[0].split()
    assert int(head[2]) == 5  # unreduced keeps the zero coordinate


def test_full_is_refused_where_it_changes_no_output(capsys):
    code, out, err = run(capsys, "polytope", "vertices", "--q", "2", "--n",
                         "2", "--full")
    assert code == 1 and out == ""
    assert "--full" in err


def test_point_without_values_names_the_key(capsys, tmp_path):
    point = tmp_path / "u.json"
    assert main(["make", "uniform", "--q", "2", "--n", "2", "--k", "1",
                 "-o", str(point)]) == 0
    obj = json.loads(point.read_text())
    del obj["values"]
    point.write_text(json.dumps(obj))
    code, out, err = run(capsys, "pm", "check", "--point", str(point))
    assert code == 1 and out == ""
    assert "'values'" in err and str(point) in err


def test_chi_combo_spec_without_lambda_names_the_key(capsys, tmp_path):
    spec = tmp_path / "pc.json"
    spec.write_text(json.dumps({"q": 2, "n": 3, "k": 2, "s1": [], "s2": []}))
    code, out, err = run(capsys, "invariant", "chi-combo", "--spec", str(spec))
    assert code == 1 and out == ""
    assert "'lambda'" in err and str(spec) in err


def test_spec_and_code_files_missing_keys(capsys, tmp_path):
    spec = tmp_path / "combo.json"
    spec.write_text(json.dumps({
        "kind": "combo", "coefficients": ["1"],
        "terms": [{"kind": "uniform", "q": 2, "n": 3}],
    }))
    code, _, err = run(capsys, "make", "combo", "--spec", str(spec))
    assert code == 1
    assert "terms[0]" in err and "'k'" in err and str(spec) in err
    code_file = tmp_path / "code.json"
    code_file.write_text(json.dumps({"q": 2, "n": 3, "generators": []}))
    code, _, err = run(capsys, "--json-errors", "code", "metrics",
                       "--code", str(code_file))
    assert code == 1
    obj = json.loads(err)
    assert obj["error"] == "MissingKey" and "'m'" in obj["message"]


_PAVING_23 = {"kind": "paving", "q": 2, "n": 3, "k": 2,
              "spaces": [[[0, 1, 0], [0, 0, 1]]]}
_UNIFORM_23 = {"kind": "uniform", "q": 2, "n": 3, "k": 2}
_CHI_COMBO_23 = {"q": 2, "n": 3, "k": 2, "lambda": "1/2", "s1": [],
                 "s2": [[[0, 1, 0], [0, 0, 1]]]}
_ONE_SPACE_EACH = {**_CHI_COMBO_23, "s1": [[[1, 0, 0], [0, 1, 0]]]}


@pytest.mark.parametrize("command,spec,named", [
    # a subspace row of the wrong length, or with an entry outside F_2
    (("invariant", "chi-combo"), {**_CHI_COMBO_23, "s2": [[[0, 1]]]},
     ("'s2'",)),
    (("make", "paving"), {**_PAVING_23, "spaces": [[[0, 1, 0], [0, 0, 5]]]},
     ("'spaces'",)),
    (("make", "combo"), {"kind": "combo", "coefficients": ["1/2", "1/2"],
                         "terms": [_UNIFORM_23,
                                   {**_PAVING_23, "spaces": [[[0, 1]]]}]},
     ("terms[1]", "'spaces'")),
    # a rational that does not parse
    (("invariant", "chi-combo"), {**_CHI_COMBO_23, "lambda": "x"},
     ("'lambda'",)),
    (("make", "combo"), {"kind": "combo", "coefficients": ["x", "1/2"],
                         "terms": [_UNIFORM_23, _PAVING_23]},
     ("'coefficients'",)),
    (("make", "flag"), {"kind": "flag", "q": 2, "n": 5,
                        "lambdas": ["1/3", "x", "1/3"]},
     ("'lambdas'",)),
    # an integer key that is a string, a bool or a float
    (("make", "paving"), {**_PAVING_23, "k": "x"}, ("'k'",)),
    (("invariant", "chi-combo"), {**_CHI_COMBO_23, "k": True}, ("'k'",)),
    (("make", "combo"), {"kind": "combo", "coefficients": ["1/2", "1/2"],
                         "terms": [_UNIFORM_23, {**_PAVING_23, "n": 3.0}]},
     ("terms[1]", "'n'")),
    # a float or a bool where a rational goes
    (("invariant", "chi-combo"), {**_ONE_SPACE_EACH, "lambda": 0.3},
     ("'lambda'",)),
    (("invariant", "chi-combo"), {**_ONE_SPACE_EACH, "lambda": True},
     ("'lambda'",)),
    (("make", "combo"), {"kind": "combo", "coefficients": [True],
                         "terms": [_UNIFORM_23]}, ("'coefficients'",)),
    (("make", "combo"), {"kind": "combo", "coefficients": [1.0],
                         "terms": [_UNIFORM_23]}, ("'coefficients'",)),
    # a string is not a list of coefficients
    (("make", "combo"), {"kind": "combo", "coefficients": "12",
                         "terms": [_UNIFORM_23, _UNIFORM_23]},
     ("'coefficients'",)),
    (("make", "flag"), {"kind": "flag", "q": 2, "n": 5,
                        "lambdas": [0.5, 0.25, 0.25]}, ("'lambdas'",)),
    # a bool as an entry of a subspace row
    (("make", "paving"), {**_PAVING_23, "spaces": [[[0, True, 0], [0, 0, 1]]]},
     ("'spaces'",)),
    (("invariant", "chi-combo"),
     {**_ONE_SPACE_EACH, "s1": [[[True, 0, 0], [0, 1, 0]]]}, ("'s1'",)),
    (("invariant", "chi-combo"),
     {**_ONE_SPACE_EACH, "s2": [[[0, 1, 0], [0, 0, True]]]}, ("'s2'",)),
], ids=["chi-combo-short-row", "paving-entry-outside-field",
        "combo-term-short-row", "chi-combo-lambda", "combo-coefficient",
        "flag-lambda", "paving-k-string", "chi-combo-k-bool",
        "combo-term-n-float", "chi-combo-lambda-float", "chi-combo-lambda-bool",
        "combo-coefficient-bool", "combo-coefficient-float",
        "combo-coefficients-string", "flag-lambdas-float", "paving-row-bool",
        "chi-combo-s1-row-bool", "chi-combo-s2-row-bool"])
def test_malformed_spec_values_name_the_file_and_key(capsys, tmp_path,
                                                     command, spec, named):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "--json-errors", *command, "--spec", str(path))
    assert code == 1 and out == ""
    obj = json.loads(err)
    assert obj["error"] == "BadValue" and str(path) in obj["message"]
    assert all(part in obj["message"] for part in named)


_COMBO = {"kind": "combo", "coefficients": ["1"]}


@pytest.mark.parametrize("command,content,error", [
    (("pm", "check", "--point"), 5, "NotAnObject"),
    (("pm", "check", "--point"), None, "NotAnObject"),
    (("pm", "check", "--point"), "qnv", "NotAnObject"),
    (("pm", "check", "--point"), ["q", "n", "values"], "NotAnObject"),
    (("invariant", "chi", "--point"), 5, "NotAnObject"),
    (("invariant", "chi-combo", "--spec"), [], "NotAnObject"),
    (("code", "metrics", "--code"), None, "NotAnObject"),
    (("make", "paving", "--spec"), "qnv", "NotAnObject"),
    (("make", "combo", "--spec"), 5, "NotAnObject"),
    (("make", "combo", "--spec"), {**_COMBO, "terms": 5}, "BadValue"),
    (("make", "combo", "--spec"), {**_COMBO, "terms": "ab"}, "BadValue"),
    (("make", "combo", "--spec"), {**_COMBO, "terms": [5]}, "NotAnObject"),
    (("make", "combo", "--spec"), {**_COMBO, "terms": [{"kind": []}]},
     "OutOfRange"),
], ids=["point-int", "point-null", "point-string", "point-list", "chi-int",
        "chi-combo-list", "code-null", "paving-string", "combo-int",
        "combo-terms-int", "combo-terms-string", "combo-term-int",
        "combo-term-kind-list"])
def test_input_that_is_not_an_object_names_the_file(capsys, tmp_path,
                                                    command, content, error):
    # a file, or a combo term, whose JSON is not an object is refused as
    # a validation failure that names the file, never a traceback; so
    # are terms that are not a list and a term kind that is not a name
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content))
    code, out, err = run(capsys, "--json-errors", *command, str(path))
    assert code == 1 and out == ""
    obj = json.loads(err)
    assert obj["error"] == error and str(path) in obj["message"]


def _input_file(tmp_path, command, key, value):
    """A valid file for the command, a point of L(F_2^3) (16 values) or
    a code of 3 x 3 matrices over F_2, with key set to value."""
    path = tmp_path / "input.json"
    if command[0] == "code":
        obj = {"q": 2, "n": 3, "m": 3, "generators": [[[1, 0, 0], [0, 1, 0],
                                                       [0, 0, 1]]]}
    else:
        assert main(["make", "uniform", "--q", "2", "--n", "3", "--k", "1",
                     "-o", str(path)]) == 0
        obj = json.loads(path.read_text())
    path.write_text(json.dumps({**obj, key: value}))
    return path


@pytest.mark.parametrize("command,key,value", [
    (("pm", "check", "--point"), "n", 3.0),
    (("invariant", "chi", "--point"), "q", "2"),
    (("code", "metrics", "--code"), "m", 3.0),
    (("code", "rho", "--code"), "n", True),
    # beyond the integer keys: a point's values and a code's generators
    (("pm", "check", "--point"), "values", [0.5] * 16),
    (("pm", "check", "--point"), "values", ["x"] * 16),
    (("pm", "check", "--point"), "values", 5),
    (("pm", "check", "--point"), "values", "0" * 16),
    (("pm", "check", "--point"), "values", [True] * 16),
    (("code", "metrics", "--code"), "generators",
     [[[1, 0, 0], [0, 1, 0], [0, 0, 5]]]),
    (("code", "metrics", "--code"), "generators",
     [[[1, 0, 0], [0, 1], [0, 0, 1]]]),
    (("code", "metrics", "--code"), "generators",
     [[[True, 0, 0], [0, 1, 0], [0, 0, 1]]]),
    (("code", "metrics", "--code"), "generators",
     [[[1, 0, 0], [0, 1, 0]]]),
    (("code", "metrics", "--code"), "generators",
     [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]] * 2),
    # a code's n and m below 1
    (("code", "rho", "--code"), "m", 0),
    (("code", "rho", "--code"), "m", -1),
    (("code", "metrics", "--code"), "n", -1),
    (("code", "rho", "--code"), "n", 0),
], ids=["pm-check-n-float", "chi-q-string", "code-metrics-m-float",
        "code-rho-n-bool", "pm-check-values-float", "pm-check-values-string",
        "pm-check-values-not-a-list", "pm-check-values-one-string",
        "pm-check-values-bool",
        "code-metrics-generators-outside-field",
        "code-metrics-generators-ragged", "code-metrics-generators-bool",
        "code-metrics-generators-wrong-shape",
        "code-metrics-generators-dependent", "code-rho-m-zero",
        "code-rho-m-negative", "code-metrics-n-negative", "code-rho-n-zero"])
def test_malformed_integer_keys_name_the_file_and_key(capsys, tmp_path,
                                                      command, key, value):
    path = _input_file(tmp_path, command, key, value)
    code, out, err = run(capsys, "--json-errors", *command, str(path))
    assert code == 1 and out == ""
    obj = json.loads(err)
    assert obj["error"] == "BadValue"
    assert str(path) in obj["message"] and repr(key) in obj["message"]


def test_closed_stdout_ends_the_run_quietly():
    # as with `| head -n 1`: the reader closes stdout after one line, and
    # the writer stops with exit code 1 and nothing on stderr
    argv = [sys.executable, "-m", "qrank",
            "polytope", "hrep", "--q", "2", "--n", "5"]
    with subprocess.Popen(argv, env=_src_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert first == "HREP 66806 373\n"
    assert code == 1 and err == ""


def test_failed_write_to_out_names_the_error(capsys, tmp_path, monkeypatch):
    import qrank.cli

    argv = ("polytope", "hrep", "--q", "2", "--n", "2", "-o")
    code, out, err = run(capsys, *argv, str(tmp_path))  # a directory
    assert code == 1 and out == "" and err.startswith("qrank: error: ")

    def broken(lines):
        raise BrokenPipeError(32, "Broken pipe")
        yield

    # a broken pipe is quiet only on stdout: an --out file that breaks
    # is named like any other failed write
    monkeypatch.setattr(qrank.cli, "_chunks", broken)
    code, out, err = run(capsys, *argv, str(tmp_path / "fifo"))
    assert code == 1 and out == ""
    assert err == "qrank: error: [Errno 32] Broken pipe\n"


def test_point_value_count_is_a_dimension_mismatch(capsys, tmp_path):
    command = ("pm", "check", "--point")
    path = _input_file(tmp_path, command, "values", ["0"] * 15)
    code, out, err = run(capsys, "--json-errors", *command, str(path))
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "DimensionMismatch"


def test_internal_key_error_is_not_a_validation_failure(monkeypatch):
    import qrank.cli

    def broken(args):
        raise KeyError("internal")

    monkeypatch.setattr(qrank.cli, "_cmd_lattice_build", broken)
    with pytest.raises(KeyError, match="internal"):
        main(["lattice", "build", "--q", "2", "--n", "2"])


def test_lattice_build_imports_only_the_lattice_modules():
    # -X importtime lists every module the run imports on stderr
    res = _qrank_subprocess("lattice", "build", "--q", "2", "--n", "3",
                            timeout=60, python_flags=("-X", "importtime"))
    assert res.returncode == 0 and json.loads(res.stdout)["q"] == 2
    loaded = {line.rsplit("|", 1)[-1].strip() for line in res.stderr.splitlines()}
    assert {"qrank.cli", "qrank.subspaces"} <= loaded
    for name in ("polytope", "constructions", "codes", "charpoly", "rankfun"):
        assert f"qrank.{name}" not in loaded


def test_public_names_resolve_to_their_submodules():
    import importlib

    import qrank
    for name in qrank.__all__:
        obj = getattr(qrank, name)
        assert obj.__module__.startswith("qrank.")
        assert getattr(importlib.import_module(obj.__module__), name) is obj
        assert name in dir(qrank)
    namespace = {}
    exec("from qrank import *", namespace)
    assert set(qrank.__all__) <= set(namespace)
    with pytest.raises(AttributeError):
        qrank.no_such_name


# runs qrank.cli.main on its arguments, then prints the exit code and
# every loaded module on the last line of stdout
_FOOTPRINT = """
import sys
from qrank.cli import main
code = main(sys.argv[1:])
print(code, *sorted(sys.modules))
"""


def _footprint(*argv):
    # -S: no site hook can load a module the command did not ask for
    res = _python_subprocess("-S", "-c", _FOOTPRINT, *argv, timeout=60)
    code, *modules = res.stdout.splitlines()[-1].split()
    return int(code), set(modules)


def test_commands_load_no_dataclasses_and_hashlib_only_for_a_digest(tmp_path):
    heavy = {"dataclasses", "inspect", "hashlib"}
    code, modules = _footprint("lattice", "build", "--q", "2", "--n", "6")
    assert code == 2 and not heavy & modules
    code, modules = _footprint("polytope", "points", "--q", "2", "--n", "2")
    assert code == 0 and "qrank.polytope" in modules and not heavy & modules
    point = tmp_path / "u.json"
    assert main(["make", "uniform", "--q", "2", "--n", "3", "--k", "2",
                 "-o", str(point)]) == 0
    # pm check still checks the point's order digest
    code, modules = _footprint("pm", "check", "--point", str(point))
    assert code == 0 and "hashlib" in modules
    assert not {"dataclasses", "inspect"} & modules


def test_help_lists_every_group(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for group in ("lattice", "polytope", "pm", "make", "invariant", "code"):
        assert f"    {group} " in out, group


# every leaf's options as the parser declares them: "!" marks a required
# option, and "=" gives the default it parses to
_LEAF_OPTIONS = {
    "lattice build": "--q!=None --n!=None --out/-o=None",
    "polytope hrep": "--q!=None --n!=None --full=False --out/-o=None",
    "polytope points": "--q!=None --n!=None --out/-o=None",
    "polytope vertices": "--q!=None --n!=None --out/-o=None",
    "polytope fvector": "--q!=None --n!=None --out/-o=None",
    "polytope dim": "--q!=None --n!=None --out/-o=None",
    "polytope witness": "--q!=None --n!=None --out/-o=None",
    "pm check": "--point!=None --out/-o=None",
    "pm flats": "--point!=None --out/-o=None",
    "pm cyclic": "--point!=None --out/-o=None",
    "pm zflats": "--point!=None --out/-o=None",
    "pm indep": "--point!=None --mu!=None --out/-o=None",
    "pm classify": "--point!=None --mu=0 --out/-o=None",
    "make uniform": "--q!=None --n!=None --k!=None --out/-o=None",
    "make paving": "--spec!=None --out/-o=None",
    "make combo": "--spec!=None --out/-o=None",
    "make flag": "--spec!=None --out/-o=None",
    "invariant chi": "--point!=None --out/-o=None",
    "invariant chi-combo": "--spec!=None --via=1 --out/-o=None",
    "code metrics": "--code!=None --out/-o=None",
    "code rho": "--code!=None --out/-o=None",
    "code mrd": "--q!=None --n!=None --m!=None --d!=None --out/-o=None",
}


def _leaf_options(argv=None):
    """{"group leaf": options in the notation of _LEAF_OPTIONS} for every
    leaf that build_parser(argv) builds."""
    def choices(parser):
        return next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices

    return {f"{group} {leaf}": " ".join(
                f"{'/'.join(a.option_strings)}{'!' if a.required else ''}"
                f"={a.default!r}"
                for a in parser._actions if not isinstance(a, argparse._HelpAction))
            for group, group_parser in choices(build_parser(argv)).items()
            for leaf, parser in choices(group_parser).items()}


def test_every_leaf_takes_its_pinned_options():
    assert _leaf_options() == _LEAF_OPTIONS
    # a command names one group, and only that group's leaves are built
    for group in ("lattice", "polytope", "pm", "make", "invariant", "code"):
        assert _leaf_options([group, "--help"]) == {
            name: options for name, options in _LEAF_OPTIONS.items()
            if name.split()[0] == group}


def test_an_unknown_leaf_lists_the_leaves_of_its_group(capsys):
    code, out, err = run(capsys, "polytope", "bogus")
    assert code == 1 and out == ""
    assert "invalid choice: 'bogus'" in err
    assert "'hrep', 'points', 'vertices', 'fvector', 'dim', 'witness'" in err
    code, _, err = run(capsys, "bogus")
    assert code == 1
    assert "'lattice', 'polytope', 'pm', 'make', 'invariant', 'code'" in err


def test_the_group_is_the_first_token_that_names_one(capsys, tmp_path,
                                                      monkeypatch):
    # a point file named like another group does not select that group
    monkeypatch.chdir(tmp_path)
    assert main(["make", "uniform", "--q", "2", "--n", "3", "--k", "2",
                 "-o", "polytope"]) == 0
    code, out, _ = run(capsys, "pm", "check", "--point", "polytope")
    assert code == 0 and json.loads(out)["ok"] is True
    # a top-level option before the group
    code, out, _ = run(capsys, "--max-lattice", "5", "polytope", "points",
                       "--q", "2", "--n", "2")
    assert code == 0 and len(out.splitlines()) == 6
