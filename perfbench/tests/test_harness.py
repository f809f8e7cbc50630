"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/tests

The smoke tests run every workload on tiny lattices, untraced and
traced, with every oracle on, through the same entry point as the
benchmark.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import layers  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def span(name, start, end, parent=None):
    return harness.Span(name, None, start, end, parent, None)


def test_self_time_subtracts_direct_children_only():
    spans = [span("query", 0.0, 10.0),
             span("is_vertex", 1.0, 8.0, parent=0),
             span("membership", 2.0, 5.0, parent=1),
             span("check_axioms", 8.5, 9.5, parent=0)]
    assert harness.self_times(spans) == [2.0, 4.0, 3.0, 1.0]


def test_self_time_of_a_leaf_is_its_duration():
    assert harness.self_times([span("x", 1.5, 4.0)]) == [2.5]


def test_tail_is_highest_percentile_with_ten_beyond():
    lat = list(range(1, 101))            # 100 queries: rank 90 is p90
    assert harness.tail_latency(lat) == (90, 90.0, 10)
    value, pct, beyond = harness.tail_latency(list(range(40, 0, -1)))
    assert (value, pct, beyond) == (30, 75.0, 10)
    assert sum(1 for x in range(1, 41) if x > value) == beyond


def test_tail_falls_back_to_max_below_p75():
    assert harness.tail_latency([0.3, 0.1, 0.2]) == (0.3, 100.0, 0)
    # 20 queries: rank 10 would be the median, not a tail
    assert harness.tail_latency(list(range(1, 21))) == (20, 100.0, 0)
    assert harness.tail_latency(list(range(39))) == (38, 100.0, 0)


def test_failures_are_recorded_and_the_loop_goes_on():
    def boom():
        raise ValueError("bad input")

    def wrong(out):
        harness.expect(out == 2, f"got {out}")

    qs = [harness.Query("raises", boom, lambda out: None),
          harness.Query("mismatch", lambda: 1, wrong),
          harness.Query("fine", lambda: 2, wrong)]
    out = harness.run_queries(qs, harness.NullTracer())
    assert len(out.latencies) == 3
    assert [f["label"] for f in out.failures] == ["raises", "mismatch"]
    assert "ValueError: bad input" in out.failures[0]["error"]
    assert "got 1" in out.failures[1]["error"]


def test_segments_cover_the_query_list_once_on_fresh_setups():
    ran = []
    alive = []

    class Workload:
        @staticmethod
        def setup(seed, passes, smoke):
            assert not alive, "the previous state was not released"
            alive.append(seed)
            qs = [harness.Query(f"q{i}", lambda i=i: ran.append(i),
                                lambda out: None) for i in range(7)]
            return harness.State(qs, close=alive.clear)

    out, times = harness.run_segments(Workload, 3, 1, False, 3)
    assert ran == list(range(7))
    assert len(out.latencies) == 7 and not out.failures
    assert len(times) == 3 and not alive


def _git_dir(tmp_path, head):
    git = tmp_path / "repo" / ".git"
    (git / "refs" / "heads").mkdir(parents=True)
    (git / "HEAD").write_text(head)
    return git


def test_git_commit_reads_loose_and_packed_refs(tmp_path):
    sha1, sha2 = "1" * 40, "2" * 40
    git = _git_dir(tmp_path, "ref: refs/heads/main\n")
    root = git.parent
    assert harness.git_commit(root) is None
    (git / "packed-refs").write_text(
        "# pack-refs with: peeled fully-peeled sorted\n"
        f"{sha2} refs/heads/other\n{sha1} refs/heads/main\n^{sha2}\n")
    assert harness.git_commit(root) == sha1
    (git / "refs" / "heads" / "main").write_text(sha2 + "\n")
    assert harness.git_commit(root) == sha2          # loose wins
    (git / "HEAD").write_text(sha1 + "\n")
    assert harness.git_commit(root) == sha1          # detached


def test_git_commit_follows_a_gitdir_file(tmp_path):
    sha = "3" * 40
    common = _git_dir(tmp_path, "ref: refs/heads/main\n")
    (common / "packed-refs").write_text(f"{sha} refs/heads/wt\n")
    linked = common / "worktrees" / "wt"
    linked.mkdir(parents=True)
    (linked / "HEAD").write_text("ref: refs/heads/wt\n")
    (linked / "commondir").write_text("../..\n")
    tree = tmp_path / "wt"
    tree.mkdir()
    (tree / ".git").write_text(f"gitdir: {linked}\n")
    assert harness.git_commit(tree) == sha
    assert harness.git_commit(tmp_path) is None       # not a work tree


def test_wrappers_replace_every_binding_and_restore_them():
    import qrank
    from qrank import fields, polytope, subspaces
    rref, membership = fields.rref, polytope.membership
    tr = harness.Tracer()
    tr.install(layers.ENTRY_POINTS)
    try:
        for mod in (fields, subspaces, qrank):
            assert mod.rref is not rref
        assert qrank.membership is polytope.membership is not membership
        lat = subspaces.build_lattice(2, 3)
        H = polytope.build_hrep(lat)
        with tr.query(0):
            polytope.is_vertex(H, polytope.interior_witness(lat))
    finally:
        tr.uninstall()
    assert fields.rref is subspaces.rref is qrank.rref is rref
    assert polytope.membership is membership
    assert tr.groups["fields.rref"].calls > 0
    names = [s.name for s in tr.spans]
    assert "polytope.membership" in names
    is_vertex = names.index("polytope.is_vertex")
    assert tr.spans[names.index("polytope.membership")].parent == is_vertex
    assert tr.counts["polytope.rows_evaluated"] == len(H.rows)


def test_benchmark_json_matches_the_harness():
    names = [m["name"] for m in SPEC["end_to_end"]]
    metrics, _ = harness.end_to_end(harness.Outcome([0.1, 0.2], 0.3, []), [1.0], 20.0)
    assert list(metrics) == names
    assert [m["name"] for m in SPEC["per_layer"]] == [n for n, _ in layers.PER_LAYER]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["certify", "cli"])
def test_smoke_run(workload, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=300)
    assert res.returncode == 0, res.stderr
    lines = res.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, detail["failures"]
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
