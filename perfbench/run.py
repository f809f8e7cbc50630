"""Run one qrank benchmark workload and print its result.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 40 --trace 0

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end ones, and the query list runs in the workload's SEGMENTS
slices, each on a fresh set-up.  With --trace 1 the set-up runs traced,
one pass of queries runs, each query once untraced and once traced, and
the metrics are the per-layer ones.  The line before it holds the run's
provenance, failures and (traced) the ROADMAP baseline
cross-check.  --seconds sets how many passes of the workload's query
list a run makes: round(seconds / the workload's PASS_SECONDS), at
least one, so every run of a commit does the same work.  The constants
give every workload 35 to 50 s of queries at --seconds 40, plus its
set-ups.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def _load_qrank():
    src = ROOT / "src"
    if not (src / "qrank" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no qrank sources under {src}")
    sys.path.insert(0, str(src))
    import qrank
    if Path(qrank.__file__).resolve().parent != (src / "qrank").resolve():
        raise SystemExit(f"perfbench: imported qrank from {qrank.__file__}, "
                         f"not from {src}")


# workload name -> module under workloads/
WORKLOADS = {"certify": "workloads.certify", "cli": "workloads.cli"}


def _workload(name):
    return importlib.import_module(WORKLOADS[name])


def _metrics_json(metrics):
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


def run_untraced(wl, seed, passes, smoke):
    import harness
    outcome, setup_times = harness.run_segments(wl, seed, passes, smoke,
                                                wl.SEGMENTS)
    rss = harness.peak_rss_mb(children=getattr(wl, "RSS_OF_CHILDREN", False))
    metrics, tail = harness.end_to_end(outcome, setup_times, rss)
    detail = {"setup_s_each": setup_times, "failures": outcome.failures}
    return outcome, [outcome], metrics, tail, detail


def run_traced(wl, seed, passes, smoke, spans_path):
    """Traced set-up, then every query untraced and traced in turn."""
    import harness
    import layers
    in_process = getattr(wl, "in_process_queries", None)
    tracer = harness.Tracer()
    tracer.install(layers.ENTRY_POINTS)
    try:
        with tracer.span("setup"):
            state = wl.setup(seed, passes, smoke)
    finally:
        tracer.uninstall()
    outcomes = []
    cli_extra = {}
    try:
        if in_process is None:
            base, traced = harness.run_paired(state.queries, tracer,
                                              layers.ENTRY_POINTS)
        else:
            sub = harness.run_queries(state.queries, harness.NullTracer())
            outcomes.append(sub)
            base, traced = harness.run_paired(in_process(state), tracer,
                                              layers.ENTRY_POINTS)
            cli_extra = wl.startup_extra(state, sub, base)
    finally:
        state.release()
    outcomes += [base, traced]
    overhead = traced.wall / base.wall - 1.0
    metrics = layers.per_layer(tracer, overhead, cli_extra)
    OUT.mkdir(exist_ok=True)
    tracer.dump(spans_path)
    tail = harness.tail_latency(traced.latencies)
    detail = {"failures": [f for o in outcomes for f in o.failures],
              "roadmap_crosscheck": layers.roadmap_crosscheck(tracer, cli_extra),
              "untraced_wall_s": base.wall, "traced_wall_s": traced.wall,
              "spans_file": str(spans_path.relative_to(ROOT))}
    return traced, outcomes, metrics, tail, detail


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny lattices, for the harness self-tests")
    args = ap.parse_args(argv)
    _load_qrank()
    import harness
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    wl = _workload(args.workload)
    passes = max(1, round(args.seconds / wl.PASS_SECONDS))
    if args.trace:
        # one pass: a traced run does the query list twice, and cli a third
        # time as subprocesses, which must stay well inside 180 s
        spans_path = OUT / f"trace-{wl.NAME}-seed{args.seed}.json"
        passes = 1
        main_outcome, outcomes, metrics, tail, detail = run_traced(
            wl, args.seed, passes, args.smoke, spans_path)
    else:
        main_outcome, outcomes, metrics, tail, detail = run_untraced(
            wl, args.seed, passes, args.smoke)
    attempted = sum(len(o.latencies) for o in outcomes)
    failed = sum(len(o.failures) for o in outcomes)
    detail["provenance"] = harness.provenance(
        ROOT, args.seed, wl.NAME, len(main_outcome.latencies), passes, tail)
    detail["fail_frac"] = failed / attempted
    print(json.dumps({"detail": detail}, default=str))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": _metrics_json(metrics)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
