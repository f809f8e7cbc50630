"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/collect.py --workloads certify cli --seeds 1-10
    python3 perfbench/collect.py --seeds 1-10 --trace-seed 1 --out perfbench/results/BENCH_0.json

For every workload and end-to-end metric it prints the median, the
quartiles (statistics.quantiles, n=4) and the spread, the distance
between the quartiles as a share of the median, beside the metric's
bound from BENCHMARK.json and a third of it.  With --trace-seed it also
makes one traced run per workload and keeps its per-layer metrics and
ROADMAP cross-check.  Runs are sequential, one child process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    if res.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {res.returncode}:\n{res.stderr}")
    lines = res.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=names,
                    choices=list(WORKLOADS))
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace-seed", type=int)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    summary = {}
    for wl in args.workloads:
        runs = []
        for seed in args.seeds:
            detail, result = run_once(wl, seed, args.seconds, 0)
            if not result["correct"]:
                print(f"{wl} seed {seed}: {result['failed']} failed: "
                      f"{detail['failures'][:3]}", file=sys.stderr)
            runs.append({"seed": seed, "result": result,
                         "provenance": detail["provenance"]})
        metrics = {}
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            s = spread(values)
            s.update(bound=bound, unit=runs[0]["result"]["metrics"][name]["unit"])
            metrics[name] = s
            flag = "" if s["spread"] < bound / 3 else \
                (" ABOVE 1/3 BOUND" if s["spread"] <= bound else " ABOVE BOUND")
            print(f"{wl:12s} {name:14s} median {s['median']:.4g} "
                  f"spread {s['spread']:.4f} (bound {bound}){flag}", flush=True)
        entry = {"runs": runs, "end_to_end": metrics}
        if args.trace_seed is not None:
            detail, result = run_once(wl, args.trace_seed, args.seconds, 1)
            entry["traced"] = {"seed": args.trace_seed,
                               "per_layer": result["metrics"],
                               "roadmap_crosscheck": detail["roadmap_crosscheck"],
                               "provenance": detail["provenance"]}
        summary[wl] = entry
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
