#!/usr/bin/env python3
"""Run the benchmark several times per workload and report each metric's spread.

    python3 perfbench/repeat.py --seeds 1-10 [--workload sim-nodisc ...]
        [--trace 0] [--out summary.json]

Runs ``perfbench/run.py`` once per (workload, seed), one run at a time, with
the ``run_seconds`` of BENCHMARK.json, so ``--trace 1`` runs take about
twice as long as ``--trace 0`` ones.  For every metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, the distance between the quartiles as a share of the median.  With
``--trace 0`` it marks each spread that is not below a third of the metric's
bound.  ``--out`` saves the runs and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import provenance

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n"
                           f"{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(runs: list[dict]) -> dict:
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
            else (values[0], None, values[0])
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / abs(med) if med else 0.0,
                         "unit": runs[0]["metrics"][name]["unit"]}
    return summary


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workload", action="append",
                        help="repeatable; default every workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {"provenance": provenance(), "run_seconds": spec["run_seconds"],
              "trace": args.trace, "workloads": {}}
    for name in names:
        runs = [run_once(name, seed, spec["run_seconds"], args.trace)
                for seed in parse_seeds(args.seeds)]
        summary = summarize(runs)
        entry = {"seeds": parse_seeds(args.seeds), "runs": runs,
                 "summary": summary, "failed": sum(r["failed"] for r in runs),
                 "correct": all(r["correct"] for r in runs)}
        report["workloads"][name] = entry
        print(f"== {name}: {len(runs)} runs, correct={entry['correct']}, "
              f"failed ops={entry['failed']}")
        for metric, s in summary.items():
            bound = bounds.get(metric)
            flag = ""
            if bound is not None and metric != "setup_s" and s["spread"] >= bound / 3:
                flag = f"  <-- spread not below bound/3 ({bound / 3:.3g})"
            print(f"  {metric:28s} median {s['median']:.6g} {s['unit']}  "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}{flag}")
        sys.stdout.flush()
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n",
                                  encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
