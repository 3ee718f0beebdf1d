#!/usr/bin/env python3
"""Benchmark harness for statekey: four workloads, end to end and per layer.

    python3 perfbench/run.py --workload dmc-coupling --seed 1 --seconds 16 --trace 0

Run from anywhere inside a checkout; the program is imported from ``src/``
of the checkout that holds this file.  One process runs one CLI command at
a time, through ``statekey.cli.main``, on input files generated from
``--seed``: the workload's step (its command, then both ``figure`` panels
for the workload that has them) in a closed loop for ``--seconds``.  Every
command's output is checked (see workloads.py); a command that raises,
exits non-zero or fails a check is a failed operation.  Times are converted
to a fixed machine speed (probe.py).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` measures
untraced, then traced (spans.py), and prints the per-layer metrics.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it list every
metric by name with its unit.  A record with provenance, samples and
values is written to ``.perfbench/records/`` of the checkout, and a traced
run also writes its spans there.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans
import workloads
from probe import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 3
HASH_SEED = "0"
# A fresh interpreter imports statekey and loads the workload's input files.
SETUP_PROBE = (
    "import json, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import statekey.cli\n"
    "statekey.cli.load_channel(sys.argv[2])\n"
    "for path in sys.argv[3:]:\n"
    "    with open(path, encoding='utf-8') as fh:\n"
    "        json.load(fh)\n")


class Tally:
    """Operations attempted and failed, with the values the checks read."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.values: dict | None = None

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems]

    def keep_values(self, values: dict) -> list[str]:
        """Seeded commands must repeat exactly within one process."""
        if self.values is None:
            self.values = values
            return []
        if values != self.values:
            return [f"values changed between repeats: {values} != {self.values}"]
        return []


def run_command(argv: list[str]) -> tuple[tuple[float, float], list[str]]:
    """Run one CLI command; returns ((start, end), problems)."""
    import statekey.cli

    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            code = statekey.cli.main(argv)
    except (Exception, SystemExit) as exc:  # a crash is a failed operation
        return (start, time.perf_counter()), ["raised " + "".join(
            traceback.format_exception_only(type(exc), exc)).strip()]
    return (start, time.perf_counter()), [] if code == 0 else [f"exit code {code}"]


def workload_step(workload, inputs: dict, work: Path, tally: Tally,
                  tiny: bool = False) -> list[tuple[float, float]]:
    """Run and check the workload's command, then its figure panels if it has
    them; returns the commands' intervals."""
    out = work / workloads.output_name(workload)
    out.unlink(missing_ok=True)
    interval, problems = run_command(
        workloads.command_argv(workload, inputs, out, tiny))
    if not problems:
        try:
            values, problems = workloads.check_output(workload, out, tiny)
            problems += tally.keep_values(values)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems = [f"unreadable output: {exc!r}"]
    tally.record(workload.command, problems)
    intervals = [interval]
    for panel in workload.figure_panels:
        csv_path = work / f"figure-{panel}.csv"
        csv_path.unlink(missing_ok=True)
        csv_path.with_suffix(".dat").unlink(missing_ok=True)
        interval, problems = run_command(
            ["figure", "--panel", panel, "--out", str(csv_path)])
        if not problems:
            problems = workloads.check_figure(csv_path)
        tally.record(f"figure --panel {panel}", problems)
        intervals.append(interval)
    return intervals


def measure(workload, inputs, work, seconds, tally, tracer=None, tiny=False):
    """Repeat the workload's step for ``seconds`` under a speed probe.

    Runs at least once, and starts another repeat only while it is expected
    to end inside the window.  Returns each repeat's command seconds, raw and
    at nominal speed.  With a tracer, each repeat's command ids are labelled
    with its index.
    """
    raw, norm = [], []
    with SpeedProbe() as speed:
        start = time.perf_counter()
        while True:
            if tracer is not None:
                tracer.label = len(raw)
            intervals = workload_step(workload, inputs, work, tally, tiny)
            raw.append(sum(e - s for s, e in intervals))
            norm.append(sum(speed.normalize(s, e) for s, e in intervals))
            elapsed = time.perf_counter() - start
            if elapsed * (len(raw) + 1) / len(raw) > seconds:
                break
    return {"wall_s": raw, "wall_norm_s": norm,
            "probe_slowdown": speed.slowdown()}


def setup_times(inputs: dict) -> list[float]:
    """Fresh interpreter to statekey imported and the input files loaded.

    Raw seconds: interpreter start-up is mostly file and memory work, which
    the speed probe does not track.
    """
    argv = [sys.executable, "-c", SETUP_PROBE, str(SRC), str(inputs["channel"])]
    argv += [str(inputs["policy"])] if "policy" in inputs else []
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def end_to_end(workload, inputs, work, seconds, tally, tiny=False):
    # Half the set-ups run before the loop and half after, in different
    # stretches of the sandbox's changing speed.
    setup = setup_times(inputs)
    samples = measure(workload, inputs, work, seconds, tally, tiny=tiny)
    samples["setup_s"] = setup + setup_times(inputs)
    metrics = {
        "setup_s": statistics.median(samples["setup_s"]),
        "wall_norm_s": statistics.median(samples["wall_norm_s"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_ok_frac": (tally.attempted - tally.failed) / tally.attempted,
    }
    return metrics, samples, {}


def per_layer(workload, inputs, work, seconds, tally, tiny=False):
    untraced = measure(workload, inputs, work, seconds, tally, tiny=tiny)
    with spans.Tracer() as tracer:
        traced = measure(workload, inputs, work, seconds, tally, tracer, tiny)
    per_repeat, tails = [], {}
    for i, wall in enumerate(traced["wall_s"]):
        ids = {c for c, label in enumerate(tracer.commands) if label == i}
        m, tails = spans.command_metrics(tracer, ids)
        m["trace.unattributed_s"] = wall - m.pop("trace.self_sum_s")
        per_repeat.append(m)
    metrics = {k: statistics.median(m[k] for m in per_repeat) for k in per_repeat[0]}
    metrics["trace.wall_s"] = statistics.median(traced["wall_s"])
    metrics["trace_overhead_s"] = (statistics.median(traced["wall_norm_s"])
                                   - statistics.median(untraced["wall_norm_s"]))
    samples = {"untraced": untraced, "traced": traced, "spans": tracer.to_rows()}
    return metrics, samples, tails


def declared_units(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def provenance() -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True)
        commit = done.stdout.strip() or None
    return {"commit": commit, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "machine": platform.machine()}


def run(name: str, seed: int, seconds: float, trace: bool,
        tiny: bool = False) -> tuple[dict, dict]:
    """Run one workload; returns (result line, record)."""
    workload = workloads.WORKLOADS[name]
    work = OUT / "work" / f"{name}-seed{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    try:
        inputs = workloads.write_inputs(workload, seed, work, tiny)
        step = per_layer if trace else end_to_end
        metrics, samples, tails = step(workload, inputs, work, seconds, tally, tiny)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = declared_units(trace)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not "
                           "match BENCHMARK.json")
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    record = {"workload": name, "why": workload.why, "seconds": seconds,
              "trace": int(trace), "tiny": tiny, "provenance": {"seed": seed, **provenance()},
              "values": tally.values, "problems": tally.problems,
              "tails": tails, "samples": samples, **result}
    return result, record


def write_record(record: dict) -> Path:
    records = OUT / "records"
    records.mkdir(parents=True, exist_ok=True)
    stem = (f"{record['workload']}-seed{record['provenance']['seed']}"
            f"-trace{record['trace']}")
    spans_rows = record["samples"].pop("spans", None)
    if spans_rows is not None:
        with open(records / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for row in spans_rows:
                fh.write(json.dumps(row) + "\n")
    path = records / f"{stem}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String hashing is salted per process, and the salt alone moves the
        # figure panels' time by up to 40 % between runs; fix it.
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, __file__, *argv])
    if not (SRC / "statekey" / "__init__.py").is_file():
        print(f"error: no statekey sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    path = write_record(record)
    for problem in record["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, value in sorted((record["values"] or {}).items()):
        print(f"value {name} = {value!r}")
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
