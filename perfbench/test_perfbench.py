"""Tests of the benchmark harness itself.

    python3 -m pytest -q perfbench/test_perfbench.py

They run every workload at a tiny size and show that a failing operation is
counted, not dropped.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import statekey.cli  # noqa: E402
import statekey.dmc  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


def ops_per_repeat(name):
    return 1 + len(workloads.WORKLOADS[name].figure_panels)


def test_benchmark_file_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == \
        [w.why for w in workloads.WORKLOADS.values()]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_runs_at_tiny_size(name):
    result, record = run.run(name, seed=0, seconds=0, trace=False, tiny=True)
    assert record["problems"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == ops_per_repeat(name)
    assert set(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_at_tiny_size(name):
    original = statekey.dmc.lower_bound_no_discussion
    result, record = run.run(name, seed=0, seconds=0, trace=True, tiny=True)
    assert statekey.dmc.lower_bound_no_discussion is original
    assert result["correct"] and result["failed"] == 0
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert set(metrics) == PER_LAYER
    # Self times of all spans add up to the traced command time.
    assert 0.0 <= metrics["trace.unattributed_s"] < 0.01
    assert metrics["cli.self_s"] > 0
    assert (metrics["gaussian.calls"] > 0) == (name == "sim-oneround")
    if name.startswith("dmc"):
        assert metrics["dmc.inner_solves"] > 0 and metrics["dmc.aux_evals"] > 0
        assert 0.0 < metrics["dmc.repeat_share"] < 1.0
        assert metrics["sim.leakage_s"] == 0.0
    else:
        assert metrics["dmc.inner_solves"] == 0
        assert metrics["sim.transmit_us_p50"] > 0
    if name == "sim-nodisc":
        # |S|^n * codebook size * |Ye|^n at n = 4.
        assert metrics["sim.leakage_atoms"] % (2 ** 4 * 2 ** 4) == 0
        assert metrics["sim.leakage_atoms"] > 0


def test_per_layer_counts_repeat_exactly():
    counts = ("dmc.inner_solves", "dmc.aux_evals", "dmc.aux_iterations",
              "channel.mi_calls", "gaussian.calls", "dmc.lattice_exhaustive")
    first, _ = run.run("dmc-coupling", seed=1, seconds=0, trace=True, tiny=True)
    second, _ = run.run("dmc-coupling", seed=2, seconds=0, trace=True, tiny=True)
    assert [first["metrics"][k] for k in counts] == \
        [second["metrics"][k] for k in counts]


def fake_main(replacement):
    """statekey.cli.main that hands the workload's own command to
    ``replacement`` and runs the figure panels for real."""
    real = statekey.cli.main

    def main(argv):
        if argv[0] == "figure":
            return real(argv)
        return replacement(argv)

    return main


def test_bound_ordering_violation_counts_as_failed(monkeypatch):
    def inverted_bounds(argv):
        out = Path(argv[argv.index("--out") + 1])
        report = {name: {"value_bits": value} for name, value in (
            ("lower_bound_no_discussion", 0.5), ("upper_bound_no_discussion", 0.4),
            ("lower_bound_discussion", 0.6), ("upper_bound_discussion", 0.7),
            ("secret_message_lower_bound", 0.3))}
        report["discussion_capacity"] = {"value_bits": 0.7, "is_capacity": True}
        out.write_text(json.dumps(report), encoding="utf-8")
        return 0

    monkeypatch.setattr(statekey.cli, "main", fake_main(inverted_bounds))
    result, record = run.run("dmc-coupling", seed=0, seconds=0, trace=False,
                             tiny=True)
    assert not result["correct"]
    assert (result["attempted"], result["failed"]) == (1, 1)
    assert result["metrics"]["ops_ok_frac"]["value"] == 0.0
    assert any("lb_bits = 0.5 exceeds ub_bits = 0.4" in p for p in record["problems"])


@pytest.mark.parametrize("behaviour, message", [
    (lambda argv: 3, "exit code 3"),
    (lambda argv: 1 / 0, "raised ZeroDivisionError"),
])
def test_crash_or_nonzero_exit_counts_as_failed(monkeypatch, behaviour, message):
    monkeypatch.setattr(statekey.cli, "main", fake_main(behaviour))
    result, record = run.run("sim-oneround", seed=0, seconds=0, trace=False,
                             tiny=True)
    assert (result["attempted"], result["failed"]) == (3, 1)
    assert result["metrics"]["ops_ok_frac"]["value"] == pytest.approx(2 / 3)
    assert not result["correct"]
    assert any(message in p for p in record["problems"])


def test_regression_against_seed_commit_values():
    ref = workloads.WORKLOADS["dmc-coupling"].reference
    assert workloads.regressions(dict(ref), ref) == []
    better = dict(ref, lb_bits=ref["lb_bits"] + 0.01, ub_bits=ref["ub_bits"] - 0.01)
    assert workloads.regressions(better, ref) == []
    worse = dict(ref, ub_bits=ref["ub_bits"] + 1e-3)
    assert len(workloads.regressions(worse, ref)) == 1


def test_seed_changes_file_layout_not_numbers(tmp_path):
    workload = workloads.WORKLOADS["sim-nodisc"]
    texts = []
    for seed, sub in ((7, "a"), (7, "b"), (8, "c")):
        directory = tmp_path / sub
        directory.mkdir()
        paths = workloads.write_inputs(workload, seed, directory)
        texts.append({k: p.read_text(encoding="utf-8") for k, p in paths.items()})
    assert texts[0] == texts[1]
    for role in texts[0]:
        assert json.loads(texts[0][role]) == json.loads(texts[2][role])


def test_tail_percentile_needs_ten_samples_beyond():
    assert spans.tail([1.0] * 19) == (0.0, None, 19)
    value, pct, n = spans.tail(list(range(1, 101)))
    assert (value, pct, n) == (90, 90.0, 100)
    assert spans.tail(list(range(10000)))[1] == 99.9


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-oneround",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
