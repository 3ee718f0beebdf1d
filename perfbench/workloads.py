"""The four benchmark workloads: their generated inputs, commands and checks.

Every workload pins the numbers it feeds the program: the channel, the
policy and the program's own ``--seed``.  Values and counts therefore repeat
exactly from run to run, which is what lets the checks below hold them to
the seed commit's values.  The benchmark's ``--seed`` only changes how the
input files are written (key order and indentation), never their numbers:
the program's cost swings with its own seed (``bounds-dmc`` on the random
channel takes 13 s at ``--seed 0`` and 62 s at ``--seed 1``), and a workload
whose cost and results change with the seed could not be compared across
runs.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Tolerance on bound orderings and on the regression checks of bound values:
# the 1e-6 agreement ROADMAP.md asks of a replacement upper-bound solver.
BOUND_TOL = 1e-6
# Simulator values are exact functions of the seed; allow only rounding.
SIM_TOL = 1e-9

PROBABILITIES = {"disagreement_prob", "encode_failure_rate",
                 "reconstruction_failure_rate", "reconstruction_success_rate"}

FIGURE_HEADER = "axis_value_db,lb,ub,cap_disc,gap"
FIGURE_ROWS = 81

# The direction in which each value may move from the seed commit's, and by
# how much it may get worse: results must stay the same or get better, so a
# value worse than that fails its operation.
HIGHER, LOWER = "higher", "lower"
VALUE_RULES = {
    "lb_bits": (HIGHER, BOUND_TOL), "ub_bits": (LOWER, BOUND_TOL),
    "lb_disc_bits": (HIGHER, BOUND_TOL), "ub_disc_bits": (LOWER, BOUND_TOL),
    "secret_msg_bits": (HIGHER, BOUND_TOL),
    "disagreement_prob": (LOWER, SIM_TOL), "leakage_bits": (LOWER, SIM_TOL),
    "key_rate_bits": (HIGHER, SIM_TOL),
}


def bsc(p: float) -> np.ndarray:
    return np.array([[1.0 - p, p], [p, 1.0 - p]])


def factorized_binary(flip_r: float = 0.1, flip_e: float = 0.25,
                      states: int = 2) -> dict:
    """yr = BSC(flip_r)(x xor s), ye = BSC(flip_e)(x xor s), independent
    noises, with s uniform over ``states`` values (1 or 2)."""
    kernel = np.zeros((2, states, 2, 2))
    for x in range(2):
        for s in range(states):
            t = x ^ s
            kernel[x, s] = np.outer(bsc(flip_r)[t], bsc(flip_e)[t])
    return channel_payload(np.full(states, 1.0 / states), kernel)


def random_channel(channel_seed: int, x_size: int, s_size: int, yr_size: int,
                   ye_size: int) -> dict:
    """Dirichlet state law and kernel rows from ``default_rng(channel_seed)``."""
    rng = np.random.default_rng(channel_seed)
    state = rng.dirichlet(np.ones(s_size))
    kernel = rng.dirichlet(np.ones(yr_size * ye_size), size=(x_size, s_size))
    return channel_payload(state, kernel.reshape(x_size, s_size, yr_size, ye_size))


def channel_payload(state_pmf, kernel: np.ndarray) -> dict:
    """The CLI's channel-file schema (version 1, kernel nested [x][s][yr][ye])."""
    x_size, s_size, yr_size, ye_size = kernel.shape
    return {"schema_version": 1, "x_size": x_size, "s_size": s_size,
            "yr_size": yr_size, "ye_size": ye_size,
            "state_pmf": np.asarray(state_pmf, dtype=float).tolist(),
            "kernel": kernel.tolist()}


def xor_policy() -> dict:
    """Uniform binary u, sent as x = u xor s (attains LB = 0.3422825)."""
    x_given_us = [[[1.0 if x == u ^ s else 0.0 for x in range(2)]
                   for s in range(2)] for u in range(2)]
    return {"u_given_s": [[0.5, 0.5], [0.5, 0.5]], "x_given_us": x_given_us}


@dataclass(frozen=True)
class Workload:
    """One CLI command repeated in a closed loop, with its inputs and checks.

    ``args`` follow the channel file; ``tiny`` are appended to shrink the
    run for tests (argparse keeps the last value of a repeated option), and
    ``tiny_channel`` replaces the channel there when given.  The ``figure``
    panels listed in ``figure_panels`` run after the command in each repeat.
    ``reference`` holds the seed commit's values for the full-size run.
    """

    name: str
    why: str
    command: str
    channel: dict
    args: tuple
    tiny: tuple
    policy: dict | None = None
    figure_panels: tuple = ()
    tiny_channel: dict | None = None
    capacity_expected: bool | None = None
    reference: dict = field(default_factory=dict)


WORKLOADS = {w.name: w for w in (
    # About 80 % of the time is the coupling upper bound (410 inner solves on
    # the exhaustive lattice); LB = UB and the capacity flag applies.
    Workload(
        name="dmc-coupling",
        why="bounds-dmc on the factorized binary channel: the coupling upper "
            "bound dominates, on the exhaustive lattice branch",
        command="bounds-dmc", channel=factorized_binary(), args=(),
        tiny=("--restarts", "1", "--grid", "2", "--u-size", "2"),
        # Its coupling bound alone takes over 40 s at the tiny settings; the
        # stateless version keeps the exhaustive lattice and the flag.
        tiny_channel=factorized_binary(states=1),
        capacity_expected=True,
        reference={"lb_bits": 0.34228253087, "ub_bits": 0.34228253087,
                   "lb_disc_bits": 0.412295305641,
                   "ub_disc_bits": 0.412295305641,
                   "secret_msg_bits": 0.34228253087}),
    # About 78 % of the time is the three auxiliary-policy searches; the
    # coupling bound takes the sampled lattice branch (8 free dimensions)
    # that no other workload reaches.
    Workload(
        name="dmc-search",
        why="bounds-dmc on a random 2x2x3x2 channel: the auxiliary-policy "
            "searches dominate, and the lattice is sampled",
        command="bounds-dmc", channel=random_channel(3, 2, 2, 3, 2), args=(),
        tiny=("--restarts", "1", "--grid", "2", "--u-size", "2"),
        capacity_expected=False,
        reference={"lb_bits": 0.0387196779285, "ub_bits": 0.180951516847,
                   "lb_disc_bits": 0.162577715098,
                   "ub_disc_bits": 0.37737634872,
                   "secret_msg_bits": 0.0232743888365}),
    # The state is non-trivial, so exact leakage enumerates 2^10 * 10 * 2^10
    # atoms (about 55 % of the time); encode, decode and transmit take most
    # of the rest.
    Workload(
        name="sim-nodisc",
        why="no-discussion simulation with a state-dependent policy: exact "
            "leakage over 10.5M atoms plus per-trial encode and decode",
        command="simulate", channel=factorized_binary(),
        args=("--mode", "no-disc", "--n", "10", "--epsilon", "0.15",
              "--margin", "0.2", "--trials", "10000", "--seed", "42"),
        tiny=("--n", "4", "--trials", "50"),
        policy=xor_policy(),
        reference={"disagreement_prob": 0.7974,
                   "leakage_bits": 0.051530552572,
                   "key_rate_bits": 0.148260524956}),
    # Sender reconstruction is about 85 % of the time and leakage about 3 %:
    # the bypass case for any change to exact_leakage, encode or decode.  The
    # two closed-form figure panels (a few ms each) ride along, so gaussian
    # and the CLI's CSV and .dat writing are measured without a fifth workload.
    Workload(
        name="sim-oneround",
        why="one-round discussion simulation, then both figure panels: sender "
            "reconstruction dominates and the no-discussion leakage path is "
            "bypassed",
        command="simulate", channel=factorized_binary(0.0, 0.3),
        args=("--mode", "one-round", "--n", "8", "--epsilon", "0.4",
              "--margin", "0.2", "--trials", "10000", "--seed", "42"),
        tiny=("--n", "4", "--trials", "50"),
        figure_panels=("left", "right"),
        reference={"disagreement_prob": 0.0159,
                   "leakage_bits": 0.0921572723223,
                   "key_rate_bits": 0.671681844911}),
)}


def write_json(payload: dict, path: Path, rng: random.Random) -> None:
    """Write ``payload`` with a seed-chosen key order and indentation."""
    keys = list(payload)
    rng.shuffle(keys)
    text = json.dumps({k: payload[k] for k in keys}, indent=rng.choice([None, 1, 2]))
    path.write_text(text + "\n", encoding="utf-8")


def write_inputs(workload: Workload, seed: int, directory: Path,
                 tiny: bool = False) -> dict:
    """Generate the workload's input files; returns their paths by role."""
    rng = random.Random(seed)
    paths = {"channel": directory / "channel.json"}
    channel = workload.tiny_channel if tiny and workload.tiny_channel else workload.channel
    write_json(channel, paths["channel"], rng)
    if workload.policy is not None:
        paths["policy"] = directory / "policy.json"
        write_json(workload.policy, paths["policy"], rng)
    return paths


def command_argv(workload: Workload, inputs: dict, out: Path,
                 tiny: bool = False) -> list[str]:
    argv = [workload.command, str(inputs["channel"]), *workload.args]
    if tiny:
        argv += workload.tiny
    if "policy" in inputs:
        argv += ["--policy-file", str(inputs["policy"])]
    return argv + ["--out", str(out)]


def output_name(workload: Workload) -> str:
    return "report.json" if workload.command == "bounds-dmc" else "report.csv"


def check_output(workload: Workload, out: Path, tiny: bool = False):
    """(values, problems) for one finished command of the workload."""
    if workload.command == "bounds-dmc":
        values, problems = _check_bounds(out, workload.capacity_expected)
    else:
        values, problems = _check_simulation(out)
    if not tiny:
        problems += regressions(values, workload.reference)
    return values, problems


def regressions(values: dict, reference: dict) -> list[str]:
    """Values that got worse than the seed commit's by more than tolerance."""
    problems = []
    for name, ref in reference.items():
        direction, tol = VALUE_RULES[name]
        worse = ref - values[name] if direction == HIGHER else values[name] - ref
        if worse > tol:
            problems.append(f"{name} = {values[name]!r} is worse than the "
                            f"seed commit's {ref!r}")
    return problems


def _check_bounds(out: Path, capacity_expected: bool):
    report = json.loads(out.read_text(encoding="utf-8"))
    values = {
        "lb_bits": report["lower_bound_no_discussion"]["value_bits"],
        "ub_bits": report["upper_bound_no_discussion"]["value_bits"],
        "lb_disc_bits": report["lower_bound_discussion"]["value_bits"],
        "ub_disc_bits": report["upper_bound_discussion"]["value_bits"],
        "secret_msg_bits": report["secret_message_lower_bound"]["value_bits"],
    }
    problems = [f"{name} = {v!r} is not finite"
                for name, v in values.items() if not math.isfinite(v)]
    for low, high in (("lb_bits", "ub_bits"), ("lb_disc_bits", "ub_disc_bits"),
                      ("lb_bits", "lb_disc_bits"), ("ub_bits", "ub_disc_bits")):
        if values[low] > values[high] + BOUND_TOL:
            problems.append(f"{low} = {values[low]!r} exceeds "
                            f"{high} = {values[high]!r}")
    has_capacity = report["discussion_capacity"] is not None
    if has_capacity != capacity_expected:
        problems.append("discussion-capacity flag is "
                        f"{'present' if has_capacity else 'absent'}, expected "
                        f"{'present' if capacity_expected else 'absent'}")
    return values, problems


def _check_simulation(out: Path):
    with open(out, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != 1:
        return {}, [f"simulate report has {len(rows)} rows, expected 1"]
    row = rows[0]
    problems = []
    if row.get("leakage_method") != "exact":
        problems.append(f"leakage_method is {row.get('leakage_method')!r}, "
                        "expected 'exact'")
    numbers = {k: float(v) for k, v in row.items() if k != "leakage_method"}
    problems += [f"{k} = {v!r} is not finite"
                 for k, v in numbers.items() if not math.isfinite(v)]
    for k in PROBABILITIES & numbers.keys():
        if not 0.0 <= numbers[k] <= 1.0:
            problems.append(f"{k} = {numbers[k]!r} lies outside [0, 1]")
    values = {"disagreement_prob": numbers["disagreement_prob"],
              "leakage_bits": numbers["leakage_bits_per_symbol"],
              "key_rate_bits": numbers["achieved_key_rate"]}
    return values, problems


def check_figure(csv_path: Path) -> list[str]:
    """Problems with one written figure panel (CSV plus its .dat twin)."""
    if not csv_path.is_file():
        return [f"{csv_path.name} was not written"]
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    problems = []
    if not lines or lines[0] != FIGURE_HEADER:
        problems.append(f"figure header is {lines[:1]!r}, expected {FIGURE_HEADER!r}")
    if len(lines) - 1 != FIGURE_ROWS:
        problems.append(f"figure has {len(lines) - 1} rows, expected {FIGURE_ROWS}")
    if not csv_path.with_suffix(".dat").is_file():
        problems.append(f"{csv_path.with_suffix('.dat').name} was not written")
    return problems
