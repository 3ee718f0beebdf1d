"""Command-line front end: channel files, bound reports, sweeps, simulation.

Channel files are UTF-8 JSON with an explicit schema_version; the kernel is
nested as [x][s][yr][ye].  All Gaussian command-line inputs are in dB and
converted as linear = 10^(dB/10); the library APIs stay linear.

Exit codes: 0 success, 2 input error, 3 budget error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import dmc, gaussian, sim
from .channel import (AuxiliaryEncoderPolicy, BudgetError, InputPolicy,
                      StateChannel)

SCHEMA_VERSION = 1
# Sweep points of the gaussian command; the figure panels use 81.
MAX_POINTS = 100_000


class CliInputError(ValueError):
    pass


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def db_to_linear(db: float) -> float:
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        raise CliInputError(f"{db:g} dB overflows in linear scale") from None


# ---------------------------------------------------------------------------
# channel file handling
# ---------------------------------------------------------------------------

def channel_to_dict(channel: StateChannel, name: str = "",
                    description: str = "") -> dict:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "x_size": channel.x_size,
        "s_size": channel.s_size,
        "yr_size": channel.yr_size,
        "ye_size": channel.ye_size,
        "state_pmf": channel.state_pmf.tolist(),
        "kernel": channel.kernel.tolist(),
    }
    if name or description:
        payload["metadata"] = {"name": name, "description": description}
    return payload


def channel_from_dict(data: dict, source: str = "<dict>") -> StateChannel:
    if not isinstance(data, dict):
        raise CliInputError(f"{source}: channel file must hold a JSON object")
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise CliInputError(
            f"{source}: schema_version must be {SCHEMA_VERSION}, got {version!r}")
    for key in ("x_size", "s_size", "yr_size", "ye_size", "state_pmf", "kernel"):
        if key not in data:
            raise CliInputError(f"{source}: missing field {key!r}")
    # An integral JSON number such as 2.0 is a size; StateChannel rejects the rest.
    sizes = [int(v) if isinstance(v, float) and v.is_integer() else v
             for v in (data[k] for k in ("x_size", "s_size", "yr_size", "ye_size"))]
    try:
        return StateChannel(
            *sizes,
            np.asarray(data["state_pmf"], dtype=float),
            np.asarray(data["kernel"], dtype=float))
    except (TypeError, ValueError) as exc:
        raise CliInputError(f"{source}: invalid channel: {exc}") from exc


def load_channel(path: str) -> StateChannel:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliInputError(f"{path}: cannot read channel file: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliInputError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
    return channel_from_dict(data, source=path)


def save_channel(channel: StateChannel, path: str, name: str = "",
                 description: str = "") -> None:
    payload = channel_to_dict(channel, name, description)
    Path(path).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


def _load_policy_file(path: str):
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise CliInputError(f"{path}: cannot load policy file: {exc}") from exc
    try:
        if "x_given_s" in data:
            return InputPolicy(np.asarray(data["x_given_s"], dtype=float))
        if "u_given_s" in data and "x_given_us" in data:
            ugs = np.asarray(data["u_given_s"], dtype=float)
            return AuxiliaryEncoderPolicy(ugs.shape[1], ugs,
                                          np.asarray(data["x_given_us"], dtype=float))
    except (TypeError, ValueError, IndexError) as exc:
        raise CliInputError(f"{path}: invalid policy: {exc}") from exc
    raise CliInputError(
        f"{path}: policy file needs either x_given_s or (u_given_s, x_given_us)")


def default_aux_policy(channel: StateChannel) -> AuxiliaryEncoderPolicy:
    """Uniform u over the input alphabet with the deterministic map x = u."""
    u_size = channel.x_size
    u_given_s = np.full((channel.s_size, u_size), 1.0 / u_size)
    x_given_us = np.zeros((u_size, channel.s_size, channel.x_size))
    for u in range(u_size):
        x_given_us[u, :, u] = 1.0
    return AuxiliaryEncoderPolicy(u_size, u_given_s, x_given_us)


def default_input_policy(channel: StateChannel) -> InputPolicy:
    return InputPolicy(np.full((channel.s_size, channel.x_size),
                               1.0 / channel.x_size))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _policy_payload(policy) -> dict:
    if isinstance(policy, AuxiliaryEncoderPolicy):
        return {"u_given_s": policy.u_given_s.tolist(),
                "x_given_us": policy.x_given_us.tolist()}
    if isinstance(policy, InputPolicy):
        return {"x_given_s": policy.x_given_s.tolist()}
    return {}


def cmd_bounds_dmc(args) -> int:
    channel = load_channel(args.channel)
    cfg = dmc.OptimizerConfig(
        u_size_max=args.u_size, restarts=args.restarts,
        grid_resolution=args.grid, seed=args.seed,
        domain={"restricted": "restricted_u", "general": "general_u"}[args.domain])
    print(f"channel: {args.channel} "
          f"(|X|={channel.x_size} |S|={channel.s_size} "
          f"|Yr|={channel.yr_size} |Ye|={channel.ye_size})")

    results = dmc.evaluate_bounds(channel, cfg)
    cap = results.pop("discussion_capacity")
    for name, res in results.items():
        print(f"{name}_bits = {_fmt(res.value_bits)}")
        if res.constraint_slack_bits is not None:
            print(f"  constraint_slack_bits = {_fmt(res.constraint_slack_bits)}")
        for key in sorted(res.diagnostics):
            print(f"  {key} = {_fmt(res.diagnostics[key])}")
        for key, value in _policy_payload(res.argmax_policy).items():
            print(f"  argmax {key} = {json.dumps(value)}")
    if cap is None:
        print("discussion_capacity: not applicable "
              "(kernel does not factorize into independent output noises)")
    else:
        print(f"discussion_capacity_bits = {_fmt(cap.value_bits)} "
              "[capacity: receiver and eavesdropper noises are independent "
              "given input and state]")

    if args.out:
        payload = {"channel": args.channel}
        for name, res in results.items():
            payload[name] = {
                "value_bits": res.value_bits,
                "constraint_slack_bits": res.constraint_slack_bits,
                "diagnostics": res.diagnostics,
                "argmax_policy": _policy_payload(res.argmax_policy),
            }
        payload["discussion_capacity"] = (
            None if cap is None else
            {"value_bits": cap.value_bits, "is_capacity": True})
        Path(args.out).write_text(json.dumps(payload, indent=1, sort_keys=True)
                                  + "\n", encoding="utf-8")
    return 0


def _gaussian_rows(axis: str, start_db: float, stop_db: float, points: int,
                   fixed: dict) -> tuple[list, bool]:
    if not 2 <= points <= MAX_POINTS:
        raise CliInputError(f"points must lie in [2, {MAX_POINTS}]")
    if not start_db < stop_db:
        raise CliInputError("start-db must be strictly below stop-db")
    rows = []
    warned = False
    for value_db in np.linspace(start_db, stop_db, points):
        params = dict(fixed)
        params[axis] = db_to_linear(float(value_db))
        gp = gaussian.GaussianParams(params["p"], params["q"], params["delta"])
        ub = gaussian.ub_no_discussion(gp)
        cap = gaussian.capacity_discussion(gp)
        lb = gaussian.lb_no_discussion(gp) if gp.p >= 1.0 else 0.0
        if not all(map(np.isfinite, (lb, ub, cap))):
            raise CliInputError(f"the bounds at {value_db:g} dB are not finite")
        if gp.p >= 1.0:
            rows.append((float(value_db), _fmt(lb), _fmt(ub), _fmt(cap),
                         _fmt(ub - lb)))
        else:
            warned = True
            rows.append((float(value_db), "", _fmt(ub), _fmt(cap), ""))
    return rows, warned


def _write_gaussian_csv(rows, stream) -> None:
    stream.write("axis_value_db,lb,ub,cap_disc,gap\n")
    for value_db, lb, ub, cap, gap in rows:
        stream.write(f"{_fmt(value_db)},{lb},{ub},{cap},{gap}\n")


def cmd_gaussian(args) -> int:
    axis = {"snr": "p", "q": "q", "delta": "delta"}[args.axis]
    fixed = {}
    for name, flag in (("p", args.p_db), ("q", args.q_db), ("delta", args.delta_db)):
        if name != axis:
            if flag is None:
                raise CliInputError(
                    f"--{name}-db is required when it is not the sweep axis")
            fixed[name] = db_to_linear(flag)
    rows, warned = _gaussian_rows(axis, args.start_db, args.stop_db,
                                  args.points, fixed)
    if warned:
        print("warning: lb and gap are empty where p < 1 "
              "(the achievable-rate formula needs p >= 1)", file=sys.stderr)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            _write_gaussian_csv(rows, fh)
    else:
        _write_gaussian_csv(rows, sys.stdout)
    return 0


PANELS = {
    # axis, start_db, stop_db, points, fixed linear parameters
    "left": ("p", -10.0, 30.0, 81, {"q": 10.0, "delta": 10.0}),
    "right": ("delta", -10.0, 30.0, 81, {"p": 10.0, "q": 10.0}),
}


def cmd_figure(args) -> int:
    axis, start_db, stop_db, points, fixed = PANELS[args.panel]
    rows, _ = _gaussian_rows(axis, start_db, stop_db, points, fixed)
    out_csv = Path(args.out)
    try:
        with open(out_csv, "w", encoding="utf-8", newline="\n") as fh:
            _write_gaussian_csv(rows, fh)
        dat_path = out_csv.with_suffix(".dat") if out_csv.suffix != ".dat" \
            else out_csv.with_suffix(".gnuplot.dat")
        with open(dat_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("# axis_value_db lb ub cap_disc gap\n")
            for value_db, lb, ub, cap, gap in rows:
                fh.write(f"{_fmt(value_db)} {lb or 'nan'} {ub} {cap} "
                         f"{gap or 'nan'}\n")
    except OSError as exc:
        raise CliInputError(f"{args.out}: cannot write output: {exc}") from exc
    print(f"wrote {out_csv} and {dat_path}")
    return 0


def cmd_simulate(args) -> int:
    channel = load_channel(args.channel)
    mode = {"no-disc": "no_discussion", "one-round": "one_round_discussion"}[args.mode]
    cfg = sim.SimConfig(n=args.n, epsilon=args.epsilon, rate_margin=args.margin,
                        trials=args.trials, seed=args.seed)
    policy = _load_policy_file(args.policy_file) if args.policy_file else None
    lines = [f"mode = {mode}", f"n = {args.n}", f"seed = {args.seed}"]
    if mode == "no_discussion":
        if policy is None:
            policy = default_aux_policy(channel)
        if not isinstance(policy, AuxiliaryEncoderPolicy):
            raise CliInputError("no-disc mode needs an auxiliary encoder policy")
        report = sim.run_no_discussion(channel, policy, cfg)
        rate, slack = dmc.aux_policy_rate(channel, policy)
        lines.append(f"policy_key_rate_bits = {_fmt(rate)}")
        lines.append(f"policy_constraint_slack_bits = {_fmt(slack)}")
    else:
        if policy is None:
            policy = default_input_policy(channel)
        if not isinstance(policy, InputPolicy):
            raise CliInputError("one-round mode needs an input policy (x_given_s)")
        report = sim.run_one_round_discussion(channel, policy, cfg)
    fields = [
        ("disagreement_prob", report.disagreement_prob),
        ("leakage_bits_per_symbol", report.leakage_bits_per_symbol),
        ("achieved_key_rate", report.achieved_key_rate),
        ("encode_failure_rate", report.encode_failure_rate),
    ]
    for name, value in fields:
        lines.append(f"{name} = {_fmt(value)}")
    lines.append(f"leakage_method = {report.leakage_method}")
    for key in sorted(report.diagnostics):
        lines.append(f"  {key} = {_fmt(report.diagnostics[key])}")
    print("\n".join(lines))
    if args.out:
        header = [name for name, _ in fields] + ["leakage_method"] \
            + sorted(report.diagnostics)
        values = [_fmt(v) for _, v in fields] + [report.leakage_method] \
            + [_fmt(report.diagnostics[k]) for k in sorted(report.diagnostics)]
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            fh.write(",".join(values) + "\n")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="statekey",
        description="Secret-key capacity bounds for wiretap channels with "
                    "transmitter-known state, plus a binning-protocol simulator.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds-dmc", help="evaluate all finite-alphabet bounds")
    p.add_argument("channel", help="channel JSON file")
    p.add_argument("--u-size", type=int, default=None,
                   help="auxiliary alphabet cap (default |X||S|+2)")
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--grid", type=int, default=4, help="grid resolution")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--domain", choices=["restricted", "general"],
                   default="general")
    p.add_argument("--out", default=None, help="also write a JSON report")

    p = sub.add_parser("gaussian", help="closed-form Gaussian bound sweep (CSV)")
    p.add_argument("--axis", choices=["snr", "q", "delta"], required=True)
    p.add_argument("--start-db", type=float, required=True)
    p.add_argument("--stop-db", type=float, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--p-db", type=float, default=None)
    p.add_argument("--q-db", type=float, default=None)
    p.add_argument("--delta-db", type=float, default=None)
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")

    p = sub.add_parser("simulate", help="run the key-agreement simulator")
    p.add_argument("channel", help="channel JSON file")
    p.add_argument("--mode", choices=["no-disc", "one-round"], default="no-disc")
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--epsilon", type=float, default=0.15)
    p.add_argument("--margin", type=float, default=0.2)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--policy-file", default=None,
                   help="JSON policy (x_given_s, or u_given_s + x_given_us)")
    p.add_argument("--out", default=None, help="also write a one-row CSV report")

    p = sub.add_parser("figure", help="emit the fixed Gaussian sweep panels")
    p.add_argument("--panel", choices=["left", "right"], required=True)
    p.add_argument("--out", required=True,
                   help="CSV path; a gnuplot .dat twin is written alongside")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # Looked up at call time, so a replaced cmd_* function is the one run.
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
