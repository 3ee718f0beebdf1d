"""Spans around the public functions of statekey's modules, and the per-layer
metrics computed from them.

The CLI and the evaluators look their callees up by module attribute
(``dmc.lower_bound_no_discussion``, or a global name inside ``dmc``), so
replacing those attributes with timing wrappers sees every real call, nested
calls included.  Nothing inside the program changes; ``Tracer.restore`` puts
the original functions back.  Private helpers are not wrapped.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time

LAYERS = ("cli", "dmc", "sim", "gaussian")
# Modules whose imported ``statekey.channel`` functions are wrapped, so calls
# to the information primitives are counted where they are made.
CHANNEL_CALLERS = ("dmc", "sim")

# BoundResult.diagnostics fields counted where the search that produced them
# returns; lower_bound_discussion copies its nested search's fields, so only
# the producing functions are listed.
DIAGNOSTIC_FIELDS = {
    "dmc.lower_bound_no_discussion": ("objective_evaluations", "iterations"),
    "dmc.secret_message_lower_bound": ("objective_evaluations", "iterations"),
    "dmc.upper_bound_no_discussion": ("inner_solves", "exhaustive_grid"),
}
# Functions whose ``None`` result is a counted failure (encode fallback,
# decode with no unique candidate).
NONE_IS_FAILURE = ("sim.encode", "sim.decode")
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)


def _leakage_atoms(args) -> int:
    """Atoms exact_leakage enumerates: |S|^n * codebook size * |Ye|^n."""
    codebook, channel = args[0], args[1]
    return (channel.s_size ** codebook.n) * codebook.count \
        * (channel.ye_size ** codebook.n)


class Span:
    __slots__ = ("name", "start", "end", "parent", "command", "counts")

    def __init__(self, name, parent, command):
        self.name, self.parent, self.command = name, parent, command
        self.start = self.end = 0.0
        self.counts = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records one span per wrapped call; spans of one command share an id.

    ``label`` is copied into ``commands`` whenever a top-level span starts,
    so the harness can say which workload step each command id belongs to.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.commands: list = []
        self.label = None
        self._stack: list[int] = []
        self._saved: list = []

    def install(self) -> "Tracer":
        for layer in LAYERS:
            module = importlib.import_module(f"statekey.{layer}")
            for name, fn in list(vars(module).items()):
                if (inspect.isfunction(fn) and not name.startswith("_")
                        and fn.__module__ == module.__name__):
                    self._patch(module, name, f"{layer}.{name}")
        for caller in CHANNEL_CALLERS:
            module = importlib.import_module(f"statekey.{caller}")
            for name, fn in list(vars(module).items()):
                if inspect.isfunction(fn) and fn.__module__ == "statekey.channel":
                    self._patch(module, name, f"channel.{name}")
        return self

    def restore(self) -> None:
        while self._saved:
            module, name, fn = self._saved.pop()
            setattr(module, name, fn)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    def _patch(self, module, attr: str, span_name: str) -> None:
        fn = getattr(module, attr)
        self._saved.append((module, attr, fn))
        setattr(module, attr, self._wrap(span_name, fn))

    def _wrap(self, name: str, fn):
        fields = DIAGNOSTIC_FIELDS.get(name, ())
        failed_key = name.split(".")[1] + "_failed" if name in NONE_IS_FAILURE else None
        atoms = name == "sim.exact_leakage"
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack:
                parent = stack[-1]
            else:
                parent = -1
                self.commands.append(self.label)
            span = Span(name, parent, len(self.commands) - 1)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if fields:
                span.counts = {k: result.diagnostics[k] for k in fields
                               if k in result.diagnostics}
            elif failed_key:
                span.counts = {failed_key: int(result is None)}
            elif atoms:
                span.counts = {"atoms": _leakage_atoms(args)}
            return result

        return wrapper

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own

    def to_rows(self) -> list[list]:
        """Spans as [name, start, end, parent index, command id, counts] rows."""
        return [[s.name, s.start, s.end, s.parent, s.command, s.counts]
                for s in self.spans]


def percentile(samples: list[float], pct: float) -> float:
    """Nearest-rank percentile; 0 for no samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def tail(samples: list[float]) -> tuple[float, float | None, int]:
    """(value, percentile, count): the highest ladder percentile with at
    least ten samples beyond it; (0, None, n) if none has."""
    n = len(samples)
    for pct in TAIL_LADDER:
        if n * (1.0 - pct / 100.0) >= 10.0 - 1e-9:
            return percentile(samples, pct), pct, n
    return 0.0, None, n


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def command_metrics(tracer: Tracer, commands: set[int]) -> tuple[dict, dict]:
    """Per-layer metrics of the given command ids, plus tail metadata.

    Nested calls are told apart by their parent: ``lower_bound_discussion``
    re-runs ``lower_bound_no_discussion`` and ``discussion_capacity_if_markov``
    re-runs ``upper_bound_discussion``; those nested runs are the repeated
    work ``dmc.repeat_share`` measures.
    """
    own = tracer.self_times()
    spans = tracer.spans
    total, self_sum, calls, counts, durations = {}, {}, {}, {}, {}
    nested = 0.0
    direct = {"dmc.lower_bound_no_discussion": 0.0, "dmc.upper_bound_discussion": 0.0}
    layer_self = {}
    for i, s in enumerate(spans):
        if s.command not in commands:
            continue
        d = s.duration
        total[s.name] = total.get(s.name, 0.0) + d
        self_sum[s.name] = self_sum.get(s.name, 0.0) + own[i]
        calls[s.name] = calls.get(s.name, 0) + 1
        durations.setdefault(s.name, []).append(d)
        layer = s.name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + own[i]
        for k, v in (s.counts or {}).items():
            counts[k] = counts.get(k, 0) + v
        if s.name in direct:
            parent = spans[s.parent].name if s.parent >= 0 else ""
            if parent in ("dmc.lower_bound_discussion",
                          "dmc.discussion_capacity_if_markov"):
                nested += d
            else:
                direct[s.name] += d

    searches = total.get("dmc.lower_bound_no_discussion", 0.0) \
        + total.get("dmc.secret_message_lower_bound", 0.0)
    ub_nodisc = total.get("dmc.upper_bound_no_discussion", 0.0)
    leakage = total.get("sim.exact_leakage", 0.0)
    metrics = {
        "dmc.ub_nodisc_s": ub_nodisc,
        "dmc.inner_solves": counts.get("inner_solves", 0),
        "dmc.inner_solves_per_s": _ratio(counts.get("inner_solves", 0), ub_nodisc),
        "dmc.lattice_exhaustive": counts.get("exhaustive_grid", 0),
        "dmc.lb_nodisc_s": direct["dmc.lower_bound_no_discussion"],
        "dmc.secret_msg_s": total.get("dmc.secret_message_lower_bound", 0.0),
        "dmc.aux_evals": counts.get("objective_evaluations", 0),
        "dmc.aux_evals_per_s": _ratio(counts.get("objective_evaluations", 0), searches),
        "dmc.aux_iterations": counts.get("iterations", 0),
        "dmc.lb_disc_self_s": self_sum.get("dmc.lower_bound_discussion", 0.0),
        "dmc.ub_disc_s": direct["dmc.upper_bound_discussion"],
        "dmc.cap_self_s": self_sum.get("dmc.discussion_capacity_if_markov", 0.0),
        "dmc.repeat_share": _ratio(nested, total.get("cli.cmd_bounds_dmc", 0.0)),
        "channel.mi_calls": sum(c for n, c in calls.items() if n.startswith("channel.")),
        "channel.mi_s": sum(t for n, t in total.items() if n.startswith("channel.")),
        "sim.codebook_s": total.get("sim.build_codebook", 0.0),
        "sim.run_self_s": self_sum.get("sim.run_no_discussion", 0.0),
        "sim.encode_fallback_frac": _ratio(counts.get("encode_failed", 0),
                                           calls.get("sim.encode", 0)),
        "sim.decode_fail_frac": _ratio(counts.get("decode_failed", 0),
                                       calls.get("sim.decode", 0)),
        "sim.leakage_s": leakage,
        "sim.leakage_atoms": counts.get("atoms", 0),
        "sim.leakage_atoms_per_s": _ratio(counts.get("atoms", 0), leakage),
        "sim.oneround_leakage_s": total.get("sim.one_round_exact_leakage", 0.0),
        "sim.oneround_remainder_s": self_sum.get("sim.run_one_round_discussion", 0.0),
        "cli.self_s": layer_self.get("cli", 0.0),
        "trace.self_sum_s": sum(layer_self.values()),
    }
    tails = {}
    for step in ("encode", "decode", "transmit"):
        samples = [d * 1e6 for d in durations.get(f"sim.{step}", [])]
        metrics[f"sim.{step}_us_p50"] = percentile(samples, 50.0)
        value, pct, n = tail(samples)
        metrics[f"sim.{step}_us_tail"] = value
        tails[f"sim.{step}_us_tail"] = {"percentile": pct, "samples": n}
    metrics["gaussian.calls"] = sum(c for n, c in calls.items()
                                    if n.startswith("gaussian."))
    metrics["gaussian.s"] = layer_self.get("gaussian", 0.0)
    return metrics, tails
