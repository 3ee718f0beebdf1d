"""Numerical secret-key bounds for finite state-controlled wiretap channels.

Four bound evaluators plus a secret-message comparison bound;
``evaluate_bounds`` runs them all once.  The no-discussion lower bound and
the secret-message bound search over auxiliary encoder policies (p(u|s),
p(x|u,s)) with a seeded multi-start grid plus projected-gradient ascent on
closed-form partials of the MI triple, scoring policies in batches; their
optima are "best found" and deterministic for a fixed seed.  One search
serves both: one refinement batch holds both passes' and objectives'
restarts, each row scored under its own objective by one ``_search_score``
call, each gradient comes from the batch that scored its point, and each
objective gets the result of a search for it alone.  The batch kernels
(``aux_mi_terms``, ``aux_mi_partials``) contract with the channel's
``stacked_kernel()`` by stacked matmuls and take the three MIs in one
log-ratio pass, so an iteration's numpy calls do not grow with the batch,
and a row's bits do not depend on the batch it is in.  The upper bounds
and the discussion lower bound maximize concave objectives over input
policies p(x|s), each H(Yr|Ye) minus a term linear in p(s) p(x|s) under an
output law: one kernel, ``_input_value_grad``, evaluates all three, and
each is solved by one multiplicative-update ascent from the uniform policy.
The ascent stops when its Frank-Wolfe gap proves that no step can gain
_ASCENT_TOL, or when it stalls at a maximum on the simplex boundary; a
maximum at a vertex (a deterministic policy) is certified in one evaluation.
Its backtracking ladder skips the rungs that concavity proves futile: the
objective is 1-homogeneous in p(s) p(x|s), so a candidate's value is at
most its inner product with the current partials, a bound that shrinks with
the step size, and once a rejected step's bound is within _ASCENT_TOL / 2 of
the value no smaller step is evaluated.
The no-discussion upper bound also minimizes over output couplings with
fixed marginals, where the objective is convex: it alternates the ascent,
warm-started from the last maximizer, with an over-relaxed Csiszar-Tusnady
step on every input's coupling cell until the pair stops improving, then
goes on from the best pair seen with plain steps under the same stop rule.
The upper bounds report the Frank-Wolfe gap of their inner maximum as
certificate_gap_bits; value plus gap is a proven bound.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .channel import (AuxiliaryEncoderPolicy, BudgetError, InputPolicy,
                      StateChannel, _rng_stream, aux_mi_partials, aux_mi_terms,
                      check_integer, policy_mi_triple)

LN2 = math.log(2.0)

# Covering-constraint slack below -_STEP_TOLERANCE makes a policy infeasible;
# _PENALTY_WEIGHT steers the ascent away from such policies.
_STEP_TOLERANCE = 1e-9
_PENALTY_WEIGHT = 8.0

COUPLING_TOL = 1e-10

# Multiplicative-update ascent: iteration cap and the least accepted gain.
_ASCENT_MAX_ITER = 4000
_ASCENT_TOL = 1e-13

# Alternating best-response rounds per start of the coupling upper bound.
_COUPLING_ROUNDS = 200
# Over-relaxation t of the coupling step: each cell is scaled from
# cells^(1 - t) m^t, m the output mixture; t = 1 is the plain step.
_RELAXATION = 1.8
# Most bytes of the five kernel-sized arrays the coupling upper bound holds at
# once (kernel, best coupling, cells, their projection and its result).
_COUPLING_BYTES = 192 * 2**20
# Sinkhorn scaling: sweeps per coupling step and the marginal tolerance.
_SINKHORN_ITERATIONS = 1000
_SINKHORN_TOL = 1e-13

# Largest batch of float64 policies the auxiliary-policy search may build,
# and the most policy entries it may plan to score for one objective; a
# search that would need more raises BudgetError before it starts.  A
# default search on an 8x8x2x2 channel plans 7.4e7 entries per objective,
# scores 4e7 and takes 1.7-3.5 s per objective on 2 CPUs.
_AUX_BATCH_BYTES = 64 * 2**20
_AUX_WORK_ENTRIES = 2**28
# Step-size multiples scored per search iteration; iterations per local step.
_STEP_MULTIPLIERS = np.array([4.0, 1.0, 0.25, 0.0625])
_ITERATIONS_PER_STEP = 4
# Structured seeds per pass: at most 64 input maps plus five fixed policies.
_STRUCTURED_SEEDS_MAX = 69


@dataclass(frozen=True)
class OptimizerConfig:
    """Search budget of the auxiliary-policy searches.

    ``lower_bound_no_discussion`` and ``secret_message_lower_bound`` take
    one; the concave input-policy maximizations have no search budget.

    ``domain`` selects the auxiliary-policy search space: ``general_u``
    optimizes p(u|s) jointly with p(x|u,s); ``restricted_u`` ties the
    u-distribution across states (u independent of s).  ``local_steps``
    caps the projected-gradient iterations of each restart at
    4 * ``local_steps`` per pass.
    """

    u_size_max: int | None = None
    restarts: int = 8
    grid_resolution: int = 4
    local_steps: int = 60
    seed: int = 0
    domain: str = "general_u"

    def __post_init__(self):
        for name, minimum in (("restarts", 1), ("grid_resolution", 2),
                              ("local_steps", 1), ("seed", 0)):
            check_integer(name, getattr(self, name), minimum)
        if self.u_size_max is not None:
            check_integer("u_size_max", self.u_size_max, 1)
        if self.domain not in ("restricted_u", "general_u"):
            raise ValueError(f"unknown domain {self.domain!r}")

    def resolve_u_size(self, channel: StateChannel) -> int:
        if self.u_size_max is not None:
            return self.u_size_max
        return channel.x_size * channel.s_size + 2


@dataclass(frozen=True)
class CouplingFamily:
    """A joint output law q(yr, ye | x, s) agreeing with the channel marginals.

    Validated at construction: for every (x, s) the yr- and ye-marginals of
    ``q`` reproduce the channel's own conditionals within 1e-10.
    """

    channel: StateChannel = field(repr=False)
    q: np.ndarray = field(repr=False)

    def __post_init__(self):
        q = np.array(self.q, dtype=float, copy=True, order="C")
        if q.shape != self.channel.kernel.shape:
            raise ValueError("coupling tensor must match the channel kernel shape")
        if not np.all(np.isfinite(q)):
            raise ValueError("coupling has non-finite entries")
        if np.any(q < -COUPLING_TOL):
            raise ValueError("coupling has negative entries")
        np.clip(q, 0.0, None, out=q)
        dr = np.abs(q.sum(axis=3) - self.channel.receiver_kernel()).max()
        de = np.abs(q.sum(axis=2) - self.channel.eavesdropper_kernel()).max()
        if dr > COUPLING_TOL or de > COUPLING_TOL:
            raise ValueError(
                f"coupling marginals deviate from the channel by {max(dr, de):.3e} "
                f"(tolerance {COUPLING_TOL})")
        q.setflags(write=False)
        object.__setattr__(self, "q", q)


@dataclass(frozen=True)
class BoundResult:
    """Value of one bound plus the policy that attains it.

    ``constraint_slack_bits`` is present only for the constrained lower bound.
    ``coupling`` is present only for the coupling-minimized upper bound.
    """

    value_bits: float
    argmax_policy: AuxiliaryEncoderPolicy | InputPolicy | None
    constraint_slack_bits: float | None = None
    diagnostics: dict = field(default_factory=dict)
    coupling: CouplingFamily | None = None


# ---------------------------------------------------------------------------
# shared numerics
# ---------------------------------------------------------------------------

def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row of ``v`` onto the probability simplex.

    With u a row sorted in descending order and c_j = u_1 + ... + u_j - 1,
    the projection is max(v - c_rho / rho, 0) for the last rank rho with
    u_rho > c_rho / rho.  Between the sort and the result the work runs on
    the transposed rows, one array row per rank, so each step is along the
    long axis.  The result is C-ordered like ``v``: the einsum sums of the
    partials take other rounding paths on other memory layouts.
    """
    n, w = v.shape
    u = np.sort(v, axis=1).T[::-1].copy()                  # (w, n), by rank
    css = u.copy()
    for j in range(1, w):
        css[j] += css[j - 1]
    css -= 1.0
    rank = np.arange(1, w + 1)[:, None]
    rho = ((u - css / rank > 0) * rank).max(axis=0)
    theta = css.ravel()[(rho - 1) * n + np.arange(n)] / rho
    return np.maximum(v - theta[:, None], 0.0)


# ---------------------------------------------------------------------------
# auxiliary-policy search (lower bounds)
# ---------------------------------------------------------------------------

def _check_aux_budget(channel: StateChannel, cfg: OptimizerConfig,
                      u_size: int, passes: int, objectives: int) -> None:
    """Refuse a search whose largest batch or whose planned work is too big.

    A batch holds the seeds of a pass, scored once for every objective, or
    the step candidates of every pass's and objective's restarts; a policy
    has |U||S|(|X| + 1) float64 entries.  Before the seeds exist, a pass's
    ``_grid_aux_seeds`` makes resolution lattice draws per policy row and
    holds 8 + max(8, |X|) bytes per draw: the int64 draws, and their int64
    bounds or an x-row draw's |X| one-hot flags.  The planned work of each
    objective counts the entries of the seeds and, for the whole iteration
    cap, of its candidates, over all passes.
    """
    entries = u_size * channel.s_size * (channel.x_size + 1)
    seeds = _STRUCTURED_SEEDS_MAX + 3 * cfg.restarts
    candidates = cfg.restarts * len(_STEP_MULTIPLIERS)
    u_rows = channel.s_size if passes == 2 else 1
    draws = 3 * cfg.restarts * (u_rows + u_size * channel.s_size) \
        * cfg.grid_resolution
    need = max(8 * max(seeds, passes * objectives * candidates) * entries,
               (8 + max(8, channel.x_size)) * draws)
    work = passes * (seeds + _ITERATIONS_PER_STEP * cfg.local_steps
                     * candidates) * entries
    if need > _AUX_BATCH_BYTES or work > _AUX_WORK_ENTRIES:
        raise BudgetError(
            f"the auxiliary-policy search needs a {need / 2**20:.0f} MiB batch "
            f"and plans {work:.3g} policy entries per objective at "
            f"|U|={u_size}, over the limits of {_AUX_BATCH_BYTES // 2**20} MiB "
            f"and {_AUX_WORK_ENTRIES:.3g}; lower u_size_max, restarts, "
            f"grid_resolution or local_steps")


def _structured_aux_seeds(channel, u_size, restricted, rng):
    s_size, x_size = channel.s_size, channel.x_size
    u_rows_n = 1 if restricted else s_size
    const_u = np.zeros((u_rows_n, u_size))
    const_u[:, 0] = 1.0
    uni_u = np.full((u_rows_n, u_size), 1.0 / u_size)
    uni_x = np.full((u_size, s_size, x_size), 1.0 / x_size)

    # Deterministic input maps x = f(u) under a uniform u; for binary inputs
    # this includes the classic "send the codeword symbol" encoders.
    if x_size ** min(u_size, 8) <= 64:
        maps = list(itertools.product(range(x_size), repeat=u_size))
    else:
        maps = [rng.integers(0, x_size, size=u_size) for _ in range(16)]
        maps.append(np.arange(u_size) % x_size)
    eye_x = np.eye(x_size)
    map_x = np.repeat(eye_x[np.array(maps)][:, :, None], s_size, axis=2)

    # State-shifted deterministic map x = (u + s) mod |X|.
    det_x = eye_x[(np.arange(u_size)[:, None] + np.arange(s_size)) % x_size]
    u_seeds = [const_u, uni_u] + [uni_u] * (len(maps) + 1)
    x_seeds = [uni_x, uni_x, *map_x, det_x]
    if not restricted and s_size > 1:
        # u tracks the state: p(u|s) = delta(u = s mod |U|).
        copy_u = np.eye(u_size)[np.arange(s_size) % u_size]
        u_seeds += [copy_u, copy_u]
        x_seeds += [uni_x, det_x]
    return np.array(u_seeds), np.array(x_seeds)


def _grid_aux_seeds(channel, u_size, restricted, resolution, count, rng):
    """``count`` policies with rows drawn from the 1/resolution simplex
    lattice, by one ``rng.integers`` call that takes the draws of one call
    per row, in its order: per policy the u-rows, then the x-rows ([u][s])."""
    dims = (u_size, channel.x_size)
    sizes = ((1 if restricted else channel.s_size) * resolution,
             u_size * channel.s_size * resolution)
    draws = rng.integers(0, np.tile(np.repeat(dims, sizes), count))
    parts = np.split(draws.reshape(count, -1), sizes[:1], axis=1)
    u_rows, x_rows = ((part.reshape(count, -1, resolution, 1) == np.arange(dim))
                      .sum(axis=2) / resolution for part, dim in zip(parts, dims))
    return u_rows, x_rows.reshape(count, u_size, channel.s_size, channel.x_size)


def _refine_aux(u_rows, x_rows, tied, evaluate, gradient, cfg):
    """Projected-gradient ascent on the search score, every restart at once.

    ``u_rows`` (restarts, s, u) and ``x_rows`` (restarts, u, s, x) hold the
    start points and are overwritten; a ``tied`` restart's u-rows are equal
    and stay equal.  Each iteration scores one ``evaluate(u_rows, x_rows,
    restart)`` batch, row i from restart ``restart[i]``: every live
    restart's point projected onto the simplex after steps of
    eta * _STEP_MULTIPLIERS along its gradient.  The best candidate is taken
    when it beats the restart's score by more than 1e-13; eta becomes its
    step, and ``gradient`` takes the next gradient from the weights and
    terms ``evaluate`` returned; else eta (0.25 at first) is divided by 64.
    A restart leaves when eta < 1e-9 or after _ITERATIONS_PER_STEP *
    ``cfg.local_steps`` iterations.  Points, gradients, steps and scores are
    held for the live restarts only, and cut when one leaves.  Returns the
    iterations of each restart.
    """
    n, k = len(u_rows), len(_STEP_MULTIPLIERS)
    current, weights, terms = evaluate(u_rows, x_rows, np.arange(n))
    points = [u_rows, x_rows]
    grads = list(gradient(x_rows, weights, terms, tied))
    eta = np.full(n, 0.25)
    iterations = np.zeros(n, dtype=int)
    live = np.arange(n)
    restart, first = np.repeat(live, k), live * k
    for it in range(1, _ITERATIONS_PER_STEP * cfg.local_steps + 1):
        steps = eta[:, None] * _STEP_MULTIPLIERS                    # (live, k)
        cand = []
        for rows, grad in zip(points, grads):
            moved = rows[:, None] + grad[:, None] * steps.reshape(
                steps.shape + (1,) * (rows.ndim - 1))
            cand.append(_project_simplex(moved.reshape(-1, rows.shape[-1]))
                        .reshape((-1,) + rows.shape[1:]))
        score, weights, terms = evaluate(*cand, restart)
        pick = first + np.argmax(score.reshape(-1, k), axis=1)
        up = np.flatnonzero(score[pick] > current + 1e-13)
        take = pick[up]
        current[up] = score[take]
        won = [c[take] for c in cand]
        for rows, grad, row, new in zip(points, grads, won, gradient(
                won[1], weights[take], [t[take] for t in terms], tied[up])):
            rows[up], grad[up] = row, new
        eta /= 64.0
        eta[up] = steps.ravel()[take]
        keep = eta >= 1e-9
        if not keep.all():
            iterations[live[~keep]] = it
            live, eta, current, tied = live[keep], eta[keep], current[keep], tied[keep]
            points = [rows[keep] for rows in points]
            grads = [grad[keep] for grad in grads]
            if not live.size:
                break
            restart, first = np.repeat(live, k), np.arange(len(live)) * k
    iterations[live] = it
    return iterations


def _search_score(triple, key_rate):
    """(value, feasible, score, weights) of a batch from its MI triple.

    ``key_rate`` is a bool, or a bool array that broadcasts against the
    batch, one objective per row: True for the key rate, False for the
    secret-message rate.  The key rate I(U;Yr) - I(U;Ye) is feasible when
    the covering slack I(U;Yr) - I(U;S) is at least -_STEP_TOLERANCE, and
    its score adds _PENALTY_WEIGHT * min(0, slack), so refinement can cross
    back into the feasible region.  The secret-message rate
    I(U;Yr) - max(I(U;S), I(U;Ye)) is its own score.  ``weights`` (batch, 3)
    holds the partials of the score in the triple, as ``aux_mi_partials``
    takes them.  A row's outputs do not depend on the other rows' flags.
    """
    i_uyr, i_uye, i_us = triple
    key = np.asarray(key_rate)
    slack = i_uyr - i_us
    value = i_uyr - np.maximum(i_uye, np.where(key, -np.inf, i_us))
    penalty = _PENALTY_WEIGHT * (key & (slack < 0.0))
    score = np.where(key, value + _PENALTY_WEIGHT * np.minimum(0.0, slack), value)
    weights = np.column_stack([1.0 + penalty, -1.0 * (key | (i_uye >= i_us)),
                               -(penalty + (~key & (i_us > i_uye)))])
    return value, (slack >= -_STEP_TOLERANCE) | ~key, score, weights


def _search_aux(channel, cfg, objectives):
    """One (policy, diagnostics) per objective: the best rate found for each.

    ``objectives`` holds ``key_rate`` flags of ``_search_score``: True for
    the key rate, False for the secret-message rate.  ``general_u`` also
    runs the restricted (u independent of s) pass, where the covering
    constraint is vacuous; its points hold one equal u-row per state.  Each
    pass scores its seeds under every objective; the ``restarts`` best of
    each (pass, objective) are refined in one ``_refine_aux`` batch, ordered
    by (pass, objective), each row scored under its own objective.  Each
    (pass, objective) keeps one incumbent, which sees only its own rows and
    is replaced only by a strictly higher feasible value; an objective keeps
    its restricted incumbent unless the general one is higher.  So among
    equal values the first evaluated stays, and every objective's result
    equals that of a search for it alone.  An over-budget search raises
    ``BudgetError`` first.
    """
    u_size, n_obj = cfg.resolve_u_size(channel), len(objectives)
    passes = 2 if cfg.domain == "general_u" and channel.s_size > 1 else 1
    n_groups = passes * n_obj
    _check_aux_budget(channel, cfg, u_size, passes, n_obj)
    kernel = channel.stacked_kernel()
    terms_of = partial(aux_mi_terms, channel.state_pmf, kernel, channel.yr_size)
    gradient = partial(aux_mi_partials, channel.state_pmf, kernel)

    def offer(row_group, value, feasible, u_rows, x_rows):
        """For each group g in ``row_group`` (sorted), a copy of its first
        feasible best row replaces a lower incumbent."""
        masked = np.where(feasible, value, -np.inf)
        ends = np.searchsorted(row_group, np.arange(n_groups + 1))
        evals[:] += ends[1:] - ends[:-1]
        seen = np.flatnonzero(ends[1:] > ends[:-1])
        # A stable sort: within a group the first of equal values leads.
        first = np.lexsort((-masked, row_group))[ends[seen]]
        up = masked[first] > best_value[seen]
        won, first = seen[up], first[up]
        best_value[won] = masked[first]
        best_u[won], best_x[won] = u_rows[first], x_rows[first]

    def evaluate(u_rows, x_rows, restart):
        """Scores, weights and terms of a batch, each row under its objective."""
        triple, terms = terms_of(u_rows, x_rows)
        row_group = group[restart]
        value, feasible, score, weights = _search_score(
            triple, group_key[row_group])
        offer(row_group, value, feasible, u_rows, x_rows)
        return score, weights, terms

    best_value = np.full(n_groups, -np.inf)
    best_u = np.zeros((n_groups, channel.s_size, u_size))
    best_x = np.zeros((n_groups, u_size, channel.s_size, channel.x_size))
    evals, best_grid = np.zeros(n_groups, dtype=int), [-np.inf] * n_obj
    starts_u, starts_x = [], []
    for p, (restricted, stream_key) in enumerate(((True, 11), (False, 12))[:passes]):
        rng = _rng_stream(cfg.seed, stream_key)
        u_seeds, x_seeds = _structured_aux_seeds(channel, u_size, restricted, rng)
        u_grid, x_grid = _grid_aux_seeds(channel, u_size, restricted,
                                         cfg.grid_resolution, 3 * cfg.restarts, rng)
        x_rows = np.concatenate([x_seeds, x_grid])
        u_rows = np.broadcast_to(np.concatenate([u_seeds, u_grid]),
                                 (len(x_rows), channel.s_size, u_size))
        triple = terms_of(u_rows, x_rows)[0]
        if not p:
            fallback = u_rows[0], x_rows[0]
        for j, key_rate in enumerate(objectives):
            value, feasible, seed_score, _ = _search_score(triple, key_rate)
            offer(np.full(len(value), p * n_obj + j), value, feasible, u_rows,
                  x_rows)
            best_grid[j] = max(best_grid[j], float(seed_score[len(u_seeds):].max()))
            top = np.argsort(-seed_score, kind="stable")[:cfg.restarts]
            starts_u.append(u_rows[top])
            starts_x.append(x_rows[top])
    # Restart r, in group g = group[r], refines a seed of pass g // n_obj
    # under objective g % n_obj; restricted-pass restarts have tied u-rows.
    group = np.repeat(np.arange(n_groups), cfg.restarts)
    group_key = np.tile(np.array(objectives, dtype=bool), passes)
    restart_iterations = _refine_aux(
        np.concatenate(starts_u), np.concatenate(starts_x), group < n_obj,
        evaluate, gradient, cfg)

    results = []
    for j in range(n_obj):
        # The first of equal values wins: the restricted pass's incumbent.
        g = j + n_obj * int(np.argmax(best_value[j::n_obj]))
        u_given_s, x_given_us = best_u[g], best_x[g]
        # The first seed, constant u with uniform x, is feasible with value
        # 0, so a result always exists.
        if not best_value[g] >= 0.0:
            u_given_s, x_given_us = fallback
        diagnostics = {
            "iterations": float(restart_iterations[group % n_obj == j].sum()),
            "restarts": float(cfg.restarts),
            "best_grid_value": best_grid[j],
            "objective_evaluations": float(evals[j::n_obj].sum()),
        }
        results.append((AuxiliaryEncoderPolicy(u_size, u_given_s, x_given_us),
                        diagnostics))
    return results


def _policy_rate(channel, policy, key_rate) -> tuple[float, float]:
    """(rate, covering slack I(U;Yr) - I(U;S)) of one policy, the rate being
    the objective's ``_search_score`` value."""
    triple = np.array(policy_mi_triple(channel, policy))[:, None]
    return (float(_search_score(triple, key_rate)[0][0]),
            float(triple[0, 0] - triple[2, 0]))


def _search_result(channel, key_rate, policy, diagnostics) -> BoundResult:
    """The bound of a searched objective, recomputed from the stored policy
    alone: its rate, clipped at 0, and the key rate's covering slack."""
    rate, slack = _policy_rate(channel, policy, key_rate)
    return BoundResult(value_bits=max(0.0, rate), argmax_policy=policy,
                       constraint_slack_bits=slack if key_rate else None,
                       diagnostics=diagnostics)


def lower_bound_no_discussion(channel: StateChannel,
                              cfg: OptimizerConfig) -> BoundResult:
    """Best found achievable key rate without discussion.

    Maximizes I(U;Yr) - I(U;Ye) over encoder policies subject to the covering
    constraint I(U;Yr) - I(U;S) >= 0; candidates violating the constraint by
    more than ``_STEP_TOLERANCE`` (1e-9 bits) are discarded.  The reported
    policy's ``constraint_slack_bits`` may therefore lie in [-1e-9, 0), where
    the value is not proven achievable (ROADMAP item 3).
    """
    (found,) = _search_aux(channel, cfg, (True,))
    return _search_result(channel, True, *found)


def secret_message_lower_bound(channel: StateChannel,
                               cfg: OptimizerConfig) -> BoundResult:
    """Best found secret-message rate I(U;Yr) - max(I(U;S), I(U;Ye)).

    Provided for comparison with the key-rate bound; the key can depend on
    the state sequence while a message cannot, so the optimum of this bound
    is never larger on the constrained region.  Both are best-found values,
    and the message search can find more than the key-rate search does
    (ROADMAP items 2 and 3).
    """
    (found,) = _search_aux(channel, cfg, (False,))
    return _search_result(channel, False, *found)


def aux_policy_rate(channel: StateChannel,
                    policy: AuxiliaryEncoderPolicy) -> tuple[float, float]:
    """(I(U;Yr) - I(U;Ye), covering slack) for one concrete policy."""
    return _policy_rate(channel, policy, True)


# ---------------------------------------------------------------------------
# input-policy ascent (upper bounds and the discussion lower bound)
# ---------------------------------------------------------------------------

def _cell_entropy(q: np.ndarray, given_ye: bool) -> np.ndarray:
    """H(Yr|X=x,S=s,Ye) if ``given_ye``, else H(Yr|X=x,S=s), per (x, s) cell
    of the output law ``q`` (x, s, yr, ye); shape (x, s)."""
    def plogp(a):
        a = a.reshape(*a.shape[:2], -1)
        return np.einsum("xsk,xsk->xs", a,
                         np.log2(a, out=np.zeros_like(a), where=a > 0))
    return plogp(q.sum(axis=2)) - plogp(q) if given_ye else -plogp(q.sum(axis=3))


def _input_value_grad(p_xs: np.ndarray, state_pmf: np.ndarray, q: np.ndarray,
                      h_cell: np.ndarray) -> tuple[float, np.ndarray]:
    """H(Yr|Ye) - sum_{x,s} w(x,s) h_cell[x,s] under output law ``q``, and
    its partials d[s, x] in w(x,s) = p(s) p(x|s).

    H(Yr|Ye) is concave in the output law, which is linear in w, so the
    value is concave in p(x|s).  With ``_cell_entropy(q, True)`` it is
    I(X,S;Yr|Ye); with ``_cell_entropy(q, False)``, I(X,S;Yr) - I(Yr;Ye).
    d = -h_cell - sum_{yr,ye} q log2 P(yr|ye) is the exact partial, also at
    inputs of zero probability, which the certificate needs; the
    multiplicative update p(x|s) ~ p(x|s) 2^d is the ascent step.
    """
    w = state_pmf[:, None] * p_xs                         # (s, x)
    m = np.einsum("sx,xsre->re", w, q)
    log_cond = np.log2(np.maximum(m, 1e-300)) \
        - np.log2(np.maximum(m.sum(axis=0), 1e-300))
    d = (-h_cell - np.einsum("xsre,re->xs", q, log_cond)).T
    return float(np.einsum("sx,sx->", w, d)), d


def _fw_gap(p_xs: np.ndarray, state_pmf: np.ndarray, d: np.ndarray) -> float:
    """Frank-Wolfe gap sum_s p(s) (max_x d - sum_x p(x|s) d) at ``p_xs``, with
    d from ``_input_value_grad``: the objective is concave, so its value at
    ``p_xs`` plus the gap bounds its maximum over p(x|s)."""
    return max(0.0, float(state_pmf @ (d.max(axis=1) - (p_xs * d).sum(axis=1))))


def _certified_value(p_xs: np.ndarray, state_pmf: np.ndarray, q: np.ndarray,
                     h_cell: np.ndarray) -> tuple[float, float]:
    """(value, gap) of ``_input_value_grad`` at ``p_xs``, the gap by
    ``_fw_gap``.  The gap is inf unless the output law at ``p_xs`` is
    positive on every (yr, ye) that some (x, s) cell with p(s) > 0 charges:
    only then are the partials exact at inputs of probability zero."""
    value, d = _input_value_grad(p_xs, state_pmf, q, h_cell)
    m = np.einsum("sx,xsre->re", state_pmf[:, None] * p_xs, q)
    if not np.all(m[(q[:, state_pmf > 0] > 0).any(axis=(0, 1))] > 0):
        return value, math.inf
    return value, _fw_gap(p_xs, state_pmf, d)


def _ascend_input(state_pmf: np.ndarray, q: np.ndarray, given_ye: bool,
                  p0: np.ndarray) -> tuple[np.ndarray, float, float]:
    """(p, value, gap): multiplicative-update ascent with backtracking on
    ``_input_value_grad`` under output law ``q``, h_cell computed once, from
    ``p0`` mixed with the uniform row (multiplicative updates keep zeros and
    would pin boundary starts).  The objective is concave, so a full-support
    start converges to the global maximum.  A step must gain > _ASCENT_TOL.
    The ascent stops once the Frank-Wolfe gap at p (``_fw_gap``, returned)
    is at most _ASCENT_TOL / 2, which proves that no step can gain
    _ASCENT_TOL; or, stalled at a maximum on the simplex boundary where the
    gap shrinks slowly, when no step down to eta = 1e-12 gains, after five
    steps in a row gain less than 1e-12, or after _ASCENT_MAX_ITER steps.
    Once a step's first candidate is rejected, each further rung is bounded
    before it is evaluated, and the ladder ends at the first rung whose
    bound sum_s p(s) sum_x cand(x|s) d[s, x], d the partials at p, is
    within _ASCENT_TOL / 2 of the value.  The objective is concave and
    1-homogeneous in w = p(s) p(x|s), so that bound (the supporting
    hyperplane of ``_fw_gap``) caps the candidate's value; it grows with
    eta, since the tilted mean of d does, so no smaller rung could gain
    _ASCENT_TOL either, and the result is the one the whole ladder gives.
    Maxima at a vertex (every row one-hot) take one evaluation to certify:
    a vertex ``p0`` with gap at most _ASCENT_TOL / 2 is returned as it is,
    and a stalled ascent returns the argmax vertex of its p when that
    vertex's value is no lower and its value plus gap is lower.  A vertex's
    gap is ``_certified_value``'s, inf where it is not exact.
    """
    h_cell = _cell_entropy(q, given_ye)
    if np.all((p0 == 0.0) | (p0 == 1.0)):
        value, gap = _certified_value(p0, state_pmf, q, h_cell)
        if gap <= _ASCENT_TOL / 2:
            return p0, value, gap
    p = (1.0 - 1e-3) * p0 + 1e-3 / p0.shape[1]
    p /= p.sum(axis=1, keepdims=True)
    value, grad = _input_value_grad(p, state_pmf, q, h_cell)
    eta, stall = 1.0, 0
    for step in itertools.count():
        gap = _fw_gap(p, state_pmf, grad)
        if gap <= _ASCENT_TOL / 2:
            return p, value, gap
        if stall >= 5 or step == _ASCENT_MAX_ITER:
            break
        accepted = rejected = False
        while eta >= 1e-12:
            logp = np.log(np.maximum(p, 1e-300)) + eta * grad * LN2
            logp -= logp.max(axis=1, keepdims=True)
            cand = np.exp(logp)
            cand /= cand.sum(axis=1, keepdims=True)
            if rejected and state_pmf @ (cand * grad).sum(axis=1) - value \
                    <= _ASCENT_TOL / 2:
                break
            cand_value, cand_grad = _input_value_grad(cand, state_pmf, q, h_cell)
            if cand_value > value + _ASCENT_TOL:
                gain = cand_value - value
                p, value, grad = cand, cand_value, cand_grad
                eta = min(eta * 1.5, 64.0)
                accepted = True
                break
            eta *= 0.5
            rejected = True
        if not accepted:
            break
        stall = stall + 1 if gain < 1e-12 else 0
    top = np.eye(p.shape[1])[p.argmax(axis=1)]
    top_value, top_gap = _certified_value(top, state_pmf, q, h_cell)
    if top_value >= value and top_value + top_gap < value + gap:
        return top, top_value, top_gap
    return p, value, gap


def _uniform_input(channel: StateChannel) -> np.ndarray:
    """The uniform p(x|s), shape (s, x): the start of every input ascent."""
    return np.full((channel.s_size, channel.x_size), 1.0 / channel.x_size)


def upper_bound_discussion(channel: StateChannel) -> BoundResult:
    """max over p(x|s) of I(X,S;Yr|Ye) on the channel's own joint kernel.

    No coupling minimization: with a discussion channel available the key
    capacity depends on the joint output law, not only its marginals.  The
    objective is concave in p(x|s), so one ascent from the uniform policy
    solves it; ``certificate_gap_bits`` bounds how far short it stopped.
    """
    p, v, gap = _ascend_input(channel.state_pmf, channel.kernel, True,
                              _uniform_input(channel))
    return BoundResult(value_bits=max(0.0, v), argmax_policy=InputPolicy(p),
                       diagnostics={"certificate_gap_bits": gap})


def lower_bound_discussion(channel: StateChannel,
                           no_discussion: BoundResult) -> BoundResult:
    """Achievable key rate with one round of public discussion.

    Returns max(max_{p(x|s)} [I(X,S;Yr) - I(Ye;Yr)], no-discussion bound);
    diagnostics record which branch won (``discussion_branch`` is 1.0 when
    the one-round discussion expression attained the max, within 1e-12).
    The first branch is concave in p(x|s) (see ``_input_value_grad``) and is
    solved by one multiplicative ascent from the uniform policy; the second
    is ``no_discussion``, ``lower_bound_no_discussion`` of the same channel.
    """
    p, branch1, _ = _ascend_input(channel.state_pmf, channel.kernel, False,
                                  _uniform_input(channel))
    # On a tie branch 1 wins.  Both values come from different summation
    # routes, so equal rates in exact arithmetic may differ in the last bits.
    diag = dict(no_discussion.diagnostics)
    if branch1 >= no_discussion.value_bits - 1e-12:
        diag.update(discussion_branch=1.0,
                    no_discussion_value=no_discussion.value_bits)
        return BoundResult(value_bits=max(0.0, branch1),
                           argmax_policy=InputPolicy(p), diagnostics=diag)
    diag.update(discussion_branch=0.0, discussion_value=branch1)
    return replace(no_discussion, diagnostics=diag)


# ---------------------------------------------------------------------------
# coupling saddle point (no-discussion upper bound)
# ---------------------------------------------------------------------------

def _maximal_couplings(r: np.ndarray, c: np.ndarray,
                       shape: tuple[int, ...]) -> np.ndarray:
    """The diagonal-first coupling of every (x, s), reshaped to ``shape``:
    each row pair (r_k, c_k) puts min(r_k, c_k) on the diagonal and the
    outer product of the residuals, over their mass, everywhere (none when
    that mass is at most 1e-15), so it is exactly diagonal when the
    marginals agree."""
    n = min(r.shape[1], c.shape[1])
    diag = np.minimum(r[:, :n], c[:, :n])
    res_r, res_c = r.copy(), c.copy()
    res_r[:, :n] -= diag
    res_c[:, :n] -= diag
    mass = res_r.sum(axis=1)
    q = res_r[:, :, None] * res_c[:, None, :] / np.where(
        mass > 1e-15, mass, np.inf)[:, None, None]
    q[:, np.arange(n), np.arange(n)] += diag
    return q.reshape(shape)


def _project_couplings(cells: np.ndarray, weights: np.ndarray,
                       r: np.ndarray, c: np.ndarray, t: float) -> np.ndarray:
    """One Csiszar-Tusnady step on every coupling cell, over-relaxed by t.

    ``cells`` has shape (x*s, yr, ye) and ``weights`` holds p(s) p(x|s) per
    cell.  Each cell becomes the Sinkhorn scaling of the base
    cells_k^(1-t) m^t, on the cell's support, onto the cell's marginals
    (r_k, c_k), with m = sum_k w_k cells_k the output mixture.  At t = 1
    the base is m bit for bit (x**0.0 and x**1.0 are exact): the plain
    step, the minimizer of sum_k w_k D(cells_k || m).  At t > 1 the base
    lies past m on the log-linear path from the cell, as in over-relaxed
    Blahut-Arimoto steps (Matz-Duhamel, ITW 2004); where it underflows to 0
    on the cell's support, m stands in, so the base keeps the support of
    the plain step's.  Cells of zero weight are projected too, since the
    ascent's partials at inputs of probability zero read them.  A cell
    whose scaling misses its marginals is kept, as is one whose scale
    overflows on a subnormal row or column sum.  Beside ``cells`` the step
    holds two kernel-sized arrays: the base, built in place, and the
    result.
    """
    m = np.einsum("k,kre->re", weights, cells)
    support = cells > 0
    q = np.zeros_like(cells)
    # As (m cells^((1-t)/t))^t: the factor m^t underflows below m = 1e-180
    # or so, where the base itself is still a normal float.
    np.power(cells, (1.0 - t) / t, out=q, where=support)
    q *= m
    np.power(q, t, out=q)
    np.copyto(q, m, where=support & (q == 0))
    rows = q.sum(axis=2)
    # Scale buffers, reused: where a row or column sum is 0 the stale scale
    # multiplies a row or column of zeros, as the first sweep's 0 would.
    row_scale, col_scale, err = np.zeros_like(r), np.zeros_like(c), np.empty_like(r)
    # An overflowed scale leaves inf or nan in its cell's sums only, and
    # such a cell fails the marginal test below.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_SINKHORN_ITERATIONS):
            q *= np.divide(r, rows, out=row_scale, where=rows > 0)[:, :, None]
            cols = q.sum(axis=1)
            q *= np.divide(c, cols, out=col_scale, where=cols > 0)[:, None, :]
            rows = q.sum(axis=2)
            if np.abs(np.subtract(rows, r, out=err), out=err).max() <= _SINKHORN_TOL:
                break
    return np.where((err.max(axis=1) <= _SINKHORN_TOL)[:, None, None], q, cells)


def _check_coupling_budget(channel: StateChannel) -> None:
    """Refuse a channel whose coupling bound would hold over _COUPLING_BYTES."""
    need = 5 * 8 * channel.kernel.size
    if need > _COUPLING_BYTES:
        raise BudgetError(f"the coupling upper bound needs {need / 2**20:.0f} MiB, "
                          f"over the limit of {_COUPLING_BYTES / 2**20:.0f} MiB")


def upper_bound_no_discussion(channel: StateChannel) -> BoundResult:
    """min over output couplings of max over p(x|s) of I(X,S;Yr|Ye).

    For a fixed input law the objective is I(X,S;Yr,Ye) - I(X,S;Ye): the
    second term depends only on the fixed marginals and the first is convex
    in the coupling, while the objective is concave in p(x|s).  The
    diagonal-first coupling is solved once, as a candidate that is exact
    (value 0) when the outputs can be coupled to agree.  Unless it is, the
    saddle point is approached from the independent product coupling by
    alternating best responses: a multiplicative-update ascent in p(x|s)
    (warm-started from the last maximizer, one ``inner_solves`` each; a
    vertex maximizer that is still one is certified in one evaluation) and
    a Csiszar-Tusnady step in the coupling, over-relaxed by t =
    _RELAXATION (``_project_couplings``: Sinkhorn scaling of all (x, s)
    cells at once, zero-weight ones included).  The first round that fails
    to lower the value by 1e-12 returns to the best (coupling, p) the
    alternation has seen, never the diagonal-first candidate, whose zeros
    a step could not leave, and plain t = 1 steps go on from there until a
    round again fails to.  The relaxed route usually ends lower in fewer
    rounds, but it ends at another point than the plain one, and where
    both stop on a slow stretch it can end higher; both are upper bounds.
    The alternation also stops when the value reaches 0, or after
    ``_COUPLING_ROUNDS`` rounds in all.  Every coupling visited is valid,
    so the lowest value seen is a true upper bound up to inner-ascent
    tolerance; its certificate gap is reported.  A channel over the
    coupling byte budget raises ``BudgetError`` first.
    """
    _check_coupling_budget(channel)
    pr = channel.receiver_kernel()
    pe = channel.eavesdropper_kernel()
    x_size, s_size = channel.x_size, channel.s_size
    ny, ne = channel.yr_size, channel.ye_size
    r = pr.reshape(-1, ny)
    c = pe.reshape(-1, ne)
    p0, v0, gap0 = _ascend_input(
        channel.state_pmf, _maximal_couplings(r, c, channel.kernel.shape),
        True, _uniform_input(channel))
    v0, p, best_v = max(0.0, v0), p0, np.inf
    solves, last, t = 1, np.inf, _RELAXATION
    cells = r[:, :, None] * c[:, None, :]
    while min(v0, best_v) > 0.0 and solves <= _COUPLING_ROUNDS:
        q = cells.reshape(channel.kernel.shape)
        p, v, gap = _ascend_input(channel.state_pmf, q, True, p)
        v = max(0.0, v)
        solves += 1
        if v < best_v:
            best_v, best_q, best_p, best_gap = v, q, p, gap
        if v > last - 1e-12:
            if t == 1.0:
                break
            t, cells, p, last = 1.0, best_q.reshape(cells.shape), best_p, best_v
        else:
            last = v
        weights = (channel.state_pmf[None, :] * p.T).ravel()
        cells = _project_couplings(cells, weights, r, c, t)
    if not best_v < v0:
        best_v, best_p, best_gap = v0, p0, gap0
        best_q = _maximal_couplings(r, c, channel.kernel.shape)
    return BoundResult(
        value_bits=best_v, argmax_policy=InputPolicy(best_p),
        diagnostics={"inner_solves": float(solves),
                     "free_dimensions": float((ny - 1) * (ne - 1) * x_size * s_size),
                     "certificate_gap_bits": best_gap},
        coupling=CouplingFamily(channel, best_q))


# ---------------------------------------------------------------------------
# factorization test (discussion capacity)
# ---------------------------------------------------------------------------

def discussion_capacity_if_markov(channel: StateChannel,
                                  upper: BoundResult) -> BoundResult | None:
    """Exact discussion capacity when the outputs are conditionally independent.

    If the kernel factorizes as p(yr|x,s) * p(ye|x,s) (within 1e-10), the
    discussion bounds coincide and the returned value is the capacity
    (diagnostics carry ``is_capacity`` = 1.0).  Returns None when the kernel
    does not factorize.  ``upper`` is the result of
    ``upper_bound_discussion`` for the same channel.
    """
    product = np.einsum("xsr,xse->xsre", channel.receiver_kernel(),
                        channel.eavesdropper_kernel())
    residual = float(np.abs(channel.kernel - product).max())
    if residual > 1e-10:
        return None
    diag = dict(upper.diagnostics)
    diag.update(is_capacity=1.0, factorization_residual=residual)
    return replace(upper, diagnostics=diag)


def evaluate_bounds(channel: StateChannel, cfg: OptimizerConfig) -> dict:
    """Every bound of ``channel``, each computed once, under the keys of the
    ``bounds-dmc --out`` report in print order; ``discussion_capacity`` is
    None when the kernel does not factorize.  Both budgets are checked
    before the search starts."""
    _check_coupling_budget(channel)
    key, message = _search_aux(channel, cfg, (True, False))
    lb = _search_result(channel, True, *key)
    msg = _search_result(channel, False, *message)
    ub = upper_bound_no_discussion(channel)
    lbd = lower_bound_discussion(channel, lb)
    ubd = upper_bound_discussion(channel)
    return {"lower_bound_no_discussion": lb, "secret_message_lower_bound": msg,
            "upper_bound_no_discussion": ub, "lower_bound_discussion": lbd,
            "upper_bound_discussion": ubd,
            "discussion_capacity": discussion_capacity_if_markov(channel, ubd)}
