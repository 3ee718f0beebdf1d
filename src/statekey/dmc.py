"""Numerical secret-key bounds for finite state-controlled wiretap channels.

Four bound evaluators plus a secret-message comparison bound;
``evaluate_bounds`` runs them all once.  The no-discussion lower bound and
the secret-message bound search over auxiliary encoder policies (p(u|s),
p(x|u,s)) with a seeded multi-start grid plus projected-gradient ascent on
closed-form partials of the MI triple, scoring policies in batches; their
optima are "best found" and deterministic for a fixed seed.  The upper
bounds and the discussion lower bound maximize concave objectives over
input policies p(x|s), each H(Yr|Ye) minus a term linear in p(s) p(x|s)
under an output law: one kernel, ``_input_value_grad``, evaluates all
three, and each is solved by one multiplicative-update ascent from the
uniform policy.  The no-discussion upper bound also minimizes over output
couplings with fixed marginals, where the objective is convex: it
alternates the ascent with a Sinkhorn I-projection of the coupling until
the pair stops improving.  The upper bounds report the Frank-Wolfe gap of
their inner maximum as certificate_gap_bits; value plus gap is a proven bound.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .channel import (AuxiliaryEncoderPolicy, InputPolicy, StateChannel,
                      aux_mi_gradient, aux_mi_triple, check_integer,
                      policy_mi_triple)
from .sim import BudgetError, _rng_stream

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
# Sinkhorn scaling: sweeps per coupling step and the marginal tolerance.
_SINKHORN_ITERATIONS = 1000
_SINKHORN_TOL = 1e-13

# Largest batch of float64 policies the auxiliary-policy search may build,
# and the most policy entries it may plan to score; a search that would need
# more raises BudgetError before it starts.  A default search on an 8x8x2x2
# channel plans 7.4e7 entries, scores 4e7 and takes 1.7 s on 2 CPUs.
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

    Every evaluator takes one, so all have the same call shape, but only
    ``lower_bound_no_discussion`` and ``secret_message_lower_bound`` read it;
    the concave input-policy maximizations have no search budget.

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
        q = np.clip(q, 0.0, None)
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
    """Euclidean projection of each row of ``v`` onto the probability simplex."""
    u = np.sort(v, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1) - 1.0
    cond = u - css / np.arange(1, v.shape[1] + 1) > 0
    rho = v.shape[1] - np.argmax(cond[:, ::-1], axis=1)    # last True, 1-based
    theta = css[np.arange(len(v)), rho - 1] / rho
    return np.maximum(v - theta[:, None], 0.0)


# ---------------------------------------------------------------------------
# auxiliary-policy search (lower bounds)
# ---------------------------------------------------------------------------

def _check_aux_budget(channel: StateChannel, cfg: OptimizerConfig,
                      u_size: int, passes: int) -> None:
    """Refuse a search whose largest batch or whose planned work is too big.

    A batch holds the seeds of a pass or the step candidates of every
    restart; a policy has |U||S|(|X| + 1) float64 entries.  The planned work
    counts the entries of the seeds and, for the whole iteration cap, of the
    candidates, over all passes.
    """
    entries = u_size * channel.s_size * (channel.x_size + 1)
    seeds = _STRUCTURED_SEEDS_MAX + 3 * cfg.restarts
    candidates = cfg.restarts * len(_STEP_MULTIPLIERS)
    need = 8 * max(seeds, candidates) * entries
    work = passes * (seeds + _ITERATIONS_PER_STEP * cfg.local_steps
                     * candidates) * entries
    if need > _AUX_BATCH_BYTES or work > _AUX_WORK_ENTRIES:
        raise BudgetError(
            f"the auxiliary-policy search needs a {need / 2**20:.0f} MiB batch "
            f"and plans {work:.3g} policy entries at |U|={u_size}, over the "
            f"limits of {_AUX_BATCH_BYTES // 2**20} MiB and "
            f"{_AUX_WORK_ENTRIES:.3g}; lower u_size_max, restarts or local_steps")


def _structured_aux_seeds(channel, u_size, restricted, rng):
    s_size, x_size = channel.s_size, channel.x_size
    u_rows_n = 1 if restricted else s_size
    const_u = np.zeros((u_rows_n, u_size))
    const_u[:, 0] = 1.0
    uni_u = np.full((u_rows_n, u_size), 1.0 / u_size)
    uni_x = np.full((u_size, s_size, x_size), 1.0 / x_size)
    seeds = [(const_u, uni_x), (uni_u, uni_x)]

    # Deterministic input maps x = f(u) under a uniform u; for binary inputs
    # this includes the classic "send the codeword symbol" encoders.
    if x_size ** min(u_size, 8) <= 64:
        maps = [list(m) for m in itertools.product(range(x_size), repeat=u_size)]
    else:
        maps = [rng.integers(0, x_size, size=u_size) for _ in range(16)]
        maps.append(np.arange(u_size) % x_size)
    eye_x = np.eye(x_size)
    seeds += [(uni_u, np.repeat(eye_x[m][:, None], s_size, axis=1)) for m in maps]

    # State-shifted deterministic map x = (u + s) mod |X|.
    det_x = eye_x[(np.arange(u_size)[:, None] + np.arange(s_size)) % x_size]
    seeds.append((uni_u, det_x))
    if not restricted and s_size > 1:
        # u tracks the state: p(u|s) = delta(u = s mod |U|).
        copy_u = np.eye(u_size)[np.arange(s_size) % u_size]
        seeds += [(copy_u, uni_x), (copy_u, det_x)]
    return np.array([u for u, _ in seeds]), np.array([x for _, x in seeds])


def _grid_aux_seeds(channel, u_size, restricted, resolution, count, rng):
    """``count`` policies with rows drawn from the 1/resolution simplex lattice."""
    def row(dim):
        return np.bincount(rng.integers(0, dim, size=resolution), minlength=dim) / resolution

    u_seeds, x_seeds = [], []
    for _ in range(count):
        u_seeds.append([row(u_size) for _ in range(1 if restricted else channel.s_size)])
        x_seeds.append([[row(channel.x_size) for _ in range(channel.s_size)]
                        for _ in range(u_size)])
    return np.array(u_seeds), np.array(x_seeds)


def _refine_aux(u_rows, x_rows, evaluate, gradient, cfg):
    """Projected-gradient ascent on the search score, every restart at once.

    ``u_rows`` (restarts, 1 or s, u) and ``x_rows`` (restarts, u, s, x) are
    refined in place.  Each iteration takes one ``gradient`` batch and one
    ``evaluate`` batch: every live restart's points projected onto the
    simplex after steps of eta * _STEP_MULTIPLIERS, all rows moved together.
    The best candidate is taken when it beats the restart's score by more
    than 1e-13, and eta becomes its step; otherwise eta (0.25 at first) is
    divided by 64.  A restart leaves when eta < 1e-9 or after
    _ITERATIONS_PER_STEP * ``cfg.local_steps`` iterations.  Returns the
    iterations of all restarts.
    """
    n, k = len(u_rows), len(_STEP_MULTIPLIERS)
    current, weights = evaluate(u_rows, x_rows)
    eta = np.full(n, 0.25)
    iterations = np.zeros(n, dtype=int)
    live = np.arange(n)
    for _ in range(_ITERATIONS_PER_STEP * cfg.local_steps):
        steps = eta[live, None] * _STEP_MULTIPLIERS                 # (live, k)
        cand = []
        for rows, grad in zip((u_rows, x_rows), gradient(
                u_rows[live], x_rows[live], weights[live])):
            moved = rows[live, None] + grad[:, None] * steps.reshape(
                steps.shape + (1,) * (rows.ndim - 1))
            cand.append(_project_simplex(moved.reshape(-1, rows.shape[-1]))
                        .reshape((-1,) + rows.shape[1:]))
        score, cand_weights = evaluate(*cand)
        score = score.reshape(-1, k)
        pick = np.argmax(score, axis=1)
        up = np.flatnonzero(score[np.arange(len(live)), pick] > current[live] + 1e-13)
        take, won = up * k + pick[up], live[up]
        u_rows[won], x_rows[won] = cand[0][take], cand[1][take]
        current[won], weights[won] = score[up, pick[up]], cand_weights[take]
        eta[live] /= 64.0
        eta[won] = steps[up, pick[up]]
        iterations[live] += 1
        live = live[eta[live] >= 1e-9]
        if not live.size:
            break
    return int(iterations.sum())


def _search_score(triple, key_rate):
    """(value, feasible, score, weights) of a batch from its MI triple.

    The key rate I(U;Yr) - I(U;Ye) is feasible when the covering slack
    I(U;Yr) - I(U;S) is at least -_STEP_TOLERANCE, and its score adds
    _PENALTY_WEIGHT * min(0, slack), so refinement can cross back into the
    feasible region.  The secret-message rate I(U;Yr) - max(I(U;S), I(U;Ye))
    is its own score.  ``weights`` (batch, 3) holds the partials of the
    score in the triple, as ``aux_mi_gradient`` takes them.
    """
    i_uyr, i_uye, i_us = triple
    if key_rate:
        value, slack = i_uyr - i_uye, i_uyr - i_us
        penalty = _PENALTY_WEIGHT * (slack < 0.0)
        return (value, slack >= -_STEP_TOLERANCE,
                value + _PENALTY_WEIGHT * np.minimum(0.0, slack),
                np.column_stack([1.0 + penalty, np.full_like(value, -1.0), -penalty]))
    value = i_uyr - np.maximum(i_us, i_uye)
    return (value, np.ones(len(value), dtype=bool), value,
            np.column_stack([np.ones_like(value), -1.0 * (i_uye >= i_us),
                             -1.0 * (i_us > i_uye)]))


def _search_aux(channel, cfg, key_rate):
    """(policy, diagnostics) of the best key or secret-message rate found.

    Each pass scores its seeds (``_search_score``) as one batch and refines
    the ``restarts`` best together (``_refine_aux``).  ``general_u`` also
    runs the restricted (u independent of s) pass, where the covering
    constraint is vacuous.  Every evaluated batch may replace the one
    incumbent, only by a strictly higher feasible value, so among equal
    values the first evaluated stays; the constant-u policy (value 0) is the
    fallback.  An over-budget search raises ``BudgetError`` first.
    """
    u_size = cfg.resolve_u_size(channel)
    passes = 2 if cfg.domain == "general_u" and channel.s_size > 1 else 1
    _check_aux_budget(channel, cfg, u_size, passes)
    kernel = channel.stacked_kernel()
    gradient = partial(aux_mi_gradient, channel.state_pmf, kernel, channel.yr_size)

    def evaluate(u_rows, x_rows):
        """Search scores and score weights of a batch; a copy of its first
        feasible point of the highest value replaces a lower incumbent."""
        nonlocal evals, best
        value, feasible, score, weights = _search_score(aux_mi_triple(
            channel.state_pmf, kernel, channel.yr_size, u_rows, x_rows), key_rate)
        evals += len(value)
        masked = np.where(feasible, value, -np.inf)
        i = int(np.argmax(masked))
        if masked[i] > best[0]:
            best = (masked[i], u_rows[i].copy(), x_rows[i].copy())
        return score, weights

    best, evals, iterations, best_grid = (-np.inf, None, None), 0, 0, -np.inf
    for restricted, stream_key in ((True, 11), (False, 12))[:passes]:
        rng = _rng_stream(cfg.seed, stream_key)
        u_seeds, x_seeds = _structured_aux_seeds(channel, u_size, restricted, rng)
        u_grid, x_grid = _grid_aux_seeds(channel, u_size, restricted,
                                         cfg.grid_resolution, 3 * cfg.restarts, rng)
        u_rows = np.concatenate([u_seeds, u_grid])
        x_rows = np.concatenate([x_seeds, x_grid])
        score, _ = evaluate(u_rows, x_rows)
        best_grid = max(best_grid, float(score[len(u_seeds):].max()))
        top = np.argsort(-score, kind="stable")[:cfg.restarts]
        iterations += _refine_aux(u_rows[top], x_rows[top], evaluate, gradient, cfg)

    value, u_given_s, x_given_us = best
    # The constant-u policy is feasible with value 0, so a result always exists.
    if not value >= 0.0:
        u_given_s = np.zeros((channel.s_size, u_size))
        u_given_s[:, 0] = 1.0
        x_given_us = np.full((u_size, channel.s_size, channel.x_size),
                             1.0 / channel.x_size)
    # A restricted-pass point has one u-row, shared by every state.
    u_given_s = np.broadcast_to(u_given_s, (channel.s_size, u_size))
    diagnostics = {
        "iterations": float(iterations),
        "restarts": float(cfg.restarts),
        "best_grid_value": best_grid,
        "objective_evaluations": float(evals),
    }
    return AuxiliaryEncoderPolicy(u_size, u_given_s, x_given_us), diagnostics


def lower_bound_no_discussion(channel: StateChannel,
                              cfg: OptimizerConfig) -> BoundResult:
    """Best found achievable key rate without discussion.

    Maximizes I(U;Yr) - I(U;Ye) over encoder policies subject to the covering
    constraint I(U;Yr) - I(U;S) >= 0; candidates violating the constraint by
    more than ``_STEP_TOLERANCE`` (1e-9 bits) are discarded, so the reported
    value is always achievable.
    """
    policy, diag = _search_aux(channel, cfg, True)
    # The reported numbers are recomputed from the stored policy alone.
    value, slack = aux_policy_rate(channel, policy)
    return BoundResult(value_bits=max(0.0, value), argmax_policy=policy,
                       constraint_slack_bits=slack, diagnostics=diag)


def secret_message_lower_bound(channel: StateChannel,
                               cfg: OptimizerConfig) -> BoundResult:
    """Best found secret-message rate I(U;Yr) - max(I(U;S), I(U;Ye)).

    Provided for comparison with the key-rate bound; the key can depend on
    the state sequence while a message cannot, so this bound is never larger
    on the constrained region.
    """
    policy, diag = _search_aux(channel, cfg, False)
    i_uyr, i_uye, i_us = policy_mi_triple(channel, policy)
    return BoundResult(value_bits=max(0.0, i_uyr - max(i_us, i_uye)),
                       argmax_policy=policy, diagnostics=diag)


def aux_policy_rate(channel: StateChannel,
                    policy: AuxiliaryEncoderPolicy) -> tuple[float, float]:
    """(I(U;Yr) - I(U;Ye), covering slack) for one concrete policy."""
    i_uyr, i_uye, i_us = policy_mi_triple(channel, policy)
    return i_uyr - i_uye, i_uyr - i_us


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


def _certificate_gap(p_xs: np.ndarray, state_pmf: np.ndarray,
                     q: np.ndarray) -> float:
    """Frank-Wolfe gap sum_s p(s) (max_x d - sum_x p(x|s) d) at ``p_xs``.

    d from ``_input_value_grad`` is the partial derivative of I(X,S;Yr|Ye)
    under ``q`` in w(x,s) = p(s) p(x|s); by concavity the value at ``p_xs``
    plus the gap bounds the maximum over p(x|s).
    """
    _, d = _input_value_grad(p_xs, state_pmf, q, _cell_entropy(q, True))
    return max(0.0, float(state_pmf @ (d.max(axis=1) - (p_xs * d).sum(axis=1))))


def _mult_ascend(value_grad, p0):
    """Multiplicative-update ascent on row-stochastic p(x|s), with backtracking.

    The start is mixed with the uniform row so every coordinate keeps support
    (multiplicative updates preserve zeros and would otherwise pin boundary
    starts).  The objective is concave for every use here, so a full-support
    start converges to the global maximum.
    """
    width = p0.shape[1]
    p = (1.0 - 1e-3) * p0 + 1e-3 / width
    p /= p.sum(axis=1, keepdims=True)
    value, grad = value_grad(p)
    eta = 1.0
    stall = 0
    for _ in range(_ASCENT_MAX_ITER):
        moved = False
        while eta >= 1e-12:
            logp = np.log(np.maximum(p, 1e-300)) + eta * grad * LN2
            logp -= logp.max(axis=1, keepdims=True)
            cand = np.exp(logp)
            cand /= cand.sum(axis=1, keepdims=True)
            cand_value, cand_grad = value_grad(cand)
            if cand_value > value + _ASCENT_TOL:
                gain = cand_value - value
                p, value, grad = cand, cand_value, cand_grad
                eta = min(eta * 1.5, 64.0)
                moved = True
                break
            eta *= 0.5
        if not moved:
            break
        stall = stall + 1 if gain < 1e-12 else 0
        if stall >= 5:
            break
    return p, value


def _ascend_input(state_pmf: np.ndarray, q: np.ndarray, given_ye: bool,
                  p0: np.ndarray) -> tuple[np.ndarray, float]:
    """``_mult_ascend`` on ``_input_value_grad`` under output law ``q`` from
    ``p0``, with h_cell = ``_cell_entropy(q, given_ye)`` computed once."""
    return _mult_ascend(partial(_input_value_grad, state_pmf=state_pmf, q=q,
                                h_cell=_cell_entropy(q, given_ye)), p0)


def _uniform_input(channel: StateChannel) -> np.ndarray:
    """The uniform p(x|s), shape (s, x): the start of every input ascent."""
    return np.full((channel.s_size, channel.x_size), 1.0 / channel.x_size)


def upper_bound_discussion(channel: StateChannel,
                           cfg: OptimizerConfig) -> BoundResult:
    """max over p(x|s) of I(X,S;Yr|Ye) on the channel's own joint kernel.

    No coupling minimization: with a discussion channel available the key
    capacity depends on the joint output law, not only its marginals.  The
    objective is concave in p(x|s), so one ascent from the uniform policy
    solves it; ``certificate_gap_bits`` bounds how far short it stopped.
    ``cfg`` is not read.
    """
    p, v = _ascend_input(channel.state_pmf, channel.kernel, True,
                         _uniform_input(channel))
    gap = _certificate_gap(p, channel.state_pmf, channel.kernel)
    return BoundResult(value_bits=max(0.0, v), argmax_policy=InputPolicy(p),
                       diagnostics={"certificate_gap_bits": gap})


def lower_bound_discussion(channel: StateChannel, cfg: OptimizerConfig,
                           no_discussion: BoundResult | None = None
                           ) -> BoundResult:
    """Achievable key rate with one round of public discussion.

    Returns max(max_{p(x|s)} [I(X,S;Yr) - I(Ye;Yr)], no-discussion bound);
    diagnostics record which branch won (``discussion_branch`` is 1.0 when
    the one-round discussion expression attained the max, within 1e-12).
    The first branch is concave in p(x|s) (see ``_input_value_grad``) and is
    solved by one multiplicative ascent from the uniform policy, which reads
    nothing of ``cfg``.  ``no_discussion`` takes the result of
    ``lower_bound_no_discussion`` for the same channel and config when the
    caller already has it; otherwise that search runs here.
    """
    p, branch1 = _ascend_input(channel.state_pmf, channel.kernel, False,
                               _uniform_input(channel))
    base = no_discussion if no_discussion is not None \
        else lower_bound_no_discussion(channel, cfg)
    # On a tie branch 1 wins.  Both values come from different summation
    # routes, so equal rates in exact arithmetic may differ in the last bits.
    diag = dict(base.diagnostics)
    if branch1 >= base.value_bits - 1e-12:
        diag.update(discussion_branch=1.0, no_discussion_value=base.value_bits)
        return BoundResult(value_bits=max(0.0, branch1),
                           argmax_policy=InputPolicy(p), diagnostics=diag)
    diag.update(discussion_branch=0.0, discussion_value=branch1)
    return replace(base, diagnostics=diag)


# ---------------------------------------------------------------------------
# coupling saddle point (no-discussion upper bound)
# ---------------------------------------------------------------------------

def _maximal_cell(r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Diagonal-first coupling; exactly diagonal when the marginals agree."""
    n = min(len(r), len(c))
    q = np.zeros((len(r), len(c)))
    diag = np.minimum(r[:n], c[:n])
    q[np.arange(n), np.arange(n)] = diag
    res_r = r.copy()
    res_r[:n] -= diag
    res_c = c.copy()
    res_c[:n] -= diag
    eps = res_r.sum()
    if eps > 1e-15:
        q += np.outer(res_r, res_c) / eps
    return q


def _project_couplings(cells: np.ndarray, weights: np.ndarray,
                       r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """One Csiszar-Tusnady step: I-project the output mixture onto each cell.

    ``cells`` has shape (x*s, yr, ye) and ``weights`` holds p(s) p(x|s) per
    cell.  Each cell becomes the Sinkhorn scaling of the mixture
    m = sum_k w_k cells_k, restricted to the cell's support, onto the cell's
    marginals (r_k, c_k): the minimizer of sum_k w_k D(cells_k || m).  A cell
    with zero weight, or one whose scaling misses its marginals, is kept.
    """
    m = np.einsum("k,kre->re", weights, cells)
    q = np.where(weights[:, None, None] > 0, np.where(cells > 0, m, 0.0), cells)
    for _ in range(_SINKHORN_ITERATIONS):
        rows = q.sum(axis=2)
        q *= np.divide(r, rows, out=np.zeros_like(r), where=rows > 0)[:, :, None]
        cols = q.sum(axis=1)
        q *= np.divide(c, cols, out=np.zeros_like(c), where=cols > 0)[:, None, :]
        row_err = np.abs(q.sum(axis=2) - r).max(axis=1)
        if row_err.max() <= _SINKHORN_TOL:
            break
    met = (row_err <= _SINKHORN_TOL) & (weights > 0)
    return np.where(met[:, None, None], q, cells)


def upper_bound_no_discussion(channel: StateChannel,
                              cfg: OptimizerConfig) -> BoundResult:
    """min over output couplings of max over p(x|s) of I(X,S;Yr|Ye).

    For a fixed input law the objective is I(X,S;Yr,Ye) - I(X,S;Ye): the
    second term depends only on the fixed marginals and the first is convex
    in the coupling, while the objective is concave in p(x|s).  The
    diagonal-first coupling is solved once, as a candidate that is exact
    (value 0) when the outputs can be coupled to agree.  Unless it is, the
    saddle point is approached from the independent product coupling by
    alternating best responses: a multiplicative-update ascent in p(x|s)
    (warm-started from the candidate's maximizer, one ``inner_solves`` each)
    and a Csiszar-Tusnady I-projection step in the coupling (Sinkhorn scaling
    of all (x, s) cells at once), until the value reaches 0, stops
    decreasing, or after ``_COUPLING_ROUNDS`` rounds.  Every coupling visited
    is valid, so the lowest value seen is a true upper bound up to
    inner-ascent tolerance; its certificate gap is reported.  ``cfg`` is not
    read: the solver is deterministic and has no search budget.
    """
    pr = channel.receiver_kernel()
    pe = channel.eavesdropper_kernel()
    x_size, s_size = channel.x_size, channel.s_size
    ny, ne = channel.yr_size, channel.ye_size
    r = pr.reshape(-1, ny)
    c = pe.reshape(-1, ne)
    best_q = np.stack([_maximal_cell(a, b) for a, b in zip(r, c)]).reshape(
        channel.kernel.shape)
    p, v = _ascend_input(channel.state_pmf, best_q, True, _uniform_input(channel))
    best_v, best_p = max(0.0, v), p
    solves, last = 1, np.inf
    cells = r[:, :, None] * c[:, None, :]
    while best_v > 0.0 and solves <= _COUPLING_ROUNDS:
        q = cells.reshape(channel.kernel.shape)
        p, v = _ascend_input(channel.state_pmf, q, True, p)
        v = max(0.0, v)
        solves += 1
        if v < best_v:
            best_v, best_q, best_p = v, q, p
        if v > last - 1e-12:
            break
        last = v
        weights = (channel.state_pmf[None, :] * p.T).ravel()
        cells = _project_couplings(cells, weights, r, c)
    return BoundResult(
        value_bits=best_v, argmax_policy=InputPolicy(best_p),
        diagnostics={"inner_solves": float(solves),
                     "free_dimensions": float((ny - 1) * (ne - 1) * x_size * s_size),
                     "certificate_gap_bits": _certificate_gap(
                         best_p, channel.state_pmf, best_q)},
        coupling=CouplingFamily(channel, best_q))


# ---------------------------------------------------------------------------
# factorization test (discussion capacity)
# ---------------------------------------------------------------------------

def kernel_factorization_residual(channel: StateChannel) -> float:
    """Largest deviation of the kernel from p(yr|x,s) * p(ye|x,s)."""
    pr = channel.receiver_kernel()
    pe = channel.eavesdropper_kernel()
    product = np.einsum("xsr,xse->xsre", pr, pe)
    return float(np.abs(channel.kernel - product).max())


def discussion_capacity_if_markov(channel: StateChannel, cfg: OptimizerConfig,
                                  upper: BoundResult | None = None
                                  ) -> BoundResult | None:
    """Exact discussion capacity when the outputs are conditionally independent.

    If the kernel factorizes as p(yr|x,s) * p(ye|x,s) (within 1e-10), the
    discussion bounds coincide and the returned value is the capacity
    (diagnostics carry ``is_capacity`` = 1.0).  Returns None when the kernel
    does not factorize.  ``upper`` takes the result of
    ``upper_bound_discussion`` for the same channel and config when the
    caller already has it; otherwise that bound is computed here.
    """
    residual = kernel_factorization_residual(channel)
    if residual > 1e-10:
        return None
    result = upper if upper is not None else upper_bound_discussion(channel, cfg)
    diag = dict(result.diagnostics)
    diag.update(is_capacity=1.0, factorization_residual=residual)
    return replace(result, diagnostics=diag)


def evaluate_bounds(channel: StateChannel, cfg: OptimizerConfig) -> dict:
    """Every bound of ``channel``, each computed once, under the keys of the
    ``bounds-dmc --out`` report in print order; ``discussion_capacity`` is
    None when the kernel does not factorize."""
    lb = lower_bound_no_discussion(channel, cfg)
    msg = secret_message_lower_bound(channel, cfg)
    ub = upper_bound_no_discussion(channel, cfg)
    lbd = lower_bound_discussion(channel, cfg, no_discussion=lb)
    ubd = upper_bound_discussion(channel, cfg)
    return {"lower_bound_no_discussion": lb, "secret_message_lower_bound": msg,
            "upper_bound_no_discussion": ub, "lower_bound_discussion": lbd,
            "upper_bound_discussion": ubd,
            "discussion_capacity": discussion_capacity_if_markov(channel, cfg,
                                                                 upper=ubd)}
