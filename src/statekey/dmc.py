"""Numerical secret-key bounds for finite state-controlled wiretap channels.

Four bound evaluators plus a secret-message comparison bound.  The two lower
bounds search over auxiliary encoder policies (p(u|s), p(x|u,s)) with a
seeded multi-start grid plus projected coordinate ascent; the upper bounds
maximize over direct input policies p(x|s) with a multiplicative-update
ascent (the objective is concave in p(x|s)).  The no-discussion upper bound
also minimizes over output couplings with fixed marginals, where the
objective is convex: it alternates the ascent with a Sinkhorn I-projection
of the coupling until the pair stops improving.

Optima are "best found": the searches are deterministic for a fixed seed but
carry no global-optimality certificate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .channel import (AuxiliaryEncoderPolicy, InputPolicy, StateChannel,
                      induce_joint, mutual_information)

LN2 = math.log(2.0)

# Weight for steering the ascent away from covering-constraint violations;
# feasibility itself is decided by OptimizerConfig.step_tolerance.
_PENALTY_WEIGHT = 8.0

COUPLING_TOL = 1e-10

# Alternating best-response rounds per start of the coupling upper bound.
_COUPLING_ROUNDS = 200
# Sinkhorn scaling: sweeps per coupling step and the marginal tolerance.
_SINKHORN_ITERATIONS = 1000
_SINKHORN_TOL = 1e-13


@dataclass(frozen=True)
class OptimizerConfig:
    """Search-budget knobs shared by the bound evaluators.

    Every evaluator takes one, so all have the same call shape; the coupling
    upper bound has no search budget and reads none of the fields.

    ``domain`` selects the auxiliary-policy search space: ``general_u``
    optimizes p(u|s) jointly with p(x|u,s); ``restricted_u`` ties the
    u-distribution across states (u independent of s).
    """

    u_size_max: int | None = None
    restarts: int = 8
    grid_resolution: int = 4
    local_steps: int = 60
    step_tolerance: float = 1e-9
    seed: int = 0
    domain: str = "general_u"

    def __post_init__(self):
        if self.grid_resolution < 2:
            raise ValueError("grid_resolution must be >= 2")
        if not 0 < self.step_tolerance < math.inf:    # False for NaN too
            raise ValueError("step_tolerance must be positive and finite")
        if self.restarts < 1 or self.local_steps < 1:
            raise ValueError("restarts and local_steps must be positive")
        if self.domain not in ("restricted_u", "general_u"):
            raise ValueError(f"unknown domain {self.domain!r}")

    def resolve_u_size(self, channel: StateChannel) -> int:
        if self.u_size_max is not None:
            if self.u_size_max < 1:
                raise ValueError("u_size_max must be >= 1")
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
        q = np.array(self.q, dtype=float, copy=True)
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

    def as_channel(self) -> StateChannel:
        return StateChannel.from_arrays(self.channel.state_pmf, self.q)


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

def _mi_2d(joint: np.ndarray) -> float:
    """I(A;B) in bits from a 2-D joint pmf."""
    pa = joint.sum(axis=1)
    pb = joint.sum(axis=0)
    mask = joint > 0
    outer = np.outer(pa, pb)[mask]
    vals = joint[mask]
    return max(0.0, float((vals * (np.log2(vals) - np.log2(outer))).sum()))


def _aux_mi_triple(channel: StateChannel, u_given_s: np.ndarray,
                   x_given_us: np.ndarray) -> tuple[float, float, float]:
    """(I(U;Yr), I(U;Ye), I(U;S)) for the policy, by direct summation."""
    p_su = channel.state_pmf[:, None] * u_given_s
    p_us = p_su.T
    pr = channel.receiver_kernel()
    pe = channel.eavesdropper_kernel()
    p_u_yr = np.einsum("us,usx,xsr->ur", p_us, x_given_us, pr)
    p_u_ye = np.einsum("us,usx,xse->ue", p_us, x_given_us, pe)
    return _mi_2d(p_u_yr), _mi_2d(p_u_ye), _mi_2d(p_us)


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of a vector onto the probability simplex."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, len(v) + 1)
    cond = u - css / idx > 0
    rho = idx[cond][-1]
    theta = css[rho - 1] / rho
    return np.maximum(v - theta, 0.0)


def _rng_stream(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


# ---------------------------------------------------------------------------
# auxiliary-policy search (lower bounds)
# ---------------------------------------------------------------------------

class _AuxPoint:
    """Search point: u rows (tied across states when restricted) and x rows."""

    __slots__ = ("u_rows", "x_rows", "restricted", "s_size")

    def __init__(self, u_rows, x_rows, restricted, s_size):
        self.u_rows = u_rows          # (1 or s, u)
        self.x_rows = x_rows          # (u, s, x)
        self.restricted = restricted
        self.s_size = s_size

    def expand(self) -> tuple[np.ndarray, np.ndarray]:
        ugs = np.repeat(self.u_rows, self.s_size, axis=0) if self.restricted \
            else self.u_rows
        return ugs, self.x_rows

    def copy(self) -> "_AuxPoint":
        return _AuxPoint(self.u_rows.copy(), self.x_rows.copy(),
                         self.restricted, self.s_size)

    def rows(self):
        for i in range(self.u_rows.shape[0]):
            yield ("u", i)
        for u in range(self.x_rows.shape[0]):
            for s in range(self.x_rows.shape[1]):
                yield ("x", (u, s))

    def get_row(self, ref):
        kind, idx = ref
        return self.u_rows[idx] if kind == "u" else self.x_rows[idx]

    def set_row(self, ref, row):
        kind, idx = ref
        if kind == "u":
            self.u_rows[idx] = row
        else:
            self.x_rows[idx] = row

    def to_policy(self, u_size: int) -> AuxiliaryEncoderPolicy:
        ugs, xus = self.expand()
        return AuxiliaryEncoderPolicy(u_size, ugs, xus)


def _structured_aux_seeds(channel, u_size, restricted, rng):
    s_size, x_size = channel.s_size, channel.x_size
    u_rows_n = 1 if restricted else s_size
    seeds = []

    def make(u_rows, x_rows):
        seeds.append(_AuxPoint(np.array(u_rows, dtype=float),
                               np.array(x_rows, dtype=float), restricted, s_size))

    const_u = np.zeros((u_rows_n, u_size))
    const_u[:, 0] = 1.0
    uni_x = np.full((u_size, s_size, x_size), 1.0 / x_size)
    make(const_u, uni_x)

    uni_u = np.full((u_rows_n, u_size), 1.0 / u_size)
    make(uni_u, uni_x)

    # Deterministic input maps x = f(u) under a uniform u; for binary inputs
    # this includes the classic "send the codeword symbol" encoders.
    n_maps = x_size ** min(u_size, 8)
    if n_maps <= 64:
        maps = [np.array(m) for m in itertools.product(range(x_size), repeat=u_size)]
    else:
        maps = [rng.integers(0, x_size, size=u_size) for _ in range(16)]
        maps.append(np.arange(u_size) % x_size)
    for m in maps:
        det_x = np.zeros((u_size, s_size, x_size))
        for u in range(u_size):
            det_x[u, :, m[u]] = 1.0
        make(uni_u, det_x)

    # State-shifted deterministic map x = (u + s) mod |X|.
    det_x = np.zeros((u_size, s_size, x_size))
    for u in range(u_size):
        for s in range(s_size):
            det_x[u, s, (u + s) % x_size] = 1.0
    make(uni_u, det_x)

    if not restricted and s_size > 1:
        # u tracks the state: p(u|s) = delta(u = s mod |U|).
        copy_u = np.zeros((s_size, u_size))
        for s in range(s_size):
            copy_u[s, s % u_size] = 1.0
        make(copy_u, uni_x)
        make(copy_u, det_x)
    return seeds


def _random_grid_row(dim, resolution, rng):
    # Uniform lattice point on the simplex: composition of `resolution` units.
    cuts = rng.integers(0, dim, size=resolution)
    row = np.bincount(cuts, minlength=dim).astype(float) / resolution
    return row


def _grid_aux_seeds(channel, u_size, restricted, resolution, count, rng):
    s_size, x_size = channel.s_size, channel.x_size
    u_rows_n = 1 if restricted else s_size
    seeds = []
    for _ in range(count):
        u_rows = np.stack([_random_grid_row(u_size, resolution, rng)
                           for _ in range(u_rows_n)])
        x_rows = np.stack([
            np.stack([_random_grid_row(x_size, resolution, rng)
                      for _ in range(s_size)])
            for _ in range(u_size)])
        seeds.append(_AuxPoint(u_rows, x_rows, restricted, s_size))
    return seeds


def _refine_aux(point, score_fn, cfg):
    """Cyclic row-wise projected coordinate ascent on the search score."""
    best = score_fn(point)
    h = 1e-6
    step = 0.25
    iterations = 0
    for _ in range(cfg.local_steps):
        improved = False
        for ref in point.rows():
            row = point.get_row(ref).copy()
            grad = np.zeros_like(row)
            for i in range(len(row)):
                bumped = row.copy()
                bumped[i] += h
                bumped /= bumped.sum()
                trial = point.copy()
                trial.set_row(ref, bumped)
                grad[i] = (score_fn(trial) - best) / h
            if not np.any(grad):
                continue
            for t in (step, step / 4.0, step / 16.0):
                cand_row = _project_simplex(row + t * grad)
                trial = point.copy()
                trial.set_row(ref, cand_row)
                cand_score = score_fn(trial)
                if cand_score > best + 1e-13:
                    point, best = trial, cand_score
                    improved = True
                    break
        iterations += 1
        if not improved:
            step /= 4.0
            if step < 1e-5:
                break
    return point, best, iterations


def _search_aux_pass(channel, cfg, objective, restricted, state, stream_key):
    """One seeded multi-start pass over a policy parameterization.

    Every evaluation goes through ``score_fn``, which records the best
    feasible point seen in ``state`` (shared across passes); the returned
    search score penalizes infeasibility so refinement can cross back into
    the feasible region.
    """
    u_size = cfg.resolve_u_size(channel)
    rng = _rng_stream(cfg.seed, stream_key)

    def score_fn(point):
        ugs, xus = point.expand()
        value, slack = objective(*_aux_mi_triple(channel, ugs, xus))
        state["evals"] += 1
        feasible = slack is None or slack >= -cfg.step_tolerance
        if feasible and value > state["value"]:
            state["value"] = value
            state["slack"] = slack
            state["point"] = point.copy()
        if slack is None:
            return value
        return value + _PENALTY_WEIGHT * min(0.0, slack)

    seeds = _structured_aux_seeds(channel, u_size, restricted, rng)
    grid_seeds = _grid_aux_seeds(channel, u_size, restricted,
                                 cfg.grid_resolution, 3 * cfg.restarts, rng)
    scored = [(score_fn(s), i, s) for i, s in enumerate(seeds + grid_seeds)]
    state["best_grid"] = max([t[0] for t in scored[len(seeds):]]
                             + [state["best_grid"]])
    scored.sort(key=lambda t: (-t[0], t[1]))
    for _, _, seed_point in scored[:cfg.restarts]:
        _, _, iters = _refine_aux(seed_point.copy(), score_fn, cfg)
        state["iterations"] += iters


def _search_aux(channel, cfg, objective):
    """Shared multi-start driver for objectives over auxiliary policies.

    ``objective(i_uyr, i_uye, i_us) -> (value, slack_or_None)``.  Infeasible
    points (slack below -step_tolerance) never become the incumbent; the
    constant-u policy (value 0) is always a feasible fallback.  The
    ``general_u`` domain also runs the restricted (u independent of s)
    parameterization, a subset of the general one where the covering
    constraint is vacuous, so structurally feasible optima are never missed.
    """
    u_size = cfg.resolve_u_size(channel)
    state = {"value": -np.inf, "slack": None, "point": None, "evals": 0,
             "iterations": 0, "best_grid": -np.inf}

    _search_aux_pass(channel, cfg, objective, True, state, 11)
    if cfg.domain == "general_u" and channel.s_size > 1:
        _search_aux_pass(channel, cfg, objective, False, state, 12)

    # The constant-u policy is feasible with value 0, so a result always exists.
    if state["point"] is None or state["value"] < 0.0:
        rng = _rng_stream(cfg.seed, 13)
        const = _structured_aux_seeds(channel, u_size, True, rng)[0]
        ugs, xus = const.expand()
        value, slack = objective(*_aux_mi_triple(channel, ugs, xus))
        state.update(value=max(0.0, value), slack=slack, point=const)

    policy = state["point"].to_policy(u_size)
    # Recompute the reported numbers through the exact joint-pmf route.
    joint = induce_joint(channel, policy)
    i_uyr = mutual_information(joint, ["U"], ["Yr"])
    i_uye = mutual_information(joint, ["U"], ["Ye"])
    i_us = mutual_information(joint, ["U"], ["S"])
    value, slack = objective(i_uyr, i_uye, i_us)
    diagnostics = {
        "iterations": float(state["iterations"]),
        "restarts": float(cfg.restarts),
        "best_grid_value": float(state["best_grid"]),
        "objective_evaluations": float(state["evals"]),
    }
    return max(0.0, value), policy, slack, diagnostics


def lower_bound_no_discussion(channel: StateChannel,
                              cfg: OptimizerConfig) -> BoundResult:
    """Best found achievable key rate without discussion.

    Maximizes I(U;Yr) - I(U;Ye) over encoder policies subject to the covering
    constraint I(U;Yr) - I(U;S) >= 0; candidates violating the constraint by
    more than ``step_tolerance`` are discarded, so the reported value is
    always achievable.
    """
    def objective(i_uyr, i_uye, i_us):
        return i_uyr - i_uye, i_uyr - i_us

    value, policy, slack, diag = _search_aux(channel, cfg, objective)
    return BoundResult(value_bits=value, argmax_policy=policy,
                       constraint_slack_bits=slack, diagnostics=diag)


def secret_message_lower_bound(channel: StateChannel,
                               cfg: OptimizerConfig) -> BoundResult:
    """Best found secret-message rate I(U;Yr) - max(I(U;S), I(U;Ye)).

    Provided for comparison with the key-rate bound; the key can depend on
    the state sequence while a message cannot, so this bound is never larger
    on the constrained region.
    """
    def objective(i_uyr, i_uye, i_us):
        return i_uyr - max(i_us, i_uye), None

    value, policy, _, diag = _search_aux(channel, cfg, objective)
    return BoundResult(value_bits=value, argmax_policy=policy, diagnostics=diag)


def aux_policy_rate(channel: StateChannel,
                    policy: AuxiliaryEncoderPolicy) -> tuple[float, float]:
    """(I(U;Yr) - I(U;Ye), covering slack) for one concrete policy."""
    joint = induce_joint(channel, policy)
    i_uyr = mutual_information(joint, ["U"], ["Yr"])
    i_uye = mutual_information(joint, ["U"], ["Ye"])
    i_us = mutual_information(joint, ["U"], ["S"])
    return i_uyr - i_uye, i_uyr - i_us


# ---------------------------------------------------------------------------
# input-policy ascent (upper bounds and the discussion lower bound)
# ---------------------------------------------------------------------------

def _cmi_value_grad(p_xs: np.ndarray, state_pmf: np.ndarray,
                    q: np.ndarray) -> tuple[float, np.ndarray]:
    """I(X,S;Yr|Ye) and its per-(x,s) ascent scores under output law ``q``.

    Returns (value_bits, d) where d[s, x] is the divergence score whose
    multiplicative update p(x|s) ~ p(x|s) * 2^d is the classic ascent step.
    """
    mu = state_pmf[None, :, None, None] * p_xs.T[:, :, None, None] * q
    m = mu.sum(axis=(0, 1))                      # (yr, ye)
    me = m.sum(axis=0)                           # (ye,)
    cond = np.divide(m, me[None, :], out=np.zeros_like(m), where=me[None, :] > 0)
    q_e = q.sum(axis=2)                          # (x, s, ye)
    denom = q_e[:, :, None, :] * cond[None, None, :, :]
    ratio = np.log2(np.maximum(q, 1e-300)) - np.log2(np.maximum(denom, 1e-300))
    d = np.einsum("xsre,xsre->xs", q, np.where(q > 0, ratio, 0.0))
    value = float(np.einsum("s,sx,xs->", state_pmf, p_xs, d))
    return max(0.0, value), d.T


def _mult_ascend(value_grad, p0, max_iter=4000, tol=1e-13):
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
    for _ in range(max_iter):
        moved = False
        while eta >= 1e-12:
            logp = np.log(np.maximum(p, 1e-300)) + eta * grad * LN2
            logp -= logp.max(axis=1, keepdims=True)
            cand = np.exp(logp)
            cand /= cand.sum(axis=1, keepdims=True)
            cand_value, cand_grad = value_grad(cand)
            if cand_value > value + tol:
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


def _fd_value_grad(value_fn):
    """Adapt a plain objective to (value, grad) via normalized perturbations."""
    h = 1e-7

    def vg(p):
        v0 = value_fn(p)
        grad = np.zeros_like(p)
        for s in range(p.shape[0]):
            for x in range(p.shape[1]):
                bumped = p.copy()
                bumped[s, x] += h
                bumped[s] /= bumped[s].sum()
                grad[s, x] = (value_fn(bumped) - v0) / h
        return v0, grad

    return vg


def _input_policy_seeds(channel, cfg, rng):
    s_size, x_size = channel.s_size, channel.x_size
    seeds = [np.full((s_size, x_size), 1.0 / x_size)]
    for _ in range(max(1, cfg.restarts - 1)):
        seeds.append(rng.dirichlet(np.ones(x_size), size=s_size))
    return seeds


def _maximize_input(channel, value_grad, cfg, rng):
    best_p, best_v = None, -np.inf
    for seed in _input_policy_seeds(channel, cfg, rng):
        p, v = _mult_ascend(value_grad, seed)
        if v > best_v:
            best_p, best_v = p, v
    return best_p, best_v


def upper_bound_discussion(channel: StateChannel,
                           cfg: OptimizerConfig) -> BoundResult:
    """max over p(x|s) of I(X,S;Yr|Ye) on the channel's own joint kernel.

    No coupling minimization: with a discussion channel available the key
    capacity depends on the joint output law, not only its marginals.  The
    objective is concave in p(x|s), so the ascent is globally convergent.
    """
    rng = _rng_stream(cfg.seed, 23)

    def vg(p):
        return _cmi_value_grad(p, channel.state_pmf, channel.kernel)

    p, v = _maximize_input(channel, vg, cfg, rng)
    return BoundResult(value_bits=v, argmax_policy=InputPolicy(p),
                       diagnostics={"restarts": float(cfg.restarts)})


def lower_bound_discussion(channel: StateChannel,
                           cfg: OptimizerConfig) -> BoundResult:
    """Achievable key rate with one round of public discussion.

    Returns max(max_{p(x|s)} [I(X,S;Yr) - I(Ye;Yr)], no-discussion bound);
    diagnostics record which branch won (``discussion_branch`` is 1.0 when
    the one-round discussion expression attained the max).
    """
    rng = _rng_stream(cfg.seed, 24)

    def value_fn(p):
        mu = np.einsum("s,sx,xsre->xsre", channel.state_pmf, p, channel.kernel)
        xs_yr = mu.sum(axis=3).reshape(-1, channel.yr_size)
        yr_ye = mu.sum(axis=(0, 1))
        return _mi_2d(xs_yr) - _mi_2d(yr_ye)

    p, branch1 = _maximize_input(channel, _fd_value_grad(value_fn), cfg, rng)
    base = lower_bound_no_discussion(channel, cfg)
    if branch1 >= base.value_bits:
        diag = dict(base.diagnostics)
        diag["discussion_branch"] = 1.0
        diag["no_discussion_value"] = base.value_bits
        return BoundResult(value_bits=max(0.0, branch1),
                           argmax_policy=InputPolicy(p), diagnostics=diag)
    diag = dict(base.diagnostics)
    diag["discussion_branch"] = 0.0
    diag["discussion_value"] = branch1
    return BoundResult(value_bits=base.value_bits, argmax_policy=base.argmax_policy,
                       constraint_slack_bits=base.constraint_slack_bits,
                       diagnostics=diag)


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
    in the coupling, while the objective is concave in p(x|s).  The saddle
    point is approached by alternating best responses: a multiplicative-update
    ascent in p(x|s) (warm-started, one ``inner_solves`` each) and a
    Csiszar-Tusnady I-projection step in the coupling (Sinkhorn scaling of all
    (x, s) cells at once).  Two starts run, the diagonal-first coupling and
    the independent product coupling; a start stops when its value reaches 0,
    stops decreasing, or after ``_COUPLING_ROUNDS`` rounds.  Every coupling
    visited is valid, so the lowest value seen is a true upper bound up to
    inner-ascent tolerance.  ``cfg`` is not read: the solver is deterministic
    and has no search budget.
    """
    pr = channel.receiver_kernel()
    pe = channel.eavesdropper_kernel()
    x_size, s_size = channel.x_size, channel.s_size
    ny, ne = channel.yr_size, channel.ye_size
    r = pr.reshape(-1, ny)
    c = pe.reshape(-1, ne)
    q_diag = np.stack([_maximal_cell(a, b) for a, b in zip(r, c)])
    q_prod = r[:, :, None] * c[:, None, :]

    p = np.full((s_size, x_size), 1.0 / x_size)
    best_v, best_q, best_p = np.inf, None, None
    solves = 0
    for cells in (q_diag, q_prod):
        last = np.inf
        for _ in range(_COUPLING_ROUNDS):
            q = cells.reshape(channel.kernel.shape)
            p, v = _mult_ascend(
                lambda p: _cmi_value_grad(p, channel.state_pmf, q), p)
            solves += 1
            if v < best_v:
                best_v, best_q, best_p = v, q, p
            if v <= 0.0 or v > last - 1e-12:
                break
            last = v
            weights = (channel.state_pmf[None, :] * p.T).ravel()
            cells = _project_couplings(cells, weights, r, c)
        if best_v <= 0.0:
            break
    return BoundResult(
        value_bits=best_v, argmax_policy=InputPolicy(best_p),
        diagnostics={"inner_solves": float(solves),
                     "free_dimensions": float((ny - 1) * (ne - 1) * x_size * s_size)},
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


def discussion_capacity_if_markov(channel: StateChannel,
                                  cfg: OptimizerConfig) -> BoundResult | None:
    """Exact discussion capacity when the outputs are conditionally independent.

    If the kernel factorizes as p(yr|x,s) * p(ye|x,s) (within 1e-10), the
    discussion bounds coincide and the returned value is the capacity
    (diagnostics carry ``is_capacity`` = 1.0).  Returns None when the kernel
    does not factorize.
    """
    residual = kernel_factorization_residual(channel)
    if residual > 1e-10:
        return None
    result = upper_bound_discussion(channel, cfg)
    diag = dict(result.diagnostics)
    diag.update(is_capacity=1.0, factorization_residual=residual)
    return replace(result, diagnostics=diag)
