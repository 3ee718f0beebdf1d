"""Closed-form secret-key bounds for the additive Gaussian model.

Channel: yr = x + s + zr and ye = x + s + ze, with zr ~ N(0, 1),
ze ~ N(0, 1 + delta), state s ~ N(0, q) i.i.d., and transmit power
E[x^2] <= p.  All three parameters are linear-scale ratios (the CLI layer
converts dB to linear).  Rates are in bits per channel use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

P_MIN_MESSAGE = ("requires p >= 1: the achievable-rate analysis assumes the "
                 "signal power is at least the receiver noise power")


@dataclass(frozen=True)
class GaussianParams:
    """Linear-scale (p, q, delta) = (SNR, INR, eavesdropper degradation)."""

    p: float
    q: float
    delta: float

    def __post_init__(self):
        for name, value in (("p", self.p), ("q", self.q), ("delta", self.delta)):
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")


@dataclass(frozen=True)
class GaussianAuxParams:
    """State scaling alpha and input-state correlation rho for u = x + alpha*s."""

    alpha: float
    rho: float

    def __post_init__(self):
        if not math.isfinite(self.alpha):
            raise ValueError("alpha must be finite")
        if not (0.0 <= self.rho < 1.0):
            raise ValueError(f"rho must lie in [0, 1), got {self.rho!r}")


@dataclass(frozen=True)
class AuxRateResult:
    """Rate of one (alpha, rho) operating point plus its covering feasibility."""

    rate_bits: float
    feasible: bool
    feasibility_slack: float


@dataclass(frozen=True)
class GapReport:
    gap_bits: float
    half_bit_ok: bool


def _require_p_ge_1(gp: GaussianParams) -> None:
    if gp.p < 1.0:
        raise ValueError(P_MIN_MESSAGE)


def rho_star(gp: GaussianParams) -> float:
    """Largest correlation rho satisfying p*(1 - rho^2) >= 1 - 1/(p+q+1).

    Closed form of the covering constraint solved at equality; always < 1 for
    finite p.
    """
    _require_p_ge_1(gp)
    return math.sqrt(max(0.0, 1.0 - (1.0 - 1.0 / (gp.p + gp.q + 1.0)) / gp.p))


def lb_no_discussion(gp: GaussianParams) -> float:
    """The paper's no-discussion key-rate expression, at alpha = 1 and
    rho = rho_star.  ``rho_star`` drops a term of the covering constraint,
    which fails at that point, so this is not an achievable rate of the
    scheme (ROADMAP item 9)."""
    _require_p_ge_1(gp)
    r = rho_star(gp)
    v = gp.p + gp.q + 2.0 * r * math.sqrt(gp.p * gp.q)
    return 0.5 * math.log2(1.0 + gp.delta * v / (v + 1.0 + gp.delta))


def ub_no_discussion(gp: GaussianParams) -> float:
    """Upper bound on the no-discussion key rate (fully correlated x and s)."""
    v = gp.p + gp.q + 2.0 * math.sqrt(gp.p * gp.q)
    return 0.5 * math.log2(1.0 + gp.delta * v / (v + 1.0 + gp.delta))


def capacity_discussion(gp: GaussianParams) -> float:
    """Secret-key capacity when a public discussion channel is available."""
    v = gp.p + gp.q + 2.0 * math.sqrt(gp.p * gp.q)
    return 0.5 * math.log2(1.0 + (1.0 + gp.delta) * v / (v + 1.0 + gp.delta))


def rate_aux_surface(gp: GaussianParams, aux: GaussianAuxParams) -> AuxRateResult:
    """Rate of the general (alpha, rho) operating point for u = x + alpha*s.

    The rate is the two-term expression

        1/2 log2(1 + delta / (1 + p*q*(alpha-1)^2*(1-rho^2) / a))
      + 1/2 log2((p+q+1+2*rho*sqrt(p*q)) / (p+q+1+delta+2*rho*sqrt(p*q)))

    with a = p + alpha^2*q + 2*rho*alpha*sqrt(p*q) the variance of u.  The
    covering feasibility h(u|s) >= h(u|yr) is reported as a slack
    p*(1-rho^2) - var(u|yr); the rate value is returned either way so callers
    can study the surface, with ``feasible`` flagging the constraint.

    At alpha = 1 and rho = rho_star(gp) the value coincides with
    lb_no_discussion(gp).  Note that rho_star solves the relaxed constraint
    (the one with the 2*rho*sqrt(p*q) term dropped from the denominator), so
    the strict slack reported here is negative at that point: at all 507
    points of the grid of ROADMAP item 9, down to -0.106.
    """
    p, q, delta = gp.p, gp.q, gp.delta
    al, rho = aux.alpha, aux.rho
    cross = math.sqrt(p * q)
    a = p + al * al * q + 2.0 * rho * al * cross
    spread = p * q * (al - 1.0) ** 2 * (1.0 - rho * rho)
    penalty = 0.0 if spread == 0.0 else spread / a
    term1 = 0.5 * math.log2(1.0 + delta / (1.0 + penalty))
    vr = p + q + 1.0 + 2.0 * rho * cross
    term2 = 0.5 * math.log2(vr / (vr + delta))
    # var(u | yr) = (spread + a) / vr; feasibility is p*(1-rho^2) >= var(u|yr).
    slack = p * (1.0 - rho * rho) - (spread + a) / vr
    return AuxRateResult(rate_bits=term1 + term2,
                         feasible=slack >= -1e-12,
                         feasibility_slack=slack)


def gap_analysis(gp: GaussianParams) -> GapReport:
    """Gap between the two no-discussion bounds and the half-bit check."""
    _require_p_ge_1(gp)
    gap = ub_no_discussion(gp) - lb_no_discussion(gp)
    return GapReport(gap_bits=gap, half_bit_ok=gap <= 0.5 + 1e-12)
