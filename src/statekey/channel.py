"""Finite-alphabet channel objects and exact information-measure algebra.

The variables of the model are U (auxiliary codebook symbol), X (channel
input), S (transmitter-known state), Yr (receiver output) and Ye
(eavesdropper output).  All probability objects are dense numpy tensors,
validated at construction and stored as read-only C-ordered copies, so
every operation here is a pure function of immutable inputs.

All information quantities are in bits (base-2 logarithms).  The kernel
``mi_bits`` and the triple (I(U;Yr), I(U;Ye), I(U;S)) of auxiliary policies
(``aux_mi_triple``, and ``policy_mi_triple`` for one) are the package's only
implementations of mutual information; every other MI is computed by them,
except the concave input-policy objectives of ``dmc``, which one kernel
evaluates as entropy differences together with their partials.
``aux_mi_gradient`` takes the partials of the triple from the same joint
tables and log ratios.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

VARIABLES = ("U", "X", "S", "Yr", "Ye")

# Construction-time mass tolerance; identity checks elsewhere use 1e-9.
MASS_TOL = 1e-12
# Smallest normal float64; a product of probabilities below it has lost bits.
_NORMAL_MIN = np.finfo(float).tiny


def _frozen_array(values, shape=None) -> np.ndarray:
    """A read-only C-ordered float64 copy of ``values``: equal values in any
    memory layout are then stored, and summed over, alike."""
    arr = np.array(values, dtype=float, copy=True, order="C")
    if shape is not None and arr.shape != tuple(shape):
        raise ValueError(f"expected shape {tuple(shape)}, got {arr.shape}")
    arr.setflags(write=False)
    return arr


def check_integer(name: str, value, minimum: int) -> None:
    """Reject a size, count or seed that is not an integer >= minimum (or a bool)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) \
            or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def _check_entries(name: str, arr: np.ndarray) -> None:
    # NaN compares False both ways, so finiteness is checked explicitly.
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} has non-finite entries")
    if np.any(arr < 0):
        raise ValueError(f"{name} has negative entries")


def _check_pmf(name: str, vec: np.ndarray) -> None:
    _check_entries(name, vec)
    total = float(vec.sum())
    if abs(total - 1.0) > MASS_TOL:
        raise ValueError(f"{name} sums to {total!r}, expected 1 within {MASS_TOL}")


def _check_rows(name: str, mat: np.ndarray) -> None:
    _check_entries(name, mat)
    sums = mat.sum(axis=-1)
    if np.any(np.abs(sums - 1.0) > MASS_TOL):
        raise ValueError(f"{name} rows must each sum to 1 within {MASS_TOL}")


@dataclass(frozen=True)
class StateChannel:
    """Memoryless broadcast channel p(yr, ye | x, s) driven by an i.i.d. state.

    ``kernel`` is indexed ``[x][s][yr][ye]`` and each ``kernel[x][s]`` slice is
    a joint pmf over the two outputs.  ``state_pmf`` is the per-symbol state law.
    """

    x_size: int
    s_size: int
    yr_size: int
    ye_size: int
    state_pmf: np.ndarray
    kernel: np.ndarray

    def __post_init__(self):
        for label, size in (("x_size", self.x_size), ("s_size", self.s_size),
                            ("yr_size", self.yr_size), ("ye_size", self.ye_size)):
            check_integer(label, size, 1)
        pmf = _frozen_array(self.state_pmf, (self.s_size,))
        kern = _frozen_array(
            self.kernel, (self.x_size, self.s_size, self.yr_size, self.ye_size))
        _check_pmf("state_pmf", pmf)
        _check_rows("kernel[x][s]", kern.reshape(self.x_size, self.s_size, -1))
        object.__setattr__(self, "state_pmf", pmf)
        object.__setattr__(self, "kernel", kern)

    @classmethod
    def from_arrays(cls, state_pmf, kernel) -> "StateChannel":
        kern = np.asarray(kernel, dtype=float)
        if kern.ndim != 4:
            raise ValueError("kernel must be a 4-D tensor indexed [x][s][yr][ye]")
        x, s, yr, ye = kern.shape
        return cls(x, s, yr, ye, state_pmf, kern)

    def receiver_kernel(self) -> np.ndarray:
        """p(yr | x, s), shape (x, s, yr)."""
        return self.kernel.sum(axis=3)

    def eavesdropper_kernel(self) -> np.ndarray:
        """p(ye | x, s), shape (x, s, ye)."""
        return self.kernel.sum(axis=2)

    def stacked_kernel(self) -> np.ndarray:
        """p(yr | x, s) and p(ye | x, s) side by side, shape (x, s, yr + ye)."""
        return np.concatenate([self.receiver_kernel(), self.eavesdropper_kernel()],
                              axis=2)


@dataclass(frozen=True)
class JointPmf:
    """Dense joint pmf over an ordered subset of the model variables."""

    axis_labels: tuple
    probs: np.ndarray

    def __post_init__(self):
        labels = tuple(self.axis_labels)
        if len(set(labels)) != len(labels):
            raise ValueError(f"axis labels must be distinct, got {labels}")
        unknown = [l for l in labels if l not in VARIABLES]
        if unknown:
            raise ValueError(f"unknown axis labels {unknown}; expected members of {VARIABLES}")
        probs = _frozen_array(self.probs)
        if probs.ndim != len(labels):
            raise ValueError(
                f"probs has {probs.ndim} axes but {len(labels)} labels were given")
        _check_pmf("joint pmf", probs)
        object.__setattr__(self, "axis_labels", labels)
        object.__setattr__(self, "probs", probs)


@dataclass(frozen=True)
class AuxiliaryEncoderPolicy:
    """Encoder randomization (p(u|s), p(x|u,s)) for the auxiliary-codebook scheme.

    ``u_given_s`` has shape (s, u) and ``x_given_us`` has shape (u, s, x); every
    conditional row is validated as a pmf.  The induced chain is
    u -> (x, s) -> (yr, ye).
    """

    u_size: int
    u_given_s: np.ndarray
    x_given_us: np.ndarray

    def __post_init__(self):
        check_integer("u_size", self.u_size, 1)
        ugs = _frozen_array(self.u_given_s)
        if ugs.ndim != 2 or ugs.shape[1] != self.u_size:
            raise ValueError(f"u_given_s must have shape (s, {self.u_size})")
        xus = _frozen_array(self.x_given_us)
        if xus.ndim != 3 or xus.shape[0] != self.u_size or xus.shape[1] != ugs.shape[0]:
            raise ValueError("x_given_us must have shape (u, s, x) matching u_given_s")
        _check_rows("u_given_s", ugs)
        _check_rows("x_given_us", xus)
        object.__setattr__(self, "u_given_s", ugs)
        object.__setattr__(self, "x_given_us", xus)

    @property
    def s_size(self) -> int:
        return self.u_given_s.shape[0]

    @property
    def x_size(self) -> int:
        return self.x_given_us.shape[2]


@dataclass(frozen=True)
class InputPolicy:
    """A direct input distribution p(x|s), shape (s, x)."""

    x_given_s: np.ndarray

    def __post_init__(self):
        mat = _frozen_array(self.x_given_s)
        if mat.ndim != 2:
            raise ValueError("x_given_s must be a 2-D (s, x) tensor")
        _check_rows("x_given_s", mat)
        object.__setattr__(self, "x_given_s", mat)

    @property
    def s_size(self) -> int:
        return self.x_given_s.shape[0]

    @property
    def x_size(self) -> int:
        return self.x_given_s.shape[1]


def check_alphabets(channel: StateChannel,
                    policy: AuxiliaryEncoderPolicy | InputPolicy) -> None:
    """Reject a policy whose state or input alphabet differs from the channel's."""
    if policy.s_size != channel.s_size or policy.x_size != channel.x_size:
        raise ValueError(
            f"policy alphabets (s={policy.s_size}, x={policy.x_size}) do not match "
            f"channel (s={channel.s_size}, x={channel.x_size})")


def induce_joint(channel: StateChannel, policy: AuxiliaryEncoderPolicy) -> JointPmf:
    """Joint law of (U, X, S, Yr, Ye) under ``policy`` driving ``channel``.

    probs[u, x, s, yr, ye] = p(s) p(u|s) p(x|u,s) p(yr,ye|x,s), which builds the
    Markov chain u -> (x, s) -> (yr, ye) by construction.
    """
    check_alphabets(channel, policy)
    probs = np.einsum("s,su,usx,xsre->uxsre",
                      channel.state_pmf, policy.u_given_s, policy.x_given_us,
                      channel.kernel)
    return JointPmf(("U", "X", "S", "Yr", "Ye"), probs)


def induce_input_joint(channel: StateChannel, policy: InputPolicy) -> JointPmf:
    """Joint law of (X, S, Yr, Ye) under a direct input distribution p(x|s)."""
    check_alphabets(channel, policy)
    probs = np.einsum("s,sx,xsre->xsre",
                      channel.state_pmf, policy.x_given_s, channel.kernel)
    return JointPmf(("X", "S", "Yr", "Ye"), probs)


def marginalize(joint: JointPmf, keep: Sequence[str]) -> JointPmf:
    """Sum out every axis not in ``keep``; result axes follow the order of ``keep``."""
    keep = list(keep)
    for label in keep:
        if label not in joint.axis_labels:
            raise ValueError(f"label {label!r} not among axes {joint.axis_labels}")
    if len(set(keep)) != len(keep):
        raise ValueError("keep list contains duplicates")
    drop = tuple(i for i, l in enumerate(joint.axis_labels) if l not in keep)
    reduced = joint.probs.sum(axis=drop) if drop else joint.probs
    kept_order = [l for l in joint.axis_labels if l in keep]
    perm = [kept_order.index(l) for l in keep]
    return JointPmf(tuple(keep), np.transpose(reduced, perm) if keep else reduced)


def _entropy(probs: np.ndarray) -> float:
    p = probs[probs > 0]
    # 0.0 - x rather than -x, so a point mass gives 0.0, not -0.0.
    return 0.0 - float((p * np.log2(p)).sum())


def entropy_bits(joint: JointPmf, group: Sequence[str]) -> float:
    """H(group) in bits, with the convention 0 log 0 = 0."""
    return _entropy(marginalize(joint, list(group)).probs)


def _check_groups(joint: JointPmf, *groups: Sequence[str]) -> None:
    seen = set()
    for g in groups:
        gset = set(g)
        if len(gset) != len(list(g)):
            raise ValueError(f"group {list(g)} contains duplicates")
        if gset & seen:
            raise ValueError(f"groups overlap on {sorted(gset & seen)}")
        for label in g:
            if label not in joint.axis_labels:
                raise ValueError(f"label {label!r} not among axes {joint.axis_labels}")
        seen |= gset


def _log_ratio(joint: np.ndarray) -> np.ndarray:
    """log2 p(a,b) / (p(a) p(b)) over the last two axes, 0 where p(a,b) = 0.

    Where p(a) p(b) underflows below the smallest normal float (a cell of
    subnormal mass), its logarithm is taken as log2 p(a) + log2 p(b).
    """
    pa = joint.sum(axis=-1, keepdims=True)
    pb = joint.sum(axis=-2, keepdims=True)
    mask = joint > 0
    product = pa * pb
    split = mask & (product < _NORMAL_MIN)
    terms = np.log2(joint, out=np.zeros(joint.shape), where=mask)
    # In place: besides ``joint`` only ``terms`` and ``product`` are float
    # arrays of its size, which bounds the exact-leakage memory.
    mask &= ~split
    np.subtract(terms, np.log2(product, out=product, where=mask), out=terms,
                where=mask)
    if split.any():
        terms[split] -= (np.log2(np.broadcast_to(pa, joint.shape)[split])
                         + np.log2(np.broadcast_to(pb, joint.shape)[split]))
    return terms


def mi_bits(joint: np.ndarray) -> np.ndarray:
    """I(A;B) in bits from joint pmfs over the last two axes.

    Leading axes index a batch; a 2-D joint gives a scalar.
    """
    terms = _log_ratio(joint)
    terms *= joint
    return np.maximum(0.0, terms.reshape(*terms.shape[:-2], -1).sum(axis=-1))


def _group_table(joint: JointPmf, *groups: Sequence[str]) -> np.ndarray:
    """Marginal over the concatenated groups, with one flat axis per group."""
    probs = marginalize(joint, [l for g in groups for l in g]).probs
    ends = np.cumsum([0] + [len(g) for g in groups])
    return probs.reshape([int(np.prod(probs.shape[i:j]))
                          for i, j in zip(ends, ends[1:])])


def mutual_information(joint: JointPmf, group_a: Sequence[str],
                       group_b: Sequence[str]) -> float:
    """I(A;B) in bits by exact summation, clipped to be nonnegative."""
    _check_groups(joint, group_a, group_b)
    return float(mi_bits(_group_table(joint, group_a, group_b)))


def conditional_mutual_information(joint: JointPmf, group_a: Sequence[str],
                                   group_b: Sequence[str],
                                   cond: Sequence[str]) -> float:
    """I(A;B|C) = sum_c p(c) I(A;B|C=c) in bits, clipped to be nonnegative."""
    _check_groups(joint, group_a, group_b, cond)
    table = _group_table(joint, cond, group_a, group_b)
    p_c = table.sum(axis=(1, 2))
    seen = p_c > 0
    return float(p_c[seen] @ mi_bits(table[seen] / p_c[seen, None, None]))


def _aux_joints(state_pmf, kernel, u_rows, x_rows):
    """p(u,s) (batch, u, s) and p(u,k) (batch, u, yr + ye) of a policy batch."""
    p_us = np.swapaxes(state_pmf[:, None] * u_rows, 1, 2)
    return p_us, np.einsum("bus,busx,xsk->buk", p_us, x_rows, kernel)


def aux_mi_triple(state_pmf: np.ndarray, kernel: np.ndarray, yr_size: int,
                  u_rows: np.ndarray, x_rows: np.ndarray):
    """(I(U;Yr), I(U;Ye), I(U;S)) for a batch of policies, by direct summation.

    ``u_rows`` (batch, 1 or s, u) holds p(u|s), one row for every state when
    it has a single row; ``x_rows`` (batch, u, s, x) holds p(x|u,s).
    ``kernel`` is the channel's ``stacked_kernel()``.
    """
    p_us, p_uk = _aux_joints(state_pmf, kernel, u_rows, x_rows)
    return (mi_bits(p_uk[:, :, :yr_size]), mi_bits(p_uk[:, :, yr_size:]),
            mi_bits(p_us))


def aux_mi_gradient(state_pmf: np.ndarray, kernel: np.ndarray, yr_size: int,
                    u_rows: np.ndarray, x_rows: np.ndarray, weights: np.ndarray):
    """Partials of w_a I(U;Yr) + w_b I(U;Ye) + w_c I(U;S) in u_rows and x_rows.

    Arguments as in ``aux_mi_triple``; ``weights`` (batch, 3) holds
    (w_a, w_b, w_c).  With G(u,k) = w log2 p(u,k) / (p(u) p(k)) for each
    output k of weight w, the partial in p(x|u,s) is
    p(s) p(u|s) sum_k K(k|x,s) G(u,k) and the one in p(u|s) is
    p(s) [sum_x p(x|u,s) sum_k K(k|x,s) G(u,k) + w_c log2 p(u|s) / p(u)],
    summed over s for a shared row.  Each is exact up to a constant per row;
    cells of zero probability add 0.
    """
    p_us, p_uk = _aux_joints(state_pmf, kernel, u_rows, x_rows)
    g = np.concatenate([weights[:, :1, None] * _log_ratio(p_uk[:, :, :yr_size]),
                        weights[:, 1:2, None] * _log_ratio(p_uk[:, :, yr_size:])],
                       axis=2)
    d = np.einsum("xsk,buk->busx", kernel, g)
    grad_u = state_pmf * (np.einsum("busx,busx->bus", x_rows, d)
                          + weights[:, 2:, None] * _log_ratio(p_us))
    grad_u = np.swapaxes(grad_u, 1, 2)
    if u_rows.shape[1] == 1:
        grad_u = grad_u.sum(axis=1, keepdims=True)
    return grad_u, p_us[:, :, :, None] * d


def policy_mi_triple(channel: StateChannel, policy: AuxiliaryEncoderPolicy
                     ) -> tuple[float, float, float]:
    """(I(U;Yr), I(U;Ye), I(U;S)) for one policy driving ``channel``."""
    check_alphabets(channel, policy)
    return tuple(float(v[0]) for v in aux_mi_triple(
        channel.state_pmf, channel.stacked_kernel(), channel.yr_size,
        policy.u_given_s[None], policy.x_given_us[None]))


def augment_receiver(channel: StateChannel, side_info: str = "none") -> StateChannel:
    """Optionally reveal the state to the receiver.

    With ``side_info="full_state"`` the receiver output alphabet becomes
    Yr x S and the kernel routes the true state into the second coordinate
    deterministically (the symmetric side-information case).  The eavesdropper
    output is unchanged.
    """
    if side_info == "none":
        return channel
    if side_info != "full_state":
        raise ValueError(f"unknown side_info mode {side_info!r}")
    x, s, yr, ye = channel.kernel.shape
    new_kernel = np.zeros((x, s, yr * s, ye))
    for si in range(s):
        new_kernel[:, si, si::s, :] = channel.kernel[:, si, :, :]
    return StateChannel(x, s, yr * s, ye, channel.state_pmf, new_kernel)
