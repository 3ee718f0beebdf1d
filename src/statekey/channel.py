"""Finite-alphabet channel objects and exact information-measure algebra.

The variables of the model are U (auxiliary codebook symbol), X (channel
input), S (transmitter-known state), Yr (receiver output) and Ye
(eavesdropper output).  All probability objects are dense numpy tensors,
validated at construction and stored read-only, so every operation here is
a pure function of immutable inputs.

All information quantities are in bits (base-2 logarithms).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

VARIABLES = ("U", "X", "S", "Yr", "Ye")

# Construction-time mass tolerance; identity checks elsewhere use 1e-9.
MASS_TOL = 1e-12


def _frozen_array(values, shape=None) -> np.ndarray:
    arr = np.array(values, dtype=float, copy=True)
    if shape is not None and arr.shape != tuple(shape):
        raise ValueError(f"expected shape {tuple(shape)}, got {arr.shape}")
    arr.setflags(write=False)
    return arr


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
            if int(size) < 1:
                raise ValueError(f"{label} must be a positive integer")
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

    def axis_of(self, label: str) -> int:
        try:
            return self.axis_labels.index(label)
        except ValueError:
            raise ValueError(f"label {label!r} not among axes {self.axis_labels}") from None


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
        if int(self.u_size) < 1:
            raise ValueError("u_size must be a positive integer")
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


def induce_joint(channel: StateChannel, policy: AuxiliaryEncoderPolicy) -> JointPmf:
    """Joint law of (U, X, S, Yr, Ye) under ``policy`` driving ``channel``.

    probs[u, x, s, yr, ye] = p(s) p(u|s) p(x|u,s) p(yr,ye|x,s), which builds the
    Markov chain u -> (x, s) -> (yr, ye) by construction.
    """
    if policy.s_size != channel.s_size or policy.x_size != channel.x_size:
        raise ValueError(
            f"policy alphabets (s={policy.s_size}, x={policy.x_size}) do not match "
            f"channel (s={channel.s_size}, x={channel.x_size})")
    probs = np.einsum("s,su,usx,xsre->uxsre",
                      channel.state_pmf, policy.u_given_s, policy.x_given_us,
                      channel.kernel)
    return JointPmf(("U", "X", "S", "Yr", "Ye"), probs)


def induce_input_joint(channel: StateChannel, policy: InputPolicy) -> JointPmf:
    """Joint law of (X, S, Yr, Ye) under a direct input distribution p(x|s)."""
    if policy.s_size != channel.s_size or policy.x_size != channel.x_size:
        raise ValueError(
            f"policy alphabets (s={policy.s_size}, x={policy.x_size}) do not match "
            f"channel (s={channel.s_size}, x={channel.x_size})")
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
    return float(-(p * np.log2(p)).sum())


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


def mutual_information(joint: JointPmf, group_a: Sequence[str],
                       group_b: Sequence[str]) -> float:
    """I(A;B) in bits by exact summation, clipped to be nonnegative."""
    _check_groups(joint, group_a, group_b)
    a, b = list(group_a), list(group_b)
    value = (entropy_bits(joint, a) + entropy_bits(joint, b)
             - entropy_bits(joint, a + b))
    return max(0.0, value)


def conditional_mutual_information(joint: JointPmf, group_a: Sequence[str],
                                   group_b: Sequence[str],
                                   cond: Sequence[str]) -> float:
    """I(A;B|C) in bits by exact summation, clipped to be nonnegative."""
    _check_groups(joint, group_a, group_b, cond)
    a, b, c = list(group_a), list(group_b), list(cond)
    value = (entropy_bits(joint, a + c) + entropy_bits(joint, b + c)
             - entropy_bits(joint, a + b + c) - entropy_bits(joint, c))
    return max(0.0, value)


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
