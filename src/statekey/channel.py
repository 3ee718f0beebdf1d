"""Finite-alphabet channel objects and exact information-measure algebra.

The variables of the model are U (auxiliary codebook symbol), X (channel
input), S (transmitter-known state), Yr (receiver output) and Ye
(eavesdropper output).  All probability objects are dense numpy tensors,
validated at construction and stored as read-only C-ordered copies, so
every operation here is a pure function of immutable inputs.

All information quantities are in bits (base-2 logarithms) and are taken
from arrays indexed by integer axes; there are no variable labels.  The
kernel ``mi_bits``, the triple (I(U;Yr), I(U;Ye), I(U;S)) of auxiliary
policies (``aux_mi_terms``) and the plug-in entropy ``_entropy`` are the
package's only implementations of mutual information and entropy; every
other quantity is computed by them, except the concave input-policy
objectives of ``dmc``, which one kernel evaluates as entropy differences
together with their partials.  The batch kernels
``aux_mi_terms`` and ``aux_mi_partials`` are the only entry points to the
triple and its partials: ``aux_mi_partials`` takes the partials from the
terms ``aux_mi_terms`` returns with the triple, and ``policy_mi_triple``
is ``aux_mi_terms`` on a batch of one policy.  ``dmc`` and ``sim`` share
the ``BudgetError`` and the seeded random stream ``_rng_stream`` defined here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


class BudgetError(RuntimeError):
    """A search, enumeration or codebook would exceed its size budget."""


def _rng_stream(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


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
        """p(yr | x, s) and p(ye | x, s) side by side, one row per (s, x) in
        s-major order: shape (s * x, yr + ye), the right factor of the
        auxiliary-policy contraction in ``aux_mi_terms``."""
        stacked = np.concatenate([self.receiver_kernel(),
                                  self.eavesdropper_kernel()], axis=2)
        return stacked.swapaxes(0, 1).reshape(self.s_size * self.x_size, -1)


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


def _entropy(probs: np.ndarray) -> float:
    p = probs[probs > 0]
    # 0.0 - x rather than -x, so a point mass gives 0.0, not -0.0.
    return 0.0 - float((p * np.log2(p)).sum())


def _log_ratio(joint: np.ndarray, pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """log2 p(a,b) / (p(a) p(b)), 0 where p(a,b) = 0, from ``joint`` and the
    marginals ``pa`` and ``pb``, which broadcast against it.

    Where p(a) p(b) underflows below the smallest normal float (a cell of
    subnormal mass), its logarithm is taken as log2 p(a) + log2 p(b).
    """
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
    terms = _log_ratio(joint, joint.sum(axis=-1, keepdims=True),
                       joint.sum(axis=-2, keepdims=True))
    terms *= joint
    return np.maximum(0.0, terms.reshape(*terms.shape[:-2], -1).sum(axis=-1))


def aux_mi_terms(state_pmf: np.ndarray, kernel: np.ndarray, yr_size: int,
                 u_rows: np.ndarray, x_rows: np.ndarray):
    """(I(U;Yr), I(U;Ye), I(U;S)) of a batch of policies, by direct
    summation, and the terms ``aux_mi_partials`` takes: p(u,s) (batch, u, s)
    and the log-ratios log2 p(u,k) / (p(u) p(k)) of p(u,yr), p(u,ye) and
    p(u,s), views of one array.

    ``u_rows`` (batch, 1 or s, u) holds p(u|s), one row for every state when
    it has a single row; ``x_rows`` (batch, u, s, x) holds p(x|u,s).
    ``kernel`` is the channel's ``stacked_kernel()``.  The three joints are
    the blocks of one (batch, u, yr + ye + s) array, p(u,yr) and p(u,ye)
    from one matmul with ``kernel``; their marginals, one ``_log_ratio``
    pass and the three sums are taken over all blocks at once.  Every sum
    over an axis is a matmul whose stacking axis is the batch, so a row's
    bits do not depend on the batch it is in.
    """
    p_us = np.swapaxes(state_pmf[:, None] * u_rows, 1, 2)         # p(u,s)
    batch, u_size, s_size = p_us.shape
    k = kernel.shape[1]
    joint = np.concatenate(                        # p(u,yr) | p(u,ye) | p(u,s)
        [(p_us[..., None] * x_rows).reshape(batch, u_size, -1) @ kernel, p_us],
        axis=2)
    blocks = np.repeat(np.arange(3), (yr_size, k - yr_size, s_size))
    in_block = (blocks[:, None] == np.arange(3)).astype(float)
    ratio = _log_ratio(joint, joint @ (in_block @ in_block.T),  # p(u) per block
                       np.ones((1, u_size)) @ joint)            # p(k)
    triple = (joint * ratio).reshape(batch, 1, -1) @ np.tile(in_block, (u_size, 1))
    return tuple(np.maximum(0.0, triple[:, 0].T)), (
        p_us, ratio[..., :yr_size], ratio[..., yr_size:k], ratio[..., k:])


def aux_mi_partials(state_pmf: np.ndarray, kernel: np.ndarray,
                    x_rows: np.ndarray, weights: np.ndarray, terms, tied):
    """Partials of w_a I(U;Yr) + w_b I(U;Ye) + w_c I(U;S) in p(u|s) and p(x|u,s).

    ``terms`` comes from ``aux_mi_terms`` on the same batch; ``weights``
    (batch, 3) holds (w_a, w_b, w_c).  With G(u,k) = w log2 p(u,k) /
    (p(u) p(k)) for each output k of weight w, the partial in p(x|u,s) is
    p(s) p(u|s) sum_k K(k|x,s) G(u,k) and the one in p(u|s) is
    p(s) [sum_x p(x|u,s) sum_k K(k|x,s) G(u,k) + w_c log2 p(u|s) / p(u)],
    summed over s, in every state's row, where ``tied`` (batch,) marks a
    p(u|s) that all states share.  Each is exact up to a constant per row;
    cells of zero probability add 0.  The sums over k are one stacked
    matmul with the transposed ``kernel``.
    """
    p_us, ratio_yr, ratio_ye, ratio_us = terms
    g = np.concatenate([weights[:, :1, None] * ratio_yr,
                        weights[:, 1:2, None] * ratio_ye], axis=2)
    d = (g @ kernel.T).reshape(x_rows.shape)
    grad_u = state_pmf * (np.einsum("busx,busx->bus", x_rows, d)
                          + weights[:, 2:, None] * ratio_us)
    grad_u = np.swapaxes(grad_u, 1, 2)
    grad_u = np.where(tied[:, None, None], grad_u.sum(axis=1, keepdims=True),
                      grad_u)
    return grad_u, p_us[:, :, :, None] * d


def policy_mi_triple(channel: StateChannel, policy: AuxiliaryEncoderPolicy
                     ) -> tuple[float, float, float]:
    """(I(U;Yr), I(U;Ye), I(U;S)) for one policy driving ``channel``."""
    check_alphabets(channel, policy)
    return tuple(float(v[0]) for v in aux_mi_terms(
        channel.state_pmf, channel.stacked_kernel(), channel.yr_size,
        policy.u_given_s[None], policy.x_given_us[None])[0])


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
