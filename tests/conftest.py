"""Shared channel builders and optimizer configurations for the test suite."""

import numpy as np
import pytest

from statekey import AuxiliaryEncoderPolicy, InputPolicy, StateChannel


def bsc_matrix(p: float) -> np.ndarray:
    return np.array([[1.0 - p, p], [p, 1.0 - p]])


def degraded_binary_wiretap(flip_r: float = 0.1,
                            flip_e_total: float = 0.2) -> StateChannel:
    """No-state wiretap: yr = BSC(flip_r)(x), ye a physically degraded copy.

    The eavesdropper sees ye = BSC(beta)(yr) with beta chosen so the overall
    x -> ye law is BSC(flip_e_total).
    """
    beta = (flip_e_total - flip_r) / (1.0 - 2.0 * flip_r)
    pr = bsc_matrix(flip_r)
    pe_given_r = bsc_matrix(beta)
    kernel = np.zeros((2, 1, 2, 2))
    for x in range(2):
        for yr in range(2):
            kernel[x, 0, yr, :] = pr[x, yr] * pe_given_r[yr]
    return StateChannel.from_arrays([1.0], kernel)


def factorized_binary(flip_r: float = 0.1, flip_e: float = 0.25) -> StateChannel:
    """yr = BSC(flip_r)(x xor s), ye = BSC(flip_e)(x xor s), independent noises."""
    pr_t = bsc_matrix(flip_r)
    pe_t = bsc_matrix(flip_e)
    kernel = np.zeros((2, 2, 2, 2))
    for x in range(2):
        for s in range(2):
            t = x ^ s
            kernel[x, s] = np.outer(pr_t[t], pe_t[t])
    return StateChannel.from_arrays([0.5, 0.5], kernel)


def identical_outputs_channel() -> StateChannel:
    """Yr and Ye with identical per-(x, s) marginals (independent copies)."""
    pr_t = bsc_matrix(0.15)
    kernel = np.zeros((2, 2, 2, 2))
    for x in range(2):
        for s in range(2):
            t = x ^ s
            kernel[x, s] = np.outer(pr_t[t], pr_t[t])
    return StateChannel.from_arrays([0.5, 0.5], kernel)


def constant_channel(correlated: bool = False) -> StateChannel:
    """Outputs independent of (x, s); independent of each other by default."""
    if correlated:
        cell = np.array([[0.5, 0.0], [0.0, 0.5]])
    else:
        cell = np.full((2, 2), 0.25)
    kernel = np.tile(cell, (2, 2, 1, 1)).reshape(2, 2, 2, 2)
    return StateChannel.from_arrays([0.5, 0.5], kernel)


def identity_channel() -> StateChannel:
    """yr = x exactly, ye constant, no state."""
    kernel = np.zeros((2, 1, 2, 1))
    kernel[0, 0, 0, 0] = 1.0
    kernel[1, 0, 1, 0] = 1.0
    return StateChannel.from_arrays([1.0], kernel)


def erasure_eavesdropper_channel(erase: float = 0.5) -> StateChannel:
    """yr = x exactly; ye erases x with the given probability (no state)."""
    kernel = np.zeros((2, 1, 2, 3))
    for x in range(2):
        kernel[x, 0, x, x] = 1.0 - erase
        kernel[x, 0, x, 2] = erase
    return StateChannel.from_arrays([1.0], kernel)


def random_channel(rng: np.random.Generator, x_size=2, s_size=2, yr_size=2,
                   ye_size=2) -> StateChannel:
    state = rng.dirichlet(np.ones(s_size))
    kernel = rng.dirichlet(np.ones(yr_size * ye_size), size=(x_size, s_size))
    return StateChannel.from_arrays(state,
                                    kernel.reshape(x_size, s_size, yr_size, ye_size))


def sparse_channel(rng: np.random.Generator, x_size: int, s_size: int,
                   yr_size: int, ye_size: int) -> StateChannel:
    """A random channel with about half its kernel entries zero."""
    kernel = rng.dirichlet(np.ones(yr_size * ye_size), size=(x_size, s_size))
    kernel *= rng.random(kernel.shape) < 0.5
    for x, s in np.ndindex(x_size, s_size):
        if not kernel[x, s].any():
            kernel[x, s, rng.integers(yr_size * ye_size)] = 1.0
    kernel /= kernel.sum(axis=2, keepdims=True)
    return StateChannel.from_arrays(
        rng.dirichlet(np.ones(s_size)),
        kernel.reshape(x_size, s_size, yr_size, ye_size))


def random_aux_policy(rng: np.random.Generator, channel: StateChannel,
                      u_size: int = 3) -> AuxiliaryEncoderPolicy:
    u_given_s = rng.dirichlet(np.ones(u_size), size=channel.s_size)
    x_given_us = rng.dirichlet(np.ones(channel.x_size),
                               size=(u_size, channel.s_size))
    return AuxiliaryEncoderPolicy(u_size, u_given_s, x_given_us)


def copy_encoder_policy(s_size: int = 1) -> AuxiliaryEncoderPolicy:
    """Binary u uniform (independent of s), deterministic x = u."""
    u_given_s = np.full((s_size, 2), 0.5)
    x_given_us = np.zeros((2, s_size, 2))
    x_given_us[0, :, 0] = 1.0
    x_given_us[1, :, 1] = 1.0
    return AuxiliaryEncoderPolicy(2, u_given_s, x_given_us)


# Axes of ``joint_uxsre``.
U, X, S, YR, YE = range(5)


def joint_uxsre(channel: StateChannel,
                policy: AuxiliaryEncoderPolicy) -> np.ndarray:
    """p(u, x, s, yr, ye) = p(s) p(u|s) p(x|u,s) p(yr, ye|x, s)."""
    return np.einsum("s,su,usx,xsre->uxsre", channel.state_pmf,
                     policy.u_given_s, policy.x_given_us, channel.kernel)


def entropy_ref(p: np.ndarray, axes) -> float:
    """H of the marginal of ``p`` on ``axes``, in bits."""
    q = np.atleast_1d(p.sum(axis=tuple(set(range(p.ndim)) - set(axes))))
    q = q[q > 0]
    return float(-(q * np.log2(q)).sum())


def cmi_ref(p: np.ndarray, a, b, c=()) -> float:
    """I(A;B|C) = H(A,C) + H(B,C) - H(A,B,C) - H(C) of the axis groups of
    ``p``: the suite's oracle, by entropy sums alone."""
    a, b, c = tuple(a), tuple(b), tuple(c)
    return (entropy_ref(p, a + c) + entropy_ref(p, b + c)
            - entropy_ref(p, a + b + c) - entropy_ref(p, c))


def uniform_input_policy(channel: StateChannel) -> InputPolicy:
    return InputPolicy(np.full((channel.s_size, channel.x_size),
                               1.0 / channel.x_size))


@pytest.fixture(scope="session")
def degraded_channel():
    return degraded_binary_wiretap()
