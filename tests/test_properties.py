"""Property tests of the MI triple (I(U;Yr), I(U;Ye), I(U;S)) on one policy.

Hypothesis draws small alphabets and a numpy seed for the channel and the
policy; ``derandomize=True`` makes every run draw the same examples.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from statekey import AuxiliaryEncoderPolicy, StateChannel, entropy_bits, induce_joint
from statekey.channel import policy_mi_triple
from conftest import random_aux_policy, random_channel

PROPERTY = settings(derandomize=True, max_examples=100, deadline=None)

SIZES = st.tuples(*[st.integers(1, 3)] * 5)      # |U|, |X|, |S|, |Yr|, |Ye|


def draw_case(sizes, seed, deterministic):
    """A random channel and policy; ``deterministic`` puts every policy row
    on one symbol, so the joint law has zero cells."""
    u_size, x_size, s_size, yr_size, ye_size = sizes
    rng = np.random.default_rng(seed)
    channel = random_channel(rng, x_size, s_size, yr_size, ye_size)
    policy = random_aux_policy(rng, channel, u_size)
    if deterministic:
        policy = AuxiliaryEncoderPolicy(
            u_size, np.eye(u_size)[policy.u_given_s.argmax(axis=1)],
            np.eye(x_size)[policy.x_given_us.argmax(axis=2)])
    return channel, policy


def case_args(fn):
    return PROPERTY(given(SIZES, st.integers(0, 2**32 - 1), st.booleans())(fn))


def relabel(channel, policy, axis, perm):
    """The same model with the symbols of one variable permuted."""
    kernel, state = channel.kernel, channel.state_pmf
    ugs, xus = policy.u_given_s, policy.x_given_us
    if axis == "U":
        ugs, xus = ugs[:, perm], xus[perm]
    elif axis == "X":
        kernel, xus = kernel[perm], xus[:, :, perm]
    elif axis == "S":
        state, kernel = state[perm], kernel[:, perm]
        ugs, xus = ugs[perm], xus[:, perm]
    elif axis == "Yr":
        kernel = kernel[:, :, perm]
    else:
        kernel = kernel[:, :, :, perm]
    return (StateChannel.from_arrays(state, kernel),
            AuxiliaryEncoderPolicy(policy.u_size, ugs, xus))


@case_args
def test_triple_matches_the_entropy_identity(sizes, seed, deterministic):
    channel, policy = draw_case(sizes, seed, deterministic)
    joint = induce_joint(channel, policy)
    for value, other in zip(policy_mi_triple(channel, policy), ("Yr", "Ye", "S")):
        identity = (entropy_bits(joint, ["U"]) + entropy_bits(joint, [other])
                    - entropy_bits(joint, ["U", other]))
        assert value == pytest.approx(identity, abs=1e-12)


@case_args
def test_triple_is_invariant_under_relabelling(sizes, seed, deterministic):
    channel, policy = draw_case(sizes, seed, deterministic)
    before = policy_mi_triple(channel, policy)
    rng = np.random.default_rng(seed + 1)
    sizes = dict(U=policy.u_size, X=channel.x_size, S=channel.s_size,
                 Yr=channel.yr_size, Ye=channel.ye_size)
    for axis, size in sizes.items():
        after = policy_mi_triple(*relabel(channel, policy, axis,
                                          rng.permutation(size)))
        assert after == pytest.approx(before, abs=1e-12)


@case_args
def test_triple_ignores_unused_and_unreachable_symbols(sizes, seed, deterministic):
    channel, policy = draw_case(sizes, seed, deterministic)
    before = policy_mi_triple(channel, policy)
    # A u symbol that no state selects, whatever input it would send.
    ugs = np.pad(policy.u_given_s, ((0, 0), (0, 1)))
    xus = np.concatenate([policy.x_given_us, policy.x_given_us[:1]])
    wider_u = AuxiliaryEncoderPolicy(policy.u_size + 1, ugs, xus)
    assert policy_mi_triple(channel, wider_u) == pytest.approx(before, abs=1e-12)
    # An output symbol of either receiver that no (x, s) can produce.
    for pad in (((0, 0), (0, 0), (0, 1), (0, 0)), ((0, 0), (0, 0), (0, 0), (0, 1))):
        wider = StateChannel.from_arrays(channel.state_pmf,
                                         np.pad(channel.kernel, pad))
        assert policy_mi_triple(wider, policy) == pytest.approx(before, abs=1e-12)
