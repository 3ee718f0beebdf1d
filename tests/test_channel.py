"""Probability-object validation and exact information-measure algebra."""

import math

import numpy as np
import pytest

from statekey import (AuxiliaryEncoderPolicy, InputPolicy, JointPmf,
                      OptimizerConfig, StateChannel, augment_receiver,
                      conditional_mutual_information, entropy_bits,
                      induce_joint, marginalize, mutual_information,
                      upper_bound_discussion)
from statekey.channel import mi_bits, policy_mi_triple
from conftest import (bsc_matrix, factorized_binary, random_aux_policy,
                      random_channel)


def h2(p):
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def two_state_identity_channel():
    """yr = ye = s regardless of x, uniform binary state."""
    kernel = np.zeros((2, 2, 2, 2))
    for x in range(2):
        for s in range(2):
            kernel[x, s, s, s] = 1.0
    return StateChannel.from_arrays([0.5, 0.5], kernel)


class TestConstructionValidation:
    def test_bad_state_mass_rejected(self):
        kernel = np.full((2, 2, 2, 2), 0.25)
        with pytest.raises(ValueError):
            StateChannel.from_arrays([0.6, 0.6], kernel)

    def test_negative_state_rejected(self):
        kernel = np.full((2, 2, 2, 2), 0.25)
        with pytest.raises(ValueError):
            StateChannel.from_arrays([1.2, -0.2], kernel)

    def test_non_stochastic_kernel_rejected(self):
        kernel = np.full((2, 2, 2, 2), 0.3)
        with pytest.raises(ValueError):
            StateChannel.from_arrays([0.5, 0.5], kernel)

    def test_joint_mass_and_negativity_rejected(self):
        with pytest.raises(ValueError):
            JointPmf(("X", "S"), [[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ValueError):
            JointPmf(("X", "S"), [[0.7, 0.5], [0.3, -0.5]])

    def test_duplicate_axis_labels_rejected(self):
        with pytest.raises(ValueError):
            JointPmf(("X", "X"), np.full((2, 2), 0.25))

    def test_unknown_axis_label_rejected(self):
        with pytest.raises(ValueError):
            JointPmf(("X", "Z"), np.full((2, 2), 0.25))

    def test_policy_rows_validated(self):
        with pytest.raises(ValueError):
            AuxiliaryEncoderPolicy(2, [[0.7, 0.7]], np.full((2, 1, 2), 0.5))
        with pytest.raises(ValueError):
            InputPolicy([[0.9, 0.2]])

    def test_non_integer_sizes_rejected(self):
        with pytest.raises(ValueError, match="x_size must be an integer"):
            StateChannel(2.0, 2, 2, 2, [0.5, 0.5], np.full((2, 2, 2, 2), 0.25))
        with pytest.raises(ValueError, match="u_size must be an integer"):
            AuxiliaryEncoderPolicy(2.0, np.full((2, 2), 0.5),
                                   np.full((2, 2, 2), 0.5))

    def test_nan_state_rejected(self):
        # NaN fails both the sign and the mass comparison, so it once passed.
        with pytest.raises(ValueError, match="non-finite"):
            StateChannel.from_arrays([np.nan, 1.0], np.full((2, 2, 2, 2), 0.25))

    def test_nan_kernel_rejected(self):
        kernel = np.full((2, 2, 2, 2), 0.25)
        kernel[1, 0, 0, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            StateChannel.from_arrays([0.5, 0.5], kernel)

    def test_no_silent_normalization(self):
        # Slightly-off mass must be rejected, not rescaled.
        with pytest.raises(ValueError):
            StateChannel.from_arrays([0.5 + 1e-6, 0.5], np.full((2, 2, 2, 2), 0.25))


class TestInduceJoint:
    def test_deterministic_composition_is_diagonal(self):
        channel = two_state_identity_channel()
        u_given_s = np.eye(2)
        x_given_us = np.zeros((2, 2, 2))
        for u in range(2):
            for s in range(2):
                x_given_us[u, s, s] = 1.0
        policy = AuxiliaryEncoderPolicy(2, u_given_s, x_given_us)
        joint = induce_joint(channel, policy)
        for s in range(2):
            assert joint.probs[s, s, s, s, s] == pytest.approx(0.5, abs=1e-15)
        assert joint.probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.count_nonzero(joint.probs) == 2

    def test_mass_preserved_on_random_inputs(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            channel = random_channel(rng, yr_size=3, ye_size=2)
            policy = random_aux_policy(rng, channel)
            joint = induce_joint(channel, policy)
            assert abs(joint.probs.sum() - 1.0) <= 1e-12

    def test_all_uniform_binary_gives_constant_tensor(self):
        kernel = np.full((2, 2, 2, 2), 0.25)
        channel = StateChannel.from_arrays([0.5, 0.5], kernel)
        policy = AuxiliaryEncoderPolicy(2, np.full((2, 2), 0.5),
                                        np.full((2, 2, 2), 0.5))
        joint = induce_joint(channel, policy)
        assert np.allclose(joint.probs, 1.0 / 32.0, atol=1e-15)

    def test_shape_mismatch_raises(self):
        channel = two_state_identity_channel()
        policy = AuxiliaryEncoderPolicy(2, [[0.5, 0.5]], [[[1.0, 0.0]],
                                                          [[0.0, 1.0]]])
        with pytest.raises(ValueError):
            induce_joint(channel, policy)


class TestMarginalize:
    def setup_method(self):
        rng = np.random.default_rng(11)
        self.channel = random_channel(rng)
        self.policy = random_aux_policy(rng, self.channel)
        self.joint = induce_joint(self.channel, self.policy)

    def test_marginal_to_state_recovers_state_pmf(self):
        m = marginalize(self.joint, ["S"])
        assert np.abs(m.probs - self.channel.state_pmf).max() <= 1e-12

    def test_keep_all_is_identity(self):
        m = marginalize(self.joint, list(self.joint.axis_labels))
        assert m.axis_labels == self.joint.axis_labels
        assert np.array_equal(m.probs, self.joint.probs)

    def test_keep_empty_gives_scalar_one(self):
        m = marginalize(self.joint, [])
        assert m.probs.shape == ()
        assert float(m.probs) == pytest.approx(1.0, abs=1e-12)

    def test_unknown_label_raises(self):
        with pytest.raises(ValueError):
            marginalize(self.joint, ["Q"])


class TestMutualInformation:
    def test_independent_pair_is_zero(self):
        joint = JointPmf(("X", "Yr"), np.full((2, 2), 0.25))
        assert mutual_information(joint, ["X"], ["Yr"]) == pytest.approx(0.0, abs=1e-12)

    def test_perfectly_correlated_pair_is_one_bit(self):
        joint = JointPmf(("X", "Yr"), np.diag([0.5, 0.5]))
        assert mutual_information(joint, ["X"], ["Yr"]) == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_binary_channel_value(self):
        # Uniform input through BSC(0.1).  Oracle: direct evaluation of the
        # MI sum, cross-checked against the binary entropy formula.
        flip = 0.1
        joint_mat = 0.5 * bsc_matrix(flip)
        direct = 0.0
        for x in range(2):
            for y in range(2):
                p = joint_mat[x, y]
                direct += p * math.log2(p / (0.5 * joint_mat.sum(axis=0)[y]))
        assert direct == pytest.approx(1 - h2(flip), abs=1e-12)
        joint = JointPmf(("X", "Yr"), joint_mat)
        value = mutual_information(joint, ["X"], ["Yr"])
        assert value == pytest.approx(direct, abs=1e-12)
        assert value == pytest.approx(0.53100, abs=5e-6)

    def test_overlapping_groups_rejected(self):
        joint = JointPmf(("X", "Yr"), np.full((2, 2), 0.25))
        with pytest.raises(ValueError):
            mutual_information(joint, ["X"], ["X"])

    def test_subnormal_cell_gives_a_finite_value(self):
        # p(a) p(b) = 0.5 * 5e-324 underflows to 0 in float64.
        value = mi_bits(np.array([[5e-324, 0.5], [0.0, 0.5]]))
        assert np.isfinite(value) and 0.0 <= value <= 1e-300

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            probs = rng.dirichlet(np.ones(8)).reshape(2, 2, 2)
            joint = JointPmf(("X", "S", "Yr"), probs)
            ab = mutual_information(joint, ["X"], ["S", "Yr"])
            ba = mutual_information(joint, ["S", "Yr"], ["X"])
            assert ab == pytest.approx(ba, abs=1e-12)


class TestConditionalMutualInformation:
    def test_irrelevant_conditioning(self):
        # C independent of (A, B): I(A;B|C) equals I(A;B).
        rng = np.random.default_rng(7)
        ab = rng.dirichlet(np.ones(4)).reshape(2, 2)
        probs = ab[:, :, None] * np.array([0.3, 0.7])[None, None, :]
        joint = JointPmf(("X", "Yr", "S"), probs)
        cmi = conditional_mutual_information(joint, ["X"], ["Yr"], ["S"])
        mi = mutual_information(joint, ["X"], ["Yr"])
        assert cmi == pytest.approx(mi, abs=1e-12)

    def test_conditioning_on_duplicate_of_b_is_zero(self):
        # B duplicated on two axes: I(A; B | B-copy) = 0.
        probs = np.zeros((2, 2, 2))
        rng = np.random.default_rng(9)
        ab = rng.dirichlet(np.ones(4)).reshape(2, 2)
        for a in range(2):
            for b in range(2):
                probs[a, b, b] = ab[a, b]
        joint = JointPmf(("X", "Yr", "Ye"), probs)
        assert conditional_mutual_information(
            joint, ["X"], ["Yr"], ["Ye"]) == pytest.approx(0.0, abs=1e-12)

    def test_fully_determined_given_c(self):
        # A = B = C uniform binary: I(A;B|C) = 0.
        probs = np.zeros((2, 2, 2))
        probs[0, 0, 0] = probs[1, 1, 1] = 0.5
        joint = JointPmf(("U", "X", "S"), probs)
        assert conditional_mutual_information(
            joint, ["U"], ["X"], ["S"]) == pytest.approx(0.0, abs=1e-12)

    def test_chain_identity_on_random_joints(self):
        # I(A;B|C) = I(A;B,C) - I(A;C) within 1e-9.
        rng = np.random.default_rng(13)
        for _ in range(20):
            probs = rng.dirichlet(np.ones(24)).reshape(2, 3, 4)
            joint = JointPmf(("U", "Yr", "Ye"), probs)
            lhs = conditional_mutual_information(joint, ["U"], ["Yr"], ["Ye"])
            rhs = (mutual_information(joint, ["U"], ["Yr", "Ye"])
                   - mutual_information(joint, ["U"], ["Ye"]))
            assert lhs == pytest.approx(rhs, abs=1e-9)


class TestDataProcessingAndChainRule:
    def test_data_processing_on_induced_joints(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            channel = random_channel(rng)
            policy = random_aux_policy(rng, channel)
            joint = induce_joint(channel, policy)
            i_u = mutual_information(joint, ["U"], ["Yr"])
            i_xs = mutual_information(joint, ["X", "S"], ["Yr"])
            assert i_u <= i_xs + 1e-9

    def test_factorized_kernel_chain_identity(self):
        # When I(Yr;Ye|X,S) = 0, conditioning can be rewritten as
        # I(X,S;Yr|Ye) = I(X,S,Ye;Yr) - I(Ye;Yr).
        rng = np.random.default_rng(19)
        channel = factorized_binary(0.12, 0.3)
        for _ in range(5):
            policy = random_aux_policy(rng, channel)
            joint = induce_joint(channel, policy)
            assert conditional_mutual_information(
                joint, ["Yr"], ["Ye"], ["X", "S"]) <= 1e-10
            lhs = conditional_mutual_information(joint, ["X", "S"], ["Yr"], ["Ye"])
            rhs = (mutual_information(joint, ["X", "S", "Ye"], ["Yr"])
                   - mutual_information(joint, ["Ye"], ["Yr"]))
            assert lhs == pytest.approx(rhs, abs=1e-9)


class TestAugmentReceiver:
    def test_mode_none_is_identity(self):
        rng = np.random.default_rng(23)
        channel = random_channel(rng)
        assert augment_receiver(channel, "none") is channel

    def test_full_state_enlarges_receiver_alphabet(self):
        rng = np.random.default_rng(29)
        channel = random_channel(rng)
        aug = augment_receiver(channel, "full_state")
        assert aug.yr_size == channel.yr_size * channel.s_size
        assert aug.ye_size == channel.ye_size
        # Receiver symbols (yr, sr) with sr != s carry no mass.
        for s in range(channel.s_size):
            for sr in range(channel.s_size):
                block = aug.kernel[:, s, sr::channel.s_size, :]
                if sr == s:
                    assert np.allclose(block, channel.kernel[:, s], atol=1e-15)
                else:
                    assert np.allclose(block, 0.0, atol=1e-15)

    def test_full_state_makes_covering_constraint_redundant(self):
        # With the state revealed to the receiver, I(U;Yr,S) >= I(U;S) for
        # every policy, so the covering constraint can never bind.
        rng = np.random.default_rng(31)
        channel = random_channel(rng)
        aug = augment_receiver(channel, "full_state")
        for _ in range(25):
            policy = random_aux_policy(rng, channel)
            joint = induce_joint(aug, policy)
            slack = (mutual_information(joint, ["U"], ["Yr"])
                     - mutual_information(joint, ["U"], ["S"]))
            assert slack >= -1e-9

    def test_unknown_mode_rejected(self):
        rng = np.random.default_rng(37)
        with pytest.raises(ValueError):
            augment_receiver(random_channel(rng), "partial")


class TestMemoryLayout:
    @pytest.mark.parametrize("k", range(8))
    def test_fortran_ordered_inputs_give_identical_bits(self, k):
        # Sums over a Fortran-ordered kernel may run in another order; the
        # stored copies are C-ordered, so equal values give equal bits.
        rng = np.random.default_rng(k)
        channel = random_channel(rng)
        policy = random_aux_policy(rng, channel)
        f_channel = StateChannel.from_arrays(np.asfortranarray(channel.state_pmf),
                                             np.asfortranarray(channel.kernel))
        f_policy = AuxiliaryEncoderPolicy(policy.u_size,
                                          np.asfortranarray(policy.u_given_s),
                                          np.asfortranarray(policy.x_given_us))
        f_input = InputPolicy(np.asfortranarray(np.full((2, 3), 1.0 / 3.0)))
        for arr in (f_channel.state_pmf, f_channel.kernel, f_policy.u_given_s,
                    f_policy.x_given_us, f_input.x_given_s):
            assert arr.flags.c_contiguous
        assert policy_mi_triple(f_channel, f_policy) == \
            policy_mi_triple(channel, policy)
        cfg = OptimizerConfig()
        assert upper_bound_discussion(f_channel, cfg).value_bits == \
            upper_bound_discussion(channel, cfg).value_bits


class TestEntropySign:
    def test_point_mass_has_positive_zero_entropy(self):
        joint = JointPmf(("S", "X"), np.array([[1.0, 0.0], [0.0, 0.0]]))
        for group in (["S"], ["S", "X"]):
            h = entropy_bits(joint, group)
            assert h == 0.0 and math.copysign(1.0, h) == 1.0
