"""Probability-object validation and the exact information kernels."""

import math

import numpy as np
import pytest

from statekey import (AuxiliaryEncoderPolicy, InputPolicy, SimConfig,
                      StateChannel, augment_receiver, run_one_round_discussion,
                      upper_bound_discussion)
from statekey.channel import (_NORMAL_MIN, _entropy, _log_ratio,
                              aux_mi_partials, aux_mi_terms, mi_bits,
                              policy_mi_triple)
from conftest import (S, X, YE, YR, bsc_matrix, cmi_ref, entropy_ref,
                      factorized_binary, joint_uxsre, random_aux_policy,
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


class TestOracle:
    # The suite's reference joint and entropy sums, from conftest.
    def test_deterministic_composition_is_diagonal(self):
        channel = two_state_identity_channel()
        u_given_s = np.eye(2)
        x_given_us = np.zeros((2, 2, 2))
        for u in range(2):
            for s in range(2):
                x_given_us[u, s, s] = 1.0
        policy = AuxiliaryEncoderPolicy(2, u_given_s, x_given_us)
        p = joint_uxsre(channel, policy)
        for s in range(2):
            assert p[s, s, s, s, s] == pytest.approx(0.5, abs=1e-15)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.count_nonzero(p) == 2

    def test_mass_preserved_on_random_inputs(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            channel = random_channel(rng, yr_size=3, ye_size=2)
            policy = random_aux_policy(rng, channel)
            assert abs(joint_uxsre(channel, policy).sum() - 1.0) <= 1e-12

    def test_all_uniform_binary_gives_constant_tensor(self):
        kernel = np.full((2, 2, 2, 2), 0.25)
        channel = StateChannel.from_arrays([0.5, 0.5], kernel)
        policy = AuxiliaryEncoderPolicy(2, np.full((2, 2), 0.5),
                                        np.full((2, 2, 2), 0.5))
        assert np.allclose(joint_uxsre(channel, policy), 1.0 / 32.0,
                           atol=1e-15)

    def test_state_marginal_entropy(self):
        # H(S) is the entropy of the state pmf; no axes at all give 0 bits.
        rng = np.random.default_rng(11)
        channel = random_channel(rng, s_size=3)
        p = joint_uxsre(channel, random_aux_policy(rng, channel))
        h_s = -sum(q * math.log2(q) for q in channel.state_pmf)
        assert entropy_ref(p, [S]) == pytest.approx(h_s, abs=1e-12)
        assert entropy_ref(p, []) == pytest.approx(0.0, abs=1e-15)

    def test_symmetric_binary_channel_value(self):
        # Uniform input through BSC(0.1), alone and beside an independent C.
        ab = 0.5 * bsc_matrix(0.1)
        abc = ab[:, :, None] * np.array([0.3, 0.7])
        assert cmi_ref(ab, [0], [1]) == pytest.approx(1 - h2(0.1), abs=1e-12)
        assert cmi_ref(abc, [0], [1], [2]) == pytest.approx(1 - h2(0.1),
                                                            abs=1e-12)


class TestAlphabetCheck:
    def test_shape_mismatch_raises(self):
        channel = two_state_identity_channel()
        policy = AuxiliaryEncoderPolicy(2, [[0.5, 0.5]], [[[1.0, 0.0]],
                                                          [[0.0, 1.0]]])
        with pytest.raises(ValueError):
            policy_mi_triple(channel, policy)

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2)])
    def test_one_round_rejects_other_input_alphabets(self, shape):
        # A binary two-state channel with a 3-input or a 3-state p(x|s).
        policy = InputPolicy(np.full(shape, 1.0 / shape[1]))
        cfg = SimConfig(n=2, epsilon=0.3, rate_margin=0.1, trials=10, seed=0)
        with pytest.raises(ValueError, match="policy alphabets"):
            run_one_round_discussion(factorized_binary(), policy, cfg)


class TestMutualInformation:
    def test_independent_pair_is_zero(self):
        assert mi_bits(np.full((2, 2), 0.25)) == pytest.approx(0.0, abs=1e-12)

    def test_perfectly_correlated_pair_is_one_bit(self):
        assert mi_bits(np.diag([0.5, 0.5])) == pytest.approx(1.0, abs=1e-12)

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
        value = float(mi_bits(joint_mat))
        assert value == pytest.approx(direct, abs=1e-12)
        assert value == pytest.approx(0.53100, abs=5e-6)

    def test_subnormal_cell_gives_a_finite_value(self):
        # p(a) p(b) = 0.5 * 5e-324 underflows to 0 in float64.
        value = mi_bits(np.array([[5e-324, 0.5], [0.0, 0.5]]))
        assert np.isfinite(value) and 0.0 <= value <= 1e-300

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            probs = rng.dirichlet(np.ones(8)).reshape(2, 4)
            assert mi_bits(probs) == pytest.approx(mi_bits(probs.T), abs=1e-12)


def conditional_mi(table):
    """sum_c p(c) I(A;B|C=c) of a (c, a, b) table, by ``mi_bits`` on the
    batch of conditional tables."""
    p_c = table.sum(axis=(1, 2))
    seen = p_c > 0
    return float(p_c[seen] @ mi_bits(table[seen] / p_c[seen, None, None]))


class TestConditionalMutualInformation:
    # A batch of mi_bits rows weighted by p(c) is I(A;B|C), checked against
    # the entropy-sum oracle.
    def test_irrelevant_conditioning(self):
        # C independent of (A, B): I(A;B|C) equals I(A;B).
        rng = np.random.default_rng(7)
        ab = rng.dirichlet(np.ones(4)).reshape(2, 2)
        table = np.array([0.3, 0.7])[:, None, None] * ab
        assert conditional_mi(table) == pytest.approx(float(mi_bits(ab)),
                                                      abs=1e-12)

    def test_conditioning_on_duplicate_of_b_is_zero(self):
        # B duplicated on two axes: I(A; B | B-copy) = 0.
        rng = np.random.default_rng(9)
        ab = rng.dirichlet(np.ones(4)).reshape(2, 2)
        table = np.zeros((2, 2, 2))
        for b in range(2):
            table[b, :, b] = ab[:, b]
        assert conditional_mi(table) == pytest.approx(0.0, abs=1e-12)

    def test_fully_determined_given_c(self):
        # A = B = C uniform binary: I(A;B|C) = 0.
        table = np.zeros((2, 2, 2))
        table[0, 0, 0] = table[1, 1, 1] = 0.5
        assert conditional_mi(table) == pytest.approx(0.0, abs=1e-12)

    def test_matches_the_entropy_oracle_on_random_joints(self):
        rng = np.random.default_rng(13)
        for k in range(20):
            table = rng.dirichlet(np.ones(24)).reshape(4, 2, 3)
            if k % 2:
                table[rng.random(table.shape) < 0.3] = 0.0
                table /= table.sum()
            assert conditional_mi(table) == pytest.approx(
                cmi_ref(table, [1], [2], [0]), abs=1e-12)


class TestDataProcessingAndChainRule:
    def test_data_processing_on_induced_joints(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            channel = random_channel(rng)
            policy = random_aux_policy(rng, channel)
            p_xsr = joint_uxsre(channel, policy).sum(axis=(0, 4))
            i_u = policy_mi_triple(channel, policy)[0]
            i_xs = float(mi_bits(p_xsr.reshape(-1, channel.yr_size)))
            assert i_u <= i_xs + 1e-9

    def test_factorized_kernel_chain_identity(self):
        # When I(Yr;Ye|X,S) = 0, conditioning can be rewritten as
        # I(X,S;Yr|Ye) = I(X,S,Ye;Yr) - I(Ye;Yr).
        rng = np.random.default_rng(19)
        channel = factorized_binary(0.12, 0.3)
        for _ in range(5):
            policy = random_aux_policy(rng, channel)
            p = joint_uxsre(channel, policy)
            assert cmi_ref(p, [YR], [YE], [X, S]) <= 1e-10
            p_xser = p.sum(axis=0).transpose(0, 1, 3, 2)
            rhs = (mi_bits(p_xser.reshape(-1, channel.yr_size))
                   - mi_bits(p_xser.sum(axis=(0, 1))))
            assert cmi_ref(p, [X, S], [YR], [YE]) == pytest.approx(rhs, abs=1e-9)


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
            i_yr, _, i_s = policy_mi_triple(aug, random_aux_policy(rng, channel))
            assert i_yr - i_s >= -1e-9

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
        assert upper_bound_discussion(f_channel).value_bits == \
            upper_bound_discussion(channel).value_bits


def sparse_aux_batch(seed):
    """A channel with zeros in its kernel and a state of probability 0, and
    a batch of policies: full-support ones, deterministic x maps with unused
    u symbols, and u-rows of subnormal mass whose cells take the subnormal
    split of the log-ratio."""
    rng = np.random.default_rng(seed)
    x_size, s_size, yr_size, ye_size, u_size = 2, 3, 2, 3, 4
    kernel = rng.dirichlet(np.ones(yr_size * ye_size), size=(x_size, s_size))
    kernel[rng.random(kernel.shape) < 0.3] = 0.0
    kernel[..., 0] += 0.1
    kernel /= kernel.sum(axis=-1, keepdims=True)
    channel = StateChannel.from_arrays(
        [0.6, 0.0, 0.4], kernel.reshape(x_size, s_size, yr_size, ye_size))
    u_rows, x_rows = [], []
    for i in range(9):
        u_given_s = rng.dirichlet(np.ones(u_size), size=s_size)
        x_given_us = rng.dirichlet(np.ones(x_size), size=(u_size, s_size))
        if i % 3 == 1:
            x_given_us = np.eye(x_size)[rng.integers(0, x_size,
                                                     size=(u_size, s_size))]
            u_given_s[:, -1] = 0.0
        elif i % 3 == 2:
            u_given_s[:, 0] = [5e-324, 1e-310, 3e-320]
        u_rows.append(u_given_s / u_given_s.sum(axis=1, keepdims=True))
        x_rows.append(x_given_us)
    return channel, np.array(u_rows), np.array(x_rows)


def joints_alone(channel, u_rows, x_rows):
    """p(u,yr), p(u,ye) and p(u,s) of each policy, each formed on its own."""
    p_us = np.swapaxes(channel.state_pmf[:, None] * u_rows, 1, 2)
    return (np.einsum("bus,busx,xsr->bur", p_us, x_rows,
                      channel.receiver_kernel()),
            np.einsum("bus,busx,xse->bue", p_us, x_rows,
                      channel.eavesdropper_kernel()),
            p_us)


def reference_partials(channel, x_rows, weights, joints, tied):
    """The partials by the per-joint einsum formulas: d(u,s,x) =
    sum_k K(k|x,s) G(u,k) from ``_log_ratio`` of each joint."""
    ratio_yr, ratio_ye, ratio_us = (
        _log_ratio(joint, joint.sum(axis=2, keepdims=True),
                   joint.sum(axis=1, keepdims=True)) for joint in joints)
    kernel = np.concatenate([channel.receiver_kernel(),
                             channel.eavesdropper_kernel()], axis=2)
    g = np.concatenate([weights[:, :1, None] * ratio_yr,
                        weights[:, 1:2, None] * ratio_ye], axis=2)
    d = np.einsum("xsk,buk->busx", kernel, g)
    grad_u = channel.state_pmf * (np.einsum("busx,busx->bus", x_rows, d)
                                  + weights[:, 2:, None] * ratio_us)
    grad_u = np.swapaxes(grad_u, 1, 2)
    grad_u = np.where(tied[:, None, None], grad_u.sum(axis=1, keepdims=True),
                      grad_u)
    return grad_u, joints[2][:, :, :, None] * d


class TestAuxKernel:
    @pytest.mark.parametrize("k", range(8))
    @pytest.mark.parametrize("shared", [False, True], ids=["s-rows", "one-row"])
    def test_batch_rows_equal_the_rows_alone_bit_for_bit(self, k, shared):
        # The search scores a batch with aux_mi_terms and takes the partials
        # of a few of its rows from those terms; each must have the bits
        # that aux_mi_terms and aux_mi_partials give for the rows alone.
        rng = np.random.default_rng(k)
        channel = random_channel(rng, *rng.integers(1, 4, size=4))
        u_size, batch = int(rng.integers(1, 5)), 12
        policies = [random_aux_policy(rng, channel, u_size) for _ in range(batch)]
        u_rows = np.array([p.u_given_s[:1] if shared else p.u_given_s
                           for p in policies])
        x_rows = np.array([p.x_given_us for p in policies])
        weights = rng.normal(size=(batch, 3))
        args = (channel.state_pmf, channel.stacked_kernel(), channel.yr_size)
        triple, terms = aux_mi_terms(*args, u_rows, x_rows)
        take = np.sort(rng.choice(batch, size=5, replace=False))
        grad_u, grad_x = aux_mi_partials(
            *args[:2], x_rows[take], weights[take], [t[take] for t in terms],
            np.full(len(take), shared))
        alone_triple, alone_terms = aux_mi_terms(*args, u_rows[take],
                                                 x_rows[take])
        for whole, alone in zip(triple, alone_triple):
            assert np.array_equal(whole[take], alone)
        alone_u, alone_x = aux_mi_partials(
            *args[:2], x_rows[take], weights[take], alone_terms,
            np.full(len(take), shared))
        assert np.array_equal(grad_x, alone_x)
        assert grad_u.shape == (len(take), channel.s_size, u_size)
        assert np.array_equal(grad_u, alone_u)
        if shared:
            # A shared row stored once per state gives the same bits.
            wide_triple, wide_terms = aux_mi_terms(
                *args, np.broadcast_to(u_rows, (batch, channel.s_size, u_size)),
                x_rows)
            for a, b in zip(triple + terms, wide_triple + wide_terms):
                assert np.array_equal(a, b)


    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("shared", [False, True], ids=["s-rows", "one-row"])
    def test_fused_kernel_matches_the_per_joint_formulas(self, seed, shared):
        # The fused triple against mi_bits of each joint formed on its own,
        # and the partials against the per-joint einsum formulas, on zero
        # cells (a state of probability 0, deterministic x maps, unused u
        # symbols) and on cells of subnormal mass.
        channel, u_rows, x_rows = sparse_aux_batch(seed)
        if shared:
            u_rows = u_rows[:, :1]
        joints = joints_alone(channel, u_rows, x_rows)
        p_yr = joints[0].sum(axis=1, keepdims=True)
        p_u = joints[0].sum(axis=2, keepdims=True)
        assert (joints[0] == 0).any() and (joints[2] == 0).any()
        assert ((joints[0] > 0) & (p_u * p_yr < _NORMAL_MIN)).any()
        triple, terms = aux_mi_terms(channel.state_pmf, channel.stacked_kernel(),
                                     channel.yr_size, u_rows, x_rows)
        for fused, joint in zip(triple, joints):
            assert np.all(np.isfinite(fused))
            np.testing.assert_allclose(fused, mi_bits(joint), rtol=0,
                                       atol=1e-15)
        weights = np.random.default_rng(seed).normal(size=(len(x_rows), 3))
        tied = np.full(len(x_rows), shared)
        got = aux_mi_partials(channel.state_pmf, channel.stacked_kernel(),
                              x_rows, weights, terms, tied)
        want = reference_partials(channel, x_rows, weights, joints, tied)
        for a, b in zip(got, want):
            assert a.shape == b.shape and np.all(np.isfinite(a))
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-13)


class TestEntropySign:
    def test_point_mass_has_positive_zero_entropy(self):
        for probs in ([1.0, 0.0], [[1.0, 0.0], [0.0, 0.0]]):
            h = _entropy(np.array(probs))
            assert h == 0.0 and math.copysign(1.0, h) == 1.0
