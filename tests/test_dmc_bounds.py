"""Bound evaluators against analytic oracles, orderings, and determinism."""

import itertools
import math

import numpy as np
import pytest

from statekey import (AuxiliaryEncoderPolicy, BudgetError, CouplingFamily,
                      OptimizerConfig, StateChannel, augment_receiver,
                      aux_policy_rate, dmc,
                      discussion_capacity_if_markov, induce_joint,
                      lower_bound_discussion, lower_bound_no_discussion,
                      mutual_information, secret_message_lower_bound,
                      upper_bound_discussion, upper_bound_no_discussion)
from statekey.dmc import (_cell_entropy, _certificate_gap, _input_value_grad,
                          _mult_ascend)
from conftest import (bsc_matrix, constant_channel, degraded_binary_wiretap,
                      factorized_binary, identical_outputs_channel,
                      random_channel)


def h2(p):
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


DEGRADED_ORACLE = h2(0.2) - h2(0.1)    # 0.2529325...

CFG = OptimizerConfig(seed=0)
CFG_SMALL = OptimizerConfig(restarts=4, local_steps=30, grid_resolution=3, seed=0)


def constant_u_policy(channel):
    u_given_s = np.zeros((channel.s_size, 2))
    u_given_s[:, 0] = 1.0
    return AuxiliaryEncoderPolicy(
        2, u_given_s, np.full((2, channel.s_size, channel.x_size),
                              1.0 / channel.x_size))


class TestLowerBoundNoDiscussion:
    def test_degraded_binary_matches_oracle(self, degraded_channel):
        res = lower_bound_no_discussion(degraded_channel, CFG)
        assert res.value_bits == pytest.approx(DEGRADED_ORACLE, abs=1e-3)
        assert res.constraint_slack_bits >= -1e-9

    def test_identical_output_marginals_give_zero(self):
        res = lower_bound_no_discussion(identical_outputs_channel(), CFG_SMALL)
        assert res.value_bits <= 1e-6

    def test_constant_channel_gives_zero(self):
        res = lower_bound_no_discussion(constant_channel(), CFG_SMALL)
        assert res.value_bits == pytest.approx(0.0, abs=1e-9)

    def test_argmax_policy_is_feasible_and_consistent(self, degraded_channel):
        res = lower_bound_no_discussion(degraded_channel, CFG)
        joint = induce_joint(degraded_channel, res.argmax_policy)
        value = (mutual_information(joint, ["U"], ["Yr"])
                 - mutual_information(joint, ["U"], ["Ye"]))
        slack = (mutual_information(joint, ["U"], ["Yr"])
                 - mutual_information(joint, ["U"], ["S"]))
        assert value == pytest.approx(res.value_bits, abs=1e-12)
        assert slack >= -1e-9

    def test_restricted_domain_matches_on_stateless_channel(self, degraded_channel):
        # With |S| = 1 the two search domains coincide.
        res = lower_bound_no_discussion(
            degraded_channel,
            OptimizerConfig(seed=0, domain="restricted_u"))
        assert res.value_bits == pytest.approx(DEGRADED_ORACLE, abs=1e-3)

    def test_general_domain_dominates_restricted(self):
        # The state-independent parameterization is a subset of the general
        # one, and the general search runs it as an inner pass.
        rng = np.random.default_rng(61)
        for trial in range(5):
            channel = random_channel(rng)
            restricted = lower_bound_no_discussion(
                channel, OptimizerConfig(restarts=4, local_steps=25, seed=1,
                                         domain="restricted_u"))
            general = lower_bound_no_discussion(
                channel, OptimizerConfig(restarts=4, local_steps=25, seed=1,
                                         domain="general_u"))
            assert restricted.value_bits <= general.value_bits + 1e-9

    def test_determinism(self, degraded_channel):
        a = lower_bound_no_discussion(degraded_channel, CFG)
        b = lower_bound_no_discussion(degraded_channel, CFG)
        assert a.value_bits == b.value_bits
        assert a.constraint_slack_bits == b.constraint_slack_bits
        assert np.array_equal(a.argmax_policy.u_given_s, b.argmax_policy.u_given_s)
        assert np.array_equal(a.argmax_policy.x_given_us, b.argmax_policy.x_given_us)


TRAJECTORY_CASES = [
    # channel, config, bound, objective_evaluations, iterations, value, and
    # the value the finite-difference coordinate ascent found before it
    pytest.param(degraded_binary_wiretap, CFG_SMALL, lower_bound_no_discussion,
                 115, 20, 0.25293250129808137, 0.25293250129808076,
                 id="degraded-small-key"),
    pytest.param(factorized_binary, CFG_SMALL, secret_message_lower_bound,
                 444, 69, 0.34228253086985194, 0.3422825308698516,
                 id="factorized-small-message"),
    pytest.param(lambda: random_channel(np.random.default_rng(5)), CFG_SMALL,
                 lower_bound_no_discussion, 592, 106, 0.058194367445875694,
                 0.05527836963712218, id="random2222-small-key"),
    pytest.param(lambda: random_channel(np.random.default_rng(7), 2, 3, 2, 2),
                 OptimizerConfig(restarts=4, local_steps=30, grid_resolution=3,
                                 seed=1, u_size_max=3, domain="restricted_u"),
                 lower_bound_no_discussion, 383, 89, 0.13859446328690495,
                 0.1385943306553057, id="random2322-u3-restricted-key"),
    pytest.param(lambda: random_channel(np.random.default_rng(9), 2, 2, 3, 2),
                 OptimizerConfig(restarts=4, local_steps=30, grid_resolution=3,
                                 seed=2, u_size_max=3),
                 secret_message_lower_bound, 908, 213, 0.024995669770409512,
                 0.02498335515375727, id="random2232-u3-message"),
    # |X|^|U| = 81 > 64 input maps: the seeds draw 16 random maps instead.
    pytest.param(lambda: random_channel(np.random.default_rng(11), 3, 2, 2, 2),
                 OptimizerConfig(restarts=3, local_steps=20, grid_resolution=3,
                                 seed=3, u_size_max=4),
                 lower_bound_no_discussion, 362, 74, 0.02268381362035916,
                 0.005751747940363039, id="random3222-u4-key"),
]


class TestSearchTrajectory:
    @pytest.mark.parametrize(
        "make_channel, cfg, bound, evals, iterations, value, fd_value",
        TRAJECTORY_CASES)
    def test_gradient_search_is_pinned_and_never_below_coordinate_ascent(
            self, make_channel, cfg, bound, evals, iterations, value, fd_value):
        # The counts pin the projected-gradient search's trajectory.  The
        # finite-difference coordinate ascent it replaced needed 899-9,840
        # evaluations on these cases and found no higher value.
        res = bound(make_channel(), cfg)
        assert res.diagnostics["objective_evaluations"] == evals
        assert res.diagnostics["iterations"] == iterations
        assert res.value_bits == pytest.approx(value, abs=1e-9)
        assert res.value_bits >= fd_value - 1e-12


class TestSearchIncumbent:
    @pytest.mark.parametrize("make_channel", [
        factorized_binary, lambda: random_channel(np.random.default_rng(4))],
        ids=["factorized", "random2222"])
    @pytest.mark.parametrize("domain", ["general_u", "restricted_u"])
    @pytest.mark.parametrize("bound, key_rate", [
        (lower_bound_no_discussion, True), (secret_message_lower_bound, False)],
        ids=["key", "message"])
    def test_result_is_first_evaluated_point_of_highest_value(
            self, make_channel, domain, bound, key_rate, monkeypatch):
        triple = dmc.aux_mi_triple
        batches = []

        def spy(state_pmf, kernel, yr_size, u_rows, x_rows):
            out = triple(state_pmf, kernel, yr_size, u_rows, x_rows)
            # Copies: the refinement moves its restarts' rows in place.
            batches.append((u_rows.copy(), x_rows.copy(), out))
            return out

        monkeypatch.setattr(dmc, "aux_mi_triple", spy)
        cfg = OptimizerConfig(restarts=3, local_steps=10, grid_resolution=3,
                              u_size_max=3, domain=domain)
        policy = bound(make_channel(), cfg).argmax_policy
        best = -np.inf
        for u_rows, x_rows, out in batches:
            value, feasible, _, _ = dmc._search_score(out, key_rate)
            for i in np.flatnonzero(feasible):
                if value[i] > best:
                    best, u_row, x_row = value[i], u_rows[i], x_rows[i]
        assert best >= 0.0
        assert np.array_equal(policy.u_given_s,
                              np.broadcast_to(u_row, policy.u_given_s.shape))
        assert np.array_equal(policy.x_given_us, x_row)


class TestSearchBudget:
    def test_default_alphabet_on_large_channel_is_refused(self):
        # |X| = |S| = 16 gives |U| = 258: one u-row probe batch would hold
        # 8 * 258 policies of 258 * 16 * 17 entries, about 1.1 GB.
        channel = random_channel(np.random.default_rng(0), 16, 16, 2, 2)
        for bound in (lower_bound_no_discussion, secret_message_lower_bound):
            with pytest.raises(BudgetError, match="u_size_max"):
                bound(channel, OptimizerConfig())

    def test_default_search_on_eight_by_eight_channel_finishes(self):
        # The finite-difference coordinate ascent took minutes here; the
        # planned work of the gradient search is within the budget.
        channel = random_channel(np.random.default_rng(0), 8, 8, 2, 2)
        res = lower_bound_no_discussion(channel, OptimizerConfig())
        assert res.value_bits >= 0.0
        assert res.constraint_slack_bits >= -1e-9

    def test_capped_alphabet_fits(self):
        channel = random_channel(np.random.default_rng(0), 16, 16, 2, 2)
        cfg = OptimizerConfig(u_size_max=2, restarts=1, local_steps=1,
                              grid_resolution=2, domain="restricted_u")
        res = lower_bound_no_discussion(channel, cfg)
        assert res.value_bits >= 0.0


class TestSecretMessageLowerBound:
    def test_stateless_channel_coincides_with_key_bound(self, degraded_channel):
        msg = secret_message_lower_bound(degraded_channel, CFG)
        key = lower_bound_no_discussion(degraded_channel, CFG)
        assert msg.value_bits == pytest.approx(key.value_bits, abs=1e-6)

    def test_never_beats_key_bound_when_constraint_holds(self):
        rng = np.random.default_rng(101)
        for trial in range(20):
            channel = random_channel(rng)
            cfg = OptimizerConfig(restarts=4, local_steps=30, seed=trial)
            msg = secret_message_lower_bound(channel, cfg)
            key = lower_bound_no_discussion(channel, cfg)
            _, slack = aux_policy_rate(channel, msg.argmax_policy)
            if slack >= -1e-9:
                assert msg.value_bits <= key.value_bits + 1e-6

    def test_constant_channel_gives_zero(self):
        res = secret_message_lower_bound(constant_channel(), CFG_SMALL)
        assert res.value_bits == pytest.approx(0.0, abs=1e-9)


class TestUpperBoundNoDiscussion:
    def test_identical_marginals_reach_zero_via_diagonal_coupling(self):
        res = upper_bound_no_discussion(identical_outputs_channel(), CFG_SMALL)
        assert res.value_bits <= 1e-9

    def test_constant_eavesdropper_equals_forward_mi_max(self):
        # One-letter Ye alphabet: conditioning drops out and the bound is
        # max over p(x|s) of I(X,S;Yr).
        pr_t = bsc_matrix(0.1)
        kernel = np.zeros((2, 2, 2, 1))
        for x in range(2):
            for s in range(2):
                kernel[x, s, :, 0] = pr_t[x ^ s]
        channel = StateChannel.from_arrays([0.5, 0.5], kernel)
        res = upper_bound_no_discussion(channel, CFG_SMALL)
        assert res.value_bits == pytest.approx(1 - h2(0.1), abs=1e-6)

    def test_degraded_binary_band(self, degraded_channel):
        lb = lower_bound_no_discussion(degraded_channel, CFG)
        ub = upper_bound_no_discussion(degraded_channel, CFG)
        assert ub.value_bits >= lb.value_bits - 1e-9
        assert 0.25 <= lb.value_bits <= 0.26
        assert 0.25 <= ub.value_bits <= 0.26

    def test_minimizing_coupling_reproduces_marginals(self, degraded_channel):
        res = upper_bound_no_discussion(degraded_channel, CFG)
        q = res.coupling.q
        dr = np.abs(q.sum(axis=3) - degraded_channel.receiver_kernel()).max()
        de = np.abs(q.sum(axis=2) - degraded_channel.eavesdropper_kernel()).max()
        assert max(dr, de) <= 1e-10

    def test_determinism(self, degraded_channel):
        a = upper_bound_no_discussion(degraded_channel, CFG_SMALL)
        b = upper_bound_no_discussion(degraded_channel, CFG_SMALL)
        assert a.value_bits == b.value_bits
        assert np.array_equal(a.coupling.q, b.coupling.q)

    @pytest.mark.parametrize("k", range(6))
    def test_projections_keep_the_product_support(self, k, monkeypatch):
        # A Csiszar-Tusnady step from a coupling with zeros where the product
        # r (x) c has mass is the slow Sinkhorn case; only the alternation
        # from the product coupling projects.
        channel = random_channel(np.random.default_rng(k), 2, 3, 3, 2)
        project = dmc._project_couplings
        supports = []

        def spy(cells, weights, r, c):
            supports.append(np.array_equal(cells > 0,
                                           r[:, :, None] * c[:, None, :] > 0))
            return project(cells, weights, r, c)

        monkeypatch.setattr(dmc, "_project_couplings", spy)
        upper_bound_no_discussion(channel, CFG_SMALL)
        assert supports and all(supports)

    @pytest.mark.parametrize("channel, value", [
        (factorized_binary(), 0.3422825308701658),
        (random_channel(np.random.default_rng(3), 2, 2, 3, 2),
         0.18095151684706043),
    ])
    def test_benchmark_channel_values(self, channel, value):
        res = upper_bound_no_discussion(channel, CFG_SMALL)
        assert res.value_bits == pytest.approx(value, abs=1e-12)

    def test_nan_coupling_rejected(self, degraded_channel):
        q = np.array(degraded_channel.kernel)
        q[0, 0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            CouplingFamily(degraded_channel, q)

    @pytest.mark.parametrize("k", [1, 2])
    def test_returned_coupling_is_first_order_optimal(self, k):
        # f(q, p) = I(X,S;Yr|Ye) is convex in q.  Moving one (x, s) cell along
        # d = +-[[1, -1], [-1, 1]] keeps its marginals, and the slope of
        # f(., p) along it is w(x, s) * sum(log2(q / m) * d), with
        # w = p(s) p(x|s) and m the output mixture.  At a minimizing coupling
        # no feasible direction descends.
        channel = random_channel(np.random.default_rng(k), 2, 3, 2, 2)
        q = upper_bound_no_discussion(channel, CFG).coupling.q
        p, _ = _mult_ascend(
            lambda p: _input_value_grad(p, channel.state_pmf, q,
                                        _cell_entropy(q, True)),
            np.full((channel.s_size, channel.x_size), 1.0 / channel.x_size))
        w = channel.state_pmf[None, :] * p.T
        m = np.einsum("xs,xsre->re", w, q)
        d = np.array([[1.0, -1.0], [-1.0, 1.0]])
        for x, s in np.ndindex(w.shape):
            for direction in (d, -d):
                if np.any(q[x, s][direction < 0] <= 0.0):
                    continue
                with np.errstate(divide="ignore"):
                    log_ratio = np.log2(q[x, s] / m)
                slope = w[x, s] * float((log_ratio * direction).sum())
                assert slope >= -1e-5, (x, s, slope)


class TestCertificateGap:
    @pytest.mark.parametrize("k", range(4))
    def test_value_plus_gap_bounds_every_vertex(self, k):
        # The objective is concave in p(x|s), so value + gap is at least the
        # maximum over p(x|s), in particular at every deterministic policy.
        channel = random_channel(np.random.default_rng(k), 2, 3, 2, 2)
        for bound in (upper_bound_discussion, upper_bound_no_discussion):
            res = bound(channel, CFG)
            q = channel.kernel if res.coupling is None else res.coupling.q
            gap = res.diagnostics["certificate_gap_bits"]
            assert gap >= 0.0
            for xs in itertools.product(range(channel.x_size),
                                        repeat=channel.s_size):
                vertex = np.eye(channel.x_size)[list(xs)]
                value, _ = _input_value_grad(vertex, channel.state_pmf, q,
                                             _cell_entropy(q, True))
                assert res.value_bits + gap >= value - 1e-13, (bound, xs)

    def test_gap_at_every_vertex_bounds_every_vertex(self):
        # At a deterministic p(x|s) every other input has probability 0, and
        # the gap needs the partials of those inputs too: value + gap at any
        # vertex bounds the value at every vertex.
        for k in range(20):
            channel = random_channel(np.random.default_rng(k), 2, 3, 2, 2)
            product = np.einsum("xsr,xse->xsre", channel.receiver_kernel(),
                                channel.eavesdropper_kernel())
            vertices = [np.eye(channel.x_size)[list(xs)] for xs in
                        itertools.product(range(channel.x_size),
                                          repeat=channel.s_size)]
            for q in (channel.kernel, product):
                values = [_input_value_grad(v, channel.state_pmf, q,
                                            _cell_entropy(q, True))[0]
                          for v in vertices]
                for vertex, value in zip(vertices, values):
                    gap = _certificate_gap(vertex, channel.state_pmf, q)
                    assert value + gap >= max(values) - 1e-12, (k, vertex)

    def test_capacity_result_carries_the_gap(self):
        channel = factorized_binary(0.1, 0.25)
        cap = discussion_capacity_if_markov(channel, CFG)
        up = upper_bound_discussion(channel, CFG)
        assert cap.diagnostics["certificate_gap_bits"] \
            == up.diagnostics["certificate_gap_bits"]


class TestLowerBoundDiscussion:
    def test_constant_channel_gives_zero(self):
        res = lower_bound_discussion(constant_channel(), CFG_SMALL)
        assert res.value_bits == pytest.approx(0.0, abs=1e-9)

    def test_independent_eavesdropper_recovers_forward_mi(self):
        # Ye uniform regardless of input: I(Ye;Yr) = 0 and the first branch
        # is max I(X,S;Yr).
        pr_t = bsc_matrix(0.1)
        kernel = np.zeros((2, 2, 2, 2))
        for x in range(2):
            for s in range(2):
                kernel[x, s] = np.outer(pr_t[x ^ s], [0.5, 0.5])
        channel = StateChannel.from_arrays([0.5, 0.5], kernel)
        res = lower_bound_discussion(channel, CFG_SMALL)
        assert res.value_bits == pytest.approx(1 - h2(0.1), abs=1e-6)
        assert res.diagnostics["discussion_branch"] == 1.0

    def test_subnormal_input_probability_gives_a_finite_bound(self):
        # Branch 1's ascent drives p(x=1|s=1) down to 5e-324 on this channel,
        # where p(a) p(b) underflows inside the MI kernel.
        channel = random_channel(np.random.default_rng(1034), 2, 2, 2, 2)
        low = lower_bound_discussion(channel, CFG)
        assert math.isfinite(low.value_bits)
        assert low.value_bits <= upper_bound_discussion(channel, CFG).value_bits

    def test_dominates_no_discussion_bound(self):
        rng = np.random.default_rng(57)
        for trial in range(8):
            channel = random_channel(rng)
            cfg = OptimizerConfig(restarts=4, local_steps=30, seed=trial)
            disc = lower_bound_discussion(channel, cfg)
            base = lower_bound_no_discussion(channel, cfg)
            assert disc.value_bits >= base.value_bits - 1e-9


class TestUpperBoundDiscussion:
    def test_constant_channel_gives_zero(self):
        res = upper_bound_discussion(constant_channel(), CFG_SMALL)
        assert res.value_bits == pytest.approx(0.0, abs=1e-10)

    def test_equal_outputs_give_zero(self):
        # yr and ye deterministically equal: Yr is a function of Ye.
        pr_t = bsc_matrix(0.2)
        kernel = np.zeros((2, 2, 2, 2))
        for x in range(2):
            for s in range(2):
                for y in range(2):
                    kernel[x, s, y, y] = pr_t[x ^ s, y]
        channel = StateChannel.from_arrays([0.5, 0.5], kernel)
        res = upper_bound_discussion(channel, CFG_SMALL)
        assert res.value_bits == pytest.approx(0.0, abs=1e-10)

    def test_dominates_discussion_lower_bound_on_random_channels(self):
        rng = np.random.default_rng(73)
        for trial in range(20):
            channel = random_channel(rng)
            cfg = OptimizerConfig(restarts=4, local_steps=30, seed=trial)
            up = upper_bound_discussion(channel, cfg)
            low = lower_bound_discussion(channel, cfg)
            assert up.value_bits >= low.value_bits - 1e-6


class TestDiscussionCapacity:
    def test_factorized_kernel_is_flagged_capacity(self):
        channel = factorized_binary(0.1, 0.25)
        cap = discussion_capacity_if_markov(channel, CFG)
        assert cap is not None
        assert cap.diagnostics["is_capacity"] == 1.0
        up = upper_bound_discussion(channel, CFG)
        low = lower_bound_discussion(channel, CFG)
        assert cap.value_bits == pytest.approx(up.value_bits, abs=1e-9)
        assert cap.value_bits == pytest.approx(low.value_bits, abs=5e-3)

    def test_correlated_noise_is_not_applicable(self):
        assert discussion_capacity_if_markov(
            constant_channel(correlated=True), CFG_SMALL) is None

    def test_constant_independent_channel_is_capacity_zero(self):
        cap = discussion_capacity_if_markov(constant_channel(), CFG_SMALL)
        assert cap is not None
        assert cap.value_bits == pytest.approx(0.0, abs=1e-10)


class TestOrderingSuite:
    def test_bound_orderings_on_random_channels(self):
        rng = np.random.default_rng(91)
        for trial in range(6):
            channel = random_channel(rng)
            cfg = OptimizerConfig(restarts=4, local_steps=30,
                                  grid_resolution=3, seed=trial)
            lb = lower_bound_no_discussion(channel, cfg)
            ub = upper_bound_no_discussion(channel, cfg)
            lbd = lower_bound_discussion(channel, cfg)
            ubd = upper_bound_discussion(channel, cfg)
            assert lb.value_bits <= ub.value_bits + 5e-3
            assert lbd.value_bits <= ubd.value_bits + 5e-3
            assert lbd.value_bits >= lb.value_bits - 1e-12


class TestSymmetricSideInformation:
    def test_covering_constraint_redundant_after_augmentation(self):
        rng = np.random.default_rng(53)
        channel = augment_receiver(random_channel(rng), "full_state")
        res = lower_bound_no_discussion(channel, CFG_SMALL)
        assert res.constraint_slack_bits >= -1e-9


class TestConfigValidation:
    def test_bad_configs_rejected(self):
        with pytest.raises(ValueError):
            OptimizerConfig(grid_resolution=1)
        with pytest.raises(ValueError):
            OptimizerConfig(domain="anything")
        for bad in (dict(restarts=2.5), dict(local_steps=3.5),
                    dict(grid_resolution=3.5), dict(u_size_max=2.5),
                    dict(seed=1.5), dict(restarts=True), dict(u_size_max=0)):
            with pytest.raises(ValueError):
                OptimizerConfig(**bad)

    def test_default_auxiliary_alphabet_cap(self, degraded_channel):
        assert OptimizerConfig().resolve_u_size(degraded_channel) == 4
        assert OptimizerConfig(u_size_max=3).resolve_u_size(degraded_channel) == 3
