"""Bound evaluators against analytic oracles, orderings, and determinism."""

import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from statekey import (AuxiliaryEncoderPolicy, BoundResult, BudgetError,
                      CouplingFamily, OptimizerConfig, StateChannel,
                      augment_receiver, aux_policy_rate, dmc,
                      discussion_capacity_if_markov,
                      lower_bound_discussion, lower_bound_no_discussion,
                      secret_message_lower_bound, upper_bound_discussion,
                      upper_bound_no_discussion)
from statekey.dmc import (LN2, _ASCENT_MAX_ITER, _ASCENT_TOL, _ascend_input,
                          _cell_entropy, _certified_value, _fw_gap,
                          _input_value_grad)
from conftest import (S, U, YE, YR, bsc_matrix, cmi_ref, constant_channel,
                      degraded_binary_wiretap, erasure_eavesdropper_channel,
                      factorized_binary, identical_outputs_channel,
                      identity_channel, joint_uxsre, random_channel,
                      sparse_channel)


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


def branch_one_value(res):
    """max I(X,S;Yr) - I(Yr;Ye) of a ``lower_bound_discussion`` result,
    whichever branch won."""
    if res.diagnostics["discussion_branch"] == 1.0:
        return res.value_bits
    return res.diagnostics["discussion_value"]


def certified_ceiling(up):
    """What an ``upper_bound_discussion`` result certifies its maximum below."""
    return up.value_bits + up.diagnostics["certificate_gap_bits"]


def vertices(channel):
    """Every deterministic p(x|s) of ``channel``."""
    return [np.eye(channel.x_size)[list(xs)] for xs in
            itertools.product(range(channel.x_size), repeat=channel.s_size)]


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
        p = joint_uxsre(degraded_channel, res.argmax_policy)
        value = cmi_ref(p, [U], [YR]) - cmi_ref(p, [U], [YE])
        slack = cmi_ref(p, [U], [YR]) - cmi_ref(p, [U], [S])
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
        terms = dmc.aux_mi_terms
        batches = []

        def spy(state_pmf, kernel, yr_size, u_rows, x_rows):
            out = terms(state_pmf, kernel, yr_size, u_rows, x_rows)
            # Copies: the refinement moves its restarts' rows in place.
            batches.append((u_rows.copy(), x_rows.copy(), out[0]))
            return out

        monkeypatch.setattr(dmc, "aux_mi_terms", spy)
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


def grid_seeds_row_by_row(channel, u_size, restricted, resolution, count, rng):
    """The grid seeds drawn with one ``rng.integers`` call per row."""
    def row(dim):
        return np.bincount(rng.integers(0, dim, size=resolution),
                           minlength=dim) / resolution

    u_seeds, x_seeds = [], []
    for _ in range(count):
        u_seeds.append([row(u_size)
                        for _ in range(1 if restricted else channel.s_size)])
        x_seeds.append([[row(channel.x_size) for _ in range(channel.s_size)]
                        for _ in range(u_size)])
    return np.array(u_seeds), np.array(x_seeds)


class TestGridSeeds:
    @pytest.mark.parametrize("restricted", [True, False],
                             ids=["restricted", "general"])
    @pytest.mark.parametrize("resolution", [2, 3, 4, 5])
    def test_one_draw_equals_the_row_by_row_draws(self, restricted, resolution):
        # One rng.integers call with per-draw bounds must return the draws
        # of one call per row on every numpy release the package supports.
        for u_size, x_size in itertools.product((1, 2, 6), (1, 2, 3)):
            channel = random_channel(np.random.default_rng(x_size), x_size, 3)
            rngs = [np.random.default_rng([u_size, x_size, resolution])
                    for _ in range(2)]
            got = dmc._grid_aux_seeds(channel, u_size, restricted, resolution,
                                      7, rngs[0])
            want = grid_seeds_row_by_row(channel, u_size, restricted,
                                         resolution, 7, rngs[1])
            for a, b in zip(got, want):
                assert a.shape == b.shape and np.array_equal(a, b)
            # Both leave the stream at the same point.
            assert rngs[0].integers(2**62) == rngs[1].integers(2**62)


class TestRestrictedSearch:
    @pytest.mark.parametrize("objectives", [(True,), (False,), (True, False)])
    def test_every_batch_has_equal_u_rows_across_states(self, objectives,
                                                        monkeypatch):
        # A restricted_u search stores each policy's shared p(u|s) once per
        # state; every batch it scores keeps those rows bit-identical.
        terms = dmc.aux_mi_terms
        batches = []

        def spy(state_pmf, kernel, yr_size, u_rows, x_rows):
            batches.append(u_rows.copy())
            return terms(state_pmf, kernel, yr_size, u_rows, x_rows)

        monkeypatch.setattr(dmc, "aux_mi_terms", spy)
        channel = random_channel(np.random.default_rng(4), 2, 3, 2, 2)
        cfg = replace(CFG_SMALL, domain="restricted_u")
        dmc._search_aux(channel, cfg, objectives)
        assert len(batches) > 2
        for u_rows in batches:
            assert u_rows.shape[1] == channel.s_size
            assert np.array_equal(u_rows, np.broadcast_to(u_rows[:, :1],
                                                          u_rows.shape))


JOINT_CASES = [pytest.param(case.values[0], case.values[1], id=case.id)
               for case in TRAJECTORY_CASES] + [
    pytest.param(lambda: random_channel(np.random.default_rng(4)), CFG_SMALL,
                 id="random2222-small"),
    pytest.param(lambda: random_channel(np.random.default_rng(4)),
                 replace(CFG_SMALL, domain="restricted_u"),
                 id="random2222-small-restricted"),
]


class TestJointSearch:
    @pytest.mark.parametrize("make_channel, cfg", JOINT_CASES)
    @pytest.mark.parametrize("objectives", [(True, False), (False, True)],
                             ids=["key-first", "message-first"])
    def test_each_objective_equals_its_search_alone(self, make_channel, cfg,
                                                    objectives):
        # One seed batch and one refinement batch serve both objectives;
        # each objective's incumbent sees only its own rows, so the joint
        # search reproduces every bit of the two separate searches.
        channel = make_channel()
        alone = {True: lower_bound_no_discussion,
                 False: secret_message_lower_bound}
        joint = dmc._search_aux(channel, cfg, objectives)
        assert len(joint) == len(objectives)
        for key_rate, (policy, diagnostics) in zip(objectives, joint):
            together = dmc._search_result(channel, key_rate, policy,
                                          diagnostics)
            single = alone[key_rate](channel, cfg)
            assert np.array_equal(together.argmax_policy.u_given_s,
                                  single.argmax_policy.u_given_s)
            assert np.array_equal(together.argmax_policy.x_given_us,
                                  single.argmax_policy.x_given_us)
            assert together.value_bits == single.value_bits
            assert together.constraint_slack_bits == single.constraint_slack_bits
            assert together.diagnostics == single.diagnostics


class TestSearchScore:
    def test_per_row_flags_equal_the_scalar_calls_bit_for_bit(self):
        # One call scores each row under its own objective; every output
        # must carry the bits of the scalar call on that row alone.
        rng = np.random.default_rng(0)
        i_uyr = rng.random(40)
        i_uye = np.where(rng.random(40) < 0.3, i_uyr, rng.random(40))
        i_us = np.where(rng.random(40) < 0.3, i_uye, rng.random(40))
        i_us[:4] = i_uyr[:4] + [-1e-10, 1e-10, 0.0, 2e-9]
        triple = (i_uyr, i_uye, i_us)
        flags = rng.random(40) < 0.5
        assert flags.any() and not flags.all()
        out = dmc._search_score(triple, flags)
        for i, key_rate in enumerate(flags):
            alone = dmc._search_score(tuple(t[i:i + 1] for t in triple),
                                      bool(key_rate))
            for got, want in zip(out, alone):
                assert got[i:i + 1].tobytes() == want.tobytes()


# lower_bound_no_discussion and secret_message_lower_bound under the default
# config on the first corpus channels, random_channel(default_rng(1000 + k),
# *default_rng(k).integers(1, 4, size=4)), as the einsum kernel computed them.
CORPUS_SEARCH_VALUES = {
    0: (0.29270393056348154, 0.29333947150027223),
    1: (0.0, 0.0),
    2: (0.0, 0.0),
    3: (0.0, 0.0),
    4: (0.04271776530730417, 0.04271776530730417),
    5: (1.9025559252648656e-16, 1.9025559252648656e-16),
    6: (0.024047463053099898, 0.012846348861416987),
    7: (0.007621816248207796, 0.007621816248207796),
    8: (3.4864741278993303e-16, 3.4864741278993303e-16),
    9: (0.1099135487680876, 0.052184908413555824),
    10: (0.0, 0.0),
    11: (0.0, 0.0),
}


class TestCorpusSearchValues:
    @pytest.mark.parametrize("k", sorted(CORPUS_SEARCH_VALUES))
    def test_searched_bounds_hold_their_values(self, k):
        # A rewrite of the search kernels may move these by rounding only.
        channel = random_channel(np.random.default_rng(1000 + k),
                                 *np.random.default_rng(k).integers(1, 4, size=4))
        lb, message = CORPUS_SEARCH_VALUES[k]
        assert lower_bound_no_discussion(channel, CFG).value_bits == \
            pytest.approx(lb, rel=0, abs=1e-12)
        assert secret_message_lower_bound(channel, CFG).value_bits == \
            pytest.approx(message, rel=0, abs=1e-12)


class TestSearchBudget:
    def test_default_alphabet_on_large_channel_is_refused(self):
        # |X| = |S| = 16 gives |U| = 258: one u-row probe batch would hold
        # 8 * 258 policies of 258 * 16 * 17 entries, about 1.1 GB.
        channel = random_channel(np.random.default_rng(0), 16, 16, 2, 2)
        for bound in (lower_bound_no_discussion, secret_message_lower_bound,
                      dmc.evaluate_bounds):
            with pytest.raises(BudgetError, match="u_size_max"):
                bound(channel, OptimizerConfig())

    def test_default_search_on_eight_by_eight_channel_finishes(self):
        # The finite-difference coordinate ascent took minutes here; the
        # planned work of the gradient search is within the budget.
        channel = random_channel(np.random.default_rng(0), 8, 8, 2, 2)
        res = lower_bound_no_discussion(channel, OptimizerConfig())
        assert res.value_bits >= 0.0
        assert res.constraint_slack_bits >= -1e-9

    @pytest.mark.parametrize("size", [8, 10])
    def test_default_joint_search_fits(self, size):
        # 10x10x2x2 plans 1.7e8 entries per objective, 3.5e8 for both: the
        # work limit holds per objective, so the joint search that
        # evaluate_bounds runs accepts every channel a single search does.
        channel = random_channel(np.random.default_rng(0), size, size, 2, 2)
        cfg = OptimizerConfig()
        dmc._check_aux_budget(channel, cfg, cfg.resolve_u_size(channel), 2, 2)

    def test_batch_bytes_count_every_objective_candidates(self):
        # |U| = 18 on a 4x4 channel: 360 entries per policy.  4,000 restarts
        # make 16,000 step candidates per objective: 44 MiB for one and
        # 88 MiB for two objectives, over the 64 MiB batch limit.
        channel = random_channel(np.random.default_rng(0), 4, 4, 2, 2)
        cfg = OptimizerConfig(restarts=4000, local_steps=1,
                              domain="restricted_u")
        dmc._check_aux_budget(channel, cfg, 18, 1, 1)
        with pytest.raises(BudgetError, match="88 MiB"):
            dmc._check_aux_budget(channel, cfg, 18, 1, 2)

    def test_batch_bytes_count_both_passes_candidates(self):
        # As above, under general_u: one pass's 16,000 candidates of one
        # objective fit in 44 MiB, and the joint refinement batch of both
        # passes needs 88 MiB.  The search is refused before it starts.
        channel = random_channel(np.random.default_rng(0), 4, 4, 2, 2)
        cfg = OptimizerConfig(restarts=4000, local_steps=1, u_size_max=18)
        dmc._check_aux_budget(channel, cfg, 18, 1, 1)
        for bound in (lower_bound_no_discussion, secret_message_lower_bound):
            with pytest.raises(BudgetError, match="88 MiB"):
                bound(channel, cfg)

    @pytest.mark.parametrize("x_size", [2, 16])
    def test_batch_bytes_count_the_lattice_draws(self, x_size, monkeypatch):
        # The general pass draws 3 * restarts * |S| (|U| + 1) * resolution
        # lattice symbols at once; the budget counts at least 99% of the
        # bytes that _grid_aux_seeds then holds (|X| = 16 one-hot flags per
        # x-row draw outweigh its int64 bounds).
        channel = random_channel(np.random.default_rng(3), x_size, 2, 3, 2)
        cfg = OptimizerConfig(u_size_max=6, grid_resolution=2000)
        tracemalloc.start()
        dmc._grid_aux_seeds(channel, 6, False, 2000, 3 * cfg.restarts,
                            dmc._rng_stream(0, 12))
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        dmc._check_aux_budget(channel, cfg, 6, 2, 2)
        monkeypatch.setattr(dmc, "_AUX_BATCH_BYTES", int(0.99 * peak))
        with pytest.raises(BudgetError, match="grid_resolution"):
            dmc._check_aux_budget(channel, cfg, 6, 2, 2)

    def test_capped_alphabet_fits(self):
        channel = random_channel(np.random.default_rng(0), 16, 16, 2, 2)
        cfg = OptimizerConfig(u_size_max=2, restarts=1, local_steps=1,
                              grid_resolution=2, domain="restricted_u")
        res = lower_bound_no_discussion(channel, cfg)
        assert res.value_bits >= 0.0


class TestCouplingBudget:
    def test_over_budget_channel_fails_before_the_search(self, monkeypatch):
        calls = []
        monkeypatch.setattr(dmc, "_COUPLING_BYTES", 2**10)
        monkeypatch.setattr(dmc, "_search_aux",
                            lambda *args: calls.append(args))
        # 2x2x3x3 needs 5 arrays of 36 float64 entries, 1,440 bytes.
        channel = random_channel(np.random.default_rng(0), 2, 2, 3, 3)
        for bound in (upper_bound_no_discussion,
                      lambda channel: dmc.evaluate_bounds(channel, CFG_SMALL)):
            with pytest.raises(BudgetError, match="coupling upper bound"):
                bound(channel)
        assert calls == []
        monkeypatch.setattr(dmc, "_COUPLING_BYTES", 1440)
        upper_bound_no_discussion(channel)


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
        res = upper_bound_no_discussion(identical_outputs_channel())
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
        res = upper_bound_no_discussion(channel)
        assert res.value_bits == pytest.approx(1 - h2(0.1), abs=1e-6)

    def test_degraded_binary_band(self, degraded_channel):
        lb = lower_bound_no_discussion(degraded_channel, CFG)
        ub = upper_bound_no_discussion(degraded_channel)
        assert ub.value_bits >= lb.value_bits - 1e-9
        assert 0.25 <= lb.value_bits <= 0.26
        assert 0.25 <= ub.value_bits <= 0.26

    def test_minimizing_coupling_reproduces_marginals(self, degraded_channel):
        res = upper_bound_no_discussion(degraded_channel)
        q = res.coupling.q
        dr = np.abs(q.sum(axis=3) - degraded_channel.receiver_kernel()).max()
        de = np.abs(q.sum(axis=2) - degraded_channel.eavesdropper_kernel()).max()
        assert max(dr, de) <= 1e-10

    def test_determinism(self, degraded_channel):
        a = upper_bound_no_discussion(degraded_channel)
        b = upper_bound_no_discussion(degraded_channel)
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

        def spy(cells, weights, r, c, t):
            supports.append(np.array_equal(cells > 0,
                                           r[:, :, None] * c[:, None, :] > 0))
            return project(cells, weights, r, c, t)

        monkeypatch.setattr(dmc, "_project_couplings", spy)
        upper_bound_no_discussion(channel)
        assert supports and all(supports)

    @pytest.mark.parametrize("channel, value", [
        (factorized_binary(), 0.3422825308701658),
        (random_channel(np.random.default_rng(3), 2, 2, 3, 2),
         0.18095151684706043),
    ])
    def test_benchmark_channel_values(self, channel, value):
        res = upper_bound_no_discussion(channel)
        assert res.value_bits == pytest.approx(value, abs=1e-12)

    @pytest.mark.parametrize("channel, per_solve, totals", [
        (factorized_binary(), 2, (np.inf, 1, 1)),
        (random_channel(np.random.default_rng(3), 2, 2, 3, 2), np.inf,
         (70, 30, 30)),
    ], ids=["factorized", "dmc-search"])
    def test_input_evaluations(self, channel, per_solve, totals, monkeypatch):
        # Totals for the coupling bound, upper_bound_discussion and branch 1
        # of lower_bound_discussion.  An ascent that stops on its
        # Frank-Wolfe gap skips the 40-odd evaluations of a backtracking
        # ladder that can accept nothing: each inner solve on the factorized
        # channel then needs at most two, and each discussion ascent one.
        # On the random channel every coupling maximum is a vertex, which a
        # warm start certifies in one evaluation (903 evaluations without
        # that check); the first solve stalls short of its certificate, and
        # its ladders end at the first rung concavity proves futile (68
        # evaluations in all, 113 when every rung was evaluated).  The
        # discussion ascents stall too: 25 and 27 evaluations, 68 each when
        # every rung was evaluated.
        calls = []

        def spy(*args):
            calls.append(None)
            return _input_value_grad(*args)

        monkeypatch.setattr(dmc, "_input_value_grad", spy)
        res = upper_bound_no_discussion(channel)
        assert 0 < len(calls) <= min(totals[0],
                                     per_solve * res.diagnostics["inner_solves"])
        calls.clear()
        upper_bound_discussion(channel)
        assert 0 < len(calls) <= totals[1]
        calls.clear()
        lower_bound_discussion(channel, BoundResult(0.0, None))
        assert 0 < len(calls) <= totals[2]

    def test_warm_starts_certify_the_vertex_in_one_evaluation(self,
                                                              monkeypatch):
        # The first solve climbs from the uniform policy to the vertex x = 0
        # in both states; every later solve starts there and returns it,
        # also the first plain round, which restarts from the best pair.
        channel = random_channel(np.random.default_rng(3), 2, 2, 3, 2)
        calls, solves = [], []
        ascend = dmc._ascend_input

        def count(*args):
            calls.append(None)
            return _input_value_grad(*args)

        def spy(*args):
            before = len(calls)
            solves.append((*ascend(*args), len(calls) - before))
            return solves[-1][:3]

        monkeypatch.setattr(dmc, "_input_value_grad", count)
        monkeypatch.setattr(dmc, "_ascend_input", spy)
        res = upper_bound_no_discussion(channel)
        assert len(solves) == res.diagnostics["inner_solves"] == 20
        for p, _, gap, evaluations in solves[1:]:
            assert np.array_equal(p, np.eye(channel.x_size)[[0, 0]])
            assert evaluations == 1 and gap == 0.0
        assert res.diagnostics["certificate_gap_bits"] == 0.0

    @pytest.mark.parametrize("channel", [
        degraded_binary_wiretap(), factorized_binary(),
        identical_outputs_channel(), constant_channel(),
        constant_channel(correlated=True), identity_channel(),
        erasure_eavesdropper_channel(),
        *(random_channel(np.random.default_rng(k), *sizes) for k, sizes in
          enumerate([(2, 2, 3, 2), (3, 2, 2, 3), (2, 3, 4, 1), (1, 2, 3, 3)])),
    ], ids=["degraded", "factorized", "identical", "constant", "correlated",
            "identity", "erasure", "random-2232", "random-3223",
            "random-2341", "random-1233"])
    def test_diagonal_first_couplings_equal_the_per_cell_reference(
            self, channel):
        # One vectorized pass over every (x, s) cell, bit for bit the cells
        # built one at a time, and a coupling of the cell's marginals.
        r = channel.receiver_kernel().reshape(-1, channel.yr_size)
        c = channel.eavesdropper_kernel().reshape(-1, channel.ye_size)
        q = dmc._maximal_couplings(r, c, channel.kernel.shape)
        assert np.array_equal(q, np.stack([maximal_cell(a, b) for a, b in
                                           zip(r, c)]).reshape(q.shape))
        assert np.abs(q.sum(axis=3) - channel.receiver_kernel()).max() <= 1e-15
        assert np.abs(q.sum(axis=2) - channel.eavesdropper_kernel()).max() \
            <= 1e-15

    def test_projection_moves_zero_weight_cells(self):
        # At a vertex the other inputs have weight 0, and the ascent's
        # partials read their cells: those move too, on their own marginals,
        # in plain steps (to the mixture's I-projection) and relaxed ones.
        channel = random_channel(np.random.default_rng(1), 2, 2, 3, 2)
        r = channel.receiver_kernel().reshape(-1, channel.yr_size)
        c = channel.eavesdropper_kernel().reshape(-1, channel.ye_size)
        cells = r[:, :, None] * c[:, None, :]
        weights = np.array([0.5, 0.0, 0.5, 0.0])
        for t in (1.0, dmc._RELAXATION):
            moved = dmc._project_couplings(cells, weights, r, c, t)
            for k in np.flatnonzero(weights == 0):
                assert np.abs(moved[k] - cells[k]).max() > 1e-3
                assert np.abs(moved[k].sum(axis=1) - r[k]).max() <= 1e-12
                assert np.abs(moved[k].sum(axis=0) - c[k]).max() <= 1e-12

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
        q = upper_bound_no_discussion(channel).coupling.q
        p, _, _ = _ascend_input(
            channel.state_pmf, q, True,
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


def maximal_cell(r, c):
    """The diagonal-first coupling of one (x, s) cell, built entry by entry:
    min(r_i, c_i) on the diagonal, then the residuals' outer product over
    their mass when that mass is above 1e-15."""
    q = np.zeros((len(r), len(c)))
    res_r, res_c = r.copy(), c.copy()
    for i in range(min(len(r), len(c))):
        q[i, i] = min(r[i], c[i])
        res_r[i] -= q[i, i]
        res_c[i] -= q[i, i]
    mass = res_r.sum()
    if mass > 1e-15:
        q += np.outer(res_r, res_c) / mass
    return q


def plain_alternation(channel):
    """The coupling bound as plain Csiszar-Tusnady steps compute it: each
    cell the Sinkhorn scaling of the output mixture on its support, stopping
    at the first round that fails to lower the value by 1e-12.  Returns
    (value, inner solves, coupling, policy, gap) of the best pair."""
    state = channel.state_pmf
    r = channel.receiver_kernel().reshape(-1, channel.yr_size)
    c = channel.eavesdropper_kernel().reshape(-1, channel.ye_size)
    q = np.stack([maximal_cell(a, b) for a, b in zip(r, c)]).reshape(
        channel.kernel.shape)
    p, v, gap = _ascend_input(state, q, True, np.full(
        (channel.s_size, channel.x_size), 1.0 / channel.x_size))
    best = max(0.0, v), q, p, gap
    solves, last = 1, np.inf
    cells = r[:, :, None] * c[:, None, :]
    while best[0] > 0.0 and solves <= dmc._COUPLING_ROUNDS:
        q = cells.reshape(channel.kernel.shape)
        p, v, gap = _ascend_input(state, q, True, p)
        v, solves = max(0.0, v), solves + 1
        if v < best[0]:
            best = v, q, p, gap
        if v > last - 1e-12:
            break
        last = v
        m = np.einsum("k,kre->re", (state[None, :] * p.T).ravel(), cells)
        new = np.where(cells > 0, m, 0.0)
        for _ in range(dmc._SINKHORN_ITERATIONS):
            rows = new.sum(axis=2)
            new *= np.divide(r, rows, out=np.zeros_like(r),
                             where=rows > 0)[:, :, None]
            cols = new.sum(axis=1)
            new *= np.divide(c, cols, out=np.zeros_like(c),
                             where=cols > 0)[:, None, :]
            err = np.abs(new.sum(axis=2) - r)
            if err.max() <= dmc._SINKHORN_TOL:
                break
        cells = np.where((err.max(axis=1) <= dmc._SINKHORN_TOL)[:, None, None],
                         new, cells)
    return best[0], solves, best[1], best[2], best[3]


def sized_random_channel(k):
    """A conftest random channel whose alphabet sizes, 2-3, are drawn too."""
    rng = np.random.default_rng(k)
    return random_channel(rng, *rng.integers(2, 4, size=4))


def subnormal_row_channel():
    """``sized_random_channel(34)``, sizes (2, 2, 2, 3), with the kernel at
    x = 0, ye = 0 set to 1e-310 for every (s, yr), then renormalized."""
    base = sized_random_channel(34)
    kernel = np.array(base.kernel)
    kernel[0, :, :, 0] = 1e-310
    kernel /= kernel.sum(axis=(2, 3), keepdims=True)
    return StateChannel.from_arrays(base.state_pmf, kernel)


class TestRelaxedCouplingSteps:
    @pytest.mark.parametrize("channel, solves", [
        (degraded_binary_wiretap(), None), (factorized_binary(), 16),
        (identical_outputs_channel(), None), (constant_channel(), None),
        (constant_channel(correlated=True), None), (identity_channel(), None),
        (erasure_eavesdropper_channel(), None),
        (random_channel(np.random.default_rng(3), 2, 2, 3, 2), 37),
    ], ids=["degraded", "factorized", "identical", "constant",
            "correlated", "identity", "erasure", "dmc-search"])
    def test_plain_steps_are_bit_identical_to_the_plain_alternation(
            self, channel, solves, monkeypatch):
        # At t = 1 the base cells^0 m^1 is m bit for bit, and the first
        # round that fails to lower the value ends the alternation.
        monkeypatch.setattr(dmc, "_RELAXATION", 1.0)
        res = upper_bound_no_discussion(channel)
        value, count, q, p, gap = plain_alternation(channel)
        assert res.value_bits == value
        assert res.diagnostics["inner_solves"] == count
        assert solves is None or count == solves
        assert np.array_equal(res.coupling.q, q)
        assert np.array_equal(res.argmax_policy.x_given_s, p)
        assert res.diagnostics["certificate_gap_bits"] == gap

    @pytest.mark.parametrize("channel, solves", [
        (factorized_binary(), 10),
        (random_channel(np.random.default_rng(3), 2, 2, 3, 2), 20),
    ], ids=["factorized", "dmc-search"])
    def test_benchmark_channels_take_fewer_rounds(self, channel, solves):
        res = upper_bound_no_discussion(channel)
        assert res.diagnostics["inner_solves"] == solves

    def test_plain_rounds_restart_from_the_best_pair(self, monkeypatch):
        # Relaxed steps until a round fails to lower the value, then plain
        # steps from the lowest (coupling, p) the alternation solved, the
        # first solve (the diagonal-first candidate) apart.  Here the round
        # that failed rose by 2.4e-12, so it is not that pair.
        channel = sized_random_channel(23)
        solves, steps = [], []
        ascend, project = dmc._ascend_input, dmc._project_couplings

        def solve(state_pmf, q, given_ye, p0):
            p, value, gap = ascend(state_pmf, q, given_ye, p0)
            solves.append((value, q.copy(), p))
            return p, value, gap

        def step(cells, weights, r, c, t):
            steps.append((len(solves), cells.copy(), weights, t))
            return project(cells, weights, r, c, t)

        monkeypatch.setattr(dmc, "_ascend_input", solve)
        monkeypatch.setattr(dmc, "_project_couplings", step)
        upper_bound_no_discussion(channel)
        ts = [t for *_, t in steps]
        first = ts.index(1.0)
        assert first > 0 and set(ts[:first]) == {dmc._RELAXATION}
        assert set(ts[first:]) == {1.0}
        solved, cells, weights, _ = steps[first]
        _, q, p = min(solves[1:solved], key=lambda s: s[0])
        assert not np.array_equal(q, solves[solved - 1][1])
        assert np.array_equal(cells.reshape(q.shape), q)
        assert np.array_equal(weights, (channel.state_pmf[None, :] * p.T).ravel())

    @pytest.mark.parametrize("channel", [
        identity_channel(), erasure_eavesdropper_channel(),
        random_channel(np.random.default_rng(1048), 1, 2, 2, 2),
    ], ids=["identity", "erasure", "corpus-48"])
    def test_plain_rounds_never_restart_from_the_candidate(self, channel,
                                                           monkeypatch):
        # No round of the alternation gets below the diagonal-first
        # candidate here, so it is the bound returned.  A plain step from
        # it would project a coupling with zeros where r (x) c has mass, and
        # could not leave its face: the plain rounds go on from the
        # alternation's own best pair.
        values, steps = [], []
        ascend, project = dmc._ascend_input, dmc._project_couplings

        def solve(state_pmf, q, given_ye, p0):
            p, value, gap = ascend(state_pmf, q, given_ye, p0)
            values.append(max(0.0, value))
            return p, value, gap

        def step(cells, weights, r, c, t):
            steps.append((t, np.array_equal(cells > 0,
                                            r[:, :, None] * c[:, None, :] > 0)))
            return project(cells, weights, r, c, t)

        monkeypatch.setattr(dmc, "_ascend_input", solve)
        monkeypatch.setattr(dmc, "_project_couplings", step)
        res = upper_bound_no_discussion(channel)
        assert values[0] <= min(values[1:])
        assert (1.0, True) in steps and all(kept for _, kept in steps)
        assert res.value_bits == values[0]
        r = channel.receiver_kernel().reshape(-1, channel.yr_size)
        c = channel.eavesdropper_kernel().reshape(-1, channel.ye_size)
        assert np.array_equal(res.coupling.q, dmc._maximal_couplings(
            r, c, channel.kernel.shape))

    def test_relaxed_base_keeps_the_plain_steps_support(self):
        # Cell 0 alone has weight, so m is cell 0, and m^1.8 = 1e-360 at
        # its 1e-200 entries: the base cells^(1-t) m^t, taken as written, is
        # 0 there.  Cell 1 is uniform, and its base is 1e-360 where m is
        # 1e-200 in any form: m stands in for it.
        cells = np.array([[[0.5, 1e-200], [1e-200, 0.5]],
                          [[0.25, 0.25], [0.25, 0.25]]])
        r = cells.sum(axis=2)
        c = cells.sum(axis=1)
        weights = np.array([1.0, 0.0])
        plain = dmc._project_couplings(cells, weights, r, c, 1.0)
        relaxed = dmc._project_couplings(cells, weights, r, c,
                                         dmc._RELAXATION)
        assert np.all(plain > 0) and np.all(relaxed > 0)
        assert np.abs(relaxed.sum(axis=2) - r).max() <= 1e-13
        assert not np.array_equal(relaxed[1], cells[1])

    @pytest.mark.parametrize("channel", [
        *(sized_random_channel(k) for k in range(20)), subnormal_row_channel(),
    ], ids=[*map(str, range(20)), "subnormal-row"])
    def test_relaxed_bound_is_never_above_the_plain_one(self, channel,
                                                        monkeypatch):
        # Alphabet sizes 2-3.  The relaxed rounds end where a round stops
        # gaining, and plain rounds go on from the best pair seen by the
        # plain stop rule.  That may end a hair above the plain alternation
        # alone: by at most 8.9e-11 on the 200-channel corpus.  On the
        # subnormal row m^1.8 underflows: a base taken as cells^(1-t) m^t
        # loses that support for good and ends at 0.0318, against the plain
        # 0.0275.
        relaxed = upper_bound_no_discussion(channel).value_bits
        monkeypatch.setattr(dmc, "_RELAXATION", 1.0)
        plain = upper_bound_no_discussion(channel).value_bits
        assert relaxed <= plain + 1e-10

    @pytest.mark.parametrize("t", [1.0, dmc._RELAXATION])
    def test_subnormal_kernel_gives_a_valid_coupling(self, t, monkeypatch):
        # Half the kernel entries are 3e-320.  A Sinkhorn scale of a
        # subnormal column sum overflows; that cell's scaling misses its
        # marginals and the cell is kept.
        monkeypatch.setattr(dmc, "_RELAXATION", t)
        rng = np.random.default_rng(64)
        base = random_channel(rng, 2, 3, 2, 2)
        kernel = np.array(base.kernel)
        kernel[rng.random(kernel.shape) < 0.5] = 3e-320
        kernel /= kernel.sum(axis=(2, 3), keepdims=True)
        channel = StateChannel.from_arrays(base.state_pmf, kernel)
        res = upper_bound_no_discussion(channel)
        assert math.isfinite(res.value_bits) and res.value_bits >= 0.0
        CouplingFamily(channel, res.coupling.q)

    @pytest.mark.parametrize("t", [1.0, dmc._RELAXATION])
    def test_peak_memory_is_within_the_coupling_budget(self, t, monkeypatch):
        # Five kernel-sized float arrays at most, the channel's kernel among
        # them: the best coupling, the cells, the scaled base and the
        # projection's result.  An array is 288 KiB here, so numpy's 64 KiB
        # iteration buffers cannot hide a sixth one.
        channel = random_channel(np.random.default_rng(0), 2, 2, 96, 96)
        monkeypatch.setattr(dmc, "_RELAXATION", t)
        monkeypatch.setattr(dmc, "_COUPLING_ROUNDS", 6)
        tracemalloc.start()
        upper_bound_no_discussion(channel)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak + channel.kernel.nbytes <= 5 * 8 * channel.kernel.size


class TestCertificateGap:
    @pytest.mark.parametrize("k", range(4))
    def test_value_plus_gap_bounds_every_vertex(self, k):
        # The objective is concave in p(x|s), so value + gap is at least the
        # maximum over p(x|s), in particular at every deterministic policy.
        channel = random_channel(np.random.default_rng(k), 2, 3, 2, 2)
        for bound in (upper_bound_discussion, upper_bound_no_discussion):
            res = bound(channel)
            q = channel.kernel if res.coupling is None else res.coupling.q
            gap = res.diagnostics["certificate_gap_bits"]
            assert gap >= 0.0
            for vertex in vertices(channel):
                value, _ = _input_value_grad(vertex, channel.state_pmf, q,
                                             _cell_entropy(q, True))
                assert res.value_bits + gap >= value - 1e-13, (bound, vertex)

    def test_gap_at_every_vertex_bounds_every_vertex(self):
        # At a deterministic p(x|s) every other input has probability 0, and
        # the gap needs the partials of those inputs too: value + gap at any
        # vertex bounds the value at every vertex and the ascent's maximum.
        # Sparse kernels leave outputs unreached at some vertices, where the
        # partials are not exact and the gap is inf (at k = 53, the vertex
        # x = 0 read value 0 and gap 0.26 while the maximum is 0.49).
        channels = [(k, random_channel(np.random.default_rng(k), 2, 3, 2, 2))
                    for k in range(20)]
        for k in range(40, 60):
            rng = np.random.default_rng(k)
            channels.append((k, sparse_channel(rng, *rng.integers(1, 4, size=4))))
        for k, channel in channels:
            product = np.einsum("xsr,xse->xsre", channel.receiver_kernel(),
                                channel.eavesdropper_kernel())
            points = vertices(channel)
            for q in (channel.kernel, product):
                h_cell = _cell_entropy(q, True)
                certified = [_certified_value(v, channel.state_pmf, q, h_cell)
                             for v in points]
                best = max([value for value, _ in certified] + [_ascend_input(
                    channel.state_pmf, q, True,
                    np.full(points[0].shape, 1.0 / channel.x_size))[1]])
                for vertex, (value, gap) in zip(points, certified):
                    assert value + gap >= best - 1e-12, (k, vertex)

    def test_capacity_result_carries_the_gap(self):
        channel = factorized_binary(0.1, 0.25)
        cap = discussion_capacity_if_markov(channel,
                                            upper_bound_discussion(channel))
        up = upper_bound_discussion(channel)
        assert cap.diagnostics["certificate_gap_bits"] \
            == up.diagnostics["certificate_gap_bits"]


def ladder_candidate(p, d, eta):
    """The input ascent's step of size ``eta`` from ``p`` along partials ``d``."""
    logp = np.log(np.maximum(p, 1e-300)) + eta * d * LN2
    cand = np.exp(logp - logp.max(axis=1, keepdims=True))
    return cand / cand.sum(axis=1, keepdims=True)


def ladder_ascent(state_pmf, q, given_ye, p0):
    """Reference input ascent without the gap stop: (p, value) once no step
    down to eta = 1e-12 gains _ASCENT_TOL, after five steps in a row gained
    less than 1e-12, or after _ASCENT_MAX_ITER steps."""
    h_cell = _cell_entropy(q, given_ye)
    p = (1.0 - 1e-3) * p0 + 1e-3 / p0.shape[1]
    p /= p.sum(axis=1, keepdims=True)
    value, grad = _input_value_grad(p, state_pmf, q, h_cell)
    eta, stall = 1.0, 0
    for _ in range(_ASCENT_MAX_ITER):
        while eta >= 1e-12:
            cand = ladder_candidate(p, grad, eta)
            cand_value, cand_grad = _input_value_grad(cand, state_pmf, q, h_cell)
            if cand_value > value + _ASCENT_TOL:
                gain = cand_value - value
                p, value, grad = cand, cand_value, cand_grad
                eta = min(eta * 1.5, 64.0)
                break
            eta *= 0.5
        else:
            break
        stall = stall + 1 if gain < 1e-12 else 0
        if stall >= 5:
            break
    return p, value


def every_rung_ascent(state_pmf, q, given_ye, p0):
    """``_ascend_input`` as it was before its ladder ended at the first
    futile rung: the same gap stop and vertex checks, but every ladder
    candidate down to eta = 1e-12 is evaluated.  Evaluations go through
    ``dmc._input_value_grad``, so a spy there counts them."""
    h_cell = _cell_entropy(q, given_ye)
    if np.all((p0 == 0.0) | (p0 == 1.0)):
        value, gap = _certified_value(p0, state_pmf, q, h_cell)
        if gap <= _ASCENT_TOL / 2:
            return p0, value, gap
    p = (1.0 - 1e-3) * p0 + 1e-3 / p0.shape[1]
    p /= p.sum(axis=1, keepdims=True)
    value, grad = dmc._input_value_grad(p, state_pmf, q, h_cell)
    eta, stall = 1.0, 0
    for step in itertools.count():
        gap = _fw_gap(p, state_pmf, grad)
        if gap <= _ASCENT_TOL / 2:
            return p, value, gap
        if stall >= 5 or step == _ASCENT_MAX_ITER:
            break
        while eta >= 1e-12:
            cand = ladder_candidate(p, grad, eta)
            cand_value, cand_grad = dmc._input_value_grad(cand, state_pmf, q,
                                                          h_cell)
            if cand_value > value + _ASCENT_TOL:
                gain = cand_value - value
                p, value, grad = cand, cand_value, cand_grad
                eta = min(eta * 1.5, 64.0)
                break
            eta *= 0.5
        else:
            break
        stall = stall + 1 if gain < 1e-12 else 0
    top = np.eye(p.shape[1])[p.argmax(axis=1)]
    top_value, top_gap = _certified_value(top, state_pmf, q, h_cell)
    if top_value >= value and top_value + top_gap < value + gap:
        return top, top_value, top_gap
    return p, value, gap


class TestInputAscent:
    def test_futile_rungs_are_skipped_without_changing_a_bit(self,
                                                             monkeypatch):
        # The objective is concave and 1-homogeneous in w = p(s) p(x|s), so
        # a candidate's value is at most sum_s p(s) sum_x cand(x|s) d[s, x],
        # d the partials at p; that bound grows with eta (the tilted mean of
        # d does), so once a rung's bound is within _ASCENT_TOL / 2 of the
        # value, no smaller eta can be accepted and the ladder ends there.
        calls = []

        def spy(*args):
            calls.append(None)
            return _input_value_grad(*args)

        monkeypatch.setattr(dmc, "_input_value_grad", spy)
        evaluations = {"every rung": 0, "skipping": 0}
        for k in range(60):
            rng = np.random.default_rng(k)
            sizes = rng.integers(1, 5, size=4)
            channel = (sparse_channel if k % 2 else random_channel)(rng, *sizes)
            product = np.einsum("xsr,xse->xsre", channel.receiver_kernel(),
                                channel.eavesdropper_kernel())
            for q, given_ye in ((channel.kernel, True), (channel.kernel, False),
                                (product, True)):
                for p0 in (np.full((channel.s_size, channel.x_size),
                                   1.0 / channel.x_size),
                           np.eye(channel.x_size)[[0] * channel.s_size]):
                    results = {}
                    for name, ascend in (("every rung", every_rung_ascent),
                                         ("skipping", _ascend_input)):
                        before = len(calls)
                        p, value, gap = ascend(channel.state_pmf, q, given_ye,
                                               p0)
                        results[name] = (p.tobytes(), value, gap)
                        evaluations[name] += len(calls) - before
                    assert results["skipping"] == results["every rung"], \
                        (k, given_ye)
        assert evaluations["skipping"] < evaluations["every rung"]

    def test_gap_stop_keeps_the_ladder_result(self):
        # By concavity value + gap bounds every point, in particular every
        # step of the backtracking ladder (eta = 64 * 2^-k down to 1e-12) at
        # the returned point and every vertex, up to 1e-15 of rounding.  So
        # an ascent stopped on gap <= _ASCENT_TOL / 2 gives up no step it
        # would accept, and where the ascent without that stop ends with
        # such a gap, both return the same bits.  Sparse kernels put maxima
        # on the simplex boundary, where the ascent stalls with a larger gap
        # and may return the argmax vertex of its p instead, never lower.
        stopped = stalled = 0
        for k in range(40):
            rng = np.random.default_rng(k)
            sizes = rng.integers(1, 4, size=4)
            channel = (sparse_channel if k % 2 else random_channel)(rng, *sizes)
            product = np.einsum("xsr,xse->xsre", channel.receiver_kernel(),
                                channel.eavesdropper_kernel())
            p0 = np.full((channel.s_size, channel.x_size), 1.0 / channel.x_size)
            for q, given_ye in ((channel.kernel, True), (channel.kernel, False),
                                (product, True)):
                p, value, gap = _ascend_input(channel.state_pmf, q, given_ye, p0)
                ref_p, ref_value = ladder_ascent(channel.state_pmf, q, given_ye, p0)
                h_cell = _cell_entropy(q, given_ye)
                _, ref_d = _input_value_grad(ref_p, channel.state_pmf, q, h_cell)
                assert value >= ref_value, (k, given_ye)
                if _fw_gap(ref_p, channel.state_pmf, ref_d) <= _ASCENT_TOL / 2:
                    assert np.array_equal(p, ref_p) and value == ref_value, k
                _, d = _input_value_grad(p, channel.state_pmf, q, h_cell)
                assert (value, gap) == _certified_value(p, channel.state_pmf,
                                                        q, h_cell)
                best = max(_input_value_grad(point, channel.state_pmf, q,
                                             h_cell)[0]
                           for point in [ladder_candidate(p, d, eta) for eta
                                         in 64.0 * 0.5 ** np.arange(46)]
                           + vertices(channel))
                assert best <= value + gap + 1e-15, (k, given_ye)
                if gap <= _ASCENT_TOL / 2:
                    stopped += 1
                    assert best <= value + _ASCENT_TOL, (k, given_ye)
                else:
                    stalled += 1
        assert stopped and stalled


    def test_vertex_with_an_unreached_output_is_not_certified(self):
        # At the vertex x = 0 of this channel an output the other inputs
        # charge is unreached, and the discussion objective's gap there reads
        # 0; a start at that vertex must still climb to the interior maximum.
        rng = np.random.default_rng(53)
        channel = sparse_channel(rng, *rng.integers(1, 4, size=4))
        vertex = np.eye(channel.x_size)[[0] * channel.s_size]
        uniform = np.full(vertex.shape, 1.0 / channel.x_size)
        for given_ye in (True, False):
            _, value, _ = _ascend_input(channel.state_pmf, channel.kernel,
                                        given_ye, vertex)
            _, ref_value, _ = _ascend_input(channel.state_pmf, channel.kernel,
                                            given_ye, uniform)
            assert value == pytest.approx(ref_value, abs=1e-9) \
                and value > 0.08, given_ye


class TestLowerBoundDiscussion:
    def test_constant_channel_gives_zero(self):
        channel = constant_channel()
        res = lower_bound_discussion(
            channel, lower_bound_no_discussion(channel, CFG_SMALL))
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
        res = lower_bound_discussion(
            channel, lower_bound_no_discussion(channel, CFG_SMALL))
        assert res.value_bits == pytest.approx(1 - h2(0.1), abs=1e-6)
        assert res.diagnostics["discussion_branch"] == 1.0

    def test_subnormal_input_probability_gives_a_finite_bound(self):
        # Branch 1's ascent drives p(x=1|s=1) down to 5e-324 on this channel,
        # where p(a) p(b) underflows inside the MI kernel.
        channel = random_channel(np.random.default_rng(1034), 2, 2, 2, 2)
        low = lower_bound_discussion(channel,
                                     lower_bound_no_discussion(channel, CFG))
        assert math.isfinite(low.value_bits)
        assert low.value_bits <= upper_bound_discussion(channel).value_bits

    def test_dominates_no_discussion_bound(self):
        rng = np.random.default_rng(57)
        for trial in range(8):
            channel = random_channel(rng)
            cfg = OptimizerConfig(restarts=4, local_steps=30, seed=trial)
            base = lower_bound_no_discussion(channel, cfg)
            disc = lower_bound_discussion(channel, base)
            assert disc.value_bits >= base.value_bits - 1e-9
            # The line above holds by construction; this one does not.  At
            # every p(x|s) branch 1 is H(Yr|Ye) - H(Yr|X,S), at most the
            # upper bound's objective H(Yr|Ye) - H(Yr|X,S,Ye).
            assert branch_one_value(disc) <= \
                certified_ceiling(upper_bound_discussion(channel)) + 1e-12


class TestUpperBoundDiscussion:
    def test_constant_channel_gives_zero(self):
        res = upper_bound_discussion(constant_channel())
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
        res = upper_bound_discussion(channel)
        assert res.value_bits == pytest.approx(0.0, abs=1e-10)

    def test_dominates_discussion_lower_bound_on_random_channels(self):
        rng = np.random.default_rng(73)
        for trial in range(20):
            channel = random_channel(rng)
            cfg = OptimizerConfig(restarts=4, local_steps=30, seed=trial)
            up = upper_bound_discussion(channel)
            low = lower_bound_discussion(
                channel, lower_bound_no_discussion(channel, cfg))
            assert up.value_bits >= low.value_bits - 1e-6


class TestDiscussionCapacity:
    def test_factorized_kernel_is_flagged_capacity(self):
        channel = factorized_binary(0.1, 0.25)
        cap = discussion_capacity_if_markov(channel,
                                            upper_bound_discussion(channel))
        assert cap is not None
        assert cap.diagnostics["is_capacity"] == 1.0
        up = upper_bound_discussion(channel)
        low = lower_bound_discussion(channel,
                                     lower_bound_no_discussion(channel, CFG))
        assert cap.value_bits == pytest.approx(up.value_bits, abs=1e-9)
        assert cap.value_bits == pytest.approx(low.value_bits, abs=5e-3)

    def test_correlated_noise_is_not_applicable(self):
        channel = constant_channel(correlated=True)
        assert discussion_capacity_if_markov(
            channel, upper_bound_discussion(channel)) is None

    def test_constant_independent_channel_is_capacity_zero(self):
        channel = constant_channel()
        cap = discussion_capacity_if_markov(channel,
                                            upper_bound_discussion(channel))
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
            ub = upper_bound_no_discussion(channel)
            lbd = lower_bound_discussion(channel, lb)
            ubd = upper_bound_discussion(channel)
            assert lb.value_bits <= ub.value_bits + 5e-3
            assert lbd.value_bits <= ubd.value_bits + 5e-3
            assert lbd.value_bits >= lb.value_bits - 1e-12
            assert branch_one_value(lbd) <= certified_ceiling(ubd) + 1e-12


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
