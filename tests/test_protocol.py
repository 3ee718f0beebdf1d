"""Codebook construction, typicality coding, and exact leakage accounting."""

import dataclasses
import math
import tracemalloc
from itertools import product

import numpy as np
import pytest

import statekey.sim as sim_module
from statekey import (AuxiliaryEncoderPolicy, BinningCodebook, BudgetError,
                      InputPolicy, SimConfig, StateChannel, build_codebook,
                      decode, encode, exact_leakage, run_no_discussion,
                      run_one_round_discussion)
from statekey.channel import mi_bits
from statekey.sim import (SimReport, TrialStreams, _cdf_columns, _draw,
                          _entropy, _indicators, _kernel_columns,
                          _no_disc_tables, _one_round_tables, _reconstruct,
                          _rng_stream, _trial_draws, _Typicality,
                          one_round_exact_leakage)
from conftest import (S, X, YE, YR, bsc_matrix, cmi_ref, copy_encoder_policy,
                      degraded_binary_wiretap, entropy_ref,
                      erasure_eavesdropper_channel, factorized_binary,
                      identity_channel, joint_uxsre, random_aux_policy,
                      random_channel, sparse_channel, uniform_input_policy)

COPY_POLICY = copy_encoder_policy()

# The pinned degraded benchmark used throughout: flips 0.1 / 0.2 (composite),
# margin 0.2, seed 42; epsilon 0.25 keeps every balanced-ish codeword
# selectable at n = 6.
BENCH6 = SimConfig(n=6, epsilon=0.25, rate_margin=0.2, trials=200, seed=42)


def two_state_copy_policy():
    """u = s deterministically, x uniform (binary state)."""
    return AuxiliaryEncoderPolicy(2, np.eye(2), np.full((2, 2, 2), 0.5))


def state_echo_channel():
    """yr = s whatever x is, and a constant ye."""
    kernel = np.zeros((2, 2, 2, 2))
    for s in range(2):
        kernel[:, s, s, 0] = 1.0
    return StateChannel.from_arrays([0.5, 0.5], kernel)


def xor_policy():
    """Uniform binary u independent of s, sent as x = u xor s."""
    x_given_us = np.zeros((2, 2, 2))
    for u in range(2):
        for s in range(2):
            x_given_us[u, s, u ^ s] = 1.0
    return AuxiliaryEncoderPolicy(2, np.full((2, 2), 0.5), x_given_us)


def partly_deterministic_channel():
    """yr = x xor s exactly when s = 0 and through a BSC(0.2) when s = 1;
    ye = BSC(0.3)(x xor s)."""
    kernel = np.zeros((2, 2, 2, 2))
    for x in range(2):
        for s in range(2):
            kernel[x, s] = np.outer(bsc_matrix(0.2 * s)[x ^ s],
                                    bsc_matrix(0.3)[x ^ s])
    return StateChannel.from_arrays([0.5, 0.5], kernel)


# Laws of yr given (x, s) with one positive cell in every (x, s) column, with
# two in every column, with both kinds of column, and a sparse random law
# over three inputs, two states and three outputs.
RECONSTRUCT_CHANNELS = {"one-cell": factorized_binary(0.0, 0.3),
                        "two-cell": factorized_binary(0.1, 0.25),
                        "both": partly_deterministic_channel(),
                        "sparse": sparse_channel(np.random.default_rng(5),
                                                 3, 2, 3, 2)}


def kron_law(rows):
    """Flat law of independent symbols by explicit Kronecker products."""
    vec = np.ones(1)
    for row in rows:
        vec = np.kron(vec, row)
    return vec


def run_leakage(codebook, channel, policy, cfg):
    """``exact_leakage`` of the codebook with the run tables of ``cfg``."""
    return exact_leakage(codebook, channel, policy, _no_disc_tables(
        channel, policy, codebook, cfg.epsilon))


def reference_exact_leakage(codebook, channel, policy, cfg):
    """I(K; Ye^n) / n by enumerating every (state sequence, codeword) pair."""
    n = codebook.n
    p_us = (channel.state_pmf[:, None] * policy.u_given_s).T
    p_ye_us = np.einsum("usx,xse->use", policy.x_given_us,
                        channel.eavesdropper_kernel())
    test = _Typicality(p_us, n, cfg.epsilon)
    codewords = _indicators(codebook.sequences, policy.u_size)
    table = np.zeros((codebook.num_bins, channel.ye_size ** n))
    for s_tuple in product(range(channel.s_size), repeat=n):
        s_seq = np.array(s_tuple)
        mask = test.pairs(codewords, s_seq[None])[0]
        weights = mask / mask.sum() if mask.any() \
            else np.full(codebook.count, 1.0 / codebook.count)
        for c in np.flatnonzero(weights):
            table[codebook.bin_of[c]] += np.prod(channel.state_pmf[s_seq]) \
                * weights[c] * kron_law(p_ye_us[codebook.sequences[c], s_seq])
    return float(mi_bits(table / table.sum())) / n


def reference_one_round_leakage(tables, channel, policy, n):
    """I(K; Ye^n, public bin) / n by one Kronecker product per yr^n."""
    m = np.einsum("s,sx,xsre->re", channel.state_pmf, policy.x_given_s,
                  channel.kernel)
    table = np.zeros((tables.num_bins + 1, tables.num_subbins,
                      channel.ye_size ** n))
    for yr_seq, b, sub in zip(tables.all_yr, tables.bin_of, tables.sub_of):
        table[b, sub] += kron_law(m[yr_seq])
    key_vs_view = np.moveaxis(table, 1, 0).reshape(tables.num_subbins, -1)
    return float(mi_bits(key_vs_view / key_vs_view.sum())) / n


def typical_rows(rows, fixed, pmf, eps):
    """Strong typicality of each row of ``rows`` against one sequence, by
    explicit one-hot cell counts."""
    a_size, b_size = pmf.shape
    counts = ((rows[:, :, None, None] == np.arange(a_size)[:, None])
              & (fixed[:, None] == np.arange(b_size))[None, :, None]).sum(axis=1)
    emp = counts / rows.shape[1]
    return ((np.abs(emp - pmf) <= eps + 1e-12).all(axis=(1, 2))
            & (counts[:, pmf <= 0] == 0).all(axis=1))


def log_yr_given_xs(channel, policy):
    """log p(yr | x, s) of a one-round run, shape (|X| |S|, |Yr|) with (x, s)
    coded x * |S| + s, and -inf on a cell of probability 0."""
    joint = np.einsum("s,sx,xsr->xsr", channel.state_pmf, policy.x_given_s,
                      channel.receiver_kernel()).reshape(-1, channel.yr_size)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log(joint / joint.sum(axis=1, keepdims=True))


def ml_reconstruction(tables, log_law, xs_seq, b):
    """The per-trial oracle of ``_reconstruct``: (member, failure) for the
    (x, s) sequence ``xs_seq`` and the published bin ``b``, scoring each
    member of the bin by its summed log p(yr_i | x_i, s_i).  The member of
    the largest score wins; an empty bin, a bin whose members all have zero
    likelihood, and a second member within 1e-12 of the top score (a tie)
    give member -1 and the failure's name."""
    members = np.flatnonzero(tables.bin_of == b)
    if not members.size:
        return -1, "empty bin"
    log_lik = log_law[xs_seq, tables.all_yr[members]].sum(axis=1)
    top = log_lik.max()
    if top == -np.inf:
        return -1, "zero likelihood"
    if np.count_nonzero(log_lik >= top - 1e-12) > 1:
        return -1, "tie"
    return members[log_lik.argmax()], None


def reconstruct_case(name, n, epsilon):
    """(tables, xs_seqs, published, expected, failures) of 80 + |bins|
    reconstruction trials on ``RECONSTRUCT_CHANNELS[name]``, ``expected``
    and ``failures`` from the per-trial oracle ``ml_reconstruction``.

    The first 40 trials publish their output's bin, the next 40 any bin,
    the overflow bin included.  The last trials repeat x = s = 0, one in
    each bin and the overflow bin."""
    channel = RECONSTRUCT_CHANNELS[name]
    policy = uniform_input_policy(channel)
    cfg = SimConfig(n=n, epsilon=epsilon, rate_margin=0.2, trials=1, seed=7)
    tables = _one_round_tables(channel, policy, cfg)
    rng = np.random.default_rng(n)
    xs_seqs = rng.integers(0, channel.x_size, size=(80, n)) * channel.s_size \
        + rng.integers(0, channel.s_size, size=(80, n))
    yr_seqs = _draw(_cdf_columns(channel.receiver_kernel().reshape(
        -1, channel.yr_size)), xs_seqs, rng.random((80, n)))
    powers = channel.yr_size ** np.arange(n - 1, -1, -1)
    published = np.concatenate([tables.bin_of[yr_seqs[:40] @ powers],
                                rng.integers(0, tables.num_bins + 1, size=40)])
    bins = np.arange(tables.num_bins + 1)
    xs_seqs = np.vstack([xs_seqs, np.zeros((len(bins), n), dtype=int)])
    published = np.concatenate([published, bins])
    log_law = log_yr_given_xs(channel, policy)
    expected, failures = zip(*(ml_reconstruction(tables, log_law, xs_seq, b)
                               for xs_seq, b in zip(xs_seqs, published)))
    return tables, xs_seqs, published, np.array(expected), failures


def draw(cdf_rows, rng):
    """One categorical draw per row of cumulative pmfs."""
    return (cdf_rows < rng.random(len(cdf_rows))[:, None]).sum(axis=1)


def reference_run_no_discussion(channel, policy, cfg, events):
    """run_no_discussion one trial at a time; adds the branches taken to
    ``events``."""
    cb = build_codebook(channel, policy, cfg)
    n = cfg.n
    p_us = (channel.state_pmf[:, None] * policy.u_given_s).T
    joint = np.einsum("us,usx,xsr->ur", p_us, policy.x_given_us,
                      channel.receiver_kernel())
    with np.errstate(divide="ignore"):
        log_yr_given_u = np.log(joint / np.maximum(
            joint.sum(axis=1, keepdims=True), np.finfo(float).tiny))
    state_cdf = np.tile(np.cumsum(channel.state_pmf), (n, 1))
    x_cdf = np.cumsum(policy.x_given_us, axis=2)
    kernel_cdf = np.cumsum(channel.kernel.reshape(
        channel.x_size, channel.s_size, -1), axis=2)
    key_counts = np.zeros(cb.num_bins)
    disagreements = failures = 0
    for t in range(cfg.trials):
        rng = _rng_stream(cfg.seed, 1, t)
        s_seq = draw(state_cdf, rng)
        candidates = np.flatnonzero(typical_rows(cb.sequences, s_seq, p_us,
                                                 cfg.epsilon))
        if candidates.size:
            index = candidates[rng.integers(candidates.size)]
        else:
            events.add("encode fallback")
            failures += 1
            index = rng.integers(cb.count)
        x_seq = draw(x_cdf[cb.sequences[index], s_seq], rng)
        yr_seq = draw(kernel_cdf[x_seq, s_seq], rng) // channel.ye_size
        key = int(cb.bin_of[index])
        key_counts[key] += 1
        # Bin-wise maximum likelihood, bins summed in codeword order.
        log_lik = log_yr_given_u[cb.sequences, yr_seq].sum(axis=1)
        top = log_lik.max()
        sums = np.zeros(cb.num_bins)
        if top == -np.inf:
            events.add("zero likelihood")
        else:
            for c in range(cb.count):
                sums[cb.bin_of[c]] += np.exp(log_lik[c] - top)
        best = sums.argmax()
        tie = np.count_nonzero(sums >= sums[best] * (1.0 - 1e-12)) > 1
        if tie and top > -np.inf:
            events.add("decode tie")
        if top == -np.inf or tie or best != key:
            disagreements += 1
    return SimReport(
        disagreement_prob=disagreements / cfg.trials,
        leakage_bits_per_symbol=run_leakage(cb, channel, policy, cfg),
        achieved_key_rate=_entropy(key_counts / cfg.trials) / n,
        encode_failure_rate=failures / cfg.trials, leakage_method="exact",
        diagnostics={"num_sequences": float(cb.count),
                     "num_bins": float(cb.num_bins),
                     "total_rate": cb.total_rate,
                     "key_rate": cb.key_rate,
                     "trials": float(cfg.trials)})


def reference_run_one_round(channel, policy, cfg, events):
    """run_one_round_discussion one trial at a time, with three separate
    n-uniform draws per trial; adds the branches taken to ``events``."""
    tables = _one_round_tables(channel, policy, cfg)
    n = cfg.n
    sizes = np.bincount(tables.bin_of, minlength=tables.num_bins + 1)
    if (sizes[:tables.num_bins] == 0).any():
        events.add("empty public bin")
    state_cdf = np.tile(np.cumsum(channel.state_pmf), (n, 1))
    x_cdf = np.cumsum(policy.x_given_s, axis=1)
    kernel_cdf = np.cumsum(channel.kernel.reshape(
        channel.x_size, channel.s_size, -1), axis=2)
    powers = channel.yr_size ** np.arange(n - 1, -1, -1)
    log_law = log_yr_given_xs(channel, policy)
    key_counts = np.zeros(tables.num_subbins)
    disagreements = failures = correct = 0
    for t in range(cfg.trials):
        rng = _rng_stream(cfg.seed, 1, t)
        s_seq = draw(state_cdf, rng)
        x_seq = draw(x_cdf[s_seq], rng)
        yr_seq = draw(kernel_cdf[x_seq, s_seq], rng) // channel.ye_size
        yr_index = int((yr_seq * powers).sum())
        published = tables.bin_of[yr_index]
        if published == tables.num_bins:
            events.add("overflow bin")
        key = tables.sub_of[yr_index]
        key_counts[key] += 1
        found, failure = ml_reconstruction(
            tables, log_law, x_seq * channel.s_size + s_seq, published)
        if failure is not None:
            events.add(f"reconstruction {failure}")
            failures += 1
            disagreements += 1
            continue
        correct += int(found == yr_index)
        disagreements += int(tables.sub_of[found] != key)
    return SimReport(
        disagreement_prob=disagreements / cfg.trials,
        leakage_bits_per_symbol=one_round_exact_leakage(tables),
        achieved_key_rate=_entropy(key_counts / cfg.trials) / n,
        encode_failure_rate=failures / cfg.trials, leakage_method="exact",
        diagnostics={
            "reconstruction_failure_rate": failures / cfg.trials,
            "reconstruction_success_rate": 1.0 - failures / cfg.trials,
            "unique_lookups": float(cfg.trials - failures),
            "unique_and_correct": float(correct),
            "num_public_bins": float(tables.num_bins),
            "num_subbins": float(tables.num_subbins),
            "key_rate_target": tables.key_rate_target,
            "trials": float(cfg.trials)})


def random_leakage_case(seed, s_size, ye_size, n, singleton):
    """A random channel, policy and codebook of 3-6 binary codewords."""
    rng = np.random.default_rng(seed)
    channel = random_channel(rng, 2, s_size, 2, ye_size)
    policy = random_aux_policy(rng, channel, u_size=2)
    count = int(rng.integers(3, 7))
    bins = count if singleton else 2
    cb = BinningCodebook(sequences=rng.integers(0, 2, size=(count, n)),
                         bin_of=rng.permutation(np.arange(count) % bins),
                         num_bins=bins)
    # Wide enough that most state sequences have typical codewords, narrow
    # enough that some fall back to the whole codebook.
    cfg = SimConfig(n=n, epsilon=float(rng.uniform(0.25, 0.6)),
                    rate_margin=0.1, trials=1, seed=seed)
    return cb, channel, policy, cfg


def random_one_round_case(seed, ye_size, n):
    """yr = BSC(flip <= 0.1)(x xor s) and a random eavesdropper row per (x, s),
    so the key exponent is positive and there is more than one sub-bin."""
    rng = np.random.default_rng(seed)
    receiver = bsc_matrix(rng.uniform(0.0, 0.1))
    eve = rng.dirichlet(np.ones(ye_size), size=(2, 2))
    kernel = np.zeros((2, 2, 2, ye_size))
    for x in range(2):
        for s in range(2):
            kernel[x, s] = np.outer(receiver[x ^ s], eve[x, s])
    channel = StateChannel.from_arrays(rng.dirichlet(np.ones(2)), kernel)
    policy = InputPolicy(rng.dirichlet(np.ones(2), size=2))
    cfg = SimConfig(n=n, epsilon=0.3, rate_margin=0.05, trials=1, seed=seed)
    tables = _one_round_tables(channel, policy, cfg)
    assert tables.num_subbins > 1
    return tables, channel, policy, cfg


# (|S|, |Ye|, n): every size from 1 to 3 and every block length from 2 to 5.
LEAKAGE_SIZES = [(1, 1, 2), (1, 3, 5), (2, 2, 4), (2, 3, 3), (3, 1, 5),
                 (3, 2, 2), (3, 3, 4), (2, 1, 3)]
ONE_ROUND_SIZES = [(1, 2), (2, 5), (3, 3), (2, 4)]


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(n=0, epsilon=0.1, rate_margin=0.1, trials=1, seed=0)
        with pytest.raises(ValueError):
            SimConfig(n=4, epsilon=0.0, rate_margin=0.1, trials=1, seed=0)
        with pytest.raises(ValueError):
            SimConfig(n=4, epsilon=float("nan"), rate_margin=0.1, trials=1, seed=0)
        with pytest.raises(ValueError):
            SimConfig(n=4, epsilon=0.1, rate_margin=float("nan"), trials=1, seed=0)
        for bad in (dict(n=2.5), dict(trials=2.5), dict(seed=1.5), dict(n=True),
                    dict(trials=float("nan"))):
            fields = dict(n=4, epsilon=0.1, rate_margin=0.1, trials=1, seed=0)
            with pytest.raises(ValueError):
                SimConfig(**{**fields, **bad})


class TestBuildCodebook:
    def test_sizing_rule_exact_powers(self):
        # I(U;Yr) = 1 (noiseless receiver), I(U;Ye) = 1/2 (erasure with
        # probability 1/2), margin 1/8 at n = 8: 2^7 sequences in 2^3 bins
        # of expected size 2^4.
        channel = erasure_eavesdropper_channel(erase=0.5)
        cfg = SimConfig(n=8, epsilon=0.2, rate_margin=0.125, trials=1, seed=1)
        cb = build_codebook(channel, COPY_POLICY, cfg)
        assert cb.count == 2 ** 7
        assert cb.num_bins == 2 ** 3
        sizes = np.bincount(cb.bin_of, minlength=cb.num_bins)
        assert sizes.sum() == 2 ** 7
        assert sizes.min() == sizes.max() == 2 ** 4
        assert cb.total_rate == pytest.approx(7 / 8)
        assert cb.key_rate == pytest.approx(3 / 8)
        assert cb.per_bin_rate == pytest.approx(4 / 8)

    def test_zero_eavesdropper_information_gives_singleton_bins(self):
        cfg = SimConfig(n=8, epsilon=0.2, rate_margin=0.125, trials=1, seed=1)
        cb = build_codebook(identity_channel(), COPY_POLICY, cfg)
        assert cb.num_bins == cb.count
        assert np.array_equal(np.sort(cb.bin_of), np.arange(cb.count))

    def test_nonpositive_key_rate_collapses_to_single_bin(self):
        # Eavesdropper as good as the receiver: key exponent <= 0.
        channel = degraded_binary_wiretap(0.1, 0.1000001)
        cfg = SimConfig(n=6, epsilon=0.25, rate_margin=0.2, trials=50, seed=3)
        cb = build_codebook(channel, COPY_POLICY, cfg)
        assert cb.num_bins == 1
        assert cb.key_rate == 0.0
        report = run_no_discussion(channel, COPY_POLICY, cfg)
        assert report.leakage_bits_per_symbol == pytest.approx(0.0, abs=1e-12)

    def test_codebook_validation(self):
        seqs = np.zeros((2, 4), dtype=int)
        for bins, num_bins in (([0, 0], 0), ([0, 1], 2.5), ([0, 0], True),
                               ([0, 2], 2), ([0, 0], 2)):
            with pytest.raises(ValueError):
                BinningCodebook(sequences=seqs, bin_of=np.array(bins),
                                num_bins=num_bins)
        for empty in (np.zeros((0, 4), dtype=int), np.zeros((2, 0), dtype=int)):
            with pytest.raises(ValueError, match="nonempty"):
                BinningCodebook(sequences=empty, bin_of=np.zeros(len(empty)),
                                num_bins=1)
        BinningCodebook(sequences=seqs, bin_of=np.array([1, 0]),
                        num_bins=np.int64(2))

    def test_rates_are_derived_from_the_sizes(self):
        cb = BinningCodebook(sequences=np.zeros((3, 4), dtype=int),
                             bin_of=np.array([0, 1, 0]), num_bins=2)
        assert cb.total_rate == math.log2(3) / 4
        assert cb.key_rate == 0.25
        assert cb.per_bin_rate == math.log2(3) / 4 - 0.25
        singleton = cb.with_singleton_bins()
        assert (singleton.total_rate, singleton.key_rate,
                singleton.per_bin_rate) == (math.log2(3) / 4,) * 2 + (0.0,)

    def test_oversized_codebook_rejected(self):
        cfg = SimConfig(n=24, epsilon=0.2, rate_margin=0.01, trials=1, seed=0)
        with pytest.raises(BudgetError, match="rate_margin"):
            build_codebook(identity_channel(), COPY_POLICY, cfg)

    def test_rate_identity_and_nonempty_bins(self, degraded_channel):
        cb = build_codebook(degraded_channel, COPY_POLICY, BENCH6)
        assert cb.total_rate == pytest.approx(
            cb.key_rate + cb.per_bin_rate, abs=1e-12)
        assert np.unique(cb.bin_of).size == cb.num_bins


# (pmf, epsilon, state sequences) at n = 8 for the enumerated typicality test.
TYPICALITY_CASES = {
    # Product-uniform p(u, s) at epsilon = 0.1: acceptance means every joint
    # cell count stays within 0.8 of the expected 2.
    "uniform": (np.full((2, 2), 0.25), 0.1,
                np.random.default_rng(17).integers(0, 2, size=(1, 8))),
    # Column s = 0 has one positive cell, whose band admits 3-5 of the 8
    # symbols: the first s^n (four zeros) meets it, the second (two zeros)
    # does not, though 20 u^n meet every other cell's band against it.
    "one-cell-column": (np.array([[0.5, 0.25], [0.0, 0.25]]), 0.15,
                        np.array([[0, 1, 0, 1, 1, 0, 1, 0],
                                  [1, 1, 0, 1, 1, 1, 0, 1]])),
}


class TestTypicality:
    @pytest.mark.parametrize("case", sorted(TYPICALITY_CASES))
    def test_enumerated_acceptance_set_matches_direct_count_oracle(self, case):
        pmf, eps, s_seqs = TYPICALITY_CASES[case]
        n = s_seqs.shape[1]
        u_seqs = np.array([[(code >> i) & 1 for i in range(n)]
                           for code in range(2 ** n)])
        typical = _Typicality(pmf, n, eps).pairs(_indicators(u_seqs, 2), s_seqs)
        hits = 0
        for t, s_seq in enumerate(s_seqs):
            for code, u_seq in enumerate(u_seqs):
                counts = np.zeros((2, 2))
                for a, b in zip(u_seq, s_seq):
                    counts[a, b] += 1
                expected = bool((np.abs(counts / n - pmf) <= eps + 1e-12).all()
                                and (counts[pmf == 0] == 0).all())
                assert typical[t, code] == expected
                hits += expected
        assert 0 < hits < len(s_seqs) * 2 ** n

    def test_zero_probability_cells_must_be_empty(self):
        pmf = np.array([[0.5, 0.0], [0.0, 0.5]])
        typical = _Typicality(pmf, 4, 0.3).pairs(
            _indicators(np.array([[0, 1, 0, 1]]), 2),
            np.array([[0, 1, 0, 1], [0, 1, 0, 0]]))
        assert typical[:, 0].tolist() == [True, False]


class TestEncode:
    def test_copy_encoder_tracks_state(self):
        # u = s policy with every state sequence present as a codeword.
        channel = state_echo_channel()
        policy = two_state_copy_policy()
        n = 4
        seqs = np.array([[(code >> i) & 1 for i in range(n)]
                         for code in range(2 ** n)])
        cb = BinningCodebook(sequences=seqs, bin_of=np.arange(2 ** n),
                             num_bins=2 ** n)
        rng = _rng_stream(5, 9)
        # Epsilon beyond 0.5 makes the cell band vacuous, so only the
        # zero-cell rule binds and exactly u = s survives.
        s_seqs = rng.integers(0, 2, size=(20, n))
        enc = encode(cb, _no_disc_tables(channel, policy, cb, 0.6), s_seqs,
                     TrialStreams(5, (9,), range(20), n + 1))
        assert enc.typical.all()
        assert np.array_equal(cb.sequences[enc.index], s_seqs)

    def test_empty_typical_set_returns_failure(self, degraded_channel):
        cb = BinningCodebook(sequences=np.zeros((3, 6), dtype=int),
                             bin_of=np.arange(3), num_bins=3)
        # All-zero codewords are never typical for a uniform u-marginal.
        tables = _no_disc_tables(degraded_channel, COPY_POLICY, cb, 0.25)
        enc = encode(cb, tables, np.zeros((1, 6), dtype=int),
                     TrialStreams(1, (1,), [0], 7))
        assert not enc.typical[0]

    def test_selection_uniform_over_candidates(self, degraded_channel):
        cb = build_codebook(degraded_channel, COPY_POLICY, BENCH6)
        tables = _no_disc_tables(degraded_channel, COPY_POLICY, cb, 0.25)
        enc = encode(cb, tables, np.zeros((4000, 6), dtype=int),
                     TrialStreams(2, (2,), range(4000), 7))
        assert enc.typical.all()
        picks = np.bincount(enc.index, minlength=cb.count)
        eligible = picks > 0
        assert eligible.sum() == 4
        assert picks[eligible].min() > 4000 / 4 * 0.8

    def test_symbols_outside_the_alphabet_are_rejected(self):
        # On the sim-nodisc tables, with their state table and without it:
        # s = 2 or -1 would draw x^n from another (u, s) cell, or read
        # another state sequence's row of the table.
        cfg = SimConfig(n=10, epsilon=0.15, rate_margin=0.2, trials=1, seed=42)
        channel, policy = factorized_binary(), xor_policy()
        cb = build_codebook(channel, policy, cfg)
        tables = _no_disc_tables(channel, policy, cb, cfg.epsilon)
        assert tables.state_typical is not None
        for run_tables in (tables, dataclasses.replace(tables,
                                                       state_typical=None)):
            for bad in (2, -1, 5):
                s_seqs = np.zeros((3, 10), dtype=int)
                s_seqs[1, 4] = bad
                with pytest.raises(ValueError, match=r"s symbols .* \[0, 2\)"):
                    encode(cb, run_tables, s_seqs,
                           TrialStreams(1, (1,), range(3), 31))


class TestDecode:
    def test_noiseless_channel_decodes_exactly(self):
        channel = identity_channel()
        cfg = SimConfig(n=6, epsilon=0.5, rate_margin=0.35, trials=1, seed=2)
        cb = build_codebook(channel, COPY_POLICY, cfg)
        assert np.unique(cb.sequences, axis=0).shape[0] == cb.count
        rng = _rng_stream(3, 3)
        tables = _no_disc_tables(channel, COPY_POLICY, cb, 0.5)
        s_seqs = np.zeros((20, 6), dtype=int)
        enc = encode(cb, tables, s_seqs, TrialStreams(3, (3,), range(20), 7))
        yr_seqs = _draw(tables.kernel_cols, enc.x_seq * channel.s_size + s_seqs,
                        rng.random((20, 6)))
        keys = decode(cb, tables, yr_seqs)
        assert (keys >= 0).all()
        assert np.array_equal(keys, cb.bin_of[enc.index])

    def test_ambiguity_is_failure(self):
        channel = identity_channel()
        seqs = np.array([[0, 1, 0, 1], [0, 1, 0, 1], [1, 0, 1, 0]])
        cb = BinningCodebook(sequences=seqs, bin_of=np.array([0, 1, 0]),
                             num_bins=2)
        tables = _no_disc_tables(channel, COPY_POLICY, cb, 0.3)
        keys = decode(cb, tables, np.array([[0, 1, 0, 1], [1, 0, 1, 0]]))
        assert keys.tolist() == [-1, 0]

    def test_key_is_the_bin_with_the_largest_likelihood_sum(self):
        # yr = BSC(0.3)(u).  For yr = 0000 the lone codeword 0000 scores
        # 0.7^4 = 0.2401, while bin 1 sums 3 * 0.7^3 * 0.3 = 0.3087: the key
        # is bin 1 even though the single most likely codeword is in bin 0.
        channel = degraded_binary_wiretap(flip_r=0.3, flip_e_total=0.4)
        seqs = np.array([[0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0],
                         [0, 1, 0, 0]])
        cb = BinningCodebook(sequences=seqs, bin_of=np.array([0, 1, 1, 1]),
                             num_bins=2)
        keys = decode(cb, _no_disc_tables(channel, COPY_POLICY, cb, 0.3),
                      np.zeros((1, 4), dtype=int))
        assert keys[0] == 1

    def test_symbols_outside_the_alphabet_are_rejected(self):
        channel = identity_channel()
        cb = BinningCodebook(sequences=np.array([[0, 1, 0, 1]]), bin_of=[0],
                             num_bins=1)
        tables = _no_disc_tables(channel, COPY_POLICY, cb, 0.3)
        for yr in ([0, 1, 2, 1], [0, -1, 0, 1]):
            with pytest.raises(ValueError, match=r"in \[0, 2\)"):
                decode(cb, tables, np.array([yr]))
        other = BinningCodebook(sequences=np.zeros((2, 4), int), bin_of=[0, 0],
                                num_bins=1)
        with pytest.raises(ValueError, match="another codebook"):
            decode(other, tables, np.zeros((1, 4), int))

    def test_zero_likelihood_everywhere_is_failure(self):
        channel = identity_channel()
        seqs = np.array([[0, 0, 0, 0], [1, 1, 1, 1]])
        cb = BinningCodebook(sequences=seqs, bin_of=np.array([0, 1]),
                             num_bins=2)
        keys = decode(cb, _no_disc_tables(channel, COPY_POLICY, cb, 0.3),
                      np.array([[0, 1, 0, 1]]))
        assert keys[0] == -1


# The largest uniform a stream draws: (2^53 - 1) 2^-53.
LAST_UNIFORM = 1.0 - 2.0 ** -53


def short_mass_channel(state_pmf=(0.5, 0.5)):
    """Binary alphabets whose kernel row at (x, s) = (0, 0) sums to
    1 - 5e-13, inside the accepted mass tolerance."""
    kernel = np.full((2, 2, 2, 2), 0.25)
    kernel[0, 0, 1, 1] -= 5e-13
    return StateChannel.from_arrays(state_pmf, kernel)


class TestDraws:
    def test_a_short_kernel_row_draws_inside_the_alphabet(self):
        # The row's cdf ends at 1 - 5e-13, below the uniform: the joint draw
        # is its last (yr, ye) pair, not the pair index 4 past the alphabet,
        # and the receiver's draw its last yr, not 2.
        channel = short_mass_channel()
        joint = _cdf_columns(channel.kernel.reshape(4, 4))
        assert _draw(joint, 0, LAST_UNIFORM) == 3
        assert _draw(_kernel_columns(channel), 0, LAST_UNIFORM) == 1

    def test_a_short_state_pmf_draws_inside_the_alphabet(self):
        # p(s) sums to 1 - 5e-13; both modes draw s from their run tables.
        channel = short_mass_channel((0.5, 0.5 - 5e-13))
        cfg = SimConfig(n=4, epsilon=0.3, rate_margin=0.2, trials=1, seed=0)
        cb = BinningCodebook(sequences=np.zeros((1, 4), int), bin_of=[0],
                             num_bins=1)
        uniforms = np.array([[0.0, 0.5, 0.5 + 2.0 ** -53, LAST_UNIFORM]])
        for tables in (_no_disc_tables(channel, xor_policy(), cb, cfg.epsilon),
                       _one_round_tables(channel, uniform_input_policy(channel),
                                         cfg)):
            assert _draw(tables.state_cols, 0, uniforms).tolist() == [[0, 0, 1, 1]]

    def test_column_draws_equal_the_full_cdf_comparison(self):
        # Inside every row's total mass the draw counts the thresholds below
        # the uniform, the ties included, as the per-trial oracle ``draw`` does.
        rng = np.random.default_rng(3)
        pmf = rng.dirichlet(np.ones(5), size=7)
        pmf[2] = [0.0, 0.5, 0.0, 0.5, 0.0]
        cdf = np.cumsum(pmf, axis=1)
        cells = rng.integers(0, 7, size=(40, 9))
        uniforms = rng.random((40, 9)) * cdf[cells, -1]
        uniforms[0, :5] = cdf[2]                    # exactly on a threshold
        cells[0, :5] = 2
        expected = (cdf[cells] < uniforms[..., None]).sum(axis=-1)
        assert np.array_equal(_draw(_cdf_columns(pmf), cells, uniforms), expected)


class TestExactLeakage:
    def test_single_bin_leaks_nothing(self, degraded_channel):
        cb = build_codebook(degraded_channel, COPY_POLICY, BENCH6)
        collapsed = BinningCodebook(
            sequences=cb.sequences, bin_of=np.zeros(cb.count, dtype=int),
            num_bins=1)
        assert run_leakage(collapsed, degraded_channel, COPY_POLICY,
                           BENCH6) == pytest.approx(0.0, abs=1e-12)

    def test_constant_eavesdropper_leaks_nothing(self):
        channel = identity_channel()
        cfg = SimConfig(n=6, epsilon=0.5, rate_margin=0.35, trials=1, seed=2)
        cb = build_codebook(channel, COPY_POLICY, cfg)
        assert run_leakage(cb, channel, COPY_POLICY,
                           cfg) == pytest.approx(0.0, abs=1e-12)

    def test_binning_reduces_leakage_on_pinned_benchmark(self, degraded_channel):
        cb = build_codebook(degraded_channel, COPY_POLICY, BENCH6)
        binned = run_leakage(cb, degraded_channel, COPY_POLICY, BENCH6)
        unbinned = run_leakage(cb.with_singleton_bins(), degraded_channel,
                               COPY_POLICY, BENCH6)
        # Frozen from the seeded oracle run (seed 42, epsilon 0.25).
        assert binned == pytest.approx(0.04042732274101755, abs=1e-9)
        assert unbinned == pytest.approx(0.10197708716288477, abs=1e-9)
        assert binned < unbinned
        assert binned <= 0.15

    def test_benchmark_value_is_pinned(self):
        # The no-discussion benchmark configuration; frozen from the
        # implementation that tested one state sequence at a time.
        cfg = SimConfig(n=10, epsilon=0.15, rate_margin=0.2, trials=1, seed=42)
        channel, policy = factorized_binary(), xor_policy()
        cb = build_codebook(channel, policy, cfg)
        assert run_leakage(cb, channel, policy, cfg) == 0.05153055257201311

    def test_budget_guard(self):
        # |S| = |Ye| = 2 at n = 24 puts the enumeration far beyond the cap,
        # so build_codebook refuses before its draw.  exact_leakage checks
        # the cost too: a codebook built directly, or viewed with singleton
        # bins, was never budgeted by a draw.
        channel = factorized_binary(0.1, 0.25)
        policy = copy_encoder_policy(s_size=2)
        big = SimConfig(n=24, epsilon=0.25, rate_margin=0.9, trials=1, seed=0)
        with pytest.raises(BudgetError, match="multiply-adds"):
            build_codebook(channel, policy, big)
        cb = BinningCodebook(sequences=np.zeros((4, 24), int),
                             bin_of=np.arange(4), num_bins=4)
        with pytest.raises(BudgetError, match="multiply-adds"):
            run_leakage(cb, channel, policy, big)

    def test_tables_of_another_codebook_are_rejected(self, degraded_channel):
        # Like encode and decode, the leakage reads the encoder's test and
        # codewords from run tables that must belong to its codebook.
        cb = build_codebook(degraded_channel, COPY_POLICY, BENCH6)
        tables = _no_disc_tables(degraded_channel, COPY_POLICY, cb, 0.25)
        other = BinningCodebook(sequences=cb.sequences[1:],
                                bin_of=np.arange(cb.count - 1),
                                num_bins=cb.count - 1)
        with pytest.raises(ValueError, match="another codebook"):
            encode(other, tables, np.zeros((1, 6), dtype=int),
                   TrialStreams(1, (1,), [0], 7))
        with pytest.raises(ValueError, match="another codebook"):
            exact_leakage(other, degraded_channel, COPY_POLICY, tables)

    def test_leakage_never_exceeds_key_entropy(self, degraded_channel):
        for seed in (1, 2, 3):
            cfg = SimConfig(n=6, epsilon=0.25, rate_margin=0.2, trials=10,
                            seed=seed)
            cb = build_codebook(degraded_channel, COPY_POLICY, cfg)
            leak = run_leakage(cb, degraded_channel, COPY_POLICY, cfg)
            assert -1e-9 <= leak <= cb.key_rate + 1e-9

    @pytest.mark.parametrize("singleton", [True, False])
    @pytest.mark.parametrize("sizes", LEAKAGE_SIZES)
    def test_mode_products_match_kronecker_enumeration(self, sizes, singleton):
        seed = LEAKAGE_SIZES.index(sizes)
        cb, channel, policy, cfg = random_leakage_case(seed, *sizes, singleton)
        assert run_leakage(cb, channel, policy, cfg) == pytest.approx(
            reference_exact_leakage(cb, channel, policy, cfg), abs=1e-12)

    @pytest.mark.parametrize("sizes", ONE_ROUND_SIZES)
    def test_one_round_mode_products_match_kronecker_enumeration(self, sizes):
        tables, channel, policy, cfg = random_one_round_case(0, *sizes)
        assert one_round_exact_leakage(tables) == \
            pytest.approx(reference_one_round_leakage(tables, channel, policy,
                                                      cfg.n), abs=1e-12)

    def test_chunking_leaves_the_value_unchanged(self, monkeypatch):
        # Budgets of a few bytes put every codeword row, and every state
        # sequence of the typicality pass, in a chunk of its own.
        case = random_leakage_case(3, 3, 3, 4, False)
        one_round = random_one_round_case(0, 3, 5)[0]
        whole = run_leakage(*case), one_round_exact_leakage(one_round)
        monkeypatch.setattr(sim_module, "_KRON_CHUNK_BYTES", 4)
        monkeypatch.setattr(sim_module, "_TRIAL_CHUNK_BYTES", 4)
        assert (run_leakage(*case), one_round_exact_leakage(one_round)) == whole

    @pytest.mark.parametrize("n", [10, 11])
    def test_one_round_leakage_peaks_near_its_table(self, n):
        # The leakage budget counts the key x view table once, so the MI of
        # the table must not hold many more arrays of its size: at most four
        # in all, on the sim-oneround configuration.
        channel = factorized_binary(0.0, 0.3)
        policy = uniform_input_policy(channel)
        cfg = SimConfig(n=n, epsilon=0.4, rate_margin=0.2, trials=1, seed=42)
        tables = _one_round_tables(channel, policy, cfg)
        table_bytes = 8 * tables.num_subbins * (tables.num_bins + 1) \
            * channel.ye_size ** n
        tracemalloc.start()
        try:
            one_round_exact_leakage(tables)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * table_bytes

    def test_enumeration_agrees_with_monte_carlo_estimate(self, degraded_channel):
        # Dual route: the exact enumeration must agree with the plug-in
        # estimate from (key, eavesdropper-sequence) pairs that the
        # simulator's own streams, encoder and channel sample, up to Monte
        # Carlo noise and the known upward plug-in bias of roughly
        # (|K|-1)(|Ye|^n - 1) / (2 N ln 2) bits.
        cfg = SimConfig(n=6, epsilon=0.25, rate_margin=0.2, trials=20_000,
                        seed=42)
        channel, policy = degraded_channel, COPY_POLICY
        cb = build_codebook(channel, policy, cfg)
        tables = _no_disc_tables(channel, policy, cb, cfg.epsilon)
        exact = exact_leakage(cb, channel, policy, tables) * cfg.n
        streams = TrialStreams(cfg.seed, (1,), np.arange(cfg.trials),
                               3 * cfg.n + 1)
        s_seqs = _draw(tables.state_cols, 0, streams.random(cfg.n))
        enc = encode(cb, tables, s_seqs, streams)
        # The joint (yr, ye) draw of the same uniforms; the trial loops draw
        # only yr.
        joint = _cdf_columns(channel.kernel.reshape(
            channel.x_size * channel.s_size, -1))
        ye_seqs = _draw(joint, enc.x_seq * channel.s_size + s_seqs,
                        streams.random(cfg.n)) % channel.ye_size
        pairs = np.zeros((cb.num_bins, channel.ye_size ** cfg.n))
        np.add.at(pairs, (cb.bin_of[enc.index],
                          ye_seqs @ channel.ye_size ** np.arange(cfg.n)), 1)
        estimate = float(mi_bits(pairs / cfg.trials))
        bias = (cb.num_bins - 1) * (2 ** cfg.n - 1) / (2 * cfg.trials * math.log(2))
        assert abs(estimate - exact - bias) <= 0.03


class TestRunNoDiscussion:
    def test_noiseless_identity_setup(self):
        channel = identity_channel()
        cfg = SimConfig(n=6, epsilon=0.5, rate_margin=0.35, trials=2000, seed=2)
        report = run_no_discussion(channel, COPY_POLICY, cfg)
        assert report.disagreement_prob == 0.0
        assert report.encode_failure_rate == 0.0
        assert report.leakage_bits_per_symbol == pytest.approx(0.0, abs=1e-12)
        # Singleton bins: the empirical key entropy approaches the codebook rate.
        assert report.achieved_key_rate == pytest.approx(
            report.diagnostics["total_rate"], abs=0.01)

    def test_determinism(self, degraded_channel):
        a = run_no_discussion(degraded_channel, COPY_POLICY, BENCH6)
        b = run_no_discussion(degraded_channel, COPY_POLICY, BENCH6)
        assert a == b

    def test_rate_fed_to_codebook_respects_policy_rate(self, degraded_channel):
        from statekey import aux_policy_rate
        cb = build_codebook(degraded_channel, COPY_POLICY, BENCH6)
        rate, _ = aux_policy_rate(degraded_channel, COPY_POLICY)
        target = rate - BENCH6.rate_margin
        assert target <= rate - BENCH6.rate_margin + 1e-12
        # The realized key rate only exceeds the target through ceil rounding.
        assert cb.key_rate <= max(0.0, target) + 1.0 / BENCH6.n

    def test_margin_backoff_never_hurts_agreement(self, degraded_channel):
        margins = (0.1, 0.175, 0.25, 0.325, 0.4)
        values = []
        for m in margins:
            cfg = SimConfig(n=10, epsilon=0.15, rate_margin=m, trials=1500,
                            seed=42)
            values.append(run_no_discussion(degraded_channel, COPY_POLICY,
                                            cfg).disagreement_prob)
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_draws_pinned(self):
        # Frozen from the implementation that rebuilt its tables per call,
        # at settings where the encode fallback fires: any change to the
        # order of the per-trial draws moves these counts.
        cfg = SimConfig(n=6, epsilon=0.15, rate_margin=0.2, trials=400, seed=42)
        report = run_no_discussion(factorized_binary(), xor_policy(), cfg)
        assert report.encode_failure_rate == 0.465
        assert report.disagreement_prob == 0.1375
        assert report.achieved_key_rate == 0.15812219450886827

    def test_single_letter_tables_built_once_per_run(self, monkeypatch):
        # The decoder's law p(yr | u) is one of the single-letter tables;
        # building it once per trial would count 50 here.
        calls = []
        decoder_law = sim_module._decoder_law
        monkeypatch.setattr(sim_module, "_decoder_law",
                            lambda *args: calls.append(args) or decoder_law(*args))
        cfg = SimConfig(n=6, epsilon=0.15, rate_margin=0.2, trials=50, seed=42)
        run_no_discussion(factorized_binary(), xor_policy(), cfg)
        assert len(calls) == 1

    def test_run_is_sized_budgeted_and_indexed_once(self, monkeypatch):
        # build_codebook sizes the codebook (one MI triple) and checks the
        # table bytes once, and the exact leakage reads the encoder's
        # codeword indicators instead of building its own.
        calls = {name: 0 for name in ("policy_mi_triple", "_check_table_bytes",
                                      "_indicators")}
        for name in calls:
            def counted(*args, name=name, fn=getattr(sim_module, name)):
                calls[name] += 1
                return fn(*args)
            monkeypatch.setattr(sim_module, name, counted)
        cfg = SimConfig(n=10, epsilon=0.15, rate_margin=0.2, trials=100,
                        seed=42)
        report = run_no_discussion(factorized_binary(), xor_policy(), cfg)
        assert report.leakage_bits_per_symbol > 0
        assert calls == dict.fromkeys(calls, 1)

    def test_table_budget_counts_one_decoder_table(self, monkeypatch):
        # p(u, yr) of the copy policy on the noiseless receiver is diagonal,
        # half of it zero cells, and the view is constant, so only the run
        # tables' check reads MAX_LEAKAGE_BYTES: count n (|U| + |Yr|)
        # floats, one decoder term per (codeword, position, yr), zero
        # cells included.  One byte less refuses the run before any table.
        channel = identity_channel()
        cfg = SimConfig(n=6, epsilon=0.5, rate_margin=0.35, trials=20, seed=2)
        count = build_codebook(channel, COPY_POLICY, cfg).count
        limit = 8 * count * cfg.n * (2 + 2)
        monkeypatch.setattr(sim_module, "MAX_LEAKAGE_BYTES", limit)
        report = run_no_discussion(channel, COPY_POLICY, cfg)
        assert report.diagnostics["num_sequences"] == count
        calls = []
        monkeypatch.setattr(sim_module, "MAX_LEAKAGE_BYTES", limit - 1)
        monkeypatch.setattr(sim_module, "_indicators",
                            lambda *args: calls.append(args))
        with pytest.raises(BudgetError, match="encoder and decoder tables"):
            run_no_discussion(channel, COPY_POLICY, cfg)
        assert calls == []

    def test_leakage_is_exact_at_block_length_twelve(self):
        # The no-discussion benchmark configuration at n = 12.  The value
        # agrees with reference_exact_leakage's explicit Kronecker
        # enumeration, which takes about 17 s and so is not run here.
        cfg = SimConfig(n=12, epsilon=0.15, rate_margin=0.2, trials=100,
                        seed=42)
        report = run_no_discussion(factorized_binary(), xor_policy(), cfg)
        assert report.leakage_method == "exact"
        assert report.leakage_bits_per_symbol == pytest.approx(
            0.06882454762541708, abs=1e-12)

    def test_constant_view_leaks_nothing_at_any_size(self):
        # Eve sees a constant, so I(K; Ye^n) = 0 without any enumeration,
        # however large |S|^n times the codebook grows.
        cfg = SimConfig(n=16, epsilon=0.3, rate_margin=0.4, trials=200, seed=4)
        report = run_no_discussion(state_echo_channel(),
                                   two_state_copy_policy(), cfg)
        assert report.leakage_bits_per_symbol == 0.0
        assert report.leakage_method == "exact"

    def test_over_budget_run_fails_before_its_trials(self, monkeypatch):
        calls = []
        monkeypatch.setattr(sim_module, "MAX_LEAKAGE_MULADDS", 0)
        monkeypatch.setattr(sim_module, "encode",
                            lambda *args: calls.append(args))
        cfg = SimConfig(n=6, epsilon=0.15, rate_margin=0.2, trials=50, seed=42)
        with pytest.raises(BudgetError, match="multiply-adds"):
            run_no_discussion(factorized_binary(), xor_policy(), cfg)
        assert calls == []


def zero_cell_case(seed, sizes, u_size):
    """A ``sparse_channel`` of the given sizes and a policy with zeros in
    u_given_s and a deterministic x_given_us, at n = 8: p(u, yr) has zero
    cells, and a fallback codeword u_i that p(u | s_i) excludes can have
    zero likelihood."""
    rng = np.random.default_rng(seed)
    channel = sparse_channel(rng, *sizes)
    u_given_s = rng.dirichlet(np.ones(u_size), size=channel.s_size)
    u_given_s[rng.random(u_given_s.shape) < 0.4] = 0.0
    u_given_s[np.arange(channel.s_size),
              rng.integers(u_size, size=channel.s_size)] += 0.1
    x_given_us = np.eye(channel.x_size)[
        rng.integers(channel.x_size, size=(u_size, channel.s_size))]
    policy = AuxiliaryEncoderPolicy(
        u_size, u_given_s / u_given_s.sum(axis=1, keepdims=True), x_given_us)
    return channel, policy, SimConfig(n=8, epsilon=0.3, rate_margin=0.02,
                                      trials=200, seed=seed)


def no_disc_grid():
    """(channel, policy, config) cases for the no-discussion equivalence."""
    rng = np.random.default_rng(5)
    channel = random_channel(rng, 2, 3, 2, 2)
    return [
        # The encode fallback fires on 47 % of trials.
        (factorized_binary(), xor_policy(),
         SimConfig(n=6, epsilon=0.15, rate_margin=0.2, trials=300, seed=42)),
        # A noiseless receiver: duplicate codewords in two bins tie, and
        # p(u, yr) is diagonal, so every codeword but the sent one's copies
        # crosses a zero cell; the leakage of its 256 codewords at n = 10 is
        # exact, like every other.
        (factorized_binary(0.0, 0.3), xor_policy(),
         SimConfig(n=10, epsilon=0.2, rate_margin=0.2, trials=200, seed=1)),
        (degraded_binary_wiretap(), COPY_POLICY, BENCH6),
        # u = s and yr = s: only the codeword s^n is typical, so a state
        # sequence outside the codebook falls back to a codeword whose
        # likelihood, and every other one's, is zero.
        (state_echo_channel(), two_state_copy_policy(),
         SimConfig(n=6, epsilon=0.3, rate_margin=0.4, trials=200, seed=4)),
        (channel, random_aux_policy(rng, channel, u_size=2),
         SimConfig(n=5, epsilon=0.3, rate_margin=0.02, trials=200, seed=3)),
        # Zero cells in p(u, yr) from sparse kernels and deterministic
        # x_given_us: 46, 13 and 40 codewords; each case meets a tie and a
        # trial whose codewords all have zero likelihood.
        zero_cell_case(0, (3, 3, 4, 2), 3),
        zero_cell_case(22, (3, 2, 3, 2), 2),
        zero_cell_case(2, (2, 2, 3, 2), 3),
    ]


def one_round_grid():
    """(channel, policy, config) cases for the one-round equivalence."""
    tables, channel, policy, cfg = random_one_round_case(1, 3, 4)
    return [
        # Most outputs are atypical and published as the overflow bin.
        (factorized_binary(), uniform_input_policy(factorized_binary()),
         SimConfig(n=6, epsilon=0.3, rate_margin=0.2, trials=300, seed=42)),
        (factorized_binary(0.0, 0.3),
         uniform_input_policy(factorized_binary(0.0, 0.3)),
         SimConfig(n=8, epsilon=0.4, rate_margin=0.2, trials=300, seed=42)),
        # No output sequence is typical: bin 0 stays empty.
        (factorized_binary(), uniform_input_policy(factorized_binary()),
         SimConfig(n=7, epsilon=0.01, rate_margin=0.2, trials=100, seed=3)),
        (channel, policy, dataclasses.replace(cfg, trials=300)),
    ]


def per_trial_chunk(channel, codebook, tables, key_of_yr, cfg, trials):
    """``_no_disc_chunk`` as it was before the run tables held a state
    table and a key table: the encoder tests the chunk's s^n against the
    codewords, and the chunk decodes its own yr^n.  Both tables are
    ignored."""
    n = cfg.n
    streams = TrialStreams(cfg.seed, (1,), trials, 3 * n + 1)
    s_seqs = _draw(tables.state_cols, 0, streams.random(n))
    mask = tables.typical.pairs(tables.codewords, s_seqs)
    sizes = mask.sum(axis=1)
    picks = streams.integers(np.where(sizes > 0, sizes, codebook.count))
    uniforms = streams.random(n)
    typical = sizes > 0
    nth = (mask.cumsum(axis=1) > picks[:, None]).argmax(axis=1)
    index = np.where(typical, nth, picks)
    x_seqs = _draw(tables.x_cols, codebook.sequences[index]
                   * channel.s_size + s_seqs, uniforms)
    yr_seqs = _draw(tables.kernel_cols, x_seqs * channel.s_size + s_seqs,
                    streams.random(n))
    keys = codebook.bin_of[index]
    return (int(np.count_nonzero(decode(codebook, tables, yr_seqs) != keys)),
            int(np.count_nonzero(~typical)),
            np.bincount(keys, minlength=codebook.num_bins))


def benchmark_simulation(mode):
    """(channel, policy, run, config fields) of a benchmark simulation."""
    if mode == "no-disc":
        return factorized_binary(), xor_policy(), run_no_discussion, \
            dict(n=10, epsilon=0.15)
    channel = factorized_binary(0.0, 0.3)
    return channel, uniform_input_policy(channel), run_one_round_discussion, \
        dict(n=8, epsilon=0.4)


class TestSingleKey:
    @pytest.mark.parametrize("seed", range(6))
    def test_no_discussion_reports_exact_zeros(self, seed):
        # One bin: the key has one value, so its rate is +0.0 (the entropy
        # of a point mass) and it leaks exactly 0, not rounding noise.
        channel = degraded_binary_wiretap(0.1, 0.1000001)
        cfg = SimConfig(n=6, epsilon=0.25, rate_margin=0.2, trials=50, seed=seed)
        report = run_no_discussion(channel, COPY_POLICY, cfg)
        assert report.leakage_bits_per_symbol == 0.0
        assert report.achieved_key_rate == 0.0
        assert math.copysign(1.0, report.achieved_key_rate) == 1.0

    def test_one_round_key_rate_is_positive_zero(self):
        channel = degraded_binary_wiretap(0.1, 0.1000001)
        cfg = SimConfig(n=6, epsilon=0.25, rate_margin=0.2, trials=50, seed=3)
        report = run_one_round_discussion(channel, uniform_input_policy(channel),
                                          cfg)
        assert report.diagnostics["num_subbins"] == 1
        assert math.copysign(1.0, report.achieved_key_rate) == 1.0


class TestBatchedTrialLoops:
    @pytest.mark.parametrize("chunk_bytes", [None, 1],
                             ids=["default-chunks", "one-trial-per-chunk"])
    def test_reports_equal_the_one_trial_at_a_time_loops(self, chunk_bytes,
                                                         monkeypatch):
        if chunk_bytes is not None:
            monkeypatch.setattr(sim_module, "_TRIAL_CHUNK_BYTES", chunk_bytes)
        cases = []
        for channel, policy, cfg in no_disc_grid():
            cases.append(set())
            assert run_no_discussion(channel, policy, cfg) == \
                reference_run_no_discussion(channel, policy, cfg,
                                            cases[-1]), cfg
        # The decoder scores a codeword that crosses a zero cell of p(u, yr)
        # at or below _LOG_ZERO, the reference loop at -inf; the state echo
        # and the three zero-cell cases each take both of these branches.
        for event in ("zero likelihood", "decode tie"):
            assert sum(event in case for case in cases) >= 4, event
        events = set().union(*cases)
        # A trial's own output is a member of its published bin, of positive
        # likelihood, so a run's reconstructions fail only at ties.
        for channel, policy, cfg in one_round_grid():
            assert run_one_round_discussion(channel, policy, cfg) == \
                reference_run_one_round(channel, policy, cfg, events), cfg
        assert events == {"encode fallback", "decode tie", "zero likelihood",
                          "empty public bin", "overflow bin",
                          "reconstruction tie"}

    def test_run_tables_give_the_per_trial_chunks_report(self, monkeypatch):
        # Each grid case against the same run with the per-trial chunk, on
        # both sides of both rules: a state table wherever the view is not
        # constant (the state echo's is), a key table wherever |Yr|^n is at
        # most the trials (the sim-nodisc configuration, with 1,024 receiver
        # sequences, gets one at 1,024 trials and not at 1,023).
        cases = [*no_disc_grid(),
                 (state_echo_channel(), two_state_copy_policy(),
                  SimConfig(n=6, epsilon=0.3, rate_margin=0.4, trials=63,
                            seed=4))]
        for trials in (1023, 1024):
            cases.append((factorized_binary(), xor_policy(), SimConfig(
                n=10, epsilon=0.15, rate_margin=0.2, trials=trials, seed=42)))
        sides = []              # (state table?, key table?) of each run
        chunk = sim_module._no_disc_chunk
        for channel, policy, cfg in cases:
            seen = set()
            monkeypatch.setattr(
                sim_module, "_no_disc_chunk",
                lambda *args: seen.add((args[2].state_typical is not None,
                                        args[3] is not None))
                or chunk(*args))
            report = run_no_discussion(channel, policy, cfg)
            sides.extend(seen)
            monkeypatch.setattr(sim_module, "_no_disc_chunk", per_trial_chunk)
            assert report == run_no_discussion(channel, policy, cfg), cfg
        assert len(sides) == len(cases)
        assert set(sides) == set(product([False, True], repeat=2))
        assert sides[-2:] == [(True, False), (True, True)]

    def test_benchmark_run_tests_and_decodes_each_sequence_once(
            self, monkeypatch):
        # The sim-nodisc configuration: every typicality test runs while the
        # state table is built, over the 1,024 state sequences in order, so
        # the encoder tests no chunk; and the decoder runs on the 1,024
        # receiver sequences alone, never on a chunk of trials.
        tested, decoded = [], []
        pairs, decode_rows = sim_module._Typicality.pairs, sim_module.decode
        monkeypatch.setattr(sim_module._Typicality, "pairs",
                            lambda test, cand, fixed: tested.append(fixed)
                            or pairs(test, cand, fixed))
        monkeypatch.setattr(sim_module, "decode",
                            lambda cb, tables, rows: decoded.append(rows)
                            or decode_rows(cb, tables, rows))
        cfg = SimConfig(n=10, epsilon=0.15, rate_margin=0.2, trials=10_000,
                        seed=42)
        run_no_discussion(factorized_binary(), xor_policy(), cfg)
        every = np.array(list(product([0, 1], repeat=10)))
        assert np.array_equal(np.concatenate(tested), every)
        assert np.array_equal(np.concatenate(decoded), every)

    @pytest.mark.parametrize("mode", ["no-disc", "one-round"])
    def test_typicality_tests_are_built_once_per_run(self, mode, monkeypatch):
        # A run builds its test with its tables, whatever the chunking: the
        # encoder's, which the exact leakage reads too, or the one-round
        # typical set's (the reconstruction tests no typicality).  A test
        # built per chunk would count more per chunk, and one trial per
        # chunk makes 100 chunks.
        channel, policy, run, fields = benchmark_simulation(mode)
        cfg = SimConfig(rate_margin=0.2, trials=100, seed=42, **fields)
        builds = []

        class CountedTypicality(sim_module._Typicality):
            def __init__(self, *args):
                builds[-1] += 1
                super().__init__(*args)

        monkeypatch.setattr(sim_module, "_Typicality", CountedTypicality)
        reports = []
        for chunk_bytes in (sim_module._TRIAL_CHUNK_BYTES, 1):
            monkeypatch.setattr(sim_module, "_TRIAL_CHUNK_BYTES", chunk_bytes)
            builds.append(0)
            reports.append(run(channel, policy, cfg))
        assert builds == [1, 1]
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("mode", ["no-disc", "one-round"])
    def test_run_memory_does_not_grow_with_trials(self, mode):
        # The benchmark configurations; the traced peak covers the codebook,
        # the chunked trial loop and the exact leakage.
        if mode == "no-disc":
            channel, policy, run = factorized_binary(), xor_policy(), \
                run_no_discussion
            fields = dict(n=10, epsilon=0.15)
        else:
            channel = factorized_binary(0.0, 0.3)
            policy, run = uniform_input_policy(channel), run_one_round_discussion
            fields = dict(n=8, epsilon=0.4)
        # The first run in a process peaks at about twice a later one, so a
        # warm-up run comes first and both traced runs are warm.
        run(channel, policy, SimConfig(rate_margin=0.2, trials=1000, seed=42,
                                       **fields))
        peaks = []
        for trials in (1000, 20_000):
            cfg = SimConfig(rate_margin=0.2, trials=trials, seed=42, **fields)
            tracemalloc.start()
            try:
                run(channel, policy, cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 4 * 2 ** 20
        assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0]

    @pytest.mark.parametrize("mode", ["no-disc", "one-round"])
    def test_one_chunk_and_twenty_chunks_peak_alike(self, mode, monkeypatch):
        # A run of one chunk against a run of 20 at a benchmark
        # configuration: if a chunk's arrays outlived it, they would be alive
        # while the next chunk builds its stream words, and only the longer
        # run would pay for them.
        channel, policy, run, fields = benchmark_simulation(mode)
        sizes = []
        trial_draws = sim_module._trial_draws
        monkeypatch.setattr(sim_module, "_trial_draws",
                            lambda *args: sizes.append(len(args[2]))
                            or trial_draws(*args))
        # The warm-up run also reads the chunk size.
        run(channel, policy, SimConfig(rate_margin=0.2, trials=2000, seed=42,
                                       **fields))
        monkeypatch.undo()
        step = sizes[0]
        assert step <= 1000      # both runs of the test above fill a chunk
        peaks = []
        for trials in (step, 20 * step):
            cfg = SimConfig(rate_margin=0.2, trials=trials, seed=42, **fields)
            tracemalloc.start()
            try:
                run(channel, policy, cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0]

    @pytest.mark.parametrize("mode", ["no-disc", "one-round"])
    def test_chunks_do_not_grow_with_the_output_alphabets(self, mode,
                                                          monkeypatch):
        # A channel draw holds (trials, n) arrays, one per cdf column,
        # whatever |Yr| |Ye| is: a channel of 4 x 4 outputs runs the trial
        # chunks of one of 2 x 2 (a one-codeword codebook in no-discussion
        # mode, so the stream words size both).
        sizes, steps = [], []
        trial_draws = sim_module._trial_draws
        monkeypatch.setattr(sim_module, "_trial_draws",
                            lambda *args: sizes.append(len(args[2]))
                            or trial_draws(*args))
        for outputs in (2, 4):
            channel = random_channel(np.random.default_rng(11), 2, 2, outputs,
                                     outputs)
            if mode == "no-disc":
                run_no_discussion(channel, xor_policy(), SimConfig(
                    n=10, epsilon=0.15, rate_margin=0.2, trials=2000, seed=42))
            else:
                run_one_round_discussion(
                    channel, uniform_input_policy(channel),
                    SimConfig(n=6, epsilon=0.4, rate_margin=0.2, trials=2000,
                              seed=42))
            steps.append(sizes[0])
            sizes.clear()
        assert steps[0] == steps[1]

    @pytest.mark.parametrize("mode", ["no-disc", "one-round"])
    def test_receiver_rows_of_a_chunk_fit_its_budget(self, mode, monkeypatch):
        # At 16 symbols per position the chunk rules' 8 n 16 bytes per trial
        # outgrow the stream words' share: a no-discussion chunk that
        # decodes its own trials holds their (trials, n |Yr|) one-hot at
        # |Yr| = 16, and a one-round chunk the reconstruction's (trials,
        # n |X| |S|) one-hot at |X| = 8, |S| = 2.  Either fills the budget to
        # within one trial's row, and never past it.
        held, width = [], 8 * 16
        if mode == "no-disc":
            n, decode_rows = 10, sim_module.decode
            monkeypatch.setattr(sim_module, "decode",
                                lambda cb, tables, rows: held.append(rows.size)
                                or decode_rows(cb, tables, rows))
            run_no_discussion(
                random_channel(np.random.default_rng(11), 2, 2, 16, 2),
                xor_policy(), SimConfig(n=n, epsilon=0.15, rate_margin=0.2,
                                        trials=2000, seed=42))
            held = [width * size for size in held]
        else:
            n, onehot = 3, sim_module._onehot
            monkeypatch.setattr(sim_module, "_onehot",
                                lambda *args: held.append(onehot(*args))
                                or held[-1])
            channel = random_channel(np.random.default_rng(11), 8, 2, 2, 2)
            run_one_round_discussion(
                channel, uniform_input_policy(channel),
                SimConfig(n=n, epsilon=0.4, rate_margin=0.2, trials=2000,
                          seed=42))
            held = [array.nbytes for array in held]
        budget = sim_module._TRIAL_CHUNK_BYTES
        assert budget - width * n < max(held) <= budget


# Seeds of one to three 32-bit words and one of five, more than
# SeedSequence's pool of four, and trial windows on both sides of t = 2^32,
# where the trial index gains a second word.
STREAM_SEEDS = [0, 1, 42, 2 ** 32 - 1, 2 ** 32 + 5, 2 ** 70 + 3, 2 ** 130 + 7]
STREAM_WINDOWS = [(0, 700), (2 ** 32 - 3, 2 ** 32 + 3)]


def assert_draws_equal_generators(seed, trials, widths=(1, 2, 24, 31, 97)):
    """``_trial_draws`` at each width against the first words of each
    trial's own generator, one call per width."""
    expected = np.array(
        [_rng_stream(seed, 1, int(t)).bit_generator.random_raw(max(widths))
         for t in trials], dtype=np.uint64).reshape(len(trials), max(widths))
    for k in widths:
        assert np.array_equal(_trial_draws(seed, (1,), trials, k),
                              expected[:, :k]), k


class TestTrialStreams:
    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    @pytest.mark.parametrize("lo, hi", STREAM_WINDOWS)
    def test_draws_equal_each_trials_generator(self, seed, lo, hi):
        assert_draws_equal_generators(seed, np.arange(lo, hi))

    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    def test_draws_at_random_trials_and_at_none(self, seed):
        rng = np.random.default_rng(seed % 2 ** 32)
        assert_draws_equal_generators(seed, rng.integers(0, 2 ** 62, 64))
        assert_draws_equal_generators(seed, np.arange(0))

    def test_draws_of_a_threaded_product(self):
        # 4,000 trials x 31 words: each block of the limb product takes
        # 124,000 x 16 multiply-adds, past OpenBLAS's threading threshold of
        # 65,536 x 4 (a trial chunk of a run stays at or below it).
        assert_draws_equal_generators(42, np.arange(4000), widths=(31,))

    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    @pytest.mark.parametrize("lo, hi", STREAM_WINDOWS)
    def test_integers_then_random_equal_the_generator(self, seed, lo, hi):
        # k = 1 draws no word; 3 * 2^30 rejects about a quarter of its
        # picks, which the trial's own generator then redraws.
        trials = np.arange(lo, hi)
        for k in (1, 2, 95, 2 ** 20 + 1, 3 * 2 ** 30):
            streams = TrialStreams(seed, (1,), trials, 9)
            picks = streams.integers(np.full(len(trials), k))
            uniforms = streams.random(8)
            for t, pick, row in zip(trials, picks, uniforms):
                rng = _rng_stream(seed, 1, int(t))
                assert pick == rng.integers(k), (k, t)
                assert np.array_equal(row, rng.random(8)), (k, t)

    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    @pytest.mark.parametrize("lo, hi", STREAM_WINDOWS)
    def test_rows_keep_their_own_positions(self, seed, lo, hi):
        # One call with bounds mixed by row: k = 1 draws no word, 95 one, and
        # 3 * 2^30 one or, for about a quarter of its rows, a redraw; each
        # row's next read must start after its own draws.
        trials = np.arange(lo, hi)
        bounds = np.array([1, 95, 3 * 2 ** 30])[trials % 3]
        streams = TrialStreams(seed, (1,), trials, 9)
        picks = streams.integers(bounds)
        uniforms = streams.random(8)
        for t, k, pick, row in zip(trials, bounds, picks, uniforms):
            rng = _rng_stream(seed, 1, int(t))
            assert pick == rng.integers(k), (k, t)
            assert np.array_equal(row, rng.random(8)), (k, t)

    @pytest.mark.parametrize("mode", ["no-disc", "one-round"])
    def test_benchmark_runs_build_no_trial_generator(self, mode, monkeypatch):
        # A trial's generator is only rebuilt for a pick that Lemire's rule
        # rejects, with odds below codebook size / 2^32 per trial: none here.
        calls = []
        rng_stream = sim_module._rng_stream
        monkeypatch.setattr(sim_module, "_rng_stream",
                            lambda *key: calls.append(key) or rng_stream(*key))
        if mode == "no-disc":
            run_no_discussion(factorized_binary(), xor_policy(), SimConfig(
                n=10, epsilon=0.15, rate_margin=0.2, trials=10_000, seed=42))
        else:
            channel = factorized_binary(0.0, 0.3)
            run_one_round_discussion(channel, uniform_input_policy(channel),
                                     SimConfig(n=8, epsilon=0.4, rate_margin=0.2,
                                               trials=10_000, seed=42))
        assert calls == [(42, 0)]


def one_round_rate_case(seed, deterministic):
    """A random 3-input, 2-state, 3-output channel and a random or
    deterministic p(x|s)."""
    rng = np.random.default_rng(seed)
    channel = random_channel(rng, x_size=3, yr_size=3)
    if deterministic:
        x_given_s = np.eye(3)[rng.integers(3, size=channel.s_size)]
    else:
        x_given_s = rng.dirichlet(np.ones(3), size=channel.s_size)
    return channel, InputPolicy(x_given_s)


def one_round_oracle(channel, policy):
    """H(Yr|X,S), I(Yr;X,S) and I(Yr;Ye) of ``policy`` by entropy sums."""
    constant_u = AuxiliaryEncoderPolicy(1, np.ones((channel.s_size, 1)),
                                        policy.x_given_s[None])
    p = joint_uxsre(channel, constant_u)
    return (entropy_ref(p, [X, S, YR]) - entropy_ref(p, [X, S]),
            cmi_ref(p, [YR], [X, S]), cmi_ref(p, [YR], [YE]))


class TestOneRoundRates:
    # The bin and sub-bin counts of a one-round run come from H(Yr|X,S),
    # I(Yr;X,S) and I(Yr;Ye); each is checked against the entropy-sum oracle.
    # Epsilon 1 makes all 27 sequences typical, so the typical set does not
    # cap the bin count.
    @pytest.mark.parametrize("deterministic", [False, True],
                             ids=["random", "deterministic"])
    def test_key_rate_matches_the_oracle(self, deterministic):
        positive = 0
        for seed in range(10):
            channel, policy = one_round_rate_case(seed, deterministic)
            cfg = SimConfig(n=3, epsilon=1.0, rate_margin=0.02, trials=1,
                            seed=seed)
            tables = _one_round_tables(channel, policy, cfg)
            _, i_xs, i_e = one_round_oracle(channel, policy)
            exponent = i_xs - i_e - cfg.rate_margin
            assert tables.key_rate_target == pytest.approx(max(0.0, exponent),
                                                           abs=1e-12)
            assert tables.num_subbins == (
                math.ceil(2.0 ** (cfg.n * exponent)) if exponent > 0 else 1)
            positive += exponent > 0
        assert positive >= 3

    @pytest.mark.parametrize("deterministic", [False, True],
                             ids=["random", "deterministic"])
    def test_bin_count_matches_the_oracle(self, deterministic):
        for seed in range(10):
            channel, policy = one_round_rate_case(seed, deterministic)
            cfg = SimConfig(n=3, epsilon=1.0, rate_margin=0.02, trials=1,
                            seed=seed)
            tables = _one_round_tables(channel, policy, cfg)
            h_yr, _, _ = one_round_oracle(channel, policy)
            assert np.all(tables.bin_of < tables.num_bins)
            assert tables.num_bins == math.ceil(
                2.0 ** (cfg.n * (h_yr + cfg.rate_margin)))
            assert tables.num_bins < 27

    @pytest.mark.parametrize("channel", [factorized_binary(0.0, 0.3),
                                         identity_channel()],
                             ids=["state", "no-state"])
    def test_output_fixed_by_the_input_takes_the_margin_alone(self, channel):
        # H(Yr|X,S) is exactly 0, so n * margin = 1 gives exactly 2 bins;
        # an entropy of 1e-16 would give 3.
        cfg = SimConfig(n=4, epsilon=0.3, rate_margin=0.25, trials=1, seed=0)
        tables = _one_round_tables(channel, uniform_input_policy(channel), cfg)
        assert one_round_oracle(channel, uniform_input_policy(channel))[0] \
            == pytest.approx(0.0, abs=1e-15)
        assert tables.num_bins == 2


class TestOneRoundDiscussion:
    def test_noiseless_receiver_constant_eavesdropper(self):
        # yr = x exactly and ye constant: reconstruction always succeeds and
        # the key rate approaches max I(X,S;Yr) less the margin.
        channel = identity_channel()
        # Epsilon beyond 0.5 makes every count band vacuous, so reconstruction
        # is pinned down by the zero-probability cells alone.
        cfg = SimConfig(n=8, epsilon=0.55, rate_margin=0.2, trials=500, seed=11)
        report = run_one_round_discussion(channel, uniform_input_policy(channel),
                                          cfg)
        assert report.diagnostics["reconstruction_failure_rate"] == 0.0
        assert report.disagreement_prob == 0.0
        assert report.leakage_bits_per_symbol == pytest.approx(0.0, abs=1e-12)
        assert report.diagnostics["key_rate_target"] == pytest.approx(0.8, abs=1e-12)

    def test_exposed_receiver_gives_zero_key_rate(self):
        # ye identical to yr: the key-rate exponent is nonpositive.
        pr_t = np.array([[0.8, 0.2], [0.2, 0.8]])
        kernel = np.zeros((2, 2, 2, 2))
        for x in range(2):
            for s in range(2):
                for y in range(2):
                    kernel[x, s, y, y] = pr_t[x ^ s, y]
        channel = StateChannel.from_arrays([0.5, 0.5], kernel)
        cfg = SimConfig(n=6, epsilon=0.3, rate_margin=0.2, trials=100, seed=5)
        report = run_one_round_discussion(channel, uniform_input_policy(channel),
                                          cfg)
        assert report.diagnostics["num_subbins"] == 1
        assert report.achieved_key_rate == 0.0
        assert report.leakage_bits_per_symbol == pytest.approx(0.0, abs=1e-12)

    def test_pinned_independent_noise_benchmark(self):
        channel = factorized_binary(0.0, 0.3)
        cfg = SimConfig(n=8, epsilon=0.4, rate_margin=0.2, trials=2000, seed=42)
        report = run_one_round_discussion(channel, uniform_input_policy(channel),
                                          cfg)
        assert report.diagnostics["reconstruction_success_rate"] >= 0.9
        assert report.leakage_bits_per_symbol <= 0.2
        # Reconstruction correctness whenever the typicality lookup is unique.
        assert report.diagnostics["unique_and_correct"] == \
            report.diagnostics["unique_lookups"]

    def test_draws_pinned(self):
        # Frozen from the maximum-likelihood reconstruction; the key rate
        # depends only on the receiver's draws and the bins.
        channel = factorized_binary()
        cfg = SimConfig(n=6, epsilon=0.3, rate_margin=0.2, trials=400, seed=42)
        report = run_one_round_discussion(channel, uniform_input_policy(channel),
                                          cfg)
        assert report.encode_failure_rate == 0.1325
        assert report.disagreement_prob == 0.1475
        assert report.achieved_key_rate == 0.24716854198008087
        assert report.diagnostics["unique_lookups"] == 347
        assert report.diagnostics["unique_and_correct"] == 334

    def test_determinism(self):
        channel = factorized_binary(0.0, 0.3)
        cfg = SimConfig(n=6, epsilon=0.4, rate_margin=0.2, trials=300, seed=9)
        a = run_one_round_discussion(channel, uniform_input_policy(channel), cfg)
        b = run_one_round_discussion(channel, uniform_input_policy(channel), cfg)
        assert a == b

    @pytest.mark.parametrize("name", sorted(RECONSTRUCT_CHANNELS))
    @pytest.mark.parametrize("n, epsilon", [(6, 0.3), (7, 0.01)])
    def test_reconstruct_equals_the_ml_oracle(self, name, n, epsilon):
        # A binary symmetric position scores a member by whether it flips,
        # so members with as many flips tie, and members that permute the
        # outputs at positions of one (x, s) symbol tie under any law; a
        # zero cell gives zero likelihood to every member that crosses it.
        # At n = 7 and epsilon 0.01 no output sequence is typical, so bin 0
        # is empty and every sequence is in the overflow bin, where each
        # (x, s) sequence has one most likely member.
        tables, xs_seqs, published, expected, failures = reconstruct_case(
            name, n, epsilon)
        assert np.array_equal(_reconstruct(tables, xs_seqs, published),
                              expected)
        overflow = published == tables.num_bins
        assert (expected[overflow] >= 0).any()
        if epsilon == 0.01:
            assert set(failures) == {None, "empty bin"}
        else:
            assert (expected[~overflow] >= 0).any()
            assert ("tie" in failures) == (name != "one-cell")
            assert ("zero likelihood" in failures) == (name != "two-cell")
            assert "empty bin" not in failures

    @pytest.mark.parametrize("name", sorted(RECONSTRUCT_CHANNELS))
    def test_split_reconstruction_equals_the_ml_oracle(self, name,
                                                       monkeypatch):
        # A budget of five scores takes each bin's trials in steps of
        # (trials, members) scores of at most five, or of one trial.
        tables, xs_seqs, published, expected, _ = reconstruct_case(name, 6,
                                                                   0.3)
        monkeypatch.setattr(sim_module, "_TRIAL_CHUNK_BYTES", 8 * 5)
        steps, chunk_rows = [], sim_module._chunk_rows
        monkeypatch.setattr(sim_module, "_chunk_rows",
                            lambda row_bytes: steps.append(
                                (row_bytes // 8, chunk_rows(row_bytes)))
                            or steps[-1][1])
        assert np.array_equal(_reconstruct(tables, xs_seqs, published),
                              expected)
        sizes = np.diff(tables.bin_starts)
        trials = np.bincount(published, minlength=len(sizes))
        bins = np.flatnonzero((trials > 0) & (sizes > 0))
        assert [members for members, _ in steps] == list(sizes[bins])
        assert all(step * members <= 5 or step == 1 for members, step in steps)
        assert any(trials[b] > step for b, (_, step) in zip(bins, steps))

    def test_leakage_budget_counts_the_member_terms(self, monkeypatch):
        # Each of the 2^6 receiver sequences holds a weight and n |X| |S| =
        # 24 likelihood terms (|Yr| is 2), and the key-by-view table holds
        # the views (public bin or overflow, ye^n) of each sub-bin.  One
        # byte less refuses the run before any sequence is enumerated.
        channel = factorized_binary()
        policy = uniform_input_policy(channel)
        cfg = SimConfig(n=6, epsilon=0.3, rate_margin=0.2, trials=20, seed=42)
        tables = _one_round_tables(channel, policy, cfg)
        # Bins uncut by the typical set, so the check counts the same bins.
        assert tables.num_bins == math.ceil(2.0 ** (cfg.n * (
            one_round_oracle(channel, policy)[0] + cfg.rate_margin)))
        limit = 8 * (2 ** 6 * (1 + 6 * 4)
                     + tables.num_subbins * (tables.num_bins + 1) * 2 ** 6)
        monkeypatch.setattr(sim_module, "MAX_LEAKAGE_BYTES", limit)
        report = run_one_round_discussion(channel, policy, cfg)
        assert report.diagnostics["num_public_bins"] == tables.num_bins
        calls = []
        monkeypatch.setattr(sim_module, "MAX_LEAKAGE_BYTES", limit - 1)
        monkeypatch.setattr(sim_module, "_sequences",
                            lambda *args: calls.append(args))
        with pytest.raises(BudgetError, match="exact leakage"):
            run_one_round_discussion(channel, policy, cfg)
        assert calls == []
