"""Codebook construction, typicality coding, and exact leakage accounting."""

import dataclasses
import math
import tracemalloc
from itertools import product

import numpy as np
import pytest

import statekey.sim as sim_module
from statekey import (AuxiliaryEncoderPolicy, BinningCodebook, BudgetError,
                      CodebookRates, InputPolicy, SimConfig, StateChannel,
                      build_codebook, decode, encode, exact_leakage,
                      run_no_discussion, run_one_round_discussion)
from statekey.channel import mi_bits
from statekey.sim import (SimReport, TrialStreams, _cdf_columns, _draw,
                          _entropy, _kernel_columns, _no_disc_tables,
                          _one_round_tables, _reconstruct, _rng_stream,
                          _trial_draws, _typicality, is_jointly_typical,
                          one_round_exact_leakage, transmit)
from conftest import (bsc_matrix, copy_encoder_policy, degraded_binary_wiretap,
                      erasure_eavesdropper_channel, factorized_binary,
                      identity_channel, random_aux_policy, random_channel,
                      uniform_input_policy)

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
# two in every column, and with both kinds of column.
RECONSTRUCT_CHANNELS = {"one-cell": factorized_binary(0.0, 0.3),
                        "two-cell": factorized_binary(0.1, 0.25),
                        "both": partly_deterministic_channel()}


def kron_law(rows):
    """Flat law of independent symbols by explicit Kronecker products."""
    vec = np.ones(1)
    for row in rows:
        vec = np.kron(vec, row)
    return vec


def reference_exact_leakage(codebook, channel, policy, cfg):
    """I(K; Ye^n) / n by enumerating every (state sequence, codeword) pair."""
    n = codebook.n
    p_us = (channel.state_pmf[:, None] * policy.u_given_s).T
    p_ye_us = np.einsum("usx,xse->use", policy.x_given_us,
                        channel.eavesdropper_kernel())
    table = np.zeros((codebook.num_bins, channel.ye_size ** n))
    for s_tuple in product(range(channel.s_size), repeat=n):
        s_seq = np.array(s_tuple)
        mask = np.array([is_jointly_typical(u, s_seq, p_us, cfg.epsilon)
                         for u in codebook.sequences])
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
        leakage_bits_per_symbol=exact_leakage(cb, channel, policy, cfg),
        achieved_key_rate=_entropy(key_counts / cfg.trials) / n,
        encode_failure_rate=failures / cfg.trials, leakage_method="exact",
        diagnostics={"num_sequences": float(cb.count),
                     "num_bins": float(cb.num_bins),
                     "total_rate": cb.rates.total_rate,
                     "key_rate": cb.rates.key_rate,
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
        members = np.flatnonzero(tables.bin_of == published)
        hits = members[typical_rows(tables.all_yr[members],
                                    x_seq * channel.s_size + s_seq,
                                    tables.p_yr_xs, cfg.epsilon)]
        if hits.size != 1:
            failures += 1
            disagreements += 1
            continue
        correct += int(hits[0] == yr_index)
        disagreements += int(tables.sub_of[hits[0]] != key)
    return SimReport(
        disagreement_prob=disagreements / cfg.trials,
        leakage_bits_per_symbol=one_round_exact_leakage(tables, channel,
                                                        policy, cfg),
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
                         num_bins=bins, rates=CodebookRates(1.0, 0.5, 0.5))
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
        assert cb.rates.total_rate == pytest.approx(7 / 8)
        assert cb.rates.key_rate == pytest.approx(3 / 8)
        assert cb.rates.per_bin_rate == pytest.approx(4 / 8)

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
        assert cb.rates.key_rate == 0.0
        report = run_no_discussion(channel, COPY_POLICY, cfg)
        assert report.leakage_bits_per_symbol == pytest.approx(0.0, abs=1e-12)

    def test_codebook_validation(self):
        rates = CodebookRates(0.5, 0.25, 0.25)
        seqs = np.zeros((2, 4), dtype=int)
        for bins, num_bins in (([0, 0], 0), ([0, 1], 2.5), ([0, 0], True),
                               ([0, 2], 2), ([0, 0], 2)):
            with pytest.raises(ValueError):
                BinningCodebook(sequences=seqs, bin_of=np.array(bins),
                                num_bins=num_bins, rates=rates)
        BinningCodebook(sequences=seqs, bin_of=np.array([1, 0]),
                        num_bins=np.int64(2), rates=rates)

    def test_oversized_codebook_rejected(self):
        cfg = SimConfig(n=24, epsilon=0.2, rate_margin=0.01, trials=1, seed=0)
        with pytest.raises(BudgetError, match="rate_margin"):
            build_codebook(identity_channel(), COPY_POLICY, cfg)

    def test_rate_identity_and_nonempty_bins(self, degraded_channel):
        cb = build_codebook(degraded_channel, COPY_POLICY, BENCH6)
        assert cb.rates.total_rate == pytest.approx(
            cb.rates.key_rate + cb.rates.per_bin_rate, abs=1e-12)
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
        hits = 0
        for s_seq in s_seqs:
            for code in range(2 ** n):
                u_seq = np.array([(code >> i) & 1 for i in range(n)])
                counts = np.zeros((2, 2))
                for a, b in zip(u_seq, s_seq):
                    counts[a, b] += 1
                expected = bool((np.abs(counts / n - pmf) <= eps + 1e-12).all()
                                and (counts[pmf == 0] == 0).all())
                assert is_jointly_typical(u_seq, s_seq, pmf, eps) == expected
                hits += expected
        assert 0 < hits < len(s_seqs) * 2 ** n

    def test_zero_probability_cells_must_be_empty(self):
        pmf = np.array([[0.5, 0.0], [0.0, 0.5]])
        assert is_jointly_typical([0, 1, 0, 1], [0, 1, 0, 1], pmf, 0.3)
        assert not is_jointly_typical([0, 1, 0, 1], [0, 1, 0, 0], pmf, 0.3)

    def test_unequal_lengths_are_rejected(self):
        pmf = np.full((2, 2), 0.25)
        with pytest.raises(ValueError, match="equal length"):
            is_jointly_typical([0, 1, 0, 1], [0], pmf, 0.3)

    def test_sequences_that_are_not_one_dimensional_are_rejected(self):
        pmf = np.full((2, 2), 0.25)
        with pytest.raises(ValueError, match="1-D"):
            is_jointly_typical([[0, 1], [0, 1]], [[0, 1], [1, 0]], pmf, 0.3)

    def test_symbols_outside_the_alphabet_are_rejected(self):
        pmf = np.full((2, 2), 0.25)
        for a_seq, b_seq in (([0, 2, 0, 1], [0, 1, 0, 1]),
                             ([0, 1, 0, 1], [0, 1, -1, 1])):
            with pytest.raises(ValueError, match=r"in \[0, 2\)"):
                is_jointly_typical(a_seq, b_seq, pmf, 0.3)


class TestEncode:
    def test_copy_encoder_tracks_state(self):
        # u = s policy with every state sequence present as a codeword.
        channel = state_echo_channel()
        policy = two_state_copy_policy()
        n = 4
        seqs = np.array([[(code >> i) & 1 for i in range(n)]
                         for code in range(2 ** n)])
        cb = BinningCodebook(sequences=seqs, bin_of=np.arange(2 ** n),
                             num_bins=2 ** n,
                             rates=CodebookRates(1.0, 1.0, 0.0))
        rng = _rng_stream(5, 9)
        # Epsilon beyond 0.5 makes the cell band vacuous, so only the
        # zero-cell rule binds and exactly u = s survives.
        s_seqs = rng.integers(0, 2, size=(20, n))
        enc = encode(cb, _no_disc_tables(channel, policy, cb), s_seqs, 0.6,
                     TrialStreams(5, (9,), range(20), n + 1))
        assert enc.typical.all()
        assert np.array_equal(cb.sequences[enc.index], s_seqs)

    def test_empty_typical_set_returns_failure(self, degraded_channel):
        cb = BinningCodebook(sequences=np.zeros((3, 6), dtype=int),
                             bin_of=np.arange(3), num_bins=3,
                             rates=CodebookRates(math.log2(3) / 6,
                                                 math.log2(3) / 6, 0.0))
        # All-zero codewords are never typical for a uniform u-marginal.
        enc = encode(cb, _no_disc_tables(degraded_channel, COPY_POLICY, cb),
                     np.zeros((1, 6), dtype=int), 0.25,
                     TrialStreams(1, (1,), [0], 7))
        assert not enc.typical[0]

    def test_selection_uniform_over_candidates(self, degraded_channel):
        cb = build_codebook(degraded_channel, COPY_POLICY, BENCH6)
        tables = _no_disc_tables(degraded_channel, COPY_POLICY, cb)
        enc = encode(cb, tables, np.zeros((4000, 6), dtype=int), 0.25,
                     TrialStreams(2, (2,), range(4000), 7))
        assert enc.typical.all()
        picks = np.bincount(enc.index, minlength=cb.count)
        eligible = picks > 0
        assert eligible.sum() == 4
        assert picks[eligible].min() > 4000 / 4 * 0.8


class TestDecode:
    def test_noiseless_channel_decodes_exactly(self):
        channel = identity_channel()
        cfg = SimConfig(n=6, epsilon=0.5, rate_margin=0.35, trials=1, seed=2)
        cb = build_codebook(channel, COPY_POLICY, cfg)
        assert np.unique(cb.sequences, axis=0).shape[0] == cb.count
        rng = _rng_stream(3, 3)
        tables = _no_disc_tables(channel, COPY_POLICY, cb)
        s_seqs = np.zeros((20, 6), dtype=int)
        enc = encode(cb, tables, s_seqs, 0.5, TrialStreams(3, (3,), range(20), 7))
        yr_seqs, _ = transmit(channel, tables.kernel_cols, enc.x_seq, s_seqs,
                              rng.random((20, 6)))
        dec = decode(cb, tables, yr_seqs)
        assert (dec.key >= 0).all()
        assert np.array_equal(dec.index, enc.index)
        assert np.array_equal(dec.key, cb.bin_of[enc.index])

    def test_ambiguity_is_failure(self):
        channel = identity_channel()
        seqs = np.array([[0, 1, 0, 1], [0, 1, 0, 1], [1, 0, 1, 0]])
        cb = BinningCodebook(sequences=seqs, bin_of=np.array([0, 1, 0]),
                             num_bins=2,
                             rates=CodebookRates(0.25 * math.log2(3), 0.25,
                                                 0.25 * math.log2(3) - 0.25))
        tables = _no_disc_tables(channel, COPY_POLICY, cb)
        dec = decode(cb, tables, np.array([[0, 1, 0, 1], [1, 0, 1, 0]]))
        assert dec.key[0] == dec.index[0] == -1
        assert dec.key[1] == 0 and dec.index[1] == 2

    def test_key_is_the_bin_with_the_largest_likelihood_sum(self):
        # yr = BSC(0.3)(u).  For yr = 0000 the lone codeword 0000 scores
        # 0.7^4 = 0.2401, while bin 1 sums 3 * 0.7^3 * 0.3 = 0.3087: the key
        # is bin 1 even though the single most likely codeword is in bin 0.
        channel = degraded_binary_wiretap(flip_r=0.3, flip_e_total=0.4)
        seqs = np.array([[0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0],
                         [0, 1, 0, 0]])
        cb = BinningCodebook(sequences=seqs, bin_of=np.array([0, 1, 1, 1]),
                             num_bins=2,
                             rates=CodebookRates(0.5, 0.25, 0.25))
        dec = decode(cb, _no_disc_tables(channel, COPY_POLICY, cb),
                     np.zeros((1, 4), dtype=int))
        assert dec.key[0] == 1
        assert dec.index[0] in (1, 2, 3)

    def test_symbols_outside_the_alphabet_are_rejected(self):
        channel = identity_channel()
        cb = BinningCodebook(sequences=np.array([[0, 1, 0, 1]]), bin_of=[0],
                             num_bins=1, rates=CodebookRates(0.0, 0.0, 0.0))
        tables = _no_disc_tables(channel, COPY_POLICY, cb)
        for yr in ([0, 1, 2, 1], [0, -1, 0, 1]):
            with pytest.raises(ValueError, match=r"in \[0, 2\)"):
                decode(cb, tables, np.array([yr]))
        other = BinningCodebook(sequences=np.zeros((2, 4), int), bin_of=[0, 0],
                                num_bins=1, rates=CodebookRates(0.25, 0.0, 0.25))
        with pytest.raises(ValueError, match="another codebook"):
            decode(other, tables, np.zeros((1, 4), int))

    def test_zero_likelihood_everywhere_is_failure(self):
        channel = identity_channel()
        seqs = np.array([[0, 0, 0, 0], [1, 1, 1, 1]])
        cb = BinningCodebook(sequences=seqs, bin_of=np.array([0, 1]),
                             num_bins=2, rates=CodebookRates(0.25, 0.25, 0.0))
        dec = decode(cb, _no_disc_tables(channel, COPY_POLICY, cb),
                     np.array([[0, 1, 0, 1]]))
        assert dec.key[0] == dec.index[0] == -1


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
        # The row's cdf ends at 1 - 5e-13, below the uniform: the draw is
        # its last (yr, ye) pair, not the pair index 4 past the alphabet.
        channel = short_mass_channel()
        yr, ye = transmit(channel, _kernel_columns(channel), np.zeros((1, 1), int),
                          np.zeros((1, 1), int), np.full((1, 1), LAST_UNIFORM))
        assert (yr.item(), ye.item()) == (1, 1)

    def test_a_short_state_pmf_draws_inside_the_alphabet(self):
        # p(s) sums to 1 - 5e-13; both modes draw s from their run tables.
        channel = short_mass_channel((0.5, 0.5 - 5e-13))
        cfg = SimConfig(n=4, epsilon=0.3, rate_margin=0.2, trials=1, seed=0)
        cb = BinningCodebook(sequences=np.zeros((1, 4), int), bin_of=[0],
                             num_bins=1, rates=CodebookRates(0.0, 0.0, 0.0))
        uniforms = np.array([[0.0, 0.5, 0.5 + 2.0 ** -53, LAST_UNIFORM]])
        for tables in (_no_disc_tables(channel, xor_policy(), cb),
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
            num_bins=1, rates=CodebookRates(cb.rates.total_rate, 0.0,
                                            cb.rates.total_rate))
        assert exact_leakage(collapsed, degraded_channel, COPY_POLICY,
                             BENCH6) == pytest.approx(0.0, abs=1e-12)

    def test_constant_eavesdropper_leaks_nothing(self):
        channel = identity_channel()
        cfg = SimConfig(n=6, epsilon=0.5, rate_margin=0.35, trials=1, seed=2)
        cb = build_codebook(channel, COPY_POLICY, cfg)
        assert exact_leakage(cb, channel, COPY_POLICY,
                             cfg) == pytest.approx(0.0, abs=1e-12)

    def test_binning_reduces_leakage_on_pinned_benchmark(self, degraded_channel):
        cb = build_codebook(degraded_channel, COPY_POLICY, BENCH6)
        binned = exact_leakage(cb, degraded_channel, COPY_POLICY, BENCH6)
        unbinned = exact_leakage(cb.with_singleton_bins(), degraded_channel,
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
        assert exact_leakage(cb, channel, policy, cfg) == 0.05153055257201311

    def test_budget_guard(self):
        # |S| = |Ye| = 2 at n = 24 puts the enumeration far beyond the cap.
        channel = factorized_binary(0.1, 0.25)
        policy = copy_encoder_policy(s_size=2)
        big = SimConfig(n=24, epsilon=0.25, rate_margin=0.9, trials=1, seed=0)
        cb = build_codebook(channel, policy, big)
        with pytest.raises(BudgetError, match="multiply-adds"):
            exact_leakage(cb, channel, policy, big)

    def test_leakage_never_exceeds_key_entropy(self, degraded_channel):
        for seed in (1, 2, 3):
            cfg = SimConfig(n=6, epsilon=0.25, rate_margin=0.2, trials=10,
                            seed=seed)
            cb = build_codebook(degraded_channel, COPY_POLICY, cfg)
            leak = exact_leakage(cb, degraded_channel, COPY_POLICY, cfg)
            assert -1e-9 <= leak <= cb.rates.key_rate + 1e-9

    @pytest.mark.parametrize("singleton", [True, False])
    @pytest.mark.parametrize("sizes", LEAKAGE_SIZES)
    def test_mode_products_match_kronecker_enumeration(self, sizes, singleton):
        seed = LEAKAGE_SIZES.index(sizes)
        cb, channel, policy, cfg = random_leakage_case(seed, *sizes, singleton)
        assert exact_leakage(cb, channel, policy, cfg) == pytest.approx(
            reference_exact_leakage(cb, channel, policy, cfg), abs=1e-12)

    @pytest.mark.parametrize("sizes", ONE_ROUND_SIZES)
    def test_one_round_mode_products_match_kronecker_enumeration(self, sizes):
        tables, channel, policy, cfg = random_one_round_case(0, *sizes)
        assert one_round_exact_leakage(tables, channel, policy, cfg) == \
            pytest.approx(reference_one_round_leakage(tables, channel, policy,
                                                      cfg.n), abs=1e-12)

    def test_chunking_leaves_the_value_unchanged(self, monkeypatch):
        # Budgets of a few bytes put every codeword row, and every state
        # sequence of the typicality pass, in a chunk of its own.
        case = random_leakage_case(3, 3, 3, 4, False)
        one_round = random_one_round_case(0, 3, 5)
        whole = exact_leakage(*case), one_round_exact_leakage(*one_round)
        monkeypatch.setattr(sim_module, "_KRON_CHUNK_BYTES", 4)
        monkeypatch.setattr(sim_module, "_TRIAL_CHUNK_BYTES", 4)
        assert (exact_leakage(*case), one_round_exact_leakage(*one_round)) == whole

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
            one_round_exact_leakage(tables, channel, policy, cfg)
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
        exact = exact_leakage(cb, channel, policy, cfg) * cfg.n
        tables = _no_disc_tables(channel, policy, cb)
        streams = TrialStreams(cfg.seed, (1,), np.arange(cfg.trials),
                               3 * cfg.n + 1)
        s_seqs = _draw(tables.state_cols, 0, streams.random(cfg.n))
        enc = encode(cb, tables, s_seqs, cfg.epsilon, streams)
        _, ye_seqs = transmit(channel, tables.kernel_cols, enc.x_seq, s_seqs,
                              streams.random(cfg.n))
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
        assert cb.rates.key_rate <= max(0.0, target) + 1.0 / BENCH6.n

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
        # The decoder's law p(u, yr) is one of the single-letter tables;
        # building it once per trial would count 50 here.
        calls = []
        joint_u_yr = sim_module._joint_u_yr
        monkeypatch.setattr(sim_module, "_joint_u_yr",
                            lambda *args: calls.append(args) or joint_u_yr(*args))
        cfg = SimConfig(n=6, epsilon=0.15, rate_margin=0.2, trials=50, seed=42)
        run_no_discussion(factorized_binary(), xor_policy(), cfg)
        assert len(calls) == 1

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


def no_disc_grid():
    """(channel, policy, config) cases for the no-discussion equivalence."""
    rng = np.random.default_rng(5)
    channel = random_channel(rng, 2, 3, 2, 2)
    return [
        # The encode fallback fires on 47 % of trials.
        (factorized_binary(), xor_policy(),
         SimConfig(n=6, epsilon=0.15, rate_margin=0.2, trials=300, seed=42)),
        # A noiseless receiver: duplicate codewords in two bins tie, and a
        # yr^n that is no codeword has zero likelihood everywhere; the
        # leakage of its 256 codewords at n = 10 is exact, like every other.
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
        events = set()
        for channel, policy, cfg in no_disc_grid():
            assert run_no_discussion(channel, policy, cfg) == \
                reference_run_no_discussion(channel, policy, cfg, events), cfg
        for channel, policy, cfg in one_round_grid():
            assert run_one_round_discussion(channel, policy, cfg) == \
                reference_run_one_round(channel, policy, cfg, events), cfg
        assert events == {"encode fallback", "decode tie", "zero likelihood",
                          "empty public bin", "overflow bin"}

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


# Seeds of one to three 32-bit words and one of five, more than
# SeedSequence's pool of four, and trial windows on both sides of t = 2^32,
# where the trial index gains a second word.
STREAM_SEEDS = [0, 1, 42, 2 ** 32 - 1, 2 ** 32 + 5, 2 ** 70 + 3, 2 ** 130 + 7]
STREAM_WINDOWS = [(0, 700), (2 ** 32 - 3, 2 ** 32 + 3)]


class TestTrialStreams:
    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    @pytest.mark.parametrize("lo, hi", STREAM_WINDOWS)
    def test_draws_equal_each_trials_generator(self, seed, lo, hi):
        trials = np.arange(lo, hi)
        expected = [_rng_stream(seed, 1, int(t)).bit_generator.random_raw(31)
                    for t in trials]
        assert np.array_equal(_trial_draws(seed, (1,), trials, 31), expected)

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
        # Frozen from the implementation that filled the bins in a loop.
        channel = factorized_binary()
        cfg = SimConfig(n=6, epsilon=0.3, rate_margin=0.2, trials=400, seed=42)
        report = run_one_round_discussion(channel, uniform_input_policy(channel),
                                          cfg)
        assert report.encode_failure_rate == 0.735
        assert report.disagreement_prob == 0.76
        assert report.achieved_key_rate == 0.24716854198008087
        assert report.diagnostics["unique_lookups"] == 106
        assert report.diagnostics["unique_and_correct"] == 96

    def test_determinism(self):
        channel = factorized_binary(0.0, 0.3)
        cfg = SimConfig(n=6, epsilon=0.4, rate_margin=0.2, trials=300, seed=9)
        a = run_one_round_discussion(channel, uniform_input_policy(channel), cfg)
        b = run_one_round_discussion(channel, uniform_input_policy(channel), cfg)
        assert a == b

    @pytest.mark.parametrize("name", sorted(RECONSTRUCT_CHANNELS))
    @pytest.mark.parametrize("n, epsilon", [(6, 0.3), (7, 0.01)])
    def test_reconstruct_equals_the_per_trial_oracle(self, name, n, epsilon):
        # At n = 7 and epsilon 0.01 no output sequence is typical, so bin 0
        # is empty and every sequence is in the overflow bin; no cell band
        # holds an integer count there either.
        channel = RECONSTRUCT_CHANNELS[name]
        cfg = SimConfig(n=n, epsilon=epsilon, rate_margin=0.2, trials=1, seed=7)
        tables = _one_round_tables(channel, uniform_input_policy(channel), cfg)
        rng = np.random.default_rng(n)
        s_seqs = rng.integers(0, 2, size=(80, n))
        x_seqs = rng.integers(0, 2, size=(80, n))
        yr_seqs = _draw(_cdf_columns(channel.receiver_kernel().reshape(4, 2)),
                        x_seqs * 2 + s_seqs, rng.random((80, n)))
        # The first half publishes its output's bin, the second half any bin,
        # the overflow bin included.  The last two trials repeat one (x, s)
        # symbol n times, past its count band: x = s = 0, published with its
        # output 0^n, and x = 0, s = 1.
        xs_seqs = x_seqs * 2 + s_seqs
        xs_seqs[-2:] = [[0], [1]]
        published = np.concatenate([
            tables.bin_of[yr_seqs[:40] @ 2 ** np.arange(n - 1, -1, -1)],
            rng.integers(0, tables.num_bins + 1, size=40)])
        published[-2] = tables.bin_of[0]
        expected = []
        for xs_seq, b in zip(xs_seqs, published):
            members = np.flatnonzero(tables.bin_of == b)
            typical = [is_jointly_typical(tables.all_yr[m], xs_seq,
                                          tables.p_yr_xs, epsilon)
                       for m in members]
            # The oracle is checked against explicit cell counts.
            assert typical == list(typical_rows(tables.all_yr[members], xs_seq,
                                                tables.p_yr_xs, epsilon))
            hits = members[typical]
            expected.append(hits[0] if len(hits) == 1 else -1)
        found = _reconstruct(tables, xs_seqs, published, epsilon)
        assert np.array_equal(found, expected)
        assert (published == tables.num_bins).any()
        if epsilon == 0.01:
            assert tables.bin_starts[1] == 0       # bin 0 is empty
            assert (published == 0).any()
        else:
            assert (found >= 0).any() and (found == -1).any()

    @pytest.mark.parametrize("flip", [0.0, 0.02])
    def test_typicality_holds_the_bytes_per_pair_reconstruct_budgets(self, flip):
        # Flip 0 puts one positive cell in every (x, s) column (the zero-cell
        # product and the per-row bands), flip 0.02 two (a product per cell).
        channel = factorized_binary(flip, 0.3)
        cfg = SimConfig(n=12, epsilon=0.4, rate_margin=0.2, trials=1, seed=42)
        tables = _one_round_tables(channel, uniform_input_policy(channel), cfg)
        b = np.diff(tables.bin_starts).argmax()
        members = tables.by_bin[tables.bin_starts[b]:tables.bin_starts[b + 1]]
        test = _typicality(tables.p_yr_xs, cfg.n, cfg.epsilon)
        candidates = test.candidates(tables.all_yr[members])
        xs_seqs = np.random.default_rng(0).integers(0, 4, size=(2000, cfg.n))
        tracemalloc.start()
        try:
            test.pairs(candidates, xs_seqs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(members) > 200
        assert peak <= sim_module._PAIR_BYTES * 2000 * len(members)
