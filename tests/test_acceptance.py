"""Acceptance criteria, one test per criterion, at their stated tolerances.

Each test prints a measurement line (visible with ``pytest -s`` and in
failure reports); the pass/fail verdict is the pytest outcome.  Criterion 6's
disagreement clause is met by the bin-wise maximum-likelihood key decoder:
see the note in that test.
"""

import math
import time

import numpy as np
import pytest
from mpmath import mp, mpf, sqrt as mpsqrt, log as mplog

from statekey import (GaussianParams, OptimizerConfig, SimConfig,
                      capacity_discussion, discussion_capacity_if_markov,
                      lb_no_discussion, lower_bound_discussion,
                      lower_bound_no_discussion, run_no_discussion,
                      run_one_round_discussion, ub_no_discussion,
                      upper_bound_discussion, upper_bound_no_discussion,
                      build_codebook, exact_leakage)
from statekey.cli import main, save_channel
from statekey.sim import _no_disc_tables
from conftest import (copy_encoder_policy, degraded_binary_wiretap,
                      factorized_binary, uniform_input_policy)

mp.dps = 50


def oracle_triplet(p, q, d):
    p, q, d = mpf(p), mpf(q), mpf(d)
    r = mpsqrt(max(mpf(0), 1 - (1 - 1 / (p + q + 1)) / p))
    vl = p + q + 2 * r * mpsqrt(p * q)
    vu = p + q + 2 * mpsqrt(p * q)
    lb = float(mplog(1 + d * vl / (vl + 1 + d), 2) / 2)
    ub = float(mplog(1 + d * vu / (vu + 1 + d), 2) / 2)
    cap = float(mplog(1 + (1 + d) * vu / (vu + 1 + d), 2) / 2)
    return lb, ub, cap


def h2(x):
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


def test_criterion_1_gaussian_ordering_and_half_bit_gap():
    """lb <= ub <= cap and ub - lb <= 0.5 on >= 10^4 log-spaced triples."""
    ps = np.logspace(0, 6, 22)
    qs = np.concatenate([[0.0], np.logspace(-3, 6, 21)])
    ds = np.concatenate([[0.0], np.logspace(-3, 4, 21)])
    start = time.perf_counter()
    worst_gap = 0.0
    count = 0
    for p in ps:
        for q in qs:
            for d in ds:
                gp = GaussianParams(p, q, d)
                lb = lb_no_discussion(gp)
                ub = ub_no_discussion(gp)
                cap = capacity_discussion(gp)
                assert lb <= ub + 1e-12
                assert ub <= cap + 1e-12
                worst_gap = max(worst_gap, ub - lb)
                count += 1
    elapsed = time.perf_counter() - start
    print(f"criterion 1: {count} triples, worst gap {worst_gap:.6f} bits, "
          f"{elapsed:.2f} s")
    assert count >= 10 ** 4
    assert worst_gap <= 0.5
    assert elapsed < 5.0


def test_criterion_2_asymptotic_coincidence():
    """Gap vanishes at extreme signal power and extreme interference."""
    gap_high_p = (ub_no_discussion(GaussianParams(1e6, 10, 10))
                  - lb_no_discussion(GaussianParams(1e6, 10, 10)))
    gap_high_q = (ub_no_discussion(GaussianParams(10, 1e6, 10))
                  - lb_no_discussion(GaussianParams(10, 1e6, 10)))
    print(f"criterion 2: gap(P=1e6) = {gap_high_p:.3e}, "
          f"gap(Q=1e6) = {gap_high_q:.3e}")
    assert gap_high_p < 1e-3
    assert gap_high_q < 1e-3


def test_criterion_3_figure_reproduction(tmp_path):
    """Both panels emit three ordered monotone curves with exact spot values."""
    spots = {}
    for panel, axis_spot in (("left", 10.0), ("right", 10.0)):
        out = tmp_path / f"{panel}.csv"
        assert main(["figure", "--panel", panel, "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 81
        for cols in (1, 2, 3):
            defined = [float(r[cols]) for r in rows if r[cols]]
            assert all(b >= a - 1e-12 for a, b in zip(defined, defined[1:])), \
                f"{panel} column {cols} not monotone"
        for r in rows:
            if r[1]:
                assert float(r[1]) <= float(r[2]) + 1e-12
            assert float(r[2]) <= float(r[3]) + 1e-12
        spot = [r for r in rows if float(r[0]) == axis_spot][0]
        spots[panel] = tuple(float(v) for v in spot[1:4])
    lb, ub, cap = oracle_triplet(10, 10, 10)
    for panel, values in spots.items():
        assert values[0] == pytest.approx(lb, abs=1e-6)
        assert values[1] == pytest.approx(ub, abs=1e-6)
        assert values[2] == pytest.approx(cap, abs=1e-6)
    print(f"criterion 3: spot values lb={spots['left'][0]:.7f} "
          f"ub={spots['left'][1]:.7f} cap={spots['left'][2]:.7f} "
          f"(oracles {lb:.7f}/{ub:.7f}/{cap:.7f})")


def brute_force_degraded_oracle(flip_r=0.1, flip_e=0.2, grid=61):
    """Fine-grid maximization of I(U;Yr) - I(U;Ye) over binary-u policies.

    Independent of the production optimizer: direct vectorized evaluation of
    the binary-entropy expressions over a lattice of (p(u), p(x|u)) values.
    """
    def h2v(p):
        p = np.clip(p, 1e-300, 1.0)
        q = np.clip(1.0 - p, 1e-300, 1.0)
        return -(p * np.log2(p) + q * np.log2(q))

    t = np.linspace(0.0, 1.0, grid)
    a = t[:, None, None]      # p(u = 0)
    b = t[None, :, None]      # p(x = 0 | u = 0)
    c = t[None, None, :]      # p(x = 0 | u = 1)

    def branch_mi(flip):
        r0 = b * (1 - flip) + (1 - b) * flip
        r1 = c * (1 - flip) + (1 - c) * flip
        avg = a * r0 + (1 - a) * r1
        return h2v(avg) - (a * h2v(r0) + (1 - a) * h2v(r1))

    objective = branch_mi(flip_r) - branch_mi(flip_e)
    return float(objective.max())


def test_criterion_4_dmc_oracle_equivalence(degraded_channel):
    """Optimizer matches the brute-force oracle on the degraded wiretap."""
    start = time.perf_counter()
    oracle = brute_force_degraded_oracle()
    analytic = h2(0.2) - h2(0.1)
    assert oracle == pytest.approx(analytic, abs=1e-9)
    cfg = OptimizerConfig(seed=0)
    lb = lower_bound_no_discussion(degraded_channel, cfg)
    ub = upper_bound_no_discussion(degraded_channel)
    elapsed = time.perf_counter() - start
    print(f"criterion 4: oracle {oracle:.7f}, lb {lb.value_bits:.7f}, "
          f"ub {ub.value_bits:.7f}, {elapsed:.1f} s")
    assert lb.value_bits == pytest.approx(oracle, abs=1e-3)
    assert ub.value_bits >= oracle - 1e-6
    assert elapsed < 60.0


def test_criterion_5_discussion_capacity_equality(tmp_path, capsys):
    """Factorized kernel: discussion bounds meet and the tool flags capacity."""
    start = time.perf_counter()
    channel = factorized_binary(0.1, 0.25)
    cfg = OptimizerConfig(seed=0)
    low = lower_bound_discussion(channel,
                                 lower_bound_no_discussion(channel, cfg))
    up = upper_bound_discussion(channel)
    cap = discussion_capacity_if_markov(channel, up)
    assert cap is not None and cap.diagnostics["is_capacity"] == 1.0
    assert abs(low.value_bits - up.value_bits) <= 5e-3
    path = tmp_path / "fact.json"
    save_channel(channel, str(path))
    assert main(["bounds-dmc", str(path), "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "discussion_capacity_bits" in out
    assert "capacity" in out
    elapsed = time.perf_counter() - start
    print(f"criterion 5: lb_disc {low.value_bits:.7f}, "
          f"ub_disc {up.value_bits:.7f}, capacity flagged, {elapsed:.1f} s")
    assert elapsed < 60.0


def test_criterion_6_leakage_binned_vs_unbinned(degraded_channel):
    """Exact leakage: binning strictly reduces it and stays under 0.2 b/sym."""
    start = time.perf_counter()
    policy = copy_encoder_policy()
    cfg = SimConfig(n=6, epsilon=0.25, rate_margin=0.2, trials=100, seed=42)
    cb = build_codebook(degraded_channel, policy, cfg)
    # The singleton-bin view keeps the codewords, so the run tables serve it.
    tables = _no_disc_tables(degraded_channel, policy, cb, cfg.epsilon)
    binned = exact_leakage(cb, degraded_channel, policy, tables)
    unbinned = exact_leakage(cb.with_singleton_bins(), degraded_channel,
                             policy, tables)
    elapsed = time.perf_counter() - start
    print(f"criterion 6 (leakage): binned {binned:.5f} < unbinned "
          f"{unbinned:.5f} bits/symbol, {elapsed:.1f} s")
    assert binned < unbinned
    assert binned <= 0.2
    assert elapsed < 300.0


def test_criterion_6_disagreement_at_block_length_ten(degraded_channel):
    """Pr(K != L) <= 0.1 at n = 10, margin 0.2 over 10^4 seeded trials.

    The receiver sums each bin's codeword likelihoods and declares the
    largest bin, which measures about 0.072 here.  A decoder that requires a
    unique jointly typical codeword cannot meet the clause at these settings:
    at n = 10 the strong-typicality bands let impostor codewords pass, and
    it measures about 0.80.
    """
    policy = copy_encoder_policy()
    cfg = SimConfig(n=10, epsilon=0.15, rate_margin=0.2, trials=10_000, seed=42)
    start = time.perf_counter()
    report = run_no_discussion(degraded_channel, policy, cfg)
    elapsed = time.perf_counter() - start
    print(f"criterion 6 (disagreement): {report.disagreement_prob:.4f} "
          f"over {cfg.trials} trials, leakage "
          f"{report.leakage_bits_per_symbol:.4f} ({report.leakage_method}), "
          f"{elapsed:.1f} s")
    assert elapsed < 300.0
    assert report.disagreement_prob <= 0.1


def test_criterion_7_one_round_discussion_scheme():
    """Reconstruction >= 90% and exact leakage (with the public index) <= 0.2."""
    channel = factorized_binary(0.0, 0.3)
    policy = uniform_input_policy(channel)
    cfg = SimConfig(n=8, epsilon=0.4, rate_margin=0.2, trials=10_000, seed=42)
    start = time.perf_counter()
    report = run_one_round_discussion(channel, policy, cfg)
    elapsed = time.perf_counter() - start
    d = report.diagnostics
    print(f"criterion 7: reconstruction {d['reconstruction_success_rate']:.4f}, "
          f"leakage {report.leakage_bits_per_symbol:.4f} bits/symbol, "
          f"subbins {d['num_subbins']:.0f}, {elapsed:.1f} s")
    assert d["reconstruction_success_rate"] >= 0.9
    assert report.leakage_bits_per_symbol <= 0.2
    assert d["unique_and_correct"] == d["unique_lookups"]
    assert elapsed < 300.0


def test_criterion_8_seeded_commands_byte_identical(tmp_path):
    """Repeat runs of every seeded command produce byte-identical output."""
    channel_path = tmp_path / "bench.json"
    save_channel(degraded_binary_wiretap(), str(channel_path))

    outputs = []
    for tag in ("a", "b"):
        sim_out = tmp_path / f"sim_{tag}.csv"
        assert main(["simulate", str(channel_path), "--n", "6", "--epsilon",
                     "0.25", "--margin", "0.2", "--trials", "2000",
                     "--seed", "42", "--out", str(sim_out)]) == 0
        dmc_out = tmp_path / f"dmc_{tag}.json"
        assert main(["bounds-dmc", str(channel_path), "--restarts", "4",
                     "--seed", "7", "--out", str(dmc_out)]) == 0
        fig_out = tmp_path / f"fig_{tag}.csv"
        assert main(["figure", "--panel", "right", "--out", str(fig_out)]) == 0
        outputs.append((sim_out.read_bytes(), dmc_out.read_bytes(),
                        fig_out.read_bytes()))
    assert outputs[0] == outputs[1]
    print("criterion 8: simulate, bounds-dmc, and figure reruns byte-identical")
