"""CLI behavior: file handling, output formats, exit codes, determinism."""

import json
import math

import numpy as np
import pytest

from statekey import (SimConfig, StateChannel, build_codebook, cli, dmc,
                      exact_leakage, sim)
from statekey.cli import (CliInputError, channel_from_dict, channel_to_dict,
                          db_to_linear, default_aux_policy, load_channel, main,
                          save_channel)
from conftest import (constant_channel, copy_encoder_policy,
                      degraded_binary_wiretap, factorized_binary,
                      identity_channel, random_channel)


def h2(p):
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def modular_files(tmp_path, x_size, ye_size, u_size):
    """Channel and policy files: no state, yr = x, ye = x mod ye_size, and a
    uniform u sent as x = u mod x_size."""
    kernel = np.zeros((x_size, 1, x_size, ye_size))
    xs = np.arange(x_size)
    kernel[xs, 0, xs, xs % ye_size] = 1.0
    x_given_us = np.zeros((u_size, 1, x_size))
    x_given_us[np.arange(u_size), 0, np.arange(u_size) % x_size] = 1.0
    channel, policy = tmp_path / "modular.json", tmp_path / "policy.json"
    save_channel(StateChannel.from_arrays([1.0], kernel), str(channel))
    policy.write_text(json.dumps({"u_given_s": [[1 / u_size] * u_size],
                                  "x_given_us": x_given_us.tolist()}))
    return str(channel), str(policy)


@pytest.fixture
def degraded_file(tmp_path):
    path = tmp_path / "degraded.json"
    save_channel(degraded_binary_wiretap(), str(path), name="degraded-binary")
    return str(path)


class TestParser:
    def test_two_calls_build_one_parser_and_run_a_patched_command(
            self, tmp_path, monkeypatch):
        # The parser is built once per process; the command is looked up by
        # name at each call, so a replaced cmd_* function is the one run.
        builds, ran = [], []
        build = cli.build_parser

        def counted():
            builds.append(None)
            return build()

        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        monkeypatch.setattr(cli, "cmd_figure", lambda args: ran.append(args) or 0)
        out = str(tmp_path / "left.csv")
        try:
            assert main(["figure", "--panel", "left", "--out", out]) == 0
            assert main(["figure", "--panel", "right", "--out", out]) == 0
        finally:
            cli._parser.cache_clear()
        assert len(builds) == 1
        assert [args.panel for args in ran] == ["left", "right"]
        assert not (tmp_path / "left.csv").exists()


class TestChannelFiles:
    def test_round_trip_is_semantically_identical(self, tmp_path):
        channel = factorized_binary(0.07, 0.23)
        path = tmp_path / "ch.json"
        save_channel(channel, str(path), name="fact", description="test")
        loaded = load_channel(str(path))
        assert np.abs(loaded.kernel - channel.kernel).max() <= 1e-15
        assert np.abs(loaded.state_pmf - channel.state_pmf).max() <= 1e-15
        again = channel_to_dict(loaded)
        assert np.abs(np.asarray(again["kernel"]) - channel.kernel).max() <= 1e-15

    def test_schema_version_enforced(self):
        payload = channel_to_dict(identity_channel())
        payload["schema_version"] = 99
        with pytest.raises(ValueError, match="schema_version"):
            channel_from_dict(payload)

    def test_field_addressed_error(self):
        payload = channel_to_dict(identity_channel())
        del payload["state_pmf"]
        with pytest.raises(ValueError, match="state_pmf"):
            channel_from_dict(payload)

    def test_non_integral_size_is_input_error(self, tmp_path, capsys):
        payload = channel_to_dict(identity_channel())
        payload["x_size"] = 2.7
        with pytest.raises(CliInputError, match="x_size"):
            channel_from_dict(payload)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert main(["bounds-dmc", str(bad)]) == 2
        assert "x_size must be an integer" in capsys.readouterr().err

    def test_db_conversion(self):
        assert db_to_linear(10.0) == pytest.approx(10.0)
        assert db_to_linear(0.0) == pytest.approx(1.0)
        assert db_to_linear(-10.0) == pytest.approx(0.1)


class TestExitCodes:
    def test_missing_file_is_input_error(self, capsys):
        assert main(["bounds-dmc", "/nonexistent/channel.json"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_invalid_json_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["bounds-dmc", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "invalid JSON" in err

    def test_invalid_kernel_is_input_error(self, tmp_path, capsys):
        payload = channel_to_dict(identity_channel())
        payload["kernel"][0][0][0][0] = 5.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert main(["simulate", str(bad)]) == 2

    def test_budget_error_exit_code(self, tmp_path, capsys):
        # Noiseless receiver at n = 24 with a tiny margin needs > 2^20
        # codewords, which trips the codebook cap.
        path = tmp_path / "identity.json"
        save_channel(identity_channel(), str(path))
        rc = main(["simulate", str(path), "--n", "24", "--margin", "0.01",
                   "--trials", "1"])
        assert rc == 3
        assert "budget" in capsys.readouterr().err.lower()

    def test_leakage_budget_exit_code(self, degraded_file, capsys):
        # A codebook well under its cap whose exact leakage at n = 24 needs
        # far more multiply-adds than the leakage budget allows.
        rc = main(["simulate", degraded_file, "--n", "24", "--trials", "1"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "budget" in err.lower() and "multiply-adds" in err

    @pytest.mark.parametrize("sizes, n, margin, refusal", [
        # 456,420 codewords over 256 symbols, whose indicators (count * |U|
        # * n floats) would take 6.96 GiB in the exact leakage, which is
        # within its multiply-adds.
        ((8, 2, 256), 8, 0.65, "exact leakage"),
        # A constant view leaks 0 with no enumeration, but the run tables
        # of 131,072 codewords would take 360 MiB, 320 of them indicators.
        # (At margin 0.01, 912,839 codewords would take 2.18 GiB of
        # indicators.)
        ((2, 1, 16), 20, 0.15, "encoder and decoder tables"),
    ], ids=["octal", "constant-view"])
    def test_codeword_tables_over_budget_exit_code(self, tmp_path, monkeypatch,
                                                  capsys, sizes, n, margin,
                                                  refusal):
        # Both budgets follow from the codeword count, so the run is refused
        # before the codebook's stream is opened and its sequences drawn.
        calls, streams = [], []
        monkeypatch.setattr(sim, "_indicators", lambda *args: calls.append(args))
        monkeypatch.setattr(sim, "_rng_stream", lambda *key: streams.append(key))
        channel, policy = modular_files(tmp_path, *sizes)
        assert main(["simulate", channel, "--n", str(n), "--margin",
                     str(margin), "--trials", "5", "--policy-file",
                     policy]) == 3
        assert refusal in capsys.readouterr().err
        assert calls == [] and streams == []

    def test_search_budget_exit_code(self, tmp_path, capsys):
        path = tmp_path / "large.json"
        save_channel(random_channel(np.random.default_rng(0), 16, 16, 2, 2),
                     str(path))
        assert main(["bounds-dmc", str(path)]) == 3
        assert "budget exceeded" in capsys.readouterr().err

    def test_grid_budget_exit_code(self, tmp_path, monkeypatch, capsys):
        # --grid 100000000 would draw 3.4e10 lattice symbols, about 500 GiB:
        # the search is refused before the first draw.
        calls = []
        monkeypatch.setattr(dmc, "_grid_aux_seeds",
                            lambda *args: calls.append(args))
        path = tmp_path / "search.json"
        save_channel(random_channel(np.random.default_rng(3), 2, 2, 3, 2),
                     str(path))
        assert main(["bounds-dmc", str(path), "--grid", "100000000"]) == 3
        assert "grid_resolution" in capsys.readouterr().err
        assert calls == []

    def test_coupling_budget_exit_code(self, degraded_file, monkeypatch,
                                       capsys):
        monkeypatch.setattr(dmc, "_COUPLING_BYTES", 0)
        assert main(["bounds-dmc", degraded_file]) == 3
        assert "coupling upper bound" in capsys.readouterr().err

    def test_bad_sweep_range_is_input_error(self, capsys):
        rc = main(["gaussian", "--axis", "snr", "--start-db", "5",
                   "--stop-db", "-5", "--points", "11",
                   "--q-db", "10", "--delta-db", "10"])
        assert rc == 2

    @pytest.mark.parametrize("points", [10 ** 15, 100_001])
    def test_oversized_sweep_is_input_error(self, points, capsys):
        rc = main(["gaussian", "--axis", "snr", "--start-db", "0",
                   "--stop-db", "1", "--points", str(points),
                   "--q-db", "0", "--delta-db", "0"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: points must lie in [2, 100000]"]

    @pytest.mark.parametrize("sweep", [
        ["--axis", "snr", "--start-db", "0", "--stop-db", "10",
         "--q-db", "4000", "--delta-db", "0"],
        ["--axis", "q", "--start-db", "0", "--stop-db", "4000",
         "--p-db", "0", "--delta-db", "0"]], ids=["fixed", "swept"])
    def test_overflowing_db_input_is_input_error(self, sweep, capsys):
        # 10^(4000/10) overflows a float.
        assert main(["gaussian", "--points", "3", *sweep]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: 4000 dB overflows in linear scale"]

    @pytest.mark.parametrize("sweep", [
        ["--axis", "snr", "--q-db", "3080", "--delta-db", "0"],
        ["--axis", "delta", "--p-db", "0", "--q-db", "0"]], ids=["nan", "inf"])
    def test_non_finite_sweep_point_is_input_error(self, sweep, capsys):
        # Every linear value is finite near 3080 dB, but the bounds are nan
        # (snr sweep) or inf (delta sweep).
        rc = main(["gaussian", "--start-db", "3079", "--stop-db", "3080",
                   "--points", "2", *sweep])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: the bounds at 3079 dB are not finite"]


class TestBoundsCommand:
    def test_constant_channel_all_bounds_zero(self, tmp_path, capsys):
        path = tmp_path / "const.json"
        save_channel(constant_channel(), str(path))
        rc = main(["bounds-dmc", str(path), "--restarts", "3", "--seed", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        for line in out.splitlines():
            if line.endswith("_bits") or "_bits = " in line:
                name, _, value = line.partition(" = ")
                if name.strip().endswith("_bits") and not name.startswith(" "):
                    assert abs(float(value.split()[0])) <= 1e-6, line

    def test_degraded_binary_matches_oracle(self, degraded_file, capsys):
        rc = main(["bounds-dmc", degraded_file, "--seed", "0",
                   "--out", "/dev/null"])
        assert rc == 0
        out = capsys.readouterr().out
        value = float([l for l in out.splitlines()
                       if l.startswith("lower_bound_no_discussion_bits")][0]
                      .split(" = ")[1])
        assert value == pytest.approx(h2(0.2) - h2(0.1), abs=1e-3)

    def test_factorized_kernel_flagged_as_capacity(self, tmp_path, capsys):
        path = tmp_path / "fact.json"
        save_channel(factorized_binary(), str(path))
        rc = main(["bounds-dmc", str(path), "--restarts", "4", "--seed", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "discussion_capacity_bits" in out
        assert "capacity" in out

    def test_each_search_runs_once(self, tmp_path, monkeypatch, capsys):
        # One auxiliary-policy search serves both lower-bound objectives, and
        # the discussion lower bound and the capacity flag reuse the results
        # the command already has instead of searching again.
        calls = {"_search_aux": [], "upper_bound_discussion": []}
        for name in calls:
            def counted(*args, _fn=getattr(dmc, name), _name=name, **kwargs):
                calls[_name].append(args)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(dmc, name, counted)
        path = tmp_path / "fact.json"
        save_channel(factorized_binary(), str(path))
        assert main(["bounds-dmc", str(path), "--restarts", "3"]) == 0
        assert "discussion_capacity_bits" in capsys.readouterr().out
        assert len(calls["_search_aux"]) == 1
        assert calls["_search_aux"][0][2] == (True, False)
        assert len(calls["upper_bound_discussion"]) == 1

    @pytest.mark.parametrize("build, has_capacity",
                             [(factorized_binary, True),
                              (degraded_binary_wiretap, False)])
    def test_engine_equals_the_evaluators_and_the_report(self, build,
                                                         has_capacity,
                                                         tmp_path, capsys):
        channel = build()
        cfg = dmc.OptimizerConfig(restarts=3, seed=0)
        bounds = dmc.evaluate_bounds(channel, cfg)
        assert list(bounds) == [
            "lower_bound_no_discussion", "secret_message_lower_bound",
            "upper_bound_no_discussion", "lower_bound_discussion",
            "upper_bound_discussion", "discussion_capacity"]
        lb = dmc.lower_bound_no_discussion(channel, cfg)
        alone = {
            "lower_bound_no_discussion": lb,
            "secret_message_lower_bound":
                dmc.secret_message_lower_bound(channel, cfg),
            "upper_bound_no_discussion":
                dmc.upper_bound_no_discussion(channel),
            "lower_bound_discussion": dmc.lower_bound_discussion(channel, lb),
            "upper_bound_discussion": dmc.upper_bound_discussion(channel),
        }
        path, out = tmp_path / "channel.json", tmp_path / "report.json"
        save_channel(channel, str(path))
        assert main(["bounds-dmc", str(path), "--restarts", "3", "--seed", "0",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        report = json.loads(out.read_text())
        for name, res in alone.items():
            assert bounds[name].value_bits == res.value_bits, name
            assert bounds[name].constraint_slack_bits \
                == res.constraint_slack_bits, name
            assert bounds[name].diagnostics == res.diagnostics, name
            assert report[name]["value_bits"] == res.value_bits, name
            assert report[name]["diagnostics"] == res.diagnostics, name
        cap = dmc.discussion_capacity_if_markov(
            channel, alone["upper_bound_discussion"])
        assert (cap is not None) == has_capacity
        if has_capacity:
            assert bounds["discussion_capacity"].value_bits == cap.value_bits
            assert report["discussion_capacity"] == {
                "value_bits": cap.value_bits, "is_capacity": True}
        else:
            assert bounds["discussion_capacity"] is None
            assert report["discussion_capacity"] is None

    def test_non_factorized_kernel_not_applicable(self, degraded_file, capsys):
        rc = main(["bounds-dmc", degraded_file, "--restarts", "3",
                   "--seed", "0"])
        assert rc == 0
        assert "not applicable" in capsys.readouterr().out


class TestGaussianCommand:
    def test_csv_columns_and_ordering(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["gaussian", "--axis", "snr", "--start-db", "-10",
                   "--stop-db", "30", "--points", "81",
                   "--q-db", "10", "--delta-db", "10", "--out", str(out)])
        assert rc == 0
        raw = out.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().splitlines()
        assert lines[0] == "axis_value_db,lb,ub,cap_disc,gap"
        assert len(lines) == 82
        for line in lines[1:]:
            _, lb, ub, cap, gap = line.split(",")
            if lb:
                assert float(lb) <= float(ub) + 1e-12
                assert float(gap) == pytest.approx(float(ub) - float(lb),
                                                   abs=1e-9)
            assert float(ub) <= float(cap) + 1e-12

    def test_lb_empty_below_unit_power_with_warning(self, capsys):
        rc = main(["gaussian", "--axis", "snr", "--start-db", "-10",
                   "--stop-db", "0", "--points", "3",
                   "--q-db", "10", "--delta-db", "10"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "p >= 1" in captured.err
        rows = captured.out.splitlines()[1:]
        assert rows[0].split(",")[1] == ""
        assert rows[-1].split(",")[1] != ""

    def test_single_point_matches_module_oracles(self, capsys):
        # Cross-module consistency: the row must equal the module values
        # rendered at the CSV's own 12-significant-digit precision.
        rc = main(["gaussian", "--axis", "snr", "--start-db", "10",
                   "--stop-db", "20", "--points", "2",
                   "--q-db", "10", "--delta-db", "10"])
        assert rc == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[1] == f"{1.5688375369188372:.12g}"
        assert row[2] == f"{1.5722791406419427:.12g}"
        assert row[3] == f"{1.6335769361715987:.12g}"
        for text, oracle in zip(row[1:4], (1.5688375369188372,
                                           1.5722791406419427,
                                           1.6335769361715987)):
            assert float(text) == pytest.approx(oracle, abs=5e-12)

    def test_twelve_significant_digits(self, capsys):
        main(["gaussian", "--axis", "snr", "--start-db", "10",
              "--stop-db", "20", "--points", "2",
              "--q-db", "10", "--delta-db", "10"])
        row = capsys.readouterr().out.splitlines()[1]
        assert "1.56883753692" in row


class TestFigureCommand:
    def test_left_panel_files_and_ordering(self, tmp_path):
        out = tmp_path / "left.csv"
        rc = main(["figure", "--panel", "left", "--out", str(out)])
        assert rc == 0
        assert out.exists()
        dat = tmp_path / "left.dat"
        assert dat.exists()
        lines = out.read_text().splitlines()
        assert len(lines) == 82
        dat_lines = dat.read_text().splitlines()
        assert dat_lines[0].startswith("#")
        assert len(dat_lines) == 82

    def test_right_panel_monotone_in_delta(self, tmp_path):
        out = tmp_path / "right.csv"
        assert main(["figure", "--panel", "right", "--out", str(out)]) == 0
        rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
        for col in (1, 2, 3):
            vals = [float(r[col]) for r in rows if r[col]]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_gap_below_half_bit_where_defined(self, tmp_path):
        for panel in ("left", "right"):
            out = tmp_path / f"{panel}.csv"
            assert main(["figure", "--panel", panel, "--out", str(out)]) == 0
            for line in out.read_text().splitlines()[1:]:
                gap = line.split(",")[4]
                if gap:
                    assert float(gap) <= 0.5

    def test_unwritable_path_fails(self, capsys):
        rc = main(["figure", "--panel", "left",
                   "--out", "/nonexistent-dir/x.csv"])
        assert rc == 2


class TestSimulateCommand:
    def test_identity_channel_no_disagreement(self, tmp_path, capsys):
        path = tmp_path / "identity.json"
        save_channel(identity_channel(), str(path))
        rc = main(["simulate", str(path), "--n", "4", "--margin", "0.45",
                   "--epsilon", "0.5", "--trials", "400", "--seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "disagreement_prob = 0\n" in out
        assert "leakage_method = exact" in out

    def test_seeded_rerun_is_byte_identical(self, degraded_file, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            rc = main(["simulate", degraded_file, "--n", "6", "--epsilon",
                       "0.25", "--margin", "0.2", "--trials", "500",
                       "--seed", "42", "--out", str(out)])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_report_leakage_matches_module_oracle(self, degraded_file, capsys):
        rc = main(["simulate", degraded_file, "--n", "6", "--epsilon", "0.25",
                   "--margin", "0.2", "--trials", "50", "--seed", "42"])
        assert rc == 0
        out = capsys.readouterr().out
        reported = float([l for l in out.splitlines()
                          if l.startswith("leakage_bits_per_symbol")][0]
                         .split(" = ")[1])
        channel = degraded_binary_wiretap()
        cfg = SimConfig(n=6, epsilon=0.25, rate_margin=0.2, trials=50, seed=42)
        policy = default_aux_policy(channel)
        cb = build_codebook(channel, policy, cfg)
        oracle = exact_leakage(cb, channel, policy, sim._no_disc_tables(
            channel, policy, cb, cfg.epsilon))
        assert reported == pytest.approx(oracle, abs=1e-12)

    def test_policy_file_is_honored(self, degraded_file, tmp_path, capsys):
        policy = copy_encoder_policy()
        pf = tmp_path / "policy.json"
        pf.write_text(json.dumps({"u_given_s": policy.u_given_s.tolist(),
                                  "x_given_us": policy.x_given_us.tolist()}))
        rc = main(["simulate", degraded_file, "--n", "4", "--trials", "20",
                   "--seed", "1", "--policy-file", str(pf)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "policy_key_rate_bits = 0.252932501298" in out

    def test_single_key_run_prints_zero_rate(self, tmp_path, capsys):
        path = tmp_path / "nokey.json"
        save_channel(degraded_binary_wiretap(0.1, 0.1000001), str(path))
        csv_path = tmp_path / "report.csv"
        rc = main(["simulate", str(path), "--n", "6", "--epsilon", "0.25",
                   "--margin", "0.2", "--trials", "50", "--seed", "3",
                   "--out", str(csv_path)])
        assert rc == 0
        assert "achieved_key_rate = 0\n" in capsys.readouterr().out
        header, row = csv_path.read_text().splitlines()
        report = dict(zip(header.split(","), row.split(",")))
        assert report["achieved_key_rate"] == "0"

    def test_one_round_mode_runs(self, tmp_path, capsys):
        path = tmp_path / "fact.json"
        save_channel(factorized_binary(0.0, 0.3), str(path))
        rc = main(["simulate", str(path), "--mode", "one-round", "--n", "8",
                   "--epsilon", "0.4", "--margin", "0.2", "--trials", "200",
                   "--seed", "42"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "reconstruction_success_rate" in out

    @pytest.mark.parametrize("n, margin, bins", [
        (11, "50", 1584), (11, "100", 1584), (4, "1e6", 6)])
    def test_one_round_bins_stop_at_the_typical_set(self, n, margin, bins,
                                                    tmp_path, capsys):
        # More bins than typical output sequences are cut to one bin each.
        # At margin 100 (n = 11) or 1e6 (n = 4), 2^(n (H(Yr|X,S) + margin))
        # is past the float range; the capped exponent gives the same bins.
        path = tmp_path / "fact.json"
        save_channel(factorized_binary(), str(path))
        rc = main(["simulate", str(path), "--mode", "one-round", "--n", str(n),
                   "--margin", margin, "--trials", "200"])
        assert rc == 0
        assert f"  num_public_bins = {bins}\n" in capsys.readouterr().out
