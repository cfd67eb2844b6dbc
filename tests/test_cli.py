"""Tests for the command-line front end: formats, exit codes, determinism."""

import csv
import io
import json
import math

import numpy as np
import pytest

from gptlab import protocols
from gptlab.cli import main
from gptlab.hadamard import bell_measurement
from gptlab.variants import LT_MAX_N_BITS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDenseCodingCommand:
    def test_base_three_bits_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "dense-coding", "--n-bits", "3", "--format", "json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["schema_version"] == 1
        assert report["info_bits"] == 3.0
        assert report["classification"] == "HYPERDENSE"
        assert report["bounds"]["dimension_upper_bits"] == 6.0
        assert np.array_equal(np.array(report["channel"]["conditional"]), np.eye(8))

    def test_two_bits_is_superdense_only(self, capsys):
        code, out, _ = run_cli(
            capsys, "dense-coding", "--n-bits", "2", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["classification"] == "SUPERDENSE"

    def test_deformed_model_at_its_optimum(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "dense-coding",
            "--n-bits",
            "3",
            "--theory",
            "lambda-tau",
            "--lambda",
            "0.2",
            "--tau",
            "1.0",
            "--format",
            "json",
        )
        assert code == 0
        assert abs(json.loads(out)["info_bits"] - 0.15356065532898455) < 1e-9

    def test_inadmissible_parameters_exit_two(self, capsys):
        code, _, err = run_cli(
            capsys,
            "dense-coding",
            "--n-bits",
            "3",
            "--theory",
            "lambda-tau",
            "--lambda",
            "0.333333",
            "--tau",
            "1.0",
        )
        assert code == 2
        assert "lambda*tau" in err
        assert "2^N-3" in err

    def test_weak_model_at_first_threshold(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "dense-coding",
            "--n-bits",
            "2",
            "--theory",
            "weak",
            "--lambda",
            "0.3333",
            "--format",
            "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["info_bits"] <= 1.0 + 1e-6
        assert report["classification"] == "ORDINARY"

    def test_weak_model_requires_lambda(self, capsys):
        code, _, err = run_cli(
            capsys, "dense-coding", "--n-bits", "2", "--theory", "weak"
        )
        assert code == 2
        assert "--lambda" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "theory_args",
        [
            ["--theory", "weak", "--lambda={}"],
            ["--theory", "lambda-tau", "--lambda={}", "--tau", "0.5"],
            ["--theory", "lambda-tau", "--lambda", "0.5", "--tau={}"],
        ],
        ids=["weak-lambda", "lambda-tau-lambda", "lambda-tau-tau"],
    )
    def test_non_finite_parameters_exit_two(self, capsys, theory_args, value):
        argv = ["dense-coding", "--n-bits", "2", "--format", "json"]
        code, out, err = run_cli(capsys, *argv, *(a.format(value) for a in theory_args))
        assert code == 2
        assert out == ""
        assert "finite" in err

    def test_embedded_model(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "dense-coding",
            "--n-bits",
            "2",
            "--theory",
            "embedded",
            "--m",
            "2",
            "--format",
            "json",
        )
        assert code == 0
        assert json.loads(out)["info_bits"] == 2.0

    def test_json_output_is_byte_identical(self, capsys):
        args = ("dense-coding", "--n-bits", "2", "--seed", "7", "--format", "json")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_csv_output_parses(self, capsys):
        code, out, _ = run_cli(
            capsys, "dense-coding", "--n-bits", "1", "--format", "csv"
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["x", "y0", "y1"]
        assert rows[1] == ["0", "1.0", "0.0"]

    def test_out_flag_writes_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys,
            "dense-coding",
            "--n-bits",
            "1",
            "--format",
            "json",
            "--out",
            str(target),
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["info_bits"] == 1.0


class TestTeleportCommand:
    def test_axis_state(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "teleport",
            "--n-bits",
            "2",
            "--state",
            "axis:1",
            "--format",
            "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["max_residual"] < 1e-12
        assert report["outcome_priors"] == [0.25, 0.25, 0.25, 0.25]

    def test_degenerate_single_bit(self, capsys):
        code, out, _ = run_cli(
            capsys, "teleport", "--n-bits", "1", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["max_residual"] < 1e-12

    def test_swapped_sign_rows_exit_three(self, capsys, swapped_sign_rows):
        code, out, _ = run_cli(capsys, "teleport", "--n-bits", "3", "--format", "json")
        assert code == 3
        report = json.loads(out)
        assert report["passed"] is False
        assert report["max_residual"] > 0.1

    def test_nan_report_exits_three_without_output(self, capsys, tmp_path, nan_sign_row):
        argv = ("teleport", "--n-bits", "2", "--format", "json")
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert err.startswith("protocol falsified:") and err.count("\n") == 1
        target = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, *argv, "--out", str(target))
        assert (code, out) == (3, "")
        assert not target.exists()

    def test_bad_axis_exits_two(self, capsys):
        code, _, err = run_cli(
            capsys, "teleport", "--n-bits", "2", "--state", "axis:9"
        )
        assert code == 2
        assert "axis" in err


class TestSwapCommand:
    def test_swaps_label_three(self, capsys):
        code, out, _ = run_cli(
            capsys, "swap", "--n-bits", "2", "--mu", "3", "--format", "json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["max_residual"] < 1e-12
        for row in report["conditional"]:
            assert row == [0.0, 0.0, 0.0, 1.0]


class TestRateTableCommand:
    def test_reference_agreement(self, capsys):
        code, out, _ = run_cli(
            capsys, "lambda-tau-table", "--n-max", "6", "--format", "json"
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        flagged = {r["n_bits"]: r for r in rows if "agrees" in r}
        assert set(flagged) == {2, 3, 4, 5}
        assert all(r["agrees"] for r in flagged.values())
        rates = [r["info_bits"] for r in rows]
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_rejects_small_n_max(self, capsys):
        code, _, err = run_cli(capsys, "lambda-tau-table", "--n-max", "1")
        assert code == 2
        assert "n-max" in err

    @pytest.mark.parametrize("n_max", [LT_MAX_N_BITS + 1, 1_000_000_000])
    def test_rejects_n_max_above_the_cap(self, capsys, n_max):
        code, out, err = run_cli(capsys, "lambda-tau-table", "--n-max", str(n_max))
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            f"error: --n-max must be between 2 and {LT_MAX_N_BITS}, got {n_max}"
        ]

    @pytest.mark.parametrize("n_max", [65, LT_MAX_N_BITS])
    def test_rows_past_64_bits_are_finite(self, capsys, n_max):
        code, out, _ = run_cli(
            capsys, "lambda-tau-table", "--n-max", str(n_max), "--format", "json"
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [r["n_bits"] for r in rows] == list(range(2, n_max + 1))
        last = rows[-1]
        assert math.isfinite(last["info_bits"])
        assert last["peak_probability"] == 2.0 ** (1 - n_max)
        assert last["lambda_tau"] == 2.0 ** -n_max


class TestVerifyCommand:
    def test_group_suite_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "group", "--format", "json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert report["suites"]["group"]["passed"] is True

    def test_baseline_suite_small(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify",
            "--suite",
            "baseline",
            "--trials",
            "80",
            "--format",
            "json",
        )
        assert code == 0
        checks = json.loads(out)["suites"]["baseline"]["checks"]
        assert checks["separable_max_bits"] <= 1.0 + 1e-6

    def test_verify_repeats_byte_identically(self, capsys):
        args = (
            "verify",
            "--suite",
            "baseline",
            "--trials",
            "40",
            "--format",
            "json",
        )
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    @pytest.mark.parametrize("trials", [1, 10, 100, 1000])
    def test_baseline_runs_exactly_the_requested_trials(self, capsys, monkeypatch, trials):
        from gptlab import cli as cli_module

        counts = []

        def separable(dim, n, seed):
            counts.append(n)
            return 0.5

        monkeypatch.setattr(cli_module.protocols, "separable_baseline", separable)
        monkeypatch.setattr(
            cli_module.protocols, "product_decoding_baseline", lambda n, t, s: 0.5
        )
        code, _, _ = run_cli(
            capsys, "verify", "--suite", "baseline", "--trials", str(trials)
        )
        assert code == 0
        assert sum(counts) == trials
        assert 1 <= len(counts) <= 8
        assert min(counts) >= 1
        assert max(counts) - min(counts) <= 1

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_trials_below_one_exit_two(self, capsys, trials):
        code, out, err = run_cli(capsys, "verify", "--suite", "group", "--trials", trials)
        assert code == 2
        assert out == ""
        assert "--trials" in err

    def test_skewed_rotation_fails_the_group_suite(self, capsys, skewed_rotation):
        code, out, _ = run_cli(capsys, "verify", "--suite", "group", "--format", "json")
        assert code == 1
        checks = json.loads(out)["suites"]["group"]["checks"]
        failed = {name for name, value in checks.items() if value is False}
        assert failed == {"group_table_n3", "rotation_determinants_n3"}

    def test_skewed_rotation_fails_the_consistency_suite(self, capsys, skewed_rotation):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "consistency", "--trials", "100", "--format", "json"
        )
        assert code == 1
        checks = json.loads(out)["suites"]["consistency"]["checks"]
        failed = {name for name, value in checks.items() if value is False}
        assert failed == {"norm_preserved_n3", "entangled_orbit_n3", "max_tensor_membership_n3"}

    def test_tripled_bell_effect_fails_the_consistency_suite(
        self, capsys, tripled_bell_effect
    ):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "consistency", "--trials", "100", "--format", "json"
        )
        assert code == 1
        checks = json.loads(out)["suites"]["consistency"]["checks"]
        failed = {name for name, value in checks.items() if value is False}
        assert failed == {"bell_completeness_n3", "effect_product_range_n3"}

    def test_bell_decoding_fires_the_product_decoding_gate(self, capsys, monkeypatch):
        bell = np.stack([e.matrix for e in bell_measurement(2).effects])
        monkeypatch.setattr(
            protocols, "random_product_measurement", lambda dim_a, dim_b, rng: bell
        )
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "baseline", "--trials", "16", "--format", "json"
        )
        assert code == 1
        checks = json.loads(out)["suites"]["baseline"]["checks"]
        assert checks["product_decoding_max_bits"] == 2.0
        assert checks["product_decoding_within_one_bit"] is False

    def test_entangled_resource_fires_the_separable_gate(self, capsys, monkeypatch):
        original = protocols._random_product_state

        def entangled(dim, rng):
            original(dim, rng)  # keep the draw stream
            return np.eye(dim + 1)  # phi_0

        monkeypatch.setattr(protocols, "_random_product_state", entangled)
        monkeypatch.setattr(protocols, "BELL_FRACTION", 1)
        assert protocols.separable_baseline(3, 16, 0) == 2.0
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "baseline", "--trials", "16", "--format", "json"
        )
        assert code == 1
        checks = json.loads(out)["suites"]["baseline"]["checks"]
        assert checks["separable_max_bits"] == 2.0
        assert checks["separable_within_one_bit"] is False

    def test_failed_check_exits_one(self, capsys, monkeypatch):
        from gptlab import cli as cli_module

        monkeypatch.setitem(
            cli_module.SUITES, "group", lambda seed, trials: {"forced": False}
        )
        code, out, _ = run_cli(capsys, "verify", "--suite", "group", "--format", "json")
        assert code == 1
        assert json.loads(out)["passed"] is False


class TestArgumentErrors:
    def test_unknown_suite_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--suite", "bogus"])
        assert excinfo.value.code == 2

    def test_missing_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("n_bits", ["0", "13"])
    @pytest.mark.parametrize("command", ["dense-coding", "teleport", "swap"])
    def test_n_bits_outside_range_exit_two(self, capsys, command, n_bits):
        code, out, err = run_cli(capsys, command, "--n-bits", n_bits)
        assert code == 2
        assert out == ""
        assert "--n-bits must be between 1 and 12" in err
        assert "Traceback" not in err

    def test_out_of_memory_exits_four(self, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(protocols, "dense_coding", exhausted)
        code, out, err = run_cli(capsys, "dense-coding", "--n-bits", "3", "--format", "json")
        assert code == 4
        assert out == ""
        assert err.startswith("error: out of memory")
        assert err.count("\n") == 1

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "gptlab" in capsys.readouterr().out
