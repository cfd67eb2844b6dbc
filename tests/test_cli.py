"""Tests for the command-line front end: formats, exit codes, determinism."""

import csv
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gptlab
from gptlab import GptError, checks, hadamard, protocols
from gptlab import cli as cli_module
from gptlab.cli import main
from gptlab.hadamard import bell_measurement, hadamard_basis
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

    @pytest.mark.parametrize(
        "theory_args, missing",
        [
            (["--theory", "lambda-tau"], "--lambda and --tau"),
            (["--theory", "lambda-tau", "--lambda", "0.5", "--m", "2"], "--tau"),
            (["--theory", "lambda-tau", "--tau", "0.5"], "--lambda"),
            (["--theory", "embedded", "--lambda", "0.5", "--tau", "0.5"], "--m"),
            (["--theory", "weak", "--tau", "0.5", "--m", "2"], "--lambda"),
            (["--theory", "weak", "--n-bits", "1"], "--lambda"),
        ],
    )
    def test_a_missing_flag_exits_two_and_is_named(self, capsys, theory_args, missing):
        code, out, err = run_cli(capsys, "dense-coding", "--n-bits", "3", *theory_args)
        assert code == 2
        assert out == ""
        kind = theory_args[1]
        assert err == f"error: the {kind} model needs {missing}\n"

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

    @pytest.mark.parametrize(
        "theory",
        [
            ("--theory", "lambda-tau", "--lambda", "1e-9", "--tau", "1e-9"),
            ("--theory", "weak", "--lambda", "1e-17"),
        ],
        ids=["lambda-tau", "weak"],
    )
    def test_tiny_correlations_give_a_non_negative_rate(self, capsys, theory):
        code, out, err = run_cli(
            capsys, "dense-coding", "--n-bits", "3", *theory, "--format", "json"
        )
        assert code == 0, err
        assert json.loads(out)["info_bits"] >= 0.0


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

    def test_csv_leaves_missing_reference_cells_empty(self, capsys):
        code, out, _ = run_cli(capsys, "lambda-tau-table", "--n-max", "6", "--format", "csv")
        assert code == 0
        assert "'" not in out
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n_bits", "info_bits", "lambda_tau", "reference_bits", "agrees"]
        assert rows[4][3:] == ["0.02", "True"]
        assert rows[5][0] == "6" and rows[5][3:] == ["", ""]

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

    @pytest.mark.parametrize("seed", ["2", "3"])
    def test_baseline_suite_with_no_product_state_drawn(self, capsys, seed):
        # One product-decoding trial at these seeds decodes an entangled state.
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "baseline", "--trials", "1", "--seed", seed,
            "--format", "json",
        )
        assert code == 0
        checks = json.loads(out)["suites"]["baseline"]["checks"]
        assert checks["product_decoding_max_bits"] <= 1.0 + 1e-6

    def test_scaled_family_state_fails_the_lemmas_suite(self, capsys, monkeypatch):
        from gptlab import variants

        honest = variants.family_matrices

        def scaled(theory, seed=0):
            states, effects = honest(theory, seed)
            if (theory.kind, theory.n_bits) == ("base", 3):
                states[5, 1:, 1:] *= 1.01  # unit columns grow past their bound
            return states, effects

        monkeypatch.setattr(variants, "family_matrices", scaled)
        code, out, _ = run_cli(capsys, "verify", "--suite", "lemmas", "--format", "json")
        assert code == 1
        report = json.loads(out)
        checks = report["suites"]["lemmas"]["checks"]
        assert checks["states_base_n3"] is False
        assert [k for k, v in checks.items() if v is not True] == ["states_base_n3"]
        assert report["passed"] is False

    @pytest.mark.parametrize("shift", [0.0, 1e-9])
    def test_tomography_suite_asks_one_oracle_call_per_n(self, capsys, monkeypatch, shift):
        from gptlab import hadamard

        honest = hadamard._reconstruct
        asked = []

        def shifted(oracle, dim_a, dim_b):
            def counting(effects_a, effects_b):
                asked.append(dim_a)
                return oracle(effects_a, effects_b)

            rebuilt = honest(counting, dim_a, dim_b)
            if dim_a == 3:
                rebuilt[4, 1, 2] += shift  # rows 0-3 are entangled, row 4 a product
            return rebuilt

        monkeypatch.setattr(hadamard, "_reconstruct", shifted)
        code, out, _ = run_cli(capsys, "verify", "--suite", "tomography", "--format", "json")
        checks = json.loads(out)["suites"]["tomography"]["checks"]
        failed = [k for k, v in checks.items() if v is not True]
        assert asked == [1, 3, 7]
        assert (code, failed) == ((1, ["products_recovered_n2"]) if shift else (0, []))

    def test_lemmas_suite_builds_no_bipartite_value_object(self, capsys, monkeypatch):
        from gptlab.core import BipartiteEffect, BipartiteState

        built = []
        for cls in (BipartiteState, BipartiteEffect):
            honest = cls.__post_init__

            def counting(self, honest=honest):
                built.append(type(self).__name__)
                honest(self)

            monkeypatch.setattr(cls, "__post_init__", counting)
        code, _, _ = run_cli(capsys, "verify", "--suite", "lemmas")
        assert code == 0
        assert built == []
        run_cli(capsys, "verify", "--suite", "tomography")
        assert "BipartiteState" in built

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

        counts = []

        def separable(dim, n, seed, best):
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

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("trials", [1, 8, 9, 64, 1000])
    def test_baseline_chunks_carry_the_running_best(self, monkeypatch, trials, seed):
        from gptlab import capacity

        spent = []
        blahut_arimoto = capacity.blahut_arimoto

        def counting(*args, **kwargs):
            result = blahut_arimoto(*args, **kwargs)
            spent.append(result.iterations)
            return result

        monkeypatch.setattr(capacity, "blahut_arimoto", counting)
        monkeypatch.setattr(protocols, "product_decoding_baseline", lambda n, t, s: 0.5)
        # The oracle: every chunk searched from 0 bits, then the maximum.
        seeds = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(8)]
        counts = [trials // 8 + (i < trials % 8) for i in range(8)]
        oracle = max(
            protocols.separable_baseline(3, count, s) for count, s in zip(counts, seeds) if count
        )
        oracle_spent = sum(spent)
        spent.clear()
        best = cli_module._suite_baseline(seed, trials)["separable_max_bits"]
        assert best.hex() == oracle.hex()
        if trials == 1:  # one chunk: no earlier best to carry
            assert sum(spent) == oracle_spent
        else:
            assert sum(spent) < oracle_spent

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_trials_below_one_exit_two(self, capsys, trials):
        code, out, err = run_cli(capsys, "verify", "--suite", "group", "--trials", trials)
        assert code == 2
        assert out == ""
        assert "--trials" in err

    @pytest.mark.parametrize("suite", ["consistency", "all"])
    @pytest.mark.parametrize("trials", [10**9, 10**12])
    def test_trials_past_the_budget_exit_two_before_allocating(self, capsys, suite, trials):
        # The consistency suite's product pairs asked for 6.4 GB at 10^9
        # trials, and numpy's MemoryError ended 10^12 in exit 4.
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "verify", "--suite", suite, "--trials", str(trials))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert out == ""
        assert err.startswith("error: the consistency suite's product pairs would hold ")
        assert "BUDGET_FLOATS" in err
        assert peak < 2**20

    def test_skewed_rotation_fails_the_group_suite(self, capsys, skewed_rotation):
        code, out, _ = run_cli(capsys, "verify", "--suite", "group", "--format", "json")
        assert code == 1
        checks = json.loads(out)["suites"]["group"]["checks"]
        failed = {name for name, value in checks.items() if value is False}
        assert failed == {"group_table_n3", "rotation_determinants_n3"}

    def test_quarter_turn_fails_only_the_group_table(self, capsys, quarter_turn_rotation):
        code, out, _ = run_cli(capsys, "verify", "--suite", "group", "--format", "json")
        assert code == 1
        checks = json.loads(out)["suites"]["group"]["checks"]
        failed = {name for name, value in checks.items() if value is False}
        assert failed == {"group_table_n3"}

    def test_reflected_rotation_fails_the_group_table_and_determinants(
        self, capsys, reflected_rotation
    ):
        code, out, _ = run_cli(capsys, "verify", "--suite", "group", "--format", "json")
        assert code == 1
        checks = json.loads(out)["suites"]["group"]["checks"]
        failed = {name for name, value in checks.items() if value is False}
        assert failed == {"group_table_n3", "rotation_determinants_n3"}

    def test_nan_rotation_fails_the_group_suite_without_a_traceback(self, capsys, nan_rotation):
        # The broken T_5 never reaches LAPACK, whose determinant would warn.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
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
            protocols,
            "random_product_measurement",
            lambda count, dim_a, dim_b, rng: enumerate(itertools.repeat(bell, count)),
        )
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "baseline", "--trials", "16", "--format", "json"
        )
        assert code == 1
        checks = json.loads(out)["suites"]["baseline"]["checks"]
        assert checks["product_decoding_max_bits"] == 2.0
        assert checks["product_decoding_within_one_bit"] is False

    def test_entangled_resource_fires_the_separable_gate(self, capsys, monkeypatch):
        original = protocols._random_product_states

        def entangled(count, dim, rng):
            original(count, dim, rng)  # keep the draw stream
            return lambda k: np.eye(dim + 1)  # phi_0

        monkeypatch.setattr(protocols, "_random_product_states", entangled)
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

        monkeypatch.setitem(
            cli_module.SUITES, "group", lambda seed, trials: {"forced": False}
        )
        code, out, _ = run_cli(capsys, "verify", "--suite", "group", "--format", "json")
        assert code == 1
        assert json.loads(out)["passed"] is False


def pairwise_xor_closed(signs):
    """``d_x o d_y = d_(x^y)`` for every pair of rows, as one (2^N)^3 broadcast."""
    labels = np.arange(len(signs))
    return np.array_equal(signs[:, None] * signs, signs[labels[:, None] ^ labels])


@st.composite
def mutated_sign_tables(draw):
    """``hadamard_basis(N)``, N = 1..4, with one entry, one column or one
    pair of rows or columns changed."""
    signs = hadamard_basis(draw(st.integers(1, 4))).copy()
    last = len(signs) - 1
    i, j = draw(st.integers(0, last)), draw(st.integers(0, last))
    kind = draw(st.sampled_from(["entry", "column", "rows", "columns"]))
    if kind == "entry":
        values = [0.0, 0.5, -0.5, 2.0, np.nan, np.inf, -np.inf, 1 - 2**-53, -(1 - 2**-53)]
        signs[i, j] = draw(st.sampled_from(values))
    elif kind == "column":
        signs[:, j] = draw(st.sampled_from([0.0, 1.0, -1.0, 0.5]))
    elif kind == "rows":
        signs[[i, j]] = signs[[j, i]]
    else:
        signs[:, [i, j]] = signs[:, [j, i]]
    return signs


class TestGroupSuite:
    @pytest.mark.parametrize("n_bits", [1, 2, 3, 4, 6])
    def test_honest_sign_rows_are_xor_closed(self, n_bits):
        assert checks._xor_closed(hadamard_basis(n_bits)) is True

    @settings(max_examples=400, deadline=None)
    @given(signs=mutated_sign_tables())
    def test_generator_closure_matches_the_pairwise_law(self, signs):
        with np.errstate(invalid="ignore"):
            assert checks._xor_closed(signs) == pairwise_xor_closed(signs)

    def test_reads_each_rotation_once_and_calls_no_lapack(self, monkeypatch):
        reads = []
        original = hadamard.local_transformation

        def counted(label, n_bits):
            reads.append((label, n_bits))
            return original(label, n_bits)

        def no_det(*args):
            raise AssertionError("np.linalg.det called on an unmutated rotation")

        monkeypatch.setattr(hadamard, "local_transformation", counted)
        monkeypatch.setattr(np.linalg, "det", no_det)
        assert all(checks.SUITES["group"](0, 1).values())
        assert reads == [(x, n) for n in range(1, 7) for x in range(2**n)]

    def test_traced_peak_stays_below_a_stack_of_rotations(self):
        # One (2^N)^3 float stack at N = 6 is 2 MiB; the suite needs a few 64 x 64 tables.
        tracemalloc.start()
        try:
            checks.SUITES["group"](0, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024


class TestRenderPath:
    @pytest.mark.parametrize("fmt", ["json", "table"])
    @pytest.mark.parametrize(
        "argv",
        [["dense-coding", "--n-bits", "3"], ["teleport", "--n-bits", "2"], ["swap", "--n-bits", "2"]],
        ids=["dense-coding", "teleport", "swap"],
    )
    def test_csv_rows_are_built_for_csv_only(self, capsys, monkeypatch, argv, fmt):
        calls = []
        monkeypatch.setattr(cli_module, "_indexed_rows", lambda *args: calls.append(args) or [])
        code, out, _ = run_cli(capsys, *argv, "--format", fmt)
        assert (code, calls) == (0, []) and out
        assert run_cli(capsys, *argv, "--format", "csv")[0] == 0
        assert len(calls) == 1


# A small, quick command line for each subcommand.
SMALL_ARGV = {
    "dense-coding": ["--n-bits", "2"],
    "teleport": ["--n-bits", "1"],
    "swap": ["--n-bits", "2"],
    "lambda-tau-table": ["--n-max", "3"],
    "verify": ["--suite", "tomography", "--trials", "1"],
}


class TestEnvelope:
    @pytest.mark.parametrize("command", SMALL_ARGV)
    def test_every_report_opens_with_its_schema_and_command(self, capsys, command):
        code, out, _ = run_cli(capsys, command, *SMALL_ARGV[command])
        assert code == 0
        assert out.startswith(f"schema_version: 1\ncommand: {command}\n")
        code, out, _ = run_cli(capsys, command, *SMALL_ARGV[command], "--format", "json")
        report = json.loads(out)
        assert (report["schema_version"], report["command"]) == (1, command)


class TestArgumentErrors:
    @pytest.mark.parametrize("command", SMALL_ARGV)
    def test_negative_seed_exits_two(self, capsys, command):
        code, out, err = run_cli(capsys, command, *SMALL_ARGV[command], "--seed", "-1")
        assert code == 2
        assert out == ""
        assert "--seed must be an integer >= 0" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("where", ["missing_dir", "directory"])
    def test_unwritable_out_exits_two(self, capsys, tmp_path, where):
        target = tmp_path / "missing" / "r.json" if where == "missing_dir" else tmp_path
        code, out, err = run_cli(
            capsys, "dense-coding", "--n-bits", "2", "--format", "json", "--out", str(target)
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot write --out") and str(target) in err
        assert not (tmp_path / "missing").exists()

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


class TestSharedParser:
    def test_main_builds_the_parser_at_most_once(self, capsys, monkeypatch):

        built = []
        build_parser = cli_module.build_parser

        def counting():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(cli_module, "build_parser", counting)
        cli_module._shared_parser.cache_clear()
        try:
            for n_bits in ("1", "2", "3"):
                assert run_cli(capsys, "dense-coding", "--n-bits", n_bits)[0] == 0
            for argv, code in ((["verify", "--suite", "bogus"], 2), (["--version"], 0)):
                with pytest.raises(SystemExit) as excinfo:
                    main(argv)
                assert excinfo.value.code == code
            assert run_cli(capsys, "swap", "--n-bits", "2")[0] == 0
            assert run_cli(capsys, "teleport", "--n-bits", "13")[0] == 2
        finally:
            cli_module._shared_parser.cache_clear()
        assert len(built) == 1

    def test_build_parser_returns_a_fresh_parser(self):
        from gptlab.cli import build_parser

        assert build_parser() is not build_parser()


class TestLayering:
    def test_cli_rebinds_the_suites_of_the_checks_module(self):
        assert cli_module.SUITES is checks.SUITES
        assert cli_module._suite_baseline is checks._suite_baseline
        own = [
            name
            for name, value in vars(cli_module).items()
            if name.startswith("_suite_") and value.__module__ == cli_module.__name__
        ]
        assert own == []
        assert all(suite.__module__ == checks.__name__ for suite in checks.SUITES.values())

    def test_checks_import_without_the_cli(self):
        probe = "import sys, gptlab.checks; assert 'gptlab.cli' not in sys.modules"
        result = run_python(probe)
        assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("suite", sorted(checks.SUITES))
def test_suites_refuse_negative_seeds(suite):
    for seed in (-1, np.int64(-1)):
        with pytest.raises(GptError, match=r"^seed must be an integer >= 0, got "):
            checks.SUITES[suite](seed, 8)


def run_python(probe):
    """Run ``probe`` in a fresh interpreter that imports this ``gptlab``."""
    source = str(Path(gptlab.__file__).parents[1])
    path = os.pathsep.join(filter(None, (source, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )


# Every name ``from gptlab import *`` binds: the six submodules the package
# imports and the names that code outside the package reads from it.
PUBLIC_NAMES = [
    "BipartiteEffect", "BipartiteState", "Channel", "DomainError", "EXACT_TOL",
    "Effect", "GptError", "Measurement", "OPT_TOL", "ProtocolFalsified",
    "ProtocolLabel", "State", "TheoryConfig", "Transformation", "bell_measurement",
    "bipartite_contract", "bipartite_unit", "blahut_arimoto", "capacity",
    "capacity_search", "capacity_upper_bound", "classify", "contract", "core",
    "dc_capacity_lower_bound", "dense_coding", "dense_coding_info",
    "dimension_upper_bound", "entangled_effect", "entangled_state",
    "entanglement_swap", "hadamard", "hadamard_basis", "hadamard_vector", "hst",
    "lemma_effect_check", "lemma_state_check", "local_tomography",
    "local_transformation", "lt_admissibility_witness", "lt_channel",
    "lt_optimal_info", "lt_optimal_product", "lt_peak_probability", "mix_bipartite",
    "mutual_information", "no_signalling_spread", "one_bit_protocol",
    "product_decoding_baseline", "product_effect", "product_state", "protocols",
    "reduced_states", "separable_baseline", "teleport", "theory_effect",
    "theory_state", "tl_violation_witness", "unit_effect", "variants",
    "verify_max_tensor_membership", "weak_dense_coding", "weak_entanglement_bound",
    "weak_thresholds",
]


def test_public_surface_is_pinned_and_the_cli_import_leaves_it():
    probe = (
        "import json, gptlab; before = sorted(gptlab.__all__); import gptlab.cli; "
        "print(json.dumps([before, sorted(gptlab.__all__)]))"
    )
    result = run_python(probe)
    assert result.returncode == 0, result.stderr
    before, after = json.loads(result.stdout)
    assert before == after == PUBLIC_NAMES
    assert sorted(gptlab.__all__) == PUBLIC_NAMES
