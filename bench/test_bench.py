"""Tests of the benchmark itself: its output checks, op sequence, failure
accounting and span tracing.

    PYTHONPATH=src python3 -m pytest bench -q
"""

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import workloads
from reference import Sampler, kernel_for
from spans import SPAN_NAMES, Tracer, _children_cover, metric_names
from worker import measure, run_rounds

from gptlab import capacity, hadamard, hst, protocols, variants


class Report:
    def __init__(self, passed):
        self.passed = passed
        self.violations = ()


# --------------------------------------------------------------------------
# every checker flags a deliberately wrong result


def test_exact_dense_coding_flags_swapped_rows():
    run_ = protocols.dense_coding(3)
    assert checks.exact_dense_coding(run_.channel.conditional, run_.info_bits, 3) is None
    swapped = run_.channel.conditional[[1, 0, 2, 3, 4, 5, 6, 7]]
    assert checks.exact_dense_coding(swapped, run_.info_bits, 3) is not None
    assert checks.exact_dense_coding(run_.channel.conditional, 3.0 - 1e-15, 3) is not None


def test_lambda_tau_rate_flags_a_rate_off_by_two_micro_bits():
    theory = workloads.theory_for("lambda-tau", 4)
    ba = capacity.blahut_arimoto(variants.lt_channel(theory).conditional)
    optimal = variants.lt_optimal_info(4)
    assert checks.lambda_tau_rate(ba.capacity_bits, optimal) is None
    assert checks.lambda_tau_rate(optimal + 2e-6, optimal) is not None
    assert checks.lambda_tau_rate(float("nan"), optimal) is not None


def test_weak_rate_flags_a_rate_above_the_bound():
    bound = capacity.weak_entanglement_bound(3.0 / 15.0, 4)
    assert checks.weak_rate(bound, bound) is None
    assert checks.weak_rate(bound + 2e-6, bound) is not None


def test_priors_and_residual_flag_inexact_priors_and_large_residuals():
    swap = protocols.entanglement_swap(3, label=5)
    assert checks.exact_priors_and_residual(swap.outcome_priors, swap.max_residual, 3) is None
    priors = np.array(swap.outcome_priors)
    priors[2] = np.nextafter(priors[2], 1.0)
    assert checks.exact_priors_and_residual(priors, 0.0, 3) is not None
    assert checks.exact_priors_and_residual(swap.outcome_priors, 1e-11, 3) is not None
    assert checks.exact_priors_and_residual(swap.outcome_priors[:4], 0.0, 3) is not None


def test_one_bit_ceiling_flags_a_falsifier_above_one_bit():
    assert checks.one_bit_ceiling(1.0, floor_one_bit=True) is None
    assert checks.one_bit_ceiling(0.6) is None
    assert checks.one_bit_ceiling(1.01) is not None
    assert checks.one_bit_ceiling(0.99, floor_one_bit=True) is not None


def test_report_checks_flag_failed_reports():
    assert checks.passed_report(Report(True)) is None
    assert checks.passed_report(Report(False)) is not None
    assert checks.all_passed([Report(True), Report(False)]) is not None


def test_reconstructed_flags_a_missed_entry():
    phi = hadamard.entangled_state(3, 2)
    assert checks.reconstructed(hadamard.local_tomography(phi).matrix, phi.matrix) is None
    wrong = phi.matrix.copy()
    wrong[1, 2] += 1e-11
    assert checks.reconstructed(wrong, phi.matrix) is not None


def test_cli_report_flags_exit_codes_and_changed_bytes():
    assert checks.cli_report(0, "{}\n", None) is None
    assert checks.cli_report(0, "{}\n", "{}\n") is None
    assert checks.cli_report(1, "{}\n", None) is not None
    assert checks.cli_report(0, "{} \n", "{}\n") is not None
    refs = workloads.CliReferences()
    assert refs.check(["x"], (0, "a")) is None
    assert refs.check(["x"], (0, "b")) is not None


# --------------------------------------------------------------------------
# the real program passes every op's check


def cheap_kinds():
    kinds = workloads.op_kinds("identities", 3)
    kinds += [k for k in workloads.op_kinds("dense_scale", 3) if k.name.endswith("n5")]
    kinds += [k for k in workloads.op_kinds("falsify", 3) if "dim2" in k.name]
    return kinds


@pytest.mark.parametrize("kind", cheap_kinds(), ids=lambda k: k.name)
def test_program_output_passes_its_check(kind):
    call, check = kind.prepare(11)
    assert check(call()) is None


# --------------------------------------------------------------------------
# op sequence and failure accounting


def test_rounds_are_seeded_permutations_of_the_mix():
    kinds = workloads.op_kinds("falsify", 5)
    first = workloads.round_ops(kinds, 5, 0)
    again = workloads.round_ops(workloads.op_kinds("falsify", 5), 5, 0)
    assert [(k.name, s) for k, s in first] == [(k.name, s) for k, s in again]
    other = workloads.round_ops(kinds, 6, 0)
    assert [(k.name, s) for k, s in first] != [(k.name, s) for k, s in other]
    counts = {}
    for kind, _ in first:
        counts[kind.name] = counts.get(kind.name, 0) + 1
    assert counts == {k.name: k.weight for k in kinds}


def test_failed_ops_are_counted_and_kept_in_the_sample():
    def wrong(_seed):
        return (lambda: 1.01), checks.one_bit_ceiling

    def raising(_seed):
        def call():
            raise ValueError("boom")

        return call, checks.one_bit_ceiling

    def right(_seed):
        return (lambda: 1.0), checks.one_bit_ceiling

    kinds = [
        workloads.OpKind("wrong", 1, wrong),
        workloads.OpKind("raising", 1, raising),
        workloads.OpKind("right", 2, right),
    ]
    sampler = Sampler(kernel_for("falsify"))
    ops, starts = measure(kinds, seed=0, seconds=0.0, sampler=sampler, min_ops=8)
    assert len(ops) == len(starts) == 8
    failed = run.failures(ops)
    assert len(failed) == 4
    assert all(elapsed >= 0.0 for _, elapsed, _ in ops)
    assert {name for name, _, reason in ops if reason} == {"wrong", "raising"}


def test_op_scales_use_the_nearest_kernel_samples():
    from reference import op_scales

    # The host runs at half reference speed, then at full speed.
    ref = 1e-3
    samples = [(float(t), 2 * ref if t < 10 else ref) for t in range(20)]
    scales = op_scales([0.5, 4.5, 14.5, 19.5], samples, ref)
    assert scales.tolist() == [0.5, 0.5, 1.0, 1.0]


def test_kernels_do_fixed_work():
    arrays = (np.full(1 << 20, 1.0), np.zeros(1 << 20))
    for workload in workloads.WORKLOADS:
        kernel = kernel_for(workload)
        assert kernel(arrays) == kernel(arrays)
        assert kernel.time(3) > 0.0
    assert np.all(arrays[1] == 1.0001)


# --------------------------------------------------------------------------
# tracing


def test_wrappers_reach_every_namespace_and_uninstall_cleanly():
    import gptlab

    originals = (
        capacity.blahut_arimoto,
        protocols.blahut_arimoto,
        gptlab.blahut_arimoto,
        hst.random_measurement,
        protocols.random_measurement,
    )
    tracer = Tracer()
    tracer.install()
    try:
        assert capacity.blahut_arimoto is not originals[0]
        assert protocols.blahut_arimoto is capacity.blahut_arimoto
        assert gptlab.blahut_arimoto is capacity.blahut_arimoto
        assert protocols.random_measurement is hst.random_measurement is not originals[3]
        tracer.active = True
        hst.capacity_search(3, trials=5, seed=0)
        protocols.separable_baseline(3, trials=3, seed=0)
        tracer.active = False
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert metrics["hst.capacity_search.calls"] == 1
    assert metrics["capacity.blahut_arimoto.calls"] == 8
    assert metrics["protocols.separable_baseline.calls"] == 1
    assert metrics["hst.random_measurement.calls"] >= 5
    assert metrics["core.State.calls"] > 0
    restored = (
        capacity.blahut_arimoto,
        protocols.blahut_arimoto,
        gptlab.blahut_arimoto,
        hst.random_measurement,
        protocols.random_measurement,
    )
    assert all(a is b for a, b in zip(originals, restored))
    assert "__post_init__" not in vars(hadamard.LocalTransformation)


def test_inactive_tracer_records_nothing():
    tracer = Tracer()
    tracer.install()
    try:
        protocols.dense_coding(2)
    finally:
        tracer.uninstall()
    assert tracer.spans()["id"].size == 0


def test_computed_counts_repeat_exactly_for_a_fixed_seed():
    kinds = [k for k in workloads.op_kinds("dense_scale", 4) if k.name.endswith("n5")]
    kinds += [k for k in workloads.op_kinds("falsify", 4) if "dim2" in k.name]
    results = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            ops, _ = run_rounds(kinds, 4, 1, Sampler(kernel_for("falsify")), tracer)
        finally:
            tracer.uninstall()
        assert not run.failures(ops)
        metrics = tracer.layer_metrics()
        assert set(metrics) == set(metric_names())
        results.append({k: v for k, v in metrics.items() if not k.endswith("self_s")})
    assert results[0] == results[1]
    counts = results[0]
    # Four N=5 theories, two ops each: two 32 x S x S float64 stacks per op,
    # S = 32 except the embedded model's 32 + 4.
    side = {"base": 32, "lambda-tau": 32, "weak": 32, "embedded": 36}
    assert counts["protocols.dense_coding.stack_bytes"] == sum(
        2 * (2 * 32 * s * s * 8) for s in side.values()
    )
    assert counts["capacity.blahut_arimoto.cell_iters"] > 0


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = {
        "id": np.array([0, 1, 2, 3]),
        "parent": np.array([-1, 0, 0, 0]),
        "start": np.array([0.0, 1.0, 1.5, 5.0]),
        "end": np.array([10.0, 3.0, 4.0, 6.0]),
    }
    covered = _children_cover(spans)
    assert covered.tolist() == [4.0, 0.0, 0.0, 0.0]


def test_the_traced_pass_parents_pool_threads_to_the_cli_span():
    tracer = Tracer()
    tracer.install()
    try:
        tracer.active = True
        code, text = workloads.run_cli(["verify", "--suite", "baseline", "--trials", "16"])
        tracer.active = False
    finally:
        tracer.uninstall()
    assert code == 0
    spans = tracer.spans()
    cli_id = spans["id"][spans["name"] == SPAN_NAMES.index("cli.main")][0]
    separable = spans["name"] == SPAN_NAMES.index("protocols.separable_baseline")
    assert separable.sum() == 8
    assert np.all(spans["parent"][separable] == cli_id)
    metrics = tracer.layer_metrics()
    assert metrics["cli.main.report_bytes"] == len(text)


# --------------------------------------------------------------------------
# the runner refuses to report without the program's sources


def test_run_fails_without_sources(tmp_path):
    bench = Path(__file__).resolve().parent
    shutil.copytree(bench, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "identities", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
