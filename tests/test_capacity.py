"""Tests for the prior optimiser and the analytic capacity bounds."""

import math

import numpy as np
import pytest

from gptlab import (
    DomainError,
    GptError,
    OPT_TOL,
    TheoryConfig,
    blahut_arimoto,
    dc_capacity_lower_bound,
    dense_coding,
    dimension_upper_bound,
    lt_optimal_info,
    lt_optimal_product,
    weak_entanglement_bound,
    weak_thresholds,
)
from gptlab.capacity import uniform_prior_information
from gptlab.variants import lt_channel


def binary_entropy(p: float) -> float:
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


class TestBlahutArimoto:
    def test_identity_channels(self):
        for n_bits in (1, 2, 3, 4):
            size = 2**n_bits
            result = blahut_arimoto(np.eye(size))
            assert result.converged
            assert result.capacity_bits == float(n_bits)
            assert np.abs(result.optimal_prior - 1.0 / size).max() < 1e-9

    def test_binary_symmetric_channel_closed_form(self):
        flip = 0.25
        conditional = np.array([[1 - flip, flip], [flip, 1 - flip]])
        result = blahut_arimoto(conditional)
        expected = 1.0 - binary_entropy(flip)
        assert abs(result.capacity_bits - expected) < 1e-9
        assert abs(expected - 0.18872187554086717) < 1e-12

    def test_erasure_like_channel(self):
        # binary erasure channel with erasure probability 1/3: capacity 2/3
        conditional = np.array([[2 / 3, 0.0, 1 / 3], [0.0, 2 / 3, 1 / 3]])
        result = blahut_arimoto(conditional)
        assert abs(result.capacity_bits - 2 / 3) < 1e-9

    def test_never_below_uniform_prior_information(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n_in = int(rng.integers(2, 9))
            n_out = int(rng.integers(2, 9))
            conditional = rng.dirichlet(np.ones(n_out), size=n_in)
            result = blahut_arimoto(conditional)
            assert (
                result.capacity_bits
                >= uniform_prior_information(conditional) - OPT_TOL
            )

    def test_deterministic_repeats(self):
        rng = np.random.default_rng(1)
        conditional = rng.dirichlet(np.ones(5), size=4)
        first = blahut_arimoto(conditional)
        second = blahut_arimoto(conditional)
        assert first.capacity_bits == second.capacity_bits
        assert first.iterations == second.iterations
        assert np.array_equal(first.optimal_prior, second.optimal_prior)

    def test_non_convergence_reports_best_iterate(self):
        rng = np.random.default_rng(2)
        conditional = rng.dirichlet(np.ones(6), size=6)
        result = blahut_arimoto(conditional, tol=1e-15, max_iter=3)
        assert not result.converged
        assert result.iterations == 3
        assert result.capacity_bits >= 0.0

    def test_single_input_channel_has_zero_capacity(self):
        result = blahut_arimoto(np.array([[0.25, 0.75]]))
        assert result.capacity_bits == 0.0

    def test_rejects_bad_rows(self):
        with pytest.raises(DomainError):
            blahut_arimoto(np.array([[0.5, 0.2], [0.5, 0.5]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("entry", [(0, 0), (1, 1)])
    def test_rejects_a_non_finite_table_entry(self, bad, entry):
        conditional = np.array([[0.0, 1.0], [0.5, 0.5]])
        conditional[entry] = bad
        with pytest.raises(DomainError):
            blahut_arimoto(conditional)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1e-9])
    def test_rejects_a_non_finite_or_non_positive_tol(self, tol):
        with pytest.raises(GptError):
            blahut_arimoto(np.eye(2), tol=tol)

    def test_deformed_channel_capacity_at_uniform_prior(self):
        theory = TheoryConfig.lambda_tau(3, 1.0, lt_optimal_product(3))
        channel = lt_channel(theory)
        result = blahut_arimoto(channel.conditional)
        # symmetric channel: the uniform prior is optimal
        assert abs(result.capacity_bits - lt_optimal_info(3)) < 1e-6
        assert abs(result.capacity_bits - 0.15356065532898455) < 1e-6


class TestBounds:
    def test_dc_lower_bound_matches_protocol(self):
        for n_bits in (1, 2, 4):
            assert dc_capacity_lower_bound(TheoryConfig.base(n_bits)) == float(n_bits)

    def test_dc_lower_bound_deformed_model_at_optimum(self):
        theory = TheoryConfig.lambda_tau(3, 1.0, lt_optimal_product(3))
        assert abs(dc_capacity_lower_bound(theory) - lt_optimal_info(3)) < 1e-12

    def test_dc_lower_bound_uncorrelated_weak_model(self):
        # lambda = 0 leaves a constant channel: the explicit run certifies 0
        assert dc_capacity_lower_bound(TheoryConfig.weak(3, 0.0)) == 0.0

    def test_dimension_upper_bound_values(self):
        assert dimension_upper_bound(2) == 4.0
        assert dimension_upper_bound(5) == 10.0
        with pytest.raises(GptError):
            dimension_upper_bound(0)

    def test_sandwich_chain_base_theory(self):
        for n_bits in range(1, 7):
            theory = TheoryConfig.base(n_bits)
            lower = dc_capacity_lower_bound(theory)
            observed = blahut_arimoto(
                dense_coding(n_bits, theory=theory).channel.conditional
            ).capacity_bits
            assert dimension_upper_bound(n_bits) >= observed >= lower - 1e-9
            assert lower == float(n_bits)

    def test_weak_bound_thresholds_exact(self):
        for n_bits in range(2, 7):
            t0, t1 = weak_thresholds(n_bits)
            assert weak_entanglement_bound(t0, n_bits) == 1.0
            assert weak_entanglement_bound(t1, n_bits) == 2.0

    def test_weak_bound_edge_values(self):
        assert weak_entanglement_bound(0.0, 3) == 0.0
        assert weak_entanglement_bound(1.0, 3) == 3.0
        with pytest.raises(DomainError):
            weak_entanglement_bound(1.5, 3)

    def test_weak_runs_respect_bound(self):
        for n_bits in (2, 3):
            for lam in (0.05, 0.2, 0.5, 1.0):
                theory = TheoryConfig.weak(n_bits, lam)
                run = dense_coding(n_bits, theory=theory)
                bound = weak_entanglement_bound(lam, n_bits)
                capacity = blahut_arimoto(run.channel.conditional).capacity_bits
                assert run.info_bits <= bound + OPT_TOL
                assert capacity <= bound + OPT_TOL
