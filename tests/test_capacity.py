"""Tests for the prior optimiser and the analytic capacity bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gptlab import (
    EXACT_TOL,
    DomainError,
    GptError,
    OPT_TOL,
    TheoryConfig,
    blahut_arimoto,
    capacity_search,
    dc_capacity_lower_bound,
    dense_coding,
    dimension_upper_bound,
    lt_optimal_info,
    lt_optimal_product,
    product_decoding_baseline,
    separable_baseline,
    weak_entanglement_bound,
    weak_thresholds,
)
from gptlab.capacity import uniform_prior_information
from gptlab.variants import lt_channel


def binary_entropy(p: float) -> float:
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


# Rounding slack for comparing a bound with a closed form computed another way.
ROUNDING = 1e-12


@st.composite
def row_stochastic_tables(draw):
    """Tables of 1-6 inputs and 1-6 outputs with rows summing to 1, some zeros."""
    n_in = draw(st.integers(1, 6))
    n_out = draw(st.integers(1, 6))
    entry = st.sampled_from([0.0, 0.1, 0.5, 1.0, 2.0, 7.0])
    row = st.lists(entry, min_size=n_out, max_size=n_out).filter(lambda r: sum(r) > 0)
    weights = draw(st.lists(row, min_size=n_in, max_size=n_in))
    table = np.array(weights)
    return table / table.sum(axis=1, keepdims=True)


def circulant(row) -> np.ndarray:
    """Symmetric channel whose rows are the cyclic shifts of ``row``.

    The uniform prior is optimal, so the capacity is
    ``log2(len(row)) - H(row)`` in closed form.
    """
    return np.array([np.roll(row, k) for k in range(len(row))])


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

    @pytest.mark.parametrize("tol", [True, np.True_])
    def test_rejects_a_bool_tol(self, tol):
        with pytest.raises(GptError, match="tol"):
            blahut_arimoto(np.eye(2), tol=tol)

    @pytest.mark.parametrize("size", range(1, 9))
    def test_identity_bounds_sandwich_the_closed_form(self, size):
        result = blahut_arimoto(np.eye(size))
        exact = math.log2(size)
        assert result.capacity_bits <= exact + ROUNDING
        assert exact <= result.upper_bits + ROUNDING

    @pytest.mark.parametrize("max_iter", [1, 2, 5, 100_000])
    @pytest.mark.parametrize("flip", [0.0, 0.1, 0.25, 0.5])
    def test_binary_symmetric_bounds_sandwich_the_closed_form(self, flip, max_iter):
        conditional = np.array([[1 - flip, flip], [flip, 1 - flip]])
        result = blahut_arimoto(conditional, max_iter=max_iter)
        exact = 1.0 - binary_entropy(flip)
        assert result.capacity_bits <= exact + ROUNDING
        assert exact <= result.upper_bits + ROUNDING

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.sampled_from([0.0, 0.1, 0.5, 1.0, 3.0]), min_size=2, max_size=7).filter(
            lambda row: sum(row) > 0
        ),
        st.integers(1, 30),
    )
    def test_circulant_bounds_sandwich_the_closed_form(self, weights, max_iter):
        row = np.array(weights) / sum(weights)
        exact = math.log2(len(row)) + float(np.sum(row[row > 0] * np.log2(row[row > 0])))
        result = blahut_arimoto(circulant(row), max_iter=max_iter)
        assert result.capacity_bits <= exact + ROUNDING
        assert exact <= result.upper_bits + ROUNDING

    @settings(max_examples=80, deadline=None)
    @given(row_stochastic_tables(), st.integers(1, 40))
    def test_every_lower_bound_is_below_every_upper_bound(self, conditional, max_iter):
        # The true capacity lies between any iterate's two bounds, so a
        # short run and a long one bracket each other.
        early = blahut_arimoto(conditional, max_iter=max_iter)
        later = blahut_arimoto(conditional, max_iter=2000)
        assert early.capacity_bits <= later.upper_bits + ROUNDING
        assert later.capacity_bits <= early.upper_bits + ROUNDING

    @settings(max_examples=80, deadline=None)
    @given(row_stochastic_tables(), st.sampled_from([0.0, 0.2, 0.5, 1.0, 2.0]))
    def test_a_stopped_run_is_certified_below_the_incumbent(self, conditional, incumbent):
        full = blahut_arimoto(conditional, tol=1e-6, max_iter=60)
        result = blahut_arimoto(conditional, tol=1e-6, max_iter=60, incumbent=incumbent)
        if not result.converged and result.upper_bits <= incumbent - EXACT_TOL:
            assert result.iterations <= full.iterations
            assert full.capacity_bits < incumbent
        else:
            # Never stopped early: the same run, bit for bit.
            assert result.iterations == full.iterations
            assert result.capacity_bits == full.capacity_bits
            assert result.upper_bits == full.upper_bits
            assert np.array_equal(result.optimal_prior, full.optimal_prior)
        assert max(incumbent, result.capacity_bits) == max(incumbent, full.capacity_bits)

    def test_stops_at_the_first_certifying_iteration(self):
        # The Z channel has capacity 0.32 bits; the uniform prior is not
        # optimal, but its dual bound 0.42 is already below one bit.
        conditional = np.array([[1.0, 0.0], [0.5, 0.5]])
        result = blahut_arimoto(conditional, tol=1e-15, incumbent=1.0)
        assert result.iterations == 1
        assert not result.converged
        assert result.upper_bits <= 1.0 - EXACT_TOL

    def test_incumbent_below_the_capacity_changes_nothing(self):
        result = blahut_arimoto(np.eye(4), incumbent=1.0)
        assert result.converged
        assert result.capacity_bits == 2.0
        assert result.upper_bits == 2.0

    @pytest.mark.parametrize(
        "incumbent", [math.nan, math.inf, -math.inf, "1.0", 1j, np.array([1.0])]
    )
    def test_rejects_an_incumbent_that_is_not_a_finite_real(self, incumbent):
        with pytest.raises(GptError, match="incumbent"):
            blahut_arimoto(np.eye(2), incumbent=incumbent)

    @pytest.mark.parametrize("incumbent", [True, False, np.True_])
    def test_rejects_a_bool_incumbent(self, incumbent):
        with pytest.raises(GptError, match="incumbent"):
            blahut_arimoto(np.eye(2), incumbent=incumbent)

    @pytest.mark.parametrize(
        "max_iter", [math.nan, math.inf, 2.5, 2.0, -1, "3", True, np.float64(3.0)]
    )
    def test_rejects_a_max_iter_that_is_not_a_non_negative_integer(self, max_iter):
        with pytest.raises(GptError, match="max_iter"):
            blahut_arimoto(np.eye(2), max_iter=max_iter)

    @pytest.mark.parametrize("max_iter", [1, np.int64(1), np.uint8(1)])
    def test_accepts_any_integer_max_iter(self, max_iter):
        result = blahut_arimoto(np.eye(2), max_iter=max_iter)
        assert result.iterations == 1
        assert result.capacity_bits == 1.0

    def test_zero_max_iter_runs_no_iteration(self):
        result = blahut_arimoto(np.eye(2), max_iter=0)
        assert result.iterations == 0
        assert not result.converged
        assert result.capacity_bits == 0.0
        assert result.upper_bits == math.inf

    def test_incumbent_is_keyword_only(self):
        with pytest.raises(TypeError):
            blahut_arimoto(np.eye(2), 1e-6, 60, 1.0)

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

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_weak_bound_rejects_a_non_finite_lambda(self, lam):
        with pytest.raises(DomainError):
            weak_entanglement_bound(lam, 3)

    @pytest.mark.parametrize("lam", [True, False, np.True_])
    def test_weak_bound_rejects_a_bool_lambda(self, lam):
        with pytest.raises(DomainError):
            weak_entanglement_bound(lam, 3)

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


CERTIFIED_RUNS = (
    [(capacity_search, (dim, 500, seed)) for dim in (2, 3, 7, 15) for seed in range(4)]
    + [(separable_baseline, (3, 300, seed)) for seed in range(4)]
    + [(product_decoding_baseline, (2, 150, seed)) for seed in range(4)]
)


class TestCertifiedCeiling:
    """The one-bit ceiling, certified by each table's dual upper bound.

    A table the optimiser stopped early already has its bound below the
    running best; every other table ran to its bracket or iteration cap.
    """

    @pytest.mark.parametrize(
        "search, args",
        CERTIFIED_RUNS,
        ids=[f"{search.__name__}-{'-'.join(map(str, args))}" for search, args in CERTIFIED_RUNS],
    )
    def test_every_table_is_certified_within_one_bit(self, search_tables, search, args):
        _, tables = search_tables(search, *args)
        assert len(tables) == args[1]
        assert max(table.upper_bits for table in tables) <= 1.0 + OPT_TOL

    def test_perfectly_read_tetrahedron_breaks_the_certificate(
        self, search_tables, perfectly_read_tetrahedron
    ):
        _, tables = search_tables(capacity_search, 3, 20, 0)
        assert max(table.upper_bits for table in tables) > 1.0 + OPT_TOL
