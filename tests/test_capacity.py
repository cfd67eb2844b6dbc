"""Tests for the prior optimiser and the analytic capacity bounds."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gptlab import (
    EXACT_TOL,
    Channel,
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
    mutual_information,
    product_decoding_baseline,
    separable_baseline,
    weak_entanglement_bound,
    weak_thresholds,
)
from gptlab import protocols
from gptlab.capacity import (
    SCALAR_REDUCE_MAX,
    _ceiling_bits,
    _prior_sum,
    _scalar_has_zero,
    _scalar_max,
    search_max,
)
from gptlab.variants import dense_coding_channel, lt_channel


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


def result_fields(result) -> tuple:
    """Every field of a ``CapacityResult``, floats as hex."""
    return (
        result.capacity_bits.hex(),
        result.optimal_prior.tobytes().hex(),
        result.iterations,
        result.converged,
        result.upper_bits.hex(),
    )


def reference_blahut_arimoto(p: np.ndarray, tol: float, max_iter: int) -> tuple:
    """The optimiser's loop on a table with no negative entry and no
    incumbent, spelled with ``ndarray`` methods, masked logs and a fresh
    uniform prior; its result fields as ``result_fields`` gives them."""
    prior = np.full(p.shape[0], 1.0 / p.shape[0])
    log_p = np.zeros(p.shape)
    np.log2(p, out=log_p, where=p > 0)
    row_term = np.sum(p * log_p, axis=1)
    lower, upper, converged, iterations = 0.0, math.inf, False, 0
    for iterations in range(1, max_iter + 1):
        p_y = prior @ p
        log_py = np.zeros(p_y.shape)
        np.log2(p_y, out=log_py, where=p_y > 0)
        c = row_term - p @ log_py
        lower = float(prior @ c)
        upper = float(c.max())
        if upper - lower < tol:
            converged = True
            break
        prior = prior * np.exp2(c - upper)
        prior /= prior.sum()
    prior = prior / prior.sum()
    return (max(lower, 0.0).hex(), prior.tobytes().hex(), iterations, converged, upper.hex())


@st.composite
def reducer_branch_tables(draw):
    """Row-stochastic tables on every side of the scalar-reduction gate.

    7-8 inputs straddle the normaliser's switch from its loop to numpy's
    sum, with 9-16 outputs; up to 40 rows or columns lie past
    ``SCALAR_REDUCE_MAX``.  Some tables repeat one row, so that the ``c_x``
    are equal and often all zero, which makes ``upper_bits`` a maximum of
    zeros, and some have all-zero output columns.
    """
    n_in, n_out = draw(
        st.one_of(
            st.tuples(st.integers(7, 8), st.integers(9, 16)),
            st.tuples(st.integers(SCALAR_REDUCE_MAX + 1, 40), st.integers(1, 40)),
            st.tuples(st.integers(1, 40), st.integers(SCALAR_REDUCE_MAX + 1, 40)),
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = rng.choice([0.0, 0.1, 0.5, 1.0, 2.0, 7.0], size=(n_in, n_out))
    if draw(st.booleans()):
        table[:] = table[0]
    zero_columns = draw(st.integers(0, min(3, n_out - 1)))
    table[:, 1 + rng.permutation(n_out - 1)[:zero_columns]] = 0.0
    # Column 0 is never zeroed; a row with no weight puts it all there.
    table[table.sum(axis=1) == 0, 0] = 1.0
    return table / table.sum(axis=1, keepdims=True)


@st.composite
def continuous_tables(draw, shapes):
    """Row-stochastic tables of a shape drawn from ``shapes``, with random
    real entries, some of them zero; a power of the uniforms spreads the
    rows, so the loop runs for many iterations."""
    n_in, n_out = draw(shapes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = rng.random((n_in, n_out)) ** draw(st.sampled_from([1, 3, 8]))
    table[rng.random(table.shape) < 0.15] = 0.0
    table[table.sum(axis=1) == 0, 0] = 1.0
    return table / table.sum(axis=1, keepdims=True)


# Tables past the gate with 41-64 rows or columns, and tables of any size up to 64.
WIDE_SHAPES = st.one_of(
    st.tuples(st.integers(41, 64), st.integers(1, 64)),
    st.tuples(st.integers(1, 64), st.integers(41, 64)),
)
ANY_SHAPES = st.tuples(st.integers(1, 64), st.integers(1, 64))


def other_layouts(table: np.ndarray) -> dict:
    """Equal copies of a C-ordered ``table`` in other memory layouts."""
    n_in, n_out = table.shape
    padded = np.zeros((2 * n_in, 3 * n_out))
    padded[::2, ::3] = table
    return {
        "fortran": np.asfortranarray(table),
        "transposed": np.ascontiguousarray(table.T).T,
        "strided": padded[::2, ::3],
    }


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
            uniform = mutual_information(Channel(np.full(n_in, 1.0 / n_in), conditional))
            assert result.capacity_bits >= uniform - OPT_TOL

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

    @pytest.mark.parametrize("shape", [(0, 2), (1, 0), (0, 0)])
    def test_rejects_an_empty_axis(self, shape):
        with pytest.raises(GptError, match="2-d row-stochastic"):
            blahut_arimoto(np.zeros(shape))

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

    @pytest.mark.parametrize("tol", ["1e-6", None, 1j])
    def test_rejects_a_tol_that_is_not_a_number(self, tol):
        with pytest.raises(GptError, match="tol must be a finite real number in "):
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
    @given(row_stochastic_tables(), st.data())
    def test_a_stopped_run_is_certified_below_the_incumbent(self, conditional, data):
        # Rows may sum to 1 within the validator's 1e-9, and the incumbent
        # may sit just above or below the rate the full run reaches.
        offset = st.sampled_from([-9.9e-10, -3e-10, 0.0, 3e-10, 9.9e-10])
        off = data.draw(st.lists(offset, min_size=len(conditional), max_size=len(conditional)))
        conditional = conditional * (1.0 + np.array(off))[:, None]
        full = blahut_arimoto(conditional, tol=1e-6, max_iter=60)
        near = st.sampled_from([-1e-9, -1e-11, 0.0, 1e-11, 1e-9, 3e-9])
        incumbent = data.draw(
            st.one_of(
                st.sampled_from([0.0, 0.2, 0.5, 1.0, 2.0]),
                near.map(lambda gap: full.capacity_bits + gap),
            )
        )
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
        # optimal, but its dual bound 0.42 is already below 0.5, which its
        # Renyi-infinity bound log2 1.5 = 0.585 is not.
        conditional = np.array([[1.0, 0.0], [0.5, 0.5]])
        result = blahut_arimoto(conditional, tol=1e-15, incumbent=0.5)
        assert result.iterations == 1
        assert not result.converged
        assert result.upper_bits <= 0.5 - EXACT_TOL

    def test_renyi_bound_stops_before_the_first_iteration(self):
        conditional = np.array([[1.0, 0.0], [0.5, 0.5]])
        result = blahut_arimoto(conditional, tol=1e-15, incumbent=1.0)
        assert result.iterations == 0
        assert not result.converged
        assert result.capacity_bits == 0.0
        assert np.array_equal(result.optimal_prior, [0.5, 0.5])
        assert not result.optimal_prior.flags.writeable
        # Exact rows: the bound is not widened.
        assert result.upper_bits == _ceiling_bits(conditional)
        assert abs(result.upper_bits - math.log2(1.5)) <= ROUNDING

    def test_rows_short_of_one_widen_the_renyi_bound(self):
        # Rows summing to 1 - 9e-10 pass the validator.  Their unwidened
        # bound 1 - 1.3e-9 lies below the incumbent, but the full run
        # reaches 1 - 9e-10, above it: the call must run.
        conditional = np.eye(2) * (1.0 - 9e-10)
        incumbent = 1.0 - 1e-9
        assert _ceiling_bits(conditional) <= incumbent - EXACT_TOL
        full = blahut_arimoto(conditional)
        result = blahut_arimoto(conditional, incumbent=incumbent)
        assert result.iterations >= 1
        assert result.capacity_bits == full.capacity_bits > incumbent
        assert max(incumbent, result.capacity_bits) == full.capacity_bits

    def test_the_renyi_bound_is_that_of_the_clipped_table(self):
        # Entries just below 0 pass the validator and are clipped to 0, which
        # raises their column maxima and row sums: the bound must cover that.
        conditional = np.array([[1.0, -1e-12], [1.0, -1e-12]])
        assert _ceiling_bits(conditional) == 0.0
        conditional = np.array([[1.0, -1e-12], [-1e-12, 1.0]])
        result = blahut_arimoto(conditional, incumbent=1.0 + 1e-11)
        assert result.iterations == 0
        assert blahut_arimoto(conditional).capacity_bits <= result.upper_bits

    @settings(max_examples=80, deadline=None)
    @given(row_stochastic_tables(), st.data())
    def test_a_precomputed_renyi_bound_changes_nothing(self, conditional, data):
        # The search hands each table its ranking score; the result must be
        # what the call computing the bound itself returns, on both sides
        # of the certificate.
        ceiling = _ceiling_bits(conditional)
        gap = st.sampled_from([-1.0, -1e-9, -EXACT_TOL, 0.0, EXACT_TOL, 1e-9, 1.0])
        incumbent = data.draw(
            st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0]), gap.map(lambda g: ceiling + g))
        )
        plain = blahut_arimoto(conditional, tol=1e-6, max_iter=60, incumbent=incumbent)
        given_bound = blahut_arimoto(
            conditional, tol=1e-6, max_iter=60, incumbent=incumbent, _ceiling=ceiling
        )
        assert result_fields(given_bound) == result_fields(plain)

    @settings(max_examples=150, deadline=None)
    @given(
        row_stochastic_tables(),
        st.sampled_from([1e-3, 1e-6, 1e-10]),
        st.sampled_from([0, 1, 2, 5, 60]),
    )
    def test_the_loop_is_the_reference_loop_bit_for_bit(self, conditional, tol, max_iter):
        # Tables with a zero column take the masked log of p_y, the rest the
        # plain one; both must round as the reference does.
        result = blahut_arimoto(conditional, tol=tol, max_iter=max_iter)
        assert result_fields(result) == reference_blahut_arimoto(conditional, tol, max_iter)

    @settings(max_examples=150, deadline=None)
    @given(
        reducer_branch_tables(),
        st.sampled_from([1e-3, 1e-6, 1e-10]),
        st.sampled_from([0, 1, 2, 5, 60]),
    )
    def test_the_loop_is_the_reference_loop_on_both_sides_of_the_gate(
        self, conditional, tol, max_iter
    ):
        result = blahut_arimoto(conditional, tol=tol, max_iter=max_iter)
        assert result_fields(result) == reference_blahut_arimoto(conditional, tol, max_iter)

    @settings(max_examples=60, deadline=None)
    @given(
        continuous_tables(WIDE_SHAPES),
        st.sampled_from([1e-3, 1e-6, 1e-10]),
        st.sampled_from([0, 1, 2, 5, 60]),
    )
    def test_the_loop_is_the_reference_loop_on_tables_of_41_to_64(
        self, conditional, tol, max_iter
    ):
        result = blahut_arimoto(conditional, tol=tol, max_iter=max_iter)
        assert result_fields(result) == reference_blahut_arimoto(conditional, tol, max_iter)

    @pytest.mark.parametrize("n_bits", [5, 6, 7, 8])
    def test_the_loop_is_the_reference_loop_on_dense_coding_tables(self, n_bits):
        # The largest tables the optimiser serves: one row per message. The
        # weak and lambda-tau tables have no zero and take the unmasked log;
        # the base and embedded identities keep the masked one.
        theories = (
            TheoryConfig.weak(n_bits, 0.3),
            TheoryConfig.weak(n_bits, -0.5 / (2**n_bits - 1)),
            TheoryConfig.lambda_tau(n_bits, 1.0, lt_optimal_product(n_bits)),
            TheoryConfig.base(n_bits),
            TheoryConfig.embedded(n_bits, 2),
        )
        for theory in theories:
            conditional = dense_coding_channel(theory).conditional
            assert (conditional.min() > 0) == (theory.kind in ("weak", "lambda-tau"))
            for max_iter in (1, 5):
                result = blahut_arimoto(conditional, tol=1e-10, max_iter=max_iter)
                expected = reference_blahut_arimoto(conditional, 1e-10, max_iter)
                assert result_fields(result) == expected

    @settings(max_examples=60, deadline=None)
    @given(
        continuous_tables(ANY_SHAPES),
        st.sampled_from([1e-3, 1e-6, 1e-10]),
        st.sampled_from([1, 5, 60]),
    )
    def test_other_layouts_run_the_reference_loop_of_their_c_copy(
        self, conditional, tol, max_iter
    ):
        expected = reference_blahut_arimoto(conditional, tol, max_iter)
        for table in other_layouts(conditional).values():
            result = blahut_arimoto(table, tol=tol, max_iter=max_iter)
            assert result_fields(result) == expected

    @settings(max_examples=60, deadline=None)
    @given(
        continuous_tables(ANY_SHAPES),
        st.sampled_from([None, 0.0, 0.5, 1.0, 2.0]),
    )
    def test_the_result_does_not_depend_on_the_memory_layout(self, conditional, incumbent):
        # Products and reductions over other strides may add in another order.
        expected = result_fields(
            blahut_arimoto(conditional, tol=1e-9, max_iter=300, incumbent=incumbent)
        )
        for table in other_layouts(conditional).values():
            result = blahut_arimoto(table, tol=1e-9, max_iter=300, incumbent=incumbent)
            assert result_fields(result) == expected

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 8).flatmap(
            lambda n_out: st.lists(
                st.lists(
                    st.sampled_from([-0.0, 0.0, -1e-12, -5e-324, 1e-300, 0.25, 0.5, 1.0]),
                    min_size=n_out,
                    max_size=n_out,
                ),
                min_size=1,
                max_size=8,
            )
        )
    )
    def test_the_renyi_bound_is_log2_of_the_clipped_column_maxima(self, rows):
        conditional = np.array(rows)
        with warnings.catch_warnings():
            # An all-zero table has the bound log2 0 = -inf either way.
            warnings.simplefilter("ignore", RuntimeWarning)
            oracle = float(np.log2(np.maximum(conditional.max(axis=0), 0.0).sum()))
            assert _ceiling_bits(conditional).hex() == oracle.hex()

    @pytest.mark.parametrize("negative", [-1e-12, -5e-13, -1e-300, -5e-324])
    def test_entries_just_below_zero_are_clipped(self, negative):
        # The validator lets such an entry through; the optimiser must run
        # on the clipped table, bit for bit.
        conditional = np.array([[0.75 - negative, negative, 0.25], [0.25, 0.5, 0.25]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = blahut_arimoto(conditional)
        assert result_fields(result) == result_fields(
            blahut_arimoto(np.maximum(conditional, 0.0))
        )

    def test_an_exact_zero_gives_a_finite_rate_without_warnings(self):
        # The Z channel: log2 0 must never reach the row entropy term.
        # Its capacity is log2(1 + (1 - q) q^(q / (1 - q))) at q = 1/2.
        conditional = np.array([[1.0, 0.0], [0.5, 0.5]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = blahut_arimoto(conditional)
        assert result.converged
        assert math.isfinite(result.upper_bits)
        assert abs(result.capacity_bits - math.log2(1.25)) < 1e-9

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


def reducer_inputs(rng: np.random.Generator, n: int) -> np.ndarray:
    """A vector of ``n`` finite doubles of one of four kinds: signed zeros
    and subnormals, magnitudes spread from 1e-300 to 1e300, probabilities,
    or a mix of all three, each entry of either sign."""
    tiny = rng.choice([0.0, 5e-324, 1e-320, 2.2250738585072014e-308], size=n)
    wide = 10.0 ** rng.uniform(-300, 300, size=n)
    unit = rng.random(n)
    kind = int(rng.integers(4))
    if kind == 3:
        values = np.choose(rng.integers(3, size=n), [tiny, wide, unit])
    else:
        values = (tiny, wide, unit)[kind]
    return np.where(rng.random(n) < 0.5, -values, values)


class TestScalarReducers:
    # Past the gate too, and on both sides of the normaliser's loop.
    @pytest.mark.parametrize("n", range(1, 2 * SCALAR_REDUCE_MAX + 1))
    def test_each_reducer_is_numpys_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        for _ in range(300):
            values = reducer_inputs(rng, n)
            with np.errstate(over="ignore", invalid="ignore"):
                total, ours = float(np.add.reduce(values)), _prior_sum(values)
            assert ours.hex() == total.hex()
            assert _scalar_max(values).hex() == float(np.maximum.reduce(values)).hex()
            assert _scalar_has_zero(values) is not bool(values.all())

    @pytest.mark.parametrize(
        "values",
        [[0.0, -0.0], [-0.0, 0.0], [-0.0], [-0.0, -0.0, 0.0], [-1.0, -0.0, 0.0, -0.0]],
    )
    def test_a_zero_maximum_keeps_numpys_sign(self, values):
        values = np.array(values)
        assert _scalar_max(values).hex() == float(np.maximum.reduce(values)).hex()

    @pytest.mark.parametrize("n, total", [(6, 0.6), (13, 1.3000000000000003)])
    def test_the_sum_is_not_compensated(self, n, total):
        # n copies of 0.1 in numpy's order, each addition rounded; the
        # correctly rounded sums, as a compensated sum() may give from
        # CPython 3.12, are 0.6000000000000001 and 1.3.
        values = np.full(n, 0.1)
        assert _prior_sum(values) == float(np.add.reduce(values)) == total
        assert math.fsum(values.tolist()) != total

    @pytest.mark.parametrize("n", range(1, 2 * SCALAR_REDUCE_MAX + 1))
    def test_the_normaliser_keeps_numpys_zeros_infinities_and_nans(self, n):
        rng = np.random.default_rng(n)
        for _ in range(100):
            values = rng.choice([0.0, -0.0, 0.5, -0.5, np.inf, -np.inf, np.nan], size=n)
            with np.errstate(invalid="ignore"):
                total, ours = float(np.add.reduce(values)), _prior_sum(values)
            assert ours.hex() == total.hex()

    def test_nan_is_not_a_zero(self):
        assert not _scalar_has_zero(np.array([np.nan, 1.0]))
        assert _scalar_has_zero(np.array([np.nan, -0.0]))


class TestBitCounts:
    @pytest.mark.parametrize("n_bits", [2.5, 2.0, True, np.float64(3.0), "3"])
    @pytest.mark.parametrize(
        "bound",
        [dimension_upper_bound, weak_thresholds, lambda n: weak_entanglement_bound(0.5, n)],
        ids=["dimension", "thresholds", "weak"],
    )
    def test_bounds_refuse_a_non_integer_bit_count(self, bound, n_bits):
        with pytest.raises(GptError, match="n_bits must be an integer"):
            bound(n_bits)

    def test_bounds_accept_numpy_integers(self):
        assert dimension_upper_bound(np.int64(3)) == 6.0
        assert weak_thresholds(np.int32(2)) == weak_thresholds(2)
        assert weak_entanglement_bound(1.0, np.uint8(3)) == 3.0

    def test_max_iter_message_names_the_minimum(self):
        with pytest.raises(GptError, match=r"^max_iter must be an integer >= 0, got -1$"):
            blahut_arimoto(np.eye(2), max_iter=-1)


class TestBounds:
    def test_dc_lower_bound_is_exported_from_protocols(self):
        # The bound runs a protocol, so it lives in the protocol layer.
        import gptlab
        from gptlab import capacity, protocols

        assert gptlab.dc_capacity_lower_bound is protocols.dc_capacity_lower_bound
        assert not hasattr(capacity, "dc_capacity_lower_bound")

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

    @pytest.mark.parametrize(
        "args",
        [args for search, args in CERTIFIED_RUNS if search is capacity_search],
        ids=lambda args: "-".join(map(str, args)),
    )
    def test_every_capacity_search_table_is_certified_before_any_iteration(
        self, search_tables, args
    ):
        # The antipodal incumbent is exactly one bit, and every table's
        # widened Renyi-infinity bound lies below it: no table iterates, so
        # none can end at BA_MAX_ITER with a dual bound above one bit.
        _, results = search_tables(capacity_search, *args)
        assert len(results) == args[1]
        for table, result in zip(search_tables.tables, results):
            ceiling = _ceiling_bits(table)
            delta = np.abs(table.sum(axis=1) - 1.0).max() + table.shape[1] * max(-table.min(), 0.0)
            assert result.iterations == 0
            assert result.upper_bits == ceiling + delta * (abs(ceiling) + 1 / math.log(2))
            assert result.upper_bits <= 1.0 - EXACT_TOL

    @pytest.mark.parametrize("seed", range(3))
    def test_each_table_gets_one_renyi_bound(self, monkeypatch, seed):
        # The search ranks by the bound and hands the same number to the
        # optimiser's certificate: one computation per table.
        calls = []

        def counted(table):
            calls.append(table)
            return _ceiling_bits(table)

        monkeypatch.setattr("gptlab.capacity._ceiling_bits", counted)
        assert capacity_search(3, 40, seed) == 1.0
        assert len(calls) == 40

    def test_perfectly_read_tetrahedron_breaks_the_certificate(
        self, search_tables, perfectly_read_tetrahedron
    ):
        _, tables = search_tables(capacity_search, 3, 20, 0)
        assert max(table.upper_bits for table in tables) > 1.0 + OPT_TOL

    @pytest.mark.parametrize(
        "search, args",
        CERTIFIED_RUNS,
        ids=[f"{search.__name__}-{'-'.join(map(str, args))}" for search, args in CERTIFIED_RUNS],
    )
    def test_every_table_has_a_ceiling_within_one_bit(self, search_tables, search, args):
        # The Renyi-infinity bound alone, without the optimiser: one bit holds.
        search_tables(search, *args)
        assert len(search_tables.tables) == args[1]
        assert max(map(_ceiling_bits, search_tables.tables)) <= 1.0 + EXACT_TOL

    def test_perfectly_read_tetrahedron_breaks_the_ceiling(
        self, search_tables, perfectly_read_tetrahedron
    ):
        search_tables(capacity_search, 3, 20, 0)
        assert max(map(_ceiling_bits, search_tables.tables)) > 1.0 + EXACT_TOL


class TestSearchMax:
    @pytest.mark.parametrize("best", [math.nan, math.inf, -math.inf, True, np.True_, "1.0", None])
    def test_a_bad_best_is_refused_before_any_draw(self, best):
        calls = []

        def draw_table():
            calls.append(None)
            raise AssertionError("drew a table")

        with pytest.raises(GptError, match="^best must be"):
            search_max(draw_table, 1, best, 1e-6, 1)
        assert not calls

    def test_separable_baseline_refuses_a_nan_best_before_drawing(self, monkeypatch):
        # Once, the search drew a whole block of tables and then blamed an
        # "incumbent" that the caller never passed.
        def no_draw(*args):
            raise AssertionError("drew a product measurement")

        monkeypatch.setattr(protocols, "random_product_measurement", no_draw)
        monkeypatch.setattr(protocols, "_random_product_states", no_draw)
        with pytest.raises(GptError, match="^best must be"):
            separable_baseline(3, 1000, 0, best=math.nan)
