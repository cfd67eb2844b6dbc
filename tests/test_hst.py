"""Tests for the single-system ball model and its one-bit capacity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gptlab import (
    EXACT_TOL,
    OPT_TOL,
    DomainError,
    Effect,
    GptError,
    Measurement,
    TheoryConfig,
    capacity_search,
    capacity_upper_bound,
    contract,
    mutual_information,
    one_bit_protocol,
    unit_effect,
    validate_measurement,
)
from gptlab.hst import (
    MAX_COMPONENTS,
    MAX_OUTCOMES,
    canonical_measurement,
    effect_probability_range,
    make_effect,
    make_extremal_effect,
    make_state,
    random_direction,
    random_directions,
    random_measurement,
    random_measurements,
    random_pure_state,
    random_state,
)


class TestConstructors:
    def test_mixed_state(self):
        state = make_state(np.zeros(5))
        assert np.array_equal(state.entries, np.concatenate(([1.0], np.zeros(5))))

    def test_bloch_axis_state(self):
        state = make_state([0.0, 0.0, 1.0])
        assert state.dim == 3
        assert np.linalg.norm(state.r) == 1.0

    def test_rejects_long_state(self):
        with pytest.raises(DomainError, match="norm"):
            make_state([1.1, 0.0])

    def test_rejects_unaddressable_dimension(self):
        with pytest.raises(DomainError, match="dimension"):
            make_state(np.zeros(2**20 + 1))

    def test_rejects_non_unit_effect_direction(self):
        with pytest.raises(DomainError, match="norm"):
            make_extremal_effect([1.1, 0.0])

    def test_make_effect_validates_range(self):
        make_effect(0.5, [0.9, 0.0])
        with pytest.raises(DomainError):
            make_effect(0.9, [0.9, 0.0])


class TestCanonicalMeasurement:
    def test_aligned_state_is_deterministic(self):
        m = np.array([1.0, 0.0, 0.0])
        meas = canonical_measurement(m)
        state = make_state(m)
        probs = [contract(e, state) for e in meas.effects]
        assert probs == [1.0, 0.0]

    def test_mixed_state_is_uniform(self):
        meas = canonical_measurement([0.0, 1.0])
        state = make_state(np.zeros(2))
        assert [contract(e, state) for e in meas.effects] == [0.5, 0.5]

    def test_outcome_formula(self):
        # probabilities are (1 +- m . r) / 2
        rng = np.random.default_rng(5)
        for _ in range(50):
            m = random_direction(4, rng)
            state = random_state(4, rng)
            meas = canonical_measurement(m)
            overlap = float(m @ state.r)
            probs = [contract(e, state) for e in meas.effects]
            assert abs(probs[0] - 0.5 * (1 + overlap)) < EXACT_TOL
            assert abs(probs[1] - 0.5 * (1 - overlap)) < EXACT_TOL

    @pytest.mark.parametrize("dim", [1, 3, 7, 15, 63, 255])
    @pytest.mark.parametrize("count", [0, 1, 7, 101])
    def test_batched_directions_match_successive_draws(self, count, dim):
        batched, single, plain = (np.random.default_rng(dim + count) for _ in range(3))
        rows = random_directions(count, dim, batched)
        calls = [random_direction(dim, single) for _ in range(count)]
        # Reference: each Gaussian row divided by its Euclidean norm.
        norms = [v / np.linalg.norm(v) for v in plain.standard_normal((count, dim))]
        assert rows.shape == (count, dim)
        assert rows.tobytes() == np.array(calls).tobytes() == np.array(norms).tobytes()
        state = batched.bit_generator.state
        assert state == single.bit_generator.state == plain.bit_generator.state

    def test_probabilities_valid_across_dimensions(self):
        rng = np.random.default_rng(11)
        for dim in range(1, 9):
            directions = rng.standard_normal((1000, dim))
            directions /= np.linalg.norm(directions, axis=1, keepdims=True)
            points = rng.standard_normal((1000, dim))
            points /= np.linalg.norm(points, axis=1, keepdims=True)
            points *= rng.random((1000, 1)) ** (1.0 / dim)
            overlaps = np.einsum("ij,ij->i", directions, points)
            plus = 0.5 * (1 + overlaps)
            minus = 0.5 * (1 - overlaps)
            assert plus.min() >= -EXACT_TOL and plus.max() <= 1 + EXACT_TOL
            assert np.abs(plus + minus - 1).max() < EXACT_TOL


class TestCapacityUpperBound:
    def test_unit_radii_give_one_bit(self):
        assert capacity_upper_bound(1.0, 1.0) == 1.0

    def test_zero_effect_norm_gives_zero(self):
        assert capacity_upper_bound(0.0, 1.0) == 0.0

    @settings(max_examples=50, deadline=None)
    @given(
        m1=st.floats(0.0, 5.0),
        m2=st.floats(0.0, 5.0),
        r=st.floats(0.0, 5.0),
    )
    def test_monotone(self, m1, m2, r):
        lo, hi = sorted((m1, m2))
        assert capacity_upper_bound(lo, r) <= capacity_upper_bound(hi, r) + 1e-12
        assert capacity_upper_bound(r, lo) <= capacity_upper_bound(r, hi) + 1e-12


class TestOneBitProtocol:
    def test_identity_channel_any_dimension(self):
        for dim in (1, 3, 7):
            ch = one_bit_protocol(dim)
            assert np.array_equal(ch.conditional, np.eye(2))
            assert mutual_information(ch) == 1.0

    def test_orthogonal_decoding_carries_nothing(self):
        encode = np.array([1.0, 0.0, 0.0])
        decode = np.array([0.0, 1.0, 0.0])
        ch = one_bit_protocol(3, encode_direction=encode, decode_direction=decode)
        assert np.array_equal(ch.conditional, np.full((2, 2), 0.5))
        assert mutual_information(ch) == 0.0


class TestRandomFamilies:
    def test_random_pure_state_is_pure(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            state = random_pure_state(5, rng)
            assert abs(np.linalg.norm(state.r) - 1.0) < EXACT_TOL

    def test_random_measurements_are_valid(self):
        rng = np.random.default_rng(1)
        theory = TheoryConfig.base(2)
        for _ in range(30):
            table = random_measurement(3, rng)
            meas = Measurement(tuple(Effect(row) for row in table))
            assert validate_measurement(meas, theory).passed

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("count", [0, 1, 7])
    @pytest.mark.parametrize("dim", [1, 3, 15])
    def test_random_measurements_match_the_component_loop(self, dim, count, seed):
        n_outcomes = 2 + seed
        stack = random_measurements(count, dim, n_outcomes, np.random.default_rng(seed))
        oracle = measurement_loop_oracle(count, dim, n_outcomes, np.random.default_rng(seed))
        assert stack.shape == (count, n_outcomes, dim + 1)
        assert np.array_equal(stack, oracle)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_measurement_is_the_one_row_case(self, seed):
        rng, batched = np.random.default_rng(seed), np.random.default_rng(seed)
        table = random_measurement(3, rng)
        n_outcomes = int(batched.integers(2, MAX_OUTCOMES + 1))
        assert np.array_equal(table, random_measurements(1, 3, n_outcomes, batched)[0])
        assert rng.bit_generator.state == batched.bit_generator.state

    @pytest.mark.parametrize("n_outcomes", range(2, MAX_OUTCOMES + 1))
    @pytest.mark.parametrize("count", [0, 1, 7])
    def test_random_measurements_are_physical(self, count, n_outcomes):
        rng = np.random.default_rng(100 * count + n_outcomes)
        for dim in range(1, 16):
            stack = random_measurements(count, dim, n_outcomes, rng)
            unit = unit_effect(dim).entries
            assert np.abs(stack.sum(axis=1) - unit).max(initial=0.0) <= EXACT_TOL
            for row in stack.reshape(-1, dim + 1):
                lo, hi = effect_probability_range(Effect(row))
                assert -EXACT_TOL <= lo and hi <= 1.0 + EXACT_TOL

    def test_random_measurements_need_two_outcomes(self):
        with pytest.raises(GptError, match="outcomes"):
            random_measurements(1, 3, 1, np.random.default_rng(0))

    def test_capacity_search_never_beats_one_bit(self):
        best = capacity_search(3, trials=150, seed=0)
        assert 1.0 <= best <= 1.0 + OPT_TOL
        assert best <= capacity_upper_bound(1.0, 1.0) + OPT_TOL

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("dim", [2, 3, 7, 15])
    def test_early_exit_keeps_the_maximum(self, run_search, dim, seed):
        best, spent = run_search(capacity_search, dim, 100, seed)
        oracle, full = run_search(capacity_search, dim, 100, seed, early_exit=False)
        assert best.hex() == oracle.hex()
        assert spent < full

    @pytest.mark.parametrize("trials", [0, -5])
    def test_capacity_search_needs_a_trial(self, trials):
        with pytest.raises(GptError, match="trials"):
            capacity_search(3, trials=trials, seed=0)

    def test_perfectly_read_tetrahedron_fires_the_gate(self, perfectly_read_tetrahedron):
        assert capacity_search(3, trials=20, seed=0) > 1.0 + OPT_TOL


def measurement_loop_oracle(count, dim, n_outcomes, rng):
    """``random_measurements`` from the same draws, one component at a time.

    Consumes the counts, exponentials, uniform rows and directions in the
    order the stacked draw takes them, then adds each component's effects
    (the unit, or a canonical pair) to its slots in component order.
    """
    owner = np.repeat(np.arange(count), rng.integers(1, MAX_COMPONENTS + 1, size=count))
    exponentials = rng.standard_exponential(owner.size)
    coins = rng.random((owner.size, n_outcomes + 1))
    directions = random_directions(owner.size, dim, rng)
    totals = np.zeros(count)
    for k, measurement in enumerate(owner):
        totals[measurement] += exponentials[k]
    expected = np.zeros((count, n_outcomes, dim + 1))
    for k, measurement in enumerate(owner):
        w = exponentials[k] / totals[measurement]
        first, second = np.argsort(coins[k, 1:])[:2]
        if coins[k, 0] < 0.15:
            expected[measurement, first] += w * unit_effect(dim).entries
        else:
            pair = canonical_measurement(directions[k])
            expected[measurement, first] += w * pair.effects[0].entries
            expected[measurement, second] += w * pair.effects[1].entries
    return expected
