"""Tests for the single-system ball model and its one-bit capacity."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2_contingency, ks_2samp

from gptlab import (
    EXACT_TOL,
    OPT_TOL,
    Channel,
    DomainError,
    Effect,
    GptError,
    capacity,
    capacity_search,
    capacity_upper_bound,
    contract,
    mutual_information,
    one_bit_protocol,
    unit_effect,
)
from gptlab.capacity import SEARCH_BLOCK, _ceiling_bits
from gptlab.core import effect_probability_range
from gptlab.hst import (
    MAX_COMPONENTS,
    MAX_OUTCOMES,
    MAX_STATES,
    canonical_measurement,
    make_extremal_effect,
    make_state,
    random_direction,
    random_directions,
    random_measurement,
    random_measurements,
    random_ball_points,
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

    @pytest.mark.parametrize(
        "build",
        [
            lambda: make_state(0.5),
            lambda: make_state([[0.1, 0.2]]),
            lambda: make_state(np.zeros((2, 2))),
            lambda: make_extremal_effect([[1.0]]),
            lambda: make_extremal_effect(1.0),
            lambda: canonical_measurement([[1.0]]),
        ],
        ids=[
            "state-scalar",
            "state-row-matrix",
            "state-square-matrix",
            "effect-matrix",
            "effect-scalar",
            "measurement-matrix",
        ],
    )
    def test_refuses_anything_but_a_vector(self, build):
        # Unchecked, each ended in a raw ValueError from np.concatenate.
        with pytest.raises(DomainError, match="must be a vector"):
            build()


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

    @pytest.mark.parametrize(
        "radii",
        [
            (math.inf, 0.0),
            (1.0, math.inf),
            (math.nan, 1.0),
            (-1.0, 1.0),
            (True, True),
            (1.0, np.True_),
        ],
    )
    def test_refuses_a_radius_that_is_not_a_finite_non_negative_number(self, radii):
        # (inf, 0) gave NaN and (True, True) gave 1.0.
        with pytest.raises(GptError, match=r"(effect|state)_norm must be a finite real number in \[0, inf\]"):
            capacity_upper_bound(*radii)

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
        for dim in range(1, 16):
            ch = one_bit_protocol(dim)
            assert np.array_equal(ch.conditional, np.eye(2))
            assert mutual_information(ch) == 1.0

    def test_orthogonal_decoding_carries_nothing(self):
        encode = np.array([1.0, 0.0, 0.0])
        meas = canonical_measurement([0.0, 1.0, 0.0])
        states = (make_state(encode), make_state(-encode))
        conditional = np.array([[contract(e, s) for e in meas.effects] for s in states])
        ch = Channel(prior=np.array([0.5, 0.5]), conditional=conditional)
        assert np.array_equal(ch.conditional, np.full((2, 2), 0.5))
        assert mutual_information(ch) == 0.0


class TestRandomBallPoints:
    @pytest.mark.parametrize("count, dim", [(1, 1), (5, 3), (40, 7)])
    def test_radii_come_first_then_one_direction_draw(self, count, dim):
        points = random_ball_points(count, dim, np.random.default_rng(3))
        rng = np.random.default_rng(3)
        radii = rng.random(count) ** (1.0 / dim)
        directions = random_directions(count, dim, rng)
        assert points.shape == (count, dim)
        assert np.array_equal(points, radii[:, None] * directions)
        assert (np.linalg.norm(points, axis=1) <= 1.0 + EXACT_TOL).all()

    @pytest.mark.parametrize("seed", range(5))
    def test_random_state_is_the_one_row_case(self, seed):
        state = random_state(7, np.random.default_rng(seed))
        assert np.array_equal(state.r, random_ball_points(1, 7, np.random.default_rng(seed))[0])

    @pytest.mark.parametrize("draw", [random_directions, random_ball_points])
    @pytest.mark.parametrize(
        "count, dim, name",
        [
            (-1, 3, "count"),
            (True, 3, "count"),
            (2.0, 3, "count"),
            (None, 3, "count"),
            (2, 0, "ball dimension"),
            (2, -1, "ball dimension"),
            (2, True, "ball dimension"),
            (2, 2.5, "ball dimension"),
            (2, 2**20 + 1, "ball dimension"),
        ],
    )
    def test_draws_refuse_a_bad_size_before_drawing(self, draw, count, dim, name):
        # Unchecked, random_directions(-1, 3, rng) raised numpy's ValueError
        # and random_ball_points(2, 0, rng) a ZeroDivisionError.
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(GptError, match=f"^{name} must be"):
            draw(count, dim, rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("draw", [random_directions, random_ball_points])
    def test_draws_take_zero_rows_and_numpy_sizes(self, draw):
        assert draw(0, 3, np.random.default_rng(0)).shape == (0, 3)
        rows = draw(np.int64(4), np.uint8(3), np.random.default_rng(1))
        assert np.array_equal(rows, draw(4, 3, np.random.default_rng(1)))

    def test_radius_law_is_uniform_in_the_ball(self):
        # P(|r| <= 1/2) = 2^-dim for a uniform point of the dim-ball.
        points = random_ball_points(20_000, 3, np.random.default_rng(0))
        inner = np.mean(np.linalg.norm(points, axis=1) <= 0.5)
        assert abs(inner - 0.125) < 0.01


class TestRandomFamilies:
    def test_random_pure_state_is_pure(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            state = random_pure_state(5, rng)
            assert abs(np.linalg.norm(state.r) - 1.0) < EXACT_TOL

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("count", [0, 1, 7])
    @pytest.mark.parametrize("dim", [1, 3, 15])
    def test_random_measurements_match_the_component_loop(self, dim, count, seed):
        n_outcomes = 2 + seed
        stack = random_measurements(count, dim, n_outcomes, np.random.default_rng(seed))
        oracle = measurement_loop_oracle(count, dim, n_outcomes, np.random.default_rng(seed))
        assert stack.shape == (count, n_outcomes, dim + 1)
        assert np.array_equal(stack, oracle)

    @pytest.mark.parametrize("dim", [1, 2, 3, 7, 15])
    def test_random_measurement_is_the_one_row_case(self, dim):
        # The oracle of the scalar body: draw after draw from one stream, the
        # same bytes (signed zeros included) and the same generator state as
        # the batched draw of one measurement after the outcome count.
        for seed in range(50):
            rng, batched = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(4):
                table = random_measurement(dim, rng)
                n_outcomes = int(batched.integers(2, MAX_OUTCOMES + 1))
                expected = random_measurements(1, dim, n_outcomes, batched)[0]
                assert np.array_equal(table, expected)
                assert table.tobytes() == expected.tobytes()
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

    @pytest.mark.parametrize("dim", [0, -1, 2**20 + 1, True, 2.5, "3", None])
    def test_random_measurement_refuses_a_bad_dimension_before_drawing(self, dim):
        # Unchecked, dim 0 drew a table for a 0-ball and True a raw TypeError.
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(DomainError, match="^ball dimension must be"):
            random_measurement(dim, rng)
        assert rng.bit_generator.state == state

    def test_random_measurement_accepts_a_numpy_dimension(self):
        rng, plain = np.random.default_rng(0), np.random.default_rng(0)
        assert np.array_equal(random_measurement(np.int64(3), rng), random_measurement(3, plain))
        assert rng.bit_generator.state == plain.bit_generator.state

    def test_random_measurements_need_two_outcomes(self):
        with pytest.raises(GptError, match="outcomes"):
            random_measurements(1, 3, 1, np.random.default_rng(0))

    @pytest.mark.parametrize(
        "count, dim, n_outcomes, name",
        [
            (1, 3, 2.5, "n_outcomes"),
            (1, 3, True, "n_outcomes"),
            (1, 3, "3", "n_outcomes"),
            (True, 3, 3, "count"),
            (-1, 3, 3, "count"),
            (2.0, 3, 3, "count"),
            (1, 0, 3, "ball dimension"),
            (1, -1, 3, "ball dimension"),
            (1, 2.5, 3, "ball dimension"),
            (1, True, 3, "ball dimension"),
        ],
    )
    def test_random_measurements_refuse_bad_counts(self, count, dim, n_outcomes, name):
        with pytest.raises(GptError, match=f"^{name} must be"):
            random_measurements(count, dim, n_outcomes, np.random.default_rng(0))

    def test_random_measurements_accept_numpy_counts(self):
        rng, plain = np.random.default_rng(0), np.random.default_rng(0)
        stack = random_measurements(np.int64(2), 3, np.uint8(4), rng)
        assert np.array_equal(stack, random_measurements(2, 3, 4, plain))

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

    @pytest.mark.parametrize("trials", [0, -5, 2.5, True])
    def test_capacity_search_needs_a_trial(self, trials):
        with pytest.raises(GptError, match="trials"):
            capacity_search(3, trials=trials, seed=0)

    @pytest.mark.parametrize("dim, trials", [(1, 7), (3, 40), (15, 300)])
    def test_capacity_search_draws_through_the_module_seams(self, monkeypatch, dim, trials):
        # The mutants replace these two module attributes: each block must
        # still draw its states, and each table its measurement, through them.
        from gptlab import hst

        calls = {"random_directions": 0, "random_measurement": 0}
        for name in calls:

            def counted(*args, _draw=getattr(hst, name), _name=name):
                calls[_name] += 1
                return _draw(*args)

            monkeypatch.setattr(hst, name, counted)
        capacity_search(dim, trials, 0)
        blocks = -(-trials // SEARCH_BLOCK)
        assert calls == {"random_directions": blocks, "random_measurement": trials}

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


# The law test draws this many tables per path at each dimension, from seeds
# fixed before its first run; a p-value below LAW_ALPHA tells two laws apart.
LAW_DIMS = (2, 15)
LAW_TRIALS = 2000
LAW_ALPHA = 1e-3
BLOCK_SEED, ORACLE_SEED = 101, 202


@functools.cache
def block_tables(dim):
    """The tables ``capacity_search`` hands to the optimiser, in draw order."""
    tables = []

    def recorded(block, best, tol, max_iter):
        tables.extend(block)
        return best

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(capacity, "_best_first_max", recorded)
        capacity_search(dim, LAW_TRIALS, BLOCK_SEED)
    return tables


@functools.cache
def per_table_oracle(dim, power=None, pure=0.5):
    """``capacity_search``'s tables drawn one table at a time: the reference
    law for its block draw.

    Per table: its state count, a ``(2, n_states)`` uniform pair that makes
    a state pure with probability ``pure`` and otherwise puts it at radius
    ``u ** power`` (``1/dim`` by default), its directions and its
    measurement.  ``power=1`` and ``pure=0`` are mutant laws.
    """
    rng = np.random.default_rng(ORACLE_SEED)
    power = 1.0 / dim if power is None else power
    tables = []
    for _ in range(LAW_TRIALS):
        n_states = rng.integers(2, MAX_STATES + 1)
        coins = rng.random((2, n_states))
        radii = coins[1] ** power
        radii[coins[0] < pure] = 1.0
        rows = np.insert(radii[:, None] * random_directions(n_states, dim, rng), 0, 1.0, axis=1)
        tables.append((random_measurement(dim, rng) @ rows[:, :, None])[..., 0])
    return tables


def law_p_values(first, second):
    """p-values that two lists of tables share a law: chi-square on the state
    counts, two-sample KS on the Renyi-infinity bounds and on the summed
    column spreads."""
    pair = (first, second)
    counts = [np.bincount([len(t) for t in tables], minlength=MAX_STATES + 1) for tables in pair]
    counts = [row[2:] for row in counts]  # every table has 2 to MAX_STATES states
    ceilings = [[_ceiling_bits(t) for t in tables] for tables in pair]
    spreads = [[(t.max(0) - t.min(0)).sum() for t in tables] for tables in pair]
    return (
        chi2_contingency(counts).pvalue,
        ks_2samp(*ceilings).pvalue,
        ks_2samp(*spreads).pvalue,
    )


class TestCapacitySearchLaw:
    """Drawing a block's state rows at once keeps the law of each table."""

    @pytest.mark.parametrize("dim", LAW_DIMS)
    def test_block_draw_has_the_per_table_law(self, dim):
        p_values = law_p_values(block_tables(dim), per_table_oracle(dim))
        assert min(p_values) >= LAW_ALPHA, p_values

    @pytest.mark.parametrize("mutant", [{"power": 1.0}, {"pure": 0.0}], ids=["radius-u", "pure-0"])
    def test_a_mutant_law_is_rejected(self, mutant):
        p_values = [
            law_p_values(block_tables(dim), per_table_oracle(dim, **mutant)) for dim in LAW_DIMS
        ]
        assert min(map(min, p_values)) < LAW_ALPHA, p_values
