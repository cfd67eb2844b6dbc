"""Tests for the state/effect algebra and information measures."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gptlab import (
    EXACT_TOL,
    BipartiteState,
    Channel,
    DomainError,
    Effect,
    GptError,
    State,
    TheoryConfig,
    Transformation,
    bipartite_contract,
    bipartite_unit,
    capacity_upper_bound,
    classify,
    contract,
    dense_coding_info,
    entangled_effect,
    entangled_state,
    hadamard_vector,
    lt_admissibility_witness,
    mix_bipartite,
    mutual_information,
    product_effect,
    product_state,
    reduced_states,
    unit_effect,
    weak_entanglement_bound,
    weak_thresholds,
)
from gptlab.capacity import blahut_arimoto
from gptlab.core import (
    SymmetricChannel,
    _check_count,
    _check_real,
    _frozen,
    _real_array,
    effect_probability_range,
)
from gptlab.hst import (
    canonical_measurement,
    make_extremal_effect,
    make_state,
    random_directions,
    random_state,
)
from gptlab.variants import (
    dense_coding_channel,
    embedded_extremal_effect,
    embedded_transformation,
    lemma_effect_checks,
    lemma_state_checks,
    lt_rotated_witness,
)


def binary_entropy(p: float) -> float:
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def mutual_information_oracle(prior, conditional) -> float:
    """Independent triple-loop evaluation of I(X:Y)."""
    prior = np.asarray(prior, float)
    conditional = np.asarray(conditional, float)
    p_y = [
        sum(prior[x] * conditional[x, y] for x in range(len(prior)))
        for y in range(conditional.shape[1])
    ]
    total = 0.0
    for x in range(len(prior)):
        for y in range(conditional.shape[1]):
            joint = prior[x] * conditional[x, y]
            if joint > 0:
                total += joint * math.log2(joint / (prior[x] * p_y[y]))
    return total


class TestContract:
    def test_unit_effect_gives_one(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            state = random_state(4, rng)
            assert contract(unit_effect(4), state) == 1.0

    def test_aligned_extremal_effect(self):
        m = np.array([0.0, 0.0, 1.0])
        e = Effect(0.5 * np.concatenate(([1.0], m)))
        assert contract(e, make_state(m)) == 1.0
        assert contract(e, make_state(-m)) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(GptError):
            contract(unit_effect(3), make_state(np.zeros(4)))

    @pytest.mark.parametrize("dim", [-1, 1.5, 2.0, True, np.True_, "2", None])
    def test_unit_effect_refuses_a_dimension_that_is_no_count(self, dim):
        with pytest.raises(GptError, match=r"^dim must be an integer >= 0, got "):
            unit_effect(dim)

    @pytest.mark.parametrize("dim", [0, np.int64(2), np.uint8(2)])
    def test_unit_effect_takes_integer_dimensions_from_zero(self, dim):
        assert np.array_equal(unit_effect(dim).entries, np.eye(int(dim) + 1)[0])


class TestBipartiteContract:
    def test_unit_is_normalisation(self):
        rng = np.random.default_rng(1)
        phi = product_state(random_state(3, rng), random_state(3, rng))
        assert bipartite_contract(bipartite_unit(3, 3), phi) == 1.0

    def test_bell_effects_distinguish_entangled_states(self):
        for n_bits in (1, 2, 3):
            for mu in range(2**n_bits):
                for nu in range(2**n_bits):
                    p = bipartite_contract(
                        entangled_effect(mu, n_bits), entangled_state(nu, n_bits)
                    )
                    assert p == (1.0 if mu == nu else 0.0)

    def test_shape_mismatch(self):
        with pytest.raises(GptError):
            bipartite_contract(entangled_effect(0, 1), entangled_state(0, 2))

    @pytest.mark.parametrize(
        "dims, name",
        [((-1, 2), "dim_a"), ((2, -1), "dim_b"), ((1.5, 2), "dim_a"), ((2, True), "dim_b")],
    )
    def test_unit_refuses_a_dimension_that_is_no_count(self, dims, name):
        with pytest.raises(GptError, match=rf"^{name} must be an integer >= 0, got "):
            bipartite_unit(*dims)

    def test_unit_takes_dimension_zero(self):
        assert np.array_equal(bipartite_unit(0, 2).matrix, [[1.0, 0.0, 0.0]])

    @settings(max_examples=50, deadline=None)
    @given(
        w1=st.floats(-2.0, 2.0),
        w2=st.floats(-2.0, 2.0),
        seed=st.integers(0, 100),
    )
    def test_bilinearity(self, w1, w2, seed):
        rng = np.random.default_rng(seed)
        phi1 = entangled_state(int(rng.integers(4)), 2)
        phi2 = product_state(random_state(3, rng), random_state(3, rng))
        effect = entangled_effect(int(rng.integers(4)), 2)
        combined = w1 * phi1.matrix + w2 * phi2.matrix
        lhs = float(np.sum(effect.matrix * combined))
        rhs = w1 * bipartite_contract(effect, phi1) + w2 * bipartite_contract(
            effect, phi2
        )
        assert abs(lhs - rhs) < 1e-10


class TestProducts:
    def test_unit_product_effect(self):
        e = product_effect(unit_effect(2), unit_effect(2))
        expected = np.zeros((3, 3))
        expected[0, 0] = 1.0
        assert np.array_equal(e.matrix, expected)

    def test_product_state_block_structure(self):
        a = np.array([0.3, -0.2])
        b = np.array([0.1, 0.5])
        phi = product_state(make_state(a), make_state(b))
        assert phi.matrix[0, 0] == 1.0
        assert np.array_equal(phi.a, a)
        assert np.array_equal(phi.b, b)
        assert np.allclose(phi.correlations, np.outer(a, b))

    def test_extremal_product_effect_on_entangled_state(self):
        # (e_alpha (x) e_beta) . phi_mu = (1 + alpha . T_hat_mu beta) / 4
        rng = np.random.default_rng(7)
        n_bits = 2
        dim = 3
        for mu in range(4):
            alpha = rng.standard_normal(dim)
            alpha /= np.linalg.norm(alpha)
            beta = rng.standard_normal(dim)
            beta /= np.linalg.norm(beta)
            e = product_effect(
                Effect(0.5 * np.concatenate(([1.0], alpha))),
                Effect(0.5 * np.concatenate(([1.0], beta))),
            )
            p = bipartite_contract(e, entangled_state(mu, n_bits))
            hat = hadamard_vector(mu, n_bits)[1:]
            expected = 0.25 * (1.0 + alpha @ (hat * beta))
            assert abs(p - expected) < EXACT_TOL
            assert -EXACT_TOL <= p <= 0.5 + EXACT_TOL


class TestReducedStates:
    def test_entangled_states_reduce_to_mixed(self):
        for n_bits in (1, 2, 3):
            for mu in range(2**n_bits):
                left, right = reduced_states(entangled_state(mu, n_bits))
                assert np.array_equal(left.r, np.zeros(2**n_bits - 1))
                assert np.array_equal(right.r, np.zeros(2**n_bits - 1))

    def test_product_state_reduces_to_factors(self):
        rng = np.random.default_rng(3)
        sa, sb = random_state(3, rng), random_state(3, rng)
        left, right = reduced_states(product_state(sa, sb))
        assert np.array_equal(left.entries, sa.entries)
        assert np.array_equal(right.entries, sb.entries)

    def test_linearity_on_mixtures(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            w = rng.dirichlet(np.ones(2))
            phi1 = entangled_state(int(rng.integers(4)), 2)
            phi2 = product_state(random_state(3, rng), random_state(3, rng))
            mix = mix_bipartite([phi1, phi2], w)
            mixed_left, mixed_right = reduced_states(mix)
            parts = [reduced_states(phi1), reduced_states(phi2)]
            expect_left = w[0] * parts[0][0].entries + w[1] * parts[1][0].entries
            expect_right = w[0] * parts[0][1].entries + w[1] * parts[1][1].entries
            assert np.abs(mixed_left.entries - expect_left).max() < EXACT_TOL
            assert np.abs(mixed_right.entries - expect_right).max() < EXACT_TOL


class TestMixBipartite:
    PAIR = (entangled_state(0, 2), entangled_state(3, 2))

    @pytest.mark.parametrize(
        "weights",
        [[2.0, -1.0], [1.5, -0.5], [0.6, 0.6], [0.5, 0.5 - 1e-9], [np.nan, 1.0], [np.inf, 0.0]],
    )
    def test_weights_off_the_simplex_are_refused(self, weights):
        with pytest.raises(DomainError, match="mixture weights"):
            mix_bipartite(list(self.PAIR), weights)

    @pytest.mark.parametrize(
        "phis, weights",
        [
            ([], []),
            (PAIR, [1.0]),
            (PAIR, [0.25, 0.25, 0.5]),
            (PAIR, [[0.5, 0.5]]),
            ((entangled_state(0, 2), entangled_state(0, 1)), [0.5, 0.5]),
        ],
        ids=["empty", "short", "long", "matrix", "shapes"],
    )
    def test_malformed_mixtures_raise_gpt_error(self, phis, weights):
        with pytest.raises(GptError) as info:
            mix_bipartite(list(phis), weights)
        assert not isinstance(info.value, DomainError)

    def test_weights_within_tolerance_of_one_are_accepted(self):
        weights = [0.1] * 10  # sums to 0.9999999999999999
        mix = mix_bipartite([entangled_state(mu % 8, 3) for mu in range(10)], weights)
        assert abs(mix.matrix[0, 0] - 1.0) <= EXACT_TOL
        single = mix_bipartite((p for p in self.PAIR[:1]), [1.0])
        assert np.array_equal(single.matrix, self.PAIR[0].matrix)


class TestMutualInformation:
    def test_identity_channel_is_n_bits(self):
        for n_bits in (1, 2, 3, 4):
            size = 2**n_bits
            ch = Channel(np.full(size, 1.0 / size), np.eye(size))
            assert mutual_information(ch) == float(n_bits)

    def test_constant_channel_is_zero(self):
        cond = np.tile([0.3, 0.5, 0.2], (4, 1))
        ch = Channel(np.full(4, 0.25), cond)
        assert mutual_information(ch) == 0.0

    def test_binary_symmetric_channel(self):
        flip = 0.11
        cond = np.array([[1 - flip, flip], [flip, 1 - flip]])
        ch = Channel(np.array([0.5, 0.5]), cond)
        expected = 1.0 - binary_entropy(flip)
        assert abs(mutual_information(ch) - expected) < 1e-12
        assert abs(expected - 0.500084041835472) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), n_in=st.integers(1, 6), n_out=st.integers(1, 6))
    def test_bounds_and_oracle_on_random_channels(self, seed, n_in, n_out):
        rng = np.random.default_rng(seed)
        cond = rng.dirichlet(np.ones(n_out), size=n_in)
        prior = rng.dirichlet(np.ones(n_in))
        ch = Channel(prior, cond)
        info = mutual_information(ch)
        assert info >= -1e-12
        assert info <= min(math.log2(n_in), math.log2(n_out)) + 1e-12
        assert abs(info - mutual_information_oracle(prior, cond)) < 1e-10

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_the_masked_ratio_expression_bit_for_bit(self, seed):
        # Zero entries and zero-prior rows leave some terms masked out.
        rng = np.random.default_rng(seed)
        for _ in range(300):
            n_in, n_out = (int(k) for k in rng.integers(1, 70, size=2))
            cond = rng.dirichlet(np.ones(n_out), size=n_in)
            cond[rng.random(cond.shape) < 0.2] = 0.0
            cond[np.arange(n_in), rng.integers(n_out, size=n_in)] += 0.1
            cond /= cond.sum(axis=1, keepdims=True)
            prior = rng.dirichlet(np.ones(n_in))
            prior[rng.random(n_in) < 0.2] = 0.0
            prior[rng.integers(n_in)] += 0.1
            ch = Channel(prior / prior.sum(), cond)
            joint = ch.prior[:, None] * ch.conditional
            p_y = joint.sum(axis=0)
            mask = joint > 0
            ratio = np.ones_like(joint)
            np.divide(ch.conditional, p_y[None, :], out=ratio, where=mask)
            masked_ratio = float(np.sum(joint[mask] * np.log2(ratio[mask])))
            assert mutual_information(ch).hex() == masked_ratio.hex()


class TestChannelValidation:
    def test_rejects_non_stochastic_rows(self):
        with pytest.raises(DomainError):
            Channel(np.array([0.5, 0.5]), np.array([[0.7, 0.2], [0.5, 0.5]]))

    def test_rejects_bad_prior(self):
        with pytest.raises(DomainError):
            Channel(np.array([0.7, 0.7]), np.eye(2))

    def test_rejects_negative_entries(self):
        with pytest.raises(DomainError):
            Channel(np.array([1.0]), np.array([[1.2, -0.2]]))


class TestSymmetricChannel:
    def test_table_is_built_once_read_only_from_the_two_values(self):
        channel = SymmetricChannel(np.full(4, 0.25), (0.7, 0.1))
        table = channel.conditional
        assert table.shape == (4, 4) and table.dtype == np.float64
        assert not table.flags.writeable and table.flags.owndata
        assert np.array_equal(np.diagonal(table), np.full(4, 0.7))
        assert np.array_equal(table[~np.eye(4, dtype=bool)], np.full(12, 0.1))
        assert channel.conditional is table

    def test_values_are_held_as_floats(self):
        channel = SymmetricChannel(np.full(2, 0.5), np.array([0.75, 0.25]))
        assert channel.q == (0.75, 0.25)
        assert all(type(value) is float for value in channel.q)

    @pytest.mark.parametrize(
        "q",
        [(0.7 + 1e-9, 0.1), (0.7, 0.1 - 1e-9 / 3), (1.2, -0.2 / 3), (math.nan, 0.1), (0.7, math.inf)],
        ids=["diagonal_long", "off_diagonal_short", "outside_0_1", "nan", "inf"],
    )
    def test_rows_channel_refuses_are_refused(self, q):
        prior = np.full(4, 0.25)
        table = np.full((4, 4), q[1])
        np.fill_diagonal(table, q[0])
        with pytest.raises(DomainError):
            Channel(prior, table)
        with pytest.raises(DomainError):
            SymmetricChannel(prior, q)

    def test_rows_within_the_tolerance_are_accepted(self):
        for q in ((0.7 + 1e-13, 0.1), (1.0 + 1e-13, -1e-13 / 3)):
            SymmetricChannel(np.full(4, 0.25), q)

    def test_prior_is_checked(self):
        with pytest.raises(DomainError):
            SymmetricChannel(np.array([0.7, 0.7]), (1.0, 0.0))
        with pytest.raises(GptError):
            SymmetricChannel(np.eye(2), (1.0, 0.0))
        with pytest.raises(GptError):
            SymmetricChannel(np.full(2, 0.5), (1.0, 0.0, 0.0))

    def test_mutual_information_is_that_of_the_table(self):
        channel = SymmetricChannel(np.full(8, 0.125), (0.3, 0.1))
        table = Channel(channel.prior, np.array(channel.conditional))
        assert mutual_information(channel).hex() == mutual_information(table).hex()

    @pytest.mark.parametrize("n_bits", [1, 3, 6])
    def test_dense_coding_channel_holds_its_checked_row(self, n_bits):
        theory = TheoryConfig.weak(n_bits, 0.3) if n_bits > 1 else TheoryConfig.base(1)
        channel = dense_coding_channel(theory)
        assert isinstance(channel, SymmetricChannel)
        assert "conditional" not in vars(channel)  # not built until read
        assert channel.q == (channel.conditional[0, 0], channel.conditional[0, 1])


class TestFrozen:
    def test_read_only_owner_is_held_as_is(self):
        table = np.eye(3)
        table.setflags(write=False)
        channel = Channel(np.full(3, 1 / 3), table)
        assert channel.conditional is table

    def test_dense_coding_channel_adopts_its_table(self):
        channel = dense_coding_channel(TheoryConfig.base(3))
        assert channel.conditional.flags.owndata and not channel.conditional.flags.writeable

    @pytest.mark.parametrize(
        "make",
        [
            lambda: np.eye(3),
            lambda: np.eye(4)[:3, :3],
            lambda: np.eye(3, dtype=np.int64),
            lambda: np.eye(3, dtype=np.float32),
        ],
        ids=["writeable", "view", "int", "float32"],
    )
    def test_other_inputs_are_copied(self, make):
        source = make()
        channel = Channel(np.full(3, 1 / 3), source)
        assert channel.conditional is not source
        assert channel.conditional.dtype == np.float64
        assert not channel.conditional.flags.writeable
        source[0, 0], source[0, 1] = 0, 1
        assert np.array_equal(channel.conditional, np.eye(3))

    def test_read_only_view_is_copied(self):
        owner = np.eye(3)
        view = owner[:]
        view.setflags(write=False)
        channel = Channel(np.full(3, 1 / 3), view)
        assert channel.conditional is not view
        owner[0, 0], owner[0, 1] = 0.0, 1.0
        assert np.array_equal(channel.conditional, np.eye(3))


NON_FINITE_CONSTRUCTORS = {
    "State": lambda v: State(np.array([v, 0.0])),
    "State.r": lambda v: State(np.array([1.0, v])),
    "BipartiteState": lambda v: BipartiteState(np.array([[v, 0.0], [0.0, 0.0]])),
    "BipartiteState.correlations": lambda v: BipartiteState(
        np.array([[1.0, 0.0], [0.0, v]])
    ),
    "Transformation": lambda v: Transformation(np.array([[v, 0.0], [0.0, 1.0]])),
    "Channel.prior": lambda v: Channel(np.array([v, 0.5]), np.eye(2)),
    "Channel.conditional": lambda v: Channel(
        np.array([0.5, 0.5]), np.array([[v, 1.0], [0.5, 0.5]])
    ),
    "make_state": lambda v: make_state(np.array([v, 0.0])),
    "make_extremal_effect": lambda v: make_extremal_effect(np.array([v, 0.0])),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("constructor", sorted(NON_FINITE_CONSTRUCTORS))
def test_constructors_reject_non_finite_entries(constructor, value):
    with pytest.raises(DomainError):
        NON_FINITE_CONSTRUCTORS[constructor](value)


def test_measurement_probabilities_sum_to_one():
    rng = np.random.default_rng(9)
    for _ in range(50):
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        meas = canonical_measurement(direction)
        state = random_state(3, rng)
        total = sum(contract(e, state) for e in meas.effects)
        assert abs(total - 1.0) < EXACT_TOL


RANGE_DIMS = [1, 2, 3, 4, 7, 15]


def probe_range(effect):
    """Min and max of ``effect`` over sampled states: the mixed state, the
    +-axis states and the pure states aligned with and opposed to its
    vector block, one contraction per probe."""
    block = effect.entries[1:]
    directions = [np.zeros(effect.dim)]
    directions += [sign * axis for axis in np.eye(effect.dim) for sign in (1.0, -1.0)]
    norm = np.linalg.norm(block)
    if norm > 0.0:
        directions += [block / norm, -block / norm]
    values = [contract(effect, make_state(d)) for d in directions]
    return min(values), max(values)


def grid_effects(dim, rng, complete):
    """Two to four effects whose vector norms sit near the ball's limits.

    Each effect has weight w in {0, 1/2, 1, uniform} and a vector block of
    norm 0, 1e-13, or min(w, 1 - w) (the largest in-range norm) times
    1 + delta for a small delta of either sign.  A complete set ends with
    the unit minus the other effects.
    """
    rows = []
    for _ in range(int(rng.integers(2, 5))):
        w = float(rng.choice([0.0, 0.5, 1.0, rng.random()]))
        scale = min(w, 1.0 - w) * (1.0 + float(rng.choice([-1e-3, -5e-13, 0.0, 5e-11, 1e-3])))
        norm = float(rng.choice([0.0, 1e-13, scale, scale, scale]))
        direction = rng.standard_normal(dim)
        rows.append(np.concatenate(([w], norm * direction / np.linalg.norm(direction))))
    if complete:
        rows[-1] = unit_effect(dim).entries - np.sum(rows[:-1], axis=0)
    return [Effect(row) for row in rows]


def in_range(low, high):
    return -EXACT_TOL <= low and high <= 1.0 + EXACT_TOL


class TestEffectProbabilityRange:
    """``effect_probability_range``, the closed form the suites use as an
    oracle, against the probe loop and against random pure states."""

    @pytest.mark.parametrize("complete", [True, False])
    @pytest.mark.parametrize("dim", RANGE_DIMS)
    def test_range_matches_the_probe_loop(self, dim, complete):
        rng = np.random.default_rng(dim + 100 * complete)
        out_of_range = 0
        for _ in range(150):
            effects = grid_effects(dim, rng, complete)
            ranges = [effect_probability_range(e) for e in effects]
            probed = [probe_range(e) for e in effects]
            assert np.allclose(ranges, probed, rtol=0.0, atol=EXACT_TOL)
            assert [in_range(*r) for r in ranges] == [in_range(*p) for p in probed]
            states = [make_state(d) for d in random_directions(8, dim, rng)]
            for effect, (low, high) in zip(effects, ranges):
                for state in states:
                    assert low - EXACT_TOL <= contract(effect, state) <= high + EXACT_TOL
            out_of_range += not all(in_range(*r) for r in ranges)
        # The grid must exercise both verdicts of the range check.
        assert 10 <= out_of_range <= 140

    @pytest.mark.parametrize("dim", RANGE_DIMS)
    def test_ends_are_met_at_the_opposed_and_aligned_states(self, dim):
        m = random_directions(1, dim, np.random.default_rng(5))[0]
        hot = Effect(np.concatenate(([0.5], 0.505 * m)))
        low, high = effect_probability_range(hot)
        assert abs(high - 1.005) <= EXACT_TOL
        assert abs(low + 0.005) <= EXACT_TOL
        assert abs(contract(hot, make_state(m)) - high) <= EXACT_TOL
        assert abs(contract(hot, make_state(-m)) - low) <= EXACT_TOL
        assert not in_range(low, high)

    def test_zero_block_is_a_point_at_the_mixed_state(self):
        heavy = Effect(np.array([1.5, 0.0, 0.0]))
        assert effect_probability_range(heavy) == (1.5, 1.5)
        assert contract(heavy, make_state(np.zeros(2))) == 1.5
        assert effect_probability_range(unit_effect(7)) == (1.0, 1.0)

    @pytest.mark.parametrize("dim", RANGE_DIMS)
    def test_canonical_effects_span_zero_to_one_and_sum_to_the_unit(self, dim):
        rng = np.random.default_rng(dim)
        for direction in random_directions(20, dim, rng):
            effects = canonical_measurement(direction).effects
            total = np.sum([e.entries for e in effects], axis=0)
            assert np.abs(total - unit_effect(dim).entries).max() <= EXACT_TOL
            for effect in effects:
                low, high = effect_probability_range(effect)
                assert abs(low) <= EXACT_TOL and abs(high - 1.0) <= EXACT_TOL


class TestCheckCount:
    @pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3)])
    def test_accepts_integers_at_or_above_the_minimum(self, value):
        _check_count("trials", value, 3)

    @pytest.mark.parametrize("value", [2, 2.5, 3.0, True, np.True_, "3", None])
    def test_refuses_anything_else(self, value):
        with pytest.raises(GptError, match=r"^trials must be an integer >= 3, got "):
            _check_count("trials", value, 3)

    def test_raises_the_requested_class(self):
        with pytest.raises(DomainError, match="n_bits must be an integer >= 2, got 1"):
            _check_count("n_bits", 1, 2, DomainError)

    @pytest.mark.parametrize("value", [12, np.int64(12), np.uint8(1)])
    def test_accepts_integers_up_to_the_maximum(self, value):
        assert _check_count("n_bits", value, 1, maximum=12) == int(value)

    @pytest.mark.parametrize("value", [13, np.int64(13), 10**400])
    def test_refuses_an_integer_above_the_maximum(self, value):
        with pytest.raises(GptError, match=rf"^n_bits must be at most 12, got {value}$"):
            _check_count("n_bits", value, 1, maximum=12)


class TestCheckReal:
    @pytest.mark.parametrize(
        "value", [0.5, -1, 1, np.float64(0.5), np.float32(0.5), np.int8(-1), Fraction(1, 2)]
    )
    def test_returns_a_float_for_a_real_in_range(self, value):
        checked = _check_real("x", value, -1.0, 1.0)
        assert type(checked) is float and checked == value

    @pytest.mark.parametrize(
        "value",
        [
            True, np.True_, "0.5", None, 0.5j, np.array([0.5]), math.nan, math.inf,
            -math.inf, 1.5, -1 - 1e-9, 10**400,
        ],
    )
    def test_refuses_anything_else(self, value):
        with pytest.raises(GptError, match=r"^x must be a finite real number in \[-1, 1\], got "):
            _check_real("x", value, -1.0, 1.0)

    @pytest.mark.parametrize("value", [math.inf, math.nan, 10**400])
    def test_refuses_a_non_finite_value_on_an_unbounded_range(self, value):
        with pytest.raises(DomainError, match=r"^x must be a finite real number in \[-inf, inf\]"):
            _check_real("x", value, -math.inf, math.inf, DomainError)


# Library calls that ended in a raw TypeError, UFuncTypeError or
# OverflowError, took a bool as 1, or blamed the wrong argument; each must
# raise GptError naming the argument at fault.
BAD_ARGUMENT_PROBES = {
    "weak-bound-str-lambda": (lambda: weak_entanglement_bound("0.5", 3), "lambda"),
    "weak-bound-none-lambda": (lambda: weak_entanglement_bound(None, 3), "lambda"),
    "upper-bound-str-radius": (lambda: capacity_upper_bound("1", 1.0), "effect_norm"),
    "upper-bound-none-radius": (lambda: capacity_upper_bound(None, 1.0), "effect_norm"),
    "rate-str-product": (lambda: dense_coding_info(3, "0.5"), "scale product"),
    "rate-none-product": (lambda: dense_coding_info(3, None), "scale product"),
    "rate-complex-product": (lambda: dense_coding_info(3, 1j), "scale product"),
    "classify-str-rate": (lambda: classify("1", 1.0), "dc_info_bits"),
    "classify-bool-rate": (lambda: classify(True, 1.0), "dc_info_bits"),
    "witness-bool-lambda": (lambda: lt_admissibility_witness(3, True, 0.5), "lambda"),
    "witness-str-lambda": (lambda: lt_admissibility_witness(3, "a", 0.5), "lambda"),
    "witness-nan-lambda": (lambda: lt_admissibility_witness(3, math.nan, 0.5), "lambda"),
    "rotated-witness-none-lambda": (lambda: lt_rotated_witness(None, 3), "lambda"),
    "thresholds-n-1100": (lambda: weak_thresholds(1100), "n_bits"),
    "weak-bound-n-1100": (lambda: weak_entanglement_bound(0.5, 1100), "n_bits"),
}


@pytest.mark.parametrize(
    "probe, name", BAD_ARGUMENT_PROBES.values(), ids=BAD_ARGUMENT_PROBES.keys()
)
def test_library_calls_refuse_a_bad_argument_with_gpt_error(probe, name):
    with pytest.raises(GptError, match=f"^{name} must be "):
        probe()


def _stack_with(entry) -> list:
    """A stack of two 2 x 2 identities, as nested lists, whose last entry
    is ``entry``."""
    stack = [np.eye(2).tolist(), np.eye(2).tolist()]
    stack[-1][-1][-1] = entry
    return stack


# Array arguments that numpy's float conversion once took apart: a complex
# entry lost its imaginary part without an error, and a string escaped as
# numpy's raw ValueError or TypeError.
BAD_ARRAY_PROBES = {
    "make-state-complex": (lambda: make_state(np.array([0.6j, 0.8j])), "state coordinates"),
    "make-state-str": (lambda: make_state(["0.1", "0.2"]), "state coordinates"),
    "state-complex": (lambda: State(np.array([1, 0.5j])), "state entries"),
    "state-str": (lambda: State("ab"), "state entries"),
    "effect-complex": (lambda: Effect(np.array([0.5, 0.5j])), "effect entries"),
    "bipartite-state-complex": (lambda: BipartiteState(np.eye(2) + 0j), "bipartite state"),
    "transformation-complex": (lambda: Transformation(np.eye(2) + 0j), "transformation"),
    "channel-complex-table": (
        lambda: Channel(prior=[0.5, 0.5], conditional=np.eye(2) + 0j), "conditional"
    ),
    "channel-str-prior": (lambda: Channel(prior=["a", "b"], conditional=np.eye(2)), "prior"),
    "extremal-effect-complex": (
        lambda: make_extremal_effect(np.array([1j, 0.0])), "effect direction"
    ),
    "canonical-complex": (lambda: canonical_measurement(np.array([1j, 0.0])), "effect direction"),
    "canonical-str": (lambda: canonical_measurement("ab"), "effect direction"),
    "lemma-states-complex": (lambda: lemma_state_checks(_stack_with(5j)), "matrices"),
    "lemma-effects-str": (lambda: lemma_effect_checks(_stack_with("a")), "matrices"),
    "mixture-complex-weights": (
        lambda: mix_bipartite([entangled_state(0, 1)] * 2, [0.5 + 1j, 0.5 - 1j]),
        "mixture weights",
    ),
    "mixture-str-weights": (
        lambda: mix_bipartite([entangled_state(0, 1)] * 2, ["0.5", "0.5"]), "mixture weights"
    ),
    "embedded-effect-complex": (
        lambda: embedded_extremal_effect(np.array([1j, 0.0]), TheoryConfig.embedded(2, 2)),
        "effect direction",
    ),
    "embedded-rotation-complex": (
        lambda: embedded_transformation(0, TheoryConfig.embedded(2, 2), np.eye(2) + 0j),
        "rotation",
    ),
    "blahut-arimoto-complex": (lambda: blahut_arimoto(np.eye(2) + 0j), "conditional"),
    "blahut-arimoto-str": (lambda: blahut_arimoto("ab"), "conditional"),
}


@pytest.mark.parametrize("probe, name", BAD_ARRAY_PROBES.values(), ids=BAD_ARRAY_PROBES.keys())
def test_library_calls_refuse_a_complex_or_non_numeric_array_with_gpt_error(probe, name):
    with warnings.catch_warnings():
        warnings.simplefilter("error", np.exceptions.ComplexWarning)
        with pytest.raises(GptError, match=f"^{name} must be real numbers, got an array of "):
            probe()


class TestRealArray:
    @pytest.mark.parametrize(
        "values",
        [
            [1, 2, -3],
            [0.1, -0.0, 2],
            np.array([1.5, 2.5], dtype=np.float32),
            np.arange(6, dtype=np.uint8).reshape(2, 3),
            np.asfortranarray(np.random.default_rng(0).random((3, 4))),
            np.float64(0.25),
        ],
        ids=["int-list", "float-list", "float32", "uint8", "fortran", "scalar"],
    )
    def test_real_inputs_keep_their_bits(self, values):
        expected = np.asarray(values, dtype=float)
        for checked in (_real_array("x", values), _frozen("x", values)):
            assert checked.dtype == np.float64 and checked.shape == expected.shape
            assert checked.tobytes() == expected.tobytes()

    def test_a_float64_array_is_not_copied(self):
        values = np.ones(3)
        assert _real_array("x", values) is values
        assert not np.shares_memory(_frozen("x", values), values)

    def test_frozen_takes_a_read_only_float64_array_as_is(self):
        values = np.ones(3)
        values.setflags(write=False)
        assert _frozen("x", values) is values


class TestStateInvariants:
    def test_state_requires_unit_normalisation(self):
        with pytest.raises(DomainError):
            State(np.array([0.9, 0.1]))

    def test_bipartite_state_requires_unit_corner(self):
        from gptlab import BipartiteState

        with pytest.raises(DomainError):
            BipartiteState(np.diag([0.5, 1.0]))

    def test_values_are_immutable(self):
        state = make_state([0.2, 0.1])
        with pytest.raises(ValueError):
            state.entries[1] = 0.5
        phi = entangled_state(1, 2)
        with pytest.raises(ValueError):
            phi.matrix[0, 0] = 2.0
