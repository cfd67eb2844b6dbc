"""Tests for dense coding, classification, baselines, teleportation, swapping."""

import math
import tracemalloc

import numpy as np
import pytest

from gptlab import (
    EXACT_TOL,
    OPT_TOL,
    DomainError,
    GptError,
    ProtocolLabel,
    State,
    TheoryConfig,
    bipartite_contract,
    bipartite_unit,
    classify,
    dense_coding,
    entangled_effect,
    entangled_state,
    entanglement_swap,
    hadamard_basis,
    hadamard_vector,
    local_transformation,
    mutual_information,
    no_signalling_spread,
    product_decoding_baseline,
    product_state,
    separable_baseline,
    teleport,
    verify_max_tensor_membership,
)
from gptlab import capacity, protocols, variants
from gptlab.capacity import SEARCH_BLOCK, blahut_arimoto
from gptlab.core import unit_effect
from gptlab.hst import (
    MAX_COMPONENTS,
    MAX_DIM,
    capacity_search,
    make_extremal_effect,
    make_state,
    random_direction,
    random_directions,
    random_measurements,
    random_pure_state,
    random_state,
)
from gptlab.protocols import MAX_OUTCOMES_SIDE, random_product_measurement


def draw_order_max(tables, best, tol, max_iter):
    """The falsifiers' search loop without best-first ordering.

    Every table is optimised in draw order with the search's ``tol`` and
    ``max_iter`` and the running best as its ``incumbent``, one table at a
    time.
    """
    for table in tables:
        result = capacity.blahut_arimoto(table, tol=tol, max_iter=max_iter, incumbent=best)
        best = max(best, result.capacity_bits)
    return best


def ba_summary(result):
    """A ``CapacityResult``'s rate, dual bound and stopping data, exactly."""
    return (
        result.capacity_bits.hex(),
        result.upper_bits.hex(),
        result.iterations,
        result.converged,
    )


def teleport_joint_oracle(e_x, e_y, omega, phi_corrected) -> float:
    """Brute-force triple-index contraction (E_x (x) e_y).(omega (x) phi)."""
    return float(
        np.einsum("ij,k,i,jk->", e_x.matrix, e_y.entries, omega.entries, phi_corrected)
    )


def teleport_loop_oracle(input_state, n_bits, signs, seed=0, n_effects=100):
    """The per-outcome teleportation loop, one validated effect per probe.

    Row x of ``signs`` plays ``d_x``; returns ``(priors, max_residual,
    witness)`` as ``teleport`` reports them.
    """
    dim = 2**n_bits - 1
    rng = np.random.default_rng(seed)
    probe_effects = [make_extremal_effect(random_direction(dim, rng)) for _ in range(n_effects)]
    probe_effects.append(unit_effect(dim))
    probe_rows = np.stack([e.entries for e in probe_effects])

    omega = input_state.entries
    expected = probe_rows @ omega
    phi0 = signs[0]
    priors = np.zeros(2**n_bits)
    max_residual = 0.0
    witness = None
    for x in range(2**n_bits):
        d_x = signs[x]
        corrected = phi0 * d_x
        e_x = 2.0**-n_bits * d_x
        v_x = corrected * (e_x * omega)
        priors[x] = v_x[0]
        conditional = (probe_rows @ v_x) / priors[x]
        residuals = np.abs(conditional - expected)
        worst = int(np.argmax(residuals))
        if residuals[worst] > max_residual:
            max_residual = float(residuals[worst])
            witness = (x, worst)
    passed = max_residual <= EXACT_TOL
    return priors, max_residual, None if passed else witness


def swap_joint_oracle(e_x, e_y, phi_ac, phi_corrected) -> float:
    """Brute-force four-index contraction (E_x (x) E'_y).(phi_ac (x) phi)."""
    return float(
        np.einsum(
            "ij,kc,ic,jk->", e_x.matrix, e_y.matrix, phi_ac.matrix, phi_corrected
        )
    )


class TestDenseCoding:
    def test_identity_channel_exact(self):
        for n_bits in (1, 2, 5):
            run = dense_coding(n_bits)
            size = 2**n_bits
            assert np.array_equal(run.channel.conditional, np.eye(size))
            assert run.info_bits == float(n_bits)

    def test_theory_mismatch_rejected(self):
        with pytest.raises(GptError):
            dense_coding(3, theory=TheoryConfig.base(2))


class TestClassify:
    def test_examples(self):
        assert classify(3.0, 1.0) is ProtocolLabel.HYPERDENSE
        assert classify(2.0, 1.0) is ProtocolLabel.SUPERDENSE
        assert classify(1.0, 1.0) is ProtocolLabel.ORDINARY

    def test_strictness_near_thresholds(self):
        assert classify(1.0 + OPT_TOL / 2, 1.0) is ProtocolLabel.ORDINARY
        assert classify(2.0 + OPT_TOL / 2, 1.0) is ProtocolLabel.SUPERDENSE

    def test_monotone_in_rate(self):
        ranks = {
            ProtocolLabel.ORDINARY: 0,
            ProtocolLabel.SUPERDENSE: 1,
            ProtocolLabel.HYPERDENSE: 2,
        }
        previous = 0
        for rate in np.linspace(0.0, 3.0, 61):
            rank = ranks[classify(float(rate), 1.0)]
            assert rank >= previous
            previous = rank

    def test_rejects_negative_inputs(self):
        with pytest.raises(GptError):
            classify(-0.1, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("position", [0, 1])
    def test_rejects_a_non_finite_capacity(self, bad, position):
        capacities = [2.0, 1.0]
        capacities[position] = bad
        with pytest.raises(GptError):
            classify(*capacities)


BEST_FIRST_RUNS = (
    [(capacity_search, (dim, 40)) for dim in (2, 3, 7, 15)]
    + [(separable_baseline, (dim, 40)) for dim in (1, 3, 7)]
    + [(product_decoding_baseline, (n_bits, 40)) for n_bits in (1, 2, 3)]
)
BEST_FIRST_IDS = [f"{search.__name__}-{args[0]}" for search, args in BEST_FIRST_RUNS]
SEARCHES = [capacity_search, separable_baseline, product_decoding_baseline]
SEARCH_IDS = ["capacity_search", "separable", "product_decoding"]


class TestBestFirstSearch:
    """Ranking a block's tables changes the work done, never the maximum."""

    @pytest.mark.parametrize("search, args", BEST_FIRST_RUNS, ids=BEST_FIRST_IDS)
    def test_same_maximum_as_the_draw_order_oracle_with_less_work(
        self, monkeypatch, search_tables, search, args
    ):
        spent, oracle_spent = [], []
        for seed in range(12):
            best, tables = search_tables(search, *args, seed)
            assert len(tables) == args[1]  # one optimiser call per table
            ranked = search_tables.tables
            scores = [capacity._ceiling_bits(t) for t in ranked]
            assert scores == sorted(scores, reverse=True)  # one block, best first
            for score, table in zip(scores, tables):
                assert table.capacity_bits <= score + EXACT_TOL
            with monkeypatch.context() as patch:
                patch.setattr(capacity, "_best_first_max", draw_order_max)
                oracle, oracle_tables = search_tables(search, *args, seed)
            assert best.hex() == oracle.hex()
            spent.append(sum(t.iterations for t in tables))
            oracle_spent.append(sum(t.iterations for t in oracle_tables))
            assert spent[-1] <= oracle_spent[-1]
            if search is capacity_search:
                # The incumbent stays at the antipodal one bit, so every
                # table gets the same result as in draw order.
                oracle_by_table = {
                    t.tobytes(): r for t, r in zip(search_tables.tables, oracle_tables)
                }
                for table, result in zip(ranked, tables):
                    expected = oracle_by_table[table.tobytes()]
                    assert ba_summary(result) == ba_summary(expected)
        if search is not capacity_search:
            assert sum(spent) < sum(oracle_spent)

    @pytest.mark.parametrize("trials", [SEARCH_BLOCK - 1, SEARCH_BLOCK, SEARCH_BLOCK + 1])
    @pytest.mark.parametrize(
        "search, args, first_best",
        [
            (capacity_search, (3,), 1.0),
            (separable_baseline, (3,), 0.0),
            (product_decoding_baseline, (1,), 0.0),
        ],
        ids=["capacity_search", "separable", "product_decoding"],
    )
    def test_block_edges_match_the_draw_order_oracle(
        self, monkeypatch, search_tables, search, args, first_best, trials
    ):
        blocks = []  # (tables, incoming best, outgoing best) per block
        best_first_max = capacity._best_first_max

        def recorded(tables, best, tol, max_iter):
            blocks.append((len(tables), best, best_first_max(tables, best, tol, max_iter)))
            return blocks[-1][2]

        with monkeypatch.context() as patch:
            patch.setattr(capacity, "_best_first_max", recorded)
            best, tables = search_tables(search, *args, trials, 5)
        assert len(tables) == trials
        assert [size for size, _, _ in blocks] == [
            min(SEARCH_BLOCK, trials - start) for start in range(0, trials, SEARCH_BLOCK)
        ]
        # The running best is carried into the next block, not restarted.
        assert [incoming for _, incoming, _ in blocks] == [first_best] + [
            outgoing for _, _, outgoing in blocks[:-1]
        ]
        monkeypatch.setattr(capacity, "_best_first_max", draw_order_max)
        assert best.hex() == search(*args, trials, 5).hex()

    @pytest.mark.parametrize("search, args", BEST_FIRST_RUNS, ids=BEST_FIRST_IDS)
    def test_worst_first_keeps_the_maximum(self, monkeypatch, run_search, search, args):
        best, spent = run_search(search, *args, 3)

        def worst_first_max(tables, best, tol, max_iter):
            # Ranked by the optimiser's own Renyi-infinity bound, ascending.
            worst_first = sorted(tables, key=capacity._ceiling_bits)
            return draw_order_max(worst_first, best, tol, max_iter)

        monkeypatch.setattr(capacity, "_best_first_max", worst_first_max)
        worst, worst_spent = run_search(search, *args, 3)
        assert worst.hex() == best.hex()
        assert worst_spent >= spent

    @pytest.mark.parametrize(
        "search, args", [(capacity_search, (3,)), (separable_baseline, (3,))]
    )
    def test_every_full_run_lies_below_its_ceiling(self, search_tables, search, args):
        _, tables = search_tables(search, *args, 100, 2, early_exit=False)
        for table, result in zip(search_tables.tables, tables):
            assert result.capacity_bits <= capacity._ceiling_bits(table) + EXACT_TOL

    @pytest.mark.parametrize("trials", [0, -5, 2.5, True])
    def test_no_trials_is_refused_before_any_draw(self, trials):
        def draw_table():
            raise AssertionError("drew a table")

        with pytest.raises(GptError, match="trials"):
            capacity.search_max(draw_table, trials, 0.0, 1e-8, 400)

    @pytest.mark.parametrize("trials", [0, -5, 2.5, True])
    @pytest.mark.parametrize(
        "search, args",
        [(separable_baseline, (3,)), (product_decoding_baseline, (2,))],
        ids=["separable", "product_decoding"],
    )
    def test_baselines_need_a_trial(self, search, args, trials):
        with pytest.raises(GptError, match="trials"):
            search(*args, trials, 0)

    @pytest.mark.parametrize("size", [True, np.True_, 3.0, np.float64(3.0), "3", 0])
    @pytest.mark.parametrize("search", SEARCHES, ids=SEARCH_IDS)
    def test_searches_refuse_a_size_that_is_not_a_positive_integer(self, search, size):
        # Unchecked, a float or bool ball dimension ended in a raw numpy or
        # attribute error.
        with pytest.raises(GptError, match="must be an integer >= 1"):
            search(size, 3, 0)

    @pytest.mark.parametrize("search", SEARCHES, ids=SEARCH_IDS)
    def test_searches_take_numpy_integer_sizes(self, search):
        expected = search(3, 3, 0).hex()
        for size in (np.int64(3), np.uint8(3), np.int8(3)):
            assert search(size, 3, 0).hex() == expected


class TestSeparableBaseline:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("dim", [1, 3, 7, 15])
    def test_random_product_state_matches_the_inline_draw(self, dim, seed):
        inline = np.random.default_rng(seed)
        rows = np.ones((2, dim + 1))
        rows[:, 1:] = inline.random((2, 1)) ** (1.0 / dim) * random_directions(2, dim, inline)
        rng = np.random.default_rng(seed)
        phi = protocols._random_product_state(dim, rng)
        assert np.array_equal(phi, np.outer(rows[0], rows[1]))
        # Both leave the stream at the same place.
        assert rng.random() == inline.random()

    def test_never_beats_one_bit(self):
        best = separable_baseline(3, trials=300, seed=0)
        assert best <= 1.0 + OPT_TOL

    def test_product_decoding_never_beats_one_bit(self):
        best = product_decoding_baseline(2, trials=150, seed=1)
        assert best <= 1.0 + OPT_TOL

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "search, args",
        [(separable_baseline, (3, 100)), (product_decoding_baseline, (2, 50))],
        ids=["separable", "product_decoding"],
    )
    def test_early_exit_keeps_the_maximum(self, run_search, search, args, seed):
        best, spent = run_search(search, *args, seed)
        oracle, full = run_search(search, *args, seed, early_exit=False)
        assert best.hex() == oracle.hex()
        assert spent < full

    def test_bell_decoding_on_product_state_formula(self):
        # p(y|x) = (1 + a_x . T_hat_y b) / 2^N, never informative beyond 1 bit
        rng = np.random.default_rng(2)
        n_bits = 2
        a = random_pure_state(3, rng)
        b = random_pure_state(3, rng)
        phi = product_state(a, b)
        conditional = np.zeros((4, 4))
        for x in range(4):
            encoded = local_transformation(x, n_bits).apply_left(phi)
            a_x = hadamard_vector(x, n_bits)[1:] * a.r
            for y in range(4):
                p = bipartite_contract(entangled_effect(y, n_bits), encoded)
                hat_y = hadamard_vector(y, n_bits)[1:]
                expected = 0.25 * (1.0 + a_x @ (hat_y * b.r))
                assert abs(p - expected) < EXACT_TOL
                conditional[x, y] = p
        assert blahut_arimoto(conditional).capacity_bits <= 1.0 + OPT_TOL

    def test_trivial_decoding_carries_nothing(self):
        rng = np.random.default_rng(3)
        phi = product_state(random_state(3, rng), random_state(3, rng))
        unit = bipartite_unit(3, 3)
        conditional = np.array(
            [
                [bipartite_contract(unit, local_transformation(x, 2).apply_left(phi))]
                for x in range(4)
            ]
        )
        from gptlab import Channel

        ch = Channel(np.full(4, 0.25), conditional)
        assert mutual_information(ch) == 0.0

    def test_rejects_bad_dimension(self):
        with pytest.raises(GptError):
            separable_baseline(4, trials=1, seed=0)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("dims", [(3, 1), (3, 3), (7, 2)], ids=["3x1", "3x3", "7x2"])
    def test_random_product_measurement_matches_the_component_loop(self, dims, seed):
        # Reference: the same draws, each component's weighted outer
        # products added outcome by outcome in component order.
        dim_a, dim_b = dims
        table = random_product_measurement(dim_a, dim_b, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        n_a = int(rng.integers(2, MAX_OUTCOMES_SIDE + 1))
        n_b = int(rng.integers(2, MAX_OUTCOMES_SIDE + 1))
        weights = rng.standard_exponential(int(rng.integers(1, MAX_COMPONENTS + 1)))
        weights /= weights.sum()
        sides_a = random_measurements(weights.size, dim_a, n_a, rng)
        sides_b = random_measurements(weights.size, dim_b, n_b, rng)
        expected = np.zeros((n_a * n_b, dim_a + 1, dim_b + 1))
        for w, side_a, side_b in zip(weights, sides_a, sides_b):
            for y1 in range(n_a):
                for y2 in range(n_b):
                    expected[y1 * n_b + y2] += np.outer(w * side_a[y1], side_b[y2])
        assert np.array_equal(table, expected)
        unit = bipartite_unit(dim_a, dim_b).matrix
        assert np.abs(table.sum(axis=0) - unit).max() <= EXACT_TOL

    @pytest.mark.parametrize(
        "dims", [(0, 3), (3, 0), (True, 3), (3, 2.5), (MAX_DIM + 1, 3), (3, MAX_DIM + 1)]
    )
    def test_random_product_measurement_refuses_before_drawing(self, dims):
        # Either side's dimension is refused before the counts, the weights
        # and side A are drawn.
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(DomainError, match="ball dimension"):
            random_product_measurement(*dims, rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("n_bits", [2, 3])
    def test_tables_match_the_rotated_states(self, monkeypatch, search_tables, n_bits):
        # Oracle: each encoded state T_x phi built by the rotation matrix.
        dim = 2**n_bits - 1
        rng = np.random.default_rng(n_bits)
        product = product_state(random_state(dim, rng), random_state(dim, rng))
        effects = random_product_measurement(dim, dim, rng)
        original = protocols._random_product_state

        def fixed_product_state(dim, rng):
            original(dim, rng)
            return product.matrix

        monkeypatch.setattr(protocols, "_random_product_state", fixed_product_state)
        monkeypatch.setattr(protocols, "random_product_measurement", lambda *args: effects)

        def oracle(phi):
            encoded = np.stack(
                [local_transformation(x, n_bits).apply_left(phi).matrix for x in range(dim + 1)]
            )
            return np.einsum("ymn,xmn->xy", effects, encoded).tobytes()

        kinds = {oracle(product): "product"}
        for k in range(dim + 1):
            kinds[oracle(entangled_state(k, n_bits))] = "entangled"
        search_tables(product_decoding_baseline, n_bits, 20, 0)
        seen = {kinds[table.tobytes()] for table in search_tables.tables}
        assert seen == {"product", "entangled"}

    def test_no_signalling_marginal(self):
        for n_bits in (2, 3):
            assert no_signalling_spread(n_bits, trials=10, seed=0) <= EXACT_TOL

    @pytest.mark.parametrize("args", [(2, 1, 0), (3, 5, 0)])
    def test_no_signalling_detects_a_flipped_unit_sign(self, flipped_unit_sign, args):
        assert no_signalling_spread(*args) > 0.5

    @pytest.mark.parametrize(
        "search, args, mib",
        [(no_signalling_spread, (8, 1, 0), 4), (product_decoding_baseline, (7, 2, 0), 8)],
        ids=["no-signalling-8", "product-decoding-7"],
    )
    def test_falsifiers_build_no_encoded_states(self, search, args, mib):
        # The 2^N encoded states take 128 MiB at N = 8 and 16 MiB at N = 7.
        tracemalloc.start()
        try:
            search(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= mib * 2**20

    @pytest.mark.parametrize("trials", [0, -1, True, 2.5])
    def test_no_signalling_refuses_bad_trial_counts(self, monkeypatch, trials):
        def no_draw(*args):
            raise AssertionError("drew a measurement for a refused trial count")

        monkeypatch.setattr(protocols, "random_measurement", no_draw)
        with pytest.raises(GptError, match="trials must be an integer >= 1"):
            no_signalling_spread(2, trials, 0)


class TestTeleport:
    @pytest.mark.parametrize("n_effects", [-1, 2.5, True, 3.0])
    def test_bad_effect_counts_raise_before_any_draw(self, monkeypatch, n_effects):
        def no_draw(*args):
            raise AssertionError("drew probe effects for a refused count")

        monkeypatch.setattr(protocols, "random_directions", no_draw)
        with pytest.raises(GptError, match="n_effects must be an integer >= 0"):
            teleport(make_state(np.zeros(3)), 2, n_effects=n_effects)

    def test_zero_probe_effects_still_teleport(self):
        assert teleport(make_state(np.zeros(3)), 2, n_effects=np.int64(0)).passed

    def test_mixed_state_gives_uniform_conditional(self):
        n_bits = 2
        run = teleport(make_state(np.zeros(3)), n_bits, seed=0)
        assert run.passed
        assert run.max_residual == 0.0
        assert np.all(run.outcome_priors == 2.0**-n_bits)

    def test_axis_state_against_brute_force(self):
        n_bits = 2
        omega = make_state([1.0, 0.0, 0.0])
        e_y = make_extremal_effect([1.0, 0.0, 0.0])
        phi0 = entangled_state(0, n_bits)
        for x in range(4):
            t_x = local_transformation(x, n_bits)
            corrected = phi0.matrix @ t_x.matrix.T
            value = teleport_joint_oracle(
                entangled_effect(x, n_bits), e_y, omega, corrected
            )
            assert abs(value - 2.0**-n_bits * 1.0) < EXACT_TOL

    def test_outcome_priors_are_exactly_uniform(self):
        rng = np.random.default_rng(4)
        for n_bits in (1, 2, 3):
            state = random_pure_state(2**n_bits - 1, rng)
            run = teleport(state, n_bits, seed=5)
            assert np.all(run.outcome_priors == 2.0**-n_bits)

    def test_residuals_small_for_random_states(self):
        rng = np.random.default_rng(6)
        for n_bits in (2, 3):
            for i in range(100):
                state = random_pure_state(2**n_bits - 1, rng)
                run = teleport(state, n_bits, seed=i, n_effects=20)
                assert run.passed
                assert run.max_residual < 1e-12

    def test_rejects_wrong_dimension(self):
        with pytest.raises(GptError):
            teleport(make_state(np.zeros(4)), 2)

    def test_rejects_negative_effect_count(self):
        with pytest.raises(GptError, match="n_effects"):
            teleport(make_state(np.zeros(3)), 2, n_effects=-1)

    @pytest.mark.parametrize("excess", [1e-9, 0.5])
    def test_rejects_a_state_outside_the_ball(self, excess):
        # State checks only the normalisation entry, so it can leave the ball.
        outside = State(np.array([1.0, 0.6, 0.8 + excess, 0.0]))
        with pytest.raises(DomainError, match="norm"):
            teleport(outside, 2)

    def test_accepts_a_state_on_the_sphere(self):
        assert teleport(State(np.array([1.0, 0.6, 0.8, 0.0])), 2).passed

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("n_bits", [1, 2, 3, 4])
    @pytest.mark.parametrize("mutation", ["none", "halved_entry"])
    def test_stacked_outcomes_match_the_loop(self, monkeypatch, n_bits, seed, mutation):
        dim = 2**n_bits - 1
        rng = np.random.default_rng(seed)
        states = [random_pure_state(dim, rng), random_state(dim, rng), make_state(np.eye(dim)[0])]
        signs = hadamard_basis(n_bits)
        if mutation == "halved_entry":
            # d_x enters v_x twice, so a flipped sign would cancel; a halved
            # entry of the last d_x gives nonzero residuals and a witness.
            signs = signs.astype(float)
            signs[-1, 1] *= 0.5
            monkeypatch.setattr(protocols, "hadamard_basis", lambda n: signs)
        for state in states:
            run = teleport(state, n_bits, seed=seed, n_effects=20 + seed)
            priors, max_residual, witness = teleport_loop_oracle(
                state, n_bits, signs, seed=seed, n_effects=20 + seed
            )
            assert priors.tobytes() == run.outcome_priors.tobytes()
            assert repr(max_residual) == repr(run.max_residual)
            assert witness == run.witness
            assert run.passed is (mutation == "none")

    def test_residual_is_exactly_zero(self):
        # v_x = 2^-N omega holds exactly, so the conditional equals e_y . omega bit for bit.
        rng = np.random.default_rng(11)
        for n_bits in range(1, 7):
            for i in range(40):
                state = random_state(2**n_bits - 1, rng)
                assert teleport(state, n_bits, seed=i, n_effects=30).max_residual == 0.0

    def test_nan_in_a_sign_row_fails(self, nan_sign_row):
        run = teleport(random_pure_state(3, np.random.default_rng(0)), 2, seed=0)
        assert run.passed is False
        assert np.isnan(run.max_residual)
        assert run.witness == (1, 0)

    def test_swapped_sign_rows_fail_at_the_first_outcome(self, swapped_sign_rows):
        run = teleport(random_pure_state(7, np.random.default_rng(0)), 3, seed=0)
        assert run.passed is False
        assert run.max_residual > 0.1
        assert run.witness[0] == 0


class TestEntanglementSwap:
    def test_conditional_reproduces_swapped_state(self):
        for n_bits in (2, 3):
            size = 2**n_bits
            for label in range(size):
                run = entanglement_swap(n_bits, label=label)
                assert run.passed
                assert run.max_residual < 1e-12
                expected = np.zeros(size)
                expected[label] = 1.0
                assert np.array_equal(run.expected, expected)
                for x in range(size):
                    assert np.array_equal(run.conditional[x], expected)

    def test_outcome_priors_uniform(self):
        run = entanglement_swap(2, label=1)
        assert np.all(run.outcome_priors == 0.25)
        assert np.abs(run.conditional.sum(axis=1) - 1.0).max() < EXACT_TOL

    def test_degenerate_classical_case(self):
        run = entanglement_swap(1, label=1)
        assert run.passed
        assert np.array_equal(run.conditional, np.tile([0.0, 1.0], (2, 1)))

    def test_against_brute_force_contraction(self):
        n_bits = 2
        label = 1
        phi_ac = entangled_state(label, n_bits)
        phi0 = entangled_state(0, n_bits)
        run = entanglement_swap(n_bits, label=label)
        for x in range(4):
            corrected = phi0.matrix @ local_transformation(x, n_bits).matrix.T
            for y in range(4):
                value = swap_joint_oracle(
                    entangled_effect(x, n_bits),
                    entangled_effect(y, n_bits),
                    phi_ac,
                    corrected,
                )
                assert abs(value - run.outcome_priors[x] * run.conditional[x, y]) < EXACT_TOL

    def test_label_out_of_range(self):
        with pytest.raises(GptError):
            entanglement_swap(2, label=7)

    @pytest.mark.parametrize(
        "mutation, residual", [("halved_entry", 0.09375), ("swapped_rows", 1.0)]
    )
    def test_mutated_sign_stack_fails(self, monkeypatch, mutation, residual):
        signs = hadamard_basis(3).astype(float)
        if mutation == "halved_entry":
            signs[-1, 1] *= 0.5
        else:
            signs[[0, 1]] = signs[[1, 0]]
        monkeypatch.setattr(protocols, "hadamard_basis", lambda n: signs)
        run = entanglement_swap(3, label=5)
        assert run.passed is False
        assert run.max_residual == residual

    def test_swap_holds_few_tables(self):
        # A table is one 2^N x 2^N float array. The sign, receiver and
        # decoding stacks are freed once used, and the gap takes one buffer.
        table = 8 * 4**10
        tracemalloc.start()
        try:
            entanglement_swap(10, label=5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * table


def _dense_coding_table(n):
    return dense_coding(n, TheoryConfig.base(n)).channel.conditional.tolist()


def _swap_table(n):
    return entanglement_swap(n, label=1).conditional.tolist()


def _teleported(n):
    state = make_state(np.eye(1, 3)[0])
    run = teleport(state, n)
    return run.n_bits, run.outcome_priors.tolist(), run.max_residual


# Each entry point at a bit count where numpy integers wrap: -np.uint8(3) is
# 253, and 2**np.uint8(8) and 2**np.int8(8) are 0.
NUMPY_BIT_COUNT_CALLS = {
    "dense_coding": (3, _dense_coding_table),
    "lt_admissibility_witness": (3, lambda n: variants.lt_admissibility_witness(n, 0.5, 0.5)),
    "lt_optimal_info": (3, variants.lt_optimal_info),
    "lt_rotated_witness": (8, lambda n: variants.lt_rotated_witness(0.5, n).matrix.tolist()),
    "entanglement_swap": (3, _swap_table),
    "teleport": (2, _teleported),
    "weak_entanglement_bound": (8, lambda n: capacity.weak_entanglement_bound(0.5, n)),
    "weak_thresholds": (8, capacity.weak_thresholds),
}


@pytest.mark.parametrize("dtype", [np.uint8, np.int8])
@pytest.mark.parametrize("entry", sorted(NUMPY_BIT_COUNT_CALLS))
def test_numpy_bit_counts_give_the_python_int_result(entry, dtype):
    n_bits, call = NUMPY_BIT_COUNT_CALLS[entry]
    assert call(dtype(n_bits)) == call(n_bits)


# Each entry point checks its bit count before computing with it: unchecked,
# True built an N = 1 witness and a fractional or negative count ended in a
# raw numpy error.
BIT_COUNT_CHECKS = {
    "lt_rotated_witness": (2, lambda n: variants.lt_rotated_witness(0.5, n)),
    "no_signalling_spread": (1, lambda n: no_signalling_spread(n, 1, 0)),
    "product_decoding_baseline": (1, lambda n: product_decoding_baseline(n, 1, 0)),
}


@pytest.mark.parametrize("n_bits", [True, 0, 2.5, np.int8(-1)], ids=repr)
@pytest.mark.parametrize("entry", sorted(BIT_COUNT_CHECKS))
def test_bad_bit_counts_are_refused(entry, n_bits):
    minimum, call = BIT_COUNT_CHECKS[entry]
    for value in (n_bits, minimum - 1):
        with pytest.raises(GptError, match=f"n_bits must be an integer >= {minimum}"):
            call(value)


# Unchecked, a negative seed ended in numpy's raw "expected non-negative
# integer" from default_rng.
SEED_CHECKS = {
    "capacity_search": lambda seed: capacity_search(3, 1, seed),
    "separable_baseline": lambda seed: separable_baseline(3, 1, seed),
    "product_decoding_baseline": lambda seed: product_decoding_baseline(2, 1, seed),
    "no_signalling_spread": lambda seed: no_signalling_spread(2, 1, seed),
    "teleport": lambda seed: teleport(make_state(np.zeros(3)), 2, seed=seed),
    "verify_max_tensor_membership": lambda seed: verify_max_tensor_membership(
        entangled_state(0, 2), 2, trials=1, seed=seed
    ),
    "tl_violation_witness": lambda seed: variants.tl_violation_witness(
        TheoryConfig.embedded(2, 2), 1, seed
    ),
    "family_matrices": lambda seed: variants.family_matrices(TheoryConfig.base(2), seed),
}


@pytest.mark.parametrize("entry", sorted(SEED_CHECKS))
def test_negative_seeds_are_refused(entry):
    SEED_CHECKS[entry](0)
    for seed in (-1, np.int64(-1)):
        with pytest.raises(GptError, match=r"^seed must be an integer >= 0, got "):
            SEED_CHECKS[entry](seed)


# These entry points draw nothing from their seed, yet refuse a bad one as
# every seeded entry point does, rather than taking any object.
UNUSED_SEED_CHECKS = {
    "dense_coding": ("seed", lambda seed: dense_coding(2, seed=seed)),
    "entanglement_swap": ("seed", lambda seed: entanglement_swap(2, seed=seed)),
    "embedded_dense_coding": (
        "rotation_seed",
        lambda seed: variants.embedded_dense_coding(
            TheoryConfig.embedded(2, 2), rotation_seed=seed
        ),
    ),
}


@pytest.mark.parametrize("entry", sorted(UNUSED_SEED_CHECKS))
def test_seeds_that_draw_nothing_are_still_checked(entry):
    name, call = UNUSED_SEED_CHECKS[entry]
    call(0)
    call(np.int64(7))
    for seed in ("abc", None, -5, np.int64(-1), True, 1.0):
        with pytest.raises(GptError, match=rf"^{name} must be an integer >= 0, got "):
            call(seed)
