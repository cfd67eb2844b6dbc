"""Tests for dense coding, classification, baselines, teleportation, swapping."""

import functools
import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import chi2_contingency, ks_2samp

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
    random_ball_points,
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


# The baselines' former draw, one table at a time: the oracle for the law of
# each table of their block draws.  It reproduces, bit for bit, the tables
# the per-table search drew, whose digests are pinned below.


def former_product_measurement(dim_a, dim_b, rng, max_side=MAX_OUTCOMES_SIDE):
    """One product measurement: its side outcome counts (uniform in
    ``2..max_side``), its component count and weights, then all its A sides
    and all its B sides, summed by one ``einsum``."""
    n_a = rng.integers(2, max_side + 1)
    n_b = rng.integers(2, max_side + 1)
    weights = rng.standard_exponential(rng.integers(1, MAX_COMPONENTS + 1))
    weights /= weights.sum()
    side_a = random_measurements(weights.size, dim_a, n_a, rng)
    side_b = random_measurements(weights.size, dim_b, n_b, rng)
    table = np.einsum("k,kam,kbn->abmn", weights, side_a, side_b)
    return table.reshape(n_a * n_b, dim_a + 1, dim_b + 1)


def former_product_state(dim, rng):
    """``(1, a) (1, b)^t``: both radii, then both directions."""
    rows = np.ones((2, dim + 1))
    rows[:, 1:] = random_ball_points(2, dim, rng)
    return rows[0][:, None] * rows[1]


def former_separable_tables(dim, trials, seed, max_side=MAX_OUTCOMES_SIDE):
    """Per table: its product state, message count, label order, Bell coin
    and, unless the coin picks the Bell-type decoding, its measurement."""
    n_bits = (dim + 1).bit_length() - 1
    rng = np.random.default_rng(seed)
    signs = hadamard_basis(n_bits)
    bell = np.stack([entangled_effect(y, n_bits).matrix for y in range(dim + 1)])
    tables = []
    for _ in range(trials):
        phi = former_product_state(dim, rng)
        n_messages = rng.integers(2, dim + 2)
        labels = rng.random(dim + 1).argsort()[:n_messages]
        if rng.random() < protocols.BELL_FRACTION:
            effects = bell
        else:
            effects = former_product_measurement(dim, dim, rng, max_side)
        tables.append(np.einsum("xm,ymn->xy", signs[labels], effects * phi))
    return tables


def former_product_decoding_tables(
    n_bits, trials, seed, entangled=0.5, max_side=MAX_OUTCOMES_SIDE
):
    """Per table: its coin, then the label of ``phi_label`` with probability
    ``entangled`` or else a product state, then its measurement."""
    dim = 2**n_bits - 1
    rng = np.random.default_rng(seed)
    signs = hadamard_basis(n_bits)
    tables = []
    for _ in range(trials):
        if rng.random() < entangled:
            phi = np.diag(signs[rng.integers(0, dim + 1)])
        else:
            phi = former_product_state(dim, rng)
        effects = former_product_measurement(dim, dim, rng, max_side)
        tables.append(np.einsum("xm,ymn->xy", signs, effects * phi))
    return tables


def per_table_search(former):
    """A baseline searched on the tables its former per-table draw gives
    (see ``former_separable_tables``), with the baselines' settings."""

    def search(arg, trials, seed):
        tables = iter(former(arg, trials, seed))
        return capacity.search_max(
            lambda count: list(itertools.islice(tables, count)),
            trials, 0.0, protocols.BASELINE_BA_TOL, protocols.BASELINE_BA_MAX_ITER,
        )

    search.__name__ = "per_table_" + former.__name__.removeprefix("former_").removesuffix("_tables")
    return search


CAPACITY_RUNS = [(capacity_search, (dim, 40)) for dim in (2, 3, 7, 15)]
BASELINE_RUNS = [(separable_baseline, (dim, 40)) for dim in (1, 3, 7)] + [
    (product_decoding_baseline, (n_bits, 40)) for n_bits in (1, 2, 3)
]
# The baselines as they drew one table at a time: the tables the per-seed
# work check has always seen.
PER_TABLE_RUNS = [(per_table_search(former_separable_tables), (dim, 40)) for dim in (1, 3, 7)] + [
    (per_table_search(former_product_decoding_tables), (n_bits, 40)) for n_bits in (1, 2, 3)
]


def run_ids(runs):
    return [f"{search.__name__}-{args[0]}" for search, args in runs]


SEARCHES = [capacity_search, separable_baseline, product_decoding_baseline]
SEARCH_IDS = ["capacity_search", "separable", "product_decoding"]


def against_draw_order(monkeypatch, search_tables, search, args):
    """Seeds 0-11 of ``search(*args, seed)``: one optimiser call per table,
    one block ranked best first, each rate within its table's ranking
    score, and the same maximum, bit for bit, as the draw-order oracle.
    Returns the Blahut-Arimoto iterations each spent, per seed."""
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
        if search is capacity_search:
            # The incumbent stays at the antipodal one bit, so every
            # table gets the same result as in draw order.
            oracle_by_table = {
                t.tobytes(): r for t, r in zip(search_tables.tables, oracle_tables)
            }
            for table, result in zip(ranked, tables):
                expected = oracle_by_table[table.tobytes()]
                assert ba_summary(result) == ba_summary(expected)
            assert spent[-1] == oracle_spent[-1]
    return spent, oracle_spent


class TestBestFirstSearch:
    """Ranking a block's tables changes the work done, never the maximum."""

    @pytest.mark.parametrize(
        "search, args", CAPACITY_RUNS + PER_TABLE_RUNS, ids=run_ids(CAPACITY_RUNS + PER_TABLE_RUNS)
    )
    def test_same_maximum_as_the_draw_order_oracle_with_less_work(
        self, monkeypatch, search_tables, search, args
    ):
        spent, oracle_spent = against_draw_order(monkeypatch, search_tables, search, args)
        assert all(s <= o for s, o in zip(spent, oracle_spent)), (spent, oracle_spent)
        if search is not capacity_search:
            assert sum(spent) < sum(oracle_spent)

    @pytest.mark.parametrize("search, args", BASELINE_RUNS, ids=run_ids(BASELINE_RUNS))
    def test_block_baselines_keep_the_draw_order_maximum_with_half_the_work(
        self, monkeypatch, search_tables, search, args
    ):
        # Best first is not less work at every seed: a block whose top
        # ranked tables have low rates can cost more than its draw order.
        # On the block draws, separable_baseline(7, 40, 10) spent 1,651
        # iterations best first against 1,161 in draw order, and
        # product_decoding_baseline(3, 40, 9) 868 against 490; on the
        # per-table draws, separable_baseline(7, 40, 18) spent 1,240
        # against 1,201.
        spent, oracle_spent = against_draw_order(monkeypatch, search_tables, search, args)
        assert 2 * sum(spent) <= sum(oracle_spent), (spent, oracle_spent)

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

    @pytest.mark.parametrize(
        "search, args", CAPACITY_RUNS + BASELINE_RUNS, ids=run_ids(CAPACITY_RUNS + BASELINE_RUNS)
    )
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
        # All radii, then all directions; state k takes points 2k and 2k + 1.
        inline = np.random.default_rng(seed)
        rows = np.ones((6, dim + 1))
        rows[:, 1:] = inline.random((6, 1)) ** (1.0 / dim) * random_directions(6, dim, inline)
        rng = np.random.default_rng(seed)
        state = protocols._random_product_states(3, dim, rng)
        # The draws are made before any state is formed.
        assert rng.random() == inline.random()
        for k in range(3):
            assert np.array_equal(state(k), np.outer(rows[2 * k], rows[2 * k + 1]))

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
        # Reference: the block's draws in their order, then each component's
        # weighted outer products added outcome by outcome in component order.
        dim_a, dim_b = dims
        count = 6
        block_rng = np.random.default_rng(seed)
        stacks = dict(random_product_measurement(count, dim_a, dim_b, block_rng))
        rng = np.random.default_rng(seed)
        outcomes = rng.integers(2, MAX_OUTCOMES_SIDE + 1, size=(2, count)).tolist()
        components = rng.integers(1, MAX_COMPONENTS + 1, size=count).tolist()
        exponentials = iter(rng.standard_exponential(sum(components)).tolist())
        weights = []
        for k in components:
            draws = [next(exponentials) for _ in range(k)]
            total = 0.0
            for x in draws:  # left to right, as np.bincount sums
                total += x
            weights.append([x / total for x in draws])
        sides = []
        for dim, row in zip(dims, outcomes):
            side = [None] * count
            for n in sorted(set(row)):
                members = [j for j in range(count) if row[j] == n]
                group = iter(random_measurements(sum(components[j] for j in members), dim, n, rng))
                for j in members:
                    side[j] = [next(group) for _ in range(components[j])]
            sides.append(side)
        # Both leave the stream at the same place, and the stacks come a B
        # outcome count at a time, ascending, each in index order.
        assert block_rng.random() == rng.random()
        assert list(stacks) == sorted(range(count), key=outcomes[1].__getitem__)
        unit = bipartite_unit(dim_a, dim_b).matrix
        for j in range(count):
            table = stacks[j]
            n_a, n_b = outcomes[0][j], outcomes[1][j]
            expected = np.zeros((n_a * n_b, dim_a + 1, dim_b + 1))
            for w, side_a, side_b in zip(weights[j], sides[0][j], sides[1][j]):
                for y1 in range(n_a):
                    for y2 in range(n_b):
                        expected[y1 * n_b + y2] += np.outer(w * side_a[y1], side_b[y2])
            assert np.array_equal(table, expected)
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
            random_product_measurement(1, *dims, rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("count", [-1, True, 2.5])
    def test_random_product_measurement_refuses_a_count_before_drawing(self, count):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(GptError, match="count must be an integer >= 0"):
            random_product_measurement(count, 3, 3, rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("n_bits", [2, 3])
    def test_tables_match_the_rotated_states(self, monkeypatch, search_tables, n_bits):
        # Oracle: each encoded state T_x phi built by the rotation matrix.
        dim = 2**n_bits - 1
        rng = np.random.default_rng(n_bits)
        product = product_state(random_state(dim, rng), random_state(dim, rng))
        ((_, effects),) = random_product_measurement(1, dim, dim, rng)
        original = protocols._random_product_states

        def fixed_product_states(count, dim, rng):
            original(count, dim, rng)  # keep the draw stream
            return lambda k: product.matrix

        monkeypatch.setattr(protocols, "_random_product_states", fixed_product_states)
        monkeypatch.setattr(
            protocols,
            "random_product_measurement",
            lambda count, *args: enumerate(itertools.repeat(effects, count)),
        )

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

    @pytest.mark.parametrize(
        "search, args, mib",
        [(product_decoding_baseline, (6, 256, 0), 4.5), (separable_baseline, (63, 256, 0), 9)],
        ids=["product-decoding-6", "separable-6"],
    )
    def test_a_block_holds_one_effect_stack_at_a_time(self, search, args, mib):
        # A block of 256 tables holds one (n_a n_b, 64, 64) effect stack at a
        # time and frees each side with its stack: all 256 stacks would take
        # about 138 MB, all 256 product states 8 MiB, and all the sides of
        # the block's product measurements about 3.4 MiB.
        tracemalloc.start()
        try:
            assert search(*args) <= 1.0 + OPT_TOL
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


def pinned_digest(former, arg) -> str:
    """sha256 over the dtype, shape and bytes of the oracle's tables at
    seeds 0-3, 40 trials each, in the order a one-block search optimises
    them (best first): how tests/test_draw_digests pins a search's tables."""
    digest = hashlib.sha256()
    for seed in range(4):
        tables = former(arg, 40, seed)
        scores = [capacity._ceiling_bits(t) for t in tables]
        for i in sorted(range(40), key=scores.__getitem__, reverse=True):
            digest.update(f"{tables[i].dtype.str}{tables[i].shape}".encode())
            digest.update(tables[i].tobytes())
    return digest.hexdigest()


# The law test draws this many tables per path, from seeds fixed before its
# first run; a p-value below LAW_ALPHA tells two laws apart.
LAW_TRIALS = 2000
LAW_ALPHA = 1e-3
BLOCK_SEED, ORACLE_SEED = 303, 404
# At N = 2 a product decoding barely tells phi_label from a product state.
LAW_RUNS = {
    "separable": (separable_baseline, 7, former_separable_tables),
    "product_decoding": (product_decoding_baseline, 3, former_product_decoding_tables),
}


@functools.cache
def law_tables(name):
    """The tables a baseline hands to the optimiser, in draw order."""
    search, arg, _ = LAW_RUNS[name]
    tables = []

    def recorded(block, best, tol, max_iter):
        tables.extend(block)
        return best

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(capacity, "_best_first_max", recorded)
        search(arg, LAW_TRIALS, BLOCK_SEED)
    return tables


@functools.cache
def law_oracle(name, **mutant):
    _, arg, former = LAW_RUNS[name]
    return former(arg, LAW_TRIALS, ORACLE_SEED, **mutant)


def baseline_law_p_values(first, second):
    """p-values that two lists of tables share a law: chi-square on the
    message counts and on the table shapes, two-sample KS on the
    Renyi-infinity bounds and on the summed column spreads."""
    pair = (first, second)
    p_values = []
    for key in (len, np.shape):
        kinds = sorted({key(t) for tables in pair for t in tables})
        counts = [[sum(key(t) == kind for t in tables) for kind in kinds] for tables in pair]
        # A single kind (every product-decoding table has 2^N messages) has
        # nothing to compare.
        p_values.append(chi2_contingency(counts).pvalue if len(kinds) > 1 else 1.0)
    ceilings = [[capacity._ceiling_bits(t) for t in tables] for tables in pair]
    spreads = [[(t.max(0) - t.min(0)).sum() for t in tables] for tables in pair]
    return (*p_values, ks_2samp(*ceilings).pvalue, ks_2samp(*spreads).pvalue)


class TestBaselineLaw:
    """Drawing a baseline's block at once keeps the law of each table."""

    @pytest.mark.parametrize(
        "former, arg, digest",
        [
            (
                former_separable_tables,
                3,
                "39c90574ae41b7a1355d22bb4503f47e7b13eb5779b6e3a973ad9cf76adaf6f5",
            ),
            (
                former_product_decoding_tables,
                2,
                "ce0157ee4b988938b990a3d3258070b16acf70971be67e2c08df8361af1e3dba",
            ),
        ],
        ids=["separable", "product_decoding"],
    )
    def test_the_oracle_is_the_former_per_table_draw(self, former, arg, digest):
        # The table digests the searches recorded at seeds 0-3 with 40
        # trials when they drew one table at a time.
        assert pinned_digest(former, arg) == digest

    @pytest.mark.parametrize("name", LAW_RUNS)
    def test_block_draw_has_the_per_table_law(self, name):
        p_values = baseline_law_p_values(law_tables(name), law_oracle(name))
        assert min(p_values) >= LAW_ALPHA, p_values

    @pytest.mark.parametrize(
        "name, mutant",
        [
            ("product_decoding", {"entangled": 0.9}),
            ("product_decoding", {"max_side": 3}),
            ("separable", {"max_side": 3}),
        ],
        ids=["entangled-0.9", "product-sides-2-3", "separable-sides-2-3"],
    )
    def test_a_mutant_law_is_rejected(self, name, mutant):
        p_values = baseline_law_p_values(law_tables(name), law_oracle(name, **mutant))
        assert min(p_values) < LAW_ALPHA, p_values
