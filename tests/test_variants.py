"""Tests for the deformed theories and the matrix-norm validators."""

import decimal
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gptlab import (
    EXACT_TOL,
    OPT_TOL,
    BipartiteEffect,
    BipartiteState,
    DomainError,
    GptError,
    ProtocolFalsified,
    TheoryConfig,
    bipartite_contract,
    dense_coding,
    dense_coding_info,
    entangled_state,
    lemma_effect_check,
    lemma_state_check,
    local_tomography,
    lt_admissibility_witness,
    lt_channel,
    lt_optimal_info,
    lt_optimal_product,
    lt_peak_probability,
    mutual_information,
    product_effect,
    product_state,
    theory_effect,
    theory_state,
    tl_violation_witness,
    verify_max_tensor_membership,
    weak_dense_coding,
)
from gptlab import variants
from gptlab.capacity import blahut_arimoto, weak_entanglement_bound, weak_thresholds
from gptlab.cli import main
from gptlab.core import KIND_PARAMS, MAX_N_BITS, THEORY_KINDS, Effect, State
from gptlab.hadamard import hadamard_basis, hadamard_vector, local_transformation
from gptlab.hst import random_directions
from gptlab.variants import (
    FAMILY_RANDOM_PAIRS,
    TlWitnessReport,
    constructed_family,
    embedded_dense_coding,
    embedded_extremal_effect,
    embedded_transformation,
    family_matrices,
    lemma_effect_checks,
    lemma_state_checks,
    lt_rotated_witness,
    random_rotation,
)

ROUNDED_REFERENCE_RATES = {2: 2.0, 3: 0.15, 4: 0.05, 5: 0.02}


def pure_state(theory, rng):
    """One uniform pure local state of ``theory``, drawn through ``hst``.

    The direction fills the active block, the trailing ``active_dim``
    coordinates; the embedded model's leading ball block stays zero.
    """
    entries = np.zeros(theory.local_dim + 1)
    entries[0] = 1.0
    entries[entries.size - theory.active_dim :] = random_directions(1, theory.active_dim, rng)[0]
    return State(entries)


def lt_optimal_info_reference(n_bits):
    """``N - H(Q_N)`` in decimal arithmetic, from the exact rational ``Q_N``.

    The difference cancels about ``0.30103 N`` leading digits, so the
    working precision grows with N.
    """
    d = 2**n_bits
    with decimal.localcontext() as ctx:
        ctx.prec = int(0.30103 * n_bits) + 40
        peak = decimal.Decimal(2 * (d - 2)) / decimal.Decimal(d * (d - 3))
        entropy = -peak * peak.ln()
        if peak < 1:
            entropy -= (1 - peak) * ((1 - peak) / (d - 1)).ln()
        return float(n_bits - entropy / decimal.Decimal(2).ln())


class TestTheoryConfigTypes:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: TheoryConfig.base(3.0),
            lambda: TheoryConfig.base(True),
            lambda: TheoryConfig.weak(3, True),
            lambda: TheoryConfig.weak(3, np.True_),
            lambda: TheoryConfig.weak(3, "0.2"),
            lambda: TheoryConfig.lambda_tau(3, True, 0.2),
            lambda: TheoryConfig.lambda_tau(3, 0.2, False),
            lambda: TheoryConfig.embedded(3, True),
            lambda: TheoryConfig.embedded(3, 2.5),
            lambda: TheoryConfig.embedded(3, None),
        ],
        ids=[
            "base-float-n",
            "base-bool-n",
            "weak-bool-lambda",
            "weak-numpy-bool-lambda",
            "weak-str-lambda",
            "lambda-tau-bool-lambda",
            "lambda-tau-bool-tau",
            "embedded-bool-m",
            "embedded-float-m",
            "embedded-no-m",
        ],
    )
    def test_rejects_a_non_numeric_or_bool_parameter(self, build):
        with pytest.raises(DomainError):
            build()

    @pytest.mark.parametrize(
        "kind, given, missing",
        [
            ("lambda-tau", {}, "lambda and tau"),
            ("lambda-tau", {"lam": 0.5}, "tau"),
            ("lambda-tau", {"tau": 0.5}, "lambda"),
            ("embedded", {}, "m"),
            ("embedded", {"lam": 0.5, "tau": 0.5}, "m"),
            ("weak", {"tau": 0.5, "m": 2}, "lambda"),
        ],
    )
    def test_names_the_missing_parameters(self, kind, given, missing):
        with pytest.raises(DomainError, match=f"^the {kind} model needs {missing}$"):
            TheoryConfig(kind, 3, **given)

    def test_kind_params_name_every_kind_and_what_it_reads(self):
        assert THEORY_KINDS == tuple(KIND_PARAMS) == ("base", "lambda-tau", "embedded", "weak")
        for kind, params in KIND_PARAMS.items():
            given = {"lam": 0.2, "tau": 0.2, "m": 2}
            theory = TheoryConfig(kind, 3, **{attr: given[attr] for attr in params})
            assert all(getattr(theory, attr) == given[attr] for attr in params)
            unread = {"lam", "tau", "m"} - set(params)
            assert all(getattr(theory, attr) is None for attr in unread)

    @pytest.mark.parametrize("kind", ["base", "embedded"])
    def test_unscaled_kinds_take_lambda_and_tau_beyond_one(self, kind):
        theory = TheoryConfig(kind, 3, lam=2.0, tau=-3.0, m=2)
        assert (theory.lam, theory.tau) == (2.0, -3.0)
        with pytest.raises(DomainError, match="finite"):
            TheoryConfig(kind, 3, lam=math.inf, m=2)

    @pytest.mark.parametrize("kind, params", [("base", {}), ("weak", {"lam": 0.5})])
    @pytest.mark.parametrize("m", ["x", -4, 0, 2.5, True])
    def test_every_kind_checks_a_given_m(self, kind, params, m):
        # Once, only the embedded kind checked m, and the others stored it.
        with pytest.raises(DomainError, match="^embedding sphere dimension m must be"):
            TheoryConfig(kind, 3, m=m, **params)
        m = TheoryConfig(kind, 3, m=np.int64(2), **params).m
        assert type(m) is int and m == 2

    @pytest.mark.parametrize(
        "kind, params", [("weak", {"lam": 1.5}), ("lambda-tau", {"lam": 0.1, "tau": -1.5})]
    )
    def test_scaled_kinds_keep_lambda_and_tau_in_the_unit_interval(self, kind, params):
        with pytest.raises(DomainError, match=r"\[-1, 1\]"):
            TheoryConfig(kind, 3, **params)

    def test_accepts_numpy_numbers(self):
        assert TheoryConfig.embedded(np.int64(3), np.int32(2)).local_dim == 9
        assert TheoryConfig.weak(3, np.float64(0.2)).lam == 0.2


def tl_witness_loop_oracle(theory, trials, seed):
    """The per-trial TL witness loop, one validated effect per local draw.

    Every mix is drawn first, one Dirichlet call per local effect, then
    every direction, one Gaussian vector per local effect, both side by
    side in trial order.
    """
    rng = np.random.default_rng(seed)
    states = [variants.theory_state(mu, theory) for mu in range(2**theory.n_bits)]
    distances = tuple(float(np.abs(states[0].matrix - s.matrix).sum()) for s in states)
    violations = []
    max_spread = 0.0
    unit = Effect(np.concatenate(([1.0], np.zeros(theory.local_dim))))
    mixes = [[rng.dirichlet(np.ones(3)) for _side in range(2)] for _ in range(trials)]
    for t in range(trials):
        effects = []
        for mix in mixes[t]:
            w = rng.standard_normal(theory.m)
            extremal = embedded_extremal_effect(w / np.linalg.norm(w), theory)
            effects.append(Effect(mix[0] * extremal.entries + mix[1] * unit.entries))
        joint = product_effect(effects[0], effects[1])
        probs = np.array([bipartite_contract(joint, s) for s in states])
        spread = float(probs.max() - probs.min())
        max_spread = max(max_spread, spread)
        expected = float(effects[0].entries[0] * effects[1].entries[0])
        if spread > EXACT_TOL or abs(probs[0] - expected) > EXACT_TOL:
            violations.append(
                {
                    "check": "local_statistics",
                    "spread": spread,
                    "value": float(probs[0]),
                    "expected": expected,
                }
            )
    if not all(d > 0 for d in distances[1:]):
        violations.append({"check": "states_differ", "distances": distances})
    return TlWitnessReport(
        passed=not violations,
        max_probability_spread=max_spread,
        state_distances=distances,
        violations=tuple(violations),
    )


@st.composite
def lt_window_edges(draw):
    """``(N, lambda, tau)`` with ``lambda tau`` on an edge of the admissible window."""
    n_bits = draw(st.integers(2, 8))
    edge = draw(st.sampled_from([-1.0 / (2**n_bits - 1), 1.0 / (2**n_bits - 3)]))
    lam = draw(st.floats(abs(edge), 1.0)) * draw(st.sampled_from([1.0, -1.0]))
    return n_bits, lam, edge / lam


@st.composite
def admissible_products(draw):
    """``(N, p)`` with p a scale product ``dense_coding_channel`` admits."""
    n_bits = draw(st.integers(2, 12))
    low = -1.0 / (2**n_bits - 1) - EXACT_TOL
    return n_bits, draw(st.floats(low, 1.0) | st.floats(-1e-6, 1e-6))


class TestLambdaTauChannel:
    @settings(max_examples=150, deadline=None)
    @given(case=lt_window_edges())
    def test_window_edges_are_admissible(self, case):
        n_bits, lam, tau = case
        theory = TheoryConfig.lambda_tau(n_bits, lam, tau)
        assert lt_channel(theory).conditional.min() >= 0.0
        for p in lt_admissibility_witness(n_bits, lam, tau):
            assert -1e-12 <= p <= 1.0 + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(case=lt_window_edges())
    def test_just_beyond_the_window_edges_is_rejected(self, case):
        n_bits, lam, tau = case
        beyond = tau * (1.0 + 1e-6)
        with pytest.raises(DomainError):
            TheoryConfig.lambda_tau(n_bits, lam, beyond)
        argv = ["dense-coding", "--n-bits", str(n_bits), "--theory", "lambda-tau"]
        assert main(argv + ["--lambda", repr(lam), "--tau", repr(beyond)]) == 2

    def test_closed_form_exhaustive(self):
        rng = np.random.default_rng(0)
        for n_bits in (2, 3, 4, 5):
            hi = lt_optimal_product(n_bits)
            lo = -1.0 / (2**n_bits - 1)
            for _ in range(3):
                prod = float(rng.uniform(lo, hi))
                theory = TheoryConfig.lambda_tau(n_bits, 1.0, prod)
                channel = lt_channel(theory)
                size = 2**n_bits
                expected = np.full((size, size), 2.0**-n_bits * (1.0 - prod))
                expected[np.diag_indices(size)] += prod
                assert np.abs(channel.conditional - expected).max() < EXACT_TOL

    def test_identity_at_top_of_window_for_two_bits(self):
        theory = TheoryConfig.lambda_tau(2, 1.0, 1.0)
        channel = lt_channel(theory)
        assert np.abs(channel.conditional - np.eye(4)).max() < EXACT_TOL
        assert abs(mutual_information(channel) - 2.0) < 1e-12

    def test_uncorrelated_parameters_carry_nothing(self):
        theory = TheoryConfig.lambda_tau(3, 0.7, 0.0)
        channel = lt_channel(theory)
        assert mutual_information(channel) == 0.0

    def test_full_strength_rejected_beyond_two_bits(self):
        with pytest.raises(DomainError, match="lambda"):
            TheoryConfig.lambda_tau(3, 1.0, 1.0)

    def test_admissibility_witness_detects_violations(self):
        for n_bits in (2, 3, 4):
            hi = lt_optimal_product(n_bits)
            lo = -1.0 / (2**n_bits - 1)
            inside_hi = lt_admissibility_witness(n_bits, 1.0, hi)
            inside_lo = lt_admissibility_witness(n_bits, 1.0, lo)
            for pair in (inside_hi, inside_lo):
                assert min(pair) >= -EXACT_TOL
                assert max(pair) <= 1.0 + EXACT_TOL
            above = lt_admissibility_witness(n_bits, 1.0, hi * 1.05)
            below = lt_admissibility_witness(n_bits, 1.0, lo * 1.05)
            assert min(above) < -EXACT_TOL
            assert min(below) < -EXACT_TOL

    @pytest.mark.parametrize("lam, tau", [(1e200, 1e200), (-1e200, 1e200), (1e300, 1e10)])
    def test_admissibility_witness_refuses_an_overflowing_product(self, lam, tau):
        # Unchecked, (1e200, 1e200) warned "overflow encountered in multiply"
        # and returned (inf, nan).  Any warning fails this test.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"^lambda \* tau must be finite"):
                lt_admissibility_witness(3, lam, tau)

    @pytest.mark.parametrize("n_bits", [2, 3, 12])
    def test_admissibility_witness_takes_a_product_near_the_float_limit(self, n_bits):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pair = lt_admissibility_witness(n_bits, 1e154, 1.7e154)
        assert all(math.isfinite(p) for p in pair)
        assert pair[0] > 1.0 and pair[1] < 0.0

    def test_rotated_witness_refuses_more_bits_than_the_limit(self, monkeypatch):
        # Unchecked, N = 13 built an 8192 x 8192 diagonal matrix (512 MiB).
        def no_diag(*args):
            raise AssertionError("built the witness matrix for a refused bit count")

        monkeypatch.setattr(np, "diag", no_diag)
        tracemalloc.start()
        try:
            with pytest.raises(GptError, match=f"n_bits must be at most {MAX_N_BITS}, got 13"):
                lt_rotated_witness(0.5, MAX_N_BITS + 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_state_and_effect_shapes(self):
        theory = TheoryConfig.lambda_tau(2, 0.5, 0.5)
        phi = theory_state(1, theory)
        assert phi.matrix[0, 0] == 1.0
        assert np.array_equal(
            np.diagonal(phi.matrix)[1:], 0.5 * hadamard_vector(1, 2)[1:]
        )
        eff = theory_effect(1, theory)
        assert eff.gamma == 0.25


class TestLambdaTauOptimum:
    def test_peak_probability_values(self):
        assert lt_peak_probability(2) == 1.0
        assert lt_peak_probability(3) == 0.3

    def test_rounded_reference_rates(self):
        for n_bits, reference in ROUNDED_REFERENCE_RATES.items():
            assert abs(lt_optimal_info(n_bits) - reference) <= 5e-3

    def test_matches_prior_optimised_channel(self):
        for n_bits in (2, 3, 4, 5):
            theory = TheoryConfig.lambda_tau(n_bits, 1.0, lt_optimal_product(n_bits))
            capacity = blahut_arimoto(lt_channel(theory).conditional).capacity_bits
            assert abs(capacity - lt_optimal_info(n_bits)) < 1e-6

    @settings(max_examples=200, deadline=None)
    @given(n_bits=st.integers(2, 10), data=st.data())
    def test_window_ends_bound_the_rate(self, n_bits, data):
        # Each table row is affine in p = lambda tau and entropy is concave, so
        # the rate is convex in p and peaks at an end of the window.
        ends = (-1.0 / (2**n_bits - 1), lt_optimal_product(n_bits))
        p = data.draw(st.floats(*ends), label="p")
        ceiling = max(dense_coding_info(n_bits, end) for end in ends)
        assert dense_coding_info(n_bits, p) <= ceiling + EXACT_TOL

    @pytest.mark.parametrize("n_bits", range(3, 11))
    def test_lower_window_end_beats_the_nonnegative_optimum(self, n_bits):
        lower = dense_coding_info(n_bits, -1.0 / (2**n_bits - 1))
        assert lower > lt_optimal_info(n_bits)
        assert abs(lower - (n_bits - math.log2(2**n_bits - 1))) <= EXACT_TOL
        if n_bits == 3:
            assert (round(lower, 6), round(lt_optimal_info(3), 6)) == (0.192645, 0.153561)

    def test_positive_and_decreasing_in_n(self):
        values = [lt_optimal_info(n) for n in range(2, variants.LT_MAX_N_BITS + 1)]
        assert values[-1] > 0.0
        assert all(a > b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("n_bits", [*range(2, 130), *range(130, 1001, 29)])
    def test_matches_a_decimal_reference(self, n_bits):
        reference = lt_optimal_info_reference(n_bits)
        assert abs(lt_optimal_info(n_bits) - reference) <= 1e-12 * reference

    def test_single_bit_rejected(self):
        with pytest.raises(DomainError):
            lt_optimal_info(1)

    @pytest.mark.parametrize("n_bits", [3.5, 3.0, True, np.float64(3.0)])
    @pytest.mark.parametrize(
        "closed_form, error",
        [
            (lt_optimal_product, GptError),
            (lt_peak_probability, GptError),
            (lt_optimal_info, DomainError),
            (lambda n: lt_admissibility_witness(n, 0.5, 0.5), GptError),
        ],
        ids=["product", "peak", "info", "witness"],
    )
    def test_closed_forms_refuse_a_non_integer_bit_count(self, closed_form, error, n_bits):
        with pytest.raises(error, match="n_bits must be an integer >= 2"):
            closed_form(n_bits)

    def test_closed_forms_accept_numpy_bit_counts(self):
        assert lt_optimal_product(np.int64(3)) == lt_optimal_product(3)
        assert lt_optimal_info(np.int32(3)) == lt_optimal_info(3)
        assert lt_admissibility_witness(np.int16(3), 0.5, 0.5) == lt_admissibility_witness(
            3, 0.5, 0.5
        )

    @pytest.mark.parametrize(
        "closed_form", [lt_optimal_product, lt_peak_probability, lt_optimal_info]
    )
    def test_closed_forms_stop_where_two_to_the_n_overflows(self, closed_form):
        assert closed_form(variants.LT_MAX_N_BITS) >= 0.0
        with pytest.raises(GptError, match="n_bits"):
            closed_form(variants.LT_MAX_N_BITS + 1)


class TestEmbeddedTheory:
    def test_dense_coding_is_perfect_for_any_rotation(self):
        for n_bits, m in ((2, 2), (3, 4)):
            theory = TheoryConfig.embedded(n_bits, m)
            for seed in (0, 1, 2):
                channel = embedded_dense_coding(theory, rotation_seed=seed)
                assert np.array_equal(channel.conditional, np.eye(2**n_bits))
                assert mutual_information(channel) == float(n_bits)

    def test_dense_coding_via_dispatch(self):
        run = dense_coding(3, theory=TheoryConfig.embedded(3, 4), seed=9)
        assert run.info_bits == 3.0

    def test_local_probabilities_ignore_the_label(self):
        theory = TheoryConfig.embedded(2, 3)
        rng = np.random.default_rng(1)
        for _ in range(10):
            v = rng.standard_normal(3)
            e = embedded_extremal_effect(v / np.linalg.norm(v), theory)
            w = rng.standard_normal(3)
            f = embedded_extremal_effect(w / np.linalg.norm(w), theory)
            probs = [
                bipartite_contract(product_effect(e, f), theory_state(mu, theory))
                for mu in range(4)
            ]
            assert max(probs) - min(probs) == 0.0
            assert probs[0] == e.entries[0] * f.entries[0]

    def test_product_states_see_uniform_decoding(self):
        theory = TheoryConfig.embedded(3, 4)
        rng = np.random.default_rng(2)
        sa = pure_state(theory, rng)
        sb = pure_state(theory, rng)
        phi = product_state(sa, sb)
        for y in range(8):
            assert bipartite_contract(theory_effect(y, theory), phi) == 2.0**-3

    def test_small_sphere_block_example(self):
        theory = TheoryConfig.embedded(3, 2)
        for seed in (0, 5):
            channel = embedded_dense_coding(theory, rotation_seed=seed)
            assert mutual_information(channel) == 3.0

    def test_entangled_states_live_in_the_frozen_corner(self):
        theory = TheoryConfig.embedded(2, 3)
        for mu in range(4):
            matrix = theory_state(mu, theory).matrix
            assert matrix.shape == (7, 7)
            assert np.array_equal(matrix[4:, :], np.zeros((3, 7)))
            assert np.array_equal(matrix[:, 4:], np.zeros((7, 3)))
            assert np.array_equal(np.diagonal(matrix)[:4], hadamard_vector(mu, 2))

    @pytest.mark.parametrize("direction", [[[1.0, 0.0]], [[1.0], [0.0]]], ids=["row", "column"])
    def test_extremal_effect_refuses_a_matrix_direction(self, direction):
        # Unchecked, a 1 x 2 direction ended in a raw ValueError from np.concatenate.
        with pytest.raises(DomainError, match="must be a vector"):
            embedded_extremal_effect(direction, TheoryConfig.embedded(2, 2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_transformation_refuses_a_non_finite_rotation(self, bad):
        theory = TheoryConfig.embedded(2, 2)
        # Unchecked, an all-NaN rotation gave a Transformation with a NaN block.
        with pytest.raises(DomainError, match="finite"):
            embedded_transformation(1, theory, np.full((2, 2), bad))
        rotation = np.eye(2)
        rotation[1, 0] = bad
        with pytest.raises(DomainError, match="finite"):
            embedded_transformation(1, theory, rotation)

    def test_transformations_preserve_local_states(self):
        theory = TheoryConfig.embedded(2, 3)
        rng = np.random.default_rng(3)
        for _ in range(1000):
            rotation = random_rotation(theory.m, rng)
            label = int(rng.integers(4))
            transform = embedded_transformation(label, theory, rotation)
            state = pure_state(theory, rng)
            moved = transform.apply(state)
            # the frozen ball block stays exactly zero
            assert np.array_equal(moved.entries[1 : 1 + theory.ball_dim], np.zeros(3))
            assert abs(np.linalg.norm(moved.r) - 1.0) < EXACT_TOL

    def test_rotations_are_special_orthogonal(self):
        rng = np.random.default_rng(4)
        for m in (1, 2, 3, 5):
            for _ in range(20):
                q = random_rotation(m, rng)
                assert np.abs(q @ q.T - np.eye(m)).max() < 1e-12
                assert abs(np.linalg.det(q) - 1.0) < 1e-12

    def test_tl_violation_witness(self):
        for n_bits, m in ((2, 2), (3, 4)):
            theory = TheoryConfig.embedded(n_bits, m)
            report = tl_violation_witness(theory, trials=50, seed=0)
            assert report.passed
            assert report.max_probability_spread < 1e-12
            assert report.state_distances[0] == 0.0
            for distance in report.state_distances[1:]:
                assert distance == float(2**n_bits)

    @pytest.mark.parametrize("trials", [0, -2, True, 2.5])
    def test_tl_witness_refuses_bad_trial_counts(self, trials):
        with pytest.raises(GptError, match="trials must be an integer >= 1"):
            tl_violation_witness(TheoryConfig.embedded(2, 2), trials=trials, seed=0)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("n_bits, m", [(2, 2), (3, 4), (4, 3)])
    def test_stacked_trials_match_the_loop(self, n_bits, m, seed):
        theory = TheoryConfig.embedded(n_bits, m)
        report = tl_violation_witness(theory, trials=30, seed=seed)
        assert repr(report) == repr(tl_witness_loop_oracle(theory, 30, seed))

    def test_sphere_marginal_breaks_local_statistics(self, sphere_marginal_state):
        theory = TheoryConfig.embedded(3, 4)
        report = tl_violation_witness(theory, trials=20, seed=0)
        assert report.passed is False
        assert [v["check"] for v in report.violations] == ["local_statistics"] * 20
        assert report.max_probability_spread > 0.01
        assert repr(report) == repr(tl_witness_loop_oracle(theory, 20, 0))

    def test_nan_state_breaks_local_statistics(self, nan_embedded_state):
        report = tl_violation_witness(TheoryConfig.embedded(3, 4), trials=20, seed=0)
        assert report.passed is False
        checks = [v["check"] for v in report.violations]
        assert "local_statistics" in checks
        assert checks[-1] == "states_differ"

    def test_base_theory_has_no_such_witness(self):
        # tomography pins down every entangled state in the base model
        for mu in range(4):
            phi = entangled_state(mu, 2)
            rebuilt = local_tomography(phi)
            assert np.abs(rebuilt.matrix - phi.matrix).max() < EXACT_TOL


class TestWeakTheory:
    def test_full_strength_reduces_to_base(self):
        theory = TheoryConfig.weak(2, 1.0)
        channel = weak_dense_coding(theory)
        base = dense_coding(2).channel
        assert np.array_equal(channel.conditional, base.conditional)
        assert np.array_equal(theory_state(3, theory).matrix, entangled_state(3, 2).matrix)

    def test_thresholds_cap_the_rate(self):
        for n_bits in (2, 3):
            t0, t1 = weak_thresholds(n_bits)
            run0 = dense_coding(n_bits, theory=TheoryConfig.weak(n_bits, t0))
            run1 = dense_coding(n_bits, theory=TheoryConfig.weak(n_bits, t1))
            assert run0.info_bits <= 1.0 + OPT_TOL
            assert run1.info_bits <= 2.0 + OPT_TOL

    def test_rate_monotone_in_correlation_strength(self):
        for n_bits in (2, 3):
            grid = np.linspace(0.0, 1.0, 11)
            rates = [
                dense_coding(n_bits, theory=TheoryConfig.weak(n_bits, float(lam))).info_bits
                for lam in grid
            ]
            assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))
            negative = [
                dense_coding(n_bits, theory=TheoryConfig.weak(n_bits, float(lam))).info_bits
                for lam in np.linspace(0.0, -1.0 / (2**n_bits - 1), 5)
            ]
            assert all(b >= a - 1e-12 for a, b in zip(negative, negative[1:]))

    def test_rate_respects_analytic_bound(self):
        for n_bits in (2, 3):
            for lam in (0.1, 0.3, 0.7):
                run = dense_coding(n_bits, theory=TheoryConfig.weak(n_bits, lam))
                assert run.info_bits <= weak_entanglement_bound(lam, n_bits) + OPT_TOL

    def test_too_negative_correlations_rejected(self):
        theory = TheoryConfig.weak(3, -0.5)
        with pytest.raises(DomainError):
            weak_dense_coding(theory)


def corrupted_state(matrix) -> BipartiteState:
    """A state whose matrix was overwritten after the constructor checked it."""
    matrix = np.array(matrix, dtype=float)
    phi = BipartiteState(np.eye(*matrix.shape))
    object.__setattr__(phi, "matrix", matrix)
    return phi


def eye_with(entry, value):
    matrix = np.eye(4)
    matrix[entry] = value
    return matrix


NON_FINITE_REPORTS = {
    "state_marginal": lambda v: lemma_state_check(corrupted_state([[1, v], [0, 0]])),
    "state_correlation": lambda v: lemma_state_check(corrupted_state([[1, 0], [0, v]])),
    "effect_marginal": lambda v: lemma_effect_check(BipartiteEffect([[0.5, v], [0, 0]])),
    "effect_gamma": lambda v: lemma_effect_check(BipartiteEffect([[v, 0], [0, 0]])),
    "membership_correlation": lambda v: verify_max_tensor_membership(
        corrupted_state(eye_with((1, 1), v)), 2, trials=20
    ),
    "membership_normalisation": lambda v: verify_max_tensor_membership(
        corrupted_state(eye_with((0, 0), v)), 2, trials=20
    ),
}


class TestLemmaChecks:
    def test_entangled_states_pass_with_tight_columns(self):
        for mu in range(8):
            phi = entangled_state(mu, 3)
            assert lemma_state_check(phi).passed
            assert np.allclose(np.linalg.norm(phi.correlations, axis=0), 1.0)

    def test_bell_effects_pass_tight(self):
        from gptlab import entangled_effect

        for mu in range(8):
            eff = entangled_effect(mu, 3)
            report = lemma_effect_check(eff)
            assert report.passed
            assert eff.gamma == 2.0**-3

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("case", sorted(NON_FINITE_REPORTS))
    def test_non_finite_entries_fail(self, case, value):
        with np.errstate(invalid="ignore"):
            assert not NON_FINITE_REPORTS[case](value).passed

    def test_oversized_correlation_column_fails(self):
        matrix = np.eye(4)
        matrix[1, 1] = 1.5
        report = lemma_state_check(BipartiteState(matrix))
        assert not report.passed
        assert any(v["check"] == "correlation_column_norm" for v in report.violations)

    def test_oversized_effect_block_fails(self):
        matrix = 0.25 * np.eye(4)
        matrix[0, 0] = 0.25
        matrix[1, 1] = 0.9
        report = lemma_effect_check(BipartiteEffect(matrix))
        assert not report.passed

    def test_unit_and_zero_effects_pass(self):
        assert lemma_effect_check(BipartiteEffect(np.zeros((4, 4)))).passed
        unit = np.zeros((4, 4))
        unit[0, 0] = 1.0
        assert lemma_effect_check(BipartiteEffect(unit)).passed

    def test_every_constructed_family_passes(self):
        theories = [
            TheoryConfig.base(2),
            TheoryConfig.base(3),
            TheoryConfig.lambda_tau(2, 0.9, 0.6),
            TheoryConfig.lambda_tau(3, 1.0, 0.2),
            TheoryConfig.lambda_tau(3, 1.0, -1.0 / 7.0),
            TheoryConfig.weak(2, 1.0 / 3.0),
            TheoryConfig.weak(3, 0.9),
            TheoryConfig.embedded(2, 2),
            TheoryConfig.embedded(3, 4),
        ]
        for theory in theories:
            states, effects = constructed_family(theory, seed=0)
            for phi in states:
                assert lemma_state_check(phi).passed
            for effect in effects:
                assert lemma_effect_check(effect).passed


def constructed_family_loop_oracle(theory, seed):
    """The family as one validated value object per state and effect."""
    rng = np.random.default_rng(seed)
    size = theory.hadamard_dim
    states = [theory_state(mu, theory) for mu in range(size)]
    effects = [theory_effect(mu, theory) for mu in range(size)]
    if theory.kind == "lambda-tau":
        states.append(lt_rotated_witness(theory.lam, theory.n_bits))
    for _ in range(FAMILY_RANDOM_PAIRS):
        sa = pure_state(theory, rng)
        sb = pure_state(theory, rng)
        states.append(product_state(sa, sb))
        effects.append(product_effect(Effect(0.5 * sa.entries), Effect(0.5 * sb.entries)))
    return states, effects


def lemma_state_oracle(matrix):
    """The state bounds checked on one matrix, one norm call per vector."""
    violations = []
    for name, vec in (("a_norm", matrix[1:, 0]), ("b_norm", matrix[0, 1:])):
        norm = float(np.linalg.norm(vec))
        if not norm <= 1.0 + EXACT_TOL:
            violations.append({"check": name, "value": norm, "bound": 1.0})
    col_norms = np.linalg.norm(matrix[1:, 1:], axis=0)
    for k in np.flatnonzero(~(col_norms <= 1.0 + EXACT_TOL)):
        violations.append(
            {
                "check": "correlation_column_norm",
                "column": int(k),
                "value": float(col_norms[k]),
                "bound": 1.0,
            }
        )
    return not violations, violations


def lemma_effect_oracle(matrix):
    """The effect bounds checked on one matrix, one norm call per vector."""
    violations = []
    gamma = float(matrix[0, 0])
    if not -EXACT_TOL <= gamma <= 1.0 + EXACT_TOL:
        violations.append({"check": "gamma_range", "value": gamma, "bound": (0.0, 1.0)})
    cap = min(gamma, 1.0 - gamma)
    for name, vec in (("alpha_norm", matrix[1:, 0]), ("beta_norm", matrix[0, 1:])):
        norm = float(np.linalg.norm(vec))
        if not norm <= cap + EXACT_TOL:
            violations.append({"check": name, "value": norm, "bound": cap})
    col_norms = np.linalg.norm(matrix[1:, 1:], axis=0)
    for k in np.flatnonzero(~(col_norms <= cap + EXACT_TOL)):
        violations.append(
            {
                "check": "core_column_norm",
                "column": int(k),
                "value": float(col_norms[k]),
                "bound": cap,
            }
        )
    return not violations, violations


def exact(value):
    """A violation value with floats spelled out bit for bit."""
    if isinstance(value, float):
        return ("float", value.hex())
    if isinstance(value, tuple):
        return tuple(exact(v) for v in value)
    return (type(value).__name__, value)


def assert_reports_match(reports, stack, oracle):
    assert len(reports) == len(stack)
    for report, matrix in zip(reports, stack):
        passed, violations = oracle(matrix)
        assert report.passed is passed
        assert len(report.violations) == len(violations)
        for got, want in zip(report.violations, violations):
            assert list(got) == list(want)
            assert [exact(v) for v in got.values()] == [exact(v) for v in want.values()]


SUITE_THEORIES = [
    TheoryConfig.base(2),
    TheoryConfig.base(3),
    TheoryConfig.lambda_tau(2, 0.8, 0.5),
    TheoryConfig.lambda_tau(3, 0.4, 0.5),
    TheoryConfig.weak(2, 1.0 / 3.0),
    TheoryConfig.weak(3, 0.4),
    TheoryConfig.embedded(2, 2),
    TheoryConfig.embedded(3, 4),
]


def family_grid():
    """The suite's theories, base at N = 1..5, lambda-tau at both ends of its
    window, weak at +-1/(2^N - 1) and embedded with m = 1..4."""
    theories = list(SUITE_THEORIES)
    theories += [TheoryConfig.base(n) for n in range(1, 6)]
    for n in (2, 3, 4):
        d = 2**n
        theories.append(TheoryConfig.lambda_tau(n, -1.0 / (d - 1), 1.0))
        theories.append(TheoryConfig.lambda_tau(n, 1.0, 1.0 / (d - 3)))
        theories += [TheoryConfig.weak(n, sign / (d - 1)) for sign in (1.0, -1.0)]
    theories += [TheoryConfig.embedded(n, m) for n in (2, 3) for m in range(1, 5)]
    return [
        pytest.param(t, id=f"{t.kind}-n{t.n_bits}-{t.lam}-{t.tau}-{t.m}") for t in theories
    ]


def mutated_families(states, effects):
    """``(name, states, effects)`` for each corruption of one family."""
    scaled_states, scaled_effects = states.copy(), effects.copy()
    scaled_states[:, 1:, 1:] *= 1.01
    scaled_effects[:, 1:, 1:] *= 1.01
    nan_states, nan_effects = states.copy(), effects.copy()
    nan_states[1, 0, 2] = np.nan
    nan_effects[-1, 2, 1] = np.nan
    gamma_high, gamma_low = effects.copy(), effects.copy()
    gamma_high[:, 0, 0] = 1.5
    gamma_low[:, 0, 0] = -0.1
    alpha = effects.copy()
    alpha[:, 1, 0] = 2.0 * np.abs(alpha[:, 0, 0]) + 0.01
    return [
        ("scaled_correlations", scaled_states, scaled_effects),
        ("one_nan", nan_states, nan_effects),
        ("non_square", states[:, :, :-1], effects[:, :-1, :]),
        ("gamma_1.5", states, gamma_high),
        ("gamma_-0.1", states, gamma_low),
        ("alpha_above_cap", states, alpha),
    ]


class TestStackedLemmaPath:
    @pytest.mark.parametrize("theory", family_grid())
    def test_stacks_and_reports_match_the_loop(self, theory):
        for seed in range(20):
            states, effects = family_matrices(theory, seed)
            loop_states, loop_effects = constructed_family_loop_oracle(theory, seed)
            assert np.array_equal(states, np.stack([phi.matrix for phi in loop_states]))
            assert np.array_equal(effects, np.stack([e.matrix for e in loop_effects]))
            assert_reports_match(lemma_state_checks(states), states, lemma_state_oracle)
            assert_reports_match(lemma_effect_checks(effects), effects, lemma_effect_oracle)

    @pytest.mark.parametrize("theory", SUITE_THEORIES, ids=str)
    def test_value_objects_wrap_the_stack_rows(self, theory):
        states, effects = family_matrices(theory, 3)
        wrapped_states, wrapped_effects = constructed_family(theory, seed=3)
        assert isinstance(wrapped_states, list) and isinstance(wrapped_effects, list)
        assert all(type(phi) is BipartiteState for phi in wrapped_states)
        assert all(type(e) is BipartiteEffect for e in wrapped_effects)
        assert np.array_equal(np.stack([phi.matrix for phi in wrapped_states]), states)
        assert np.array_equal(np.stack([e.matrix for e in wrapped_effects]), effects)

    @pytest.mark.parametrize("theory", SUITE_THEORIES, ids=str)
    def test_mutated_reports_match_the_loop(self, theory):
        states, effects = family_matrices(theory, 0)
        for name, bad_states, bad_effects in mutated_families(states, effects):
            with np.errstate(invalid="ignore"):
                state_reports = lemma_state_checks(bad_states)
                effect_reports = lemma_effect_checks(bad_effects)
                assert_reports_match(state_reports, bad_states, lemma_state_oracle)
                assert_reports_match(effect_reports, bad_effects, lemma_effect_oracle)
            # The unit columns of the entangled base and embedded states
            # cannot take the 1.01 scaling.
            tight = name == "scaled_correlations" and theory.kind in ("base", "embedded")
            if tight or name == "one_nan":
                assert not all(r.passed for r in state_reports), name
            if name not in ("scaled_correlations", "non_square"):
                assert not all(r.passed for r in effect_reports), name

    @pytest.mark.parametrize("theory", SUITE_THEORIES, ids=str)
    def test_one_row_checks_match_the_loop(self, theory):
        states, effects = family_matrices(theory, 1)
        for name, bad_states, bad_effects in mutated_families(states, effects):
            if name == "one_nan":
                continue  # a NaN state is refused by the constructor
            for matrix in bad_states:
                assert_reports_match(
                    [lemma_state_check(BipartiteState(matrix))], [matrix], lemma_state_oracle
                )
            for matrix in bad_effects:
                assert_reports_match(
                    [lemma_effect_check(BipartiteEffect(matrix))], [matrix], lemma_effect_oracle
                )

    @pytest.mark.parametrize("excess, passed", [(0.5e-12, True), (2e-12, False)])
    def test_bounds_allow_exactly_the_tolerance(self, excess, passed):
        states = np.stack([np.eye(3)] * 3)
        states[0, 1, 0] = states[1, 0, 2] = states[2, 2, 2] = 1.0 + excess
        assert [r.passed for r in lemma_state_checks(states)] == [passed] * 3
        effects = np.zeros((3, 3, 3))
        effects[:, 0, 0] = 0.25
        effects[0, 1, 0] = effects[1, 0, 2] = effects[2, 2, 2] = 0.25 + excess
        assert [r.passed for r in lemma_effect_checks(effects)] == [passed] * 3
        gammas = np.zeros((2, 2, 2))
        gammas[:, 0, 0] = (-excess, 1.0 + excess)
        assert [r.passed for r in lemma_effect_checks(gammas)] == [passed] * 2

    def test_passing_rows_share_one_empty_report(self):
        states, effects = family_matrices(TheoryConfig.base(2), 0)
        for reports in (lemma_state_checks(states), lemma_effect_checks(effects)):
            assert all(r is reports[0] for r in reports)
            assert reports[0].passed and reports[0].violations == ()
        states[1, 1:, 1:] *= 1.01  # one failing row takes the report path
        reports = lemma_state_checks(states)
        assert [r.passed for r in reports] == [i != 1 for i in range(len(states))]
        assert all(r is reports[0] for i, r in enumerate(reports) if i != 1)

    @pytest.mark.parametrize("shape", [(4, 4), (2, 3, 4, 4), (3, 0, 4), (3, 4, 0)])
    def test_stack_must_hold_non_empty_matrices(self, shape):
        with pytest.raises(GptError, match="stack"):
            lemma_state_checks(np.zeros(shape))
        with pytest.raises(GptError, match="stack"):
            lemma_effect_checks(np.zeros(shape))


def stacked_channel_oracle(theory, rotation_seed=0):
    """Dense-coding table built from full matrices: every encoded state is
    ``T_x phi_0`` by ``apply_left``, contracted with the stacked decoding
    effects by one einsum over both matrix indices."""
    n = theory.n_bits
    size = 2**n
    width = 1 + theory.local_dim

    def corner(label, scale):
        d = hadamard_vector(label, n).astype(float)
        d[1:] *= scale
        matrix = np.zeros((width, width))
        matrix[:size, :size] = np.diag(d)
        return matrix

    lam = theory.lam if theory.kind in ("lambda-tau", "weak") else 1.0
    tau = theory.tau if theory.kind == "lambda-tau" else 1.0
    phi0 = BipartiteState(corner(0, lam))
    rng = np.random.default_rng(rotation_seed)
    states = []
    for x in range(size):
        if theory.kind == "embedded":
            transform = embedded_transformation(x, theory, random_rotation(theory.m, rng))
        else:
            transform = local_transformation(x, n)
        states.append(transform.apply_left(phi0).matrix)
    effects = np.stack([2.0**-n * corner(y, tau) for y in range(size)])
    return np.einsum("ymn,xmn->xy", effects, np.stack(states))


def oracle_cases():
    cases = []
    for n in (2, 3, 4):
        d = 2**n
        cases.append(pytest.param(TheoryConfig.base(n), 0, id=f"base-n{n}"))
        for lam, tau in ((1.0, 1.0 / (d - 3)), (-1.0 / (d - 1), 1.0), (0.5, 0.1), (0.3, -0.2)):
            theory = TheoryConfig.lambda_tau(n, lam, tau)
            cases.append(pytest.param(theory, 0, id=f"lambda-tau-n{n}-{lam:.3g}-{tau:.3g}"))
        for lam in (1.0 / (d - 1), 3.0 / (d - 1), 0.5, -1.0 / (d - 1)):
            cases.append(pytest.param(TheoryConfig.weak(n, lam), 0, id=f"weak-n{n}-{lam:.3g}"))
        for m in (2, 3):
            for seed in (0, 7):
                theory = TheoryConfig.embedded(n, m)
                cases.append(pytest.param(theory, seed, id=f"embedded-n{n}-m{m}-seed{seed}"))
    return cases


TEN_BIT_THEORIES = [
    TheoryConfig.base(10),
    TheoryConfig.lambda_tau(10, 1.0, 1.0 / 1021),
    TheoryConfig.weak(10, 3.0 / 1023),
    TheoryConfig.embedded(10, 2),
]


class TestDiagonalLayer:
    @pytest.mark.parametrize("theory, seed", oracle_cases())
    def test_channel_matches_stacked_oracle(self, theory, seed):
        oracle = stacked_channel_oracle(theory, rotation_seed=seed)
        conditional = dense_coding(theory.n_bits, theory, seed=seed).channel.conditional
        if theory.kind in ("base", "embedded"):
            assert np.array_equal(conditional, oracle)
        else:
            assert np.abs(conditional - oracle).max() <= 1e-15

    @pytest.mark.parametrize(
        "theory, product",
        zip(TEN_BIT_THEORIES, (1.0, 1.0 / 1021, 3.0 / 1023, 1.0)),
        ids=["base", "lambda-tau", "weak", "embedded"],
    )
    def test_ten_bits_match_closed_form(self, theory, product):
        conditional = dense_coding(10, theory, seed=3).channel.conditional
        closed = np.full((1024, 1024), 2.0**-10 * (1.0 - product))
        closed[np.diag_indices(1024)] += product
        if product == 1.0:
            assert np.array_equal(conditional, np.eye(1024))
        assert np.abs(conditional - closed).max() <= EXACT_TOL

    @pytest.mark.parametrize(
        "theory, seed",
        [
            *oracle_cases(),
            *(pytest.param(t, 0, id=f"{t.kind}-n10") for t in TEN_BIT_THEORIES),
        ],
    )
    def test_rate_is_the_mutual_information_of_the_table(self, theory, seed):
        run = dense_coding(theory.n_bits, theory, seed=seed)
        assert abs(run.info_bits - mutual_information(run.channel)) <= EXACT_TOL

    @pytest.mark.parametrize("n_bits", range(2, 13))
    def test_optimal_lambda_tau_rate_matches_the_closed_form(self, n_bits):
        theory = TheoryConfig.lambda_tau(n_bits, 1.0, 1.0 / (2**n_bits - 3))
        reference = lt_optimal_info(n_bits)
        assert abs(dense_coding(n_bits, theory).info_bits - reference) <= 4e-15 * reference

    @pytest.mark.parametrize(
        "rate, reference",
        [
            pytest.param(
                lambda: dense_coding(12, TheoryConfig.lambda_tau(12, 1.0, 1 / 4093)).info_bits,
                0.00013622315042884791988,
                id="lambda-tau-n12",
            ),
            pytest.param(
                lambda: dense_coding(2, TheoryConfig.weak(2, 1 / 3)).info_bits,
                0.20751874963942190927,
                id="weak-n2",
            ),
            pytest.param(
                lambda: dense_coding_info(20, 1 / (2**20 - 3)),
                5.3148990097097490471e-7,
                id="closed-form-n20",
            ),
        ],
    )
    def test_rate_matches_a_50_digit_reference(self, rate, reference):
        # The references are N - H(q) evaluated by mpmath at 50 digits.
        assert abs(rate() - reference) <= 4e-15 * reference

    def test_closed_form_rate_at_twenty_bits(self):
        reference = lt_optimal_info(20)
        assert abs(dense_coding_info(20, 1 / (2**20 - 3)) - reference) <= 4e-15 * reference

    @pytest.mark.parametrize(
        "n_bits, product, reference",
        [
            (2, 1e-9, 2.1640425598907504e-18),
            (3, 1e-17, 5.049432643111373e-34),
            (12, -1e-9, 2.9539221273419688e-15),
        ],
    )
    def test_small_products_keep_their_relative_precision(self, n_bits, product, reference):
        # N - H(q) by mpmath at 80 digits: the rate is second order in p, while
        # its two entropy terms are first order and cancel.
        assert abs(dense_coding_info(n_bits, product) - reference) <= 1e-14 * reference

    @settings(max_examples=300, deadline=None)
    @given(case=admissible_products())
    @example(case=(3, 1e-17))
    def test_rate_is_non_negative_for_every_admissible_product(self, case):
        rate = dense_coding_info(*case)
        assert math.isfinite(rate) and rate >= 0.0

    @pytest.mark.parametrize(
        "product",
        [2.0, -1.0, math.nan, math.inf, 1 + 2 * EXACT_TOL, -1 / 7 - 2 * EXACT_TOL, True, np.False_],
    )
    def test_rate_refuses_a_product_no_table_has(self, product):
        # 2.0 gave 7.33 bits, more than N = 3, and -1.0 gave 1.75; NaN and inf
        # gave NaN, and True, a Real, gave 3.0.
        with pytest.raises(DomainError, match="scale product must be a finite real number in "):
            dense_coding_info(3, product)

    def test_rate_refuses_more_bits_than_a_float_exponent_holds(self):
        # 2.0**1024 overflowed to a raw OverflowError.
        with pytest.raises(GptError, match="n_bits must be at most 1023, got 1024"):
            dense_coding_info(1024, 0.5)
        assert dense_coding_info(1023, 1.0) == 1023
        assert math.isfinite(dense_coding_info(1023, 0.5))

    @pytest.mark.parametrize("n_bits", [1, 3, 12])
    def test_rate_takes_both_ends_of_the_window(self, n_bits):
        size = 2**n_bits
        assert dense_coding_info(n_bits, 1.0) == n_bits
        assert dense_coding_info(n_bits, 1.0 + EXACT_TOL) >= n_bits
        # At p = -1/(2^N - 1) the row is 0 on one symbol and 1/(2^N - 1) on the rest.
        low = dense_coding_info(n_bits, -1.0 / (size - 1))
        assert abs(low - (n_bits - math.log2(size - 1))) <= 1e-12
        assert dense_coding_info(n_bits, -1.0 / (size - 1) - EXACT_TOL) >= 0.0

    def test_channel_and_rate_share_one_window(self):
        theory = TheoryConfig.weak(3, -1 / 7 - 2 * EXACT_TOL)
        with pytest.raises(DomainError, match=r"^scale product must be a finite real number in \[-0.142857, 1\], "):
            variants.dense_coding_channel(theory)
        with pytest.raises(DomainError, match=r"^scale product must be a finite real number in \[-0.142857, 1\], "):
            dense_coding_info(3, theory.lam)

    def test_embedded_channel_draws_no_rotation(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew a sphere rotation")

        monkeypatch.setattr(variants, "random_rotation", no_draw)
        run = dense_coding(3, TheoryConfig.embedded(3, 4), seed=5)
        assert np.array_equal(run.channel.conditional, np.eye(8))

    def test_dense_matrix_is_assembled_from_the_blocks(self):
        theory = TheoryConfig.embedded(3, 2)
        rotation = random_rotation(2, np.random.default_rng(0))
        matrix = embedded_transformation(5, theory, rotation).matrix
        assert np.array_equal(matrix[:8, :8], np.diag(hadamard_vector(5, 3)))
        assert np.array_equal(matrix[8:, 8:], rotation)
        assert not (matrix[8:, :8].any() or matrix[:8, 8:].any())

    @pytest.mark.parametrize("theory", TEN_BIT_THEORIES, ids=lambda theory: theory.kind)
    def test_channel_build_holds_few_tables(self, theory):
        # A table is one 2^N x 2^N float array. The float signs are the only
        # table while the row and column sums are taken, and they are freed
        # before the table is filled with q[1] and given q[0] on its
        # diagonal; the channel adopts that read-only table without a copy.
        table = 8 * 4**10
        tracemalloc.start()
        try:
            variants.dense_coding_channel(theory)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * table

    @pytest.mark.parametrize("theory", TEN_BIT_THEORIES, ids=lambda theory: theory.kind)
    def test_dense_coding_run_holds_few_tables(self, theory):
        # The run keeps no shared-state matrix and reads its rate off the
        # closed form, so it peaks where the channel build does: at one
        # table plus the narrow bit counts of the signs.
        table = 8 * 4**10
        tracemalloc.start()
        try:
            dense_coding(10, theory)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * table

    @pytest.mark.parametrize("n_bits", range(1, MAX_N_BITS + 1))
    def test_table_is_the_xor_gather_of_its_first_row(self, n_bits):
        # The table filled from the checked row's two values is q[x ^ y] bit
        # for bit, for every kind; 256 rows at a time, to hold one table.
        labels = np.arange(2**n_bits)
        theories = [TheoryConfig.base(n_bits)]
        if n_bits >= 2:
            theories += [
                TheoryConfig.lambda_tau(n_bits, 1.0, 1.0 / (2**n_bits - 1)),
                TheoryConfig.weak(n_bits, -0.5 / (2**n_bits - 1)),
                TheoryConfig.embedded(n_bits, 2),
            ]
        for theory in theories:
            table = variants.dense_coding_channel(theory).conditional
            for start in range(0, labels.size, 256):
                rows = labels[start : start + 256, None]
                assert np.array_equal(table[start : start + 256], table[0][rows ^ labels]), theory.kind
            del table

    def test_embedded_channel_builds_no_transformation(self, monkeypatch):
        from gptlab.core import Transformation

        built = []
        honest = Transformation.__post_init__

        def counting(self):
            built.append(self.matrix.shape)
            honest(self)

        monkeypatch.setattr(Transformation, "__post_init__", counting)
        dense_coding(6, TheoryConfig.embedded(6, 3), seed=1)
        assert built == []
        embedded_transformation(0, TheoryConfig.embedded(2, 3), np.eye(3))
        assert built == [(7, 7)]


def _flip_entry(signs):
    signs[3, 6] = -signs[3, 6]


def _nan_entry(signs):
    signs[4, 2] = np.nan


def _flip_unit_sign(signs):
    signs[1, 0] = -1.0


def _overwrite_row(signs):
    signs[2] = signs[5]


def _flip_balanced_pair(signs):
    # Entries +1 and -1 of one row: its sum stays 0.
    signs[3, [4, 5]] = -signs[3, [4, 5]]


def _flip_balanced_pair_outside_u(signs):
    # u = 2^-N S a vanishes off labels 0, 1, 2 and 4: only the probe a sees it.
    signs[3, [3, 5]] = -signs[3, [3, 5]]


def _overwrite_row_with_equal_arange_image(signs):
    # d_3 . a = d_5 . a = 0 for a = (0, 1, ..., 7): only the probe u sees it.
    signs[3] = signs[5]


SIGN_MUTANTS = {
    "flipped-entry": _flip_entry,
    "nan-entry": _nan_entry,
    "flipped-unit-sign": _flip_unit_sign,
    "row-overwritten": _overwrite_row,
    "balanced-flips": _flip_balanced_pair,
    "balanced-flips-outside-u": _flip_balanced_pair_outside_u,
    "row-overwritten-outside-arange": _overwrite_row_with_equal_arange_image,
}

THREE_BIT_THEORIES = [
    TheoryConfig.base(3),
    TheoryConfig.lambda_tau(3, 1.0, 1 / 5),
    TheoryConfig.weak(3, 3 / 7),
    TheoryConfig.embedded(3, 3),
]


class TestSignMutants:
    """Broken sign rows must fail the dense-coding check of every kind.

    The check reads ``S e_0``, ``S 1`` and the norms of ``S a`` and ``S u``
    through ``sign_transform``, and each mutant below moves one of them; a
    row written over another moves only a norm.  A permutation of the rows
    that keeps row 0 is invisible to every check: S -> PS maps the table
    ``p I + 2^-N (1 - p) J`` to itself.
    """

    @staticmethod
    def _patch(monkeypatch, mutate):
        mutated_signs = hadamard_basis(3)
        mutate(mutated_signs)
        monkeypatch.setattr(variants, "sign_transform", lambda w: mutated_signs @ w)

    @pytest.mark.parametrize("mutate", SIGN_MUTANTS.values(), ids=SIGN_MUTANTS)
    @pytest.mark.parametrize("theory", THREE_BIT_THEORIES, ids=lambda theory: theory.kind)
    def test_mutant_signs_falsify_dense_coding(self, monkeypatch, theory, mutate):
        self._patch(monkeypatch, mutate)
        with pytest.raises(ProtocolFalsified, match="closed form"):
            dense_coding(3, theory)

    @pytest.mark.parametrize("theory", THREE_BIT_THEORIES, ids=lambda theory: theory.kind)
    def test_swapped_rows_leave_the_table_unchanged(self, monkeypatch, theory):
        honest = dense_coding(3, theory)

        def swap(signs):
            signs[[2, 5]] = signs[[5, 2]]

        self._patch(monkeypatch, swap)
        run = dense_coding(3, theory)
        assert np.array_equal(run.channel.conditional, honest.channel.conditional)
        assert run.info_bits == honest.info_bits


def theories_of_every_kind(n_bits):
    size = 2**n_bits
    yield TheoryConfig.base(n_bits)
    if n_bits == 1:
        return  # the other kinds need N >= 2
    yield TheoryConfig.embedded(n_bits, 2)
    lt_pairs = [(1.0, 1 / (size + 1)), (-1.0, 1 / (size - 1)), (1e-9, 1e-9), (0.7, 1 / (size - 3))]
    for lam, tau in lt_pairs:
        yield TheoryConfig.lambda_tau(n_bits, lam, tau)
    for lam in (3 / 7, -0.5 / (size - 1), 1e-17, -1.0 / (size - 1)):
        yield TheoryConfig.weak(n_bits, lam)


class TestDenseCodingRow:
    """The row read through ``sign_transform`` against the basis product."""

    @staticmethod
    def basis_rows(signs, product):
        # The table's first row and column sums as the check formed them
        # from the whole basis: ``p S w + (1 - p) S[:, 0] w[0]``, with
        # w = 2^-N (S[0], S^t 1).
        n_bits = len(signs).bit_length() - 1
        counts = 2.0**-n_bits * np.stack((signs[0], signs.sum(axis=0)), axis=1)
        return product * (signs @ counts) + (1.0 - product) * np.outer(signs[:, 0], counts[0])

    def basis_row(self, signs, product):
        return self.basis_rows(signs, product)[:2, 0].clip(0.0, 1.0).tolist()

    def basis_check_passes(self, signs, product):
        size = len(signs)
        expected = np.ones((size, 2))
        expected[:, 0] = (1.0 - product) / size
        expected[0, 0] += product
        return np.abs(self.basis_rows(signs, product) - expected).max() <= EXACT_TOL

    def test_kills_every_one_step_mutant_the_basis_check_killed(self, monkeypatch):
        # Every flipped entry, overwritten row and balanced pair of flips in
        # one row at N = 3, and every row permutation that keeps row 0.
        theory, product = TheoryConfig.lambda_tau(3, 1.0, 0.2), 0.2
        honest, q = hadamard_basis(3), variants.dense_coding_channel(theory).q
        mutants = []
        for i, j in itertools.product(range(8), repeat=2):
            mutants.append(honest.copy())
            mutants[-1][i, j] *= -1.0
            if i != j:
                mutants.append(honest.copy())
                mutants[-1][i] = honest[j]
            for k in range(j + 1, 8):
                if honest[i, j] != honest[i, k]:
                    mutants.append(honest.copy())
                    mutants[-1][i, [j, k]] *= -1.0
        assert len(mutants) == 64 + 56 + 7 * 16
        for signs in mutants:
            assert not self.basis_check_passes(signs, product)
            monkeypatch.setattr(variants, "sign_transform", lambda w, signs=signs: signs @ w)
            with pytest.raises(ProtocolFalsified, match="closed form"):
                variants.dense_coding_channel(theory)
        for order in itertools.permutations(range(1, 8)):
            signs = honest[[0, *order]]
            assert self.basis_check_passes(signs, product)
            monkeypatch.setattr(variants, "sign_transform", lambda w, signs=signs: signs @ w)
            assert variants.dense_coding_channel(theory).q == q

    @pytest.mark.parametrize("n_bits", range(1, MAX_N_BITS + 1))
    def test_row_and_rate_are_those_of_the_basis_product(self, n_bits):
        signs = hadamard_basis(n_bits)
        for theory in theories_of_every_kind(n_bits):
            product = math.prod(variants.correlation_scales(theory))
            run = dense_coding(n_bits, theory)
            assert run.channel.q == tuple(self.basis_row(signs, product)), theory
            assert run.info_bits.hex() == dense_coding_info(n_bits, product).hex()

    @pytest.mark.parametrize("n_bits", [1, 3, MAX_N_BITS])
    def test_runs_without_the_basis(self, monkeypatch, n_bits):
        def refuse(n_bits):
            raise AssertionError("the dense-coding path built the basis")

        monkeypatch.setattr(variants, "hadamard_basis", refuse)
        for theory in theories_of_every_kind(n_bits):
            assert dense_coding(n_bits, theory).info_bits >= 0.0

    @pytest.mark.parametrize("kind", THEORY_KINDS)
    def test_traced_peak_at_the_limit_is_far_below_one_table(self, kind):
        theory = next(t for t in theories_of_every_kind(MAX_N_BITS) if t.kind == kind)
        tracemalloc.start()
        try:
            dense_coding(MAX_N_BITS, theory)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
