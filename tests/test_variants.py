"""Tests for the deformed theories and the matrix-norm validators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gptlab import (
    EXACT_TOL,
    OPT_TOL,
    BipartiteEffect,
    BipartiteState,
    DomainError,
    GptError,
    TheoryConfig,
    bipartite_contract,
    dense_coding,
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
from gptlab.core import Effect
from gptlab.hadamard import hadamard_vector, local_transformation
from gptlab.hst import random_pure_state
from gptlab.variants import (
    TlWitnessReport,
    constructed_family,
    embedded_dense_coding,
    embedded_extremal_effect,
    embedded_transformation,
    random_rotation,
)

ROUNDED_REFERENCE_RATES = {2: 2.0, 3: 0.15, 4: 0.05, 5: 0.02}


def tl_witness_loop_oracle(theory, trials, seed):
    """The per-trial TL witness loop, one validated effect per local draw."""
    rng = np.random.default_rng(seed)
    states = [variants.theory_state(mu, theory) for mu in range(2**theory.n_bits)]
    distances = tuple(float(np.abs(states[0].matrix - s.matrix).sum()) for s in states)
    violations = []
    max_spread = 0.0
    unit = Effect(np.concatenate(([1.0], np.zeros(theory.local_dim))))
    for _ in range(trials):
        effects = []
        for _side in range(2):
            w = rng.standard_normal(theory.m)
            extremal = embedded_extremal_effect(w / np.linalg.norm(w), theory)
            mix = rng.dirichlet(np.ones(3))
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

    def test_decreasing_in_n(self):
        values = [lt_optimal_info(n) for n in range(2, 8)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_single_bit_rejected(self):
        with pytest.raises(DomainError):
            lt_optimal_info(1)

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
        sa = theory.random_pure_state(rng)
        sb = theory.random_pure_state(rng)
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

    def test_transformations_preserve_local_states(self):
        theory = TheoryConfig.embedded(2, 3)
        rng = np.random.default_rng(3)
        for _ in range(1000):
            rotation = random_rotation(theory.m, rng)
            label = int(rng.integers(4))
            transform = embedded_transformation(label, theory, rotation)
            state = theory.random_pure_state(rng)
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
        [
            (TheoryConfig.base(10), 1.0),
            (TheoryConfig.lambda_tau(10, 1.0, 1.0 / 1021), 1.0 / 1021),
            (TheoryConfig.weak(10, 3.0 / 1023), 3.0 / 1023),
            (TheoryConfig.embedded(10, 2), 1.0),
        ],
        ids=["base", "lambda-tau", "weak", "embedded"],
    )
    def test_ten_bits_match_closed_form(self, theory, product):
        conditional = dense_coding(10, theory, seed=3).channel.conditional
        closed = np.full((1024, 1024), 2.0**-10 * (1.0 - product))
        closed[np.diag_indices(1024)] += product
        if product == 1.0:
            assert np.array_equal(conditional, np.eye(1024))
        assert np.abs(conditional - closed).max() <= EXACT_TOL

    def test_embedded_state_leaving_the_corner_is_falsified(self, monkeypatch):
        from gptlab import ProtocolFalsified, variants

        theory = TheoryConfig.embedded(2, 2)
        honest = variants.embedded_blocks

        def leaky(label, theory, rotation):
            corner, sphere, down, up = honest(label, theory, rotation)
            down[-1, 1] = 0.5  # couples the sphere block to the corner
            return corner, sphere, down, up

        monkeypatch.setattr(variants, "embedded_blocks", leaky)
        with pytest.raises(ProtocolFalsified, match="off the Hadamard corner"):
            embedded_dense_coding(theory, rotation_seed=0)

    @pytest.mark.parametrize("value", [0.5, float("nan")])
    def test_corner_coupled_to_the_sphere_is_falsified(self, monkeypatch, value):
        # Such a leak leaves T_x phi_0 unchanged, so only the block form reveals it.
        from gptlab import ProtocolFalsified

        theory = TheoryConfig.embedded(2, 2)
        honest = variants.embedded_blocks

        def leaky(label, theory, rotation):
            corner, sphere, down, up = honest(label, theory, rotation)
            up[1, -1] = value
            return corner, sphere, down, up

        monkeypatch.setattr(variants, "embedded_blocks", leaky)
        with pytest.raises(ProtocolFalsified, match="message 0 .* off the Hadamard corner"):
            embedded_dense_coding(theory, rotation_seed=0)

    def test_dense_matrix_is_assembled_from_the_blocks(self):
        theory = TheoryConfig.embedded(3, 2)
        rotation = random_rotation(2, np.random.default_rng(0))
        corner, sphere, down, up = variants.embedded_blocks(5, theory, rotation)
        matrix = embedded_transformation(5, theory, rotation).matrix
        assert np.array_equal(np.diagonal(matrix)[:8], corner)
        assert np.array_equal(matrix[8:, 8:], sphere)
        assert np.array_equal(matrix[8:, :8], down) and np.array_equal(matrix[:8, 8:], up)
        assert not (down.any() or up.any())

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
