"""Tests for the sign-vector group, the entangled sector and tomography."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from gptlab import (
    EXACT_TOL,
    BipartiteEffect,
    BipartiteState,
    DomainError,
    Effect,
    GptError,
    TheoryConfig,
    bell_measurement,
    bipartite_contract,
    bipartite_unit,
    entangled_effect,
    entangled_state,
    entanglement_swap,
    hadamard_basis,
    hadamard_vector,
    local_tomography,
    local_transformation,
    mix_bipartite,
    no_signalling_spread,
    product_decoding_baseline,
    product_effect,
    product_state,
    reduced_states,
    separable_baseline,
    teleport,
    verify_max_tensor_membership,
)
from gptlab import hadamard
from gptlab.core import MAX_N_BITS, effect_probability_range
from gptlab.hadamard import local_tomography_from_oracle, match_entangled_label, sign_transform
from gptlab.hst import (
    make_extremal_effect,
    make_state,
    random_direction,
    random_pure_state,
    random_state,
)
from gptlab.variants import constructed_family, family_matrices


def sign_vector_oracle(label: int, n_bits: int) -> list:
    """Direct bit-loop evaluation of (-1)^(sum_l mu_l nu_l)."""
    out = []
    for nu in range(2**n_bits):
        parity = 0
        for l in range(n_bits):
            parity ^= ((label >> l) & 1) & ((nu >> l) & 1)
        out.append(-1 if parity else 1)
    return out


class TestSignVectors:
    def test_one_bit_vectors(self):
        assert hadamard_vector(0, 1).tolist() == [1, 1]
        assert hadamard_vector(1, 1).tolist() == [1, -1]

    def test_two_bit_example(self):
        assert hadamard_vector(1, 2).tolist() == [1, -1, 1, -1]

    def test_zero_label_is_all_ones(self):
        for n_bits in (1, 3, 6):
            assert np.array_equal(
                hadamard_vector(0, n_bits), np.ones(2**n_bits, dtype=np.int64)
            )

    def test_against_bit_loop_oracle(self):
        for n_bits in (1, 2, 3):
            for mu in range(2**n_bits):
                assert hadamard_vector(mu, n_bits).tolist() == sign_vector_oracle(
                    mu, n_bits
                )

    def test_against_sylvester_matrix(self):
        for n_bits in (1, 2, 3, 4, 5):
            expected = scipy.linalg.hadamard(2**n_bits)
            assert np.array_equal(hadamard_basis(n_bits), expected)

    def test_balanced_signs_off_zero(self):
        for n_bits in (2, 4, 6):
            for mu in range(1, 2**n_bits):
                vec = hadamard_vector(mu, n_bits)
                assert np.sum(vec == -1) == 2 ** (n_bits - 1)

    # The labels are uint8 up to N = 8 and uint16 from N = 9.
    @pytest.mark.parametrize("n_bits", range(1, 10))
    def test_rows_are_float_signs_of_the_label_parity(self, n_bits):
        labels = range(2**n_bits)
        expected = np.array([[(-1.0) ** (mu & nu).bit_count() for nu in labels] for mu in labels])
        basis = hadamard_basis(n_bits)
        assert basis.dtype == np.float64 and np.array_equal(basis, expected)
        vectors = [hadamard_vector(mu, n_bits) for mu in labels]
        assert all(vector.dtype == np.float64 for vector in vectors)
        assert np.array_equal(np.stack(vectors), expected)

    def test_basis_holds_no_integer_table_beside_its_floats(self):
        # A table is one 2^N x 2^N float array. The AND table of the narrow
        # (here uint16) labels is freed before the float rows are made from
        # the uint8 parities, in place.
        table = 8 * 4**10
        tracemalloc.start()
        try:
            hadamard_basis(10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * table

    @pytest.mark.parametrize(
        "build",
        [
            hadamard_basis,
            lambda n: hadamard_vector(0, n),
            lambda n: entangled_state(0, n),
            lambda n: entangled_effect(0, n),
            bell_measurement,
            lambda n: local_transformation(0, n),
            lambda n: teleport(make_state(np.zeros(2**n - 1)), n),
            lambda n: entanglement_swap(n, 0),
            lambda n: no_signalling_spread(n, 1, 0),
            lambda n: sign_transform(np.ones(2**n)),
        ],
        ids=[
            "basis", "vector", "state", "effect", "bell", "transformation",
            "teleport", "swap", "no-signalling", "sign-transform",
        ],
    )
    def test_refuses_more_bits_than_the_limit(self, build):
        # Each would otherwise build 2^13 x 2^13 arrays or larger.
        with pytest.raises(GptError, match=f"n_bits must be at most {MAX_N_BITS}, got 13"):
            build(MAX_N_BITS + 1)

    @pytest.mark.parametrize(
        "build, name, n_bits",
        [
            (lambda n: separable_baseline(2**n - 1, 1, 0), "separable_baseline", 9),
            (lambda n: separable_baseline(2**n - 1, 1, 0), "separable_baseline", MAX_N_BITS),
            (lambda n: product_decoding_baseline(n, 1, 0), "product_decoding_baseline", 11),
            (lambda n: product_decoding_baseline(n, 1, 0), "product_decoding_baseline", 13),
        ],
        ids=["separable-9", "separable-12", "product-decoding-11", "product-decoding-13"],
    )
    def test_baselines_refuse_more_bits_than_their_limit(self, build, name, n_bits):
        # The separable baseline holds its 8^N Bell stack twice, and the
        # product-decoding tables 34 4^N floats: past the budget at N = 9 and
        # 11.  N = 13 is past MAX_N_BITS.  Refused before anything is built.
        if n_bits > MAX_N_BITS:
            message = f"n_bits must be at most {MAX_N_BITS}, got {n_bits}$"
        else:
            message = f"^{name} would hold [0-9]+ floats, past BUDGET_FLOATS = 134217728$"
        tracemalloc.start()
        try:
            with pytest.raises(GptError, match=message):
                build(n_bits)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize(
        "build, name",
        [
            (bell_measurement, "bell_measurement"),
            (lambda n: family_matrices(TheoryConfig.base(n)), "family_matrices"),
            (lambda n: constructed_family(TheoryConfig.embedded(n, 2)), "constructed_family"),
        ],
        ids=["bell", "family-matrices", "constructed-family"],
    )
    @pytest.mark.parametrize("n_bits", [9, MAX_N_BITS])
    def test_cubic_builders_refuse_more_bits_than_the_budget(self, build, name, n_bits):
        # Each holds about 8^N floats: 1 GiB at N = 9 and 512 GiB at N = 12.
        # Refused before anything is built.
        tracemalloc.start()
        try:
            with pytest.raises(
                GptError, match=f"^{name} would hold [0-9]+ floats, past BUDGET_FLOATS"
            ):
                build(n_bits)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_bell_measurement_accepts_the_largest_n_within_the_budget(self):
        # 8^8 floats, 128 MiB, well within the budget.
        assert len(bell_measurement(8).effects) == 2**8

    def test_accepts_the_limit(self):
        assert hadamard_vector(2**MAX_N_BITS - 1, MAX_N_BITS).size == 2**MAX_N_BITS

    def test_label_out_of_range(self):
        with pytest.raises(GptError):
            hadamard_vector(4, 2)

    @pytest.mark.parametrize("n_bits", [2.0, True, np.float64(2.0), 0])
    @pytest.mark.parametrize(
        "build",
        [hadamard_basis, lambda n: hadamard_vector(1, n), lambda n: entanglement_swap(n)],
        ids=["basis", "vector", "swap"],
    )
    def test_refuses_a_bit_count_that_is_not_a_positive_integer(self, build, n_bits):
        with pytest.raises(GptError, match="n_bits must be an integer >= 1"):
            build(n_bits)

    def test_accepts_numpy_bit_counts(self):
        assert np.array_equal(hadamard_basis(np.int64(2)), hadamard_basis(2))
        assert np.array_equal(hadamard_vector(1, np.uint8(2)), hadamard_vector(1, 2))

    @pytest.mark.parametrize("label", [1.5, 2.0, np.float64(1.0), True, np.True_, "1"])
    @pytest.mark.parametrize(
        "build",
        [
            hadamard_vector,
            entangled_state,
            entangled_effect,
            local_transformation,
            lambda label, n: entanglement_swap(n, label=label),
        ],
        ids=["vector", "state", "effect", "transformation", "swap"],
    )
    def test_refuses_a_label_that_is_not_an_integer(self, build, label):
        # A float or bool label would pick a sign vector by its value (1.5 gives
        # d_1, True gives T_1), and a bool indexes a new axis in numpy.
        with pytest.raises(GptError, match="out of range for 2 bits"):
            build(label, 2)

    @pytest.mark.parametrize("label", [np.int64(3), np.uint8(3), np.int8(3)])
    def test_accepts_numpy_integer_labels(self, label):
        assert np.array_equal(hadamard_vector(label, 2), hadamard_vector(3, 2))
        assert local_transformation(label, 2).matrix.tolist() == np.diag([1, -1, -1, 1]).tolist()
        assert entanglement_swap(2, label=label).passed


class TestSignTransform:
    @pytest.mark.parametrize("n_bits", range(1, 11))
    def test_is_the_basis_product_for_integer_columns(self, n_bits):
        rng = np.random.default_rng(n_bits)
        basis = hadamard_basis(n_bits)
        for shape in [(2**n_bits,), (2**n_bits, 1), (2**n_bits, 4), (2**n_bits, 2, 3)]:
            w = rng.integers(-(2**30), 2**30, shape).astype(float)
            expected = np.tensordot(basis, w, axes=1)
            assert np.array_equal(sign_transform(w), expected)
        assert np.array_equal(sign_transform(np.arange(2**n_bits)), basis @ np.arange(2**n_bits))

    def test_accepts_the_limit(self):
        image = sign_transform(np.ones((2**MAX_N_BITS, 1)))
        assert np.array_equal(image[:2, 0], [2**MAX_N_BITS, 0])

    @pytest.mark.parametrize("n_bits", [3, 8])
    def test_keeps_an_empty_trailing_axis(self, n_bits):
        assert sign_transform(np.ones((2**n_bits, 0))).shape == (2**n_bits, 0)

    @pytest.mark.parametrize(
        "w, match",
        [
            (np.ones((3, 2)), r"^sign_transform needs 2\^N rows, N >= 1, got the shape \(3, 2\)$"),
            (np.ones((1, 2)), r"got the shape \(1, 2\)$"),
            (np.ones((0, 2)), r"got the shape \(0, 2\)$"),
            (np.float64(1.0), r"got the shape \(\)$"),
            (np.ones(2**MAX_N_BITS + 2**10), "got the shape"),
            (np.ones((4, 1), dtype=complex), "^sign_transform input must be real numbers"),
            (np.ones((4, 1), dtype=bool), "^sign_transform input must be real numbers"),
            ([["1"], ["2"]], "^sign_transform input must be real numbers"),
        ],
        ids=["rows-3", "rows-1", "rows-0", "scalar", "rows-5120", "complex", "bool", "strings"],
    )
    def test_refuses_what_is_no_real_column_stack_of_2_to_the_n_rows(self, w, match):
        with pytest.raises(GptError, match=match):
            sign_transform(w)

    @pytest.mark.parametrize(
        "w",
        [
            np.broadcast_to(np.int64(1), (2 ** (MAX_N_BITS + 1), 64)),
            np.broadcast_to(np.int64(1), (3 * 2**MAX_N_BITS, 64)),
            np.broadcast_to(np.complex128(1), (2**MAX_N_BITS, 64)),
        ],
        ids=["13-bits", "not-a-power", "complex"],
    )
    def test_refuses_before_allocating(self, w):
        # Each would take 4 MiB or more as a float copy, and 2^13 rows are
        # refused whatever their width.
        tracemalloc.start()
        try:
            with pytest.raises(GptError):
                sign_transform(w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**16


class TestGroupLaws:
    def test_elementwise_product_is_xor_exhaustive(self):
        n_bits = 3
        for mu in range(8):
            for nu in range(8):
                lhs = hadamard_vector(mu, n_bits) * hadamard_vector(nu, n_bits)
                assert np.array_equal(lhs, hadamard_vector(mu ^ nu, n_bits))

    def test_self_product_is_identity_element(self):
        vec = hadamard_vector(5, 3)
        assert np.array_equal(vec * vec, hadamard_vector(0, 3))

    def test_orthogonality_and_column_sums_exact(self):
        for n_bits in range(1, 7):
            basis = hadamard_basis(n_bits)
            size = 2**n_bits
            assert np.array_equal(basis @ basis.T, size * np.eye(size, dtype=np.int64))
            sums = basis.sum(axis=0)
            expected = np.zeros(size, dtype=np.int64)
            expected[0] = size
            assert np.array_equal(sums, expected)

    def test_large_n_randomized_spot_checks(self):
        # beyond the exhaustive cap, spot-check the same laws
        rng = np.random.default_rng(10)
        for n_bits in (8, 10):
            size = 2**n_bits
            for _ in range(20):
                mu, nu = (int(v) for v in rng.integers(size, size=2))
                d_mu = hadamard_vector(mu, n_bits)
                d_nu = hadamard_vector(nu, n_bits)
                assert int(d_mu @ d_nu) == (size if mu == nu else 0)
                assert np.array_equal(d_mu * d_nu, hadamard_vector(mu ^ nu, n_bits))

    def test_matrix_products_match_labels(self):
        for n_bits in (1, 2, 3, 4):
            size = 2**n_bits
            for mu in range(size):
                for nu in range(size):
                    product = (
                        local_transformation(mu, n_bits).matrix
                        @ local_transformation(nu, n_bits).matrix
                    )
                    assert np.array_equal(
                        product, local_transformation(mu ^ nu, n_bits).matrix
                    )


class TestTransformations:
    def test_zero_label_is_identity(self):
        for n_bits in (1, 2, 4):
            assert np.array_equal(
                local_transformation(0, n_bits).matrix, np.eye(2**n_bits)
            )

    def test_rotation_block_determinant_is_one(self):
        for n_bits in (2, 3, 4, 5, 6):
            for mu in range(2**n_bits):
                det = np.linalg.det(local_transformation(mu, n_bits).hat)
                assert round(float(det)) == 1

    def test_preserves_state_norm(self):
        rng = np.random.default_rng(2)
        for n_bits in (2, 3):
            dim = 2**n_bits - 1
            for _ in range(500):
                state = random_state(dim, rng)
                for mu in range(2**n_bits):
                    moved = local_transformation(mu, n_bits).apply(state)
                    assert moved.entries[0] == 1.0
                    assert (
                        abs(np.linalg.norm(moved.r) - np.linalg.norm(state.r))
                        < EXACT_TOL
                    )

    def test_one_sided_action_keeps_product_states_valid(self):
        rng = np.random.default_rng(12)
        for n_bits in (2, 3):
            dim = 2**n_bits - 1
            for _ in range(500):
                sa, sb = random_state(dim, rng), random_state(dim, rng)
                phi = product_state(sa, sb)
                mu = int(rng.integers(2**n_bits))
                moved = local_transformation(mu, n_bits).apply_left(phi)
                left, right = reduced_states(moved)
                assert np.linalg.norm(left.r) <= 1.0 + EXACT_TOL
                assert np.array_equal(right.entries, sb.entries)

    def test_permutes_entangled_states(self):
        for n_bits in (1, 2, 3):
            size = 2**n_bits
            for mu in range(size):
                for nu in range(size):
                    moved = local_transformation(mu, n_bits).apply_left(
                        entangled_state(nu, n_bits)
                    )
                    assert np.array_equal(
                        moved.matrix, entangled_state(mu ^ nu, n_bits).matrix
                    )


class TestEntangledSector:
    def test_zero_state_is_identity_matrix(self):
        for n_bits in (1, 2, 3):
            assert np.array_equal(
                entangled_state(0, n_bits).matrix, np.eye(2**n_bits)
            )

    def test_reduced_states_are_mixed(self):
        for mu in range(8):
            left, right = reduced_states(entangled_state(mu, 3))
            assert np.array_equal(left.r, np.zeros(7))
            assert np.array_equal(right.r, np.zeros(7))

    def test_effects_sum_to_unit(self):
        from gptlab import bell_measurement

        for n_bits in (1, 2, 3, 4, 5):
            total = sum(e.matrix for e in bell_measurement(n_bits).effects)
            unit = bipartite_unit(2**n_bits - 1, 2**n_bits - 1).matrix
            assert np.array_equal(total, unit)

    def test_bell_outcomes_on_entangled_state(self):
        from gptlab import bell_measurement

        meas = bell_measurement(2)
        phi = entangled_state(3, 2)
        probs = [bipartite_contract(e, phi) for e in meas.effects]
        assert probs == [0.0, 0.0, 0.0, 1.0]

    def test_product_state_distribution(self):
        # outcome mu has probability (1 + a . T_hat_mu b) / 2^N in
        # [0, 2^-(N-1)]
        rng = np.random.default_rng(8)
        n_bits = 3
        dim = 7
        a = random_pure_state(dim, rng)
        b = random_pure_state(dim, rng)
        phi = product_state(a, b)
        for mu in range(8):
            p = bipartite_contract(entangled_effect(mu, n_bits), phi)
            hat = hadamard_vector(mu, n_bits)[1:]
            expected = 2.0**-n_bits * (1.0 + a.r @ (hat * b.r))
            assert abs(p - expected) < EXACT_TOL
            assert -EXACT_TOL <= p <= 2.0 ** -(n_bits - 1) + EXACT_TOL

    def test_mixed_product_state_is_uniform(self):
        n_bits = 2
        phi = product_state(make_state(np.zeros(3)), make_state(np.zeros(3)))
        for mu in range(4):
            assert bipartite_contract(entangled_effect(mu, n_bits), phi) == 0.25


class TestMaxTensorMembership:
    def test_entangled_states_pass(self):
        for n_bits in (1, 2, 3):
            for mu in range(2**n_bits):
                report = verify_max_tensor_membership(
                    entangled_state(mu, n_bits), n_bits, trials=100, seed=mu
                )
                assert report.passed

    def test_mixtures_pass(self):
        mix = mix_bipartite(
            [entangled_state(0, 2), entangled_state(3, 2)], [0.25, 0.75]
        )
        assert verify_max_tensor_membership(mix, 2, trials=100, seed=0).passed

    def test_axis_aligned_probe_values(self):
        e1 = np.array([1.0, 0.0, 0.0])
        phi0 = entangled_state(0, 2)
        same = product_effect(make_extremal_effect(e1), make_extremal_effect(e1))
        opposite = product_effect(make_extremal_effect(e1), make_extremal_effect(-e1))
        assert bipartite_contract(same, phi0) == 0.5
        assert bipartite_contract(opposite, phi0) == 0.0

    def test_unit_contraction_is_one(self):
        for mu in range(8):
            phi = entangled_state(mu, 3)
            assert bipartite_contract(bipartite_unit(7, 7), phi) == 1.0

    def test_a_state_off_unit_normalisation_is_refused(self):
        # So the probe needs no normalisation check of its own.
        matrix = entangled_state(0, 2).matrix.copy()
        matrix[0, 0] += 2 * EXACT_TOL
        with pytest.raises(DomainError, match="normalisation entry 1"):
            BipartiteState(matrix)

    def test_detects_overweight_matrix(self):
        bad = np.eye(4)
        bad[1, 1] = 5.0
        report = verify_max_tensor_membership(BipartiteState(bad), 2, trials=200, seed=1)
        assert not report.passed

    @pytest.mark.parametrize(
        "n_bits, message",
        [
            (11, r"state shape \(4, 4\) does not match 11 bits"),
            (MAX_N_BITS + 1, f"n_bits must be at most {MAX_N_BITS}"),
        ],
    )
    def test_wrong_bit_counts_are_refused_before_allocating(self, n_bits, message):
        # Unchecked, N = 11 traced 64 MiB for the (2^11)^2 unit effect before
        # the contraction saw the shapes differ.
        tracemalloc.start()
        try:
            with pytest.raises(GptError, match=message):
                verify_max_tensor_membership(entangled_state(0, 2), n_bits, trials=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("trials", [0, -3, True, 2.5, 1.0])
    def test_bad_trial_counts_raise_before_any_draw(self, monkeypatch, trials):
        def no_draw(*args):
            raise AssertionError("drew probes for a refused trial count")

        monkeypatch.setattr(hadamard, "random_directions", no_draw)
        with pytest.raises(GptError, match="trials must be an integer >= 1"):
            verify_max_tensor_membership(entangled_state(0, 2), 2, trials=trials)

    def test_label_lookup_holds_no_table(self):
        # It built the basis and a difference of its size to name a diagonal,
        # and a copy of phi without it: 96 MiB with the unit contraction at
        # N = 11.  Now the one table left is the rotation the check reads.
        phi = entangled_state(3, 11)
        tracemalloc.start()
        try:
            assert match_entangled_label(phi, 11) == 3
            _, lookup = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            assert verify_max_tensor_membership(phi, 11, trials=1).passed
            _, membership = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert lookup < 2**20
        assert membership < 8 * 4**11 + 2**20

    @pytest.mark.parametrize("n_bits", range(1, 7))
    def test_label_lookup_agrees_with_the_basis_scan(self, n_bits):
        # The scan: the first basis row within EXACT_TOL of a diagonal phi.
        def scan(phi):
            matrix, diag = phi.matrix, np.diagonal(phi.matrix)
            if np.abs(matrix - np.diag(diag)).max() > EXACT_TOL:
                return None
            hits = np.flatnonzero(np.abs(diag - hadamard_basis(n_bits)).max(axis=1) <= EXACT_TOL)
            return int(hits[0]) if hits.size else None

        rng = np.random.default_rng(n_bits)
        for mu in range(2**n_bits):
            exact = entangled_state(mu, n_bits).matrix
            cases = [exact, exact + 4e-13 * rng.uniform(-1.0, 1.0, exact.shape)]
            for row, col, value in [(-1, -1, None), (0, -1, 2e-12), (-1, 0, -5e-13), (1, 1, 1.01)]:
                case = exact.copy()
                case[row, col] = -case[row, col] if value is None else value
                cases.append(case)
            assert match_entangled_label(BipartiteState(exact), n_bits) == mu
            for case in cases:
                phi = BipartiteState(case)
                assert match_entangled_label(phi, n_bits) == scan(phi)


class TestLocalTomography:
    def test_recovers_entangled_states(self):
        for n_bits in (1, 2, 3):
            for mu in range(2**n_bits):
                phi = entangled_state(mu, n_bits)
                rebuilt = local_tomography(phi)
                assert np.abs(rebuilt.matrix - phi.matrix).max() < EXACT_TOL

    def test_recovers_product_states(self):
        rng = np.random.default_rng(3)
        phi = product_state(random_state(3, rng), random_state(3, rng))
        rebuilt = local_tomography(phi)
        assert np.abs(rebuilt.matrix - phi.matrix).max() < EXACT_TOL

    def test_recovers_mixtures_linearly(self):
        mix = mix_bipartite(
            [entangled_state(0, 2), entangled_state(2, 2)], [0.5, 0.5]
        )
        rebuilt = local_tomography(mix)
        assert np.abs(rebuilt.matrix - mix.matrix).max() < EXACT_TOL

    def test_oracle_sees_only_product_effects(self):
        phi = entangled_state(2, 2)
        calls = []

        def counting_oracle(effects_a, effects_b):
            # the oracle receives local effect rows, so every probe is a product
            assert effects_a.shape == effects_b.shape == ((3 + 1) * (3 + 1), 4)
            calls.append(len(effects_a))
            return np.einsum("km,mn,kn->k", effects_a, phi.matrix, effects_b)

        rebuilt = local_tomography_from_oracle(counting_oracle, 3, 3)
        assert np.array_equal(rebuilt.matrix, phi.matrix)
        assert calls == [(3 + 1) * (3 + 1)]

    @pytest.mark.parametrize("n_bits", [1, 2, 3])
    def test_stacked_answers_rebuild_each_state_as_alone(self, n_bits):
        rng = np.random.default_rng(n_bits)
        dim = 2**n_bits - 1
        sides = np.array([[random_state(dim, rng).entries for _ in "ab"] for _ in range(6)])
        states = np.concatenate(
            [
                [entangled_state(mu, n_bits).matrix for mu in range(dim + 1)],
                sides[:, 0, :, None] * sides[:, 1, None, :],
            ]
        )
        rebuilt = hadamard._reconstruct(hadamard._product_oracle(states), dim, dim)
        assert rebuilt.shape == states.shape
        for matrix, alone in zip(states, rebuilt):
            assert np.array_equal(alone, local_tomography(BipartiteState(matrix)).matrix)
            assert np.abs(alone - matrix).max() <= EXACT_TOL

    @pytest.mark.parametrize("dim_a, dim_b", [(1, 3), (3, 7)])
    def test_unequal_sides(self, dim_a, dim_b):
        def axis_state(dim, k, sign):
            return make_state(sign * np.eye(dim)[k])

        first = product_state(axis_state(dim_a, 0, 1.0), axis_state(dim_b, dim_b - 1, -1.0))
        second = product_state(axis_state(dim_a, dim_a - 1, -1.0), axis_state(dim_b, 1, 1.0))
        probes = (dim_a + 1) * (dim_b + 1)
        for phi in (first, mix_bipartite([first, second], [0.25, 0.75])):
            assert phi.matrix[0, 1:].any() and phi.matrix[1:, 0].any()
            calls = []

            def oracle(effects_a, effects_b):
                # one valid local effect per side for every probe
                assert effects_a.shape == (probes, dim_a + 1)
                assert effects_b.shape == (probes, dim_b + 1)
                for row in (*effects_a, *effects_b):
                    low, high = effect_probability_range(Effect(row))
                    assert 0.0 <= low and high <= 1.0
                calls.append(len(effects_a))
                return np.einsum("km,mn,kn->k", effects_a, phi.matrix, effects_b)

            rebuilt = local_tomography_from_oracle(oracle, dim_a, dim_b)
            assert np.array_equal(rebuilt.matrix, phi.matrix)
            assert calls == [probes]

    @pytest.mark.parametrize(
        "dim_a, dim_b",
        [(-2, 1), (1, -2), (True, 1), (1, True), (2.0, 1), (1, None), (np.int64(-1), 3)],
    )
    def test_refuses_a_bad_dimension_before_asking_the_oracle(self, dim_a, dim_b):
        # Unchecked, (-2, 1) ended in numpy's "negative dimensions are not
        # allowed" and True was taken as 1.
        def oracle(effects_a, effects_b):
            raise AssertionError("asked the oracle for a refused dimension")

        with pytest.raises(GptError, match="dim_[ab] must be an integer >= 0"):
            local_tomography_from_oracle(oracle, dim_a, dim_b)

    @pytest.mark.parametrize(
        "answer, error",
        [
            ([0.1, 0.2, 0.3], r"the oracle answered \(3,\) for a \(1, 1\) grid$"),
            ("abc", "the oracle's answer must be real numbers, got an array of <U3$"),
            (0.5, r"the oracle answered \(\) for a \(1, 1\) grid$"),
            (None, "the oracle's answer must be real numbers, got an array of object$"),
            ([True], "the oracle's answer must be real numbers, got an array of bool$"),
            ([0.5j], "the oracle's answer must be real numbers, got an array of complex128$"),
        ],
        ids=["[0.1, 0.2, 0.3]", "'abc'", "0.5", "None", "[True]", "[0.5j]"],
    )
    def test_refuses_an_answer_that_is_not_one_number_per_probe(self, answer, error):
        # Once, three numbers or a string for the 1 x 1 grid of two 0-balls
        # reached numpy's reshape or matmul and raised their own errors.
        with pytest.raises(GptError, match=f"^{error}"):
            local_tomography_from_oracle(lambda a, b: answer, 0, 0)

    def test_numpy_dimensions_rebuild_as_python_ints(self):
        phi = entangled_state(1, 2)
        rebuilt = local_tomography_from_oracle(
            hadamard._product_oracle(phi.matrix), np.int64(3), np.uint8(3)
        )
        assert np.array_equal(rebuilt.matrix, phi.matrix)


# --------------------------------------------------------------------------
# per-probe reference loops for the stacked membership and tomography paths


def membership_loop_oracle(phi, n_bits, trials, seed):
    dim = 2**n_bits - 1
    rng = np.random.default_rng(seed)
    violations = []
    total = bipartite_contract(bipartite_unit(dim, dim), phi)
    if abs(total - 1.0) > EXACT_TOL:
        violations.append({"check": "unit_normalisation", "value": total})
    label = match_entangled_label(phi, n_bits)
    hat = hadamard.local_transformation(label, n_bits).hat if label is not None else None
    for _ in range(trials):
        alpha = random_direction(dim, rng)
        beta = random_direction(dim, rng)
        effect = product_effect(make_extremal_effect(alpha), make_extremal_effect(beta))
        p = bipartite_contract(effect, phi)
        probe = {"alpha": alpha.tolist(), "beta": beta.tolist(), "value": p}
        if p < -EXACT_TOL or p > 1.0 + EXACT_TOL:
            violations.append({"check": "probability_range", **probe})
        if hat is not None:
            expected = 0.25 * (1.0 + alpha @ (hat @ beta))
            if abs(p - expected) > EXACT_TOL or p > 0.5 + EXACT_TOL:
                violations.append({"check": "pure_state_form", **probe, "expected": expected})
    return not violations, violations


def tomography_loop_oracle(phi):
    dim_a, dim_b = phi.dims
    matrix = np.zeros((dim_a + 1, dim_b + 1))

    def oracle(effect):
        return bipartite_contract(effect, phi)

    def coordinate_effect(k, sign, dim):
        v = np.zeros(dim)
        v[k] = sign
        return 0.5 * np.concatenate(([1.0], v))

    matrix[0, 0] = oracle(
        BipartiteEffect(np.outer(np.eye(dim_a + 1)[0], np.eye(dim_b + 1)[0]))
    )
    for k in range(dim_a):
        for l in range(dim_b):
            probs = {
                (s, t): oracle(
                    BipartiteEffect(
                        np.outer(
                            coordinate_effect(k, s, dim_a), coordinate_effect(l, t, dim_b)
                        )
                    )
                )
                for s in (1, -1)
                for t in (1, -1)
            }
            matrix[k + 1, l + 1] = sum(s * t * p for (s, t), p in probs.items())
            if l == 0:
                matrix[k + 1, 0] = sum(s * p for (s, _), p in probs.items())
            if k == 0:
                matrix[0, l + 1] = sum(t * p for (_, t), p in probs.items())
    return matrix


def reference_states():
    cases = [
        (f"entangled_{mu}_n{n}", entangled_state(mu, n), n)
        for n in (1, 2, 3)
        for mu in range(2**n)
    ]
    overweight = np.eye(4)
    overweight[1, 1] = 5.0
    off_diagonal = np.eye(4)
    off_diagonal[1, 2] = 3.0
    cases.append(("overweight", BipartiteState(overweight), 2))
    cases.append(("off_diagonal", BipartiteState(off_diagonal), 2))
    return cases


def assert_same_violations(stacked, loop):
    assert [v["check"] for v in stacked] == [v["check"] for v in loop]
    for got, want in zip(stacked, loop):
        assert got.keys() == want.keys()
        for key in ("alpha", "beta"):
            if key in want:
                assert got[key] == want[key]
        for key in ("value", "expected"):
            if key in want:
                assert abs(got[key] - want[key]) <= 1e-15


class TestStackedPathsMatchTheLoops:
    @pytest.mark.parametrize("seed", range(4))
    def test_membership_matches_the_loop(self, seed):
        found = 0
        for _, phi, n_bits in reference_states():
            report = verify_max_tensor_membership(phi, n_bits, trials=200, seed=seed)
            passed, violations = membership_loop_oracle(phi, n_bits, 200, seed)
            assert report.passed == passed
            assert_same_violations(report.violations, violations)
            found += len(violations)
        assert found > 0

    def test_membership_matches_the_loop_on_a_skewed_rotation(self, skewed_rotation):
        phi = entangled_state(5, 3)
        report = verify_max_tensor_membership(phi, 3, trials=100, seed=0)
        passed, violations = membership_loop_oracle(phi, 3, 100, 0)
        assert not report.passed and not passed
        assert {v["check"] for v in violations} == {"pure_state_form"}
        assert_same_violations(report.violations, violations)

    @pytest.mark.parametrize("seed", range(4))
    def test_tomography_matches_the_loop(self, seed):
        rng = np.random.default_rng(seed)
        phis = [phi for _, phi, _ in reference_states()]
        phis += [
            product_state(random_state(dim, rng), random_state(dim, rng)) for dim in (1, 3, 7)
        ]
        for phi in phis:
            rebuilt = local_tomography(phi).matrix
            assert np.abs(rebuilt - tomography_loop_oracle(phi)).max() <= 1e-15
