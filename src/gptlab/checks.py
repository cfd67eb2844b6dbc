"""Validator suites behind ``gptlab verify``.

Each suite takes ``(seed, trials)`` and returns an ordered dict of named
checks: booleans, or the measured rates the one-bit gates compare.  A
suite passes when none of its values is ``False``.  A seed that is not an
integer of at least 0 raises ``GptError`` in every suite.  ``SUITES`` maps
each ``--suite`` name to its function.
"""

import numpy as np

from . import hadamard, hst, protocols, variants
from .core import EXACT_TOL, OPT_TOL, TheoryConfig, _check_count, bipartite_unit, mix_bipartite


def _xor_closed(signs: np.ndarray) -> bool:
    """``d_x o d_y = d_(x^y)`` for all rows of ``signs``, checked on the
    generators ``g = 2^i`` alone as ``d_(x^g) = d_x o d_g``.  In float64 this
    is the pairwise law, column by column: the rows x = 0 and x = g force
    ``d_0`` to be 0, 1 or inf, and at 1 every ``d_g`` to be exactly +-1."""
    labels = np.arange(len(signs))
    generators = 1 << np.arange(len(signs).bit_length() - 1)
    return all(np.array_equal(signs[labels ^ g], signs * signs[g]) for g in generators)


def _suite_group(seed: int, trials: int) -> dict:
    # The group law draws nothing, but every suite refuses the same seeds.
    _check_count("seed", seed, 0)
    checks = {}
    for n in range(1, 7):
        basis = hadamard.hadamard_basis(n)
        size = 2**n
        scaled_eye = size * np.eye(size)
        checks[f"orthogonality_n{n}"] = bool(np.array_equal(basis @ basis.T, scaled_eye))
        checks[f"column_sums_n{n}"] = bool(np.array_equal(basis.sum(axis=0), scaled_eye[0]))
        # T_x = diag(d_x) for every x plus the XOR closure of the rows give
        # T_x T_y = T_(x^y); LAPACK sees only a T_x that is not diag(d_x).
        table_ok = _xor_closed(basis)
        dets = basis[:, 1:].prod(axis=1)
        for x in range(size):
            matrix = hadamard.local_transformation(x, n).matrix
            if not np.array_equal(matrix, np.diag(basis[x])):
                table_ok = False
                # LAPACK warns on a non-finite block, which has no determinant 1.
                hat = matrix[1:, 1:]
                dets[x] = np.linalg.det(hat) if np.isfinite(hat).all() else np.nan
        checks[f"group_table_n{n}"] = table_ok
        if n >= 2:
            checks[f"rotation_determinants_n{n}"] = bool((np.round(dets) == 1).all())
    return checks


def _suite_consistency(seed: int, trials: int) -> dict:
    seed = _check_count("seed", seed, 0)
    checks = {}
    rng = np.random.default_rng(seed)
    draws = max(1, trials // 10)
    for n in (2, 3):
        size = 2**n
        dim = size - 1
        labels = np.arange(size)
        transforms = np.stack([hadamard.local_transformation(x, n).matrix for x in labels])
        entangled = [hadamard.entangled_state(mu, n) for mu in range(size)]
        phis = np.stack([phi.matrix for phi in entangled])
        effects = np.stack([e.matrix for e in hadamard.bell_measurement(n).effects])

        # Every ball state keeps its norm exactly when each rotation block is orthogonal.
        hats = transforms[:, 1:, 1:]
        gram_gap = np.abs(hats.mT @ hats - np.eye(dim))
        checks[f"norm_preserved_n{n}"] = bool((gram_gap <= EXACT_TOL).all())
        checks[f"entangled_orbit_n{n}"] = np.array_equal(
            transforms[:, None] @ phis[None], phis[labels[:, None] ^ labels]
        )
        checks[f"bell_completeness_n{n}"] = np.array_equal(
            effects.sum(axis=0), bipartite_unit(dim, dim).matrix
        )
        checks[f"max_tensor_membership_n{n}"] = all(
            hadamard.verify_max_tensor_membership(phi, n, trials=50, seed=seed + mu).passed
            for mu, phi in enumerate(entangled)
        )
        checks[f"reduced_states_mixed_n{n}"] = not (phis[:, 1:, 0].any() or phis[:, 0, 1:].any())
        # Each pair of pure states draws its A side, then its B side.
        pairs = np.ones((draws, 2, dim + 1))
        pairs[..., 1:] = hst.random_directions(2 * draws, dim, rng).reshape(draws, 2, dim)
        probs = np.einsum("mij,si,sj->sm", effects, pairs[:, 0], pairs[:, 1])
        ceiling = 2.0 ** -(n - 1)
        checks[f"effect_product_range_n{n}"] = bool(
            ((probs >= -EXACT_TOL) & (probs <= ceiling + EXACT_TOL)).all()
        )
        spread = protocols.no_signalling_spread(n, max(1, trials // 100), seed)
        checks[f"no_signalling_n{n}"] = spread <= EXACT_TOL
    return checks


def _suite_tomography(seed: int, trials: int) -> dict:
    seed = _check_count("seed", seed, 0)
    checks = {}
    rng = np.random.default_rng(seed)
    for n in (1, 2, 3):
        size = 2**n
        dim = size - 1
        entangled = [hadamard.entangled_state(mu, n) for mu in range(size)]
        # Five product states, row 2k their A side and row 2k + 1 their B side.
        sides = np.ones((5, 2, dim + 1))
        sides[..., 1:] = hst.random_ball_points(10, dim, rng).reshape(5, 2, dim)
        mix = mix_bipartite([entangled[0], entangled[-1]], [0.5, 0.5])
        # One oracle call per n: the entangled states, the products, the mixture.
        states = np.concatenate(
            [
                [phi.matrix for phi in entangled],
                sides[:, 0, :, None] * sides[:, 1, None, :],
                [mix.matrix],
            ]
        )
        rebuilt = hadamard._reconstruct(hadamard._product_oracle(states), dim, dim)
        recovered = np.abs(rebuilt - states).max(axis=(1, 2)) <= EXACT_TOL
        checks[f"entangled_recovered_n{n}"] = bool(recovered[:size].all())
        checks[f"products_recovered_n{n}"] = bool(recovered[size:-1].all())
        checks[f"mixtures_recovered_n{n}"] = bool(recovered[-1])
    return checks


def _suite_lemmas(seed: int, trials: int) -> dict:
    seed = _check_count("seed", seed, 0)
    checks = {}
    theories = [
        TheoryConfig.base(2), TheoryConfig.base(3),
        TheoryConfig.lambda_tau(2, 0.8, 0.5), TheoryConfig.lambda_tau(3, 0.4, 0.5),
        TheoryConfig.weak(2, 1.0 / 3.0), TheoryConfig.weak(3, 0.4),
        TheoryConfig.embedded(2, 2), TheoryConfig.embedded(3, 4),
    ]
    for theory in theories:
        states, effects = variants.family_matrices(theory, seed)
        key = f"{theory.kind}_n{theory.n_bits}"
        checks[f"states_{key}"] = all(r.passed for r in variants.lemma_state_checks(states))
        checks[f"effects_{key}"] = all(r.passed for r in variants.lemma_effect_checks(effects))
    return checks


def _suite_baseline(seed: int, trials: int) -> dict:
    seed = _check_count("seed", seed, 0)
    checks = {}
    # The separable trials run in 8 independently seeded chunks; the first
    # ``trials % 8`` chunks take one extra trial and empty chunks are skipped.
    # Each chunk starts from the best rate of the chunks before it.
    chunks = 8
    seeds = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(chunks)]
    counts = [trials // chunks + (i < trials % chunks) for i in range(chunks)]
    best = 0.0
    for count, chunk_seed in zip(counts, seeds):
        if count:
            best = protocols.separable_baseline(3, count, chunk_seed, best=best)
    checks["separable_max_bits"] = best
    checks["separable_within_one_bit"] = best <= 1.0 + OPT_TOL
    prop5 = protocols.product_decoding_baseline(2, max(1, trials // 4), seed)
    checks["product_decoding_max_bits"] = prop5
    checks["product_decoding_within_one_bit"] = prop5 <= 1.0 + OPT_TOL
    return checks


SUITES = {
    "group": _suite_group,
    "consistency": _suite_consistency,
    "tomography": _suite_tomography,
    "lemmas": _suite_lemmas,
    "baseline": _suite_baseline,
}
