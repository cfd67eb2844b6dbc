"""Deformed bipartite models, the diagonal model layer and the norm-bound validators.

Every theory kind is the base construction with its correlation diagonals
rescaled: entangled states ``diag(1, s d_mu[1:])`` decoded by effects
``2^-N diag(1, t d_mu[1:])`` on the ``2^N x 2^N`` Hadamard corner, with the
pair ``(s, t)`` given by ``correlation_scales``.  One state constructor, one
effect constructor and one dense-coding channel builder serve all kinds.

* ``base``: ``(1, 1)``, the perfect N-bit code.
* ``lambda-tau``: ``(lambda, tau)``.  Requiring valid probabilities on the
  rotated witness state forces ``-1/(2^N - 1) <= lambda tau <= 1/(2^N - 3)``;
  the channel is the symmetric table
  ``p(y|x) = lambda tau delta_(y,x) + 2^-N (1 - lambda tau)`` and the best
  rate inside this family is ``N - H(Q_N)``.  Local rotations here form the
  full continuous group, so the model keeps local continuous reversibility
  and pays with a rate that collapses for ``N > 2``.
* ``embedded``: ``(1, 1)`` plus a zero m-sphere block.  Each local system is
  an m-sphere embedded after a frozen ``2^N - 1`` block.  The entangled
  states occupy only the frozen corner, so every local transformation
  ``block-diag(T_mu, R)`` with ``R in SO(m)`` leaves them untouched: dense
  coding stays perfect at N bits while local statistics cannot tell the
  entangled states apart (the model trades away tomographic locality).
* ``weak``: ``(lambda, 1)``, weakened states decoded with the undeformed
  Bell-type effects.  Correlations of size ``lambda`` cap the dense-coding
  rate at ``log2(1 + |lambda| (2^N - 1))``.

``lemma_state_check`` and ``lemma_effect_check`` enforce the matrix-norm
constraints that every bipartite state and effect of two ball systems must
satisfy: unit-bounded marginal and correlation columns for states, and
``min(gamma, 1 - gamma)``-bounded blocks for effects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    EXACT_TOL,
    BipartiteEffect,
    BipartiteState,
    Channel,
    DomainError,
    Effect,
    GptError,
    ProtocolFalsified,
    TheoryConfig,
    Transformation,
    ValidationReport,
    bipartite_contract,
    product_effect,
    product_state,
)
from .hadamard import hadamard_basis, hadamard_vector

# Random product states and effects ``constructed_family`` adds per theory.
FAMILY_RANDOM_PAIRS = 20
# Largest N whose 2^N is a finite double: the lambda-tau closed forms
# (``lt_optimal_product``, ``lt_peak_probability``, ``lt_optimal_info``)
# are computed in floats.
LT_MAX_N_BITS = 1023

# --------------------------------------------------------------------------
# the diagonal model layer


def _require_kind(theory: TheoryConfig, kind: str) -> None:
    if theory.kind != kind:
        raise GptError(f"expected a {kind!r} theory, got {theory.kind!r}")


def correlation_scales(theory: TheoryConfig) -> tuple:
    """``(state scale, effect scale)`` of the theory's correlation diagonals."""
    return {
        "base": (1.0, 1.0),
        "lambda-tau": (theory.lam, theory.tau),
        "weak": (theory.lam, 1.0),
        "embedded": (1.0, 1.0),
    }[theory.kind]


def _diagonals(signs: np.ndarray, scale: float, width: int) -> np.ndarray:
    """Sign vectors as ``(1, scale d[1:])``, zero-padded to ``width`` entries.

    ``signs`` is one sign vector or a stack of them as rows.
    """
    size = signs.shape[-1]
    out = np.zeros(signs.shape[:-1] + (width,))
    out[..., :size] = signs
    out[..., 1:size] *= scale
    return out


def theory_state(label: int, theory: TheoryConfig) -> BipartiteState:
    """Entangled state ``diag(1, s d_label[1:])`` of the theory, s its state scale."""
    diagonal = _diagonals(
        hadamard_vector(label, theory.n_bits),
        correlation_scales(theory)[0],
        1 + theory.local_dim,
    )
    return BipartiteState(np.diag(diagonal))


def theory_effect(label: int, theory: TheoryConfig) -> BipartiteEffect:
    """Decoding effect ``2^-N diag(1, t d_label[1:])``, t the effect scale."""
    diagonal = _diagonals(
        hadamard_vector(label, theory.n_bits),
        correlation_scales(theory)[1],
        1 + theory.local_dim,
    )
    return BipartiteEffect(2.0**-theory.n_bits * np.diag(diagonal))


def dense_coding_channel(theory: TheoryConfig, rotation_seed: int = 0) -> Channel:
    """Dense-coding channel of any theory kind, uniform prior.

    Message x turns the shared state ``phi_0`` into ``T_x phi_0`` and the
    receiver measures the decoding effects ``E_y``, all diagonal on the
    Hadamard corner, where ``T_x = diag(d_x)``: the table is one product of
    two stacks of corner diagonals, checked entrywise against the closed
    form ``p delta_(y,x) + 2^-N (1 - p)``, p the product of the two scales.
    Each embedded message also draws a sphere rotation from
    ``rotation_seed``; its local map may not couple the sphere to the corner.
    """
    n = theory.n_bits
    size = theory.hadamard_dim
    state_scale, effect_scale = correlation_scales(theory)
    product = state_scale * effect_scale
    if product < -1.0 / (size - 1) - EXACT_TOL:
        raise DomainError(
            "the decoding effects take negative probabilities for "
            f"state scale x effect scale = {product!r} < -1/(2^N-1)"
        )
    if theory.kind == "embedded":
        rng = np.random.default_rng(rotation_seed)
        for x in range(size):
            _, _, down, up = embedded_blocks(x, theory, random_rotation(theory.m, rng))
            if down.any() or up.any():
                raise ProtocolFalsified(
                    f"message {x} moved the embedded state off the Hadamard corner"
                )
    signs = hadamard_basis(n)
    encoded = signs * _diagonals(signs[0], state_scale, size)
    effects = _diagonals(signs, effect_scale, size)
    effects *= 2.0**-n
    conditional = encoded @ effects.T
    closed = np.full((size, size), 2.0**-n * (1.0 - product))
    closed[np.diag_indices(size)] += product
    gap = float(np.abs(conditional - closed).max())
    if not gap <= EXACT_TOL:
        raise ProtocolFalsified(
            f"{theory.kind} dense coding deviates from its closed form by {gap!r}"
        )
    conditional = np.clip(conditional, 0.0, 1.0)
    return Channel(prior=np.full(size, 1.0 / size), conditional=conditional)


# --------------------------------------------------------------------------
# lambda-tau deformation


def lt_rotated_witness(lam: float, n_bits: int) -> BipartiteState:
    """The state ``phi_0^(lambda) T'`` with ``T' = diag(1, 1, -1, ..., -1)``.

    This rotated companion of the aligned state is the one that caps
    ``lambda tau`` from above; probing both against the aligned effect
    yields the admissibility window.
    """
    diag = np.full(2**n_bits, -lam)
    diag[0] = 1.0
    diag[1] = lam
    return BipartiteState(np.diag(diag))


def lt_admissibility_witness(n_bits: int, lam: float, tau: float) -> tuple:
    """Probabilities of the aligned effect on the aligned and rotated states.

    Returns ``(2^-N (1 + (2^N - 1) lambda tau), 2^-N (1 - (2^N - 3) lambda tau))``
    computed by direct contraction; either leaving ``[0, 1]`` certifies the
    parameters as inadmissible.
    """
    if n_bits < 2:
        raise GptError("the lambda-tau model needs n_bits >= 2")
    aligned = hadamard_vector(0, n_bits)
    effect = BipartiteEffect(
        2.0**-n_bits * np.diag(_diagonals(aligned, tau, aligned.size))
    )
    state = BipartiteState(np.diag(_diagonals(aligned, lam, aligned.size)))
    return (
        bipartite_contract(effect, state),
        bipartite_contract(effect, lt_rotated_witness(lam, n_bits)),
    )


def lt_channel(theory: TheoryConfig) -> Channel:
    """Dense-coding channel of the lambda-tau model, uniform prior."""
    _require_kind(theory, "lambda-tau")
    return dense_coding_channel(theory)


def _check_lt_closed_form(n_bits: int) -> None:
    if not 2 <= n_bits <= LT_MAX_N_BITS:
        raise GptError(
            f"the lambda-tau closed forms need n_bits in [2, {LT_MAX_N_BITS}], got {n_bits}"
        )


def lt_optimal_product(n_bits: int) -> float:
    """The admissible ``lambda tau`` value maximising the rate."""
    _check_lt_closed_form(n_bits)
    return 1.0 / (2.0**n_bits - 3)


def lt_peak_probability(n_bits: int) -> float:
    """Largest achievable correct-decoding probability ``Q_N``."""
    _check_lt_closed_form(n_bits)
    size = 2.0**n_bits
    return 2.0 ** (-n_bits + 1) * (size - 2) / (size - 3)


def _symmetric_output_entropy(p: float, n_bits: int) -> float:
    """Entropy of an output hitting one symbol with probability p.

    The remaining mass spreads evenly over the other ``2^N - 1`` symbols:
    ``H(p) = h(p) + (1 - p) log2(2^N - 1)``.
    """
    h = 0.0
    if 0.0 < p < 1.0:
        h = -p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p)
    return float(h + (1.0 - p) * np.log2(2.0**n_bits - 1))


def lt_optimal_info(n_bits: int) -> float:
    """Best rate ``N - H(Q_N)`` inside the deformed protocol family."""
    if n_bits < 2:
        raise DomainError(
            "n_bits must be >= 2; a single bit has no continuous rotations"
        )
    return n_bits - _symmetric_output_entropy(lt_peak_probability(n_bits), n_bits)


# --------------------------------------------------------------------------
# embedded (tomographic-locality violating) model


def embedded_extremal_effect(direction, theory: TheoryConfig) -> Effect:
    """Local extremal effect ``(1, 0_n, r)/2`` on the embedded sphere."""
    _require_kind(theory, "embedded")
    direction = np.asarray(direction, dtype=float)
    if direction.size != theory.m:
        raise GptError(f"direction must have {theory.m} components")
    norm = np.linalg.norm(direction)
    if not abs(norm - 1.0) <= EXACT_TOL:
        raise DomainError(f"effect direction has norm {norm!r}, expected 1")
    return Effect(0.5 * theory.state_from_direction(direction).entries)


def random_rotation(m: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish rotation from SO(m): QR of a Gaussian matrix, signs fixed."""
    if m < 1:
        raise GptError("rotation dimension must be >= 1")
    q, r = np.linalg.qr(rng.standard_normal((m, m)))
    q = q * np.sign(np.diagonal(r))
    if np.linalg.det(q) < 0:
        q[:, -1] = -q[:, -1]
    return q


def embedded_blocks(label: int, theory: TheoryConfig, rotation: np.ndarray) -> tuple:
    """Blocks ``(corner, sphere, down, up)`` of the local map ``block-diag(T_label, R)``.

    The sign row ``d_label``, R, and the zero couplings sphere from corner
    (``m x 2^N``) and corner from sphere (``2^N x m``).
    """
    _require_kind(theory, "embedded")
    rotation = np.asarray(rotation, dtype=float)
    if rotation.shape != (theory.m, theory.m):
        raise GptError(f"rotation must be {theory.m} x {theory.m}")
    m, size = theory.m, theory.hadamard_dim
    corner = hadamard_vector(label, theory.n_bits)
    return corner, rotation, np.zeros((m, size)), np.zeros((size, m))


def embedded_transformation(
    label: int, theory: TheoryConfig, rotation: np.ndarray
) -> Transformation:
    """Local map ``block-diag(T_label, R)`` for a rotation R of the sphere."""
    corner, sphere, down, up = embedded_blocks(label, theory, rotation)
    return Transformation(np.block([[np.diag(corner), up], [down, sphere]]))


def embedded_dense_coding(theory: TheoryConfig, rotation_seed: int = 0) -> Channel:
    """Dense coding in the embedded model; perfect for every rotation.

    Each message applies ``block-diag(T_x, R_x)`` with an independently
    drawn rotation; the decoding statistics must be the exact identity
    regardless, because the entangled corner never sees the sphere block.
    """
    _require_kind(theory, "embedded")
    return dense_coding_channel(theory, rotation_seed=rotation_seed)


@dataclass(frozen=True)
class TlWitnessReport:
    """Constructive witness that local statistics miss global structure."""

    passed: bool
    max_probability_spread: float
    state_distances: tuple
    violations: tuple


def tl_violation_witness(
    theory: TheoryConfig, trials: int, seed: int
) -> TlWitnessReport:
    """Show the entangled states are locally indistinguishable yet distinct.

    Samples random pairs of local effects and checks the joint probability
    on every entangled state is the same constant (the product of the two
    normalisation components), while the states themselves differ by an
    entrywise L1 distance of ``2^N`` from the reference state.  All trials
    are evaluated as one contraction; every check is written so that a
    non-finite value fails it.
    """
    _require_kind(theory, "embedded")
    if trials < 1:
        raise GptError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    states = np.stack([theory_state(mu, theory).matrix for mu in range(theory.hadamard_dim)])
    distances = tuple(float(d) for d in np.abs(states[0] - states).sum(axis=(1, 2)))

    # Row [t, side] is the local effect mix0 (1, 0_n, w/|w|)/2 + mix1 u,
    # drawn side by side in trial order; mix weighs (extremal, unit, zero).
    effects = np.zeros((trials, 2, 1 + theory.local_dim))
    for row in effects.reshape(2 * trials, -1):
        w = rng.standard_normal(theory.m)
        mix = rng.dirichlet(np.ones(3))
        row[0] = 0.5 * mix[0] + mix[1]
        row[1 + theory.ball_dim :] = 0.5 * mix[0] * (w / np.linalg.norm(w))
    probs = np.einsum("ti,sij,tj->ts", effects[:, 0], states, effects[:, 1])
    spread = probs.max(axis=1) - probs.min(axis=1)
    expected = effects[:, 0, 0] * effects[:, 1, 0]
    ok = (spread <= EXACT_TOL) & (np.abs(probs[:, 0] - expected) <= EXACT_TOL)
    violations = [
        {
            "check": "local_statistics",
            "spread": float(spread[t]),
            "value": float(probs[t, 0]),
            "expected": float(expected[t]),
        }
        for t in np.flatnonzero(~ok)
    ]
    if not all(d > 0 for d in distances[1:]):
        violations.append({"check": "states_differ", "distances": distances})
    return TlWitnessReport(
        passed=not violations,
        max_probability_spread=float(spread.max()),
        state_distances=distances,
        violations=tuple(violations),
    )


# --------------------------------------------------------------------------
# weakly entangled model


def weak_dense_coding(theory: TheoryConfig) -> Channel:
    """Dense coding with weakened states and the undeformed Bell decoding.

    The channel is ``p(y|x) = lambda delta_(y,x) + 2^-N (1 - lambda)``.
    Probabilities stay valid only for ``lambda >= -1/(2^N - 1)``; below
    that the Bell effects are no longer effects of the weakened model.
    """
    _require_kind(theory, "weak")
    return dense_coding_channel(theory)


# --------------------------------------------------------------------------
# matrix-norm validators for bipartite states and effects


def lemma_state_check(phi: BipartiteState) -> ValidationReport:
    """Norm bounds every bipartite state of two ball systems satisfies.

    The marginals obey ``||a|| <= 1`` and ``||b|| <= 1`` and every column
    of the correlation block obeys ``||c_k|| <= 1``.  A non-finite norm
    fails its bound.
    """
    violations = []
    for name, vec in (("a_norm", phi.a), ("b_norm", phi.b)):
        norm = float(np.linalg.norm(vec))
        if not norm <= 1.0 + EXACT_TOL:
            violations.append({"check": name, "value": norm, "bound": 1.0})
    col_norms = np.linalg.norm(phi.correlations, axis=0)
    for k in np.flatnonzero(~(col_norms <= 1.0 + EXACT_TOL)):
        violations.append(
            {
                "check": "correlation_column_norm",
                "column": int(k),
                "value": float(col_norms[k]),
                "bound": 1.0,
            }
        )
    return ValidationReport(passed=not violations, violations=tuple(violations))


def lemma_effect_check(effect: BipartiteEffect) -> ValidationReport:
    """Norm bounds every bipartite effect of two ball systems satisfies.

    With ``gamma`` the normalisation entry, all of ``||alpha||``,
    ``||beta||`` and the columns of the core block are bounded by
    ``min(gamma, 1 - gamma)``; equivalently the gamma-factored form has
    unit-bounded blocks.  A non-finite gamma or norm fails its bound.
    """
    violations = []
    gamma = effect.gamma
    if not -EXACT_TOL <= gamma <= 1.0 + EXACT_TOL:
        violations.append({"check": "gamma_range", "value": gamma, "bound": (0.0, 1.0)})
    cap = min(gamma, 1.0 - gamma)
    for name, vec in (("alpha_norm", effect.alpha), ("beta_norm", effect.beta)):
        norm = float(np.linalg.norm(vec))
        if not norm <= cap + EXACT_TOL:
            violations.append({"check": name, "value": norm, "bound": cap})
    col_norms = np.linalg.norm(effect.block, axis=0)
    for k in np.flatnonzero(~(col_norms <= cap + EXACT_TOL)):
        violations.append(
            {
                "check": "core_column_norm",
                "column": int(k),
                "value": float(col_norms[k]),
                "bound": cap,
            }
        )
    return ValidationReport(passed=not violations, violations=tuple(violations))


def constructed_family(theory: TheoryConfig, seed: int = 0) -> tuple:
    """States and effects the given theory actually constructs.

    Used by the validator sweeps: every element must pass the lemma
    checks.  Besides the entangled family, ``FAMILY_RANDOM_PAIRS`` random
    pure product states and product effects are added.  Returns
    ``(states, effects)`` lists.
    """
    rng = np.random.default_rng(seed)
    size = theory.hadamard_dim
    states = [theory_state(mu, theory) for mu in range(size)]
    effects = [theory_effect(mu, theory) for mu in range(size)]
    if theory.kind == "lambda-tau":
        states.append(lt_rotated_witness(theory.lam, theory.n_bits))
    for _ in range(FAMILY_RANDOM_PAIRS):
        sa = theory.random_pure_state(rng)
        sb = theory.random_pure_state(rng)
        states.append(product_state(sa, sb))
        ea = Effect(0.5 * sa.entries)
        eb = Effect(0.5 * sb.entries)
        effects.append(product_effect(ea, eb))
    return states, effects
