"""End-to-end protocol simulations on the bipartite hypersphere models.

Dense coding: the parties share the entangled state ``phi_0 = I``; the
sender encodes an N-bit message x by the local rotation ``T_x``, turning
the shared state into ``phi_x``; the receiver's Bell-type measurement then
returns ``y = x`` with certainty, for N bits per transmitted system.  A
local system carries at most 1 bit, so the protocol is superdense for
``N = 2`` and hyperdense for ``N > 2``.

Teleportation: the sender measures ``{E_x}`` on the input system together
with her half of ``phi_0`` and announces x; after the receiver's correction
``T_x`` his system reproduces the input state's statistics exactly, each
outcome occurring with probability ``2^-N``.  Feeding an entangled input
through the same circuit swaps entanglement onto the receiver's side.
All outcomes are one stack.  Every factor of ``v_x = (d_0 o d_x) o
(2^-N d_x o omega)`` is +-1 or a power of two, so ``v_x = 2^-N omega``
exactly and the residual is exactly 0.0 (for each of 252 random states
tried at N = 1..6); the teleport reports are byte-stable.

The separable baselines re-run dense coding with product resources and
check that nothing beats the single-system rate of 1 bit.  Their random
product states and product measurements are drawn as stacked arrays, one
generator call per quantity (see ``hst.random_measurements``), and their
tables are searched best first by ``capacity.search_max``.

The converse statement that teleportation needs a classical channel of N
bits is an impossibility argument, not an algorithm, and is out of scope
here; only the forward protocols are simulated.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import variants
# Bound here too: bench/test_bench.py checks that tracing wraps this name.
from .capacity import blahut_arimoto, search_max  # noqa: F401
from .core import (
    EXACT_TOL,
    OPT_TOL,
    BipartiteState,
    Channel,
    DomainError,
    GptError,
    State,
    TheoryConfig,
    mutual_information,
)
from .hadamard import bell_measurement, hadamard_basis
from .hst import (
    MAX_COMPONENTS,
    random_directions,
    random_measurement,
    random_measurements,
)

# Outcomes per side of a random product measurement, and how often the
# separable baseline decodes with the Bell-type measurement instead.
MAX_OUTCOMES_SIDE = 4
BELL_FRACTION = 0.3
# Blahut-Arimoto settings the baselines optimise each prior with.
BASELINE_BA_TOL = 1e-8
BASELINE_BA_MAX_ITER = 400


class ProtocolLabel(Enum):
    ORDINARY = "ORDINARY"
    SUPERDENSE = "SUPERDENSE"
    HYPERDENSE = "HYPERDENSE"


@dataclass(frozen=True)
class Classification:
    """Protocol class together with the capacities that decided it."""

    label: ProtocolLabel
    dc_info_bits: float
    local_capacity_bits: float


@dataclass(frozen=True)
class DenseCodingRun:
    n_bits: int
    theory: TheoryConfig
    initial_state: BipartiteState
    channel: Channel
    info_bits: float


@dataclass(frozen=True, eq=False)
class TeleportationRun:
    n_bits: int
    input_state: State
    joint: np.ndarray
    outcome_priors: np.ndarray
    max_residual: float
    passed: bool
    witness: tuple | None


@dataclass(frozen=True, eq=False)
class SwapRun:
    n_bits: int
    label: int
    joint: np.ndarray
    outcome_priors: np.ndarray
    conditional: np.ndarray
    expected: np.ndarray
    max_residual: float
    passed: bool


def dense_coding(n_bits: int, theory: TheoryConfig | None = None, seed: int = 0) -> DenseCodingRun:
    """Run the dense-coding protocol of the selected theory.

    The base model gives the exact ``2^N`` identity channel and ``N`` bits;
    every theory kind builds its channel through the diagonal model layer
    in ``variants``.  ``seed`` only matters for the embedded model's random
    rotations.
    """
    if theory is None:
        theory = TheoryConfig.base(n_bits)
    if theory.n_bits != n_bits:
        raise GptError(
            f"theory is configured for {theory.n_bits} bits, asked for {n_bits}"
        )
    channel = variants.dense_coding_channel(theory, rotation_seed=seed)
    return DenseCodingRun(
        n_bits=n_bits,
        theory=theory,
        initial_state=variants.theory_state(0, theory),
        channel=channel,
        info_bits=mutual_information(channel),
    )


def classify(dc_info_bits: float, local_capacity_bits: float) -> Classification:
    """Grade a dense-coding rate against the local classical capacity.

    Optimizer slack is subtracted from the rate before the strict
    comparisons, so iterative estimates never over-classify.
    """
    # Written so that a NaN or an infinite capacity fails the check.
    if not (0 <= dc_info_bits < np.inf and 0 <= local_capacity_bits < np.inf):
        raise GptError("capacities must be non-negative and finite")
    adjusted = dc_info_bits - OPT_TOL
    if adjusted > 2.0 * local_capacity_bits:
        label = ProtocolLabel.HYPERDENSE
    elif adjusted > local_capacity_bits:
        label = ProtocolLabel.SUPERDENSE
    else:
        label = ProtocolLabel.ORDINARY
    return Classification(
        label=label,
        dc_info_bits=dc_info_bits,
        local_capacity_bits=local_capacity_bits,
    )


def _n_bits_for_dim(dim: int) -> int:
    n_bits = (dim + 1).bit_length() - 1
    if 2**n_bits != dim + 1:
        raise GptError(f"ball dimension {dim} is not of the form 2^N - 1")
    return n_bits


def random_product_measurement(
    dim_a: int, dim_b: int, rng: np.random.Generator
) -> np.ndarray:
    """Convex combination of product measurements, flattened over outcomes.

    Components share one (y1, y2) outcome grid; each contributes the
    product of two single-system measurements, mixed with flat-simplex
    weights.  The result sums to the bipartite unit by construction.
    Returns the ``(n_a n_b, dim_a + 1, dim_b + 1)`` stack of effect
    matrices, outcome ``(y1, y2)`` at index ``y1 n_b + y2``.

    After the outcome and component counts come the weights (standard
    exponentials, normalised: the flat Dirichlet law), then every
    component's A side in one ``random_measurements`` draw and every B side
    in another; one ``einsum`` sums the weighted outer products.
    """
    n_a = int(rng.integers(2, MAX_OUTCOMES_SIDE + 1))
    n_b = int(rng.integers(2, MAX_OUTCOMES_SIDE + 1))
    n_components = int(rng.integers(1, MAX_COMPONENTS + 1))
    weights = rng.standard_exponential(n_components)
    weights /= weights.sum()
    side_a = random_measurements(n_components, dim_a, n_a, rng)
    side_b = random_measurements(n_components, dim_b, n_b, rng)
    table = np.einsum("k,kam,kbn->abmn", weights, side_a, side_b)
    return table.reshape(n_a * n_b, dim_a + 1, dim_b + 1)


def sign_row_encodings(phi: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Stack of the encoded states ``T_x phi``, one per sign row ``d_x``.

    ``phi`` is the shared state's matrix.  ``T_x = diag(d_x)`` acts on the
    sender's side, so it scales row m of ``phi`` by ``d_x[m]``; no rotation
    matrix is built.
    """
    return signs[:, :, None] * phi


def _random_product_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Matrix ``(1, a) (1, b)^t`` of two states drawn uniformly from the ball.

    Both radii come first, then both directions, a's before b's.
    """
    rows = np.ones((2, dim + 1))
    rows[:, 1:] = rng.random((2, 1)) ** (1.0 / dim) * random_directions(2, dim, rng)
    return np.outer(rows[0], rows[1])


def separable_baseline(dim: int, trials: int, seed: int) -> float:
    """Best dense-coding rate over random product-state protocols.

    Each trial shares a random product state, encodes with a random subset
    of the discrete rotations, and decodes either with the Bell-type
    measurement or with a random convex-product measurement; the input
    prior is then optimised.  Product resources cannot beat one bit, so the
    returned maximum must stay below ``1 + OPT_TOL``.  The tables are
    searched by ``capacity.search_max`` from 0 bits, with
    ``BASELINE_BA_TOL`` and ``BASELINE_BA_MAX_ITER``; ``trials`` must be at
    least 1.
    """
    n_bits = _n_bits_for_dim(dim)
    rng = np.random.default_rng(seed)
    signs = hadamard_basis(n_bits)
    bell_effects = np.stack([e.matrix for e in bell_measurement(n_bits).effects])

    def draw_table():
        phi = _random_product_state(dim, rng)
        n_messages = int(rng.integers(2, 2**n_bits + 1))
        # A uniform ordered subset, as ``rng.choice(..., replace=False)`` gives.
        labels = rng.random(2**n_bits).argsort()[:n_messages]
        encoded = sign_row_encodings(phi, signs[labels])
        if rng.random() < BELL_FRACTION:
            effect_stack = bell_effects
        else:
            effect_stack = random_product_measurement(dim, dim, rng)
        return np.einsum("ymn,xmn->xy", effect_stack, encoded)

    return search_max(draw_table, trials, 0.0, BASELINE_BA_TOL, BASELINE_BA_MAX_ITER)


def product_decoding_baseline(n_bits: int, trials: int, seed: int) -> float:
    """Best rate with convex-product decodings on arbitrary shared states.

    The shared state may be entangled here; only the decoding is separable,
    and one bit remains the ceiling.  The tables are searched as in
    ``separable_baseline``.
    """
    dim = 2**n_bits - 1
    rng = np.random.default_rng(seed)
    signs = hadamard_basis(n_bits)

    def draw_table():
        if rng.random() < 0.5:
            phi = np.diag(signs[rng.integers(2**n_bits)]).astype(float)
        else:
            phi = _random_product_state(dim, rng)
        encoded = sign_row_encodings(phi, signs)
        effect_stack = random_product_measurement(dim, dim, rng)
        return np.einsum("ymn,xmn->xy", effect_stack, encoded)

    return search_max(draw_table, trials, 0.0, BASELINE_BA_TOL, BASELINE_BA_MAX_ITER)


def no_signalling_spread(n_bits: int, trials: int, seed: int) -> float:
    """Largest x-dependence of the receiver-side marginal under product decodings.

    For effects ``e_(y1) (x) f_(y2)`` measured on the encoded states
    ``T_x phi_0``, the marginal ``p(y2|x)`` may not depend on x; returns the
    maximum spread observed (should vanish to rounding).
    """
    dim = 2**n_bits - 1
    rng = np.random.default_rng(seed)
    encoded = sign_row_encodings(np.eye(2**n_bits), hadamard_basis(n_bits))  # phi_0 = I
    worst = 0.0
    for _ in range(trials):
        rows_a = random_measurement(dim, rng)
        rows_b = random_measurement(dim, rng)
        # p(y1, y2 | x) = e_(y1) . (phi_x f_(y2)); marginalise the sender side.
        joint = np.einsum("am,xmn,bn->xab", rows_a, encoded, rows_b)
        marginal = joint.sum(axis=1)
        worst = max(worst, float((marginal.max(axis=0) - marginal.min(axis=0)).max()))
    return worst


def teleport(
    input_state: State,
    n_bits: int,
    seed: int = 0,
    n_effects: int = 100,
) -> TeleportationRun:
    """Teleport ``input_state`` through the shared ``phi_0`` channel.

    For every sender outcome x the three-system contraction
    ``(E_x (x) e_y) . (omega (x) phi_0 T_x^t)`` is evaluated and compared
    with ``2^-N e_y . omega`` for ``n_effects`` random canonical receiver
    effects plus the unit, all outcomes as one stack; the largest conditional
    deviation is reported, and a failure names the first (x, effect) pair
    attaining it.  The joint table uses a canonical two-outcome receiver
    measurement, so its rows sum to the outcome prior ``p_x = 2^-N``.
    """
    dim = 2**n_bits - 1
    if input_state.dim != dim:
        raise GptError(
            f"input state has dimension {input_state.dim}, expected {dim}"
        )
    if not np.linalg.norm(input_state.r) <= 1.0 + EXACT_TOL:
        raise DomainError("input state lies outside the unit ball")
    if n_effects < 0:
        raise GptError(f"n_effects must be >= 0, got {n_effects}")

    # Extremal effects (1, m)/2 along n_effects + 1 random m, one draw: the
    # probes are the first n_effects plus the unit u, and the pair is the
    # canonical measurement {e_m, u - e_m} along the last m.
    directions = random_directions(n_effects + 1, dim, np.random.default_rng(seed))
    extremal = 0.5 * np.insert(directions, 0, 1.0, axis=1)
    unit = np.eye(1, dim + 1)[0]
    probe_rows = np.vstack((extremal[:-1], unit))
    pair_rows = np.array([extremal[-1], unit - extremal[-1]])

    omega = input_state.entries
    expected = probe_rows @ omega  # e_y . omega per probe effect
    signs = hadamard_basis(n_bits)
    # Row x is v_x = (d_0 o d_x) o (2^-N d_x o omega), so that (E_x (x) e_y) .
    # (omega (x) phi_0 T_x^t) = e_y . v_x; built in place to hold one float stack.
    v = 2.0**-n_bits * signs * omega
    v *= signs[0] * signs
    priors = v[:, 0].copy()
    # One mat-vec per outcome, as a stack: a single gemm would round differently.
    joint = (pair_rows @ v[:, :, None])[..., 0]
    conditional = (probe_rows @ v[:, :, None])[..., 0] / priors[:, None]
    residuals = np.abs(conditional - expected)
    max_residual = float(residuals.max())
    passed = max_residual <= EXACT_TOL
    worst = np.unravel_index(residuals.argmax(), residuals.shape)
    return TeleportationRun(
        n_bits=n_bits,
        input_state=input_state,
        joint=joint,
        outcome_priors=priors,
        max_residual=max_residual,
        passed=passed,
        witness=None if passed else tuple(int(i) for i in worst),
    )


def entanglement_swap(n_bits: int, label: int | None = 0, seed: int = 0) -> SwapRun:
    """Swap the entangled state ``phi_label`` onto the receiver's side.

    The sender holds ``phi_label`` with a bystander and shares ``phi_0``
    with the receiver.  After her Bell-type measurement (outcome x) and the
    receiver's correction, the joint statistics of every Bell-type effect
    on the far pair must reproduce ``phi_label``:
    ``p(y|x) = E'_y . phi_label = delta_(y,label)``.
    """
    if label is None:
        label = int(np.random.default_rng(seed).integers(2**n_bits))
    if not 0 <= label < 2**n_bits:
        raise GptError(f"label {label} out of range for {n_bits} bits")
    # Every state and effect is diagonal, so each contraction is a sum over
    # one index.  Rows of ``signs`` are the diagonals of the Bell-type
    # effects (times 2^N) and of the corrections T_x.
    signs = hadamard_basis(n_bits)
    phi_ac = signs[label]
    decode = 2.0**-n_bits * signs
    expected = decode @ phi_ac
    # Outcome x: E_x on the sender pair, phi_0 T_x^t = diag(d_x) after the
    # receiver's correction; (E_x (x) E'_y) . (phi_ac (x) corrected) sums
    # E_x o corrected o phi_ac o E'_y over the shared diagonal index.
    sender = decode * (signs[0] * signs)
    joint = (sender * phi_ac) @ decode.T
    priors = sender[:, 0] * phi_ac[0]
    conditional = joint / priors[:, None]
    max_residual = float(np.abs(conditional - expected[None, :]).max())
    return SwapRun(
        n_bits=n_bits,
        label=label,
        joint=joint,
        outcome_priors=priors,
        conditional=conditional,
        expected=expected,
        max_residual=max_residual,
        passed=max_residual <= EXACT_TOL,
    )
