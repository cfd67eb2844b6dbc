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
outcome occurring with probability ``2^-N``.  Swapping is the same circuit
fed the bystander's half ``d_label`` of ``phi_label``: ``_receiver_rows``
gives both the rows ``v_x = (d_0 o d_x) o (2^-N d_x o omega)`` of all
outcomes as one stack.  Every factor is +-1 or a power of two, so ``v_x =
2^-N omega`` exactly in any order and the residual is exactly 0.0 (for each
of 252 random states tried at N = 1..6); the reports are byte-stable.

The encoding ``T_x = diag(d_x)`` scales row m of the shared state's matrix
by ``d_x[m]``, so every falsifier table contracts the sign row last and no
encoded state ``T_x phi`` is built.

The separable baselines re-run dense coding with product resources and
check that nothing beats the single-system rate of 1 bit.  Their random
product states and product measurements are drawn as stacked arrays, one
generator call per quantity (see ``hst.random_measurements``), and their
tables are searched best first by ``capacity.search_max``.  A product
measurement checks both of its dimensions before its first draw, so a
refused call leaves the generator where it was.

The converse statement that teleportation needs a classical channel of N
bits is an impossibility argument, not an algorithm, and is out of scope
here; only the forward protocols are simulated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import variants
# Bound here too: bench/test_bench.py checks that tracing wraps this name.
from .capacity import blahut_arimoto, search_max  # noqa: F401
from .core import (
    EXACT_TOL,
    OPT_TOL,
    Channel,
    GptError,
    State,
    TheoryConfig,
    _check_count,
    _check_real,
)
from .hadamard import _check_label, _check_n_bits, bell_measurement, hadamard_basis
from .hst import (
    MAX_COMPONENTS,
    _check_dim,
    _random_measurements,
    extremal_rows,
    make_state,
    random_ball_points,
    random_directions,
    random_measurement,
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
class DenseCodingRun:
    n_bits: int
    theory: TheoryConfig
    channel: Channel
    info_bits: float


@dataclass(frozen=True, eq=False)
class TeleportationRun:
    n_bits: int
    outcome_priors: np.ndarray
    max_residual: float
    passed: bool
    witness: tuple | None


@dataclass(frozen=True, eq=False)
class SwapRun:
    n_bits: int
    label: int
    outcome_priors: np.ndarray
    conditional: np.ndarray
    expected: np.ndarray
    max_residual: float
    passed: bool


def dense_coding(n_bits: int, theory: TheoryConfig | None = None, seed: int = 0) -> DenseCodingRun:
    """Run the dense-coding protocol of the selected theory.

    The base model gives the exact ``2^N`` identity channel and ``N`` bits;
    every theory kind builds its checked channel and its closed-form rate
    through the diagonal model layer in ``variants``.  The channel does not
    depend on ``seed``: the embedded model's sphere rotations never reach
    the Hadamard corner.  ``seed`` must still be an integer >= 0, as for
    every seeded entry point.
    """
    _check_count("seed", seed, 0)
    if theory is None:
        theory = TheoryConfig.base(n_bits)
    if theory.n_bits != n_bits:
        raise GptError(
            f"theory is configured for {theory.n_bits} bits, asked for {n_bits}"
        )
    product = math.prod(variants.correlation_scales(theory))
    return DenseCodingRun(
        n_bits=theory.n_bits,
        theory=theory,
        channel=variants.dense_coding_channel(theory),
        info_bits=variants.dense_coding_info(theory.n_bits, product),
    )


def dc_capacity_lower_bound(theory: TheoryConfig) -> float:
    """Certified dense-coding rate of the theory's explicit protocol.

    The checked table's mutual information, ``N - H(q)`` for its first row
    q, is a lower bound on both the dense-coding capacity and the two-system
    classical capacity (the encoded states can simply be prepared).
    """
    return dense_coding(theory.n_bits, theory=theory).info_bits


def classify(dc_info_bits: float, local_capacity_bits: float) -> ProtocolLabel:
    """Grade a dense-coding rate against the local classical capacity.

    Optimizer slack is subtracted from the rate before the strict
    comparisons, so iterative estimates never over-classify.
    """
    adjusted = _check_real("dc_info_bits", dc_info_bits, 0.0, math.inf) - OPT_TOL
    local_capacity_bits = _check_real("local_capacity_bits", local_capacity_bits, 0.0, math.inf)
    if adjusted > 2.0 * local_capacity_bits:
        return ProtocolLabel.HYPERDENSE
    if adjusted > local_capacity_bits:
        return ProtocolLabel.SUPERDENSE
    return ProtocolLabel.ORDINARY


def _n_bits_for_dim(dim: int) -> int:
    dim = _check_count("ball dimension", dim, 1)
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
    in another; one ``einsum`` sums the weighted outer products.  Both
    dimensions must be integers in ``[1, MAX_DIM]``; they are checked
    before the first draw, so a refused call leaves ``rng`` untouched.
    """
    dim_a, dim_b = _check_dim(dim_a), _check_dim(dim_b)
    n_a = int(rng.integers(2, MAX_OUTCOMES_SIDE + 1, dtype=np.int32))
    n_b = int(rng.integers(2, MAX_OUTCOMES_SIDE + 1, dtype=np.int32))
    n_components = int(rng.integers(1, MAX_COMPONENTS + 1, dtype=np.int32))
    weights = rng.standard_exponential(n_components)
    weights /= weights.sum()
    side_a = _random_measurements(n_components, dim_a, n_a, rng)
    side_b = _random_measurements(n_components, dim_b, n_b, rng)
    table = np.einsum("k,kam,kbn->abmn", weights, side_a, side_b)
    return table.reshape(n_a * n_b, dim_a + 1, dim_b + 1)


def _random_product_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Matrix ``(1, a) (1, b)^t`` of two states drawn uniformly from the ball.

    Both radii come first, then both directions, a's before b's.
    """
    rows = np.ones((2, dim + 1))
    rows[:, 1:] = random_ball_points(2, dim, rng)
    return rows[0][:, None] * rows[1]


def separable_baseline(dim: int, trials: int, seed: int, best: float = 0.0) -> float:
    """Best dense-coding rate over random product-state protocols.

    Each trial shares a random product state, encodes with a random subset
    of the discrete rotations, and decodes either with the Bell-type
    measurement or with a random convex-product measurement; the input
    prior is then optimised.  Product resources cannot beat one bit, so the
    returned maximum must stay below ``1 + OPT_TOL``.  The tables are
    searched by ``capacity.search_max`` from ``best`` bits, with
    ``BASELINE_BA_TOL`` and ``BASELINE_BA_MAX_ITER``, and the result is the
    maximum of ``best`` and their rates; a caller that splits one search
    into seeded chunks passes the running best so that no chunk optimises
    a table already beaten.  ``trials`` must be at least 1.
    """
    n_bits = _n_bits_for_dim(dim)
    dim = 2**n_bits - 1  # a plain int: numpy integers wrap
    rng = np.random.default_rng(_check_count("seed", seed, 0))
    signs = hadamard_basis(n_bits)
    bell_effects = np.stack([e.matrix for e in bell_measurement(n_bits).effects])

    def draw_table():
        phi = _random_product_state(dim, rng)
        n_messages = int(rng.integers(2, 2**n_bits + 1, dtype=np.int32))
        # A uniform ordered subset, as ``rng.choice(..., replace=False)`` gives.
        labels = rng.random(2**n_bits).argsort()[:n_messages]
        if rng.random() < BELL_FRACTION:
            effect_stack = bell_effects
        else:
            effect_stack = random_product_measurement(dim, dim, rng)
        return np.einsum("xm,ymn->xy", signs[labels], effect_stack * phi)

    return search_max(
        lambda count: [draw_table() for _ in range(count)],
        trials, best, BASELINE_BA_TOL, BASELINE_BA_MAX_ITER,
    )


def product_decoding_baseline(n_bits: int, trials: int, seed: int) -> float:
    """Best rate with convex-product decodings on arbitrary shared states.

    The shared state may be entangled here; only the decoding is separable,
    and one bit remains the ceiling.  The tables are searched as in
    ``separable_baseline``.
    """
    n_bits = _check_n_bits(n_bits)
    dim = 2**n_bits - 1
    rng = np.random.default_rng(_check_count("seed", seed, 0))
    signs = hadamard_basis(n_bits)

    def draw_table():
        if rng.random() < 0.5:
            phi = np.diag(signs[rng.integers(0, 2**n_bits, dtype=np.int32)])
        else:
            phi = _random_product_state(dim, rng)
        effect_stack = random_product_measurement(dim, dim, rng)
        return np.einsum("xm,ymn->xy", signs, effect_stack * phi)

    return search_max(
        lambda count: [draw_table() for _ in range(count)],
        trials, 0.0, BASELINE_BA_TOL, BASELINE_BA_MAX_ITER,
    )


def no_signalling_spread(n_bits: int, trials: int, seed: int) -> float:
    """Largest x-dependence of the receiver-side marginal under product decodings.

    For effects ``e_(y1) (x) f_(y2)`` measured on the encoded states
    ``T_x phi_0``, the marginal ``p(y2|x)`` may not depend on x; returns the
    maximum spread observed (should vanish to rounding).  ``trials`` must
    be an integer of at least 1.
    """
    n_bits = _check_n_bits(n_bits)
    _check_count("trials", trials, 1)
    dim = 2**n_bits - 1
    rng = np.random.default_rng(_check_count("seed", seed, 0))
    signs = hadamard_basis(n_bits)
    worst = 0.0
    for _ in range(trials):
        rows_a = random_measurement(dim, rng)
        rows_b = random_measurement(dim, rng)
        # p(y1, y2 | x) = e_(y1) . (T_x f_(y2)), as phi_0 = I; marginalise y1.
        joint = np.einsum("am,xm,bm->xab", rows_a, signs, rows_b)
        marginal = joint.sum(axis=1)
        worst = max(worst, float((marginal.max(axis=0) - marginal.min(axis=0)).max()))
    return worst


def _receiver_rows(signs: np.ndarray, omega: np.ndarray, n_bits: int) -> np.ndarray:
    """Receiver rows ``v_x`` after outcome x on ``omega`` and the correction
    ``T_x``, ``signs`` holding the rows ``d_x``; built in one float stack."""
    v = 2.0**-n_bits * signs * omega
    v *= signs[0] * signs
    return v


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
    attaining it.
    """
    n_bits = _check_n_bits(n_bits)
    dim = 2**n_bits - 1
    if input_state.dim != dim:
        raise GptError(
            f"input state has dimension {input_state.dim}, expected {dim}"
        )
    make_state(input_state.r)  # refuses a state outside the unit ball
    _check_count("n_effects", n_effects, 0)

    # The probes are the extremal effects (1, m)/2 along the first n_effects
    # rows of one draw of n_effects + 1 random m, then the unit u.
    rng = np.random.default_rng(_check_count("seed", seed, 0))
    probe_rows = extremal_rows(random_directions(n_effects + 1, dim, rng))
    probe_rows[-1] = np.eye(1, dim + 1)[0]

    omega = input_state.entries
    expected = probe_rows @ omega  # e_y . omega per probe effect
    # (E_x (x) e_y) . (omega (x) phi_0 T_x^t) = e_y . v_x
    v = _receiver_rows(hadamard_basis(n_bits), omega, n_bits)
    priors = v[:, 0].copy()
    # One mat-vec per outcome, as a stack: a single gemm would round differently.
    conditional = (probe_rows @ v[:, :, None])[..., 0] / priors[:, None]
    residuals = np.abs(conditional - expected)
    max_residual = float(residuals.max())
    passed = max_residual <= EXACT_TOL
    worst = np.unravel_index(residuals.argmax(), residuals.shape)
    return TeleportationRun(
        n_bits=n_bits,
        outcome_priors=priors,
        max_residual=max_residual,
        passed=passed,
        witness=None if passed else tuple(int(i) for i in worst),
    )


def entanglement_swap(n_bits: int, label: int = 0, seed: int = 0) -> SwapRun:
    """Swap the entangled state ``phi_label`` onto the receiver's side.

    The sender holds ``phi_label`` with a bystander and shares ``phi_0``
    with the receiver.  After her Bell-type measurement (outcome x) and the
    receiver's correction, the joint statistics of every Bell-type effect
    on the far pair must reproduce ``phi_label``:
    ``p(y|x) = E'_y . phi_label = delta_(y,label)``.  The swap draws
    nothing, so ``seed`` does not change the result; it must still be an
    integer >= 0.
    """
    _check_count("seed", seed, 0)
    n_bits = _check_label(label, n_bits)
    signs = hadamard_basis(n_bits)
    v = _receiver_rows(signs, signs[label], n_bits)
    decode = 2.0**-n_bits * signs
    expected = decode @ signs[label]
    del signs
    priors = v[:, 0].copy()
    conditional = v @ decode.T
    del v, decode
    conditional /= priors[:, None]
    gap = conditional - expected  # one buffer for the absolute gap
    max_residual = float(np.abs(gap, out=gap).max())
    return SwapRun(
        n_bits=n_bits,
        label=label,
        outcome_priors=priors,
        conditional=conditional,
        expected=expected,
        max_residual=max_residual,
        passed=max_residual <= EXACT_TOL,
    )
