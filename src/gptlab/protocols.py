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
check that nothing beats the single-system rate of 1 bit.  Their tables
are searched best first by ``capacity.search_max``, a block at a time.  A
block draws its random inputs as stacks, each table with the law of one
drawn alone, and contracts each table as its effect stack is formed, so
it holds one effect stack at a time.

The converse statement that teleportation needs a classical channel of N
bits is an impossibility argument, not an algorithm, and is out of scope
here; only the forward protocols are simulated.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import variants
# Bound here too: bench/test_bench.py checks that tracing wraps this name.
from .capacity import blahut_arimoto, search_max  # noqa: F401
from .core import (
    BASELINE_MAX_N_BITS,
    EXACT_TOL,
    OPT_TOL,
    GptError,
    State,
    SymmetricChannel,
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
    # The checked row's two values; the table is built when it is read.
    channel: SymmetricChannel
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
    count: int, dim_a: int, dim_b: int, rng: np.random.Generator
):
    """A block of ``count`` random product measurements: yields ``(j,
    stack)``, measurement j's ``(n_a n_b, dim_a + 1, dim_b + 1)`` effects,
    outcome ``(y1, y2)`` at index ``y1 n_b + y2``.

    Each mixes 1 to ``MAX_COMPONENTS`` products of two measurements on one
    ``n_a`` by ``n_b`` grid (sides uniform in ``2..MAX_OUTCOMES_SIDE``)
    with flat-simplex weights, so it sums to the bipartite unit.  The call
    draws the ``(2, count)`` outcome counts (row 0 for side A), the
    component counts, the weights (standard exponentials, normalised) and
    the A sides; the iterator draws the B sides an outcome count at a time,
    ascending, and yields that count's stacks as it forms them.  ``count``
    and both dimensions are checked before the first draw.
    """
    count = _check_count("count", count, 0)
    dim_a, dim_b = _check_dim(dim_a), _check_dim(dim_b)
    outcomes = rng.integers(2, MAX_OUTCOMES_SIDE + 1, size=(2, count))
    components = rng.integers(1, MAX_COMPONENTS + 1, size=count)
    owner = np.repeat(np.arange(count), components)
    weights = rng.standard_exponential(owner.size)
    weights /= np.bincount(owner, weights, minlength=count)[owner]
    outcomes, components = outcomes.tolist(), components.tolist()
    ends = list(itertools.accumulate(components))
    # Copies, so that each A side is freed with its stack.
    sides_a = {j: a.copy() for j, a in _side_measurements(outcomes[0], components, dim_a, rng)}
    return (
        (j, np.einsum("k,kam,kbn->abmn", weights[ends[j] - len(b) : ends[j]], sides_a.pop(j), b)
         .reshape(-1, dim_a + 1, dim_b + 1))
        for j, b in _side_measurements(outcomes[1], components, dim_b, rng)
    )


def _side_measurements(outcomes: list, components: list, dim: int, rng: np.random.Generator):
    """Yields ``(j, side)``, the ``(k_j, n_j, dim + 1)`` sides of
    measurement j's components, from one ``_random_measurements`` draw per
    outcome count present, ascending, made as the iterator reaches it."""
    for n in sorted(set(outcomes)):
        members = [j for j, outcome in enumerate(outcomes) if outcome == n]
        stack = _random_measurements(sum(components[j] for j in members), dim, n, rng)
        start = 0
        for j in members:
            yield j, stack[start : start + components[j]]
            start += components[j]
        del stack  # before the next draw


def _random_product_states(count: int, dim: int, rng: np.random.Generator):
    """``state(k)``, the k-th of ``count`` product states ``(1, a) (1, b)^t``,
    formed when called; one ``random_ball_points`` draw gives state k its
    points 2k and 2k + 1.  ``count`` and ``dim`` are checked first."""
    count = _check_count("count", count, 0)
    points = random_ball_points(2 * count, dim, rng)
    rows = np.ones((count, 2, dim + 1))
    # The width is spelled out: -1 cannot be inferred from 0 points.
    rows[:, :, 1:] = points.reshape(count, 2, dim)
    return lambda k: rows[k, 0][:, None] * rows[k, 1]


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
    a table already beaten.

    A block draws, in this order: its product states, its message counts,
    one uniform row per table whose argsort orders its messages, its Bell
    coins (probability ``BELL_FRACTION``) and the product measurements of
    the other tables.  ``dim`` must be ``2^N - 1`` with ``N <=
    BASELINE_MAX_N_BITS`` and ``trials`` at least 1, checked first.
    """
    n_bits = _check_count("n_bits", _n_bits_for_dim(dim), 1, maximum=BASELINE_MAX_N_BITS)
    dim = 2**n_bits - 1  # a plain int: numpy integers wrap
    rng = np.random.default_rng(_check_count("seed", seed, 0))
    signs = hadamard_basis(n_bits)
    bell_effects = np.stack([e.matrix for e in bell_measurement(n_bits).effects])

    def draw_block(count):
        state = _random_product_states(count, dim, rng)
        n_messages = rng.integers(2, 2**n_bits + 1, size=count).tolist()
        # A uniform ordered subset, as ``rng.choice(..., replace=False)`` gives.
        orders = rng.random((count, 2**n_bits)).argsort(axis=1)
        bell = rng.random(count) < BELL_FRACTION
        decoded = np.flatnonzero(~bell).tolist()
        stacks = itertools.chain(
            ((j, bell_effects) for j in np.flatnonzero(bell).tolist()),
            ((decoded[i], m) for i, m in random_product_measurement(len(decoded), dim, dim, rng)),
        )
        tables = [None] * count
        for j, effect_stack in stacks:
            labels = signs[orders[j, : n_messages[j]]]
            tables[j] = np.einsum("xm,ymn->xy", labels, effect_stack * state(j))
        return tables

    return search_max(draw_block, trials, best, BASELINE_BA_TOL, BASELINE_BA_MAX_ITER)


def product_decoding_baseline(n_bits: int, trials: int, seed: int) -> float:
    """Best rate with convex-product decodings on arbitrary shared states.

    The shared state may be entangled here; only the decoding is separable,
    and one bit remains the ceiling.  A table's state is, with probability
    1/2, ``phi_label = diag(d_label)`` of a uniform label, and otherwise a
    random product state.  A block draws, in this order: its coins, the
    labels, the product states and a product measurement per table.  The
    search is as in ``separable_baseline``; ``n_bits`` is at most
    ``BASELINE_MAX_N_BITS``.
    """
    n_bits = _check_count("n_bits", n_bits, 1, maximum=BASELINE_MAX_N_BITS)
    dim = 2**n_bits - 1
    rng = np.random.default_rng(_check_count("seed", seed, 0))
    signs = hadamard_basis(n_bits)

    def draw_block(count):
        entangled = rng.random(count) < 0.5
        labels = rng.integers(0, 2**n_bits, size=np.count_nonzero(entangled)).tolist()
        state = _random_product_states(count - len(labels), dim, rng)
        # Table j's place among the tables of its kind.
        place = np.where(entangled, entangled.cumsum(), (~entangled).cumsum()) - 1
        entangled, place = entangled.tolist(), place.tolist()
        tables = [None] * count
        for j, effect_stack in random_product_measurement(count, dim, dim, rng):
            phi = np.diag(signs[labels[place[j]]]) if entangled[j] else state(place[j])
            tables[j] = np.einsum("xm,ymn->xy", signs, effect_stack * phi)
        return tables

    return search_max(draw_block, trials, 0.0, BASELINE_BA_TOL, BASELINE_BA_MAX_ITER)


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
