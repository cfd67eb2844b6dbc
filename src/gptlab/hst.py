"""Single-system hypersphere models.

The normalised states of an n-dimensional hypersphere system form the unit
ball: ``omega_r = (1, r)`` with ``||r|| <= 1``, pure iff ``||r|| = 1``.  The
extremal effects are ``e_m = (1, m)/2`` with ``||m|| = 1``; every physical
effect is a convex combination of extremals, the zero effect and the unit.
Each unit vector m defines the canonical two-outcome measurement
``{e_m, e_-m}``.  A single such system can carry at most one bit, which the
antipodal protocol attains.
"""

from __future__ import annotations

import numpy as np

from .capacity import search_max
from .core import (
    EXACT_TOL,
    Channel,
    DomainError,
    Effect,
    GptError,
    Measurement,
    State,
    contract,
    mutual_information,
)

MAX_DIM = 2**20
# Sizes of the random protocols the falsifiers draw, and the
# Blahut-Arimoto settings ``capacity_search`` optimises each prior with.
MAX_STATES = 8
MAX_OUTCOMES = 8
MAX_COMPONENTS = 8
BA_TOL = 1e-6
BA_MAX_ITER = 60


def _check_dim(dim: int) -> None:
    if dim < 1 or dim > MAX_DIM:
        raise DomainError(f"ball dimension must be in [1, {MAX_DIM}], got {dim}")


def make_state(r) -> State:
    """State ``(1, r)``; requires ``||r|| <= 1``."""
    r = np.asarray(r, dtype=float)
    _check_dim(r.size)
    norm = np.linalg.norm(r)
    if not norm <= 1.0 + EXACT_TOL:
        raise DomainError(f"state coordinates have norm {norm!r} > 1")
    return State(np.concatenate(([1.0], r)))


def make_extremal_effect(direction) -> Effect:
    """Extremal effect ``(1, m)/2``; requires ``||m|| = 1``."""
    direction = np.asarray(direction, dtype=float)
    _check_dim(direction.size)
    norm = np.linalg.norm(direction)
    if not abs(norm - 1.0) <= EXACT_TOL:
        raise DomainError(f"effect direction has norm {norm!r}, expected 1")
    return Effect(0.5 * np.concatenate(([1.0], direction)))


def make_effect(weight: float, direction) -> Effect:
    """General effect ``weight * (1, direction)``, validated on the ball.

    Validity over the unit ball is exactly ``weight*(1+||direction||) <= 1``
    and ``weight*(1-||direction||) >= 0``.
    """
    direction = np.asarray(direction, dtype=float)
    _check_dim(direction.size)
    e = Effect(weight * np.concatenate(([1.0], direction)))
    lo, hi = effect_probability_range(e)
    if not (lo >= -EXACT_TOL and hi <= 1.0 + EXACT_TOL):
        raise DomainError(
            f"effect takes probabilities in [{lo!r}, {hi!r}] on the ball"
        )
    return e


def effect_probability_range(effect: Effect) -> tuple:
    """Exact min/max of ``e . omega`` over the unit ball of states."""
    base = float(effect.entries[0])
    span = float(np.linalg.norm(effect.entries[1:]))
    return base - span, base + span


def canonical_measurement(direction) -> Measurement:
    """The two-outcome measurement ``{e_m, e_-m}`` along a unit vector."""
    direction = np.asarray(direction, dtype=float)
    return Measurement((make_extremal_effect(direction), make_extremal_effect(-direction)))


def capacity_upper_bound(effect_norm: float, state_norm: float) -> float:
    """Classical-capacity bound ``log2(1 + M R)`` from the two norm radii."""
    if not (effect_norm >= 0 and state_norm >= 0):
        raise GptError("norm bounds must be non-negative")
    return float(np.log2(1.0 + effect_norm * state_norm))


def one_bit_protocol(dim: int, encode_direction=None, decode_direction=None) -> Channel:
    """Antipodal encoding read out by a canonical measurement.

    Messages 0 and 1 are encoded in ``omega_r`` and ``omega_-r`` with a
    uniform prior and decoded along ``decode_direction`` (default: the
    encoding direction, which yields the exact 2x2 identity channel and
    mutual information 1).
    """
    _check_dim(dim)
    if encode_direction is None:
        encode_direction = np.zeros(dim)
        encode_direction[0] = 1.0
    encode_direction = np.asarray(encode_direction, dtype=float)
    if decode_direction is None:
        decode_direction = encode_direction
    states = (make_state(encode_direction), make_state(-encode_direction))
    meas = canonical_measurement(decode_direction)
    conditional = np.array(
        [[contract(e, s) for e in meas.effects] for s in states]
    )
    return Channel(prior=np.array([0.5, 0.5]), conditional=conditional)


def random_directions(count: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` uniform points on the unit sphere, as rows.

    One Gaussian draw with each row divided by the square root of its dot
    product, so row k is bit for bit what the k-th of ``count`` successive
    ``random_direction`` calls returns.
    """
    v = rng.standard_normal((count, dim))
    return v / np.sqrt(np.vecdot(v, v))[:, None]


def random_direction(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform point on the unit sphere (normalised Gaussian vector)."""
    return random_directions(1, dim, rng)[0]


def random_pure_state(dim: int, rng: np.random.Generator) -> State:
    return make_state(random_direction(dim, rng))


def random_ball_point(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Point drawn uniformly from the unit ball."""
    radius = rng.random() ** (1.0 / dim)
    return radius * random_direction(dim, rng)


def random_state(dim: int, rng: np.random.Generator) -> State:
    """State drawn uniformly from the unit ball."""
    return make_state(random_ball_point(dim, rng))


def random_measurements(
    count: int, dim: int, n_outcomes: int, rng: np.random.Generator
) -> np.ndarray:
    """``count`` random measurements built from physical effects only.

    Each measurement mixes 1 to ``MAX_COMPONENTS`` components with
    flat-simplex weights, scattering their effects over its
    ``n_outcomes`` outcomes: a component is the trivial unit measurement
    with probability 0.15 and otherwise the canonical pair
    ``e_(+-m) = (1, +-m)/2`` along a random m.  Every resulting effect is a
    convex combination of extremal effects, the zero effect and the unit,
    and each measurement's effects sum to the unit by construction.
    Returns the ``(count, n_outcomes, dim + 1)`` stack of effect rows.

    All components of all measurements are drawn at once, in this order:
    the component counts; one standard exponential per component,
    normalised per measurement (the flat Dirichlet law); one uniform row
    of ``n_outcomes + 1`` per component, whose column 0 picks the unit
    component and whose argsorted other columns give two distinct, uniform,
    ordered slots; and one ``random_directions`` row per component.  One
    unbuffered ``np.add.at`` sums the effects in component order, first
    slot then second, so the stack equals that per-component loop bit for
    bit whatever BLAS is linked.
    """
    if n_outcomes < 2:
        raise GptError(f"a random measurement needs >= 2 outcomes, got {n_outcomes}")
    owner = np.repeat(np.arange(count), rng.integers(1, MAX_COMPONENTS + 1, size=count))
    weights = rng.standard_exponential(owner.size)
    weights /= np.bincount(owner, weights, minlength=count)[owner]
    coins = rng.random((owner.size, n_outcomes + 1))
    unit = coins[:, 0] < 0.15
    slots = owner[:, None] * n_outcomes + coins[:, 1:].argsort(axis=1)[:, :2]
    directions = random_directions(owner.size, dim, rng)
    # A component adds w (1, m)/2 to its first slot and w (1, -m)/2 to its
    # second, or the unit w (1, 0) to its first slot and zero to its second.
    half = np.where(unit, 0.0, 0.5 * weights)
    rows = np.empty((owner.size, 2, dim + 1))
    rows[:, 0, 0] = np.where(unit, weights, half)
    rows[:, 0, 1:] = half[:, None] * directions
    rows[:, 1, 0] = half
    rows[:, 1, 1:] = -rows[:, 0, 1:]
    table = np.zeros((count * n_outcomes, dim + 1))
    np.add.at(table, slots, rows)
    return table.reshape(count, n_outcomes, dim + 1)


def random_measurement(dim: int, rng: np.random.Generator) -> np.ndarray:
    """One random measurement, as its ``(n_outcomes, dim + 1)`` effect rows.

    The outcome count is drawn first, uniform in ``2..MAX_OUTCOMES``; the
    rest is the one-row case of ``random_measurements``.
    """
    n_outcomes = int(rng.integers(2, MAX_OUTCOMES + 1))
    return random_measurements(1, dim, n_outcomes, rng)[0]


def capacity_search(dim: int, trials: int, seed: int) -> float:
    """Best information rate found over random single-system protocols.

    Each trial draws 2 to ``MAX_STATES`` encoding states and a random
    measurement, and its table's input prior is optimised.  The states are
    the rows of one array: one uniform pair per state (pure with
    probability 1/2, otherwise radius ``u ** (1/dim)``, uniform in the
    ball) and one ``random_directions`` draw.  The search starts from the
    antipodal protocol's one bit, so the result is at least 1 bit; the
    returned maximum must never exceed 1 by more than optimizer slack.
    The tables are searched by ``capacity.search_max`` with ``BA_TOL`` and
    ``BA_MAX_ITER``: best first, each optimiser reporting an achieved rate
    (a lower bound), so looser settings never inflate the maximum.
    ``trials`` must be at least 1.
    """
    rng = np.random.default_rng(seed)

    def draw_table():
        n_states = int(rng.integers(2, MAX_STATES + 1))
        coins = rng.random((2, n_states))
        radii = np.where(coins[0] < 0.5, 1.0, coins[1] ** (1.0 / dim))
        rows = np.ones((n_states, dim + 1))
        rows[:, 1:] = radii[:, None] * random_directions(n_states, dim, rng)
        effect_rows = random_measurement(dim, rng)
        # One mat-vec per state, as a stack: a single gemm would round differently.
        return (effect_rows @ rows[:, :, None])[..., 0]

    best = mutual_information(one_bit_protocol(dim))
    return search_max(draw_table, trials, best, BA_TOL, BA_MAX_ITER)
