"""Single-system hypersphere models.

The normalised states of an n-dimensional hypersphere system form the unit
ball: ``omega_r = (1, r)`` with ``||r|| <= 1``, pure iff ``||r|| = 1``.  The
extremal effects are ``e_m = (1, m)/2`` with ``||m|| = 1``; every physical
effect is a convex combination of extremals, the zero effect and the unit.
Each unit vector m defines the canonical two-outcome measurement
``{e_m, e_-m}``.  A single such system can carry at most one bit, which the
antipodal protocol attains.

The one-bit searches draw thousands of tiny tables, so each table's fixed
numpy cost counts.  ``capacity_search`` draws the state rows of a whole
search block at once, in its own order (see there).  Every other shortcut
here leaves each draw and each float operation the same and in the same
order, so it changes no table by a bit: ``random_measurement``, drawn once
per ``capacity_search`` table, is the one-row case of
``random_measurements`` on Python scalars, bit for bit (see there).
"""

from __future__ import annotations

import math

import numpy as np

from .capacity import search_max
from .core import (
    EXACT_TOL,
    Channel,
    DomainError,
    Effect,
    Measurement,
    State,
    _check_count,
    _check_real,
    _real_array,
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
# Components whose directions and effect rows one ``random_measurements``
# draw builds at a time.
DRAW_CHUNK = 256


def _check_dim(dim) -> int:
    """``dim`` as an ``int``; a ``DomainError`` unless it is a non-bool
    integer in ``[1, MAX_DIM]``."""
    return _check_count("ball dimension", dim, 1, DomainError, MAX_DIM)


def _check_vector(values, name: str) -> np.ndarray:
    """``values`` as a float vector; a ``DomainError`` unless it is 1-D with
    a size in ``[1, MAX_DIM]``, and a ``GptError`` unless its entries are
    real numbers."""
    values = _real_array(name, values)
    if values.ndim != 1:
        raise DomainError(f"{name} must be a vector, got shape {values.shape}")
    _check_dim(values.size)
    return values


def make_state(r) -> State:
    """State ``(1, r)``; requires a vector r with ``||r|| <= 1``."""
    r = _check_vector(r, "state coordinates")
    norm = np.linalg.norm(r)
    if not norm <= 1.0 + EXACT_TOL:
        raise DomainError(f"state coordinates have norm {norm!r} > 1")
    return State(np.concatenate(([1.0], r)))


def make_extremal_effect(direction) -> Effect:
    """Extremal effect ``(1, m)/2``; requires a vector m with ``||m|| = 1``."""
    direction = _check_vector(direction, "effect direction")
    norm = np.linalg.norm(direction)
    if not abs(norm - 1.0) <= EXACT_TOL:
        raise DomainError(f"effect direction has norm {norm!r}, expected 1")
    return Effect(0.5 * np.concatenate(([1.0], direction)))


def canonical_measurement(direction) -> Measurement:
    """The two-outcome measurement ``{e_m, e_-m}`` along a unit vector."""
    direction = _real_array("effect direction", direction)
    return Measurement((make_extremal_effect(direction), make_extremal_effect(-direction)))


def capacity_upper_bound(effect_norm: float, state_norm: float) -> float:
    """Classical-capacity bound ``log2(1 + M R)`` from the two norm radii,
    each a finite real number >= 0."""
    effect_norm = _check_real("effect_norm", effect_norm, 0.0, math.inf)
    state_norm = _check_real("state_norm", state_norm, 0.0, math.inf)
    return float(np.log2(1.0 + effect_norm * state_norm))


def one_bit_protocol(dim: int) -> Channel:
    """Antipodal encoding read out by a canonical measurement.

    Messages 0 and 1 are encoded in ``omega_r`` and ``omega_-r`` along the
    first axis with a uniform prior and decoded along that axis, which
    yields the exact 2x2 identity channel and mutual information 1.
    """
    direction = np.zeros(_check_dim(dim))
    direction[0] = 1.0
    states = (make_state(direction), make_state(-direction))
    meas = canonical_measurement(direction)
    conditional = np.array(
        [[contract(e, s) for e in meas.effects] for s in states]
    )
    return Channel(prior=np.array([0.5, 0.5]), conditional=conditional)


def random_directions(count: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` uniform points on the unit sphere, as rows.

    One Gaussian draw with each row divided by the square root of its dot
    product, so row k is bit for bit what the k-th of ``count`` successive
    ``random_direction`` calls returns.  ``count`` must be an integer of
    at least 0 and ``dim`` in ``[1, MAX_DIM]``; both are checked before
    the draw.
    """
    count = _check_count("count", count, 0)
    dim = _check_dim(dim)
    v = rng.standard_normal((count, dim))
    v /= np.sqrt(np.vecdot(v, v))[:, None]
    return v


def extremal_rows(directions: np.ndarray) -> np.ndarray:
    """Rows ``(1, m)/2`` of the extremal effects along the rows ``m`` of a
    ``(count, dim)`` array, bit for bit ``0.5 * (1, m)``."""
    rows = np.empty((directions.shape[0], directions.shape[1] + 1))
    rows[:, 0] = 0.5
    np.multiply(directions, 0.5, out=rows[:, 1:])
    return rows


def random_direction(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform point on the unit sphere (normalised Gaussian vector)."""
    return random_directions(1, dim, rng)[0]


def random_pure_state(dim: int, rng: np.random.Generator) -> State:
    return make_state(random_direction(dim, rng))


def random_ball_points(count: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` points drawn uniformly from the unit ball, as rows.

    All radii ``u ** (1/dim)`` come first, then one ``random_directions``
    draw.  ``count`` and ``dim`` are checked as there, before the draw.
    """
    count = _check_count("count", count, 0)
    dim = _check_dim(dim)
    radii = rng.random(count) ** (1.0 / dim)
    return radii[:, None] * random_directions(count, dim, rng)


def random_state(dim: int, rng: np.random.Generator) -> State:
    """State drawn uniformly from the unit ball."""
    return make_state(random_ball_points(1, dim, rng)[0])


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
    ordered slots; and one ``random_directions`` row per component, drawn
    ``DRAW_CHUNK`` components at a time (the same Gaussian stream as one
    draw).  Unbuffered ``np.add.at`` calls sum the effects in component
    order, first slot then second, so the stack equals that per-component
    loop bit for bit whatever BLAS is linked.  ``random_measurement`` is the one-row
    case, bit for bit, on Python scalars.  ``count`` must be an integer of
    at least 0 and ``n_outcomes`` of at least 2, and ``dim`` in
    ``[1, MAX_DIM]``; a bool is refused.
    """
    count = _check_count("count", count, 0)
    dim = _check_dim(dim)
    n_outcomes = _check_count("n_outcomes", n_outcomes, 2)
    return _random_measurements(count, dim, n_outcomes, rng)


def _random_measurements(
    count: int, dim: int, n_outcomes: int, rng: np.random.Generator
) -> np.ndarray:
    """The body of ``random_measurements``, for arguments already checked:
    ``count`` and ``n_outcomes`` Python ints of at least 0 and 2, ``dim`` an
    int in ``[1, MAX_DIM]``."""
    owner = np.repeat(np.arange(count), rng.integers(1, MAX_COMPONENTS + 1, size=count))
    weights = rng.standard_exponential(owner.size)
    weights /= np.bincount(owner, weights, minlength=count)[owner]
    coins = rng.random((owner.size, n_outcomes + 1))
    # Measurement j owns rows j n_outcomes onward of the flat table.
    slots = owner[:, None] * n_outcomes + coins[:, 1:].argsort(axis=1)[:, :2]
    # A component adds w (1, m)/2 to its first slot and w (1, -m)/2 to its
    # second, or the unit w (1, 0) to its first slot and zero to its second.
    unit = coins[:, 0] < 0.15
    table = np.zeros((count * n_outcomes, dim + 1))
    # The directions are the last draw, so a chunk at a time keeps the stream.
    for start in range(0, owner.size, DRAW_CHUNK):
        part = slice(start, start + DRAW_CHUNK)
        directions = random_directions(len(unit[part]), dim, rng)
        rows = np.empty((len(directions), 2, dim + 1))
        half, first = rows[:, 1, 0], rows[:, 0, 0]
        np.multiply(weights[part], 0.5, out=half)
        np.copyto(half, 0.0, where=unit[part])
        np.copyto(first, half)
        np.copyto(first, weights[part], where=unit[part])
        np.multiply(directions, half[:, None], out=rows[:, 0, 1:])
        np.negative(rows[:, 0, 1:], out=rows[:, 1, 1:])
        np.add.at(table, slots[part], rows)
    return table.reshape(count, n_outcomes, dim + 1)


def random_measurement(dim: int, rng: np.random.Generator) -> np.ndarray:
    """One random measurement, as its ``(n_outcomes, dim + 1)`` effect rows.

    The outcome count is drawn first, uniform in ``2..MAX_OUTCOMES``; the
    rest is the one-row case of ``random_measurements``, bit for bit, with
    its own body for the at most ``MAX_COMPONENTS`` components.  The draws
    come in the same order: the component count (as a scalar, which takes
    the same value from the same stream), the standard exponentials, the
    uniform row per component and the Gaussian directions, normalised as
    ``random_directions`` does.  The weights, their normaliser, the unit
    test and the half-weights are Python floats.  The normaliser is summed
    by an explicit left-to-right loop, the order of ``np.bincount``:
    ``sum()`` compensates float sums from CPython 3.12 on, so it would give
    other bits on other Pythons.  Each component's signed half-weights,
    ``(h, -h)`` or ``(0, 0)`` for the unit, scale its direction for both
    effect rows in one multiply; a unit's signed zeros vanish in the
    table, which starts at +0.  ``dim`` must be an integer in
    ``[1, MAX_DIM]``, checked before any draw.
    """
    dim = _check_dim(dim)
    n_outcomes = int(rng.integers(2, MAX_OUTCOMES + 1))
    n_components = int(rng.integers(1, MAX_COMPONENTS + 1))
    weights = rng.standard_exponential(n_components).tolist()
    total = 0.0
    for weight in weights:
        total += weight
    coins = rng.random((n_components, n_outcomes + 1))
    slots = coins[:, 1:].argsort(axis=1)[:, :2]
    directions = rng.standard_normal((n_components, dim))
    directions /= np.sqrt(np.vecdot(directions, directions))[:, None]
    # Per component: column 0 of its two effect rows, then the signed
    # half-weights that scale its direction in them.
    coefficients = []
    for weight, coin in zip(weights, coins[:, 0].tolist()):
        weight /= total
        if coin < 0.15:
            coefficients += (weight, 0.0, 0.0, 0.0)
        else:
            half = weight * 0.5
            coefficients += (half, half, half, -half)
    coefficients = np.array(coefficients).reshape(n_components, 2, 2)
    rows = np.empty((n_components, 2, dim + 1))
    rows[:, :, 0] = coefficients[:, 0]
    np.multiply(coefficients[:, 1, :, None], directions[:, None, :], out=rows[:, :, 1:])
    table = np.zeros((n_outcomes, dim + 1))
    np.add.at(table, slots, rows)
    return table


def capacity_search(dim: int, trials: int, seed: int) -> float:
    """Best information rate found over random single-system protocols.

    Each trial draws 2 to ``MAX_STATES`` encoding states, each pure with
    probability 1/2 and otherwise uniform in the ball (radius
    ``u ** (1/dim)``), and a random measurement; its table's input prior is
    optimised.  A block of tables draws all its state counts, one
    ``(2, total)`` uniform array and one ``random_directions`` call for all
    its state rows, then one ``random_measurement`` per table, in order.
    The search starts from the antipodal protocol's one bit, so the result
    is at least 1 bit; the returned maximum must never exceed 1 by more
    than optimizer slack.  ``capacity.search_max`` searches the tables with
    ``BA_TOL`` and ``BA_MAX_ITER``: best first, each optimiser reporting an
    achieved rate (a lower bound), so looser settings never inflate the
    maximum.
    ``dim`` must be an integer in ``[1, MAX_DIM]``, ``trials`` at least 1.
    """
    dim = _check_dim(dim)
    rng = np.random.default_rng(_check_count("seed", seed, 0))
    exponent = 1.0 / dim

    def draw_block(count):
        ends = rng.integers(2, MAX_STATES + 1, size=count).cumsum().tolist()
        coins = rng.random((2, ends[-1]))
        radii = coins[1] ** exponent
        radii[coins[0] < 0.5] = 1.0
        rows = np.insert(radii[:, None] * random_directions(ends[-1], dim, rng), 0, 1.0, axis=1)
        return [rows[a:b] @ random_measurement(dim, rng).T for a, b in zip([0] + ends, ends)]

    best = mutual_information(one_bit_protocol(dim))
    return search_max(draw_block, trials, best, BA_TOL, BA_MAX_ITER)
