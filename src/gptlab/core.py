"""Core algebra for convex operational (generalized probabilistic) models.

Conventions used throughout the package:

* A normalised single-system state is a real vector ``(1, r)`` whose first
  entry is the normalisation component.  The unit effect is ``u = (1, 0)``
  and outcome probabilities are Euclidean inner products ``e . omega``.
* A bipartite state is a real ``(n_A+1) x (n_B+1)`` matrix with block form
  ``[[1, b^t], [a, C]]``; row index 0 and column index 0 carry the
  normalisation components of the A and B sides.  Bipartite probabilities
  are Frobenius inner products ``E . phi = Tr(E^t phi)``.
* Entropies and capacities are in bits (base-2 logs, ``0 log 0 = 0``).

Everything here is an immutable value; operations are pure functions and
safe to call concurrently.  Randomised routines elsewhere in the package
take explicit seeds.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

# Tolerance for identities built from +-1 / 2^-N (dyadic) arithmetic.
EXACT_TOL = 1e-12
# Tolerance for iterative-optimizer outputs.
OPT_TOL = 1e-6

# The parameters each theory kind needs, by ``TheoryConfig`` attribute.
KIND_PARAMS = {"base": (), "lambda-tau": ("lam", "tau"), "embedded": ("m",), "weak": ("lam",)}
THEORY_KINDS = tuple(KIND_PARAMS)
# How messages and command-line flags name each parameter.
_PARAM_NAMES = {"lam": "lambda", "tau": "tau", "m": "m"}
# Largest N that ``hadamard.sign_transform`` applies exactly (two 6-bit blocks, sums below 2^53);
# every (2^N)^2 builder fits the budget up to it (the swap's three tables: 384 MiB).
MAX_N_BITS = 12
# Largest N whose 2^N is a finite double: the closed forms that compute 2^N
# in floats (the lambda-tau optimum, the dense-coding rate, the weak bound
# and thresholds) stop here.
LT_MAX_N_BITS = 1023
# Float64s any one builder may hold at its peak (1 GiB), see ``_check_budget``.
BUDGET_FLOATS = 2**27


class GptError(ValueError):
    """Base class for errors raised by this package."""


class DomainError(GptError):
    """A constructed object violates a state/effect/parameter constraint."""


class ProtocolFalsified(GptError):
    """A protocol identity that should hold exactly failed numerically."""


def _real_array(name: str, values) -> np.ndarray:
    """``values`` as a float64 array, not copied if it is one.

    A ``GptError`` naming ``name`` unless every entry is an integer or a
    float: a complex entry would lose its imaginary part, and a bool, a
    string or another object is no number.  Integers and floats convert as
    ``np.asarray(values, dtype=float)`` converts them.
    """
    array = np.asarray(values)
    if array.dtype.kind not in "iuf":
        raise GptError(f"{name} must be real numbers, got an array of {array.dtype}")
    return array.astype(float, copy=False)


def _frozen(name: str, array) -> np.ndarray:
    """A read-only float64 array holding ``array``'s values.

    A read-only float64 ndarray that owns its data is taken as is, so code
    that marks its fresh array read-only hands it over without a copy;
    marking it so promises that nothing writes it again.  Any other input
    (writeable, a view, another dtype or a subclass) is copied, and
    refused as ``_real_array`` refuses it.
    """
    if (
        type(array) is np.ndarray
        and not array.flags.writeable
        and array.flags.owndata
        and array.dtype == np.float64
    ):
        return array
    out = np.array(_real_array(name, array))
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class State:
    """Normalised state ``(1, r)``; ``entries[0]`` must equal 1, all entries finite."""

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", _frozen("state entries", self.entries))
        if self.entries.ndim != 1 or self.entries.size < 1:
            raise GptError("state entries must be a non-empty vector")
        if not (
            abs(self.entries[0] - 1.0) <= EXACT_TOL and np.isfinite(self.entries).all()
        ):
            raise DomainError(
                "state entries must be finite with normalisation component 1, "
                f"got {self.entries[0]!r}"
            )

    @property
    def r(self) -> np.ndarray:
        """Coordinates of the state inside the local convex body."""
        return self.entries[1:]

    @property
    def dim(self) -> int:
        return self.entries.size - 1


@dataclass(frozen=True, eq=False)
class Effect:
    """Effect vector; validity is relative to the hosting theory."""

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", _frozen("effect entries", self.entries))
        if self.entries.ndim != 1 or self.entries.size < 1:
            raise GptError("effect entries must be a non-empty vector")

    @property
    def dim(self) -> int:
        return self.entries.size - 1


def effect_probability_range(effect: Effect) -> tuple:
    """Exact min/max of ``e . omega`` over the unit ball of states.

    On ``omega = (1, r)`` with ``||r|| <= 1`` the effect ``(e_0, a)`` takes
    ``e_0 + a . r``, which ranges over ``[e_0 - ||a||, e_0 + ||a||]`` and
    meets its ends at ``r = -+a/||a||``.
    """
    base = float(effect.entries[0])
    span = float(np.linalg.norm(effect.entries[1:]))
    return base - span, base + span


@dataclass(frozen=True)
class Measurement:
    """Ordered, non-empty collection of effects.

    The constructor checks only that the tuple is non-empty; nothing checks
    that the effects sum to the unit.  ``hst.canonical_measurement`` and
    ``hadamard.bell_measurement`` build measurements that do by
    construction.
    """

    effects: tuple

    def __post_init__(self):
        object.__setattr__(self, "effects", tuple(self.effects))
        if not self.effects:
            raise GptError("measurement needs at least one effect")


@dataclass(frozen=True, eq=False)
class BipartiteState:
    """Bipartite state matrix ``[[1, b^t], [a, C]]`` with finite entries."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _frozen("bipartite state", self.matrix))
        if self.matrix.ndim != 2:
            raise GptError("bipartite state must be a matrix")
        if not (
            abs(self.matrix[0, 0] - 1.0) <= EXACT_TOL and np.isfinite(self.matrix).all()
        ):
            raise DomainError(
                "bipartite state entries must be finite with normalisation entry 1, "
                f"got {self.matrix[0, 0]!r}"
            )

    @property
    def a(self) -> np.ndarray:
        return self.matrix[1:, 0]

    @property
    def b(self) -> np.ndarray:
        return self.matrix[0, 1:]

    @property
    def correlations(self) -> np.ndarray:
        """The core block C of joint correlations."""
        return self.matrix[1:, 1:]

    @property
    def dims(self) -> tuple:
        return (self.matrix.shape[0] - 1, self.matrix.shape[1] - 1)


@dataclass(frozen=True, eq=False)
class BipartiteEffect:
    """Bipartite effect matrix ``[[gamma, beta^t], [alpha, Gamma]]``."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _frozen("bipartite effect", self.matrix))
        if self.matrix.ndim != 2:
            raise GptError("bipartite effect must be a matrix")

    @property
    def gamma(self) -> float:
        return float(self.matrix[0, 0])

    @property
    def dims(self) -> tuple:
        return (self.matrix.shape[0] - 1, self.matrix.shape[1] - 1)


@dataclass(frozen=True, eq=False)
class Transformation:
    """Normalisation-preserving linear map ``block-diag(1, T_hat)``."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _frozen("transformation", self.matrix))
        m = self.matrix
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise GptError("transformation must be a square matrix")
        if not (
            abs(m[0, 0] - 1.0) <= EXACT_TOL
            and np.abs(m[0, 1:]).max(initial=0.0) <= EXACT_TOL
            and np.abs(m[1:, 0]).max(initial=0.0) <= EXACT_TOL
        ):
            raise DomainError("transformation is not block-diag(1, T_hat)")

    @property
    def hat(self) -> np.ndarray:
        """The rotation block acting on state coordinates."""
        return self.matrix[1:, 1:]

    def apply(self, state: State) -> State:
        return State(self.matrix @ state.entries)

    def apply_left(self, phi: BipartiteState) -> BipartiteState:
        """Act on the A side of a bipartite state."""
        return BipartiteState(self.matrix @ phi.matrix)

    def apply_right(self, phi: BipartiteState) -> BipartiteState:
        """Act on the B side of a bipartite state."""
        return BipartiteState(phi.matrix @ self.matrix.T)


@dataclass(frozen=True, eq=False)
class Channel:
    """Discrete memoryless channel: prior p(x) and row-stochastic p(y|x)."""

    prior: np.ndarray
    conditional: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "prior", _frozen("prior", self.prior))
        object.__setattr__(self, "conditional", _frozen("conditional", self.conditional))
        p, c = self.prior, self.conditional
        if c.ndim != 2 or p.ndim != 1 or p.size != c.shape[0]:
            raise GptError("prior length must match the conditional's row count")
        _check_prior(p)
        if not (c.min() >= -EXACT_TOL and c.max() <= 1.0 + EXACT_TOL):
            raise DomainError("conditional entries fall outside [0, 1]")
        rows = c.sum(axis=1)
        if not np.abs(rows - 1.0).max() <= EXACT_TOL:
            raise DomainError("conditional rows must each sum to 1")


@dataclass(frozen=True, eq=False)
class SymmetricChannel:
    """Channel that keeps each of its ``prior.size`` inputs with probability
    ``q[0]`` and turns it into each other output with probability ``q[1]``.

    Every dense-coding table has this form.  Only the prior and the two
    values are held, and they are validated as ``Channel`` validates its
    prior and a table row: each value in ``[-EXACT_TOL, 1 + EXACT_TOL]``,
    and the ``np.add.reduce`` sum of the row ``(q[0], q[1], ..., q[1])``
    within ``EXACT_TOL`` of 1, all with the errors ``Channel`` raises.
    This costs a few numpy calls on one row where a table costs passes
    over ``size^2`` entries.  ``conditional`` is built the first time it is
    read, one array filled with ``q[1]`` and given ``q[0]`` on its
    diagonal, marked read-only, and the same array is returned on every
    later read.  Threads that read it first at the same time may each
    build one; the tables are equal and read-only, and one is kept.
    """

    prior: np.ndarray
    q: tuple

    def __post_init__(self):
        object.__setattr__(self, "prior", _frozen("prior", self.prior))
        p = self.prior
        q = tuple(float(value) for value in self.q)
        if p.ndim != 1 or p.size < 1 or len(q) != 2:
            raise GptError("need a non-empty prior and the two values q[0] and q[1]")
        object.__setattr__(self, "q", q)
        _check_prior(p)
        # Written so that NaN fails.
        if not all(-EXACT_TOL <= value <= 1.0 + EXACT_TOL for value in q):
            raise DomainError("conditional entries fall outside [0, 1]")
        row = np.full(p.size, q[1])
        row[0] = q[0]
        if not abs(np.add.reduce(row) - 1.0) <= EXACT_TOL:
            raise DomainError("conditional rows must each sum to 1")

    @functools.cached_property
    def conditional(self) -> np.ndarray:
        """The read-only table, ``q[0]`` on its diagonal and ``q[1]`` off it."""
        size = self.prior.size
        table = np.full((size, size), self.q[1])
        np.fill_diagonal(table, self.q[0])
        table.setflags(write=False)
        return table


def _check_prior(prior: np.ndarray) -> None:
    """Raise ``DomainError`` unless ``prior`` sums to 1 and has no entry
    below 0, each at ``EXACT_TOL``."""
    if not (abs(prior.sum() - 1.0) <= EXACT_TOL and prior.min() >= -EXACT_TOL):
        raise DomainError("prior is not a probability vector")


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a validity check, with one entry per violation found."""

    passed: bool
    violations: tuple = ()

    def __bool__(self) -> bool:
        return self.passed


def _is_integer(value) -> bool:
    # The exact-int test first: it skips the slower abstract-class check.
    return type(value) is int or (
        isinstance(value, numbers.Integral) and not isinstance(value, bool)
    )


def _check_budget(name: str, floats: int) -> None:
    """Raise ``GptError`` if ``name`` would hold more than ``BUDGET_FLOATS``
    floats at its peak; each builder calls it before it allocates."""
    if floats > BUDGET_FLOATS:
        raise GptError(f"{name} would hold {floats} floats, past BUDGET_FLOATS = {BUDGET_FLOATS}")


def _check_count(
    name: str, value, minimum: int, error=GptError, maximum: int | None = None
) -> int:
    """Return ``value`` as an ``int``; raise ``error`` unless it is a non-bool
    integer >= ``minimum`` and, when ``maximum`` is given, <= ``maximum``.

    Callers compute with the returned ``int``: numpy integers wrap around
    (``-np.uint8(3)`` is 253, ``2**np.int8(8)`` is 0).
    """
    # bool is an Integral (and so a Real): True would count as 1.
    if not (_is_integer(value) and value >= minimum):
        raise error(f"{name} must be an integer >= {minimum}, got {value!r}")
    if maximum is not None and value > maximum:
        raise error(f"{name} must be at most {maximum}, got {value}")
    return int(value)


def _check_real(name: str, value, low: float, high: float, error=GptError) -> float:
    """Return ``value`` as a ``float``; raise ``error`` unless it is a finite
    real number in ``[low, high]``.

    A bool or ``np.bool_`` (True would count as 1), a non-number (a str,
    None, a complex, an array), NaN, an infinity and an integer too large
    for a float are all refused.
    """
    # The exact-float test first: it skips the slower abstract-class check.
    if type(value) is float or (isinstance(value, numbers.Real) and not isinstance(value, bool)):
        try:
            if low <= value <= high and math.isfinite(value):
                return float(value)
        except OverflowError:  # an int beyond the float range
            pass
    raise error(f"{name} must be a finite real number in [{low:g}, {high:g}], got {value!r}")


@dataclass(frozen=True)
class TheoryConfig:
    """Selects the base hypersphere model or one of its deformations.

    ``kind`` is one of ``base``, ``lambda-tau``, ``embedded`` or ``weak``,
    and needs the parameters ``KIND_PARAMS`` names for it.
    ``n_bits`` fixes the local ball dimension ``2**n_bits - 1``.  ``lam``
    scales entangled-state correlations, ``tau`` scales entangled-effect
    correlations, and ``m`` is the sphere dimension of the embedded model.
    """

    kind: str
    n_bits: int
    lam: float | None = None
    tau: float | None = None
    m: int | None = None

    def __post_init__(self):
        if self.kind not in THEORY_KINDS:
            raise DomainError(f"unknown theory kind {self.kind!r}")
        params = KIND_PARAMS[self.kind]
        # Each value is stored as its checker returns it: numpy integers wrap.
        n_bits = _check_count("n_bits", self.n_bits, 1, DomainError, MAX_N_BITS)
        object.__setattr__(self, "n_bits", n_bits)
        # lambda and tau lie in [-1, 1] where the kind scales correlations by
        # them, and are finite everywhere; m is an integer >= 1 everywhere.
        for attr in ("lam", "tau"):
            value = getattr(self, attr)
            if value is not None:
                bound = 1.0 if attr in params else math.inf
                value = _check_real(_PARAM_NAMES[attr], value, -bound, bound, DomainError)
                object.__setattr__(self, attr, value)
        if self.m is not None:
            m = _check_count("embedding sphere dimension m", self.m, 1, DomainError)
            object.__setattr__(self, "m", m)
        if self.kind != "base" and self.n_bits < 2:
            raise DomainError(f"the {self.kind} model needs n_bits >= 2")
        missing = [_PARAM_NAMES[attr] for attr in params if getattr(self, attr) is None]
        if missing:
            raise DomainError(f"the {self.kind} model needs {' and '.join(missing)}")
        if self.kind == "lambda-tau":
            d = 2**self.n_bits
            prod = self.lam * self.tau
            if prod < -1.0 / (d - 1) - EXACT_TOL or prod > 1.0 / (d - 3) + EXACT_TOL:
                raise DomainError(
                    "inadmissible parameters: need "
                    f"-1/(2^N-1) <= lambda*tau <= 1/(2^N-3), got lambda*tau="
                    f"{prod!r} for N={self.n_bits}"
                )

    @classmethod
    def base(cls, n_bits: int) -> "TheoryConfig":
        return cls("base", n_bits)

    @classmethod
    def lambda_tau(cls, n_bits: int, lam: float, tau: float) -> "TheoryConfig":
        return cls("lambda-tau", n_bits, lam=lam, tau=tau)

    @classmethod
    def embedded(cls, n_bits: int, m: int) -> "TheoryConfig":
        return cls("embedded", n_bits, m=m)

    @classmethod
    def weak(cls, n_bits: int, lam: float) -> "TheoryConfig":
        return cls("weak", n_bits, lam=lam)

    @property
    def hadamard_dim(self) -> int:
        """Size of the sign-vector block, 2**n_bits."""
        return 2**self.n_bits

    @property
    def ball_dim(self) -> int:
        """Dimension of the correlated ball block, 2**n_bits - 1."""
        return 2**self.n_bits - 1

    @property
    def active_dim(self) -> int:
        """Dimension of the block local states move in: the m-sphere for
        the embedded model, the whole ball otherwise."""
        return self.m if self.kind == "embedded" else self.ball_dim

    @property
    def local_dim(self) -> int:
        """Number of coordinates of a local state (without normalisation)."""
        if self.kind == "embedded":
            return self.ball_dim + self.m
        return self.ball_dim

    @property
    def local_capacity_bits(self) -> float:
        """Classical capacity of one local system; 1 bit for every kind."""
        return 1.0


def unit_effect(dim: int) -> Effect:
    """The effect assigning probability 1 to every normalised state."""
    dim = _check_count("dim", dim, 0)
    _check_budget("unit_effect", 2 * (dim + 1))  # the entries and the effect's copy
    entries = np.zeros(dim + 1)
    entries[0] = 1.0
    return Effect(entries)


def bipartite_unit(dim_a: int, dim_b: int) -> BipartiteEffect:
    dim_a, dim_b = _check_count("dim_a", dim_a, 0), _check_count("dim_b", dim_b, 0)
    _check_budget("bipartite_unit", 2 * (dim_a + 1) * (dim_b + 1))
    matrix = np.zeros((dim_a + 1, dim_b + 1))
    matrix[0, 0] = 1.0
    return BipartiteEffect(matrix)


def contract(effect: Effect, state: State) -> float:
    """Outcome probability ``e . omega`` (Euclidean inner product)."""
    if effect.entries.size != state.entries.size:
        raise GptError(
            f"effect has {effect.entries.size} entries, state has "
            f"{state.entries.size}"
        )
    return float(effect.entries @ state.entries)


def bipartite_contract(effect: BipartiteEffect, phi: BipartiteState) -> float:
    """Outcome probability ``Tr(E^t phi)``, the entrywise matrix product sum."""
    if effect.matrix.shape != phi.matrix.shape:
        raise GptError(
            f"effect shape {effect.matrix.shape} does not match state shape "
            f"{phi.matrix.shape}"
        )
    return float(np.sum(effect.matrix * phi.matrix))


def product_state(state_a: State, state_b: State) -> BipartiteState:
    """Outer product realising the tensor product of local states."""
    # The product, the value object's copy and its finite test, a byte an entry.
    _check_budget("product_state", 17 * state_a.entries.size * state_b.entries.size // 8)
    return BipartiteState(np.outer(state_a.entries, state_b.entries))


def product_effect(effect_a: Effect, effect_b: Effect) -> BipartiteEffect:
    _check_budget("product_effect", 2 * effect_a.entries.size * effect_b.entries.size)
    return BipartiteEffect(np.outer(effect_a.entries, effect_b.entries))


def reduced_states(phi: BipartiteState) -> tuple:
    """Local marginals ``(phi u_B, phi^t u_A)``: first column and first row."""
    return State(phi.matrix[:, 0]), State(phi.matrix[0, :])


def mix_bipartite(phis, weights) -> BipartiteState:
    """Convex mixture ``sum_i w_i phi_i`` of same-shaped bipartite states.

    The weights must be finite, non-negative and sum to 1 within
    ``EXACT_TOL`` (``DomainError``); an empty list, a weight count other
    than the state count or states of different shapes raise ``GptError``.
    """
    phis = list(phis)
    weights = _real_array("mixture weights", weights)
    if not phis or weights.shape != (len(phis),):
        raise GptError(
            f"need one weight per state for a non-empty list, got {len(phis)} "
            f"states and weights of shape {weights.shape}"
        )
    if len({p.matrix.shape for p in phis}) != 1:
        raise GptError("mixed states must all have the same shape")
    if not (
        np.isfinite(weights).all()
        and (weights >= 0.0).all()
        and abs(weights.sum() - 1.0) <= EXACT_TOL
    ):
        raise DomainError(
            f"mixture weights must be finite, non-negative and sum to 1, got {weights.tolist()!r}"
        )
    stacked = np.stack([p.matrix for p in phis])
    return BipartiteState(np.tensordot(weights, stacked, axes=1))


def mutual_information(channel: Channel | SymmetricChannel) -> float:
    """I(X:Y) in bits for the given prior and conditional table.

    Zero-probability outcomes are retained and contribute nothing.
    """
    joint = channel.prior[:, None] * channel.conditional
    p_y = joint.sum(axis=0)
    mask = joint > 0
    # One scratch table: each term is divided, logged and weighted in place.
    terms = np.ones_like(joint)
    np.divide(channel.conditional, p_y[None, :], out=terms, where=mask)
    np.log2(terms, out=terms, where=mask)
    np.multiply(terms, joint, out=terms, where=mask)
    del joint
    return float(np.sum(terms[mask]))
