"""Deformed bipartite models, the diagonal model layer and the norm-bound validators.

Every theory kind is the base construction with its correlation diagonals
rescaled: entangled states ``diag(1, s d_mu[1:])`` decoded by effects
``2^-N diag(1, t d_mu[1:])`` on the ``2^N x 2^N`` Hadamard corner, with the
pair ``(s, t)`` given by ``correlation_scales``.  One state constructor, one
effect constructor and one dense-coding channel builder serve all kinds; the
table ``p delta_(y,x) + 2^-N (1 - p)``, ``p = s t``, is checked through
``hadamard.sign_transform`` and held as the ``core.SymmetricChannel`` of its
first row's two values, and ``dense_coding_info`` gives its rate in closed form.

* ``base``: ``(1, 1)``, the perfect N-bit code.
* ``lambda-tau``: ``(lambda, tau)``.  Requiring valid probabilities on the
  rotated witness state forces ``-1/(2^N - 1) <= lambda tau <= 1/(2^N - 3)``,
  and the best rate inside this family with ``lambda tau >= 0`` is
  ``N - H(Q_N)``.  Local rotations form the full continuous group, so the
  model keeps local continuous reversibility and pays with a rate that
  collapses for ``N > 2``.
* ``embedded``: ``(1, 1)`` plus a zero m-sphere block.  Each local system is
  an m-sphere embedded after a frozen ``2^N - 1`` block.  The entangled
  states occupy only the frozen corner, so every local transformation
  ``block-diag(T_mu, R)`` with ``R in SO(m)`` leaves them untouched: dense
  coding stays perfect at N bits while local statistics cannot tell the
  entangled states apart (the model trades away tomographic locality).
* ``weak``: ``(lambda, 1)``, weakened states decoded with the undeformed
  Bell-type effects.  Correlations of size ``lambda`` cap the dense-coding
  rate at ``log2(1 + |lambda| (2^N - 1))``.

``lemma_state_checks`` and ``lemma_effect_checks`` enforce the matrix-norm
constraints that every bipartite state and effect of two ball systems must
satisfy: unit-bounded marginal and correlation columns for states, and
``min(gamma, 1 - gamma)``-bounded blocks for effects.  They take a
``(k, rows, cols)`` stack and return one report per row;
``lemma_state_check`` and ``lemma_effect_check`` are their one-row case.
``family_matrices`` builds the states and effects a theory constructs as
two such stacks, and ``constructed_family`` wraps their rows in value
objects.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    BASELINE_MAX_N_BITS,
    EXACT_TOL,
    LT_MAX_N_BITS,
    MAX_N_BITS,
    BipartiteEffect,
    BipartiteState,
    DomainError,
    Effect,
    GptError,
    ProtocolFalsified,
    SymmetricChannel,
    TheoryConfig,
    Transformation,
    ValidationReport,
    _check_count,
    _check_real,
    _real_array,
    bipartite_contract,
)
from .hadamard import hadamard_basis, hadamard_vector, sign_transform
from .hst import make_extremal_effect, random_directions

# Random product states and effects ``constructed_family`` adds per theory.
FAMILY_RANDOM_PAIRS = 20

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


def _check_product(size: float, product: float) -> float:
    # The scale products of the dense-coding tables, size = 2^N.
    low, high = -1.0 / (size - 1.0) - EXACT_TOL, 1.0 + EXACT_TOL
    return _check_real("scale product", product, low, high, DomainError)


@functools.cache
def _row_probes(n_bits: int) -> tuple:
    """Columns ``e_0, 1, a = (0, ..., 2^N - 1), u = 2^-N S a`` and what S gives on
    them: ``S e_0 = 1``, ``S 1 = 2^N e_0`` (moved by any changed entry), ``|S a|^2``
    (by a balanced pair of flips in a row) and ``|S u|^2 = |a|^2`` (by a row overwrite)."""
    size = 2**n_bits
    probes = np.zeros((size, 4))
    probes[:, 1], probes[:, 2] = 1.0, np.arange(size)
    probes[0, [0, 3]] = 1.0, (size - 1) / 2
    for k in range(n_bits):
        probes[1 << k, 3] = -(2.0 ** (k - 1))
    probes.setflags(write=False)
    norms = size * np.square(probes[:, 2:]).sum(axis=0)
    return probes, np.concatenate((probes[:, 1], size * probes[:, 0], norms))


def dense_coding_channel(theory: TheoryConfig) -> SymmetricChannel:
    """Dense-coding channel of any theory kind, uniform prior.

    With ``S`` the sign rows and p the product of the two scales, the encoded
    states ``T_x phi_0`` and the decoding effects give the table ``2^-N S
    diag(1, p, ..., p) S^t``, ``q[x XOR y]`` for its first row ``q = 2^-N (p S 1
    + (1 - p) S e_0)``.  S is read only through ``sign_transform`` on
    ``_row_probes``, in integers and dyadic values below 2^53, so exactly; a
    row permutation that keeps row 0 passes, as it leaves the table as it is.
    The embedded ``block-diag(T_x, R)`` is ``T_x`` on the corner, where
    ``phi_0`` and every ``E_y`` live.  With +-1 signs ``q[y]`` is the one
    double ``(1 - p) 2^-N`` for every ``y != 0``, so the channel is the
    ``SymmetricChannel`` of ``q[0]`` and ``q[1]``; the build holds no table.
    """
    n, size = theory.n_bits, theory.hadamard_dim
    product = _check_product(size, math.prod(correlation_scales(theory)))
    probes, expected = _row_probes(n)
    signed = sign_transform(probes)
    stats = np.concatenate((signed[:, 0], signed[:, 1], np.square(signed[:, 2:]).sum(axis=0)))
    gap = float(np.abs(stats - expected).max())
    if not gap <= EXACT_TOL:
        raise ProtocolFalsified(
            f"{theory.kind} dense coding deviates from its closed form by {gap!r}"
        )
    q = product * (2.0**-n * signed[:2, 1]) + (1.0 - product) * (2.0**-n * signed[:2, 0])
    return SymmetricChannel(prior=np.full(size, 1.0 / size), q=q.clip(0.0, 1.0).tolist())


def dense_coding_info(n_bits: int, product: float) -> float:
    """Rate ``N - H(q)`` of the dense-coding table with scale product p.

    The table depends on ``x XOR y`` alone and the prior is uniform, so the
    rate is N minus the entropy of one row (Cover & Thomas, Elements of
    Information Theory, Thm 7.2.1).  The row puts ``2^-N (1 + (2^N - 1) p)``
    on one symbol and ``2^-N (1 - p)`` on each other, which gives
    ``[phi((2^N - 1) p) + (2^N - 1) phi(-p)] / (2^N ln 2)``.  The first-order
    terms of the two phi cancel on paper, so every term summed is ``>= 0``;
    the rate is exactly N at ``p = 1``, and a p that no table has is refused,
    as is an N above ``LT_MAX_N_BITS``, whose ``2^N`` is no finite double.
    """
    n_bits = _check_count("n_bits", n_bits, 1, maximum=LT_MAX_N_BITS)
    size = 2.0**n_bits
    product = _check_product(size, product)
    if product == 1.0:
        return float(n_bits)
    gap = _phi((size - 1.0) * product, size) + (1.0 - 1.0 / size) * _phi(-product)
    return gap / math.log(2.0)


def _phi(x: float, scale: float = 1.0) -> float:
    """``phi(x) / scale`` for ``phi(x) = (1 + x) ln(1 + x) - x >= 0``, 0 ln 0 = 0 at x <= -1.

    Below |x| = 0.1 it sums ``(-x)^k / (k (k - 1))``, k = 2..17.  ``scale``
    divides before any product, so ``phi`` stays finite up to ``x = 2^1023``."""
    if abs(x) < 0.1:
        total = 0.0
        for k in range(17, 1, -1):
            total = 1.0 / (k * (k - 1)) - x * total
        return x * (x / scale) * total
    return ((1.0 + x) / scale * math.log1p(x) if x > -1.0 else 0.0) - x / scale


# --------------------------------------------------------------------------
# lambda-tau deformation


def lt_rotated_witness(lam: float, n_bits: int) -> BipartiteState:
    """The state ``phi_0^(lambda) T'`` with ``T' = diag(1, 1, -1, ..., -1)``.

    This rotated companion of the aligned state is the one that caps
    ``lambda tau`` from above; probing both against the aligned effect
    yields the admissibility window.  ``lam`` may be any finite real.
    """
    n_bits = _check_count("n_bits", n_bits, 2, maximum=MAX_N_BITS)
    lam = _check_real("lambda", lam, -math.inf, math.inf, DomainError)
    return BipartiteState(np.diag(_lt_witness_diagonal(lam, n_bits)))


def _lt_witness_diagonal(lam: float, n_bits: int) -> np.ndarray:
    diag = np.full(2**n_bits, -lam)
    diag[0] = 1.0
    diag[1] = lam
    return diag


def lt_admissibility_witness(n_bits: int, lam: float, tau: float) -> tuple:
    """Probabilities of the aligned effect on the aligned and rotated states.

    Returns ``(2^-N (1 + (2^N - 1) lambda tau), 2^-N (1 - (2^N - 3) lambda tau))``
    computed by direct contraction; either leaving ``[0, 1]`` certifies the
    parameters as inadmissible, so ``lam`` and ``tau`` may be any finite reals
    whose product is finite.  A product that overflows is refused with
    ``DomainError``: its contraction would overflow and end in NaN.
    """
    n_bits = _check_count("n_bits", n_bits, 2)
    lam = _check_real("lambda", lam, -math.inf, math.inf, DomainError)
    tau = _check_real("tau", tau, -math.inf, math.inf, DomainError)
    if not math.isfinite(lam * tau):
        raise DomainError(f"lambda * tau must be finite, got {lam!r} * {tau!r}")
    aligned = hadamard_vector(0, n_bits)
    effect = BipartiteEffect(
        2.0**-n_bits * np.diag(_diagonals(aligned, tau, aligned.size))
    )
    state = BipartiteState(np.diag(_diagonals(aligned, lam, aligned.size)))
    return (
        bipartite_contract(effect, state),
        bipartite_contract(effect, lt_rotated_witness(lam, n_bits)),
    )


def lt_channel(theory: TheoryConfig) -> SymmetricChannel:
    """Dense-coding channel of the lambda-tau model, uniform prior."""
    _require_kind(theory, "lambda-tau")
    return dense_coding_channel(theory)


def lt_optimal_product(n_bits: int) -> float:
    """The non-negative admissible ``lambda tau`` maximising the rate, the
    window's upper end ``1/(2^N - 3)``.

    Over the whole window the maximum lies at an end.  For every ``N >= 3``
    it is the lower end ``-1/(2^N - 1)``, rate ``N - log2(2^N - 1)``:
    0.1926 against 0.1536 bits at ``N = 3``.
    """
    n_bits = _check_count("n_bits", n_bits, 2, maximum=LT_MAX_N_BITS)
    return 1.0 / (2.0**n_bits - 3)


def lt_peak_probability(n_bits: int) -> float:
    """Largest achievable correct-decoding probability ``Q_N``."""
    n_bits = _check_count("n_bits", n_bits, 2, maximum=LT_MAX_N_BITS)
    size = 2.0**n_bits
    return 2.0 ** (-n_bits + 1) * (size - 2) / (size - 3)


def lt_optimal_info(n_bits: int) -> float:
    """Best rate ``N - H(Q_N)`` inside the deformed protocol family with
    ``lambda tau >= 0`` (see ``lt_optimal_product``): the
    ``dense_coding_info`` of ``lt_optimal_product``, about ``0.557 * 2^-N``
    (exactly 2 at ``N = 2``) and positive up to ``LT_MAX_N_BITS``."""
    # A single bit has no continuous rotations.
    n_bits = _check_count("n_bits", n_bits, 2, DomainError)
    return dense_coding_info(n_bits, lt_optimal_product(n_bits))


# --------------------------------------------------------------------------
# embedded (tomographic-locality violating) model


def embedded_extremal_effect(direction, theory: TheoryConfig) -> Effect:
    """Local extremal effect ``(1, 0_n, r)/2`` on the embedded sphere."""
    _require_kind(theory, "embedded")
    direction = _real_array("effect direction", direction)
    if direction.size != theory.m:
        raise GptError(f"direction must have {theory.m} components")
    extremal = make_extremal_effect(direction).entries
    return Effect(np.insert(extremal, 1, np.zeros(theory.ball_dim)))


def random_rotation(m: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish rotation from SO(m): QR of a Gaussian matrix, signs fixed."""
    m = _check_count("rotation dimension", m, 1)
    q, r = np.linalg.qr(rng.standard_normal((m, m)))
    q = q * np.sign(np.diagonal(r))
    if np.linalg.det(q) < 0:
        q[:, -1] = -q[:, -1]
    return q


def embedded_transformation(
    label: int, theory: TheoryConfig, rotation: np.ndarray
) -> Transformation:
    """Local map ``block-diag(T_label, R)`` for a finite rotation R of the sphere."""
    _require_kind(theory, "embedded")
    rotation = _real_array("rotation", rotation)
    if rotation.shape != (theory.m, theory.m):
        raise GptError(f"rotation must be {theory.m} x {theory.m}")
    if not np.isfinite(rotation).all():
        raise DomainError("rotation entries must be finite")
    size = theory.hadamard_dim
    matrix = np.zeros((size + theory.m, size + theory.m))
    matrix[:size, :size] = np.diag(hadamard_vector(label, theory.n_bits))
    matrix[size:, size:] = rotation
    return Transformation(matrix)


def embedded_dense_coding(theory: TheoryConfig, rotation_seed: int = 0) -> SymmetricChannel:
    """Dense coding in the embedded model; perfect for every rotation.

    Each message applies ``block-diag(T_x, R_x)`` for some sphere rotation
    ``R_x``; the decoding statistics are the exact identity regardless,
    because the entangled corner never sees the sphere block (see
    ``dense_coding_channel``).  The channel does not depend on
    ``rotation_seed``, which must still be an integer >= 0.
    """
    _check_count("rotation_seed", rotation_seed, 0)
    _require_kind(theory, "embedded")
    return dense_coding_channel(theory)


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
    non-finite value fails it.  ``trials`` must be an integer of at least 1.
    """
    _require_kind(theory, "embedded")
    _check_count("trials", trials, 1)
    rng = np.random.default_rng(_check_count("seed", seed, 0))
    states = np.stack([theory_state(mu, theory).matrix for mu in range(theory.hadamard_dim)])
    distances = tuple(float(d) for d in np.abs(states[0] - states).sum(axis=(1, 2)))

    # Row [t, side] is the local effect mix0 (1, 0_n, m)/2 + mix1 u, where
    # mix weighs (extremal, unit, zero): every mix is drawn first, then
    # every direction m, both side by side in trial order.
    mix = rng.dirichlet(np.ones(3), size=(trials, 2))
    directions = random_directions(2 * trials, theory.m, rng).reshape(trials, 2, -1)
    effects = np.zeros((trials, 2, 1 + theory.local_dim))
    effects[..., 0] = 0.5 * mix[..., 0] + mix[..., 1]
    effects[..., 1 + theory.ball_dim :] = 0.5 * mix[..., :1] * directions
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


def weak_dense_coding(theory: TheoryConfig) -> SymmetricChannel:
    """Dense coding with weakened states and the undeformed Bell decoding.

    The channel is ``p(y|x) = lambda delta_(y,x) + 2^-N (1 - lambda)``.
    Probabilities stay valid only for ``lambda >= -1/(2^N - 1)``; below
    that the Bell effects are no longer effects of the weakened model.
    """
    _require_kind(theory, "weak")
    return dense_coding_channel(theory)


# --------------------------------------------------------------------------
# matrix-norm validators for bipartite states and effects


# Shared by every row that meets its bounds; reports are immutable.
_PASSED = ValidationReport(passed=True)


def _matrix_stack(matrices) -> np.ndarray:
    stack = _real_array("matrices", matrices)
    if stack.ndim != 3 or 0 in stack.shape[1:]:
        raise GptError(
            f"expected a (k, rows, cols) stack of non-empty matrices, got shape {stack.shape}"
        )
    return stack


def _norm_table(stack: np.ndarray) -> np.ndarray:
    """Per matrix: the norms of its first column and first row past the
    corner entry, then the column norms of its core block.

    The arithmetic is that of ``np.linalg.norm``: for one vector, the
    square root of one dot product taken on a contiguous copy (``vecdot``
    over contiguous rows makes the same call per row; a strided dot sums
    in another order); with ``axis=0``, the square root of the squares
    summed down each column.  So every norm is the same bit for bit as on
    one matrix.
    """
    first_column = np.ascontiguousarray(stack[:, 1:, 0])
    first_row = stack[:, 0, 1:]
    core = stack[:, 1:, 1:]
    table = np.empty((len(stack), 1 + stack.shape[2]))
    table[:, 0] = np.vecdot(first_column, first_column)
    table[:, 1] = np.vecdot(first_row, first_row)
    np.add.reduce(core * core, axis=1, out=table[:, 2:])
    return np.sqrt(table, out=table)


def _bound_reports(stack, cap, names, column_check, bad_gamma=None, gamma=None) -> list:
    """One ``ValidationReport`` per matrix of ``stack``: every norm of its
    ``_norm_table`` row against ``cap``, one float or a ``(k, 1)`` column
    of per-matrix bounds.  A matrix flagged in the optional mask
    ``bad_gamma`` first reports its normalisation entry ``gamma[i]``.
    When every row passes, the list of the shared ``_PASSED`` returns at
    once."""
    norms = _norm_table(stack)
    within = norms <= cap + EXACT_TOL
    reports = [_PASSED] * len(stack)
    if within.all() and (bad_gamma is None or not bad_gamma.any()):
        return reports
    bad = ~within
    failing = bad.any(axis=1)
    if bad_gamma is not None:
        failing = bad_gamma | failing
    for i in np.flatnonzero(failing):
        bound = float(np.broadcast_to(cap, (len(stack), 1))[i, 0])
        violations = []
        if bad_gamma is not None and bad_gamma[i]:
            violations.append(
                {"check": "gamma_range", "value": float(gamma[i]), "bound": (0.0, 1.0)}
            )
        row, flags = norms[i], bad[i]
        violations += [
            {"check": name, "value": float(row[j]), "bound": bound}
            for j, name in enumerate(names)
            if flags[j]
        ]
        violations += [
            {"check": column_check, "column": int(k), "value": float(row[2 + k]), "bound": bound}
            for k in np.flatnonzero(flags[2:])
        ]
        reports[i] = ValidationReport(passed=False, violations=tuple(violations))
    return reports


def lemma_state_checks(matrices) -> list:
    """Norm bounds every bipartite state of two ball systems satisfies.

    ``matrices`` is a ``(k, rows, cols)`` stack of state matrices
    ``[[1, b^t], [a, C]]``; returns one ``ValidationReport`` per row.  The
    marginals obey ``||a|| <= 1`` and ``||b|| <= 1`` and every column of
    the correlation block obeys ``||c_k|| <= 1``.  A non-finite norm fails
    its bound.  All rows are evaluated at once.
    """
    return _bound_reports(
        _matrix_stack(matrices), 1.0, ("a_norm", "b_norm"), "correlation_column_norm"
    )


def lemma_effect_checks(matrices) -> list:
    """Norm bounds every bipartite effect of two ball systems satisfies.

    ``matrices`` is a ``(k, rows, cols)`` stack of effect matrices
    ``[[gamma, beta^t], [alpha, Gamma]]``; returns one ``ValidationReport``
    per row.  With ``gamma`` the normalisation entry, all of ``||alpha||``,
    ``||beta||`` and the columns of the core block are bounded by
    ``min(gamma, 1 - gamma)``; equivalently the gamma-factored form has
    unit-bounded blocks.  A non-finite gamma or norm fails its bound.  All
    rows are evaluated at once.
    """
    stack = _matrix_stack(matrices)
    gamma = stack[:, 0, 0]
    cap = np.minimum(gamma, 1.0 - gamma)[:, None]
    bad_gamma = ~((-EXACT_TOL <= gamma) & (gamma <= 1.0 + EXACT_TOL))
    return _bound_reports(
        stack, cap, ("alpha_norm", "beta_norm"), "core_column_norm", bad_gamma, gamma
    )


def lemma_state_check(phi: BipartiteState) -> ValidationReport:
    """``lemma_state_checks`` of the one state ``phi``."""
    return lemma_state_checks(phi.matrix[None])[0]


def lemma_effect_check(effect: BipartiteEffect) -> ValidationReport:
    """``lemma_effect_checks`` of the one effect ``effect``."""
    return lemma_effect_checks(effect.matrix[None])[0]


def family_matrices(theory: TheoryConfig, seed: int = 0) -> tuple:
    """``constructed_family`` as ``(k, w, w)`` state and effect stacks.

    The states are the ``2^N`` entangled states ``diag(1, s d_mu[1:])``,
    then, for the lambda-tau kind, its rotated witness, then
    ``FAMILY_RANDOM_PAIRS`` pure product states ``omega_a omega_b^t``; the
    effects are the ``2^N`` decoding effects, then the product effects
    ``(omega_a / 2)(omega_b / 2)^t`` of the same pure states.  The pure
    states come from one ``random_directions`` draw, A side then B side
    per pair.  Every row equals the matrix of the value object
    ``constructed_family`` wraps it in, bit for bit.  Each stack holds
    about ``8^N`` floats, so a theory above ``BASELINE_MAX_N_BITS`` is
    refused before anything is built.
    """
    _check_count("n_bits", theory.n_bits, 1, maximum=BASELINE_MAX_N_BITS)
    rng = np.random.default_rng(_check_count("seed", seed, 0))
    size = theory.hadamard_dim
    width = 1 + theory.local_dim
    state_scale, effect_scale = correlation_scales(theory)
    signs = hadamard_basis(theory.n_bits)
    diagonals = [_diagonals(signs, state_scale, width)]
    if theory.kind == "lambda-tau":
        diagonals.append(_lt_witness_diagonal(theory.lam, theory.n_bits)[None])
    diagonals = np.concatenate(diagonals)
    entangled = len(diagonals)
    where = np.arange(width)

    states = np.zeros((entangled + FAMILY_RANDOM_PAIRS, width, width))
    states[:entangled, where, where] = diagonals
    effects = np.zeros((size + FAMILY_RANDOM_PAIRS, width, width))
    effects[:size, where, where] = 2.0**-theory.n_bits * _diagonals(signs, effect_scale, width)

    # Row 2j is pair j's A side and row 2j + 1 its B side.
    sides = np.zeros((2 * FAMILY_RANDOM_PAIRS, width))
    sides[:, 0] = 1.0
    sides[:, width - theory.active_dim :] = random_directions(
        2 * FAMILY_RANDOM_PAIRS, theory.active_dim, rng
    )
    states[entangled:] = sides[0::2, :, None] * sides[1::2, None, :]
    halves = 0.5 * sides
    effects[size:] = halves[0::2, :, None] * halves[1::2, None, :]
    return states, effects


def constructed_family(theory: TheoryConfig, seed: int = 0) -> tuple:
    """States and effects the given theory actually constructs.

    Used by the validator sweeps: every element must pass the lemma
    checks.  Besides the entangled family, ``FAMILY_RANDOM_PAIRS`` random
    pure product states and product effects are added.  Returns
    ``(states, effects)`` lists of the value objects over the rows of
    ``family_matrices``.
    """
    states, effects = family_matrices(theory, seed)
    return [BipartiteState(m) for m in states], [BipartiteEffect(m) for m in effects]
