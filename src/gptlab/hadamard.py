"""Sign-vector algebra behind the entangled sector of the bipartite model.

For ``N`` bits there are ``2**N`` vectors ``d_mu`` with components
``(d_mu)_nu = (-1)^(mu . nu)``, where ``mu . nu`` is the parity of the
bitwise AND of the two labels (rows of the Sylvester-ordered Hadamard
matrix).  They satisfy, exactly over the integers,

* ``d_mu o d_mu' = d_(mu XOR mu')`` (closure under elementwise product),
* ``sum_mu (d_mu)_nu = 2^N delta_(nu,0)``,
* ``d_mu . d_mu' = 2^N delta_(mu,mu')``.

These vectors yield the diagonal entangled states ``phi_mu = diag(d_mu)``
on two ball systems of dimension ``2^N - 1``, the Bell-type measurement
``E_mu = 2^-N phi_mu`` that distinguishes them perfectly, and the discrete
group of local transformations ``T_mu = diag(d_mu)`` (the XOR group).

Labels are machine integers with bit ``l`` holding the l-th bit of the
string, so the group laws are exact bit operations.  Sign vectors are float64
+-1 arrays, applied by ``sign_transform`` in 6-bit blocks: their sums are
integers or dyadic values below 2^53, so math is exact.  Two blocks stop at
``MAX_N_BITS`` = 12, the one size cap here; memory is ``core._check_budget``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    EXACT_TOL,
    MAX_N_BITS,
    BipartiteEffect,
    BipartiteState,
    GptError,
    Measurement,
    Transformation,
    ValidationReport,
    _check_budget,
    _check_count,
    _is_integer,
    _real_array,
)
from .hst import extremal_rows, random_directions


def _check_n_bits(n_bits: int) -> int:
    return _check_count("n_bits", n_bits, 1, maximum=MAX_N_BITS)


def _check_label(label: int, n_bits: int) -> int:
    """Return ``_check_n_bits(n_bits)``; raise unless ``label`` is a non-bool
    integer in ``[0, 2^N)``."""
    n_bits = _check_n_bits(n_bits)
    if not (_is_integer(label) and 0 <= label < 2**n_bits):
        raise GptError(f"label {label} out of range for {n_bits} bits")
    return n_bits


# The narrowest unsigned dtype that holds the labels 0 .. 2^N - 1, per N, so
# that their bit counts run on as few bytes as possible.
_LABEL_DTYPES = tuple(np.min_scalar_type(2**n - 1) for n in range(MAX_N_BITS + 1))


def hadamard_vector(label: int, n_bits: int) -> np.ndarray:
    """Sign vector with components ``(-1)^parity(label AND nu)``."""
    n_bits = _check_label(label, n_bits)
    nu = np.arange(2**n_bits, dtype=_LABEL_DTYPES[n_bits])
    return 1.0 - 2.0 * (np.bitwise_count(nu & nu.dtype.type(label)) & 1)


def hadamard_basis(n_bits: int) -> np.ndarray:
    """All ``2^N`` sign vectors, stacked as rows (a Hadamard matrix)."""
    n_bits = _check_n_bits(n_bits)
    nu = np.arange(2**n_bits, dtype=_LABEL_DTYPES[n_bits])
    signs = -2.0 * (np.bitwise_count(nu[:, None] & nu) & 1)
    signs += 1.0
    return signs


_BLOCKS = {n: hadamard_basis(n) for n in range(1, 7)}  # S_1 .. S_6


def sign_transform(w) -> np.ndarray:
    """``hadamard_basis(N) @ w`` for a real ``(2^N, ...)`` array w: one matmul per
    block of ``S_N = S_a (x) S_b``, ``a, b <= 6``, after checking the shape,
    ``N <= MAX_N_BITS`` and the dtype.  Exact for dyadic sums below 2^53."""
    w = np.asarray(w)
    rows = w.shape[0] if w.ndim else 0
    if rows < 2 or rows & (rows - 1):
        raise GptError(f"sign_transform needs 2^N rows, N >= 1, got the shape {w.shape}")
    n_bits = _check_n_bits(rows.bit_length() - 1)
    high = n_bits if n_bits <= 6 else n_bits - n_bits // 2
    out = _BLOCKS[high] @ _real_array("sign_transform input", w).reshape(2**high, w.size >> high)
    if high < n_bits:
        out = _BLOCKS[n_bits - high] @ out.reshape(2**high, 2 ** (n_bits - high), w.size >> n_bits)
    return out.reshape(w.shape)


def entangled_state(label: int, n_bits: int) -> BipartiteState:
    """Entangled state ``diag(d_label)`` on two ``2^N - 1`` ball systems."""
    return BipartiteState(np.diag(hadamard_vector(label, n_bits)))


def entangled_effect(label: int, n_bits: int) -> BipartiteEffect:
    """Bell-type effect ``2^-N diag(d_label)``."""
    n_bits = _check_label(label, n_bits)
    return BipartiteEffect(2.0**-n_bits * np.diag(hadamard_vector(label, n_bits)))


def bell_measurement(n_bits: int) -> Measurement:
    """The ``2^N``-outcome measurement that distinguishes the entangled set.

    Its effects hold ``8^N`` floats, and the last one is built beside its
    copy: past the budget at N = 9."""
    n_bits = _check_n_bits(n_bits)
    _check_budget("bell_measurement", 8**n_bits + 4**n_bits)
    return Measurement(tuple(entangled_effect(mu, n_bits) for mu in range(2**n_bits)))


@dataclass(frozen=True, eq=False)
class LocalTransformation(Transformation):
    """Member ``diag(d_label)`` of the discrete XOR group of rotations."""

    label: int
    n_bits: int


def local_transformation(label: int, n_bits: int) -> LocalTransformation:
    matrix = np.diag(hadamard_vector(label, n_bits))
    matrix.setflags(write=False)  # adopted by the constructor without a copy
    return LocalTransformation(matrix=matrix, label=label, n_bits=n_bits)


def match_entangled_label(phi: BipartiteState, n_bits: int) -> int | None:
    """Label mu if ``phi`` equals ``diag(d_mu)`` within tolerance, else None.
    As ``S d_mu = 2^N e_mu``, the largest entry of ``S diag`` names mu."""
    size = phi.matrix.shape[0]
    # The flat matrix past entry 0, in rows of size + 1: off-diagonal, then a diagonal.
    off = phi.matrix.ravel()[1:].reshape(size - 1, size + 1)[:, :size]
    if not (off.max() <= EXACT_TOL and off.min() >= -EXACT_TOL):
        return None
    diag = np.diagonal(phi.matrix)
    label = int(sign_transform(diag).argmax())
    if not np.abs(diag - hadamard_vector(label, n_bits)).max() <= EXACT_TOL:
        return None
    return label


def verify_max_tensor_membership(
    phi: BipartiteState,
    n_bits: int,
    trials: int = 200,
    seed: int = 0,
) -> ValidationReport:
    """Probe membership of ``phi`` in the maximal tensor product.

    Samples random extremal product effects ``e_alpha (x) e_beta`` and
    checks ``0 <= (e_alpha (x) e_beta) . phi <= 1``; unit normalisation,
    the unit effect's contraction ``phi[0, 0] = 1``, is a ``BipartiteState``
    invariant and needs no probe.
    When ``phi`` is one of the pure entangled states the probability must
    also equal ``(1 + alpha . T_hat beta)/4 <= 1/2`` for its rotation block.
    All probes are evaluated as one stack; every check is written so that
    a non-finite value fails it.  ``trials`` must be an integer of at
    least 1, and ``phi`` must have the shape ``(2^N, 2^N)``.
    """
    _check_count("trials", trials, 1)
    dim = 2 ** _check_n_bits(n_bits) - 1
    if phi.dims != (dim, dim):
        raise GptError(f"state shape {phi.matrix.shape} does not match {n_bits} bits")
    # The probes' directions, effect rows and rotated B sides, and one rotation.
    _check_budget("verify_max_tensor_membership", trials * (5 * dim + 8) + (dim + 1) ** 2)
    violations = []

    # Probe t draws alpha_t, then beta_t.
    rng = np.random.default_rng(_check_count("seed", seed, 0))
    directions = random_directions(2 * trials, dim, rng)
    alpha, beta = directions[0::2], directions[1::2]
    e_alpha, e_beta = extremal_rows(alpha), extremal_rows(beta)
    p = np.einsum("ti,ij,tj->t", e_alpha, phi.matrix, e_beta)
    bad_range = ~((p >= -EXACT_TOL) & (p <= 1.0 + EXACT_TOL))

    label = match_entangled_label(phi, n_bits)
    if label is None:
        bad_form = np.zeros(trials, dtype=bool)
    else:
        hat = local_transformation(label, n_bits).hat
        expected = 0.25 * (1.0 + np.vecdot(alpha, beta @ hat.T))
        bad_form = ~((np.abs(p - expected) <= EXACT_TOL) & (p <= 0.5 + EXACT_TOL))

    for t in np.flatnonzero(bad_range | bad_form):
        probe = {"alpha": alpha[t].tolist(), "beta": beta[t].tolist(), "value": float(p[t])}
        if bad_range[t]:
            violations.append({"check": "probability_range", **probe})
        if bad_form[t]:
            violations.append(
                {"check": "pure_state_form", **probe, "expected": float(expected[t])}
            )
    return ValidationReport(passed=not violations, violations=tuple(violations))


def _reconstruct(oracle, dim_a: int, dim_b: int) -> np.ndarray:
    """``M_A^-1 P M_B^-T`` from one oracle call (see
    ``local_tomography_from_oracle``).  The answers may carry leading axes,
    one per state; the matrices come back with the same leading axes."""

    def probes(dim: int) -> tuple:
        # M = (I + 1 e_0^T)/2 and M^-1 = 2I - 1 e_0^T.
        eye, first = np.eye(dim + 1), np.zeros((dim + 1, dim + 1))
        first[:, 0] = 1.0
        return 0.5 * (eye + first), 2.0 * eye - first

    probes_a, inverse_a = probes(dim_a)
    probes_b, inverse_b = probes(dim_b)
    # Probe i (d_B + 1) + j is row i of M_A with row j of M_B.
    probs = oracle(np.repeat(probes_a, dim_b + 1, axis=0), np.tile(probes_b, (dim_a + 1, 1)))
    probs, grid = _real_array("the oracle's answer", probs), (dim_a + 1, dim_b + 1)
    if probs.shape[-1:] != (grid[0] * grid[1],):
        raise GptError(f"the oracle answered {probs.shape} for a {grid} grid")
    table = np.reshape(probs, probs.shape[:-1] + grid)
    return inverse_a @ table @ inverse_b.T


def _product_oracle(matrices):
    """The exact oracle of ``local_tomography_from_oracle`` for a state
    matrix or a ``(k, rows, cols)`` stack of them."""
    return lambda a, b: np.einsum("km,...mn,kn->...k", a, matrices, b)


def local_tomography_from_oracle(oracle, dim_a: int, dim_b: int) -> BipartiteState:
    """Reconstruct a bipartite state from product-effect statistics alone.

    ``oracle(effects_a, effects_b)`` must return, for every row k, the
    outcome probability of the product effect ``effects_a[k] (x)
    effects_b[k]`` on the unknown state, so it can only be asked about
    product effects.  Each side is probed with the rows of
    ``M = [u; (1, v_k)/2]``: the unit effect and the extremal effects along
    the coordinate axes ``v_k``.  One call asks about all
    ``(d_A + 1)(d_B + 1)`` products, as many as the bipartite state space
    has dimensions, and returns ``P = M_A phi M_B^T``; the state is then

        phi = M_A^-1 P M_B^-T,    M^-1 = [[1, 0], [-1, 2I]].

    Both dimensions must be integers >= 0, checked with the budget before
    the oracle is called, and its answer numbers with a last axis of that many probes.
    """
    dim_a, dim_b = _check_count("dim_a", dim_a, 0), _check_count("dim_b", dim_b, 0)
    # The repeated and tiled probes, the table and its products, each side's probes.
    a, b = dim_a + 1, dim_b + 1
    _check_budget("local_tomography_from_oracle", a * b * (a + b + 3) + 3 * (a * a + b * b))
    return BipartiteState(_reconstruct(oracle, dim_a, dim_b))


def local_tomography(phi: BipartiteState) -> BipartiteState:
    """Reconstruct ``phi`` from local statistics; exact for this model."""
    return local_tomography_from_oracle(_product_oracle(phi.matrix), *phi.dims)
