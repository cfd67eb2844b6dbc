"""Channel-capacity numerics and analytic capacity bounds.

``blahut_arimoto`` maximises mutual information over input priors for a
fixed conditional table, and ``search_max`` runs it best first over the
random tables of a one-bit falsifier.  The remaining functions expose the
closed-form bounds used to sandwich the dense-coding rates: the
protocol-derived lower bound, the ``2N`` state-space dimension bound, and
the weak-entanglement bound ``log2(1 + |lambda| (2^N - 1))`` with its two
thresholds.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .core import EXACT_TOL, Channel, DomainError, GptError, mutual_information

BA_DEFAULT_TOL = 1e-10
BA_DEFAULT_MAX_ITER = 100_000
# Tables a randomized search draws before optimising them best first.
SEARCH_BLOCK = 256


@dataclass(frozen=True, eq=False)
class CapacityResult:
    """Capacity estimate with the maximising prior and convergence data.

    ``capacity_bits`` is the achieved rate (a lower bound) and
    ``upper_bits`` the dual bound ``max_x c_x`` of the last iteration (an
    upper bound), so the true capacity lies between them.
    """

    capacity_bits: float
    optimal_prior: np.ndarray
    iterations: int
    converged: bool
    upper_bits: float


def blahut_arimoto(
    conditional,
    tol: float = BA_DEFAULT_TOL,
    max_iter: int = BA_DEFAULT_MAX_ITER,
    *,
    incumbent: float | None = None,
) -> CapacityResult:
    """Capacity of a fixed discrete memoryless channel, in bits.

    Alternating maximisation over the input prior, starting uniform.  Each
    iteration computes the per-input divergences ``c_x = D(p(.|x) || p_y)``;
    ``sum_x r_x c_x`` and ``max_x c_x`` bound the capacity from below and
    above, and the loop stops when the bracket is narrower than ``tol``.
    The reported capacity is the achieved lower bound, so it never exceeds
    the true capacity; ``upper_bits`` is the upper bound of the last
    iteration (Blahut 1972; Arimoto 1972).  Deterministic: no randomness,
    fixed iteration order.

    ``incumbent`` is the best rate a search has already found.  Once the
    upper bound falls to ``incumbent - EXACT_TOL`` the table is certified
    unable to beat it, and the loop stops early, unconverged, with
    ``upper_bits <= incumbent - EXACT_TOL``.  Its lower bound is then below
    the incumbent, so a running maximum is exactly what the full run would
    give.  A table that could beat the incumbent runs as without it, so a
    running maximum over many tables does not depend on their order.

    ``max_iter`` must be a non-negative integer; with 0 no iteration runs
    and ``upper_bits`` is inf.  A bool ``tol`` or ``incumbent`` is refused.
    """
    p = np.asarray(conditional, dtype=float)
    if p.ndim != 2 or p.shape[0] < 1:
        raise GptError("conditional must be a 2-d row-stochastic array")
    # Written so that a non-finite entry or tol fails the check.
    if not (p.min() >= -1e-12 and np.abs(p.sum(axis=1) - 1.0).max() <= 1e-9):
        raise DomainError("conditional rows must be probability vectors")
    # bool is a Real: True would run with tol 1.
    if isinstance(tol, (bool, np.bool_)) or not 0 < tol < np.inf:
        raise GptError(f"tol must be positive and finite, got {tol!r}")
    # bool is an Integral (and so a Real): True would count as 1.
    if not (
        isinstance(max_iter, numbers.Integral)
        and not isinstance(max_iter, bool)
        and max_iter >= 0
    ):
        raise GptError(f"max_iter must be a non-negative integer, got {max_iter!r}")
    if incumbent is None:
        stop_at = -math.inf
    elif (
        isinstance(incumbent, numbers.Real)
        and not isinstance(incumbent, bool)
        and math.isfinite(incumbent)
    ):
        stop_at = incumbent - EXACT_TOL
    else:
        raise GptError(f"incumbent must be a finite real number, got {incumbent!r}")
    p = np.clip(p, 0.0, None)
    n_in = p.shape[0]
    mask = p > 0
    log_p = np.zeros_like(p)
    np.log2(p, out=log_p, where=mask)
    # Row entropy term of c_x = sum_y p(y|x) log2(p(y|x)/p_y); the prior
    # stays strictly positive, so any output with p_y = 0 has an all-zero
    # conditional column and drops out of the mat-vec below.
    row_term = np.sum(p * log_p, axis=1)

    prior = np.full(n_in, 1.0 / n_in)
    lower, upper = 0.0, math.inf
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        p_y = prior @ p
        log_py = np.zeros_like(p_y)
        np.log2(p_y, out=log_py, where=p_y > 0)
        c = row_term - p @ log_py
        lower = float(prior @ c)
        upper = float(c.max())
        if upper - lower < tol:
            converged = True
            break
        if upper <= stop_at:
            break
        prior = prior * np.exp2(c - upper)
        prior /= prior.sum()

    prior = prior / prior.sum()
    prior.setflags(write=False)
    return CapacityResult(
        capacity_bits=max(lower, 0.0),
        optimal_prior=prior,
        iterations=iterations,
        converged=converged,
        upper_bits=upper,
    )


def _ceiling_bits(conditional: np.ndarray) -> float:
    """Upper bound ``log2 sum_y max_x p(y|x)`` on a table's capacity.

    This is the Renyi-infinity bound.  With ``S = sum_y max_x p(y|x)`` and
    the output law ``q(y) = max_x p(y|x) / S``, every row has
    ``D(p(.|x) || q) <= log2 S`` since ``p(y|x) <= max_x p(y|x)``, and the
    mutual information of any prior is at most ``max_x D(p(.|x) || q)``.
    One reduction per table.
    """
    return float(np.log2(conditional.max(axis=0).sum()))


def _best_first_max(tables: list, best: float, tol: float, max_iter: int) -> float:
    """Running maximum of ``best`` and the rates of ``tables``, best first.

    One ``blahut_arimoto`` call per table, in descending order of
    ``_ceiling_bits``, each with the running best as ``incumbent``.
    """
    scores = [_ceiling_bits(table) for table in tables]
    for i in sorted(range(len(tables)), key=scores.__getitem__, reverse=True):
        result = blahut_arimoto(tables[i], tol=tol, max_iter=max_iter, incumbent=best)
        best = max(best, result.capacity_bits)
    return best


def search_max(draw_table, trials: int, best: float, tol: float, max_iter: int) -> float:
    """Running maximum of ``best`` and the rates of ``trials`` random tables.

    The search policy of the one-bit falsifiers.  ``draw_table()`` returns
    the next table of the search's random stream; the tables are drawn in
    order, ``SEARCH_BLOCK`` at a time, and each block is optimised best
    first with ``tol`` and ``max_iter`` (see ``_best_first_max``), the
    running best carried across blocks.  The tables most likely to set the
    maximum run first and the rest stop early, but the order only changes
    the work: a table either runs exactly as it would alone, or stops with
    its dual bound at most ``best - EXACT_TOL``, below a rate already
    found, and the table that attains the maximum never stops.  So the
    result is the same bit for bit as in draw order.  ``trials`` must be
    at least 1.
    """
    if trials < 1:
        raise GptError("trials must be >= 1")
    for start in range(0, trials, SEARCH_BLOCK):
        tables = [draw_table() for _ in range(min(SEARCH_BLOCK, trials - start))]
        best = _best_first_max(tables, best, tol, max_iter)
    return best


def dc_capacity_lower_bound(theory, seed: int = 0) -> float:
    """Certified dense-coding rate of the theory's explicit protocol.

    Running the protocol and measuring its mutual information yields a
    lower bound on both the dense-coding capacity and the two-system
    classical capacity (the encoded states can simply be prepared).
    """
    from .protocols import dense_coding

    run = dense_coding(theory.n_bits, theory=theory, seed=seed)
    return run.info_bits


def dimension_upper_bound(n_bits: int) -> float:
    """Classical capacity bound ``2N`` from the state-space dimension.

    The capacity of any model is at most ``log2`` of its state-space
    dimension, and a pair of ``2^N - 1`` ball systems lives in the
    ``(2^N)^2 = 2^(2N)``-dimensional matrix space.
    """
    if n_bits < 1:
        raise GptError("n_bits must be >= 1")
    return float(2 * n_bits)


def weak_entanglement_bound(lam: float, n_bits: int) -> float:
    """Dense-coding bound ``log2(1 + |lambda| (2^N - 1))`` for weak models."""
    if n_bits < 2:
        raise GptError("the weak-entanglement bound needs n_bits >= 2")
    # Written so that a non-finite lambda fails the check; True would be 1.
    if isinstance(lam, (bool, np.bool_)) or not abs(lam) <= 1.0:
        raise DomainError(f"lambda must lie in [-1, 1], got {lam!r}")
    return float(np.log2(1.0 + abs(lam) * (2**n_bits - 1)))


def weak_thresholds(n_bits: int) -> tuple:
    """Correlation levels ``(1 + 2j)/(2^N - 1)`` for ``j = 0, 1``.

    At the first threshold the bound equals 1 bit (no superdense coding
    below it); at the second it equals 2 bits (no hyperdense coding).
    """
    if n_bits < 2:
        raise GptError("thresholds need n_bits >= 2")
    denom = 2**n_bits - 1
    return (1.0 / denom, 3.0 / denom)


def uniform_prior_information(conditional) -> float:
    """Mutual information of the conditional table under a uniform prior."""
    p = np.asarray(conditional, dtype=float)
    prior = np.full(p.shape[0], 1.0 / p.shape[0])
    return mutual_information(Channel(prior=prior, conditional=p))
