"""Channel-capacity numerics and analytic capacity bounds.

``blahut_arimoto`` maximises mutual information over input priors for a
fixed conditional table, and returns before its first iteration if the
table's Renyi-infinity bound cannot beat a given incumbent; ``search_max``
runs it best first over the random tables of a one-bit falsifier.  The
remaining functions expose the closed-form bounds used to sandwich the
dense-coding rates: the ``2N`` state-space dimension bound, and the
weak-entanglement bound ``log2(1 + |lambda| (2^N - 1))`` with its two
thresholds.  The protocol-derived lower bound is
``protocols.dc_capacity_lower_bound``.

The searches call ``blahut_arimoto`` once per small table, so its fixed
cost is spent on ufunc ``reduce`` calls, ``ndarray.dot`` and Python lists
rather than on the ``ndarray`` method wrappers (see there).  Each such
shortcut keeps every float operation the same and in the same order, or
replaces it by one with the same exact result (``_ceiling_bits``), so every
result is the same bit for bit as the plain numpy loop.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import EXACT_TOL, LT_MAX_N_BITS, DomainError, GptError
from .core import _check_count, _check_real, _real_array

BA_DEFAULT_TOL = 1e-10
BA_DEFAULT_MAX_ITER = 100_000
# Tables a randomized search draws before optimising them best first.
SEARCH_BLOCK = 256
# Longest table axis whose Blahut-Arimoto zero test and maximum run on
# Python lists: past it, numpy's reductions cost less.
SCALAR_REDUCE_MAX = 16


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
    _ceiling: float | None = None,
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

    ``incumbent`` is the best rate a search has already found.  Once an
    upper bound falls to ``incumbent - EXACT_TOL`` the call ends,
    unconverged, with that bound as ``upper_bits``: its rate is then below
    the incumbent, so a running maximum is what the full run gives, and a
    table that could beat the incumbent runs as without it, in any order.

    Before any iteration, the Renyi-infinity bound ``log2 S`` of the clipped
    table (``_ceiling_bits``) is widened for row sums within ``delta`` of 1
    to ``B = log2 S + delta (|log2 S| + 1/ln 2)``; if ``B`` certifies, the
    call returns 0 iterations, rate 0.0 and the uniform prior.  With
    ``q_y = max_x p(y|x) / S`` and ``sum_y p_y = 1 + e``, ``p(y|x) <= S q_y``
    and the log-sum inequality cap any prior's rate at
    ``(1 + e) log2(S / (1 + e))``; ``(1 + e) ln(1 + e) >= e`` caps that by
    ``B`` and, as ``S >= 1 - delta``, gives ``B >= 0``.  A search that has
    already computed ``_ceiling_bits(conditional)`` to rank the table passes
    it as the private ``_ceiling``, which must be that value exactly; the
    call then uses it instead of computing the bound again.  A table with
    no negative entry is optimised as given, without a clipped copy, and
    one whose entries are all positive takes its ``log2`` without a mask.

    ``max_iter`` must be a non-negative integer; with 0 no iteration runs
    and ``upper_bits`` is inf.  A ``tol`` or ``incumbent`` that is a bool or
    not a real number is refused with ``GptError``.

    Each iteration makes three reductions: the zero test of ``p_y``, the
    dual bound ``max_x c_x`` and the prior's normaliser ``_prior_sum``.  On
    a table with no axis longer than ``SCALAR_REDUCE_MAX``, the first two
    run on Python lists.  The three matrix products are ``ndarray.dot``
    calls, the BLAS routine of ``@`` with less dispatch; a Python loop would
    round them differently.  The table is taken as one C-ordered float
    array, so a Fortran-ordered copy or a strided view gives the bits of
    the C-ordered table; a complex or non-numeric one is refused.
    """
    p = np.ascontiguousarray(_real_array("conditional", conditional))
    if p.ndim != 2 or p.size == 0:
        raise GptError("conditional must be a 2-d row-stochastic array")
    low = float(np.minimum.reduce(p, axis=None))
    # The largest |row sum - 1|.  A NaN or -inf entry makes ``low`` fail
    # the check below, and a +inf entry makes its row's sum, and so
    # ``row_dev``, +inf.
    sums = np.add.reduce(p, axis=1).tolist()
    row_dev = max(max(sums) - 1.0, 1.0 - min(sums))
    if not (low >= -1e-12 and row_dev <= 1e-9):
        raise DomainError("conditional rows must be probability vectors")
    # The least positive double as the low end: tol > 0.
    tol = _check_real("tol", tol, math.ulp(0.0), math.inf)
    _check_count("max_iter", max_iter, 0)
    stop_at = -math.inf
    if incumbent is not None:
        stop_at = _check_real("incumbent", incumbent, -math.inf, math.inf) - EXACT_TOL
        upper = _ceiling_bits(p) if _ceiling is None else _ceiling
        # Clipping raises a row sum by at most the column count times -low.
        upper += (row_dev + p.shape[1] * max(-low, 0.0)) * (abs(upper) + 1 / math.log(2))
        if upper <= stop_at:
            return CapacityResult(0.0, _uniform_prior(p.shape[0]), 0, False, upper)
    if low < 0:
        p = np.maximum(p, 0.0)
    # Never written to: each update below makes a new array.
    prior = _uniform_prior(p.shape[0])
    if low > 0:
        log_p = np.log2(p)
    else:
        log_p = np.zeros(p.shape)
        np.log2(p, out=log_p, where=p > 0)
    # Row entropy term of c_x = sum_y p(y|x) log2(p(y|x)/p_y); the prior
    # stays strictly positive, so any output with p_y = 0 has an all-zero
    # conditional column and drops out of the mat-vec below.
    row_term = np.add.reduce(np.multiply(p, log_p, out=log_p), axis=1)

    if max(p.shape) <= SCALAR_REDUCE_MAX:
        has_zero, maximum = _scalar_has_zero, _scalar_max
    else:
        has_zero, maximum = _array_has_zero, np.maximum.reduce

    lower, upper = 0.0, math.inf
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        p_y = prior.dot(p)
        if has_zero(p_y):
            log_py = np.zeros(p_y.shape)
            np.log2(p_y, out=log_py, where=p_y > 0)
        else:
            log_py = np.log2(p_y)
        c = row_term - p.dot(log_py)
        lower = float(prior.dot(c))
        upper = float(maximum(c))
        if upper - lower < tol:
            converged = True
            break
        if upper <= stop_at:
            break
        # exp2(c - upper) * prior, formed in c's buffer.
        c -= upper
        np.exp2(c, out=c)
        c *= prior
        c /= _prior_sum(c)
        prior = c

    prior = prior / _prior_sum(prior)
    prior.setflags(write=False)
    return CapacityResult(
        capacity_bits=max(lower, 0.0),
        optimal_prior=prior,
        iterations=iterations,
        converged=converged,
        upper_bits=upper,
    )


def _array_has_zero(values: np.ndarray) -> bool:
    return not values.all()


def _scalar_has_zero(values: np.ndarray) -> bool:
    """``not values.all()`` through a Python list: ``-0.0`` is a zero, NaN
    is not."""
    return 0.0 in values.tolist()


def _scalar_max(values: np.ndarray) -> float:
    """``np.maximum.reduce`` of a vector without NaN, bit for bit.

    The builtin ``max`` keeps the first of two tied zeros and numpy the
    last (``[0.0, -0.0]`` gives ``-0.0``), so numpy settles a zero maximum;
    any other tie is between equal bits.  BA's ``c`` is finite: the table
    is, and the prior stays positive.
    """
    top = max(values.tolist())
    return top if top else float(np.maximum.reduce(values))


def _prior_sum(values: np.ndarray) -> float:
    """``np.add.reduce`` of a vector, bit for bit.

    Below 8 entries numpy adds left to right from ``+0.0``, and so does
    this loop on Python floats, in plain float additions: the builtin
    ``sum()`` compensates from CPython 3.12.  From 8 entries on it is
    numpy's own call.
    """
    if values.size >= 8:
        return np.add.reduce(values)
    total = 0.0
    for x in values.tolist():
        total += x
    return total


def _ceiling_bits(conditional: np.ndarray) -> float:
    """Upper bound ``log2 sum_y max_x p(y|x)`` on a table's capacity.

    This is the Renyi-infinity bound.  With ``S = sum_y max_x p(y|x)`` and
    the output law ``q(y) = max_x p(y|x) / S``, every row has
    ``D(p(.|x) || q) <= log2 S`` since ``p(y|x) <= max_x p(y|x)``, and the
    mutual information of any prior is at most ``max_x D(p(.|x) || q)``.
    The maxima are those of the table clipped at 0, as BA optimises it:
    a maximum is exact, so starting each column's reduction at 0 gives the
    clipped maxima, up to the sign of a zero, which neither the sum nor
    ``log2`` can tell.
    """
    return float(np.log2(np.add.reduce(np.maximum.reduce(conditional, axis=0, initial=0.0))))


@functools.lru_cache(maxsize=16)
def _uniform_prior(rows: int) -> np.ndarray:
    """The read-only uniform prior on ``rows`` inputs, one shared array per
    row count."""
    prior = np.full(rows, 1.0 / rows)
    prior.setflags(write=False)
    return prior


def _best_first_max(tables: list, best: float, tol: float, max_iter: int) -> float:
    """Running maximum of ``best`` and the rates of ``tables``, best first.

    One ``blahut_arimoto`` call per table, in descending order of
    ``_ceiling_bits``, each with the running best as ``incumbent`` and its
    ranking score as the precomputed bound, so each table's bound is
    computed once.
    """
    scores = [_ceiling_bits(table) for table in tables]
    for i in sorted(range(len(tables)), key=scores.__getitem__, reverse=True):
        result = blahut_arimoto(
            tables[i], tol=tol, max_iter=max_iter, incumbent=best, _ceiling=scores[i]
        )
        best = max(best, result.capacity_bits)
    return best


def search_max(draw_block, trials: int, best: float, tol: float, max_iter: int) -> float:
    """Running maximum of ``best`` and the rates of ``trials`` random tables.

    The search policy of the one-bit falsifiers.  ``draw_block(count)``
    returns the next ``count`` tables of the search's random stream, in
    order, as a list; the search asks for ``SEARCH_BLOCK`` at a time, the
    last block for what is left, and each block is optimised best
    first with ``tol`` and ``max_iter`` (see ``_best_first_max``), the
    running best carried across blocks.  The tables most likely to set the
    maximum run first and the rest stop early, but the order only changes
    the work: a table either runs exactly as it would alone, or stops with
    its dual bound at most ``best - EXACT_TOL``, below a rate already
    found, and the table that attains the maximum never stops.  So the
    result is the same bit for bit as in draw order.  Each table's
    Renyi-infinity bound is computed once: it ranks the block and is handed
    to the optimiser's certificate.  ``trials`` must be an integer of at
    least 1 and ``best`` a finite real number; both are checked before the
    first draw, and a bool is refused.
    """
    _check_count("trials", trials, 1)
    _check_real("best", best, -math.inf, math.inf)
    for start in range(0, trials, SEARCH_BLOCK):
        best = _best_first_max(draw_block(min(SEARCH_BLOCK, trials - start)), best, tol, max_iter)
    return best


def dimension_upper_bound(n_bits: int) -> float:
    """Classical capacity bound ``2N`` from the state-space dimension.

    The capacity of any model is at most ``log2`` of its state-space
    dimension, and a pair of ``2^N - 1`` ball systems lives in the
    ``(2^N)^2 = 2^(2N)``-dimensional matrix space.
    """
    return float(2 * _check_count("n_bits", n_bits, 1))


def weak_entanglement_bound(lam: float, n_bits: int) -> float:
    """Dense-coding bound ``log2(1 + |lambda| (2^N - 1))`` for weak models.

    For ``lambda >= 0`` it is the Renyi-infinity bound ``log2 sum_y max_x
    p(y|x)`` of the weak dense-coding table itself.  For ``lambda < 0`` that
    table's bound is lower than this formula: 0.193 bits against 1 bit at
    ``N = 3``, ``lambda = -1/7``.  ``n_bits`` runs from 2 to ``LT_MAX_N_BITS``.
    """
    n_bits = _check_count("n_bits", n_bits, 2, maximum=LT_MAX_N_BITS)
    lam = _check_real("lambda", lam, -1.0, 1.0, DomainError)
    return float(np.log2(1.0 + abs(lam) * (2**n_bits - 1)))


def weak_thresholds(n_bits: int) -> tuple:
    """Correlation levels ``(1 + 2j)/(2^N - 1)`` for ``j = 0, 1``.

    At the first threshold the bound equals 1 bit (no superdense coding
    below it); at the second it equals 2 bits (no hyperdense coding).
    ``n_bits`` runs from 2 to ``LT_MAX_N_BITS``.
    """
    denom = 2 ** _check_count("n_bits", n_bits, 2, maximum=LT_MAX_N_BITS) - 1
    return (1.0 / denom, 3.0 / denom)
