"""Output checks applied to every benchmark op, at the tolerances pinned in
``tests/test_acceptance.py``.

Each checker returns ``None`` when the output is correct and a one-line
reason when it is not.  They take plain results (numbers, arrays, report
objects, report text) so that the benchmark's own tests can feed them
deliberately wrong outputs.
"""

from __future__ import annotations

import numpy as np

# Pinned tolerances: 1e-12 for contraction residuals, 1e-6 for optimizer
# outputs.  Exact identities use ``==``.
RESIDUAL_TOL = 1e-12
OPT_TOL = 1e-6


def exact_dense_coding(conditional, info_bits, n_bits: int):
    """Base and embedded models: the identity channel and exactly N bits."""
    size = 2**n_bits
    if not np.array_equal(conditional, np.eye(size)):
        return f"conditional is not the exact {size}x{size} identity"
    if info_bits != float(n_bits):
        return f"info_bits {info_bits!r} != {n_bits}"
    return None


def lambda_tau_rate(capacity_bits: float, optimal_info: float):
    """lambda-tau model: BA rate within 1e-6 of ``N - H(Q_N)``."""
    gap = abs(capacity_bits - optimal_info)
    if not gap <= OPT_TOL:
        return f"BA rate {capacity_bits!r} is {gap!r} from {optimal_info!r}"
    return None


def weak_rate(capacity_bits: float, bound_bits: float):
    """Weak model: BA rate at most the weak-entanglement bound + 1e-6."""
    if not capacity_bits <= bound_bits + OPT_TOL:
        return f"BA rate {capacity_bits!r} exceeds the bound {bound_bits!r}"
    return None


def exact_priors_and_residual(priors, max_residual: float, n_bits: int):
    """Teleportation and swapping: priors exactly 2^-N, residual < 1e-12."""
    priors = np.asarray(priors)
    if priors.shape != (2**n_bits,) or not np.all(priors == 2.0**-n_bits):
        return f"outcome priors are not exactly 2^-{n_bits}"
    if not max_residual < RESIDUAL_TOL:
        return f"max residual {max_residual!r} >= {RESIDUAL_TOL}"
    return None


def one_bit_ceiling(best_bits: float, floor_one_bit: bool = False):
    """Randomized falsifiers: at most 1 + OPT_TOL bits; ``capacity_search``
    also includes the antipodal protocol, so it reaches at least 1 bit."""
    if not best_bits <= 1.0 + OPT_TOL:
        return f"falsifier found {best_bits!r} bits > 1 + {OPT_TOL}"
    if floor_one_bit and not best_bits >= 1.0:
        return f"capacity search found {best_bits!r} bits < 1"
    return None


def passed_report(report):
    """A validation report (``.passed``) that must pass."""
    if report.passed is not True:
        return f"report did not pass: {getattr(report, 'violations', ())[:1]!r}"
    return None


def all_passed(reports):
    """Every validation report in ``reports`` must pass."""
    for i, report in enumerate(reports):
        if report.passed is not True:
            return f"report {i} did not pass"
    return None


def reconstructed(rebuilt, original):
    """Local tomography: every matrix entry recovered within 1e-12."""
    rebuilt = np.asarray(rebuilt)
    original = np.asarray(original)
    if rebuilt.shape != original.shape:
        return f"shape {rebuilt.shape} != {original.shape}"
    gap = float(np.abs(rebuilt - original).max())
    if not gap <= RESIDUAL_TOL:
        return f"tomography misses an entry by {gap!r}"
    return None


def cli_report(code: int, text: str, reference: str | None):
    """CLI: exit code 0 and the same report bytes on every repeat."""
    if code != 0:
        return f"exit code {code}"
    if not text:
        return "empty report"
    if reference is not None and text != reference:
        return "report bytes differ from the first run of the same argv"
    return None
