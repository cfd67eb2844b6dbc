"""Shared fixtures: deliberately broken building blocks for mutation tests,
recorders of the randomized searches, and the plain Blahut-Arimoto loop
as an oracle."""

import itertools
import math

import numpy as np
import pytest

from gptlab import hadamard
from gptlab.capacity import CapacityResult, blahut_arimoto
from gptlab.core import EXACT_TOL

# The optimiser itself, whatever a test patches in its place.
_OPTIMISER = blahut_arimoto


def _patch_rotation(monkeypatch, mutate):
    """Let ``hadamard.local_transformation`` return a mutated copy of T_5 at N = 3."""
    original = hadamard.local_transformation

    def mutated(label, n_bits):
        t = original(label, n_bits)
        if (label, n_bits) != (5, 3):
            return t
        matrix = t.matrix.copy()
        mutate(matrix)
        return hadamard.LocalTransformation(matrix=matrix, label=label, n_bits=n_bits)

    monkeypatch.setattr(hadamard, "local_transformation", mutated)


@pytest.fixture
def skewed_rotation(monkeypatch):
    """Give T_5 at N = 3 a diagonal entry of 1/2 instead of +-1."""

    def mutate(matrix):
        matrix[2, 2] = 0.5

    _patch_rotation(monkeypatch, mutate)


@pytest.fixture
def quarter_turn_rotation(monkeypatch):
    """Replace the diag(-1, -1) block of T_5 at N = 3, matrix rows and
    columns 3-4, by the quarter turn [[0, -1], [1, 0]]: still orthogonal
    with determinant 1, but not diagonal."""

    def mutate(matrix):
        matrix[3:5, 3:5] = [[0.0, -1.0], [1.0, 0.0]]

    _patch_rotation(monkeypatch, mutate)


@pytest.fixture
def reflected_rotation(monkeypatch):
    """Negate entry [2, 2] of T_5 at N = 3: a +-1 diagonal of determinant -1."""

    def mutate(matrix):
        matrix[2, 2] = -matrix[2, 2]

    _patch_rotation(monkeypatch, mutate)


@pytest.fixture
def nan_rotation(monkeypatch):
    """Put a NaN on entry [2, 2] of T_5 at N = 3."""

    def mutate(matrix):
        matrix[2, 2] = float("nan")

    _patch_rotation(monkeypatch, mutate)


@pytest.fixture
def tripled_bell_effect(monkeypatch):
    """Scale the Bell effect of label 2 at N = 3 by 3."""
    original = hadamard.entangled_effect

    def tripled(label, n_bits):
        e = original(label, n_bits)
        if (label, n_bits) != (2, 3):
            return e
        return hadamard.BipartiteEffect(3.0 * e.matrix)

    monkeypatch.setattr(hadamard, "entangled_effect", tripled)


def _patch_teleport_signs(monkeypatch, mutate):
    """Let ``protocols`` see a float copy of each sign stack, mutated in place."""
    from gptlab import protocols

    original = protocols.hadamard_basis

    def mutated(n_bits):
        signs = original(n_bits).astype(float)
        mutate(signs)
        return signs

    monkeypatch.setattr(protocols, "hadamard_basis", mutated)


@pytest.fixture
def nan_sign_row(monkeypatch):
    """Put a NaN into entry 1 of row 1 of the sign stack teleportation uses."""

    def mutate(signs):
        signs[1, 1] = float("nan")

    _patch_teleport_signs(monkeypatch, mutate)


@pytest.fixture
def swapped_sign_rows(monkeypatch):
    """Swap rows 0 and 1 of the sign stack, so the shared state becomes phi_1."""

    def mutate(signs):
        signs[[0, 1]] = signs[[1, 0]]

    _patch_teleport_signs(monkeypatch, mutate)


@pytest.fixture
def flipped_unit_sign(monkeypatch):
    """Flip entry 0 of sign row 1, so T_1 negates the unit's coordinate."""

    def mutate(signs):
        signs[1, 0] = -1.0

    _patch_teleport_signs(monkeypatch, mutate)


def _patch_embedded_state(monkeypatch, mutate):
    """Hand ``tl_violation_witness`` a mutated copy of entangled state 2.

    The copy replaces the state's matrix after validation, so it may hold
    values the constructor rejects.
    """
    from gptlab import variants

    original = variants.theory_state

    def mutated(label, theory):
        phi = original(label, theory)
        if label != 2:
            return phi
        matrix = phi.matrix.copy()
        mutate(matrix, theory)
        object.__setattr__(phi, "matrix", matrix)
        return phi

    monkeypatch.setattr(variants, "theory_state", mutated)


@pytest.fixture
def sphere_marginal_state(monkeypatch):
    """Give entangled state 2 a marginal of 1/2 on the first sphere coordinate."""

    def mutate(matrix, theory):
        matrix[0, 1 + theory.ball_dim] = 0.5

    _patch_embedded_state(monkeypatch, mutate)


@pytest.fixture
def nan_embedded_state(monkeypatch):
    """Put a NaN into the sphere block of entangled state 2."""

    def mutate(matrix, theory):
        matrix[1 + theory.ball_dim, 1 + theory.ball_dim] = float("nan")

    _patch_embedded_state(monkeypatch, mutate)


@pytest.fixture
def perfectly_read_tetrahedron(monkeypatch):
    """Feed ``capacity_search`` tetrahedron states read by over-long effects.

    Every state direction is the next vertex t_k of a regular tetrahedron,
    and every measurement is the effects (1, 3 t_k)/4: they sum to the unit
    and give p(k|j) = delta_jk on pure vertex states, but leave the ball
    (down to -1/2), so up to two bits get through.
    """
    from gptlab import hst

    vertices = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / np.sqrt(3)
    cycle = itertools.cycle(vertices)

    def vertex_rows(count, dim, rng):
        return np.array([next(cycle) for _ in range(count)])

    monkeypatch.setattr(hst, "random_directions", vertex_rows)
    effects = 0.25 * np.insert(3 * vertices, 0, 1.0, axis=1)
    monkeypatch.setattr(hst, "random_measurement", lambda dim, rng: effects)


@pytest.fixture
def search_tables():
    """Run a randomized search and keep every table's Blahut-Arimoto result.

    ``run(search, *args, early_exit=True)`` returns the search's maximum and
    the list of ``CapacityResult``s of all its tables, in the order they
    were optimised; ``run.tables`` holds the tables of the last run in the
    same order.  With ``early_exit=False`` every table's ``incumbent`` is
    dropped, so each table runs to its bracket or its iteration cap.
    """
    from gptlab import capacity, protocols

    original = capacity.blahut_arimoto

    def run(search, *args, early_exit=True):
        results = []
        run.tables = []

        def recorded(conditional, tol, max_iter, *, incumbent, _ceiling=None):
            result = original(
                conditional,
                tol,
                max_iter,
                incumbent=incumbent if early_exit else None,
                _ceiling=_ceiling,
            )
            results.append(result)
            run.tables.append(conditional)
            return result

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(capacity, "blahut_arimoto", recorded)
            patch.setattr(protocols, "blahut_arimoto", recorded)
            return search(*args), results

    return run


@pytest.fixture
def run_search(search_tables):
    """Run a randomized search with or without the optimiser's early exit.

    ``run(search, *args, early_exit=True)`` returns the search's maximum and
    the Blahut-Arimoto iterations spent over all its tables.  With
    ``early_exit=False`` each table runs in full: the oracle the pruned
    search must match bit for bit.
    """

    def run(search, *args, early_exit=True):
        best, results = search_tables(search, *args, early_exit=early_exit)
        return best, sum(result.iterations for result in results)

    return run


def _plain_blahut_arimoto(conditional, tol, max_iter, *, incumbent=None, _ceiling=None):
    """Blahut-Arimoto without extrapolation: one plain step per
    evaluation, reporting the rate and dual bound of the last one.

    Validation and the Renyi-infinity return are the optimiser's own, read
    from a call with ``max_iter=0``: that call returns a finite bound only
    when the certificate holds.  The loop then runs on the clipped table,
    with the optimiser's incumbent stop.
    """
    head = _OPTIMISER(conditional, tol, 0, incumbent=incumbent, _ceiling=_ceiling)
    if head.upper_bits < math.inf or max_iter == 0:
        return head
    stop_at = -math.inf if incumbent is None else incumbent - EXACT_TOL
    p = np.maximum(np.ascontiguousarray(conditional, dtype=float), 0.0)
    prior = np.full(p.shape[0], 1.0 / p.shape[0])
    log_p = np.zeros(p.shape)
    np.log2(p, out=log_p, where=p > 0)
    row_term = np.sum(p * log_p, axis=1)
    lower, upper, converged, iterations = 0.0, math.inf, False, 0
    for iterations in range(1, max_iter + 1):
        p_y = prior @ p
        log_py = np.zeros(p_y.shape)
        np.log2(p_y, out=log_py, where=p_y > 0)
        c = row_term - p @ log_py
        lower, upper = float(prior @ c), float(c.max())
        if upper - lower < tol:
            converged = True
            break
        if upper <= stop_at:
            break
        prior = prior * np.exp2(c - upper)
        prior /= prior.sum()
    return CapacityResult(max(lower, 0.0), prior, iterations, converged, upper)


@pytest.fixture
def plain_blahut_arimoto():
    """The plain Blahut-Arimoto loop with the optimiser's signature (see
    ``_plain_blahut_arimoto``): the oracle the SQUAREM loop is measured
    against."""
    return _plain_blahut_arimoto
