"""Shared fixtures: deliberately broken building blocks for mutation tests."""

import pytest

from gptlab import hadamard


@pytest.fixture
def skewed_rotation(monkeypatch):
    """Give T_5 at N = 3 a diagonal entry of 1/2 instead of +-1."""
    original = hadamard.local_transformation

    def skewed(label, n_bits):
        t = original(label, n_bits)
        if (label, n_bits) != (5, 3):
            return t
        matrix = t.matrix.copy()
        matrix[2, 2] = 0.5
        return hadamard.LocalTransformation(matrix=matrix, label=label, n_bits=n_bits)

    monkeypatch.setattr(hadamard, "local_transformation", skewed)


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
def run_search():
    """Run a randomized search with or without the optimiser's early exit.

    ``run(search, *args, early_exit=True)`` returns the search's maximum and
    the Blahut-Arimoto iterations spent over all its tables.  With
    ``early_exit=False`` every table's ``incumbent`` is dropped, so each
    table runs to its bracket or its iteration cap: the oracle the pruned
    search must match bit for bit.
    """
    from gptlab import capacity, protocols

    original = capacity.blahut_arimoto

    def run(search, *args, early_exit=True):
        iterations = []

        def counted(conditional, tol, max_iter, *, incumbent):
            result = original(
                conditional, tol, max_iter, incumbent=incumbent if early_exit else None
            )
            iterations.append(result.iterations)
            return result

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(capacity, "blahut_arimoto", counted)
            patch.setattr(protocols, "blahut_arimoto", counted)
            return search(*args), sum(iterations)

    return run
