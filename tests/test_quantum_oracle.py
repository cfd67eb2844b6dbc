"""Even N is quantum theory on the Bell sector: a complex-matrix oracle.

A bipartite state matrix phi of the N-bit model maps to the two-party
operator

    rho = 2^-N sum_ij phi_ij P_i (x) P_j^T

and an effect matrix E to ``Pi = sum_ij E_ij P_i (x) P_j^T``.  Here P_i runs
over the N/2-fold Kronecker products of (I, X, Y, Z), in that order, so
each side is a register of N/2 qubits.  As ``Tr(P_i P_k) = 2^(N/2)
delta_ik``, the Born rule ``Tr(Pi rho)`` is the model's rule ``sum_ij E_ij
phi_ij``.  Bob's factor is transposed: every model state has
``det diag(d[1:]) = +1``, while a Bell state's correlation matrix has
determinant -1.

The oracle side is numpy alone, with the Pauli matrices written out; it
reads nothing from ``gptlab.hadamard``.  Under the map the entangled
states and the Bell-type effects are rank-1 projectors, products of N/2
Bell pairs, and base dense coding is the quantum dense coding of Bennett
and Wiesner.  Correlations scaled by s give the eigenvalue ``2^-N (1 - s)``,
so a 1% excess is a negative eigenvalue, which no quantum state has.
"""

import functools

import numpy as np
import pytest

from gptlab import EXACT_TOL, TheoryConfig, entangled_effect, entangled_state
from gptlab.variants import dense_coding_channel

PAULI = np.array(
    [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ]
)
EVEN_N = (2, 4)


@functools.cache
def pauli_strings(n_bits: int) -> np.ndarray:
    """The ``2^N`` Pauli strings on N/2 qubits, ``P_(4a + b) = P_a (x) P_b``."""
    strings = np.ones((1, 1, 1))
    for _ in range(n_bits // 2):
        strings = np.stack([np.kron(a, p) for a in strings for p in PAULI])
    return strings


def to_operator(matrix: np.ndarray, n_bits: int) -> np.ndarray:
    """``sum_ij matrix_ij P_i (x) P_j^T``, as a square complex matrix."""
    strings = pauli_strings(n_bits)
    side = strings.shape[1]
    bob = np.tensordot(matrix, strings.transpose(0, 2, 1), axes=(1, 0))
    operator = np.einsum("iab,icd->acbd", strings, bob)
    return operator.reshape(side * side, side * side)


def to_density(phi: np.ndarray, n_bits: int) -> np.ndarray:
    return 2.0**-n_bits * to_operator(phi, n_bits)


def assert_rank_one_projector(operator: np.ndarray) -> None:
    assert np.abs(operator - operator.conj().T).max() <= EXACT_TOL
    eigenvalues = np.linalg.eigvalsh(operator)
    expected = np.zeros(len(operator))
    expected[-1] = 1.0
    assert np.abs(eigenvalues - expected).max() <= EXACT_TOL


def labels(n_bits: int) -> range:
    return range(2**n_bits)


def test_pauli_strings_are_an_orthogonal_basis():
    for n_bits in EVEN_N:
        strings = pauli_strings(n_bits)
        gram = np.einsum("iab,jba->ij", strings, strings)
        assert np.array_equal(gram, 2 ** (n_bits // 2) * np.eye(2**n_bits))


@pytest.mark.parametrize("n_bits", EVEN_N)
def test_the_born_rule_is_the_model_rule(n_bits):
    rng = np.random.default_rng(n_bits)
    phi, effect = rng.standard_normal((2, 2**n_bits, 2**n_bits))
    born = np.trace(to_operator(effect, n_bits) @ to_density(phi, n_bits))
    assert abs(born - np.sum(effect * phi)) <= EXACT_TOL


@pytest.mark.parametrize("n_bits", EVEN_N)
def test_entangled_states_are_rank_one_projectors(n_bits):
    for mu in labels(n_bits):
        assert_rank_one_projector(to_density(entangled_state(mu, n_bits).matrix, n_bits))


@pytest.mark.parametrize("n_bits", EVEN_N)
def test_bell_effects_are_the_projectors_on_the_same_vectors(n_bits):
    projectors = [to_operator(entangled_effect(mu, n_bits).matrix, n_bits) for mu in labels(n_bits)]
    for mu, projector in enumerate(projectors):
        assert_rank_one_projector(projector)
        state = to_density(entangled_state(mu, n_bits).matrix, n_bits)
        assert np.abs(projector - state).max() <= EXACT_TOL
    # The Bell-type measurement is complete: its projectors sum to the identity.
    assert np.abs(sum(projectors) - np.eye(2**n_bits)).max() <= EXACT_TOL


@pytest.mark.parametrize("n_bits", EVEN_N)
def test_each_entangled_state_is_one_pauli_string_applied_to_the_first(n_bits):
    # Bennett-Wiesner encoding: Alice applies a Pauli string U_x to her half.
    side = 2 ** (n_bits // 2)
    first = to_density(entangled_state(0, n_bits).matrix, n_bits)
    encoded = [
        np.kron(u, np.eye(side)) @ first @ np.kron(u, np.eye(side)).conj().T
        for u in pauli_strings(n_bits)
    ]
    used = []
    for mu in labels(n_bits):
        rho = to_density(entangled_state(mu, n_bits).matrix, n_bits)
        hits = [k for k, u_rho in enumerate(encoded) if np.abs(u_rho - rho).max() <= EXACT_TOL]
        assert len(hits) == 1
        used += hits
    assert sorted(used) == list(labels(n_bits))


@pytest.mark.parametrize("n_bits", EVEN_N)
def test_base_dense_coding_channel_is_the_born_table(n_bits):
    states = [to_density(entangled_state(x, n_bits).matrix, n_bits) for x in labels(n_bits)]
    effects = [to_operator(entangled_effect(y, n_bits).matrix, n_bits) for y in labels(n_bits)]
    born = np.array([[np.trace(pi @ rho) for pi in effects] for rho in states])
    assert np.abs(born.imag).max() <= EXACT_TOL
    table = dense_coding_channel(TheoryConfig.base(n_bits)).conditional
    assert np.abs(table - born.real).max() <= EXACT_TOL


def scaled_correlations(phi: np.ndarray, scale: float) -> np.ndarray:
    mutant = phi.copy()
    mutant[1:, 1:] *= scale
    return mutant


@pytest.mark.parametrize("n_bits, eigenvalue", [(2, -0.0025), (4, -0.000625)])
def test_one_percent_stronger_correlations_are_not_a_quantum_state(n_bits, eigenvalue):
    # Scaled by s = 1.01, every state has the eigenvalue 2^-N (1 - s) < 0.
    for mu in labels(n_bits):
        mutant = scaled_correlations(entangled_state(mu, n_bits).matrix, 1.01)
        lowest = np.linalg.eigvalsh(to_density(mutant, n_bits))[0]
        assert abs(lowest - eigenvalue) <= EXACT_TOL
        assert lowest < -EXACT_TOL


@pytest.mark.parametrize("mu", labels(2))
@pytest.mark.parametrize("flipped", [1, 2, 3])
def test_one_flipped_sign_is_not_a_quantum_state(mu, flipped):
    mutant = entangled_state(mu, 2).matrix.copy()
    mutant[flipped, flipped] *= -1.0
    eigenvalues = np.linalg.eigvalsh(to_density(mutant, 2))
    assert abs(eigenvalues[0] + 0.5) <= EXACT_TOL


@pytest.mark.parametrize("n_bits", EVEN_N)
def test_scaled_correlations_stay_quantum_up_to_full_strength(n_bits):
    # The oracle passes the weakened states of the weak and lambda-tau models.
    for scale in (1.0, 0.5, 0.0, -1.0 / (2**n_bits - 1)):
        mutant = scaled_correlations(entangled_state(0, n_bits).matrix, scale)
        lowest = np.linalg.eigvalsh(to_density(mutant, n_bits))[0]
        assert lowest >= -EXACT_TOL
