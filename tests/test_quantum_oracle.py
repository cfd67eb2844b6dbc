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

At N = 2, teleportation is qubit teleportation: the input is read with
P_j, the middle qubit with P_j^T (it is the second factor of the Bell
effect), so the shared pair is the transpose of the image of phi_0, which
is the real |Phi+> itself, and Bob's qubit is read with P_j.  Swapping
is qubit entanglement swapping: the same circuit teleports Alice's half of
the Bell pair that phi_mu maps to, and after Bob's correction each of
Alice's outcomes leaves the bystander and Bob in that Bell pair.
"""

import functools

import numpy as np
import pytest

from gptlab import (
    EXACT_TOL,
    TheoryConfig,
    entangled_effect,
    entangled_state,
    entanglement_swap,
    local_tomography,
    product_state,
    protocols,
    teleport,
)
from gptlab.hst import make_state, random_ball_points
from gptlab.variants import dense_coding_channel

PAULI = np.array(
    [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ]
)
EVEN_N = (2, 4, 6)


@functools.cache
def pauli_strings(n_bits: int) -> np.ndarray:
    """The ``2^N`` Pauli strings on N/2 qubits, ``P_(4a + b) = P_a (x) P_b``."""
    strings = np.ones((1, 1, 1))
    for _ in range(n_bits // 2):
        strings = np.stack([np.kron(a, p) for a in strings for p in PAULI])
    return strings


def to_operator(matrix: np.ndarray, n_bits: int) -> np.ndarray:
    """``sum_ij matrix_ij P_i (x) P_j^T``, as a square complex matrix, or a
    stack of them for a stack of matrices.

    With the strings flattened to rows, entry ``(ab, cd)`` of ``S^t M T``, T
    the flattened transposes, is the coefficient of ``|a><b| (x) |c><d|``:
    two matrix products, as a stack, where a small ``tensordot`` or
    ``einsum`` per matrix costs milliseconds."""
    strings = pauli_strings(n_bits)
    count, side = strings.shape[:2]
    rows = strings.reshape(count, -1)
    transposed = strings.transpose(0, 2, 1).reshape(count, -1)
    operator = (rows.T @ matrix @ transposed).reshape(matrix.shape[:-2] + (side,) * 4)
    return operator.swapaxes(-3, -2).reshape(matrix.shape[:-2] + (side * side,) * 2)


def to_density(phi: np.ndarray, n_bits: int) -> np.ndarray:
    return 2.0**-n_bits * to_operator(phi, n_bits)


def assert_rank_one_projector(operator: np.ndarray) -> None:
    """For one operator or a stack of them, in one ``eigvalsh`` call."""
    assert np.abs(operator - operator.conj().swapaxes(-1, -2)).max() <= EXACT_TOL
    eigenvalues = np.linalg.eigvalsh(operator)
    expected = np.zeros(operator.shape[-1])
    expected[-1] = 1.0
    assert np.abs(eigenvalues - expected).max() <= EXACT_TOL


def stacked(build, n_bits: int) -> np.ndarray:
    """The matrices of ``build(label, n_bits)`` over every label, stacked."""
    return np.stack([build(mu, n_bits).matrix for mu in labels(n_bits)])


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
    assert_rank_one_projector(to_density(stacked(entangled_state, n_bits), n_bits))


@pytest.mark.parametrize("n_bits", EVEN_N)
def test_bell_effects_are_the_projectors_on_the_same_vectors(n_bits):
    projectors = to_operator(stacked(entangled_effect, n_bits), n_bits)
    assert_rank_one_projector(projectors)
    states = to_density(stacked(entangled_state, n_bits), n_bits)
    assert np.abs(projectors - states).max() <= EXACT_TOL
    # The Bell-type measurement is complete: its projectors sum to the identity.
    assert np.abs(projectors.sum(axis=0) - np.eye(2**n_bits)).max() <= EXACT_TOL


@pytest.mark.parametrize("n_bits", EVEN_N)
def test_each_entangled_state_is_one_pauli_string_applied_to_the_first(n_bits):
    # Bennett-Wiesner encoding: Alice applies a Pauli string U_x to her half.
    side = 2 ** (n_bits // 2)
    first = to_density(entangled_state(0, n_bits).matrix, n_bits)
    alice = np.stack([np.kron(u, np.eye(side)) for u in pauli_strings(n_bits)])
    encoded = alice @ first @ alice.conj().swapaxes(-1, -2)
    used = []
    for rho in to_density(stacked(entangled_state, n_bits), n_bits):
        hits = np.flatnonzero(np.abs(encoded - rho).max(axis=(1, 2)) <= EXACT_TOL)
        assert len(hits) == 1
        used += hits.tolist()
    assert sorted(used) == list(labels(n_bits))


@pytest.mark.parametrize("n_bits", EVEN_N)
def test_base_dense_coding_channel_is_the_born_table(n_bits):
    states = to_density(stacked(entangled_state, n_bits), n_bits)
    effects = to_operator(stacked(entangled_effect, n_bits), n_bits)
    # Tr(pi rho) = sum_ab pi_ab rho_ba, every pair in one product.
    born = states.swapaxes(-1, -2).reshape(len(states), -1) @ effects.reshape(len(effects), -1).T
    assert np.abs(born.imag).max() <= EXACT_TOL
    table = dense_coding_channel(TheoryConfig.base(n_bits)).conditional
    assert np.abs(table - born.real).max() <= EXACT_TOL


def scaled_correlations(phi: np.ndarray, scale: float) -> np.ndarray:
    mutant = phi.copy()
    mutant[1:, 1:] *= scale
    return mutant


@pytest.mark.parametrize(
    "n_bits, eigenvalue", [(2, -0.0025), (4, -0.000625), (6, -0.00015625)]
)
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


def pauli_tomography(rho: np.ndarray, alice_strings: np.ndarray) -> np.ndarray:
    """``phi[a, b] = Tr(rho A_a (x) P_b^T)``, A the strings Alice is read
    with: the model matrix of rho, read back from Pauli expectations when
    A is the Pauli basis, as ``Tr(P_a P_k) = 2^(N/2) delta_ak``."""
    bob = pauli_strings(2).transpose(0, 2, 1)
    return np.array([[np.trace(rho @ np.kron(a, b)) for b in bob] for a in alice_strings])


def tomography_states() -> list:
    rng = np.random.default_rng(15)
    sides = random_ball_points(8, 3, rng)
    pairs = zip(sides[0::2], sides[1::2])
    products = [product_state(make_state(a), make_state(b)) for a, b in pairs]
    return [entangled_state(mu, 2) for mu in labels(2)] + products


def local_tomography_matches_pauli_tomography(state, alice_strings) -> bool:
    expectations = pauli_tomography(to_density(state.matrix, 2), alice_strings)
    assert np.abs(expectations.imag).max() <= EXACT_TOL
    return np.abs(local_tomography(state).matrix - expectations.real).max() <= EXACT_TOL


@pytest.mark.parametrize("state", tomography_states(), ids=lambda state: None)
def test_local_tomography_is_pauli_tomography(state):
    assert local_tomography_matches_pauli_tomography(state, pauli_strings(2))


@pytest.mark.parametrize("state", tomography_states(), ids=lambda state: None)
def test_pauli_tomography_with_x_and_y_swapped_on_one_side_is_not(state):
    assert not local_tomography_matches_pauli_tomography(state, pauli_strings(2)[[0, 2, 1, 3]])


PHI_PLUS = np.array([1, 0, 0, 1]) / np.sqrt(2)


def qubit_teleportation(omega: np.ndarray) -> tuple:
    """Qubit teleportation of the input ``(1, r)`` from the Pauli literals.

    Alice measures the input and her half of |Phi+> in the Bell basis
    ``(P_k (x) I)|Phi+>``, and Bob applies ``P_k``.  Returns the Bell
    projectors and, per outcome k, Bob's corrected row ``Tr(P_j sigma_k)``,
    whose entry 0 is the outcome's prior.
    """
    rho = 0.5 * np.einsum("j,jab->ab", omega, PAULI)
    joint = np.kron(rho, np.outer(PHI_PLUS, PHI_PLUS))
    projectors, rows = [], []
    for pauli in PAULI:
        bell = np.kron(pauli, np.eye(2)) @ PHI_PLUS
        projectors.append(np.outer(bell, bell.conj()))
        measured = (np.kron(projectors[-1], np.eye(2)) @ joint).reshape(4, 2, 4, 2)
        bob = pauli @ np.einsum("iaib->ab", measured) @ pauli.conj().T
        rows.append(np.einsum("jab,ba->j", PAULI, bob))
    return projectors, np.array(rows)


def teleport_rows(omega: np.ndarray, receiver_rows) -> tuple:
    """``teleport``'s outcome priors at N = 2 and the corrected receiver rows
    it builds, with ``receiver_rows`` standing in for ``_receiver_rows``."""
    built = []

    def recorded(*args):
        built.append(receiver_rows(*args))
        return built[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(protocols, "_receiver_rows", recorded)
        run = teleport(make_state(omega[1:]), 2)
    return run.outcome_priors, built[0]


def teleport_matches_qubit_teleportation(omega: np.ndarray, receiver_rows) -> bool:
    priors, rows = teleport_rows(omega, receiver_rows)
    projectors, quantum = qubit_teleportation(omega)
    assert np.abs(quantum.imag).max() <= EXACT_TOL
    matches = True
    for x in labels(2):
        # Model outcome x is the Bell projector its effect maps to.
        image = to_operator(entangled_effect(x, 2).matrix, 2)
        (k,) = [k for k, pi in enumerate(projectors) if np.abs(pi - image).max() <= EXACT_TOL]
        matches &= abs(priors[x] - quantum[k, 0].real) <= EXACT_TOL
        matches &= np.abs(rows[x] - quantum[k].real).max() <= EXACT_TOL
    return matches


def uncorrected_rows(signs, omega, n_bits):
    """``_receiver_rows`` without the correction ``T_x``."""
    return 2.0**-n_bits * signs * omega


INPUTS = np.random.default_rng(2).uniform(-0.55, 0.55, (4, 3))


def test_the_shared_pair_is_phi_plus():
    phi_0 = to_density(entangled_state(0, 2).matrix, 2)
    assert np.abs(phi_0 - np.outer(PHI_PLUS, PHI_PLUS)).max() <= EXACT_TOL


@pytest.mark.parametrize("r", INPUTS, ids=range(len(INPUTS)))
def test_teleport_is_qubit_teleportation(r):
    omega = np.concatenate(([1.0], r))
    assert teleport_matches_qubit_teleportation(omega, protocols._receiver_rows)


@pytest.mark.parametrize("r", INPUTS, ids=range(len(INPUTS)))
def test_teleport_without_its_correction_is_not(r):
    omega = np.concatenate(([1.0], r))
    assert not teleport_matches_qubit_teleportation(omega, uncorrected_rows)


def bell_projectors() -> list:
    """The Bell projectors of ``(P_k (x) I)|Phi+>``, k = 0..3, from the
    literals."""
    vectors = [np.kron(pauli, np.eye(2)) @ PHI_PLUS for pauli in PAULI]
    return [np.outer(v, v.conj()) for v in vectors]


def matching_projector(operator: np.ndarray) -> int:
    (k,) = [k for k, pi in enumerate(bell_projectors()) if np.abs(pi - operator).max() <= EXACT_TOL]
    return k


def qubit_entanglement_swapping(pair: np.ndarray) -> tuple:
    """Qubit entanglement swapping of ``pair`` (bystander qubit first).

    Alice holds the second qubit of ``pair`` and the first of |Phi+>; she
    measures both in the Bell basis ``(P_k (x) I)|Phi+>`` and Bob applies
    ``P_k`` to the last qubit.  Returns, per outcome k, its prior and the
    Born probabilities of the Bell projectors on the far pair (bystander,
    Bob) after the correction.
    """
    joint = np.kron(pair, np.outer(PHI_PLUS, PHI_PLUS))
    priors, tables = [], []
    for pauli, projector in zip(PAULI, bell_projectors()):
        measured = np.kron(np.kron(np.eye(2), projector), np.eye(2)) @ joint
        # Trace out Alice's two qubits: axes (c, a1, a2, b; c', a1', a2', b').
        far = np.einsum("cxydexyf->cdef", measured.reshape((2,) * 8)).reshape(4, 4)
        correction = np.kron(np.eye(2), pauli)
        far = correction @ far @ correction.conj().T
        prior = np.trace(far)
        priors.append(prior)
        tables.append([np.trace(pi @ far) / prior for pi in bell_projectors()])
    return np.array(priors), np.array(tables)


def swap_matches_qubit_swapping(label: int, receiver_rows) -> bool:
    """``entanglement_swap(2, label)``, with ``receiver_rows`` standing in for
    ``_receiver_rows``, against qubit entanglement swapping of the Bell
    state that ``phi_label`` maps to, outcome for outcome."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(protocols, "_receiver_rows", receiver_rows)
        run = entanglement_swap(2, label)
    pair = bell_projectors()[
        matching_projector(to_density(entangled_state(label, 2).matrix, 2))
    ]
    priors, tables = qubit_entanglement_swapping(pair)
    assert np.abs(priors.imag).max() <= EXACT_TOL
    assert np.abs(tables.imag).max() <= EXACT_TOL
    # Model outcome x is the Bell projector its effect maps to, for the
    # sender's outcome and for the far pair's alike.
    k = [matching_projector(to_operator(entangled_effect(x, 2).matrix, 2)) for x in labels(2)]
    matches = True
    for x in labels(2):
        matches &= abs(run.outcome_priors[x] - priors[k[x]].real) <= EXACT_TOL
        for y in labels(2):
            matches &= abs(run.conditional[x, y] - tables[k[x], k[y]].real) <= EXACT_TOL
    return matches


RECEIVER_ROWS = protocols._receiver_rows


def skipped_bystander_rows(signs, omega, n_bits):
    """``_receiver_rows`` fed ``d_0`` instead of the bystander's ``d_mu``."""
    return RECEIVER_ROWS(signs, np.ones_like(omega), n_bits)


@pytest.mark.parametrize("label", labels(2))
def test_swap_is_qubit_entanglement_swapping(label):
    assert swap_matches_qubit_swapping(label, RECEIVER_ROWS)


@pytest.mark.parametrize("label", [1, 2, 3])
def test_swap_that_skips_the_bystander_is_not(label):
    assert not swap_matches_qubit_swapping(label, skipped_bystander_rows)
