"""Hypersphere operational models: states, protocols and capacity bounds.

The package simulates communication protocols on models whose local
systems are Euclidean balls of dimension ``2^N - 1`` with a discrete
entangled sector indexed by N-bit strings: hyperdense coding,
teleportation and entanglement swapping, plus channel-capacity numerics
and the deformed models that trade the effect away.
"""

from .capacity import (
    blahut_arimoto,
    dimension_upper_bound,
    weak_entanglement_bound,
    weak_thresholds,
)
from .core import (
    EXACT_TOL,
    OPT_TOL,
    BipartiteEffect,
    BipartiteState,
    Channel,
    DomainError,
    Effect,
    GptError,
    Measurement,
    ProtocolFalsified,
    State,
    TheoryConfig,
    Transformation,
    bipartite_contract,
    bipartite_unit,
    contract,
    mix_bipartite,
    mutual_information,
    product_effect,
    product_state,
    reduced_states,
    unit_effect,
)
from .hadamard import (
    bell_measurement,
    entangled_effect,
    entangled_state,
    hadamard_basis,
    hadamard_vector,
    local_tomography,
    local_transformation,
    verify_max_tensor_membership,
)
from .hst import (
    capacity_search,
    capacity_upper_bound,
    one_bit_protocol,
)
from .protocols import (
    ProtocolLabel,
    classify,
    dc_capacity_lower_bound,
    dense_coding,
    entanglement_swap,
    no_signalling_spread,
    product_decoding_baseline,
    separable_baseline,
    teleport,
)
from .variants import (
    dense_coding_info,
    lemma_effect_check,
    lemma_state_check,
    lt_admissibility_witness,
    lt_channel,
    lt_optimal_info,
    lt_optimal_product,
    lt_peak_probability,
    theory_effect,
    theory_state,
    tl_violation_witness,
    weak_dense_coding,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
