"""Hypersphere operational models: states, protocols and capacity bounds.

The package simulates communication protocols on models whose local
systems are Euclidean balls of dimension ``2^N - 1`` with a discrete
entangled sector indexed by N-bit strings: hyperdense coding,
teleportation and entanglement swapping, plus channel-capacity numerics
and the deformed models that trade the effect away.
"""

from .capacity import (
    CapacityResult,
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
    ValidationReport,
    bipartite_contract,
    bipartite_unit,
    contract,
    mix_bipartite,
    mutual_information,
    product_effect,
    product_state,
    reduced_states,
    unit_effect,
    validate_measurement,
)
from .hadamard import (
    LocalTransformation,
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
    canonical_measurement,
    capacity_search,
    capacity_upper_bound,
    make_effect,
    make_extremal_effect,
    make_state,
    one_bit_protocol,
    random_pure_state,
    random_state,
)
from .protocols import (
    DenseCodingRun,
    ProtocolLabel,
    SwapRun,
    TeleportationRun,
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
    TlWitnessReport,
    correlation_scales,
    dense_coding_channel,
    dense_coding_info,
    embedded_dense_coding,
    embedded_transformation,
    family_matrices,
    lemma_effect_check,
    lemma_effect_checks,
    lemma_state_check,
    lemma_state_checks,
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
