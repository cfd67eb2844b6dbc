"""The one float budget: every builder sized by its arguments checks the
floats it holds at its peak against ``core.BUDGET_FLOATS`` before it
allocates or draws anything."""

import re
import tracemalloc

import numpy as np
import pytest

from gptlab import (
    Effect,
    GptError,
    State,
    TheoryConfig,
    bell_measurement,
    bipartite_unit,
    core,
    entangled_state,
    product_decoding_baseline,
    product_effect,
    product_state,
    separable_baseline,
    teleport,
    unit_effect,
    verify_max_tensor_membership,
)
from gptlab.checks import SUITES
from gptlab.hadamard import _product_oracle, local_tomography_from_oracle
from gptlab.hst import (
    capacity_search,
    make_state,
    one_bit_protocol,
    random_ball_points,
    random_directions,
    random_measurement,
    random_measurements,
)
from gptlab.protocols import random_product_measurement
from gptlab.variants import (
    constructed_family,
    embedded_extremal_effect,
    embedded_transformation,
    family_matrices,
    random_rotation,
    theory_effect,
    theory_state,
    tl_violation_witness,
)

EMBEDDED = TheoryConfig.embedded(2, 10**5)
ROTATION = np.eye(300)


def no_oracle(effects_a, effects_b):
    raise AssertionError("the oracle was asked before the budget was checked")


def consume(stacks) -> None:
    for _ in stacks:
        pass


# name, a call past the budget and a call well within it, each given a generator.
BUILDERS = [
    ("unit_effect", lambda g: unit_effect(2**26), lambda g: unit_effect(10**6)),
    ("bipartite_unit", lambda g: bipartite_unit(10**5, 10**5), lambda g: bipartite_unit(500, 700)),
    ("product_state", lambda g: product_state(*[State(np.eye(1, 2**14)[0])] * 2),
     lambda g: product_state(State(np.eye(1, 500)[0]), State(np.eye(1, 700)[0]))),
    ("product_effect", lambda g: product_effect(*[Effect(np.ones(2**14))] * 2),
     lambda g: product_effect(Effect(np.ones(500)), Effect(np.ones(700)))),
    ("bell_measurement", lambda g: bell_measurement(10), lambda g: bell_measurement(6)),
    ("verify_max_tensor_membership",
     lambda g: verify_max_tensor_membership(entangled_state(0, 2), 2, trials=10**8),
     lambda g: verify_max_tensor_membership(entangled_state(3, 7), 7, trials=1000)),
    ("local_tomography_from_oracle", lambda g: local_tomography_from_oracle(no_oracle, 1000, 1000),
     lambda g: local_tomography_from_oracle(_product_oracle(np.eye(60, 100)), 59, 99)),
    ("family_matrices", lambda g: family_matrices(EMBEDDED),
     lambda g: family_matrices(TheoryConfig.embedded(3, 60))),
    ("constructed_family", lambda g: constructed_family(EMBEDDED),
     lambda g: constructed_family(TheoryConfig.embedded(3, 60))),
    ("theory_state", lambda g: theory_state(0, EMBEDDED),
     lambda g: theory_state(0, TheoryConfig.embedded(3, 500))),
    ("theory_effect", lambda g: theory_effect(0, EMBEDDED),
     lambda g: theory_effect(0, TheoryConfig.embedded(3, 500))),
    # The state stack and its differences: one trial fits up to m = 4091 at N = 2.
    ("tl_violation_witness", lambda g: tl_violation_witness(TheoryConfig.embedded(2, 4092), 1, 0),
     lambda g: tl_violation_witness(TheoryConfig.embedded(3, 100), 500, 0)),
    ("tl_violation_witness", lambda g: tl_violation_witness(TheoryConfig.embedded(2, 2), 10**8, 0),
     lambda g: tl_violation_witness(TheoryConfig.embedded(3, 300), 20, 0)),
    ("embedded_transformation", lambda g: embedded_transformation(0, EMBEDDED, np.eye(2)),
     lambda g: embedded_transformation(1, TheoryConfig.embedded(3, 300), ROTATION)),
    ("embedded_extremal_effect",
     lambda g: embedded_extremal_effect([1.0], TheoryConfig.embedded(2, 10**8)),
     lambda g: embedded_extremal_effect(np.eye(1, 10**4)[0], TheoryConfig.embedded(3, 10**4))),
    ("random_rotation", lambda g: random_rotation(10**4, g), lambda g: random_rotation(100, g)),
    ("separable_baseline", lambda g: separable_baseline(2**10 - 1, 1, 0),
     lambda g: separable_baseline(2**6 - 1, 3, 0)),
    ("product_decoding_baseline", lambda g: product_decoding_baseline(12, 1, 0),
     lambda g: product_decoding_baseline(7, 3, 0)),
    ("teleport", lambda g: teleport(make_state(np.zeros(4095)), 12, n_effects=10**4),
     lambda g: teleport(make_state(np.zeros(127)), 7, n_effects=3000)),
    ("random_directions", lambda g: random_directions(2**20, 2**8, g),
     lambda g: random_directions(1000, 300, g)),
    ("random_ball_points", lambda g: random_ball_points(2**20, 2**8, g),
     lambda g: random_ball_points(1000, 300, g)),
    ("random_measurements", lambda g: random_measurements(2**20, 2**8, 2, g),
     lambda g: random_measurements(100, 1200, 4, g)),
    ("random_measurement", lambda g: random_measurement(2**22, g),
     lambda g: random_measurement(10**5, g)),
    ("random_product_measurement", lambda g: random_product_measurement(1, 2**22, 3, g),
     lambda g: consume(random_product_measurement(40, 200, 100, g))),
    ("one_bit_protocol", lambda g: one_bit_protocol(2**24), lambda g: one_bit_protocol(10**5)),
    ("capacity_search", lambda g: capacity_search(2**16, 1, 0),
     lambda g: capacity_search(200, 256, 0)),
    ("the consistency suite's product pairs", lambda g: SUITES["consistency"](0, 10**9),
     lambda g: SUITES["consistency"](0, 3 * 10**4)),
]
IDS = [f"{name}-{i}" for i, (name, _, _) in enumerate(BUILDERS)]


def traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name, past, _", BUILDERS, ids=IDS)
def test_every_builder_refuses_past_the_budget_before_allocating(name, past, _):
    # Each of these held no budget, or one of four size caps, before it; the
    # largest would ask for hundreds of GiB.  No draw is made either.
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    message = f"^{re.escape(name)} would hold [0-9]+ floats, past BUDGET_FLOATS = 134217728$"

    def refused():
        with pytest.raises(GptError, match=message):
            past(rng)

    assert traced_peak(refused) < 2**20
    assert rng.bit_generator.state == state


def counted_floats(call, monkeypatch) -> int:
    """The float count ``call`` checks first, read from its refusal at a zero budget."""
    with monkeypatch.context() as patch:
        patch.setattr(core, "BUDGET_FLOATS", 0)
        with pytest.raises(GptError) as refusal:
            call()
    return int(re.search(r"would hold ([0-9]+) floats", str(refusal.value)).group(1))


@pytest.mark.parametrize("name, _, within", BUILDERS, ids=IDS)
def test_the_count_checked_is_the_peak_held(name, _, within, monkeypatch):
    # Each count is within a few numpy buffers of the traced peak, or above
    # it by less than 2x where it takes the largest draw or the larger of
    # two phases.
    floats = counted_floats(lambda: within(np.random.default_rng(0)), monkeypatch)
    within(np.random.default_rng(0))  # first-call caches are not the builder's
    peak = traced_peak(lambda: within(np.random.default_rng(0)))
    assert 8 * floats // 2 <= peak <= 8 * floats + 2**18


def test_the_budget_admits_its_exact_count(monkeypatch):
    floats = counted_floats(lambda: bell_measurement(3), monkeypatch)
    monkeypatch.setattr(core, "BUDGET_FLOATS", floats)
    assert len(bell_measurement(3).effects) == 8
    monkeypatch.setattr(core, "BUDGET_FLOATS", floats - 1)
    with pytest.raises(GptError, match="^bell_measurement would hold"):
        bell_measurement(3)
