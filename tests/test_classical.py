import itertools

import pytest

from monoidtopos.classical import (ClassicalSystem, E_s_membership, E_s_subset,
                                   E_s_valuation, classical_truth,
                                   generalized_classical_valuation,
                                   proposition_mset)
from monoidtopos.errors import MissingNameError, UsageError, ValidationError
from monoidtopos.mset import is_invariant


@pytest.fixture
def two_valued():
    return ClassicalSystem(["s0", "s1"], [0.0, 1.0], {"A": [0.0, 1.0]})


def test_construction_validates(two_valued):
    with pytest.raises(ValidationError):
        ClassicalSystem(["s"], [0.0], {"A": [5.0]})
    with pytest.raises(ValidationError):
        ClassicalSystem(["s", "s"], [0.0], {})
    with pytest.raises(ValidationError, match="finite"):
        ClassicalSystem(["s"], [0.0, float("inf")], {})


def test_classical_truth(two_valued):
    assert classical_truth(two_valued, "s0", "A", [0.0])
    assert not classical_truth(two_valued, "s0", "A", [1.0])
    assert classical_truth(two_valued, "s1", "A", [0.0, 1.0])  # whole value set
    with pytest.raises(MissingNameError):
        classical_truth(two_valued, "nope", "A", [0.0])
    with pytest.raises(MissingNameError):
        classical_truth(two_valued, "s0", "B", [0.0])
    with pytest.raises(UsageError):
        classical_truth(two_valued, "s0", "A", [7.0])


def test_generalized_valuation_true_case_full(two_valued):
    assert generalized_classical_valuation(two_valued, "s0", "A", [0.0]).is_full


def test_generalized_valuation_constants(two_valued):
    # value 1 against range {0}: only the two collapsing maps qualify
    ideal = generalized_classical_valuation(two_valued, "s1", "A", [0.0])
    assert ideal.member_names() == ("f00", "f11")


def test_generalized_valuation_empty_range(two_valued):
    assert generalized_classical_valuation(two_valued, "s0", "A", []).is_empty


def test_truth_set_invariant(two_valued):
    mset = proposition_mset(two_valued)
    for state in two_valued.states:
        assert is_invariant(mset, E_s_subset(two_valued, state, mset))


def test_truth_set_rejects_a_foreign_mset(two_valued):
    # built for another system: same values and states, but its own monoid
    other = ClassicalSystem(["s0", "s1"], [0.0, 1.0], {"A": [1.0, 0.0]})
    foreign = proposition_mset(other)
    with pytest.raises(UsageError, match="not this system's proposition M-set"):
        E_s_subset(two_valued, "s0", foreign)
    with pytest.raises(UsageError, match="not this system's proposition M-set"):
        E_s_valuation(two_valued, "s0", "A", [0.0], foreign)
    # the system's own monoid acting on a carrier of another size
    wider = ClassicalSystem(["s0", "s1", "s2"], [0.0, 1.0], {"A": [0.0, 1.0, 1.0]})
    wider.monoid = two_valued.monoid
    with pytest.raises(UsageError, match="not this system's proposition M-set"):
        E_s_subset(two_valued, "s0", proposition_mset(wider))
    mset = proposition_mset(two_valued)
    assert E_s_subset(two_valued, "s0", mset) == E_s_subset(two_valued, "s0")


def test_membership_stable_under_maps(two_valued):
    # once true, coarse-graining by any map keeps a pair in the truth set
    mset = proposition_mset(two_valued)
    subset = E_s_subset(two_valued, "s0", mset)
    for point in subset:
        for m in range(mset.monoid.size):
            assert mset.act(m, point) in subset


def test_arrow_route_equals_direct_formula(two_valued):
    mset = proposition_mset(two_valued)
    for state in two_valued.states:
        for delta in ([], [0.0], [1.0], [0.0, 1.0]):
            direct = generalized_classical_valuation(two_valued, state, "A", delta)
            arrow = E_s_valuation(two_valued, state, "A", delta, mset)
            assert direct.mask == arrow.mask


def test_arrow_route_three_values():
    system = ClassicalSystem(["a", "b", "c"], [0.0, 1.0, 2.0],
                             {"A": [0.0, 1.0, 2.0], "B": [2.0, 2.0, 0.0]})
    mset = proposition_mset(system)
    deltas = [[], [0.0], [2.0], [0.0, 1.0], [0.0, 1.0, 2.0]]
    for state in system.states:
        for q in ("A", "B"):
            for delta in deltas:
                direct = generalized_classical_valuation(system, state, q, delta)
                arrow = E_s_valuation(system, state, q, delta, mset)
                assert direct.mask == arrow.mask


def test_coarse_graining_preimage_identity(two_valued):
    # f(value) in f(range) iff value in preimage(f(range))
    values = range(len(two_valued.values))
    for f in itertools.product(values, repeat=len(two_valued.values)):
        for v in values:
            for mask in range(4):
                delta = {d for d in values if mask >> d & 1}
                image = {f[d] for d in delta}
                preimage = {x for x in values if f[x] in image}
                assert (f[v] in image) == (v in preimage)


def test_E_s_membership_alias(two_valued):
    assert E_s_membership(two_valued, "s0", "A", [0.0])
    assert not E_s_membership(two_valued, "s0", "A", [1.0])


def test_patterns_of_more_than_sixty_three_states():
    # a state past bit 63 of a pattern: the patterns are Python ints there
    states = [f"s{i}" for i in range(70)]
    one = ClassicalSystem(states, [0.0], {"A": [0.0] * 70})
    assert generalized_classical_valuation(one, "s69", "A", [0.0]).is_full
    assert E_s_valuation(one, "s69", "A", [0.0]).is_full
    assert E_s_valuation(one, "s69", "A", []).is_empty
    two = ClassicalSystem(states, [0.0, 1.0], {"A": [0.0] * 69 + [1.0]})
    assert classical_truth(two, "s69", "A", [1.0])
    assert not classical_truth(two, "s69", "A", [0.0])
    # value 1 against range {0}: only the two collapsing maps qualify
    assert generalized_classical_valuation(two, "s69", "A", [0.0]).member_names() == ("f00", "f11")
