import numpy as np
import pytest

from monoidtopos.errors import PreconditionError, UsageError, ValidationError
from monoidtopos.linalg import spectral_projector
from monoidtopos.mset import is_invariant
from monoidtopos.quantum import (E_psi_membership, E_psi_subset,
                                 E_psi_valuation_via_arrow, QuantumSystem,
                                 proposition_mset, quantum_function_valuation)
from tests.conftest import E1, E2, PLUS, SZ
from tests.generators import random_labeled_hermitian, random_state


@pytest.fixture
def qubit():
    return QuantumSystem(2, [1.0, -1.0], {"A": SZ})


def test_system_validates_spectra():
    with pytest.raises(ValidationError):
        QuantumSystem(2, [1.0, -1.0], {"A": np.diag([0.5, -1.0])})
    with pytest.raises(ValidationError, match="finite"):
        QuantumSystem(2, [1.0, float("inf")], {"A": SZ})


def test_membership_eigenvector(qubit):
    assert E_psi_membership(qubit, E1, "A", [1.0])
    assert not E_psi_membership(qubit, E2, "A", [1.0])


def test_membership_whole_spectrum(qubit):
    rng = np.random.default_rng(1)
    for _ in range(5):
        psi = random_state(rng, 2)
        assert E_psi_membership(qubit, psi, "A", [1.0, -1.0])


def test_membership_superposition_false(qubit):
    assert not E_psi_membership(qubit, PLUS, "A", [1.0])


def test_membership_null_state(qubit):
    with pytest.raises(PreconditionError):
        E_psi_membership(qubit, np.zeros(2), "A", [1.0])


def test_valuation_in_image_is_full(qubit):
    assert quantum_function_valuation(qubit, E1, "A", [1.0]).is_full


def test_valuation_empty_range(qubit):
    assert quantum_function_valuation(qubit, PLUS, "A", []).is_empty


def test_valuation_superposition_exact_members(qubit):
    # only maps merging the two eigenvalues can make the projector fix psi
    ideal = quantum_function_valuation(qubit, PLUS, "A", [1.0])
    assert ideal.member_names() == ("f00", "f11")


def test_valuation_scale_invariance(qubit):
    base = quantum_function_valuation(qubit, PLUS, "A", [1.0])
    for lam in (2.0, -3.0, 1j, 0.25 + 0.5j):
        assert quantum_function_valuation(qubit, lam * PLUS, "A", [1.0]).mask == base.mask


def test_truth_set_invariant(qubit):
    mset = proposition_mset(qubit)
    for psi in (E1, E2, PLUS):
        assert is_invariant(mset, E_psi_subset(qubit, psi, mset))


def test_coarse_graining_preserves_membership(qubit):
    # the ordered-projector law realised pointwise on the proposition carrier
    mset = proposition_mset(qubit)
    rng = np.random.default_rng(3)
    for _ in range(5):
        psi = random_state(rng, 2)
        subset = E_psi_subset(qubit, psi, mset)
        for point in subset:
            for m in range(mset.monoid.size):
                assert mset.act(m, point) in subset


def test_arrow_route_equals_direct(qubit):
    mset = proposition_mset(qubit)
    rng = np.random.default_rng(7)
    states = [E1, E2, PLUS] + [random_state(rng, 2) for _ in range(5)]
    for psi in states:
        for delta in ([1.0], [-1.0], [1.0, -1.0], []):
            direct = quantum_function_valuation(qubit, psi, "A", delta)
            arrow = E_psi_valuation_via_arrow(qubit, psi, "A", delta, mset)
            assert direct.mask == arrow.mask


def test_arrow_route_qutrit_three_values():
    rng = np.random.default_rng(13)
    values = [0.0, 1.0, 2.0]
    op = random_labeled_hermitian(rng, 3, values)
    system = QuantumSystem(3, values, {"B": op.matrix})
    mset = proposition_mset(system)
    for _ in range(4):
        psi = random_state(rng, 3)
        for delta in ([0.0], [1.0, 2.0], [0.0, 1.0, 2.0]):
            direct = quantum_function_valuation(system, psi, "B", delta)
            arrow = E_psi_valuation_via_arrow(system, psi, "B", delta, mset)
            assert direct.mask == arrow.mask


def test_range_outside_value_set_rejected(qubit):
    with pytest.raises(UsageError):
        quantum_function_valuation(qubit, PLUS, "A", [7.0])


def test_projector_ordering_under_functions(qubit):
    # E[A in D] composed with E[f(A) in f(D)] returns E[A in D]
    rng = np.random.default_rng(21)
    a = qubit.operator("A")

    def range_projector(labels, gamma):
        return sum((p for lab, p in zip(labels, a.projectors) if lab in gamma),
                   np.zeros((2, 2), dtype=complex))

    for f in qubit.maps:
        for dmask in range(4):
            delta = frozenset(d for d in range(2) if dmask >> d & 1)
            e1 = range_projector(qubit.labels["A"], delta)
            flabels = tuple(f[l] for l in qubit.labels["A"])
            e2 = range_projector(flabels, frozenset(f[d] for d in delta))
            assert np.max(np.abs(e2 @ e1 - e1)) <= 1e-12
