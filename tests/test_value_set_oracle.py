"""The shared value-set construction against per-kind reference oracles.

The oracles are the separate classical and quantum bodies that the shared
functions of ``classical.py`` replace: each kind built its own proposition
M-set, truth set, direct valuation and arrow route.  On seeded systems the
shared functions must give the same ideals, truth sets, M-set points and
action tables, in the same order, and raise the same error types.
"""

import itertools

import numpy as np
import pytest

from monoidtopos import classical, quantum
from monoidtopos.classical import ClassicalSystem
from monoidtopos.errors import (CapacityError, MissingNameError, MonoidToposError,
                                PreconditionError, UsageError, ValidationError)
from monoidtopos.linalg import as_vector
from monoidtopos.monoid import map_monoid_values
from monoidtopos.mset import MSet, is_invariant, truth_in_invariant
from monoidtopos.quantum import QuantumSystem
from tests.mset_oracle import table_of
from tests.generators import random_labeled_hermitian, random_state


# ---------------------------------------------------------------------------
# Oracles: the per-kind bodies


def _range_indices(system, delta):
    index = {v: i for i, v in enumerate(system.values)}
    out = set()
    for v in delta:
        v = float(v)
        if v not in index:
            raise UsageError(f"range value {v!r} is not in the value set")
        out.add(index[v])
    return frozenset(out)


def _all_subsets(nv):
    for mask in range(1 << nv):
        yield frozenset(i for i in range(nv) if mask >> i & 1)


def _state_index(system, state):
    try:
        return system.states.index(state)
    except ValueError:
        raise MissingNameError(f"unknown state {state!r}") from None


def _quantity(system, name_or_tuple):
    if isinstance(name_or_tuple, str):
        try:
            return system.quantities[name_or_tuple]
        except KeyError:
            raise MissingNameError(f"unknown quantity {name_or_tuple!r}") from None
    q = tuple(int(i) for i in name_or_tuple)
    if len(q) != len(system.states) or any(not 0 <= i < len(system.values) for i in q):
        raise UsageError("quantity tuple does not fit this system")
    return q


def oracle_classical_truth(system, state, quantity, delta):
    s = _state_index(system, state)
    q = _quantity(system, quantity)
    return q[s] in _range_indices(system, delta)


def oracle_classical_valuation(system, state, quantity, delta):
    s = _state_index(system, state)
    q = _quantity(system, quantity)
    dset = _range_indices(system, delta)
    members = [i for i, f in enumerate(map_monoid_values(len(system.values)))
               if f[q[s]] in {f[d] for d in dset}]
    return system.monoid.ideal(members)


def oracle_classical_mset(system):
    maps = map_monoid_values(len(system.values))
    nv = len(system.values)
    quantities = [tuple(t) for t in itertools.product(range(nv), repeat=len(system.states))]
    points = [(q, g) for q in quantities for g in _all_subsets(nv)]

    def act(m, point):
        q, g = point
        f = maps[m]
        return (tuple(f[i] for i in q), frozenset(f[i] for i in g))

    return MSet(system.monoid, points, table_of(system.monoid, points, act))


def oracle_E_s_subset(system, state, mset):
    s = _state_index(system, state)
    return frozenset((q, g) for (q, g) in mset.points if q[s] in g)


def oracle_E_s_valuation(system, state, quantity, delta, mset):
    subset = oracle_E_s_subset(system, state, mset)
    if not is_invariant(mset, subset):
        raise ValidationError("truth set failed invariance")
    point = (_quantity(system, quantity), _range_indices(system, delta))
    return truth_in_invariant(mset, point, subset)


def _labeled(system, ref):
    if isinstance(ref, str):
        system.operator(ref)
        return (ref, system.labels[ref])
    name, labels = ref
    system.operator(name)
    labels = tuple(int(i) for i in labels)
    if len(labels) != len(system.labels[name]):
        raise UsageError("label tuple does not match the base operator")
    if any(not 0 <= i < len(system.values) for i in labels):
        raise UsageError("label index out of range")
    return (name, labels)


def _range_projector(system, labeled, gamma):
    """Projector onto the eigenspaces of the labelled operator whose label
    lies in the index range."""
    name, labels = labeled
    base = system.operator(name)
    total = np.zeros((system.dim, system.dim), dtype=complex)
    for lab, proj in zip(labels, base.projectors):
        if lab in gamma:
            total = total + proj
    return total


def oracle_E_psi_membership(system, psi, operator, gamma):
    v = as_vector(psi, system.dim)
    norm = float(np.linalg.norm(v))
    if norm <= system.tol.null_threshold:
        raise PreconditionError("state vector is null")
    labeled = _labeled(system, operator)
    g = gamma if isinstance(gamma, frozenset) else _range_indices(system, gamma)
    proj = _range_projector(system, labeled, g)
    return float(np.linalg.norm(proj @ v - v)) <= system.tol.null_threshold * norm


def oracle_quantum_valuation(system, psi, operator, delta):
    v = as_vector(psi, system.dim)
    norm = float(np.linalg.norm(v))
    if norm <= system.tol.null_threshold:
        raise PreconditionError("state vector is null")
    name, labels = _labeled(system, operator)
    dset = _range_indices(system, delta)
    members = []
    for i, f in enumerate(map_monoid_values(len(system.values))):
        new_labels = tuple(f[l] for l in labels)
        new_range = frozenset(f[d] for d in dset)
        proj = _range_projector(system, (name, new_labels), new_range)
        if float(np.linalg.norm(proj @ v - v)) <= system.tol.null_threshold * norm:
            members.append(i)
    return system.monoid.ideal(members)


def oracle_quantum_mset(system):
    maps = map_monoid_values(len(system.values))
    nv = len(system.values)
    points = []
    for name in sorted(system.operators):
        k = len(system.labels[name])
        for labels in itertools.product(range(nv), repeat=k):
            for gamma in _all_subsets(nv):
                points.append(((name, labels), gamma))

    def act(m, point):
        (name, labels), gamma = point
        f = maps[m]
        return ((name, tuple(f[l] for l in labels)), frozenset(f[i] for i in gamma))

    return MSet(system.monoid, points, table_of(system.monoid, points, act))


def oracle_E_psi_subset(system, psi, mset):
    return frozenset(point for point in mset.points
                     if oracle_E_psi_membership(system, psi, point[0], point[1]))


def oracle_E_psi_valuation(system, psi, operator, delta, mset):
    subset = oracle_E_psi_subset(system, psi, mset)
    if not is_invariant(mset, subset):
        raise ValidationError("quantum truth set failed invariance")
    point = (_labeled(system, operator), _range_indices(system, delta))
    return truth_in_invariant(mset, point, subset)


# ---------------------------------------------------------------------------
# Helpers


def outcome(fn, *args):
    """The ideal mask or value a call returns, or the type of error it raises."""
    try:
        result = fn(*args)
    except MonoidToposError as exc:
        return type(exc)
    return getattr(result, "mask", result)


def assert_same_mset(new, old):
    assert new.points == old.points
    assert new.table.tolist() == old.table.tolist()


def deltas(values):
    return [[v for i, v in enumerate(values) if mask >> i & 1]
            for mask in range(1 << len(values))]


def classical_system(seed, ns, nv):
    rng = np.random.default_rng(seed)
    values = [float(v) for v in rng.choice(np.arange(-5, 6), size=nv, replace=False)]
    quantities = {name: [values[int(rng.integers(0, nv))] for _ in range(ns)]
                  for name in ("B", "A")}
    return ClassicalSystem([f"s{i}" for i in range(ns)], values, quantities)


def quantum_system(seed, dim):
    rng = np.random.default_rng(seed)
    values = [float(v) for v in range(dim)]
    operators = {name: random_labeled_hermitian(rng, dim, values).matrix for name in ("B", "A")}
    system = QuantumSystem(dim, values, operators)
    states = [random_state(rng, dim) for _ in range(3)]
    # eigenvectors make some propositions true without coarse-graining
    states += [system.operator("A").bases[0][:, 0], system.operator("B").bases[-1][:, 0]]
    return system, states


CLASSICAL_SHAPES = [(2, 2), (3, 2), (2, 3), (3, 3), (2, 4)]


# ---------------------------------------------------------------------------
# Equivalence on seeded systems


@pytest.mark.parametrize("ns,nv", CLASSICAL_SHAPES)
def test_classical_matches_oracle(ns, nv):
    system = classical_system(100 * ns + nv, ns, nv)
    new, old = classical.proposition_mset(system), oracle_classical_mset(system)
    assert_same_mset(new, old)
    quantities = list(system.quantities) + [tuple(reversed(system.quantities["A"]))]
    rng = np.random.default_rng(nv)
    for state in system.states:
        assert classical.E_s_subset(system, state, new) == oracle_E_s_subset(system, state, old)
        for q in quantities:
            for delta in deltas(system.values):
                assert (classical.classical_truth(system, state, q, delta)
                        == oracle_classical_truth(system, state, q, delta))
                assert (classical.generalized_classical_valuation(system, state, q, delta).mask
                        == oracle_classical_valuation(system, state, q, delta).mask)
            # the arrow route is slow at four values: compare it on a sample
            for k in rng.choice(1 << nv, size=3, replace=False):
                delta = deltas(system.values)[k]
                assert (classical.E_s_valuation(system, state, q, delta, new).mask
                        == oracle_E_s_valuation(system, state, q, delta, old).mask)


@pytest.mark.parametrize("dim", [2, 3])
def test_quantum_matches_oracle(dim):
    system, states = quantum_system(40 + dim, dim)
    new, old = quantum.proposition_mset(system), oracle_quantum_mset(system)
    assert_same_mset(new, old)
    some_true = False
    for psi in states:
        subset = quantum.E_psi_subset(system, psi, new)
        assert subset == oracle_E_psi_subset(system, psi, old)
        for op in ("A", "B", ("A", (0,) * len(system.labels["A"]))):
            for delta in deltas(system.values):
                member = quantum.E_psi_membership(system, psi, op, delta)
                assert member == oracle_E_psi_membership(system, psi, op, delta)
                some_true = some_true or (member and len(delta) < len(system.values))
                assert (quantum.quantum_function_valuation(system, psi, op, delta).mask
                        == oracle_quantum_valuation(system, psi, op, delta).mask)
                assert (quantum.E_psi_valuation_via_arrow(system, psi, op, delta, new).mask
                        == oracle_E_psi_valuation(system, psi, op, delta, old).mask)
    assert some_true, "no proposition with a proper range held: the check is too weak"


# ---------------------------------------------------------------------------
# Error cases raise what the oracle raises


def test_classical_errors_match_oracle():
    system = classical_system(7, 2, 3)
    mset = classical.proposition_mset(system)
    cases = [("nope", "A", [system.values[0]], MissingNameError),
             ("s0", "nope", [system.values[0]], MissingNameError),
             ("s0", (0, 9), [system.values[0]], UsageError),
             ("s0", "A", [99.0], UsageError)]
    for state, q, delta, expected in cases:
        pairs = [(classical.classical_truth, oracle_classical_truth),
                 (classical.generalized_classical_valuation, oracle_classical_valuation)]
        for new, old in pairs:
            assert outcome(new, system, state, q, delta) is expected
            assert outcome(old, system, state, q, delta) is expected
        assert outcome(classical.E_s_valuation, system, state, q, delta, mset) is expected
        assert outcome(oracle_E_s_valuation, system, state, q, delta, mset) is expected
    assert outcome(classical.E_s_subset, system, "nope", mset) is MissingNameError
    assert outcome(oracle_E_s_subset, system, "nope", mset) is MissingNameError


def test_quantum_errors_match_oracle():
    system, _ = quantum_system(5, 2)
    mset = quantum.proposition_mset(system)
    null = system.tol.null_threshold
    e1 = np.array([1.0, 0.0], dtype=complex)
    at_threshold, above = null * e1, null * (1 + 1e-6) * e1
    cases = [(at_threshold, "A", [0.0]), (above, "A", [0.0]), (above, "A", [0.0, 1.0]),
             (e1, "nope", [0.0]), (e1, ("A", (0, 0, 0)), [0.0]), (e1, ("A", (0, 7)), [0.0]),
             (e1, "A", [9.0]), (np.ones(3), "A", [0.0])]
    for psi, op, delta in cases:
        for new, old in [(quantum.E_psi_membership, oracle_E_psi_membership),
                         (quantum.quantum_function_valuation, oracle_quantum_valuation)]:
            assert outcome(new, system, psi, op, delta) == outcome(old, system, psi, op, delta)
        assert (outcome(quantum.E_psi_valuation_via_arrow, system, psi, op, delta, mset)
                == outcome(oracle_E_psi_valuation, system, psi, op, delta, mset))
    for psi in (at_threshold, above, np.ones(3)):
        assert (outcome(quantum.E_psi_subset, system, psi, mset)
                == outcome(oracle_E_psi_subset, system, psi, mset))
    # the cases reach each error the valuation can raise, and the answer above it
    seen = {outcome(quantum.quantum_function_valuation, system, psi, op, delta)
            for psi, op, delta in cases}
    assert {PreconditionError, MissingNameError, UsageError} <= seen
    assert any(isinstance(x, int) for x in seen)


# ---------------------------------------------------------------------------
# Edges of the array construction


def test_systems_without_subjects_match_oracle():
    stateless = ClassicalSystem([], [0.0, 1.0], {})
    new, old = classical.proposition_mset(stateless), oracle_classical_mset(stateless)
    assert_same_mset(new, old)
    assert len(new) == 4   # the empty quantity with each range
    assert outcome(classical.E_s_subset, stateless, "s0", new) is MissingNameError
    assert outcome(oracle_E_s_subset, stateless, "s0", old) is MissingNameError
    bare = QuantumSystem(2, [0.0, 1.0])
    new, old = quantum.proposition_mset(bare), oracle_quantum_mset(bare)
    assert_same_mset(new, old)
    assert len(new) == 0
    e1 = np.array([1.0, 0.0])
    assert quantum.E_psi_subset(bare, e1, new) == oracle_E_psi_subset(bare, e1, old) == frozenset()
    for new_fn, old_fn in [(quantum.E_psi_membership, oracle_E_psi_membership),
                           (quantum.quantum_function_valuation, oracle_quantum_valuation)]:
        assert outcome(new_fn, bare, e1, "A", [0.0]) is MissingNameError
        assert outcome(old_fn, bare, e1, "A", [0.0]) is MissingNameError


def test_quantum_routes_match_oracle_next_to_the_null_threshold():
    # Off an eigenvector of one cluster of A by null·(1 ± 1e-6) along another
    # cluster, a state lies just inside or just outside the ranges holding the
    # first cluster's label only; scaled to that norm, it is null or not.
    system, _ = quantum_system(43, 3)
    mset = quantum.proposition_mset(system)
    null = system.tol.null_threshold
    bases = system.operator("A").bases
    assert len(bases) >= 2
    near, far = bases[0][:, 0], bases[1][:, 0]
    subsets = {}
    for scale in (1 - 1e-6, 1 + 1e-6):
        for kind, psi in (("off", near + null * scale * far), ("short", null * scale * near)):
            subsets[kind, scale] = outcome(quantum.E_psi_subset, system, psi, mset)
            assert subsets[kind, scale] == outcome(oracle_E_psi_subset, system, psi, mset)
            for delta in deltas(system.values):
                assert (outcome(quantum.quantum_function_valuation, system, psi, "A", delta)
                        == outcome(oracle_quantum_valuation, system, psi, "A", delta))
                assert (outcome(quantum.E_psi_valuation_via_arrow, system, psi, "A", delta, mset)
                        == outcome(oracle_E_psi_valuation, system, psi, "A", delta, mset))
    assert subsets["off", 1 - 1e-6] != subsets["off", 1 + 1e-6]
    assert subsets["short", 1 - 1e-6] is PreconditionError
    assert isinstance(subsets["short", 1 + 1e-6], frozenset)


def test_the_quantum_arrow_route_evaluates_each_pattern_once(monkeypatch):
    # two operators with three eigenvalue clusters each on four dimensions:
    # 432 propositions, but only 2 · 2^3 sets of clusters inside a range
    rng = np.random.default_rng(8)
    values = [0.0, 1.0, 2.0]
    operators = {}
    for name, labels in (("A", (0, 1, 2, 2)), ("B", (0, 0, 1, 2))):
        u, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        operators[name] = u @ np.diag([values[i] for i in labels]) @ u.conj().T
    system = QuantumSystem(4, values, operators)
    mset = quantum.proposition_mset(system)
    psi = random_state(rng, 4)
    calls, holds = [], QuantumSystem.holds
    monkeypatch.setattr(QuantumSystem, "holds", lambda self, state, name, pattern: (
        calls.append((name, pattern)) or holds(self, state, name, pattern)))
    arrow = quantum.E_psi_valuation_via_arrow(system, psi, "A", [0.0], mset)
    assert len(mset) == 432
    assert len(calls) == len(set(calls))
    assert len(calls) <= sum(2 ** len(labels) for labels in system.labels.values()) == 16
    monkeypatch.undo()
    assert arrow.mask == oracle_E_psi_valuation(system, psi, "A", [0.0], mset).mask


def test_the_budget_is_checked_before_any_proposition_table_is_built(monkeypatch):
    # five values and five states: 3,125 quantities times 32 ranges
    system = ClassicalSystem([f"s{i}" for i in range(5)], range(5), {})
    monkeypatch.setattr(ClassicalSystem, "maps",
                        property(lambda self: pytest.fail("the value array was read")))
    with pytest.raises(CapacityError, match="^action-law validation would exceed its budget$"):
        classical.proposition_mset(system)
