"""The M-set truth values, read off the action table, against the
per-point loops of ``tests/mset_oracle.py``.

Every comparison is exact: the same ideal masks, the same errors with the
same texts, the same invariant subsets in the same order, and the same
points and action tables for products.  The M-sets are every small action
of the small-monoid corpus, the left-regular and product M-sets of that
corpus, the proposition M-sets of seeded classical and quantum systems,
and an empty carrier.
"""

import itertools
import re
from pathlib import Path

import numpy as np
import pytest

import tests.mset_oracle as oracle
from monoidtopos import classical, quantum
from monoidtopos.corpus import random_monoids, small_monoids
from monoidtopos.dsl import parse_spec
from monoidtopos.errors import MonoidToposError, ValidationError
from monoidtopos.monoid import (enumerate_left_ideals, map_monoid, map_monoid_values,
                                submonoid_closure)
from monoidtopos.mset import (KFamily, MSet, characteristic_arrow, equivariant_maps_to_ideals,
                              family_from_subset, family_to_lambda, invariant_subsets,
                              is_invariant, left_regular, product_mset, truth_equal,
                              truth_in_family, truth_in_invariant, truth_in_subset,
                              truth_subset_leq)
from tests.test_acceptance import _enumerate_actions
from tests.test_monoid import LATTICE_GENERATORS
from tests.test_value_set_oracle import CLASSICAL_SHAPES, classical_system, quantum_system

CORPUS = small_monoids(3) + [map_monoid(2)]
FIXTURE = Path(__file__).parent / "fixtures" / "qubit.mtd"


def outcome(fn, *args):
    """Ideal masks (one, or a dict of them) or the error type and text."""
    try:
        result = fn(*args)
    except MonoidToposError as exc:
        return type(exc), str(exc)
    if isinstance(result, dict):
        return {key: ideal.mask for key, ideal in result.items()}
    return getattr(result, "mask", result)


def action_table(ms):
    return [[ms.act(m, p) for p in ms.points] for m in range(ms.monoid.size)]


def assert_truths_match(ms, subsets, points, families=True):
    """Every truth value of the library equals the oracle's on the given
    subsets and points (and on every pair of each)."""
    size = ms.monoid.size
    for s in subsets:
        assert is_invariant(ms, s) == oracle.is_invariant(ms, s)
        assert outcome(characteristic_arrow, ms, s) == outcome(oracle.characteristic_arrow, ms, s)
        family = family_from_subset(ms, s)
        sets = [ms.translate(m, s) for m in range(size)]
        assert list(family.sets) == sets
        for p in points:
            assert (outcome(truth_in_invariant, ms, p, s)
                    == outcome(oracle.truth_in_invariant, ms, p, s))
            assert outcome(truth_in_subset, ms, p, s) == outcome(oracle.truth_in_subset, ms, p, s)
            assert truth_in_family(ms, p, family).mask == oracle.truth_in_family(ms, p, sets).mask
        if families:
            assert outcome(family_to_lambda, family) == outcome(oracle.family_to_lambda, ms, sets)
            constant = (frozenset(s),) * size
            violation = oracle.family_violation(ms, constant)
            if violation is None:
                KFamily(ms, constant)
            else:
                message = "family violates compatibility at m'={}, m={}".format(*violation)
                with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                    KFamily(ms, constant)
    for first, second in itertools.product(subsets, repeat=2):
        assert (truth_subset_leq(ms, first, second).mask
                == oracle.truth_subset_leq(ms, first, second).mask)
    for a, b in itertools.product(points, repeat=2):
        assert truth_equal(ms, a, b).mask == oracle.truth_equal(ms, a, b).mask


def all_subsets(ms):
    return [frozenset(p for i, p in enumerate(ms.points) if mask >> i & 1)
            for mask in range(1 << len(ms))]


def sampled_subsets(ms, rng, count, size):
    picks = [rng.choice(len(ms), size=min(size, len(ms)), replace=False) for _ in range(count)]
    return [frozenset(ms.points[i] for i in pick) for pick in picks]


def small_actions():
    for monoid in CORPUS:
        for carrier in (1, 2, 3) if monoid.size <= 2 else (1, 2):
            yield from _enumerate_actions(monoid, carrier)


def test_every_small_action_matches_the_oracle():
    count = 0
    for ms in small_actions():
        count += 1
        assert invariant_subsets(ms) == oracle.invariant_subsets(ms)
        assert_truths_match(ms, all_subsets(ms), ms.points)
    assert count >= 25


@pytest.mark.parametrize("monoid", CORPUS, ids=[f"corpus{i}" for i in range(len(CORPUS))])
def test_left_regular_and_product_msets_match_the_oracle(monoid):
    lr = left_regular(monoid)
    assert action_table(lr) == [list(row) for row in monoid.table]
    assert invariant_subsets(lr) == oracle.invariant_subsets(lr)
    assert_truths_match(lr, all_subsets(lr), lr.points)

    prod, old = product_mset(lr, lr), oracle.product_mset(lr, lr)
    assert prod.points == old.points
    assert action_table(prod) == action_table(old)
    assert np.array_equal(prod.table, old.table)
    subsets = invariant_subsets(prod)
    assert subsets == oracle.invariant_subsets(prod)
    rng = np.random.default_rng(monoid.size)
    picked = [subsets[i] for i in rng.choice(len(subsets), size=min(4, len(subsets)),
                                             replace=False)]
    assert_truths_match(prod, picked + sampled_subsets(prod, rng, 3, 3), prod.points)


def test_a_product_past_one_byte_of_indices_matches_the_oracle():
    lr = left_regular(map_monoid(2))
    square = product_mset(lr, lr)
    big = product_mset(square, square)
    for x, y in ((big, lr), (lr, big), (big, square)):
        prod, old = product_mset(x, y), oracle.product_mset(x, y)
        assert len(prod) > 256 and prod.points == old.points
        assert np.array_equal(prod.table, old.table)
        assert prod.table.dtype == np.uint16


def assert_proposition_mset_matches(system, truth_sets, rng):
    new = classical.proposition_mset(system)
    old = oracle.product_mset(*oracle.proposition_factors(system))
    assert new.points == old.points
    assert np.array_equal(new.table, old.table)
    points = [new.points[i] for i in rng.choice(len(new), size=4, replace=False)]
    subsets = [truth_sets(new)[0], frozenset()] + sampled_subsets(new, rng, 2, 3)
    for s in truth_sets(new):
        assert is_invariant(new, s)
        assert outcome(characteristic_arrow, new, s) == outcome(oracle.characteristic_arrow, new, s)
    assert_truths_match(new, subsets, points, families=len(new) * new.monoid.size <= 2000)


@pytest.mark.parametrize("ns,nv", CLASSICAL_SHAPES)
def test_classical_proposition_msets_match_the_oracle(ns, nv):
    system = classical_system(100 * ns + nv, ns, nv)
    assert_proposition_mset_matches(
        system, lambda ms: [classical.E_s_subset(system, s, ms) for s in system.states],
        np.random.default_rng(nv))


@pytest.mark.parametrize("dim", [2, 3])
def test_quantum_proposition_msets_match_the_oracle(dim):
    system, states = quantum_system(40 + dim, dim)
    assert_proposition_mset_matches(
        system, lambda ms: [quantum.E_psi_subset(system, psi, ms) for psi in states],
        np.random.default_rng(dim))


@pytest.mark.parametrize("make", [
    lambda: classical.ClassicalSystem(["s0", "s1"], range(5), {"A": [0, 4]}),
    lambda: classical.ClassicalSystem([], [0.0, 1.0], {}),
    lambda: quantum.QuantumSystem(2, [0.0, 1.0]),
], ids=["five-values", "no-states", "no-operators"])
def test_proposition_msets_of_edge_systems_match_the_callback_factors(make):
    # the 800 points of the five-value system are past the callback product,
    # so the factors are compared through the array product
    system = make()
    new, old = classical.proposition_mset(system), product_mset(*oracle.proposition_factors(system))
    assert new.points == old.points
    assert np.array_equal(new.table, old.table)


def test_empty_carrier_matches_the_oracle():
    declaration = "mset E { monoid M2; points 0; action [[],[]]; }\n"
    result = parse_spec(FIXTURE.read_text(encoding="utf-8") + declaration)
    assert result.ok
    empty = result.spec.msets["E"]
    assert empty.table.shape == (2, 0)
    assert invariant_subsets(empty) == oracle.invariant_subsets(empty) == [frozenset()]
    assert equivariant_maps_to_ideals(empty) == oracle.equivariant_maps_by_search(empty) == [{}]
    assert characteristic_arrow(empty, ()) == {}
    assert truth_subset_leq(empty, (), ()).is_full
    assert_truths_match(empty, [frozenset()], ())
    wide = MSet(empty.monoid, range(300), [range(300)] * empty.monoid.size)
    assert product_mset(empty, wide).points == product_mset(wide, empty).points == ()


@pytest.mark.parametrize("gens", LATTICE_GENERATORS)
def test_invariant_subsets_of_the_left_regular_mset_are_the_left_ideals(gens):
    # 23 and 28 points, past the 20 points the subset filter could reach
    monoid = submonoid_closure(gens, 4)
    assert monoid.size > 20
    subsets = invariant_subsets(left_regular(monoid))
    ideals = enumerate_left_ideals(monoid)
    assert len(subsets) == len(ideals)
    assert set(subsets) == {i.members for i in ideals}


def equivariant_map_msets():
    """The left-regular M-set of each monoid of a seeded corpus, and its
    square up to five elements, then the 2-point map_monoid(2) M-set."""
    for monoid in CORPUS + [map_monoid(3)] + random_monoids(7, 10)[:9]:
        lr = left_regular(monoid)
        yield lr
        if monoid.size <= 5:
            yield product_mset(lr, lr)
    yield MSet(map_monoid(2), [0, 1], map_monoid_values(2))


def test_equivariant_maps_are_the_search_oracle_map_for_map():
    count = maps = 0
    for ms in equivariant_map_msets():
        arrows = equivariant_maps_to_ideals(ms)
        assert ([list(chi.items()) for chi in arrows]
                == [list(chi.items()) for chi in oracle.equivariant_maps_by_search(ms)])
        ideals = {i.mask: i for i in enumerate_left_ideals(ms.monoid)}
        assert all(ideal is ideals[ideal.mask] for chi in arrows for ideal in chi.values())
        count, maps = count + 1, maps + len(arrows)
    assert (count, maps) == (42, 82_152)
