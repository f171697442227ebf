"""The action-law check on a generating set against the exhaustive row scan
of ``tests/mset_oracle.py``.

For an associative monoid ``MSet`` checks ``T[mg] = T[m]∘T[g]`` for every
element m and every generator g; a bare ``FiniteMonoid`` keeps the scan over
every pair.  Each corpus monoid is taken twice: once with its associativity
proved, and once as a bare copy of the same table.  On valid actions both
accept; on tables with one entry changed both raise the oracle's first
``(m, n, point index)``.
"""

import numpy as np
import pytest

import tests.mset_oracle as oracle
from monoidtopos.corpus import random_monoids, small_monoids
from monoidtopos.dsl import parse_spec
from monoidtopos.errors import CapacityError, ValidationError
from monoidtopos.monoid import (FiniteMonoid, enumerate_left_ideals, map_monoid, mask_rows,
                                row_masks, submonoid_closure, verify_associativity)
from monoidtopos import mset
from monoidtopos.mset import ACTION_CHECK_BUDGET, MSet
from tests.test_monoid import LATTICE_GENERATORS

CORPUS = {
    "small": lambda: small_monoids(3),
    "random": lambda: random_monoids(11, 6) + random_monoids(2027, 6),
    "lattice": lambda: [submonoid_closure(gens, 4) for gens in LATTICE_GENERATORS],
    "maps": lambda: [map_monoid(k) for k in range(1, 5)],
}


def _proved_and_bare(mon):
    proved, bare = FiniteMonoid(mon.mul, mon.identity), FiniteMonoid(mon.mul, mon.identity)
    assert verify_associativity(proved)
    return proved, bare


def _valid_actions(mon):
    """Left-regular, the action on every left ideal, and the restriction of
    left multiplication to each distinct principal ideal."""
    yield mon.mul
    masks = [ideal.mask for ideal in enumerate_left_ideals(mon)]
    index = {mask: i for i, mask in enumerate(masks)}
    bits = mask_rows(masks, mon.size)
    yield [[index[mask] for mask in row_masks(bits[:, column])] for column in mon.mul.T]
    for members in mask_rows(sorted(set(mon.reach_masks())), mon.size):
        where = np.cumsum(members) - 1
        yield where[mon.mul[:, members]]


def _law_text(failure):
    m, n, i = failure
    return f"action law fails at m={m}, n={n}, point index {i}"


@pytest.mark.parametrize("corpus", sorted(CORPUS))
def test_generators_reach_the_whole_monoid(corpus):
    for mon in CORPUS[corpus]():
        proved, bare = _proved_and_bare(mon)
        assert bare.generators() is None
        gens = proved.generators()
        assert oracle.right_cayley_closure(mon, gens) == set(range(mon.size))
        assert mon.identity not in gens and len(set(gens)) == len(gens)
        assert proved.generators() is gens   # computed once per monoid


def test_map_monoids_need_one_generator_per_point():
    assert [len(map_monoid(k).generators()) for k in range(1, 6)] == [0, 2, 3, 4, 5]


@pytest.mark.parametrize("corpus", sorted(CORPUS))
def test_both_paths_accept_valid_actions(corpus, monkeypatch):
    scans, scan = [], mset._first_law_failure
    monkeypatch.setattr(mset, "_first_law_failure", lambda mul, table: scans.append(1) or scan(mul, table))
    for mon in CORPUS[corpus]():
        proved, bare = _proved_and_bare(mon)
        for table in _valid_actions(mon):
            assert oracle.action_law_failure(mon, table) is None
            k = len(table[0])
            on_generators = MSet(proved, range(k), table)
            assert not scans   # a valid action never needs the row scan
            assert (on_generators.table == MSet(bare, range(k), table).table).all()
            assert len(scans) == 1
            scans.clear()


@pytest.mark.parametrize("corpus", sorted(CORPUS))
def test_both_paths_name_the_oracle_failure_on_mutated_tables(corpus):
    rng = np.random.default_rng(2027)
    failures = 0
    for mon in CORPUS[corpus]():
        if mon.size == 1:
            continue
        proved, bare = _proved_and_bare(mon)
        for valid in _valid_actions(mon):
            table = np.array(valid, dtype=np.intp)
            k = table.shape[1]
            if k == 1:
                continue
            for _ in range(3):
                mutated = table.copy()
                m = int(rng.choice([a for a in range(mon.size) if a != mon.identity]))
                i = int(rng.integers(k))
                mutated[m, i] = (mutated[m, i] + int(rng.integers(1, k))) % k
                failure = oracle.action_law_failure(mon, mutated)
                if failure is None:
                    MSet(proved, range(k), mutated)
                    MSet(bare, range(k), mutated)
                    continue
                failures += 1
                for monoid in (proved, bare):
                    with pytest.raises(ValidationError, match=f"^{_law_text(failure)}$"):
                        MSet(monoid, range(k), mutated)
    assert failures > 0


def test_composition_and_declared_monoids_are_known_associative():
    known = [map_monoid(3), submonoid_closure(LATTICE_GENERATORS[0], 4), *random_monoids(2027, 6)]
    source = "monoid Z3 { elements 3; table [[0,1,2],[1,2,0],[2,0,1]]; }\n"
    known.append(parse_spec(source).spec.monoids["Z3"])
    assert all(mon.generators() is not None for mon in known)
    assert FiniteMonoid(map_monoid(3).mul, map_monoid(3).identity).generators() is None


def test_a_non_associative_table_keeps_the_exhaustive_scan():
    # 2*2 = 1 but (2*2)*2 = 0 while 2*(2*2) = 2; the generator {2} reaches
    # every element, and the rotations of three points pass the check on it
    mon = FiniteMonoid([[0, 1, 2], [1, 0, 0], [2, 0, 1]])
    assert not verify_associativity(mon) and mon.generators() is None
    table = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    assert oracle.right_cayley_closure(mon, [2]) == {0, 1, 2}
    arr = np.array(table)
    assert (arr.take(arr[2], axis=1) == arr.take(mon.mul[:, 2], axis=0)).all()
    assert oracle.action_law_failure(mon, table) == (1, 1, 0)
    with pytest.raises(ValidationError, match=r"^action law fails at m=1, n=1, point index 0$"):
        MSet(mon, range(3), table)


def test_a_bare_monoid_keeps_the_exhaustive_budget():
    mon = map_monoid(3)
    bare = FiniteMonoid(mon.mul, mon.identity)
    # within the budget on the generators, past it on every pair
    points = ACTION_CHECK_BUDGET // (len(mon.generators()) * mon.size)
    assert len(mon.generators()) * mon.size * points <= ACTION_CHECK_BUDGET
    with pytest.raises(CapacityError, match="^action-law validation would exceed its budget$"):
        MSet(bare, range(points), oracle.Unreadable())
