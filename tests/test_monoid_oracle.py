"""The monoid layer's gathers against the loops of ``tests/monoid_oracle.py``,
and the guards that come with keeping the table as one array: the
constructor's error texts and their order, the Python-int ``table``, and
the map monoid on five points.  (``tests/test_monoid.py`` compares the
map monoids on up to 4 points and the principal ideals with the same
oracle.)

Every comparison is exact: the same tables, identities and names, the same
ideal-action masks, the same ideals and invariant subsets as the union
closure, the same equivariant maps and the same associativity verdicts.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

import tests.monoid_oracle as oracle
from monoidtopos.corpus import random_monoids, small_monoids
from monoidtopos.dsl import parse_spec
from monoidtopos.errors import CapacityError, StructureError
from monoidtopos.monoid import (FiniteMonoid, enumerate_left_ideals, ideal_action, map_monoid,
                                map_monoid_values, submonoid_closure, verify_associativity)
from monoidtopos.mset import (equivariant_maps_to_ideals, invariant_subsets, left_regular,
                              product_mset)
from tests.test_monoid import LATTICE_GENERATORS, _closure_by_fixpoint, _min_chain


def _rev_half(k):
    """The reversal x -> k-1-x and the halving x -> x // 2 on k points."""
    return [tuple(k - 1 - x for x in range(k)), tuple(x // 2 for x in range(k))]


def _rot_const(k):
    """The rotation x -> x+1 mod k and the constant map 0 on k points."""
    return [tuple((x + 1) % k for x in range(k)), (0,) * k]


# Closures on 5 to 20 points, whose base-k codes need uint16, uint32,
# uint64 (up to 16**16 - 1, the largest uint64) and Python ints.
WIDE_GENERATORS = ([(_rev_half(k), k) for k in (5, 7, 10, 16, 20)]
                   + [(_rot_const(k), k) for k in (17, 20)])


def _random_corpus():
    return random_monoids(31, 12) + random_monoids(2027, 6)


def _monoid_corpus():
    """Every monoid the comparisons run on, map_monoid(4) aside."""
    lattices = [submonoid_closure(gens, 4) for gens in LATTICE_GENERATORS]
    maps = [map_monoid(k) for k in range(1, 4)]
    return small_monoids(3) + maps + _random_corpus() + lattices + [_min_chain(64), _min_chain(65)]


@pytest.mark.parametrize("gens,k", [(g, 4) for g in LATTICE_GENERATORS] + WIDE_GENERATORS)
def test_submonoid_closure_matches_the_composition_oracle(gens, k):
    mon = submonoid_closure(gens, k)
    table, identity, names = oracle.composition_monoid(sorted(_closure_by_fixpoint(gens, k)))
    assert (mon.table, mon.identity, mon.names) == (tuple(map(tuple, table)), identity, tuple(names))
    assert mon.mul.dtype == np.min_scalar_type(mon.size - 1)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_map_monoid_table_matches_the_whole_array_construction(k):
    mon = map_monoid(k)
    assert np.array_equal(mon.mul, oracle.composition_table_by_codes(map_monoid_values(k)))


@pytest.mark.parametrize("seed", [11, 2027, 424242])
def test_seeded_closures_match_the_composition_oracle(seed):
    rng = np.random.default_rng(seed)
    for _ in range(20):
        k = int(rng.integers(2, 6))
        gens = [tuple(rng.integers(0, k, size=k).tolist()) for _ in range(int(rng.integers(1, 4)))]
        mon = submonoid_closure(gens, k)
        maps = sorted(_closure_by_fixpoint(gens, k))
        table, identity, names = oracle.composition_monoid(maps)
        assert (mon.table, mon.identity, mon.names) == (tuple(map(tuple, table)), identity,
                                                        tuple(names))


def test_map_monoid_on_five_points_peaks_below_80_mib():
    # the 18.6 MiB table is built in row blocks, without an int64 |M|² temporary
    tracemalloc.start()
    try:
        map_monoid(5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 80 * 2 ** 20


def test_map_monoid_on_five_points_peaks_below_32_mib():
    # the base-5 codes of the products are built one row block at a time
    tracemalloc.start()
    try:
        map_monoid(5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2 ** 20


def _right_zero(n):
    """The identity 0 and n - 1 right zeros (a*b = b for b != 0), whose left
    ideals are M and every set of right zeros: 2**(n - 1) + 1 of them."""
    return FiniteMonoid([[b or a for b in range(n)] for a in range(n)])


def test_left_ideals_are_the_unions_of_principal_ideals_of_the_oracle():
    for mon in _monoid_corpus() + [map_monoid(4)]:
        assert [i.mask for i in enumerate_left_ideals(mon)] == oracle.left_ideals(mon.table)


@pytest.mark.parametrize("n", range(10, 17))
def test_left_ideals_of_right_zero_monoids_are_the_unions_of_the_oracle(n):
    mon = _right_zero(n)
    masks = [i.mask for i in enumerate_left_ideals(mon)]
    assert len(masks) == 2 ** (n - 1) + 1
    assert masks == oracle.left_ideals(mon.table)


def test_tables_that_are_not_associative_fail_as_the_union_closure_does():
    # a set {m*x} that is not closed under left multiplication is named as
    # the union closure named it, when LeftIdeal checked that union
    tables = [(table, 0) for table in _tables_with_identity_zero(3)]
    rng = np.random.default_rng(11)
    m3 = map_monoid(3)
    others = [a for a in range(m3.size) if a != m3.identity]
    for _ in range(40):
        bent = [list(row) for row in m3.table]
        a, b = (int(v) for v in rng.choice(others, size=2))
        bent[a][b] = int(rng.integers(0, m3.size))
        tables.append((bent, m3.identity))
    verdicts = set()
    for table, identity in tables:
        expected = oracle.left_ideals(table)
        mon = FiniteMonoid(table, identity)
        if expected is None:
            with pytest.raises(StructureError, match="^set is not a left ideal$"):
                enumerate_left_ideals(mon)
        else:
            assert [i.mask for i in enumerate_left_ideals(mon)] == expected
        verdicts.add(expected is None)
    assert verdicts == {True, False}


def test_invariant_subsets_are_the_unions_of_orbits_of_the_oracle():
    # the square of the left-regular M-set of a 5-element monoid has 34,482 of them
    lr = left_regular(random_monoids(7, 10)[2])
    msets = [left_regular(mon) for mon in _monoid_corpus()] + [product_mset(lr, lr)]
    for ms in msets:
        got = sorted(sum(1 << ms.index(p) for p in s) for s in invariant_subsets(ms))
        assert got == sorted(oracle.union_closure(oracle.reach_masks(ms.table.tolist()), "sets"))
    assert len(got) == 34_482


def test_ideal_action_matches_the_oracle():
    for mon in _monoid_corpus():
        for ideal in enumerate_left_ideals(mon):
            for m in range(mon.size):
                assert ideal_action(m, ideal).mask == oracle.ideal_action(mon.table, m, ideal.mask)


def test_ideal_action_matches_the_oracle_on_the_full_map_monoid_on_four_points():
    mon = map_monoid(4)
    sample = np.random.default_rng(2027).choice(mon.size, size=12, replace=False).tolist()
    for ideal in enumerate_left_ideals(mon):
        for m in sample + [mon.identity]:
            assert ideal_action(m, ideal).mask == oracle.ideal_action(mon.table, m, ideal.mask)


def test_equivariant_maps_are_the_oracle_characteristic_arrows():
    # on the left-regular M-set the arrow classifying an ideal I sends x to
    # the ideal action of x on I, so the maps are one per ideal
    for mon in small_monoids(3) + _random_corpus()[:6] + [map_monoid(2)]:
        lr = left_regular(mon)
        expected = sorted(tuple(oracle.ideal_action(mon.table, x, ideal.mask)
                                for x in range(mon.size))
                          for ideal in enumerate_left_ideals(mon))
        got = [tuple(chi[x].mask for x in lr.points) for chi in equivariant_maps_to_ideals(lr)]
        assert got == expected


def _tables_with_identity_zero(n):
    cells = (n - 1) ** 2
    for choice in itertools.product(range(n), repeat=cells):
        yield [list(range(n))] + [[i, *choice[(i - 1) * (n - 1):i * (n - 1)]]
                                  for i in range(1, n)]


def test_associativity_row_by_row_matches_the_broadcast():
    monoids = [FiniteMonoid(t) for t in _tables_with_identity_zero(3)]
    m3 = map_monoid(3)
    rng = np.random.default_rng(2027)
    others = [a for a in range(m3.size) if a != m3.identity]
    for _ in range(40):
        bent = [list(row) for row in m3.table]
        a, b = (int(v) for v in rng.choice(others, size=2))
        bent[a][b] = int(rng.integers(0, m3.size))
        monoids.append(FiniteMonoid(bent, m3.identity))
    monoids += _monoid_corpus()
    verdicts = [verify_associativity(m) for m in monoids]
    assert verdicts == [oracle.verify_associativity(m.table) for m in monoids]
    assert True in verdicts and False in verdicts


def test_associativity_of_the_full_map_monoid_on_four_points():
    # the broadcast needs two 256**3 intp arrays here; one row at a time does not
    assert verify_associativity(map_monoid(4)) is True


ERROR_CASES = [
    # (table, identity, names, error type, text)
    ([], 0, None, StructureError, "multiplication table is empty"),
    ([[]] * 4097, 0, None, CapacityError, "monoid size 4097 exceeds cap 4096"),
    ([[0, 1], [1]], 0, None, StructureError, "multiplication table is not square"),
    ([[0], [1, 7]], 0, None, StructureError, "multiplication table is not square"),
    ([[0, 5], [1]], 0, None, StructureError, "table entry 5 out of range 0..1"),
    ([[0, 1, 2], [-1, 0, 1], [1]], 0, None, StructureError, "table entry -1 out of range 0..2"),
    ([[0, 10 ** 30], [1, 0]], 0, None, StructureError,
     "table entry 1000000000000000000000000000000 out of range 0..1"),
    ([[0, 2], [1, 0]], 5, None, StructureError, "table entry 2 out of range 0..1"),
    ([[0, 1], [1]], 5, None, StructureError, "multiplication table is not square"),
    ([[0, 1], [1, 0]], 2, None, StructureError, "identity index 2 out of range"),
    ([[0, 1], [1, 0]], -1, None, StructureError, "identity index -1 out of range"),
    ([[1, 0], [0, 1]], 0, None, StructureError,
     "identity row/column is not the identity permutation"),
    ([[0, 1], [0, 1]], 0, None, StructureError,
     "identity row/column is not the identity permutation"),
    ([[1, 0], [0, 1]], 0, ["a"], StructureError,
     "identity row/column is not the identity permutation"),
    ([[0, 1], [1, 0]], 0, ["a"], StructureError, "need exactly one name per element"),
]


@pytest.mark.parametrize("table,identity,names,error,text", ERROR_CASES)
def test_constructor_errors_and_their_order(table, identity, names, error, text):
    with pytest.raises(error) as info:
        FiniteMonoid(table, identity, names)
    assert str(info.value) == text


def _declared_monoid():
    source = "monoid Z3 { elements 3; table [[0,1,2],[1,2,0],[2,0,1]]; }\n"
    return parse_spec(source).spec.monoids["Z3"]


@pytest.mark.parametrize("build", [
    lambda: map_monoid(4),
    lambda: submonoid_closure(LATTICE_GENERATORS[0], 4),
    _declared_monoid,
    lambda: FiniteMonoid(np.array([[0, 1], [1, 1]], dtype=np.int64)),
])
def test_table_stays_python_ints(build):
    # independent checkers compute 1 << table[m][x], which numpy integers
    # of a narrow dtype would wrap
    mon = build()
    assert type(mon.table) is tuple
    assert all(type(row) is tuple and all(type(v) is int for v in row) for row in mon.table)
    assert mon.mul.tolist() == [list(row) for row in mon.table]
    assert mon.mul.dtype == np.min_scalar_type(mon.size - 1)
    assert not mon.mul.flags.writeable
    assert 1 << max(max(row) for row in mon.table) == 2 ** (mon.size - 1)


def test_map_monoid_on_five_points():
    mon = map_monoid(5)
    maps = map_monoid_values(5)
    assert mon.size == 3125 and mon.mul.dtype == np.uint16
    assert mon.identity == maps.index((0, 1, 2, 3, 4)) == 194
    assert mon.names[mon.identity] == "f01234"
    identity_row = np.arange(mon.size)
    assert (mon.mul[mon.identity] == identity_row).all()
    assert (mon.mul[:, mon.identity] == identity_row).all()
    rng = np.random.default_rng(2027)
    for a, b in rng.integers(0, mon.size, size=(2000, 2)).tolist():
        assert maps[mon.mul[a, b]] == tuple(maps[a][maps[b][x]] for x in range(5))
    assert len(set(mon.reach_masks())) == 52
