"""The corpus's stacked gathers against the loops of ``tests/monoid_oracle.py``:
isomorphism keys from one gather over the relabellings, the exhaustive
corpus decided as one stack of candidate tables, the random corpus with one
table per map set, and the map monoid's table in closed form.

Every comparison is exact: the same key tuples, the same monoids in the
same order, the same tables, dtypes, identities and names.
"""

import time
import tracemalloc

import numpy as np
import pytest

import tests.monoid_oracle as oracle
from monoidtopos import corpus
from monoidtopos.corpus import _canonical_key, all_monoids_upto_iso, random_monoids, small_monoids
from monoidtopos.monoid import (FiniteMonoid, _composition_monoid, map_monoid, map_monoid_values,
                                verify_associativity)


def _same(got, expected):
    return ([(m.identity, m.names, m.mul.dtype, m.table) for m in got]
            == [(m.identity, m.names, m.mul.dtype, m.table) for m in expected])


@pytest.mark.parametrize("build", [
    lambda: small_monoids(3),
    lambda: random_monoids(11, 10),
    lambda: random_monoids(2027, 10),
    lambda: random_monoids(424242, 10),
    lambda: random_monoids(5, 4, sizes=(7, 8)),
], ids=["small3", "random11", "random2027", "random424242", "random_sizes_7_8"])
def test_keys_equal_the_permutation_loop(build):
    monoids = build()
    assert monoids
    for m in monoids:
        assert _canonical_key(m) == oracle.canonical_key(m)


def _relabelled(m: FiniteMonoid, perm: list[int]) -> FiniteMonoid:
    """The isomorphic copy in which element a is called perm[a]."""
    table = np.empty((m.size, m.size), dtype=np.intp)
    table[np.ix_(perm, perm)] = np.asarray(perm)[m.mul]
    return FiniteMonoid(table, identity=perm[m.identity])


def test_keys_are_invariant_under_relabelling_that_moves_the_identity():
    rng = np.random.default_rng(2027)
    moved = 0
    for m in small_monoids(3) + random_monoids(2027, 10) + random_monoids(5, 2, sizes=(7, 8)):
        for _ in range(3):
            perm = [int(p) for p in rng.permutation(m.size)]
            copy = _relabelled(m, perm)
            moved += copy.identity != m.identity
            assert _canonical_key(copy) == _canonical_key(m) == oracle.canonical_key(copy)
    assert moved > 30


@pytest.mark.parametrize("chunk", [1, 30, 200])
def test_small_chunks_give_the_same_keys_and_corpus(chunk, monkeypatch):
    # chunks of one or a few relabellings and candidate tables, so that the
    # least of the earlier chunks competes with every later one
    monoids = small_monoids(3) + random_monoids(2027, 4) + random_monoids(5, 1, sizes=(7,))
    monkeypatch.setattr(corpus, "ENTRY_CHUNK", chunk)
    for m in monoids:
        assert _canonical_key(m) == oracle.canonical_key(m)
    assert _same(small_monoids(3), oracle.all_monoids_upto_iso(1) + oracle.all_monoids_upto_iso(2)
                 + oracle.all_monoids_upto_iso(3))


def test_keys_tell_the_classes_of_order_three_apart():
    keys = [_canonical_key(m) for m in small_monoids(3) if m.size == 3]
    assert len(keys) == len(set(keys)) == 7


@pytest.mark.parametrize("size", [1, 2, 3])
def test_exhaustive_corpus_equals_the_per_table_loop(size):
    got = all_monoids_upto_iso(size)
    assert _same(got, oracle.all_monoids_upto_iso(size))
    assert all(verify_associativity(m) for m in got)


def test_order_four_corpus_in_bounded_time_and_memory():
    start = time.perf_counter()
    monoids = all_monoids_upto_iso(4)
    elapsed = time.perf_counter() - start
    assert len(monoids) == 35 and all(verify_associativity(m) for m in monoids)
    assert len({_canonical_key(m) for m in monoids}) == 35
    assert elapsed <= 1.0
    tracemalloc.start()
    try:
        again = all_monoids_upto_iso(4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _same(again, monoids)
    assert peak <= 64 * 2 ** 20


@pytest.mark.parametrize("seed,count,sizes", [(11, 10, (4, 5)), (2027, 10, (4, 5)),
                                              (424242, 10, (4, 5)), (5, 4, (7, 8))])
def test_random_monoids_build_one_table_per_map_set(seed, count, sizes, monkeypatch):
    built, build = [], corpus.submonoid_closure

    def closure(gens, k):
        built.append(build(gens, k))
        return built[-1]

    monkeypatch.setattr(corpus, "submonoid_closure", closure)
    found = random_monoids(seed, count, sizes)
    map_sets = [m.names for m in built]   # a closure's names are its sorted maps
    assert len(map_sets) == len(set(map_sets))
    assert {m.size for m in built} <= set(sizes)
    assert all(any(m is b for b in built) for m in found)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_map_monoid_in_closed_form_equals_the_searched_table(k):
    closed, searched = map_monoid(k), _composition_monoid(map_monoid_values(k))
    assert closed.mul.dtype == searched.mul.dtype and np.array_equal(closed.mul, searched.mul)
    assert (closed.identity, closed.names) == (searched.identity, searched.names)
    assert closed._associative and searched._associative
    assert closed.mul.flags.c_contiguous and not closed.mul.flags.writeable
