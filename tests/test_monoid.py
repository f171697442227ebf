import hashlib
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from monoidtopos.errors import CapacityError, StructureError, UsageError
from monoidtopos.monoid import (HEYTING_LAW_NAMES, FiniteMonoid, LeftIdeal,
                                enumerate_left_ideals, heyting_implies, heyting_not,
                                heyting_report, ideal_action, map_monoid,
                                map_monoid_values, submonoid_closure,
                                verify_associativity)
from monoidtopos import corpus
from monoidtopos.corpus import random_monoids, small_monoids
from tests import monoid_oracle


def test_constructor_rejects_malformed_tables():
    with pytest.raises(StructureError):
        FiniteMonoid([])
    with pytest.raises(StructureError):
        FiniteMonoid([[0, 1]])
    with pytest.raises(StructureError):
        FiniteMonoid([[0, 2], [1, 0]])
    # identity row must be the identity permutation
    with pytest.raises(StructureError):
        FiniteMonoid([[1, 0], [0, 1]], identity=0)


def test_a_callers_table_is_copied_even_in_the_narrow_dtype():
    t = np.array([[0, 1], [1, 1]], dtype=np.uint8)
    m = FiniteMonoid(t)
    t[0, 1] = 0
    assert m.mul.tolist() == [[0, 1], [1, 1]]
    assert not m.mul.flags.writeable


def test_a_composition_monoid_adopts_its_table_as_the_constructor_would_build_it():
    m = map_monoid(3)
    rebuilt = FiniteMonoid(m.mul.tolist(), m.identity, m.names)
    assert m.mul.dtype == rebuilt.mul.dtype and np.array_equal(m.mul, rebuilt.mul)
    assert not m.mul.flags.writeable and m.mul.base is None


def test_associativity_idempotent_pair(m2):
    assert verify_associativity(m2)


def test_associativity_detects_violation():
    # table with an identity but (1*1)*2 != 1*(1*2)
    m = FiniteMonoid([[0, 1, 2], [1, 2, 2], [2, 2, 1]])
    assert verify_associativity(m) is False


def test_associativity_full_map_monoid():
    # exhaustive triple check over the 4-element monoid of self-maps of 2 points
    assert verify_associativity(map_monoid(2))


def test_ideal_action_fixes_bounds(m2):
    full = m2.full_ideal()
    empty = m2.empty_ideal()
    for m in range(m2.size):
        assert ideal_action(m, full).is_full
        assert ideal_action(m, empty).is_empty


def test_ideal_action_derived_value(m2):
    # l_e({e}) = {m' | m'e in {e}} = {1, e}
    assert ideal_action(1, m2.ideal([1])).members == frozenset({0, 1})


def test_ideal_action_is_an_action():
    # l_1 = id and l_m . l_n = l_{mn}, exhaustively over small monoids
    for mon in small_monoids(3):
        ideals = enumerate_left_ideals(mon)
        for ideal in ideals:
            assert ideal_action(mon.identity, ideal).mask == ideal.mask
            for m in range(mon.size):
                for n in range(mon.size):
                    composed = ideal_action(m, ideal_action(n, ideal))
                    direct = ideal_action(mon.table[m][n], ideal)
                    assert composed.mask == direct.mask


def test_heyting_implies_reflexive_and_top(m2):
    for ideal in enumerate_left_ideals(m2):
        assert heyting_implies(ideal, ideal).is_full


def test_full_implies_anything_is_itself():
    # M => J equals J, verified by enumeration on all monoids of size <= 3
    for mon in small_monoids(3):
        full = mon.full_ideal()
        for j in enumerate_left_ideals(mon):
            assert heyting_implies(full, j).mask == j.mask


def test_implies_derived_value(m2):
    assert heyting_implies(m2.ideal([1]), m2.empty_ideal()).is_empty


def test_negation_bounds(m2):
    assert heyting_not(m2.full_ideal()).is_empty
    assert heyting_not(m2.empty_ideal()).is_full


def test_excluded_middle_fails(m2):
    e = m2.ideal([1])
    assert (e | heyting_not(e)).mask == e.mask
    assert not (e | heyting_not(e)).is_full


def test_enumerate_ideals_trivial():
    triv = FiniteMonoid([[0]])
    assert [sorted(i.members) for i in enumerate_left_ideals(triv)] == [[], [0]]


def test_enumerate_ideals_idempotent_pair(m2):
    assert [sorted(i.members) for i in enumerate_left_ideals(m2)] == [[], [1], [0, 1]]


def test_enumerate_ideals_map_monoid(mm2):
    # filtered from all 16 subsets: empty, the two constant maps, everything
    ideals = [i.member_names() for i in enumerate_left_ideals(mm2)]
    assert ideals == [(), ("f00", "f11"), ("f00", "f01", "f10", "f11")]


def test_ideal_validation_rejects_non_ideals(mm2):
    with pytest.raises(StructureError):
        mm2.ideal([mm2.names.index("f00")])  # single constant is not closed


def test_mixed_monoid_ideals_rejected(m2, mm2):
    with pytest.raises(UsageError):
        _ = m2.full_ideal() & mm2.full_ideal()
    with pytest.raises(UsageError):
        heyting_implies(m2.full_ideal(), mm2.full_ideal())


def test_heyting_outputs_are_ideals(m2, mm2):
    # LeftIdeal construction re-validates the ideal condition, so it
    # suffices that the operations return without raising
    for mon in (m2, mm2):
        ideals = enumerate_left_ideals(mon)
        for a in ideals:
            assert isinstance(heyting_not(a), LeftIdeal)
            for b in ideals:
                heyting_implies(a, b)
                a & b
                a | b


def test_small_monoid_census():
    # 1, 2, and 7 isomorphism classes at sizes 1..3
    assert [len([m for m in small_monoids(3) if m.size == n]) for n in (1, 2, 3)] == [1, 2, 7]


def test_heyting_report_shape(m2):
    report = heyting_report(m2)
    assert report["ideal_count"] == 3
    assert report["all_laws_hold"]
    assert report["excluded_middle_failures"] == [("1",)]


# ---------------------------------------------------------------------------
# Reference oracles: the direct searches that the closed forms replace


def _implies_by_action(lhs: LeftIdeal, rhs: LeftIdeal) -> int:
    """The m whose action on lhs stays inside its action on rhs, by
    computing both actions element by element."""
    mon = lhs.monoid
    mask = 0
    for m in range(mon.size):
        amask = bmask = 0
        for mp in range(mon.size):
            prod = mon.table[mp][m]
            if lhs.mask >> prod & 1:
                amask |= 1 << mp
            if rhs.mask >> prod & 1:
                bmask |= 1 << mp
        if amask & ~bmask == 0:
            mask |= 1 << m
    return mask


def _ideals_by_filtering(mon: FiniteMonoid) -> list[int]:
    """Every subset closed under left multiplication."""
    return [mask for mask in range(1 << mon.size)
            if all(mask >> mon.table[a][i] & 1
                   for i in range(mon.size) if mask >> i & 1
                   for a in range(mon.size))]


def _closure_by_fixpoint(gens, k: int) -> set[tuple[int, ...]]:
    """Compose all pairs of known maps until nothing new appears."""
    elems = {tuple(range(k)), *(tuple(g) for g in gens)}
    changed = True
    while changed:
        changed = False
        for f in sorted(elems):
            for g in sorted(elems):
                h = tuple(f[g[x]] for x in range(k))
                if h not in elems:
                    elems.add(h)
                    changed = True
    return elems


def _heyting_report_by_loops(m: FiniteMonoid) -> dict:
    """Every law checked on element masks, one pair or triple of ideals at
    a time, over a table of implications built through heyting_implies."""
    ideals = enumerate_left_ideals(m)
    masks = [i.mask for i in ideals]
    mask_set = set(masks)
    full = (1 << m.size) - 1
    laws = {name: True for name in HEYTING_LAW_NAMES}

    imp = {}
    neg = {}
    for a in ideals:
        for b in ideals:
            imp[a.mask, b.mask] = heyting_implies(a, b).mask
        neg[a.mask] = heyting_not(a).mask

    for x in masks:
        if neg[x] not in mask_set:
            laws["closure_not"] = False
        if x & x != x or x | x != x:
            laws["idempotent"] = False
        if not (x & full == x and x | 0 == x and x | full == full and x & 0 == 0):
            laws["bounds"] = False
    for x in masks:
        for y in masks:
            if (x & y) not in mask_set:
                laws["closure_meet"] = False
            if (x | y) not in mask_set:
                laws["closure_join"] = False
            if imp[x, y] not in mask_set:
                laws["closure_implies"] = False
            if x & y != y & x or x | y != y | x:
                laws["commutative"] = False
            if x & (x | y) != x or x | (x & y) != x:
                laws["absorption"] = False
    for x in masks:
        for y in masks:
            for z in masks:
                if (x & y) & z != x & (y & z) or (x | y) | z != x | (y | z):
                    laws["associative"] = False
                if x & (y | z) != (x & y) | (x & z) or x | (y & z) != (x | y) & (x | z):
                    laws["distributive"] = False
                if ((z & x) & ~y == 0) != (z & ~imp[x, y] == 0):
                    laws["residuation"] = False

    witnesses = [LeftIdeal(m, x) for x in masks if x | neg[x] != full]
    return {
        "size": m.size,
        "ideal_count": len(ideals),
        "ideals": [i.member_names() for i in ideals],
        "laws": laws,
        "all_laws_hold": all(laws.values()),
        "excluded_middle_failures": [w.member_names() for w in witnesses],
    }


def _oracle_corpus() -> list[FiniteMonoid]:
    return small_monoids(3) + random_monoids(31, 12) + [map_monoid(3)]


def test_implies_closed_form_matches_action_loop():
    for mon in _oracle_corpus():
        ideals = enumerate_left_ideals(mon)
        for a in ideals:
            for b in ideals:
                assert heyting_implies(a, b).mask == _implies_by_action(a, b)


def test_closure_enumeration_matches_filtering():
    # the principal-ideal closure must agree with filtering every subset
    corpus = (small_monoids(3) + [map_monoid(2)] + random_monoids(2027, 6)
              + random_monoids(5, 4, sizes=(7, 8)))
    for mon in corpus:
        closed = [i.mask for i in enumerate_left_ideals(mon)]
        assert closed == sorted(_ideals_by_filtering(mon),
                                key=lambda k: (k.bit_count(), k))


def test_breadth_first_closure_matches_fixpoint():
    rng = np.random.default_rng(2027)
    for _ in range(80):
        k = int(rng.integers(2, 5))
        gens = [tuple(int(x) for x in rng.integers(0, k, size=k))
                for _ in range(int(rng.integers(1, 4)))]
        cap = int(rng.integers(2, 40))
        ordered = sorted(_closure_by_fixpoint(gens, k))
        if len(ordered) > cap:
            with pytest.raises(CapacityError):
                submonoid_closure(gens, k, max_size=cap)
            continue
        m = submonoid_closure(gens, k, max_size=cap)
        index = {f: i for i, f in enumerate(ordered)}
        assert m.names == tuple("f" + "".join(map(str, f)) for f in ordered)
        assert m.identity == index[tuple(range(k))]
        assert m.table == tuple(tuple(index[tuple(f[g[x]] for x in range(k))]
                                      for g in ordered) for f in ordered)


# sha256 of repr([(identity, names, table) ...]) of random_monoids(seed, 10)
RANDOM_CORPUS_DIGESTS = {
    11: "60565c917e702f137e9313b3dab82a54b08bc576016112331c355bc5bbc4f017",
    2027: "f802adda5706cb9fa1fda730e4917f4fb9a2ea5036f596e48eb120ca982ba955",
    424242: "84a5f40513e98ad39288c6f0b5d9de3afd2263a31a16825b1766c1442be05f3f",
}


@pytest.mark.parametrize("seed", sorted(RANDOM_CORPUS_DIGESTS))
def test_random_monoids_build_tables_only_for_the_wanted_sizes(seed, monkeypatch):
    built, build = [], corpus.submonoid_closure

    def closure(gens, k):
        built.append(build(gens, k))
        return built[-1]

    monkeypatch.setattr(corpus, "submonoid_closure", closure)
    found = random_monoids(seed, 10)
    assert built and {m.size for m in built} <= {4, 5}
    blob = repr([(m.identity, m.names, m.table) for m in found]).encode()
    assert hashlib.sha256(blob).hexdigest() == RANDOM_CORPUS_DIGESTS[seed]


def _min_chain(n: int) -> FiniteMonoid:
    """{0 < 1 < ... < n-1} under min, with the top as identity: n principal
    ideals, so n = 8 and 9, 16 and 17, 32 and 33, 64 and 65 sit on either
    side of the uint8, uint16, uint32 and uint64 codes."""
    return FiniteMonoid([[min(a, b) for b in range(n)] for a in range(n)], identity=n - 1)


# Submonoids of map_monoid(4) with 23 and 28 elements (57 and 54 left ideals).
LATTICE_GENERATORS = (((1, 1, 0, 0), (1, 3, 2, 3), (1, 2, 2, 2)),
                      ((0, 0, 0, 2), (3, 2, 1, 2), (2, 2, 0, 0)))


def test_heyting_report_matches_loop_oracle():
    lattices = [submonoid_closure(gens, 4) for gens in LATTICE_GENERATORS]
    assert [(m.size, len(enumerate_left_ideals(m))) for m in lattices] == [(23, 57), (28, 54)]
    sizes = [8, 9, 16, 17, 32, 33, 64, 65]
    chains = [_min_chain(n) for n in sizes]
    assert [len(set(m.reach_masks())) for m in chains] == sizes
    for mon in _oracle_corpus() + lattices + chains:
        assert heyting_report(mon) == _heyting_report_by_loops(mon)


def test_heyting_report_matches_oracle_on_an_ideal_lattice_with_a_hole():
    # one hole at every ideal but the empty one
    closure_laws = [name for name in HEYTING_LAW_NAMES if name.startswith("closure_")]
    full = enumerate_left_ideals(map_monoid(3))
    for i in range(1, len(full)):
        mon = map_monoid(3)
        mon._ideals = tuple(full[:i] + full[i + 1:])
        report = heyting_report(mon)
        assert report == _heyting_report_by_loops(mon)
        assert not all(report["laws"][name] for name in closure_laws)


def _families_with_holes():
    """(monoid, family of its ideals in their order): every pair of holes in
    map_monoid(3), every nonempty family of the small corpora, and 8 random
    families of each lattice submonoid with 1 to 12 holes, the empty ideal
    and M among them."""
    m3 = map_monoid(3)
    full = enumerate_left_ideals(m3)
    for pair in itertools.combinations(range(1, len(full)), 2):
        yield m3, [ideal for k, ideal in enumerate(full) if k not in pair]
    for mon in small_monoids(3) + random_monoids(2027, 6):
        full = enumerate_left_ideals(mon)
        for kept in itertools.product((True, False), repeat=len(full)):
            if any(kept):
                yield mon, list(itertools.compress(full, kept))
    rng = np.random.default_rng(2027)
    for gens in LATTICE_GENERATORS:
        mon = submonoid_closure(gens, 4)
        full = enumerate_left_ideals(mon)
        for _ in range(8):
            holes = rng.choice(len(full), size=int(rng.integers(1, 13)), replace=False).tolist()
            yield mon, [ideal for k, ideal in enumerate(full) if k not in holes]


def test_heyting_report_matches_oracle_on_ideal_families_with_many_holes():
    closure_laws = [name for name in HEYTING_LAW_NAMES if name.startswith("closure_")]
    verdicts = {name: set() for name in closure_laws}
    families = 0
    for mon, family in _families_with_holes():
        mon._ideals = tuple(family)
        report = heyting_report(mon)
        assert report == _heyting_report_by_loops(mon)
        for name in closure_laws:
            verdicts[name].add(report["laws"][name])
        families += 1
    assert families > 200
    assert verdicts == {name: {True, False} for name in closure_laws}


def test_heyting_report_on_the_full_map_monoid_on_four_points():
    report = heyting_report(map_monoid(4))
    assert report["size"] == 256
    assert report["ideal_count"] == 347
    assert report["all_laws_hold"]
    assert all(report["laws"].values()) and tuple(report["laws"]) == HEYTING_LAW_NAMES
    # excluded middle fails at every ideal except the empty one and M
    assert len(report["excluded_middle_failures"]) == 345
    assert report["excluded_middle_failures"] == report["ideals"][1:-1]


def test_map_monoid_composes_its_value_tuples():
    for k in range(1, 5):
        m = map_monoid(k)
        table, identity, names = monoid_oracle.composition_monoid(map_monoid_values(k))
        assert m.identity == identity
        assert m.names == tuple(names)
        assert m.table == tuple(map(tuple, table))


def test_reach_masks_are_the_principal_left_ideals():
    lattices = [submonoid_closure(gens, 4) for gens in LATTICE_GENERATORS]
    chains = [_min_chain(64), _min_chain(65)]
    for mon in _oracle_corpus() + random_monoids(2027, 6) + lattices + chains + [map_monoid(4)]:
        assert mon.reach_masks() == monoid_oracle.reach_masks(mon.table)


LATTICE_LAYER_RUN = """
import sys
from monoidtopos.corpus import random_monoids, small_monoids
from monoidtopos.monoid import enumerate_left_ideals, heyting_report, submonoid_closure
from monoidtopos.mset import equivariant_maps_to_ideals, invariant_subsets, left_regular
for mon in small_monoids(3) + random_monoids(2027, 4):
    heyting_report(mon)
mon = submonoid_closure({gens!r}, 4)
enumerate_left_ideals(mon)
invariant_subsets(left_regular(mon))
equivariant_maps_to_ideals(left_regular(mon))
print("numpy.ma" in sys.modules)
"""


def test_the_lattice_layer_leaves_numpy_ma_unimported():
    # np.unique and np.isin import numpy.ma, which costs every process its memory
    src = str(Path(__file__).parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = LATTICE_LAYER_RUN.format(gens=LATTICE_GENERATORS[0])
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert run.stdout == "False\n"
