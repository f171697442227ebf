import re

import numpy as np
import pytest

import tests.mset_oracle as oracle
from monoidtopos import mset
from monoidtopos.corpus import small_monoids
from monoidtopos.errors import CapacityError, UsageError, ValidationError
from monoidtopos.monoid import (FiniteMonoid, enumerate_left_ideals, ideal_action, map_monoid,
                                map_monoid_values)
from monoidtopos.mset import (ACTION_CHECK_BUDGET, KFamily, MSet, arrow_to_invariant, characteristic_arrow,
                              equivariant_maps_to_ideals, family_from_subset,
                              family_to_lambda, invariant_subsets, is_invariant,
                              lambda_to_family, left_regular, product_mset,
                              truth_equal, truth_in_family, truth_in_invariant,
                              truth_in_subset, truth_subset_leq)


@pytest.fixture
def points2(mm2):
    return MSet(mm2, [0, 1], map_monoid_values(2))


def test_action_laws_enforced(m2):
    with pytest.raises(ValidationError):
        # e must act idempotently for ee = e; sending e*0 -> 1, e*1 -> 0 breaks it
        MSet(m2, [0, 1], [[0, 1], [1, 0]])


def _first_law_failure(mon, table):
    """Reference: the first (m, n, i) in loop order where acting by n and
    then by m differs from acting by the product mn."""
    for m in range(mon.size):
        for n in range(mon.size):
            for i in range(len(table[0])):
                if table[m][table[n][i]] != table[mon.table[m][n]][i]:
                    return m, n, i
    return None


def test_action_law_error_names_first_failure(mm2):
    # the identity f01 acts trivially and the constant f00 is consistent;
    # the swap f10 after f00 is the first product the table gets wrong
    table = [[0, 0, 0], [0, 1, 2], [2, 1, 0], [1, 1, 2]]
    assert _first_law_failure(mm2, table) == (2, 0, 0)
    with pytest.raises(ValidationError, match=r"^action law fails at m=2, n=0, point index 0$"):
        MSet(mm2, [0, 1, 2], table)


def test_action_law_check_matches_loop_on_random_tables():
    rng = np.random.default_rng(7)
    for mon in small_monoids(3) + [map_monoid(2)]:
        for _ in range(40):
            k = int(rng.integers(1, 5))
            table = rng.integers(0, k, size=(mon.size, k)).tolist()
            table[mon.identity] = list(range(k))
            expected = _first_law_failure(mon, table)
            if expected is None:
                MSet(mon, range(k), table)
                continue
            m, n, i = expected
            with pytest.raises(ValidationError,
                               match=rf"^action law fails at m={m}, n={n}, point index {i}$"):
                MSet(mon, range(k), table)


def test_action_budget_is_checked_before_the_table_is_read():
    # the map monoid is associative, so the law check costs |G|·|M|·|X| steps
    mon = map_monoid(3)
    points = ACTION_CHECK_BUDGET // (len(mon.generators()) * mon.size) + 1
    with pytest.raises(CapacityError, match="^action-law validation would exceed its budget$"):
        MSet(mon, range(points), oracle.Unreadable())
    with pytest.raises(AssertionError, match="^the action table was read$"):
        MSet(mon, range(3), oracle.Unreadable())


def test_a_product_past_the_budget_is_refused_before_its_table_is_built(monkeypatch):
    lr = left_regular(map_monoid(3))
    monkeypatch.setattr(mset, "MSet", lambda *args: pytest.fail("the product was built"))
    # one step short of |G|·|M|·|X| for 3 generators, 27 elements and 27² points
    monkeypatch.setattr(mset, "ACTION_CHECK_BUDGET", 3 * 27 * 27 ** 2 - 1)
    with pytest.raises(CapacityError, match="^action-law validation would exceed its budget$"):
        product_mset(lr, lr)


def test_a_callable_action_is_a_validation_error(mm2):
    vals = map_monoid_values(2)
    with pytest.raises(ValidationError, match="^action table has wrong shape$"):
        MSet(mm2, [0, 1], lambda m, x: vals[m][x])


def test_a_late_first_failure_past_the_budget_is_named_by_a_generator(monkeypatch):
    # the natural action of the maps on three points, with f122 sending point 0
    # to 0: the first failure in scan order is in row 3
    mon = map_monoid(3)
    table = np.array(map_monoid_values(3))
    table[mon.names.index("f122"), 0] = 0
    first = oracle.action_law_failure(mon, table)
    assert first[0] == 3
    text = "action law fails at m={}, n={}, point index {}"
    with pytest.raises(ValidationError, match=f"^{text.format(*first)}$"):
        MSet(mon, range(3), table)
    # a budget of exactly the generator check leaves rows 0, 1 and 2 to scan
    monkeypatch.setattr(mset, "ACTION_CHECK_BUDGET", len(mon.generators()) * mon.size * 3)
    with pytest.raises(ValidationError) as caught:
        MSet(mon, range(3), table)
    named = tuple(map(int, re.fullmatch(r"action law fails at m=(\d+), n=(\d+), point index (\d+)",
                                        str(caught.value)).groups()))
    m, n, i = named
    assert named != first and n in mon.generators()
    assert table[m][table[n][i]] != table[mon.table[m][n]][i]


def test_action_is_kept_as_one_read_only_table(points2, mm2):
    assert points2.table.tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]
    assert points2.table.dtype == np.uint8
    with pytest.raises(ValueError):
        points2.table[0, 0] = 1
    assert MSet(mm2, range(300), [range(300)] * mm2.size).table.dtype == np.uint16
    assert left_regular(mm2).table.tolist() == [list(row) for row in mm2.table]


@pytest.mark.parametrize("table,message", [
    ([[0, 1], [1, 1]], "action table has wrong shape"),
    ([[0, 1], [1, 1], [1], [0, 0]], "action table has wrong shape"),
    ([[0, 1], [0, 2], [1, 0], [1, 1]], "action table entry out of range"),
    ([[0, 1], [-1, 0], [1, 0], [1, 1]], "action table entry out of range"),
    ([[0, 1], [10 ** 30, 0], [1, 0], [1, 1]], "action table entry out of range"),
])
def test_malformed_action_tables_are_rejected(mm2, table, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        MSet(mm2, [0, 1], table)


def test_trivial_and_full_subsets_invariant(points2):
    assert is_invariant(points2, set())
    assert is_invariant(points2, {0, 1})


def test_left_regular_invariance(m2):
    lr = left_regular(m2)
    assert is_invariant(lr, {1})       # {e} absorbs products
    assert not is_invariant(lr, {0})   # e*1 = e leaves {1}


def test_characteristic_arrow_values(m2):
    lr = left_regular(m2)
    chi = characteristic_arrow(lr, {1})
    assert chi[0].members == frozenset({1})
    assert chi[1].is_full


def test_characteristic_arrow_membership_is_full(points2):
    for subset in invariant_subsets(points2):
        chi = characteristic_arrow(points2, subset)
        for x in points2.points:
            assert (x in subset) == chi[x].is_full


def test_characteristic_arrow_equivariance():
    for mon in small_monoids(3):
        lr = left_regular(mon)
        for subset in invariant_subsets(lr):
            chi = characteristic_arrow(lr, subset)
            for m in range(mon.size):
                for x in lr.points:
                    assert chi[lr.act(m, x)].mask == ideal_action(m, chi[x]).mask


def test_truth_in_invariant_requires_invariance(m2):
    lr = left_regular(m2)
    with pytest.raises(ValidationError):
        truth_in_invariant(lr, 0, {0})


def test_truth_in_invariant_rejects_a_point_outside_the_carrier(m2):
    with pytest.raises(UsageError, match="7 is not a carrier point"):
        truth_in_invariant(left_regular(m2), 7, {1})


def test_truth_in_invariant_values(m2):
    lr = left_regular(m2)
    assert truth_in_invariant(lr, 1, {1}).is_full
    assert truth_in_invariant(lr, 0, set()).is_empty
    assert truth_in_invariant(lr, 0, {1}).members == frozenset({1})


def test_truth_in_subset_values(points2):
    assert truth_in_subset(points2, 0, {1}).member_names() == ("f00", "f11")
    assert truth_in_subset(points2, 0, set()).is_empty
    assert truth_in_subset(points2, 1, {1}).is_full  # x in K forces membership


def test_truth_in_subset_contained_in_invariant_version(points2, m2):
    # for invariant K, m*x in m*K implies m*x in K, so the subset-version
    # truth value can only be smaller; they agree when every m*K = K
    for fixture in (points2, left_regular(m2)):
        for k in invariant_subsets(fixture):
            for x in fixture.points:
                sub = truth_in_subset(fixture, x, k)
                inv = truth_in_invariant(fixture, x, k)
                assert sub.mask & ~inv.mask == 0
                if all(fixture.translate(m, k) == k
                       for m in range(fixture.monoid.size)):
                    assert sub.mask == inv.mask


def test_truth_subset_leq(points2):
    assert truth_subset_leq(points2, {0}, {0, 1}).is_full
    assert truth_subset_leq(points2, {0}, {1}).member_names() == ("f00", "f11")
    assert truth_subset_leq(points2, {0, 1}, set()).is_empty


def test_truth_equal(points2):
    assert truth_equal(points2, 0, 0).is_full
    assert truth_equal(points2, 0, 1).member_names() == ("f00", "f11")
    # a group acting on itself separates points
    z2 = FiniteMonoid([[0, 1], [1, 0]])
    lr = left_regular(z2)
    assert truth_equal(lr, 0, 1).is_empty


def test_family_validation(points2):
    ok = family_from_subset(points2, {1})
    assert isinstance(ok, KFamily)
    with pytest.raises(ValidationError):
        # constant family at a non-invariant subset is not compatible
        KFamily(points2, tuple(frozenset({0}) for _ in range(points2.monoid.size)))


def test_family_truth_matches_subset_truth(points2):
    for k in ({0}, {1}, {0, 1}, set()):
        family = family_from_subset(points2, k)
        for x in points2.points:
            assert (truth_in_family(points2, x, family).mask
                    == truth_in_subset(points2, x, k).mask)


def test_family_constant_bounds(points2):
    mon_size = points2.monoid.size
    full = KFamily(points2, tuple(frozenset({0, 1}) for _ in range(mon_size)))
    empty = KFamily(points2, tuple(frozenset() for _ in range(mon_size)))
    assert truth_in_family(points2, 0, full).is_full
    assert truth_in_family(points2, 0, empty).is_empty


def test_family_lambda_round_trips(points2, m2):
    # map_monoid(3) has left ideals that are not right ideals, so the
    # ideal action of m' (m'' with m''m' in I) differs from its mirror
    fixtures = [points2, left_regular(m2), left_regular(map_monoid(3))]
    for ms in fixtures:
        subsets = [set(), set(ms.points), {ms.points[0]}, {ms.points[-1]}]
        for k in subsets:
            family = family_from_subset(ms, k)
            lam = family_to_lambda(family)
            back = lambda_to_family(ms, lam)
            assert back.sets == family.sets
            lam2 = family_to_lambda(back)
            assert all(lam2[key].mask == lam[key].mask for key in lam)


def test_lambda_to_family_rejects_non_equivariant(points2):
    family = family_from_subset(points2, {1})
    lam = dict(family_to_lambda(family))
    key = next(iter(lam))
    lam[key] = points2.monoid.empty_ideal() if not lam[key].is_empty \
        else points2.monoid.full_ideal()
    with pytest.raises(ValidationError):
        lambda_to_family(points2, lam)


def test_lambda_to_family_names_a_missing_pairing_entry():
    regular = left_regular(map_monoid(2))
    lam = dict(family_to_lambda(family_from_subset(regular, [0])))
    del lam[3, 3]
    with pytest.raises(ValidationError, match=r"^pairing undefined at \(3, 3\)$"):
        lambda_to_family(regular, lam)


def test_equivariant_maps_reuse_the_enumerated_ideals(mm2):
    ideals = enumerate_left_ideals(mm2)
    for chi in equivariant_maps_to_ideals(left_regular(mm2)):
        assert all(any(value is ideal for ideal in ideals) for value in chi.values())


def test_bijection_small_fixtures(points2, m2, mm2):
    for ms in (points2, left_regular(m2), left_regular(mm2)):
        subsets = invariant_subsets(ms)
        arrows = equivariant_maps_to_ideals(ms)
        assert len(subsets) == len(arrows)
        assert ([{p: chi[p].mask for p in ms.points} for chi in arrows]
                == [{p: chi[p].mask for p in ms.points}
                    for chi in oracle.equivariant_maps_by_search(ms)])
        recovered = {arrow_to_invariant(ms, chi) for chi in arrows}
        assert recovered == set(subsets)
        for j in subsets:
            chi = characteristic_arrow(ms, j)
            assert arrow_to_invariant(ms, chi) == j
            assert any(all(chi[p].mask == other[p].mask for p in ms.points)
                       for other in arrows)


def test_invariant_subsets_past_the_lattice_cap_are_a_capacity_error():
    # the trivial action on 17 points has 2**17 invariant subsets, past IDEAL_COUNT_CAP
    trivial = MSet(FiniteMonoid([[0]]), range(17), [range(17)])
    with pytest.raises(CapacityError, match="^invariant-subset lattice exceeds configured cap$"):
        invariant_subsets(trivial)


def test_equivariant_maps_past_the_lattice_cap_are_a_capacity_error(monkeypatch):
    # the same 2**17 subsets classify 2**17 maps; the cap is met before any
    # arrow is taken, so no map is built
    trivial = MSet(FiniteMonoid([[0]]), range(17), [range(17)])
    monkeypatch.setattr(mset, "_arrow_masks", None)
    with pytest.raises(CapacityError, match="^invariant-subset lattice exceeds configured cap$"):
        equivariant_maps_to_ideals(trivial)


def test_product_mset_componentwise(points2):
    prod = product_mset(points2, points2)
    for m in range(prod.monoid.size):
        for (a, b) in prod.points:
            assert prod.act(m, (a, b)) == (points2.act(m, a), points2.act(m, b))


def test_foreign_points_rejected(points2):
    with pytest.raises(UsageError):
        truth_equal(points2, 0, 7)
    with pytest.raises(UsageError):
        truth_in_subset(points2, 0, {9})
