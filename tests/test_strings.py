import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoidtopos.errors import CapacityError, PreconditionError, UsageError
from monoidtopos.strings import DEFAULT_STRING_BUDGET, ProjStringMonoid, bounded_ideal
from tests.test_row_valuations import count_decoded
from tests.valuation_oracle import string_rows

ABC = ProjStringMonoid(("P", "Q", "R"))


def test_unit_laws():
    q = ("P", "Q")
    assert ABC.concat(ABC.unit, q) == q
    assert ABC.concat(q, ABC.unit) == q


def test_concat_orders_first_argument_first():
    # (Q2) * (Q1) lists Q2 then Q1: the right factor acts first
    assert ABC.concat(("Q",), ("P",)) == ("Q", "P")


def test_concat_length_additive():
    q, r = ("P", "P"), ("Q", "R", "P")
    assert len(ABC.concat(q, r)) == len(q) + len(r)


letters = st.lists(st.sampled_from("PQR"), max_size=5).map(tuple)


@settings(max_examples=100, deadline=None)
@given(letters, letters, letters)
def test_concat_associative(a, b, c):
    assert ABC.concat(ABC.concat(a, b), c) == ABC.concat(a, ABC.concat(b, c))


def test_concat_rejects_foreign_letters():
    with pytest.raises(UsageError):
        ABC.concat(("P",), ("X",))


def test_enumerate_single_letter():
    single = ProjStringMonoid(("P",))
    assert list(single.enumerate_strings(2)) == [(), ("P",), ("P", "P")]


def test_enumerate_two_letters_depth_one():
    two = ProjStringMonoid(("P", "Q"))
    assert list(two.enumerate_strings(1)) == [(), ("P",), ("Q",)]


def test_enumerate_counts_geometric():
    assert len(list(ABC.enumerate_strings(4))) == 121
    assert ABC.count_strings(4) == 121


def test_enumerate_unique_and_shortest_first():
    seen = list(ABC.enumerate_strings(3))
    assert len(seen) == len(set(seen))
    lengths = [len(q) for q in seen]
    assert lengths == sorted(lengths)


def test_enumerate_budget():
    # 3 letters to depth 13 is 2,391,484 strings, over DEFAULT_STRING_BUDGET:
    # the count is checked before the first string is built
    assert ABC.count_strings(13) == 2_391_484 > DEFAULT_STRING_BUDGET
    with pytest.raises(CapacityError, match=f"^2391484 strings exceed budget {DEFAULT_STRING_BUDGET}$"):
        next(ABC.enumerate_strings(13))
    with pytest.raises(PreconditionError):
        list(ABC.enumerate_strings(-1))


def test_enumerate_budget_refuses_deep_domains_before_counting():
    # 2**22 > budget strings at any depth past 21 for two letters or more, and
    # over budget letters in all past 1448 for one: the size is never computed
    limit = DEFAULT_STRING_BUDGET.bit_length()
    assert limit == 21
    for depth in (limit + 1, 20_000, int(1e300)):
        with pytest.raises(CapacityError, match=f"^strings longer than 21 letters exceed budget "
                                                f"{DEFAULT_STRING_BUDGET}$"):
            next(ABC.enumerate_strings(depth))
    one = ProjStringMonoid(("P",))
    assert len(list(one.enumerate_strings(1448))) == 1449
    with pytest.raises(CapacityError, match="^strings longer than 1448 letters exceed budget"):
        next(one.enumerate_strings(1449))
    # at the limit itself two letters are counted: 2**22 - 1 strings
    with pytest.raises(CapacityError, match="^4194303 strings exceed budget"):
        next(ProjStringMonoid(("P", "Q")).enumerate_strings(limit))


def ideal_of(monoid, keep, depth):
    """The ideal of the strings that ``keep`` accepts, every string its own row."""
    def predicate(qs):
        return [keep(q) for q in qs]
    canons, left = string_rows(len(monoid.alphabet), depth)
    kept = np.array(predicate(list(monoid.enumerate_strings(depth))), dtype=bool)
    return bounded_ideal(monoid, predicate, canons, kept, left)


def test_bounded_ideal_certificate_clean():
    # strings containing P form a left ideal: prepending letters keeps P
    ideal = ideal_of(ABC, lambda q: "P" in q, depth=3)
    assert not ideal.violations
    assert ideal.certificate == {"depth": 3, "violations": []}
    assert ("P",) in ideal and ("Q",) not in ideal
    assert ideal.max_verified_length == 3


def test_bounded_ideal_detects_violation():
    # strings of even length are not a left ideal
    ideal = ideal_of(ABC, lambda q: len(q) % 2 == 0, depth=3)
    assert ideal.violations
    letter, member = ideal.violations[0]
    assert letter in ABC.alphabet and len(member) % 2 == 0


def test_bounded_ideal_members_exhaustive():
    ideal = ideal_of(ABC, lambda q: q[:1] != ("R",), depth=2)
    expected = [q for q in ABC.enumerate_strings(2) if q[:1] != ("R",)]
    assert list(ideal.members) == expected


def test_bounded_ideal_takes_one_kept_boolean_per_row(monkeypatch):
    # strings sharing a row share its boolean: here the row of a string is its
    # first letter (row 0 the empty string), and a·q has row a + 1.  The
    # predicate is asked only for ``in``, on one-string lists; the violations
    # decode only their members, and the members are decoded once, when read
    decoded = count_decoded(monkeypatch)
    asked = []

    def predicate(qs):
        asked.append(list(qs))
        return [q[:1] != ("R",) for q in qs]

    canons = [np.zeros(1, dtype=np.intp)] + [np.repeat(np.arange(1, 4), 3 ** (k - 1))
                                             for k in range(1, 7)]
    left = np.tile(np.arange(1, 4)[:, None], (1, 4))
    ideal = bounded_ideal(ABC, predicate, canons, np.array([True, True, True, False]), left)
    expected = [q for q in ABC.enumerate_strings(6) if q[:1] != ("R",)]
    assert ideal.violations == tuple(("R", q) for q in expected if len(q) < 6)
    assert ideal.member_count() == len(expected)
    assert asked == [] and decoded == [len(ideal.violations)]
    assert ideal.max_verified_length == 6
    assert list(ideal.members) == expected
    assert ideal.members is ideal.members and decoded == [len(ideal.violations), len(expected)]
    assert ("R", "P") not in ideal and ("P", "R") in ideal
    assert asked == [[("R", "P")], [("P", "R")]]
