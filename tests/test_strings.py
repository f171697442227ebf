import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoidtopos.errors import CapacityError, PreconditionError, UsageError
from monoidtopos.strings import PREDICATE_BATCH, ProjStringMonoid, bounded_ideal

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
    with pytest.raises(CapacityError):
        list(ABC.enumerate_strings(4, budget=100))
    with pytest.raises(PreconditionError):
        list(ABC.enumerate_strings(-1))


def test_bounded_ideal_certificate_clean():
    # strings containing P form a left ideal: prepending letters keeps P
    ideal = bounded_ideal(ABC, lambda qs: ["P" in q for q in qs], depth=3)
    assert not ideal.violations
    assert ideal.certificate == {"depth": 3, "violations": []}
    assert ("P",) in ideal and ("Q",) not in ideal
    assert ideal.max_verified_length == 3


def test_bounded_ideal_detects_violation():
    # strings of even length are not a left ideal
    ideal = bounded_ideal(ABC, lambda qs: [len(q) % 2 == 0 for q in qs], depth=3)
    assert ideal.violations
    letter, member = ideal.violations[0]
    assert letter in ABC.alphabet and len(member) % 2 == 0


def test_bounded_ideal_members_exhaustive():
    ideal = bounded_ideal(ABC, lambda qs: [q[:1] != ("R",) for q in qs], depth=2)
    expected = [q for q in ABC.enumerate_strings(2) if q[:1] != ("R",)]
    assert list(ideal.members) == expected


def test_bounded_ideal_batches_the_enumeration():
    # full batches in enumeration order, then the rest
    batches = []

    def predicate(qs):
        batches.append(list(qs))
        return [q[:1] != ("R",) for q in qs]

    ideal = bounded_ideal(ABC, predicate, depth=6)
    full, rest = divmod(ABC.count_strings(6), PREDICATE_BATCH)
    assert full >= 2 and rest
    assert [len(b) for b in batches] == [PREDICATE_BATCH] * full + [rest]
    assert [q for b in batches for q in b] == list(ABC.enumerate_strings(6))
    assert list(ideal.members) == [q for q in ABC.enumerate_strings(6) if q[:1] != ("R",)]
    batches.clear()
    assert ("R", "P") not in ideal and ("P", "R") in ideal
    assert batches == [[("R", "P")], [("P", "R")]]
