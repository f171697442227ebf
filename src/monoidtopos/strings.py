"""Free monoids of letter strings and depth-bounded ideal certificates.

Strings are tuples of letter ids in display order: the leftmost letter is
applied *last*, so ``concat(q, r)`` lists q's letters before r's and r acts
first.  Ideals of the free monoid are infinite, so they are represented by
a membership predicate plus a witness cache verified up to a fixed depth.
The predicate is batched: it maps a list of strings to one boolean per
string, and ``bounded_ideal`` feeds it the enumeration in batches.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

from .errors import CapacityError, PreconditionError, UsageError

DEFAULT_STRING_BUDGET = 1 << 20
PREDICATE_BATCH = 256

Letters = tuple[str, ...]
Predicate = Callable[[Sequence[Letters]], Sequence[bool]]


@dataclass(frozen=True)
class ProjStringMonoid:
    """The free monoid over a finite alphabet of letter ids; unit is ()."""

    alphabet: Letters

    def __post_init__(self):
        letters = tuple(str(a) for a in self.alphabet)
        if len(set(letters)) != len(letters):
            raise UsageError("alphabet letters must be distinct")
        object.__setattr__(self, "alphabet", letters)

    @property
    def unit(self) -> Letters:
        return ()

    def check_string(self, q: Sequence[str]) -> Letters:
        q = tuple(q)
        for letter in q:
            if letter not in self.alphabet:
                raise UsageError(f"letter {letter!r} not in alphabet")
        return q

    def concat(self, q: Sequence[str], r: Sequence[str]) -> Letters:
        """q followed by r, with r applied first."""
        return self.check_string(q) + self.check_string(r)

    def count_strings(self, max_len: int) -> int:
        a = len(self.alphabet)
        if a == 1:
            return max_len + 1
        return (a ** (max_len + 1) - 1) // (a - 1) if a else 1

    def enumerate_strings(self, max_len: int,
                          budget: int = DEFAULT_STRING_BUDGET) -> Iterator[Letters]:
        """All strings of length <= max_len, shortest first, each exactly once."""
        if max_len < 0:
            raise PreconditionError("max_len must be non-negative")
        if self.count_strings(max_len) > budget:
            raise CapacityError(
                f"{self.count_strings(max_len)} strings exceed budget {budget}")
        for k in range(max_len + 1):
            yield from itertools.product(self.alphabet, repeat=k)


@dataclass(frozen=True)
class BoundedIdeal:
    """A left ideal of a free string monoid, certified up to a depth.

    ``members`` caches every string of length <= max_verified_length that
    satisfies the predicate; ``violations`` lists pairs (letter, member)
    where prepending the letter to a cached member of smaller length left
    the ideal — empty for a genuine left ideal.
    """

    monoid: ProjStringMonoid
    predicate: Predicate = field(compare=False)
    max_verified_length: int
    members: tuple[Letters, ...]
    violations: tuple[tuple[str, Letters], ...]

    def __contains__(self, q: Sequence[str]) -> bool:
        return bool(self.predicate([self.monoid.check_string(q)])[0])

    @property
    def certificate(self) -> dict:
        return {
            "depth": self.max_verified_length,
            "violations": [{"letter": p, "member": list(q)} for p, q in self.violations],
        }

    def member_count(self) -> int:
        return len(self.members)


def bounded_ideal(monoid: ProjStringMonoid, predicate: Predicate,
                  depth: int, budget: int = DEFAULT_STRING_BUDGET) -> BoundedIdeal:
    """Evaluate a batched membership predicate on all strings up to
    ``depth``, shortest first, and certify the left-ideal property
    (single-letter extensions suffice, since longer prefixes factor
    through them)."""
    strings = monoid.enumerate_strings(depth, budget=budget)
    members = []
    while batch := list(itertools.islice(strings, PREDICATE_BATCH)):
        members += [q for q, keep in zip(batch, predicate(batch)) if keep]
    member_set = set(members)
    violations = []
    for q in members:
        if len(q) >= depth:
            continue
        for p in monoid.alphabet:
            if (p,) + q not in member_set:
                violations.append((p, q))
    return BoundedIdeal(monoid, predicate, depth, tuple(members), tuple(violations))
