"""Free monoids of letter strings and depth-bounded ideal certificates.

Strings are tuples of letter ids in display order: the leftmost letter is
applied *last*, so ``concat(q, r)`` lists q's letters before r's and r acts
first.  Strings are enumerated one length (level) at a time, ``(a,) + q``
at index ``a * L**k + index(q)`` of level k+1 (``reduction`` evaluates
only its canonical words, no letter next to itself, and gathers).  Ideals
of the free monoid are infinite: a membership predicate plus one boolean
array per level up to a depth, certified by comparing each level with the next.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import CapacityError, PreconditionError, UsageError

DEFAULT_STRING_BUDGET = 1 << 20

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

    def levels(self, max_len: int) -> Iterator[list[Letters]]:
        """Strings of each length 0..max_len: level k+1 is each letter (slowest) + level k."""
        if max_len < 0:
            raise PreconditionError("max_len must be non-negative")
        # Two letters or more give over 2**max_len strings, one letter max_len**2 / 2
        # letters in all: a deeper domain is refused before it is counted.
        limit = (DEFAULT_STRING_BUDGET.bit_length() if len(self.alphabet) > 1
                 else math.isqrt(2 * DEFAULT_STRING_BUDGET))
        if max_len > limit:
            raise CapacityError(f"strings longer than {limit} letters exceed budget "
                                f"{DEFAULT_STRING_BUDGET}")
        if (count := self.count_strings(max_len)) > DEFAULT_STRING_BUDGET:
            raise CapacityError(f"{count} strings exceed budget {DEFAULT_STRING_BUDGET}")
        for k in range(max_len + 1):
            yield list(itertools.product(self.alphabet, repeat=k))

    def enumerate_strings(self, max_len: int) -> Iterator[Letters]:
        """All strings of length <= max_len, shortest first, each exactly once."""
        yield from itertools.chain.from_iterable(self.levels(max_len))


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
                  levels: Iterable[tuple[Sequence[Letters], np.ndarray]]) -> BoundedIdeal:
    """The ideal that ``kept`` marks on each (strings, kept) level of ``monoid.levels``;
    violations are the single-letter extensions leaving it, by member, then letter
    (longer prefixes factor through them).  ``predicate`` answers ``in``."""
    levels, width = list(levels), len(monoid.alphabet)
    members = [q for strings, kept in levels for q in itertools.compress(strings, kept)]
    violations = [(monoid.alphabet[a], shorter[i])
                  for (shorter, was), (_, kept) in itertools.pairwise(levels)
                  for i, a in zip(*(was & ~kept.reshape(width, len(shorter))).T.nonzero())]
    return BoundedIdeal(monoid, predicate, len(levels) - 1, tuple(members), tuple(violations))
