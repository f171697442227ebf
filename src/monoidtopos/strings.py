"""Free monoids of letter strings and depth-bounded ideal certificates.

Strings are tuples of letter ids in display order: the leftmost letter is
applied *last*, so ``concat(q, r)`` lists q's letters before r's and r acts
first.  Strings are enumerated one length (level) at a time, ``(a,) + q``
at index ``a * L**k + index(q)`` of level k+1.  ``reduction`` evaluates
only the canonical words (no letter next to itself) and gives each string
of level k its word's row in one ``canon`` array per level.  Ideals of the
free monoid are infinite: a membership predicate plus one boolean per row
up to a depth, certified by comparing each row with its one-letter
extensions, and decoded into strings only when a report reads them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Sequence

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

    def check_depth(self, max_len: int):
        """Refuse a domain of the strings up to max_len letters over budget."""
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

    def levels(self, max_len: int) -> Iterator[list[Letters]]:
        """Strings of each length 0..max_len: level k+1 is each letter (slowest) + level k."""
        self.check_depth(max_len)
        for k in range(max_len + 1):
            yield list(itertools.product(self.alphabet, repeat=k))

    def enumerate_strings(self, max_len: int) -> Iterator[Letters]:
        """All strings of length <= max_len, shortest first, each exactly once."""
        yield from itertools.chain.from_iterable(self.levels(max_len))

    def decode(self, canons: Sequence[np.ndarray], marked: np.ndarray) -> tuple[Letters, ...]:
        """The strings of each level k whose row ``canons[k]`` has ``marked``
        set, shortest first, then in enumeration order."""
        return tuple(itertools.chain.from_iterable(
            itertools.compress(itertools.product(self.alphabet, repeat=k), marked[canon])
            for k, canon in enumerate(canons)))


@dataclass(frozen=True, eq=False)
class BoundedIdeal:
    """A left ideal of a free string monoid, certified up to a depth.

    The ideal is one boolean per row, ``kept``, read by each string of level
    k at its row ``canons[k]``.  ``members`` decodes every string of length
    <= max_verified_length that is kept, once, on first read, and
    ``member_count`` counts them without decoding.  ``violations`` lists
    pairs (letter, member) where prepending the letter to a member of
    smaller length left the ideal — empty for a genuine left ideal.
    """

    monoid: ProjStringMonoid
    predicate: Predicate
    canons: tuple[np.ndarray, ...]
    kept: np.ndarray
    violations: tuple[tuple[str, Letters], ...]

    def __contains__(self, q: Sequence[str]) -> bool:
        return bool(self.predicate([self.monoid.check_string(q)])[0])

    @property
    def max_verified_length(self) -> int:
        return len(self.canons) - 1

    @property
    def certificate(self) -> dict:
        return {
            "depth": self.max_verified_length,
            "violations": [{"letter": p, "member": list(q)} for p, q in self.violations],
        }

    @cached_property
    def members(self) -> tuple[Letters, ...]:
        return self.monoid.decode(self.canons, self.kept)

    def member_count(self) -> int:
        return sum(int(np.count_nonzero(self.kept[canon])) for canon in self.canons)


def bounded_ideal(monoid: ProjStringMonoid, predicate: Predicate, canons: Sequence[np.ndarray],
                  kept: np.ndarray, left: np.ndarray) -> BoundedIdeal:
    """The ideal of the strings whose row ``kept`` marks, certified to depth
    len(canons) - 1: ``canons[k]`` gives each string of level k its row and
    ``left[a, c]`` the row of a·q for q of row c, for each row c of a string
    shorter than the depth.  (a, q) is a violation iff kept[c] and not
    kept[left[a, c]]; only violating rows are decoded, listed by member (level,
    then index), then letter (longer prefixes factor through them).
    ``predicate`` answers ``in``."""
    canons = tuple(canons)
    bad = kept[:left.shape[1]] & ~kept[left]
    violations = []
    if bad.any():
        hit = bad.any(axis=0)
        rows = np.concatenate([canon[hit[canon]] for canon in canons[:-1]])
        for q, c in zip(monoid.decode(canons[:-1], hit), rows.tolist()):
            violations += [(monoid.alphabet[a], q) for a in np.flatnonzero(bad[:, c]).tolist()]
    return BoundedIdeal(monoid, predicate, canons, kept, tuple(violations))
