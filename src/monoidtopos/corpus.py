"""Deterministic corpora: small monoids up to isomorphism and random valid
monoid tables found as closures inside map monoids.  Everything is seeded,
so repeated runs agree byte for byte.
"""

from __future__ import annotations

import itertools
from typing import Iterable

import numpy as np

from .errors import CapacityError
from .monoid import FiniteMonoid, closure_maps, submonoid_closure, verify_associativity

RANDOM_MONOID_ATTEMPTS = 20000


def all_monoids_upto_iso(size: int) -> list[FiniteMonoid]:
    """All monoids of the exact size, one per isomorphism class, by brute
    force over tables with the identity fixed at index 0.  Practical for
    size <= 4."""
    if size < 1:
        raise CapacityError("size must be positive")
    if size > 4:
        raise CapacityError("exhaustive enumeration is capped at size 4")
    seen = set()
    out = []
    w = size - 1
    for choice in itertools.product(range(size), repeat=w * w):
        # row and column 0 are the identity's; the choice fills the rest row by row
        table = [tuple(range(size))] + [(i, *choice[(i - 1) * w:i * w]) for i in range(1, size)]
        m = FiniteMonoid(table)
        if not verify_associativity(m):
            continue
        key = _canonical_key(m)
        if key in seen:
            continue
        seen.add(key)
        out.append(FiniteMonoid(key[1]))
    return out


def small_monoids(max_size: int = 3) -> list[FiniteMonoid]:
    """All monoids of size <= max_size up to isomorphism."""
    out = []
    for n in range(1, max_size + 1):
        out.extend(all_monoids_upto_iso(n))
    return out


def _canonical_key(m: FiniteMonoid) -> tuple:
    table, best = m.table, None
    for p in itertools.permutations([a for a in range(m.size) if a != m.identity]):
        order = (m.identity, *p)   # the relabelled monoid's element i is order[i]
        label = {a: i for i, a in enumerate(order)}
        key = tuple(tuple(label[table[a][b]] for b in order) for a in order)
        if best is None or key < best:
            best = key
    return (m.size, best)


def random_monoids(seed: int, count: int, sizes: Iterable[int] = (4, 5)) -> list[FiniteMonoid]:
    """Random valid monoid tables of the requested sizes, found by closing
    random generators inside map monoids and keeping closures whose size
    fits.  Results are deduplicated up to isomorphism."""
    rng = np.random.default_rng(seed)
    wanted = set(int(s) for s in sizes)
    found: list[FiniteMonoid] = []
    seen: set[tuple] = set()
    for _ in range(RANDOM_MONOID_ATTEMPTS):
        if len(found) >= count:
            break
        k = int(rng.integers(2, 5))
        gens = [tuple(rng.integers(0, k, size=k).tolist()) for _ in range(int(rng.integers(1, 3)))]
        try:
            size = len(closure_maps(gens, k, max(wanted, default=0)))
        except CapacityError:
            continue
        if size not in wanted:
            continue
        m = submonoid_closure(gens, k)   # the table only for a closure of a wanted size
        key = _canonical_key(m)
        if key in seen:
            continue
        seen.add(key)
        found.append(m)
    if len(found) < count:
        raise CapacityError(
            f"found only {len(found)} of {count} random monoids within budget")
    return found
