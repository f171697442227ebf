"""Deterministic corpora: small monoids up to isomorphism and random valid
monoid tables found as closures inside map monoids.  Everything is seeded,
so repeated runs agree byte for byte.

Small monoids are handled as arrays.  The isomorphism key of a table is its
lexicographically least relabelling among those that fix the identity: the
relabellings of a stack of tables are one gather, and one ``argmin`` over the
relabelled rows, read as byte strings, picks each table's least.  The
exhaustive corpus decides associativity for a stack of candidate tables at
once, ``t[t[a, b], c] == t[a, t[b, c]]`` as one gather comparison, and keys
only the associative ones.  The random corpus builds a table and a key only
for a closure of a wanted size whose maps it has not closed before.  Stacks
are cut into chunks of about ENTRY_CHUNK gathered entries, so memory does not
grow with the number of candidates or relabellings.
"""

from __future__ import annotations

import itertools
from typing import Iterable

import numpy as np

from .errors import CapacityError
from .monoid import FiniteMonoid, closure_maps, submonoid_closure

RANDOM_MONOID_ATTEMPTS = 20000
ENTRY_CHUNK = 1 << 19   # gathered entries per chunk of a stack


def all_monoids_upto_iso(size: int) -> list[FiniteMonoid]:
    """All monoids of the exact size, one per isomorphism class, by brute
    force over tables with the identity fixed at index 0, in the order of
    ``itertools.product`` over the non-identity cells, row by row.
    Practical for size <= 4."""
    if size < 1:
        raise CapacityError("size must be positive")
    if size > 4:
        raise CapacityError("exhaustive enumeration is capped at size 4")
    n, w = size, size - 1
    inner = np.arange(1, n)
    place = n ** np.arange(w * w - 1, -1, -1)   # candidate i's digits fill the cells
    seen, out = set(), []
    total, per = n ** (w * w), max(1, ENTRY_CHUNK // max(1, w ** 3))
    for start in range(0, total, per):
        index = np.arange(start, min(start + per, total))
        tables = np.empty((len(index), n, n), dtype=np.intp)
        tables[:, 0], tables[:, :, 0] = np.arange(n), np.arange(n)
        tables[:, 1:, 1:] = (index[:, None] // place % n).reshape(len(index), w, w)
        # (ab)c == a(bc) for a, b, c off the identity, as gathers from the flat stack
        flat = tables.reshape(-1)
        base = (np.arange(len(index)) * n * n)[:, None, None, None]
        left = flat[base + tables[:, 1:, 1:, None] * n + inner]
        right = flat[base + inner[:, None, None] * n + tables[:, None, 1:, 1:]]
        assoc = (left == right).reshape(len(index), -1).all(axis=1)
        for least in _least_relabellings(tables[assoc], 0):
            key = least.tobytes()
            if key not in seen:
                seen.add(key)
                out.append(FiniteMonoid(least.reshape(n, n)))
    return out


def small_monoids(max_size: int = 3) -> list[FiniteMonoid]:
    """All monoids of size <= max_size up to isomorphism."""
    out = []
    for n in range(1, max_size + 1):
        out.extend(all_monoids_upto_iso(n))
    return out


def _canonical_key(m: FiniteMonoid) -> tuple:
    """``(size, rows)``: the least relabelled table that fixes the identity, as row tuples."""
    least = _least_relabellings(m.mul[None], m.identity)[0].reshape(m.size, m.size)
    return (m.size, tuple(map(tuple, least.tolist())))


def _least_relabellings(tables: np.ndarray, identity: int) -> np.ndarray:
    """For a stack ``(A, n, n)`` of tables with the same identity, each one's
    lexicographically least relabelling that keeps the identity first, as
    ``(A, n*n)`` rows.  Relabelling by ``order`` (new element i is old
    ``order[i]``) makes entry ``(i, j)`` the new label of
    ``t[order[i], order[j]]``."""
    count, n = tables.shape[:2]
    flat = tables.reshape(count, n * n)
    word = np.dtype(np.min_scalar_type(n - 1)).newbyteorder(">")   # bytes in numeric order
    per = max(1, ENTRY_CHUNK // max(1, count * n * n))
    least, others = None, itertools.permutations([a for a in range(n) if a != identity])
    while perms := list(itertools.islice(others, per)):
        order = np.empty((len(perms), n), dtype=np.intp)
        order[:, 0] = identity
        order[:, 1:] = np.fromiter(itertools.chain.from_iterable(perms), np.intp,
                                   len(perms) * (n - 1)).reshape(len(perms), n - 1)
        label = np.empty(order.shape, dtype=word)
        label[np.arange(len(order))[:, None], order] = np.arange(n)
        cells = (order[:, :, None] * n + order[:, None, :]).reshape(len(order), n * n)
        rows = label.reshape(-1)[flat[:, cells] + (np.arange(len(order)) * n)[:, None]]
        # the least of the earlier chunks competes too
        rows = np.ascontiguousarray(rows if least is None else np.concatenate((least[:, None], rows), 1))
        # as fixed-width byte strings, the rows compare as their big-endian words do
        least = rows[np.arange(count), rows.view(f"S{n * n * word.itemsize}")[..., 0].argmin(axis=1)]
    return least


def random_monoids(seed: int, count: int, sizes: Iterable[int] = (4, 5)) -> list[FiniteMonoid]:
    """Random valid monoid tables of the requested sizes, found by closing
    random generators inside map monoids and keeping closures whose size
    fits.  Results are deduplicated up to isomorphism; a closure whose maps
    were closed before would give the same table and key, so it is skipped."""
    rng = np.random.default_rng(seed)
    wanted = set(int(s) for s in sizes)
    found: list[FiniteMonoid] = []
    seen: set[tuple] = set()
    closed: set[tuple] = set()
    for _ in range(RANDOM_MONOID_ATTEMPTS):
        if len(found) >= count:
            break
        k = int(rng.integers(2, 5))
        gens = [tuple(rng.integers(0, k, size=k).tolist()) for _ in range(int(rng.integers(1, 3)))]
        try:
            maps = tuple(closure_maps(gens, k, max(wanted, default=0)))
        except CapacityError:
            continue
        if len(maps) not in wanted or maps in closed:
            continue
        closed.add(maps)
        m = submonoid_closure(gens, k)   # the table only for new maps of a wanted size
        key = _canonical_key(m)
        if key in seen:
            continue
        seen.add(key)
        found.append(m)
    if len(found) < count:
        raise CapacityError(
            f"found only {len(found)} of {count} random monoids within budget")
    return found
