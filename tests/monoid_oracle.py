"""Reference oracles for the monoid layer: the pure-Python bodies that
``monoid.py`` replaced with gathers from the multiplication array.

Each oracle reads the multiplication table as nested Python sequences and
loops over elements (or pairs of maps) one at a time, as the library did
before it kept the table as one array.  ``verify_associativity`` is the
whole-cube broadcast that the row-by-row check replaced, and
``union_closure`` the search for every union of the principal ideals (or of
an M-set's orbits) that the down-set enumeration replaced.  ``canonical_key``
and ``all_monoids_upto_iso`` are the corpus's isomorphism key, one
relabelling at a time, and its exhaustive search, one candidate table at a
time, that the stacked gathers of ``corpus.py`` replaced.
"""

import itertools

import numpy as np

from monoidtopos.errors import CapacityError
from monoidtopos.monoid import IDEAL_COUNT_CAP, FiniteMonoid


def composition_monoid(maps):
    """Table, identity index and names of the sorted self-maps ``maps`` of
    {0..k-1} (the identity among them) under composition."""
    k = len(maps[0])
    index = {f: i for i, f in enumerate(maps)}
    table = [[index[tuple(f[g[x]] for x in range(k))] for g in maps] for f in maps]
    names = ["f" + "".join(str(v) for v in f) for f in maps]
    return table, index[tuple(range(k))], names


def composition_table_by_codes(maps):
    """The composition table as one ``searchsorted`` of every base-k code
    of f∘g into the sorted codes of the maps: the whole-array construction
    (an int64 temporary of |M|² entries) that the row blocks replaced."""
    k = len(maps[0])
    values = np.array(maps, dtype=np.uint8)
    codes = np.zeros((len(maps),) * 2, dtype=object if k > 16 else np.uint64)
    for x in range(k):
        codes = codes * k + values.take(values[:, x], axis=1)
    return codes[:, maps.index(tuple(range(k)))].searchsorted(codes)


def reach_masks(table):
    """For each element x, the bitmask of {m*x | m in M}."""
    return tuple(sum(1 << p for p in set(column)) for column in zip(*table))


def ideal_action(table, m, mask):
    """The mask of the m' with ``m'*m`` in the ideal given by its mask."""
    return sum(1 << mp for mp in range(len(table)) if mask >> table[mp][m] & 1)


def verify_associativity(table):
    """``(ab)c == a(bc)`` over all triples, as two ``(n, n, n)`` arrays."""
    t = np.asarray(table, dtype=np.intp)
    return bool(np.array_equal(t[t, :], t[:, t]))


def union_closure(masks, what):
    """Every union of the given bitmasks, the empty union 0 included, in no
    particular order.  Past IDEAL_COUNT_CAP unions it raises CapacityError,
    naming ``what`` is being closed."""
    generators = sorted(set(masks))
    found = {0}
    frontier = list(generators)
    while frontier:
        mask = frontier.pop()
        if mask in found:
            continue
        found.add(mask)
        if len(found) > IDEAL_COUNT_CAP:
            raise CapacityError(f"{what} exceeds configured cap")
        frontier.extend(mask | g for g in generators if mask | g not in found)
    return list(found)


def left_ideals(table):
    """The unions of the sets {m*x}, sorted by (size, mask), or None when
    one of those sets is not closed under left multiplication, which needs a
    table that is not associative."""
    reach = reach_masks(table)
    if any(reach[i] & ~mask for mask in reach for i in range(len(table)) if mask >> i & 1):
        return None
    return sorted(union_closure(reach, "ideal lattice"), key=lambda k: (k.bit_count(), k))


def canonical_key(m):
    """``(size, rows)``: the least relabelled table over the relabellings
    that fix the identity, tried one permutation at a time."""
    table, best = m.table, None
    for p in itertools.permutations([a for a in range(m.size) if a != m.identity]):
        order = (m.identity, *p)   # the relabelled monoid's element i is order[i]
        label = {a: i for i, a in enumerate(order)}
        key = tuple(tuple(label[table[a][b]] for b in order) for a in order)
        if best is None or key < best:
            best = key
    return (m.size, best)


def all_monoids_upto_iso(size):
    """One monoid per isomorphism class of the given size, the first of each
    class in ``itertools.product`` order over the tables with identity 0."""
    seen, out, w = set(), [], size - 1
    for choice in itertools.product(range(size), repeat=w * w):
        # row and column 0 are the identity's; the choice fills the rest row by row
        table = [tuple(range(size))] + [(i, *choice[(i - 1) * w:i * w]) for i in range(1, size)]
        if not verify_associativity(table):
            continue
        key = canonical_key(FiniteMonoid(table))
        if key not in seen:
            seen.add(key)
            out.append(FiniteMonoid(key[1]))
    return out
