"""Reference oracles for the monoid layer: the pure-Python bodies that
``monoid.py`` replaced with gathers from the multiplication array.

Each oracle reads the multiplication table as nested Python sequences and
loops over elements (or pairs of maps) one at a time, as the library did
before it kept the table as one array.  ``verify_associativity`` is the
whole-cube broadcast that the row-by-row check replaced.
"""

import numpy as np


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
