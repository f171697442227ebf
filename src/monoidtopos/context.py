"""Polar operations between rays and strings, the reducibility presheaf,
and sieve-valued contextual truth.

Polars are computed relative to explicit finite universes: a StringUniverse
(all strings up to a length bound whose reduction is non-null) and a RaySet
of candidate rays.  All Galois identities hold exactly for the restricted
relation "the string does not annihilate the ray".  The universe is a view
of its alphabet's canonical words (no letter next to itself), whose
"non-null" is decided once per alphabet: it keeps each member's row, so
strings sharing a word share every answer.  A RaySet is one (n, d) matrix
of unit, phase-canonical representatives (duplicates found in one Gram
matrix); a subset records its root set and rows there, and shares the
root's ``Ray`` objects, made when asked for.  The universe decides the
relation once per canonical row and root set and keeps it at the members'
rows; each polar and closure gathers that at row and column indices and
reduces it with ``all``.  Relatives are compared by rows, other ray sets
by one matrix of normalised overlaps.

The contextual valuations are the two predicates of ``reduction``
(``in_reduced_eigenspace`` and ``rays_agree``) on the universe's canonical
rows, read by the members in the polar of a context ray set, and on the
alphabet's ``tails`` of one context string.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (ContextError, PreconditionError, StructureError, UsageError,
                     ValidationError)
from .linalg import (DEFAULT_TOL, HermitianOperator, Ray, TolerancePolicy, as_vector,
                     operator_norm, unit_rows)
from .reduction import ProjectorAlphabet, in_reduced_eigenspace, rays_agree, unit_state
from .strings import Letters


def _same_rays(left: np.ndarray, right: np.ndarray, tol: TolerancePolicy) -> np.ndarray:
    """Entry [i, j] is True iff rows left[i] and right[j] span the same ray:
    their normalised overlap |<a, b>| / (|a| |b|) is at least 1 - eps, as in
    ray_equal.  The norms are summed down columns of the transposes, one
    addition at a time, whatever the number of rows."""
    if not len(left) or not len(right):
        return np.zeros((len(left), len(right)), dtype=bool)
    if left.shape[1] != right.shape[1]:
        raise StructureError(f"expected a vector of dimension {left.shape[1]}")
    norms = np.outer(*(np.linalg.norm(np.ascontiguousarray(m.T), axis=0) for m in (left, right)))
    return np.abs(left.conj() @ right.T) / norms >= 1.0 - tol.eps


def _require_distinct(units: np.ndarray, tol: TolerancePolicy):
    """Reject a duplicate among the rays of the rows, by their one Gram matrix."""
    if np.triu(_same_rays(units, units, tol), 1).any():
        raise ValidationError("ray set contains a duplicate ray")


class RaySet:
    """An ordered finite set of rays (duplicates up to phase rejected), kept
    as the (n, d) matrix ``units`` of their representatives.  A subset records
    its root (the set that is no one's subset) and its rows there."""

    def __init__(self, vectors: Sequence, tol: TolerancePolicy = DEFAULT_TOL):
        items = list(vectors)
        given = np.array([isinstance(v, Ray) for v in items], dtype=bool)
        try:
            a = np.array([v.representative if r else v for v, r in zip(items, given)],
                         dtype=complex).reshape(len(items), -1 if items else 0)
            valid = bool(np.isfinite(a.view(float)).all())
        except (TypeError, ValueError):
            valid = False
        if not valid:   # entries of mixed shapes or not finite: one ray at a time, as Ray names it
            items = [v if isinstance(v, Ray) else Ray(v, tol) for v in items]
            if any(r.dim != items[0].dim for r in items):
                raise StructureError(f"expected a vector of dimension {items[0].dim}")
            a, given = np.array([r.representative for r in items]), np.ones(len(items), bool)
        units = a if given.all() else np.where(given[:, None], a, unit_rows(a, tol))
        _require_distinct(units, tol)
        self.units, self.tol, self._root, self._index = units, tol, None, None
        self._rays = tuple(items) if given.all() else None

    @classmethod
    def of_units(cls, units: np.ndarray, tol: TolerancePolicy = DEFAULT_TOL) -> "RaySet":
        """The ray set on rows made by ``unit_rows``; a duplicate is rejected."""
        _require_distinct(units, tol)
        return cls._rows(units, tol)

    @classmethod
    def _rows(cls, units: np.ndarray, tol: TolerancePolicy, root: Optional["RaySet"] = None,
              index: Optional[np.ndarray] = None) -> "RaySet":
        """A ray set on representatives already known to be distinct rays."""
        out = cls.__new__(cls)
        out.units, out.tol, out._rays, out._root, out._index = units, tol, None, root, index
        return out

    def lineage(self) -> tuple["RaySet", np.ndarray]:
        """The root set and this set's rows in it."""
        return (self, np.arange(len(self))) if self._root is None else (self._root, self._index)

    @property
    def rays(self) -> tuple[Ray, ...]:
        if self._rays is None:
            self._rays = (tuple(map(self._root.rays.__getitem__, self._index.tolist()))
                          if self._root is not None else
                          tuple(map(Ray.of_unit, self.units)))
        return self._rays

    @property
    def dim(self) -> int:
        return self.units.shape[1] if len(self.units) else 0

    def __len__(self):
        return len(self.units)

    def __iter__(self):
        return iter(self.rays)

    def index_of(self, vector_or_ray) -> int:
        ray = vector_or_ray if isinstance(vector_or_ray, Ray) else Ray(vector_or_ray, self.tol)
        hits = np.flatnonzero(_same_rays(self.units, ray.representative[None], self.tol)[:, 0])
        if not hits.size:
            raise UsageError("ray is not in the set")
        return int(hits[0])

    def contains(self, vector_or_ray) -> bool:
        try:
            self.index_of(vector_or_ray)
            return True
        except UsageError:
            return False

    def subset(self, indices: Iterable[int]) -> "RaySet":
        picked = np.array(sorted(set(indices)), dtype=np.intp)
        root, rows = self.lineage()
        return RaySet._rows(self.units[picked], self.tol, root, rows[picked])

    def is_subset_of(self, other: "RaySet") -> bool:
        """Between relatives (one root and tolerance) an inclusion of rows, else by overlaps."""
        (root, rows), (other_root, other_rows) = self.lineage(), other.lineage()
        if root is other_root and self.tol == other.tol:
            return set(rows.tolist()).issubset(other_rows.tolist())
        return bool(_same_rays(other.units, self.units, other.tol).any(axis=0).all())


def in_sp0(alphabet: ProjectorAlphabet, letters: Sequence[str]) -> bool:
    """True iff the string's reduction is non-null (largest singular value
    above the null threshold)."""
    q = alphabet.monoid.check_string(letters)
    return operator_norm(alphabet.reduce(q)) > alphabet.tol.null_threshold


class StringUniverse:
    """All strings up to a length bound with non-null reduction.

    ``canons`` and ``stack`` are the alphabet's levels to the bound; a string
    is a member when its row is alive, and ``rows`` holds the members' rows
    of ``stack`` in enumeration order.  ``members`` decodes the strings
    once, on first read, in the same order."""

    def __init__(self, alphabet: ProjectorAlphabet, max_len: int):
        self.alphabet = alphabet
        self.max_len = int(max_len)
        self.canons, self.stack, _ = alphabet.levels(self.max_len)
        self.rows = np.concatenate([c[alphabet.alive[c]] for c in self.canons])
        # the relation's matrix by root ray set (see _incidence), dropped with the set
        self.incidence = weakref.WeakKeyDictionary()

    @cached_property
    def members(self) -> tuple[Letters, ...]:
        return self.alphabet.monoid.decode(self.canons, self.alphabet.alive)

    @cached_property
    def _positions(self) -> dict[Letters, int]:
        return dict(zip(self.members, range(len(self.members))))

    @property
    def tol(self) -> TolerancePolicy:
        return self.alphabet.tol

    def __len__(self):
        return len(self.rows)

    def __contains__(self, q) -> bool:
        return tuple(q) in self._positions

    def check_subset(self, strings: Iterable[Letters]) -> np.ndarray:
        """The strings' indices among the members."""
        try:
            return np.array([self._positions[tuple(q)] for q in strings], dtype=int)
        except KeyError as exc:
            raise UsageError(f"string {exc.args[0]!r} is outside the universe") from None


def _non_annihilation(universe: StringUniverse, rays: RaySet) -> np.ndarray:
    """The relation of the Galois connection as a boolean matrix: entry
    [c, j] is True iff row c of the universe's stack does not annihilate
    rays[j], i.e. sends the ray's representative above the null threshold."""
    d, stack = universe.alphabet.dim, universe.stack
    if len(rays) and rays.dim != d:
        raise ContextError(f"ray set has dimension {rays.dim}, "
                           f"but the universe's strings act on dimension {d}")
    images = (stack.reshape(-1, d) @ rays.units.reshape(-1, d).T).reshape(len(stack), d, len(rays))
    return np.linalg.norm(images, axis=1) > universe.tol.null_threshold


def _incidence(universe: StringUniverse, rays: RaySet) -> np.ndarray:
    """The relation at the members and the set's columns, of the universe's
    matrix for its root (if any), gathered at the members' rows once."""
    root, cols = rays.lineage()
    if not len(cols):
        return np.ones((len(universe), 0), dtype=bool)
    if (inc := universe.incidence.get(root)) is None:
        inc = universe.incidence[root] = _non_annihilation(universe, root)[universe.rows]
    return inc[:, cols]


def _polar_members(xi: RaySet, universe: StringUniverse) -> np.ndarray:
    """The indices of the members annihilating no ray of the set."""
    return _incidence(universe, xi).all(axis=1).nonzero()[0]


def _polar_of_members(universe: StringUniverse, members: np.ndarray, candidates: RaySet) -> RaySet:
    """The candidates annihilated by no member at the given indices."""
    keep = _incidence(universe, candidates)[members].all(axis=0)
    return candidates.subset(keep.nonzero()[0].tolist())


def polar_of_rays(xi: RaySet, universe: StringUniverse) -> tuple[Letters, ...]:
    """Strings of the universe annihilating no ray of the set (the arrows
    out of the set, relative to the universe)."""
    return tuple(universe.members[i] for i in _polar_members(xi, universe))


def polar_of_strings(universe: StringUniverse, strings: Iterable[Letters],
                     candidates: RaySet) -> RaySet:
    """Rays of the candidate set annihilated by no string of the given
    subset of the universe."""
    return _polar_of_members(universe, universe.check_subset(strings), candidates)


def closure_rays(xi: RaySet, universe: StringUniverse, candidates: RaySet) -> RaySet:
    """Double polar of a ray set relative to the two universes."""
    if not xi.is_subset_of(candidates):
        raise UsageError("ray set must lie inside the candidate universe")
    return _polar_of_members(universe, _polar_members(xi, universe), candidates)


def is_full(xi: RaySet, universe: StringUniverse, candidates: RaySet) -> bool:
    """A ray set is full when it equals its double polar."""
    closed = closure_rays(xi, universe, candidates)
    return len(closed) == len(xi) and xi.is_subset_of(closed)


def _subject(states: Sequence) -> str:
    return "both states" if len(states) == 2 else "the state"


def _context_members(xi: RaySet, universe: StringUniverse,
                     *states) -> tuple[np.ndarray, list[np.ndarray]]:
    """The indices of the members in the polar of the context and the unit
    representatives of the states, which must lie in the context ray set."""
    rays = [Ray(as_vector(s, universe.alphabet.dim), xi.tol) for s in states]
    if not all(xi.contains(r) for r in rays):
        raise ContextError(f"{_subject(states)} must lie in the context ray set")
    return _polar_members(xi, universe), [r.representative for r in rays]


def context_truth_equal(psi, phi, xi: RaySet, universe: StringUniverse) -> tuple[Letters, ...]:
    """Strings of the polar of the context merging the two rays; every
    image is non-null by construction of the polar."""
    polar, (v, w) = _context_members(xi, universe, psi, phi)
    keep = rays_agree(universe.stack, v, w, universe.tol)[universe.rows[polar]]
    return tuple(universe.members[i] for i in polar[keep])


def context_valuation(psi, op: HermitianOperator, delta, xi: RaySet,
                      universe: StringUniverse) -> tuple[Letters, ...]:
    """Strings of the polar of the context sending the state into the
    reduced eigenspace of the proposition."""
    polar, (v,) = _context_members(xi, universe, psi)
    target = op.eigenspace(delta, universe.tol)
    keep = in_reduced_eigenspace(universe.stack, v, target, universe.tol)[universe.rows[polar]]
    return tuple(universe.members[i] for i in polar[keep])


# ---------------------------------------------------------------------------
# The category of strings and the reducibility presheaf


@dataclass(frozen=True)
class Arrow:
    """A decomposition source = head * tail; the tail acts first."""

    source: Letters
    head: Letters
    tail: Letters

    def __post_init__(self):
        if self.head + self.tail != self.source:
            raise UsageError("arrow pieces do not recompose the source")


def arrows_out(alphabet: ProjectorAlphabet, letters: Sequence[str]) -> list[Arrow]:
    """The |Q|+1 decompositions of a non-null string, identity split first
    and the full split (empty head) last."""
    q = alphabet.monoid.check_string(letters)
    if not in_sp0(alphabet, q):
        raise PreconditionError("string reduces to the null operator")
    p = len(q)
    return [Arrow(q, q[:p - k], q[p - k:]) for k in range(p + 1)]


def compose_arrows(second: Arrow, first: Arrow) -> Arrow:
    """Composite of head-compatible arrows; tails concatenate."""
    if first.head != second.source:
        raise UsageError("arrows are not composable")
    return Arrow(first.source, second.head, second.tail + first.tail)


def reducible(alphabet: ProjectorAlphabet, letters: Sequence[str], psi) -> bool:
    """Membership in the reducibility presheaf at the string."""
    v = as_vector(psi, alphabet.dim)
    image = alphabet.reduce(alphabet.monoid.check_string(letters)) @ v
    return float(np.linalg.norm(image)) > alphabet.tol.null_threshold


def presheaf_at(alphabet: ProjectorAlphabet, letters: Sequence[str]):
    """The membership predicate of the presheaf at a string."""
    q = alphabet.monoid.check_string(letters)
    return lambda psi: reducible(alphabet, q, psi)


def presheaf_restrict(alphabet: ProjectorAlphabet, arrow: Arrow, psi) -> np.ndarray:
    """Apply the tail of an arrow to a vector reducible at the source; the
    result is reducible at the head."""
    if not reducible(alphabet, arrow.source, psi):
        raise PreconditionError("vector is not reducible at the arrow source")
    v = as_vector(psi, alphabet.dim)
    return alphabet.reduce(arrow.tail) @ v


# ---------------------------------------------------------------------------
# Sieves on string contexts
#
# Upward closure is a theorem for the predicates used below; Sieve surfaces
# any numeric violation instead of silently repairing it.


@dataclass(frozen=True)
class Sieve:
    """An upward-closed set of arrows out of a string context.

    The arrows out of a string form a chain, so a sieve is determined by
    the set of included tail lengths, which must be a final segment of
    {0..len(context)} (possibly empty).
    """

    context: Letters
    included_tail_lengths: frozenset[int]

    def __post_init__(self):
        p = len(self.context)
        ks = frozenset(int(k) for k in self.included_tail_lengths)
        if any(not 0 <= k <= p for k in ks):
            raise ValidationError("tail length out of range")
        if ks and set(range(min(ks), p + 1)) != set(ks):
            raise ValidationError("sieve is not upward closed")
        object.__setattr__(self, "included_tail_lengths", ks)

    @property
    def is_total(self) -> bool:
        return len(self.included_tail_lengths) == len(self.context) + 1

    @property
    def is_empty(self) -> bool:
        return not self.included_tail_lengths

    def tails(self) -> list[Letters]:
        p = len(self.context)
        return [self.context[p - k:] for k in sorted(self.included_tail_lengths)]

    def to_payload(self) -> dict:
        return {
            "context": list(self.context),
            "includedTailLengths": sorted(self.included_tail_lengths),
            "tails": [list(t) for t in self.tails()],
        }


def _tail_reductions(alphabet: ProjectorAlphabet, context: Sequence[str],
                     *states) -> tuple[Letters, np.ndarray, list[np.ndarray]]:
    """The context, the reductions of its tails by length (the alphabet's
    ``tails``, whose last row reduces the whole context), and the unit
    representatives of the states, which must be reducible at the context."""
    q = alphabet.monoid.check_string(context)
    stack = alphabet.tails(q)
    units = [unit_state(alphabet, s) for s in states]
    if any(np.linalg.norm(stack[-1] @ u) <= alphabet.tol.null_threshold for u in units):
        raise ContextError(f"{_subject(states)} must be reducible at the context")
    return q, stack, units


def sieve_truth_equal(alphabet: ProjectorAlphabet, psi, phi,
                      context: Sequence[str]) -> Sieve:
    """The sieve of tails of the context after which the two rays agree;
    defined only when both states are reducible at the context."""
    q, tails, (v, w) = _tail_reductions(alphabet, context, psi, phi)
    return Sieve(q, frozenset(np.flatnonzero(rays_agree(tails, v, w, alphabet.tol)).tolist()))


def sieve_valuation(alphabet: ProjectorAlphabet, psi, op: HermitianOperator,
                    delta, context: Sequence[str]) -> Sieve:
    """The sieve of tails sending the state into the reduced eigenspace of
    the proposition."""
    q, tails, (v,) = _tail_reductions(alphabet, context, psi)
    target = op.eigenspace(delta, alphabet.tol)
    inside = in_reduced_eigenspace(tails, v, target, alphabet.tol)
    return Sieve(q, frozenset(np.flatnonzero(inside).tolist()))
