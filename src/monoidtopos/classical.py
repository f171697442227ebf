"""Coarse-grained truth over a finite value set X, classical and quantum.

The coarse-graining monoid is the full map monoid on X; a map f acts on a
proposition (A, Δ) by (f(A), f(Δ)), so the proposition M-set is the
product of a subject M-set and a range M-set.  The generalized valuation
at a state is the characteristic arrow of the invariant set of
propositions true at that state.  The functions here build that
construction once for every kind of system; a kind differs only in the
test "A ∈ Δ holds".  Classical quantities map a finite state set into X
and are held as tuples of value *indices*, one per state, so that
post-composition is exact; ``quantum.py`` supplies the quantum kind.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator, Sequence

from .errors import MissingNameError, UsageError, ValidationError
from .monoid import FiniteMonoid, LeftIdeal, map_monoid, map_monoid_values
from .mset import MSet, product_mset, truth_in_invariant

Quantity = tuple[int, ...]


class ValueSetSystem:
    """A finite value set with its map monoid.

    Each kind of system supplies the hooks that the shared functions call:
    ``subject(ref)`` validates the subject A of a proposition;
    ``resolve_state(state)`` validates a state once, in the form ``holds`` takes;
    ``subjects()`` lists every subject, in the point order of the proposition M-set;
    ``relabel(f, subject)`` is f(A) for a map f on value indices;
    ``holds(state, subject, gamma)`` is the test "A ∈ Γ holds at the state".
    """

    def __init__(self, values: Sequence[float]):
        self.values = tuple(float(v) for v in values)
        if len(set(self.values)) != len(self.values):
            raise ValidationError("value set entries must be distinct")
        if not all(math.isfinite(v) for v in self.values):
            raise ValidationError("value set entries must be finite")
        self._vindex = {v: i for i, v in enumerate(self.values)}
        self._monoid: FiniteMonoid | None = None

    @property
    def monoid(self) -> FiniteMonoid:
        """The map monoid on the value set (built on first use)."""
        if self._monoid is None:
            self._monoid = map_monoid(len(self.values))
        return self._monoid

    @property
    def maps(self) -> list[tuple[int, ...]]:
        return map_monoid_values(len(self.values))

    def range_indices(self, delta: Iterable[float]) -> frozenset[int]:
        out = set()
        for v in delta:
            v = float(v)
            if v not in self._vindex:
                raise UsageError(f"range value {v!r} is not in the value set")
            out.add(self._vindex[v])
        return frozenset(out)


class ClassicalSystem(ValueSetSystem):
    """Finite state set, finite value set, and named quantities."""

    def __init__(self, states: Sequence[str], values: Sequence[float],
                 quantities: dict[str, Sequence[float]]):
        self.states = tuple(str(s) for s in states)
        if len(set(self.states)) != len(self.states):
            raise ValidationError("state names must be distinct")
        super().__init__(values)
        self.quantities: dict[str, Quantity] = {}
        for name, vals in quantities.items():
            if len(vals) != len(self.states):
                raise ValidationError(f"quantity {name!r} must assign one value per state")
            try:
                self.quantities[str(name)] = tuple(self._vindex[float(v)] for v in vals)
            except KeyError as exc:
                raise ValidationError(
                    f"quantity {name!r} takes value {exc.args[0]!r} outside the value set")

    def resolve_state(self, state: str) -> int:
        try:
            return self.states.index(state)
        except ValueError:
            raise MissingNameError(f"unknown state {state!r}") from None

    def subject(self, name_or_tuple: str | Quantity) -> Quantity:
        if isinstance(name_or_tuple, str):
            try:
                return self.quantities[name_or_tuple]
            except KeyError:
                raise MissingNameError(f"unknown quantity {name_or_tuple!r}") from None
        q = tuple(int(i) for i in name_or_tuple)
        if len(q) != len(self.states) or any(not 0 <= i < len(self.values) for i in q):
            raise UsageError("quantity tuple does not fit this system")
        return q

    def subjects(self) -> Iterator[Quantity]:
        return itertools.product(range(len(self.values)), repeat=len(self.states))

    @staticmethod
    def relabel(f: tuple[int, ...], q: Quantity) -> Quantity:
        return tuple(f[i] for i in q)

    @staticmethod
    def holds(s: int, q: Quantity, gamma: frozenset[int]) -> bool:
        return q[s] in gamma


def membership(system: ValueSetSystem, state, subject, delta) -> bool:
    """Plain either-or truth: does the subject take a value in the range
    at the state?  The membership of (subject, range) in the truth set."""
    return system.holds(system.resolve_state(state), system.subject(subject),
                        system.range_indices(delta))


def valuation(system: ValueSetSystem, state, subject, delta) -> LeftIdeal:
    """The maps f for which (f(subject), f(range)) holds at the state; a
    left ideal of the map monoid, and the full monoid exactly when the
    either-or truth holds."""
    resolved = system.resolve_state(state)
    subject = system.subject(subject)
    dset = system.range_indices(delta)
    relabel, holds = system.relabel, system.holds
    members = [i for i, f in enumerate(system.maps)
               if holds(resolved, relabel(f, subject), frozenset(f[d] for d in dset))]
    return system.monoid.ideal(members)


def proposition_mset(system: ValueSetSystem) -> MSet:
    """The map monoid acting on all (subject, range) pairs: the product of
    the subjects, acted on by relabelling, and the ranges, by image."""
    maps = system.maps
    nv = len(system.values)
    subjects = MSet(system.monoid, system.subjects(), lambda m, a: system.relabel(maps[m], a))
    ranges = MSet(system.monoid,
                  [frozenset(i for i in range(nv) if mask >> i & 1) for mask in range(1 << nv)],
                  lambda m, g: frozenset(maps[m][i] for i in g))
    return product_mset(subjects, ranges)


def truth_set(system: ValueSetSystem, state, mset: MSet | None = None) -> frozenset:
    """The invariant subset of proposition pairs true at the state."""
    m = mset if mset is not None else proposition_mset(system)
    resolved = system.resolve_state(state)
    holds = system.holds
    return frozenset(p for p in m.points if holds(resolved, p[0], p[1]))


def valuation_via_arrow(system: ValueSetSystem, state, subject, delta,
                        mset: MSet | None = None) -> LeftIdeal:
    """The characteristic-arrow route to the generalized valuation: the
    truth value of the pair (subject, range) in the invariant truth set.
    Must agree with ``valuation`` exactly."""
    m = mset if mset is not None else proposition_mset(system)
    subset = truth_set(system, state, m)
    point = (system.subject(subject), system.range_indices(delta))
    return truth_in_invariant(m, point, subset)


# The paper's names for the classical case.
classical_truth = E_s_membership = membership
generalized_classical_valuation = valuation
E_s_subset = truth_set
E_s_valuation = valuation_via_arrow
