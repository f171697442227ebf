"""Coarse-grained truth over a finite value set X, classical and quantum.

The coarse-graining monoid is the full map monoid on X, held as its value
array ``maps[m, v]``.  A map f acts on a proposition (A, Δ) by (f∘A, f(Δ)),
relabelling A's value labels one by one and Δ by image: the proposition
M-set is a product of two M-sets whose tables are gathers on that array.
The generalized valuation at a state is the characteristic arrow of the
invariant set of propositions true at that state.  A kind of system
supplies its subjects and the test "A ∈ Δ holds", which depends only on
which labels of A lie in Δ.  Classical quantities map a finite state set
into X as tuples of value *indices*; ``quantum.py`` is the quantum kind.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import MissingNameError, UsageError, ValidationError
from .monoid import FiniteMonoid, LeftIdeal, map_monoid, row_masks
from .mset import MSet, check_action_budget, product_mset, truth_in_invariant

Quantity = tuple[int, ...]


class ValueSetSystem:
    """A finite value set with its map monoid.

    Each kind of system supplies the hooks that the shared functions call:
    ``blocks`` maps a key to each block (arity, subject) of subjects, in
    point order: ``subject(t)`` for the label tuples t of that arity in turn;
    ``subject(ref)`` validates the subject A of a proposition as (key, labels);
    ``resolve_state(state)`` validates a state once, in the form ``holds`` takes;
    ``holds(state, key, pattern)`` is the test "A ∈ Γ holds at the state" for
    a subject of the block whose labels inside Γ are the set bits of pattern.
    """

    def __init__(self, values: Sequence[float]):
        self.values = tuple(float(v) for v in values)
        if len(set(self.values)) != len(self.values):
            raise ValidationError("value set entries must be distinct")
        if not all(math.isfinite(v) for v in self.values):
            raise ValidationError("value set entries must be finite")
        self._vindex = {v: i for i, v in enumerate(self.values)}

    @cached_property
    def monoid(self) -> FiniteMonoid:
        """The map monoid on the value set (built on first use)."""
        return map_monoid(len(self.values))

    @cached_property
    def maps(self) -> np.ndarray:
        """``maps[m, v]`` is element m applied to value index v, one row per element."""
        nv, _ = len(self.values), self.monoid   # the monoid's size cap comes first
        return np.indices((nv,) * nv, np.uint8).reshape(nv, -1).T

    def range_indices(self, delta: Iterable[float]) -> frozenset[int]:
        try:
            return frozenset(self._vindex[float(v)] for v in delta)
        except KeyError as exc:
            raise UsageError(f"range value {exc.args[0]!r} is not in the value set") from None


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
        # one block: a quantity is its own tuple of labels, one per state
        self.blocks = {None: (len(self.states), tuple)}

    def resolve_state(self, state: str) -> int:
        try:
            return self.states.index(state)
        except ValueError:
            raise MissingNameError(f"unknown state {state!r}") from None

    def subject(self, name_or_tuple: str | Quantity) -> tuple[None, Quantity]:
        if isinstance(name_or_tuple, str):
            try:
                return None, self.quantities[name_or_tuple]
            except KeyError:
                raise MissingNameError(f"unknown quantity {name_or_tuple!r}") from None
        q = tuple(int(i) for i in name_or_tuple)
        if len(q) != len(self.states) or any(not 0 <= i < len(self.values) for i in q):
            raise UsageError("quantity tuple does not fit this system")
        return None, q

    @staticmethod
    def holds(s: int, key: None, pattern: int) -> bool:
        return bool(pattern >> s & 1)


def _holds_each(system: ValueSetSystem, state, key, inside: np.ndarray) -> list[bool]:
    """``holds`` at each row of ``inside`` (column j: label j is in the range), once per pattern."""
    width = inside.shape[1]   # past 62 labels a pattern is a Python int
    patterns = (inside @ np.array([1 << j for j in range(width)],
                                  np.int64 if width < 63 else object)).tolist()
    answers = {p: system.holds(state, key, p) for p in set(patterns)}
    return [answers[p] for p in patterns]


def membership(system: ValueSetSystem, state, subject, delta) -> bool:
    """Plain either-or truth: does the subject take a value in the range
    at the state?  The membership of (subject, range) in the truth set."""
    resolved, (key, labels) = system.resolve_state(state), system.subject(subject)
    dset = system.range_indices(delta)
    return system.holds(resolved, key, sum(1 << j for j, v in enumerate(labels) if v in dset))


def valuation(system: ValueSetSystem, state, subject, delta) -> LeftIdeal:
    """The maps f for which (f∘subject, f(range)) holds at the state; a
    left ideal of the map monoid, and the full monoid exactly when the
    either-or truth holds."""
    resolved, (key, labels) = system.resolve_state(state), system.subject(subject)
    dset = system.range_indices(delta)
    maps = system.maps
    # row m: map m sends label j into its image of the range
    inside = (maps[:, list(labels), None] == maps[:, None, sorted(dset)]).any(axis=2)
    members = _holds_each(system, resolved, key, inside)
    return LeftIdeal(system.monoid, row_masks(np.array([members]))[0])


def proposition_mset(system: ValueSetSystem) -> MSet:
    """The map monoid acting on all (subject, range) pairs: the product of
    the subjects, acted on by relabelling, and the ranges, by image."""
    monoid, nv, blocks = system.monoid, len(system.values), system.blocks.values()
    # the product is no smaller than a factor unless it is empty
    check_action_budget(monoid, sum(nv ** arity for arity, _ in blocks) << nv)
    maps, subjects, tables = system.maps, [], [np.zeros((monoid.size, 0), np.intp)]
    for arity, subject in blocks:
        labels = np.array(list(itertools.product(range(nv), repeat=arity)), np.intp)
        # row m: the lexicographic index of f_m∘t for each label tuple t, past earlier blocks
        tables.append(maps[:, labels] @ nv ** np.arange(arity)[::-1] + len(subjects))
        subjects += map(subject, map(tuple, labels.tolist()))
    # range g goes to the mask with bit f_m(v) for each value v in g
    bits = np.arange(1 << nv) >> np.arange(nv)[:, None] & 1   # [v, g]: v lies in g
    images = np.bitwise_or.reduce(bits << maps[:, :, None], axis=1)
    ranges = [frozenset(i for i in range(nv) if mask >> i & 1) for mask in range(1 << nv)]
    return product_mset(MSet(monoid, subjects, np.concatenate(tables, axis=1)),
                        MSet(monoid, ranges, images))


def truth_set(system: ValueSetSystem, state, mset: MSet | None = None) -> frozenset:
    """The invariant subset of proposition pairs true at the state; a given
    ``mset`` must be the system's proposition M-set (its monoid, its size)."""
    m = mset if mset is not None else proposition_mset(system)
    resolved, nv = system.resolve_state(state), len(system.values)
    if m.monoid is not system.monoid or len(m.points) != sum(
            nv ** arity for arity, _ in system.blocks.values()) << nv:
        raise UsageError("M-set is not this system's proposition M-set")
    bits = np.arange(1 << nv) >> np.arange(nv)[:, None] & 1   # [v, g]: v lies in g
    true = []
    for key, (arity, _) in system.blocks.items():
        labels = np.array(list(itertools.product(range(nv), repeat=arity)), np.intp)
        # row (t, g): which labels of the tuple t lie in the range g
        inside = bits[labels].transpose(0, 2, 1).reshape(len(labels) << nv, arity)
        true += _holds_each(system, resolved, key, inside)
    return frozenset(p for p, t in zip(m.points, true) if t)


def valuation_via_arrow(system: ValueSetSystem, state, subject, delta,
                        mset: MSet | None = None) -> LeftIdeal:
    """The characteristic-arrow route to the generalized valuation: the
    truth value of the pair (subject, range) in the invariant truth set.
    Must agree with ``valuation`` exactly."""
    m = mset if mset is not None else proposition_mset(system)
    subset = truth_set(system, state, m)
    key, labels = system.subject(subject)
    point = (system.blocks[key][1](labels), system.range_indices(delta))
    return truth_in_invariant(m, point, subset)


# The paper's names for the classical case.
classical_truth = E_s_membership = membership
generalized_classical_valuation = valuation
E_s_subset = truth_set
E_s_valuation = valuation_via_arrow
