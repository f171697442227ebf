"""Coarse-grained quantum truth over a finite spectrum-value monoid.

The quantum kind of the value-set construction in ``classical.py``:
operators live in a finite-dimensional Hilbert space with spectra snapped
to a declared finite value set X.  Functions X -> X act on an operator by
relabelling its eigenvalues, so the orbit of a named operator is carried
exactly by (base name, label tuple) pairs, and on ranges by set image.  A
proposition (A, Δ) holds at a state when the spectral projector of A over
Δ fixes the state vector; the proposition M-set, the truth set and both
routes to the valuation are the shared ones of ``classical.py``.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence, Union

import numpy as np

from . import classical
from .errors import MissingNameError, PreconditionError, UsageError, ValidationError
from .linalg import DEFAULT_TOL, HermitianOperator, TolerancePolicy, as_vector, hermitian_eig

# An operator in the orbit of a named base: the base name together with
# one value index per eigenvalue cluster of the base.
LabeledOperator = tuple[str, tuple[int, ...]]


class QuantumSystem(classical.ValueSetSystem):
    """Named Hermitian operators with spectra inside a finite value set."""

    def __init__(self, dim: int, values: Sequence[float],
                 operators: dict[str, np.ndarray] | None = None,
                 tol: TolerancePolicy = DEFAULT_TOL):
        self.dim = int(dim)
        self.tol = tol
        super().__init__(values)
        self.operators: dict[str, HermitianOperator] = {}
        self.labels: dict[str, tuple[int, ...]] = {}
        for name, matrix in (operators or {}).items():
            op = hermitian_eig(matrix, self.tol, snap_to=self.values)
            if op.dim != self.dim:
                raise ValidationError(f"operator {name!r} has wrong dimension")
            self.operators[str(name)] = op
            self.labels[str(name)] = tuple(self._vindex[lam] for lam in op.eigenvalues)

    def operator(self, name: str) -> HermitianOperator:
        try:
            return self.operators[name]
        except KeyError:
            raise MissingNameError(f"unknown operator {name!r}") from None

    def subject(self, ref: Union[str, LabeledOperator]) -> LabeledOperator:
        if isinstance(ref, str):
            self.operator(ref)
            return (ref, self.labels[ref])
        name, labels = ref
        self.operator(name)
        labels = tuple(int(i) for i in labels)
        if len(labels) != len(self.labels[name]):
            raise UsageError("label tuple does not match the base operator")
        if any(not 0 <= i < len(self.values) for i in labels):
            raise UsageError("label index out of range")
        return (name, labels)

    def resolve_state(self, psi) -> tuple[np.ndarray, float]:
        v = as_vector(psi, self.dim)
        norm = float(np.linalg.norm(v))
        if norm <= self.tol.null_threshold:
            raise PreconditionError("state vector is null")
        return v, norm

    def subjects(self) -> Iterator[LabeledOperator]:
        nv = len(self.values)
        for name in sorted(self.operators):
            for labels in itertools.product(range(nv), repeat=len(self.labels[name])):
                yield (name, labels)

    @staticmethod
    def relabel(f: tuple[int, ...], labeled: LabeledOperator) -> LabeledOperator:
        name, labels = labeled
        return (name, tuple(f[l] for l in labels))

    def holds(self, state: tuple[np.ndarray, float], labeled: LabeledOperator,
              gamma: frozenset[int]) -> bool:
        """True iff the range projector of the operator fixes the state."""
        v, norm = state
        proj = self.range_projector(labeled, gamma)
        return float(np.linalg.norm(proj @ v - v)) <= self.tol.null_threshold * norm

    def range_projector(self, labeled: LabeledOperator, gamma: frozenset[int]) -> np.ndarray:
        """Projector onto the eigenspaces of the labelled operator whose
        label lies in the index range."""
        name, labels = labeled
        base = self.operator(name)
        total = np.zeros((self.dim, self.dim), dtype=complex)
        for lab, proj in zip(labels, base.projectors):
            if lab in gamma:
                total = total + proj
        return total


# The paper's names for the quantum case of the shared construction.
E_psi_membership = classical.membership
quantum_function_valuation = classical.valuation
proposition_mset = classical.proposition_mset
E_psi_subset = classical.truth_set
E_psi_valuation_via_arrow = classical.valuation_via_arrow
