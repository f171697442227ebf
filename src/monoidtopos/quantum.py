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

from typing import Optional, Sequence, Union

import numpy as np

from . import classical
from .errors import MissingNameError, PreconditionError, UsageError, ValidationError
from .linalg import (DEFAULT_TOL, HermitianOperator, TolerancePolicy, as_vector, hermitian_eig,
                     raise_first)

# A named base operator relabelled: one value index per eigenvalue cluster.
LabeledOperator = tuple[str, tuple[int, ...]]


class QuantumSystem(classical.ValueSetSystem):
    """Named Hermitian operators with spectra inside a finite value set."""

    def __init__(self, dim: int, values: Sequence[float],
                 operators: dict[str, np.ndarray] | None = None,
                 tol: TolerancePolicy = DEFAULT_TOL, spectra: Optional[list] = None):
        """``spectra`` are the operators' ``hermitian_eig`` results snapped to
        the value set, in their order, when the caller has made them with
        the rest of its stack (``Eigh.operators``); any error among them is
        raised once the value set is validated."""
        self.dim, self.tol = int(dim), tol
        super().__init__(values)
        operators = operators or {}
        self.operators: dict[str, HermitianOperator] = {}
        self.labels: dict[str, tuple[int, ...]] = {}
        for (name, matrix), op in zip(operators.items(), spectra or [None] * len(operators)):
            op = (hermitian_eig(matrix, tol, snap_to=self.values) if op is None
                  else raise_first([op])[0])
            if op.dim != self.dim:
                raise ValidationError(f"operator {name!r} has wrong dimension")
            self.operators[str(name)] = op
            self.labels[str(name)] = tuple(self._vindex[lam] for lam in op.eigenvalues)
        self.blocks = {name: (len(self.labels[name]), lambda t, name=name: (name, t))
                       for name in sorted(self.operators)}

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

    def holds(self, state: tuple[np.ndarray, float], name: str, pattern: int) -> bool:
        """True iff the range projector fixes the state: the sum, in cluster
        order, of the operator's eigenprojectors whose bit is set in the pattern."""
        v, norm = state
        total = sum((p for j, p in enumerate(self.operators[name].projectors) if pattern >> j & 1),
                    np.zeros((self.dim, self.dim), dtype=complex))
        return float(np.linalg.norm(total @ v - v)) <= self.tol.null_threshold * norm


# The paper's names for the quantum case of the shared construction.
E_psi_membership = classical.membership
quantum_function_valuation = classical.valuation
proposition_mset = classical.proposition_mset
E_psi_subset = classical.truth_set
E_psi_valuation_via_arrow = classical.valuation_via_arrow
