"""The per-object resolution of a quantum declaration, kept as the oracle of
the stacked pass: each operator, projector and density is validated with its
own eigensolve, each state with its own norm, and a ray set is a tuple of
``Ray`` objects compared pair by pair.  The errors are raised in the order the
members are met: the operators' shapes, their spectra (inferring the value
set, then snapping to it), then each other member as declared."""

import numpy as np

from monoidtopos.errors import MonoidToposError, NumericError, PreconditionError, ValidationError
from monoidtopos.linalg import DEFAULT_TOL, as_matrix, as_vector, orthonormalize
from monoidtopos.quantum import QuantumSystem


def is_hermitian(a, eps):
    return bool(np.max(np.abs(a - a.conj().T)) <= eps * max(1.0, float(np.max(np.abs(a)))))


def hermitian_eig(matrix, tol=DEFAULT_TOL, snap_to=None):
    """(symmetrised matrix, eigenvalues, bases, projectors) of one matrix."""
    a = as_matrix(matrix)
    scale = max(1.0, float(np.max(np.abs(a))))
    if not is_hermitian(a, tol.eps):
        raise ValidationError("matrix is not Hermitian within tolerance")
    a = (a + a.conj().T) / 2.0
    try:
        vals, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed: {exc}") from exc
    if snap_to is not None:
        targets = sorted(set(float(x) for x in snap_to))
        snapped = []
        for lam in vals:
            near = [x for x in targets if abs(lam - float(x)) <= tol.eps * max(1.0, abs(x))]
            if not near:
                raise ValidationError(
                    f"eigenvalue {lam!r} does not snap to the declared value set")
            snapped.append(min(near, key=lambda x: abs(lam - x)))
        vals = np.array(snapped)
    order = np.argsort(vals, kind="stable")
    vals, vecs = vals[order], vecs[:, order]
    cluster_tol = tol.eps * scale if snap_to is None else 0.0
    groups = []
    for i, lam in enumerate(vals):
        if groups and abs(lam - groups[-1][0]) <= max(cluster_tol, 1e-12 * scale):
            groups[-1][1].append(i)
        else:
            groups.append((float(lam), [i]))
    bases, eigenvalues = [], []
    for lam, idxs in groups:
        block = orthonormalize(vecs[None, :, idxs], 0.5)[0]
        if not block.any(axis=0).all():
            raise NumericError("eigenvector block lost rank")
        bases.append(block)
        eigenvalues.append(float(np.mean([vals[i] for i in idxs])) if snap_to is None else lam)
    projectors = [b @ b.conj().T for b in bases]
    recon = sum(lam * p for lam, p in zip(eigenvalues, projectors))
    if not float(np.max(np.abs(recon - a))) <= 10 * tol.eps * scale:
        raise NumericError("spectral reconstruction failed tolerance")
    return a, tuple(eigenvalues), bases, projectors


def projector(matrix, tol=DEFAULT_TOL):
    a = as_matrix(matrix)
    if not is_hermitian(a, tol.eps):
        raise ValidationError("projector matrix is not Hermitian")
    if np.max(np.abs(a @ a - a)) > 1e3 * tol.eps * max(1.0, float(np.max(np.abs(a)))):
        raise ValidationError("projector matrix is not idempotent")
    try:
        vals, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed: {exc}") from exc
    v = vecs[:, vals > 0.5]
    return v @ v.conj().T


def density(matrix, tol=DEFAULT_TOL):
    a = as_matrix(matrix)
    try:
        _, eigenvalues, _, _ = hermitian_eig(a, tol)
    except ValidationError:
        raise ValidationError("density matrix is not Hermitian") from None
    scale = max(1.0, float(np.max(np.abs(a))))
    if min(eigenvalues) < -1e3 * tol.eps * scale:
        raise ValidationError("density matrix is not positive semidefinite")
    trace = float(np.real(np.trace(a)))
    if trace <= tol.null_threshold:
        raise ValidationError("density matrix must have positive trace")
    return a / trace


def ray(vector, tol=DEFAULT_TOL):
    """The unit, phase-canonical representative of a non-null vector."""
    v = as_vector(vector)
    norm = float(np.linalg.norm(v))
    if norm <= tol.null_threshold:
        raise PreconditionError("cannot form the ray of a null vector")
    v = v / norm
    pivot = int(np.argmax(np.abs(v)))
    return v / (v[pivot] / abs(v[pivot]))


def rayset(vectors, tol=DEFAULT_TOL):
    """The representatives of a ray set, or its duplicate error, pair by pair."""
    reps = [ray(v, tol) for v in vectors]
    for j, b in enumerate(reps):
        for a in reps[:j]:
            overlap = abs(complex(a.conj() @ b)) / (np.linalg.norm(a) * np.linalg.norm(b))
            if overlap >= 1.0 - tol.eps:
                raise ValidationError("ray set contains a duplicate ray")
    return reps


def resolve_quantum(dim, values, members, tol=DEFAULT_TOL):
    """The resolution of ``quantum { dim; values; members }``, members given as
    (kind, name, entries) with kind operator, projector, density or state:
    the system and dicts of projector, density and state arrays."""
    if dim < 1:
        raise MonoidToposError(f"dimension must be positive, got {dim}")
    operators = {name: as_matrix(entries, dim) for kind, name, entries in members
                 if kind == "operator"}
    if values is None:
        found = []
        for matrix in operators.values():
            for lam in hermitian_eig(matrix, tol)[1]:
                snapped = round(lam, 9)
                if not any(abs(snapped - v) <= tol.eps for v in found):
                    found.append(snapped)
        values = tuple(sorted(found)) or (0.0, 1.0)
    system = QuantumSystem(dim, values, operators, tol)
    out = {"projector": {}, "density": {}, "state": {}}
    for kind, name, entries in members:
        if kind == "state":
            v = as_vector(entries, dim)
            if float(np.linalg.norm(v)) <= tol.null_threshold:
                raise MonoidToposError(f"state {name!r} is null")
            out["state"][name] = v
        elif kind == "projector":
            out["projector"][name] = projector(as_matrix(entries, dim), tol)
        elif kind == "density":
            out["density"][name] = density(as_matrix(entries, dim), tol)
    return system, out
