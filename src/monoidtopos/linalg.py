"""Small dense complex linear algebra for the valuation modules.

Eigendecomposition of Hermitian matrices uses numpy.linalg.eigh and is
checked by reconstruction; dimensions are capped at MAX_DIM.  A single
TolerancePolicy (comparison eps, null threshold) governs every numeric
decision downstream — projector strings are contraction products, so a
fixed null threshold is safe at any string length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from .errors import (DomainError, NumericError, PreconditionError,
                     StructureError, ValidationError)

MAX_DIM = 16


@dataclass(frozen=True)
class TolerancePolicy:
    eps: float = 1e-9
    null_threshold: float = 1e-9

    def __post_init__(self):
        if not (self.eps > 0 and self.null_threshold > 0):
            raise ValidationError("tolerances must be positive")
        if not np.isfinite([self.eps, self.null_threshold]).all():
            raise ValidationError("tolerances must be finite")


DEFAULT_TOL = TolerancePolicy()


def as_matrix(entries, dim: Optional[int] = None) -> np.ndarray:
    """Validate and copy a square complex matrix."""
    try:
        a = np.array(entries, dtype=complex)
    except ValueError:
        raise StructureError("expected a square matrix, got rows of different lengths") from None
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise StructureError(f"expected a square matrix, got shape {a.shape}")
    if dim is not None and a.shape[0] != dim:
        raise StructureError(f"expected dimension {dim}, got {a.shape[0]}")
    if a.shape[0] > MAX_DIM:
        raise StructureError(f"dimension {a.shape[0]} exceeds cap {MAX_DIM}")
    if a.shape[0] == 0:
        raise StructureError("empty matrix")
    if not np.all(np.isfinite(a.view(float))):
        raise StructureError("matrix entries must be finite")
    return a


def as_vector(entries, dim: Optional[int] = None) -> np.ndarray:
    v = np.array(entries, dtype=complex).reshape(-1)
    if dim is not None and v.shape[0] != dim:
        raise StructureError(f"expected a vector of dimension {dim}")
    if not np.all(np.isfinite(v.view(float))):
        raise StructureError("vector entries must be finite")
    return v


def is_hermitian(a: np.ndarray, eps: float) -> bool:
    return bool(np.max(np.abs(a - a.conj().T)) <= eps * max(1.0, float(np.max(np.abs(a)))))


class Subspace:
    """A linear subspace given by an orthonormal column basis (possibly empty)."""

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, basis: np.ndarray, tol: TolerancePolicy = DEFAULT_TOL):
        basis = np.asarray(basis, dtype=complex)
        if basis.size == 0:
            basis = basis.reshape(ambient_dim, 0)
        if basis.ndim != 2 or basis.shape[0] != ambient_dim:
            raise StructureError("basis must be ambient_dim x k")
        gram = basis.conj().T @ basis
        if basis.shape[1] and np.max(np.abs(gram - np.eye(basis.shape[1]))) > 1e3 * tol.eps:
            raise ValidationError("basis columns are not orthonormal")
        self.ambient_dim = ambient_dim
        self.basis = basis

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector_matrix(self) -> np.ndarray:
        return self.basis @ self.basis.conj().T

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, np.zeros((ambient_dim, 0)))

    @staticmethod
    def span(vectors: Sequence[np.ndarray] | np.ndarray,
             tol: TolerancePolicy = DEFAULT_TOL) -> "Subspace":
        cols = np.column_stack([as_vector(v) for v in vectors]) if len(vectors) else None
        if cols is None:
            raise StructureError("span of nothing has no ambient dimension")
        basis = orthonormalize(cols[None], tol.null_threshold)[0]
        return Subspace(cols.shape[0], basis[:, basis.any(axis=0)])

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"


def orthonormalize(columns: np.ndarray, null_threshold: float) -> np.ndarray:
    """Gram-Schmidt on a stack of column blocks, shape (N, d, k), in column
    order: each column is projected off the basis kept so far twice
    ("twice is enough") and dropped when its residual norm falls at or
    below the null threshold.  Kept columns come back orthonormal in
    place; dropped ones come back zero, so ``any(axis=1)`` marks the kept."""
    a = np.asarray(columns, dtype=complex)
    if a.ndim != 3:
        raise StructureError("expected an (N, d, k) stack of column blocks")
    q = np.zeros_like(a)
    for j in range(a.shape[2]):
        w = a[:, :, j]
        if j:
            basis = q[:, :, :j]
            for _ in range(2):
                w = w - np.einsum("ndk,nk->nd", basis, np.einsum("ndk,nd->nk", basis.conj(), w))
        norm = np.linalg.norm(w, axis=1)
        q[:, :, j] = w / np.where(norm > null_threshold, norm, np.inf)[:, None]
    return q


class Projector:
    """An orthogonal projector: Hermitian and idempotent within tolerance, kept
    as V V† for V the eigenvectors whose eigenvalue rounds to 1 (so P·P = P)."""

    __slots__ = ("matrix",)

    def __init__(self, matrix, tol: TolerancePolicy = DEFAULT_TOL):
        a = as_matrix(matrix)
        if not is_hermitian(a, tol.eps):
            raise ValidationError("projector matrix is not Hermitian")
        if np.max(np.abs(a @ a - a)) > 1e3 * tol.eps * max(1.0, float(np.max(np.abs(a)))):
            raise ValidationError("projector matrix is not idempotent")
        vals, vecs = np.linalg.eigh(a)
        v = vecs[:, vals > 0.5]
        self.matrix = v @ v.conj().T

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def rank(self) -> int:
        return int(round(float(np.real(np.trace(self.matrix)))))

    def __repr__(self):
        return f"Projector(dim={self.dim}, rank={self.rank()})"


class HermitianOperator:
    """A Hermitian matrix with resolved spectral data.

    ``eigenvalues`` are the distinct eigenvalues in ascending order;
    ``bases[i]`` is an orthonormal basis of the i-th eigenspace and
    ``projectors[i]`` the corresponding spectral projector.
    """

    __slots__ = ("matrix", "eigenvalues", "bases", "projectors")

    def __init__(self, matrix: np.ndarray, eigenvalues: Sequence[float],
                 bases: Sequence[np.ndarray]):
        self.matrix = matrix
        self.eigenvalues = tuple(float(v) for v in eigenvalues)
        self.bases = tuple(np.asarray(b, dtype=complex) for b in bases)
        self.projectors = tuple(b @ b.conj().T for b in self.bases)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def spectrum(self) -> tuple[tuple[float, np.ndarray], ...]:
        return tuple(zip(self.eigenvalues, self.projectors))

    def eigenspace(self, delta: Iterable[float], tol: TolerancePolicy = DEFAULT_TOL) -> Subspace:
        """The span of eigenvectors whose eigenvalue matches the range."""
        delta = [float(d) for d in delta]
        blocks = [b for lam, b in zip(self.eigenvalues, self.bases)
                  if any(abs(lam - d) <= tol.eps for d in delta)]
        if not blocks:
            return Subspace.zero(self.dim)
        return Subspace(self.dim, np.column_stack(blocks))

    def __repr__(self):
        vals = ", ".join(f"{v:g}" for v in self.eigenvalues)
        return f"HermitianOperator(dim={self.dim}, eigenvalues=[{vals}])"


def hermitian_eig(matrix, tol: TolerancePolicy = DEFAULT_TOL,
                  snap_to: Optional[Iterable[float]] = None) -> HermitianOperator:
    """Spectral decomposition of a Hermitian matrix.

    Eigenvalues within eps of a value in ``snap_to`` are snapped to it
    (and must all snap when the set is given); near-equal eigenvalues are
    merged into a single eigenspace.  Raises ValidationError for
    non-Hermitian input and NumericError if the reconstruction of the
    matrix from the spectral data is off.
    """
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
    vals = vals[order]
    vecs = vecs[:, order]
    cluster_tol = tol.eps * scale if snap_to is None else 0.0
    groups: list[tuple[float, list[int]]] = []
    for i, lam in enumerate(vals):
        if groups and abs(lam - groups[-1][0]) <= max(cluster_tol, 1e-12 * scale):
            groups[-1][1].append(i)
        else:
            groups.append((float(lam), [i]))
    bases = []
    eigenvalues = []
    for lam, idxs in groups:
        block = orthonormalize(vecs[None, :, idxs], 0.5)[0]
        if not block.any(axis=0).all():
            raise NumericError("eigenvector block lost rank")
        bases.append(block)
        eigenvalues.append(float(np.mean([vals[i] for i in idxs])) if snap_to is None else lam)

    op = HermitianOperator(a, eigenvalues, bases)
    recon = sum(lam * p for lam, p in op.spectrum)
    if not float(np.max(np.abs(recon - a))) <= 10 * tol.eps * scale:  # NaN fails too
        raise NumericError("spectral reconstruction failed tolerance")
    return op


def spectral_projector(op: HermitianOperator, delta: Iterable[float],
                       tol: TolerancePolicy = DEFAULT_TOL) -> Projector:
    """Sum of eigenprojectors whose eigenvalue lies in the range (empty
    match gives the zero projector)."""
    delta = [float(d) for d in delta]
    total = np.zeros((op.dim, op.dim), dtype=complex)
    for lam, p in op.spectrum:
        if any(abs(lam - d) <= tol.eps for d in delta):
            total = total + p
    return Projector(total, tol)


def apply_function(op: HermitianOperator, f: Union[Callable[[float], float], Mapping[float, float]],
                   tol: TolerancePolicy = DEFAULT_TOL) -> HermitianOperator:
    """The operator obtained by mapping every eigenvalue through f;
    eigenspaces whose images coincide are merged."""
    if isinstance(f, Mapping):
        lookup = {float(k): float(v) for k, v in f.items()}

        def fn(lam: float) -> float:
            for k, v in lookup.items():
                if abs(lam - k) <= tol.eps:
                    return v
            raise DomainError(f"function undefined on eigenvalue {lam!r}")
    else:
        def fn(lam: float) -> float:
            try:
                return float(f(lam))
            except Exception as exc:
                raise DomainError(f"function undefined on eigenvalue {lam!r}") from exc

    mapped = [fn(lam) for lam in op.eigenvalues]
    merged: dict[float, list[np.ndarray]] = {}
    for new_lam, basis in zip(mapped, op.bases):
        key = next((k for k in merged if abs(k - new_lam) <= tol.eps), new_lam)
        merged.setdefault(key, []).append(basis)
    eigenvalues = sorted(merged)
    bases = [np.column_stack(merged[lam]) for lam in eigenvalues]
    matrix = sum(lam * (b @ b.conj().T) for lam, b in zip(eigenvalues, bases))
    return HermitianOperator(np.asarray(matrix), eigenvalues, bases)


def operator_norm(a: np.ndarray) -> float:
    """Largest singular value."""
    try:
        return float(np.linalg.norm(np.asarray(a, dtype=complex), 2))
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"operator norm failed: {exc}") from exc


class Ray:
    """A ray through a non-null vector; the representative is normalised
    and phase-canonicalised (largest-magnitude component real positive)."""

    __slots__ = ("representative",)

    def __init__(self, vector, tol: TolerancePolicy = DEFAULT_TOL):
        v = as_vector(vector)
        norm = float(np.linalg.norm(v))
        if norm <= tol.null_threshold:
            raise PreconditionError("cannot form the ray of a null vector")
        v = v / norm
        pivot = int(np.argmax(np.abs(v)))
        phase = v[pivot] / abs(v[pivot])
        self.representative = v / phase

    @property
    def dim(self) -> int:
        return self.representative.shape[0]

    def same_ray(self, other: "Ray", tol: TolerancePolicy = DEFAULT_TOL) -> bool:
        return ray_equal(self.representative, other.representative, tol)

    def __repr__(self):
        return f"Ray({np.array2string(self.representative, precision=4)})"


class _ZeroRay:
    """The absorbing point adjoined to projective space for annihilated vectors."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "[0]"


ZERO_RAY = _ZeroRay()

RayOrZero = Union[Ray, _ZeroRay]


def ray_equal(psi, phi, tol: TolerancePolicy = DEFAULT_TOL) -> bool:
    """True iff the two non-null vectors span the same ray, i.e. their
    normalised overlap has modulus at least 1 - eps."""
    psi = as_vector(psi)
    phi = as_vector(phi, psi.shape[0])
    np_, nq = float(np.linalg.norm(psi)), float(np.linalg.norm(phi))
    if np_ <= tol.null_threshold or nq <= tol.null_threshold:
        raise PreconditionError("ray comparison needs non-null vectors")
    return abs(complex(psi.conj() @ phi)) / (np_ * nq) >= 1.0 - tol.eps
