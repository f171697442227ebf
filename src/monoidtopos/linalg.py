"""Small dense complex linear algebra for the valuation modules.

Eigendecomposition of Hermitian matrices uses numpy.linalg.eigh on a stack
of matrices (``Eigh``; one matrix is a stack of one) and is checked by
reconstruction; dimensions are capped at MAX_DIM.  A single
TolerancePolicy (comparison eps, null threshold) governs every numeric
decision downstream — projector strings are contraction products, so a
fixed null threshold is safe at any string length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from .errors import (DomainError, MonoidToposError, NumericError, PreconditionError,
                     StructureError, ValidationError)

MAX_DIM = 16
# The least eps a ray comparison resolves: below it 1 - eps rounds to 1.0,
# while a vector's overlap with itself can compute as 1 - 1 ulp.
EPS_FLOOR = 1e-14


@dataclass(frozen=True)
class TolerancePolicy:
    eps: float = 1e-9
    null_threshold: float = 1e-9

    def __post_init__(self):
        if not (self.eps > 0 and self.null_threshold > 0):
            raise ValidationError("tolerances must be positive")
        if not (math.isfinite(self.eps) and math.isfinite(self.null_threshold)):
            raise ValidationError("tolerances must be finite")
        if self.eps < EPS_FLOOR:
            raise ValidationError(f"eps must be at least {EPS_FLOOR:g}")


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
        norm = np.sqrt(np.add.reduce((w.conj() * w).real, axis=1))   # as numpy.linalg.norm
        q[:, :, j] = w / np.where(norm > null_threshold, norm, np.inf)[:, None]
    return q


class Projector:
    """An orthogonal projector: Hermitian and idempotent within tolerance, kept
    as V V† for V the eigenvectors whose eigenvalue rounds to 1 (so P·P = P)."""

    __slots__ = ("matrix",)

    def __init__(self, matrix, tol: TolerancePolicy = DEFAULT_TOL):
        eig = Eigh(as_matrix(matrix)[None], tol, raw=True)
        self.matrix = raise_first(eig.projectors())[0].matrix

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def rank(self) -> int:
        return int(round(float(np.real(np.trace(self.matrix)))))

    def __repr__(self):
        return f"Projector(dim={self.dim}, rank={self.rank()})"


def _adopt(cls, **slots):
    """An instance of cls holding data already validated."""
    obj = object.__new__(cls)
    for name, value in slots.items():
        setattr(obj, name, value)
    return obj


def raise_first(results: list) -> list:
    """The results, unless one is an error: then the first is raised."""
    for r in results:
        if isinstance(r, MonoidToposError):
            raise r
    return results

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


class Eigh:
    """The Hermitian test and one ``numpy.linalg.eigh`` of a (k, d, d) stack.
    Matrix a has the scale max(1, max|a|), is Hermitian when a - a† is within
    eps·scale, and is decomposed as (a + a†)/2, or as given where ``raw`` is
    set (projectors).  A resolver gives per matrix the object or the error the
    matrix alone raises; a failed eigensolve is that of each matrix reaching it."""

    def __init__(self, matrices: np.ndarray, tol: TolerancePolicy = DEFAULT_TOL, raw=False):
        a, adj = matrices, matrices.conj().transpose(0, 2, 1)
        self.tol, self.matrices, self.failure, self.sym = tol, a, None, (a + adj) / 2.0
        self.scale = np.maximum(1.0, np.abs(a).max(axis=(1, 2)))
        self.hermitian = np.abs(a - adj).max(axis=(1, 2)) <= tol.eps * self.scale
        self.values, self.vectors = np.zeros(a.shape[:2]), np.zeros_like(a)
        try:
            if len(a):
                self.values, self.vectors = np.linalg.eigh(
                    np.where(np.reshape(raw, (-1, 1, 1)), a, self.sym) if np.any(raw) else self.sym)
        except np.linalg.LinAlgError as exc:
            self.failure = NumericError(f"eigendecomposition failed: {exc}")
            self.failure.__cause__ = exc

    def take(self, rows) -> "Eigh":
        """The selected matrices' part, with nothing solved again."""
        return _adopt(Eigh, tol=self.tol, failure=self.failure, matrices=self.matrices[rows],
                      scale=self.scale[rows], hermitian=self.hermitian[rows], sym=self.sym[rows],
                      values=self.values[rows], vectors=self.vectors[rows])

    def _errors(self, hermitian: str, *check) -> list:
        """Per matrix the first failed check: Hermitian, then ``check`` (a mask of
        failures and its message), then the eigensolve."""
        failed, message = check or (np.zeros(len(self.scale), dtype=bool), "")
        return [ValidationError(hermitian) if not ok else ValidationError(message) if bad
                else self.failure for ok, bad in zip(self.hermitian.tolist(), failed.tolist())]

    def operators(self, snap_to: Optional[Iterable[float]] = None, snapped=slice(None)) -> list:
        """``hermitian_eig`` of each matrix, snapping those ``snapped`` selects."""
        tol, vals, vecs = self.tol, self.values, self.vectors
        out = self._errors("matrix is not Hermitian within tolerance")
        snaps = np.zeros(len(vals), dtype=bool)
        if snap_to is not None:
            snaps[snapped] = True
            rows, targets = np.arange(len(vals))[snapped], sorted(set(float(x) for x in snap_to))
            levels = np.array(targets)
            dist = np.abs(vals[snapped, :, None] - levels)
            near = dist <= tol.eps * np.maximum(1.0, np.abs(levels))
            for r, j in zip(*np.nonzero(~near.any(axis=2))):   # the first per matrix
                out[rows[r]] = out[rows[r]] or ValidationError(
                    f"eigenvalue {vals[rows[r], j]!r} does not snap to the declared value set")
            if targets:   # the nearest target, the first of equals
                picked, vals = levels[np.where(near, dist, np.inf).argmin(axis=2)], vals.copy()
                if (picked[:, 1:] < picked[:, :-1]).any():   # targets within 2·eps of another
                    order = np.argsort(picked, axis=1, kind="stable")
                    sub = np.arange(len(rows))[:, None]
                    picked, vecs = picked[sub, order], vecs.copy()
                    vecs[rows] = vecs[rows].transpose(0, 2, 1)[sub, order].transpose(0, 2, 1)
                vals[rows] = picked
        # Clusters: runs near their first value, as (matrix, start, stop, value).
        groups, firsts = [], []
        for i, (row, scale, snap) in enumerate(zip(vals.tolist(), self.scale.tolist(),
                                                   snaps.tolist())):
            if out[i] is None:
                near_first, start = max(0.0 if snap else tol.eps * scale, 1e-12 * scale), 0
                firsts.append(len(groups))
                for j in range(1, len(row) + 1):
                    if j == len(row) or not abs(row[j] - row[start]) <= near_first:
                        groups.append((i, start, j, row[start] if snap or j - start == 1
                                       else float(np.mean(row[start:j]))))
                        start = j
        if not groups:
            return out
        # Each eigenspace basis is its block orthonormalised, the blocks of a width at once.
        bases, projectors = [None] * len(groups), np.empty((len(groups),) + vecs.shape[1:], complex)
        widths = [stop - start for _, start, stop, _ in groups]
        for width in set(widths):
            picked = [g for g, w in enumerate(widths) if w == width]
            blocks = orthonormalize(np.array([vecs[i, :, start:stop] for i, start, stop, _ in
                                              map(groups.__getitem__, picked)]), 0.5)
            projectors[picked] = blocks @ blocks.conj().transpose(0, 2, 1)
            for g, block, full in zip(picked, blocks, blocks.any(axis=1).all(axis=1).tolist()):
                bases[g], i = block, groups[g][0]
                out[i] = out[i] or (None if full else NumericError("eigenvector block lost rank"))
        # The reconstruction sums value times projector over the clusters in order.
        kept = [groups[g][0] for g in firsts]
        with np.errstate(invalid="ignore"):   # an infinite value gives NaN, which fails
            recon = np.add.reduceat(np.array([g[3] for g in groups])[:, None, None] * projectors,
                                    firsts, axis=0)
            off = np.abs(recon - self.sym[kept]).max(axis=(1, 2))
            good = off <= 10 * tol.eps * self.scale[kept]
        for i, ok, lo, hi in zip(kept, good.tolist(), firsts, firsts[1:] + [len(groups)]):
            out[i] = out[i] or (_adopt(HermitianOperator, matrix=self.sym[i],
                                       eigenvalues=tuple(g[3] for g in groups[lo:hi]),
                                       bases=tuple(bases[lo:hi]),
                                       projectors=tuple(projectors[lo:hi])) if ok else
                                NumericError("spectral reconstruction failed tolerance"))
        return out

    def projectors(self) -> list:
        """``Projector`` of each matrix: V V† for its eigenvectors of eigenvalue
        above 1/2, the last columns in eigh's ascending order."""
        a, d = self.matrices, self.matrices.shape[-1]
        out = self._errors("projector matrix is not Hermitian",
                           np.abs(a @ a - a).max(axis=(1, 2)) > 1e3 * self.tol.eps * self.scale,
                           "projector matrix is not idempotent")
        ranks = (self.values > 0.5).sum(axis=1)
        for rank in set(ranks.tolist()):
            rows = np.flatnonzero(ranks == rank)
            v = self.vectors[rows, :, d - rank:]
            for i, p in zip(rows.tolist(), v @ v.conj().transpose(0, 2, 1)):
                out[i] = out[i] or _adopt(Projector, matrix=p)
        return out


def hermitian_eig(matrix, tol: TolerancePolicy = DEFAULT_TOL,
                  snap_to: Optional[Iterable[float]] = None) -> HermitianOperator:
    """Spectral decomposition of a Hermitian matrix.

    Eigenvalues within eps of a value in ``snap_to`` are snapped to it
    (and must all snap when the set is given); near-equal eigenvalues are
    merged into a single eigenspace.  Raises ValidationError for
    non-Hermitian input and NumericError if the reconstruction of the
    matrix from the spectral data is off.
    """
    return raise_first(Eigh(as_matrix(matrix)[None], tol).operators(snap_to))[0]


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


def non_null(matrices: np.ndarray, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Entry n is True iff the largest singular value of matrices[n] exceeds
    the null threshold t.  As ||A||_2 <= ||A||_F <= sqrt(d)·||A||_2, a
    Frobenius norm above sqrt(d)·t·(1+1e-6) is alive and one at or below
    t·(1-1e-6) is null; only the matrices between take an SVD."""
    t, d = tol.null_threshold, min(matrices.shape[1:])
    fro = np.linalg.norm(matrices, axis=(1, 2))
    alive = fro > math.sqrt(d) * t * (1 + 1e-6)
    band = ~alive & (fro > t * (1 - 1e-6))
    if band.any():
        try:
            alive[band] = np.linalg.norm(matrices[band], 2, axis=(1, 2)) > t
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"operator norm failed: {exc}") from exc
    return alive


class Ray:
    """A ray through a non-null vector; the representative is normalised
    and phase-canonicalised (largest-magnitude component real positive)."""

    __slots__ = ("representative",)

    def __init__(self, vector, tol: TolerancePolicy = DEFAULT_TOL):
        self.representative = unit_rows(as_vector(vector)[None], tol)[0]

    @classmethod
    def of_unit(cls, unit: np.ndarray) -> "Ray":
        return _adopt(cls, representative=unit)   # a row of unit_rows

    @property
    def dim(self) -> int:
        return self.representative.shape[0]

    def same_ray(self, other: "Ray", tol: TolerancePolicy = DEFAULT_TOL) -> bool:
        return ray_equal(self.representative, other.representative, tol)

    def __repr__(self):
        return f"Ray({np.array2string(self.representative, precision=4)})"


def row_norms(a: np.ndarray) -> np.ndarray:
    """Each row's norm, summed as numpy.linalg.norm sums one vector's."""
    re, im = a.real[:, None], a.imag[:, None]
    return np.sqrt((re @ re.transpose(0, 2, 1) + im @ im.transpose(0, 2, 1))[:, 0, 0])


def unit_rows(a: np.ndarray, tol: TolerancePolicy = DEFAULT_TOL,
              norms: Optional[np.ndarray] = None) -> np.ndarray:
    """The rows' ray representatives: each over its norm, then over the phase
    of its first largest-magnitude entry.  Null rows have no ray."""
    norms = row_norms(a) if norms is None else norms
    if (norms <= tol.null_threshold).any():
        raise PreconditionError("cannot form the ray of a null vector")
    v = a / norms[:, None]
    pivots = v[np.arange(len(v)), np.abs(v).argmax(axis=1)]
    return v / (pivots / np.hypot(pivots.real, pivots.imag))[:, None]   # hypot: abs of one


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
