"""Actions of operators and projector strings on vectors, rays, subspaces,
and density matrices; the reduction valuations as depth-certified ideals.

A string (P_n, ..., P_1) reduces to the operator product applied right to
left, so the rightmost letter acts first and prepending a letter is the
left-multiplication that the ideal property quantifies over.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import (MissingNameError, NullReductionError, PreconditionError,
                     UsageError, ValidationError)
from .linalg import (DEFAULT_TOL, HermitianOperator, Projector, Ray, Subspace,
                     TolerancePolicy, ZERO_RAY, RayOrZero, as_matrix, as_vector,
                     image_subspace, in_subspace, is_hermitian, ray_equal)
from .strings import (DEFAULT_STRING_BUDGET, BoundedIdeal, Letters,
                      ProjStringMonoid, bounded_ideal)

DEFAULT_DEPTH = 4


class ProjectorAlphabet:
    """Named matrices usable as string letters.

    By default every letter must be an orthogonal projector; with
    kind='hermitian' any Hermitian matrix is accepted (products of
    Hermitians make the same string machinery available, though no
    valuation uses it).
    """

    def __init__(self, matrices: dict[str, object] | Sequence[tuple[str, object]],
                 tol: TolerancePolicy = DEFAULT_TOL, kind: str = "projector"):
        if kind not in ("projector", "hermitian"):
            raise UsageError(f"unknown alphabet kind {kind!r}")
        items = list(matrices.items()) if isinstance(matrices, dict) else list(matrices)
        if not items:
            raise UsageError("alphabet needs at least one letter")
        self.kind = kind
        self.tol = tol
        self.matrices: dict[str, np.ndarray] = {}
        dim = None
        for name, matrix in items:
            if kind == "projector":
                a = Projector(matrix, tol).matrix
            else:
                a = as_matrix(matrix)
                if not is_hermitian(a, tol.eps):
                    raise ValidationError(f"letter {name!r} is not Hermitian")
            if dim is None:
                dim = a.shape[0]
            elif a.shape[0] != dim:
                raise ValidationError("letters must share one dimension")
            self.matrices[str(name)] = a
        self.dim = int(dim)
        self.monoid = ProjStringMonoid(tuple(self.matrices))
        self._cache: dict[Letters, np.ndarray] = {(): np.eye(self.dim, dtype=complex)}

    def matrix(self, name: str) -> np.ndarray:
        try:
            return self.matrices[name]
        except KeyError:
            raise MissingNameError(f"unknown letter {name!r}") from None

    def reduce(self, letters: Sequence[str]) -> np.ndarray:
        """Product of the letter matrices in application order (rightmost
        first); the empty string reduces to the identity.  Memoised along
        suffixes, so enumerating a string universe reuses every tail."""
        q = tuple(letters)
        cached = self._cache.get(q)
        if cached is not None:
            return cached
        j = 1
        while q[j:] not in self._cache:
            j += 1
        # Look every letter up before caching anything, so an unknown
        # letter leaves the memo untouched.
        mats = [self.matrix(name) for name in q[:j]]
        result = self._cache[q[j:]]
        for i in range(j - 1, -1, -1):
            result = mats[i] @ result
            self._cache[q[i:]] = result
        return result


def hermitian_alphabet(matrices, tol: TolerancePolicy = DEFAULT_TOL) -> ProjectorAlphabet:
    return ProjectorAlphabet(matrices, tol, kind="hermitian")


class ProjString:
    """A string of alphabet letters with its cached reduction."""

    __slots__ = ("alphabet", "letters", "reduction")

    def __init__(self, alphabet: ProjectorAlphabet, letters: Sequence[str]):
        self.alphabet = alphabet
        self.letters = alphabet.monoid.check_string(letters)
        self.reduction = alphabet.reduce(self.letters)

    def __len__(self):
        return len(self.letters)

    def concat(self, other: "ProjString") -> "ProjString":
        if self.alphabet is not other.alphabet:
            raise UsageError("strings use different alphabets")
        return ProjString(self.alphabet, self.letters + other.letters)

    def __repr__(self):
        return "ProjString(" + ",".join(self.letters) + ")"


class DensityMatrix:
    """A positive semidefinite Hermitian state, normalised to unit trace."""

    __slots__ = ("matrix",)

    def __init__(self, matrix, tol: TolerancePolicy = DEFAULT_TOL, normalize: bool = True):
        from .linalg import hermitian_eig

        a = as_matrix(matrix)
        if not is_hermitian(a, tol.eps):
            raise ValidationError("density matrix is not Hermitian")
        op = hermitian_eig(a, tol)
        scale = max(1.0, float(np.max(np.abs(a))))
        if min(op.eigenvalues) < -1e3 * tol.eps * scale:
            raise ValidationError("density matrix is not positive semidefinite")
        trace = float(np.real(np.trace(a)))
        if trace <= tol.null_threshold:
            raise ValidationError("density matrix must have positive trace")
        self.matrix = a / trace if normalize else a

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def act_on_ray(a: np.ndarray, ray: RayOrZero, tol: TolerancePolicy = DEFAULT_TOL) -> RayOrZero:
    """Project the ray through the operator; annihilation gives the
    absorbing point, which every operator fixes."""
    if ray is ZERO_RAY:
        return ZERO_RAY
    a = np.asarray(a, dtype=complex)
    w = a @ ray.representative
    if float(np.linalg.norm(w)) <= tol.null_threshold:
        return ZERO_RAY
    return Ray(w, tol)


def normalized_reduction(alphabet: ProjectorAlphabet, psi, letters: Sequence[str]) -> np.ndarray:
    """The unit-normalised reduced vector; partial — annihilated input is
    an error, not a value."""
    v = as_vector(psi, alphabet.dim)
    w = alphabet.reduce(tuple(letters)) @ v
    norm = float(np.linalg.norm(w))
    if norm <= alphabet.tol.null_threshold:
        raise NullReductionError("string annihilates the state")
    return w / norm


def _check_state(alphabet: ProjectorAlphabet, psi) -> np.ndarray:
    v = as_vector(psi, alphabet.dim)
    if float(np.linalg.norm(v)) <= alphabet.tol.null_threshold:
        raise PreconditionError("state vector is null")
    return v


def _eigenspace(alphabet: ProjectorAlphabet, op: HermitianOperator, delta) -> Subspace:
    if op.dim != alphabet.dim:
        raise UsageError("operator dimension does not match the alphabet")
    return op.eigenspace(delta, alphabet.tol)


def valuation_vector(alphabet: ProjectorAlphabet, psi, op: HermitianOperator,
                     delta, depth: int = DEFAULT_DEPTH,
                     budget: int = DEFAULT_STRING_BUDGET) -> BoundedIdeal:
    """Strings whose reduction sends the state into the reduced eigenspace
    of the proposition, certified to the given depth."""
    v = _check_state(alphabet, psi)
    target = _eigenspace(alphabet, op, delta)
    tol = alphabet.tol

    def predicate(q: Letters) -> bool:
        mat = alphabet.reduce(q)
        return in_subspace(mat @ v, image_subspace(mat, target, tol), tol)

    return bounded_ideal(alphabet.monoid, predicate, depth, budget)


def valuation_ray(alphabet: ProjectorAlphabet, psi, op: HermitianOperator,
                  delta, depth: int = DEFAULT_DEPTH,
                  budget: int = DEFAULT_STRING_BUDGET) -> BoundedIdeal:
    """Projective version: the reduced ray must lie in the reduced
    projective eigenspace, where the absorbing point belongs to the image
    exactly when the reduction kills part of the eigenspace (rank drop).
    That convention makes the ideal property a theorem."""
    v = _check_state(alphabet, psi)
    target = _eigenspace(alphabet, op, delta)
    tol = alphabet.tol

    def predicate(q: Letters) -> bool:
        mat = alphabet.reduce(q)
        w = mat @ v
        image = image_subspace(mat, target, tol)
        if float(np.linalg.norm(w)) <= tol.null_threshold:
            return image.dim < target.dim
        return in_subspace(w, image, tol)

    return bounded_ideal(alphabet.monoid, predicate, depth, budget)


def truth_ray_equal_strings(alphabet: ProjectorAlphabet, psi, phi,
                            depth: int = DEFAULT_DEPTH,
                            budget: int = DEFAULT_STRING_BUDGET) -> BoundedIdeal:
    """Strings after which the two states can no longer be told apart:
    both reductions null, or both non-null on the same ray."""
    v = _check_state(alphabet, psi)
    w = _check_state(alphabet, phi)
    tol = alphabet.tol

    def predicate(q: Letters) -> bool:
        mat = alphabet.reduce(q)
        rv, rw = mat @ v, mat @ w
        nv = float(np.linalg.norm(rv)) > tol.null_threshold
        nw = float(np.linalg.norm(rw)) > tol.null_threshold
        if nv != nw:
            return False
        if not nv:
            return True
        return ray_equal(rv, rw, tol)

    return bounded_ideal(alphabet.monoid, predicate, depth, budget)


def valuation_density(alphabet: ProjectorAlphabet, rho: DensityMatrix,
                      op: HermitianOperator, delta, depth: int = DEFAULT_DEPTH,
                      budget: int = DEFAULT_STRING_BUDGET) -> BoundedIdeal:
    """Density-matrix version: the reduced state must be fully supported
    in the reduced eigenspace, expressed through traces so annihilated
    strings qualify without any normalisation."""
    if not isinstance(rho, DensityMatrix):
        rho = DensityMatrix(rho, alphabet.tol)
    if rho.dim != alphabet.dim:
        raise UsageError("density matrix dimension does not match the alphabet")
    target = _eigenspace(alphabet, op, delta)
    tol = alphabet.tol

    def predicate(q: Letters) -> bool:
        mat = alphabet.reduce(q)
        reduced = mat @ rho.matrix @ mat.conj().T
        total = float(np.real(np.trace(reduced)))
        inside = image_subspace(mat, target, tol)
        kept = float(np.real(np.trace(inside.projector_matrix() @ reduced)))
        return abs(total - kept) <= tol.null_threshold * max(total, 1.0)

    return bounded_ideal(alphabet.monoid, predicate, depth, budget)
