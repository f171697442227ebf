"""Actions of operators and projector strings on vectors, rays and
density matrices, and the string valuations as depth-certified ideals.

A string (P_n, ..., P_1) reduces to the operator product applied right to
left, so the rightmost letter acts first and prepending a letter is the
left-multiplication that the ideal property quantifies over.  Letters are
exact projectors, so a string reduces as its canonical word (P·P = P).

Every string valuation is one of two predicates evaluated on an (N, d, d)
stack of reductions, giving one boolean per row: ``in_reduced_eigenspace``
(the reduced state lies in the reduced eigenspace of a proposition) and
``rays_agree`` (two reduced states can no longer be told apart).  Each
multiplies the stack by its shared operands (target basis, state, ρ) as
one 2-D product over the stack's (N·d, d) rows.  The domains of strings
only build the stack: here the canonical rows of the free monoid, built
once per alphabet one level at a time and sliced by depth, in ``context``
the polar of a ray set and the tails of one context string.  A valuation
decides each canonical row once and keeps that boolean per row; strings
read it through their level's ``canon`` array, and no string is made until
a report reads the members.  States enter through their unit
representative, so every valuation depends only on the ray.
"""

from __future__ import annotations

import itertools
from typing import Callable, Sequence

import numpy as np

from .errors import MissingNameError, MonoidToposError, UsageError, ValidationError
from .linalg import (DEFAULT_TOL, Eigh, HermitianOperator, Projector, Ray, Subspace,
                     TolerancePolicy, ZERO_RAY, RayOrZero, as_matrix, as_vector, non_null,
                     orthonormalize, raise_first)
from .strings import BoundedIdeal, ProjStringMonoid, bounded_ideal

DEFAULT_DEPTH = 4


class ProjectorAlphabet:
    """Named orthogonal projectors usable as string letters; a letter given
    as a ``Projector`` is taken as it is, the other matrices are validated
    by one eigensolve.  ``letters`` stacks them read-only, in order.

    The canonical rows of ``levels`` are built once: a deeper depth extends
    the levels already built, a shallower one reads a prefix, and ``alive``
    marks each row built so far whose reduction is non-null (``non_null``)
    and whose row without its leftmost letter is alive, so a null row absorbs."""

    def __init__(self, matrices: dict[str, object] | Sequence[tuple[str, object]],
                 tol: TolerancePolicy = DEFAULT_TOL):
        items = list(matrices.items()) if isinstance(matrices, dict) else list(matrices)
        if not items:
            raise UsageError("alphabet needs at least one letter")
        self.tol = tol
        self.monoid = ProjStringMonoid(tuple(name for name, _ in items))
        self.letters = _frozen(_letter_matrices([matrix for _, matrix in items], tol))
        self.dim = self.letters.shape[1]
        self.matrices: dict[str, np.ndarray] = dict(zip(self.monoid.alphabet, self.letters))
        # Level 0, the identity; _left and _first (per row of the last level) continue it.
        self._stack = _frozen(np.eye(self.dim, dtype=complex)[None])
        self.alive = _frozen(non_null(self._stack, tol))
        self._canons, self._ends = [_frozen(np.zeros(1, dtype=np.intp))], [1]
        self._left = _frozen(np.empty((len(self.letters), 0), dtype=np.intp))
        self._first = np.array([-1])

    def matrix(self, name: str) -> np.ndarray:
        try:
            return self.matrices[name]
        except KeyError:
            raise MissingNameError(f"unknown letter {name!r}") from None

    def reduce(self, letters: Sequence[str]) -> np.ndarray:
        """Product of the letter matrices in application order (rightmost
        first), a run of one letter taken once (P·P = P) as in ``levels``;
        the empty string reduces to the identity."""
        result = np.eye(self.dim, dtype=complex)
        for name in reversed([name for name, _ in itertools.groupby(letters)]):
            result = self.matrix(name) @ result
        return result

    def levels(self, depth: int) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
        """``(canons, stack, left)``: the strings up to ``depth`` as rows of a
        stack of canonical words (no letter next to itself).  ``canons[k]`` is
        the row of each string of length k, in enumeration order; row 0 is the
        identity, and level k+1 adds P_a @ R(c) for each canonical c of length
        k not starting with a.  ``left[a, c]`` is the row of a·c (c when c
        starts with a) for each row c of a string shorter than ``depth``, so
        (a,) + q has row left[a, canon(q)].  All three are read-only views of
        the rows built once; a domain over the string budget builds nothing."""
        self.monoid.check_depth(depth)
        if depth >= len(self._canons):
            self._grow(depth)
        return (self._canons[:depth + 1], self._stack[:self._ends[depth]],
                self._left[:, :self._ends[depth - 1] if depth else 0])

    def _grow(self, depth: int):
        """Build the levels after the deepest one built, up to ``depth``."""
        width, left, first = len(self.letters), self._left, self._first
        fresh = self._stack[len(self._stack) - len(first):]
        canons, ends, blocks, parents = [self._canons[-1]], [self._ends[-1]], [], []
        for _ in range(len(self._canons), depth + 1):
            start, n = left.shape[1], len(first)
            new = first != np.arange(width)[:, None]
            a, c = new.nonzero()
            cols = np.tile(np.arange(start, start + n), (width, 1))
            cols[new] = np.arange(start + n, start + n + len(a))
            left = np.hstack([left, cols])
            canons.append(_frozen(left[:, canons[-1]].reshape(-1)))
            fresh, first = self.letters[a] @ fresh[c], a
            blocks.append(fresh)
            parents.append(start + c)
            ends.append(ends[-1] + len(a))
        rows = np.concatenate(blocks)
        alive = np.concatenate([self.alive, non_null(rows, self.tol)])
        for lo, hi, parent in zip(ends, ends[1:], parents):
            alive[lo:hi] &= alive[parent]   # ||P·A|| <= ||A||: a null row absorbs
        self.alive = _frozen(alive)
        self._stack = _frozen(np.concatenate([self._stack, rows]))
        self._canons += canons[1:]
        self._ends += ends[1:]
        self._left, self._first = _frozen(left), first


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _letter_matrices(given: list, tol: TolerancePolicy) -> np.ndarray:
    """The letters' matrices, those not given as a ``Projector`` validated by
    one ``Eigh``; the first letter's error is raised, its own before a
    dimension differing from the first letter's."""
    mats = []
    for matrix in given:
        try:
            mats.append(matrix.matrix if isinstance(matrix, Projector) else as_matrix(matrix))
        except MonoidToposError as exc:
            mats.append(exc)
    if isinstance(mats[0], MonoidToposError):
        raise mats[0]
    dim = mats[0].shape[0]
    solve = [i for i, (a, matrix) in enumerate(zip(mats, given))
             if not isinstance(matrix, Projector) and not isinstance(a, MonoidToposError)
             and a.shape[0] == dim]
    solved = dict(zip(solve, Eigh(np.array([mats[i] for i in solve]), tol, raw=True).projectors()
                      if solve else []))
    out = []
    for i, (a, matrix) in enumerate(zip(mats, given)):
        if isinstance(a, MonoidToposError):
            raise a
        if i in solved:
            a = raise_first([solved[i]])[0].matrix
        elif not isinstance(matrix, Projector):
            Projector(a, tol)   # another dimension: the letter's own error comes first
        if a.shape[0] != dim:
            raise ValidationError("letters must share one dimension")
        out.append(a)
    return np.array(out)


class DensityMatrix:
    """A positive semidefinite Hermitian state, normalised to unit trace."""

    __slots__ = ("matrix",)

    def __init__(self, matrix, tol: TolerancePolicy = DEFAULT_TOL):
        eig = Eigh(as_matrix(matrix)[None], tol)
        self.matrix = raise_first(densities(eig, eig.operators()))[0].matrix

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def densities(eig: Eigh, spectra: list) -> list:
    """``DensityMatrix`` of each matrix of a decomposed stack, given its
    ``Eigh.operators`` result, or its error: Hermitian, eigenvalues (as
    ``hermitian_eig`` clusters them) no lower than -1e3·eps·scale, and a
    trace above the null threshold to divide by."""
    tol, out = eig.tol, []
    traces = np.trace(eig.matrices, axis1=1, axis2=2).real.tolist()
    for op, scale, trace, a in zip(spectra, eig.scale.tolist(), traces, eig.matrices):
        if isinstance(op, ValidationError):   # its one without snap_to: not Hermitian
            op = ValidationError("density matrix is not Hermitian")
        elif not isinstance(op, MonoidToposError):
            if min(op.eigenvalues) < -1e3 * tol.eps * scale:
                op = ValidationError("density matrix is not positive semidefinite")
            elif trace <= tol.null_threshold:
                op = ValidationError("density matrix must have positive trace")
            else:
                op = object.__new__(DensityMatrix)
                op.matrix = a / trace
        out.append(op)
    return out


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


def unit_state(alphabet: ProjectorAlphabet, psi) -> np.ndarray:
    """The unit representative of the state's ray; a null state has none."""
    return Ray(as_vector(psi, alphabet.dim), alphabet.tol).representative


def in_reduced_eigenspace(reductions: np.ndarray, state: np.ndarray, target: Subspace,
                          tol: TolerancePolicy, projective: bool = False) -> np.ndarray:
    """Entry n is True iff reductions[n] sends the state into the image of
    the target subspace under reductions[n].

    The image is spanned by the reduced target basis, orthonormalised with
    columns dropped at the null threshold.  A vector state is inside when
    its residual off the image is within the null threshold (scaled by its
    norm when that exceeds 1), so a null image is inside every image.
    With ``projective`` a null image is the absorbing point instead, which
    lies in the image exactly when the reduction drops the target's rank:
    that convention makes the ideal property a theorem.  A density matrix
    state is inside when the reduced state's trace is all kept by the
    image, so annihilated strings qualify without normalisation.

    The target basis, the state and ρ are shared by every reduction, so each
    multiplies the stack as one 2-D product over its (N·d, d) rows.
    """
    thr, (n, d, _) = tol.null_threshold, reductions.shape
    rows = reductions.reshape(n * d, d)
    images = orthonormalize((rows @ target.basis).reshape(n, d, target.dim), thr)
    if state.ndim == 2:
        # tr(RρR†) = sum of (Rρ) ∘ conj(R); the image keeps tr(W†ρW), W = R†·images
        total = ((rows @ state).reshape(n, d, d) * reductions.conj()).real.sum(axis=(1, 2))
        w = reductions.conj().transpose(0, 2, 1) @ images
        cols = w.transpose(1, 0, 2).reshape(d, -1)
        kept = (cols.conj() * (state @ cols)).real.reshape(d, n, target.dim).sum(axis=(0, 2))
        return np.abs(total - kept) <= thr * np.maximum(total, 1.0)
    w = (rows @ state).reshape(n, d)
    norm = np.linalg.norm(w, axis=1)
    residual = w - np.einsum("ndk,nk->nd", images, np.einsum("ndk,nd->nk", images.conj(), w))
    inside = np.linalg.norm(residual, axis=1) <= thr * np.maximum(norm, 1.0)
    if projective:
        rank_drop = ~images.any(axis=1).all(axis=1)
        inside = np.where(norm <= thr, rank_drop, inside)
    return inside


def rays_agree(reductions: np.ndarray, psi: np.ndarray, phi: np.ndarray,
               tol: TolerancePolicy) -> np.ndarray:
    """Entry n is True iff reductions[n] leaves the two states
    indistinguishable: both images null, or both non-null with normalised
    overlap at least 1 - eps, as in ``ray_equal``.  Each state is reduced
    by one 2-D product over the stack's (N·d, d) rows."""
    n, d, _ = reductions.shape
    rows = reductions.reshape(n * d, d)
    a, b = (rows @ psi).reshape(n, d), (rows @ phi).reshape(n, d)
    na, nb = np.linalg.norm(a, axis=1), np.linalg.norm(b, axis=1)
    alive_a, alive_b = na > tol.null_threshold, nb > tol.null_threshold
    with np.errstate(divide="ignore", invalid="ignore"):
        same = np.abs(np.einsum("ni,ni->n", a.conj(), b)) / (na * nb) >= 1.0 - tol.eps
    return np.where(alive_a, alive_b & same, ~alive_b)


def _ideal(alphabet: ProjectorAlphabet, keep: Callable[[np.ndarray], np.ndarray],
           depth: int) -> BoundedIdeal:
    """The strings whose reductions ``keep`` accepts, certified to the depth;
    ``keep`` decides each canonical row once, and the ideal keeps that
    boolean per row."""
    canons, stack, left = alphabet.levels(depth)
    return bounded_ideal(
        alphabet.monoid, lambda strings: keep(np.array([alphabet.reduce(q) for q in strings])),
        canons, keep(stack), left)


def _eigenspace_ideal(alphabet: ProjectorAlphabet, state: np.ndarray, op: HermitianOperator,
                      delta, depth: int, projective: bool = False) -> BoundedIdeal:
    if op.dim != alphabet.dim:
        raise UsageError("operator dimension does not match the alphabet")
    target = op.eigenspace(delta, alphabet.tol)
    return _ideal(alphabet, lambda stack: in_reduced_eigenspace(
        stack, state, target, alphabet.tol, projective), depth)


def valuation_vector(alphabet: ProjectorAlphabet, psi, op: HermitianOperator,
                     delta, depth: int = DEFAULT_DEPTH) -> BoundedIdeal:
    """Strings whose reduction sends the state into the reduced eigenspace
    of the proposition, certified to the given depth."""
    return _eigenspace_ideal(alphabet, unit_state(alphabet, psi), op, delta, depth)


def valuation_ray(alphabet: ProjectorAlphabet, psi, op: HermitianOperator,
                  delta, depth: int = DEFAULT_DEPTH) -> BoundedIdeal:
    """Projective version: the reduced ray must lie in the reduced
    projective eigenspace, where the absorbing point belongs to the image
    exactly when the reduction kills part of the eigenspace (rank drop)."""
    return _eigenspace_ideal(alphabet, unit_state(alphabet, psi), op, delta, depth,
                             projective=True)


def truth_ray_equal_strings(alphabet: ProjectorAlphabet, psi, phi,
                            depth: int = DEFAULT_DEPTH) -> BoundedIdeal:
    """Strings after which the two states can no longer be told apart:
    both reductions null, or both non-null on the same ray."""
    v, w = unit_state(alphabet, psi), unit_state(alphabet, phi)
    return _ideal(alphabet, lambda stack: rays_agree(stack, v, w, alphabet.tol), depth)


def valuation_density(alphabet: ProjectorAlphabet, rho: DensityMatrix,
                      op: HermitianOperator, delta, depth: int = DEFAULT_DEPTH) -> BoundedIdeal:
    """Density-matrix version: the reduced state must be fully supported
    in the reduced eigenspace, expressed through traces so annihilated
    strings qualify without any normalisation."""
    if not isinstance(rho, DensityMatrix):
        rho = DensityMatrix(rho, alphabet.tol)
    if rho.dim != alphabet.dim:
        raise UsageError("density matrix dimension does not match the alphabet")
    return _eigenspace_ideal(alphabet, rho.matrix, op, delta, depth)
