"""Per-string reference bodies of the eight string valuations.

These are the loops that the batched proposition kernel of ``reduction``
replaced: one string at a time, one reduction, one Gram-Schmidt over the
reduced eigenspace basis and one membership test.  They use their own
suffix-memoised ``reduce``, per-column Gram-Schmidt, ``image_subspace``
and ``in_subspace``, so they share no numerics with the level stacks or
the kernel.  States enter through their unit representative, as in the
package.  The file also keeps the tuple-level ideal certificate and the
batched kernel (a stack of tiny matmuls per shared operand) that the
canonical-row certificate and the flat products replaced.
"""

import itertools
import weakref

import numpy as np

from monoidtopos.context import RaySet, Sieve, StringUniverse, polar_of_rays
from monoidtopos.errors import ContextError, StructureError
from monoidtopos.linalg import DEFAULT_TOL, Ray, Subspace, as_vector, ray_equal
from monoidtopos.linalg import orthonormalize as batched_orthonormalize


def orthonormalize(columns, null_threshold):
    """Modified Gram-Schmidt with re-orthogonalisation on one column block;
    columns whose residual norm falls at or below the null threshold are
    dropped."""
    columns = np.asarray(columns, dtype=complex)
    if columns.ndim != 2:
        raise StructureError("expected a 2-d column block")
    basis = []
    for j in range(columns.shape[1]):
        w = columns[:, j].copy()
        for _ in range(2):
            for b in basis:
                w -= b * (b.conj() @ w)
        norm = float(np.linalg.norm(w))
        if norm > null_threshold:
            basis.append(w / norm)
    if not basis:
        return np.zeros((columns.shape[0], 0), dtype=complex)
    return np.column_stack(basis)


def image_subspace(a, k, tol=DEFAULT_TOL):
    """The image of a subspace under a matrix; rank decided at the null
    threshold."""
    a = np.asarray(a, dtype=complex)
    if a.shape[1] != k.ambient_dim:
        raise StructureError("matrix and subspace dimensions do not match")
    if k.dim == 0:
        return Subspace.zero(a.shape[0])
    return Subspace(a.shape[0], orthonormalize(a @ k.basis, tol.null_threshold))


def in_subspace(v, k, tol=DEFAULT_TOL):
    """Membership up to the null threshold; the zero vector is in every subspace."""
    v = as_vector(v, k.ambient_dim)
    residual = v - k.basis @ (k.basis.conj().T @ v)
    return float(np.linalg.norm(residual)) <= tol.null_threshold * max(float(np.linalg.norm(v)), 1.0)


_MEMOS = weakref.WeakKeyDictionary()


def reduce(alphabet, letters):
    """Reference reduction: the letter matrices multiplied right to left,
    memoised along suffixes per alphabet, so every tail of a long context
    costs one product.  Looks every letter up before memoising anything."""
    memo = _MEMOS.setdefault(alphabet, {(): np.eye(alphabet.dim, dtype=complex)})
    q = tuple(letters)
    if q in memo:
        return memo[q]
    j = 1
    while q[j:] not in memo:
        j += 1
    mats = [alphabet.matrix(name) for name in q[:j]]
    result = memo[q[j:]]
    for i in range(j - 1, -1, -1):
        result = mats[i] @ result
        memo[q[i:]] = result
    return result


def canonical_word(letters):
    """The string with each run of a repeated letter taken once; for
    projector letters (P·P = P) it reduces to the same operator."""
    q = tuple(letters)
    return tuple(a for i, a in enumerate(q) if not i or q[i - 1] != a)


def full_levels(alphabet, depth):
    """The full-level path that the canonical rows replaced: each level's
    strings and their (L**k, d, d) stack, level k+1 being every letter
    matrix times the whole stack of level k."""
    letters = np.array([alphabet.matrix(a) for a in alphabet.monoid.alphabet])[:, None]
    stack = np.eye(alphabet.dim, dtype=complex)[None]
    for k, strings in enumerate(alphabet.monoid.levels(depth)):
        if k:
            stack = (letters @ stack).reshape(-1, alphabet.dim, alphabet.dim)
        yield strings, stack


def level_ideal(monoid, levels):
    """The tuple-level certificate that the canonical-row one replaced: from
    each (strings, kept) level of ``monoid.levels``, the kept strings, and the
    single-letter extensions leaving them, by member, then letter."""
    levels, width = list(levels), len(monoid.alphabet)
    members = [q for strings, kept in levels for q in itertools.compress(strings, kept)]
    violations = [(monoid.alphabet[a], shorter[i])
                  for (shorter, was), (_, kept) in itertools.pairwise(levels)
                  for i, a in zip(*(was & ~kept.reshape(width, len(shorter))).T.nonzero())]
    return tuple(members), tuple(violations)


def string_rows(n_letters, depth):
    """``canons`` and ``left`` for ``strings.bounded_ideal`` with every string
    its own row: string i of level k is row offset_k + i, and (a,) + q is
    string a * L**k + i of level k+1."""
    sizes = [n_letters ** k for k in range(depth + 1)]
    offsets = np.cumsum([0] + sizes)
    canons = [np.arange(offsets[k], offsets[k + 1]) for k in range(depth + 1)]
    left = np.concatenate([np.empty((n_letters, 0), dtype=np.intp)] + [
        offsets[k + 1] + np.arange(n_letters)[:, None] * sizes[k] + np.arange(sizes[k])
        for k in range(depth)], axis=1)
    return canons, left


def bounded_ideal(monoid, predicate, depth):
    """Reference certificate: the members among all strings up to the depth
    (shortest first, then in ``itertools.product`` order), and each
    (letter, member) pair whose one-letter extension leaves them, found
    with a set lookup, listed by member, then by letter."""
    strings = [q for k in range(depth + 1) for q in itertools.product(monoid.alphabet, repeat=k)]
    members = [q for q, keep in zip(strings, predicate(strings)) if keep]
    member_set = set(members)
    violations = [(p, q) for q in members if len(q) < depth
                  for p in monoid.alphabet if (p,) + q not in member_set]
    return tuple(members), tuple(violations)


def unit(psi, dim, tol):
    return Ray(as_vector(psi, dim), tol).representative


# ---------------------------------------------------------------------------
# Per-string predicates


def vector_inside(mat, v, target, tol):
    return in_subspace(mat @ v, image_subspace(mat, target, tol), tol)


def ray_inside(mat, v, target, tol):
    w = mat @ v
    image = image_subspace(mat, target, tol)
    if float(np.linalg.norm(w)) <= tol.null_threshold:
        return image.dim < target.dim
    return in_subspace(w, image, tol)


def density_inside(mat, rho, target, tol):
    reduced = mat @ rho @ mat.conj().T
    total = float(np.real(np.trace(reduced)))
    inside = image_subspace(mat, target, tol)
    kept = float(np.real(np.trace(inside.projector_matrix() @ reduced)))
    return abs(total - kept) <= tol.null_threshold * max(total, 1.0)


def rays_merge(mat, v, w, tol):
    rv, rw = mat @ v, mat @ w
    nv = float(np.linalg.norm(rv)) > tol.null_threshold
    nw = float(np.linalg.norm(rw)) > tol.null_threshold
    if nv != nw:
        return False
    if not nv:
        return True
    return ray_equal(rv, rw, tol)


# ---------------------------------------------------------------------------
# The eight valuations, string by string


def _members(alphabet, depth, keep):
    return tuple(q for q in alphabet.monoid.enumerate_strings(depth) if keep(reduce(alphabet, q)))


def valuation_vector(alphabet, psi, op, delta, depth):
    v, target, tol = unit(psi, alphabet.dim, alphabet.tol), op.eigenspace(delta, alphabet.tol), alphabet.tol
    return _members(alphabet, depth, lambda mat: vector_inside(mat, v, target, tol))


def valuation_ray(alphabet, psi, op, delta, depth):
    v, target, tol = unit(psi, alphabet.dim, alphabet.tol), op.eigenspace(delta, alphabet.tol), alphabet.tol
    return _members(alphabet, depth, lambda mat: ray_inside(mat, v, target, tol))


def valuation_density(alphabet, rho, op, delta, depth):
    target, tol = op.eigenspace(delta, alphabet.tol), alphabet.tol
    return _members(alphabet, depth, lambda mat: density_inside(mat, rho.matrix, target, tol))


def truth_ray_equal_strings(alphabet, psi, phi, depth):
    tol = alphabet.tol
    v, w = unit(psi, alphabet.dim, tol), unit(phi, alphabet.dim, tol)
    return _members(alphabet, depth, lambda mat: rays_merge(mat, v, w, tol))


def context_truth_equal(psi, phi, xi: RaySet, universe: StringUniverse):
    alphabet = universe.alphabet
    v, w = unit(psi, alphabet.dim, xi.tol), unit(phi, alphabet.dim, xi.tol)
    if not (xi.contains(Ray(v, xi.tol)) and xi.contains(Ray(w, xi.tol))):
        raise ContextError("both states must lie in the context ray set")
    return tuple(q for q in polar_of_rays(xi, universe)
                 if ray_equal(reduce(alphabet, q) @ v, reduce(alphabet, q) @ w, alphabet.tol))


def context_valuation(psi, op, delta, xi: RaySet, universe: StringUniverse):
    alphabet = universe.alphabet
    v = unit(psi, alphabet.dim, xi.tol)
    if not xi.contains(Ray(v, xi.tol)):
        raise ContextError("the state must lie in the context ray set")
    target = op.eigenspace(delta, alphabet.tol)
    return tuple(q for q in polar_of_rays(xi, universe)
                 if vector_inside(reduce(alphabet, q), v, target, alphabet.tol))


def _reducible(alphabet, q, v):
    return float(np.linalg.norm(reduce(alphabet, q) @ v)) > alphabet.tol.null_threshold


def sieve_truth_equal(alphabet, psi, phi, context):
    q = alphabet.monoid.check_string(context)
    v, w = unit(psi, alphabet.dim, alphabet.tol), unit(phi, alphabet.dim, alphabet.tol)
    if not (_reducible(alphabet, q, v) and _reducible(alphabet, q, w)):
        raise ContextError("both states must be reducible at the context")
    p = len(q)
    return Sieve(q, frozenset(k for k in range(p + 1) if ray_equal(
        reduce(alphabet, q[p - k:]) @ v, reduce(alphabet, q[p - k:]) @ w, alphabet.tol)))


def sieve_valuation(alphabet, psi, op, delta, context):
    q = alphabet.monoid.check_string(context)
    v = unit(psi, alphabet.dim, alphabet.tol)
    if not _reducible(alphabet, q, v):
        raise ContextError("the state must be reducible at the context")
    target = op.eigenspace(delta, alphabet.tol)
    p = len(q)
    return Sieve(q, frozenset(k for k in range(p + 1) if vector_inside(
        reduce(alphabet, q[p - k:]), v, target, alphabet.tol)))


# ---------------------------------------------------------------------------
# The batched kernel that the flat products replaced: every reduction
# multiplied by the shared operands as a stack of tiny matmuls


def batched_in_reduced_eigenspace(reductions, state, target, tol, projective=False):
    thr = tol.null_threshold
    images = batched_orthonormalize(reductions @ target.basis, thr)
    if state.ndim == 2:
        reduced = reductions @ state @ reductions.conj().transpose(0, 2, 1)
        total = np.trace(reduced, axis1=1, axis2=2).real
        kept = np.einsum("nik,nij,njk->n", images.conj(), reduced, images).real
        return np.abs(total - kept) <= thr * np.maximum(total, 1.0)
    w = reductions @ state
    norm = np.linalg.norm(w, axis=1)
    residual = w - (images @ (images.conj().transpose(0, 2, 1) @ w[..., None]))[..., 0]
    inside = np.linalg.norm(residual, axis=1) <= thr * np.maximum(norm, 1.0)
    if projective:
        rank_drop = ~images.any(axis=1).all(axis=1)
        inside = np.where(norm <= thr, rank_drop, inside)
    return inside


def batched_rays_agree(reductions, psi, phi, tol):
    a, b = reductions @ psi, reductions @ phi
    na, nb = np.linalg.norm(a, axis=1), np.linalg.norm(b, axis=1)
    alive_a, alive_b = na > tol.null_threshold, nb > tol.null_threshold
    with np.errstate(divide="ignore", invalid="ignore"):
        same = np.abs(np.einsum("ni,ni->n", a.conj(), b)) / (na * nb) >= 1.0 - tol.eps
    return np.where(alive_a, alive_b & same, ~alive_b)
