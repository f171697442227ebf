"""The per-member string universe that the view of canonical rows replaced.

``context.StringUniverse`` kept one (d, d) reduction per member string,
gathered from its alphabet's canonical rows in enumeration order, and
decided the Galois relation "q does not annihilate r" and the contextual
predicates on that stack, one row per member.  These are those bodies.
They read the package's universe only for its alphabet, depth and members,
and rebuild the per-member stack from the alphabet's levels.
"""

import numpy as np

from monoidtopos.context import RaySet
from monoidtopos.errors import ContextError, UsageError
from monoidtopos.linalg import Ray, as_vector
from monoidtopos.reduction import in_reduced_eigenspace, rays_agree


def member_reductions(universe) -> np.ndarray:
    """One reduction per member, in enumeration order."""
    alphabet = universe.alphabet
    canons, stack, _ = alphabet.levels(universe.max_len)
    return stack[np.concatenate([c[alphabet.alive[c]] for c in canons])]


def non_annihilation(universe, rays: RaySet) -> np.ndarray:
    """Entry [i, j] is True iff member i sends rays[j] above the null threshold."""
    d = universe.alphabet.dim
    if len(rays) and rays.dim != d:
        raise ContextError(f"ray set has dimension {rays.dim}, "
                           f"but the universe's strings act on dimension {d}")
    reductions = member_reductions(universe)
    images = (reductions.reshape(-1, d) @ rays.units.reshape(-1, d).T).reshape(
        len(reductions), d, len(rays))
    return np.linalg.norm(images, axis=1) > universe.tol.null_threshold


def incidence(universe, rays: RaySet) -> np.ndarray:
    root, cols = rays.lineage()
    if not len(cols):
        return np.ones((len(member_reductions(universe)), 0), dtype=bool)
    return non_annihilation(universe, root)[:, cols]


def polar_rows(xi: RaySet, universe) -> np.ndarray:
    return incidence(universe, xi).all(axis=1).nonzero()[0]


def polar_of_rows(universe, rows, candidates: RaySet) -> RaySet:
    keep = incidence(universe, candidates)[rows].all(axis=0)
    return candidates.subset(keep.nonzero()[0].tolist())


def member_rows(universe, strings) -> np.ndarray:
    index = {q: i for i, q in enumerate(universe.members)}
    try:
        return np.array([index[tuple(q)] for q in strings], dtype=int)
    except KeyError as exc:
        raise UsageError(f"string {exc.args[0]!r} is outside the universe") from None


def polar_of_rays(xi: RaySet, universe):
    return tuple(universe.members[i] for i in polar_rows(xi, universe))


def polar_of_strings(universe, strings, candidates: RaySet) -> RaySet:
    return polar_of_rows(universe, member_rows(universe, strings), candidates)


def closure_rays(xi: RaySet, universe, candidates: RaySet) -> RaySet:
    if not xi.is_subset_of(candidates):
        raise UsageError("ray set must lie inside the candidate universe")
    return polar_of_rows(universe, polar_rows(xi, universe), candidates)


def is_full(xi: RaySet, universe, candidates: RaySet) -> bool:
    closed = closure_rays(xi, universe, candidates)
    return len(closed) == len(xi) and xi.is_subset_of(closed)


def _context_members(xi: RaySet, universe, *states):
    rays = [Ray(as_vector(s, universe.alphabet.dim), xi.tol) for s in states]
    if not all(xi.contains(r) for r in rays):
        subject = "both states" if len(states) == 2 else "the state"
        raise ContextError(f"{subject} must lie in the context ray set")
    return polar_rows(xi, universe), [r.representative for r in rays]


def context_truth_equal(psi, phi, xi: RaySet, universe):
    rows, (v, w) = _context_members(xi, universe, psi, phi)
    keep = rays_agree(member_reductions(universe)[rows], v, w, universe.tol)
    return tuple(universe.members[i] for i in rows[keep])


def context_valuation(psi, op, delta, xi: RaySet, universe):
    rows, (v,) = _context_members(xi, universe, psi)
    target = op.eigenspace(delta, universe.tol)
    keep = in_reduced_eigenspace(member_reductions(universe)[rows], v, target, universe.tol)
    return tuple(universe.members[i] for i in rows[keep])
