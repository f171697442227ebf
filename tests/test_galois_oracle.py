"""The batched Galois connection against the per-pair reference oracle.

The oracle is the loop that ``context.py`` replaced: it decides "string q
does not annihilate ray psi" one (string, ray) pair at a time, with one
mat-vec and one norm, and ray-set membership one ``ray_equal`` call at a
time.  On seeded qubit, qutrit and dimension-4 alphabets the batched
polars, closures, ``is_full`` and ray-set operations must give exactly the
oracle's answers, also for rays placed just either side of the null
threshold (and exactly on it), and for pairs of rays whose overlap lies
just either side of 1 - eps (and exactly on it).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoidtopos import context
from monoidtopos.context import (RaySet, StringUniverse, closure_rays, is_full,
                                 polar_of_rays, polar_of_strings)
from monoidtopos.errors import StructureError, UsageError, ValidationError
from monoidtopos.linalg import DEFAULT_TOL, Ray, TolerancePolicy, ray_equal
from monoidtopos.reduction import ProjectorAlphabet
from tests.conftest import PPLUS, PZ
from tests.valuation_oracle import reduce
from tests.generators import random_projector, random_state

# The default policy, and one whose null threshold differs from its eps.
POLICIES = [DEFAULT_TOL, TolerancePolicy(eps=1e-9, null_threshold=1e-6)]


# ---------------------------------------------------------------------------
# Oracles: the per-pair bodies


def annihilates(alphabet, q, ray) -> bool:
    image = reduce(alphabet, q) @ ray.representative
    return float(np.linalg.norm(image)) <= alphabet.tol.null_threshold


def oracle_polar_of_rays(xi, universe):
    alphabet = universe.alphabet
    return tuple(q for q in universe.members
                 if all(not annihilates(alphabet, q, ray) for ray in xi))


def oracle_polar_of_strings(universe, strings, candidates):
    subset = [tuple(q) for q in strings]
    if any(q not in universe.members for q in subset):
        raise UsageError("string is outside the universe")
    alphabet = universe.alphabet
    return tuple(ray for ray in candidates.rays
                 if all(not annihilates(alphabet, q, ray) for q in subset))


def oracle_index_of(rays, ray, tol):
    return next((i for i, r in enumerate(rays) if r.same_ray(ray, tol)), None)


def oracle_is_subset(rays, others, tol) -> bool:
    return all(oracle_index_of(others, r, tol) is not None for r in rays)


def oracle_has_duplicate(rays, tol) -> bool:
    return any(rays[i].same_ray(rays[j], tol)
               for j in range(len(rays)) for i in range(j))


def oracle_closure_rays(xi, universe, candidates):
    if not oracle_is_subset(xi.rays, candidates.rays, candidates.tol):
        raise UsageError("ray set must lie inside the candidate universe")
    return oracle_polar_of_strings(universe, oracle_polar_of_rays(xi, universe), candidates)


def oracle_is_full(xi, universe, candidates) -> bool:
    closed = oracle_closure_rays(xi, universe, candidates)
    return len(closed) == len(xi) and oracle_is_subset(xi.rays, closed, xi.tol)


# ---------------------------------------------------------------------------
# Seeded alphabets and rays near the null threshold


def make_alphabet(rng, dim, tol):
    letters = {f"P{i}": random_projector(rng, dim) for i in range(3)}
    if dim == 2:
        letters["P0"] = PZ
        letters["P1"] = PPLUS
    return ProjectorAlphabet(letters, tol)


def near_threshold_vector(alphabet, q, rng, side: int) -> np.ndarray:
    """A unit vector that the string's reduction sends to a norm of
    null_threshold * (1 + side * 1e-6): a kernel vector tilted towards the
    top right singular vector."""
    _, sigma, vh = np.linalg.svd(reduce(alphabet, q))
    kernel = vh[sigma <= 1e-12].conj().T
    k = kernel @ random_state(rng, kernel.shape[1])
    top = vh[0].conj()
    sin = alphabet.tol.null_threshold * (1 + side * 1e-6) / sigma[0]
    return np.sqrt(1 - sin ** 2) * k + sin * top


def tie_vector(tol) -> np.ndarray:
    """A vector whose ray P_z sends to a norm of exactly the null threshold."""
    t = tol.null_threshold
    x = t * np.sqrt(1 + t * t)
    for _ in range(400):
        v = np.array([x, 1.0], dtype=complex)
        rep = Ray(v, tol).representative
        if float(np.linalg.norm(PZ @ rep)) == t:
            return v
        x = np.nextafter(x, 2 * t if abs(rep[0]) < t else 0.0)
    raise AssertionError("no vector found at the threshold")


def candidate_vectors(alphabet, universe, rng):
    """Basis and random states, a ray on the threshold of P_z for the qubit,
    and rays just either side of the threshold for strings with a kernel;
    a vector that would duplicate an earlier ray is left out."""
    dim, tol = alphabet.dim, alphabet.tol
    vectors = ([tie_vector(tol)] if dim == 2 else []) + list(np.eye(dim))
    near = []
    kernel_strings = [q for q in universe.members
                      if np.linalg.svd(reduce(alphabet, q), compute_uv=False)[-1] <= 1e-12]
    for n, q in enumerate(kernel_strings[:12]):
        side = 1 if n % 2 else -1
        near.append((q, side, Ray(near_threshold_vector(alphabet, q, rng, side), tol)))
    rays = [Ray(v, tol) for v in vectors] + [ray for _, _, ray in near]
    rays += [Ray(random_state(rng, dim), tol) for _ in range(6)]
    kept = []
    for ray in rays:
        if not any(ray.same_ray(r, tol) for r in kept):
            kept.append(ray)
    return kept, near


CASES = [(dim, policy) for dim in (2, 3, 4) for policy in range(len(POLICIES))]


@pytest.mark.parametrize("dim,policy", CASES)
def test_batched_galois_connection_matches_the_per_pair_oracle(dim, policy):
    tol = POLICIES[policy]
    rng = np.random.default_rng(4100 + 10 * dim + policy)
    alphabet = make_alphabet(rng, dim, tol)
    universe = StringUniverse(alphabet, 3 if dim < 4 else 2)
    rays, near = candidate_vectors(alphabet, universe, rng)
    candidates = RaySet(rays, tol)
    members = list(universe.members)

    # The constructed rays straddle the threshold as intended, and
    # candidates on both sides of it survive the duplicate filter.
    assert all(annihilates(alphabet, q, ray) == (side < 0) for q, side, ray in near)
    assert {side for _, side, ray in near if ray in rays} == {-1, 1}
    if dim == 2:
        tie = Ray(tie_vector(tol), tol)
        assert annihilates(alphabet, ("P0",), tie)
        assert ("P0",) not in polar_of_rays(RaySet([tie], tol), universe)

    for _ in range(25):
        xi = candidates.subset(int(i) for i in
                               rng.choice(len(candidates), size=int(rng.integers(0, 5)),
                                          replace=False))
        j = [q for q in members if rng.random() < 0.3]
        assert polar_of_rays(xi, universe) == oracle_polar_of_rays(xi, universe)
        r1 = polar_of_strings(universe, j, candidates)
        assert r1.rays == oracle_polar_of_strings(universe, j, candidates)
        for rs in (xi, r1):
            assert closure_rays(rs, universe, candidates).rays == oracle_closure_rays(
                rs, universe, candidates)
            assert is_full(rs, universe, candidates) == oracle_is_full(rs, universe, candidates)
    # Each near-threshold ray on its own, against its string and the rest.
    for q, _, ray in near:
        xi = RaySet([ray], tol)
        assert polar_of_rays(xi, universe) == oracle_polar_of_rays(xi, universe)
        assert (polar_of_strings(universe, [q], candidates).rays
                == oracle_polar_of_strings(universe, [q], candidates))


def test_closure_outside_the_candidates_is_rejected_like_the_oracle():
    tol = DEFAULT_TOL
    alphabet = make_alphabet(np.random.default_rng(7), 2, tol)
    universe = StringUniverse(alphabet, 2)
    candidates = RaySet([[1, 0], [0, 1]], tol)
    outside = RaySet([[1, 1]], tol)
    with pytest.raises(UsageError):
        oracle_closure_rays(outside, universe, candidates)
    with pytest.raises(UsageError):
        closure_rays(outside, universe, candidates)


# ---------------------------------------------------------------------------
# Ray sets: membership and the duplicate check


def tilted(rng, base: np.ndarray, overlap: float) -> np.ndarray:
    """A unit vector whose overlap with the unit vector ``base`` has
    modulus ``overlap``, with a random phase."""
    g = random_state(rng, base.shape[0])
    perp = g - base * np.vdot(base, g)
    perp /= np.linalg.norm(perp)
    phase = np.exp(2j * np.pi * rng.random())
    return phase * (overlap * base + np.sqrt(1 - overlap ** 2) * perp)


def overlap_tie(tol):
    """Two vectors whose normalised overlap is exactly 1 - eps."""
    c = 1.0 - tol.eps
    s = np.sqrt(1 - c * c)
    for _ in range(400):
        b = np.array([c, s], dtype=complex)
        norm = float(np.linalg.norm(b))
        if norm == 1.0 and np.linalg.norm(b[:, None], axis=0)[0] == 1.0:
            return np.array([1.0, 0.0], dtype=complex), b
        s = np.nextafter(s, 0.0 if norm > 1.0 else 1.0)
    raise AssertionError("no overlap found at 1 - eps")


@pytest.mark.parametrize("eps", [1e-9, 1e-3])
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_ray_set_membership_matches_ray_equal(dim, eps):
    tol = TolerancePolicy(eps=eps)
    rng = np.random.default_rng(4200 + dim + int(eps < 1e-6))
    margin = 1e-3 if eps < 1e-6 else 1e-6
    bases = [random_state(rng, dim) for _ in range(5)]
    members = [Ray(b, tol) for b in bases]
    queries = [Ray(b, tol) for b in bases]
    for b in bases:
        for side in (-1, 1):
            queries.append(Ray(tilted(rng, b, 1 - eps * (1 + side * margin)), tol))
    queries += [Ray(random_state(rng, dim), tol) for _ in range(5)]
    if dim == 2:
        a, b = overlap_tie(tol)
        assert ray_equal(a, b, tol)
        members.append(Ray(a, tol))
        queries.append(Ray(b, tol))
    ray_set = RaySet(members, tol)
    hits = 0
    for query in queries:
        expected = oracle_index_of(members, query, tol)
        assert ray_set.contains(query) == (expected is not None)
        if expected is None:
            with pytest.raises(UsageError):
                ray_set.index_of(query)
        else:
            hits += 1
            assert ray_set.index_of(query) == expected
            assert ray_set.index_of(query.representative) == expected
    assert 0 < hits < len(queries)
    for _ in range(20):
        picked = [q for q in queries if rng.random() < 0.3]
        # picked may hold one ray twice, which RaySet() rejects: take its rows as given
        sub = RaySet._rows(np.array([q.representative for q in picked]).reshape(-1, dim), tol)
        assert sub.is_subset_of(ray_set) == oracle_is_subset(picked, members, tol)
        assert ray_set.is_subset_of(sub) == oracle_is_subset(members, picked, tol)


def test_index_of_returns_the_first_match():
    tol = TolerancePolicy(eps=1e-3)
    # a and b are distinct rays at eps 1e-3; the query, halfway between
    # them, is within eps of both.
    angle = 1.5 * np.sqrt(2 * tol.eps)
    a, b, query = (np.array([np.cos(x), np.sin(x), 0.0]) for x in (0.0, angle, angle / 2))
    for members in ([a, b], [b, a]):
        ray_set = RaySet(members, tol)
        assert all(r.same_ray(Ray(query, tol), tol) for r in ray_set)
        assert ray_set.index_of(query) == 0 == oracle_index_of(ray_set.rays, Ray(query, tol), tol)


@pytest.mark.parametrize("eps", [1e-9, 1e-3])
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_duplicate_check_matches_ray_equal(dim, eps):
    tol = TolerancePolicy(eps=eps)
    rng = np.random.default_rng(4400 + dim + int(eps < 1e-6))
    margin = 1e-3 if eps < 1e-6 else 1e-6
    outcomes = set()
    for _ in range(30):
        vectors = [random_state(rng, dim) for _ in range(int(rng.integers(1, 5)))]
        base = vectors[int(rng.integers(0, len(vectors)))]
        side = int(rng.choice([-1, 1]))
        vectors.insert(int(rng.integers(0, len(vectors) + 1)),
                       tilted(rng, base, 1 - eps * (1 + side * margin)))
        rays = [Ray(v, tol) for v in vectors]
        duplicate = oracle_has_duplicate(rays, tol)
        outcomes.add(duplicate)
        if duplicate:
            with pytest.raises(ValidationError):
                RaySet(vectors, tol)
        else:
            assert len(RaySet(vectors, tol)) == len(vectors)
    assert outcomes == {True, False}
    if dim == 2:
        a, b = overlap_tie(tol)
        with pytest.raises(ValidationError):
            RaySet([a, b], tol)


def test_ray_sets_of_different_dimensions_are_a_structure_error():
    with pytest.raises(StructureError):
        RaySet([[1, 0], [0, 1, 0]])
    with pytest.raises(StructureError):
        RaySet([[1, 0]]).contains([1, 0, 0])


# ---------------------------------------------------------------------------
# The incidence cache: one matrix per universe and root ray set


def assert_galois_matches_oracle(universe, candidates, xi, strings):
    """Both polars, the closure and fullness of ``xi`` against the oracle;
    a set outside the candidates is refused by both."""
    assert polar_of_rays(xi, universe) == oracle_polar_of_rays(xi, universe)
    assert (polar_of_strings(universe, strings, candidates).rays
            == oracle_polar_of_strings(universe, strings, candidates))
    try:
        expected = oracle_closure_rays(xi, universe, candidates)
    except UsageError:
        with pytest.raises(UsageError, match="^ray set must lie inside the candidate universe$"):
            closure_rays(xi, universe, candidates)
        return
    assert closure_rays(xi, universe, candidates).rays == expected
    assert is_full(xi, universe, candidates) == oracle_is_full(xi, universe, candidates)


def straddling_rays(alphabets, universe, rng):
    """Rays sent just below and just above each alphabet's null threshold by
    strings with a kernel, with basis and random rays; near-duplicates dropped."""
    tol = alphabets[0].tol
    rays = [Ray(v, tol) for v in np.eye(alphabets[0].dim)]
    kernel_strings = [q for q in universe.members
                      if np.linalg.svd(reduce(alphabets[0], q), compute_uv=False)[-1] <= 1e-12]
    assert kernel_strings
    for alphabet in alphabets:
        for n, q in enumerate(kernel_strings[:6]):
            rays.append(Ray(near_threshold_vector(alphabet, q, rng, 1 if n % 2 else -1), tol))
    rays += [Ray(random_state(rng, alphabets[0].dim), tol) for _ in range(4)]
    kept = []
    for ray in rays:
        if not any(ray.same_ray(r, tol) for r in kept):
            kept.append(ray)
    return kept


def random_draws(rng, n_rays, members, count):
    for _ in range(count):
        picked = rng.choice(n_rays, size=int(rng.integers(0, 5)), replace=False)
        yield picked.tolist(), [q for q in members if rng.random() < 0.3]


def spy(fn, calls):
    """``fn``, recording the arguments of each call in ``calls``."""
    def wrapped(*args):
        calls.append(args)
        return fn(*args)
    return wrapped


@pytest.mark.parametrize("dim", [2, 3])
def test_one_universe_against_two_candidate_sets(dim):
    rng = np.random.default_rng(4600 + dim)
    alphabet = make_alphabet(rng, dim, DEFAULT_TOL)
    universe = StringUniverse(alphabet, 3)
    rays = straddling_rays([alphabet], universe, rng)
    half = len(rays) // 2
    first, second = RaySet(rays[:half + 2], DEFAULT_TOL), RaySet(rays[half - 2:], DEFAULT_TOL)
    for (picked, strings), candidates in zip(random_draws(rng, half, universe.members, 30),
                                             [first, second] * 15):
        xi = candidates.subset(picked)
        assert_galois_matches_oracle(universe, candidates, xi, strings)
        # the same subset against the other set: a set that is not a relative
        other = second if candidates is first else first
        assert_galois_matches_oracle(universe, other, xi, strings)
    assert set(universe.incidence) == {first, second}


def test_one_candidate_set_against_two_null_thresholds():
    rng = np.random.default_rng(4700)
    letters = {f"P{i}": random_projector(rng, 3) for i in range(3)}
    policies = [TolerancePolicy(eps=1e-9, null_threshold=t) for t in (1e-9, 1e-6)]
    alphabets = [ProjectorAlphabet(letters, tol) for tol in policies]
    universes = [StringUniverse(alphabet, 3) for alphabet in alphabets]
    candidates = RaySet(straddling_rays(alphabets, universes[0], rng), policies[0])
    # each universe tells the rays straddling its own threshold apart
    verdicts = [[polar_of_rays(candidates.subset([i]), u) for u in universes]
                for i in range(len(candidates))]
    assert any(a != b for a, b in verdicts)
    for picked, strings in random_draws(rng, len(candidates), universes[0].members, 30):
        xi = candidates.subset(picked)
        for universe in universes + universes[::-1]:
            kept = [q for q in strings if q in universe]
            assert_galois_matches_oracle(universe, candidates, xi, kept)
    assert [list(u.incidence) for u in universes] == [[candidates], [candidates]]


def test_a_subset_of_a_subset_shares_the_root():
    rng = np.random.default_rng(4800)
    alphabet = make_alphabet(rng, 3, DEFAULT_TOL)
    universe = StringUniverse(alphabet, 3)
    candidates = RaySet(straddling_rays([alphabet], universe, rng), DEFAULT_TOL)
    for picked, strings in random_draws(rng, len(candidates), universe.members, 20):
        outer = candidates.subset(picked + [0, len(candidates) - 1])
        inner = outer.subset(i for i in range(len(outer)) if rng.random() < 0.5)
        root, rows = inner.lineage()
        assert root is candidates
        assert all(a is candidates.rays[i] for a, i in zip(inner.rays, rows.tolist()))
        assert inner.rays == tuple(r for r in outer.rays if r in inner.rays)
        for xi, cands in ((inner, candidates), (inner, outer), (outer, inner)):
            assert_galois_matches_oracle(universe, cands, xi, strings)
    assert list(universe.incidence) == [candidates]


def test_a_set_of_the_same_vectors_that_is_not_a_relative_takes_the_fallback(monkeypatch):
    rng = np.random.default_rng(4900)
    alphabet = make_alphabet(rng, 2, DEFAULT_TOL)
    universe = StringUniverse(alphabet, 3)
    candidates = RaySet(straddling_rays([alphabet], universe, rng), DEFAULT_TOL)
    calls = []
    monkeypatch.setattr(context, "_same_rays", spy(context._same_rays, calls))
    for picked, strings in random_draws(rng, len(candidates), universe.members, 20):
        xi = candidates.subset(picked)
        twin = RaySet._rows(xi.units.copy(), xi.tol)
        before = len(calls)
        assert twin.is_subset_of(candidates) and candidates.is_subset_of(candidates)
        assert len(calls) == before + 1   # the twin's test only
        assert_galois_matches_oracle(universe, candidates, twin, strings)
        assert closure_rays(twin, universe, candidates).rays == closure_rays(
            xi, universe, candidates).rays
        assert polar_of_rays(twin, universe) == polar_of_rays(xi, universe)
        assert (twin in universe.incidence) == bool(len(twin))   # an empty set needs none
    # a root set's matrix goes with the set
    del twin
    assert list(universe.incidence) == [candidates]


def test_empty_subsets_match_the_oracle():
    rng = np.random.default_rng(5000)
    alphabet = make_alphabet(rng, 2, DEFAULT_TOL)
    universe = StringUniverse(alphabet, 3)
    candidates = RaySet(straddling_rays([alphabet], universe, rng), DEFAULT_TOL)
    empty = candidates.subset([])
    for strings in ([], list(universe.members), [("P0",), ("P1", "P0")]):
        assert_galois_matches_oracle(universe, candidates, empty, strings)
        assert_galois_matches_oracle(universe, empty, empty, strings)
    assert polar_of_rays(empty, universe) == universe.members
    assert polar_of_strings(universe, universe.members, empty).rays == ()
    # an empty set needs no relation, so its root's dimension is not checked
    qutrits = RaySet(np.eye(3))
    assert polar_of_rays(qutrits.subset([]), universe) == universe.members
    assert polar_of_strings(universe, [("P0",)], qutrits.subset([])).rays == ()


# ---------------------------------------------------------------------------
# Subset tests by index, and the work of a draw


def same_rays_answer(a: RaySet, b: RaySet) -> bool:
    return bool(context._same_rays(b.units, a.units, b.tol).any(axis=0).all())


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([2, 3, 4]), st.sampled_from([1e-9, 1e-3]))
def test_subset_by_index_is_the_overlap_answer_on_relatives(seed, dim, eps):
    rng = np.random.default_rng(seed)
    tol = TolerancePolicy(eps=eps)
    rays = []
    for _ in range(int(rng.integers(1, 9))):
        ray = Ray(random_state(rng, dim), tol)
        if not any(ray.same_ray(r, tol) for r in rays):
            rays.append(ray)
    root = RaySet(rays, tol)

    def relative(depth):
        rs = root
        for _ in range(depth):
            rs = rs.subset(i for i in range(len(rs)) if rng.random() < 0.6)
        return rs

    sets = [relative(int(rng.integers(0, 3))) for _ in range(5)]
    for a in sets:
        for b in sets:
            assert a.lineage()[0] is b.lineage()[0] is root
            assert a.is_subset_of(b) == same_rays_answer(a, b)
            assert a.is_subset_of(b) == oracle_is_subset(a.rays, b.rays, tol)


def test_a_relative_outside_a_subset_of_candidates_is_refused():
    tol = DEFAULT_TOL
    alphabet = make_alphabet(np.random.default_rng(5100), 2, tol)
    universe = StringUniverse(alphabet, 2)
    root = RaySet([[1, 0], [0, 1], [1, 1], [1, -1]], tol)
    candidates, outside = root.subset([0, 1, 2]), root.subset([1, 3])
    for xi in (outside, RaySet([[1, -1]], tol)):
        with pytest.raises(UsageError, match="^ray set must lie inside the candidate universe$"):
            oracle_closure_rays(xi, universe, candidates)
        with pytest.raises(UsageError, match="^ray set must lie inside the candidate universe$"):
            closure_rays(xi, universe, candidates)
    assert closure_rays(root.subset([1]), universe, candidates).rays == oracle_closure_rays(
        root.subset([1]), universe, candidates)


def test_twenty_draws_fill_the_incidence_once_and_test_subsets_by_index(monkeypatch):
    rng = np.random.default_rng(5200)
    alphabet = make_alphabet(rng, 4, DEFAULT_TOL)
    universe = StringUniverse(alphabet, 3)
    candidates = RaySet([random_state(rng, 4) for _ in range(24)])
    filled, compared = [], []
    monkeypatch.setattr(context, "_non_annihilation", spy(context._non_annihilation, filled))
    monkeypatch.setattr(context, "_same_rays", spy(context._same_rays, compared))
    members = universe.members
    for _ in range(20):   # the draws of the strings benchmark workload
        xi_idx = {int(i) for i in rng.integers(0, 24, size=4)}
        xi, bigger = candidates.subset(xi_idx), candidates.subset(xi_idx | {int(rng.integers(0, 24))})
        j = [q for q in members if rng.random() < 0.3]
        r1 = polar_of_strings(universe, j, candidates)
        r2 = polar_of_strings(universe, j + [members[int(rng.integers(0, len(members)))]],
                              candidates)
        assert set(polar_of_rays(bigger, universe)) <= set(polar_of_rays(xi, universe))
        assert r2.is_subset_of(r1) and xi.is_subset_of(closure_rays(xi, universe, candidates))
        assert set(j) <= set(polar_of_rays(r1, universe))
        assert closure_rays(r1, universe, candidates).rays == r1.rays
        assert is_full(r1, universe, candidates)
    assert filled == [(universe, candidates)]
    assert compared == []
