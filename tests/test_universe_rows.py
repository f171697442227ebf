"""String universes as views of their alphabet's canonical rows.

A ``StringUniverse`` keeps its alphabet's ``canons`` and ``stack`` and each
member's canonical row (``rows``); the Galois relation and the contextual
predicates are decided once per canonical row and read by each member
through ``rows``.  The reference is the per-member path this replaced
(``tests/universe_oracle.py``: one reduction per member, and the relation
and the predicates decided on that stack):

- polars, ``closure_rays``, ``is_full``, ``context_truth_equal`` and
  ``context_valuation`` give the oracle's answers, result for result, on
  seeded alphabets of dimension 2-4 with 2 or 3 letters, at depths 0-6,
  under three tolerance policies, and for letters whose products have
  singular values null_threshold * (1 +- 1e-6), against rays sent just
  either side of the threshold;
- ``ProjectorAlphabet.tails`` is bit for bit the running-product loop that
  ``context`` ran, on contexts with runs of one letter, and ``reduce`` is
  its last row;
- a depth-12 qutrit universe (797,161 members) counts its members without
  decoding one and closes a ray set over 8 candidates in bounded memory.
"""

import tracemalloc

import numpy as np
import pytest

import tests.universe_oracle as oracle
from monoidtopos.context import (RaySet, StringUniverse, closure_rays, context_truth_equal,
                                 context_valuation, is_full, polar_of_rays, polar_of_strings)
from monoidtopos.linalg import DEFAULT_TOL, Ray, TolerancePolicy
from monoidtopos.reduction import ProjectorAlphabet
from tests.generators import (random_labeled_hermitian, random_projector, random_state,
                              random_unitary)
from tests.test_galois_oracle import near_threshold_vector
from tests.test_row_valuations import count_decoded
from tests.valuation_oracle import reduce, running_tails

POLICIES = [DEFAULT_TOL, TolerancePolicy(eps=1e-9, null_threshold=1e-6),
            TolerancePolicy(eps=1e-9, null_threshold=1e-2)]
DEPTH = 6


def candidate_rays(alphabet, rng):
    """Basis and random rays, and rays that strings with a kernel send just
    below and just above the null threshold; a repeated ray left out."""
    tol = alphabet.tol
    universe = StringUniverse(alphabet, 3)
    kernel_strings = [q for q in universe.members[1:]
                      if np.linalg.svd(reduce(alphabet, q), compute_uv=False)[-1] <= 1e-12]
    vectors = list(np.eye(alphabet.dim)) + [random_state(rng, alphabet.dim) for _ in range(4)]
    vectors += [near_threshold_vector(alphabet, q, rng, 1 if n % 2 else -1)
                for n, q in enumerate(kernel_strings[:8])]
    kept = []
    for ray in (Ray(v, tol) for v in vectors):
        if not any(ray.same_ray(r, tol) for r in kept):
            kept.append(ray)
    return RaySet(kept, tol)


def same_rays(got: RaySet, expected: RaySet) -> bool:
    (root, rows), (other, other_rows) = got.lineage(), expected.lineage()
    return root is other and rows.tolist() == other_rows.tolist()


def assert_matches_the_per_member_path(alphabet, candidates, rng, draws=6):
    op = random_labeled_hermitian(rng, alphabet.dim, [0.0, 1.0], alphabet.tol)
    for depth in range(DEPTH + 1):
        universe = StringUniverse(alphabet, depth)
        members = universe.members
        for _ in range(draws):
            picked = rng.choice(len(candidates), size=int(rng.integers(0, 4)), replace=False)
            xi = candidates.subset(picked.tolist())
            strings = [q for q in members if rng.random() < 0.3]
            assert polar_of_rays(xi, universe) == oracle.polar_of_rays(xi, universe)
            r1 = polar_of_strings(universe, strings, candidates)
            assert same_rays(r1, oracle.polar_of_strings(universe, strings, candidates))
            for rs in (xi, r1):
                assert same_rays(closure_rays(rs, universe, candidates),
                                 oracle.closure_rays(rs, universe, candidates))
                assert is_full(rs, universe, candidates) == oracle.is_full(rs, universe, candidates)
            for context in (xi, r1):
                if not len(context):
                    continue
                psi, phi = context.units[0], context.units[-1]
                assert (context_truth_equal(psi, phi, context, universe)
                        == oracle.context_truth_equal(psi, phi, context, universe))
                assert (context_valuation(psi, op, [1.0], context, universe)
                        == oracle.context_valuation(psi, op, [1.0], context, universe))


@pytest.mark.parametrize("policy", range(len(POLICIES)))
@pytest.mark.parametrize("n_letters", [2, 3])
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_universe_view_matches_the_per_member_path(dim, n_letters, policy):
    tol = POLICIES[policy]
    rng = np.random.default_rng(6300 + 10 * dim + 3 * n_letters + policy)
    alphabet = ProjectorAlphabet(
        {f"P{i}": random_projector(rng, dim) for i in range(n_letters)}, tol)
    assert_matches_the_per_member_path(alphabet, candidate_rays(alphabet, rng), rng)


@pytest.mark.parametrize("side", [-1, 1])
@pytest.mark.parametrize("policy", range(len(POLICIES)))
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_universe_view_at_the_null_threshold_matches_the_per_member_path(dim, policy, side):
    # PQ and QP have singular values null_threshold * (1 + side * 1e-6), as in
    # test_level_oracle, and the candidates straddle the threshold of strings
    tol = POLICIES[policy]
    rng = np.random.default_rng(6400 + 10 * dim + policy)
    u = random_unitary(rng, dim)
    r = dim // 2 if dim == 4 else 1
    c = tol.null_threshold * (1 + side * 1e-6)
    b = c * u[:, :r] + np.sqrt(1 - c * c) * np.exp(2j * np.pi * rng.random()) * u[:, r:2 * r]
    alphabet = ProjectorAlphabet({"P": u[:, :r] @ u[:, :r].conj().T, "Q": b @ b.conj().T,
                                  "R": random_projector(rng, dim)}, tol)
    assert (("P", "Q") in StringUniverse(alphabet, 2)) == (side > 0)
    assert_matches_the_per_member_path(alphabet, candidate_rays(alphabet, rng), rng)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_tails_are_the_running_products_bit_for_bit(dim):
    rng = np.random.default_rng(6500 + dim)
    alphabet = ProjectorAlphabet({f"P{i}": random_projector(rng, dim) for i in range(3)})
    names = alphabet.monoid.alphabet
    contexts = [(), ("P0",), ("P1", "P1"), ("P2", "P2", "P2", "P0")]
    for _ in range(20):   # runs of one letter, of random lengths
        runs = rng.integers(0, 3, size=int(rng.integers(1, 8)))
        contexts.append(tuple(names[a] for a in runs for _ in range(int(rng.integers(1, 4)))))
    for q in contexts:
        tails = alphabet.tails(q)
        assert tails.shape == (len(q) + 1, dim, dim)
        assert np.array_equal(tails, running_tails(alphabet, q))
        assert np.array_equal(alphabet.reduce(q), tails[-1])


def test_a_depth_twelve_qutrit_universe_closes_in_bounded_memory(monkeypatch):
    rng = np.random.default_rng(8200)
    alphabet = ProjectorAlphabet({f"P{i}": random_projector(rng, 3, 1) for i in range(3)})
    candidates = RaySet([random_state(rng, 3) for _ in range(8)])
    xi = candidates.subset([0, 1])
    decoded = count_decoded(monkeypatch)
    universe = StringUniverse(alphabet, 12)
    tracemalloc.start()
    try:
        closed = closure_rays(xi, universe, candidates)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(universe) == alphabet.monoid.count_strings(12) == 797161
    assert len(universe.stack) == 1 + 3 * (2 ** 12 - 1)
    assert xi.is_subset_of(closed) and decoded == []
    assert peak < 64 * 2 ** 20
