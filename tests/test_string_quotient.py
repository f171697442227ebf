"""Strings modulo P·P = P against the full-level path on exact projectors.

Letters are stored as the exact projector onto their range, so a string
and its canonical word (each run of a repeated letter taken once) reduce
to the same operator.  ``ProjectorAlphabet.levels`` multiplies matrices
only for canonical words, L(L-1)**(k-1) of them at level k, and every
string reads its word's row.  The reference is the full-level path that
this replaced (``tests/valuation_oracle.full_levels``: L**k products per
level), run on the same snapped letters:

- ``reduce(q)`` is bit for bit the row of q's canonical word;
- ``StringUniverse`` and the four depth-certified valuations keep the same
  strings, member counts and violations as the full-level path at depths
  0-8, on qubit, qutrit and dimension-4 alphabets of three letters and of
  one letter, and on rank-1 alphabets whose products fall below a 1e-2 null
  threshold, so that the valuations have violations;
- so they do at null_threshold * (1 +- 1e-6);
- on diag(1, 1e-7), accepted as a projector within tolerance, ``a`` and
  ``aa`` agree in ``reducible``, in the universe and in the polar of a ray.
"""

import itertools

import numpy as np
import pytest

import tests.valuation_oracle as oracle
from monoidtopos.context import RaySet, StringUniverse, in_sp0, polar_of_rays, reducible
from monoidtopos.linalg import DEFAULT_TOL, Projector, TolerancePolicy
from monoidtopos.reduction import (DensityMatrix, ProjectorAlphabet, in_reduced_eigenspace,
                                   rays_agree, truth_ray_equal_strings, unit_state,
                                   valuation_density, valuation_ray, valuation_vector)
from tests.generators import (random_density, random_labeled_hermitian, random_projector,
                              random_state, random_unitary)

DEPTH = 8
ALPHABETS = [(dim, n) for dim in (2, 3, 4) for n in (3, 1)]


def seeded_alphabet(seed, dim, n_letters, tol=DEFAULT_TOL):
    rng = np.random.default_rng(seed)
    return ProjectorAlphabet({f"P{i}": random_projector(rng, dim) for i in range(n_letters)}, tol)


@pytest.mark.parametrize("n_letters", [1, 2, 3, 4])
def test_level_k_multiplies_only_the_canonical_words(n_letters):
    alphabet = seeded_alphabet(5600 + n_letters, 2, n_letters)
    canons, stack, left = alphabet.levels(DEPTH)
    # the stack holds one product per row, laid out level by level
    ends = [int(canon.max()) + 1 for canon in canons]
    counts = [b - a for a, b in zip([0] + ends, ends)]
    assert counts == [1] + [n_letters * (n_letters - 1) ** (k - 1) for k in range(1, DEPTH + 1)]
    assert len(stack) == sum(counts)
    assert left.shape == (n_letters, ends[-2])
    for k, canon in enumerate(canons):
        strings = list(itertools.product(alphabet.monoid.alphabet, repeat=k))
        assert len(canon) == len(strings) == n_letters ** k
        words = {oracle.canonical_word(q) for q in strings}
        assert len(set(canon.tolist())) == len(words)   # one row per canonical word


@pytest.mark.parametrize("dim,n_letters", ALPHABETS)
def test_reduce_is_the_canonical_row_bit_for_bit(dim, n_letters):
    alphabet = seeded_alphabet(5700 + dim, dim, n_letters)
    canons, stack, _ = alphabet.levels(6)
    for strings, canon in zip(alphabet.monoid.levels(6), canons):
        for q, row in zip(strings, stack[canon]):
            assert np.array_equal(alphabet.reduce(q), row)
            assert np.array_equal(alphabet.reduce(oracle.canonical_word(q)), row)


def full_path_universe(alphabet, depth):
    thr = alphabet.tol.null_threshold
    return [q for strings, stack in oracle.full_levels(alphabet, depth)
            for q, alive in zip(strings, np.linalg.norm(stack, 2, axis=(1, 2)) > thr) if alive]


def check_universes(alphabet, depth=DEPTH):
    expected = full_path_universe(alphabet, depth)
    for d in range(depth + 1):
        universe = StringUniverse(alphabet, d)
        assert list(universe.members) == [q for q in expected if len(q) <= d]
        for q, row in zip(universe.members, universe.reductions):
            assert np.array_equal(row, alphabet.reduce(q))
    return expected


def predicates(alphabet, seed):
    """The four valuations, each with the stack predicate it evaluates."""
    rng, dim, tol = np.random.default_rng(seed), alphabet.dim, alphabet.tol
    op = random_labeled_hermitian(rng, dim, [0.0, 1.0], tol)
    psi, phi = random_state(rng, dim), random_state(rng, dim)
    rho = DensityMatrix(random_density(rng, dim), tol)
    target = op.eigenspace([1.0], tol)
    v, w = unit_state(alphabet, psi), unit_state(alphabet, phi)
    return [
        (lambda d: valuation_vector(alphabet, psi, op, [1.0], d),
         lambda s: in_reduced_eigenspace(s, v, target, tol)),
        (lambda d: valuation_ray(alphabet, psi, op, [1.0], d),
         lambda s: in_reduced_eigenspace(s, v, target, tol, projective=True)),
        (lambda d: valuation_density(alphabet, rho, op, [1.0], d),
         lambda s: in_reduced_eigenspace(s, rho.matrix, target, tol)),
        (lambda d: truth_ray_equal_strings(alphabet, psi, phi, d),
         lambda s: rays_agree(s, v, w, tol)),
    ]


def check_valuations(alphabet, seed):
    """The four valuations at every depth to DEPTH against the certificate of
    the full-level path; the number of violations at DEPTH."""
    full = list(oracle.full_levels(alphabet, DEPTH))
    found = 0
    for valuation, keep in predicates(alphabet, seed):
        kept = [keep(stack) for _, stack in full]
        for d in range(DEPTH + 1):
            ideal = valuation(d)
            members, violations = oracle.level_ideal(
                alphabet.monoid, zip([s for s, _ in full[:d + 1]], kept[:d + 1]))
            assert ideal.members == members
            assert ideal.member_count() == len(members)
            assert ideal.violations == violations
        found += len(violations)
        members = set(ideal.members)
        sample = itertools.islice(alphabet.monoid.enumerate_strings(DEPTH), 0, None, 37)
        for q in sample:   # ``in`` reduces one string: the same bits as its level row
            assert (q in ideal) == (q in members)
    return found


@pytest.mark.parametrize("dim,n_letters", ALPHABETS)
def test_universe_and_valuations_match_the_full_level_path(dim, n_letters):
    alphabet = seeded_alphabet(5800 + dim, dim, n_letters)
    check_universes(alphabet)
    check_valuations(alphabet, 5900 + dim)


# Products of rank-1 letters decay past this threshold within DEPTH letters,
# so the valuations have violations and the universe loses strings.
COARSE = TolerancePolicy(eps=1e-9, null_threshold=1e-2)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_valuations_with_violations_match_the_full_level_path(dim):
    rng = np.random.default_rng(5850)
    alphabet = ProjectorAlphabet({f"P{i}": random_projector(rng, dim, 1) for i in range(3)},
                                 COARSE)
    assert len(check_universes(alphabet)) < alphabet.monoid.count_strings(DEPTH)
    assert check_valuations(alphabet, 5900 + dim) > 0


POLICIES = [DEFAULT_TOL, TolerancePolicy(eps=1e-9, null_threshold=1e-6)]


@pytest.mark.parametrize("seed", [6000, 6001, 6002])
@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("policy", range(len(POLICIES)))
@pytest.mark.parametrize("side", [-1, 1])
def test_quotient_at_the_null_threshold_matches_the_full_level_path(seed, dim, policy, side):
    # PQ and QP have singular values c = null_threshold * (1 + side * 1e-6),
    # as in test_level_oracle; repeated letters must not move a string across
    tol = POLICIES[policy]
    rng = np.random.default_rng(seed)
    u = random_unitary(rng, dim)
    r = dim // 2 if dim == 4 else 1
    c = tol.null_threshold * (1 + side * 1e-6)
    b = c * u[:, :r] + np.sqrt(1 - c * c) * np.exp(2j * np.pi * rng.random()) * u[:, r:2 * r]
    alphabet = ProjectorAlphabet({"P": u[:, :r] @ u[:, :r].conj().T, "Q": b @ b.conj().T,
                                  "R": random_projector(rng, dim)}, tol)
    expected = check_universes(alphabet, 6)
    assert (("P", "Q") in expected) == (("P", "P", "Q") in expected) == (side > 0)
    assert in_sp0(alphabet, ("P", "Q")) == in_sp0(alphabet, ("P", "Q", "Q", "Q")) == (side > 0)


def test_a_letter_and_its_square_agree_on_a_near_projector():
    # diag(1, 1e-7) passes the idempotence check within tolerance; it is
    # stored as diag(1, 0), so "a" and "aa" are one operator
    a = np.diag([1.0, 1e-7])
    assert np.array_equal(Projector(a).matrix, np.diag([1.0, 0.0]))
    alphabet = ProjectorAlphabet({"a": a})
    for psi in ([0.0, 1.0], [1.0, 1.0]):
        assert reducible(alphabet, ["a"], psi) == reducible(alphabet, ["a", "a"], psi)
    assert not reducible(alphabet, ["a"], [0.0, 1.0])
    universe = StringUniverse(alphabet, 3)
    assert ("a",) in universe and ("a", "a") in universe
    for psi, polar in (([0.0, 1.0], [()]),
                       ([1.0, 1.0], [(), ("a",), ("a", "a"), ("a", "a", "a")])):
        assert list(polar_of_rays(RaySet([psi]), universe)) == polar
