"""The level-by-level constructions against their per-string references.

The free monoid is built one length at a time, and each string reads the
row of its canonical word (no letter next to itself) in one stack.  The
references are the code this replaced, kept in ``tests/valuation_oracle.py``:

- the row of every string of every level must be bit for bit the
  suffix-memoised product of its canonical word, and within 1e-12 of the
  product of the whole string, on seeded qubit, qutrit and dimension-4
  alphabets to depth 6 and a dimension-16 alphabet to depth 4;
- ``StringUniverse.members`` must be the strings that ``in_sp0`` keeps, in
  enumeration order, also for strings whose largest singular value is
  null_threshold * (1 +- 1e-6);
- the row certificate of ``bounded_ideal``, given every string as its own
  row, must list the members, the count and the violations of the
  set-based loop and of the tuple-level certificate it replaced, in their
  order, on Hypothesis patterns that include non-ideals, a one-letter and
  the empty alphabet;
- no domain that enumerates strings calls ``ProjectorAlphabet.reduce``.
"""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tests.valuation_oracle as oracle
from monoidtopos.context import (RaySet, StringUniverse, closure_rays, context_truth_equal,
                                 context_valuation, in_sp0, is_full, polar_of_rays,
                                 polar_of_strings)
from monoidtopos.linalg import DEFAULT_TOL, TolerancePolicy, operator_norm
from monoidtopos.reduction import (DensityMatrix, ProjectorAlphabet,
                                   truth_ray_equal_strings, valuation_density,
                                   valuation_ray, valuation_vector)
from monoidtopos.strings import ProjStringMonoid, bounded_ideal
from tests.generators import (random_density, random_labeled_hermitian, random_projector,
                              random_state, random_unitary)

POLICIES = [DEFAULT_TOL, TolerancePolicy(eps=1e-9, null_threshold=1e-6)]


def seeded_alphabet(seed, dim, tol=DEFAULT_TOL):
    rng = np.random.default_rng(seed)
    return ProjectorAlphabet({f"P{i}": random_projector(rng, dim) for i in range(3)}, tol)


@pytest.mark.parametrize("dim,depth", [(2, 6), (3, 6), (4, 6), (16, 4)])
def test_level_stacks_equal_the_reference_reductions(dim, depth):
    alphabet = seeded_alphabet(5300 + dim, dim)
    names = alphabet.monoid.alphabet
    canons, stack, left = alphabet.levels(depth)
    assert len(canons) == depth + 1
    for k, canon in enumerate(canons):
        strings = list(itertools.product(names, repeat=k))
        assert canon.shape == (len(names) ** k,)
        if k < depth:   # (a,) + q has row left[a, canon(q)]
            assert np.array_equal(left[:, canon].reshape(-1), canons[k + 1])
        for q, row in zip(strings, stack[canon]):
            assert np.array_equal(row, oracle.reduce(alphabet, oracle.canonical_word(q)))
            assert np.allclose(row, oracle.reduce(alphabet, q), rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# The universe's non-null test


def check_universe(alphabet, depth):
    universe = StringUniverse(alphabet, depth)
    expected = [q for q in alphabet.monoid.enumerate_strings(depth) if in_sp0(alphabet, q)]
    assert list(universe.members) == expected
    assert len(universe.reductions) == len(expected)
    for q, row in zip(universe.members, universe.reductions):
        assert np.array_equal(row, oracle.reduce(alphabet, oracle.canonical_word(q)))
        assert np.allclose(row, oracle.reduce(alphabet, q), rtol=0, atol=1e-12)
    return universe


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_universe_keeps_the_strings_in_sp0(dim):
    # P0 and P2 have orthogonal images, so strings with them adjacent are null.
    rng = np.random.default_rng(5400 + dim)
    u = random_unitary(rng, dim)
    alphabet = ProjectorAlphabet({"P0": u[:, :1] @ u[:, :1].conj().T,
                                  "P1": random_projector(rng, dim),
                                  "P2": u[:, 1:] @ u[:, 1:].conj().T})
    universe = check_universe(alphabet, 5)
    assert ("P0", "P2") not in universe and ("P0", "P1", "P2") in universe


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([2, 3, 4]),
       st.sampled_from(range(len(POLICIES))), st.sampled_from([-1, 1]))
def test_universe_at_the_null_threshold_matches_in_sp0(seed, dim, policy, side):
    # P projects onto r columns a_j of a unitary and Q onto b_j = c a_j + s a_{r+j},
    # so PQ and QP have r singular values c = null_threshold * (1 + side * 1e-6),
    # just on the intended side of the threshold.  With r = 2 (dimension 4) the
    # Frobenius norm is above the threshold on both sides.
    tol = POLICIES[policy]
    rng = np.random.default_rng(seed)
    u = random_unitary(rng, dim)
    r = dim // 2 if dim == 4 else 1
    c = tol.null_threshold * (1 + side * 1e-6)
    b = c * u[:, :r] + np.sqrt(1 - c * c) * np.exp(2j * np.pi * rng.random()) * u[:, r:2 * r]
    alphabet = ProjectorAlphabet({"P": u[:, :r] @ u[:, :r].conj().T,
                                  "Q": b @ b.conj().T,
                                  "R": random_projector(rng, dim)}, tol)
    assert (operator_norm(alphabet.reduce(("P", "Q"))) > tol.null_threshold) == (side > 0)
    universe = check_universe(alphabet, 4)
    assert (("P", "Q") in universe) == (("Q", "P") in universe) == (side > 0)


# ---------------------------------------------------------------------------
# The level certificate


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 3), st.integers(0, 4), st.booleans(),
       st.sampled_from([0.1, 0.5, 0.9]), st.integers(0, 2 ** 32 - 1))
@example(n_letters=0, depth=3, upward=False, density=0.5, seed=0)
@example(n_letters=0, depth=3, upward=True, density=0.9, seed=1)
@example(n_letters=1, depth=4, upward=False, density=0.5, seed=2)
@example(n_letters=1, depth=4, upward=True, density=0.1, seed=3)
def test_level_certificate_matches_the_set_based_loop(n_letters, depth, upward, density, seed):
    # every string its own row, so any pattern of kept strings is a pattern of rows
    monoid = ProjStringMonoid(tuple("PQR"[:n_letters]))
    rng = np.random.default_rng(seed)
    levels = list(monoid.levels(depth))
    kept = []
    for strings in levels:
        bits = rng.random(len(strings)) < density
        if upward and kept:
            # (a,) + q sits at a * len(previous) + index(q): make it an ideal
            bits |= np.tile(kept[-1], n_letters)
        kept.append(bits)
    chosen = {q for strings, bits in zip(levels, kept) for q, b in zip(strings, bits) if b}

    def predicate(qs):
        return [q in chosen for q in qs]

    canons, left = oracle.string_rows(n_letters, depth)
    ideal = bounded_ideal(monoid, predicate, canons, np.concatenate(kept), left)
    members, violations = oracle.bounded_ideal(monoid, predicate, depth)
    assert ideal.max_verified_length == depth
    assert ideal.members == members
    assert ideal.member_count() == len(members)
    assert ideal.violations == violations
    assert oracle.level_ideal(monoid, zip(levels, kept)) == (members, violations)
    if upward:
        assert not ideal.violations


# ---------------------------------------------------------------------------
# No domain of strings reduces one string at a time


def test_string_domains_do_not_call_reduce(monkeypatch):
    dim, tol = 3, DEFAULT_TOL
    rng = np.random.default_rng(5500)
    alphabet = seeded_alphabet(5501, dim)
    op = random_labeled_hermitian(rng, dim, [0.0, 1.0, 2.0], tol)
    psi, phi = random_state(rng, dim), random_state(rng, dim)
    rho = DensityMatrix(random_density(rng, dim), tol)
    candidates = RaySet([psi, phi] + [random_state(rng, dim) for _ in range(4)], tol)
    xi = candidates.subset([0, 1])

    def refuse(self, letters):
        raise AssertionError(f"reduce called on {letters!r}")

    monkeypatch.setattr(ProjectorAlphabet, "reduce", refuse)
    universe = StringUniverse(alphabet, 4)
    assert len(universe) > 1
    for ideal in (valuation_vector(alphabet, psi, op, [1.0], 6),
                  valuation_ray(alphabet, psi, op, [1.0], 6),
                  valuation_density(alphabet, rho, op, [1.0], 6),
                  truth_ray_equal_strings(alphabet, psi, phi, 6)):
        assert ideal.max_verified_length == 6
    strings = polar_of_rays(xi, universe)
    polar_of_strings(universe, strings, candidates)
    closure_rays(xi, universe, candidates)
    is_full(xi, universe, candidates)
    context_valuation(psi, op, [1.0], xi, universe)
    context_truth_equal(psi, phi, xi, universe)
