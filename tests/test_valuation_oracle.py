"""The batched proposition kernel against the per-string reference oracle.

The oracle (``tests/valuation_oracle.py``) is the set of loops that
``reduction.py`` and ``context.py`` replaced: one string at a time, with
its own per-column Gram-Schmidt.  All eight valuations must return exactly
the oracle's members, in the oracle's order, or exactly its sieve:

- on seeded qubit, qutrit and dimension-4 alphabets under both policies,
  including a range that matches no eigenvalue (empty eigenspace);
- on Hypothesis cases placed just either side of the null threshold: a
  reduced eigenspace column whose residual is null_threshold * (1 ± 1e-6),
  so the reduced image is nearly degenerate, a reduced state at that
  distance from the image, and a reduced state of that norm;
- on a 3,000-letter sieve context.

The edge cases are built on coordinate axes with random phases and
permutations, so every small quantity is computed to full relative
precision and the intended side of the threshold is asserted too.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tests.valuation_oracle as oracle
from monoidtopos.context import (RaySet, StringUniverse, context_truth_equal,
                                 context_valuation, sieve_truth_equal, sieve_valuation)
from monoidtopos.errors import ContextError, MonoidToposError
from monoidtopos.linalg import (DEFAULT_TOL, HermitianOperator, TolerancePolicy,
                                orthonormalize, ray_equal)
from monoidtopos.reduction import (DensityMatrix, ProjectorAlphabet,
                                   truth_ray_equal_strings, valuation_density,
                                   valuation_ray, valuation_vector)
from tests.conftest import E1, E2, PLUS, PPLUS, PZ
from tests.generators import (random_density, random_labeled_hermitian, random_projector,
                              random_state)

# The default policy, and one whose null threshold differs from its eps.
POLICIES = [DEFAULT_TOL, TolerancePolicy(eps=1e-9, null_threshold=1e-6)]
VALUES = [0.0, 1.0, 2.0]
# A proposition on the spectrum, a wider one, and one matching no eigenvalue.
RANGES = [[1.0], [1.0, 2.0], [5.0]]


def same_outcome(call, reference):
    """Both raise the same error, or both return the same value.  A sieve
    that numerics near the threshold leave without upward closure is a
    ValidationError, on either side."""
    try:
        expected = reference()
    except MonoidToposError as exc:
        with pytest.raises(type(exc)):
            call()
        return
    assert call() == expected


def distinct_rays(states, tol):
    kept = []
    for psi in states:
        if not any(ray_equal(psi, r, tol) for r in kept):
            kept.append(psi)
    return RaySet(kept, tol)


def check_eigenspace(alphabet, states, op, delta, depth, universe, contexts):
    """The three free-monoid valuations, the polar one and the sieve."""
    xi = distinct_rays(states, alphabet.tol)
    for psi in states:
        assert valuation_vector(alphabet, psi, op, delta, depth).members == \
            oracle.valuation_vector(alphabet, psi, op, delta, depth)
        assert valuation_ray(alphabet, psi, op, delta, depth).members == \
            oracle.valuation_ray(alphabet, psi, op, delta, depth)
        u = psi / np.linalg.norm(psi)
        rho = DensityMatrix(np.outer(u, u.conj()), alphabet.tol)
        assert valuation_density(alphabet, rho, op, delta, depth).members == \
            oracle.valuation_density(alphabet, rho, op, delta, depth)
        same_outcome(lambda: context_valuation(psi, op, delta, xi, universe),
                     lambda: oracle.context_valuation(psi, op, delta, xi, universe))
        for context in contexts:
            same_outcome(lambda: sieve_valuation(alphabet, psi, op, delta, context),
                         lambda: oracle.sieve_valuation(alphabet, psi, op, delta, context))


def check_rays(alphabet, states, depth, universe, contexts):
    """Ray agreement on the free monoid, the polar and the sieve."""
    xi = distinct_rays(states, alphabet.tol)
    for psi in states:
        for phi in states:
            assert truth_ray_equal_strings(alphabet, psi, phi, depth).members == \
                oracle.truth_ray_equal_strings(alphabet, psi, phi, depth)
            same_outcome(lambda: context_truth_equal(psi, phi, xi, universe),
                         lambda: oracle.context_truth_equal(psi, phi, xi, universe))
            for context in contexts:
                same_outcome(lambda: sieve_truth_equal(alphabet, psi, phi, context),
                             lambda: oracle.sieve_truth_equal(alphabet, psi, phi, context))


# ---------------------------------------------------------------------------
# Seeded alphabets


CASES = [(dim, policy) for dim in (2, 3, 4) for policy in range(len(POLICIES))]


@pytest.mark.parametrize("dim,policy", CASES)
def test_valuations_match_the_per_string_oracle(dim, policy):
    tol = POLICIES[policy]
    rng = np.random.default_rng(5100 + 10 * dim + policy)
    letters = {f"P{i}": random_projector(rng, dim) for i in range(3)}
    if dim == 2:
        letters.update(P0=PZ, P1=PPLUS)
    alphabet = ProjectorAlphabet(letters, tol)
    op = random_labeled_hermitian(rng, dim, VALUES, tol)
    # States of unit, tiny and large length: only the ray may matter.
    states = [random_state(rng, dim) * scale
              for scale in (1.0, 10 * tol.null_threshold, 2.0 - 1.0j)] + [np.eye(dim)[0]]
    universe = StringUniverse(alphabet, 2)
    contexts = [tuple(str(x) for x in rng.choice(list(letters), size=n)) for n in (0, 1, 3, 6)]
    for delta in RANGES:
        check_eigenspace(alphabet, states, op, delta, 3, universe, contexts)
    check_rays(alphabet, states, 3, universe, contexts)
    rho = DensityMatrix(random_density(rng, dim), tol)
    assert valuation_density(alphabet, rho, op, [1.0], 3).members == \
        oracle.valuation_density(alphabet, rho, op, [1.0], 3)


def test_empty_eigenspace_matches_the_oracle(qubit_alphabet, sz_op):
    assert sz_op.eigenspace([5.0]).dim == 0
    for psi in (E1, E2, PLUS):
        # a null image lies in the zero subspace; a surviving one does not
        assert valuation_vector(qubit_alphabet, psi, sz_op, [5.0], 3).members == \
            oracle.valuation_vector(qubit_alphabet, psi, sz_op, [5.0], 3)
        assert valuation_ray(qubit_alphabet, psi, sz_op, [5.0], 3).members == \
            oracle.valuation_ray(qubit_alphabet, psi, sz_op, [5.0], 3) == ()


def test_three_thousand_letter_sieve_context_matches_the_oracle(qubit_alphabet, sz_op):
    context = ("Pz",) * 1500 + ("Pplus",) * 1500
    for psi, phi in ((E1, PLUS), (PLUS, E1), (E1, E1)):
        sieve = sieve_valuation(qubit_alphabet, psi, sz_op, [1.0], context)
        assert sieve == oracle.sieve_valuation(qubit_alphabet, psi, sz_op, [1.0], context)
        assert sieve.is_total == (psi is E1) and not sieve.is_empty
        assert sieve_truth_equal(qubit_alphabet, psi, phi, context) == \
            oracle.sieve_truth_equal(qubit_alphabet, psi, phi, context)
    with pytest.raises(ContextError):
        sieve_valuation(qubit_alphabet, E2 - E1, sz_op, [1.0], context)


# ---------------------------------------------------------------------------
# Threshold edges


def axes(rng, dim):
    """Coordinate axes in a random order, each with a random phase."""
    phases = np.exp(2j * np.pi * rng.random(dim))
    return [phases[i] * np.eye(dim)[j] for i, j in enumerate(rng.permutation(dim))]


def projector(*vectors):
    return sum(np.outer(v, v.conj()) for v in vectors)


def operator(basis, complement):
    """The proposition 'value 1' on the span of the basis columns, given
    with exactly these columns, so their order is the Gram-Schmidt order."""
    k, c = np.column_stack(basis), np.column_stack(complement)
    return HermitianOperator(k @ k.conj().T, [0.0, 1.0], [c, k])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), dim=st.sampled_from([3, 4]),
       policy=st.sampled_from(range(len(POLICIES))), side=st.sampled_from([-1, 1]))
def test_threshold_edges_match_the_oracle(seed, dim, policy, side):
    tol = POLICIES[policy]
    rng = np.random.default_rng(seed)
    a = axes(rng, dim)
    edge = tol.null_threshold * (1 + side * 1e-6)
    c = np.sqrt(1 - edge ** 2)
    # P keeps the plane (a0, a1); Q is a random projector for variety.
    alphabet = ProjectorAlphabet({"P": projector(a[0], a[1]),
                                  "Q": random_projector(rng, dim)}, tol)
    # Nearly degenerate: P sends the second basis column to edge * a1.
    degenerate = operator([a[0], c * a[2] + edge * a[1]],
                          [c * a[1] - edge * a[2]] + a[3:])
    line = operator([a[0]], a[1:])
    plane_state = (a[0] + a[1]) / np.sqrt(2)    # inside iff the column is kept
    kernel_state = a[2]                          # P annihilates it
    off_line = c * a[0] + edge * a[1]            # distance edge from the line
    faint = edge * a[0] + c * a[2]               # P leaves norm edge
    states = [plane_state, kernel_state, off_line, faint]

    kept = side > 0
    assert (("P",) in valuation_vector(alphabet, plane_state, degenerate, [1.0], 1)) == kept
    assert (("P",) in valuation_ray(alphabet, kernel_state, degenerate, [1.0], 1)) == (not kept)
    assert (("P",) in valuation_vector(alphabet, off_line, line, [1.0], 1)) == (not kept)
    assert (("P",) in truth_ray_equal_strings(alphabet, faint, kernel_state, 1)) == (not kept)

    universe = StringUniverse(alphabet, 2)
    contexts = [("P",), ("Q", "P"), ("P", "Q", "P")]
    for op in (degenerate, line):
        for delta in ([1.0], [0.0, 1.0], [5.0]):
            check_eigenspace(alphabet, states, op, delta, 2, universe, contexts)
    check_rays(alphabet, states, 2, universe, contexts)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(2, 5), k=st.integers(0, 5),
       side=st.sampled_from([-1, 1]))
def test_batched_gram_schmidt_matches_the_per_column_oracle(seed, dim, k, side):
    rng = np.random.default_rng(seed)
    threshold = DEFAULT_TOL.null_threshold
    edge = threshold * (1 + side * 1e-6)
    blocks = []
    for _ in range(4):
        cols = rng.normal(size=(dim, k)) + 1j * rng.normal(size=(dim, k))
        if k >= 2:
            cols[:, 1] = 2 * cols[:, 0]                # dependent: dropped
        blocks.append(cols)
    a = axes(rng, dim)
    edge_block = np.zeros((dim, k), dtype=complex)
    for j in range(k):
        edge_block[:, j] = a[min(j, dim - 1)] * (edge if j >= 1 else 1.0) + a[0] * (j >= 1)
    blocks.append(edge_block)                          # residuals of edge after column 0
    stacked = orthonormalize(np.array(blocks).reshape(len(blocks), dim, k), threshold)
    for got, cols in zip(stacked, blocks):
        expected = oracle.orthonormalize(cols, threshold)
        kept = got.any(axis=0)
        assert kept.sum() == expected.shape[1]
        np.testing.assert_allclose(got[:, kept], expected, atol=1e-12)
    if k >= 2 and dim >= 2:
        assert stacked[-1][:, 1].any() == (side > 0)

