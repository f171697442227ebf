"""String valuations on canonical rows alone, against their references.

A valuation decides each canonical row once, multiplying the row stack by
its shared operands (target basis, state, ρ) as one 2-D product, and keeps
one boolean per row; no string is made until a report reads the members.
The references are in ``tests/valuation_oracle.py``:

- the batched kernel (a stack of tiny matmuls per operand) must take the
  same decision as the flat one for vector, ray and density states and for
  ray agreement, on seeded stacks of dimension 2 to 6 with up to 300 rows,
  a third of them scaled into the null band, and rank-deficient images;
- ``member_count``, ``len`` of a universe and the violations must decode no
  string but the violating ones, and the members decode once, when read;
- a depth-12 qutrit valuation (797,161 strings) counts its members in
  bounded memory.
"""

import tracemalloc

import numpy as np
import pytest

import tests.valuation_oracle as oracle
from monoidtopos.context import StringUniverse
from monoidtopos.linalg import DEFAULT_TOL, Subspace, TolerancePolicy
from monoidtopos.reduction import (DensityMatrix, ProjectorAlphabet, in_reduced_eigenspace,
                                   rays_agree, truth_ray_equal_strings, valuation_density,
                                   valuation_ray, valuation_vector)
from monoidtopos.strings import ProjStringMonoid
from tests.generators import (random_density, random_labeled_hermitian, random_projector,
                              random_state, random_unitary)

POLICIES = [DEFAULT_TOL, TolerancePolicy(eps=1e-9, null_threshold=1e-6)]
# Rank-1 products decay past this threshold within eight letters: violations.
COARSE = TolerancePolicy(eps=1e-9, null_threshold=1e-2)


# ---------------------------------------------------------------------------
# The flat kernel


def seeded_stack(rng, dim, n, tol):
    """n reductions U diag(s) V† with random rank 0..dim; a third of them
    scaled so their largest singular value is null_threshold times
    1 ± 1e-6, 0.5 or 2."""
    out = []
    for i in range(n):
        rank = int(rng.integers(0, dim + 1))
        s = np.sort(rng.random(dim))[::-1] * (np.arange(dim) < rank)
        m = (random_unitary(rng, dim) * s) @ random_unitary(rng, dim).conj().T
        if i % 3 == 0 and rank:
            m *= tol.null_threshold * rng.choice([1 - 1e-6, 1 + 1e-6, 0.5, 2.0]) / s[0]
        out.append(m)
    return np.array(out).reshape(n, dim, dim)


def target_and_states(rng, dim, tol):
    """A target subspace of random dimension 0..dim, a vector state and a
    density matrix that half of the time lie inside it, and a second state
    that half of the time is on the first one's ray."""
    k = int(rng.integers(0, dim + 1))
    basis = random_unitary(rng, dim)[:, :k]
    target = Subspace(dim, basis, tol)
    inside = k and rng.random() < 0.5
    psi = basis @ random_state(rng, k) if inside else random_state(rng, dim)
    psi /= np.linalg.norm(psi)
    rho = DensityMatrix(basis @ random_density(rng, k) @ basis.conj().T if inside
                        else random_density(rng, dim), tol).matrix
    phi = psi * np.exp(2j * np.pi * rng.random()) if rng.random() < 0.5 else random_state(rng, dim)
    return target, psi, rho, phi / np.linalg.norm(phi)


@pytest.mark.parametrize("policy", range(len(POLICIES)))
@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_the_flat_kernel_decides_as_the_batched_one(dim, policy):
    tol, rng = POLICIES[policy], np.random.default_rng(9000 + 10 * dim + policy)
    decisions = []
    for n in (0, 1, 7, 60, 300):
        stack = seeded_stack(rng, dim, n, tol)
        for _ in range(4):
            target, psi, rho, phi = target_and_states(rng, dim, tol)
            for state, projective in ((psi, False), (psi, True), (rho, False)):
                got = in_reduced_eigenspace(stack, state, target, tol, projective)
                expected = oracle.batched_in_reduced_eigenspace(stack, state, target, tol,
                                                                projective)
                assert np.array_equal(got, expected)
                decisions.append(got)
            got = rays_agree(stack, psi, phi, tol)
            assert np.array_equal(got, oracle.batched_rays_agree(stack, psi, phi, tol))
            decisions.append(got)
    decided = np.concatenate(decisions)
    assert 0.05 < decided.mean() < 0.95   # both answers are exercised


# ---------------------------------------------------------------------------
# Decoding


def count_decoded(monkeypatch) -> list:
    """Record the number of strings each ``ProjStringMonoid.decode`` call makes."""
    decoded, decode = [], ProjStringMonoid.decode

    def counted(self, canons, marked):
        out = decode(self, canons, marked)
        decoded.append(len(out))
        return out

    monkeypatch.setattr(ProjStringMonoid, "decode", counted)
    return decoded


@pytest.mark.parametrize("tol", [DEFAULT_TOL, COARSE], ids=["1e-9", "1e-2"])
@pytest.mark.parametrize("dim", [2, 3])
def test_counts_and_violations_decode_no_member(monkeypatch, dim, tol):
    rng = np.random.default_rng(5803)
    alphabet = ProjectorAlphabet({f"P{i}": random_projector(rng, dim) for i in range(3)}, tol)
    op = random_labeled_hermitian(rng, dim, [0.0, 1.0], tol)
    psi, phi = random_state(rng, dim), random_state(rng, dim)
    rho = DensityMatrix(random_density(rng, dim), tol)
    decoded = count_decoded(monkeypatch)
    ideals = [valuation_vector(alphabet, psi, op, [1.0], 8),
              valuation_ray(alphabet, psi, op, [1.0], 8),
              valuation_density(alphabet, rho, op, [1.0], 8),
              truth_ray_equal_strings(alphabet, psi, phi, 8)]
    universe = StringUniverse(alphabet, 8)
    counts = [ideal.member_count() for ideal in ideals]
    size = len(universe)
    certificates = [ideal.certificate for ideal in ideals]
    violating = [len({q for _, q in ideal.violations}) for ideal in ideals]
    # only the ideals with violations decoded, and only their violating strings
    assert decoded == [v for v in violating if v]
    assert sum(violating) or tol is DEFAULT_TOL
    assert [c["violations"] for c in certificates] == [
        [{"letter": p, "member": list(q)} for p, q in ideal.violations] for ideal in ideals]
    decoded.clear()
    assert [len(ideal.members) for ideal in ideals] == counts
    assert len(universe.members) == size == len(universe.stack[universe.rows])
    assert decoded == counts + [size]
    assert all(ideal.members is ideal.members for ideal in ideals)
    assert universe.members is universe.members and len(decoded) == 5


# ---------------------------------------------------------------------------
# Scale


def test_a_depth_twelve_qutrit_valuation_counts_in_bounded_memory(monkeypatch):
    # rank-1 letters: every non-empty string sends both states onto one ray
    rng = np.random.default_rng(8100)
    alphabet = ProjectorAlphabet({f"P{i}": random_projector(rng, 3, 1) for i in range(3)})
    psi, phi = random_state(rng, 3), random_state(rng, 3)
    decoded = count_decoded(monkeypatch)
    tracemalloc.start()
    try:
        ideal = truth_ray_equal_strings(alphabet, psi, phi, 12)
        count = ideal.member_count()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == alphabet.monoid.count_strings(12) - 1 == 797160
    assert ideal.violations == () and decoded == []
    assert peak < 48 * 2 ** 20
