import numpy as np
import pytest

from monoidtopos.context import sieve_valuation
from monoidtopos.errors import (MissingNameError, PreconditionError, UsageError,
                                ValidationError)
from monoidtopos.linalg import Ray, ZERO_RAY, hermitian_eig, ray_equal
from monoidtopos.reduction import (DensityMatrix, ProjectorAlphabet, act_on_ray,
                                   truth_ray_equal_strings, valuation_density,
                                   valuation_ray, valuation_vector)
from tests.conftest import E1, E2, PLUS, PMINUS, PPLUS, PZ
from tests.valuation_oracle import canonical_word, image_subspace
from tests.generators import random_labeled_hermitian, random_projector, random_state


def test_alphabet_validates_letters():
    with pytest.raises(ValidationError):
        ProjectorAlphabet({"bad": np.array([[1.0, 1.0], [1.0, 1.0]])})
    with pytest.raises(UsageError):
        ProjectorAlphabet({})
    with pytest.raises(ValidationError, match="one dimension"):
        ProjectorAlphabet({"Pz": PZ, "I3": np.eye(3)})
    with pytest.raises(UsageError, match="alphabet letters must be distinct"):
        ProjectorAlphabet([("P", PZ), ("P", PPLUS)])


def test_reduce_unit_and_homomorphism(qubit_alphabet):
    assert np.allclose(qubit_alphabet.reduce(()), np.eye(2))
    q, r = ("Pplus",), ("Pz", "Pplus")
    combined = qubit_alphabet.reduce(q + r)
    assert np.allclose(combined, qubit_alphabet.reduce(q) @ qubit_alphabet.reduce(r), atol=1e-12)


def test_reduce_idempotent_repetition(qubit_alphabet):
    assert np.allclose(qubit_alphabet.reduce(("Pz", "Pz")), PZ, atol=1e-12)


def test_reduce_orthogonal_projectors_vanish():
    alphabet = ProjectorAlphabet({"Pz": PZ, "Pm": PMINUS})
    assert np.max(np.abs(alphabet.reduce(("Pm", "Pz")))) <= 1e-12


def test_reduce_unknown_letter(qubit_alphabet):
    with pytest.raises(MissingNameError):
        qubit_alphabet.reduce(("nope",))
    with pytest.raises(MissingNameError):
        qubit_alphabet.matrix("nope")
    with pytest.raises(MissingNameError):
        qubit_alphabet.reduce(("Pz", "nope", "Pplus"))


def _reduce_recursively(alphabet, q, memo):
    """Reference: one recursive call per letter, memoising each suffix."""
    if q not in memo:
        memo[q] = alphabet.matrix(q[0]) @ _reduce_recursively(alphabet, q[1:], memo)
    return memo[q]


def test_reduce_memo_matches_recursion(qubit_alphabet):
    # reduce takes each run of a repeated letter once (P·P = P): the same
    # bits as the recursion on the canonical word, and close to the whole string's
    rng = np.random.default_rng(13)
    memo = {(): np.eye(2, dtype=complex)}
    for _ in range(40):
        q = tuple(str(x) for x in rng.choice(["Pz", "Pplus"], size=int(rng.integers(0, 9))))
        got = qubit_alphabet.reduce(q)
        assert np.array_equal(got, _reduce_recursively(qubit_alphabet, canonical_word(q), memo))
        assert np.allclose(got, _reduce_recursively(qubit_alphabet, q, memo), rtol=0, atol=1e-12)


def test_reduce_long_string_does_not_recurse(qubit_alphabet):
    q = ("Pplus",) * 3000
    assert np.allclose(qubit_alphabet.reduce(q), PPLUS, atol=1e-12)


def test_act_on_ray(qubit_alphabet):
    assert act_on_ray(np.eye(2), Ray(PLUS)).same_ray(Ray(PLUS))
    assert act_on_ray(PZ, Ray(E2)) is ZERO_RAY
    assert act_on_ray(PZ, ZERO_RAY) is ZERO_RAY
    moved = act_on_ray(PPLUS, Ray(E1))
    assert moved.same_ray(Ray(PLUS))


def test_valuation_vector_qubit_fixture(qubit_alphabet, sz_op):
    ideal = valuation_vector(qubit_alphabet, PLUS, sz_op, [1.0], depth=3)
    assert () not in ideal
    assert ("Pz",) in ideal
    assert not ideal.violations


def test_valuation_vector_state_inside_is_constant_true(qubit_alphabet, sz_op):
    ideal = valuation_vector(qubit_alphabet, E1, sz_op, [1.0], depth=3)
    assert ideal.member_count() == len(list(qubit_alphabet.monoid.enumerate_strings(3)))


def test_valuation_vector_annihilating_string_qualifies(sz_op):
    alphabet = ProjectorAlphabet({"Pz": PZ, "Pm": PMINUS})
    ideal = valuation_vector(alphabet, E2, sz_op, [1.0], depth=2)
    # Pz annihilates e2 and the zero vector lies in every subspace
    assert ("Pz",) in ideal
    assert not ideal.violations


def test_valuation_vector_null_state(qubit_alphabet, sz_op):
    with pytest.raises(PreconditionError):
        valuation_vector(qubit_alphabet, np.zeros(2), sz_op, [1.0])


def test_valuation_ray_one_dimensional_matches_ray_equality(sz_op):
    # when the target subspace is a single ray, the subspace valuation and
    # partial ray equality against a spanning vector agree string by string
    alphabet = ProjectorAlphabet({"Pz": PZ, "Pm": PMINUS, "Pp": PPLUS})
    rng = np.random.default_rng(5)
    for psi in (PLUS, E1, random_state(rng, 2)):
        via_subspace = valuation_ray(alphabet, psi, sz_op, [1.0], depth=3)
        via_equality = truth_ray_equal_strings(alphabet, psi, E1, depth=3)
        assert via_subspace.members == via_equality.members


def test_valuation_ray_inside_full(qubit_alphabet, sz_op):
    ideal = valuation_ray(qubit_alphabet, E1, sz_op, [1.0], depth=3)
    assert ideal.member_count() == len(list(qubit_alphabet.monoid.enumerate_strings(3)))
    assert not ideal.violations


def test_valuation_ray_unit_projector_string(qubit_alphabet, sz_op):
    # the single-letter string for the range projector qualifies whenever
    # it keeps the state alive
    ideal = valuation_ray(qubit_alphabet, PLUS, sz_op, [1.0], depth=2)
    assert ("Pz",) in ideal


def test_truth_ray_equal_fixtures():
    only_z = ProjectorAlphabet({"Pz": PZ})
    ideal = truth_ray_equal_strings(only_z, E1, E2, depth=3)
    assert ("Pz",) not in ideal  # e1 survives, e2 dies
    both = ProjectorAlphabet({"Pp": PPLUS})
    ideal = truth_ray_equal_strings(both, E1, E2, depth=3)
    assert ("Pp",) in ideal      # both collapse onto the same ray
    assert not ideal.violations


def test_truth_ray_equal_proportional_states(qubit_alphabet):
    ideal = truth_ray_equal_strings(qubit_alphabet, PLUS, 2j * PLUS, depth=2)
    assert ideal.member_count() == len(list(qubit_alphabet.monoid.enumerate_strings(2)))


def test_valuation_density_pure_state_matches_vector(qubit_alphabet, sz_op):
    rng = np.random.default_rng(9)
    for psi in (PLUS, E1, random_state(rng, 2)):
        rho = DensityMatrix(np.outer(psi, psi.conj()))
        dens = valuation_density(qubit_alphabet, rho, sz_op, [1.0], depth=3)
        vect = valuation_vector(qubit_alphabet, psi, sz_op, [1.0], depth=3)
        assert dens.members == vect.members


def test_valuation_density_maximally_mixed(qubit_alphabet, sz_op):
    rho = DensityMatrix(np.eye(2) / 2)
    ideal = valuation_density(qubit_alphabet, rho, sz_op, [1.0], depth=2)
    assert ("Pz",) in ideal
    assert () not in ideal


def test_valuation_density_annihilated_string_qualifies(sz_op):
    alphabet = ProjectorAlphabet({"Pz": PZ, "Pm": PMINUS})
    rho = DensityMatrix(np.outer(E2, E2))
    ideal = valuation_density(alphabet, rho, sz_op, [1.0], depth=2)
    assert ("Pz",) in ideal  # Pz rho Pz = 0 and 0 = 0


def test_density_validation():
    with pytest.raises(ValidationError):
        DensityMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValidationError):
        DensityMatrix(np.diag([1.0, -0.5]))
    with pytest.raises(ValidationError):
        DensityMatrix(np.zeros((2, 2)))
    rho = DensityMatrix(np.diag([2.0, 2.0]))
    assert np.isclose(np.trace(rho.matrix).real, 1.0)


def test_scale_invariance_of_string_valuations(qubit_alphabet, sz_op):
    rng = np.random.default_rng(31)
    psi = random_state(rng, 2)
    base = valuation_ray(qubit_alphabet, psi, sz_op, [1.0], depth=2)
    basev = valuation_vector(qubit_alphabet, psi, sz_op, [1.0], depth=2)
    for lam in (2.0, -0.5, 1j, 3.0 - 4.0j, 1e-6):
        assert valuation_ray(qubit_alphabet, lam * psi, sz_op, [1.0], depth=2).members == base.members
        assert valuation_vector(qubit_alphabet, lam * psi, sz_op, [1.0], depth=2).members == basev.members
    # A letter with a tiny overlap with e1: the answer must not depend on
    # the length of the state vector that spans the ray.
    u = np.array([1e-4, np.sqrt(1 - 1e-8)], dtype=complex)
    tilted = ProjectorAlphabet({"Pu": np.outer(u, u.conj()), "Pz": PZ})
    for lam in (1.0, 1e-6):
        assert truth_ray_equal_strings(tilted, lam * E1, E2, 1).members == (("Pu",),)
        sieve = sieve_valuation(tilted, lam * E1, sz_op, [1.0], ("Pu",))
        assert sieve.included_tail_lengths == frozenset({0, 1})


def test_random_fixtures_have_clean_certificates():
    rng = np.random.default_rng(12)
    values = [0.0, 1.0]
    for _ in range(10):
        dim = int(rng.integers(2, 4))
        letters = {f"P{i}": random_projector(rng, dim) for i in range(int(rng.integers(1, 4)))}
        alphabet = ProjectorAlphabet(letters)
        op = random_labeled_hermitian(rng, dim, values)
        psi = random_state(rng, dim)
        delta = [1.0]
        assert not valuation_vector(alphabet, psi, op, delta, depth=3).violations
        assert not valuation_ray(alphabet, psi, op, delta, depth=3).violations
        assert not truth_ray_equal_strings(alphabet, psi, random_state(rng, dim), depth=3).violations
        rho = DensityMatrix(np.outer(psi, psi.conj()))
        assert not valuation_density(alphabet, rho, op, delta, depth=3).violations


def test_image_dimension_monotone(qubit_alphabet, sz_op):
    target = sz_op.eigenspace([1.0, -1.0])
    for q in qubit_alphabet.monoid.enumerate_strings(3):
        image = image_subspace(qubit_alphabet.reduce(q), target)
        assert image.dim <= target.dim
