import numpy as np
import pytest

from monoidtopos.context import (Arrow, RaySet, Sieve, StringUniverse, arrows_out,
                                 closure_rays, compose_arrows, context_truth_equal,
                                 context_valuation, in_sp0, is_full, polar_of_rays,
                                 polar_of_strings, presheaf_at, presheaf_restrict,
                                 reducible, sieve_truth_equal, sieve_valuation)
from monoidtopos.errors import (ContextError, PreconditionError, UsageError,
                                ValidationError)
from monoidtopos.linalg import EPS_FLOOR, Ray, TolerancePolicy, ray_equal
from monoidtopos.reduction import ProjectorAlphabet
from tests.conftest import E1, E2, PLUS, PMINUS, PPLUS, PZ, SZ
from tests.generators import random_projector, random_state


@pytest.fixture
def orth_alphabet():
    return ProjectorAlphabet({"Pz": PZ, "Pm": PMINUS})


@pytest.fixture
def universe(qubit_alphabet):
    return StringUniverse(qubit_alphabet, 3)


def test_in_sp0_cases(qubit_alphabet, orth_alphabet):
    assert in_sp0(qubit_alphabet, ())
    assert in_sp0(qubit_alphabet, ("Pz",))
    assert in_sp0(orth_alphabet, ("Pm",))
    assert not in_sp0(orth_alphabet, ("Pm", "Pz"))  # orthogonal product is null


def test_universe_filters_null_strings(orth_alphabet):
    u = StringUniverse(orth_alphabet, 2)
    assert ("Pm", "Pz") not in u
    assert ("Pz", "Pz") in u
    # prefixes and suffixes of members stay members
    for q in u.members:
        for k in range(len(q) + 1):
            assert q[:k] in u and q[k:] in u


def test_rayset_rejects_duplicates():
    with pytest.raises(ValidationError):
        RaySet([E1, 1j * E1])


def test_a_ray_is_its_own_at_the_eps_floor():
    # Below the floor, 1 - eps rounds to 1.0 and a vector's overlap with itself
    # can compute as 1 - 1 ulp; at the floor each of these vectors is found.
    tol = TolerancePolicy(eps=EPS_FLOOR)
    rng = np.random.default_rng(8100)
    for i in range(1000):
        v = random_state(rng, 2 + i % 15) * rng.uniform(0.1, 10.0)
        assert RaySet([v], tol).contains(v)
        assert ray_equal(v, v, tol)


def test_polar_of_rays_single_letter():
    alphabet = ProjectorAlphabet({"Pz": PZ})
    u = StringUniverse(alphabet, 3)
    polar = polar_of_rays(RaySet([E2]), u)
    # every non-empty string contains the annihilating letter
    assert polar == ((),)


def test_polar_of_rays_vacuous(universe):
    assert polar_of_rays(RaySet([]), universe) == universe.members


def test_polar_of_strings_cases(universe):
    v = RaySet([E1, E2, PLUS])
    assert len(polar_of_strings(universe, [], v)) == 3
    assert len(polar_of_strings(universe, [()], v)) == 3
    kept = polar_of_strings(universe, [("Pz",)], v)
    assert len(kept) == 2 and not kept.contains(Ray(E2))


def test_polar_outside_universe_rejected(universe):
    with pytest.raises(UsageError):
        polar_of_strings(universe, [("Pz", "nope")], RaySet([E1]))


def test_polar_antitone(universe):
    v = RaySet([E1, E2, PLUS])
    small = RaySet([E1])
    large = RaySet([E1, E2])
    p_small = set(polar_of_rays(small, universe))
    p_large = set(polar_of_rays(large, universe))
    assert p_large <= p_small
    j_small = [("Pz",)]
    j_large = [("Pz",), ("Pplus", "Pz")]
    r_small = polar_of_strings(universe, j_small, v)
    r_large = polar_of_strings(universe, j_large, v)
    assert all(r_small.contains(r) for r in r_large)


def test_closure_extensive_and_full(universe):
    v = RaySet([E1, E2, PLUS])
    xi = RaySet([E2])
    closed = closure_rays(xi, universe, v)
    assert xi.is_subset_of(closed)
    assert is_full(v, universe, v)  # the whole candidate set is full
    # polars are always full (triple polar law)
    polar = polar_of_strings(universe, [("Pz",)], v)
    assert is_full(polar, universe, v)


def test_triple_polar_exact(universe):
    v = RaySet([E1, E2, PLUS])
    rng = np.random.default_rng(2)
    members = list(universe.members)
    for _ in range(20):
        take = rng.integers(0, 2, size=len(members)).astype(bool)
        j = [q for q, keep in zip(members, take) if keep]
        j0 = polar_of_strings(universe, j, v)
        j000 = closure_rays(j0, universe, v)
        assert len(j0) == len(j000) and j0.is_subset_of(j000)


def test_closure_requires_containment(universe):
    v = RaySet([E1])
    with pytest.raises(UsageError):
        closure_rays(RaySet([E2]), universe, v)


def test_context_truth_equal_fixture(universe):
    xi = RaySet([E1, E2])
    accepted = context_truth_equal(E1, E2, xi, universe)
    assert ("Pplus",) in accepted
    assert () not in accepted


def test_context_truth_equal_proportional(universe):
    xi = RaySet([E1, E2])
    accepted = context_truth_equal(E1, 5j * E1, xi, universe)
    assert set(accepted) == set(polar_of_rays(xi, universe))


def test_context_truth_requires_membership(universe):
    with pytest.raises(ContextError):
        context_truth_equal(E1, PLUS, RaySet([E1, E2]), universe)


def test_context_valuation_cases(universe, sz_op):
    xi = RaySet([PLUS])
    accepted = context_valuation(PLUS, sz_op, [1.0], xi, universe)
    assert ("Pz",) in accepted and () not in accepted
    full_xi = RaySet([E1])
    everything = context_valuation(E1, sz_op, [1.0], full_xi, universe)
    assert set(everything) == set(polar_of_rays(full_xi, universe))
    # off-spectrum range: zero subspace never contains a surviving image
    assert context_valuation(E1, sz_op, [5.0], full_xi, universe) == ()


def test_context_valuation_one_dim_matches_equality(universe, sz_op):
    xi = RaySet([PLUS, E1])
    by_subspace = context_valuation(PLUS, sz_op, [1.0], xi, universe)
    by_equality = context_truth_equal(PLUS, E1, xi, universe)
    assert by_subspace == by_equality


def test_arrows_out_counts(qubit_alphabet):
    assert len(arrows_out(qubit_alphabet, ())) == 1
    arrows = arrows_out(qubit_alphabet, ("Pz", "Pplus"))
    assert [(a.head, a.tail) for a in arrows] == [
        ((("Pz", "Pplus"))[0:2], ()),
        (("Pz",), ("Pplus",)),
        ((), ("Pz", "Pplus")),
    ]


def test_arrows_out_requires_sp0(orth_alphabet):
    with pytest.raises(PreconditionError):
        arrows_out(orth_alphabet, ("Pm", "Pz"))


def test_arrow_chain_composition(qubit_alphabet):
    # composing the unit-tail splits reproduces the terminal arrow
    q = ("Pz", "Pplus", "Pz")
    minimal = [Arrow(q[:len(q) - j], q[:len(q) - j - 1], (q[len(q) - j - 1],))
               for j in range(len(q))]
    total = minimal[0]
    for arrow in minimal[1:]:
        total = compose_arrows(arrow, total)
    assert total == Arrow(q, (), q)
    assert total in arrows_out(qubit_alphabet, q)


def test_compose_arrows_checks_compatibility():
    with pytest.raises(UsageError):
        compose_arrows(Arrow(("a",), (), ("a",)), Arrow(("b",), ("b",), ()))


def test_presheaf_membership_and_restriction(qubit_alphabet):
    at_empty = presheaf_at(qubit_alphabet, ())
    assert at_empty(E1) and at_empty(E2)
    arrow = arrows_out(qubit_alphabet, ("Pz", "Pplus"))[1]
    restricted = presheaf_restrict(qubit_alphabet, arrow, E1)
    assert reducible(qubit_alphabet, arrow.head, restricted)
    with pytest.raises(PreconditionError):
        # (-1, 1) is annihilated by the source reduction Pz Pplus
        presheaf_restrict(qubit_alphabet, arrow, E2 - E1)


def test_presheaf_functoriality(qubit_alphabet):
    # applying two tails in sequence equals applying their concatenation
    rng = np.random.default_rng(4)
    for q in qubit_alphabet.monoid.enumerate_strings(4):
        if not in_sp0(qubit_alphabet, q):
            continue
        p = len(q)
        k1 = int(rng.integers(0, p + 1))
        k2 = int(rng.integers(0, p - k1 + 1))
        s1 = q[p - k1:]
        s2 = q[p - k1 - k2:p - k1]
        composed = qubit_alphabet.reduce(s2 + s1)
        assert np.allclose(composed,
                           qubit_alphabet.reduce(s2) @ qubit_alphabet.reduce(s1),
                           atol=1e-9)


def test_sieve_structure_validation():
    Sieve(("a", "b"), frozenset({1, 2}))
    Sieve(("a",), frozenset())
    with pytest.raises(ValidationError):
        Sieve(("a", "b"), frozenset({0, 2}))  # gap
    with pytest.raises(ValidationError):
        Sieve(("a",), frozenset({5}))


def test_sieve_truth_equal_fixture(qubit_alphabet):
    sieve = sieve_truth_equal(qubit_alphabet, E1, E2, ("Pz", "Pplus"))
    assert sorted(sieve.included_tail_lengths) == [1, 2]
    assert sieve.tails() == [("Pplus",), ("Pz", "Pplus")]


def test_sieve_truth_equal_full_and_empty(qubit_alphabet):
    full = sieve_truth_equal(qubit_alphabet, PLUS, 2 * PLUS, ("Pz", "Pplus"))
    assert full.is_total
    # qutrit: the plane projector keeps the two states alive but distinct
    e = np.eye(3)
    p23 = ProjectorAlphabet({"P23": np.diag([0.0, 1.0, 1.0]).astype(complex)})
    empty = sieve_truth_equal(p23, (e[0] + e[1]) / np.sqrt(2),
                              (e[0] + e[2]) / np.sqrt(2), ("P23",))
    assert empty.is_empty


def test_sieve_truth_equal_context_precondition(orth_alphabet):
    with pytest.raises(ContextError):
        sieve_truth_equal(orth_alphabet, E1, E2, ("Pz",))  # e2 not reducible


def test_sieve_valuation_cases(qubit_alphabet, sz_op):
    inside = sieve_valuation(qubit_alphabet, E1, sz_op, [1.0], ("Pz", "Pplus"))
    assert inside.is_total
    off = sieve_valuation(qubit_alphabet, E1, sz_op, [5.0], ("Pz", "Pplus"))
    assert off.is_empty
    mid = sieve_valuation(qubit_alphabet, PLUS, sz_op, [1.0], ("Pplus", "Pz"))
    assert 0 not in mid.included_tail_lengths


def test_sieve_valuation_one_dim_matches_equality(qubit_alphabet, sz_op):
    context = ("Pz", "Pplus")
    by_subspace = sieve_valuation(qubit_alphabet, PLUS, sz_op, [1.0], context)
    by_equality = sieve_truth_equal(qubit_alphabet, PLUS, E1, context)
    assert by_subspace.included_tail_lengths == by_equality.included_tail_lengths


def test_sieve_results_depend_on_context():
    # same pair of rays, same tail length, different contexts disagree:
    # a rank-one projector merges them, the plane projector does not
    dim = 3
    e = np.eye(3)
    psi = (e[0] + e[1]) / np.sqrt(2)
    phi = (e[0] + e[2]) / np.sqrt(2)
    u = np.array([0.0, 1.0, 1.0]) / np.sqrt(2)
    p_u = np.outer(u, u.conj())
    p_23 = np.diag([0.0, 1.0, 1.0]).astype(complex)
    alphabet = ProjectorAlphabet({"Pu": p_u, "P23": p_23})
    merged = sieve_truth_equal(alphabet, psi, phi, ("Pu",))
    split = sieve_truth_equal(alphabet, psi, phi, ("P23",))
    assert 1 in merged.included_tail_lengths
    assert 1 not in split.included_tail_lengths
    assert 0 not in merged.included_tail_lengths
    assert 0 not in split.included_tail_lengths
