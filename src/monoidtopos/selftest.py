"""A deterministic verification battery covering every subsystem.

Each check reruns a reduced version of the acceptance properties with a
seeded generator; the report is reproducible byte for byte for a fixed
seed and tolerance.
"""

from __future__ import annotations

import numpy as np

from .classical import ClassicalSystem, E_s_valuation, generalized_classical_valuation
from .context import (RaySet, StringUniverse, closure_rays, is_full,
                      polar_of_rays, polar_of_strings, sieve_truth_equal)
from .corpus import random_monoids, small_monoids
from .linalg import DEFAULT_TOL, TolerancePolicy, hermitian_eig
from .monoid import heyting_report, map_monoid, map_monoid_values
from .mset import (MSet, arrow_to_invariant, characteristic_arrow,
                   equivariant_maps_to_ideals, invariant_subsets, left_regular)
from .quantum import E_psi_valuation_via_arrow, QuantumSystem, quantum_function_valuation
from .reduction import (ProjectorAlphabet, truth_ray_equal_strings,
                        valuation_density, valuation_ray, valuation_vector,
                        DensityMatrix)


def _qubit_alphabet(tol: TolerancePolicy) -> ProjectorAlphabet:
    pz = np.array([[1, 0], [0, 0]], dtype=complex)
    pplus = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    return ProjectorAlphabet({"Pz": pz, "Pplus": pplus}, tol)


def run_selftest(seed: int = 2027, tolerance: TolerancePolicy = DEFAULT_TOL) -> dict:
    checks = []

    def record(name: str, passed: bool, **detail):
        entry = {"name": name, "passed": bool(passed)}
        if detail:
            entry["detail"] = detail
        checks.append(entry)

    # Heyting laws on the small corpus plus a few seeded random tables.
    corpus = small_monoids(3) + random_monoids(seed, 5)
    reports = [heyting_report(m) for m in corpus]
    witness = any(r["excluded_middle_failures"] for r in reports)
    record("heyting-laws", all(r["all_laws_hold"] for r in reports),
           monoids=len(corpus), excluded_middle_witness=witness)

    # Characteristic arrows classify invariant subsets bijectively.
    mm = map_monoid(2)
    fixtures = [left_regular(mm), MSet(mm, [0, 1], map_monoid_values(2))]
    bijective = True
    for ms in fixtures:
        subsets = invariant_subsets(ms)
        arrows = equivariant_maps_to_ideals(ms)
        if len(subsets) != len(arrows):
            bijective = False
        for j in subsets:
            if arrow_to_invariant(ms, characteristic_arrow(ms, j)) != j:
                bijective = False
    record("characteristic-bijection", bijective, msets=len(fixtures))

    # Classical and quantum valuations agree with their arrow routes.
    cs = ClassicalSystem(["s0", "s1"], [0.0, 1.0], {"A": [0.0, 1.0]})
    agree = True
    for state in cs.states:
        for delta in ([], [0.0], [1.0], [0.0, 1.0]):
            direct = generalized_classical_valuation(cs, state, "A", delta)
            arrow = E_s_valuation(cs, state, "A", delta)
            agree = agree and direct.mask == arrow.mask
    qs = QuantumSystem(2, [1.0, -1.0], {"A": np.diag([1.0, -1.0])}, tolerance)
    rng = np.random.default_rng(seed)
    for _ in range(5):
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        for delta in ([1.0], [-1.0], [1.0, -1.0]):
            direct = quantum_function_valuation(qs, psi, "A", delta)
            arrow = E_psi_valuation_via_arrow(qs, psi, "A", delta)
            agree = agree and direct.mask == arrow.mask
    record("oracle-equivalence", agree)

    # Reduction valuations carry clean depth certificates.
    alphabet = _qubit_alphabet(tolerance)
    sz = hermitian_eig(np.diag([1.0, -1.0]), tolerance, snap_to=[1.0, -1.0])
    psi = np.array([1.0, 1.0]) / np.sqrt(2)
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    ideals = [
        valuation_vector(alphabet, psi, sz, [1.0], depth=3),
        valuation_ray(alphabet, psi, sz, [1.0], depth=3),
        truth_ray_equal_strings(alphabet, e1, e2, depth=3),
        valuation_density(alphabet, DensityMatrix(np.eye(2) / 2, tolerance), sz, [1.0], depth=3),
    ]
    record("reduction-certificates",
           all(not i.violations for i in ideals),
           member_counts=[i.member_count() for i in ideals])

    # Galois identities on a small universe.
    universe = StringUniverse(alphabet, 2)
    candidates = RaySet([e1, e2, psi], tolerance)
    xi = RaySet([e2], tolerance)
    closed = closure_rays(xi, universe, candidates)
    polar_fixed = polar_of_strings(
        universe, polar_of_rays(closed, universe), candidates)
    galois_ok = (xi.is_subset_of(closed)
                 and is_full(closed, universe, candidates)
                 and len(polar_fixed) == len(closed))
    record("galois-closure", galois_ok,
           universe_size=len(universe), closure_size=len(closed))

    # The sieve fixture: two rays merged only after the first projector.
    sieve = sieve_truth_equal(alphabet, e1, e2, ("Pz", "Pplus"))
    record("sieve-fixture", sorted(sieve.included_tail_lengths) == [1, 2],
           included=sorted(sieve.included_tail_lengths))

    return {
        "seed": seed,
        "checks": checks,
        "all_passed": all(c["passed"] for c in checks),
    }
