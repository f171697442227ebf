"""Acceptance suite: one test per criterion, each printing one pass/fail
line (run with -s to see them on success).  Tolerances and budgets are
pinned here, not configurable.
"""

import itertools
import json
import time

import numpy as np
import pytest

from monoidtopos.classical import (ClassicalSystem, E_s_valuation,
                                   generalized_classical_valuation,
                                   proposition_mset as classical_mset)
from monoidtopos.context import (RaySet, StringUniverse, closure_rays, is_full,
                                 polar_of_rays, polar_of_strings,
                                 sieve_truth_equal, sieve_valuation)
from monoidtopos.corpus import small_monoids
from monoidtopos.linalg import apply_function, hermitian_eig, spectral_projector
from monoidtopos.monoid import (FiniteMonoid, enumerate_left_ideals,
                                heyting_report, map_monoid)
from monoidtopos.mset import (MSet, arrow_to_invariant, characteristic_arrow,
                              equivariant_maps_to_ideals, invariant_subsets,
                              left_regular, product_mset)
from monoidtopos.quantum import (E_psi_valuation_via_arrow, QuantumSystem,
                                 proposition_mset as quantum_mset,
                                 quantum_function_valuation)
from monoidtopos.reduction import (DensityMatrix, ProjectorAlphabet,
                                   truth_ray_equal_strings, valuation_density,
                                   valuation_ray, valuation_vector)
import tests.mset_oracle as mset_oracle
from tests.conftest import E1, E2, PLUS, PMINUS, PPLUS, PZ, SZ
from tests.test_cli import RUNS, run_cli
from tests.generators import (random_labeled_hermitian, random_projector, random_state,
                              standard_monoid_corpus)

SEED = 2027


def criterion(number: int, name: str, passed: bool, detail: str, elapsed: float):
    verdict = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} [{name}]: {verdict} ({detail}; {elapsed:.1f}s)")
    assert passed, f"criterion {number} ({name}) failed: {detail}"


def test_acceptance_1_heyting_suite():
    started = time.perf_counter()
    corpus = standard_monoid_corpus(seed=SEED, random_count=45)
    reports = [heyting_report(m) for m in corpus]
    all_laws = all(r["all_laws_hold"] for r in reports)
    witnesses = sum(1 for r in reports if r["excluded_middle_failures"])
    elapsed = time.perf_counter() - started
    criterion(1, "heyting-suite",
              len(corpus) >= 50 and all_laws and witnesses >= 1 and elapsed < 30.0,
              f"{len(corpus)} monoids, {witnesses} excluded-middle witnesses",
              elapsed)


def _enumerate_actions(monoid: FiniteMonoid, carrier: int):
    """All actions of the monoid on {0..carrier-1}: assign a self-map to
    each element, identity fixed, composition law filtered."""
    maps = list(itertools.product(range(carrier), repeat=carrier))
    indices = [i for i in range(monoid.size) if i != monoid.identity]
    ident = tuple(range(carrier))
    for choice in itertools.product(maps, repeat=len(indices)):
        assign = {monoid.identity: ident}
        assign.update(dict(zip(indices, choice)))
        ok = True
        for a in range(monoid.size):
            for b in range(monoid.size):
                fa, fb, fab = assign[a], assign[b], assign[monoid.table[a][b]]
                if any(fa[fb[x]] != fab[x] for x in range(carrier)):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            yield MSet(monoid, range(carrier), [list(assign[m]) for m in range(monoid.size)])


def _bijection_fixtures(corpus):
    for monoid in corpus:
        if monoid.size > 4:
            continue
        yield left_regular(monoid)
        if monoid.size <= 2:
            yield from _enumerate_actions(monoid, 3)
        if monoid.size <= 3:
            yield from _enumerate_actions(monoid, 2)
        if monoid.size == 2:
            lr = left_regular(monoid)
            yield product_mset(lr, lr)


def _masks(mset, arrows):
    return [tuple(chi[p].mask for p in mset.points) for chi in arrows]


def test_acceptance_2_characteristic_bijection():
    started = time.perf_counter()
    corpus = small_monoids(3) + [map_monoid(2)]
    count = 0
    ok = True
    for mset in _bijection_fixtures(corpus):
        if len(mset.points) > 4:
            continue
        count += 1
        subsets = invariant_subsets(mset)
        arrows = equivariant_maps_to_ideals(mset)
        if len(subsets) != len(arrows):
            ok = False
        if _masks(mset, arrows) != _masks(mset, mset_oracle.equivariant_maps_by_search(mset)):
            ok = False
        by_mask = set(_masks(mset, arrows))
        for j in subsets:
            chi = characteristic_arrow(mset, j)
            if arrow_to_invariant(mset, chi) != j:
                ok = False
            if tuple(chi[p].mask for p in mset.points) not in by_mask:
                ok = False
        for chi in arrows:
            j = arrow_to_invariant(mset, chi)
            again = characteristic_arrow(mset, j)
            if any(again[p].mask != chi[p].mask for p in mset.points):
                ok = False
    elapsed = time.perf_counter() - started
    criterion(2, "characteristic-bijection",
              ok and count >= 25 and elapsed < 10.0,
              f"{count} M-sets, bijections and round-trips exact", elapsed)


def test_acceptance_3_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(SEED)
    checked = 0
    ok = True

    # classical half: random systems with |X| <= 3, states <= 3
    for _ in range(12):
        nv = int(rng.integers(2, 4))
        ns = int(rng.integers(1, 4))
        values = [float(v) for v in range(nv)]
        quantities = {f"Q{i}": [values[int(rng.integers(0, nv))] for _ in range(ns)]
                      for i in range(2)}
        system = ClassicalSystem([f"s{i}" for i in range(ns)], values, quantities)
        mset = classical_mset(system)
        for _ in range(10):
            state = f"s{int(rng.integers(0, ns))}"
            qty = f"Q{int(rng.integers(0, 2))}"
            delta = [v for v in values if rng.random() < 0.5]
            direct = generalized_classical_valuation(system, state, qty, delta)
            arrow = E_s_valuation(system, state, qty, delta, mset)
            ok = ok and direct.mask == arrow.mask
            checked += 1

    # quantum half: random systems with dim <= 4, |X| <= 3
    for _ in range(8):
        dim = int(rng.integers(2, 5))
        nv = int(rng.integers(2, 4))
        values = [float(v) for v in range(nv)]
        op = random_labeled_hermitian(rng, dim, values)
        system = QuantumSystem(dim, values, {"A": op.matrix})
        mset = quantum_mset(system)
        for _ in range(15):
            psi = random_state(rng, dim)
            delta = [v for v in values if rng.random() < 0.5]
            direct = quantum_function_valuation(system, psi, "A", delta)
            arrow = E_psi_valuation_via_arrow(system, psi, "A", delta, mset)
            ok = ok and direct.mask == arrow.mask
            checked += 1

    elapsed = time.perf_counter() - started
    criterion(3, "oracle-equivalence", ok and checked >= 200,
              f"{checked} random (state, quantity, range) triples, exact set equality",
              elapsed)


def test_acceptance_4_projector_ordering():
    started = time.perf_counter()
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    checked = 0
    while checked < 500:
        dim = int(rng.integers(2, 7))
        a = hermitian_eig((lambda g: (g + g.conj().T) / 2)(
            rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))))
        spectrum = list(a.eigenvalues)
        delta = [lam for lam in spectrum if rng.random() < 0.5]
        targets = [float(v) for v in range(int(rng.integers(1, 4)))]
        f = {lam: targets[int(rng.integers(0, len(targets)))] for lam in spectrum}
        e_base = spectral_projector(a, delta).matrix
        fa = apply_function(a, f)
        f_delta = sorted({f[d] for d in delta})
        e_coarse = spectral_projector(fa, f_delta).matrix
        worst = max(worst,
                    float(np.max(np.abs(e_base @ e_coarse - e_base))),
                    float(np.max(np.abs(e_coarse @ e_base - e_base))))
        checked += 1
    elapsed = time.perf_counter() - started
    criterion(4, "projector-ordering", worst <= 1e-8,
              f"{checked} random (operator, range, function) triples, worst residual {worst:.2e}",
              elapsed)


def test_acceptance_5_reduction_certificates():
    started = time.perf_counter()
    rng = np.random.default_rng(SEED + 2)
    fixtures = 0
    violations = 0
    while fixtures < 100:
        dim = int(rng.integers(2, 4))
        n_letters = int(rng.integers(1, 4))
        alphabet = ProjectorAlphabet(
            {f"P{i}": random_projector(rng, dim) for i in range(n_letters)})
        values = [0.0, 1.0]
        op = random_labeled_hermitian(rng, dim, values)
        delta = [1.0] if rng.random() < 0.7 else [0.0, 1.0]
        psi = random_state(rng, dim)
        phi = random_state(rng, dim)
        if rng.random() < 0.5:
            rho = DensityMatrix(np.outer(psi, psi.conj()))
        else:
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            rho = DensityMatrix(g @ g.conj().T)
        for ideal in (valuation_vector(alphabet, psi, op, delta, depth=4),
                      valuation_ray(alphabet, psi, op, delta, depth=4),
                      truth_ray_equal_strings(alphabet, psi, phi, depth=4),
                      valuation_density(alphabet, rho, op, delta, depth=4)):
            violations += len(ideal.violations)
        fixtures += 1
    elapsed = time.perf_counter() - started
    criterion(5, "reduction-certificates",
              violations == 0 and elapsed < 60.0,
              f"{fixtures} fixtures x 4 valuations at depth 4, {violations} closure violations",
              elapsed)


def test_acceptance_6_presheaf_and_sieves():
    started = time.perf_counter()
    qubit = ProjectorAlphabet({"Pz": PZ, "Pplus": PPLUS})
    orth = ProjectorAlphabet({"Pz": PZ, "Pm": PMINUS})
    rng = np.random.default_rng(SEED + 3)
    qutrit = ProjectorAlphabet(
        {f"P{i}": random_projector(rng, 3) for i in range(2)})
    worst = 0.0
    for alphabet in (qubit, orth, qutrit):
        for q in alphabet.monoid.enumerate_strings(4):
            p = len(q)
            for cut in range(p + 1):
                for cut2 in range(cut, p + 1):
                    s1 = q[p - cut:]
                    s2 = q[p - cut2:p - cut]
                    lhs = alphabet.reduce(s2 + s1)
                    rhs = alphabet.reduce(s2) @ alphabet.reduce(s1)
                    worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    functorial = worst <= 1e-9

    # every emitted sieve validates the final-segment structure on
    # construction; exercise a spread of contexts and states
    sz = hermitian_eig(SZ, snap_to=[1.0, -1.0])
    emitted = 0
    for context in (("Pz",), ("Pplus",), ("Pz", "Pplus"), ("Pplus", "Pz", "Pplus")):
        for psi in (E1, PLUS):
            sieve_valuation(qubit, psi, sz, [1.0], context)
            emitted += 1
    structural = True

    # one-dimensional coincidences, exact member-by-member
    coincide = True
    for psi in (PLUS, E1, random_state(rng, 2)):
        a = valuation_ray(qubit, psi, sz, [1.0], depth=3)
        b = truth_ray_equal_strings(qubit, psi, E1, depth=3)
        coincide = coincide and a.members == b.members
    s1 = sieve_valuation(qubit, PLUS, sz, [1.0], ("Pz", "Pplus"))
    s2 = sieve_truth_equal(qubit, PLUS, E1, ("Pz", "Pplus"))
    coincide = coincide and s1.included_tail_lengths == s2.included_tail_lengths

    elapsed = time.perf_counter() - started
    criterion(6, "presheaf-and-sieves",
              functorial and structural and coincide,
              f"functoriality residual {worst:.2e} on strings <= 4, "
              f"{emitted} sieves structurally final segments, 1-dim coincidences exact",
              elapsed)


def test_acceptance_7_galois_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(SEED + 4)
    qubit = ProjectorAlphabet({"Pz": PZ, "Pplus": PPLUS, "Pm": PMINUS})
    qutrit = ProjectorAlphabet({f"P{i}": random_projector(rng, 3) for i in range(3)})
    rounds = 0
    ok = True
    for alphabet, dim in ((qubit, 2), (qutrit, 3)):
        universe = StringUniverse(alphabet, 3)
        vectors = [np.eye(dim)[i] for i in range(dim)]
        while len(vectors) < 18:
            v = random_state(rng, dim)
            vectors.append(v)
        candidates = RaySet(vectors[:18])
        members = list(universe.members)
        for _ in range(50):
            xi_idx = sorted(set(int(i) for i in rng.integers(0, len(candidates), size=4)))
            xi = candidates.subset(xi_idx)
            bigger = candidates.subset(sorted(set(xi_idx)
                                              | {int(rng.integers(0, len(candidates)))}))
            j = [q for q in members if rng.random() < 0.3]

            # antitonicity on both polar maps
            p_big = set(polar_of_rays(bigger, universe))
            p_small = set(polar_of_rays(xi, universe))
            ok = ok and p_big <= p_small
            j_more = j + [members[int(rng.integers(0, len(members)))]]
            r1 = polar_of_strings(universe, j, candidates)
            r2 = polar_of_strings(universe, j_more, candidates)
            ok = ok and r2.is_subset_of(r1)

            # extensivity
            ok = ok and xi.is_subset_of(closure_rays(xi, universe, candidates))
            j0 = polar_of_strings(universe, j, candidates)
            j00 = set(polar_of_rays(j0, universe))
            ok = ok and set(j) <= j00

            # triple polar: the polar of any subset is full
            j000 = closure_rays(j0, universe, candidates)
            ok = ok and len(j000) == len(j0) and j0.is_subset_of(j000)
            ok = ok and is_full(j0, universe, candidates)
            rounds += 1
    elapsed = time.perf_counter() - started
    criterion(7, "galois-suite", ok and rounds >= 100,
              f"{rounds} random (rayset, stringset) draws, identities exact", elapsed)


def test_acceptance_8_determinism():
    started = time.perf_counter()
    ok = True
    for name in ("selftest", "verify_heyting", "valuate_ray", "equal_context",
                 "closure", "sieve_valuation", "query"):
        code1, out1 = run_cli(RUNS[name])
        code2, out2 = run_cli(RUNS[name])
        ok = ok and code1 == code2 == 0 and out1 == out2
        payload = json.loads(out1)
        ok = ok and payload["schema"] == 1
    elapsed = time.perf_counter() - started
    criterion(8, "determinism", ok,
              "selftest and golden commands byte-identical across consecutive runs",
              elapsed)
