"""The benchmark's three seeded workloads.

Each workload has two parts:

* ``<name>_inputs(seed, scale, scratch)`` draws every input from the seed
  with the benchmark's own code (the package receives only these inputs)
  and works out, independently of the package, the answers that can be
  known in advance.
* ``<name>_ops(inputs, tracer)`` is a generator over one iteration of the
  workload's fixed list of operations.  It yields ``Op`` objects; the runner
  times each ``Op.run`` and sends its result back, so later operations can
  use earlier results.  Output checks run between operations, outside the
  timed region.  A check that spans several operations is yielded as a
  ``Fail`` and charged to the operation before it.

Package functions are always looked up through their module at call time
(``monoid.heyting_report``), so that the traced run sees the wrapped names.

Costs are chosen not to depend on the seed: the seed relabels fixed
submonoids, rotates fixed projector and spectrum structures, and draws
values, states and queries, but the sizes that set the cost stay the same.
Only the random-monoid corpus varies in cost from seed to seed, and it is
split into three corpora so that its variation averages out.
"""

from __future__ import annotations

import io
import itertools
import json
from contextlib import redirect_stdout
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

import monoidtopos.classical as classical
import monoidtopos.cli as cli
import monoidtopos.context as context
import monoidtopos.corpus as corpus
import monoidtopos.linalg as linalg
import monoidtopos.monoid as monoid
import monoidtopos.mset as mset
import monoidtopos.quantum as quantum
import monoidtopos.reduction as reduction

ROOT = Path(__file__).resolve().parent.parent
QUBIT_FIXTURE = "tests/fixtures/qubit.mtd"
GOLDEN_DIR = ROOT / "tests" / "golden"


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Optional[Callable[[Any], Optional[str]]] = None


@dataclass
class Fail:
    message: str


def _require(ok: bool, message: str) -> Optional[str]:
    return None if ok else message


# ---------------------------------------------------------------------------
# Independent reference computations (plain Python, no package code)


def compose_closure(generators, k: int) -> list[tuple[int, ...]]:
    """All composites of the generators and the identity, as value tuples,
    in sorted order (breadth-first search over the generators)."""
    ident = tuple(range(k))
    seen = {ident}
    frontier = [ident]
    gens = [tuple(g) for g in generators]
    while frontier:
        nxt = []
        for f in frontier:
            for g in gens:
                h = tuple(g[f[x]] for x in range(k))
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return sorted(seen)


def count_left_ideals(table) -> int:
    """Number of left ideals: unions of principal left ideals, closed
    breadth-first under union with each principal ideal."""
    n = len(table)
    principal = set()
    for x in range(n):
        mask = 0
        for m in range(n):
            mask |= 1 << table[m][x]
        principal.add(mask)
    found = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for mask in frontier:
            for p in principal:
                union = mask | p
                if union not in found:
                    found.add(union)
                    nxt.append(union)
        frontier = nxt
    return len(found)


def _map_table(maps) -> list[list[int]]:
    index = {f: i for i, f in enumerate(maps)}
    k = len(maps[0])
    return [[index[tuple(f[g[x]] for x in range(k))] for g in maps] for f in maps]


def _conjugate(gens, perm):
    """Relabel self-maps of {0..k-1} by a permutation: g -> perm.g.perm^-1."""
    k = len(perm)
    inv = [0] * k
    for i, p in enumerate(perm):
        inv[p] = i
    return [tuple(perm[g[inv[x]]] for x in range(k)) for g in gens]


def _unitary(rng, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _state(rng, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _in_span(rng, basis: np.ndarray) -> np.ndarray:
    coeffs = rng.normal(size=basis.shape[1]) + 1j * rng.normal(size=basis.shape[1])
    v = basis @ coeffs
    return v / np.linalg.norm(v)


def _projector(basis: np.ndarray) -> np.ndarray:
    return basis @ basis.conj().T


def _labelled(u: np.ndarray, labels) -> np.ndarray:
    return u @ np.diag(np.asarray(labels, dtype=complex)) @ u.conj().T


def _density(rng, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.real(np.trace(rho))


# ---------------------------------------------------------------------------
# lattice: ideal lattices, M-sets and characteristic arrows


# Generators of fixed submonoids of map_monoid(4).  The seed conjugates them
# by a permutation of the four points, which changes every table but not
# the isomorphism class, so the cost of the lattice work is the same for
# every seed.  Sizes and ideal counts are checked at run time.
LATTICE_SUBMONOIDS = (
    ((1, 1, 0, 0), (1, 3, 2, 3), (1, 2, 2, 2)),   # 23 elements, 57 left ideals
    ((0, 0, 0, 2), (3, 2, 1, 2), (2, 2, 0, 0)),   # 28 elements, 54 left ideals
)
SMOKE_SUBMONOIDS = (((1, 0), (0, 0)),)           # all four self-maps of two points


def lattice_inputs(seed: int, scale: str, scratch: Path) -> dict:
    rng = np.random.default_rng(seed)
    full = scale == "full"
    k = 4 if full else 2
    subs = []
    for gens in (LATTICE_SUBMONOIDS if full else SMOKE_SUBMONOIDS):
        perm = [int(p) for p in rng.permutation(k)]
        relabelled = _conjugate(gens, perm)
        maps = compose_closure(relabelled, k)
        subs.append({"gens": relabelled, "k": k, "size": len(maps),
                     "ideals": count_left_ideals(_map_table(maps))})
    nv, ns = (4, 2) if full else (2, 1)
    values = sorted(float(v) for v in rng.choice(np.arange(-6, 7), size=nv, replace=False))
    states = [f"s{i}" for i in range(ns)]
    quantities = {f"Q{i}": [values[int(j)] for j in rng.integers(0, nv, size=ns)]
                  for i in range(3)}
    classical_queries = [(states[int(rng.integers(0, ns))], f"Q{int(rng.integers(0, 3))}",
                          _nonempty_subset(rng, values)) for _ in range(2 if full else 1)]
    qvalues = sorted(float(v) for v in rng.choice(np.arange(-6, 7), size=3, replace=False))
    dim = 4 if full else 2
    # Three eigenvalue clusters per operator (two when small), so the
    # proposition M-set has the same size for every seed.
    label_sets = ((0, 1, 2, 2), (0, 0, 1, 2)) if full else ((0, 1),)
    operators = {f"O{i}": _labelled(_unitary(rng, dim), [qvalues[j] for j in labels])
                 for i, labels in enumerate(label_sets)}
    quantum_queries = [(_state(rng, dim), f"O{int(rng.integers(0, len(operators)))}",
                        _nonempty_subset(rng, qvalues)) for _ in range(8 if full else 1)]
    return {
        "corpus_seeds": [int(s) for s in rng.integers(0, 2**31, size=3 if full else 1)],
        "corpus_count": 10 if full else 2,
        "submonoids": subs,
        "classical": (states, values, quantities, classical_queries),
        "quantum": (dim, qvalues, operators, quantum_queries),
    }


def _nonempty_subset(rng, values) -> list[float]:
    picked = [v for v in values if rng.random() < 0.5]
    return picked or [values[int(rng.integers(0, len(values)))]]


def _check_report(expected_ideals: int, report: dict) -> Optional[str]:
    if not report["all_laws_hold"]:
        failed = sorted(k for k, v in report["laws"].items() if not v)
        return f"Heyting laws fail: {failed}"
    return _require(report["ideal_count"] == expected_ideals,
                    f"{report['ideal_count']} ideals, expected {expected_ideals}")


def _heyting_reports(monoids) -> list[dict]:
    return [monoid.heyting_report(m) for m in monoids]


def _check_reports(monoids, reports) -> Optional[str]:
    for m, report in zip(monoids, reports):
        error = _check_report(count_left_ideals(m.table), report)
        if error:
            return error
    return None


def _both_routes(direct, arrow):
    """A valuation computed directly and through the characteristic arrow."""
    return direct(), arrow()


def _routes_agree(result) -> Optional[str]:
    direct, arrow = result
    return _require(direct.mask == arrow.mask,
                    "characteristic-arrow route disagrees with the direct valuation")


def lattice_ops(inp: dict, tracer=None):
    # Operation mix (README.md, "Request latency"): req_p50_ms falls inside
    # the block of quantum valuation pairs and req_p90_ms on the cheaper
    # submonoid Heyting report, both of which cost the same for every seed.
    corpora = [(yield Op("corpus.small_monoids", partial(corpus.small_monoids, 3),
                         lambda r: _require(len(r) == 10,
                                            f"{len(r)} monoids of size <= 3, expected 10")))]
    count = inp["corpus_count"]
    for seed in inp["corpus_seeds"]:
        corpora.append((yield Op("corpus.random_monoids", partial(corpus.random_monoids, seed, count),
                                 lambda r: _require(len(r) == count and all(m.size in (4, 5) for m in r),
                                                    "random corpus has the wrong sizes"))))
    witnesses = 0
    for monoids in corpora:
        reports = yield Op("monoid.heyting_report[corpus]", partial(_heyting_reports, monoids),
                           partial(_check_reports, monoids))
        witnesses += sum(bool(r["excluded_middle_failures"]) for r in reports)
    if not witnesses:
        yield Fail("no monoid of the corpus has an excluded-middle witness")

    for sub in inp["submonoids"]:
        m = yield Op("monoid.submonoid_closure",
                     partial(monoid.submonoid_closure, sub["gens"], sub["k"]),
                     lambda r, n=sub["size"]: _require(r.size == n, f"closure has {r.size} elements, expected {n}"))
        yield Op("monoid.heyting_report", partial(monoid.heyting_report, m),
                 partial(_check_report, sub["ideals"]))
        lr = yield Op("mset.left_regular", partial(mset.left_regular, m),
                      lambda r, n=sub["size"]: _require(len(r) == n, "left-regular carrier has the wrong size"))
        yield Op("mset.equivariant_maps_to_ideals", partial(mset.equivariant_maps_to_ideals, lr),
                 lambda r, n=sub["ideals"]: _require(
                     len(r) == n, f"{len(r)} equivariant maps, expected one per ideal ({n})"))
        yield Op("mset.product_mset", partial(mset.product_mset, lr, lr),
                 partial(_check_product, m))

    # Each classical query builds the proposition M-set of the system again
    # (E_s_valuation without a cached M-set), as a single query would.
    states, values, quantities, queries = inp["classical"]
    system = yield Op("classical.ClassicalSystem",
                      partial(classical.ClassicalSystem, states, values, quantities))
    for state, name, delta in queries:
        yield Op("classical.valuation_routes", partial(
            _both_routes,
            partial(classical.generalized_classical_valuation, system, state, name, delta),
            partial(classical.E_s_valuation, system, state, name, delta)), _routes_agree)

    dim, qvalues, operators, queries = inp["quantum"]
    system = yield Op("quantum.QuantumSystem",
                      partial(quantum.QuantumSystem, dim, qvalues, operators))
    pm = yield Op("quantum.proposition_mset", partial(quantum.proposition_mset, system))
    for psi, name, delta in queries:
        yield Op("quantum.valuation_routes", partial(
            _both_routes,
            partial(quantum.quantum_function_valuation, system, psi, name, delta),
            partial(quantum.E_psi_valuation_via_arrow, system, psi, name, delta, pm)),
            _routes_agree)


def _check_product(m, prod) -> Optional[str]:
    n = m.size
    if len(prod) != n * n:
        return f"product carrier has {len(prod)} points, expected {n * n}"
    for a in range(n):
        point = (a, (a * 7 + 3) % n)
        got = prod.act(a, point)
        if got != (m.table[a][point[0]], m.table[a][point[1]]):
            return f"product action is not componentwise at {point}"
    return None


# ---------------------------------------------------------------------------
# strings: projector strings, reductions, polars


def strings_inputs(seed: int, scale: str, scratch: Path) -> dict:
    rng = np.random.default_rng(seed)
    full = scale == "full"
    dim = 4 if full else 2
    u = _unitary(rng, dim)
    v = _unitary(rng, dim)
    half = dim // 2
    # P0 and P2 have orthogonal images, so P0*P2 and P2*P0 are null and
    # every string with those two letters adjacent leaves the universe.
    letters = {"P0": _projector(u[:, :half]),
               "P1": _projector(v[:, :half]),
               "P2": _projector(u[:, half:half + 1])}
    kernels = [u[:, half:], v[:, half:], np.delete(u, half, axis=1)]
    depth = 7 if full else 3
    valuation_depth = 6 if full else 2
    galois_depth = 3 if full else 2
    n_candidates = 24 if full else 8
    vectors = [_in_span(rng, kern) for kern in kernels for _ in range(3 if full else 1)]
    while len(vectors) < n_candidates:
        vectors.append(_state(rng, dim))
    galois_members = expected_universe(3, galois_depth)
    draws = []
    for _ in range(20 if full else 2):
        xi = sorted({int(i) for i in rng.integers(0, n_candidates, size=4)})
        bigger = sorted(set(xi) | {int(rng.integers(0, n_candidates))})
        chosen = rng.random(len(galois_members)) < 0.3
        extra = int(rng.integers(0, len(galois_members)))
        draws.append((xi, bigger, chosen, extra))
    return {
        "letters": letters,
        "depth": depth,
        "expected_members": expected_universe(3, depth),
        "valuation_depth": valuation_depth,
        "galois_depth": galois_depth,
        "galois_members": galois_members,
        "states": [_state(rng, dim) for _ in range(2)],
        "operator": _labelled(_unitary(rng, dim), [0.0] * half + [1.0] * (dim - half)),
        "densities": [_density(rng, dim) for _ in range(2)],
        "candidates": vectors,
        "draws": draws,
        "hermitian": [_hermitian(rng, d) for d in ((4, 4, 8, 8, 16, 16) if full else (2,))],
    }


def expected_universe(n_letters: int, depth: int) -> list[tuple[str, ...]]:
    """Strings over P0..P{n-1} up to the depth, shortest first, leaving out
    those where P0 and P2 are adjacent (their reduction is null)."""
    names = [f"P{i}" for i in range(n_letters)]
    out = []
    for k in range(depth + 1):
        for q in itertools.product(names, repeat=k):
            if not any({a, b} == {"P0", "P2"} for a, b in zip(q, q[1:])):
                out.append(q)
    return out


def _hermitian(rng, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2.0


def _no_violations(ideal) -> Optional[str]:
    return _require(not ideal.violations, f"{len(ideal.violations)} ideal-certificate violations")


def _check_eig(matrix, op) -> Optional[str]:
    expected = np.linalg.eigvalsh(matrix)
    got = np.asarray(op.eigenvalues)
    if len(got) != len(expected):
        return f"{len(got)} eigenvalues, expected {len(expected)}"
    return _require(np.allclose(got, expected, atol=1e-8),
                    "eigenvalues differ from numpy.linalg.eigvalsh")


def _ray_indices(rays, candidates) -> Optional[set]:
    """Indices of the candidate vectors that the rays represent, compared
    by overlap so that the check does not rely on package code."""
    out = set()
    for r in rays.rays:
        hits = [i for i, c in enumerate(candidates)
                if abs(np.vdot(c, r.representative)) >= 1 - 1e-9]
        if len(hits) != 1:
            return None
        out.add(hits[0])
    return out


def galois_draw(universe, candidates, xi, bigger, j, j_more) -> dict:
    """One acceptance-7-style draw: the polars and closures whose Galois
    identities the check verifies."""
    draw = {
        "p_big": context.polar_of_rays(bigger, universe),
        "p_small": context.polar_of_rays(xi, universe),
        "r1": context.polar_of_strings(universe, j, candidates),
        "r2": context.polar_of_strings(universe, j_more, candidates),
        "closed": context.closure_rays(xi, universe, candidates),
    }
    r1 = draw["r1"]
    draw["j00"] = context.polar_of_rays(r1, universe)
    draw["j000"] = context.closure_rays(r1, universe, candidates)
    draw["full"] = context.is_full(r1, universe, candidates)
    return draw


def _check_galois(vectors, xi_idx, j, draw) -> Optional[str]:
    if not set(draw["p_big"]) <= set(draw["p_small"]):
        return "polar of rays is not antitone"
    i1, i2 = _ray_indices(draw["r1"], vectors), _ray_indices(draw["r2"], vectors)
    if i1 is None or i2 is None or not i2 <= i1:
        return "polar of strings is not antitone"
    closed = _ray_indices(draw["closed"], vectors)
    if closed is None or not set(xi_idx) <= closed:
        return "ray closure is not extensive"
    if not set(j) <= set(draw["j00"]):
        return "string closure is not extensive"
    if _ray_indices(draw["j000"], vectors) != i1:
        return "triple polar differs from the polar"
    return _require(draw["full"] is True, "the polar of a string set is not full")


def strings_ops(inp: dict, tracer=None):
    # Operation mix (README.md, "Request latency"): req_p50_ms falls inside
    # the block of Galois draws and req_p90_ms inside the block of depth-6
    # valuations.
    alphabet = yield Op("reduction.ProjectorAlphabet",
                        partial(reduction.ProjectorAlphabet, inp["letters"]))
    expected = inp["expected_members"]
    yield Op("context.StringUniverse", partial(context.StringUniverse, alphabet, inp["depth"]),
             lambda r: _require(list(r.members) == expected,
                                f"universe has {len(r)} strings, expected {len(expected)}"))
    op = yield Op("linalg.hermitian_eig",
                  partial(linalg.hermitian_eig, inp["operator"], snap_to=[0.0, 1.0]))
    depth = inp["valuation_depth"]
    for psi in inp["states"]:
        yield Op("reduction.valuation_vector",
                 partial(reduction.valuation_vector, alphabet, psi, op, [1.0], depth), _no_violations)
        yield Op("reduction.valuation_ray",
                 partial(reduction.valuation_ray, alphabet, psi, op, [1.0], depth), _no_violations)
    for matrix in inp["densities"]:
        rho = yield Op("reduction.DensityMatrix", partial(reduction.DensityMatrix, matrix))
        yield Op("reduction.valuation_density",
                 partial(reduction.valuation_density, alphabet, rho, op, [1.0], depth), _no_violations)

    gmembers = inp["galois_members"]
    universe = yield Op("context.StringUniverse",
                        partial(context.StringUniverse, alphabet, inp["galois_depth"]),
                        lambda r: _require(list(r.members) == gmembers, "Galois universe is wrong"))
    vectors = inp["candidates"]
    candidates = yield Op("context.RaySet", partial(context.RaySet, vectors),
                          lambda r: _require(len(r) == len(vectors), "candidate rays were merged"))
    for xi_idx, bigger_idx, chosen, extra in inp["draws"]:
        j = [q for q, keep in zip(gmembers, chosen) if keep]
        yield Op("context.galois_draw", partial(
            galois_draw, universe, candidates, candidates.subset(xi_idx),
            candidates.subset(bigger_idx), j, j + [gmembers[extra]]),
            partial(_check_galois, vectors, xi_idx, j))

    for matrix in inp["hermitian"]:
        yield Op("linalg.hermitian_eig", partial(linalg.hermitian_eig, matrix),
                 partial(_check_eig, matrix))


# ---------------------------------------------------------------------------
# cli: in-process requests, one client in a closed loop


# The argument lists of the byte-compared goldens on the qubit fixture
# (tests/golden/<name>.json); selftest has its own golden and no fixture.
QUBIT_REQUESTS = {
    "parse": ["parse", QUBIT_FIXTURE],
    "verify_heyting": ["verify-heyting", QUBIT_FIXTURE, "M2"],
    "enumerate_ideals": ["enumerate-ideals", QUBIT_FIXTURE, "M2"],
    "truth_subset": ["truth", QUBIT_FIXTURE, "--mset", "Pts", "--kind", "subset",
                     "--point", "0", "--subset", "{1}"],
    "truth_equal": ["truth", QUBIT_FIXTURE, "--mset", "Pts", "--kind", "equal",
                    "--point", "0", "--point2", "1"],
    "valuate_classical": ["valuate-classical", QUBIT_FIXTURE, "--system", "C",
                          "--state", "s1", "--quantity", "A", "--range", "{0}",
                          "--check-arrow"],
    "valuate_quantum": ["valuate-quantum", QUBIT_FIXTURE, "--system", "Q",
                        "--state", "psi", "--op", "A", "--range", "{1}", "--check-arrow"],
    "valuate_ray": ["valuate", QUBIT_FIXTURE, "--system", "Q", "--state", "psi",
                    "--op", "A", "--range", "{1}", "--alphabet", "(Pz,Pplus)",
                    "--mode", "ray", "--depth", "3"],
    "valuate_vector": ["valuate", QUBIT_FIXTURE, "--system", "Q", "--state", "psi",
                       "--op", "A", "--range", "{1}", "--alphabet", "(Pz,Pplus)",
                       "--mode", "vector", "--depth", "3"],
    "valuate_density": ["valuate", QUBIT_FIXTURE, "--system", "Q", "--density", "rho",
                        "--op", "A", "--range", "{1}", "--alphabet", "(Pz,Pplus)",
                        "--mode", "density", "--depth", "3"],
    "equal_sp": ["equal", QUBIT_FIXTURE, "--system", "Q", "--state1", "e1",
                 "--state2", "e2", "--mode", "sp", "--alphabet", "(Pz,Pplus)", "--depth", "3"],
    "equal_context": ["equal", QUBIT_FIXTURE, "--system", "Q", "--state1", "e1",
                      "--state2", "e2", "--mode", "context", "--universe", "U",
                      "--rayset", "Xi"],
    "equal_sieve": ["equal", QUBIT_FIXTURE, "--system", "Q", "--state1", "e1",
                    "--state2", "e2", "--mode", "sieve", "--context", "(Pz,Pplus)"],
    "polar_rays": ["polar", QUBIT_FIXTURE, "--universe", "U", "--rayset", "Xi"],
    "polar_strings": ["polar", QUBIT_FIXTURE, "--universe", "U", "--strings",
                      "(Pz);(Pz,Pplus)", "--candidates", "V"],
    "closure": ["closure", QUBIT_FIXTURE, "--universe", "U", "--rayset", "Xi",
                "--candidates", "V"],
    "sieve_valuation": ["sieve", QUBIT_FIXTURE, "--system", "Q", "--context",
                        "(Pz,Pplus)", "--state", "e1", "--op", "A", "--range", "{1}"],
    "sieve_equal": ["sieve", QUBIT_FIXTURE, "--system", "Q", "--context",
                    "(Pz,Pplus)", "--state", "e1", "--state2", "e2"],
    "query": ["query", QUBIT_FIXTURE, "q1"],
}

# A mid-size submonoid of map_monoid(4) for the scaled file: 14 elements,
# 27 left ideals, relabelled by the seed like the lattice submonoids.
CLI_SUBMONOID = ((2, 3, 0, 0), (3, 0, 3, 2))


def cli_inputs(seed: int, scale: str, scratch: Path) -> dict:
    rng = np.random.default_rng(seed)
    full = scale == "full"
    goldens = {name: (GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8")
               for name in QUBIT_REQUESTS}
    text, requests = scaled_spec(rng, full)
    scratch.mkdir(parents=True, exist_ok=True)
    path = scratch / f"scaled-{seed}-{scale}.mtd"
    path.write_text(text, encoding="utf-8")
    scaled = {name: [argv[0], str(path)] + argv[1:] for name, argv in requests.items()}
    qubit = QUBIT_REQUESTS if full else {"valuate_ray": QUBIT_REQUESTS["valuate_ray"]}
    return {"qubit": qubit, "goldens": goldens, "scaled": scaled, "seen": {}}


def _num(x: float) -> str:
    s = f"{x:.12f}".rstrip("0").rstrip(".")
    return "0" if s in ("-0", "") else s


def _cnum(z: complex) -> str:
    re, im = _num(z.real), _num(abs(z.imag))
    if im == "0":
        return re
    return f"{re}{'-' if z.imag < 0 else '+'}{im}i"


def _mat(a) -> str:
    return "[" + ",".join("[" + ",".join(_cnum(z) for z in row) + "]" for row in a) + "]"


def _vec(v) -> str:
    return "[" + ",".join(_cnum(z) for z in v) + "]"


def _rounded(a: np.ndarray) -> np.ndarray:
    """Round to the 12 decimals the file keeps, preserving hermiticity."""
    return np.round(a.real, 12) + 1j * np.round(a.imag, 12)


def scaled_spec(rng, full: bool) -> tuple[str, dict]:
    """A seeded system file of moderate size and the requests made on it."""
    k = 4 if full else 2
    gens = _conjugate(CLI_SUBMONOID if full else SMOKE_SUBMONOIDS[0],
                      [int(p) for p in rng.permutation(k)])
    ident = tuple(range(k))
    maps = [ident] + [f for f in compose_closure(gens, k) if f != ident]   # DSL identity is 0
    table = _map_table(maps)
    n = len(table)
    dim = 4 if full else 2
    half = dim // 2
    u = _unitary(rng, dim)
    v = _unitary(rng, dim)
    projectors = {"P0": _projector(u[:, :half]), "P1": _projector(v[:, :half]),
                  "P2": _projector(u[:, half:half + 1])}
    values = sorted(int(x) for x in rng.choice(np.arange(-4, 5), size=3, replace=False))
    labels = [values[0], values[1]] + [values[2]] * (dim - 2) if full else values[:2]
    operator = _labelled(_unitary(rng, dim), labels)
    kernels = [u[:, half:], v[:, half:]]
    states = [_in_span(rng, kern) for kern in kernels for _ in range(2 if full else 1)]
    while len(states) < (12 if full else 6):
        states.append(_state(rng, dim))
    cvalues = sorted(int(x) for x in rng.choice(np.arange(-4, 5), size=3, replace=False))
    quantity = [cvalues[int(i)] for i in rng.integers(0, 3, size=2)]
    point = int(rng.integers(0, n))
    invariant = sorted({table[m][point] for m in range(n)})
    lines = [
        "# scaled system generated by the benchmark from its seed",
        "tolerance { eps 1e-9; null 1e-9; }",
        f"monoid Mid {{ elements {n}; table {_mat(table)}; }}",
        f"mset LR {{ monoid Mid; points {n}; action {_mat(table)}; }}",
        f"classical C {{ values {{{','.join(map(str, cvalues))}}}; states (s0,s1); "
        f"quantity A [{','.join(map(str, quantity))}]; }}",
        "quantum S {",
        f"  dim {dim};",
        f"  values {{{','.join(map(str, values))}}};",
        f"  operator A {{ matrix {_mat(_rounded(operator))}; }}",
    ]
    for name, p in projectors.items():
        lines.append(f"  projector {name} {{ matrix {_mat(_rounded(p))}; }}")
    for i, s in enumerate(states):
        lines.append(f"  state r{i} {_vec(_rounded(s))};")
    lines.append(f"  density rho {_mat(_rounded(_density(rng, dim)))};")
    lines.append("}")
    names = [f"r{i}" for i in range(len(states))]
    lines.append(f"rayset R {{ system S; rays ({','.join(names)}); }}")
    lines.append(f"rayset Xi {{ system S; rays ({','.join(names[:4])}); }}")
    lines.append(f"universe U {{ system S; alphabet (P0,P1,P2); depth {4 if full else 2}; }}")
    top = values[2]
    lines.append(f"query q1 {{ run valuate; system S; state r4; op A; range {{{top}}}; "
                 f"mode ray; alphabet (P0,P1,P2); }}")
    text = "\n".join(lines) + "\n"

    depth = "4" if full else "2"
    other = (point + 1) % n
    context_letters = "(P1,P0,P1,P2,P1)" if full else "(P1,P0)"
    requests = {
        "parse": ["parse"],
        "verify_heyting": ["verify-heyting", "Mid"],
        "enumerate_ideals": ["enumerate-ideals", "Mid"],
        "truth_invariant": ["truth", "--mset", "LR", "--kind", "invariant", "--point",
                            str(other), "--subset", "{" + ",".join(map(str, invariant)) + "}"],
        "valuate_classical": ["valuate-classical", "--system", "C", "--state", "s1",
                              "--quantity", "A", "--range", f"{{{cvalues[0]}}}", "--check-arrow"],
        "valuate_quantum": ["valuate-quantum", "--system", "S", "--state", "r4", "--op", "A",
                            "--range", f"{{{top}}}", "--check-arrow"],
        "valuate_ray": ["valuate", "--system", "S", "--state", "r4", "--op", "A",
                        "--range", f"{{{top}}}", "--mode", "ray", "--depth", depth],
        "valuate_density": ["valuate", "--system", "S", "--density", "rho", "--op", "A",
                            "--range", f"{{{top}}}", "--mode", "density", "--depth", depth],
        "equal_context": ["equal", "--system", "S", "--state1", "r0", "--state2", "r1",
                          "--mode", "context", "--universe", "U", "--rayset", "Xi"],
        "polar_rays": ["polar", "--universe", "U", "--rayset", "Xi"],
        "polar_strings": ["polar", "--universe", "U", "--strings", "(P0);(P1,P0);(P2,P1)",
                          "--candidates", "R"],
        "closure": ["closure", "--universe", "U", "--rayset", "Xi", "--candidates", "R"],
        "sieve_valuation": ["sieve", "--system", "S", "--context", context_letters,
                            "--state", "r4", "--op", "A", "--range", f"{{{top}}}"],
        "query": ["query", "q1"],
    }
    return text, requests


def call_main(argv: list[str]) -> tuple[int, str]:
    """One in-process request; the report goes to a buffer, not stdout."""
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


def _check_golden(golden: str, response) -> Optional[str]:
    code, out = response
    if code != 0:
        return f"exit code {code}"
    return _require(out == golden, "report differs from its golden file")


def _check_scaled(seen: dict, name: str, response) -> Optional[str]:
    code, out = response
    if code != 0:
        return f"exit code {code}: {out[:200]}"
    if json.loads(out).get("status") != "ok":
        return f"status is not ok: {out[:200]}"
    first = seen.setdefault(name, out)
    return _require(out == first, "report differs from the previous run of the same request")


def cli_ops(inp: dict, tracer=None):
    requests = [(name, argv, partial(_check_golden, inp["goldens"][name]))
                for name, argv in inp["qubit"].items()]
    requests += [(name, argv, partial(_check_scaled, inp["seen"], name))
                 for name, argv in inp["scaled"].items()]
    for name, argv, check in requests:
        code, out = yield Op(f"cli.{argv[0]}", partial(call_main, argv), check)
        if tracer is not None:
            tracer.count("cli.bytes_out", len(out.encode("utf-8")))


WORKLOADS = {
    "lattice": (lattice_inputs, lattice_ops),
    "strings": (strings_inputs, strings_ops),
    "cli": (cli_inputs, cli_ops),
}

# Layers each workload is predicted to spend its time in, and the least
# share of the traced self time that bears the prediction out: "almost all"
# for lattice and strings, "matter" for cli (README.md, "Prediction table").
DOMINANT = {
    "lattice": (("monoid", "corpus", "mset"), 0.75),
    "strings": (("linalg", "reduction", "context"), 0.75),
    "cli": (("dsl", "cli"), 0.25),
}
