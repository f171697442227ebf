"""The stacked validation of a quantum declaration against the per-object
oracle in ``tests/resolve_oracle.py``.

One ``numpy.linalg.eigh`` validates all the matrices of a declaration and
one norm its states; ray sets are one matrix of representatives.  On seeded
declarations whose members sit either side of every tolerance edge (the
Hermitian defect at eps·scale, the idempotence bound, the positivity bound,
state norms at the null threshold, ray overlaps at 1 - eps), the stacked pass
must raise the oracle's error, or give the oracle's arrays bit for bit.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tests.resolve_oracle as oracle
from monoidtopos import dsl
from monoidtopos.errors import MonoidToposError
from monoidtopos.linalg import DEFAULT_TOL, TolerancePolicy
from monoidtopos.monoid import FiniteMonoid, enumerate_left_ideals, map_monoid
from perfbench.workloads import scaled_spec
from tests.generators import random_state, random_unitary
from tests.test_cli import FIXTURE, run_cli

POLICIES = [DEFAULT_TOL, TolerancePolicy(eps=1e-9, null_threshold=1e-6),
            TolerancePolicy(eps=1e-6, null_threshold=1e-9)]
VALUES = (-2.0, -1.0, 0.0, 1.0, 3.0)


def at_edge(rng, bound):
    """A value at bound·(1 ± 1e-6), the side drawn."""
    return bound * (1 + rng.choice([-1e-6, 1e-6]))


def skew(rng, dim):
    """An anti-Hermitian matrix with largest entry modulus 1/2, so that adding
    t of it moves a - a† by exactly t at its largest entry."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    k = g - g.conj().T
    return k / (2 * np.abs(k).max()) if np.abs(k).max() else k


def operator(rng, dim, tol, values):
    u = random_unitary(rng, dim)
    a = (u * rng.choice(values, size=dim)) @ u.conj().T
    if rng.random() < 0.3:
        scale = max(1.0, float(np.abs(a).max()))
        a = a + at_edge(rng, tol.eps * scale) * skew(rng, dim)
    if rng.random() < 0.2:   # an eigenvalue off its value by about eps
        a = a + at_edge(rng, tol.eps) * np.outer(u[:, 0], u[:, 0].conj())
    return a


def projector(rng, dim, tol):
    u = random_unitary(rng, dim)[:, :int(rng.integers(0, dim + 1))]
    p = u @ u.conj().T
    if rng.random() < 0.3:   # idempotence defect at its bound, found by secant steps
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        s = (g + g.conj().T) / 2
        target = at_edge(rng, 1e3 * tol.eps * max(1.0, float(np.abs(p).max())))

        def defect(t):
            a = p + t * s
            return float(np.abs(a @ a - a).max()) - target

        t0, t1 = 0.0, target
        for _ in range(8):
            f0, f1 = defect(t0), defect(t1)
            if f1 == f0:
                break
            t0, t1 = t1, t1 - f1 * (t1 - t0) / (f1 - f0)
        p = p + t1 * s
    if rng.random() < 0.2:
        p = p + at_edge(rng, tol.eps * max(1.0, float(np.abs(p).max()))) * skew(rng, dim)
    return p


def density(rng, dim, tol):
    u = random_unitary(rng, dim)
    w = rng.random(dim)
    if rng.random() < 0.3:   # the lowest eigenvalue at the positivity bound
        w[0] = -at_edge(rng, 1e3 * tol.eps)
    if rng.random() < 0.1:   # the trace at the null threshold
        w = w / w.sum() * at_edge(rng, tol.null_threshold)
    return (u * w) @ u.conj().T


def states(rng, dim, tol, count):
    out = []
    for _ in range(count):
        v = random_state(rng, dim)
        roll = rng.random()
        if roll < 0.15:
            v = v * at_edge(rng, tol.null_threshold)
        elif roll < 0.5 and out:   # overlap 1 - eps·(1 ± 1e-6) with an earlier state
            base = out[int(rng.integers(0, len(out)))]
            base = base / np.linalg.norm(base)
            perp = random_state(rng, dim) - base * np.vdot(base, random_state(rng, dim))
            perp = perp - base * np.vdot(base, perp)
            if np.linalg.norm(perp) > 1e-3:
                c = 1 - at_edge(rng, tol.eps)
                v = np.exp(2j * np.pi * rng.random()) * (
                    c * base + np.sqrt(1 - c * c) * perp / np.linalg.norm(perp))
        out.append(v)
    return out


def entries(a):
    return tuple(tuple(complex(z) for z in row) for row in np.atleast_2d(a)) if a.ndim == 2 \
        else tuple(complex(z) for z in a)


def declaration(rng, tol):
    dim = int(rng.integers(1, 5))
    values = tuple(rng.choice(VALUES, size=int(rng.integers(1, 4)), replace=False).tolist())
    members = []
    for n in range(int(rng.integers(0, 4))):
        members.append(("operator", f"A{n}", operator(rng, dim, tol, values)))
    for n in range(int(rng.integers(0, 4))):
        members.append(("projector", f"P{n}", projector(rng, dim, tol)))
    for n in range(int(rng.integers(0, 3))):
        members.append(("density", f"rho{n}", density(rng, dim, tol)))
    for n, v in enumerate(states(rng, dim, tol, int(rng.integers(0, 6)))):
        members.append(("state", f"s{n}", v))
    order = rng.permutation(len(members))
    members = [members[i] for i in order]
    if members and rng.random() < 0.15:   # one member of the wrong shape
        i = int(rng.integers(0, len(members)))
        kind, name, a = members[i]
        members[i] = (kind, name, np.ones((dim + 1,) * a.ndim))
    members = [(kind, name, entries(np.asarray(a))) for kind, name, a in members]
    return dim, (None if rng.random() < 0.3 else values), members


def decl_of(dim, values, members):
    return dsl.QuantumDecl("Q", dim, values, tuple(
        dsl.StateMemberDecl(name, e) if kind == "state" else dsl.MatrixMemberDecl(kind, name, e)
        for kind, name, e in members))


def outcome(f):
    """The result, or the error as its type and message."""
    try:
        return f()
    except MonoidToposError as exc:
        return f"{type(exc).__name__}: {exc}"


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), policy=st.sampled_from(range(len(POLICIES))))
def test_the_stacked_pass_matches_the_per_object_oracle_at_the_edges(seed, policy):
    tol, rng = POLICIES[policy], np.random.default_rng(seed)
    dim, values, members = declaration(rng, tol)
    got = outcome(lambda: dsl._resolve_quantum(decl_of(dim, values, members), tol))
    expected = outcome(lambda: oracle.resolve_quantum(dim, values, members, tol))
    if isinstance(expected, str) or isinstance(got, str):
        assert got == expected
        return
    system, arrays = expected
    assert got.system.values == system.values
    for name, op in got.system.operators.items():
        matrix, eigenvalues, bases, projectors = oracle.hermitian_eig(
            [list(row) for row in next(e for k, n, e in members if n == name)], tol,
            snap_to=system.values)
        assert op.eigenvalues == eigenvalues and np.array_equal(op.matrix, matrix)
        assert all(map(np.array_equal, op.bases, bases))
        assert all(map(np.array_equal, op.projectors, projectors))
    assert {n: p.matrix for n, p in got.projectors.items()}.keys() == arrays["projector"].keys()
    assert all(np.array_equal(got.projectors[n].matrix, p) for n, p in arrays["projector"].items())
    assert all(np.array_equal(got.densities[n].matrix, r) for n, r in arrays["density"].items())
    assert got.densities.keys() == arrays["density"].keys()
    assert got.states.keys() == arrays["state"].keys()
    assert all(np.array_equal(got.states[n], v) for n, v in arrays["state"].items())
    names = list(arrays["state"])
    for picked in (names, names[::2], names[1:3]):
        rays = outcome(lambda: got.rayset(picked, tol).units)
        reps = outcome(lambda: np.array(oracle.rayset([arrays["state"][n] for n in picked], tol)))
        if isinstance(reps, str) or isinstance(rays, str):
            assert rays == reps
        else:
            assert np.array_equal(rays, reps.reshape(rays.shape))


def _counting_eigh(monkeypatch, fail_at=None):
    """Count numpy.linalg.eigh calls; the ``fail_at``-th call fails."""
    calls, eigh = [], np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        if len(calls) == fail_at:
            raise np.linalg.LinAlgError("did not converge")
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


def scaled_file(tmp_path, seed):
    text, _ = scaled_spec(np.random.default_rng(seed), True)
    path = tmp_path / f"scaled-{seed}.mtd"
    path.write_text(text, encoding="utf-8")
    return str(path)


def quantum_line(path):
    return next(i for i, line in enumerate(Path(path).read_text().splitlines(), 1)
                if line.startswith("quantum"))


@pytest.mark.parametrize("seed", [None, 2027, 424242])
def test_a_parse_makes_one_eigensolve_and_a_failed_one_is_a_diagnostic(tmp_path, monkeypatch,
                                                                       seed):
    path = FIXTURE if seed is None else scaled_file(tmp_path, seed)
    calls = _counting_eigh(monkeypatch)
    code, _ = run_cli(["parse", path])
    assert code == 0 and len(calls) == 1
    for k in range(1, len(calls) + 1):
        _counting_eigh(monkeypatch, fail_at=k)
        code, out = run_cli(["parse", path])
        payload = json.loads(out)
        assert (code, payload["status"]) == (1, "error")
        first = payload["diagnostics"][0]   # declarations over the system follow it
        assert first["line"] == quantum_line(path)
        assert first["message"] == "eigendecomposition failed: did not converge"


def test_a_system_without_values_is_decomposed_once(monkeypatch):
    calls = _counting_eigh(monkeypatch)
    result = dsl.parse_spec("quantum Q { dim 2; operator A { matrix [[1,0],[0,-1]]; }\n"
                            "operator B { matrix [[0,1],[1,0]]; } }")
    assert result.ok and result.spec.quantum["Q"].system.values == (-1.0, 1.0)
    assert len(calls) == 1


def test_an_enumeration_checks_each_principal_ideal_once(monkeypatch):
    import monoidtopos.monoid as monoid
    checked, is_ideal = [], monoid._is_ideal_mask

    def counted(m, mask):
        checked.append(mask)
        return is_ideal(m, mask)

    monkeypatch.setattr(monoid, "_is_ideal_mask", counted)
    for m in (map_monoid(3), FiniteMonoid([[b or a for b in range(12)] for a in range(12)])):
        checked.clear()
        ideals = enumerate_left_ideals(m)
        assert sorted(checked) == sorted(set(m.reach_masks()))
        assert [i.member_names() for i in ideals] == [
            tuple(m.names[x] if m.names else str(x) for x in sorted(i.members)) for i in ideals]
