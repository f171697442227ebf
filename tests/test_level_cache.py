"""The canonical rows built once per alphabet, and the non-null test.

``ProjectorAlphabet`` validates the letters it is not given as projectors
with one eigensolve, and builds the stack of canonical words once: a deeper
depth extends the levels built, a shallower one returns read-only prefix
views.  ``linalg.non_null`` decides most matrices by their Frobenius norm
and takes an SVD only between its bounds; it must give the all-SVD answer
everywhere, also where the Frobenius norm is above the null threshold and
the largest singular value is not.  A null row absorbs: a row is alive
only when its row without the leftmost letter is.  The references are a
fresh alphabet, the per-letter ``Projector`` loop and ``in_sp0`` (one SVD
per string).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tests.valuation_oracle as oracle
from monoidtopos import context, reduction
from monoidtopos.errors import (CapacityError, MonoidToposError, NumericError,
                                PreconditionError, ValidationError)
from monoidtopos.linalg import DEFAULT_TOL, Projector, TolerancePolicy, hermitian_eig, non_null
from monoidtopos.reduction import ProjectorAlphabet
from perfbench.workloads import strings_inputs, strings_ops
from tests.generators import random_projector, random_state, random_unitary
from tests.test_resolve_stacked import _counting_eigh

POLICIES = [DEFAULT_TOL, TolerancePolicy(eps=1e-9, null_threshold=1e-6),
            TolerancePolicy(eps=1e-9, null_threshold=1e-2)]


def seeded_letters(seed, dim, n=3):
    rng = np.random.default_rng(seed)
    return {f"P{i}": random_projector(rng, dim) for i in range(n)}


# ---------------------------------------------------------------------------
# The letters


def one_letter_at_a_time(items, tol=DEFAULT_TOL):
    """The validation loop the stacked one replaced: a Projector per letter,
    then the dimension check against the letters before it."""
    out, dim = [], None
    for _, matrix in items:
        a = (matrix if isinstance(matrix, Projector) else Projector(matrix, tol)).matrix
        if out and a.shape[0] != dim:
            raise ValidationError("letters must share one dimension")
        dim = a.shape[0]
        out.append(a)
    return out


NOT_HERMITIAN = np.array([[1.0, 1.0], [0.0, 0.0]])
NOT_IDEMPOTENT = np.array([[1.0, 1.0], [1.0, 1.0]])
NOT_SQUARE = np.zeros((2, 3))
P2, P3 = np.diag([1.0, 0.0]), np.diag([1.0, 0.0, 0.0])


@pytest.mark.parametrize("letters", [
    [P2, NOT_HERMITIAN, NOT_SQUARE],
    [P2, NOT_SQUARE, NOT_IDEMPOTENT],
    [NOT_SQUARE, NOT_HERMITIAN],
    [P2, P3, NOT_IDEMPOTENT],
    [P2, np.eye(3) * 2, P3],
    [P2, Projector(P3), NOT_SQUARE],
    [P3, NOT_IDEMPOTENT, P2],
    [P2, [[1, 0], [0]]],
    [P2, [[np.nan, 0], [0, 0]], NOT_HERMITIAN],
])
def test_the_first_letter_error_is_the_one_at_a_time_error(letters):
    items = [(f"L{i}", m) for i, m in enumerate(letters)]
    with pytest.raises(MonoidToposError) as expected:
        one_letter_at_a_time(items)
    with pytest.raises(type(expected.value)) as got:
        ProjectorAlphabet(items)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("dim", [2, 3, 4, 16])
def test_letters_are_bit_identical_to_one_projector_each(dim):
    rng = np.random.default_rng(7100 + dim)
    # noisy projectors of every rank, so that V V† is not the matrix given
    letters = {f"P{r}": random_projector(rng, dim, r) + 1e-13 * rng.normal(size=(dim, dim))
               for r in range(dim + 1)}
    alphabet = ProjectorAlphabet(letters)
    for name, matrix in zip(letters, one_letter_at_a_time(letters.items())):
        assert np.array_equal(alphabet.matrices[name], matrix)
        assert np.array_equal(alphabet.matrix(name), matrix)


def test_an_alphabet_makes_one_eigensolve(monkeypatch):
    calls = _counting_eigh(monkeypatch)
    letters = seeded_letters(7200, 4)
    ProjectorAlphabet(letters)
    assert calls == [(3, 4, 4)]
    given = {**letters, "Q": Projector(letters["P0"])}
    calls.clear()
    ProjectorAlphabet(given)
    assert calls == [(3, 4, 4)]
    given = {name: Projector(m) for name, m in letters.items()}
    calls.clear()
    ProjectorAlphabet(given)
    assert calls == []


def test_a_failed_eigensolve_is_a_numeric_error(monkeypatch):
    _counting_eigh(monkeypatch, fail_at=1)
    with pytest.raises(NumericError, match="eigendecomposition failed: did not converge"):
        ProjectorAlphabet(seeded_letters(7300, 3))


def test_letter_arrays_are_read_only():
    given = Projector(P2)
    alphabet = ProjectorAlphabet({"P": P2, "Q": given})
    assert not alphabet.letters.flags.writeable
    for matrix in alphabet.matrices.values():
        with pytest.raises(ValueError):
            matrix[0, 0] = 0.5
    assert given.matrix.flags.writeable   # a given projector is copied, not frozen


# ---------------------------------------------------------------------------
# The cache


def assert_levels_equal(got, expected, depth):
    (canons, stack, left), (fresh_canons, fresh_stack, fresh_left) = got, expected
    assert len(canons) == len(fresh_canons) == depth + 1
    for canon, fresh_canon in zip(canons, fresh_canons):
        assert np.array_equal(canon, fresh_canon)
    assert np.array_equal(stack, fresh_stack)
    assert np.array_equal(left, fresh_left)


@pytest.mark.parametrize("depths", [(7, 6, 3), (3, 7), (0,), (2, 2, 5, 0)])
@pytest.mark.parametrize("dim", [2, 4])
def test_any_depth_order_gives_a_fresh_alphabets_levels(dim, depths):
    letters = seeded_letters(7400 + dim, dim)
    alphabet = ProjectorAlphabet(letters)
    for depth in depths:
        got = alphabet.levels(depth)
        fresh = ProjectorAlphabet(letters)
        assert_levels_equal(got, fresh.levels(depth), depth)
        rows = len(got[1])
        assert np.array_equal(alphabet.alive[:rows], fresh.alive)
        assert np.array_equal(alphabet.alive[:rows], non_null(got[1]))


def test_returned_arrays_are_read_only():
    alphabet = ProjectorAlphabet(seeded_letters(7500, 3))
    for depth in (4, 2):
        canons, stack, left = alphabet.levels(depth)
        arrays = [stack, left, alphabet.alive] + canons
        assert not any(a.flags.writeable for a in arrays)


def count_grows(monkeypatch):
    calls, grow = [], ProjectorAlphabet._grow

    def counted(self, depth):
        calls.append(depth)
        return grow(self, depth)

    monkeypatch.setattr(ProjectorAlphabet, "_grow", counted)
    return calls


@pytest.mark.parametrize("depth,error", [(13, CapacityError), (40, CapacityError),
                                         (-1, PreconditionError)])
def test_a_refused_domain_builds_and_caches_nothing(monkeypatch, depth, error):
    grows = count_grows(monkeypatch)
    letters = seeded_letters(7600, 2)
    alphabet = ProjectorAlphabet(letters)
    alphabet.levels(2)
    before = (alphabet.alive, len(alphabet.levels(2)[1]))
    grows.clear()
    with pytest.raises(error):
        alphabet.levels(depth)
    with pytest.raises(error):
        context.StringUniverse(alphabet, depth)
    assert grows == []
    assert (alphabet.alive, len(alphabet.levels(2)[1])) == before
    assert_levels_equal(alphabet.levels(5), ProjectorAlphabet(letters).levels(5), 5)


def test_a_strings_sequence_builds_the_levels_once(monkeypatch):
    grows = count_grows(monkeypatch)
    rng = np.random.default_rng(7700)
    alphabet = ProjectorAlphabet(seeded_letters(7700, 4))
    op = hermitian_eig(np.diag([0.0, 0.0, 1.0, 1.0]))
    rho = reduction.DensityMatrix(np.diag([0.4, 0.3, 0.2, 0.1]))
    context.StringUniverse(alphabet, 7)
    for _ in range(2):
        psi = random_state(rng, 4)
        reduction.valuation_vector(alphabet, psi, op, [1.0], 6)
        reduction.valuation_ray(alphabet, psi, op, [1.0], 6)
        reduction.valuation_density(alphabet, rho, op, [1.0], 6)
    context.StringUniverse(alphabet, 3)
    assert grows == [7]


def run_ops(ops) -> list[str]:
    """Drive a workload generator as the benchmark runner does; its failures."""
    sent, failures = None, []
    while True:
        try:
            item = ops.send(sent)
        except StopIteration:
            return failures
        if not hasattr(item, "run"):
            failures.append(item.message)
            sent = None
            continue
        sent = item.run()
        if item.check and (error := item.check(sent)):
            failures.append(f"{item.name}: {error}")


def count_svds(monkeypatch) -> list:
    """Record each matrix 2-norm or SVD taken through numpy.linalg."""
    calls, norm, svd = [], np.linalg.norm, np.linalg.svd

    def counted_norm(x, ord=None, *args, **kwargs):
        if ord in (2, -2, "nuc"):
            calls.append(np.shape(x))
        return norm(x, ord, *args, **kwargs)

    def counted_svd(a, *args, **kwargs):
        calls.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counted_norm)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    return calls


@pytest.mark.parametrize("seed", [2027, 424242])
def test_a_strings_iteration_builds_once_and_takes_no_svd(tmp_path, monkeypatch, seed):
    grows, svds = count_grows(monkeypatch), count_svds(monkeypatch)
    assert run_ops(strings_ops(strings_inputs(seed, "full", tmp_path))) == []
    assert grows == [7]
    assert svds == []


# ---------------------------------------------------------------------------
# The non-null test


def with_singular_values(rng, dim, sigma):
    """A matrix U diag(sigma) V† of random unitaries U and V."""
    u, v = random_unitary(rng, dim), random_unitary(rng, dim)
    return (u * np.pad(sigma, (0, dim - len(sigma)))) @ v.conj().T


@pytest.mark.parametrize("tol", POLICIES, ids=["1e-9", "1e-6", "1e-2"])
@pytest.mark.parametrize("dim", [2, 3, 4, 16])
def test_non_null_is_the_all_svd_answer(monkeypatch, dim, tol):
    rng = np.random.default_rng(7800 + dim)
    t = tol.null_threshold
    profiles = [[0.0], [t * (1 + 1e-6)], [t * (1 - 1e-6)], [t * (1 + 1e-6)] * dim,
                [t * (1 - 1e-6)] * dim, [0.9 * t] * 2, [0.9 * t] * dim,
                [math.sqrt(dim) * t * (1 + 2e-6)], [t * (1 - 2e-6)], [1.0, 0.5]]
    profiles += [sorted(rng.random(dim) * rng.choice([0.5, 1, 2, 2 * math.sqrt(dim)]) * t,
                        reverse=True) for _ in range(40)]
    stack = np.array([with_singular_values(rng, dim, np.array(s[:dim])) for s in profiles])
    expected = np.linalg.norm(stack, 2, axis=(1, 2)) > t
    fro = np.linalg.norm(stack, axis=(1, 2))
    assert (~expected & (fro > t)).any()   # Frobenius above t, 2-norm not: [0.9 t] * 2
    svds = count_svds(monkeypatch)
    assert np.array_equal(non_null(stack, tol), expected)
    assert len(svds) == 1 and svds[0][0] < len(stack)   # only the rows in the band
    assert not non_null(np.zeros((1, dim, dim)), tol)[0]
    assert non_null(np.zeros((0, dim, dim)), tol).shape == (0,)


def test_a_failed_svd_is_a_numeric_error(monkeypatch):
    norm = np.linalg.norm

    def failing(x, ord=None, *args, **kwargs):
        if ord == 2:
            raise np.linalg.LinAlgError("SVD did not converge")
        return norm(x, ord, *args, **kwargs)

    band = np.diag([1.2e-9, 0.0])[None]
    assert non_null(band)[0]
    monkeypatch.setattr(np.linalg, "norm", failing)
    with pytest.raises(NumericError, match="operator norm failed: SVD did not converge"):
        non_null(band)


def band_alphabet(rng, dim, tol, c):
    """P and Q of rank r with r principal-angle cosines c (so PQ and QP have
    r singular values c), and a random third letter."""
    r = 1 if dim < 4 else 2
    u = random_unitary(rng, dim)
    b = c * u[:, :r] + np.sqrt(1 - c * c) * u[:, r:2 * r]
    return ProjectorAlphabet({"P": u[:, :r] @ u[:, :r].conj().T, "Q": b @ b.conj().T,
                              "R": random_projector(rng, dim)}, tol)


@pytest.mark.parametrize("scale", [0.9, 1 - 1e-6, 1 + 1e-6])
@pytest.mark.parametrize("tol", POLICIES, ids=["1e-9", "1e-6", "1e-2"])
@pytest.mark.parametrize("dim", [2, 3, 4, 16])
def test_a_universe_in_the_band_keeps_the_all_svd_members(monkeypatch, dim, tol, scale):
    rng = np.random.default_rng(7900 + dim)
    alphabet = band_alphabet(rng, dim, tol, scale * tol.null_threshold)
    depth = 3 if dim == 16 else 4
    svds = count_svds(monkeypatch)
    universe = context.StringUniverse(alphabet, depth)
    # PQ and QP are in the band, unless one singular value (dim < 4) is below t
    assert len(svds) == 1 if dim >= 4 or scale > 1 else len(svds) <= 1
    expected = [q for q in alphabet.monoid.enumerate_strings(depth)
                if context.in_sp0(alphabet, q)]
    assert list(universe.members) == expected
    assert (("P", "Q") in universe) == (("Q", "P") in universe) == (scale > 1)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([2, 3, 4]),
       st.sampled_from(range(len(POLICIES))), st.sampled_from([-1, 1]))
def test_a_null_row_absorbs(seed, dim, policy, side):
    # PQ and QP have singular values null_threshold * (1 + side * 1e-6): a row
    # is alive only when its row without the leftmost letter is, so the
    # universe is closed under dropping the leftmost letter
    tol = POLICIES[policy]
    alphabet = band_alphabet(np.random.default_rng(seed), dim, tol,
                             tol.null_threshold * (1 + side * 1e-6))
    universe = context.StringUniverse(alphabet, 5)
    _, _, left = alphabet.levels(5)
    alive = alphabet.alive
    assert not (alive[left] & ~alive[:left.shape[1]]).any()
    members = set(universe.members)
    assert all(q[1:] in members for q in members if q)
    assert (("P", "Q") in members) == (side > 0)


def test_a_row_whose_parent_is_null_is_null(monkeypatch):
    # non_null calls only the row of P0·P1 null: every row of a string whose
    # canonical word ends in P0·P1 has it as an ancestor and is null too
    alphabet = ProjectorAlphabet(seeded_letters(7950, 3))
    pq, decide = alphabet.reduce(("P0", "P1")), reduction.non_null
    monkeypatch.setattr(reduction, "non_null", lambda matrices, tol: decide(matrices, tol) & ~(
        matrices == pq).all(axis=(1, 2)))
    universe = context.StringUniverse(alphabet, 4)
    expected = [q for q in alphabet.monoid.enumerate_strings(4)
                if oracle.canonical_word(q)[-2:] != ("P0", "P1")]
    assert list(universe.members) == expected
    assert ("P2", "P0", "P1") not in universe and ("P0", "P1", "P2") in universe
