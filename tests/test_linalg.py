import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoidtopos.errors import (DomainError, NumericError, PreconditionError,
                                StructureError, ValidationError)
from monoidtopos.linalg import (DEFAULT_TOL, Projector, Ray, Subspace,
                                EPS_FLOOR, TolerancePolicy, ZERO_RAY, apply_function,
                                as_matrix, hermitian_eig, operator_norm,
                                orthonormalize, ray_equal, spectral_projector)
from tests.conftest import E1, E2, PLUS, PPLUS, PZ, SX, SZ
from tests.valuation_oracle import image_subspace, in_subspace
from tests.generators import random_hermitian, random_projector, random_state, random_unitary


def test_tolerance_policy_positive():
    with pytest.raises(ValidationError):
        TolerancePolicy(eps=0.0)
    with pytest.raises(ValidationError):
        TolerancePolicy(null_threshold=-1.0)
    with pytest.raises(ValidationError, match="finite"):
        TolerancePolicy(eps=float("inf"))


def test_tolerance_policy_eps_floor():
    with pytest.raises(ValidationError, match="eps must be at least 1e-14"):
        TolerancePolicy(eps=1e-300)
    with pytest.raises(ValidationError, match="eps must be at least 1e-14"):
        TolerancePolicy(eps=np.nextafter(EPS_FLOOR, 0.0))
    assert TolerancePolicy(eps=EPS_FLOOR, null_threshold=1e-300).eps == EPS_FLOOR


def test_as_matrix_validation():
    with pytest.raises(StructureError):
        as_matrix([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(StructureError):
        as_matrix(np.eye(17))
    with pytest.raises(StructureError):
        as_matrix([[float("nan")]])
    with pytest.raises(StructureError, match="rows of different lengths"):
        as_matrix([[1, 0], [0]])


def test_eig_diagonal():
    op = hermitian_eig(np.diag([1.0, 0.0]))
    assert op.eigenvalues == (0.0, 1.0)
    assert np.allclose(op.eigenspace([1.0]).basis.ravel(), E1) or \
        np.allclose(np.abs(op.eigenspace([1.0]).basis.ravel()), np.abs(E1))


def test_eig_sigma_x_analytic():
    # 2x2 analytic oracle: eigenvalues +-1 with projectors (1 +- sx)/2
    op = hermitian_eig(SX)
    assert np.allclose(op.eigenvalues, [-1.0, 1.0])
    lo, hi = op.projectors
    assert np.allclose(hi, (np.eye(2) + SX) / 2, atol=1e-12)
    assert np.allclose(lo, (np.eye(2) - SX) / 2, atol=1e-12)


def test_eig_identity_single_cluster():
    op = hermitian_eig(np.eye(3))
    assert op.eigenvalues == (1.0,)
    assert np.allclose(op.projectors[0], np.eye(3), atol=1e-12)


def test_eig_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        hermitian_eig([[0.0, 1.0], [0.0, 0.0]])


def test_eig_random_against_numpy_oracle():
    rng = np.random.default_rng(11)
    for _ in range(25):
        dim = int(rng.integers(1, 9))
        a = random_hermitian(rng, dim)
        op = hermitian_eig(a)
        got = np.sort(np.concatenate([
            np.full(b.shape[1], lam) for lam, b in zip(op.eigenvalues, op.bases)]))
        want = np.linalg.eigvalsh(a)
        assert np.max(np.abs(got - want)) <= 1e-9 * max(1.0, np.max(np.abs(want)))


def test_eig_reconstruction_bound():
    rng = np.random.default_rng(5)
    for _ in range(20):
        dim = int(rng.integers(1, 9))
        a = random_hermitian(rng, dim)
        op = hermitian_eig(a)
        recon = sum(lam * p for lam, p in op.spectrum)
        assert np.linalg.norm(recon - a) <= 10 * DEFAULT_TOL.eps * max(1.0, np.linalg.norm(a))


def test_eig_type_invariants():
    rng = np.random.default_rng(17)
    for _ in range(10):
        a = random_hermitian(rng, 5)
        op = hermitian_eig(a)
        total = np.zeros((5, 5), dtype=complex)
        for i, p in enumerate(op.projectors):
            assert np.allclose(p, p.conj().T, atol=1e-10)
            assert np.allclose(p @ p, p, atol=1e-10)
            for j, q in enumerate(op.projectors):
                if i != j:
                    assert np.max(np.abs(p @ q)) <= 1e-10
            total += p
        assert np.allclose(total, np.eye(5), atol=1e-10)


def test_eig_snapping_merges_and_validates():
    op = hermitian_eig(np.diag([1.0, 1.0 + 1e-12, -1.0]), snap_to=[1.0, -1.0])
    assert op.eigenvalues == (-1.0, 1.0)
    assert op.bases[1].shape[1] == 2
    with pytest.raises(ValidationError):
        hermitian_eig(np.diag([0.5, -1.0]), snap_to=[1.0, -1.0])


def test_spectral_projector_values(sz_op):
    assert np.allclose(spectral_projector(sz_op, [1.0]).matrix, PZ, atol=1e-12)
    assert np.allclose(spectral_projector(sz_op, [1.0, -1.0]).matrix, np.eye(2), atol=1e-12)
    assert np.max(np.abs(spectral_projector(sz_op, [3.0]).matrix)) == 0.0


def test_apply_function_identity_and_constant(sz_op):
    same = apply_function(sz_op, lambda x: x)
    assert np.allclose(same.matrix, SZ, atol=1e-12)
    const = apply_function(sz_op, lambda x: 2.0)
    assert np.allclose(const.matrix, 2 * np.eye(2), atol=1e-12)
    assert const.eigenvalues == (2.0,)


def test_apply_function_square_merges(sz_op):
    squared = apply_function(sz_op, lambda x: x * x)
    assert np.allclose(squared.matrix, np.eye(2), atol=1e-12)
    assert squared.eigenvalues == (1.0,)


def test_apply_function_domain_error(sz_op):
    with pytest.raises(DomainError):
        apply_function(sz_op, {1.0: 1.0})  # undefined at -1


def test_projector_validation():
    with pytest.raises(ValidationError):
        Projector([[1.0, 1.0], [1.0, 1.0]])  # not idempotent
    with pytest.raises(ValidationError):
        Projector([[0.0, 1.0], [0.0, 0.0]])  # not Hermitian
    p = Projector(PPLUS)
    assert p.rank() == 1


def test_image_subspace_cases():
    k = Subspace.span([E1])
    assert image_subspace(np.eye(2), k).dim == 1
    assert image_subspace(np.zeros((2, 2)), k).dim == 0
    image = image_subspace(PPLUS, k)
    assert image.dim == 1
    assert ray_equal(image.basis[:, 0], PLUS)


def test_image_subspace_functorial():
    rng = np.random.default_rng(3)
    for _ in range(20):
        dim = int(rng.integers(2, 6))
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        k = Subspace.span([random_state(rng, dim) for _ in range(int(rng.integers(1, dim + 1)))])
        once = image_subspace(a @ b, k)
        twice = image_subspace(a, image_subspace(b, k))
        assert once.dim == twice.dim
        # same span: mutual containment of basis vectors
        for v in once.basis.T:
            assert in_subspace(v, twice)
        for v in twice.basis.T:
            assert in_subspace(v, once)


def test_projectors_are_contractions():
    rng = np.random.default_rng(23)
    for _ in range(20):
        dim = int(rng.integers(2, 7))
        p = random_projector(rng, dim)
        v = random_state(rng, dim)
        assert np.linalg.norm(p @ v) <= np.linalg.norm(v) * (1 + DEFAULT_TOL.eps)


def test_in_subspace_cases():
    k = Subspace.span([PLUS])
    assert in_subspace(np.zeros(2), k)
    assert in_subspace(PLUS, k)
    assert not in_subspace(E1, k)  # residual norm 1/sqrt(2)
    assert in_subspace(E1, Subspace.span([E1]))


def test_ray_equal_phase_and_scale():
    assert ray_equal(E1, 1j * E1)
    assert ray_equal(np.array([1.0, 1.0]), np.array([2.0, 2.0]))
    assert not ray_equal(E1, E2)
    with pytest.raises(PreconditionError):
        ray_equal(E1, np.zeros(2))


def test_ray_canonicalisation():
    r1 = Ray(1j * PLUS)
    r2 = Ray(PLUS)
    assert r1.same_ray(r2)
    assert np.allclose(r1.representative, r2.representative)
    assert repr(ZERO_RAY) == "[0]"


def test_operator_norm_matches_numpy():
    rng = np.random.default_rng(29)
    for _ in range(10):
        dim = int(rng.integers(1, 6))
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        assert operator_norm(a) == pytest.approx(np.linalg.norm(a, 2), abs=1e-9)


def _with_spectrum(values, seed: int) -> np.ndarray:
    u = random_unitary(np.random.default_rng(seed), len(values))
    return u @ np.diag(np.asarray(values, dtype=complex)) @ u.conj().T


# Offsets in units of eps: below, at and above the clustering threshold.
_EPS_GAPS = (0.0, 0.1, 0.5, 0.9, 1.1, 2.0, 10.0, 1e3)


@st.composite
def _clustered_spectra(draw):
    centres = draw(st.lists(st.integers(-8, 8), min_size=1, max_size=4))
    dim = draw(st.integers(1, 8))
    values = [draw(st.sampled_from(centres)) / 2.0
              + draw(st.sampled_from(_EPS_GAPS)) * DEFAULT_TOL.eps
              for _ in range(dim)]
    return values, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None)
@given(_clustered_spectra())
def test_eig_near_degenerate_against_eigvalsh(case):
    values, seed = case
    a = _with_spectrum(values, seed)
    eps = DEFAULT_TOL.eps
    scale = max(1.0, float(np.max(np.abs(a))))
    op = hermitian_eig(a)
    assert list(op.eigenvalues) == sorted(op.eigenvalues)
    assert sum(b.shape[1] for b in op.bases) == len(values)
    got = np.concatenate([np.full(b.shape[1], lam)
                          for lam, b in zip(op.eigenvalues, op.bases)])
    want = np.linalg.eigvalsh((a + a.conj().T) / 2.0)
    # a merged cluster is reported at its mean, which lies within the
    # clustering threshold of every member
    assert np.max(np.abs(got - want)) <= 1.01 * eps * scale
    for lam, b in zip(op.eigenvalues, op.bases):
        assert np.allclose(b.conj().T @ b, np.eye(b.shape[1]), atol=1e-12)
        assert np.linalg.norm(a @ b - lam * b, 2) <= 2 * eps * scale


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-8, 8), min_size=1, max_size=4, unique=True),
       st.data())
def test_eig_snap_to_against_eigvalsh(targets, data):
    targets = [t / 2.0 for t in targets]
    dim = data.draw(st.integers(1, 8))
    labels = [data.draw(st.sampled_from(targets)) for _ in range(dim)]
    offsets = [data.draw(st.sampled_from((-0.9, -0.5, 0.0, 0.5, 0.9)))
               * DEFAULT_TOL.eps * max(1.0, abs(x)) for x in labels]
    a = _with_spectrum([x + d for x, d in zip(labels, offsets)],
                       data.draw(st.integers(0, 2**32 - 1)))
    op = hermitian_eig(a, snap_to=targets)
    assert op.eigenvalues == tuple(sorted(set(labels)))
    assert [b.shape[1] for b in op.bases] == [labels.count(x) for x in op.eigenvalues]
    want = np.linalg.eigvalsh((a + a.conj().T) / 2.0)
    got = np.concatenate([np.full(b.shape[1], lam)
                          for lam, b in zip(op.eigenvalues, op.bases)])
    assert np.max(np.abs(got - want)) <= DEFAULT_TOL.eps * 4.0

    # one eigenvalue pushed beyond the snapping tolerance must be rejected
    pushed = list(labels)
    pushed[0] += 3 * DEFAULT_TOL.eps * max(1.0, abs(labels[0]))
    with pytest.raises(ValidationError):
        hermitian_eig(_with_spectrum(pushed, 1), snap_to=targets)


def test_eig_reconstruction_check_fails_closed():
    # An eigenvalue snapped to inf makes the reconstruction NaN, which is
    # not within the bound.
    with pytest.raises(NumericError, match="reconstruction"), np.errstate(invalid="ignore"):
        hermitian_eig(SZ, snap_to=[float("inf"), -1.0])


def _raise_linalg_error(*args, **kwargs):
    raise np.linalg.LinAlgError("did not converge")


def test_eig_failure_is_a_numeric_error(monkeypatch):
    monkeypatch.setattr(np.linalg, "eigh", _raise_linalg_error)
    with pytest.raises(NumericError, match="eigendecomposition failed"):
        hermitian_eig(SZ)


def test_operator_norm_failure_is_a_numeric_error(monkeypatch):
    monkeypatch.setattr(np.linalg, "norm", _raise_linalg_error)
    with pytest.raises(NumericError, match="operator norm failed"):
        operator_norm(PZ)


def test_orthonormalize_rank_decision():
    cols = np.column_stack([E1, E1 * (1 + 1e-13), E2, PLUS])
    basis = orthonormalize(cols[None], DEFAULT_TOL.null_threshold)[0]
    assert basis.any(axis=0).tolist() == [True, False, True, False]
    assert np.allclose(basis[:, [0, 2]], np.eye(2))
