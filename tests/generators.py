"""Seeded random inputs for the tests: quantum fixtures drawn from a numpy
Generator, and the standard verification corpus of small monoids."""

from typing import Optional, Sequence

import numpy as np

from monoidtopos.corpus import random_monoids, small_monoids
from monoidtopos.errors import CapacityError
from monoidtopos.linalg import (DEFAULT_TOL, HermitianOperator, TolerancePolicy, hermitian_eig,
                                orthonormalize)
from monoidtopos.monoid import FiniteMonoid


def standard_monoid_corpus(seed: int = 2027, random_count: int = 45) -> list[FiniteMonoid]:
    """The verification corpus: every monoid of size <= 3 up to isomorphism
    followed by seeded random tables of sizes 4 and 5."""
    return small_monoids(3) + random_monoids(seed, random_count)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    for _ in range(20):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        q = orthonormalize(g[None], 1e-9)[0]
        if q.any(axis=0).all():
            return q
    raise CapacityError("failed to draw a unitary")


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2.0


def random_projector(rng: np.random.Generator, dim: int,
                     rank: Optional[int] = None) -> np.ndarray:
    if rank is None:
        rank = int(rng.integers(1, dim))
    u = random_unitary(rng, dim)[:, :rank]
    return u @ u.conj().T


def random_labeled_hermitian(rng: np.random.Generator, dim: int,
                             values: Sequence[float],
                             tol: TolerancePolicy = DEFAULT_TOL) -> HermitianOperator:
    """A Hermitian operator whose spectrum is drawn from the value set."""
    u = random_unitary(rng, dim)
    labels = rng.choice(np.asarray(values, dtype=float), size=dim)
    matrix = u @ np.diag(labels.astype(complex)) @ u.conj().T
    return hermitian_eig(matrix, tol, snap_to=values)


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.real(np.trace(rho))
