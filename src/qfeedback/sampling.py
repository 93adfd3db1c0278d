"""Seeded random Hamiltonians and measurement models.

Everything takes an explicit ``numpy.random.Generator`` so ensembles are
reproducible from a single 64-bit seed and nothing touches global RNG state.
Measurement models come from Ginibre draws: form M_n = G_n†G_n, then
conjugate by (Σ M_n)^{-1/2} so the family resolves the identity.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import dagger, hermitize, matrix_function
from .measurement import MeasurementModel
from .thermo import Hamiltonian


def ginibre(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Square matrix of iid standard complex Gaussians."""
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def random_hermitian(dim: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    return hermitize(ginibre(dim, rng)) * scale


def random_hamiltonian(dim: int, rng: np.random.Generator, scale: float = 1.0) -> Hamiltonian:
    return Hamiltonian.from_matrix(random_hermitian(dim, rng, scale))


def _inv_sqrt_sum(parts: list[np.ndarray]) -> np.ndarray:
    """(Σ M_n)^{-1/2}, the normalizer that makes a PSD family resolve the identity."""
    return matrix_function(hermitize(sum(parts)), lambda x: 1.0 / math.sqrt(x))


def _normalized_ginibre(dim: int, count: int, rng: np.random.Generator) -> list[np.ndarray]:
    """A_n = G_n (Σ G†G)^{-1/2} for ``count`` Ginibre draws, so Σ A_n†A_n = I."""
    gs = [ginibre(dim, rng) for _ in range(count)]
    inv_sqrt = _inv_sqrt_sum([dagger(g) @ g for g in gs])
    return [g @ inv_sqrt for g in gs]


def _positive_parts(dim: int, n_parts: int, rng: np.random.Generator) -> list[np.ndarray]:
    """PSD matrices M_n with Σ M_n = I, via inverse-square-root normalization."""
    parts = [dagger(g) @ g for g in (ginibre(dim, rng) for _ in range(n_parts))]
    inv_sqrt = _inv_sqrt_sum(parts)
    return [hermitize(inv_sqrt @ m @ inv_sqrt) for m in parts]


def random_bare_model(dim: int, n_outcomes: int, rng: np.random.Generator) -> MeasurementModel:
    """Positive operators P_n with Σ P_n² = I."""
    parts = _positive_parts(dim, n_outcomes, rng)
    return MeasurementModel.bare(matrix_function(np.stack(parts), lambda x: math.sqrt(max(x, 0.0))))


def random_efficient_model(dim: int, n_outcomes: int, rng: np.random.Generator) -> MeasurementModel:
    """General operators A_n = G_n (Σ G†G)^{-1/2}; nontrivial polar parts."""
    return MeasurementModel.efficient(_normalized_ginibre(dim, n_outcomes, rng))

