"""Seeded synthetic datasets for experiments and verification suites."""

from __future__ import annotations

import numpy as np

from .dataset import DataMatrix
from .denoisers import check_count
from .errors import ValueRangeError


def gaussian_dataset(seed: int, n_samples: int, dim: int,
                     mean: np.ndarray | None = None,
                     eigvals: np.ndarray | None = None) -> DataMatrix:
    """Draw n samples from N(mean, Q diag(eigvals) Q^T) with a seeded basis Q."""
    rng = np.random.default_rng(seed)
    mean = np.zeros(dim) if mean is None else np.asarray(mean, dtype=np.float64)
    eigvals = np.ones(dim) if eigvals is None else np.asarray(eigvals, dtype=np.float64)
    if mean.shape != (dim,) or eigvals.shape != (dim,):
        raise ValueRangeError("mean and eigvals must have length dim")
    if np.any(eigvals < 0):
        raise ValueRangeError("eigvals must be nonnegative")
    Q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    Z = rng.standard_normal((n_samples, dim))
    return DataMatrix(mean + (Z * np.sqrt(eigvals)) @ Q.T)


def cluster_dataset(seed: int, n_samples: int, dim: int, n_clusters: int = 2,
                    spread: float = 0.1, box: float = 0.8) -> DataMatrix:
    """Clustered points: seeded centers in [-box, box]^dim plus Gaussian jitter."""
    check_count("n_clusters", n_clusters)
    if n_samples < n_clusters:
        raise ValueRangeError("need at least one sample per cluster")
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-box, box, size=(n_clusters, dim))
    labels = np.arange(n_samples) % n_clusters
    return DataMatrix(centers[labels] + spread * rng.standard_normal((n_samples, dim)))
