"""Diagnostic measurements: linearity, score differences, generalization.

All Monte-Carlo metrics draw from a seeded generator and are bit-reproducible
given (seed, sample count). Metrics are pure; sweeping over a schedule
derives an independent per-level seed from the master seed so levels stay
decoupled and reproducible.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .dataset import DataMatrix, noisy_rows, write_csv, write_json
from .denoisers import Denoiser, MultiDeltaDenoiser, check_sigma
from .errors import DimensionMismatchError, ValueRangeError, annotate
from .sampler import SigmaSchedule


#: the variants each metric takes, its default first
METRIC_VARIANTS = {"linearity": ("cosine", "nmse"), "score-diff": ("rmse", "nmse")}


class MetricValue(NamedTuple):
    """A metric plus how many degenerate draws had to be skipped."""

    value: float
    skipped: int


def linearity_score(D: Denoiser, X: DataMatrix, sigma: float,
                    alpha: float = 1.0 / np.sqrt(2.0), beta: float = 1.0 / np.sqrt(2.0),
                    n_pairs: int = 100, seed: int = 0,
                    variant: str = "cosine") -> MetricValue:
    """How closely D satisfies additivity and homogeneity on noisy data.

    Draws pairs (x1, x2) of noisy in-distribution inputs and compares
    D(alpha x1 + beta x2) against alpha D(x1) + beta D(x2): the cosine
    variant averages the absolute cosine of the two outputs (1.0 for any
    zero-bias affine map), the nmse variant the ratio of the difference norm
    to the combined-output norm (0.0 for the same maps). The constraint
    alpha^2 + beta^2 = 1 keeps the combined input at the correct noise
    variance; other values are rejected. Pairs whose normalizer is zero are
    skipped and counted.
    """
    norm = float(alpha) * float(alpha) + float(beta) * float(beta)  # inf, not OverflowError
    if abs(norm - 1.0) > 1e-12:
        raise ValueRangeError(
            f"alpha^2 + beta^2 must be 1 to keep the combined noise variance, got {norm}")
    sigma = check_sigma(sigma)
    if variant not in METRIC_VARIANTS["linearity"]:
        raise ValueError(f"unknown linearity variant {variant!r}")
    if n_pairs < 1:
        raise ValueRangeError("need at least one pair")
    rng = np.random.default_rng(seed)
    _, x1 = noisy_rows(X, sigma, n_pairs, rng)
    _, x2 = noisy_rows(X, sigma, n_pairs, rng)
    combined = D.evaluate_batch(alpha * x1 + beta * x2, sigma)
    separate = alpha * D.evaluate_batch(x1, sigma) + beta * D.evaluate_batch(x2, sigma)
    comb_norm = np.linalg.norm(combined, axis=1)
    if variant == "cosine":
        sep_norm = np.linalg.norm(separate, axis=1)
        ok = (comb_norm > 0) & (sep_norm > 0)
        vals = np.abs((combined[ok] * separate[ok]).sum(axis=1)) \
            / (comb_norm[ok] * sep_norm[ok])
    else:
        ok = comb_norm > 0
        vals = np.linalg.norm(combined[ok] - separate[ok], axis=1) / comb_norm[ok]
    skipped = int(n_pairs - ok.sum())
    if vals.size == 0:
        raise ValueRangeError("every pair had a zero-norm output")
    return MetricValue(float(vals.mean()), skipped)


def score_diff(D1: Denoiser, D2: Denoiser, X: DataMatrix, sigma: float,
               n: int = 100, seed: int = 0, variant: str = "rmse") -> float:
    """Average disagreement of two denoisers on noisy in-distribution inputs.

    rmse: mean over draws of sqrt(||D1(y) - D2(y)||^2 / d);
    nmse: mean of ||D1(y) - D2(y)|| / ||D1(y)||.
    """
    sigma = check_sigma(sigma)
    if D1.dim != D2.dim or D1.dim != X.dim:
        raise DimensionMismatchError("denoiser and data dimensions disagree")
    if variant not in METRIC_VARIANTS["score-diff"]:
        raise ValueError(f"unknown score_diff variant {variant!r}")
    if n < 1:
        raise ValueRangeError("need at least one sample")
    rng = np.random.default_rng(seed)
    _, noisy = noisy_rows(X, sigma, n, rng)
    out1 = D1.evaluate_batch(noisy, sigma)
    out2 = D2.evaluate_batch(noisy, sigma)
    diff = np.linalg.norm(out1 - out2, axis=1)
    if variant == "rmse":
        return float(np.mean(diff / np.sqrt(X.dim)))
    ref = np.linalg.norm(out1, axis=1)
    if np.any(ref == 0):
        raise ValueRangeError("zero-norm reference output in nmse score difference")
    return float(np.mean(diff / ref))


def gl_score(samples: np.ndarray, Y: DataMatrix) -> MetricValue:
    """Mean normalized distance from samples to their nearest training rows.

    Near zero means the samples replicate training data; values above 0.6
    are the customary threshold for genuine generalization. Nearest
    neighbors are exact brute force, the rows of largest
    ``MultiDeltaDenoiser.row_scores``, ties broken by the lowest row index.
    Zero-norm samples are skipped and counted; a NaN or an infinity raises
    ValueRangeError.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    if samples.shape[1] != Y.dim:
        raise DimensionMismatchError(
            f"sample dim {samples.shape[1]} != dataset dim {Y.dim}")
    if not np.isfinite(samples).all():
        raise ValueRangeError("non-finite sample")
    norms = np.linalg.norm(samples, axis=1)
    ok = norms > 0
    skipped = int((~ok).sum())
    kept = samples[ok]
    if kept.shape[0] == 0:
        raise ValueRangeError("every sample has zero norm")
    nearest = Y.values[np.argmax(MultiDeltaDenoiser(Y).row_scores(kept), axis=1)]
    dists = np.linalg.norm(kept - nearest, axis=1)
    return MetricValue(float(np.mean(dists / norms[ok])), skipped)


def weight_nmse(W1: np.ndarray, W2: np.ndarray) -> float:
    """Normalized squared weight difference ||W1-W2||_F^2 / ||W2||_F^2."""
    W1 = np.asarray(W1, dtype=np.float64)
    W2 = np.asarray(W2, dtype=np.float64)
    if W1.shape != W2.shape:
        raise DimensionMismatchError(f"shape mismatch {W1.shape} vs {W2.shape}")
    ref = float(np.sum(W2**2))
    if ref == 0.0:
        raise ValueRangeError("reference weight matrix is zero")
    return float(np.sum((W1 - W2) ** 2)) / ref


def singular_vector_correlation(U1: np.ndarray, U2: np.ndarray) -> np.ndarray:
    """Absolute inner products |U1[:,i]^T U2[:,j]| between two vector sets.

    Columns are expected unit-norm; off ones are normalized with a warning.
    Entries lie in [0, 1]; for identical subspaces with distinct singular
    values the matrix is a permutation.
    """
    U1 = np.asarray(U1, dtype=np.float64)
    U2 = np.asarray(U2, dtype=np.float64)
    if U1.shape[0] != U2.shape[0]:
        raise DimensionMismatchError("vector sets live in different dimensions")
    out = []
    for U in (U1, U2):
        norms = np.linalg.norm(U, axis=0)
        if np.any(norms == 0):
            raise ValueRangeError("zero column in singular vector set")
        if np.any(np.abs(norms - 1.0) > 1e-8):
            warnings.warn("non-unit singular vector columns were normalized",
                          stacklevel=2)
            U = U / norms
        out.append(U)
    return np.abs(out[0].T @ out[1])


@dataclass(frozen=True)
class MetricSeries:
    """One metric evaluated across a noise schedule."""

    name: str
    sigmas: tuple[float, ...]
    values: tuple[float, ...]
    n_samples: int
    seed: int

    def __post_init__(self):
        if len(self.sigmas) != len(self.values):
            raise DimensionMismatchError("sigma and value lists differ in length")
        if not all(np.isfinite(v) for v in self.values):
            raise ValueRangeError("non-finite metric value in series")


def level_seed(master_seed: int, index: int) -> int:
    """Per-level seed derived by hashing (master seed, level index)."""
    return int(np.random.SeedSequence([master_seed, index]).generate_state(1)[0])


def metric_sweep(metric: Callable[[float, int], float | MetricValue],
                 schedule: SigmaSchedule, master_seed: int = 0,
                 name: str = "metric", n_samples: int = 100) -> MetricSeries:
    """Evaluate ``metric(sigma, seed)`` at every schedule level.

    Each level gets its own derived seed so the sweep is reproducible and
    levels are independent. Errors propagate with the failing level set as
    a ``sigma`` attribute on the exception (see ``errors.annotate``).
    """
    values = []
    for i, sigma in enumerate(schedule.values):
        try:
            v = metric(float(sigma), level_seed(master_seed, i))
        except Exception as exc:
            annotate(exc, f"metric {name!r} failed at sigma={sigma}", sigma=float(sigma))
            raise
        values.append(float(getattr(v, "value", v)))
    return MetricSeries(name=name, sigmas=tuple(float(s) for s in schedule.values),
                        values=tuple(values), n_samples=n_samples, seed=master_seed)


def series_to_csv(series: MetricSeries, path: str | Path) -> None:
    """Write (sigma, value, n, seed) rows."""
    n, seed = int(series.n_samples), int(series.seed)
    rows = ([float(s), float(v), n, seed] for s, v in zip(series.sigmas, series.values))
    write_csv(path, "sigma,value,n,seed", rows, "\r\n")


def series_to_json(series: MetricSeries, path: str | Path) -> None:
    write_json(path, {
        "name": series.name,
        "sigmas": list(series.sigmas),
        "values": list(series.values),
        "n": series.n_samples,
        "seed": series.seed,
    })
