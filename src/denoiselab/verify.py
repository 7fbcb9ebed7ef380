"""One-command verification suites over the closed-form oracles.

Each suite returns a list of named checks with their measured values and
thresholds; the CLI renders them as PASS/FAIL lines. Scales are desk-sized
by default and adjustable through the parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import DataMatrix, empirical_stats
from .denoisers import AffineDenoiser, GaussianDenoiser, MultiDeltaDenoiser
from .distillation import (
    DistillConfig,
    augmented_moments,
    closed_form_linear,
    orthogonality_residual,
    train_linear_dsm,
)
from .errors import ValueRangeError
from .metrics import gl_score, weight_nmse
from .sampler import edm_schedule, gaussian_trajectory, ode_sample
from .synth import gaussian_dataset


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    value: float
    threshold: float
    comparison: str = "<"

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status} {self.name}: value={self.value:.6g} "
                f"(required {self.comparison} {self.threshold:g})")


def _check(name: str, value: float, threshold: float, comparison: str = "<") -> CheckResult:
    if comparison == "<":
        ok = value < threshold
    elif comparison == ">":
        ok = value > threshold
    elif comparison == ">=":
        ok = value >= threshold
    else:
        raise ValueError(f"unknown comparison {comparison!r}")
    return CheckResult(name, bool(ok), float(value), float(threshold), comparison)


def _default_data(seed: int, dim: int, n_samples: int) -> DataMatrix:
    eigvals = np.linspace(2.0, 0.2, dim)
    mean = np.full(dim, 0.5)
    return gaussian_dataset(seed, n_samples, dim, mean=mean, eigvals=eigvals)


def _check_sizes(dim: int, n_samples: int, tolerance: float = 1.0) -> None:
    """Refuse a tolerance that is not positive and a dim or sample count below 1."""
    if not tolerance > 0:
        raise ValueRangeError(f"tolerance must be positive, got {tolerance}")
    for name, value in (("dim", dim), ("n_samples", n_samples)):
        if value < 1:
            raise ValueRangeError(f"{name} must be at least 1, got {value}")


def _stable_lr(X: DataMatrix, sigma: float) -> float:
    """Safe step size from the curvature of the affine least-squares problem."""
    M, _ = augmented_moments(X, sigma)
    return 0.9 / float(np.linalg.eigvalsh(M)[-1])


def suite_theorem1(seed: int = 0, dim: int = 16, n_samples: int = 2000,
                   steps: int = 20000, tolerance: float = 1e-3) -> list[CheckResult]:
    """Gradient descent on the clean-target objective recovers the closed form."""
    _check_sizes(dim, n_samples, tolerance)
    X = _default_data(seed, dim, n_samples)
    stats = empirical_stats(X)
    results = []
    for sigma in (0.1, 1.0, 10.0):
        cfg = DistillConfig(steps=steps, batch=1, lr=_stable_lr(X, sigma),
                            seed=seed, use_adam=False)
        fitted, _ = train_linear_dsm(X, sigma, cfg)
        exact = closed_form_linear(stats, sigma)
        results.append(_check(f"theorem1/weight-nmse@sigma={sigma}",
                              weight_nmse(fitted.weight, exact.weight), tolerance))
        bias_err = np.linalg.norm(fitted.bias - exact.bias) / np.linalg.norm(exact.bias)
        results.append(_check(f"theorem1/bias-relerr@sigma={sigma}",
                              float(bias_err), tolerance))
    return results


def suite_trajectory(seed: int = 0, dim: int = 24, n_samples: int = 512,
                     tolerance: float = 1e-9, n_seeds: int = 20) -> list[CheckResult]:
    """Euler sampling under the Gaussian denoiser, against two closed forms.

    At 400 steps the finals must equal Euler's own per-eigenmode closed form
    to ``tolerance`` relative. Against the exact ODE solution the mean error
    must fall with the step count and halve from 200 to 400 steps, as a
    first-order method's does; it is about ln(sigma_max/sigma_min) / (4n).
    """
    _check_sizes(dim, n_samples, tolerance)
    if n_seeds < 1:
        raise ValueRangeError(f"need at least one start, got n_seeds={n_seeds}")
    X = _default_data(seed, dim, n_samples)
    stats = empirical_stats(X)
    den = GaussianDenoiser(stats)
    starts = 80.0 * np.random.default_rng(seed).standard_normal((n_seeds, dim))
    step_counts = (10, 50, 200, 400)
    mean_errors = []
    for n in step_counts:
        schedule = edm_schedule(0.002, 80.0, 7.0, n)
        euler = ode_sample(den, schedule, starts).final
        exact = gaussian_trajectory(stats, starts, schedule).final
        scale = np.linalg.norm(exact, axis=1)
        mean_errors.append(float(np.mean(np.linalg.norm(euler - exact, axis=1) / scale)))
    # at 400 steps, a step from t to t' scales the eigencomponent of x - mean
    # with eigenvalue lam by 1 - (1 - t'/t) t^2 / (lam + t^2), the last one by
    # lam / (lam + t^2), which also ends every component off the basis
    t, lam = schedule.values, stats.eigvals
    gain = np.prod(1.0 - (1.0 - t[1:] / t[:-1]) * t[:-1]**2 / (lam[:, None] + t[:-1]**2),
                   axis=1) * lam / (lam + t[-1]**2)
    closed = stats.mean + (gain * ((starts - stats.mean) @ stats.basis)) @ stats.basis.T
    gap = float(np.max(np.linalg.norm(euler - closed, axis=1) / scale))
    results = [_check("trajectory/euler-closed-form-relgap@400steps", gap, tolerance)]
    for (n_a, n_b), (e_a, e_b) in zip(zip(step_counts, step_counts[1:]),
                                      zip(mean_errors, mean_errors[1:])):
        results.append(_check(f"trajectory/error-decreases@{n_a}->{n_b}",
                              e_b, e_a))
    results.append(_check("trajectory/error-ratio-minus-2@200->400",
                          abs(mean_errors[-2] / mean_errors[-1] - 2.0), 0.1))
    return results


def suite_memorize(seed: int = 0, dim: int = 16, n_samples: int = 32,
                   n_starts: int = 100, tolerance: float = 1e-2) -> list[CheckResult]:
    """Sampling with the finite-point-set denoiser reproduces training rows."""
    _check_sizes(dim, n_samples, tolerance)
    if n_starts < 1:
        raise ValueRangeError(f"need at least one start, got n_starts={n_starts}")
    rng = np.random.default_rng(seed)
    X = DataMatrix(rng.uniform(-1.0, 1.0, size=(n_samples, dim)))
    den = MultiDeltaDenoiser(X)
    schedule = edm_schedule(0.002, 80.0, 7.0, 100)
    # a seed per start keeps start i the same whatever n_starts is
    starts = 80.0 * np.stack([np.random.default_rng([seed, i]).standard_normal(dim)
                              for i in range(n_starts)])
    finals = ode_sample(den, schedule, starts).final
    nearest = X.values[np.argmax(den.row_scores(finals), axis=1)]  # ties: the lowest index
    rel = np.linalg.norm(finals - nearest, axis=1) / np.linalg.norm(nearest, axis=1)
    hits = int(np.count_nonzero(rel <= tolerance))
    results = [_check(f"memorize/replica-hits(n={n_starts})", hits, 0.95 * n_starts, ">=")]
    results.append(_check("memorize/gl-score", gl_score(finals, X).value, 0.05))
    return results


def suite_orthogonality(seed: int = 0, dim: int = 16,
                        n_samples: int = 10_000) -> list[CheckResult]:
    """Normal equations hold for the Gaussian denoiser but not the zero map."""
    _check_sizes(dim, n_samples)
    results = []
    for sigma in (0.5, 1.0, 4.0):
        # top eigenvalue at least 10 sigma^2 so the zero map is clearly suboptimal
        eigvals = np.concatenate(([12.0 * sigma**2], np.linspace(1.0, 0.2, dim - 1)))
        X = gaussian_dataset(seed, 4000, dim, eigvals=eigvals)
        stats = empirical_stats(X)
        gauss = orthogonality_residual(GaussianDenoiser(stats), X, sigma,
                                       n_samples, seed)
        results.append(_check(f"orthogonality/gaussian@sigma={sigma}", gauss, 0.05))
        zero_map = AffineDenoiser(np.zeros((dim, dim)), np.zeros(dim))
        zero = orthogonality_residual(zero_map, X, sigma, n_samples, seed)
        results.append(_check(f"orthogonality/zero-map@sigma={sigma}", zero, 0.3, ">"))
    return results


SUITES = {
    "theorem1": suite_theorem1,
    "trajectory": suite_trajectory,
    "memorize": suite_memorize,
    "orthogonality": suite_orthogonality,
}
