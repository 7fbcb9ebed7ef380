"""Linear distillation of denoisers and the closed-form optimal affine map.

The least-squares problem "match a denoiser's outputs on noisy data with an
affine map" is convex with a unique optimum. When the matching target is the
clean data itself, that optimum is the Wiener filter built from the empirical
mean and covariance; ``closed_form_linear`` constructs it directly and the
two trainers approach it from the stochastic (Adam) and deterministic
(plain gradient descent) side respectively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import (DataMatrix, GaussianStats, noisy_rows, read_container,
                      write_container, write_csv)
from .denoisers import (ROW_BUDGET, AffineDenoiser, Denoiser, GaussianDenoiser, check_dense_dim,
                        check_sigma)
from .errors import (
    DimensionMismatchError,
    DivergenceError,
    FormatError,
    ValueRangeError,
    annotate,
)
from .optim import Adam, check_learning_rate, mean_sq

AFFINE_MAGIC = b"AFF1"
AFFINE_HEADER = "<Id"  # dim, sigma (NaN when unset)

#: loss exceeding this multiple of its starting value counts as divergence
_DIVERGENCE_FACTOR = 10.0


@dataclass(frozen=True)
class DistillConfig:
    """Hyperparameters for the iterative linear fits."""

    steps: int
    batch: int
    lr: float
    seed: int
    use_adam: bool = True
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if self.steps < 1 or self.batch < 1:
            raise ValueRangeError("steps and batch must be at least 1")
        check_learning_rate(self.lr)


def closed_form_linear(stats: GaussianStats, sigma: float) -> AffineDenoiser:
    """Optimal affine denoiser for data with the given mean and covariance.

    W = basis @ diag(eigval/(eigval+sigma^2)) @ basis.T (symmetric PSD,
    eigenvalues in [0, 1]); b = (I - W) mean. This is the unique minimizer of
    the affine-constrained denoising objective, hence the reference every
    distillation result is compared against.
    """
    check_dense_dim(stats.dim)
    coef = GaussianDenoiser(stats).shrinkage(sigma)
    W = (stats.basis * coef) @ stats.basis.T
    b = stats.mean - W @ stats.mean
    return AffineDenoiser(weight=W, bias=b, sigma=float(sigma))


def distill_linear(target: Denoiser, X: DataMatrix, sigma: float,
                   cfg: DistillConfig) -> tuple[AffineDenoiser, np.ndarray]:
    """Fit W x + b to a target denoiser on noisy data by stochastic Adam.

    W and b start at zero. Each step draws ``cfg.batch`` rows of X (with
    replacement) plus fresh Gaussian noise at level sigma and takes an Adam
    step on the squared matching error against the target's outputs.
    Returns the fitted map and the per-step loss sequence.

    The target's inputs do not depend on (W, b), so it is queried once per
    block of ``max(1, ROW_BUDGET // cfg.batch)`` steps, with every row of
    the block. For batch >= 2 the result is bitwise equal to querying it once
    per step; at batch 1 the one-row products of a per-step query round
    differently. A target failure propagates with ``step`` (the block's first
    step) and ``sigma`` set on the exception (see ``errors.annotate``), and a
    non-finite loss, as after a step that overflows, raises DivergenceError
    with the same two attributes.
    """
    if target.dim != X.dim:
        raise DimensionMismatchError(f"target dim {target.dim} != data dim {X.dim}")
    sigma = check_sigma(sigma)
    check_dense_dim(X.dim)
    d, n = X.dim, cfg.batch
    rng = np.random.default_rng(cfg.seed)
    theta = np.zeros(d * d + d)  # W then b, as views
    W, b = theta[:d * d].reshape(d, d), theta[d * d:]
    grad = np.empty_like(theta)
    grad_W, grad_b = grad[:d * d].reshape(d, d), grad[d * d:]
    opt = Adam(theta, lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.eps) \
        if cfg.use_adam else None
    losses = np.empty(cfg.steps)
    per_block = max(1, ROW_BUDGET // n)
    block = np.empty((per_block, n, d))
    resid = np.empty((n, d))
    scaled = np.empty((n, d))
    scale = 2.0 / n
    for first in range(0, cfg.steps, per_block):
        noisy = block[:min(per_block, cfg.steps - first)]
        for rows in noisy:
            noisy_rows(X, sigma, n, rng, out=rows)
        try:
            teach = target.evaluate_batch(noisy.reshape(-1, d), sigma).reshape(noisy.shape)
        except Exception as exc:
            annotate(exc, f"teacher failed in the block from step {first} (sigma={sigma})",
                     step=first, sigma=sigma)
            raise
        with np.errstate(over="ignore", invalid="ignore"):  # the loss check below reports it
            for k, x, t in zip(range(first, cfg.steps), noisy, teach):
                np.matmul(x, W.T, out=resid)
                resid += b
                resid -= t
                loss = mean_sq(resid)
                if not math.isfinite(loss):
                    raise DivergenceError(f"non-finite distillation loss at step {k} "
                                          f"(sigma={sigma})", step=k, sigma=sigma)
                losses[k] = loss
                np.multiply(resid, scale, out=scaled)
                np.matmul(scaled.T, x, out=grad_W)
                resid.sum(axis=0, out=grad_b)
                grad_b *= scale
                if opt is not None:
                    opt.step([grad])
                else:
                    theta -= cfg.lr * grad
    return AffineDenoiser(weight=W, bias=b, sigma=sigma), losses


def augmented_moments(X: DataMatrix, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """Moments of the clean-target objective in the augmented parameter Z = [W | b].

    Returns M = [[S + sigma^2 I, mu], [mu^T, 1]] of shape (d+1, d+1) and
    C = [S | mu] of shape (d, d+1), where S = Y^T Y / N is the second moment
    and mu the mean of the rows of X.
    """
    Y = X.values
    d = X.dim
    C = np.column_stack([Y.T @ Y / X.n_samples, Y.mean(axis=0)])
    M = np.empty((d + 1, d + 1))
    M[:d] = C
    M[:d, :d] += sigma**2 * np.eye(d)
    M[d, :d] = C[:, d]
    M[d, d] = 1.0
    return M, C


def train_linear_dsm(X: DataMatrix, sigma: float,
                     cfg: DistillConfig) -> tuple[AffineDenoiser, np.ndarray]:
    """Train an affine denoiser on the clean-target objective by plain GD.

    The expectation over the noise has the closed form
    E||W(x+e)+b-x||^2 = ||(W-I)x+b||^2 + sigma^2 ||W||_F^2, so the gradient
    is evaluated exactly from the dataset's first and second moments and the
    descent is deterministic; ``cfg.batch`` and ``cfg.seed`` are not used.
    In the augmented parameter Z = [W | b] the objective is the quadratic
    sum((Z M - 2C) * Z) + tr S with M and C from ``augmented_moments``, so
    its gradient is 2(Z M - C) and its Hessian is 2M: each step is one
    product Z M, and a step size below 1 / lambda_max(M) is stable.
    Raises DivergenceError once the loss exceeds 10x its starting value.
    """
    sigma = check_sigma(sigma)
    check_dense_dim(X.dim)
    d = X.dim
    M, C = augmented_moments(X, sigma)
    initial = float(np.trace(C[:, :d]))
    C2 = 2.0 * C
    step = 2.0 * cfg.lr
    Z = np.zeros((d, d + 1))
    ZM = np.empty_like(Z)
    tmp = np.empty_like(Z)
    losses = np.empty(cfg.steps)
    for k in range(cfg.steps):
        np.matmul(Z, M, out=ZM)
        np.subtract(ZM, C2, out=tmp)
        loss = float(np.vdot(tmp, Z)) + initial
        if not math.isfinite(loss) or loss > _DIVERGENCE_FACTOR * initial:
            raise DivergenceError(
                f"gradient descent diverged at step {k}: loss {loss:.3e} "
                f"exceeds 10x initial {initial:.3e}", step=k, sigma=sigma)
        losses[k] = loss
        np.subtract(ZM, C, out=tmp)
        tmp *= step
        Z -= tmp
    return AffineDenoiser(weight=Z[:, :d].copy(), bias=Z[:, d].copy(), sigma=sigma), losses


def orthogonality_residual(D: Denoiser, X: DataMatrix, sigma: float,
                           n_samples: int, seed: int) -> float:
    """Monte-Carlo check of the normal equations for a denoiser's residual.

    Estimates ||E[(D(x+e) - x)(x+e - mean)^T]||_F normalized by
    ||E[(x+e - mean)(x+e - mean)^T]||_F. Exactly zero in expectation for the
    optimal affine denoiser; bounded away from zero for clearly suboptimal
    maps like the zero map on strongly anisotropic data.
    """
    sigma = check_sigma(sigma)
    if n_samples < 1:
        raise ValueRangeError("need at least one sample")
    rng = np.random.default_rng(seed)
    rows, noisy = noisy_rows(X, sigma, n_samples, rng)
    resid = D.evaluate_batch(noisy, sigma) - rows
    centered = noisy - X.values.mean(axis=0)
    cross = resid.T @ centered / n_samples
    gram = centered.T @ centered / n_samples
    return float(np.linalg.norm(cross) / np.linalg.norm(gram))


def save_affine(D: AffineDenoiser, path: str | Path) -> None:
    """Write an affine checkpoint: magic, u32 dim, f64 sigma, W row-major, b."""
    sigma = D.sigma if D.sigma is not None else float("nan")
    write_container(path, AFFINE_MAGIC, AFFINE_HEADER, (D.dim, sigma), [D.weight, D.bias])


def load_affine(path: str | Path) -> AffineDenoiser:
    """Read an affine checkpoint written by ``save_affine``."""
    def shapes(dim, sigma):
        if dim == 0:
            raise FormatError(f"{path}: checkpoint declares dimension 0")
        return [(dim, dim), (dim,)]

    (_, sigma), (W, b) = read_container(path, AFFINE_MAGIC, AFFINE_HEADER, shapes)
    return AffineDenoiser(weight=W, bias=b, sigma=None if np.isnan(sigma) else float(sigma))


def losses_to_csv(losses: np.ndarray, path: str | Path) -> None:
    """Write a loss curve as (step, loss) rows."""
    write_csv(path, "step,loss", ([i, float(v)] for i, v in enumerate(losses)), "\r\n")
