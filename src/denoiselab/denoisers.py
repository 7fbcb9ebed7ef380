"""Denoisers sharing one evaluation interface.

A denoiser maps a noisy vector x and a noise level sigma to an estimate of
the clean vector. The closed-form ones here are the exact optima for two
idealized data models: a finite point set (softmax-weighted average of the
points) and a multivariate Gaussian (the Wiener / MMSE linear filter built
from the empirical mean and covariance). All built-in denoisers are
immutable and safe for concurrent evaluation. The argument rules that every
module shares live here: noise levels (``check_sigma``), counts
(``check_count``), positive scales (``check_scale``) and the desk-scale limits.
"""

from __future__ import annotations

import operator

import numpy as np

from .dataset import DataMatrix, GaussianStats
from .errors import DimensionMismatchError, ValueRangeError

#: noise levels from this one up square to infinity, so they are refused where they enter
_SIGMA_CEILING = 2.0**512
#: noise levels below this one square to a subnormal float or to 0
_SIGMA_FLOOR = 2.0**-511

#: dense d x d weights and Jacobians above this are refused, not silently slow
MAX_DENSE_DIM = 4096
#: most rows per denoiser call in ``distill_linear``'s teacher blocks and ``jacobian_fd``
ROW_BUDGET = 256


def check_sigma(sigma: float, zero: bool = False) -> float:
    """sigma as a float if 0 < sigma < 2**512 (0 <= sigma with ``zero``), else ValueRangeError."""
    sigma = float(sigma)
    if not (0 <= sigma if zero else 0 < sigma) or not sigma < _SIGMA_CEILING:
        raise ValueRangeError(f"sigma must be {'nonnegative' if zero else 'positive'} and "
                              f"below 2**512, where sigma^2 overflows, got {sigma}")
    return sigma


def check_count(name: str, value: int, low: int = 1) -> int:
    """value as an int if ``operator.index`` takes it and it is >= low, else ValueRangeError."""
    try:
        if operator.index(value) >= low:
            return operator.index(value)
    except TypeError:
        pass
    raise ValueRangeError(f"{name} must be at least {low}, got {value!r}")


def check_scale(name: str, value: float, zero: bool = False) -> float:
    """value as a float if 0 < value < inf (0 <= value with ``zero``), else ValueRangeError."""
    value = float(value)
    if not (0 <= value if zero else 0 < value) or not value < np.inf:
        raise ValueRangeError(f"{name} must be {'nonnegative' if zero else 'positive'} and "
                              f"finite, got {value}")
    return value


def check_dense_dim(dim: int) -> None:
    """Refuse a dense dim x dim matrix above ``MAX_DENSE_DIM``, before allocating it."""
    if dim > MAX_DENSE_DIM:
        raise ValueRangeError(f"dense {dim}x{dim} matrix exceeds the {MAX_DENSE_DIM} desk-scale cap")


class Denoiser:
    """Interface: ``evaluate_batch(X, sigma) -> X_hat`` plus a fixed ``dim``.

    ``evaluate_batch`` maps a k x dim array of noisy rows to k denoised rows
    and is the one method a subclass must implement; ``evaluate`` is its
    one-row view. Subclasses set ``dim`` when built. Each built-in ``evaluate_batch``
    starts with ``_check_input``: a batch that is not (k, dim), k >= 0, raises
    DimensionMismatchError, and one holding a NaN or an infinity ValueRangeError.
    """

    dim: int

    def evaluate(self, x: np.ndarray, sigma: float) -> np.ndarray:
        return self.evaluate_batch(np.asarray(x, dtype=np.float64)[None], sigma)[0]

    def evaluate_batch(self, X: np.ndarray, sigma: float) -> np.ndarray:
        raise NotImplementedError(f"{type(self).__name__} does not implement evaluate_batch")

    def _check_input(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise DimensionMismatchError(
                f"batch shape {X.shape} is not (k, {self.dim}) for this denoiser")
        if not np.isfinite(X).all():
            raise ValueRangeError("non-finite input to denoiser")
        return X


class MultiDeltaDenoiser(Denoiser):
    """Exact optimal denoiser when the data distribution is a finite point set.

    Output is the softmax-weighted average of the training rows with logits
    -||x - y_i||^2 / (2 sigma^2), taken as ``row_scores`` over sigma^2 (the
    ||x||^2 term cancels), each row shifted by its maximum first: every logit
    is then <= 0, and one that overflows is -inf, a zero weight. A row whose
    scores are not all finite is refused. sigma must square to a finite normal
    float, 2**-511 <= sigma < 2**512: a sigma^2 that underflows to 0 would
    divide 0 by 0. The output always lies in the convex hull of the rows.
    """

    def __init__(self, data: DataMatrix):
        self.data = data
        self.dim = data.dim
        self._half_sq_norms = 0.5 * (data.values**2).sum(axis=1)

    def row_scores(self, X: np.ndarray) -> np.ndarray:
        """x.y_i - ||y_i||^2 / 2 for rows x of X: the larger, the closer y_i is to x."""
        scores = X @ self.data.values.T
        scores -= self._half_sq_norms
        return scores

    def evaluate_batch(self, X: np.ndarray, sigma: float) -> np.ndarray:
        X = self._check_input(X)
        if check_sigma(sigma) < _SIGMA_FLOOR:
            raise ValueRangeError(f"multi-delta needs sigma >= 2**-511, so that sigma^2 is a "
                                  f"finite normal float, got {sigma}")
        Y = self.data.values
        # a score that overflows is refused at the row maxima; after the shift, a
        # scaled score that overflows is -inf, an exact zero weight
        with np.errstate(over="ignore", invalid="ignore"):
            w = self.row_scores(X)  # then weights, in place
            top = w.max(axis=1, keepdims=True)
            if not np.isfinite(top).all():
                raise ValueRangeError(f"multi-delta logits overflow at sigma={sigma}")
            w -= top
            w /= sigma**2
            np.exp(w, out=w)
        out = w @ Y
        return np.divide(out, w.sum(axis=1, keepdims=True), out=out)


class GaussianDenoiser(Denoiser):
    """Optimal denoiser for the Gaussian fit of the data (Wiener filter).

    Works in the rank-r eigenbasis, shrinking each component of x - mean by
    eigval / (eigval + sigma^2) and annihilating anything orthogonal to the
    basis; never forms the dense d x d weight. At sigma = 0 the coefficient is
    1 for positive eigenvalues and 0 for zero ones (the continuous limit).
    """

    def __init__(self, stats: GaussianStats):
        self.stats = stats
        self.dim = stats.dim

    def shrinkage(self, sigma: float) -> np.ndarray:
        """Per-component gain eigval / (eigval + sigma^2), for 0 <= sigma < 2**512."""
        var = check_sigma(sigma, zero=True) ** 2
        lam = self.stats.eigvals
        if var > 0:  # eigenvalues are nonnegative, so every denominator is positive
            return lam / (lam + var)
        # sigma = 0, or a sigma whose square underflows: 0 / 0 is taken as 0
        return np.divide(lam, lam, out=np.zeros_like(lam), where=lam > 0)

    def evaluate_batch(self, X: np.ndarray, sigma: float) -> np.ndarray:
        X = self._check_input(X)
        coef = self.shrinkage(sigma)
        centered = X - self.stats.mean
        proj = centered @ self.stats.basis
        return self.stats.mean + (proj * coef) @ self.stats.basis.T


class AffineDenoiser(Denoiser):
    """Dense affine map x -> W x + b, the output of linear distillation.

    ``sigma`` records the noise level the map was fit at; the map is level-specific,
    so evaluation only checks its sigma argument by ``check_sigma(sigma, zero=True)``.
    """

    def __init__(self, weight: np.ndarray, bias: np.ndarray, sigma: float | None = None):
        weight = np.asarray(weight, dtype=np.float64)
        bias = np.asarray(bias, dtype=np.float64)
        if weight.ndim != 2 or weight.shape[0] != weight.shape[1]:
            raise DimensionMismatchError(f"weight must be square, got {weight.shape}")
        if bias.shape != (weight.shape[0],):
            raise DimensionMismatchError(
                f"bias shape {bias.shape} does not match weight {weight.shape}"
            )
        if not (np.all(np.isfinite(weight)) and np.all(np.isfinite(bias))):
            raise ValueRangeError("non-finite affine parameters")
        self.weight = weight
        self.bias = bias
        self.sigma = sigma
        self.dim = weight.shape[0]

    def evaluate_batch(self, X: np.ndarray, sigma: float = 0.0) -> np.ndarray:
        X = self._check_input(X)
        check_sigma(sigma, zero=True)
        return X @ self.weight.T + self.bias


class PerLevelDenoiser(Denoiser):
    """Dispatch table mapping each noise level to its own denoiser.

    Mirrors per-level training: one model per sigma. Each call uses the entry
    whose level is nearest to its sigma (the smaller level on a tie). A level
    or a sigma outside ``check_sigma(sigma, zero=True)`` raises ``ValueRangeError``.
    """

    def __init__(self, levels: dict[float, Denoiser]):
        if not levels:
            raise ValueRangeError("empty level table")
        dims = {d.dim for d in levels.values()}
        if len(dims) != 1:
            raise DimensionMismatchError(f"mixed dimensions in level table: {dims}")
        self._table = {check_sigma(s, zero=True): d for s, d in levels.items()}
        self._sigmas = np.array(sorted(self._table), dtype=np.float64)
        self.dim = dims.pop()

    def evaluate_batch(self, X: np.ndarray, sigma: float) -> np.ndarray:
        X = self._check_input(X)
        check_sigma(sigma, zero=True)
        nearest = float(self._sigmas[np.argmin(np.abs(self._sigmas - sigma))])
        return self._table[nearest].evaluate_batch(X, sigma)


def multi_delta_denoise(Y: DataMatrix, x: np.ndarray, sigma: float) -> np.ndarray:
    """Softmax-weighted average of the rows of Y around x at level sigma."""
    return MultiDeltaDenoiser(Y).evaluate(x, sigma)


def gaussian_denoise(stats: GaussianStats, x: np.ndarray, sigma: float) -> np.ndarray:
    """Wiener-filter estimate of the clean vector under the Gaussian fit."""
    return GaussianDenoiser(stats).evaluate(x, sigma)


def affine_denoise(D: AffineDenoiser, x: np.ndarray) -> np.ndarray:
    """Apply the affine map W x + b."""
    return D.evaluate(x, 0.0)


def denoiser_to_score(D: Denoiser, x: np.ndarray, sigma: float) -> np.ndarray:
    """Score of the sigma-mollified density at x: (D(x; sigma) - x) / sigma^2."""
    return score_batch(D, np.asarray(x, dtype=np.float64)[None], sigma)[0]


def score_batch(D: Denoiser, X: np.ndarray, sigma: float) -> np.ndarray:
    """Vectorized ``denoiser_to_score`` over rows of X; sigma^2 must be a normal float."""
    if check_sigma(sigma) < _SIGMA_FLOOR:
        raise ValueRangeError(f"score conversion needs sigma >= 2**-511, so that sigma^2 is "
                              f"a finite normal float, got {sigma}")
    X = np.asarray(X, dtype=np.float64)
    return (D.evaluate_batch(X, sigma) - X) / sigma**2
