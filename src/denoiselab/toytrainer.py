"""A small trainable nonlinear denoiser with hand-written backpropagation.

The network is a two-hidden-layer tanh MLP that sees the noisy vector plus a
log-noise feature, trained per noise level on the plain denoising objective
(predict the clean vector from the noisy one). tanh keeps the map smooth so
finite-difference Jacobians are well defined everywhere. The analytic
gradients are gated by a central-finite-difference check.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .dataset import DataMatrix, noisy_rows, read_container, write_container
from .denoisers import Denoiser, check_sigma
from .errors import (
    DimensionMismatchError,
    DivergenceError,
    FormatError,
    ValueRangeError,
)
from .optim import Adam

TOY_MAGIC = b"TOY1"
TOY_HEADER = "<BIId"  # mode (0=dae, 1=skip), dim, hidden, sigma_data

#: default scale parameter for the skip parameterization coefficients
DEFAULT_SIGMA_DATA = 0.5

_MODES = ("dae", "skip")


def _param_shapes(dim: int, hidden: int) -> list[tuple[int, ...]]:
    """Shapes of W1, b1, W2, b2, W3, b3, in checkpoint order."""
    return [(dim + 1, hidden), (hidden,), (hidden, hidden), (hidden,), (hidden, dim), (dim,)]


def default_skip_coefficients(sigma_data: float) -> tuple[Callable[[float], float],
                                                          Callable[[float], float]]:
    """Skip/output scales c_skip = s^2/(sigma^2+s^2), c_out = sigma*s/sqrt(sigma^2+s^2)."""

    def c_skip(sigma: float) -> float:
        return sigma_data**2 / (sigma**2 + sigma_data**2)

    def c_out(sigma: float) -> float:
        return sigma * sigma_data / np.sqrt(sigma**2 + sigma_data**2)

    return c_skip, c_out


class ToyDenoiser(Denoiser):
    """input(dim+1) -> hidden -> hidden -> output(dim) MLP with tanh hiddens.

    mode "dae" outputs the raw network value; mode "skip" blends it with the
    input through noise-dependent coefficients. Custom coefficient callables
    may be supplied for analysis but only the standard family (parameterized
    by ``sigma_data``) survives checkpointing.
    """

    def __init__(self, params: list[np.ndarray], mode: str,
                 sigma_data: float = DEFAULT_SIGMA_DATA,
                 skip_coefficients: tuple[Callable, Callable] | None = None):
        if mode not in _MODES:
            raise ValueRangeError(f"mode must be one of {_MODES}, got {mode!r}")
        W1, b1, W2, b2, W3, b3 = params
        dim = W3.shape[1]
        hidden = W1.shape[1]
        if [p.shape for p in params] != _param_shapes(dim, hidden):
            raise DimensionMismatchError("inconsistent toy parameter shapes")
        self.params = [np.asarray(p, dtype=np.float64) for p in params]
        if not all(np.all(np.isfinite(p)) for p in self.params):
            raise ValueRangeError("non-finite toy parameters")
        self.mode = mode
        self.dim = dim
        self.hidden = hidden
        self.sigma_data = float(sigma_data)
        if not 0.0 < self.sigma_data < np.inf:
            raise ValueRangeError(f"sigma_data must be finite and positive, got {sigma_data}")
        if skip_coefficients is None:
            skip_coefficients = default_skip_coefficients(self.sigma_data)
        self.c_skip, self.c_out = skip_coefficients

    def copy(self) -> "ToyDenoiser":
        return ToyDenoiser([p.copy() for p in self.params], self.mode,
                           self.sigma_data, (self.c_skip, self.c_out))

    def _forward(self, X: np.ndarray, sigma: float):
        """Forward pass returning the output and cached activations."""
        sigma = check_sigma(sigma)
        W1, b1, W2, b2, W3, b3 = self.params
        a0 = np.concatenate([X, np.full((X.shape[0], 1), np.log(sigma))], axis=1)
        a1 = a0 @ W1
        a1 += b1
        np.tanh(a1, out=a1)
        a2 = a1 @ W2
        a2 += b2
        np.tanh(a2, out=a2)
        F = a2 @ W3
        F += b3
        if self.mode == "skip":
            out = self.c_skip(sigma) * X + self.c_out(sigma) * F
        else:
            out = F
        return out, (a0, a1, a2)

    def _backward(self, out: np.ndarray, cache: tuple, target: np.ndarray,
                  sigma: float) -> tuple[float, list[np.ndarray]]:
        """Loss and gradients over the first ``len(target)`` rows of a forward pass.

        Rows past them (held-out rows sharing the pass) are ignored. The
        cached activations of the used rows are overwritten.
        """
        n = len(target)
        a0, a1, a2 = (a[:n] for a in cache)
        _, _, W2, _, W3, _ = self.params
        d_F = out[:n] - target
        loss = _mean_sq(d_F)
        d_F *= 2.0 / n  # d loss / d out
        if self.mode == "skip":
            d_F *= self.c_out(sigma)
        g_W3 = a2.T @ d_F
        g_b3 = d_F.sum(axis=0)
        d_z2 = d_F @ W3.T
        d_z2 *= _one_minus_square(a2)
        g_W2 = a1.T @ d_z2
        g_b2 = d_z2.sum(axis=0)
        d_z1 = d_z2 @ W2.T
        d_z1 *= _one_minus_square(a1)
        g_W1 = a0.T @ d_z1
        g_b1 = d_z1.sum(axis=0)
        return loss, [g_W1, g_b1, g_W2, g_b2, g_W3, g_b3]

    def evaluate_batch(self, X: np.ndarray, sigma: float) -> np.ndarray:
        X = self._check_input(X)
        return self._forward(X, sigma)[0]

    def loss(self, noisy: np.ndarray, target: np.ndarray, sigma: float) -> float:
        """Mean over the batch of the squared denoising error."""
        out, _ = self._forward(np.asarray(noisy, dtype=np.float64), sigma)
        return _mean_sq(out - target)

    def loss_grads(self, noisy: np.ndarray, target: np.ndarray,
                   sigma: float) -> tuple[float, list[np.ndarray]]:
        """Loss plus analytic gradients in parameter order W1,b1,W2,b2,W3,b3."""
        out, cache = self._forward(np.asarray(noisy, dtype=np.float64), sigma)
        return self._backward(out, cache, np.asarray(target, dtype=np.float64), sigma)


def _mean_sq(diff: np.ndarray) -> float:
    """Mean over rows of the squared row norms."""
    return float((diff**2).sum(axis=1).mean())


def _one_minus_square(a: np.ndarray) -> np.ndarray:
    """tanh'(z) = 1 - a^2 from the activation a = tanh(z), written over a."""
    np.square(a, out=a)
    return np.subtract(1.0, a, out=a)


def init_toy(seed: int, dim: int, hidden: int, mode: str = "dae",
             sigma_data: float = DEFAULT_SIGMA_DATA) -> ToyDenoiser:
    """Seeded initialization: weights scaled by 1/sqrt(fan_in), biases zero."""
    if dim < 1 or hidden < 1:
        raise ValueRangeError(f"dim and hidden must be positive, got {dim}, {hidden}")
    rng = np.random.default_rng(seed)
    params = [rng.standard_normal(s) / np.sqrt(s[0]) if len(s) == 2 else np.zeros(s)
              for s in _param_shapes(dim, hidden)]
    return ToyDenoiser(params, mode, sigma_data)


@dataclass(frozen=True)
class TrainResult:
    """Trained model, per-step training losses, and the validation curve.

    The validation curve re-evaluates one fixed held-out batch of noisy/clean
    pairs at every step, so it is exactly constant when nothing trains. The
    held-out rows share each step's training forward pass, stacked below the
    training batch, so ``val_losses[k]`` is the loss at the parameters before
    step k; one last pass after training gives ``val_losses[steps]``.
    ``diverged`` is set when the final validation loss exceeds the initial one.
    """

    model: ToyDenoiser
    losses: np.ndarray
    val_losses: np.ndarray

    @property
    def diverged(self) -> bool:
        return bool(self.val_losses[-1] > self.val_losses[0])


def train_toy(model: ToyDenoiser, X: DataMatrix, sigma: float, steps: int,
              batch: int, lr: float, seed: int) -> TrainResult:
    """Adam training of the denoising objective at one noise level.

    Each step draws ``batch`` rows of X (with replacement) plus fresh noise
    at level sigma and minimizes the squared error against the clean rows.
    Training mutates the model in place and is bit-reproducible given
    (seed, X, hyperparameters); the caller owns the model exclusively while
    this runs.
    """
    if model.dim != X.dim:
        raise DimensionMismatchError(f"model dim {model.dim} != data dim {X.dim}")
    sigma = check_sigma(sigma)
    if not 1 <= batch <= X.n_samples:
        raise ValueRangeError(f"batch must be in [1, {X.n_samples}], got {batch}")
    if steps < 1:
        raise ValueRangeError("need at least one step")
    rng = np.random.default_rng(seed)
    val_rows, val_noisy = noisy_rows(X, sigma, batch, rng)
    opt = Adam(model.params, lr=lr)
    losses = np.empty(steps)
    val_losses = np.empty(steps + 1)
    for k in range(steps):
        rows, noisy = noisy_rows(X, sigma, batch, rng)
        out, cache = model._forward(np.concatenate([noisy, val_noisy]), sigma)
        val_losses[k] = _mean_sq(out[batch:] - val_rows)
        loss, grads = model._backward(out, cache, rows, sigma)
        if not np.isfinite(loss):
            raise DivergenceError(f"non-finite training loss at step {k}", step=k, sigma=sigma)
        losses[k] = loss
        opt.step(grads)
    val_losses[steps] = model.loss(val_noisy, val_rows, sigma)
    return TrainResult(model=model, losses=losses, val_losses=val_losses)


def grad_check(model: ToyDenoiser, x: np.ndarray, target: np.ndarray,
               sigma: float, n_checks: int = 64) -> float:
    """Max relative error of analytic vs central finite-difference gradients.

    Probes ``n_checks`` deterministically chosen parameters (all of them when
    the model is smaller) with step 1e-5 on the squared-error loss at a
    single point. Correct backpropagation lands well below 1e-4.
    """
    x = np.asarray(x, dtype=np.float64)[None, :]
    target = np.asarray(target, dtype=np.float64)[None, :]
    h = 1e-5
    _, grads = model.loss_grads(x, target, sigma)
    sizes = [p.size for p in model.params]
    total = sum(sizes)
    rng = np.random.default_rng(0)
    picks = rng.permutation(total)[: min(n_checks, total)]
    offsets = np.cumsum([0] + sizes)
    gmax = max(float(np.max(np.abs(g))) for g in grads)
    floor = 1e-8 * (1.0 + gmax)
    worst = 0.0
    for flat in picks:
        pi = int(np.searchsorted(offsets, flat, side="right") - 1)
        local = int(flat - offsets[pi])
        p = model.params[pi]
        orig = p.flat[local]
        p.flat[local] = orig + h
        up = model.loss(x, target, sigma)
        p.flat[local] = orig - h
        down = model.loss(x, target, sigma)
        p.flat[local] = orig
        numeric = (up - down) / (2.0 * h)
        analytic = grads[pi].flat[local]
        err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), floor)
        worst = max(worst, err)
    return worst


def save_toy(model: ToyDenoiser, path: str | Path) -> None:
    """Write a toy checkpoint.

    Layout: magic, mode byte (0=dae, 1=skip), u32 dim, u32 hidden, f64
    sigma_data, then W1, b1, W2, b2, W3, b3 as little-endian f64 row-major.
    """
    write_container(path, TOY_MAGIC, TOY_HEADER, (_MODES.index(model.mode), model.dim,
                                                  model.hidden, model.sigma_data), model.params)


def load_toy(path: str | Path) -> ToyDenoiser:
    """Read a checkpoint written by ``save_toy``."""
    def shapes(mode, dim, hidden, sigma_data):
        if mode >= len(_MODES):
            raise FormatError(f"{path}: unknown mode byte {mode}")
        if dim == 0 or hidden == 0:
            raise FormatError(f"{path}: checkpoint declares dim {dim}, hidden {hidden}")
        return _param_shapes(dim, hidden)

    (mode, _, _, sigma_data), params = read_container(path, TOY_MAGIC, TOY_HEADER, shapes)
    return ToyDenoiser(params, _MODES[mode], sigma_data)
