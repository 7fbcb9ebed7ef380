"""A small trainable nonlinear denoiser with hand-written backpropagation.

The network is a two-hidden-layer tanh MLP that sees the noisy vector plus a
log-noise feature, trained per noise level on the plain denoising objective
(predict the clean vector from the noisy one). tanh keeps the map smooth so
finite-difference Jacobians are well defined everywhere. The analytic
gradients are gated by a central-finite-difference check.
"""

from __future__ import annotations

import math
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
from .optim import Adam, check_learning_rate, mean_sq

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

    The model copies the six arrays it is given (W1, b1, W2, b2, W3, b3) into
    one flat float64 buffer it owns, ``flat_params``; ``params`` is a tuple of
    views of it in that order, so training updates the buffer in place and a
    rebound entry fails loudly instead of leaving the buffer stale.
    """

    def __init__(self, params: list[np.ndarray], mode: str,
                 sigma_data: float = DEFAULT_SIGMA_DATA,
                 skip_coefficients: tuple[Callable, Callable] | None = None):
        if mode not in _MODES:
            raise ValueRangeError(f"mode must be one of {_MODES}, got {mode!r}")
        shapes = [np.shape(p) for p in params]
        if len(shapes) != 6 or len(shapes[0]) != 2 or len(shapes[4]) != 2 \
                or shapes != _param_shapes(shapes[4][1], shapes[0][1]):
            raise DimensionMismatchError(
                f"toy parameters must be W1, b1, W2, b2, W3, b3 of consistent shapes, got {shapes}")
        self.dim = shapes[4][1]
        self.hidden = shapes[0][1]
        self.flat_params = np.empty(sum(math.prod(s) for s in shapes))
        self.params = tuple(self._views(self.flat_params))
        for view, p in zip(self.params, params):
            view[...] = p
        if not np.isfinite(self.flat_params).all():
            raise ValueRangeError("non-finite toy parameters")
        self.mode = mode
        self.sigma_data = float(sigma_data)
        if not 0.0 < self.sigma_data < np.inf:
            raise ValueRangeError(f"sigma_data must be finite and positive, got {sigma_data}")
        if skip_coefficients is None:
            skip_coefficients = default_skip_coefficients(self.sigma_data)
        self.c_skip, self.c_out = skip_coefficients

    def copy(self) -> "ToyDenoiser":
        return ToyDenoiser(self.params, self.mode, self.sigma_data, (self.c_skip, self.c_out))

    def _views(self, flat: np.ndarray) -> list[np.ndarray]:
        """W1, b1, W2, b2, W3, b3 shaped views of a flat array of the parameter count."""
        views, start = [], 0
        for shape in _param_shapes(self.dim, self.hidden):
            size = math.prod(shape)
            views.append(flat[start:start + size].reshape(shape))
            start += size
        return views

    def _forward(self, a0: np.ndarray, sigma: float, work=(None,) * 4):
        """Output and cached activations (a0, a1, a2) for network input ``a0``.

        ``a0`` holds the rows [x | log sigma] (see ``_input``) and
        sigma has passed ``check_sigma``. ``work`` holds buffers for a1, a2,
        the output and, in skip mode, the skip term; None entries are
        allocated.
        """
        a1, a2, out, skip = work
        W1, b1, W2, b2, W3, b3 = self.params
        a1 = np.matmul(a0, W1, out=a1)
        a1 += b1
        np.tanh(a1, out=a1)
        a2 = np.matmul(a1, W2, out=a2)
        a2 += b2
        np.tanh(a2, out=a2)
        out = np.matmul(a2, W3, out=out)
        out += b3
        if self.mode == "skip":
            out *= self.c_out(sigma)
            out += np.multiply(a0[:, :-1], self.c_skip(sigma), out=skip)
        return out, (a0, a1, a2)

    def _backward(self, out: np.ndarray, cache: tuple, target: np.ndarray,
                  sigma: float, work=(None,) * 4) -> tuple[float, list[np.ndarray]]:
        """Loss and gradients over the first ``len(target)`` rows of a forward pass.

        Rows past them (held-out rows sharing the pass) are ignored. The
        cached activations of the used rows are overwritten. ``work`` holds
        buffers for d_F, d_z2 and d_z1 and the gradients, views of one flat
        gradient in parameter order (see ``_views``); None entries are
        allocated. The gradients are written to and returned as those views.
        """
        n = len(target)
        a0, a1, a2 = (a[:n] for a in cache)
        _, _, W2, _, W3, _ = self.params
        d_F, d_z2, d_z1, grads = work
        if grads is None:
            grads = self._views(np.empty_like(self.flat_params))
        g_W1, g_b1, g_W2, g_b2, g_W3, g_b3 = grads
        d_F = np.subtract(out[:n], target, out=d_F)
        loss = mean_sq(d_F)
        d_F *= 2.0 / n  # d loss / d out
        if self.mode == "skip":
            d_F *= self.c_out(sigma)
        np.matmul(a2.T, d_F, out=g_W3)
        d_F.sum(axis=0, out=g_b3)
        d_z2 = np.matmul(d_F, W3.T, out=d_z2)
        d_z2 *= _one_minus_square(a2)
        np.matmul(a1.T, d_z2, out=g_W2)
        d_z2.sum(axis=0, out=g_b2)
        d_z1 = np.matmul(d_z2, W2.T, out=d_z1)
        d_z1 *= _one_minus_square(a1)
        np.matmul(a0.T, d_z1, out=g_W1)
        d_z1.sum(axis=0, out=g_b1)
        return loss, grads

    def evaluate_batch(self, X: np.ndarray, sigma: float) -> np.ndarray:
        a0, sigma = self._input(X, sigma)
        return self._forward(a0, sigma)[0]

    def loss(self, noisy: np.ndarray, target: np.ndarray, sigma: float) -> float:
        """Mean over the batch of the squared denoising error."""
        a0, target, sigma = self._loss_batch(noisy, target, sigma)
        out, _ = self._forward(a0, sigma)
        return mean_sq(out - target)

    def loss_grads(self, noisy: np.ndarray, target: np.ndarray,
                   sigma: float) -> tuple[float, list[np.ndarray]]:
        """Loss plus analytic gradients in parameter order W1,b1,W2,b2,W3,b3."""
        a0, target, sigma = self._loss_batch(noisy, target, sigma)
        out, cache = self._forward(a0, sigma)
        return self._backward(out, cache, target, sigma)

    def _input(self, X: np.ndarray, sigma: float) -> tuple[np.ndarray, float]:
        """The network's input rows [x | log sigma] for a ``_check_input`` batch, and sigma."""
        X = self._check_input(X)
        sigma = check_sigma(sigma)
        a0 = np.empty((len(X), X.shape[1] + 1))
        a0[:, :-1] = X
        a0[:, -1] = np.log(sigma)
        return a0, sigma

    def _loss_batch(self, noisy: np.ndarray, target: np.ndarray, sigma: float):
        """``_input`` of a nonempty batch, a target of the batch's shape, and sigma."""
        a0, sigma = self._input(noisy, sigma)
        target = np.asarray(target, dtype=np.float64)
        if target.shape != (len(a0), self.dim):
            raise DimensionMismatchError(
                f"target shape {target.shape} is not the batch shape {(len(a0), self.dim)}")
        if len(a0) == 0:
            raise ValueRangeError("empty batch: the loss is a mean over its rows")
        return a0, target, sigma


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
    check_learning_rate(lr)
    rng = np.random.default_rng(seed)
    val_rows, val_noisy = noisy_rows(X, sigma, batch, rng)
    # the training rows [:batch] of the stacked input are rewritten every step
    stacked, _ = model._input(np.concatenate([val_noisy, val_noisy]), sigma)
    noisy = np.empty_like(val_noisy)
    h = model.hidden
    forward_work = (np.empty((2 * batch, h)), np.empty((2 * batch, h)),
                    np.empty((2 * batch, X.dim)), np.empty((2 * batch, X.dim)))
    grad = np.empty_like(model.flat_params)
    backward_work = (np.empty((batch, X.dim)), np.empty((batch, h)), np.empty((batch, h)),
                     model._views(grad))
    val_diff = np.empty_like(val_rows)
    opt = Adam(model.flat_params, lr=lr)
    losses = np.empty(steps)
    val_losses = np.empty(steps + 1)
    for k in range(steps):
        rows, _ = noisy_rows(X, sigma, batch, rng, out=noisy)
        stacked[:batch, :-1] = noisy
        out, cache = model._forward(stacked, sigma, forward_work)
        val_losses[k] = mean_sq(np.subtract(out[batch:], val_rows, out=val_diff))
        loss, _ = model._backward(out, cache, rows, sigma, backward_work)
        if not math.isfinite(loss):
            raise DivergenceError(f"non-finite training loss at step {k}", step=k, sigma=sigma)
        losses[k] = loss
        opt.step([grad])
    val_losses[steps] = model.loss(val_noisy, val_rows, sigma)
    return TrainResult(model=model, losses=losses, val_losses=val_losses)


def grad_check(model: ToyDenoiser, x: np.ndarray, target: np.ndarray,
               sigma: float, n_checks: int = 64) -> float:
    """Max relative error of analytic vs central finite-difference gradients.

    Probes ``n_checks`` deterministically chosen parameters (all of them when
    the model is smaller) with step 1e-5 on the squared-error loss at a
    single point. Correct backpropagation lands well below 1e-4.
    """
    if n_checks < 1:
        raise ValueRangeError(f"n_checks must be at least 1, got {n_checks}")
    x = np.asarray(x, dtype=np.float64)[None, :]
    target = np.asarray(target, dtype=np.float64)[None, :]
    h = 1e-5
    _, grads = model.loss_grads(x, target, sigma)
    analytic_all = np.concatenate(grads, axis=None)
    theta = model.flat_params
    picks = np.random.default_rng(0).permutation(theta.size)[:n_checks]
    floor = 1e-8 * (1.0 + float(np.max(np.abs(analytic_all))))
    worst = 0.0
    for i in picks:
        orig = theta[i]
        theta[i] = orig + h
        up = model.loss(x, target, sigma)
        theta[i] = orig - h
        down = model.loss(x, target, sigma)
        theta[i] = orig
        numeric = (up - down) / (2.0 * h)
        analytic = analytic_all[i]
        err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), floor)
        worst = max(worst, err)
    return worst


def save_toy(model: ToyDenoiser, path: str | Path) -> None:
    """Write a toy checkpoint.

    Layout: magic, mode byte (0=dae, 1=skip), u32 dim, u32 hidden, f64
    sigma_data, then W1, b1, W2, b2, W3, b3 as little-endian f64 row-major.
    """
    write_container(path, TOY_MAGIC, TOY_HEADER, (_MODES.index(model.mode), model.dim,
                                                  model.hidden, model.sigma_data), [model.flat_params])


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
