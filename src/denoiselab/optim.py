"""Minimal Adam optimizer over one flat parameter array."""

from __future__ import annotations

import numpy as np


def mean_sq(diff: np.ndarray) -> float:
    """Mean over rows of the squared row norms, the trainers' loss."""
    return float((diff**2).sum(axis=1).sum()) / len(diff)  # np.mean's steps, less overhead


class Adam:
    """Adaptive moment estimation with bias correction.

    Defaults beta1=0.9, beta2=0.999, eps=1e-8. ``param`` is one array that
    ``step`` updates in place, so the caller owns it exclusively while
    training. A model with several parameter arrays keeps them as views of one
    flat buffer and its gradients as views of one flat gradient; Adam reads
    that gradient in place, with no gather, and updates the buffer with one
    subtraction. The moments and two work arrays are allocated once. Every
    element sees the operations of the textbook per-array form in the same
    order, ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g**2``,
    ``p -= lr*m_hat / (sqrt(v_hat) + eps)``, so results are bitwise equal to it.
    """

    def __init__(self, param: np.ndarray, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.param = param
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = np.zeros(param.shape)
        self.v = np.zeros(param.shape)
        self._update = np.empty(param.shape)
        self._work = np.empty(param.shape)

    def step(self, grads: list[np.ndarray]) -> None:
        """One update from ``grads = [g]``, g shaped like the parameter; g is only read."""
        (g,) = grads
        self.t += 1
        b1, b2, u, w = self.beta1, self.beta2, self._update, self._work
        self.m *= b1
        np.multiply(g, 1 - b1, out=u)
        self.m += u
        self.v *= b2
        np.square(g, out=u)
        u *= 1 - b2
        self.v += u
        np.divide(self.m, 1 - b1**self.t, out=u)  # m_hat
        u *= self.lr
        np.divide(self.v, 1 - b2**self.t, out=w)  # v_hat
        np.sqrt(w, out=w)
        w += self.eps
        u /= w
        self.param -= u
