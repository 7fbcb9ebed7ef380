"""Minimal Adam optimizer over lists of numpy arrays."""

from __future__ import annotations

import numpy as np


class Adam:
    """Adaptive moment estimation with bias correction.

    Defaults beta1=0.9, beta2=0.999, eps=1e-8. ``step`` updates the parameter
    arrays in place, so callers own them exclusively while training.

    The moments of all arrays live in one flat buffer each, and ``step``
    works on whole buffers with preallocated work arrays. Every element sees the
    operations of the textbook per-array form in the same order,
    ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g**2``,
    ``p -= lr*m_hat / (sqrt(v_hat) + eps)``, so results are bitwise equal to it.
    """

    def __init__(self, params: list[np.ndarray], lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        size = sum(p.size for p in params)
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self._grad = np.empty(size)
        self._update = np.empty(size)
        ends = np.cumsum([p.size for p in params])
        self._update_views = [self._update[end - p.size:end].reshape(p.shape)
                              for p, end in zip(params, ends)]

    def step(self, grads: list[np.ndarray]) -> None:
        self.t += 1
        b1, b2, g, u = self.beta1, self.beta2, self._grad, self._update
        np.concatenate(grads, axis=None, out=g)
        self.m *= b1
        np.multiply(g, 1 - b1, out=u)
        self.m += u
        self.v *= b2
        np.square(g, out=u)
        u *= 1 - b2
        self.v += u
        np.divide(self.m, 1 - b1**self.t, out=u)  # m_hat
        u *= self.lr
        np.divide(self.v, 1 - b2**self.t, out=g)  # v_hat
        np.sqrt(g, out=g)
        g += self.eps
        u /= g
        for p, du in zip(self.params, self._update_views):
            p -= du
