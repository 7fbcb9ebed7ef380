import numpy as np
import pytest

from denoiselab.optim import Adam

from conftest import textbook_adam_step


def _views(flat, shapes):
    """Arrays of the given shapes as consecutive views of ``flat``."""
    ends = np.cumsum([int(np.prod(s)) for s in shapes])
    return [flat[end - int(np.prod(s)):end].reshape(s) for s, end in zip(shapes, ends)]


def test_adam_updates_callers_arrays_in_place():
    theta = np.ones(8)
    W, b = _views(theta, [(3, 2), (2,)])
    grad = np.empty(8)
    g_W, g_b = _views(grad, [(3, 2), (2,)])
    g_W[...], g_b[...] = 1.0, -1.0
    opt = Adam(theta, lr=0.1)
    opt.step([grad])
    # W and b are views of the caller's buffer; the first bias-corrected step moves each entry by lr against the gradient's sign
    assert np.allclose(W, 0.9) and np.allclose(b, 1.1)
    # the gradient is only read
    assert np.all(g_W == 1.0) and np.all(g_b == -1.0)


def test_adam_bitwise_equal_to_textbook_over_mixed_shapes():
    rng = np.random.default_rng(3)
    shapes = [(5, 7), (7,), (7, 7), (1,), (7, 3), (3,)]
    theta = np.empty(sum(int(np.prod(s)) for s in shapes))
    params = _views(theta, shapes)
    for p in params:
        p[...] = rng.standard_normal(p.shape)
    ref = [p.copy() for p in params]
    m = [np.zeros_like(p) for p in ref]
    v = [np.zeros_like(p) for p in ref]
    grad = np.empty_like(theta)
    grads = _views(grad, shapes)
    opt = Adam(theta, lr=3e-3, beta1=0.85, beta2=0.99, eps=1e-7)
    for t in range(1, 51):
        # gradient scales from 1e-6 to 1e3 exercise eps and the bias correction
        for g in grads:
            g[...] = rng.standard_normal(g.shape) * 10.0 ** rng.integers(-6, 4)
        opt.step([grad])
        textbook_adam_step(ref, grads, m, v, t, lr=3e-3, beta1=0.85, beta2=0.99, eps=1e-7)
        for p, q in zip(params, ref):
            assert np.array_equal(p, q)


def test_adam_step_takes_one_gradient():
    opt = Adam(np.zeros(3), lr=0.1)
    with pytest.raises(ValueError):
        opt.step([np.ones(2), np.ones(1)])
