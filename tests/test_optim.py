import numpy as np

from denoiselab.optim import Adam

from conftest import textbook_adam_step


def test_adam_updates_callers_arrays_in_place():
    W, b = np.ones((3, 2)), np.ones(2)
    opt = Adam([W, b], lr=0.1)
    opt.step([np.ones((3, 2)), -np.ones(2)])
    # W and b are the caller's own objects; the first bias-corrected step moves each entry by lr against the gradient's sign
    assert np.allclose(W, 0.9) and np.allclose(b, 1.1)


def test_adam_bitwise_equal_to_textbook_over_mixed_shapes():
    rng = np.random.default_rng(3)
    shapes = [(5, 7), (7,), (7, 7), (1,), (7, 3), (3,)]
    params = [rng.standard_normal(s) for s in shapes]
    ref = [p.copy() for p in params]
    m = [np.zeros_like(p) for p in ref]
    v = [np.zeros_like(p) for p in ref]
    opt = Adam(params, lr=3e-3, beta1=0.85, beta2=0.99, eps=1e-7)
    for t in range(1, 51):
        # gradient scales from 1e-6 to 1e3 exercise eps and the bias correction
        grads = [rng.standard_normal(s) * 10.0 ** rng.integers(-6, 4) for s in shapes]
        opt.step(grads)
        textbook_adam_step(ref, grads, m, v, t, lr=3e-3, beta1=0.85, beta2=0.99, eps=1e-7)
        for p, q in zip(params, ref):
            assert np.array_equal(p, q)
