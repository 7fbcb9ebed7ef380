import warnings

import numpy as np
import pytest

from denoiselab import (
    DataMatrix,
    GaussianDenoiser,
    ToyDenoiser,
    empirical_stats,
    grad_check,
    init_toy,
    load_toy,
    save_toy,
    train_toy,
)
from denoiselab.dataset import noisy_rows
from denoiselab.errors import DimensionMismatchError, DivergenceError, FormatError, ValueRangeError
from denoiselab.synth import gaussian_dataset

from conftest import textbook_adam_step


def test_init_deterministic_and_finite(rng):
    a = init_toy(1, 4, 8, "dae")
    b = init_toy(1, 4, 8, "dae")
    for pa, pb in zip(a.params, b.params):
        assert np.array_equal(pa, pb)
    out = a.evaluate(rng.standard_normal(4), 0.7)
    assert np.all(np.isfinite(out))
    with pytest.raises(ValueRangeError):
        init_toy(0, 4, 0)
    with pytest.raises(ValueRangeError):
        init_toy(0, 4, 8, "bogus")


def test_single_point_training_reaches_noise_floor():
    y = np.array([[0.3, -0.2, 0.5, 0.1]])
    model = init_toy(2, 4, 16, "dae")
    res = train_toy(model, DataMatrix(y), sigma=0.1, steps=2000, batch=1,
                    lr=0.01, seed=5)
    # the constant predictor x -> y has zero loss against the clean target,
    # so a converged model must land well below the noise floor
    assert res.val_losses[-1] < 0.01 * 4 * 0.1**2
    assert not res.diverged


def test_zero_learning_rate_changes_nothing():
    X = DataMatrix(np.random.default_rng(0).uniform(-1, 1, size=(6, 3)))
    model = init_toy(3, 3, 8, "dae")
    before = [p.copy() for p in model.params]
    res = train_toy(model, X, sigma=0.5, steps=40, batch=4, lr=0.0, seed=1)
    for p, q in zip(model.params, before):
        assert np.array_equal(p, q)
    assert np.all(res.val_losses == res.val_losses[0])


def test_training_is_bit_reproducible():
    X = DataMatrix(np.random.default_rng(1).uniform(-1, 1, size=(10, 3)))
    runs = []
    for _ in range(2):
        model = init_toy(4, 3, 8, "dae")
        train_toy(model, X, sigma=0.3, steps=60, batch=5, lr=3e-3, seed=9)
        runs.append([p.copy() for p in model.params])
    for pa, pb in zip(*runs):
        assert np.array_equal(pa, pb)


def _reference_train(model, X, sigma, steps, batch, lr, seed):
    """train_toy as a plain loop: its own loss passes and a per-array Adam."""
    rng = np.random.default_rng(seed)
    val_rows, val_noisy = noisy_rows(X, sigma, batch, rng)
    m = [np.zeros_like(p) for p in model.params]
    v = [np.zeros_like(p) for p in model.params]
    losses, val_losses = [], [model.loss(val_noisy, val_rows, sigma)]
    for t in range(1, steps + 1):
        rows, noisy = noisy_rows(X, sigma, batch, rng)
        loss, grads = model.loss_grads(noisy, rows, sigma)
        losses.append(loss)
        textbook_adam_step(model.params, grads, m, v, t, lr)
        val_losses.append(model.loss(val_noisy, val_rows, sigma))
    return np.array(losses), np.array(val_losses)


@pytest.mark.parametrize("mode", ["dae", "skip"])
@pytest.mark.parametrize("batch, dim, hidden, steps", [
    pytest.param(1, 5, 24, 150, id="1"),
    pytest.param(2, 5, 24, 150, id="2"),
    pytest.param(8, 5, 24, 150, id="8"),
    pytest.param(32, 5, 24, 150, id="32"),
    # the toy-trend benchmark's shape, whose 64 x 96 x 96 product OpenBLAS may split across threads
    pytest.param(32, 8, 96, 40, id="32-dim8-hidden96"),
])
def test_train_toy_matches_reference_loop(mode, batch, dim, hidden, steps):
    X = gaussian_dataset(2, 40, dim, eigvals=np.linspace(1.5, 0.2, dim))
    kwargs = dict(sigma=0.6, steps=steps, batch=batch, lr=5e-3, seed=8)
    runs = []
    for _ in range(2):
        model = init_toy(3, dim, hidden, mode)
        params = model.params
        res = train_toy(model, X, **kwargs)
        # training updates the parameter buffer in place
        assert all(a is b for a, b in zip(model.params, params))
        runs.append([*model.params, res.losses, res.val_losses])
    ref_model = init_toy(3, dim, hidden, mode)
    ref = [*ref_model.params, *_reference_train(ref_model, X, **kwargs)]
    for got, again, want in zip(*runs, ref):
        assert np.array_equal(got, again)
        if batch >= 2:
            assert np.array_equal(got, want)
        else:
            # the stacked pass has 2 rows where the reference has 1 (gemm vs
            # gemv), so only the last bits may differ
            assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


def test_toy_matches_gaussian_loss_on_gaussian_data():
    X = gaussian_dataset(9, 5000, 8, eigvals=np.linspace(2.0, 0.25, 8))
    stats = empirical_stats(X)
    model = init_toy(3, 8, 64, "dae")
    res = train_toy(model, X, sigma=1.0, steps=3000, batch=128, lr=3e-3, seed=6)
    # same held-out draws the trainer used for its validation curve
    rng = np.random.default_rng(6)
    val_rows = X.values[rng.integers(0, X.n_samples, size=128)]
    val_noisy = val_rows + 1.0 * rng.standard_normal(val_rows.shape)
    den = GaussianDenoiser(stats)
    gauss_loss = float(((den.evaluate_batch(val_noisy, 1.0) - val_rows) ** 2)
                       .sum(axis=1).mean())
    assert res.val_losses[-1] <= 1.25 * gauss_loss
    assert res.val_losses[-1] >= 0.5 * gauss_loss


def test_train_validation_errors():
    X = DataMatrix(np.zeros((4, 2)) + 0.1)
    model = init_toy(0, 2, 4, "dae")
    with pytest.raises(ValueRangeError):
        train_toy(model, X, sigma=0.5, steps=10, batch=5, lr=0.1, seed=0)
    with pytest.raises(ValueRangeError):
        train_toy(model, X, sigma=0.0, steps=10, batch=2, lr=0.1, seed=0)
    before = model.flat_params.copy()
    for lr in (-0.01, float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueRangeError, match="lr must be nonnegative and finite"):
            train_toy(model, X, sigma=0.5, steps=10, batch=2, lr=lr, seed=0)
    assert np.array_equal(model.flat_params, before)


def test_train_divergence_carries_step_and_sigma(two_point_data):
    # a step of 1e160 overflows the second step's loss
    model = init_toy(0, 2, 6, "dae")
    with np.errstate(all="ignore"), pytest.raises(DivergenceError) as info:
        train_toy(model, two_point_data, sigma=0.5, steps=5, batch=2, lr=1e160, seed=1)
    assert info.value.step == 1 and info.value.sigma == 0.5


def test_grad_check_fresh_and_trained(rng):
    for mode in ("dae", "skip"):
        model = init_toy(0, 6, 24, mode)
        err = grad_check(model, rng.standard_normal(6), rng.standard_normal(6), 0.7)
        assert err < 1e-4
    y = np.array([[0.3, -0.2, 0.5, 0.1]])
    trained = init_toy(2, 4, 16, "dae")
    train_toy(trained, DataMatrix(y), sigma=0.1, steps=500, batch=1, lr=0.01, seed=5)
    assert grad_check(trained, np.full(4, 0.2), y[0], 0.1) < 1e-4


def test_grad_check_catches_broken_backprop(rng):
    class Broken(ToyDenoiser):
        def loss_grads(self, noisy, target, sigma):
            loss, grads = super().loss_grads(noisy, target, sigma)
            grads[2] = grads[2] * 1.5  # deliberately wrong hidden-layer gradient
            return loss, grads

    base = init_toy(0, 5, 12, "dae")
    broken = Broken([p.copy() for p in base.params], "dae")
    err = grad_check(broken, rng.standard_normal(5), rng.standard_normal(5), 0.8)
    assert err > 1e-2


@pytest.mark.parametrize("n_checks", [0, -3])
def test_grad_check_needs_at_least_one_check(n_checks):
    model = init_toy(1, 3, 6, "dae")
    with pytest.raises(ValueRangeError, match="n_checks"):
        grad_check(model, np.zeros(3), np.zeros(3), 1.0, n_checks=n_checks)


def test_grad_check_degenerate_point_is_finite():
    model = init_toy(1, 3, 6, "dae")
    err = grad_check(model, np.zeros(3), np.zeros(3), 1.0)
    assert np.isfinite(err) and err < 1e-4


def test_skip_identity_coefficients_exact(rng):
    base = init_toy(5, 4, 8, "skip")
    ident = ToyDenoiser([p.copy() for p in base.params], "skip",
                        skip_coefficients=(lambda s: 1.0, lambda s: 0.0))
    X = rng.standard_normal((7, 4))
    assert np.array_equal(ident.evaluate_batch(X, 0.37), X)


def test_skip_mode_blends_network_output(rng):
    model = init_toy(6, 4, 8, "skip")
    x = rng.standard_normal(4)
    sigma = 0.9
    c_skip = model.c_skip(sigma)
    c_out = model.c_out(sigma)
    dae_twin = ToyDenoiser([p.copy() for p in model.params], "dae",
                           sigma_data=model.sigma_data)
    expected = c_skip * x + c_out * dae_twin.evaluate(x, sigma)
    assert np.allclose(model.evaluate(x, sigma), expected, atol=1e-14)


def test_checkpoint_roundtrip_bitwise(tmp_path, rng):
    model = init_toy(7, 5, 10, "skip", sigma_data=0.75)
    train_toy(model, DataMatrix(rng.uniform(-1, 1, size=(8, 5))),
              sigma=0.4, steps=30, batch=4, lr=1e-3, seed=2)
    path = tmp_path / "m.toy1"
    save_toy(model, path)
    back = load_toy(path)
    assert back.mode == "skip" and back.sigma_data == 0.75
    for pa, pb in zip(model.params, back.params):
        assert np.array_equal(pa, pb)
    x = rng.standard_normal(5)
    assert np.array_equal(model.evaluate(x, 0.4), back.evaluate(x, 0.4))


def test_checkpoint_errors(tmp_path):
    bad = tmp_path / "bad.toy1"
    bad.write_bytes(b"NOPE" + bytes(40))
    with pytest.raises(FormatError):
        load_toy(bad)
    truncated = tmp_path / "short.toy1"
    import struct

    truncated.write_bytes(b"TOY1" + bytes([0]) + struct.pack("<II", 3, 4)
                          + struct.pack("<d", 0.5) + bytes(16))
    with pytest.raises(DimensionMismatchError):
        load_toy(truncated)


@pytest.mark.parametrize("count", [0, 5, 7])
def test_params_must_be_six_arrays(count):
    params = init_toy(0, 3, 4, "dae").params
    with pytest.raises(DimensionMismatchError):
        ToyDenoiser([*params, *params][:count], "dae")


def test_params_are_a_tuple_of_views_of_an_owned_buffer():
    given = [p.copy() for p in init_toy(0, 3, 4, "dae").params]
    model = ToyDenoiser(given, "dae")
    twin = model.copy()
    with pytest.raises(TypeError):
        model.params[0] = np.zeros((4, 4))
    for p in model.params:
        assert np.shares_memory(p, model.flat_params)
    model.flat_params += 1.0
    # neither the caller's arrays nor the copy see the update
    for p, g, t in zip(model.params, given, twin.params):
        assert np.array_equal(p, g + 1.0) and np.array_equal(t, g)
        assert not np.shares_memory(g, model.flat_params)
        assert not np.shares_memory(t, model.flat_params)


@pytest.mark.parametrize("noisy, target, error", [
    (np.empty((0, 3)), np.empty((0, 3)), ValueRangeError),
    (np.ones((2, 3)), np.ones((2, 2)), DimensionMismatchError),
    (np.ones((2, 3)), np.ones((3, 3)), DimensionMismatchError),
    (np.ones((2, 3)), np.ones(3), DimensionMismatchError),
    (np.ones((2, 4)), np.ones((2, 4)), DimensionMismatchError),
    (np.ones(3), np.ones(3), DimensionMismatchError),
    (np.array([[1.0, np.nan, 0.0]]), np.ones((1, 3)), ValueRangeError),
], ids=["empty", "target-width", "target-rows", "target-vector", "batch-width", "batch-vector",
        "nan-batch"])
def test_losses_take_the_input_rule_and_a_matching_target(noisy, target, error):
    model = init_toy(0, 3, 4, "dae")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for loss in (model.loss, model.loss_grads):
            with pytest.raises(error):
                loss(noisy, target, 1.0)


@pytest.mark.parametrize("sigma_data", [float("nan"), float("inf"), 0.0, -0.5])
def test_sigma_data_must_be_finite_and_positive(sigma_data):
    with pytest.raises(ValueRangeError, match="sigma_data"):
        init_toy(0, 3, 4, "skip", sigma_data=sigma_data)
