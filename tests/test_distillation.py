import math

import numpy as np
import pytest

from denoiselab import (
    AffineDenoiser,
    DataMatrix,
    Denoiser,
    DistillConfig,
    ExternalDenoiser,
    GaussianDenoiser,
    GaussianStats,
    MultiDeltaDenoiser,
    closed_form_linear,
    distill_linear,
    empirical_stats,
    init_toy,
    load_affine,
    orthogonality_residual,
    save_affine,
    train_linear_dsm,
    weight_nmse,
)
from denoiselab.denoisers import MAX_DENSE_DIM, ROW_BUDGET
from denoiselab.distillation import augmented_moments
from denoiselab.errors import DimensionMismatchError, DivergenceError, FormatError, ValueRangeError
from denoiselab.synth import gaussian_dataset

from conftest import FnDenoiser, plugin_argv, textbook_distill_linear, textbook_linear_dsm


def test_closed_form_limits(two_point_stats, rng):
    full = empirical_stats(DataMatrix(rng.uniform(-1, 1, size=(40, 4))))
    at_zero = closed_form_linear(full, 0.0)
    assert np.allclose(at_zero.weight, np.eye(4), atol=1e-12)
    assert np.allclose(at_zero.bias, 0.0, atol=1e-12)
    at_inf = closed_form_linear(full, 1e9)
    assert np.allclose(at_inf.weight, 0.0, atol=1e-12)
    assert np.allclose(at_inf.bias, full.mean, atol=1e-9)


def test_closed_form_two_point(two_point_stats):
    den = closed_form_linear(two_point_stats, 1.0)
    assert np.allclose(den.weight, np.diag([0.5, 0.0]), atol=1e-12)
    assert np.allclose(den.bias, [0.0, 0.0], atol=1e-12)


def test_closed_form_weight_is_psd_contraction(rng):
    stats = empirical_stats(DataMatrix(rng.uniform(-1, 1, size=(12, 6))))
    for sigma in (0.0, 0.05, 1.0, 30.0):
        W = closed_form_linear(stats, sigma).weight
        assert np.allclose(W, W.T, atol=1e-12)
        eig = np.linalg.eigvalsh(W)
        assert np.all(eig >= -1e-12) and np.all(eig <= 1 + 1e-12)


def test_closed_form_normal_equations(rng):
    stats = empirical_stats(DataMatrix(rng.uniform(-1, 1, size=(25, 5))))
    cov = stats.covariance()
    for sigma in (0.2, 1.0, 6.0):
        W = closed_form_linear(stats, sigma).weight
        assert np.linalg.norm(W @ (cov + sigma**2 * np.eye(5)) - cov) < 1e-10


def test_distill_recovers_affine_teacher(rng):
    d = 8
    W0 = rng.standard_normal((d, d)) / np.sqrt(d)
    b0 = rng.standard_normal(d) * 0.3
    teacher = AffineDenoiser(W0, b0)
    X = gaussian_dataset(5, 200, d, eigvals=np.linspace(1.5, 0.3, d))
    cfg = DistillConfig(steps=4000, batch=32, lr=5e-3, seed=9)
    fitted, losses = distill_linear(teacher, X, 1.0, cfg)
    assert np.linalg.norm(fitted.weight - W0) / np.linalg.norm(W0) < 1e-3
    assert np.linalg.norm(fitted.bias - b0) / np.linalg.norm(b0) < 1e-3
    assert losses.shape == (4000,)


def test_distill_gaussian_teacher_matches_closed_form(rng):
    X = gaussian_dataset(6, 300, 8, mean=np.full(8, 0.2),
                         eigvals=np.linspace(2.0, 0.3, 8))
    stats = empirical_stats(X)
    teacher = GaussianDenoiser(stats)
    cfg = DistillConfig(steps=5000, batch=64, lr=5e-3, seed=2)
    fitted, _ = distill_linear(teacher, X, 1.0, cfg)
    assert weight_nmse(fitted.weight, closed_form_linear(stats, 1.0).weight) < 0.05


def test_distill_multi_delta_converges_to_wiener(rng):
    # the finite-point-set denoiser is the conditional mean, so its best
    # affine fit is the closed-form solution
    X = gaussian_dataset(7, 128, 6, eigvals=np.linspace(1.5, 0.4, 6))
    stats = empirical_stats(X)
    teacher = MultiDeltaDenoiser(X)
    cfg = DistillConfig(steps=6000, batch=64, lr=5e-3, seed=3)
    fitted, _ = distill_linear(teacher, X, 1.0, cfg)
    assert weight_nmse(fitted.weight, closed_form_linear(stats, 1.0).weight) < 0.05


def test_distill_loss_windows_nonincreasing(rng):
    X = gaussian_dataset(8, 100, 5, eigvals=np.linspace(1.0, 0.3, 5))
    teacher = MultiDeltaDenoiser(X)
    cfg = DistillConfig(steps=3000, batch=32, lr=5e-3, seed=4)
    _, losses = distill_linear(teacher, X, 0.7, cfg)
    windows = losses.reshape(-1, 100).mean(axis=1)
    # noise-floor jitter allowed; systematic increase is not
    assert np.all(windows[1:] <= windows[:-1] * 1.10)
    assert windows[-1] < windows[0]


def test_closed_form_is_global_optimum_of_matching_objective(rng):
    X = gaussian_dataset(9, 64, 4, eigvals=np.linspace(1.2, 0.4, 4))
    stats = empirical_stats(X)
    sigma = 1.0
    teacher = MultiDeltaDenoiser(X)
    best = closed_form_linear(stats, sigma)
    rows = X.values[rng.integers(0, 64, size=4000)]
    noisy = rows + sigma * rng.standard_normal(rows.shape)
    targets = teacher.evaluate_batch(noisy, sigma)

    def objective(den):
        return float(((noisy @ den.weight.T + den.bias - targets) ** 2).sum(axis=1).mean())

    base = objective(best)
    for _ in range(20):
        perturbed = AffineDenoiser(
            best.weight + 0.05 * rng.standard_normal(best.weight.shape),
            best.bias + 0.05 * rng.standard_normal(4))
        assert objective(perturbed) >= base - 1e-6


def test_distill_config_validation():
    with pytest.raises(ValueRangeError):
        DistillConfig(steps=0, batch=1, lr=0.1, seed=0)
    with pytest.raises(ValueRangeError):
        DistillConfig(steps=1, batch=0, lr=0.1, seed=0)
    for lr in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueRangeError):
            DistillConfig(steps=1, batch=1, lr=lr, seed=0)


class _Recording(Denoiser):
    """Pass rows to ``inner`` and record each call's row count.

    ``nan_row`` counts rows over all calls; that row's output is set to NaN.
    ``fail_call`` is (call number, exception): that call raises it.
    """

    def __init__(self, inner, nan_row=None, fail_call=None):
        self.inner, self.dim = inner, inner.dim
        self.nan_row, self.fail_call = nan_row, fail_call
        self.calls = []

    def evaluate_batch(self, X, sigma):
        if self.fail_call is not None and len(self.calls) == self.fail_call[0]:
            raise self.fail_call[1]
        out = self.inner.evaluate_batch(X, sigma)
        if self.nan_row is not None and 0 <= self.nan_row - sum(self.calls) < len(X):
            out[self.nan_row - sum(self.calls), 0] = np.nan
        self.calls.append(len(X))
        return out


@pytest.fixture(scope="module")
def distill_teachers():
    d = 5
    X = gaussian_dataset(12, 40, d, mean=np.full(d, 0.1), eigvals=np.linspace(1.2, 0.3, d))
    r = np.random.default_rng(12)
    echo = ExternalDenoiser(plugin_argv("echo", "--dim", d), dim=d)
    try:
        yield X, {
            "multi-delta": MultiDeltaDenoiser(X),
            "gaussian": GaussianDenoiser(empirical_stats(X)),
            "affine": AffineDenoiser(r.standard_normal((d, d)) / 3, 0.2 * r.standard_normal(d)),
            "toy": init_toy(12, d, 16, "skip"),
            "external-echo": echo,
        }
    finally:
        echo.close()


@pytest.mark.parametrize("batch", [2, 3, 64, 100, 300])
@pytest.mark.parametrize("teacher", ["multi-delta", "gaussian", "affine", "toy", "external-echo"])
def test_distill_block_queries_match_per_step_queries(distill_teachers, teacher, batch):
    # 257 steps leave a partial last block; batch 300 exceeds ROW_BUDGET
    X, teachers = distill_teachers
    for steps in (1, 5, 257):
        cfg = DistillConfig(steps=steps, batch=batch, lr=5e-3, seed=steps + batch)
        W, b, ref_losses = textbook_distill_linear(teachers[teacher], X, 0.7, cfg)
        fitted, losses = distill_linear(teachers[teacher], X, 0.7, cfg)
        assert np.array_equal(fitted.weight, W) and np.array_equal(fitted.bias, b)
        assert np.array_equal(losses, ref_losses)


@pytest.mark.parametrize("batch", [2, 64])
@pytest.mark.parametrize("teacher", ["multi-delta", "gaussian", "affine", "toy"])
def test_distill_plain_sgd_matches_per_step_queries(distill_teachers, teacher, batch):
    X, teachers = distill_teachers
    for steps in (1, 5, 257):
        cfg = DistillConfig(steps=steps, batch=batch, lr=5e-3, seed=steps + batch,
                            use_adam=False)
        W, b, ref_losses = textbook_distill_linear(teachers[teacher], X, 0.7, cfg)
        fitted, losses = distill_linear(teachers[teacher], X, 0.7, cfg)
        assert W is not None
        assert np.array_equal(fitted.weight, W) and np.array_equal(fitted.bias, b)
        assert np.array_equal(losses, ref_losses)
        adam, _ = distill_linear(teachers[teacher], X, 0.7,
                                 DistillConfig(steps=steps, batch=batch, lr=5e-3,
                                               seed=steps + batch))
        assert not np.array_equal(adam.weight, fitted.weight)


# Largest gaps measured at batch 1 between block and per-step queries over 257
# steps (a one-row product rounds differently from a block's; relative to the
# largest reference entry, losses elementwise): W 1.4e-16, b 4.0e-16, losses 7.5e-15.
_B1_BAND = 1e-13


@pytest.mark.parametrize("teacher", ["multi-delta", "gaussian", "affine", "toy"])
def test_distill_batch_one_matches_per_step_queries_to_rounding(distill_teachers, teacher):
    X, teachers = distill_teachers
    cfg = DistillConfig(steps=257, batch=1, lr=5e-3, seed=1)
    W, b, ref_losses = textbook_distill_linear(teachers[teacher], X, 0.7, cfg)
    fitted, losses = distill_linear(teachers[teacher], X, 0.7, cfg)
    assert np.max(np.abs(fitted.weight - W)) <= _B1_BAND * np.max(np.abs(W))
    assert np.max(np.abs(fitted.bias - b)) <= _B1_BAND * np.max(np.abs(b))
    assert np.all(np.abs(losses - ref_losses) <= _B1_BAND * np.abs(ref_losses))
    again, again_losses = distill_linear(teachers[teacher], X, 0.7, cfg)
    assert np.array_equal(again.weight, fitted.weight)
    assert np.array_equal(again_losses, losses)


@pytest.mark.parametrize("steps", [1, 5, 257])
@pytest.mark.parametrize("batch", [1, 3, 64, 100, 300])
def test_distill_queries_the_teacher_once_per_block(distill_teachers, batch, steps):
    X, teachers = distill_teachers
    teacher = _Recording(teachers["affine"])
    distill_linear(teacher, X, 0.7, DistillConfig(steps=steps, batch=batch, lr=5e-3, seed=0))
    per_block = max(1, ROW_BUDGET // batch)
    assert len(teacher.calls) == math.ceil(steps / per_block)
    assert sum(teacher.calls) == steps * batch
    assert all(rows == per_block * batch for rows in teacher.calls[:-1])


@pytest.mark.parametrize("batch", [3, 64])
def test_distill_nan_teacher_row_diverges_at_the_per_step_reference_step(distill_teachers,
                                                                         batch):
    X, teachers = distill_teachers
    per_block = max(1, ROW_BUDGET // batch)
    nan_row = (2 * per_block + 1) * batch + 1  # second step of the third block
    cfg = DistillConfig(steps=4 * per_block, batch=batch, lr=5e-3, seed=2)
    W, ref_step, _ = textbook_distill_linear(
        _Recording(teachers["multi-delta"], nan_row=nan_row), X, 0.7, cfg)
    assert W is None and ref_step == 2 * per_block + 1
    with pytest.raises(DivergenceError) as info:
        distill_linear(_Recording(teachers["multi-delta"], nan_row=nan_row), X, 0.7, cfg)
    assert info.value.step == ref_step
    assert info.value.sigma == 0.7


@pytest.mark.parametrize("error", [OSError(32, "Broken pipe"), ValueRangeError("boom")])
def test_distill_teacher_failure_sets_block_step_and_sigma(distill_teachers, error):
    X, teachers = distill_teachers
    per_block = ROW_BUDGET // 64
    teacher = _Recording(teachers["gaussian"], fail_call=(1, error))
    cfg = DistillConfig(steps=3 * per_block, batch=64, lr=5e-3, seed=3)
    with pytest.raises(type(error)) as info:
        distill_linear(teacher, X, 0.7, cfg)
    exc = info.value
    assert exc is error
    assert exc.step == per_block and exc.sigma == 0.7
    if isinstance(error, OSError):
        assert exc.errno == 32 and str(exc) == "[Errno 32] Broken pipe"
    else:
        assert str(exc) == f"teacher failed in the block from step {per_block} (sigma=0.7): boom"


# Largest gaps measured between train_linear_dsm and the textbook loop over
# 2,000 steps (relative to the largest reference entry; losses elementwise):
# W 7.1e-16, b 7.3e-14 (sigma = 0.1, where b is small), losses 6.3e-14.
_W_BAND, _B_BAND, _LOSS_BAND = 2e-15, 2e-13, 2e-13


def _theorem1_data():
    return gaussian_dataset(0, 2000, 16, mean=np.full(16, 0.5),
                            eigvals=np.linspace(2.0, 0.2, 16))


def _assert_matches_textbook(X, sigma, lr, steps=2000):
    cfg = DistillConfig(steps=steps, batch=1, lr=lr, seed=0, use_adam=False)
    W, b, ref_losses = textbook_linear_dsm(X, sigma, cfg)
    fitted, losses = train_linear_dsm(X, sigma, cfg)
    assert np.max(np.abs(fitted.weight - W)) <= _W_BAND * np.max(np.abs(W), initial=1.0)
    assert np.max(np.abs(fitted.bias - b)) <= _B_BAND * np.max(np.abs(b), initial=0.0)
    assert losses.shape == ref_losses.shape
    assert np.all(np.abs(losses - ref_losses) <= _LOSS_BAND * np.abs(ref_losses))
    return fitted, losses


def _top_curvature(X, sigma):
    return float(np.linalg.eigvalsh(augmented_moments(X, sigma)[0])[-1])


def test_augmented_moments_blocks():
    X = _theorem1_data()
    Y, d, sigma = X.values, X.dim, 0.3
    M, C = augmented_moments(X, sigma)
    second = Y.T @ Y / X.n_samples
    assert np.array_equal(C[:, :d], second)
    assert np.array_equal(C[:, d], Y.mean(axis=0))
    assert np.array_equal(M[:d, :d], second + sigma**2 * np.eye(d))
    assert np.array_equal(M[:d, d], C[:, d]) and np.array_equal(M[d, :d], C[:, d])
    assert M[d, d] == 1.0


@pytest.mark.parametrize("sigma", [0.1, 1.0, 10.0])
def test_train_linear_dsm_matches_textbook_loop_theorem1(sigma):
    X = _theorem1_data()
    _assert_matches_textbook(X, sigma, 0.9 / _top_curvature(X, sigma))


@pytest.mark.parametrize("sigma", [0.5, 1.0])
def test_train_linear_dsm_matches_textbook_loop_two_point(two_point_data, sigma):
    _assert_matches_textbook(two_point_data, sigma, 0.9 / _top_curvature(two_point_data, sigma))


@pytest.mark.parametrize("factor", [1.02, 1.2, 2.05, 3.0, 10.0])
@pytest.mark.parametrize("sigma", [0.1, 1.0, 10.0])
def test_train_linear_dsm_diverges_at_textbook_step(two_point_data, sigma, factor):
    # the Hessian is 2M, so every rate above 1/lambda_max(M) diverges
    for X in (_theorem1_data(), two_point_data):
        cfg = DistillConfig(steps=500, batch=1, lr=factor / _top_curvature(X, sigma),
                            seed=0, use_adam=False)
        W, ref_step, _ = textbook_linear_dsm(X, sigma, cfg)
        assert W is None
        with pytest.raises(DivergenceError) as info:
            train_linear_dsm(X, sigma, cfg)
        assert info.value.step == ref_step


def test_train_linear_dsm_two_point(two_point_data):
    cfg = DistillConfig(steps=500, batch=1, lr=0.2, seed=0, use_adam=False)
    fitted, losses = train_linear_dsm(two_point_data, 1.0, cfg)
    assert np.linalg.norm(fitted.weight - np.diag([0.5, 0.0])) < 1e-2
    assert losses[0] > losses[-1]


def test_train_linear_dsm_zero_lr(two_point_data):
    for X in (two_point_data, _theorem1_data()):
        fitted, losses = _assert_matches_textbook(X, 1.0, 0.0, steps=50)
        assert np.all(fitted.weight == 0.0) and np.all(fitted.bias == 0.0)
        assert np.all(losses == losses[0])


def test_train_linear_dsm_divergence_flagged(two_point_data):
    # curvature L = 2(lambda_max + sigma^2) = 4; any rate above 2/L diverges
    cfg = DistillConfig(steps=200, batch=1, lr=0.8, seed=0, use_adam=False)
    with pytest.raises(DivergenceError) as info:
        train_linear_dsm(two_point_data, 1.0, cfg)
    assert info.value.step is not None
    assert info.value.sigma == 1.0


def test_train_linear_dsm_matches_closed_form(rng):
    X = gaussian_dataset(10, 400, 6, mean=np.full(6, 0.4),
                         eigvals=np.linspace(1.8, 0.3, 6))
    stats = empirical_stats(X)
    cfg = DistillConfig(steps=4000, batch=1, lr=0.2, seed=0, use_adam=False)
    fitted, _ = train_linear_dsm(X, 0.5, cfg)
    exact = closed_form_linear(stats, 0.5)
    assert weight_nmse(fitted.weight, exact.weight) < 1e-6
    assert np.linalg.norm(fitted.bias - exact.bias) < 1e-6


def test_orthogonality_residual_values(rng):
    X = gaussian_dataset(11, 2000, 6, eigvals=np.linspace(3.0, 0.5, 6))
    stats = empirical_stats(X)
    sigma = 0.7
    res = orthogonality_residual(GaussianDenoiser(stats), X, sigma, 10_000, 1)
    assert res < 0.05

    cov = stats.covariance()
    denom = np.linalg.norm(cov + sigma**2 * np.eye(6))
    zero = FnDenoiser(6, lambda x, s: np.zeros_like(x))
    res_zero = orthogonality_residual(zero, X, sigma, 10_000, 1)
    oracle_zero = np.linalg.norm(cov) / denom
    assert abs(res_zero - oracle_zero) < 0.1 * oracle_zero

    ident = FnDenoiser(6, lambda x, s: x)
    res_id = orthogonality_residual(ident, X, sigma, 10_000, 1)
    oracle_id = sigma**2 * np.sqrt(6) / denom
    assert abs(res_id - oracle_id) < 0.15 * oracle_id


def test_affine_checkpoint_roundtrip(tmp_path, rng):
    den = AffineDenoiser(rng.standard_normal((3, 3)), rng.standard_normal(3), sigma=1.5)
    path = tmp_path / "a.aff1"
    save_affine(den, path)
    back = load_affine(path)
    assert np.array_equal(back.weight, den.weight)
    assert np.array_equal(back.bias, den.bias)
    assert back.sigma == 1.5
    x = rng.standard_normal(3)
    assert np.array_equal(back.evaluate(x, 0.0), den.evaluate(x, 0.0))


def test_affine_checkpoint_errors(tmp_path):
    bad = tmp_path / "bad.aff1"
    bad.write_bytes(b"NOPE" + bytes(20))
    with pytest.raises(FormatError):
        load_affine(bad)
    import struct

    short = tmp_path / "short.aff1"
    short.write_bytes(b"AFF1" + struct.pack("<I", 4) + struct.pack("<d", 1.0) + bytes(8))
    with pytest.raises(DimensionMismatchError):
        load_affine(short)


def test_dense_cap_refuses_one_past_max_dim():
    d = MAX_DENSE_DIM + 1
    X = DataMatrix(np.zeros((2, d)))
    stats = GaussianStats(mean=np.zeros(d), basis=np.eye(d, 1), eigvals=np.ones(1))
    cfg = DistillConfig(steps=1, batch=1, lr=0.0, seed=0)
    with pytest.raises(ValueRangeError, match="desk-scale cap"):
        closed_form_linear(stats, 1.0)
    with pytest.raises(ValueRangeError, match="desk-scale cap"):
        distill_linear(MultiDeltaDenoiser(X), X, 1.0, cfg)
    with pytest.raises(ValueRangeError, match="desk-scale cap"):
        train_linear_dsm(X, 1.0, cfg)
