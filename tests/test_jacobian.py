import json

import numpy as np
import pytest

from denoiselab import (
    AffineDenoiser,
    DataMatrix,
    GaussianDenoiser,
    GaussianStats,
    MultiDeltaDenoiser,
    closed_form_linear,
    edm_schedule,
    empirical_stats,
    jacobian_fd,
    jacobian_report,
    jacobian_svd,
    ode_sample,
    perturb_and_resample,
    read_raw_f64,
    singular_vector_correlation,
)
from denoiselab.distillation import MAX_DENSE_DIM
from denoiselab.errors import ValueRangeError
from denoiselab.jacobian import save_jacobian_report


def _distinct_stats(rng, d=8):
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return GaussianStats(mean=np.zeros(d), basis=Q,
                         eigvals=np.linspace(4.0, 0.5, d))


def test_jacobian_of_affine_is_weight(rng):
    W = rng.standard_normal((5, 5))
    den = AffineDenoiser(W, rng.standard_normal(5))
    J = jacobian_fd(den, rng.standard_normal(5), 1.0, h=1e-4)
    assert np.linalg.norm(J - W) < 1e-8


def test_jacobian_of_gaussian_matches_closed_form_and_is_point_free(rng):
    stats = _distinct_stats(rng)
    den = GaussianDenoiser(stats)
    W = closed_form_linear(stats, 1.0).weight
    jacs = [jacobian_fd(den, rng.standard_normal(8), 1.0) for _ in range(5)]
    for J in jacs:
        assert np.linalg.norm(J - W) < 1e-8
    for J in jacs[1:]:
        assert np.linalg.norm(J - jacs[0]) < 1e-8


def test_jacobian_of_multi_delta_vanishes_at_high_noise(rng):
    X = DataMatrix(rng.uniform(-1, 1, size=(10, 4)))
    den = MultiDeltaDenoiser(X)
    J = jacobian_fd(den, rng.standard_normal(4), 1e4)
    assert np.max(np.abs(J)) < 1e-6


def test_jacobian_svd_diagonal():
    values, left, right = jacobian_svd(np.diag([3.0, 2.0, 1.0]), 2)
    assert np.allclose(values, [3.0, 2.0])
    assert np.allclose(np.abs(left), np.eye(3)[:, :2])
    assert np.allclose(np.abs(right), np.eye(3)[:, :2])
    with pytest.raises(ValueRangeError):
        jacobian_svd(np.eye(3), 4)


def test_jacobian_svd_symmetric_left_equals_right(rng):
    stats = _distinct_stats(rng)
    J = jacobian_fd(GaussianDenoiser(stats), rng.standard_normal(8), 0.7)
    values, left, right = jacobian_svd(J, 4)
    assert np.allclose(np.abs((left * right).sum(axis=0)), 1.0, atol=1e-8)


def test_gaussian_jacobian_spectrum_and_vectors(rng):
    stats = _distinct_stats(rng)
    sigma = 1.0
    report = jacobian_report(GaussianDenoiser(stats), rng.standard_normal(8),
                             sigma, k=8)
    expected = stats.eigvals / (stats.eigvals + sigma**2)
    assert np.allclose(report.singular_values, expected, atol=1e-8)
    C = singular_vector_correlation(report.left, stats.basis)
    assert np.all(np.diag(C) > 0.99)


def test_perturb_zero_magnitude_matches_unperturbed(rng):
    X = DataMatrix(rng.uniform(-1, 1, size=(6, 4)))
    den = MultiDeltaDenoiser(X)
    schedule = edm_schedule(0.01, 10.0, 7.0, 8)
    traj = ode_sample(den, schedule, rng.standard_normal(4) * 10)
    v = np.zeros(4)
    v[0] = 1.0
    finals = perturb_and_resample(den, schedule, traj, 3, v, [0.0])
    assert np.array_equal(finals[0], traj.final)


def test_perturb_affine_displacement_linear_in_magnitude(rng):
    W = 0.5 * np.eye(3) + 0.05 * rng.standard_normal((3, 3))
    den = AffineDenoiser(W, rng.standard_normal(3) * 0.1)
    schedule = edm_schedule(0.01, 5.0, 7.0, 6)
    traj = ode_sample(den, schedule, rng.standard_normal(3) * 5)
    v = rng.standard_normal(3)
    v /= np.linalg.norm(v)
    finals = perturb_and_resample(den, schedule, traj, 2, v, [0.5, 1.0, 2.0])
    d1 = finals[1] - traj.final
    d05 = finals[0] - traj.final
    d2 = finals[2] - traj.final
    assert np.linalg.norm(d1 - 2 * d05) < 1e-8
    assert np.linalg.norm(d2 - 2 * d1) < 1e-8


def test_perturb_orthogonal_direction_annihilated(rng):
    Y = rng.uniform(-1, 1, size=(3, 6))  # rank-deficient stats in 6 dims
    stats = empirical_stats(DataMatrix(Y))
    den = GaussianDenoiser(stats)
    schedule = edm_schedule(0.01, 10.0, 7.0, 5)
    traj = ode_sample(den, schedule, rng.standard_normal(6) * 10)
    raw = rng.standard_normal(6)
    v = raw - stats.basis @ (stats.basis.T @ raw)
    v /= np.linalg.norm(v)
    finals = perturb_and_resample(den, schedule, traj, schedule.n_steps - 1, v, [0.7])
    assert np.allclose(finals[0], traj.final, atol=1e-12)


def test_perturb_validation(rng):
    den = AffineDenoiser(np.eye(2), np.zeros(2))
    schedule = edm_schedule(0.01, 5.0, 7.0, 4)
    traj = ode_sample(den, schedule, np.ones(2))
    with pytest.raises(ValueRangeError):
        perturb_and_resample(den, schedule, traj, 0, np.array([2.0, 0.0]), [1.0])
    with pytest.raises(ValueRangeError):
        perturb_and_resample(den, schedule, traj, 4, np.array([1.0, 0.0]), [1.0])


def test_report_validation_and_export(tmp_path, rng):
    stats = _distinct_stats(rng)
    report = jacobian_report(GaussianDenoiser(stats), rng.standard_normal(8), 0.5, k=3)
    assert np.all(np.diff(report.singular_values) <= 0)
    meta_path = save_jacobian_report(report, tmp_path, prefix="jr")
    meta = json.loads(meta_path.read_text())
    assert meta["sigma"] == 0.5
    left = read_raw_f64(tmp_path / meta["left_file"])
    assert left.shape == (3, 8)
    assert np.allclose(left, report.left.T)


def test_jacobian_refuses_one_past_max_dense_dim():
    d = MAX_DENSE_DIM + 1
    den = MultiDeltaDenoiser(DataMatrix(np.zeros((1, d))))
    with pytest.raises(ValueRangeError, match="desk-scale cap"):
        jacobian_fd(den, np.zeros(d), 1.0)
