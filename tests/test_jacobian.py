import json
import warnings

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
    ExternalDenoiser,
    empirical_stats,
    init_toy,
    jacobian_fd,
    jacobian_report,
    jacobian_svd,
    ode_sample,
    perturb_and_resample,
    read_raw_f64,
    singular_vector_correlation,
    train_toy,
)
from denoiselab.dataset import noisy_rows
from denoiselab.denoisers import MAX_DENSE_DIM, ROW_BUDGET
from denoiselab.errors import DimensionMismatchError, ValueRangeError
from denoiselab.jacobian import save_jacobian_report
from denoiselab.synth import gaussian_dataset

from conftest import (FnDenoiser, fresh_interpreter, multi_delta_jacobian, one_batch_jacobian,
                      plugin_argv, write_csv)


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


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("sigma", [0.2, 0.5, 1.0, 2.0, 8.0, 80.0])
def test_multi_delta_jacobian_matches_the_posterior_covariance(sigma, seed):
    # measured over seeds 0-9: <= 3.7e-8 of max|J| from sigma = 0.5 up; at sigma = 0.2,
    # where max|J| runs from 2.8e-9 to 8.3, <= 9.6e-6 absolute
    rng = np.random.default_rng(seed)
    Y = DataMatrix(rng.uniform(-1, 1, size=(64, 16)))
    x = rng.uniform(-1, 1, 16)
    J = jacobian_fd(MultiDeltaDenoiser(Y), x, sigma)
    oracle = multi_delta_jacobian(Y, x, sigma)
    band = 3e-5 if sigma < 0.5 else 1e-7 * np.abs(oracle).max()
    assert np.abs(J - oracle).max() <= band


def _local_linearity_distances(seed_set, n_samples, sigma=0.5):
    """Mean distances of a trained toy's Jacobians to the Wiener filter and to the
    multi-delta Jacobians, at 20 noisy points, over the Wiener filter's Frobenius norm."""
    X = gaussian_dataset(100 + seed_set, n_samples, 8, eigvals=np.linspace(2.0, 0.25, 8))
    model = init_toy(7000 + seed_set, 8, 96, "dae")
    train_toy(model, X, sigma, steps=1200, batch=min(n_samples, 32), lr=4e-3,
              seed=7700 + seed_set)
    wiener = closed_form_linear(empirical_stats(X), sigma).weight
    _, points = noisy_rows(X, sigma, 20, np.random.default_rng(53))
    jacobians = [jacobian_fd(model, x, sigma) for x in points]
    to_wiener = np.mean([np.linalg.norm(J - wiener) for J in jacobians])
    to_memorizing = np.mean([np.linalg.norm(J - multi_delta_jacobian(X, x, sigma))
                             for J, x in zip(jacobians, points)])
    return to_wiener / np.linalg.norm(wiener), to_memorizing / np.linalg.norm(wiener)


def test_trained_jacobian_moves_from_the_memorizing_one_to_the_wiener_filter_as_n_grows():
    # the single-level toy of criterion 10, trained at sigma = 0.5; over seed sets 0-9 the
    # distances to Wiener / to multi-delta read 0.98-1.11 / 0.23-0.61 at N = 8 and
    # 0.22-0.24 / 0.75-0.92 at N = 2048; at least two of three seed sets must cross over
    crossed = []
    for seed_set in range(3):
        small_wiener, small_memorizing = _local_linearity_distances(seed_set, 8)
        big_wiener, big_memorizing = _local_linearity_distances(seed_set, 2048)
        crossed.append(bool(small_memorizing < 0.8 < small_wiener
                            and big_wiener < 0.4 < 0.6 < big_memorizing))
    assert sum(crossed) >= 2, crossed


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


#: directions refused at d = 2; a unit scalar or (1,) one would broadcast to a step of m * sqrt(2)
BAD_DIRECTIONS = {"scalar": np.array(1.0), "one-wide": np.array([1.0]),
                  "one-too-wide": np.array([1.0, 0.0, 0.0]), "column": np.array([[1.0], [0.0]]),
                  "nan": np.array([np.nan, 0.0]), "inf": np.array([np.inf, 0.0])}


@pytest.mark.parametrize("case", sorted(BAD_DIRECTIONS))
def test_perturb_refuses_a_direction_that_is_not_a_unit_dim_vector(case):
    den = AffineDenoiser(np.eye(2), np.zeros(2))
    schedule = edm_schedule(0.01, 5.0, 7.0, 4)
    traj = ode_sample(den, schedule, np.ones(2))
    direction = BAD_DIRECTIONS[case]
    error, message = ((ValueRangeError, "unit norm") if direction.shape == (2,)
                      else (DimensionMismatchError, "direction shape"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=message):
            perturb_and_resample(den, schedule, traj, 0, direction, [1.0])


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


def _denoisers(rng, d, n=64):
    X = DataMatrix(rng.uniform(-1, 1, size=(n, d)))
    return {
        "gaussian": GaussianDenoiser(empirical_stats(X)),
        "multi-delta": MultiDeltaDenoiser(X),
        "affine": AffineDenoiser(rng.standard_normal((d, d)) / np.sqrt(d),
                                 rng.standard_normal(d)),
        "toy": init_toy(d, d, 32, "skip"),
    }


class _Recording(FnDenoiser):
    """An identity denoiser that keeps a copy of every batch it gets."""

    def __init__(self, dim):
        super().__init__(dim, lambda x, sigma: x)
        self.batches = []

    def evaluate_batch(self, X, sigma):
        self.batches.append(np.array(X))
        return super().evaluate_batch(X, sigma)


@pytest.mark.parametrize("d", [1, 5, 128, 129, 300])
def test_jacobian_probes_keep_the_one_batch_bits_in_row_budget_blocks(d):
    x = np.linspace(-1.0, 1.0, d)
    x[::2] = -0.0  # x + h I turns these into 0.0 off the diagonal
    den = _Recording(d)
    jacobian_fd(den, x, 1.0)
    assert len(den.batches) == -(-2 * d // ROW_BUDGET)
    assert all(batch.shape[0] <= ROW_BUDGET for batch in den.batches)
    h, eye = 1e-4, np.eye(d)
    plus, minus = x + h * eye, x - h * eye
    cols = ROW_BUDGET // 2
    for first, batch in zip(range(0, d, cols), den.batches):
        want = np.concatenate([plus[first:first + cols], minus[first:first + cols]])
        assert batch.tobytes() == want.tobytes()  # -0.0 and 0.0 told apart


@pytest.mark.parametrize("d", [1, 7, 64, 128])
def test_jacobian_is_bitwise_the_one_batch_form_up_to_d_128(rng, d):
    x = rng.uniform(-1, 1, d)
    for name, den in _denoisers(rng, d).items():
        for sigma in (0.3, 1.0):
            J = jacobian_fd(den, x, sigma)
            ref = one_batch_jacobian(den, x, sigma)
            assert J.tobytes(order="A") == ref.tobytes(order="A"), (name, sigma)
            assert J.flags.f_contiguous == ref.flags.f_contiguous


def test_plugin_jacobian_is_one_request_and_bitwise_the_one_batch_form(tmp_path, rng):
    d = 128
    data = write_csv(tmp_path / "d.csv", rng.uniform(-1, 1, (32, d)))
    command = plugin_argv("multi-delta", "--data", data)
    x = rng.uniform(-1, 1, d)
    with ExternalDenoiser(command, dim=d) as plugin:
        requests = []
        send = plugin._write
        plugin._write = lambda blob: (requests.append(len(blob)), send(blob))
        J = jacobian_fd(plugin, x, 1.0)
        assert requests == [13 + 2 * d * d * 8]
        assert np.array_equal(J, one_batch_jacobian(plugin, x, 1.0))


# Above d = 128 a block of 256 rows may take another BLAS kernel than the one
# call of 2d rows. Measured at sigma = 1 on uniform data in [-1, 1], d in
# {129, 257, 300, 513}, six seeds: the largest gap was 2.2e-11 (multi-delta),
# about 10 units of the probe rounding eps / h = 2.2e-12.
_BLOCK_BAND = 1e-10


@pytest.mark.parametrize("d", [129, 300, 513])
def test_jacobian_blocks_match_the_one_batch_form_within_a_band(rng, d):
    x = rng.uniform(-1, 1, d)
    for name, den in _denoisers(rng, d).items():
        gap = np.max(np.abs(jacobian_fd(den, x, 1.0) - one_batch_jacobian(den, x, 1.0)))
        assert gap <= _BLOCK_BAND, (name, gap)


def test_jacobian_svd_returns_owned_top_k_blocks(rng):
    J = rng.standard_normal((12, 12))
    values, left, right = jacobian_svd(J, 3)
    U, s, Vt = np.linalg.svd(J)
    for block, want in ((values, s[:3]), (left, U[:, :3]), (right, Vt[:3].T)):
        assert block.flags.owndata and block.base is None
        assert block.tobytes(order="A") == want.tobytes(order="A")
        assert block.strides == np.array(want, order="K").strides


def test_jacobian_at_the_dense_cap_grows_the_peak_rss_by_about_j():
    # J is 128 MiB (134 MB). 256-row blocks added 33 MB to it (growth 167 MB,
    # 2 cores, OpenBLAS 0.3.31); the one call of 8192 probe rows grew 791 MB.
    growth, _ = fresh_interpreter(
        "jacobian_fd(den, x, 1.0)",
        setup="import numpy as np\n"
              "from denoiselab import DataMatrix, MultiDeltaDenoiser, jacobian_fd\n"
              "rng = np.random.default_rng(0)\n"
              "den = MultiDeltaDenoiser(DataMatrix(rng.uniform(-1, 1, (64, 4096))))\n"
              "x = rng.uniform(-1, 1, 4096)")
    assert growth < 220
