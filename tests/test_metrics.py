import csv
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from denoiselab import (
    AffineDenoiser,
    DataMatrix,
    GaussianDenoiser,
    MetricSeries,
    MultiDeltaDenoiser,
    closed_form_linear,
    edm_schedule,
    empirical_stats,
    gl_score,
    linearity_score,
    metric_sweep,
    score_diff,
    singular_vector_correlation,
    weight_nmse,
)
from denoiselab.errors import DimensionMismatchError, ValueRangeError
from denoiselab.metrics import level_seed, series_to_csv, series_to_json
from denoiselab.synth import cluster_dataset

from conftest import FnDenoiser


def _linear_denoiser(rng, d):
    W = rng.standard_normal((d, d)) / np.sqrt(d) + 0.5 * np.eye(d)
    return AffineDenoiser(W, np.zeros(d))


def test_linearity_of_linear_map(two_point_data, rng):
    den = _linear_denoiser(rng, 2)
    cos = linearity_score(den, two_point_data, 1.0, variant="cosine")
    assert abs(cos.value - 1.0) < 1e-9 and cos.skipped == 0
    nmse = linearity_score(den, two_point_data, 1.0, variant="nmse")
    assert nmse.value < 1e-9


def test_linearity_of_centered_gaussian_denoiser(two_point_data, two_point_stats):
    den = GaussianDenoiser(two_point_stats)  # mean zero, so the map is linear
    out = linearity_score(den, two_point_data, 0.5, variant="cosine", seed=3)
    assert abs(out.value - 1.0) < 1e-9


def test_linearity_rejects_bad_coefficients(two_point_data, two_point_stats):
    den = GaussianDenoiser(two_point_stats)
    with pytest.raises(ValueRangeError):
        linearity_score(den, two_point_data, 1.0, alpha=1.0, beta=1.0)


@pytest.mark.parametrize("alpha, beta", [(np.nan, 0.5), (0.5, np.nan), (np.nan, np.nan)])
def test_linearity_rejects_nan_coefficients_before_any_call(two_point_data, alpha, beta):
    def never(x, sigma):
        raise AssertionError("denoiser called")

    with pytest.raises(ValueRangeError, match=r"alpha\^2 \+ beta\^2 must be 1"):
        linearity_score(FnDenoiser(2, never), two_point_data, 1.0, alpha=alpha, beta=beta)


def test_linearity_skips_zero_norm_pairs():
    X = DataMatrix(np.array([[1.0, 1.0], [-1.0, -1.0]]))

    def half_dead(x, sigma):
        return x if x[0] > 0 else np.zeros_like(x)

    den = FnDenoiser(2, half_dead)
    out = linearity_score(den, X, 0.5, n_pairs=60, seed=0)
    assert 0 < out.skipped < 60
    assert np.isfinite(out.value)


def test_metrics_need_at_least_one_draw(two_point_data, two_point_stats):
    den = GaussianDenoiser(two_point_stats)
    for n in (0, -1):
        with pytest.raises(ValueRangeError, match=f"n must be at least 1, got {n}"):
            score_diff(den, den, two_point_data, 1.0, n=n)
        with pytest.raises(ValueRangeError, match=f"n_pairs must be at least 1, got {n}"):
            linearity_score(den, two_point_data, 1.0, n_pairs=n)


def test_score_diff_identical_is_zero(two_point_data, two_point_stats):
    den = GaussianDenoiser(two_point_stats)
    for variant in ("rmse", "nmse"):
        assert score_diff(den, den, two_point_data, 1.0, variant=variant) == 0.0


def test_score_diff_constant_offset(two_point_data):
    ident = FnDenoiser(2, lambda x, s: x)
    c = 0.37
    shifted = FnDenoiser(2, lambda x, s: x + c)
    # rmse normalizes by sqrt(d), so a constant offset c per coordinate gives c
    got = score_diff(ident, shifted, two_point_data, 1.0, variant="rmse")
    assert abs(got - c) < 1e-12


def test_score_diff_gaussian_vs_closed_form(rng):
    X = DataMatrix(rng.uniform(-1, 1, size=(20, 5)))
    stats = empirical_stats(X)
    for sigma in (0.3, 2.0):
        diff = score_diff(GaussianDenoiser(stats), closed_form_linear(stats, sigma),
                          X, sigma)
        assert diff < 1e-9


def test_score_diff_rmse_symmetry(rng):
    X = DataMatrix(rng.uniform(-1, 1, size=(10, 3)))
    stats = empirical_stats(X)
    d1 = GaussianDenoiser(stats)
    d2 = MultiDeltaDenoiser(X)
    a = score_diff(d1, d2, X, 0.8, seed=11, variant="rmse")
    b = score_diff(d2, d1, X, 0.8, seed=11, variant="rmse")
    assert a == b


def test_gl_score_values():
    Y = DataMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
    subset = gl_score(Y.values.copy(), Y)
    assert subset.value == 0.0 and subset.skipped == 0
    single = gl_score(np.array([[2.0, 0.0]]), DataMatrix(np.array([[1.0, 0.0]])))
    assert single.value == 0.5


def test_gl_score_skips_zero_norm_and_breaks_ties_low():
    Y = DataMatrix(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    out = gl_score(np.array([[0.0, 0.0], [1.0, 0.0]]), Y)
    assert out.skipped == 1 and out.value == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_gl_score_refuses_non_finite_samples_without_warnings(bad):
    # a NaN was once skipped as a zero norm and an infinity gave a NaN value
    Y = DataMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueRangeError, match="non-finite sample"):
            gl_score(np.array([[1.0, 0.0], [bad, 0.0]]), Y)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 5000))
def test_gl_score_permutation_invariance(seed):
    g = np.random.default_rng(seed)
    Y = g.uniform(-1, 1, size=(12, 4))
    samples = g.uniform(-1, 1, size=(5, 4)) + 0.01
    a = gl_score(samples, DataMatrix(Y)).value
    b = gl_score(samples, DataMatrix(Y[g.permutation(12)])).value
    assert np.isclose(a, b)


def test_weight_nmse_values(rng):
    W = rng.standard_normal((4, 4))
    assert weight_nmse(W, W) == 0.0
    assert np.isclose(weight_nmse(2 * W, W), 1.0)
    with pytest.raises(ValueRangeError):
        weight_nmse(W, np.zeros((4, 4)))
    with pytest.raises(DimensionMismatchError):
        weight_nmse(W, np.zeros((3, 3)))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_weight_nmse_refuses_non_finite_weights(rng, value):
    W = rng.standard_normal((2, 2))
    bad = W.copy()
    bad[1, 0] = value
    for W1, W2 in ((W, bad), (bad, W), (np.eye(2), np.full((2, 2), value))):
        with pytest.raises(ValueRangeError, match="non-finite weight matrix"):
            weight_nmse(W1, W2)


def test_singular_vector_correlation_identity_and_permutation(rng):
    Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    U = Q[:, :4]
    assert np.allclose(singular_vector_correlation(U, U), np.eye(4), atol=1e-12)
    perm = U[:, [2, 0, 3, 1]]
    C = singular_vector_correlation(U, perm)
    assert np.allclose(np.sort(C, axis=0)[-1], 1.0)
    assert np.isclose(C.sum(), 4.0)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_singular_vector_correlation_refuses_a_non_finite_column(value):
    bad = np.array([[1.0, value], [0.0, 1.0]])
    for U1, U2 in ((bad, np.eye(2)), (np.eye(2), bad), (np.array([[value]]), np.array([[1.0]]))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueRangeError, match="non-finite entry"):
                singular_vector_correlation(U1, U2)


def test_singular_vector_correlation_normalizes_with_warning(rng):
    Q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    U = Q[:, :2]
    with pytest.warns(UserWarning):
        C = singular_vector_correlation(3.0 * U, U)
    assert np.allclose(C, np.eye(2), atol=1e-12)


def test_closed_form_eigvectors_match_stats_basis(rng):
    X = cluster_dataset(12, 48, 8, n_clusters=3, spread=0.15)
    stats = empirical_stats(X)
    W = closed_form_linear(stats, 1.0).weight
    U, _, _ = np.linalg.svd(W)
    k = 3  # leading, well-separated components
    C = singular_vector_correlation(U[:, :k], stats.basis[:, :k])
    assert np.all(np.diag(C) > 0.9)


def test_metric_sweep_zero_and_one_series(two_point_data, two_point_stats):
    schedule = edm_schedule(0.002, 80.0, 7.0, 10)
    den = GaussianDenoiser(two_point_stats)
    zero = metric_sweep(lambda s, seed: score_diff(den, den, two_point_data, s, seed=seed),
                        schedule, master_seed=0, name="self-diff")
    assert all(v == 0.0 for v in zero.values)
    ones = metric_sweep(
        lambda s, seed: linearity_score(den, two_point_data, s, seed=seed),
        schedule, master_seed=0, name="linearity")
    assert all(abs(v - 1.0) < 1e-9 for v in ones.values)


def test_metric_sweep_multi_delta_vs_gaussian_high_noise_coincide():
    X = cluster_dataset(13, 32, 8, n_clusters=2, spread=0.1)
    stats = empirical_stats(X)
    d1, d2 = MultiDeltaDenoiser(X), GaussianDenoiser(stats)
    schedule = edm_schedule(0.002, 80.0, 7.0, 10)
    series = metric_sweep(
        lambda s, seed: score_diff(d1, d2, X, s, n=200, seed=seed),
        schedule, master_seed=5, name="md-vs-gauss", n_samples=200)
    at = dict(zip(series.sigmas, series.values))
    sigma_mid = min(series.sigmas, key=lambda s: abs(s - 1.501742))
    assert at[80.0] < at[sigma_mid]


def test_metric_sweep_determinism_and_seed_derivation(two_point_data, two_point_stats):
    schedule = edm_schedule(0.01, 10.0, 7.0, 5)
    den = GaussianDenoiser(two_point_stats)

    def metric(s, seed):
        return score_diff(den, MultiDeltaDenoiser(two_point_data), two_point_data,
                          s, seed=seed)

    a = metric_sweep(metric, schedule, master_seed=7)
    b = metric_sweep(metric, schedule, master_seed=7)
    assert a.values == b.values
    assert level_seed(7, 0) != level_seed(7, 1)


def test_metric_sweep_error_carries_sigma(two_point_data, two_point_stats):
    schedule = edm_schedule(0.01, 10.0, 7.0, 3)

    def failing(s, seed):
        raise ValueRangeError("inner failure")

    with pytest.raises(ValueRangeError, match="sigma=10"):
        metric_sweep(failing, schedule, name="broken")


def test_metric_sweep_error_keeps_errno_and_sets_sigma():
    schedule = edm_schedule(0.01, 10.0, 7.0, 3)

    def failing(s, seed):
        if s < 0.1:
            raise OSError(28, "No space left on device")
        return 0.0

    with pytest.raises(OSError) as info:
        metric_sweep(failing, schedule, name="broken")
    exc = info.value
    assert exc.sigma == float(schedule.values[2])
    assert exc.errno == 28 and str(exc) == "[Errno 28] No space left on device"


def test_monte_carlo_metrics_bit_reproducible(two_point_data, two_point_stats):
    den1 = GaussianDenoiser(two_point_stats)
    den2 = MultiDeltaDenoiser(two_point_data)
    a = linearity_score(den2, two_point_data, 0.8, n_pairs=50, seed=21)
    b = linearity_score(den2, two_point_data, 0.8, n_pairs=50, seed=21)
    assert a == b
    assert score_diff(den1, den2, two_point_data, 0.8, n=50, seed=21) \
        == score_diff(den1, den2, two_point_data, 0.8, n=50, seed=21)


def test_series_exports(tmp_path, two_point_data, two_point_stats):
    schedule = edm_schedule(0.01, 10.0, 7.0, 4)
    den = GaussianDenoiser(two_point_stats)
    series = metric_sweep(
        lambda s, seed: linearity_score(den, two_point_data, s, seed=seed),
        schedule, master_seed=3, name="lin", n_samples=100)
    series_to_csv(series, tmp_path / "s.csv")
    with open(tmp_path / "s.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert tuple(float(r["sigma"]) for r in rows) == series.sigmas
    assert tuple(float(r["value"]) for r in rows) == series.values
    series_to_json(series, tmp_path / "s.json")
    import json

    data = json.loads((tmp_path / "s.json").read_text())
    assert data["name"] == "lin" and data["seed"] == 3


def test_series_of_numpy_scalars_round_trips_through_csv(tmp_path):
    series = MetricSeries(name="np", sigmas=tuple(np.array([2.0, 0.5])),
                          values=tuple(np.array([0.25, 1e-300])),
                          n_samples=np.int64(8), seed=np.int64(5))
    series_to_csv(series, tmp_path / "s.csv")
    assert (tmp_path / "s.csv").read_bytes() == \
        b"sigma,value,n,seed\r\n2.0,0.25,8,5\r\n0.5,1e-300,8,5\r\n"
