import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from denoiselab import (
    AffineDenoiser,
    DataMatrix,
    Denoiser,
    DistillConfig,
    ExternalDenoiser,
    GaussianDenoiser,
    GaussianStats,
    MultiDeltaDenoiser,
    PerLevelDenoiser,
    affine_denoise,
    closed_form_linear,
    denoiser_to_score,
    distill_linear,
    edm_schedule,
    empirical_stats,
    gaussian_denoise,
    init_toy,
    jacobian_fd,
    linearity_score,
    multi_delta_denoise,
    orthogonality_residual,
    score_batch,
    score_diff,
    train_linear_dsm,
    train_toy,
)
from denoiselab.denoisers import check_count, check_scale
from denoiselab.errors import DimensionMismatchError, ValueRangeError
from denoiselab.synth import cluster_dataset
from denoiselab.toytrainer import grad_check
from denoiselab.verify import suite_memorize, suite_trajectory

from conftest import DATA3, DENOISERS, STATS3, FnDenoiser, echo_child


def test_multi_delta_single_point():
    Y = DataMatrix(np.array([[0.2, -0.4, 0.9]]))
    for sigma in (0.01, 1.0, 100.0):
        out = multi_delta_denoise(Y, np.array([5.0, 5.0, 5.0]), sigma)
        assert np.allclose(out, Y.values[0])


def test_multi_delta_symmetric_midpoint():
    Y = DataMatrix(np.array([[0.0], [2.0]]))
    for sigma in (0.05, 1.0, 50.0):
        assert np.allclose(multi_delta_denoise(Y, np.array([1.0]), sigma), [1.0])


def test_multi_delta_nearest_neighbor_limit():
    Y = DataMatrix(np.array([[0.0], [2.0]]))
    out = multi_delta_denoise(Y, np.array([0.5]), 0.01)
    assert abs(out[0]) < 1e-12


def test_multi_delta_extreme_sigma_is_finite():
    Y = DataMatrix(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    for sigma in (1e-12, 1e12):
        out = multi_delta_denoise(Y, np.array([0.9, -0.9]), sigma)
        assert np.all(np.isfinite(out))


def test_multi_delta_high_noise_limit_is_mean(rng):
    Y = DataMatrix(rng.uniform(-1, 1, size=(12, 4)))
    out = multi_delta_denoise(Y, rng.standard_normal(4), 1e6)
    mean = Y.values.mean(axis=0)
    assert np.linalg.norm(out - mean) < 1e-6 * np.linalg.norm(mean)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.integers(1, 4), st.integers(0, 10_000),
       st.floats(0.01, 100.0))
def test_multi_delta_convex_hull_property(n, d, seed, sigma):
    g = np.random.default_rng(seed)
    Y = DataMatrix(g.uniform(-1, 1, size=(n, d)))
    out = multi_delta_denoise(Y, g.uniform(-5, 5, size=d), sigma)
    lo, hi = Y.values.min(axis=0), Y.values.max(axis=0)
    assert np.all(out >= lo - 1e-9) and np.all(out <= hi + 1e-9)


def test_multi_delta_errors(two_point_data):
    den = MultiDeltaDenoiser(two_point_data)
    with pytest.raises(ValueRangeError):
        den.evaluate(np.array([np.inf, 0.0]), 1.0)
    with pytest.raises(ValueRangeError):
        den.evaluate(np.array([0.0, 0.0]), 0.0)


def test_gaussian_denoise_hand_value(two_point_stats):
    out = gaussian_denoise(two_point_stats, np.array([2.0, 3.0]), 1.0)
    assert np.allclose(out, [1.0, 0.0], atol=1e-12)


def test_gaussian_denoise_limits(two_point_stats):
    # sigma -> infinity collapses to the mean
    out = gaussian_denoise(two_point_stats, np.array([5.0, -3.0]), 1e9)
    assert np.allclose(out, two_point_stats.mean, atol=1e-12)
    # full-rank stats at sigma = 0 are the identity
    rng = np.random.default_rng(1)
    st_full = empirical_stats(DataMatrix(rng.uniform(-1, 1, size=(50, 4))))
    x = rng.standard_normal(4)
    assert np.allclose(gaussian_denoise(st_full, x, 0.0), x, atol=1e-12)


def test_gaussian_denoise_annihilates_orthogonal_component(two_point_stats):
    # component along e2 carries zero eigenvalue
    out = gaussian_denoise(two_point_stats, np.array([0.0, 7.0]), 0.0)
    assert np.allclose(out, [0.0, 0.0], atol=1e-12)


def test_gaussian_denoise_is_affine(rng):
    stats = empirical_stats(DataMatrix(rng.uniform(-1, 1, size=(30, 5))))
    den = GaussianDenoiser(stats)
    for _ in range(10):
        a = rng.uniform(-2, 2)
        x1, x2 = rng.standard_normal(5), rng.standard_normal(5)
        lhs = den.evaluate(a * x1 + (1 - a) * x2, 0.7)
        rhs = a * den.evaluate(x1, 0.7) + (1 - a) * den.evaluate(x2, 0.7)
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_gaussian_denoise_homogeneous_when_centered(two_point_stats, rng):
    den = GaussianDenoiser(two_point_stats)  # mean is exactly zero
    for _ in range(10):
        a = rng.uniform(-3, 3)
        x = rng.standard_normal(2)
        assert np.allclose(den.evaluate(a * x, 1.3), a * den.evaluate(x, 1.3),
                           rtol=1e-12, atol=1e-15)


def test_affine_denoiser_basics(rng):
    d = 3
    den = AffineDenoiser(np.eye(d), np.zeros(d))
    x = np.array([3.0, -1.0, 0.5])
    assert np.array_equal(affine_denoise(den, x), x)
    mu = np.array([0.1, 0.2, 0.3])
    const = AffineDenoiser(np.zeros((d, d)), mu)
    assert np.array_equal(affine_denoise(const, rng.standard_normal(d)), mu)
    with pytest.raises(DimensionMismatchError):
        AffineDenoiser(np.eye(2), np.zeros(3))
    with pytest.raises(ValueRangeError):
        AffineDenoiser(np.full((2, 2), np.nan), np.zeros(2))


def test_affine_matches_gaussian_reduced_basis(rng):
    stats = empirical_stats(DataMatrix(rng.uniform(-1, 1, size=(20, 6))))
    for sigma in (0.3, 1.0, 8.0):
        dense = closed_form_linear(stats, sigma)
        reduced = GaussianDenoiser(stats)
        for _ in range(100):
            x = rng.standard_normal(6) * 3
            gap = affine_denoise(dense, x) - reduced.evaluate(x, sigma)
            assert np.linalg.norm(gap) < 1e-10


def test_score_conversion_values(two_point_stats):
    ident = FnDenoiser(2, lambda x, s: x)
    assert np.array_equal(denoiser_to_score(ident, np.array([4.0, -2.0]), 3.0), [0.0, 0.0])
    mu = np.array([0.5, 0.5])
    const = FnDenoiser(2, lambda x, s: mu)
    out = denoiser_to_score(const, mu + np.array([1.0, 0.0]), 1.0)
    assert np.allclose(out, [-1.0, 0.0])
    st1 = GaussianStats(mean=np.zeros(1), basis=np.ones((1, 1)), eigvals=np.ones(1))
    score = denoiser_to_score(GaussianDenoiser(st1), np.array([2.0]), 1.0)
    assert np.allclose(score, [-1.0])


def test_score_requires_positive_sigma(two_point_stats):
    den = GaussianDenoiser(two_point_stats)
    with pytest.raises(ValueRangeError):
        denoiser_to_score(den, np.zeros(2), 0.0)


def test_gaussian_score_matches_analytic_form(rng):
    Y = rng.uniform(-1, 1, size=(6, 9))  # rank-deficient: 9 dims, 6 rows
    stats = empirical_stats(DataMatrix(Y))
    den = GaussianDenoiser(stats)
    sigma = 0.8
    for _ in range(10):
        x = rng.standard_normal(9)
        centered = x - stats.mean
        proj = centered @ stats.basis
        ortho = centered - stats.basis @ proj
        expected = -(stats.basis @ (proj / (stats.eigvals + sigma**2))) - ortho / sigma**2
        got = denoiser_to_score(den, x, sigma)
        assert np.linalg.norm(got - expected) < 1e-10
    batch = rng.standard_normal((4, 9))
    single = np.stack([denoiser_to_score(den, row, sigma) for row in batch])
    assert np.allclose(score_batch(den, batch, sigma), single)


def test_batch_is_per_row(two_point_data):
    den = MultiDeltaDenoiser(two_point_data)
    X = np.random.default_rng(2).standard_normal((5, 2))
    batch = den.evaluate_batch(X, 0.7)
    rows = np.stack([den.evaluate(row, 0.7) for row in X])
    assert np.allclose(batch, rows, atol=1e-14)


def test_per_level_denoiser_dispatch(two_point_stats):
    lo = AffineDenoiser(np.zeros((2, 2)), np.zeros(2))
    hi = AffineDenoiser(np.eye(2), np.zeros(2))
    table = PerLevelDenoiser({0.1: lo, 10.0: hi})
    x = np.array([1.0, 2.0])
    assert np.array_equal(table.evaluate(x, 0.12), [0.0, 0.0])
    assert np.array_equal(table.evaluate(x, 9.0), x)
    with pytest.raises(ValueRangeError):
        PerLevelDenoiser({})


@pytest.mark.parametrize("level", [np.nan, np.inf, -np.inf, -1.0, 2.0**512])
def test_per_level_denoiser_refuses_a_level_outside_the_sigma_domain(level):
    D = AffineDenoiser(np.eye(2), np.zeros(2))
    with pytest.raises(ValueRangeError, match="sigma must be nonnegative"):
        PerLevelDenoiser({level: D, 1.0: D})


def test_per_level_denoiser_takes_a_level_zero():
    lo = AffineDenoiser(np.zeros((2, 2)), np.zeros(2))
    hi = AffineDenoiser(np.eye(2), np.zeros(2))
    table = PerLevelDenoiser({0: lo, np.float64(1.0): hi})
    x = np.array([1.0, 2.0])
    assert np.array_equal(table.evaluate(x, 0.0), [0.0, 0.0])
    assert np.array_equal(table.evaluate(x, 0.9), x)


def test_denoiser_without_evaluate_batch_raises_not_implemented():
    class Bare(Denoiser):
        dim = 2

    with pytest.raises(NotImplementedError, match="Bare"):
        Bare().evaluate(np.zeros(2), 1.0)
    with pytest.raises(NotImplementedError):
        Bare().evaluate_batch(np.zeros((3, 2)), 1.0)


_CFG = DistillConfig(steps=3, batch=2, lr=0.01, seed=0)

#: every library entry point that takes a noise level, called at sigma s
SIGMA_ENTRY_POINTS = {
    **{name: (lambda s, build=build: build().evaluate_batch(DATA3.values, s))
       for name, build in DENOISERS.items()},
    "shrinkage": lambda s: GaussianDenoiser(STATS3).shrinkage(s),
    "closed_form_linear": lambda s: closed_form_linear(STATS3, s),
    "score_batch": lambda s: score_batch(GaussianDenoiser(STATS3), DATA3.values, s),
    "distill_linear": lambda s: distill_linear(GaussianDenoiser(STATS3), DATA3, s, _CFG),
    "train_linear_dsm": lambda s: train_linear_dsm(DATA3, s, _CFG),
    "orthogonality_residual": lambda s: orthogonality_residual(
        GaussianDenoiser(STATS3), DATA3, s, 4, 0),
    "linearity_score": lambda s: linearity_score(GaussianDenoiser(STATS3), DATA3, s, n_pairs=4),
    "score_diff": lambda s: score_diff(GaussianDenoiser(STATS3), MultiDeltaDenoiser(DATA3),
                                       DATA3, s, n=4),
    "jacobian_fd": lambda s: jacobian_fd(GaussianDenoiser(STATS3), np.zeros(3), s),
    "jacobian_fd-affine": lambda s: jacobian_fd(DENOISERS["affine"](), np.zeros(3), s),
    "train_toy": lambda s: train_toy(init_toy(0, 3, 4), DATA3, s, 2, 2, 1e-3, 0),
    "edm_schedule": lambda s: edm_schedule(0.002, s, 7.0, 10),
}

#: the entry points that take sigma = 0: the Gaussian ones, where the gain is its continuous
#: limit, an affine map, which is fit at one level and only checks the sigma it is called at,
#: and the two that pass sigma on to a denoiser that may take it (a per-level table, a plugin)
TAKE_ZERO = ("shrinkage", "gaussian", "closed_form_linear", "jacobian_fd", "affine",
             "jacobian_fd-affine", "per-level", "external")


@pytest.mark.parametrize("sigma", [np.nan, np.inf, -np.inf, -1.0, 1e155, 2.0**512])
@pytest.mark.parametrize("entry", sorted(SIGMA_ENTRY_POINTS))
def test_every_entry_point_refuses_a_sigma_outside_the_domain(entry, sigma):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no OverflowError, which is not a ValueRangeError
        with pytest.raises(ValueRangeError):
            SIGMA_ENTRY_POINTS[entry](sigma)


@pytest.mark.parametrize("entry", sorted(SIGMA_ENTRY_POINTS))
def test_only_the_gaussian_entry_points_take_sigma_zero(entry):
    if entry in TAKE_ZERO:
        outputs = [SIGMA_ENTRY_POINTS[entry](zero) for zero in (0, 0.0, -0.0, np.float64(0))]
        arrays = [out.weight if entry == "closed_form_linear" else out for out in outputs]
        assert all(a.tobytes() == arrays[0].tobytes() for a in arrays)
    else:
        with pytest.raises(ValueRangeError):
            SIGMA_ENTRY_POINTS[entry](0.0)


#: every library entry point that takes noisy rows, called on a batch X at sigma = 1; the
#: one-row entry points get the batch's first item, so a 1-d batch hands them a scalar
INPUT_ENTRY_POINTS = {
    **{name: (lambda X, build=build: build().evaluate_batch(X, 1.0))
       for name, build in DENOISERS.items()},
    "evaluate": lambda X: GaussianDenoiser(STATS3).evaluate(X[0], 1.0),
    "score_batch": lambda X: score_batch(GaussianDenoiser(STATS3), X, 1.0),
    "denoiser_to_score": lambda X: denoiser_to_score(GaussianDenoiser(STATS3), X[0], 1.0),
}
ONE_ROW = ("evaluate", "denoiser_to_score")

#: batches that are not (k, 3); without the check, some broadcast through a Gaussian or affine map
BAD_SHAPES = {"1-d": np.zeros(3), "3-d": np.zeros((2, 2, 3)), "one-too-wide": np.zeros((2, 4))}


@pytest.mark.parametrize("shape", sorted(BAD_SHAPES))
@pytest.mark.parametrize("entry", sorted(INPUT_ENTRY_POINTS))
def test_every_entry_point_refuses_a_batch_that_is_not_k_by_dim(entry, shape):
    with pytest.raises(DimensionMismatchError):
        INPUT_ENTRY_POINTS[entry](BAD_SHAPES[shape])


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", sorted(INPUT_ENTRY_POINTS))
def test_every_entry_point_refuses_a_non_finite_row(entry, value):
    X = DATA3.values.copy()
    X[0, 1] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueRangeError, match="non-finite input"):
            INPUT_ENTRY_POINTS[entry](X)


@pytest.mark.parametrize("entry", sorted(set(INPUT_ENTRY_POINTS) - set(ONE_ROW)))
def test_every_batch_entry_point_maps_an_empty_batch_to_an_empty_batch(entry):
    assert INPUT_ENTRY_POINTS[entry](np.empty((0, 3))).shape == (0, 3)


def test_a_refused_batch_sends_the_plugin_no_byte(monkeypatch):
    sent, write = [], ExternalDenoiser._write
    monkeypatch.setattr(ExternalDenoiser, "_write",
                        lambda self, data: sent.append(data) or write(self, data))
    child = echo_child()
    for X in [*BAD_SHAPES.values(), np.full((2, 3), np.nan), np.full((1, 3), -np.inf)]:
        with pytest.raises((DimensionMismatchError, ValueRangeError)):
            child.evaluate_batch(X, 1.0)
    assert sent == []
    assert np.array_equal(child.evaluate_batch(DATA3.values, 1.0), DATA3.values)
    assert len(sent) == 1


def test_gaussian_at_sigma_zero_is_the_projection_onto_the_basis():
    den = GaussianDenoiser(STATS3)
    coef = (STATS3.eigvals > 0).astype(np.float64)
    assert den.shrinkage(0.0).tobytes() == coef.tobytes()
    proj = (DATA3.values - STATS3.mean) @ STATS3.basis
    expected = STATS3.mean + (proj * coef) @ STATS3.basis.T
    assert den.evaluate_batch(DATA3.values, 0.0).tobytes() == expected.tobytes()
    weight = (STATS3.basis * coef) @ STATS3.basis.T
    assert closed_form_linear(STATS3, 0.0).weight.tobytes() == weight.tobytes()


@pytest.mark.parametrize("sigma", [1e-200, np.nextafter(2.0**-511, 0)])
def test_score_refuses_a_sigma_whose_square_is_not_a_normal_float(two_point_stats, sigma):
    den = GaussianDenoiser(two_point_stats)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueRangeError, match="finite normal float"):
            denoiser_to_score(den, np.ones(2), sigma)
        assert np.all(np.isfinite(score_batch(den, np.ones((1, 2)), 2.0**-511)))


def test_multi_delta_answers_where_squared_distances_overflow_without_warnings(two_point_data):
    # |x|^2 / sigma^2 overflows in each case, but the scores x.y - |y|^2 / 2 stay finite
    two = MultiDeltaDenoiser(two_point_data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = MultiDeltaDenoiser(DataMatrix(np.zeros((3, 4)))).evaluate_batch(
            np.full((1, 4), 1e5), 1e-150)
        assert np.array_equal(out, np.zeros((1, 4)))
        # along (1, 1) the row (1, 0) is nearer by 2e160; along (0, 1) both are equally near
        assert np.array_equal(two.evaluate_batch(np.full((2, 2), 1e160), 1.0), [[1.0, 0.0]] * 2)
        assert np.array_equal(two.evaluate_batch(np.array([[0.0, 1e160]]), 1.0), [[0.0, 0.0]])
        # x.y itself overflows: no score is finite
        with pytest.raises(ValueRangeError, match="multi-delta logits overflow"):
            MultiDeltaDenoiser(DataMatrix(np.ones((1, 2)))).evaluate_batch(
                np.full((1, 2), 1.7e308), 1.0)


def test_multi_delta_matches_an_extended_precision_softmax_far_from_the_data():
    # |x| = 1e4 at sigma = 100: the squared distances cancel 1e8 against the
    # logit spread of about 1 that sets the weights
    if np.finfo(np.longdouble).nmant <= np.finfo(np.float64).nmant:
        pytest.skip("np.longdouble is no wider than float64 here")
    rng = np.random.default_rng(21)
    Y = rng.uniform(-1.0, 1.0, (64, 16))
    X = rng.standard_normal((8, 16))
    X *= 1e4 / np.linalg.norm(X, axis=1, keepdims=True)
    out = MultiDeltaDenoiser(DataMatrix(Y)).evaluate_batch(X, 100.0)
    Xl, Yl = X.astype(np.longdouble), Y.astype(np.longdouble)
    logits = -((Xl[:, None, :] - Yl[None]) ** 2).sum(axis=2) / (2 * np.longdouble(100.0) ** 2)
    w = np.exp(logits - logits.max(axis=1, keepdims=True))
    ref = (w @ Yl) / w.sum(axis=1, keepdims=True)
    assert w.min() < 0.5 * w.max(axis=1).min()  # the weights are not all alike
    assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(Y))


def test_multi_delta_keeps_its_finite_rows_where_far_logits_overflow():
    # at sigma = 2e-154 the far row's logit -400 / (2 sigma^2) overflows to -inf, a zero weight
    Y = DataMatrix(np.array([[10.0, 0.0], [-10.0, 0.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = MultiDeltaDenoiser(Y).evaluate_batch(Y.values, 2e-154)
    assert np.array_equal(out, Y.values)


#: the Gaussian fit of three points in 4-d: rank 2, so its last eigenvalue is 0
_RANK_2 = empirical_stats(DataMatrix(np.random.default_rng(7).uniform(-1, 1, size=(3, 4))))


@pytest.mark.parametrize("sigma", [0.0, 1e-200, 2.0**-511, 1e-3, 1.0, 1e150])
def test_gaussian_gain_is_bitwise_the_guarded_division(sigma):
    # 1e-200 squares to 0, as sigma = 0 does: the gain of a zero eigenvalue is then 0, not 0 / 0
    lam, basis, mean = _RANK_2.eigvals, _RANK_2.basis, _RANK_2.mean
    assert lam[-1] == 0.0
    denom = lam + sigma**2
    gain = np.divide(lam, denom, out=np.zeros_like(lam), where=denom > 0)
    X = np.random.default_rng(8).uniform(-1, 1, size=(5, 4))
    expected = mean + (((X - mean) @ basis) * gain) @ basis.T
    den = GaussianDenoiser(_RANK_2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert den.shrinkage(sigma).tobytes() == gain.tobytes()
        assert den.evaluate_batch(X, sigma).tobytes() == expected.tobytes()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -1, 0, 2.5, 10.9, np.float64(3.0),
                                   "3", None])
def test_check_count_refuses_what_is_not_an_integer_of_at_least_low(value):
    with pytest.raises(ValueRangeError, match=r"^n must be at least 1, got "):
        check_count("n", value)


@pytest.mark.parametrize("value, low", [(3, 1), (np.int64(3), 1), (np.int32(3), 3), (True, 1),
                                        (0, 0), (2, 2)])
def test_check_count_returns_an_int_of_at_least_low(value, low):
    count = check_count("n", value, low)
    assert type(count) is int and count == value
    with pytest.raises(ValueRangeError, match=f"n must be at least {low + 4}, got "):
        check_count("n", value, low + 4)


@pytest.mark.parametrize("zero", [False, True])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -1.0, -1e-300])
def test_check_scale_refuses_what_is_not_finite_and_positive(value, zero):
    word = "nonnegative" if zero else "positive"
    with pytest.raises(ValueRangeError, match=f"^h must be {word} and finite, got "):
        check_scale("h", value, zero)


def test_check_scale_takes_zero_only_when_told():
    with pytest.raises(ValueRangeError, match="h must be positive and finite, got 0.0"):
        check_scale("h", 0.0)
    assert check_scale("h", 0.0, zero=True) == 0.0


@pytest.mark.parametrize("value", [3, np.int64(3), np.float64(0.5), 5e-324, 1.7e308])
def test_check_scale_returns_a_float(value):
    scale = check_scale("h", value)
    assert type(scale) is float and scale == value


#: every count the library takes, as "function:argument", called with n; the ExternalDenoiser
#: command does not exist, so a count that reached Popen would raise FileNotFoundError
COUNT_ENTRY_POINTS = {
    "DistillConfig:steps": lambda n: DistillConfig(steps=n, batch=2, lr=0.01, seed=0),
    "DistillConfig:batch": lambda n: DistillConfig(steps=3, batch=n, lr=0.01, seed=0),
    "orthogonality_residual:n_samples": lambda n: orthogonality_residual(
        GaussianDenoiser(STATS3), DATA3, 1.0, n, 0),
    "linearity_score:n_pairs": lambda n: linearity_score(GaussianDenoiser(STATS3), DATA3, 1.0,
                                                         n_pairs=n),
    "score_diff:n": lambda n: score_diff(GaussianDenoiser(STATS3), GaussianDenoiser(STATS3),
                                         DATA3, 1.0, n=n),
    "ExternalDenoiser:dim": lambda n: ExternalDenoiser(["no-such-denoiser-command"], dim=n),
    "edm_schedule:n_steps": lambda n: edm_schedule(0.002, 80.0, 7.0, n),
    "init_toy:dim": lambda n: init_toy(0, n, 4),
    "init_toy:hidden": lambda n: init_toy(0, 3, n),
    "train_toy:steps": lambda n: train_toy(init_toy(0, 3, 4), DATA3, 0.5, n, 2, 1e-3, 0),
    "grad_check:n_checks": lambda n: grad_check(init_toy(0, 3, 4), np.zeros(3), np.zeros(3),
                                                0.5, n),
    "suite_memorize:dim": lambda n: suite_memorize(dim=n),
    "suite_memorize:n_samples": lambda n: suite_memorize(n_samples=n),
    "suite_memorize:n_starts": lambda n: suite_memorize(n_starts=n),
    "suite_trajectory:n_seeds": lambda n: suite_trajectory(n_seeds=n),
    "cluster_dataset:n_clusters": lambda n: cluster_dataset(0, 4, 2, n_clusters=n),
}


@pytest.mark.parametrize("value", [0, -1, 2.5, 10.9, "3", np.nan])
@pytest.mark.parametrize("entry", sorted(COUNT_ENTRY_POINTS))
def test_every_count_is_refused_by_the_count_rule(entry, value):
    name = entry.split(":")[1]
    low = 2 if name == "n_steps" else 1
    with pytest.raises(ValueRangeError, match=f"^{name} must be at least {low}, got "):
        COUNT_ENTRY_POINTS[entry](value)


#: every positive scale the library takes, as "function:argument", called with h
SCALE_ENTRY_POINTS = {
    "DistillConfig:lr": lambda h: DistillConfig(steps=3, batch=2, lr=h, seed=0),
    "train_toy:lr": lambda h: train_toy(init_toy(0, 3, 4), DATA3, 0.5, 2, 2, h, 0),
    "init_toy:sigma_data": lambda h: init_toy(0, 3, 4, sigma_data=h),
    "ExternalDenoiser:timeout": lambda h: ExternalDenoiser(["no-such-denoiser-command"], dim=3,
                                                           timeout=h),
    "edm_schedule:rho": lambda h: edm_schedule(0.002, 80.0, h, 10),
    "jacobian_fd:h": lambda h: jacobian_fd(GaussianDenoiser(STATS3), np.zeros(3), 1.0, h=h),
    "suite_memorize:tolerance": lambda h: suite_memorize(tolerance=h),
}
#: a learning rate of 0 trains nothing, which is allowed
SCALE_TAKES_ZERO = ("DistillConfig:lr", "train_toy:lr")


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -1.0, 0.0])
@pytest.mark.parametrize("entry", sorted(SCALE_ENTRY_POINTS))
def test_every_scale_is_refused_by_the_scale_rule(entry, value):
    if value == 0.0 and entry in SCALE_TAKES_ZERO:
        SCALE_ENTRY_POINTS[entry](value)
        return
    word = "nonnegative" if entry in SCALE_TAKES_ZERO else "positive"
    name = entry.split(":")[1]
    with pytest.raises(ValueRangeError, match=f"^{name} must be {word} and finite, got "):
        SCALE_ENTRY_POINTS[entry](value)


def test_a_step_count_that_is_not_an_integer_is_refused_before_any_draw(monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("noisy rows drawn before the arguments were checked")

    monkeypatch.setattr("denoiselab.toytrainer.noisy_rows", no_draw)
    model = init_toy(0, 3, 4)
    before = model.flat_params.copy()
    with pytest.raises(ValueRangeError, match="steps must be at least 1, got 2.5"):
        train_toy(model, DATA3, 0.5, 2.5, 2, 1e-3, 0)
    assert model.flat_params.tobytes() == before.tobytes()
