import csv
import tracemalloc
import warnings

import numpy as np
import pytest

from denoiselab import (
    AffineDenoiser,
    DataMatrix,
    GaussianDenoiser,
    GaussianStats,
    MultiDeltaDenoiser,
    SigmaSchedule,
    empirical_stats,
    edm_schedule,
    gaussian_trajectory,
    init_toy,
    ode_sample,
)
from denoiselab.errors import DimensionMismatchError, ValueRangeError
from denoiselab.sampler import Trajectory, trajectory_to_csv
from denoiselab.synth import gaussian_dataset

from conftest import FnDenoiser, euler_gaussian_final

# printed reference levels, each truncated at the precision it was printed with
REFERENCE_LEVELS = ["80.0", "42.415", "21.108", "9.723", "4.06", "1.501",
                    "0.469", "0.116", "0.020", "0.002"]


def _truncate(value: float, decimals: int) -> float:
    scale = 10**decimals
    return np.floor(value * scale) / scale


def test_edm_schedule_reference_levels():
    values = edm_schedule(0.002, 80.0, 7.0, 10).values
    for v, printed in zip(values, REFERENCE_LEVELS):
        decimals = len(printed.split(".")[1])
        assert _truncate(v, decimals) == float(printed), (v, printed)


def test_edm_schedule_endpoints_and_monotonicity():
    two = edm_schedule(0.002, 80.0, 7.0, 2)
    assert two.values[0] == 80.0 and two.values[1] == 0.002
    hundred = edm_schedule(0.002, 80.0, 7.0, 100)
    assert np.all(np.diff(hundred.values) < 0)
    assert hundred.values[0] == 80.0 and hundred.values[-1] == 0.002


def test_edm_schedule_invalid_ranges():
    with pytest.raises(ValueRangeError):
        edm_schedule(80.0, 0.002, 7.0, 10)
    with pytest.raises(ValueRangeError):
        edm_schedule(0.0, 80.0, 7.0, 10)
    with pytest.raises(ValueRangeError):
        edm_schedule(0.002, 80.0, 7.0, 1)
    with pytest.raises(ValueRangeError):
        edm_schedule(0.002, 80.0, -1.0, 10)
    for sigma_max, rho in [(np.inf, 7.0), (np.nan, 7.0), (80.0, np.nan), (80.0, np.inf)]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused before anything is computed
            with pytest.raises(ValueRangeError):
                edm_schedule(0.002, sigma_max, rho, 10)


@pytest.mark.parametrize("sigma_max, rho, message", [
    (1e155, 7.0, "where sigma"),  # sigma_max**2 overflows in the denoisers
    (2.0**512, 7.0, "where sigma"),
    (80.0, 0.001, "overflows sigma_max"),  # 80.0 ** 1000
    (80.0, 1e-200, "overflows sigma_max"),
    (80.0, 1e-320, "overflows sigma_max"),  # 1 / rho is itself infinite
])
def test_edm_schedule_refuses_values_whose_powers_overflow(sigma_max, rho, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueRangeError, match=message):
            edm_schedule(0.002, sigma_max, rho, 10)


def test_edm_schedule_takes_the_largest_squarable_sigma_and_tiny_levels():
    top = np.nextafter(2.0**512, 0)
    assert edm_schedule(0.002, top, 7.0, 5).values[0] == top
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = edm_schedule(1e-200, 80.0, 7.0, 5).values
    assert values[-1] == 1e-200


def test_ode_sample_refuses_a_non_finite_final_state():
    # the last output goes to no denoiser input check, so ode_sample checks it
    den = FnDenoiser(2, lambda x, sigma: x if sigma > 0.01 else np.full(2, np.nan))
    with pytest.raises(ValueRangeError, match="non-finite final state") as info:
        ode_sample(den, edm_schedule(0.002, 80.0, 7.0, 6), np.ones(2))
    assert (info.value.step, info.value.sigma) == (5, 0.002)


def test_multi_delta_sampling_refuses_a_level_whose_square_underflows():
    den = MultiDeltaDenoiser(DataMatrix(np.array([[1.0, 0.0], [-1.0, 0.5]])))
    schedule = edm_schedule(1e-200, 80.0, 7.0, 6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueRangeError, match="finite normal float") as info:
            ode_sample(den, schedule, np.ones(2))
    assert info.value.step == 5


@pytest.mark.parametrize("start_shape", [(128,), (3, 128)])
def test_final_is_an_owned_read_only_copy_of_the_last_state(rng, start_shape):
    X, dens = _builtin_denoisers(rng, 128, 64)
    traj = ode_sample(dens["multi-delta"], edm_schedule(0.002, 80.0, 7.0, 20),
                      80.0 * rng.standard_normal(start_shape))
    final = traj.final
    assert final.shape == start_shape and final.flags.owndata and not final.flags.writeable
    assert not np.shares_memory(final, traj.states)
    assert final.tobytes() == traj.states[-1].tobytes()


def test_kept_finals_do_not_keep_their_trajectories(rng):
    # 16 finals of 200-step runs at d = 128 hold 16 x 201 x 128 x 8 B = 3.3 MB as views
    den = AffineDenoiser(0.5 * np.eye(128), np.zeros(128))
    schedule = edm_schedule(0.002, 80.0, 7.0, 200)
    starts = 80.0 * rng.standard_normal((16, 128))
    tracemalloc.start()
    try:
        finals = [ode_sample(den, schedule, x).final for x in starts]
        live, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(finals) == 16 and live < 100_000


@pytest.mark.parametrize("values", [[np.nan, 1.0], [np.inf, 1.0], [2.0, np.nan, 1.0]])
def test_sigma_schedule_refuses_non_finite_levels(values):
    with pytest.raises(ValueRangeError, match="finite"):
        SigmaSchedule(sigma_min=values[-1], sigma_max=values[0], rho=7.0, values=values)


def test_trajectory_layout(two_point_stats):
    den = GaussianDenoiser(two_point_stats)
    schedule = edm_schedule(0.01, 10.0, 7.0, 6)
    x_T = np.array([3.0, -2.0])
    traj = ode_sample(den, schedule, x_T)
    assert len(traj) == schedule.n_steps + 1
    assert np.array_equal(traj.states[0], x_T)
    assert traj.sigmas[0] == 10.0 and traj.sigmas[-1] == 0.0
    assert np.all(np.isfinite(traj.states))


def test_ode_isotropic_final_parallel_to_start():
    # isotropic full-rank covariance: the flow is a per-mode scaling, so the
    # closed form keeps the final state parallel to the start
    stats_iso = GaussianStats(mean=np.zeros(3), basis=np.eye(3), eigvals=np.full(3, 2.0))
    den = GaussianDenoiser(stats_iso)
    schedule = edm_schedule(0.002, 20.0, 7.0, 400)
    x_T = np.array([5.0, -1.0, 2.0])
    final = ode_sample(den, schedule, x_T).final
    cos = final @ x_T / (np.linalg.norm(final) * np.linalg.norm(x_T))
    assert cos > 1 - 1e-10
    exact = gaussian_trajectory(stats_iso, x_T, schedule).final
    assert np.linalg.norm(final - exact) / np.linalg.norm(exact) < 2e-2


def test_ode_constant_denoiser():
    y = np.array([0.25, -0.5])
    den = FnDenoiser(2, lambda x, s: y)
    schedule = edm_schedule(0.01, 4.0, 7.0, 5)
    x_T = np.array([4.0, 4.0])
    traj = ode_sample(den, schedule, x_T)
    r = schedule.values[1] / schedule.values[0]
    assert np.allclose(traj.states[1], r * x_T + (1 - r) * y)
    assert np.array_equal(traj.final, y)


def test_ode_single_level_schedule():
    y = np.array([1.0, 1.0])
    den = GaussianDenoiser(empirical_stats(DataMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]))))
    schedule = SigmaSchedule(sigma_min=2.5, sigma_max=2.5, rho=7.0, values=np.array([2.5]))
    traj = ode_sample(den, schedule, y)
    assert np.array_equal(traj.final, den.evaluate(y, 2.5))
    assert len(traj) == 2


def test_ode_denoiser_failure_carries_step_index(two_point_stats):
    calls = {"n": 0}

    def explode(x, sigma):
        calls["n"] += 1
        if calls["n"] == 3:
            raise ValueRangeError("boom")
        return x

    den = FnDenoiser(2, explode)
    schedule = edm_schedule(0.01, 10.0, 7.0, 6)
    with pytest.raises(ValueRangeError, match="step 2"):
        ode_sample(den, schedule, np.zeros(2))


@pytest.mark.parametrize("error", [OSError(32, "Broken pipe"), ValueRangeError("boom")])
def test_ode_denoiser_failure_sets_step_and_sigma(error):
    calls = {"n": 0}

    def explode(x, sigma):
        calls["n"] += 1
        if calls["n"] == 3:
            raise error
        return x

    schedule = edm_schedule(0.01, 10.0, 7.0, 6)
    with pytest.raises(type(error)) as info:
        ode_sample(FnDenoiser(2, explode), schedule, np.zeros(2))
    exc = info.value
    assert exc is error
    assert exc.step == 2 and exc.sigma == float(schedule.values[2])
    if isinstance(error, OSError):
        # structured args stay, so str() and errno are the original ones
        assert exc.errno == 32 and exc.args == (32, "Broken pipe")
        assert str(exc) == "[Errno 32] Broken pipe"
    else:
        assert str(exc) == f"denoiser failed at step 2 (sigma={schedule.values[2]}): boom"


def test_gaussian_trajectory_endpoints(two_point_stats, rng):
    schedule = edm_schedule(0.002, 80.0, 7.0, 10)
    x_T = rng.standard_normal(2) * 80
    traj = gaussian_trajectory(two_point_stats, x_T, schedule)
    assert np.array_equal(traj.states[0], x_T)
    # large eigenvalues relative to sigma(T): terminal state stays near start
    stats_big = GaussianStats(mean=np.zeros(2), basis=np.eye(2),
                              eigvals=np.array([1e8, 1e7]))
    sched_small = edm_schedule(0.002, 1.0, 7.0, 5)
    x = np.array([2.0, -3.0])
    final = gaussian_trajectory(stats_big, x, sched_small).final
    assert np.allclose(final, x, rtol=1e-6)


def test_gaussian_trajectory_rank_deficient_projection(rng):
    Y = rng.uniform(-1, 1, size=(4, 8))  # positive rank at most 3
    stats = empirical_stats(DataMatrix(Y))
    schedule = edm_schedule(0.002, 80.0, 7.0, 10)
    x_T = rng.standard_normal(8) * 80
    final = gaussian_trajectory(stats, x_T, schedule).final
    # oracle: explicit projection onto the retained basis
    pos = stats.basis[:, stats.eigvals > 0]
    recon = pos @ (pos.T @ (final - stats.mean))
    assert np.allclose(final - stats.mean, recon, atol=1e-10)


def test_euler_error_decreases_and_converges(rng):
    X = gaussian_dataset(3, 256, 16, mean=np.full(16, 0.5),
                         eigvals=np.linspace(2.0, 0.2, 16))
    stats = empirical_stats(X)
    den = GaussianDenoiser(stats)
    x_T = 80.0 * rng.standard_normal(16)
    errors = []
    for n in (10, 50, 200, 400, 4000):
        schedule = edm_schedule(0.002, 80.0, 7.0, n)
        euler = ode_sample(den, schedule, x_T).final
        exact = gaussian_trajectory(stats, x_T, schedule).final
        errors.append(np.linalg.norm(euler - exact) / np.linalg.norm(exact))
    assert np.all(np.diff(errors) < 0)
    assert errors[-1] < 1e-3  # first-order error ~ ln(smax/smin)/(4n)


def test_memorization_smoke(rng):
    X = DataMatrix(rng.uniform(-1, 1, size=(8, 8)))
    den = MultiDeltaDenoiser(X)
    schedule = edm_schedule(0.002, 80.0, 7.0, 100)
    for i in range(10):
        x_T = 80.0 * np.random.default_rng([9, i]).standard_normal(8)
        final = ode_sample(den, schedule, x_T).final
        rel = np.linalg.norm(X.values - final, axis=1) / np.linalg.norm(X.values, axis=1)
        assert rel.min() <= 1e-2


def test_all_builtin_denoisers_yield_finite_trajectories(rng):
    X = DataMatrix(rng.uniform(-1, 1, size=(6, 4)))
    stats = empirical_stats(X)
    denoisers = [
        MultiDeltaDenoiser(X),
        GaussianDenoiser(stats),
        AffineDenoiser(0.5 * np.eye(4), 0.1 * np.ones(4)),
        init_toy(0, 4, 8, "skip"),
    ]
    schedule = edm_schedule(0.002, 80.0, 7.0, 12)
    for den in denoisers:
        traj = ode_sample(den, schedule, 80.0 * rng.standard_normal(4))
        assert np.all(np.isfinite(traj.states)), type(den).__name__


def test_trajectory_exports(tmp_path, two_point_stats):
    den = GaussianDenoiser(two_point_stats)
    schedule = edm_schedule(0.01, 10.0, 7.0, 4)
    traj = ode_sample(den, schedule, np.array([1.0, -1.0]))
    path = tmp_path / "traj.csv"
    trajectory_to_csv(traj, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["step", "sigma", "x0", "x1"]
    assert len(rows) == len(traj) + 1
    back = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
    assert np.array_equal(back[:, 0], traj.sigmas)
    assert np.array_equal(back[:, 1:], traj.states)


def _builtin_denoisers(rng, d, n):
    X = DataMatrix(rng.uniform(-1, 1, size=(n, d)))
    return X, {
        "multi-delta": MultiDeltaDenoiser(X),
        "gaussian": GaussianDenoiser(empirical_stats(X)),
        "affine": AffineDenoiser(0.5 * np.eye(d) + 0.05 * rng.standard_normal((d, d)),
                                 0.1 * np.ones(d)),
        "toy": init_toy(1, d, 16, "skip"),
    }


class _Counting(FnDenoiser):
    """An identity denoiser that records the shape of every batch it gets."""

    def __init__(self, dim):
        super().__init__(dim, lambda x, sigma: x)
        self.shapes = []

    def evaluate_batch(self, X, sigma):
        self.shapes.append(np.shape(X))
        return super().evaluate_batch(X, sigma)


# Largest gap measured between a batched row and its own one-start run, over
# d in {4, 16, 64} and 30 steps: 4.4e-16 of the largest state (affine);
# batched gaussian_trajectory against per-start calls: 7.1e-16.
_BATCH_BAND = 2e-15
_ORACLE_BATCH_BAND = 4e-15


@pytest.mark.parametrize("k", [2, 64])
@pytest.mark.parametrize("d", [4, 16])
def test_batched_ode_sample_matches_per_start_runs(rng, k, d):
    _, dens = _builtin_denoisers(rng, d, 4 * d)
    schedule = edm_schedule(0.002, 80.0, 7.0, 30)
    starts = 80.0 * rng.standard_normal((k, d))
    for name, den in dens.items():
        traj = ode_sample(den, schedule, starts)
        assert traj.states.shape == (schedule.n_steps + 1, k, d)
        assert traj.final.shape == (k, d)
        assert np.array_equal(traj.states[0], starts)
        per = np.stack([ode_sample(den, schedule, x).states for x in starts], axis=1)
        gap = np.max(np.abs(traj.states - per))
        assert gap <= _BATCH_BAND * np.max(np.abs(per)), (name, gap)


def test_one_row_start_is_bitwise_the_vector_start(rng):
    _, dens = _builtin_denoisers(rng, 6, 20)
    schedule = edm_schedule(0.002, 80.0, 7.0, 25)
    x_T = 80.0 * rng.standard_normal(6)
    for name, den in dens.items():
        vector = ode_sample(den, schedule, x_T)
        row = ode_sample(den, schedule, x_T[None, :])
        assert vector.states.shape == (26, 6) and row.states.shape == (26, 1, 6)
        assert np.array_equal(row.states[:, 0], vector.states), name
        assert np.array_equal(row.sigmas, vector.sigmas)


@pytest.mark.parametrize("shape", [(0, 3), (2, 4), (4,), (2, 2, 3), ()])
def test_bad_start_shapes_raise_before_any_denoiser_call(shape):
    den = _Counting(3)
    schedule = edm_schedule(0.01, 10.0, 7.0, 5)
    with pytest.raises(DimensionMismatchError):
        ode_sample(den, schedule, np.ones(shape))
    assert den.shapes == []
    stats = GaussianStats(mean=np.zeros(3), basis=np.eye(3), eigvals=np.ones(3))
    with pytest.raises(DimensionMismatchError):
        gaussian_trajectory(stats, np.ones(shape), schedule)


@pytest.mark.parametrize("start", [[1.0, np.nan, 0.0], [[1.0, 2.0, 3.0], [np.inf, 0.0, 0.0]]],
                         ids=["nan-vector", "inf-row"])
def test_non_finite_starts_raise_before_any_denoiser_call(start):
    den = _Counting(3)
    schedule = edm_schedule(0.01, 10.0, 7.0, 5)
    stats = GaussianStats(mean=np.zeros(3), basis=np.eye(3), eigvals=np.ones(3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueRangeError, match="non-finite start state") as info:
            ode_sample(den, schedule, np.array(start))
        assert getattr(info.value, "step", None) is None
        with pytest.raises(ValueRangeError, match="non-finite start state"):
            gaussian_trajectory(stats, np.array(start), schedule)
    assert den.shapes == []


@pytest.mark.parametrize("k", [1, 5])
def test_one_k_row_denoiser_call_per_step(k):
    den = _Counting(3)
    schedule = edm_schedule(0.01, 10.0, 7.0, 7)
    traj = ode_sample(den, schedule, np.ones((k, 3)))
    assert den.shapes == [(k, 3)] * schedule.n_steps
    assert traj.states.shape == (schedule.n_steps + 1, k, 3)


def test_batched_failure_carries_step_and_sigma():
    calls = {"n": 0}

    def explode(x, sigma):
        calls["n"] += 1
        if calls["n"] == 7:  # third step, first of three rows
            raise ValueRangeError("boom")
        return x

    schedule = edm_schedule(0.01, 10.0, 7.0, 6)
    with pytest.raises(ValueRangeError) as info:
        ode_sample(FnDenoiser(2, explode), schedule, np.zeros((3, 2)))
    assert info.value.step == 2 and info.value.sigma == float(schedule.values[2])


@pytest.mark.parametrize("k", [2, 20])
def test_batched_gaussian_trajectory_matches_per_start_calls(rng, k):
    X = gaussian_dataset(4, 256, 12, mean=np.full(12, 0.5), eigvals=np.linspace(2.0, 0.2, 12))
    stats = empirical_stats(X)
    schedule = edm_schedule(0.002, 80.0, 7.0, 40)
    starts = 80.0 * rng.standard_normal((k, 12))
    traj = gaussian_trajectory(stats, starts, schedule)
    assert traj.states.shape == (schedule.n_steps + 1, k, 12)
    assert np.array_equal(traj.states[0], starts)
    per = np.stack([gaussian_trajectory(stats, x, schedule).states for x in starts], axis=1)
    assert np.max(np.abs(traj.states - per)) <= _ORACLE_BATCH_BAND * np.max(np.abs(per))


def test_batched_euler_finals_match_the_per_eigenmode_product(rng):
    # as acceptance criterion 4: the Gaussian denoiser is linear, so Euler's
    # finals are a per-eigenmode product of the step factors
    X = gaussian_dataset(3, 512, 24, mean=np.full(24, 0.5), eigvals=np.linspace(2.0, 0.2, 24))
    stats = empirical_stats(X)
    starts = 80.0 * rng.standard_normal((20, 24))
    for n in (10, 400):
        schedule = edm_schedule(0.002, 80.0, 7.0, n)
        euler = ode_sample(GaussianDenoiser(stats), schedule, starts).final
        exact = gaussian_trajectory(stats, starts, schedule).final
        gap = np.linalg.norm(euler - euler_gaussian_final(stats, schedule, starts), axis=1)
        assert np.all(gap < 1e-9 * np.linalg.norm(exact, axis=1))


def test_trajectory_states_must_be_one_or_k_starts():
    sigmas = np.array([1.0, 0.0])
    assert Trajectory(sigmas, np.zeros((2, 3, 4))).final.shape == (3, 4)
    for bad in (np.zeros(2), np.zeros((2, 1, 1, 1)), np.zeros((3, 4))):
        with pytest.raises(DimensionMismatchError):
            Trajectory(sigmas, bad)


def test_trajectory_csv_refuses_a_batched_trajectory(tmp_path):
    traj = ode_sample(_Counting(2), edm_schedule(0.01, 10.0, 7.0, 3), np.ones((2, 2)))
    with pytest.raises(DimensionMismatchError):
        trajectory_to_csv(traj, tmp_path / "t.csv")
    assert not (tmp_path / "t.csv").exists()


def test_schedule_tail(two_point_stats):
    schedule = edm_schedule(0.002, 80.0, 7.0, 10)
    tail = schedule.tail(4)
    assert tail.n_steps == 6
    assert tail.sigma_max == schedule.values[4]
    assert np.array_equal(tail.values, schedule.values[4:])
    with pytest.raises(ValueRangeError):
        schedule.tail(10)
