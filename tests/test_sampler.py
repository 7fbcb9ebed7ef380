import csv

import numpy as np
import pytest

from denoiselab import (
    DataMatrix,
    GaussianDenoiser,
    GaussianStats,
    MultiDeltaDenoiser,
    SigmaSchedule,
    empirical_stats,
    edm_schedule,
    gaussian_trajectory,
    ode_sample,
    read_raw_f64,
)
from denoiselab.errors import ValueRangeError
from denoiselab.sampler import trajectory_to_csv, trajectory_to_raw
from denoiselab.synth import gaussian_dataset

from conftest import FnDenoiser

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
    from denoiselab import AffineDenoiser, init_toy

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
    paths = trajectory_to_raw(traj, tmp_path / "steps")
    assert len(paths) == len(traj)
    assert np.array_equal(read_raw_f64(paths[2])[0], traj.states[2])


def test_schedule_tail(two_point_stats):
    schedule = edm_schedule(0.002, 80.0, 7.0, 10)
    tail = schedule.tail(4)
    assert tail.n_steps == 6
    assert tail.sigma_max == schedule.values[4]
    assert np.array_equal(tail.values, schedule.values[4:])
    with pytest.raises(ValueRangeError):
        schedule.tail(10)
