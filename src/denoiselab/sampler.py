"""Discrete probability-flow ODE sampling and its Gaussian closed form.

Sampling uses the sigma(t) = t convention, under which the first-order
reverse update collapses to a convex combination of the current state and
the denoiser output:

    x_{i+1} = (t_{i+1}/t_i) x_i + (1 - t_{i+1}/t_i) D(x_i; t_i)

with an implicit terminal level 0, where the step returns the denoiser
output at the last positive level. For a Gaussian denoiser the whole
trajectory has a closed form (a per-eigenmode rescaling of the start),
which serves as the integration oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import GaussianStats, write_csv
from .denoisers import Denoiser, check_count, check_scale, check_sigma
from .errors import DimensionMismatchError, ValueRangeError, annotate


@dataclass(frozen=True)
class SigmaSchedule:
    """Strictly decreasing finite positive noise levels with an implicit final 0."""

    sigma_min: float
    sigma_max: float
    rho: float
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1 or values.size < 1:
            raise ValueRangeError("schedule needs at least one level")
        if not (np.all(np.isfinite(values) & (values > 0)) and np.all(np.diff(values) < 0)):
            raise ValueRangeError(
                "schedule levels must be finite, positive and strictly decreasing")
        if values[0] != self.sigma_max or values[-1] != self.sigma_min:
            raise ValueRangeError("schedule endpoints must equal sigma_max / sigma_min exactly")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def n_steps(self) -> int:
        return self.values.size

    def tail(self, start: int) -> "SigmaSchedule":
        """Sub-schedule from level index ``start`` to the end."""
        if not 0 <= start < self.n_steps:
            raise ValueRangeError(f"start index {start} outside schedule")
        v = self.values[start:]
        return SigmaSchedule(sigma_min=float(v[-1]), sigma_max=float(v[0]),
                             rho=self.rho, values=v.copy())


@dataclass(frozen=True)
class Trajectory:
    """States of a sampling run, from sigma_max down to the terminal 0.

    ``states[i]`` holds the (d,) state of one start, or the (k, d) states of
    k starts sampled together, at ``sigmas[i]``.
    """

    sigmas: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        sigmas = np.asarray(self.sigmas, dtype=np.float64)
        states = np.asarray(self.states, dtype=np.float64)
        if states.ndim not in (2, 3) or sigmas.shape != (states.shape[0],):
            raise DimensionMismatchError("trajectory needs one sigma per state row")
        sigmas.setflags(write=False)
        states.setflags(write=False)
        object.__setattr__(self, "sigmas", sigmas)
        object.__setattr__(self, "states", states)

    def __len__(self) -> int:
        return self.sigmas.size

    def __iter__(self):
        return zip(self.sigmas, self.states)

    @property
    def final(self) -> np.ndarray:
        """``states[-1]`` as its own read-only copy, so it keeps no trajectory alive."""
        final = self.states[-1].copy()
        final.setflags(write=False)
        return final


def edm_schedule(sigma_min: float, sigma_max: float, rho: float, n_steps: int) -> SigmaSchedule:
    """Power-law interpolation of noise levels between sigma_max and sigma_min.

    values[i] = (sigma_max^(1/rho) + i/(n-1) * (sigma_min^(1/rho) - sigma_max^(1/rho)))^rho

    sigma_max must stay below 2**512, where sigma^2 overflows, and a rho
    whose powers sigma^(1/rho) overflow is refused.
    """
    if not (0 < sigma_min < sigma_max < np.inf):
        raise ValueRangeError(f"need 0 < sigma_min < sigma_max < inf, got {sigma_min}, {sigma_max}")
    check_sigma(sigma_max)
    check_scale("rho", rho)
    check_count("n_steps", n_steps, low=2)
    try:
        top, bottom = sigma_max ** (1 / rho), sigma_min ** (1 / rho)
    except OverflowError:
        top = math.inf
    if top == math.inf:  # also where 1 / rho itself overflows
        raise ValueRangeError(f"rho={rho} overflows sigma_max^(1/rho)")
    ramp = np.arange(n_steps) / (n_steps - 1)
    values = (top + ramp * (bottom - top)) ** rho
    values[0], values[-1] = sigma_max, sigma_min  # pin endpoints against fp drift
    return SigmaSchedule(sigma_min=sigma_min, sigma_max=sigma_max, rho=rho, values=values)


def _start_rows(x_T: np.ndarray, dim: int) -> np.ndarray:
    """A finite (d,) or (k, d) start with k >= 1 as float64, else a typed error."""
    x_T = np.asarray(x_T, dtype=np.float64)
    if x_T.ndim not in (1, 2) or x_T.shape[-1] != dim or x_T.size == 0:
        raise DimensionMismatchError(
            f"start state shape {x_T.shape} != (dim={dim},) or (k>=1, dim={dim})")
    if not np.isfinite(x_T).all():
        raise ValueRangeError("non-finite start state")
    return x_T


def ode_sample(D: Denoiser, schedule: SigmaSchedule, x_T: np.ndarray) -> Trajectory:
    """Integrate the reverse ODE with first-order (Euler) steps.

    ``x_T`` is one start (d,) or k starts (k, d), all sent to the denoiser in
    one ``evaluate_batch`` call per step. The terminal step to level 0
    returns D evaluated at the last positive level; a non-finite value there
    raises ValueRangeError. A denoiser failure propagates with ``step`` and
    ``sigma`` attributes set on the exception (see ``errors.annotate``).
    """
    x_T = _start_rows(x_T, D.dim)
    sigmas = np.append(schedule.values, 0.0)
    states = np.empty((sigmas.size, *x_T.shape))
    states[0] = x_T
    rows = states.reshape(sigmas.size, -1, D.dim)  # a (n+1, k, d) view of states
    for i, (t, t_next) in enumerate(zip(sigmas[:-1], sigmas[1:])):
        try:
            denoised = D.evaluate_batch(rows[i], float(t))
        except Exception as exc:
            annotate(exc, f"denoiser failed at step {i} (sigma={t})", step=i, sigma=float(t))
            raise
        ratio = t_next / t
        rows[i + 1] = ratio * rows[i] + (1.0 - ratio) * denoised if t_next > 0 else denoised
    if not np.isfinite(rows[-1]).all():  # the last output meets no denoiser input check
        exc = ValueRangeError("non-finite final state")
        annotate(exc, f"denoiser failed at step {i} (sigma={t})", step=i, sigma=float(t))
        raise exc
    return Trajectory(sigmas=sigmas, states=states)


def gaussian_trajectory(stats: GaussianStats, x_T: np.ndarray,
                        schedule: SigmaSchedule) -> Trajectory:
    """Closed-form solution of the reverse ODE under the Gaussian denoiser.

    Each eigencomponent of x_T - mean is scaled by
    sqrt((sigma(t)^2 + eigval) / (sigma(T)^2 + eigval)); the component
    orthogonal to the basis follows the same law with eigval = 0, i.e. a
    plain sigma(t)/sigma(T) decay that vanishes at the terminal level.
    ``x_T`` is one start (d,) or k starts (k, d), as in ``ode_sample``.
    """
    x_T = _start_rows(x_T, stats.dim)
    sigmas = np.append(schedule.values, 0.0)
    sigma_T = sigmas[0]
    lam = stats.eigvals
    centered = x_T.reshape(-1, stats.dim) - stats.mean
    proj = centered @ stats.basis
    ortho = centered - proj @ stats.basis.T
    coef = np.sqrt((sigmas[:, None] ** 2 + lam) / (sigma_T**2 + lam))
    states = np.empty((sigmas.size, *x_T.shape))
    rows = states.reshape(sigmas.size, -1, stats.dim)  # a (n+1, k, d) view of states
    # einsum sums in its own loop: a BLAS product of this size wakes a worker
    # thread that keeps spinning while the caller goes on alone
    np.einsum("nkr,dr->nkd", coef[:, None, :] * proj, stats.basis, out=rows)
    rows += stats.mean
    rows += (sigmas / sigma_T)[:, None, None] * ortho
    states[0] = x_T  # coefficient is exactly 1 at sigma(T)
    return Trajectory(sigmas=sigmas, states=states)


def trajectory_to_csv(traj: Trajectory, path: str | Path) -> None:
    """Write one row per step of one start: step index, sigma, then the state."""
    if traj.states.ndim != 2:
        raise DimensionMismatchError(f"one start per CSV, got states {traj.states.shape}")
    header = ",".join(["step", "sigma"] + [f"x{j}" for j in range(traj.states.shape[1])])
    rows = ([i, float(sigma), *state.tolist()] for i, (sigma, state) in enumerate(traj))
    write_csv(path, header, rows, "\r\n")
