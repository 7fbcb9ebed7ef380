"""Local analysis of denoisers: Jacobians, their SVD, and perturbed sampling.

The Jacobian of a denoiser at a point is its local linear expansion; its
singular triplets show which input directions move the output most. For
affine denoisers the Jacobian is the weight matrix itself (exact up to
rounding), which grounds the finite-difference estimator.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import write_json, write_raw_f64
from .denoisers import ROW_BUDGET, Denoiser, check_dense_dim
from .errors import DimensionMismatchError, ValueRangeError
from .sampler import SigmaSchedule, Trajectory, ode_sample

#: central-difference step balancing truncation vs rounding on [-1, 1] data
DEFAULT_FD_STEP = 1e-4


@dataclass(frozen=True)
class JacobianReport:
    """Top-k singular structure of a denoiser's Jacobian at one point."""

    point: np.ndarray
    sigma: float
    singular_values: np.ndarray
    left: np.ndarray
    right: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.singular_values, dtype=np.float64)
        if np.any(s < 0) or np.any(np.diff(s) > 0):
            raise ValueRangeError("singular values must be nonnegative and descending")
        for name in ("left", "right"):
            U = np.asarray(getattr(self, name), dtype=np.float64)
            if np.any(np.abs(np.linalg.norm(U, axis=0) - 1.0) > 1e-8):
                raise ValueRangeError(f"{name} singular vectors are not unit norm")


def jacobian_fd(D: Denoiser, x: np.ndarray, sigma: float,
                h: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Central finite-difference Jacobian of D at x.

    Column j is (D(x + h e_j) - D(x - h e_j)) / (2 h). Each call evaluates
    the +h and then the -h probes of up to ``ROW_BUDGET // 2`` columns, so
    memory beyond J stays bounded and d <= 128 takes one call. Above that, a
    block may round differently in the denoiser's products than one call of
    all 2d probes, so J can differ from it in the last bits.
    """
    if h <= 0:
        raise ValueRangeError(f"step must be positive, got {h}")
    x = np.asarray(x, dtype=np.float64)
    d = D.dim
    if x.shape != (d,):
        raise DimensionMismatchError(f"point shape {x.shape} != (dim={d},)")
    check_dense_dim(d)
    cols = ROW_BUDGET // 2
    probes = np.empty((2 * min(cols, d), d))
    J = np.empty((d, d), order="F")  # the one-call form's layout: column j is row j of J.T
    for first in range(0, d, cols):
        c = min(cols, d - first)
        block, diag = probes[:2 * c], np.arange(c)
        block[:c] = x + 0.0  # the bits of x + h I off the diagonal: -0.0 becomes 0.0
        block[c:] = x
        block[diag, first + diag] += h
        block[c + diag, first + diag] -= h
        outputs = D.evaluate_batch(block, sigma)
        rows = J.T[first:first + c]
        np.subtract(outputs[:c], outputs[c:], out=rows)
        rows /= 2.0 * h
    if not np.all(np.isfinite(J)):
        raise ValueRangeError("non-finite entries in finite-difference Jacobian")
    return J


def jacobian_svd(J: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Top-k singular triplets of a dense Jacobian, descending.

    Returns (values, left, right) with vectors as d x k column blocks.
    """
    J = np.asarray(J, dtype=np.float64)
    if J.ndim != 2 or J.shape[0] != J.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got {J.shape}")
    if not 1 <= k <= J.shape[0]:
        raise ValueRangeError(f"k={k} out of range for dim {J.shape[0]}")
    U, s, Vt = np.linalg.svd(J)
    if k == J.shape[0]:
        return s, U, Vt.T
    # copies, in the layout of the slices: views would keep all of U and Vt alive
    return s[:k].copy(), U[:, :k].copy(order="K"), Vt[:k].T.copy(order="K")


def jacobian_report(D: Denoiser, x: np.ndarray, sigma: float, k: int,
                    h: float = DEFAULT_FD_STEP) -> JacobianReport:
    """Finite-difference Jacobian at x followed by its top-k SVD."""
    s, left, right = jacobian_svd(jacobian_fd(D, x, sigma, h), k)
    return JacobianReport(point=np.asarray(x, dtype=np.float64), sigma=float(sigma),
                          singular_values=s, left=left, right=right)


def perturb_and_resample(D: Denoiser, schedule: SigmaSchedule, trajectory: Trajectory,
                         step_index: int, direction: np.ndarray,
                         magnitudes: list[float]) -> list[np.ndarray]:
    """Final states after nudging one trajectory state along a unit direction.

    For each magnitude m, sampling resumes from state[step_index] + m *
    direction at that step's noise level and runs through the remaining
    schedule. Magnitude 0 reproduces the unperturbed final state exactly.
    """
    v = np.asarray(direction, dtype=np.float64)
    if v.shape != (D.dim,):
        raise DimensionMismatchError(f"direction shape {v.shape} != (dim={D.dim},)")
    if not abs(np.linalg.norm(v) - 1.0) <= 1e-8:  # a NaN norm fails too
        raise ValueRangeError("perturbation direction must be unit norm")
    if len(trajectory) != schedule.n_steps + 1:
        raise DimensionMismatchError("trajectory does not match the schedule")
    if not 0 <= step_index < schedule.n_steps:
        raise ValueRangeError(
            f"step index {step_index} has no remaining levels to resample")
    rest = schedule.tail(step_index)
    base = trajectory.states[step_index]
    # one start per call: a row of a batched run is not bitwise its one-row run
    return [ode_sample(D, rest, base + m * v).final for m in magnitudes]


def save_jacobian_report(report: JacobianReport, directory: str | Path,
                         prefix: str = "jacobian") -> Path:
    """Write metadata JSON plus raw-f64 blocks for the vector sets.

    The JSON holds sigma, the point, singular values, and the file names of
    the left/right blocks (stored as k x d containers, one vector per row).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    left_file = f"{prefix}_left.f64"
    right_file = f"{prefix}_right.f64"
    write_raw_f64(directory / left_file, report.left.T)
    write_raw_f64(directory / right_file, report.right.T)
    meta = directory / f"{prefix}.json"
    write_json(meta, {
        "sigma": report.sigma,
        "point": [float(v) for v in report.point],
        "singular_values": [float(v) for v in report.singular_values],
        "left_file": left_file,
        "right_file": right_file,
    })
    return meta
