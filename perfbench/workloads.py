"""The benchmark's four workloads, each driving denoiselab's public API.

A workload is built in set-up (inputs generated from the benchmark seed and
written to a temp dir, datasets loaded, stats and denoisers built, plugin
child started) and then runs one fixed unit of work per repetition. ``run``
is the timed part; ``check`` holds each operation to its closed-form oracle
outside the timed part and returns one pass/fail flag per operation. Every
call into the program goes through a module attribute (``dl.ode_sample``),
so the tracer's wrappers see it.

``EXPECTED`` gives, per workload, counts that follow from the workload's
parameters for one unit of work; a traced run must reproduce them exactly.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import sys
from pathlib import Path

import numpy as np

import denoiselab as dl
from denoiselab import cli, synth

#: EDM schedule used by the CLI and the plugin workload
SIGMA_MIN, SIGMA_MAX, RHO = 0.002, 80.0, 7.0


class Workload:
    """Interface: set-up in ``__init__``, ``run`` (timed), ``check``, ``close``."""

    #: operations in one unit of work; ``check`` returns one flag per operation
    ops_per_unit: int

    def __init__(self, seed: int, tmp: Path):
        raise NotImplementedError

    def run(self, rep: int) -> dict:
        raise NotImplementedError

    def check(self, out: dict) -> list[bool]:
        raise NotImplementedError

    def close(self) -> None:
        """Release what set-up started."""


class ToyTrend(Workload):
    """Criterion 10 cut to whole seed sets: per-level toy MLPs, then GL and SD.

    One unit is one seed set: for N in {8, 2048} one model per level of the
    8-level schedule plus one at sigma=1, 48 samples through the per-level
    table, ``gl_score`` and ``score_diff`` against the Gaussian denoiser.
    The seed sets are criterion 10's; every one has a clear margin at the
    seed commit (GL(2048)/GL(8) >= 1.7, SD(8)/SD(2048) >= 1.8), so the
    benchmark seed only picks the set a run starts with.
    """

    SEED_SETS = (0, 1, 2, 3, 4)
    SIZES = (8, 2048)
    DIM, HIDDEN, STEPS, BATCH, LR, DRAWS = 8, 96, 1200, 32, 4e-3, 48
    ops_per_unit = len(SIZES) * 9  # eight levels plus the sigma=1 model

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.schedule = dl.edm_schedule(0.02, 10.0, 7.0, 8)
        eig = np.linspace(2.0, 0.25, self.DIM)
        self.data = {}
        for s in self.SEED_SETS:
            for n in self.SIZES:
                X = synth.gaussian_dataset(100 + s, n, self.DIM, eigvals=eig)
                self.data[s, n] = (X, dl.GaussianDenoiser(dl.empirical_stats(X)))

    def run(self, rep: int) -> dict:
        s = self.SEED_SETS[(self.seed + rep) % len(self.SEED_SETS)]
        out = {}
        for n in self.SIZES:
            X, gauss = self.data[s, n]
            batch = min(n, self.BATCH)
            table = {}
            for j, sigma in enumerate(self.schedule.values):
                model = dl.init_toy(1000 * s + j, self.DIM, self.HIDDEN, "dae")
                dl.train_toy(model, X, float(sigma), steps=self.STEPS, batch=batch,
                             lr=self.LR, seed=2000 * s + j)
                table[float(sigma)] = model
            sampler = dl.PerLevelDenoiser(table)
            finals = np.stack([
                dl.ode_sample(sampler, self.schedule, 10.0 * np.random.default_rng(
                    [s, n, i]).standard_normal(self.DIM)).final
                for i in range(self.DRAWS)])
            gl = dl.gl_score(finals, X).value
            at_one = dl.init_toy(7000 + s, self.DIM, self.HIDDEN, "dae")
            dl.train_toy(at_one, X, 1.0, steps=self.STEPS, batch=batch, lr=self.LR,
                         seed=7700 + s)
            sd = dl.score_diff(at_one, gauss, X, 1.0, n=200, seed=53)
            out[n] = (finals, gl, sd)
        return out

    def check(self, out: dict) -> list[bool]:
        (f_small, gl_small, sd_small), (f_big, gl_big, sd_big) = out[8], out[2048]
        ok = bool(np.all(np.isfinite(f_small)) and np.all(np.isfinite(f_big))
                  and gl_big > gl_small and sd_big < sd_small)
        return [ok] * self.ops_per_unit


class SampleCli(Workload):
    """The quick-tour ``sample`` commands, in process through ``cli.main``.

    Input: a seeded d=64, N=256 CSV in [-1, 1]. First multi-delta sampling
    (64 samples, 200 steps), then Gaussian sampling with the closed-form
    oracle (16 samples, 400 steps) on the same file.
    """

    DIM, ROWS = 64, 256
    MD_COUNT, MD_STEPS, GAUSS_COUNT, GAUSS_STEPS = 64, 200, 16, 400
    ops_per_unit = 2
    #: multi-delta finals must sit on a training row, as in criterion 5
    REPLICA_TOL = 1e-2
    #: twice the documented first-order bound ln(sigma_max/sigma_min)/(4n)
    ORACLE_TOL = 2 * math.log(SIGMA_MAX / SIGMA_MIN) / (4 * GAUSS_STEPS)

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.tmp = tmp
        values = np.random.default_rng(seed).uniform(-1.0, 1.0, (self.ROWS, self.DIM))
        self.csv = tmp / "train.csv"
        with open(self.csv, "w") as fh:
            for row in values:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        self.train = dl.load_dataset(self.csv, "csv").values

    def run(self, rep: int) -> dict:
        base = ["sample", "--data", str(self.csv), "--seed", str(self.seed)]
        md = self.tmp / f"rep{rep}-multi-delta"
        gauss = self.tmp / f"rep{rep}-gaussian"
        codes = (
            cli.main(base + ["--denoiser", "multi-delta", "--count", str(self.MD_COUNT),
                             "--steps", str(self.MD_STEPS), "--out", str(md)]),
            cli.main(base + ["--denoiser", "gaussian", "--oracle",
                             "--count", str(self.GAUSS_COUNT),
                             "--steps", str(self.GAUSS_STEPS), "--out", str(gauss)]),
        )
        return {"codes": codes, "dirs": (md, gauss)}

    def check(self, out: dict) -> list[bool]:
        md, gauss = out["dirs"]
        try:
            finals = np.loadtxt(md / "finals.csv", delimiter=",", skiprows=1,
                                ndmin=2)[:, 1:]
            # one final at a time, so the check allocates no more than the program
            norms = np.linalg.norm(self.train, axis=1)
            md_ok = (out["codes"][0] == 0 and finals.shape[0] == self.MD_COUNT
                     and all(np.min(np.linalg.norm(self.train - f, axis=1) / norms)
                             <= self.REPLICA_TOL for f in finals))
            report = json.loads((gauss / "report.json").read_text())
            gauss_ok = (out["codes"][1] == 0
                        and report["max_final_rel_error"] < self.ORACLE_TOL)
        finally:
            for d in out["dirs"]:
                shutil.rmtree(d, ignore_errors=True)
        return [md_ok, gauss_ok]


class DistillSweep(Workload):
    """Criterion 3's distillation sweep, then ``verify --suite theorem1``.

    ``distill_linear`` of the multi-delta denoiser on
    ``cluster_dataset(42, 64, 16)`` at sigma in {0.5, 1, 4} (6,000 Adam steps
    of 64 rows), each compared with ``closed_form_linear``. The benchmark
    seed drives the distillation noise and the theorem1 data.
    """

    SIGMAS = (0.5, 1.0, 4.0)
    STEPS, BATCH, LR = 6000, 64, 5e-3
    ops_per_unit = len(SIGMAS) + 1
    NMSE_TOL = 0.05

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.X = synth.cluster_dataset(42, 64, 16, n_clusters=2, spread=0.1)
        self.stats = dl.empirical_stats(self.X)
        self.teacher = dl.MultiDeltaDenoiser(self.X)

    def run(self, rep: int) -> dict:
        run_seed = 1000 * self.seed + rep
        nmse = []
        for sigma in self.SIGMAS:
            cfg = dl.DistillConfig(steps=self.STEPS, batch=self.BATCH, lr=self.LR,
                                   seed=run_seed)
            fitted, _ = dl.distill_linear(self.teacher, self.X, sigma, cfg)
            exact = dl.closed_form_linear(self.stats, sigma)
            nmse.append(dl.weight_nmse(fitted.weight, exact.weight))
        with contextlib.redirect_stdout(io.StringIO()) as lines:
            code = cli.main(["verify", "--suite", "theorem1", "--seed", str(run_seed)])
        return {"nmse": nmse, "code": code, "lines": lines.getvalue()}

    def check(self, out: dict) -> list[bool]:
        verify_ok = out["code"] == 0 and "FAIL" not in out["lines"]
        return [v < self.NMSE_TOL for v in out["nmse"]] + [verify_ok]


class PluginSample(Workload):
    """Sampling and Jacobians through one ``denoiselab.plugin_cli gaussian`` child.

    Input: a seeded d=128, N=512 raw-f64 dataset in [-1, 1]. One unit runs
    ``ode_sample`` from 16 single-row starts (200 steps, one round trip per
    step) and ``jacobian_fd`` at four noise levels, each a 256-row, 256 KiB
    request, larger than the 64 KiB pipe buffer. Plugin finals must equal the
    in-process Gaussian denoiser's bit for bit, and the Jacobian's singular
    values must match ``shrinkage(sigma)``.
    """

    DIM, ROWS, STARTS, STEPS = 128, 512, 16, 200
    JACOBIAN_SIGMAS = (0.1, 0.5, 1.0, 4.0)
    ops_per_unit = STARTS + len(JACOBIAN_SIGMAS)
    SV_TOL = 1e-6

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        rng = np.random.default_rng(seed)
        path = tmp / "train.f64"
        dl.write_raw_f64(path, rng.uniform(-1.0, 1.0, (self.ROWS, self.DIM)))
        self.schedule = dl.edm_schedule(SIGMA_MIN, SIGMA_MAX, RHO, self.STEPS)
        self.gauss = dl.GaussianDenoiser(dl.empirical_stats(dl.load_dataset(path, "raw-f64")))
        self.point = rng.uniform(-1.0, 1.0, self.DIM)
        self.plugin = dl.ExternalDenoiser(
            [sys.executable, "-m", "denoiselab.plugin_cli", "gaussian",
             "--data", str(path), "--format", "raw-f64"], dim=self.DIM)

    def _start(self, rep: int, i: int) -> np.ndarray:
        return SIGMA_MAX * np.random.default_rng([self.seed, rep, i]).standard_normal(self.DIM)

    def run(self, rep: int) -> dict:
        finals = [dl.ode_sample(self.plugin, self.schedule, self._start(rep, i)).final
                  for i in range(self.STARTS)]
        singular = [dl.jacobian_svd(dl.jacobian_fd(self.plugin, self.point, sigma),
                                    self.DIM)[0]
                    for sigma in self.JACOBIAN_SIGMAS]
        return {"rep": rep, "finals": finals, "singular": singular}

    def check(self, out: dict) -> list[bool]:
        ok = [np.array_equal(f, dl.ode_sample(self.gauss, self.schedule,
                                              self._start(out["rep"], i)).final)
              for i, f in enumerate(out["finals"])]
        for sigma, s in zip(self.JACOBIAN_SIGMAS, out["singular"]):
            gains = np.sort(self.gauss.shrinkage(sigma))[::-1]
            ok.append(bool(np.max(np.abs(s - gains)) <= self.SV_TOL))
        return ok

    def child_pid(self) -> int:
        """The plugin child's pid; ExternalDenoiser keeps its process private."""
        return self.plugin._proc.pid

    def close(self) -> None:
        self.plugin.close()


WORKLOADS = {
    "toy-trend": ToyTrend,
    "sample-cli": SampleCli,
    "distill-sweep": DistillSweep,
    "plugin-sample": PluginSample,
}

#: exact per-unit counts a traced run must reproduce
EXPECTED = {
    "toy-trend": {
        "sampler.ode_sample.nfe": len(ToyTrend.SIZES) * ToyTrend.DRAWS * 8,
        "optim.adam.calls": ToyTrend.ops_per_unit * ToyTrend.STEPS,
        "plugin.round_trips": 0,
        "denoisers.multi_delta.rows": 0,
    },
    "sample-cli": {
        "sampler.ode_sample.nfe": (SampleCli.MD_COUNT * SampleCli.MD_STEPS
                                   + SampleCli.GAUSS_COUNT * SampleCli.GAUSS_STEPS),
        "optim.adam.calls": 0,
        "plugin.round_trips": 0,
        "denoisers.multi_delta.rows": SampleCli.MD_COUNT * SampleCli.MD_STEPS,
    },
    "distill-sweep": {
        "sampler.ode_sample.nfe": 0,
        "optim.adam.calls": len(DistillSweep.SIGMAS) * DistillSweep.STEPS,
        "plugin.round_trips": 0,
        "denoisers.multi_delta.rows":
            len(DistillSweep.SIGMAS) * DistillSweep.STEPS * DistillSweep.BATCH,
    },
    "plugin-sample": {
        "sampler.ode_sample.nfe": PluginSample.STARTS * PluginSample.STEPS,
        "optim.adam.calls": 0,
        "plugin.round_trips": (PluginSample.STARTS * PluginSample.STEPS
                               + len(PluginSample.JACOBIAN_SIGMAS)),
        "denoisers.multi_delta.rows": 0,
    },
}
