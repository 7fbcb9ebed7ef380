"""The benchmark's tracer still finds every function it traces in the package.

``perfbench/tracing.py`` wraps functions and methods of denoiselab by name.
A change that renames or moves one of them makes ``Tracer.install`` (or the
lookup of a per-layer metric from ``BENCHMARK.json``) fail here, in the unit
tests, and not only in a benchmark run. The tracer is loaded from its file;
nothing under ``perfbench/`` is changed.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np

import denoiselab as dl
from denoiselab import cli, denoisers, sampler, verify

from conftest import plugin_argv

ROOT = Path(__file__).resolve().parents[1]


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_counts_and_uninstalls(two_point_data):
    tracing = _load_tracing()
    originals = (dl.ode_sample, sampler.ode_sample, cli.ode_sample,
                 denoisers.MultiDeltaDenoiser.__dict__["evaluate_batch"],
                 verify.SUITES["theorem1"])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert dl.ode_sample is not originals[0]
        schedule = dl.edm_schedule(0.1, 1.0, 7.0, 3)
        dl.ode_sample(dl.MultiDeltaDenoiser(two_point_data), schedule, np.ones(2))
    finally:
        tracer.uninstall()
    assert (dl.ode_sample, sampler.ode_sample, cli.ode_sample,
            denoisers.MultiDeltaDenoiser.__dict__["evaluate_batch"],
            verify.SUITES["theorem1"]) == originals

    totals = tracer.phase_totals((0, {}), tracer.mark())
    assert totals["sampler.ode_sample.calls"] == 1
    assert totals["sampler.ode_sample.nfe"] == 3
    assert totals["denoisers.multi_delta.rows"] == 3

    # the bench.* metrics are timings of the harness itself, not spans
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer"] if not m["name"].startswith("bench.")]
    metrics = tracer.per_layer(names, (0, {}), reps=1)
    assert set(metrics) == set(names)


def test_tracer_counts_one_adam_step_per_training_step(two_point_data):
    """``workloads.EXPECTED`` holds ``optim.adam.calls`` to the step count."""
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        model = dl.init_toy(0, 2, 6, "dae")
        dl.train_toy(model, two_point_data, 0.5, steps=7, batch=2, lr=1e-3, seed=1)
        toy = tracer.phase_totals((0, {}), tracer.mark())
        mark = tracer.mark()
        dl.distill_linear(dl.MultiDeltaDenoiser(two_point_data), two_point_data, 0.5,
                          dl.DistillConfig(steps=5, batch=2, lr=1e-2, seed=1))
        distill = tracer.phase_totals(mark, tracer.mark())
    finally:
        tracer.uninstall()
    toy_size = sum(p.size for p in model.params)
    assert toy["optim.adam.calls"] == 7
    assert toy["optim.adam.elements"] == 7 * toy_size
    assert toy["toytrainer.train_toy.steps"] == 7
    assert distill["optim.adam.calls"] == 5
    assert distill["optim.adam.elements"] == 5 * (2 * 2 + 2)


def test_tracer_counts_train_linear_dsm_steps(two_point_data):
    """The tracer reads ``cfg`` as the third argument of ``train_linear_dsm``."""
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        cfg = dl.DistillConfig(steps=9, batch=1, lr=0.1, seed=0, use_adam=False)
        dl.train_linear_dsm(two_point_data, 1.0, cfg)
        totals = tracer.phase_totals((0, {}), tracer.mark())
    finally:
        tracer.uninstall()
    assert totals["distillation.train_linear_dsm.calls"] == 1
    assert totals["distillation.train_linear_dsm.steps"] == cfg.steps


def test_tracer_counts_one_teacher_call_per_block_of_distill_steps(two_point_data):
    """9 steps of 64 rows query the teacher in blocks of 4, 4 and 1 steps."""
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        dl.distill_linear(dl.MultiDeltaDenoiser(two_point_data), two_point_data, 0.5,
                          dl.DistillConfig(steps=9, batch=64, lr=1e-2, seed=1))
        totals = tracer.phase_totals((0, {}), tracer.mark())
    finally:
        tracer.uninstall()
    assert totals["denoisers.multi_delta.calls"] == 3
    assert totals["denoisers.multi_delta.rows"] == 9 * 64
    assert totals["optim.adam.calls"] == 9
    assert totals["distillation.distill_linear.steps"] == 9


def test_traced_cli_sample_counts_one_nfe_per_start_and_step(tmp_path):
    """sample-cli's exact NFE count needs one ``ode_sample`` call per start.

    The tracer counts one NFE per evaluation span under ``ode_sample``, so a
    CLI that sampled all starts in one batched call would read 5, not 15.
    """
    data = tmp_path / "d.csv"
    data.write_text("1.0,0.0\n-1.0,0.0\n")
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main(["sample", "--data", str(data), "--denoiser", "multi-delta",
                         "--count", "3", "--steps", "5", "--out", str(tmp_path / "out")])
        totals = tracer.phase_totals((0, {}), tracer.mark())
    finally:
        tracer.uninstall()
    assert code == 0
    assert totals["sampler.ode_sample.calls"] == 3
    assert totals["sampler.ode_sample.nfe"] == 15
    assert totals["denoisers.multi_delta.rows"] == 15


def test_tracer_counts_every_byte_of_a_plugin_round_trip():
    """``plugin.bytes_*`` hold the whole request frame and the whole reply frame."""
    tracing = _load_tracing()
    k, d = 3, 4
    with dl.ExternalDenoiser(plugin_argv("echo", "--dim", d), dim=d) as plugin:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            mark = tracer.mark()
            plugin.evaluate_batch(np.ones((k, d)), 1.0)
            totals = tracer.phase_totals(mark, tracer.mark())
        finally:
            tracer.uninstall()
    assert totals["plugin.round_trips"] == 1
    assert totals["plugin.bytes_sent"] == 13 + 8 * k * d  # tag, k, sigma and the rows
    assert totals["plugin.bytes_received"] == 5 + 8 * k * d  # tag, k and the rows
