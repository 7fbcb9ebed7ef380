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
