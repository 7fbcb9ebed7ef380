"""Spans and counts recorded around calls into denoiselab's public API.

The benchmark owns every span; the program is not changed. ``Tracer.install``
replaces each traced function with a wrapper at every name that binds it:
the defining module, each module that imported it by name (``cli``,
``verify``, ``jacobian`` do ``from .sampler import ode_sample`` and the
like), the package namespace and the ``verify.SUITES`` table. Methods are
wrapped once, on their class. ``Tracer.uninstall`` puts every original back
and checks that it did.

A span is (name, start_ns, end_ns, parent index, self_ns), where self time is
the duration minus the time covered by direct child spans. Work counts
(rows, steps, bytes, ...) are recorded at the same boundary, after the call
returns. Everything stays in memory until ``dump``.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

#: request payloads above the pipe buffer size count as large plugin requests
PIPE_BUFFER_BYTES = 64 * 1024


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


# A count function gets the span name, the call's arguments, its result and
# its duration, and returns {metric name: amount} to add to the counts.

def _rows(span, args, kwargs, result, dur_ns):
    return {f"{span}.rows": len(_arg(args, kwargs, 1, "X"))}


def _adam_elements(span, args, kwargs, result, dur_ns):
    return {f"{span}.elements": sum(np.size(g) for g in _arg(args, kwargs, 1, "grads"))}


def _toy_steps(span, args, kwargs, result, dur_ns):
    return {f"{span}.steps": _arg(args, kwargs, 3, "steps")}


def _distill_steps(span, args, kwargs, result, dur_ns):
    return {f"{span}.steps": _arg(args, kwargs, 3, "cfg").steps}


def _dsm_steps(span, args, kwargs, result, dur_ns):
    return {f"{span}.steps": _arg(args, kwargs, 2, "cfg").steps}


def _csv_counts(span, args, kwargs, result, dur_ns):
    return {f"{span}.values": _arg(args, kwargs, 0, "traj").states.size,
            f"{span}.bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


def _handshake(span, args, kwargs, result, dur_ns):
    return {"plugin.handshake_s": dur_ns / 1e9}


def _round_trip(span, args, kwargs, result, dur_ns):
    return {"plugin.round_trips": 1}


def _pipe_bytes(key, size, dur_ns):
    """Bytes through the plugin pipes, and the time spent on large transfers."""
    large = size > PIPE_BUFFER_BYTES
    return {key: size, "plugin.large_bytes": size if large else 0,
            "plugin.large_ns": dur_ns if large else 0}


def _sent(span, args, kwargs, result, dur_ns):
    return _pipe_bytes("plugin.bytes_sent", len(_arg(args, kwargs, 1, "data")), dur_ns)


def _received(span, args, kwargs, result, dur_ns):
    return _pipe_bytes("plugin.bytes_received", len(result), dur_ns)


def _probe_rows(span, args, kwargs, result, dur_ns):
    return {f"{span}.probe_rows": 2 * _arg(args, kwargs, 0, "D").dim}


def _file_bytes(span, args, kwargs, result, dur_ns):
    return {f"{span}.bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


#: (module, attribute or Class.method, span name, count function)
TARGETS = [
    ("toytrainer", "train_toy", "toytrainer.train_toy", _toy_steps),
    ("toytrainer", "ToyDenoiser.loss_grads", "toytrainer.loss_grads", None),
    ("toytrainer", "ToyDenoiser.loss", "toytrainer.loss", None),
    ("toytrainer", "ToyDenoiser.evaluate_batch", "toytrainer.evaluate_batch", _rows),
    ("optim", "Adam.step", "optim.adam", _adam_elements),
    ("denoisers", "MultiDeltaDenoiser.evaluate_batch", "denoisers.multi_delta", _rows),
    ("denoisers", "GaussianDenoiser.evaluate_batch", "denoisers.gaussian", _rows),
    ("sampler", "ode_sample", "sampler.ode_sample", None),
    ("sampler", "gaussian_trajectory", "sampler.gaussian_trajectory", None),
    ("sampler", "trajectory_to_csv", "sampler.trajectory_to_csv", _csv_counts),
    ("distillation", "distill_linear", "distillation.distill_linear", _distill_steps),
    ("distillation", "train_linear_dsm", "distillation.train_linear_dsm", _dsm_steps),
    ("distillation", "closed_form_linear", "distillation.closed_form_linear", None),
    ("plugin", "ExternalDenoiser.__init__", "plugin.handshake", _handshake),
    ("plugin", "ExternalDenoiser.evaluate_batch", "plugin", _round_trip),
    ("plugin", "ExternalDenoiser._write", "plugin.write", _sent),
    ("plugin", "ExternalDenoiser._read", "plugin.read", _received),
    ("jacobian", "jacobian_fd", "jacobian.jacobian_fd", _probe_rows),
    ("jacobian", "jacobian_svd", "jacobian.jacobian_svd", None),
    ("dataset", "load_dataset", "dataset.load_dataset", _file_bytes),
    ("dataset", "empirical_stats", "dataset.empirical_stats", None),
    ("metrics", "gl_score", "metrics.gl_score", None),
    ("metrics", "score_diff", "metrics.score_diff", None),
    ("metrics", "metric_sweep", "metrics.metric_sweep", None),
    ("cli", "cmd_sample", "cli.sample", None),
    ("cli", "cmd_verify", "cli.verify", None),
    ("verify", "suite_theorem1", "verify.suite_theorem1", None),
]

#: spans that are one denoiser evaluation; a direct child of ode_sample is one NFE
EVALUATION_SPANS = {"denoisers.multi_delta", "denoisers.gaussian",
                    "toytrainer.evaluate_batch", "plugin"}


class Tracer:
    """Records spans and counts while installed; restores the API on uninstall."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._stack: list[list[int]] = []
        self._patches: list[tuple] = []

    def _wrap(self, name, fn, count):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [len(spans), 0]  # span index, time covered by children
            spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[name + ".errors"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if parent is not None:
                    parent[1] += dur
                spans[frame[0]] = (name, start, end,
                                   -1 if parent is None else parent[0], dur - frame[1])
            if count is not None:
                for key, amount in count(name, args, kwargs, result, dur).items():
                    counts[key] += amount
            return result

        return functools.update_wrapper(wrapper, fn)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if n == "denoiselab" or n.startswith("denoiselab.")]
        suites = importlib.import_module("denoiselab.verify").SUITES
        for module_name, path, span, count in TARGETS:
            owner = importlib.import_module(f"denoiselab.{module_name}")
            if "." in path:
                cls_name, method = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._patch(cls, method, original, self._wrap(span, original, count))
                continue
            original = getattr(owner, path)
            wrapper = self._wrap(span, original, count)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, original, wrapper)
            for key, value in list(suites.items()):
                if value is original:
                    suites[key] = wrapper
                    self._patches.append((suites, key, original, True))

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original, False))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original, is_item = self._patches.pop()
            if is_item:
                owner[key] = original
                restored = owner[key] is original
            else:
                setattr(owner, key, original)
                restored = (owner.__dict__[key] if isinstance(owner, type)
                            else getattr(owner, key)) is original
            if not restored:
                raise RuntimeError(f"could not restore {owner!r}.{key}")

    def mark(self) -> tuple[int, dict]:
        """Position to split spans and counts into phases (e.g. set-up vs work)."""
        return len(self.spans), dict(self.counts)

    def phase_totals(self, begin: tuple[int, dict], end: tuple[int, dict]) -> dict:
        """Additive per-layer totals (calls, busy, self, counts, NFE) of one phase."""
        totals: defaultdict[str, float] = defaultdict(float)
        for name, start, stop, parent, self_ns in self.spans[begin[0]:end[0]]:
            totals[f"{name}.calls"] += 1
            totals[f"{name}.busy_s"] += (stop - start) / 1e9
            totals[f"{name}.self_s"] += self_ns / 1e9
            if (name in EVALUATION_SPANS and parent >= 0
                    and self.spans[parent][0] == "sampler.ode_sample"):
                totals["sampler.ode_sample.nfe"] += 1
        for key, value in end[1].items():
            totals[key] += value - begin[1].get(key, 0)
        return totals

    def per_layer(self, names: list[str], setup_end: tuple[int, dict],
                  reps: int) -> dict[str, float]:
        """The named per-layer metrics for one set-up plus one unit of work.

        A name is a span name and a stat: ``calls``, ``busy_s``, ``self_s``,
        ``errors``, a per-call percentile ``[prefix]pNN_us`` over every span,
        or a count recorded by a count function (``rows``, ``steps``, ...).
        Additive values are the set-up phase plus the work phase divided by
        the number of traced repetitions. ``plugin.large_mb_per_s`` is the
        pipe throughput of transfers larger than the pipe buffer.
        """
        setup = self.phase_totals((0, {}), setup_end)
        work = self.phase_totals(setup_end, self.mark())

        def total(key):
            return setup.get(key, 0.0) + work.get(key, 0.0) / reps

        spans = {span for _, _, span, _ in TARGETS}
        durations: defaultdict[str, list[int]] = defaultdict(list)
        for name, begin, stop, _, _ in self.spans:
            durations[name].append(stop - begin)
        metrics: dict[str, float] = {}
        for name in names:
            span, _, stat = name.rpartition(".")
            if span not in spans:
                raise KeyError(f"no traced span for metric {name!r}")
            percentile = stat.rpartition("p")[2].removesuffix("_us")
            if name == "plugin.large_mb_per_s":
                large_ns = total("plugin.large_ns")
                metrics[name] = total("plugin.large_bytes") / 1e6 / (large_ns / 1e9) \
                    if large_ns else 0.0
            elif stat.endswith("_us") and percentile.isdigit():
                values = durations.get(span)
                metrics[name] = float(np.percentile(values, int(percentile))) / 1e3 \
                    if values else 0.0
            else:
                metrics[name] = total(name)
        return metrics

    def dump(self, path: str, header: dict) -> None:
        """Write the header and every span as gzipped JSON."""
        with gzip.open(path, "wt") as fh:
            json.dump({**header, "span_fields": ["name", "start_ns", "end_ns",
                                                 "parent", "self_ns"],
                       "spans": self.spans}, fh)
