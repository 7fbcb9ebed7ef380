"""Command-line surface for reproducible desk-scale experiments.

``build_parser`` declares every flag once, with its type, choices and
default. A ``--config`` JSON file is read as the flags it names: they are put
after the subcommand and before the command-line flags, so argparse converts
and checks them as it does typed flags, and flags win. Every subcommand
writes its outputs plus a ``manifest.json`` recording the resolved flags,
seed, and file-format versions, and exits with a stable code:

  0 success, 1 verification failure, 2 usage error, 3 I/O error,
  4 plugin protocol error.

Reruns with the same resolved flags are byte-identical; a manifest can be
fed back through ``--config``. The ``DENOISELAB_OUT`` environment variable
supplies the default output directory.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import json
import os
import shlex
import sys
from pathlib import Path

import numpy as np

from .dataset import (RAW_F64_MAGIC, empirical_stats, load_dataset, write_csv, write_json,
                      write_raw_f64)
from .denoisers import GaussianDenoiser, MultiDeltaDenoiser
from .distillation import (
    AFFINE_MAGIC,
    DistillConfig,
    closed_form_linear,
    distill_linear,
    load_affine,
    losses_to_csv,
    save_affine,
)
from .errors import DimensionMismatchError, PluginError, ToolkitError
from .metrics import (
    METRIC_VARIANTS,
    linearity_score,
    metric_sweep,
    score_diff,
    series_to_csv,
    series_to_json,
    weight_nmse,
)
from .plugin import PLUGIN_MAGIC, ExternalDenoiser
from .sampler import edm_schedule, gaussian_trajectory, ode_sample, trajectory_to_csv
from .svg import plot_series
from .toytrainer import TOY_MAGIC, load_toy
from .verify import SUITES

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_PLUGIN = 4

FORMAT_VERSIONS = {
    "raw-f64": RAW_F64_MAGIC.decode(),
    "affine-checkpoint": AFFINE_MAGIC.decode(),
    "toy-checkpoint": TOY_MAGIC.decode(),
    "plugin-protocol": PLUGIN_MAGIC.decode(),
    "manifest": 1,
}

#: namespace entries that are not flags a manifest records
_NOT_FLAGS = ("func", "subcommand", "config")


class UsageError(Exception):
    """Bad flag combination; maps to exit code 2."""


def _config_argv(args: argparse.Namespace) -> list[str]:
    """The flags a ``--config`` file names, as command-line tokens.

    The file holds flags of the subcommand, or is a manifest of the same one.
    ``true`` is the bare flag, ``false`` and ``null`` leave a flag unset, a
    list is comma-joined, and any other value is the one token
    ``--flag=value`` (so a value starting with ``-`` is not an option).
    """
    loaded = json.loads(Path(args.config).read_text())
    if not isinstance(loaded, dict):
        raise UsageError(f"config {args.config} is not a JSON object")
    if isinstance(loaded.get("flags"), dict):  # accept a manifest directly
        if loaded.get("subcommand") != args.subcommand:
            raise UsageError(f"config {args.config} is a {loaded.get('subcommand')!r} "
                             f"manifest, not {args.subcommand!r}")
        loaded = loaded["flags"]
    unknown = sorted(set(loaded) - (set(vars(args)) - set(_NOT_FLAGS)))
    if unknown:
        raise UsageError(f"config {args.config} has keys that are not "
                         f"{args.subcommand} flags: {', '.join(unknown)}")
    tokens = []
    for key, value in loaded.items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            tokens.append(flag)
        elif isinstance(value, list):
            tokens.append(f"{flag}={','.join(map(str, value))}")
        elif value is not False and value is not None:
            tokens.append(f"{flag}={value}")
    return tokens


class _Run(contextlib.ExitStack):
    """One subcommand run: the files it writes and the plugin children it starts.

    ``path(name)`` records ``name`` and makes the output directory (``--out``,
    then ``DENOISELAB_OUT``, then ``.``) on the first file. A run that ends
    without an exception writes ``manifest.json``; children are shut down on
    every exit.
    """

    def __init__(self, subcommand: str, resolved: dict):
        super().__init__()
        self.subcommand, self.flags, self.outputs = subcommand, resolved, []

    def path(self, name: str) -> Path:
        if not self.outputs:
            self.flags["out"] = str(self.flags["out"] or os.environ.get("DENOISELAB_OUT") or ".")
            Path(self.flags["out"]).mkdir(parents=True, exist_ok=True)
        self.outputs.append(name)
        return Path(self.flags["out"]) / name

    def __exit__(self, *exc_info):
        try:
            if exc_info[0] is None:
                outputs = sorted(self.outputs)
                write_json(self.path("manifest.json"), {
                    "subcommand": self.subcommand, "flags": self.flags,
                    "seed": self.flags["seed"], "format_versions": FORMAT_VERSIONS,
                    "outputs": outputs})
        finally:
            super().__exit__(*exc_info)


def _load_data(resolved: dict):
    if not resolved["data"]:
        return None
    return load_dataset(resolved["data"], resolved["format"])


def _schedule(resolved: dict):
    return edm_schedule(resolved["sigma_min"], resolved["sigma_max"],
                        resolved["rho"], resolved["steps"])


def _build_denoiser(spec: str, data, run: _Run, dim: int | None = None):
    """Instantiate a denoiser from its CLI spec string.

    Specs: ``multi-delta``, ``gaussian``, ``affine:PATH``, ``toy:PATH``,
    ``external:COMMAND``. External children are registered with the run so
    they are shut down when the command finishes. A denoiser whose
    dimension differs from that of ``data`` is refused.
    """
    kind, colon, arg = spec.partition(":")
    if spec in ("multi-delta", "gaussian"):
        if data is None:
            raise UsageError(f"denoiser {spec!r} needs --data")
        den = (MultiDeltaDenoiser(data) if spec == "multi-delta"
               else GaussianDenoiser(empirical_stats(data)))
    elif colon and kind in ("affine", "toy"):
        den = (load_affine if kind == "affine" else load_toy)(arg)
    elif colon and kind == "external":
        command = shlex.split(arg)
        if not command:
            raise UsageError("empty external denoiser command")
        if dim is None and data is None:
            raise UsageError("external denoiser needs --data or --dim for its dimension")
        den = run.enter_context(ExternalDenoiser(command, dim=data.dim if dim is None else dim))
    else:
        raise UsageError(f"unknown denoiser spec {spec!r}")
    if data is not None and den.dim != data.dim:
        raise DimensionMismatchError(
            f"denoiser {spec!r} has dimension {den.dim} but --data has {data.dim}")
    return den


def _add_common(parser: argparse.ArgumentParser, schedule: bool = False) -> None:
    parser.add_argument("--config", help="JSON file (or manifest.json) whose keys are "
                        "read as the flags they name; null means unset, flags win")
    parser.add_argument("--out", help="output directory (default $DENOISELAB_OUT or .)")
    parser.add_argument("--seed", type=int, default=0)
    if schedule:
        parser.add_argument("--sigma-min", type=float, default=0.002)
        parser.add_argument("--sigma-max", type=float, default=80.0)
        parser.add_argument("--rho", type=float, default=7.0)
        parser.add_argument("--steps", type=int, default=10)


def _add_data(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data")
    parser.add_argument("--format", choices=["csv", "raw-f64", "pgm-dir"], default="csv")


def cmd_stats(resolved: dict) -> int:
    if not resolved["data"]:
        raise UsageError("stats needs --data")
    stats = empirical_stats(_load_data(resolved))
    with _Run("stats", resolved) as run:
        write_csv(run.path("mean.csv"), None, ([v] for v in stats.mean.tolist()), "\n")
        write_csv(run.path("eigvals.csv"), None, ([v] for v in stats.eigvals.tolist()), "\n")
        write_raw_f64(run.path("basis.f64"), stats.basis.T)  # one component per row
    return EXIT_OK


def cmd_sample(resolved: dict) -> int:
    if resolved["count"] < 1:
        raise UsageError(f"count must be at least 1, got {resolved['count']}")
    if resolved["oracle"] and resolved["denoiser"] != "gaussian":
        raise UsageError("--oracle only applies to the gaussian denoiser")
    data = _load_data(resolved)
    schedule = _schedule(resolved)
    with _Run("sample", resolved) as run:
        den = _build_denoiser(resolved["denoiser"], data, run, resolved["dim"])
        stats = den.stats if resolved["oracle"] else None
        finals = np.empty((resolved["count"], den.dim))
        oracle_gap = 0.0
        # one start per ode_sample call: each trajectory is written and dropped
        # before the next, and perfbench's tracer counts NFE per denoiser call
        for i in range(resolved["count"]):
            rng = np.random.default_rng([resolved["seed"], i])
            x_T = resolved["sigma_max"] * rng.standard_normal(den.dim)
            traj = ode_sample(den, schedule, x_T)
            finals[i] = traj.final
            trajectory_to_csv(traj, run.path(f"trajectory_{i:04d}.csv"))
            if stats is not None:
                exact = gaussian_trajectory(stats, x_T, schedule)
                trajectory_to_csv(exact, run.path(f"oracle_trajectory_{i:04d}.csv"))
                gap = np.linalg.norm(traj.final - exact.final) / np.linalg.norm(exact.final)
                oracle_gap = max(oracle_gap, float(gap))
        write_csv(run.path("finals.csv"),
                  "sample," + ",".join(f"x{j}" for j in range(finals.shape[1])),
                  ([i, *row.tolist()] for i, row in enumerate(finals)), "\n")
        if resolved["raw"]:
            write_raw_f64(run.path("finals.f64"), finals)
        if stats is not None:
            write_json(run.path("report.json"), {"max_final_rel_error": oracle_gap})
    return EXIT_OK


def _parse_sigmas(raw: str) -> list[float]:
    try:
        values = [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"unparseable sigma list {raw!r}") from exc
    if not values or not all(0 < v < np.inf for v in values):
        raise UsageError(f"sigma list must hold finite positive values, got {raw!r}")
    return values


def cmd_distill(resolved: dict) -> int:
    if not resolved["data"]:
        raise UsageError("distill needs --data")
    sigmas = _parse_sigmas(resolved["sigmas"])
    tags = [f"{sigma:g}" for sigma in sigmas]  # names each sigma's files
    clash = next((tag for tag in tags if tags.count(tag) > 1), None)
    if clash is not None:
        same = ", ".join(repr(s) for s, tag in zip(sigmas, tags) if tag == clash)
        raise UsageError(f"sigmas {same} would all write the files of sigma{clash}")
    cfg = DistillConfig(steps=resolved["steps"], batch=resolved["batch"],
                        lr=resolved["lr"], seed=resolved["seed"])
    data = _load_data(resolved)
    stats = empirical_stats(data)
    report = {}
    with _Run("distill", resolved) as run:
        teacher = _build_denoiser(resolved["teacher"], data, run, resolved["dim"])
        for sigma, tag in zip(sigmas, tags):
            fitted, losses = distill_linear(teacher, data, sigma, cfg)
            save_affine(fitted, run.path(f"affine_sigma{tag}.aff1"))
            losses_to_csv(losses, run.path(f"loss_sigma{tag}.csv"))
            exact = closed_form_linear(stats, sigma)
            report[tag] = {
                "weight_nmse_vs_closed_form": weight_nmse(fitted.weight, exact.weight),
                "final_loss": float(losses[-1]),
            }
        write_json(run.path("report.json"), report)
    return EXIT_OK


def cmd_metrics(resolved: dict) -> int:
    if not resolved["data"]:
        raise UsageError("metrics needs --data")
    metric, variants = resolved["metric"], METRIC_VARIANTS[resolved["metric"]]
    variant = resolved["variant"] or variants[0]
    if variant not in variants:
        raise UsageError(f"metric {metric!r} takes --variant {' or '.join(variants)}, "
                         f"not {variant!r}")
    if metric == "score-diff" and not resolved["denoiser2"]:
        raise UsageError("metric 'score-diff' needs --denoiser2")
    data = _load_data(resolved)
    schedule = _schedule(resolved)
    n, seed = resolved["n"], resolved["seed"]
    with _Run("metrics", resolved) as run:
        den = _build_denoiser(resolved["denoiser"], data, run, resolved["dim"])
        if metric == "linearity":
            series = metric_sweep(
                lambda sigma, s: linearity_score(
                    den, data, sigma, resolved["alpha"], resolved["beta"],
                    n_pairs=n, seed=s, variant=variant),
                schedule, master_seed=seed, name=f"linearity-{variant}", n_samples=n)
        else:
            den2 = _build_denoiser(resolved["denoiser2"], data, run, resolved["dim"])
            series = metric_sweep(
                lambda sigma, s: score_diff(den, den2, data, sigma, n=n, seed=s,
                                            variant=variant),
                schedule, master_seed=seed, name=f"score-diff-{variant}", n_samples=n)
        series_to_csv(series, run.path("series.csv"))
        series_to_json(series, run.path("series.json"))
        if resolved["svg"]:
            plot_series([series], run.path("series.svg"), title=series.name)
    return EXIT_OK


def cmd_verify(resolved: dict) -> int:
    if resolved["suite"] is None:
        raise UsageError("verify needs --suite")
    if resolved["tolerance"] is not None and not resolved["tolerance"] > 0:
        raise UsageError(f"tolerance must be positive, got {resolved['tolerance']}")
    fn = SUITES[resolved["suite"]]
    flags = {key: value for key, value in resolved.items()
             if value is not None and key not in ("suite", "out")}
    refused = sorted(set(flags) - set(inspect.signature(fn).parameters))
    if refused:
        raise UsageError(f"suite {resolved['suite']} takes no "
                         + ", ".join("--" + key.replace("_", "-") for key in refused))
    results = fn(**flags)
    for r in results:
        print(r.line())
    if resolved["out"]:  # DENOISELAB_OUT alone writes nothing
        with _Run("verify", resolved) as run:
            write_json(run.path("verify.json"), [r.__dict__ for r in results])
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="denoiselab",
        description="closed-form diffusion denoisers, distillation, and diagnostics")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("stats", help="empirical mean/eigendecomposition artifacts")
    _add_data(p)
    _add_common(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("sample", help="probability-flow ODE sampling")
    _add_data(p)
    p.add_argument("--denoiser", default="gaussian")
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--dim", type=int)
    p.add_argument("--oracle", action="store_true",
                   help="also emit the closed-form trajectories (gaussian only)")
    p.add_argument("--raw", action="store_true",
                   help="also write finals as a raw-f64 container")
    _add_common(p, schedule=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("distill", help="linear distillation of a teacher denoiser")
    _add_data(p)
    p.add_argument("--teacher", default="multi-delta")
    p.add_argument("--sigmas", default="1.0", help="comma-separated noise levels")
    p.add_argument("--steps", type=int, default=6000)
    p.add_argument("--batch", type=int, default=64)
    p.add_argument("--lr", type=float, default=5e-3)
    p.add_argument("--dim", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_distill)

    p = sub.add_parser("metrics", help="per-sigma metric sweeps")
    _add_data(p)
    p.add_argument("--metric", choices=["linearity", "score-diff"], default="linearity")
    p.add_argument("--denoiser", default="gaussian")
    p.add_argument("--denoiser2")
    p.add_argument("--variant", choices=["cosine", "nmse", "rmse"])
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--alpha", type=float, default=1.0 / np.sqrt(2.0))
    p.add_argument("--beta", type=float, default=1.0 / np.sqrt(2.0))
    p.add_argument("--dim", type=int)
    p.add_argument("--svg", action="store_true")
    _add_common(p, schedule=True)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("verify", help="one-command verification suites")
    p.add_argument("--suite", choices=sorted(SUITES))
    p.add_argument("--dim", type=int)
    p.add_argument("--tolerance", type=float)
    p.add_argument("--n-samples", type=int)
    p.add_argument("--n-seeds", type=int)
    p.add_argument("--n-starts", type=int)
    p.add_argument("--steps", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    return parser


def _message(exc: BaseException) -> str:
    """``str(exc)``, plus the ``step`` and ``sigma`` set on it that it does not name.

    ``errors.annotate`` names them in a message of at most one argument only, so
    an OSError such as a broken plugin pipe would otherwise lose them.
    """
    text = str(exc)
    missing = [f"{name}={value}" for name in ("step", "sigma")
               if (value := getattr(exc, name, None)) is not None
               and f"{name}={value}" not in text and f"{name} {value}" not in text]
    return f"{text} ({', '.join(missing)})" if missing else text


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:  # argv[0] is the subcommand: the top level has no other flag
            args = parser.parse_args(argv[:1] + _config_argv(args) + argv[1:])
        if args.seed < 0:  # numpy seeds are non-negative
            raise UsageError(f"seed must be at least 0, got {args.seed}")
        return args.func({k: v for k, v in vars(args).items() if k not in _NOT_FLAGS})
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PluginError as exc:
        print(f"plugin error: {_message(exc)}", file=sys.stderr)
        return EXIT_PLUGIN
    except (ToolkitError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {_message(exc)}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
