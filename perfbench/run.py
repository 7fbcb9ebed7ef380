"""denoiselab benchmark: one workload per run, end-to-end or traced.

Usage, from the root of a checkout (the program is imported from ``src``):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

After set-up the run repeats the workload's fixed unit of work until S
seconds have passed (at least once), one unit at a time, and holds every
operation to its oracle. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the environment and the raw samples.

``--trace 0`` reports the end-to-end metrics listed in BENCHMARK.json:
  wall_s       median wall time of one unit of work
  setup_s      median over SETUP_REPEATS set-ups, each from interpreter start
               to ready: this process's own, then fresh processes, half of
               them before the units and half after
  cpu_s        user+sys CPU per unit: this process during the units, plus
               the plugin child (reaped, RUSAGE_CHILDREN) after its set-up
  peak_rss_mb  peak resident memory of this process

``--trace 1`` alternates untraced and traced units (at least one of each)
and reports the per-layer metrics for one set-up plus one unit, the wall
time of traced and untraced units, and their difference (the tracing
overhead). It fails unless the exact counts in ``workloads.EXPECTED``
are reproduced. Spans are written to .bench_out/ in the checkout.
"""

import time

T0 = time.perf_counter()  # set-up is timed from here, before numpy is imported

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

SETUP_REPEATS = 15
#: the keys of ``workloads.WORKLOADS``, checked before the program is importable
WORKLOAD_NAMES = ("toy-trend", "sample-cli", "distill-sweep", "plugin-sample")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up, print it as JSON and exit")
    return p.parse_args(argv)


def child_cpu_s(pid: int) -> float:
    """CPU seconds used so far by a live child, from /proc/<pid>/stat."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def steal_s() -> float:
    """CPU time the hypervisor took from this machine so far, from /proc/stat."""
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
    }


def timed_setups(args, count: int) -> list[float]:
    """Set-up times of ``count`` fresh processes running ``--setup-only``."""
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
            capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return times


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "denoiselab" / "__init__.py").is_file():
        print("error: run from the root of a denoiselab checkout "
              "(src/denoiselab not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # the plugin child is started with ``python -m`` and must find the package too
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    scratch = root / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    try:
        return measure(args, root, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def measure(args, root: Path, tmp: Path) -> int:
    import tracing
    import workloads

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    workload = workloads.WORKLOADS[args.workload](args.seed, tmp)
    try:
        setup_times = [time.perf_counter() - T0]
        if tracer:
            tracer.uninstall()
            setup_end = tracer.mark()
        if args.setup_only:
            print(json.dumps({"setup_s": setup_times[0]}))
            return 0
        if not tracer:
            setup_times += timed_setups(args, SETUP_REPEATS // 2)

        child = getattr(workload, "child_pid", None)
        child_before = child_cpu_s(child()) if child else 0.0
        reaped_before = children_cpu_s()
        steal_before = steal_s()
        walls, traced_walls, cpu = [], [], 0.0
        attempted = failed = 0
        start = time.perf_counter()
        rep = 0
        while (rep == 0 or time.perf_counter() - start < args.seconds
               or (tracer and not traced_walls)):
            traced = tracer is not None and rep % 2 == 1
            if traced:
                tracer.install()
            cpu0, t0 = time.process_time(), time.perf_counter()
            try:
                out = workload.run(rep)
            except Exception:
                traceback.print_exc()
                out = None
            finally:
                wall = time.perf_counter() - t0
                cpu += time.process_time() - cpu0
                if traced:
                    tracer.uninstall()
            (traced_walls if traced else walls).append(wall)
            ok = None
            if out is not None:
                try:
                    ok = workload.check(out)
                except Exception:
                    traceback.print_exc()
            if ok is None:
                ok = [False] * workload.ops_per_unit
            attempted += len(ok)
            failed += ok.count(False)
            rep += 1
    finally:
        workload.close()
    if child:
        cpu += children_cpu_s() - reaped_before - child_before
    detail = {"workload": args.workload, "seed": args.seed, "units": rep,
              "unit_wall_s": walls, "steal_s": steal_s() - steal_before,
              "environment": environment()}
    if not tracer:
        # the other half after the units, so the set-ups span the run's window
        setup_times += timed_setups(args, SETUP_REPEATS - len(setup_times))

    spec = json.loads((root / "BENCHMARK.json").read_text())
    if tracer:
        detail["traced_unit_wall_s"] = traced_walls
        layer_names = [m["name"] for m in spec["per_layer"]
                       if not m["name"].startswith("bench.")]
        metrics = tracer.per_layer(layer_names, setup_end, len(traced_walls))
        metrics["bench.traced_wall_s"] = statistics.median(traced_walls)
        metrics["bench.untraced_wall_s"] = statistics.median(walls)
        metrics["bench.tracing_overhead_s"] = \
            metrics["bench.traced_wall_s"] - metrics["bench.untraced_wall_s"]
        mismatches = {k: (metrics[k], v) for k, v in workloads.EXPECTED[args.workload].items()
                      if metrics[k] != v}
        if mismatches:
            print(f"error: traced counts differ from expected (got, want): {mismatches}",
                  file=sys.stderr)
        out_dir = root / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(str(out_dir / f"trace-{args.workload}-seed{args.seed}.json.gz"),
                    {**detail, "metrics": metrics})
        section = "per_layer"
    else:
        mismatches = {}
        detail["setup_samples_s"] = setup_times
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup_times),
            "cpu_s": cpu / len(walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        section = "end_to_end"

    result = {
        "correct": failed == 0 and not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in spec[section]},
    }
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
