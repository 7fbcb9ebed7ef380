"""Run the benchmark twice over a fixed seed set and summarise the spread.

Usage, from the root of a checkout:

    python3 perfbench/spread.py [--out FILE]

It makes SETS passes; in each pass it runs ``run.py --trace 0`` once per
seed in SEEDS for every workload, one run at a time. For every end-to-end
metric it prints each pass's median, quartiles
(``statistics.quantiles(values, n=4)``) and spread (q3 - q1) / median next
to the metric's bound from BENCHMARK.json, and the drift of the second
median from the first. One traced run per workload on the first seed
follows. ``--out`` writes the summary as JSON; ``baseline.json`` was written
with ``--out perfbench/baseline.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEEDS = tuple(range(1, 11))
SETS = 2


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return {"detail": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def run_set(spec: dict, workload: str) -> tuple[dict, dict]:
    runs = [run(workload, s, spec["run_seconds"], 0) for s in SEEDS]
    entry = {"attempted": sum(r["result"]["attempted"] for r in runs),
             "failed": sum(r["result"]["failed"] for r in runs),
             "steal_s": [r["detail"]["steal_s"] for r in runs],
             "end_to_end": {}}
    print(f"{workload}: {entry['attempted']} operations, {entry['failed']} failed")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        stats = summarise([r["result"]["metrics"][name]["value"] for r in runs])
        entry["end_to_end"][name] = stats
        flag = "ok" if stats["spread"] < metric["bound"] / 3 else "WIDE"
        print(f"  {name:12s} median {stats['median']:10.4f} {metric['unit']:3s} "
              f"q1 {stats['q1']:10.4f} q3 {stats['q3']:10.4f} "
              f"spread {stats['spread']:.4f} bound {metric['bound']} {flag}")
    sys.stdout.flush()
    return entry, runs[0]["detail"]["environment"]


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out")
    args = p.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    summary = {"run_seconds": spec["run_seconds"], "seeds": list(SEEDS),
               "workloads": {w: {"sets": []} for w in names}}
    for n in range(SETS):
        print(f"pass {n + 1} of {SETS}")
        for workload in names:
            entry, summary["environment"] = run_set(spec, workload)
            summary["workloads"][workload]["sets"].append(entry)
    for workload in names:
        sets = summary["workloads"][workload]["sets"]
        first, last = sets[0]["end_to_end"], sets[-1]["end_to_end"]
        drift = {m["name"]: last[m["name"]]["median"] / first[m["name"]]["median"] - 1
                 for m in spec["end_to_end"]}
        traced = run(workload, SEEDS[0], spec["run_seconds"], 1)["result"]
        summary["workloads"][workload].update(
            drift=drift, per_layer={k: v["value"] for k, v in traced["metrics"].items()})
        print(f"{workload}: median drift " + ", ".join(
            f"{k} {v:+.3f}" for k, v in drift.items()))
        print("  tracing overhead {:.4f} s on {:.4f} s untraced".format(
            traced["metrics"]["bench.tracing_overhead_s"]["value"],
            traced["metrics"]["bench.untraced_wall_s"]["value"]))
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
