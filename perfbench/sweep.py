"""Run the benchmark over several seeds and summarise it as quartiles.

Usage (from the root of a checkout):

    python3 perfbench/sweep.py --seeds 1-10 --trace-seeds 1 --out sweep.json

Each run is ``perfbench/run.py`` in its own process, one at a time, for
every workload BENCHMARK.json declares and its ``run_seconds``. For
every workload and end-to-end metric the output holds the values in seed
order, their median, quartiles (``statistics.quantiles(values, n=4)``)
and spread (the interquartile distance as a share of the median); traced
runs add the per-layer metrics. The run environment is recorded alongside.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def environment() -> dict:
    import numpy
    import yaml

    model = ""
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyyaml": yaml.__version__,
        "nproc": os.cpu_count(),
        "cpu": model,
        "platform": platform.platform(),
        "blas_threads": "OMP_NUM_THREADS, OPENBLAS_NUM_THREADS, MKL_NUM_THREADS pinned to 1",
    }


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "values": values}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--trace-seeds", default="", help="seeds for traced runs")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    seconds = declared["run_seconds"]

    result = {"environment": environment(), "seeds": args.seeds,
              "trace_seeds": args.trace_seeds, "seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in declared["workloads"]):
        entry = result["workloads"][workload] = {}
        for trace, seeds in ((0, args.seeds), (1, args.trace_seeds)):
            runs = [bench(workload, s, seconds, trace) for s in parse_seeds(seeds)] \
                if seeds else []
            if not runs:
                continue
            key = "per_layer" if trace else "end_to_end"
            entry[key] = {
                name: dict(quartiles([r["metrics"][name]["value"] for r in runs]), unit=m["unit"])
                for name, m in runs[0]["metrics"].items()
            }
            entry[f"{key}_correct"] = all(r["correct"] for r in runs)
            entry[f"{key}_failed"] = sum(r["failed"] for r in runs)
            entry[f"{key}_attempted"] = sum(r["attempted"] for r in runs)
            print(f"{workload} trace={trace}: {len(runs)} runs", file=sys.stderr)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
