"""hydroloc benchmark: one scenario run at a time, timed and checked.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Single process, closed loop, one client. Each repetition generates the
workload's scenario YAML from the seed, then makes the calls
``hydroloc run`` makes (load_scenario -> run_simulation -> write_outputs)
and checks the outputs. ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced repetitions and prints the
per-layer metrics, with the run and epoch times of the untraced ones.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. An operation is one
epoch; every epoch of a repetition that raises or fails the output
checks counts as failed.

Spans of traced repetitions and all outputs go to ``.perfbench_work/``
in the checkout.
"""

from __future__ import annotations

import os

# Pin BLAS pools before numpy loads: the benchmark is single-threaded.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PROBE = os.path.join(ROOT, "perfbench", "setup_probe.py")
# Set-up probes after every repetition of an end-to-end run.
SETUP_PROBES_PER_REP = 2
# Minimum untraced-then-traced repetition pairs in a per-layer run.
TRACE_PAIRS = 2
# Epochs before this index are excluded from the NEES mean (filter warm-up).
NEES_FIRST_EPOCH = 10
# Exact counts that must repeat across traced repetitions of one seed.
EXACT_COUNTS = (
    "propagation.pairwise_tof_pairs",
    "propagation.simulate_ping_calls",
    "propagation.detections",
    "multilateration.fitness_calls",
    "multilateration.generations_run_total",
    "geodesy.geodetic_to_enu_calls",
)
_CSV_NEEDED = (
    "t", "true_e", "true_n", "true_u", "est_e", "est_n", "est_u",
    "fused_e", "fused_n", "fused_u", "raw_err", "fused_err", "n_detections",
)


def import_hydroloc():
    """Import hydroloc from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "hydroloc", "__init__.py")):
        raise SystemExit(f"perfbench: no hydroloc package under {SRC}")
    sys.path.insert(0, SRC)
    import hydroloc

    if not os.path.abspath(hydroloc.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported hydroloc from {hydroloc.__file__}")
    return hydroloc


@contextlib.contextmanager
def epoch_stamps(stamps: list):
    """Stamp the start of every epoch with a one-line simulate_epoch wrapper."""
    from hydroloc import pipeline

    simulate_epoch = pipeline.simulate_epoch

    def stamped(*args, **kwargs):
        stamps.append(time.perf_counter())
        return simulate_epoch(*args, **kwargs)

    pipeline.simulate_epoch = stamped
    try:
        yield
    finally:
        pipeline.simulate_epoch = simulate_epoch


def run_once(hl, scenario_path: str, out_dir: str, tracer: Tracer | None = None) -> dict:
    """One repetition, with the calls ``hydroloc run`` makes.

    run_s covers run_simulation plus write_outputs. Untraced runs stamp
    epochs (epoch_ms sums to the time from the first epoch to the end of
    run_simulation); traced runs record spans at every call site instead.
    """
    stamps: list[float] = []
    restored: list = []
    with contextlib.ExitStack() as stack:
        if tracer is None:
            stack.enter_context(epoch_stamps(stamps))
            span = contextlib.nullcontext
        else:
            stack.enter_context(tracer.patched(restored))
            span = tracer.span
        with span("scenario.load_scenario"):
            scenario = hl.load_scenario(scenario_path)
        with open(scenario_path, "r", encoding="utf-8") as fh:
            scenario_text = fh.read()
        t0 = time.perf_counter()
        with span("pipeline.run_simulation"):
            records, summary = hl.pipeline.run_simulation(scenario)
        t_sim = time.perf_counter()
        with span("pipeline.write_outputs"):
            hl.write_outputs(records, summary, out_dir, scenario_text=scenario_text)
        t1 = time.perf_counter()
    ends = stamps[1:] + [t_sim]
    return {
        "scenario": scenario,
        "records": records,
        "run_s": t1 - t0,
        "epoch_ms": [(b - a) * 1e3 for a, b in zip(stamps, ends)],
        "restored": restored,
    }


def _finite_leaves(node) -> bool:
    if isinstance(node, dict):
        return all(_finite_leaves(v) for v in node.values())
    if isinstance(node, list):
        return all(_finite_leaves(v) for v in node)
    if isinstance(node, float):
        return math.isfinite(node)
    return True


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def check_outputs(out_dir: str, workload) -> tuple[list[str], dict]:
    """Check epochs.csv and summary.json; return (problems, stats).

    Every cell must be finite, each fix row complete, the error columns
    must match the positions, the summary RMSEs must match the rows and
    stay under the workload's ceilings. stats carries the RMSEs, the fix
    count and the raw bytes for the determinism comparison.
    """
    problems = []
    with open(os.path.join(out_dir, "epochs.csv"), "rb") as fh:
        csv_bytes = fh.read()
    with open(os.path.join(out_dir, "summary.json"), "rb") as fh:
        summary_bytes = fh.read()
    rows = list(csv.DictReader(csv_bytes.decode("utf-8").splitlines()))
    summary = json.loads(summary_bytes)

    if len(rows) != workload.epochs:
        problems.append(f"epochs.csv has {len(rows)} rows, expected {workload.epochs}")
    raw_sq, fused_sq, fixes = 0.0, 0.0, 0
    for i, row in enumerate(rows):
        missing = [c for c in _CSV_NEEDED if c not in row]
        if missing:
            problems.append(f"epochs.csv lacks columns {missing}")
            break
        try:
            vals = {k: float(v) for k, v in row.items() if v != ""}
        except ValueError as exc:
            problems.append(f"row {i}: {exc}")
            continue
        if not all(math.isfinite(v) for v in vals.values()):
            problems.append(f"row {i}: non-finite value")
            continue
        true = [vals[c] for c in ("true_e", "true_n", "true_u")]
        fused = [vals[c] for c in ("fused_e", "fused_n", "fused_u")]
        if not _close(math.dist(fused, true), vals["fused_err"]):
            problems.append(f"row {i}: fused_err does not match the fused position")
        fused_sq += vals["fused_err"] ** 2
        est_keys = ("est_e", "est_n", "est_u", "raw_err")
        present = [k in vals for k in est_keys]
        if any(present) and not all(present):
            problems.append(f"row {i}: incomplete fix")
        elif all(present):
            fixes += 1
            est = [vals[c] for c in est_keys[:3]]
            if not _close(math.dist(est, true), vals["raw_err"]):
                problems.append(f"row {i}: raw_err does not match the fix")
            raw_sq += vals["raw_err"] ** 2

    if not _finite_leaves(summary):
        problems.append("summary.json holds a non-finite number")
    rmse_raw, rmse_fused = summary.get("rmse_raw"), summary.get("rmse_fused")
    if rmse_raw is None or rmse_fused is None or not rows or not fixes:
        problems.append("summary.json lacks rmse_raw or rmse_fused")
    else:
        if not _close(rmse_raw, math.sqrt(raw_sq / fixes)):
            problems.append("summary rmse_raw does not match epochs.csv")
        if not _close(rmse_fused, math.sqrt(fused_sq / len(rows))):
            problems.append("summary rmse_fused does not match epochs.csv")
        if rmse_raw > workload.max_rmse_raw_m:
            problems.append(f"rmse_raw {rmse_raw} m above ceiling {workload.max_rmse_raw_m}")
        if rmse_fused > workload.max_rmse_fused_m:
            problems.append(
                f"rmse_fused {rmse_fused} m above ceiling {workload.max_rmse_fused_m}"
            )
    stats = {
        "rows": len(rows),
        "fixes": fixes,
        "rmse_raw": rmse_raw,
        "rmse_fused": rmse_fused,
        "bytes": (csv_bytes, summary_bytes),
    }
    return problems, stats


def setup_probe(scenario_path: str) -> float:
    """Time from the start of a fresh interpreter to its first epoch."""
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, PROBE, scenario_path], stdout=subprocess.PIPE, text=True, cwd=ROOT,
    ) as proc:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code})")
    return t1 - t0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Repetitions:
    """Runs repetitions and keeps the failure and determinism bookkeeping."""

    def __init__(self, hl, workload, work_dir: str):
        self.hl = hl
        self.workload = workload
        self.work_dir = work_dir
        self.attempted = 0
        self.failed = 0
        self.first_bytes: dict[str, tuple] = {}
        self.stats: dict[str, dict] = {}  # scenario path -> checked stats
        self.count = 0

    def run(self, scenario_path: str, tracer: Tracer | None = None) -> dict | None:
        """One checked repetition; None if it raised or failed the checks."""
        out_dir = os.path.join(self.work_dir, f"out-{self.count}")
        self.count += 1
        self.attempted += self.workload.epochs
        try:
            rep = run_once(self.hl, scenario_path, out_dir, tracer)
            problems, stats = check_outputs(out_dir, self.workload)
        except Exception:  # noqa: BLE001 - a raising run is a counted failure
            traceback.print_exc(file=sys.stderr)
            self.failed += self.workload.epochs
            return None
        problems += [f"{site} not restored" for site, ok in rep["restored"] if not ok]
        first = self.first_bytes.setdefault(scenario_path, stats["bytes"])
        if stats["bytes"] != first:
            problems.append("outputs differ from an earlier run of the same seed")
        if problems:
            for p in problems:
                print(f"perfbench: {out_dir}: {p}", file=sys.stderr)
            self.failed += self.workload.epochs
            return None
        self.stats[scenario_path] = stats
        return rep


def end_to_end(reps: Repetitions, paths: list[str], seconds: float) -> dict:
    """Repetitions cycle over the sub-seed scenarios.

    Every scenario runs once and the first runs again, so determinism is
    checked on every run; more repetitions follow while time allows.
    SETUP_PROBES_PER_REP set-up probes follow every repetition, so they
    spread over the whole run, and setup_s is the fastest of them: the
    probe least slowed by other load on the host.
    """
    setup_probe(paths[0])  # unrecorded: leaves byte-compiled modules cached
    probes = []
    start = time.perf_counter()
    for i in itertools.count():
        r0 = time.perf_counter()
        reps.run(paths[i % len(paths)])
        probes.extend(setup_probe(paths[0]) for _ in range(SETUP_PROBES_PER_REP))
        now = time.perf_counter()
        if i >= len(paths) and now - start + (now - r0) > seconds:
            break
    if not reps.stats:
        raise SystemExit("perfbench: every repetition failed")

    # Accuracy pooled over the sub-seed scenarios, weighting each by its
    # epoch or fix count.
    stats = list(reps.stats.values())
    fixes = sum(s["fixes"] for s in stats)
    rows = sum(s["rows"] for s in stats)
    return {
        "setup_s": min(probes),
        "rmse_raw_m": math.sqrt(sum(s["fixes"] * s["rmse_raw"] ** 2 for s in stats) / fixes),
        "rmse_fused_m": math.sqrt(sum(s["rows"] * s["rmse_fused"] ** 2 for s in stats) / rows),
        "fix_rate": fixes / rows,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_times(untraced: list[dict]) -> dict:
    """run_s and epoch latency from untraced repetitions of one scenario.

    Every epoch counts at its fastest repetition, and so does the time
    outside the epoch loop (set-up, summary, write_outputs). The work is
    deterministic, so a minimum is the sample least slowed by other load
    on the host.
    """
    epoch_ms = [min(col) for col in zip(*(r["epoch_ms"] for r in untraced))]
    outside_s = min(r["run_s"] - sum(r["epoch_ms"]) / 1e3 for r in untraced)
    return {
        "run_s": sum(epoch_ms) / 1e3 + outside_s,
        "epoch_ms_p50": statistics.median(epoch_ms),
        "epoch_ms_p90": percentile(epoch_ms, 0.9),
    }


def nees_pos_mean(records) -> float:
    import numpy as np

    values = []
    for r in records[NEES_FIRST_EPOCH:]:
        err = r.fused.position - r.true_position
        values.append(float(err @ np.linalg.solve(r.fused.covariance[:3, :3], err)))
    return statistics.fmean(values)


def layer_metrics(tracer: Tracer, rep: dict) -> dict:
    """Per-layer metrics of one traced repetition."""
    spans = tracer.summarize()

    def get(name, key="total_s"):
        return spans.get(name, {}).get(key, 0 if key == "calls" else 0.0)

    pairs = tracer.counts["pairwise_tof_pairs"]
    pings = get("propagation.simulate_ping", "calls")
    fixes = get("multilateration.ga_localize", "calls")
    generations = tracer.counts["generations_run"]
    budget = fixes * rep["scenario"].ga.generations
    return {
        "propagation.pairwise_tof_s": get("propagation.pairwise_tof"),
        "propagation.pairwise_tof_pairs": pairs,
        "propagation.pairwise_tof_us_per_pair":
            get("propagation.pairwise_tof") * 1e6 / pairs if pairs else 0.0,
        "propagation.simulate_ping_s": get("propagation.simulate_ping"),
        "propagation.simulate_ping_calls": pings,
        "propagation.detections": tracer.counts["detections"],
        "propagation.detect_ratio": tracer.counts["detections"] / pings if pings else 0.0,
        "multilateration.ga_localize_self_s": get("multilateration.ga_localize", "self_s"),
        "multilateration.fitness_self_s": get("multilateration.fitness", "self_s"),
        "multilateration.fitness_calls": get("multilateration.fitness", "calls"),
        "multilateration.evolve_generation_s": get("multilateration.evolve_generation"),
        "multilateration.generations_run_total": generations,
        "multilateration.generation_budget_ratio": generations / budget if budget else 0.0,
        "fusion.ekf_s": sum(
            get(n) for n in ("fusion.ekf_predict", "fusion.ekf_update_fix",
                             "fusion.ekf_update_depth")
        ),
        "fusion.nees_pos_mean": nees_pos_mean(rep["records"]),
        "pipeline.simulate_epoch_self_s": get("pipeline.simulate_epoch", "self_s"),
        "pipeline.loop_self_s": get("pipeline.run_simulation", "self_s"),
        "pipeline.run_simulation_s": get("pipeline.run_simulation"),
        "pipeline.write_outputs_ms": get("pipeline.write_outputs") * 1e3,
        "scenario.load_ms": get("scenario.load_scenario") * 1e3,
        "environment.acoustics_profile_ms": get("environment.acoustics_profile") * 1e3,
        "geodesy.geodetic_to_enu_calls": get("geodesy.geodetic_to_enu", "calls"),
    }


def per_layer(reps: Repetitions, path: str, seconds: float, work_dir: str) -> dict:
    """Untraced and traced repetitions alternate, untraced first.

    At least TRACE_PAIRS pairs; more while time allows. run_s and the
    epoch latencies come from the untraced repetitions (run_times); the
    layer times are medians over the traced ones, and their exact counts
    must repeat.
    """
    traced, untraced, tracers = [], [], []
    start = time.perf_counter()
    for i in itertools.count():
        r0 = time.perf_counter()
        if i % 2:
            tracer = Tracer()
            tracers.append(tracer)
            rep = reps.run(path, tracer)
            if rep is not None:
                traced.append((layer_metrics(tracer, rep), rep["run_s"]))
        else:
            rep = reps.run(path)
            if rep is not None:
                untraced.append(rep)
        now = time.perf_counter()
        if i >= 2 * TRACE_PAIRS - 1 and now - start + (now - r0) > seconds:
            break
    for i, tracer in enumerate(tracers):
        tracer.write(os.path.join(work_dir, f"spans-{i}.csv"))
    if not traced or not untraced:
        raise SystemExit("perfbench: every traced or every untraced repetition failed")

    for name in EXACT_COUNTS:
        values = {m[name] for m, _ in traced}
        if len(values) > 1:
            print(f"perfbench: {name} differs between traced runs: {sorted(values)}",
                  file=sys.stderr)
            reps.failed += reps.workload.epochs
    metrics = run_times(untraced)
    metrics.update(
        (name, value if isinstance(value, int) else statistics.median(m[name] for m, _ in traced))
        for name, value in traced[0][0].items()
    )
    metrics["trace_overhead_ratio"] = (
        statistics.median(s for _, s in traced) / statistics.median(r["run_s"] for r in untraced)
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        declared = json.load(fh)
    hl = import_hydroloc()
    workload = WORKLOADS[args.workload]

    work_dir = os.path.join(
        ROOT, ".perfbench_work", f"{args.workload}-seed{args.seed}-trace{args.trace}"
    )
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    paths = []
    for k, text in enumerate(workload.scenario_yamls(args.seed)):
        path = os.path.join(work_dir, f"scenario-{k}.yaml")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        paths.append(path)

    reps = Repetitions(hl, workload, work_dir)
    if args.trace:
        values = per_layer(reps, paths[0], args.seconds, work_dir)
        wanted = declared["per_layer"]
    else:
        values = end_to_end(reps, paths, args.seconds)
        wanted = declared["end_to_end"]
    if set(values) != {m["name"] for m in wanted}:
        raise SystemExit(
            f"perfbench: metrics {sorted(values)} do not match BENCHMARK.json"
        )

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"{name}: {m['value']!r} {m['unit']}")
    print(f"epochs attempted: {reps.attempted}  failed: {reps.failed}")
    print(json.dumps({
        "correct": reps.failed == 0,
        "attempted": reps.attempted,
        "failed": reps.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
