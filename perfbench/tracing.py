"""In-memory spans around calls into hydroloc's layers.

The package binds names with ``from .x import y``, so a function is
wrapped where it is looked up when called (its call-site namespace):
``hydroloc.multilateration.pairwise_tof``, not only
``hydroloc.propagation.pairwise_tof``. ``Tracer.patched()`` installs the
wrappers and restores the original objects on exit.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import sys
import time
from collections import Counter

# (call-site module, attribute, span name). The span name is the layer
# that owns the function, followed by the function name.
CALL_SITES = (
    ("hydroloc.pipeline", "simulate_epoch", "pipeline.simulate_epoch"),
    ("hydroloc.pipeline", "simulate_ping", "propagation.simulate_ping"),
    ("hydroloc.pipeline", "ga_localize", "multilateration.ga_localize"),
    ("hydroloc.pipeline", "ekf_predict", "fusion.ekf_predict"),
    ("hydroloc.pipeline", "ekf_update_fix", "fusion.ekf_update_fix"),
    ("hydroloc.pipeline", "ekf_update_depth", "fusion.ekf_update_depth"),
    ("hydroloc.multilateration", "fitness", "multilateration.fitness"),
    ("hydroloc.multilateration", "pairwise_tof", "propagation.pairwise_tof"),
    ("hydroloc.multilateration", "evolve_generation", "multilateration.evolve_generation"),
    ("hydroloc.propagation", "acoustics_profile", "environment.acoustics_profile"),
    ("hydroloc.scenario", "geodetic_to_enu", "geodesy.geodetic_to_enu"),
)


def _count_pairs(result):
    return {"pairwise_tof_pairs": int(result[0].size)}


def _count_detection(result):
    return {"detections": int(result is not None)}


def _count_generations(result):
    return {"generations_run": int(result.generations_run)}


# Counts taken from a wrapped call's result, keyed by span name.
RESULT_COUNTERS = {
    "propagation.pairwise_tof": _count_pairs,
    "propagation.simulate_ping": _count_detection,
    "multilateration.ga_localize": _count_generations,
}


class Tracer:
    """Spans (name, start, end, parent, epoch) kept in memory.

    ``parent`` is the index of the enclosing span or -1. ``epoch`` is
    the index of the last ``pipeline.simulate_epoch`` call, so every
    span of one ping -> fix -> fuse cycle shares it; spans outside the
    epoch loop carry -1.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._epoch = -1

    def open(self, name: str) -> int:
        if name == "pipeline.simulate_epoch":
            self._epoch += 1
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._epoch])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, fn, name: str):
        counter = RESULT_COUNTERS.get(name)

        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if counter is not None:
                self.counts.update(counter(result))
            return result

        return traced

    @contextlib.contextmanager
    def patched(self, restored: list):
        """Install wrappers at every call site; restore them on exit.

        After exit, ``restored`` holds one (site, ok) pair per patched
        name, ok telling whether the original object is back in place.
        """
        originals = []
        try:
            for module_name, attr, name in CALL_SITES:
                module = importlib.import_module(module_name)
                if not hasattr(module, attr):
                    print(f"perfbench: {module_name}.{attr} not found, not traced",
                          file=sys.stderr)
                    continue
                fn = getattr(module, attr)
                originals.append((module, attr, fn))
                setattr(module, attr, self.wrap(fn, name))
            yield
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)
            restored.extend(
                (f"{module.__name__}.{attr}", getattr(module, attr) is fn)
                for module, attr, fn in originals
            )

    def summarize(self) -> dict:
        """Per span name: call count, total time and self time (s).

        Self time is a span's duration minus the durations of its direct
        children; calls are single-threaded, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            s = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            s["calls"] += 1
            s["total_s"] += end - start
            s["self_s"] += end - start - child[i]
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("name", "start_s", "end_s", "parent", "epoch"))
            writer.writerows(self.spans)
