"""Scenario execution: simulate every epoch, solve every fix, filter, write out.

Every random draw comes from a SplitMix64 Stream whose seed child_seed
mixes from the master seed and (purpose tag, epoch index, anchor index),
so outputs are byte-identical for a given (scenario, seed) and
independent of evaluation order.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import math
import os
from dataclasses import dataclass

import numpy as np

from .fusion import EkfState, ekf_predict, ekf_update_depth, ekf_update_fix
from .multilateration import MIN_ANCHORS, ga_localize
from .propagation import ping_paths, simulate_ping
from .scenario import Scenario
from .streams import Stream, child_seed

__all__ = [
    "EpochRecord",
    "EpochTable",
    "RunSummary",
    "simulate_epoch",
    "localize_epoch",
    "run_simulation",
    "write_outputs",
    "CSV_COLUMNS",
    "OUTPUT_FILES",
]

log = logging.getLogger(__name__)

# Purpose tags for child seed derivation.
_TAG_GPS = 1
_TAG_PING = 2
_TAG_PRESSURE = 3
_TAG_GA = 4

_BLOCK = 16  # epochs per block of run_simulation's simulate and fix passes

CSV_COLUMNS = (
    "t", "true_e", "true_n", "true_u",
    "est_e", "est_n", "est_u",
    "fused_e", "fused_n", "fused_u",
    "raw_err", "fused_err", "n_detections",
)
# The files write_outputs makes in its output directory, by key of the paths it returns.
OUTPUT_FILES = {"epochs": "epochs.csv", "summary": "summary.json", "scenario": "scenario.yaml"}


@dataclass(frozen=True, eq=False, slots=True)
class EpochRecord:
    """One epoch's truth and fused state, as a row of an EpochTable.

    The row view holds what the benchmark's NEES reader takes and no
    more; the fix, its diagnostics and the counts are the table's columns.
    """

    true_position: np.ndarray
    fused: EkfState


@dataclass(frozen=True, eq=False)
class EpochTable:
    """A run's epochs: one column per field, one row per epoch.

    fix, fix_covariance and best_fitness are NaN, and generations_run and
    polishes 0, on a gap row (no fix), which has_fix() marks; empty(n) is
    n gap rows, which run_simulation's passes fill column by column.
    Readers take the columns. table[k] builds row k as an EpochRecord of
    its truth and fused state (the fused timestamp is the epoch's),
    negative k counting from the end; a slice is a table of views.
    """

    timestamp: np.ndarray        # (E,) s
    true_position: np.ndarray    # (E, 3) ENU m
    n_detections: np.ndarray     # (E,)
    fix: np.ndarray              # (E, 3) ENU m
    fix_covariance: np.ndarray   # (E, 3, 3) m^2
    best_fitness: np.ndarray     # (E,) s^2
    generations_run: np.ndarray  # (E,)
    polishes: np.ndarray         # (E,)
    fused_mean: np.ndarray       # (E, 6)
    fused_covariance: np.ndarray  # (E, 6, 6)

    @classmethod
    def empty(cls, n: int) -> EpochTable:
        """n gap rows: NaN in every float column, 0 in every count."""
        def nan(*shape):
            return np.full((n, *shape), np.nan)

        n_detections, generations_run, polishes = np.zeros((3, n), int)
        return cls(nan(), nan(3), n_detections, nan(3), nan(3, 3), nan(), generations_run,
                   polishes, nan(6), nan(6, 6))

    def has_fix(self) -> np.ndarray:
        """(E,) bool: which rows hold a fix."""
        return ~np.isnan(self.fix[:, 0])

    def __len__(self) -> int:
        return len(self.timestamp)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return EpochTable(*(getattr(self, f.name)[key] for f in dataclasses.fields(self)))
        t = float(self.timestamp[key])  # raises IndexError past either end
        return EpochRecord(self.true_position[key].copy(),
                           EkfState(self.fused_mean[key], self.fused_covariance[key], t))

    def __iter__(self):
        return (self[k] for k in range(len(self)))


@dataclass(frozen=True)
class RunSummary:
    """Run-level statistics in metres; None where no fixes were produced."""

    epochs: int
    fix_epochs: int
    gap_epochs: int
    detection_rate: float | None
    rmse_raw: float | None
    rmse_fused: float | None
    rmse_raw_axes: tuple[float, float, float] | None
    rmse_fused_axes: tuple[float, float, float] | None
    max_error_raw: float | None
    max_error_fused: float | None
    enu_origin: tuple[float, float, float]  # lat deg, lon deg, height m
    origin_from_anchor: bool
    master_seed: int


def interpolate_position(waypoints, t: float) -> np.ndarray:
    """Piecewise-linear position along the waypoint list at time t."""
    times = np.array([w[0] for w in waypoints])
    coords = np.array([w[1:] for w in waypoints])
    return np.array([np.interp(t, times, coords[:, k]) for k in range(3)])


def epoch_times(scenario: Scenario) -> list[float]:
    """Ping epochs: 0, interval, ... up to the trajectory end; at least one."""
    return [k * scenario.ping_interval for k in range(scenario.epochs)]


def simulate_epoch(scenario: Scenario, epoch_idx: int, t: float):
    """Generate one epoch's observations.

    Returns (true_position, reported, tofs, depth_measured). reported is
    the (M, 3) array of anchor positions with that epoch's GPS noise,
    which the localizer sees; the acoustic paths use the true positions.
    tofs is (M,): each anchor's measured TOF (s), in scenario.anchor_ids
    order, NaN where the ping was not heard.
    """
    true_pos = interpolate_position(scenario.waypoints, t)
    profile = scenario.profile
    anchors_true = np.asarray(scenario.anchor_enu, float)

    gps = Stream(child_seed(scenario.seed, _TAG_GPS, epoch_idx))
    noise = gps.standard_normal(anchors_true.shape) * np.asarray(scenario.gps_noise_sigma)
    reported = anchors_true + noise
    # Keep reported hydrophone depths physical so the fitness model can
    # trace to them: at or below the surface, inside the column.
    reported[:, 2] = np.clip(reported[:, 2], -profile.total_depth, 0.0)

    # One kernel call traces every anchor; each then detects on its own noise stream.
    channel = scenario.channel
    tof, length, absorbed = ping_paths(profile, true_pos, anchors_true)
    tofs = np.empty(len(anchors_true))
    for a, aid in enumerate(scenario.anchor_ids):
        seed = child_seed(scenario.seed, _TAG_PING, epoch_idx, a)
        ping = simulate_ping(channel, aid, tof[a], length[a], absorbed[a], seed, t)
        tofs[a] = np.nan if ping is None else ping

    pressure = Stream(child_seed(scenario.seed, _TAG_PRESSURE, epoch_idx))
    true_depth = -float(true_pos[2])
    depth_measured = max(
        0.0, true_depth + scenario.ekf.pressure_sigma_depth * pressure.standard_normal()
    )
    return true_pos, reported, tofs, depth_measured


def localize_epoch(scenario: Scenario, epoch_idx: int, reported, tofs, trace=None):
    """One epoch's fix from its heard anchors, or None when fewer than MIN_ANCHORS were heard.

    reported and tofs are simulate_epoch's; a NaN TOF is an anchor not
    heard. The solver draws from the epoch's own child seed of the master
    seed; its covariance comes from the scenario's TOF and GPS noise.
    """
    heard = ~np.isnan(tofs)
    if heard.sum() < MIN_ANCHORS:
        return None
    return ga_localize(
        reported[heard], tofs[heard], scenario.ga, scenario.profile,
        child_seed(scenario.seed, _TAG_GA, epoch_idx), trace=trace,
        tof_sigma=scenario.channel.tof_noise_sigma,
        anchor_sigma=scenario.gps_noise_sigma,
        sigma_floor=scenario.ekf.fix_sigma_floor,
    )


def _initial_state(scenario: Scenario) -> EkfState:
    bounds = scenario.ga.search_bounds
    mean = np.zeros(6)
    mean[:3] = 0.5 * (bounds.lows() + bounds.highs())
    pos_var = scenario.ekf.initial_position_sigma**2
    vel_var = scenario.ekf.initial_velocity_sigma**2
    cov = np.diag([pos_var] * 3 + [vel_var] * 3)
    return EkfState(mean=mean, covariance=cov, timestamp=0.0)


def run_simulation(scenario: Scenario):
    """Run the full pipeline; returns (table, summary).

    table is the run's EpochTable, filled in three passes. Block by block,
    every epoch's observations, stacked at 4M x 8 B an epoch, then every
    fix from its own epoch's alone (a gap row keeps EpochTable.empty's);
    then the filter, the only pass that carries state between epochs.
    """
    times = epoch_times(scenario)
    n, m = len(times), len(scenario.anchor_ids)
    table = EpochTable.empty(n)
    table.timestamp[:] = times
    depths = np.empty(n)
    for lo in range(0, n, _BLOCK):
        block = range(lo, min(lo + _BLOCK, n))
        reported, tofs = np.empty((len(block), m, 3)), np.empty((len(block), m))
        for i, k in enumerate(block):
            table.true_position[k], reported[i], tofs[i], depths[k] = simulate_epoch(
                scenario, k, times[k])
        table.n_detections[lo:block.stop] = np.count_nonzero(~np.isnan(tofs), axis=1)
        for i, k in enumerate(block):
            estimate = localize_epoch(scenario, k, reported[i], tofs[i])
            if estimate is None:
                log.info("epoch %d (t=%.3f): %d detections, skipping fix",
                         k, times[k], table.n_detections[k])
                continue
            table.fix[k] = estimate.position
            table.fix_covariance[k] = estimate.covariance
            table.best_fitness[k] = estimate.best_fitness
            table.generations_run[k] = estimate.generations_run
            table.polishes[k] = estimate.polishes

    state = _initial_state(scenario)
    for k, (t, has_fix) in enumerate(zip(times, table.has_fix())):
        state = ekf_predict(state, t - state.timestamp, scenario.ekf.accel_noise_density)
        if has_fix:
            state = ekf_update_fix(state, table.fix[k], table.fix_covariance[k])
        state = ekf_update_depth(state, depths[k], scenario.ekf.pressure_sigma_depth**2)
        table.fused_mean[k] = state.mean
        table.fused_covariance[k] = state.covariance

    return table, _summarize(scenario, table)


def _rmse(values: np.ndarray) -> float:
    return float(np.sqrt(np.mean(values**2)))


def _error_stats(diff: np.ndarray):
    """(3-D RMSE, per-axis RMSEs, maximum) of position errors (K, 3), m."""
    norms = np.linalg.norm(diff, axis=1)
    return _rmse(norms), tuple(_rmse(diff[:, k]) for k in range(3)), float(np.max(norms))


def _summarize(scenario: Scenario, table: EpochTable) -> RunSummary:
    n_epochs = len(table)
    has_fix = table.has_fix()
    fix_epochs = int(np.count_nonzero(has_fix))
    detections = int(table.n_detections.sum())
    origin = scenario.enu_origin

    rmse_fused, rmse_fused_axes, max_fused = _error_stats(
        table.fused_mean[:, :3] - table.true_position
    )
    rmse_raw = rmse_raw_axes = max_raw = None
    if fix_epochs:
        rmse_raw, rmse_raw_axes, max_raw = _error_stats(
            table.fix[has_fix] - table.true_position[has_fix]
        )

    return RunSummary(
        epochs=n_epochs,
        fix_epochs=fix_epochs,
        gap_epochs=n_epochs - fix_epochs,
        detection_rate=detections / (n_epochs * len(scenario.anchor_ids)),
        rmse_raw=rmse_raw,
        rmse_fused=rmse_fused,
        rmse_raw_axes=rmse_raw_axes,
        rmse_fused_axes=rmse_fused_axes,
        max_error_raw=max_raw,
        max_error_fused=max_fused,
        enu_origin=(origin.latitude, origin.longitude, origin.height),
        origin_from_anchor=scenario.origin_from_anchor,
        master_seed=scenario.seed,
    )


def _fmt(value) -> str:
    return "" if value is None else repr(float(value))


def write_outputs(table: EpochTable, summary: RunSummary, out_dir,
                  scenario_text: str | None = None):
    """Write OUTPUT_FILES: epochs.csv, summary.json and an optional scenario echo.

    table is run_simulation's EpochTable, or a slice of it; its columns
    are read directly, one CSV row per table row. Numbers are written at
    full precision (shortest round-trip repr). Each row's raw_err and
    fused_err are computed here, and only here: the distance from its
    true position to its fix (empty on a gap row) and to its fused
    position. Returns the paths written.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = {key: os.path.join(out_dir, name) for key, name in OUTPUT_FILES.items()}
    if scenario_text is None:
        del paths["scenario"]

    # Row by row: whole-column lists of floats would outweigh the table. No
    # cell needs CSV quoting, and csv.writer would hold a 128 KiB buffer.
    rows = zip(table.timestamp, table.true_position, table.fix, table.has_fix(),
               table.fused_mean[:, :3], table.n_detections)
    with open(paths["epochs"], "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\r\n")
        for t, true, fix, has_fix, fused, n_detections in rows:
            true, fused = true.tolist(), fused.tolist()
            est = fix.tolist() if has_fix else (None, None, None)
            raw_err = math.dist(est, true) if has_fix else None
            cells = (t, *true, *est, *fused, raw_err, math.dist(fused, true))
            fh.write(",".join([*map(_fmt, cells), str(n_detections)]) + "\r\n")

    with open(paths["summary"], "w", encoding="utf-8") as fh:
        json.dump(dataclasses.asdict(summary), fh, indent=2, sort_keys=True)
        fh.write("\n")

    if scenario_text is not None:
        with open(paths["scenario"], "w", encoding="utf-8") as fh:
            fh.write(scenario_text)
    return paths
