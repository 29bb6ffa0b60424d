"""Scenario execution: simulate pings per epoch, localize, fuse, write out.

Every random draw comes from a SplitMix64 Stream whose seed child_seed
mixes from the master seed and (purpose tag, epoch index, anchor index),
so outputs are byte-identical for a given (scenario, seed) and
independent of evaluation order.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import logging
import math
import os
from dataclasses import dataclass

import numpy as np

from .fusion import EkfState, ekf_predict, ekf_update_depth, ekf_update_fix
from .multilateration import PositionEstimate, ga_localize
from .propagation import ping_paths, simulate_ping
from .scenario import Scenario
from .streams import Stream, child_seed

__all__ = [
    "EpochRecord",
    "RunSummary",
    "simulate_epoch",
    "localize_epoch",
    "run_simulation",
    "write_outputs",
    "CSV_COLUMNS",
]

log = logging.getLogger(__name__)

# Purpose tags for child seed derivation.
_TAG_GPS = 1
_TAG_PING = 2
_TAG_PRESSURE = 3
_TAG_GA = 4

CSV_COLUMNS = (
    "t", "true_e", "true_n", "true_u",
    "est_e", "est_n", "est_u",
    "fused_e", "fused_n", "fused_u",
    "raw_err", "fused_err", "n_detections",
)


@dataclass(frozen=True, eq=False, slots=True)
class EpochRecord:
    """One ping epoch: truth, raw fix (if any) and the fused state.

    It holds no errors; write_outputs and _summarize derive them from these.
    """

    timestamp: float
    true_position: np.ndarray
    n_detections: int
    estimate: PositionEstimate | None
    fused: EkfState


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
    """One epoch's fix from its heard anchors, or None when fewer than 4 were heard.

    reported and tofs are simulate_epoch's; a NaN TOF is an anchor not
    heard. The solver draws from the epoch's own child seed of the master
    seed; its covariance comes from the scenario's TOF and GPS noise.
    """
    heard = ~np.isnan(tofs)
    if heard.sum() < 4:
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
    """Run the full pipeline; returns (records, summary)."""
    ekf_cfg = scenario.ekf
    state = _initial_state(scenario)

    records: list[EpochRecord] = []
    for epoch_idx, t in enumerate(epoch_times(scenario)):
        true_pos, reported, tofs, depth_measured = simulate_epoch(scenario, epoch_idx, t)
        n_detections = int(np.count_nonzero(~np.isnan(tofs)))

        estimate = localize_epoch(scenario, epoch_idx, reported, tofs)
        if estimate is None:
            log.info("epoch %d (t=%.3f): %d detections, skipping fix", epoch_idx, t, n_detections)

        state = ekf_predict(state, t - state.timestamp, ekf_cfg.accel_noise_density)
        if estimate is not None:
            state = ekf_update_fix(state, estimate.position, estimate.covariance)
        state = ekf_update_depth(
            state, depth_measured, ekf_cfg.pressure_sigma_depth**2
        )

        records.append(
            EpochRecord(
                timestamp=t,
                true_position=true_pos,
                n_detections=n_detections,
                estimate=estimate,
                fused=state,
            )
        )

    summary = _summarize(scenario, records)
    return records, summary


def _rmse(values: np.ndarray) -> float:
    return float(np.sqrt(np.mean(values**2)))


def _error_stats(diff: np.ndarray):
    """(3-D RMSE, per-axis RMSEs, maximum) of position errors (K, 3), m."""
    norms = np.linalg.norm(diff, axis=1)
    return _rmse(norms), tuple(_rmse(diff[:, k]) for k in range(3)), float(np.max(norms))


def _summarize(scenario: Scenario, records) -> RunSummary:
    n_epochs = len(records)
    fix_records = [r for r in records if r.estimate is not None]
    detections = sum(r.n_detections for r in records)
    origin = scenario.enu_origin

    rmse_fused, rmse_fused_axes, max_fused = _error_stats(
        np.array([r.fused.position - r.true_position for r in records])
    )
    rmse_raw = rmse_raw_axes = max_raw = None
    if fix_records:
        rmse_raw, rmse_raw_axes, max_raw = _error_stats(
            np.array([r.estimate.position - r.true_position for r in fix_records])
        )

    return RunSummary(
        epochs=n_epochs,
        fix_epochs=len(fix_records),
        gap_epochs=n_epochs - len(fix_records),
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


def write_outputs(records, summary: RunSummary, out_dir, scenario_text: str | None = None):
    """Write epochs.csv, summary.json and an optional scenario echo.

    Numbers are written at full precision (shortest round-trip repr).
    Each row's raw_err and fused_err are computed here, and only here: the
    distance from its true position to its fix (empty on a gap row) and to
    its fused position. Returns the paths written.
    """
    os.makedirs(out_dir, exist_ok=True)
    epochs_path = os.path.join(out_dir, "epochs.csv")
    summary_path = os.path.join(out_dir, "summary.json")

    with open(epochs_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in records:
            est = r.estimate.position if r.estimate is not None else (None, None, None)
            raw_err = math.dist(est, r.true_position) if r.estimate is not None else None
            writer.writerow(
                [
                    _fmt(r.timestamp),
                    _fmt(r.true_position[0]),
                    _fmt(r.true_position[1]),
                    _fmt(r.true_position[2]),
                    _fmt(est[0]),
                    _fmt(est[1]),
                    _fmt(est[2]),
                    _fmt(r.fused.position[0]),
                    _fmt(r.fused.position[1]),
                    _fmt(r.fused.position[2]),
                    _fmt(raw_err),
                    _fmt(math.dist(r.fused.position, r.true_position)),
                    str(r.n_detections),
                ]
            )

    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(dataclasses.asdict(summary), fh, indent=2, sort_keys=True)
        fh.write("\n")

    paths = {"epochs": epochs_path, "summary": summary_path}
    if scenario_text is not None:
        echo_path = os.path.join(out_dir, "scenario.yaml")
        with open(echo_path, "w", encoding="utf-8") as fh:
            fh.write(scenario_text)
        paths["scenario"] = echo_path
    return paths
