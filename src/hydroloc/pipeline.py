"""Scenario execution: simulate pings per epoch, localize, fuse, write out.

Every random draw comes from a child generator derived from the master
seed by splitmix-style mixing of (purpose tag, epoch index, anchor
index), so outputs are byte-identical for a given (scenario, seed) and
independent of evaluation order.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import logging
import os
from dataclasses import dataclass

import numpy as np

from .fusion import (
    ATMOSPHERIC_PRESSURE,
    STANDARD_GRAVITY,
    EkfState,
    PressureReading,
    ekf_predict,
    ekf_update_depth,
    ekf_update_fix,
    pressure_to_depth,
)
from .multilateration import Anchor, PositionEstimate, ga_localize
from .propagation import ping_paths, simulate_ping
from .scenario import Scenario

__all__ = [
    "EpochRecord",
    "RunSummary",
    "child_seed",
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

_MASK64 = (1 << 64) - 1

CSV_COLUMNS = (
    "t", "true_e", "true_n", "true_u",
    "est_e", "est_n", "est_u",
    "fused_e", "fused_n", "fused_u",
    "raw_err", "fused_err", "n_detections",
)


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def child_seed(master: int, *tags: int) -> int:
    """Derive an independent 64-bit stream seed from the master seed."""
    x = master & _MASK64
    for tag in tags:
        x = _splitmix64((x + (tag & _MASK64)) & _MASK64)
    return x


@dataclass(frozen=True, eq=False, slots=True)
class EpochRecord:
    """One ping epoch: truth, raw fix (if any) and the fused state."""

    timestamp: float
    true_position: np.ndarray
    n_detections: int
    estimate: PositionEstimate | None
    fused: EkfState
    raw_error: float | None
    fused_error: float


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

    Returns (true_position, reported_anchors, measurements, depth_measured).
    The acoustic paths use the true anchor positions; the reported anchors
    carry that epoch's GPS noise and are what the localizer sees.
    """
    true_pos = interpolate_position(scenario.waypoints, t)
    profile = scenario.profile
    anchors_true = np.asarray(scenario.anchor_enu, float)

    gps_rng = np.random.default_rng(child_seed(scenario.seed, _TAG_GPS, epoch_idx))
    noise = gps_rng.normal(0.0, 1.0, size=anchors_true.shape) * np.asarray(
        scenario.gps_noise_sigma
    )
    reported = anchors_true + noise
    # Keep reported hydrophone depths physical so the fitness model can
    # trace to them: at or below the surface, inside the column.
    reported[:, 2] = np.clip(reported[:, 2], -profile.total_depth, 0.0)
    anchors = [
        Anchor(id=aid, position=tuple(pos))
        for aid, pos in zip(scenario.anchor_ids, reported)
    ]

    # One kernel call traces every anchor; each then detects on its own noise stream.
    channel = scenario.channel
    tof, length, absorbed = ping_paths(profile, true_pos, anchors_true)
    measurements = []
    for a, aid in enumerate(scenario.anchor_ids):
        seed = child_seed(scenario.seed, _TAG_PING, epoch_idx, a)
        ping = simulate_ping(channel, aid, tof[a], length[a], absorbed[a], seed, t)
        if ping is not None:
            measurements.append(ping)

    pressure_rng = np.random.default_rng(
        child_seed(scenario.seed, _TAG_PRESSURE, epoch_idx)
    )
    true_depth = -float(true_pos[2])
    noisy_depth = max(
        0.0, true_depth + pressure_rng.normal(0.0, scenario.ekf.pressure_sigma_depth)
    )
    rho = scenario.ekf.water_density
    reading = PressureReading(
        pressure=ATMOSPHERIC_PRESSURE + rho * STANDARD_GRAVITY * noisy_depth,
        timestamp=t,
    )
    depth_measured = pressure_to_depth(reading, density=rho)
    return true_pos, anchors, measurements, depth_measured


def localize_epoch(scenario: Scenario, epoch_idx: int, anchors, measurements, trace=None):
    """One epoch's fix, or None when fewer than 4 distinct anchors were heard.

    The solver draws from the epoch's own child seed of the master seed;
    its covariance comes from the scenario's TOF and GPS noise.
    """
    if len({m.anchor_id for m in measurements}) < 4:
        return None
    return ga_localize(
        measurements, anchors, scenario.ga, scenario.profile,
        child_seed(scenario.seed, _TAG_GA, epoch_idx), trace=trace,
        tof_sigma=scenario.channel.tof_noise_sigma,
        anchor_sigma=scenario.gps_noise_sigma,
        sigma_floor=scenario.ekf.fix_sigma_floor,
    )


def _initial_state(scenario: Scenario) -> EkfState:
    bounds = scenario.ga.search_bounds
    mean = np.zeros(6)
    mean[0] = 0.5 * (bounds.east[0] + bounds.east[1])
    mean[1] = 0.5 * (bounds.north[0] + bounds.north[1])
    mean[2] = 0.5 * (bounds.up[0] + bounds.up[1])
    pos_var = scenario.ekf.initial_position_sigma**2
    vel_var = scenario.ekf.initial_velocity_sigma**2
    cov = np.diag([pos_var] * 3 + [vel_var] * 3)
    return EkfState(mean=mean, covariance=cov, timestamp=0.0)


def run_simulation(scenario: Scenario):
    """Run the full pipeline; returns (records, summary)."""
    ekf_cfg = scenario.ekf
    state = _initial_state(scenario)

    records: list[EpochRecord] = []
    total_detections = 0
    for epoch_idx, t in enumerate(epoch_times(scenario)):
        true_pos, anchors, measurements, depth_measured = simulate_epoch(
            scenario, epoch_idx, t
        )
        total_detections += len(measurements)

        estimate = localize_epoch(scenario, epoch_idx, anchors, measurements)
        if estimate is None:
            log.info(
                "epoch %d (t=%.3f): %d detections, skipping fix",
                epoch_idx, t, len(measurements),
            )

        state = ekf_predict(state, t - state.timestamp, ekf_cfg.accel_noise_density)
        if estimate is not None:
            state = ekf_update_fix(state, estimate, estimate.covariance)
        state = ekf_update_depth(
            state, depth_measured, ekf_cfg.pressure_sigma_depth**2
        )

        raw_error = (
            float(np.linalg.norm(estimate.position - true_pos))
            if estimate is not None
            else None
        )
        fused_error = float(np.linalg.norm(state.position - true_pos))
        records.append(
            EpochRecord(
                timestamp=t,
                true_position=true_pos,
                n_detections=len(measurements),
                estimate=estimate,
                fused=state,
                raw_error=raw_error,
                fused_error=fused_error,
            )
        )

    summary = _summarize(scenario, records, total_detections)
    return records, summary


def _rmse(values: np.ndarray) -> float:
    return float(np.sqrt(np.mean(values**2)))


def _summarize(scenario: Scenario, records, total_detections: int) -> RunSummary:
    n_epochs = len(records)
    fix_records = [r for r in records if r.estimate is not None]
    origin = scenario.enu_origin

    fused_diff = np.array([r.fused.position - r.true_position for r in records])
    rmse_fused_axes = tuple(_rmse(fused_diff[:, k]) for k in range(3))
    rmse_fused = _rmse(np.linalg.norm(fused_diff, axis=1))
    max_fused = float(np.max(np.linalg.norm(fused_diff, axis=1)))

    if fix_records:
        raw_diff = np.array(
            [r.estimate.position - r.true_position for r in fix_records]
        )
        rmse_raw_axes = tuple(_rmse(raw_diff[:, k]) for k in range(3))
        rmse_raw = _rmse(np.linalg.norm(raw_diff, axis=1))
        max_raw = float(np.max(np.linalg.norm(raw_diff, axis=1)))
    else:
        rmse_raw_axes = None
        rmse_raw = None
        max_raw = None

    return RunSummary(
        epochs=n_epochs,
        fix_epochs=len(fix_records),
        gap_epochs=n_epochs - len(fix_records),
        detection_rate=total_detections / (n_epochs * len(scenario.anchor_ids)),
        rmse_raw=rmse_raw,
        rmse_fused=rmse_fused,
        rmse_raw_axes=rmse_raw_axes,
        rmse_fused_axes=rmse_fused_axes,
        max_error_raw=max_raw,
        max_error_fused=max_fused,
        enu_origin=(origin.latitude_deg, origin.longitude_deg, origin.height),
        origin_from_anchor=scenario.origin_from_anchor,
        master_seed=scenario.seed,
    )


def _fmt(value) -> str:
    return "" if value is None else repr(float(value))


def write_outputs(records, summary: RunSummary, out_dir, scenario_text: str | None = None):
    """Write epochs.csv, summary.json and an optional scenario echo.

    Numbers are written at full precision (shortest round-trip repr).
    Returns the paths written.
    """
    os.makedirs(out_dir, exist_ok=True)
    epochs_path = os.path.join(out_dir, "epochs.csv")
    summary_path = os.path.join(out_dir, "summary.json")

    with open(epochs_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in records:
            est = r.estimate.position if r.estimate is not None else (None, None, None)
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
                    _fmt(r.raw_error),
                    _fmt(r.fused_error),
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
