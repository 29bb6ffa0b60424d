"""Benchmark workloads: scenario templates turned into YAML by a seed.

Each workload is a template (a plain dict in the scenario schema) plus
the workload seed, from which the scenarios' master seeds are derived.
The seed therefore drives every noise draw (GPS scatter, TOF jitter,
pressure noise, GA streams) while the geometry stays fixed. The program sees
only the generated YAML text. Templates live here, not in the repo's
``scenarios/`` directory, so that a change to a shipped scenario cannot
silently change the benchmark's inputs.
"""

from __future__ import annotations

import copy
import math
from collections.abc import Callable
from dataclasses import dataclass

import yaml

# scenarios/canonical_noisy.yaml as shipped, without its seed.
_CANONICAL_NOISY = {
    "water_column": {
        "layers": [
            {"thickness": 30.0, "temperature": 16.0, "salinity": 35.2, "ph": 8.05},
            {"thickness": 50.0, "temperature": 12.5, "salinity": 35.5, "ph": 8.0},
            {"thickness": 70.0, "temperature": 9.5, "salinity": 35.8, "ph": 7.95},
        ]
    },
    "carrier_frequency": 25.0,
    "channel": {
        "source_level": 170.0,
        "noise_level": 50.0,
        "detection_threshold": 10.0,
        "tof_noise_sigma": 0.001,
        "path_model": "refracted",
    },
    "enu_origin": {"latitude": 41.185, "longitude": -8.706, "height": 0.0},
    "anchors": [
        {"id": "ne", "latitude": 41.18590042833899, "longitude": -8.704808081412018,
         "height": 0.001568567007780075},
        {"id": "se", "latitude": 41.184099559185285, "longitude": -8.704808114066248,
         "height": 0.001568567007780075},
        {"id": "nw", "latitude": 41.18590042833899, "longitude": -8.707191918587982,
         "height": 0.001568567007780075},
        {"id": "sw", "latitude": 41.18409955918528, "longitude": -8.707191885933751,
         "height": 0.0015685679391026497},
    ],
    "gps_noise_sigma": {"east": 1.0, "north": 1.0, "up": 0.0},
    "trajectory": [
        {"time": 0.0, "east": -60.0, "north": -40.0, "up": -45.0},
        {"time": 150.0, "east": 60.0, "north": -40.0, "up": -55.0},
        {"time": 300.0, "east": 60.0, "north": 40.0, "up": -60.0},
        {"time": 450.0, "east": -60.0, "north": 40.0, "up": -50.0},
        {"time": 595.0, "east": -60.0, "north": -35.0, "up": -45.0},
    ],
    "ping_interval": 5.0,
    "ga": {
        "population_size": 100,
        "generations": 140,
        "search_bounds": {
            "east": [-150.0, 150.0], "north": [-150.0, 150.0], "up": [-80.0, 0.0],
        },
    },
    "ekf": {
        "accel_noise_density": {"east": 0.001, "north": 0.001, "up": 0.001},
        "initial_position_sigma": 100.0,
        "initial_velocity_sigma": 1.0,
        "fix_sigma_floor": 0.5,
        "pressure_sigma_depth": 0.1,
        "water_density": 1025.0,
    },
}

# WGS84, for placing ring anchors without calling the code under test.
_WGS84_A = 6378137.0
_WGS84_E2 = 6.69437999014e-3


def _ring_anchors(origin: dict, radius: float, count: int) -> list[dict]:
    """Surface anchors evenly spaced on a horizontal ring around origin.

    Uses the local meridian and prime-vertical radii of curvature, which
    place the anchors within millimetres of the ring at this scale.
    """
    lat = math.radians(origin["latitude"])
    w = 1.0 - _WGS84_E2 * math.sin(lat) ** 2
    prime_vertical = _WGS84_A / math.sqrt(w)
    meridian = _WGS84_A * (1.0 - _WGS84_E2) / w**1.5
    anchors = []
    for k in range(count):
        bearing = 2.0 * math.pi * k / count
        east, north = radius * math.sin(bearing), radius * math.cos(bearing)
        anchors.append({
            "id": f"a{k}",
            "latitude": origin["latitude"] + math.degrees(north / meridian),
            "longitude": origin["longitude"]
            + math.degrees(east / (prime_vertical * math.cos(lat))),
            # Lift the anchor by the Earth's curvature drop so it sits at up = 0.
            "height": radius**2 / (2.0 * prime_vertical),
        })
    return anchors


def _survey_layered() -> dict:
    t = copy.deepcopy(_CANONICAL_NOISY)
    # 40 epochs over the 595 s trajectory instead of the shipped 120, so
    # that one run has time to repeat the scenario.
    t["ping_interval"] = 595.0 / 39.0
    return t


def _survey_isovelocity() -> dict:
    t = copy.deepcopy(_CANONICAL_NOISY)
    t["water_column"]["layers"] = [
        {"thickness": 150.0, "temperature": 12.0, "salinity": 35.5, "ph": 8.0},
    ]
    return t


def _tracking_dense() -> dict:
    t = copy.deepcopy(_CANONICAL_NOISY)
    t["anchors"] = _ring_anchors(t["enu_origin"], radius=120.0, count=8)
    # 600 epochs over the 595 s trajectory.
    t["ping_interval"] = 595.0 / 599.0
    t["channel"]["detection_threshold"] = 76.3
    t["ga"].update(population_size=40, generations=30, fitness_mode="range_residual")
    return t


@dataclass(frozen=True)
class Workload:
    """A scenario template, its size and its correctness ceilings.

    A workload seed expands to ``subseeds`` scenarios with master seeds
    seed * subseeds + k; accuracy is pooled over them, which narrows its
    seed-to-seed spread.
    """

    name: str
    template: Callable[[], dict]
    epochs: int
    subseeds: int
    # Correctness ceilings: a run above either RMSE is rejected.
    max_rmse_raw_m: float
    max_rmse_fused_m: float

    def scenario_dict(self, master_seed: int) -> dict:
        d = self.template()
        d["seed"] = int(master_seed)
        return d

    def scenario_yamls(self, seed: int) -> list[str]:
        return [
            yaml.safe_dump(self.scenario_dict(seed * self.subseeds + k), sort_keys=False)
            for k in range(self.subseeds)
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("survey_layered", _survey_layered, 40, 3, 5.0, 3.0),
        Workload("survey_isovelocity", _survey_isovelocity, 120, 3, 5.0, 3.0),
        Workload("tracking_dense", _tracking_dense, 600, 3, 6.0, 5.0),
    )
}
