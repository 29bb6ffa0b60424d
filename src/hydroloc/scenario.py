"""Scenario files: strict schema, validation and defaults.

A scenario is one YAML document whose nested keys mirror the
configuration types: the layer, channel, ga and ekf sections are read
field by field from their dataclasses, whose annotations and defaults
are the schema. Parsing is strict: unknown keys and non-finite numbers
are rejected and validation failures name the offending key. Angles are
degrees in the file and radians internally.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from typing import get_type_hints

import yaml

from .environment import FREQUENCY_RANGE, Layer
from .fusion import SIGMA_RANGE, EkfConfig
from .geodesy import GeodeticCoord, geodetic_to_enu
from .multilateration import GaConfig, SearchBounds
from .propagation import ChannelConfig, ChannelProfile

__all__ = [
    "MAX_EPOCHS",
    "PING_INTERVAL_MAX",
    "ScenarioError",
    "Scenario",
    "load_scenario",
    "parse_scenario",
    "read_scenario_text",
]

_REQUIRED = object()
# Epochs one scenario may ask for; epoch_times builds a list this long.
MAX_EPOCHS = 1_000_000
# Longest ping interval, s: the filter's dt, whose dt**3 must stay finite
# (see fusion.ACCEL_NOISE_MAX).
PING_INTERVAL_MAX = 1e6
_AXES = ("east", "north", "up")
_KIND_NAMES = {float: "a finite number", int: "an integer", bool: "a boolean", str: "a string"}
_STR_TAG = "tag:yaml.org,2002:str"


class _Loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """The safe loader, on libyaml's parser where PyYAML was built with it.

    A string key repeated within one mapping is an error at the repeated
    key, where PyYAML would keep the last value.
    """

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            if not isinstance(key_node, yaml.ScalarNode) or key_node.tag != _STR_TAG:
                continue  # merge keys and non-string keys go to the base loader
            if key_node.value in seen:
                raise yaml.constructor.ConstructorError(
                    "while constructing a mapping", node.start_mark,
                    f"found duplicate key {key_node.value!r}", key_node.start_mark,
                )
            seen.add(key_node.value)
        return super().construct_mapping(node, deep=deep)


class ScenarioError(ValueError):
    """A scenario file failed to parse or validate."""


@dataclass(frozen=True)
class Scenario:
    """A fully validated simulation setup; only parse_scenario sets anchor_enu and epochs."""

    profile: ChannelProfile  # the water column's acoustics at the carrier frequency
    channel: ChannelConfig
    anchor_ids: tuple[str, ...]
    anchor_positions: tuple[GeodeticCoord, ...]
    anchor_enu: tuple[tuple[float, float, float], ...]  # m, up <= 0
    gps_noise_sigma: tuple[float, float, float]  # m per ENU axis
    enu_origin: GeodeticCoord
    origin_from_anchor: bool
    waypoints: tuple[tuple[float, float, float, float], ...]  # (time, e, n, u)
    ping_interval: float  # s
    epochs: int  # pings at 0, ping_interval, ... up to the last waypoint
    ga: GaConfig
    ekf: EkfConfig
    seed: int

    def anchors_enu(self):
        """anchor_enu, by the name the benchmark harness's self-test reads."""
        return self.anchor_enu


def _mapping(node, ctx: str) -> dict:
    if not isinstance(node, dict):
        raise ScenarioError(f"{ctx}: expected a mapping, got {type(node).__name__}")
    return node


def _check_unknown(node: dict, allowed, ctx: str) -> None:
    # YAML keys need not be strings, nor of one type.
    unknown = sorted(set(node) - set(allowed), key=str)
    if unknown:
        raise ScenarioError(f"{ctx}: unknown key '{unknown[0]}'")


def _get(node: dict, key: str, ctx: str, default=_REQUIRED):
    if key not in node:
        if default is _REQUIRED:
            raise ScenarioError(f"{ctx}: missing required key '{key}'")
        return default
    return node[key]


def _typed(value, kind, where: str):
    """Check one value against a config field type.

    kind is float, int, bool or str. Integers are accepted as floats,
    booleans are never numbers and floats must be finite; where names
    the key in the error.
    """
    if kind is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf
        if math.isfinite(number):
            return number
    elif kind is int and isinstance(value, int) and not isinstance(value, bool):
        return value
    elif kind in (bool, str) and isinstance(value, kind):
        return value
    raise ScenarioError(f"{where}: expected {_KIND_NAMES[kind]}, got {value!r}")


def _read(node: dict, key: str, ctx: str, kind=float, default=_REQUIRED):
    if key not in node:
        return _get(node, key, ctx, default)
    return _typed(node[key], kind, f"{ctx}.{key}")


def _read_config(cls, node, ctx: str, **parsers):
    """Build the config dataclass cls from one scenario section.

    The fields of cls are the section's keys: their annotations give the
    value types and their defaults fill absent keys. A field with a
    structured value is read by parsers[name](value, key_path) instead.
    The checks of cls raise ValueError("field: problem"), reported here
    as "ctx.field: problem".
    """
    section = _mapping(node, ctx)
    _check_unknown(section, [f.name for f in fields(cls)], ctx)
    kinds = get_type_hints(cls)
    values = {}
    for f in fields(cls):
        where = f"{ctx}.{f.name}"
        if f.name not in section:
            if f.default is MISSING:
                raise ScenarioError(f"{ctx}: missing required key '{f.name}'")
        elif f.name in parsers:
            values[f.name] = parsers[f.name](section[f.name], where)
        else:
            values[f.name] = _typed(section[f.name], kinds[f.name], where)
    try:
        return cls(**values)
    except ValueError as exc:
        raise ScenarioError(f"{ctx}.{exc}") from None


def _sequence(node: dict, key: str, ctx: str) -> list:
    value = _get(node, key, ctx)
    if not isinstance(value, list):
        raise ScenarioError(f"{ctx}.{key}: expected a list, got {type(value).__name__}")
    return value


def _parse_profile(node: dict) -> ChannelProfile:
    section = _mapping(_get(node, "water_column", "scenario"), "water_column")
    _check_unknown(section, ("layers",), "water_column")
    layers = [
        _read_config(Layer, item, f"water_column.layers[{i}]")
        for i, item in enumerate(_sequence(section, "layers", "water_column"))
    ]
    carrier = _read(node, "carrier_frequency", "scenario")
    lo, hi = FREQUENCY_RANGE
    if not lo <= carrier <= hi:
        raise ScenarioError(
            f"carrier_frequency: must be within [{lo}, {hi}] kHz, got {carrier}"
        )
    try:
        return ChannelProfile.from_layers(layers, carrier)
    except ValueError as exc:
        raise ScenarioError(f"water_column.layers: {exc}") from None


def _parse_geodetic(m: dict, ctx: str) -> GeodeticCoord:
    latitude, longitude = _read(m, "latitude", ctx), _read(m, "longitude", ctx)
    height = _read(m, "height", ctx, float, GeodeticCoord.height)
    if not -90.0 <= latitude <= 90.0:
        raise ScenarioError(f"{ctx}.latitude: must be within [-90, 90], got {latitude}")
    if not -180.0 < longitude <= 180.0:
        raise ScenarioError(f"{ctx}.longitude: must be within (-180, 180], got {longitude}")
    # These degree ranges convert exactly onto GeodeticCoord's radian ranges.
    return GeodeticCoord.from_degrees(latitude, longitude, height)


def _parse_anchors(node: dict):
    items = _sequence(node, "anchors", "scenario")
    if len(items) < 4:
        raise ScenarioError(f"anchors: at least 4 anchors are required, got {len(items)}")
    ids, coords = [], []
    for i, item in enumerate(items):
        ctx = f"anchors[{i}]"
        m = _mapping(item, ctx)
        _check_unknown(m, ("id", "latitude", "longitude", "height"), ctx)
        anchor_id = _read(m, "id", ctx, str)
        if anchor_id in ids:
            raise ScenarioError(f"{ctx}.id: duplicate anchor id {anchor_id!r}")
        ids.append(anchor_id)
        coords.append(_parse_geodetic(m, ctx))
    return tuple(ids), tuple(coords)


def _parse_axes(node, ctx: str, defaults) -> tuple[float, float, float]:
    m = _mapping(node, ctx)
    _check_unknown(m, _AXES, ctx)
    return tuple(_read(m, axis, ctx, float, d) for axis, d in zip(_AXES, defaults))


def _parse_gps_sigma(node: dict) -> tuple[float, float, float]:
    sigma = _parse_axes(node.get("gps_noise_sigma", {}), "gps_noise_sigma", (0.0,) * 3)
    # The EKF sigmas' ceiling keeps the solver's squared residuals finite.
    hi = SIGMA_RANGE[1]
    for axis, value in zip(_AXES, sigma):
        if not 0 <= value <= hi:
            raise ScenarioError(
                f"gps_noise_sigma.{axis}: must be within [0, {hi}], got {value}"
            )
    return sigma


def _parse_trajectory(node: dict, profile: ChannelProfile, bounds: SearchBounds):
    items = _sequence(node, "trajectory", "scenario")
    if len(items) < 2:
        raise ScenarioError(
            f"trajectory: at least 2 waypoints are required, got {len(items)}"
        )
    waypoints = []
    for i, item in enumerate(items):
        ctx = f"trajectory[{i}]"
        m = _mapping(item, ctx)
        keys = ("time", *_AXES)
        _check_unknown(m, keys, ctx)
        t, e, n, u = (_read(m, key, ctx) for key in keys)
        if not 0.0 <= -u <= profile.total_depth:
            raise ScenarioError(
                f"{ctx}.up: depth {-u} m outside the water column "
                f"[0, {profile.total_depth}]"
            )
        for axis, value in zip(_AXES, (e, n, u)):
            lo, hi = getattr(bounds, axis)
            if not lo <= value <= hi:
                raise ScenarioError(
                    f"{ctx}.{axis}: {value} m outside ga.search_bounds.{axis} [{lo}, {hi}]"
                )
        waypoints.append((t, e, n, u))
    if waypoints[0][0] != 0.0:
        raise ScenarioError(
            f"trajectory[0].time: must be 0.0, got {waypoints[0][0]}"
        )
    for i in range(1, len(waypoints)):
        if waypoints[i][0] <= waypoints[i - 1][0]:
            raise ScenarioError(
                f"trajectory[{i}].time: timestamps must be strictly increasing"
            )
    return tuple(waypoints)


def _parse_bounds(node, ctx: str) -> SearchBounds:
    m = _mapping(node, ctx)
    _check_unknown(m, _AXES, ctx)
    spans = {}
    for axis in _AXES:
        raw = _get(m, axis, ctx)
        if not isinstance(raw, list) or len(raw) != 2:
            raise ScenarioError(f"{ctx}.{axis}: expected [low, high], got {raw!r}")
        spans[axis] = tuple(_typed(v, float, f"{ctx}.{axis}") for v in raw)
    try:
        return SearchBounds(**spans)
    except ValueError as exc:
        raise ScenarioError(f"{ctx}.{exc}") from None


def _parse_ga(node: dict, profile: ChannelProfile) -> GaConfig:
    section = _get(node, "ga", "scenario")
    ga = _read_config(GaConfig, section, "ga", search_bounds=_parse_bounds)
    if -ga.search_bounds.up[0] > profile.total_depth:
        raise ScenarioError(
            f"ga.search_bounds.up: reaches {-ga.search_bounds.up[0]} m, below the "
            f"{profile.total_depth} m water column"
        )
    return ga


def _parse_ekf(node: dict) -> EkfConfig:
    def accel(value, ctx):
        return _parse_axes(value, ctx, EkfConfig.accel_noise_density)

    return _read_config(EkfConfig, node.get("ekf", {}), "ekf", accel_noise_density=accel)


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document from YAML text."""
    try:
        root = yaml.load(text, Loader=_Loader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" (line {mark.line + 1}, column {mark.column + 1})" if mark else ""
        raise ScenarioError(f"scenario does not parse{where}: {exc}") from None
    root = _mapping(root, "scenario")

    allowed = (
        "water_column", "carrier_frequency", "channel", "anchors",
        "gps_noise_sigma", "enu_origin", "trajectory", "ping_interval",
        "ga", "ekf", "seed",
    )
    _check_unknown(root, allowed, "scenario")

    profile = _parse_profile(root)
    channel = _read_config(ChannelConfig, _get(root, "channel", "scenario"), "channel")
    anchor_ids, anchor_coords = _parse_anchors(root)
    gps_sigma = _parse_gps_sigma(root)

    origin_from_anchor = "enu_origin" not in root
    if origin_from_anchor:
        origin = anchor_coords[0]
    else:
        m = _mapping(root["enu_origin"], "enu_origin")
        _check_unknown(m, ("latitude", "longitude", "height"), "enu_origin")
        origin = _parse_geodetic(m, "enu_origin")

    ga = _parse_ga(root, profile)
    waypoints = _parse_trajectory(root, profile, ga.search_bounds)
    ping_interval = _read(root, "ping_interval", "scenario")
    if ping_interval <= 0:
        raise ScenarioError(f"ping_interval: must be > 0, got {ping_interval}")
    if ping_interval > PING_INTERVAL_MAX:
        raise ScenarioError(
            f"ping_interval: must be <= {PING_INTERVAL_MAX} s, got {ping_interval}"
        )

    # Compare as floats first: the epoch count may not fit an int.
    steps = waypoints[-1][0] / ping_interval + 1e-9
    if not steps < MAX_EPOCHS:
        raise ScenarioError(
            f"ping_interval: {ping_interval} s over the {waypoints[-1][0]} s "
            f"trajectory gives more than {MAX_EPOCHS} epochs"
        )

    ekf = _parse_ekf(root)
    seed = _read(root, "seed", "scenario", int, 0)

    anchor_enu = []
    for i, g in enumerate(anchor_coords):
        p = geodetic_to_enu(g, origin)
        # Allow micrometre-scale round-off above the surface, pinned back
        # to 0 so path tracing sees a valid depth.
        if not -profile.total_depth <= p.up <= 1e-6:
            raise ScenarioError(
                f"anchors[{i}]: ENU depth {-p.up:.3f} m falls outside the water "
                "column; check anchor heights against the ENU origin"
            )
        anchor_enu.append((p.east, p.north, min(p.up, 0.0)))

    return Scenario(
        profile=profile,
        channel=channel,
        anchor_ids=anchor_ids,
        anchor_positions=anchor_coords,
        anchor_enu=tuple(anchor_enu),
        gps_noise_sigma=gps_sigma,
        enu_origin=origin,
        origin_from_anchor=origin_from_anchor,
        waypoints=waypoints,
        ping_interval=ping_interval,
        epochs=math.floor(steps) + 1,
        ga=ga,
        ekf=ekf,
        seed=seed,
    )


def read_scenario_text(path) -> str:
    """Read a scenario file's text, for parse_scenario and the run echo."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from None


def load_scenario(path) -> Scenario:
    """Load and validate a scenario file."""
    return parse_scenario(read_scenario_text(path))
