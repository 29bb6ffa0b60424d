"""Scenario files: strict schema, validation and defaults.

A scenario is one YAML document whose nested keys mirror the
configuration types: the layer, channel, ga, ga.search_bounds and ekf
sections, enu_origin and each anchor's coordinates are read field by
field from their dataclasses, whose annotations and defaults are the
schema and whose checks are the validation. Parsing is strict: unknown
keys and non-finite numbers are rejected and validation failures name
the offending key. Angles are degrees, in the file and in GeodeticCoord.
"""

from __future__ import annotations

import math
import re
from dataclasses import MISSING, dataclass, fields
from functools import partial
from typing import get_type_hints

import yaml

from .environment import FREQUENCY_RANGE, Layer
from .fusion import SIGMA_RANGE, EkfConfig
from .geodesy import GeodeticCoord, geodetic_to_enu
from .multilateration import MIN_ANCHORS, GaConfig, SearchBounds
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

# Epochs one scenario may ask for; epoch_times builds a list this long.
MAX_EPOCHS = 1_000_000
# Longest ping interval, s: the filter's dt, whose dt**3 must stay finite
# (see fusion.ACCEL_NOISE_MAX).
PING_INTERVAL_MAX = 1e6
_AXES = ("east", "north", "up")
_KIND_NAMES = {float: "a finite number", int: "an integer", str: "a string",
               list: "a list", dict: "a mapping"}
_STR_TAG = "tag:yaml.org,2002:str"
# YAML 1.1 reads a zero-padded integer in base 8 (010 is 8) and a colon
# number in base 60 (2:30 is 150); YAML 1.2 has neither, so both stay strings.
_YAML11_NUMBER = re.compile(r"[-+]?(?:0[0-9_]+|[0-9_]*:[0-9_:.]*)")


class _Loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """The safe loader, on libyaml's parser where PyYAML was built with it.

    A string key repeated within one mapping is an error at the repeated
    key, where PyYAML would keep the last value.
    """

    def resolve(self, kind, value, implicit):
        if kind is yaml.ScalarNode and implicit[0] and _YAML11_NUMBER.fullmatch(value):
            return _STR_TAG
        return super().resolve(kind, value, implicit)

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


# YAML 1.1 reads 1.0e-3 as a float but 1e-3 and 1e3 as strings. Add the
# exponent forms of the YAML 1.2 core schema; float() reads every match.
_Loader.add_implicit_resolver("tag:yaml.org,2002:float", re.compile(
    r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)[eE][-+]?[0-9]+$"), list("-+.0123456789"))


class ScenarioError(ValueError):
    """A scenario file failed to parse or validate."""


@dataclass(frozen=True)
class Scenario:
    """A fully validated simulation setup; only parse_scenario sets anchor_enu and epochs."""

    profile: ChannelProfile  # the water column's acoustics at the carrier frequency
    channel: ChannelConfig
    anchor_ids: tuple[str, ...]
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


def _check_unknown(node: dict, allowed, ctx: str) -> None:
    # YAML keys need not be strings, nor of one type.
    unknown = sorted(set(node) - set(allowed), key=str)
    if unknown:
        raise ScenarioError(f"{ctx}: unknown key '{unknown[0]}'")


def _typed(value, kind, where: str):
    """Check one value against a kind: float, int, str, list or dict.

    Integers are accepted as floats, booleans are never numbers and floats
    must be finite. The error names where, then a list or mapping by its
    type and any other value by its repr.
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
    elif kind in (str, list, dict) and isinstance(value, kind):
        return value
    got = type(value).__name__ if kind in (list, dict) else repr(value)
    raise ScenarioError(f"{where}: expected {_KIND_NAMES[kind]}, got {got}")


def _read(node: dict, key: str, ctx: str, kind=float, default=MISSING):
    """Read key of the mapping node, named ctx; every scenario key is read here.

    An absent key takes default, or is an error without one. The key is
    named bare in the root ("scenario") and as "ctx.key" in a section. kind
    is a type for _typed, or a parser called as kind(value, name).
    """
    if key not in node:
        if default is MISSING:
            raise ScenarioError(f"{ctx}: missing required key '{key}'")
        return default
    where = key if ctx == "scenario" else f"{ctx}.{key}"
    if kind in _KIND_NAMES:
        return _typed(node[key], kind, where)
    return kind(node[key], where)


def _read_config(cls, node, ctx: str, **parsers):
    """Build the config dataclass cls from the scenario section node, named ctx.

    The fields of cls are the section's keys, each read by _read with its
    annotation as the kind, or parsers[name] for a structured value, and
    its default. The checks of cls raise ValueError("field: problem"),
    reported here as "ctx.field: problem".
    """
    section = _typed(node, dict, ctx)
    _check_unknown(section, [f.name for f in fields(cls)], ctx)
    kinds = get_type_hints(cls)
    values = {f.name: _read(section, f.name, ctx, parsers.get(f.name, kinds[f.name]), f.default)
              for f in fields(cls)}
    try:
        return cls(**values)
    except ValueError as exc:
        raise ScenarioError(f"{ctx}.{exc}") from None


def _parse_profile(node: dict) -> ChannelProfile:
    section = _read(node, "water_column", "scenario", dict)
    _check_unknown(section, ("layers",), "water_column")
    layers = [
        _read_config(Layer, item, f"water_column.layers[{i}]")
        for i, item in enumerate(_read(section, "layers", "water_column", list))
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


def _parse_anchors(node: dict):
    items = _read(node, "anchors", "scenario", list)
    if len(items) < MIN_ANCHORS:
        raise ScenarioError(
            f"anchors: at least {MIN_ANCHORS} anchors are required, got {len(items)}"
        )
    ids, coords = [], []
    for i, item in enumerate(items):
        ctx = f"anchors[{i}]"
        m = _typed(item, dict, ctx)
        anchor_id = _read(m, "id", ctx, str)
        if anchor_id in ids:
            raise ScenarioError(f"{ctx}.id: duplicate anchor id {anchor_id!r}")
        ids.append(anchor_id)
        coords.append(_read_config(GeodeticCoord, {k: v for k, v in m.items() if k != "id"}, ctx))
    return tuple(ids), tuple(coords)


def _parse_axes(node, ctx: str, defaults) -> tuple[float, float, float]:
    m = _typed(node, dict, ctx)
    _check_unknown(m, _AXES, ctx)
    return tuple(_read(m, axis, ctx, float, d) for axis, d in zip(_AXES, defaults))


def _parse_gps_sigma(node: dict) -> tuple[float, float, float]:
    zeros = (0.0,) * 3
    sigma = _read(node, "gps_noise_sigma", "scenario", partial(_parse_axes, defaults=zeros), zeros)
    # The EKF sigmas' ceiling keeps the solver's squared residuals finite.
    hi = SIGMA_RANGE[1]
    for axis, value in zip(_AXES, sigma):
        if not 0 <= value <= hi:
            raise ScenarioError(
                f"gps_noise_sigma.{axis}: must be within [0, {hi}], got {value}"
            )
    return sigma


def _parse_trajectory(node: dict, bounds: SearchBounds):
    items = _read(node, "trajectory", "scenario", list)
    if len(items) < 2:
        raise ScenarioError(f"trajectory: at least 2 waypoints are required, got {len(items)}")
    waypoints = []
    for i, item in enumerate(items):
        ctx = f"trajectory[{i}]"
        m = _typed(item, dict, ctx)
        keys = ("time", *_AXES)
        _check_unknown(m, keys, ctx)
        t, e, n, u = (_read(m, key, ctx) for key in keys)
        for axis, value in zip(_AXES, (e, n, u)):
            lo, hi = getattr(bounds, axis)
            if not lo <= value <= hi:
                raise ScenarioError(
                    f"{ctx}.{axis}: {value} m outside ga.search_bounds.{axis} [{lo}, {hi}]"
                )
        waypoints.append((t, e, n, u))
    if waypoints[0][0] != 0.0:
        raise ScenarioError(f"trajectory[0].time: must be 0.0, got {waypoints[0][0]}")
    for i in range(1, len(waypoints)):
        if waypoints[i][0] <= waypoints[i - 1][0]:
            raise ScenarioError(
                f"trajectory[{i}].time: timestamps must be strictly increasing"
            )
    return tuple(waypoints)


def _pair(value, where: str) -> tuple[float, float]:
    if not isinstance(value, list) or len(value) != 2:
        raise ScenarioError(f"{where}: expected [low, high], got {value!r}")
    return tuple(_typed(v, float, where) for v in value)


def _parse_ga(node: dict, profile: ChannelProfile) -> GaConfig:
    bounds = partial(_read_config, SearchBounds, **dict.fromkeys(_AXES, _pair))
    ga = _read(node, "ga", "scenario", partial(_read_config, GaConfig, search_bounds=bounds))
    if -ga.search_bounds.up[0] > profile.total_depth:
        raise ScenarioError(
            f"ga.search_bounds.up: reaches {-ga.search_bounds.up[0]} m, below the "
            f"{profile.total_depth} m water column"
        )
    return ga


def _parse_ekf(node: dict) -> EkfConfig:
    accel = partial(_parse_axes, defaults=EkfConfig.accel_noise_density)
    ekf = partial(_read_config, EkfConfig, accel_noise_density=accel)
    return _read(node, "ekf", "scenario", ekf, EkfConfig())


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document from YAML text."""
    try:
        root = yaml.load(text, Loader=_Loader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" (line {mark.line + 1}, column {mark.column + 1})" if mark else ""
        raise ScenarioError(f"scenario does not parse{where}: {exc}") from None
    root = _typed(root, dict, "scenario")

    allowed = (
        "water_column", "carrier_frequency", "channel", "anchors",
        "gps_noise_sigma", "enu_origin", "trajectory", "ping_interval",
        "ga", "ekf", "seed",
    )
    _check_unknown(root, allowed, "scenario")

    profile = _parse_profile(root)
    channel = _read(root, "channel", "scenario", partial(_read_config, ChannelConfig))
    anchor_ids, anchor_coords = _parse_anchors(root)
    gps_sigma = _parse_gps_sigma(root)

    origin_from_anchor = "enu_origin" not in root
    coord = partial(_read_config, GeodeticCoord)
    origin = _read(root, "enu_origin", "scenario", coord, anchor_coords[0])

    ga = _parse_ga(root, profile)
    waypoints = _parse_trajectory(root, ga.search_bounds)
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
        east, north, up = geodetic_to_enu(g, origin)
        # Allow micrometre-scale round-off above the surface, pinned back
        # to 0 so path tracing sees a valid depth.
        if not -profile.total_depth <= up <= 1e-6:
            raise ScenarioError(
                f"anchors[{i}]: ENU depth {-up:.3f} m falls outside the water "
                "column; check anchor heights against the ENU origin"
            )
        anchor_enu.append((east, north, min(up, 0.0)))

    return Scenario(
        profile=profile,
        channel=channel,
        anchor_ids=anchor_ids,
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
