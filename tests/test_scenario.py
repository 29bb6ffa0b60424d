import copy
import csv
import json
import math
import re
import textwrap
import warnings
from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hydroloc.environment import Layer
from hydroloc.multilateration import GaConfig, SearchBounds
from hydroloc.pipeline import run_simulation, write_outputs
from hydroloc.propagation import ChannelConfig, ChannelProfile
from hydroloc.scenario import (
    MAX_EPOCHS,
    EkfConfig,
    ScenarioError,
    load_scenario,
    parse_scenario,
)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

MINIMAL = textwrap.dedent(
    """\
    water_column:
      layers:
        - {thickness: 100.0, temperature: 10.0, salinity: 35.0, ph: 8.0}
    carrier_frequency: 25.0
    channel:
      source_level: 170.0
      noise_level: 50.0
    anchors:
      - {id: a0, latitude: 41.0, longitude: -8.0}
      - {id: a1, latitude: 41.001, longitude: -8.0}
      - {id: a2, latitude: 41.0, longitude: -8.001}
      - {id: a3, latitude: 41.001, longitude: -8.001}
    trajectory:
      - {time: 0.0, east: 10.0, north: 10.0, up: -50.0}
      - {time: 60.0, east: 20.0, north: 10.0, up: -50.0}
    ping_interval: 10.0
    ga:
      search_bounds: {east: [-200.0, 200.0], north: [-200.0, 200.0], up: [-100.0, 0.0]}
    """
)


def variant(**replacements):
    """MINIMAL with whole top-level blocks replaced or appended."""
    doc = yaml.safe_load(MINIMAL)
    doc.update(replacements)
    return yaml.safe_dump(doc)


class TestMinimalScenario:
    def test_defaults_filled(self):
        s = parse_scenario(MINIMAL)
        assert s.seed == 0
        assert s.channel.detection_threshold == 0.0
        assert s.channel.tof_noise_sigma == 0.0
        assert s.channel.path_model == "refracted"
        assert s.ga.population_size == 200
        assert s.ga.generations == 300
        assert s.ga.fitness_mode == "tof_residual"
        assert s.ekf == EkfConfig()
        assert s.gps_noise_sigma == (0.0, 0.0, 0.0)
        # Section defaults are the config dataclasses' own defaults.
        bounds = SearchBounds(east=(-200.0, 200.0), north=(-200.0, 200.0), up=(-100.0, 0.0))
        assert s.ga == GaConfig(search_bounds=bounds)
        assert s.channel == ChannelConfig(source_level=170.0, noise_level=50.0)

    def test_origin_defaults_to_first_anchor(self):
        s = parse_scenario(MINIMAL)
        assert s.origin_from_anchor
        assert s.enu_origin == s.anchor_positions[0]
        east, north, up = s.anchor_enu[0]
        assert abs(east) < 1e-9 and abs(north) < 1e-9 and abs(up) < 1e-9

    def test_explicit_origin_respected(self):
        text = MINIMAL + "enu_origin: {latitude: 41.0005, longitude: -8.0005, height: 0.0}\n"
        s = parse_scenario(text)
        assert not s.origin_from_anchor
        assert s.enu_origin.latitude_deg == pytest.approx(41.0005)

    def test_duration(self):
        assert parse_scenario(MINIMAL).epochs == 7  # pings at t = 0, 10, ..., 60 s


class TestStrictness:
    def test_unknown_top_level_key(self):
        with pytest.raises(ScenarioError, match="unknown key 'wave_height'"):
            parse_scenario(MINIMAL + "wave_height: 2.0\n")

    def test_unknown_nested_key(self):
        text = MINIMAL.replace(
            "  noise_level: 50.0", "  noise_level: 50.0\n  bandwidth: 4.0"
        )
        with pytest.raises(ScenarioError, match="channel: unknown key 'bandwidth'"):
            parse_scenario(text)

    def test_unknown_layer_key(self):
        text = MINIMAL.replace(
            "{thickness: 100.0, temperature: 10.0, salinity: 35.0, ph: 8.0}",
            "{thickness: 100.0, temperature: 10.0, salinity: 35.0, ph: 8.0, oxygen: 3.0}",
        )
        with pytest.raises(ScenarioError, match="unknown key 'oxygen'"):
            parse_scenario(text)

    def test_yaml_parse_error_reports_line(self):
        with pytest.raises(ScenarioError, match="line"):
            parse_scenario("water_column:\n  layers: [\n")

    def test_non_mapping_root(self):
        with pytest.raises(ScenarioError, match="mapping"):
            parse_scenario("- 1\n- 2\n")

    def test_missing_required_key(self):
        text = MINIMAL.replace("ping_interval: 10.0\n", "")
        with pytest.raises(ScenarioError, match="ping_interval"):
            parse_scenario(text)

    def test_wrong_type_reports_key(self):
        text = MINIMAL.replace("carrier_frequency: 25.0", "carrier_frequency: fast")
        with pytest.raises(ScenarioError, match="carrier_frequency"):
            parse_scenario(text)

    def test_unknown_keys_of_mixed_types(self):
        # Sorting the unknown keys 1 and 'foo' used to raise TypeError.
        with pytest.raises(ScenarioError, match="^scenario: unknown key '1'$"):
            parse_scenario(MINIMAL + "1: 2\nfoo: 3\n")


class TestValidation:
    def test_three_anchors_rejected(self):
        doc = yaml.safe_load(MINIMAL)
        doc["anchors"] = doc["anchors"][:3]
        with pytest.raises(ScenarioError, match="at least 4 anchors"):
            parse_scenario(yaml.safe_dump(doc))

    def test_duplicate_anchor_id_rejected(self):
        text = MINIMAL.replace("id: a1", "id: a0")
        with pytest.raises(ScenarioError, match="duplicate anchor id"):
            parse_scenario(text)

    def test_invalid_layer_field_names_it(self):
        text = MINIMAL.replace("temperature: 10.0", "temperature: 90.0")
        with pytest.raises(ScenarioError, match="temperature"):
            parse_scenario(text)

    def test_trajectory_must_start_at_zero(self):
        text = MINIMAL.replace("time: 0.0", "time: 1.0")
        with pytest.raises(ScenarioError, match="trajectory\\[0\\].time"):
            parse_scenario(text)

    def test_trajectory_strictly_increasing(self):
        text = MINIMAL.replace("time: 60.0", "time: 0.0")
        with pytest.raises(ScenarioError, match="strictly increasing"):
            parse_scenario(text)

    def test_waypoint_below_column_rejected(self):
        text = MINIMAL.replace("up: -50.0}\n", "up: -150.0}\n", 1)
        with pytest.raises(ScenarioError, match="outside the water column"):
            parse_scenario(text)

    def test_bounds_above_surface_rejected(self):
        text = MINIMAL.replace("up: [-100.0, 0.0]", "up: [-100.0, 5.0]")
        with pytest.raises(ScenarioError, match="search_bounds"):
            parse_scenario(text)

    def test_bounds_below_column_rejected(self):
        text = MINIMAL.replace("up: [-100.0, 0.0]", "up: [-300.0, 0.0]")
        with pytest.raises(ScenarioError, match="below"):
            parse_scenario(text)

    def test_bad_path_model_rejected(self):
        text = MINIMAL.replace(
            "  noise_level: 50.0", "  noise_level: 50.0\n  path_model: bent"
        )
        with pytest.raises(ScenarioError, match="path_model"):
            parse_scenario(text)

    def test_negative_gps_sigma_rejected(self):
        text = MINIMAL + "gps_noise_sigma: {east: -1.0}\n"
        with pytest.raises(ScenarioError, match="gps_noise_sigma.east"):
            parse_scenario(text)

    def test_bad_ping_interval_rejected(self):
        text = MINIMAL.replace("ping_interval: 10.0", "ping_interval: 0.0")
        with pytest.raises(ScenarioError, match="ping_interval"):
            parse_scenario(text)

    def test_ga_seed_rejected(self):
        # Each epoch's solver seed derives from the top-level seed.
        doc = yaml.safe_load(MINIMAL)
        doc["ga"]["seed"] = 11
        with pytest.raises(ScenarioError, match="^ga: unknown key 'seed'$"):
            parse_scenario(yaml.safe_dump(doc))

    @pytest.mark.parametrize(
        "key,value",
        [
            ("tournament_size", 3),
            ("crossover_rate", 0.9),
            ("mutation_rate", 0.3),
            ("mutation_sigma_decay", 0.96),
            ("elite_count", 1),
            ("snr_weighting", False),
            ("dispersion_warn_threshold", 10.0),
        ],
    )
    def test_fixed_ga_setting_rejected(self, key, value):
        # These are solver constants, not scenario keys, even at their value.
        doc = yaml.safe_load(MINIMAL)
        doc["ga"][key] = value
        with pytest.raises(ScenarioError, match=f"^ga: unknown key '{key}'$"):
            parse_scenario(yaml.safe_dump(doc))

    @pytest.mark.parametrize(
        "interval,end,accepted",
        [
            (1.0, MAX_EPOCHS - 1.0, True),  # epochs at t = 0, 1, ..., MAX_EPOCHS - 1
            (1.0, float(MAX_EPOCHS), False),
            (1.0e-300, 60.0, False),
            (10.0, 1.0e300, False),
        ],
    )
    def test_epoch_count_bounded(self, interval, end, accepted):
        # Parse only: a rejected value would make epoch_times exhaust memory.
        doc = yaml.safe_load(MINIMAL)
        doc["ping_interval"] = interval
        doc["trajectory"][1]["time"] = end
        text = yaml.safe_dump(doc)
        if accepted:
            scenario = parse_scenario(text)
            assert scenario.ping_interval == interval
            assert scenario.epochs == MAX_EPOCHS
        else:
            with pytest.raises(ScenarioError, match="^ping_interval: .* epochs"):
                parse_scenario(text)

    @pytest.mark.parametrize(
        "axis,value", [("east", 1.0e300), ("north", -200.5), ("up", -90.0)]
    )
    def test_waypoint_outside_search_bounds_rejected(self, axis, value):
        doc = yaml.safe_load(MINIMAL)
        doc["ga"]["search_bounds"]["up"] = [-80.0, 0.0]
        doc["trajectory"][1][axis] = value
        with pytest.raises(
            ScenarioError, match=rf"^trajectory\[1\]\.{axis}: .* outside ga\.search_bounds"
        ):
            parse_scenario(yaml.safe_dump(doc))

    @pytest.mark.parametrize(
        "old,new,message",
        [
            # Mid-depth 5e5 m: the sound speed read -840860 m/s.
            ("thickness: 100.0", "thickness: 1.0e+6",
             "water_column.layers: depth: must be within [0.0, 8000.0], got 500000.0"),
            # Mid-depth 5e299 m: the sound speed was NaN.
            ("thickness: 100.0", "thickness: 1.0e+300",
             "water_column.layers: depth: must be within [0.0, 8000.0], got 5e+299"),
            # The absorption was NaN, and every ping passed the SNR threshold.
            ("carrier_frequency: 25.0", "carrier_frequency: 1.0e+160",
             "carrier_frequency: must be within [0.1, 1000.0] kHz, got 1e+160"),
            # 3.4e8 dB/km: no ping was ever detected.
            ("carrier_frequency: 25.0", "carrier_frequency: 1.0e+6",
             "carrier_frequency: must be within [0.1, 1000.0] kHz, got 1000000.0"),
            ("carrier_frequency: 25.0", "carrier_frequency: 0.0",
             "carrier_frequency: must be within [0.1, 1000.0] kHz, got 0.0"),
        ],
        ids=["thickness-1e6", "thickness-1e300", "carrier-1e160", "carrier-1e6", "carrier-0"],
    )
    def test_non_physical_acoustics_rejected(self, old, new, message):
        with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
            parse_scenario(MINIMAL.replace(old, new))

    @pytest.mark.parametrize(
        "old,new,message",
        [
            ("{id: a0, latitude: 41.0,", "{id: a0, latitude: -90.5,",
             "anchors[0].latitude: must be within [-90, 90], got -90.5"),
            ("{id: a0, latitude: 41.0, longitude: -8.0}",
             "{id: a0, latitude: 41.0, longitude: 200.0}",
             "anchors[0].longitude: must be within (-180, 180], got 200.0"),
            ("{id: a0, latitude: 41.0, longitude: -8.0}",
             "{id: a0, latitude: 41.0, longitude: -180.0}",
             "anchors[0].longitude: must be within (-180, 180], got -180.0"),
        ],
        ids=["latitude-below-90", "longitude-200", "longitude-minus-180"],
    )
    def test_geodetic_range_names_key_in_degrees(self, old, new, message):
        with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
            parse_scenario(MINIMAL.replace(old, new))

    def test_origin_latitude_names_key_in_degrees(self):
        text = MINIMAL + "enu_origin: {latitude: 95.0, longitude: -8.0}\n"
        message = "enu_origin.latitude: must be within [-90, 90], got 95.0"
        with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
            parse_scenario(text)

    def test_boolean_is_not_a_number(self):
        text = MINIMAL.replace("carrier_frequency: 25.0", "carrier_frequency: true")
        with pytest.raises(ScenarioError, match="carrier_frequency"):
            parse_scenario(text)


class TestLoadScenario:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read"):
            load_scenario(tmp_path / "missing.yaml")

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_bytes(b"seed: \xff\n")
        with pytest.raises(ScenarioError, match="cannot read"):
            load_scenario(path)

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_text(MINIMAL)
        s = load_scenario(path)
        assert len(s.anchor_ids) == 4

    @pytest.mark.parametrize(
        "name", ["canonical_noiseless.yaml", "canonical_noisy.yaml"]
    )
    def test_shipped_scenarios_are_valid(self, name):
        s = load_scenario(SCENARIO_DIR / name)
        enu = s.anchor_enu
        assert len(enu) == 4
        # The shipped files pin the anchors on a +-100 m square.
        for east, north, _ in enu:
            assert abs(abs(east) - 100.0) < 1e-6
            assert abs(abs(north) - 100.0) < 1e-6


FULL = textwrap.dedent(
    """\
    water_column:
      layers:
        - {thickness: 40.0, temperature: 14.0, salinity: 35.5, ph: 8.1}
        - {thickness: 60.0, temperature: 9.0, salinity: 35.0, ph: 7.9}
    carrier_frequency: 30.0
    channel:
      source_level: 175.0
      noise_level: 55.0
      detection_threshold: 8.0
      tof_noise_sigma: 0.002
      path_model: refracted
    anchors:
      - {id: a0, latitude: 41.0, longitude: -8.0, height: 0.0}
      - {id: a1, latitude: 41.001, longitude: -8.0, height: 0.0}
      - {id: a2, latitude: 41.0, longitude: -8.001, height: 0.0}
      - {id: a3, latitude: 41.001, longitude: -8.001, height: 0.0}
    gps_noise_sigma: {east: 0.5, north: 0.6, up: 0.1}
    enu_origin: {latitude: 41.0, longitude: -8.0, height: 0.0}
    trajectory:
      - {time: 0.0, east: 10.0, north: 10.0, up: -50.0}
      - {time: 60.0, east: 20.0, north: 10.0, up: -50.0}
    ping_interval: 5.0
    ga:
      search_bounds: {east: [-200.0, 200.0], north: [-200.0, 200.0], up: [-100.0, 0.0]}
      population_size: 50
      generations: 60
      fitness_mode: range_residual
    ekf:
      accel_noise_density: {east: 0.002, north: 0.003, up: 0.004}
      initial_position_sigma: 50.0
      initial_velocity_sigma: 0.5
      fix_sigma_floor: 0.25
      pressure_sigma_depth: 0.2
      water_density: 1027.0
    seed: 7
    """
)


class TestEveryKey:
    """FULL sets every accepted key, each to a value other than its default.

    channel.path_model has one accepted value, its default.
    """

    def test_full_sets_every_config_field(self):
        doc = yaml.safe_load(FULL)
        assert set(doc) == {
            "water_column", "carrier_frequency", "channel", "anchors",
            "gps_noise_sigma", "enu_origin", "trajectory", "ping_interval",
            "ga", "ekf", "seed",
        }
        for cls, section in (
            (Layer, doc["water_column"]["layers"][0]),
            (ChannelConfig, doc["channel"]),
            (GaConfig, doc["ga"]),
            (EkfConfig, doc["ekf"]),
        ):
            assert set(section) == {f.name for f in fields(cls)}, cls.__name__

    def test_every_key_is_read(self):
        doc = yaml.safe_load(FULL)
        s = parse_scenario(FULL)
        assert s.profile == ChannelProfile.from_layers(
            [Layer(**layer) for layer in doc["water_column"]["layers"]], 30.0
        )
        assert s.channel == ChannelConfig(**doc["channel"])
        ga = dict(doc["ga"])
        bounds = {axis: tuple(span) for axis, span in ga.pop("search_bounds").items()}
        assert s.ga == GaConfig(search_bounds=SearchBounds(**bounds), **ga)
        ekf = dict(doc["ekf"])
        accel = ekf.pop("accel_noise_density")
        assert s.ekf == EkfConfig(
            accel_noise_density=(accel["east"], accel["north"], accel["up"]), **ekf
        )
        assert s.anchor_positions[3].height == 0.0
        assert s.gps_noise_sigma == (0.5, 0.6, 0.1)
        assert not s.origin_from_anchor
        assert s.waypoints[1] == (60.0, 20.0, 10.0, -50.0)
        assert s.ping_interval == 5.0
        assert s.seed == 7
        for config in (s.channel, s.ga, s.ekf):
            for f in fields(config):
                if f.name != "path_model":
                    assert getattr(config, f.name) != f.default, f.name


def _set(doc, path, value):
    node = doc
    for key in path[:-1]:
        node = node.setdefault(key, {}) if isinstance(key, str) else node[key]
    node[path[-1]] = value


NON_FINITE_CASES = [
    (("channel", "source_level"), math.nan, "channel.source_level"),
    (("channel", "tof_noise_sigma"), math.nan, "channel.tof_noise_sigma"),
    (("carrier_frequency",), math.inf, "scenario.carrier_frequency"),
    (("trajectory", 1, "east"), math.nan, "trajectory[1].east"),
    (("trajectory", 1, "time"), math.nan, "trajectory[1].time"),
    (("gps_noise_sigma", "east"), math.nan, "gps_noise_sigma.east"),
    (("ping_interval",), math.nan, "scenario.ping_interval"),
    (("ping_interval",), math.inf, "scenario.ping_interval"),
    (("ekf", "pressure_sigma_depth"), math.inf, "ekf.pressure_sigma_depth"),
    (("ekf", "fix_sigma_floor"), math.inf, "ekf.fix_sigma_floor"),
    (("ekf", "accel_noise_density", "up"), math.nan, "ekf.accel_noise_density.up"),
    (("ga", "search_bounds", "east", 0), -math.inf, "ga.search_bounds.east"),
    (("ga", "search_bounds", "up", 1), math.nan, "ga.search_bounds.up"),
    (("ga", "population_size"), math.nan, "ga.population_size"),
    (("water_column", "layers", 0, "thickness"), math.inf,
     "water_column.layers[0].thickness"),
    (("anchors", 2, "height"), -math.inf, "anchors[2].height"),
    (("enu_origin", "latitude"), math.nan, "enu_origin.latitude"),
]


@pytest.mark.parametrize(
    "path,value,key", NON_FINITE_CASES, ids=[key for _, _, key in NON_FINITE_CASES]
)
def test_non_finite_number_rejected_naming_key(path, value, key):
    doc = yaml.safe_load((SCENARIO_DIR / "canonical_noisy.yaml").read_text())
    _set(doc, path, value)
    with pytest.raises(ScenarioError, match=f"^{re.escape(key)}: "):
        parse_scenario(yaml.safe_dump(doc))


OUT_OF_RANGE_CASES = [
    (("channel", "tof_noise_sigma"), -1.0, "channel.tof_noise_sigma: must be >= 0, got -1.0"),
    (("ga", "population_size"), 2, "ga.population_size: must be >= 4, got 2"),
    (("ga", "search_bounds", "north"), [5.0, -5.0],
     "ga.search_bounds.north: must satisfy lo < hi, got (5.0, -5.0)"),
    (("ekf", "accel_noise_density", "up"), 0.0,
     "ekf.accel_noise_density.up: must be > 0, got 0.0"),
    (("water_column", "layers", 0, "ph"), 10.0,
     "water_column.layers[0].ph: must be within [6.0, 9.0], got 10.0"),
    (("ekf", "accel_noise_density", "east"), 1e7,
     "ekf.accel_noise_density.east: must be <= 1000000.0, got 10000000.0"),
    (("ekf", "pressure_sigma_depth"), 1e-300,
     "ekf.pressure_sigma_depth: must be within [1e-06, 1000000.0], got 1e-300"),
    (("ekf", "water_density"), 1e-300,
     "ekf.water_density: must be within [900.0, 1100.0] kg/m^3, got 1e-300"),
    (("ping_interval",), 1e199, "ping_interval: must be <= 1000000.0 s, got 1e+199"),
]


@pytest.mark.parametrize(
    "path,value,message", OUT_OF_RANGE_CASES,
    ids=[message.split(":")[0] for _, _, message in OUT_OF_RANGE_CASES],
)
def test_out_of_range_value_names_key(path, value, message):
    doc = yaml.safe_load((SCENARIO_DIR / "canonical_noisy.yaml").read_text())
    _set(doc, path, value)
    with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
        parse_scenario(yaml.safe_dump(doc))


def test_integer_beyond_float_range_rejected():
    text = MINIMAL.replace("carrier_frequency: 25.0", f"carrier_frequency: {10**400}")
    with pytest.raises(ScenarioError, match="carrier_frequency: expected a finite number"):
        parse_scenario(text)


def test_bounds_extent_past_float_range_rejected():
    text = MINIMAL.replace("east: [-200.0, 200.0]", "east: [-1.0e+308, 1.0e+308]")
    with pytest.raises(ScenarioError, match=r"^ga\.search_bounds\.east: extent must be finite"):
        parse_scenario(text)


def test_layers_summing_past_float_range_rejected():
    layer = "{thickness: 1.0e+308, temperature: 10.0, salinity: 35.0, ph: 8.0}"
    text = MINIMAL.replace(
        "    - {thickness: 100.0, temperature: 10.0, salinity: 35.0, ph: 8.0}",
        f"    - {layer}\n    - {layer}",
    )
    with pytest.raises(ScenarioError, match="water_column.layers: total thickness"):
        parse_scenario(text)


# Mutation targets: every numeric leaf of the shipped scenarios.
def _numeric_leaves(node, path=()):
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        if isinstance(node, (int, float)) and not isinstance(node, bool):
            yield path
        return
    for key, child in items:
        yield from _numeric_leaves(child, path + (key,))


def _key_of(path) -> str:
    """The dotted key an error names for a leaf; a bounds pair index is dropped."""
    text = ""
    for key in path:
        text += f"[{key}]" if isinstance(key, int) else f".{key}"
    if isinstance(path[-1], int):
        text = text[: text.rindex("[")]
    return text.lstrip(".")


def _all_finite(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    if is_dataclass(value):
        return all(_all_finite(getattr(value, f.name)) for f in fields(value))
    if isinstance(value, (tuple, list)):
        return all(_all_finite(v) for v in value)
    return True


SHIPPED = {
    name: yaml.safe_load((SCENARIO_DIR / name).read_text())
    for name in ("canonical_noiseless.yaml", "canonical_noisy.yaml")
}
LEAVES = [(name, path) for name, doc in SHIPPED.items() for path in _numeric_leaves(doc)]
NON_FINITE = [math.nan, math.inf, -math.inf]
HUGE = [1e300, -1e300, 1.7976931348623157e308, -1.7976931348623157e308, 10**400, -(10**400)]
TOP_LEVEL_KEYS = set(yaml.safe_load(FULL)) | {"scenario"}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    leaf=st.sampled_from(LEAVES),
    others=st.lists(st.sampled_from(LEAVES), max_size=2),
    values=st.lists(st.sampled_from(NON_FINITE + HUGE), min_size=3, max_size=3),
)
# Accepted mutants, so the finiteness half runs whatever examples the
# derandomized search draws from this test's source.
@example(
    leaf=("canonical_noisy.yaml", ("channel", "tof_noise_sigma")), others=[], values=[1e300]
)
@example(
    leaf=("canonical_noisy.yaml", ("ga", "search_bounds", "east", 1)),
    others=[],
    values=[1e300],
)
def test_mutated_numbers_rejected_or_finite(leaf, others, values):
    """Mutants of the shipped scenarios either fail naming a key or stay finite."""
    name = leaf[0]
    doc = copy.deepcopy(SHIPPED[name])
    paths = [leaf[1]] + [path for other, path in others if other == name]
    mutants = dict(zip(paths, values))
    for path, value in mutants.items():
        _set(doc, path, value)
    try:
        scenario = parse_scenario(yaml.safe_dump(doc))
    except ScenarioError as exc:
        where = str(exc).split(": ", 1)[0]
        assert where.split(".")[0].split("[")[0] in TOP_LEVEL_KEYS, str(exc)
        if all(v in NON_FINITE for v in mutants.values()):
            assert any(where.endswith(_key_of(p)) for p in mutants), str(exc)
        return
    assert all(v in HUGE for v in mutants.values())
    assert _all_finite(scenario)


# Run-level mutants of a short canonical_noisy run: every ekf number, the
# ping interval and the trajectory's end time at sizes that overflowed
# the filter's arithmetic or turned it to NaN, GPS scatter that overflowed
# the solver's squared residuals, a density that lost the pressure depth,
# and an end time and interval that overflowed dt**3.
LAST_TIME = ("trajectory", 4, "time")
RUN_LEAVES = [
    path for path in _numeric_leaves(SHIPPED["canonical_noisy.yaml"])
    if path[0] in ("ekf", "gps_noise_sigma")
] + [("ping_interval",), LAST_TIME]
RUN_MUTANTS = [((path, value),) for path in RUN_LEAVES for value in (1e154, 1e200, 1e300)] + [
    ((("ekf", "water_density"), 1e-300),),
    ((LAST_TIME, 1e200), (("ping_interval",), 1e199)),
]


@pytest.mark.parametrize(
    "mutants", RUN_MUTANTS,
    ids=[",".join(f"{_key_of(p)}={v:g}" for p, v in m) for m in RUN_MUTANTS],
)
def test_mutated_numbers_rejected_or_run_finite(mutants, tmp_path):
    """A mutant either fails naming a key, or its run writes finite, sane outputs."""
    doc = copy.deepcopy(SHIPPED["canonical_noisy.yaml"])
    doc["ping_interval"] = 150.0  # 4 epochs
    doc["ga"].update(population_size=20, generations=10)
    for path, value in mutants:
        _set(doc, path, value)
    named = {_key_of(path) for path, _ in mutants}
    if any(path == LAST_TIME for path, _ in mutants):
        named.add("ping_interval")  # the epoch-count limit names the interval
    try:
        scenario = parse_scenario(yaml.safe_dump(doc))
    except ScenarioError as exc:
        assert str(exc).split(": ", 1)[0] in named, str(exc)
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # an overflow is a failure
        records, summary = run_simulation(scenario)
    paths = write_outputs(records, summary, tmp_path)
    with open(paths["epochs"], encoding="utf-8") as fh:
        cells = [cell for row in list(csv.reader(fh))[1:] for cell in row if cell]
    assert all(math.isfinite(float(cell)) for cell in cells)
    with open(paths["summary"], encoding="utf-8") as fh:
        assert _all_finite(list(json.load(fh).values()))
    # Pressure depth holds the fused up axis to about 0.1 m in the unmutated
    # run; a density that lost the depth left it 53 m off.
    assert summary.rmse_fused_axes[2] < 1.0
