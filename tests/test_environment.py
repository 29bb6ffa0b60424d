import math
import re

import numpy as np
import pytest

from hydroloc.environment import (
    Layer,
    absorption_coeff,
    acoustics_profile,
    sound_speed,
)
from hydroloc.propagation import ChannelProfile, _layer_at


def layer(thickness=100.0, temperature=10.0, salinity=35.0, ph=8.0):
    return Layer(thickness, temperature, salinity, ph)


class TestLayer:
    def test_valid_layer(self):
        ly = layer()
        assert ly.thickness == 100.0

    def test_negative_thickness_rejected(self):
        with pytest.raises(ValueError, match="thickness"):
            layer(thickness=-5.0)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("temperature", -3.0),
            ("temperature", 41.0),
            ("salinity", -0.1),
            ("salinity", 42.5),
            ("ph", 5.9),
            ("ph", 9.1),
        ],
    )
    def test_out_of_range_field_rejected(self, field, value):
        kwargs = {field: value}
        with pytest.raises(ValueError, match=field):
            layer(**kwargs)


class TestWaterColumn:
    """The column geometry of ChannelProfile.from_layers and its layer lookup."""

    def test_single_layer_identity(self):
        col = ChannelProfile.from_layers([layer(thickness=100.0)], 25.0)
        assert col.total_depth == 100.0
        assert col.boundaries == (0.0, 100.0)

    def test_boundaries_are_prefix_sums(self):
        col = ChannelProfile.from_layers([layer(thickness=50.0), layer(thickness=150.0)], 25.0)
        assert col.boundaries == (0.0, 50.0, 200.0)
        assert col.total_depth == 200.0

    def test_empty_column_rejected(self):
        with pytest.raises(ValueError, match="at least one layer"):
            ChannelProfile.from_layers([], 25.0)

    def test_layer_index_conventions(self):
        col = ChannelProfile.from_layers([layer(thickness=50.0), layer(thickness=150.0)], 25.0)
        boundaries = np.asarray(col.boundaries)
        assert _layer_at(boundaries, 0.0) == 0
        assert _layer_at(boundaries, 49.999) == 0
        # A boundary depth belongs to the layer below it.
        assert _layer_at(boundaries, 50.0) == 1
        # The bottom boundary belongs to the last layer.
        assert _layer_at(boundaries, 200.0) == 1


class TestSoundSpeed:
    # Reference values evaluated independently, term by term, from the
    # published nine-term equation.
    @pytest.mark.parametrize(
        "t,s,d,expected",
        [
            (10.0, 35.0, 0.0, 1489.8034),
            (10.0, 35.0, 1000.0, 1506.263761),
            (2.0, 34.7, 100.0, 1459.1675627722),
            (25.0, 36.5, 10.0, 1536.0830167321526),
            (0.0, 30.0, 4000.0, 1510.14),
        ],
    )
    def test_reference_values(self, t, s, d, expected):
        assert sound_speed(t, s, d) == pytest.approx(expected, rel=1e-12)

    def test_pure_and_deterministic(self):
        assert sound_speed(12.3, 34.6, 789.0) == sound_speed(12.3, 34.6, 789.0)

    def test_monotone_in_temperature(self):
        grid = [i * 0.5 for i in range(61)]  # 0..30 C
        values = [sound_speed(t, 35.0, 0.0) for t in grid]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_monotone_in_depth(self):
        grid = range(0, 4001, 10)
        values = [sound_speed(10.0, 35.0, float(d)) for d in grid]
        assert all(b > a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize(
        "t,s,d,field",
        [(50.0, 35.0, 0.0, "temperature"), (10.0, 50.0, 0.0, "salinity"),
         (10.0, 35.0, -1.0, "depth"), (10.0, 35.0, 8000.1, "depth")],
    )
    def test_domain_errors(self, t, s, d, field):
        with pytest.raises(ValueError, match=field):
            sound_speed(t, s, d)


class TestAbsorption:
    def test_reference_value(self):
        assert absorption_coeff(10.0, 10.0, 35.0, 8.0, 0.0) == pytest.approx(
            0.9865722856253994, rel=1e-12
        )

    def test_monotone_in_frequency(self):
        freqs = [0.1 * (1000.0 ** (i / 40)) for i in range(41)]  # 0.1..100 kHz
        values = [absorption_coeff(f, 10.0, 35.0, 8.0, 0.0) for f in freqs]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_depth_reduces_absorption(self):
        shallow = absorption_coeff(10.0, 10.0, 35.0, 8.0, 0.0)
        deep = absorption_coeff(10.0, 10.0, 35.0, 8.0, 5000.0)
        assert deep < shallow

    def test_non_positive_frequency_rejected(self):
        with pytest.raises(ValueError, match="frequency"):
            absorption_coeff(0.0, 10.0, 35.0, 8.0, 0.0)

    @pytest.mark.parametrize(
        "frequency,depth,message",
        [
            (0.09, 0.0, "frequency: must be within [0.1, 1000.0], got 0.09"),
            (1000.1, 0.0, "frequency: must be within [0.1, 1000.0], got 1000.1"),
            (10.0, 8000.1, "depth: must be within [0.0, 8000.0], got 8000.1"),
        ],
    )
    def test_out_of_model_range_rejected(self, frequency, depth, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            absorption_coeff(frequency, 10.0, 35.0, 8.0, depth)

    def test_range_ends_accepted(self):
        for frequency in (0.1, 1000.0):
            for depth in (0.0, 8000.0):
                assert math.isfinite(absorption_coeff(frequency, 10.0, 35.0, 8.0, depth))
                assert math.isfinite(sound_speed(10.0, 35.0, depth))

    def test_non_negative(self):
        assert absorption_coeff(0.1, -2.0, 0.0, 6.0, 8000.0) >= 0.0


class TestAcousticsProfile:
    def test_single_layer_matches_direct_calls(self):
        boundaries, (speed,), (absorption,) = acoustics_profile([layer(thickness=100.0)], 25.0)
        assert boundaries == (0.0, 100.0)
        assert speed == sound_speed(10.0, 35.0, 50.0)
        assert absorption == absorption_coeff(25.0, 10.0, 35.0, 8.0, 50.0)

    def test_identical_layers_differ_only_by_depth_terms(self):
        _, speeds, absorption = acoustics_profile(
            [layer(thickness=100.0), layer(thickness=100.0)], 25.0
        )
        # Deeper evaluation point: faster sound, slightly less absorption.
        assert speeds[1] > speeds[0]
        assert absorption[1] < absorption[0]
        assert speeds[0] == sound_speed(10.0, 35.0, 50.0)
        assert speeds[1] == sound_speed(10.0, 35.0, 150.0)

    def test_mid_depth_evaluation(self):
        # Layers of 50 m and 150 m, bounded at 0, 50 and 200 m, are evaluated at 25 m and 125 m.
        layers = [layer(thickness=50.0), layer(thickness=150.0, temperature=8.0, ph=7.9)]
        boundaries, speeds, absorption = acoustics_profile(layers, 25.0)
        assert boundaries == (0.0, 50.0, 200.0)
        assert speeds == (sound_speed(10.0, 35.0, 25.0), sound_speed(8.0, 35.0, 125.0))
        assert absorption == (
            absorption_coeff(25.0, 10.0, 35.0, 8.0, 25.0),
            absorption_coeff(25.0, 8.0, 35.0, 7.9, 125.0),
        )

    def test_warm_surface_cold_deep_ordering(self):
        _, speeds, _ = acoustics_profile(
            [layer(thickness=30.0, temperature=18.0), layer(thickness=40.0, temperature=6.0)],
            25.0,
        )
        expected_top = sound_speed(18.0, 35.0, 15.0)
        expected_bottom = sound_speed(6.0, 35.0, 50.0)
        assert (speeds[0] > speeds[1]) == (expected_top > expected_bottom)

    def test_entry_count_and_invariants(self):
        layers = [
            layer(thickness=20.0 + 10 * i, temperature=4.0 + 2 * i, ph=7.8 + 0.05 * i)
            for i in range(7)
        ]
        boundaries, speeds, absorption = acoustics_profile(layers, 12.0)
        assert len(boundaries) == 8
        assert len(speeds) == len(absorption) == 7
        for c, a in zip(speeds, absorption):
            assert 1300.0 <= c <= 1700.0
            assert a >= 0.0
            assert math.isfinite(c)
