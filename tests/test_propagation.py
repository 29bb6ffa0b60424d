import math

import numpy as np
import pytest

from hydroloc.environment import Layer, WaterColumn, absorption_coeff, sound_speed
from hydroloc.propagation import (
    ChannelConfig,
    ChannelProfile,
    NoDirectPathError,
    pairwise_tof,
    simulate_ping,
    snr,
    trace_path,
    trace_refracted,
    trace_straight,
    transmission_loss,
)


def profile(boundaries, speeds, absorption=None):
    if absorption is None:
        absorption = tuple(1.0 for _ in speeds)
    return ChannelProfile(
        boundaries=tuple(boundaries),
        sound_speeds=tuple(speeds),
        absorption=tuple(absorption),
        frequency=25.0,
    )


TWO_LAYER = profile((0.0, 100.0, 200.0), (1500.0, 1480.0))
HOMOG = profile((0.0, 500.0), (1500.0,))


def random_profile(rng, n_layers):
    layers = []
    t = rng.uniform(4.0, 20.0)
    for _ in range(n_layers):
        layers.append(
            Layer(
                thickness=rng.uniform(20.0, 150.0),
                temperature=t,
                salinity=rng.uniform(34.0, 36.0),
                ph=rng.uniform(7.8, 8.2),
            )
        )
        t = max(2.0, t - rng.uniform(0.0, 3.0))  # cool with depth
    return ChannelProfile.from_column(WaterColumn(layers), 25.0)


def closure_error(path, horizontal_range):
    dx = sum(seg.length * math.cos(seg.grazing_angle) for seg in path.segments)
    return abs(dx - horizontal_range)


class TestProfile:
    def test_from_column_matches_environment(self):
        col = WaterColumn([Layer(100.0, 10.0, 35.0, 8.0), Layer(50.0, 8.0, 35.0, 8.0)])
        prof = ChannelProfile.from_column(col, 12.0)
        assert prof.boundaries == (0.0, 100.0, 150.0)
        assert prof.sound_speeds[0] == sound_speed(10.0, 35.0, 50.0)
        assert prof.absorption[1] == absorption_coeff(12.0, 8.0, 35.0, 8.0, 125.0)
        assert prof.total_depth == 150.0


class TestTraceRefracted:
    def test_vertical_two_layer(self):
        path = trace_refracted(TWO_LAYER, 0.0, 200.0, 0.0)
        assert path.tof == pytest.approx(0.13423423423423423, abs=1e-12)
        assert path.total_length == pytest.approx(200.0)
        assert path.ray_parameter == 0.0
        assert [s.grazing_angle for s in path.segments] == [math.pi / 2, math.pi / 2]

    def test_homogeneous_is_straight_line(self):
        path = trace_refracted(HOMOG, 400.0, 0.0, 300.0)
        assert path.total_length == pytest.approx(500.0, abs=1e-9)
        assert path.tof == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_two_layer_matches_fermat_minimum(self):
        path = trace_refracted(TWO_LAYER, 200.0, 0.0, 200.0)
        x = np.linspace(0.0, 200.0, 200001)
        t = np.sqrt(x**2 + 100.0**2) / 1500.0 + np.sqrt((200.0 - x) ** 2 + 100.0**2) / 1480.0
        assert path.tof == pytest.approx(float(t.min()), abs=1e-9)

    def test_refraction_never_slower_than_straight(self):
        path = trace_refracted(TWO_LAYER, 200.0, 0.0, 200.0)
        straight = trace_straight(TWO_LAYER, (0.0, 0.0, -200.0), (200.0, 0.0, 0.0))
        assert path.tof <= straight.tof

    def test_snell_invariant(self):
        prof = random_profile(np.random.default_rng(3), 6)
        path = trace_refracted(prof, prof.total_depth * 0.9, 2.0, 300.0)
        for seg in path.segments:
            dev = abs(
                math.cos(seg.grazing_angle) / prof.sound_speeds[seg.layer]
                - path.ray_parameter
            )
            assert dev < 1e-12

    def test_range_closure(self):
        prof = random_profile(np.random.default_rng(4), 5)
        for rng_m in (0.0, 10.0, 250.0, 900.0):
            path = trace_refracted(prof, prof.total_depth - 5.0, 1.0, rng_m)
            assert closure_error(path, rng_m) < 1e-6

    def test_reciprocity(self):
        prof = random_profile(np.random.default_rng(5), 4)
        a = trace_refracted(prof, 10.0, prof.total_depth - 10.0, 400.0)
        b = trace_refracted(prof, prof.total_depth - 10.0, 10.0, 400.0)
        assert a.tof == pytest.approx(b.tof, rel=1e-9)
        assert a.total_length == pytest.approx(b.total_length, rel=1e-9)

    def test_tof_monotone_in_range(self):
        prof = random_profile(np.random.default_rng(6), 3)
        tofs = [
            trace_refracted(prof, prof.total_depth - 1.0, 0.0, r).tof
            for r in np.linspace(0.0, 500.0, 26)
        ]
        assert all(b > a for a, b in zip(tofs, tofs[1:]))

    def test_tof_consistent_with_segments(self):
        prof = random_profile(np.random.default_rng(8), 5)
        path = trace_refracted(prof, prof.total_depth - 2.0, 3.0, 350.0)
        recomputed = sum(s.length / prof.sound_speeds[s.layer] for s in path.segments)
        assert path.tof == pytest.approx(recomputed, rel=1e-12)
        assert path.total_length == pytest.approx(
            sum(s.length for s in path.segments), rel=1e-12
        )

    def test_same_depth_horizontal_ray(self):
        path = trace_refracted(TWO_LAYER, 150.0, 150.0, 600.0)
        assert len(path.segments) == 1
        assert path.segments[0].layer == 1
        assert path.tof == pytest.approx(600.0 / 1480.0)
        assert path.ray_parameter == pytest.approx(1.0 / 1480.0)

    def test_same_depth_on_boundary_uses_layer_below(self):
        path = trace_refracted(TWO_LAYER, 100.0, 100.0, 100.0)
        assert path.segments[0].layer == 1

    def test_degenerate_coincident_endpoints(self):
        path = trace_refracted(TWO_LAYER, 50.0, 50.0, 0.0)
        assert path.segments == ()
        assert path.tof == 0.0
        assert path.total_length == 0.0

    def test_no_direct_path_when_ray_would_turn(self):
        with pytest.raises(NoDirectPathError):
            trace_refracted(TWO_LAYER, 0.0, 200.0, 1e7)

    @pytest.mark.parametrize("src,rcv", [(-1.0, 10.0), (10.0, 300.0)])
    def test_depth_out_of_column(self, src, rcv):
        with pytest.raises(ValueError, match="depth"):
            trace_refracted(TWO_LAYER, src, rcv, 100.0)

    def test_negative_range_rejected(self):
        with pytest.raises(ValueError, match="horizontal_range"):
            trace_refracted(TWO_LAYER, 0.0, 100.0, -1.0)


class TestTraceStraight:
    def test_homogeneous_matches_refracted(self):
        straight = trace_straight(HOMOG, (0.0, 0.0, -400.0), (300.0, 0.0, 0.0))
        refracted = trace_refracted(HOMOG, 400.0, 0.0, 300.0)
        assert straight.tof == pytest.approx(refracted.tof, rel=1e-12)
        assert straight.total_length == pytest.approx(500.0)

    def test_vertical_matches_refracted(self):
        straight = trace_straight(TWO_LAYER, (0.0, 0.0, 0.0), (0.0, 0.0, -200.0))
        refracted = trace_refracted(TWO_LAYER, 0.0, 200.0, 0.0)
        assert straight.tof == pytest.approx(refracted.tof, rel=1e-12)

    def test_two_layer_oblique_chord(self):
        # Chord from 150 m depth to the surface over 120 m horizontally:
        # segment lengths split in proportion to the vertical extents.
        path = trace_straight(TWO_LAYER, (0.0, 0.0, -150.0), (120.0, 0.0, 0.0))
        chord = math.hypot(120.0, 150.0)
        expected = (chord * 100.0 / 150.0) / 1500.0 + (chord * 50.0 / 150.0) / 1480.0
        assert path.tof == pytest.approx(expected, rel=1e-12)
        assert path.total_length == pytest.approx(chord, rel=1e-12)

    def test_endpoint_outside_column(self):
        with pytest.raises(ValueError, match="depth"):
            trace_straight(TWO_LAYER, (0.0, 0.0, 10.0), (0.0, 0.0, -50.0))


class TestLinkBudget:
    def test_pure_spherical_spreading(self):
        prof = profile((0.0, 2000.0), (1500.0,), absorption=(0.0,))
        path = trace_refracted(prof, 1000.0, 0.0, 0.0)
        assert transmission_loss(path, prof) == pytest.approx(60.0, abs=1e-12)

    def test_uniform_absorption_adds_linearly(self):
        prof = profile((0.0, 2000.0), (1500.0,), absorption=(1.0,))
        path = trace_refracted(prof, 1000.0, 0.0, 0.0)
        assert transmission_loss(path, prof) == pytest.approx(61.0, abs=1e-12)

    def test_two_layer_weighted_absorption(self):
        prof = profile((0.0, 100.0, 200.0), (1500.0, 1480.0), absorption=(1.0, 3.0))
        path = trace_refracted(prof, 200.0, 0.0, 0.0)
        expected = 20.0 * math.log10(200.0) + (100.0 * 1.0 + 100.0 * 3.0) / 1000.0
        assert transmission_loss(path, prof) == pytest.approx(expected, abs=1e-12)

    def test_reference_distance_error(self):
        path = trace_refracted(HOMOG, 100.0, 100.0, 0.5)
        with pytest.raises(ValueError, match="reference distance"):
            transmission_loss(path, HOMOG)

    def test_loss_increases_with_length(self):
        prof = profile((0.0, 2000.0), (1500.0,), absorption=(0.5,))
        losses = [
            transmission_loss(trace_refracted(prof, d, 0.0, 0.0), prof)
            for d in (10.0, 100.0, 500.0, 1500.0)
        ]
        assert all(b > a for a, b in zip(losses, losses[1:]))

    def test_snr_equation(self):
        assert snr(170.0, 60.0, 50.0) == 60.0
        assert snr(170.0, 170.0, 0.0) == 0.0
        assert snr(170.0, 70.0, 50.0) == snr(170.0, 60.0, 50.0) - 10.0


class TestSimulatePing:
    config = ChannelConfig(
        source_level=170.0, noise_level=50.0, detection_threshold=10.0,
        tof_noise_sigma=0.0, path_model="refracted",
    )

    def test_zero_noise_matches_trace(self):
        rng = np.random.default_rng(0)
        ping = simulate_ping(
            HOMOG, self.config, "a0", (0.0, 0.0, -400.0), (300.0, 0.0, 0.0), rng, 1.5
        )
        expected = trace_refracted(HOMOG, 400.0, 0.0, 300.0).tof
        assert ping.tof_measured == expected
        assert ping.anchor_id == "a0"
        assert ping.timestamp == 1.5

    def test_unreachable_threshold_never_detects(self):
        config = ChannelConfig(170.0, 50.0, 1e6, 0.0)
        rng = np.random.default_rng(0)
        assert simulate_ping(
            HOMOG, config, "a0", (0.0, 0.0, -400.0), (300.0, 0.0, 0.0), rng, 0.0
        ) is None

    def test_seeded_determinism(self):
        config = ChannelConfig(170.0, 50.0, 10.0, 1e-3)
        pings = [
            simulate_ping(
                HOMOG, config, "a0", (0.0, 0.0, -400.0), (300.0, 0.0, 0.0),
                np.random.default_rng(99), 0.0,
            )
            for _ in range(2)
        ]
        assert pings[0].tof_measured == pings[1].tof_measured
        assert pings[0].snr == pings[1].snr

    def test_no_direct_path_is_a_non_detection(self):
        rng = np.random.default_rng(0)
        assert simulate_ping(
            TWO_LAYER, self.config, "a0", (0.0, 0.0, 0.0), (1e7, 0.0, -200.0), rng, 0.0
        ) is None

    def test_invalid_path_model_rejected(self):
        with pytest.raises(ValueError, match="path_model"):
            ChannelConfig(170.0, 50.0, 10.0, 0.0, path_model="bent")


class TestTracePath:
    def test_dispatches_to_the_scalar_traces(self):
        src, rcv = (0.0, 0.0, -200.0), (150.0, 80.0, 0.0)
        horizontal = math.hypot(150.0, 80.0)
        assert trace_path(TWO_LAYER, src, rcv, "refracted") == trace_refracted(
            TWO_LAYER, 200.0, 0.0, horizontal
        )
        assert trace_path(TWO_LAYER, src, rcv, "straight") == trace_straight(
            TWO_LAYER, src, rcv
        )

    @pytest.mark.parametrize(
        "src,rcv",
        [
            ((0.0, 0.0, -120.0), (90.0, 40.0, -120.0)),  # equal depths
            ((10.0, 20.0, -150.0), (10.0, 20.0, 0.0)),   # vertical
            ((0.0, 0.0, -180.0), (60.0, -30.0, -20.0)),  # source deeper
            ((0.0, 0.0, -100.0), (70.0, 0.0, -160.0)),   # source on a boundary
        ],
        ids=["equal-depth", "vertical", "deeper-source", "boundary-source"],
    )
    def test_refracted_equals_trace_refracted(self, src, rcv):
        horizontal = math.hypot(rcv[0] - src[0], rcv[1] - src[1])
        path = trace_path(TWO_LAYER, src, rcv, "refracted")
        assert path == trace_refracted(TWO_LAYER, -src[2], -rcv[2], horizontal)
        assert path.segments[0].layer == TWO_LAYER.layer_index_at(-src[2])

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="path model"):
            trace_path(HOMOG, (0.0, 0.0, -10.0), (5.0, 0.0, 0.0), "bent")


class TestPairwiseTof:
    def test_matches_scalar_traces(self):
        rng = np.random.default_rng(21)
        prof = random_profile(rng, 5)
        depth = prof.total_depth
        sources = np.column_stack(
            [rng.uniform(-300, 300, 20), rng.uniform(-300, 300, 20),
             -rng.uniform(0.3 * depth, depth, 20)]
        )
        receivers = np.column_stack(
            [rng.uniform(-300, 300, 4), rng.uniform(-300, 300, 4), -rng.uniform(0, 5, 4)]
        )
        for model in ("refracted", "straight"):
            tof, ok = pairwise_tof(prof, sources, receivers, model)
            assert ok.all()
            for i in range(len(sources)):
                for j in range(len(receivers)):
                    if model == "refracted":
                        hr = float(np.hypot(*(sources[i, :2] - receivers[j, :2])))
                        expected = trace_refracted(
                            prof, -sources[i, 2], -receivers[j, 2], hr
                        ).tof
                    else:
                        expected = trace_straight(prof, sources[i], receivers[j]).tof
                    assert tof[i, j] == pytest.approx(expected, abs=1e-12)

    def test_flags_unreachable_pairs(self):
        tof, ok = pairwise_tof(
            TWO_LAYER, [(0.0, 0.0, 0.0)], [(1e7, 0.0, -200.0), (100.0, 0.0, -200.0)]
        )
        assert not ok[0, 0]
        assert ok[0, 1]

    def test_rejects_out_of_column_points(self):
        with pytest.raises(ValueError, match="outside the water column"):
            pairwise_tof(TWO_LAYER, [(0.0, 0.0, 5.0)], [(0.0, 0.0, -50.0)])
