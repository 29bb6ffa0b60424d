import math

import numpy as np
import pytest

from hydroloc.environment import Layer, absorption_coeff, sound_speed
from hydroloc.propagation import (
    ChannelConfig,
    ChannelProfile,
    NoDirectPathError,
    pairwise_tof,
    ping_paths,
    simulate_ping,
    snr,
    trace_refracted,
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
    return ChannelProfile.from_layers(layers, 25.0)


def closure_error(path, horizontal_range):
    dx = sum(seg.length * math.cos(seg.grazing_angle) for seg in path.segments)
    return abs(dx - horizontal_range)


class TestProfile:
    def test_from_layers_matches_environment(self):
        prof = ChannelProfile.from_layers(
            [Layer(100.0, 10.0, 35.0, 8.0), Layer(50.0, 8.0, 35.0, 8.0)], 12.0
        )
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
        # The chord split at the boundary, each piece at its layer's speed.
        chord = math.hypot(200.0, 200.0)
        straight_tof = chord * 100.0 / 200.0 / 1500.0 + chord * 100.0 / 200.0 / 1480.0
        assert path.tof <= straight_tof

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

    @pytest.mark.parametrize(
        "src,rcv,horizontal,first",
        [
            (120.0, 120.0, 98.0, 1),   # equal depths
            (150.0, 0.0, 0.0, 1),      # vertical
            (180.0, 20.0, 67.0, 1),    # source deeper
            (100.0, 160.0, 70.0, 1),   # source on a boundary: the layer below
        ],
        ids=["equal-depth", "vertical", "deeper-source", "boundary-source"],
    )
    def test_segments_run_source_to_receiver(self, src, rcv, horizontal, first):
        path = trace_refracted(TWO_LAYER, src, rcv, horizontal)
        layers = [seg.layer for seg in path.segments]
        assert layers[0] == first
        assert layers == sorted(layers, reverse=src > rcv)

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
        tof_noise_sigma=0.0,
    )
    source = (0.0, 0.0, -400.0)
    # Oblique, vertical and equal-depth paths from the source.
    receivers = ((300.0, 0.0, 0.0), (0.0, 0.0, -20.0), (-60.0, 80.0, -400.0))

    def pings(self, prof=HOMOG, config=config, receivers=receivers, seeds=(7, 8, 9),
              source=source):
        """One epoch as the pipeline runs it: one ping_paths call, then each anchor."""
        tof, length, absorbed = ping_paths(prof, source, receivers)
        pings = [
            simulate_ping(config, f"a{j}", tof[j], length[j], absorbed[j], seeds[j], 1.5)
            for j in range(len(receivers))
        ]
        return [p for p in pings if p is not None]

    def test_zero_noise_matches_trace(self):
        pings = self.pings()
        assert [p.anchor_id for p in pings] == ["a0", "a1", "a2"]
        src = self.source
        for ping, rcv in zip(pings, self.receivers):
            horizontal = math.hypot(rcv[0] - src[0], rcv[1] - src[1])
            assert ping.tof_measured == trace_refracted(HOMOG, -src[2], -rcv[2], horizontal).tof
            assert ping.timestamp == 1.5

    def test_zero_noise_homogeneous_epoch(self):
        # Every detection is the direct line: TOF r/c, SNR SL - 20 log10 r - alpha r - NL.
        for ping, rcv in zip(self.pings(), self.receivers):
            r = math.dist(self.source, rcv)
            assert ping.tof_measured == pytest.approx(r / 1500.0, rel=1e-12)
            expected_snr = 170.0 - 20.0 * math.log10(r) - 1.0e-3 * r - 50.0
            assert ping.snr == pytest.approx(expected_snr, abs=1e-9)

    def test_unreachable_threshold_never_detects(self):
        assert self.pings(config=ChannelConfig(170.0, 50.0, 1e6, 0.0)) == []

    def test_seeded_determinism(self):
        config = ChannelConfig(170.0, 50.0, 10.0, 1e-3)
        first, second = self.pings(config=config), self.pings(config=config)
        assert [p.tof_measured for p in first] == [p.tof_measured for p in second]
        assert [p.snr for p in first] == [p.snr for p in second]
        assert first[0].tof_measured != self.pings()[0].tof_measured  # noise applied

    def test_below_threshold_anchor_leaves_other_draws(self):
        receivers = self.receivers + ((5000.0, 0.0, 0.0),)
        snrs = [p.snr for p in self.pings(receivers=receivers, seeds=(7, 8, 9, 10))]
        threshold = 0.5 * (snrs[-1] + min(snrs[:-1]))  # only the far anchor fails
        everyone = self.pings(
            config=ChannelConfig(170.0, 50.0, -1e6, 1e-3), receivers=receivers,
            seeds=(7, 8, 9, 10),
        )
        near_only = self.pings(
            config=ChannelConfig(170.0, 50.0, threshold, 1e-3), receivers=receivers,
            seeds=(7, 8, 9, 10),
        )
        assert [p.anchor_id for p in near_only] == ["a0", "a1", "a2"]
        assert [p.tof_measured for p in near_only] == [p.tof_measured for p in everyone[:3]]

    def test_no_direct_path_is_a_non_detection(self):
        pings = self.pings(
            TWO_LAYER, receivers=[(1e7, 0.0, -200.0)], seeds=[0], source=(0.0, 0.0, 0.0)
        )
        assert pings == []

    def test_path_below_reference_distance_is_a_non_detection(self):
        # 0.54 m: transmission_loss rejects such a path; the ping is not detected.
        receivers = ((0.2, 0.0, -399.5), (300.0, 0.0, 0.0))
        pings = self.pings(receivers=receivers, seeds=(0, 1))
        assert [p.anchor_id for p in pings] == ["a1"]

    def test_invalid_path_model_rejected(self):
        with pytest.raises(ValueError, match="path_model"):
            ChannelConfig(170.0, 50.0, 10.0, 0.0, path_model="bent")


def column_overlaps(prof, z_a, z_b):
    lo, hi = min(z_a, z_b), max(z_a, z_b)
    b = prof.boundaries
    return [max(0.0, min(hi, b[i + 1]) - max(lo, b[i])) for i in range(len(b) - 1)]


def fermat_tof(dz, speeds, horizontal):
    """Least travel time over the layer crossing points, by zooming grids.

    Straight segments within layers; the free variables are the
    horizontal runs of all but the last traversed layer, which takes the
    rest. The travel time is convex in them, so each grid's minimum
    brackets the next, finer grid.
    """
    lo = np.zeros(len(dz) - 1)
    hi = np.full(len(dz) - 1, horizontal)
    for _ in range(16):
        axes = [np.linspace(a, b, 41) for a, b in zip(lo, hi)]
        runs = [g.ravel() for g in np.meshgrid(*axes, indexing="ij")]
        runs.append(horizontal - sum(runs))
        t = sum(np.hypot(x, d) / c for x, d, c in zip(runs, dz, speeds))
        best = np.array([x[np.argmin(t)] for x in runs[:-1]])
        step = (hi - lo) / 40.0
        lo, hi = best - 2.0 * step, best + 2.0 * step
    return float(t.min())


class TestPairwiseTof:
    @pytest.mark.parametrize("n_layers", [2, 3])
    def test_refracted_matches_fermat_minimum(self, n_layers):
        rng = np.random.default_rng(40 + n_layers)
        prof = random_profile(rng, n_layers)
        b = prof.boundaries
        sources = np.column_stack(
            [rng.uniform(-200, 200, 4), rng.uniform(-200, 200, 4), -rng.uniform(b[-2], b[-1], 4)]
        )
        receivers = np.column_stack(
            [rng.uniform(-200, 200, 3), rng.uniform(-200, 200, 3), -rng.uniform(0, b[1], 3)]
        )
        tof, ok = pairwise_tof(prof, sources, receivers)
        assert ok.all()
        for i, src in enumerate(sources):
            for j, rcv in enumerate(receivers):
                dz = column_overlaps(prof, -src[2], -rcv[2])
                oracle = fermat_tof(dz, prof.sound_speeds, math.dist(src[:2], rcv[:2]))
                assert tof[i, j] == pytest.approx(oracle, abs=1e-9)

    def test_vertical_and_equal_depth_closed_forms(self):
        prof = profile((0.0, 100.0, 200.0, 300.0), (1500.0, 1480.0, 1470.0))
        points = [(10.0, 20.0, -250.0)]
        targets = [
            (10.0, 20.0, -30.0),    # vertical through two boundaries
            (10.0, 20.0, 0.0),      # vertical to the surface
            (70.0, -60.0, -250.0),  # level in the bottom layer
            (40.0, 60.0, -100.0),   # level on a boundary: the layer below
        ]
        tof, ok = pairwise_tof(prof, points + [(-50.0, 140.0, -100.0)], targets)
        assert ok.all()
        assert tof[0, 0] == pytest.approx(70.0 / 1500.0 + 100.0 / 1480.0 + 50.0 / 1470.0)
        assert tof[0, 1] == pytest.approx(100.0 / 1500.0 + 100.0 / 1480.0 + 50.0 / 1470.0)
        assert tof[0, 2] == pytest.approx(math.hypot(60.0, 80.0) / 1470.0, rel=1e-15)
        assert tof[1, 3] == pytest.approx(math.hypot(90.0, 80.0) / 1480.0, rel=1e-15)

    @pytest.mark.parametrize("slope", [1e-5, 1e-6, 1e-7, 1e-8, 0.0])
    def test_near_level_pair_is_its_chord(self, slope):
        # 100 m apart at 10 m depth; a near-level pair used to lose accuracy
        # and, at slope 1e-8, get a non-finite TOF.
        z_a, z_b = 10.0, 10.0 + slope * 100.0
        expected = math.hypot(100.0, z_b - z_a) / 1500.0
        tof, ok = pairwise_tof(HOMOG, [(0.0, 0.0, -z_a)], [(100.0, 0.0, -z_b)])
        assert ok[0, 0] and tof[0, 0] == expected
        assert ping_paths(HOMOG, (0.0, 0.0, -z_a), [(100.0, 0.0, -z_b)])[0][0] == expected

    def test_batch_rows_equal_rows_solved_alone(self):
        # A pair's ray parameter must not depend on the pairs solved with it.
        prof = profile((0.0, 30.0, 80.0, 150.0), (1510.0, 1495.0, 1485.0))
        rng = np.random.default_rng(12)
        candidates = rng.uniform((-150.0, -150.0, -150.0), (150.0, 150.0, 0.0), (100, 3))
        anchors = [(100.0, 100.0, 0.0), (100.0, -100.0, 0.0), (-100.0, 100.0, -0.5),
                   (-100.0, -100.0, -1.0)]
        tof, ok = pairwise_tof(prof, candidates, anchors)
        for i, cand in enumerate(candidates):
            for j, anchor in enumerate(anchors):
                alone, alone_ok = pairwise_tof(prof, [cand], [anchor])
                assert alone[0, 0] == tof[i, j] and alone_ok[0, 0] == ok[i, j]

    def test_flags_unreachable_pairs(self):
        tof, ok = pairwise_tof(
            TWO_LAYER, [(0.0, 0.0, 0.0)], [(1e7, 0.0, -200.0), (100.0, 0.0, -200.0)]
        )
        assert not ok[0, 0]
        assert ok[0, 1]

    def test_rejects_out_of_column_points(self):
        with pytest.raises(ValueError, match="outside the water column"):
            pairwise_tof(TWO_LAYER, [(0.0, 0.0, 5.0)], [(0.0, 0.0, -50.0)])
