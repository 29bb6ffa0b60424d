import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from hydroloc import propagation
from hydroloc.environment import Layer, absorption_coeff, sound_speed
from hydroloc.propagation import (
    ChannelConfig,
    ChannelProfile,
    link_budget,
    pairwise_tof,
    ping_paths,
    simulate_ping,
    snr,
    tof_jacobian,
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


def ping_sums(prof, source_depth, receiver_depth, horizontal):
    """ping_paths' (tof, length, absorbed) of one path, given by its depths and range."""
    source = (0.0, 0.0, -source_depth)
    receiver = (horizontal, 0.0, -receiver_depth)
    return tuple(float(v[0]) for v in ping_paths(prof, source, [receiver]))


def segments(prof, source_depth, receiver_depth, horizontal):
    """The kernel's direct ray: (layer, length, grazing angle) per crossed layer, and p."""
    lengths, dz, p, ok = propagation._layer_paths(
        prof, source_depth, receiver_depth, horizontal
    )
    assert ok
    crossed = np.nonzero(lengths > 0.0)[0]
    return [
        (int(i), float(lengths[i]), math.asin(min(dz[i] / lengths[i], 1.0))) for i in crossed
    ], float(p)


def closure_error(segs, horizontal_range):
    dx = sum(length * math.cos(grazing) for _, length, grazing in segs)
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
    """The direct ray of the path kernel, through ping_paths and _layer_paths."""

    def test_vertical_two_layer(self):
        tof, length, _ = ping_sums(TWO_LAYER, 0.0, 200.0, 0.0)
        assert tof == pytest.approx(0.13423423423423423, abs=1e-12)
        assert length == pytest.approx(200.0)
        segs, p = segments(TWO_LAYER, 0.0, 200.0, 0.0)
        assert p == 0.0
        assert [grazing for _, _, grazing in segs] == [math.pi / 2, math.pi / 2]

    def test_homogeneous_is_straight_line(self):
        tof, length, _ = ping_sums(HOMOG, 400.0, 0.0, 300.0)
        assert length == pytest.approx(500.0, abs=1e-9)
        assert tof == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_two_layer_matches_fermat_minimum(self):
        tof = ping_sums(TWO_LAYER, 200.0, 0.0, 200.0)[0]
        x = np.linspace(0.0, 200.0, 200001)
        t = np.sqrt(x**2 + 100.0**2) / 1500.0 + np.sqrt((200.0 - x) ** 2 + 100.0**2) / 1480.0
        assert tof == pytest.approx(float(t.min()), abs=1e-9)

    def test_refraction_never_slower_than_straight(self):
        tof = ping_sums(TWO_LAYER, 200.0, 0.0, 200.0)[0]
        # The chord split at the boundary, each piece at its layer's speed.
        chord = math.hypot(200.0, 200.0)
        straight_tof = chord * 100.0 / 200.0 / 1500.0 + chord * 100.0 / 200.0 / 1480.0
        assert tof <= straight_tof

    def test_snell_invariant(self):
        prof = random_profile(np.random.default_rng(3), 6)
        segs, p = segments(prof, prof.total_depth * 0.9, 2.0, 300.0)
        for layer, _, grazing in segs:
            assert abs(math.cos(grazing) / prof.sound_speeds[layer] - p) < 1e-12

    def test_range_closure(self):
        prof = random_profile(np.random.default_rng(4), 5)
        for rng_m in (0.0, 10.0, 250.0, 900.0):
            segs, _ = segments(prof, prof.total_depth - 5.0, 1.0, rng_m)
            assert closure_error(segs, rng_m) < 1e-6

    def test_reciprocity(self):
        prof = random_profile(np.random.default_rng(5), 4)
        a = ping_sums(prof, 10.0, prof.total_depth - 10.0, 400.0)
        b = ping_sums(prof, prof.total_depth - 10.0, 10.0, 400.0)
        assert a[0] == pytest.approx(b[0], rel=1e-9)
        assert a[1] == pytest.approx(b[1], rel=1e-9)

    def test_tof_monotone_in_range(self):
        prof = random_profile(np.random.default_rng(6), 3)
        tofs = [
            ping_sums(prof, prof.total_depth - 1.0, 0.0, r)[0] for r in np.linspace(0.0, 500.0, 26)
        ]
        assert all(b > a for a, b in zip(tofs, tofs[1:]))

    def test_same_depth_horizontal_ray(self):
        segs, p = segments(TWO_LAYER, 150.0, 150.0, 600.0)
        assert [layer for layer, _, _ in segs] == [1]
        assert ping_sums(TWO_LAYER, 150.0, 150.0, 600.0)[0] == pytest.approx(600.0 / 1480.0)
        assert p == pytest.approx(1.0 / 1480.0)

    def test_same_depth_on_boundary_uses_layer_below(self):
        segs, _ = segments(TWO_LAYER, 100.0, 100.0, 100.0)
        assert segs[0][0] == 1

    def test_degenerate_coincident_endpoints(self):
        assert segments(TWO_LAYER, 50.0, 50.0, 0.0)[0] == []
        tof, length, _ = ping_sums(TWO_LAYER, 50.0, 50.0, 0.0)
        assert tof == 0.0
        assert length == 0.0

    def test_no_direct_path_when_ray_would_turn(self):
        assert not propagation._layer_paths(TWO_LAYER, 0.0, 200.0, 1e7)[3]
        assert math.isnan(ping_sums(TWO_LAYER, 0.0, 200.0, 1e7)[0])

    @pytest.mark.parametrize("src,rcv", [(-1.0, 10.0), (10.0, 300.0)])
    def test_depth_out_of_column(self, src, rcv):
        with pytest.raises(ValueError, match="depth"):
            ping_sums(TWO_LAYER, src, rcv, 100.0)


class TestLinkBudget:
    CONFIG = ChannelConfig(source_level=180.0, noise_level=50.0)

    def loss(self, prof, source_depth):
        """The loss of the vertical path from source_depth to the surface."""
        _, length, absorbed = ping_sums(prof, source_depth, 0.0, 0.0)
        return link_budget(self.CONFIG, length, absorbed)[0]

    def test_pure_spherical_spreading(self):
        prof = profile((0.0, 2000.0), (1500.0,), absorption=(0.0,))
        assert self.loss(prof, 1000.0) == pytest.approx(60.0, abs=1e-12)

    def test_uniform_absorption_adds_linearly(self):
        prof = profile((0.0, 2000.0), (1500.0,), absorption=(1.0,))
        assert self.loss(prof, 1000.0) == pytest.approx(61.0, abs=1e-12)

    def test_two_layer_weighted_absorption(self):
        prof = profile((0.0, 100.0, 200.0), (1500.0, 1480.0), absorption=(1.0, 3.0))
        expected = 20.0 * math.log10(200.0) + (100.0 * 1.0 + 100.0 * 3.0) / 1000.0
        assert self.loss(prof, 200.0) == pytest.approx(expected, abs=1e-12)

    def test_reference_distance_error(self):
        _, length, absorbed = ping_sums(HOMOG, 100.0, 100.0, 0.5)
        assert link_budget(self.CONFIG, length, absorbed) == (None, None, False)

    def test_loss_increases_with_length(self):
        prof = profile((0.0, 2000.0), (1500.0,), absorption=(0.5,))
        losses = [self.loss(prof, d) for d in (10.0, 100.0, 500.0, 1500.0)]
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
        # The fitness's forward model, on the same kernel paths.
        tof, _ = pairwise_tof(HOMOG, [self.source], self.receivers)
        assert [p.tof_measured for p in pings] == list(tof[0])
        assert [p.timestamp for p in pings] == [1.5] * 3

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
        # 0.54 m: below link_budget's reference distance; the ping is not detected.
        receivers = ((0.2, 0.0, -399.5), (300.0, 0.0, 0.0))
        pings = self.pings(receivers=receivers, seeds=(0, 1))
        assert [p.anchor_id for p in pings] == ["a1"]

    def test_nan_snr_is_a_non_detection(self):
        # NaN absorption gives a NaN SNR, which is not at or above any threshold.
        prof = ChannelProfile((0.0, 100.0), (1500.0,), (math.nan,), 25.0)
        pings = self.pings(
            prof, ChannelConfig(170.0, 50.0, 10.0), receivers=[(100.0, 0.0, 0.0)],
            seeds=[0], source=(0.0, 0.0, -50.0),
        )
        assert pings == []

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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_flags_unreachable_pairs(self):
        tof, ok = pairwise_tof(
            TWO_LAYER, [(0.0, 0.0, 0.0)],
            [(1e7, 0.0, -200.0), (100.0, 0.0, -200.0), (1e300, 0.0, -200.0)],
        )
        assert ok.tolist() == [[False, True, False]]

    def test_rejects_out_of_column_points(self):
        with pytest.raises(ValueError, match="outside the water column"):
            pairwise_tof(TWO_LAYER, [(0.0, 0.0, 5.0)], [(0.0, 0.0, -50.0)])

    @pytest.mark.parametrize("grazing", [1e-3, 1e-5, 1e-7, 1e-8, 1.5e-9])
    def test_tof_precise_up_to_grazing(self, grazing):
        # A 3-layer path whose ray has p c_max = 1 - grazing, against a
        # 50-digit reference.
        prof, horizontal, reference, _ = grazing_reference((1495.0, 1510.0, 1480.0), grazing)
        tof, ok = pairwise_tof(prof, [(0.0, 0.0, -140.0)], [(horizontal, 0.0, -5.0)])
        assert ok[0, 0]
        assert abs(tof[0, 0] - reference) <= 1e-15 * reference


def grazing_reference(speeds, grazing):
    """A 140 m to 5 m path whose ray has p c_max = 1 - grazing, to 50 digits.

    Bisects s = p c_max so that the ray closes the float range exactly.
    Returns (profile, horizontal range, TOF, (|dT/dup| at 140 m, at 5 m)),
    the slowness at an end being sqrt(1 - (p c)^2) / c in its layer.
    """
    prof = profile((0.0, 50.0, 100.0, 150.0), speeds)
    dz = column_overlaps(prof, 140.0, 5.0)
    with localcontext(prec=50):
        ratios = [Decimal(c) / Decimal(max(speeds)) for c in speeds]

        def closed_range(s):
            return sum(Decimal(d) * s * r / (1 - (s * r) ** 2).sqrt()
                       for d, r in zip(dz, ratios))

        horizontal = float(closed_range(1 - Decimal(grazing)))
        lo, hi = Decimal(0), Decimal(1)
        for _ in range(170):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if closed_range(mid) < Decimal(horizontal) else (lo, mid)
        tof = sum(Decimal(d) / (Decimal(c) * (1 - (lo * r) ** 2).sqrt())
                  for d, c, r in zip(dz, speeds, ratios))
        slowness = [(1 - (lo * r) ** 2).sqrt() / Decimal(c) for c, r in zip(speeds, ratios)]
    return prof, horizontal, float(tof), (float(slowness[2]), float(slowness[0]))


def exact_range(p, dz, speeds):
    """Horizontal range of the ray with parameter p, 1 - (p c)^2 taken exactly.

    Near grazing 1 - (p c)^2 cancels in float64; rationals keep the
    evaluation itself accurate to a few ulps.
    """
    total = 0.0
    for d, c in zip(dz, speeds):
        s = Fraction(float(p)) * Fraction(float(c))
        total += d * float(s) / math.sqrt(float(1 - s * s))
    return total


def bisect_ray_parameter(dz, speeds, ranges, steps=200):
    """Bisection of the float64 p -> range map on [0, (1 - _P_MARGIN) / c_max].

    Every row of dz crosses every layer.
    """
    lo = np.zeros(len(ranges))
    hi = np.full(len(ranges), (1.0 - propagation._P_MARGIN) / max(speeds))
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        x = (dz * speeds * mid[:, None] / np.sqrt(1.0 - (mid[:, None] * speeds) ** 2)).sum(axis=-1)
        np.copyto(lo, mid, where=x < ranges)
        np.copyto(hi, mid, where=x >= ranges)
    return lo


class TestSolveRayParameter:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("seed", range(4))
    def test_thin_fast_layer_under_thick_slow_layers(self, seed, monkeypatch):
        # A thin fastest layer (1 mm to 1 m) at the bottom of 1-4 thick slow
        # ones, at ranges from 1e-3 to 100 times the depth: the ray runs from
        # near vertical to grazing in the fast layer, or cannot close.
        rng = np.random.default_rng(seed)
        n_slow = int(rng.integers(1, 5))
        slow = rng.uniform(1450.0, 1530.0, n_slow)
        speeds = np.append(slow, slow.max() + rng.uniform(0.5, 30.0))
        rows = 200
        dz = np.column_stack([rng.uniform(20.0, 150.0, (rows, n_slow)),
                              10.0 ** rng.uniform(-3.0, 0.0, rows)])
        ranges = dz.sum(axis=-1) * 10.0 ** rng.uniform(-3.0, 2.0, rows)

        lengths, p, ok = propagation._solve_ray_parameter(dz, speeds, ranges)
        p_cap = (1.0 - propagation._P_MARGIN) / speeds[-1]
        reach = np.array([exact_range(p_cap, d, speeds) for d in dz])
        assert np.array_equal(ok, reach >= ranges)
        assert 0 < ok.sum() < rows and (p[~ok] == 0.0).all()

        # Every row stopped inside the cap: more steps change nothing.
        monkeypatch.setattr(propagation, "_NEWTON_STEPS", 4 * propagation._NEWTON_STEPS)
        assert np.array_equal(propagation._solve_ray_parameter(dz, speeds, ranges)[1], p)

        # Away from grazing, p agrees with a bisection of the same map.
        steep = ok & (p * speeds[-1] < 1.0 - 1e-6)
        reference = bisect_ray_parameter(dz[steep], speeds, ranges[steep])
        np.testing.assert_allclose(p[steep], reference, rtol=1e-12, atol=0.0)
        # There the lengths are also the ones p gives, dz / sqrt(1 - (p c)^2), up
        # to p's rounding, which moves a length by ~1e-10 at p c = 1 - 1e-6.
        bent = dz[steep] / np.sqrt(1.0 - (p[steep, None] * speeds) ** 2)
        np.testing.assert_allclose(lengths[steep], bent, rtol=1e-9, atol=0.0)

        # The range closes. Near grazing the range moves by up to ~1e-7 per
        # ulp of p, so the closure is judged up to p's neighbouring floats.
        for k in np.nonzero(ok)[0]:
            lo = exact_range(p[k] * (1.0 - 4e-16), dz[k], speeds)
            hi = exact_range(p[k] * (1.0 + 4e-16), dz[k], speeds)
            assert lo * (1.0 - 1e-9) <= ranges[k] <= hi * (1.0 + 1e-9)


class TestTofJacobian:
    # Against surface anchors, the 60 m beacon's paths cross one interface
    # of the 3-layer column and the 100 m beacon's two; the 20 m beacon's
    # stay in the top layer. The last anchor is level with the 100 m
    # beacon, and the anchor above the 60 m beacon is at zero range.
    BEACONS = [(10.0, -20.0, -60.0), (-35.0, 40.0, -100.0), (5.0, 5.0, -20.0)]
    ANCHORS = [(100.0, 100.0, 0.0), (-120.0, 30.0, -1.0), (10.0, -20.0, 0.0),
               (60.0, -70.0, -100.0)]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("prof", [
        profile((0.0, 30.0, 80.0, 150.0), (1510.0, 1495.0, 1485.0)),
        profile((0.0, 150.0), (1500.0,)),
    ], ids=["3-layer", "1-layer"])
    def test_matches_central_differences(self, prof):
        h = 1e-3
        tof, ok, jac_a, _ = tof_jacobian(prof, self.BEACONS, self.ANCHORS)
        assert ok.all()
        assert np.array_equal(tof, pairwise_tof(prof, self.BEACONS, self.ANCHORS)[0])
        # The anchor side, with the surface anchors 2h down, so that a step up
        # stays in the water.
        anchors = np.array(self.ANCHORS)
        anchors[:, 2] = np.minimum(anchors[:, 2], -2 * h)
        _, _, _, jac_b = tof_jacobian(prof, self.BEACONS, anchors)
        beacons = np.array(self.BEACONS)

        def central(step_a, step_b, points_b):
            ahead, _ = pairwise_tof(prof, beacons + step_a, np.add(points_b, step_b))
            behind, _ = pairwise_tof(prof, beacons - step_a, np.subtract(points_b, step_b))
            return (ahead - behind) / (2 * h)

        for axis in range(3):
            step = np.zeros(3)
            step[axis] = h
            np.testing.assert_allclose(jac_a[..., axis], central(step, 0.0, self.ANCHORS),
                                       rtol=0.0, atol=1e-11)
            np.testing.assert_allclose(jac_b[..., axis], central(0.0, step, anchors),
                                       rtol=0.0, atol=1e-11)

    def test_closed_forms(self):
        prof = profile((0.0, 30.0, 80.0, 150.0), (1510.0, 1495.0, 1485.0))
        _, _, jac, jac_b = tof_jacobian(prof, self.BEACONS, self.ANCHORS)
        # Straight up: no horizontal term, -1/c at the beacon and +1/c at
        # the anchor, each in its own layer.
        assert np.array_equal(jac[0, 2], [0.0, 0.0, -1.0 / 1495.0])
        assert np.array_equal(jac_b[0, 2], [0.0, 0.0, 1.0 / 1510.0])
        # Level: the ray runs horizontally, p = 1/c and no vertical term;
        # the anchor's horizontal gradient is the beacon's negated.
        unit = np.subtract(self.BEACONS[1], self.ANCHORS[3])[:2] / math.dist(
            self.BEACONS[1][:2], self.ANCHORS[3][:2])
        np.testing.assert_allclose(jac[1, 3, :2], unit / 1485.0, rtol=1e-14)
        assert jac[1, 3, 2] == 0.0
        assert np.array_equal(jac_b[1, 3, :2], -jac[1, 3, :2])
        assert jac_b[1, 3, 2] == 0.0

    def test_deeper_end_on_an_interface_takes_the_layer_the_path_crosses(self):
        # A beacon on the 80 m interface: its up gradient is the one-sided
        # difference into the layer above, which the paths cross, not the
        # one into the layer below.
        prof = profile((0.0, 30.0, 80.0, 150.0), (1510.0, 1495.0, 1485.0))
        beacon, h = np.array([(10.0, -20.0, -80.0)]), 1e-5
        _, ok, jac, _ = tof_jacobian(prof, beacon, self.ANCHORS[:3])
        assert ok.all()
        ahead, _ = pairwise_tof(prof, beacon + (0.0, 0.0, h), self.ANCHORS[:3])
        here, _ = pairwise_tof(prof, beacon, self.ANCHORS[:3])
        np.testing.assert_allclose(jac[..., 2], (ahead - here) / h, rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("grazing", [1e-3, 1e-5, 1e-7, 1e-8, 1.5e-9])
    @pytest.mark.parametrize("speeds", [(1495.0, 1510.0, 1480.0), (1510.0, 1495.0, 1480.0)],
                             ids=["fast-middle", "fast-surface"])
    def test_vertical_gradient_precise_up_to_grazing(self, speeds, grazing):
        # At both ends of a 3-layer path whose ray has p c_max = 1 - grazing,
        # against a 50-digit reference; with the fastest layer at the surface
        # the 5 m end's sqrt(1 - p^2 c^2) cancels.
        prof, horizontal, _, (deep, shallow) = grazing_reference(speeds, grazing)
        _, ok, jac_a, jac_b = tof_jacobian(prof, [(0.0, 0.0, -140.0)], [(horizontal, 0.0, -5.0)])
        assert ok[0, 0]
        assert abs(-jac_a[0, 0, 2] - deep) <= 1e-15 * deep
        assert abs(jac_b[0, 0, 2] - shallow) <= 1e-15 * shallow

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_anchor_side_squares_equal_the_reversed_call(self):
        # The fix covariance maps anchor noise through jac_b**2; it must be
        # the reversed call's squared jac_a, to the last bit.
        prof = profile((0.0, 30.0, 80.0, 150.0), (1510.0, 1495.0, 1485.0))
        rng = np.random.default_rng(7)
        beacons = rng.uniform((-150.0, -150.0, -150.0), (150.0, 150.0, 0.0), (60, 3))
        anchors = np.c_[rng.uniform(-150.0, 150.0, (8, 2)), -rng.uniform(0.0, 2.0, 8)]
        anchors[:3, 2] = 0.0
        beacons[:4, :2] = anchors[:4, :2]  # straight up and down
        beacons[4:8, 2] = anchors[4:8, 2]  # level
        tof, ok, _, jac_b = tof_jacobian(prof, beacons, anchors)
        rev_tof, rev_ok, rev_jac, _ = tof_jacobian(prof, anchors, beacons)
        assert np.array_equal(tof, rev_tof.T) and np.array_equal(ok, rev_ok.T)
        assert np.array_equal(jac_b**2, rev_jac.transpose(1, 0, 2) ** 2)
