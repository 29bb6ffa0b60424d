import logging

import numpy as np
import pytest

from hydroloc import multilateration
from hydroloc.multilateration import (
    GaConfig,
    SearchBounds,
    evolve_generation,
    fitness,
    ga_localize,
)
from hydroloc.propagation import (
    ChannelProfile,
    pairwise_tof,
    ping_paths,
    tof_jacobian,
)
from hydroloc.smallmat import eigh3

HOMOG = ChannelProfile(
    boundaries=(0.0, 100.0), sound_speeds=(1500.0,), absorption=(1.0,), frequency=25.0
)
THREE_LAYER = ChannelProfile(
    boundaries=(0.0, 30.0, 80.0, 150.0), sound_speeds=(1510.0, 1495.0, 1485.0),
    absorption=(1.0, 1.0, 1.0), frequency=25.0,
)
BOUNDS = SearchBounds(east=(-150.0, 150.0), north=(-150.0, 150.0), up=(-100.0, 0.0))
# The ne, se, nw and sw anchors.
ANCHOR_POS = np.array([
    [100.0, 100.0, 0.0],
    [100.0, -100.0, 0.0],
    [-100.0, 100.0, 0.0],
    [-100.0, -100.0, 0.0],
])
TRUTH = np.array([0.0, 0.0, -50.0])


def noiseless_tofs(anchor_pos=ANCHOR_POS, truth=TRUTH, profile=HOMOG):
    """Each anchor's ping from truth, as a run traces it, without timing noise."""
    return ping_paths(profile, truth, anchor_pos)[0]


TOFS = noiseless_tofs()


class TestSearchBounds:
    def test_above_surface_rejected(self):
        with pytest.raises(ValueError, match="up"):
            SearchBounds(east=(-1.0, 1.0), north=(-1.0, 1.0), up=(-1.0, 0.5))

    def test_degenerate_axis_rejected(self):
        with pytest.raises(ValueError, match="north"):
            SearchBounds(east=(-1.0, 1.0), north=(2.0, 2.0), up=(-1.0, 0.0))

    @pytest.mark.parametrize("east", [(-1e6 - 1.0, 0.0), (0.0, 1.0000001e6), (-1e300, 1e300)])
    def test_ends_beyond_the_ceiling_rejected(self, east):
        with pytest.raises(ValueError, match=r"east: ends must be within \+-1000000.0 m"):
            SearchBounds(east=east, north=(-1.0, 1.0), up=(-1.0, 0.0))

    def test_ceiling_is_inclusive(self):
        ends = (-multilateration.SEARCH_BOUND_MAX, multilateration.SEARCH_BOUND_MAX)
        assert SearchBounds(east=ends, north=ends, up=(ends[0], 0.0)).largest_extent() == 2e6


class TestGaConfig:
    def test_defaults_valid(self):
        cfg = GaConfig(search_bounds=BOUNDS)
        assert cfg.population_size == 200
        assert cfg.initial_sigma() == pytest.approx(30.0)  # 10% of 300 m extent

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"population_size": 3}, "population_size"),
            ({"generations": 0}, "generations"),
            ({"fitness_mode": "nearest"}, "fitness_mode"),
        ],
    )
    def test_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            GaConfig(search_bounds=BOUNDS, **kwargs)


class TestMeanSpeed:
    def test_homogeneous(self):
        assert HOMOG.mean_speed(50.0) == 1500.0

    def test_harmonic_mean_two_layers(self):
        prof = ChannelProfile(
            boundaries=(0.0, 100.0, 200.0), sound_speeds=(1500.0, 1460.0),
            absorption=(1.0, 1.0), frequency=25.0,
        )
        # Two equal-thickness layers: 2/(1/1500 + 1/1460), so 0.1 s is 147.97 m.
        assert prof.mean_speed(200.0) == pytest.approx(1479.7297297297297, rel=1e-15)

    def test_equals_depth_over_the_vertical_path_tof(self):
        rng = np.random.default_rng(4)
        depths = np.concatenate([THREE_LAYER.boundaries[1:], rng.uniform(0.0, 150.0, 12)])
        for depth in depths.tolist():
            tof, ok = pairwise_tof(THREE_LAYER, [(0.0, 0.0, -depth)], [(0.0, 0.0, 0.0)])
            assert ok[0, 0]
            assert THREE_LAYER.mean_speed(depth) == depth / tof[0, 0]

    @pytest.mark.parametrize("depth", [0.0, -1.0, 100.5, np.nan])
    def test_depth_outside_the_column_rejected(self, depth):
        with pytest.raises(ValueError, match=r"outside \(0, 100.0\]"):
            HOMOG.mean_speed(depth)


class TestFitness:
    def test_zero_at_truth_tof_mode(self):
        value = fitness(TRUTH[None], ANCHOR_POS, TOFS, HOMOG, mode="tof_residual")
        assert value.shape == (1,)
        assert 0.0 <= value[0] < 1e-18

    def test_zero_at_truth_range_mode(self):
        ranges = TOFS * HOMOG.mean_speed(50.0)
        value = fitness(TRUTH[None], ANCHOR_POS, ranges, HOMOG, mode="range_residual")
        assert 0.0 <= value[0] < 1e-18

    def test_perturbation_increases_fitness(self):
        deltas = np.array([(0.0, 0, 0), (10.0, 0, 0), (0, 10.0, 0), (0, 0, -10.0)])
        fits = fitness(TRUTH + deltas, ANCHOR_POS, TOFS, HOMOG, mode="tof_residual")
        assert (fits[1:] > fits[0]).all()

    def test_surface_clamped_mirror_has_positive_residual(self):
        # The true mirror (0, 0, +50) is outside the bounds; forcing it to
        # the surface plane leaves a strictly positive residual.
        assert 50.0 > BOUNDS.highs()[2]
        surface = np.array([[0.0, 0.0, 0.0]])
        assert fitness(surface, ANCHOR_POS, TOFS, HOMOG, mode="tof_residual")[0] > 0.0

    def test_vectorized_matches_scalar(self):
        # Each row scored as its own (1, 3) batch equals its entry in the
        # whole batch, in both modes: rows are independent.
        cands = np.array([[0.0, 0.0, -50.0], [10.0, -5.0, -40.0], [-30.0, 20.0, -70.0]])
        for mode in ("tof_residual", "range_residual"):
            vec = fitness(cands, ANCHOR_POS, TOFS, HOMOG, mode=mode)
            assert vec.shape == (3,)
            for row, expected in zip(cands, vec):
                assert fitness(row[None], ANCHOR_POS, TOFS, HOMOG, mode=mode)[0] == expected

    def test_surface_candidates_against_near_surface_anchors_are_finite(self):
        # Candidates clipped to the surface against anchors a hair below it
        # make near-level pairs, which used to score inf or NaN.
        near = ANCHOR_POS.copy()
        near[:, 2] = (-1e-6, -1e-7, -3e-9, -1e-8)
        grid = np.linspace(-150.0, 150.0, 31)
        cands = np.array([(e, n, 0.0) for e in grid for n in grid])
        fits = fitness(cands, near, noiseless_tofs(near), HOMOG, mode="tof_residual")
        assert np.isfinite(fits).all()

    def test_candidate_outside_column_rejected(self):
        # A NaN candidate used to score NaN in range mode.
        for mode in ("tof_residual", "range_residual"):
            for up in (-150.0, 5.0, np.nan):
                cands = np.array([[0.0, 0.0, -50.0], [0.0, 0.0, up], [0.0, 0.0, -200.0]])
                with pytest.raises(ValueError) as info:
                    fitness(cands, ANCHOR_POS, TOFS, HOMOG, mode=mode)
                assert str(info.value) == (
                    f"row 1: candidate depth {-up!r} m outside the water column [0, 100.0]"
                )

    def test_no_path_candidates_get_finite_penalty(self):
        prof = ChannelProfile(
            boundaries=(0.0, 100.0, 200.0), sound_speeds=(1500.0, 1480.0),
            absorption=(1.0, 1.0), frequency=25.0,
        )
        far = np.vstack([(5e6, 0.0, 0.0), ANCHOR_POS[1:]])
        observed = np.concatenate([[0.5], TOFS[1:]])
        value = fitness(np.array([[0.0, 0.0, -150.0]]), far, observed, prof, mode="tof_residual")[0]
        assert np.isfinite(value)
        assert value >= 1e6


class TestEvolveGeneration:
    cfg = GaConfig(search_bounds=BOUNDS, population_size=16)

    def evaluate(self, pop):
        return fitness(pop, ANCHOR_POS, TOFS, HOMOG, mode="tof_residual")

    def test_population_size_mismatch_rejected(self):
        rng = np.random.default_rng(0)
        pop = rng.uniform(-1, 0, size=(8, 3))
        with pytest.raises(ValueError, match="population"):
            evolve_generation(pop, np.zeros(8), self.cfg, rng, 1.0)

    def test_elites_survive_verbatim(self):
        rng = np.random.default_rng(1)
        pop = rng.uniform(BOUNDS.lows(), BOUNDS.highs(), size=(16, 3))
        fits = self.evaluate(pop)
        nxt = evolve_generation(pop, fits, self.cfg, rng, 5.0)
        assert nxt.shape == pop.shape
        assert np.array_equal(nxt[0], pop[np.argmin(fits)])

    def test_tied_best_keeps_the_first(self):
        rng = np.random.default_rng(1)
        pop = rng.uniform(BOUNDS.lows(), BOUNDS.highs(), size=(16, 3))
        fits = np.full(16, 2.0)
        fits[[5, 9, 12]] = 1.0
        nxt = evolve_generation(pop, fits, self.cfg, rng, 5.0)
        assert np.array_equal(nxt[0], pop[5])

    def test_offspring_respect_bounds(self):
        cfg = GaConfig(search_bounds=BOUNDS, population_size=64)
        rng = np.random.default_rng(3)
        pop = rng.uniform(BOUNDS.lows(), BOUNDS.highs(), size=(64, 3))
        nxt = evolve_generation(pop, self.evaluate(pop), cfg, rng, 500.0)
        assert np.all(nxt >= BOUNDS.lows()) and np.all(nxt <= BOUNDS.highs())
        # sigma far exceeds the box, so some mutated coordinates were clamped.
        assert np.any((nxt == BOUNDS.lows()) | (nxt == BOUNDS.highs()))


class TestGaLocalize:
    def test_canonical_recovery(self):
        cfg = GaConfig(search_bounds=BOUNDS)
        est = ga_localize(ANCHOR_POS, TOFS, cfg, HOMOG, seed=42)
        assert np.linalg.norm(est.position - TRUTH) < 0.1
        assert (BOUNDS.lows() <= est.position).all() and (est.position <= BOUNDS.highs()).all()
        assert 0.0 <= est.best_fitness < 1e-6
        # Noiseless pings: the covariance is the floor in every direction.
        assert np.allclose(est.covariance, 0.25 * np.eye(3), rtol=0.0, atol=1e-12)

    def test_seed_determinism_is_bit_exact(self):
        cfg = GaConfig(search_bounds=BOUNDS)
        a = ga_localize(ANCHOR_POS, TOFS, cfg, HOMOG, seed=7)
        b = ga_localize(ANCHOR_POS, TOFS, cfg, HOMOG, seed=7)
        assert np.array_equal(a.position, b.position)
        assert a.best_fitness == b.best_fitness
        assert np.array_equal(a.covariance, b.covariance)
        assert a.generations_run == b.generations_run
        assert a.polishes == b.polishes

    def test_best_fitness_monotone_over_generations(self):
        history = []
        cfg = GaConfig(search_bounds=BOUNDS, generations=80)
        ga_localize(
            ANCHOR_POS, TOFS, cfg, HOMOG, seed=3,
            trace=lambda gen, best, sigma: history.append(best),
        )
        assert all(b <= a for a, b in zip(history, history[1:]))

    def test_underdetermined_with_three_anchors(self):
        with pytest.raises(ValueError, match="underdetermined"):
            ga_localize(ANCHOR_POS[:3], TOFS[:3], GaConfig(search_bounds=BOUNDS), HOMOG, 0)

    def test_empty_measurements_rejected(self):
        with pytest.raises(ValueError, match="underdetermined"):
            ga_localize(np.empty((0, 3)), np.empty(0), GaConfig(search_bounds=BOUNDS), HOMOG, 0)

    @pytest.mark.parametrize("anchor_pos, tofs", [
        (ANCHOR_POS, TOFS[:3]),
        (ANCHOR_POS[:3], TOFS),
        (ANCHOR_POS[:, :2], TOFS),
        (ANCHOR_POS, TOFS[:, None]),
    ])
    def test_mismatched_shapes_rejected(self, anchor_pos, tofs):
        with pytest.raises(ValueError, match=r"need \(M, 3\), \(M,\)"):
            ga_localize(anchor_pos, tofs, GaConfig(search_bounds=BOUNDS), HOMOG, 0)

    @pytest.mark.parametrize("mode", ["tof_residual", "range_residual"])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_anchor_position_rejected(self, mode, axis, value):
        # Before this check a NaN east failed as a source depth outside the
        # water column, and an infinite one overflowed.
        bad = ANCHOR_POS.copy()
        bad[2, axis] = value
        cfg = GaConfig(search_bounds=BOUNDS, fitness_mode=mode)
        with pytest.raises(ValueError, match="row 2: anchor position must be finite"):
            ga_localize(bad, TOFS, cfg, HOMOG, 0)

    @pytest.mark.parametrize("mode", ["tof_residual", "range_residual"])
    @pytest.mark.parametrize("up", [5.0, -150.0])
    def test_anchor_outside_water_column_rejected(self, mode, up):
        # Before this check the kernel raised "receiver depth [[-0. -0. -5. -0.]]
        # outside the water column", naming no row.
        bad = ANCHOR_POS.copy()
        bad[3, 2] = up
        cfg = GaConfig(search_bounds=BOUNDS, fitness_mode=mode)
        with pytest.raises(ValueError) as info:
            ga_localize(bad, TOFS, cfg, HOMOG, 0)
        assert str(info.value) == (
            f"row 3: anchor depth {-up!r} m outside the water column [0, 100.0]"
        )

    def test_bounds_below_column_rejected(self):
        bounds = SearchBounds(east=(-10.0, 10.0), north=(-10.0, 10.0), up=(-500.0, 0.0))
        with pytest.raises(ValueError, match="water column"):
            ga_localize(ANCHOR_POS, TOFS, GaConfig(search_bounds=bounds), HOMOG, 0)

    def test_coincident_anchors_flagged_by_dispersion(self, caplog):
        cfg = GaConfig(search_bounds=BOUNDS)
        with caplog.at_level(logging.WARNING, logger="hydroloc.multilateration"):
            est = ga_localize(np.zeros((4, 3)), np.full(4, 50.0 / 1500.0), cfg, HOMOG, seed=1)
        assert any("poorly constrained" in r.message for r in caplog.records)
        # Only the range to the anchors is observed: the two directions
        # across it get the largest search extent as their sigma.
        sigmas = np.sqrt(np.linalg.eigvalsh(est.covariance))
        assert sigmas[1] == pytest.approx(BOUNDS.largest_extent())

    def test_well_posed_fix_is_not_flagged(self, caplog):
        cfg = GaConfig(search_bounds=BOUNDS)
        with caplog.at_level(logging.WARNING, logger="hydroloc.multilateration"):
            ga_localize(ANCHOR_POS, TOFS, cfg, HOMOG, seed=1)
        assert not caplog.records

    @pytest.mark.parametrize("mode", ["tof_residual", "range_residual"])
    @pytest.mark.parametrize("depth", [0.5, 2.0, 5.0])
    def test_near_surface_beacon_is_fixed_below_the_surface(self, depth, mode):
        # A few metres below the coplanar anchors the residual is nearly
        # flat in up, and the GA's best often sits on the up = 0 face,
        # where J's up column vanishes. Every polish starts below that
        # face, so Gauss-Newton reaches the beacon whatever the GA's draws.
        truth = np.array([20.0, -30.0, -depth])
        tofs = noiseless_tofs(truth=truth, profile=THREE_LAYER)
        cfg = GaConfig(search_bounds=BOUNDS, population_size=40, generations=30,
                       fitness_mode=mode)
        for seed in range(20):
            est = ga_localize(ANCHOR_POS, tofs, cfg, THREE_LAYER, seed=seed)
            assert est.position[2] <= -1e-4, seed
            assert np.linalg.norm(est.position - truth) < 1e-3, seed

    @pytest.mark.parametrize("up_low, start_up", [(-100.0, -1.0), (-0.5, -0.5)])
    def test_polish_starts_below_the_top_face_on_a_copy(self, up_low, start_up):
        # A start within GN_START_DEPTH_M of the top face moves down to that
        # depth, or to the bottom face if the box is shallower; the caller's
        # array (a population row) is left as it was.
        bounds = SearchBounds(east=(-150.0, 150.0), north=(-150.0, 150.0), up=(up_low, 0.0))
        x = np.array([1.0, 2.0, -0.25])
        starts = []

        def residual(p):
            starts.append(p.copy())
            return np.zeros(4), np.eye(4, 3)  # a zero residual: no step

        multilateration._gauss_newton(x, residual, bounds)
        assert starts[0][2] == start_up
        assert x[2] == -0.25

    def test_polish_a_rounding_error_off_the_face_counts_as_on_it(self):
        # A ring-anchor epoch whose GA best sits on the surface: the
        # anchors are a few micrometres below it, so the least-norm step
        # leaves the face by 1e-7 m. Taken as a real move, two such
        # polishes agreed, stopped the GA, and the fix was 54 m off.
        profile = ChannelProfile(
            boundaries=(0.0, 30.0, 80.0, 150.0),
            sound_speeds=(1510.2898880489495, 1500.0266145778114, 1490.8619856978494),
            absorption=(1.0, 1.0, 1.0), frequency=25.0,
        )
        # Anchors a2 to a5.
        anchor_pos = np.array([
            (118.47615913438644, 0.8225477815701625, -1.6387405354142265e-10),
            (85.20431777292985, -83.7066273762866, -2.1572838520000914e-06),
            (-1.0625703309916883, -119.39616524381006, -4.303302588937186e-06),
            (-85.27958643776105, -85.62194108178493, -2.1578369242547524e-06),
        ])
        tofs = (0.0829217138171218, 0.06459527866405385, 0.06301276623322687,
                0.07763072010171883)
        bounds = SearchBounds(east=(-150.0, 150.0), north=(-150.0, 150.0), up=(-80.0, 0.0))
        cfg = GaConfig(search_bounds=bounds, population_size=40, generations=30,
                       fitness_mode="range_residual")
        est = ga_localize(anchor_pos, tofs, cfg, profile, seed=9826007391723107960)
        truth = np.array([12.31385642737898, -40.0, -51.02615470228158])
        assert np.linalg.norm(est.position - truth) < 5.0

    def test_range_residual_mode_recovers_truth(self):
        cfg = GaConfig(search_bounds=BOUNDS, fitness_mode="range_residual")
        est = ga_localize(ANCHOR_POS, TOFS, cfg, HOMOG, seed=5)
        assert np.linalg.norm(est.position - TRUTH) < 0.1

    @pytest.mark.parametrize("mode", ["tof_residual", "range_residual"])
    @pytest.mark.parametrize("tof", [np.nan, np.inf, 0.0, -0.5])
    def test_bad_measured_tof_rejected(self, mode, tof):
        bad = np.concatenate([TOFS[:3], [tof]])
        cfg = GaConfig(search_bounds=BOUNDS, fitness_mode=mode)
        with pytest.raises(ValueError, match="row 3: measured TOF"):
            ga_localize(ANCHOR_POS, bad, cfg, HOMOG, 0)

    @pytest.mark.parametrize("kwargs, message", [
        ({"tof_sigma": np.nan}, "tof_sigma must be finite and >= 0, got nan"),
        ({"tof_sigma": np.inf}, "tof_sigma must be finite and >= 0, got inf"),
        ({"tof_sigma": -1e-3}, "tof_sigma must be finite and >= 0, got -0.001"),
        ({"anchor_sigma": (np.nan, 0.0, 0.0)},
         "anchor_sigma must be finite and >= 0, got [nan, 0.0, 0.0]"),
        ({"anchor_sigma": (0.0, 0.0, -1.0)},
         "anchor_sigma must be finite and >= 0, got [0.0, 0.0, -1.0]"),
        ({"sigma_floor": np.nan}, "sigma_floor must be finite and > 0, got nan"),
        ({"sigma_floor": 0.0}, "sigma_floor must be finite and > 0, got 0.0"),
        ({"sigma_floor": -1.0}, "sigma_floor must be finite and > 0, got -1.0"),
    ])
    def test_bad_noise_argument_rejected_before_the_ga(self, kwargs, message):
        # Before these checks NaN gave a NaN covariance, a zero floor an
        # all-zero one, and a negative sigma acted as its absolute value.
        generations = []
        with pytest.raises(ValueError) as info:
            ga_localize(
                ANCHOR_POS, TOFS, GaConfig(search_bounds=BOUNDS), HOMOG, 0,
                trace=lambda gen, best, sigma: generations.append(gen), **kwargs,
            )
        assert str(info.value) == message
        assert generations == []

    def test_range_mode_converts_tofs_once(self, monkeypatch):
        calls = []
        mean_speed = ChannelProfile.mean_speed

        def counted(profile, depth):
            calls.append(depth)
            return mean_speed(profile, depth)

        monkeypatch.setattr(ChannelProfile, "mean_speed", counted)
        cfg = GaConfig(search_bounds=BOUNDS, generations=20, fitness_mode="range_residual")
        est = ga_localize(ANCHOR_POS, TOFS, cfg, HOMOG, seed=5)
        assert est.generations_run > 1
        # converted at the middle of the search depths
        assert calls == [50.0]

    def test_covariance_is_taken_at_the_fix(self, monkeypatch):
        # In range mode the final TOF polish moves off the range optimum, so
        # a Jacobian from before its last step differs from one at the fix.
        gauss_newton = multilateration._gauss_newton
        polishes = []

        def recorded(x, residual, bounds):
            polishes.append((np.array(x), gauss_newton(x, residual, bounds)))
            return polishes[-1][1]

        monkeypatch.setattr(multilateration, "_gauss_newton", recorded)
        truth = np.array([30.0, -20.0, -60.0])
        tofs = noiseless_tofs(truth=truth, profile=THREE_LAYER)
        cfg = GaConfig(search_bounds=BOUNDS, population_size=40, generations=30,
                       fitness_mode="range_residual")
        est = ga_localize(ANCHOR_POS, tofs, cfg, THREE_LAYER, seed=3, tof_sigma=1e-4,
                          anchor_sigma=(0.5, 0.5, 0.1), sigma_floor=1e-6)
        start, polished = polishes[-1][:2]
        assert np.array_equal(est.position, polished)
        assert np.linalg.norm(polished - start) > 1e-3

        _, ok, jac, anchor_jac = tof_jacobian(THREE_LAYER, est.position, ANCHOR_POS)
        assert ok.all()
        tof_var = 1e-4**2 + (anchor_jac[0] ** 2 * np.square((0.5, 0.5, 0.1))).sum(axis=-1)
        expected = multilateration._fix_covariance(jac[0], tof_var, 1e-6, BOUNDS.largest_extent())
        np.testing.assert_allclose(est.covariance, expected, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("mode", ["tof_residual", "range_residual"])
    @pytest.mark.parametrize("generations", range(1, 7))
    def test_generation_cap_exit(self, mode, generations):
        # Two polishes can first agree after generation 6, so up to 6 the run
        # ends at the cap; up to 3 no polish runs and the fix starts from the
        # GA's best.
        cfg = GaConfig(search_bounds=BOUNDS, generations=generations, fitness_mode=mode)
        est = ga_localize(ANCHOR_POS, TOFS, cfg, HOMOG, seed=5)
        assert est.generations_run == generations
        assert est.polishes == (generations - 1) // 3 + 1

    @pytest.mark.parametrize("mode", ["tof_residual", "range_residual"])
    def test_kernel_call_budget(self, monkeypatch, mode):
        # The GA scores each generation with one pairwise_tof call (TOF mode)
        # or none (range mode); past Gauss-Newton's own steps, one
        # tof_jacobian call scores the fix and gives its covariance.
        calls = {"pairwise_tof": 0, "tof_jacobian": 0, "tail": 0}
        in_polish = [False]
        gauss_newton = multilateration._gauss_newton

        def counted_pairwise(*args):
            calls["pairwise_tof"] += 1
            return pairwise_tof(*args)

        def counted_jacobian(*args):
            calls["tof_jacobian" if in_polish[0] else "tail"] += 1
            return tof_jacobian(*args)

        def recorded(x, residual, bounds):
            in_polish[0] = True
            try:
                return gauss_newton(x, residual, bounds)
            finally:
                in_polish[0] = False

        monkeypatch.setattr(multilateration, "pairwise_tof", counted_pairwise)
        monkeypatch.setattr(multilateration, "tof_jacobian", counted_jacobian)
        monkeypatch.setattr(multilateration, "_gauss_newton", recorded)
        tofs = noiseless_tofs(truth=np.array([30.0, -20.0, -60.0]), profile=THREE_LAYER)
        cfg = GaConfig(search_bounds=BOUNDS, population_size=40, generations=30,
                       fitness_mode=mode)
        est = ga_localize(ANCHOR_POS, tofs, cfg, THREE_LAYER, seed=3)
        expected = est.generations_run if mode == "tof_residual" else 0
        assert calls["pairwise_tof"] == expected
        assert calls["tof_jacobian"] > 0
        assert calls["tail"] == 1


class TestEigh3:
    def test_ascending_and_reconstructs(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(3, 3))
        m = a + a.T
        w, v = eigh3(m)
        assert w[0] <= w[1] <= w[2]
        np.testing.assert_allclose((v * w) @ v.T, m, rtol=0.0, atol=1e-12)

    def test_equal_eigenvalues_keep_their_order(self):
        # A diagonal matrix needs no rotation: the tied 2s stay in input order.
        w, v = eigh3(np.diag([2.0, 1.0, 2.0]))
        assert w.tolist() == [1.0, 2.0, 2.0]
        assert v.tolist() == [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]


class TestMatmulForms:
    """The solver's term-by-term products equal the same formulas with numpy's @."""

    @staticmethod
    def jacobians(seed, count=30):
        rng = np.random.default_rng(seed)
        for k in range(count):
            jac = rng.normal(size=(int(rng.integers(4, 9)), 3)) / 1500.0
            if k % 3 == 0:  # an unobservable direction
                jac[:, k % 2] = 0.0
            yield rng, jac

    def test_fix_covariance(self):
        extent = BOUNDS.largest_extent()
        for rng, jac in self.jacobians(5):
            tof_var = 10.0 ** rng.uniform(-10.0, -6.0, len(jac))
            w, v = eigh3(jac.T @ jac)
            observable = w > w[-1] * multilateration.RANK_TOL
            g = (jac @ v) / np.where(observable, w, np.inf)
            inner = g.T @ (tof_var[:, None] * g) + np.diag(np.where(observable, 0.0, extent**2))
            w, v = eigh3(v @ inner @ v.T)
            expected = (v * np.clip(w, 1e-6**2, extent**2)) @ v.T
            actual = multilateration._fix_covariance(jac, tof_var, 1e-6, extent)
            np.testing.assert_allclose(
                actual, expected, rtol=0.0, atol=1e-12 * np.abs(expected).max()
            )

    def test_one_gauss_newton_step(self, monkeypatch):
        monkeypatch.setattr(multilateration, "GN_MAX_STEPS", 1)
        bounds = SearchBounds(east=(-1e6, 1e6), north=(-1e6, 1e6), up=(-1e6, 0.0))
        x = np.array([1.0, -2.0, -100.0])
        for rng, jac in self.jacobians(6):
            r = rng.normal(0.0, 1e-3, len(jac))
            w, v = eigh3(jac.T @ jac)
            w = np.where(w > w[-1] * multilateration.RANK_TOL, w, np.inf)
            delta = v @ ((v.T @ (jac.T @ -r)) / w)
            moved = multilateration._gauss_newton(x, lambda _: (r, jac), bounds)
            np.testing.assert_allclose(
                moved, x + delta, rtol=0.0, atol=1e-12 * np.abs(delta).max()
            )
