import logging

import numpy as np
import pytest

from hydroloc import multilateration
from hydroloc.multilateration import (
    Anchor,
    GaConfig,
    SearchBounds,
    evolve_generation,
    fitness,
    ga_localize,
)
from hydroloc.propagation import (
    ChannelProfile,
    PingMeasurement,
    pairwise_tof,
    ping_paths,
    range_from_tof,
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
ANCHORS = [
    Anchor("ne", (100.0, 100.0, 0.0)),
    Anchor("se", (100.0, -100.0, 0.0)),
    Anchor("nw", (-100.0, 100.0, 0.0)),
    Anchor("sw", (-100.0, -100.0, 0.0)),
]
TRUTH = np.array([0.0, 0.0, -50.0])


def noiseless_measurements(anchors=ANCHORS, truth=TRUTH, profile=HOMOG):
    """Each anchor's ping from truth, as a run traces it, without timing noise."""
    tof, _, _ = ping_paths(profile, truth, [a.position for a in anchors])
    return [PingMeasurement(a.id, float(t), 20.0, 0.0) for a, t in zip(anchors, tof)]


def observed_tofs(measurements):
    return np.array([m.tof_measured for m in measurements])


def anchor_array(anchors):
    return np.array([a.position for a in anchors])


MEASUREMENTS = noiseless_measurements()
TOFS = observed_tofs(MEASUREMENTS)
ANCHOR_POS = anchor_array(ANCHORS)


class TestSearchBounds:
    def test_above_surface_rejected(self):
        with pytest.raises(ValueError, match="up"):
            SearchBounds(east=(-1.0, 1.0), north=(-1.0, 1.0), up=(-1.0, 0.5))

    def test_degenerate_axis_rejected(self):
        with pytest.raises(ValueError, match="north"):
            SearchBounds(east=(-1.0, 1.0), north=(2.0, 2.0), up=(-1.0, 0.0))

    def test_contains(self):
        assert BOUNDS.contains((0.0, 0.0, -50.0))
        assert not BOUNDS.contains((0.0, 0.0, 50.0))


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


class TestRangeFromTof:
    def test_homogeneous(self):
        assert range_from_tof(1.0, HOMOG, 0.0, 50.0) == pytest.approx(1500.0)

    def test_harmonic_mean_two_layers(self):
        prof = ChannelProfile(
            boundaries=(0.0, 100.0, 200.0), sound_speeds=(1500.0, 1460.0),
            absorption=(1.0, 1.0), frequency=25.0,
        )
        # 0.1 s across two equal-thickness layers: 0.1 * 2/(1/1500 + 1/1460)
        assert range_from_tof(0.1, prof, 0.0, 200.0) == pytest.approx(
            147.97297297297297, abs=1e-12
        )

    def test_linear_in_tof(self):
        a = range_from_tof(0.1, HOMOG, 0.0, 80.0)
        b = range_from_tof(0.2, HOMOG, 0.0, 80.0)
        assert b == pytest.approx(2.0 * a, rel=1e-12)

    def test_degenerate_interval_uses_local_speed(self):
        assert range_from_tof(0.01, HOMOG, 40.0, 40.0) == pytest.approx(15.0)

    def test_non_positive_tof_rejected(self):
        with pytest.raises(ValueError, match="tof"):
            range_from_tof(0.0, HOMOG, 0.0, 50.0)
        with pytest.raises(ValueError, match=r"tof \[ 0.1 -0.1\]"):
            range_from_tof(np.array([0.1, -0.1]), HOMOG, 0.0, 50.0)

    def test_out_of_column_depth_rejected(self):
        with pytest.raises(ValueError, match="anchor depth -1.0,"):
            range_from_tof(0.1, HOMOG, -1.0, 50.0)
        with pytest.raises(ValueError, match="target depth 101.0$"):
            range_from_tof(np.array([0.1, 0.2]), HOMOG, np.array([0.0, 5.0]), 101.0)
        with pytest.raises(ValueError, match="water column"):
            range_from_tof(0.1, HOMOG, np.array([0.0, np.nan]), 50.0)

    def test_scalar_input_gives_float(self):
        assert type(range_from_tof(0.1, THREE_LAYER, 0.0, 50.0)) is float

    def test_array_call_equals_scalar_calls(self):
        rng = np.random.default_rng(4)
        boundaries = np.array(THREE_LAYER.boundaries)
        # Equal depths, the surface, layer boundaries and random depths.
        depths = np.concatenate([boundaries, rng.uniform(0.0, boundaries[-1], 12)])
        anchor, target = (a.ravel() for a in np.meshgrid(depths, depths))
        tof = rng.uniform(1e-3, 0.2, anchor.size)
        ranges = range_from_tof(tof, THREE_LAYER, anchor, target)
        expected = [
            range_from_tof(float(t), THREE_LAYER, float(a), float(z))
            for t, a, z in zip(tof, anchor, target)
        ]
        assert np.array_equal(ranges, expected)
        # The target depth may be one scalar for all anchors.
        assert np.array_equal(
            range_from_tof(tof[:16], THREE_LAYER, anchor[:16], 60.0),
            [range_from_tof(float(t), THREE_LAYER, float(a), 60.0)
             for t, a in zip(tof[:16], anchor[:16])],
        )


class TestFitness:
    def test_zero_at_truth_tof_mode(self):
        value = fitness(TRUTH, ANCHOR_POS, TOFS, HOMOG, mode="tof_residual")
        assert 0.0 <= value < 1e-18

    def test_zero_at_truth_range_mode(self):
        ranges = range_from_tof(TOFS, HOMOG, -ANCHOR_POS[:, 2], 50.0)
        value = fitness(TRUTH, ANCHOR_POS, ranges, HOMOG, mode="range_residual")
        assert 0.0 <= value < 1e-18

    def test_perturbation_increases_fitness(self):
        base = fitness(TRUTH, ANCHOR_POS, TOFS, HOMOG)
        for delta in ((10.0, 0, 0), (0, 10.0, 0), (0, 0, -10.0)):
            assert fitness(TRUTH + delta, ANCHOR_POS, TOFS, HOMOG) > base

    def test_surface_clamped_mirror_has_positive_residual(self):
        # The true mirror (0, 0, +50) is outside the bounds; forcing it to
        # the surface plane leaves a strictly positive residual.
        assert not BOUNDS.contains((0.0, 0.0, 50.0))
        assert fitness((0.0, 0.0, 0.0), ANCHOR_POS, TOFS, HOMOG) > 0.0

    def test_vectorized_matches_scalar(self):
        cands = np.array([[0.0, 0.0, -50.0], [10.0, -5.0, -40.0], [-30.0, 20.0, -70.0]])
        vec = fitness(cands, ANCHOR_POS, TOFS, HOMOG)
        for row, expected in zip(cands, vec):
            assert fitness(row, ANCHOR_POS, TOFS, HOMOG) == expected

    def test_surface_candidates_against_near_surface_anchors_are_finite(self):
        # Candidates clipped to the surface against anchors a hair below it
        # make near-level pairs, which used to score inf or NaN.
        near = [Anchor(a.id, (*a.position[:2], up)) for a, up in
                zip(ANCHORS, (-1e-6, -1e-7, -3e-9, -1e-8))]
        meas = noiseless_measurements(near)
        grid = np.linspace(-150.0, 150.0, 31)
        cands = np.array([(e, n, 0.0) for e in grid for n in grid])
        assert np.isfinite(fitness(cands, anchor_array(near), observed_tofs(meas), HOMOG)).all()

    def test_candidate_outside_column_rejected(self):
        with pytest.raises(ValueError, match="water column"):
            fitness((0.0, 0.0, -150.0), ANCHOR_POS, TOFS, HOMOG)

    def test_no_path_candidates_get_finite_penalty(self):
        prof = ChannelProfile(
            boundaries=(0.0, 100.0, 200.0), sound_speeds=(1500.0, 1480.0),
            absorption=(1.0, 1.0), frequency=25.0,
        )
        far = [Anchor("far", (5e6, 0.0, 0.0))] + ANCHORS[1:]
        meas = [PingMeasurement("far", 0.5, 20.0, 0.0)] + MEASUREMENTS[1:]
        value = fitness((0.0, 0.0, -150.0), anchor_array(far), observed_tofs(meas), prof)
        assert np.isfinite(value)
        assert value >= 1e6


class TestEvolveGeneration:
    cfg = GaConfig(search_bounds=BOUNDS, population_size=16)

    def evaluate(self, pop):
        return fitness(pop, ANCHOR_POS, TOFS, HOMOG)

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
        est = ga_localize(MEASUREMENTS, ANCHORS, cfg, HOMOG, seed=42)
        assert np.linalg.norm(est.position - TRUTH) < 0.1
        assert BOUNDS.contains(est.position)
        assert 0.0 <= est.best_fitness < 1e-6
        # Noiseless pings: the covariance is the floor in every direction.
        assert np.allclose(est.covariance, 0.25 * np.eye(3), rtol=0.0, atol=1e-12)

    def test_seed_determinism_is_bit_exact(self):
        cfg = GaConfig(search_bounds=BOUNDS)
        a = ga_localize(MEASUREMENTS, ANCHORS, cfg, HOMOG, seed=7)
        b = ga_localize(MEASUREMENTS, ANCHORS, cfg, HOMOG, seed=7)
        assert np.array_equal(a.position, b.position)
        assert a.best_fitness == b.best_fitness
        assert np.array_equal(a.covariance, b.covariance)
        assert a.generations_run == b.generations_run
        assert a.polishes == b.polishes

    def test_best_fitness_monotone_over_generations(self):
        history = []
        cfg = GaConfig(search_bounds=BOUNDS, generations=80)
        ga_localize(
            MEASUREMENTS, ANCHORS, cfg, HOMOG, seed=3,
            trace=lambda gen, best, sigma: history.append(best),
        )
        assert all(b <= a for a, b in zip(history, history[1:]))

    def test_underdetermined_with_three_anchors(self):
        with pytest.raises(ValueError, match="underdetermined"):
            ga_localize(MEASUREMENTS[:3], ANCHORS, GaConfig(search_bounds=BOUNDS), HOMOG, 0)

    def test_duplicate_anchor_measurements_do_not_count_twice(self):
        meas = MEASUREMENTS[:3] + [MEASUREMENTS[0]]
        with pytest.raises(ValueError, match="underdetermined"):
            ga_localize(meas, ANCHORS, GaConfig(search_bounds=BOUNDS), HOMOG, 0)

    def test_empty_measurements_rejected(self):
        with pytest.raises(ValueError, match="no measurements"):
            ga_localize([], ANCHORS, GaConfig(search_bounds=BOUNDS), HOMOG, 0)

    def test_bounds_below_column_rejected(self):
        bounds = SearchBounds(east=(-10.0, 10.0), north=(-10.0, 10.0), up=(-500.0, 0.0))
        with pytest.raises(ValueError, match="water column"):
            ga_localize(MEASUREMENTS, ANCHORS, GaConfig(search_bounds=bounds), HOMOG, 0)

    def test_coincident_anchors_flagged_by_dispersion(self, caplog):
        anchors = [Anchor(f"a{k}", (0.0, 0.0, 0.0)) for k in range(4)]
        meas = [PingMeasurement(a.id, 50.0 / 1500.0, 20.0, 0.0) for a in anchors]
        cfg = GaConfig(search_bounds=BOUNDS)
        with caplog.at_level(logging.WARNING, logger="hydroloc.multilateration"):
            est = ga_localize(meas, anchors, cfg, HOMOG, seed=1)
        assert any("poorly constrained" in r.message for r in caplog.records)
        # Only the range to the anchors is observed: the two directions
        # across it get the largest search extent as their sigma.
        sigmas = np.sqrt(np.linalg.eigvalsh(est.covariance))
        assert sigmas[1] == pytest.approx(BOUNDS.largest_extent())

    def test_well_posed_fix_is_not_flagged(self, caplog):
        cfg = GaConfig(search_bounds=BOUNDS)
        with caplog.at_level(logging.WARNING, logger="hydroloc.multilateration"):
            ga_localize(MEASUREMENTS, ANCHORS, cfg, HOMOG, seed=1)
        assert not caplog.records

    @pytest.mark.parametrize("mode", ["tof_residual", "range_residual"])
    @pytest.mark.parametrize("depth", [0.5, 2.0, 5.0])
    def test_near_surface_beacon_is_fixed_below_the_surface(self, depth, mode):
        # A few metres below the coplanar anchors the residual is nearly
        # flat in up, and the GA's best often sits on the up = 0 face,
        # where J's up column vanishes. Every polish starts below that
        # face, so Gauss-Newton reaches the beacon whatever the GA's draws.
        truth = np.array([20.0, -30.0, -depth])
        meas = noiseless_measurements(truth=truth, profile=THREE_LAYER)
        cfg = GaConfig(search_bounds=BOUNDS, population_size=40, generations=30,
                       fitness_mode=mode)
        for seed in range(20):
            est = ga_localize(meas, ANCHORS, cfg, THREE_LAYER, seed=seed)
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
        anchors = [
            Anchor("a2", (118.47615913438644, 0.8225477815701625, -1.6387405354142265e-10)),
            Anchor("a3", (85.20431777292985, -83.7066273762866, -2.1572838520000914e-06)),
            Anchor("a4", (-1.0625703309916883, -119.39616524381006, -4.303302588937186e-06)),
            Anchor("a5", (-85.27958643776105, -85.62194108178493, -2.1578369242547524e-06)),
        ]
        tofs = (0.0829217138171218, 0.06459527866405385, 0.06301276623322687,
                0.07763072010171883)
        meas = [PingMeasurement(a.id, tof, 20.0, 0.0) for a, tof in zip(anchors, tofs)]
        bounds = SearchBounds(east=(-150.0, 150.0), north=(-150.0, 150.0), up=(-80.0, 0.0))
        cfg = GaConfig(search_bounds=bounds, population_size=40, generations=30,
                       fitness_mode="range_residual")
        est = ga_localize(meas, anchors, cfg, profile, seed=9826007391723107960)
        truth = np.array([12.31385642737898, -40.0, -51.02615470228158])
        assert np.linalg.norm(est.position - truth) < 5.0

    def test_range_residual_mode_recovers_truth(self):
        cfg = GaConfig(search_bounds=BOUNDS, fitness_mode="range_residual")
        est = ga_localize(MEASUREMENTS, ANCHORS, cfg, HOMOG, seed=5)
        assert np.linalg.norm(est.position - TRUTH) < 0.1

    def test_unknown_anchor_id_rejected(self):
        bad = [PingMeasurement("ghost", 0.1, 20.0, 0.0)] + MEASUREMENTS[1:]
        with pytest.raises(ValueError, match="ghost"):
            ga_localize(bad, ANCHORS, GaConfig(search_bounds=BOUNDS), HOMOG, 0)

    @pytest.mark.parametrize("mode", ["tof_residual", "range_residual"])
    @pytest.mark.parametrize("tof", [np.nan, np.inf, 0.0, -0.5])
    def test_bad_measured_tof_rejected(self, mode, tof):
        bad = MEASUREMENTS[:3] + [PingMeasurement("sw", tof, 20.0, 0.0)]
        cfg = GaConfig(search_bounds=BOUNDS, fitness_mode=mode)
        with pytest.raises(ValueError, match="anchor 'sw': measured TOF"):
            ga_localize(bad, ANCHORS, cfg, HOMOG, 0)

    def test_range_mode_converts_tofs_once(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return range_from_tof(*args, **kwargs)

        monkeypatch.setattr(multilateration, "range_from_tof", counted)
        cfg = GaConfig(search_bounds=BOUNDS, generations=20, fitness_mode="range_residual")
        est = ga_localize(MEASUREMENTS, ANCHORS, cfg, HOMOG, seed=5)
        assert est.generations_run > 1
        assert len(calls) == 1
        # converted at the middle of the search depths
        assert calls[0][3] == 50.0

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
        meas = noiseless_measurements(truth=truth, profile=THREE_LAYER)
        cfg = GaConfig(search_bounds=BOUNDS, population_size=40, generations=30,
                       fitness_mode="range_residual")
        est = ga_localize(meas, ANCHORS, cfg, THREE_LAYER, seed=3, tof_sigma=1e-4,
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
        meas = noiseless_measurements(truth=np.array([30.0, -20.0, -60.0]), profile=THREE_LAYER)
        cfg = GaConfig(search_bounds=BOUNDS, population_size=40, generations=30,
                       fitness_mode=mode)
        est = ga_localize(meas, ANCHORS, cfg, THREE_LAYER, seed=3)
        expected = est.generations_run if mode == "tof_residual" else 0
        assert calls["pairwise_tof"] == expected
        assert calls["tof_jacobian"] > 0
        assert calls["tail"] == 1


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
