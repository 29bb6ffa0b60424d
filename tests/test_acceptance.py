"""End-to-end acceptance checks, one test per criterion.

Each test prints a single [PASS]/[FAIL] line (run with ``pytest -s`` to
see them on success). Expected formula values were frozen from an
independent term-by-term evaluation of the published equations.
"""

import functools
import math
import time
from pathlib import Path

import numpy as np

from hydroloc.cli import main as cli_main
from hydroloc.environment import Layer, absorption_coeff, sound_speed
from hydroloc.fusion import (
    EkfState,
    ekf_predict,
    ekf_update_depth,
    ekf_update_fix,
)
from hydroloc.geodesy import (
    WGS84_A,
    WGS84_B,
    EcefCoord,
    EnuCoord,
    GeodeticCoord,
    ecef_to_enu,
    ecef_to_geodetic,
    enu_to_ecef,
    geodetic_to_ecef,
)
from hydroloc.multilateration import Anchor, GaConfig, SearchBounds, fitness, ga_localize
from hydroloc.pipeline import run_simulation
from hydroloc import propagation
from hydroloc.propagation import ChannelProfile, PingMeasurement, pairwise_tof, ping_paths
from hydroloc.scenario import load_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def random_layered_profile(rng, n_layers):
    layers = []
    temperature = rng.uniform(6.0, 20.0)
    for _ in range(n_layers):
        layers.append(
            Layer(
                thickness=rng.uniform(20.0, 150.0),
                temperature=temperature,
                salinity=rng.uniform(34.0, 36.0),
                ph=rng.uniform(7.8, 8.2),
            )
        )
        temperature = max(2.0, temperature - rng.uniform(0.0, 3.0))
    return ChannelProfile.from_layers(layers, 25.0)


def homogeneous_profile(c=1500.0, depth=100.0):
    return ChannelProfile(
        boundaries=(0.0, depth), sound_speeds=(c,), absorption=(1.0,), frequency=25.0
    )


def canonical_setup():
    profile = homogeneous_profile()
    anchors = [
        Anchor("ne", (100.0, 100.0, 0.0)),
        Anchor("se", (100.0, -100.0, 0.0)),
        Anchor("nw", (-100.0, 100.0, 0.0)),
        Anchor("sw", (-100.0, -100.0, 0.0)),
    ]
    truth = np.array([0.0, 0.0, -50.0])
    measurements = [
        PingMeasurement(
            a.id,
            float(np.linalg.norm(truth - np.asarray(a.position))) / 1500.0,
            20.0,
            0.0,
        )
        for a in anchors
    ]
    bounds = SearchBounds(east=(-150.0, 150.0), north=(-150.0, 150.0), up=(-100.0, 0.0))
    return profile, anchors, truth, measurements, bounds


def test_criterion_1_formula_oracles():
    speed_points = [
        (10.0, 35.0, 0.0, 1489.8034),
        (10.0, 35.0, 1000.0, 1506.263761),
        (2.0, 34.7, 100.0, 1459.1675627722),
        (25.0, 36.5, 10.0, 1536.0830167321526),
        (0.0, 30.0, 4000.0, 1510.14),
    ]
    absorption_points = [
        (10.0, 10.0, 35.0, 8.0, 0.0, 0.9865722856253994),
        (25.0, 14.0, 35.2, 7.9, 50.0, 4.50340789257101),
        (0.5, 4.0, 34.0, 8.1, 1000.0, 0.029250218781636382),
        (100.0, 20.0, 36.0, 8.2, 0.0, 39.97751847622325),
        (50.0, 8.0, 33.0, 7.7, 500.0, 13.757389099833565),
    ]
    worst = 0.0
    for t, s, d, expected in speed_points:
        worst = max(worst, abs(sound_speed(t, s, d) - expected) / abs(expected))
    for f, t, s, ph, d, expected in absorption_points:
        worst = max(
            worst, abs(absorption_coeff(f, t, s, ph, d) - expected) / abs(expected)
        )
    report(
        "criterion 1 (formula oracles)",
        worst < 1e-12,
        f"worst relative error {worst:.3e} over 10 reference points (tol 1e-12)",
    )


def test_criterion_2_snell_invariant():
    rng = np.random.default_rng(2024)
    worst_snell = 0.0
    worst_closure = 0.0
    for _ in range(100):
        profile = random_layered_profile(rng, int(rng.integers(3, 11)))
        total = profile.total_depth
        receiver_depth = rng.uniform(0.0, 5.0)
        source_depth = rng.uniform(0.3 * total, total - 1.0)
        horizontal = rng.uniform(0.0, 2.0 * source_depth)
        # The kernel's per-layer lengths, vertical extents and ray parameter.
        lengths, dz, p, ok = propagation._layer_paths(
            profile, source_depth, receiver_depth, horizontal
        )
        assert ok
        closed = 0.0
        for i in np.nonzero(lengths > 0.0)[0]:
            grazing = math.asin(min(dz[i] / lengths[i], 1.0))
            worst_snell = max(worst_snell, abs(math.cos(grazing) / profile.sound_speeds[i] - p))
            closed += lengths[i] * math.cos(grazing)
        worst_closure = max(worst_closure, abs(closed - horizontal))
    report(
        "criterion 2 (Snell invariant)",
        worst_snell < 1e-12 and worst_closure < 1e-6,
        f"100 rays: max |cos(theta)/c - p| {worst_snell:.3e} (tol 1e-12), "
        f"max range closure error {worst_closure:.3e} m (tol 1e-6)",
    )


def test_criterion_3_fermat_oracle():
    profile = ChannelProfile(
        boundaries=(0.0, 100.0, 200.0), sound_speeds=(1500.0, 1450.0),
        absorption=(1.0, 1.0), frequency=25.0,
    )
    tof = float(pairwise_tof(profile, [(0.0, 0.0, -200.0)], [(200.0, 0.0, 0.0)])[0][0, 0])
    x = np.linspace(0.0, 200.0, 200001)
    crossing_tof = np.sqrt(x**2 + 100.0**2) / 1500.0
    crossing_tof += np.sqrt((200.0 - x) ** 2 + 100.0**2) / 1450.0
    oracle = float(crossing_tof.min())
    # The straight chord split at the boundary: sum of chord * dz_i / (dz * c_i).
    chord = math.hypot(200.0, 200.0)
    straight = sum(chord * dz / (200.0 * c) for dz, c in zip((100.0, 100.0), (1500.0, 1450.0)))
    diff = abs(tof - oracle)
    report(
        "criterion 3 (Fermat oracle)",
        diff < 1e-9 and tof <= straight,
        f"refracted vs crossing-point minimum differ by {diff:.3e} s (tol 1e-9); "
        f"refracted {tof:.9f} s <= straight {straight:.9f} s",
    )


def test_criterion_4_homogeneous_equivalence():
    rng = np.random.default_rng(44)
    worst = 0.0
    for _ in range(100):
        c = rng.uniform(1450.0, 1540.0)
        profile = homogeneous_profile(c=c, depth=500.0)
        src = np.array([rng.uniform(-1000, 1000), rng.uniform(-1000, 1000),
                        -rng.uniform(0.0, 500.0)])
        rcv = np.array([rng.uniform(-1000, 1000), rng.uniform(-1000, 1000),
                        -rng.uniform(0.0, 500.0)])
        refracted = float(ping_paths(profile, src, rcv[None])[0][0])
        euclid = float(np.linalg.norm(rcv - src)) / c
        worst = max(worst, abs(refracted - euclid) / max(refracted, 1e-30))
    report(
        "criterion 4 (homogeneous equivalence)",
        worst < 1e-9,
        f"100 geometries: max relative difference between refracted and "
        f"euclidean TOF {worst:.3e} (tol 1e-9)",
    )


def test_criterion_5_noiseless_recovery():
    profile, anchors, truth, measurements, bounds = canonical_setup()
    hits = 0
    slowest = 0.0
    worst_err = 0.0
    for seed in range(100):
        config = GaConfig(search_bounds=bounds)
        start = time.perf_counter()
        estimate = ga_localize(measurements, anchors, config, profile, seed)
        slowest = max(slowest, time.perf_counter() - start)
        err = float(np.linalg.norm(estimate.position - truth))
        worst_err = max(worst_err, err)
        hits += err < 0.1
    report(
        "criterion 5 (noiseless recovery)",
        hits >= 95 and slowest < 1.0,
        f"{hits}/100 seeds within 0.1 m (need >= 95), worst error {worst_err:.4f} m, "
        f"slowest solve {slowest:.3f} s (tol 1 s)",
    )


def test_criterion_6_grid_search_oracle():
    profile = homogeneous_profile()
    failures = []
    for k in range(10):
        rng = np.random.default_rng(1000 + k)
        center = np.array(
            [rng.uniform(-20, 20), rng.uniform(-20, 20), rng.uniform(-60, -40)]
        )
        bounds = SearchBounds(
            east=(center[0] - 2.0, center[0] + 2.0),
            north=(center[1] - 2.0, center[1] + 2.0),
            up=(center[2] - 1.0, center[2] + 1.0),
        )
        truth = rng.uniform(bounds.lows(), bounds.highs())
        anchors = [
            Anchor(f"a{i}", (sx * rng.uniform(80, 120), sy * rng.uniform(80, 120), 0.0))
            for i, (sx, sy) in enumerate([(1, 1), (1, -1), (-1, 1), (-1, -1)])
        ]
        measurements = [
            PingMeasurement(
                a.id,
                float(np.linalg.norm(truth - np.asarray(a.position))) / 1500.0,
                20.0,
                0.0,
            )
            for a in anchors
        ]
        config = GaConfig(search_bounds=bounds, population_size=100, generations=120)
        ga_fit = ga_localize(measurements, anchors, config, profile, k).best_fitness

        axes = [
            np.arange(lo, hi + 1e-9, 0.05)
            for lo, hi in (bounds.east, bounds.north, bounds.up)
        ]
        grid = np.stack(
            np.meshgrid(*axes, indexing="ij"), axis=-1
        ).reshape(-1, 3)
        anchor_pos = np.array([a.position for a in anchors])
        tofs = np.array([m.tof_measured for m in measurements])
        grid_fit = np.inf
        for chunk in np.array_split(grid, max(1, len(grid) // 300000)):
            grid_fit = min(grid_fit, float(fitness(chunk, anchor_pos, tofs, profile).min()))
        if ga_fit > grid_fit:
            failures.append((k, ga_fit, grid_fit))
    report(
        "criterion 6 (grid-search oracle)",
        not failures,
        "10 instances: solver best fitness <= exhaustive 0.05 m grid best"
        + (f"; failures {failures}" if failures else ""),
    )


def test_criterion_7_geodesy_round_trips():
    worst_ecef = 0.0
    for lat in np.linspace(-89.0, 89.0, 13):
        for lon in np.arange(-175.0, 181.0, 5.0):
            for h in (-1000.0, 0.0, 10000.0):
                g = GeodeticCoord.from_degrees(float(lat), float(lon), h)
                e = geodetic_to_ecef(g)
                back = geodetic_to_ecef(ecef_to_geodetic(e))
                worst_ecef = max(
                    worst_ecef, math.dist((e.x, e.y, e.z), (back.x, back.y, back.z))
                )

    origin = GeodeticCoord.from_degrees(41.185, -8.706, 0.0)
    rng = np.random.default_rng(77)
    worst_enu = 0.0
    for _ in range(100):
        p = EnuCoord(*rng.uniform(-5000.0, 5000.0, 3))
        back = ecef_to_enu(enu_to_ecef(p, origin), origin)
        worst_enu = max(
            worst_enu,
            math.dist((p.east, p.north, p.up), (back.east, back.north, back.up)),
        )

    equator = geodetic_to_ecef(GeodeticCoord(0.0, 0.0, 0.0))
    pole = geodetic_to_ecef(GeodeticCoord(math.pi / 2, 0.0, 0.0))
    axis = geodetic_to_ecef(GeodeticCoord.from_degrees(0.0, 90.0, 100.0))
    fixed_ok = (
        math.dist((equator.x, equator.y, equator.z), (WGS84_A, 0.0, 0.0)) < 1e-6
        and math.dist((pole.x, pole.y, pole.z), (0.0, 0.0, WGS84_B)) < 1e-6
        and abs(WGS84_B - 6356752.314) < 1e-3
        and math.dist((axis.x, axis.y, axis.z), (0.0, WGS84_A + 100.0, 0.0)) < 1e-6
    )
    inverse_pole = ecef_to_geodetic(EcefCoord(0.0, 0.0, WGS84_B))
    fixed_ok = fixed_ok and inverse_pole.longitude == 0.0

    report(
        "criterion 7 (geodesy round trips)",
        worst_ecef < 1e-6 and worst_enu < 1e-9 and fixed_ok,
        f"geodetic<->ECEF worst {worst_ecef:.3e} m (tol 1e-6), ENU worst "
        f"{worst_enu:.3e} m (tol 1e-9), pole/equator fixed points OK",
    )


def test_criterion_8_ekf_health():
    rng = np.random.default_rng(2025)
    state = EkfState(
        mean=np.zeros(6), covariance=np.diag([100.0] * 3 + [1.0] * 3), timestamp=0.0
    )
    worst_asym = 0.0
    min_eig = np.inf
    for _ in range(1000):
        state = ekf_predict(state, rng.uniform(0.0, 5.0), 1e-3)
        if rng.random() < 0.7:
            state = ekf_update_fix(
                state,
                rng.normal(0.0, 50.0, 3),
                np.eye(3) * rng.uniform(0.1, 4.0),
            )
        state = ekf_update_depth(state, rng.uniform(0.0, 80.0), rng.uniform(0.005, 0.1))
        cov = state.covariance
        worst_asym = max(worst_asym, float(np.abs(cov - cov.T).max()))
        min_eig = min(min_eig, float(np.linalg.eigvalsh(cov).min()))

    frozen = ekf_update_depth(
        ekf_update_fix(state, state.mean[:3], np.eye(3) * 0.5),
        -state.mean[2],
        0.01,
    )
    drift = float(np.abs(frozen.mean - state.mean).max())

    report(
        "criterion 8 (EKF health)",
        worst_asym < 1e-12 and min_eig > 0.0 and drift < 1e-12,
        f"1000 steps: max asymmetry {worst_asym:.3e} (tol 1e-12), min eigenvalue "
        f"{min_eig:.3e} (> 0), zero-innovation mean drift {drift:.3e} (tol 1e-12)",
    )


@functools.cache
def canonical_noisy_run():
    return run_simulation(load_scenario(SCENARIO_DIR / "canonical_noisy.yaml"))


def nees(error, covariance) -> float:
    return float(error @ np.linalg.solve(covariance, error))


def test_criterion_9_fusion_benefit():
    _, summary = canonical_noisy_run()
    z_raw = summary.rmse_raw_axes[2]
    z_fused = summary.rmse_fused_axes[2]
    report(
        "criterion 9 (fusion benefit)",
        z_fused < z_raw and summary.rmse_fused <= summary.rmse_raw,
        f"120 epochs: z-RMSE fused {z_fused:.3f} m < raw {z_raw:.3f} m; 3-D RMSE "
        f"fused {summary.rmse_fused:.3f} m <= raw {summary.rmse_raw:.3f} m",
    )


def test_raw_fix_nees():
    # Each fix's error against its own covariance: a consistent 3-D
    # covariance gives a mean NEES of 3 (120 fixes: standard error 0.22).
    records, _ = canonical_noisy_run()
    values = [
        nees(r.estimate.position - r.true_position, r.estimate.covariance)
        for r in records if r.estimate is not None
    ]
    mean = float(np.mean(values))
    report(
        "raw-fix NEES",
        len(values) == 120 and 2.0 <= mean <= 4.0,
        f"{len(values)} fixes: mean NEES {mean:.3f} against the fix covariance (in [2, 4])",
    )


def test_filter_nees():
    # Past the filter's warm-up, the fused position error against the
    # filter's position covariance.
    records, _ = canonical_noisy_run()
    values = [
        nees(r.fused.position - r.true_position, r.fused.covariance[:3, :3])
        for r in records[10:120]
    ]
    mean = float(np.mean(values))
    report(
        "filter NEES",
        1.5 <= mean <= 6.0,
        f"epochs 10-119: mean position NEES {mean:.3f} (in [1.5, 6])",
    )


def test_criterion_10_determinism(tmp_path):
    scenario_path = str(SCENARIO_DIR / "canonical_noiseless.yaml")
    blobs = []
    for name in ("first", "second"):
        out_dir = tmp_path / name
        code = cli_main(["run", scenario_path, "--out", str(out_dir), "--seed", "7"])
        assert code == 0
        blobs.append(
            (
                (out_dir / "epochs.csv").read_bytes(),
                (out_dir / "summary.json").read_bytes(),
            )
        )
    identical = blobs[0] == blobs[1]
    report(
        "criterion 10 (determinism)",
        identical,
        "two `run` invocations with the same scenario and seed produced "
        "byte-identical epochs.csv and summary.json",
    )
