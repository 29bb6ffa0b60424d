import dataclasses
import textwrap
from pathlib import Path

import numpy as np

from hydroloc.geodesy import geodetic_to_enu
from hydroloc.pipeline import (
    CSV_COLUMNS,
    child_seed,
    epoch_times,
    interpolate_position,
    run_simulation,
    simulate_epoch,
    write_outputs,
)
from hydroloc.scenario import load_scenario, parse_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

# Small and quiet: 5 epochs, modest solver, zero noise.
FAST_NOISELESS = textwrap.dedent(
    """\
    water_column:
      layers:
        - {thickness: 100.0, temperature: 10.0, salinity: 35.0, ph: 8.0}
    carrier_frequency: 25.0
    channel:
      source_level: 170.0
      noise_level: 50.0
      detection_threshold: 10.0
    enu_origin: {latitude: 41.185, longitude: -8.706, height: 0.0}
    anchors:
      - {id: ne, latitude: 41.18590042833899,  longitude: -8.704808081412018, height: 0.001568567007780075}
      - {id: se, latitude: 41.184099559185285, longitude: -8.704808114066248, height: 0.001568567007780075}
      - {id: nw, latitude: 41.18590042833899,  longitude: -8.707191918587982, height: 0.001568567007780075}
      - {id: sw, latitude: 41.18409955918528,  longitude: -8.707191885933751, height: 0.0015685679391026497}
    trajectory:
      - {time: 0.0,  east: 0.0, north: 0.0, up: -50.0}
      - {time: 40.0, east: 0.0, north: 0.0, up: -50.0}
    ping_interval: 10.0
    ga:
      population_size: 150
      generations: 200
      search_bounds: {east: [-150.0, 150.0], north: [-150.0, 150.0], up: [-100.0, 0.0]}
    seed: 42
    """
)

FAST_NOISY = FAST_NOISELESS.replace(
    "  detection_threshold: 10.0",
    "  detection_threshold: 10.0\n  tof_noise_sigma: 0.001",
) + "gps_noise_sigma: {east: 1.0, north: 1.0, up: 0.0}\n"


class TestChildSeed:
    def test_deterministic(self):
        assert child_seed(42, 1, 2, 3) == child_seed(42, 1, 2, 3)

    def test_distinct_streams(self):
        seeds = {child_seed(42, tag, epoch) for tag in range(4) for epoch in range(50)}
        assert len(seeds) == 200

    def test_negative_master_handled(self):
        assert 0 <= child_seed(-7, 1) < 2**64


class TestTrajectory:
    waypoints = ((0.0, 0.0, 0.0, -40.0), (10.0, 10.0, 0.0, -40.0), (20.0, 10.0, 20.0, -60.0))

    def test_interpolation_at_waypoints(self):
        assert np.allclose(interpolate_position(self.waypoints, 10.0), [10.0, 0.0, -40.0])

    def test_interpolation_between_waypoints(self):
        assert np.allclose(interpolate_position(self.waypoints, 15.0), [10.0, 10.0, -50.0])

    def test_epoch_times_cover_trajectory(self):
        s = parse_scenario(FAST_NOISELESS)
        assert epoch_times(s) == [0.0, 10.0, 20.0, 30.0, 40.0]

    def test_epoch_count_for_canonical_noisy(self):
        s = load_scenario(SCENARIO_DIR / "canonical_noisy.yaml")
        assert len(epoch_times(s)) == 120


class TestRunSimulation:
    def test_zero_noise_stationary_recovers_truth(self):
        records, summary = run_simulation(parse_scenario(FAST_NOISELESS))
        assert summary.epochs == 5
        assert summary.fix_epochs == 5
        assert summary.detection_rate == 1.0
        for r in records:
            assert r.raw_error is not None and r.raw_error < 0.1
            assert r.n_detections == 4

    def test_timestamps_monotone(self):
        records, _ = run_simulation(parse_scenario(FAST_NOISY))
        stamps = [r.fused.timestamp for r in records]
        assert stamps == sorted(stamps)
        assert stamps == [r.timestamp for r in records]

    def test_unreachable_threshold_gives_fix_gaps(self):
        s = parse_scenario(FAST_NOISELESS)
        s = dataclasses.replace(
            s, channel=dataclasses.replace(s.channel, detection_threshold=1e6)
        )
        records, summary = run_simulation(s)
        assert summary.detection_rate == 0.0
        assert summary.fix_epochs == 0
        assert summary.gap_epochs == summary.epochs
        assert summary.rmse_raw is None
        assert summary.rmse_fused is not None
        # Predict-only epochs still advance the fused chain.
        stamps = [r.fused.timestamp for r in records]
        assert stamps == sorted(stamps)
        assert all(r.estimate is None and r.raw_error is None for r in records)

    def test_master_seed_changes_noisy_outputs(self):
        a = run_simulation(parse_scenario(FAST_NOISY))[0]
        s2 = dataclasses.replace(parse_scenario(FAST_NOISY), seed=43)
        b = run_simulation(s2)[0]
        assert a[1].estimate.position.tolist() != b[1].estimate.position.tolist()

    def test_one_transform_per_anchor(self, monkeypatch):
        # The parser resolves each anchor's ENU position once; the run reads it.
        calls = []

        def counted(*args):
            calls.append(args)
            return geodetic_to_enu(*args)

        monkeypatch.setattr("hydroloc.scenario.geodetic_to_enu", counted)
        s = load_scenario(SCENARIO_DIR / "canonical_noiseless.yaml")
        run_simulation(s)
        assert len(calls) == len(s.anchor_ids) == 4

    def test_gps_noise_perturbs_reported_anchors_only(self):
        s = parse_scenario(FAST_NOISY)
        anchors_true = np.asarray(s.anchor_enu)
        _, anchors, measurements, _ = simulate_epoch(s, 0, 0.0)
        reported = np.array([a.position for a in anchors])
        assert not np.allclose(reported[:, :2], anchors_true[:, :2])
        assert np.all(reported[:, 2] <= 0.0)
        # Acoustics run on the true geometry: zero up-noise keeps TOF clean.
        assert len(measurements) == 4

    def test_below_threshold_anchor_leaves_other_pings(self):
        s = parse_scenario(FAST_NOISY)
        anchors_true = np.asarray(s.anchor_enu)
        anchors_true[0, :2] *= 20.0  # about 2.8 km out: the weakest link
        s = dataclasses.replace(s, anchor_enu=tuple(map(tuple, anchors_true)))

        def pings(threshold):
            channel = dataclasses.replace(s.channel, detection_threshold=threshold)
            scenario = dataclasses.replace(s, channel=channel)
            return simulate_epoch(scenario, 3, 30.0)[2]

        everyone = pings(-1e6)
        snrs = [p.snr for p in everyone]
        near_only = pings(0.5 * (snrs[0] + min(snrs[1:])))
        assert [p.anchor_id for p in everyone] == list(s.anchor_ids)
        assert [p.anchor_id for p in near_only] == list(s.anchor_ids[1:])
        assert [p.tof_measured for p in near_only] == [p.tof_measured for p in everyone[1:]]


class TestWriteOutputs:
    def test_empty_records_header_only(self, tmp_path):
        summary = run_simulation(parse_scenario(FAST_NOISELESS))[1]
        summary = dataclasses.replace(
            summary, epochs=0, fix_epochs=0, gap_epochs=0, detection_rate=None,
            rmse_raw=None, rmse_fused=None, rmse_raw_axes=None, rmse_fused_axes=None,
            max_error_raw=None, max_error_fused=None,
        )
        paths = write_outputs([], summary, tmp_path / "out")
        lines = Path(paths["epochs"]).read_text().splitlines()
        assert lines == [",".join(CSV_COLUMNS)]
        assert '"rmse_raw": null' in Path(paths["summary"]).read_text()

    def test_row_count_and_column_order(self, tmp_path):
        records, summary = run_simulation(parse_scenario(FAST_NOISELESS))
        paths = write_outputs(records[:3], summary, tmp_path / "out")
        lines = Path(paths["epochs"]).read_text().splitlines()
        assert len(lines) == 4
        assert lines[0] == "t,true_e,true_n,true_u,est_e,est_n,est_u,fused_e,fused_n,fused_u,raw_err,fused_err,n_detections"

    def test_gap_rows_have_empty_estimate_cells(self, tmp_path):
        s = parse_scenario(FAST_NOISELESS)
        s = dataclasses.replace(
            s, channel=dataclasses.replace(s.channel, detection_threshold=1e6)
        )
        records, summary = run_simulation(s)
        paths = write_outputs(records, summary, tmp_path / "out")
        row = Path(paths["epochs"]).read_text().splitlines()[1].split(",")
        est_cells = row[4:7] + [row[10]]
        assert est_cells == ["", "", "", ""]

    def test_scenario_echo(self, tmp_path):
        records, summary = run_simulation(parse_scenario(FAST_NOISELESS))
        paths = write_outputs(
            records, summary, tmp_path / "out", scenario_text=FAST_NOISELESS
        )
        assert Path(paths["scenario"]).read_text() == FAST_NOISELESS

    def test_byte_identical_reruns(self, tmp_path):
        blobs = []
        for name in ("a", "b"):
            records, summary = run_simulation(parse_scenario(FAST_NOISY))
            paths = write_outputs(records, summary, tmp_path / name)
            blobs.append(
                Path(paths["epochs"]).read_bytes() + Path(paths["summary"]).read_bytes()
            )
        assert blobs[0] == blobs[1]
