import csv
import dataclasses
import gc
import json
import math
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml

from hydroloc import pipeline
from hydroloc.geodesy import GeodeticCoord, ecef_to_geodetic, enu_to_ecef, geodetic_to_enu
from hydroloc.pipeline import (
    CSV_COLUMNS,
    EpochTable,
    epoch_times,
    interpolate_position,
    run_simulation,
    simulate_epoch,
    write_outputs,
)
from hydroloc.propagation import link_budget, ping_paths
from hydroloc.scenario import load_scenario, parse_scenario
from hydroloc.streams import child_seed

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


# Out to (140, 140) and back: at the far epoch only 3 anchors clear 70 dB.
FAST_NOISY_GAPS = FAST_NOISY.replace(
    "detection_threshold: 10.0", "detection_threshold: 70.0"
).replace(
    "- {time: 40.0, east: 0.0",
    "- {time: 20.0, east: 140.0, north: 140.0, up: -50.0}\n  - {time: 40.0, east: 0.0",
)


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
        table, summary = run_simulation(parse_scenario(FAST_NOISELESS))
        assert summary.epochs == 5
        assert summary.fix_epochs == 5
        assert summary.detection_rate == 1.0
        assert table.has_fix().all()
        for fix, true in zip(table.fix, table.true_position):
            assert math.dist(fix, true) < 0.1
        assert table.n_detections.tolist() == [4] * 5

    def test_timestamps_monotone(self):
        table, _ = run_simulation(parse_scenario(FAST_NOISY))
        stamps = table.timestamp.tolist()
        assert stamps == sorted(stamps)

    def test_unreachable_threshold_gives_fix_gaps(self):
        s = parse_scenario(FAST_NOISELESS)
        s = dataclasses.replace(
            s, channel=dataclasses.replace(s.channel, detection_threshold=1e6)
        )
        table, summary = run_simulation(s)
        assert summary.detection_rate == 0.0
        assert summary.fix_epochs == 0
        assert summary.gap_epochs == summary.epochs
        assert summary.rmse_raw is None
        assert summary.rmse_fused is not None
        # Predict-only epochs still advance the fused chain: with no fix,
        # the east variance grows at every epoch.
        assert np.all(np.diff(table.fused_covariance[:, 0, 0]) > 0)
        assert not table.has_fix().any()

    def test_master_seed_changes_noisy_outputs(self):
        a = run_simulation(parse_scenario(FAST_NOISY))[0]
        s2 = dataclasses.replace(parse_scenario(FAST_NOISY), seed=43)
        b = run_simulation(s2)[0]
        assert a.has_fix()[1] and b.has_fix()[1]
        assert a.fix[1].tolist() != b.fix[1].tolist()

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
        _, reported, tofs, _ = simulate_epoch(s, 0, 0.0)
        assert reported.shape == (4, 3) and tofs.shape == (4,)
        assert not np.allclose(reported[:, :2], anchors_true[:, :2])
        assert np.all(reported[:, 2] <= 0.0)
        # Acoustics run on the true geometry: zero up-noise keeps TOF clean.
        assert not np.isnan(tofs).any()

    def test_below_threshold_anchor_leaves_other_pings(self):
        s = parse_scenario(FAST_NOISY)
        anchors_true = np.asarray(s.anchor_enu)
        anchors_true[0, :2] *= 20.0  # about 2.8 km out: the weakest link
        s = dataclasses.replace(s, anchor_enu=tuple(map(tuple, anchors_true)))

        def pings(threshold):
            channel = dataclasses.replace(s.channel, detection_threshold=threshold)
            scenario = dataclasses.replace(s, channel=channel)
            return simulate_epoch(scenario, 3, 30.0)[2]

        # link_budget's SNR of each path, by which simulate_ping detects.
        true_pos = interpolate_position(s.waypoints, 30.0)
        _, length, absorbed = ping_paths(s.profile, true_pos, anchors_true)
        snrs = [link_budget(s.channel, m, a)[1] for m, a in zip(length, absorbed)]
        everyone = pings(-1e6)
        near_only = pings(0.5 * (snrs[0] + min(snrs[1:])))
        assert not np.isnan(everyone).any()
        assert np.isnan(near_only[0])
        assert near_only[1:].tolist() == everyone[1:].tolist()


def _row_values(row):
    """Every field of an EpochRecord, as plain values."""
    return row.true_position.tolist(), row.fused.mean.tolist(), row.fused.covariance.tolist()


class TestEpochTable:
    @pytest.fixture()
    def run(self, monkeypatch):
        """A noisy run with gap epochs, what each step of its loop returned, and each dt."""
        seen = {"dt": []}

        def spy(name):
            real = getattr(pipeline, name)

            def recorded(*args, **kwargs):
                out = real(*args, **kwargs)
                seen.setdefault(name, []).append(out)
                return out

            monkeypatch.setattr(pipeline, name, recorded)

        for name in ("simulate_epoch", "localize_epoch", "ekf_update_depth"):
            spy(name)
        predict = pipeline.ekf_predict

        def stepped(state, dt, accel_density):
            seen["dt"].append(dt)
            return predict(state, dt, accel_density)

        monkeypatch.setattr(pipeline, "ekf_predict", stepped)
        table, _ = run_simulation(parse_scenario(FAST_NOISY_GAPS))
        return table, seen

    def test_rows_are_the_loop_state(self, run):
        table, seen = run
        gaps = [e is None for e in seen["localize_epoch"]]
        assert len(table) == 5 and any(gaps) and not all(gaps)
        steps = zip(seen["simulate_epoch"], seen["localize_epoch"], seen["ekf_update_depth"])
        has_fix = table.has_fix()
        for k, ((true_pos, _, tofs, depth_measured), estimate, state) in enumerate(steps):
            assert table.true_position[k].tolist() == true_pos.tolist()
            assert table.n_detections[k] == np.count_nonzero(~np.isnan(tofs))
            assert table.depth[k] == depth_measured
            row = table[k]
            assert row.true_position.tolist() == true_pos.tolist()
            assert row.fused.mean.tolist() == state.mean.tolist()
            assert row.fused.covariance.tolist() == state.covariance.tolist()
            assert has_fix[k] == (estimate is not None)
            if estimate is None:
                assert np.isnan(table.fix_covariance[k]).all()
            else:
                assert table.fix[k].tolist() == estimate.position.tolist()
                assert table.fix_covariance[k].tolist() == estimate.covariance.tolist()
        # The filter's one clock is the timestamp column: 0.0 first, then
        # the step from each epoch to the next.
        stamps = table.timestamp.tolist()
        assert seen["dt"] == [0.0, *(b - a for a, b in zip(stamps, stamps[1:]))]

    def test_rows_are_copies(self, run):
        table, _ = run
        table[0].true_position[:] = 1e9
        assert table[0].true_position.tolist() != [1e9] * 3

    def test_negative_index_and_past_the_end(self, run):
        table, _ = run
        n = len(table)
        for k in range(1, n + 1):
            assert _row_values(table[-k]) == _row_values(table[n - k])
        for k in (n, -n - 1):
            with pytest.raises(IndexError):
                table[k]

    @pytest.mark.parametrize("key", [slice(1, 4), slice(None, None, 2), slice(-2, None),
                                     slice(0, 0)])
    def test_slice_is_a_table_of_the_rows(self, run, key):
        table, _ = run
        part = table[key]
        rows = range(len(table))[key]
        assert isinstance(part, EpochTable) and len(part) == len(rows)
        for f in dataclasses.fields(EpochTable):
            column = getattr(table, f.name)
            np.testing.assert_array_equal(getattr(part, f.name), column[list(rows)])
        assert [_row_values(part[i]) for i in range(len(part))] == [
            _row_values(table[k]) for k in rows
        ]

    def test_iteration_matches_indexing(self, run):
        table, _ = run
        assert [_row_values(r) for r in table] == [
            _row_values(table[k]) for k in range(len(table))
        ]


def test_retained_memory_per_epoch():
    # A run keeps each epoch's 60 numbers (480 B) in its table's columns, the
    # measured depth among them, and retains about 494 B an epoch here: 511 B
    # when the table also kept the solver's three diagnostics and the depths
    # lived beside it. One EpochRecord object graph per epoch retained about
    # 910 B here (1300 B on a fix epoch). The traced peak is about 627 B an
    # epoch here (652 B with those three columns): 604 B when each epoch's
    # observations lived for its own epoch only, 769 B when the whole run's
    # were stacked, and about 1380 B when they were the whole run's list of
    # per-epoch tuples. Out to (140, 140) and there for 4900 s:
    # most of the 501 epochs are gaps, which keeps the traced run short.
    text = FAST_NOISY_GAPS.replace(
        "- {time: 40.0, east: 0.0, north: 0.0",
        "- {time: 5000.0, east: 140.0, north: 140.0",
    ).replace("{time: 20.0, east: 140.0", "{time: 100.0, east: 140.0")
    text = text.replace("population_size: 150", "population_size: 20")
    text = text.replace("generations: 200", "generations: 10")
    scenario = parse_scenario(text)
    assert scenario.epochs >= 500
    gc.collect()
    tracemalloc.start()
    try:
        table, summary = run_simulation(scenario)
        gc.collect()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table) == scenario.epochs and 0 < summary.fix_epochs < scenario.epochs
    assert retained / scenario.epochs <= 624
    assert peak / scenario.epochs <= 900


@pytest.mark.parametrize("block", [1, 2])
def test_block_size_changes_no_output(block, monkeypatch, tmp_path):
    # Five epochs, gaps among them: one block by default, else blocks of one
    # or two epochs, the last one short.
    scenario = parse_scenario(FAST_NOISY_GAPS)
    blobs = []
    for name in ("default", "small"):
        if name == "small":
            monkeypatch.setattr(pipeline, "_BLOCK", block)
        paths = write_outputs(*run_simulation(scenario), tmp_path / name, FAST_NOISY_GAPS)
        blobs.append(Path(paths["epochs"]).read_bytes() + Path(paths["summary"]).read_bytes())
    assert blobs[0] == blobs[1]


class TestWriteOutputs:
    def test_empty_records_header_only(self, tmp_path):
        records, summary = run_simulation(parse_scenario(FAST_NOISELESS))
        summary = dataclasses.replace(
            summary, epochs=0, fix_epochs=0, gap_epochs=0, detection_rate=None,
            rmse_raw=None, rmse_fused=None, rmse_raw_axes=None, rmse_fused_axes=None,
            max_error_raw=None, max_error_fused=None,
        )
        paths = write_outputs(records[:0], summary, tmp_path / "out", FAST_NOISELESS)
        lines = Path(paths["epochs"]).read_text().splitlines()
        assert lines == [",".join(CSV_COLUMNS)]
        assert '"rmse_raw": null' in Path(paths["summary"]).read_text()

    def test_row_count_and_column_order(self, tmp_path):
        records, summary = run_simulation(parse_scenario(FAST_NOISELESS))
        paths = write_outputs(records[:3], summary, tmp_path / "out", FAST_NOISELESS)
        lines = Path(paths["epochs"]).read_text().splitlines()
        assert len(lines) == 4
        assert lines[0] == "t,true_e,true_n,true_u,est_e,est_n,est_u,fused_e,fused_n,fused_u,raw_err,fused_err,n_detections"

    def test_gap_rows_have_empty_estimate_cells(self, tmp_path):
        s = parse_scenario(FAST_NOISELESS)
        s = dataclasses.replace(
            s, channel=dataclasses.replace(s.channel, detection_threshold=1e6)
        )
        records, summary = run_simulation(s)
        paths = write_outputs(records, summary, tmp_path / "out", FAST_NOISELESS)
        row = Path(paths["epochs"]).read_text().splitlines()[1].split(",")
        est_cells = row[4:7] + [row[10]]
        assert est_cells == ["", "", "", ""]

    def test_error_cells_are_each_row_own_distances(self, tmp_path):
        records, summary = run_simulation(parse_scenario(FAST_NOISY_GAPS))
        paths = write_outputs(records, summary, tmp_path / "out", FAST_NOISY_GAPS)
        with open(paths["epochs"], encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        gaps = [int(row["n_detections"]) < 4 for row in rows]
        assert len(rows) == len(records) and any(gaps) and not all(gaps)

        def cells(row, prefix):
            return [float(row[f"{prefix}_{axis}"]) for axis in "enu"]

        for row, gap in zip(rows, gaps):
            assert row["fused_err"] == repr(math.dist(cells(row, "fused"), cells(row, "true")))
            if gap:
                assert [row["est_e"], row["est_n"], row["est_u"], row["raw_err"]] == [""] * 4
            else:
                assert row["raw_err"] == repr(math.dist(cells(row, "est"), cells(row, "true")))

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
            paths = write_outputs(records, summary, tmp_path / name, FAST_NOISY)
            blobs.append(
                Path(paths["epochs"]).read_bytes() + Path(paths["summary"]).read_bytes()
            )
        assert blobs[0] == blobs[1]

    def test_enu_origin_written_in_the_degrees_read(self, tmp_path):
        # No radian round trip: -122.6 is written as -122.6, not -122.60000000000001.
        origin = GeodeticCoord(45.5, -122.6, 30.0)
        doc = yaml.safe_load(FAST_NOISELESS)
        doc["enu_origin"] = dataclasses.asdict(origin)
        doc["anchors"] = [
            {"id": f"a{k}", **dataclasses.asdict(ecef_to_geodetic(enu_to_ecef(corner, origin)))}
            for k, corner in enumerate([(100.0, 100.0, 0.0), (100.0, -100.0, 0.0),
                                        (-100.0, 100.0, 0.0), (-100.0, -100.0, 0.0)])
        ]
        text = yaml.safe_dump(doc)
        records, summary = run_simulation(parse_scenario(text))
        paths = write_outputs(records, summary, tmp_path / "out", text)
        assert json.loads(Path(paths["summary"]).read_text())["enu_origin"] == [45.5, -122.6, 30.0]


# Run in a fresh interpreter: the summed Rss (kB) of every mapping whose
# path names blas or lapack, before and after a run.
BLAS_RSS_PROBE = textwrap.dedent(
    """\
    import sys

    from hydroloc.pipeline import run_simulation
    from hydroloc.scenario import load_scenario


    def blas_rss_kb():
        total, path, mapped = 0, "", False
        with open("/proc/self/smaps") as fh:
            for line in fh:
                fields = line.split()
                if not fields[0].endswith(":"):  # a mapping: range perms offset dev inode path
                    path = fields[5].lower() if len(fields) > 5 else ""
                    mapped |= "blas" in path or "lapack" in path
                elif fields[0] == "Rss:" and ("blas" in path or "lapack" in path):
                    total += int(fields[1])
        return total if mapped else None


    scenario = load_scenario(sys.argv[1])
    before = blas_rss_kb()
    run_simulation(scenario)
    print(before, blas_rss_kb())
    """
)


def test_a_run_pages_in_no_blas_or_lapack():
    # The filter and the solver multiply matrices of at most 6 x 6 term by
    # term (hydroloc.smallmat); the first BLAS or LAPACK call of a run
    # would page about 600 kB of OpenBLAS into the process.
    if not Path("/proc/self/smaps").exists():
        pytest.skip("no /proc/self/smaps")
    scenario = str(SCENARIO_DIR / "canonical_noiseless.yaml")
    result = subprocess.run(
        [sys.executable, "-c", BLAS_RSS_PROBE, scenario],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    before, after = result.stdout.split()
    if before == "None":
        pytest.skip("numpy maps no library named blas or lapack")
    assert int(after) <= int(before)
