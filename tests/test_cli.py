import dataclasses
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from hydroloc import cli
from hydroloc.cli import main
from hydroloc.pipeline import epoch_times, localize_epoch, run_simulation, simulate_epoch
from hydroloc.propagation import link_budget, ping_paths, simulate_ping, snr
from hydroloc.scenario import load_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
NOISELESS = str(SCENARIO_DIR / "canonical_noiseless.yaml")
NOISY = str(SCENARIO_DIR / "canonical_noisy.yaml")


@pytest.fixture()
def small_scenario(tmp_path):
    """A trimmed copy of the canonical noiseless scenario (2 epochs)."""
    text = Path(NOISELESS).read_text()
    text = text.replace("- {time: 50.0", "- {time: 10.0")
    text = text.replace("population_size: 200", "population_size: 120")
    text = text.replace("generations: 300", "generations: 150")
    path = tmp_path / "small.yaml"
    path.write_text(text)
    return str(path)


@pytest.fixture()
def small_noisy_scenario(tmp_path):
    """The canonical noisy scenario cut after its second waypoint, moved to t=20 (5 epochs)."""
    doc = yaml.safe_load(Path(NOISY).read_text())
    doc["trajectory"] = doc["trajectory"][:2]
    doc["trajectory"][1]["time"] = 20.0
    path = tmp_path / "small_noisy.yaml"
    path.write_text(yaml.safe_dump(doc))
    return str(path)


class TestProfileCommand:
    def test_prints_layer_table(self, capsys):
        assert main(["profile", NOISELESS]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert "sound_speed_m_s" in lines[1]
        assert len(lines) == 3  # comment, header, one layer

    def test_prints_noisy_profile(self, capsys):
        assert main(["profile", NOISY]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == [
            "# 3 layers, carrier 25.0 kHz",
            "layer  z_top_m  z_bottom_m  sound_speed_m_s  absorption_db_km",
        ]
        rows = [line.split() for line in lines[2:]]
        # The speeds are polynomials in the layer properties, exact in any libm.
        assert [row[:4] for row in rows] == [
            ["0", "0.0", "30.0", "1510.2898880489495"],
            ["1", "30.0", "80.0", "1500.0266145778114"],
            ["2", "80.0", "150.0", "1490.8619856978494"],
        ]
        assert [float(row[4]) for row in rows] == pytest.approx(
            [4.279524920925963, 4.7759550154528565, 5.182483102507722], rel=1e-12
        )

    def test_missing_file_is_validation_error(self, capsys):
        assert main(["profile", "no_such_file.yaml"]) == 1
        assert "validation error" in capsys.readouterr().err


class TestPingCommand:
    def test_prints_link_budget(self, capsys):
        code = main(["ping", NOISELESS, "--src", "0,0,-50", "--dst", "100,100,0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "tof_s:" in out and "snr_db:" in out and "detected: True" in out

    def test_prints_plain_floats(self, capsys):
        for dst in ("100,100,0", "0,0,-20", "30,40,-50"):  # oblique, vertical, level
            assert main(["ping", NOISELESS, "--src", "0,0,-50", "--dst", dst]) == 0
            out = capsys.readouterr().out
            assert "snr_db:" in out and "path_model" not in out
            assert "np." not in out

    def test_malformed_triplet_is_validation_error(self, capsys):
        assert main(["ping", NOISELESS, "--src", "1,2", "--dst", "0,0,0"]) == 1
        assert "--src" in capsys.readouterr().err

    def test_out_of_column_is_validation_error(self, capsys):
        # An endpoint below the column or above the surface used to exit 2.
        assert main(["ping", NOISELESS, "--src=0,0,-500", "--dst=0,0,0"]) == 1
        assert "--src: depth 500.0 m outside the water column" in capsys.readouterr().err
        assert main(["ping", NOISELESS, "--src=0,0,-50", "--dst=0,0,5"]) == 1
        assert "--dst: depth -5.0 m outside the water column" in capsys.readouterr().err

    def test_non_finite_endpoint_is_validation_error(self, capsys):
        # A NaN east used to print a vertical path and exit 0.
        assert main(["ping", NOISELESS, "--src=nan,0,-5", "--dst=0,0,0"]) == 1
        assert "--src: expected finite numbers" in capsys.readouterr().err
        assert main(["ping", NOISELESS, "--src=0,0,-5", "--dst=0,inf,0"]) == 1
        assert "--dst: expected finite numbers" in capsys.readouterr().err

    @pytest.mark.parametrize("option", ["--src", "--dst"])
    def test_negative_value_without_equals_is_usage_error(self, option, capsys):
        # argparse reads "-5,0,-5" as an option; this used to exit 2.
        other = "--dst=0,0,0" if option == "--src" else "--src=0,0,-5"
        with pytest.raises(SystemExit) as exc:
            main(["ping", NOISELESS, option, "-5,0,-5", other])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert f"argument {option}: expected one argument" in err
        assert "--src=-5,0,-5" in err

    def test_sub_metre_path_is_not_detected(self, capsys):
        # Below the 1 m reference distance there is no loss model; this used to exit 2.
        noisy = str(SCENARIO_DIR / "canonical_noisy.yaml")
        assert main(["ping", noisy, "--src=7,7,-45", "--dst=7.3,7.4,-45.2"]) == 0
        out = capsys.readouterr().out
        assert "length_m: 0.538516480713" in out and "tof_s:" in out
        assert out.endswith("detected: False\n")
        assert "transmission_loss_db" not in out and "snr_db" not in out

    def test_surface_endpoint_depth_prints_without_sign(self, capsys):
        # Negating a surface endpoint's up of 0.0 used to print depth -0.0.
        noisy = str(SCENARIO_DIR / "canonical_noisy.yaml")
        assert main(["ping", noisy, "--src=0,0,0", "--dst=1e6,0,-150"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("no direct path") and out.count("\n") == 1
        assert "-0.0" not in out


PING_SRC = (0.0, 0.0, -50.0)
# Receivers from PING_SRC across the 1 m reference distance, then out past
# the range where canonical_noisy's SNR falls below its 10 dB threshold.
LINK_SWEEP = [
    ((0.6, 0.79, -50.0), "sub-metre"),
    ((0.6, 0.8, -50.0), "detected"),  # exactly 1 m
    ((0.6, 0.81, -50.0), "detected"),
    ((0.0, 0.0, -50.5), "sub-metre"),
    ((0.0, 0.0, -51.0), "detected"),
    ((100.0, 100.0, 0.0), "detected"),
    ((6800.0, 0.0, -50.0), "detected"),
    ((7000.0, 0.0, -50.0), "below threshold"),
    ((9000.0, 0.0, -50.0), "below threshold"),
]


def _ping_lines(capsys, scenario, dst):
    src = ",".join(repr(v) for v in PING_SRC)
    assert main(["ping", scenario, f"--src={src}", f"--dst={','.join(map(repr, dst))}"]) == 0
    return dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())


def _run_ping(channel, profile, dst):
    """A run's observation of the path from PING_SRC to dst, without timing noise.

    Returns (measured TOF or None, link_budget's SNR of the path), the
    SNR being the one simulate_ping detects by.
    """
    tof, length, absorbed = ping_paths(profile, PING_SRC, dst)
    config = dataclasses.replace(channel, tof_noise_sigma=0.0)
    ping = simulate_ping(config, "a", tof[0], length[0], absorbed[0], seed=0, timestamp=0.0)
    return ping, link_budget(config, length[0], absorbed[0])[1]


class TestPingLinkRule:
    """hydroloc ping prints the link a run's simulate_ping gives the same path."""

    @pytest.mark.parametrize("dst,outcome", LINK_SWEEP, ids=[o for _, o in LINK_SWEEP])
    def test_matches_run_rule(self, dst, outcome, capsys):
        lines = _ping_lines(capsys, NOISY, dst)
        scenario = load_scenario(NOISY)
        channel, profile = scenario.channel, scenario.profile
        ping, _ = _run_ping(channel, profile, dst)
        # With no threshold the run detects every path it models.
        heard, heard_snr = _run_ping(
            dataclasses.replace(channel, detection_threshold=-math.inf), profile, dst
        )
        assert lines["detected"] == str(ping is not None)
        if heard is None:
            assert "transmission_loss_db" not in lines and "snr_db" not in lines
        else:
            assert float(lines["snr_db"]) == heard_snr
            loss_db = float(lines["transmission_loss_db"])
            assert snr(channel.source_level, loss_db, channel.noise_level) == heard_snr
        got = "sub-metre" if heard is None else "detected" if ping else "below threshold"
        assert got == outcome

    @pytest.mark.parametrize("above", [False, True], ids=["at-snr", "one-ulp-above"])
    def test_threshold_at_snr_detects(self, above, tmp_path, capsys):
        doc = yaml.safe_load(Path(NOISY).read_text())
        scenario = load_scenario(NOISY)
        dst = (6900.0, 0.0, -50.0)
        open_channel = dataclasses.replace(scenario.channel, detection_threshold=-math.inf)
        snr_db = _run_ping(open_channel, scenario.profile, dst)[1]
        threshold = math.nextafter(snr_db, math.inf) if above else snr_db
        doc["channel"]["detection_threshold"] = threshold
        path = tmp_path / "threshold.yaml"
        path.write_text(yaml.safe_dump(doc))
        channel = load_scenario(path).channel
        assert channel.detection_threshold == threshold
        lines = _ping_lines(capsys, str(path), dst)
        detected = _run_ping(channel, scenario.profile, dst)[0] is not None
        assert lines["detected"] == str(detected) == str(not above)


class TestLocalizeCommand:
    def test_single_epoch_fix(self, small_scenario, capsys):
        assert main(["localize", small_scenario, "--epoch", "1"]) == 0
        out = capsys.readouterr().out
        assert "4 detections" in out
        assert "fix: east=" in out
        assert "gen " in out  # solver trace
        assert "error_vs_truth_m:" in out

    def test_prints_each_heard_anchor_tof(self, small_scenario, capsys):
        scenario = load_scenario(small_scenario)
        t = epoch_times(scenario)[1]
        tofs = simulate_epoch(scenario, 1, t)[2]
        assert main(["localize", small_scenario, "--epoch", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        printed = [line for line in lines if line.startswith("  anchor ")]
        assert printed == [
            f"  anchor {aid}: tof={float(tof)!r} s"
            for aid, tof in zip(scenario.anchor_ids, tofs) if not math.isnan(tof)
        ]

    def test_fix_matches_run(self, small_scenario, small_noisy_scenario, capsys):
        # localize and run solve an epoch through the same fix path. The noisy
        # scenario also shows that both draw an epoch's GPS and ping noise from
        # the same streams, which the noiseless one cannot. The solver's
        # diagnostics are the fix's own, which the table does not keep.
        for path, k in ((small_scenario, 1), (small_noisy_scenario, 3)):
            scenario = load_scenario(path)
            table, _ = run_simulation(scenario)
            _, reported, tofs, _ = simulate_epoch(scenario, k, epoch_times(scenario)[k])
            estimate = localize_epoch(scenario, k, reported, tofs)
            e, n, u = table.fix[k].tolist()
            assert main(["localize", path, "--epoch", str(k)]) == 0
            out = capsys.readouterr().out
            assert f": {table.n_detections[k]} detections\n" in out
            assert f"fix: east={e!r} north={n!r} up={u!r}\n" in out
            # The fix's sigma is the root of its covariance's trace.
            fix_sigma = math.sqrt(float(np.trace(table.fix_covariance[k])))
            assert f"fix_sigma_m: {fix_sigma!r}\n" in out
            assert f"tof_fit_s2: {estimate.best_fitness!r}\n" in out
            assert f"generations_run: {estimate.generations_run}\n" in out
            assert f"polishes: {estimate.polishes}\n" in out
            error = math.dist(table.fix[k], table.true_position[k])
            assert f"error_vs_truth_m: {error!r}\n" in out
            assert "population_dispersion_m" not in out

    @pytest.mark.parametrize(
        "mode,ga_label", [("tof_residual", "ga_fit_s2="), ("range_residual", "ga_fit_m2=")]
    )
    def test_fits_are_labelled_with_their_units(self, mode, ga_label, small_scenario, capsys):
        # The GA's trace prints the fit it minimizes; the fix's fit is always TOF (s^2).
        doc = yaml.safe_load(Path(small_scenario).read_text())
        doc["ga"]["fitness_mode"] = mode
        Path(small_scenario).write_text(yaml.safe_dump(doc))
        assert main(["localize", small_scenario, "--epoch", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        trace = [line for line in lines if line.lstrip().startswith("gen ")]
        assert trace and all(f"  {ga_label}" in line for line in trace)
        assert sum(line.startswith("tof_fit_s2: ") for line in lines) == 1
        assert not any("best_fitness" in line for line in lines)

    @pytest.mark.parametrize("mode", ["tof_residual", "range_residual"])
    def test_traces_every_evaluated_generation(self, mode, small_scenario, capsys):
        doc = yaml.safe_load(Path(small_scenario).read_text())
        doc["ga"]["fitness_mode"] = mode
        Path(small_scenario).write_text(yaml.safe_dump(doc))
        assert main(["localize", small_scenario, "--epoch", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        gens = [int(line.split()[1]) for line in lines if line.lstrip().startswith("gen ")]
        (run,) = (line for line in lines if line.startswith("generations_run: "))
        assert gens == list(range(int(run.split()[1])))

    def test_trace_every_is_not_an_option(self, small_scenario, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["localize", small_scenario, "--trace-every", "5"])
        assert exc.value.code == 1
        assert "unrecognized arguments: --trace-every 5" in capsys.readouterr().err

    def test_epoch_out_of_range(self, small_scenario, capsys):
        assert main(["localize", small_scenario, "--epoch", "99"]) == 1
        assert "--epoch" in capsys.readouterr().err

    def test_non_integer_epoch_is_usage_error(self, small_scenario, capsys):
        # Rejected by argparse before the command runs; this used to exit 2.
        with pytest.raises(SystemExit) as exc:
            main(["localize", small_scenario, "--epoch", "x"])
        assert exc.value.code == 1
        assert "argument --epoch: invalid int value: 'x'" in capsys.readouterr().err


class TestRunCommand:
    def test_writes_outputs(self, small_scenario, tmp_path, capsys):
        out_dir = tmp_path / "results"
        assert main(["run", small_scenario, "--out", str(out_dir)]) == 0
        assert (out_dir / "epochs.csv").exists()
        assert (out_dir / "summary.json").exists()
        assert (out_dir / "scenario.yaml").read_text() == Path(small_scenario).read_text()
        stdout = capsys.readouterr().out
        assert "rmse_raw_m:" in stdout

    def test_seed_override_changes_noisy_run(self, tmp_path):
        noisy = Path(NOISELESS).read_text().replace(
            "tof_noise_sigma: 0.0", "tof_noise_sigma: 0.001"
        ).replace("- {time: 50.0", "- {time: 10.0")
        noisy = noisy.replace("population_size: 200", "population_size: 100")
        noisy = noisy.replace("generations: 300", "generations: 120")
        path = tmp_path / "noisy.yaml"
        path.write_text(noisy)

        outputs = {}
        for seed in ("1", "1", "2"):
            out_dir = tmp_path / f"out_{seed}_{len(outputs)}"
            assert main(["run", str(path), "--out", str(out_dir), "--seed", seed]) == 0
            outputs[out_dir] = (out_dir / "epochs.csv").read_bytes()
        blobs = list(outputs.values())
        assert blobs[0] == blobs[1]  # same seed: byte-identical
        assert blobs[0] != blobs[2]  # different seed: different

    @pytest.mark.parametrize("name", ["epochs.csv", "summary.json", "scenario.yaml"])
    def test_out_holding_a_non_file_output_is_usage_error(
        self, name, small_scenario, tmp_path, capsys, monkeypatch
    ):
        # --out is a directory, but an output in it is not a file: it used to exit 2
        # after the whole run, when the write failed.
        runs = []
        monkeypatch.setattr(cli, "run_simulation", lambda scenario: runs.append(scenario))
        out_dir = tmp_path / "results"
        (out_dir / name).mkdir(parents=True)
        assert main(["run", small_scenario, "--out", str(out_dir)]) == 1
        err = capsys.readouterr().err
        assert f"--out: {str(out_dir / name)!r} exists and is not a regular file" in err
        assert runs == []

    def test_out_holding_output_files_is_overwritten(self, small_scenario, tmp_path):
        out_dir = tmp_path / "results"
        out_dir.mkdir()
        for name in ("epochs.csv", "summary.json", "scenario.yaml"):
            (out_dir / name).write_text("stale")
        assert main(["run", small_scenario, "--out", str(out_dir)]) == 0
        assert (out_dir / "scenario.yaml").read_text() == Path(small_scenario).read_text()
        assert (out_dir / "epochs.csv").read_text().startswith("t,true_e")

    @pytest.mark.parametrize("below", ["", "results"])
    def test_out_at_or_under_a_file_is_usage_error(
        self, below, small_scenario, tmp_path, capsys, monkeypatch
    ):
        runs = []
        monkeypatch.setattr(cli, "run_simulation", lambda scenario: runs.append(scenario))
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        assert main(["run", small_scenario, "--out", str(blocker / below)]) == 1
        err = capsys.readouterr().err
        assert f"--out: {str(blocker)!r} is not a directory" in err
        assert runs == []

    @pytest.mark.parametrize("dangling", [False, True])
    def test_out_that_cannot_be_made_is_usage_error(
        self, dangling, small_scenario, tmp_path, capsys, monkeypatch
    ):
        # An empty --out and a dangling symlink both used to exit 2 after the whole run.
        runs = []
        monkeypatch.setattr(cli, "run_simulation", lambda scenario: runs.append(scenario))
        out = ""
        if dangling:
            out = tmp_path / "link"
            out.symlink_to(tmp_path / "missing")
        assert main(["run", small_scenario, "--out", str(out)]) == 1
        assert "validation error: --out: [Errno" in capsys.readouterr().err
        assert runs == []

    def test_invalid_scenario_is_validation_error(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text(Path(NOISELESS).read_text() + "mystery_key: 1\n")
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 1
        assert "mystery_key" in capsys.readouterr().err

    def test_waypoint_outside_search_bounds_is_validation_error(self, tmp_path, capsys):
        # A huge but finite position used to run to rmse_raw_m: inf (exit 0).
        doc = yaml.safe_load(Path(NOISELESS).read_text())
        doc["trajectory"][1]["east"] = 1.0e300
        path = tmp_path / "far.yaml"
        path.write_text(yaml.safe_dump(doc))
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 1
        assert "trajectory[1].east" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_waypoint_near_an_anchor_runs(self, small_scenario, tmp_path, capsys):
        # A 0.54 m path to anchor ne is no detection; it used to exit 2.
        doc = yaml.safe_load(Path(small_scenario).read_text())
        doc["trajectory"][0].update(east=99.8, north=100.0, up=-0.5)
        path = tmp_path / "near.yaml"
        path.write_text(yaml.safe_dump(doc))
        out_dir = tmp_path / "o"
        assert main(["run", str(path), "--out", str(out_dir)]) == 0
        rows = (out_dir / "epochs.csv").read_text().splitlines()[1:]
        assert rows[0].endswith(",3")  # three anchors detected at the first epoch
        cells = [c for row in rows for c in row.split(",") if c]
        assert all(math.isfinite(float(c)) for c in cells)
        summary = (out_dir / "summary.json").read_text()
        assert "NaN" not in summary and "Infinity" not in summary

    @pytest.mark.parametrize(
        "section,key,value",
        [("ga", "population_size", 10**30), ("channel", "tof_noise_sigma", 1.0e300)],
        ids=["ga.population_size", "channel.tof_noise_sigma"],
    )
    def test_value_above_its_ceiling_is_validation_error(
        self, section, key, value, tmp_path, capsys
    ):
        # These used to exit 2 from inside the run: a GA population numpy cannot
        # allocate, and an overflow in the squared TOF residuals.
        doc = yaml.safe_load(Path(NOISELESS).read_text())
        doc[section][key] = value
        path = tmp_path / "huge.yaml"
        path.write_text(yaml.safe_dump(doc))
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 1
        assert f"validation error: {section}.{key}: must be <= " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_missing_out_is_usage_error(self, small_scenario, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", small_scenario])
        assert exc.value.code == 1
        assert "the following arguments are required: --out" in capsys.readouterr().err

    def test_straight_path_model_is_validation_error(self, tmp_path, capsys):
        # Paths always refract; the straight chord model used to run.
        path = tmp_path / "straight.yaml"
        path.write_text(
            Path(NOISELESS).read_text().replace("path_model: refracted", "path_model: straight")
        )
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 1
        assert "channel.path_model: must be 'refracted', got 'straight'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "extra,key",
        [("seed: 6\n", "seed"), ("ekf:\n  pressure_sigma_depth: 0.2\n", "ekf")],
        ids=["seed", "ekf"],
    )
    def test_repeated_key_is_validation_error(self, tmp_path, capsys, extra, key):
        # YAML keeps the last of a repeated key; such a scenario used to run.
        path = tmp_path / "repeated.yaml"
        path.write_text(Path(NOISELESS).read_text() + extra)
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 1
        assert f"found duplicate key '{key}'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "old,new,key",
        [
            ("thickness: 100.0", "thickness: 1.0e+6", "water_column.layers: "),
            ("thickness: 100.0", "thickness: 1.0e+300", "water_column.layers: "),
            ("carrier_frequency: 25.0", "carrier_frequency: 1.0e+160", "carrier_frequency: "),
            ("carrier_frequency: 25.0", "carrier_frequency: 1.0e+6", "carrier_frequency: "),
        ],
        ids=["thickness-1e6", "thickness-1e300", "carrier-1e160", "carrier-1e6"],
    )
    def test_non_physical_acoustics_is_validation_error(self, tmp_path, capsys, old, new, key):
        # These ran to exit 0 on a negative or NaN sound speed or absorption.
        text = Path(NOISELESS).read_text()
        assert old in text
        path = tmp_path / "acoustics.yaml"
        path.write_text(text.replace(old, new))
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 1
        assert f"validation error: {key}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_missing_file_is_validation_error(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "none.yaml"), "--out", str(tmp_path / "o")]) == 1
        assert "cannot read scenario file" in capsys.readouterr().err

    def test_non_finite_number_is_validation_error(self, tmp_path, capsys):
        # An infinite ping interval used to fail deep inside the run (exit 2).
        doc = yaml.safe_load(Path(NOISELESS).read_text())
        doc["ping_interval"] = math.inf
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(doc))
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 1
        assert "ping_interval: expected a finite number" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


def test_module_entry_point_help():
    result = subprocess.run(
        [sys.executable, "-m", "hydroloc.cli", "--help"],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0
    assert "profile" in result.stdout and "run" in result.stdout
