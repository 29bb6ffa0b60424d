"""Self-test of the benchmark harness.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_harness.py
"""

import dataclasses
import importlib
import os

import pytest
import yaml

import run
from tracing import CALL_SITES, Tracer
from workloads import WORKLOADS

hydroloc = run.import_hydroloc()
from hydroloc.pipeline import epoch_times  # noqa: E402


def _tiny_scenario(tmp_path, seed=3) -> str:
    """tracking_dense cut to 21 epochs with a small GA, as a YAML file."""
    d = WORKLOADS["tracking_dense"].scenario_dict(seed)
    d["trajectory"] = d["trajectory"][:2]
    d["trajectory"][1]["time"] = 20.0
    d["ping_interval"] = 1.0
    d["channel"]["detection_threshold"] = 10.0
    d["ga"].update(population_size=8, generations=4, fitness_mode="tof_residual")
    path = tmp_path / "tiny.yaml"
    path.write_text(yaml.safe_dump(d, sort_keys=False))
    return str(path)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generated_scenarios_parse(name):
    workload = WORKLOADS[name]
    texts = workload.scenario_yamls(7)
    assert len(texts) == workload.subseeds
    assert len(set(texts)) == len(texts)
    for text in texts:
        scenario = hydroloc.parse_scenario(text)
        assert len(epoch_times(scenario)) == workload.epochs
    assert workload.scenario_yamls(7) == texts  # same seed, same inputs


def test_survey_layered_is_the_shipped_canonical_scenario_at_40_epochs():
    shipped = os.path.join(run.ROOT, "scenarios", "canonical_noisy.yaml")
    if not os.path.isfile(shipped):
        pytest.skip("no shipped canonical_noisy.yaml")
    with open(shipped, encoding="utf-8") as fh:
        expected = yaml.safe_load(fh)
    generated = WORKLOADS["survey_layered"].scenario_dict(expected["seed"])
    assert generated.pop("ping_interval") == 595.0 / 39.0
    expected.pop("ping_interval")
    assert generated == expected


def test_setup_probe_stops_at_the_first_epoch(tmp_path):
    assert 0.0 < run.setup_probe(_tiny_scenario(tmp_path)) < 60.0


def test_ring_anchors_sit_on_the_ring():
    scenario = hydroloc.parse_scenario(WORKLOADS["tracking_dense"].scenario_yamls(1)[0])
    for e, n, u in scenario.anchors_enu():
        assert abs((e * e + n * n) ** 0.5 - 120.0) < 0.01
        assert -0.01 < u <= 0.0


def test_traced_run_restores_names_and_keeps_outputs(tmp_path):
    path = _tiny_scenario(tmp_path)
    originals = {
        (m, a): getattr(importlib.import_module(m), a) for m, a, _ in CALL_SITES
    }
    plain = run.run_once(hydroloc, path, str(tmp_path / "plain"))
    tracer = Tracer()
    traced = run.run_once(hydroloc, path, str(tmp_path / "traced"), tracer)

    assert len(traced["restored"]) == len(CALL_SITES)
    assert all(ok for _, ok in traced["restored"])
    for (m, a), fn in originals.items():
        assert getattr(importlib.import_module(m), a) is fn
    for name in ("epochs.csv", "summary.json"):
        assert (tmp_path / "plain" / name).read_bytes() == (
            tmp_path / "traced" / name
        ).read_bytes()
    assert len(plain["epoch_ms"]) == 21

    spans = tracer.summarize()
    assert spans["pipeline.simulate_epoch"]["calls"] == 21
    assert spans["propagation.pairwise_tof"]["calls"] > 0
    assert all(s["self_s"] >= -1e-9 for s in spans.values())
    epochs = {e for name, *_, e in tracer.spans if name == "multilateration.fitness"}
    assert epochs <= set(range(21)) and epochs
    assert {e for name, *_, e in tracer.spans if name == "scenario.load_scenario"} == {-1}


def test_check_outputs_rejects_nonfinite_and_tampered_rows(tmp_path):
    path = _tiny_scenario(tmp_path)
    out = tmp_path / "out"
    run.run_once(hydroloc, path, str(out))
    small = dataclasses.replace(
        WORKLOADS["tracking_dense"], epochs=21, max_rmse_raw_m=1e3, max_rmse_fused_m=1e3
    )
    assert run.check_outputs(str(out), small)[0] == []

    csv_path = out / "epochs.csv"
    lines = csv_path.read_text().splitlines()

    def with_fused_u(value):
        cells = lines[3].split(",")
        cells[9] = value  # fused_u
        csv_path.write_text("\n".join(lines[:3] + [",".join(cells)] + lines[4:]) + "\n")
        return run.check_outputs(str(out), small)[0]

    assert any("non-finite" in p for p in with_fused_u("nan"))
    shifted = repr(float(lines[3].split(",")[9]) - 1.0)
    assert any("fused_err" in p for p in with_fused_u(shifted))


def test_ceilings_reject_inaccurate_runs(tmp_path):
    path = _tiny_scenario(tmp_path)
    out = tmp_path / "out"
    run.run_once(hydroloc, path, str(out))
    strict = dataclasses.replace(
        WORKLOADS["tracking_dense"], epochs=21, max_rmse_raw_m=1e-6, max_rmse_fused_m=1e-6
    )
    problems = run.check_outputs(str(out), strict)[0]
    assert any("ceiling" in p for p in problems)
