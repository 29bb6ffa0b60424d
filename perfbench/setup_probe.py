"""Set-up probe: run in a fresh interpreter, stop at the first epoch.

Usage: python3 perfbench/setup_probe.py SCENARIO.yaml

Imports hydroloc, loads the scenario and calls ``run_simulation`` with
``simulate_epoch`` replaced by a stub that prints ``ready`` and ends the
process. Everything ``run_simulation`` does before its first epoch is
therefore covered. The parent times from process start to that line.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import hydroloc  # noqa: E402
import hydroloc.pipeline  # noqa: E402


def _first_epoch(*args, **kwargs):
    print("ready", flush=True)
    os._exit(0)


hydroloc.pipeline.simulate_epoch = _first_epoch
hydroloc.pipeline.run_simulation(hydroloc.load_scenario(sys.argv[1]))
