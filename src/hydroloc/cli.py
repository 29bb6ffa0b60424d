"""Command-line interface.

Subcommands:
  profile   print per-layer sound speed and absorption for a scenario
  ping      trace a single source->receiver path and print TOF/TL/SNR
  localize  run one epoch's fix with a per-generation solver trace
  run       execute the full pipeline and write epochs.csv + summary.json

Exit codes: 0 success, 1 validation error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import math
import sys

import numpy as np

from .pipeline import (
    epoch_times,
    localize_epoch,
    run_simulation,
    simulate_epoch,
    write_outputs,
)
from .propagation import ChannelProfile, link_budget, ping_paths
from .scenario import (
    ScenarioError,
    load_scenario,
    parse_scenario,
    read_scenario_text,
)

log = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors exit 1, the validation-error code.

    value_hint is appended when an option is given without its value.
    """

    value_hint = ""

    def error(self, message):
        if message.endswith("expected one argument"):
            message += self.value_hint
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_endpoint(text: str, option: str, profile: ChannelProfile) -> np.ndarray:
    """An ENU point given as 'east,north,up', finite and inside the water column."""
    parts = text.split(",")
    if len(parts) != 3:
        raise ScenarioError(f"{option}: expected 'east,north,up', got {text!r}")
    try:
        east, north, up = (float(p) for p in parts)
    except ValueError:
        raise ScenarioError(f"{option}: expected three numbers, got {text!r}") from None
    if not all(math.isfinite(v) for v in (east, north, up)):
        raise ScenarioError(f"{option}: expected finite numbers, got {text!r}")
    if not 0.0 <= -up <= profile.total_depth:
        raise ScenarioError(
            f"{option}: depth {-up!r} m outside the water column [0, {profile.total_depth!r}]"
        )
    return np.array([east, north, up])


def _cmd_profile(args) -> int:
    profile = load_scenario(args.scenario).profile
    print(f"# {len(profile.sound_speeds)} layers, carrier {profile.frequency} kHz")
    print("layer  z_top_m  z_bottom_m  sound_speed_m_s  absorption_db_km")
    b = profile.boundaries
    for i, (c, a) in enumerate(zip(profile.sound_speeds, profile.absorption)):
        print(f"{i:5d}  {b[i]!r}  {b[i + 1]!r}  {c!r}  {a!r}")
    return 0


def _cmd_ping(args) -> int:
    scenario = load_scenario(args.scenario)
    profile = scenario.profile
    src = _parse_endpoint(args.src, "--src", profile)
    dst = _parse_endpoint(args.dst, "--dst", profile)

    # A run's ping: the kernel's path sums, then the run's link rule.
    tof, length, absorbed = (float(v[0]) for v in ping_paths(profile, src, dst[None]))
    if math.isnan(tof):
        print("no direct path: the ray turns before it closes the horizontal range")
        return 0

    loss_db, snr_db, detected = link_budget(scenario.channel, length, absorbed)
    print(f"tof_s: {tof!r}")
    print(f"length_m: {length!r}")
    if loss_db is not None:
        print(f"transmission_loss_db: {loss_db!r}")
        print(f"snr_db: {snr_db!r}")
    print(f"detected: {detected}")
    return 0


def _cmd_localize(args) -> int:
    scenario = load_scenario(args.scenario)
    if not 0 <= args.epoch < scenario.epochs:
        raise ScenarioError(
            f"--epoch: must be within [0, {scenario.epochs - 1}], got {args.epoch}"
        )
    if args.trace_every < 1:
        raise ScenarioError(f"--trace-every: must be >= 1, got {args.trace_every}")
    t = epoch_times(scenario)[args.epoch]
    true_pos, anchors, measurements, _ = simulate_epoch(scenario, args.epoch, t)
    print(f"epoch {args.epoch} (t={t!r} s): {len(measurements)} detections")
    for m in measurements:
        print(f"  anchor {m.anchor_id}: tof={m.tof_measured!r} s  snr={m.snr!r} dB")

    # The GA's best fit, in the unit of the residual it minimizes.
    label = "ga_fit_m2" if scenario.ga.fitness_mode == "range_residual" else "ga_fit_s2"

    def trace(gen, best, sigma):
        if gen % args.trace_every == 0:
            print(f"  gen {gen:4d}  {label}={best:.6e}  sigma={sigma:.3f} m")

    estimate = localize_epoch(scenario, args.epoch, anchors, measurements, trace=trace)
    if estimate is None:
        print("fewer than 4 detections; no fix possible at this epoch")
        return 0
    e, n, u = (float(v) for v in estimate.position)
    print(f"fix: east={e!r} north={n!r} up={u!r}")
    print(f"tof_fit_s2: {estimate.best_fitness!r}")
    print(f"fix_sigma_m: {math.sqrt(float(np.trace(estimate.covariance)))!r}")
    print(f"generations_run: {estimate.generations_run}")
    print(f"polishes: {estimate.polishes}")
    print(f"error_vs_truth_m: {math.dist(estimate.position, true_pos)!r}")
    return 0


def _cmd_run(args) -> int:
    scenario_text = read_scenario_text(args.scenario)
    scenario = parse_scenario(scenario_text)
    if args.seed is not None:
        scenario = dataclasses.replace(scenario, seed=args.seed)

    records, summary = run_simulation(scenario)
    paths = write_outputs(records, summary, args.out, scenario_text=scenario_text)
    print(f"epochs: {summary.epochs}  fixes: {summary.fix_epochs}  "
          f"gaps: {summary.gap_epochs}")
    if summary.rmse_raw is not None:
        print(f"rmse_raw_m: {summary.rmse_raw!r}")
    if summary.rmse_fused is not None:
        print(f"rmse_fused_m: {summary.rmse_fused!r}")
    print(f"wrote {paths['epochs']}")
    print(f"wrote {paths['summary']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hydroloc",
        description="Underwater acoustic propagation and beacon localization.",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="enable debug logging"
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("profile", help="print per-layer sound speed and absorption")
    p.add_argument("scenario", help="scenario file")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("ping", help="trace one path and print TOF/TL/SNR")
    p.add_argument("scenario", help="scenario file")
    p.add_argument("--src", required=True, help="source ENU as 'east,north,up'")
    p.add_argument("--dst", required=True, help="receiver ENU as 'east,north,up'")
    # argparse reads a value that starts with '-' as another option.
    p.value_hint = "; write a value that starts with '-' with '=', as in --src=-5,0,-5"
    p.set_defaults(func=_cmd_ping)

    p = sub.add_parser("localize", help="run a single epoch fix with a solver trace")
    p.add_argument("scenario", help="scenario file")
    p.add_argument("--epoch", type=int, default=0, help="epoch index (default 0)")
    p.add_argument(
        "--trace-every", type=int, default=10,
        help="print the solver trace every N generations (default 10)",
    )
    p.set_defaults(func=_cmd_localize)

    p = sub.add_parser("run", help="run the full pipeline and write outputs")
    p.add_argument("scenario", help="scenario file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument(
        "--seed", type=int, default=None, help="override the scenario master seed"
    )
    p.set_defaults(func=_cmd_run)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.WARNING)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        log.debug("unhandled failure", exc_info=True)
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
