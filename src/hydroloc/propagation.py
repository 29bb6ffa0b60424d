"""Direct acoustic paths through a layered column: TOF, loss and pings.

One vectorized kernel gives each direct path's length in every layer.
Travel time, path length and absorption are sums over those lengths in
layer order (TOF = sum of length_i / c_i), so pings, the fitness's
pairwise travel times and the RayPath traces share one rule. A run's
pings and `hydroloc ping` share one link rule, link_budget.

A path that crosses at most one layer is the chord between its
endpoints. A path across two or more layers refracts by the
Snell-Descartes law: the ray parameter p = cos(theta)/c is constant
across layer interfaces, with theta the grazing angle from horizontal.

Positions at module boundaries are ENU (up negative underwater); depth
is positive down internally, converted by negation.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .environment import acoustics_profile

__all__ = [
    "NoDirectPathError",
    "ChannelProfile",
    "ChannelConfig",
    "RaySegment",
    "RayPath",
    "PingMeasurement",
    "trace_refracted",
    "transmission_loss",
    "snr",
    "link_budget",
    "ping_paths",
    "simulate_ping",
    "pairwise_tof",
    "range_from_tof",
]

log = logging.getLogger(__name__)

# The bracket keeps p*c strictly below 1 in the fastest traversed layer;
# a range unreachable within the bracket means the ray would turn.
_P_MARGIN = 1e-9
# The p -> range map is convex and increasing, so a few bisection rounds
# to tame the curvature followed by Newton from the left bracket end
# (monotone, no overshoot) reach float64 resolution quickly.
_BISECT_STEPS = 8
_NEWTON_STEPS = 16
# Transmission loss is spreading relative to 1 m; shorter paths have none.
_REFERENCE_DISTANCE = 1.0


class NoDirectPathError(Exception):
    """No direct (non-reflected, non-turning) ray joins the endpoints."""


@dataclass(frozen=True)
class ChannelProfile:
    """Layer boundaries plus per-layer acoustics at a carrier frequency."""

    boundaries: tuple[float, ...]   # m, prefix sums, boundaries[0] == 0
    sound_speeds: tuple[float, ...]  # m/s per layer
    absorption: tuple[float, ...]    # dB/km per layer
    frequency: float                 # kHz

    @classmethod
    def from_layers(cls, layers, frequency: float) -> "ChannelProfile":
        """The profile of a stack of Layers, surface first, at frequency (kHz).

        Raises ValueError for an empty stack, a total depth that is not
        finite, or a mid-depth or frequency outside the acoustic models'
        validity ranges.
        """
        layers = tuple(layers)
        if not layers:
            raise ValueError("at least one layer is required")
        boundaries = [0.0]
        for layer in layers:
            boundaries.append(boundaries[-1] + layer.thickness)
        if not math.isfinite(boundaries[-1]):
            raise ValueError(f"total thickness must be finite, got {boundaries[-1]}")
        sound_speeds, absorption = acoustics_profile(layers, frequency)
        return cls(tuple(boundaries), sound_speeds, absorption, frequency)

    @property
    def total_depth(self) -> float:
        return self.boundaries[-1]


@dataclass(frozen=True)
class ChannelConfig:
    """Link-budget and measurement-noise settings for ping simulation."""

    source_level: float          # dB re 1 uPa @ 1 m
    noise_level: float           # dB re 1 uPa
    detection_threshold: float = 0.0  # dB, minimum SNR that yields a detection
    tof_noise_sigma: float = 0.0      # s, Gaussian timing jitter
    # Paths always refract; the key remains so that scenarios naming it parse.
    path_model: str = "refracted"

    def __post_init__(self) -> None:
        if self.path_model != "refracted":
            raise ValueError(f"path_model: must be 'refracted', got {self.path_model!r}")
        if self.tof_noise_sigma < 0:
            raise ValueError(f"tof_noise_sigma: must be >= 0, got {self.tof_noise_sigma}")


@dataclass(frozen=True)
class RaySegment:
    layer: int
    length: float          # m
    grazing_angle: float   # rad from horizontal


@dataclass(frozen=True)
class RayPath:
    """A traced source-to-receiver path, segment per traversed layer."""

    segments: tuple[RaySegment, ...]
    total_length: float   # m
    tof: float            # s
    ray_parameter: float  # s/m, cos(theta)/c (0 for a vertical ray)


@dataclass(frozen=True)
class PingMeasurement:
    """One anchor's observation of a beacon ping."""

    anchor_id: str
    tof_measured: float  # s
    snr: float           # dB
    timestamp: float     # s since scenario start


def _check_depth(profile: ChannelProfile, depth: np.ndarray, what: str) -> None:
    if not ((depth >= 0.0) & (depth <= profile.total_depth)).all():
        raise ValueError(
            f"{what} depth {depth} outside the water column [0, {profile.total_depth}]"
        )


def _layer_overlaps(boundaries: np.ndarray, z_lo, z_hi) -> np.ndarray:
    """Vertical overlap of [z_lo, z_hi] with each layer; broadcasts over pairs."""
    lo = np.maximum(np.asarray(z_lo)[..., None], boundaries[:-1])
    hi = np.minimum(np.asarray(z_hi)[..., None], boundaries[1:])
    return np.maximum(hi - lo, 0.0)


def _layer_at(boundaries: np.ndarray, z) -> np.ndarray:
    """Index of the layer holding depth z, elementwise.

    An interior boundary belongs to the layer below it and the bottom
    boundary to the last layer.
    """
    return np.searchsorted(boundaries[1:-1], z, side="right")


def _solve_ray_parameter(dz: np.ndarray, speeds: np.ndarray, ranges: np.ndarray):
    """Ray parameters that close the horizontal ranges of refracted rays.

    dz is (K, L) per-layer vertical extent, each row crossing two or more
    layers, and ranges (K,) the rows' horizontal ranges, all > 0. Returns
    (p, ok); rows whose range is not reachable before the ray turns get
    ok=False and p = 0. A bracketed bisection/Newton solve of the
    monotone p -> range map; each row stops at its own convergence, so
    its p does not depend on the other rows.
    """
    # Zeroing the speed of non-traversed layers makes their contribution
    # vanish without masking inside the loops (dz is 0 there too).
    c_eff = np.where(dz > 0.0, speeds, 0.0)
    dzc = dz * c_eff

    def horizontal_range(pv):
        u = pv[:, None] * c_eff
        u *= u
        np.subtract(1.0, u, out=u)
        np.sqrt(u, out=u)
        step = dzc * pv[:, None]
        step /= u
        return step.sum(axis=-1)

    c_max = c_eff.max(axis=-1)
    c_min = np.where(dz > 0.0, speeds, np.inf).min(axis=-1)
    p_cap = (1.0 - _P_MARGIN) / c_max
    ok = horizontal_range(p_cap) >= ranges
    # Unreachable rows would invert the bracket below; aim them at range 0
    # (their p is masked out).
    ranges = np.where(ok, ranges, 0.0)

    # The root lies between the chord solutions for the fastest and
    # slowest traversed speeds (range grows with each layer's speed).
    chord = np.hypot(ranges, dz.sum(axis=-1))
    lo = ranges / (chord * c_max)
    hi = np.minimum(ranges / (chord * c_min), p_cap)
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        short = horizontal_range(mid) < ranges
        np.copyto(lo, mid, where=short)
        np.copyto(hi, mid, where=~short)

    pv = lo
    active = np.ones(pv.shape, dtype=bool)
    for _ in range(_NEWTON_STEPS):
        u2 = pv[:, None] * c_eff
        u2 *= u2
        np.subtract(1.0, u2, out=u2)
        np.sqrt(u2, out=u2)
        rs = np.reciprocal(u2, out=u2)  # 1/sqrt(1 - u^2)
        term = dzc * rs
        x = pv * term.sum(axis=-1)      # range at pv
        term *= rs
        term *= rs
        slope = term.sum(axis=-1)       # d range / d p
        step = (ranges - x) / slope
        pv = np.where(active, np.minimum(pv + step, p_cap), pv)
        active &= np.abs(step) > 1e-14 * pv + 1e-20
        if not active.any():
            break

    return np.where(ok, pv, 0.0), ok


def _layer_paths(profile: ChannelProfile, z_src, z_rcv, horizontal):
    """Per-layer lengths of the direct rays between depth pairs.

    The one place path geometry is computed. Source and receiver depths
    and horizontal ranges (m) broadcast to the pair shape S. Returns
    (lengths, dz, p, ok): per-layer path lengths (m) of shape S + (L,)
    in layer order, the per-layer vertical extents, the ray parameter
    (s/m), and ok=False where no direct ray exists (the other outputs of
    such pairs are meaningless). Raises ValueError for a depth outside
    the water column.

    A pair that crosses at most one layer, level and coincident pairs
    included, is its chord hypot(range, z_hi - z_lo), placed in the layer
    at the shallower depth, with p = range / (chord c), or 0 for a zero
    chord. A pair across two or more layers has
    length_i = dz_i / sqrt(1 - p^2 c_i^2), with p closing the range.
    """
    boundaries = np.asarray(profile.boundaries)
    speeds = np.asarray(profile.sound_speeds)
    z_src, z_rcv = np.asarray(z_src, float), np.asarray(z_rcv, float)
    _check_depth(profile, z_src, "source")
    _check_depth(profile, z_rcv, "receiver")
    z_lo, z_hi, horizontal = np.broadcast_arrays(
        np.minimum(z_src, z_rcv), np.maximum(z_src, z_rcv), np.asarray(horizontal, float)
    )
    dz = _layer_overlaps(boundaries, z_lo, z_hi)
    crossed = dz > 0.0
    refracted = crossed.sum(axis=-1) > 1
    chord = np.hypot(horizontal, z_hi - z_lo)
    layer = _layer_at(boundaries, z_lo)

    with np.errstate(invalid="ignore", divide="ignore"):
        p = np.where(chord > 0.0, horizontal / (chord * speeds[layer]), 0.0)
        ok = np.ones(p.shape, dtype=bool)
        solve = refracted & (horizontal > 0.0)
        if solve.any():
            p[solve], ok[solve] = _solve_ray_parameter(dz[solve], speeds, horizontal[solve])
        sin = np.sqrt(1.0 - (p[..., None] * speeds) ** 2)
        bent = np.where(crossed, dz / sin, 0.0)
    straight = np.where(np.arange(len(speeds)) == layer[..., None], chord[..., None], 0.0)
    lengths = np.where(refracted[..., None], bent, straight)
    return lengths, dz, p, ok


def _tof(profile: ChannelProfile, lengths: np.ndarray) -> np.ndarray:
    """Travel time (s) along per-layer path lengths (..., L), summed in layer order."""
    return (lengths / np.asarray(profile.sound_speeds)).sum(axis=-1)


def trace_refracted(
    profile: ChannelProfile,
    source_depth: float,
    receiver_depth: float,
    horizontal_range: float,
) -> RayPath:
    """Trace the direct refracted ray between two depths.

    The RayPath view of one kernel pair, segments source -> receiver.
    Endpoints within one layer are joined by their chord. Across two or
    more layers the per-layer grazing angles share a single ray
    parameter p = cos(theta_i)/c_i, found by a bracketed solve of the
    monotone map from p to horizontal range. Raises NoDirectPathError
    when the requested range cannot be closed before the ray turns.
    """
    if horizontal_range < 0:
        raise ValueError(f"horizontal_range must be >= 0, got {horizontal_range}")
    lengths, dz, p, ok = _layer_paths(profile, source_depth, receiver_depth, horizontal_range)
    if not ok:
        raise NoDirectPathError(
            f"range {horizontal_range} m not reachable by a direct ray "
            f"between depths {source_depth} and {receiver_depth} m"
        )
    order = np.nonzero(lengths > 0.0)[0]
    if source_depth > receiver_depth:
        order = order[::-1]
    segments = tuple(
        RaySegment(
            layer=int(i),
            length=float(lengths[i]),
            grazing_angle=math.asin(min(dz[i] / lengths[i], 1.0)),
        )
        for i in order
    )
    return RayPath(
        segments=segments,
        total_length=float(lengths.sum(axis=-1)),
        tof=float(_tof(profile, lengths)),
        ray_parameter=float(p),
    )


def _loss_db(total_length: float, absorbed: float) -> float | None:
    """Spherical spreading relative to 1 m plus the absorption along the path, dB.

    None below the 1 m reference distance, where the model has no loss.
    """
    if total_length < _REFERENCE_DISTANCE:
        return None
    return 20.0 * math.log10(total_length) + absorbed


def transmission_loss(path: RayPath, profile: ChannelProfile) -> float:
    """Spherical spreading plus per-segment absorption, dB.

    TL = 20 log10(length / 1 m) + sum over segments of alpha * length,
    with alpha taken per layer from the profile (dB/km converted to dB/m).
    Paths shorter than the 1 m reference distance are rejected.
    """
    absorbed = sum(profile.absorption[seg.layer] * 1e-3 * seg.length for seg in path.segments)
    loss_db = _loss_db(path.total_length, absorbed)
    if loss_db is None:
        raise ValueError(
            f"path length {path.total_length} m is below the 1 m reference distance"
        )
    return loss_db


def snr(source_level: float, transmission_loss_db: float, noise_level: float) -> float:
    """Passive sonar equation: SNR = SL - TL - NL, all dB."""
    return source_level - transmission_loss_db - noise_level


def link_budget(config: ChannelConfig, length: float, absorbed: float):
    """(loss_db, snr_db, detected) of a path's length (m) and absorption (dB).

    Below the 1 m reference distance: (None, None, False). Otherwise the
    path is detected when SNR >= the threshold, so a NaN SNR is not.
    """
    loss_db = _loss_db(float(length), float(absorbed))
    if loss_db is None:
        return None, None, False
    snr_db = snr(config.source_level, loss_db, config.noise_level)
    return loss_db, snr_db, snr_db >= config.detection_threshold


def ping_paths(profile: ChannelProfile, source, receivers):
    """Trace one source to every receiver, all ENU, in one kernel call.

    receivers is (M, 3). Returns (tof, length, absorbed), each of shape
    (M,): the travel time (s), the path length (m) and the absorption
    along the path (dB), each summed in layer order. tof is NaN where no
    direct path exists.
    """
    src = np.asarray(source, float)
    rcv = np.asarray(receivers, float).reshape(-1, 3)
    z_src, z_rcv = float(-src[2]), -rcv[:, 2]
    horizontal = [math.hypot(r[0] - src[0], r[1] - src[1]) for r in rcv]
    lengths, _, _, ok = _layer_paths(profile, z_src, z_rcv, horizontal)
    return (
        np.where(ok, _tof(profile, lengths), np.nan),
        lengths.sum(axis=-1),
        (np.asarray(profile.absorption) * 1e-3 * lengths).sum(axis=-1),
    )


def simulate_ping(
    config: ChannelConfig,
    anchor_id: str,
    tof: float,
    length: float,
    absorbed: float,
    seed: int,
    timestamp: float,
) -> PingMeasurement | None:
    """One anchor's observation of a ping path traced by ping_paths.

    Returns None (a non-detection) when no direct path exists (tof not
    finite), when link_budget does not detect the path, or when timing
    noise would make the TOF non-positive. The measured TOF is the path
    TOF plus one Gaussian draw from np.random.default_rng(seed), drawn
    only for a detected ping.
    """
    if not math.isfinite(tof):
        log.debug("anchor %s at t=%.3f: no direct path", anchor_id, timestamp)
        return None
    _, snr_db, detected = link_budget(config, length, absorbed)
    if not detected:
        log.debug(
            "anchor %s at t=%.3f: not detected (path %.3f m, SNR %s dB, threshold %.2f dB)",
            anchor_id, timestamp, length, snr_db, config.detection_threshold,
        )
        return None
    rng = np.random.default_rng(seed)
    tof_measured = float(tof + rng.normal(0.0, config.tof_noise_sigma))
    if tof_measured <= 0.0:
        log.debug("anchor %s at t=%.3f: noisy TOF non-positive", anchor_id, timestamp)
        return None
    return PingMeasurement(anchor_id, tof_measured, snr_db, timestamp)


def pairwise_tof(profile: ChannelProfile, points_a, points_b):
    """Travel times from each ENU point in points_a to each in points_b.

    The forward model of the localization fitness, on the path kernel
    of the pings. points_a is (N, 3), points_b is (M, 3); returns (tof,
    ok) with shape (N, M). ok=False marks pairs with no direct path
    (their tof entry is meaningless). Raises ValueError for a point
    outside the water column.
    """
    a = np.atleast_2d(np.asarray(points_a, float))
    b = np.atleast_2d(np.asarray(points_b, float))
    horizontal = np.hypot(
        a[:, None, 0] - b[None, :, 0], a[:, None, 1] - b[None, :, 1]
    )
    lengths, _, _, ok = _layer_paths(profile, -a[:, 2, None], -b[None, :, 2], horizontal)
    return _tof(profile, lengths), ok


def range_from_tof(tof, profile: ChannelProfile, anchor_depth, target_depth):
    """Convert TOFs to slant ranges with the harmonic-mean sound speed.

    The speed is thickness-weighted over the depth interval between the
    anchor and an assumed target depth; a zero-thickness interval uses
    the local layer speed. Arguments broadcast elementwise; scalar
    arguments give a float.
    """
    tof = np.asarray(tof, float)
    z_lo = np.minimum(anchor_depth, target_depth)
    z_hi = np.maximum(anchor_depth, target_depth)
    if not ((tof > 0.0) & (z_lo >= 0.0) & (z_hi <= profile.total_depth)).all():
        raise ValueError(
            f"need tof > 0 and depths in the water column [0, {profile.total_depth}], "
            f"got tof {tof}, anchor depth {anchor_depth}, target depth "
            f"{target_depth}"
        )

    boundaries = np.asarray(profile.boundaries)
    speeds = np.asarray(profile.sound_speeds)
    thickness = z_hi - z_lo
    with np.errstate(invalid="ignore", divide="ignore"):
        harmonic = thickness / (_layer_overlaps(boundaries, z_lo, z_hi) / speeds).sum(axis=-1)
    local = speeds[_layer_at(boundaries, z_lo)]
    ranges = tof * np.where(thickness > 0.0, harmonic, local)
    return float(ranges) if ranges.ndim == 0 else ranges
