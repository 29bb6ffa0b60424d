"""Direct acoustic paths through a layered column: TOF, loss and pings.

Two path models are available. The refracted model obeys the
Snell-Descartes law: the ray parameter p = cos(theta)/c is constant
across layer interfaces, with theta the grazing angle from horizontal.
The straight model splits the Euclidean chord at layer boundaries and
ignores refraction; in a homogeneous column both coincide.

Positions at module boundaries are ENU (up negative underwater); depth
is positive down internally, converted by negation.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .environment import WaterColumn, acoustics_profile, layer_index_for

__all__ = [
    "NoDirectPathError",
    "ChannelProfile",
    "ChannelConfig",
    "RaySegment",
    "RayPath",
    "LinkBudget",
    "PingMeasurement",
    "trace_refracted",
    "trace_straight",
    "trace_path",
    "transmission_loss",
    "snr",
    "link_budget",
    "simulate_ping",
    "pairwise_tof",
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
    def from_column(cls, column: WaterColumn, frequency: float) -> "ChannelProfile":
        acoustics = acoustics_profile(column, frequency)
        return cls(
            boundaries=column.boundaries,
            sound_speeds=tuple(a.sound_speed for a in acoustics),
            absorption=tuple(a.absorption for a in acoustics),
            frequency=frequency,
        )

    @property
    def total_depth(self) -> float:
        return self.boundaries[-1]

    def layer_index_at(self, depth: float) -> int:
        return layer_index_for(self.boundaries, depth)


@dataclass(frozen=True)
class ChannelConfig:
    """Link-budget and measurement-noise settings for ping simulation."""

    source_level: float          # dB re 1 uPa @ 1 m
    noise_level: float           # dB re 1 uPa
    detection_threshold: float = 0.0  # dB, minimum SNR that yields a detection
    tof_noise_sigma: float = 0.0      # s, Gaussian timing jitter
    path_model: str = "refracted"

    def __post_init__(self) -> None:
        if self.path_model not in ("refracted", "straight"):
            raise ValueError(
                f"path_model must be 'refracted' or 'straight', got {self.path_model!r}"
            )
        if self.tof_noise_sigma < 0:
            raise ValueError(f"tof_noise_sigma must be >= 0, got {self.tof_noise_sigma}")


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
class LinkBudget:
    source_level: float       # dB re 1 uPa @ 1 m
    transmission_loss: float  # dB
    noise_level: float        # dB re 1 uPa

    @property
    def snr(self) -> float:
        return self.source_level - self.transmission_loss - self.noise_level


@dataclass(frozen=True)
class PingMeasurement:
    """One anchor's observation of a beacon ping."""

    anchor_id: str
    tof_measured: float  # s
    snr: float           # dB
    timestamp: float     # s since scenario start


def _check_depth(profile: ChannelProfile, depth: float, what: str) -> None:
    if not 0.0 <= depth <= profile.total_depth:
        raise ValueError(
            f"{what} depth {depth} outside water column [0, {profile.total_depth}]"
        )


def _layer_overlaps(boundaries: np.ndarray, z_lo, z_hi) -> np.ndarray:
    """Vertical overlap of [z_lo, z_hi] with each layer; broadcasts over pairs."""
    lo = np.maximum(np.asarray(z_lo)[..., None], boundaries[:-1])
    hi = np.minimum(np.asarray(z_hi)[..., None], boundaries[1:])
    return np.maximum(hi - lo, 0.0)


def _layer_speed_at(boundaries: np.ndarray, speeds: np.ndarray, z) -> np.ndarray:
    """Speed of the layer holding depth z, elementwise.

    As in layer_index_for, an interior boundary belongs to the layer
    below it and the bottom boundary to the last layer.
    """
    return speeds[np.searchsorted(boundaries[1:-1], z, side="right")]


def _tof_of_p(p: np.ndarray, dz: np.ndarray, speeds: np.ndarray) -> np.ndarray:
    u = p[..., None] * speeds
    with np.errstate(invalid="ignore", divide="ignore"):
        t = dz / (speeds * np.sqrt(1.0 - u * u))
    return np.where(dz > 0.0, t, 0.0).sum(axis=-1)


def _solve_ray_parameter(dz: np.ndarray, speeds: np.ndarray, ranges: np.ndarray):
    """Ray parameters that close the requested horizontal ranges.

    dz is (..., L) per-layer vertical extent (rows may be all zero), ranges
    broadcasts with dz[..., 0]. Returns (p, ok); pairs whose range is not
    reachable before the ray turns get ok=False. Purely vertical rows give
    p = 0; a single traversed layer is solved in closed form, two or more
    by a bracketed bisection/Newton solve of the monotone p -> range map.
    """
    dz = np.asarray(dz, float)
    ranges = np.asarray(ranges, float)
    traversed = dz > 0.0
    n_traversed = traversed.sum(axis=-1)
    dz_total = dz.sum(axis=-1)

    shape = np.broadcast(dz[..., 0], ranges).shape
    p = np.zeros(shape)
    ok = np.ones(shape, dtype=bool)

    # Single traversed layer: p*c = cos(theta) of the chord, exactly.
    single = (n_traversed == 1) & (ranges > 0.0)
    if np.any(single):
        c_single = np.where(traversed, speeds, 0.0).max(axis=-1)
        chord = np.hypot(ranges, dz_total)
        denom = np.where(single, chord * c_single, 1.0)
        p = np.where(single, ranges / denom, p)

    multi = (n_traversed > 1) & (ranges > 0.0)
    if np.any(multi):
        # Solve only the multi-layer pairs, as flat arrays. Zeroing the
        # speed of non-traversed layers makes their contribution vanish
        # without masking inside the loop (dz is 0 there too).
        n_layers = dz.shape[-1]
        rows = np.nonzero(multi.ravel())[0]
        dz_m = np.broadcast_to(dz, shape + (n_layers,)).reshape(-1, n_layers)[rows]
        r_m = np.broadcast_to(ranges, shape).reshape(-1)[rows]
        c_eff = np.where(dz_m > 0.0, speeds, 0.0)
        dzc = dz_m * c_eff

        def horizontal_range(pv):
            u = pv[:, None] * c_eff
            u *= u
            np.subtract(1.0, u, out=u)
            np.sqrt(u, out=u)
            step = dzc * pv[:, None]
            step /= u
            return step.sum(axis=-1)

        c_max = c_eff.max(axis=-1)
        c_min = np.where(dz_m > 0.0, speeds, np.inf).min(axis=-1)
        p_cap = (1.0 - _P_MARGIN) / c_max
        ok_m = horizontal_range(p_cap) >= r_m
        # Unreachable rows would invert the bracket below and stall the
        # Newton early exit; aim them at range 0 (their p is masked out).
        r_m = np.where(ok_m, r_m, 0.0)

        # The root lies between the chord solutions for the fastest and
        # slowest traversed speeds (range grows with each layer's speed).
        chord = np.hypot(r_m, dz_m.sum(axis=-1))
        lo = r_m / (chord * c_max)
        hi = np.minimum(r_m / (chord * c_min), p_cap)
        for _ in range(_BISECT_STEPS):
            mid = 0.5 * (lo + hi)
            short = horizontal_range(mid) < r_m
            lo = np.where(short, mid, lo)
            hi = np.where(short, hi, mid)

        pv = lo
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
            step = (r_m - x) / slope
            pv = np.minimum(pv + step, p_cap)
            if np.all(np.abs(step) <= 1e-14 * pv + 1e-20):
                break

        p_flat = p.reshape(-1)
        ok_flat = ok.reshape(-1)
        p_flat[rows] = np.where(ok_m, pv, 0.0)
        ok_flat[rows] = ok_m

    return p, ok


def _trace_layers(profile, z_src, z_rcv, horizontal, layer_rule) -> RayPath:
    """Scaffold of the scalar traces between source and receiver depths.

    Checks both depths and returns the horizontal ray in the containing
    layer when they are equal (the p*c -> 1 limit for refraction).
    Otherwise layer_rule(dz, order) gets the per-layer vertical overlaps
    and the traversed layers in source -> receiver order, and returns
    (ray_parameter, total_length, pieces) with one (length, grazing_angle)
    per traversed layer.
    """
    _check_depth(profile, z_src, "source")
    _check_depth(profile, z_rcv, "receiver")
    if z_src == z_rcv:
        if horizontal == 0.0:
            return RayPath(segments=(), total_length=0.0, tof=0.0, ray_parameter=0.0)
        idx = profile.layer_index_at(z_src)
        c = profile.sound_speeds[idx]
        seg = RaySegment(layer=idx, length=horizontal, grazing_angle=0.0)
        return RayPath(
            segments=(seg,), total_length=horizontal, tof=horizontal / c,
            ray_parameter=1.0 / c,
        )

    z_lo, z_hi = sorted((z_src, z_rcv))
    dz = _layer_overlaps(np.asarray(profile.boundaries), np.float64(z_lo), np.float64(z_hi))
    order = np.nonzero(dz > 0.0)[0]
    if z_src > z_rcv:
        order = order[::-1]  # segments run source -> receiver
    p, total_length, pieces = layer_rule(dz, order)

    segments = []
    tof = 0.0
    for i, (length, angle) in zip(order, pieces):
        segments.append(RaySegment(layer=int(i), length=length, grazing_angle=angle))
        tof += length / profile.sound_speeds[i]
    return RayPath(
        segments=tuple(segments), total_length=total_length, tof=tof, ray_parameter=p
    )


def trace_refracted(
    profile: ChannelProfile,
    source_depth: float,
    receiver_depth: float,
    horizontal_range: float,
) -> RayPath:
    """Trace the direct refracted ray between two depths.

    The per-layer grazing angles share a single ray parameter
    p = cos(theta_i)/c_i; p is found by a bracketed solve of the
    monotone map from p to horizontal range. Raises NoDirectPathError
    when the requested range cannot be closed before the ray turns.
    Equal depths with nonzero range degenerate to a horizontal ray in
    the containing layer (the p*c -> 1 limit).
    """
    if horizontal_range < 0:
        raise ValueError(f"horizontal_range must be >= 0, got {horizontal_range}")
    speeds = np.asarray(profile.sound_speeds)

    def snell(dz, order):
        p_arr, ok = _solve_ray_parameter(dz[None, :], speeds, np.array([horizontal_range]))
        if not ok[0]:
            raise NoDirectPathError(
                f"range {horizontal_range} m not reachable by a direct ray "
                f"between depths {source_depth} and {receiver_depth} m"
            )
        p = float(p_arr[0])
        pieces = []
        total_length = 0.0
        for i in order:
            u = p * float(speeds[i])
            sin_th = math.sqrt(max(1.0 - u * u, 0.0))
            length = float(dz[i]) / sin_th if sin_th > 0 else float(dz[i])
            pieces.append((length, math.atan2(sin_th, u)))
            total_length += length
        return p, total_length, pieces

    return _trace_layers(profile, source_depth, receiver_depth, horizontal_range, snell)


def trace_straight(profile: ChannelProfile, source, receiver) -> RayPath:
    """Trace the Euclidean chord between two ENU points, split per layer.

    Each segment uses its layer's sound speed; no refraction. Endpoints
    are (east, north, up) with up negative underwater.
    """
    src = np.asarray(source, float)
    rcv = np.asarray(receiver, float)
    z_src, z_rcv = -src[2], -rcv[2]
    horizontal = math.hypot(rcv[0] - src[0], rcv[1] - src[1])

    def chord_split(dz, order):
        dz_total = abs(z_rcv - z_src)
        chord = math.hypot(horizontal, dz_total)
        angle = math.atan2(dz_total, horizontal)
        pieces = [(chord * float(dz[i]) / dz_total, angle) for i in order]
        return math.cos(angle) / profile.sound_speeds[int(order[0])], chord, pieces

    return _trace_layers(profile, z_src, z_rcv, horizontal, chord_split)


def trace_path(profile: ChannelProfile, source, receiver, path_model: str) -> RayPath:
    """Trace the direct path between two ENU points under a path model.

    "refracted" traces the Snell ray between the endpoint depths over
    their horizontal separation; "straight" traces the chord. Raises
    NoDirectPathError when no direct refracted ray exists.
    """
    src = np.asarray(source, float)
    rcv = np.asarray(receiver, float)
    if path_model == "refracted":
        horizontal = math.hypot(rcv[0] - src[0], rcv[1] - src[1])
        return trace_refracted(profile, -src[2], -rcv[2], horizontal)
    if path_model == "straight":
        return trace_straight(profile, src, rcv)
    raise ValueError(f"unknown path model {path_model!r}")


def transmission_loss(path: RayPath, profile: ChannelProfile) -> float:
    """Spherical spreading plus per-segment absorption, dB.

    TL = 20 log10(length / 1 m) + sum over segments of alpha * length,
    with alpha taken per layer from the profile (dB/km converted to dB/m).
    Paths shorter than the 1 m reference distance are rejected.
    """
    if path.total_length < 1.0:
        raise ValueError(
            f"path length {path.total_length} m is below the 1 m reference distance"
        )
    spreading = 20.0 * math.log10(path.total_length)
    absorbed = sum(
        profile.absorption[seg.layer] * 1e-3 * seg.length for seg in path.segments
    )
    return spreading + absorbed


def snr(source_level: float, transmission_loss_db: float, noise_level: float) -> float:
    """Passive sonar equation: SNR = SL - TL - NL, all dB."""
    return source_level - transmission_loss_db - noise_level


def link_budget(path: RayPath, profile: ChannelProfile, config: ChannelConfig) -> LinkBudget:
    return LinkBudget(
        source_level=config.source_level,
        transmission_loss=transmission_loss(path, profile),
        noise_level=config.noise_level,
    )


def simulate_ping(
    profile: ChannelProfile,
    config: ChannelConfig,
    anchor_id: str,
    source,
    receiver,
    rng: np.random.Generator,
    timestamp: float,
) -> PingMeasurement | None:
    """Simulate one beacon ping from source to receiver, both ENU.

    Returns None (a non-detection) when no direct path exists, when the
    SNR falls below the detection threshold, or when timing noise would
    produce a non-positive TOF. The measured TOF is the path TOF plus one
    Gaussian draw from rng.
    """
    try:
        path = trace_path(profile, source, receiver, config.path_model)
    except NoDirectPathError:
        log.debug("anchor %s at t=%.3f: no direct path", anchor_id, timestamp)
        return None

    budget = link_budget(path, profile, config)
    if budget.snr < config.detection_threshold:
        log.debug(
            "anchor %s at t=%.3f: SNR %.2f dB below threshold %.2f dB",
            anchor_id, timestamp, budget.snr, config.detection_threshold,
        )
        return None

    tof_measured = float(path.tof + rng.normal(0.0, config.tof_noise_sigma))
    if tof_measured <= 0.0:
        log.debug("anchor %s at t=%.3f: noisy TOF non-positive", anchor_id, timestamp)
        return None
    return PingMeasurement(
        anchor_id=anchor_id, tof_measured=tof_measured, snr=budget.snr, timestamp=timestamp
    )


def pairwise_tof(
    profile: ChannelProfile,
    points_a,
    points_b,
    path_model: str = "refracted",
):
    """Travel times from each ENU point in points_a to each in points_b.

    Vectorized forward model shared with the localization fitness.
    points_a is (N, 3), points_b is (M, 3); returns (tof, ok) with shape
    (N, M). ok=False marks pairs with no direct refracted path (their tof
    entry is meaningless). Agrees with trace_refracted / trace_straight
    to within bisection tolerance.
    """
    a = np.atleast_2d(np.asarray(points_a, float))
    b = np.atleast_2d(np.asarray(points_b, float))
    boundaries = np.asarray(profile.boundaries)
    speeds = np.asarray(profile.sound_speeds)

    z_a = -a[:, 2]
    z_b = -b[:, 2]
    for z, what in ((z_a, "points_a"), (z_b, "points_b")):
        if np.any(z < 0.0) or np.any(z > profile.total_depth):
            raise ValueError(f"{what} contains depths outside the water column")

    horizontal = np.hypot(
        a[:, None, 0] - b[None, :, 0], a[:, None, 1] - b[None, :, 1]
    )
    z_lo = np.minimum(z_a[:, None], z_b[None, :])
    z_hi = np.maximum(z_a[:, None], z_b[None, :])
    dz = _layer_overlaps(boundaries, z_lo, z_hi)
    dz_total = z_hi - z_lo

    # Horizontal pairs: straight run in the containing layer for both models.
    c_flat = _layer_speed_at(boundaries, speeds, z_lo)

    if path_model == "straight":
        chord = np.hypot(horizontal, dz_total)
        slow_sum = (np.where(dz > 0.0, dz / speeds, 0.0)).sum(axis=-1)
        with np.errstate(invalid="ignore", divide="ignore"):
            oblique = chord / dz_total * slow_sum
        tof = np.where(dz_total > 0.0, oblique, horizontal / c_flat)
        return tof, np.ones_like(tof, dtype=bool)

    if path_model != "refracted":
        raise ValueError(f"unknown path model {path_model!r}")

    p, ok = _solve_ray_parameter(dz, speeds, horizontal)
    tof = _tof_of_p(p, dz, speeds)
    tof = np.where(dz_total > 0.0, tof, horizontal / c_flat)
    return tof, ok
