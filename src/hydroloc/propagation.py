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
p comes from Newton's method on the tangent of the ray's angle from
vertical in the fastest crossed layer, in which the horizontal range is
concave and increasing.

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
    "snr",
    "link_budget",
    "ping_paths",
    "simulate_ping",
    "pairwise_tof",
    "tof_jacobian",
    "range_from_tof",
]

log = logging.getLogger(__name__)

# A range is reachable when the ray closes it with p*c <= 1 - _P_MARGIN in
# the fastest traversed layer; a longer range means the ray would turn.
_P_MARGIN = 1e-9
# Cap on the Newton steps of the ray-parameter solve, which reaches float64
# resolution in a few.
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
    absorbed: float       # dB, absorption along the path


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
    ok=False and p = 0.

    Newton's method on u, the tangent of the ray's angle from vertical in
    the fastest crossed layer (speed c_max). With r_i = c_i / c_max,
    range(u) = sum dz_i r_i u / sqrt(1 + (1 - r_i^2) u^2): the fastest
    layer adds dz u and every slower term is concave, so the map is
    concave and increasing. From the straight-line guess R / sum(dz),
    whose range is at most R, no Newton step passes the root, so no
    bracket is needed. Each row stops at its own convergence, so its p
    does not depend on the other rows. p = u / (c_max sqrt(1 + u^2)).
    """
    # Non-traversed layers get r = 0, so their terms vanish (dz is 0 there too).
    c_eff = np.where(dz > 0.0, speeds, 0.0)
    c_max = c_eff.max(axis=-1, keepdims=True)
    dzr = dz * (c_eff / c_max)
    # 1 - r^2 without cancellation for speeds close to c_max.
    slow = (c_max - c_eff) * (c_max + c_eff) / (c_max * c_max)
    ranges = ranges[:, None]

    def range_and_slope(u):
        w = 1.0 / np.sqrt(1.0 + slow * (u * u))
        term = dzr * w
        x = term.sum(axis=-1, keepdims=True) * u
        term *= w
        term *= w
        return x, term.sum(axis=-1, keepdims=True)

    s_cap = 1.0 - _P_MARGIN
    u_cap = s_cap / math.sqrt((1.0 - s_cap) * (1.0 + s_cap))
    ok = range_and_slope(u_cap)[0] >= ranges

    # The straight-line guess, capped so that far unreachable rows stay finite
    # (no reachable row starts above u_cap).
    u = np.minimum(ranges / dz.sum(axis=-1, keepdims=True), u_cap)
    active = ok.copy()
    for _ in range(_NEWTON_STEPS):
        x, slope = range_and_slope(u)
        step = (ranges - x) / slope
        np.add(u, step, out=u, where=active)
        # Steps are >= 0 until the row converges (Newton from below).
        active &= step > 1e-14 * u
        if not active.any():
            break

    p = u / (c_max * np.sqrt(1.0 + u * u))
    return np.where(ok, p, 0.0)[:, 0], ok[:, 0]


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
    length_i = dz_i / sqrt(1 - p^2 c_i^2), with p closing the range
    (_solve_ray_parameter); it has no direct ray when closing the range
    needs p c >= 1 - _P_MARGIN in its fastest crossed layer.
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


def _absorbed(profile: ChannelProfile, lengths: np.ndarray) -> np.ndarray:
    """Absorption (dB) along per-layer path lengths (..., L), summed in layer order."""
    return (np.asarray(profile.absorption) * 1e-3 * lengths).sum(axis=-1)


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
    parameter p = cos(theta_i)/c_i, found by Newton's method on the
    monotone map from the ray's tangent to horizontal range. Raises
    NoDirectPathError when the requested range cannot be closed before
    the ray turns.
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
        absorbed=float(_absorbed(profile, lengths)),
    )


def _loss_db(total_length: float, absorbed: float) -> float | None:
    """Spherical spreading relative to 1 m plus the absorption along the path, dB.

    None below the 1 m reference distance, where the model has no loss.
    """
    if total_length < _REFERENCE_DISTANCE:
        return None
    return 20.0 * math.log10(total_length) + absorbed


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
        _absorbed(profile, lengths),
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


def _pair_paths(profile: ChannelProfile, points_a, points_b):
    """The kernel's paths from each ENU point in points_a to each in points_b.

    Returns (offset, horizontal, lengths, p, ok): the (N, M, 3) offsets
    a - b, their horizontal ranges and _layer_paths' outputs.
    """
    a = np.atleast_2d(np.asarray(points_a, float))
    b = np.atleast_2d(np.asarray(points_b, float))
    offset = a[:, None, :] - b[None, :, :]
    horizontal = np.hypot(offset[..., 0], offset[..., 1])
    lengths, _, p, ok = _layer_paths(profile, -a[:, 2, None], -b[None, :, 2], horizontal)
    return offset, horizontal, lengths, p, ok


def pairwise_tof(profile: ChannelProfile, points_a, points_b):
    """Travel times from each ENU point in points_a to each in points_b.

    The forward model of the localization fitness, on the path kernel
    of the pings. points_a is (N, 3), points_b is (M, 3); returns (tof,
    ok) with shape (N, M). ok=False marks pairs with no direct path
    (their tof entry is meaningless). Raises ValueError for a point
    outside the water column.
    """
    _, _, lengths, _, ok = _pair_paths(profile, points_a, points_b)
    return _tof(profile, lengths), ok


def tof_jacobian(profile: ChannelProfile, points_a, points_b):
    """pairwise_tof's (tof, ok) plus the TOF gradients at both ends, from one kernel call.

    Returns (tof, ok, jac_a, jac_b): jac_a (N, M, 3) is dT/d(east, north,
    up) at points_a and jac_b at points_b. With p the ray parameter, c
    the speed at an end and u the horizontal unit vector from the other
    end: dT/dhorizontal = p u (so jac_b's is jac_a's negated), and
    |dT/dup| = sqrt(1 - p^2 c^2) / c, negative at the deeper end.
    """
    a, b = (np.atleast_2d(np.asarray(points, float)) for points in (points_a, points_b))
    offset, horizontal, lengths, p, ok = _pair_paths(profile, a, b)
    # The speeds at both ends, a's then b's, from one layer lookup.
    ends_up = np.concatenate([a[:, 2], b[:, 2]])
    c = np.asarray(profile.sound_speeds)[_layer_at(np.asarray(profile.boundaries), -ends_up)]
    c_ends = np.empty((2,) + p.shape)
    c_ends[0], c_ends[1] = c[:len(a), None], c[None, len(a):]
    sin_c = np.sqrt(np.maximum(1.0 - (p * c_ends) ** 2, 0.0)) / c_ends
    rise = offset[..., 2]
    vertical = np.where(rise > 0.0, sin_c, np.where(rise < 0.0, -sin_c, 0.0))
    along = p / np.where(horizontal > 0.0, horizontal, np.inf)
    jac = np.empty(c_ends.shape + (3,))
    jac[0, ..., :2] = along[..., None] * offset[..., :2]
    jac[1, ..., :2] = -jac[0, ..., :2]
    jac[0, ..., 2], jac[1, ..., 2] = vertical[0], -vertical[1]
    return _tof(profile, lengths), ok, jac[0], jac[1]


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
