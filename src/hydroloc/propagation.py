"""Direct acoustic paths through a layered column: TOF, loss and pings.

One vectorized kernel gives each direct path's length in every layer.
Travel time, path length and absorption are sums over those lengths in
layer order (TOF = sum of length_i / c_i), so pings and the fitness's
pairwise travel times share one rule. A run's pings and `hydroloc ping`
take the same path sums (ping_paths) and apply the same link rule
(link_budget).

A path that crosses at most one layer is the chord between its
endpoints. A path across two or more layers refracts by the
Snell-Descartes law: the ray parameter p = cos(theta)/c is constant
across layer interfaces, with theta the grazing angle from horizontal.
Newton's method finds the tangent of the ray's angle from vertical in
the fastest crossed layer, in which the horizontal range is concave and
increasing; p and the per-layer lengths both come from that tangent,
which keeps them precise up to grazing.

Positions at module boundaries are ENU (up negative underwater); they
enter the kernel through _pair_paths, which turns them into depths
(positive down, by negation) and horizontal ranges.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .environment import acoustics_profile
from .streams import Stream

__all__ = [
    "ChannelProfile",
    "ChannelConfig",
    "PingMeasurement",
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
# Largest timing jitter, s, the ceiling of gps_noise_sigma (m): the fit's
# squared TOF residuals and its covariance stay far inside the float range.
TOF_NOISE_SIGMA_MAX = 1e6


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
        if self.tof_noise_sigma > TOF_NOISE_SIGMA_MAX:
            raise ValueError(
                f"tof_noise_sigma: must be <= {TOF_NOISE_SIGMA_MAX}, got {self.tof_noise_sigma}"
            )


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
    """The refracted rays that close the horizontal ranges.

    dz is (K, L) per-layer vertical extent, each row crossing two or more
    layers, and ranges (K,) the rows' horizontal ranges, all > 0. Returns
    (lengths, p, ok): the (K, L) per-layer path lengths and the ray
    parameters; rows whose range is not reachable before the ray turns
    get ok=False and p = 0 (their lengths are meaningless).

    Newton's method on u, the tangent of the ray's angle from vertical in
    the fastest crossed layer (speed c_max). With r_i = c_i / c_max,
    range(u) = sum dz_i r_i u / sqrt(1 + (1 - r_i^2) u^2): the fastest
    layer adds dz u and every slower term is concave, so the map is
    concave and increasing. From the straight-line guess R / sum(dz),
    whose range is at most R, no Newton step passes the root, so no
    bracket is needed. Each row stops at its own convergence, so its
    result does not depend on the other rows. From u, without the
    cancellation of 1 - p^2 c^2 near grazing, p = u / (c_max sqrt(1 + u^2))
    and length_i = dz_i sqrt(1 + u^2) / sqrt(1 + (1 - r_i^2) u^2).
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

    secant = np.sqrt(1.0 + u * u)
    lengths = dz * (secant / np.sqrt(1.0 + slow * (u * u)))
    p = u / (c_max * secant)
    return lengths, np.where(ok, p, 0.0)[:, 0], ok[:, 0]


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
    chord; a vertical pair across two or more layers has length dz_i in
    each and p = 0. The lengths and p of any other pair come from the
    ray solve (_solve_ray_parameter); it has no direct ray when closing
    the range needs p c >= 1 - _P_MARGIN in its fastest crossed layer.
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
    refracted = (dz > 0.0).sum(axis=-1) > 1
    chord = np.hypot(horizontal, z_hi - z_lo)
    layer = _layer_at(boundaries, z_lo)

    # The chord rule for every pair, then the solved rays over the bent ones.
    straight = np.where(np.arange(len(speeds)) == layer[..., None], chord[..., None], 0.0)
    lengths = np.where(refracted[..., None], dz, straight)
    p = np.zeros(chord.shape)
    np.divide(horizontal, chord * speeds[layer], out=p, where=chord > 0.0)
    ok = np.ones(p.shape, dtype=bool)
    solve = refracted & (horizontal > 0.0)
    if solve.any():
        lengths[solve], p[solve], ok[solve] = _solve_ray_parameter(
            dz[solve], speeds, horizontal[solve]
        )
    return lengths, dz, p, ok


def _tof(profile: ChannelProfile, lengths: np.ndarray) -> np.ndarray:
    """Travel time (s) along per-layer path lengths (..., L), summed in layer order."""
    return (lengths / np.asarray(profile.sound_speeds)).sum(axis=-1)


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
    direct path exists. The paths are _pair_paths' (1, M) row, so the
    horizontal range is np.hypot of the source-minus-receiver offset.
    """
    _, _, lengths, _, _, ok = _pair_paths(profile, source, receivers)
    lengths, ok = lengths[0], ok[0]
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
    TOF plus tof_noise_sigma times the first normal of Stream(seed),
    drawn only for a detected ping.
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
    tof_measured = float(tof + config.tof_noise_sigma * Stream(seed).standard_normal())
    if tof_measured <= 0.0:
        log.debug("anchor %s at t=%.3f: noisy TOF non-positive", anchor_id, timestamp)
        return None
    return PingMeasurement(anchor_id, tof_measured, snr_db, timestamp)


def _pair_paths(profile: ChannelProfile, points_a, points_b):
    """The kernel's paths from each ENU point in points_a to each in points_b.

    Returns (offset, horizontal, lengths, dz, p, ok): the (N, M, 3)
    offsets a - b, their horizontal ranges and _layer_paths' outputs.
    """
    a = np.atleast_2d(np.asarray(points_a, float))
    b = np.atleast_2d(np.asarray(points_b, float))
    offset = a[:, None, :] - b[None, :, :]
    horizontal = np.hypot(offset[..., 0], offset[..., 1])
    return offset, horizontal, *_layer_paths(profile, -a[:, 2, None], -b[None, :, 2], horizontal)


def pairwise_tof(profile: ChannelProfile, points_a, points_b):
    """Travel times from each ENU point in points_a to each in points_b.

    The forward model of the localization fitness, on the path kernel
    of the pings. points_a is (N, 3), points_b is (M, 3); returns (tof,
    ok) with shape (N, M). ok=False marks pairs with no direct path
    (their tof entry is meaningless). Raises ValueError for a point
    outside the water column.
    """
    _, _, lengths, _, _, ok = _pair_paths(profile, points_a, points_b)
    return _tof(profile, lengths), ok


def tof_jacobian(profile: ChannelProfile, points_a, points_b):
    """pairwise_tof's (tof, ok) plus the TOF gradients at both ends, from one kernel call.

    Returns (tof, ok, jac_a, jac_b): jac_a (N, M, 3) is dT/d(east, north,
    up) at points_a and jac_b at points_b. With p the ray parameter and u
    the horizontal unit vector from the other end, dT/dhorizontal = p u
    (so jac_b's is jac_a's negated). |dT/dup| at an end is the ray's
    vertical slowness dz_i / (length_i c_i) in the layer i it leaves
    that end through, the layer below the shallower end and the layer
    above the deeper one; it is negative at the deeper end. The segment
    lengths come from the solved tangent, so the slowness stays precise
    up to grazing, where sqrt(1 - p^2 c^2) / c would cancel.
    """
    a, b = (np.atleast_2d(np.asarray(points, float)) for points in (points_a, points_b))
    offset, horizontal, lengths, dz, p, ok = _pair_paths(profile, a, b)
    # The ray's vertical slowness in each layer, 0 in the layers it misses.
    slowness = np.divide(dz, lengths, out=np.zeros(lengths.shape), where=lengths > 0.0)
    slowness /= np.asarray(profile.sound_speeds)
    # The first and the last layer it crosses hold its shallower and its deeper end.
    crossed = dz > 0.0
    n_layers = crossed.shape[-1]
    flat, row = slowness.ravel(), np.arange(0, slowness.size, n_layers).reshape(p.shape)
    top = flat[row + crossed.argmax(axis=-1)]
    bottom = flat[row + (n_layers - 1) - crossed[..., ::-1].argmax(axis=-1)]
    along = p / np.where(horizontal > 0.0, horizontal, np.inf)
    jac = np.empty((2,) + p.shape + (3,))
    jac[0, ..., :2] = along[..., None] * offset[..., :2]
    jac[1, ..., :2] = -jac[0, ..., :2]
    # a is the shallower end where it rises above b; a level pair crosses no layer.
    above = offset[..., 2] > 0.0
    jac[0, ..., 2] = np.where(above, top, -bottom)
    jac[1, ..., 2] = np.where(above, -bottom, top)
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
    thickness = z_hi - z_lo
    with np.errstate(invalid="ignore", divide="ignore"):
        harmonic = thickness / _tof(profile, _layer_overlaps(boundaries, z_lo, z_hi))
    local = np.asarray(profile.sound_speeds)[_layer_at(boundaries, z_lo)]
    ranges = tof * np.where(thickness > 0.0, harmonic, local)
    return float(ranges) if ranges.ndim == 0 else ranges
