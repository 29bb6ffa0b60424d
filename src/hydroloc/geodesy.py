"""WGS84 coordinate transforms: geodetic, ECEF and local ENU frames.

Angles are radians internally; scenario files and CLI output use degrees.
The ENU frame is the local tangent plane at a stated geodetic origin,
x east, y north, z up (negative underwater).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "WGS84_A",
    "WGS84_F",
    "WGS84_B",
    "WGS84_E2",
    "GeodeticCoord",
    "EcefCoord",
    "EnuCoord",
    "geodetic_to_ecef",
    "ecef_to_geodetic",
    "ecef_to_enu",
    "enu_to_ecef",
    "geodetic_to_enu",
]

WGS84_A = 6378137.0                 # semi-major axis, m
WGS84_F = 1.0 / 298.257223563       # flattening
WGS84_B = WGS84_A * (1.0 - WGS84_F)  # semi-minor axis, m
WGS84_E2 = WGS84_F * (2.0 - WGS84_F)  # first eccentricity squared

_LAT_TOL = 1e-12  # rad, iteration stop for the inverse transform


@dataclass(frozen=True)
class GeodeticCoord:
    """Latitude/longitude in radians, height in metres above the ellipsoid."""

    latitude: float
    longitude: float
    height: float = 0.0

    def __post_init__(self) -> None:
        if not -math.pi / 2 <= self.latitude <= math.pi / 2:
            raise ValueError(f"latitude must be within [-pi/2, pi/2], got {self.latitude}")
        if not -math.pi < self.longitude <= math.pi:
            raise ValueError(f"longitude must be within (-pi, pi], got {self.longitude}")

    @classmethod
    def from_degrees(cls, latitude: float, longitude: float, height: float = 0.0) -> "GeodeticCoord":
        return cls(math.radians(latitude), math.radians(longitude), height)

    @property
    def latitude_deg(self) -> float:
        return math.degrees(self.latitude)

    @property
    def longitude_deg(self) -> float:
        return math.degrees(self.longitude)


@dataclass(frozen=True)
class EcefCoord:
    """Earth-centered, earth-fixed cartesian position, metres."""

    x: float
    y: float
    z: float


@dataclass(frozen=True)
class EnuCoord:
    """East-north-up offset from a geodetic origin, metres."""

    east: float
    north: float
    up: float


def geodetic_to_ecef(g: GeodeticCoord) -> EcefCoord:
    """Closed-form geodetic to ECEF conversion on WGS84."""
    sin_lat = math.sin(g.latitude)
    cos_lat = math.cos(g.latitude)
    n = WGS84_A / math.sqrt(1.0 - WGS84_E2 * sin_lat * sin_lat)
    x = (n + g.height) * cos_lat * math.cos(g.longitude)
    y = (n + g.height) * cos_lat * math.sin(g.longitude)
    z = (n * (1.0 - WGS84_E2) + g.height) * sin_lat
    return EcefCoord(x, y, z)


def ecef_to_geodetic(e: EcefCoord) -> GeodeticCoord:
    """ECEF to geodetic by Bowring iteration.

    Iterates until the latitude update falls below 1e-12 rad; round-trips
    with geodetic_to_ecef close within about a micrometre. Longitude at
    the poles is reported as 0 by convention.
    """
    r = math.hypot(e.x, e.y)
    if math.hypot(r, e.z) < 1e-9:
        raise ValueError("ECEF point is at the geocenter; geodetic coordinates undefined")

    if r < 1e-9:
        # Polar axis: latitude is +/-90 deg, longitude conventionally 0.
        lat = math.copysign(math.pi / 2, e.z)
        return GeodeticCoord(lat, 0.0, abs(e.z) - WGS84_B)

    lon = math.atan2(e.y, e.x)
    ep2 = (WGS84_A * WGS84_A - WGS84_B * WGS84_B) / (WGS84_B * WGS84_B)
    beta = math.atan2(WGS84_A * e.z, WGS84_B * r)
    lat = math.atan2(
        e.z + ep2 * WGS84_B * math.sin(beta) ** 3,
        r - WGS84_E2 * WGS84_A * math.cos(beta) ** 3,
    )
    for _ in range(100):
        beta = math.atan2(WGS84_B * math.sin(lat), WGS84_A * math.cos(lat))
        new_lat = math.atan2(
            e.z + ep2 * WGS84_B * math.sin(beta) ** 3,
            r - WGS84_E2 * WGS84_A * math.cos(beta) ** 3,
        )
        done = abs(new_lat - lat) < _LAT_TOL
        lat = new_lat
        if done:
            break

    sin_lat = math.sin(lat)
    cos_lat = math.cos(lat)
    n = WGS84_A / math.sqrt(1.0 - WGS84_E2 * sin_lat * sin_lat)
    if abs(lat) < math.pi / 4:
        height = r / cos_lat - n
    else:
        height = e.z / sin_lat - n * (1.0 - WGS84_E2)
    return GeodeticCoord(lat, lon, height)


def _enu_rotation(origin: GeodeticCoord):
    """Rows of the ECEF->ENU rotation at the origin: east, north, up."""
    sin_lat = math.sin(origin.latitude)
    cos_lat = math.cos(origin.latitude)
    sin_lon = math.sin(origin.longitude)
    cos_lon = math.cos(origin.longitude)
    east = (-sin_lon, cos_lon, 0.0)
    north = (-sin_lat * cos_lon, -sin_lat * sin_lon, cos_lat)
    up = (cos_lat * cos_lon, cos_lat * sin_lon, sin_lat)
    return east, north, up


def ecef_to_enu(e: EcefCoord, origin: GeodeticCoord) -> EnuCoord:
    """Rotate/translate an ECEF point into the local ENU frame at origin."""
    o = geodetic_to_ecef(origin)
    dx, dy, dz = e.x - o.x, e.y - o.y, e.z - o.z
    east, north, up = _enu_rotation(origin)
    return EnuCoord(
        east[0] * dx + east[1] * dy + east[2] * dz,
        north[0] * dx + north[1] * dy + north[2] * dz,
        up[0] * dx + up[1] * dy + up[2] * dz,
    )


def enu_to_ecef(p: EnuCoord, origin: GeodeticCoord) -> EcefCoord:
    """Inverse of ecef_to_enu (transpose rotation plus origin offset)."""
    o = geodetic_to_ecef(origin)
    east, north, up = _enu_rotation(origin)
    x = east[0] * p.east + north[0] * p.north + up[0] * p.up + o.x
    y = east[1] * p.east + north[1] * p.north + up[1] * p.up + o.y
    z = east[2] * p.east + north[2] * p.north + up[2] * p.up + o.z
    return EcefCoord(x, y, z)


def geodetic_to_enu(g: GeodeticCoord, origin: GeodeticCoord) -> EnuCoord:
    return ecef_to_enu(geodetic_to_ecef(g), origin)
