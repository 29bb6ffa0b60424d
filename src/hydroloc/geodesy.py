"""WGS84 coordinate transforms: geodetic, ECEF and local ENU frames.

A geodetic position is a GeodeticCoord in degrees, the unit of scenario
files and CLI output; the transforms convert to radians where they take
a sine or a cosine. ECEF and ENU positions are (x, y, z) and (east,
north, up) tuples, in metres. The ENU frame is the local tangent plane
at a stated geodetic origin, x east, y north, z up (negative
underwater).
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

Vec3 = tuple[float, float, float]


@dataclass(frozen=True)
class GeodeticCoord:
    """Latitude/longitude in degrees, height in metres above the ellipsoid."""

    latitude: float
    longitude: float
    height: float = 0.0

    def __post_init__(self) -> None:
        if not -90.0 <= self.latitude <= 90.0:
            raise ValueError(f"latitude: must be within [-90, 90], got {self.latitude}")
        if not -180.0 < self.longitude <= 180.0:
            raise ValueError(f"longitude: must be within (-180, 180], got {self.longitude}")


def geodetic_to_ecef(g: GeodeticCoord) -> Vec3:
    """Closed-form geodetic to ECEF conversion on WGS84."""
    lat, lon = math.radians(g.latitude), math.radians(g.longitude)
    sin_lat = math.sin(lat)
    cos_lat = math.cos(lat)
    n = WGS84_A / math.sqrt(1.0 - WGS84_E2 * sin_lat * sin_lat)
    x = (n + g.height) * cos_lat * math.cos(lon)
    y = (n + g.height) * cos_lat * math.sin(lon)
    z = (n * (1.0 - WGS84_E2) + g.height) * sin_lat
    return x, y, z


def ecef_to_geodetic(e: Vec3) -> GeodeticCoord:
    """ECEF to geodetic by Bowring iteration.

    Iterates until the latitude update falls below 1e-12 rad; round-trips
    with geodetic_to_ecef close within about a micrometre. Longitude at
    the poles is reported as 0 by convention, and on the antimeridian as
    180.
    """
    x, y, z = e
    r = math.hypot(x, y)
    if math.hypot(r, z) < 1e-9:
        raise ValueError("ECEF point is at the geocenter; geodetic coordinates undefined")

    if r < 1e-9:
        # Polar axis: latitude is +/-90 deg, longitude conventionally 0.
        return GeodeticCoord(math.copysign(90.0, z), 0.0, abs(z) - WGS84_B)

    lon = math.degrees(math.atan2(y, x))
    if lon == -180.0:  # atan2(-0.0, x < 0): the antimeridian, kept as 180
        lon = 180.0
    ep2 = (WGS84_A * WGS84_A - WGS84_B * WGS84_B) / (WGS84_B * WGS84_B)
    beta = math.atan2(WGS84_A * z, WGS84_B * r)
    lat = math.atan2(
        z + ep2 * WGS84_B * math.sin(beta) ** 3,
        r - WGS84_E2 * WGS84_A * math.cos(beta) ** 3,
    )
    for _ in range(100):
        beta = math.atan2(WGS84_B * math.sin(lat), WGS84_A * math.cos(lat))
        new_lat = math.atan2(
            z + ep2 * WGS84_B * math.sin(beta) ** 3,
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
        height = z / sin_lat - n * (1.0 - WGS84_E2)
    return GeodeticCoord(math.degrees(lat), lon, height)


def _enu_rotation(origin: GeodeticCoord):
    """Rows of the ECEF->ENU rotation at the origin: east, north, up."""
    lat, lon = math.radians(origin.latitude), math.radians(origin.longitude)
    sin_lat = math.sin(lat)
    cos_lat = math.cos(lat)
    sin_lon = math.sin(lon)
    cos_lon = math.cos(lon)
    east = (-sin_lon, cos_lon, 0.0)
    north = (-sin_lat * cos_lon, -sin_lat * sin_lon, cos_lat)
    up = (cos_lat * cos_lon, cos_lat * sin_lon, sin_lat)
    return east, north, up


def ecef_to_enu(e: Vec3, origin: GeodeticCoord) -> Vec3:
    """Rotate/translate an ECEF point into the local ENU frame at origin."""
    ox, oy, oz = geodetic_to_ecef(origin)
    dx, dy, dz = e[0] - ox, e[1] - oy, e[2] - oz
    east, north, up = _enu_rotation(origin)
    return (
        east[0] * dx + east[1] * dy + east[2] * dz,
        north[0] * dx + north[1] * dy + north[2] * dz,
        up[0] * dx + up[1] * dy + up[2] * dz,
    )


def enu_to_ecef(p: Vec3, origin: GeodeticCoord) -> Vec3:
    """Inverse of ecef_to_enu (transpose rotation plus origin offset)."""
    ox, oy, oz = geodetic_to_ecef(origin)
    east, north, up = _enu_rotation(origin)
    pe, pn, pu = p
    x = east[0] * pe + north[0] * pn + up[0] * pu + ox
    y = east[1] * pe + north[1] * pn + up[1] * pu + oy
    z = east[2] * pe + north[2] * pn + up[2] * pu + oz
    return x, y, z


def geodetic_to_enu(g: GeodeticCoord, origin: GeodeticCoord) -> Vec3:
    return ecef_to_enu(geodetic_to_ecef(g), origin)
