import math

import numpy as np
import pytest

from hydroloc.geodesy import (
    WGS84_A,
    WGS84_B,
    GeodeticCoord,
    ecef_to_enu,
    ecef_to_geodetic,
    enu_to_ecef,
    geodetic_to_ecef,
    geodetic_to_enu,
)


class TestGeodeticCoord:
    def test_degree_constructor_round_trip(self):
        g = ecef_to_geodetic(geodetic_to_ecef(GeodeticCoord(45.5, -122.6, 30.0)))
        assert g.latitude == pytest.approx(45.5)
        assert g.longitude == pytest.approx(-122.6)

    @pytest.mark.parametrize("lat,lon", [(91.0, 0.0), (-91.0, 0.0), (0.0, 181.0)])
    def test_range_validation(self, lat, lon):
        with pytest.raises(ValueError):
            GeodeticCoord(lat, lon)

    @pytest.mark.parametrize(
        "lat,lon,message",
        [
            (-90.5, 0.0, "latitude: must be within [-90, 90], got -90.5"),
            (0.0, -180.0, "longitude: must be within (-180, 180], got -180.0"),
        ],
    )
    def test_range_messages_in_degrees(self, lat, lon, message):
        with pytest.raises(ValueError) as info:
            GeodeticCoord(lat, lon)
        assert str(info.value) == message

    def test_range_ends_accepted(self):
        for lat, lon in [(90.0, 180.0), (-90.0, -179.999999)]:
            assert GeodeticCoord(lat, lon).longitude == lon


class TestGeodeticEcef:
    def test_equator_prime_meridian(self):
        x, y, z = geodetic_to_ecef(GeodeticCoord(0.0, 0.0, 0.0))
        assert x == pytest.approx(WGS84_A, abs=1e-9)
        assert y == pytest.approx(0.0, abs=1e-9)
        assert z == pytest.approx(0.0, abs=1e-9)

    def test_north_pole(self):
        x, y, z = geodetic_to_ecef(GeodeticCoord(90.0, 0.0, 0.0))
        assert x == pytest.approx(0.0, abs=1e-6)
        assert y == pytest.approx(0.0, abs=1e-6)
        assert z == pytest.approx(WGS84_B, abs=1e-6)
        assert z == pytest.approx(6356752.314, abs=1e-3)

    def test_axis_symmetry_with_height(self):
        x, y, z = geodetic_to_ecef(GeodeticCoord(0.0, 90.0, 100.0))
        assert x == pytest.approx(0.0, abs=1e-6)
        assert y == pytest.approx(WGS84_A + 100.0, abs=1e-6)
        assert z == pytest.approx(0.0, abs=1e-6)

    def test_inverse_of_equator_point(self):
        g = ecef_to_geodetic((WGS84_A, 0.0, 0.0))
        assert g.latitude == pytest.approx(0.0, abs=1e-12)
        assert g.longitude == pytest.approx(0.0, abs=1e-12)
        assert g.height == pytest.approx(0.0, abs=1e-6)

    def test_pole_longitude_convention(self):
        g = ecef_to_geodetic((0.0, 0.0, 6356752.314245179))
        assert g.latitude == pytest.approx(90.0, abs=1e-9)
        assert g.longitude == 0.0
        assert g.height == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("y", [0.0, -0.0])
    def test_antimeridian_longitude_is_180(self, y):
        # atan2(-0.0, x < 0) is -pi, which would be -180, outside (-180, 180].
        g = ecef_to_geodetic((-WGS84_A, y, 0.0))
        assert g.longitude == 180.0
        assert g.height == pytest.approx(0.0, abs=1e-6)

    def test_round_trip_mid_latitude(self):
        g = GeodeticCoord(45.5, -122.6, 30.0)
        e = geodetic_to_ecef(g)
        back = geodetic_to_ecef(ecef_to_geodetic(e))
        assert math.dist(e, back) < 1e-6

    def test_round_trip_grid(self):
        for lat in np.linspace(-89.0, 89.0, 13):
            for lon in np.linspace(-179.0, 180.0, 12):
                for h in (-1000.0, 0.0, 10000.0):
                    g = GeodeticCoord(float(lat), float(lon), h)
                    e = geodetic_to_ecef(g)
                    back = geodetic_to_ecef(ecef_to_geodetic(e))
                    assert math.dist(e, back) < 1e-6

    def test_geocenter_rejected(self):
        with pytest.raises(ValueError, match="geocenter"):
            ecef_to_geodetic((0.0, 0.0, 0.0))


class TestEnu:
    origin = GeodeticCoord(41.185, -8.706, 0.0)

    def test_origin_maps_to_zero(self):
        e = geodetic_to_ecef(self.origin)
        east, north, up = ecef_to_enu(e, self.origin)
        assert abs(east) < 1e-9 and abs(north) < 1e-9 and abs(up) < 1e-9

    def test_unit_east_at_equator_is_plus_y(self):
        equator = GeodeticCoord(0.0, 0.0, 0.0)
        x, y, z = enu_to_ecef((1.0, 0.0, 0.0), equator)
        assert x == pytest.approx(WGS84_A, abs=1e-9)
        assert y == pytest.approx(1.0, abs=1e-9)
        assert z == pytest.approx(0.0, abs=1e-9)

    def test_random_round_trips(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            p = tuple(rng.uniform(-5000.0, 5000.0, 3))
            back = ecef_to_enu(enu_to_ecef(p, self.origin), self.origin)
            for axis in range(3):
                assert abs(back[axis] - p[axis]) < 1e-9

    def test_transform_is_rigid(self):
        rng = np.random.default_rng(12)
        pts = [tuple(rng.uniform(-2000.0, 2000.0, 3)) for _ in range(8)]
        ecefs = [enu_to_ecef(p, self.origin) for p in pts]
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                d_enu = math.dist(pts[i], pts[j])
                d_ecef = math.dist(ecefs[i], ecefs[j])
                assert d_ecef == pytest.approx(d_enu, rel=1e-9)

    def test_geodetic_to_enu_of_nearby_point(self):
        # A point 100 m east of the origin on the ellipsoid surface.
        g = ecef_to_geodetic(enu_to_ecef((100.0, 0.0, 0.0), self.origin))
        east, north, up = geodetic_to_enu(g, self.origin)
        assert east == pytest.approx(100.0, abs=1e-6)
        assert north == pytest.approx(0.0, abs=1e-6)
        assert up == pytest.approx(0.0, abs=1e-6)
