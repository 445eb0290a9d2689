"""Coordinate-transform conformance: goldens transcribed from
/root/reference/tests/test_equi7grid.py:50-117 (rtol 1e-7)."""

import numpy as np
import numpy.testing as nptest
import pytest

from equi7grid_ray import aeqd, api
from equi7grid_ray.errors import GeomOutOfZoneError
from equi7grid_ray.grid import GridSpec

FWD_GOLDENS = [
    # (continent, lon, lat, x, y) -- test_equi7grid.py:50-99
    ("EU", 15.1, 45.3, 5138743.127891, 1307029.157093),
    ("AS", -178.5, 67.75, 7048122.707876, 9238361.594967),
    ("NA", -178.0, 51.75, 3887311.532849, 7756934.345841),
    ("NA", 173.0, 53.0, 3865149.386282, 8432250.89933),
]


@pytest.mark.parametrize("continent,lon,lat,x,y", FWD_GOLDENS)
def test_lonlat_to_xy_goldens(continent, lon, lat, x, y):
    systems = api.get_systems_from_lonlat(lon, lat)
    assert systems[0] == continent
    xc, yc = aeqd.forward(continent, lon, lat)
    nptest.assert_allclose(x, xc)
    nptest.assert_allclose(y, yc)


@pytest.mark.parametrize("continent,lon,lat,x,y", FWD_GOLDENS)
def test_xy_to_lonlat_goldens(continent, lon, lat, x, y):
    lo, la = aeqd.inverse(continent, x, y)
    nptest.assert_allclose(lon, lo)
    nptest.assert_allclose(lat, la)


def test_distortion_on_ellipsoid():
    # test_equi7grid.py:102-108
    k = api.calc_length_distortion_on_ellipsoid(-29.1, 24)
    nptest.assert_almost_equal(k, 1.1432971727108836, decimal=6)


def test_distortion_planar():
    # test_equi7grid.py:111-117
    k = api.calc_length_distortion(
        "AF", 470916.85506916, 8289708.44085851
    )
    nptest.assert_almost_equal(float(k), 1.1432971727108836, decimal=6)


def test_roundtrip_random_global():
    rng = np.random.default_rng(7)
    lon = rng.uniform(-179.9, 179.9, 5000)
    lat = rng.uniform(-89.5, 89.5, 5000)
    for cont in ["AF", "AN", "AS", "EU", "NA", "OC", "SA"]:
        x, y = aeqd.forward(cont, lon, lat)
        lo, la = aeqd.inverse(cont, x, y)
        dlon = np.abs((lo - lon + 180) % 360 - 180) * np.cos(np.radians(lat))
        assert np.nanmax(dlon) < 1e-9
        assert np.nanmax(np.abs(la - lat)) < 1e-9


def test_zone_transition():
    # test_equi7grid.py:405-409
    out = api.lonlat_to_xy(51.12, 61.71)
    assert list(out.keys()) == ["AS"]


def test_zone_transition_buffered():
    # test_equi7grid.py:412-418 (default order -> AS before EU)
    out = api.lonlat_to_xy(51.12, 61.71, GridSpec.standard(buffered=True))
    assert list(out.keys()) == ["AS", "EU"]


def test_zone_transition_order_restricted():
    # test_equi7grid.py:421-428
    with pytest.raises(GeomOutOfZoneError):
        api.lonlat_to_xy(51.12, 61.71, GridSpec.standard(continent_order=["EU"]))


def test_zone_transition_order_buffered():
    # test_equi7grid.py:431-439
    out = api.lonlat_to_xy(
        51.12, 61.71, GridSpec.standard(buffered=True, continent_order=["EU", "AS"])
    )
    assert list(out.keys()) == ["EU", "AS"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_classify_bits_invalid_coordinates():
    """Non-finite rows and rows past +-180 / +-90 get no zone bits, with
    no cast warning; the edge values themselves classify as before."""
    from equi7grid_ray.zones import get_zone_classifier

    zc = get_zone_classifier(False)
    nan, inf = np.nan, np.inf
    lon = np.array([nan, 0.0, 200.0, -200.0, 0.0, 0.0, inf, 10.0, nan, 15.1])
    lat = np.array([0.0, nan, 0.0, 0.0, 95.0, -95.0, 0.0, -inf, nan, 45.3])
    bits = zc.classify_bits(lon, lat)
    assert bits[:-1].tolist() == [0] * 9
    assert bits[-1] == 1 << zc.order.index("EU")
    oc = 1 << zc.order.index("OC")
    edge_lon = np.array([180.0, -180.0, 0.0, 0.0, 180.0, -180.0, 45.0, -120.0])
    edge_lat = np.array([0.0, 0.0, 90.0, -90.0, 90.0, -90.0, 90.0, -90.0])
    assert zc.classify_bits(edge_lon, edge_lat).tolist() == [oc, oc, 0, 0, 0, 0, 0, 0]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("buffered", [False, True])
def test_classify_is_unpacked_classify_bits(buffered):
    """The bool zone matrix is the bit-unpack of the packed kernel on a
    sweep past the valid range with edge, NaN and inf values on each
    axis; invalid rows are in no zone, with no cast warning."""
    from equi7grid_ray.zones import get_zone_classifier

    zc = get_zone_classifier(buffered)
    rng = np.random.default_rng(12)
    special = np.array([180.0, -180.0, 180.05, -180.05, 179.95, -179.95, 90.0, -90.0,
                        90.05, -90.05, 89.95, -89.95, np.nan, np.inf, -np.inf, 0.0])
    sl, sb = np.meshgrid(special, special)
    lon = np.concatenate([rng.uniform(-200.0, 200.0, 100_000), sl.ravel(),
                          rng.uniform(-200.0, 200.0, len(special)), special])
    lat = np.concatenate([rng.uniform(-100.0, 100.0, 100_000), sb.ravel(), special,
                          rng.uniform(-100.0, 100.0, len(special))])
    bits = zc.classify_bits(lon, lat)
    member = zc.classify(lon, lat)
    assert member.dtype == bool and member.shape == (len(lon), len(zc.order))
    want = (bits[:, None] & (1 << np.arange(len(zc.order)))) != 0
    np.testing.assert_array_equal(member, want)
    invalid = ~((np.abs(lon) <= 180.0) & (np.abs(lat) <= 90.0))
    assert invalid.sum() > 15_000
    assert not member[invalid].any() and not bits[invalid].any()
    assert member[~invalid].any(axis=1).mean() > 0.9


def test_geodesic_inverse_coincident_and_equatorial():
    """Special cases the Newton solver cannot represent (advisor round 1):
    coincident endpoints and purely equatorial geodesics must return finite
    closed-form results, not NaN."""
    from equi7grid_ray.geodesic import WGS84_A, geodesic_inverse

    s, a1, a2 = geodesic_inverse(5.0, 5.0, 5.0, 5.0)
    assert s == 0.0 and np.isfinite(a1) and np.isfinite(a2)

    s, a1, a2 = geodesic_inverse(0.0, 0.0, 0.0, 10.0)
    np.testing.assert_allclose(s, WGS84_A * np.radians(10.0), rtol=1e-12)
    assert a1 == 90.0 and a2 == 90.0

    s, a1, a2 = geodesic_inverse(0.0, 20.0, 0.0, 10.0)
    np.testing.assert_allclose(s, WGS84_A * np.radians(10.0), rtol=1e-12)
    assert a1 == -90.0 and a2 == -90.0

    # mixed batch: specials interleaved with a normal pair
    s, a1, a2 = geodesic_inverse([0.0, 10.0], [0.0, 20.0], [0.0, 30.0], [10.0, 40.0])
    assert np.isfinite(s).all() and np.isfinite(a1).all()
    np.testing.assert_allclose(s[0], WGS84_A * np.radians(10.0), rtol=1e-12)


def test_aeqd_forward_at_projection_center():
    """aeqd.forward at the exact AF projection center must return the
    false-easting/northing origin, not NaN (advisor round 1)."""
    from equi7grid_ray.constants import CONTINENTS

    x, y = aeqd.forward("AF", 21.5, 8.5)
    fe, fn = CONTINENTS["AF"].x_0, CONTINENTS["AF"].y_0
    np.testing.assert_allclose([float(x), float(y)], [fe, fn], atol=1e-6)


def test_pixel_to_world_affine_general():
    """General 2x3 affine parity (warp.py:50-75): rotation/shear terms
    honored, round trip through the inverse."""
    from equi7grid_ray.grid import pixel_to_world_coords, tile_geotrans

    def to_pixel(aff, w):  # the 2x2 inverse of the affine
        m = np.array([[aff[0], aff[1]], [aff[3], aff[4]]])
        return np.linalg.solve(m, (w - [aff[2], aff[5]]).T).T

    # GDAL-style tuple for a T6 tile at 500 m: x = ll_x + col*500,
    # y = ul_y - row*500  -> as rasterio Affine (a,b,c,d,e,f)
    gt = tile_geotrans(4_800_000.0, 1_200_000.0, 600_000.0, 500.0)
    aff = (gt[1], gt[2], gt[0], gt[4], gt[5], gt[3])
    px = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1199.5, 333.25]])
    w = pixel_to_world_coords(aff, px)
    np.testing.assert_allclose(w[0], [4_800_000.0, 1_800_000.0])
    np.testing.assert_allclose(w[1], [4_800_500.0, 1_800_000.0])
    np.testing.assert_allclose(w[2], [4_800_000.0, 1_799_500.0])
    back = to_pixel(aff, w)
    np.testing.assert_allclose(back, px, atol=1e-9)

    # sheared/rotated affine (beyond the tile-axis-aligned case)
    aff2 = (10.0, 2.0, 100.0, -1.5, -8.0, 50.0)
    px2 = np.array([[3.0, 7.0], [-2.0, 0.5]])
    w2 = pixel_to_world_coords(aff2, px2)
    np.testing.assert_allclose(w2[0], [3 * 10 + 7 * 2 + 100, 3 * -1.5 + 7 * -8 + 50])
    np.testing.assert_allclose(to_pixel(aff2, w2), px2, atol=1e-12)

    # a trailing (0, 0, 1) row is accepted
    w3 = pixel_to_world_coords(aff2 + (0.0, 0.0, 1.0), px2)
    np.testing.assert_allclose(w3, w2)


@pytest.mark.parametrize("buffered", [False, True])
def test_geopolygon_buckets_equal_per_edge_construction(buffered):
    """The longitude-bucket index equals one ``np.arange(lo, hi + 1)``
    per edge, stable-sorted by bin, for every standard / buffered zone."""
    from equi7grid_ray.sources.zone_build import load_zone_rings
    from equi7grid_ray.zones import GeoPolygon

    for zone, rings in load_zone_rings(buffered=buffered).items():
        p = GeoPolygon(rings)
        lo = np.floor((np.minimum(p.x1, p.x2) - p._x0) / p.bin_width).astype(np.int64)
        hi = np.floor((np.maximum(p.x1, p.x2) - p._x0) / p.bin_width).astype(np.int64)
        idx = np.concatenate([np.full(b - a + 1, k) for k, (a, b) in enumerate(zip(lo, hi))])
        bins = np.concatenate([np.arange(a, b + 1) for a, b in zip(lo, hi)])
        order = np.argsort(bins, kind="stable")
        want_offsets = np.searchsorted(bins[order], np.arange(p._nbins + 1))
        assert p._bucket_edges.dtype == idx.dtype, zone
        np.testing.assert_array_equal(p._bucket_edges, idx[order], err_msg=zone)
        np.testing.assert_array_equal(p._bucket_offsets, want_offsets, err_msg=zone)
