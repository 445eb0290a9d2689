"""Gridded-interpolation projector: accuracy bound vs the exact solver
and end-to-end tile-assignment equivalence.

The reference pins coordinate accuracy at assert_allclose rtol=1e-7
(its tests/test_equi7grid.py:50-99), i.e. ~0.6 m at zone scale; the
interpolator must sit orders of magnitude inside that."""

import numpy as np
import pyarrow as pa

from equi7grid_ray import aeqd
from equi7grid_ray.interp import _lagrange_weights, build_zone_projectors
from equi7grid_ray.zones import get_zone_classifier

MAX_ERR_M = 2e-3  # 2 mm interpolation budget (contract is ~0.6 m)


def test_interp_accuracy_all_zones():
    zc = get_zone_classifier(False)
    projs = build_zone_projectors(zc.polys, ["AF", "AS", "EU", "NA", "OC", "SA"])
    rng = np.random.default_rng(7)
    for cont, p in projs.items():
        poly = zc.polys[cont]
        lon = rng.uniform(poly.bbox[0], poly.bbox[2], 100_000)
        lat = rng.uniform(poly.bbox[1], poly.bbox[3], 100_000)
        m = zc.contains(cont, lon, lat)
        lon, lat = lon[m], lat[m]
        xe, ye = aeqd.forward(cont, lon, lat)
        xi, yi = p(lon, lat)
        err = np.hypot(xi - xe, yi - ye)
        assert err.max() < MAX_ERR_M, (cont, err.max())


def test_interp_matches_reference_accuracy_contract():
    """The interpolated forward passes the reference's own golden
    tolerance on its pinned coordinates."""
    zc = get_zone_classifier(False)
    projs = build_zone_projectors(zc.polys, ["EU", "NA", "AF"])
    # EU golden: test_equi7grid.py:50-56
    x, y = projs["EU"](np.array([15.1]), np.array([45.3]))
    np.testing.assert_allclose(x, 5138743.127891, rtol=1e-7)
    np.testing.assert_allclose(y, 1307029.157093, rtol=1e-6)


def test_tile_assignment_identical_interp_vs_exact():
    from equi7grid_ray.stages.tile_assign import TileAssigner

    rng = np.random.default_rng(11)
    n = 50_000
    lon = rng.uniform(-180.0, 180.0, n)
    lat = rng.uniform(-90.0, 90.0, n)
    batch = pa.table(
        {
            "image_id": pa.array(np.arange(n, dtype=np.int64)),
            "lon": pa.array(lon),
            "lat": pa.array(lat),
        }
    )
    def canon(t: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "image_id": t.column("image_id"),
                "tile": t.column("tile").cast(pa.string()),
                "covers_land": t.column("covers_land"),
            }
        )
        return t.sort_by([("image_id", "ascending"), ("tile", "ascending")])

    fast = canon(TileAssigner(decode=False, emit_cell=False, emit_xy=False)(batch))
    exact = canon(
        TileAssigner(
            decode=False, emit_cell=False, emit_xy=False, exact_projection=True
        )(batch)
    )
    assert fast.num_rows == exact.num_rows
    assert fast.column("tile").equals(exact.column("tile"))
    assert fast.column("covers_land").equals(exact.column("covers_land"))


def test_tile_assignment_identical_buffered_spec():
    """Interp-vs-exact identity also holds under the buffered grid spec
    (bigger zone polygons -> bigger interpolation grids)."""
    from equi7grid_ray.grid import GridSpec
    from equi7grid_ray.stages.tile_assign import TileAssigner

    spec = GridSpec.standard(buffered=True)
    rng = np.random.default_rng(13)
    n = 20_000
    batch = pa.table({
        "image_id": pa.array(np.arange(n, dtype=np.int64)),
        "lon": pa.array(rng.uniform(-180, 180, n)),
        "lat": pa.array(rng.uniform(-90, 90, n)),
    })

    def canon(t):
        t = pa.table({
            "image_id": t.column("image_id"),
            "tile": t.column("tile").cast(pa.string()),
        })
        return t.sort_by([("image_id", "ascending"), ("tile", "ascending")])

    fast = canon(TileAssigner(spec=spec, decode=False, emit_cell=False,
                              emit_xy=False)(batch))
    exact = canon(TileAssigner(spec=spec, decode=False, emit_cell=False,
                               emit_xy=False, exact_projection=True)(batch))
    assert fast.num_rows == exact.num_rows
    assert fast.column("tile").equals(exact.column("tile"))


def _separate_xy_kernel(p, lon, lat):
    """The projector as a separate-x/y 2-D Lagrange kernel: exact-band
    rows through ``aeqd.forward``, every other row interpolated tap row
    by tap row on (nlat, nlon) x and y grids."""
    gx = p.g.real.reshape(p.nlat, p.nlon)
    gy = p.g.imag.reshape(p.nlat, p.nlon)
    far = np.abs((lon - p._far_lon + 180.0) % 360.0 - 180.0) < p.EXACT_FAR_LON_BAND
    polar = (np.abs(lat) > p.EXACT_LAT) | far
    x = np.empty_like(lon)
    y = np.empty_like(lon)
    x[polar], y[polar] = aeqd.forward(p.continent, lon[polar], lat[polar])
    lo, la = lon[~polar], lat[~polar]
    t = (lo - p.lon0) / p.step
    u = (la - p.lat0) / p.step
    it = np.clip(t.astype(np.int64), 1, p.nlon - 3)
    iu = np.clip(u.astype(np.int64), 1, p.nlat - 3)
    wt = _lagrange_weights(t - it)
    wu = _lagrange_weights(u - iu)
    xr = np.zeros_like(t)
    yr = np.zeros_like(t)
    c = it - 1
    for a in range(4):
        rows = iu - 1 + a
        rx = (wt[0] * gx[rows, c] + wt[1] * gx[rows, c + 1]
              + wt[2] * gx[rows, c + 2] + wt[3] * gx[rows, c + 3])
        ry = (wt[0] * gy[rows, c] + wt[1] * gy[rows, c + 1]
              + wt[2] * gy[rows, c + 2] + wt[3] * gy[rows, c + 3])
        xr += wu[a] * rx
        yr += wu[a] * ry
    x[~polar], y[~polar] = xr, yr
    return x, y


def test_complex_gather_kernel_bit_equal_to_separate_xy_kernel():
    """One complex gather per tap gives the same bits as gathering x and
    y separately, on in-zone points and inside both exact bands."""
    zc = get_zone_classifier(False)
    projs = build_zone_projectors(zc.polys, ["AF", "AS", "EU", "NA", "OC", "SA"])
    rng = np.random.default_rng(5)
    for cont, p in projs.items():
        assert np.isfinite(p.g).all()
        x0, y0, x1, y1 = zc.polys[cont].bbox
        lon = rng.uniform(x0, x1, 100_000)
        lat = rng.uniform(y0, y1, 100_000)
        m = zc.contains(cont, lon, lat)
        n = 2_000
        band_lon = p._far_lon + rng.uniform(-2.0, 2.0, n)
        band_lon = (band_lon + 180.0) % 360.0 - 180.0
        pole = rng.choice([-1.0, 1.0], n) * rng.uniform(89.0, 90.0, n)
        lon = np.concatenate([lon[m], band_lon, rng.uniform(x0, x1, n)])
        lat = np.concatenate([lat[m], rng.uniform(y0, y1, n), pole])
        got_x, got_y = p(lon, lat)
        want_x, want_y = _separate_xy_kernel(p, lon, lat)
        for got, want in ((got_x, want_x), (got_y, want_y)):
            got = np.ascontiguousarray(got)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), cont
