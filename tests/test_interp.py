"""Gridded-interpolation projector: accuracy bound vs the exact solver
and end-to-end tile-assignment equivalence.

The reference pins coordinate accuracy at assert_allclose rtol=1e-7
(its tests/test_equi7grid.py:50-99), i.e. ~0.6 m at zone scale; the
interpolator must sit orders of magnitude inside that.  The projectors
under test map their grids from the package data files, as every
assigner does."""

import pickle

import numpy as np
import pyarrow as pa

from equi7grid_ray import aeqd, datafiles, interp
from equi7grid_ray.interp import _lagrange_weights, build_zone_projectors
from equi7grid_ray.zones import get_zone_classifier

MAX_ERR_M = 2e-3  # 2 mm interpolation budget (contract is ~0.6 m)


def test_interp_accuracy_all_zones():
    zc = get_zone_classifier(False)
    projs = build_zone_projectors(zc.polys, ["AF", "AS", "EU", "NA", "OC", "SA"])
    rng = np.random.default_rng(7)
    for cont, p in projs.items():
        assert type(p.g) is np.ndarray and isinstance(p.g.base, np.memmap)
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


def test_loaded_grid_bit_equal_to_fresh_solve():
    zc = get_zone_classifier(False)
    projs = build_zone_projectors(zc.polys, ["AF", "AS", "EU", "NA", "OC", "SA"])
    for cont, p in projs.items():
        assert p.g.flags.writeable is False
        assert np.array_equal(p.g.view(np.uint64), p._solve().view(np.uint64)), cont


def test_grid_file_key(tmp_path, monkeypatch):
    """The grid file is keyed by bbox, step and ``_GRID_VERSION``: a
    change to any of them misses it; an unchanged key loads the file
    (bit-equal) instead of solving again."""
    solves = []
    solve = interp.CubicGridProjector._solve

    def counting(self):
        solves.append(1)
        return solve(self)

    monkeypatch.setattr(interp.CubicGridProjector, "_solve", counting)
    monkeypatch.setattr(datafiles, "DATA_DIR", tmp_path)
    monkeypatch.setattr(interp, "_CACHE", {})
    bbox = (10.0, 45.0, 12.0, 47.0)
    a = interp.get_projector("EU", bbox)
    assert len(solves) == 1 and interp.get_projector("EU", bbox) is a
    interp._CACHE.clear()
    b = interp.get_projector("EU", bbox)
    assert len(solves) == 1 and b is not a
    assert np.array_equal(a.g.view(np.uint64), b.g.view(np.uint64))
    interp.get_projector("EU", bbox, step=0.5)
    interp.get_projector("EU", (10.0, 45.0, 12.0, 47.5))
    monkeypatch.setattr(interp, "_GRID_VERSION", interp._GRID_VERSION + 1)
    interp._CACHE.clear()
    interp.get_projector("EU", bbox)
    assert len(solves) == 4
    files = sorted(p.name for p in tmp_path.iterdir())
    assert len(files) == 4 and all(f.startswith("interpgrid_EU_") for f in files)


def test_projector_pickles_by_key(monkeypatch):
    zc = get_zone_classifier(False)
    p = build_zone_projectors(zc.polys, ["EU"])["EU"]
    blob = pickle.dumps(p)
    assert len(blob) < 1_000
    assert pickle.loads(blob) is p
    monkeypatch.setattr(interp, "_CACHE", {})  # as in a fresh process
    q = pickle.loads(blob)
    assert q is not p and np.array_equal(q.g.view(np.uint64), p.g.view(np.uint64))


def test_standard_and_buffered_zones_keep_their_own_grids():
    """The AF and SA bboxes of the standard and buffered zone polygons
    differ by ~1e-11 deg.  Each spec still gets its own grid, so an
    assigner's x/y do not depend on which spec the process loaded first."""
    conts = ["AF", "SA"]
    std = build_zone_projectors(get_zone_classifier(False).polys, conts)
    bfrd = build_zone_projectors(get_zone_classifier(True).polys, conts)
    for c in conts:
        assert np.allclose(std[c].bbox, bfrd[c].bbox, rtol=0, atol=1e-8)
        assert std[c] is not bfrd[c] and std[c].lon0 != bfrd[c].lon0
