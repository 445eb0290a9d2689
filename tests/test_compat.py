"""Reference-API compatibility layer: the call shapes of
/root/reference/tests/test_equi7grid.py work against
equi7grid_ray.compat with the same goldens."""

import numpy as np
import numpy.testing as nptest
import pytest

from equi7grid_ray.compat import allowed_samplings, get_standard_equi7grid


def test_lonlat_to_xy_like_reference():
    grid = get_standard_equi7grid(500)
    x, y = grid.EU.lonlat_to_xy(15.1, 45.3)
    nptest.assert_allclose(float(x), 5138743.127891, rtol=1e-7)
    nptest.assert_allclose(float(y), 1307029.157093, rtol=1e-6)
    lon, lat = grid.EU.xy_to_lonlat(x, y)
    nptest.assert_allclose([float(lon), float(lat)], [15.1, 45.3], rtol=1e-9)


def test_search_tiles_in_roi_like_reference():
    # test_equi7grid.py: ROI listing with full (sampling-carrying) names
    grid = get_standard_equi7grid(500)
    names = [t.name for t in grid.get_tiles_in_geog_bbox((16, 48, 18, 50), "T6")]
    assert names == [
        "EU500M_E048N012T6", "EU500M_E048N018T6",
        "EU500M_E054N012T6", "EU500M_E054N018T6",
    ]
    # global count golden (test_equi7grid.py:293-298)
    n = sum(1 for _ in grid.get_tiles_in_geog_bbox(
        (-179.9, -89.9, 179.9, 89.9), "T6"))
    assert n == 1801


def test_tile_addressing_like_reference():
    grid = get_standard_equi7grid(500)
    # test_equi7grid.py:120-152 call shapes verbatim
    tile = grid.EU.get_tile_from_xy(3245631, 5146545, tiling_id="T6")
    r, c = tile.xy2rc(3166500, 5178000)
    assert (int(r), int(c)) == (444, 333)
    x, y = tile.rc2xy(444, 333)
    assert (x, y) == (3166500.0, 5177500.0)
    x, y = tile.rc2xy(444, 333, px_origin="c")
    assert (x, y) == (3166750.0, 5177750.0)
    tile2 = grid.EU.get_tile_from_xy(4800123, 1200123, tiling_id="T6")
    x, y = tile2.rc2xy(tile2.n_rows - 1, 0, px_origin="ll")
    assert (x, y) == (4800000.0, 1200000.0)
    assert tile.n_rows == 1200 and tile.x_pixel_size == 500.0

    # parent / children round trip with full names
    parent = grid.EU.get_parent_from_name("EU500M_E049N014T1")
    assert parent.name == "EU500M_E048N012T3"
    kids = [t.name for t in grid.EU.get_children_from_name("EU500M_E048N012T6")]
    assert len(kids) == 4 and all(k.endswith("T3") for k in kids)


def test_membership_and_systems():
    grid = get_standard_equi7grid(500)
    assert grid.get_systems_from_lonlat(15.1, 45.3) == ["EU"]
    assert (15.1, 45.3) in grid
    assert grid.system_order[0] == "AF"
    assert grid["EU"] is grid.EU


def test_allowed_samplings_reexport():
    assert 500.0 in allowed_samplings(600_000.0)


def test_continent_order_and_buffered():
    grid = get_standard_equi7grid(500, buffered=True,
                                  continent_order=["EU", "AS"])
    out = grid.lonlat_to_xy(51.12, 61.71)
    assert list(out.keys()) == ["EU", "AS"]


def test_compat_warp_entry_points(ray_session, tmp_path):
    """The reference's test_warp.py call shapes end-to-end through the
    compat facade (warp.py:333,424 signatures): ROI router, filepath
    footprint flavour with accurate_boundary, resample with reference
    kwarg names (zstd->deflate substitution, Resampling-enum-shaped
    object, naming_traffo(filepath, ftilename), n_tasks)."""
    from types import SimpleNamespace

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from equi7grid_ray.compat import (
        Equi7Tile,
        ftilenames_to_tiles,
        get_overlapping_tiles,
        get_standard_equi7grid,
        resample_to_equi7_tiles,
    )
    from equi7grid_ray.gtiff import read_gtiff

    e7grid = get_standard_equi7grid({"T6": 1000})

    # ROI router parity
    tiles = get_overlapping_tiles(
        e7grid, tiling_id="T6", geog_bbox=(16, 48, 18, 50))
    assert len(tiles) == 4 and all(isinstance(t, Equi7Tile) for t in tiles)
    with pytest.raises(ValueError, match="must be set"):
        get_overlapping_tiles(e7grid, tiling_id="T6")
    names = [t.name for t in tiles]
    assert all("1000M_" in n for n in names)
    back = ftilenames_to_tiles(names, e7grid)
    assert [t.name for t in back] == names

    # fixture: one int16 image with a nodata hole (reference ramp shape)
    w = h = 64
    nodata = -9999
    r = np.arange(h)[:, None]
    c = np.arange(w)[None, :]
    img = (c**2 + r**2).astype(np.int16)
    img[h // 2, w // 2] = nodata
    src = tmp_path / "scene.parquet"
    pq.write_table(pa.table({
        "image_id": pa.array(["s1"], pa.string()),
        "bytes": pa.array([img.tobytes()], pa.binary()),
        "w": pa.array([w], pa.int32()),
        "h": pa.array([h], pa.int32()),
        "fmt": pa.array(["raw"], pa.string()),
        "dtype": pa.array(["int16"], pa.string()),
        "lon": pa.array([15.0], pa.float64()),
        "lat": pa.array([47.5], pa.float64()),
    }), src)

    # filepath flavour + accurate boundary
    ftiles = get_overlapping_tiles(
        e7grid, tiling_id="T6", filepath=src, accurate_boundary=True)
    assert len(ftiles) >= 1

    # reference resample call shape (test_warp.py:134-143).  The traffo
    # runs inside the encode actors, so parity is asserted on the
    # written filenames (reference semantics: naming_traffo(filepath,
    # ftilename) -> file name)
    def traffo(fp, ftile):
        assert str(fp).endswith("scene.parquet")
        return f"V9_{ftile}.tif"

    out = tmp_path / "out"
    paths = resample_to_equi7_tiles(
        src,
        e7grid,
        out,
        tiling_id="T6",
        accurate_boundary=True,
        compress_type="zstd",  # documented deflate substitution
        resampling_type=SimpleNamespace(name="bilinear"),
        image_nodata=nodata,
        naming_traffo=traffo,
        tif_is_tiled=True,
        tile_blocksize=256,
        n_tasks=2,
    )
    assert paths and all(str(p).endswith(".tif") for p in paths)
    for p in paths:
        cont, tile = p.parent.parent.name.removeprefix("EQUI7_"), p.parent.name
        assert p.name == f"V9_{cont}_{tile}.tif"
    g = read_gtiff(paths[0])
    assert g.array.dtype == np.int16 and g.nodata == nodata
    assert g.tiled and g.compression == 8  # deflate substitution
    assert (g.array != nodata).sum() > 0

    # unsupported knobs gate honestly
    with pytest.raises(NotImplementedError):
        resample_to_equi7_tiles(src, e7grid, out, band=2)
    with pytest.raises(NotImplementedError):
        resample_to_equi7_tiles(src, e7grid, out, tile_scale=2.0)
    with pytest.raises(ValueError, match="compress_type"):
        resample_to_equi7_tiles(src, e7grid, out, compress_type="jpeg2000")


def test_compat_resample_from_geotiff_verbatim_reference_flow(
        ray_session, tmp_path):
    """The reference's test_reprojecting_lonlat_continuous flow
    VERBATIM (test_warp.py:43-80, 127-177): the int16 w^2+h^2 ramp is
    written as an ACTUAL GeoTIFF file, resampled through the compat
    facade under the reference's kwargs, and must land in exactly the 4
    documented tiles with the documented file names."""
    import numpy as np

    from equi7grid_ray.compat import (
        get_overlapping_tiles,
        get_standard_equi7grid,
        resample_to_equi7_tiles,
    )
    from equi7grid_ray.gtiff import read_gtiff, write_gtiff

    extent, sampling, nodata = (50, 60.7, 51.2, 63.2), 0.1, -9999
    w = int((extent[2] - extent[0]) / sampling)
    h = int((extent[3] - extent[1]) / sampling)
    w_ar, h_ar = np.meshgrid(np.arange(w), np.arange(h))
    ar = (w_ar**2 + h_ar**2).astype(np.int16)
    ar[h // 2, w // 2] = nodata
    tif = tmp_path / "lonlat_img_continuous.tif"
    write_gtiff(tif, ar, crs=4326, nodata=nodata,
                geotrans=(extent[0], sampling, 0.0, extent[3], 0.0,
                          -sampling))

    e7grid = get_standard_equi7grid({"T6": 1000})
    # filepath ROI flavour over the real GeoTIFF
    tiles = get_overlapping_tiles(e7grid, tiling_id="T6", filepath=tif)
    assert len(tiles) >= 4

    out = tmp_path / "out"
    paths = resample_to_equi7_tiles(
        tif,
        e7grid,
        out,
        tiling_id="T6",
        accurate_boundary=True,
        compress_type="zstd",
        resampling_type="bilinear",
    )
    got = {(p.parent.parent.name.removeprefix("EQUI7_"), p.parent.name)
           for p in paths}
    assert got == {  # reference test_warp.py:144-173
        ("AS", "E018N072T6"), ("AS", "E018N066T6"),
        ("EU", "E066N030T6"), ("EU", "E072N030T6"),
    }
    for p in paths:
        c, t = p.parent.parent.name.removeprefix("EQUI7_"), p.parent.name
        # reference default naming: {stem}_{CONT}_{TILE}.tif
        assert p.name == f"lonlat_img_continuous_{c}_{t}.tif"
        g = read_gtiff(p)
        assert g.array.shape == (600, 600) and g.array.dtype == np.int16
        assert g.nodata == nodata
        assert (g.array != nodata).sum() > 500


def test_compat_resample_webmercator_geotiff_verbatim(ray_session, tmp_path):
    """Reference test_reprojecting_webmercator_discrete_eu flow
    (test_warp.py:84-124, 212-260) from an ACTUAL EPSG:3857 GeoTIFF:
    uint8 classes at 10 km/px, nearest, EU-only T6@10000 -> exactly the
    4 documented EU tiles."""
    import numpy as np

    from equi7grid_ray.compat import (
        get_standard_equi7grid,
        resample_to_equi7_tiles,
    )
    from equi7grid_ray.gtiff import read_gtiff, write_gtiff

    extent = (4_900_000.0, 7_810_000.0, 6_180_000.0, 8_750_000.0)
    sampling, nodata = 10_000.0, 255
    w = int((extent[2] - extent[0]) / sampling)
    h = int((extent[3] - extent[1]) / sampling)
    w_ar, h_ar = np.meshgrid(np.arange(w), np.arange(h))
    q = (w_ar**2 + h_ar**2).astype(np.int64)
    ar = np.zeros((h, w), np.uint8)
    ar[(q >= (w + h)) & (q < (w**2 + h))] = 1
    ar[q >= (w**2 + h)] = 2
    ar[h // 4, w // 4] = nodata
    tif = tmp_path / "webmercator_img_discrete.tif"
    write_gtiff(tif, ar, crs=3857, nodata=nodata,
                geotrans=(extent[0], sampling, 0.0, extent[3], 0.0,
                          -sampling))

    e7grid_eu_coarse = get_standard_equi7grid({"T6": 10_000},
                                              continent_order=["EU"])
    out = tmp_path / "out"
    paths = resample_to_equi7_tiles(
        tif,
        e7grid_eu_coarse,
        out,
        tiling_id="T6",
        accurate_boundary=True,
        compress_type="zstd",
        resampling_type="nearest",
    )
    got = {(p.parent.parent.name.removeprefix("EQUI7_"), p.parent.name)
           for p in paths}
    assert got == {  # reference test_warp.py:230-260
        ("EU", "E066N030T6"), ("EU", "E072N030T6"),
        ("EU", "E066N024T6"), ("EU", "E072N024T6"),
    }
    for p in paths:
        g = read_gtiff(p)
        assert g.array.shape == (60, 60) and g.array.dtype == np.uint8
        assert set(np.unique(g.array)) <= {0, 1, 2, nodata}


def test_compat_resample_one_file_warps_only_that_file(ray_session, tmp_path):
    """Given one parquet file, the compat warp leaves its sibling files
    alone and returns only the tiles of this call's fragment, not those
    of earlier calls into the same output directory."""
    import pyarrow.parquet as pq

    from equi7grid_ray.compat import resample_to_equi7_tiles
    from equi7grid_ray.sources.images import make_batch

    e7grid = get_standard_equi7grid({"T6": 1000})
    src = tmp_path / "imgs"
    src.mkdir()
    pq.write_table(make_batch(0, 3), src / "a.parquet")
    pq.write_table(make_batch(3, 3), src / "b.parquet")
    out = tmp_path / "out"

    paths_a = resample_to_equi7_tiles(src / "a.parquet", e7grid, out, compress_type="deflate")
    assert paths_a and all(p.is_relative_to(out / "part-a") for p in paths_a)
    assert not (out / "part-b").exists()

    paths_b = resample_to_equi7_tiles(src / "b.parquet", e7grid, out, compress_type="deflate")
    assert paths_b and all(p.is_relative_to(out / "part-b") for p in paths_b)
