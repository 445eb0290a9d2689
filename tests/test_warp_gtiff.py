"""End-to-end GeoTIFF warp parity with the reference's approval tests
(/root/reference/tests/test_warp.py:127-231): the int16 w^2+h^2 ramp
fixture reprojected to T6@1000m must land in EXACTLY the reference's
four tiles (AS_E018N072T6, AS_E018N066T6, EU_E066N030T6, EU_E072N030T6),
written as one GeoTIFF per tile in the EQUI7_{continent}/{tilename}/
layout, with the tile geotransform, the continental CRS and nodata
propagation; pixel values are cross-checked against an independent
scalar reprojection."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from equi7grid_ray import aeqd
from equi7grid_ray.grid import GridSpec
from equi7grid_ray.gtiff import read_gtiff
from equi7grid_ray.pipelines.warp import resample_to_equi7_tiles

# the reference fixture (test_warp.py:43-80): extent (50, 60.7, 51.2,
# 63.2) at 0.1 deg/px, int16 ramp w^2+h^2, nodata -9999 at the center
EXTENT = (50.0, 60.7, 51.2, 63.2)
RES = 0.1
NODATA = -9999


def _ramp_fixture(tmp_path):
    w = int((EXTENT[2] - EXTENT[0]) / RES)
    h = int((EXTENT[3] - EXTENT[1]) / RES)
    w_ar, h_ar = np.meshgrid(np.arange(w), np.arange(h))
    ar = (w_ar**2 + h_ar**2).astype(np.int16)
    ar[h // 2, w // 2] = NODATA
    src = tmp_path / "in"
    src.mkdir()
    t = pa.table({
        "image_id": pa.array([1], pa.int64()),
        "lon": pa.array([(EXTENT[0] + EXTENT[2]) / 2.0]),
        "lat": pa.array([(EXTENT[1] + EXTENT[3]) / 2.0]),
        "w": pa.array([w], pa.int32()),
        "h": pa.array([h], pa.int32()),
        "fmt": pa.array(["raw"]),
        "dtype": pa.array(["int16"]),
        "bands": pa.array([1], pa.int32()),
        "bytes": pa.array([ar.tobytes()], pa.binary()),
    })
    pq.write_table(t, src / "lonlat_img_continuous.parquet")
    return src, ar


REF_TILES = {  # reference test_warp.py:144-173 expected outputs
    ("AS", "E018N072T6"), ("AS", "E018N066T6"),
    ("EU", "E066N030T6"), ("EU", "E072N030T6"),
}


@pytest.fixture(scope="module")
def spec():
    return GridSpec.standard({"T6": 1000})


def _run(tmp_path, spec, **kw):
    src, ar = _ramp_fixture(tmp_path)
    out = tmp_path / "out"
    resample_to_equi7_tiles(
        str(src), str(out), tiling_id="T6", spec=spec,
        resampling="bilinear", out_format="gtiff", nodata=NODATA,
        src_res=RES, **kw,
    )
    files = sorted(out.glob("part-*/EQUI7_*/*/*.tif"))
    return out, ar, files


def test_reprojecting_lonlat_continuous(ray_session, tmp_path, spec):
    out, ar, files = _run(tmp_path, spec)
    got = {(f.parent.parent.name.removeprefix("EQUI7_"), f.parent.name)
           for f in files}
    assert got == REF_TILES  # exactly the reference's 4 approval tiles
    # file naming parity: {stem}_{CONT}_{TILE}.tif (warp.py:185-201)
    for f in files:
        c, t = f.parent.parent.name.removeprefix("EQUI7_"), f.parent.name
        assert f.name.endswith(f"_{c}_{t}.tif")
        assert f.name.startswith("lonlat_img_continuous")

    g = read_gtiff([f for f in files if f.parent.name == "E066N030T6"][0])
    assert g.array.shape == (600, 600)  # full T6 tile at 1000 m
    assert g.array.dtype == np.int16
    assert g.nodata == NODATA
    assert g.crs_epsg == 27704  # EU
    assert g.geotrans == (6_600_000.0, 1000.0, 0.0, 3_600_000.0, 0.0, -1000.0)
    data = g.array
    assert (data != NODATA).sum() > 1000  # footprint present
    assert (data == NODATA).sum() > 100_000  # nodata outside footprint

    # independent scalar cross-check on every valid pixel: invert the
    # target pixel centers and bilinear-gather the ramp by hand
    rr, cc = np.nonzero(data != NODATA)
    x = g.geotrans[0] + (cc + 0.5) * 1000.0
    y = g.geotrans[3] - (rr + 0.5) * 1000.0
    lon, lat = aeqd.inverse("EU", x, y)
    w, h = ar.shape[1], ar.shape[0]
    lon0 = (EXTENT[0] + EXTENT[2]) / 2.0
    lat0 = (EXTENT[1] + EXTENT[3]) / 2.0
    u = (lon - lon0) / RES + w / 2.0 - 0.5
    v = (lat0 - lat) / RES + h / 2.0 - 0.5
    u0 = np.floor(u).astype(np.int64)
    v0 = np.floor(v).astype(np.int64)
    fu, fv = u - u0, v - v0
    u0c, u1c = np.clip(u0, 0, w - 1), np.clip(u0 + 1, 0, w - 1)
    v0c, v1c = np.clip(v0, 0, h - 1), np.clip(v0 + 1, 0, h - 1)
    af = ar.astype(np.float64)
    val = ((af[v0c, u0c] * (1 - fu) + af[v0c, u1c] * fu) * (1 - fv)
           + (af[v1c, u0c] * (1 - fu) + af[v1c, u1c] * fu) * fv)
    expect = np.rint(val).astype(np.int16)
    assert np.array_equal(data[rr, cc], expect)


def test_reprojecting_lonlat_continuous_eu(ray_session, tmp_path):
    # continent_order=["EU"] parity (test_warp.py:180-210): 2 tiles only
    spec_eu = GridSpec.standard({"T6": 1000}, continent_order=["EU"])
    out, ar, files = _run(tmp_path, spec_eu)
    got = {(f.parent.parent.name.removeprefix("EQUI7_"), f.parent.name)
           for f in files}
    assert got == {("EU", "E066N030T6"), ("EU", "E072N030T6")}


def test_gtiff_resume_and_manifest(ray_session, tmp_path, spec):
    out, ar, files = _run(tmp_path, spec)
    stamps = {f: f.stat().st_mtime for f in files}
    # rerun: manifest marks the fragment done, nothing rewritten
    src = tmp_path / "in"
    resample_to_equi7_tiles(
        str(src), str(out), tiling_id="T6", spec=spec,
        resampling="bilinear", out_format="gtiff", nodata=NODATA,
        src_res=RES,
    )
    for f, ts in stamps.items():
        assert f.stat().st_mtime == ts


def test_reprojecting_webmercator_discrete_eu(ray_session, tmp_path):
    """The reference's webmercator fixture (test_warp.py:84-124, 212-260):
    uint8 discrete classes on an EPSG:3857 grid at 10 km/px, nearest to
    EU-only T6@10000 -- exactly 4 EU tiles."""
    from equi7grid_ray import mercator

    extent = (4_900_000.0, 7_810_000.0, 6_180_000.0, 8_750_000.0)
    sampling, nodata = 10_000.0, 255
    w = int((extent[2] - extent[0]) / sampling)
    h = int((extent[3] - extent[1]) / sampling)
    w_ar, h_ar = np.meshgrid(np.arange(w), np.arange(h))
    ar = (w_ar**2 + h_ar**2).astype(np.int64)
    out8 = np.zeros((h, w), np.uint8)
    out8[(ar >= (w + h)) & (ar < (w**2 + h))] = 1
    out8[ar >= (w**2 + h)] = 2
    out8[h // 4, w // 4] = nodata
    cx = (extent[0] + extent[2]) / 2.0
    cy = (extent[1] + extent[3]) / 2.0
    lon, lat = mercator.inverse(np.array([cx]), np.array([cy]))

    src = tmp_path / "in"
    src.mkdir()
    t = pa.table({
        "image_id": pa.array([1], pa.int64()),
        "lon": pa.array([float(lon[0])]),
        "lat": pa.array([float(lat[0])]),
        "w": pa.array([w], pa.int32()),
        "h": pa.array([h], pa.int32()),
        "fmt": pa.array(["raw"]),
        "dtype": pa.array(["uint8"]),
        "bands": pa.array([1], pa.int32()),
        "bytes": pa.array([out8.tobytes()], pa.binary()),
    })
    pq.write_table(t, src / "webmercator_img_discrete.parquet")
    out = tmp_path / "out"
    spec_eu = GridSpec.standard({"T6": 10_000}, continent_order=["EU"])
    resample_to_equi7_tiles(
        str(src), str(out), tiling_id="T6", spec=spec_eu,
        resampling="nearest", out_format="gtiff", nodata=nodata,
        src_crs="webmercator", src_res=sampling,
    )
    files = sorted(out.glob("part-*/EQUI7_*/*/*.tif"))
    got = {(f.parent.parent.name.removeprefix("EQUI7_"), f.parent.name)
           for f in files}
    assert got == {  # reference test_warp.py:230-260 expected outputs
        ("EU", "E066N030T6"), ("EU", "E072N030T6"),
        ("EU", "E066N024T6"), ("EU", "E072N024T6"),
    }
    for f in files:
        g = read_gtiff(f)
        assert g.array.shape == (60, 60)  # T6 at 10 km
        assert g.array.dtype == np.uint8
        assert set(np.unique(g.array)) <= {0, 1, 2, nodata}
        assert g.crs_epsg == 27704


def test_gtiff_tiled_zstd_unavailable_and_tiled_output(ray_session, tmp_path, spec):
    # the reference's compress_type="zstd" needs libzstd (absent);
    # deflate+tiled is the supported combination here
    out, ar, files = _run(
        tmp_path, spec, tif_is_tiled=True, tile_blocksize=128,
        ftilenames=["EU_E066N030T6"],
    )
    assert len(files) == 1 and files[0].parent.name == "E066N030T6"
    g = read_gtiff(files[0])
    assert g.tiled and g.block_shape == (128, 128)
    assert (g.array != NODATA).sum() > 1000


def test_gtiff_overview_output(ray_session, tmp_path, spec):
    from equi7grid_ray.gtiff import gtiff_ifd_offsets

    out, ar, files = _run(tmp_path, spec, tif_overviews=(2, 4),
                          ftilenames=["EU_E066N030T6"])
    assert len(files) == 1
    buf = files[0].read_bytes()
    assert len(gtiff_ifd_offsets(buf)) == 3
    g0 = read_gtiff(files[0])          # ifd 0 = full resolution
    from equi7grid_ray.gtiff import decode_gtiff

    g1 = decode_gtiff(buf, 1)
    assert g0.array.shape == (600, 600) and g1.array.shape == (300, 300)
    assert g1.geotrans[1] == 2000.0


def test_read_equi7_gtiff_roundtrip(ray_session, tmp_path, spec):
    """Sink -> source loop: tiles written by resample_to_equi7_tiles
    stream back with identical pixels, names and georeferencing."""
    from equi7grid_ray.sources.gtiff_source import read_equi7_gtiff

    out, ar, files = _run(tmp_path, spec)
    ds = read_equi7_gtiff(str(out))
    rows = ds.to_pandas()
    assert len(rows) == len(files) == 4
    assert set(rows["tile"]) == {f"{c}_{t}" for c, t in REF_TILES}
    for _, r in rows.iterrows():
        assert (r["w"], r["h"]) == (600, 600)
        assert r["dtype"] == "int16" and r["nodata"] == NODATA
        assert r["gt_sx"] == 1000.0 and r["gt_sy"] == -1000.0
        px = np.frombuffer(r["bytes"], np.int16).reshape(600, 600)
        # identical to the file on disk
        f = [p for p in files
             if p.name == r["fname"]][0]
        assert np.array_equal(px, read_gtiff(f).array)
        assert (px != NODATA).sum() > 1000
    # metadata-only path carries no payloads
    meta = read_equi7_gtiff(str(out), keep_pixels=False).to_pandas()
    assert (meta["bytes"].str.len() == 0).all()
    assert set(meta["crs_epsg"]) == {27703, 27704}


def test_retile_written_gtiffs_to_coarser_sampling(ray_session, tmp_path, spec):
    """The multi-resolution product workflow (re-tile a written 1000 m
    Equi7 product to 2000 m): read the sink's GeoTIFFs back with the
    gtiff source, feed them into RegridStage's Equi7->Equi7 path (pure
    affine, no geodesic work), and verify the nearest-gather against
    direct block sampling of the source arrays."""
    from equi7grid_ray.sources.gtiff_source import read_equi7_gtiff
    from equi7grid_ray.stages.regrid import RegridStage

    out, ar, files = _run(tmp_path, spec, ftilenames=["EU_E066N030T6"])
    ds = read_equi7_gtiff(str(out))
    rows = ds.to_pandas()
    assert len(rows) == 1
    r = rows.iloc[0]
    src = read_gtiff(files[0]).array

    # source tile center in the EU plane; target = the same tile at
    # 2000 m (300x300), expressed as one (image x tile) pair row
    cx = r["gt_x0"] + r["w"] / 2.0 * r["gt_sx"]
    cy = r["gt_y0"] + r["h"] / 2.0 * r["gt_sy"]
    pair = pa.table({
        "image_id": pa.array([r["fname"]]),
        "continent": pa.array(["EU"]),
        "tile": pa.array(["EU_E066N030T6"]),
        "ll_x": pa.array([6_600_000.0]),
        "ll_y": pa.array([3_000_000.0]),
        "bytes": pa.array([r["bytes"]], pa.binary()),
        "w": pa.array([int(r["w"])], pa.int32()),
        "h": pa.array([int(r["h"])], pa.int32()),
        "fmt": pa.array(["raw"]),
        "dtype": pa.array([r["dtype"]]),
        "cx": pa.array([float(cx)]),
        "cy": pa.array([float(cy)]),
    })
    spec2 = GridSpec.standard({"T6": 2000})
    out2 = RegridStage(tiling_id="T6", spec=spec2, src_crs="equi7",
                       src_res=1000.0, nodata=NODATA)(pair)
    assert out2.num_rows == 1
    wh = out2.column("win_h")[0].as_py()
    ww = out2.column("win_w")[0].as_py()
    assert (wh, ww) == (300, 300)  # full tile at 2000 m
    px = np.frombuffer(out2.column("pixels")[0].as_py(),
                       np.int16).reshape(wh, ww)
    # nearest at 2x coarsening with quarter-pixel-aligned grids samples
    # source pixel round(2k + 0.5) = every second pixel (banker's on
    # the exact .5 tie -> even index)
    want = src[::2, ::2][:300, :300]
    assert np.array_equal(px, want)
