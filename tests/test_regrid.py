"""Regrid stage conformance: windows land in the right tiles, resampled
pixels match an independent numpy oracle (nearest exact; bilinear
PSNR >= 40 dB), captions pass through unchanged
(BASELINE.json input_hint per-row invariant; reference semantics
/root/reference/src/equi7grid/warp.py:205-330)."""

import numpy as np
import pyarrow as pa
import pytest

from equi7grid_ray import aeqd
from equi7grid_ray.codec import decode_image
from image_metrics import psnr
from equi7grid_ray.sources.images import make_batch
from equi7grid_ray.stages.regrid import (
    SRC_RES_DEG,
    ExpandTilePairs,
    RegridStage,
    default_e7_filename,
)


@pytest.fixture(scope="module")
def pairs_and_out():
    batch = make_batch(0, 60)
    expand = ExpandTilePairs()
    pairs = expand(batch)
    regrid = RegridStage()
    out = regrid(pairs)
    return batch, pairs, out


def test_pairs_cover_all_images(pairs_and_out):
    batch, pairs, _ = pairs_and_out
    ids = set(pairs.column("image_id").to_pylist())
    # nearly all images should land in >= 1 tile (ocean/zone gaps rare)
    assert len(ids) >= batch.num_rows - 2


def test_windows_nonempty_and_within_tile(pairs_and_out):
    _, _, out = pairs_and_out
    wh = np.asarray(out.column("win_h").to_pylist())
    ww = np.asarray(out.column("win_w").to_pylist())
    r0 = np.asarray(out.column("r0").to_pylist())
    c0 = np.asarray(out.column("c0").to_pylist())
    assert (wh > 0).mean() > 0.9
    assert ((r0 >= 0) & (r0 + wh <= 1200) & (c0 >= 0) & (c0 + ww <= 1200)).all()


def test_caption_passthrough(pairs_and_out):
    batch, _, out = pairs_and_out
    caps = dict(zip(batch.column("image_id").to_pylist(),
                    batch.column("caption").to_pylist()))
    for iid, cap in zip(out.column("image_id").to_pylist(),
                        out.column("caption").to_pylist()):
        assert cap == caps[iid]


def _oracle_window(row, batch_lookup, resampling="nearest"):
    """Independent per-pixel reprojection oracle (scalar loops)."""
    iid = row["image_id"]
    src = batch_lookup[iid]
    img = decode_image(src["bytes"], src["fmt"], src["w"], src["h"])
    lon0, lat0 = src["lon"], src["lat"]
    s = 500.0
    tile_size = 600_000.0
    from equi7grid_ray.grid import parse_tile_names

    p = parse_tile_names(row["tile"])
    llx, lly = float(p["ll_x"]), float(p["ll_y"])
    out = np.zeros((row["win_h"], row["win_w"]), dtype=np.uint8)
    for rr in range(row["win_h"]):
        for cc in range(row["win_w"]):
            x = llx + (row["c0"] + cc + 0.5) * s
            y = lly + tile_size - (row["r0"] + rr + 0.5) * s
            glon, glat = aeqd.inverse(row["continent"], x, y)
            u = (float(glon) - lon0) / SRC_RES_DEG + src["w"] / 2.0 - 0.5
            v = (lat0 - float(glat)) / SRC_RES_DEG + src["h"] / 2.0 - 0.5
            ui, vi = int(round(u)), int(round(v))
            if 0 <= ui < src["w"] and 0 <= vi < src["h"]:
                out[rr, cc] = img[vi, ui]
    return out


def test_pixels_match_oracle_nearest(pairs_and_out):
    batch, _, out = pairs_and_out
    lut = {}
    from equi7grid_ray.sources.images import centers_for_index

    for i in range(batch.num_rows):
        d = {c: batch.column(c)[i].as_py() for c in batch.column_names}
        idx = int(d["image_id"][3:])
        lo, la = centers_for_index(np.array([idx]))
        d["lon"], d["lat"] = float(lo[0]), float(la[0])
        lut[d["image_id"]] = d
    checked = 0
    for i in range(out.num_rows):
        row = {c: out.column(c)[i].as_py() for c in out.column_names}
        if row["win_h"] * row["win_w"] == 0 or checked >= 5:
            continue
        got = np.frombuffer(row["pixels"], dtype=np.uint8).reshape(
            row["win_h"], row["win_w"]
        )
        want = _oracle_window(row, lut)
        assert (got == want).all()
        checked += 1
    assert checked >= 3


def _oracle_bilinear(row, src):
    """Independent scalar bilinear oracle."""
    img = decode_image(src["bytes"], src["fmt"], src["w"], src["h"]).astype(float)
    h, w = img.shape
    lon0, lat0 = src["lon"], src["lat"]
    s, tile_size = 500.0, 600_000.0
    from equi7grid_ray.grid import parse_tile_names

    p = parse_tile_names(row["tile"])
    llx, lly = float(p["ll_x"]), float(p["ll_y"])
    out = np.zeros((row["win_h"], row["win_w"]), dtype=np.uint8)
    for rr in range(row["win_h"]):
        for cc in range(row["win_w"]):
            x = llx + (row["c0"] + cc + 0.5) * s
            y = lly + tile_size - (row["r0"] + rr + 0.5) * s
            glon, glat = aeqd.inverse(row["continent"], x, y)
            u = (float(glon) - lon0) / SRC_RES_DEG + w / 2.0 - 0.5
            v = (lat0 - float(glat)) / SRC_RES_DEG + h / 2.0 - 0.5
            if -0.5 <= u <= w - 0.5 and -0.5 <= v <= h - 0.5:
                u0, v0 = int(np.floor(u)), int(np.floor(v))
                fu, fv = u - u0, v - v0
                g = lambda vv, uu: img[min(max(vv, 0), h - 1), min(max(uu, 0), w - 1)]
                val = (g(v0, u0) * (1 - fu) + g(v0, u0 + 1) * fu) * (1 - fv) + (
                    g(v0 + 1, u0) * (1 - fu) + g(v0 + 1, u0 + 1) * fu
                ) * fv
                out[rr, cc] = np.uint8(np.rint(val))
    return out


def test_bilinear_matches_oracle(pairs_and_out):
    batch, pairs, _ = pairs_and_out
    bil = RegridStage(resampling="bilinear")(pairs)
    from equi7grid_ray.sources.images import centers_for_index

    lut = {}
    for i in range(batch.num_rows):
        d = {c: batch.column(c)[i].as_py() for c in batch.column_names}
        idx = int(d["image_id"][3:])
        lo, la = centers_for_index(np.array([idx]))
        d["lon"], d["lat"] = float(lo[0]), float(la[0])
        lut[d["image_id"]] = d
    checked = 0
    for i in range(bil.num_rows):
        row = {c: bil.column(c)[i].as_py() for c in bil.column_names}
        if row["win_h"] * row["win_w"] == 0 or checked >= 3:
            continue
        got = np.frombuffer(row["pixels"], np.uint8).reshape(row["win_h"], row["win_w"])
        want = _oracle_bilinear(row, lut[row["image_id"]])
        # identical up to the PSNR invariant (>=40 dB; usually bit-exact)
        assert psnr(got.astype(float), want.astype(float)) >= 40.0
        checked += 1
    assert checked >= 2


def test_default_filename():
    assert default_e7_filename("scene1", "EU_E048N012T6") == "scene1_EU_E048N012T6.parquet"


def test_regrid_pipeline_ray(ray_session, tmp_path):
    import ray.data as rd

    from equi7grid_ray.stages.regrid import regrid_pipeline

    ds = rd.from_arrow(make_batch(0, 40))
    out = regrid_pipeline(ds, out_dir=str(tmp_path / "regrid"))
    import pyarrow.parquet as pq
    import pyarrow.dataset as pads

    back = pads.dataset(str(tmp_path / "regrid"), partitioning="hive").to_table()
    assert back.num_rows >= 38
    assert "pixels" in back.column_names


def test_webmercator_source_regrid():
    """Web-mercator source CRS path (the reference's second warp fixture
    family, tests/test_warp.py:83-124): regrid a 3857-gridded raster into
    an EU tile; verify against a scalar oracle."""
    from equi7grid_ray import mercator
    from equi7grid_ray.codec import encode_image
    from equi7grid_ray.grid import parse_tile_names

    # source raster: 64x64 @ 10 km in 3857, centered inside EU_E066N030T6
    lon_c, lat_c = 51.0, 61.5
    w = h = 64
    img = ((np.arange(h)[:, None] * h + np.arange(w)[None, :] * w) % 256).astype(np.uint8)
    batch = pa.table({
        "image_id": pa.array(["wm0"]),
        "bytes": pa.array([encode_image(img, "raw")], pa.binary()),
        "w": pa.array([w], pa.int32()),
        "h": pa.array([h], pa.int32()),
        "fmt": pa.array(["raw"]),
        "caption": pa.array(["wm scene"]),
        "lon": pa.array([lon_c]),
        "lat": pa.array([lat_c]),
        "continent": pa.array(["EU"]),
        "tile": pa.array(["EU_E066N030T6"]),
        "ll_x": pa.array([6.6e6]),
        "ll_y": pa.array([3.0e6]),
    })
    stage = RegridStage(src_crs="webmercator", src_res=10_000.0)
    out = stage(batch)
    row = {c: out.column(c)[0].as_py() for c in out.column_names}
    assert row["win_h"] > 0 and row["win_w"] > 0
    got = np.frombuffer(row["pixels"], np.uint8).reshape(row["win_h"], row["win_w"])
    # scalar oracle
    p = parse_tile_names(row["tile"])
    llx, lly = float(p["ll_x"]), float(p["ll_y"])
    s, tile_size = 500.0, 600_000.0
    mcx, mcy = mercator.forward(lon_c, lat_c)
    errs = 0
    for rr in range(0, row["win_h"], 7):
        for cc in range(0, row["win_w"], 7):
            x = llx + (row["c0"] + cc + 0.5) * s
            y = lly + tile_size - (row["r0"] + rr + 0.5) * s
            glon, glat = aeqd.inverse("EU", x, y)
            gx, gy = mercator.forward(float(glon), float(glat))
            ui = int(round((float(gx) - float(mcx)) / 10_000.0 + w / 2.0 - 0.5))
            vi = int(round((float(mcy) - float(gy)) / 10_000.0 + h / 2.0 - 0.5))
            want = img[vi, ui] if (0 <= ui < w and 0 <= vi < h) else 0
            errs += int(got[rr, cc] != want)
    assert errs == 0
    assert (got > 0).any()


def test_int16_nodata_scale_offset_regrid():
    """Reference band-dtype generality (warp.py:290-330; int16 fixtures
    at tests/test_warp.py:52,92): int16 raw source, caller nodata
    sentinel, scale/offset metadata carried through; nearest resampling
    is bit-exact against an independent gather and nodata marks pixels
    outside the footprint."""
    rng = np.random.default_rng(5)
    w = h = 96
    img = rng.integers(-2000, 8000, (h, w), dtype=np.int16)
    lon, lat = 15.0, 47.5  # inside EU
    batch = pa.table({
        "image_id": pa.array(["i16"], pa.string()),
        "bytes": pa.array([img.tobytes()], pa.binary()),
        "w": pa.array([w], pa.int32()),
        "h": pa.array([h], pa.int32()),
        "fmt": pa.array(["raw"], pa.string()),
        "dtype": pa.array(["int16"], pa.string()),
        "scale": pa.array([0.001], pa.float64()),
        "offset": pa.array([-273.15], pa.float64()),
        "lon": pa.array([lon], pa.float64()),
        "lat": pa.array([lat], pa.float64()),
        "caption": pa.array(["int16 scene"], pa.string()),
    })
    pairs = ExpandTilePairs()(batch)
    assert pairs.num_rows >= 1
    out = RegridStage(nodata=-9999)(pairs)
    assert out.column("dtype").to_pylist() == ["int16"] * out.num_rows
    assert out.column("scale").to_pylist() == [0.001] * out.num_rows
    assert out.column("offset").to_pylist() == [-273.15] * out.num_rows
    got_any_nodata = False
    got_any_valid = False
    for row in range(out.num_rows):
        wh = out.column("win_h")[row].as_py()
        ww = out.column("win_w")[row].as_py()
        px = np.frombuffer(out.column("pixels")[row].as_py(), np.int16).reshape(wh, ww)
        got_any_nodata |= bool((px == -9999).any())
        valid = px[px != -9999]
        got_any_valid |= len(valid) > 0
        if len(valid):
            # every valid pixel must be an actual source value (nearest)
            assert np.isin(valid, img).all()
    assert got_any_valid
    # an image smaller than a tile never fills its windows completely
    assert got_any_nodata


def test_int16_bilinear_dtype_roundtrip():
    rng = np.random.default_rng(6)
    w = h = 64
    img = rng.integers(-500, 500, (h, w), dtype=np.int16)
    batch = pa.table({
        "image_id": pa.array(["b16"], pa.string()),
        "bytes": pa.array([img.tobytes()], pa.binary()),
        "w": pa.array([w], pa.int32()),
        "h": pa.array([h], pa.int32()),
        "fmt": pa.array(["raw"], pa.string()),
        "dtype": pa.array(["int16"], pa.string()),
        "lon": pa.array([-60.0], pa.float64()),
        "lat": pa.array([-12.0], pa.float64()),
        "caption": pa.array(["b"], pa.string()),
    })
    pairs = ExpandTilePairs()(batch)
    out = RegridStage(resampling="bilinear", nodata=-32768)(pairs)
    for row in range(out.num_rows):
        wh = out.column("win_h")[row].as_py()
        ww = out.column("win_w")[row].as_py()
        px = np.frombuffer(out.column("pixels")[row].as_py(), np.int16)
        valid = px[px != -32768]
        if len(valid):
            assert valid.min() >= img.min() and valid.max() <= img.max()


def test_multiband_regrid_nearest():
    """GDAL-style multi-band generality: a 3-band int16 raster regrids
    band-sequentially with one shared gather (nearest exact per band)."""
    rng = np.random.default_rng(8)
    w = h = 64
    img = rng.integers(-100, 100, (3, h, w), dtype=np.int16)
    batch = pa.table({
        "image_id": pa.array(["mb"], pa.string()),
        "bytes": pa.array([img.tobytes()], pa.binary()),
        "w": pa.array([w], pa.int32()),
        "h": pa.array([h], pa.int32()),
        "fmt": pa.array(["raw"], pa.string()),
        "dtype": pa.array(["int16"], pa.string()),
        "bands": pa.array([3], pa.int32()),
        "lon": pa.array([15.0], pa.float64()),
        "lat": pa.array([47.5], pa.float64()),
        "caption": pa.array(["mb"], pa.string()),
    })
    pairs = ExpandTilePairs()(batch)
    out = RegridStage(nodata=-9999)(pairs)
    assert out.column("bands").to_pylist() == [3] * out.num_rows
    seen_valid = False
    for row in range(out.num_rows):
        wh = out.column("win_h")[row].as_py()
        ww = out.column("win_w")[row].as_py()
        px = np.frombuffer(out.column("pixels")[row].as_py(), np.int16)
        px = px.reshape(3, wh, ww)
        valid = px[:, (px != -9999).all(axis=0)]
        if valid.size:
            seen_valid = True
            # each valid column must be an actual source pixel (all
            # bands gathered from the same location)
            flat_src = img.reshape(3, -1)
            for col in valid.T[:50]:
                match = (flat_src == col[:, None]).all(axis=0)
                assert match.any()
    assert seen_valid


def test_nodata_unrepresentable_fails_loudly():
    """nodata=-9999 meeting a uint8 row must raise a clear ValueError,
    not OverflowError or a silent wraparound; a representable nodata
    casts exactly."""
    import numpy as np
    import pytest

    from equi7grid_ray.stages.regrid import _nodata_as

    assert _nodata_as(0, np.uint8) == np.uint8(0)
    assert _nodata_as(-9999, np.int16) == np.int16(-9999)
    assert np.isnan(_nodata_as(float("nan"), np.float32))
    with pytest.raises(ValueError, match="not representable"):
        _nodata_as(-9999, np.uint8)
    with pytest.raises(ValueError, match="not representable"):
        _nodata_as(0.5, np.int16)


def test_regrid_equi7_identity_gather():
    """src_crs='equi7' (source already in the target plane): nearest
    gather must equal the direct affine index computation."""
    import numpy as np
    import pyarrow as pa

    from equi7grid_ray.stages.regrid import RegridStage

    w = h = 16
    res = 1000.0
    cx, cy = 300_125.0, 300_125.0  # inside tile E000N000, off .5 boundaries
    img = ((np.arange(h)[:, None] * 131 + np.arange(w)[None, :] * 17) % 5003
           - 2500).astype(np.int16)
    batch = pa.table({
        "image_id": pa.array(["a"]),
        "continent": pa.array(["GR"]),
        "tile": pa.array(["GR_E000N000T6"]),
        "ll_x": pa.array([0.0]),
        "ll_y": pa.array([0.0]),
        "bytes": pa.array([img.tobytes()], pa.binary()),
        "w": pa.array([w], pa.int32()),
        "h": pa.array([h], pa.int32()),
        "fmt": pa.array(["raw"]),
        "dtype": pa.array(["int16"]),
        "cx": pa.array([cx]),
        "cy": pa.array([cy]),
    })
    out = RegridStage(src_crs="equi7", src_res=res, nodata=-9999)(batch)
    r0 = out.column("r0")[0].as_py()
    c0 = out.column("c0")[0].as_py()
    wh = out.column("win_h")[0].as_py()
    ww = out.column("win_w")[0].as_py()
    got = np.frombuffer(out.column("pixels")[0].as_py(), np.int16).reshape(wh, ww)
    s = 500.0
    for rr in range(wh):
        for cc in range(ww):
            gx = 0.0 + (c0 + cc + 0.5) * s
            gy = 0.0 + 600_000.0 - (r0 + rr + 0.5) * s
            ui = int(np.rint((gx - cx) / res + w / 2 - 0.5))
            vi = int(np.rint((cy - gy) / res + h / 2 - 0.5))
            exp = img[vi, ui] if 0 <= ui < w and 0 <= vi < h else -9999
            assert got[rr, cc] == exp, (rr, cc, got[rr, cc], exp)


def test_cubic_weights_partition_of_unity():
    from equi7grid_ray.stages.regrid import _cubic_weights

    f = np.linspace(0, 0.999, 64)
    for spline in (False, True):
        w = _cubic_weights(f, spline)
        assert np.allclose(w.sum(axis=0), 1.0, atol=1e-12)


def test_cubic_interpolates_exactly_at_samples():
    # Keys a=-0.5 is interpolating: at integer (u, v) it returns the
    # sample itself; the B-spline is approximating and must NOT
    from equi7grid_ray.stages.regrid import _cubic

    rng = np.random.default_rng(4)
    img = rng.integers(0, 255, (1, 20, 24), dtype=np.uint8)
    uu, vv = np.meshgrid(np.arange(2, 22, dtype=np.float64),
                         np.arange(2, 18, dtype=np.float64))
    u, v = uu.ravel(), vv.ravel()
    out = _cubic(img, v, u, 0, spline=False)
    want = img[0, v.astype(int), u.astype(int)]
    assert np.array_equal(out[0], want)
    out_s = _cubic(img, v, u, 0, spline=True)
    assert not np.array_equal(out_s[0], want)  # smoothing kernel


def test_cubic_matches_scalar_oracle():
    """4x4 gather parity vs an explicit scalar double-loop oracle at
    fractional positions (both kernels)."""
    from equi7grid_ray.stages.regrid import _cubic, _cubic_weights

    rng = np.random.default_rng(9)
    img = rng.normal(100, 30, (1, 16, 16)).astype(np.float64)
    u = rng.uniform(1.2, 13.8, 40)
    v = rng.uniform(1.2, 13.8, 40)
    for spline in (False, True):
        out = _cubic(img.astype(np.float32), v, u, -1, spline=spline)
        for t in range(len(u)):
            u0, v0 = int(np.floor(u[t])), int(np.floor(v[t]))
            wu = _cubic_weights(np.array([u[t] - u0]), spline)[:, 0]
            wv = _cubic_weights(np.array([v[t] - v0]), spline)[:, 0]
            s = 0.0
            for i in range(4):
                for k in range(4):
                    s += wv[i] * wu[k] * img[0, v0 + i - 1, u0 + k - 1]
            assert abs(float(out[0, t]) - s) < 1e-4


def test_cubic_overshoot_clipped_uint8():
    from equi7grid_ray.stages.regrid import _cubic

    # a step edge overshoots with Keys; uint8 output must clip, not wrap
    img = np.zeros((1, 8, 8), np.uint8)
    img[:, :, 4:] = 255
    u = np.linspace(2.0, 5.0, 50)
    v = np.full(50, 3.5)
    out = _cubic(img, v, u, 7, spline=False)
    assert out.dtype == np.uint8
    assert out.min() >= 0 and out.max() <= 255
    assert (out[0] <= 255).all() and (out[0][u < 2.5] < 30).all()


def test_regrid_cubic_end_to_end():
    from equi7grid_ray.stages.regrid import ExpandTilePairs, RegridStage

    rng = np.random.default_rng(11)
    w = h = 64
    img = rng.integers(-500, 500, (h, w), dtype=np.int16)
    batch = pa.table({
        "image_id": pa.array(["cub"], pa.string()),
        "bytes": pa.array([img.tobytes()], pa.binary()),
        "w": pa.array([w], pa.int32()),
        "h": pa.array([h], pa.int32()),
        "fmt": pa.array(["raw"], pa.string()),
        "dtype": pa.array(["int16"], pa.string()),
        "lon": pa.array([15.0], pa.float64()),
        "lat": pa.array([47.5], pa.float64()),
        "caption": pa.array(["c"], pa.string()),
    })
    pairs = ExpandTilePairs()(batch)
    got_valid = False
    out = RegridStage(resampling="cubic", nodata=-9999)(pairs)
    for row in range(out.num_rows):
        wh = out.column("win_h")[row].as_py()
        ww = out.column("win_w")[row].as_py()
        px = np.frombuffer(out.column("pixels")[row].as_py(), np.int16)
        valid = px[px != -9999]
        got_valid |= len(valid) > 0
    assert got_valid
    import pytest as _pytest

    with _pytest.raises(ValueError, match="unknown resampling"):
        RegridStage(resampling="lanczos")(pairs)


def test_source_grid_point_and_pixel_agree():
    """One source geometry per CRS: a footprint point maps back to its
    fractional source pixel, the corner offsets reproduce the
    centre +- w * res / 2 extents exactly, and ``src_res`` defaults per
    CRS."""
    from equi7grid_ray.stages.regrid import SourceGrid

    assert SourceGrid("geog").res == SRC_RES_DEG
    assert SourceGrid("webmercator").res == SourceGrid("equi7").res == 1000.0
    batch = pa.table({"lon": [15.1, -120.3], "lat": [45.3, -33.0],
                      "cx": [4.2e6, 1.1e6], "cy": [1.3e6, 5.5e6]})
    w, h = np.array([64.0, 40.0]), np.array([32.0, 50.0])
    fx, fy = np.array([[-0.5], [0.25], [0.5]]), np.array([[0.5], [-0.25], [-0.5]])
    for crs, res in (("geog", 0.002), ("webmercator", 250.0), ("equi7", 1000.0)):
        grid = SourceGrid(crs, res)
        cx, cy = grid.centers(batch)
        x, y = grid.point(cx, cy, w, h, fx, fy)
        u, v = grid.pixel(cx, cy, w, h, x, y)
        np.testing.assert_allclose(u, fx * w + w / 2 - 0.5, atol=1e-6)
        np.testing.assert_allclose(v, h / 2 - fy * h - 0.5, atol=1e-6)
    grid = SourceGrid("geog", 0.003)
    x, y = grid.point(batch.column("lon").to_numpy(), batch.column("lat").to_numpy(),
                      w, h, np.array([[-0.5], [0.5]]), np.array([[-0.5], [0.5]]))
    lon, lat = batch.column("lon").to_numpy(), batch.column("lat").to_numpy()
    assert (x[0] == lon - w * 0.003 / 2.0).all() and (x[1] == lon + w * 0.003 / 2.0).all()
    assert (y[0] == lat - h * 0.003 / 2.0).all() and (y[1] == lat + h * 0.003 / 2.0).all()


@pytest.mark.parametrize("crs", ["bogus", "EPSG:4326", "Geog", ""])
def test_unknown_src_crs_rejected(crs):
    """Both stages reject a source CRS they do not know instead of
    treating it as geog."""
    with pytest.raises(ValueError, match="src_crs"):
        ExpandTilePairs(src_crs=crs)
    with pytest.raises(ValueError, match="src_crs"):
        RegridStage(src_crs=crs)


def test_expand_rejects_equi7_source(tmp_path):
    """A plane source has no continent to tile into: ExpandTilePairs, the
    regrid pipeline and the warp refuse src_crs='equi7' up front instead
    of tiling rows from their image_id."""
    from equi7grid_ray.pipelines.warp import resample_to_equi7_tiles
    from equi7grid_ray.stages.regrid import regrid_pipeline

    with pytest.raises(ValueError, match="equi7"):
        ExpandTilePairs(src_crs="equi7")
    with pytest.raises(ValueError, match="equi7"):
        regrid_pipeline(None, src_crs="equi7")
    with pytest.raises(ValueError, match="equi7"):
        resample_to_equi7_tiles(str(tmp_path / "in"), str(tmp_path / "out"),
                                src_crs="equi7", src_res=1000.0)
    assert not (tmp_path / "out").exists()
    # the plane source itself still regrids, from pairs its caller built
    RegridStage(src_crs="equi7", src_res=1000.0)


@pytest.mark.parametrize("cap", [2_000, 300])
def test_regrid_passes_bounded_and_byte_identical(monkeypatch, cap):
    """RegridStage inverse-projects a continent's target pixels in
    passes of at most ``CHUNK_PX`` summed pixels (one larger window is a
    pass of its own); the output bytes equal an unsplit run."""
    from equi7grid_ray.stages import regrid

    pairs = ExpandTilePairs(src_crs="webmercator", src_res=150.0)(make_batch(0, 40))
    stage = RegridStage(src_crs="webmercator", src_res=150.0, resampling="bilinear")
    monkeypatch.setattr(regrid, "CHUNK_PX", 1 << 40)
    whole = stage(pairs)
    sizes = []
    inverse = aeqd.inverse

    def recorded(cont, x, y):
        sizes.append(np.size(x))
        return inverse(cont, x, y)

    monkeypatch.setattr(aeqd, "inverse", recorded)
    monkeypatch.setattr(regrid, "CHUNK_PX", cap)
    split = stage(pairs)
    assert split.equals(whole)
    assert split.column("pixels").to_pylist() == whole.column("pixels").to_pylist()
    npx = (np.asarray(whole.column("win_h"), np.int64)
           * np.asarray(whole.column("win_w"), np.int64))
    assert sum(sizes) == npx.sum()
    assert len(sizes) > len(set(pairs.column("continent").to_pylist()))
    assert max(sizes) <= max(cap, npx.max())
