"""Fill + window GeoTIFF encoding: byte identity with the canvas-and-strips
encoder it replaced, one compression per window strip plus one per
distinct constant chunk, and empty-window dropping that compares
against the nodata value (NaN matching NaN)."""

import zlib

import numpy as np
import pyarrow as pa
import pytest

from equi7grid_ray import gtiff
from equi7grid_ray.sources.images import make_batch
from equi7grid_ray.stages.regrid import GTiffEncodeStage, expand_and_regrid

H, W = 302, 300  # 302 rows: the 4x overview has a partial last block


def _canvas_chunks(win, canvas, at, fill, grid, comp, level, predictor):
    """The encoder before fill + window: the whole image interleaved,
    every chunk cut from it (edge blocks padded) and compressed."""
    assert canvas == win.shape[1:] and at == (0, 0)
    inter = np.ascontiguousarray(
        win.transpose(1, 2, 0).astype(win.dtype.newbyteorder("<")))
    out = []
    for y, x, ch, cw in grid:
        block = inter[y:y + ch, x:x + cw]
        if block.shape[:2] != (ch, cw):
            full = np.full((ch, cw, win.shape[0]), fill, dtype=inter.dtype)
            full[:block.shape[0], :block.shape[1]] = block
            block = full
        if predictor == 2:
            d = block.copy()
            with np.errstate(over="ignore"):
                d[:, 1:] = block[:, 1:] - block[:, :-1]
            block = d
        raw = np.ascontiguousarray(block).tobytes()
        out.append(zlib.compress(raw, level) if comp == 8
                   else gtiff._lzw_encode(raw) if comp == 5 else raw)
    return out


# (dtype, bands, nodata, predictor)
PIXELS = {
    "uint8": ("uint8", 1, 0.0, 1),
    "int16": ("int16", 1, -9999.0, 1),
    "int16-p2": ("int16", 1, -9999.0, 2),
    "rgb": ("uint8", 3, 0.0, 1),
    "float32-nan": ("float32", 1, float("nan"), 1),
}
LAYOUTS = {
    "striped": {},
    "tiled256": dict(tiled=True, blockxsize=256, blockysize=256),
    "overviews": {},
}


def _windows(rps: int):
    """(r0, c0, h, w): first strip, last short strip + bottom-right edge
    block, across a strip boundary, across a 256 block corner, whole."""
    return {
        "first": (0, 5, 10, 40),
        "last": (H - 7, W - 30, 7, 30),
        "strip_boundary": (rps - 3, 17, 6, 50),
        "block_edge": (250, 250, 12, 12),
        "whole": (0, 0, H, W),
    }


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("compress", ["deflate", "lzw", "none"])
@pytest.mark.parametrize("pixels", sorted(PIXELS))
def test_window_encoder_bytes_equal_canvas_encoder(layout, compress, pixels,
                                                   monkeypatch):
    dt, nb, nodata, predictor = PIXELS[pixels]
    nd = np.asarray(nodata).astype(dt)
    rng = np.random.default_rng(7)
    kw = dict(geotrans=(0.0, 500.0, 0.0, 600_000.0, 0.0, -500.0), crs="EU",
              nodata=nodata, compress=compress, predictor=predictor,
              **LAYOUTS[layout])
    rps = (1 << 16) // (W * nb * np.dtype(dt).itemsize)
    for name, (r0, c0, wh, ww) in _windows(rps).items():
        if np.dtype(dt).kind == "f":
            win = rng.normal(scale=50.0, size=(nb, wh, ww)).astype(dt)
        else:
            win = rng.integers(0, 200, size=(nb, wh, ww)).astype(dt)
        win.reshape(-1)[::5] = nd  # nodata pixels inside the window too
        canvas = np.full((nb, H, W), nd, dtype=dt)
        canvas[:, r0:r0 + wh, c0:c0 + ww] = win
        if nb == 1:
            canvas = canvas[0]
        window = dict(_canvas=(H, W), _at=(r0, c0))
        if layout == "overviews":
            new = gtiff.encode_gtiff_overviews(win, (2, 4), **kw, **window)
        else:
            new = gtiff.encode_gtiff(win, **kw, **window)
        with monkeypatch.context() as m:
            m.setattr(gtiff, "_encode_chunks", _canvas_chunks)
            if layout == "overviews":
                old = gtiff.encode_gtiff_overviews(canvas, (2, 4), **kw)
            else:
                old = gtiff.encode_gtiff(canvas, **kw)
        assert new == old, (name, layout, compress, pixels)


def test_constant_chunk_cache_shared_by_threads(monkeypatch):
    """Threads encoding at once through a cache small enough to be
    emptied mid-tile still write the bytes of a lone encoder.  Each
    thread has its own nodata value, so 8 constant keys share 3 slots."""
    import sys
    import threading

    kw = dict(_canvas=(H, W), compress="deflate", tiled=True,
              blockxsize=64, blockysize=64)
    wins = [(np.full((3, 9), k + 1, np.uint8), (k * 20, k * 15))
            for k in range(8)]
    want = [gtiff.encode_gtiff(w, _at=at, nodata=k, **kw)
            for k, (w, at) in enumerate(wins)]
    monkeypatch.setattr(gtiff, "_CONST_CHUNKS", {})
    monkeypatch.setattr(gtiff, "_CONST_CHUNKS_MAX", 3)
    got = [[] for _ in wins]

    def work(k):
        for _ in range(20):
            got[k].append(gtiff.encode_gtiff(wins[k][0], _at=wins[k][1],
                                             nodata=k, **kw))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        ts = [threading.Thread(target=work, args=(k,)) for k in range(len(wins))]
        for t in ts:
            t.start()
        for t in ts:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in ts)
    assert all(g == [w] * 20 for g, w in zip(got, want))


def test_window_outside_canvas_raises():
    with pytest.raises(ValueError, match="outside"):
        gtiff.encode_gtiff(np.zeros((4, 4), np.uint8), _canvas=(8, 8),
                           _at=(5, 0))


@pytest.fixture(scope="module")
def resumable_windows():
    """The regridded windows of the two fragments of the resumable-warp
    test input, each row with its window rows."""
    return pa.concat_tables([expand_and_regrid(make_batch(0, 25)),
                             expand_and_regrid(make_batch(25, 25))])


def test_deflate_calls_window_strips_plus_constant_keys(resumable_windows,
                                                        monkeypatch):
    calls = []
    compress = zlib.compress

    def spy(data, level=-1):
        calls.append(len(data))
        return compress(data, level)

    monkeypatch.setattr(gtiff.zlib, "compress", spy)
    monkeypatch.setattr(gtiff, "_CONST_CHUNKS", {})
    enc = GTiffEncodeStage()
    npix = enc.npix
    rps = (1 << 16) // npix
    n_strips = -(-npix // rps)
    window_strips = 0
    const_rows = set()
    first = None
    for j in range(resumable_windows.num_rows):
        row = resumable_windows.slice(j, 1)
        if enc(row).num_rows == 0:
            continue
        r0, wh = row.column("r0")[0].as_py(), row.column("win_h")[0].as_py()
        touched = range(r0 // rps, (r0 + wh - 1) // rps + 1)
        window_strips += len(touched)
        const_rows |= {min(rps, npix - i * rps) for i in range(n_strips)
                       if i not in touched}
        if first is None:
            first = (row, len(touched))
    assert window_strips and const_rows == {rps, npix % rps}
    assert len(calls) == window_strips + len(const_rows)

    # a second identical tile compresses only its window strips
    before = len(calls)
    enc(first[0])
    assert len(calls) - before == first[1]


@pytest.mark.parametrize("dt,nodata,blank", [
    ("float32", float("nan"), float("nan")),
    ("float32", float("nan"), -float("nan")),  # another NaN bit pattern
    ("float32", 0.0, -0.0),
    ("float32", -9999.0, -9999.0),
    ("uint8", 0.0, 0.0)])
def test_all_nodata_windows_dropped(resumable_windows, dt, nodata, blank):
    rows = resumable_windows.slice(0, 2)
    nd = np.asarray(nodata).astype(dt)
    wh, ww = rows.column("win_h").to_numpy(), rows.column("win_w").to_numpy()
    empty = np.full(int(wh[0] * ww[0]), np.asarray(blank).astype(dt))
    data = np.full(int(wh[1] * ww[1]), nd)
    data[len(data) // 2] = 1
    rows = rows.drop_columns(["pixels", "dtype", "nodata"]).append_column(
        "pixels", pa.array([empty.tobytes(), data.tobytes()], pa.binary())
    ).append_column("dtype", pa.array([dt, dt])).append_column(
        "nodata", pa.array([nodata, nodata], pa.float64()))
    out = GTiffEncodeStage()(rows)
    assert out.column("image_id").to_pylist() == [rows.column("image_id")[1].as_py()]
    img = gtiff.decode_gtiff(out.column("data")[0].as_py()).array
    assert np.count_nonzero(img.view(f"u{img.itemsize}")
                            != nd.reshape(1).view(f"u{img.itemsize}")) == 1
