"""Decode layer of the assign path: exact per-row means for raw and PNG
payloads, differential against ``decode_image`` and integer numpy sums,
and defined outcomes for bad input."""

import struct
import zlib

import numpy as np
import pyarrow as pa
import pytest

from equi7grid_ray.codec import (
    U32_SUM_MAX_SAMPLES,
    decode_image,
    decode_png,
    encode_png_gray8,
    encode_png_pal8,
    encode_png_rgb8,
    png_stream_stats,
)
from equi7grid_ray.sources.images import pal_palette
from equi7grid_ray.stages.tile_assign import TileAssigner

_SIG = b"\x89PNG\r\n\x1a\n"


def _chunk(tag, payload):
    return (struct.pack(">I", len(payload)) + tag + payload
            + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF))


def _png(img, filters=(0,), n_idat=1, truncate=False):
    """Gray or RGB PNG with the given per-scanline filter cycle (0 none,
    1 sub, 2 up) and its zlib stream split over ``n_idat`` IDAT chunks;
    ``truncate`` keeps only the first half of the stream."""
    h, w = img.shape[:2]
    ch = 1 if img.ndim == 2 else 3
    rows = img.reshape(h, w * ch).astype(np.int16)
    raw = np.empty((h, w * ch + 1), np.uint8)
    for r in range(h):
        f = filters[r % len(filters)]
        enc = rows[r].copy()
        if f == 1:
            enc[ch:] -= rows[r, :-ch]
        elif f == 2 and r:
            enc -= rows[r - 1]
        raw[r, 0] = f
        raw[r, 1:] = enc % 256
    idat = zlib.compress(raw.tobytes())
    if truncate:
        idat = idat[: len(idat) // 2]
    cuts = np.linspace(0, len(idat), n_idat + 1).astype(int)
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 0 if ch == 1 else 2, 0, 0, 0)
    return (_SIG + _chunk(b"IHDR", ihdr)
            + b"".join(_chunk(b"IDAT", idat[a:b]) for a, b in zip(cuts, cuts[1:]))
            + _chunk(b"IEND", b""))


def _mixed_rows():
    """(payload, fmt, w, h, pixels-or-None) covering every decode path;
    ``pixels`` is the source frame of a PNG the streaming stats read."""
    rng = np.random.default_rng(11)

    def img(h, w, ch=1):
        return rng.integers(0, 256, (h, w) if ch == 1 else (h, w, ch), dtype=np.uint8)

    rows = []
    for h, w in ((3, 5), (16, 16), (1, 1)):
        a = img(h, w)
        rows.append((a.tobytes(), "raw", w, h, None))
    rows.append((b"", "raw", 0, 4, None))  # 0-byte raw payload
    a = img(120, 110)  # sum of squares far past float32's exact range
    rows.append((encode_png_gray8(a), "png", 110, 120, a))
    a = img(12, 9, 3)
    rows.append((encode_png_rgb8(a), "png", 9, 12, a))
    pal = pal_palette()
    ix = rng.integers(0, len(pal), (10, 14)).astype(np.uint8)
    rows.append((encode_png_pal8(ix, pal), "png", 14, 10, None))  # fallback
    a = img(9, 11)
    rows.append((_png(a, filters=(2, 1, 0)), "png", 11, 9, None))  # fallback
    a = img(7, 6, 3)
    rows.append((_png(a, filters=(1, 2)), "png", 6, 7, None))  # fallback
    a = img(300, 260)  # 300 * 261 stream bytes: over the 64 KiB window
    rows.append((_png(a, n_idat=4), "png", 260, 300, a))
    a = img(160, 150, 3)  # RGB over the window, split IDAT
    rows.append((_png(a, n_idat=3), "png", 150, 160, a))
    a = img(200, 400)  # filtered frame over the window: streaming bails out
    rows.append((_png(a, filters=(0, 0, 2)), "png", 400, 200, None))
    a = img(33, 17)
    rows.append((_png(a, n_idat=5), "png", 17, 33, a))  # multi-IDAT, one shot
    a = img(2, 1)
    rows.append((a.tobytes(), "raw", 1, 2, None))
    rows.append((bytes([77]), "raw", 1, 1, None))  # 1-byte final payload
    return rows


def _table(rows):
    n = len(rows)
    return pa.table({
        "image_id": pa.array([f"img{i:012d}" for i in range(n)]),
        "bytes": pa.array([r[0] for r in rows], pa.binary()),
        "w": pa.array([r[2] for r in rows], pa.int32()),
        "h": pa.array([r[3] for r in rows], pa.int32()),
        "fmt": pa.array([r[1] for r in rows], pa.string()),
        "lon": pa.array([10.0] * n),
        "lat": pa.array([48.0] * n),
    })


@pytest.fixture(scope="module")
def assigner():
    return TileAssigner(decode=True, emit_cell=False, emit_xy=False,
                        exact_projection=True)


def _means(assigner, batch):
    out = assigner(batch)
    return dict(zip(out.column("image_id").to_pylist(),
                    out.column("px_mean").to_pylist()))


def _chunked(t):
    mid = t.num_rows // 2
    return pa.concat_tables([t.slice(0, mid), t.slice(mid)])


def _variants(t):
    n = t.num_rows
    return {
        "whole": t,
        "sliced_to_end": t.slice(3),
        "sliced_mid": t.slice(2, n - 4),
        "chunked": _chunked(t),
        "large_binary": t.cast(t.schema.set(1, pa.field("bytes", pa.large_binary()))),
        "large_binary_sliced": t.cast(
            t.schema.set(1, pa.field("bytes", pa.large_binary()))).slice(1),
    }


def test_px_mean_matches_decode_image(assigner):
    rows = _mixed_rows()
    full = _table(rows)
    expect = {}
    for i, (buf, fmt, w, h, _) in enumerate(rows):
        img = decode_image(buf, fmt, w, h)
        # an empty frame has no mean; the engine defines it as 0
        expect[f"img{i:012d}"] = img.mean() if img.size else 0.0
    for name, batch in _variants(full).items():
        got = _means(assigner, batch)
        ids = batch.column("image_id").to_pylist()
        assert sorted(got) == sorted(ids), name
        for k in ids:
            assert got[k] == expect[k], (name, k, got[k], expect[k])


def test_png_stream_stats_exact():
    for buf, fmt, w, h, src in _mixed_rows():
        if fmt != "png":
            continue
        st = png_stream_stats(buf)
        if src is None:
            assert st is None  # paletted or filtered: full-decode fallback
            continue
        x = src.astype(np.int64)
        psum, psq, hh, ww, ch, rows = st
        assert (psum, psq) == (int(x.sum()), int((x * x).sum()))
        assert (hh, ww, ch, rows) == (h, w, 1 if src.ndim == 2 else 3, None)
        # the windowed path (forced with a small window) agrees exactly,
        # and both paths copy the kept scanlines
        keep = [0, h // 2, h - 1]
        flat = src.reshape(h, -1)
        for chunk in (1 << 16, 997):
            s2 = png_stream_stats(buf, keep_rows=keep, chunk=chunk)
            assert s2[:5] == st[:5]
            assert np.array_equal(s2[5], flat[keep])


def test_png_stream_stats_sum_only_matches_full_kernel():
    """``sumsq=False`` gives the full kernel's exact sum (and no sum of
    squares) on the one-shot and windowed paths, gray and RGB, with and
    without kept scanlines; filtered and paletted frames still give
    None."""
    for buf, fmt, w, h, src in _mixed_rows():
        if fmt != "png":
            continue
        for chunk in (1 << 16, 997):
            for keep in (None, [0, h // 2, h - 1]):
                full = png_stream_stats(buf, keep_rows=keep, chunk=chunk)
                fast = png_stream_stats(buf, keep_rows=keep, chunk=chunk,
                                        sumsq=False)
                if src is None:
                    assert full is None and fast is None
                    continue
                assert fast[0] == full[0] == int(src.sum(dtype=np.int64))
                assert fast[1] is None
                assert fast[2:5] == full[2:5]
                if keep is None:
                    assert fast[5] is None
                else:
                    assert np.array_equal(fast[5], full[5])


def test_png_sum_only_one_shot_past_uint32_bound():
    """A one-shot frame of more than ``U32_SUM_MAX_SAMPLES`` samples of
    255 sums exactly (a uint32 accumulator would wrap)."""
    h, w = 4011, 4200
    assert h * w > U32_SUM_MAX_SAMPLES
    buf = encode_png_gray8(np.full((h, w), 255, np.uint8), level=1)
    st = png_stream_stats(buf, chunk=1 << 25, sumsq=False)
    assert st[0] == 255 * h * w and st[1:5] == (None, h, w, 1)


@pytest.mark.parametrize("w,h", [(65537, 257), (16_843_010, 1)],
                         ids=["at-uint32-bound", "past-uint32-bound"])
def test_raw_mean_exact_across_uint32_bound(assigner, w, h):
    """255 * 16,843,009 == 2**32 - 1: a raw row of that many 255s is the
    largest a uint32 sum holds; one more sample needs the uint64
    accumulator.  Both means equal the int64 reference."""
    assert 255 * U32_SUM_MAX_SAMPLES == 2**32 - 1
    n = w * h
    big = np.full(n, 255, np.uint8)
    if n > U32_SUM_MAX_SAMPLES:  # the case a uint32 accumulator gets wrong
        assert int(np.add.reduce(big, dtype=np.uint32)) != 255 * n
    small = np.arange(1, 5, dtype=np.uint8)
    t = _table([(big.tobytes(), "raw", w, h, None),
                (small.tobytes(), "raw", 2, 2, None)])
    got = _means(assigner, t)
    assert got["img000000000000"] == big.sum(dtype=np.int64) / n == 255.0
    assert got["img000000000001"] == small.sum(dtype=np.int64) / 4


def test_decode_png_first_row_up_filter():
    """The row above the first scanline is zeros, so an up-filtered
    first row decodes to itself."""
    rng = np.random.default_rng(5)
    for shape in ((6, 7), (5, 4, 3)):
        a = rng.integers(0, 256, shape, dtype=np.uint8)
        assert np.array_equal(decode_png(_png(a, filters=(2, 1))), a)


def test_zero_row_batch(assigner):
    out = assigner(_table(_mixed_rows()).slice(0, 0))
    assert out.num_rows == 0
    assert out.schema.field("px_mean").type == pa.float64()


def test_null_fmt_raises(assigner):
    t = _table([(bytes([1]), "raw", 1, 1, None)] * 3)
    t = t.set_column(4, "fmt", pa.array(["raw", "raw", None], pa.string()))
    with pytest.raises(ValueError, match="null fmt at row 2"):
        assigner(t)


def test_truncated_png_raises_valueerror(assigner):
    rng = np.random.default_rng(3)
    small = rng.integers(0, 256, (20, 20), dtype=np.uint8)
    big = rng.integers(0, 256, (300, 300), dtype=np.uint8)
    for a in (small, big):  # one-shot and windowed inflate
        buf = _png(a, truncate=True)
        with pytest.raises(ValueError, match="PNG stream"):
            png_stream_stats(buf)
        with pytest.raises(ValueError, match="PNG stream"):
            png_stream_stats(buf, sumsq=False)
        with pytest.raises(ValueError, match="PNG stream"):
            decode_png(buf)
        h, w = a.shape
        with pytest.raises(ValueError, match="PNG stream"):
            assigner(_table([(buf, "png", w, h, None)]))


def test_truncated_ihdr_or_chunk_header_raises_valueerror(assigner):
    """A PNG cut inside its IHDR, or inside a chunk header, raises a
    ValueError that names the cut (not a ``struct.error``) in every
    decode path."""
    a = np.arange(12, dtype=np.uint8).reshape(3, 4)
    buf = encode_png_gray8(a)
    ihdr_cut = buf[: len(_SIG) + 8 + 5]  # 5 of the IHDR's 13 bytes
    head_cut = buf[: len(_SIG) + 3]  # 3 bytes of the first chunk header
    for cut, what in ((ihdr_cut, "PNG IHDR at byte 8"),
                      (head_cut, "PNG chunk header at byte 8")):
        with pytest.raises(ValueError, match=what):
            decode_png(cut)
        with pytest.raises(ValueError, match=what):
            png_stream_stats(cut)
        with pytest.raises(ValueError, match=what):
            assigner(_table([(cut, "png", 4, 3, None)]))


def _png_bomb(w: int, h: int) -> bytes:
    """A ``w`` x ``h`` gray PNG whose one IDAT inflates to 256 MiB of
    zeros: 261 KB, built without holding the 256 MiB."""
    c = zlib.compressobj(9)
    zeros = bytes(1 << 20)
    idat = b"".join([c.compress(zeros) for _ in range(256)] + [c.flush()])
    return (_SIG + _chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 8, 0, 0, 0, 0))
            + _chunk(b"IDAT", idat) + _chunk(b"IEND", b""))


@pytest.mark.parametrize("w,h", [(8, 8), (300, 300)])  # one-shot, windowed stats
def test_png_bomb_raises_without_inflating(assigner, monkeypatch, w, h):
    """A stream that inflates past its IHDR's size is named without
    being inflated in full: every decode path raises after inflating at
    most one 64 KiB window past that size, with a traced peak under
    1 MiB."""
    import tracemalloc

    inflated = []
    factory = zlib.decompressobj

    class Counting:
        def __init__(self, *a):
            self._d = factory(*a)

        def decompress(self, *a):
            out = self._d.decompress(*a)
            inflated.append(len(out))
            return out

        def __getattr__(self, name):
            return getattr(self._d, name)

    monkeypatch.setattr(zlib, "decompressobj", Counting)
    buf = _png_bomb(w, h)
    assert len(buf) < 300_000
    t = _table([(buf, "png", w, h, None)])
    size = h * (w + 1)
    for decode in (decode_png, png_stream_stats, lambda b: assigner(t)):
        inflated.clear()
        tracemalloc.start()
        try:
            with pytest.raises(ValueError,
                               match=f"oversized PNG stream: more than {size} bytes"):
                decode(buf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert 0 < sum(inflated) <= size + (1 << 16)


def test_png_size_mismatch_raises(assigner):
    rng = np.random.default_rng(4)
    a = rng.integers(0, 256, (8, 12), dtype=np.uint8)
    for buf in (encode_png_gray8(a), _png(a, filters=(1,))):  # stream + fallback
        t = _table([(bytes(4), "raw", 2, 2, None), (buf, "png", 8, 12, None)])
        with pytest.raises(ValueError, match="PNG size mismatch at row 1"):
            assigner(t)
        t = _table([(buf, "png", 12, 8, None)])
        assert _means(assigner, t)["img000000000000"] == a.mean()


def test_binary_view_single_chunk_in_place():
    """A single-chunk column is read from its own value buffer (no
    concatenation copy); offsets stay absolute, so a slice starting at
    an odd byte still sums exactly."""
    from equi7grid_ray.arrowutil import binary_view, payload_sums

    payloads = [b"\x01", b"\x02\x00\x03\x00", b"", b"\x05\x00"]
    arr = pa.array(payloads, pa.binary())
    col = pa.chunked_array([arr.slice(1)])
    data, offs = binary_view(col)
    assert np.frombuffer(data, np.uint8).ctypes.data == arr.buffers()[2].address
    assert [bytes(data[a:b]) for a, b in zip(offs[:-1], offs[1:])] == payloads[1:]
    sums, cnts = payload_sums(col, np.int16)
    assert sums.tolist() == [5, 0, 5] and cnts.tolist() == [2, 0, 1]
