"""GeoTIFF codec tests: round-trip matrix, geo metadata, hand-built
big-endian / predictor-2 / offset-tiepoint fixtures (paths the writer
never emits, so the reader is tested independently), and the reference
fixtures' w^2+h^2 ramp pattern (tests/test_warp.py:43-124)."""

import struct
import zlib

import numpy as np
import pytest

from equi7grid_ray.gtiff import (
    TIFF_DTYPES,
    _lzw_encode,
    decode_gtiff,
    encode_gtiff,
    equi7_crs,
    read_gtiff,
    write_gtiff,
)

GT = (4_800_000.0, 1000.0, 0.0, 1_800_000.0, 0.0, -1000.0)


def _arr(dt: str, shape, rng):
    if np.dtype(dt).kind == "f":
        return rng.normal(scale=100.0, size=shape).astype(dt)
    info = np.iinfo(dt)
    return rng.integers(info.min, min(info.max, 1 << 30), size=shape, dtype=dt)


@pytest.mark.parametrize("dt", sorted(TIFF_DTYPES))
@pytest.mark.parametrize("tiled", [False, True])
@pytest.mark.parametrize("comp", ["none", "deflate"])
def test_roundtrip_matrix(dt, tiled, comp):
    rng = np.random.default_rng(hash((dt, tiled, comp)) % (1 << 32))
    a = _arr(dt, (700, 500), rng)
    nd = 255 if np.dtype(dt).kind == "u" else -9999
    buf = encode_gtiff(a, geotrans=GT, crs="EU", nodata=nd, compress=comp,
                       tiled=tiled, blockxsize=256, blockysize=256)
    g = decode_gtiff(buf)
    assert g.array.dtype == np.dtype(dt)
    assert np.array_equal(g.array, a)
    assert g.geotrans == GT
    assert g.crs_epsg == 27704
    assert g.nodata == nd
    assert g.tiled is tiled
    assert g.compression == (1 if comp == "none" else 8)


def test_multiband_and_scale_offset(tmp_path):
    rng = np.random.default_rng(3)
    a = _arr("int16", (3, 130, 90), rng)
    p = tmp_path / "mb.tif"
    write_gtiff(p, a, geotrans=GT, crs=27704, nodata=-9999, tiled=True,
                blockxsize=64, blockysize=48, scale=0.001, offset=-10.0)
    g = read_gtiff(p)
    assert g.array.shape == (3, 130, 90)
    assert np.array_equal(g.array, a)
    assert g.scale == 0.001 and g.offset == -10.0
    assert g.block_shape == (48, 64)


def test_reference_ramp_fixture_int16():
    # the reference's lonlat_img_continuous fixture: w^2+h^2 ramp, int16,
    # nodata -9999 punched into the center (test_warp.py:52-60)
    extent, sampling, nodata = (50, 60.7, 51.2, 63.2), 0.1, -9999
    w = int((extent[2] - extent[0]) / sampling)
    h = int((extent[3] - extent[1]) / sampling)
    w_ar, h_ar = np.meshgrid(np.arange(w), np.arange(h))
    ar = (w_ar**2 + h_ar**2).astype(np.int16)
    ar[h // 2, w // 2] = nodata
    gt = (extent[0], sampling, 0.0, extent[3], 0.0, -sampling)
    g = decode_gtiff(encode_gtiff(ar, geotrans=gt, crs=4326, nodata=nodata))
    assert np.array_equal(g.array, ar)
    assert g.geotrans == pytest.approx(gt)
    assert g.crs_epsg == 4326 and g.geokeys[1024] == 2  # geographic model
    assert g.nodata == nodata


def test_geokeys_equi7_params():
    crs = equi7_crs("AS")
    g = decode_gtiff(encode_gtiff(np.zeros((4, 4), np.uint8), crs=crs))
    assert g.crs_epsg == 27703
    assert g.geokeys[3075] == 12  # CT_AzimuthalEquidistant
    assert g.geokeys[3089] == 47.0 and g.geokeys[3088] == 94.0
    assert g.geokeys[3082] == 4340913.84808
    assert "Equi7 AS" in g.geokeys[1026]


def test_tile_edge_padding_uses_nodata():
    a = np.arange(20 * 20, dtype=np.uint8).reshape(20, 20)
    buf = encode_gtiff(a, nodata=200, tiled=True, blockxsize=16,
                       blockysize=16, compress="none")
    g = decode_gtiff(buf)
    assert np.array_equal(g.array, a)
    # padding bytes of the edge tile hold the nodata value: tile (0,1)
    # covers cols 16..31, cols 20..31 are pad
    t = _parse_tiles(buf)
    tile01 = np.frombuffer(t[1], np.uint8).reshape(16, 16)
    assert (tile01[:, 4:] == 200).all()


def _parse_tiles(buf):
    g = memoryview(buf)
    ifd = struct.unpack_from("<I", g, 4)[0]
    n = struct.unpack_from("<H", g, ifd)[0]
    offs = cnts = None
    for i in range(n):
        tid, ft, cnt = struct.unpack_from("<HHI", g, ifd + 2 + 12 * i)
        voff = struct.unpack_from("<I", g, ifd + 2 + 12 * i + 8)[0]
        if tid == 324:
            offs = struct.unpack_from(f"<{cnt}I", g, voff if cnt > 1 else ifd + 2 + 12 * i + 8)
        if tid == 325:
            cnts = struct.unpack_from(f"<{cnt}I", g, voff if cnt > 1 else ifd + 2 + 12 * i + 8)
    return [bytes(g[o:o + c]) for o, c in zip(offs, cnts)]


def test_errors():
    with pytest.raises(ValueError, match="byte-order"):
        decode_gtiff(b"XX\x2a\x00")
    with pytest.raises(ValueError, match="rotated"):
        encode_gtiff(np.zeros((2, 2), np.uint8),
                     geotrans=(0, 1, 0.5, 0, 0.5, -1))
    with pytest.raises(ValueError, match="multiples of 16"):
        encode_gtiff(np.zeros((32, 32), np.uint8), tiled=True,
                     blockxsize=20, blockysize=16)
    with pytest.raises(ValueError, match="unsupported dtype"):
        encode_gtiff(np.zeros((2, 2), np.complex64))
    with pytest.raises(ValueError, match="unsupported compress"):
        encode_gtiff(np.zeros((2, 2), np.uint8), compress="zstd-unavail")


# --- hand-built reader-only fixtures ---------------------------------------

def _tiff(bo, entries, tail=b""):
    """Assemble a minimal single-IFD TIFF by hand; entries are
    (tag, type, count, inline4bytes)."""
    hdr = (b"II*\x00" if bo == "<" else b"MM\x00*") + struct.pack(f"{bo}I", 8)
    ifd = struct.pack(f"{bo}H", len(entries))
    for tag, ft, cnt, val in entries:
        ifd += struct.pack(f"{bo}HHI", tag, ft, cnt) + val
    ifd += struct.pack(f"{bo}I", 0)
    return hdr + ifd + tail


def test_big_endian_read():
    # 2x3 uint16 single strip, uncompressed, big-endian (writer is
    # LE-only -- this exercises the reader's byte-order handling)
    a = np.array([[1000, 2000, 3000], [4000, 5000, 6000]], np.uint16)
    data = a.astype(">u2").tobytes()
    base = 8 + 2 + 8 * 12 + 4
    entries = [
        (256, 3, 1, struct.pack(">HH", 3, 0)),
        (257, 3, 1, struct.pack(">HH", 2, 0)),
        (258, 3, 1, struct.pack(">HH", 16, 0)),
        (259, 3, 1, struct.pack(">HH", 1, 0)),
        (273, 4, 1, struct.pack(">I", base)),
        (277, 3, 1, struct.pack(">HH", 1, 0)),
        (278, 4, 1, struct.pack(">I", 2)),
        (279, 4, 1, struct.pack(">I", len(data))),
    ]
    g = decode_gtiff(_tiff(">", entries, data))
    assert np.array_equal(g.array, a)
    assert g.array.dtype == np.uint16


def test_predictor2_deflate_read():
    # horizontal-differencing predictor on uint8, deflate -- readers must
    # undo the differencing after decompression
    a = np.array([[10, 13, 13, 20], [7, 7, 8, 6]], np.uint8)
    diff = a.astype(np.int16).copy()
    diff[:, 1:] -= a[:, :-1].astype(np.int16)
    comp = zlib.compress(diff.astype(np.uint8).tobytes())
    base = 8 + 2 + 9 * 12 + 4
    entries = [
        (256, 3, 1, struct.pack("<HH", 4, 0)),
        (257, 3, 1, struct.pack("<HH", 2, 0)),
        (258, 3, 1, struct.pack("<HH", 8, 0)),
        (259, 3, 1, struct.pack("<HH", 8, 0)),
        (273, 4, 1, struct.pack("<I", base)),
        (277, 3, 1, struct.pack("<HH", 1, 0)),
        (278, 4, 1, struct.pack("<I", 2)),
        (279, 4, 1, struct.pack("<I", len(comp))),
        (317, 3, 1, struct.pack("<HH", 2, 0)),
    ]
    g = decode_gtiff(_tiff("<", entries, comp))
    assert np.array_equal(g.array, a)


def test_nonzero_tiepoint_pixel_offset():
    # tiepoint anchored at pixel (2, 1) instead of (0, 0): the reader must
    # shift back to the UL corner (writer always anchors at 0,0)
    a = np.zeros((4, 4), np.uint8)
    buf = bytearray(encode_gtiff(a, geotrans=GT))
    # locate the tiepoint tag's out-of-line doubles and rewrite them
    ifd = struct.unpack_from("<I", buf, 4)[0]
    n = struct.unpack_from("<H", buf, ifd)[0]
    for i in range(n):
        tid = struct.unpack_from("<H", buf, ifd + 2 + 12 * i)[0]
        if tid == 33922:
            voff = struct.unpack_from("<I", buf, ifd + 2 + 12 * i + 8)[0]
            tp = (2.0, 1.0, 0.0,
                  GT[0] + 2 * GT[1], GT[3] + 1 * GT[5], 0.0)
            struct.pack_into("<6d", buf, voff, *tp)
    g = decode_gtiff(bytes(buf))
    assert g.geotrans == pytest.approx(GT)


def test_strip_default_size_bounded():
    # default striping keeps uncompressed strips <= 64 KiB
    a = np.zeros((4000, 1000), np.uint8)  # 1000 B/row -> 65 rows/strip
    g = decode_gtiff(encode_gtiff(a, compress="none"))
    assert np.array_equal(g.array, a)
    assert g.block_shape[0] * 1000 <= (1 << 16)


def test_lzw_roundtrip_and_interop_shape():
    from equi7grid_ray.gtiff import _lzw_decode, _lzw_encode

    rng = np.random.default_rng(5)
    # low entropy (dictionary-friendly), cycling (table clears), high
    # entropy (worst case), empty
    cases = [
        rng.integers(0, 40, 5000, dtype=np.uint8).tobytes(),
        bytes(range(256)) * 300,
        rng.integers(0, 256, 120000, dtype=np.uint8).tobytes(),
        b"",
        b"\x00" * 10000,
    ]
    for d in cases:
        enc = _lzw_encode(d)
        assert _lzw_decode(enc, len(d)) == d
    # spec shape: stream begins with a ClearCode (256 at 9 bits MSB
    # first: 1_0000_0000 -> first byte 0x80)
    assert _lzw_encode(b"A")[0] == 0x80


def test_lzw_gtiff_roundtrip():
    rng = np.random.default_rng(6)
    a = rng.integers(-300, 300, (96, 80)).astype(np.int16)
    buf = encode_gtiff(a, geotrans=GT, crs="EU", nodata=-9999,
                       compress="lzw", tiled=True, blockxsize=48,
                       blockysize=32)
    g = decode_gtiff(buf)
    assert g.compression == 5
    assert np.array_equal(g.array, a)
    assert g.geotrans == GT and g.nodata == -9999


def test_predictor2_write_roundtrip_and_shrinks():
    rng = np.random.default_rng(12)
    smooth = np.cumsum(rng.integers(-3, 4, (200, 180)), axis=1).astype(np.int16)
    plain = encode_gtiff(smooth, compress="deflate")
    pred = encode_gtiff(smooth, compress="deflate", predictor=2)
    assert len(pred) < len(plain)  # the whole point on smooth rasters
    g = decode_gtiff(pred)
    assert np.array_equal(g.array, smooth)
    # multiband + tiled + wrapping uint8
    a = rng.integers(0, 255, (3, 70, 90), dtype=np.uint8)
    g = decode_gtiff(encode_gtiff(a, compress="lzw", predictor=2,
                                  tiled=True, blockxsize=48, blockysize=32))
    assert np.array_equal(g.array, a)
    with pytest.raises(ValueError, match="predictor 2 is invalid"):
        encode_gtiff(smooth.astype(np.float32), predictor=2)


def test_overview_pyramid_multi_ifd():
    from equi7grid_ray.gtiff import encode_gtiff_overviews, gtiff_ifd_offsets

    rng = np.random.default_rng(13)
    a = np.cumsum(rng.integers(-2, 3, (300, 260)), axis=1).astype(np.int16)
    buf = encode_gtiff_overviews(a, (2, 4), geotrans=GT, crs="EU",
                                 nodata=-9999, compress="deflate",
                                 predictor=2)
    assert len(gtiff_ifd_offsets(buf)) == 3
    g0 = decode_gtiff(buf, 0)
    g1 = decode_gtiff(buf, 1)
    g2 = decode_gtiff(buf, 2)
    assert np.array_equal(g0.array, a)
    assert g1.array.shape == (150, 130) and g2.array.shape == (75, 65)
    # overview geotransforms scale the pixel size, anchor unchanged
    assert g1.geotrans == (GT[0], 2000.0, 0.0, GT[3], 0.0, -2000.0)
    assert g2.geotrans[1] == 4000.0
    # overview content is the block mean of the full image
    want = np.rint(a[:300, :260].astype(np.float64)
                   .reshape(150, 2, 130, 2).mean(axis=(1, 3))).astype(np.int16)
    assert np.array_equal(g1.array, want)
    with pytest.raises(ValueError, match="out of range"):
        decode_gtiff(buf, 3)


def test_planar_config_2_read():
    """Band-sequential (PlanarConfig=2) strip layout, hand-built: the
    chunk list runs band 0's strips then band 1's (GDAL emits this for
    INTERLEAVE=BAND files; the writer is pixel-interleaved only)."""
    a = np.arange(2 * 3 * 4, dtype=np.uint8).reshape(2, 3, 4)
    b0, b1 = a[0].tobytes(), a[1].tobytes()
    n_entries = 10
    base = 8 + 2 + n_entries * 12 + 4
    voff1, voff2 = base, base + 8
    data0 = voff2 + 8
    data1 = data0 + len(b0)
    entries = [
        (256, 3, 1, struct.pack("<HH", 4, 0)),
        (257, 3, 1, struct.pack("<HH", 3, 0)),
        (258, 3, 1, struct.pack("<HH", 8, 0)),
        (259, 3, 1, struct.pack("<HH", 1, 0)),
        (273, 4, 2, struct.pack("<I", voff1)),
        (277, 3, 1, struct.pack("<HH", 2, 0)),
        (278, 4, 1, struct.pack("<I", 3)),
        (279, 4, 2, struct.pack("<I", voff2)),
        (284, 3, 1, struct.pack("<HH", 2, 0)),
        (339, 3, 1, struct.pack("<HH", 1, 0)),
    ]
    buf = _tiff("<", entries,
                struct.pack("<II", data0, data1)
                + struct.pack("<II", len(b0), len(b1)) + b0 + b1)
    g = decode_gtiff(buf)
    assert g.array.shape == (2, 3, 4)
    assert np.array_equal(g.array, a)


def _empty_ifd_chain(n: int, loop_to: int = 0) -> bytes:
    """Header plus ``n`` zero-entry IFDs, each pointing at the next; the
    last one points at ``loop_to`` (0 ends the chain)."""
    offs = [8 + 6 * k for k in range(n)]
    nxt = offs[1:] + [loop_to]
    return b"II*\x00" + struct.pack("<I", 8) + b"".join(
        struct.pack("<HI", 0, o) for o in nxt)


def test_ifd_chain_longer_than_64_and_cycle():
    from equi7grid_ray.gtiff import gtiff_ifd_offsets

    assert gtiff_ifd_offsets(_empty_ifd_chain(70)) == [8 + 6 * k for k in range(70)]
    # a single IFD whose next-IFD pointer points back at itself
    with pytest.raises(ValueError, match="cycles back to offset 8"):
        gtiff_ifd_offsets(_empty_ifd_chain(1, loop_to=8))
    with pytest.raises(ValueError, match="cycles back to offset 14"):
        gtiff_ifd_offsets(_empty_ifd_chain(3, loop_to=14))
    a = np.arange(6, dtype=np.uint8).reshape(2, 3)
    buf = bytearray(encode_gtiff(a))
    n = struct.unpack_from("<H", buf, 8)[0]
    struct.pack_into("<I", buf, 8 + 2 + 12 * n, 8)
    with pytest.raises(ValueError, match="cycles back to offset 8"):
        decode_gtiff(bytes(buf))


def _set_count(buf: bytearray, tag: int, n: int) -> None:
    """Set the value count of IFD 0's entry ``tag`` (little-endian)."""
    ifd = struct.unpack_from("<I", buf, 4)[0]
    for i in range(struct.unpack_from("<H", buf, ifd)[0]):
        e = ifd + 2 + 12 * i
        if struct.unpack_from("<H", buf, e)[0] == tag:
            struct.pack_into("<I", buf, e + 4, n)


@pytest.mark.parametrize(
    "tiled,short", [(False, None), (True, None), (False, "both"), (True, "both"),
                    (True, "counts")],
    ids=["False", "True", "strip-lists-short", "tile-lists-short", "tile-counts-short"])
def test_truncated_chunk_raises_before_inflate(tiled, short, monkeypatch):
    """A strip / tile whose offset + count runs past the buffer, or an
    offset or byte count list shorter than the chunk grid, is named
    before any chunk is inflated (a deflate stream cut short would
    otherwise fail inside zlib or np.frombuffer; a short list left the
    uncovered pixels uninitialised)."""
    a = np.arange(64 * 48, dtype=np.uint16).reshape(64, 48)
    buf = encode_gtiff(a, compress="deflate", tiled=tiled, blockxsize=16,
                       blockysize=16, rows_per_strip=16 if short else None)
    assert np.array_equal(decode_gtiff(buf).array, a)
    if short:
        # 12 tiles (3 x 4) or 4 strips; patch the list counts down to 2
        kind, n = ("tile", 12) if tiled else ("strip", 4)
        offs_tag, cnts_tag = (324, 325) if tiled else (273, 279)
        short_buf = bytearray(buf)
        _set_count(short_buf, cnts_tag, 2)
        if short == "both":
            _set_count(short_buf, offs_tag, 2)

        def inflate(*args):
            raise AssertionError("inflated a chunk")

        monkeypatch.setattr(zlib, "decompress", inflate)
        monkeypatch.setattr(zlib, "decompressobj", inflate)
        noffs = 2 if short == "both" else n
        with pytest.raises(ValueError, match=rf"{noffs} {kind} offsets and 2 {kind} byte"
                                             rf" counts, but the image has {n} {kind}s"):
            decode_gtiff(bytes(short_buf))
        return
    cut = buf[:-5]
    kind, last = ("tile", 11) if tiled else ("strip", 0)
    with pytest.raises(ValueError, match=rf"{kind} {last} \(offset \d+, \d+ bytes\)"
                                         rf" runs past the end of the {len(cut)}-byte buffer"):
        decode_gtiff(cut)


def _strip_8x8(comp: int, data: bytes) -> bytes:
    """One 8x8 uint8 strip holding the ``data`` chunk, compressed with
    TIFF compression ``comp``."""
    base = 8 + 2 + 8 * 12 + 4
    entries = [
        (256, 3, 1, struct.pack("<HH", 8, 0)),
        (257, 3, 1, struct.pack("<HH", 8, 0)),
        (258, 3, 1, struct.pack("<HH", 8, 0)),
        (259, 3, 1, struct.pack("<HH", comp, 0)),
        (273, 4, 1, struct.pack("<I", base)),
        (277, 3, 1, struct.pack("<HH", 1, 0)),
        (278, 4, 1, struct.pack("<I", 8)),
        (279, 4, 1, struct.pack("<I", len(data))),
    ]
    return _tiff("<", entries, data)


def test_deflate_bomb_strip_raises_without_inflating():
    """A strip whose deflate stream inflates to 64 MB of zeros is named
    after its 64 expected bytes; the 64 MB are never allocated."""
    import tracemalloc

    c = zlib.compressobj(9)
    zeros = bytes(1 << 20)
    bomb = b"".join([c.compress(zeros) for _ in range(64)] + [c.flush()])
    del zeros
    buf = _strip_8x8(8, bomb)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="deflate strip 0 decompresses to"
                                             " more than 64 bytes, expected 64"):
            decode_gtiff(buf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_lzw_bomb_strip_raises_without_decoding():
    """A strip whose LZW stream decodes to 4 MB of zeros is named after
    its 64 expected bytes; decoding stops once the output passes them."""
    import tracemalloc

    buf = _strip_8x8(5, _lzw_encode(bytes(4 << 20)))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="LZW strip 0 decompresses to"
                                             " more than 64 bytes, expected 64"):
            decode_gtiff(buf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_short_uncompressed_strip_raises():
    """An uncompressed strip shorter than its rows is named with both
    byte counts; one of the full 64 bytes decodes."""
    with pytest.raises(ValueError, match="uncompressed strip 0 has 32 bytes,"
                                         " expected 64"):
        decode_gtiff(_strip_8x8(1, bytes(32)))
    px = bytes(range(64))
    assert decode_gtiff(_strip_8x8(1, px)).array.tobytes() == px


@pytest.mark.parametrize("comp,n", [(8, 63), (8, 65), (5, 63), (5, 65)],
                         ids=["deflate-short", "deflate-long", "lzw-short", "lzw-long"])
def test_chunk_of_wrong_decompressed_size_raises(comp, n):
    data = bytes(range(n))
    chunk = zlib.compress(data) if comp == 8 else _lzw_encode(data)
    name = "deflate" if comp == 8 else "LZW"
    got = "more than 64" if n == 65 else str(n)
    with pytest.raises(ValueError, match=rf"{name} strip 0 decompresses to {got}"
                                         rf" bytes, expected 64"):
        decode_gtiff(_strip_8x8(comp, chunk))
    px = bytes(range(64))
    ok = zlib.compress(px) if comp == 8 else _lzw_encode(px)
    assert decode_gtiff(_strip_8x8(comp, ok)).array.tobytes() == px


def test_corrupt_or_unterminated_deflate_strip_raises():
    full = zlib.compress(bytes(range(64)))
    with pytest.raises(ValueError, match="deflate strip 0 ends without its"
                                         " end-of-stream marker after 64 bytes"):
        decode_gtiff(_strip_8x8(8, full[:-4]))  # Adler-32 trailer cut off
    with pytest.raises(ValueError, match="corrupt deflate strip 0"):
        decode_gtiff(_strip_8x8(8, b"\xff" * len(full)))


def test_classic_tiff_offset_limit_raises_before_assembly():
    """Offsets of a classic TIFF are u32: an image whose end would pass
    2**32 - 1 raises, naming that end; one ending at the limit encodes.
    Placed at a high IFD base in segment mode, so nothing near 4 GiB is
    allocated."""
    a = np.arange(64, dtype=np.uint8).reshape(8, 8)
    with pytest.raises(ValueError, match=r"end at offset 429496\d+, past the"
                                         r" classic TIFF limit of 4294967295"):
        encode_gtiff(a, _ifd_base=2**32 - 64, _no_header=True)
    n = len(encode_gtiff(a, _ifd_base=1000, _no_header=True))
    base = (2**32 - 1 - n) & ~1  # even, like 1000: same padding, same length
    assert base + n <= 2**32 - 1
    assert len(encode_gtiff(a, _ifd_base=base, _no_header=True)) == n
    with pytest.raises(ValueError, match=rf"end at offset {base + 2 + n},"):
        encode_gtiff(a, _ifd_base=base + 2, _no_header=True)
