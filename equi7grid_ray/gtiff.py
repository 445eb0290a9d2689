"""Pure-numpy + zlib GeoTIFF codec (classic TIFF, read + write).

The reference's real raster sink is GeoTIFF via rasterio (dtype, nodata,
compress, tiled and blocksize options, CRS + Affine geotransform,
scale/offset band metadata), and its approval tests byte-compare the
written tiles.  rasterio/GDAL are not dependencies here, so this module
implements the container format directly on the stdlib:

- classic little-endian TIFF (8-byte header + one IFD),
- striped OR tiled layout (tile dims multiples of 16, edge padding),
- uint8/int8/uint16/int16/uint32/int32/float32/float64, 1..N samples
  per pixel (PlanarConfig=1, pixel-interleaved),
- compression: none (1), zlib/deflate (8; 32946 read as alias) or
  TIFF-LZW (5, the reference's default compress_type -- pure-python
  early-change codec), horizontal-differencing predictor (2) supported
  on read,
- GeoTIFF keys: ModelPixelScale + ModelTiepoint from a GDAL-style
  geotransform, GeoKeyDirectory for geographic EPSG (4326-style),
  projected EPSG (3857-style) and the seven Equi7 AEQD systems
  (EPSG 27701-27707, with the azimuthal-equidistant parameter keys
  spelled out for EPSG-database-free readers),
- GDAL conventions: GDAL_NODATA (42113) and GDAL_METADATA (42112)
  SCALE/OFFSET items -- the channel rasterio's ``_set_all_scales`` /
  ``_set_all_offsets`` uses.

The writer describes an image as a fill value plus one window: a warp
tile is mostly nodata around the few source pixels that land in it.
Only the strips (or blocks) the window touches are built and
compressed; every other chunk is constant and comes, already
compressed, from a small process-wide cache (``_CONST_CHUNKS``).  A
plain ``encode_gtiff(array)`` is the case window = whole image.

Reader and writer are independent code paths (the reader parses both
endiannesses, both layouts and predictor-2 data the writer never emits),
so round-trip tests are evidence about the format, not a tautology.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from equi7grid_ray.codec import inflate_capped

__all__ = ["GTiffImage", "encode_gtiff", "encode_gtiff_overviews",
           "decode_gtiff", "gtiff_ifd_offsets", "write_gtiff",
           "read_gtiff", "equi7_crs", "TIFF_DTYPES"]

# --- TIFF tag ids -----------------------------------------------------------
_T_WIDTH = 256
_T_LENGTH = 257
_T_BITS = 258
_T_COMPRESSION = 259
_T_PHOTOMETRIC = 262
_T_STRIP_OFFSETS = 273
_T_SAMPLES = 277
_T_ROWS_PER_STRIP = 278
_T_STRIP_COUNTS = 279
_T_PLANAR = 284
_T_PREDICTOR = 317
_T_TILE_WIDTH = 322
_T_TILE_LENGTH = 323
_T_TILE_OFFSETS = 324
_T_TILE_COUNTS = 325
_T_SAMPLE_FORMAT = 339
_T_PIXEL_SCALE = 33550
_T_TIEPOINT = 33922
_T_GEO_DIR = 34735
_T_GEO_DOUBLES = 34736
_T_GEO_ASCII = 34737
_T_GDAL_METADATA = 42112
_T_GDAL_NODATA = 42113

_U32_MAX = 2**32 - 1  # the largest offset a classic TIFF can hold

# field types: id -> (struct char, size)
_FIELD = {1: ("B", 1), 2: ("s", 1), 3: ("H", 2), 4: ("I", 4), 5: ("II", 8),
          6: ("b", 1), 8: ("h", 2), 9: ("i", 4), 10: ("ii", 8),
          11: ("f", 4), 12: ("d", 8)}

#: numpy dtype -> (BitsPerSample, SampleFormat 1=uint 2=int 3=float)
TIFF_DTYPES = {
    "uint8": (8, 1), "int8": (8, 2), "uint16": (16, 1), "int16": (16, 2),
    "uint32": (32, 1), "int32": (32, 2), "float32": (32, 3),
    "float64": (64, 3),
}
_DTYPE_OF = {v: k for k, v in TIFF_DTYPES.items()}


@dataclass
class GTiffImage:
    """Decoded GeoTIFF: ``array`` is (h, w) for one band else (bands, h,
    w); ``geotrans`` is the GDAL 6-tuple (ul_x, sx, 0, ul_y, 0, -sy)."""

    array: np.ndarray
    geotrans: tuple | None = None
    nodata: float | None = None
    crs_epsg: int | None = None
    geokeys: dict = field(default_factory=dict)
    scale: float | None = None
    offset: float | None = None
    tiled: bool = False
    block_shape: tuple[int, int] | None = None
    compression: int = 1

    @property
    def width(self) -> int:
        return self.array.shape[-1]

    @property
    def height(self) -> int:
        return self.array.shape[-2]


def equi7_crs(continent: str) -> dict:
    """GeoKey payload for one Equi7 continental AEQD system: the real
    EPSG code (27701-27707) plus explicit CT_AzimuthalEquidistant
    parameters so readers without an EPSG database can still place the
    raster (params from constants.CONTINENTS, the published PROJ4 defs)."""
    from equi7grid_ray.constants import CONTINENTS

    c = CONTINENTS[continent]
    return {
        "model": 1, "pcs": c.epsg, "gcs": 4326, "coord_trans": 12,
        "center_lat": c.lat_0, "center_lon": c.lon_0,
        "false_e": c.x_0, "false_n": c.y_0,
        "citation": (f"Equi7 {continent} / Azimuthal Equidistant "
                     f"(EPSG:{c.epsg})"),
    }


def _crs_payload(crs) -> dict:
    if crs is None:
        return {}
    if isinstance(crs, dict):
        return crs
    if isinstance(crs, str) and len(crs) == 2:
        return equi7_crs(crs.upper())
    code = int(crs)
    if code == 4326:
        return {"model": 2, "gcs": 4326, "citation": "WGS 84 (EPSG:4326)"}
    return {"model": 1, "pcs": code, "citation": f"EPSG:{code}"}


def _build_geokeys(crs: dict) -> tuple[list[tuple[int, int, int, int]],
                                       list[float], bytes]:
    """GeoKeyDirectory entries + double params + ascii params."""
    doubles: list[float] = []
    ascii_parts: list[bytes] = []
    keys: list[tuple[int, int, int, int]] = []

    def k_short(kid: int, val: int) -> None:
        keys.append((kid, 0, 1, int(val)))

    def k_double(kid: int, val: float) -> None:
        keys.append((kid, _T_GEO_DOUBLES, 1, len(doubles)))
        doubles.append(float(val))

    def k_ascii(kid: int, s: str) -> None:
        b = s.encode("ascii", "replace") + b"|"
        off = sum(len(p) for p in ascii_parts)
        keys.append((kid, _T_GEO_ASCII, len(b), off))
        ascii_parts.append(b)

    k_short(1024, crs.get("model", 1))      # GTModelType
    k_short(1025, 1)                        # GTRasterType = PixelIsArea
    if "citation" in crs:
        k_ascii(1026, crs["citation"])      # GTCitation
    if "gcs" in crs:
        k_short(2048, crs["gcs"])           # GeographicType
        k_short(2054, 9102)                 # angular units: degree
    if "pcs" in crs:
        k_short(3072, crs["pcs"])           # ProjectedCSType
    if "coord_trans" in crs:
        # user-defined projection spelled out (readable without EPSG db)
        k_short(3074, 32767)                # Projection: user-defined
        k_short(3075, crs["coord_trans"])   # ProjCoordTrans (12 = AEQD)
        k_double(3082, crs.get("false_e", 0.0))
        k_double(3083, crs.get("false_n", 0.0))
        k_double(3088, crs.get("center_lon", 0.0))
        k_double(3089, crs.get("center_lat", 0.0))
    if crs.get("model", 1) == 1:
        k_short(3076, 9001)                 # linear units: metre
    keys.sort(key=lambda e: e[0])
    header = (1, 1, 0, len(keys))
    flat = [header, *keys]
    dir_entries = [x for row in flat for x in row]
    ascii_blob = b"".join(ascii_parts)
    if ascii_blob and not ascii_blob.endswith(b"\x00"):
        ascii_blob += b"\x00"
    return [tuple(dir_entries[i:i + 4]) for i in range(0, len(dir_entries), 4)], \
        doubles, ascii_blob


def _gdal_metadata_xml(scale: float | None, offset: float | None,
                       extra: dict | None) -> str | None:
    items = []
    if scale is not None:
        items.append(f'<Item name="SCALE" sample="0" role="scale">{scale!r}</Item>')
    if offset is not None:
        items.append(f'<Item name="OFFSET" sample="0" role="offset">{offset!r}</Item>')
    for k, v in (extra or {}).items():
        items.append(f'<Item name="{k}">{v}</Item>')
    if not items:
        return None
    return "<GDALMetadata>\n" + "\n".join(items) + "\n</GDALMetadata>\n"


#: compressed constant chunks shared by every image this process encodes,
#: keyed by (compression, level, predictor, chunk rows, chunk cols,
#: bands, dtype, fill bytes).  Keying on bytes lets NaN and -0.0 fills
#: hit.  A value is a pure function of its key, so callers (and threads)
#: that share the cache can only share work, never change each other's
#: bytes; it is emptied when full.  A warp sink needs a handful of
#: entries (a full strip, the short last strip, a block), each a few
#: hundred bytes once deflated or LZW-coded.
_CONST_CHUNKS: dict[tuple, bytes] = {}
_CONST_CHUNKS_MAX = 64


def _encode_chunks(win: np.ndarray, canvas: tuple[int, int],
                   at: tuple[int, int], fill: np.ndarray,
                   grid: list[tuple[int, int, int, int]], comp: int,
                   level: int, predictor: int) -> list[bytes]:
    """Compressed chunks of a ``canvas``-sized image that holds ``fill``
    everywhere except ``win`` ((bands, wh, ww)) at ``at``.  ``grid``
    lists each chunk as (y, x, rows, cols); the part of a chunk past the
    canvas edge is padded with ``fill`` too.  Chunks the window misses
    are constant and come from ``_CONST_CHUNKS``."""
    bands, wh, ww = win.shape
    r0, c0 = at
    dt = fill.dtype

    def encode(block: np.ndarray) -> bytes:
        if predictor == 2:
            # per-sample horizontal differencing, wrapping in the stored
            # dtype (reader restores with a cumulative sum)
            with np.errstate(over="ignore"):
                block[:, 1:] = block[:, 1:] - block[:, :-1]
        raw = block.tobytes()
        if comp == 8:
            return zlib.compress(raw, level)
        if comp == 5:
            return _lzw_encode(raw)
        return raw

    chunks: list[bytes] = []
    for y, x, ch, cw in grid:
        ya, yb = max(y, r0), min(y + ch, r0 + wh)
        xa, xb = max(x, c0), min(x + cw, c0 + ww)
        if ya < yb and xa < xb:
            block = np.full((ch, cw, bands), fill, dt)
            block[ya - y:yb - y, xa - x:xb - x] = \
                win[:, ya - r0:yb - r0, xa - c0:xb - c0].transpose(1, 2, 0)
            chunks.append(encode(block))
            continue
        key = (comp, level, predictor, ch, cw, bands, dt.str, fill.tobytes())
        c = _CONST_CHUNKS.get(key)
        if c is None:
            c = encode(np.full((ch, cw, bands), fill, dt))
            if len(_CONST_CHUNKS) >= _CONST_CHUNKS_MAX:
                _CONST_CHUNKS.clear()
            _CONST_CHUNKS[key] = c
        chunks.append(c)
    return chunks


def encode_gtiff(
    array: np.ndarray,
    *,
    geotrans: tuple | None = None,
    crs=None,
    nodata: float | None = None,
    compress: str = "deflate",
    level: int = 6,
    tiled: bool = False,
    blockxsize: int = 256,
    blockysize: int = 256,
    rows_per_strip: int | None = None,
    predictor: int = 1,
    scale: float | None = None,
    offset: float | None = None,
    tags: dict | None = None,
    _ifd_base: int = 8,
    _no_header: bool = False,
    _subfile_type: int | None = None,
    _canvas: tuple[int, int] | None = None,
    _at: tuple[int, int] = (0, 0),
) -> bytes:
    """Encode ``array`` ((h, w) or (bands, h, w)) as classic GeoTIFF
    bytes.  ``geotrans`` is the GDAL 6-tuple; ``crs`` is an EPSG int, a
    2-letter Equi7 continent code, or a prebuilt geokey dict.
    ``predictor=2`` applies per-sample horizontal differencing before
    compression (integer dtypes only; shrinks deflate/LZW output on
    smooth rasters -- exactly the mosaic-tile case).

    ``_canvas=(h, w)`` makes ``array`` a window at ``_at=(r0, c0)`` of an
    (h, w) image filled with the nodata value (0 if None), the form a
    warp sink holds a tile in; the bytes equal those of encoding the
    filled image itself."""
    arr = np.asarray(array)
    if arr.ndim == 2:
        arr = arr[None]
    if arr.ndim != 3:
        raise ValueError("array must be (h, w) or (bands, h, w)")
    dt = arr.dtype.name
    if dt not in TIFF_DTYPES:
        raise ValueError(f"unsupported dtype {dt}; one of {sorted(TIFF_DTYPES)}")
    bands, wh, ww = arr.shape
    h, w = (wh, ww) if _canvas is None else _canvas
    r0, c0 = _at
    if r0 < 0 or c0 < 0 or r0 + wh > h or c0 + ww > w:
        raise ValueError(f"window {arr.shape[1:]} at {_at} outside the "
                         f"{h}x{w} canvas")
    bits, sfmt = TIFF_DTYPES[dt]
    comp = {"none": 1, "deflate": 8, "zlib": 8, "lzw": 5}.get(compress)
    if comp is None:
        raise ValueError(
            f"unsupported compress {compress!r} (none|deflate|lzw)")
    if predictor not in (1, 2):
        raise ValueError("predictor must be 1 or 2")
    if predictor == 2 and np.issubdtype(arr.dtype, np.floating):
        raise ValueError("predictor 2 is invalid for float data")
    # chunks are pixel-interleaved (rows, cols, bands) little-endian; the
    # fill shows around a window and pads edge blocks past the image
    fill = np.full(bands, 0 if nodata is None else nodata,
                   arr.dtype.newbyteorder("<"))

    if tiled:
        if blockxsize % 16 or blockysize % 16:
            raise ValueError("tile dims must be multiples of 16")
        grid = [(ty, tx, blockysize, blockxsize)
                for ty in range(0, h, blockysize)
                for tx in range(0, w, blockxsize)]
    else:
        if rows_per_strip is None:
            row_bytes = w * bands * arr.itemsize
            rows_per_strip = max(1, min(h, (1 << 16) // max(1, row_bytes)))
        grid = [(y, 0, min(rows_per_strip, h - y), w)
                for y in range(0, h, rows_per_strip)]
    chunks = _encode_chunks(arr, (h, w), (r0, c0), fill, grid, comp, level,
                            predictor)

    entries: list[tuple[int, int, int, object]] = []  # (tag, type, count, values)

    def tag(tid: int, ftype: int, values) -> None:
        if isinstance(values, (bytes, str)):
            if isinstance(values, str):
                values = values.encode("ascii", "replace")
            if not values.endswith(b"\x00"):
                values += b"\x00"
            entries.append((tid, ftype, len(values), values))
        else:
            vals = list(np.atleast_1d(values).tolist())
            entries.append((tid, ftype, len(vals), vals))

    tag(_T_WIDTH, 4, w)
    tag(_T_LENGTH, 4, h)
    tag(_T_BITS, 3, [bits] * bands)
    tag(_T_COMPRESSION, 3, comp)
    tag(_T_PHOTOMETRIC, 3, 1)  # BlackIsZero
    tag(_T_SAMPLES, 3, bands)
    tag(_T_PLANAR, 3, 1)
    if predictor == 2:
        tag(_T_PREDICTOR, 3, 2)
    tag(_T_SAMPLE_FORMAT, 3, [sfmt] * bands)
    n_chunks = len(chunks)
    if tiled:
        tag(_T_TILE_WIDTH, 3, blockxsize)
        tag(_T_TILE_LENGTH, 3, blockysize)
        tag(_T_TILE_OFFSETS, 4, [0] * n_chunks)   # patched below
        tag(_T_TILE_COUNTS, 4, [len(c) for c in chunks])
    else:
        tag(_T_ROWS_PER_STRIP, 4, rows_per_strip)
        tag(_T_STRIP_OFFSETS, 4, [0] * n_chunks)  # patched below
        tag(_T_STRIP_COUNTS, 4, [len(c) for c in chunks])
    if geotrans is not None:
        gt = tuple(float(v) for v in geotrans)
        if gt[2] or gt[4]:
            raise ValueError("rotated geotransforms are not supported")
        tag(_T_PIXEL_SCALE, 12, [gt[1], -gt[5], 0.0])
        tag(_T_TIEPOINT, 12, [0.0, 0.0, 0.0, gt[0], gt[3], 0.0])
    crs_d = _crs_payload(crs)
    if crs_d:
        gk, gd, ga = _build_geokeys(crs_d)
        tag(_T_GEO_DIR, 3, [x for row in gk for x in row])
        if gd:
            tag(_T_GEO_DOUBLES, 12, gd)
        if ga:
            tag(_T_GEO_ASCII, 2, ga)
    md = _gdal_metadata_xml(scale, offset, tags)
    if md is not None:
        tag(_T_GDAL_METADATA, 2, md)
    if nodata is not None:
        nd = float(nodata)
        tag(_T_GDAL_NODATA, 2, repr(int(nd)) if nd.is_integer() else repr(nd))

    if _subfile_type is not None:
        tag(254, 4, _subfile_type)  # NewSubfileType (1 = reduced image)
    entries.sort(key=lambda e: e[0])

    # layout: header(8) | IFD | out-of-line values | chunk data.
    # In segment mode (_no_header) the IFD sits at _ifd_base of the FILE
    # and the returned bytes start at the IFD (multi-IFD assembly).
    ifd_off = _ifd_base
    ifd_size = 2 + 12 * len(entries) + 4
    val_off = ifd_off + ifd_size

    # first pass: compute out-of-line sizes
    def packed(ftype: int, count: int, values) -> bytes:
        ch, sz = _FIELD[ftype]
        if ftype == 2:
            return values  # already bytes
        if ftype in (5, 10):
            raise ValueError("rational write not supported")
        return struct.pack(f"<{count}{ch}", *values)

    # layout pass: out-of-line sizes depend only on (type, count), so the
    # chunk offsets can be patched in before the blobs are actually packed
    offsets: dict[int, int] = {}
    cur = val_off
    for tid, ftype, count, values in entries:
        size = count if ftype == 2 else count * _FIELD[ftype][1]
        if size > 4:
            cur += cur % 2
            offsets[tid] = cur
            cur += size
    data_off = cur + (cur % 2)
    chunk_offs = []
    pos = data_off
    for c in chunks:
        chunk_offs.append(pos)
        pos += len(c)
    if pos > _U32_MAX:  # classic TIFF offsets are u32; BigTIFF is not written
        raise ValueError(f"GeoTIFF would end at offset {pos}, past the classic"
                         f" TIFF limit of {_U32_MAX} (BigTIFF is not supported)")

    # patch chunk-offset entry values, THEN pack the out-of-line blobs
    off_tag = _T_TILE_OFFSETS if tiled else _T_STRIP_OFFSETS
    entries = [
        (tid, ftype, count, chunk_offs if tid == off_tag else values)
        for tid, ftype, count, values in entries
    ]
    blobs: list[bytes] = []
    cur = val_off
    for tid, ftype, count, values in entries:
        b = packed(ftype, count, values)
        if len(b) > 4:
            if cur % 2:
                blobs.append(b"\x00")
                cur += 1
            assert offsets[tid] == cur
            blobs.append(b)
            cur += len(b)

    seg = bytearray()
    seg += struct.pack("<H", len(entries))
    for tid, ftype, count, values in entries:
        b = packed(ftype, count, values)
        if len(b) > 4:
            seg += struct.pack("<HHI", tid, ftype, count) + struct.pack(
                "<I", offsets[tid])
        else:
            seg += struct.pack("<HHI", tid, ftype, count) + b.ljust(4, b"\x00")
    seg += struct.pack("<I", 0)  # next-IFD pointer (patched by assemblers)
    for b in blobs:
        seg += b
    seg += b"\x00" * (data_off - ifd_off - len(seg))
    for c in chunks:
        seg += c
    if _no_header:
        return bytes(seg)
    return b"II*\x00" + struct.pack("<I", ifd_off) + bytes(seg)


# --- TIFF LZW codec (spec section 13: MSB-first variable-width codes, ----
# ClearCode 256 / EOI 257, early-change code-width bumps at 511/1023/2047)

def _lzw_encode(data: bytes) -> bytes:
    """TIFF-flavour LZW encode (the reference's default compress_type).

    Integer-keyed dictionary ((prefix_code << 8) | byte) -- no bytes
    allocation in the loop -- plus segment-wise VECTORIZED bit packing
    (codes between width changes share a width, so each run packs as
    one numpy unpackbits/packbits pass).  Measured ~5 MB/s/core
    (decode ~3 MB/s); deflate (C zlib) remains the throughput choice,
    LZW exists for reference-default compatibility.  The decoder below
    is an independent implementation."""
    out_codes: list[int] = []
    out_widths: list[int] = []
    width = 9
    out_codes.append(256)  # ClearCode first, per spec
    out_widths.append(9)
    if data:
        table: dict[int, int] = {}
        next_code = 258
        w = data[0]
        for b in data[1:]:
            key = (w << 8) | b
            c = table.get(key)
            if c is not None:
                w = c
                continue
            out_codes.append(w)
            out_widths.append(width)
            table[key] = next_code
            next_code += 1
            # early change: width bumps when next_code == 2^width - 1
            if next_code == (1 << width) - 1 and width < 12:
                width += 1
            if next_code >= 4094:  # table full: clear
                out_codes.append(256)
                out_widths.append(width)
                table.clear()
                next_code = 258
                width = 9
            w = b
        out_codes.append(w)
        out_widths.append(width)
    out_codes.append(257)  # EOI
    out_widths.append(width)

    codes = np.asarray(out_codes, np.uint32)
    widths = np.asarray(out_widths, np.uint8)
    cuts = np.flatnonzero(np.diff(widths)) + 1
    bounds = np.concatenate([[0], cuts, [len(codes)]])
    parts = []
    for i in range(len(bounds) - 1):
        a, b_ = int(bounds[i]), int(bounds[i + 1])
        wd = int(widths[a])
        seg = codes[a:b_].astype(">u4").view(np.uint8).reshape(-1, 4)
        bits = np.unpackbits(seg, axis=1)[:, 32 - wd:]
        parts.append(bits.ravel())
    return np.packbits(np.concatenate(parts)).tobytes()


def _lzw_decode(data: bytes, limit: int) -> bytes:
    """TIFF-flavour LZW decode (early-change).  Decoding stops at the
    first code that takes the output past ``limit`` bytes, so a stream
    that would decode to far more is never held in full.

    Segment-wise VECTORIZED code extraction (between width changes all
    codes share a width -> one reshape+dot per run; width-change points
    after a clear are deterministic: 253 nine-bit codes, then 512, then
    1024, then 12-bit until the next clear) and a SPAN TABLE: each
    dictionary entry is a (start, length) view into the output buffer
    itself, so emitting an entry is one C-level bytearray slice copy --
    no per-byte Python, no bytes concatenation."""
    bits = np.unpackbits(np.frombuffer(data, np.uint8))
    nbits = len(bits)
    out = bytearray()
    start = np.zeros(4096, np.int64)
    length = np.zeros(4096, np.int64)
    SCHED = ((9, 253), (10, 512), (11, 1024), (12, 1 << 30))
    pos = 0
    si = 0
    remaining = SCHED[0][1]
    next_code = 258
    prev = -1
    prev_emit = 0
    prev_len = 0
    powers = {wd: (np.int64(1) << np.arange(wd - 1, -1, -1)) for wd, _ in SCHED}
    while True:
        wd = SCHED[si][0]
        k = min(remaining, (nbits - pos) // wd)
        if k <= 0:
            return bytes(out)  # padded tail / truncated stream
        codes = bits[pos: pos + k * wd].reshape(k, wd).astype(np.int64) @ powers[wd]
        specials = np.flatnonzero((codes == 256) | (codes == 257))
        stop = int(specials[0]) if len(specials) else k
        for c in codes[:stop].tolist():
            cur = len(out)
            if prev < 0:
                if c >= 256:
                    raise ValueError("corrupt LZW stream")
                out.append(c)
                clen = 1
            elif c < 256:
                out.append(c)
                clen = 1
            elif c < next_code:
                s0 = start[c]
                clen = int(length[c])
                out += out[s0: s0 + clen]
            elif c == next_code:
                out += out[prev_emit: prev_emit + prev_len]
                out.append(out[prev_emit])
                clen = prev_len + 1
            else:
                raise ValueError("corrupt LZW stream")
            if prev >= 0 and next_code < 4096:
                # new entry = prev's bytes + first byte of c, which sit
                # ADJACENT in the output buffer (c was emitted right
                # after prev): one (start, length) span, no copy
                start[next_code] = prev_emit
                length[next_code] = prev_len + 1
                next_code += 1
            prev = c
            prev_emit = cur
            prev_len = clen
            if len(out) > limit:
                return bytes(out)
        pos += stop * wd
        remaining -= stop
        if stop < k:  # hit a clear or EOI
            pos += wd
            if int(codes[stop]) == 257:
                return bytes(out)
            si = 0
            remaining = SCHED[0][1]
            next_code = 258
            prev = -1
        elif remaining == 0:
            si += 1
            remaining = SCHED[si][1]


# --- reader -----------------------------------------------------------------

def _read_entries(buf: memoryview, bo: str,
                  ifd_off: int | None = None
                  ) -> tuple[dict[int, tuple[int, int, list]], int]:
    """Parse one IFD; returns (entries, next_ifd_offset)."""
    if ifd_off is None:
        ifd_off = struct.unpack_from(f"{bo}I", buf, 4)[0]
    n = struct.unpack_from(f"{bo}H", buf, ifd_off)[0]
    out: dict[int, tuple[int, int, list]] = {}
    for i in range(n):
        e = ifd_off + 2 + 12 * i
        tid, ftype, count = struct.unpack_from(f"{bo}HHI", buf, e)
        if ftype not in _FIELD:
            continue
        ch, sz = _FIELD[ftype]
        total = sz * count * (2 if ftype in (5, 10) else 1)
        voff = e + 8 if total <= 4 else struct.unpack_from(f"{bo}I", buf, e + 8)[0]
        if ftype == 2:
            vals = bytes(buf[voff:voff + count])
        elif ftype in (5, 10):
            raw = struct.unpack_from(f"{bo}{2 * count}{'I' if ftype == 5 else 'i'}",
                                     buf, voff)
            vals = [raw[2 * j] / (raw[2 * j + 1] or 1) for j in range(count)]
        else:
            vals = list(struct.unpack_from(f"{bo}{count}{ch}", buf, voff))
        out[tid] = (ftype, count, vals)
    nxt = struct.unpack_from(f"{bo}I", buf, ifd_off + 2 + 12 * n)[0]
    return out, nxt


def _undo_predictor2(block: np.ndarray) -> np.ndarray:
    # horizontal differencing: cumulative sum along the row axis, per band
    if block.dtype.kind == "f":
        raise ValueError("predictor 2 on float data is invalid")
    return np.cumsum(block.astype(np.int64), axis=1).astype(block.dtype)


def _tiff_bo(mv: memoryview) -> str:
    if bytes(mv[:2]) == b"II":
        bo = "<"
    elif bytes(mv[:2]) == b"MM":
        bo = ">"
    else:
        raise ValueError("not a TIFF: bad byte-order mark")
    if struct.unpack_from(f"{bo}H", mv, 2)[0] != 42:
        raise ValueError("not a classic TIFF (BigTIFF unsupported)")
    return bo


def gtiff_ifd_offsets(buf: bytes | memoryview) -> list[int]:
    """Offsets of every IFD in the chain (multi-image / overview files).
    A next-IFD pointer back to an IFD already in the chain raises
    ValueError."""
    mv = memoryview(buf)
    bo = _tiff_bo(mv)
    off = struct.unpack_from(f"{bo}I", mv, 4)[0]
    out: list[int] = []
    seen: set[int] = set()
    while off:
        if off in seen:
            raise ValueError(f"IFD chain cycles back to offset {off}")
        seen.add(off)
        out.append(off)
        _, off = _read_entries(mv, bo, off)
    return out


def _check_chunks(kind: str, offs: list, cnts: list, n: int, size: int) -> None:
    """Raise ValueError unless the offset and byte count lists both hold
    the image's ``n`` strips/tiles, and for the first one running past
    the buffer."""
    if len(offs) != n or len(cnts) != n:
        raise ValueError(f"{len(offs)} {kind} offsets and {len(cnts)} {kind} byte"
                         f" counts, but the image has {n} {kind}s")
    for i, (o, c) in enumerate(zip(offs, cnts)):
        if o + c > size:
            raise ValueError(f"{kind} {i} (offset {o}, {c} bytes) runs past"
                             f" the end of the {size}-byte buffer")


def _inflate_chunk(raw: bytes, comp: int, kind: str, i: int, need: int) -> bytes:
    """The ``need`` bytes that strip/tile ``i`` decompresses to.  A
    chunk is decompressed with its output capped at ``need``, so a
    stream that would decompress past it is named without being
    decompressed in full; a chunk that comes out longer or shorter than
    ``need``, or a corrupt or unterminated deflate stream, raises
    ValueError."""
    name = "LZW" if comp == 5 else "deflate"
    ended = True  # LZW has no end marker to check
    if comp == 5:
        out = _lzw_decode(raw, need)
    else:
        try:
            out, ended = inflate_capped(raw, need)
        except zlib.error as e:
            raise ValueError(f"corrupt deflate {kind} {i}: {e}") from None
    if len(out) > need:
        raise ValueError(f"{name} {kind} {i} decompresses to more than"
                         f" {need} bytes, expected {need}")
    if len(out) == need and not ended:
        raise ValueError(f"deflate {kind} {i} ends without its end-of-stream"
                         f" marker after {need} bytes")
    if len(out) != need:
        raise ValueError(f"{name} {kind} {i} decompresses to {len(out)} bytes,"
                         f" expected {need}")
    return out


def decode_gtiff(buf: bytes | memoryview, ifd: int = 0) -> GTiffImage:
    """Parse classic-TIFF bytes into a GTiffImage.  ``ifd`` selects an
    image in a multi-IFD chain (0 = full resolution; overview files put
    reduced images in subsequent IFDs)."""
    mv = memoryview(buf)
    bo = _tiff_bo(mv)
    offs = gtiff_ifd_offsets(mv)
    if ifd >= len(offs):
        raise ValueError(f"IFD {ifd} out of range (file has {len(offs)})")
    t, _nxt = _read_entries(mv, bo, offs[ifd])

    def one(tid: int, default=None):
        if tid not in t:
            return default
        return t[tid][2][0]

    w = one(_T_WIDTH)
    h = one(_T_LENGTH)
    if w is None or h is None:
        raise ValueError("missing ImageWidth/ImageLength")
    bands = int(one(_T_SAMPLES, 1))
    bits = t.get(_T_BITS, (3, 1, [8]))[2]
    sfmt = t.get(_T_SAMPLE_FORMAT, (3, 1, [1] * bands))[2]
    if len(set(bits)) != 1 or len(set(sfmt)) != 1:
        raise ValueError("heterogeneous band types unsupported")
    key = (int(bits[0]), int(sfmt[0]))
    if key not in _DTYPE_OF:
        raise ValueError(f"unsupported (bits, format) {key}")
    dtype = np.dtype(_DTYPE_OF[key]).newbyteorder(bo)
    comp = int(one(_T_COMPRESSION, 1))
    if comp not in (1, 5, 8, 32946):
        raise ValueError(
            f"unsupported compression {comp} (none/lzw/deflate only)")
    planar = int(one(_T_PLANAR, 1))
    if planar not in (1, 2):
        raise ValueError(f"PlanarConfiguration {planar} unsupported")
    predictor = int(one(_T_PREDICTOR, 1))
    if predictor not in (1, 2):
        raise ValueError(f"unsupported predictor {predictor}")

    tiled = _T_TILE_OFFSETS in t
    planes = bands if planar == 2 else 1
    out = np.empty((h, w, bands), dtype=dtype.newbyteorder("="))
    # PlanarConfig 2 (band-sequential): each chunk holds ONE band; the
    # chunk list runs all of band 0's chunks, then band 1's, etc.

    nb = bands if planar == 1 else 1

    def chunk_array(raw: bytes, kind: str, i: int, ch: int, cw: int) -> np.ndarray:
        need = ch * cw * nb * dtype.itemsize
        if comp != 1:
            raw = _inflate_chunk(raw, comp, kind, i, need)
        elif len(raw) < need:
            raise ValueError(f"uncompressed {kind} {i} has {len(raw)} bytes,"
                             f" expected {need}")
        a = np.frombuffer(raw, dtype=dtype, count=ch * cw * nb)
        a = a.reshape(ch, cw, nb)
        if predictor == 2:
            a = _undo_predictor2(a)
        return a

    if tiled:
        tw = int(one(_T_TILE_WIDTH))
        th = int(one(_T_TILE_LENGTH))
        offs = t[_T_TILE_OFFSETS][2]
        cnts = t[_T_TILE_COUNTS][2]
        tiles_across = (w + tw - 1) // tw
        tiles_down = (h + th - 1) // th
        per_band = tiles_across * tiles_down
        _check_chunks("tile", offs, cnts, per_band * planes, mv.nbytes)
        for i, (o, c) in enumerate(zip(offs, cnts)):
            band0 = 0 if planar == 1 else i // per_band
            j = i if planar == 1 else i % per_band
            ty = (j // tiles_across) * th
            tx = (j % tiles_across) * tw
            a = chunk_array(bytes(mv[o:o + c]), "tile", i, th, tw)
            if planar == 1:
                out[ty:ty + th, tx:tx + tw] = a[: h - ty, : w - tx]
            else:
                out[ty:ty + th, tx:tx + tw, band0] = a[: h - ty, : w - tx, 0]
        block_shape = (th, tw)
    else:
        rps = int(one(_T_ROWS_PER_STRIP, h))
        offs = t[_T_STRIP_OFFSETS][2]
        cnts = t[_T_STRIP_COUNTS][2]
        strips_per_band = (h + rps - 1) // rps
        _check_chunks("strip", offs, cnts, strips_per_band * planes, mv.nbytes)
        for i, (o, c) in enumerate(zip(offs, cnts)):
            band0 = 0 if planar == 1 else i // strips_per_band
            j = i if planar == 1 else i % strips_per_band
            y = j * rps
            rows = min(rps, h - y)
            a = chunk_array(bytes(mv[o:o + c]), "strip", i, rows, w)
            if planar == 1:
                out[y:y + rows] = a
            else:
                out[y:y + rows, :, band0] = a[:, :, 0]
        block_shape = (rps, w)

    geotrans = None
    if _T_PIXEL_SCALE in t and _T_TIEPOINT in t:
        sx, sy = t[_T_PIXEL_SCALE][2][:2]
        tp = t[_T_TIEPOINT][2]
        # tiepoint: (i, j, k, x, y, z) raster -> model
        ul_x = tp[3] - tp[0] * sx
        ul_y = tp[4] + tp[1] * sy
        geotrans = (ul_x, sx, 0.0, ul_y, 0.0, -sy)

    nodata = None
    if _T_GDAL_NODATA in t:
        s = t[_T_GDAL_NODATA][2].split(b"\x00")[0].decode("ascii", "replace")
        try:
            nodata = float(s)
        except ValueError:
            pass

    geokeys: dict[int, object] = {}
    crs_epsg = None
    if _T_GEO_DIR in t:
        d = t[_T_GEO_DIR][2]
        nk = d[3]
        doubles = t.get(_T_GEO_DOUBLES, (12, 0, []))[2]
        ascii_b = t.get(_T_GEO_ASCII, (2, 0, b""))[2]
        for i in range(nk):
            kid, loc, cnt, val = d[4 + 4 * i: 8 + 4 * i]
            if loc == 0:
                geokeys[kid] = val
            elif loc == _T_GEO_DOUBLES:
                geokeys[kid] = doubles[val] if cnt == 1 else doubles[val:val + cnt]
            elif loc == _T_GEO_ASCII:
                geokeys[kid] = ascii_b[val:val + cnt].rstrip(b"|\x00").decode(
                    "ascii", "replace")
        model = geokeys.get(1024)
        if model == 2:
            crs_epsg = geokeys.get(2048)
        else:
            crs_epsg = geokeys.get(3072)
        if crs_epsg == 32767:
            crs_epsg = None

    scale = offset = None
    if _T_GDAL_METADATA in t:
        xml = t[_T_GDAL_METADATA][2].split(b"\x00")[0].decode("utf-8", "replace")
        import re

        m = re.search(r'name="SCALE"[^>]*>([^<]+)<', xml)
        if m:
            scale = float(m.group(1))
        m = re.search(r'name="OFFSET"[^>]*>([^<]+)<', xml)
        if m:
            offset = float(m.group(1))

    arr = out.transpose(2, 0, 1)
    if bands == 1:
        arr = arr[0]
    return GTiffImage(array=arr, geotrans=geotrans, nodata=nodata,
                      crs_epsg=crs_epsg, geokeys=geokeys, scale=scale,
                      offset=offset, tiled=tiled, block_shape=block_shape,
                      compression=comp)


def write_gtiff(path, array, **kwargs) -> str:
    """encode_gtiff to a file; returns the path."""
    data = encode_gtiff(array, **kwargs)
    with open(path, "wb") as f:
        f.write(data)
    return str(path)


def read_gtiff(path) -> GTiffImage:
    with open(path, "rb") as f:
        return decode_gtiff(f.read())


def _mean_reduce(arr: np.ndarray, f: int) -> np.ndarray:
    """Block-mean downsample by ``f`` with edge replication; integer
    dtypes round to nearest."""
    a = arr[None] if arr.ndim == 2 else arr
    b, h, w = a.shape
    H = (h + f - 1) // f * f
    W = (w + f - 1) // f * f
    pad = np.empty((b, H, W), np.float64)
    pad[:, :h, :w] = a
    if H > h:
        pad[:, h:, :w] = a[:, h - 1: h, :]
    if W > w:
        pad[:, :, w:] = pad[:, :, w - 1: w]
    red = pad.reshape(b, H // f, f, W // f, f).mean(axis=(2, 4))
    if np.issubdtype(arr.dtype, np.integer):
        red = np.rint(red)
    red = red.astype(arr.dtype)
    return red[0] if arr.ndim == 2 else red


def encode_gtiff_overviews(
    array: np.ndarray,
    factors: tuple[int, ...] = (2, 4, 8),
    *,
    geotrans: tuple | None = None,
    **kwargs,
) -> bytes:
    """Encode ``array`` plus a mean-reduced overview pyramid as ONE
    multi-IFD GeoTIFF (the COG-style layout GDAL's BuildOverviews
    produces: full image in IFD 0, reduced images with NewSubfileType=1
    chained behind it, each with its own scaled geotransform).  Read
    levels back with ``decode_gtiff(buf, ifd=k)``.  A fill + window
    image (``encode_gtiff``'s ``_canvas``/``_at``) keeps that form in
    IFD 0; the overviews are reduced from the filled image."""
    a = np.asarray(array)
    canvas = kwargs.pop("_canvas", None)
    at = kwargs.pop("_at", (0, 0))
    full = a
    if canvas is not None:
        nd = kwargs.get("nodata")
        full = np.full((*a.shape[:-2], *canvas), 0 if nd is None else nd,
                       a.dtype)
        full[..., at[0]:at[0] + a.shape[-2], at[1]:at[1] + a.shape[-1]] = a
    levels = [dict(array=a, _canvas=canvas, _at=at)] + [
        {"array": _mean_reduce(full, f)} for f in factors]
    gts: list[tuple | None] = [geotrans]
    for f in factors:
        gts.append(None if geotrans is None else (
            geotrans[0], geotrans[1] * f, geotrans[2],
            geotrans[3], geotrans[4], geotrans[5] * f))
    segs: list[bytearray] = []
    base = 8
    for i, (lv, gt) in enumerate(zip(levels, gts)):
        seg = bytearray(encode_gtiff(
            **lv, geotrans=gt, _ifd_base=base, _no_header=True,
            _subfile_type=(1 if i else None), **kwargs))
        segs.append(seg)
        base += len(seg)
    # chain the IFDs: patch each segment's next-IFD pointer
    cum = 8
    for i, seg in enumerate(segs):
        n = struct.unpack_from("<H", seg, 0)[0]
        nxt = cum + len(seg) if i + 1 < len(segs) else 0
        struct.pack_into("<I", seg, 2 + 12 * n, nxt)
        cum += len(seg)
    return b"II*\x00" + struct.pack("<I", 8) + b"".join(bytes(x) for x in segs)
