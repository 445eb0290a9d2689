"""Minimal image codec on the stdlib only (zlib): 8-bit grayscale or
RGB (color type 2) PNG and raw C-order bytes.

Stands in for the reference's rasterio/GDAL raster I/O
(/root/reference/src/equi7grid/warp.py:290-330) -- the sandbox has no
imaging libraries, so the engine's multimodal columns are ``bytes:
binary`` payloads in one of these two formats (``fmt`` column).  Decode
unfilters with numpy; encode writes filter-0 rows.  The per-row
invariant (decoded-pixel allclose, BASELINE.json input_hint) is checked
against these codecs in tests.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

_PNG_SIG = b"\x89PNG\r\n\x1a\n"


def _chunk(tag: bytes, payload: bytes) -> bytes:
    return (
        struct.pack(">I", len(payload))
        + tag
        + payload
        + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF)
    )


def _encode_png(img: np.ndarray, ctype: int, level: int) -> bytes:
    h, w = img.shape[:2]
    ch = 1 if img.ndim == 2 else img.shape[2]
    ihdr = struct.pack(">IIBBBBB", w, h, 8, ctype, 0, 0, 0)
    raw = np.empty((h, w * ch + 1), dtype=np.uint8)
    raw[:, 0] = 0  # filter type 0 per scanline
    raw[:, 1:] = img.reshape(h, w * ch)
    idat = zlib.compress(raw.tobytes(), level)
    return _PNG_SIG + _chunk(b"IHDR", ihdr) + _chunk(b"IDAT", idat) + _chunk(b"IEND", b"")


def encode_png_gray8(img: np.ndarray, level: int = 6) -> bytes:
    """Encode a (h, w) uint8 array as an 8-bit grayscale PNG."""
    img = np.ascontiguousarray(img, dtype=np.uint8)
    if img.ndim != 2:
        raise ValueError("gray8 PNG needs a (h, w) array")
    return _encode_png(img, 0, level)


def encode_png_rgb8(img: np.ndarray, level: int = 6) -> bytes:
    """Encode a (h, w, 3) uint8 array as an 8-bit RGB (color type 2)
    PNG -- pure zlib, interleaved filter-0 scanlines."""
    img = np.ascontiguousarray(img, dtype=np.uint8)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError("rgb8 PNG needs a (h, w, 3) array")
    return _encode_png(img, 2, level)


def encode_png_pal8(indices: np.ndarray, palette: np.ndarray,
                    level: int = 6) -> bytes:
    """Encode a (h, w) uint8 index array + (K, 3) uint8 palette as an
    8-bit paletted (color type 3) PNG: a PLTE chunk followed by
    filter-0 index scanlines."""
    indices = np.ascontiguousarray(indices, dtype=np.uint8)
    palette = np.ascontiguousarray(palette, dtype=np.uint8)
    if indices.ndim != 2:
        raise ValueError("pal8 PNG needs a (h, w) index array")
    if palette.ndim != 2 or palette.shape[1] != 3 or not 1 <= len(palette) <= 256:
        raise ValueError("palette must be (K<=256, 3) uint8")
    if indices.max(initial=0) >= len(palette):
        raise ValueError("index out of palette range")
    h, w = indices.shape
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 3, 0, 0, 0)
    raw = np.empty((h, w + 1), dtype=np.uint8)
    raw[:, 0] = 0
    raw[:, 1:] = indices
    idat = zlib.compress(raw.tobytes(), level)
    return (_PNG_SIG + _chunk(b"IHDR", ihdr) + _chunk(b"PLTE", palette.tobytes())
            + _chunk(b"IDAT", idat) + _chunk(b"IEND", b""))


_CHUNK_HEAD = struct.Struct(">I4s")  # chunk length, tag
_IHDR = struct.Struct(">IIBB")  # width, height, bit depth, color type


def _png_chunks(buf) -> tuple[int, int, int, memoryview | None, list]:
    """``(w, h, ctype, plte, idat_parts)`` of an 8-bit grayscale, RGB or
    paletted PNG; ``plte`` and the IDAT parts are memoryview slices of
    ``buf`` (no payload copies)."""
    buf = memoryview(buf)
    if bytes(buf[:8]) != _PNG_SIG:
        raise ValueError("not a PNG")
    pos, end = 8, len(buf)
    w = h = ctype = None
    plte = None
    idat_parts: list = []
    while pos < end:
        if pos + _CHUNK_HEAD.size > end:
            raise ValueError(f"PNG chunk header at byte {pos} runs past the end"
                             f" of the {end}-byte buffer")
        ln, tag = _CHUNK_HEAD.unpack_from(buf, pos)
        if tag == b"IDAT":
            idat_parts.append(buf[pos + 8 : pos + 8 + ln])
        elif tag == b"IHDR":
            if pos + 8 + _IHDR.size > end:
                raise ValueError(f"PNG IHDR at byte {pos} runs past the end"
                                 f" of the {end}-byte buffer")
            w, h, bit, ctype = _IHDR.unpack_from(buf, pos + 8)
            if bit != 8 or ctype not in (0, 2, 3):
                raise NotImplementedError(
                    "only 8-bit grayscale/RGB/paletted PNG supported")
        elif tag == b"PLTE":
            plte = buf[pos + 8 : pos + 8 + ln]
        elif tag == b"IEND":
            break
        pos += 12 + ln
    if w is None:
        raise ValueError("PNG without an IHDR chunk")
    return w, h, ctype, plte, idat_parts


def _stream_size_error(got: int, size: int) -> ValueError:
    if got > size:
        return ValueError(f"oversized PNG stream: more than {size} bytes inflated,"
                          f" IHDR needs {size}")
    return ValueError(f"truncated PNG stream: {got} bytes inflated, IHDR needs {size}")


def inflate_capped(data, need: int) -> tuple[bytes, bool]:
    """Inflate the zlib stream ``data`` with its output capped at
    ``need + 1`` bytes, so a stream that holds more than ``need`` bytes
    is never inflated in full: ``(out, ended)``, ``ended`` True when the
    stream's end-of-stream marker was reached.  ``len(out) > need``
    means the stream holds more than ``need`` bytes.  A corrupt stream
    raises ``zlib.error``."""
    d = zlib.decompressobj()
    out = d.decompress(data, need + 1)
    return out, d.eof


def _inflate(idat_parts: list, size: int) -> bytes:
    """One-shot inflate of the IDAT stream, which must hold exactly
    ``size`` bytes (a filter byte plus one scanline per row); a stream
    that holds more is not inflated past ``size + 1`` bytes.  A corrupt,
    truncated or oversized stream raises ValueError."""
    idat = idat_parts[0] if len(idat_parts) == 1 else b"".join(idat_parts)
    try:
        out, ended = inflate_capped(idat, size)
    except zlib.error as e:
        raise ValueError(f"truncated or corrupt PNG stream: {e}") from None
    if len(out) > size:
        raise _stream_size_error(len(out), size)
    if not ended:
        raise ValueError(f"truncated or corrupt PNG stream: no end-of-stream marker"
                         f" after {len(out)} bytes, IHDR needs {size}")
    if len(out) != size:
        raise _stream_size_error(len(out), size)
    return out


def decode_png(buf, copy: bool = True) -> np.ndarray:
    """Decode an 8-bit grayscale (color type 0), RGB (color type 2) or
    paletted (color type 3, expanded through its PLTE) PNG produced by
    any filter-0/1/2 encoder; returns (h, w) or (h, w, 3).

    Accepts any bytes-like object (bytes, memoryview over an Arrow value
    buffer) without copying the payload.  By default the returned array
    is an independent writable copy; hot read-only paths pass
    ``copy=False`` to get a view into the decompressed buffer (saves one
    full-image copy per decode, but the result is read-only and pins the
    (h, w*ch + 1) buffer alive)."""
    w, h, ctype, plte, idat_parts = _png_chunks(buf)
    ch = 3 if ctype == 2 else 1  # paletted scanlines carry indices
    if ctype == 3 and plte is None:
        raise ValueError("paletted PNG without a PLTE chunk")
    raw = np.frombuffer(_inflate(idat_parts, h * (w * ch + 1)),
                        dtype=np.uint8).reshape(h, w * ch + 1)
    if ctype == 3:
        plte = np.frombuffer(plte, dtype=np.uint8).reshape(-1, 3)
        # palette gather: (h, w) indices -> (h, w, 3) RGB (always a new
        # array, so `copy` is moot); filters on index rows are the same
        # byte-domain filters
        idx = raw[:, 1:]
        filters = raw[:, 0]
        if not (filters == 0).all():
            idx = idx.copy()
            for r in range(h):
                f = filters[r]
                if f == 0:
                    continue
                if f == 1:
                    idx[r] = np.cumsum(idx[r], dtype=np.uint64).astype(np.uint8)
                elif f == 2:  # up; the row above the first is zeros
                    if r:
                        idx[r] = (idx[r].astype(np.uint16) + idx[r - 1]).astype(np.uint8)
                else:
                    raise NotImplementedError(f"PNG filter {f} unsupported")
        return plte[idx]
    filters = raw[:, 0]
    if (filters == 0).all():
        img = raw[:, 1:].copy() if copy else raw[:, 1:]
        return img if ch == 1 else img.reshape(h, w, ch)
    img = raw[:, 1:].copy()
    for r in range(h):  # per-scanline unfilter (sub/up only)
        f = filters[r]
        if f == 0:
            continue
        if f == 1:  # sub: recon[x] = raw[x] + recon[x - bpp], per channel
            img[r] = np.cumsum(img[r].reshape(w, ch), axis=0,
                               dtype=np.uint64).astype(np.uint8).reshape(-1)
        elif f == 2:  # up; the row above the first is zeros
            if r:
                img[r] = (img[r].astype(np.uint16) + img[r - 1]).astype(np.uint8)
        else:
            raise NotImplementedError(f"PNG filter {f} unsupported")
    return img if ch == 1 else img.reshape(h, w, ch)


#: largest count of 8-bit samples whose sum is exact in a uint32
#: accumulator: 255 * 16_843_009 == 2**32 - 1
U32_SUM_MAX_SAMPLES = 16_843_009


def _sum_u8(a: np.ndarray) -> int:
    """Exact sum of a uint8 array, accumulated in uint32 (uint64 when
    ``a`` is too long for uint32 to be exact)."""
    acc = np.uint32 if len(a) <= U32_SUM_MAX_SAMPLES else np.uint64
    return int(np.add.reduce(a, dtype=acc))


def png_stream_stats(buf, keep_rows=None, chunk: int = 1 << 16, *,
                     sumsq: bool = True):
    """Pixel sum and sum of squares (exact integers) of a filter-0 8-bit
    gray/RGB PNG and, optionally, copies of the requested scanlines --
    without materializing a decoded frame.  A frame whose filter+pixel
    stream fits ``chunk`` bytes inflates in one shot; a larger one
    streams through a bounded ``chunk``-byte window (zlib.decompressobj
    max_length), so the working set stays cache-resident however large
    the frame is.  The filter bytes are verified 0, so the stats over
    the inflated stream are the pixel stats.

    The kernel per window (or per one-shot frame): with ``sumsq=True`` a
    float64 cast, ``sum`` and ``f @ f`` -- every partial sum is an
    integer below 2**53, so both are exact.  With ``sumsq=False`` only
    the sum is taken, as ``np.add.reduce(f, dtype=uint32)`` on the uint8
    stream (``uint64`` past ``U32_SUM_MAX_SAMPLES`` samples), exact with
    no cast; ``psumsq`` is then None.

    Returns ``(psum, psumsq, h, w, ch, rows)`` where ``rows`` is a
    ``(len(keep_rows), w*ch)`` uint8 array (or None), or ``None`` for a
    paletted PNG or when any scanline uses a non-zero filter -- callers
    fall back to :func:`decode_png`.  A corrupt or truncated stream
    raises ValueError.
    """
    w, h, ctype, _plte, idat_parts = _png_chunks(buf)
    if ctype == 3:
        return None  # paletted: stats need the PLTE gather
    ch = 1 if ctype == 0 else 3
    stride = w * ch + 1
    size = h * stride

    if size <= chunk:
        out = _inflate(idat_parts, size)
        if out[::stride].count(0) != h:  # the filter byte of every scanline
            return None
        f = np.frombuffer(out, dtype=np.uint8)
        rows = None
        if keep_rows is not None:
            rows = f.reshape(h, stride)[np.asarray(keep_rows, dtype=np.intp), 1:]
        if not sumsq:
            return _sum_u8(f), None, h, w, ch, rows
        x = f.astype(np.float64)
        return int(x.sum()), int(x @ x), h, w, ch, rows

    rows = None
    spans: list[tuple[int, int, int]] = []  # (stream_start, stream_end, out_row)
    if keep_rows is not None:
        rows = np.empty((len(keep_rows), w * ch), dtype=np.uint8)
        spans = [(int(r) * stride + 1, int(r) * stride + stride, k)
                 for k, r in enumerate(keep_rows)]

    psum = 0
    psumsq = 0 if sumsq else None
    spos = 0  # absolute position in the decompressed filter+pixel stream

    def process(arr: np.ndarray) -> bool:
        nonlocal psum, psumsq, spos
        ln = len(arr)
        if spos + ln > size:  # stop at the first window past the IHDR's size
            raise _stream_size_error(spos + ln, size)
        # filter bytes live at multiples of stride; verify 0
        k0 = -(-spos // stride)
        if arr[k0 * stride - spos :: stride].any():
            return False  # filtered PNG: caller decodes fully
        if sumsq:
            x = arr.astype(np.float64)
            psum += int(x.sum())
            psumsq += int(x @ x)
        else:
            psum += _sum_u8(arr)
        for s0, s1, k in spans:
            a = max(s0, spos)
            b = min(s1, spos + ln)
            if a < b:
                rows[k, a - s0 : b - s0] = arr[a - spos : b - spos]
        spos += ln
        return True

    d = zlib.decompressobj()
    try:
        for part in idat_parts:
            data = d.decompress(part, chunk)
            while True:
                if data and not process(np.frombuffer(data, dtype=np.uint8)):
                    return None
                if not d.unconsumed_tail:
                    break
                data = d.decompress(d.unconsumed_tail, chunk)
        tail = d.flush()
    except zlib.error as e:
        raise ValueError(f"truncated or corrupt PNG stream: {e}") from None
    if tail and not process(np.frombuffer(tail, dtype=np.uint8)):
        return None
    if spos != size:
        raise _stream_size_error(spos, size)
    return psum, psumsq, h, w, ch, rows


def encode_image(img: np.ndarray, fmt: str) -> bytes:
    if fmt == "raw":
        return np.ascontiguousarray(img, dtype=np.uint8).tobytes()
    if fmt == "png":
        return encode_png_rgb8(img) if img.ndim == 3 else encode_png_gray8(img)
    if fmt in ("jpeg", "jpg"):
        from equi7grid_ray.jpeg import encode_jpeg_baseline

        return encode_jpeg_baseline(np.ascontiguousarray(img, np.uint8))
    raise NotImplementedError(f"format {fmt!r} (real image libs not in sandbox)")


def decode_image(buf: bytes, fmt: str, w: int, h: int, dtype="uint8",
                 bands: int = 1, copy: bool = True) -> np.ndarray:
    """Decode a payload to (h, w) -- or (bands, h, w) when bands > 1.
    ``raw`` supports any numpy dtype and band count (little-endian
    C-order band-sequential, the reference's GDAL band/dtype generality,
    warp.py:290-330); ``png`` is single-band 8-bit grayscale."""
    if fmt == "raw":
        a = np.frombuffer(buf, dtype=np.dtype(dtype))
        if bands > 1:
            return a.reshape(bands, h, w)
        return a.reshape(h, w)
    if fmt == "png":
        if np.dtype(dtype) != np.uint8:
            raise NotImplementedError("png payloads are 8-bit")
        # channel count comes from the IHDR, not the bands argument:
        # returns (h, w) for grayscale, (h, w, 3) interleaved for RGB
        return decode_png(buf, copy=copy)
    if fmt in ("jpeg", "jpg"):
        # baseline sequential T.81 (jpeg.py); returns (h, w) gray or
        # (h, w, 3) RGB like the png path
        from equi7grid_ray.jpeg import decode_jpeg

        return decode_jpeg(buf)
    raise NotImplementedError(
        f"image format {fmt!r}: codec unavailable in sandbox "
        "(raw/png/baseline-jpeg supported)")
