"""Deterministic synthetic image+caption table (the BASELINE.json
``input_hint`` schema): columns

    image_id:string, bytes:binary, w:int32, h:int32, fmt:string,
    caption:string, phash:int64

Row ``i`` carries a deterministic pixel pattern ((r*h + c*w + i) % 256),
a low-discrepancy global center coordinate

    lon = -180 + (i * PHI) % 360,   lat = -90 + (i * PSI) % 180

(poles + antimeridian covered), and a 64-bit FNV-1a hash of the first 64
payload bytes as ``phash`` (rows with i % 1000 == 0, i > 0 reuse row 0's
phash to plant exact duplicates for the dedup operators).  The table is
Lance-shaped but stored as Parquet (Lance is unavailable in this
sandbox); fragments = parquet files so resume/skip logic has the same
granularity.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pyarrow as pa

from equi7grid_ray.codec import encode_image

PHI = 137.50776405
PSI = 73.50776405
_SIZES = (32, 64, 128)
_FMTS = ("raw", "png")

FNV_OFFSET = np.uint64(0xCBF29CE484222325)
FNV_PRIME = np.uint64(0x100000001B3)


def centers_for_index(i: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic global center lon/lat for row indices (float64)."""
    i = np.asarray(i, dtype=np.float64)
    lon = -180.0 + np.mod(i * PHI, 360.0)
    lat = -90.0 + np.mod(i * PSI, 180.0)
    return lon, lat


def fnv1a64_prefix(data: np.ndarray) -> np.ndarray:
    """Vectorized FNV-1a over the first <=64 bytes of each row.

    ``data``: (n, 64) uint8 (zero-padded).  Returns int64 (reinterpreted).
    """
    h = np.full(data.shape[0], FNV_OFFSET, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for k in range(data.shape[1]):
            h = (h ^ data[:, k].astype(np.uint64)) * FNV_PRIME
    return h.view(np.int64)


def make_batch(start: int, n: int) -> pa.Table:
    """Build rows [start, start+n) of the synthetic image table."""
    idx = np.arange(start, start + n, dtype=np.int64)
    w = np.array([_SIZES[i % 3] for i in idx], dtype=np.int32)
    h = np.array([_SIZES[(i // 3) % 3] for i in idx], dtype=np.int32)
    fmt = np.array([_FMTS[i % 2] for i in idx])
    lon, lat = centers_for_index(idx)
    payloads = []
    for j, i in enumerate(idx):
        hh, ww = int(h[j]), int(w[j])
        r = np.arange(hh, dtype=np.int64)[:, None]
        c = np.arange(ww, dtype=np.int64)[None, :]
        img = ((r * hh + c * ww + int(i)) % 256).astype(np.uint8)
        payloads.append(encode_image(img, str(fmt[j])))
    prefix = np.zeros((n, 64), dtype=np.uint8)
    for j, b in enumerate(payloads):
        k = min(64, len(b))
        prefix[j, :k] = np.frombuffer(b[:k], dtype=np.uint8)
    phash = fnv1a64_prefix(prefix)
    # plant duplicates: every 1000th row reuses row 0's phash
    if (idx % 1000 == 0).any():
        base = fnv1a64_prefix(_row0_prefix())
        phash = np.where((idx % 1000 == 0) & (idx > 0), base[0], phash)
    captions = [
        f"synthetic scene {int(i)} at ({lo:.4f},{la:.4f})"
        for i, lo, la in zip(idx, lon, lat)
    ]
    return pa.table(
        {
            "image_id": pa.array([f"img{int(i):012d}" for i in idx], pa.string()),
            "bytes": pa.array(payloads, pa.binary()),
            "w": pa.array(w, pa.int32()),
            "h": pa.array(h, pa.int32()),
            "fmt": pa.array(fmt.tolist(), pa.string()),
            "caption": pa.array(captions, pa.string()),
            "phash": pa.array(phash, pa.int64()),
        }
    )


def make_rgb_batch(start: int, n: int) -> pa.Table:
    """RGB variant of :func:`make_batch`: every row is an 8-bit RGB
    (color type 2) PNG with band-offset deterministic pixels

        px(band, r, c) = (r*h + c*w + i + 85*band) % 256

    so the SQL oracle can rederive channel-exact stats.  Same schema as
    the grayscale table (``fmt`` stays ``png``: the channel count lives
    in the PNG header, as it does for real payloads)."""
    idx = np.arange(start, start + n, dtype=np.int64)
    w = np.array([_SIZES[i % 3] for i in idx], dtype=np.int32)
    h = np.array([_SIZES[(i // 3) % 3] for i in idx], dtype=np.int32)
    lon, lat = centers_for_index(idx)
    payloads = []
    for j, i in enumerate(idx):
        hh, ww = int(h[j]), int(w[j])
        r = np.arange(hh, dtype=np.int64)[:, None, None]
        c = np.arange(ww, dtype=np.int64)[None, :, None]
        b = np.arange(3, dtype=np.int64)[None, None, :]
        img = ((r * hh + c * ww + int(i) + 85 * b) % 256).astype(np.uint8)
        payloads.append(encode_image(img, "png"))
    prefix = np.zeros((n, 64), dtype=np.uint8)
    for j, p in enumerate(payloads):
        k = min(64, len(p))
        prefix[j, :k] = np.frombuffer(p[:k], dtype=np.uint8)
    captions = [
        f"synthetic rgb scene {int(i)} at ({lo:.4f},{la:.4f})"
        for i, lo, la in zip(idx, lon, lat)
    ]
    return pa.table(
        {
            "image_id": pa.array([f"rgb{int(i):012d}" for i in idx], pa.string()),
            "bytes": pa.array(payloads, pa.binary()),
            "w": pa.array(w, pa.int32()),
            "h": pa.array(h, pa.int32()),
            "fmt": pa.array(["png"] * n, pa.string()),
            "caption": pa.array(captions, pa.string()),
            "phash": pa.array(fnv1a64_prefix(prefix), pa.int64()),
        }
    )


#: deterministic 64-entry palette for the paletted-PNG fixture:
#: palette[j] = ((7j+13) % 256, (11j+29) % 256, (3j+5) % 256)
PAL_K = 64


def pal_palette() -> np.ndarray:
    j = np.arange(PAL_K, dtype=np.int64)
    return np.stack([(7 * j + 13) % 256, (11 * j + 29) % 256,
                     (3 * j + 5) % 256], axis=1).astype(np.uint8)


def make_pal_batch(start: int, n: int) -> pa.Table:
    """Paletted (color type 3) PNG variant: row i's INDEX at (r, c) is
    ((r*h + c*w + i) % PAL_K); pixels are the palette entries, so the
    SQL oracle rederives channel-exact stats through the same 64-entry
    palette literal.  Same schema as make_batch (fmt stays 'png': the
    color type lives in the PNG header)."""
    from equi7grid_ray.codec import encode_png_pal8

    idx = np.arange(start, start + n, dtype=np.int64)
    w = np.array([_SIZES[i % 3] for i in idx], dtype=np.int32)
    h = np.array([_SIZES[(i // 3) % 3] for i in idx], dtype=np.int32)
    lon, lat = centers_for_index(idx)
    pal = pal_palette()
    payloads = []
    for j, i in enumerate(idx):
        hh, ww = int(h[j]), int(w[j])
        r = np.arange(hh, dtype=np.int64)[:, None]
        c = np.arange(ww, dtype=np.int64)[None, :]
        ind = ((r * hh + c * ww + int(i)) % PAL_K).astype(np.uint8)
        payloads.append(encode_png_pal8(ind, pal))
    prefix = np.zeros((n, 64), dtype=np.uint8)
    for j, p in enumerate(payloads):
        k = min(64, len(p))
        prefix[j, :k] = np.frombuffer(p[:k], dtype=np.uint8)
    captions = [
        f"synthetic paletted scene {int(i)} at ({lo:.4f},{la:.4f})"
        for i, lo, la in zip(idx, lon, lat)
    ]
    return pa.table(
        {
            "image_id": pa.array([f"pal{int(i):012d}" for i in idx], pa.string()),
            "bytes": pa.array(payloads, pa.binary()),
            "w": pa.array(w, pa.int32()),
            "h": pa.array(h, pa.int32()),
            "fmt": pa.array(["png"] * n, pa.string()),
            "caption": pa.array(captions, pa.string()),
            "phash": pa.array(fnv1a64_prefix(prefix), pa.int64()),
        }
    )


def _row0_prefix() -> np.ndarray:
    img = ((np.arange(32)[:, None] * 32 + np.arange(32)[None, :] * 32) % 256).astype(np.uint8)
    b = encode_image(img, "raw")[:64]
    out = np.zeros((1, 64), dtype=np.uint8)
    out[0, : len(b)] = np.frombuffer(b, dtype=np.uint8)
    return out


def write_images_parquet(
    out_dir: str | Path, n_rows: int, rows_per_file: int = 25_000
) -> Path:
    """Materialize the table as a directory of parquet fragments
    (idempotent: skips files that already exist -- resumable layout)."""
    import pyarrow.parquet as pq

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for start in range(0, n_rows, rows_per_file):
        n = min(rows_per_file, n_rows - start)
        f = out / f"part-{start:012d}-{n}.parquet"
        if f.exists():
            continue
        tmp = f.with_suffix(".tmp")
        # small row groups keep files splittable into many read blocks;
        # no parquet compression: the payload bytes are already PNG/raw,
        # snappy over them burns read+write CPU for ~nothing
        pq.write_table(make_batch(start, n), tmp, row_group_size=4096,
                       compression="none")
        tmp.rename(f)
    return out

