"""Multimodal payload stages: images/audio/video as opaque ``binary``
columns with typed metadata.

The sandbox has no imaging/audio libraries, so the *decode kernels* for
formats beyond raw/PNG-gray8 are stubs behind NotImplementedError with a
deterministic fake decoder for tests -- the Ray-side plumbing (schema,
batch shapes, actor signature, output layout) is real and tested, per
the build brief.  Image decode for 'raw'/'png' is fully real
(equi7grid_ray.codec).

Every whole-frame operator reads its input through :func:`frames` (one
decoded luma frame per row) and is declared as a :class:`_FrameStats`
(fixed int64 columns per image) or :class:`_FrameRows` (a variable
number of rows per image); the PCM audio operators read s16le samples
through :func:`_pcm` the same way.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

from equi7grid_ray.arrowutil import binary_view
from equi7grid_ray.codec import decode_image, png_stream_stats

__all__ = ["DecodeImages", "DHashImages", "AHashImages", "PHashImages",
           "PatchStats", "HistEqualize", "PyramidStats", "SobelStats",
           "MomentStats", "HarrisStats", "HeaderAudit", "TemplateSAD",
           "QuadtreeStats",
           "MorphStats", "GLCMStats", "QualityGate", "HOGStats",
           "VideoCuts", "AutocorrAudio",
           "OtsuThreshold", "BandAlgebra", "BlobStats", "BlobBoxes",
           "BlobPerimeter", "SeamStats", "DitherStats",
           "RleStats",
           "label_runs", "label_run_boxes", "phash_basis", "dhash_near_dup",
           "image_canonical_ids", "image_ensemble_canonical_ids",
           "AudioFeatures", "PCMAudioFeatures", "AudioGate", "AudioVAD",
           "HoughLines4", "DistanceTransform",
           "FrameSampler", "frames",
           "fake_decode"]


def frames(batch: pa.Table, luma: bool = True):
    """Yield ``(j, frame)`` for every row of an image batch
    (``bytes``/``fmt``/``w``/``h``): payload j decoded by
    :func:`codec.decode_image` (zero-copy for 'raw'), an unsupported
    format raising NotImplementedError there.  RGB frames fold to 2-D
    uint8 integer luma (R+G+B)//3 unless ``luma=False``."""
    data, offs = binary_view(batch.column("bytes"))
    fmts = batch.column("fmt").to_pylist()
    ws = batch.column("w").to_numpy()
    hs = batch.column("h").to_numpy()
    for j, f in enumerate(fmts):
        img = decode_image(data[offs[j] : offs[j + 1]], f,
                           int(ws[j]), int(hs[j]), copy=False)
        if luma and img.ndim == 3:
            img = (img.sum(axis=2, dtype=np.uint32) // 3).astype(np.uint8)
        yield j, img


def _pcm(batch: pa.Table):
    """Yield ``(j, samples)``: payload j read as signed 16-bit
    little-endian PCM (int64 samples; a trailing odd byte is dropped).
    A 'pcm' payload -- and every payload of a table without ``fmt``, or
    a 'raw' one of a table without ``w``/``h`` -- is the WAV body
    itself; an image payload contributes its decoded pixel bytes (RGB
    interleaved), which keeps the audio ops SQL-mirrorable over the
    pixel formula."""
    data, offs = binary_view(batch.column("bytes"))
    names = batch.column_names
    fmts = (batch.column("fmt").to_pylist() if "fmt" in names
            else ["raw"] * batch.num_rows)
    sized = "w" in names and "h" in names
    if sized:
        ws, hs = batch.column("w").to_numpy(), batch.column("h").to_numpy()
    for j, f in enumerate(fmts):
        raw = np.frombuffer(data, np.uint8, count=int(offs[j + 1] - offs[j]),
                            offset=int(offs[j]))
        if f != "pcm" and (sized or f != "raw"):
            if not sized:
                raise NotImplementedError(
                    f"audio format {f!r}: codec libraries unavailable")
            raw = decode_image(raw, f, int(ws[j]), int(hs[j]),
                               copy=False).reshape(-1)
        m = len(raw) // 2
        u = raw[: 2 * m].reshape(m, 2).astype(np.int64)
        v = u[:, 0] + 256 * u[:, 1]
        yield j, v - (v >= 32768) * 65536


def _image_table(batch: pa.Table, cols: dict, take=None) -> pa.Table:
    """``image_id`` (gathered by ``take`` for flat-map stages) followed
    by ``cols`` (numpy arrays keep their dtype; Arrow arrays pass)."""
    ids = batch.column("image_id")
    return pa.table({
        "image_id": ids if take is None else ids.take(pa.array(take)),
        **{k: v if isinstance(v, (pa.Array, pa.ChunkedArray)) else pa.array(v)
           for k, v in cols.items()}})


class _FrameStats:
    """One output row per image: ``frame(v)`` maps a decoded frame to
    the int64 values of ``COLS``; ``table`` may derive extra columns."""

    COLS: tuple[str, ...] = ()
    LUMA = True

    def inputs(self, batch: pa.Table):
        return frames(batch, self.LUMA)

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = np.zeros((batch.num_rows, len(self.COLS)), np.int64)
        for j, v in self.inputs(batch):
            out[j] = self.frame(v)
        return self.table(batch, out)

    def table(self, batch: pa.Table, out: np.ndarray) -> pa.Table:
        return _image_table(batch, dict(zip(self.COLS, out.T)))


class _PcmStats(_FrameStats):
    """:class:`_FrameStats` over s16le samples (see :func:`_pcm`)."""

    def inputs(self, batch: pa.Table):
        return _pcm(batch)


class _FrameRows:
    """Flat-map over images: ``frame(v)`` returns one equal-length array
    per ``COLS`` entry ``(name, dtype)`` -- that many rows for the
    image, emitted in batch order."""

    COLS: tuple[tuple[str, type], ...] = ()

    def __call__(self, batch: pa.Table) -> pa.Table:
        idx = [np.empty(0, np.int64)]
        parts = [[np.empty(0, dt)] for _, dt in self.COLS]
        for j, v in frames(batch):
            res = self.frame(v)
            idx.append(np.full(len(res[0]), j, np.int64))
            for p, a in zip(parts, res):
                p.append(a)
        return _image_table(
            batch, {name: np.concatenate(p).astype(dt)
                    for (name, dt), p in zip(self.COLS, parts)},
            take=np.concatenate(idx))


def _sobel(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """3x3 Sobel gradients (gx, gy) over the interior of an int64
    frame -- shared by the edge, gate, orientation and Hough ops."""
    gx = (v[:-2, 2:] + 2 * v[1:-1, 2:] + v[2:, 2:]) \
        - (v[:-2, :-2] + 2 * v[1:-1, :-2] + v[2:, :-2])
    gy = (v[2:, :-2] + 2 * v[2:, 1:-1] + v[2:, 2:]) \
        - (v[:-2, :-2] + 2 * v[:-2, 1:-1] + v[:-2, 2:])
    return gx, gy


def _runs(flags: np.ndarray) -> np.ndarray:
    """Lengths of the maximal True runs of a 1-D bool array."""
    d = np.diff(np.concatenate([[False], flags, [False]]).astype(np.int8))
    return np.flatnonzero(d == -1) - np.flatnonzero(d == 1)


def fake_decode(payload: bytes, n: int) -> np.ndarray:
    """Deterministic stand-in decoder: n samples derived from a sha256
    keystream of the payload (stable across processes)."""
    out = np.empty(n, dtype=np.uint8)
    pos = 0
    counter = 0
    h = hashlib.sha256(payload).digest()
    while pos < n:
        block = hashlib.sha256(h + counter.to_bytes(4, "little")).digest()
        k = min(len(block), n - pos)
        out[pos : pos + k] = np.frombuffer(block[:k], dtype=np.uint8)
        pos += k
        counter += 1
    return out


class DecodeImages:
    """Actor-pool stage: bytes/fmt/w/h -> decoded stats + optional
    resized thumbnail (nearest) re-encoded as raw bytes."""

    def __init__(self, thumb: int | None = 16):
        self.thumb = thumb

    def __call__(self, batch: pa.Table) -> pa.Table:
        # zero-copy payload access (no per-row Python bytes copies)
        data, offs = binary_view(batch.column("bytes"))
        fmts = batch.column("fmt").to_pylist()
        ws = batch.column("w").to_numpy()
        hs = batch.column("h").to_numpy()
        means = np.empty(len(fmts))
        stds = np.empty(len(fmts))
        thumbs: list[bytes] = []
        t = self.thumb
        for j, f in enumerate(fmts):
            b = data[offs[j] : offs[j + 1]]
            if f == "png":
                # streaming inflate: stats + only the sampled thumbnail
                # scanlines come out of the bounded window; the decoded
                # frame is never materialized
                ri = (np.arange(t) * int(hs[j]) // t) if t else None
                st = png_stream_stats(b, keep_rows=ri)
                if st is not None:
                    psum, psq, hh, ww, ch, rows = st
                    cnt = hh * ww * ch
                    means[j] = psum / cnt
                    var = psq / cnt - means[j] * means[j]
                    stds[j] = np.sqrt(var if var > 0 else 0.0)
                    if t:
                        ci = (np.arange(t) * ww // t)
                        sampled = rows.reshape(t, ww, ch)[:, ci]
                        thumbs.append(sampled.tobytes())
                    else:
                        thumbs.append(b"")
                    continue
            img = decode_image(b, f, int(ws[j]), int(hs[j]), copy=False)
            means[j] = img.mean()
            stds[j] = img.std()
            if t:
                ri = (np.arange(t) * img.shape[0] // t)
                ci = (np.arange(t) * img.shape[1] // t)
                thumbs.append(img[np.ix_(ri, ci)].tobytes())
            else:
                thumbs.append(b"")
        return pa.table(
            {
                "image_id": batch.column("image_id"),
                "px_mean": pa.array(means),
                "px_std": pa.array(stds),
                "thumb": pa.array(thumbs, pa.binary()),
            }
        )


class DHashImages:
    """Actor-pool stage: perceptual difference-hash (dHash) over DECODED
    pixels -- the image-payload counterpart of the text fingerprints.

    Classic dHash downsamples to a 9x8 grid and emits bit[r, c] =
    grid[r, c+1] > grid[r, c] (64 bits, MSB-first).  This implementation
    point-samples the grid (nearest-neighbour downsample: row r of 8 at
    pixel row ``r*h//8``, col c of 9 at pixel col ``c*w//9``) instead of
    area-averaging, so the hash is pure integer math on 72 pixels --
    deterministic across platforms and exactly mirrorable in SQL
    (sqlgen.image_dhash_sql).  Sample-index grids are cached per (w, h)
    in actor state; decode is zero-copy for 'raw' payloads."""

    GRID_W = 9
    GRID_H = 8

    def __init__(self):
        self._idx_cache: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}

    def _sample_idx(self, w: int, h: int) -> tuple[np.ndarray, np.ndarray]:
        key = (w, h)
        hit = self._idx_cache.get(key)
        if hit is None:
            ri = np.arange(self.GRID_H) * h // self.GRID_H
            ci = np.arange(self.GRID_W) * w // self.GRID_W
            hit = (ri, ci)
            self._idx_cache[key] = hit
        return hit

    def _grids(self, batch: pa.Table) -> np.ndarray:
        """Point-sample every payload to a (n, GRID_H, GRID_W) uint8
        luma grid -- the shared downsample step of the perceptual
        hashes (dHash / aHash / pHash)."""
        data, offs = binary_view(batch.column("bytes"))
        fmts = batch.column("fmt").to_pylist()
        ws = batch.column("w").to_numpy()
        hs = batch.column("h").to_numpy()
        n = batch.num_rows
        grids = np.empty((n, self.GRID_H, self.GRID_W), dtype=np.uint8)
        for j, f in enumerate(fmts):
            ri, ci = self._sample_idx(int(ws[j]), int(hs[j]))
            if f == "png":
                # streaming inflate: only the sampled scanlines leave
                # the bounded window (no decoded-frame materialization)
                st = png_stream_stats(data[offs[j] : offs[j + 1]],
                                      keep_rows=ri, sumsq=False)
                if st is not None:
                    _s, _q, _h, ww2, ch, rows = st
                    sampled = rows.reshape(self.GRID_H, ww2, ch)[:, ci]
                    if ch == 3:  # RGB payload: integer luma (R+G+B)//3
                        sampled = (sampled.sum(axis=2, dtype=np.uint32)
                                   // 3).astype(np.uint8)
                    else:
                        sampled = sampled[:, :, 0]
                    grids[j] = sampled
                    continue
            img = decode_image(data[offs[j] : offs[j + 1]], f,
                               int(ws[j]), int(hs[j]), copy=False)
            if img.ndim == 3:  # RGB payload: integer luma (R+G+B)//3
                img = (img.sum(axis=2, dtype=np.uint32) // 3).astype(np.uint8)
            grids[j] = img[np.ix_(ri, ci)]
        return grids

    @staticmethod
    def _pack(bits: np.ndarray) -> np.ndarray:
        """(n, 64) bool, MSB-first -> (n,) int64 fingerprints."""
        packed = np.packbits(bits, axis=1)  # (n, 8) u8 MSB-first
        return packed.copy().view(">u8").astype(np.uint64).view(np.int64) \
            .reshape(-1)

    def __call__(self, batch: pa.Table) -> pa.Table:
        grids = self._grids(batch)
        n = batch.num_rows
        # one vectorized compare + packbits over the whole batch:
        # bit k = r*8 + c (MSB-first) = grid[r, c+1] > grid[r, c]
        bits = grids[:, :, 1:] > grids[:, :, :-1]  # (n, 8, 8) bool
        return _image_table(batch, {"dhash": self._pack(bits.reshape(n, 64))})


class AHashImages(DHashImages):
    """Average-hash (aHash) actor-pool stage: the simplest perceptual
    hash -- 8x8 point-sampled luma grid, bit k = r*8 + c (MSB-first) set
    when the sample exceeds the grid mean.

    The mean compare is done in integers (``64 * v > sum(grid)``), so
    the hash is exact platform-independent integer math on 64 pixels and
    fully SQL-mirrorable (sqlgen.image_ahash_sql).  Shares the
    streaming-inflate grid sampler with dHash; complements it: dHash
    keys on horizontal gradients, aHash on global brightness layout."""

    GRID_W = 8
    GRID_H = 8

    def __call__(self, batch: pa.Table) -> pa.Table:
        g = self._grids(batch).astype(np.int64).reshape(batch.num_rows, 64)
        total = g.sum(axis=1)  # <= 64*255, int64
        return _image_table(batch, {"ahash": self._pack(64 * g > total[:, None])})


def dhash_near_dup(ds, max_dist: int = 3,
                   max_bucket: int | None = 2000, concurrency=(1, 8)):
    """images -> EXACT Hamming-near-duplicate pairs via banded dHash.

    The 64-bit dHash is split into 4 bands of 16 bits; by pigeonhole any
    pair within Hamming distance ``max_dist`` <= 3 agrees on at least
    one full band, so banding is an exact pre-filter, not an
    approximation: with ``max_bucket=None`` recall is 1.0 by
    construction (asserted against brute force in tests, and against an
    O(n^2) SQL oracle).  A finite ``max_bucket`` drops buckets larger
    than the cap -- the standard mega-bucket valve for corpora with
    near-identical spam clusters, where the TRUE pair set is itself
    quadratic and not worth emitting.

    Scale shape (stages/hamming.py): band rows cogroup by (band, band
    key) so one vectorized self-merge + popcount handles many buckets
    per partition (no Python-per-bucket). Each pair is emitted only by
    its FIRST matching band (earlier-band xor segments checked
    vectorized), so the output is globally unique with NO cross-band
    dedupe shuffle; the wide merge carries only integers (local index
    codes), ids are gathered for the surviving pairs only.
    Shuffle payload is (id, band, band_key, dhash) -- never pixels."""
    if not 0 <= max_dist <= 3:
        raise ValueError("max_dist must be in [0, 3] for exact 4-band recall")
    from equi7grid_ray.stages.hamming import banded_hamming_pairs

    hashed = ds.map_batches(DHashImages, batch_format="pyarrow",
                            concurrency=concurrency)
    return banded_hamming_pairs(hashed, hash_col="dhash", id_col="image_id",
                                max_dist=max_dist, max_bucket=max_bucket)


class PatchStats(_FrameRows):
    """ViT-style patch extraction: every image becomes a grid of
    ``patch`` x ``patch`` tiles with integer per-patch statistics --
    the patchify step of a vision-transformer training pipeline,
    expressed as a flat-map over payload rows (one image row in,
    (h//P)*(w//P) patch rows out).

    Stats are exact integer sums, so the whole op is SQL-mirrorable
    over the synthetic pixel formula; trailing rows/cols short of a
    full patch are truncated (the standard ViT behavior is resize --
    truncation keeps the arithmetic exact).  Per-image numpy only:
    decode -> one (h//P, P, w//P, P) reshape -> axis sums."""

    COLS = (("pr", np.int32), ("pc", np.int32), ("px_sum", np.int64))

    def __init__(self, patch: int = 16):
        self.patch = patch

    def frame(self, img):
        P = self.patch
        nr, nc = img.shape[0] // P, img.shape[1] // P
        s = img[: nr * P, : nc * P].reshape(nr, P, nc, P) \
            .sum(axis=(1, 3), dtype=np.int64)
        g = np.indices((nr, nc))
        return g[0].reshape(-1), g[1].reshape(-1), s.reshape(-1)


class HistEqualize(_FrameStats):
    """Per-image histogram equalization -- the classic contrast
    normalization, in EXACT integer arithmetic:

        eq(v) = floor((cdf(v) - cdf_min) * 255 / (n_px - cdf_min))

    with cdf the cumulative 256-bin histogram and cdf_min its first
    non-zero value.  Every step (bincount, cumsum, the remap) is
    integer, so the per-image checksum of equalized pixels is
    SQL-mirrorable over the synthetic pixel formula (a window cumsum
    over the value histogram).  Emits (id, eq_sum, eq_min, eq_max);
    per-image numpy only -- one bincount + one 256-gather per frame."""

    COLS = ("eq_sum", "eq_min", "eq_max")

    def frame(self, img):
        flat = img.reshape(-1)
        hist = np.bincount(flat, minlength=256).astype(np.int64)
        cdf = np.cumsum(hist)
        nz = np.nonzero(hist)[0]
        cdf_min = int(cdf[nz[0]]) if len(nz) else 0
        denom = max(int(flat.size) - cdf_min, 1)
        eq = (np.maximum(cdf - cdf_min, 0) * 255 // denom)[flat]
        return eq.sum(), eq.min(), eq.max()


def phash_basis() -> np.ndarray:
    """Integer DCT-II basis shared by the pHash stage and its SQL
    mirror: B[u, k] = round(2^14 * cos(pi * (2k+1) * u / 32)), 16x16
    int64.  Quantizing the cosines makes the 2-D DCT exact integer
    arithmetic, so the hash is platform-independent and bit-exact
    against sqlgen.image_phash_sql (max |coeff| <= 256*255*2^28 << 2^63)."""
    k = np.arange(16)
    u = np.arange(16)[:, None]
    return np.round((2 ** 14) * np.cos(np.pi * (2 * k + 1) * u / 32)) \
        .astype(np.int64)


class PHashImages(DHashImages):
    """Perceptual DCT hash (pHash) actor-pool stage: 16x16 point-sampled
    luma grid -> integer 2-D DCT-II (shared Q14 basis, exact int64) ->
    top-left 8x8 low-frequency block minus the DC term (63 coefficients)
    -> bit j set when coefficient j exceeds the block median (the 32nd
    order statistic of the 63 -- exact in integers).  Bits are MSB-first
    (bit j at position 63-j); the bottom bit is always 0.

    Catches scaled/blurred near-duplicates that the gradient-based dHash
    misses; banded Hamming pairing (stages/hamming.py) applies
    unchanged because the output is the same 64-bit fingerprint shape."""

    GRID_W = 16
    GRID_H = 16

    def __call__(self, batch: pa.Table) -> pa.Table:
        g = self._grids(batch).astype(np.int64)
        n = batch.num_rows
        B = phash_basis()
        coeff = np.einsum("ur,nrc,vc->nuv", B, g, B)  # exact int64
        vals = coeff[:, :8, :8].reshape(n, 64)[:, 1:]  # drop DC, 63 coeffs
        med = np.partition(vals, 31, axis=1)[:, 31]
        bits = np.concatenate(
            [vals > med[:, None], np.zeros((n, 1), dtype=bool)], axis=1)
        return _image_table(batch, {"phash_dct": self._pack(bits)})


def image_canonical_ids(ds, max_dist: int = 3, id_prefix: str = "img",
                        **pair_kwargs):
    """End-to-end image deduplication: images -> banded-dHash near-dup
    pairs -> connected components -> one canonical image id per image
    (itself when it has no near-duplicate).

    The image twin of the text pipeline lsh pairs ->
    graph.connected_components -> graph.canonical_assignments.  Ids of
    the form ``{prefix}%012d`` are mapped to their numeric suffix with
    one vectorized Arrow slice+cast (components propagate int64
    labels), and the canonical numeric id is re-rendered to the string
    form on the way out -- the shuffle payload is integers throughout.

    Returns a Dataset ``(image_id: string, canonical: string)`` over
    the FULL input (isolated images included via the broadcast
    component map in canonical_assignments)."""
    pairs = dhash_near_dup(ds, max_dist=max_dist, **pair_kwargs)
    return _canonical_from_pairs(ds, pairs, id_prefix)


def image_ensemble_canonical_ids(ds, max_dist: int = 3,
                                 id_prefix: str = "img", **pair_kwargs):
    """Multi-signal image dedup: components over the UNION of the
    banded dHash (gradient layout) and aHash (brightness layout) pair
    graphs -- either perceptual signal matching merges the images, the
    standard ensemble that closes each single hash's blind spot
    (aHash: gradient-free flat scenes; dHash: brightness-shifted
    copies).  Same scale shape as :func:`image_canonical_ids`; the two
    band shuffles run independently and the union is pair-mass-sized."""
    pairs_d = dhash_near_dup(ds, max_dist=max_dist, **pair_kwargs)
    hashed_a = ds.map_batches(AHashImages, batch_format="pyarrow",
                              concurrency=(1, 8))
    from equi7grid_ray.stages.hamming import banded_hamming_pairs

    pairs_a = banded_hamming_pairs(hashed_a, hash_col="ahash",
                                   id_col="image_id", max_dist=max_dist,
                                   **{k: v for k, v in pair_kwargs.items()
                                      if k == "max_bucket"})
    from equi7grid_ray.stages.aggregate import hash_aggregate

    pairs = hash_aggregate(
        pairs_d.union(pairs_a), keys=["id_a", "id_b"],
        aggs={"__n": ("id_a", "count")},
    ).select_columns(["id_a", "id_b"])
    return _canonical_from_pairs(ds, pairs, id_prefix)


def _canonical_from_pairs(ds, pairs, id_prefix: str):
    """Shared tail of the image dedup pipelines: numeric-suffix ids ->
    connected components -> broadcast canonical map over the full
    corpus -> re-rendered string ids."""
    import pyarrow.compute as pc

    from equi7grid_ray.stages.graph import (canonical_assignments,
                                            connected_components)

    pre = len(id_prefix)

    def to_num(batch: pa.Table, cols: tuple[str, ...]) -> pa.Table:
        out = {}
        for c in cols:
            out[c] = pc.cast(
                pc.utf8_slice_codeunits(batch.column(c), pre), pa.int64())
        return pa.table(out)

    pairs_num = pairs.map_batches(
        lambda b: to_num(b, ("id_a", "id_b")), batch_format="pyarrow")
    comp = connected_components(pairs_num)
    imgs_num = ds.select_columns(["image_id"]).map_batches(
        lambda b: to_num(b, ("image_id",)), batch_format="pyarrow")
    assigned = canonical_assignments(imgs_num, comp, id_col="image_id")

    def render(batch: pa.Table) -> pa.Table:
        def fmt(col):
            return pc.binary_join_element_wise(
                id_prefix,
                pc.utf8_lpad(pc.cast(col, pa.string()), 12, "0"), "")
        return pa.table({
            "image_id": fmt(batch.column("image_id")),
            "canonical": fmt(batch.column("canonical")),
        })

    return assigned.map_batches(render, batch_format="pyarrow")


class AudioFeatures:
    """Audio feature stage over binary payloads.

    Real audio decode (mp3/flac/wav codecs) is NOT available in this
    sandbox: with ``use_fake=False`` the stage raises
    NotImplementedError.  With the deterministic fake decoder the full
    batch plumbing runs: payload -> samples -> windowed RMS features."""

    def __init__(self, sample_rate: int = 16_000, use_fake: bool = True,
                 window: int = 1024):
        self.sr = sample_rate
        self.use_fake = use_fake
        self.window = window

    def __call__(self, batch: pa.Table) -> pa.Table:
        data, offs = binary_view(batch.column("bytes"))
        n_windows = []
        rms = []
        for j in range(batch.num_rows):
            if not self.use_fake:
                raise NotImplementedError(
                    "audio decode needs codec libraries absent from this sandbox"
                )
            b = data[offs[j] : offs[j + 1]]
            samples = fake_decode(b, 8 * self.window).astype(np.float64) - 127.5
            wins = samples.reshape(-1, self.window)
            r = np.sqrt((wins**2).mean(axis=1))
            n_windows.append(len(r))
            rms.append(float(r.mean()))
        return pa.table(
            {
                "image_id": batch.column("image_id"),
                "n_windows": pa.array(n_windows, pa.int32()),
                "rms": pa.array(rms, pa.float64()),
            }
        )


class PCMAudioFeatures(_PcmStats):
    """REAL audio DSP over raw PCM payloads -- no codec needed.

    Interprets each payload's bytes as signed 16-bit little-endian PCM
    (the WAV body layout) and computes the standard cheap audio-quality
    features, all in integer arithmetic:

    - ``n_samples``: byte length // 2
    - ``sum_sq``: sum of sample^2 (energy; RMS = sqrt(sum_sq/n))
    - ``zcr``: zero crossings (sign changes between adjacent samples)
    - ``peak``: max |sample|

    Compressed formats (mp3/flac) would need codecs absent from this
    sandbox; payloads in 'raw'/'png' image format are decoded first
    (zero-copy for raw) and their pixel bytes treated as the PCM body,
    which keeps the whole path SQL-mirrorable (sqlgen.audio_pcm_sql).
    Per-row numpy kernels (rows are ragged); no per-sample Python."""

    COLS = ("n_samples", "sum_sq", "zcr", "peak")

    def frame(self, v):
        if len(v) == 0:
            return 0, 0, 0, 0
        neg = v < 0
        return (len(v), np.dot(v, v), np.count_nonzero(neg[1:] != neg[:-1]),
                np.abs(v).max())


class FrameSampler:
    """Video frame-sampling stage (every k-th frame).  Real container
    demux is unavailable -> deterministic fake frames; the schema
    (list of per-frame payloads) and batch layout are the real design."""

    def __init__(self, every: int = 5, n_frames: int = 20, frame_px: int = 8,
                 use_fake: bool = True):
        self.every = every
        self.n_frames = n_frames
        self.frame_px = frame_px
        self.use_fake = use_fake

    def __call__(self, batch: pa.Table) -> pa.Table:
        if not self.use_fake:
            raise NotImplementedError(
                "video demux needs av/ffmpeg absent from this sandbox"
            )
        from equi7grid_ray.stages.dedup import (
            _column_bytes,
            _mix64,
            hash_bytes_offsets,
        )

        # ONE vectorized pass for the whole batch (no per-row Python):
        # per-payload content hash -> per-(row, frame, word) splitmix64
        # keystream -> zero-copy Arrow binary column of frame payloads
        flat, offs = _column_bytes(batch.column("bytes"))
        seed = hash_bytes_offsets(flat, offs).view(np.uint64)  # (n,)
        n = batch.num_rows
        fis = np.arange(0, self.n_frames, self.every, dtype=np.uint64)
        nf = len(fis)
        px = self.frame_px * self.frame_px
        nw = (px + 7) // 8
        with np.errstate(over="ignore"):
            key = (seed[:, None, None]
                   + fis[None, :, None] * np.uint64(0x9E3779B97F4A7C15)
                   + np.arange(nw, dtype=np.uint64)[None, None, :]
                   * np.uint64(0xBF58476D1CE4E5B9))
        words = _mix64(key.reshape(-1))  # (n*nf*nw,)
        u8 = np.ascontiguousarray(
            words.view(np.uint8).reshape(n * nf, nw * 8)[:, :px])
        offsets = (np.arange(n * nf + 1, dtype=np.int32) * px)
        frame_arr = pa.Array.from_buffers(
            pa.binary(), n * nf,
            [None, pa.py_buffer(offsets.tobytes()),
             pa.py_buffer(u8.tobytes())])
        take = pa.array(np.repeat(np.arange(n, dtype=np.int64), nf))
        return pa.table(
            {
                "image_id": batch.column("image_id").take(take),
                "frame_index": pa.array(
                    np.tile(fis.astype(np.int32), n), pa.int32()),
                "frame": frame_arr,
            }
        )


class RawVideoFrames(_FrameRows):
    """REAL frame sampling over raw planar video payloads -- no demux
    needed (the analogue of PCMAudioFeatures for the video row: the
    container formats need ffmpeg, absent from the sandbox, but the
    post-demux kernel is genuine).

    Interprets each payload as ``h`` frames of ``w`` luma bytes (a
    1-row-per-frame planar stream), samples every ``every``-th frame,
    and emits integer per-frame stats (sum / min / max of the luma
    bytes) -- all exact, so the whole path is SQL-mirrorable
    (sqlgen.video_frames_sql).  Per-row numpy: reshape (h, w), strided
    frame gather, axis reductions; no per-pixel Python.

    Reference semantics: frame sampling every k-th frame, cf.
    /root/reference behavior only via the brief (no video in the
    reference); kernel design mirrors DecodeImages' zero-copy path."""

    COLS = (("frame_index", np.int32), ("y_sum", np.int64),
            ("y_min", np.int64), ("y_max", np.int64))

    def __init__(self, every: int = 5):
        self.every = every

    def frame(self, arr):
        fi = np.arange(0, arr.shape[0], self.every, dtype=np.int64)
        sel = arr[fi].astype(np.int64)
        return fi, sel.sum(axis=1), sel.min(axis=1), sel.max(axis=1)


class PyramidStats(_FrameRows):
    """Overview-pyramid build -- the COG/GDAL ``.ovr`` step of a tile
    archive (the reference's tiled outputs are exactly what overviews
    get built on, reference warp.py resample_to_equi7_tiles): per image,
    levels 1..L downsample by 2^l block MEAN in EXACT integer
    arithmetic (block_sum // (s*s), s = 2^l), emitting the per-level
    checksum (sum / min / max of level pixels).

    One reshape + one axis-sum per (image, level) -- vectorized numpy,
    no Python per-pixel work; SQL-mirrorable by grouping the synthetic
    pixel formula by (r // s, c // s)."""

    COLS = (("level", np.int32), ("py_sum", np.int64), ("py_min", np.int64),
            ("py_max", np.int64))

    def __init__(self, levels: int = 3):
        self.levels = levels

    def frame(self, img):
        out = []
        for level in range(1, self.levels + 1):
            s = 1 << level
            nr, nc = img.shape[0] // s, img.shape[1] // s
            if nr == 0 or nc == 0:
                continue
            blk = img[: nr * s, : nc * s].reshape(nr, s, nc, s) \
                .sum(axis=(1, 3), dtype=np.int64) // (s * s)
            out.append((level, blk.sum(), blk.min(), blk.max()))
        return np.array(out, np.int64).reshape(-1, 4).T


class SobelStats(_FrameStats):
    """Per-image edge energy: 3x3 Sobel gradients over the interior in
    EXACT integer arithmetic; emits

        grad_sum = sum over interior of |Gx| + |Gy|
        edge_px  = count of interior pixels with |Gx| + |Gy| >= 256

    (the feature-extraction precursor of blur / quality detection on a
    crawl's image side).  Whole-frame numpy slice arithmetic -- eight
    shifted views, no convolution library, no Python per-pixel work;
    SQL mirror evaluates the synthetic pixel formula at the nine
    offsets directly."""

    EDGE_T = 256
    COLS = ("grad_sum", "edge_px")

    def frame(self, v):
        if v.shape[0] < 3 or v.shape[1] < 3:
            return 0, 0
        gx, gy = _sobel(v.astype(np.int64))
        e = np.abs(gx) + np.abs(gy)
        return e.sum(), (e >= self.EDGE_T).sum()


_PNG_SIG = np.frombuffer(b"\x89PNG\r\n\x1a\n", dtype=np.uint8)


class HeaderAudit:
    """Metadata-vs-payload consistency audit — the ingestion gate a
    100-TB binary archive runs before anything decodes: does each
    row's DECLARED metadata (fmt, w, h) agree with what the payload
    bytes actually say?

    * ``png``: signature must match; IHDR width/height (big-endian at
      fixed offsets 16/20) must equal the declared columns.
    * ``raw``: no magic to check; the byte length must equal w*h
      (single-band uint8 contract).

    Emits (image_id, fmt, reason) with the FIRST failing reason:
    ``bad_sig`` -> ``dim_mismatch`` -> ``ok``.  Fully vectorized: one
    (n, 26) prefix gather from the Arrow binary buffer, numpy
    big-endian assembly, np.select — no per-row Python."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        data, offs = binary_view(batch.column("bytes"))
        n = batch.num_rows
        lens = (offs[1:] - offs[:-1]).astype(np.int64)
        k = 26
        prefix = np.zeros((n, k), np.uint8)
        take = np.minimum(lens, k)
        # gather: flat indices offs[j] + 0..take[j), masked past each end
        idx = offs[:-1, None] + np.arange(k)[None, :]
        valid = np.arange(k)[None, :] < take[:, None]
        flat = np.frombuffer(data, dtype=np.uint8)
        prefix[valid] = flat[idx[valid]]
        fmts = batch.column("fmt").to_numpy(zero_copy_only=False)
        w = batch.column("w").to_numpy().astype(np.int64)
        h = batch.column("h").to_numpy().astype(np.int64)
        is_png = fmts == "png"
        sig_ok = (prefix[:, :8] == _PNG_SIG[None, :]).all(axis=1)
        hw = (prefix[:, 16].astype(np.int64) << 24) \
            | (prefix[:, 17].astype(np.int64) << 16) \
            | (prefix[:, 18].astype(np.int64) << 8) \
            | prefix[:, 19].astype(np.int64)
        hh = (prefix[:, 20].astype(np.int64) << 24) \
            | (prefix[:, 21].astype(np.int64) << 16) \
            | (prefix[:, 22].astype(np.int64) << 8) \
            | prefix[:, 23].astype(np.int64)
        bad_sig = is_png & ~sig_ok
        dims_bad = np.where(is_png, (hw != w) | (hh != h), lens != w * h)
        reason = np.select([bad_sig, dims_bad],
                           ["bad_sig", "dim_mismatch"], default="ok")
        return _image_table(batch, {
            "fmt": batch.column("fmt"),
            "reason": pa.array(reason.tolist(), pa.string()),
        })


class MomentStats(_FrameStats):
    """Per-image raw + central image moments in EXACT integer
    arithmetic (the shape-descriptor front half of Hu invariants;
    geometric moments are the registration/centroid primitive the
    reference's raster extent math feeds into):

        m00  = sum v              m10 = sum r*v      m01 = sum c*v
        mu20s = m00*m20 - m10*m10   (= m00 * central mu20, exact)
        mu02s = m00*m02 - m01*m01
        mu11s = m00*m11 - m10*m01

    Clearing the 1/m00 denominators keeps every output an int64
    (|mu20s| <= 255^2 * npx^2 * (h-1)^2 < 2^62 at 128x128), so the SQL
    mirror is plain BIGINT sums over the synthetic pixel formula.
    Whole-frame numpy dot products; no Python per-pixel work."""

    COLS = ("m00", "m10", "m01", "mu20s", "mu02s", "mu11s")

    def frame(self, v):
        v = v.astype(np.int64)
        h, w = v.shape
        r = np.arange(h, dtype=np.int64)
        c = np.arange(w, dtype=np.int64)
        row_s = v.sum(axis=1)          # per-row pixel sums
        col_s = v.sum(axis=0)
        m00 = int(row_s.sum())
        m10 = int(r @ row_s)
        m01 = int(c @ col_s)
        m20 = int((r * r) @ row_s)
        m02 = int((c * c) @ col_s)
        m11 = int(r @ v @ c)
        return (m00, m10, m01, m00 * m20 - m10 * m10,
                m00 * m02 - m01 * m01, m00 * m11 - m10 * m01)


class HarrisStats(_FrameStats):
    """Per-image Harris corner response in EXACT integer arithmetic
    (Harris & Stephens 1988, k = 1/16, everything cross-multiplied so
    no floats appear):

        ix = v[r,c+1] - v[r,c-1],  iy = v[r+1,c] - v[r-1,c]
        (Sxx,Syy,Sxy) = 3x3 box sums of (ix*ix, iy*iy, ix*iy)
        R16 = 16*(Sxx*Syy - Sxy*Sxy) - (Sxx+Syy)^2

    evaluated where the full window exists (r,c in [2, dim-3]).  Emits
    n_corners (R16 > thresh), r16_max, and pos_sum (sum of positive
    responses).  Shifted-view numpy throughout; the SQL mirror runs
    the gradient formula through two chained 1-D window sums
    (separable box filter)."""

    COLS = ("n_corners", "r16_max", "pos_sum")

    def __init__(self, thresh: int = 0):
        self.thresh = thresh

    def frame(self, v):
        if v.shape[0] < 5 or v.shape[1] < 5:
            return 0, 0, 0
        v = v.astype(np.int64)
        ix = (v[:, 2:] - v[:, :-2])[1:-1, :]   # gradient grid:
        iy = (v[2:, :] - v[:-2, :])[:, 1:-1]   # r,c in [1, dim-2]

        def box(a: np.ndarray) -> np.ndarray:
            return (a[:-2, :-2] + a[:-2, 1:-1] + a[:-2, 2:]
                    + a[1:-1, :-2] + a[1:-1, 1:-1] + a[1:-1, 2:]
                    + a[2:, :-2] + a[2:, 1:-1] + a[2:, 2:])
        sxx = box(ix * ix)
        syy = box(iy * iy)
        sxy = box(ix * iy)
        r16 = 16 * (sxx * syy - sxy * sxy) - (sxx + syy) ** 2
        return (r16 > self.thresh).sum(), r16.max(), r16[r16 > 0].sum()


class TemplateSAD(_FrameStats):
    """Template matching by sum-of-absolute-differences — the
    co-registration / chip-matching primitive (the reference aligns
    rasters by projected coordinates; matching a known chip against a
    scene is how ground-control drift is measured).  For every valid
    placement of the (k x k) template the SAD is computed exactly;
    emits per image:

        best_sad, best_pr, best_pc   (argmin; ties -> smallest (pr, pc))
        sad_sum                      (checksum over all placements)

    Vectorized as k^2 shifted-view accumulations per frame (no sliding
    Python loop, no FFT approximation); the SQL mirror evaluates the
    same |pixel - template| lattice and reproduces the tie rule with a
    min-filter + row_number."""

    COLS = ("best_sad", "best_pr", "best_pc", "sad_sum")

    def __init__(self, template: np.ndarray):
        self.t = np.asarray(template, dtype=np.int64)

    def frame(self, v):
        k = self.t.shape[0]
        h, w = v.shape
        if h < k or w < k:
            return -1, -1, -1, 0
        v = v.astype(np.int64)
        sad = np.zeros((h - k + 1, w - k + 1), np.int64)
        for dr in range(k):
            for dc in range(k):
                sad += np.abs(v[dr:dr + h - k + 1, dc:dc + w - k + 1]
                              - self.t[dr, dc])
        flat = int(np.argmin(sad))  # row-major argmin == (pr, pc) tie rule
        pr, pc = divmod(flat, sad.shape[1])
        return sad[pr, pc], pr, pc, sad.sum()


class QuadtreeStats(_FrameStats):
    """Adaptive quadtree encoding of each frame (the variance-pruned
    tiling that COG/overview pyramids approximate with fixed levels):
    starting from the whole frame, a block SPLITS into 4 while its
    pixel range (max - min) exceeds ``thresh`` and the level is below
    ``max_level``.  Emits the resulting leaf census per image:

        n_leaves, depth_sum (sum of leaf levels), n_deepest

    Everything is exact integers (range compares only); per frame the
    level grids are four reshape-reductions — no recursion, no Python
    per block.  SQL mirror: per-level block ranges + a 3-ancestor
    split-chain join."""

    COLS = ("n_leaves", "depth_sum", "n_deepest")

    def __init__(self, thresh: int = 60, max_level: int = 3):
        self.t = thresh
        self.lmax = max_level

    def frame(self, v):
        v = v.astype(np.int64)
        h, w = v.shape
        rng = []
        for lv in range(self.lmax + 1):
            g = 1 << lv
            if h % g or w % g:
                raise ValueError("frame dims must divide 2^max_level")
            r4 = v.reshape(g, h // g, g, w // g)
            rng.append(r4.max(axis=(1, 3)) - r4.min(axis=(1, 3)))
        exists = np.ones((1, 1), bool)
        leaves = depth = 0
        for lv in range(self.lmax + 1):
            is_leaf = exists & ((rng[lv] <= self.t)
                                if lv < self.lmax
                                else np.ones_like(exists))
            leaves += int(is_leaf.sum())
            depth += lv * int(is_leaf.sum())
            if lv == self.lmax:
                return leaves, depth, int(is_leaf.sum())
            split = exists & (rng[lv] > self.t)
            exists = np.repeat(np.repeat(split, 2, 0), 2, 1)


class MorphStats(_FrameStats):
    """Per-image 3x3 binary morphology (erosion / dilation) over the
    ``v >= 128`` foreground mask -- the mask clean-up step that runs
    between thresholding (OtsuThreshold) and blob labeling (BlobStats)
    in a segmentation pipeline (reference-side analogue: the nodata
    mask dilation inside the accurate-boundary path, reference
    warp.py:79-156, which scipy-dilates a downsampled validity mask).

    Emits, counted over the interior (r in [1, h-2], c in [1, w-2]):

        fg_in      -- foreground pixels
        eroded_px  -- pixels whose full 3x3 neighbourhood is foreground
        dilated_px -- pixels with ANY foreground in the 3x3 window

    (dilated_px - eroded_px is the morphological-gradient band.)  One
    9-view shifted sum per frame, no Python per-pixel work; SQL mirror
    sums the nine mask indicators of the synthetic pixel formula."""

    THRESH = 128
    COLS = ("fg_in", "eroded_px", "dilated_px")

    def frame(self, v):
        if v.shape[0] < 3 or v.shape[1] < 3:
            return 0, 0, 0
        m = (v >= self.THRESH).astype(np.int8)
        s = (m[:-2, :-2] + m[:-2, 1:-1] + m[:-2, 2:]
             + m[1:-1, :-2] + m[1:-1, 1:-1] + m[1:-1, 2:]
             + m[2:, :-2] + m[2:, 1:-1] + m[2:, 2:])
        return m[1:-1, 1:-1].sum(dtype=np.int64), (s == 9).sum(), (s >= 1).sum()


class QualityGate(_FrameStats):
    """Image-side ingestion gate (the visual analogue of the Gopher
    text gate, stages/text.py:gopher_filter): first-failing reason per
    frame, all rules exact integer comparisons:

        low_range -- px_max - px_min < 192        (washed-out / blank)
        smooth    -- edge_px * 20 < n_interior    (edge fraction < 5%)
        busy      -- edge_px * 5 > 3 * n_interior (edge fraction > 60%)
        ok        -- otherwise

    edge_px = interior pixels with Sobel |Gx|+|Gy| >= 256 (identical to
    SobelStats).  Emits (image_id, reason, edge_px, px_range)."""

    COLS = ("edge_px", "px_range", "n_interior")

    def frame(self, v):
        v = v.astype(np.int64)
        rng = int(v.max() - v.min()) if v.size else 0
        ni = max((v.shape[0] - 2) * (v.shape[1] - 2), 0)
        epx = 0
        if ni:
            gx, gy = _sobel(v)
            epx = int(((np.abs(gx) + np.abs(gy)) >= 256).sum())
        return epx, rng, ni

    def table(self, batch, out):
        epx, rng, ni = out.T
        reason = np.select([rng < 192, epx * 20 < ni, epx * 5 > 3 * ni],
                           ["low_range", "smooth", "busy"], default="ok")
        return _image_table(batch, {
            "reason": pa.array(reason.tolist(), pa.string()),
            "edge_px": epx, "px_range": rng})


class HOGStats(_FrameStats):
    """Per-image gradient-orientation histogram (the HOG descriptor's
    binning stage, Dalal-Triggs 2005, whole-frame variant): Sobel
    gradients over the interior (identical formula to SobelStats),
    every pixel with a nonzero gradient classified into one of 8
    half-open 45-degree octants by EXACT integer comparisons -- no
    atan2, no floats, so the SQL mirror is a CASE chain:

        quadrant q = 2*(gy < 0) + ((gx < 0) XOR (gy < 0))  (CCW 0..3)
        bin = 2*q + ((|gx| <= |gy|) XOR (q odd))

    which lands (gx>0, gy=0) in bin 0, ties |gx| = |gy| on the CCW-later
    bin of the quadrant.  Emits wide per-image counts (o0..o7, n_grad)
    -- the texture/orientation feature a crawl-side image-quality model
    consumes."""

    COLS = tuple(f"o{k}" for k in range(8)) + ("n_grad",)

    def frame(self, v):
        if v.shape[0] < 3 or v.shape[1] < 3:
            return (0,) * 9
        gx, gy = _sobel(v.astype(np.int64))
        ax, ay = np.abs(gx), np.abs(gy)
        mask = (ax | ay) != 0
        q = 2 * (gy < 0) + ((gx < 0) ^ (gy < 0))
        b = 2 * q + ((ax <= ay) ^ (q & 1))
        return (*np.bincount(b[mask].ravel(), minlength=8), mask.sum())


class VideoCuts(_FrameStats):
    """Shot-boundary (scene-cut) detection over raw planar video
    payloads (h frames of w luma bytes, the RawVideoFrames layout):
    per consecutive frame pair, SAD = sum |v[f+1] - v[f]|; a cut fires
    iff 4 * SAD >= 255 * w (mean abs diff >= 63.75, integer-exact).
    Emits per video (n_frames, n_cuts, max_sad, sad_sum) -- the
    dedup/segmentation precursor for video training data.  One
    vectorized diff pass per payload; no per-pixel Python."""

    COLS = ("n_frames", "n_cuts", "max_sad", "sad_sum")

    def frame(self, arr):
        h, w = arr.shape
        if h < 2:
            return h, 0, 0, 0
        arr = arr.astype(np.int64)
        d = np.abs(arr[1:] - arr[:-1]).sum(axis=1)
        return h, (4 * d >= 255 * w).sum(), d.max(), d.sum()


class AutocorrAudio(_PcmStats):
    """Exact integer autocorrelation of the s16le PCM payload at fixed
    lags (1, 2, 4, 8): ac_L = sum_k v[k] * v[k+L] -- the pitch /
    periodicity feature (autocorrelation method, Rabiner 1977) the
    audio side of a crawl pipeline scores clips with.  best_lag =
    argmax over the four lags, smallest lag on ties.  Payload decode
    matches PCMAudioFeatures (raw/png pixel bytes as the WAV body);
    per-row numpy dot products, no per-sample Python."""

    LAGS = (1, 2, 4, 8)
    COLS = ("n_samples",) + tuple(f"ac{lag}" for lag in LAGS)

    def frame(self, v):
        return (len(v), *(np.dot(v[:-lag], v[lag:]) if len(v) > lag else 0
                          for lag in self.LAGS))

    def table(self, batch, out):
        best = np.array(self.LAGS, np.int64)[np.argmax(out[:, 1:], axis=1)]
        return _image_table(batch, {**dict(zip(self.COLS, out.T)),
                                    "best_lag": best})


class GLCMStats(_FrameStats):
    """Per-image gray-level co-occurrence texture features (Haralick
    1973) over horizontal neighbour pairs at 8 quantized levels
    (``v // 32``), in EXACT integers:

        contrast = sum_ab n(a,b) * (a - b)^2   (local variation)
        energy   = sum_ab n(a,b)^2             (textural uniformity)
        n_pairs  = h * (w - 1)

    Per frame: one shifted-view pair encode + one 64-bin bincount --
    no per-pixel Python; the SQL mirror groups the synthetic pixel
    formula's (qa, qb) pairs."""

    LEVELS = 8
    COLS = ("contrast", "energy", "n_pairs")

    def __init__(self):
        L = self.LEVELS
        a, b = np.divmod(np.arange(L * L, dtype=np.int64), L)
        self._sqdiff = (a - b) ** 2

    def frame(self, v):
        if v.shape[1] < 2:
            return 0, 0, 0
        L = self.LEVELS
        q = (v >> 5).astype(np.int64)  # 256 / LEVELS = 32
        bc = np.bincount((q[:, :-1] * L + q[:, 1:]).ravel(), minlength=L * L)
        return ((bc * self._sqdiff).sum(), (bc.astype(np.int64) ** 2).sum(),
                v.shape[0] * (v.shape[1] - 1))


class OtsuThreshold(_FrameStats):
    """Per-image Otsu threshold in EXACT arithmetic: maximize the
    between-class variance

        (S0(t)*W - S*W0(t))^2 / (W0(t) * (W - W0(t)))

    over t in [0, 255) with 0 < W0(t) < W, where W0/S0 are the
    cumulative count/value-sum of the 256-bin histogram.  The argmax is
    resolved by exact cross-multiplied rational comparison (Python
    bigints -- the squared numerator reaches ~2^72), smallest t wins
    ties; the SQL mirror does the same comparison in HUGEINT via a
    NOT-EXISTS anti-join over the 255 candidates.

    Scale shape: the per-pixel work is ONE vectorized bincount per
    frame; the exact 255-candidate scan is O(256) per image regardless
    of resolution.  Emits (id, otsu_t, fg_px, fg_sum) with fg = pixels
    strictly above the threshold."""

    COLS = ("otsu_t", "fg_px", "fg_sum")
    VALS = np.arange(256, dtype=np.int64)

    def frame(self, img):
        hist = np.bincount(img.reshape(-1), minlength=256).astype(np.int64)
        w0 = np.cumsum(hist)
        s0 = np.cumsum(hist * self.VALS)
        W, S = int(w0[-1]), int(s0[-1])
        best_t, bn, bd = 0, -1, 1
        for t in range(255):
            W0 = int(w0[t])
            if W0 == 0 or W0 == W:
                continue
            num = (int(s0[t]) * W - S * W0) ** 2
            den = W0 * (W - W0)
            if num * bd > bn * den:
                bn, bd, best_t = num, den, t
        fg = hist[best_t + 1 :]
        return best_t, fg.sum(), (fg * self.VALS[best_t + 1 :]).sum()

    def table(self, batch, out):
        cols = dict(zip(self.COLS, out.T))
        cols["otsu_t"] = cols["otsu_t"].astype(np.int32)
        return _image_table(batch, cols)


class BandAlgebra(_FrameStats):
    """Raster band math over RGB payloads -- the NDVI-shaped map-only
    raster-algebra step (reference-domain band arithmetic, kept in
    EXACT integers): per image

        veg_px  = count(G > R)
        idx_sum = sum(G - R)
        ndq_sum = sum(((G - R + 256) * 4096) // (G + R + 1))

    (ndq is the normalized difference quantized to Q12 with a +256
    offset so the integer floor-division never sees a negative
    numerator).  Vectorized int64 channel arithmetic per frame;
    grayscale frames emit zeros (no second band).  SQL-mirrorable over
    the RGB fixture's band-offset pixel formula."""

    COLS = ("veg_px", "idx_sum", "ndq_sum")
    LUMA = False

    def frame(self, img):
        if img.ndim != 3:
            return 0, 0, 0
        r = img[:, :, 0].astype(np.int64)
        g = img[:, :, 1].astype(np.int64)
        return ((g > r).sum(), (g - r).sum(),
                (((g - r + 256) * 4096) // (g + r + 1)).sum())


def label_runs(mask: np.ndarray) -> tuple[int, int, int]:
    """4-connected components of a boolean mask via run-based
    union-find: runs are extracted in ONE vectorized diff pass (Python
    work is O(runs), never O(pixels)), adjacent-row runs merge by a
    two-pointer interval sweep.  Returns (n_blobs, max_blob_px,
    fg_px)."""
    h, w = mask.shape
    padded = np.zeros((h, w + 1), dtype=bool)
    padded[:, :w] = mask
    flat = padded.reshape(-1)
    d = np.diff(flat.astype(np.int8), prepend=np.int8(0))
    starts = np.flatnonzero(d == 1)
    ends = np.flatnonzero(d == -1)
    if len(starts) == 0:
        return 0, 0, 0
    row = starts // (w + 1)
    c0 = starts % (w + 1)
    c1 = c0 + (ends - starts)  # exclusive; runs never span the pad
    n = len(starts)
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    # runs are emitted in (row, col) order; sweep row pairs
    row_of = row.tolist()
    c0l, c1l = c0.tolist(), c1.tolist()
    starts_by_row = np.searchsorted(row, np.arange(h + 1))
    for r in range(1, h):
        a, a_end = int(starts_by_row[r - 1]), int(starts_by_row[r])
        b, b_end = int(starts_by_row[r]), int(starts_by_row[r + 1])
        while a < a_end and b < b_end:
            if c0l[a] < c1l[b] and c0l[b] < c1l[a]:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
            if c1l[a] < c1l[b]:
                a += 1
            else:
                b += 1
    sizes: dict[int, int] = {}
    for k in range(n):
        r = find(k)
        sizes[r] = sizes.get(r, 0) + (c1l[k] - c0l[k])
    fg = int(c1.sum() - c0.sum())
    return len(sizes), max(sizes.values()), fg


def label_run_boxes(mask: np.ndarray, return_perim: bool = False):
    """Like :func:`label_runs` but emits PER-COMPONENT geometry: for
    each 4-connected blob of ``mask``, its canonical label pixel (the
    topmost-then-leftmost run start — the root of the by-min
    union-find, since every union links the larger run id under the
    smaller), bounding box, and area.  Returns int64 arrays
    ``(lbl_r, lbl_c, min_r, max_r, min_c, max_c, area)``; empty masks
    return empty arrays.  With ``return_perim`` an eighth array is
    appended: the 4-connected boundary perimeter

        perim = 4 * area - 2 * (horizontal + vertical adjacencies)

    (exposed unit edges of the component's pixel union) — the
    adjacency masses fall out of the same run sweep: horizontal
    adjacencies are ``run_len - 1`` per run, vertical adjacencies the
    overlap length of each row-adjacent run pair the two-pointer sweep
    already visits exactly once."""
    h, w = mask.shape
    padded = np.zeros((h, w + 1), dtype=bool)
    padded[:, :w] = mask
    flat = padded.reshape(-1)
    d = np.diff(flat.astype(np.int8), prepend=np.int8(0))
    starts = np.flatnonzero(d == 1)
    ends = np.flatnonzero(d == -1)
    z = np.zeros(0, np.int64)
    if len(starts) == 0:
        return (z,) * (8 if return_perim else 7)
    row = starts // (w + 1)
    c0 = starts % (w + 1)
    c1 = c0 + (ends - starts)
    n = len(starts)
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    c0l, c1l = c0.tolist(), c1.tolist()
    starts_by_row = np.searchsorted(row, np.arange(h + 1))
    ov_run: list[int] = []
    ov_len: list[int] = []
    for r in range(1, h):
        a, a_end = int(starts_by_row[r - 1]), int(starts_by_row[r])
        b, b_end = int(starts_by_row[r]), int(starts_by_row[r + 1])
        while a < a_end and b < b_end:
            if c0l[a] < c1l[b] and c0l[b] < c1l[a]:
                if return_perim:
                    ov_run.append(a)
                    ov_len.append(min(c1l[a], c1l[b])
                                  - max(c0l[a], c0l[b]))
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
            if c1l[a] < c1l[b]:
                a += 1
            else:
                b += 1
    roots = np.fromiter((find(k) for k in range(n)), np.int64, n)
    uniq, inv = np.unique(roots, return_inverse=True)
    m = len(uniq)
    area = np.bincount(inv, weights=(c1 - c0).astype(np.float64),
                       minlength=m).astype(np.int64)
    min_r = np.full(m, h, np.int64)
    max_r = np.full(m, -1, np.int64)
    min_c = np.full(m, w, np.int64)
    max_c = np.full(m, -1, np.int64)
    np.minimum.at(min_r, inv, row)
    np.maximum.at(max_r, inv, row)
    np.minimum.at(min_c, inv, c0)
    np.maximum.at(max_c, inv, c1 - 1)
    if not return_perim:
        return (row[uniq], c0[uniq], min_r, max_r, min_c, max_c, area)
    hadj = np.bincount(inv, weights=(c1 - c0 - 1).astype(np.float64),
                       minlength=m).astype(np.int64)
    vadj = np.zeros(m, np.int64)
    if ov_run:
        ov_inv = inv[np.asarray(ov_run, np.int64)]
        np.add.at(vadj, ov_inv, np.asarray(ov_len, np.int64))
    perim = 4 * area - 2 * (hadj + vadj)
    return (row[uniq], c0[uniq], min_r, max_r, min_c, max_c, area, perim)



class BlobBoxes(_FrameRows):
    """Per-blob geometry extraction: one output row per 4-connected
    component of the ``v >= thresh`` mask with its canonical label
    pixel, bounding box and pixel area — the raster->vector feature
    step downstream of segmentation (reference-domain analogue: raster
    polygonization of tiled masks).  Run-based union-find (O(runs)
    Python, vectorized geometry reduction); the SQL mirror extends the
    image_blobs recursive-CTE closure with per-root min/max/sum."""

    COLS = tuple((c, np.int64) for c in ("lbl_r", "lbl_c", "min_r", "max_r",
                                         "min_c", "max_c", "area"))

    def __init__(self, thresh: int = 128):
        self.thresh = thresh

    def frame(self, img):
        return label_run_boxes(img >= self.thresh)


class BlobPerimeter(_FrameRows):
    """Per-blob boundary geometry: one output row per 4-connected
    component of the ``v >= thresh`` mask with its canonical label
    pixel, area and 4-connected perimeter (exposed unit edges) — the
    shape-compactness step downstream of segmentation (isoperimetric
    screening: perim^2 / area separates compact blobs from filaments;
    reference-domain analogue: boundary length of polygonized raster
    masks).  perim = 4*area - 2*adjacencies, all masses accumulated in
    the same O(runs) union-find sweep as BlobBoxes; the SQL mirror
    extends the image_blobs recursive-CTE closure with per-root
    adjacency sums."""

    COLS = tuple((c, np.int64) for c in ("lbl_r", "lbl_c", "area", "perim"))

    def __init__(self, thresh: int = 128):
        self.thresh = thresh

    def frame(self, img):
        res = label_run_boxes(img >= self.thresh, return_perim=True)
        return res[0], res[1], res[6], res[7]


class BlobStats(_FrameStats):
    """Per-image blob labeling: 4-connected components of the
    ``v >= thresh`` foreground mask (the raster segmentation step --
    reference-domain raster polygonization's counting core).  Emits
    (id, n_blobs, max_blob, fg_px); exact, platform-independent, so the
    SQL mirror is a recursive-CTE reachability closure over the same
    run adjacency graph."""

    COLS = ("n_blobs", "max_blob", "fg_px")

    def __init__(self, thresh: int = 128):
        self.thresh = thresh

    def frame(self, img):
        return label_runs(img >= self.thresh)


class RleStats(_FrameStats):
    """Per-image scanline run-length statistics (the compressibility /
    synthetic-texture signal): number of equal-value runs across all
    rows and the longest run.  One vectorized diff pass per frame;
    SQL mirror is a lag()-based gaps-and-islands over the pixel
    formula."""

    COLS = ("n_runs", "max_run")

    def frame(self, img):
        h, w = img.shape
        # -1 sentinel column prevents runs spanning rows (pixel
        # values are 0..255)
        padded = np.full((h, w + 1), -1, np.int16)
        padded[:, :w] = img
        flat = padded.reshape(-1)
        change = np.flatnonzero(np.diff(flat) != 0)
        bounds = np.concatenate(([-1], change, [len(flat) - 1]))
        lens = np.diff(bounds)
        keep = flat[bounds[1:]] != -1  # drop sentinel runs
        return keep.sum(), lens[keep].max(initial=0)


class MatchHistogram(_FrameStats):
    """Radiometric normalization: remap each scene's values so its
    histogram matches a REFERENCE histogram (the pre-mosaic step that
    stops seam lines between scenes).  Exact integer matching rule:

        lut(v) = min u in [0, 255] with
                 cdf_ref(u) * n_src >= cdf_src(v) * n_ref

    (cross-multiplied, so no division ever happens; ties resolve to the
    smallest u, mirrored by the SQL min()-filter).  The reference
    histogram (256 ints) arrives via the constructor -- the broadcast
    small side.  Per frame: one bincount + one searchsorted; emits
    (id, mt_sum, mt_min, mt_max) checksums of the remapped frame."""

    COLS = ("mt_sum", "mt_min", "mt_max")

    def __init__(self, ref_hist):
        ref = np.asarray(ref_hist, dtype=np.int64)
        if ref.shape != (256,):
            raise ValueError("ref_hist must be 256 bins")
        self.ref_cdf = np.cumsum(ref)
        self.n_ref = int(self.ref_cdf[-1])

    def frame(self, img):
        hist = np.bincount(img.reshape(-1), minlength=256).astype(np.int64)
        cdf = np.cumsum(hist)
        lut = np.searchsorted(self.ref_cdf * int(cdf[-1]), cdf * self.n_ref,
                              side="left").astype(np.int64)
        present = hist > 0
        return ((hist[present] * lut[present]).sum(), lut[present].min(),
                lut[present].max())


def global_histogram(ds) -> np.ndarray:
    """Corpus-wide 256-bin value histogram over decoded payloads: one
    vectorized bincount partial per batch (bounded 256 ints), folded by
    a tiny hash_aggregate.  The result is the broadcast reference for
    :class:`MatchHistogram`."""
    from equi7grid_ray.stages.aggregate import hash_aggregate

    def part(batch: pa.Table) -> pa.Table:
        acc = np.zeros(256, np.int64)
        for _, img in frames(batch):
            acc += np.bincount(img.reshape(-1), minlength=256)
        nz = np.flatnonzero(acc)
        return pa.table({"v": pa.array(nz.astype(np.int64), pa.int64()),
                         "c_": pa.array(acc[nz], pa.int64())})

    agg = hash_aggregate(ds.map_batches(part, batch_format="pyarrow"),
                         keys=["v"], aggs={"c": ("c_", "sum")},
                         n_partitions=4)
    hist = np.zeros(256, np.int64)
    for row in agg.take_all():   # bounded: <= 256 rows
        hist[int(row["v"])] = int(row["c"])
    return hist


class AudioGate(_PcmStats):
    """PCM audio quality gate (first-failing-reason, the audio Gopher):

        clipped -- loud samples (|v| >= 30000) exceed 8% of the clip
                   (100 * n_loud > 8 * n_samples, integer-exact)
        silent  -- a quiet run (|v| <= 256) of >= ``min_quiet_run``
                   consecutive samples exists
        ok      -- otherwise

    Same s16le interpretation as PCMAudioFeatures; the quiet-run scan
    is one vectorized diff pass per clip.  Emits
    (image_id, n_loud, max_quiet, reason)."""

    LOUD = 30_000
    QUIET = 256
    COLS = ("n_loud", "max_quiet", "n_samples")

    def __init__(self, min_quiet_run: int = 2):
        self.q_run = min_quiet_run

    def frame(self, v):
        av = np.abs(v)
        return ((av >= self.LOUD).sum(),
                _runs(av <= self.QUIET).max(initial=0), len(v))

    def table(self, batch, out):
        n_loud, max_q, m = out.T
        reason = np.select([100 * n_loud > 8 * m, max_q >= self.q_run],
                           ["clipped", "silent"], default="ok")
        return _image_table(batch, {
            "n_loud": n_loud, "max_quiet": max_q,
            "reason": pa.array(reason.tolist(), pa.string())})


class DistanceTransform(_FrameStats):
    """Capped Chebyshev DISTANCE TRANSFORM histogram per frame -- the
    proximity-analysis primitive (buffer zones, edge distance,
    morphology by threshold) in exact integers.  Foreground = pixels
    >= ``fg_t``; every pixel's distance to the nearest foreground
    pixel is capped at 2 and binned:

        n_d0   foreground pixels
        n_d1   background with foreground in the 3x3 neighbourhood
        n_d2   background reached only by the 5x5 neighbourhood
        n_far  background beyond Chebyshev distance 2

    Computed by two rounds of 3x3 binary dilation (shifted-view max,
    frame-clipped -- nothing wraps); no per-pixel Python."""

    COLS = ("n_d0", "n_d1", "n_d2", "n_far")

    def __init__(self, fg_t: int = 200):
        self.fg_t = fg_t

    @staticmethod
    def _dilate(m: np.ndarray) -> np.ndarray:
        p = np.zeros((m.shape[0] + 2, m.shape[1] + 2), bool)
        p[1:-1, 1:-1] = m
        out = np.zeros_like(m)
        for dr in (0, 1, 2):
            for dc in (0, 1, 2):
                out |= p[dr:dr + m.shape[0], dc:dc + m.shape[1]]
        return out

    def frame(self, v):
        fg = v >= self.fg_t
        r1 = self._dilate(fg)
        r2 = self._dilate(r1)
        return fg.sum(), (r1 & ~fg).sum(), (r2 & ~r1).sum(), (~r2).sum()


class HoughLines4(_FrameStats):
    """Dominant-line detection by EXACT integer Hough voting at the
    four axis/diagonal orientations (the deskew / horizon / road-grid
    primitive; general-angle Hough needs trig, these four are the
    integer-exact subset):

        orient 0 (vertical   lines): rho = c
        orient 1 (45-degree  lines): rho = r + c
        orient 2 (horizontal lines): rho = r
        orient 3 (135-degree lines): rho = r - c

    Votes come from interior Sobel edge pixels (|Gx| + |Gy| >=
    ``edge_t``, same gradient as :class:`SobelStats`).  Emits
    (image_id, n_edges, best_orient, best_rho, best_votes) where best
    maximizes votes with ties to the smallest orient then smallest
    rho; frames with no edge pixel emit (-1, 0, 0).

    Four bincounts per frame over the edge-pixel index arrays -- no
    per-pixel Python."""

    COLS = ("n_edges", "best_orient", "best_rho", "best_votes")

    def __init__(self, edge_t: int = 256):
        self.edge_t = edge_t

    def frame(self, v):
        if v.shape[0] < 3 or v.shape[1] < 3:
            return 0, -1, 0, 0
        gx, gy = _sobel(v.astype(np.int64))
        rr, cc = np.nonzero(np.abs(gx) + np.abs(gy) >= self.edge_t)
        if len(rr) == 0:
            return 0, -1, 0, 0
        rr = rr + 1  # interior offset: gradient grids start at 1
        cc = cc + 1
        best = (-1, 0, 0)
        for o, rho in enumerate((cc, rr + cc, rr, rr - cc)):
            lo = int(rho.min())
            counts = np.bincount(rho - lo)
            if counts.max() > best[2]:
                best = (o, int(np.argmax(counts)) + lo, int(counts.max()))
        return (len(rr), *best)


class AudioVAD(_PcmStats):
    """Energy-based voice-activity segmentation over PCM payloads --
    the framing/segmentation step of every speech-data pipeline
    (VAD-gated ASR corpora), in EXACT integers.

    The clip's s16le samples are cut into non-overlapping frames of
    ``frame`` samples (the trailing partial frame is dropped); a frame
    is ACTIVE when its energy exceeds the mean-square threshold:

        sum(v^2) > frame * msq_thresh

    Consecutive active frames form segments (gaps-and-islands).  Emits
    (image_id, n_frames, n_active, n_segments, longest) -- longest in
    frames, 0 when silent throughout.

    One reshape + row-sum per clip; no per-sample Python."""

    COLS = ("n_frames", "n_active", "n_segments", "longest")

    def __init__(self, frame: int = 64, msq_thresh: int = 400_000_000):
        self.frame_len = frame
        self.msq = msq_thresh

    def frame(self, v):
        F = self.frame_len
        nf = len(v) // F
        act = (v[: nf * F] ** 2).reshape(nf, F).sum(axis=1) > F * self.msq
        lens = _runs(act)
        return nf, act.sum(), len(lens), lens.max(initial=0)


class LBPStats(_FrameStats):
    """Per-image local-binary-pattern texture summary (Ojala et al.
    2002 -- the rotation-variant 8-neighbour base code) in EXACT
    integers.  Each interior pixel gets

        code = sum_k [px(neighbour_k) >= px(center)] << k

    over the fixed clockwise-from-top-left neighbour order; the frame
    emits (id, lbp_sum, lbp_energy, n_interior) where lbp_sum is the
    code total and lbp_energy = sum over the 256 code bins of count^2
    (the texture-uniformity analogue of GLCM energy).

    Scale shape: 8 shifted-view uint8 comparisons + one bincount per
    frame, no per-pixel Python.  The SQL mirror evaluates the synthetic
    pixel formula at the 9 offsets and groups (frame, code).  Reference
    analogue: texture features over tiled rasters (reference warp.py
    tiles are exactly what such per-tile texture screens run on)."""

    OFFSETS = ((-1, -1), (-1, 0), (-1, 1), (0, 1),
               (1, 1), (1, 0), (1, -1), (0, -1))
    COLS = ("lbp_sum", "lbp_energy", "n_interior")

    def frame(self, v):
        hh, ww = v.shape
        if hh < 3 or ww < 3:
            return 0, 0, 0
        center = v[1:-1, 1:-1]
        code = np.zeros(center.shape, np.int64)
        for k, (dr, dc) in enumerate(self.OFFSETS):
            nb = v[1 + dr : hh - 1 + dr, 1 + dc : ww - 1 + dc]
            code += (nb >= center).astype(np.int64) << k
        bc = np.bincount(code.ravel(), minlength=256).astype(np.int64)
        return code.sum(), (bc * bc).sum(), center.size


class Median3Stats(_FrameStats):
    """Per-image 3x3 median filter (the classic salt-and-pepper
    denoise) in EXACT integers: every interior pixel is replaced by
    the 5th-smallest of its 9-neighbourhood; the frame emits

        n_changed = interior pixels where median != original
        med_sum   = sum of the filtered interior
        n_interior

    Scale shape: 9 shifted views stacked + one np.partition per frame
    (no per-pixel Python).  The SQL mirror unnests the 9 offsets per
    interior pixel and takes quantile_disc(0.5) -- the 5th-smallest of
    9, exactly the partition index the engine uses."""

    COLS = ("n_changed", "med_sum", "n_interior")

    def frame(self, v):
        hh, ww = v.shape
        if hh < 3 or ww < 3:
            return 0, 0, 0
        stack = np.stack([
            v[1 + dr : hh - 1 + dr, 1 + dc : ww - 1 + dc]
            for dr in (-1, 0, 1) for dc in (-1, 0, 1)
        ])
        med = np.partition(stack, 4, axis=0)[4]
        center = v[1:-1, 1:-1]
        return (med != center).sum(), med.sum(dtype=np.int64), center.size


def shift_detect(ds, *, stride: int = 9, max_lag: int = 4):
    """Scene co-registration check: estimate the vertical mis-
    registration between revisit pairs (frame i vs frame i + ``stride``
    -- same dimensions by the fixture's size cycle) from horizontal
    projection profiles, the classic profile-correlation registration
    step.  For each lag d in [-max_lag, max_lag] the exact SAD of the
    overlapping profile rows is computed; the winner minimizes the
    exact MEAN absolute difference (cross-multiplied rational compare
    -- overlap size varies by lag), ties -> smallest d.

    Shape: pixels collapse to one int64 profile row per scan line at
    the decode stage (the only stage that sees payloads); (pair, row)
    profile rows hash-partition by pair; each partition resolves ALL
    its pairs with 2*max_lag+1 vectorized searchsorted alignments --
    no per-pair Python.  Emits (image_id, best_lag, sad, n_overlap)
    per pair."""
    import pandas as pd

    lags = list(range(-max_lag, max_lag + 1))

    def profiles(batch: pa.Table) -> pa.Table:
        ids = [int(s[3:]) for s in batch.column("image_id").to_pylist()]
        pid, rr, vv, side = [], [], [], []
        for j, v in frames(batch):
            prof = v.sum(axis=1, dtype=np.int64)
            i = ids[j]
            r = np.arange(len(prof), dtype=np.int64)
            # side a of pair i; side b of pair i - stride
            pid.append(np.full(len(prof), i, np.int64))
            rr.append(r); vv.append(prof)
            side.append(np.zeros(len(prof), np.int8))
            if i >= stride:
                pid.append(np.full(len(prof), i - stride, np.int64))
                rr.append(r); vv.append(prof)
                side.append(np.ones(len(prof), np.int8))
        pidc = np.concatenate(pid) if pid else np.empty(0, np.int64)
        return pa.table({
            "pid": pa.array(pidc, pa.int64()),
            "r": pa.array(np.concatenate(rr) if rr else
                          np.empty(0, np.int64), pa.int64()),
            "v": pa.array(np.concatenate(vv) if vv else
                          np.empty(0, np.int64), pa.int64()),
            "side": pa.array(np.concatenate(side) if side else
                             np.empty(0, np.int8), pa.int8()),
        })

    R = 1 << 10  # rows per frame < 1024: packed (pair, row) key

    def resolve(g: pd.DataFrame) -> pd.DataFrame:
        side = g["side"].to_numpy()
        pid = g["pid"].to_numpy().astype(np.int64)
        r = g["r"].to_numpy().astype(np.int64)
        v = g["v"].to_numpy().astype(np.int64)
        am, bm = side == 0, side == 1
        # pairs need both sides present
        both = np.intersect1d(np.unique(pid[am]), np.unique(pid[bm]))
        if len(both) == 0:
            return pd.DataFrame({"pid": pd.Series([], dtype=np.int64),
                                 "best_lag": pd.Series([], dtype=np.int64),
                                 "sad": pd.Series([], dtype=np.int64),
                                 "n_overlap": pd.Series([], dtype=np.int64)})
        keep = np.isin(pid, both)
        pid, r, v, am = pid[keep], r[keep], v[keep], (side[keep] == 0)
        upid, pinv = np.unique(pid, return_inverse=True)
        npair = len(upid)
        ka = pinv[am] * R + r[am]
        va = v[am]
        kb = pinv[~am] * R + r[~am]
        vb = v[~am]
        ob = np.argsort(kb, kind="stable")
        kb, vb = kb[ob], vb[ob]
        best_sad = np.zeros(npair, np.int64)
        best_n = np.zeros(npair, np.int64)
        best_d = np.zeros(npair, np.int64)
        init = np.ones(npair, dtype=bool)
        for d in lags:
            tk = ka + d
            pos = np.searchsorted(kb, tk)
            pos_c = np.minimum(pos, len(kb) - 1)
            hit = kb[pos_c] == tk
            diff = np.abs(va[hit] - vb[pos_c[hit]])
            # recover the pair index from the packed key: hits always
            # carry 0 <= r + d < R, so the floor-div is exact
            pp = tk[hit] // R
            sad = np.bincount(pp, weights=diff, minlength=npair) \
                .astype(np.int64)
            n = np.bincount(pp, minlength=npair).astype(np.int64)
            has = n > 0
            # exact mean-SAD compare: sad/n < best/bn <=> sad*bn < best*n
            better = has & (init | (sad * best_n < best_sad * n))
            best_sad[better] = sad[better]
            best_n[better] = n[better]
            best_d[better] = d
            init &= ~better
        return pd.DataFrame({"pid": upid, "best_lag": best_d,
                             "sad": best_sad, "n_overlap": best_n})

    from equi7grid_ray.stages.aggregate import cogroup

    out = cogroup(ds.map_batches(profiles, batch_format="pyarrow"), ["pid"],
                  resolve, n_partitions=16)

    def finish(batch: pa.Table) -> pa.Table:
        pid = batch.column("pid").to_numpy(zero_copy_only=False)
        ids = pa.array([f"img{int(i):012d}" for i in pid], pa.string())
        return pa.table({
            "image_id": ids,
            "best_lag": batch.column("best_lag"),
            "sad": batch.column("sad"),
            "n_overlap": batch.column("n_overlap"),
        })

    return out.map_batches(finish, batch_format="pyarrow")



class AudioDownsample(_PcmStats):
    """Anti-aliased integer decimation of s16le PCM payloads: each
    block of ``factor`` consecutive samples collapses to its
    TRUNCATED-toward-zero mean (DuckDB's ``//`` semantics, pinned by
    test), the cheap box filter + decimate resampler.  Per clip emits
    (n_out, sum_sq_ds, peak_ds) of the downsampled signal -- the
    energy/peak contract a loudness pipeline checks after resampling.
    A trailing partial block is dropped (both engines).  Per-row numpy
    kernels; no per-sample Python."""

    COLS = ("n_out", "sum_sq_ds", "peak_ds")

    def __init__(self, factor: int = 4):
        self.factor = factor

    def frame(self, v):
        D = self.factor
        k = len(v) // D
        if k == 0:
            return 0, 0, 0
        s = v[: k * D].reshape(k, D).sum(axis=1)
        y = np.sign(s) * (np.abs(s) // D)  # trunc-toward-zero mean
        return k, np.dot(y, y), np.abs(y).max()


class SeamStats(_FrameStats):
    """Per-image minimum vertical-seam cost (the seam-carving /
    content-aware-retargeting DP; also the min-cost corridor primitive
    of least-cost-path raster analysis over the reference's tiled
    grids): with energy = the pixel value itself,

        M(0, c) = v(0, c)
        M(r, c) = v(r, c) + min(M(r-1, c-1), M(r-1, c), M(r-1, c+1))

    all in EXACT integers.  Emits per frame the minimum bottom-row
    cost, the smallest column achieving it, and how many columns tie.
    One vectorized row sweep per frame (h numpy steps over w-length
    vectors, no per-pixel Python); the SQL mirror chains one CTE per
    row with three scalar self-joins (least of the clamped trio)."""

    COLS = ("seam_cost", "seam_col", "n_ties")
    BIG = np.int64(1) << 40

    def frame(self, v):
        v = v.astype(np.int64)
        m = v[0].copy()
        for r in range(1, v.shape[0]):
            left = np.concatenate(([self.BIG], m[:-1]))
            right = np.concatenate((m[1:], [self.BIG]))
            m = v[r] + np.minimum(np.minimum(left, m), right)
        hits = np.flatnonzero(m == m.min())
        return m.min(), hits[0], len(hits)


_BAYER4 = np.array([[0, 8, 2, 10],
                    [12, 4, 14, 6],
                    [3, 11, 1, 9],
                    [15, 7, 13, 5]], dtype=np.int64)


class DitherStats(_FrameStats):
    """Per-image ordered (Bayer 4x4) dithering -- the classic 1-bit
    halftone used for mask thumbnails and cheap binary previews of
    tiled rasters: pixel (r, c) is ON iff

        v > bayer(r % 4, c % 4) * 16 + 8

    (thresholds 8..248, exact integers).  Emits the ON count and the
    position checksum sum(r * w + c over ON pixels), which pins the
    exact ON set, not just its size.  One tiled compare per frame; SQL
    mirrors the threshold matrix as a 16-way CASE."""

    COLS = ("n_on", "pos_sum")

    def frame(self, v):
        h, w = v.shape
        idx = np.flatnonzero(v > np.tile(_BAYER4 * 16 + 8, (h // 4, w // 4)))
        return len(idx), idx.sum()


class SpatialAutocorr(_FrameStats):
    """Per-image spatial autocorrelation pieces at lag 1 (vertical and
    horizontal) in EXACT integers: (n_px, s, ss, lag_v, lag_h) with
    lag_v = sum v(r,c)*v(r+1,c) over r < h-1 and lag_h the column
    analogue -- the cleared numerators of the texture-directionality
    Pearson (smooth gradients score high, noise scores low; the ratio
    of lag_v to lag_h exposes banding).  One shifted-view dot product
    per direction per frame; no per-pixel Python."""

    COLS = ("n_px", "s", "ss", "lag_v", "lag_h")

    def frame(self, v):
        v = v.astype(np.int64)
        return (v.size, v.sum(), (v * v).sum(), (v[:-1] * v[1:]).sum(),
                (v[:, :-1] * v[:, 1:]).sum())


class BoxSumStats(_FrameStats):
    """Per-image 5x5 SLIDING box-sum statistics via an integral image
    (summed-area table) -- the overlapping-window cousin of the
    non-overlapping pyramid/block-mean ops, and the O(1)-per-window
    technique every local-contrast / density filter builds on.  Exact
    integers throughout; per frame over all (h-4) x (w-4) windows:

        n_win     window count
        box_max / box_min   extreme window sums
        bright_win          windows with sum >= 25 * 128
        box_total           sum of all window sums

    One 2-D cumsum per frame, O(pixels) regardless of window size; the
    SQL mirror decomposes the 25-tap sum into a 5-tap horizontal pass
    then a 5-tap vertical pass over the synthetic pixel formula."""

    K = 5
    BRIGHT_T = 25 * 128
    COLS = ("n_win", "box_max", "box_min", "bright_win", "box_total")

    def frame(self, v):
        k = self.K
        h, w = v.shape
        if h < k or w < k:
            return 0, 0, 0, 0, 0
        s = np.zeros((h + 1, w + 1), np.int64)
        np.cumsum(v.astype(np.int64), axis=0, out=s[1:, 1:])
        np.cumsum(s[1:, 1:], axis=1, out=s[1:, 1:])
        box = (s[k:, k:] - s[:-k, k:] - s[k:, :-k] + s[:-k, :-k])
        return (box.size, box.max(), box.min(), (box >= self.BRIGHT_T).sum(),
                box.sum())


class AudioPeakWindow(_PcmStats):
    """Loudest-window locator over raw PCM payloads: per clip the
    maximum 256-sample sliding-window ENERGY (sum of sample^2) and the
    EARLIEST start index attaining it -- the alignment/cue-point
    primitive (ad detection, loudness normalization windows).  One
    cumsum + diff per clip, O(samples); same s16le decode contract as
    PCMAudioFeatures, so the SQL mirror is the per-sample formula plus
    a 256-row window sum."""

    W = 256
    COLS = ("n_windows", "peak_energy", "peak_start")

    def frame(self, v):
        w = self.W
        m = len(v)
        if m < w:
            return 0, 0, 0
        cs = np.zeros(m + 1, np.int64)
        np.cumsum(v * v, out=cs[1:])
        win = cs[w:] - cs[:-w]
        k = int(np.argmax(win))
        return len(win), win[k], k


class VideoStaticRuns(_FrameStats):
    """Static-segment census over raw planar video (the complement of
    VideoCuts): consecutive-frame pairs classified by the same
    4 * SAD >= 255 * w cut rule, then gaps-and-islands over the NON-cut
    pairs -- per video the static-pair count, the number of maximal
    static runs and the longest run (in pairs).  The segment-duration
    statistics that drive frame-sampling rates for video training
    data.  One vectorized diff + flatnonzero pass per payload."""

    COLS = ("n_static_pairs", "n_runs", "max_run")

    def frame(self, arr):
        if arr.shape[0] < 2:
            return 0, 0, 0
        arr = arr.astype(np.int64)
        ok = 4 * np.abs(arr[1:] - arr[:-1]).sum(axis=1) < 255 * arr.shape[1]
        lens = _runs(ok)
        return ok.sum(), len(lens), lens.max(initial=0)


class ColProfileStats(_FrameStats):
    """Per-image vertical projection profile (document-layout / barcode
    primitive): per column the pixel sum; emitted per image as the
    peak column's sum, the EARLIEST peak column index, and the count
    of columns whose sum exceeds 128 * h (bright columns).  One
    axis-0 sum per frame; SQL groups the pixel formula by column."""

    COLS = ("peak_sum", "peak_col", "bright_cols")

    def frame(self, v):
        cs = v.sum(axis=0, dtype=np.int64)
        k = int(np.argmax(cs))
        return cs[k], k, (cs > 128 * v.shape[0]).sum()
