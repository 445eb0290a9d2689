"""Whole-frame image operators: overview pyramid, Sobel energy, exact
Otsu threshold, RGB band algebra (stages/multimodal.py).

Brute-force parity against naive per-image numpy (independent of the
stage's slicing/bincount tricks) plus the degenerate edges the SQL
oracle fixture cannot reach (constant frames, grayscale input to the
band op).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pyarrow as pa
import pytest

from equi7grid_ray.codec import encode_image
from equi7grid_ray.sources.images import make_batch, make_rgb_batch
from equi7grid_ray.stages.multimodal import (
    BandAlgebra,
    OtsuThreshold,
    PyramidStats,
    SobelStats,
)


def _img_of(i: int) -> np.ndarray:
    sizes = (32, 64, 128)
    w, h = sizes[i % 3], sizes[(i // 3) % 3]
    r = np.arange(h, dtype=np.int64)[:, None]
    c = np.arange(w, dtype=np.int64)[None, :]
    return ((r * h + c * w + i) % 256).astype(np.uint8)


def test_pyramid_matches_naive():
    batch = make_batch(0, 24)
    out = PyramidStats()(batch)
    got = {(out["image_id"][k].as_py(), out["level"][k].as_py()):
           (out["py_sum"][k].as_py(), out["py_min"][k].as_py(),
            out["py_max"][k].as_py())
           for k in range(out.num_rows)}
    for i in range(24):
        img = _img_of(i).astype(np.int64)
        for level in (1, 2, 3):
            s = 1 << level
            nr, nc = img.shape[0] // s, img.shape[1] // s
            m = img[: nr * s, : nc * s].reshape(nr, s, nc, s) \
                .sum(axis=(1, 3)) // (s * s)
            key = (f"img{i:012d}", level)
            assert got[key] == (int(m.sum()), int(m.min()), int(m.max()))


def test_pyramid_skips_vanishing_levels():
    # a 4x4 frame has no level-3 (8x) overview
    img = np.arange(16, dtype=np.uint8).reshape(4, 4)
    batch = pa.table({
        "image_id": pa.array(["tiny"]),
        "bytes": pa.array([encode_image(img, "raw")], pa.binary()),
        "w": pa.array([4], pa.int32()), "h": pa.array([4], pa.int32()),
        "fmt": pa.array(["raw"]),
    })
    out = PyramidStats()(batch)
    assert out["level"].to_pylist() == [1, 2]


def test_sobel_matches_naive_convolution():
    batch = make_batch(0, 12)
    out = SobelStats()(batch)
    kx = np.array([[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]], np.int64)
    ky = kx.T
    for j in range(12):
        v = _img_of(j).astype(np.int64)
        h, w = v.shape
        gx = np.zeros((h - 2, w - 2), np.int64)
        gy = np.zeros((h - 2, w - 2), np.int64)
        for dr in range(3):
            for dc in range(3):
                win = v[dr : dr + h - 2, dc : dc + w - 2]
                gx += kx[dr, dc] * win
                gy += ky[dr, dc] * win
        e = np.abs(gx) + np.abs(gy)
        assert out["grad_sum"][j].as_py() == int(e.sum())
        assert out["edge_px"][j].as_py() == int((e >= 256).sum())


def _otsu_naive(img: np.ndarray) -> int:
    """Reference Otsu via exact Fractions (independent of the stage's
    cross-multiplied bigint scan)."""
    hist = np.bincount(img.reshape(-1), minlength=256).astype(np.int64)
    W = int(hist.sum())
    S = int((hist * np.arange(256)).sum())
    best_t, best = 0, Fraction(-1)
    w0 = s0 = 0
    for t in range(255):
        w0 += int(hist[t])
        s0 += int(hist[t]) * t
        if w0 == 0 or w0 == W:
            continue
        score = Fraction((s0 * W - S * w0) ** 2, w0 * (W - w0))
        if score > best:
            best, best_t = score, t
    return best_t


def test_otsu_matches_fraction_reference():
    batch = make_batch(0, 12)
    out = OtsuThreshold()(batch)
    for j in range(12):
        img = _img_of(j)
        t = _otsu_naive(img)
        assert out["otsu_t"][j].as_py() == t
        assert out["fg_px"][j].as_py() == int((img > t).sum())
        assert out["fg_sum"][j].as_py() == int(img[img > t].astype(np.int64).sum())


def test_otsu_bimodal_and_constant():
    # clean bimodal frame: threshold must split the two modes
    bi = np.full((8, 8), 40, np.uint8)
    bi[:, 4:] = 200
    const = np.full((8, 8), 7, np.uint8)
    batch = pa.table({
        "image_id": pa.array(["bi", "const"]),
        "bytes": pa.array([encode_image(bi, "raw"),
                           encode_image(const, "raw")], pa.binary()),
        "w": pa.array([8, 8], pa.int32()), "h": pa.array([8, 8], pa.int32()),
        "fmt": pa.array(["raw", "raw"]),
    })
    out = OtsuThreshold()(batch)
    t_bi = out["otsu_t"][0].as_py()
    assert 40 <= t_bi < 200
    assert out["fg_px"][0].as_py() == 32
    # constant frame: no valid split -> t=0, everything above 0 is fg
    assert out["otsu_t"][1].as_py() == 0
    assert out["fg_px"][1].as_py() == 64
    assert out["fg_sum"][1].as_py() == 64 * 7


def test_band_algebra_matches_formula():
    batch = make_rgb_batch(0, 12)
    out = BandAlgebra()(batch)
    sizes = (32, 64, 128)
    for i in range(12):
        w, h = sizes[i % 3], sizes[(i // 3) % 3]
        r = np.arange(h, dtype=np.int64)[:, None]
        c = np.arange(w, dtype=np.int64)[None, :]
        rv = (r * h + c * w + i) % 256
        gv = (r * h + c * w + i + 85) % 256
        assert out["veg_px"][i].as_py() == int((gv > rv).sum())
        assert out["idx_sum"][i].as_py() == int((gv - rv).sum())
        assert out["ndq_sum"][i].as_py() == int(
            (((gv - rv + 256) * 4096) // (gv + rv + 1)).sum())


def test_band_algebra_grayscale_emits_zeros():
    out = BandAlgebra()(make_batch(0, 3))
    assert out["veg_px"].to_pylist() == [0, 0, 0]
    assert out["idx_sum"].to_pylist() == [0, 0, 0]
    assert out["ndq_sum"].to_pylist() == [0, 0, 0]


def test_sobel_rejects_unknown_format():
    # jpeg is supported since the baseline T.81 codec landed (jpeg.py);
    # webp still gates honestly, and a truncated jpeg errors loudly
    batch = pa.table({
        "image_id": pa.array(["x"]),
        "bytes": pa.array([b"RIFF"], pa.binary()),
        "w": pa.array([8], pa.int32()), "h": pa.array([8], pa.int32()),
        "fmt": pa.array(["webp"]),
    })
    with pytest.raises(NotImplementedError):
        SobelStats()(batch)
    trunc = pa.table({
        "image_id": pa.array(["x"]),
        "bytes": pa.array([b"\xff\xd8"], pa.binary()),
        "w": pa.array([8], pa.int32()), "h": pa.array([8], pa.int32()),
        "fmt": pa.array(["jpeg"]),
    })
    with pytest.raises((ValueError, IndexError)):
        SobelStats()(trunc)


def test_mosaic_grid_partials_match_naive():
    """MosaicGrid folds a batch into per-(tile, cell) max/sum/count
    partials; verify against a naive per-image 8x8 block-mean fold."""
    from equi7grid_ray.stages.mosaic import MosaicGrid

    batch = make_batch(0, 30)
    tiles = ["T_A" if i % 2 == 0 else "T_B" for i in range(30)]
    batch = batch.append_column("tile", pa.array(tiles))
    out = MosaicGrid()(batch)
    got = {}
    for k in range(out.num_rows):
        key = (out["tile"][k].as_py(), out["gr"][k].as_py(),
               out["gc"][k].as_py())
        got[key] = (out["v_max"][k].as_py(), out["v_sum"][k].as_py(),
                    out["n_img"][k].as_py())
    expect = {}
    for i in range(30):
        img = _img_of(i).astype(np.int64)
        sr, sc = img.shape[0] // 8, img.shape[1] // 8
        m = img.reshape(8, sr, 8, sc).sum(axis=(1, 3)) // (sr * sc)
        for gr in range(8):
            for gc in range(8):
                key = (tiles[i], gr, gc)
                mx, sm, n = expect.get(key, (-1, 0, 0))
                expect[key] = (max(mx, int(m[gr, gc])),
                               sm + int(m[gr, gc]), n + 1)
    assert got == expect


def test_focal_mean_halo_exchange(ray_session):
    """3x3 focal mean across a tile boundary: east-edge windows of one
    tile must read the west-edge cells of the +6-easting neighbour;
    corner windows of an isolated edge keep only present cells."""
    import ray.data as rd

    from equi7grid_ray.stages.mosaic import tile_focal_mean

    rows = []
    for tile, base in (("EU_E036N078T6", 10), ("EU_E042N078T6", 1000)):
        for gr in range(8):
            for gc in range(8):
                rows.append((tile, gr, gc, base + gr * 8 + gc))
    t = pa.table({
        "tile": pa.array([r[0] for r in rows]),
        "gr": pa.array([r[1] for r in rows], pa.int32()),
        "gc": pa.array([r[2] for r in rows], pa.int32()),
        "v_max": pa.array([r[3] for r in rows], pa.int64()),
    })
    out = tile_focal_mean(rd.from_arrow(t)).to_pandas()
    val = {(r[0], r[1], r[2]): r[3] for r in rows}

    def naive(tile, gr, gc):
        te = int(tile[4:7])
        acc = []
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                sr, sc, st = gr + dr, gc + dc, tile
                if sc < 0:
                    st, sc = f"EU_E{te-6:03d}N078T6", sc + 8
                elif sc > 7:
                    st, sc = f"EU_E{te+6:03d}N078T6", sc - 8
                if sr < 0 or sr > 7:   # no N/S neighbours in fixture
                    continue
                if (st, sr, sc) in val:
                    acc.append(val[(st, sr, sc)])
        return sum(acc) // len(acc), len(acc)

    got = {(r.tile, r.gr, r.gc): (r.focal, r.wn)
           for r in out.itertuples()}
    assert len(got) == 128
    for (tile, gr, gc), (focal, wn) in got.items():
        assert (focal, wn) == naive(tile, gr, gc), (tile, gr, gc)
    # spot-check shapes: interior 9, boundary-crossing 9, corner 4
    assert got[("EU_E036N078T6", 3, 3)][1] == 9
    assert got[("EU_E036N078T6", 3, 7)][1] == 9   # reads the neighbour
    assert got[("EU_E036N078T6", 0, 0)][1] == 4


def test_label_runs_shapes():
    from equi7grid_ray.stages.multimodal import label_runs

    # empty / full
    assert label_runs(np.zeros((4, 4), bool)) == (0, 0, 0)
    assert label_runs(np.ones((3, 5), bool)) == (1, 15, 15)
    # donut: one 8-connected ring is ONE 4-connected component too
    m = np.ones((5, 5), bool)
    m[2, 2] = False
    assert label_runs(m) == (1, 24, 24)
    # diagonal touch is NOT 4-connected
    d = np.zeros((2, 2), bool)
    d[0, 0] = d[1, 1] = True
    assert label_runs(d) == (2, 1, 2)
    # two bars joined by a bridge at the right edge
    b = np.zeros((3, 4), bool)
    b[0, :] = b[2, :] = True
    b[1, 3] = True
    assert label_runs(b) == (1, 9, 9)
    # U-shape vs separated: remove the bridge
    b[1, 3] = False
    assert label_runs(b) == (2, 4, 8)


def test_label_runs_matches_bruteforce():
    """Random masks vs a pixel-level BFS reference."""
    from collections import deque

    from equi7grid_ray.stages.multimodal import label_runs

    rng = np.random.default_rng(7)
    for _ in range(25):
        m = rng.random((12, 17)) < 0.45
        seen = np.zeros_like(m)
        sizes = []
        for r0 in range(m.shape[0]):
            for c0 in range(m.shape[1]):
                if m[r0, c0] and not seen[r0, c0]:
                    q = deque([(r0, c0)])
                    seen[r0, c0] = True
                    s = 0
                    while q:
                        r, c = q.popleft()
                        s += 1
                        for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                            rr, cc = r + dr, c + dc
                            if 0 <= rr < m.shape[0] and 0 <= cc < m.shape[1] \
                                    and m[rr, cc] and not seen[rr, cc]:
                                seen[rr, cc] = True
                                q.append((rr, cc))
                    sizes.append(s)
        expect = (len(sizes), max(sizes) if sizes else 0, int(m.sum()))
        assert label_runs(m) == expect


def test_rle_stats_crafted():
    from equi7grid_ray.stages.multimodal import RleStats

    img = np.array([[5, 5, 5, 2], [7, 7, 7, 7]], np.uint8)
    batch = pa.table({
        "image_id": pa.array(["x"]),
        "bytes": pa.array([encode_image(img, "raw")], pa.binary()),
        "w": pa.array([4], pa.int32()), "h": pa.array([2], pa.int32()),
        "fmt": pa.array(["raw"]),
    })
    out = RleStats()(batch)
    # rows: (5,5,5)(2) + (7,7,7,7) = 3 runs; longest 4 (no cross-row run
    # even though row0 ends and row1 starts with different values)
    assert out["n_runs"][0].as_py() == 3
    assert out["max_run"][0].as_py() == 4


def test_match_histogram_identity_and_shift():
    """Matching a frame to its own histogram is the identity LUT;
    matching a dark frame to a bright reference brightens it."""
    from equi7grid_ray.stages.multimodal import MatchHistogram

    img = _img_of(5)
    hist = np.bincount(img.reshape(-1), minlength=256).astype(np.int64)
    batch = pa.table({
        "image_id": pa.array(["a"]),
        "bytes": pa.array([encode_image(img, "raw")], pa.binary()),
        "w": pa.array([img.shape[1]], pa.int32()),
        "h": pa.array([img.shape[0]], pa.int32()),
        "fmt": pa.array(["raw"]),
    })
    out = MatchHistogram(ref_hist=hist)(batch)
    assert out["mt_sum"][0].as_py() == int(img.astype(np.int64).sum())
    assert out["mt_min"][0].as_py() == int(img.min())
    assert out["mt_max"][0].as_py() == int(img.max())

    dark = np.full((8, 8), 10, np.uint8)
    bright_ref = np.zeros(256, np.int64)
    bright_ref[200] = 64
    b2 = pa.table({
        "image_id": pa.array(["d"]),
        "bytes": pa.array([encode_image(dark, "raw")], pa.binary()),
        "w": pa.array([8], pa.int32()), "h": pa.array([8], pa.int32()),
        "fmt": pa.array(["raw"]),
    })
    out2 = MatchHistogram(ref_hist=bright_ref)(b2)
    # every pixel maps to the single reference value
    assert out2["mt_min"][0].as_py() == 200
    assert out2["mt_max"][0].as_py() == 200
    assert out2["mt_sum"][0].as_py() == 64 * 200


def test_morph_matches_bruteforce():
    from equi7grid_ray.stages.multimodal import MorphStats

    batch = make_batch(0, 18)
    out = MorphStats()(batch)
    got = {out["image_id"][k].as_py():
           (out["fg_in"][k].as_py(), out["eroded_px"][k].as_py(),
            out["dilated_px"][k].as_py())
           for k in range(out.num_rows)}
    for i in range(18):
        m = (_img_of(i) >= 128)
        h, w = m.shape
        fg = ero = dil = 0
        for r in range(1, h - 1):
            for c in range(1, w - 1):
                win = m[r - 1 : r + 2, c - 1 : c + 2]
                fg += int(m[r, c])
                ero += int(win.all())
                dil += int(win.any())
        assert got[f"img{i:012d}"] == (fg, ero, dil)


def test_morph_constant_frames():
    from equi7grid_ray.stages.multimodal import MorphStats

    full = np.full((8, 8), 200, np.uint8)
    empty = np.zeros((8, 8), np.uint8)
    batch = pa.table({
        "image_id": pa.array(["full", "empty"]),
        "bytes": pa.array([encode_image(full, "raw"),
                           encode_image(empty, "raw")], pa.binary()),
        "w": pa.array([8, 8], pa.int32()),
        "h": pa.array([8, 8], pa.int32()),
        "fmt": pa.array(["raw", "raw"]),
    })
    out = MorphStats()(batch)
    rows = {out["image_id"][k].as_py():
            (out["fg_in"][k].as_py(), out["eroded_px"][k].as_py(),
             out["dilated_px"][k].as_py()) for k in range(2)}
    assert rows["full"] == (36, 36, 36)
    assert rows["empty"] == (0, 0, 0)


def test_glcm_matches_bruteforce():
    from equi7grid_ray.stages.multimodal import GLCMStats

    batch = make_batch(0, 12)
    out = GLCMStats()(batch)
    got = {out["image_id"][k].as_py():
           (out["contrast"][k].as_py(), out["energy"][k].as_py(),
            out["n_pairs"][k].as_py()) for k in range(out.num_rows)}
    for i in range(12):
        q = (_img_of(i) // 32).astype(int)
        from collections import Counter
        cnt = Counter()
        h, w = q.shape
        for r in range(h):
            for c in range(w - 1):
                cnt[(q[r, c], q[r, c + 1])] += 1
        contrast = sum(n * (a - b) ** 2 for (a, b), n in cnt.items())
        energy = sum(n * n for n in cnt.values())
        assert got[f"img{i:012d}"] == (contrast, energy, h * (w - 1))


def test_quality_gate_crafted():
    from equi7grid_ray.stages.multimodal import QualityGate

    flat = np.full((16, 16), 100, np.uint8)          # range 0 -> low_range
    grad = np.add.outer(np.arange(16) * 16, np.zeros(16, np.int64)) \
        .astype(np.uint8)                             # smooth vertical ramp
    rng = np.random.default_rng(1)
    noise = rng.integers(0, 256, (16, 16)).astype(np.uint8)  # busy
    batch = pa.table({
        "image_id": pa.array(["flat", "grad", "noise"]),
        "bytes": pa.array([encode_image(x, "raw")
                           for x in (flat, grad, noise)], pa.binary()),
        "w": pa.array([16] * 3, pa.int32()),
        "h": pa.array([16] * 3, pa.int32()),
        "fmt": pa.array(["raw"] * 3),
    })
    out = QualityGate()(batch)
    rows = dict(zip(out["image_id"].to_pylist(),
                    out["reason"].to_pylist()))
    assert rows["flat"] == "low_range"
    # vertical ramp: |Gy| = 8*16 = 128 < 256 everywhere -> zero edges,
    # range 240 >= 192 -> smooth
    assert rows["grad"] == "smooth"
    assert rows["noise"] == "busy"
    # rule agreement with SobelStats on the same payloads
    from equi7grid_ray.stages.multimodal import SobelStats

    sob = SobelStats()(batch)
    assert sob["edge_px"].to_pylist() == out["edge_px"].to_pylist()


def test_hog_matches_bruteforce():
    """HOGStats octant counts vs a per-pixel Python reference applying
    the documented classification rule literally."""
    from equi7grid_ray.stages.multimodal import HOGStats

    batch = make_batch(0, 6)
    out = HOGStats()(batch)
    got = {r["image_id"]: r for r in out.to_pylist()}
    for i in range(6):
        v = _img_of(i).astype(int)
        h, w = v.shape
        hist = [0] * 8
        ngrad = 0
        for r in range(1, h - 1):
            for c in range(1, w - 1):
                gx = (v[r - 1, c + 1] + 2 * v[r, c + 1] + v[r + 1, c + 1]
                      - v[r - 1, c - 1] - 2 * v[r, c - 1] - v[r + 1, c - 1])
                gy = (v[r + 1, c - 1] + 2 * v[r + 1, c] + v[r + 1, c + 1]
                      - v[r - 1, c - 1] - 2 * v[r - 1, c] - v[r - 1, c + 1])
                if gx == 0 and gy == 0:
                    continue
                ngrad += 1
                q = 2 * (gy < 0) + ((gx < 0) != (gy < 0))
                b = 2 * q + ((abs(gx) <= abs(gy)) != (q % 2 == 1))
                hist[b] += 1
        row = got[f"img{i:012d}"]
        assert [row[f"o{k}"] for k in range(8)] == hist
        assert row["n_grad"] == ngrad == sum(hist)


def test_video_cuts_planted():
    """A payload with one hard cut (black half -> white half) yields
    exactly one cut; a constant payload yields zero."""
    from equi7grid_ray.stages.multimodal import VideoCuts

    w, h = 16, 8
    cut = np.vstack([np.zeros((4, w), np.uint8),
                     np.full((4, w), 255, np.uint8)])
    flat = np.full((h, w), 7, np.uint8)
    batch = pa.table({
        "image_id": pa.array(["cut", "flat"]),
        "bytes": pa.array([encode_image(x, "raw") for x in (cut, flat)],
                          pa.binary()),
        "w": pa.array([w] * 2, pa.int32()),
        "h": pa.array([h] * 2, pa.int32()),
        "fmt": pa.array(["raw"] * 2),
    })
    out = VideoCuts()(batch)
    rows = {r["image_id"]: r for r in out.to_pylist()}
    assert rows["cut"]["n_cuts"] == 1
    assert rows["cut"]["max_sad"] == 255 * w
    assert rows["flat"]["n_cuts"] == 0
    assert rows["flat"]["sad_sum"] == 0
    # brute parity on a synthetic frame stack
    v = _img_of(4).astype(int)
    d = [int(np.abs(v[f + 1] - v[f]).sum()) for f in range(v.shape[0] - 1)]
    b4 = make_batch(4, 1)
    o4 = VideoCuts()(b4).to_pylist()[0]
    assert o4["sad_sum"] == sum(d)
    assert o4["max_sad"] == max(d)
    assert o4["n_cuts"] == sum(4 * x >= 255 * v.shape[1] for x in d)


def test_audio_autocorr_periodic():
    """A planted period-4 square wave maximizes autocorrelation at
    lag 4; brute-force dot-product parity on synthetic payloads."""
    from equi7grid_ray.stages.multimodal import AutocorrAudio

    # s16le square wave period 4: +1000, +1000, -1000, -1000 ...
    n = 256
    samples = np.where((np.arange(n) // 2) % 2 == 0, 1000, -1000) \
        .astype("<i2")
    raw = samples.tobytes()
    batch = pa.table({
        "image_id": pa.array(["sq", "syn"]),
        "bytes": pa.array([raw, bytes(encode_image(_img_of(2), "raw"))],
                          pa.binary()),
        "w": pa.array([16, 128], pa.int32()),
        "h": pa.array([n * 2 // 16, 32], pa.int32()),
        "fmt": pa.array(["raw"] * 2),
    })
    out = AutocorrAudio()(batch)
    rows = {r["image_id"]: r for r in out.to_pylist()}
    assert rows["sq"]["best_lag"] == 4
    assert rows["sq"]["ac4"] == 1000 * 1000 * (n - 4)
    # brute parity for the synthetic image payload
    v = _img_of(2).reshape(-1).astype(np.int64)
    v = v[0::2] + 256 * v[1::2]
    v = np.where(v >= 32768, v - 65536, v)
    for lag in (1, 2, 4, 8):
        assert rows["syn"][f"ac{lag}"] == int(np.dot(v[:-lag], v[lag:]))
    assert rows["syn"]["n_samples"] == len(v)


def test_moments_match_scalar_double_loop():
    from equi7grid_ray.stages.multimodal import MomentStats

    rng = np.random.default_rng(7)
    img = rng.integers(0, 256, (17, 23)).astype(np.uint8)
    batch = pa.table({
        "image_id": pa.array(["m0"]),
        "bytes": pa.array([encode_image(img, "raw")], pa.binary()),
        "w": pa.array([23], pa.int32()), "h": pa.array([17], pa.int32()),
        "fmt": pa.array(["raw"]),
    })
    out = MomentStats()(batch)
    m00 = m10 = m01 = m20 = m02 = m11 = 0
    for r in range(17):
        for c in range(23):
            v = int(img[r, c])
            m00 += v; m10 += r * v; m01 += c * v
            m20 += r * r * v; m02 += c * c * v; m11 += r * c * v
    assert out["m00"][0].as_py() == m00
    assert out["m10"][0].as_py() == m10
    assert out["m01"][0].as_py() == m01
    assert out["mu20s"][0].as_py() == m00 * m20 - m10 * m10
    assert out["mu02s"][0].as_py() == m00 * m02 - m01 * m01
    assert out["mu11s"][0].as_py() == m00 * m11 - m10 * m01


def test_moments_translation_invariance_of_central():
    """Central moments (denominator-cleared) must not move when the
    image content shifts inside a zero frame."""
    from equi7grid_ray.stages.multimodal import MomentStats

    rng = np.random.default_rng(8)
    core = rng.integers(1, 256, (6, 6)).astype(np.uint8)
    a = np.zeros((20, 20), np.uint8); a[2:8, 3:9] = core
    b = np.zeros((20, 20), np.uint8); b[9:15, 10:16] = core
    batch = pa.table({
        "image_id": pa.array(["a", "b"]),
        "bytes": pa.array([encode_image(a, "raw"),
                           encode_image(b, "raw")], pa.binary()),
        "w": pa.array([20, 20], pa.int32()),
        "h": pa.array([20, 20], pa.int32()),
        "fmt": pa.array(["raw", "raw"]),
    })
    out = MomentStats()(batch)
    for col in ("mu20s", "mu02s", "mu11s"):
        assert out[col][0].as_py() == out[col][1].as_py()


def test_harris_matches_scalar():
    from equi7grid_ray.stages.multimodal import HarrisStats

    rng = np.random.default_rng(9)
    img = rng.integers(0, 256, (12, 15)).astype(np.uint8)
    batch = pa.table({
        "image_id": pa.array(["h0"]),
        "bytes": pa.array([encode_image(img, "raw")], pa.binary()),
        "w": pa.array([15], pa.int32()), "h": pa.array([12], pa.int32()),
        "fmt": pa.array(["raw"]),
    })
    T = 10**6
    out = HarrisStats(thresh=T)(batch)
    v = img.astype(np.int64)
    hh, ww = v.shape
    n_c = 0; r_max = None; p_sum = 0
    for r in range(2, hh - 2):
        for c in range(2, ww - 2):
            sxx = syy = sxy = 0
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    rr, cc = r + dr, c + dc
                    ix = int(v[rr, cc + 1]) - int(v[rr, cc - 1])
                    iy = int(v[rr + 1, cc]) - int(v[rr - 1, cc])
                    sxx += ix * ix; syy += iy * iy; sxy += ix * iy
            r16 = 16 * (sxx * syy - sxy * sxy) - (sxx + syy) ** 2
            n_c += r16 > T
            r_max = r16 if r_max is None else max(r_max, r16)
            p_sum += r16 if r16 > 0 else 0
    assert out["n_corners"][0].as_py() == n_c
    assert out["r16_max"][0].as_py() == r_max
    assert out["pos_sum"][0].as_py() == p_sum


def test_harris_flat_image_no_response():
    from equi7grid_ray.stages.multimodal import HarrisStats

    img = np.full((16, 16), 77, np.uint8)
    batch = pa.table({
        "image_id": pa.array(["flat"]),
        "bytes": pa.array([encode_image(img, "raw")], pa.binary()),
        "w": pa.array([16], pa.int32()), "h": pa.array([16], pa.int32()),
        "fmt": pa.array(["raw"]),
    })
    out = HarrisStats(thresh=0)(batch)
    assert out["n_corners"][0].as_py() == 0
    assert out["r16_max"][0].as_py() == 0
    assert out["pos_sum"][0].as_py() == 0


def test_label_run_boxes_matches_bfs():
    """Per-component bbox/area/canonical-label vs a pixel-level BFS."""
    from collections import deque

    from equi7grid_ray.stages.multimodal import label_run_boxes

    rng = np.random.default_rng(13)
    for _ in range(25):
        m = rng.random((11, 16)) < 0.4
        seen = np.zeros_like(m)
        expect = set()
        for r0 in range(m.shape[0]):
            for c0 in range(m.shape[1]):
                if m[r0, c0] and not seen[r0, c0]:
                    q = deque([(r0, c0)])
                    seen[r0, c0] = True
                    pix = []
                    while q:
                        r, c = q.popleft()
                        pix.append((r, c))
                        for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                            rr, cc = r + dr, c + dc
                            if 0 <= rr < m.shape[0] and 0 <= cc < m.shape[1] \
                                    and m[rr, cc] and not seen[rr, cc]:
                                seen[rr, cc] = True
                                q.append((rr, cc))
                    rs = [p[0] for p in pix]
                    cs = [p[1] for p in pix]
                    # canonical label: topmost row, then leftmost col in it
                    lr = min(rs)
                    lc = min(c for r, c in pix if r == lr)
                    expect.add((lr, lc, min(rs), max(rs), min(cs), max(cs),
                                len(pix)))
        got = set(zip(*(a.tolist() for a in label_run_boxes(m))))
        assert got == expect


def test_label_run_boxes_empty_mask():
    from equi7grid_ray.stages.multimodal import label_run_boxes

    res = label_run_boxes(np.zeros((5, 5), bool))
    assert all(len(a) == 0 for a in res)


def test_blob_boxes_stage_row_expansion():
    """BlobBoxes fans one image out to one row per blob, skipping
    blob-free frames entirely."""
    from equi7grid_ray.stages.multimodal import BlobBoxes

    two = np.zeros((6, 6), np.uint8)
    two[0:2, 0:2] = 200            # blob A: bbox (0,1,0,1), area 4
    two[4:6, 3:6] = 255            # blob B: bbox (4,5,3,5), area 6
    blank = np.zeros((6, 6), np.uint8)
    batch = pa.table({
        "image_id": pa.array(["two", "blank"]),
        "bytes": pa.array([encode_image(two, "raw"),
                           encode_image(blank, "raw")], pa.binary()),
        "w": pa.array([6, 6], pa.int32()), "h": pa.array([6, 6], pa.int32()),
        "fmt": pa.array(["raw", "raw"]),
    })
    out = BlobBoxes()(batch)
    assert out["image_id"].to_pylist() == ["two", "two"]
    rows = set(zip(out["lbl_r"].to_pylist(), out["lbl_c"].to_pylist(),
                   out["min_r"].to_pylist(), out["max_r"].to_pylist(),
                   out["min_c"].to_pylist(), out["max_c"].to_pylist(),
                   out["area"].to_pylist()))
    assert rows == {(0, 0, 0, 1, 0, 1, 4), (4, 3, 4, 5, 3, 5, 6)}


def test_header_audit_reasons():
    from equi7grid_ray.codec import encode_image
    from equi7grid_ray.stages.multimodal import HeaderAudit

    img = (np.arange(64, dtype=np.uint8).reshape(8, 8))
    png = encode_image(img, "png")
    bad_sig = b"\x00" + png[1:]
    raw = encode_image(img, "raw")
    batch = pa.table({
        "image_id": pa.array(["ok_png", "png_wrong_w", "png_badsig_and_w",
                              "raw_ok", "raw_wrong_w", "short"]),
        "bytes": pa.array([png, png, bad_sig, raw, raw, b"\x89P"],
                          pa.binary()),
        "w": pa.array([8, 9, 9, 8, 9, 8], pa.int32()),
        "h": pa.array([8, 8, 8, 8, 8, 8], pa.int32()),
        "fmt": pa.array(["png", "png", "png", "raw", "raw", "png"]),
    })
    out = HeaderAudit()(batch)
    assert out["reason"].to_pylist() == [
        "ok", "dim_mismatch", "bad_sig", "ok", "dim_mismatch", "bad_sig"]


def test_header_audit_reads_real_ihdr_dims():
    """A payload whose IHDR says 16x4 must fail against declared 8x8
    even though the byte count is identical."""
    from equi7grid_ray.codec import encode_image
    from equi7grid_ray.stages.multimodal import HeaderAudit

    png_16x4 = encode_image(np.zeros((4, 16), np.uint8), "png")
    batch = pa.table({
        "image_id": pa.array(["x"]),
        "bytes": pa.array([png_16x4], pa.binary()),
        "w": pa.array([8], pa.int32()), "h": pa.array([8], pa.int32()),
        "fmt": pa.array(["png"]),
    })
    assert HeaderAudit()(batch)["reason"].to_pylist() == ["dim_mismatch"]


def test_template_sad_planted_exact_match():
    """A frame with the template pasted at (5, 9) must match there
    with SAD 0."""
    from equi7grid_ray.stages.multimodal import TemplateSAD

    rng = np.random.default_rng(21)
    r = np.arange(6, dtype=np.int64)[:, None]
    c = np.arange(6, dtype=np.int64)[None, :]
    tpl = (r * 13 + c * 7 + 3) % 256
    img = rng.integers(0, 256, (20, 24)).astype(np.uint8)
    img[5:11, 9:15] = tpl.astype(np.uint8)
    batch = pa.table({
        "image_id": pa.array(["p"]),
        "bytes": pa.array([encode_image(img, "raw")], pa.binary()),
        "w": pa.array([24], pa.int32()), "h": pa.array([20], pa.int32()),
        "fmt": pa.array(["raw"]),
    })
    out = TemplateSAD(template=tpl)(batch)
    assert out["best_sad"][0].as_py() == 0
    assert out["best_pr"][0].as_py() == 5
    assert out["best_pc"][0].as_py() == 9


def test_template_sad_matches_scalar_and_tie_rule():
    from equi7grid_ray.stages.multimodal import TemplateSAD

    # constant image + constant template: every placement ties at the
    # same SAD -> argmin must be (0, 0)
    img = np.full((10, 12), 7, np.uint8)
    tpl = np.full((3, 3), 9, np.int64)
    batch = pa.table({
        "image_id": pa.array(["tie", "small"]),
        "bytes": pa.array([encode_image(img, "raw"),
                           encode_image(np.zeros((2, 2), np.uint8), "raw")],
                          pa.binary()),
        "w": pa.array([12, 2], pa.int32()), "h": pa.array([10, 2], pa.int32()),
        "fmt": pa.array(["raw", "raw"]),
    })
    out = TemplateSAD(template=tpl)(batch)
    assert out["best_sad"][0].as_py() == 9 * 2
    assert (out["best_pr"][0].as_py(), out["best_pc"][0].as_py()) == (0, 0)
    assert out["sad_sum"][0].as_py() == 18 * 8 * 10
    # frame smaller than the template -> sentinel row
    assert out["best_sad"][1].as_py() == -1
    assert out["best_pr"][1].as_py() == -1


def test_quadtree_matches_recursive_reference():
    """Level-grid construction vs a genuinely recursive reference."""
    from equi7grid_ray.stages.multimodal import QuadtreeStats

    rng = np.random.default_rng(31)
    T, LMAX = 40, 3
    for _ in range(6):
        img = rng.integers(0, 256, (16, 16)).astype(np.uint8)
        batch = pa.table({
            "image_id": pa.array(["q"]),
            "bytes": pa.array([encode_image(img, "raw")], pa.binary()),
            "w": pa.array([16], pa.int32()), "h": pa.array([16], pa.int32()),
            "fmt": pa.array(["raw"]),
        })
        out = QuadtreeStats(thresh=T, max_level=LMAX)(batch)
        leaves = []

        def rec(v, lv):
            if lv < LMAX and int(v.max()) - int(v.min()) > T:
                hh, ww = v.shape[0] // 2, v.shape[1] // 2
                for a in (0, 1):
                    for b in (0, 1):
                        rec(v[a * hh:(a + 1) * hh, b * ww:(b + 1) * ww],
                            lv + 1)
            else:
                leaves.append(lv)

        rec(img.astype(np.int64), 0)
        assert out["n_leaves"][0].as_py() == len(leaves)
        assert out["depth_sum"][0].as_py() == sum(leaves)
        assert out["n_deepest"][0].as_py() == sum(1 for x in leaves
                                                  if x == LMAX)


def test_quadtree_constant_frame_single_leaf():
    from equi7grid_ray.stages.multimodal import QuadtreeStats

    img = np.full((32, 32), 9, np.uint8)
    batch = pa.table({
        "image_id": pa.array(["c"]),
        "bytes": pa.array([encode_image(img, "raw")], pa.binary()),
        "w": pa.array([32], pa.int32()), "h": pa.array([32], pa.int32()),
        "fmt": pa.array(["raw"]),
    })
    out = QuadtreeStats(thresh=0)(batch)
    assert out["n_leaves"][0].as_py() == 1
    assert out["depth_sum"][0].as_py() == 0


def test_audio_gate_crafted():
    from equi7grid_ray.stages.multimodal import AudioGate

    def clip_bytes(samples):
        v = np.asarray(samples, np.int64)
        u = np.where(v < 0, v + 65536, v)
        out = np.empty(2 * len(v), np.uint8)
        out[0::2] = u % 256
        out[1::2] = u // 256
        return bytes(out)

    loud = clip_bytes([31000, -31000, 5, 6, 7, 8, 9, 10])   # 2/8 = 25%
    quiet = clip_bytes([5000, 100, -200, 4000, 5000, 6000, 7000, 8000])
    ok = clip_bytes([5000, -4000, 3000, -2000, 1000, 500, 2000, 3000])
    batch = pa.table({
        "image_id": pa.array(["loud", "quiet", "ok"]),
        "bytes": pa.array([loud, quiet, ok], pa.binary()),
        "w": pa.array([16, 16, 16], pa.int32()),
        "h": pa.array([1, 1, 1], pa.int32()),
        "fmt": pa.array(["raw", "raw", "raw"]),
    })
    out = AudioGate()(batch)
    assert out["reason"].to_pylist() == ["clipped", "silent", "ok"]
    assert out["n_loud"].to_pylist() == [2, 0, 0]
    # the loud clip's 5..10 tail is itself a 6-sample quiet run, but
    # 'clipped' fires first
    assert out["max_quiet"].to_pylist() == [6, 2, 0]


def test_lbp_matches_bruteforce():
    from collections import Counter

    from equi7grid_ray.stages.multimodal import LBPStats

    batch = make_batch(0, 12)
    out = LBPStats()(batch)
    got = {out["image_id"][k].as_py():
           (out["lbp_sum"][k].as_py(), out["lbp_energy"][k].as_py(),
            out["n_interior"][k].as_py()) for k in range(out.num_rows)}
    for i in range(12):
        v = _img_of(i).astype(int)
        h, w = v.shape
        cnt = Counter()
        total = 0
        for r in range(1, h - 1):
            for c in range(1, w - 1):
                code = 0
                for k, (dr, dc) in enumerate(LBPStats.OFFSETS):
                    if v[r + dr, c + dc] >= v[r, c]:
                        code += 1 << k
                cnt[code] += 1
                total += code
        energy = sum(n * n for n in cnt.values())
        assert got[f"img{i:012d}"] == (total, energy, (h - 2) * (w - 2))


def test_median3_matches_bruteforce():
    from equi7grid_ray.stages.multimodal import Median3Stats

    batch = make_batch(0, 12)
    out = Median3Stats()(batch)
    got = {out["image_id"][k].as_py():
           (out["n_changed"][k].as_py(), out["med_sum"][k].as_py(),
            out["n_interior"][k].as_py()) for k in range(out.num_rows)}
    for i in range(12):
        v = _img_of(i).astype(int)
        h, w = v.shape
        nchg = msum = 0
        for r in range(1, h - 1):
            for c in range(1, w - 1):
                nb = sorted(v[r + dr, c + dc]
                            for dr in (-1, 0, 1) for dc in (-1, 0, 1))
                m = nb[4]
                msum += m
                nchg += int(m != v[r, c])
        assert got[f"img{i:012d}"] == (nchg, msum, (h - 2) * (w - 2))


def test_median3_denoises_planted_impulse():
    from equi7grid_ray.codec import encode_image
    from equi7grid_ray.stages.multimodal import Median3Stats

    img = np.full((16, 16), 80, np.uint8)
    img[5, 5] = 255                       # salt impulse
    batch = pa.table({
        "image_id": pa.array(["x"], pa.string()),
        "bytes": pa.array([encode_image(img, "raw")], pa.binary()),
        "w": pa.array([16], pa.int32()),
        "h": pa.array([16], pa.int32()),
        "fmt": pa.array(["raw"], pa.string()),
    })
    out = Median3Stats()(batch)
    # the impulse itself is the only changed pixel; median restores 80
    assert out["n_changed"][0].as_py() == 1
    assert out["med_sum"][0].as_py() == 80 * 14 * 14


def test_masked_mosaic_grid_matches_naive():
    """MaskedMosaicGrid: block means >= cloud_t are masked; never-clear
    cells carry the -1 sentinel through the max partial."""
    from equi7grid_ray.stages.mosaic import MaskedMosaicGrid

    batch = make_batch(0, 30)
    tiles = ["T_A" if i % 2 == 0 else "T_B" for i in range(30)]
    batch = batch.append_column("tile", pa.array(tiles))
    out = MaskedMosaicGrid(cloud_t=200)(batch)
    got = {}
    for k in range(out.num_rows):
        key = (out["tile"][k].as_py(), out["gr"][k].as_py(),
               out["gc"][k].as_py())
        got[key] = (out["n_img"][k].as_py(), out["n_clear"][k].as_py(),
                    out["max_clear"][k].as_py())
    expect = {}
    for i in range(30):
        img = _img_of(i).astype(np.int64)
        sr, sc = img.shape[0] // 8, img.shape[1] // 8
        m = img.reshape(8, sr, 8, sc).sum(axis=(1, 3)) // (sr * sc)
        for gr in range(8):
            for gc in range(8):
                key = (tiles[i], gr, gc)
                nt, nc, mx = expect.get(key, (0, 0, -1))
                v = int(m[gr, gc])
                if v < 200:
                    nc, mx = nc + 1, max(mx, v)
                expect[key] = (nt + 1, nc, mx)
    assert got == expect
    # sentinel semantics: a never-clear cell reports max_clear == -1
    assert any(v[2] == -1 for v in expect.values()) == \
        any(v[2] == -1 for v in got.values())


def test_masked_mosaic_all_cloudy_cell():
    from equi7grid_ray.codec import encode_image
    from equi7grid_ray.stages.mosaic import MaskedMosaicGrid

    bright = np.full((16, 16), 255, np.uint8)
    batch = pa.table({
        "image_id": pa.array(["a"], pa.string()),
        "bytes": pa.array([encode_image(bright, "raw")], pa.binary()),
        "w": pa.array([16], pa.int32()),
        "h": pa.array([16], pa.int32()),
        "fmt": pa.array(["raw"], pa.string()),
        "tile": pa.array(["T_X"], pa.string()),
    })
    out = MaskedMosaicGrid(cloud_t=200)(batch)
    assert out.num_rows == 64
    assert set(out["n_clear"].to_pylist()) == {0}
    assert set(out["max_clear"].to_pylist()) == {-1}


def test_shift_detect_planted_shift(ray_session):
    import ray

    from equi7grid_ray.codec import encode_image
    from equi7grid_ray.stages.multimodal import shift_detect

    # frame B is frame A shifted DOWN by 2 rows (distinct row sums) --
    # profile of B at row r+2 equals profile of A at row r, so the
    # best alignment is lag d with A[r] == B[r+d] => d = +2, SAD 0.
    rng = np.random.default_rng(3)
    a = rng.integers(0, 255, size=(24, 16)).astype(np.uint8)
    b = np.zeros_like(a)
    b[2:] = a[:-2]

    def row(i, img):
        return {
            "image_id": f"img{i:012d}",
            "bytes": encode_image(img, "raw"),
            "w": 16, "h": 24, "fmt": "raw",
        }

    t = pa.Table.from_pylist([row(0, a), row(1, b)])
    out = shift_detect(ray.data.from_arrow(t), stride=1, max_lag=4) \
        .to_pandas()
    assert len(out) == 1
    r = out.iloc[0]
    assert r["image_id"] == "img000000000000"
    assert r["best_lag"] == 2 and r["sad"] == 0 and r["n_overlap"] == 22


def test_shift_detect_matches_bruteforce(ray_session):
    import ray

    from equi7grid_ray.sources.images import make_batch
    from equi7grid_ray.stages.multimodal import shift_detect

    n = 40
    out = shift_detect(ray.data.from_arrow(make_batch(0, n)),
                       stride=9, max_lag=4).to_pandas()
    got = {r["image_id"]: (r["best_lag"], r["sad"], r["n_overlap"])
           for _, r in out.iterrows()}
    assert len(got) == n - 9
    for i in range(n - 9):
        pa_ = _img_of(i).astype(np.int64).sum(axis=1)
        pb = _img_of(i + 9).astype(np.int64).sum(axis=1)
        h = len(pa_)
        best = None
        for d in range(-4, 5):
            lo, hi = max(0, -d), min(h, h - d)
            sad = int(np.abs(pa_[lo:hi] - pb[lo + d:hi + d]).sum())
            cnt = hi - lo
            if best is None or sad * best[1] < best[0] * cnt:
                best = (sad, cnt, d)
        assert got[f"img{i:012d}"] == (best[2], best[0], best[1])


def test_tile_gradient_halo_and_interior(ray_session):
    """Central-difference gradient across a tile boundary: on the
    linear field v = gr*8 + gc (+1000 in the east tile), interior
    cells have gx = 2, gy = 16; edge cells bordering the neighbour
    tile see its values; cells missing any of the 4 neighbours are
    dropped."""
    import ray.data as rd

    from equi7grid_ray.stages.mosaic import tile_gradient

    rows = []
    for tile, base in (("EU_E036N078T6", 10), ("EU_E042N078T6", 1000)):
        for gr in range(8):
            for gc in range(8):
                rows.append((tile, gr, gc, base + gr * 8 + gc))
    t = pa.table({
        "tile": pa.array([r[0] for r in rows]),
        "gr": pa.array([r[1] for r in rows], pa.int32()),
        "gc": pa.array([r[2] for r in rows], pa.int32()),
        "v_max": pa.array([r[3] for r in rows], pa.int64()),
    })
    out = tile_gradient(rd.from_arrow(t)).to_pandas()
    got = {(r.tile, r.gr, r.gc): (r.gx, r.gy, r.g1)
           for r in out.itertuples()}
    # rows 0 and 7 lack N/S neighbours -> only gr 1..6 survive; gc 0 of
    # the west tile and gc 7 of the east tile lack E/W neighbours
    assert len(got) == 6 * (7 + 7)
    assert got[("EU_E036N078T6", 3, 3)] == (2, 16, 18)
    # west tile's east edge reads the east tile: gx = v(E) - v(W) =
    # (1000 + 3*8 + 0) - (10 + 3*8 + 6) = 984
    assert got[("EU_E036N078T6", 3, 7)] == (984, 16, 1000)
    # east tile's west edge: gx = (1000+3*8+1) - (10+3*8+7) = 984
    assert got[("EU_E042N078T6", 3, 0)] == (984, 16, 1000)
    assert ("EU_E036N078T6", 0, 3) not in got
    assert ("EU_E042N078T6", 3, 7) not in got


def test_mosaic_halo_distinguishes_hemispheres(ray_session):
    """N006 and S006 tiles are DIFFERENT northings: a cell on the
    north edge of S-hemisphere tile must not read values from the
    N-hemisphere twin (regression for the unsigned-northing parse)."""
    import ray.data as rd

    from equi7grid_ray.stages.mosaic import tile_focal_mean

    rows = []
    for tile, base in (("AS_E012N006T6", 0), ("AS_E012S006T6", 5000)):
        for gr in range(8):
            for gc in range(8):
                rows.append((tile, gr, gc, base))
    t = pa.table({
        "tile": pa.array([r[0] for r in rows]),
        "gr": pa.array([r[1] for r in rows], pa.int32()),
        "gc": pa.array([r[2] for r in rows], pa.int32()),
        "v_max": pa.array([r[3] for r in rows], pa.int64()),
    })
    out = tile_focal_mean(rd.from_arrow(t)).to_pandas()
    # tiles N006 and S006 are 2 tile-steps apart (N000 between them):
    # every window stays within its own tile -> means are pure
    for r in out.itertuples():
        expect = 0 if "N006" in r.tile else 5000
        assert r.focal == expect, (r.tile, r.gr, r.gc)


def test_audio_downsample_trunc_rule_and_values():
    from equi7grid_ray.codec import encode_image
    from equi7grid_ray.stages.multimodal import AudioDownsample

    # craft s16le samples incl. a NEGATIVE block mean that truncation
    # and flooring disagree on: block (-1,-1,-1,-4) -> sum -7 ->
    # trunc(-7/4) = -1 (floor would give -2)
    samples = np.array([-1, -1, -1, -4, 100, 200, 300, 400, 7],
                       dtype=np.int16)  # trailing partial dropped
    raw = samples.astype('<i2').tobytes()
    batch = pa.table({
        "image_id": pa.array(["x"], pa.string()),
        "bytes": pa.array([raw], pa.binary()),
        "fmt": pa.array(["pcm"], pa.string()),
    })
    out = AudioDownsample(factor=4)(batch)
    # block means: trunc(-7/4) = -1; trunc(1000/4) = 250
    assert out["n_out"][0].as_py() == 2
    assert out["sum_sq_ds"][0].as_py() == 1 + 250 * 250
    assert out["peak_ds"][0].as_py() == 250


def test_pcm_stages_read_unsized_payloads_as_pcm():
    from equi7grid_ray.stages.multimodal import PCMAudioFeatures

    body = np.array([1, -2, 300, -7], "<i2").tobytes()
    want = {"n_samples": 4, "sum_sq": 1 + 4 + 90000 + 49, "zcr": 3,
            "peak": 300}
    ids = pa.array(["x"], pa.string())
    no_fmt = pa.table({"image_id": ids, "bytes": pa.array([body])})
    no_size = no_fmt.append_column("fmt", pa.array(["raw"]))
    for batch in (no_fmt, no_size):
        out = PCMAudioFeatures()(batch).to_pylist()[0]
        assert {k: out[k] for k in want} == want
    png = no_fmt.append_column("fmt", pa.array(["png"]))
    with pytest.raises(NotImplementedError):
        PCMAudioFeatures()(png)


def test_spatial_autocorr_matches_naive():
    from equi7grid_ray.stages.multimodal import SpatialAutocorr

    batch = make_batch(0, 9)
    out = SpatialAutocorr()(batch)
    for k in range(9):
        v = _img_of(k).astype(np.int64)
        assert out["n_px"][k].as_py() == v.size
        assert out["s"][k].as_py() == int(v.sum())
        assert out["ss"][k].as_py() == int((v * v).sum())
        assert out["lag_v"][k].as_py() == int((v[:-1] * v[1:]).sum())
        assert out["lag_h"][k].as_py() == int((v[:, :-1] * v[:, 1:]).sum())


def test_tile_flow_d8_parity_and_halo(ray_session):
    """D8 flow direction across a two-tile stitched DEM matches a
    brute-force scalar reference: steepest drop over the 8 Moore
    neighbours, ties to the first of E,SE,S,SW,W,NW,N,NE, dir=0 on
    pits/flats; cells missing any neighbour (stitched-array border)
    are dropped."""
    import ray.data as rd

    from equi7grid_ray.stages.mosaic import _D8, tile_flow_d8

    # deterministic 8x16 DEM in [0, 255]; west tile cols 0-7, east 8-15
    dem = (np.arange(8)[:, None] * 37 + np.arange(16)[None, :] * 91
           + 13) % 256
    dem[4, 4] = 0      # a pit among higher neighbours -> dir 0
    dem[2, 2:5] = 50   # a flat run -> exercises the tie rule
    rows = []
    for tile, c0 in (("EU_E036N078T6", 0), ("EU_E042N078T6", 8)):
        for gr in range(8):
            for gc in range(8):
                rows.append((tile, gr, gc, int(dem[gr, c0 + gc])))
    t = pa.table({
        "tile": pa.array([r[0] for r in rows]),
        "gr": pa.array([r[1] for r in rows], pa.int32()),
        "gc": pa.array([r[2] for r in rows], pa.int32()),
        "v_max": pa.array([r[3] for r in rows], pa.int64()),
    })
    out = tile_flow_d8(rd.from_arrow(t)).to_pandas()
    got = {(r.tile, r.gr, r.gc): (r.dir, r.drop) for r in out.itertuples()}

    exp = {}
    for r in range(1, 7):
        for c in range(1, 15):
            drops = [int(dem[r, c]) - int(dem[r + dr, c + dc])
                     for dr, dc, _ in _D8]
            best = max(drops)
            code = _D8[drops.index(best)][2] if best > 0 else 0
            tile = "EU_E036N078T6" if c < 8 else "EU_E042N078T6"
            exp[(tile, r, c % 8)] = (code, max(best, 0))
    assert got == exp
    assert got[("EU_E036N078T6", 4, 4)] == (0, 0)  # the planted pit
    # border cells (no halo tile on the far side) must be absent
    assert ("EU_E036N078T6", 0, 3) not in got
    assert ("EU_E036N078T6", 3, 0) not in got
    assert ("EU_E042N078T6", 3, 7) not in got


def test_tile_flow_d8_rejects_wide_values(ray_session):
    import ray.data as rd

    from equi7grid_ray.stages.mosaic import tile_flow_d8

    t = pa.table({
        "tile": pa.array(["EU_E036N078T6"]),
        "gr": pa.array([0], pa.int32()),
        "gc": pa.array([0], pa.int32()),
        "v_max": pa.array([300], pa.int64()),
    })
    with pytest.raises(Exception, match="8-bit"):
        tile_flow_d8(rd.from_arrow(t)).to_pandas()


def _flow_accum_reference(dem):
    """Scalar D8 accumulation over a stitched DEM (interior only)."""
    from equi7grid_ray.stages.mosaic import _D8

    h, w = dem.shape
    interior = [(r, c) for r in range(1, h - 1) for c in range(1, w - 1)]
    downs = {}
    for r, c in interior:
        drops = [int(dem[r, c]) - int(dem[r + dr, c + dc])
                 for dr, dc, _ in _D8]
        best = max(drops)
        if best > 0:
            dr, dc, _ = _D8[drops.index(best)]
            if (r + dr, c + dc) in set(interior):
                downs[(r, c)] = (r + dr, c + dc)
    acc = {cell: 1 for cell in interior}
    for cell in sorted(interior, key=lambda rc: -dem[rc]):
        if cell in downs:
            acc[downs[cell]] += acc[cell]
    return acc


def _two_tile_mosaic(dem):
    rows = []
    for tile, c0 in (("EU_E036N078T6", 0), ("EU_E042N078T6", 8)):
        for gr in range(8):
            for gc in range(8):
                rows.append((tile, gr, gc, int(dem[gr, c0 + gc])))
    return pa.table({
        "tile": pa.array([r[0] for r in rows]),
        "gr": pa.array([r[1] for r in rows], pa.int32()),
        "gc": pa.array([r[2] for r in rows], pa.int32()),
        "v_max": pa.array([r[3] for r in rows], pa.int64()),
    })


def test_tile_flow_accum_matches_reference(ray_session):
    import ray.data as rd

    from equi7grid_ray.stages.mosaic import tile_flow_accum

    dem = (np.arange(8)[:, None] * 53 + np.arange(16)[None, :] * 97
           + 29) % 256
    dem[4, 4] = 0  # pit collecting its neighbourhood
    out = tile_flow_accum(rd.from_arrow(_two_tile_mosaic(dem))) \
        .to_pandas()
    got = {(r.tile, r.gr, r.gc): r.acc for r in out.itertuples()}
    ref = _flow_accum_reference(dem)
    exp = {("EU_E036N078T6" if c < 8 else "EU_E042N078T6", r, c % 8): a
           for (r, c), a in ref.items()}
    assert got == exp
    assert sum(got.values()) >= len(got)  # every cell counts itself


def test_tile_flow_accum_second_dem_matches_reference(ray_session):
    """A second DEM with no planted pit, against the scalar reference."""
    import ray.data as rd

    from equi7grid_ray.stages.mosaic import tile_flow_accum

    dem = (np.arange(8)[:, None] * 31 + np.arange(16)[None, :] * 73
           + 7) % 256
    out = tile_flow_accum(rd.from_arrow(_two_tile_mosaic(dem))) \
        .to_pandas()
    got = {(r.tile, r.gr, r.gc): r.acc for r in out.itertuples()}
    exp = {("EU_E036N078T6" if c < 8 else "EU_E042N078T6", r, c % 8): a
           for (r, c), a in _flow_accum_reference(dem).items()}
    assert got == exp


def _raw_one(img: np.ndarray) -> pa.Table:
    h, w = img.shape
    return pa.table({
        "image_id": pa.array(["t"]),
        "bytes": pa.array([encode_image(img.astype(np.uint8), "raw")],
                          pa.binary()),
        "w": pa.array([w], pa.int32()), "h": pa.array([h], pa.int32()),
        "fmt": pa.array(["raw"]),
    })


def test_seam_matches_scalar_dp():
    """SeamStats vectorized row sweep vs a per-pixel scalar DP."""
    from equi7grid_ray.stages.multimodal import SeamStats

    rng = np.random.default_rng(7)
    for _ in range(10):
        h, w = int(rng.integers(2, 12)), int(rng.integers(2, 14))
        img = rng.integers(0, 256, (h, w)).astype(np.uint8)
        m = [[0] * w for _ in range(h)]
        for c in range(w):
            m[0][c] = int(img[0, c])
        for r in range(1, h):
            for c in range(w):
                best = m[r - 1][c]
                if c > 0:
                    best = min(best, m[r - 1][c - 1])
                if c < w - 1:
                    best = min(best, m[r - 1][c + 1])
                m[r][c] = int(img[r, c]) + best
        mn = min(m[h - 1])
        cols = [c for c in range(w) if m[h - 1][c] == mn]
        out = SeamStats()(_raw_one(img))
        assert out["seam_cost"][0].as_py() == mn
        assert out["seam_col"][0].as_py() == cols[0]
        assert out["n_ties"][0].as_py() == len(cols)


def test_dither_known_tiny_case():
    """Bayer thresholds pinned on a hand-checkable gradient frame."""
    from equi7grid_ray.stages.multimodal import DitherStats, _BAYER4

    img = np.arange(16, dtype=np.uint8).reshape(4, 4) * 17  # 0..255
    out = DitherStats()(_raw_one(img))
    thr = _BAYER4 * 16 + 8
    on = img.astype(int) > thr
    assert out["n_on"][0].as_py() == int(on.sum())
    assert out["pos_sum"][0].as_py() == int(np.flatnonzero(on).sum())


def test_blob_perimeter_matches_bfs():
    """Per-component perimeter vs pixel-level exposed-edge counting."""
    from collections import deque

    from equi7grid_ray.stages.multimodal import label_run_boxes

    rng = np.random.default_rng(23)
    for _ in range(25):
        m = rng.random((10, 13)) < 0.45
        seen = np.zeros_like(m)
        expect = []
        for r0 in range(m.shape[0]):
            for c0 in range(m.shape[1]):
                if m[r0, c0] and not seen[r0, c0]:
                    q = deque([(r0, c0)])
                    seen[r0, c0] = True
                    pix = []
                    while q:
                        r, c = q.popleft()
                        pix.append((r, c))
                        for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                            rr, cc = r + dr, c + dc
                            if 0 <= rr < m.shape[0] \
                                    and 0 <= cc < m.shape[1] \
                                    and m[rr, cc] and not seen[rr, cc]:
                                seen[rr, cc] = True
                                q.append((rr, cc))
                    per = 0
                    for r, c in pix:
                        for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                            rr, cc = r + dr, c + dc
                            if not (0 <= rr < m.shape[0]
                                    and 0 <= cc < m.shape[1]) \
                                    or not m[rr, cc]:
                                per += 1
                    expect.append((len(pix), per))
        res = label_run_boxes(m, return_perim=True)
        got = sorted(zip(res[6].tolist(), res[7].tolist()))
        assert got == sorted(expect)


def _basins_reference(dem):
    """Scalar D8 basin delineation over a stitched DEM: follow the
    steepest-drop pointer until a pit/flat or an exit from the
    interior; aggregate members per sink."""
    from equi7grid_ray.stages.mosaic import _D8

    h, w = dem.shape
    interior = {(r, c) for r in range(1, h - 1) for c in range(1, w - 1)}
    downs = {}
    for r, c in interior:
        drops = [int(dem[r, c]) - int(dem[r + dr, c + dc])
                 for dr, dc, _ in _D8]
        best = max(drops)
        if best > 0:
            dr, dc, _ = _D8[drops.index(best)]
            if (r + dr, c + dc) in interior:
                downs[(r, c)] = (r + dr, c + dc)
    basins = {}
    for cell in interior:
        cur = cell
        while cur in downs:
            cur = downs[cur]
        n, sv = basins.get(cur, (0, 0))
        basins[cur] = (n + 1, sv + int(dem[cell]))
    return basins


def test_tile_basins_matches_reference(ray_session):
    import ray.data as rd

    from equi7grid_ray.stages.mosaic import tile_basins

    dem = (np.arange(8)[:, None] * 53 + np.arange(16)[None, :] * 97
           + 29) % 256
    dem[4, 4] = 0   # pit: becomes a sink collecting its neighbourhood
    dem[2, 9] = 0   # second pit on the east tile
    out = tile_basins(rd.from_arrow(_two_tile_mosaic(dem))).to_pandas()
    got = {(r.tile, r.gr, r.gc): (r.v_sink, r.n_cells, r.sum_v)
           for r in out.itertuples()}
    ref = _basins_reference(dem)
    exp = {}
    for (r, c), (n, sv) in ref.items():
        tile = "EU_E036N078T6" if c < 8 else "EU_E042N078T6"
        exp[(tile, r, c % 8)] = (int(dem[r, c]), n, sv)
    assert got == exp
    # basins partition the interior: member counts sum to |interior|
    assert out["n_cells"].sum() == 6 * 14


def test_tile_basins_second_dem_matches_reference(ray_session,
                                                  assert_shared_partition):
    """A second DEM with one pit on the west tile, against the scalar
    reference."""
    import ray.data as rd

    from equi7grid_ray.stages.mosaic import (_cell_coords, _packed_keys,
                                             tile_basins)

    dem = (np.arange(8)[:, None] * 31 + np.arange(16)[None, :] * 73
           + 7) % 256
    dem[5, 3] = 0
    mosaic = _two_tile_mosaic(dem)
    # cells share the halo exchange's 32 partitions
    assert_shared_partition(32, fkey=_packed_keys(*_cell_coords(mosaic)))
    out = tile_basins(rd.from_arrow(mosaic)).to_pandas()
    got = {(r.tile, r.gr, r.gc): (r.v_sink, r.n_cells, r.sum_v)
           for r in out.itertuples()}
    exp = {("EU_E036N078T6" if c < 8 else "EU_E042N078T6", r, c % 8):
           (int(dem[r, c]), n, sv)
           for (r, c), (n, sv) in _basins_reference(dem).items()}
    assert got == exp
    assert out["n_cells"].sum() == 6 * 14


def test_audio_vad_crafted_segments():
    """Planted active/silent frame pattern: frame=4 samples, activity
    when sum(v^2) > 4 * msq.  Clip layout (6 frames):
    active, active, silent, active, silent, silent -> 2 segments,
    longest 2; the trailing partial frame is dropped."""
    from equi7grid_ray.stages.multimodal import AudioVAD

    def clip_bytes(samples):
        v = np.asarray(samples, np.int64)
        u = np.where(v < 0, v + 65536, v)
        out = np.empty(2 * len(v), np.uint8)
        out[0::2] = u % 256
        out[1::2] = u // 256
        return bytes(out)

    LOUD, SOFT = 25_000, 10
    frames = [[LOUD] * 4, [-LOUD] * 4, [SOFT] * 4,
              [LOUD, -LOUD, LOUD, -LOUD], [SOFT] * 4, [-SOFT] * 4]
    samples = [s for f in frames for s in f] + [LOUD]  # partial tail
    silent = [SOFT] * 8
    batch = pa.table({
        "image_id": pa.array(["mix", "silent"]),
        "bytes": pa.array([clip_bytes(samples), clip_bytes(silent)],
                          pa.binary()),
        "w": pa.array([2 * len(samples), 16], pa.int32()),
        "h": pa.array([1, 1], pa.int32()),
        "fmt": pa.array(["raw", "raw"]),
    })
    out = AudioVAD(frame=4, msq_thresh=400_000_000)(batch)
    got = {out["image_id"][k].as_py():
           (out["n_frames"][k].as_py(), out["n_active"][k].as_py(),
            out["n_segments"][k].as_py(), out["longest"][k].as_py())
           for k in range(out.num_rows)}
    assert got["mix"] == (6, 3, 2, 2)
    assert got["silent"] == (2, 0, 0, 0)
    # threshold is strict: a frame exactly AT the mean-square bound is
    # inactive (25000^2 = 625e6 > 400e6 -> active; verify boundary)
    at = clip_bytes([20_000, -20_000, 20_000, -20_000])  # msq = 4e8
    b2 = pa.table({
        "image_id": pa.array(["boundary"]),
        "bytes": pa.array([at], pa.binary()),
        "w": pa.array([8], pa.int32()), "h": pa.array([1], pa.int32()),
        "fmt": pa.array(["raw"]),
    })
    o2 = AudioVAD(frame=4, msq_thresh=400_000_000)(b2)
    assert o2["n_active"][0].as_py() == 0  # == threshold, not >


def test_hough4_planted_line():
    """A bright vertical line on a flat frame wins orientation 0 at
    the line's column; a diagonal-stripe frame wins an r+c rho."""
    from equi7grid_ray.stages.multimodal import HoughLines4

    flat = np.zeros((16, 16), np.uint8)
    flat[:, 7] = 255  # vertical line at c=7
    diag = np.zeros((16, 16), np.uint8)
    for k in range(-1, 2):
        idx = np.arange(16)
        r, c = idx, (14 - idx + k)
        ok = (c >= 0) & (c < 16)
        diag[r[ok], c[ok]] = 255  # anti-diagonal band r + c ~ 14
    batch = pa.table({
        "image_id": pa.array(["vline", "diag"]),
        "bytes": pa.array([encode_image(flat, "raw"),
                           encode_image(diag, "raw")], pa.binary()),
        "w": pa.array([16, 16], pa.int32()),
        "h": pa.array([16, 16], pa.int32()),
        "fmt": pa.array(["raw", "raw"]),
    })
    out = HoughLines4()(batch)
    got = {out["image_id"][k].as_py():
           (out["best_orient"][k].as_py(), out["best_rho"][k].as_py())
           for k in range(out.num_rows)}
    # Sobel responds on BOTH sides of the line: columns 6 and 8 each
    # collect every interior row; ties go to the smaller rho
    assert got["vline"] == (0, 6)
    assert got["diag"][0] == 1  # 45-degree family wins the stripes
    # zero-edge frame: constant image emits the (-1, 0, 0) default
    const = np.full((8, 8), 9, np.uint8)
    b2 = pa.table({
        "image_id": pa.array(["const"]),
        "bytes": pa.array([encode_image(const, "raw")], pa.binary()),
        "w": pa.array([8], pa.int32()), "h": pa.array([8], pa.int32()),
        "fmt": pa.array(["raw"]),
    })
    o2 = HoughLines4()(b2)
    assert (o2["n_edges"][0].as_py(), o2["best_orient"][0].as_py(),
            o2["best_votes"][0].as_py()) == (0, -1, 0)


def test_hough4_matches_bruteforce():
    """Vote table + tie rule vs a scalar reference on synthetic
    frames."""
    from equi7grid_ray.stages.multimodal import HoughLines4

    batch = make_batch(40, 6)
    out = HoughLines4()(batch)
    for k in range(6):
        v = _img_of(40 + k).astype(np.int64)
        gx = (v[:-2, 2:] + 2 * v[1:-1, 2:] + v[2:, 2:]) \
            - (v[:-2, :-2] + 2 * v[1:-1, :-2] + v[2:, :-2])
        gy = (v[2:, :-2] + 2 * v[2:, 1:-1] + v[2:, 2:]) \
            - (v[:-2, :-2] + 2 * v[:-2, 1:-1] + v[:-2, 2:])
        rr, cc = np.nonzero(np.abs(gx) + np.abs(gy) >= 256)
        rr, cc = rr + 1, cc + 1
        assert out["n_edges"][k].as_py() == len(rr)
        if len(rr) == 0:
            assert out["best_orient"][k].as_py() == -1
            assert out["best_votes"][k].as_py() == 0
            continue
        votes = {}
        for o, rho in ((0, cc), (1, rr + cc), (2, rr), (3, rr - cc)):
            for x in rho:
                votes[(o, int(x))] = votes.get((o, int(x)), 0) + 1
        bo, brho = min(votes,
                       key=lambda orho: (-votes[orho],) + orho)
        assert out["best_orient"][k].as_py() == bo
        assert out["best_rho"][k].as_py() == brho
        assert out["best_votes"][k].as_py() == votes[(bo, brho)]


def test_tile_tri_matches_scalar(ray_session):
    import ray.data as rd

    from equi7grid_ray.stages.mosaic import _D8, tile_tri

    dem = (np.arange(8)[:, None] * 41 + np.arange(16)[None, :] * 67
           + 3) % 256
    out = tile_tri(rd.from_arrow(_two_tile_mosaic(dem))).to_pandas()
    got = {(r.tile, r.gr, r.gc): r.tri for r in out.itertuples()}
    exp = {}
    for r in range(1, 7):
        for c in range(1, 15):
            tri = sum(abs(int(dem[r, c]) - int(dem[r + dr, c + dc]))
                      for dr, dc, _ in _D8)
            tile = "EU_E036N078T6" if c < 8 else "EU_E042N078T6"
            exp[(tile, r, c % 8)] = tri
    assert got == exp


def test_tile_aspect_sector_rule(ray_session):
    """Crafted planes pin the 8-sector rule: a pure west-up ramp faces
    east (1); a diagonal plane with |u| == |w| lands on the diagonal
    codes; a flat plane is 0."""
    import ray.data as rd

    from equi7grid_ray.stages.mosaic import tile_aspect

    # east-facing: v increases to the WEST -> u = vw - ve > 0, w = 0
    east = np.repeat((np.arange(16)[::-1] * 3)[None, :], 8, axis=0) % 256
    out = tile_aspect(rd.from_arrow(_two_tile_mosaic(east))).to_pandas()
    assert set(out["aspect"]) == {1}
    # flat
    flat = np.full((8, 16), 77)
    out = tile_aspect(rd.from_arrow(_two_tile_mosaic(flat))).to_pandas()
    assert set(out["aspect"]) == {0}
    # SE-facing diagonal: v = 200 - 3r - 3c -> u = vw - ve = 6 = w
    rr, cc = np.meshgrid(np.arange(8), np.arange(16), indexing="ij")
    se = (200 - 3 * rr - 3 * cc) % 256
    out = tile_aspect(rd.from_arrow(_two_tile_mosaic(se))).to_pandas()
    got = dict(zip(out["aspect"], out["n"]))
    assert max(got, key=got.get) == 2


def test_distance_transform_crafted():
    """Single fg pixel in a 7x7 frame: ring counts are exactly the
    Chebyshev shells (8 at d=1, 16 at d=2, rest far)."""
    from equi7grid_ray.stages.multimodal import DistanceTransform

    img = np.zeros((7, 7), np.uint8)
    img[3, 3] = 255
    out = DistanceTransform()(_raw_one(img))
    assert (out["n_d0"][0].as_py(), out["n_d1"][0].as_py(),
            out["n_d2"][0].as_py(), out["n_far"][0].as_py()) \
        == (1, 8, 16, 49 - 25)
    # corner fg: shells clip at the frame edge, nothing wraps
    img2 = np.zeros((5, 5), np.uint8)
    img2[0, 0] = 255
    o2 = DistanceTransform()(_raw_one(img2))
    assert (o2["n_d0"][0].as_py(), o2["n_d1"][0].as_py(),
            o2["n_d2"][0].as_py(), o2["n_far"][0].as_py()) \
        == (1, 3, 5, 25 - 9)


def test_boxsum_matches_naive_windows(ray_session):
    import ray.data as rd

    from equi7grid_ray.sources.images import make_batch
    from equi7grid_ray.stages.multimodal import BoxSumStats

    batch = make_batch(0, 9)
    got = rd.from_arrow(batch).map_batches(
        BoxSumStats, batch_format="pyarrow", concurrency=1, num_cpus=1
    ).to_pandas().sort_values("image_id").reset_index(drop=True)
    for j in range(9):
        w = int(batch.column("w")[j].as_py())
        h = int(batch.column("h")[j].as_py())
        r = np.arange(h, dtype=np.int64)[:, None]
        c = np.arange(w, dtype=np.int64)[None, :]
        v = (r * h + c * w + j) % 256
        boxes = np.array([
            v[a:a + 5, b:b + 5].sum()
            for a in range(h - 4) for b in range(w - 4)], np.int64)
        row = got.iloc[j]
        assert row["n_win"] == len(boxes)
        assert row["box_max"] == boxes.max()
        assert row["box_min"] == boxes.min()
        assert row["bright_win"] == int((boxes >= 3200).sum())
        assert row["box_total"] == int(boxes.sum())


def test_audio_peak_window_planted_burst(ray_session):
    import ray.data as rd

    from equi7grid_ray.stages.multimodal import AudioPeakWindow

    # 1024 samples, silent except a burst at samples 600..610
    v = np.zeros(1024, np.int16)
    v[600:611] = 1000
    raw = v.astype("<i2").tobytes()
    tbl = pa.table({
        "image_id": pa.array(["clip0"]),
        "bytes": pa.array([raw], pa.binary()),
        "fmt": pa.array(["raw"]),
        "w": pa.array([64], pa.int32()),
        "h": pa.array([32], pa.int32()),
    })
    got = rd.from_arrow(tbl).map_batches(
        AudioPeakWindow, batch_format="pyarrow", concurrency=1,
        num_cpus=1).to_pandas()
    r = got.iloc[0]
    assert r["n_windows"] == 1024 - 256 + 1
    assert r["peak_energy"] == 11 * 1000 * 1000
    # earliest window fully containing the burst starts at 610-255
    assert r["peak_start"] == 610 - 255


def test_video_static_runs_crafted(ray_session):
    import ray.data as rd

    from equi7grid_ray.stages.multimodal import VideoStaticRuns

    # 6 frames of width 4: frames 0-2 identical (2 static pairs),
    # frame 3 inverts (cut), frames 3-4 identical (1 static pair),
    # frame 5 inverts (cut) -> pairs: [ok, ok, cut, ok, cut]
    f = np.zeros((6, 4), np.uint8)
    f[3] = 255
    f[4] = 255
    f[5] = 0
    raw = f.tobytes()
    tbl = pa.table({
        "image_id": pa.array(["v0"]),
        "bytes": pa.array([raw], pa.binary()),
        "fmt": pa.array(["raw"]),
        "w": pa.array([4], pa.int32()),
        "h": pa.array([6], pa.int32()),
    })
    got = rd.from_arrow(tbl).map_batches(
        VideoStaticRuns, batch_format="pyarrow", concurrency=1,
        num_cpus=1).to_pandas()
    r = got.iloc[0]
    assert (r["n_static_pairs"], r["n_runs"], r["max_run"]) == (3, 2, 2)
