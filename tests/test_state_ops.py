"""Checkpoint/manifest resume, counters, cells, dedup, text and
similarity operator tests (Ray-backed where the operator is a Dataset
transform)."""

import numpy as np
import pyarrow as pa
import pytest

from equi7grid_ray.cells import (
    cell_center,
    cell_children,
    cell_id,
    cell_parent,
    salt_keys,
)
from equi7grid_ray.state.checkpoint import Manifest, pending_partitions, write_equi7_partition


def test_cell_roundtrip():
    lon = np.array([-179.9, 0.0, 15.1, 179.9])
    lat = np.array([-89.9, 0.0, 45.3, 89.9])
    cid = cell_id(lon, lat, 9)
    clon, clat = cell_center(cid)
    assert (np.abs(clon - lon) <= 360 / 512).all()
    assert (np.abs(clat - lat) <= 180 / 512).all()
    par = cell_parent(cid)
    kids = cell_children(par)
    assert ((kids == cid[:, None]).any(axis=1)).all()


def test_salt_spreads():
    keys = np.zeros(1000, dtype=np.int64)  # one hot key
    salted = salt_keys(keys, np.arange(1000), 16)
    assert len(np.unique(salted)) == 16


def _tile_table(values) -> pa.Table:
    n = len(values)
    return pa.table({"continent": pa.array(["EU"] * n), "tile": pa.array(["EU_E048N012T6"] * n),
                     "v": pa.array(values, pa.int64())})


def test_checkpoint_resume(tmp_path):
    t = _tile_table(range(5))
    out = tmp_path / "out"
    p1 = write_equi7_partition(out, "0001", t, rows_in=5)
    assert p1 is not None
    assert (out / "part-0001/EQUI7_EU/E048N012T6/0001_EU_E048N012T6.parquet").is_file()
    # second write is skipped (resume)
    assert write_equi7_partition(out, "0001", t) is None
    assert pending_partitions(out, ["0001", "0002"]) == ["0002"]
    man = Manifest(out)
    all_ = man.load_all()
    assert all_[0]["rows_out"] == 5 and all_[0]["tile_counts"]["EU_E048N012T6"] == 5
    assert man.counters()["rows_out"] == 5


def test_exact_dedup(ray_session):
    import ray.data as rd

    from equi7grid_ray.stages.dedup import exact_dedup

    t = pa.table(
        {
            "doc_id": pa.array(range(10), pa.int64()),
            "text": pa.array(["aaa", "bbb", "aaa", "ccc", "bbb"] * 2),
        }
    )
    out = exact_dedup(rd.from_arrow(t)).to_pandas()
    assert sorted(out["doc_id"]) == [0, 1, 3]


def test_simhash_similarity():
    from equi7grid_ray.stages.dedup import simhash64

    t = pa.table(
        {
            "doc_id": pa.array([0, 1, 2], pa.int64()),
            "text": pa.array(
                [
                    "the quick brown fox jumps over the lazy dog",
                    "the quick brown fox jumps over the lazy cat",
                    "completely different words entirely unrelated content",
                ]
            ),
        }
    )
    out = simhash64(t)
    h = np.asarray(out.column("simhash").to_pylist(), dtype=np.int64).view(np.uint64)
    d01 = bin(int(h[0] ^ h[1])).count("1")
    d02 = bin(int(h[0] ^ h[2])).count("1")
    assert d01 < d02  # near-dup pair is closer in hamming space


def test_ngram_jaccard():
    from equi7grid_ray.stages.dedup import ngram_jaccard

    assert ngram_jaccard("abcdef", "abcdef") == 1.0
    assert ngram_jaccard("abcdef", "uvwxyz") == 0.0
    assert 0.0 < ngram_jaccard("abcdef", "abcxyz") < 1.0


def test_minhash_lsh_finds_near_dups(ray_session):
    import ray.data as rd

    from equi7grid_ray.stages.dedup import lsh_candidate_pairs

    rng = np.random.default_rng(3)
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"]
    docs = []
    for i in range(30):
        docs.append(" ".join(rng.choice(words, 30).tolist()) + f" unique{i}")
    docs.append(docs[0] + " x")  # 30 is a near-dup of 0
    t = pa.table({"doc_id": pa.array(range(31), pa.int64()), "text": pa.array(docs)})
    pairs = lsh_candidate_pairs(rd.from_arrow(t), max_bucket=50).to_pandas()
    assert ((pairs.id_a == 0) & (pairs.id_b == 30)).any()


def test_topk_cosine(ray_session):
    import ray.data as rd

    from equi7grid_ray.stages.similarity import topk_cosine

    rng = np.random.default_rng(0)
    emb = rng.standard_normal((100, 16))
    emb[7] = emb[0] * 2.0  # same direction as row 0
    t = pa.table(
        {
            "vec_id": pa.array(range(100), pa.int64()),
            "embedding": pa.array(emb.tolist(), pa.list_(pa.float32())),
        }
    )
    out = topk_cosine(rd.from_arrow(t), emb[0], k=3).to_pandas()
    assert set(out.vec_id[:2]) >= {0}
    assert 7 in set(out.vec_id)


def test_knn_tiles():
    from equi7grid_ray.stages.similarity import knn_tiles

    stage = knn_tiles(k=3)
    batch = pa.table(
        {
            "image_id": pa.array(["a"]),
            "continent": pa.array(["EU"]),
            "x": pa.array([5138743.0]),
            "y": pa.array([1307029.0]),
        }
    )
    out = stage(batch).to_pandas()
    assert len(out) == 3
    assert out.iloc[0]["tile"] == "EU_E048N012T6"  # containing tile is nearest
    assert (out["dist"].values[:-1] <= out["dist"].values[1:]).all()


def test_langid():
    from equi7grid_ray.stages.text import LangId

    t = pa.table(
        {
            "doc_id": pa.array([0, 1], pa.int64()),
            "text": pa.array(
                [
                    "the cat and the dog sing of the morning",
                    "der hund und die katze singen schoene lieder",
                ]
            ),
            "lang": pa.array(["en", "de"]),
        }
    )
    out = LangId()(t).to_pandas()
    assert list(out.lang_pred) == ["en", "de"]


def test_hyperplane_lsh_buckets():
    from equi7grid_ray.stages.similarity import HyperplaneLSH

    rng = np.random.default_rng(1)
    emb = rng.standard_normal((50, 8))
    emb[10] = emb[4] * 3.1  # identical direction -> identical bucket
    t = pa.table(
        {
            "vec_id": pa.array(range(50), pa.int64()),
            "embedding": pa.array(emb.tolist(), pa.list_(pa.float32())),
        }
    )
    out = HyperplaneLSH(dim=8)(t).to_pandas()
    assert out.bucket[4] == out.bucket[10]


def test_png_rgb8_roundtrip():
    """Pure-zlib RGB (color type 2) PNG: encode -> decode bit-exact,
    including filter-1/2 unfilter with the 3-byte pixel stride."""
    import struct
    import zlib

    from equi7grid_ray.codec import decode_png, encode_png_rgb8

    rng = np.random.default_rng(7)
    img = rng.integers(0, 256, (17, 23, 3), dtype=np.uint8)
    assert np.array_equal(decode_png(encode_png_rgb8(img)), img)
    # gray still round-trips through the shared decoder
    from equi7grid_ray.codec import encode_png_gray8

    g = rng.integers(0, 256, (9, 11), dtype=np.uint8)
    assert np.array_equal(decode_png(encode_png_gray8(g)), g)

    # hand-build filtered scanlines (sub + up) and check the unfilter
    h, w = 4, 5
    img = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
    raw = np.empty((h, w * 3 + 1), dtype=np.uint8)
    flat = img.reshape(h, w * 3).astype(np.int16)
    raw[0, 0] = 1  # sub
    d = flat[0].reshape(w, 3).copy()
    d[1:] -= flat[0].reshape(w, 3)[:-1]
    raw[0, 1:] = (d.reshape(-1) % 256).astype(np.uint8)
    for r in range(1, h):
        raw[r, 0] = 2  # up
        raw[r, 1:] = ((flat[r] - flat[r - 1]) % 256).astype(np.uint8)
    sig = b"\x89PNG\r\n\x1a\n"

    def chunk(tag, payload):
        return (struct.pack(">I", len(payload)) + tag + payload
                + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF))

    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    buf = (sig + chunk(b"IHDR", ihdr)
           + chunk(b"IDAT", zlib.compress(raw.tobytes()))
           + chunk(b"IEND", b""))
    assert np.array_equal(decode_png(buf), img)


def test_rgb_fixture_decodes():
    from equi7grid_ray.sources.images import make_rgb_batch
    from equi7grid_ray.stages.multimodal import DecodeImages, DHashImages

    b = make_rgb_batch(0, 9)
    out = DecodeImages()(b)
    # thumbnails are (16, 16, 3) for RGB payloads
    assert len(out.column("thumb")[0].as_py()) == 16 * 16 * 3
    # exact mean vs the generating pattern for row 0 (32x32, i=0)
    r = np.arange(32)[:, None, None]
    c = np.arange(32)[None, :, None]
    bb = np.arange(3)[None, None, :]
    img = ((r * 32 + c * 32 + 0 + 85 * bb) % 256).astype(np.uint8)
    assert out.column("px_mean")[0].as_py() == img.mean()
    # dHash handles RGB via integer luma without raising
    dh = DHashImages()(b)
    assert dh.num_rows == 9


def test_multimodal_stages():
    from equi7grid_ray.sources.images import make_batch
    from equi7grid_ray.stages.multimodal import (
        AudioFeatures,
        DecodeImages,
        FrameSampler,
    )

    b = make_batch(0, 12)
    out = DecodeImages()(b)
    assert out.num_rows == 12 and len(out.column("thumb")[0].as_py()) == 256

    au = AudioFeatures()(b)
    assert au.num_rows == 12 and all(v > 0 for v in au.column("rms").to_pylist())
    with pytest.raises(NotImplementedError):
        AudioFeatures(use_fake=False)(b)

    fr = FrameSampler(every=5, n_frames=20)(b)
    assert fr.num_rows == 12 * 4
    # determinism across calls
    fr2 = FrameSampler(every=5, n_frames=20)(b)
    assert fr.column("frame")[0].as_py() == fr2.column("frame")[0].as_py()


def test_user_tiling_t2_assignment():
    """User-defined T2 = 200 km tiling (grid.ipynb scenario): tile sets
    build on demand and point->tile assignment works end to end."""
    import pyarrow as pa

    from equi7grid_ray.grid import GridSpec
    from equi7grid_ray.stages.tile_assign import TileAssigner

    spec = GridSpec(sampling={"T2": 100.0}, tilings={1: ("T2", 200_000.0)})
    ta = TileAssigner("T2", spec=spec)
    batch = pa.table({"image_id": pa.array(["a"]), "lon": pa.array([15.1]),
                      "lat": pa.array([45.3])})
    out = ta(batch).to_pydict()
    # x=5138743.13 -> ll 5.0e6 -> E050; y=1307029.16 -> ll 1.2e6 -> N012
    assert out["tile"] == ["EU_E050N012T2"]


def test_bbox_tiles_stage_matches_driver_roi():
    """Per-row bbox search agrees with the atlas-based driver search for
    a small in-zone bbox."""
    import pyarrow as pa

    from equi7grid_ray import roi
    from equi7grid_ray.stages.roi_search import BBoxTilesStage

    stage = BBoxTilesStage()
    batch = pa.table({
        "roi_id": pa.array([1], pa.int64()),
        "lon_min": pa.array([16.0]), "lat_min": pa.array([48.0]),
        "lon_max": pa.array([18.0]), "lat_max": pa.array([50.0]),
    })
    got = sorted(stage(batch).column("tile").to_pylist())
    want = sorted(roi.tiles_in_geog_bbox((16, 48, 18, 50), "T6"))
    assert got == want


def test_ivf_topk_finds_true_neighbors(ray_session):
    """IVF-probed search recovers the brute-force top results for a
    clustered corpus (scale path of the ANN family)."""
    import ray.data as rd

    from equi7grid_ray.stages.ann_ivf import ivf_topk, train_centroids

    rng = np.random.default_rng(5)
    centers = rng.standard_normal((8, 16)) * 4
    vecs = np.vstack([c + rng.standard_normal((40, 16)) * 0.3 for c in centers])
    t = pa.table({
        "vec_id": pa.array(range(len(vecs)), pa.int64()),
        "embedding": pa.array(vecs.tolist(), pa.list_(pa.float32())),
    })
    q = vecs[5]
    out = ivf_topk(rd.from_arrow(t), q, n_lists=8, n_probe=2, k=5).to_pandas()
    assert 5 in set(out.vec_id)  # the query vector itself is found
    # brute-force truth
    nv = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    truth = np.argsort(-(nv @ (q / np.linalg.norm(q))))[:5]
    assert len(set(out.vec_id) & set(truth.tolist())) >= 4

    cent = train_centroids(vecs, n_lists=8)
    assert cent.shape == (8, 16)
    assert np.allclose(np.linalg.norm(cent, axis=1), 1.0)


def test_quality_score_features():
    from equi7grid_ray.stages.text import quality_score

    t = pa.table({
        "doc_id": pa.array([0, 1], pa.int64()),
        "text": pa.array(["hello world 123!", "abc def"]),
        "lang": pa.array(["en", "en"]),
        "source": pa.array(["s0", "s0"]),
    })
    out = quality_score(t).to_pandas()
    assert out.n_tokens.tolist() == [3, 2]
    assert out.n_chars.tolist() == [16, 7]
    assert abs(out.digit_ratio[0] - 3 / 16) < 1e-12
    assert abs(out.punct_ratio[0] - 1 / 16) < 1e-12
    assert abs(out.mean_token_len[1] - 3.0) < 1e-12


def test_fingerprint_deterministic():
    from equi7grid_ray.stages.text import fingerprint64

    t = pa.table({"doc_id": pa.array([0, 1], pa.int64()),
                  "text": pa.array(["same text", "same text"])})
    out = fingerprint64(t).to_pandas()
    assert out.fingerprint[0] == out.fingerprint[1]
    t2 = pa.table({"doc_id": pa.array([0], pa.int64()),
                   "text": pa.array(["different"])})
    assert fingerprint64(t2).to_pandas().fingerprint[0] != out.fingerprint[0]


def test_skewed_batch_hash_memory():
    """One 5 MB document in a 4096-row batch must hash with a bounded
    peak (the round-1 dense (n x maxlen) matrix would have allocated
    ~20 GB here; the offset-buffer pass stays under 200 MB)."""
    import tracemalloc

    import pyarrow as pa

    from equi7grid_ray.stages.dedup import (
        MinHasher,
        _column_bytes,
        hash_bytes_offsets,
        simhash64,
    )

    texts = [f"doc number {i} body" for i in range(4095)] + ["x y z " * 850_000]
    t = pa.table({
        "doc_id": pa.array(range(4096), pa.int64()),
        "text": pa.array(texts, pa.string()),
    })
    flat, offs = _column_bytes(t.column("text"))
    tracemalloc.start()
    h = hash_bytes_offsets(flat, offs)
    sh = simhash64(t)
    sig = MinHasher().signatures(t.column("text"))
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < 200 * 1024 * 1024, f"peak {peak/1e6:.0f} MB"
    assert len(set(h.tolist())) == 4096  # distinct docs -> distinct hashes
    assert sig.shape == (4096, 64)
    assert sh.num_rows == 4096


def test_partition_checksum_covers_data(tmp_path):
    """The manifest checksum digests column BUFFERS, not just shape:
    same-shape different-content partitions get different digests."""
    import json

    t1 = _tile_table([1, 2, 3])
    t2 = _tile_table([1, 2, 4])
    write_equi7_partition(tmp_path / "x", "p1", t1)
    write_equi7_partition(tmp_path / "y", "p1", t2)
    write_equi7_partition(tmp_path / "z", "p1", t1)

    def digest(d):
        f = tmp_path / d / "_manifest" / "part-p1.json"
        return json.loads(f.read_text())["checksum"]

    assert digest("x") != digest("y")
    assert digest("x") == digest("z")


def _naive_signature(text: str, mh) -> np.ndarray:
    """Per-document sliding-window reference for MinHasher.signatures."""
    from equi7grid_ray.stages.dedup import _PRIME, hash_bytes_offsets

    raw = text.encode()
    k = mh.shingle
    u64max = np.iinfo(np.uint64).max
    with np.errstate(over="ignore"):
        if len(raw) < k:
            offs = np.array([0, len(raw)], dtype=np.int64)
            hs = hash_bytes_offsets(
                np.frombuffer(raw, np.uint8), offs
            ).view(np.uint64)
            return hs[0] * mh.a + mh.b
        sig = np.full(mh.num_perm, u64max, np.uint64)
        for i in range(len(raw) - k + 1):
            h = np.uint64(0)
            for c in raw[i : i + k]:
                h = h * _PRIME + np.uint64(c)
            sig = np.minimum(sig, h * mh.a + mh.b)
        return sig


def test_minhash_signatures_match_naive_reference():
    """Batch signatures == per-doc sliding-window reference, including
    short docs, boundary-straddling windows and the sentinel (the round-2
    advisor found straddle windows poisoning minima with a shared
    constant after the affine permutation)."""
    from equi7grid_ray.stages.dedup import MinHasher

    mh = MinHasher(num_perm=16, bands=4, shingle=3)
    texts = [
        "the quick brown fox jumps over the lazy dog",
        "ab",            # shorter than shingle
        "",              # empty
        "xyz",           # exactly one window
        "completely different content here with no overlap at all",
        "zq",            # second short doc, distinct content
    ]
    t = pa.table({"text": pa.array(texts, pa.string())})
    got = mh.signatures(t.column("text"))
    for i, txt in enumerate(texts):
        want = _naive_signature(txt, mh)
        np.testing.assert_array_equal(got[i], want, err_msg=f"doc {i}: {txt!r}")
    # large_string path must agree too
    got_large = mh.signatures(t.column("text").cast(pa.large_string()))
    np.testing.assert_array_equal(got_large, got)


def test_minhash_no_shared_poison_value():
    """Unrelated short docs must not share ANY signature slot (the
    poison-constant bug made ~14/64 slots identical across all docs,
    causing false LSH band collisions for every pair)."""
    from equi7grid_ray.stages.dedup import MinHasher

    import hashlib

    mh = MinHasher(num_perm=64, bands=16, shingle=8)
    # genuinely disjoint shingle sets: 32 hex chars seeded per doc
    texts = [hashlib.md5(f"doc{i}".encode()).hexdigest() for i in range(20)]
    sigs = mh.signatures(pa.table({"t": pa.array(texts)}).column("t"))
    r = mh.rows_per_band
    bands = sigs.reshape(len(texts), mh.bands, r)
    for i in range(len(texts)):
        for j in range(i + 1, len(texts)):
            shared = (bands[i] == bands[j]).all(axis=1).sum()
            assert shared == 0, (
                f"docs {i},{j} collide in {shared} bands -> false near-dup"
            )


def test_simhash_large_string_offsets():
    """simhash64 on a large_string column (int64 list offsets) must match
    the plain-string result -- int32 reinterpretation garbles boundaries."""
    from equi7grid_ray.stages.dedup import simhash64

    texts = ["alpha beta gamma", "one two three four five", "solo"]
    t = pa.table({"doc_id": pa.array(range(3), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    t_large = pa.table({"doc_id": t.column("doc_id"),
                        "text": t.column("text").cast(pa.large_string())})
    a = simhash64(t).to_pandas()
    b = simhash64(t_large, text_col="text").to_pandas()
    assert (a.simhash.values == b.simhash.values).all()


def test_table_checksum_is_logical():
    """Same logical content => same digest regardless of how the table
    was assembled (slice / take / concat); different content differs."""
    from equi7grid_ray.state.checkpoint import table_checksum

    t1 = pa.table({"a": pa.array([1, 2, 3], pa.int64()),
                   "s": pa.array(["x", "yy", "zzz"])})
    big = pa.table({"a": pa.array([0, 1, 2, 3, 9], pa.int64()),
                    "s": pa.array(["w", "x", "yy", "zzz", "q"])})
    d = table_checksum(t1)
    assert table_checksum(big.slice(1, 3)) == d
    assert table_checksum(big.take(pa.array([1, 2, 3]))) == d
    assert table_checksum(pa.concat_tables([t1.slice(0, 1), t1.slice(1, 2)])) == d
    t5 = pa.table({"a": pa.array([1, 2, 4], pa.int64()),
                   "s": pa.array(["x", "yy", "zzz"])})
    assert table_checksum(t5) != d


def test_banded_lsh_near_dup_recall(ray_session):
    """OR-amplified banded LSH must recover >=90% of planted near-dup
    pairs (cosine >= 0.95) and emit NO below-threshold pair."""
    import ray.data as rd

    from equi7grid_ray.stages.similarity import embedding_near_dup_pairs

    rng = np.random.default_rng(11)
    dim = 32
    base = rng.standard_normal((60, dim))
    planted = []
    rows = [base]
    for i in range(20):  # duplicate of vector i with tiny noise
        dup = base[i] + 0.02 * rng.standard_normal(dim)
        rows.append(dup[None, :])
        planted.append((i, 60 + i))
    emb = np.vstack(rows)
    t = pa.table({
        "vec_id": pa.array(range(len(emb)), pa.int64()),
        "embedding": pa.array(emb.astype(np.float32).tolist(), pa.list_(pa.float32())),
    })
    out = embedding_near_dup_pairs(
        rd.from_arrow(t), dim, threshold=0.95, bands=8, r=4
    ).to_pandas()
    got = set(map(tuple, out[["id_a", "id_b"]].values.tolist()))
    # verify planted pairs really clear the threshold, then check recall
    n = emb / np.linalg.norm(emb, axis=1, keepdims=True)
    truly = [(a, b) for a, b in planted if n[a] @ n[b] >= 0.95]
    assert len(truly) >= 15
    recall = sum(1 for p in truly if p in got) / len(truly)
    assert recall >= 0.9, f"recall {recall:.2f}, got {len(got)} pairs"
    # no emitted pair may be below threshold
    for a, b in got:
        assert n[a] @ n[b] >= 0.95


def test_verified_near_dup_pairs(ray_session):
    """LSH candidates -> exact Jaccard verify: the planted near-dup pair
    survives, unrelated band collisions are filtered out."""
    import ray.data as rd

    from equi7grid_ray.stages.dedup import verified_near_dup_pairs

    rng = np.random.default_rng(5)
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
    docs = [" ".join(rng.choice(words, 40).tolist()) + f" tail{i}" for i in range(25)]
    docs.append(docs[3] + " x")  # 25 is a near-dup of 3
    t = pa.table({"doc_id": pa.array(range(26), pa.int64()),
                  "text": pa.array(docs)})
    out = verified_near_dup_pairs(rd.from_arrow(t), threshold=0.9).to_pandas()
    got = set(map(tuple, out[["id_a", "id_b"]].values.tolist()))
    assert (3, 25) in got
    from equi7grid_ray.stages.dedup import ngram_jaccard
    for a, b in got:
        assert ngram_jaccard(docs[a], docs[b]) >= 0.9


def test_verified_near_dup_parity_brute_force(ray_session):
    """The distributed partition-cogroup verify must emit EXACTLY the
    brute-force result: every LSH candidate pair re-checked with the
    per-pair Python ngram_jaccard, at two thresholds."""
    import ray.data as rd

    from equi7grid_ray.stages.dedup import (lsh_candidate_pairs,
                                            ngram_jaccard,
                                            verified_near_dup_pairs)

    rng = np.random.default_rng(11)
    words = ["ray", "data", "arrow", "batch", "tile", "grid", "shard"]
    docs = [" ".join(rng.choice(words, 30).tolist()) + f" t{i}"
            for i in range(40)]
    for i in (2, 7, 13):  # planted near-dups at varying edit distance
        docs.append(docs[i] + " z")
        docs.append(docs[i][:-3])
    t = pa.table({"doc_id": pa.array(range(len(docs)), pa.int64()),
                  "text": pa.array(docs)})
    cand = lsh_candidate_pairs(rd.from_arrow(t)).to_pandas()
    cand_pairs = list(map(tuple, cand[["id_a", "id_b"]].values.tolist()))
    assert cand_pairs, "fixture must generate candidates"
    for thr in (0.6, 0.9):
        want = {(a, b) for a, b in cand_pairs
                if ngram_jaccard(docs[a], docs[b]) >= thr}
        out = verified_near_dup_pairs(
            rd.from_arrow(t), threshold=thr).to_pandas()
        got = set(map(tuple, out[["id_a", "id_b"]].values.tolist()))
        assert got == want


def test_ngram_set_short_doc_semantics():
    """_ngram_set_per_row mirrors ngram_jaccard for rows shorter than n
    (whole text = one window) and the empty string."""
    from equi7grid_ray.stages.dedup import _ngram_set_per_row

    col = pa.array(["ab", "ab", "abc", "", "a"])
    h, row, counts = _ngram_set_per_row(col, 3, 5)
    assert counts.tolist() == [1, 1, 1, 1, 1]
    by_row = {int(r): int(v) for v, r in zip(h.tolist(), row.tolist())}
    assert by_row[0] == by_row[1]          # same short text -> same set
    assert by_row[0] != by_row[2]          # "ab" vs "abc"
    assert by_row[3] not in (by_row[0], by_row[4])  # "" distinct


def test_bpe_token_count():
    """GPT-2-style pre-tokenizer counts (contraction split, letter/digit
    runs, punctuation runs, whitespace runs -- incl. unicode \\p{L})."""
    from equi7grid_ray.stages.text import bpe_token_count

    texts = ["Hello world, its 2026!", "a  b", "", "naive café 42x",
             "don't stop-me now", "   ", "Ümlaut ärger 3.14"]
    t = pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["en"] * len(texts)),
    })
    out = bpe_token_count(t)
    assert out.column("n_bpe_tokens").to_pylist() == [6, 3, 0, 4, 6, 1, 5]


def test_raw_video_frames_matches_sql_mirror(ray_session):
    import duckdb
    import pandas as pd
    import ray.data as rd

    from equi7grid_ray.sources.images import make_batch
    from equi7grid_ray.sqlgen import video_frames_sql
    from equi7grid_ray.stages.multimodal import RawVideoFrames

    ds = rd.from_arrow(make_batch(0, 60))
    got = (
        ds.map_batches(RawVideoFrames, fn_constructor_kwargs=dict(every=5),
                       batch_format="pyarrow", concurrency=(1, 2), num_cpus=1)
        .to_pandas().sort_values(["image_id", "frame_index"])
        .reset_index(drop=True)
    )
    exp = duckdb.sql(
        video_frames_sql(60, 5) + " ORDER BY image_id, frame_index"
    ).df()
    cols = ["image_id", "frame_index", "y_sum", "y_min", "y_max"]
    pd.testing.assert_frame_equal(got[cols], exp[cols], check_dtype=False)


def test_raw_video_frames_rejects_container_formats():
    import pyarrow as pa_

    from equi7grid_ray.stages.multimodal import RawVideoFrames

    batch = pa_.table({
        "image_id": ["v0"], "bytes": [b"\x00" * 64],
        "w": pa_.array([8], pa_.int32()), "h": pa_.array([8], pa_.int32()),
        "fmt": ["mp4"],
    })
    import pytest as _pytest
    with _pytest.raises(NotImplementedError):
        RawVideoFrames()(batch)


def test_chunk_dedup_matches_naive_reference(ray_session):
    """chunk_dedup vs a per-doc Python reference: explode into 16-token
    chunks, keep globally-first occurrences by (doc_id, chunk_idx)."""
    import ray

    from equi7grid_ray.stages.dedup import chunk_dedup

    rng = np.random.default_rng(11)
    vocab = [f"w{i}" for i in range(30)]
    texts = [" ".join(rng.choice(vocab, size=int(n)))
             for n in rng.integers(1, 70, size=40)]
    # plant exact chunk-level duplication: doc 40 repeats doc 0's text
    # (same chunks, later key -> all its chunks except a possible short
    # tail-remainder mismatch are drops), doc 41 repeats one 16-token run
    texts.append(texts[0])
    texts.append(" ".join(texts[1].split(" ")[:16]) or texts[1])
    ids = list(range(len(texts)))

    K = 16
    first = {}
    expect = {}
    for d, t in zip(ids, texts):
        toks = t.split(" ")
        nc = (len(toks) + K - 1) // K
        expect[d] = [0, 0, 0]
        for i in range(nc):
            chunk = " ".join(toks[i * K:(i + 1) * K])
            key = d * (1 << 20) + i
            if chunk not in first or first[chunk] > key:
                first[chunk] = key
    for d, t in zip(ids, texts):
        toks = t.split(" ")
        nc = (len(toks) + K - 1) // K
        for i in range(nc):
            chunk = " ".join(toks[i * K:(i + 1) * K])
            expect[d][0] += 1
            if first[chunk] == d * (1 << 20) + i:
                expect[d][1] += 1
                expect[d][2] += len(chunk)

    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": pa.array(texts, pa.string()),
    }))
    out = chunk_dedup(ds, tokens_per_chunk=K).to_pandas()
    got = {int(r.doc_id): [int(r.n_chunks), int(r.n_kept), int(r.kept_len)]
           for r in out.itertuples()}
    assert got == expect
    # the full-repeat doc kept nothing
    assert got[40][1] == 0


def test_repetition_stats_matches_naive_reference(ray_session):
    """repetition_stats vs collections.Counter per document."""
    from collections import Counter

    from equi7grid_ray.stages.text import repetition_stats

    rng = np.random.default_rng(5)
    vocab = [f"t{i}" for i in range(12)]
    texts = [" ".join(rng.choice(vocab, size=int(n)))
             for n in rng.integers(1, 40, size=25)]
    texts.append("a a a a b")           # heavy token repeat
    texts.append("x y x y x y")         # heavy bigram repeat
    texts.append("solo")                # single token, no bigrams
    ids = list(range(len(texts)))

    batch = pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": pa.array(texts, pa.string()),
    })
    out = repetition_stats(batch).to_pandas().set_index("doc_id")
    for d, t in zip(ids, texts):
        toks = t.split(" ")
        tc = Counter(toks)
        bc = Counter(zip(toks, toks[1:]))
        row = out.loc[d]
        assert row["n_toks"] == len(toks)
        assert row["n_distinct_toks"] == len(tc)
        assert row["max_tok_n"] == max(tc.values())
        assert row["n_bigrams"] == max(len(toks) - 1, 0)
        assert row["n_distinct_bigrams"] == len(bc)
        assert row["max_bigram_n"] == (max(bc.values()) if bc else 0)


def test_pack_sequences_matches_naive_greedy(ray_session):
    """pack_sequences vs a per-shard first-fit Python reference."""
    import ray

    from equi7grid_ray.stages.pack import pack_sequences

    rng = np.random.default_rng(31)
    ids = np.sort(rng.choice(3000, size=250, replace=False)).astype(np.int64)
    ntoks = rng.integers(1, 120, size=250).astype(np.int64)
    ntoks[5] = 500  # oversize doc: its own sequence
    texts = [" ".join(["w"] * int(n)) for n in ntoks]
    B, S = 256, 64

    expect = {}
    for shard in np.unique(ids // S):
        mask = ids // S == shard
        fill, seq = None, -1
        for d, n in zip(ids[mask], ntoks[mask]):
            if fill is None or fill + n > B:
                seq += 1
                fill = int(n)
            else:
                fill += int(n)
            expect[int(d)] = (int(shard), seq)

    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": pa.array(texts, pa.string()),
    }))
    out = pack_sequences(ds, budget=B, shard_size=S).to_pandas()
    got = {int(r.doc_id): (int(r.shard), int(r.seq)) for r in out.itertuples()}
    assert got == expect
    # no sequence overflows the budget (except oversize singletons)
    agg = out.groupby(["shard", "seq"])["n_toks"].agg(["sum", "count"])
    bad = agg[(agg["sum"] > B) & (agg["count"] > 1)]
    assert bad.empty


def test_balanced_sample_rates_and_nesting(ray_session):
    """balanced_sample: per-class kept counts approach the rarest
    class's size, the rarest class is fully kept, and the selection is
    deterministic + a subset of the full id-hash sample."""
    import ray

    from equi7grid_ray.stages.sample import balanced_sample

    rng = np.random.default_rng(41)
    langs = np.array(["en"] * 4000 + ["de"] * 1000 + ["sw"] * 150)
    ids = np.arange(len(langs), dtype=np.int64)
    perm = rng.permutation(len(ids))
    tbl = pa.table({"doc_id": pa.array(ids[perm]),
                    "lang": pa.array(langs[perm])})
    ds = ray.data.from_arrow(tbl)
    out = balanced_sample(ds, "lang").to_pandas()
    got = out.groupby("lang")["doc_id"].count()
    assert got["sw"] == 150                      # rarest kept whole
    assert abs(got["en"] - 150) < 60             # ~min_n each
    assert abs(got["de"] - 150) < 60
    out2 = balanced_sample(ray.data.from_arrow(tbl), "lang").to_pandas()
    assert sorted(out2["doc_id"]) == sorted(out["doc_id"])  # deterministic


def test_grouped_centroids_matches_numpy(ray_session):
    import ray

    from equi7grid_ray.stages.similarity import grouped_centroids

    rng = np.random.default_rng(53)
    n, dim, k = 300, 16, 5
    emb = rng.normal(size=(n, dim)).astype(np.float32)
    ids = np.arange(n, dtype=np.int64)
    ds = ray.data.from_arrow(pa.table({
        "vec_id": pa.array(ids),
        "embedding": pa.array(list(emb), pa.list_(pa.float32())),
    }))
    out = grouped_centroids(ds, n_classes=k).to_pandas() \
        .sort_values(["cls", "dim"]).reset_index(drop=True)
    x = emb.astype(np.float64) * 1e6
    q = np.copysign(np.floor(np.abs(x) + 0.5), x).astype(np.int64)
    for c in range(k):
        m = ids % k == c
        sub = out[out["cls"] == c]
        assert (sub["n"] == m.sum()).all()
        assert (sub["s"].to_numpy() == q[m].sum(axis=0)).all()


def test_profile_columns_with_nulls(ray_session):
    import ray

    from equi7grid_ray.stages.profile import profile_columns

    tbl = pa.table({
        "a": pa.array([5, None, 2, 2, 9, None], pa.int64()),
        "s": pa.array(["xx", "y", None, "xx", "zzzz", "y"], pa.string()),
    })
    out = profile_columns(ray.data.from_arrow(tbl),
                          int_cols=["a"], str_cols=["s"]) \
        .to_pandas().set_index("col")
    a, s = out.loc["a"], out.loc["s"]
    assert (a["n"], a["n_null"], a["n_distinct"], a["min_v"], a["max_v"]) \
        == (6, 2, 3, 2, 9)
    assert (s["n"], s["n_null"], s["n_distinct"], s["min_v"], s["max_v"]) \
        == (6, 1, 3, 1, 4)


def test_surprisal_scores_matches_counter_reference(ray_session):
    """surprisal_scores vs a Counter-based Python reference, with a
    vocab cap small enough to exercise the out-of-vocab default."""
    from collections import Counter

    import ray

    from equi7grid_ray.stages.text import surprisal_scores

    rng = np.random.default_rng(61)
    vocab = [f"w{i:02d}" for i in range(40)]
    # skewed multinomial so the top-8 cut is meaningful
    p = np.arange(40, 0, -1, dtype=np.float64) ** 2
    p /= p.sum()
    texts = [" ".join(rng.choice(vocab, size=int(n), p=p))
             for n in rng.integers(1, 50, size=60)]
    ids = list(range(60))
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": pa.array(texts, pa.string()),
    }))
    V = 8
    out = surprisal_scores(ds, max_vocab=V).to_pandas().set_index("doc_id")

    cnt = Counter()
    for t in texts:
        cnt.update(t.split(" "))
    n_total = sum(cnt.values())
    keep = dict(sorted(cnt.items(), key=lambda kv: (-kv[1], kv[0]))[:V])
    for d, t in zip(ids, texts):
        toks = t.split(" ")
        ssum = sum((n_total // keep.get(tk, 1)).bit_length() for tk in toks)
        assert out.loc[d, "n_toks"] == len(toks)
        assert out.loc[d, "ssum"] == ssum


def test_global_rank_matches_duckdb_ntile(ray_session):
    import duckdb
    import ray

    from equi7grid_ray.stages.rank import global_rank

    rng = np.random.default_rng(71)
    n = 2000
    ids = rng.permutation(10_000)[:n].astype(np.int64)
    vals = rng.integers(0, 40, size=n).astype(np.int64)  # heavy ties
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(ids), "v": pa.array(vals)}))
    out = global_rank(ds, value_col="v", id_col="doc_id", n_tiles=7) \
        .to_pandas().sort_values("rnk").reset_index(drop=True)
    con = duckdb.connect()
    con.register("t", __import__("pandas").DataFrame(
        {"doc_id": ids, "v": vals}))
    want = con.sql(
        "SELECT doc_id, v, row_number() OVER (ORDER BY v, doc_id) AS rnk, "
        "ntile(7) OVER (ORDER BY v, doc_id) AS bucket FROM t"
    ).df().sort_values("rnk").reset_index(drop=True)
    for c in ("doc_id", "v", "rnk", "bucket"):
        assert (out[c].to_numpy(np.int64) == want[c].to_numpy(np.int64)).all(), c


def test_pareto_front_matches_naive(ray_session):
    import ray

    from equi7grid_ray.stages.rank import pareto_front_2d

    rng = np.random.default_rng(83)
    q = rng.integers(0, 15, 800).astype(np.float64)
    p = rng.integers(0, 30, 800).astype(np.float64)
    ds = ray.data.from_arrow(pa.table({"q": pa.array(q), "p": pa.array(p)}))
    out = pareto_front_2d(ds, min_col="q", max_col="p").to_pandas()
    ref = []
    for i in range(len(q)):
        dom = (q <= q[i]) & (p >= p[i]) & ((q < q[i]) | (p > p[i]))
        if not dom.any():
            ref.append((q[i], p[i]))
    got = sorted(zip(out["q"], out["p"]))
    assert got == sorted(ref)


def test_surprisal_scores_null_and_empty_text(ray_session):
    """Null text scores as the empty string; no reduceat crash."""
    import ray

    from equi7grid_ray.stages.text import surprisal_scores

    tbl = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array(["a b c", None, "a a"], pa.string()),
    })
    out = surprisal_scores(ray.data.from_arrow(tbl), max_vocab=10) \
        .to_pandas().set_index("doc_id")
    assert out.loc[2, "n_toks"] == 1  # '' is one (empty) token
    assert out.loc[1, "n_toks"] == 3 and out.loc[3, "n_toks"] == 2
    assert (out["ssum"] > 0).all()


def test_chunk_dedup_huge_doc_ids(ray_session):
    """doc_id beyond 2^43 must not corrupt first-occurrence resolution
    (regression: packed composite key)."""
    import ray

    from equi7grid_ray.stages.dedup import chunk_dedup

    big = 1 << 50
    tbl = pa.table({
        "doc_id": pa.array([big, big + 1], pa.int64()),
        "text": pa.array(["x y z", "x y z"], pa.string()),
    })
    out = chunk_dedup(ray.data.from_arrow(tbl), tokens_per_chunk=16) \
        .to_pandas().set_index("doc_id")
    assert out.loc[big, "n_kept"] == 1
    assert out.loc[big + 1, "n_kept"] == 0


def test_weighted_sample_rates_and_determinism(ray_session):
    import pandas as pd
    import ray

    from equi7grid_ray.stages.sample import weighted_sample

    rng = np.random.default_rng(97)
    n = 30_000
    ids = np.arange(n, dtype=np.int64)
    w = rng.integers(1, 11, n).astype(np.int64)  # weights 1..10
    tbl = pa.table({"doc_id": pa.array(ids), "w": pa.array(w)})
    out = weighted_sample(ray.data.from_arrow(tbl), weight_col="w",
                          max_weight=10).to_pandas()
    out2 = weighted_sample(ray.data.from_arrow(tbl), weight_col="w",
                           max_weight=10).to_pandas()
    assert sorted(out["doc_id"]) == sorted(out2["doc_id"])  # deterministic
    # per-weight empirical rate ~ w/10
    kept = out.groupby("w")["doc_id"].count()
    base = pd.Series(w).value_counts()
    for wt in range(1, 11):
        rate = kept.get(wt, 0) / base[wt]
        assert abs(rate - wt / 10) < 0.08, (wt, rate)
    # weight >= max is always kept
    assert kept[10] == base[10]


def test_apply_changes_cdc(ray_session):
    """CDC merge: latest surviving row per key; deletes win equal-seq
    ties; base rows lose to any change; absent-key deletes are no-ops;
    idempotent when replayed."""
    import ray.data as rd

    from equi7grid_ray.stages.cdc import apply_changes

    base = pa.table({
        "k": pa.array([1, 2, 3, 4], pa.int64()),
        "v": pa.array([10, 20, 30, 40], pa.int64()),
    })
    changes = pa.table({
        "k": pa.array([2, 2, 3, 5, 6, 6], pa.int64()),
        "seq": pa.array([0, 1, 5, 2, 3, 3], pa.int64()),
        "op": pa.array(["upsert", "upsert", "delete", "upsert",
                        "upsert", "delete"], pa.string()),
        "v": pa.array([21, 22, 0, 50, 60, 0], pa.int64()),
    })
    out = apply_changes(rd.from_arrow(base), rd.from_arrow(changes),
                        key_col="k", seq_col="seq").to_pandas()
    got = dict(zip(out["k"], out["v"]))
    # k=1,4 untouched; k=2 latest upsert 22; k=3 deleted; k=5 inserted;
    # k=6 equal-seq delete outranks the upsert
    assert got == {1: 10, 2: 22, 4: 40, 5: 50}
    # idempotence: replay the changes onto the result
    out2 = apply_changes(
        rd.from_arrow(pa.Table.from_pandas(out, preserve_index=False)),
        rd.from_arrow(changes), key_col="k", seq_col="seq").to_pandas()
    assert dict(zip(out2["k"], out2["v"])) == got


def test_hash_aggregate_matches_native(ray_session):
    """hash_aggregate == Ray's native groupby().aggregate() for every
    supported fn, on mixed int/string keys, including single-row groups."""
    import ray.data as rd
    from ray.data.aggregate import Count, Max, Min, Sum

    from equi7grid_ray.stages.aggregate import hash_aggregate

    rng = np.random.default_rng(21)
    n = 10_000
    t = pa.table({
        "ki": pa.array(rng.integers(-50, 50, n), pa.int64()),
        "ks": pa.array([f"s{v}" for v in rng.integers(0, 7, n)], pa.string()),
        "v": pa.array(rng.integers(-1000, 1000, n), pa.int64()),
    })
    ds = rd.from_arrow(t)
    want = (ds.groupby(["ki", "ks"])
            .aggregate(Sum("v", alias_name="s"), Min("v", alias_name="lo"),
                       Max("v", alias_name="hi"), Count(alias_name="c"))
            .to_pandas().sort_values(["ki", "ks"]).reset_index(drop=True))
    got = hash_aggregate(
        ds, keys=["ki", "ks"],
        aggs={"s": ("v", "sum"), "lo": ("v", "min"),
              "hi": ("v", "max"), "c": ("v", "count")},
    ).to_pandas().sort_values(["ki", "ks"]).reset_index(drop=True)
    assert got[want.columns.tolist()].equals(want)

    with pytest.raises(ValueError):
        hash_aggregate(ds, keys=["ki"], aggs={"m": ("v", "mean")})


def test_png_pal8_roundtrip_and_stages():
    """Paletted (color type 3) PNG: encode -> decode expands through the
    PLTE bit-exactly; filtered index scanlines unfilter in the index
    domain; the decode stage falls back from the streaming path (which
    returns None for palette PNGs) and still produces exact stats."""
    import struct
    import zlib

    from equi7grid_ray.codec import (decode_png, encode_png_pal8,
                                     png_stream_stats)
    from equi7grid_ray.sources.images import make_pal_batch, pal_palette

    rng = np.random.default_rng(13)
    pal = pal_palette()
    idx = rng.integers(0, len(pal), (21, 17)).astype(np.uint8)
    buf = encode_png_pal8(idx, pal)
    assert np.array_equal(decode_png(buf), pal[idx])
    assert png_stream_stats(buf) is None  # palette -> full-decode path

    # filter-2 (up) index scanlines unfilter in the index domain
    h, w = 5, 7
    idx = rng.integers(0, len(pal), (h, w)).astype(np.uint8)
    raw = np.empty((h, w + 1), dtype=np.uint8)
    raw[0, 0] = 0
    raw[0, 1:] = idx[0]
    for r in range(1, h):
        raw[r, 0] = 2
        raw[r, 1:] = ((idx[r].astype(np.int16) - idx[r - 1]) % 256).astype(np.uint8)
    sig = b"\x89PNG\r\n\x1a\n"

    def chunk(tag, payload):
        return (struct.pack(">I", len(payload)) + tag + payload
                + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF))

    ihdr = struct.pack(">IIBBBBB", w, h, 8, 3, 0, 0, 0)
    buf = (sig + chunk(b"IHDR", ihdr) + chunk(b"PLTE", pal.tobytes())
           + chunk(b"IDAT", zlib.compress(raw.tobytes()))
           + chunk(b"IEND", b""))
    assert np.array_equal(decode_png(buf), pal[idx])

    # DecodeImages over the fixture: exact stats via the fallback path
    from equi7grid_ray.stages.multimodal import DecodeImages

    tbl = make_pal_batch(0, 12)
    out = DecodeImages()(tbl)
    for j in range(12):
        b = tbl.column("bytes")[j].as_py()
        img = decode_png(b)
        assert out.column("px_mean")[j].as_py() == img.mean()


def test_table_diff_statuses(ray_session):
    """Planted reconciliation: a dropped key, an added key, a changed
    value, an untouched row (dropped from the output)."""
    import pandas as pd
    import ray.data as rd

    from equi7grid_ray.stages.cdc import table_diff

    left = rd.from_pandas(pd.DataFrame({
        "k": [1, 2, 3, 4],
        "v": [10, 20, 30, 40],
        "s": ["a", "b", "c", "d"],
    }))
    right = rd.from_pandas(pd.DataFrame({
        "k": [2, 3, 4, 5],
        "v": [20, 31, 40, 50],
        "s": ["b", "c", "D", "e"],
    }))
    out = table_diff(left, right, key_col="k", cols=["v", "s"]).to_pandas()
    got = dict(zip(out.k, out.status))
    assert got == {1: "only_left", 3: "changed", 4: "changed",
                   5: "only_right"}


def test_hist_equalize_reference_semantics():
    """Hand-check against the classic formula on a skewed image, plus
    the degenerate constant image (all pixels map to 0, denom guard)."""
    from equi7grid_ray.stages.multimodal import HistEqualize

    img = np.array([[0, 0, 0, 100], [100, 100, 200, 200]], np.uint8)
    # hist: 0->3, 100->3, 200->2 ; cdf: 3, 6, 8 ; cdf_min=3, n=8
    # eq(0)=0, eq(100)=(6-3)*255//5=153, eq(200)=(8-3)*255//5=255
    tbl = pa.table({
        "image_id": pa.array(["a", "b"]),
        "bytes": pa.array([img.tobytes(),
                           np.full((4, 4), 7, np.uint8).tobytes()],
                          pa.binary()),
        "w": pa.array([4, 4], pa.int32()),
        "h": pa.array([2, 4], pa.int32()),
        "fmt": pa.array(["raw", "raw"]),
    })
    out = HistEqualize()(tbl)
    assert out.column("eq_sum")[0].as_py() == 0 * 3 + 153 * 3 + 255 * 2
    assert out.column("eq_min")[0].as_py() == 0
    assert out.column("eq_max")[0].as_py() == 255
    # constant image: cdf == cdf_min everywhere -> eq = 0 (guarded denom)
    assert out.column("eq_sum")[1].as_py() == 0
    assert out.column("eq_max")[1].as_py() == 0


def test_collocations_pmi_hand_corpus(ray_session):
    """PMI collocations on a hand-computable corpus: 'new york' occurs
    as a glued pair, 'the the' is frequent but independent."""
    import ray.data as rd

    from equi7grid_ray.stages.text import collocations_pmi

    docs = pa.table({
        "text": pa.array(
            ["new york " * 6 + "the cat",
             "the dog the cat the dog",
             "new york is the city of new york"]),
    })
    out = collocations_pmi(rd.from_arrow(docs), k=5, min_count=2,
                           scale=1_000_000).to_pandas()
    # exact-integer reference
    toks = []
    pairs = []
    for t in docs.column("text").to_pylist():
        ws = [w for w in t.split() if w]
        toks.extend(ws)
        pairs.extend(zip(ws[:-1], ws[1:]))
    from collections import Counter
    cu, cb = Counter(toks), Counter(pairs)
    n, np_ = len(toks), len(pairs)
    scored = sorted(
        ((n * n * 1_000_000 * c) // (np_ * cu[a] * cu[b]), a, b, c)
        for (a, b), c in cb.items() if c >= 2)
    scored = sorted(scored, key=lambda x: (-x[0], x[1], x[2]))[:5]
    got = list(zip(out["score"], out["tok_a"], out["tok_b"], out["n_ab"]))
    assert [(s, a, b, c) for s, a, b, c in scored] == \
        [(int(s), a, b, int(c)) for s, a, b, c in got]
    # PMI sanity: every surviving pair is positively associated
    # (score > scale means p(ab) > p(a)p(b))
    assert (out["score"] > 1_000_000).all()
