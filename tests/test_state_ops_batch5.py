"""Batch-5 operators: cell pyramid roll-up invariant, late-event
watermark semantics, PQ code correctness on crafted vectors."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def test_cell_pyramid_rollup_invariant(ray_session):
    import __ray_entry__ as e

    out = e.q_cell_pyramid("/root/testdata/sf0.001").to_pandas()
    lvl = (out["cell"].to_numpy() >> 58).astype(int)
    body = out["cell"].to_numpy() & ((1 << 58) - 1)
    counts = {}
    for L in (8, 9):
        sel = lvl == L
        iy = body[sel] >> 29
        ix = body[sel] & ((1 << 29) - 1)
        counts[L] = dict(zip(zip(iy, ix), out["n"].to_numpy()[sel]))
    # every level-8 cell's count equals the sum of its <=4 children
    child_sum: dict = {}
    for (iy, ix), n in counts[9].items():
        key = (iy // 2, ix // 2)
        child_sum[key] = child_sum.get(key, 0) + n
    assert child_sum == counts[8]
    # totals identical at every level
    for L in (5, 6, 7, 8, 9):
        assert out["n"].to_numpy()[lvl == L].sum() == len(
            pd.read_parquet("/root/testdata/sf0.001/lineitem.parquet",
                            columns=["l_orderkey"]))


def test_late_events_crafted(ray_session):
    import ray.data as rd

    import __ray_entry__ as e

    # user 1: event 3 arrives 2 h behind the watermark (late);
    # event 2 arrives 30 min behind (within delay, not late)
    h = 3_600_000_000
    t0 = 1_600_000_000_000_000
    tbl = pa.table({
        "event_id": pa.array([1, 2, 3, 4], pa.int64()),
        "user_id": pa.array([1, 1, 1, 1], pa.int64()),
        "ts": pa.array([t0 + 10 * h, t0 + 9 * h + h // 2, t0 + 8 * h,
                        t0 + 11 * h], pa.timestamp("us")),
    })
    import tempfile

    import pyarrow.parquet as pq

    with tempfile.TemporaryDirectory() as d:
        pq.write_table(tbl, f"{d}/events.parquet")
        got = e.q_late_events(d).to_pandas()
    assert len(got) == 1
    r = got.iloc[0]
    assert r.n_events == 4
    assert r.n_late == 1          # only event 3 (2 h > 1 h delay)
    assert r.max_late_us == 2 * h


def test_embedding_pq_crafted(ray_session):
    import ray.data as rd

    from equi7grid_ray.stages.similarity import embedding_pq_codes

    idx = np.arange(8 * 16 * 8, dtype=np.int64)
    cent = ((idx * 2654435761) % (1 << 32) % 256).reshape(8, 16, 8)
    # vector 0: subspace s matches centroid c = s exactly -> recon 0,
    # code packs c_s = s.  Rows 1/2 pin the per-dim range to [0, 255].
    v0 = np.concatenate([cent[s, s] for s in range(8)]).astype(np.float64)
    rows = [v0, np.zeros(64), np.full(64, 255.0)]
    ds = rd.from_arrow(pa.table({
        "vec_id": pa.array([0, 1, 2], pa.int64()),
        "embedding": pa.array([r.tolist() for r in rows],
                              pa.list_(pa.float32())),
    }))
    got = embedding_pq_codes(ds).to_pandas().set_index("vec_id")
    expect_code = sum(s << (4 * s) for s in range(8))
    assert got.loc[0, "recon_err"] == 0
    assert got.loc[0, "pq_code"] == expect_code
    # brute-force check for the all-zeros vector
    d1 = ((cent - 0) ** 2).sum(axis=2)  # (8, 16)
    best = d1.argmin(axis=1)
    assert got.loc[1, "pq_code"] == int(
        (best << (4 * np.arange(8))).sum())
    assert got.loc[1, "recon_err"] == int(d1.min(axis=1).sum())


def test_csv_jsonl_roundtrip_exact(ray_session):
    """The exported CSV/JSONL drops read back row-identical to the
    parquet source (integer/string columns only by contract)."""
    import pyarrow.parquet as pq

    from equi7grid_ray.sources.text_formats import (export_csv,
                                                    export_jsonl,
                                                    read_csv_table,
                                                    read_jsonl_table)

    sf = "/root/testdata/sf0.001"
    cols = ["o_orderkey", "o_custkey", "o_orderstatus", "o_orderpriority"]
    path = export_csv(sf, "orders", cols)
    schema = pa.schema([
        ("o_orderkey", pa.int64()), ("o_custkey", pa.int64()),
        ("o_orderstatus", pa.string()), ("o_orderpriority", pa.string()),
    ])
    got = read_csv_table(path, schema).to_pandas() \
        .sort_values(cols).reset_index(drop=True)
    ref = pq.read_table(f"{sf}/orders.parquet", columns=cols).to_pandas() \
        .sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(got[cols], ref)

    jcols = ["event_id", "user_id", "event_type"]
    jpath = export_jsonl(sf, "events", jcols)
    gj = read_jsonl_table(jpath).to_pandas()
    gj = gj[jcols].astype({"event_id": np.int64, "user_id": np.int64}) \
        .sort_values(jcols).reset_index(drop=True)
    rj = pq.read_table(f"{sf}/events.parquet", columns=jcols).to_pandas() \
        .sort_values(jcols).reset_index(drop=True)
    pd.testing.assert_frame_equal(gj, rj)


def test_text_formats_reject_inexact_columns():
    import pytest

    from equi7grid_ray.sources.text_formats import export_csv

    with pytest.raises(ValueError):
        export_csv("/root/testdata/sf0.001", "orders",
                   ["o_orderkey", "o_totalprice"])


def test_pq_sdc_topk_matches_bruteforce(ray_session):
    import ray.data as rd

    from equi7grid_ray.stages.similarity import pq_sdc_topk

    rng = np.random.default_rng(11)
    codes = rng.integers(0, 1 << 32, 200).astype(np.int64)
    ds = rd.from_arrow(pa.table({
        "vec_id": pa.array(np.arange(200), pa.int64()),
        "pq_code": pa.array(codes, pa.int64()),
    }))
    qcode = int(codes[0])
    got = pq_sdc_topk(ds, qcode, k=10).to_pandas()

    idx = np.arange(8 * 16 * 8, dtype=np.int64)
    cent = ((idx * 2654435761) % (1 << 32) % 256).reshape(8, 16, 8)

    def dist(a: int, b: int) -> int:
        d = 0
        for s in range(8):
            ca = cent[s, (a >> (4 * s)) & 15]
            cb = cent[s, (b >> (4 * s)) & 15]
            d += int(((ca - cb) ** 2).sum())
        return d

    ref = sorted((dist(qcode, int(c)), v)
                 for v, c in enumerate(codes))[:10]
    assert list(zip(got["pq_dist"], got["vec_id"])) == ref
    assert got["pq_dist"].iloc[0] == 0  # query vs itself


def test_pair_affinity_matches_scalar(ray_session):
    """Pair supports + exact lift vs an itertools reference, with
    in-basket duplicate items counted once."""
    from itertools import combinations

    import ray.data as rd

    from equi7grid_ray.stages.affinity import pair_affinity

    rng = np.random.default_rng(3)
    n = 2000
    t = pa.table({
        "bk": pa.array(rng.integers(0, 300, n), pa.int64()),
        "it": pa.array(rng.integers(0, 40, n), pa.int64()),
    })
    got_df = pair_affinity(rd.from_arrow(t), basket_col="bk",
                           item_col="it", min_support=2).to_pandas()
    got = {(a, b): (s, q) for a, b, s, q in zip(
        got_df.item_a, got_df.item_b, got_df.support, got_df.lift_q)}
    df = t.to_pandas().drop_duplicates()
    baskets = df.groupby("bk")["it"].apply(lambda s: sorted(set(s)))
    sup = {}
    for items in baskets:
        for a, b in combinations(items, 2):
            sup[(a, b)] = sup.get((a, b), 0) + 1
    cnt = df.groupby("it")["bk"].nunique().to_dict()
    nb = df["bk"].nunique()
    exp = {p: (s, (s * nb * 10**6) // (cnt[p[0]] * cnt[p[1]]))
           for p, s in sup.items() if s >= 2}
    assert got == exp and len(exp) > 0


def test_cube_counts_matches_pandas(ray_session):
    import ray.data as rd
    from itertools import combinations

    from equi7grid_ray.stages.pivot import cube_counts

    rng = np.random.default_rng(4)
    n = 3000
    t = pa.table({
        "a": pa.array(rng.choice(["x", "y", "z"], n)),
        "b": pa.array(rng.choice(["p", "q"], n)),
        "c": pa.array(rng.choice(["1", "2", "3", "4"], n)),
    })
    got = cube_counts(rd.from_arrow(t), keys=["a", "b", "c"]).to_pandas()
    got_set = set(map(tuple, got[["a", "b", "c", "n"]].to_numpy()))
    df = t.to_pandas()
    exp = set()
    keys = ["a", "b", "c"]
    for r in range(4):
        for kept in combinations(keys, r):
            g = df.groupby(list(kept)).size() if kept else None
            if kept:
                for idx, cnt in g.items():
                    idx = (idx,) if r == 1 else idx
                    row = {k: "<all>" for k in keys}
                    row.update(dict(zip(kept, idx)))
                    exp.add((row["a"], row["b"], row["c"], cnt))
            else:
                exp.add(("<all>", "<all>", "<all>", len(df)))
    assert got_set == exp


def test_tile_erosion_depth_crafted(ray_session):
    import ray.data as rd

    from equi7grid_ray.stages.tilestats import tile_erosion_depth

    # 5x5 zone block: center depth 3 is impossible (n3 < 49) -> the
    # exact depths are Chebyshev distance to outside, capped
    tiles = [f"EU_E{6*x:03d}N{6*y:03d}T6" for x in range(5)
             for y in range(5)]
    t = pa.table({"tile": pa.array(tiles, pa.string())})
    out = tile_erosion_depth(rd.from_arrow(t)).to_pandas() \
        .set_index("tile")
    center = out.loc["EU_E012N012T6"]
    assert (center.n1, center.n2) == (9, 25)
    assert center.depth == 3          # ring 3 incomplete (n3 < 49)
    corner = out.loc["EU_E000N000T6"]
    assert corner.n1 == 4 and corner.depth == 1
    edge = out.loc["EU_E012N000T6"]
    assert edge.n1 == 6 and edge.depth == 1


def test_chi2_drift_matches_fraction_reference(ray_session):
    from fractions import Fraction

    import ray.data as rd

    from equi7grid_ray.stages.drift import chi2_drift

    rng = np.random.default_rng(6)
    n = 4000
    v = np.concatenate([rng.integers(0, 100, n // 2),
                        rng.integers(20, 140, n // 2)]).astype(np.int64)
    grp = np.array(["even"] * (n // 2) + ["odd"] * (n // 2))
    t = pa.table({"val": pa.array(v), "grp": pa.array(grp)})
    got = chi2_drift(rd.from_arrow(t), col="val", grp_col="grp") \
        .to_pandas()
    # reference: exact quantile_disc octiles + Fraction chi2
    sv = np.sort(v)
    import math as _m
    edges = np.sort(np.array(
        [sv[max(1, _m.ceil(q * n)) - 1]
         for q in (0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875)]))
    bucket = np.searchsorted(edges, v, side="left")
    df = pd.DataFrame({"bucket": bucket, "grp": grp})
    cnt = df.groupby(["bucket", "grp"]).size().reset_index(name="obs")
    ng = cnt.groupby("grp")["obs"].sum().to_dict()
    ci = cnt.groupby("bucket")["obs"].sum().to_dict()
    N = int(cnt["obs"].sum())
    exp = {}
    for _, r in cnt.iterrows():
        obs, g_, b_ = int(r.obs), r.grp, int(r.bucket)
        q = Fraction(10**6 * (obs * N - ng[g_] * ci[b_]) ** 2,
                     N * ng[g_] * ci[b_])
        exp[(b_, g_)] = (obs, q.numerator // q.denominator)
    got_map = {(int(r.bucket), r.grp): (int(r.obs), int(r.chi2_q))
               for _, r in got.iterrows()}
    assert got_map == exp


def test_isqrt_i64_exact_full_range():
    import math

    from equi7grid_ray.stages.sample import isqrt_i64

    n = np.concatenate([
        np.arange(0, 5000, dtype=np.int64),
        np.array([2**62 - 1, 2**62, 10**18, 3037000499**2,
                  3037000499**2 - 1, 2**63 - 1], dtype=np.int64),
    ])
    got = isqrt_i64(n)
    for v, s in zip(n.tolist(), got.tolist()):
        assert s == math.isqrt(v)


def test_mixture_allocation_hand_case(ray_session):
    import ray

    from equi7grid_ray.stages.sample import mixture_allocation

    # counts 100 / 25 / 4 / 1 -> weights 10 / 5 / 2 / 1, W = 18
    rows = (["a"] * 100) + (["b"] * 25) + (["c"] * 4) + (["d"] * 1)
    ds = ray.data.from_arrow(pa.table({"source": pa.array(rows)}))
    out = mixture_allocation(ds, key="source", target=18 * 3) \
        .to_pandas().sort_values("source").reset_index(drop=True)
    # W divides target exactly: quota = 3 * weight, no remainder seats
    assert out["weight"].tolist() == [10, 5, 2, 1]
    assert out["quota"].tolist() == [30, 15, 6, 3]
    assert out["quota"].sum() == 54

    out2 = mixture_allocation(ds, key="source", target=100) \
        .to_pandas().sort_values("source").reset_index(drop=True)
    # base = 100*w//18 = [55, 27, 11, 5] (sum 98), remainders
    # [10, 14, 4, 10]: two seats -> b (14) then a (10, ties -> 'a' < 'd')
    assert out2["quota"].tolist() == [56, 28, 11, 5]
    assert out2["quota"].sum() == 100


def test_doc_novelty_hand_corpus(ray_session):
    import ray

    from equi7grid_ray.stages.dedup import doc_novelty

    # k=4 shingles; doc 1 is wholly contained in doc 0 -> novelty 0;
    # doc 2 shares a prefix window with doc 0 but adds new ones.
    docs = pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "text": pa.array(["abcdef", "bcde", "abcXY"], pa.string()),
    })
    out = doc_novelty(ray.data.from_arrow(docs), k=4).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    # doc 0: {abcd, bcde, cdef} all first -> 3/3
    # doc 1: {bcde} seen in doc 0 -> 0/1
    # doc 2: {abcX, bcXY} both new -> 2/2  (abc... window 'abcX' != 'abcd')
    assert out["n_shingles"].tolist() == [3, 1, 2]
    assert out["n_novel"].tolist() == [3, 0, 2]


def test_doc_novelty_repeated_shingle_counts_once(ray_session):
    import ray

    from equi7grid_ray.stages.dedup import doc_novelty

    docs = pa.table({
        "doc_id": pa.array([7], pa.int64()),
        "text": pa.array(["abababab"], pa.string()),  # k=4: abab/baba x3/2
    })
    out = doc_novelty(ray.data.from_arrow(docs), k=4).to_pandas()
    assert out["n_shingles"].tolist() == [2]   # distinct windows only
    assert out["n_novel"].tolist() == [2]


def test_vocab_growth_hand_corpus(ray_session):
    import ray

    from equi7grid_ray.stages.text import vocab_growth

    # bucket size 2: docs 0-1 introduce {a,b,c}; docs 2-3 add {d};
    # docs 4-5 add {e,f}; repeats never count again
    docs = pa.table({
        "doc_id": pa.array([0, 1, 2, 3, 4, 5], pa.int64()),
        "text": pa.array(["a b", "b c", "c d a", "d b", "e f a", "f"],
                         pa.string()),
    })
    out = vocab_growth(ray.data.from_arrow(docs), bucket_docs=2) \
        .to_pandas().sort_values("bucket").reset_index(drop=True)
    assert out["bucket"].tolist() == [0, 1, 2]
    assert out["new_tokens"].tolist() == [3, 1, 2]
    assert out["cum_vocab"].tolist() == [3, 4, 6]


def test_split_leakage_labels_match_assign_splits(ray_session):
    """The pair-labeling shortcut (pure hash function of the id) must
    agree with assign_splits' labels row for row."""
    import ray

    from equi7grid_ray.stages.dedup import _mix64
    from equi7grid_ray.stages.sample import (SAMPLE_SALT, assign_splits,
                                             rate_to_threshold)

    ids = np.arange(1000, dtype=np.int64)
    ds = ray.data.from_arrow(pa.table({"doc_id": pa.array(ids)}))
    ref = assign_splits(ds, {"train": 0.8, "val": 0.1, "test": 0.1}) \
        .to_pandas().set_index("doc_id")["split"]
    bounds = np.array([rate_to_threshold(0.8), rate_to_threshold(0.9)],
                      np.uint64)
    names = np.array(["train", "val", "test"])
    h = _mix64(ids.view(np.uint64) ^ SAMPLE_SALT)
    lab = names[np.searchsorted(bounds,
                                h.view(np.uint64) % np.uint64(1 << 32),
                                side="right")]
    assert (ref.loc[ids].to_numpy() == lab).all()


def test_customer_rfm_codes_tie_semantics(ray_session):
    """Ties share a code (threshold rule), unlike ntile; total is
    preserved and codes stay in 1..4."""
    import __ray_entry__ as e
    import duckdb

    out = e.q_customer_rfm("/root/testdata/sf0.001").to_pandas()
    con = duckdb.connect()
    n_cust = con.execute(
        "SELECT count(DISTINCT o_custkey) FROM "
        "'/root/testdata/sf0.001/orders.parquet'").fetchone()[0]
    assert out["n_customers"].sum() == n_cust
    for c in ("r_code", "f_code", "m_code"):
        assert out[c].between(1, 4).all()


def test_key_skew_report_hand_case(ray_session):
    import ray

    from equi7grid_ray.stages.profile import key_skew_report

    # keys: 1 x5, 2 x5 (tie -> heavy_key 1), 3 x2, 4..13 x1 each
    keys = [1] * 5 + [2] * 5 + [3] * 2 + list(range(4, 14))
    ds = ray.data.from_arrow(pa.table({
        "k": pa.array(keys, pa.int64())}))
    out = key_skew_report(ds, key="k").to_pandas().iloc[0]
    assert out["n_keys"] == 13 and out["n_rows"] == 22
    assert out["max_n"] == 5 and out["heavy_key"] == 1
    assert out["top1_pm"] == 5 * 1000 // 22
    # sizes sorted: [1x10, 2, 5, 5]; disc ranks ceil(.5*13)=7 -> 1,
    # ceil(.9*13)=12 -> 5
    assert out["p50_n"] == 1 and out["p90_n"] == 5


def test_bm25_topk_hand_corpus(ray_session):
    import ray

    from equi7grid_ray.stages.text import bm25_topk

    # 4 docs; terms (a, b): doc0 tf=(2,0), doc1 tf=(1,1), doc2 tf=(0,3),
    # doc3 matches nothing (must never rank).  N=4, df_a=2, df_b=2 ->
    # w = 4 // 2 = 2 for both terms.
    docs = pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "text": pa.array(["a x a y", "a b x", "b b b", "x y z"]),
    })
    out = bm25_topk(ray.data.from_arrow(docs), ("a", "b"),
                    k1=2, scale=4096, k=10).to_pandas()

    def sat(tf):
        return tf * 3 * 4096 // (tf + 2)

    exp = {0: 2 * sat(2), 1: 2 * sat(1) + 2 * sat(1), 2: 2 * sat(3)}
    got = dict(zip(out.doc_id, out.score))
    assert got == exp
    # ranked by (score desc, id asc): doc2 (9830) > doc0 (6144) =? ...
    assert list(out.doc_id) == sorted(exp, key=lambda d: (-exp[d], d))
    assert 3 not in set(out.doc_id)


def test_bm25_topk_k_truncates_and_ties_break_by_id(ray_session):
    import ray

    from equi7grid_ray.stages.text import bm25_topk

    # 5 identical docs -> identical scores; k=3 keeps smallest ids
    docs = pa.table({
        "doc_id": pa.array([10, 7, 3, 99, 42], pa.int64()),
        "text": pa.array(["a"] * 5),
    })
    out = bm25_topk(ray.data.from_arrow(docs), ("a",), k=3).to_pandas()
    assert list(out.doc_id) == [3, 7, 10]
    assert out.score.nunique() == 1


def test_benford_digit_extraction_near_pow10(ray_session):
    """Digit extraction is integer-exact at powers of ten where float
    log10 misbins (e.g. 1000.00 -> digit 1, 999.99 -> 9)."""
    import ray.data as rd

    from equi7grid_ray.stages.validate import benford_audit

    vals = [10.00, 9.99, 1000.00, 999.99, 0.01, 100000.0, 99999.99,
            1.00, 0.10]
    t = pa.table({"x": pa.array(vals, pa.float64())})
    out = benford_audit(rd.from_arrow(t), column="x").to_pandas()
    got = dict(zip(out["d"], out["n"]))
    # cents: 1000, 999, 100000, 99999, 1, 10000000, 9999999, 100, 10
    assert got[1] == 6 and got[9] == 3
    assert out["n"].sum() == len(vals)
    # share per mille truncates: 6/9 -> 666, 3/9 -> 333
    assert dict(zip(out["d"], out["share_pm"]))[1] == 666
    assert dict(zip(out["d"], out["dev_pm"]))[1] == 666 - 301


def test_fk_orphan_audit_crafted(ray_session, assert_shared_partition):
    import ray.data as rd

    from equi7grid_ray.stages.validate import fk_orphan_audit

    child = pa.table({"fk": pa.array([1, 1, 2, 3, 99, 99, 99], pa.int64())})
    parent = pa.table({"pk": pa.array([1, 2, 3, 4, 5], pa.int64())})
    assert_shared_partition(32, k=[1, 2, 3, 4, 5, 99])
    got = fk_orphan_audit(
        rd.from_arrow(child), rd.from_arrow(parent),
        child_key="fk", parent_key="pk", relation="t",
    ).to_pandas()
    assert len(got) == 1
    r = got.iloc[0]
    assert r["relation"] == "t"
    assert r["child_rows"] == 7
    assert r["distinct_child_keys"] == 4
    assert r["orphan_rows"] == 3          # the three fk=99 rows
    assert r["distinct_orphan_keys"] == 1
    assert r["childless_parents"] == 2    # pk 4 and 5


def test_feature_hashing_hand_docs(ray_session):
    import ray.data as rd

    from equi7grid_ray.stages.dedup import (_column_bytes,
                                            hash_bytes_offsets)
    from equi7grid_ray.stages.text import feature_hashing

    docs = ["alpha beta alpha", "  beta  ", ""]
    tbl = pa.table({"doc_id": pa.array([0, 1, 2], pa.int64()),
                    "text": pa.array(docs, pa.string())})
    got = feature_hashing(rd.from_arrow(tbl)).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)

    # independent per-token reference
    def hv(tok):
        flat, offs = _column_bytes(pa.array([tok], pa.string()))
        return int(hash_bytes_offsets(flat, offs).view(np.uint64)[0])

    for j, d in enumerate(docs):
        v = np.zeros(64, np.int64)
        for t in d.split():
            h = hv(t)
            v[h % 64] += 1 if ((h >> 6) & 1) == 0 else -1
        r = got.iloc[j]
        assert r["nnz"] == int((v != 0).sum())
        assert r["l1"] == int(np.abs(v).sum())
        assert r["checksum"] == int((v * np.arange(1, 65)).sum())
    # doc 0: "alpha" twice lands in one bucket with constant sign
    assert got.loc[0, "l1"] == 3


def test_sax_motifs_crafted_series(ray_session):
    import ray.data as rd

    from equi7grid_ray.stages.temporal import sax_motifs

    # 16 hours -> four 4-hour boxes with sums 1,2,3,4
    # quantile_disc quartiles of [1,2,3,4]: q1=1, q2=2, q3=3
    # symbols s = [0,1,2,3]; motifs: (0,1,2)->6, (1,2,3)->27
    hrs = list(range(16))
    n = [1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 4]
    rows = [(h, c) for h, c in zip(hrs, n) if c]
    tbl = pa.table({
        "event_type": pa.array(["a"] * len(rows)),
        "hr": pa.array([h for h, _ in rows], pa.int64()),
        "n": pa.array([c for _, c in rows], pa.int64()),
    })
    got = sax_motifs(rd.from_arrow(tbl)).to_pandas() \
        .sort_values("motif").reset_index(drop=True)
    assert list(map(tuple, got[["motif", "n"]].to_numpy())) == [(6, 1),
                                                                (27, 1)]


def test_weighted_median_hand_case(ray_session, assert_shared_partition):
    import ray.data as rd

    from equi7grid_ray.stages.quantiles import weighted_median

    # key a: values 1(w3), 5(w1), 9(w2) -> total 6, half 3 -> v=1
    #   (2*3 >= 6 at v=1: lower weighted median)
    # key b: values 2(w1), 4(w1) -> total 2 -> v=2
    # key y shares a's partition of weighted_median's 32: 7(w1) -> v=7
    # key f: 3(w2), 8(w2) -> total 4, 2*2 >= 4 at v=3
    tbl = pa.table({
        "k": pa.array(["a", "a", "a", "b", "b", "y", "f", "f"]),
        "v": pa.array([1, 5, 9, 2, 4, 7, 3, 8], pa.int64()),
        "w": pa.array([3, 1, 2, 1, 1, 1, 2, 2], pa.int64()),
    })
    assert_shared_partition(32, k=tbl.column("k"))
    got = weighted_median(rd.from_arrow(tbl), key="k", val="v",
                          weight="w") \
        .to_pandas().sort_values("k").reset_index(drop=True)
    assert list(map(tuple, got[["k", "wmedian", "total_w"]].to_numpy())) \
        == [("a", 1, 6), ("b", 2, 2), ("f", 3, 4), ("y", 7, 1)]


def test_snap_to_segments_matches_brute_force(ray_session):
    import ray.data as rd

    from equi7grid_ray.stages.neighbors import snap_to_segments

    rng = np.random.default_rng(7)
    segs = np.array([[0, 0, 10, 0],      # horizontal
                     [5, -20, 5, 20],    # vertical
                     [-10, -10, 10, 10]],  # diagonal
                    np.int64)
    px = rng.integers(-30, 31, 500).astype(np.int64)
    py = rng.integers(-30, 31, 500).astype(np.int64)
    tbl = pa.table({"x": pa.array(px), "y": pa.array(py)})
    got = snap_to_segments(rd.from_arrow(tbl), segs, q=1024) \
        .to_pandas().sort_values("seg_id").reset_index(drop=True)

    q = 1024
    best = np.full(len(px), np.iinfo(np.int64).max)
    bid = np.zeros(len(px), np.int64)
    for s, (ax, ay, bx, by) in enumerate(segs):
        ux, uy = bx - ax, by - ay
        L = ux * ux + uy * uy
        for j in range(len(px)):
            dx, dy = px[j] - ax, py[j] - ay
            dot = dx * ux + dy * uy
            if dot <= 0:
                d2q = (dx * dx + dy * dy) * q
            elif dot >= L:
                ex, ey = px[j] - bx, py[j] - by
                d2q = (ex * ex + ey * ey) * q
            else:
                d2q = ((dx * dx + dy * dy) * L - dot * dot) * q // L
            if d2q < best[j]:
                best[j] = d2q
                bid[j] = s
    exp = []
    for s in sorted(set(bid)):
        m = bid == s
        exp.append((s, int(m.sum()),
                    int((best[m] <= 100 * 1024).sum()),
                    int(best[m].min())))
    assert list(map(tuple,
                    got[["seg_id", "n_points", "n_close",
                         "min_d2q"]].to_numpy())) == exp


def test_hll_set_algebra_disjoint_and_identical(ray_session):
    import ray.data as rd

    from equi7grid_ray.stages.sketch import hll_set_algebra

    # "a" and "b" share ALL ids -> union registers == each side ->
    # est_union == est_a == est_b, intersection == est_a.
    # "c" is disjoint from both.
    ids = np.arange(1000, dtype=np.int64)
    tbl = pa.table({
        "k": pa.array(["a"] * 1000 + ["b"] * 1000 + ["c"] * 1000),
        "v": pa.array(np.concatenate([ids, ids, ids + 50_000]),
                      pa.int64()),
    })
    got = hll_set_algebra(rd.from_arrow(tbl), key_col="k", col="v",
                          p=8).to_pandas().set_index(["key_a", "key_b"])
    ab = got.loc[("a", "b")]
    assert ab["est_a"] == ab["est_b"] == ab["est_union"]
    assert ab["est_intersection"] == ab["est_a"]
    # estimates within 15% of truth at p=8
    assert abs(ab["est_a"] - 1000) < 150
    ac = got.loc[("a", "c")]
    assert abs(ac["est_union"] - 2000) < 300
    assert abs(ac["est_intersection"]) < 300


def test_doc_readability_hand_doc(ray_session):
    import ray.data as rd

    from equi7grid_ray.stages.text import doc_readability

    tbl = pa.table({
        "doc_id": pa.array([0, 1], pa.int64()),
        "text": pa.array(["aaaaaaa bb. cc!", "   "], pa.string()),
    })
    got = doc_readability(rd.from_arrow(tbl)).to_pandas()
    # doc 1 has zero words -> dropped
    assert got["doc_id"].tolist() == [0]
    r = got.iloc[0]
    # A=3 words, L=1 (>=7 bytes), S=2 ('.' '!')
    assert (r["n_words"], r["n_sentences"], r["n_long"]) == (3, 2, 1)
    assert r["lix_q"] == (3 * 1000) // 2 + (1 * 100000) // 3
