"""Join operators: broadcast (dimension-table) and cogroup shuffle."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data as rd

from equi7grid_ray.stages.join import broadcast_join, shuffle_hash_join


@pytest.fixture()
def sides():
    rng = np.random.default_rng(2)
    left = pa.table({
        "k": pa.array(rng.integers(0, 50, 500), pa.int64()),
        "v": pa.array(rng.integers(0, 1000, 500), pa.int64()),
    })
    right = pa.table({
        "k": pa.array(np.arange(0, 40, dtype=np.int64)),
        "w": pa.array(np.arange(0, 40, dtype=np.int64) * 10),
    })
    return left, right


def _oracle(left, right, how):
    return (
        left.to_pandas()
        .merge(right.to_pandas(), on="k", how=how)
        .sort_values(["k", "v", "w"])
        .reset_index(drop=True)
    )


def test_broadcast_join_inner_left(ray_session, sides):
    left, right = sides
    for how in ("inner", "left"):
        got = (
            broadcast_join(rd.from_arrow(left), rd.from_arrow(right),
                           on="k", how=how)
            .to_pandas()
            .sort_values(["k", "v", "w"])
            .reset_index(drop=True)
        )
        exp = _oracle(left, right, how)
        pd.testing.assert_frame_equal(
            got[["k", "v", "w"]], exp[["k", "v", "w"]], check_dtype=False
        )


def test_broadcast_join_duplicate_small_keys_first_wins(ray_session):
    left = rd.from_arrow(pa.table({"k": [1, 2], "v": [10, 20]}))
    right = rd.from_arrow(pa.table({"k": [1, 1], "w": [111, 999]}))
    got = broadcast_join(left, right, on="k", how="inner").to_pandas()
    assert got["w"].tolist() == [111]


def test_shuffle_hash_join_matches_pandas(ray_session, sides):
    left, right = sides
    got = (
        shuffle_hash_join(rd.from_arrow(left), rd.from_arrow(right),
                          on="k", how="inner")
        .to_pandas()
        .sort_values(["k", "v", "w"])
        .reset_index(drop=True)
    )
    exp = _oracle(left, right, "inner")
    pd.testing.assert_frame_equal(
        got[["k", "v", "w"]].astype("int64"), exp[["k", "v", "w"]].astype("int64")
    )


def test_shuffle_join_high_cardinality(ray_session):
    """Partition-level cogroup: 5k distinct keys join correctly (one
    vectorized merge per hash partition, not per key) and no internal
    __part/__side columns leak into the output."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from equi7grid_ray.stages.join import shuffle_hash_join

    n = 5000
    left = pa.table({"k": pa.array(np.arange(n), pa.int64()),
                     "lv": pa.array(np.arange(n) * 2, pa.int64())})
    right = pa.table({"k": pa.array(np.arange(0, n, 2), pa.int64()),
                      "rv": pa.array(np.arange(0, n, 2) * 3, pa.int64())})
    out = shuffle_hash_join(
        rd.from_arrow(left), rd.from_arrow(right), on="k", how="inner"
    ).to_pandas()
    exp = left.to_pandas().merge(right.to_pandas(), on="k", how="inner")
    assert sorted(out.columns) == ["k", "lv", "rv"]
    pd.testing.assert_frame_equal(
        out.sort_values("k").reset_index(drop=True),
        exp.sort_values("k").reset_index(drop=True),
        check_like=True,
        check_dtype=False,  # nullable Int64 out (same Arrow type int64)
    )


def test_asof_join_matches_merge_asof(ray_session, assert_shared_partition):
    from equi7grid_ray.stages.join import asof_join

    rng = np.random.default_rng(7)
    n_l, n_r = 400, 300
    left = pa.table({
        "u": pa.array(rng.integers(0, 20, n_l), pa.int64()),
        "t": pa.array(rng.integers(0, 10_000, n_l), pa.int64()),
        "lv": pa.array(np.arange(n_l, dtype=np.int64)),
    })
    right = pa.table({
        "u": pa.array(rng.integers(0, 20, n_r), pa.int64()),
        "t": pa.array(rng.integers(0, 10_000, n_r), pa.int64()),
        "rv": pa.array(np.arange(n_r, dtype=np.int64) * 7),
    })
    # dedupe right per (u, t): merge_asof tie-handling would otherwise
    # depend on input order (documented in the operator docstring)
    rdf = (right.to_pandas().sort_values(["u", "t", "rv"])
           .drop_duplicates(["u", "t"], keep="last"))
    assert_shared_partition(16, u=left.column("u"))  # asof_join's 16
    for direction in ("backward", "forward"):
        got = (
            asof_join(rd.from_arrow(left),
                      rd.from_arrow(pa.Table.from_pandas(rdf)),
                      on="t", by="u", direction=direction)
            .to_pandas().sort_values(["u", "t", "lv"]).reset_index(drop=True)
        )
        exp = pd.merge_asof(
            left.to_pandas().sort_values("t", kind="stable"),
            rdf.sort_values("t", kind="stable"),
            on="t", by="u", direction=direction,
        ).sort_values(["u", "t", "lv"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(
            got[["u", "t", "lv", "rv"]], exp[["u", "t", "lv", "rv"]],
            check_dtype=False,
        )


def test_range_join_matches_pandas(ray_session):
    from equi7grid_ray.stages.join import range_join

    rng = np.random.default_rng(11)
    n_l, n_r = 500, 120
    left = pa.table({
        "u": pa.array(rng.integers(0, 10, n_l), pa.int64()),
        "x": pa.array(rng.integers(0, 5_000, n_l), pa.int64()),
        "lv": pa.array(np.arange(n_l, dtype=np.int64)),
    })
    lo = rng.integers(0, 4_500, n_r)
    span = rng.integers(0, 900, n_r)  # spans cross bucket boundaries (w=300)
    right = pa.table({
        "u": pa.array(rng.integers(0, 10, n_r), pa.int64()),
        "lo": pa.array(lo, pa.int64()),
        "hi": pa.array(lo + span, pa.int64()),
        "rv": pa.array(np.arange(n_r, dtype=np.int64)),
    })
    got = (
        range_join(rd.from_arrow(left), rd.from_arrow(right),
                   left_on="x", right_lo="lo", right_hi="hi", by="u",
                   bucket_width=300.0)
        .to_pandas().sort_values(["lv", "rv"]).reset_index(drop=True)
    )
    ldf, rdf = left.to_pandas(), right.to_pandas()
    exp = ldf.merge(rdf, on="u", how="inner")
    exp = exp[(exp["x"] >= exp["lo"]) & (exp["x"] <= exp["hi"])]
    exp = exp.sort_values(["lv", "rv"]).reset_index(drop=True)
    assert len(got) == len(exp)
    pd.testing.assert_frame_equal(
        got[["u", "x", "lv", "rv"]], exp[["u", "x", "lv", "rv"]],
        check_dtype=False,
    )


def test_quality_buckets_and_fingerprint_shapes(ray_session):
    from equi7grid_ray.stages.text import fingerprint64, quality_buckets

    batch = pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "text": pa.array(["the cat and the dog 42", "", "a b c"]),
        "lang": pa.array(["en", "en", "de"]),
    })
    q = quality_buckets(batch)
    assert q.column("mtl_bucket").to_pylist()[0] == 17 // 6
    assert q.column("digit_decile").to_pylist() == [0, 0, 0]
    # " and " occurs once interior; " the " once (leading 'the' unpadded)
    assert q.column("stop_pm_bucket").to_pylist()[0] == 2 * 1000 // 6
    f = fingerprint64(batch)
    vals = f.column("fingerprint").to_pylist()
    assert len(set(vals)) == 3  # distinct content -> distinct fingerprints


def test_stratified_sample_deterministic_and_nested(ray_session):
    from equi7grid_ray.stages.sample import hash_sample, stratified_sample

    tbl = pa.table({
        "doc_id": pa.array(np.arange(4000, dtype=np.int64)),
        "lang": pa.array((["en", "de", "fr", "xx"] * 1000)),
    })
    small = set(hash_sample(rd.from_arrow(tbl), 0.1).to_pandas()["doc_id"])
    big = set(hash_sample(rd.from_arrow(tbl), 0.5).to_pandas()["doc_id"])
    assert small <= big                      # nested ladders
    assert 0.05 < len(small) / 4000 < 0.15   # ~rate
    again = set(hash_sample(rd.from_arrow(tbl), 0.1).to_pandas()["doc_id"])
    assert small == again                    # reproducible
    strat = stratified_sample(
        rd.from_arrow(tbl), "lang", {"en": 1.0, "de": 0.0},
        default_rate=0.25,
    ).to_pandas()
    by = strat.groupby("lang").size()
    assert by.get("en", 0) == 1000 and by.get("de", 0) == 0
    assert 150 < by.get("fr", 0) < 350 and 150 < by.get("xx", 0) < 350


def test_pcm_audio_features_hand_example(ray_session):
    from equi7grid_ray.stages.multimodal import PCMAudioFeatures

    payload = bytes([0, 0, 255, 255, 1, 0])  # s16le: 0, -1, 1
    batch = pa.table({
        "image_id": pa.array(["a"]),
        "bytes": pa.array([payload], pa.binary()),
        "fmt": pa.array(["pcm"]),
    })
    out = PCMAudioFeatures()(batch)
    assert out.column("n_samples").to_pylist() == [3]
    assert out.column("sum_sq").to_pylist() == [2]
    assert out.column("zcr").to_pylist() == [2]
    assert out.column("peak").to_pylist() == [1]


def test_grouped_topk_matches_pandas(ray_session):
    from equi7grid_ray.stages.topk import grouped_topk

    rng = np.random.default_rng(3)
    n = 2000
    tbl = pa.table({
        "g": pa.array(rng.integers(0, 40, n), pa.int64()),
        "v": pa.array(rng.integers(0, 50, n), pa.int64()),  # many ties
        "id": pa.array(np.arange(n, dtype=np.int64)),
    })
    # many blocks so the batch combiner actually prunes per batch
    ds = rd.from_arrow(tbl).repartition(16)
    got = (
        grouped_topk(ds, key="g", value="v", k=5, tie_cols=["id"],
                     n_partitions=8)
        .to_pandas().sort_values(["g", "v", "id"],
                                 ascending=[True, False, True])
        .reset_index(drop=True)
    )
    exp = (
        tbl.to_pandas()
        .sort_values(["v", "id"], ascending=[False, True], kind="stable")
        .groupby("g", sort=False).head(5)
        .sort_values(["g", "v", "id"], ascending=[True, False, True])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got[["g", "v", "id"]],
                                  exp[["g", "v", "id"]], check_dtype=False)


def test_kmeans_fit_converges(ray_session):
    from equi7grid_ray.stages.ann_ivf import kmeans_fit

    rng = np.random.default_rng(5)
    centers = rng.standard_normal((4, 16)) * 3
    pts = np.concatenate(
        [c + rng.standard_normal((200, 16)) * 0.05 for c in centers]
    )
    pts = pts[rng.permutation(len(pts))]  # corpora aren't cluster-sorted
    tbl = pa.table({
        "vec_id": pa.array(np.arange(len(pts), dtype=np.int64)),
        "embedding": pa.array(list(pts), pa.list_(pa.float64())),
    })
    ds = rd.from_arrow(tbl).repartition(8)
    cent, hist = kmeans_fit(ds, n_lists=4, n_iter=6, init_sample=256)
    assert cent.shape == (4, 16)
    # mean best-cosine is (weakly) increasing and ends tight
    assert all(b >= a - 1e-9 for a, b in zip(hist, hist[1:]))
    assert hist[-1] > 0.99
    # every true center is recovered by some centroid (cosine > 0.99)
    cn = centers / np.linalg.norm(centers, axis=1, keepdims=True)
    sims = cn @ cent.T
    assert (sims.max(axis=1) > 0.99).all()


def test_native_join_matches_pandas(ray_session, sides):
    from equi7grid_ray.stages.join import native_join

    left, right = sides
    for how in ("inner", "left"):
        got = (
            native_join(rd.from_arrow(left), rd.from_arrow(right),
                        on="k", how=how, n_partitions=8)
            .to_pandas()
            .sort_values(["k", "v", "w"])
            .reset_index(drop=True)
        )
        exp = _oracle(left, right, how)
        pd.testing.assert_frame_equal(
            got[["k", "v", "w"]], exp[["k", "v", "w"]], check_dtype=False
        )


def test_native_join_agrees_with_shuffle_hash_join(ray_session, sides):
    from equi7grid_ray.stages.join import native_join

    left, right = sides
    a = (native_join(rd.from_arrow(left), rd.from_arrow(right),
                     on="k", how="inner", n_partitions=8)
         .to_pandas().sort_values(["k", "v", "w"]).reset_index(drop=True))
    b = (shuffle_hash_join(rd.from_arrow(left), rd.from_arrow(right),
                           on="k", how="inner", n_partitions=8)
         .to_pandas().sort_values(["k", "v", "w"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(a[["k", "v", "w"]], b[["k", "v", "w"]],
                                  check_dtype=False)


def test_native_join_suffixes_collisions(ray_session):
    from equi7grid_ray.stages.join import native_join

    left = rd.from_arrow(pa.table({"k": [1, 2], "v": [10, 20]}))
    right = rd.from_arrow(pa.table({"k": [1, 2], "v": [7, 8]}))
    got = native_join(left, right, on="k", how="inner",
                      n_partitions=2).to_pandas()
    assert {"k", "v", "v_r"} <= set(got.columns)


def test_grouped_quantiles_matches_duckdb(ray_session):
    import duckdb

    from equi7grid_ray.stages.quantiles import grouped_quantiles

    rng = np.random.default_rng(11)
    tbl = pa.table({
        "g": pa.array(rng.integers(0, 3, 4000), pa.int64()),
        "v": pa.array(rng.integers(0, 200, 4000), pa.int64()),
    })
    qs = (0.25, 0.5, 0.75, 0.875)
    got = (
        grouped_quantiles(rd.from_arrow(tbl).repartition(6),
                          col="v", qs=qs, keys=["g"])
        .to_pandas().sort_values(["g", "q"]).reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("t", tbl)
    exp = con.sql(
        " UNION ALL ".join(
            f"SELECT g, CAST({q} AS DOUBLE) AS q, quantile_disc(v, {q}) AS v "
            "FROM t GROUP BY g" for q in qs
        ) + " ORDER BY g, q"
    ).df().reset_index(drop=True)
    pd.testing.assert_frame_equal(got[["g", "q", "v"]], exp[["g", "q", "v"]],
                                  check_dtype=False)


def test_grouped_quantiles_ungrouped(ray_session):
    from equi7grid_ray.stages.quantiles import grouped_quantiles

    vals = np.arange(1, 101, dtype=np.int64)
    tbl = pa.table({"v": pa.array(np.random.default_rng(3).permutation(vals))})
    got = grouped_quantiles(rd.from_arrow(tbl).repartition(4),
                            col="v", qs=(0.5, 1.0)).to_pandas()
    got = got.sort_values("q").reset_index(drop=True)
    assert got["v"].tolist() == [50, 100]


def test_hll_distinct_matches_sql_mirror(ray_session):
    import duckdb

    from equi7grid_ray.stages.sketch import hll_distinct, hll_sql

    rng = np.random.default_rng(9)
    vals = rng.integers(0, 50_000, 120_000).astype(np.int64)
    tbl = pa.table({"k": pa.array(vals)})
    got = hll_distinct(rd.from_arrow(tbl).repartition(8),
                       col="k", p=8).to_pandas()
    con = duckdb.connect()
    con.register("t", tbl)
    exp = con.sql(hll_sql("t", "k", p=8)).df()
    assert got["est"].iloc[0] == exp["est"].iloc[0]
    assert got["nonzero"].iloc[0] == exp["nonzero"].iloc[0]
    exact = len(np.unique(vals))
    assert abs(got["est"].iloc[0] - exact) / exact < 0.15


def test_hll_linear_counting_regime(ray_session):
    from equi7grid_ray.stages.sketch import hll_distinct

    vals = np.repeat(np.arange(100, dtype=np.int64), 50)  # 100 distinct
    got = hll_distinct(rd.from_arrow(pa.table({"k": pa.array(vals)})),
                       col="k", p=8).to_pandas()
    # linear counting is tight at low load factors
    assert abs(got["est"].iloc[0] - 100) <= 10


def test_cms_heavy_hitters_matches_sql_mirror(ray_session):
    import duckdb

    from equi7grid_ray.stages.sketch import cms_heavy_hitters, cms_sql

    rng = np.random.default_rng(4)
    keys = np.concatenate([
        np.repeat(np.arange(10, dtype=np.int64), 3000),
        rng.integers(100, 3000, 60_000),
    ]).astype(np.int64)
    keys = keys[rng.permutation(len(keys))]
    tbl = pa.table({"k": pa.array(keys)})
    cand = rd.from_arrow(pa.table({"k": pa.array(np.unique(keys))}))
    got = cms_heavy_hitters(rd.from_arrow(tbl).repartition(8), cand,
                            col="k", d=4, w=1024, topk=20).to_pandas()
    con = duckdb.connect()
    con.register("t", tbl)
    exp = con.sql(cms_sql("t", "k", d=4, w=1024, topk=20)).df()
    assert got["k"].tolist() == exp["k"].tolist()
    assert got["est"].tolist() == exp["est"].tolist()
    # CMS never underestimates; the 10 planted heavy keys lead
    assert set(got["k"].head(10)) == set(range(10))
    assert (got["est"].head(10) >= 3000).all()


def test_hll_empty_and_all_null_inputs(ray_session):
    from equi7grid_ray.stages.sketch import hll_distinct

    for tbl in (pa.table({"k": pa.array([], pa.int64())}),
                pa.table({"k": pa.array([None, None], pa.int64())})):
        got = hll_distinct(rd.from_arrow(tbl), col="k", p=8).to_pandas()
        assert len(got) == 1
        assert got["est"].iloc[0] == 0
        assert got["nonzero"].iloc[0] == 0


def test_cms_empty_input(ray_session):
    from equi7grid_ray.stages.sketch import cms_heavy_hitters

    empty = pa.table({"k": pa.array([], pa.int64())})
    got = cms_heavy_hitters(rd.from_arrow(empty), rd.from_arrow(empty),
                            col="k").to_pandas()
    assert len(got) == 0


def test_hll_negative_keys_match_sql_mirror(ray_session):
    import duckdb

    from equi7grid_ray.stages.sketch import hll_distinct, hll_sql

    rng = np.random.default_rng(13)
    vals = rng.integers(-40_000, 40_000, 90_000).astype(np.int64)
    tbl = pa.table({"k": pa.array(vals)})
    got = hll_distinct(rd.from_arrow(tbl).repartition(4),
                       col="k", p=8).to_pandas()
    con = duckdb.connect()
    con.register("t", tbl)
    exp = con.sql(hll_sql("t", "k", p=8)).df()
    assert got["est"].iloc[0] == exp["est"].iloc[0]
    assert got["nonzero"].iloc[0] == exp["nonzero"].iloc[0]


def test_shuffle_join_left_schema_stable_across_partitions(ray_session):
    # review finding: partitions with merge-misses used to emit float64
    # for right-side int columns while fully-matched partitions emitted
    # int64 -- every block must now carry the same Arrow schema
    left = pa.table({"k": pa.array(np.arange(200), pa.int64()),
                     "lv": pa.array(np.arange(200), pa.int64())})
    right = pa.table({"k": pa.array([0, 3], pa.int64()),
                      "rv": pa.array([7, 9], pa.int64())})
    out = shuffle_hash_join(rd.from_arrow(left), rd.from_arrow(right),
                            on="k", how="left", n_partitions=16)
    schemas = {
        str(b.schema)
        for b in out.iter_batches(batch_format="pyarrow")
        if (b.num_rows if hasattr(b, "num_rows") else len(b))
    }
    assert len(schemas) == 1, schemas
    df = out.to_pandas()
    assert str(df["rv"].dtype) == "Int64"
    assert df["rv"].notna().sum() == 2 and len(df) == 200


def test_broadcast_join_semi_anti(ray_session, sides):
    left, right = sides
    lds = rd.from_arrow(left)
    semi = broadcast_join(lds, rd.from_arrow(right), on="k",
                          how="semi").to_pandas()
    anti = broadcast_join(lds, rd.from_arrow(right), on="k",
                          how="anti").to_pandas()
    ldf = left.to_pandas()
    keys = set(right.column("k").to_pylist())
    exp_semi = ldf[ldf["k"].isin(keys)]
    exp_anti = ldf[~ldf["k"].isin(keys)]
    assert sorted(semi.columns) == ["k", "v"]  # no right columns added
    assert len(semi) == len(exp_semi) and len(anti) == len(exp_anti)
    assert len(semi) + len(anti) == len(ldf)
    assert set(semi["k"]) <= keys and not (set(anti["k"]) & keys)


def test_check_table_constraints(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray

    from equi7grid_ray.stages.validate import check_table

    t = pa.table({
        "id": pa.array([1, 2, 2, 4, 5], pa.int64()),      # 1 dup
        "amt": pa.array([3.0, -1.0, 0.0, 2.0, None]),     # 2 nonpos + null
        "fk": pa.array([10, 11, 99, 10, None], pa.int64()),
    })
    ref = pa.table({"k": pa.array([10, 11, 12], pa.int64())})
    out = check_table(
        ray.data.from_arrow(t),
        not_null=["amt", "fk"],
        positive=["amt"],
        unique=["id"],
        foreign_key={"fk": (ray.data.from_arrow(ref), "k")},
    ).to_pandas().set_index("check")["n_violations"]
    assert out["not_null:amt"] == 1
    assert out["not_null:fk"] == 1
    assert out["positive:amt"] == 3   # -1, 0, and the null
    assert out["unique:id"] == 1
    assert out["foreign_key:fk"] == 2  # 99 and the null
