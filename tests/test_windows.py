"""Window operators vs a pandas oracle."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data as rd

from equi7grid_ray.stages.windows import hopping_window, sessionize, tumbling_window


@pytest.fixture()
def events():
    rng = np.random.default_rng(9)
    n = 5000
    ts = pd.Timestamp("2024-01-01") + pd.to_timedelta(
        np.sort(rng.integers(0, 86_400 * 3, n)), unit="s"
    )
    return pa.table({
        "ts": pa.array(ts.astype("datetime64[us]")),
        "event_type": pa.array(rng.choice(["a", "b", "c"], n)),
        "user_id": pa.array(rng.integers(0, 40, n), pa.int64()),
    })


def test_tumbling_matches_pandas(ray_session, events):
    got = (
        tumbling_window(rd.from_arrow(events), ts_col="ts", width_s=3600,
                        keys=["event_type"])
        .to_pandas()
        .sort_values(["event_type", "window_start"])
        .reset_index(drop=True)
    )
    df = events.to_pandas()
    df["window_start"] = df["ts"].dt.floor("h")
    exp = (
        df.groupby(["event_type", "window_start"], as_index=False)
        .size().rename(columns={"size": "n"})
        .sort_values(["event_type", "window_start"]).reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got[["event_type", "window_start", "n"]],
        exp[["event_type", "window_start", "n"]],
        check_dtype=False,
    )


def test_hopping_covers_k_windows(ray_session, events):
    got = hopping_window(
        rd.from_arrow(events).select_columns(["ts", "event_type"]),
        ts_col="ts", width_s=7200, hop_s=3600, keys=["event_type"],
    ).to_pandas()
    # every event counted exactly twice
    assert got["n"].sum() == 2 * events.num_rows


def test_sessionize_matches_pandas(ray_session, events):
    got = (
        sessionize(rd.from_arrow(events).select_columns(["user_id", "ts"]),
                   gap_s=1800)
        .to_pandas().sort_values("user_id").reset_index(drop=True)
    )
    df = events.to_pandas()[["user_id", "ts"]]

    def oracle(g):
        g = g.sort_values("ts")
        return pd.Series({
            "n_events": len(g),
            "n_sessions": int((g["ts"].diff() > pd.Timedelta(minutes=30)).sum()) + 1,
        })

    exp = df.groupby("user_id").apply(oracle, include_groups=False).reset_index()
    pd.testing.assert_frame_equal(
        got[["user_id", "n_events", "n_sessions"]].astype("int64"),
        exp[["user_id", "n_events", "n_sessions"]].astype("int64"),
    )


def test_top_terms_matches_duckdb(ray_session):
    import duckdb
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from equi7grid_ray.stages.text import top_terms

    docs = pa.table({"text": [
        "a b b c", "  c c   a\tx", "b\nc", "", "x y z z z",
    ]})
    got = top_terms(rd.from_arrow(docs).repartition(3), k=4).to_pandas()
    duckdb.register("docs_t", docs)
    exp = duckdb.sql(
        "SELECT u.tok AS token, count(*) AS n FROM docs_t, "
        "UNNEST(regexp_split_to_array(text, '\\s')) u(tok) "
        "WHERE u.tok <> '' GROUP BY token ORDER BY n DESC, token LIMIT 4"
    ).df()
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_pivot_counts_matches_duckdb(ray_session):
    import duckdb
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from equi7grid_ray.stages.pivot import pivot_counts

    rng = np.random.default_rng(6)
    cats = ("a", "b", "c")
    tbl = pa.table({
        "g": pa.array(rng.integers(0, 7, 2000), pa.int64()),
        "cat": pa.array(rng.choice(list(cats) + ["zz"], 2000)),  # zz dropped
        "v": pa.array(rng.integers(0, 100, 2000), pa.int64()),
    })
    got = (pivot_counts(rd.from_arrow(tbl).repartition(5), index="g",
                        pivot_col="cat", categories=cats, value_col="v")
           .to_pandas().sort_values("g").reset_index(drop=True))
    duckdb.register("pt", tbl)
    exp = duckdb.sql(
        "SELECT g, "
        + ", ".join(
            f"CAST(sum(CASE WHEN cat='{c}' THEN 1 ELSE 0 END) AS BIGINT) AS n_{c}"
            for c in cats)
        + ", "
        + ", ".join(
            f"CAST(sum(CASE WHEN cat='{c}' THEN v ELSE 0 END) AS BIGINT) AS sum_{c}"
            for c in cats)
        + " FROM pt GROUP BY g ORDER BY g"
    ).df().reset_index(drop=True)
    cols = list(exp.columns)
    pd.testing.assert_frame_equal(got[cols], exp[cols], check_dtype=False)


def test_cumulative_over_matches_pandas(ray_session):
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from equi7grid_ray.stages.windows import cumulative_over

    rng = np.random.default_rng(8)
    n = 3000
    tbl = pa.table({
        "u": pa.array(rng.integers(0, 25, n), pa.int64()),
        "t": pa.array(rng.permutation(n).astype(np.int64)),  # unique order
        "x": pa.array(rng.integers(0, 50, n), pa.int64()),
    })
    got = (cumulative_over(rd.from_arrow(tbl).repartition(6), key="u",
                           order=["t"], sums={"cx": "x"}, count_as="cn")
           .to_pandas().sort_values(["u", "t"]).reset_index(drop=True))
    df = tbl.to_pandas().sort_values(["u", "t"], kind="stable")
    df["cn"] = df.groupby("u").cumcount() + 1
    df["cx"] = df.groupby("u")["x"].cumsum()
    exp = df.reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[["u", "t", "x", "cn", "cx"]], exp[["u", "t", "x", "cn", "cx"]],
        check_dtype=False)


def test_tfidf_topk_matches_duckdb(ray_session):
    import duckdb
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from equi7grid_ray.stages.text import tfidf_topk

    docs = pa.table({
        "doc_id": pa.array(range(6), pa.int64()),
        "text": pa.array([
            "apple banana apple", "banana cherry", "apple cherry cherry",
            "date date date banana", "apple", "fig banana fig fig",
        ]),
    })
    got = (tfidf_topk(rd.from_arrow(docs).repartition(3), n_docs=6, k=2,
                      max_vocab=100)
           .to_pandas().sort_values(["doc_id", "score", "token"],
                                    ascending=[True, False, True])
           .reset_index(drop=True))
    duckdb.register("docs_tf", docs)
    exp = duckdb.sql(
        "WITH toks AS (SELECT doc_id, u.tok FROM docs_tf, "
        "UNNEST(regexp_split_to_array(text, '\\s')) u(tok) WHERE u.tok <> ''), "
        "tf AS (SELECT doc_id, tok, count(*) AS tf FROM toks GROUP BY 1, 2), "
        "dfq AS (SELECT tok, count(DISTINCT doc_id) AS df FROM toks GROUP BY 1), "
        "vocab AS (SELECT tok, df FROM dfq ORDER BY df DESC, tok LIMIT 100), "
        "scored AS (SELECT t.doc_id, t.tok, t.tf * ((6 * 1000) // v.df) AS score "
        "FROM tf t JOIN vocab v USING (tok)), "
        "ranked AS (SELECT doc_id, tok, score, row_number() OVER ("
        "PARTITION BY doc_id ORDER BY score DESC, tok) AS r FROM scored) "
        "SELECT doc_id, tok AS token, CAST(score AS BIGINT) AS score "
        "FROM ranked WHERE r <= 2 ORDER BY doc_id, score DESC, token"
    ).df().reset_index(drop=True)
    pd.testing.assert_frame_equal(got[["doc_id", "token", "score"]],
                                  exp[["doc_id", "token", "score"]],
                                  check_dtype=False)


def test_melt_roundtrips_pivot(ray_session):
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from equi7grid_ray.stages.pivot import melt

    wide = pa.table({
        "g": pa.array([1, 2], pa.int64()),
        "a": pa.array([10, 20], pa.int64()),
        "b": pa.array([30, 40], pa.int64()),
    })
    got = (melt(rd.from_arrow(wide), id_cols=["g"], value_cols=["a", "b"])
           .to_pandas().sort_values(["g", "variable"]).reset_index(drop=True))
    exp = (wide.to_pandas().melt(id_vars=["g"], value_vars=["a", "b"])
           .sort_values(["g", "variable"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_flag_contaminated_planted(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from equi7grid_ray.stages.dedup import flag_contaminated

    bench = pa.array([
        "the quick brown fox jumps over the lazy dog tonight",
        "pack my box with five dozen liquor jugs",
    ])
    corpus = pa.table({
        "doc_id": pa.array([10, 11, 12], pa.int64()),
        "text": pa.array([
            # contains a verbatim 24+-char benchmark span
            "PREFIX quick brown fox jumps over the END",
            "completely unrelated content with no overlap at all here",
            "short",  # < k: no windows, never contaminated
        ]),
    })
    got = (flag_contaminated(rd.from_arrow(corpus), bench, k=24)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert got["contaminated"].tolist() == [1, 0, 0]


def test_assign_splits_partitions_and_nests(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from equi7grid_ray.stages.sample import assign_splits, hash_sample

    tbl = pa.table({"doc_id": pa.array(np.arange(10_000, dtype=np.int64))})
    lab = assign_splits(rd.from_arrow(tbl).repartition(4),
                        {"train": 0.8, "val": 0.1, "test": 0.1}).to_pandas()
    counts = lab["split"].value_counts()
    assert set(counts.index) == {"train", "val", "test"}
    assert abs(counts["train"] - 8000) < 300
    assert abs(counts["val"] - 1000) < 150
    # deterministic: second run identical
    lab2 = assign_splits(rd.from_arrow(tbl),
                         {"train": 0.8, "val": 0.1, "test": 0.1}).to_pandas()
    assert lab.sort_values("doc_id")["split"].tolist() == \
        lab2.sort_values("doc_id")["split"].tolist()
    # nested with hash_sample: a 10% sample's train rows are a subset
    sub = hash_sample(rd.from_arrow(tbl), 0.1).to_pandas()["doc_id"]
    sub_train = set(lab.set_index("doc_id").loc[sub, "split"]
                    [lambda s: s == "train"].index)
    full_train = set(lab[lab["split"] == "train"]["doc_id"])
    assert sub_train <= full_train


def test_rollup_counts_matches_pandas(ray_session):
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray

    from equi7grid_ray.stages.pivot import rollup_counts

    rng = np.random.default_rng(13)
    langs = rng.choice(["en", "de", "fr"], 4000)
    srcs = rng.choice(["web", "book", "wiki"], 4000)
    ds = ray.data.from_arrow(pa.table({
        "lang": pa.array(langs), "source": pa.array(srcs)}))
    out = rollup_counts(ds, keys=["lang", "source"]).to_pandas() \
        .sort_values(["lang", "source"]).reset_index(drop=True)
    df = pd.DataFrame({"lang": langs, "source": srcs})
    fin = df.groupby(["lang", "source"]).size().reset_index(name="n")
    l1 = df.groupby("lang").size().reset_index(name="n")
    l1["source"] = "<all>"
    tot = pd.DataFrame({"lang": ["<all>"], "source": ["<all>"],
                        "n": [len(df)]})
    want = pd.concat([fin, l1, tot])[["lang", "source", "n"]] \
        .sort_values(["lang", "source"]).reset_index(drop=True)
    assert out[["lang", "source"]].equals(want[["lang", "source"]])
    assert (out["n"].to_numpy(np.int64) == want["n"].to_numpy(np.int64)).all()


def test_assemble_sequences_matches_pandas(ray_session,
                                           assert_shared_partition):
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray

    from equi7grid_ray.stages.pack import assemble_sequences

    rng = np.random.default_rng(91)
    n = 3000
    df = pd.DataFrame({
        "k": rng.integers(0, 40, n).astype(np.int64),
        "o1": rng.integers(0, 100, n).astype(np.int64),
        "o2": np.arange(n, dtype=np.int64),  # unique tiebreak
        "tok": rng.choice(["a", "bb", "ccc", "d"], n),
    })
    assert_shared_partition(32, k=df["k"])
    out = assemble_sequences(
        ray.data.from_pandas(df), key_col="k", order_cols=["o1", "o2"],
        token_col="tok", sep="|",
    ).to_pandas().sort_values("k").reset_index(drop=True)
    want = (df.sort_values(["k", "o1", "o2"])
            .groupby("k")["tok"]
            .agg(lambda s: "|".join(s))
            .reset_index(name="seq"))
    assert (out["k"].to_numpy(np.int64) == want["k"].to_numpy(np.int64)).all()
    assert out["seq"].tolist() == want["seq"].tolist()
    assert (out["n_items"].to_numpy(np.int64)
            == df.groupby("k").size().sort_index().to_numpy(np.int64)).all()


def test_funnel_stages_matches_naive(ray_session, assert_shared_partition):
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray

    from equi7grid_ray.stages.windows import funnel_stages

    rng = np.random.default_rng(3)
    n = 4000
    users = rng.integers(0, 120, n).astype(np.int64)
    types = rng.choice(["view", "click", "purchase", "error"], n)
    ts = pd.to_datetime(
        rng.integers(0, 10**7, n), unit="s").astype("datetime64[us]")
    ds = ray.data.from_arrow(pa.table({
        "user_id": pa.array(users),
        "event_type": pa.array(types),
        "ts": pa.array(ts),
    }))
    assert_shared_partition(32, user_id=users)
    out = funnel_stages(ds, stages=["view", "click", "purchase"]).to_pandas()
    got = dict(zip(out["user_id"].astype(np.int64),
                   out["stage"].astype(np.int64)))

    df = pd.DataFrame({"u": users, "t": types, "ts": ts})
    want = {}
    for u, g in df[df["t"].isin(["view", "click", "purchase"])].groupby("u"):
        done = pd.Timestamp.min
        stage = 0
        for s in ["view", "click", "purchase"]:
            cand = g[(g["t"] == s) & (g["ts"] > done)]
            if cand.empty:
                break
            done = cand["ts"].min()
            stage += 1
        want[int(u)] = stage
    assert got == want


def test_merge_intervals_matches_naive(ray_session, assert_shared_partition):
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray

    from equi7grid_ray.stages.windows import merge_intervals

    rng = np.random.default_rng(55)
    n = 5000
    keys = rng.integers(0, 50, n).astype(np.int64)
    s = rng.integers(0, 100_000, n).astype(np.int64)
    e = s + rng.integers(1, 3000, n)
    ds = ray.data.from_arrow(pa.table({
        "k": pa.array(keys), "s": pa.array(s), "e": pa.array(e)}))
    assert_shared_partition(32, k=keys)
    out = merge_intervals(ds, key_col="k", start_col="s",
                          end_col="e").to_pandas() \
        .sort_values("k").reset_index(drop=True)

    want = []
    for k in sorted(set(keys)):
        iv = sorted(zip(s[keys == k], e[keys == k]))
        islands = []
        for a, b in iv:
            if islands and a <= islands[-1][1]:
                islands[-1][1] = max(islands[-1][1], b)
            else:
                islands.append([a, b])
        want.append((k, len(iv), len(islands),
                     sum(b - a for a, b in islands)))
    wdf = pd.DataFrame(want, columns=["k", "n_intervals", "n_islands",
                                      "covered"])
    for c in ("n_intervals", "n_islands", "covered"):
        assert (out[c].to_numpy(np.int64)
                == wdf[c].to_numpy(np.int64)).all(), c


def test_scd2_intervals_semantics(ray_session):
    """Handcrafted stream: runs collapse, versions count runs, valid_to
    chains to the next run's start (NULL for the open run)."""
    import pandas as pd
    import ray.data as rd

    from equi7grid_ray.stages.windows import scd2_intervals

    t = pd.to_datetime(
        ["2026-01-01 00:00", "2026-01-01 01:00", "2026-01-01 02:00",
         "2026-01-01 03:00", "2026-01-01 00:30"])
    df = pd.DataFrame({
        "user_id": [1, 1, 1, 1, 2],
        "ts": t,
        "event_id": [10, 11, 12, 13, 14],
        "event_type": ["A", "A", "B", "A", "C"],
    })
    out = scd2_intervals(rd.from_pandas(df)).to_pandas() \
        .sort_values(["user_id", "version"]).reset_index(drop=True)
    assert out.user_id.tolist() == [1, 1, 1, 2]
    assert out.version.tolist() == [1, 2, 3, 1]
    assert out.event_type.tolist() == ["A", "B", "A", "C"]
    assert out.valid_from.tolist() == [t[0], t[2], t[3], t[4]]
    assert out.valid_to.tolist()[:2] == [t[2], t[3]]
    assert pd.isna(out.valid_to[2]) and pd.isna(out.valid_to[3])


def test_scd2_equal_ts_tiebreak(ray_session):
    """Two events at the SAME timestamp order by the tiebreak column,
    so run boundaries are deterministic."""
    import pandas as pd
    import ray.data as rd

    from equi7grid_ray.stages.windows import scd2_intervals

    t0 = pd.Timestamp("2026-02-01 12:00")
    df = pd.DataFrame({
        "user_id": [5, 5],
        "ts": [t0, t0],
        "event_id": [2, 1],
        "event_type": ["later", "earlier"],
    })
    out = scd2_intervals(rd.from_pandas(df)).to_pandas() \
        .sort_values("version").reset_index(drop=True)
    assert out.event_type.tolist() == ["earlier", "later"]


def test_zscore_outliers_planted(ray_session):
    """A planted far value flags; the tight cluster does not; a
    single-row group never flags (no sample variance)."""
    import pandas as pd
    import ray.data as rd

    from equi7grid_ray.stages.profile import zscore_outliers

    vals = [100, 101, 99, 100, 102, 98, 100, 101, 99, 5000]
    df = pd.DataFrame({
        "lang": ["en"] * 10 + ["solo"],
        "doc_id": list(range(11)),
        "n_chars": vals + [7],
    })
    out = zscore_outliers(
        rd.from_pandas(df), key_col="lang", val_col="n_chars",
        id_col="doc_id", k=2).to_pandas()
    assert out.doc_id.tolist() == [9]
    assert out.lang.tolist() == ["en"]


def test_mad_outliers_planted(ray_session):
    """Robustness property: the planted far value does NOT inflate the
    cut (unlike a z-score it can drag); single-value groups never flag."""
    import pandas as pd
    import ray.data as rd

    from equi7grid_ray.stages.profile import mad_outliers

    vals = [100, 101, 99, 100, 102, 98, 100, 101, 99, 5000, 120]
    df = pd.DataFrame({
        "src": ["a"] * 11 + ["solo"],
        "doc_id": list(range(12)),
        "v": vals + [7],
    })
    # median=100, MAD=1, cut=3 -> 5000 and 120 flag; 98..102 do not
    out = mad_outliers(rd.from_pandas(df), key_col="src", val_col="v",
                       id_col="doc_id", k=3).to_pandas()
    assert sorted(out.doc_id.tolist()) == [9, 10]
    assert set(out.src) == {"a"}


def test_cusum_alarms_crafted_surge(ray_session):
    import ray

    from equi7grid_ray.stages.windows import cusum_alarms

    # key 'a': 1 event/hour for 10h, then a 6-event surge at hour 10.
    # tot=16, nh=11 -> k=2 (ceil(16/11)); alarms when s >= 6.
    ts, key = [], []
    for h in range(10):
        ts.append(h * 3600 * 1_000_000)
        key.append("a")
    ts += [10 * 3600 * 1_000_000 + j for j in range(6)]
    key += ["a"] * 6
    # key 'b': flat 1/hour for 5h -> k=1, s never reaches 3
    ts += [h * 3600 * 1_000_000 for h in range(5)]
    key += ["b"] * 5
    ds = ray.data.from_arrow(pa.table({
        "ts": pa.array(ts, pa.int64()),
        "event_type": pa.array(key, pa.string()),
    }))
    out = cusum_alarms(ds, ts_col="ts", key="event_type", width_s=3600,
                       h_mult=3).to_pandas() \
        .sort_values("event_type").reset_index(drop=True)
    a = out.iloc[0]
    # manual CUSUM, k=2: ten hours of x=1 keep s=0; hour 10 x=6 -> s=4
    assert a["event_type"] == "a"
    assert (a["n_buckets"], a["k"]) == (11, 2)
    assert a["max_s"] == 4 and a["n_alarms"] == 0
    b = out.iloc[1]
    assert b["event_type"] == "b"
    assert (b["k"], b["n_alarms"], b["max_s"],
            b["first_alarm_bucket"]) == (1, 0, 0, -1)


def test_cusum_alarms_fires_and_reports_first_hour(ray_session):
    import ray

    from equi7grid_ray.stages.windows import cusum_alarms

    # 20 quiet hours (1/hr) then 4 hours at 10/hr: tot=60, nh=24, k=3;
    # s ramps 7, 14, 21, 28 -> alarms at s >= 9 from the 2nd surge hour
    ts = [h * 3600 * 1_000_000 for h in range(20)]
    for h in range(20, 24):
        ts += [h * 3600 * 1_000_000 + j for j in range(10)]
    ds = ray.data.from_arrow(pa.table({
        "ts": pa.array(ts, pa.int64()),
        "event_type": pa.array(["x"] * len(ts), pa.string()),
    }))
    out = cusum_alarms(ds, ts_col="ts", key="event_type", width_s=3600,
                       h_mult=3).to_pandas()
    r = out.iloc[0]
    assert (r["n_buckets"], r["k"]) == (24, 3)
    # prefix of (x-k): 20 hours of -2 floor at 0; surge +7/hr
    assert r["max_s"] == 28
    assert r["n_alarms"] == 3 and r["first_alarm_bucket"] == 21


def test_user_retention_hand_case(ray_session):
    import ray

    import __ray_entry__  # noqa: F401  (query fn exercises the shape)
    from equi7grid_ray.stages.aggregate import hash_aggregate
    from equi7grid_ray.stages.join import shuffle_hash_join

    wk = 7 * 86400 * 1_000_000
    # u1 active weeks 0,1,3; u2 weeks 1,1(dup),2; u3 week 3 only
    rows = [(1, 0), (1, 1), (1, 3), (2, 1), (2, 1), (2, 2), (3, 3)]
    ds = ray.data.from_arrow(pa.table({
        "user_id": pa.array([u for u, _ in rows], pa.int64()),
        "week": pa.array([w for _, w in rows], pa.int64()),
    }))
    ua = hash_aggregate(ds, keys=["user_id", "week"],
                        aggs={"__n": ("week", "count")}) \
        .select_columns(["user_id", "week"])
    fw = hash_aggregate(ua, keys=["user_id"],
                        aggs={"cohort_week": ("week", "min")})
    j = shuffle_hash_join(ua, fw, on="user_id").to_pandas()
    j["off"] = j["week"] - j["cohort_week"]
    got = j.groupby(["cohort_week", "off"]).size().to_dict()
    assert got == {(0, 0): 1, (0, 1): 1, (0, 3): 1,
                   (1, 0): 1, (1, 1): 1, (3, 0): 1}


def test_event_type_correlation_hand_case(ray_session):
    import __ray_entry__ as e
    import duckdb

    out = e.q_event_type_correlation("/root/testdata/sf0.001") \
        .to_pandas().sort_values(["type_a", "type_b"]) \
        .reset_index(drop=True)
    assert len(out) == 10  # C(5,2) type pairs
    # numerators are the cleared Pearson forms: |corr| <= 1 exactly
    # <=> cov_num^2 <= varx_num * vary_num (Cauchy-Schwarz, integers)
    for r in out.itertuples():
        assert r.cov_num * r.cov_num <= r.varx_num * r.vary_num
        assert r.varx_num >= 0 and r.vary_num >= 0


def test_seasonal_anomaly_planted_spike(ray_session):
    """A planted 10x spike on one (type, day, hour) cell is flagged;
    uniform cells are not; groups under min_n days are skipped."""
    import ray.data as rd

    from equi7grid_ray.stages.windows import seasonal_anomaly

    US_H, US_D = 3_600_000_000, 86_400_000_000
    rows = []
    # type 'a', hour 5: 6 days x 3 events, day 3 gets 30 (spike)
    for d in range(6):
        k = 30 if d == 3 else 3
        rows += [("a", d * US_D + 5 * US_H + j) for j in range(k)]
    # type 'b', hour 2: only 2 days -> under min_n, skipped
    rows += [("b", 0 * US_D + 2 * US_H), ("b", 1 * US_D + 2 * US_H)]
    t = pa.table({
        "event_type": pa.array([r[0] for r in rows], pa.string()),
        "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
    })
    out = seasonal_anomaly(rd.from_arrow(t)).to_pandas()
    assert len(out) == 1
    r = out.iloc[0]
    assert (r.event_type, r.h, r.n_days, r.n_outl, r.outl_x_sum) \
        == ("a", 5, 6, 1, 30)


def test_peak_concurrency_crafted(ray_session):
    from equi7grid_ray.stages.windows import peak_concurrency

    # key "a": [0,10) [5,15) [8,20)  -> peak 3 at t=8
    # key "b": [0,10) [10,20)        -> half-open: peak 1 (never 2)
    tbl = pa.table({
        "k": pa.array(["a", "a", "a", "b", "b"]),
        "s": pa.array([0, 5, 8, 0, 10], pa.int64()),
        "e": pa.array([10, 15, 20, 10, 20], pa.int64()),
    })
    got = peak_concurrency(
        rd.from_arrow(tbl), key="k", start_col="s", end_col="e",
        chunk_us=7,  # tiny chunks force the cross-chunk offset fold
    ).to_pandas().sort_values("k").reset_index(drop=True)
    assert got["peak_concurrency"].tolist() == [3, 1]
    assert got.loc[0, "peak_ts_us"] == 8
    assert got.loc[1, "peak_ts_us"] == 0


def test_peak_concurrency_matches_window_oracle(ray_session):
    from equi7grid_ray.stages.windows import peak_concurrency

    rng = np.random.default_rng(5)
    n = 3000
    k = rng.choice(["x", "y", "z"], n)
    s = rng.integers(0, 100_000, n)
    e = s + rng.integers(1, 5_000, n)
    tbl = pa.table({"k": pa.array(k), "s": pa.array(s, pa.int64()),
                    "e": pa.array(e, pa.int64())})
    got = peak_concurrency(
        rd.from_arrow(tbl), key="k", start_col="s", end_col="e",
        chunk_us=1000,
    ).to_pandas().sort_values("k").reset_index(drop=True)

    # sequential sweep oracle
    b = pd.DataFrame({
        "k": np.concatenate([k, k]),
        "t": np.concatenate([s, e]),
        "d": np.concatenate([np.ones(n, np.int64), -np.ones(n, np.int64)]),
    }).sort_values(["k", "t", "d"], kind="stable")
    b["conc"] = b.groupby("k")["d"].cumsum()
    exp = []
    for key, g in b.groupby("k"):
        peak = g["conc"].max()
        exp.append((key, peak, g.loc[g["conc"] == peak, "t"].min()))
    exp = pd.DataFrame(exp, columns=["k", "peak_concurrency", "peak_ts_us"])
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_events_debounce_boundary(ray_session):
    import __ray_entry__ as e

    # craft via the stage path directly: gaps of exactly 5s are
    # SUPPRESSED (> 5s starts a new burst)
    tbl = pa.table({
        "event_id": pa.array([1, 2, 3, 4], pa.int64()),
        "user_id": pa.array([7, 7, 7, 7], pa.int64()),
        "ts": pa.array(
            np.array([0, 5_000_000, 10_000_001, 10_000_002],
                     "datetime64[us]")),
        "event_type": pa.array(["a"] * 4),
    })
    import tempfile

    import pyarrow.parquet as pq

    with tempfile.TemporaryDirectory() as d:
        pq.write_table(tbl, f"{d}/events.parquet")
        got = e.q_events_debounce(d).to_pandas()
    r = got.iloc[0]
    # bursts: [e1, e2(=+5s, suppressed)], [e3(+5.000001s, kept),
    # e4(+1us, suppressed)] -> kept 2 of 4
    assert (r["n_events"], r["n_kept"]) == (4, 2)
