"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship tile-assignment pipeline over sf0.001;
``queries()`` exposes one callable per implemented operator family from
SURVEY.md section 2 (+ the north-rule training-data ops).  A query is
declared by one ``oracle_sql()`` entry -- its name and the DuckDB SQL
that reproduces it -- plus a module-level ``q_<name>(sf_dir)``;
``queries()`` is a view of ``oracle_sql()`` in that dict's order.

Geospatial queries derive coordinates from integer keys with pure
integer arithmetic (microdegrees / metres) so the SQL oracle reproduces
them bit-exactly; the geodesic steps themselves (zone PIP + ellipsoidal
AEQD forward, ROI tile search) are oracled via pinned lookup goldens in
equi7grid_ray/data/oracle/ (generated by tools/gen_oracle_lookups.py,
staleness-guarded by tests/test_oracle_lookups.py).

NOTE: Ray is initialised by the driver before import -- nothing here
calls ray.init()/ray.shutdown().
"""

from __future__ import annotations

import os
from collections.abc import Callable
from typing import Any

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from equi7grid_ray import sqlgen
from equi7grid_ray.sources import images
from equi7grid_ray.stages import multimodal as mm

# ---------------------------------------------------------------------------
# deterministic integer coordinate derivations (shared Ray <-> SQL)
# ---------------------------------------------------------------------------

_XMUL, _XMOD = 97_003, 8_640_000  # projected-metre sweep for tile-floor ops
_YMUL, _YMOD = 53_003, 6_000_000
_LONMUL, _LONMOD = 77_003_917, 360_000_000  # microdegree sweep for cell ops
_LATMUL, _LATMOD = 40_009_831, 180_000_000
_CELL_L = 9


def _read(sf_dir: str, table: str, columns=None, min_blocks: int = 4):
    """Pruned parquet read with a small-input block heuristic: Ray's
    default splits even a 100k-row file into 64 tiny blocks, which
    makes every downstream AllToAll (sort/groupby) overhead-bound
    (measured 6.2 s -> 1.4 s on the sf0.1 range join).  For small
    inputs aim at ~64k rows/block; big inputs keep Ray's default
    (at real scale blocks are full-size and the heuristic is moot).
    Reduce-heavy callers (wide intermediate key spaces, e.g. the salted
    aggregate) pass a higher ``min_blocks`` -- their shuffle
    parallelism is bounded by the input block count."""
    import pyarrow.parquet as pq
    import ray.data as rd

    path = f"{sf_dir}/{table}.parquet"
    kwargs = {}
    try:
        rows = pq.read_metadata(path).num_rows
        if rows < 2_000_000:
            kwargs["override_num_blocks"] = max(min_blocks, rows // 65_536)
    except Exception:
        pass
    return rd.read_parquet(path, columns=columns, **kwargs)


def _derive_xy(batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    ok = batch.column("l_orderkey").to_numpy(zero_copy_only=False).astype(np.int64)
    sk = batch.column("l_suppkey").to_numpy(zero_copy_only=False).astype(np.int64)
    return (ok * _XMUL) % _XMOD, (sk * _YMUL) % _YMOD


def _derive_udeg(batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    ok = batch.column("l_orderkey").to_numpy(zero_copy_only=False).astype(np.int64)
    pk = batch.column("l_partkey").to_numpy(zero_copy_only=False).astype(np.int64)
    lon_u = (ok * _LONMUL) % _LONMOD - 180_000_000
    lat_u = (pk * _LATMUL) % _LATMOD - 90_000_000
    return lon_u, lat_u


def _sweep_subset(batch: pa.Table) -> pa.Table:
    """Deterministic 1/3 subset of the lineitem sweep -- replaces the
    old ``.limit(20_000)`` work bound with a predicate the SQL oracle
    mirrors exactly (LIMIT without ORDER BY is not reproducible)."""
    ok = batch.column("l_orderkey").to_numpy(zero_copy_only=False).astype(np.int64)
    pk = batch.column("l_partkey").to_numpy(zero_copy_only=False).astype(np.int64)
    return batch.filter(pa.array((ok + pk) % 3 == 1))


# Shared footer-inspection gate file: q_parquet_rowgroup_stats and its SQL
# mirror BOTH read this path (oracle_sql() has no sf_dir channel).
_PQ_FOOTER_GATE = "/root/testdata/sf0.01/lineitem.parquet"


def _images(n: int):
    """Rows [0, n) of the synthetic image table as a one-block Dataset."""
    import ray.data as rd

    return rd.from_arrow(images.make_batch(0, n))


def _frame_query(stage: type, n: int, *, make=images.make_batch,
                 where: dict | None = None, select: list | None = None,
                 concurrency=(1, 2), **kwargs) -> Callable[[str], Any]:
    """A single-stage synthetic-image query: rows [0, n) of ``make``,
    kept where each ``where`` column equals its value, through the
    multimodal ``stage`` (constructed with ``kwargs``), optionally
    projected to ``select``."""

    def query(sf_dir: str):
        import ray.data as rd

        t = make(0, n)
        for col, v in (where or {}).items():
            t = t.filter(pc.equal(t[col], v))
        out = rd.from_arrow(t).map_batches(
            stage, fn_constructor_kwargs=kwargs or None,
            batch_format="pyarrow", concurrency=concurrency, num_cpus=1)
        return out.select_columns(select) if select else out

    return query


def _oracle_lookup(name: str) -> str:
    """Absolute read_parquet() ref to a committed oracle-lookup golden
    (generated by tools/gen_oracle_lookups.py, staleness-guarded by
    tests/test_oracle_lookups.py)."""
    from equi7grid_ray.datafiles import DATA_DIR

    return f"read_parquet('{DATA_DIR / 'oracle' / name}')"


def _scene_blocks(n: int) -> str:
    """SQL CTEs ``img``/``px``/``blk``: the 8x8 block means of scenes
    [0, n) joined to their tiles through the image_tiles golden."""
    return sqlgen.scene_blocks_sql(n, _oracle_lookup("image_tiles.parquet"))


_UDEG_SQL = (f"(l_orderkey * {_LONMUL}) % {_LONMOD} - 180000000 AS lon_udeg, "
             f"(l_partkey * {_LATMUL}) % {_LATMOD} - 90000000 AS lat_udeg")
_SWEEP_SUBSET_SQL = "(l_orderkey + l_partkey) % 3 = 1"


def _t6_names(x: np.ndarray, y: np.ndarray, suffix: str = "T6", size: int = 600_000) -> np.ndarray:
    from equi7grid_ray.grid import partial_names

    llx = (x // size) * size
    lly = (y // size) * size
    return partial_names(llx.astype(np.float64), lly.astype(np.float64), suffix)


_GRID_NAMES: dict = {}


def _grid_names(suffix: str, size: int) -> np.ndarray:
    """Precomputed tile-name table over the bounded derived-sweep grid
    (index = tx * ny + ty), built once per process."""
    key = (suffix, size)
    names = _GRID_NAMES.get(key)
    if names is None:
        from equi7grid_ray.grid import partial_names

        nx = -(-_XMOD // size)
        ny = -(-_YMOD // size)
        tx, ty = np.divmod(np.arange(nx * ny, dtype=np.int64), ny)
        names = partial_names((tx * size).astype(np.float64),
                              (ty * size).astype(np.float64), suffix)
        _GRID_NAMES[key] = names
    return names


def _grid_tile_hist(x: np.ndarray, y: np.ndarray, suffix: str, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-batch tile histogram over the bounded derived-sweep tile grid:
    dense bincount on the integer tile index, names gathered from a
    per-process precomputed table -- ~20x cheaper than building a name
    string per ROW (the flagship's dictionary-bincount pattern)."""
    nx = -(-_XMOD // size)
    ny = -(-_YMOD // size)
    names = _grid_names(suffix, size)
    tid = (x // size) * ny + (y // size)
    counts = np.bincount(tid, minlength=nx * ny)
    nz = np.flatnonzero(counts)
    return names[nz], counts[nz]


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------


def q_tile_floor_hist(sf_dir: str):
    """Vectorized tile-name codec + point->tile floor (SURVEY 2.3) over a
    deterministic integer coordinate sweep; partial per-batch counts then
    a small groupby (combiner-before-shuffle)."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_suppkey"])

    def stage(batch: pa.Table) -> pa.Table:
        x, y = _derive_xy(batch)
        tiles, counts = _grid_tile_hist(x, y, "T6", 600_000)
        return pa.table({"tile": pa.array(tiles.tolist(), pa.string()),
                         "pn": pa.array(counts, pa.int64())})

    return (
        ds.map_batches(stage, batch_format="pyarrow")
        .groupby("tile")
        .aggregate(Sum("pn", alias_name="n"))
    )


def q_cell_index_hist(sf_dir: str):
    """Coarse quadtree cell index (H3/S2 role) + groupby-count shuffle
    keyed on the cell (north-rule ROI-search shape)."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])

    NCELLS = 1 << (2 * _CELL_L)

    def stage(batch: pa.Table) -> pa.Table:
        # dense per-task count vector (1 MB for L=9) instead of ~1 row
        # per input row through a sort-shuffle: the cell domain is
        # bounded, so the histogram reduces as fixed-size vectors (the
        # flagship's dense-partials pattern).  At larger task counts the
        # single merge group becomes a 2-level tree (partial merge by
        # task hash, then final) -- same machinery.
        lon_u, lat_u = _derive_udeg(batch)
        n = np.int64(1 << _CELL_L)
        ix = (lon_u + 180_000_000) * n // _LONMOD
        iy = (lat_u + 90_000_000) * n // _LATMOD
        low = (iy << _CELL_L) | ix
        counts = np.bincount(low, minlength=NCELLS).astype(np.uint32)
        return pa.table({"g": pa.array([0], pa.int8()),
                         "part": pa.array([counts.tobytes()], pa.binary())})

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        tot = np.zeros(NCELLS, np.int64)
        for b in g["part"]:
            tot += np.frombuffer(b, np.uint32)
        nz = np.flatnonzero(tot)
        iy = (nz >> _CELL_L).astype(np.int64)
        ix = (nz & ((1 << _CELL_L) - 1)).astype(np.int64)
        cell = (np.int64(_CELL_L) << 58) | (iy << 29) | ix
        return pd.DataFrame({"cell": cell, "n": tot[nz]})

    return (
        ds.map_batches(stage, batch_format="pyarrow")
        .groupby("g")
        .map_groups(merge, batch_format="pandas")
        .select_columns(["cell", "n"])
    )


def q_tile_parent_rollup(sf_dir: str):
    """T1 tile assign -> parent T3 rollup (SURVEY 2.3 parent math)."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_suppkey"])

    def stage(batch: pa.Table) -> pa.Table:
        x, y = _derive_xy(batch)
        tiles, counts = _grid_tile_hist(x, y, "T3", 300_000)
        return pa.table({"parent_tile": pa.array(tiles.tolist(), pa.string()),
                         "pn": pa.array(counts, pa.int64())})

    return (
        ds.map_batches(stage, batch_format="pyarrow")
        .groupby("parent_tile")
        .aggregate(Sum("pn", alias_name="n"))
    )


def q_children_expand(sf_dir: str):
    """Distinct T6 tiles -> 4 T3 children each (flat_map explode,
    SURVEY 2.3 children math)."""
    ds = q_tile_floor_hist(sf_dir)

    def explode(batch: pa.Table) -> pa.Table:
        from equi7grid_ray.grid import parse_tile_names, partial_names

        names = ["XX_" + n for n in batch.column("tile").to_pylist()]
        p = parse_tile_names(names)
        llx = np.repeat(p["ll_x"], 4) + np.tile([0.0, 0.0, 300_000.0, 300_000.0], len(names))
        lly = np.repeat(p["ll_y"], 4) + np.tile([0.0, 300_000.0, 0.0, 300_000.0], len(names))
        child = partial_names(llx, lly, "T3")
        return pa.table({"child_tile": pa.array(child.tolist(), pa.string())})

    return ds.map_batches(explode, batch_format="pyarrow")


def q_dedup_exact_docs(sf_dir: str):
    """Exact dedup by content hash: hash-partitioned groupby, keep min id."""
    from equi7grid_ray.stages.dedup import exact_dedup

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = exact_dedup(ds, key="text", id_col="doc_id")
    return out.select_columns(["doc_id"])


def q_token_stats_by_lang(sf_dir: str):
    """Token counting + aggregation by language (text-analysis op)."""
    from ray.data.aggregate import Count, Sum

    from equi7grid_ray.stages.text import token_stats

    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang", "source"])
    return (
        ds.map_batches(token_stats, batch_format="pyarrow")
        .groupby("lang")
        .aggregate(
            Count(alias_name="n_docs"),
            Sum("n_tokens", alias_name="sum_tokens"),
            Sum("n_chars", alias_name="sum_chars"),
        )
    )


def q_bpe_token_stats(sf_dir: str):
    """BPE-ish (GPT-2 pre-tokenizer regex) token counting rolled up by
    language -- one RE2 kernel per batch, combiner-free keyed aggregate
    (|langs| groups)."""
    from ray.data.aggregate import Count, Sum

    from equi7grid_ray.stages.text import bpe_token_count

    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang"])
    return (
        ds.map_batches(bpe_token_count, batch_format="pyarrow")
        .groupby("lang")
        .aggregate(
            Count(alias_name="n_docs"),
            Sum("n_bpe_tokens", alias_name="sum_bpe_tokens"),
        )
    )


def q_punct_by_source(sf_dir: str):
    """Quality-scoring features (punctuation counts) rolled up by source."""
    from ray.data.aggregate import Count, Sum

    ds = _read(sf_dir, "documents", ["doc_id", "text", "source"])

    def stage(batch: pa.Table) -> pa.Table:
        text = batch.column("text")
        punct = pc.subtract(
            pc.utf8_length(text),
            pc.utf8_length(pc.replace_substring_regex(text, r"[^a-zA-Z0-9 ]", "")),
        )
        return pa.table({
            "source": batch.column("source"),
            "n_punct": pc.cast(punct, pa.int64()),
        })

    return (
        ds.map_batches(stage, batch_format="pyarrow")
        .groupby("source")
        .aggregate(Count(alias_name="n_docs"), Sum("n_punct", alias_name="sum_punct"))
    )


def q_events_hourly(sf_dir: str):
    """Tumbling 1h window aggregate over the event stream (the
    stages/windows.py tumbling_window operator)."""
    from ray.data.aggregate import Count, Sum

    from equi7grid_ray.stages.windows import tumbling_window

    ds = _read(sf_dir, "events", ["event_id", "ts", "event_type", "value"])

    def add_cents(batch: pa.Table) -> pa.Table:
        cents = np.rint(batch.column("value").to_numpy() * 100.0).astype(np.int64)
        return pa.table({
            "ts": batch.column("ts"),
            "event_type": batch.column("event_type"),
            "cents": pa.array(cents, pa.int64()),
        })

    return tumbling_window(
        ds.map_batches(add_cents, batch_format="pyarrow"),
        ts_col="ts", width_s=3600, keys=["event_type"],
        aggs=[Count(alias_name="n"), Sum("cents", alias_name="sum_cents")],
    )


def _embedding_probe(sf_dir: str, vec_id: int | None = None):
    """Fetch the query vector (or just the dim) WITHOUT materializing the
    embeddings table on the driver: row-filtered, column-pruned parquet
    read -- only the matching row group(s) leave storage (round-1 verdict
    "What's wrong" #3)."""
    import pyarrow.parquet as pq

    if vec_id is None:
        f = pq.ParquetFile(f"{sf_dir}/embeddings.parquet")
        first = next(f.iter_batches(batch_size=1, columns=["embedding"]))
        return len(first.column("embedding")[0])
    t = pq.read_table(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "=", vec_id)],
    )
    return np.asarray(t.column("embedding")[0].as_py())


def q_knn_cosine(sf_dir: str):
    """Brute-force cosine top-10 against the vec_id=0 embedding (broadcast
    query matrix, per-batch matmul, tiny merge)."""
    import pyarrow.parquet as pq

    from equi7grid_ray.stages.similarity import topk_cosine

    q = _embedding_probe(sf_dir, 0)
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    out = topk_cosine(ds, q, k=10)
    return out.select_columns(["vec_id"])


def q_priority_sla(sf_dir: str):
    """Fulfilment SLA compliance per order priority: orders whose LAST
    lineitem ships more than 90 days after placement, plus the worst
    lag -- one keyed max-shipdate aggregate cogrouped with orders,
    per-priority rollup; exact epoch-day integers."""
    from equi7grid_ray.stages.aggregate import hash_aggregate
    from equi7grid_ray.stages.join import shuffle_hash_join

    ods = _read(sf_dir, "orders",
                ["o_orderkey", "o_orderdate", "o_orderpriority"])
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])

    last_ship = hash_aggregate(
        li.map_batches(
            lambda b: pa.table({
                "o_orderkey": b.column("l_orderkey").cast(pa.int64()),
                "sd": pc.divide(pc.cast(pc.cast(b.column("l_shipdate"),
                                                pa.timestamp("us")),
                                        pa.int64()), 86_400_000_000),
            }), batch_format="pyarrow"),
        keys=["o_orderkey"], aggs={"sd": ("sd", "max")})

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderkey": batch.column("o_orderkey").cast(pa.int64()),
            "od": pc.divide(pc.cast(pc.cast(batch.column("o_orderdate"),
                                            pa.timestamp("us")),
                                    pa.int64()), 86_400_000_000),
            "pr": batch.column("o_orderpriority"),
        })

    joined = shuffle_hash_join(
        ods.map_batches(prep, batch_format="pyarrow"), last_ship,
        on="o_orderkey", n_partitions=16)

    def partials(batch: pa.Table) -> pa.Table:
        lag = pc.subtract(batch.column("sd"), batch.column("od"))
        d = pa.table({"priority": batch.column("pr"),
                      "lag": lag}).to_pandas()
        c = d.groupby("priority", as_index=False).agg(
            n=("lag", "size"),
            n_late=("lag", lambda s: int((s > 90).sum())),
            worst_lag=("lag", "max"))
        return pa.Table.from_pandas(c, preserve_index=False)

    return hash_aggregate(
        joined.map_batches(partials, batch_format="pyarrow"),
        keys=["priority"],
        aggs={"n": ("n", "sum"), "n_late": ("n_late", "sum"),
              "worst_lag": ("worst_lag", "max")},
        n_partitions=4)


def q_image_bitplanes(sf_dir: str):
    """Per-frame bit-plane population counts (the bit-sliced texture /
    compressibility signal): popcount of each of the 8 planes, one
    vectorized shift-and pass; SQL sums (v >> p) & 1."""

    def planes(batch: pa.Table) -> pa.Table:
        out = np.zeros((batch.num_rows, 8), np.int64)
        for j, v in mm.frames(batch):
            for p in range(8):
                out[j, p] = int(((v >> p) & 1).sum())
        return pa.table({
            "image_id": batch.column("image_id"),
            **{f"p{p}": pa.array(out[:, p], pa.int64())
               for p in range(8)}})

    return _images(300).map_batches(planes, batch_format="pyarrow")


# Audio quality gate over PCM payloads (the audio Gopher):
# first-failing reason among clipped (>8% near-full-scale samples,
# integer-exact) / silent (a >= 2-sample quiet run) / ok; one
# vectorized diff pass per clip; gaps-and-islands SQL mirror.
q_audio_gate = _frame_query(mm.AudioGate, 500)


# Energy-based voice-activity segmentation over PCM clips (the
# framing step of speech-corpus pipelines): non-overlapping 64-sample
# frames, active when energy exceeds the exact integer mean-square
# threshold, consecutive active frames folded into segments.  One
# reshape + row-sum per clip; gaps-and-islands SQL mirror.
q_audio_vad = _frame_query(mm.AudioVAD, 500)


def q_order_backlog(sf_dir: str):
    """Event-sourced running balance: open orders per day (+1 at
    placement, -1 on the day the LAST lineitem ships).  Per-day deltas
    fold combiner-first (bounded by the date domain); the running sum
    is one vectorized pass over that bounded series; window-frame SQL
    mirror."""
    from equi7grid_ray.arrowutil import single_group
    from equi7grid_ray.stages.aggregate import hash_aggregate

    ods = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate"])
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])

    def placed(batch: pa.Table) -> pa.Table:
        day = pc.cast(pc.cast(batch.column("o_orderdate"),
                              pa.timestamp("us")), pa.int64())
        d = pa.table({"day": pc.divide(day, 86_400_000_000)})
        out = d.group_by(["day"]).aggregate([([], "count_all")])
        return out.rename_columns(["day", "delta"])

    # last-ship day per order, then +(-1) deltas per that day
    last_ship = hash_aggregate(
        li.map_batches(
            lambda b: pa.table({
                "k": b.column("l_orderkey").cast(pa.int64()),
                "d": pc.divide(pc.cast(pc.cast(b.column("l_shipdate"),
                                               pa.timestamp("us")),
                                       pa.int64()), 86_400_000_000),
            }), batch_format="pyarrow"),
        keys=["k"], aggs={"d": ("d", "max")})

    def shipped(batch: pa.Table) -> pa.Table:
        out = pa.table({"day": batch.column("d")}) \
            .group_by(["day"]).aggregate([([], "count_all")])
        out = out.rename_columns(["day", "n"])
        return pa.table({
            "day": out.column("day"),
            "delta": pc.multiply(out.column("n"), -1),
        })

    deltas = hash_aggregate(
        ods.map_batches(placed, batch_format="pyarrow")
        .union(last_ship.map_batches(shipped, batch_format="pyarrow")),
        keys=["day"], aggs={"delta": ("delta", "sum")})

    def running(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("day", kind="stable")
        g = g.copy()
        g["backlog"] = g["delta"].cumsum().astype(np.int64)
        return g

    return single_group(deltas, running, ["day", "delta", "backlog"])


def q_knn_cosine_filtered(sf_dir: str):
    """Hybrid vector search: brute-force cosine top-10 restricted by a
    metadata predicate (label % 3 == 1) pushed BEFORE the scoring
    matmul -- the filter-then-rank shape real vector stores need (the
    filtered candidate set never inflates the scan)."""
    from equi7grid_ray.stages.similarity import topk_cosine

    q = _embedding_probe(sf_dir, 0)
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding", "label"])

    def keep(batch: pa.Table) -> pa.Table:
        lab = batch.column("label").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        return batch.filter(pa.array(lab % 3 == 1)) \
            .select(["vec_id", "embedding"])

    out = topk_cosine(ds.map_batches(keep, batch_format="pyarrow"),
                      q, k=10)
    return out.select_columns(["vec_id"])


def q_kwic_snippets(sf_dir: str):
    """Keyword-in-context extraction (search-snippet primitive): for
    docs containing ' data ', the first match's byte offset and the
    clamped [off-20, off+26) context-window bounds -- one vectorized
    pc.find_substring pass; strpos mirror."""
    ds = _read(sf_dir, "documents", ["doc_id", "text", "n_chars"])

    def kwic(batch: pa.Table) -> pa.Table:
        pos = pc.find_substring(batch.column("text"), " data ") \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        n = batch.column("n_chars").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        hit = pos >= 0
        off = pos[hit]
        return pa.table({
            "doc_id": pa.array(ids[hit], pa.int64()),
            "off": pa.array(off, pa.int64()),
            "win_start": pa.array(np.maximum(off - 20, 0), pa.int64()),
            "win_end": pa.array(np.minimum(off + 26, n[hit]), pa.int64()),
        })

    return ds.map_batches(kwic, batch_format="pyarrow")


def q_user_gap_quantiles(sf_dir: str):
    """Per-user inter-event-gap quantiles (exact, quantile_disc rule,
    dyadic q): lag-gap derivation per user partition, then the exact
    grouped-quantile fold."""
    from equi7grid_ray.stages.aggregate import cogroup
    from equi7grid_ray.stages.quantiles import grouped_quantiles

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": batch.column("user_id").cast(pa.int64()),
            "event_id": batch.column("event_id").cast(pa.int64()),
            "tsu": pc.cast(batch.column("ts"), pa.int64()),
        })

    def gaps(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "tsu", "event_id"], kind="stable")
        u = g["user_id"].to_numpy()
        t = g["tsu"].to_numpy()
        same = np.empty(len(g), bool)
        same[0] = False
        same[1:] = u[1:] == u[:-1]
        gap = t - np.roll(t, 1)
        return pd.DataFrame({"user_id": u[same],
                             "gap_us": gap[same].astype(np.int64)})

    gds = cogroup(ev.map_batches(prep, batch_format="pyarrow"), ["user_id"],
                  gaps, n_partitions=16)
    return grouped_quantiles(gds, col="gap_us", qs=(0.25, 0.5, 0.75),
                             keys=["user_id"])


def q_tile_assign_real(sf_dir: str):
    """The real flagship operator: zone PIP + ellipsoidal AEQD forward +
    tile assign on the derived coordinate sweep; oracled via the pinned
    sweep_assign lookup golden (tools/gen_oracle_lookups.py)."""
    from equi7grid_ray.pipelines.flagship import tile_assignments, tile_histogram

    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])

    def prep(batch: pa.Table) -> pa.Table:
        lon_u, lat_u = _derive_udeg(batch)
        ok = batch.column("l_orderkey").to_numpy(zero_copy_only=False).astype(np.int64)
        ln = batch.column("l_partkey").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "image_id": pa.array(ok * 100_000 + ln, pa.int64()),
            "lon_udeg": pa.array(lon_u, pa.int64()),
            "lat_udeg": pa.array(lat_u, pa.int64()),
        })

    prepped = ds.map_batches(prep, batch_format="pyarrow")
    # broadcast-state task variant: the assigner (zone raster, atlases,
    # interp grids, ~55 MB) is built ONCE on the driver and ray.put --
    # an actor pool would rebuild it per fresh actor (~3 s each)
    assigned = tile_assignments(prepped, emit_cell=False, batch_size=65_536)
    return tile_histogram(assigned)


def q_roi_tiles_global(sf_dir: str):
    """Global-bbox ROI->tiles search (SURVEY 2.4); returns the 1801-tile
    inventory with land flags, oracled against the committed tiles_t6
    golden (static-table equality)."""
    from equi7grid_ray.tiling_state import get_grid_state

    index = get_grid_state().tile_index("T6")
    return pa.table({"tile": pa.array(index.names.tolist(), pa.string()),
                     "covers_land": pa.array(index.covers_land[:-1], pa.bool_())})


def q_lsh_near_dup(sf_dir: str):
    """MinHash-LSH near-duplicate candidate pairs (banded shuffle)."""
    from equi7grid_ray.stages.dedup import lsh_candidate_pairs

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return lsh_candidate_pairs(ds)


def q_lsh_near_dup_verified(sf_dir: str):
    """Full near-dup pipeline: banded MinHash-LSH candidates -> exact
    character-trigram Jaccard verification >= 0.8 -> confirmed pairs.
    The corpus' candidate Jaccard distribution is bimodal (gap 0.67 to
    0.93), so 0.8 cleanly separates true near-duplicates from band
    collisions; the DuckDB oracle mirrors candidates AND verification."""
    from equi7grid_ray.stages.dedup import verified_near_dup_pairs

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return verified_near_dup_pairs(ds, threshold=0.8)


def q_near_dup_components(sf_dir: str):
    """Near-duplicate clusters: connected components over the MinHash-
    LSH candidate-pair graph (min-label propagation with pointer jumps,
    run in one task over the collected pair set, which duplicate mass
    bounds).  The step every production dedup needs after pair
    generation -- pairs alone don't say which docs to drop.  Oracle:
    recursive-CTE reachability over the same pair set."""
    from equi7grid_ray.stages.dedup import lsh_candidate_pairs
    from equi7grid_ray.stages.graph import connected_components

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    pairs = lsh_candidate_pairs(ds)
    comp = connected_components(pairs)

    def rename(batch: pa.Table) -> pa.Table:
        return pa.table({"doc_id": batch.column("node"),
                         "component": batch.column("component")})

    return comp.map_batches(rename, batch_format="pyarrow")


def q_dedup_canonical_docs(sf_dir: str):
    """Full-corpus canonical ids: every doc mapped to the min doc_id of
    its near-dup component (itself when in no pair).  The component
    table (pair-nodes only) is broadcast via ray.put and probed with a
    vectorized searchsorted; the corpus streams."""
    from equi7grid_ray.stages.dedup import lsh_candidate_pairs
    from equi7grid_ray.stages.graph import (canonical_assignments,
                                            connected_components)

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    comp = connected_components(lsh_candidate_pairs(ds))
    docs = _read(sf_dir, "documents", ["doc_id"])
    return canonical_assignments(docs, comp)


def q_dedup_keep_longest(sf_dir: str):
    """Quality-keeping canonical ids: every doc mapped to the LONGEST
    (max n_chars, tie -> min doc_id) member of its near-dup component
    -- the keep-the-longest representative rule for truncation-heavy
    near-dups.  Same broadcast-probe shape as dedup_canonical_docs;
    the per-component argmax resolves over the bounded pair-node
    set."""
    from equi7grid_ray.stages.dedup import lsh_candidate_pairs
    from equi7grid_ray.stages.graph import (canonical_by_quality,
                                            connected_components)

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    comp = connected_components(lsh_candidate_pairs(ds))
    docs = _read(sf_dir, "documents", ["doc_id", "n_chars"])
    return canonical_by_quality(docs, comp, quality_col="n_chars")


def q_mixture_allocation(sf_dir: str):
    """Temperature-based data-mixture plan: a 1000-row sampling budget
    apportioned across sources with sqrt(count) weights (alpha = 0.5)
    by the exact largest-remainder method (quotas are integers summing
    to exactly 1000, ties -> source ascending).  One combiner-first
    keyed count is the only shuffle; the bounded per-source table
    resolves on one partition.  SQL mirrors the exact integer isqrt
    (float sqrt + division-based correction) and the Hamilton rule via
    row_number over remainders."""
    from equi7grid_ray.stages.sample import mixture_allocation

    docs = _read(sf_dir, "documents", ["source"])
    return mixture_allocation(docs, key="source", target=1000)


def q_doc_novelty(sf_dir: str):
    """Per-doc 8-gram novelty vs the earlier corpus (smaller doc_ids):
    distinct-shingle count + how many appear in no earlier doc --
    novelty ~ 0 flags recombinations exact/near dedup misses.  One
    Horner pass per batch; (hash, doc) pairs partition by shingle so
    each hash's first doc resolves in one vectorized pass; per-doc
    partials fold per partition and one keyed aggregate sums."""
    from equi7grid_ray.stages.dedup import doc_novelty

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return doc_novelty(ds, k=8)


def q_event_rate_cusum(sf_dir: str):
    """Streaming rate change-point detection: one-sided CUSUM over
    per-type hourly event counts (missing hours = 0), drift k =
    ceil(mean rate), alarm at 3k.  The sequential recurrence resolves
    closed-form (prefix sum minus running min) in one vectorized pass
    per key; only (type, hour) count partials shuffle.  SQL restates
    the identity with nested window functions over a dense generated
    hour range."""
    from equi7grid_ray.stages.windows import cusum_alarms

    ds = _read(sf_dir, "events", ["ts", "event_type"])
    return cusum_alarms(ds, ts_col="ts", key="event_type",
                        width_s=3600, h_mult=3)


def q_bm25_topk(sf_dir: str):
    """Integer-quantized BM25 ranked retrieval for the fixed query
    {merge, stream, batch}: per (doc, term) tf saturates through
    tf*(k1+1)*4096 // (tf + k1) with k1 = 2 (the BM25 tf curve, b = 0,
    Q12 quantized so both engines stay exact), weighted by the integer
    rarity N // df; global top-10 by (score desc, doc_id).  Per-doc tf
    vectors resolve within the batch (a doc lives in one row); df is a
    3-value bounded fold; top-10 via per-batch partials + one final
    merge -- no global sort."""
    from equi7grid_ray.stages.text import bm25_topk

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return bm25_topk(ds, ("batch", "merge", "stream"),
                     k1=2, scale=4096, k=10)


def q_vocab_growth(sf_dir: str):
    """Heaps-law vocabulary growth: docs bucketed 50 at a time by
    doc_id; per bucket the count of tokens first seen there + the
    cumulative vocabulary.  Combiner-first (per-batch per-token
    min-doc partials), one keyed min, bounded bucket fold."""
    from equi7grid_ray.stages.text import vocab_growth

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return vocab_growth(ds, bucket_docs=50)


def q_user_retention(sf_dir: str):
    """Weekly cohort retention matrix: users cohorted by first-active
    epoch week; per (cohort_week, weeks-since) the count of distinct
    users active that week -- the classic retention triangle.  Shape:
    distinct (user, week) pairs via one keyed aggregate (the event
    stream never re-shuffles), per-user min week, one cogroup join
    back, one keyed count.  SQL mirrors with min-over-user + offset
    grouping."""
    from equi7grid_ray.stages.aggregate import hash_aggregate
    from equi7grid_ray.stages.join import shuffle_hash_join

    ds = _read(sf_dir, "events", ["user_id", "ts"])
    wk_us = 7 * 86400 * 1_000_000

    def prep(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts").to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").view(np.int64)
        return pa.table({
            "user_id": batch.column("user_id"),
            "week": pa.array(ts // wk_us, pa.int64()),
        })

    ua = hash_aggregate(
        ds.map_batches(prep, batch_format="pyarrow"),
        keys=["user_id", "week"], aggs={"__n": ("week", "count")},
    ).select_columns(["user_id", "week"])
    fw = hash_aggregate(
        ua, keys=["user_id"], aggs={"cohort_week": ("week", "min")})
    j = shuffle_hash_join(
        ua, fw, on="user_id",
        left_schema=pa.schema([("user_id", pa.int64()),
                               ("week", pa.int64())]),
        right_schema=pa.schema([("user_id", pa.int64()),
                                ("cohort_week", pa.int64())]))

    def offset(batch: pa.Table) -> pa.Table:
        wk = batch.column("week").to_numpy(zero_copy_only=False)
        cw = batch.column("cohort_week").to_numpy(zero_copy_only=False)
        return pa.table({
            "cohort_week": pa.array(cw.astype(np.int64), pa.int64()),
            "week_offset": pa.array((wk - cw).astype(np.int64),
                                    pa.int64()),
        })

    return hash_aggregate(
        j.map_batches(offset, batch_format="pyarrow"),
        keys=["cohort_week", "week_offset"],
        aggs={"n_users": ("week_offset", "count")},
    )


def q_local_supplier_revenue(sf_dir: str):
    """TPC-H Q5-shaped multi-way join: lineitem |><| orders (the one
    big-big shuffle join) with customer / supplier / nation broadcast
    (ray.put once, probed per batch), keeping only LOCAL commerce
    (customer nation == supplier nation); revenue in exact 1e-4
    currency units (cents x (100 - discount%)).  Per-nation revenue +
    order-line count."""
    import pyarrow.parquet as pq

    from equi7grid_ray.stages.aggregate import hash_aggregate
    from equi7grid_ray.stages.join import broadcast_join, shuffle_hash_join

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"])

    def prep_li(batch: pa.Table) -> pa.Table:
        cents = np.rint(batch.column("l_extendedprice")
                        .to_numpy(zero_copy_only=False) * 100.0) \
            .astype(np.int64)
        dpct = np.rint(batch.column("l_discount")
                       .to_numpy(zero_copy_only=False) * 100.0) \
            .astype(np.int64)
        return pa.table({
            "okey": batch.column("l_orderkey").cast(pa.int64()),
            "skey": batch.column("l_suppkey").cast(pa.int64()),
            "rev": pa.array(cents * (100 - dpct), pa.int64()),
        })

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])

    def prep_o(batch: pa.Table) -> pa.Table:
        return pa.table({
            "okey": batch.column("o_orderkey").cast(pa.int64()),
            "ckey": batch.column("o_custkey").cast(pa.int64()),
        })

    j = shuffle_hash_join(
        li.map_batches(prep_li, batch_format="pyarrow"),
        orders.map_batches(prep_o, batch_format="pyarrow"),
        on="okey", n_partitions=32)

    cust = pq.read_table(f"{sf_dir}/customer.parquet",
                         columns=["c_custkey", "c_nationkey"])
    supp = pq.read_table(f"{sf_dir}/supplier.parquet",
                         columns=["s_suppkey", "s_nationkey"])
    nation = pq.read_table(f"{sf_dir}/nation.parquet",
                           columns=["n_nationkey", "n_name"])

    def r_c(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(
            ["c_custkey" if c == "ckey" else c
             for c in batch.column_names])

    def r_s(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(
            ["s_suppkey" if c == "skey" else c
             for c in batch.column_names])

    j = broadcast_join(j.map_batches(r_c, batch_format="pyarrow"),
                       cust, on="c_custkey", how="inner")
    j = broadcast_join(j.map_batches(r_s, batch_format="pyarrow"),
                       supp, on="s_suppkey", how="inner")

    def local_only(batch: pa.Table) -> pa.Table:
        cn = batch.column("c_nationkey").to_numpy(zero_copy_only=False)
        sn = batch.column("s_nationkey").to_numpy(zero_copy_only=False)
        t = batch.filter(pa.array(cn == sn))
        return pa.table({
            "n_nationkey": t.column("s_nationkey").cast(pa.int64()),
            "rev": t.column("rev"),
        })

    agg = hash_aggregate(
        j.map_batches(local_only, batch_format="pyarrow"),
        keys=["n_nationkey"],
        aggs={"revenue": ("rev", "sum"), "n_lines": ("rev", "count")},
    )
    out = broadcast_join(agg, nation, on="n_nationkey", how="inner")
    return out.map_batches(
        lambda b: b.select(["n_name", "revenue", "n_lines"]),
        batch_format="pyarrow")


def q_weekly_revenue_delta(sf_dir: str):
    """Week-over-week revenue report: per epoch week the exact cents
    total + order count + the signed delta vs the PREVIOUS PRESENT
    week (first week's delta = 0 by contract).  Per-batch week
    partials are the only shuffle; the bounded week series resolves
    with one diff pass.  lag() SQL mirror."""
    from equi7grid_ray.stages.aggregate import hash_aggregate

    ds = _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])
    wk_us = 7 * 86400 * 1_000_000

    def prep(batch: pa.Table) -> pa.Table:
        d = batch.column("o_orderdate").to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").view(np.int64)
        cents = np.rint(batch.column("o_totalprice")
                        .to_numpy(zero_copy_only=False) * 100.0) \
            .astype(np.int64)
        t = pa.table({
            "week": pa.array(d // wk_us, pa.int64()),
            "cents": pa.array(cents, pa.int64()),
        })
        g = t.group_by("week").aggregate([("cents", "sum"),
                                          ([], "count_all")])
        return pa.table({"week": g.column("week"),
                         "cents": g.column("cents_sum"),
                         "n_orders": g.column("count_all")})

    wkly = hash_aggregate(
        ds.map_batches(prep, batch_format="pyarrow"),
        keys=["week"],
        aggs={"cents": ("cents", "sum"), "n_orders": ("n_orders", "sum")},
    )

    def delta(batch: pa.Table) -> pa.Table:
        import pandas as pd

        g = batch.to_pandas().sort_values("week").reset_index(drop=True)
        d = g["cents"].diff().fillna(0).astype(np.int64)
        return pa.table({
            "week": pa.array(g["week"].to_numpy(np.int64), pa.int64()),
            "cents": pa.array(g["cents"].to_numpy(np.int64), pa.int64()),
            "n_orders": pa.array(g["n_orders"].to_numpy(np.int64),
                                 pa.int64()),
            "delta": pa.array(d.to_numpy(), pa.int64()),
        })

    return wkly.repartition(1).map_batches(
        delta, batch_format="pyarrow", batch_size=None)


def q_customer_rfm(sf_dir: str):
    """RFM customer segmentation with EXACT quartile boundaries: per
    customer recency (last order week) / frequency (orders) / monetary
    (cents), each coded 1-4 by the corpus quantile_disc quartiles
    (code = 1 + #thresholds strictly exceeded -- ties share a code,
    unlike ntile), then the 4x4x4 segment census.  One keyed aggregate
    builds the per-customer table; the exact-histogram quantile
    operator supplies thresholds; codes assign in one broadcast map."""
    from equi7grid_ray.arrowutil import collect_tables
    from equi7grid_ray.stages.aggregate import hash_aggregate
    from equi7grid_ray.stages.quantiles import grouped_quantiles

    ds = _read(sf_dir, "orders", ["o_custkey", "o_orderdate",
                                  "o_totalprice"])
    wk_us = 7 * 86400 * 1_000_000

    def prep(batch: pa.Table) -> pa.Table:
        d = batch.column("o_orderdate").to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").view(np.int64)
        cents = np.rint(batch.column("o_totalprice")
                        .to_numpy(zero_copy_only=False) * 100.0) \
            .astype(np.int64)
        return pa.table({
            "c": batch.column("o_custkey").cast(pa.int64()),
            "wk": pa.array(d // wk_us, pa.int64()),
            "cents": pa.array(cents, pa.int64()),
        })

    cust = hash_aggregate(
        ds.map_batches(prep, batch_format="pyarrow"),
        keys=["c"],
        aggs={"r": ("wk", "max"), "f": ("wk", "count"),
              "m": ("cents", "sum")},
    ).materialize()  # bounded: one row per customer; reused 4x below

    thr = {}
    for col in ("r", "f", "m"):
        t = collect_tables(
            grouped_quantiles(cust, col=col, qs=(0.25, 0.5, 0.75)))
        thr[col] = np.sort(t.column("v").to_numpy().astype(np.int64))

    def code(batch: pa.Table) -> pa.Table:
        out = {}
        for col in ("r", "f", "m"):
            v = batch.column(col).to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            q = thr[col]
            out[f"{col}_code"] = pa.array(
                1 + (v > q[0]).astype(np.int64) + (v > q[1]) + (v > q[2]),
                pa.int64())
        return pa.table(out)

    return hash_aggregate(
        cust.map_batches(code, batch_format="pyarrow"),
        keys=["r_code", "f_code", "m_code"],
        aggs={"n_customers": ("r_code", "count")},
        n_partitions=4,
    )


def q_user_skew_report(sf_dir: str):
    """Shuffle-skew diagnostic over the event stream's user_id key:
    distinct keys, heaviest key (ties -> smallest) + its count and
    per-mille share, and disc-quantiles of the group-size
    distribution -- the decision inputs for hash vs salt vs broadcast.
    One combiner-first keyed count; group sizes ride the exact
    histogram quantile operator."""
    from equi7grid_ray.stages.profile import key_skew_report

    ds = _read(sf_dir, "events", ["user_id"])
    return key_skew_report(ds, key="user_id")


def q_graph_assortativity(sf_dir: str):
    """Degree assortativity of the near-dup candidate graph in exact
    cleared integers (cov_num / var_num of the directed-edge degree
    variates): do high-degree docs pair with high-degree docs?  Edges
    dedupe through one keyed count; degrees broadcast over the bounded
    endpoint set; partials fold to one row."""
    from equi7grid_ray.stages.dedup import lsh_candidate_pairs
    from equi7grid_ray.stages.graph import degree_assortativity

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return degree_assortativity(lsh_candidate_pairs(ds))


def q_split_leakage(sf_dir: str):
    """Train/val/test leakage audit: LSH near-dup pairs bucketed by
    the (split_a, split_b) labels their members draw from the
    deterministic assign_splits ladder -- off-diagonal rows are
    eval-set contamination the split step must repair.  Labels are a
    pure function of the id hash, so pairs label themselves in one
    vectorized map (no join); one keyed count folds the bounded 3x3
    matrix."""
    from equi7grid_ray.stages.aggregate import hash_aggregate
    from equi7grid_ray.stages.dedup import _mix64, lsh_candidate_pairs
    from equi7grid_ray.stages.sample import SAMPLE_SALT, rate_to_threshold

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    pairs = lsh_candidate_pairs(ds)
    bounds = np.array([rate_to_threshold(0.8),
                       rate_to_threshold(0.9)], np.uint64)
    names = np.array(["train", "val", "test"])

    def label(ids: np.ndarray) -> np.ndarray:
        h = _mix64(ids.astype(np.int64).view(np.uint64) ^ SAMPLE_SALT)
        u = h.view(np.uint64) % np.uint64(1 << 32)
        return names[np.searchsorted(bounds, u, side="right")]

    def fn(batch: pa.Table) -> pa.Table:
        a = batch.column("id_a").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        b = batch.column("id_b").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        return pa.table({
            "split_a": pa.array(label(a), pa.string()),
            "split_b": pa.array(label(b), pa.string()),
        })

    return hash_aggregate(
        pairs.map_batches(fn, batch_format="pyarrow"),
        keys=["split_a", "split_b"],
        aggs={"n_pairs": ("split_a", "count")},
        n_partitions=4,
    )


def q_event_type_correlation(sf_dir: str):
    """Exact cross-correlation of event-type rate series: hourly
    counts per type over the global dense hour range (missing hours =
    0), then per type pair the EXACT integer Pearson numerators --
    cov_num = H*Sxy - Sx*Sy and the two variance numerators (division
    and sqrt left cleared, so sign and cross-pair comparisons stay
    exact).  One keyed count is the only shuffle; the bounded
    (type, hour) table resolves pairwise with one matmul on a single
    partition."""
    from equi7grid_ray.stages.aggregate import hash_aggregate

    ds = _read(sf_dir, "events", ["ts", "event_type"])

    def partial(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts").to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").view(np.int64)
        t = pa.table({
            "event_type": batch.column("event_type"),
            "hr": pa.array(ts // 3_600_000_000, pa.int64()),
        }).group_by(["event_type", "hr"]).aggregate([([], "count_all")])
        return pa.table({"event_type": t.column("event_type"),
                         "hr": t.column("hr"),
                         "n": t.column("count_all")})

    hc = hash_aggregate(
        ds.map_batches(partial, batch_format="pyarrow"),
        keys=["event_type", "hr"], aggs={"n": ("n", "sum")},
    )

    def pairs(batch: pa.Table) -> pa.Table:
        import pandas as pd

        types = np.asarray(batch.column("event_type").to_pylist())
        hr = batch.column("hr").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        n = batch.column("n").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        ut = np.unique(types)
        h0, h1 = int(hr.min()), int(hr.max())
        H = h1 - h0 + 1
        X = np.zeros((len(ut), H), np.int64)
        ti = np.searchsorted(ut, types)
        X[ti, hr - h0] = n
        S = X.sum(axis=1)
        G = X @ X.T  # Sxy for every pair (and Sxx on the diagonal)
        rows = []
        for a in range(len(ut)):
            for b in range(a + 1, len(ut)):
                rows.append((
                    str(ut[a]), str(ut[b]),
                    int(H * G[a, b] - S[a] * S[b]),
                    int(H * G[a, a] - S[a] * S[a]),
                    int(H * G[b, b] - S[b] * S[b]),
                    H,
                ))
        return pa.Table.from_pandas(pd.DataFrame(rows, columns=[
            "type_a", "type_b", "cov_num", "varx_num", "vary_num",
            "n_hours"]), preserve_index=False)

    return hc.repartition(1).map_batches(
        pairs, batch_format="pyarrow", batch_size=None)


def q_dedup_report(sf_dir: str):
    """End-to-end dedup survival report per source: doc counts,
    exact-text extras, near-dup extras (LSH components), survivors --
    the snapshot-quality summary a curation pipeline publishes.  Exact
    flags ride one (hash, id, source) cogroup; near flags probe the
    broadcast component table; per-source partials fold in one keyed
    aggregate."""
    from equi7grid_ray.stages.aggregate import cogroup, hash_aggregate
    from equi7grid_ray.stages.dedup import (_column_bytes,
                                            hash_bytes_offsets,
                                            lsh_candidate_pairs)
    from equi7grid_ray.stages.graph import connected_components

    import ray

    ds = _read(sf_dir, "documents", ["doc_id", "text", "source"])
    comp_t = connected_components(lsh_candidate_pairs(ds))

    from equi7grid_ray.arrowutil import collect_tables

    comp = collect_tables(comp_t, schema=pa.schema(
        [("node", pa.int64()), ("component", pa.int64())]))
    nodes = comp.column("node").to_numpy().astype(np.int64)
    lbls = comp.column("component").to_numpy().astype(np.int64)
    order = np.argsort(nodes, kind="stable")
    ref = ray.put((nodes[order], lbls[order]))

    def near_partials(batch: pa.Table) -> pa.Table:
        snodes, slbls = ray.get(ref)
        ids = batch.column("doc_id").to_numpy().astype(np.int64)
        if len(snodes):
            pos = np.minimum(np.searchsorted(snodes, ids),
                             len(snodes) - 1)
            hit = snodes[pos] == ids
            canon = np.where(hit, slbls[pos], ids)
        else:
            canon = ids
        d = pd.DataFrame({
            "source": batch.column("source").to_pylist(),
            "n_docs": 1,
            "n_near_extra": (canon != ids).astype(np.int64),
        })
        c = d.groupby("source", as_index=False).sum()
        c["n_exact_extra"] = 0
        return pa.Table.from_pandas(c, preserve_index=False)

    def hash_rows(batch: pa.Table) -> pa.Table:
        flat, offs = _column_bytes(batch.column("text"))
        return pa.table({
            "h": pa.array(hash_bytes_offsets(flat, offs), pa.int64()),
            "doc_id": batch.column("doc_id").cast(pa.int64()),
            "source": batch.column("source"),
        })

    def exact_partials(g: pd.DataFrame) -> pd.DataFrame:
        extra = g["doc_id"] != g.groupby("h")["doc_id"].transform("min")
        d = pd.DataFrame({"source": g["source"],
                          "n_exact_extra": extra.astype(np.int64)})
        c = d.groupby("source", as_index=False).sum()
        c["n_docs"] = 0
        c["n_near_extra"] = 0
        return c[["source", "n_docs", "n_near_extra", "n_exact_extra"]]

    near = ds.map_batches(near_partials, batch_format="pyarrow") \
        .select_columns(["source", "n_docs", "n_near_extra",
                         "n_exact_extra"])
    exact = cogroup(ds.map_batches(hash_rows, batch_format="pyarrow"), ["h"],
                    exact_partials, n_partitions=32)
    agg = hash_aggregate(
        near.union(exact), keys=["source"],
        aggs={"n_docs": ("n_docs", "sum"),
              "n_exact_extra": ("n_exact_extra", "sum"),
              "n_near_extra": ("n_near_extra", "sum")},
        n_partitions=4)

    def close(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "n_kept", pc.subtract(batch.column("n_docs"),
                                  batch.column("n_near_extra")))

    return agg.map_batches(close, batch_format="pyarrow")


def q_doc_repetition(sf_dir: str):
    """Gopher-style repetition signals per doc (token / adjacent-bigram
    multiplicities), all-integer for a hash-exact oracle."""
    from equi7grid_ray.stages.text import repetition_stats

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(repetition_stats, batch_format="pyarrow")


def q_chunk_dedup_docs(sf_dir: str):
    """Sub-document dedup at 16-token-chunk granularity (the C4-style
    line-dedup mechanic): explode -> first-occurrence -> per-doc
    retention counts.  Metadata-only shuffle; combiner-first."""
    from equi7grid_ray.stages.dedup import chunk_dedup

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return chunk_dedup(ds, tokens_per_chunk=16)


def q_simhash_docs(sf_dir: str):
    """64-bit SimHash fingerprints for every document."""
    from equi7grid_ray.stages.dedup import simhash64

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(simhash64, batch_format="pyarrow")


def q_langid_docs(sf_dir: str):
    """n-gram language id vs the labelled lang column (accuracy rollup)."""
    from ray.data.aggregate import Count

    from equi7grid_ray.stages.text import LangId

    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang"])
    pred = ds.map_batches(LangId, batch_format="pyarrow", concurrency=(1, 2))
    return pred.groupby(["lang", "lang_pred"]).aggregate(Count(alias_name="n"))


def q_norm_dedup_docs(sf_dir: str):
    """Near-exact dedup after text normalization (lowercase + strip
    non-alphanumerics): keep min doc_id per normalized form.  SQL-oracled
    (regexp_replace(lower(text)))."""
    from equi7grid_ray.stages.dedup import exact_dedup

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def normalize(batch: pa.Table) -> pa.Table:
        norm = pc.replace_substring_regex(
            pc.utf8_lower(batch.column("text")), "[^a-z0-9 ]", ""
        )
        return pa.table({"doc_id": batch.column("doc_id"), "norm": norm})

    normed = ds.map_batches(normalize, batch_format="pyarrow")
    return exact_dedup(normed, key="norm", id_col="doc_id").select_columns(["doc_id"])


def q_token_topk(sf_dir: str):
    """Global top-20 tokens by frequency: per-batch partial counts over
    the exploded token column (combiner), small groupby, deterministic
    sort+limit.  SQL-oracled via unnest(string_split(...))."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", ["text"])

    def partial(batch: pa.Table) -> pa.Table:
        toks = pc.list_flatten(pc.split_pattern(batch.column("text"), " "))
        vc = pc.value_counts(toks)
        return pa.table({
            "token": vc.field("values").cast(pa.string()),
            "pn": vc.field("counts").cast(pa.int64()),
        })

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("token")
        .aggregate(Sum("pn", alias_name="n"))
    )
    return agg.sort(["n", "token"], descending=[True, False]).limit(20)


def q_supplier_revenue_topk(sf_dir: str):
    """Top-10 suppliers by lineitem revenue with the supplier name joined
    from the SMALL side via broadcast lookup (ray.put-free: the top-10 is
    tiny, the supplier table is read pruned to two columns) -- the
    broadcast-join-instead-of-shuffle-join pattern.  SQL-oracled."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "lineitem", ["l_suppkey", "l_extendedprice"])

    def partial(batch: pa.Table) -> pa.Table:
        sk = batch.column("l_suppkey").to_numpy(zero_copy_only=False).astype(np.int64)
        cents = np.rint(
            batch.column("l_extendedprice").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        order = np.argsort(sk, kind="stable")
        sks = sk[order]
        cuts = np.flatnonzero(np.concatenate([[True], sks[1:] != sks[:-1]]))
        sums = np.add.reduceat(cents[order], cuts)
        return pa.table({
            "l_suppkey": pa.array(sks[cuts], pa.int64()),
            "pc_": pa.array(sums, pa.int64()),
        })

    top = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("l_suppkey")
        .aggregate(Sum("pc_", alias_name="cents"))
        .sort(["cents", "l_suppkey"], descending=[True, False])
        .limit(10)
    )

    import pyarrow.parquet as pq

    names = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_name"]
    )
    lut = dict(zip(names.column("s_suppkey").to_pylist(),
                   names.column("s_name").to_pylist()))

    def attach(batch: pa.Table) -> pa.Table:
        keys = batch.column("l_suppkey").to_pylist()
        return pa.table({
            "s_name": pa.array([lut[k] for k in keys], pa.string()),
            "cents": batch.column("cents"),
        })

    return top.map_batches(attach, batch_format="pyarrow")


def q_token_len_hist(sf_dir: str):
    """Document-length histogram (token-count // 10 buckets) per lang --
    pure integer math, SQL-oracled."""
    from ray.data.aggregate import Count

    from equi7grid_ray.stages.text import token_stats

    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang", "source"])

    def bucket(batch: pa.Table) -> pa.Table:
        t = token_stats(batch)
        b = pc.divide(t.column("n_tokens"), 10)
        return pa.table({"lang": t.column("lang"),
                         "bucket": pc.cast(b, pa.int64())})

    return (
        ds.map_batches(bucket, batch_format="pyarrow")
        .groupby(["lang", "bucket"])
        .aggregate(Count(alias_name="n"))
    )


def q_segment_revenue_native(sf_dir: str):
    """Large⋈large equality join via Ray Data's BUILT-IN hash join
    (stages/join.native_join -> Dataset.join, actor-pool aggregators)
    -- the idiomatic native path, kept alongside the self-contained
    shuffle_hash_join.  customer ⋈ orders on custkey, rolled up per
    market segment.  SQL-oracled."""
    from ray.data.aggregate import Count, Sum

    from equi7grid_ray.stages.join import native_join

    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def prep(batch: pa.Table) -> pa.Table:
        cents = np.rint(
            batch.column("o_totalprice").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        return pa.table({
            "c_custkey": batch.column("o_custkey").cast(pa.int64()),
            "cents": pa.array(cents, pa.int64()),
        })

    o = orders.map_batches(prep, batch_format="pyarrow")
    j = native_join(cust, o, on="c_custkey", how="inner", n_partitions=16)
    return (
        j.groupby("c_mktsegment")
        .aggregate(
            Count(alias_name="n_orders"),
            Sum("cents", alias_name="sum_cents"),
        )
        .rename_columns({"c_mktsegment": "mktsegment"})
    )


def q_customers_no_events(sf_dir: str):
    """Broadcast ANTI-join (stages/join.broadcast_join how='anti'): the
    blocklist filter pattern -- customers who never appear in the event
    stream, counted per nation.  The key set (distinct event user_ids)
    broadcasts once; the probe is a pure vectorized filter, zero
    shuffle.  SQL-oracled via NOT IN."""
    import pyarrow.parquet as pq
    from ray.data.aggregate import Count

    from equi7grid_ray.stages.join import broadcast_join

    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    ukeys = pa.table({
        "c_custkey": pc.unique(
            pq.read_table(f"{sf_dir}/events.parquet",
                          columns=["user_id"]).column("user_id")
        ).cast(pa.int64())
    })
    anti = broadcast_join(cust, ukeys, on="c_custkey", how="anti")
    return (
        anti.groupby("c_nationkey")
        .aggregate(Count(alias_name="n"))
        .rename_columns({"c_nationkey": "nationkey"})
    )


def q_orders_by_nation(sf_dir: str):
    """Two-hop dimension join: orders -> customer -> nation via the
    broadcast-join operator (small sides ray.put once, probed per batch;
    zero shuffle), then a keyed aggregate.  SQL-oracled."""
    from ray.data.aggregate import Count, Sum

    from equi7grid_ray.stages.join import broadcast_join

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def prep(batch: pa.Table) -> pa.Table:
        cents = np.rint(
            batch.column("o_totalprice").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        return pa.table({
            "c_custkey": batch.column("o_custkey").cast(pa.int64()),
            "cents": pa.array(cents, pa.int64()),
        })

    o = orders.map_batches(prep, batch_format="pyarrow")
    import pyarrow.parquet as pq

    cust = pq.read_table(f"{sf_dir}/customer.parquet",
                         columns=["c_custkey", "c_nationkey"])
    nation = pq.read_table(f"{sf_dir}/nation.parquet",
                           columns=["n_nationkey", "n_name"])
    j1 = broadcast_join(o, cust, on="c_custkey", how="inner")

    def renk(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(
            ["n_nationkey" if c == "c_nationkey" else c
             for c in batch.column_names]
        )

    j2 = broadcast_join(j1.map_batches(renk, batch_format="pyarrow"),
                        nation, on="n_nationkey", how="inner")
    return (
        j2.groupby("n_name")
        .aggregate(Count(alias_name="n_orders"), Sum("cents", alias_name="sum_cents"))
    )


def q_events_sessionize(sf_dir: str):
    """Sessionization (30-min inactivity gap) per user via the
    stages/windows.py sessionize operator."""
    from equi7grid_ray.stages.windows import sessionize

    ds = _read(sf_dir, "events", ["user_id", "ts"])
    return sessionize(ds, user_col="user_id", ts_col="ts", gap_s=1800)


def q_allowed_samplings(sf_dir: str):
    """allowed_samplings(600 km) as a table (SURVEY 2.1; core.py:651-665)."""
    from equi7grid_ray.grid import allowed_samplings

    return pa.table(
        {"sampling": pa.array([int(s) for s in allowed_samplings(600_000)], pa.int64())}
    )


def q_knn_tiles(sf_dir: str):
    """kNN nearest-tile (k=3) per derived projected point over the
    regular tile grid: 3x3-neighborhood candidates ranked by
    (d2, tx, ty) -- integer-exact, mirrored by the DuckDB oracle.
    Returns per-(rank, tile) counts.  The continental-zone KD-tree
    variant runs as knn_tiles_geodesic (lookup-oracled)."""
    from equi7grid_ray.stages.aggregate import hash_aggregate
    from equi7grid_ray.stages.similarity import GridKNNTiles

    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_suppkey"])

    def prep(batch: pa.Table) -> pa.Table:
        x, y = _derive_xy(batch)
        return pa.table({
            "image_id": pc.cast(batch.column("l_orderkey"), pa.string()),
            "x": pa.array(x, pa.int64()),
            "y": pa.array(y, pa.int64()),
        })

    # plain task pool: GridKNNTiles' init is trivial (no index build),
    # so an actor pool only adds spawn/ramp-up latency
    nn = ds.map_batches(prep, batch_format="pyarrow").map_batches(
        GridKNNTiles(k=3), batch_format="pyarrow",
    )

    def combine(batch: pa.Table) -> pa.Table:
        # batch-local combiner: the shuffle moves ~|tiles x k| partials
        # per task instead of 3 rank rows per input point (was the
        # dominant cost: 1.8M-row add_part + Sort)
        t = pa.table({"rank": batch.column("rank"),
                      "tile": batch.column("tile")}) \
            .group_by(["rank", "tile"]).aggregate([([], "count_all")])
        return pa.table({"rank": t.column("rank"),
                         "tile": t.column("tile"),
                         "c": t.column("count_all")})

    return hash_aggregate(nn.map_batches(combine, batch_format="pyarrow"),
                          keys=["rank", "tile"], aggs={"n": ("c", "sum")},
                          n_partitions=8)


def q_knn_tiles_geodesic(sf_dir: str):
    """kNN nearest-tile (k=3) per projected point via per-continent
    KD-tree over tile centroids; returns rank histogram per continent."""
    from ray.data.aggregate import Count

    from equi7grid_ray.stages.similarity import knn_tiles
    from equi7grid_ray.stages.tile_assign import TileAssigner

    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])

    def prep(batch: pa.Table) -> pa.Table:
        batch = _sweep_subset(batch)
        lon_u, lat_u = _derive_udeg(batch)
        return pa.table({
            "image_id": pc.cast(batch.column("l_orderkey"), pa.string()),
            "lon_udeg": pa.array(lon_u, pa.int64()),
            "lat_udeg": pa.array(lat_u, pa.int64()),
        })

    # exact_projection: at ~20k rows the Karney solve (~60 ms) is far
    # cheaper than building interp grids in each fresh actor (~3 s)
    assigned = ds.map_batches(prep, batch_format="pyarrow").map_batches(
        TileAssigner,
        fn_constructor_kwargs=dict(emit_cell=False, exact_projection=True),
        batch_format="pyarrow", concurrency=(1, 2), num_cpus=1,
    )

    def norm(batch: pa.Table) -> pa.Table:  # undo dictionary encoding for knn stage
        return pa.table({
            "image_id": batch.column("image_id"),
            "continent": batch.column("continent").cast(pa.string()),
            "x": batch.column("x"),
            "y": batch.column("y"),
        })

    nn = assigned.map_batches(norm, batch_format="pyarrow").map_batches(
        knn_tiles, fn_constructor_kwargs=dict(k=3),
        batch_format="pyarrow", concurrency=(1, 2), num_cpus=1,
    )
    return nn.groupby("rank").aggregate(Count(alias_name="n"))


def _int16_scenes(prefix: str, n: int, **cols) -> pa.Table:
    """The regrid family's scene set: ``n`` raw int16 64 x 64 rasters
    whose pixel (r, c) of image i is (131 r + 17 c + 7 i) mod 5003 - 2500,
    ids ``{prefix}{i:09d}``; ``cols`` adds per-row columns (centres,
    scale/offset, captions)."""
    w = h = 64
    r = np.arange(h, dtype=np.int64)[:, None]
    c = np.arange(w, dtype=np.int64)[None, :]
    payloads = [((r * 131 + c * 17 + i * 7) % 5003 - 2500).astype(np.int16).tobytes()
                for i in range(n)]
    return pa.table({
        "image_id": pa.array([f"{prefix}{i:09d}" for i in range(n)], pa.string()),
        "bytes": pa.array(payloads, pa.binary()),
        "w": pa.array(np.full(n, w, np.int32)),
        "h": pa.array(np.full(n, h, np.int32)),
        "fmt": pa.array(["raw"] * n, pa.string()),
        "dtype": pa.array(["int16"] * n, pa.string()),
        **{k: pa.array(v) for k, v in cols.items()},
    })


def _tile_window_sums(out, dtype=np.int16, nodata=-9999):
    """Per tile of a regrid output: window count and pixel sum, plus the
    valid-pixel count when ``nodata`` is given (nodata pixels excluded)."""
    from ray.data.aggregate import Count, Sum

    def summarize(batch: pa.Table) -> pa.Table:
        from equi7grid_ray.arrowutil import payload_sums

        sums, nval = payload_sums(batch.column("pixels"), dtype, nodata=nodata)
        cols = {"tile": batch.column("tile"), "px_sum": pa.array(sums, pa.int64())}
        if nodata is not None:
            cols["n_valid"] = pa.array(nval, pa.int64())
        return pa.table(cols)

    aggs = [Count(alias_name="n_windows"), Sum("px_sum", alias_name="px_sum")]
    if nodata is not None:
        aggs.append(Sum("n_valid", alias_name="n_valid"))
    return out.map_batches(summarize, batch_format="pyarrow").groupby("tile").aggregate(*aggs)


def q_regrid_sample(sf_dir: str):
    """Regrid 400 synthetic image rows into their tiles; returns per-tile
    window counts + resampled-pixel checksum (raster->vector stage)."""
    from equi7grid_ray.stages.regrid import regrid_pipeline

    return _tile_window_sums(regrid_pipeline(_images(400), concurrency=(1, 2)),
                             np.uint8, nodata=None)


def q_regrid_int16(sf_dir: str):
    """Non-uint8 regrid variant (round-1 verdict task 3): deterministic
    int16 raw rasters with nodata=-9999 and scale/offset metadata,
    regridded into their tiles; per-tile window counts + valid-pixel
    checksum.  Pins the band-dtype generality of the reference's
    resample_tile (warp.py:290-330, int16 fixtures test_warp.py:52,92)."""
    import ray.data as rd

    from equi7grid_ray.sources.images import centers_for_index
    from equi7grid_ray.stages.regrid import regrid_pipeline

    n = 200
    lon, lat = centers_for_index(np.arange(n, dtype=np.int64))
    t = _int16_scenes("i16", n, scale=np.full(n, 0.01), offset=np.zeros(n),
                      lon=lon, lat=lat,
                      caption=[f"int16 scene {i}" for i in range(n)])
    return _tile_window_sums(regrid_pipeline(rd.from_arrow(t), nodata=-9999,
                                             concurrency=(1, 2)))


def q_gtiff_roundtrip(sf_dir: str):
    """GeoTIFF container gate (reference warp.py:290-330 sink,
    approval-test role of /root/reference/tests/test_warp.py:127-231):
    deterministic int16 rasters are regridded to T6@1000m tiles, encoded
    as full-tile deflate GeoTIFFs by the distributed GTiffEncodeStage,
    then RE-DECODED from the container bytes (gtiff.decode_gtiff -- an
    independent parser path); per tile the file count, valid-pixel count,
    pixel checksum and geo-metadata invariants (geotransform derived
    from the tile name, continental EPSG code, nodata tag) are computed
    from the DECODED arrays.  Oracled via the pinned gtiff_roundtrip_pin
    lookup golden (tools/gen_oracle_lookups.py)."""
    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    from equi7grid_ray.grid import GridSpec
    from equi7grid_ray.sources.images import centers_for_index
    from equi7grid_ray.stages.regrid import GTiffEncodeStage, regrid_pipeline

    spec = GridSpec.standard({"T6": 1000})
    lon, lat = centers_for_index(np.arange(150, dtype=np.int64))
    t = _int16_scenes("gt", 150, lon=lon, lat=lat)
    out = regrid_pipeline(rd.from_arrow(t), spec=spec, nodata=-9999,
                          concurrency=(1, 2))
    tifs = out.map_batches(
        GTiffEncodeStage,
        fn_constructor_kwargs=dict(spec=spec, compress="deflate"),
        batch_format="pyarrow", concurrency=(1, 2), num_cpus=1,
    )

    def reread(batch: pa.Table) -> pa.Table:
        from equi7grid_ray.constants import CONTINENTS
        from equi7grid_ray.grid import parse_tile_names, tile_geotrans
        from equi7grid_ray.gtiff import decode_gtiff

        tiles = batch.column("tile").cast(pa.string()).to_pylist()
        parsed = parse_tile_names(tiles, spec)
        nv, ps, geo = [], [], []
        for j in range(batch.num_rows):
            g = decode_gtiff(batch.column("data")[j].as_py())
            a = g.array
            valid = a != -9999
            nv.append(int(valid.sum()))
            ps.append(int(a[valid].astype(np.int64).sum()))
            want_gt = tile_geotrans(float(parsed["ll_x"][j]),
                                    float(parsed["ll_y"][j]),
                                    600_000.0, 1000.0)
            ok = (g.geotrans == want_gt and g.nodata == -9999
                  and g.crs_epsg == CONTINENTS[tiles[j][:2]].epsg
                  and a.shape == (600, 600) and a.dtype == np.int16)
            geo.append(int(ok))
        return pa.table({
            "tile": batch.column("tile").cast(pa.string()),
            "n_valid": pa.array(nv, pa.int64()),
            "px_sum": pa.array(ps, pa.int64()),
            "n_geo_ok": pa.array(geo, pa.int64()),
        })

    return (
        tifs.map_batches(reread, batch_format="pyarrow")
        .groupby("tile")
        .aggregate(Count(alias_name="n_files"),
                   Sum("n_valid", alias_name="n_valid"),
                   Sum("px_sum", alias_name="px_sum"),
                   Sum("n_geo_ok", alias_name="n_geo_ok"))
    )


def q_jpeg_blocks(sf_dir: str):
    """Baseline-JPEG codec gate with a CLOSED-FORM SQL oracle: each
    image is a 16x16 grid of four CONSTANT 8x8 blocks, so the whole
    encode->decode path (FDCT -> quantize -> Huffman -> dequantize ->
    IDCT) reduces exactly to the DC formula v = clip(rint(rint(8*(c-128)
    / q00) * q00 / 8 + 128)) with q00 = 5 (Annex-K luma table at
    libjpeg quality 85) -- DuckDB mirrors it with roundbankers (numpy
    rint is ties-to-even).  The engine REALLY encodes and decodes the
    bitstream (jpeg.py) in a distributed map_batches; any entropy-layer
    slip breaks the integer equality.  One row per image: decoded pixel
    sum + a bitstream sanity bit (SOI/EOI markers + header parse)."""
    import ray.data as rd

    n_img = 300
    ds = rd.range(n_img, override_num_blocks=4)

    def stage(batch: "pd.DataFrame") -> pa.Table:
        from equi7grid_ray.jpeg import (
            decode_jpeg,
            encode_jpeg_baseline,
            jpeg_info,
        )

        ids = batch["id"].to_numpy(np.int64)
        sums, ok = [], []
        for i in ids:
            cs = [(int(i) * 37 + 53 * b) % 256 for b in range(4)]
            img = np.empty((16, 16), np.uint8)
            img[:8, :8] = cs[0]
            img[:8, 8:] = cs[1]
            img[8:, :8] = cs[2]
            img[8:, 8:] = cs[3]
            buf = encode_jpeg_baseline(img, quality=85)
            info = jpeg_info(buf)
            d = decode_jpeg(buf)
            sums.append(int(d.astype(np.int64).sum()))
            ok.append(int(buf[:2] == b"\xff\xd8" and buf[-2:] == b"\xff\xd9"
                          and info["width"] == 16 and info["height"] == 16
                          and d.shape == (16, 16)))
        return pa.table({
            "img": pa.array(ids, pa.int64()),
            "px_sum": pa.array(sums, pa.int64()),
            "stream_ok": pa.array(ok, pa.int64()),
        })

    return ds.map_batches(stage, batch_format="pandas")


def q_jpeg_header_census(sf_dir: str):
    """Metadata-only JPEG triage (the crawl-filter pattern: route/drop
    images on header facts WITHOUT entropy decode): deterministic
    images are REALLY encoded (gray/RGB x 444/420 mixes, sizes from the
    index), then a map_batches stage reads ONLY the SOF0 header via
    jpeg_info; per (components, h_sampling) group: count + total pixel
    area.  The SQL oracle rederives the grouping closed-form from the
    index -- hash-exact over the real encoder+header-parser pair."""
    import ray.data as rd

    n_img = 240
    ds = rd.range(n_img, override_num_blocks=4)

    def stage(batch: "pd.DataFrame") -> pa.Table:
        from equi7grid_ray.jpeg import encode_jpeg_baseline, jpeg_info

        ids = batch["id"].to_numpy(np.int64)
        comp, samp, area = [], [], []
        for i in ids:
            w = 16 + 8 * (int(i) % 5)
            h = 16 + 8 * ((int(i) // 5) % 4)
            gray = int(i) % 3 == 0
            sub = "420" if (not gray and int(i) % 2 == 0) else "444"
            if gray:
                img = np.full((h, w), (int(i) * 37) % 256, np.uint8)
            else:
                img = np.full((h, w, 3), (int(i) * 37) % 256, np.uint8)
            buf = encode_jpeg_baseline(img, quality=80, subsampling=sub)
            info = jpeg_info(buf)
            assert (info["width"], info["height"]) == (w, h)
            comp.append(info["components"])
            samp.append(info["sampling"][0][0])
            area.append(info["width"] * info["height"])
        return pa.table({
            "components": pa.array(comp, pa.int64()),
            "h_sampling": pa.array(samp, pa.int64()),
            "area": pa.array(area, pa.int64()),
        })

    from ray.data.aggregate import Count, Sum

    return (ds.map_batches(stage, batch_format="pandas")
            .groupby(["components", "h_sampling"])
            .aggregate(Count(alias_name="n"), Sum("area", alias_name="px_area")))


def q_regrid_cubic(sf_dir: str):
    """Cubic (Keys a=-0.5, the rasterio/GDAL Resampling.cubic kernel
    passed through at reference warp.py:313) regrid of the int16
    fixture set -- same sweep as regrid_int16 but a 4x4 interpolating
    gather with overshoot clipping; per-tile window counts +
    valid-pixel checksum.  Oracled via the pinned regrid_cubic_pin
    approval golden."""
    import ray.data as rd

    from equi7grid_ray.sources.images import centers_for_index
    from equi7grid_ray.stages.regrid import regrid_pipeline

    lon, lat = centers_for_index(np.arange(200, dtype=np.int64))
    t = _int16_scenes("cub", 200, lon=lon, lat=lat)
    return _tile_window_sums(regrid_pipeline(rd.from_arrow(t), resampling="cubic",
                                             nodata=-9999, concurrency=(1, 2)))


def q_regrid_equi7(sf_dir: str):
    """Equi7->Equi7 regrid (source raster already in the target
    continental plane, north-up at 1000 m/px; resampled to the 500 m T6
    tile grid): pure affine nearest gather -- no geodesic work -- so the
    DuckDB oracle rederives window math, gather indices and the int16
    pixel pattern exactly.  Exercises RegridStage's src_crs='equi7' path
    (grid-to-grid resampling, reference warp.py:205-330 semantics with
    an Equi7 input grid)."""
    import ray.data as rd

    from equi7grid_ray.stages.regrid import RegridStage

    n_img, w, res = 200, 64, 1000.0
    half = w * res / 2.0
    idx = np.arange(n_img, dtype=np.int64)
    # quarter-pixel offset keeps every gather coordinate off the .5
    # rounding boundary (exact dyadic fractions in both numpy and SQL)
    cx = ((idx * _XMUL) % _XMOD).astype(np.float64) + 125.0
    cy = ((idx * _YMUL) % _YMOD).astype(np.float64) + 125.0
    t = _int16_scenes("e7", n_img, cx=cx, cy=cy)

    def expand(batch: pa.Table) -> pa.Table:
        from equi7grid_ray.grid import partial_names

        S = 600_000
        bcx = batch.column("cx").to_numpy()
        bcy = batch.column("cy").to_numpy()
        x0 = np.maximum(bcx - half, 0.0)
        x1 = np.minimum(bcx + half, float(_XMOD - 1))
        y0 = np.maximum(bcy - half, 0.0)
        y1 = np.minimum(bcy + half, float(_YMOD - 1))
        tx0 = np.floor(x0 / S).astype(np.int64)
        tx1 = np.floor(x1 / S).astype(np.int64)
        ty0 = np.floor(y0 / S).astype(np.int64)
        ty1 = np.floor(y1 / S).astype(np.int64)
        nx, ny = tx1 - tx0 + 1, ty1 - ty0 + 1
        cnt = nx * ny
        total = int(cnt.sum())
        rows = np.repeat(np.arange(len(bcx), dtype=np.int64), cnt)
        off = np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        ny_r = np.repeat(ny, cnt)
        tx = np.repeat(tx0, cnt) + off // ny_r
        ty = np.repeat(ty0, cnt) + off % ny_r
        names = partial_names((tx * S).astype(np.float64),
                              (ty * S).astype(np.float64), "T6")
        take = pa.array(rows)
        cols = {
            "image_id": batch.column("image_id").take(take),
            "continent": pa.array(np.full(total, "GR", "U2")),
            "tile": pa.array([f"GR_{nm}" for nm in names], pa.string()),
            "ll_x": pa.array((tx * S).astype(np.float64)),
            "ll_y": pa.array((ty * S).astype(np.float64)),
        }
        for name in ("bytes", "w", "h", "fmt", "dtype", "cx", "cy"):
            cols[name] = batch.column(name).take(take)
        return pa.table(cols)

    pairs = rd.from_arrow(t).map_batches(expand, batch_format="pyarrow")
    out = pairs.map_batches(
        RegridStage,
        fn_constructor_kwargs=dict(src_crs="equi7", src_res=res, nodata=-9999),
        batch_format="pyarrow", concurrency=(1, 2), num_cpus=1,
    )
    return _tile_window_sums(out)


def q_ann_lsh_buckets(sf_dir: str):
    """Hyperplane-LSH bucketing of the embedding column (ANN scale path):
    bucket -> member count."""
    import pyarrow.parquet as pq
    from ray.data.aggregate import Count

    from equi7grid_ray.stages.similarity import HyperplaneLSH

    dim = _embedding_probe(sf_dir)
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    b = ds.map_batches(
        HyperplaneLSH, fn_constructor_kwargs=dict(dim=dim, n_planes=8),
        batch_format="pyarrow", concurrency=(1, 2), num_cpus=1,
    )
    return b.groupby("bucket").aggregate(Count(alias_name="n"))


def q_distortion_stats(sf_dir: str):
    """Length distortion k over the coordinate sweep, aggregated per
    continent (core.py:292-324/:416-452 math); oracled via the pinned
    sweep_assign lookup (tools/gen_oracle_lookups.py)."""
    from ray.data.aggregate import Count, Max

    from equi7grid_ray import aeqd
    from equi7grid_ray.stages.tile_assign import TileAssigner

    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])

    def prep(batch: pa.Table) -> pa.Table:
        batch = _sweep_subset(batch)
        lon_u, lat_u = _derive_udeg(batch)
        return pa.table({
            "image_id": pc.cast(batch.column("l_orderkey"), pa.string()),
            "lon_udeg": pa.array(lon_u, pa.int64()),
            "lat_udeg": pa.array(lat_u, pa.int64()),
        })

    # exact_projection: at ~20k rows the Karney solve (~60 ms) is far
    # cheaper than building interp grids in each fresh actor (~3 s)
    assigned = ds.map_batches(prep, batch_format="pyarrow").map_batches(
        TileAssigner,
        fn_constructor_kwargs=dict(emit_cell=False, exact_projection=True),
        batch_format="pyarrow", concurrency=(1, 2), num_cpus=1,
    )

    def kcalc(batch: pa.Table) -> pa.Table:
        from equi7grid_ray.arrowutil import continent_codes

        codes, cdict = continent_codes(batch.column("continent"))
        x = batch.column("x").to_numpy()
        y = batch.column("y").to_numpy()
        k = np.empty(len(x))
        for code in np.unique(codes):
            m = codes == code
            k[m] = aeqd.length_distortion_planar(cdict[int(code)], x[m], y[m])
        kb = np.clip((np.nan_to_num(k, nan=1.0) - 1.0) * 100, 0, 99).astype(np.int64)
        return pa.table({
            "continent": batch.column("continent").cast(pa.string()),
            "k_pct_bucket": pa.array(kb, pa.int64()),
        })

    return (
        assigned.map_batches(kcalc, batch_format="pyarrow")
        .groupby(["continent", "k_pct_bucket"])
        .aggregate(Count(alias_name="n"))
    )


def q_grid_tiles_export(sf_dir: str):
    """Full T6 tile inventory with WKT boundaries (export surface)."""
    from equi7grid_ray.export import tiles_table

    return tiles_table("T6")


def q_tile_erosion(sf_dir: str):
    """Zone interior-depth map: smallest Chebyshev ring at which a T6
    zone tile's neighborhood stops being all-zone (capped at 4) — how
    far from the projection boundary a stencil can run edge-free.
    Folded over the bounded zone inventory; conditional-count
    self-join mirror over the pinned tiles_t6 golden."""
    from equi7grid_ray.export import tiles_table
    from equi7grid_ray.stages.tilestats import tile_erosion_depth

    return tile_erosion_depth(tiles_table("T6"))


def q_pixel_index(sf_dir: str):
    """xy2rc pixel addressing (tile-local row/col at 500 m sampling,
    SURVEY 2.6) -- pure integer math, SQL-oracled."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_suppkey"])

    def stage(batch: pa.Table) -> pa.Table:
        x, y = _derive_xy(batch)
        llx = x // 600_000 * 600_000
        lly = y // 600_000 * 600_000
        # xy2rc convention: r = floor((ur_y - y)/s), clamped into the
        # tile -- a y exactly on a pixel boundary goes to the row BELOW,
        # matching grid.xy2rc and the reference golden
        # ((3166500, 5178000) -> row 444); advisor round-1 fix.
        r = np.minimum((lly + 600_000 - y) // 500, 1199)
        c = (x - llx) // 500
        # dense bincount over the bounded (tile x 4x4 block) domain --
        # 2400 keys -- instead of per-row name strings + string unique
        ny = -(-_YMOD // 600_000)
        nx = -(-_XMOD // 600_000)
        tid = (x // 600_000) * ny + (y // 600_000)
        key = tid * 16 + (r // 300) * 4 + (c // 300)
        counts = np.bincount(key, minlength=nx * ny * 16)
        nz = np.flatnonzero(counts)
        names = _grid_names("T6", 600_000)
        return pa.table({
            "tile": pa.array(names[nz // 16].tolist(), pa.string()),
            "r_blk": pa.array((nz % 16) // 4, pa.int64()),
            "c_blk": pa.array(nz % 4, pa.int64()),
            "pn": pa.array(counts[nz], pa.int64()),
        })

    return (
        ds.map_batches(stage, batch_format="pyarrow")
        .groupby(["tile", "r_blk", "c_blk"])
        .aggregate(Sum("pn", alias_name="n"))
    )


def q_zone_multi_hit_buffered(sf_dir: str):
    """Buffered-zone assignment: points near continental seams hit
    multiple zones (core.py buffered semantics,
    tests/test_equi7grid.py:412-439); counts rows per containing-zone
    multiplicity; oracled via the pinned sweep_assign lookup."""
    from ray.data.aggregate import Sum

    from equi7grid_ray.grid import GridSpec
    from equi7grid_ray.tiling_state import get_grid_state

    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
    spec = GridSpec.standard(buffered=True)

    def stage(batch: pa.Table) -> pa.Table:
        state = get_grid_state(spec)
        batch = _sweep_subset(batch)
        lon_u, lat_u = _derive_udeg(batch)
        m = state.zc.classify(lon_u / 1e6, lat_u / 1e6)
        hits = m.sum(axis=1).astype(np.int64)
        vals, counts = np.unique(hits, return_counts=True)
        return pa.table({"n_zones": pa.array(vals, pa.int64()),
                         "pn": pa.array(counts, pa.int64())})

    return (
        ds.map_batches(stage, batch_format="pyarrow")
        .groupby("n_zones")
        .aggregate(Sum("pn", alias_name="n"))
    )


def q_ann_ivf_topk(sf_dir: str):
    """IVF (clustered) ANN search: coarse quantizer -> list assignment ->
    probed scoring -> tiny merge (similarity scale path).  Uses the
    data-independent seeded quantizer so the DuckDB oracle can inline
    the identical centroid literals (sample-trained k-means centroids
    remain the ivf_topk default elsewhere)."""
    from equi7grid_ray.stages.ann_ivf import ivf_topk, random_centroids

    q = _embedding_probe(sf_dir, 0)
    dim = _embedding_probe(sf_dir)
    cent = random_centroids(16, dim)
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return ivf_topk(ds, q, n_probe=6, k=10, centroids=cent).select_columns(["vec_id"])


def q_events_pivot(sf_dir: str):
    """Wide pivot aggregate (stages/pivot.pivot_counts): one row per
    hour-of-day with per-event-type count and cents-sum columns; each
    batch folds to a dense (hour x type) matrix so the shuffle carries
    wide partials only.  SQL-oracled via explicit CASE columns."""
    from equi7grid_ray.stages.pivot import pivot_counts

    ds = _read(sf_dir, "events", ["ts", "event_type", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        us = batch.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        hod = pa.array(us // 3_600_000_000 % 24, pa.int64())
        cents = np.rint(
            batch.column("value").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        return pa.table({
            "hour": hod,
            "event_type": batch.column("event_type"),
            "cents": pa.array(cents, pa.int64()),
        })

    return pivot_counts(
        ds.map_batches(prep, batch_format="pyarrow"),
        index="hour", pivot_col="event_type",
        categories=("click", "error", "purchase", "signup", "view"),
        value_col="cents",
    )


def q_events_pivot_melt(sf_dir: str):
    """Round-trip reshape: the events_pivot wide table unpivoted back to
    long (stages/pivot.melt -- pure map_batches, zero shuffle).
    SQL-oracled via UNION ALL over the pivot oracle's columns."""
    from equi7grid_ray.stages.pivot import melt

    wide = q_events_pivot(sf_dir)
    cats = ("click", "error", "purchase", "signup", "view")
    cols = [f"n_{c}" for c in cats] + [f"sum_{c}" for c in cats]
    return melt(wide, id_cols=["hour"], value_cols=cols)


def q_events_running(sf_dir: str):
    """Per-user running prefix aggregates ordered by (ts, event_id)
    (stages/windows.cumulative_over): hash-partition by user, one
    vectorized sort + groupby-cumsum per partition.  Integer-only
    accumulators keep DuckDB's segment-tree window and pandas'
    sequential cumsum bit-identical.  SQL-oracled via window
    functions."""
    from equi7grid_ray.stages.windows import cumulative_over

    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        cents = np.rint(
            batch.column("value").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        return pa.table({
            "user_id": batch.column("user_id").cast(pa.int64()),
            "ts_us": batch.column("ts").cast(pa.int64()),
            "event_id": batch.column("event_id").cast(pa.int64()),
            "cents": pa.array(cents, pa.int64()),
        })

    out = cumulative_over(
        ds.map_batches(prep, batch_format="pyarrow"),
        key="user_id", order=["ts_us", "event_id"],
        sums={"cum_cents": "cents"}, rolling={"roll3_cents": ("cents", 3)},
        count_as="cum_n",
    )
    return out.select_columns(
        ["user_id", "event_id", "cum_n", "cum_cents", "roll3_cents"])


def q_distinct_events_hll(sf_dir: str):
    """HyperLogLog distinct-count sketch (stages/sketch.hll_distinct)
    over event_id: per-batch register partials (<= 2^p rows/batch),
    max-merge, one-row estimate.  Register values capped at 40 keep
    every float term dyadic-exact, so the DuckDB mirror (same
    splitmix64, same two IEEE ops) is hash-identical, not just close.
    SQL-oracled (raw regime: |distinct| >> 2.5*m at every test sf)."""
    from equi7grid_ray.stages.sketch import hll_distinct

    ds = _read(sf_dir, "events", ["event_id"])
    return hll_distinct(ds, col="event_id", p=8)


def q_events_hll_by_type(sf_dir: str):
    """Keyed HyperLogLog: approximate distinct event_ids PER event_type
    (stages/sketch.hll_distinct_by) -- partials bounded by |keys| * m
    per batch, one keyed Max shuffle.  p=6 keeps every test sf in the
    raw (ln-free) regime so the DuckDB mirror is hash-identical (p=6
    left one key's ESTIMATE below the 2.5*m linear-counting threshold
    at sf0.001 -- the regime is decided by the estimate, not the true
    count)."""
    from equi7grid_ray.stages.sketch import hll_distinct_by

    ds = _read(sf_dir, "events", ["event_id", "event_type"])
    return hll_distinct_by(ds, key_col="event_type", col="event_id", p=5)


def q_heavy_users_cms(sf_dir: str):
    """Count-min-sketch heavy hitters (stages/sketch.cms_heavy_hitters)
    over events.user_id: the big side folds into fixed d*w counter
    partials (no row shuffle), the finished 32 KB sketch is broadcast to
    score the (small) distinct-key candidate set, top-20 by estimate
    with key-ascending tie-break.  All-integer -> hash-exact SQL
    oracle."""
    from equi7grid_ray.stages.sketch import cms_heavy_hitters

    ds = _read(sf_dir, "events", ["user_id"])
    cand = ds.groupby("user_id").count().select_columns(["user_id"])
    return cms_heavy_hitters(ds, cand, col="user_id", d=4, w=1024, topk=20)


def q_doc_len_quantiles(sf_dir: str):
    """Exact distributed quantiles (stages/quantiles.grouped_quantiles):
    per-batch value-histogram partials -> distinct-pair shuffle ->
    per-key rank pick with DuckDB's quantile_disc rank rule
    (ceil(q*n), 1-based).  Binary-exact q values keep the float math
    identical on both sides of the oracle.  SQL-oracled."""
    from equi7grid_ray.stages.quantiles import grouped_quantiles

    ds = _read(sf_dir, "documents", ["lang", "text"])

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({
            "lang": batch.column("lang"),
            "len": pc.utf8_length(batch.column("text")).cast(pa.int64()),
        })

    return grouped_quantiles(
        ds.map_batches(prep, batch_format="pyarrow"),
        col="len", qs=(0.25, 0.5, 0.75, 0.875), keys=["lang"],
    )


def q_kmeans_clusters(sf_dir: str):
    """Distributed Lloyd k-means over the embedding column (stages/
    ann_ivf.kmeans_fit): each iteration is one shuffle-free streaming
    pass emitting O(k*dim) partials, merged driver-side.  Returns the
    per-cluster member counts after assignment with the trained
    centroids.  Iterative (data-dependent float centroids), so its
    oracle is the approval-pinned ``kmeans_pin.parquet``;
    tests/test_join.py::test_kmeans_fit_converges checks the fit."""
    from equi7grid_ray.stages.ann_ivf import IVFAssign, kmeans_fit

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    cent, _hist = kmeans_fit(ds, n_lists=8, n_iter=4, init_sample=1024)
    assigned = ds.map_batches(
        IVFAssign, fn_constructor_kwargs=dict(centroids=cent),
        batch_format="pyarrow", concurrency=(1, 4), num_cpus=1,
    )
    return (
        assigned.select_columns(["ivf_list"])
        .groupby("ivf_list")
        .count()
        .rename_columns({"count()": "n"})
        .sort("ivf_list")
    )


def q_events_hopping(sf_dir: str):
    """Hopping window (2h windows, 1h hop) via the stages/windows.py
    hopping_window operator (vectorized explode + keyed aggregate)."""
    from equi7grid_ray.stages.windows import hopping_window

    ds = _read(sf_dir, "events", ["event_id", "ts", "event_type"])
    return hopping_window(
        ds.select_columns(["ts", "event_type"]),
        ts_col="ts", width_s=7200, hop_s=3600, keys=["event_type"],
    )


def q_cell_index_salted(sf_dir: str):
    """Skew-handled two-stage aggregate: the coarse-cell count computed
    over salted sub-keys, then merged -- result identical to
    cell_index_hist (same SQL oracle), demonstrating the EU/AS hot-zone
    salting path."""
    from ray.data.aggregate import Sum

    from equi7grid_ray.cells import salt_keys

    # wide intermediate key space (cell x salt): shuffle parallelism is
    # bounded by input blocks, so don't let the small-input heuristic
    # coalesce the read (22.9 s at 9 blocks vs ~8 s at 64)
    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"],
               min_blocks=64)
    n_salts = 16

    def stage(batch: pa.Table) -> pa.Table:
        lon_u, lat_u = _derive_udeg(batch)
        n = np.int64(1 << _CELL_L)
        ix = (lon_u + 180_000_000) * n // _LONMOD
        iy = (lat_u + 90_000_000) * n // _LATMOD
        base = (iy << 29) | ix  # salt the level-stripped bits (fits int64)
        salted = salt_keys(base, np.arange(len(base)), n_salts)
        cells, counts = np.unique(salted, return_counts=True)
        return pa.table({"salted": pa.array(cells, pa.int64()),
                         "pn": pa.array(counts, pa.int64())})

    # both stages on the cogroup aggregate (hash_aggregate): the native
    # sort-aggregate's per-block fixed cost dominated the salted
    # intermediate (measured 6.4 s -> see stages/aggregate.py)
    from equi7grid_ray.stages.aggregate import hash_aggregate

    partial = hash_aggregate(
        ds.map_batches(stage, batch_format="pyarrow"),
        keys=["salted"], aggs={"pn": ("pn", "sum")}, n_partitions=64)

    def unsalt(batch: pa.Table) -> pa.Table:
        base = batch.column("salted").to_numpy() // n_salts
        cell = (np.int64(_CELL_L) << 58) | base
        return pa.table({"cell": pa.array(cell, pa.int64()),
                         "pn": batch.column("pn")})

    return hash_aggregate(
        partial.map_batches(unsalt, batch_format="pyarrow"),
        keys=["cell"], aggs={"n": ("pn", "sum")})


def q_zorder_hist(sf_dir: str):
    """Morton/Z-order locality keys (the linearized spatial sort key a
    100-TB tiled layout clusters and prunes by): 13-bit integer cell
    quantization of the projected sweep, vectorized bit-interleave,
    histogram by 1024-way z-prefix bucket with per-batch combiner
    (bincount + minimum/maximum.at) before the small groupby."""
    from ray.data.aggregate import Max, Min, Sum

    from equi7grid_ray.stages.zorder import morton_key

    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_suppkey"])
    B = 13
    NB = 1 << (2 * B - 16)

    def stage(batch: pa.Table) -> pa.Table:
        x, y = _derive_xy(batch)
        cx = (x * (1 << B)) // _XMOD
        cy = (y * (1 << B)) // _YMOD
        k = morton_key(cx, cy)
        bucket = k >> 16
        n = np.bincount(bucket, minlength=NB)
        mn = np.full(NB, np.iinfo(np.int64).max, np.int64)
        mx = np.full(NB, -1, np.int64)
        np.minimum.at(mn, bucket, k)
        np.maximum.at(mx, bucket, k)
        nz = np.flatnonzero(n)
        return pa.table({"bucket": pa.array(nz, pa.int64()),
                         "pn": pa.array(n[nz], pa.int64()),
                         "pmin": pa.array(mn[nz], pa.int64()),
                         "pmax": pa.array(mx[nz], pa.int64())})

    return (
        ds.map_batches(stage, batch_format="pyarrow")
        .groupby("bucket")
        .aggregate(Sum("pn", alias_name="n"),
                   Min("pmin", alias_name="min_zkey"),
                   Max("pmax", alias_name="max_zkey"))
    )


def q_hilbert_hist(sf_dir: str):
    """Hilbert-curve locality keys (the locality-tighter Z-order
    alternative: every curve step is grid-adjacent, so key-range scans
    touch contiguous cells).  13-bit cell quantization of the projected
    sweep, ``bits`` vectorized rotate/reflect passes per batch,
    histogram by 1024-way prefix bucket with per-batch combiner; SQL
    mirror unrolls the identical walk as chained CTEs."""
    from ray.data.aggregate import Max, Min, Sum

    from equi7grid_ray.stages.zorder import hilbert_key

    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_suppkey"])
    B = 13
    NB = 1 << (2 * B - 16)

    def stage(batch: pa.Table) -> pa.Table:
        x, y = _derive_xy(batch)
        cx = (x * (1 << B)) // _XMOD
        cy = (y * (1 << B)) // _YMOD
        d = hilbert_key(cx, cy, B)
        bucket = d >> 16
        n = np.bincount(bucket, minlength=NB)
        mn = np.full(NB, np.iinfo(np.int64).max, np.int64)
        mx = np.full(NB, -1, np.int64)
        np.minimum.at(mn, bucket, d)
        np.maximum.at(mx, bucket, d)
        nz = np.flatnonzero(n)
        return pa.table({"bucket": pa.array(nz, pa.int64()),
                         "pn": pa.array(n[nz], pa.int64()),
                         "pmin": pa.array(mn[nz], pa.int64()),
                         "pmax": pa.array(mx[nz], pa.int64())})

    return (
        ds.map_batches(stage, batch_format="pyarrow")
        .groupby("bucket")
        .aggregate(Sum("pn", alias_name="n"),
                   Min("pmin", alias_name="min_d"),
                   Max("pmax", alias_name="max_d"))
    )


def q_zorder_bbox_prune(sf_dir: str):
    """Exact bbox query answered through the Z-order machinery: Morton
    keys added as a map stage, the query rectangle decomposed into
    disjoint key intervals (quadtree descent), rows pruned by interval
    membership FIRST (the in-memory stand-in for parquet row-group
    min/max pushdown on a zkey-sorted layout) then exact-verified.
    Oracle is the plain bbox predicate -- proving the pruning path
    loses and invents nothing."""
    from equi7grid_ray.stages.zorder import (add_zorder_column,
                                             filter_bbox_via_zorder)

    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_suppkey"])

    def to_xy(batch: pa.Table) -> pa.Table:
        x, y = _derive_xy(batch)
        return pa.table({"x": pa.array(x.astype(np.float64)),
                         "y": pa.array(y.astype(np.float64))})

    # y span starts low: the derived y = (l_suppkey*53003) % 6e6 only
    # reaches ~5.3e5 at sf0.001 (few suppliers), ~5.3e6 at sf0.01
    bbox = (2_000_000.0, 50_000.0, 4_500_000.0, 3_500_000.0)
    keyed = add_zorder_column(ds.map_batches(to_xy, batch_format="pyarrow"),
                              x_range=(0, _XMOD), y_range=(0, _YMOD),
                              bits=13)
    hit = filter_bbox_via_zorder(keyed, bbox, x_range=(0, _XMOD),
                                 y_range=(0, _YMOD), bits=13)

    def fold(batch: pa.Table) -> pa.Table:
        x = batch.column("x").to_numpy()
        y = batch.column("y").to_numpy()
        return pa.table({
            "pn": pa.array([batch.num_rows], pa.int64()),
            "px": pa.array([int(x.astype(np.int64).sum())], pa.int64()),
            "py": pa.array([int(y.astype(np.int64).sum())], pa.int64()),
        })

    from equi7grid_ray.arrowutil import single_group

    def total(df):
        import pandas as pd
        return pd.DataFrame({
            "n": [np.int64(df["pn"].sum())],
            "sum_x": [np.int64(df["px"].sum())],
            "sum_y": [np.int64(df["py"].sum())],
        })

    partials = hit.map_batches(fold, batch_format="pyarrow")
    return single_group(partials, total, ["n", "sum_x", "sum_y"])


def q_orders_bloom_semi(sf_dir: str):
    """Bloom-filter semi-join (Bloomjoin): orders whose customer is in
    the BUILDING segment.  The customer side folds into a broadcast
    Bloom filter (fixed-size bit partials, keys never collected), the
    orders side prefilters with k gathers per row, and only survivors
    enter the exact partition-cogroup verify -- the shuffle moves
    |matches| + fpp*|orders| rows, not |orders|.  Output is exact, so
    the oracle is a plain IN-subquery."""
    from ray.data.aggregate import Count, Sum

    from equi7grid_ray.stages.bloom import bloom_semi_join

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderpriority"])
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    keys = cust.filter(expr="c_mktsegment == 'BUILDING'") \
               .select_columns(["c_custkey"])

    def rekey(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(
            ["o_custkey" if c == "c_custkey" else c
             for c in batch.column_names])

    hits = bloom_semi_join(orders, keys.map_batches(rekey, batch_format="pyarrow"),
                           on="o_custkey", fpp=0.01)
    return (
        hits.groupby("o_orderpriority")
        .aggregate(Count(alias_name="n"),
                   Sum("o_custkey", alias_name="custkey_sum"))
    )


def q_pack_sequences(sf_dir: str):
    """Sequence packing for training-batch construction: first-fit
    greedy under a 256-token budget within fixed 64-doc_id shards
    (shards = the parallel unit; determinism from doc_id alone).
    Per-shard cumsum + searchsorted jumps keep the loop O(#sequences).
    Oracle: recursive CTE running the same greedy recurrence."""
    from equi7grid_ray.stages.pack import pack_sequences

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return pack_sequences(ds, budget=256, shard_size=64)


def q_incremental_dedup(sf_dir: str):
    """Cross-run incremental ingestion dedup: new documents (doc_id >=
    100) kept only if their content hash appears neither in the
    already-committed corpus (doc_id < 100) nor earlier within the new
    batch.  The committed side folds into a Bloom filter (keys never
    collected); bloom-NEGATIVE rows are definitely new and skip the
    shuffle entirely; only the bloom-positive sliver is exact-verified
    (bloom_anti_join), then first-occurrence-within-new resolves by
    groupby-Min.  Oracle: NOT IN + min-per-text in plain SQL."""
    from ray.data.aggregate import Min

    from equi7grid_ray.stages.bloom import bloom_anti_join
    from equi7grid_ray.stages.dedup import _column_bytes, hash_bytes_offsets

    def add_hash(batch: pa.Table) -> pa.Table:
        flat, offs = _column_bytes(batch.column("text"))
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "h": pa.array(hash_bytes_offsets(flat, offs), pa.int64()),
        })

    docs = _read(sf_dir, "documents", ["doc_id", "text"]) \
        .map_batches(add_hash, batch_format="pyarrow")
    new = docs.filter(expr="doc_id >= 100")
    prior = docs.filter(expr="doc_id < 100").select_columns(["h"])
    fresh = bloom_anti_join(new, prior, on="h", fpp=0.01)
    return (
        fresh.groupby("h")
        .aggregate(Min("doc_id", alias_name="doc_id"))
        .select_columns(["doc_id"])
    )


def q_spatial_neighbor_pairs(sf_dir: str):
    """Grid-partitioned spatial self-join: all customer-point pairs
    within 200 km in the projected sweep.  Cell replication (factor-9,
    metadata only) + one vectorized self-merge per hash partition +
    canonical min-id-home emission = exact pairs with no all-pairs
    stage.  Oracle: the O(n^2) inequality self-join."""
    from equi7grid_ray.stages.neighbors import neighbor_pairs

    ds = _read(sf_dir, "customer", ["c_custkey"])

    def to_xy(batch: pa.Table) -> pa.Table:
        ck = batch.column("c_custkey").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        return pa.table({
            "id": pa.array(ck, pa.int64()),
            "x": pa.array(((ck * _XMUL) % _XMOD).astype(np.float64)),
            "y": pa.array(((ck * _YMUL) % _YMOD).astype(np.float64)),
        })

    pts = ds.map_batches(to_xy, batch_format="pyarrow")
    pairs = neighbor_pairs(pts, radius=200_000.0)

    def to_int(batch: pa.Table) -> pa.Table:
        return pa.table({
            "id_a": batch.column("id_a"),
            "id_b": batch.column("id_b"),
            "d2": pa.array(batch.column("d2").to_numpy().astype(np.int64),
                           pa.int64()),
        })

    return pairs.map_batches(to_int, batch_format="pyarrow")


def q_distortion_planar(sf_dir: str):
    """Planar length distortion k = d/(a*sin(d/a)) (reference
    core.py:292-324) over the projected sweep against the EU centre,
    histogrammed at 1e-6 resolution.  Unlike the geodesic variant this
    is closed-form float math both engines share (hypot/sin/round), so
    it IS oracle-checkable: micro-rounding absorbs any sub-ulp libm
    difference."""
    from ray.data.aggregate import Sum

    from equi7grid_ray.aeqd import length_distortion_planar

    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_suppkey"])

    def stage(batch: pa.Table) -> pa.Table:
        x, y = _derive_xy(batch)
        k = length_distortion_planar("EU", x.astype(np.float64),
                                     y.astype(np.float64))
        b = np.rint(k * 1e6).astype(np.int64)
        vals, counts = np.unique(b, return_counts=True)
        return pa.table({"k_micro": pa.array(vals, pa.int64()),
                         "pn": pa.array(counts, pa.int64())})

    # hash_aggregate, not the native Sum: the sort-aggregate's fixed
    # per-block cost dominates a 44k-key histogram fold over many small
    # partial blocks (the banded_hamming_pairs lesson, stages/aggregate.py)
    from equi7grid_ray.stages.aggregate import hash_aggregate

    return hash_aggregate(
        ds.map_batches(stage, batch_format="pyarrow"),
        keys=["k_micro"], aggs={"n": ("pn", "sum")})


def q_embedding_centroids(sf_dir: str):
    """Per-class embedding centroids in fixed-point: dense per-batch
    (cls x dim) int64 fold, O(cls*dim) partials per task, keyed Sum
    merge.  Integer sums are reduction-order-independent, so the
    LATERAL-unnest SQL oracle matches by hash."""
    from equi7grid_ray.stages.similarity import grouped_centroids

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return grouped_centroids(ds, n_classes=8)


def q_events_profile(sf_dir: str):
    """ANALYZE-style table profile of 4 events columns: counts, null
    counts, exact cardinality (distinct-pair shuffle only), value range
    for ints / length range for strings.  Oracle: UNION ALL of plain
    per-column aggregates."""
    from equi7grid_ray.stages.profile import profile_columns

    ds = _read(sf_dir, "events",
               ["event_id", "user_id", "event_type", "props"])
    return profile_columns(ds, int_cols=["event_id", "user_id"],
                           str_cols=["event_type", "props"])


def q_nchars_drift(sf_dir: str):
    """Distribution-drift gate: exact quantized chi-squared homogeneity
    of n_chars between the even/odd doc halves over global octile
    buckets (exact quantiles, dyadic q) — the PSI-style ML-ops check,
    log-free so it stays hash-oracle-able."""
    from equi7grid_ray.stages.drift import chi2_drift

    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"])

    def prep(batch: pa.Table) -> pa.Table:
        i = batch.column("doc_id").to_numpy(zero_copy_only=False)
        return pa.table({
            "n_chars": batch.column("n_chars").cast(pa.int64()),
            "grp": pa.array(np.where(i % 2 == 0, "even", "odd")),
        })

    return chi2_drift(ds.map_batches(prep, batch_format="pyarrow"),
                      col="n_chars", grp_col="grp")


def q_docs_cube(sf_dir: str):
    """GROUP BY CUBE(lang, source, split): counts at every subset of
    the keys (2^3 grouping sets); only the finest level aggregates
    input rows, every other set re-aggregates the bounded finest
    result.  ``split`` = deterministic doc_id parity (adds a third,
    engine-derived dimension the SQL restates)."""
    from equi7grid_ray.stages.pivot import cube_counts

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "source"])

    def with_split(batch: pa.Table) -> pa.Table:
        i = batch.column("doc_id").to_numpy(zero_copy_only=False)
        return pa.table({
            "lang": batch.column("lang"),
            "source": batch.column("source"),
            "split": pa.array(np.where(i % 2 == 0, "even", "odd")),
        })

    return cube_counts(ds.map_batches(with_split, batch_format="pyarrow"),
                       keys=["lang", "source", "split"])


def q_docs_rollup(sf_dir: str):
    """GROUP BY ROLLUP(lang, source): multi-granularity counts where
    only the finest level aggregates input rows; coarser levels
    re-aggregate the finest RESULT (O(domain), not O(corpus))."""
    from equi7grid_ray.stages.pivot import rollup_counts

    ds = _read(sf_dir, "documents", ["lang", "source"])
    return rollup_counts(ds, keys=["lang", "source"])


def q_doc_surprisal(sf_dir: str):
    """Unigram LM quality scores: per-doc total token surprisal in
    all-integer bit-length form (bitlen(N//c) ~ log2) -- no float log
    crosses the oracle boundary."""
    from equi7grid_ray.stages.text import surprisal_scores

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return surprisal_scores(ds, max_vocab=4096)


def q_triangle_count(sf_dir: str):
    """Triangles in a derived 500-node graph (degree-oriented wedge
    closure -- out-degrees O(sqrt(m)), wedge + closure shuffles move
    int pairs only).  Oracle: the canonical SQL triple self-join."""
    from equi7grid_ray.stages.graph import triangle_count

    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])

    def to_edges(batch: pa.Table) -> pa.Table:
        ok = batch.column("l_orderkey").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        pk = batch.column("l_partkey").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        return pa.table({
            "id_a": pa.array(ok % 500, pa.int64()),
            "id_b": pa.array((pk * 11) % 500, pa.int64()),
        })

    return triangle_count(ds.map_batches(to_edges, batch_format="pyarrow"))


def q_docs_rank_ntile(sf_dir: str):
    """Global row_number + NTILE(8) over (n_chars, doc_id) without a
    global sort: per-value counts -> broadcast prefix LUT, one
    value-cogroup for within-value order, closed-form bucket."""
    from equi7grid_ray.stages.rank import global_rank

    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"])
    return global_rank(ds, value_col="n_chars", id_col="doc_id", n_tiles=8)


def q_event_seasonal_anomaly(sf_dir: str):
    """Seasonal-baseline residual screen: each observed (event_type,
    day, hour) count tested against its (type, hour-of-day) baseline
    across days with the cross-multiplied exact z-test (no division or
    sqrt); bounded (type, hour) output.  Only (type, day, hour) count
    partials shuffle."""
    from equi7grid_ray.stages.windows import seasonal_anomaly

    return seasonal_anomaly(_read(sf_dir, "events", ["ts", "event_type"]))


def q_events_hourly_distinct(sf_dir: str):
    """Exact per-hour distinct users: per-batch DISTINCT (window,
    user) pairs (combiner), distinct-pair shuffle, count per window --
    the windowed COUNT(DISTINCT) pattern where only distinct pairs
    ever cross the wire."""
    from ray.data.aggregate import Count

    ds = _read(sf_dir, "events", ["ts", "user_id"])

    def pairs(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts").to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").view(np.int64)
        w = ts // (3600 * 1_000_000)
        u = batch.column("user_id").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        key = np.unique(w * (np.int64(1) << np.int64(32)) + u)
        return pa.table({
            "w": pa.array(key >> np.int64(32), pa.int64()),
            "u": pa.array(key & ((np.int64(1) << np.int64(32)) - 1),
                          pa.int64()),
        })

    def to_ts(batch: pa.Table) -> pa.Table:
        w = batch.column("w").to_numpy(zero_copy_only=False)
        start = (w * 3600 * 1_000_000).astype("datetime64[us]")
        return pa.table({
            "window_start": pa.array(start),
            "n_users": batch.column("n_users"),
        })

    from equi7grid_ray.stages.aggregate import cogroup

    def resolve(g):
        # one pass per w-partition: cross-batch distinct + count per w
        key = np.unique(g["w"].to_numpy(np.int64) * (np.int64(1) << 32)
                        + g["u"].to_numpy(np.int64))
        w, n = np.unique(key >> np.int64(32), return_counts=True)
        import pandas as pd
        return pd.DataFrame({"w": w, "n_users": n.astype(np.int64)})

    return cogroup(ds.map_batches(pairs, batch_format="pyarrow"), ["w"],
                   resolve, n_partitions=32) \
        .map_batches(to_ts, batch_format="pyarrow")


def q_lineitem_skyline(sf_dir: str):
    """2-D skyline: lineitems not dominated on (min l_quantity, max
    l_extendedprice).  Associative front-of-fronts -- each batch
    reduces to its local Pareto front, one final merge; no all-pairs
    dominance and no shuffle of non-front rows.  Oracle: per-quantity
    group max + windowed cummax of the strictly-smaller quantities."""
    from equi7grid_ray.stages.rank import pareto_front_2d

    ds = _read(sf_dir, "lineitem", ["l_quantity", "l_extendedprice"])
    return pareto_front_2d(ds, min_col="l_quantity",
                           max_col="l_extendedprice")


def q_user_event_sequences(sf_dir: str):
    """Ordered per-user event-type sequences (SQL string_agg ORDER BY
    -- the assemble-the-session-into-a-training-example step): one
    key cogroup, one lexsort + one vectorized binary_join per
    partition."""
    from equi7grid_ray.stages.pack import assemble_sequences

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_id",
                                  "event_type"])
    return assemble_sequences(ds, key_col="user_id",
                              order_cols=["ts", "event_id"],
                              token_col="event_type")


def _per_source_cap_sql(k: int = 5) -> str:
    """Mirror of q_docs_per_source_cap: splitmix64(doc_id xor salt) in
    HUGEINT, reinterpreted as SIGNED int64 (matching the engine's
    numpy view) for the per-source row_number cut."""
    from equi7grid_ray.sqlgen import _mix64_ctes
    from equi7grid_ray.stages.sample import SAMPLE_SALT

    return f"""
WITH h0 AS (
  SELECT doc_id, source,
    xor(doc_id::UBIGINT, {int(SAMPLE_SALT)}::UBIGINT) AS h
  FROM documents),
{_mix64_ctes('h0', 'h', 'doc_id, source')},
signed AS (
  SELECT doc_id, source,
    CASE WHEN h >= 9223372036854775808::UBIGINT
         THEN CAST(CAST(h AS HUGEINT) - 18446744073709551616 AS BIGINT)
         ELSE CAST(h AS BIGINT) END AS hs
  FROM mixed)
SELECT source, doc_id FROM (
  SELECT source, doc_id,
         row_number() OVER (PARTITION BY source ORDER BY hs, doc_id) AS rn
  FROM signed) WHERE rn <= {k}"""


def q_docs_per_source_cap(sf_dir: str):
    """Per-source quota cap (crawl politeness / domain rebalancing):
    keep at most 5 documents per source, chosen by deterministic
    id-hash order (a fair sample, not first-N) -- grouped_topk's
    combiner prunes to 5 per key before the shuffle."""
    from equi7grid_ray.stages.dedup import _mix64
    from equi7grid_ray.stages.sample import SAMPLE_SALT
    from equi7grid_ray.stages.topk import grouped_topk

    ds = _read(sf_dir, "documents", ["doc_id", "source"])

    def add_hash(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        hs = _mix64(ids.view(np.uint64) ^ SAMPLE_SALT).view(np.int64)
        return batch.append_column("hs", pa.array(hs, pa.int64()))

    capped = grouped_topk(ds.map_batches(add_hash, batch_format="pyarrow"),
                          key="source", value="hs", k=5, ascending=True,
                          tie_cols=["doc_id"])
    return capped.select_columns(["source", "doc_id"])


def q_events_funnel(sf_dir: str):
    """Ordered funnel (view -> click -> purchase, first-touch): per
    user the furthest stage reached where each stage must occur
    strictly after the previous stage's completion event.  One key
    cogroup, len(stages) vectorized groupby-min passes per partition.
    Oracle: chained min-ts joins."""
    from equi7grid_ray.stages.windows import funnel_stages

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_type"])
    return funnel_stages(ds, stages=["view", "click", "purchase"])


def q_simhash_near_dup(sf_dir: str):
    """EXACT SimHash Hamming<=3 near-duplicate pairs via the shared
    4x16 banding (pigeonhole: recall 1.0 with no bucket cap) -- the
    text twin of image_dhash_pairs, both on stages/hamming.py.
    Oracle: O(n^2) bit_count join over the simhash SQL mirror."""
    from equi7grid_ray.stages.dedup import simhash64
    from equi7grid_ray.stages.hamming import banded_hamming_pairs

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    hashed = ds.map_batches(simhash64, batch_format="pyarrow")
    return banded_hamming_pairs(hashed, hash_col="simhash",
                                id_col="doc_id", max_dist=3,
                                max_bucket=None)


def q_orders_cdc_merge(sf_dir: str):
    """CDC / upsert-merge (Delta-style MERGE INTO semantics): the orders
    snapshot plus a lineitem-derived change stream (seq = linenumber,
    every 11th change a delete) collapse to the latest surviving value
    per order -- one hash-partitioned cogroup, vectorized lexsort
    winner per key.  Oracle: row_number() OVER (ORDER BY seq DESC,
    del DESC) = 1."""
    from equi7grid_ray.stages.cdc import OP_DELETE, OP_UPSERT, apply_changes

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_linenumber", "l_extendedprice"])

    def prep_base(b: pa.Table) -> pa.Table:
        cents = np.rint(b.column("o_totalprice")
                        .to_numpy(zero_copy_only=False) * 100.0) \
            .astype(np.int64)
        return pa.table({"k": b.column("o_orderkey").cast(pa.int64()),
                         "cents": pa.array(cents, pa.int64())})

    def prep_chg(b: pa.Table) -> pa.Table:
        ok = b.column("l_orderkey").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        ln = b.column("l_linenumber").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        cents = np.rint(b.column("l_extendedprice")
                        .to_numpy(zero_copy_only=False) * 100.0) \
            .astype(np.int64)
        op = np.where((ok + ln) % 11 == 0, OP_DELETE, OP_UPSERT)
        return pa.table({
            "k": pa.array(ok, pa.int64()),
            "seq": pa.array(ln, pa.int64()),
            "op": pa.array(op.tolist(), pa.string()),
            "cents": pa.array(cents, pa.int64()),
        })

    base = orders.map_batches(prep_base, batch_format="pyarrow")
    chg = li.map_batches(prep_chg, batch_format="pyarrow")
    # the synthetic lineitem has duplicate (orderkey, linenumber) pairs,
    # so exact ties are broken on the value itself (mirrored in the SQL)
    return apply_changes(base, chg, key_col="k", seq_col="seq",
                         tiebreak_cols=("cents",))


def q_users_customers_full(sf_dir: str):
    """FULL OUTER equality join on the native Dataset.join path (the
    one join variant no other query exercises): customer keys vs
    per-user event counts, classified by which side matched.  Oracle:
    FULL OUTER JOIN ... USING + CASE."""
    from ray.data.aggregate import Count, Sum

    from equi7grid_ray.stages.join import native_join

    cust = _read(sf_dir, "customer", ["c_custkey"])
    ev = _read(sf_dir, "events", ["user_id"])

    def prep_cust(b: pa.Table) -> pa.Table:
        n = b.num_rows
        return pa.table({"k": b.column("c_custkey").cast(pa.int64()),
                         "is_cust": pa.array(np.ones(n, np.int64))})

    def ev_partial(b: pa.Table) -> pa.Table:
        vc = pc.value_counts(b.column("user_id"))
        return pa.table({"k": vc.field("values").cast(pa.int64()),
                         "pn": vc.field("counts").cast(pa.int64())})

    c = cust.map_batches(prep_cust, batch_format="pyarrow")
    e = (ev.map_batches(ev_partial, batch_format="pyarrow")
         .groupby("k").aggregate(Sum("pn", alias_name="n_ev")))
    j = native_join(c, e, on="k", how="full", n_partitions=8)

    def classify(batch: pa.Table) -> pa.Table:
        is_c = batch.column("is_cust")
        n_ev = batch.column("n_ev")
        side = pc.if_else(
            pc.is_null(is_c), pa.scalar("events_only"),
            pc.if_else(pc.is_null(n_ev), pa.scalar("cust_only"),
                       pa.scalar("both")))
        return pa.table({
            "side": side,
            "pn_ev": pc.fill_null(n_ev, 0).cast(pa.int64()),
        })

    return (
        j.map_batches(classify, batch_format="pyarrow")
        .groupby("side")
        .aggregate(Count(alias_name="n_keys"),
                   Sum("pn_ev", alias_name="sum_events"))
    )


def q_benford_audit(sf_dir: str):
    """First-significant-digit Benford audit of order totals (the
    fabricated-data screen): exact cents, powers-of-ten searchsorted
    digit extraction (float log10 misbins near 10^k), per-digit count
    + per-mille share vs the rounded Benford expectation.  Per-batch
    9-bin partials are the only exchange."""
    from equi7grid_ray.stages.validate import benford_audit

    return benford_audit(_read(sf_dir, "orders", ["o_totalprice"]),
                         column="o_totalprice")


def q_orders_validate(sf_dir: str):
    """Declarative data-quality gate over orders (dbt-test role):
    null / range / uniqueness / referential-integrity violation counts,
    each a distributed aggregate (combiner-first distinct; broadcast
    anti-join for the FK orphan count)."""
    from equi7grid_ray.stages.validate import check_table

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_totalprice"])
    cust = _read(sf_dir, "customer", ["c_custkey"])
    return check_table(
        orders,
        not_null=["o_custkey"],
        positive=["o_totalprice"],
        unique=["o_orderkey", "o_custkey"],
        foreign_key={"o_custkey": (cust, "c_custkey")},
    )


def _weighted_sample_sql() -> str:
    """Mirror of q_lineitem_weighted_sample: splitmix64(rid xor salt)
    with the all-integer (qty << 32) // 50 threshold."""
    from equi7grid_ray.sqlgen import _mix64_ctes
    from equi7grid_ray.stages.sample import SAMPLE_SALT

    return f"""
WITH h0 AS (
  SELECT l_orderkey * 16 + l_linenumber AS rid,
         CAST(l_quantity AS BIGINT) AS qty,
    xor((l_orderkey * 16 + l_linenumber)::UBIGINT,
        {int(SAMPLE_SALT)}::UBIGINT) AS h
  FROM lineitem),
{_mix64_ctes('h0', 'h', 'rid, qty')}
SELECT rid, qty FROM mixed
WHERE h % 4294967296 < least((qty * 4294967296) // 50, 4294967296)"""


def q_lineitem_weighted_sample(sf_dir: str):
    """Deterministic importance sampling: lineitems kept with
    probability l_quantity/50 via all-integer id-hash thresholds --
    reproducible across runs/cluster sizes, nests in uniform ladders.
    Oracle: the same splitmix64 + integer-threshold arithmetic."""
    from equi7grid_ray.stages.sample import weighted_sample

    ds = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_linenumber", "l_quantity"])

    def prep(batch: pa.Table) -> pa.Table:
        ok = batch.column("l_orderkey").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        ln = batch.column("l_linenumber").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        q = batch.column("l_quantity").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        return pa.table({
            "rid": pa.array(ok * 16 + ln, pa.int64()),
            "qty": pa.array(q, pa.int64()),
        })

    kept = weighted_sample(ds.map_batches(prep, batch_format="pyarrow"),
                           weight_col="qty", id_col="rid", max_weight=50)
    return kept


def q_user_coverage(sf_dir: str):
    """Gaps-and-islands: per user the merged coverage of derived event
    intervals (start = ts, duration 10-70 min from event_id) -- ONE
    sort + groupby-cummax pass per partition detects all islands.
    Oracle: windowed running-max + island-id cumsum."""
    from equi7grid_ray.stages.windows import merge_intervals

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_id"])

    def prep(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts").to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").view(np.int64)
        eid = batch.column("event_id").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        dur = ((eid % 7) + 1) * 600_000_000
        return pa.table({
            "user_id": batch.column("user_id"),
            "s": pa.array(ts, pa.int64()),
            "e": pa.array(ts + dur, pa.int64()),
        })

    return merge_intervals(ds.map_batches(prep, batch_format="pyarrow"),
                           key_col="user_id", start_col="s", end_col="e")


def q_user_growth(sf_dir: str):
    """Cumulative cohort growth: running count of distinct users by
    first-seen hour.  Shuffle = one groupby(user).Min (distinct users
    only); per-hour first-appearance counts are bounded by the time
    domain, so the running sum is a driver-side cumsum over a tiny
    table.  Oracle: min-hour per user + a window cumsum."""
    from ray.data.aggregate import Min

    from equi7grid_ray.arrowutil import collect_tables

    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def prep(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts").to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").view(np.int64)
        hour = ts // (3600 * 1_000_000)
        return pa.table({
            "user_id": batch.column("user_id"),
            "day": pa.array(hour, pa.int64()),
        })

    firsts = (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(Min("day", alias_name="d0"))
    )
    t = collect_tables(
        firsts.select_columns(["d0"]),
        schema=pa.schema([("d0", pa.int64())]),
    )
    days, counts = np.unique(t.column("d0").to_numpy(), return_counts=True)
    return pa.table({
        "hour": pa.array(days, pa.int64()),
        "cum_users": pa.array(np.cumsum(counts).astype(np.int64),
                              pa.int64()),
    })


def q_docs_balanced_sample(sf_dir: str):
    """Class-balanced deterministic downsampling: every language
    sampled at min_count/count via all-integer id-hash thresholds --
    tiny counts pass + zero-shuffle membership filter; nests inside
    hash_sample ladders."""
    from equi7grid_ray.stages.sample import balanced_sample

    ds = _read(sf_dir, "documents", ["doc_id", "lang"])
    return balanced_sample(ds, "lang")


def q_embedding_near_dup(sf_dir: str):
    """Embedding-cosine near-duplicate pairs: banded hyperplane LSH
    (8 bands x 4 planes, OR-amplified) -> bucket co-occupant candidates
    -> exact-cosine verification >= 0.4 -> distinct pairs.  The banded
    design fixes the single-code recall cliff (round-2 verdict #6);
    recall on planted near-dups is asserted in tests, and the DuckDB
    oracle mirrors the full candidate+verify path."""
    from equi7grid_ray.stages.similarity import embedding_near_dup_pairs

    dim = _embedding_probe(sf_dir)
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return embedding_near_dup_pairs(ds, dim, threshold=0.4, bands=8, r=4)


def q_roi_search_batch(sf_dir: str):
    """Batched per-row ROI->tiles search in PROJECTED metres (+-250 km
    boxes at the derived sweep points) -> per-tile ROI counts.  Pure
    grid arithmetic (the reference's get_tiles_in_bbox floor sweep sans
    zone filter), so the DuckDB oracle rederives it integer-exactly; the
    geodesic lon/lat variant runs as roi_search_geodesic (lookup-oracled)."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_suppkey"])
    R = 250_000
    S = 600_000
    ny = -(-_YMOD // S)
    nx = -(-_XMOD // S)

    def stage(batch: pa.Table) -> pa.Table:
        # fused expand+count: the per-ROI floor sweep over the regular
        # tile grid lands directly in a dense bincount over the bounded
        # tile domain -- per-(roi, tile) rows never materialize when
        # only counts are wanted.
        x, y = _derive_xy(batch)
        tx0 = np.maximum(x - R, 0) // S
        tx1 = np.minimum(x + R, _XMOD - 1) // S
        ty0 = np.maximum(y - R, 0) // S
        ty1 = np.minimum(y + R, _YMOD - 1) // S
        cnt = (tx1 - tx0 + 1) * (ty1 - ty0 + 1)
        total = int(cnt.sum())
        off = np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        ny_r = np.repeat(ty1 - ty0 + 1, cnt)
        tx = np.repeat(tx0, cnt) + off // ny_r
        ty = np.repeat(ty0, cnt) + off % ny_r
        counts = np.bincount(tx * ny + ty, minlength=nx * ny)
        nz = np.flatnonzero(counts)
        names = _grid_names("T6", S)
        return pa.table({"tile": pa.array(names[nz].tolist(), pa.string()),
                         "pn": pa.array(counts[nz], pa.int64())})

    return (
        ds.map_batches(stage, batch_format="pyarrow")
        .groupby("tile")
        .aggregate(Sum("pn", alias_name="n"))
    )


def q_roi_search_geodesic(sf_dir: str):
    """Batched per-row ROI->tiles search (0.4deg boxes at the derived
    sweep centers) -> per-tile ROI counts (the coarse-cell groupby
    shuffle); oracled via the pinned sweep_roi_tiles lookup."""
    from equi7grid_ray.stages.roi_search import roi_tile_counts

    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])

    def prep(batch: pa.Table) -> pa.Table:
        batch = _sweep_subset(batch)
        lon_u, lat_u = _derive_udeg(batch)
        lon = lon_u / 1e6
        lat = lat_u / 1e6
        return pa.table({
            "roi_id": batch.column("l_orderkey"),
            "lon_min": pa.array(np.maximum(lon - 0.2, -180.0)),
            "lat_min": pa.array(np.maximum(lat - 0.2, -90.0)),
            "lon_max": pa.array(np.minimum(lon + 0.2, 180.0)),
            "lat_max": pa.array(np.minimum(lat + 0.2, 90.0)),
        })

    return roi_tile_counts(ds.map_batches(prep, batch_format="pyarrow"))


# Multimodal decode stage: per-image pixel stats + thumbnails over
# synthesized payloads (codec plumbing).
q_image_stats = _frame_query(
    mm.DecodeImages, 500, select=["image_id", "px_mean"])


# RGB (color type 2) PNG decode stage: per-image pixel stats over
# 3-channel payloads (pure-zlib RGB decode, codec.py); oracled channel-
# exactly via the band-offset pixel pattern mirror.
q_image_stats_rgb = _frame_query(
    mm.DecodeImages, 300, make=images.make_rgb_batch,
    select=["image_id", "px_mean"])


# Perceptual difference-hash over DECODED pixels (image axis):
# point-sampled 9x8 dHash, bit-exact vs sqlgen.image_dhash_sql.
q_image_dhash = _frame_query(mm.DHashImages, 500)


def q_image_dhash_pairs(sf_dir: str):
    """Image near-duplicate pairs: banded dHash (4x16-bit, exact for
    Hamming <= 3 by pigeonhole) -> popcount verify.  The SQL oracle
    brute-forces all O(n^2) pairs, so equality proves recall = 1."""
    return mm.dhash_near_dup(_images(500), max_dist=3)


# Average-hash (aHash) over DECODED pixels: 8x8 point-sampled luma
# grid, integer-exact mean compare (64*v > sum) -- bit-exact vs
# sqlgen.image_ahash_sql.
q_image_ahash = _frame_query(mm.AHashImages, 500)


def q_cross_decontam_lsh(sf_dir: str):
    """Cross-corpus LSH near-dup JOIN: train (doc_id % 50 != 0) vs eval
    (doc_id % 50 == 0) -- the decontamination scale path where the
    eval set is too big to broadcast; both sides MinHash and shuffle.
    Oracle: the full MinHash-LSH SQL restricted to cross-side pairs."""
    from equi7grid_ray.stages.dedup import lsh_cross_pairs

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def side(want_eval: bool):
        def fn(b: pa.Table) -> pa.Table:
            ids = b.column("doc_id").to_numpy(zero_copy_only=False)
            keep = (ids % 50 == 0) if want_eval else (ids % 50 != 0)
            return b.filter(pa.array(keep))
        return docs.map_batches(fn, batch_format="pyarrow")

    return lsh_cross_pairs(side(False), side(True))


def q_nchars_mad_outliers(sf_dir: str):
    """Per-source ROBUST (median-absolute-deviation) outliers on
    n_chars: both order statistics computed exactly from bounded
    per-group value histograms; |x - med| > 3*MAD integer compare.
    Oracle: quantile_disc(0.5) twice (same (n-1)//2 convention)."""
    from equi7grid_ray.stages.profile import mad_outliers

    docs = _read(sf_dir, "documents", ["doc_id", "source", "n_chars"])
    return mad_outliers(docs, key_col="source", val_col="n_chars",
                        id_col="doc_id", k=3)


def q_inverted_index(sf_dir: str):
    """Inverted index build (token -> df + first-10 posting list): the
    search / RAG-retrieval index step -- local-distinct explode, one
    token-hash shuffle, one lexsort + vectorized binary_join per
    partition.  SQL mirror: string_agg FILTER rn <= 10 ORDER BY."""
    from equi7grid_ray.stages.text import inverted_index

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return inverted_index(docs)


def q_embedding_int8(sf_dir: str):
    """Scalar int8 quantization of the embedding column (the 4x
    memory/IO cut before ANN indexing): exact per-dim min/max fold ->
    broadcast range -> bit-exact float64 quantize (verified identical
    to the SQL mirror's expression order)."""
    from equi7grid_ray.stages.similarity import embedding_int8_quantize

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return embedding_int8_quantize(emb)


def q_edit_verified_pairs(sf_dir: str):
    """LSH candidates -> exact Levenshtein <= 32 (ground-truth string
    metric; the candidate distance distribution is bimodal 4 | 316, so
    the threshold has a huge margin).  Row-vectorized DP (prefix-min
    collapsed deletion recurrence) inside the verify tasks; DuckDB
    levenshtein() mirror over the full LSH candidate SQL."""
    from equi7grid_ray.stages.editdist import edit_verified_pairs

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return edit_verified_pairs(docs, max_dist=32)


def q_embedding_dim_stats(sf_dir: str):
    """Per-dimension moments of the int8-quantized embedding codes
    (PCA/whitening prep): combiner-first (dim, n, s, ss) partials plus
    the exact denominator-cleared variance numerator n*ss - s*s; SQL
    reuses the bit-exact quantize mirror."""
    from equi7grid_ray.stages.similarity import embedding_dim_stats

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return embedding_dim_stats(emb)


def q_gopher_filter(sf_dir: str):
    """Gopher-rule document quality gate (first-failing-reason per doc,
    integer-exact rules): the map-only filter every ingestion pipeline
    runs before dedup/scoring.  SQL mirror uses the same replace-based
    counting as the quality_buckets oracle."""
    from equi7grid_ray.stages.text import gopher_filter

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return docs.map_batches(gopher_filter, batch_format="pyarrow")


def q_orders_cdc_diff(sf_dir: str):
    """Data reconciliation: diff the CDC-merged orders table against the
    original snapshot -- deleted keys surface as only_left, value
    changes as changed (16-byte (key, row-hash) shuffle regardless of
    row width).  Oracle: FULL OUTER JOIN on the same merge CTE."""
    from equi7grid_ray.stages.cdc import table_diff

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def prep_base(b: pa.Table) -> pa.Table:
        cents = np.rint(b.column("o_totalprice")
                        .to_numpy(zero_copy_only=False) * 100.0) \
            .astype(np.int64)
        return pa.table({"k": b.column("o_orderkey").cast(pa.int64()),
                         "cents": pa.array(cents, pa.int64())})

    base = orders.map_batches(prep_base, batch_format="pyarrow")
    merged = q_orders_cdc_merge(sf_dir)
    return table_diff(base, merged, key_col="k", cols=["cents"])


def q_jaccard_join_exact(sf_dir: str):
    """EXACT set-similarity self-join (AllPairs/PPJoin prefix filter):
    every pair with distinct-8-gram Jaccard >= 0.8 -- recall 1 by the
    prefix-filtering theorem, no LSH approximation.  Restricted to
    doc_id < 500 so the O(n^2) SQL oracle stays tractable at sf0.01;
    the engine path is the scale shape (prefix-token shuffle, bucketed
    candidates, distributed cogroup verify with an INTEGER threshold
    compare).  8-grams: the corpus's 3-gram space is 980 tokens, so
    3-gram prefixes bucket every doc together (9.6s vs 2.4s measured
    at sf0.1; the qualifying pair set is identical)."""
    import pyarrow.compute as pc

    from equi7grid_ray.stages.setjoin import jaccard_similarity_join

    docs = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        lambda b: b.filter(pc.less(b.column("doc_id"), 500)),
        batch_format="pyarrow")
    return jaccard_similarity_join(docs, threshold=0.8, n=8)


def q_priority_transitions(sf_dir: str):
    """Per-customer order-priority transition matrix (the Markov-chain
    fit over each key's event sequence): consecutive orders by
    (o_orderdate, o_orderkey) emit (prev, cur) transitions, counted
    globally.  One customer-hash partition + vectorized shift per
    partition; lag() window mirror."""
    from equi7grid_ray.stages.aggregate import cogroup, hash_aggregate

    ods = _read(sf_dir, "orders",
                ["o_custkey", "o_orderkey", "o_orderdate",
                 "o_orderpriority"])

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({
            "ck": batch.column("o_custkey").cast(pa.int64()),
            "ok": batch.column("o_orderkey").cast(pa.int64()),
            "ts": pc.cast(pc.cast(batch.column("o_orderdate"),
                                  pa.timestamp("us")), pa.int64()),
            "pr": batch.column("o_orderpriority"),
        })

    def trans(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["ck", "ts", "ok"], kind="stable")
        ck = g["ck"].to_numpy()
        pr = g["pr"].to_numpy()
        same = np.empty(len(g), bool)
        if len(g) == 0:
            return pd.DataFrame({"prev_priority": [], "priority": [],
                                 "one": []})
        same[0] = False
        same[1:] = ck[1:] == ck[:-1]
        prev = np.roll(pr, 1)
        keep = same
        return pd.DataFrame({
            "prev_priority": prev[keep],
            "priority": pr[keep],
            "one": np.ones(int(keep.sum()), np.int64),
        })

    pairs = cogroup(ods.map_batches(prep, batch_format="pyarrow"), ["ck"],
                    trans, n_partitions=32)
    return hash_aggregate(
        pairs, keys=["prev_priority", "priority"],
        aggs={"n": ("one", "sum")}, n_partitions=8)


def q_part_affinity(sf_dir: str):
    """Market-basket co-occurrence (k=2 frequent itemsets): part pairs
    co-ordered in >= 2 distinct orders, with exact Q6-scaled lift.
    Basket-hash partition pairing (vectorized repeat/arange segments),
    keyed pair counts, broadcast marginals; plain self-join oracle."""
    from equi7grid_ray.stages.affinity import pair_affinity

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
    return pair_affinity(li, basket_col="l_orderkey",
                         item_col="l_partkey", min_support=2)


def q_containment_join(sf_dir: str):
    """Exact set-CONTAINMENT self-join (asymmetric AllPairs): ordered
    pairs where >= 80% of A's distinct 12-grams appear in B -- the
    quote / partial-copy detector Jaccard misses.  Probe prefixes +
    full index postings + integer-exact length/positional filters;
    doc_id < 500 keeps the brute-force SQL oracle tractable.
    12-grams: this corpus's short-gram space is tiny (980 distinct
    4-grams across 500 docs), so short grams make every doc pair a
    candidate (measured 54s at n=3, 29s at n=4, 5s at n=12) and the
    "contained" verdicts are vocabulary overlap, not copies; 12-gram
    containment finds the true near-copies."""
    import pyarrow.compute as pc

    from equi7grid_ray.stages.setjoin import containment_join

    docs = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        lambda b: b.filter(pc.less(b.column("doc_id"), 500)),
        batch_format="pyarrow")
    return containment_join(docs, threshold=0.8, n=12)


def q_props_json_extract(sf_dir: str):
    """Schema-on-read over the semi-structured JSON ``props`` column:
    one vectorized RE2 kernel (pc.extract_regex) pulls the ``k`` field
    out of every event, then a keyed aggregate per event_type.  Oracled
    against DuckDB's REAL JSON parser (json_extract), so the regex
    schema-on-read is proven equivalent to a full parse on this data."""
    import pyarrow.compute as pc

    from equi7grid_ray.stages.aggregate import hash_aggregate

    ev = _read(sf_dir, "events", ["event_type", "props"])

    def extract(batch: pa.Table) -> pa.Table:
        st = pc.extract_regex(batch.column("props"), r'"k": (?P<k>\d+)')
        k = pc.cast(pc.struct_field(st, "k"), pa.int64())
        t = pa.table({"event_type": batch.column("event_type"), "k": k})
        return t.filter(pc.is_valid(k))  # unparseable rows drop (none here)

    ds = ev.map_batches(extract, batch_format="pyarrow")
    return hash_aggregate(ds, keys=["event_type"],
                          aggs={"n": ("k", "count"),
                                "k_sum": ("k", "sum"),
                                "k_max": ("k", "max")})


def q_scd2_user_state(sf_dir: str):
    """SCD2 dimension build from the event stream: each user's ordered
    event_type runs become validity intervals (version, valid_from,
    valid_to) -- one hash-partition shuffle + one vectorized pass per
    partition.  Oracled via lag()/lead() window SQL."""
    from equi7grid_ray.stages.windows import scd2_intervals

    ev = _read(sf_dir, "events", ["user_id", "ts", "event_id", "event_type"])
    return scd2_intervals(ev)


def q_nchars_outliers(sf_dir: str):
    """Per-language z-score outlier documents (|x - mean| > 2 sigma on
    n_chars), computed in EXACT integer arithmetic (cleared of
    divisions) -- partial (n, sum, sumsq) fold, broadcast thresholds,
    vectorized flag pass.  Oracled via a HUGEINT mirror of the same
    inequality."""
    from equi7grid_ray.stages.profile import zscore_outliers

    docs = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    return zscore_outliers(docs, key_col="lang", val_col="n_chars",
                           id_col="doc_id", k=2)


# ViT-style patchify: each image -> (h//16)*(w//16) patch rows with
# exact integer pixel sums (the patch-embedding precursor).  Oracled
# by grouping the synthetic pixel formula by (r//16, c//16).
q_image_patches = _frame_query(mm.PatchStats, 500)


# Per-image histogram equalization in exact integer arithmetic
# (bincount -> cumsum -> floor-remap); checksums oracled via a window
# cumsum over the synthetic value histogram.
q_image_hist_eq = _frame_query(mm.HistEqualize, 500)


def q_image_dedup_ensemble(sf_dir: str):
    """Multi-signal image dedup: connected components over the UNION of
    the dHash and aHash near-dup pair graphs (each hash closes the
    other's blind spot).  Oracled against recursive-CTE reachability
    over the union of the two brute-force O(n^2) pair sets."""
    return mm.image_ensemble_canonical_ids(_images(500), max_dist=3)


# Paletted (color type 3) PNG decode stage: per-image pixel stats
# over PLTE-expanded payloads (pure-zlib palette decode, codec.py);
# oracled channel-exactly through the same 64-entry palette literal.
q_image_stats_pal = _frame_query(
    mm.DecodeImages, 300, make=images.make_pal_batch,
    select=["image_id", "px_mean"])


# Perceptual DCT hash (pHash): 16x16 grid -> integer 2-D DCT-II
# (shared Q14 basis) -> 63-coefficient median threshold.  Bit-exact
# vs sqlgen.image_phash_sql (quantile_disc = numpy partition[31]).
# Complements dHash: invariant to constant brightness shifts.
q_image_phash = _frame_query(mm.PHashImages, 300)


def q_image_dedup_canonical(sf_dir: str):
    """End-to-end image deduplication: banded-dHash near-dup pairs ->
    distributed connected components -> canonical image id per image
    (the image twin of dedup_canonical_docs).  Oracled against a
    recursive-CTE reachability over the brute-force O(n^2) pair graph."""
    return mm.image_canonical_ids(_images(500), max_dist=3)


def q_supplier_topk_per_nation(sf_dir: str):
    """Top-3 suppliers by lineitem revenue within each nation: keyed
    aggregate -> two broadcast dimension joins -> grouped_topk (batch
    combiner + partition cogroup).  SQL-oracled via row_number()."""
    import pyarrow.parquet as pq
    from ray.data.aggregate import Sum

    from equi7grid_ray.stages.join import broadcast_join
    from equi7grid_ray.stages.topk import grouped_topk

    li = _read(sf_dir, "lineitem", ["l_suppkey", "l_extendedprice"])

    def prep(batch: pa.Table) -> pa.Table:
        cents = np.rint(
            batch.column("l_extendedprice").to_numpy(zero_copy_only=False)
            * 100.0
        ).astype(np.int64)
        return pa.table({
            "s_suppkey": batch.column("l_suppkey").cast(pa.int64()),
            "cents": pa.array(cents, pa.int64()),
        })

    from equi7grid_ray.stages.aggregate import hash_aggregate

    # hash_aggregate, not the native sort-Aggregate: the AllToAll
    # operator pays ~40 ms/block fixed cost (5.4 s of a 6 s query here)
    rev = hash_aggregate(
        li.map_batches(prep, batch_format="pyarrow"),
        keys=["s_suppkey"], aggs={"cents": ("cents", "sum")},
    )
    supp = pq.read_table(f"{sf_dir}/supplier.parquet",
                         columns=["s_suppkey", "s_name", "s_nationkey"])
    nation = pq.read_table(f"{sf_dir}/nation.parquet",
                           columns=["n_nationkey", "n_name"])
    j1 = broadcast_join(rev, supp, on="s_suppkey", how="inner")

    def renk(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(
            ["n_nationkey" if c == "s_nationkey" else c
             for c in batch.column_names]
        )

    j2 = broadcast_join(j1.map_batches(renk, batch_format="pyarrow"),
                        nation, on="n_nationkey", how="inner")
    top = grouped_topk(j2, key="n_name", value="cents", k=3,
                       tie_cols=["s_suppkey"], n_partitions=16)
    return top.select_columns(["n_name", "s_name", "cents"])


_SAMPLE_RATES = {"en": 0.5, "de": 0.25, "fr": 0.125}


def q_docs_stratified_sample(sf_dir: str):
    """Deterministic per-language sample (hash-membership: same rows on
    any run / cluster size / block layout).  SQL-oracled via the
    splitmix64 mirror."""
    from equi7grid_ray.stages.sample import stratified_sample

    docs = _read(sf_dir, "documents", ["doc_id", "lang"])
    return stratified_sample(docs, "lang", _SAMPLE_RATES,
                             default_rate=0.0625)


# Real PCM DSP (no codec): payload bytes as s16le samples ->
# integer energy / zero-crossings / peak per clip.  SQL-oracled
# against the synthetic payload pattern (sqlgen.audio_pcm_sql).
q_audio_pcm_features = _frame_query(
    mm.PCMAudioFeatures, 500, concurrency=(1, 4))


# Anti-aliased 4:1 PCM decimation: blocks of 4 samples collapse
# to their truncated-toward-zero mean; per clip the downsampled
# energy / peak / length.  SQL groups k//4 over the regenerated
# sample table with the same trunc-division rule.
q_audio_downsample = _frame_query(
    mm.AudioDownsample, 500, concurrency=(1, 4))


def q_frame_sample(sf_dir: str):
    """Video frame-sampling plumbing (deterministic fake demux)."""
    from ray.data.aggregate import Count

    return _frame_query(mm.FrameSampler, 100)(sf_dir) \
        .groupby("frame_index").aggregate(Count(alias_name="n"))


def q_top_terms(sf_dir: str):
    """Global top-50 whitespace tokens by occurrence
    (stages/text.top_terms): per-batch Arrow value_counts combiner ->
    distinct-token shuffle -> deterministic (n desc, token asc)
    sort+limit.  SQL-oracled."""
    from equi7grid_ray.stages.text import top_terms

    ds = _read(sf_dir, "documents", ["text"])
    return top_terms(ds, col="text", k=50)


def q_docs_split_counts(sf_dir: str):
    """Deterministic train/val/test assignment (stages/sample.
    assign_splits: id-hash ladder, stable across runs/cluster sizes,
    nested with hash_sample) -> per-(split, lang) counts.  SQL-oracled
    with the same splitmix64 ladder and integer thresholds."""
    from ray.data.aggregate import Count

    from equi7grid_ray.stages.sample import assign_splits

    ds = _read(sf_dir, "documents", ["doc_id", "lang"])
    lab = assign_splits(ds, {"train": 0.8, "val": 0.1, "test": 0.1})
    return lab.groupby(["split", "lang"]).aggregate(Count(alias_name="n"))


def q_contaminated_docs(sf_dir: str):
    """Benchmark decontamination (stages/dedup.flag_contaminated): the
    first 20 documents act as the benchmark suite; every other doc is
    flagged iff it shares ANY char-24-gram with them.  Benchmark window
    hashes broadcast once; each corpus batch is one vectorized Horner
    pass + searchsorted membership -- zero shuffle.  SQL-oracled with
    the same Horner hashes on both sides."""
    import pyarrow.parquet as pq

    from equi7grid_ray.stages.dedup import flag_contaminated

    bench = pq.read_table(f"{sf_dir}/documents.parquet",
                          columns=["doc_id", "text"])
    bench = bench.filter(pc.less(bench.column("doc_id"), 20))
    ds = _read(sf_dir, "documents", ["doc_id", "text"]).filter(
        expr="doc_id >= 20")
    return flag_contaminated(ds, bench.column("text"), k=24)


def q_doc_tfidf_topk(sf_dir: str):
    """Two-pass TF-IDF (stages/text.tfidf_topk): bounded deterministic
    df vocabulary (top-4096 by df desc, token asc) -> broadcast ->
    batch-local per-doc top-3 by the ALL-INTEGER score
    tf * (n_docs * 1000 // df), token-ascending ties.  SQL-oracled via
    window row_number."""
    import pyarrow.parquet as pq

    from equi7grid_ray.stages.text import tfidf_topk

    n_docs = pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return tfidf_topk(ds, n_docs=n_docs, k=3, max_vocab=4096)


# REAL frame sampling over raw planar video payloads
# (stages/multimodal.RawVideoFrames): every 5th frame's integer luma
# stats via zero-copy reshape + strided reduce -- the post-demux
# kernel is genuine (container demux stays gated on absent ffmpeg).
# SQL-oracled (sqlgen.video_frames_sql).
q_video_frame_stats = _frame_query(mm.RawVideoFrames, 200, every=5)


_ASOF_GAP_W = 21_600_000_000  # 6 h in microseconds (range-join window)


def q_events_asof_click(sf_dir: str):
    """Point-in-time join: each 'purchase' event matched to the SAME
    user's most recent 'click' at-or-before it (asof_join operator:
    hash-partition by user, one pandas.merge_asof per partition), then
    per-user totals.  SQL-oracled via DuckDB ASOF LEFT JOIN."""
    from ray.data.aggregate import Count, Sum

    from equi7grid_ray.stages.join import asof_join

    ev = _read(sf_dir, "events", ["user_id", "ts", "event_type"])

    def prep(kind: str, carry: str | None):
        def fn(batch: pa.Table) -> pa.Table:
            keep = pc.equal(batch.column("event_type"), kind)
            b = batch.filter(keep)
            ts_us = pc.cast(b.column("ts"), pa.int64())
            cols = {
                "user_id": b.column("user_id").cast(pa.int64()),
                "ts_us": ts_us,
            }
            if carry:
                # merge_asof consumes the 'on' column; carry a copy so
                # the matched right timestamp survives into the output
                cols[carry] = ts_us
            return pa.table(cols)

        return fn

    purchases = ev.map_batches(prep("purchase", None), batch_format="pyarrow")
    clicks = ev.map_batches(prep("click", "click_ts_us"), batch_format="pyarrow")
    j = asof_join(purchases, clicks, on="ts_us", by="user_id",
                  direction="backward")

    def post(batch: pa.Table) -> pa.Table:
        click = batch.column("click_ts_us")
        matched = pc.cast(pc.is_valid(click), pa.int64())
        # unmatched rows null-upcast the column to float64; epoch-us
        # values are < 2^53 so the round-trip back to int64 is exact
        click_i = pc.cast(pc.fill_null(click, 0), pa.int64())
        ts_i = pc.cast(batch.column("ts_us"), pa.int64())
        gap = pc.multiply(pc.subtract(ts_i, click_i), matched)
        return pa.table({
            "user_id": pc.cast(batch.column("user_id"), pa.int64()),
            "matched": matched,
            "gap_us": gap,
        })

    return (
        j.map_batches(post, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(
            Count(alias_name="n_purchases"),
            Sum("matched", alias_name="n_matched"),
            Sum("gap_us", alias_name="sum_gap_us"),
        )
    )


def q_events_range_join(sf_dir: str):
    """Interval self-join: for every event, the same user's events in
    the 6 h AFTER it (strictly later), counted by (earlier, later)
    event-type pair.  range_join operator: bucket-replicated intervals,
    one vectorized merge per bucket, no dedup needed.  SQL-oracled by a
    plain inequality self-join."""
    from ray.data.aggregate import Count

    from equi7grid_ray.stages.join import range_join

    ev = _read(sf_dir, "events", ["user_id", "ts", "event_type"])

    def prep_left(batch: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": batch.column("user_id").cast(pa.int64()),
            "ts_us": pc.cast(batch.column("ts"), pa.int64()),
            "type_b": batch.column("event_type"),
        })

    def prep_right(batch: pa.Table) -> pa.Table:
        ts_us = pc.cast(batch.column("ts"), pa.int64())
        return pa.table({
            "user_id": batch.column("user_id").cast(pa.int64()),
            "ts_lo": pc.add(ts_us, 1),
            "ts_hi": pc.add(ts_us, _ASOF_GAP_W),
            "type_a": batch.column("event_type"),
        })

    left = ev.map_batches(prep_left, batch_format="pyarrow")
    right = ev.map_batches(prep_right, batch_format="pyarrow")
    from ray.data.aggregate import Sum

    j = range_join(left, right, left_on="ts_us", right_lo="ts_lo",
                   right_hi="ts_hi", by="user_id",
                   bucket_width=float(_ASOF_GAP_W))

    def partial_count(batch: pa.Table) -> pa.Table:
        # combiner: one tiny (type_a, type_b, pn) table per join block,
        # so the final shuffle moves O(buckets * type-pairs) rows
        df = batch.select(["type_a", "type_b"]).to_pandas()
        g = df.value_counts(["type_a", "type_b"]).reset_index(name="pn")
        return pa.Table.from_pandas(g, preserve_index=False)

    return (
        j.map_batches(partial_count, batch_format="pyarrow")
        .groupby(["type_a", "type_b"])
        .aggregate(Sum("pn", alias_name="n"))
    )


def q_doc_quality(sf_dir: str):
    """Quality-score histogram: integer-bucketed mean-token-length,
    digit/punct deciles and stopword rate per lang (the counts under
    stages.text.quality_score's float ratios, bucketed in pure integer
    arithmetic so the SQL oracle is bit-exact)."""
    from ray.data.aggregate import Count

    from equi7grid_ray.stages.text import quality_buckets

    docs = _read(sf_dir, "documents", ["doc_id", "text", "lang"])
    out = docs.map_batches(quality_buckets, batch_format="pyarrow")
    return (
        out.groupby(["lang", "mtl_bucket", "digit_decile", "stop_pm_bucket"])
        .aggregate(Count(alias_name="n"))
    )


def q_fingerprint_docs(sf_dir: str):
    """Per-document 64-bit rolling polynomial fingerprint
    (stages.text.fingerprint64, offset-buffer pass).  SQL-oracled by a
    HUGEINT mod-2^64 mirror of the byte polynomial + splitmix64."""
    from equi7grid_ray.stages.text import fingerprint64

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return docs.map_batches(fingerprint64, batch_format="pyarrow")


def entry() -> Any:
    """Flagship smoke: sf0.001 lineitem -> derived global coordinates ->
    zone PIP -> AEQD forward -> tile assignment rows."""
    from equi7grid_ray.stages.tile_assign import TileAssigner

    ds = _read("/root/testdata/sf0.001", "lineitem", ["l_orderkey", "l_partkey"])

    def prep(batch: pa.Table) -> pa.Table:
        lon_u, lat_u = _derive_udeg(batch)
        ok = batch.column("l_orderkey").to_numpy(zero_copy_only=False)
        pk = batch.column("l_partkey").to_numpy(zero_copy_only=False)
        ids = np.asarray(ok, np.int64) * 100000 + np.asarray(pk, np.int64)
        # vectorized id build (no per-row f-string): zero-pad to 12 digits
        id_str = np.char.add("img", np.char.zfill(ids.astype("U20"), 12))
        return pa.table({
            "image_id": pa.array(id_str.tolist(), pa.string()),
            "lon_udeg": pa.array(lon_u, pa.int64()),
            "lat_udeg": pa.array(lat_u, pa.int64()),
        })

    return ds.map_batches(prep, batch_format="pyarrow").map_batches(
        TileAssigner,
        fn_constructor_kwargs=dict(exact_projection=True),
        batch_format="pyarrow",
        concurrency=(1, 2),
        num_cpus=1,
    )


# Overview-pyramid build (COG .ovr step): per image, levels 1..3
# block-MEAN downsample in exact integer arithmetic; per-level
# checksums oracled by grouping the synthetic pixel formula by
# (r // 2^l, c // 2^l).
q_image_pyramid = _frame_query(mm.PyramidStats, 300)


# Dominant-line detection per frame: exact integer Hough voting
# at the four axis/diagonal orientations (rho = c, r+c, r, r-c) over
# interior Sobel edge pixels; best = max votes, ties to smallest
# orient then rho.  Four bincounts per frame; SQL mirrors the vote
# table and picks the winner with row_number().
q_image_hough4 = _frame_query(mm.HoughLines4, 300)


# Capped Chebyshev distance-transform histogram per frame
# (proximity analysis): foreground = pixels >= 200, distances binned
# at 0 / 1 / 2 / far via two frame-clipped 3x3 dilations.  SQL
# mirrors with EXISTS over the 3x3 and 5x5 offset neighbourhoods.
q_image_dt = _frame_query(mm.DistanceTransform, 300)


# Per-image Sobel edge energy (blur/quality precursor) over the
# interior in exact integers; oracled by evaluating the synthetic
# pixel formula at the nine kernel offsets directly in SQL.
q_image_sobel = _frame_query(mm.SobelStats, 300)


# Per-image raw + denominator-cleared central moments (the Hu
# shape-descriptor front half) in exact int64; SQL mirror is plain
# BIGINT sums over the synthetic pixel formula.
q_image_moments = _frame_query(mm.MomentStats, 300)


_HARRIS_T = 1_000_000_000


# Per-image Harris corner response (k=1/16, cross-multiplied so
# everything stays int64): corner count above threshold, max
# response, positive-response mass.  SQL mirror chains two 1-D
# window sums (separable 3x3 box) over the gradient formula.
q_image_harris = _frame_query(mm.HarrisStats, 200, thresh=_HARRIS_T)


# Per-image exact Otsu threshold (argmax of between-class variance
# by cross-multiplied bigint comparison, smallest t wins ties) +
# foreground stats; oracled via a HUGEINT NOT-EXISTS anti-join over
# the 255 candidates.
q_image_otsu = _frame_query(mm.OtsuThreshold, 300)


def q_pagerank_q(sf_dir: str):
    """Exact fixed-point PageRank (Q1e12 integer ranks, 3 rounds,
    dangling mass dropped) over a derived 1000-node directed graph --
    one hash_aggregate dedupes the edges (at most 1000 x 1000), then
    the rounds run in one task as numpy scatters.  Oracle: the same 3
    rounds unrolled in SQL."""
    from equi7grid_ray.stages.graph import pagerank_int

    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])

    def to_edges(batch: pa.Table) -> pa.Table:
        ok = batch.column("l_orderkey").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        pk = batch.column("l_partkey").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        return pa.table({
            "src": pa.array(ok % 1000, pa.int64()),
            "dst": pa.array((pk * 7) % 1000, pa.int64()),
        })

    return pagerank_int(ds.map_batches(to_edges, batch_format="pyarrow"))


def q_collocations_pmi(sf_dir: str):
    """Corpus collocation extraction: top-50 adjacent-token bigrams by
    integer-quantized PMI (exact bigint scoring, HUGEINT SQL mirror);
    token occurrences never shuffle -- only distinct-count partials."""
    from equi7grid_ray.stages.text import collocations_pmi

    docs = _read(sf_dir, "documents", ["text"])
    return collocations_pmi(docs)


def q_tile_mosaic(sf_dir: str):
    """Tile mosaic composite -- the geospatial x image centerpiece:
    scenes -> Equi7 T6 tile (geodesic center assignment) -> per-image
    8x8 exact block-mean grid -> per-(tile, cell) MAX/SUM/count
    composite.  Pixels never shuffle (per-batch tile partials); oracled
    through the synthetic pixel formula joined to the pinned
    image->tile lookup golden (tools/gen_oracle_lookups.py)."""

    from equi7grid_ray.stages.mosaic import tile_mosaic

    return tile_mosaic(_tiled_scenes())


# Per-image blob labeling: 4-connected components of the v >= 128
# foreground (run-based union-find, O(runs) not O(pixels)); oracled
# via a recursive-CTE reachability closure over the same run
# adjacency graph (32x32 fixture slice keeps the closure small).
q_image_blobs = _frame_query(mm.BlobStats, 900, where={"w": 32, "h": 32})


def q_doc_chunks(sf_dir: str):
    """RAG chunking: overlapping 32-token windows at stride 24 over
    every document, one inventory row per chunk with exact token span
    + joined character length — map-only, one flattened prefix-sum
    pass per batch.  SQL mirrors via string_split + LATERAL range +
    1-based list slicing."""
    from equi7grid_ray.stages.text import doc_chunks

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(
        lambda b: doc_chunks(b, window=32, stride=24),
        batch_format="pyarrow")


# Adaptive quadtree census: blocks split while pixel range > 60
# down to level 3; per-frame leaf count / depth mass / deepest-level
# count.  SQL mirrors with per-level block ranges + a 3-ancestor
# split-chain join.
q_image_quadtree = _frame_query(
    mm.QuadtreeStats, 900, where={"w": 32, "h": 32})


# Template matching (chip co-registration): exact SAD of a fixed
# 8x8 template at every placement in each 32x32 frame, with the
# row-major argmin tie rule; SQL evaluates the same |pixel-template|
# lattice and reproduces the tie rule via min-filter + row_number.
_SAD_TEMPLATE = (np.arange(8, dtype=np.int64)[:, None] * 13
                 + np.arange(8, dtype=np.int64)[None, :] * 7 + 3) % 256
q_image_template = _frame_query(
    mm.TemplateSAD, 900, where={"w": 32, "h": 32}, template=_SAD_TEMPLATE)


def q_header_audit(sf_dir: str):
    """Metadata-vs-payload audit with deterministically injected
    corruption: rows i%11==3 get a bumped declared width (metadata
    drift), rows i%13==5 get their first payload byte flipped
    (bitrot).  The audit stage must actually parse the bytes (PNG
    signature + big-endian IHDR dims; raw length contract) to agree
    with the SQL's rule-derived expectation: raw rows hide the bitrot
    (no magic to check) but expose the width bump via byte length,
    PNG rows expose both, signature first."""

    from equi7grid_ray.stages.aggregate import hash_aggregate

    ds = _images(2000)

    def corrupt(batch: pa.Table) -> pa.Table:
        i = pc.cast(pc.utf8_slice_codeunits(batch.column("image_id"), 3, 32),
                    pa.int64()).to_numpy(zero_copy_only=False)
        w = batch.column("w").to_numpy().astype(np.int32)
        w = np.where(i % 11 == 3, w + 1, w)
        payloads = batch.column("bytes").to_pylist()
        for j in np.flatnonzero(i % 13 == 5).tolist():
            b = bytearray(payloads[j])
            b[0] ^= 0xFF
            payloads[j] = bytes(b)
        return pa.table({
            "image_id": batch.column("image_id"),
            "bytes": pa.array(payloads, pa.binary()),
            "w": pa.array(w, pa.int32()),
            "h": batch.column("h"),
            "fmt": batch.column("fmt"),
        })

    audited = ds.map_batches(corrupt, batch_format="pyarrow").map_batches(
        mm.HeaderAudit, batch_format="pyarrow", concurrency=(1, 2), num_cpus=1)
    return hash_aggregate(audited, keys=["fmt", "reason"],
                          aggs={"n": ("fmt", "count")}, n_partitions=4)


# Per-blob geometry: one row per 4-connected foreground component
# with canonical label pixel, bounding box and area (the
# raster->vector feature step after segmentation); recursive-CTE
# closure oracle with per-root min/max/sum.
q_blob_bbox = _frame_query(mm.BlobBoxes, 900, where={"w": 32, "h": 32})


# Per-image scanline run-length stats (compressibility signal):
# run count + longest run, one vectorized diff pass per frame;
# lag()-based gaps-and-islands SQL mirror.
q_image_rle = _frame_query(mm.RleStats, 300)


def q_image_hist_match(sf_dir: str):
    """Radiometric normalization: every scene's histogram matched to
    the corpus-wide reference histogram (one bounded 256-bin aggregate,
    broadcast into the remap stage) -- the pre-mosaic seam-line killer.
    Cross-multiplied exact-integer matching rule; SQL min()-filter
    mirror."""
    ds = _images(300)
    ref = mm.global_histogram(ds)
    return ds.map_batches(
        mm.MatchHistogram, fn_constructor_kwargs=dict(ref_hist=ref),
        batch_format="pyarrow", concurrency=(1, 2), num_cpus=1,
    )


def q_tile_focal_mean(sf_dir: str):
    """Distributed 3x3 focal mean over the tile-mosaic composite with
    cross-tile halo exchange (edge cells read +/-6-easting/northing
    neighbour tiles of the same continent).  Scatter to packed window
    keys -> one hash_aggregate -> join back on existing centers; SQL
    gather mirror via tile-name arithmetic over the same composite."""

    from equi7grid_ray.stages.mosaic import tile_focal_mean, tile_mosaic

    return tile_focal_mean(tile_mosaic(_tiled_scenes()))


# NDVI-shaped raster band algebra over RGB payloads (exact
# integers, Q12-quantized normalized difference); channel-exact SQL
# mirror over the RGB fixture's band-offset pixel formula.
q_rgb_band_algebra = _frame_query(mm.BandAlgebra, 300, make=images.make_rgb_batch)


# Per-image 3x3 binary erosion/dilation counts over the v >= 128
# mask interior (segmentation mask clean-up between Otsu and blob
# labeling); SQL mirror sums the nine mask indicators of the
# synthetic pixel formula.
q_image_morph = _frame_query(mm.MorphStats, 300)


def _tiled_scenes(n: int = 2000, start: int = 0, emit_id: bool = False):
    """Scenes [start, start + n) with their payloads -> tile
    assignments: the shared prep of the tile-composite queries."""
    import ray.data as rd

    from equi7grid_ray.pipelines.flagship import tile_assignments

    return tile_assignments(
        rd.from_arrow(images.make_batch(start, n)),
        passthrough=("bytes", "w", "h", "fmt"),
        emit_cell=False, emit_xy=False, emit_id=emit_id)


def _scene_cells(n: int = 2000):
    """Shared prep for the temporal-composite queries: scenes -> tile
    assignment -> per-(scene, tile) 8x8 exact block-mean cell rows."""
    from equi7grid_ray.stages.temporal import SceneCellMeans

    return _tiled_scenes(n, emit_id=True).map_batches(
        SceneCellMeans, batch_format="pyarrow", concurrency=(1, 4),
        num_cpus=1,
    )


def q_tile_temporal_median(sf_dir: str):
    """Temporal-MEDIAN composite per (tile, cell): exact lower-median
    (DuckDB quantile_disc(0.5) rule) / min / max / scene count of the
    per-scene block means.  Pixels never shuffle; the median runs as
    one lexsort pass per tile-hash partition."""
    from equi7grid_ray.stages.temporal import tile_temporal_median

    return tile_temporal_median(_scene_cells())


def q_tile_change_detect(sf_dir: str):
    """Two-epoch change detection per tile (epoch = scene-index parity):
    per-cell epoch MAX composites compared cell-by-cell, |delta| >= 8
    counts as changed; cells seen in only one epoch dropped.  One keyed
    aggregate with conditional-max sentinels + a per-tile rollup."""
    from equi7grid_ray.stages.temporal import tile_change_detect

    return tile_change_detect(_scene_cells())


def _assigned_scenes(n: int = 2000):
    """Scenes -> tile assignments (metadata only; payloads not carried)."""
    import ray.data as rd

    from equi7grid_ray.pipelines.flagship import tile_assignments

    ds = rd.from_arrow(images.make_batch(0, n).select(["image_id"]))
    return tile_assignments(
        ds, emit_cell=False, emit_xy=False, emit_id=True)


def q_tile_kring(sf_dir: str):
    """K-ring coverage density: per observed tile, observed
    same-continent neighbors (and their scene mass) within Chebyshev
    distance 2 on the T6 lattice — the halo-planning statistic.  SQL
    self-joins the signed-northing name parse with abs-diff bounds."""
    from equi7grid_ray.stages.tilestats import tile_kring

    return tile_kring(_assigned_scenes())


def q_coverage_gini(sf_dir: str):
    """Per-continent Gini coefficient of per-tile scene counts -- the
    coverage-equity statistic behind acquisition-tasking rebalancing.
    Exact ascending-rank closed form in integers (ties need no rule:
    equal counts contribute the same mass under any rank order); the
    only shuffle is the per-tile COUNT, the fold runs over the bounded
    tile table.  SQL mirrors with row_number() per continent."""
    from equi7grid_ray.stages.tilestats import coverage_gini

    return coverage_gini(_assigned_scenes())


def q_tile_basins(sf_dir: str):
    """Watershed basin delineation over the tile composite treated as
    a DEM (hydrology step three after tile_flow_d8 / tile_flow_accum):
    every interior cell is labeled with its terminal D8 sink by
    pointer doubling (<= 8 rounds: elevation strictly drops along
    every edge and values are 8-bit, so path depth <= 255), run in one
    task over the collected flow edges; one row per basin with the sink's cell, elevation, member count and exact
    member-elevation mass.  SQL mirrors the transitive closure with a
    recursive CTE over the same flow edges and keeps the terminal row
    per start cell."""

    from equi7grid_ray.stages.mosaic import tile_basins, tile_mosaic

    return tile_basins(tile_mosaic(_tiled_scenes()))


def q_tile_tri(sf_dir: str):
    """Terrain Ruggedness Index over the tile composite (sqrt-free
    Riley form): per interior cell the exact sum of absolute
    differences to its 8 Moore neighbours, via the shared packed D8
    halo exchange.  SQL gathers the 8 neighbours by tile-name
    arithmetic and sums abs diffs."""

    from equi7grid_ray.stages.mosaic import tile_mosaic, tile_tri

    return tile_tri(tile_mosaic(_tiled_scenes()))


def q_tile_aspect(sf_dir: str):
    """Downslope aspect histogram per continent: central-difference
    gradient with halo exchange, 8-sector compass classification in
    exact integers (45-degree boundaries land exactly on |u| == |w|),
    flat = 0.  Bounded 7 x 9 output; SQL mirrors the gradient gather
    plus the CASE sector rule."""

    from equi7grid_ray.stages.mosaic import tile_aspect, tile_mosaic

    return tile_aspect(tile_mosaic(_tiled_scenes()))


def q_tile_cost_distance(sf_dir: str):
    """Least-cost accessibility surface over the observed T6 lattice:
    bounded Bellman-Ford from each continent's busiest tiles, entering
    tile t costs 1 + scene_count % 4, 8 synchronous relaxation rounds,
    unreached -> -1.  Only the per-tile COUNT shuffles; the relaxation
    is four numpy gathers per round over the bounded tile table.  SQL
    unrolls the same rounds as materialized CTEs with four LEFT JOINs
    each."""
    from equi7grid_ray.stages.tilestats import tile_cost_distance

    return tile_cost_distance(_assigned_scenes())


def q_tile_moran(sf_dir: str):
    """Moran's I spatial autocorrelation of the per-tile scene count
    over rook-adjacent T6 tiles (exact bigint arithmetic, trunc-division
    quotient; intermediates emitted so the oracle pins the whole
    computation).  Only the per-tile COUNT shuffles; the fold runs over
    the bounded tile table."""
    from equi7grid_ray.stages.tilestats import tile_moran

    return tile_moran(_assigned_scenes())


def q_tile_revisit(sf_dir: str):
    """Per-tile revisit cadence: scene count, first/last scene index,
    largest acquisition gap.  One lexsort + reduceat pass per tile-hash
    partition; lag()-based SQL mirror over the pinned lookup."""
    from equi7grid_ray.stages.tilestats import tile_revisit

    return tile_revisit(_assigned_scenes())


def q_pii_scrub(sf_dir: str):
    """PII scrub over documents: deterministic email/phone injection
    (the synthetic corpus carries no digits) followed by vectorized RE2
    count + redact; the full redacted text is emitted so the oracle
    checks the replacement byte-for-byte.  Both engines run RE2, so the
    patterns are shared verbatim."""
    from equi7grid_ray.stages.text import pii_scrub

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def inject(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        base = np.asarray(batch.column("text").to_pylist(), dtype=object)
        em = ids % 7 == 0
        ph = ids % 11 == 0
        sfx = np.array([""] * len(ids), dtype=object)
        idstr = ids.astype("U20")
        sfx[em] = np.char.add(
            np.char.add(" contact user", idstr[em]), "@example.com")
        sfx[ph] = np.asarray(sfx[ph], dtype=object) + np.char.add(
            np.char.add(" call +1 555 000 ",
                        np.char.zfill((ids[ph] % 10000).astype("U4"), 4)),
            " now")
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "text": pa.array((base + sfx).tolist(), pa.string()),
        })

    return docs.map_batches(inject, batch_format="pyarrow").map_batches(
        pii_scrub, batch_format="pyarrow")


# Per-image GLCM texture features (Haralick contrast / energy over
# horizontal pairs at 8 quantized levels) in exact integers; SQL
# mirror groups the synthetic pixel formula's (qa, qb) pairs.
q_image_glcm = _frame_query(mm.GLCMStats, 300)


def q_tile_coverage(sf_dir: str):
    """Archive-completeness report per continent: tiles in zone vs
    tiles observed (and land tiles observed) by the 2000-scene sweep,
    plus scene count and a per-mille coverage ratio.  The per-tile
    COUNT is the only shuffle; zone totals ride the broadcast tile
    inventory (export.tiles_table), never a scan."""
    from equi7grid_ray.export import tiles_table
    from equi7grid_ray.stages.aggregate import hash_aggregate
    from equi7grid_ray.stages.tilestats import tile_counts

    per_tile = tile_counts(_assigned_scenes(), name="n")

    inv = tiles_table("T6", with_wkt=False)
    land = dict(zip(inv.column("tile").to_pylist(),
                    inv.column("covers_land").to_pylist()))
    zone_n: dict[str, int] = {}
    zone_land: dict[str, int] = {}
    for t, lv in land.items():
        zone_n[t[:2]] = zone_n.get(t[:2], 0) + 1
        zone_land[t[:2]] = zone_land.get(t[:2], 0) + int(lv)

    def fold(batch: pa.Table) -> pa.Table:
        tiles = batch.column("tile").to_pylist()
        ns = batch.column("n").to_numpy()
        cont = [t[:2] for t in tiles]
        return pa.table({
            "continent": pa.array(cont, pa.string()),
            "seen": pa.array(np.ones(len(tiles), np.int64)),
            "land_seen": pa.array(
                np.array([int(land[t]) for t in tiles], np.int64)),
            "n_sc": pa.array(ns, pa.int64()),
        })

    per_cont = hash_aggregate(
        per_tile.map_batches(fold, batch_format="pyarrow"),
        keys=["continent"],
        aggs={"n_seen": ("seen", "sum"),
              "n_land_seen": ("land_seen", "sum"),
              "n_scenes": ("n_sc", "sum")},
        n_partitions=8,
    )

    def ratios(batch: pa.Table) -> pa.Table:
        cont = batch.column("continent").to_pylist()
        seen = batch.column("n_seen").to_numpy()
        zn = np.array([zone_n[c] for c in cont], np.int64)
        zl = np.array([zone_land[c] for c in cont], np.int64)
        return pa.table({
            "continent": batch.column("continent"),
            "n_zone": pa.array(zn, pa.int64()),
            "n_land_zone": pa.array(zl, pa.int64()),
            "n_seen": batch.column("n_seen"),
            "n_land_seen": batch.column("n_land_seen"),
            "n_scenes": batch.column("n_scenes"),
            "cover_pm": pa.array(seen * 1000 // zn, pa.int64()),
        })

    return per_cont.map_batches(ratios, batch_format="pyarrow")


def q_tile_clusters(sf_dir: str):
    """Contiguous-coverage regions: connected components of observed
    tiles under rook adjacency, labeled by the lexicographically-min
    member tile (order-isomorphic int encoding -> graph components ->
    decode).  Oracle: recursive-CTE min-label reachability over the
    same adjacency."""
    from equi7grid_ray.stages.tilestats import tile_clusters

    return tile_clusters(_assigned_scenes())


def q_best_scene_topk(sf_dir: str):
    """Best-scene selection per tile (the mosaic input picker): top-2
    scenes by total block-mean brightness (exact integers, scene-index
    tiebreak).  Per-(tile, scene) partials ride one keyed aggregate,
    then the existing grouped_topk two-phase prune; SQL mirror is a
    row_number() window over the same blk CTE."""
    from equi7grid_ray.stages.aggregate import hash_aggregate
    from equi7grid_ray.stages.topk import grouped_topk

    cells = _scene_cells()
    per_scene = hash_aggregate(
        cells, keys=["tile", "i"], aggs={"q": ("m", "sum")})
    return grouped_topk(per_scene, key="tile", value="q", k=2,
                        tie_cols=["i"])


def q_source_checksums(sf_dir: str):
    """Anti-entropy table checksums per source partition (the
    replication/migration verifier): order-independent mod-2^64 sum of
    per-document fingerprints + row count.  Zero shuffle beyond the
    8-key aggregate; SQL reuses the exact fingerprint mirror."""
    from equi7grid_ray.stages.text import fingerprint64

    docs = _read(sf_dir, "documents", ["doc_id", "text", "source"])

    def fp(batch: pa.Table) -> pa.Table:
        f = fingerprint64(batch)
        return pa.table({
            "source": batch.column("source"),
            "fp": f.column("fingerprint"),
            "one": pa.array(np.ones(batch.num_rows, np.int64)),
        })

    def wrap_sum(batch: pa.Table, val_col: str, n_col: str | None,
                 out_sum: str, out_n: str) -> pa.Table:
        # order-independent mod-2^64 fold: np.add.at on a uint64
        # accumulator wraps exactly (the checksum contract)
        import pandas as pd

        codes, uniq = pd.factorize(batch.column("source").to_pandas())
        acc = np.zeros(len(uniq), np.uint64)
        np.add.at(acc, codes, batch.column(val_col).to_numpy()
                  .view(np.uint64))
        ns = np.zeros(len(uniq), np.int64)
        np.add.at(ns, codes,
                  batch.column(n_col).to_numpy() if n_col
                  else np.ones(batch.num_rows, np.int64))
        return pa.table({
            "source": pa.array(uniq.tolist(), pa.string()),
            out_sum: pa.array(acc.view(np.int64), pa.int64()),
            out_n: pa.array(ns, pa.int64()),
        })

    parts = docs.map_batches(fp, batch_format="pyarrow").map_batches(
        lambda b: wrap_sum(b, "fp", None, "psum", "pn"),
        batch_format="pyarrow")

    from equi7grid_ray.stages.aggregate import cogroup

    return cogroup(parts, ["source"],
                   lambda t: wrap_sum(t, "psum", "pn", "csum", "n_docs"),
                   n_partitions=8, batch_format="pyarrow")


def q_tile_gaps(sf_dir: str):
    """Acquisition-gap list: land tiles of the zone inventory with NO
    scene observed by the sweep (the retasking worklist).  Observed set
    is the bounded per-tile aggregate; the anti-join runs against the
    broadcast tile inventory."""
    import ray.data as rd

    from equi7grid_ray.export import tiles_table
    from equi7grid_ray.stages.tilestats import tile_counts

    per_tile = tile_counts(_assigned_scenes(), name="n")
    seen = set(per_tile.to_pandas()["tile"])
    inv = tiles_table("T6", with_wkt=False)
    keep = [
        (t, c) for t, c, lv in zip(inv.column("tile").to_pylist(),
                                   inv.column("continent").to_pylist(),
                                   inv.column("covers_land").to_pylist())
        if lv and t not in seen
    ]
    return rd.from_arrow(pa.table({
        "tile": pa.array([t for t, _ in keep], pa.string()),
        "continent": pa.array([c for _, c in keep], pa.string()),
    }))


def q_cell_pyramid(sf_dir: str):
    """Multi-level quadtree cell rollup (the web-viewer zoom pyramid):
    counts at levels 5..9 in ONE pass -- per batch, per level, a
    vectorized unique-count partial; one keyed aggregate over (level-
    tagged) cell ids.  SQL mirror is a UNION ALL over the 5 levels."""
    from equi7grid_ray.stages.aggregate import hash_aggregate

    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
    LEVELS = (5, 6, 7, 8, 9)

    def stage(batch: pa.Table) -> pa.Table:
        lon_u, lat_u = _derive_udeg(batch)
        lon_off = lon_u + 180_000_000
        lat_off = lat_u + 90_000_000
        cells_all = []
        for L in LEVELS:
            n = np.int64(1 << L)
            ix = lon_off * n // _LONMOD
            iy = lat_off * n // _LATMOD
            cells_all.append((np.int64(L) << 58) + (iy << 29) + ix)
        u, cnt = np.unique(np.concatenate(cells_all), return_counts=True)
        return pa.table({
            "cell": pa.array(u, pa.int64()),
            "pn": pa.array(cnt.astype(np.int64), pa.int64()),
        })

    return hash_aggregate(
        ds.map_batches(stage, batch_format="pyarrow"),
        keys=["cell"], aggs={"n": ("pn", "sum")})


_LATE_D_US = 3_600_000_000  # 1 h watermark delay


def q_late_events(sf_dir: str):
    """Streaming watermark semantics: per user, events arriving (in
    event_id processing order) more than 1 h behind the running
    event-time high-water mark -- count + worst lateness.  One pandas
    cummax/shift pass per user-hash partition; window-function SQL
    mirror."""
    import pandas as pd

    from equi7grid_ray.stages.aggregate import cogroup

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": batch.column("user_id").cast(pa.int64()),
            "event_id": batch.column("event_id").cast(pa.int64()),
            "tsu": pc.cast(batch.column("ts"), pa.int64()),
        })

    def late(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "event_id"], kind="stable")
        wm = g.groupby("user_id", sort=False)["tsu"].cummax() \
            .groupby(g["user_id"], sort=False).shift(1)
        lateness = (wm - g["tsu"]).fillna(0).astype(np.int64).clip(lower=0)
        d = pd.DataFrame({"user_id": g["user_id"], "lateness": lateness})
        return d.groupby("user_id", as_index=False).agg(
            n_events=("lateness", "size"),
            n_late=("lateness", lambda s: int((s > _LATE_D_US).sum())),
            max_late_us=("lateness", "max"))

    return cogroup(ev.map_batches(prep, batch_format="pyarrow"), ["user_id"],
                   late, n_partitions=16)


_STAY_R2 = 40_000           # 200-unit stay radius, squared (no sqrt)
_STAY_MIN_DUR_US = 86_400_000_000  # 24 h dwell to count as a stay


def _traj_xy(batch: pa.Table) -> pa.Table:
    """Deterministic integer track coordinates for the events table:
    per-user home base + bounded per-event jitter + a 500-unit jump on
    every 7th event_id, so consecutive points mix sub-threshold steps
    (stays) with super-threshold jumps (trips).  Pure int64 formulas
    the SQL oracle restates verbatim."""
    u = batch.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
    e = batch.column("event_id").to_numpy(zero_copy_only=False).astype(np.int64)
    jump = np.where(e % 7 == 0, 500, 0)
    x = (u * 7919) % 1_000_000 + (e * 131) % 97 + jump
    y = (u * 104_729) % 1_000_000 + (e * 137) % 89 + jump
    return pa.table({
        "user_id": pa.array(u, pa.int64()),
        "event_id": pa.array(e, pa.int64()),
        "ts_us": pc.cast(pc.cast(batch.column("ts"), pa.timestamp("us")),
                         pa.int64()),
        "x": pa.array(x, pa.int64()),
        "y": pa.array(y, pa.int64()),
    })


def q_stay_segments(sf_dir: str):
    """Trajectory stay-segment detection: maximal per-user runs of
    consecutive points whose squared step stays <= r2, kept when the
    dwell reaches 24 h -- the movement-data primitive downstream of
    the grid's lonlat->xy (points hash-partition once by user; one
    vectorized sort+diff+reduceat pass per partition).  lag()-based
    gaps-and-islands SQL mirror, integer-exact throughout."""
    from equi7grid_ray.stages.trajectory import stay_segments

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts"])
    pts = ev.map_batches(_traj_xy, batch_format="pyarrow")
    return stay_segments(pts, r2=_STAY_R2, min_dur_us=_STAY_MIN_DUR_US)


def q_covisit_pairs(sf_dir: str):
    """Spatiotemporal co-visit join: user pairs present in the same
    coarse cell the same DAY, >= 2 co-days; (cell, hour) groups
    above 64 users are dropped (the deterministic skew guard, part of
    the operator contract).  Distinct-presence aggregate -> per-group
    triu pairing -> pair count; self-join SQL mirror with a window
    group-size filter."""
    from equi7grid_ray.stages.trajectory import covisit_pairs

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts"])
    pts = ev.map_batches(_traj_xy, batch_format="pyarrow")
    return covisit_pairs(pts, cell_shift=17,
                         hour_us=86_400_000_000)


def q_od_matrix(sf_dir: str):
    """Origin-destination flow matrix: each (user, day)'s first ->
    last point mapped to 32-unit grid cells, flows counted per cell
    pair.  One keyed partition pass for the trips, one metadata-only
    hash_aggregate for the counts; row_number() first/last SQL
    mirror."""
    from equi7grid_ray.stages.trajectory import od_matrix

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts"])
    pts = ev.map_batches(_traj_xy, batch_format="pyarrow")
    return od_matrix(pts, cell_shift=5)


def q_embedding_pq(sf_dir: str):
    """Product-quantization codes (8 x 4-bit subspace codes + exact
    integer reconstruction error) over the embedding column -- the PQ
    compression step of a 100-TB vector archive.  Deterministic integer
    codebook mirrored literally in SQL; quantization rule shared
    bit-exactly with embedding_int8."""
    from equi7grid_ray.stages.similarity import embedding_pq_codes

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return embedding_pq_codes(emb)


def q_tile_trend(sf_dir: str):
    """Per-(tile, cell) temporal trend: exact-integer least-squares
    slope of block means over scene index (vegetation/change trend
    primitive).  Five integer sums ride one keyed aggregate; SQL mirror
    computes the same closed form in HUGEINT."""
    from equi7grid_ray.stages.temporal import tile_trend

    return tile_trend(_scene_cells())


def q_tile_iqr(sf_dir: str):
    """Per-(tile, cell) exact quartile composite over the scene stack
    (Q1/Q3 robust composites + IQR variability map), quantile_disc
    rank rule so the SQL mirror is bit-exact; one lexsort pass per
    tile-hash partition."""
    from equi7grid_ray.stages.temporal import tile_iqr_composite

    return tile_iqr_composite(_scene_cells())


def q_tile_mk_trend(sf_dir: str):
    """Per-(tile, cell) Mann-Kendall S over the scene stack -- the
    nonparametric monotonic-trend test (exact integer sign-pair sum,
    robust counterpart of tile_trend).  One hash partition + lexsort,
    then max-stack-depth vectorized lag sweeps; SQL mirrors the pair
    sum as a keyed self-join over the block-mean CTE."""
    from equi7grid_ray.stages.temporal import tile_mk_trend

    return tile_mk_trend(_scene_cells())


def q_cell_provenance(sf_dir: str):
    """Per-(tile, cell) provenance of the MAX composite: the scene
    index that supplied the winning value (ties -> smallest scene).
    One (-m, scene) lexsort per tile partition; row_number() mirror."""
    from equi7grid_ray.stages.temporal import tile_best_scene_cell

    return tile_best_scene_cell(_scene_cells())


def q_tile_anomaly(sf_dir: str):
    """Per-(tile, cell) temporal outlier screen: scenes whose block
    mean exceeds an exact cross-multiplied z-score threshold (|z| > 2)
    against the cell's own scene stack -- the cloud/glitch screen
    before compositing.  One lexsort pass per tile partition; SQL
    mirror joins each scene back to its cell's (n, s, ss)."""
    from equi7grid_ray.stages.temporal import tile_anomaly

    return tile_anomaly(_scene_cells())


def q_cell_quadkey(sf_dir: str):
    """Bing-style quadkey string codec over the level-9 quadtree cells
    (the web-tile addressing scheme): Morton interleave -> base-4
    digit string; histogram by 5-char prefix.  Vectorized digit
    extraction + np.char joins; SQL mirrors with chr() concat."""
    from ray.data.aggregate import Sum

    from equi7grid_ray.stages.zorder import morton_key

    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
    L = 9

    def stage(batch: pa.Table) -> pa.Table:
        lon_u, lat_u = _derive_udeg(batch)
        n = np.int64(1 << L)
        ix = (lon_u + 180_000_000) * n // _LONMOD
        iy = (lat_u + 90_000_000) * n // _LATMOD
        z = morton_key(ix, iy)  # 18 bits, y in odd positions
        parts = None
        for k in range(5):  # 5-char quadkey prefix, MSB first
            dig = (z >> (2 * (L - 1 - k))) & 3
            s = dig.astype("U1")
            parts = s if parts is None else np.char.add(parts, s)
        u, cnt = np.unique(parts, return_counts=True)
        return pa.table({
            "quadkey": pa.array(u.tolist(), pa.string()),
            "pn": pa.array(cnt.astype(np.int64), pa.int64()),
        })

    from equi7grid_ray.stages.aggregate import hash_aggregate

    return hash_aggregate(
        ds.map_batches(stage, batch_format="pyarrow"),
        keys=["quadkey"], aggs={"n": ("pn", "sum")}, n_partitions=16)


_GEOHASH32 = "0123456789bcdefghjkmnpqrstuvwxyz"


def q_cell_geohash(sf_dir: str):
    """Geohash base32 codec over the coordinate sweep (the third
    spatial-key codec next to quadkey and Hilbert): 4-char cells = 10
    lon + 10 lat bits interleaved lon-first, exact integer
    quantization (floor((x * 2^10) / mod), prefix-stable by the
    floor-division nesting identity).  Vectorized 10-pass bit build +
    np.char joins; SQL mirrors the bit sum and substr's the alphabet."""
    from equi7grid_ray.stages.aggregate import hash_aggregate

    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])

    def stage(batch: pa.Table) -> pa.Table:
        lon_u, lat_u = _derive_udeg(batch)
        ix = (lon_u + 180_000_000) * 1024 // _LONMOD
        iy = (lat_u + 90_000_000) * 1024 // _LATMOD
        z = np.zeros(len(ix), np.int64)
        for k in range(10):  # lon in the even (higher) slot of each pair
            z |= ((ix >> (9 - k)) & 1) << (19 - 2 * k)
            z |= ((iy >> (9 - k)) & 1) << (18 - 2 * k)
        alpha = np.array(list(_GEOHASH32))
        parts = None
        for j in range(4):
            s = alpha[(z >> (15 - 5 * j)) & 31]
            parts = s if parts is None else np.char.add(parts, s)
        u, cnt = np.unique(parts, return_counts=True)
        return pa.table({
            "geohash": pa.array(u.tolist(), pa.string()),
            "pn": pa.array(cnt.astype(np.int64), pa.int64()),
        })

    return hash_aggregate(
        ds.map_batches(stage, batch_format="pyarrow"),
        keys=["geohash"], aggs={"n": ("pn", "sum")}, n_partitions=16)


def q_ipc_lineitem_rollup(sf_dir: str):
    """Arrow IPC (Feather v2) ingestion path: lineitem exported once as
    a multi-file IPC drop (types preserved exactly -- timestamps and
    doubles included), read back through read_binary_files + a
    per-file pa.ipc decode stage, then a returnflag/linestatus rollup
    with exact cents.  Oracle aggregates the parquet directly, so any
    IPC decode drift fails the hash."""
    from equi7grid_ray.sources.text_formats import export_ipc, read_ipc_table
    from equi7grid_ray.stages.aggregate import hash_aggregate

    cols = ["l_orderkey", "l_returnflag", "l_linestatus",
            "l_extendedprice"]
    path = export_ipc(sf_dir, "lineitem", cols)
    ds = read_ipc_table(path)

    def cents(batch: pa.Table) -> pa.Table:
        c = np.rint(batch.column("l_extendedprice").to_numpy()
                    * 100.0).astype(np.int64)
        return pa.table({
            "l_returnflag": batch.column("l_returnflag"),
            "l_linestatus": batch.column("l_linestatus"),
            "cents": pa.array(c, pa.int64()),
            "okey": batch.column("l_orderkey"),
        })

    return hash_aggregate(
        ds.map_batches(cents, batch_format="pyarrow"),
        keys=["l_returnflag", "l_linestatus"],
        aggs={"n": ("cents", "count"), "sum_cents": ("cents", "sum"),
              "max_key": ("okey", "max")},
        n_partitions=4)


def q_csv_orders_rollup(sf_dir: str):
    """CSV ingestion path: orders exported once as a multi-file CSV
    drop (integer/string columns only -- exact round-trip), read back
    through ray.data.read_csv with a DECLARED Arrow schema, rolled up
    per (status, priority).  Oracle aggregates the parquet directly, so
    any CSV parse/schema drift fails the hash."""
    from ray.data.aggregate import Count, Max, Min

    from equi7grid_ray.sources.text_formats import export_csv, read_csv_table

    cols = ["o_orderkey", "o_custkey", "o_orderstatus", "o_orderpriority"]
    path = export_csv(sf_dir, "orders", cols)
    schema = pa.schema([
        ("o_orderkey", pa.int64()), ("o_custkey", pa.int64()),
        ("o_orderstatus", pa.string()), ("o_orderpriority", pa.string()),
    ])
    ds = read_csv_table(path, schema)
    return (
        ds.groupby(["o_orderstatus", "o_orderpriority"])
        .aggregate(Count(alias_name="n"),
                   Min("o_orderkey", alias_name="min_key"),
                   Max("o_orderkey", alias_name="max_key"))
    )


_OCT_DX = (2, 1, 0, -1, -2, -1, 0, 1)
_OCT_DY = (0, 1, 2, 1, 0, -1, -2, -1)


def _octagons(cx, cy, r) -> pa.Table:
    """Integer-vertex octagon layer (poly_id, vx, vy): vertex j of
    polygon k sits at (cx[k] + r[k] * _OCT_DX[j], cy[k] + r[k] * _OCT_DY[j])."""
    return pa.table({
        "poly_id": pa.array(np.arange(len(cx)), pa.int64()),
        "vx": pa.array((cx[:, None] + r[:, None] * np.array(_OCT_DX)).tolist(),
                       pa.list_(pa.int64())),
        "vy": pa.array((cy[:, None] + r[:, None] * np.array(_OCT_DY)).tolist(),
                       pa.list_(pa.int64())),
    })


def _eu_cells_octagons():
    """The poly_* inputs: the EU northern-hemisphere tile-mosaic cells
    as (px, py, v) -- 75 km cell centers in projected metres from the
    tile's lattice point -- and the 16-octagon polygon layer."""
    from equi7grid_ray.grid import CONTINENT_CODES, tile_lattice
    from equi7grid_ray.stages.mosaic import tile_mosaic

    def to_cells(b: pa.Table) -> pa.Table:
        cidx, te, tn = tile_lattice(b.column("tile").to_numpy(zero_copy_only=False))
        keep = (cidx == CONTINENT_CODES.index("EU")) & (tn >= 0)
        gr = b.column("gr").to_numpy(zero_copy_only=False).astype(np.int64)[keep]
        gc = b.column("gc").to_numpy(zero_copy_only=False).astype(np.int64)[keep]
        return pa.table({
            "px": pa.array(te[keep] * 100_000 + gc * 75_000 + 37_500, pa.int64()),
            "py": pa.array(tn[keep] * 100_000 + 562_500 - gr * 75_000, pa.int64()),
            "v": b.column("v_max").filter(pa.array(keep)).cast(pa.int64()),
        })

    cells = tile_mosaic(_tiled_scenes()).map_batches(to_cells, batch_format="pyarrow")
    k = np.arange(16, dtype=np.int64)
    return cells, _octagons((k * 977_003) % 7_000_000, (k * 1_409_009) % 5_500_000,
                            150_000 + (k * 13_001) % 450_000)


def q_aoi_point_report(sf_dir: str):
    """AOI containment report: 24 broadcast octagon AOIs in
    micro-degree lon/lat space against the lineitem coordinate sweep
    POINTS (the get_tiles_in_geom-then-count composition a tasking
    operator runs per area of interest): per AOI the exact point
    count, coordinate-sum centroid numerators and orderkey witness
    sums via integer ray casting.  The polygon layer ships once
    (ray.put); only O(n_polys) partials leave each batch."""
    from equi7grid_ray.stages.rasterize import rasterize_polygons

    k = np.arange(24, dtype=np.int64)
    polys = _octagons(10_000_000 + (k * 14_500_077) % 340_000_000,
                      10_000_000 + (k * 7_700_143) % 160_000_000,
                      2_000_000 + (k * 333_337) % 8_000_000)

    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])

    def pts(batch: pa.Table) -> pa.Table:
        lon_u, lat_u = _derive_udeg(batch)
        ok = batch.column("l_orderkey").to_numpy(
            zero_copy_only=False).astype(np.int64)
        return pa.table({
            "px": pa.array(lon_u + 180_000_000, pa.int64()),
            "py": pa.array(lat_u + 90_000_000, pa.int64()),
            "v": pa.array(ok, pa.int64()),
        })

    return rasterize_polygons(
        ds.map_batches(pts, batch_format="pyarrow"), polys,
        value_col="v")


def q_rasterize_polys(sf_dir: str):
    """Vector->raster: 24 deterministic integer-vertex octagons
    rasterized onto a 100x100 cell grid by exact-integer ray casting
    (cross-multiplied intersection test, odd parity = inside) -- the
    zonal-mask / AOI-clip primitive next to get_tiles_in_geom.  The
    polygon layer broadcasts (ray.put) into every task; only
    O(n_polys) partial rows leave each batch.  SQL restates the
    identical inequalities over an edge x cell join."""
    import ray.data as rd

    from equi7grid_ray.stages.rasterize import rasterize_polygons

    k = np.arange(24, dtype=np.int64)
    polys = _octagons(200 + (k * 977) % 2800, 200 + (k * 1409) % 2800,
                      50 + (k * 13) % 200)

    def to_cells(batch: pa.Table) -> pa.Table:
        i = batch.column("id").to_numpy()
        return pa.table({
            "px": pa.array((i // 100) * 32 + 16, pa.int64()),
            "py": pa.array((i % 100) * 32 + 16, pa.int64()),
        })

    cells = rd.range(10_000).map_batches(to_cells, batch_format="pyarrow")
    return rasterize_polygons(cells, polys)


def q_poly_stats(sf_dir: str):
    """Columnar vector-layer geometry: exact shoelace signed area,
    squared-edge-length sum, cleared centroid numerators and bbox for
    20k deterministic rings, computed in ONE vectorized offsets+values
    pass per batch (zero per-ring Python).  SQL mirror restates the
    shoelace sums over an unnest + next-vertex self-join."""
    import ray.data as rd

    from equi7grid_ray.stages.rasterize import poly_stats

    def gen(batch: pa.Table) -> pa.Table:
        p = batch.column("id").to_numpy().astype(np.int64)
        nv = 3 + p % 6
        offs = np.zeros(len(p) + 1, np.int64)
        np.cumsum(nv, out=offs[1:])
        pid = np.repeat(p, nv)
        v = np.arange(offs[-1], dtype=np.int64) - np.repeat(offs[:-1], nv)
        vx = (pid * 131 + v * 977) % 2000
        vy = (pid * 197 + v * 1409) % 2000
        o32 = pa.array(offs, pa.int32()).cast(pa.int32())
        return pa.table({
            "poly_id": pa.array(p, pa.int64()),
            "vx": pa.ListArray.from_arrays(o32, pa.array(vx, pa.int64())),
            "vy": pa.ListArray.from_arrays(o32, pa.array(vy, pa.int64())),
        })

    polys = rd.range(20_000).map_batches(gen, batch_format="pyarrow")
    return poly_stats(polys)


def q_poly_simplify(sf_dir: str):
    """Radial-distance simplification of the 20k-ring layer (tol^2 =
    500^2): vertex 0 kept, later vertices kept iff squared distance
    from the last kept vertex > tol2.  The sequential keep rule runs
    as max(nv) vectorized steps across all rings; SQL walks the same
    recurrence as a recursive CTE.  kept_cksum pins the kept SET."""
    import ray.data as rd

    from equi7grid_ray.stages.rasterize import poly_simplify

    def gen(batch: pa.Table) -> pa.Table:
        p = batch.column("id").to_numpy().astype(np.int64)
        nv = 3 + p % 6
        offs = np.zeros(len(p) + 1, np.int64)
        np.cumsum(nv, out=offs[1:])
        pid = np.repeat(p, nv)
        v = np.arange(offs[-1], dtype=np.int64) - np.repeat(offs[:-1], nv)
        vx = (pid * 131 + v * 977) % 2000
        vy = (pid * 197 + v * 1409) % 2000
        o32 = pa.array(offs, pa.int32()).cast(pa.int32())
        return pa.table({
            "poly_id": pa.array(p, pa.int64()),
            "vx": pa.ListArray.from_arrays(o32, pa.array(vx, pa.int64())),
            "vy": pa.ListArray.from_arrays(o32, pa.array(vy, pa.int64())),
        })

    polys = rd.range(20_000).map_batches(gen, batch_format="pyarrow")
    return poly_simplify(polys, tol2=250_000)


def q_mosaic_manifest(sf_dir: str):
    """Manifest/statistics build over a partitioned mosaic archive:
    the composite is written once as continent-partitioned parquet,
    then per-continent row counts + v_max min/max are harvested from
    parquet FOOTERS ONLY (one Ray task per file, zero data pages
    read).  The oracle recomputes the same numbers from the pixel
    formula, so a stats round-trip error anywhere fails the hash."""
    import shutil
    from pathlib import Path

    import ray.data as rd

    from equi7grid_ray.stages.aggregate import hash_aggregate
    from equi7grid_ray.stages.compaction import manifest_from_footers
    from equi7grid_ray.stages.mosaic import tile_mosaic

    dst = Path("/tmp/e7r_mosaic_part_2000")
    if not (dst / "_DONE").exists():
        mosaic = tile_mosaic(_tiled_scenes())

        def with_cont(b: pa.Table) -> pa.Table:
            return b.append_column(
                "continent", pc.utf8_slice_codeunits(b.column("tile"), 0, 2))

        tmp = Path(str(dst) + ".building")
        shutil.rmtree(tmp, ignore_errors=True)
        mosaic.map_batches(with_cont, batch_format="pyarrow") \
            .write_parquet(str(tmp), partition_cols=["continent"])
        tmp.replace(dst)
        (dst / "_DONE").touch()

    files = [str(p) for p in dst.rglob("*.parquet")]

    def cont_of(path: str) -> str:
        import re as _re

        return _re.search(r"continent=([A-Z]{2})", path).group(1)

    manifest = manifest_from_footers(files, column="v_max",
                                     group_fn=cont_of)
    return hash_aggregate(
        rd.from_arrow(manifest), keys=["group"],
        aggs={"n_rows": ("n_rows", "sum"), "min_v": ("min_v", "min"),
              "max_v": ("max_v", "max")},
        n_partitions=4)


def q_footprint_overlap(sf_dir: str):
    """Scene-footprint overlap join: all rectangle pairs with positive
    intersection area over 3000 deterministic footprints (PBSM grid
    replication + reference-point dedup, one self-merge per cell-hash
    partition); plain O(n^2) inequality-join SQL oracle."""
    import ray.data as rd

    from equi7grid_ray.stages.neighbors import rect_overlap_join

    def gen(batch: pa.Table) -> pa.Table:
        k = batch.column("id").to_numpy().astype(np.int64)
        x0 = (k * 131) % 10_000
        y0 = (k * 197) % 10_000
        return pa.table({
            "id": pa.array(k, pa.int64()),
            "x0": pa.array(x0, pa.int64()),
            "y0": pa.array(y0, pa.int64()),
            "x1": pa.array(x0 + 1 + (k * 7) % 200, pa.int64()),
            "y1": pa.array(y0 + 1 + (k * 11) % 200, pa.int64()),
        })

    rects = rd.range(3000).map_batches(gen, batch_format="pyarrow")
    return rect_overlap_join(rects, cell_shift=8)


def q_tile_similarity(sf_dir: str):
    """Content-based tile retrieval: same-continent tile pairs whose
    8x8 composites sit within squared-L2 distance 2000 (duplicate
    coverage / seam diagnosis).  Bounded composite broadcast once,
    (chunk x tiles) matmul per batch; SQL self-joins the composite on
    (continent, gr, gc)."""

    from equi7grid_ray.stages.mosaic import tile_mosaic, tile_similarity

    return tile_similarity(tile_mosaic(_tiled_scenes()), max_d2=2000)


def q_poly_majority(sf_dir: str):
    """Zonal MAJORITY: per polygon the MODE of the composite value
    over its footprint (ties -> smallest value) — the categorical
    zonal statistic (dominant land-cover class per region).  Same EU
    mosaic-cell grid + octagon layer as poly_zonal; bounded
    (poly, value, count) partials + a tiny per-poly resolve."""
    from equi7grid_ray.stages.rasterize import rasterize_majority

    cells, polys = _eu_cells_octagons()
    return rasterize_majority(cells, polys)


def q_tile_mosaic_delta(sf_dir: str):
    """INCREMENTAL composite maintenance: yesterday's 2000-scene
    composite (max/sum/count are re-aggregable partials, never
    recomputed) merged with per-batch partials of a 200-scene delta --
    one union + one keyed aggregate instead of a full recompute.  The
    oracle recomputes the 2200-scene composite from scratch, so any
    drift in the merge math fails the hash."""
    from equi7grid_ray.stages.aggregate import hash_aggregate
    from equi7grid_ray.stages.mosaic import MosaicGrid, tile_mosaic

    cols = ["tile", "gr", "gc", "v_max", "v_sum", "n_img"]
    base = tile_mosaic(_tiled_scenes()).select_columns(cols)
    delta = _tiled_scenes(200, start=2000).map_batches(
        MosaicGrid, batch_format="pyarrow", concurrency=(1, 2),
        num_cpus=1).select_columns(cols)
    return hash_aggregate(
        base.union(delta),
        keys=["tile", "gr", "gc"],
        aggs={"v_max": ("v_max", "max"), "v_sum": ("v_sum", "sum"),
              "n_img": ("n_img", "sum")},
    )


def q_poly_zonal(sf_dir: str):
    """ZONAL STATISTICS — the raster x vector composition: the EU
    tile-mosaic composite's 75 km cell centers (projected meters from
    tile-name arithmetic) are tested against a broadcast polygon layer
    by exact-integer ray casting, and each polygon aggregates the
    composite value over its footprint (n_cells, centroid numerators,
    sum/max of v_max).  SQL rebuilds the mosaic through the pinned
    image->tile lookup and restates the PIP inequalities."""
    from equi7grid_ray.stages.rasterize import rasterize_polygons

    cells, polys = _eu_cells_octagons()
    return rasterize_polygons(cells, polys, value_col="v")


def q_compact_docs(sf_dir: str):
    """Small-file compaction (Delta OPTIMIZE / Iceberg
    rewrite_data_files): a 32-file documents drop is bin-packed
    (first-fit-decreasing, metadata-only planning) and rewritten as
    size-targeted files — one Ray task per output group, atomic
    rename, resume-by-existence.  The query rolls up the COMPACTED
    directory per source; the oracle aggregates the original table, so
    any lost/duplicated/corrupted row fails the hash."""
    import shutil
    from pathlib import Path

    import ray.data as rd
    from ray.data.aggregate import Count, Max, Min, Sum

    from equi7grid_ray.stages.compaction import (compact_parquet,
                                                 export_parquet_shards)

    shards = export_parquet_shards(
        sf_dir, "documents", ["doc_id", "source", "n_chars"], n_files=32)
    dst = Path(str(shards) + "_compacted")
    if not dst.exists():
        total = sum(p.stat().st_size for p in shards.glob("*.parquet"))
        tmp = Path(str(dst) + ".building")
        shutil.rmtree(tmp, ignore_errors=True)
        compact_parquet(shards, tmp, target_bytes=max(1, total // 4))
        tmp.replace(dst)
    ds = rd.read_parquet(str(dst))
    return (
        ds.groupby("source")
        .aggregate(Count(alias_name="n"),
                   Sum("n_chars", alias_name="sum_chars"),
                   Sum("doc_id", alias_name="sum_id"),
                   Min("doc_id", alias_name="min_id"),
                   Max("doc_id", alias_name="max_id"))
    )


def q_jsonl_events_rollup(sf_dir: str):
    """JSONL ingestion path: events exported once as a multi-file JSONL
    drop, read back through ray.data.read_json, rolled up per event
    type.  Oracle aggregates the parquet directly."""
    from ray.data.aggregate import Count, Max, Sum

    from equi7grid_ray.sources.text_formats import (export_jsonl,
                                                    read_jsonl_table)

    path = export_jsonl(sf_dir, "events",
                        ["event_id", "user_id", "event_type"])
    ds = read_jsonl_table(path)

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": batch.column("event_type"),
            "event_id": batch.column("event_id").cast(pa.int64()),
            "user_id": batch.column("user_id").cast(pa.int64()),
        })

    return (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(Count(alias_name="n"),
                   Max("event_id", alias_name="max_event"),
                   Sum("user_id", alias_name="sum_users"))
    )


# Image-side ingestion gate (the visual Gopher): first-failing
# reason per frame over exact integer metrics -- dynamic range, then
# Sobel edge fraction too low (smooth/blurry) or too high (noise).
# Map-only; SQL mirror reuses the px + Sobel formula CTEs.
q_image_quality_gate = _frame_query(mm.QualityGate, 300)


def q_ann_pq_topk(sf_dir: str):
    """ANN search over the PQ index (symmetric distance): vec 0's codes
    vs every vector's codes through the exact integer centroid-distance
    LUT -- top-10 by (pq_dist, vec_id).  The codes table is
    materialized once (it IS the 16 B/vector index a 100-TB archive
    stores); the scan never touches raw floats."""
    from equi7grid_ray.stages.similarity import (embedding_pq_codes,
                                                 pq_sdc_topk)

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    codes = embedding_pq_codes(emb).materialize()  # the PQ index
    q_code = codes.map_batches(
        lambda b: b.filter(pc.equal(b.column("vec_id"), 0)),
        batch_format="pyarrow").take(1)[0]["pq_code"]
    return pq_sdc_topk(codes, q_code, k=10)


# Gradient-orientation histogram (HOG binning stage): Sobel
# gx/gy over the interior, 8 half-open 45-degree octants classified
# by exact integer comparisons (no atan2) -- SQL mirror is the Sobel
# formula at 9 offsets plus a CASE chain.
q_image_hog = _frame_query(mm.HOGStats, 300)


# Shot-boundary detection over raw planar video payloads:
# consecutive-frame SAD, cut iff 4*SAD >= 255*w (integer-exact).
# SQL evaluates both frames' pixel formulas directly -- no join.
q_video_cuts = _frame_query(mm.VideoCuts, 200)


# Exact integer autocorrelation of the s16le PCM payload at lags
# 1/2/4/8 (pitch / periodicity feature) + best lag (argmax, smallest
# lag on ties).  SQL self-joins the regenerated sample table per
# lag.
q_audio_autocorr = _frame_query(mm.AutocorrAudio, 400)


def q_tile_clear_composite(sf_dir: str):
    """Cloud-masked composite: (scene, cell) block means >= 200 are
    masked as cloudy; per (tile, cell) the total / clear observation
    counts and the MAX over clear views (-1 = never clear, the
    gap-fill worklist).  Pixels never shuffle (per-batch tile
    partials); SQL mirrors with a FILTER'd aggregate over the pixel
    formula joined to the pinned image->tile golden."""

    from equi7grid_ray.stages.mosaic import tile_clear_composite

    return tile_clear_composite(_tiled_scenes())


def q_image_shift_detect(sf_dir: str):
    """Revisit co-registration: vertical shift between frame pairs
    (i, i+9) (same dimensions by the size cycle) estimated from
    horizontal projection profiles -- exact SAD per lag in [-4, 4],
    winner by exact cross-multiplied mean compare (overlap varies by
    lag), ties -> smallest lag.  Pixels collapse to one int64 per scan
    line at decode; (pair, row) rows partition by pair and resolve
    with 9 vectorized searchsorted alignments per partition.  SQL
    mirrors with a lag self-join over the profile CTE + a NOT-EXISTS
    argmin."""
    return mm.shift_detect(_images(300), stride=9, max_lag=4)


def q_tile_gradient(sf_dir: str):
    """Central-difference slope map over the tile composite WITH
    cross-tile halo exchange: gx = v(E) - v(W), gy = v(S) - v(N), L1
    magnitude; only cells with all four neighbours (the interior after
    halo).  Signed scatter to packed neighbour keys -> one fold -> one
    cogroup join back.  SQL gathers the four neighbours via tile-name
    arithmetic over the mosaic mirror."""

    from equi7grid_ray.stages.mosaic import tile_gradient, tile_mosaic

    return tile_gradient(tile_mosaic(_tiled_scenes()))


def q_tile_flow_d8(sf_dir: str):
    """D8 flow routing over the tile composite treated as a DEM, with
    cross-tile halo exchange: per full-neighbourhood cell the ESRI
    direction code of the steepest positive drop (ties to the first of
    E,SE,S,SW,W,NW,N,NE) and the drop itself; 0/0 on pits and flats.
    Neighbour values ride the exchange packed into 8-bit fields of two
    int64 columns (composite values are 8-bit block means), so the
    halo shuffle moves 3 ints per scatter row.  SQL gathers the 8
    neighbours via tile-name arithmetic and restates the priority rule
    as a CASE chain."""

    from equi7grid_ray.stages.mosaic import tile_flow_d8, tile_mosaic

    return tile_flow_d8(tile_mosaic(_tiled_scenes()))


def q_tile_flow_accum(sf_dir: str):
    """D8 flow accumulation (drainage area) over the tile composite:
    per interior cell the count of interior cells whose downstream
    steepest-descent path passes through it.  Elevation strictly drops
    along every edge (8-bit values bound path depth at 255), so the
    engine pushes accumulation in descending elevation bands, in one
    task over the collected flow edges -- exact, no fixpoint
    detection.  SQL mirrors via a recursive CTE walking each cell's
    path over the interior set."""

    from equi7grid_ray.stages.mosaic import tile_flow_accum, tile_mosaic

    return tile_flow_accum(tile_mosaic(_tiled_scenes()))


def q_tile_horizon(sf_dir: str):
    """West-to-east horizon scan over the tile composite (the running-
    records primitive of viewshed/terrain-occlusion passes): per
    (tile, row) the count of cells strictly higher than every cell
    west of them, + the row max.  The composite's rows are fixed-width
    (8 cells), so the scan is one reshape + running max across the
    whole partition -- no per-row Python.  Window-frame SQL mirror."""

    from equi7grid_ray.stages.mosaic import tile_mosaic

    mosaic = tile_mosaic(_tiled_scenes())

    def horizon(batch: pa.Table) -> pa.Table:
        import pandas as pd

        g = batch.to_pandas().sort_values(["tile", "gr", "gc"],
                                          kind="stable")
        v = g["v_max"].to_numpy(np.int64).reshape(-1, 8)
        pm = np.maximum.accumulate(v, axis=1)
        vis = np.ones_like(v, dtype=bool)
        vis[:, 1:] = v[:, 1:] > pm[:, :-1]
        return pa.table({
            "tile": pa.array(g["tile"].to_numpy()[::8], pa.string()),
            "gr": pa.array(g["gr"].to_numpy(np.int64)[::8], pa.int64()),
            "n_visible": pa.array(vis.sum(axis=1).astype(np.int64),
                                  pa.int64()),
            "row_max": pa.array(pm[:, -1], pa.int64()),
        })

    # each batch carries whole tiles (64 cells) only after the keyed
    # aggregate; map_groups on tile guarantees row completeness
    return mosaic.groupby("tile").map_groups(
        horizon, batch_format="pyarrow")


# Within-frame spatial autocorrelation at vertical and horizontal
# lag 1, in exact cleared integers: per frame the pixel count, sum,
# sum of squares and both lag products (sum v(r,c)*v(r+1,c) and
# sum v(r,c)*v(r,c+1)) -- the Pearson pieces of the texture
# directionality measure, divisions left cleared.  One shifted-view
# dot product per direction per frame; SQL evaluates the pixel
# formula at the shifted offsets.
q_image_autocorr = _frame_query(mm.SpatialAutocorr, 300)


# Per-image local-binary-pattern texture summary: 8-neighbour
# code per interior pixel (clockwise-from-top-left bit order), per
# frame the exact code total, 256-bin code-histogram energy and
# interior count -- 8 shifted-view comparisons + one bincount per
# frame.  SQL evaluates the synthetic pixel formula at the 9 offsets
# and groups (frame, code).
q_image_lbp = _frame_query(mm.LBPStats, 300)


# Exact 3x3 median filter stats (salt-and-pepper denoise): per
# frame the count of interior pixels changed by the filter + the
# filtered-interior sum; 9 shifted views + one np.partition per
# frame.  SQL unnests the 9 offsets per pixel and takes
# quantile_disc(0.5) == the 5th-smallest of 9.
q_image_median3 = _frame_query(mm.Median3Stats, 300)


# Minimum vertical-seam cost per frame (seam carving / least-cost
# corridor DP, energy = pixel value): exact integer row-sweep DP,
# emitting the min bottom-row cost, its smallest column, and the tie
# count.  Restricted to the h=32 frames so the SQL mirror can chain
# one CTE per DP row (31 chained CTEs with three scalar self-joins
# each -- no recursion, no aggregates in recursive terms).
q_image_seam = _frame_query(mm.SeamStats, 300, where={"h": 32})


# Ordered Bayer-4x4 dithering per frame (1-bit halftone for mask
# thumbnails): ON iff v > bayer(r%4, c%4)*16 + 8; emits the ON count
# and the exact position checksum sum(r*w + c over ON pixels).  One
# tiled integer compare per frame; the SQL mirror evaluates the
# threshold matrix as a 16-way CASE.
q_image_dither = _frame_query(mm.DitherStats, 300)


# Per-blob 4-connected perimeter over the v>=128 mask (shape
# compactness / isoperimetric screening of segmented rasters): one
# row per component with canonical label pixel, area and perimeter
# = 4*area - 2*adjacencies, all from one O(runs) union-find sweep.
# SQL extends the image_blobs recursive-CTE closure with per-root
# adjacency sums.
q_blob_perimeter = _frame_query(
    mm.BlobPerimeter, 900, where={"w": 32, "h": 32})


def q_events_peak_concurrency(sf_dir: str):
    """Sweep-line peak concurrency per event type: every event opens a
    15-minute half-open interval [ts, ts+900s); the query reports the
    maximum number of simultaneously-open intervals and the earliest
    boundary instant at which the peak is reached (capacity planning /
    surge detection).  The inherently-sequential running sum is
    distributed as a two-level scan: per-(type, hour-chunk) lexsort +
    segmented cumsum partials, then a bounded exclusive-cumsum fold
    (stages/windows.peak_concurrency).  SQL mirrors with a window
    running sum ordered (t, d) -- ends before starts at the same
    instant, the half-open tie rule."""
    from equi7grid_ray.stages.windows import peak_concurrency

    ds = _read(sf_dir, "events", ["ts", "event_type"])

    def prep(batch: pa.Table) -> pa.Table:
        t = batch.column("ts").cast(pa.int64()).to_numpy()
        return pa.table({
            "event_type": batch.column("event_type"),
            "start_us": pa.array(t, pa.int64()),
            "end_us": pa.array(t + 900 * 1_000_000, pa.int64()),
        })

    return peak_concurrency(
        ds.map_batches(prep, batch_format="pyarrow"),
        key="event_type", start_col="start_us", end_col="end_us")


def q_link_prediction(sf_dir: str):
    """Link prediction over the near-dup candidate graph: for every
    NON-adjacent doc pair, the common-neighbour count (the classic
    Liben-Nowell/Kleinberg baseline), keeping positive scores -- 'these
    two docs share near-dup partners but were never paired; the LSH
    probably missed them'.  Wedges enumerate at their apex (one
    pandas self-merge per hash partition), counts fold through a keyed
    aggregate, and adjacency is removed with the tagged
    partition-cogroup anti-probe (stages/graph.common_neighbor_pairs).
    SQL mirrors with a dirs self-join + anti-join."""
    from equi7grid_ray.stages.dedup import lsh_candidate_pairs
    from equi7grid_ray.stages.graph import common_neighbor_pairs

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return common_neighbor_pairs(lsh_candidate_pairs(ds), min_common=1)


def q_target_encoding(sf_dir: str):
    """Leave-one-out target encoding of the customer market segment by
    order value (the ML feature-prep step that replaces a categorical
    with its outcome mean, excluding the row itself against target
    leakage): enc(order) = (segment_cents_sum - own_cents) //
    (segment_n - 1), exact int64 (all-positive, so trunc == floor ==
    DuckDB //).  Segment statistics are ONE bounded keyed aggregate
    broadcast back over the fact table -- no shuffle of order rows;
    segments of size 1 are dropped (mirrored by the SQL WHERE n > 1).
    SQL mirrors with window sum/count partitioned by segment."""
    import pyarrow.parquet as pq

    from equi7grid_ray.arrowutil import collect_tables
    from equi7grid_ray.stages.aggregate import hash_aggregate
    from equi7grid_ray.stages.join import broadcast_join

    cust = pq.read_table(f"{sf_dir}/customer.parquet",
                         columns=["c_custkey", "c_mktsegment"])
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey",
                                      "o_totalprice"])

    def prep(batch: pa.Table) -> pa.Table:
        cents = np.rint(batch.column("o_totalprice")
                        .to_numpy(zero_copy_only=False) * 100.0) \
            .astype(np.int64)
        return pa.table({
            "o_orderkey": batch.column("o_orderkey").cast(pa.int64()),
            "c_custkey": batch.column("o_custkey").cast(pa.int64()),
            "cents": pa.array(cents, pa.int64()),
        })

    oc = broadcast_join(orders.map_batches(prep, batch_format="pyarrow"),
                        cust, on="c_custkey", how="inner")
    seg = collect_tables(
        hash_aggregate(oc, keys=["c_mktsegment"],
                       aggs={"s": ("cents", "sum"),
                             "n": ("cents", "count")}),
        schema=pa.schema([("c_mktsegment", pa.string()),
                          ("s", pa.int64()), ("n", pa.int64())]))
    import ray
    seg_ref = ray.put({name: (s, n) for name, s, n in zip(
        seg.column("c_mktsegment").to_pylist(),
        seg.column("s").to_pylist(), seg.column("n").to_pylist())})

    def encode(batch: pa.Table) -> pa.Table:
        import ray as _ray
        lut = _ray.get(seg_ref)
        segs = batch.column("c_mktsegment").to_pylist()
        cents = batch.column("cents").to_numpy(zero_copy_only=False)
        s = np.array([lut[x][0] for x in segs], np.int64)
        n = np.array([lut[x][1] for x in segs], np.int64)
        keep = n > 1
        enc = np.zeros(len(cents), np.int64)
        enc[keep] = (s[keep] - cents[keep]) // (n[keep] - 1)
        t = batch.filter(pa.array(keep))
        return pa.table({
            "o_orderkey": t.column("o_orderkey"),
            "segment": t.column("c_mktsegment"),
            "enc_cents": pa.array(enc[keep], pa.int64()),
        })

    return oc.map_batches(encode, batch_format="pyarrow")


def q_fk_audit(sf_dir: str):
    """Referential-integrity audit across the four foreign-key edges
    of the star schema (orders->customer, lineitem->orders/part/
    supplier): orphan child rows + childless parents per edge, the
    pre-flight gate before join pipelines.  Each edge collapses both
    sides to (key, rows) keyed aggregates, then ONE partition-cogroup
    outer merge -- big-big safe, nothing broadcast
    (stages/validate.fk_orphan_audit).  SQL mirrors with LEFT-JOIN
    counting per edge, UNION ALL."""
    from equi7grid_ray.stages.validate import fk_orphan_audit

    edges = [
        ("orders->customer", "orders", "o_custkey",
         "customer", "c_custkey"),
        ("lineitem->orders", "lineitem", "l_orderkey",
         "orders", "o_orderkey"),
        ("lineitem->part", "lineitem", "l_partkey", "part", "p_partkey"),
        ("lineitem->supplier", "lineitem", "l_suppkey",
         "supplier", "s_suppkey"),
    ]
    out = None
    for rel, ct, ck, pt, pk in edges:
        audit = fk_orphan_audit(
            _read(sf_dir, ct, [ck]), _read(sf_dir, pt, [pk]),
            child_key=ck, parent_key=pk, relation=rel)
        out = audit if out is None else out.union(audit)
    return out


def q_returned_revenue(sf_dir: str):
    """TPC-H Q10-shaped returned-item report: the 20 customers losing
    the most revenue to returns (l_returnflag = 'R'), with nation.
    Exact 1e-4 currency units; lineitem |><| orders is the one big-big
    shuffle join, the per-customer aggregate is keyed, the global
    top-20 runs through the batch-combiner + cogroup resolve of
    grouped_topk (tie rule: revenue DESC then custkey ASC, identical
    to the SQL row_number), customer/nation names broadcast last over
    20 rows.  SQL mirrors with QUALIFY row_number() <= 20."""
    import pyarrow.parquet as pq

    from equi7grid_ray.stages.aggregate import hash_aggregate
    from equi7grid_ray.stages.join import broadcast_join, shuffle_hash_join
    from equi7grid_ray.stages.topk import grouped_topk

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_returnflag", "l_extendedprice",
                "l_discount"])

    def prep_li(batch: pa.Table) -> pa.Table:
        flag = batch.column("l_returnflag").to_numpy(zero_copy_only=False)
        t = batch.filter(pa.array(flag == "R"))
        cents = np.rint(t.column("l_extendedprice")
                        .to_numpy(zero_copy_only=False) * 100.0) \
            .astype(np.int64)
        dpct = np.rint(t.column("l_discount")
                       .to_numpy(zero_copy_only=False) * 100.0) \
            .astype(np.int64)
        return pa.table({
            "okey": t.column("l_orderkey").cast(pa.int64()),
            "rev": pa.array(cents * (100 - dpct), pa.int64()),
        })

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])

    def prep_o(batch: pa.Table) -> pa.Table:
        return pa.table({
            "okey": batch.column("o_orderkey").cast(pa.int64()),
            "ckey": batch.column("o_custkey").cast(pa.int64()),
        })

    j = shuffle_hash_join(
        li.map_batches(prep_li, batch_format="pyarrow"),
        orders.map_batches(prep_o, batch_format="pyarrow"),
        on="okey", n_partitions=32)
    agg = hash_aggregate(j, keys=["ckey"],
                         aggs={"revenue": ("rev", "sum"),
                               "n_lines": ("rev", "count")})
    tagged = agg.map_batches(
        lambda b: b.append_column(
            "__k", pa.array(np.zeros(b.num_rows, np.int8))),
        batch_format="pyarrow")
    top = grouped_topk(tagged, key="__k", value="revenue", k=20,
                       tie_cols=["ckey"]).drop_columns(["__k"])

    cust = pq.read_table(f"{sf_dir}/customer.parquet",
                         columns=["c_custkey", "c_name", "c_nationkey"])
    nation = pq.read_table(f"{sf_dir}/nation.parquet",
                           columns=["n_nationkey", "n_name"])

    def r_c(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(
            ["c_custkey" if c == "ckey" else c for c in batch.column_names])

    out = broadcast_join(top.map_batches(r_c, batch_format="pyarrow"),
                         cust, on="c_custkey", how="inner")

    def r_n(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(
            ["n_nationkey" if c == "c_nationkey" else c
             for c in batch.column_names])

    out = broadcast_join(out.map_batches(r_n, batch_format="pyarrow"),
                         nation, on="n_nationkey", how="inner")
    return out.map_batches(
        lambda b: b.select(["c_custkey", "c_name", "n_name",
                            "revenue", "n_lines"]),
        batch_format="pyarrow")


def q_poly_self_intersect(sf_dir: str):
    """Ring validity audit over the 20k-ring vector layer: per ring
    the count of properly-crossing non-adjacent segment pairs (OGC
    simple-feature validity), via the exact-integer two-sided ccw
    orientation test, vectorized per pair-offset over the flat vertex
    buffer (stages/rasterize.poly_self_intersections).  SQL mirrors
    the segment self-join with the same cleared determinants."""
    import ray.data as rd

    from equi7grid_ray.stages.rasterize import poly_self_intersections

    def gen(batch: pa.Table) -> pa.Table:
        p = batch.column("id").to_numpy().astype(np.int64)
        nv = 3 + p % 6
        offs = np.zeros(len(p) + 1, np.int64)
        np.cumsum(nv, out=offs[1:])
        pid = np.repeat(p, nv)
        v = np.arange(offs[-1], dtype=np.int64) - np.repeat(offs[:-1], nv)
        vx = (pid * 131 + v * 977) % 2000
        vy = (pid * 197 + v * 1409) % 2000
        o32 = pa.array(offs, pa.int32()).cast(pa.int32())
        return pa.table({
            "poly_id": pa.array(p, pa.int64()),
            "vx": pa.ListArray.from_arrays(o32, pa.array(vx, pa.int64())),
            "vy": pa.ListArray.from_arrays(o32, pa.array(vy, pa.int64())),
        })

    polys = rd.range(20_000).map_batches(gen, batch_format="pyarrow")
    return poly_self_intersections(polys)


def q_trajectory_raster(sf_dir: str):
    """Trip corridor density: every (user, day) origin->destination
    segment rasterized onto the 32-unit cell lattice with a
    trunc-division DDA, sampled cells counted (which cells do trips
    CROSS -- od_matrix's endpoint matrix can't say).  One keyed
    partition pass for trips, flat repeat/arange expansion, keyed
    count (stages/trajectory.trajectory_raster); SQL mirrors the DDA
    with generate-series samples and DuckDB's trunc //."""
    from equi7grid_ray.stages.trajectory import trajectory_raster

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts"])
    pts = ev.map_batches(_traj_xy, batch_format="pyarrow")
    return trajectory_raster(pts, cell_shift=5)


# Per-image 5x5 sliding box-sum statistics via an integral image
# (summed-area table): window count, extreme window sums, bright
# windows, total -- the O(1)-per-window local-density primitive.
# SQL mirrors by decomposing the 25-tap sum into a 5-tap horizontal
# pass + a 5-tap vertical window sum over the synthetic pixel
# formula.
q_image_boxsum = _frame_query(mm.BoxSumStats, 300)


def q_zone_shape(sf_dir: str):
    """Discrete isoperimetric metrics of each continent's T6 zone
    lattice: area (tiles), perimeter (edges facing non-zone) and
    interior tile count -- the halo-exchange cost model inputs per
    continent (stages/tilestats.zone_shape_metrics over the bounded
    zone inventory).  SQL mirrors with a rook-neighbour self-join on
    tile-name arithmetic over the pinned tiles_t6 golden."""
    from equi7grid_ray.export import tiles_table
    from equi7grid_ray.stages.tilestats import zone_shape_metrics

    return zone_shape_metrics(tiles_table("T6"))


def q_feature_hashing(sf_dir: str):
    """Hashing-trick document featurization (Weinberger 2009): token
    -> splitmix64 -> signed 64-bucket vector, summarized per doc by
    nnz / L1 / positional checksum (invariants that pin the whole
    vector).  Vocabulary-free -- nothing broadcast, map-only
    (stages/text.feature_hashing); SQL mirrors the shared polynomial+
    splitmix64 token hash chain (sqlgen._mix64_ctes)."""
    from equi7grid_ray.stages.text import feature_hashing

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return feature_hashing(ds)


def q_event_sax(sf_dir: str):
    """SAX symbolic motif census over the per-type hourly event-rate
    series: 4-hour boxes coded 0-3 by per-type quantile_disc quartiles
    of the box sums, sliding 3-gram codes counted (recurring
    surge/lull shapes; Lin & Keogh's SAX, exact-integer variant).
    Hourly counts are the only shuffle; the bounded series folds once
    (stages/temporal.sax_motifs).  SQL mirrors with quantile_disc +
    lead() windows."""
    from equi7grid_ray.stages.aggregate import hash_aggregate
    from equi7grid_ray.stages.temporal import sax_motifs

    ds = _read(sf_dir, "events", ["ts", "event_type"])

    def prep(batch: pa.Table) -> pa.Table:
        t = batch.column("ts").cast(pa.int64()).to_numpy()
        return pa.table({
            "event_type": batch.column("event_type"),
            "hr": pa.array(t // 3_600_000_000, pa.int64()),
        })

    counts = hash_aggregate(
        ds.map_batches(prep, batch_format="pyarrow"),
        keys=["event_type", "hr"], aggs={"n": ("hr", "count")})
    return sax_motifs(counts)


def q_parts_supplier(sf_dir: str):
    """TPC-H Q16-shaped parts/supplier relationship census: distinct
    suppliers actually shipping each (brand, type, size), suppliers in
    deficit (acctbal < 0, the complaints-blacklist stand-in) excluded.
    lineitem collapses to distinct (part, supplier) evidence pairs
    FIRST (the shuffle moves one row per pair), the blacklist and part
    attributes broadcast.  SQL mirrors with count(DISTINCT)."""
    import pyarrow.parquet as pq

    from equi7grid_ray.stages.aggregate import hash_aggregate
    from equi7grid_ray.stages.join import broadcast_join

    li = _read(sf_dir, "lineitem", ["l_partkey", "l_suppkey"])
    pairs = hash_aggregate(
        li.map_batches(
            lambda b: pa.table({
                "p_partkey": b.column("l_partkey").cast(pa.int64()),
                "skey": b.column("l_suppkey").cast(pa.int64())}),
            batch_format="pyarrow"),
        keys=["p_partkey", "skey"], aggs={"__c": ("skey", "count")})

    supp = pq.read_table(f"{sf_dir}/supplier.parquet",
                         columns=["s_suppkey", "s_acctbal"])
    bad = set(supp.column("s_suppkey").to_pylist()[i]
              for i, v in enumerate(supp.column("s_acctbal").to_pylist())
              if v < 0)
    import ray
    bad_ref = ray.put(np.array(sorted(bad), np.int64))

    def drop_bad(batch: pa.Table) -> pa.Table:
        import ray as _ray
        bl = _ray.get(bad_ref)
        k = batch.column("skey").to_numpy(zero_copy_only=False)
        if len(bl):
            pos = np.searchsorted(bl, k)
            pos = np.minimum(pos, len(bl) - 1)
            keep = bl[pos] != k
        else:
            keep = np.ones(len(k), bool)
        return batch.filter(pa.array(keep)).select(["p_partkey", "skey"])

    part = pq.read_table(f"{sf_dir}/part.parquet",
                         columns=["p_partkey", "p_brand", "p_type",
                                  "p_size"])
    j = broadcast_join(pairs.map_batches(drop_bad, batch_format="pyarrow"),
                       part, on="p_partkey", how="inner")

    def shape(batch: pa.Table) -> pa.Table:
        return pa.table({
            "p_brand": batch.column("p_brand"),
            "p_type": batch.column("p_type"),
            "p_size": batch.column("p_size").cast(pa.int64()),
            "skey": batch.column("skey"),
        })

    # two parts of one (brand, type, size) can share a supplier --
    # distinct (group, supplier) first, then the count
    grp_supp = hash_aggregate(
        j.map_batches(shape, batch_format="pyarrow"),
        keys=["p_brand", "p_type", "p_size", "skey"],
        aggs={"__c": ("skey", "count")})
    return hash_aggregate(
        grp_supp, keys=["p_brand", "p_type", "p_size"],
        aggs={"supplier_cnt": ("skey", "count")})


def q_land_regions(sf_dir: str):
    """Archipelago census: connected land regions of the T6 lattice
    per continent (rook adjacency over covers_land tiles) -- region
    count, largest region, land-tile count; the per-region work-unit
    sizing for land-only processing (stages/tilestats.land_regions,
    bounded min-label fixpoint).  SQL mirrors reachability with a
    recursive CTE over the pinned tiles_t6 golden."""
    from equi7grid_ray.export import tiles_table
    from equi7grid_ray.stages.tilestats import land_regions

    return land_regions(tiles_table("T6"))


def q_od_bearing(sf_dir: str):
    """Trip bearing rose: (user, day) origin->destination vectors
    classified into 8 compass sectors with the exact tile_aspect
    integer rule (45-degree boundaries on |dx| == |dy|), counted --
    the commute-anisotropy census
    (stages/trajectory.od_bearing_rose).  SQL mirrors the trip builder
    + CASE sector rule."""
    from equi7grid_ray.stages.trajectory import od_bearing_rose

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts"])
    pts = ev.map_batches(_traj_xy, batch_format="pyarrow")
    return od_bearing_rose(pts, cell_shift=5)


def q_brand_median_price(sf_dir: str):
    """Exact weighted lower median of line price per part brand,
    weighted by integer quantity (the robust price point per brand a
    mean would let outliers drag): smallest cents value whose
    cumulative weight reaches half the total
    (stages/quantiles.weighted_median -- (key, value) SUM combiner,
    one lexsort+cumsum per key partition).  SQL mirrors with window
    cumsums."""
    from equi7grid_ray.stages.quantiles import weighted_median

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_quantity", "l_extendedprice"])
    import pyarrow.parquet as pq

    from equi7grid_ray.stages.join import broadcast_join

    part = pq.read_table(f"{sf_dir}/part.parquet",
                         columns=["p_partkey", "p_brand"])

    def prep(batch: pa.Table) -> pa.Table:
        cents = np.rint(batch.column("l_extendedprice")
                        .to_numpy(zero_copy_only=False) * 100.0) \
            .astype(np.int64)
        qty = np.rint(batch.column("l_quantity")
                      .to_numpy(zero_copy_only=False)).astype(np.int64)
        return pa.table({
            "p_partkey": batch.column("l_partkey").cast(pa.int64()),
            "cents": pa.array(cents, pa.int64()),
            "qty": pa.array(qty, pa.int64()),
        })

    j = broadcast_join(li.map_batches(prep, batch_format="pyarrow"),
                       part, on="p_partkey", how="inner")
    return weighted_median(j, key="p_brand", val="cents", weight="qty")


def _snap_segments() -> "np.ndarray":
    """Deterministic 12-segment synthetic road network in the
    >>10-cell coordinate domain (shared literal-for-literal with the
    SQL oracle's VALUES table)."""
    rows = []
    for s in range(12):
        ax = (83 * s + 11) % 900
        ay = (127 * s + 23) % 900
        bx = ax + 100 + (53 * s) % 300
        by = ay + (89 * s) % 400 - 200
        rows.append((ax, ay, bx, by))
    return np.array(rows, np.int64)


def _snap_seg_values() -> str:
    return ", ".join(
        f"({s}, {ax}, {ay}, {bx}, {by})"
        for s, (ax, ay, bx, by) in enumerate(_snap_segments()))


def q_snap_to_network(sf_dir: str):
    """Nearest-road-segment assignment (map-matching's inner kernel):
    every event point snaps to its nearest of 12 broadcast network
    segments by the exact clamped-projection squared distance,
    quantized ((num * q) // L) so engine and SQL share one
    deterministic rule; per segment the point count, close-point count
    and min distance (stages/neighbors.snap_to_segments -- K
    vectorized passes, no point shuffle).  SQL mirrors with a CROSS
    JOIN + row_number argmin."""
    from equi7grid_ray.stages.neighbors import snap_to_segments

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    def prep(batch: pa.Table) -> pa.Table:
        t = _traj_xy(batch)
        return pa.table({
            "x": pa.array(t.column("x").to_numpy() >> 10, pa.int64()),
            "y": pa.array(t.column("y").to_numpy() >> 10, pa.int64()),
        })

    return snap_to_segments(ev.map_batches(prep, batch_format="pyarrow"),
                            _snap_segments())


def _hll_pair_sql_ref() -> str:
    from equi7grid_ray.stages.sketch import hll_pair_sql
    return hll_pair_sql("events", "event_type", "user_id", p=4)


def q_hll_user_overlap(sf_dir: str):
    """HLL sketch set algebra: estimated user-audience overlap between
    every pair of event types via register-wise max merge +
    inclusion-exclusion (est_a + est_b - est_union) -- the
    segment-overlap question a sketch store answers without touching
    raw rows.  RAW estimator on every side (linear counting does not
    distribute over merges), so engine and SQL mirror share the exact
    dyadic math at any scale (stages/sketch.hll_set_algebra; mirror
    hll_pair_sql)."""
    from equi7grid_ray.stages.sketch import hll_set_algebra

    ds = _read(sf_dir, "events", ["event_type", "user_id"])
    return hll_set_algebra(ds, key_col="event_type", col="user_id", p=4)


def q_quadtree_cells(sf_dir: str):
    """Adaptive quadtree binning of the event point cloud: split the
    2^20-unit domain until every leaf holds <= 500 points or depth 4
    -- density-adaptive work units for skewed spatial data (the fixed
    cell_pyramid can't equalize).  One bounded keyed histogram at
    max depth, parent roll-up + leaf-frontier selection in a single
    fold (stages/zorder.quadtree_leaves); SQL mirrors with stacked
    GROUP BYs + parent joins."""
    from equi7grid_ray.stages.zorder import quadtree_leaves

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    def prep(batch: pa.Table) -> pa.Table:
        t = _traj_xy(batch)
        return pa.table({"x": t.column("x"), "y": t.column("y")})

    return quadtree_leaves(ev.map_batches(prep, batch_format="pyarrow"))


def q_tile_transition(sf_dir: str):
    """Two-epoch class-transition matrix (land-cover change census):
    per-cell epoch MAX composites classified into 4 brightness classes
    and cross-tabulated per continent -- which class flips into which
    (stages/temporal.tile_transition_matrix; one conditional-max keyed
    aggregate, bounded 7 x 16 output).  SQL mirrors the cell CTE +
    floor-division classes."""
    from equi7grid_ray.stages.temporal import tile_transition_matrix

    return tile_transition_matrix(_scene_cells())


# Loudest-window locator: per PCM clip the max 256-sample
# sliding-window energy and its earliest start (cue-point /
# loudness-normalization primitive); one cumsum+diff per clip
# (stages/multimodal.AudioPeakWindow).  SQL mirrors the s16le sample
# formula + a 256-row window sum.
q_audio_peak_window = _frame_query(mm.AudioPeakWindow, 500)


def q_doc_readability(sf_dir: str):
    """LIX readability (Bjornsson 1968) in exact integers: lix_q =
    (words * 1000) // sentences + (long_words * 100000) // words, with
    byte-length long-word rule and [.!?] sentence count floored at 1
    (stages/text.doc_readability; map-only Arrow kernels).  SQL
    mirrors with strlen + regexp_replace counting."""
    from equi7grid_ray.stages.text import doc_readability

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return doc_readability(ds)


# Static-segment census per video (the complement of video_cuts,
# same exact 4*SAD >= 255*w rule): static-pair count, maximal-run
# count and longest run via one vectorized gaps-and-islands pass
# (stages/multimodal.VideoStaticRuns) -- the segment-duration stats
# that set frame-sampling rates.  SQL mirrors with row_number
# islands over the non-cut pairs.
q_video_static_runs = _frame_query(mm.VideoStaticRuns, 200)


# Vertical projection profile per image (layout/barcode
# primitive): peak column sum, earliest peak column, bright-column
# count (stages/multimodal.ColProfileStats; one axis-0 sum per
# frame).  SQL groups the pixel formula by column.
q_image_colprofile = _frame_query(mm.ColProfileStats, 300)


def q_coverage_churn(sf_dir: str):
    """Two-epoch coverage churn per continent: tiles observed in the
    even vs odd scene halves rolled up as kept / gained / lost -- the
    collection-cycle coverage delta (stages/tilestats.coverage_churn;
    conditional-max presence aggregate + bounded rollup).  SQL mirrors
    over the pinned image_tiles golden (scene range restricted)."""
    from equi7grid_ray.stages.tilestats import coverage_churn

    return coverage_churn(_assigned_scenes())


def q_event_periodicity(sf_dir: str):
    """Daily-periodicity detector: per event type the EXACT lag-24
    autocovariance numerators of the dense hourly rate series
    (cov_num = N*Sxy - Sx*Sy plus both variance numerators, division/
    sqrt left cleared) -- is the signal diurnal?  Same one-shuffle
    hourly-count + bounded-series fold as event_type_correlation; SQL
    self-joins the dense grid at hr + 24."""
    from equi7grid_ray.arrowutil import single_group
    from equi7grid_ray.stages.aggregate import hash_aggregate

    ds = _read(sf_dir, "events", ["ts", "event_type"])

    def prep(batch: pa.Table) -> pa.Table:
        t = batch.column("ts").cast(pa.int64()).to_numpy()
        return pa.table({
            "event_type": batch.column("event_type"),
            "hr": pa.array(t // 3_600_000_000, pa.int64()),
        })

    hc = hash_aggregate(
        ds.map_batches(prep, batch_format="pyarrow"),
        keys=["event_type", "hr"], aggs={"n": ("hr", "count")})

    LAG = 24

    def fold(g: "pd.DataFrame") -> "pd.DataFrame":
        import pandas as pd

        h0, h1 = int(g["hr"].min()), int(g["hr"].max())
        H = h1 - h0 + 1
        rows = []
        for k, gg in g.groupby("event_type", sort=False):
            x = np.zeros(H, np.int64)
            x[gg["hr"].to_numpy(np.int64) - h0] = \
                gg["n"].to_numpy(np.int64)
            if H <= LAG:
                continue
            a, b = x[:-LAG], x[LAG:]
            N = len(a)
            sx, sy = int(a.sum()), int(b.sum())
            rows.append((k, N, N * int((a * b).sum()) - sx * sy,
                         N * int((a * a).sum()) - sx * sx,
                         N * int((b * b).sum()) - sy * sy))
        return pd.DataFrame(rows, columns=[
            "event_type", "n_pairs", "cov_num", "varx_num", "vary_num"]) \
            .astype({c: np.int64 for c in
                     ("n_pairs", "cov_num", "varx_num", "vary_num")})

    return single_group(hc, fold, ["event_type", "n_pairs", "cov_num",
                                   "varx_num", "vary_num"])


def q_parquet_rowgroup_stats(sf_dir: str):
    """Row-group pruning inputs straight from parquet FOOTERS: per
    lineitem row group the row count, compressed bytes and the
    l_orderkey min/max zone map -- what the scan planner consults to
    skip row groups WITHOUT reading data pages (the 'prune at the
    read' story, made inspectable).  Metadata-only: O(row groups)
    bytes touched.  SQL mirrors via DuckDB's parquet_metadata();
    BOTH sides read the same _PQ_FOOTER_GATE file (oracle_sql() has
    no sf_dir channel, so a parametric engine side would silently
    diverge at any sf_dir other than the driver's gate -- instead the
    pin is shared and sf_dir is only the fallback when the gate file
    is absent, in which case the oracle errors loudly rather than
    mismatching)."""
    import pyarrow.parquet as pq
    import ray.data as rd

    path = _PQ_FOOTER_GATE if os.path.exists(_PQ_FOOTER_GATE) \
        else f"{sf_dir}/lineitem.parquet"
    md = pq.ParquetFile(path).metadata
    okey_idx = md.schema.names.index("l_orderkey")
    rows = []
    for g in range(md.num_row_groups):
        rg = md.row_group(g)
        col = rg.column(okey_idx)
        st = col.statistics
        rows.append((g, rg.num_rows, col.total_compressed_size,
                     int(st.min), int(st.max)))
    return rd.from_arrow(pa.table({
        "row_group": pa.array([r[0] for r in rows], pa.int64()),
        "num_rows": pa.array([r[1] for r in rows], pa.int64()),
        "okey_bytes": pa.array([r[2] for r in rows], pa.int64()),
        "min_okey": pa.array([r[3] for r in rows], pa.int64()),
        "max_okey": pa.array([r[4] for r in rows], pa.int64()),
    }))


def q_events_debounce(sf_dir: str):
    """Stream debounce census: per (user, type), events arriving
    within 5 s of the PREVIOUS event are suppressed (gaps-and-islands
    bursts; keep = first of burst) -- the duplicate-click filter every
    event pipeline runs.  One keyed partition pass; lag() SQL
    mirror."""
    from equi7grid_ray.stages.aggregate import cogroup

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts",
                                  "event_type"])

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": batch.column("user_id").cast(pa.int64()),
            "event_type": batch.column("event_type"),
            "ts_us": batch.column("ts").cast(pa.int64()),
            "event_id": batch.column("event_id").cast(pa.int64()),
        })

    def bursts(g: "pd.DataFrame") -> "pd.DataFrame":
        import pandas as pd

        g = g.sort_values(["user_id", "event_type", "ts_us", "event_id"],
                          kind="stable")
        u = g["user_id"].to_numpy(np.int64)
        ty = g["event_type"].to_numpy()
        t = g["ts_us"].to_numpy(np.int64)
        new = np.empty(len(g), dtype=bool)
        new[0] = True
        new[1:] = (u[1:] != u[:-1]) | (ty[1:] != ty[:-1]) \
            | (t[1:] - t[:-1] > 5_000_000)
        return g.assign(kept=new.astype(np.int64)) \
            .groupby(["user_id", "event_type"], as_index=False) \
            .agg(n_events=("kept", "size"), n_kept=("kept", "sum")) \
            .astype({"n_events": np.int64, "n_kept": np.int64})

    return cogroup(ds.map_batches(prep, batch_format="pyarrow"), ["user_id"],
                   bursts, n_partitions=32)


def q_edge_distance(sf_dir: str):
    """Tile-edge proximity QA over the projected coordinate sweep:
    histogram of each point's distance to its nearest T6 tile edge
    (10 km buckets) -- the edge-effect exposure census (how much of
    the archive sits where stencils need halo handling).  Pure integer
    map + bounded keyed count; plain modular-arithmetic SQL mirror."""
    from equi7grid_ray.stages.aggregate import hash_aggregate

    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_suppkey"])

    def prep(batch: pa.Table) -> pa.Table:
        x, y = _derive_xy(batch)
        dx = x % 600_000
        dy = y % 600_000
        d = np.minimum(np.minimum(dx, 600_000 - dx),
                       np.minimum(dy, 600_000 - dy))
        return pa.table({"bucket": pa.array(d // 10_000, pa.int64())})

    return hash_aggregate(ds.map_batches(prep, batch_format="pyarrow"),
                          keys=["bucket"], aggs={"n": ("bucket", "count")},
                          n_partitions=4)


def q_continent_hist_sim(sf_dir: str):
    """Cross-continent radiometric comparability: per continent the
    256-bin histogram of composite cell values (tile_mosaic v_max),
    compared pairwise by HISTOGRAM INTERSECTION (sum of per-bin mins,
    Swain & Ballard 1991) -- are two continents' archives tonally
    compatible before a global model trains on both?  Bounded 7 x 256
    fold; SQL mirrors the mosaic cell CTE + least() join."""
    import pyarrow.compute as pc_

    from equi7grid_ray.arrowutil import single_group
    from equi7grid_ray.stages.aggregate import hash_aggregate
    from equi7grid_ray.stages.mosaic import tile_mosaic

    mosaic = tile_mosaic(_tiled_scenes())

    def hist(batch: pa.Table) -> pa.Table:
        return pa.table({
            "continent": pc_.utf8_slice_codeunits(batch.column("tile"),
                                                  0, 2),
            "v": batch.column("v_max").cast(pa.int64()),
        })

    hc = hash_aggregate(mosaic.map_batches(hist, batch_format="pyarrow"),
                        keys=["continent", "v"],
                        aggs={"n": ("v", "count")}, n_partitions=4)

    def fold(g: "pd.DataFrame") -> "pd.DataFrame":
        import pandas as pd

        conts = sorted(g["continent"].unique())
        dense = {}
        for c in conts:
            gg = g[g["continent"] == c]
            h = np.zeros(256, np.int64)
            h[gg["v"].to_numpy(np.int64)] = gg["n"].to_numpy(np.int64)
            dense[c] = h
        rows = []
        for i, a in enumerate(conts):
            for b in conts[i + 1:]:
                rows.append((a, b, int(dense[a].sum()),
                             int(dense[b].sum()),
                             int(np.minimum(dense[a], dense[b]).sum())))
        return pd.DataFrame(rows, columns=[
            "cont_a", "cont_b", "n_a", "n_b", "overlap"]).astype(
                {c: np.int64 for c in ("n_a", "n_b", "overlap")})

    return single_group(hc, fold,
                        ["cont_a", "cont_b", "n_a", "n_b", "overlap"])


def q_embedding_separation(sf_dir: str):
    """Class-separation audit of the embedding space (the labeled-data
    QA before training a probe): per label pair the EXACT cleared
    squared distance between int8-code centroids,

        sep_num = sum_d (Sa_d * n_b - Sb_d * n_a)^2
        (true squared distance = sep_num / (n_a * n_b)^2)

    over the shared scalar-quantization rule of embedding_int8.  One
    bounded (label x dim) sum fold; SQL reuses the quantization CTE +
    a label-pair join."""
    from equi7grid_ray.arrowutil import single_group
    from equi7grid_ray.stages.aggregate import hash_aggregate

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding", "label"])
    import pyarrow.parquet as pq

    f = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["embedding"])
    mat = np.array(f.column("embedding").to_pylist(), np.float64)
    mn = mat.min(axis=0)
    mx = mat.max(axis=0)
    import ray
    rng_ref = ray.put((mn, mx))

    def partial(batch: pa.Table) -> pa.Table:
        import ray as _ray
        lo, hi = _ray.get(rng_ref)
        v = np.array(batch.column("embedding").to_pylist(), np.float64)
        lab = batch.column("label").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        span = hi - lo
        code = np.zeros_like(v)
        nz = span != 0
        code[:, nz] = np.clip(np.floor(
            (v[:, nz] - lo[nz]) * 255.0 / span[nz]), 0, 255)
        code = code.astype(np.int64)
        labs, inv = np.unique(lab, return_inverse=True)
        sums = np.zeros((len(labs), code.shape[1]), np.int64)
        np.add.at(sums, inv, code)
        cnt = np.bincount(inv, minlength=len(labs)).astype(np.int64)
        li, di = np.nonzero(np.ones_like(sums, bool))
        return pa.table({
            "label": pa.array(labs[li], pa.int64()),
            "d": pa.array(di, pa.int64()),
            "s": pa.array(sums[li, di], pa.int64()),
            "n": pa.array(np.where(di == 0, cnt[li], 0), pa.int64()),
        })

    agg = hash_aggregate(
        emb.map_batches(partial, batch_format="pyarrow"),
        keys=["label", "d"], aggs={"s": ("s", "sum"), "n": ("n", "sum")},
        n_partitions=4)

    def fold(g: "pd.DataFrame") -> "pd.DataFrame":
        import pandas as pd

        labs = sorted(g["label"].unique())
        dim = int(g["d"].max()) + 1
        S = {}
        N = {}
        for lv in labs:
            gg = g[g["label"] == lv]
            s = np.zeros(dim, np.int64)
            s[gg["d"].to_numpy(np.int64)] = gg["s"].to_numpy(np.int64)
            S[lv] = s
            N[lv] = int(gg["n"].sum())
        rows = []
        for i, a in enumerate(labs):
            for b in labs[i + 1:]:
                # object dtype => exact Python-int arithmetic, matching the
                # DuckDB HUGEINT accumulation at any scale (no int64 wrap).
                diff = S[a].astype(object) * N[b] - S[b].astype(object) * N[a]
                rows.append((a, b, N[a], N[b], int((diff * diff).sum())))
        return pd.DataFrame(rows, columns=[
            "label_a", "label_b", "n_a", "n_b", "sep_num"]).astype(
                {c: np.int64 for c in ("label_a", "label_b", "n_a",
                                       "n_b", "sep_num")})

    return single_group(agg, fold,
                        ["label_a", "label_b", "n_a", "n_b", "sep_num"])


def q_reactivations(sf_dir: str):
    """Dormant-customer reactivation census: per customer the count of
    order gaps longer than 60 days and the longest gap (days, trunc)
    -- the winback-campaign input.  One keyed partition pass; lag()
    SQL mirror."""
    from equi7grid_ray.stages.aggregate import cogroup

    ds = _read(sf_dir, "orders", ["o_custkey", "o_orderkey",
                                  "o_orderdate"])

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({
            "ckey": batch.column("o_custkey").cast(pa.int64()),
            "okey": batch.column("o_orderkey").cast(pa.int64()),
            "t": batch.column("o_orderdate").cast(pa.int64()),
        })

    def gaps(g: "pd.DataFrame") -> "pd.DataFrame":
        import pandas as pd

        g = g.sort_values(["ckey", "t", "okey"], kind="stable")
        k = g["ckey"].to_numpy(np.int64)
        t = g["t"].to_numpy(np.int64)
        same = np.empty(len(g), dtype=bool)
        same[0] = False
        same[1:] = k[1:] == k[:-1]
        gap = np.where(same, t - np.roll(t, 1), -1)
        gd = np.where(gap >= 0, gap // 86_400_000_000, -1)
        return g.assign(__gd=gd).groupby("ckey", as_index=False).agg(
            n_orders=("okey", "size"),
            n_reactivations=("__gd", lambda s: int((s > 60).sum())),
            max_gap_days=("__gd", "max"),
        ).astype({"n_orders": np.int64, "n_reactivations": np.int64,
                  "max_gap_days": np.int64})

    return cogroup(ds.map_batches(prep, batch_format="pyarrow"), ["ckey"],
                   gaps, n_partitions=16)


def q_k_anonymity(sf_dir: str):
    """k-anonymity audit (Sweeney 2002) over the order stream's
    quasi-identifier tuple (customer nation, order priority, order
    week): equivalence-class census + rows sitting in classes smaller
    than k=5 -- the re-identification risk gate a privacy review runs
    before data sharing.  One keyed count + a bounded rollup; plain
    GROUP BY mirror."""
    import pyarrow.parquet as pq

    from equi7grid_ray.arrowutil import single_group
    from equi7grid_ray.stages.aggregate import hash_aggregate
    from equi7grid_ray.stages.join import broadcast_join

    K = 5
    cust = pq.read_table(f"{sf_dir}/customer.parquet",
                         columns=["c_custkey", "c_nationkey"])
    orders = _read(sf_dir, "orders",
                   ["o_custkey", "o_orderpriority", "o_orderdate"])

    def prep(batch: pa.Table) -> pa.Table:
        wk = batch.column("o_orderdate").cast(pa.int64()).to_numpy() \
            // (7 * 86_400_000_000)
        return pa.table({
            "c_custkey": batch.column("o_custkey").cast(pa.int64()),
            "prio": batch.column("o_orderpriority"),
            "week": pa.array(wk, pa.int64()),
        })

    j = broadcast_join(orders.map_batches(prep, batch_format="pyarrow"),
                       cust, on="c_custkey", how="inner")

    def qi(batch: pa.Table) -> pa.Table:
        return pa.table({
            "nation": batch.column("c_nationkey").cast(pa.int64()),
            "prio": batch.column("prio"),
            "week": batch.column("week"),
        })

    classes = hash_aggregate(
        j.map_batches(qi, batch_format="pyarrow"),
        keys=["nation", "prio", "week"], aggs={"n": ("week", "count")})

    def fold(g: "pd.DataFrame") -> "pd.DataFrame":
        import pandas as pd

        n = g["n"].to_numpy(np.int64)
        return pd.DataFrame({
            "n_classes": [np.int64(len(n))],
            "min_class": [np.int64(n.min())],
            "n_rows": [np.int64(n.sum())],
            "risky_classes": [np.int64((n < K).sum())],
            "rows_at_risk": [np.int64(n[n < K].sum())],
        })

    return single_group(classes, fold,
                        ["n_classes", "min_class", "n_rows",
                         "risky_classes", "rows_at_risk"])


def q_tile_workload_balance(sf_dir: str):
    """Static workload balancing of the observed tile inventory onto 8
    workers by SNAKE (boustrophedon) assignment over the
    descending-scene-count order -- the deterministic, vectorizable
    stand-in for LPT that a tile scheduler plans with (worker =
    zig-zag of rank mod 2W).  Per worker: tile count, scene total;
    plus the rank tie rule (count DESC, tile ASC) shared with the SQL
    row_number mirror."""
    from equi7grid_ray.arrowutil import single_group
    from equi7grid_ray.stages.tilestats import tile_counts

    W = 8
    counts = tile_counts(_assigned_scenes(), name="n")

    def fold(g: "pd.DataFrame") -> "pd.DataFrame":
        import pandas as pd

        g = g.sort_values(["n", "tile"], ascending=[False, True],
                          kind="stable").reset_index(drop=True)
        r = np.arange(len(g), dtype=np.int64)
        cyc = r % (2 * W)
        worker = np.where(cyc < W, cyc, 2 * W - 1 - cyc)
        out = g.assign(worker=worker).groupby("worker", as_index=False) \
            .agg(n_tiles=("tile", "size"), total_scenes=("n", "sum"))
        return out.astype({"worker": np.int64, "n_tiles": np.int64,
                           "total_scenes": np.int64})

    return single_group(counts, fold,
                        ["worker", "n_tiles", "total_scenes"])


def q_abc_analysis(sf_dir: str):
    """ABC / Pareto revenue classification of parts: parts ranked by
    exact cents revenue (DESC, partkey ASC tie rule); class A while
    the running total is within 70% of the grand total, B within 90%,
    C after -- integer cross-multiplied thresholds (100 * cum <= 70 *
    total), no division.  Per class: part count, revenue total.  One
    keyed aggregate + a bounded ranked fold; window-cumsum mirror."""
    from equi7grid_ray.arrowutil import single_group
    from equi7grid_ray.stages.aggregate import hash_aggregate

    li = _read(sf_dir, "lineitem", ["l_partkey", "l_extendedprice"])

    def prep(batch: pa.Table) -> pa.Table:
        cents = np.rint(batch.column("l_extendedprice")
                        .to_numpy(zero_copy_only=False) * 100.0) \
            .astype(np.int64)
        return pa.table({
            "pkey": batch.column("l_partkey").cast(pa.int64()),
            "cents": pa.array(cents, pa.int64()),
        })

    rev = hash_aggregate(li.map_batches(prep, batch_format="pyarrow"),
                         keys=["pkey"], aggs={"rev": ("cents", "sum")})

    def fold(g: "pd.DataFrame") -> "pd.DataFrame":
        import pandas as pd

        g = g.sort_values(["rev", "pkey"], ascending=[False, True],
                          kind="stable").reset_index(drop=True)
        rev = g["rev"].to_numpy(np.int64)
        cum = np.cumsum(rev)
        total = int(cum[-1]) if len(cum) else 0
        cls = np.where(100 * cum <= 70 * total, 0,
                       np.where(100 * cum <= 90 * total, 1, 2))
        out = g.assign(abc=cls).groupby("abc", as_index=False).agg(
            n_parts=("pkey", "size"), revenue=("rev", "sum"))
        return out.astype({"abc": np.int64, "n_parts": np.int64,
                           "revenue": np.int64})

    return single_group(rev, fold, ["abc", "n_parts", "revenue"])


def q_unicode_audit(sf_dir: str):
    """UTF-8 ingestion audit per source: docs containing non-ASCII,
    total continuation bytes (byte length - codepoint length) and
    byte/char totals -- the encoding-health census a multilingual
    crawl runs before tokenizer decisions.  Exact integers from two
    Arrow kernels (offset-buffer byte lengths vs utf8_length); SQL
    mirrors with strlen() - length()."""
    import pyarrow.compute as pc_

    from equi7grid_ray.stages.aggregate import hash_aggregate
    from equi7grid_ray.stages.dedup import _column_bytes

    ds = _read(sf_dir, "documents", ["doc_id", "text", "source"])

    def prep(batch: pa.Table) -> pa.Table:
        col = batch.column("text")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        _, offs = _column_bytes(col)
        blen = np.diff(offs).astype(np.int64)
        clen = pc_.utf8_length(col).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        extra = blen - clen
        return pa.table({
            "source": batch.column("source"),
            "one": pa.array(np.ones(len(blen), np.int64)),
            "nonascii_doc": pa.array((extra > 0).astype(np.int64),
                                     pa.int64()),
            "extra_bytes": pa.array(extra, pa.int64()),
            "bytes": pa.array(blen, pa.int64()),
            "chars": pa.array(clen, pa.int64()),
        })

    return hash_aggregate(
        ds.map_batches(prep, batch_format="pyarrow"),
        keys=["source"],
        aggs={"n_docs": ("one", "sum"),
              "nonascii_docs": ("nonascii_doc", "sum"),
              "extra_bytes": ("extra_bytes", "sum"),
              "total_bytes": ("bytes", "sum"),
              "total_chars": ("chars", "sum")},
        n_partitions=4)


def q_embedding_topdims(sf_dir: str):
    """Dominant-dimension census of the embedding space: per vector
    the argmax int8-code dimension (earliest on ties), counted per
    dimension -- a quick anisotropy/dead-dimension diagnostic before
    indexing.  Shares the exact scalar-quantization rule with
    embedding_int8; SQL mirrors with a row_number argmax over the
    quantization CTE."""
    from equi7grid_ray.stages.aggregate import hash_aggregate

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    import pyarrow.parquet as pq

    f = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["embedding"])
    mat = np.array(f.column("embedding").to_pylist(), np.float64)
    mn = mat.min(axis=0)
    mx = mat.max(axis=0)
    import ray
    rng_ref = ray.put((mn, mx))

    def partial(batch: pa.Table) -> pa.Table:
        import ray as _ray
        lo, hi = _ray.get(rng_ref)
        v = np.array(batch.column("embedding").to_pylist(), np.float64)
        span = hi - lo
        code = np.zeros_like(v)
        nz = span != 0
        code[:, nz] = np.clip(np.floor(
            (v[:, nz] - lo[nz]) * 255.0 / span[nz]), 0, 255)
        code = code.astype(np.int64)
        top = code.argmax(axis=1).astype(np.int64)  # earliest max
        return pa.table({"dim": pa.array(top, pa.int64())})

    return hash_aggregate(
        emb.map_batches(partial, batch_format="pyarrow"),
        keys=["dim"], aggs={"n_vecs": ("dim", "count")}, n_partitions=4)


def q_behavior_signatures(sf_dir: str):
    """Behavioral set-signature census: each user's DISTINCT event-type
    set packed into a bitmask (5 known types -> 32 possible segments),
    counted per signature -- the exact market-segmentation /
    funnel-coverage census ("how many users click+view but never
    purchase").  Per-batch (user, bit) OR-partials ride one keyed max
    aggregate; bounded signature rollup.  SQL mirrors with bit-value
    sums over conditional maxes."""
    from equi7grid_ray.stages.aggregate import hash_aggregate

    TYPES = ["click", "error", "purchase", "signup", "view"]
    lut = {t: 1 << i for i, t in enumerate(TYPES)}

    ds = _read(sf_dir, "events", ["event_id", "user_id", "event_type"])

    def prep(batch: pa.Table) -> pa.Table:
        # deterministic 1/7 behavior window -- full-history signatures
        # saturate (every user eventually does everything); the census
        # is about a bounded observation window
        eid = batch.column("event_id").to_numpy(zero_copy_only=False)             .astype(np.int64)
        batch = batch.filter(pa.array(eid % 7 == 0))
        ty = batch.column("event_type").to_pylist()
        bits = np.array([lut.get(t, 0) for t in ty], np.int64)
        t = pa.table({
            "user_id": batch.column("user_id").cast(pa.int64()),
            "b": pa.array(bits, pa.int64()),
        }).group_by(["user_id", "b"]).aggregate([([], "count_all")])
        return pa.table({"user_id": t.column("user_id"),
                         "b": t.column("b")})

    # per-user signature: distinct bits OR-fold = SUM of distinct bit
    # values (each bit appears at most once after the distinct)
    per_bit = hash_aggregate(
        ds.map_batches(prep, batch_format="pyarrow"),
        keys=["user_id", "b"], aggs={"__c": ("b", "count")},
        n_partitions=8)
    sig = hash_aggregate(per_bit, keys=["user_id"],
                         aggs={"signature": ("b", "sum")}, n_partitions=8)
    return hash_aggregate(sig, keys=["signature"],
                          aggs={"n_users": ("signature", "count")},
                          n_partitions=4)


def q_order_attribution(sf_dir: str):
    """Cross-table last-touch attribution: every EVENT is credited to
    the user's most recent ORDER strictly before it (the synthetic
    clock places all orders before all events, so this is the
    post-purchase-activity attribution join), events without a prior
    order credited 'none'; counts per order priority.  (user, date)
    ties pre-deduped deterministically by max orderkey (priority rides
    packed as okey*8+code).  One partition-cogroup asof_join
    (stages/join.asof_join) + a bounded rollup; SQL mirrors with an
    ORDER BY ... LIMIT 1 lateral."""
    from equi7grid_ray.stages.aggregate import hash_aggregate
    from equi7grid_ray.stages.join import asof_join

    PRIOS = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED",
             "5-LOW"]
    code_of = {p: i for i, p in enumerate(PRIOS)}

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey",
                                      "o_orderdate", "o_orderpriority"])

    def prep_o(batch: pa.Table) -> pa.Table:
        pr = batch.column("o_orderpriority").to_pylist()
        code = np.array([code_of.get(p, 7) for p in pr], np.int64)
        okey = batch.column("o_orderkey").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        return pa.table({
            "uid": batch.column("o_custkey").cast(pa.int64()),
            "t": batch.column("o_orderdate").cast(pa.int64()),
            "pk": pa.array(okey * 8 + code, pa.int64()),
        })

    ded = hash_aggregate(
        orders.map_batches(prep_o, batch_format="pyarrow"),
        keys=["uid", "t"], aggs={"pk": ("pk", "max")}, n_partitions=16)

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    def prep_e(batch: pa.Table) -> pa.Table:
        return pa.table({
            "eid": batch.column("event_id").cast(pa.int64()),
            "uid": batch.column("user_id").cast(pa.int64()),
            "t": batch.column("ts").cast(pa.int64()),
        })

    j = asof_join(ev.map_batches(prep_e, batch_format="pyarrow"),
                  ded, on="t", by="uid", direction="backward",
                  allow_exact_matches=False)

    names = np.array(PRIOS + ["?", "?", "none"])

    def rollup(batch: pa.Table) -> pa.Table:
        pk = batch.column("pk").to_numpy(zero_copy_only=False)
        f = pk.astype(np.float64)
        code = np.where(np.isnan(f), 7.0, np.nan_to_num(f) % 8) \
            .astype(np.int64)
        return pa.table({"attr_prio": pa.array(names[code], pa.string())})

    return hash_aggregate(
        j.map_batches(rollup, batch_format="pyarrow"),
        keys=["attr_prio"], aggs={"n_events": ("attr_prio", "count")},
        n_partitions=4)


def q_discount_elasticity(sf_dir: str):
    """Grouped ordinary-least-squares in cleared integers: per return
    flag the exact slope numerator/denominator of line price (cents)
    regressed on discount (%) -- slope = cov_num / var_num with
    cov_num = n*Sxy - Sx*Sy, var_num = n*Sxx - Sx^2 (division left
    rational, so sign and cross-group comparisons stay exact).  Five
    integer sums ride one keyed aggregate (combiner-first); plain
    aggregate mirror.  Exact while n * Sxy stays under 2^63 -- holds
    per flag through sf0.1; larger scales should regress in dollars."""
    from equi7grid_ray.stages.aggregate import hash_aggregate

    li = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_extendedprice", "l_discount"])

    def prep(batch: pa.Table) -> pa.Table:
        y = np.rint(batch.column("l_extendedprice")
                    .to_numpy(zero_copy_only=False) * 100.0) \
            .astype(np.int64)
        x = np.rint(batch.column("l_discount")
                    .to_numpy(zero_copy_only=False) * 100.0) \
            .astype(np.int64)
        return pa.table({
            "flag": batch.column("l_returnflag"),
            "one": pa.array(np.ones(len(x), np.int64)),
            "sx": pa.array(x, pa.int64()),
            "sy": pa.array(y, pa.int64()),
            "sxx": pa.array(x * x, pa.int64()),
            "sxy": pa.array(x * y, pa.int64()),
        })

    agg = hash_aggregate(
        li.map_batches(prep, batch_format="pyarrow"),
        keys=["flag"],
        aggs={c: (c, "sum") for c in ("one", "sx", "sy", "sxx", "sxy")},
        n_partitions=4)

    def finish(batch: pa.Table) -> pa.Table:
        n = batch.column("one").to_numpy(zero_copy_only=False)
        sx = batch.column("sx").to_numpy(zero_copy_only=False)
        sy = batch.column("sy").to_numpy(zero_copy_only=False)
        sxx = batch.column("sxx").to_numpy(zero_copy_only=False)
        sxy = batch.column("sxy").to_numpy(zero_copy_only=False)
        return pa.table({
            "flag": batch.column("flag"),
            "n": pa.array(n, pa.int64()),
            "cov_num": pa.array(n * sxy - sx * sy, pa.int64()),
            "var_num": pa.array(n * sxx - sx * sx, pa.int64()),
        })

    return agg.map_batches(finish, batch_format="pyarrow")


def queries() -> dict[str, Callable[[str], Any]]:
    """One ``q_<name>`` callable per ``oracle_sql()`` entry, in its order."""
    return {name: globals()[f"q_{name}"] for name in oracle_sql()}


def _bpe_token_stats_sql() -> str:
    """SQL mirror of stages.text.bpe_token_count: DuckDB's
    regexp_extract_all runs the SAME RE2 engine as Arrow's
    count_substring_regex, so counting matches of the shared
    BPE_SPLIT_RE constant is exact (unicode classes included)."""
    from equi7grid_ray.stages.text import BPE_SPLIT_RE

    pat = BPE_SPLIT_RE.replace("'", "''")
    return (
        "SELECT lang, count(*) AS n_docs, "
        f"CAST(sum(len(regexp_extract_all(text, '{pat}'))) AS BIGINT) "
        "AS sum_bpe_tokens FROM documents GROUP BY lang"
    )


def _langid_oracle_sql() -> str:
    """SQL mirror of stages.text.LangId: per-language score = number of
    DISTINCT profile trigrams present in lower(text); best = first
    argmax over (en, de, fr); 'und' when all scores are zero.  Built
    from LangId._PROFILES so the two stay in sync."""
    from equi7grid_ray.stages.text import LangId

    def score(lang: str) -> str:
        terms = " + ".join(
            f"(CASE WHEN contains(lower(text), '{g}') THEN 1 ELSE 0 END)"
            for g in LangId._PROFILES[lang]
        )
        return f"({terms}) AS s_{lang}"

    scores = ", ".join(score(lang) for lang in LangId._PROFILES)
    return (
        f"WITH s AS (SELECT lang, {scores} FROM documents), "
        "p AS (SELECT lang, CASE "
        "WHEN s_en = 0 AND s_de = 0 AND s_fr = 0 THEN 'und' "
        "WHEN s_en >= s_de AND s_en >= s_fr THEN 'en' "
        "WHEN s_de >= s_fr THEN 'de' ELSE 'fr' END AS lang_pred FROM s) "
        "SELECT lang, lang_pred, count(*) AS n FROM p GROUP BY lang, lang_pred"
    )


def _split_counts_sql() -> str:
    from equi7grid_ray.sqlgen import _mix64_ctes
    from equi7grid_ray.stages.sample import SAMPLE_SALT, rate_to_threshold

    t1 = rate_to_threshold(0.8)
    t2 = rate_to_threshold(0.8 + 0.1)
    return f"""
WITH h0 AS (
  SELECT doc_id, lang,
    xor(doc_id::UBIGINT, {int(SAMPLE_SALT)}::UBIGINT) AS h
  FROM documents),
{_mix64_ctes('h0', 'h', 'doc_id, lang')},
lab AS (SELECT lang,
  CASE WHEN h % {1 << 32} < {t1} THEN 'train'
       WHEN h % {1 << 32} < {t2} THEN 'val' ELSE 'test' END AS split
  FROM mixed)
SELECT split, lang, count(*) AS n FROM lab GROUP BY split, lang"""


def _split_leakage_sql() -> str:
    from equi7grid_ray.sqlgen import _mix64_ctes, lsh_pairs_sql
    from equi7grid_ray.stages.sample import SAMPLE_SALT, rate_to_threshold

    t1 = rate_to_threshold(0.8)
    t2 = rate_to_threshold(0.9)
    return f"""
WITH pairs AS ({lsh_pairs_sql()}),
nodes AS (
  SELECT id_a AS id FROM pairs UNION SELECT id_b FROM pairs),
h0 AS (
  SELECT id, xor(id::UBIGINT, {int(SAMPLE_SALT)}::UBIGINT) AS h
  FROM nodes),
{_mix64_ctes('h0', 'h', 'id')},
lab AS (SELECT id,
  CASE WHEN h % {1 << 32} < {t1} THEN 'train'
       WHEN h % {1 << 32} < {t2} THEN 'val' ELSE 'test' END AS split
  FROM mixed)
SELECT la.split AS split_a, lb.split AS split_b,
       count(*)::BIGINT AS n_pairs
FROM pairs p
JOIN lab la ON la.id = p.id_a
JOIN lab lb ON lb.id = p.id_b
GROUP BY 1, 2"""


def _events_pivot_sql() -> str:
    cats = ("click", "error", "purchase", "signup", "view")
    return (
        "SELECT (epoch_us(ts) // 3600000000) % 24 AS hour, "
        + ", ".join(
            f"CAST(sum(CASE WHEN event_type = '{c}' THEN 1 ELSE 0 END) "
            f"AS BIGINT) AS n_{c}" for c in cats
        ) + ", "
        + ", ".join(
            f"CAST(sum(CASE WHEN event_type = '{c}' "
            f"THEN CAST(round(value * 100) AS BIGINT) ELSE 0 END) "
            f"AS BIGINT) AS sum_{c}" for c in cats
        )
        + " FROM events GROUP BY hour"
    )


def _hll_oracle_sql() -> str:
    from equi7grid_ray.stages.sketch import hll_sql

    return hll_sql("events", "event_id", p=8)


def _hll_by_oracle_sql() -> str:
    from equi7grid_ray.stages.sketch import hll_by_sql

    return hll_by_sql("events", "event_type", "event_id", p=5)


def _cms_oracle_sql() -> str:
    from equi7grid_ray.stages.sketch import cms_sql

    return cms_sql("events", "user_id", d=4, w=1024, topk=20)


def _gopher_filter_sql() -> str:
    """SQL mirror of stages.text.gopher_filter: same integer rules,
    same replace-based stopword counting, same first-failing-reason
    precedence."""
    from equi7grid_ray.stages.text import STOPWORDS

    hits = " + ".join(
        f"(length(text) - length(replace(text, '{sw}', ''))) // {len(sw)}"
        for sw in STOPWORDS
    )
    return (
        "WITH q AS (SELECT doc_id, "
        "length(text) AS n_chars, "
        "length(text) - length(replace(text, ' ', '')) + 1 AS w, "
        "length(replace(text, ' ', '')) AS ns, "
        "length(text) - length(regexp_replace(text, '[0-9]', '', 'g')) AS dg, "
        f"({hits}) AS h FROM documents), "
        "r AS (SELECT doc_id, "
        "(w >= 50 AND w <= 100000) AS ok1, "
        "(3 * w <= ns AND ns <= 10 * w) AS ok2, "
        "(h >= 2) AS ok3, "
        "(dg * 10 < n_chars * 3) AS ok4 FROM q) "
        "SELECT doc_id, (ok1 AND ok2 AND ok3 AND ok4) AS keep, "
        "CASE WHEN NOT ok1 THEN 'n_words' "
        "WHEN NOT ok2 THEN 'word_len' "
        "WHEN NOT ok3 THEN 'stopwords' "
        "WHEN NOT ok4 THEN 'digits' ELSE '' END AS reason FROM r"
    )


def _doc_quality_sql() -> str:
    """SQL mirror of stages.text.quality_buckets: all-integer bucket
    arithmetic, stopword hits via non-overlapping replace counting
    (same greedy left-to-right scan as Arrow's count_substring)."""
    from equi7grid_ray.stages.text import STOPWORDS

    hits = " + ".join(
        f"(length(text) - length(replace(text, '{sw}', ''))) // {len(sw)}"
        for sw in STOPWORDS
    )
    return (
        "WITH q AS (SELECT lang, "
        "length(text) AS n_chars, "
        "length(text) - length(replace(text, ' ', '')) + 1 AS n_tokens, "
        "length(replace(text, ' ', '')) AS nonspace, "
        "length(text) - length(regexp_replace(text, '[0-9]', '', 'g')) AS digits, "
        f"({hits}) AS hits FROM documents) "
        "SELECT lang, nonspace // n_tokens AS mtl_bucket, "
        "(digits * 10) // greatest(n_chars, 1) AS digit_decile, "
        "(hits * 1000) // n_tokens AS stop_pm_bucket, "
        "count(*) AS n FROM q "
        "GROUP BY lang, mtl_bucket, digit_decile, stop_pm_bucket"
    )


def _ivf_oracle_sql() -> str:
    from equi7grid_ray.stages.ann_ivf import random_centroids

    return sqlgen.ivf_topk_sql(random_centroids(16, 64), n_probe=6, k=10)


#: shared CTE chain producing per-(vec, subspace) PQ code assignments
#: (mirrors stages/similarity.py:embedding_pq_codes; int8-quantize rule
#: shared with the embedding_int8 oracle)
_PQ_CODES_CTES = """
WITH e AS (SELECT vec_id, unnest(embedding)::DOUBLE AS v,
                  generate_subscripts(embedding, 1) - 1 AS d0
           FROM embeddings),
st AS (SELECT d0, min(v) AS mn, max(v) AS mx FROM e GROUP BY d0),
q AS (SELECT e.vec_id, e.d0,
      (CASE WHEN st.mx = st.mn THEN 0
            ELSE least(greatest(
                floor((e.v - st.mn) * 255.0 / (st.mx - st.mn)), 0), 255)
       END)::BIGINT AS code
      FROM e JOIN st USING (d0)),
cent AS (SELECT s.s, c.c, d.d8,
         ((((s.s * 16 + c.c) * 8 + d.d8) * 2654435761) % 4294967296)
           % 256 AS cv
         FROM range(8) s(s), range(16) c(c), range(8) d(d8)),
dist AS (SELECT q.vec_id, cent.s AS s, cent.c,
         sum((q.code - cent.cv) * (q.code - cent.cv))::BIGINT AS dd
         FROM q JOIN cent ON cent.s = q.d0 // 8 AND cent.d8 = q.d0 % 8
         GROUP BY q.vec_id, cent.s, cent.c),
best AS (SELECT vec_id, s, c, dd,
         row_number() OVER (PARTITION BY vec_id, s ORDER BY dd, c) AS rk
         FROM dist)"""


def oracle_sql() -> dict[str, str]:
    """DuckDB SQL reproducing each query, keyed by its name.

    This dict declares the queries: ``queries()`` maps each key to
    ``q_<key>`` in this order.  Geodesic queries join the pinned
    lookup goldens (``_oracle_lookup``): the integer coordinate
    derivation is mirrored bit-exactly in SQL and the geodesic step --
    zone PIP + ellipsoidal AEQD forward -- is pinned by the committed
    lookup.  The ``*_pin.parquet`` oracles (regrid, GeoTIFF round trip,
    kmeans) are approval-pinned results of geodesic-resampling /
    container / iterative queries (``tools/gen_oracle_lookups.py``
    ``gen_query_pins``), not SQL-derived."""
    from equi7grid_ray.stages.text import EMAIL_RE as _EMAIL_RE
    from equi7grid_ray.stages.text import PHONE_RE as _PHONE_RE

    morph_s9 = " + ".join(
        f"CASE WHEN ((r.r + {dr}) * h + (c.c + {dc}) * w + i) % 256 >= 128"
        " THEN 1 ELSE 0 END"
        for dr in (-1, 0, 1) for dc in (-1, 0, 1)
    )

    lbp_code = " + ".join(
        f"(CASE WHEN ((r.r + {dr}) * h + (c.c + {dc}) * w + i) % 256"
        f" >= (r.r * h + c.c * w + i) % 256 THEN {1 << k} ELSE 0 END)"
        for k, (dr, dc) in enumerate(mm.LBPStats.OFFSETS)
    )
    # image_seam: one chained CTE per DP row (h = 32 frames only) --
    # three scalar self-joins per step, least() of the clamped trio.
    _SEAM_BIG = 1 << 40
    seam_steps = []
    for _r in range(1, 32):
        _p = f"dp{_r - 1}"
        seam_steps.append(
            f"dp{_r} AS MATERIALIZED (\n"
            f"  SELECT p.i, p.c, p.v + least(coalesce(l.m, {_SEAM_BIG}),"
            f" d.m, coalesce(rr.m, {_SEAM_BIG})) AS m\n"
            f"  FROM px p\n"
            f"  JOIN {_p} d ON d.i = p.i AND d.c = p.c\n"
            f"  LEFT JOIN {_p} l ON l.i = p.i AND l.c = p.c - 1\n"
            f"  LEFT JOIN {_p} rr ON rr.i = p.i AND rr.c = p.c + 1\n"
            f"  WHERE p.r = {_r})"
        )
    # tile_cost_distance: 8 unrolled Bellman-Ford rounds over the
    # parsed tile lattice, four LEFT JOINs per round.
    _CBIG = 1 << 40
    cost_steps = []
    for _r in range(1, 9):
        _p = f"cd{_r - 1}"
        cost_steps.append(
            f"cd{_r} AS MATERIALIZED (\n"
            f"  SELECT p.tile, p.ck, p.te, p.tn, p.w,\n"
            f"    least(p.d, coalesce(n1.d, {_CBIG}) + p.w,"
            f" coalesce(n2.d, {_CBIG}) + p.w,\n"
            f"          coalesce(n3.d, {_CBIG}) + p.w,"
            f" coalesce(n4.d, {_CBIG}) + p.w) AS d\n"
            f"  FROM {_p} p\n"
            f"  LEFT JOIN {_p} n1 ON n1.ck = p.ck AND n1.te = p.te - 6"
            f" AND n1.tn = p.tn\n"
            f"  LEFT JOIN {_p} n2 ON n2.ck = p.ck AND n2.te = p.te + 6"
            f" AND n2.tn = p.tn\n"
            f"  LEFT JOIN {_p} n3 ON n3.ck = p.ck AND n3.te = p.te"
            f" AND n3.tn = p.tn - 6\n"
            f"  LEFT JOIN {_p} n4 ON n4.ck = p.ck AND n4.te = p.te"
            f" AND n4.tn = p.tn + 6)"
        )
    cost_distance_sql = f"""
WITH cnt AS (
  SELECT tile, count(*)::BIGINT AS x
  FROM {_oracle_lookup('image_tiles.parquet')}
  WHERE i < 2000 GROUP BY tile),
{sqlgen.lattice_cte('cnt', 'tile, x, 1 + x % 4 AS w')},
mx AS (SELECT ck, max(x) AS mx FROM par GROUP BY ck),
cd0 AS MATERIALIZED (
  SELECT p.tile, p.ck, p.te, p.tn, p.w,
         CASE WHEN p.x = m.mx THEN 0 ELSE {_CBIG} END AS d
  FROM par p JOIN mx m ON m.ck = p.ck),
{",".join(cost_steps)}
SELECT tile, w::BIGINT AS w,
       (CASE WHEN d >= {_CBIG} THEN -1 ELSE d END)::BIGINT AS dist
FROM cd8"""
    seam_sql = f"""
WITH img AS (
  SELECT i, CASE i % 3 WHEN 0 THEN 32 WHEN 1 THEN 64 ELSE 128 END AS w
  FROM range(300) t(i) WHERE (i // 3) % 3 = 0),
px AS MATERIALIZED (
  SELECT i, r.r AS r, c.c AS c, ((r.r * 32 + c.c * w + i) % 256) AS v
  FROM img,
  LATERAL (SELECT unnest(range(32)) AS r) r,
  LATERAL (SELECT unnest(range(w)) AS c) c),
dp0 AS MATERIALIZED (SELECT i, c, v AS m FROM px WHERE r = 0),
{",".join(seam_steps)},
last31 AS (
  SELECT i, c, m, min(m) OVER (PARTITION BY i) AS mn FROM dp31)
SELECT printf('img%012d', i) AS image_id,
       max(mn)::BIGINT AS seam_cost,
       min(c) FILTER (WHERE m = mn)::BIGINT AS seam_col,
       (count(*) FILTER (WHERE m = mn))::BIGINT AS n_ties
FROM last31 GROUP BY i"""
    tile_expr = (
        f"printf('E%03dN%03dT6', ((l_orderkey * {_XMUL}) % {_XMOD}) // 600000 * 6, "
        f"((l_suppkey * {_YMUL}) % {_YMOD}) // 600000 * 6)"
    )
    t3_expr = (
        f"printf('E%03dN%03dT3', ((l_orderkey * {_XMUL}) % {_XMOD}) // 300000 * 3, "
        f"((l_suppkey * {_YMUL}) % {_YMOD}) // 300000 * 3)"
    )
    return {
        "tile_floor_hist": (
            f"SELECT {tile_expr} AS tile, count(*) AS n FROM lineitem GROUP BY tile"
        ),
        "cell_index_hist": (
            f"SELECT ({_CELL_L} * (1::BIGINT << 58)) "
            f" + ((((l_partkey * {_LATMUL}) % {_LATMOD}) * {1 << _CELL_L}) // {_LATMOD}) * (1::BIGINT << 29) "
            f" + (((l_orderkey * {_LONMUL}) % {_LONMOD}) * {1 << _CELL_L}) // {_LONMOD} AS cell, "
            f"count(*) AS n FROM lineitem GROUP BY cell"
        ),
        "tile_parent_rollup": (
            f"SELECT {t3_expr} AS parent_tile, count(*) AS n FROM lineitem GROUP BY parent_tile"
        ),
        "children_expand": (
            f"WITH d AS (SELECT DISTINCT ((l_orderkey * {_XMUL}) % {_XMOD}) // 600000 * 6 AS tx, "
            f"((l_suppkey * {_YMUL}) % {_YMOD}) // 600000 * 6 AS ty FROM lineitem) "
            "SELECT printf('E%03dN%03dT3', tx + dx, ty + dy) AS child_tile "
            "FROM d CROSS JOIN (VALUES (0, 0), (0, 3), (3, 0), (3, 3)) AS o(dx, dy)"
        ),
        "dedup_exact_docs": "SELECT min(doc_id) AS doc_id FROM documents GROUP BY text",
        "token_stats_by_lang": (
            "SELECT lang, count(*) AS n_docs, "
            "CAST(sum(length(text) - length(replace(text, ' ', '')) + 1) AS BIGINT) AS sum_tokens, "
            "CAST(sum(length(text)) AS BIGINT) AS sum_chars FROM documents GROUP BY lang"
        ),
        "bpe_token_stats": _bpe_token_stats_sql(),
        "punct_by_source": (
            "SELECT source, count(*) AS n_docs, "
            "CAST(sum(length(text) - length(regexp_replace(text, '[^a-zA-Z0-9 ]', '', 'g'))) AS BIGINT) AS sum_punct "
            "FROM documents GROUP BY source"
        ),
        "events_hourly": (
            "SELECT event_type, "
            "to_timestamp((epoch_us(ts) // 3600000000) * 3600)::TIMESTAMP AS window_start, "
            "count(*) AS n, CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT) AS sum_cents "
            "FROM events GROUP BY event_type, window_start"
        ),
        "event_seasonal_anomaly": """
WITH inst AS (
  SELECT event_type, epoch_us(ts) // 86400000000 AS d,
         (epoch_us(ts) // 3600000000) % 24 AS h,
         count(*)::BIGINT AS x
  FROM events GROUP BY 1, 2, 3),
grp AS (
  SELECT event_type, h, count(*)::BIGINT AS n, sum(x)::BIGINT AS s,
         sum(x * x)::BIGINT AS ss
  FROM inst GROUP BY 1, 2)
SELECT i.event_type, i.h::BIGINT AS h, any_value(g.n)::BIGINT AS n_days,
       sum(CASE WHEN (i.x * g.n - g.s) * (i.x * g.n - g.s)
                     > 4 * (g.n * g.ss - g.s * g.s)
                THEN 1 ELSE 0 END)::BIGINT AS n_outl,
       sum(CASE WHEN (i.x * g.n - g.s) * (i.x * g.n - g.s)
                     > 4 * (g.n * g.ss - g.s * g.s)
                THEN i.x ELSE 0 END)::BIGINT AS outl_x_sum
FROM inst i JOIN grp g ON g.event_type = i.event_type AND g.h = i.h
WHERE g.n >= 3
GROUP BY 1, 2""",
        "knn_cosine": (
            "SELECT vec_id FROM ("
            "SELECT vec_id, list_cosine_similarity(embedding, "
            "(SELECT embedding FROM embeddings WHERE vec_id = 0)) AS c "
            "FROM embeddings ORDER BY c DESC, vec_id LIMIT 10)"
        ),
        "knn_cosine_filtered": (
            "SELECT vec_id FROM ("
            "SELECT vec_id, list_cosine_similarity(embedding, "
            "(SELECT embedding FROM embeddings WHERE vec_id = 0)) AS c "
            "FROM embeddings WHERE label % 3 = 1 "
            "ORDER BY c DESC, vec_id LIMIT 10)"
        ),
        "order_backlog": """
WITH placed AS (
  SELECT epoch_us(o_orderdate) // 86400000000 AS day,
         count(*)::BIGINT AS delta
  FROM orders GROUP BY 1),
ls AS (
  SELECT l_orderkey, max(epoch_us(l_shipdate) // 86400000000) AS day
  FROM lineitem GROUP BY 1),
shipped AS (SELECT day, -count(*)::BIGINT AS delta FROM ls GROUP BY day),
d AS (
  SELECT day, sum(delta)::BIGINT AS delta
  FROM (SELECT * FROM placed UNION ALL SELECT * FROM shipped)
  GROUP BY day)
SELECT day, delta,
       (sum(delta) OVER (ORDER BY day
          ROWS UNBOUNDED PRECEDING))::BIGINT AS backlog
FROM d""",
        "audio_gate": sqlgen.audio_gate_sql(500),
        "audio_vad": sqlgen.audio_vad_sql(500),
        "priority_sla": """
WITH ls AS (
  SELECT l_orderkey, max(epoch_us(l_shipdate) // 86400000000) AS sd
  FROM lineitem GROUP BY 1)
SELECT o.o_orderpriority AS priority, count(*)::BIGINT AS n,
       (count(*) FILTER (WHERE ls.sd - epoch_us(o.o_orderdate)
                               // 86400000000 > 90))::BIGINT AS n_late,
       max(ls.sd - epoch_us(o.o_orderdate) // 86400000000)::BIGINT
         AS worst_lag
FROM orders o JOIN ls ON ls.l_orderkey = o.o_orderkey
GROUP BY o.o_orderpriority""",
        "image_bitplanes": f"""
WITH {sqlgen.pixels_sql(300)}
SELECT printf('img%012d', i) AS image_id,
       sum((v >> 0) & 1)::BIGINT AS p0, sum((v >> 1) & 1)::BIGINT AS p1,
       sum((v >> 2) & 1)::BIGINT AS p2, sum((v >> 3) & 1)::BIGINT AS p3,
       sum((v >> 4) & 1)::BIGINT AS p4, sum((v >> 5) & 1)::BIGINT AS p5,
       sum((v >> 6) & 1)::BIGINT AS p6, sum((v >> 7) & 1)::BIGINT AS p7
FROM px GROUP BY i""",
        "kwic_snippets": (
            "SELECT doc_id, strpos(text, ' data ') - 1 AS off, "
            "greatest(strpos(text, ' data ') - 1 - 20, 0) AS win_start, "
            "least(strpos(text, ' data ') - 1 + 26, n_chars) AS win_end "
            "FROM documents WHERE strpos(text, ' data ') > 0"
        ),
        "user_gap_quantiles": (
            "WITH g AS (SELECT user_id, epoch_us(ts) "
            "- lag(epoch_us(ts)) OVER (PARTITION BY user_id "
            "ORDER BY epoch_us(ts), event_id) AS gap_us FROM events), "
            "qq AS (SELECT user_id, "
            "quantile_disc(gap_us, [0.25, 0.5, 0.75]) AS vs "
            "FROM g WHERE gap_us IS NOT NULL GROUP BY user_id) "
            "SELECT user_id, 0.25 * u.i AS q, vs[u.i]::BIGINT AS v "
            "FROM qq, LATERAL (SELECT unnest(range(1, 4)) AS i) u"
        ),
        "tile_assign_real": (
            f"WITH s AS (SELECT {_UDEG_SQL} FROM lineitem) "
            f"SELECT l.tile, count(*) AS n FROM s "
            f"JOIN {_oracle_lookup('sweep_assign.parquet')} l "
            "USING (lon_udeg, lat_udeg) "
            "WHERE l.tile IS NOT NULL GROUP BY l.tile"
        ),
        "roi_tiles_global": (
            "SELECT tile, covers_land "
            f"FROM {_oracle_lookup('tiles_t6.parquet')}"
        ),
        "lsh_near_dup": sqlgen.lsh_pairs_sql(),
        "lsh_near_dup_verified": sqlgen.lsh_verified_pairs_sql(threshold=0.8),
        "near_dup_components": sqlgen.components_sql(),
        "dedup_canonical_docs": sqlgen.canonical_sql(),
        "dedup_keep_longest": sqlgen.canonical_quality_sql(),
        "mixture_allocation": """
WITH cnt AS (
  SELECT source, count(*)::BIGINT AS n_rows FROM documents
  GROUP BY source),
f0 AS (
  SELECT source, n_rows,
         CAST(floor(sqrt(n_rows::DOUBLE)) AS BIGINT) AS f
  FROM cnt),
f1 AS (  -- division-based isqrt corrections (overflow-safe)
  SELECT source, n_rows,
         f - (CASE WHEN f > 0 AND f > n_rows // greatest(f, 1)
              THEN 1 ELSE 0 END) AS f2
  FROM f0),
wt AS (
  SELECT source, n_rows,
         f2 + (CASE WHEN (f2 + 1) <= n_rows // (f2 + 1)
               THEN 1 ELSE 0 END) AS weight
  FROM f1),
tot AS (SELECT sum(weight)::BIGINT AS wsum FROM wt),
base AS (
  SELECT source, n_rows, weight,
         (1000 * weight) // wsum AS base,
         (1000 * weight) % wsum AS rem
  FROM wt, tot),
lr AS (
  SELECT *, row_number() OVER (ORDER BY rem DESC, source) AS rk,
         (SELECT 1000 - sum(base) FROM base) AS leftover
  FROM base)
SELECT source, n_rows, weight::BIGINT AS weight,
       (base + CASE WHEN rk <= leftover THEN 1 ELSE 0 END)::BIGINT
         AS quota
FROM lr""",
        "doc_novelty": sqlgen.doc_novelty_sql(),
        "event_rate_cusum": """
WITH hc AS (
  SELECT event_type, epoch_us(ts) // 3600000000 AS hr,
         count(*)::BIGINT AS n
  FROM events GROUP BY 1, 2),
bounds AS (
  SELECT event_type, min(hr) AS h0, max(hr) AS h1, sum(n) AS tot
  FROM hc GROUP BY 1),
idx AS (SELECT unnest(range((SELECT max(h1 - h0 + 1) FROM bounds))) AS i),
dense AS (
  SELECT b.event_type, b.h0 + i.i AS hr,
         b.h1 - b.h0 + 1 AS nh,
         (b.tot + b.h1 - b.h0) // (b.h1 - b.h0 + 1) AS k,
         coalesce(hc.n, 0) AS x
  FROM bounds b
  JOIN idx i ON i.i < b.h1 - b.h0 + 1
  LEFT JOIN hc ON hc.event_type = b.event_type AND hc.hr = b.h0 + i.i),
p1 AS (
  SELECT event_type, hr, nh, k,
         sum(x - k) OVER (PARTITION BY event_type ORDER BY hr) AS P
  FROM dense),
p2 AS (
  SELECT event_type, hr, nh, k, P,
         least(0, min(P) OVER (PARTITION BY event_type ORDER BY hr))
           AS mn
  FROM p1),
s AS (SELECT event_type, hr, nh, k, P - mn AS s FROM p2)
SELECT event_type,
       any_value(nh)::BIGINT AS n_buckets,
       any_value(k)::BIGINT AS k,
       sum(CASE WHEN s >= 3 * k THEN 1 ELSE 0 END)::BIGINT AS n_alarms,
       max(s)::BIGINT AS max_s,
       coalesce(min(hr) FILTER (WHERE s >= 3 * k), -1)::BIGINT
         AS first_alarm_bucket
FROM s GROUP BY event_type""",
        "vocab_growth": """
WITH tok AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS token
  FROM documents),
f AS (SELECT token, min(doc_id) // 50 AS b FROM tok GROUP BY token),
h AS (SELECT b, count(*)::BIGINT AS new_tokens FROM f GROUP BY b)
SELECT b::BIGINT AS bucket, new_tokens,
       (sum(new_tokens) OVER (ORDER BY b))::BIGINT AS cum_vocab
FROM h""",
        "bm25_topk": """
WITH tok AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS t FROM documents),
tf AS (
  SELECT doc_id, t, count(*)::BIGINT AS tf FROM tok
  WHERE t IN ('batch', 'merge', 'stream') GROUP BY 1, 2),
df AS (SELECT t, count(*)::BIGINT AS df FROM tf GROUP BY t),
n AS (SELECT count(*)::BIGINT AS n FROM documents),
sc AS (
  SELECT tf.doc_id,
         sum((n.n // greatest(df.df, 1))
             * ((tf.tf * 3 * 4096) // (tf.tf + 2)))::BIGINT AS score
  FROM tf JOIN df USING (t), n GROUP BY tf.doc_id)
SELECT doc_id, score FROM sc ORDER BY score DESC, doc_id LIMIT 10""",
        "user_retention": """
WITH ua AS (
  SELECT DISTINCT user_id, epoch_us(ts) // 604800000000 AS week
  FROM events),
fw AS (SELECT user_id, min(week) AS cohort_week FROM ua
       GROUP BY user_id)
SELECT fw.cohort_week::BIGINT AS cohort_week,
       (ua.week - fw.cohort_week)::BIGINT AS week_offset,
       count(*)::BIGINT AS n_users
FROM ua JOIN fw USING (user_id)
GROUP BY 1, 2""",
        "poly_simplify": """
WITH RECURSIVE p AS (
  SELECT k AS poly_id, 3 + k % 6 AS nv FROM range(20000) t(k)),
vert AS (
  SELECT poly_id, nv, v.v AS v,
         (poly_id * 131 + v.v * 977) % 2000 AS x,
         (poly_id * 197 + v.v * 1409) % 2000 AS y
  FROM p, LATERAL (SELECT unnest(range(nv)) AS v) v),
walk(poly_id, pos, nv, lx, ly, kept, cks) AS (
  SELECT poly_id, 0, nv, x, y, 1::BIGINT, (x + 7 * y)::BIGINT
  FROM vert WHERE v = 0
  UNION ALL
  SELECT w.poly_id, w.pos + 1, w.nv,
         CASE WHEN (v.x - w.lx) * (v.x - w.lx)
                 + (v.y - w.ly) * (v.y - w.ly) > 250000
              THEN v.x ELSE w.lx END,
         CASE WHEN (v.x - w.lx) * (v.x - w.lx)
                 + (v.y - w.ly) * (v.y - w.ly) > 250000
              THEN v.y ELSE w.ly END,
         w.kept + CASE WHEN (v.x - w.lx) * (v.x - w.lx)
                          + (v.y - w.ly) * (v.y - w.ly) > 250000
                  THEN 1 ELSE 0 END,
         w.cks + CASE WHEN (v.x - w.lx) * (v.x - w.lx)
                         + (v.y - w.ly) * (v.y - w.ly) > 250000
                 THEN v.x + 7 * v.y ELSE 0 END
  FROM walk w JOIN vert v
    ON v.poly_id = w.poly_id AND v.v = w.pos + 1)
SELECT poly_id, nv::BIGINT AS nv, kept AS n_kept, cks AS kept_cksum
FROM walk WHERE pos = nv - 1""",
        "event_type_correlation": """
WITH hc AS (
  SELECT event_type, epoch_us(ts) // 3600000000 AS hr,
         count(*)::BIGINT AS n
  FROM events GROUP BY 1, 2),
bounds AS (SELECT max(hr) - min(hr) + 1 AS H FROM hc),
per AS (
  SELECT event_type, sum(n)::BIGINT AS sx, sum(n * n)::BIGINT AS sxx
  FROM hc GROUP BY 1),
cross_ AS (
  SELECT a.event_type AS type_a, b.event_type AS type_b,
         sum(a.n * b.n)::BIGINT AS sxy
  FROM hc a JOIN hc b
    ON b.hr = a.hr AND a.event_type < b.event_type
  GROUP BY 1, 2)
SELECT p1.event_type AS type_a, p2.event_type AS type_b,
       (bo.H * coalesce(c.sxy, 0) - p1.sx * p2.sx)::BIGINT AS cov_num,
       (bo.H * p1.sxx - p1.sx * p1.sx)::BIGINT AS varx_num,
       (bo.H * p2.sxx - p2.sx * p2.sx)::BIGINT AS vary_num,
       bo.H::BIGINT AS n_hours
FROM per p1 JOIN per p2 ON p1.event_type < p2.event_type
CROSS JOIN bounds bo
LEFT JOIN cross_ c
  ON c.type_a = p1.event_type AND c.type_b = p2.event_type""",
        "split_leakage": _split_leakage_sql(),
        "audio_downsample": f"""
WITH {sqlgen.pcm_samples_sql(500)},
blk AS (
  SELECT i, k // 4 AS b, sum(v) AS s, count(*) AS c
  FROM sv GROUP BY i, k // 4),
y AS (SELECT i, s // 4 AS y FROM blk WHERE c = 4)
SELECT printf('img%012d', i) AS image_id,
       count(*)::BIGINT AS n_out,
       sum(y * y)::BIGINT AS sum_sq_ds,
       max(abs(y))::BIGINT AS peak_ds
FROM y GROUP BY i""",
        "graph_assortativity": f"""
WITH pairs AS ({sqlgen.lsh_pairs_sql()}),
ed AS (
  SELECT DISTINCT least(id_a, id_b) AS u, greatest(id_a, id_b) AS v
  FROM pairs WHERE id_a != id_b),
dirs AS (
  SELECT u AS s, v AS t FROM ed UNION ALL SELECT v, u FROM ed),
deg AS (SELECT s AS node, count(*)::BIGINT AS d FROM dirs GROUP BY s),
x AS (
  SELECT count(*)::BIGINT AS n_dir,
         sum(da.d)::BIGINT AS sx,
         sum(da.d * da.d)::BIGINT AS sxx,
         sum(da.d * db.d)::BIGINT AS sxy
  FROM dirs
  JOIN deg da ON da.node = dirs.s
  JOIN deg db ON db.node = dirs.t)
SELECT n_dir, (n_dir * sxy - sx * sx)::BIGINT AS cov_num,
       (n_dir * sxx - sx * sx)::BIGINT AS var_num
FROM x""",
        "local_supplier_revenue": """
SELECT n.n_name,
       sum(CAST(round(l.l_extendedprice * 100) AS BIGINT)
           * (100 - CAST(round(l.l_discount * 100) AS BIGINT)))::BIGINT
         AS revenue,
       count(*)::BIGINT AS n_lines
FROM lineitem l
JOIN orders o ON o.o_orderkey = l.l_orderkey
JOIN customer c ON c.c_custkey = o.o_custkey
JOIN supplier s ON s.s_suppkey = l.l_suppkey
JOIN nation n ON n.n_nationkey = s.s_nationkey
WHERE c.c_nationkey = s.s_nationkey
GROUP BY n.n_name""",
        "weekly_revenue_delta": """
WITH wk AS (
  SELECT epoch_us(o_orderdate) // 604800000000 AS week,
         sum(CAST(round(o_totalprice * 100) AS BIGINT))::BIGINT
           AS cents,
         count(*)::BIGINT AS n_orders
  FROM orders GROUP BY 1)
SELECT week, cents, n_orders,
       coalesce(cents - lag(cents) OVER (ORDER BY week), 0)::BIGINT
         AS delta
FROM wk""",
        "customer_rfm": """
WITH cust AS (
  SELECT o_custkey AS c,
         max(epoch_us(o_orderdate) // 604800000000) AS r,
         count(*)::BIGINT AS f,
         sum(CAST(round(o_totalprice * 100) AS BIGINT))::BIGINT AS m
  FROM orders GROUP BY 1),
q AS (SELECT
  quantile_disc(r, 0.25) AS r1, quantile_disc(r, 0.5) AS r2,
  quantile_disc(r, 0.75) AS r3,
  quantile_disc(f, 0.25) AS f1, quantile_disc(f, 0.5) AS f2,
  quantile_disc(f, 0.75) AS f3,
  quantile_disc(m, 0.25) AS m1, quantile_disc(m, 0.5) AS m2,
  quantile_disc(m, 0.75) AS m3
  FROM cust)
SELECT
  (1 + CASE WHEN r > r1 THEN 1 ELSE 0 END
     + CASE WHEN r > r2 THEN 1 ELSE 0 END
     + CASE WHEN r > r3 THEN 1 ELSE 0 END)::BIGINT AS r_code,
  (1 + CASE WHEN f > f1 THEN 1 ELSE 0 END
     + CASE WHEN f > f2 THEN 1 ELSE 0 END
     + CASE WHEN f > f3 THEN 1 ELSE 0 END)::BIGINT AS f_code,
  (1 + CASE WHEN m > m1 THEN 1 ELSE 0 END
     + CASE WHEN m > m2 THEN 1 ELSE 0 END
     + CASE WHEN m > m3 THEN 1 ELSE 0 END)::BIGINT AS m_code,
  count(*)::BIGINT AS n_customers
FROM cust, q GROUP BY 1, 2, 3""",
        "user_skew_report": """
WITH c AS (
  SELECT user_id, count(*)::BIGINT AS n FROM events GROUP BY 1),
agg AS (
  SELECT count(*)::BIGINT AS n_keys, sum(n)::BIGINT AS n_rows,
         max(n)::BIGINT AS max_n,
         quantile_disc(n, 0.5)::BIGINT AS p50_n,
         quantile_disc(n, 0.9)::BIGINT AS p90_n
  FROM c),
hk AS (
  SELECT user_id AS heavy_key FROM c, agg
  WHERE c.n = agg.max_n ORDER BY user_id LIMIT 1)
SELECT a.n_keys, a.n_rows, a.max_n, hk.heavy_key::BIGINT AS heavy_key,
       (a.max_n * 1000 // a.n_rows)::BIGINT AS top1_pm,
       a.p50_n, a.p90_n
FROM agg a, hk""",
        "dedup_report": sqlgen.dedup_report_sql(),
        "chunk_dedup_docs": (
            # mirror of stages/dedup.py:chunk_dedup (K=16): 1-based
            # inclusive list slices; first occurrence = lexicographic
            # min (doc_id, chunk_idx) via a row_number window
            "WITH t AS (SELECT doc_id, string_split(text, ' ') AS toks "
            "FROM documents), "
            "paras AS (SELECT doc_id, c.i AS idx, "
            "array_to_string(toks[c.i*16+1 : least((c.i+1)*16, len(toks))], ' ') AS para "
            "FROM t, LATERAL (SELECT unnest(range((len(toks)+15)//16)) AS i) c), "
            "keyed AS (SELECT doc_id, idx, para, row_number() OVER "
            "(PARTITION BY para ORDER BY doc_id, idx) AS rn FROM paras) "
            "SELECT doc_id, count(*) AS n_chunks, "
            "CAST(sum(CASE WHEN rn = 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_kept, "
            "CAST(sum(CASE WHEN rn = 1 THEN length(para) ELSE 0 END) AS BIGINT) AS kept_len "
            "FROM keyed GROUP BY doc_id"
        ),
        "doc_repetition": (
            # string-equality mirror of the engine's hash-equality
            # multiplicities (collision-free at these scales)
            "WITH t AS (SELECT doc_id, string_split(text, ' ') AS toks "
            "FROM documents), "
            "tok AS (SELECT doc_id, u.tok, u.i FROM t, "
            "LATERAL (SELECT unnest(toks) AS tok, "
            "unnest(range(len(toks))) AS i) u), "
            "tc AS (SELECT doc_id, tok, count(*) AS c FROM tok "
            "GROUP BY doc_id, tok), "
            "ta AS (SELECT doc_id, CAST(sum(c) AS BIGINT) AS n_toks, "
            "count(*) AS n_distinct_toks, CAST(max(c) AS BIGINT) AS max_tok_n "
            "FROM tc GROUP BY doc_id), "
            "bg0 AS (SELECT doc_id, tok, "
            "lead(tok) OVER (PARTITION BY doc_id ORDER BY i) AS nxt FROM tok), "
            "bgc AS (SELECT doc_id, tok, nxt, count(*) AS c FROM bg0 "
            "WHERE nxt IS NOT NULL GROUP BY doc_id, tok, nxt), "
            "ba AS (SELECT doc_id, CAST(sum(c) AS BIGINT) AS n_bigrams, "
            "count(*) AS n_distinct_bigrams, "
            "CAST(max(c) AS BIGINT) AS max_bigram_n FROM bgc GROUP BY doc_id) "
            "SELECT ta.doc_id, ta.n_toks, "
            "CAST(ta.n_distinct_toks AS BIGINT) AS n_distinct_toks, "
            "ta.max_tok_n, "
            "CAST(COALESCE(ba.n_bigrams, 0) AS BIGINT) AS n_bigrams, "
            "CAST(COALESCE(ba.n_distinct_bigrams, 0) AS BIGINT) AS n_distinct_bigrams, "
            "CAST(COALESCE(ba.max_bigram_n, 0) AS BIGINT) AS max_bigram_n "
            "FROM ta LEFT JOIN ba USING (doc_id)"
        ),
        "simhash_docs": sqlgen.simhash_sql(),
        "langid_docs": _langid_oracle_sql(),
        "norm_dedup_docs": (
            "SELECT min(doc_id) AS doc_id FROM documents "
            "GROUP BY regexp_replace(lower(text), '[^a-z0-9 ]', '', 'g')"
        ),
        "token_topk": (
            "SELECT token, CAST(count(*) AS BIGINT) AS n FROM "
            "(SELECT unnest(string_split(text, ' ')) AS token FROM documents) "
            "GROUP BY token ORDER BY n DESC, token LIMIT 20"
        ),
        "supplier_revenue_topk": (
            "SELECT s_name, cents FROM "
            "(SELECT l_suppkey, CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)) AS BIGINT) AS cents "
            "FROM lineitem GROUP BY l_suppkey ORDER BY cents DESC, l_suppkey LIMIT 10) t "
            "JOIN supplier ON s_suppkey = l_suppkey"
        ),
        "token_len_hist": (
            "SELECT lang, "
            "(length(text) - length(replace(text, ' ', '')) + 1) // 10 AS bucket, "
            "count(*) AS n FROM documents GROUP BY lang, bucket"
        ),
        "orders_by_nation": (
            "SELECT n_name, count(*) AS n_orders, "
            "CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT) AS sum_cents "
            "FROM orders JOIN customer ON o_custkey = c_custkey "
            "JOIN nation ON c_nationkey = n_nationkey GROUP BY n_name"
        ),
        "segment_revenue_native": (
            "SELECT c_mktsegment AS mktsegment, count(*) AS n_orders, "
            "CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT) AS sum_cents "
            "FROM customer JOIN orders ON c_custkey = o_custkey "
            "GROUP BY c_mktsegment"
        ),
        "customers_no_events": (
            "SELECT CAST(c_nationkey AS BIGINT) AS nationkey, "
            "count(*) AS n FROM customer "
            "WHERE c_custkey NOT IN (SELECT DISTINCT user_id FROM events) "
            "GROUP BY nationkey"
        ),
        "events_sessionize": (
            "WITH g AS (SELECT user_id, CASE WHEN ts - lag(ts) OVER "
            "(PARTITION BY user_id ORDER BY ts) > INTERVAL 30 MINUTE "
            "OR lag(ts) OVER (PARTITION BY user_id ORDER BY ts) IS NULL "
            "THEN 1 ELSE 0 END AS brk FROM events) "
            "SELECT user_id, count(*) AS n_events, CAST(sum(brk) AS BIGINT) AS n_sessions "
            "FROM g GROUP BY user_id"
        ),
        "allowed_samplings": (
            "SELECT s AS sampling FROM generate_series(1, 10000) t(s) "
            "WHERE 600000 % s = 0"
        ),
        "knn_tiles": (
            # rank per DISTINCT point, weight by multiplicity: a window
            # partitioned on row columns silently merges full-duplicate
            # rows (sf0.001 has one duplicate 4-tuple), dropping ranks
            f"WITH d AS (SELECT (l_orderkey * {_XMUL}) % {_XMOD} AS x, "
            f"(l_suppkey * {_YMUL}) % {_YMOD} AS y FROM lineitem), "
            "pts AS (SELECT x, y, count(*) AS w FROM d GROUP BY x, y), "
            "c AS (SELECT x, y, w, "
            "x // 600000 + o.dx AS tx, y // 600000 + o.dy AS ty "
            "FROM pts CROSS JOIN (VALUES (-1,-1),(-1,0),(-1,1),(0,-1),(0,0),(0,1),(1,-1),(1,0),(1,1)) AS o(dx, dy)), "
            "v AS (SELECT *, "
            "row_number() OVER (PARTITION BY x, y "
            "ORDER BY (x - (tx * 600000 + 300000)) ** 2 + (y - (ty * 600000 + 300000)) ** 2, tx, ty) AS rk "
            "FROM c WHERE tx BETWEEN 0 AND 14 AND ty BETWEEN 0 AND 9) "
            "SELECT rk - 1 AS rank, printf('E%03dN%03dT6', tx * 6, ty * 6) AS tile, "
            "CAST(sum(w) AS BIGINT) AS n FROM v WHERE rk <= 3 GROUP BY rank, tile"
        ),
        "knn_tiles_geodesic": (
            f"WITH s AS (SELECT {_UDEG_SQL} FROM lineitem "
            f"WHERE {_SWEEP_SUBSET_SQL}), "
            "c AS (SELECT count(*) AS n FROM s "
            f"JOIN {_oracle_lookup('sweep_assign.parquet')} l "
            "USING (lon_udeg, lat_udeg) WHERE l.continent IS NOT NULL) "
            "SELECT CAST(r.rank AS BIGINT) AS rank, c.n "
            "FROM (VALUES (0), (1), (2)) r(rank), c"
        ),
        "regrid_sample": (
            "SELECT tile, n_windows, px_sum "
            f"FROM {_oracle_lookup('regrid_sample_pin.parquet')}"
        ),
        "regrid_int16": (
            "SELECT tile, n_windows, px_sum, n_valid "
            f"FROM {_oracle_lookup('regrid_int16_pin.parquet')}"
        ),
        "regrid_equi7": sqlgen.regrid_equi7_sql(),
        "gtiff_roundtrip": (
            "SELECT tile, n_files, n_valid, px_sum, n_geo_ok "
            f"FROM {_oracle_lookup('gtiff_roundtrip_pin.parquet')}"
        ),
        # closed-form JPEG DC formula: q00=5 at quality 85 (Annex K
        # luma [0,0]=16 scaled by s=30: (16*30+50)//100 = 5); numpy
        # rint == roundbankers (ties-to-even)
        "jpeg_blocks": """
WITH img AS (SELECT i FROM range(300) t(i)),
blk AS (
  SELECT i, (i * 37 + 53 * b) % 256 AS c
  FROM img, range(4) bb(b)),
v AS (
  SELECT i, least(greatest(
    roundbankers(roundbankers(8.0 * (c - 128) / 5.0, 0) * 5.0 / 8.0
                 + 128.0, 0), 0), 255)::BIGINT AS px
  FROM blk)
SELECT i AS img, (sum(px) * 64)::BIGINT AS px_sum,
       1::BIGINT AS stream_ok
FROM v GROUP BY i""",
        "jpeg_header_census": """
WITH img AS (
  SELECT i, 16 + 8 * (i % 5) AS w, 16 + 8 * ((i // 5) % 4) AS h,
         (CASE WHEN i % 3 = 0 THEN 1 ELSE 3 END)::BIGINT AS components,
         (CASE WHEN i % 3 <> 0 AND i % 2 = 0
               THEN 2 ELSE 1 END)::BIGINT AS h_sampling
  FROM range(240) t(i))
SELECT components, h_sampling, count(*)::BIGINT AS n,
       sum(w * h)::BIGINT AS px_area
FROM img GROUP BY 1, 2""",
        "regrid_cubic": (
            "SELECT tile, n_windows, px_sum, n_valid "
            f"FROM {_oracle_lookup('regrid_cubic_pin.parquet')}"
        ),
        "ann_lsh_buckets": sqlgen.ann_lsh_buckets_sql(dim=64, n_planes=8),
        "distortion_stats": (
            f"WITH s AS (SELECT {_UDEG_SQL} FROM lineitem "
            f"WHERE {_SWEEP_SUBSET_SQL}) "
            "SELECT l.continent, l.k_pct_bucket, count(*) AS n FROM s "
            f"JOIN {_oracle_lookup('sweep_assign.parquet')} l "
            "USING (lon_udeg, lat_udeg) "
            "WHERE l.continent IS NOT NULL "
            "GROUP BY l.continent, l.k_pct_bucket"
        ),
        "grid_tiles_export": (
            f"SELECT * FROM {_oracle_lookup('tiles_t6.parquet')}"
        ),
        "tile_erosion": f"""
WITH {sqlgen.lattice_cte(_oracle_lookup('tiles_t6.parquet'))},
nb AS (
  SELECT a.tile,
    (count(*) FILTER (WHERE greatest(abs(a.te - b.te), abs(a.tn - b.tn))
                            <= 6))::BIGINT AS n1,
    (count(*) FILTER (WHERE greatest(abs(a.te - b.te), abs(a.tn - b.tn))
                            <= 12))::BIGINT AS n2,
    count(*)::BIGINT AS n3
  FROM par a JOIN par b
    ON a.ck = b.ck AND abs(a.te - b.te) <= 18 AND abs(a.tn - b.tn) <= 18
  GROUP BY a.tile)
SELECT tile, n1, n2, n3,
       (CASE WHEN n1 < 9 THEN 1 WHEN n2 < 25 THEN 2
             WHEN n3 < 49 THEN 3 ELSE 4 END)::BIGINT AS depth
FROM nb""",
        "pixel_index": (
            f"WITH d AS (SELECT (l_orderkey * {_XMUL}) % {_XMOD} AS x, "
            f"(l_suppkey * {_YMUL}) % {_YMOD} AS y FROM lineitem) "
            "SELECT printf('E%03dN%03dT6', x // 600000 * 6, y // 600000 * 6) AS tile, "
            "LEAST((y // 600000 * 600000 + 600000 - y) // 500, 1199) // 300 AS r_blk, "
            "((x - x // 600000 * 600000) // 500) // 300 AS c_blk, "
            "count(*) AS n FROM d GROUP BY tile, r_blk, c_blk"
        ),
        "zone_multi_hit_buffered": (
            f"WITH s AS (SELECT {_UDEG_SQL} FROM lineitem "
            f"WHERE {_SWEEP_SUBSET_SQL}) "
            "SELECT l.n_zones, count(*) AS n FROM s "
            f"JOIN {_oracle_lookup('sweep_assign.parquet')} l "
            "USING (lon_udeg, lat_udeg) GROUP BY l.n_zones"
        ),
        "image_stats": sqlgen.image_stats_sql(500),
        "image_stats_rgb": sqlgen.image_stats_rgb_sql(300),
        "image_dhash": sqlgen.image_dhash_sql(500),
        "image_dhash_pairs": sqlgen.image_dhash_pairs_sql(500, max_dist=3),
        "image_ahash": sqlgen.image_ahash_sql(500),
        "image_phash": sqlgen.image_phash_sql(300),
        "image_stats_pal": sqlgen.image_stats_pal_sql(300),
        "props_json_extract": """
SELECT event_type, count(*) AS n,
       sum(CAST(json_extract(props, '$.k') AS BIGINT))::BIGINT AS k_sum,
       max(CAST(json_extract(props, '$.k') AS BIGINT)) AS k_max
FROM events GROUP BY event_type""",
        "scd2_user_state": """
WITH ord AS (
  SELECT user_id, ts, event_id, event_type,
         lag(event_type) OVER w AS prev
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),
s AS (
  SELECT user_id, ts AS valid_from, event_id, event_type
  FROM ord WHERE prev IS NULL OR prev <> event_type)
SELECT user_id,
       row_number() OVER w2 AS version,
       event_type, valid_from,
       lead(valid_from) OVER w2 AS valid_to
FROM s WINDOW w2 AS (PARTITION BY user_id ORDER BY valid_from, event_id)""",
        "nchars_outliers": """
WITH st AS (
  SELECT lang, count(*) AS n, sum(n_chars) AS s,
         sum(n_chars::HUGEINT * n_chars) AS ss
  FROM documents GROUP BY lang)
SELECT d.lang, d.doc_id, d.n_chars
FROM documents d JOIN st ON st.lang = d.lang
WHERE st.n > 1
  AND (st.n * d.n_chars - st.s)::HUGEINT
      * (st.n * d.n_chars - st.s) * (st.n - 1)
      > 4 * st.n::HUGEINT * (st.n * st.ss - st.s::HUGEINT * st.s)""",
        "jaccard_join_exact": """
WITH d AS (SELECT doc_id, text FROM documents WHERE doc_id < 500),
grams AS (
  SELECT DISTINCT doc_id, substring(text, CAST(i AS INT), 8) AS gm
  FROM d, UNNEST(range(1, greatest(length(text) - 6, 2))) AS r(i)),
gcnt AS (SELECT doc_id, count(*) AS ng FROM grams GROUP BY doc_id),
inter AS (
  SELECT ga.doc_id AS id_a, gb.doc_id AS id_b, count(*) AS ni
  FROM grams ga JOIN grams gb ON gb.gm = ga.gm AND ga.doc_id < gb.doc_id
  GROUP BY 1, 2)
SELECT i.id_a, i.id_b
FROM inter i
JOIN gcnt na ON na.doc_id = i.id_a
JOIN gcnt nb ON nb.doc_id = i.id_b
WHERE i.ni * 9 >= 4 * (na.ng + nb.ng)""",
        "containment_join": """
WITH d AS (SELECT doc_id, text FROM documents WHERE doc_id < 500),
grams AS (
  SELECT DISTINCT doc_id, substring(text, CAST(i AS INT), 12) AS gm
  FROM d, UNNEST(range(1, greatest(length(text) - 10, 2))) AS r(i)),
gcnt AS (SELECT doc_id, count(*) AS ng FROM grams GROUP BY doc_id),
inter AS (
  SELECT ga.doc_id AS id_a, gb.doc_id AS id_b, count(*) AS ni
  FROM grams ga JOIN grams gb
    ON gb.gm = ga.gm AND ga.doc_id <> gb.doc_id
  GROUP BY 1, 2)
SELECT i.id_a, i.id_b
FROM inter i JOIN gcnt na ON na.doc_id = i.id_a
WHERE i.ni * 5 >= 4 * na.ng""",
        "part_affinity": """
WITH d AS (SELECT DISTINCT l_orderkey AS bk, l_partkey AS it
           FROM lineitem),
nb AS (SELECT count(DISTINCT bk) AS n FROM d),
cnt AS (SELECT it, count(*) AS c FROM d GROUP BY it),
pr AS (
  SELECT a.it AS item_a, b.it AS item_b, count(*)::BIGINT AS support
  FROM d a JOIN d b ON a.bk = b.bk AND a.it < b.it
  GROUP BY 1, 2 HAVING count(*) >= 2)
SELECT p.item_a, p.item_b, p.support,
       ((p.support * nb.n * 1000000) // (ca.c * cb.c))::BIGINT AS lift_q
FROM pr p
JOIN cnt ca ON ca.it = p.item_a
JOIN cnt cb ON cb.it = p.item_b, nb""",
        "priority_transitions": """
WITH seq AS (
  SELECT o_custkey, o_orderpriority AS pr,
         lag(o_orderpriority) OVER (
           PARTITION BY o_custkey
           ORDER BY o_orderdate, o_orderkey) AS prev
  FROM orders)
SELECT prev AS prev_priority, pr AS priority, count(*)::BIGINT AS n
FROM seq WHERE prev IS NOT NULL GROUP BY prev, pr""",
        "orders_cdc_diff": (
            "WITH base AS (SELECT o_orderkey AS k, "
            "CAST(round(o_totalprice * 100) AS BIGINT) AS cents, "
            "CAST(-1 AS BIGINT) AS seq, 0 AS del FROM orders), "
            "chg AS (SELECT l_orderkey AS k, "
            "CAST(round(l_extendedprice * 100) AS BIGINT) AS cents, "
            "CAST(l_linenumber AS BIGINT) AS seq, "
            "CASE WHEN (l_orderkey + l_linenumber) % 11 = 0 THEN 1 ELSE 0 END AS del "
            "FROM lineitem), "
            "allr AS (SELECT * FROM base UNION ALL SELECT * FROM chg), "
            "r AS (SELECT k, cents, del, row_number() OVER ("
            "PARTITION BY k ORDER BY seq DESC, del DESC, cents DESC) AS rn FROM allr), "
            "merged AS (SELECT k, cents FROM r WHERE rn = 1 AND del = 0), "
            "b AS (SELECT k, cents FROM base) "
            "SELECT COALESCE(b.k, m.k) AS k, "
            "CASE WHEN m.k IS NULL THEN 'only_left' "
            "WHEN b.k IS NULL THEN 'only_right' "
            "ELSE 'changed' END AS status "
            "FROM b FULL OUTER JOIN merged m ON m.k = b.k "
            "WHERE m.k IS NULL OR b.k IS NULL OR m.cents <> b.cents"
        ),
        "gopher_filter": _gopher_filter_sql(),
        "embedding_int8": """
WITH e AS (SELECT vec_id, unnest(embedding)::DOUBLE AS v,
                  generate_subscripts(embedding, 1) AS d FROM embeddings),
st AS (SELECT d, min(v) AS mn, max(v) AS mx FROM e GROUP BY d),
c AS (SELECT e.vec_id,
             CASE WHEN st.mx = st.mn THEN 0
                  ELSE least(greatest(
                      floor((e.v - st.mn) * 255.0 / (st.mx - st.mn)),
                      0), 255)::BIGINT END AS code
      FROM e JOIN st ON st.d = e.d)
SELECT vec_id, sum(code)::BIGINT AS code_sum,
       min(code) AS code_min, max(code) AS code_max
FROM c GROUP BY vec_id""",
        "embedding_dim_stats": """
WITH e AS (SELECT vec_id, unnest(embedding)::DOUBLE AS v,
                  generate_subscripts(embedding, 1) AS d FROM embeddings),
st AS (SELECT d, min(v) AS mn, max(v) AS mx FROM e GROUP BY d),
c AS (SELECT e.d,
             CASE WHEN st.mx = st.mn THEN 0
                  ELSE least(greatest(
                      floor((e.v - st.mn) * 255.0 / (st.mx - st.mn)),
                      0), 255)::BIGINT END AS code
      FROM e JOIN st ON st.d = e.d),
m AS (SELECT d - 1 AS d, count(*)::BIGINT AS n, sum(code)::BIGINT AS s,
             sum(code * code)::BIGINT AS ss
      FROM c GROUP BY d)
SELECT d, n, s, ss, (n * ss - s * s)::BIGINT AS var_num FROM m""",
        "edit_verified_pairs": sqlgen.lsh_edit_verified_sql(),
        "inverted_index": """
WITH tok AS (
  SELECT DISTINCT doc_id, unnest(string_split(text, ' ')) AS token
  FROM documents),
r AS (SELECT token, doc_id,
             row_number() OVER (PARTITION BY token ORDER BY doc_id) AS rn
      FROM tok)
SELECT token, count(*)::BIGINT AS df,
       string_agg(CASE WHEN rn <= 10 THEN doc_id::VARCHAR END,
                  ',' ORDER BY doc_id) AS postings
FROM r GROUP BY token""",
        "nchars_mad_outliers": """
WITH st AS (
  SELECT source, quantile_disc(n_chars, 0.5) AS med
  FROM documents GROUP BY source),
m2 AS (
  SELECT d.source, quantile_disc(abs(d.n_chars - st.med), 0.5) AS mad
  FROM documents d JOIN st USING (source) GROUP BY d.source)
SELECT d.source, d.doc_id, d.n_chars
FROM documents d JOIN st USING (source) JOIN m2 USING (source)
WHERE abs(d.n_chars - st.med) > 3 * m2.mad""",
        "cross_decontam_lsh": sqlgen.lsh_cross_pairs_sql(mod=50),
        "image_dedup_canonical": sqlgen.image_canonical_sql(500, max_dist=3),
        "image_dedup_ensemble":
            sqlgen.image_ensemble_canonical_sql(500, max_dist=3),
        "image_patches": f"""
WITH {sqlgen.pixels_sql(500)}
SELECT printf('img%012d', i) AS image_id, CAST(r // 16 AS INT) AS pr,
       CAST(c // 16 AS INT) AS pc, sum(v)::BIGINT AS px_sum
FROM px GROUP BY i, pr, pc""",
        "image_hist_eq": f"""
WITH {sqlgen.pixels_sql(500)},
hist AS (SELECT i, v, count(*) AS c FROM px GROUP BY i, v),
cdf AS (SELECT i, v, c,
               sum(c) OVER (PARTITION BY i ORDER BY v) AS cf FROM hist),
mn AS (SELECT i, min(cf) AS cdf_min, max(cf) AS npx FROM cdf GROUP BY i),
lut AS (SELECT c.i AS i, c.c AS c,
               ((c.cf - m.cdf_min) * 255)
               // greatest(m.npx - m.cdf_min, 1) AS eq
        FROM cdf c JOIN mn m ON m.i = c.i)
SELECT printf('img%012d', i) AS image_id,
       sum(eq * c)::BIGINT AS eq_sum,
       min(eq)::BIGINT AS eq_min, max(eq)::BIGINT AS eq_max
FROM lut GROUP BY i""",
        "image_pyramid": f"""
WITH {sqlgen.pixels_sql(300)},
blk AS (
  SELECT i, l.l AS l, sum(v) // ((1 << l.l) * (1 << l.l)) AS m
  FROM px, (SELECT unnest([1, 2, 3]) AS l) l
  GROUP BY i, l.l, r // (1 << l.l), c // (1 << l.l))
SELECT printf('img%012d', i) AS image_id, CAST(l AS INT) AS level,
       sum(m)::BIGINT AS py_sum, min(m)::BIGINT AS py_min,
       max(m)::BIGINT AS py_max
FROM blk GROUP BY i, l""",
        "tile_mosaic": f"""
WITH {_scene_blocks(2000)}
SELECT tile, CAST(gr AS INT) AS gr, CAST(gc AS INT) AS gc,
       max(m)::BIGINT AS v_max, sum(m)::BIGINT AS v_sum,
       count(*)::BIGINT AS n_img
FROM blk GROUP BY tile, gr, gc""",
        "collocations_pmi": """
WITH arr AS (
  SELECT doc_id, regexp_split_to_array(text, '\\s+') AS a FROM documents),
toks AS (
  SELECT doc_id, a[i.i] AS tok, i.i AS pos
  FROM arr, LATERAL (SELECT unnest(range(1, len(a) + 1)) AS i) i
  WHERE a[i.i] <> ''),
seq AS (
  SELECT doc_id, tok,
         row_number() OVER (PARTITION BY doc_id ORDER BY pos) AS p
  FROM toks),
pairs AS (
  SELECT a.tok AS tok_a, b.tok AS tok_b
  FROM seq a JOIN seq b ON b.doc_id = a.doc_id AND b.p = a.p + 1),
uni AS (SELECT tok, count(*)::HUGEINT AS c FROM seq GROUP BY tok),
nn AS (SELECT (SELECT count(*) FROM seq)::HUGEINT AS n,
              (SELECT count(*) FROM pairs)::HUGEINT AS np),
big AS (
  SELECT tok_a, tok_b, count(*)::BIGINT AS n_ab FROM pairs
  GROUP BY tok_a, tok_b HAVING count(*) >= 5)
SELECT b.tok_a, b.tok_b, b.n_ab,
       ((nn.n * nn.n * 1000000 * b.n_ab)
        // (nn.np * ua.c * ub.c))::BIGINT AS score
FROM big b JOIN uni ua ON ua.tok = b.tok_a
           JOIN uni ub ON ub.tok = b.tok_b, nn
ORDER BY score DESC, tok_a, tok_b LIMIT 50""",
        "pagerank_q": """
WITH e0 AS (
  SELECT DISTINCT l_orderkey % 1000 AS src, (l_partkey * 7) % 1000 AS dst
  FROM lineitem),
nodes AS (SELECT src AS node FROM e0 UNION SELECT dst FROM e0),
prm AS (
  SELECT count(*)::BIGINT AS n,
         1000000000000 // count(*) AS r_init,
         (15 * (1000000000000 // count(*))) // 100 AS base
  FROM nodes),
deg AS (SELECT src, count(*)::BIGINT AS deg FROM e0 GROUP BY src),
r0 AS (SELECT node, (SELECT r_init FROM prm) AS r FROM nodes),
s1 AS (SELECT e.dst AS node, sum(r.r // d.deg)::BIGINT AS s
       FROM e0 e JOIN deg d ON d.src = e.src JOIN r0 r ON r.node = e.src
       GROUP BY e.dst),
r1 AS (SELECT n.node,
              (SELECT base FROM prm) + (85 * COALESCE(s.s, 0)) // 100 AS r
       FROM nodes n LEFT JOIN s1 s ON s.node = n.node),
s2 AS (SELECT e.dst AS node, sum(r.r // d.deg)::BIGINT AS s
       FROM e0 e JOIN deg d ON d.src = e.src JOIN r1 r ON r.node = e.src
       GROUP BY e.dst),
r2 AS (SELECT n.node,
              (SELECT base FROM prm) + (85 * COALESCE(s.s, 0)) // 100 AS r
       FROM nodes n LEFT JOIN s2 s ON s.node = n.node),
s3 AS (SELECT e.dst AS node, sum(r.r // d.deg)::BIGINT AS s
       FROM e0 e JOIN deg d ON d.src = e.src JOIN r2 r ON r.node = e.src
       GROUP BY e.dst),
r3 AS (SELECT n.node,
              (SELECT base FROM prm) + (85 * COALESCE(s.s, 0)) // 100 AS r
       FROM nodes n LEFT JOIN s3 s ON s.node = n.node)
SELECT node, r::BIGINT AS rank_q FROM r3""",
        "tile_focal_mean": f"""
WITH {_scene_blocks(2000)},
{sqlgen.mosaic_gather_ctes([(dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1)])}
SELECT tile, gr, gc, (sum(v) // count(*))::BIGINT AS focal,
       count(*)::BIGINT AS wn
FROM j GROUP BY tile, gr, gc""",
        "image_blobs": """
WITH RECURSIVE img AS (SELECT 9 * k AS i FROM range(100) t(k)),
px AS (
  SELECT i, r.r AS r, c.c AS c
  FROM img,
  LATERAL (SELECT unnest(range(32)) AS r) r,
  LATERAL (SELECT unnest(range(32)) AS c) c
  WHERE ((r.r * 32 + c.c * 32 + i) % 256) >= 128),
fl AS (
  SELECT i, r, c,
         c - row_number() OVER (PARTITION BY i, r ORDER BY c) AS grp
  FROM px),
runs AS (
  SELECT i, r, min(c) AS c0, max(c) + 1 AS c1,
         row_number() OVER (PARTITION BY i ORDER BY r, min(c)) AS rid
  FROM fl GROUP BY i, r, grp),
adj AS (
  SELECT a.i, a.rid AS ra, b.rid AS rb
  FROM runs a JOIN runs b
    ON b.i = a.i AND b.r = a.r + 1 AND a.c0 < b.c1 AND b.c0 < a.c1),
edges AS (SELECT i, ra, rb FROM adj UNION SELECT i, rb AS ra, ra AS rb
          FROM adj),
reach(i, rid, l) AS (
  SELECT i, rid, rid FROM runs
  UNION
  SELECT e.i, e.ra, r2.l FROM edges e
  JOIN reach r2 ON r2.i = e.i AND r2.rid = e.rb),
comp AS (SELECT i, rid, min(l) AS root FROM reach GROUP BY i, rid),
rsz AS (
  SELECT r.i, c2.root, sum(r.c1 - r.c0) AS px
  FROM runs r JOIN comp c2 ON c2.i = r.i AND c2.rid = r.rid
  GROUP BY r.i, c2.root)
SELECT printf('img%012d', i) AS image_id, count(*)::BIGINT AS n_blobs,
       max(px)::BIGINT AS max_blob, sum(px)::BIGINT AS fg_px
FROM rsz GROUP BY i""",
        "blob_bbox": """
WITH RECURSIVE img AS (SELECT 9 * k AS i FROM range(100) t(k)),
px AS (
  SELECT i, r.r AS r, c.c AS c
  FROM img,
  LATERAL (SELECT unnest(range(32)) AS r) r,
  LATERAL (SELECT unnest(range(32)) AS c) c
  WHERE ((r.r * 32 + c.c * 32 + i) % 256) >= 128),
fl AS (
  SELECT i, r, c,
         c - row_number() OVER (PARTITION BY i, r ORDER BY c) AS grp
  FROM px),
runs AS (
  SELECT i, r, min(c) AS c0, max(c) + 1 AS c1,
         row_number() OVER (PARTITION BY i ORDER BY r, min(c)) AS rid
  FROM fl GROUP BY i, r, grp),
adj AS (
  SELECT a.i, a.rid AS ra, b.rid AS rb
  FROM runs a JOIN runs b
    ON b.i = a.i AND b.r = a.r + 1 AND a.c0 < b.c1 AND b.c0 < a.c1),
edges AS (SELECT i, ra, rb FROM adj UNION SELECT i, rb AS ra, ra AS rb
          FROM adj),
reach(i, rid, l) AS (
  SELECT i, rid, rid FROM runs
  UNION
  SELECT e.i, e.ra, r2.l FROM edges e
  JOIN reach r2 ON r2.i = e.i AND r2.rid = e.rb),
comp AS (SELECT i, rid, min(l) AS root FROM reach GROUP BY i, rid),
geo AS (
  SELECT r.i, c2.root,
         min(r.r) AS min_r, max(r.r) AS max_r,
         min(r.c0) AS min_c, max(r.c1) - 1 AS max_c,
         sum(r.c1 - r.c0) AS area
  FROM runs r JOIN comp c2 ON c2.i = r.i AND c2.rid = r.rid
  GROUP BY r.i, c2.root)
SELECT printf('img%012d', g.i) AS image_id,
       lr.r::BIGINT AS lbl_r, lr.c0::BIGINT AS lbl_c,
       g.min_r::BIGINT AS min_r, g.max_r::BIGINT AS max_r,
       g.min_c::BIGINT AS min_c, g.max_c::BIGINT AS max_c,
       g.area::BIGINT AS area
FROM geo g JOIN runs lr ON lr.i = g.i AND lr.rid = g.root""",
        "blob_perimeter": """
WITH RECURSIVE img AS (SELECT 9 * k AS i FROM range(100) t(k)),
px AS (
  SELECT i, r.r AS r, c.c AS c
  FROM img,
  LATERAL (SELECT unnest(range(32)) AS r) r,
  LATERAL (SELECT unnest(range(32)) AS c) c
  WHERE ((r.r * 32 + c.c * 32 + i) % 256) >= 128),
fl AS (
  SELECT i, r, c,
         c - row_number() OVER (PARTITION BY i, r ORDER BY c) AS grp
  FROM px),
runs AS (
  SELECT i, r, min(c) AS c0, max(c) + 1 AS c1,
         row_number() OVER (PARTITION BY i ORDER BY r, min(c)) AS rid
  FROM fl GROUP BY i, r, grp),
adjo AS (
  SELECT a.i, a.rid AS ra, b.rid AS rb,
         least(a.c1, b.c1) - greatest(a.c0, b.c0) AS ov
  FROM runs a JOIN runs b
    ON b.i = a.i AND b.r = a.r + 1 AND a.c0 < b.c1 AND b.c0 < a.c1),
edges AS (SELECT i, ra, rb FROM adjo UNION SELECT i, rb AS ra, ra AS rb
          FROM adjo),
reach(i, rid, l) AS (
  SELECT i, rid, rid FROM runs
  UNION
  SELECT e.i, e.ra, r2.l FROM edges e
  JOIN reach r2 ON r2.i = e.i AND r2.rid = e.rb),
comp AS (SELECT i, rid, min(l) AS root FROM reach GROUP BY i, rid),
geo AS (
  SELECT r.i, c2.root, sum(r.c1 - r.c0) AS area,
         sum(r.c1 - r.c0 - 1) AS hadj
  FROM runs r JOIN comp c2 ON c2.i = r.i AND c2.rid = r.rid
  GROUP BY r.i, c2.root),
vs AS (
  SELECT a.i, c2.root, sum(a.ov) AS vadj
  FROM adjo a JOIN comp c2 ON c2.i = a.i AND c2.rid = a.ra
  GROUP BY a.i, c2.root)
SELECT printf('img%012d', g.i) AS image_id,
       lr.r::BIGINT AS lbl_r, lr.c0::BIGINT AS lbl_c,
       g.area::BIGINT AS area,
       (4 * g.area - 2 * (g.hadj + COALESCE(v.vadj, 0)))::BIGINT AS perim
FROM geo g
LEFT JOIN vs v ON v.i = g.i AND v.root = g.root
JOIN runs lr ON lr.i = g.i AND lr.rid = g.root""",
        "image_seam": seam_sql,
        "image_dither": f"""
WITH {sqlgen.pixels_sql(300)},
pb AS (
  SELECT i, r, c, w, v,
    CASE (r % 4) * 4 + (c % 4)
      WHEN 0 THEN 0 WHEN 1 THEN 8 WHEN 2 THEN 2 WHEN 3 THEN 10
      WHEN 4 THEN 12 WHEN 5 THEN 4 WHEN 6 THEN 14 WHEN 7 THEN 6
      WHEN 8 THEN 3 WHEN 9 THEN 11 WHEN 10 THEN 1 WHEN 11 THEN 9
      WHEN 12 THEN 15 WHEN 13 THEN 7 WHEN 14 THEN 13 ELSE 5 END AS b
  FROM px)
SELECT printf('img%012d', i) AS image_id,
  (count(*) FILTER (WHERE v > b * 16 + 8))::BIGINT AS n_on,
  COALESCE(sum(r * w + c) FILTER (WHERE v > b * 16 + 8), 0)::BIGINT
    AS pos_sum
FROM pb GROUP BY i""",
        "header_audit": """
WITH img AS (
  SELECT i, CASE WHEN i % 2 = 0 THEN 'raw' ELSE 'png' END AS fmt
  FROM range(2000) t(i)),
r AS (
  SELECT fmt,
    CASE WHEN fmt = 'png' AND i % 13 = 5 THEN 'bad_sig'
         WHEN i % 11 = 3 THEN 'dim_mismatch'
         ELSE 'ok' END AS reason
  FROM img)
SELECT fmt, reason, count(*)::BIGINT AS n FROM r GROUP BY fmt, reason""",
        "doc_chunks": """
WITH toks AS (
  SELECT doc_id, string_split(text, ' ') AS t,
         len(string_split(text, ' ')) AS n
  FROM documents),
ch AS (
  SELECT doc_id, t, n, s.s AS chunk_idx, s.s * 24 AS tok_start,
         least(32, n - s.s * 24) AS n_toks
  FROM toks,
  LATERAL (SELECT unnest(range(
      1 + CASE WHEN n > 32 THEN (n - 32 + 23) // 24 ELSE 0 END)) AS s) s)
SELECT doc_id, chunk_idx, tok_start, n_toks::BIGINT AS n_toks,
       length(array_to_string(t[tok_start + 1 : tok_start + n_toks],
                              ' '))::BIGINT AS n_chars
FROM ch""",
        "image_template": """
WITH img AS (SELECT 9 * k AS i FROM range(100) t(k)),
pos AS (
  SELECT i, pr.pr AS pr, pc2.pc AS pc FROM img,
  LATERAL (SELECT unnest(range(25)) AS pr) pr,
  LATERAL (SELECT unnest(range(25)) AS pc) pc2),
sadt AS (
  SELECT p.i, p.pr, p.pc,
    sum(abs((((p.pr + d.dr) * 32 + (p.pc + d.dc) * 32 + p.i) % 256)
            - ((d.dr * 13 + d.dc * 7 + 3) % 256)))::BIGINT AS sad
  FROM pos p,
  LATERAL (SELECT a.a // 8 AS dr, a.a % 8 AS dc
           FROM (SELECT unnest(range(64)) AS a) a) d
  GROUP BY p.i, p.pr, p.pc),
mn AS (SELECT i, min(sad) AS m, sum(sad) AS tot FROM sadt GROUP BY i),
win AS (
  SELECT s.i, s.sad, s.pr, s.pc, mn.tot,
         row_number() OVER (PARTITION BY s.i ORDER BY s.pr, s.pc) AS rn
  FROM sadt s JOIN mn ON mn.i = s.i AND s.sad = mn.m)
SELECT printf('img%012d', i) AS image_id, sad::BIGINT AS best_sad,
       pr::BIGINT AS best_pr, pc::BIGINT AS best_pc,
       tot::BIGINT AS sad_sum
FROM win WHERE rn = 1""",
        "image_quadtree": """
WITH img AS (SELECT 9 * k AS i FROM range(100) t(k)),
px AS (
  SELECT i, r.r AS r, c.c AS c, ((r.r * 32 + c.c * 32 + i) % 256) AS v
  FROM img,
  LATERAL (SELECT unnest(range(32)) AS r) r,
  LATERAL (SELECT unnest(range(32)) AS c) c),
lvl AS (
  SELECT i, l.l AS l, r // (32 // (1 << l.l)) AS br,
         c // (32 // (1 << l.l)) AS bc,
         max(v) - min(v) AS rng
  FROM px, LATERAL (SELECT unnest(range(4)) AS l) l
  GROUP BY i, l.l, br, bc),
j3 AS (
  SELECT b.i, b.l, b.rng, p1.rng AS r1, p2.rng AS r2, p3.rng AS r3
  FROM lvl b
  LEFT JOIN lvl p1 ON p1.i = b.i AND p1.l = b.l - 1
    AND p1.br = b.br // 2 AND p1.bc = b.bc // 2
  LEFT JOIN lvl p2 ON p2.i = b.i AND p2.l = b.l - 2
    AND p2.br = b.br // 4 AND p2.bc = b.bc // 4
  LEFT JOIN lvl p3 ON p3.i = b.i AND p3.l = b.l - 3
    AND p3.br = b.br // 8 AND p3.bc = b.bc // 8),
leaf AS (
  SELECT i, l FROM j3
  WHERE COALESCE(r1 > 60, true) AND COALESCE(r2 > 60, true)
    AND COALESCE(r3 > 60, true) AND (rng <= 60 OR l = 3))
SELECT printf('img%012d', i) AS image_id, count(*)::BIGINT AS n_leaves,
       sum(l)::BIGINT AS depth_sum,
       (count(*) FILTER (WHERE l = 3))::BIGINT AS n_deepest
FROM leaf GROUP BY i""",
        "image_rle": f"""
WITH {sqlgen.pixels_sql(300)},
ch AS (
  SELECT i, r, c, v,
         CASE WHEN lag(v) OVER (PARTITION BY i, r ORDER BY c)
                   IS DISTINCT FROM v THEN 1 ELSE 0 END AS brk
  FROM px),
grp AS (SELECT i, r, c,
               sum(brk) OVER (PARTITION BY i, r ORDER BY c) AS g
        FROM ch),
runs AS (SELECT i, count(*) AS len FROM grp GROUP BY i, r, g)
SELECT printf('img%012d', i) AS image_id, count(*)::BIGINT AS n_runs,
       max(len)::BIGINT AS max_run
FROM runs GROUP BY i""",
        "image_hist_match": f"""
WITH {sqlgen.pixels_sql(300)},
hist AS (SELECT i, v, count(*)::BIGINT AS c FROM px GROUP BY i, v),
cdf AS (SELECT i, v, c, sum(c) OVER (PARTITION BY i ORDER BY v) AS cf
        FROM hist),
nsrc AS (SELECT i, max(cf) AS n_src FROM cdf GROUP BY i),
rhist AS (SELECT v, count(*)::BIGINT AS c FROM px GROUP BY v),
rn AS (SELECT sum(c)::BIGINT AS n_ref FROM rhist),
rcdf AS (SELECT u.u AS u,
         (SELECT COALESCE(sum(c), 0) FROM rhist WHERE v <= u.u) AS cf
         FROM range(256) u(u)),
lut AS (
  SELECT s.i, s.v, s.c, min(r.u) AS m
  FROM cdf s JOIN nsrc n ON n.i = s.i, rcdf r, rn
  WHERE r.cf * n.n_src >= s.cf * rn.n_ref
  GROUP BY s.i, s.v, s.c)
SELECT printf('img%012d', i) AS image_id,
       sum(m * c)::BIGINT AS mt_sum, min(m)::BIGINT AS mt_min,
       max(m)::BIGINT AS mt_max
FROM lut GROUP BY i""",
        "image_sobel": f"""
WITH {sqlgen.img_cte(300)},
e AS (
  SELECT i,
    abs(  (((r.r - 1) * h + (c.c + 1) * w + i) % 256)
        + 2 * (((r.r) * h + (c.c + 1) * w + i) % 256)
        + (((r.r + 1) * h + (c.c + 1) * w + i) % 256)
        - (((r.r - 1) * h + (c.c - 1) * w + i) % 256)
        - 2 * (((r.r) * h + (c.c - 1) * w + i) % 256)
        - (((r.r + 1) * h + (c.c - 1) * w + i) % 256))
  + abs(  (((r.r + 1) * h + (c.c - 1) * w + i) % 256)
        + 2 * (((r.r + 1) * h + (c.c) * w + i) % 256)
        + (((r.r + 1) * h + (c.c + 1) * w + i) % 256)
        - (((r.r - 1) * h + (c.c - 1) * w + i) % 256)
        - 2 * (((r.r - 1) * h + (c.c) * w + i) % 256)
        - (((r.r - 1) * h + (c.c + 1) * w + i) % 256)) AS e
  FROM img,
  LATERAL (SELECT unnest(range(1, h - 1)) AS r) r,
  LATERAL (SELECT unnest(range(1, w - 1)) AS c) c)
SELECT printf('img%012d', i) AS image_id,
       sum(e)::BIGINT AS grad_sum,
       (count(*) FILTER (WHERE e >= 256))::BIGINT AS edge_px
FROM e GROUP BY i""",
        "image_hough4": f"""
WITH {sqlgen.img_cte(300)},
e AS (
  SELECT i, r.r AS r, c.c AS c,
    abs(  (((r.r - 1) * h + (c.c + 1) * w + i) % 256)
        + 2 * (((r.r) * h + (c.c + 1) * w + i) % 256)
        + (((r.r + 1) * h + (c.c + 1) * w + i) % 256)
        - (((r.r - 1) * h + (c.c - 1) * w + i) % 256)
        - 2 * (((r.r) * h + (c.c - 1) * w + i) % 256)
        - (((r.r + 1) * h + (c.c - 1) * w + i) % 256))
  + abs(  (((r.r + 1) * h + (c.c - 1) * w + i) % 256)
        + 2 * (((r.r + 1) * h + (c.c) * w + i) % 256)
        + (((r.r + 1) * h + (c.c + 1) * w + i) % 256)
        - (((r.r - 1) * h + (c.c - 1) * w + i) % 256)
        - 2 * (((r.r - 1) * h + (c.c) * w + i) % 256)
        - (((r.r - 1) * h + (c.c + 1) * w + i) % 256)) AS e
  FROM img,
  LATERAL (SELECT unnest(range(1, h - 1)) AS r) r,
  LATERAL (SELECT unnest(range(1, w - 1)) AS c) c),
edges AS (SELECT i, r, c FROM e WHERE e >= 256),
votes AS (
  SELECT i, o.o AS o,
         CASE o.o WHEN 0 THEN c WHEN 1 THEN r + c WHEN 2 THEN r
              ELSE r - c END AS rho,
         count(*) AS cnt
  FROM edges, (VALUES (0), (1), (2), (3)) o(o)
  GROUP BY 1, 2, 3),
best AS (
  SELECT i, o, rho, cnt,
         row_number() OVER (PARTITION BY i
                            ORDER BY cnt DESC, o, rho) AS rn
  FROM votes),
ne AS (SELECT i, count(*)::BIGINT AS n_edges FROM edges GROUP BY i)
SELECT printf('img%012d', g.i) AS image_id,
       COALESCE(ne.n_edges, 0)::BIGINT AS n_edges,
       COALESCE(b.o, -1)::BIGINT AS best_orient,
       COALESCE(b.rho, 0)::BIGINT AS best_rho,
       COALESCE(b.cnt, 0)::BIGINT AS best_votes
FROM img g LEFT JOIN ne ON ne.i = g.i
LEFT JOIN (SELECT * FROM best WHERE rn = 1) b ON b.i = g.i""",
        "image_dt": f"""
WITH {sqlgen.img_cte(300)},
px AS (
  SELECT i, w, h, r.r AS r, c.c AS c,
         ((r.r * h + c.c * w + i) % 256) >= 200 AS fg
  FROM img,
  LATERAL (SELECT unnest(range(h)) AS r) r,
  LATERAL (SELECT unnest(range(w)) AS c) c),
o2 AS (
  SELECT dr.x AS dr, dc.x AS dc,
         greatest(abs(dr.x), abs(dc.x)) AS d
  FROM (SELECT unnest(range(-2, 3)) AS x) dr,
       (SELECT unnest(range(-2, 3)) AS x) dc),
near AS (
  SELECT p.i, p.r, p.c, any_value(p.fg::INT) AS fg,
         min(CASE WHEN q.fg THEN o.d END) AS dmin
  FROM px p
  JOIN o2 o ON TRUE
  LEFT JOIN px q ON q.i = p.i AND q.r = p.r + o.dr AND q.c = p.c + o.dc
  GROUP BY p.i, p.r, p.c)
SELECT printf('img%012d', i) AS image_id,
       (count(*) FILTER (WHERE fg = 1))::BIGINT AS n_d0,
       (count(*) FILTER (WHERE fg = 0 AND dmin = 1))::BIGINT AS n_d1,
       (count(*) FILTER (WHERE fg = 0 AND dmin = 2))::BIGINT AS n_d2,
       (count(*) FILTER (WHERE fg = 0 AND dmin IS NULL))::BIGINT AS n_far
FROM near GROUP BY i""",
        "image_moments": f"""
WITH {sqlgen.pixels_sql(300)},
m AS (
  SELECT i, sum(v)::BIGINT AS m00, sum(r * v)::BIGINT AS m10,
         sum(c * v)::BIGINT AS m01, sum(r * r * v)::BIGINT AS m20,
         sum(c * c * v)::BIGINT AS m02, sum(r * c * v)::BIGINT AS m11
  FROM px GROUP BY i)
SELECT printf('img%012d', i) AS image_id, m00, m10, m01,
       (m00 * m20 - m10 * m10)::BIGINT AS mu20s,
       (m00 * m02 - m01 * m01)::BIGINT AS mu02s,
       (m00 * m11 - m10 * m01)::BIGINT AS mu11s
FROM m""",
        "image_harris": f"""
WITH {sqlgen.img_cte(200)},
g AS (
  SELECT i, w, h, r.r AS r, c.c AS c,
    ((r.r * h + (c.c + 1) * w + i) % 256)
      - ((r.r * h + (c.c - 1) * w + i) % 256) AS ix,
    (((r.r + 1) * h + c.c * w + i) % 256)
      - (((r.r - 1) * h + c.c * w + i) % 256) AS iy
  FROM img,
  LATERAL (SELECT unnest(range(1, h - 1)) AS r) r,
  LATERAL (SELECT unnest(range(1, w - 1)) AS c) c),
hs AS (
  SELECT i, w, h, r, c,
    sum(ix * ix) OVER wc AS hxx, sum(iy * iy) OVER wc AS hyy,
    sum(ix * iy) OVER wc AS hxy
  FROM g WINDOW wc AS (PARTITION BY i, r ORDER BY c
    ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING)),
vs AS (
  SELECT i, w, h, r, c,
    sum(hxx) OVER wr AS sxx, sum(hyy) OVER wr AS syy,
    sum(hxy) OVER wr AS sxy
  FROM hs WINDOW wr AS (PARTITION BY i, c ORDER BY r
    ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING)),
resp AS (
  SELECT i, 16 * (sxx * syy - sxy * sxy)
             - (sxx + syy) * (sxx + syy) AS r16
  FROM vs WHERE r BETWEEN 2 AND h - 3 AND c BETWEEN 2 AND w - 3)
SELECT printf('img%012d', i) AS image_id,
  (count(*) FILTER (WHERE r16 > {_HARRIS_T}))::BIGINT AS n_corners,
  max(r16)::BIGINT AS r16_max,
  COALESCE(sum(r16) FILTER (WHERE r16 > 0), 0)::BIGINT AS pos_sum
FROM resp GROUP BY i""",
        "image_otsu": f"""
WITH {sqlgen.pixels_sql(300)},
hist AS (SELECT i, v, count(*)::BIGINT AS c FROM px GROUP BY i, v),
tot AS (SELECT i, sum(c)::HUGEINT AS tw, sum(v * c)::HUGEINT AS ts
        FROM hist GROUP BY i),
cum AS (SELECT i, v AS t,
               (sum(c) OVER (PARTITION BY i ORDER BY v))::HUGEINT AS w0,
               (sum(v * c) OVER (PARTITION BY i ORDER BY v))::HUGEINT AS s0
        FROM hist),
cand AS (
  SELECT c.i, c.t,
         ((c.s0 * t2.tw - t2.ts * c.w0)
          * (c.s0 * t2.tw - t2.ts * c.w0))::HUGEINT AS num,
         (c.w0 * (t2.tw - c.w0))::HUGEINT AS den
  FROM cum c JOIN tot t2 ON t2.i = c.i
  WHERE c.w0 > 0 AND c.w0 < t2.tw AND c.t < 255),
best AS (
  SELECT a.i, min(a.t) AS otsu_t
  FROM cand a
  WHERE NOT EXISTS (SELECT 1 FROM cand b
                    WHERE b.i = a.i AND b.num * a.den > a.num * b.den)
  GROUP BY a.i)
SELECT printf('img%012d', b.i) AS image_id, CAST(b.otsu_t AS INT) AS otsu_t,
       (count(*) FILTER (WHERE p.v > b.otsu_t))::BIGINT AS fg_px,
       COALESCE(sum(p.v) FILTER (WHERE p.v > b.otsu_t), 0)::BIGINT AS fg_sum
FROM best b JOIN px p ON p.i = b.i
GROUP BY b.i, b.otsu_t""",
        "image_morph": f"""
WITH {sqlgen.img_cte(300)},
s AS (
  SELECT i, ({morph_s9}) AS s9,
    CASE WHEN (r.r * h + c.c * w + i) % 256 >= 128 THEN 1 ELSE 0 END AS ctr
  FROM img,
  LATERAL (SELECT unnest(range(1, h - 1)) AS r) r,
  LATERAL (SELECT unnest(range(1, w - 1)) AS c) c)
SELECT printf('img%012d', i) AS image_id,
       sum(ctr)::BIGINT AS fg_in,
       (count(*) FILTER (WHERE s9 = 9))::BIGINT AS eroded_px,
       (count(*) FILTER (WHERE s9 >= 1))::BIGINT AS dilated_px
FROM s GROUP BY i""",
        "tile_temporal_median": f"""
WITH {_scene_blocks(2000)}
SELECT tile, CAST(gr AS INT) AS gr, CAST(gc AS INT) AS gc,
       count(*)::BIGINT AS n_sc,
       quantile_disc(m, 0.5)::BIGINT AS v_med,
       min(m)::BIGINT AS v_min, max(m)::BIGINT AS v_max
FROM blk GROUP BY tile, gr, gc""",
        "tile_change_detect": f"""
WITH {_scene_blocks(2000)},
cell AS (
  SELECT tile, gr, gc,
         max(CASE WHEN i % 2 = 0 THEN m END) AS v0,
         max(CASE WHEN i % 2 = 1 THEN m END) AS v1
  FROM blk GROUP BY tile, gr, gc
  HAVING v0 IS NOT NULL AND v1 IS NOT NULL)
SELECT tile, count(*)::BIGINT AS n_cells,
       (count(*) FILTER (WHERE abs(v1 - v0) >= 8))::BIGINT AS n_changed,
       sum(abs(v1 - v0))::BIGINT AS sum_absd
FROM cell GROUP BY tile""",
        "tile_moran": f"""
WITH cnt AS (
  SELECT tile, count(*)::BIGINT AS x
  FROM {_oracle_lookup('image_tiles.parquet')}
  WHERE i < 2000 GROUP BY tile),
{sqlgen.lattice_cte('cnt', 'tile, x')},
st AS (SELECT count(*)::HUGEINT AS n, sum(x)::HUGEINT AS s FROM par),
d AS (SELECT tile, ck, te, tn, (st.n * x - st.s)::HUGEINT AS dv
      FROM par, st),
pr AS (
  SELECT a.dv AS da, b.dv AS db
  FROM d a JOIN d b ON a.ck = b.ck
   AND ((abs(a.te - b.te) = 6 AND a.tn = b.tn)
     OR (a.te = b.te AND abs(a.tn - b.tn) = 6)))
SELECT CAST(st.n AS BIGINT) AS n_tiles,
       CAST((SELECT count(*) FROM pr) AS BIGINT) AS w_pairs,
       CAST((SELECT COALESCE(sum(da * db), 0) FROM pr) AS BIGINT) AS num,
       CAST((SELECT sum(dv * dv) FROM d) AS BIGINT) AS den,
       CAST((1000000000::HUGEINT * st.n
             * (SELECT COALESCE(sum(da * db), 0) FROM pr))
            // ((SELECT count(*) FROM pr)::HUGEINT
                * (SELECT sum(dv * dv) FROM d)) AS BIGINT) AS i_q9
FROM st""",
        "tile_revisit": f"""
WITH seq AS (
  SELECT tile, i,
         i - lag(i) OVER (PARTITION BY tile ORDER BY i) AS gap
  FROM {_oracle_lookup('image_tiles.parquet')} WHERE i < 2000)
SELECT tile, count(*)::BIGINT AS n_sc,
       min(i)::BIGINT AS i_min, max(i)::BIGINT AS i_max,
       COALESCE(max(gap), 0)::BIGINT AS max_gap
FROM seq GROUP BY tile""",
        "pii_scrub": f"""
WITH inj AS (
  SELECT doc_id,
    text
    || CASE WHEN doc_id % 7 = 0
            THEN ' contact user' || CAST(doc_id AS VARCHAR)
                 || '@example.com' ELSE '' END
    || CASE WHEN doc_id % 11 = 0
            THEN ' call +1 555 000 '
                 || lpad(CAST(doc_id % 10000 AS VARCHAR), 4, '0')
                 || ' now' ELSE '' END AS t
  FROM documents),
r1 AS (
  SELECT doc_id,
    len(regexp_extract_all(t, '{_EMAIL_RE}'))::BIGINT AS n_email,
    regexp_replace(t, '{_EMAIL_RE}', '<EMAIL>', 'g') AS t2
  FROM inj)
SELECT doc_id, n_email,
  len(regexp_extract_all(t2, '{_PHONE_RE}'))::BIGINT AS n_phone,
  regexp_replace(t2, '{_PHONE_RE}', '<PHONE>', 'g') AS red_text
FROM r1""",
        "hilbert_hist": sqlgen.hilbert_hist_sql(),
        "image_glcm": f"""
WITH {sqlgen.img_cte(300)},
pairs AS (
  SELECT i,
    ((r.r * h + c.c * w + i) % 256) // 32 AS qa,
    ((r.r * h + (c.c + 1) * w + i) % 256) // 32 AS qb
  FROM img,
  LATERAL (SELECT unnest(range(h)) AS r) r,
  LATERAL (SELECT unnest(range(w - 1)) AS c) c),
cooc AS (SELECT i, qa, qb, count(*)::BIGINT AS n
         FROM pairs GROUP BY i, qa, qb)
SELECT printf('img%012d', i) AS image_id,
       sum(n * (qa - qb) * (qa - qb))::BIGINT AS contrast,
       sum(n * n)::BIGINT AS energy,
       sum(n)::BIGINT AS n_pairs
FROM cooc GROUP BY i""",
        "image_lbp": f"""
WITH {sqlgen.img_cte(300)},
px AS (
  SELECT i, {lbp_code} AS code
  FROM img,
  LATERAL (SELECT unnest(range(1, h - 1)) AS r) r,
  LATERAL (SELECT unnest(range(1, w - 1)) AS c) c),
cnt AS (SELECT i, code, count(*)::BIGINT AS n FROM px GROUP BY i, code)
SELECT printf('img%012d', i) AS image_id,
       sum(code * n)::BIGINT AS lbp_sum,
       sum(n * n)::BIGINT AS lbp_energy,
       sum(n)::BIGINT AS n_interior
FROM cnt GROUP BY i""",
        "image_median3": f"""
WITH {sqlgen.img_cte(300)},
nine AS (
  SELECT i, w, h, r.r AS r, c.c AS c,
         ((r.r + o.dr) * h + (c.c + o.dc) * w + i) % 256 AS v
  FROM img,
  LATERAL (SELECT unnest(range(1, h - 1)) AS r) r,
  LATERAL (SELECT unnest(range(1, w - 1)) AS c) c,
  (VALUES (-1,-1),(-1,0),(-1,1),(0,-1),(0,0),(0,1),(1,-1),(1,0),(1,1))
    o(dr, dc)),
med AS (
  SELECT i, r, c, quantile_disc(v, 0.5) AS m,
         any_value((r * h + c * w + i) % 256) AS center
  FROM nine GROUP BY i, r, c, w, h)
SELECT printf('img%012d', i) AS image_id,
       sum(CASE WHEN m != center THEN 1 ELSE 0 END)::BIGINT AS n_changed,
       sum(m)::BIGINT AS med_sum,
       count(*)::BIGINT AS n_interior
FROM med GROUP BY i""",
        "image_shift_detect": f"""
WITH {sqlgen.pixels_sql(300)},
prof AS (SELECT i, r, sum(v)::BIGINT AS v FROM px GROUP BY i, r),
lagsad AS (
  SELECT a.i AS pid, d.d AS d,
         sum(abs(a.v - b.v))::BIGINT AS sad,
         count(*)::BIGINT AS n
  FROM prof a
  CROSS JOIN (VALUES (-4),(-3),(-2),(-1),(0),(1),(2),(3),(4)) d(d)
  JOIN prof b ON b.i = a.i + 9 AND b.r = a.r + d.d
  GROUP BY a.i, d.d)
SELECT printf('img%012d', l.pid) AS image_id,
       l.d::BIGINT AS best_lag, l.sad, l.n AS n_overlap
FROM lagsad l
WHERE NOT EXISTS (
  SELECT 1 FROM lagsad l2
  WHERE l2.pid = l.pid AND (
    l2.sad * l.n < l.sad * l2.n
    OR (l2.sad * l.n = l.sad * l2.n AND l2.d < l.d)))""",
        "image_autocorr": f"""
WITH {sqlgen.pixels_sql(300)}
SELECT printf('img%012d', i) AS image_id,
       count(*)::BIGINT AS n_px,
       sum(v)::BIGINT AS s,
       sum(v * v)::BIGINT AS ss,
       sum(CASE WHEN r < h - 1
           THEN v * (((r + 1) * h + c * w + i) % 256) ELSE 0 END)::BIGINT
         AS lag_v,
       sum(CASE WHEN c < w - 1
           THEN v * ((r * h + (c + 1) * w + i) % 256) ELSE 0 END)::BIGINT
         AS lag_h
FROM px GROUP BY i""",
        "tile_horizon": f"""
WITH {_scene_blocks(2000)},
mos AS (
  SELECT tile, gr, gc, max(m)::BIGINT AS v
  FROM blk GROUP BY tile, gr, gc),
vis AS (
  SELECT tile, gr, gc, v,
         CASE WHEN v > coalesce(max(v) OVER (
             PARTITION BY tile, gr ORDER BY gc
             ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), -1)
         THEN 1 ELSE 0 END AS viz
  FROM mos)
SELECT tile, gr::BIGINT AS gr, sum(viz)::BIGINT AS n_visible,
       max(v)::BIGINT AS row_max
FROM vis GROUP BY tile, gr""",
        "tile_clear_composite": f"""
WITH {_scene_blocks(2000)}
SELECT tile, CAST(gr AS INT) AS gr, CAST(gc AS INT) AS gc,
       count(*)::BIGINT AS n_img,
       sum(CASE WHEN m < 200 THEN 1 ELSE 0 END)::BIGINT AS n_clear,
       coalesce(max(m) FILTER (WHERE m < 200), -1)::BIGINT AS max_clear
FROM blk GROUP BY tile, gr, gc""",
        "tile_gradient": f"""
WITH {_scene_blocks(2000)},
{sqlgen.gradient_ctes()}
SELECT tile, gr, gc, gx::BIGINT AS gx, gy::BIGINT AS gy,
       (abs(gx) + abs(gy))::BIGINT AS g1
FROM grad""",
        "tile_flow_d8": f"""
WITH {_scene_blocks(2000)},
{sqlgen.d8_ctes()}
SELECT tile, gr, gc, code::BIGINT AS dir,
       greatest(best, 0)::BIGINT AS "drop"
FROM sc""",
        "tile_flow_accum": f"""
WITH RECURSIVE {_scene_blocks(2000)},
{sqlgen.d8_flow_ctes()},
rec AS (
  SELECT tile, gr, gc, tile AS ct, gr AS cr, gc AS cc FROM d8
  UNION ALL
  SELECT r.tile, r.gr, r.gc, f.dtile, f.dgr, f.dgc
  FROM rec r JOIN flow f ON f.tile = r.ct AND f.gr = r.cr
                        AND f.gc = r.cc)
SELECT ct AS tile, cr AS gr, cc AS gc, count(*)::BIGINT AS acc
FROM rec GROUP BY 1, 2, 3""",
        "tile_basins": f"""
WITH RECURSIVE {_scene_blocks(2000)},
{sqlgen.d8_flow_ctes()},
walk AS (
  SELECT tile, gr, gc, v, tile AS ct, gr AS cr, gc AS cc FROM d8
  UNION ALL
  SELECT w.tile, w.gr, w.gc, w.v, f.dtile, f.dgr, f.dgc
  FROM walk w JOIN flow f ON f.tile = w.ct AND f.gr = w.cr
                         AND f.gc = w.cc),
term AS (
  SELECT * FROM walk w
  WHERE NOT EXISTS (SELECT 1 FROM flow f WHERE f.tile = w.ct
                    AND f.gr = w.cr AND f.gc = w.cc))
SELECT t.ct AS tile, t.cr AS gr, t.cc AS gc,
       any_value(s.v)::BIGINT AS v_sink,
       count(*)::BIGINT AS n_cells,
       sum(t.v)::BIGINT AS sum_v
FROM term t JOIN d8 s ON s.tile = t.ct AND s.gr = t.cr AND s.gc = t.cc
GROUP BY 1, 2, 3""",
        "tile_tri": f"""
WITH {_scene_blocks(2000)},
{sqlgen.mosaic_gather_ctes([(0, 1), (1, 1), (1, 0), (1, -1),
                           (0, -1), (-1, -1), (-1, 0), (-1, 1)])}
SELECT tile, gr, gc, sum(abs(vc - v))::BIGINT AS tri
FROM j GROUP BY tile, gr, gc HAVING count(*) = 8""",
        "tile_aspect": f"""
WITH {_scene_blocks(2000)},
{sqlgen.gradient_ctes()},
gr2 AS (
  SELECT substr(tile, 1, 2) AS continent,
         (-gx)::BIGINT AS u, (-gy)::BIGINT AS w
  FROM grad),
cls AS (
  SELECT continent,
    CASE WHEN u = 0 AND w = 0 THEN 0
         WHEN abs(u) > abs(w) AND u > 0 THEN 1
         WHEN abs(u) > abs(w) THEN 5
         WHEN abs(w) > abs(u) AND w > 0 THEN 3
         WHEN abs(w) > abs(u) THEN 7
         WHEN u > 0 AND w > 0 THEN 2
         WHEN u < 0 AND w > 0 THEN 4
         WHEN u < 0 AND w < 0 THEN 6
         ELSE 8 END AS aspect
  FROM gr2)
SELECT continent, aspect::BIGINT AS aspect, count(*)::BIGINT AS n
FROM cls GROUP BY continent, aspect""",
        "coverage_gini": f"""
WITH cnt AS (
  SELECT tile, count(*)::BIGINT AS c
  FROM {_oracle_lookup('image_tiles.parquet')} WHERE i < 2000
  GROUP BY tile),
r AS (
  SELECT substr(tile, 1, 2) AS cont, c,
         row_number() OVER (PARTITION BY substr(tile, 1, 2)
                            ORDER BY c) AS rk
  FROM cnt)
SELECT cont, count(*)::BIGINT AS n_tiles, sum(c)::BIGINT AS total,
       (2 * sum(rk * c) - (count(*) + 1) * sum(c))::BIGINT AS gini_num,
       (count(*) * sum(c))::BIGINT AS gini_den,
       (1000 * (2 * sum(rk * c) - (count(*) + 1) * sum(c))
        // (count(*) * sum(c)))::BIGINT AS gini_pm
FROM r GROUP BY cont""",
        "tile_coverage": f"""
WITH cnt AS (
  SELECT tile, count(*)::BIGINT AS n
  FROM {_oracle_lookup('image_tiles.parquet')}
  WHERE i < 2000 GROUP BY tile),
inv AS (
  SELECT continent, count(*)::BIGINT AS n_zone,
         sum(CASE WHEN covers_land THEN 1 ELSE 0 END)::BIGINT AS n_land_zone
  FROM {_oracle_lookup('tiles_t6.parquet')} GROUP BY continent),
seen AS (
  SELECT tv.continent, count(*)::BIGINT AS n_seen,
         sum(CASE WHEN tv.covers_land THEN 1 ELSE 0 END)::BIGINT
           AS n_land_seen,
         sum(c.n)::BIGINT AS n_scenes
  FROM cnt c JOIN {_oracle_lookup('tiles_t6.parquet')} tv
    ON tv.tile = c.tile
  GROUP BY tv.continent)
SELECT s.continent, i.n_zone, i.n_land_zone, s.n_seen, s.n_land_seen,
       s.n_scenes, (s.n_seen * 1000 // i.n_zone)::BIGINT AS cover_pm
FROM seen s JOIN inv i USING (continent)""",
        "tile_clusters": f"""
WITH RECURSIVE
cnt AS (
  SELECT tile, count(*)::BIGINT AS n
  FROM {_oracle_lookup('image_tiles.parquet')}
  WHERE i < 2000 GROUP BY tile),
{sqlgen.lattice_cte('cnt', 'tile, n')},
e AS (
  SELECT a.tile AS ta, b.tile AS tb
  FROM par a JOIN par b ON a.ck = b.ck
   AND ((abs(a.te - b.te) = 6 AND a.tn = b.tn)
     OR (a.te = b.te AND abs(a.tn - b.tn) = 6))
  UNION ALL SELECT tile, tile FROM par),
r AS (
  SELECT tile, tile AS lbl FROM par
  UNION
  SELECT e.ta AS tile, r.lbl FROM e JOIN r ON r.tile = e.tb),
comp AS (SELECT tile, min(lbl) AS comp_tile FROM r GROUP BY tile)
SELECT c.comp_tile, count(*)::BIGINT AS n_tiles,
       sum(p.n)::BIGINT AS n_scenes
FROM comp c JOIN par p USING (tile) GROUP BY c.comp_tile""",
        "tile_kring": f"""
WITH cnt AS (
  SELECT tile, count(*)::BIGINT AS x
  FROM {_oracle_lookup('image_tiles.parquet')}
  WHERE i < 2000 GROUP BY tile),
{sqlgen.lattice_cte('cnt', 'tile, x')}
SELECT a.tile, count(*)::BIGINT AS n_nbrs,
       sum(b.x)::BIGINT AS nbr_scenes
FROM par a JOIN par b
  ON a.ck = b.ck AND abs(a.te - b.te) <= 12 AND abs(a.tn - b.tn) <= 12
GROUP BY a.tile""",
        "tile_cost_distance": cost_distance_sql,
        "best_scene_topk": f"""
WITH {_scene_blocks(2000)},
sc AS (SELECT tile, i, sum(m)::BIGINT AS q FROM blk GROUP BY tile, i),
rk AS (SELECT tile, i, q,
       row_number() OVER (PARTITION BY tile ORDER BY q DESC, i) AS rn
       FROM sc)
SELECT tile, i, q FROM rk WHERE rn <= 2""",
        "source_checksums": f"""
WITH fp AS ({{FP_SQL}}),
u AS (
  SELECT d.source,
    CASE WHEN f.fingerprint < 0
         THEN f.fingerprint::HUGEINT + 18446744073709551616
         ELSE f.fingerprint::HUGEINT END AS fu
  FROM fp f JOIN documents d USING (doc_id)),
s AS (SELECT source, sum(fu) % 18446744073709551616 AS cs,
             count(*)::BIGINT AS n_docs FROM u GROUP BY source)
SELECT source,
  CAST(CASE WHEN cs >= 9223372036854775808
       THEN cs - 18446744073709551616 ELSE cs END AS BIGINT) AS csum,
  n_docs
FROM s""".replace("{FP_SQL}", sqlgen.fingerprint_sql()),
        "tile_gaps": f"""
SELECT tile, continent
FROM {_oracle_lookup('tiles_t6.parquet')}
WHERE covers_land
  AND tile NOT IN (SELECT DISTINCT tile
                   FROM {_oracle_lookup('image_tiles.parquet')}
                   WHERE i < 2000)""",
        "cell_pyramid": " UNION ALL ".join(
            f"SELECT ({L}::BIGINT << 58)"
            f" + ((((l_partkey * {_LATMUL}) % {_LATMOD}) * {1 << L})"
            f" // {_LATMOD} << 29)"
            f" + (((l_orderkey * {_LONMUL}) % {_LONMOD}) * {1 << L})"
            f" // {_LONMOD} AS cell, count(*) AS n"
            f" FROM lineitem GROUP BY cell"
            for L in (5, 6, 7, 8, 9)
        ),
        "late_events": f"""
WITH w AS (
  SELECT user_id, epoch_us(ts) AS tsu,
    max(epoch_us(ts)) OVER (PARTITION BY user_id ORDER BY event_id
      ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS wm
  FROM events)
SELECT user_id, count(*)::BIGINT AS n_events,
  (count(*) FILTER (WHERE wm - tsu > {_LATE_D_US}))::BIGINT AS n_late,
  COALESCE(max(wm - tsu) FILTER (WHERE wm > tsu), 0)::BIGINT
    AS max_late_us
FROM w GROUP BY user_id""",
        "stay_segments": f"""
WITH pts AS (
  SELECT user_id, event_id, epoch_us(ts) AS tsu,
    (user_id * 7919) % 1000000 + (event_id * 131) % 97
      + CASE WHEN event_id % 7 = 0 THEN 500 ELSE 0 END AS x,
    (user_id * 104729) % 1000000 + (event_id * 137) % 89
      + CASE WHEN event_id % 7 = 0 THEN 500 ELSE 0 END AS y
  FROM events),
lagged AS (
  SELECT *, lag(x) OVER w AS px, lag(y) OVER w AS py
  FROM pts WINDOW w AS (PARTITION BY user_id ORDER BY tsu, event_id)),
brk AS (
  SELECT *, CASE WHEN px IS NULL
      OR (x - px) * (x - px) + (y - py) * (y - py) > {_STAY_R2}
    THEN 1 ELSE 0 END AS b
  FROM lagged),
seg AS (
  SELECT *, sum(b) OVER (PARTITION BY user_id ORDER BY tsu, event_id
    ROWS UNBOUNDED PRECEDING) AS g
  FROM brk)
SELECT user_id, min(tsu)::BIGINT AS seg_start,
  max(tsu)::BIGINT AS seg_end, count(*)::BIGINT AS n_pts,
  sum(x)::BIGINT AS sum_x, sum(y)::BIGINT AS sum_y,
  (max(tsu) - min(tsu))::BIGINT AS dur_us
FROM seg GROUP BY user_id, g
HAVING max(tsu) - min(tsu) >= {_STAY_MIN_DUR_US}""",
        "od_matrix": """
WITH pts AS (
  SELECT user_id, event_id, epoch_us(ts) AS tsu,
    epoch_us(ts) // 86400000000 AS day,
    ((user_id * 7919) % 1000000 + (event_id * 131) % 97
      + CASE WHEN event_id % 7 = 0 THEN 500 ELSE 0 END) // 32 AS cx,
    ((user_id * 104729) % 1000000 + (event_id * 137) % 89
      + CASE WHEN event_id % 7 = 0 THEN 500 ELSE 0 END) // 32 AS cy
  FROM events),
ranked AS (
  SELECT *, row_number() OVER w AS rf, row_number() OVER (
      PARTITION BY user_id, day ORDER BY tsu DESC, event_id DESC) AS rl
  FROM pts WINDOW w AS (PARTITION BY user_id, day ORDER BY tsu, event_id)),
trips AS (
  SELECT f.cx AS o_cx, f.cy AS o_cy, l.cx AS d_cx, l.cy AS d_cy
  FROM ranked f JOIN ranked l
    ON f.user_id = l.user_id AND f.day = l.day
  WHERE f.rf = 1 AND l.rl = 1)
SELECT o_cx, o_cy, d_cx, d_cy, count(*)::BIGINT AS n_trips
FROM trips GROUP BY o_cx, o_cy, d_cx, d_cy""",
        "covisit_pairs": """
WITH pt AS (
  SELECT user_id AS k,
         ((user_id * 7919) % 1000000 + (event_id * 131) % 97
          + CASE WHEN event_id % 7 = 0 THEN 500 ELSE 0 END) // 131072 AS cx,
         ((user_id * 104729) % 1000000 + (event_id * 137) % 89
          + CASE WHEN event_id % 7 = 0 THEN 500 ELSE 0 END) // 131072 AS cy,
         epoch_us(ts) // 86400000000 AS h
  FROM events),
pres AS (SELECT DISTINCT k, cx, cy, h FROM pt),
sized AS (
  SELECT *, count(*) OVER (PARTITION BY cx, cy, h) AS gsz FROM pres),
pairs AS (
  SELECT a.k AS k1, b.k AS k2
  FROM sized a JOIN sized b
    ON a.cx = b.cx AND a.cy = b.cy AND a.h = b.h AND a.k < b.k
  WHERE a.gsz <= 64)
SELECT k1::BIGINT AS k1, k2::BIGINT AS k2,
       count(*)::BIGINT AS n_cohours
FROM pairs GROUP BY k1, k2 HAVING count(*) >= 2""",
        "events_peak_concurrency": """
WITH b AS (
  SELECT event_type, epoch_us(ts) AS t, 1 AS d FROM events
  UNION ALL
  SELECT event_type, epoch_us(ts) + 900000000 AS t, -1 AS d FROM events),
r AS (
  SELECT event_type, t,
         sum(d) OVER (PARTITION BY event_type ORDER BY t, d
                      ROWS UNBOUNDED PRECEDING) AS conc
  FROM b),
m AS (SELECT event_type, max(conc)::BIGINT AS peak FROM r GROUP BY 1)
SELECT r.event_type, m.peak AS peak_concurrency,
       min(r.t)::BIGINT AS peak_ts_us
FROM r JOIN m ON m.event_type = r.event_type AND r.conc = m.peak
GROUP BY r.event_type, m.peak""",
        "link_prediction": f"""
WITH pairs AS ({sqlgen.lsh_pairs_sql()}),
ed AS (
  SELECT DISTINCT least(id_a, id_b) AS u, greatest(id_a, id_b) AS v
  FROM pairs WHERE id_a != id_b),
dirs AS (
  SELECT u AS s, v AS t FROM ed UNION ALL SELECT v, u FROM ed),
wed AS (
  SELECT d1.t AS u, d2.t AS v, count(*)::BIGINT AS cn
  FROM dirs d1 JOIN dirs d2 ON d1.s = d2.s AND d1.t < d2.t
  GROUP BY 1, 2)
SELECT w.u AS id_a, w.v AS id_b, w.cn
FROM wed w LEFT JOIN ed ON ed.u = w.u AND ed.v = w.v
WHERE ed.u IS NULL AND w.cn >= 1""",
        "target_encoding": """
WITH oc AS (
  SELECT o.o_orderkey, c.c_mktsegment AS segment,
         CAST(round(o.o_totalprice * 100) AS BIGINT) AS cents
  FROM orders o JOIN customer c ON c.c_custkey = o.o_custkey),
w AS (
  SELECT o_orderkey, segment, cents,
         sum(cents) OVER (PARTITION BY segment) AS s,
         count(*) OVER (PARTITION BY segment) AS n
  FROM oc)
SELECT o_orderkey, segment, ((s - cents) // (n - 1))::BIGINT AS enc_cents
FROM w WHERE n > 1""",
        "fk_audit": """
SELECT 'orders->customer' AS relation,
  (SELECT count(*) FROM orders)::BIGINT AS child_rows,
  (SELECT count(DISTINCT o_custkey) FROM orders)::BIGINT
    AS distinct_child_keys,
  (SELECT count(*) FROM orders o LEFT JOIN customer c
     ON c.c_custkey = o.o_custkey
   WHERE c.c_custkey IS NULL)::BIGINT AS orphan_rows,
  (SELECT count(DISTINCT o_custkey) FROM orders o LEFT JOIN customer c
     ON c.c_custkey = o.o_custkey
   WHERE c.c_custkey IS NULL)::BIGINT AS distinct_orphan_keys,
  (SELECT count(*) FROM customer c LEFT JOIN
     (SELECT DISTINCT o_custkey FROM orders) o
     ON o.o_custkey = c.c_custkey
   WHERE o.o_custkey IS NULL)::BIGINT AS childless_parents
UNION ALL
SELECT 'lineitem->orders',
  (SELECT count(*) FROM lineitem)::BIGINT,
  (SELECT count(DISTINCT l_orderkey) FROM lineitem)::BIGINT,
  (SELECT count(*) FROM lineitem l LEFT JOIN orders o
     ON o.o_orderkey = l.l_orderkey
   WHERE o.o_orderkey IS NULL)::BIGINT,
  (SELECT count(DISTINCT l_orderkey) FROM lineitem l LEFT JOIN orders o
     ON o.o_orderkey = l.l_orderkey
   WHERE o.o_orderkey IS NULL)::BIGINT,
  (SELECT count(*) FROM orders o LEFT JOIN
     (SELECT DISTINCT l_orderkey FROM lineitem) l
     ON l.l_orderkey = o.o_orderkey
   WHERE l.l_orderkey IS NULL)::BIGINT
UNION ALL
SELECT 'lineitem->part',
  (SELECT count(*) FROM lineitem)::BIGINT,
  (SELECT count(DISTINCT l_partkey) FROM lineitem)::BIGINT,
  (SELECT count(*) FROM lineitem l LEFT JOIN part p
     ON p.p_partkey = l.l_partkey
   WHERE p.p_partkey IS NULL)::BIGINT,
  (SELECT count(DISTINCT l_partkey) FROM lineitem l LEFT JOIN part p
     ON p.p_partkey = l.l_partkey
   WHERE p.p_partkey IS NULL)::BIGINT,
  (SELECT count(*) FROM part p LEFT JOIN
     (SELECT DISTINCT l_partkey FROM lineitem) l
     ON l.l_partkey = p.p_partkey
   WHERE l.l_partkey IS NULL)::BIGINT
UNION ALL
SELECT 'lineitem->supplier',
  (SELECT count(*) FROM lineitem)::BIGINT,
  (SELECT count(DISTINCT l_suppkey) FROM lineitem)::BIGINT,
  (SELECT count(*) FROM lineitem l LEFT JOIN supplier s
     ON s.s_suppkey = l.l_suppkey
   WHERE s.s_suppkey IS NULL)::BIGINT,
  (SELECT count(DISTINCT l_suppkey) FROM lineitem l LEFT JOIN supplier s
     ON s.s_suppkey = l.l_suppkey
   WHERE s.s_suppkey IS NULL)::BIGINT,
  (SELECT count(*) FROM supplier s LEFT JOIN
     (SELECT DISTINCT l_suppkey FROM lineitem) l
     ON l.l_suppkey = s.s_suppkey
   WHERE l.l_suppkey IS NULL)::BIGINT""",
        "returned_revenue": """
WITH rev AS (
  SELECT o.o_custkey AS ckey,
         sum(CAST(round(l.l_extendedprice * 100) AS BIGINT)
             * (100 - CAST(round(l.l_discount * 100) AS BIGINT)))::BIGINT
           AS revenue,
         count(*)::BIGINT AS n_lines
  FROM lineitem l JOIN orders o ON o.o_orderkey = l.l_orderkey
  WHERE l.l_returnflag = 'R'
  GROUP BY 1),
top AS (
  SELECT * FROM rev
  QUALIFY row_number() OVER (ORDER BY revenue DESC, ckey) <= 20)
SELECT c.c_custkey, c.c_name, n.n_name, t.revenue, t.n_lines
FROM top t JOIN customer c ON c.c_custkey = t.ckey
JOIN nation n ON n.n_nationkey = c.c_nationkey""",
        "poly_self_intersect": """
WITH p AS (SELECT i AS poly_id, 3 + i % 6 AS nv FROM range(20000) t(i)),
seg AS (
  SELECT poly_id, nv, k,
    (poly_id * 131 + k * 977) % 2000 AS x1,
    (poly_id * 197 + k * 1409) % 2000 AS y1,
    (poly_id * 131 + ((k + 1) % nv) * 977) % 2000 AS x2,
    (poly_id * 197 + ((k + 1) % nv) * 1409) % 2000 AS y2
  FROM p, LATERAL (SELECT unnest(range(nv)) AS k) s),
pr AS (
  SELECT a.poly_id,
    ((a.x2-a.x1)*(b.y1-a.y1) - (a.y2-a.y1)*(b.x1-a.x1)) AS d1,
    ((a.x2-a.x1)*(b.y2-a.y1) - (a.y2-a.y1)*(b.x2-a.x1)) AS d2,
    ((b.x2-b.x1)*(a.y1-b.y1) - (b.y2-b.y1)*(a.x1-b.x1)) AS d3,
    ((b.x2-b.x1)*(a.y2-b.y1) - (b.y2-b.y1)*(a.x2-b.x1)) AS d4
  FROM seg a JOIN seg b ON a.poly_id = b.poly_id
    AND b.k > a.k + 1 AND NOT (a.k = 0 AND b.k = a.nv - 1))
SELECT p.poly_id, p.nv::BIGINT AS nv,
  coalesce(sum(CASE WHEN pr.d1 * pr.d2 < 0 AND pr.d3 * pr.d4 < 0
                    THEN 1 END), 0)::BIGINT AS n_cross
FROM p LEFT JOIN pr ON pr.poly_id = p.poly_id
GROUP BY p.poly_id, p.nv""",
        "trajectory_raster": """
WITH pts AS (
  SELECT user_id, event_id, epoch_us(ts) AS tsu,
    epoch_us(ts) // 86400000000 AS day,
    ((user_id * 7919) % 1000000 + (event_id * 131) % 97
      + CASE WHEN event_id % 7 = 0 THEN 500 ELSE 0 END) // 32 AS cx,
    ((user_id * 104729) % 1000000 + (event_id * 137) % 89
      + CASE WHEN event_id % 7 = 0 THEN 500 ELSE 0 END) // 32 AS cy
  FROM events),
ranked AS (
  SELECT *, row_number() OVER w AS rf, row_number() OVER (
      PARTITION BY user_id, day ORDER BY tsu DESC, event_id DESC) AS rl
  FROM pts WINDOW w AS (PARTITION BY user_id, day ORDER BY tsu, event_id)),
trips AS (
  SELECT f.cx AS ox, f.cy AS oy, l.cx - f.cx AS dx, l.cy - f.cy AS dy,
         greatest(abs(l.cx - f.cx), abs(l.cy - f.cy)) AS n
  FROM ranked f JOIN ranked l
    ON f.user_id = l.user_id AND f.day = l.day
  WHERE f.rf = 1 AND l.rl = 1),
samp AS (
  SELECT ox + (t * dx) // greatest(n, 1) AS cx,
         oy + (t * dy) // greatest(n, 1) AS cy
  FROM trips, LATERAL (SELECT unnest(range(n + 1)) AS t) s)
SELECT cx, cy, count(*)::BIGINT AS n_visits
FROM samp GROUP BY cx, cy""",
        "image_boxsum": f"""
WITH {sqlgen.img_cte(300)},
hs AS (
  SELECT i, h, r.r, c.c,
      ((r.r * h + (c.c + 0) * w + i) % 256)
    + ((r.r * h + (c.c + 1) * w + i) % 256)
    + ((r.r * h + (c.c + 2) * w + i) % 256)
    + ((r.r * h + (c.c + 3) * w + i) % 256)
    + ((r.r * h + (c.c + 4) * w + i) % 256) AS hsum
  FROM img,
  LATERAL (SELECT unnest(range(h)) AS r) r,
  LATERAL (SELECT unnest(range(w - 4)) AS c) c),
bx AS (
  SELECT i, r, h,
    sum(hsum) OVER (PARTITION BY i, c ORDER BY r
                    ROWS BETWEEN CURRENT ROW AND 4 FOLLOWING) AS box
  FROM hs),
sel AS (SELECT i, box FROM bx WHERE r <= h - 5)
SELECT printf('img%012d', i) AS image_id,
  count(*)::BIGINT AS n_win,
  max(box)::BIGINT AS box_max,
  min(box)::BIGINT AS box_min,
  (count(*) FILTER (WHERE box >= 3200))::BIGINT AS bright_win,
  sum(box)::BIGINT AS box_total
FROM sel GROUP BY i""",
        "zone_shape": f"""
WITH {sqlgen.lattice_cte(_oracle_lookup('tiles_t6.parquet'))},
nb AS (
  SELECT a.tile, a.ck, count(b.tile)::BIGINT AS n4
  FROM par a LEFT JOIN par b
    ON a.ck = b.ck
   AND abs(a.te - b.te) + abs(a.tn - b.tn) = 6
   AND greatest(abs(a.te - b.te), abs(a.tn - b.tn)) = 6
  GROUP BY a.tile, a.ck)
SELECT ck AS continent, count(*)::BIGINT AS n_tiles,
       sum(4 - n4)::BIGINT AS perimeter_edges,
       (count(*) FILTER (WHERE n4 = 4))::BIGINT AS n_interior
FROM nb GROUP BY ck""",
        "feature_hashing": sqlgen.feature_hash_sql(),
        "event_sax": """
WITH hc AS (
  SELECT event_type, epoch_us(ts) // 3600000000 AS hr,
         count(*)::BIGINT AS n
  FROM events GROUP BY 1, 2),
bounds AS (SELECT min(hr) AS mn, max(hr) AS mx FROM hc),
grid AS (
  SELECT k.event_type, b.mn + u.u AS hr, (u.u) // 4 AS p
  FROM (SELECT DISTINCT event_type FROM hc) k, bounds b,
       UNNEST(range(b.mx - b.mn + 1)) AS u(u)),
dense AS (
  SELECT g.event_type, g.p, coalesce(hc.n, 0) AS n
  FROM grid g LEFT JOIN hc
    ON hc.event_type = g.event_type AND hc.hr = g.hr
  WHERE g.p < (SELECT (mx - mn + 1) // 4 FROM bounds)),
box AS (
  SELECT event_type, p, sum(n)::BIGINT AS v
  FROM dense GROUP BY 1, 2),
thr AS (
  SELECT event_type, quantile_disc(v, 0.25) AS q1,
         quantile_disc(v, 0.5) AS q2, quantile_disc(v, 0.75) AS q3
  FROM box GROUP BY 1),
sym AS (
  SELECT b.event_type, b.p,
    (CASE WHEN v > q1 THEN 1 ELSE 0 END
     + CASE WHEN v > q2 THEN 1 ELSE 0 END
     + CASE WHEN v > q3 THEN 1 ELSE 0 END) AS s
  FROM box b JOIN thr USING (event_type)),
tri AS (
  SELECT event_type,
    s * 16 + lead(s, 1) OVER w * 4 + lead(s, 2) OVER w AS motif
  FROM sym WINDOW w AS (PARTITION BY event_type ORDER BY p))
SELECT event_type, motif::BIGINT AS motif, count(*)::BIGINT AS n
FROM tri WHERE motif IS NOT NULL GROUP BY 1, 2""",
        "parts_supplier": """
SELECT p.p_brand, p.p_type, p.p_size::BIGINT AS p_size,
       count(DISTINCT l.l_suppkey)::BIGINT AS supplier_cnt
FROM lineitem l
JOIN part p ON p.p_partkey = l.l_partkey
JOIN supplier s ON s.s_suppkey = l.l_suppkey
WHERE s.s_acctbal >= 0
GROUP BY 1, 2, 3""",
        "land_regions": f"""
WITH RECURSIVE {sqlgen.lattice_cte(_oracle_lookup('tiles_t6.parquet') + ' WHERE covers_land')},
e AS (
  SELECT a.tile AS ta, b.tile AS tb
  FROM par a JOIN par b
    ON a.ck = b.ck
   AND abs(a.te - b.te) + abs(a.tn - b.tn) = 6
   AND greatest(abs(a.te - b.te), abs(a.tn - b.tn)) = 6),
reach AS (
  SELECT tile AS a, tile AS b FROM par
  UNION
  SELECT r.a, e.tb FROM reach r JOIN e ON e.ta = r.b),
comp AS (SELECT a AS tile, min(b) AS root FROM reach GROUP BY a),
sz AS (SELECT root, count(*)::BIGINT AS s FROM comp GROUP BY root)
SELECT p.ck AS continent,
       count(DISTINCT c.root)::BIGINT AS n_regions,
       max(sz.s)::BIGINT AS largest_region,
       count(*)::BIGINT AS n_land_tiles
FROM par p JOIN comp c ON c.tile = p.tile JOIN sz ON sz.root = c.root
GROUP BY p.ck""",
        "od_bearing": """
WITH pts AS (
  SELECT user_id, event_id, epoch_us(ts) AS tsu,
    epoch_us(ts) // 86400000000 AS day,
    ((user_id * 7919) % 1000000 + (event_id * 131) % 97
      + CASE WHEN event_id % 7 = 0 THEN 500 ELSE 0 END) // 32 AS cx,
    ((user_id * 104729) % 1000000 + (event_id * 137) % 89
      + CASE WHEN event_id % 7 = 0 THEN 500 ELSE 0 END) // 32 AS cy
  FROM events),
ranked AS (
  SELECT *, row_number() OVER w AS rf, row_number() OVER (
      PARTITION BY user_id, day ORDER BY tsu DESC, event_id DESC) AS rl
  FROM pts WINDOW w AS (PARTITION BY user_id, day ORDER BY tsu, event_id)),
trips AS (
  SELECT l.cx - f.cx AS u, l.cy - f.cy AS v
  FROM ranked f JOIN ranked l
    ON f.user_id = l.user_id AND f.day = l.day
  WHERE f.rf = 1 AND l.rl = 1),
sec AS (
  SELECT CASE
    WHEN u = 0 AND v = 0 THEN 0
    WHEN abs(u) > abs(v) AND u > 0 THEN 1
    WHEN abs(u) > abs(v) THEN 5
    WHEN abs(v) > abs(u) AND v > 0 THEN 3
    WHEN abs(v) > abs(u) THEN 7
    WHEN u > 0 AND v > 0 THEN 2
    WHEN u < 0 AND v > 0 THEN 4
    WHEN u < 0 AND v < 0 THEN 6
    ELSE 8 END AS sector
  FROM trips)
SELECT sector::BIGINT AS sector, count(*)::BIGINT AS n_trips
FROM sec GROUP BY sector""",
        "brand_median_price": """
WITH cell AS (
  SELECT p.p_brand,
         CAST(round(l.l_extendedprice * 100) AS BIGINT) AS cents,
         sum(CAST(round(l.l_quantity) AS BIGINT))::BIGINT AS w
  FROM lineitem l JOIN part p ON p.p_partkey = l.l_partkey
  GROUP BY 1, 2),
c AS (
  SELECT p_brand, cents, w,
         sum(w) OVER (PARTITION BY p_brand ORDER BY cents) AS cw,
         sum(w) OVER (PARTITION BY p_brand) AS tw
  FROM cell)
SELECT p_brand, min(cents)::BIGINT AS wmedian,
       min(tw)::BIGINT AS total_w
FROM c WHERE 2 * cw >= tw GROUP BY p_brand""",
        "snap_to_network": f"""
WITH seg(s, ax, ay, bx, by) AS (VALUES {_snap_seg_values()}),
pts AS (
  SELECT event_id,
    (((user_id * 7919) % 1000000 + (event_id * 131) % 97
      + CASE WHEN event_id % 7 = 0 THEN 500 ELSE 0 END) // 1024) AS px,
    (((user_id * 104729) % 1000000 + (event_id * 137) % 89
      + CASE WHEN event_id % 7 = 0 THEN 500 ELSE 0 END) // 1024) AS py
  FROM events),
raw AS (
  SELECT p.event_id, s.s,
    (s.bx - s.ax) AS ux, (s.by - s.ay) AS uy,
    (p.px - s.ax) AS dx, (p.py - s.ay) AS dy,
    (p.px - s.bx) AS ex, (p.py - s.by) AS ey
  FROM pts p CROSS JOIN seg s),
comp AS (
  SELECT event_id, s,
    ux * ux + uy * uy AS L, dx * ux + dy * uy AS dot,
    dx * dx + dy * dy AS pa2, ex * ex + ey * ey AS pb2
  FROM raw),
d AS (
  SELECT event_id, s,
    CASE WHEN dot <= 0 THEN pa2 * 1024
         WHEN dot >= L THEN pb2 * 1024
         ELSE ((pa2 * L - dot * dot) * 1024) // L END AS d2q
  FROM comp),
w AS (SELECT *, row_number() OVER (PARTITION BY event_id
                                   ORDER BY d2q, s) AS rn FROM d)
SELECT s::BIGINT AS seg_id, count(*)::BIGINT AS n_points,
  sum(CASE WHEN d2q <= 102400 THEN 1 ELSE 0 END)::BIGINT AS n_close,
  min(d2q)::BIGINT AS min_d2q
FROM w WHERE rn = 1 GROUP BY s""",
        "hll_user_overlap": _hll_pair_sql_ref(),
        "quadtree_cells": """
WITH pts AS (
  SELECT ((user_id * 7919) % 1000000 + (event_id * 131) % 97
      + CASE WHEN event_id % 7 = 0 THEN 500 ELSE 0 END) AS x,
    ((user_id * 104729) % 1000000 + (event_id * 137) % 89
      + CASE WHEN event_id % 7 = 0 THEN 500 ELSE 0 END) AS y
  FROM events),
c4 AS (SELECT x // 65536 AS qx, y // 65536 AS qy, count(*)::BIGINT AS n
       FROM pts GROUP BY 1, 2),
c3 AS (SELECT qx // 2 AS qx, qy // 2 AS qy, sum(n)::BIGINT AS n
       FROM c4 GROUP BY 1, 2),
c2 AS (SELECT qx // 2 AS qx, qy // 2 AS qy, sum(n)::BIGINT AS n
       FROM c3 GROUP BY 1, 2),
c1 AS (SELECT qx // 2 AS qx, qy // 2 AS qy, sum(n)::BIGINT AS n
       FROM c2 GROUP BY 1, 2),
c0 AS (SELECT qx // 2 AS qx, qy // 2 AS qy, sum(n)::BIGINT AS n
       FROM c1 GROUP BY 1, 2)
SELECT 0::BIGINT AS depth, qx, qy, n AS n_points FROM c0 WHERE n <= 500
UNION ALL
SELECT 1, c.qx, c.qy, c.n FROM c1 c
JOIN c0 p ON p.qx = c.qx // 2 AND p.qy = c.qy // 2
WHERE p.n > 500 AND c.n <= 500
UNION ALL
SELECT 2, c.qx, c.qy, c.n FROM c2 c
JOIN c1 p ON p.qx = c.qx // 2 AND p.qy = c.qy // 2
WHERE p.n > 500 AND c.n <= 500
UNION ALL
SELECT 3, c.qx, c.qy, c.n FROM c3 c
JOIN c2 p ON p.qx = c.qx // 2 AND p.qy = c.qy // 2
WHERE p.n > 500 AND c.n <= 500
UNION ALL
SELECT 4, c.qx, c.qy, c.n FROM c4 c
JOIN c3 p ON p.qx = c.qx // 2 AND p.qy = c.qy // 2
WHERE p.n > 500""",
        "tile_transition": f"""
WITH {_scene_blocks(2000)},
cell AS (
  SELECT tile, gr, gc,
         max(CASE WHEN i % 2 = 0 THEN m END) AS v0,
         max(CASE WHEN i % 2 = 1 THEN m END) AS v1
  FROM blk GROUP BY tile, gr, gc
  HAVING v0 IS NOT NULL AND v1 IS NOT NULL)
SELECT substr(tile, 1, 2) AS continent,
       (v0 // 64)::BIGINT AS c0, (v1 // 64)::BIGINT AS c1,
       count(*)::BIGINT AS n_cells
FROM cell GROUP BY 1, 2, 3""",
        "audio_peak_window": f"""
WITH {sqlgen.pcm_samples_sql(500)},
win AS (
  SELECT i, k,
    sum(v * v) OVER (PARTITION BY i ORDER BY k
                     ROWS BETWEEN CURRENT ROW AND 255 FOLLOWING) AS we
  FROM sv),
f AS (SELECT win.i, k, we FROM win JOIN img ON img.i = win.i
      WHERE k <= (w * h) // 2 - 256),
mx AS (SELECT i, max(we)::BIGINT AS pe, count(*)::BIGINT AS nw
       FROM f GROUP BY i)
SELECT printf('img%012d', f.i) AS image_id, mx.nw AS n_windows,
       mx.pe AS peak_energy, min(f.k)::BIGINT AS peak_start
FROM f JOIN mx ON mx.i = f.i AND f.we = mx.pe
GROUP BY f.i, mx.nw, mx.pe""",
        "doc_readability": """
WITH toks AS (
  SELECT doc_id, u.tok
  FROM documents, UNNEST(regexp_split_to_array(text, '\\s')) AS u(tok)
  WHERE u.tok <> ''),
a AS (
  SELECT doc_id, count(*)::BIGINT AS n_words,
         (count(*) FILTER (WHERE strlen(tok) >= 7))::BIGINT AS n_long
  FROM toks GROUP BY 1),
st AS (
  SELECT doc_id,
    greatest(length(regexp_replace(text, '[^.!?]', '', 'g')), 1)::BIGINT
      AS n_sentences
  FROM documents)
SELECT a.doc_id, a.n_words, st.n_sentences, a.n_long,
  ((a.n_words * 1000) // st.n_sentences
   + (a.n_long * 100000) // a.n_words)::BIGINT AS lix_q
FROM a JOIN st USING (doc_id)""",
        "video_static_runs": f"""
WITH {sqlgen.img_cte(200)},
d AS (
  SELECT i, f.f AS f, any_value(w) AS w,
    sum(abs((((f.f + 1) * h + c.c * w + i) % 256)
          - ((f.f * h + c.c * w + i) % 256)))::BIGINT AS sad
  FROM img,
  LATERAL (SELECT unnest(range(h - 1)) AS f) f,
  LATERAL (SELECT unnest(range(w)) AS c) c
  GROUP BY i, f.f),
ok AS (SELECT i, f FROM d WHERE 4 * sad < 255 * w),
isl AS (
  SELECT i, f, f - row_number() OVER (PARTITION BY i ORDER BY f) AS g
  FROM ok),
runs AS (SELECT i, count(*)::BIGINT AS len FROM isl GROUP BY i, g),
per AS (
  SELECT i, count(*)::BIGINT AS n_runs, max(len)::BIGINT AS max_run
  FROM runs GROUP BY i),
st AS (SELECT i, count(*)::BIGINT AS n_static FROM ok GROUP BY i)
SELECT printf('img%012d', im.i) AS image_id,
  coalesce(st.n_static, 0)::BIGINT AS n_static_pairs,
  coalesce(per.n_runs, 0)::BIGINT AS n_runs,
  coalesce(per.max_run, 0)::BIGINT AS max_run
FROM img im
LEFT JOIN st ON st.i = im.i
LEFT JOIN per ON per.i = im.i""",
        "image_colprofile": f"""
WITH {sqlgen.pixels_sql(300)},
cs AS (SELECT i, c, any_value(h) AS h, sum(v)::BIGINT AS s
       FROM px GROUP BY i, c),
agg AS (
  SELECT i, max(s)::BIGINT AS peak_sum,
    (count(*) FILTER (WHERE s > 128 * h))::BIGINT AS bright_cols
  FROM cs GROUP BY i),
pc AS (
  SELECT cs.i, min(cs.c)::BIGINT AS peak_col
  FROM cs JOIN agg ON agg.i = cs.i AND cs.s = agg.peak_sum
  GROUP BY cs.i)
SELECT printf('img%012d', a.i) AS image_id, a.peak_sum, pc.peak_col,
       a.bright_cols
FROM agg a JOIN pc ON pc.i = a.i""",
        "coverage_churn": f"""
WITH pres AS (
  SELECT tile,
    max(CASE WHEN i % 2 = 0 THEN 1 ELSE 0 END) AS h0,
    max(CASE WHEN i % 2 = 1 THEN 1 ELSE 0 END) AS h1
  FROM {_oracle_lookup('image_tiles.parquet')}
  WHERE i < 2000 GROUP BY tile)
SELECT substr(tile, 1, 2) AS continent,
  sum(h0)::BIGINT AS n_e0, sum(h1)::BIGINT AS n_e1,
  sum(h0 * h1)::BIGINT AS kept,
  sum((1 - h0) * h1)::BIGINT AS gained,
  sum(h0 * (1 - h1))::BIGINT AS lost
FROM pres GROUP BY 1""",
        "event_periodicity": """
WITH hc AS (
  SELECT event_type, epoch_us(ts) // 3600000000 AS hr,
         count(*)::BIGINT AS n
  FROM events GROUP BY 1, 2),
bounds AS (SELECT min(hr) AS mn, max(hr) AS mx FROM hc),
grid AS (
  SELECT k.event_type, b.mn + u.u AS hr
  FROM (SELECT DISTINCT event_type FROM hc) k, bounds b,
       UNNEST(range(b.mx - b.mn + 1)) AS u(u)),
dense AS (
  SELECT g.event_type, g.hr, coalesce(hc.n, 0)::BIGINT AS n
  FROM grid g LEFT JOIN hc
    ON hc.event_type = g.event_type AND hc.hr = g.hr),
pr AS (
  SELECT a.event_type, a.n AS x, b.n AS y
  FROM dense a JOIN dense b
    ON b.event_type = a.event_type AND b.hr = a.hr + 24)
SELECT event_type, count(*)::BIGINT AS n_pairs,
  (count(*) * sum(x * y) - sum(x) * sum(y))::BIGINT AS cov_num,
  (count(*) * sum(x * x) - sum(x) * sum(x))::BIGINT AS varx_num,
  (count(*) * sum(y * y) - sum(y) * sum(y))::BIGINT AS vary_num
FROM pr GROUP BY event_type""",
        "parquet_rowgroup_stats": f"""
SELECT row_group_id::BIGINT AS row_group,
       any_value(row_group_num_rows)::BIGINT AS num_rows,
       any_value(total_compressed_size)::BIGINT AS okey_bytes,
       CAST(any_value(stats_min_value) AS BIGINT) AS min_okey,
       CAST(any_value(stats_max_value) AS BIGINT) AS max_okey
FROM parquet_metadata('{_PQ_FOOTER_GATE}')
WHERE path_in_schema = 'l_orderkey'
GROUP BY row_group_id""",
        "events_debounce": """
WITH e AS (
  SELECT user_id, event_type, epoch_us(ts) AS t, event_id,
    lag(epoch_us(ts)) OVER (PARTITION BY user_id, event_type
                            ORDER BY epoch_us(ts), event_id) AS pt
  FROM events)
SELECT user_id, event_type, count(*)::BIGINT AS n_events,
  (count(*) FILTER (WHERE pt IS NULL OR t - pt > 5000000))::BIGINT
    AS n_kept
FROM e GROUP BY 1, 2""",
        "edge_distance": """
WITH d AS (
  SELECT (l_orderkey * 97003) % 8640000 AS x,
         (l_suppkey * 53003) % 6000000 AS y
  FROM lineitem),
m AS (
  SELECT least(least(x % 600000, 600000 - x % 600000),
               least(y % 600000, 600000 - y % 600000)) AS dist
  FROM d)
SELECT dist // 10000 AS bucket, count(*)::BIGINT AS n
FROM m GROUP BY 1""",
        "continent_hist_sim": f"""
WITH {_scene_blocks(2000)},
cellv AS (SELECT tile, gr, gc, max(m) AS v FROM blk GROUP BY 1, 2, 3),
h AS (SELECT substr(tile, 1, 2) AS cont, v, count(*)::BIGINT AS n
      FROM cellv GROUP BY 1, 2),
tot AS (SELECT cont, sum(n)::BIGINT AS tn FROM h GROUP BY 1),
ov AS (
  SELECT a.cont AS ca, b.cont AS cb,
         sum(least(a.n, b.n))::BIGINT AS overlap
  FROM h a JOIN h b ON a.v = b.v AND a.cont < b.cont
  GROUP BY 1, 2)
SELECT ta.cont AS cont_a, tb.cont AS cont_b, ta.tn AS n_a, tb.tn AS n_b,
       coalesce(ov.overlap, 0)::BIGINT AS overlap
FROM tot ta JOIN tot tb ON ta.cont < tb.cont
LEFT JOIN ov ON ov.ca = ta.cont AND ov.cb = tb.cont""",
        "embedding_separation": """
WITH e AS (
  SELECT vec_id, unnest(embedding)::DOUBLE AS v,
         generate_subscripts(embedding, 1) AS d
  FROM embeddings),
st AS (SELECT d, min(v) AS mn, max(v) AS mx FROM e GROUP BY d),
c AS (
  SELECT e.vec_id, e.d,
    CASE WHEN st.mx = st.mn THEN 0
         ELSE least(greatest(
             floor((e.v - st.mn) * 255.0 / (st.mx - st.mn)),
             0), 255)::BIGINT END AS code
  FROM e JOIN st USING (d)),
lab AS (SELECT vec_id, label FROM embeddings),
ls AS (
  SELECT l.label, c.d, sum(c.code)::BIGINT AS s
  FROM c JOIN lab l USING (vec_id) GROUP BY 1, 2),
ln AS (SELECT label, count(*)::BIGINT AS n FROM embeddings GROUP BY 1)
SELECT a.label::BIGINT AS label_a, b.label::BIGINT AS label_b,
       a.n AS n_a, b.n AS n_b,
       sum((sa.s * b.n - sb.s * a.n) * (sa.s * b.n - sb.s * a.n))::BIGINT
         AS sep_num
FROM ln a JOIN ln b ON a.label < b.label
JOIN ls sa ON sa.label = a.label
JOIN ls sb ON sb.label = b.label AND sb.d = sa.d
GROUP BY 1, 2, 3, 4""",
        "reactivations": """
WITH o AS (
  SELECT o_custkey AS ckey, o_orderkey AS okey,
         epoch_us(o_orderdate) AS t
  FROM orders),
l AS (
  SELECT ckey, okey, t,
         lag(t) OVER (PARTITION BY ckey ORDER BY t, okey) AS pt
  FROM o),
g AS (
  SELECT ckey, CASE WHEN pt IS NULL THEN -1
               ELSE (t - pt) // 86400000000 END AS gd
  FROM l)
SELECT ckey, count(*)::BIGINT AS n_orders,
  (count(*) FILTER (WHERE gd > 60))::BIGINT AS n_reactivations,
  max(gd)::BIGINT AS max_gap_days
FROM g GROUP BY ckey""",
        "k_anonymity": """
WITH qi AS (
  SELECT c.c_nationkey::BIGINT AS nation, o.o_orderpriority AS prio,
         epoch_us(o.o_orderdate) // 604800000000 AS week
  FROM orders o JOIN customer c ON c.c_custkey = o.o_custkey),
cl AS (SELECT nation, prio, week, count(*)::BIGINT AS n
       FROM qi GROUP BY 1, 2, 3)
SELECT count(*)::BIGINT AS n_classes, min(n)::BIGINT AS min_class,
  sum(n)::BIGINT AS n_rows,
  (count(*) FILTER (WHERE n < 5))::BIGINT AS risky_classes,
  coalesce(sum(n) FILTER (WHERE n < 5), 0)::BIGINT AS rows_at_risk
FROM cl""",
        "tile_workload_balance": f"""
WITH cnt AS (
  SELECT tile, count(*)::BIGINT AS n
  FROM {_oracle_lookup('image_tiles.parquet')}
  WHERE i < 2000 GROUP BY 1),
r AS (SELECT tile, n,
             row_number() OVER (ORDER BY n DESC, tile) - 1 AS rk
      FROM cnt),
w AS (SELECT n, CASE WHEN rk % 16 < 8 THEN rk % 16
                     ELSE 15 - rk % 16 END AS worker FROM r)
SELECT worker::BIGINT AS worker, count(*)::BIGINT AS n_tiles,
       sum(n)::BIGINT AS total_scenes
FROM w GROUP BY 1""",
        "abc_analysis": """
WITH rev AS (
  SELECT l_partkey AS pkey,
         sum(CAST(round(l_extendedprice * 100) AS BIGINT))::BIGINT AS r
  FROM lineitem GROUP BY 1),
c AS (
  SELECT pkey, r,
    sum(r) OVER (ORDER BY r DESC, pkey
                 ROWS UNBOUNDED PRECEDING) AS cum,
    sum(r) OVER () AS total
  FROM rev)
SELECT (CASE WHEN 100 * cum <= 70 * total THEN 0
             WHEN 100 * cum <= 90 * total THEN 1
             ELSE 2 END)::BIGINT AS abc,
  count(*)::BIGINT AS n_parts, sum(r)::BIGINT AS revenue
FROM c GROUP BY 1""",
        "unicode_audit": """
SELECT source, count(*)::BIGINT AS n_docs,
  (count(*) FILTER (WHERE strlen(text) > length(text)))::BIGINT
    AS nonascii_docs,
  sum(strlen(text) - length(text))::BIGINT AS extra_bytes,
  sum(strlen(text))::BIGINT AS total_bytes,
  sum(length(text))::BIGINT AS total_chars
FROM documents GROUP BY source""",
        "embedding_topdims": """
WITH e AS (
  SELECT vec_id, unnest(embedding)::DOUBLE AS v,
         generate_subscripts(embedding, 1) AS d
  FROM embeddings),
st AS (SELECT d, min(v) AS mn, max(v) AS mx FROM e GROUP BY d),
c AS (
  SELECT e.vec_id, e.d,
    CASE WHEN st.mx = st.mn THEN 0
         ELSE least(greatest(
             floor((e.v - st.mn) * 255.0 / (st.mx - st.mn)),
             0), 255)::BIGINT END AS code
  FROM e JOIN st USING (d)),
top AS (
  SELECT vec_id, d - 1 AS dim,
         row_number() OVER (PARTITION BY vec_id
                            ORDER BY code DESC, d) AS rn
  FROM c)
SELECT dim::BIGINT AS dim, count(*)::BIGINT AS n_vecs
FROM top WHERE rn = 1 GROUP BY dim""",
        "behavior_signatures": """
WITH b AS (
  SELECT DISTINCT user_id,
    CASE event_type WHEN 'click' THEN 1 WHEN 'error' THEN 2
         WHEN 'purchase' THEN 4 WHEN 'signup' THEN 8
         WHEN 'view' THEN 16 ELSE 0 END AS bit
  FROM events WHERE event_id % 7 = 0),
sig AS (SELECT user_id, sum(bit)::BIGINT AS signature
        FROM b GROUP BY user_id)
SELECT signature, count(*)::BIGINT AS n_users
FROM sig GROUP BY signature""",
        "order_attribution": """
WITH oc AS (
  SELECT o_custkey AS uid, epoch_us(o_orderdate) AS t,
    max(o_orderkey * 8 + CASE o_orderpriority
        WHEN '1-URGENT' THEN 0 WHEN '2-HIGH' THEN 1
        WHEN '3-MEDIUM' THEN 2 WHEN '4-NOT SPECIFIED' THEN 3
        WHEN '5-LOW' THEN 4 ELSE 7 END) AS pk
  FROM orders GROUP BY 1, 2),
m AS (
  SELECT e.event_id,
    (SELECT d.pk FROM oc d
     WHERE d.uid = e.user_id AND d.t < epoch_us(e.ts)
     ORDER BY d.t DESC LIMIT 1) AS pk
  FROM events e),
a AS (
  SELECT CASE WHEN pk IS NULL THEN 'none' ELSE
    CASE pk % 8 WHEN 0 THEN '1-URGENT' WHEN 1 THEN '2-HIGH'
         WHEN 2 THEN '3-MEDIUM' WHEN 3 THEN '4-NOT SPECIFIED'
         WHEN 4 THEN '5-LOW' ELSE '?' END END AS attr_prio
  FROM m)
SELECT attr_prio, count(*)::BIGINT AS n_events FROM a GROUP BY 1""",
        "discount_elasticity": """
WITH p AS (
  SELECT l_returnflag AS flag,
    CAST(round(l_discount * 100) AS BIGINT) AS x,
    CAST(round(l_extendedprice * 100) AS BIGINT) AS y
  FROM lineitem),
a AS (
  SELECT flag, count(*)::BIGINT AS n, sum(x)::BIGINT AS sx,
         sum(y)::BIGINT AS sy, sum(x * x)::BIGINT AS sxx,
         sum(x * y)::BIGINT AS sxy
  FROM p GROUP BY 1)
SELECT flag, n, (n * sxy - sx * sy)::BIGINT AS cov_num,
       (n * sxx - sx * sx)::BIGINT AS var_num
FROM a""",
        "embedding_pq": _PQ_CODES_CTES + """
SELECT vec_id, sum(c << (4 * s))::BIGINT AS pq_code,
       sum(dd)::BIGINT AS recon_err
FROM best WHERE rk = 1 GROUP BY vec_id""",
        "tile_trend": f"""
WITH {_scene_blocks(2000)},
s AS (
  SELECT tile, CAST(gr AS INT) AS gr, CAST(gc AS INT) AS gc,
         count(*)::HUGEINT AS n, sum(i)::HUGEINT AS st,
         sum(m)::HUGEINT AS sv, sum(i * m)::HUGEINT AS stv,
         sum(i * i)::HUGEINT AS stt
  FROM blk GROUP BY tile, gr, gc)
SELECT tile, gr, gc, CAST(n AS BIGINT) AS n_sc,
       CAST(n * stv - st * sv AS BIGINT) AS slope_num,
       CAST(n * stt - st * st AS BIGINT) AS slope_den,
       CAST(CASE WHEN n * stt - st * st = 0 THEN 0
            ELSE (1000000 * (n * stv - st * sv)) // (n * stt - st * st)
            END AS BIGINT) AS trend_q6
FROM s""",
        "tile_mk_trend": f"""
WITH {_scene_blocks(2000)},
p AS (
  SELECT a.tile, a.gr, a.gc,
         sum(CASE WHEN b.m > a.m THEN 1 WHEN b.m < a.m THEN -1
             ELSE 0 END) AS s
  FROM blk a JOIN blk b
    ON b.tile = a.tile AND b.gr = a.gr AND b.gc = a.gc AND b.i > a.i
  GROUP BY a.tile, a.gr, a.gc),
n AS (SELECT tile, gr, gc, count(*) AS n FROM blk
      GROUP BY tile, gr, gc)
SELECT n.tile, CAST(n.gr AS INT) AS gr, CAST(n.gc AS INT) AS gc,
       n.n::BIGINT AS n_sc, COALESCE(p.s, 0)::BIGINT AS mk_s,
       (n.n * (n.n - 1) // 2)::BIGINT AS n_pairs
FROM n LEFT JOIN p
  ON p.tile = n.tile AND p.gr = n.gr AND p.gc = n.gc""",
        "tile_iqr": f"""
WITH {_scene_blocks(2000)}
SELECT tile, CAST(gr AS INT) AS gr, CAST(gc AS INT) AS gc,
       count(*)::BIGINT AS n_sc,
       quantile_disc(m, 0.25)::BIGINT AS v_q1,
       quantile_disc(m, 0.75)::BIGINT AS v_q3,
       (quantile_disc(m, 0.75) - quantile_disc(m, 0.25))::BIGINT AS iqr
FROM blk GROUP BY tile, gr, gc""",
        "tile_anomaly": f"""
WITH {_scene_blocks(2000)},
st AS (
  SELECT tile, gr, gc, count(*)::BIGINT AS n, sum(m)::BIGINT AS s,
         sum(m * m)::BIGINT AS ss
  FROM blk GROUP BY tile, gr, gc HAVING count(*) >= 3),
fl AS (
  SELECT b.tile, b.gr, b.gc, st.n, b.i,
         CASE WHEN (b.m * st.n - st.s) * (b.m * st.n - st.s)
                   > 4 * (st.n * st.ss - st.s * st.s)
              THEN 1 ELSE 0 END AS f
  FROM blk b JOIN st
    ON st.tile = b.tile AND st.gr = b.gr AND st.gc = b.gc)
SELECT tile, CAST(gr AS INT) AS gr, CAST(gc AS INT) AS gc,
       max(n)::BIGINT AS n_sc, sum(f)::BIGINT AS n_outl,
       sum(CASE WHEN f = 1 THEN i ELSE 0 END)::BIGINT AS outl_scene_sum
FROM fl GROUP BY tile, gr, gc""",
        "cell_provenance": f"""
WITH {_scene_blocks(2000)},
rk AS (
  SELECT tile, gr, gc, i, m, row_number() OVER (
      PARTITION BY tile, gr, gc ORDER BY m DESC, i) AS rn
  FROM blk)
SELECT tile, CAST(gr AS INT) AS gr, CAST(gc AS INT) AS gc,
       i::BIGINT AS best_scene, m::BIGINT AS best_m
FROM rk WHERE rn = 1""",
        "cell_quadkey": f"""
WITH c AS (
  SELECT (((l_orderkey * {_LONMUL}) % {_LONMOD}) * 512) // {_LONMOD} AS ix,
         (((l_partkey * {_LATMUL}) % {_LATMOD}) * 512) // {_LATMOD} AS iy
  FROM lineitem),
k AS (
  SELECT {" || ".join(
      f"chr((48 + 2 * ((iy >> {8 - k}) & 1) + ((ix >> {8 - k}) & 1))::INT)"
      for k in range(5))} AS quadkey
  FROM c)
SELECT quadkey, count(*)::BIGINT AS n FROM k GROUP BY quadkey""",
        "cell_geohash": f"""
WITH c AS (
  SELECT (((l_orderkey * {_LONMUL}) % {_LONMOD}) * 1024) // {_LONMOD} AS ix,
         (((l_partkey * {_LATMUL}) % {_LATMOD}) * 1024) // {_LATMOD} AS iy
  FROM lineitem),
zz AS (
  SELECT ((ix >> 9) & 1) * 524288 + ((ix >> 8) & 1) * 131072 + ((ix >> 7) & 1) * 32768 + ((ix >> 6) & 1) * 8192 + ((ix >> 5) & 1) * 2048 + ((ix >> 4) & 1) * 512 + ((ix >> 3) & 1) * 128 + ((ix >> 2) & 1) * 32 + ((ix >> 1) & 1) * 8 + ((ix >> 0) & 1) * 2 + ((iy >> 9) & 1) * 262144 + ((iy >> 8) & 1) * 65536 + ((iy >> 7) & 1) * 16384 + ((iy >> 6) & 1) * 4096 + ((iy >> 5) & 1) * 1024 + ((iy >> 4) & 1) * 256 + ((iy >> 3) & 1) * 64 + ((iy >> 2) & 1) * 16 + ((iy >> 1) & 1) * 4 + ((iy >> 0) & 1) * 1 AS z
  FROM c),
k AS (
  SELECT substr('0123456789bcdefghjkmnpqrstuvwxyz', (CAST((z >> 15) AS BIGINT) & 31)::INT + 1, 1) || substr('0123456789bcdefghjkmnpqrstuvwxyz', (CAST((z >> 10) AS BIGINT) & 31)::INT + 1, 1) || substr('0123456789bcdefghjkmnpqrstuvwxyz', (CAST((z >> 5) AS BIGINT) & 31)::INT + 1, 1) || substr('0123456789bcdefghjkmnpqrstuvwxyz', (CAST((z >> 0) AS BIGINT) & 31)::INT + 1, 1) AS geohash
  FROM zz)
SELECT geohash, count(*)::BIGINT AS n FROM k GROUP BY geohash""",
        "csv_orders_rollup": """
SELECT o_orderstatus, o_orderpriority, count(*)::BIGINT AS n,
       min(o_orderkey)::BIGINT AS min_key,
       max(o_orderkey)::BIGINT AS max_key
FROM orders GROUP BY o_orderstatus, o_orderpriority""",
        "ipc_lineitem_rollup": (
            "SELECT l_returnflag, l_linestatus, count(*)::BIGINT AS n, "
            "sum(CAST(round(l_extendedprice * 100) AS BIGINT))::BIGINT "
            "AS sum_cents, max(l_orderkey)::BIGINT AS max_key "
            "FROM lineitem GROUP BY 1, 2"
        ),
        "jsonl_events_rollup": """
SELECT event_type, count(*)::BIGINT AS n,
       max(event_id)::BIGINT AS max_event,
       sum(user_id)::BIGINT AS sum_users
FROM events GROUP BY event_type""",
        "compact_docs": """
SELECT source, count(*)::BIGINT AS n, sum(n_chars)::BIGINT AS sum_chars,
       sum(doc_id)::BIGINT AS sum_id, min(doc_id)::BIGINT AS min_id,
       max(doc_id)::BIGINT AS max_id
FROM documents GROUP BY source""",
        "rasterize_polys": """
WITH p AS (
  SELECT k AS poly_id, 200 + (k * 977) % 2800 AS cx,
         200 + (k * 1409) % 2800 AS cy, 50 + (k * 13) % 200 AS r
  FROM range(24) t(k)),
d(v, dx, dy) AS (VALUES (0, 2, 0), (1, 1, 1), (2, 0, 2), (3, -1, 1),
                        (4, -2, 0), (5, -1, -1), (6, 0, -2), (7, 1, -1)),
vert AS (SELECT poly_id, v, cx + r * dx AS vx, cy + r * dy AS vy
         FROM p, d),
edge AS (
  SELECT a.poly_id, a.vx AS x1, a.vy AS y1, b.vx AS x2, b.vy AS y2
  FROM vert a JOIN vert b
    ON b.poly_id = a.poly_id AND b.v = (a.v + 1) % 8),
cell AS (SELECT (i // 100) * 32 + 16 AS px, (i % 100) * 32 + 16 AS py
         FROM range(10000) t(i)),
crs AS (
  SELECT e.poly_id, c.px, c.py
  FROM edge e JOIN cell c
    ON ((e.y1 > c.py) <> (e.y2 > c.py))
   AND (CASE WHEN e.y2 > e.y1
        THEN (e.x2 - e.x1) * (c.py - e.y1)
             - (c.px - e.x1) * (e.y2 - e.y1) > 0
        ELSE (e.x2 - e.x1) * (c.py - e.y1)
             - (c.px - e.x1) * (e.y2 - e.y1) < 0 END)),
par AS (SELECT poly_id, px, py FROM crs
        GROUP BY poly_id, px, py HAVING count(*) % 2 = 1)
SELECT poly_id, count(*)::BIGINT AS n_cells,
       sum(px)::BIGINT AS sum_px, sum(py)::BIGINT AS sum_py
FROM par GROUP BY poly_id""",
        "aoi_point_report": f"""
WITH p AS (
  SELECT k AS poly_id, 10000000 + (k * 14500077) % 340000000 AS cx,
         10000000 + (k * 7700143) % 160000000 AS cy,
         2000000 + (k * 333337) % 8000000 AS r
  FROM range(24) t(k)),
d(v, dx, dy) AS (VALUES (0, 2, 0), (1, 1, 1), (2, 0, 2), (3, -1, 1),
                        (4, -2, 0), (5, -1, -1), (6, 0, -2), (7, 1, -1)),
vert AS (SELECT poly_id, v, cx + r * dx AS vx, cy + r * dy AS vy
         FROM p, d),
edge AS (
  SELECT a.poly_id, a.vx AS x1, a.vy AS y1, b.vx AS x2, b.vy AS y2
  FROM vert a JOIN vert b
    ON b.poly_id = a.poly_id AND b.v = (a.v + 1) % 8),
pt AS (
  SELECT (l_orderkey * {_LONMUL}) % {_LONMOD} AS px,
         (l_partkey * {_LATMUL}) % {_LATMOD} AS py,
         l_orderkey AS v, count(*) AS w
  FROM lineitem GROUP BY 1, 2, 3),
crs AS (
  SELECT e.poly_id, c.px, c.py, c.v, any_value(c.w) AS w,
         count(*) AS nc
  FROM edge e JOIN pt c
    ON ((e.y1 > c.py) <> (e.y2 > c.py))
   AND (CASE WHEN e.y2 > e.y1
        THEN (e.x2 - e.x1) * (c.py - e.y1)
             - (c.px - e.x1) * (e.y2 - e.y1) > 0
        ELSE (e.x2 - e.x1) * (c.py - e.y1)
             - (c.px - e.x1) * (e.y2 - e.y1) < 0 END)
  GROUP BY e.poly_id, c.px, c.py, c.v)
SELECT poly_id, sum(w)::BIGINT AS n_cells,
       sum(px * w)::BIGINT AS sum_px, sum(py * w)::BIGINT AS sum_py,
       sum(v * w)::BIGINT AS sum_v, max(v)::BIGINT AS max_v
FROM crs WHERE nc % 2 = 1 GROUP BY poly_id""",
        "poly_stats": """
WITH p AS (SELECT k AS poly_id, 3 + k % 6 AS nv FROM range(20000) t(k)),
vert AS (
  SELECT poly_id, nv, v.v AS v,
         (poly_id * 131 + v.v * 977) % 2000 AS x,
         (poly_id * 197 + v.v * 1409) % 2000 AS y
  FROM p, LATERAL (SELECT unnest(range(nv)) AS v) v),
e AS (
  SELECT a.poly_id, a.nv, a.x AS x1, a.y AS y1, b.x AS x2, b.y AS y2
  FROM vert a JOIN vert b
    ON b.poly_id = a.poly_id AND b.v = (a.v + 1) % a.nv)
SELECT poly_id, max(nv)::BIGINT AS nv,
       sum(x1 * y2 - x2 * y1)::BIGINT AS area2,
       sum((x2 - x1) * (x2 - x1) + (y2 - y1) * (y2 - y1))::BIGINT
         AS edge_sq,
       sum((x1 + x2) * (x1 * y2 - x2 * y1))::BIGINT AS cx6a,
       sum((y1 + y2) * (x1 * y2 - x2 * y1))::BIGINT AS cy6a,
       min(x1)::BIGINT AS min_x, max(x1)::BIGINT AS max_x,
       min(y1)::BIGINT AS min_y, max(y1)::BIGINT AS max_y
FROM e GROUP BY poly_id""",
        "poly_zonal": f"""
WITH {sqlgen.poly_cells_ctes(_scene_blocks(2000))}
SELECT h.poly_id, count(*)::BIGINT AS n_cells,
       sum(h.cpx)::BIGINT AS sum_px, sum(h.cpy)::BIGINT AS sum_py,
       sum(c.v)::BIGINT AS sum_v, max(c.v)::BIGINT AS max_v
FROM hit h JOIN cell c ON c.cpx = h.cpx AND c.cpy = h.cpy
GROUP BY h.poly_id""",
        "tile_mosaic_delta": f"""
WITH {_scene_blocks(2200)}
SELECT tile, CAST(gr AS INT) AS gr, CAST(gc AS INT) AS gc,
       max(m)::BIGINT AS v_max, sum(m)::BIGINT AS v_sum,
       count(*)::BIGINT AS n_img
FROM blk GROUP BY tile, gr, gc""",
        "poly_majority": f"""
WITH {sqlgen.poly_cells_ctes(_scene_blocks(2000))},
vc AS (
  SELECT h.poly_id, c.v, count(*)::BIGINT AS n
  FROM hit h JOIN cell c ON c.cpx = h.cpx AND c.cpy = h.cpy
  GROUP BY h.poly_id, c.v),
rk AS (
  SELECT poly_id, v, n, count(*) OVER (PARTITION BY poly_id) AS n_vals,
         row_number() OVER (PARTITION BY poly_id
                            ORDER BY n DESC, v) AS rn
  FROM vc)
SELECT poly_id, v::BIGINT AS mode_v, n::BIGINT AS mode_n,
       n_vals::BIGINT AS n_vals
FROM rk WHERE rn = 1""",
        "tile_similarity": f"""
WITH {_scene_blocks(2000)},
mos AS (
  SELECT tile, gr, gc, max(m)::BIGINT AS v
  FROM blk GROUP BY tile, gr, gc)
SELECT a.tile AS tile_a, b.tile AS tile_b,
       sum((a.v - b.v) * (a.v - b.v))::BIGINT AS d2
FROM mos a JOIN mos b
  ON a.gr = b.gr AND a.gc = b.gc
 AND substr(a.tile, 1, 2) = substr(b.tile, 1, 2) AND a.tile < b.tile
GROUP BY a.tile, b.tile
HAVING sum((a.v - b.v) * (a.v - b.v)) <= 2000""",
        "footprint_overlap": """
WITH r AS (
  SELECT k AS id, (k * 131) % 10000 AS x0, (k * 197) % 10000 AS y0,
         (k * 131) % 10000 + 1 + (k * 7) % 200 AS x1,
         (k * 197) % 10000 + 1 + (k * 11) % 200 AS y1
  FROM range(3000) t(k)),
p AS (
  SELECT a.id AS id_a, b.id AS id_b,
         least(a.x1, b.x1) - greatest(a.x0, b.x0) AS ox,
         least(a.y1, b.y1) - greatest(a.y0, b.y0) AS oy
  FROM r a JOIN r b ON a.id < b.id)
SELECT id_a, id_b, (ox * oy)::BIGINT AS ov_area
FROM p WHERE ox > 0 AND oy > 0""",
        "mosaic_manifest": f"""
WITH {_scene_blocks(2000)},
mos AS (
  SELECT tile, gr, gc, max(m)::BIGINT AS v_max
  FROM blk GROUP BY tile, gr, gc)
SELECT substr(tile, 1, 2) AS "group", count(*)::BIGINT AS n_rows,
       min(v_max)::BIGINT AS min_v, max(v_max)::BIGINT AS max_v
FROM mos GROUP BY substr(tile, 1, 2)""",
        "image_quality_gate": f"""
WITH {sqlgen.pixels_sql(300)},
rngx AS (SELECT i, (max(v) - min(v))::BIGINT AS pr FROM px GROUP BY i),
e AS (
  SELECT i,
    abs(  (((r.r - 1) * h + (c.c + 1) * w + i) % 256)
        + 2 * (((r.r) * h + (c.c + 1) * w + i) % 256)
        + (((r.r + 1) * h + (c.c + 1) * w + i) % 256)
        - (((r.r - 1) * h + (c.c - 1) * w + i) % 256)
        - 2 * (((r.r) * h + (c.c - 1) * w + i) % 256)
        - (((r.r + 1) * h + (c.c - 1) * w + i) % 256))
  + abs(  (((r.r + 1) * h + (c.c - 1) * w + i) % 256)
        + 2 * (((r.r + 1) * h + (c.c) * w + i) % 256)
        + (((r.r + 1) * h + (c.c + 1) * w + i) % 256)
        - (((r.r - 1) * h + (c.c - 1) * w + i) % 256)
        - 2 * (((r.r - 1) * h + (c.c) * w + i) % 256)
        - (((r.r - 1) * h + (c.c + 1) * w + i) % 256)) AS g,
    (h - 2) * (w - 2) AS ni
  FROM img,
  LATERAL (SELECT unnest(range(1, h - 1)) AS r) r,
  LATERAL (SELECT unnest(range(1, w - 1)) AS c) c),
ec AS (SELECT i, (count(*) FILTER (WHERE g >= 256))::BIGINT AS edge_px,
              any_value(ni)::BIGINT AS ni
       FROM e GROUP BY i)
SELECT printf('img%012d', ec.i) AS image_id,
       CASE WHEN r2.pr < 192 THEN 'low_range'
            WHEN ec.edge_px * 20 < ec.ni THEN 'smooth'
            WHEN ec.edge_px * 5 > 3 * ec.ni THEN 'busy'
            ELSE 'ok' END AS reason,
       ec.edge_px, r2.pr AS px_range
FROM ec JOIN rngx r2 ON r2.i = ec.i""",
        "ann_pq_topk": _PQ_CODES_CTES + """,
codes AS (SELECT vec_id, s, c FROM best WHERE rk = 1),
qc AS (SELECT s, c AS qcc FROM codes WHERE vec_id = 0),
lut AS (
  SELECT a.s, a.c AS c1, b.c AS c2,
         sum((a.cv - b.cv) * (a.cv - b.cv))::BIGINT AS dd
  FROM cent a JOIN cent b ON a.s = b.s AND a.d8 = b.d8
  GROUP BY a.s, a.c, b.c),
sc AS (
  SELECT codes.vec_id, sum(lut.dd)::BIGINT AS pq_dist
  FROM codes JOIN qc ON qc.s = codes.s
  JOIN lut ON lut.s = codes.s AND lut.c1 = qc.qcc AND lut.c2 = codes.c
  GROUP BY codes.vec_id)
SELECT vec_id, pq_dist FROM sc ORDER BY pq_dist, vec_id LIMIT 10""",
        "image_hog": f"""
WITH {sqlgen.img_cte(300)},
g AS (
  SELECT i,
    (  (((r.r - 1) * h + (c.c + 1) * w + i) % 256)
     + 2 * (((r.r) * h + (c.c + 1) * w + i) % 256)
     + (((r.r + 1) * h + (c.c + 1) * w + i) % 256)
     - (((r.r - 1) * h + (c.c - 1) * w + i) % 256)
     - 2 * (((r.r) * h + (c.c - 1) * w + i) % 256)
     - (((r.r + 1) * h + (c.c - 1) * w + i) % 256)) AS gx,
    (  (((r.r + 1) * h + (c.c - 1) * w + i) % 256)
     + 2 * (((r.r + 1) * h + (c.c) * w + i) % 256)
     + (((r.r + 1) * h + (c.c + 1) * w + i) % 256)
     - (((r.r - 1) * h + (c.c - 1) * w + i) % 256)
     - 2 * (((r.r - 1) * h + (c.c) * w + i) % 256)
     - (((r.r - 1) * h + (c.c + 1) * w + i) % 256)) AS gy
  FROM img,
  LATERAL (SELECT unnest(range(1, h - 1)) AS r) r,
  LATERAL (SELECT unnest(range(1, w - 1)) AS c) c),
q AS (
  SELECT i, gx, gy,
    2 * (CASE WHEN gy < 0 THEN 1 ELSE 0 END)
      + (CASE WHEN (gx < 0) <> (gy < 0) THEN 1 ELSE 0 END) AS qd
  FROM g WHERE gx <> 0 OR gy <> 0),
b AS (
  SELECT i, 2 * qd + (CASE WHEN (abs(gx) <= abs(gy)) <> (qd % 2 = 1)
                      THEN 1 ELSE 0 END) AS bin
  FROM q),
agg AS (
  SELECT i,
    (count(*) FILTER (WHERE bin = 0))::BIGINT AS o0,
    (count(*) FILTER (WHERE bin = 1))::BIGINT AS o1,
    (count(*) FILTER (WHERE bin = 2))::BIGINT AS o2,
    (count(*) FILTER (WHERE bin = 3))::BIGINT AS o3,
    (count(*) FILTER (WHERE bin = 4))::BIGINT AS o4,
    (count(*) FILTER (WHERE bin = 5))::BIGINT AS o5,
    (count(*) FILTER (WHERE bin = 6))::BIGINT AS o6,
    (count(*) FILTER (WHERE bin = 7))::BIGINT AS o7,
    count(*)::BIGINT AS n_grad
  FROM b GROUP BY i)
SELECT printf('img%012d', im.i) AS image_id,
  coalesce(o0, 0) AS o0, coalesce(o1, 0) AS o1, coalesce(o2, 0) AS o2,
  coalesce(o3, 0) AS o3, coalesce(o4, 0) AS o4, coalesce(o5, 0) AS o5,
  coalesce(o6, 0) AS o6, coalesce(o7, 0) AS o7,
  coalesce(n_grad, 0) AS n_grad
FROM img im LEFT JOIN agg ON agg.i = im.i""",
        "video_cuts": f"""
WITH {sqlgen.img_cte(200)},
d AS (
  SELECT i, f.f AS f, any_value(w) AS w,
    sum(abs((((f.f + 1) * h + c.c * w + i) % 256)
          - ((f.f * h + c.c * w + i) % 256)))::BIGINT AS sad
  FROM img,
  LATERAL (SELECT unnest(range(h - 1)) AS f) f,
  LATERAL (SELECT unnest(range(w)) AS c) c
  GROUP BY i, f.f)
SELECT printf('img%012d', im.i) AS image_id,
  im.h::BIGINT AS n_frames,
  (count(*) FILTER (WHERE 4 * sad >= 255 * d.w))::BIGINT AS n_cuts,
  max(sad)::BIGINT AS max_sad,
  sum(sad)::BIGINT AS sad_sum
FROM img im JOIN d ON d.i = im.i
GROUP BY im.i, im.h""",
        "audio_autocorr": f"""
WITH {sqlgen.pcm_samples_sql(400)},
l(lag) AS (VALUES (1), (2), (4), (8)),
ac AS (
  SELECT a.i, l.lag, sum(a.v * b.v)::BIGINT AS ac
  FROM sv a CROSS JOIN l
  JOIN sv b ON b.i = a.i AND b.k = a.k + l.lag
  GROUP BY a.i, l.lag),
wide AS (
  SELECT i,
    max(CASE WHEN lag = 1 THEN ac END)::BIGINT AS ac1,
    max(CASE WHEN lag = 2 THEN ac END)::BIGINT AS ac2,
    max(CASE WHEN lag = 4 THEN ac END)::BIGINT AS ac4,
    max(CASE WHEN lag = 8 THEN ac END)::BIGINT AS ac8
  FROM ac GROUP BY i)
SELECT printf('img%012d', w2.i) AS image_id,
  ((im.w * im.h) // 2)::BIGINT AS n_samples,
  ac1, ac2, ac4, ac8,
  (CASE WHEN ac1 >= ac2 AND ac1 >= ac4 AND ac1 >= ac8 THEN 1
        WHEN ac2 >= ac4 AND ac2 >= ac8 THEN 2
        WHEN ac4 >= ac8 THEN 4 ELSE 8 END)::BIGINT AS best_lag
FROM wide w2 JOIN img im ON im.i = w2.i""",
        "rgb_band_algebra": f"""
WITH {sqlgen.pixels_sql(300)},
rg AS (SELECT i, v AS rv, (v + 85) % 256 AS gv FROM px)
SELECT printf('rgb%012d', i) AS image_id,
       (count(*) FILTER (WHERE gv > rv))::BIGINT AS veg_px,
       sum(gv - rv)::BIGINT AS idx_sum,
       sum(((gv - rv + 256) * 4096) // (gv + rv + 1))::BIGINT AS ndq_sum
FROM rg GROUP BY i""",
        "frame_sample": sqlgen.frame_sample_sql(100),
        "video_frame_stats": sqlgen.video_frames_sql(200, 5),
        "top_terms": (
            "SELECT u.tok AS token, count(*) AS n "
            "FROM documents, UNNEST(regexp_split_to_array(text, '\\s')) u(tok) "
            "WHERE u.tok <> '' GROUP BY token ORDER BY n DESC, token LIMIT 50"
        ),
        "doc_tfidf_topk": (
            "WITH toks AS (SELECT doc_id, u.tok FROM documents, "
            "UNNEST(regexp_split_to_array(text, '\\s')) u(tok) "
            "WHERE u.tok <> ''), "
            "tf AS (SELECT doc_id, tok, count(*) AS tf FROM toks "
            "GROUP BY doc_id, tok), "
            "dfq AS (SELECT tok, count(DISTINCT doc_id) AS df FROM toks "
            "GROUP BY tok), "
            "vocab AS (SELECT tok, df FROM dfq "
            "ORDER BY df DESC, tok LIMIT 4096), "
            "nd AS (SELECT count(*) AS n FROM documents), "
            "scored AS (SELECT t.doc_id, t.tok, "
            "t.tf * ((nd.n * 1000) // v.df) AS score "
            "FROM tf t JOIN vocab v USING (tok), nd), "
            "ranked AS (SELECT doc_id, tok, score, row_number() OVER ("
            "PARTITION BY doc_id ORDER BY score DESC, tok) AS r FROM scored) "
            "SELECT doc_id, tok AS token, CAST(score AS BIGINT) AS score "
            "FROM ranked WHERE r <= 3"
        ),
        "contaminated_docs": sqlgen.contamination_sql(n_bench=20, k=24),
        "docs_split_counts": _split_counts_sql(),
        "audio_pcm_features": sqlgen.audio_pcm_sql(500),
        "docs_stratified_sample": sqlgen.stratified_sample_sql(_SAMPLE_RATES, default_rate=0.0625),
        "supplier_topk_per_nation": (
            "WITH r AS (SELECT l_suppkey, "
            "CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)) AS BIGINT) "
            "AS cents FROM lineitem GROUP BY l_suppkey), "
            "j AS (SELECT n_name, s_name, s_suppkey, cents FROM r "
            "JOIN supplier ON s_suppkey = l_suppkey "
            "JOIN nation ON n_nationkey = s_nationkey), "
            "w AS (SELECT *, row_number() OVER (PARTITION BY n_name "
            "ORDER BY cents DESC, s_suppkey) AS rk FROM j) "
            "SELECT n_name, s_name, cents FROM w WHERE rk <= 3"
        ),
        "roi_search_batch": (
            f"WITH d AS (SELECT (l_orderkey * {_XMUL}) % {_XMOD} AS x, "
            f"(l_suppkey * {_YMUL}) % {_YMOD} AS y FROM lineitem), "
            f"b AS (SELECT greatest(x - 250000, 0) AS x0, "
            f"least(x + 250000, {_XMOD - 1}) AS x1, "
            f"greatest(y - 250000, 0) AS y0, "
            f"least(y + 250000, {_YMOD - 1}) AS y1 FROM d), "
            "t AS (SELECT printf('E%03dN%03dT6', tx.i * 6, ty.j * 6) AS tile "
            "FROM b, UNNEST(range(x0 // 600000, x1 // 600000 + 1)) AS tx(i), "
            "UNNEST(range(y0 // 600000, y1 // 600000 + 1)) AS ty(j)) "
            "SELECT tile, count(*) AS n FROM t GROUP BY tile"
        ),
        "roi_search_geodesic": (
            f"WITH s AS (SELECT {_UDEG_SQL} FROM lineitem "
            f"WHERE {_SWEEP_SUBSET_SQL}) "
            "SELECT r.tile, count(*) AS n FROM s "
            f"JOIN {_oracle_lookup('sweep_roi_tiles.parquet')} r "
            "USING (lon_udeg, lat_udeg) GROUP BY r.tile"
        ),
        "embedding_near_dup": sqlgen.embedding_near_dup_sql(dim=64, bands=8, r=4, threshold=0.4),
        "cell_index_salted": (
            f"SELECT ({_CELL_L} * (1::BIGINT << 58)) "
            f" + ((((l_partkey * {_LATMUL}) % {_LATMOD}) * {1 << _CELL_L}) // {_LATMOD}) * (1::BIGINT << 29) "
            f" + (((l_orderkey * {_LONMUL}) % {_LONMOD}) * {1 << _CELL_L}) // {_LONMOD} AS cell, "
            f"count(*) AS n FROM lineitem GROUP BY cell"
        ),
        "zorder_hist": sqlgen.zorder_hist_sql(),
        "zorder_bbox_prune": (
            # plain bbox predicate: the engine's z-range pruning must be
            # output-transparent
            f"WITH xy AS (SELECT (l_orderkey * {_XMUL}) % {_XMOD} AS x, "
            f"(l_suppkey * {_YMUL}) % {_YMOD} AS y FROM lineitem) "
            "SELECT count(*) AS n, CAST(sum(x) AS BIGINT) AS sum_x, "
            "CAST(sum(y) AS BIGINT) AS sum_y FROM xy "
            "WHERE x BETWEEN 2000000 AND 4500000 "
            "AND y BETWEEN 50000 AND 3500000"
        ),
        "orders_bloom_semi": (
            "SELECT o_orderpriority, count(*) AS n, "
            "CAST(sum(o_custkey) AS BIGINT) AS custkey_sum FROM orders "
            "WHERE o_custkey IN (SELECT c_custkey FROM customer "
            "WHERE c_mktsegment = 'BUILDING') GROUP BY o_orderpriority"
        ),
        "pack_sequences": (
            # recursive-CTE mirror of stages/pack.py first-fit greedy
            # (budget 256, shard = doc_id // 64, doc_id order)
            "WITH RECURSIVE d AS ("
            "SELECT doc_id, doc_id // 64 AS shard, "
            "CAST(len(string_split(text, ' ')) AS BIGINT) AS n_toks, "
            "row_number() OVER (PARTITION BY doc_id // 64 ORDER BY doc_id)"
            " AS rn FROM documents), "
            "p AS ("
            "SELECT shard, rn, doc_id, n_toks, CAST(0 AS BIGINT) AS seq, "
            "n_toks AS fill FROM d WHERE rn = 1 "
            "UNION ALL "
            "SELECT d.shard, d.rn, d.doc_id, d.n_toks, "
            "CASE WHEN p.fill + d.n_toks <= 256 THEN p.seq ELSE p.seq + 1 "
            "END, "
            "CASE WHEN p.fill + d.n_toks <= 256 THEN p.fill + d.n_toks "
            "ELSE d.n_toks END "
            "FROM d JOIN p ON d.shard = p.shard AND d.rn = p.rn + 1) "
            "SELECT doc_id, shard, seq, n_toks FROM p"
        ),
        "docs_balanced_sample": sqlgen.balanced_sample_sql("lang"),
        "incremental_dedup": (
            # text-equality mirror of the engine's content-hash
            # anti-join (collision-free at oracle scale)
            "SELECT min(doc_id) AS doc_id FROM documents "
            "WHERE doc_id >= 100 AND text NOT IN "
            "(SELECT text FROM documents WHERE doc_id < 100) "
            "GROUP BY text"
        ),
        "spatial_neighbor_pairs": (
            f"WITH p AS (SELECT c_custkey AS id, "
            f"(c_custkey * {_XMUL}) % {_XMOD} AS x, "
            f"(c_custkey * {_YMUL}) % {_YMOD} AS y FROM customer) "
            "SELECT a.id AS id_a, b.id AS id_b, "
            "(a.x-b.x)*(a.x-b.x) + (a.y-b.y)*(a.y-b.y) AS d2 "
            "FROM p a JOIN p b ON a.id < b.id "
            "WHERE (a.x-b.x)*(a.x-b.x) + (a.y-b.y)*(a.y-b.y) "
            "<= 40000000000"
        ),
        "distortion_planar": (
            f"WITH xy AS (SELECT (l_orderkey * {_XMUL}) % {_XMOD} AS x, "
            f"(l_suppkey * {_YMUL}) % {_YMOD} AS y FROM lineitem), "
            "dd AS (SELECT sqrt((x - 5837287.81977)*(x - 5837287.81977) + "
            "(y - 2121415.69617)*(y - 2121415.69617)) AS d FROM xy) "
            "SELECT CAST(round(CASE WHEN d = 0 THEN 1.0 "
            "ELSE d / 6378137.0 / sin(d / 6378137.0) END * 1000000) "
            "AS BIGINT) AS k_micro, count(*) AS n FROM dd GROUP BY k_micro"
        ),
        "embedding_centroids": (
            "SELECT vec_id % 8 AS cls, u.i AS dim, "
            "CAST(sum(CAST(round(CAST(u.e AS DOUBLE) * 1000000) AS BIGINT)) "
            "AS BIGINT) AS s, count(*) AS n "
            "FROM embeddings, LATERAL (SELECT unnest(embedding) AS e, "
            "unnest(range(len(embedding))) AS i) u "
            "GROUP BY cls, dim"
        ),
        "events_profile": (
            " UNION ALL ".join(
                f"SELECT '{c}' AS col, count(*) AS n, "
                f"CAST(sum(CASE WHEN {c} IS NULL THEN 1 ELSE 0 END) AS BIGINT)"
                f" AS n_null, count(DISTINCT {c}) AS n_distinct, "
                f"min({e}) AS min_v, max({e}) AS max_v FROM events"
                for c, e in [("event_id", "event_id"),
                             ("user_id", "user_id"),
                             ("event_type", "length(event_type)"),
                             ("props", "length(props)")]
            )
        ),
        "docs_rollup": (
            "SELECT COALESCE(lang, '<all>') AS lang, "
            "COALESCE(source, '<all>') AS source, count(*) AS n "
            "FROM documents GROUP BY ROLLUP(lang, source)"
        ),
        "docs_cube": (
            "WITH d AS (SELECT lang, source, "
            "CASE WHEN doc_id % 2 = 0 THEN 'even' ELSE 'odd' END AS split "
            "FROM documents) "
            "SELECT COALESCE(lang, '<all>') AS lang, "
            "COALESCE(source, '<all>') AS source, "
            "COALESCE(split, '<all>') AS split, count(*) AS n "
            "FROM d GROUP BY CUBE(lang, source, split)"
        ),
        "nchars_drift": """
WITH d AS (
  SELECT n_chars,
         CASE WHEN doc_id % 2 = 0 THEN 'even' ELSE 'odd' END AS grp
  FROM documents),
ed AS (SELECT unnest(quantile_disc(n_chars,
         [0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875])) AS x
       FROM documents),
b AS (SELECT d.grp,
             (SELECT count(*) FROM ed WHERE ed.x < d.n_chars) AS bucket
      FROM d),
cnt AS (SELECT bucket, grp, count(*)::HUGEINT AS obs
        FROM b GROUP BY 1, 2),
ng AS (SELECT grp, sum(obs) AS n FROM cnt GROUP BY grp),
ci AS (SELECT bucket, sum(obs) AS c FROM cnt GROUP BY bucket),
nn AS (SELECT sum(obs) AS n FROM cnt)
SELECT c.bucket::BIGINT AS bucket, c.grp, c.obs::BIGINT AS obs,
       ((1000000::HUGEINT * (c.obs * nn.n - ng.n * ci.c)
         * (c.obs * nn.n - ng.n * ci.c))
        // (nn.n * ng.n * ci.c))::BIGINT AS chi2_q
FROM cnt c JOIN ng ON ng.grp = c.grp JOIN ci ON ci.bucket = c.bucket, nn""",
        "doc_surprisal": (
            # integer bit-length surprisal mirror of
            # stages/text.py:surprisal_scores (vocab cut 4096 by
            # count desc, token asc; OOV scores as count 1)
            "WITH tok AS (SELECT doc_id, "
            "unnest(string_split(text, ' ')) AS t FROM documents), "
            "cnt AS (SELECT t, count(*) AS c FROM tok GROUP BY t), "
            "tot AS (SELECT CAST(sum(c) AS BIGINT) AS n FROM cnt), "
            "vocab AS (SELECT t, c, row_number() OVER "
            "(ORDER BY c DESC, t) AS rk FROM cnt), "
            "keep AS (SELECT t, c FROM vocab WHERE rk <= 4096), "
            "scored AS (SELECT tok.doc_id, "
            "length(format('{:b}', tot.n // COALESCE(k.c, 1))) AS s "
            "FROM tok LEFT JOIN keep k ON tok.t = k.t, tot) "
            "SELECT doc_id, count(*) AS n_toks, "
            "CAST(sum(s) AS BIGINT) AS ssum FROM scored GROUP BY doc_id"
        ),
        "triangle_count": (
            "WITH e AS (SELECT DISTINCT "
            "least(l_orderkey % 500, (l_partkey * 11) % 500) AS u, "
            "greatest(l_orderkey % 500, (l_partkey * 11) % 500) AS v "
            "FROM lineitem "
            "WHERE l_orderkey % 500 <> (l_partkey * 11) % 500) "
            "SELECT CAST(count(*) AS BIGINT) AS n_triangles "
            "FROM e a JOIN e b ON b.u = a.v "
            "JOIN e c ON c.u = a.u AND c.v = b.v"
        ),
        "docs_rank_ntile": (
            "SELECT doc_id, n_chars, "
            "row_number() OVER (ORDER BY n_chars, doc_id) AS rnk, "
            "ntile(8) OVER (ORDER BY n_chars, doc_id) AS bucket "
            "FROM documents"
        ),
        "events_hourly_distinct": (
            "SELECT to_timestamp((epoch_us(ts) // 3600000000) * 3600)"
            "::TIMESTAMP AS window_start, "
            "count(DISTINCT user_id) AS n_users "
            "FROM events GROUP BY window_start"
        ),
        "lineitem_skyline": (
            # dominance via per-quantity max price + cummax over
            # strictly smaller quantities; duplicates of a front point
            # all survive (JOIN keeps every matching row)
            "WITH g AS (SELECT l_quantity AS q, max(l_extendedprice) AS gp "
            "FROM lineitem GROUP BY q), "
            "m AS (SELECT q, gp, max(gp) OVER (ORDER BY q "
            "ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS mp "
            "FROM g), "
            "k AS (SELECT q, gp FROM m WHERE mp IS NULL OR gp > mp) "
            "SELECT l_quantity, l_extendedprice FROM lineitem "
            "JOIN k ON l_quantity = k.q AND l_extendedprice = k.gp"
        ),
        "user_event_sequences": (
            "SELECT user_id, count(*) AS n_items, "
            "string_agg(event_type, ' ' ORDER BY ts, event_id) AS seq "
            "FROM events GROUP BY user_id"
        ),
        "docs_per_source_cap": _per_source_cap_sql(),
        "events_funnel": (
            "WITH s1 AS (SELECT user_id, min(ts) AS t1 FROM events "
            "WHERE event_type = 'view' GROUP BY user_id), "
            "s2 AS (SELECT e.user_id, min(e.ts) AS t2 FROM events e "
            "JOIN s1 ON e.user_id = s1.user_id AND e.ts > s1.t1 "
            "WHERE e.event_type = 'click' GROUP BY e.user_id), "
            "s3 AS (SELECT e.user_id, min(e.ts) AS t3 FROM events e "
            "JOIN s2 ON e.user_id = s2.user_id AND e.ts > s2.t2 "
            "WHERE e.event_type = 'purchase' GROUP BY e.user_id), "
            "u AS (SELECT DISTINCT user_id FROM events WHERE event_type "
            "IN ('view', 'click', 'purchase')) "
            "SELECT u.user_id, CAST(CASE WHEN s3.user_id IS NOT NULL THEN 3 "
            "WHEN s2.user_id IS NOT NULL THEN 2 "
            "WHEN s1.user_id IS NOT NULL THEN 1 ELSE 0 END AS BIGINT) "
            "AS stage "
            "FROM u LEFT JOIN s1 ON u.user_id = s1.user_id "
            "LEFT JOIN s2 ON u.user_id = s2.user_id "
            "LEFT JOIN s3 ON u.user_id = s3.user_id"
        ),
        "simhash_near_dup": (
            f"WITH s AS ({sqlgen.simhash_sql()}) "
            "SELECT a.doc_id AS id_a, b.doc_id AS id_b "
            "FROM s a JOIN s b ON a.doc_id < b.doc_id "
            "AND bit_count(xor(a.simhash, b.simhash)) <= 3"
        ),
        "orders_validate": (
            "SELECT 'not_null:o_custkey' AS \"check\", "
            "CAST(sum(CASE WHEN o_custkey IS NULL THEN 1 ELSE 0 END) "
            "AS BIGINT) AS n_violations FROM orders "
            "UNION ALL SELECT 'positive:o_totalprice', "
            "CAST(sum(CASE WHEN o_totalprice IS NULL OR o_totalprice <= 0 "
            "THEN 1 ELSE 0 END) AS BIGINT) FROM orders "
            "UNION ALL SELECT 'unique:o_orderkey', "
            "count(*) - count(DISTINCT o_orderkey) FROM orders "
            "UNION ALL SELECT 'unique:o_custkey', "
            "count(*) - count(DISTINCT o_custkey) FROM orders "
            "UNION ALL SELECT 'foreign_key:o_custkey', "
            "CAST(sum(CASE WHEN o_custkey NOT IN "
            "(SELECT c_custkey FROM customer) THEN 1 ELSE 0 END) "
            "AS BIGINT) FROM orders"
        ),
        "benford_audit": """
WITH c AS (
  SELECT CAST(round(o_totalprice * 100) AS BIGINT) AS cents FROM orders),
dd AS (
  SELECT CAST(substr(CAST(cents AS VARCHAR), 1, 1) AS BIGINT) AS d
  FROM c WHERE cents > 0),
cnt AS (SELECT d, count(*)::BIGINT AS n FROM dd GROUP BY d),
digits AS (SELECT unnest(range(1, 10)) AS d),
bexp AS (SELECT * FROM (VALUES (1, 301), (2, 176), (3, 125), (4, 97),
                               (5, 79), (6, 67), (7, 58), (8, 51),
                               (9, 46)) e(d, exp_pm)),
tot AS (SELECT sum(n) AS t FROM cnt)
SELECT g.d::BIGINT AS d, COALESCE(cnt.n, 0)::BIGINT AS n,
       (1000 * COALESCE(cnt.n, 0) // greatest(t, 1))::BIGINT AS share_pm,
       e.exp_pm::BIGINT AS exp_pm,
       abs(1000 * COALESCE(cnt.n, 0) // greatest(t, 1)
           - e.exp_pm)::BIGINT AS dev_pm
FROM digits g LEFT JOIN cnt ON cnt.d = g.d
JOIN bexp e ON e.d = g.d, tot""",
        "orders_cdc_merge": (
            "WITH base AS (SELECT o_orderkey AS k, "
            "CAST(round(o_totalprice * 100) AS BIGINT) AS cents, "
            "CAST(-1 AS BIGINT) AS seq, 0 AS del FROM orders), "
            "chg AS (SELECT l_orderkey AS k, "
            "CAST(round(l_extendedprice * 100) AS BIGINT) AS cents, "
            "CAST(l_linenumber AS BIGINT) AS seq, "
            "CASE WHEN (l_orderkey + l_linenumber) % 11 = 0 THEN 1 ELSE 0 END AS del "
            "FROM lineitem), "
            "allr AS (SELECT * FROM base UNION ALL SELECT * FROM chg), "
            "r AS (SELECT k, cents, del, row_number() OVER ("
            "PARTITION BY k ORDER BY seq DESC, del DESC, cents DESC) AS rn FROM allr) "
            "SELECT k, cents FROM r WHERE rn = 1 AND del = 0"
        ),
        "users_customers_full": (
            "WITH c AS (SELECT c_custkey AS k, 1 AS is_cust FROM customer), "
            "e AS (SELECT user_id AS k, count(*) AS n_ev FROM events "
            "GROUP BY user_id) "
            "SELECT CASE WHEN is_cust IS NULL THEN 'events_only' "
            "WHEN n_ev IS NULL THEN 'cust_only' ELSE 'both' END AS side, "
            "count(*) AS n_keys, "
            "CAST(COALESCE(sum(n_ev), 0) AS BIGINT) AS sum_events "
            "FROM c FULL OUTER JOIN e USING (k) GROUP BY side"
        ),
        "lineitem_weighted_sample": _weighted_sample_sql(),
        "user_coverage": (
            "WITH iv AS (SELECT user_id, epoch_us(ts) AS s, "
            "epoch_us(ts) + ((event_id % 7) + 1) * 600000000 AS e "
            "FROM events), "
            "w AS (SELECT user_id, s, e, CASE WHEN "
            "max(e) OVER (PARTITION BY user_id ORDER BY s, e "
            "ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) IS NULL "
            "OR s > max(e) OVER (PARTITION BY user_id ORDER BY s, e "
            "ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) "
            "THEN 1 ELSE 0 END AS ni FROM iv), "
            "w2 AS (SELECT user_id, s, e, sum(ni) OVER "
            "(PARTITION BY user_id ORDER BY s, e "
            "ROWS UNBOUNDED PRECEDING) AS island FROM w), "
            "isl AS (SELECT user_id, island, min(s) AS s0, max(e) AS e1, "
            "count(*) AS n FROM w2 GROUP BY user_id, island) "
            "SELECT user_id, CAST(sum(n) AS BIGINT) AS n_intervals, "
            "count(*) AS n_islands, CAST(sum(e1 - s0) AS BIGINT) AS covered "
            "FROM isl GROUP BY user_id"
        ),
        "user_growth": (
            "WITH f AS (SELECT user_id, "
            "min(epoch_us(ts) // 3600000000) AS d0 FROM events "
            "GROUP BY user_id), "
            "c AS (SELECT d0 AS hour, count(*) AS n FROM f GROUP BY d0) "
            "SELECT hour, CAST(sum(n) OVER (ORDER BY hour "
            "ROWS UNBOUNDED PRECEDING) AS BIGINT) AS cum_users FROM c"
        ),
        "ann_ivf_topk": _ivf_oracle_sql(),
        "kmeans_clusters": (
            "SELECT ivf_list, n "
            f"FROM {_oracle_lookup('kmeans_pin.parquet')} "
            "WHERE sum_label = (SELECT sum(label) FROM embeddings) "
            "ORDER BY ivf_list"
        ),
        "doc_len_quantiles": (
            " UNION ALL ".join(
                f"SELECT lang, CAST({q} AS DOUBLE) AS q, "
                f"quantile_disc(length(text), {q}) AS v "
                "FROM documents GROUP BY lang"
                for q in (0.25, 0.5, 0.75, 0.875)
            )
        ),
        "distinct_events_hll": _hll_oracle_sql(),
        "events_hll_by_type": _hll_by_oracle_sql(),
        "heavy_users_cms": _cms_oracle_sql(),
        "events_pivot": _events_pivot_sql(),
        "events_pivot_melt": (
            "WITH p AS (" + _events_pivot_sql() + ") "
            + " UNION ALL ".join(
                f"SELECT hour, '{c}' AS variable, {c} AS value FROM p"
                for c in [f"n_{x}" for x in
                          ("click", "error", "purchase", "signup", "view")]
                + [f"sum_{x}" for x in
                   ("click", "error", "purchase", "signup", "view")]
            )
        ),
        "events_running": (
            "SELECT CAST(user_id AS BIGINT) AS user_id, "
            "CAST(event_id AS BIGINT) AS event_id, "
            "CAST(count(*) OVER w AS BIGINT) AS cum_n, "
            "CAST(sum(CAST(round(value * 100) AS BIGINT)) OVER w AS BIGINT) "
            "AS cum_cents, "
            "CAST(sum(CAST(round(value * 100) AS BIGINT)) OVER w3 AS BIGINT) "
            "AS roll3_cents FROM events "
            "WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id "
            "ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW), "
            "w3 AS (PARTITION BY user_id ORDER BY ts, event_id "
            "ROWS BETWEEN 2 PRECEDING AND CURRENT ROW)"
        ),
        "events_hopping": (
            "SELECT event_type, "
            "to_timestamp(((epoch_us(ts) // 3600000000) - o.k) * 3600)::TIMESTAMP AS window_start, "
            "count(*) AS n FROM events CROSS JOIN (VALUES (0), (1)) AS o(k) "
            "GROUP BY event_type, window_start"
        ),
        "events_asof_click": (
            "WITH p AS (SELECT user_id, epoch_us(ts) AS ts_us FROM events "
            "WHERE event_type = 'purchase'), "
            "c AS (SELECT user_id, epoch_us(ts) AS ts_us FROM events "
            "WHERE event_type = 'click') "
            "SELECT p.user_id, count(*) AS n_purchases, "
            "count(c.ts_us) AS n_matched, "
            "CAST(COALESCE(sum(p.ts_us - c.ts_us), 0) AS BIGINT) AS sum_gap_us "
            "FROM p ASOF LEFT JOIN c "
            "ON p.user_id = c.user_id AND p.ts_us >= c.ts_us "
            "GROUP BY p.user_id"
        ),
        "events_range_join": (
            "WITH e AS (SELECT user_id, event_type, epoch_us(ts) AS ts_us "
            "FROM events) "
            "SELECT a.event_type AS type_a, b.event_type AS type_b, "
            "count(*) AS n FROM e a JOIN e b ON a.user_id = b.user_id "
            f"AND b.ts_us > a.ts_us AND b.ts_us <= a.ts_us + {_ASOF_GAP_W} "
            "GROUP BY type_a, type_b"
        ),
        "doc_quality": _doc_quality_sql(),
        "fingerprint_docs": sqlgen.fingerprint_sql(),
    }
