"""Streaming-shaped window operators over event Datasets.

The classic event-time windows, expressed Ray-Data-first: window keys
are computed vectorized inside ``map_batches`` and the frame-level
aggregate is a keyed ``groupby`` (tumbling / hopping) or a per-key
ordered ``map_groups`` (sessions).  Partitioning assumption: sessions
require all events of one user in one group -- Ray's hash groupby
provides that; per-user event counts bound group memory.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

__all__ = ["tumbling_window", "hopping_window", "sessionize",
           "cumulative_over", "funnel_stages", "merge_intervals",
           "scd2_intervals", "cusum_alarms", "seasonal_anomaly",
           "peak_concurrency"]

_US = 1_000_000


def tumbling_window(ds, *, ts_col: str = "ts", width_s: int = 3600,
                    keys: list[str] | None = None, aggs=None):
    """Assign each event to its ``width_s``-second tumbling window and
    aggregate per (keys..., window_start).

    ``aggs``: list of ray.data.aggregate.* (default Count('n'))."""
    from ray.data.aggregate import Count

    keys = keys or []
    aggs = aggs or [Count(alias_name="n")]
    width_us = width_s * _US

    def stage(batch: pa.Table) -> pa.Table:
        ts = batch.column(ts_col).cast(pa.int64()).to_numpy()
        start = (ts // width_us) * width_us
        out = batch.drop_columns([ts_col])
        return out.append_column(
            "window_start", pa.array(start, pa.int64()).cast(pa.timestamp("us"))
        )

    def fix_ts(batch: pa.Table) -> pa.Table:
        # Ray's hash aggregate can narrow a timestamp key to [s]
        i = batch.schema.get_field_index("window_start")
        return batch.set_column(
            i, "window_start", batch.column(i).cast(pa.timestamp("us"))
        )

    return (
        ds.map_batches(stage, batch_format="pyarrow")
        .groupby(keys + ["window_start"])
        .aggregate(*aggs)
        .map_batches(fix_ts, batch_format="pyarrow")
    )


def hopping_window(ds, *, ts_col: str = "ts", width_s: int = 7200,
                   hop_s: int = 3600, keys: list[str] | None = None,
                   aggs=None):
    """Each event explodes into the ``width_s / hop_s`` windows covering
    it (vectorized tile+repeat), then a keyed aggregate."""
    from ray.data.aggregate import Count

    if width_s % hop_s:
        raise ValueError("width_s must be a multiple of hop_s")
    k = width_s // hop_s
    keys = keys or []
    aggs = aggs or [Count(alias_name="n")]
    hop_us = hop_s * _US

    def stage(batch: pa.Table) -> pa.Table:
        ts = batch.column(ts_col).cast(pa.int64()).to_numpy()
        base = ts // hop_us
        n = len(ts)
        starts = (
            np.concatenate([base - j for j in range(k)]) * hop_us
        )
        take = pa.array(np.tile(np.arange(n, dtype=np.int64), k))
        out = batch.drop_columns([ts_col]).take(take)
        return out.append_column(
            "window_start", pa.array(starts, pa.int64()).cast(pa.timestamp("us"))
        )

    def fix_ts(batch: pa.Table) -> pa.Table:
        i = batch.schema.get_field_index("window_start")
        return batch.set_column(
            i, "window_start", batch.column(i).cast(pa.timestamp("us"))
        )

    return (
        ds.map_batches(stage, batch_format="pyarrow")
        .groupby(keys + ["window_start"])
        .aggregate(*aggs)
        .map_batches(fix_ts, batch_format="pyarrow")
    )


def sessionize(ds, *, user_col: str = "user_id", ts_col: str = "ts",
               gap_s: int = 1800):
    """Per-user session counts with a ``gap_s`` inactivity break.

    Each user's events are sorted inside their group before diffing
    (the per-key ordering the operator needs is established inside
    map_groups, not assumed of the shuffle)."""
    gap = pd.Timedelta(seconds=gap_s)

    def sessions(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(ts_col)
        breaks = g[ts_col].diff() > gap
        return pd.DataFrame({
            user_col: [g[user_col].iloc[0]],
            "n_events": [len(g)],
            "n_sessions": [int(breaks.sum()) + 1],
        })

    return ds.groupby(user_col).map_groups(sessions, batch_format="pandas")


def cumulative_over(ds, *, key: str, order: list[str],
                    sums: dict[str, str] | None = None,
                    rolling: dict[str, tuple[str, int]] | None = None,
                    count_as: str | None = "cum_n"):
    """Running per-key prefix aggregates -- the SQL window
    ``SUM(x) OVER (PARTITION BY key ORDER BY order ROWS UNBOUNDED
    PRECEDING)`` (and ``COUNT(*) OVER ...`` as ``count_as``).

    ``sums`` maps output column -> INTEGER input column to accumulate;
    integer-only prefixes are exact and order-independent of the
    engine's internal summation (DuckDB's segment-tree window vs
    pandas' sequential cumsum agree bit-for-bit), which keeps the
    operator hash-oracle-able.  ``rolling`` maps output column ->
    (input column, k) for trailing k-row sums (SQL ``ROWS BETWEEN k-1
    PRECEDING AND CURRENT ROW``), same integer-exactness argument.

    Shuffle shape: rows hash-partition by ``key`` (each row moves
    once); each partition does ONE vectorized sort + groupby-cumsum --
    Python-call count is O(partitions).  ``order`` must be a total
    order within each key for deterministic output (pass a unique
    tiebreak column)."""
    from equi7grid_ray.stages.aggregate import cogroup

    sums = dict(sums or {})

    def run(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key] + order, kind="stable")
        grp = g.groupby(key, sort=False)
        out = g.copy()
        if count_as:
            out[count_as] = grp.cumcount().to_numpy() + 1
        for name, col in sums.items():
            out[name] = grp[col].cumsum().to_numpy()
        for name, (col, k) in (rolling or {}).items():
            out[name] = (grp[col]
                         .rolling(k, min_periods=1).sum()
                         .to_numpy().astype(np.int64))
        return out

    return cogroup(ds, [key], run, n_partitions=64)


def funnel_stages(ds, *, stages: list[str], key_col: str = "user_id",
                  ts_col: str = "ts", type_col: str = "event_type"):
    """Ordered funnel analysis: for each key, how far through the
    ``stages`` sequence it progressed, where stage i counts only if an
    event of that type occurs STRICTLY AFTER the timestamp that
    completed stage i-1 (first-touch semantics).

    Scale shape: rows not in ``stages`` are filtered at the map stage;
    one hash cogroup on the key; within a partition each stage is ONE
    vectorized pandas groupby-min over the events later than the
    previous stage's completion time -- len(stages) passes over the
    partition, never per key.

    Returns ``(key_col, stage)`` with stage in [0, len(stages)]
    (0 = never did stage one).
    """
    import pandas as pd

    from equi7grid_ray.stages.aggregate import cogroup

    def prep(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        mask = pc.is_in(batch.column(type_col),
                        value_set=pa.array(stages, pa.string()))
        sub = batch.filter(mask)
        k = sub.column(key_col).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        st = pc.index_in(sub.column(type_col),
                         value_set=pa.array(stages, pa.string())) \
            .to_numpy(zero_copy_only=False).astype(np.int8)
        ts = sub.column(ts_col).to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").view(np.int64)
        return pa.table({
            key_col: pa.array(k, pa.int64()),
            "st": pa.array(st, pa.int8()),
            "tsu": pa.array(ts, pa.int64()),
        })

    def resolve(g: pd.DataFrame) -> pd.DataFrame:
        keys = pd.unique(g[key_col])
        done = pd.Series(np.full(len(keys), -np.inf), index=keys)
        reached = pd.Series(np.zeros(len(keys), np.int64), index=keys)
        for i in range(len(stages)):
            ev = g[g["st"] == i]
            # completion times of the previous stage, aligned to events
            prev = done.reindex(ev[key_col]).to_numpy()
            ok = ev[ev["tsu"].to_numpy() > prev]
            t = ok.groupby(key_col)["tsu"].min()
            nxt = pd.Series(np.full(len(keys), np.inf), index=keys)
            nxt.loc[t.index] = t.to_numpy()
            hit = np.isfinite(nxt.to_numpy())
            reached[hit] = i + 1
            done = nxt.where(hit, np.inf)
            if not hit.any():
                break
        return pd.DataFrame({
            key_col: pd.Series(keys, dtype=np.int64),
            "stage": pd.Series(reached.to_numpy(), dtype=np.int64),
        })

    return cogroup(ds.map_batches(prep, batch_format="pyarrow"), [key_col],
                   resolve, n_partitions=32)


def merge_intervals(ds, *, key_col: str, start_col: str, end_col: str):
    """Gaps-and-islands: per key, merge overlapping/touching intervals
    into maximal islands and report coverage -- the sensor-uptime /
    merged-session primitive.  Interval [s, e] joins the current island
    iff s <= the running max end of the key's earlier intervals
    (touching endpoints merge).

    Scale shape: one hash cogroup on the key; within a partition ONE
    sort + pandas groupby-cummax/shift pass detects island starts for
    EVERY key at once, one groupby aggregates islands -- no per-key
    Python.  Integer bounds keep the SQL-window oracle hash-exact.

    Returns ``(key_col, n_intervals, n_islands, covered)`` where
    ``covered`` is the union length.
    """
    from equi7grid_ray.stages.aggregate import cogroup

    def prep(batch: pa.Table) -> pa.Table:
        k = batch.column(key_col).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        return pa.table({
            key_col: pa.array(k, pa.int64()),
            "s": batch.column(start_col).cast(pa.int64()),
            "e": batch.column(end_col).cast(pa.int64()),
        })

    def resolve(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, "s", "e"], kind="stable")
        grp = g.groupby(key_col, sort=False)
        prev_max_e = grp["e"].cummax().groupby(
            g[key_col], sort=False).shift(1)
        new_island = g["s"].to_numpy() > prev_max_e.fillna(
            np.iinfo(np.int64).min).to_numpy()
        island = np.cumsum(new_island)  # globally unique per island
        tmp = pd.DataFrame({
            key_col: g[key_col].to_numpy(),
            "island": island,
            "s": g["s"].to_numpy(),
            "e": g["e"].to_numpy(),
        })
        isl = tmp.groupby("island", sort=False).agg(
            k=(key_col, "first"), s0=("s", "min"), e1=("e", "max"),
            n=("s", "size"))
        isl["len"] = isl["e1"] - isl["s0"]
        out = isl.groupby("k", as_index=False).agg(
            n_intervals=("n", "sum"),
            n_islands=("n", "size"),
            covered=("len", "sum"),
        ).rename(columns={"k": key_col})
        return out.astype({key_col: np.int64, "n_intervals": np.int64,
                           "n_islands": np.int64, "covered": np.int64})

    return cogroup(ds.map_batches(prep, batch_format="pyarrow"), [key_col],
                   resolve, n_partitions=32)


def scd2_intervals(ds, *, key_col: str = "user_id", ts_col: str = "ts",
                   attr_col: str = "event_type",
                   tiebreak_col: str = "event_id"):
    """Slowly-changing-dimension type 2 build: collapse each key's
    ordered attribute stream into validity intervals.

    For every key, events are ordered by ``(ts, tiebreak)`` and
    consecutive runs of an unchanged ``attr_col`` become one row
    ``(key, version, attr, valid_from, valid_to)`` -- ``valid_from`` is
    the run's first timestamp, ``valid_to`` the next run's first
    timestamp (NULL for the current/open run), ``version`` the 1-based
    run index.  The standard dimension-history builder a warehouse
    derives from a CDC/event stream.

    Scale shape: rows hash-partition by ``key_col`` (each event moves
    exactly once, no global sort); each partition runs ONE vectorized
    sort + shift-compare pass, so Python-call count is O(partitions).
    ``tiebreak_col`` must make the per-key order total, or run
    boundaries on equal timestamps would be nondeterministic."""
    from equi7grid_ray.stages.aggregate import cogroup

    def resolve(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, ts_col, tiebreak_col], kind="stable")
        new_key = g[key_col].ne(g[key_col].shift())
        change = (new_key | g[attr_col].ne(g[attr_col].shift())).to_numpy()
        s = g.loc[change, [key_col, ts_col, attr_col]].reset_index(drop=True)
        same_key_next = s[key_col].eq(s[key_col].shift(-1)).to_numpy()
        valid_to = s[ts_col].shift(-1)
        valid_to[~same_key_next] = pd.NaT
        return pd.DataFrame({
            key_col: s[key_col],
            "version": s.groupby(key_col, sort=False).cumcount() + 1,
            attr_col: s[attr_col],
            "valid_from": s[ts_col],
            "valid_to": valid_to,
        })

    return cogroup(ds, [key_col], resolve, n_partitions=64)


def cusum_alarms(ds, *, ts_col: str = "ts", key: str = "event_type",
                 width_s: int = 3600, h_mult: int = 3):
    """Streaming rate change-point detection: a one-sided CUSUM over
    the per-``key`` event-rate series (counts per ``width_s`` bucket,
    MISSING buckets count 0 -- a rate monitor must see silence), with
    per-key drift k = ceil(mean rate) and alarm threshold h = h_mult*k.
    The sequential recurrence  s_t = max(0, s_{t-1} + x_t - k)  is
    computed CLOSED-FORM as  s_t = P_t - min(0, min_{j<=t} P_j)  with
    P the prefix sum of (x - k), so the per-key series resolves in one
    vectorized cumsum + running-min pass -- no Python loop, and the
    identity is exactly what the SQL mirror's nested window functions
    restate.

    Shape: per-batch (key, bucket) count partials -> one keyed
    aggregate (the only shuffle; bucket counts, not events, move) ->
    per-key dense series (bounded by the stream's time span) resolved
    per partition.  Emits (key, n_buckets, k, n_alarms, max_s,
    first_alarm_bucket [-1 when quiet])."""
    import pandas as pd

    from equi7grid_ray.stages.aggregate import hash_aggregate

    us = width_s * _US

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ts = batch.column(ts_col)
        if pa.types.is_timestamp(ts.type):
            ts = pc.cast(ts, pa.int64())
        b = pc.divide(ts, us)
        t = pa.table({key: batch.column(key), "bucket": b}) \
            .group_by([key, "bucket"]).aggregate([([], "count_all")])
        return pa.table({key: t.column(key), "bucket": t.column("bucket"),
                         "n": t.column("count_all")})

    counts = hash_aggregate(
        ds.map_batches(partial, batch_format="pyarrow"),
        keys=[key, "bucket"], aggs={"n": ("n", "sum")},
        n_partitions=16,
    )

    def resolve(g: pd.DataFrame) -> pd.DataFrame:
        out = []
        for kv, grp in g.groupby(key, sort=False):
            hr = grp["bucket"].to_numpy().astype(np.int64)
            n = grp["n"].to_numpy().astype(np.int64)
            h0, h1 = int(hr.min()), int(hr.max())
            nh = h1 - h0 + 1
            x = np.zeros(nh, np.int64)
            x[hr - h0] = n
            tot = int(n.sum())
            k = -(-tot // nh)  # ceil
            p = np.cumsum(x - k)
            s = p - np.minimum(np.minimum.accumulate(p), 0)
            h = h_mult * k
            alarm = s >= h
            first = int(np.flatnonzero(alarm)[0]) + h0 if alarm.any() else -1
            out.append((kv, nh, k, int(alarm.sum()), int(s.max()), first))
        return pd.DataFrame(out, columns=[
            key, "n_buckets", "k", "n_alarms", "max_s",
            "first_alarm_bucket"])

    # keys are few; resolve each key's (bounded) series in one pass
    return counts.groupby(key).map_groups(resolve, batch_format="pandas")


def seasonal_anomaly(ds, *, ts_col: str = "ts", key: str = "event_type",
                     t: int = 2, min_n: int = 3):
    """Seasonal-baseline residual screen over an event stream -- the
    time-series sibling of stages/temporal.py:tile_anomaly.  Each
    observed (key, day, hour-of-day) cell's event count x is compared
    against its (key, hour) seasonal baseline across days with the
    cross-multiplied exact z-test (no division, no sqrt):

        z^2 > t^2   <=>   (x*n - s)^2 > t^2 * (n*ss - s^2)

    over n = observed days for that (key, hour), s = sum x, ss = sum
    x^2.  Zero-count cells are NOT instances (the day domain is the
    observed one); (key, hour) groups with fewer than ``min_n`` days
    are skipped.  Emits one bounded row per (key, hour):
    (key, h, n_days, n_outl, outl_x_sum)."""
    import pyarrow.compute as pc

    from equi7grid_ray.stages.aggregate import hash_aggregate

    def bucket(batch: pa.Table) -> pa.Table:
        us = batch.column(ts_col).cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        return pa.table({
            key: batch.column(key),
            "d": pa.array(us // 86_400_000_000, pa.int64()),
            "h": pa.array((us // 3_600_000_000) % 24, pa.int64()),
        })

    inst = hash_aggregate(
        ds.map_batches(bucket, batch_format="pyarrow"),
        keys=[key, "d", "h"], aggs={"x": ("h", "count")},
        n_partitions=16)

    t2 = t * t

    def screen(g: pd.DataFrame) -> pd.DataFrame:
        x = g["x"].to_numpy(np.int64)
        n = np.int64(len(x))
        if n < min_n:
            return pd.DataFrame({
                key: pd.Series([], dtype=g[key].dtype),
                "h": pd.Series([], dtype=np.int64),
                "n_days": pd.Series([], dtype=np.int64),
                "n_outl": pd.Series([], dtype=np.int64),
                "outl_x_sum": pd.Series([], dtype=np.int64),
            })
        s = np.int64(x.sum())
        ss = np.int64((x * x).sum())
        dev = x * n - s
        flag = dev * dev > t2 * (n * ss - s * s)
        return pd.DataFrame({
            key: [g[key].iloc[0]],
            "h": np.array([g["h"].iloc[0]], np.int64),
            "n_days": np.array([n], np.int64),
            "n_outl": np.array([int(flag.sum())], np.int64),
            "outl_x_sum": np.array([int(x[flag].sum())], np.int64),
        })

    return inst.groupby([key, "h"]).map_groups(
        screen, batch_format="pandas")


def peak_concurrency(ds, *, key: str, start_col: str, end_col: str,
                     chunk_us: int = 3600 * _US):
    """Sweep-line peak-overlap: for every ``key``, the maximum number
    of simultaneously-open half-open intervals ``[start, end)`` and
    the earliest boundary instant at which that peak is reached.

    A running prefix sum over time-ordered +1/-1 boundary events is
    inherently sequential, so the distributed shape is the textbook
    two-level scan: boundaries are bucketed by ``chunk_us`` time
    chunks, every (key, chunk) group is resolved with ONE vectorized
    lexsort + segmented cumsum into a three-number summary
    ``(total_delta, max_prefix, min_t_at_max)``, and the bounded
    summary series (|keys| x |chunks| rows) folds with an exclusive
    cumsum of chunk totals.  Equality ``peak == offset + max_prefix``
    can only hold at a chunk's own max (anything below it would
    contradict peak's maximality), so the chunk argmin-t is exact.

    Half-open semantics: an interval ending at t does not overlap one
    starting at t -- boundary order is (t, delta) ascending, i.e. -1
    before +1 at the same instant, matching the SQL-window mirror's
    ``ORDER BY t, d ROWS UNBOUNDED PRECEDING`` (within a run of equal
    (t, d) the prefix multiset is order-invariant).  Output:
    ``(key, peak_concurrency, peak_ts_us)``.
    """
    from equi7grid_ray.arrowutil import single_group
    from equi7grid_ray.stages.aggregate import cogroup

    def boundaries(batch: pa.Table) -> pa.Table:
        s = batch.column(start_col).cast(pa.int64()).to_numpy()
        e = batch.column(end_col).cast(pa.int64()).to_numpy()
        k = batch.column(key)
        t = np.concatenate([s, e])
        d = np.concatenate([np.ones(len(s), np.int64),
                            -np.ones(len(e), np.int64)])
        kk = pa.concat_arrays([k.combine_chunks()
                               if isinstance(k, pa.ChunkedArray) else k] * 2)
        return pa.table({key: kk,
                         "chunk": pa.array(t // chunk_us, pa.int64()),
                         "t": pa.array(t, pa.int64()),
                         "d": pa.array(d, pa.int64())})

    def summarize(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, "chunk", "t", "d"], kind="stable")
        cs = g.groupby([key, "chunk"], sort=False)["d"].cumsum() \
            .to_numpy(np.int64)
        g = g.assign(__cs=cs)
        grp = g.groupby([key, "chunk"], sort=False)
        maxp = grp["__cs"].transform("max").to_numpy(np.int64)
        at_max = g.loc[cs == maxp]
        out = at_max.groupby([key, "chunk"], as_index=False).agg(
            min_t_at_max=("t", "min"))
        agg = grp.agg(total=("d", "sum"), max_prefix=("__cs", "max")) \
            .reset_index()
        out = agg.merge(out, on=[key, "chunk"])
        return out.astype({"chunk": np.int64, "total": np.int64,
                           "max_prefix": np.int64, "min_t_at_max": np.int64})

    partials = cogroup(ds.map_batches(boundaries, batch_format="pyarrow"),
                       [key, "chunk"], summarize, n_partitions=32)

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, "chunk"], kind="stable")
        tot = g.groupby(key, sort=False)["total"]
        off = tot.cumsum().to_numpy(np.int64) - g["total"].to_numpy(np.int64)
        reach = off + g["max_prefix"].to_numpy(np.int64)
        g = g.assign(__reach=reach)
        peak = g.groupby(key, sort=False)["__reach"].transform("max") \
            .to_numpy(np.int64)
        hit = g.loc[reach == peak]
        out = hit.groupby(key, as_index=False).agg(
            peak_concurrency=("__reach", "max"),
            peak_ts_us=("min_t_at_max", "min"))
        return out.astype({"peak_concurrency": np.int64,
                           "peak_ts_us": np.int64})

    return single_group(partials, fold,
                        [key, "peak_concurrency", "peak_ts_us"])
