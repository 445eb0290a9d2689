"""Trajectory analytics over a keyed, timestamped point stream.

The reference grid exists to index exactly this kind of data — GPS /
acquisition tracks projected into Equi7 planes (reference
geometry.py's lonlat→xy is the per-point step; these operators are
the per-track step that follows it at archive scale).  Two classic
movement-data products, both exact-integer so they stay
hash-oracle-able:

* **stay segments** (Li et al., "Mining user similarity based on
  location history", GIS 2008 — simplified to the lag-expressible
  gaps-and-islands form): maximal runs of consecutive per-key points
  whose squared step distance stays ≤ r², kept when the run's dwell
  time reaches ``min_dur_us``.  The squared-distance threshold avoids
  any sqrt — the predicate is integer-exact.
* **origin–destination matrix**: per (key, day) first/last point →
  coarse cell, flows counted by (o_cell, d_cell).

Ray-Data shape for both: rows hash-partition ONCE by key (each point
moves exactly once; no global sort), then one vectorized
sort+diff/groupby pass per partition (``aggregate.cogroup``).  The OD
flow count is a second metadata-only ``hash_aggregate`` over
O(distinct cell pairs) rows.  At 100 TB the exchange is bounded by the
point count (16 B/row of key+coords), and per-partition state is one
partition's rows — the streaming executor spills blocks, never the
driver.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from equi7grid_ray.stages.aggregate import cogroup, hash_aggregate

__all__ = ["stay_segments", "od_matrix", "covisit_pairs",
           "trajectory_raster"]


def stay_segments(ds, *, key_col: str = "user_id", ts_col: str = "ts_us",
                  order_col: str = "event_id", x_col: str = "x",
                  y_col: str = "y", r2: int = 2500,
                  min_dur_us: int = 0):
    """Per-key stay-segment detection (gaps-and-islands over the
    squared step distance).

    A new segment starts at the first point of each key and wherever
    ``(x-lag(x))² + (y-lag(y))² > r2``.  Emits one row per segment
    with ``dur_us = last_ts - first_ts >= min_dur_us``:

        key, seg_start (ts), seg_end (ts), n_pts, sum_x, sum_y, dur_us

    ``sum_x/sum_y`` are the exact integer centroid numerators (the
    caller divides; keeping the rational exact keeps the oracle
    exact).  ``(ts_col, order_col)`` must totally order each key's
    points."""

    def run(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, ts_col, order_col], kind="stable")
        k = g[key_col].to_numpy()
        x = g[x_col].to_numpy().astype(np.int64)
        y = g[y_col].to_numpy().astype(np.int64)
        ts = g[ts_col].to_numpy().astype(np.int64)
        new_key = np.empty(len(g), dtype=bool)
        new_key[0] = True
        new_key[1:] = k[1:] != k[:-1]
        dx = np.diff(x, prepend=x[:1])
        dy = np.diff(y, prepend=y[:1])
        brk = new_key | (dx * dx + dy * dy > r2)
        seg = np.cumsum(brk) - 1
        n_seg = seg[-1] + 1
        first = np.flatnonzero(brk)
        last = np.empty(n_seg, np.int64)
        last[:-1] = first[1:] - 1
        last[-1] = len(g) - 1
        n_pts = last - first + 1
        sum_x = np.add.reduceat(x, first)
        sum_y = np.add.reduceat(y, first)
        dur = ts[last] - ts[first]
        out = pd.DataFrame({
            key_col: k[first],
            "seg_start": ts[first],
            "seg_end": ts[last],
            "n_pts": n_pts,
            "sum_x": sum_x,
            "sum_y": sum_y,
            "dur_us": dur,
        })
        return out[out["dur_us"] >= min_dur_us].reset_index(drop=True)

    return cogroup(ds, [key_col], run, n_partitions=64)


def od_matrix(ds, *, key_col: str = "user_id", ts_col: str = "ts_us",
              order_col: str = "event_id", x_col: str = "x",
              y_col: str = "y", cell_shift: int = 5,
              day_us: int = 86_400_000_000):
    """Origin–destination flow matrix: per (key, day) trip from the
    day's first point's cell to its last point's cell, flows counted
    per (o_cell_x, o_cell_y, d_cell_x, d_cell_y).

    Cells are ``coord >> cell_shift`` (arithmetic shift — Python's
    floor semantics, mirrored in SQL as floor division so negative
    coordinates agree).  Days are ``ts_us // day_us`` (epoch days for
    non-negative timestamps).  Same-cell round trips are kept (they
    ARE the diagonal of the matrix).  Output:

        o_cx, o_cy, d_cx, d_cy, n_trips
    """

    def trips(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, ts_col, order_col], kind="stable")
        k = g[key_col].to_numpy()
        ts = g[ts_col].to_numpy().astype(np.int64)
        day = ts // day_us
        x = g[x_col].to_numpy().astype(np.int64) >> cell_shift
        y = g[y_col].to_numpy().astype(np.int64) >> cell_shift
        new = np.empty(len(g), dtype=bool)
        new[0] = True
        new[1:] = (k[1:] != k[:-1]) | (day[1:] != day[:-1])
        first = np.flatnonzero(new)
        last = np.empty(len(first), np.int64)
        last[:-1] = first[1:] - 1
        last[-1] = len(g) - 1
        return pd.DataFrame({
            "o_cx": x[first], "o_cy": y[first],
            "d_cx": x[last], "d_cy": y[last],
        })

    per_day = cogroup(ds, [key_col], trips, n_partitions=64)
    return hash_aggregate(
        per_day, keys=["o_cx", "o_cy", "d_cx", "d_cy"],
        aggs={"n_trips": ("o_cx", "count")},
        n_partitions=16,
    )


def covisit_pairs(ds, *, key_col: str = "user_id", ts_col: str = "ts_us",
                  x_col: str = "x", y_col: str = "y",
                  cell_shift: int = 13, hour_us: int = 3_600_000_000,
                  max_group: int = 64, min_co: int = 2):
    """Spatiotemporal CO-VISIT join: pairs of keys present in the same
    coarse cell during the same hour, counted across co-hours -- the
    contact-graph / companion-detection primitive of movement
    analytics.

    Semantics (exact, SQL-mirrorable):

      presence  = DISTINCT (key, x >> s, y >> s, ts // hour)
      per (cell, hour) group all keys pair up (k1 < k2) -- groups
      larger than ``max_group`` keys are DROPPED (the deterministic
      skew guard: a transit-hub cell would otherwise emit O(k^2)
      pairs; the cap is part of the operator contract, mirrored in
      SQL via a window count)
      pairs kept when they co-occur in >= ``min_co`` (cell, hour)s

    Shape: one distinct-presence aggregate (metadata only), one
    cogroup per (cell, hour) emitting triu pairs (bounded by
    max_group^2 per group), one pair-count aggregate.  Coordinates
    must be non-negative (>> s == floor division)."""
    import pyarrow.compute as pc

    from equi7grid_ray.stages.aggregate import hash_aggregate

    def presence(batch: pa.Table) -> pa.Table:
        x = batch.column(x_col).to_numpy(zero_copy_only=False)
        y = batch.column(y_col).to_numpy(zero_copy_only=False)
        ts = batch.column(ts_col).to_numpy(zero_copy_only=False)
        return pa.table({
            "k": batch.column(key_col),
            "cx": pa.array(x >> cell_shift, pa.int64()),
            "cy": pa.array(y >> cell_shift, pa.int64()),
            "h": pa.array(ts // hour_us, pa.int64()),
        })

    pres = hash_aggregate(
        ds.map_batches(presence, batch_format="pyarrow"),
        keys=["k", "cx", "cy", "h"], aggs={"n": ("k", "count")},
        n_partitions=32)

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        k = np.sort(g["k"].to_numpy(np.int64))
        if len(k) < 2 or len(k) > max_group:
            return pd.DataFrame({"k1": pd.Series([], dtype=np.int64),
                                 "k2": pd.Series([], dtype=np.int64)})
        i1, i2 = np.triu_indices(len(k), 1)
        return pd.DataFrame({"k1": k[i1], "k2": k[i2]})

    pair_stream = pres.groupby(["cx", "cy", "h"]).map_groups(
        pairs, batch_format="pandas")
    counted = hash_aggregate(
        pair_stream, keys=["k1", "k2"],
        aggs={"n_cohours": ("k1", "count")}, n_partitions=32)
    return counted.map_batches(
        lambda b: b.filter(pc.greater_equal(b.column("n_cohours"),
                                            min_co)),
        batch_format="pyarrow")


def trajectory_raster(ds, *, key_col: str = "user_id",
                      ts_col: str = "ts_us", order_col: str = "event_id",
                      x_col: str = "x", y_col: str = "y",
                      cell_shift: int = 5,
                      day_us: int = 86_400_000_000):
    """Corridor-density raster: every (key, day) trip's origin->
    destination segment is rasterized onto the cell lattice with a
    trunc-division DDA and the sampled cells are counted -- the
    movement-data heat map that answers "which cells do trips CROSS"
    (od_matrix only sees endpoints).

    Line-sampling rule (shared verbatim with the SQL mirror):
    ``n = max(|dcx|, |dcy|)``; for t = 0..n the sample is
    ``o + truncdiv(t * d, n)`` (trunc-toward-zero, DuckDB's ``//``),
    with the degenerate n = 0 trip emitting its single cell.  Because
    the major axis advances by exactly 1 per step, the n+1 samples are
    distinct -- no dedupe pass is needed.

    Shape: one keyed partition pass builds the bounded trip list
    (first/last point per (key, day), od_matrix's partials), the flat
    repeat/arange expansion is pure numpy, and only (cell, 1) partials
    shuffle into the final keyed count."""

    def trip_cells(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, ts_col, order_col], kind="stable")
        k = g[key_col].to_numpy()
        ts = g[ts_col].to_numpy().astype(np.int64)
        day = ts // day_us
        x = g[x_col].to_numpy().astype(np.int64) >> cell_shift
        y = g[y_col].to_numpy().astype(np.int64) >> cell_shift
        new = np.empty(len(g), dtype=bool)
        new[0] = True
        new[1:] = (k[1:] != k[:-1]) | (day[1:] != day[:-1])
        first = np.flatnonzero(new)
        last = np.empty(len(first), np.int64)
        last[:-1] = first[1:] - 1
        last[-1] = len(g) - 1
        ox, oy = x[first], y[first]
        dx, dy = x[last] - ox, y[last] - oy
        n = np.maximum(np.abs(dx), np.abs(dy))
        m = n + 1
        starts = np.zeros(len(m) + 1, np.int64)
        np.cumsum(m, out=starts[1:])
        t = np.arange(starts[-1], dtype=np.int64) \
            - np.repeat(starts[:-1], m)
        nr = np.maximum(np.repeat(n, m), 1)

        def tdiv(num):
            return np.sign(num) * (np.abs(num) // nr)

        cx = np.repeat(ox, m) + tdiv(t * np.repeat(dx, m))
        cy = np.repeat(oy, m) + tdiv(t * np.repeat(dy, m))
        return pd.DataFrame({"cx": cx, "cy": cy})

    cells = cogroup(ds, [key_col], trip_cells, n_partitions=64)
    return hash_aggregate(
        cells, keys=["cx", "cy"], aggs={"n_visits": ("cx", "count")},
        n_partitions=16,
    )


def od_bearing_rose(ds, *, key_col: str = "user_id", ts_col: str = "ts_us",
                    order_col: str = "event_id", x_col: str = "x",
                    y_col: str = "y", cell_shift: int = 5,
                    day_us: int = 86_400_000_000):
    """Trip bearing rose: each (key, day) origin->destination vector
    classified into 8 compass sectors with EXACT integer tests (the
    tile_aspect rule -- 45-degree boundaries land on |dx| == |dy|):

        0 flat (same cell) ; |dx| > |dy|: E 1 / W 5
        |dy| > |dx|: N 3 / S 7
        |dx| = |dy| > 0: NE 2, NW 4, SW 6, SE 8

    (x east-positive, y north-positive).  The movement-direction
    census (commute anisotropy) downstream of the same trip builder as
    od_matrix; bounded 9-row output per fold, one keyed pass."""

    def sectors(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, ts_col, order_col], kind="stable")
        k = g[key_col].to_numpy()
        ts = g[ts_col].to_numpy().astype(np.int64)
        day = ts // day_us
        x = g[x_col].to_numpy().astype(np.int64) >> cell_shift
        y = g[y_col].to_numpy().astype(np.int64) >> cell_shift
        new = np.empty(len(g), dtype=bool)
        new[0] = True
        new[1:] = (k[1:] != k[:-1]) | (day[1:] != day[:-1])
        first = np.flatnonzero(new)
        last = np.empty(len(first), np.int64)
        last[:-1] = first[1:] - 1
        last[-1] = len(g) - 1
        u = x[last] - x[first]
        v = y[last] - y[first]
        au, av = np.abs(u), np.abs(v)
        code = np.zeros(len(u), np.int64)
        card = au > av
        code = np.where(card & (u > 0), 1, code)
        code = np.where(card & (u < 0), 5, code)
        vert = av > au
        code = np.where(vert & (v > 0), 3, code)
        code = np.where(vert & (v < 0), 7, code)
        diag = (au == av) & (au > 0)
        code = np.where(diag & (u > 0) & (v > 0), 2, code)
        code = np.where(diag & (u < 0) & (v > 0), 4, code)
        code = np.where(diag & (u < 0) & (v < 0), 6, code)
        code = np.where(diag & (u > 0) & (v < 0), 8, code)
        sec, cnt = np.unique(code, return_counts=True)
        return pd.DataFrame({"sector": sec.astype(np.int64),
                             "n_trips": cnt.astype(np.int64)})

    partials = cogroup(ds, [key_col], sectors, n_partitions=64)
    return hash_aggregate(partials, keys=["sector"],
                          aggs={"n_trips": ("n_trips", "sum")},
                          n_partitions=4)
