"""Distributed global ranking: SQL ``row_number() / ntile() OVER
(ORDER BY value, id)`` without a global sort.

Ranking every row of a corpus (quality percentiles, curriculum
ordering, ntile bucketing for stratified eval splits) naively needs a
total order -- an all-to-all sort.  The engine shape instead:

1. a combiner-first pass collects per-VALUE counts (bounded by the
   value domain, e.g. document lengths -- far smaller than the corpus)
   and the driver builds the prefix-sum LUT ``cum_before(v) = #rows
   with value < v``;
2. one hash-partition cogroup on the value assigns the within-value
   order: each partition lexsorts its (value, id) pairs once and
   derives run-relative positions vectorized (ids are unique, so the
   within-value order by id is total);
3. rank = cum_before[value] + within_pos + 1; the ntile bucket is
   closed-form from the rank (first n%k buckets get ceil(n/k) rows --
   exactly SQL NTILE).

The shuffle moves (value, id) pairs only; no payload sorts, no global
barrier beyond the tiny LUT.  Assumption to document per use: the
distinct-value domain fits the driver (lengths, scores, cents -- yes;
free-floating float64 -- bucket first).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

__all__ = ["global_rank", "pareto_front_2d"]

def global_rank(ds, *, value_col: str, id_col: str, n_tiles: int = 0):
    """Rank rows by ``(value_col, id_col)`` ascending.

    Returns ``(id_col, value_col, rnk)`` with 1-based dense row numbers
    (unique ids make the order total), plus ``bucket`` (1-based SQL
    NTILE) when ``n_tiles`` > 0.
    """
    import ray
    from ray.data.aggregate import Sum

    from equi7grid_ray.arrowutil import collect_tables

    def vcounts(batch: pa.Table) -> pa.Table:
        v = batch.column(value_col).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        vals, cnt = np.unique(v, return_counts=True)
        return pa.table({"v": pa.array(vals, pa.int64()),
                         "c": pa.array(cnt, pa.int64())})

    from equi7grid_ray.stages.aggregate import cogroup, hash_aggregate

    hist = collect_tables(
        hash_aggregate(ds.map_batches(vcounts, batch_format="pyarrow"),
                       keys=["v"], aggs={"c": ("c", "sum")}),
        schema=pa.schema([("v", pa.int64()), ("c", pa.int64())]),
    )
    vals = hist.column("v").to_numpy().astype(np.int64)
    cnts = hist.column("c").to_numpy().astype(np.int64)
    order = np.argsort(vals, kind="stable")
    vals, cnts = vals[order], cnts[order]
    cum_before = np.concatenate([[0], np.cumsum(cnts)[:-1]])
    n_total = int(cnts.sum())
    lut = ray.put((vals, cum_before))

    K = int(n_tiles)
    if K > 0:
        base = n_total // K
        rem = n_total % K
        # bucket boundary after which groups shrink from ceil to floor
        pivot = rem * (base + 1)

    def prep(batch: pa.Table) -> pa.Table:
        v = batch.column(value_col).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        return pa.table({
            id_col: batch.column(id_col),
            value_col: pa.array(v, pa.int64()),
        })

    def resolve(g: pd.DataFrame) -> pd.DataFrame:
        svals, scum = ray.get(lut)
        v = g[value_col].to_numpy(np.int64)
        ids = g[id_col].to_numpy(np.int64)
        order = np.lexsort((ids, v))
        sv, sid = v[order], ids[order]
        # within-value positions: index minus the run start
        new_run = np.empty(len(sv), dtype=bool)
        if len(sv):
            new_run[0] = True
            new_run[1:] = sv[1:] != sv[:-1]
        run_start = np.maximum.accumulate(
            np.where(new_run, np.arange(len(sv)), 0))
        within = np.arange(len(sv)) - run_start
        pos = np.searchsorted(svals, sv)
        rnk = scum[pos] + within + 1
        out = {id_col: sid, value_col: sv, "rnk": rnk}
        if K > 0:
            r0 = rnk - 1
            out["bucket"] = np.where(
                r0 < pivot,
                r0 // (base + 1),
                rem + (r0 - pivot) // max(base, 1),
            ) + 1
        return pd.DataFrame({k: pd.Series(x, dtype=np.int64)
                             for k, x in out.items()})

    return cogroup(ds.map_batches(prep, batch_format="pyarrow"), [value_col],
                   resolve, n_partitions=32)


def _front_2d(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Boolean mask of the 2-D skyline (minimize q, maximize p):
    row kept iff no other row has q' <= q and p' >= p with one strict.
    Vectorized: sort (q asc, p desc), per-q-group max, cummax of the
    previous groups."""
    n = len(q)
    if n == 0:
        return np.zeros(0, dtype=bool)
    order = np.lexsort((-p, q))
    sq, sp = q[order], p[order]
    new_q = np.empty(n, dtype=bool)
    new_q[0] = True
    new_q[1:] = sq[1:] != sq[:-1]
    gidx = np.cumsum(new_q) - 1
    gmax = sp[new_q]                       # p desc within q: first = max
    mprev = np.concatenate([[-np.inf], np.maximum.accumulate(gmax)[:-1]])
    keep_sorted = (sp == gmax[gidx]) & (sp > mprev[gidx])
    keep = np.zeros(n, dtype=bool)
    keep[order] = keep_sorted
    return keep


def pareto_front_2d(ds, *, min_col: str, max_col: str):
    """Distributed 2-D skyline: rows not dominated by any other row
    (dominator: ``min_col`` <= AND ``max_col`` >= with one strict).
    Duplicate (q, p) points all survive (neither dominates the other).

    Scale shape: the front operator is ASSOCIATIVE -- front(front(A)
    UNION front(B)) = front(A UNION B) -- so each batch reduces to its
    local front (tiny) and one final pass merges the partials; no
    all-pairs dominance test, no shuffle of non-front rows.
    """
    from equi7grid_ray.arrowutil import single_group

    def local(batch: pa.Table) -> pa.Table:
        q = batch.column(min_col).to_numpy(zero_copy_only=False)
        p = batch.column(max_col).to_numpy(zero_copy_only=False)
        keep = _front_2d(np.asarray(q, np.float64),
                         np.asarray(p, np.float64))
        return batch.select([min_col, max_col]).filter(pa.array(keep))

    def final(t: pa.Table) -> pa.Table:
        q = t.column(min_col).to_numpy(zero_copy_only=False)
        p = t.column(max_col).to_numpy(zero_copy_only=False)
        keep = _front_2d(np.asarray(q, np.float64),
                         np.asarray(p, np.float64))
        return t.filter(pa.array(keep))

    partials = ds.map_batches(local, batch_format="pyarrow")
    return single_group(partials, final, [min_col, max_col],
                        batch_format="pyarrow")
