"""Exact distributed quantiles over a discrete-valued column.

The classic sort-based quantile is an all-to-all over every row; for
columns with bounded distinct values (lengths, counts, scores, bucketed
floats) the exact answer only needs the VALUE HISTOGRAM:

1. map_batches: per-batch (keys, value) partial counts (one pandas
   C-level groupby per batch) -- output rows <= distinct pairs in the
   batch, so the shuffle after it moves counts, not rows.
2. groupby(keys + value).sum -- merges partials; table size is
   O(distinct pairs) regardless of input rows.
3. groupby(keys).map_groups: sort the per-key histogram, cumulative
   sum, pick each requested quantile by rank.

Rank rule matches DuckDB's ``quantile_disc``: the element at 1-based
rank ``ceil(q * n)`` of the sorted values (clamped to >= 1), so the
driver oracle can mirror the operator exactly.

Scale note: nothing here materializes input rows; the only all-to-all
carries (key, value, count) partials.  For genuinely continuous
columns, bucket first (the caller picks the resolution) -- the result
is then the exact quantile of the bucketed values.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa

__all__ = ["grouped_quantiles"]


def grouped_quantiles(ds, *, col: str, qs: tuple[float, ...],
                      keys: list[str] | None = None):
    """Exact per-``keys`` quantiles of integer column ``col``.

    Returns a Dataset with columns ``keys + [q, v]``: one row per
    (key, quantile), ``q`` float64, ``v`` int64.

    Float-determinism: ``ceil(q * n)`` is computed in IEEE doubles on
    both sides of the oracle; pass binary-exact ``qs`` (0.25, 0.5,
    0.875, ...) when hash-exact parity with SQL matters.

    Null handling: rows with a null key or null value are DROPPED
    (pandas groupby semantics) -- unlike SQL GROUP BY, which keeps a
    NULL group.  Filter or fill nulls upstream when that matters."""
    keys = list(keys or [])
    qs = tuple(float(q) for q in qs)
    if not qs:
        raise ValueError("grouped_quantiles: need at least one q")
    if any(q < 0.0 or q > 1.0 for q in qs):
        raise ValueError("grouped_quantiles: qs must be in [0, 1]")

    from ray.data.aggregate import Sum

    def partial_counts(df: pd.DataFrame) -> pd.DataFrame:
        g = (
            df.groupby(keys + [col], sort=False, observed=True)
            .size()
            .reset_index(name="cnt_")
        )
        g["cnt_"] = g["cnt_"].astype(np.int64)
        return g

    from equi7grid_ray.stages.aggregate import hash_aggregate

    hist = hash_aggregate(
        ds.map_batches(partial_counts, batch_format="pandas"),
        keys=keys + [col], aggs={"cnt_": ("cnt_", "sum")})

    def pick(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(col, kind="stable")
        v = g[col].to_numpy()
        c = g["cnt_"].to_numpy(dtype=np.int64)
        cum = np.cumsum(c)
        n = int(cum[-1])
        out_v = []
        for q in qs:
            rank = max(1, math.ceil(q * n))  # 1-based, quantile_disc rule
            out_v.append(v[np.searchsorted(cum, rank)])
        out = {k: np.repeat(g[k].iloc[0], len(qs)) for k in keys}
        out["q"] = np.asarray(qs, np.float64)
        out["v"] = np.asarray(out_v, np.int64)
        return pd.DataFrame(out)

    if keys:
        return hist.groupby(keys).map_groups(pick, batch_format="pandas")
    # ungrouped: single global histogram group
    from equi7grid_ray.arrowutil import single_group

    return single_group(hist, pick, ["q", "v"])


def weighted_median(ds, *, key: str, val: str, weight: str):
    """Exact weighted lower median per key: the smallest value v with
    ``2 * cumweight(v) >= total_weight`` (integer weights, no
    interpolation -- the rule a SQL window cumsum states verbatim).

    Scale shape: a (key, value)-keyed SUM combiner collapses the fact
    table first (the shuffle moves one row per distinct (key, value)),
    then each key resolves with one lexsort + cumsum inside its hash
    partition.  Output: ``key, wmedian, total_w``."""
    import pandas as pd

    from equi7grid_ray.stages.aggregate import cogroup, hash_aggregate

    cell = hash_aggregate(ds, keys=[key, val],
                          aggs={"w": (weight, "sum")},
                          n_partitions=32)

    def resolve(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, val], kind="stable")
        cw = g.groupby(key, sort=False)["w"].cumsum().to_numpy(np.int64)
        tw = g.groupby(key, sort=False)["w"].transform("sum") \
            .to_numpy(np.int64)
        ok = g.loc[2 * cw >= tw]
        out = ok.groupby(key, as_index=False).agg(
            wmedian=(val, "min"), total_w=("w", "min"))
        tot = g.groupby(key, as_index=False)["w"].sum() \
            .rename(columns={"w": "total_w"})
        out = out.drop(columns="total_w").merge(tot, on=key)
        return out.astype({"wmedian": np.int64, "total_w": np.int64})

    return cogroup(cell, [key], resolve, n_partitions=32)
