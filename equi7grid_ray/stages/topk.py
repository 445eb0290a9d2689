"""Grouped top-k: the "best k rows per key" operator (leaderboards,
per-language hardest examples, per-tile brightest scenes) that the
Dataset API has no primitive for.

Scale shape -- two phases, both vectorized:

1. **Batch combiner** (map stage, no shuffle): every batch is pruned to
   at most k rows per key it contains, so the shuffle that follows
   moves O(k * keys_per_batch) rows, not the corpus.
2. **Partition cogroup**: surviving rows are hash-partitioned by key
   (``aggregate.cogroup``) and each partition resolved with ONE
   pandas sort + ``groupby(key).head(k)`` -- O(P) Python calls, not
   O(distinct keys).

Determinism: rows are ordered by ``value`` (desc by default) then by
``tie_cols`` ascending -- supply tie columns that make the ordering
total or equal-valued boundary rows are arbitrary.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

from equi7grid_ray.stages.aggregate import cogroup

__all__ = ["grouped_topk"]


def grouped_topk(ds, *, key: str, value: str, k: int,
                 ascending: bool = False, tie_cols: list[str] | None = None,
                 n_partitions: int = 64):
    """Top ``k`` rows per distinct ``key``, ranked by ``value``."""
    ties = tie_cols or []
    by = [value] + ties
    asc = [ascending] + [True] * len(ties)

    def prune(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        out = df.sort_values(by, ascending=asc, kind="stable") \
                .groupby(key, sort=False).head(k)
        return pa.Table.from_pandas(out, preserve_index=False)

    def resolve(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values(by, ascending=asc, kind="stable") \
                .groupby(key, sort=False).head(k)

    return cogroup(ds.map_batches(prune, batch_format="pyarrow"), [key],
                   resolve, n_partitions=n_partitions)
