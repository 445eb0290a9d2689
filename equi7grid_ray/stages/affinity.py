"""Market-basket co-occurrence: pairwise item affinity with exact
integer lift.

The k=2 frequent-itemset pass every recommendation / dedup-cluster
pipeline starts with: which items co-occur in the same basket more
than their marginals predict?  lift(a,b) = P(a,b)/(P(a)P(b)) =
support * N / (c_a * c_b) — kept exact as a Q-scaled integer
(``lift_q = (support * n_baskets * q) // (c_a * c_b)``, DuckDB //
rule), so the whole operator is hash-oracle-able.

Ray-Data shape: baskets hash-partition by basket id; each partition
does ONE vectorized sort + within-basket pairing (basket sizes are
bounded — lineitem has <= 7 items — so the pair blowup is the data's
own co-occurrence mass, emitted as (a, b) metadata only); one keyed
aggregate counts pairs, item marginals ride a second bounded
aggregate and broadcast into the final lift map.  No all-pairs stage
anywhere.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from equi7grid_ray.stages.aggregate import cogroup, hash_aggregate

__all__ = ["pair_affinity"]


def pair_affinity(ds, *, basket_col: str, item_col: str,
                  min_support: int = 2, lift_q: int = 10**6):
    """All item pairs (a < b) co-occurring in >= ``min_support``
    distinct baskets, with exact Q-scaled lift.  Duplicate items
    within a basket count once.  Output:

        item_a, item_b, support, lift_q
    """
    import ray

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        d = g[[basket_col, item_col]].drop_duplicates()
        d = d.sort_values([basket_col, item_col], kind="stable")
        b = d[basket_col].to_numpy()
        it = d[item_col].to_numpy().astype(np.int64)
        new = np.empty(len(d), bool)
        if len(d) == 0:
            return pd.DataFrame({"item_a": pd.Series([], dtype=np.int64),
                                 "item_b": pd.Series([], dtype=np.int64),
                                 "support": pd.Series([], dtype=np.int64)})
        new[0] = True
        new[1:] = b[1:] != b[:-1]
        starts = np.flatnonzero(new)
        counts = np.diff(np.append(starts, len(d)))
        # within-basket ordered pairs via repeat/arange segments (no
        # Python per basket): row r of a c-item basket is the 'a' side
        # of (c-1-r) pairs, its partners the following rows
        pos_in = np.arange(len(d)) - np.repeat(starts, counts)
        reps = counts[np.cumsum(new) - 1] - 1 - pos_in
        a_idx = np.repeat(np.arange(len(d)), reps)
        seg = np.concatenate([[0], np.cumsum(reps)[:-1]])
        off = np.arange(int(reps.sum())) - np.repeat(seg, reps)
        b_idx = a_idx + 1 + off
        return pd.DataFrame({"item_a": it[a_idx], "item_b": it[b_idx],
                             "support": np.ones(len(a_idx), np.int64)})

    sup = hash_aggregate(
        cogroup(ds, [basket_col], pairs, n_partitions=64),
        keys=["item_a", "item_b"], aggs={"support": ("support", "sum")},
        n_partitions=16)

    def dedup_items(batch: pa.Table) -> pa.Table:
        d = pa.table({
            basket_col: batch.column(basket_col),
            item_col: batch.column(item_col),
        })
        return d.group_by([basket_col, item_col]).aggregate([])

    marg = hash_aggregate(
        ds.map_batches(dedup_items, batch_format="pyarrow"),
        keys=[basket_col, item_col], aggs={"_c": (item_col, "count")})
    item_counts = hash_aggregate(
        marg, keys=[item_col], aggs={"c": (item_col, "count")})
    baskets = hash_aggregate(
        marg, keys=[basket_col], aggs={"_c": (basket_col, "count")})
    n_baskets = baskets.count()

    from equi7grid_ray.arrowutil import collect_tables

    ct = collect_tables(item_counts,
                        schema=pa.schema([(item_col, pa.int64()),
                                          ("c", pa.int64())]))
    keys = ct.column(item_col).to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    vals = ct.column("c").to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(keys, kind="stable")
    lut_ref = ray.put((keys[order], vals[order], n_baskets))

    def lift(batch: pa.Table) -> pa.Table:
        lk, lv, nb = ray.get(lut_ref)
        s = batch.column("support").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        keep = s >= min_support
        a = batch.column("item_a").to_numpy(zero_copy_only=False) \
            .astype(np.int64)[keep]
        b = batch.column("item_b").to_numpy(zero_copy_only=False) \
            .astype(np.int64)[keep]
        s = s[keep]
        ca = lv[np.searchsorted(lk, a)]
        cb = lv[np.searchsorted(lk, b)]
        lq = (s * nb * lift_q) // (ca * cb)
        return pa.table({
            "item_a": pa.array(a, pa.int64()),
            "item_b": pa.array(b, pa.int64()),
            "support": pa.array(s, pa.int64()),
            "lift_q": pa.array(lq, pa.int64()),
        })

    return sup.map_batches(lift, batch_format="pyarrow")
