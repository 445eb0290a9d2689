"""Exact edit-distance verification for near-duplicate candidates.

Jaccard over n-gram SETS (stages/dedup.py verify) ignores ordering and
multiplicity; Levenshtein is the ground-truth string metric dedup
papers report.  DP is inherently O(|a|·|b|) per pair — the distributed
question is WHERE it runs, not whether: candidate pairs (bounded by
the banded-LSH design) are cogrouped with their texts via two
hash-partitioned joins and each task computes its pairs' distances
with a row-vectorized DP (one numpy O(|b|) sweep per character of
``a`` — the sequential deletion recurrence collapsed into a prefix
minimum), so no per-cell Python and nothing on the driver.

The prefix-min trick: with cand[j] = min(prev[j+1]+1, sub[j]) the
remaining recurrence cur[j] = min(cand[j-1], cur[j-1]+1) telescopes to
cur[j] = min_k (t[k] + (j-k)) over t = [cur[0], cand...]; subtracting
the index, taking a running minimum and adding it back computes all j
in one vector pass (exact — everything stays integer).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

__all__ = ["edit_distance", "edit_verified_pairs"]


def edit_distance(a: np.ndarray, b: np.ndarray) -> int:
    """Exact Levenshtein distance between two uint8 code arrays via
    the row-vectorized DP above: O(|a|) numpy sweeps of length |b|."""
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return max(la, lb)
    if la < lb:  # sweep over the shorter string: fewer numpy calls
        a, b, la, lb = b, a, lb, la
    idx = np.arange(lb + 1, dtype=np.int64)
    prev = idx.copy()
    for i in range(la):
        cand = np.minimum(prev[1:] + 1, prev[:-1] + (b != a[i]))
        t = np.empty(lb + 1, np.int64)
        t[0] = i + 1
        t[1:] = cand
        cur = np.minimum.accumulate(t - idx) + idx
        prev = cur
    return int(prev[-1])


def edit_verified_pairs(ds, *, max_dist: int, num_perm: int = 64,
                        bands: int = 16, shingle: int = 8,
                        id_col: str = "doc_id", text_col: str = "text",
                        max_bucket: int = 200):
    """LSH candidates -> exact Levenshtein -> ordered pairs
    (id_a < id_b, edit_dist) with distance <= ``max_dist``.

    Same fully-distributed cogroup shape as verified_near_dup_pairs
    (two shuffle_hash_joins ship texts onto the bounded candidate set);
    the per-pair DP runs inside the verify tasks."""
    import ray.data as rd

    from equi7grid_ray.arrowutil import binary_view
    from equi7grid_ray.stages.dedup import lsh_candidate_pairs
    from equi7grid_ray.stages.join import (shuffle_hash_join,
                                       shuffle_join_schema)

    _empty = pa.table({"id_a": pa.array([], pa.int64()),
                       "id_b": pa.array([], pa.int64()),
                       "edit_dist": pa.array([], pa.int64())})
    pairs = lsh_candidate_pairs(
        ds, num_perm=num_perm, bands=bands, shingle=shingle,
        id_col=id_col, text_col=text_col, max_bucket=max_bucket,
    ).materialize()  # bounded: O(duplicate mass) 16-byte rows
    if pairs.count() == 0:
        return rd.from_arrow(_empty)

    def _docs_as(key: str, text_out: str):
        def fn(batch: pa.Table) -> pa.Table:
            return pa.table({
                key: batch.column(id_col).cast(pa.int64()),
                text_out: batch.column(text_col),
            })
        return ds.map_batches(fn, batch_format="pyarrow")

    _pair_schema = pa.schema([("id_a", pa.int64()),
                              ("id_b", pa.int64())])
    _da = pa.schema([("id_a", pa.int64()), ("text_a", pa.string())])
    _db = pa.schema([("id_b", pa.int64()), ("text_b", pa.string())])
    # static schema hints: without them, join 2's plan build executes
    # join 1 once just to learn its column names (see shuffle_hash_join)
    _wa = shuffle_join_schema(_pair_schema, _da, on="id_a")
    with_a = shuffle_hash_join(pairs, _docs_as("id_a", "text_a"),
                               on="id_a", n_partitions=32,
                               left_schema=_pair_schema, right_schema=_da)
    with_ab = shuffle_hash_join(with_a, _docs_as("id_b", "text_b"),
                                on="id_b", n_partitions=32,
                                left_schema=_wa, right_schema=_db)

    def verify(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if n == 0:
            return _empty
        da, oa = binary_view(batch.column("text_a").cast(pa.binary()))
        db, ob = binary_view(batch.column("text_b").cast(pa.binary()))
        fa = np.frombuffer(da, dtype=np.uint8)
        fb = np.frombuffer(db, dtype=np.uint8)
        dist = np.empty(n, np.int64)
        for j in range(n):
            dist[j] = edit_distance(fa[oa[j]:oa[j + 1]],
                                    fb[ob[j]:ob[j + 1]])
        keep = pa.array(dist <= max_dist)
        return pa.table({
            "id_a": batch.column("id_a").cast(pa.int64()).filter(keep),
            "id_b": batch.column("id_b").cast(pa.int64()).filter(keep),
            "edit_dist": pa.array(dist[dist <= max_dist], pa.int64()),
        })

    return with_ab.map_batches(verify, batch_format="pyarrow")
