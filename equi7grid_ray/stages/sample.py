"""Deterministic sampling stages.

Training-data pipelines need samples that are REPRODUCIBLE (same rows
on every run, on any cluster size, regardless of block layout) and
cheap (no shuffle, no global pass).  Both operators here decide
membership from a splitmix64 hash of the row id -- a pure map stage, so
the sample of a 100 TB corpus costs one streaming scan, and the same
row set is selected whether the scan runs on 1 block or 10,000.

- ``hash_sample``: uniform rate.
- ``stratified_sample``: per-stratum rates keyed by a column (the
  standard "rebalance languages/sources" step), vectorized via
  dictionary-code lookup, no per-row Python.

Ray's own ``Dataset.random_sample`` is nondeterministic across runs and
block layouts; these are the reproducible alternative (and are
SQL-mirrorable for the oracle gate: splitmix64 in HUGEINT arithmetic).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

__all__ = ["hash_sample", "stratified_sample", "assign_splits", "balanced_sample", "weighted_sample",
           "mixture_allocation", "isqrt_i64", "SAMPLE_SALT"]

SAMPLE_SALT = np.uint64(0xA076_1D64_78BD_642F)  # distinct from dedup/fp seeds
_DENOM = np.uint64(1) << np.uint64(32)


def _keep_mask(ids: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """keep[i] = mix64(id ^ salt) % 2^32 < thresholds[i] (u32 scale)."""
    from equi7grid_ray.stages.dedup import _mix64

    h = _mix64(ids.astype(np.int64).view(np.uint64) ^ SAMPLE_SALT)
    return (h.view(np.uint64) % _DENOM) < thresholds.astype(np.uint64)


def rate_to_threshold(rate: float) -> int:
    """u32-scale threshold for a [0, 1] rate (floor, like the SQL)."""
    return int(min(max(rate, 0.0), 1.0) * float(_DENOM))


def hash_sample(ds, rate: float, id_col: str = "doc_id"):
    """Uniform deterministic sample: keep ~``rate`` of rows, chosen by
    id hash (stable across runs and block layouts)."""
    thr = rate_to_threshold(rate)

    def fn(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        keep = _keep_mask(ids, np.full(len(ids), thr, np.uint64))
        return batch.filter(pa.array(keep))

    return ds.map_batches(fn, batch_format="pyarrow")


def stratified_sample(ds, key_col: str, rates: dict[str, float],
                      default_rate: float = 0.0, id_col: str = "doc_id"):
    """Per-stratum deterministic sample: row kept at ``rates[key]``
    (``default_rate`` for unlisted keys).  Membership depends only on
    the row id, so overlapping strata configurations yield nested
    samples (rate 0.1 is a subset of rate 0.5 -- handy for scaling-law
    data ladders)."""
    thr_map = {k: rate_to_threshold(v) for k, v in rates.items()}
    default_thr = rate_to_threshold(default_rate)

    def fn(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        keys = batch.column(key_col).dictionary_encode()
        if isinstance(keys, pa.ChunkedArray):
            keys = keys.combine_chunks()
        dict_vals = keys.dictionary.to_pylist()
        # +1 slot: null keys (index -1 after fill_null) take default_thr
        lut = np.array([thr_map.get(v, default_thr) for v in dict_vals]
                       + [default_thr], dtype=np.uint64)
        codes = (keys.indices.fill_null(-1)
                 .to_numpy(zero_copy_only=False).astype(np.int64))
        thr = lut[codes]
        keep = _keep_mask(ids, thr)
        return batch.filter(pa.array(keep))

    return ds.map_batches(fn, batch_format="pyarrow")


def assign_splits(ds, splits: dict[str, float], id_col: str = "doc_id",
                  label_col: str = "split"):
    """Deterministic train/val/test assignment: every row gets exactly
    one label from ``splits`` (name -> fraction, summing to <= 1; any
    remainder falls into the LAST label) decided by the same id-hash
    ladder as hash_sample -- stable across runs, cluster sizes and
    block layouts, and NESTED with hash_sample's rates (a 10% sample
    preserves split proportions).  Pure map stage, no shuffle."""
    from equi7grid_ray.stages.dedup import _mix64

    names = list(splits)
    if not names:
        raise ValueError("assign_splits: need at least one split")
    cum, edges = 0.0, []
    for n in names[:-1]:
        cum += splits[n]
        edges.append(rate_to_threshold(cum))
    bounds = np.array(edges, np.uint64)  # searchsorted ladder

    def fn(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        h = _mix64(ids.astype(np.int64).view(np.uint64) ^ SAMPLE_SALT)
        u = (h.view(np.uint64) % _DENOM)
        lab = np.searchsorted(bounds, u, side="right")
        arr = pa.DictionaryArray.from_arrays(
            pa.array(lab.astype(np.int32), pa.int32()),
            pa.array(names, pa.string()),
        ).cast(pa.string())
        return batch.append_column(label_col, arr)

    return ds.map_batches(fn, batch_format="pyarrow")


def balanced_sample(ds, key_col: str, id_col: str = "doc_id"):
    """Class-balanced deterministic downsampling: every class is
    sampled at rate ``min_count / count(class)`` so all classes land at
    (approximately) the rarest class's size -- the standard rebalance
    step before training on skewed source/language mixes.

    Two passes: a tiny groupby-count (per-class counts, bounded by the
    class-domain size, collected once), then the same zero-shuffle
    id-hash membership filter as :func:`stratified_sample`.  Thresholds
    are ALL-INTEGER -- ``thr = (min_n << 32) // n_class`` -- so the SQL
    oracle mirrors the selection exactly; membership depends only on
    the row id, so the balanced sample NESTS inside hash_sample ladders
    and is stable across runs, cluster sizes and block layouts.
    """
    from ray.data.aggregate import Count

    from equi7grid_ray.arrowutil import collect_tables

    from equi7grid_ray.stages.aggregate import hash_aggregate

    counts = collect_tables(
        hash_aggregate(ds.select_columns([key_col]), keys=[key_col],
                       aggs={"n": (key_col, "count")}))
    if counts.num_rows == 0:
        return ds
    keys = counts.column(key_col).to_pylist()
    ns = counts.column("n").to_numpy(zero_copy_only=False).astype(np.int64)
    min_n = int(ns.min())
    thr_map = {k: (min_n << 32) // int(n) for k, n in zip(keys, ns)}

    def fn(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        col = batch.column(key_col).dictionary_encode()
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        lut = np.array([thr_map.get(v, 0) for v in
                        col.dictionary.to_pylist()] + [0], dtype=np.uint64)
        codes = (col.indices.fill_null(-1)
                 .to_numpy(zero_copy_only=False).astype(np.int64))
        keep = _keep_mask(ids, lut[codes])
        return batch.filter(pa.array(keep))

    return ds.map_batches(fn, batch_format="pyarrow")


def weighted_sample(ds, *, weight_col: str, id_col: str = "doc_id",
                    max_weight: int):
    """Deterministic importance sampling: row kept with probability
    ``weight / max_weight`` (weights integer, rows with weight >=
    max_weight always kept), decided by the same splitmix64 id hash as
    :func:`hash_sample` -- so weighted samples are reproducible across
    runs / cluster sizes / block layouts AND nest inside uniform
    hash_sample ladders.  Thresholds are ALL-INTEGER
    ``(w << 32) // max_weight`` (SQL-mirrorable exactly).  Pure map
    stage, zero shuffle."""
    mw = int(max_weight)
    if mw <= 0:
        raise ValueError("max_weight must be positive")
    if mw >= (1 << 31):
        raise ValueError("max_weight must be < 2**31 so the all-integer "
                         "threshold (w << 32) // max_weight stays in int64")

    def fn(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        w = batch.column(weight_col).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        # Clamp into [0, mw]: negative weights drop the row (threshold 0),
        # weights >= mw always keep it, and (w << 32) cannot overflow.
        w = np.clip(w, np.int64(0), np.int64(mw))
        thr = ((w << np.int64(32)) // mw).astype(np.uint64)
        keep = _keep_mask(ids, thr)
        return batch.filter(pa.array(keep))

    return ds.map_batches(fn, batch_format="pyarrow")


def isqrt_i64(n: np.ndarray) -> np.ndarray:
    """Exact floor(sqrt(n)) for int64 n >= 0: float sqrt + a one-step
    integer correction (float rounding can land one off an integer
    boundary; the division-based correction makes the result exact for the full int64 range)."""
    n = np.asarray(n, dtype=np.int64)
    s = np.floor(np.sqrt(n.astype(np.float64))).astype(np.int64)
    # division-based corrections (s*s and (s+1)^2 can overflow int64):
    # s^2 > n  <=>  s > n // s;  (s+1)^2 <= n  <=>  s+1 <= n // (s+1)
    sp = np.maximum(s, 1)
    s = s - ((s > 0) & (sp > n // sp))
    s = s + ((s + 1) <= n // (s + 1))
    return s


def mixture_allocation(ds, *, key: str, target: int):
    """Temperature-based data-mixture planner: allocate a sampling
    budget of ``target`` rows across the values of ``key`` with
    weights proportional to sqrt(count) (the alpha = 0.5 temperature
    that upweights small sources, standard in multilingual / multi-
    source LLM data recipes), apportioned EXACTLY by the
    largest-remainder (Hamilton) method:

        base_s = target * w_s // W,   w_s = isqrt(count_s)
        the target - sum(base) leftover units go to the largest
        remainders (tie -> key ascending)

    so quotas are integers that sum to exactly ``target`` and the plan
    is deterministic.  Shape: one combiner-first keyed count (the only
    shuffle, partial counts per batch), then the bounded per-key table
    resolves on a single partition.  Emits (key, n_rows, weight,
    quota)."""
    from equi7grid_ray.stages.aggregate import hash_aggregate

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        t = batch.select([key]).group_by(key).aggregate([([], "count_all")])
        return pa.table({key: t.column(key),
                         "n_rows": t.column("count_all")})

    counts = hash_aggregate(
        ds.map_batches(partial, batch_format="pyarrow"),
        keys=[key],
        aggs={"n_rows": ("n_rows", "sum")},
        n_partitions=16,
    )

    def alloc(batch: pa.Table) -> pa.Table:
        ks = np.asarray(batch.column(key).to_pylist())
        n = batch.column("n_rows").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        order = np.argsort(ks, kind="stable")
        ks, n = ks[order], n[order]
        w = isqrt_i64(n)
        W = int(w.sum())
        base = target * w // W
        rem = target * w % W
        leftover = target - int(base.sum())
        # leftover largest remainders win; ties -> key ascending
        pick = np.lexsort((np.arange(len(ks)), -rem))[:leftover]
        quota = base.copy()
        quota[pick] += 1
        return pa.table({
            key: pa.array(ks.tolist(), pa.string()),
            "n_rows": pa.array(n, pa.int64()),
            "weight": pa.array(w, pa.int64()),
            "quota": pa.array(quota, pa.int64()),
        })

    # bounded: one row per key value
    return counts.repartition(1).map_batches(
        alloc, batch_format="pyarrow", batch_size=None)
