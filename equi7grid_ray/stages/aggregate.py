"""Keyed shuffles, declared once: one partition hash, one cogroup, and
the Sum/Min/Max/Count aggregate built on them.

Every keyed operator of the engine -- the spatial joins
(``neighbors.neighbor_pairs``, ``neighbors.rect_overlap_join``), the
cogroup join ``join.shuffle_hash_join``, the per-tile temporal and
mosaic statistics, the LSH / set-similarity candidate generators and
``hash_aggregate`` below -- has one shape: hash-partition the rows by
a key tuple, then make ONE vectorized call per partition (many keys
per call), so the Python-call count is O(partitions), not O(distinct
keys).  LMFAO's observation (VLDB 2020) applies: many group-by
aggregates can share one partitioning, so the partitioning is a single
primitive here rather than a decision each operator writes out.

- ``key_partitions(table, keys, n)`` is the one partition hash.  Int,
  float, bool and temporal keys hash their int64 value through the
  splitmix64 finalizer; string, large-string and dictionary-encoded
  string keys hash by value (so ``"EU_..."`` lands in the same
  partition whichever of those types carries it); several keys fold
  into one id.  No key gives partition 0.
- ``cogroup(ds, keys, fn, n_partitions=)`` tags every row with its
  partition, groups by the tag and calls ``fn`` once per partition.
  ``fn`` never sees the tag.  Rows of one key tuple meet in exactly
  one call; ``n_partitions=1`` is one call over the whole dataset
  (``arrowutil.single_group``).
- ``hash_aggregate`` is ``ds.groupby(keys).aggregate(...)`` as one
  cogroup with one pandas groupby per partition.

Why ``groupby(tag).map_groups`` and not Ray Data's native
``groupby().aggregate(...)``: the native AllToAllOperator carries a
large fixed cost per input block (measured on Ray 2.49: 32 tiny partial
blocks -> ~4 s wall with ~5 ms of task compute; 64 blocks -> ~2.5 s at
8 cpus), which dominates every small-partial aggregate in a sweep; the
sort path over a tag runs the same reduction in ~0.1 s.  At scale the
shape is the one the native operator would use -- every row moves once
to its hash partition -- without the per-block operator overhead.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from equi7grid_ray.stages.dedup import (_column_bytes, _mix64,
                                        hash_bytes_offsets)

__all__ = ["key_partitions", "cogroup", "hash_aggregate"]

_FNS = {"sum", "min", "max", "count"}
_TAG = "__part"


def _value_hash(col) -> np.ndarray:
    """uint64 hash of every value of one key column, by value."""
    if isinstance(col, pa.ChunkedArray):
        hs = [_value_hash(c) for c in col.chunks]
        return np.concatenate(hs) if hs else np.zeros(0, np.uint64)
    if pa.types.is_dictionary(col.type):
        col = col.dictionary_decode()
    if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
        return hash_bytes_offsets(*_column_bytes(col)).view(np.uint64)
    v = col.to_numpy(zero_copy_only=False).astype(np.int64)
    return _mix64(v.view(np.uint64))


def key_partitions(table: pa.Table, keys: list[str], n: int) -> np.ndarray:
    """int32 partition id in ``[0, n)`` of every row of ``table`` from
    its ``keys`` tuple: the one partition hash of the engine."""
    acc = np.zeros(table.num_rows, np.uint64)
    for c in keys:
        # re-mix after every key: a plain xor fold would cancel equal
        # key values and send (a, b) and (b, a) to one partition
        acc = _mix64(acc ^ _value_hash(table.column(c)))
    return (acc % np.uint64(n)).astype(np.int32)


def cogroup(ds, keys: list[str], fn, *, n_partitions: int,
            batch_format: str = "pandas"):
    """``fn`` once per hash partition of ``ds`` by ``keys``: every row
    of one key tuple arrives in exactly one call, many keys per call.
    ``fn`` takes and returns a ``batch_format`` batch without the
    partition tag."""
    keys = list(keys)

    def tag(t: pa.Table) -> pa.Table:
        return t.append_column(
            _TAG, pa.array(key_partitions(t, keys, n_partitions)))

    if batch_format == "pandas":
        def run(g: pd.DataFrame):
            del g[_TAG]
            return fn(g)
    else:
        def run(t: pa.Table):
            return fn(t.drop_columns([_TAG]))

    return (ds.map_batches(tag, batch_format="pyarrow")
            .groupby(_TAG)
            .map_groups(run, batch_format=batch_format))


def hash_aggregate(ds, *, keys: list[str],
                   aggs: dict[str, tuple[str, str]],
                   n_partitions: int = 32):
    """``ds.groupby(keys).aggregate(...)`` replacement.

    ``aggs``: output column -> (input column, fn) with fn one of
    ``sum | min | max | count`` (count ignores its input column).
    Returns one row per distinct key tuple with columns
    ``keys + list(aggs)``; numeric outputs keep int64.
    """
    for out, (_c, fn) in aggs.items():
        if fn not in _FNS:
            raise ValueError(f"hash_aggregate: unsupported fn {fn!r} for {out}")
    in_cols = sorted({c for c, fn in aggs.values() if fn != "count"})
    spec = {out: ((c if fn != "count" else keys[0]),
                  (fn if fn != "count" else "size"))
            for out, (c, fn) in aggs.items()}

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        # observed=True: a dictionary-encoded key reaches pandas as a
        # Categorical, whose unseen categories must not become rows
        out = g.groupby(keys, as_index=False, observed=True).agg(
            **{o: pd.NamedAgg(column=c, aggfunc=f)
               for o, (c, f) in spec.items()})
        casts = {o: np.int64 for o, (c, f) in spec.items()
                 if f == "size" or np.issubdtype(out[o].dtype, np.integer)}
        return out.astype(casts) if casts else out

    cols = list(dict.fromkeys(keys + in_cols))

    def project(t: pa.Table) -> pa.Table:
        # a new table drops the input's pandas metadata, which would turn
        # nullable-int join outputs back into pandas extension dtypes
        return pa.table({c: t.column(c) for c in cols})

    return cogroup(ds.map_batches(project, batch_format="pyarrow"), keys,
                   combine, n_partitions=n_partitions)
