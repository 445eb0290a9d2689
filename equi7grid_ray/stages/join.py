"""Join operators over Ray Datasets.

Three equality-join shapes, chosen by side size:

- ``native_join``: thin adapter over Ray Data's built-in hash join
  (``Dataset.join``, actor-pool aggregators doing the repartition +
  hash join) -- the idiomatic path when both sides are large and the
  Ray version carries it.  ``shuffle_hash_join`` below is the
  self-contained equivalent kept for (a) semantics this adapter can't
  reach (first-occurrence dedup, custom partition counts per stage)
  and (b) parity-testing the native operator.

- ``broadcast_join``: the small side is collected ONCE on the driver
  (bounded by ``max_broadcast_rows``), ``ray.put`` into the object
  store, and probed inside ``map_batches`` with a vectorized Arrow
  index gather -- zero shuffle, the pattern the scale guidance
  prescribes for dimension tables.
- ``shuffle_hash_join``: both sides are tagged and unioned, then
  hash-partitioned by key with ``aggregate.cogroup`` and merged per
  partition with a pandas merge -- the classic cogroup shuffle join
  for two large sides.  Keys are not salted; heavy skew should
  pre-aggregate or use the broadcast path.

Both return a Dataset and preserve streaming on the probe/large side.

Two more shapes the Dataset API lacks outright (custom operators per
the brief; each documents its partitioning assumption):

- ``asof_join``: for every left row, the single right row with the
  greatest ``on`` value <= (or >=) the left's, within the same ``by``
  key -- the classic point-in-time join (reference users run this for
  "sensor reading at acquisition time" lookups).  Partitioning
  assumption: all rows of one ``by`` key land in one hash partition;
  within a partition the merge is ONE ``pandas.merge_asof`` (sort +
  galloping scan, vectorized), not a per-key Python loop.
- ``range_join``: inner join on ``left.on BETWEEN right.lo AND
  right.hi`` (plus an optional ``by`` equality).  Partitioning
  assumption: values are bucketed by a fixed width; each right
  interval is replicated to every bucket it overlaps while each left
  row goes to exactly ONE bucket, so a matching pair meets in exactly
  one bucket and no post-join dedup is needed.  Bucket width trades
  replication (wide intervals) against bucket count.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from equi7grid_ray.stages.aggregate import cogroup

__all__ = ["broadcast_join", "native_join", "shuffle_hash_join",
           "shuffle_join_schema", "asof_join", "range_join"]


def native_join(
    left,
    right,
    *,
    on: str,
    how: str = "inner",
    suffix: str = "_r",
    n_partitions: int = 64,
):
    """Equality join via Ray Data's built-in ``Dataset.join`` (hash
    join across ``n_partitions`` actor-pool aggregators; both sides
    shuffled once).  Column-name collisions on the right side get
    ``suffix``, matching the other join operators here.

    Prefer this for large⋈large on Ray >= 2.47; prefer
    ``broadcast_join`` when one side fits in the object store (zero
    shuffle).  ``how``: 'inner' | 'left' | 'right' | 'full'."""
    join_type = {
        "inner": "inner",
        "left": "left_outer",
        "right": "right_outer",
        "full": "full_outer",
    }.get(how)
    if join_type is None:
        raise ValueError("native_join: how must be inner|left|right|full")
    # Dataset.join schedules num_partitions aggregator ACTORS that must
    # all be live at once: asking for more than the cluster's CPUs
    # deadlocks the streaming executor (observed: 64 partitions on an
    # 8-cpu cluster hangs forever).  Clamp to the cluster size.
    try:
        import ray

        if ray.is_initialized():
            avail = int(ray.cluster_resources().get("CPU", n_partitions))
            n_partitions = max(1, min(n_partitions, avail))
    except Exception:
        pass
    return left.join(
        right,
        join_type=join_type,
        num_partitions=n_partitions,
        on=(on,),
        right_suffix=suffix,
    )


def broadcast_join(
    large,
    small,
    *,
    on: str,
    how: str = "inner",
    max_broadcast_rows: int = 5_000_000,
    suffix: str = "_r",
):
    """Join ``large`` (Dataset, streamed) with ``small`` (Dataset or
    pyarrow.Table, materialized + broadcast) on equality of ``on``.

    ``how``: 'inner' | 'left' | 'semi' | 'anti'.  'semi' keeps large
    rows whose key exists in small (no columns added); 'anti' keeps the
    rest -- the broadcast blocklist/allowlist filter.  Small-side
    duplicate keys keep the FIRST occurrence (dimension-table
    semantics)."""
    if how not in ("inner", "left", "semi", "anti"):
        raise ValueError(
            "broadcast_join supports how='inner'|'left'|'semi'|'anti'")
    if hasattr(small, "to_arrow_refs") or hasattr(small, "map_batches"):
        small_tbl = pa.concat_tables(
            pa.Table.from_batches([b]) if isinstance(b, pa.RecordBatch) else b
            for b in small.iter_batches(batch_format="pyarrow")
        )
    else:
        small_tbl = small
    if small_tbl.num_rows > max_broadcast_rows:
        raise ValueError(
            f"small side has {small_tbl.num_rows} rows > max_broadcast_rows="
            f"{max_broadcast_rows}; use shuffle_hash_join"
        )

    import ray

    ref = ray.put(small_tbl) if ray.is_initialized() else None
    payload = None if ref is not None else small_tbl
    # Collision renames (like SQL join output suffixes) are decided
    # per-worker from the first probe batch's column names instead of
    # calling large.schema() here: schema() on a lazy Dataset executes
    # its whole upstream for one block, and a CHAIN of broadcast joins
    # would re-execute a progressively longer prefix at every link
    # (measured 6-8 s of pure plan-build time on a 4-join query).
    # Batch schemas are uniform across a Dataset, so the per-worker
    # decision is deterministic.

    class _Probe:
        """Stateful probe: builds the key->row-index hash map once per
        worker from the broadcast table."""

        def __init__(self):
            tbl = ray.get(ref) if ref is not None else payload
            keys = tbl.column(on).to_pandas()
            # first occurrence wins for duplicate small-side keys
            self.index = pd.Index(keys).drop_duplicates()
            first = ~keys.duplicated(keep="first")
            self.tbl = tbl.filter(pa.array(first.to_numpy()))
            self.cols = [c for c in tbl.column_names if c != on]
            self.rename = None  # decided from the first batch

        def __call__(self, batch: pa.Table) -> pa.Table:
            if self.rename is None:
                large_names = set(batch.column_names)
                self.rename = {
                    c: (c + suffix if c in large_names else c)
                    for c in self.cols
                }
            probe = batch.column(on).to_pandas()
            pos = self.index.get_indexer(probe)
            hit = pos >= 0
            if how in ("semi", "anti"):  # pure filter, no columns added
                keep = hit if how == "semi" else ~hit
                return batch.filter(pa.array(keep))
            if how == "inner":
                keep = np.flatnonzero(hit)
                batch = batch.take(pa.array(keep))
                pos = pos[keep]
                take = pa.array(pos, pa.int64())
            else:  # left: misses become nulls
                take = pa.array(
                    np.where(hit, pos, -1), pa.int64()
                )
                take = pc.if_else(
                    pc.greater_equal(take, 0), take, pa.scalar(None, pa.int64())
                )
            out = batch
            for c in self.cols:
                out = out.append_column(
                    self.rename.get(c, c), self.tbl.column(c).take(take)
                )
            return out

    return large.map_batches(
        _Probe, batch_format="pyarrow", concurrency=(1, 8), num_cpus=1
    )


def shuffle_hash_join(
    left,
    right,
    *,
    on: str,
    how: str = "inner",
    suffix: str = "_r",
    n_partitions: int = 64,
    left_schema: "pa.Schema | None" = None,
    right_schema: "pa.Schema | None" = None,
):
    """Cogroup shuffle join: tag both sides, union, then one
    ``aggregate.cogroup`` on ``on`` with ONE vectorized pandas merge per
    partition (many keys per merge -- O(n_partitions) Python calls, not
    O(distinct keys)).

    Works for two large sides; the shuffle moves every row once.
    Mirrors the semantics of Ray's upcoming native Dataset.join so
    migration is a rename."""
    if how not in ("inner", "left"):
        raise ValueError("shuffle_hash_join supports how='inner'|'left'")

    # Callers that know their side's schema statically should pass it:
    # Dataset.schema() on a lazy side executes its upstream for one
    # block, and when the side is an aggregate/join output that means
    # running the whole AllToAll once during PLAN BUILD (then again for
    # real) -- the same re-execution trap fixed in broadcast_join.
    if left_schema is None:
        left_schema = _as_arrow_schema(left.schema())
    if right_schema is None:
        right_schema = _as_arrow_schema(right.schema())
    lkeep = list(left_schema.names)
    rkeep = list(right_schema.names)
    lcols = [c for c in lkeep if c != on]
    rmap = {c: (c + suffix if c in lcols else c) for c in rkeep if c != on}
    rcols = [rmap[c] for c in rkeep if c != on]
    unioned, super_fields = _tag_union(left, right, lkeep, rkeep, rmap,
                                       left_schema, right_schema)
    np_types = _np_types(super_fields)
    # Emit Arrow with an explicit schema: keeps empty partitions
    # schema-stable (object->null inference) AND keeps the output
    # chainable -- pandas nullable-Int64 blocks break Ray's schema
    # introspection when this join's output feeds another join.
    out_schema = pa.schema([(name, typ) for name, typ in super_fields
                            if name != "__side"])

    def merge(g: pd.DataFrame) -> pa.Table:
        gl = _restore_dtypes(g[g["__side"] == 0][[on] + lcols], np_types,
                             plain=(on,))
        gr = _restore_dtypes(g[g["__side"] == 1][[on] + rcols], np_types,
                             plain=(on,))
        return pa.Table.from_pandas(gl.merge(gr, on=on, how=how),
                                    schema=out_schema,
                                    preserve_index=False)

    return cogroup(unioned, [on], merge, n_partitions=n_partitions)


def _as_arrow_schema(sch) -> pa.Schema:
    """Normalize a Dataset.schema() result to a pyarrow.Schema.  The
    Ray wrapper's base_schema is pa.Schema for Arrow blocks but a
    PandasBlockSchema (numpy dtypes) for pandas blocks -- convert the
    latter so downstream type logic always sees Arrow types."""
    base = getattr(sch, "base_schema", sch)
    if isinstance(base, pa.Schema):
        return base
    names = list(base.names)
    types = [pa.from_numpy_dtype(np.dtype(t)) if not isinstance(t, pa.DataType)
             else t for t in base.types]
    return pa.schema(list(zip(names, types)))


def shuffle_join_schema(left_schema: pa.Schema, right_schema: pa.Schema,
                        *, on: str, suffix: str = "_r") -> pa.Schema:
    """The output schema shuffle_hash_join will produce for the given
    input schemas -- lets callers CHAIN joins while passing static
    schema hints (no plan-build execution of the inner join)."""
    lkeep = list(left_schema.names)
    rkeep = list(right_schema.names)
    lcols = [c for c in lkeep if c != on]
    rmap = {c: (c + suffix if c in lcols else c) for c in rkeep if c != on}
    ltypes = dict(zip(left_schema.names, left_schema.types))
    rtypes = dict(zip(right_schema.names, right_schema.types))
    fields = [(c, ltypes[c]) for c in lkeep]
    seen = set(lkeep)
    for c in rkeep:
        out = rmap.get(c, c)
        if c != on and out not in seen:
            fields.append((out, rtypes[c]))
            seen.add(out)
    return pa.schema(fields)


def _tag_union(left, right, lkeep: list[str], rkeep: list[str],
               rename: dict[str, str], lschema=None, rschema=None):
    """Project both sides into one superset schema (side tag + null
    fills) and union them -- the shared first half of every cogroup
    shuffle here.  ``rename`` maps right-side source -> output name."""
    if lschema is None:
        lschema = _as_arrow_schema(left.schema())
    if rschema is None:
        rschema = _as_arrow_schema(right.schema())
    ltypes = dict(zip(lschema.names, lschema.types))
    rtypes = dict(zip(rschema.names, rschema.types))
    super_fields = (
        [(c, ltypes[c]) for c in lkeep]
        + [(rename.get(c, c), rtypes[c]) for c in rkeep
           if rename.get(c, c) not in dict((x, None) for x in lkeep)]
        + [("__side", pa.int8())]
    )
    back = {rename.get(c, c): c for c in rkeep}

    def project(side: int):
        def fn(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            cols = {}
            for name, typ in super_fields:
                if name == "__side":
                    cols[name] = pa.array(np.full(n, side, np.int8))
                elif side == 0 and name in lkeep:
                    cols[name] = batch.column(name).cast(typ)
                elif side == 1 and back.get(name) in batch.column_names:
                    cols[name] = batch.column(back[name]).cast(typ)
                else:
                    cols[name] = pa.nulls(n, typ)
            return pa.table(cols)

        return fn

    lt = left.map_batches(project(0), batch_format="pyarrow")
    rt = right.map_batches(project(1), batch_format="pyarrow")
    return lt.union(rt), super_fields


def _np_types(super_fields) -> dict:
    out = {}
    for name, typ in super_fields:
        if name != "__side":
            try:
                out[name] = typ.to_pandas_dtype()
            except NotImplementedError:
                pass
    return out


_NULLABLE = {
    "int8": "Int8", "int16": "Int16", "int32": "Int32", "int64": "Int64",
    "uint8": "UInt8", "uint16": "UInt16", "uint32": "UInt32",
    "uint64": "UInt64", "bool": "boolean",
}


def _restore_dtypes(df: pd.DataFrame, np_types: dict,
                    plain: tuple = ()) -> pd.DataFrame:
    """Undo the union null-fill float upcast DETERMINISTICALLY: integer
    and bool columns are cast to pandas NULLABLE dtypes (NaN -> pd.NA),
    so every partition emits the same Arrow schema (e.g. nullable
    int64) no matter which keys or merge-misses landed in it -- the
    old null-free-only astype made block schemas data-dependent.

    ``plain`` columns (merge keys: pandas.merge_asof rejects extension
    dtypes for ``on``) keep the original guarded cast: plain numpy
    dtype when null-free, float upcast otherwise."""
    casts = {}
    for c in df.columns:
        t = np_types.get(c)
        if t is None:
            continue
        name = np.dtype(t).name
        if c in plain:
            if not df[c].isna().any():
                casts[c] = t
        elif name in _NULLABLE:
            casts[c] = _NULLABLE[name]
        elif not df[c].isna().any():
            casts[c] = t
    return df.astype(casts)


def asof_join(
    left,
    right,
    *,
    on: str,
    by: str,
    direction: str = "backward",
    allow_exact_matches: bool = True,
    suffix: str = "_r",
):
    """Point-in-time join: for each left row, the ONE right row with the
    closest ``on`` value at-or-before it ('backward') / at-or-after it
    ('forward'), matching on ``by`` equality; left rows with no match
    keep nulls (left-join semantics, like pandas.merge_asof and DuckDB
    ASOF LEFT JOIN).

    Shuffle shape: both sides hash-partitioned by ``by`` (every row
    moves once); each partition is merged by ONE ``pandas.merge_asof``
    -- a sort + per-key galloping scan over the whole partition, so
    Python-call count is O(partitions), not O(keys) or O(rows).
    Ties on (by, on) keep pandas' semantics (last right row wins);
    pre-dedupe the right side per (by, on) for full determinism."""
    if direction not in ("backward", "forward"):
        raise ValueError("asof_join: direction must be backward|forward")
    lkeep = list(left.schema().names)
    rkeep = list(right.schema().names)
    rename = {c: (c + suffix if c in lkeep and c not in (on, by) else c)
              for c in rkeep}
    # on/by are equality/ordering inputs shared by both sides: the right
    # side's copies are not re-emitted
    rdata = [c for c in rkeep if c not in (on, by)]
    unioned, super_fields = _tag_union(
        left, right, lkeep, [on, by] + rdata, rename
    )
    np_types = _np_types(super_fields)
    rout = [rename.get(c, c) for c in rdata]

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        gl = g[g["__side"] == 0][lkeep]
        gr = g[g["__side"] == 1][[by, on] + rout]
        # merge_asof rejects extension dtypes for on/by -> plain keys
        gl = _restore_dtypes(gl, np_types, plain=(on, by))
        gr = _restore_dtypes(gr, np_types, plain=(on, by))
        gl = gl.sort_values(on, kind="stable")
        gr = gr.sort_values(on, kind="stable")
        return pd.merge_asof(
            gl, gr, on=on, by=by, direction=direction,
            allow_exact_matches=allow_exact_matches,
        )

    return cogroup(unioned, [by], merge, n_partitions=16)


def range_join(
    left,
    right,
    *,
    left_on: str,
    right_lo: str,
    right_hi: str,
    by: str | None = None,
    bucket_width: float,
    suffix: str = "_r",
):
    """Interval join: left rows paired with every right row whose
    ``[right_lo, right_hi]`` range contains ``left.left_on`` (inclusive
    both ends), optionally also requiring ``by`` equality.

    Shuffle shape: buckets of ``bucket_width`` on the join value.  Each
    LEFT row goes to exactly one bucket (its value's); each RIGHT
    interval is replicated to every bucket it overlaps -- so a matching
    pair meets exactly once and the output needs no dedup.  Replication
    factor = interval span / bucket_width; pick the width near the
    typical span.  Within a bucket the match is one vectorized pandas
    merge (on bucket [+ by]) then a range filter."""
    lkeep = list(left.schema().names)
    rkeep = list(right.schema().names)
    rename = {c: (c + suffix if c in lkeep else c) for c in rkeep}
    unioned, super_fields = _tag_union(left, right, lkeep, rkeep, rename)
    rout = [rename.get(c, c) for c in rkeep]
    np_types = _np_types(super_fields)
    w = float(bucket_width)
    lo_o, hi_o = rename.get(right_lo, right_lo), rename.get(right_hi, right_hi)

    def to_buckets(batch: pa.Table) -> pa.Table:
        side = batch.column("__side").to_numpy(zero_copy_only=False)
        if batch.num_rows == 0:
            return batch.append_column("__bucket", pa.array([], pa.int64()))
        v = batch.column(left_on).to_numpy(zero_copy_only=False)
        if (side == 0).all():
            b = np.floor(v.astype(np.float64) / w).astype(np.int64)
            return batch.append_column("__bucket", pa.array(b))
        # right side: replicate each interval to all buckets it overlaps
        # (left rows carry null lo/hi in mixed batches -- zero-fill so the
        # int cast below is defined; their reps/bucket come from lb)
        lo = np.nan_to_num(
            batch.column(lo_o).to_numpy(zero_copy_only=False).astype(np.float64))
        hi = np.nan_to_num(
            batch.column(hi_o).to_numpy(zero_copy_only=False).astype(np.float64))
        b0 = np.floor(lo / w).astype(np.int64)
        b1 = np.floor(hi / w).astype(np.int64)
        reps = np.where(side == 1, b1 - b0 + 1, 1)
        idx = np.repeat(np.arange(batch.num_rows), reps)
        out = batch.take(pa.array(idx))
        # bucket number within each replicated run
        starts = np.concatenate([[0], np.cumsum(reps)[:-1]])
        offs = np.arange(len(idx)) - np.repeat(starts, reps)
        lb = np.floor(np.nan_to_num(
            batch.column(left_on).to_numpy(zero_copy_only=False)[idx]
            .astype(np.float64)) / w
        ).astype(np.int64)
        bucket = np.where(side[idx] == 1, b0[idx] + offs, lb)
        return out.append_column("__bucket", pa.array(bucket))

    bucketed = unioned.map_batches(to_buckets, batch_format="pyarrow")

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        gl = g[g["__side"] == 0][lkeep]
        gr = g[g["__side"] == 1][rout]
        # range/equality comparisons below need plain (non-extension)
        # dtypes; these columns are non-null on their own side
        plain = (left_on, lo_o, hi_o) + ((by,) if by else ())
        gl = _restore_dtypes(gl, np_types, plain=plain)
        gr = _restore_dtypes(gr, np_types, plain=plain)
        keys = [by] if by else []
        if keys:
            m = gl.merge(gr, left_on=keys, right_on=[rename.get(by, by)]
                         if rename.get(by, by) in gr.columns else keys,
                         how="inner")
        else:
            m = gl.assign(__x=1).merge(gr.assign(__x=1), on="__x").drop(
                columns="__x")
        m = m[(m[left_on] >= m[lo_o]) & (m[left_on] <= m[hi_o])]
        return m

    return bucketed.groupby("__bucket").map_groups(
        merge, batch_format="pandas"
    )
