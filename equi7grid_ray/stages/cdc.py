"""CDC / upsert-merge: apply a change stream to a base table.

The incremental-maintenance primitive every large ingestion pipeline
needs (Delta/Iceberg ``MERGE INTO`` semantics): a base snapshot plus a
stream of keyed changes (upserts and deletes, ordered by a sequence
column) collapse to the latest surviving row per key.

Scale shape: ONE hash-partitioned cogroup shuffle (the tagged-union
pattern shared with stages/join.py) -- base rows enter as
sequence -infinity upserts, each partition resolves its keys with a
single vectorized lexsort (no per-key Python), and only the winning
rows leave.  Deletes for absent keys and changes replayed onto their
own output (idempotence) are both well-defined.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

__all__ = ["apply_changes", "table_diff"]

OP_UPSERT = "upsert"
OP_DELETE = "delete"


def apply_changes(base, changes, *, key_col: str, seq_col: str,
                  op_col: str = "op",
                  tiebreak_cols: tuple[str, ...] = ()):
    """Merge ``changes`` (columns: key, seq, op, payload...) into
    ``base`` (columns: key, payload...); returns the latest surviving
    row per key with the base's schema.

    Semantics (ties broken deterministically): per key, the row with
    the highest ``seq`` wins -- base rows carry seq = -1 (change
    sequences must be >= 0); if the winner's op is ``delete`` the key
    disappears.  Equal-seq duplicates within the change stream are
    resolved by op (delete > upsert), then by ``tiebreak_cols``
    descending (pass the numeric payload columns that should decide
    exact ties; well-formed streams have unique sequences per key and
    never need this).
    """
    from equi7grid_ray.stages.aggregate import cogroup

    payload = [c for c in base.schema().names if c != key_col]
    out_names = [key_col] + payload

    def tag_base(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        cols = {key_col: batch.column(key_col).cast(pa.int64())}
        for c in payload:
            cols[c] = batch.column(c)
        cols["__seq"] = pa.array(np.full(n, -1, np.int64), pa.int64())
        cols["__del"] = pa.array(np.zeros(n, np.int8), pa.int8())
        return pa.table(cols)

    def tag_changes(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        cols = {key_col: batch.column(key_col).cast(pa.int64())}
        for c in payload:
            cols[c] = batch.column(c)
        cols["__seq"] = batch.column(seq_col).cast(pa.int64())
        cols["__del"] = pc.cast(
            pc.equal(batch.column(op_col), OP_DELETE), pa.int8())
        return pa.table(cols)

    tagged = base.map_batches(tag_base, batch_format="pyarrow").union(
        changes.map_batches(tag_changes, batch_format="pyarrow"))

    def resolve(g: pd.DataFrame) -> pd.DataFrame:
        k = g[key_col].to_numpy(np.int64)
        s = g["__seq"].to_numpy(np.int64)
        d = g["__del"].to_numpy(np.int8)
        # winner per key = max (seq, del, *tiebreaks) -- delete outranks
        # an equal-seq upsert; lexsort is ascending so the winner is the
        # LAST row of each key group
        tb = [g[c].to_numpy() for c in reversed(tiebreak_cols)]
        order = np.lexsort((*tb, d, s, k))
        ks = k[order]
        last = np.ones(len(ks), dtype=bool)
        last[:-1] = ks[1:] != ks[:-1]
        win = order[last]
        keep = win[d[win] == 0]
        return g.iloc[keep][out_names]

    return cogroup(tagged, [key_col], resolve, n_partitions=32)


def table_diff(left, right, *, key_col: str, cols: list[str]):
    """Data reconciliation: which keys differ between two tables?

    Returns ``(key_col, status)`` with status in ``only_left`` /
    ``only_right`` / ``changed`` (present both sides, any of ``cols``
    differs); equal rows are dropped.  The anti-entropy primitive for
    validating a replicated / incrementally-maintained copy against its
    source (e.g. a CDC-merged table vs a fresh snapshot).  Keys are
    assumed unique per side (dimension-table semantics).

    Scale shape: each side is reduced to ``(key, row_hash)`` in one
    vectorized pass -- the shuffle carries 16 bytes per row regardless
    of row width; the tagged union hash-partitions by key and each
    partition resolves with ONE pandas outer merge.  Row equality is
    compared via the 64-bit chained column hash (integers through
    splitmix64, strings through the shared byte hash, floats by bit
    pattern), the same collision-odds argument as the dedup family;
    the SQL oracle compares the column VALUES, so a hash collision
    would surface as a mismatch.
    """
    from equi7grid_ray.stages.dedup import (_column_bytes, _mix64,
                                            hash_bytes_offsets)
    from equi7grid_ray.stages.aggregate import cogroup

    def _prep(side: int):
        def fn(batch: pa.Table) -> pa.Table:
            acc = np.zeros(batch.num_rows, np.uint64)
            for c in cols:
                col = batch.column(c)
                if pa.types.is_string(col.type) or \
                        pa.types.is_large_string(col.type):
                    if isinstance(col, pa.ChunkedArray):
                        col = col.combine_chunks()
                    flat, offs = _column_bytes(col)
                    h = hash_bytes_offsets(flat, offs).view(np.uint64)
                else:
                    v = col.to_numpy(zero_copy_only=False)
                    if v.dtype.kind == "f":
                        v = v.view(np.int64)  # bit-pattern equality
                    else:
                        v = v.astype(np.int64)
                    h = _mix64(v.view(np.uint64))
                acc = _mix64(acc ^ h)
            return pa.table({
                key_col: batch.column(key_col).cast(pa.int64()),
                "__rh": pa.array(acc.view(np.int64), pa.int64()),
                "__side": pa.array(
                    np.full(batch.num_rows, side, np.int8), pa.int8()),
            })
        return fn

    both = left.map_batches(_prep(0), batch_format="pyarrow").union(
        right.map_batches(_prep(1), batch_format="pyarrow"))

    def resolve(g: pd.DataFrame) -> pd.DataFrame:
        l = g[g["__side"] == 0][[key_col, "__rh"]]
        r = g[g["__side"] == 1][[key_col, "__rh"]]
        m = l.merge(r, on=key_col, how="outer", suffixes=("_l", "_r"),
                    indicator=True)
        status = np.where(
            m["_merge"].to_numpy() == "left_only", "only_left",
            np.where(m["_merge"].to_numpy() == "right_only", "only_right",
                     np.where(m["__rh_l"].to_numpy() != m["__rh_r"].to_numpy(),
                              "changed", "equal")))
        keep = status != "equal"
        return pd.DataFrame({
            key_col: m[key_col].to_numpy()[keep].astype(np.int64),
            "status": status[keep],
        })

    return cogroup(both, [key_col], resolve, n_partitions=64)
