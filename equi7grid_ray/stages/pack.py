"""Sequence packing: greedy token-budget bin packing for training data.

LLM training consumes fixed-length token sequences; packing short
documents back-to-back (instead of one-doc-per-sequence padding) is the
standard way to stop wasting 30-60 % of a batch on pad tokens (T5's
"packing", GPT-style concat-and-chunk). The operator assigns every
document a (shard, seq) slot under a token budget B with FIRST-FIT in
doc_id order -- deterministic, so the assignment is reproducible across
runs, cluster sizes and block layouts, and SQL-mirrorable for the
oracle gate.

Distribution contract: packing is inherently sequential (a document's
sequence depends on every predecessor's length), so global greedy
packing cannot parallelize. The standard trick: partition the corpus
into fixed doc_id SHARDS (`shard = doc_id // shard_size`) and pack each
shard independently -- shards are the parallel unit (one group per
shard, hash-shuffled), and determinism survives because shard
membership depends only on doc_id, never on physical layout.

Within a shard the greedy recurrence is computed with a cumsum +
searchsorted JUMP loop: each iteration finds the next sequence boundary
in O(log n), so the Python loop runs O(#sequences) times, not O(#docs)
-- with budgets >> mean doc length that is a small fraction of rows.
Oversized documents (len > budget) get a sequence of their own.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

__all__ = ["pack_sequences", "assemble_sequences"]


def pack_sequences(ds, *, budget: int, shard_size: int = 64,
                   id_col: str = "doc_id", text_col: str = "text",
                   n_tokens_col: str | None = None):
    """Assign every row a ``(shard, seq)`` packing slot.

    Token counts are whitespace-token counts of ``text_col`` (matching
    ``len(string_split(text, ' '))`` in the SQL oracle) unless
    ``n_tokens_col`` names a precomputed count column.

    Returns a Dataset ``(doc_id, shard, seq, n_toks)`` where ``seq`` is
    the 0-based sequence index within the shard.
    """
    import pyarrow.compute as pc

    B = int(budget)

    def counts(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col)
        if n_tokens_col is not None:
            ntok = batch.column(n_tokens_col).to_numpy(zero_copy_only=False)
        else:
            toks = pc.split_pattern(batch.column(text_col), " ")
            ntok = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        shard = (ids.to_numpy(zero_copy_only=False).astype(np.int64)
                 // shard_size)
        return pa.table({
            id_col: ids,
            "shard": pa.array(shard, pa.int64()),
            "n_toks": pa.array(ntok.astype(np.int64), pa.int64()),
        })

    def pack(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(id_col)
        n = np.asarray(g["n_toks"], dtype=np.int64)
        cum = np.cumsum(n)
        seq = np.zeros(len(n), dtype=np.int64)
        i, s = 0, 0
        while i < len(n):
            # last j with cum[j] - (cum[i-1]) <= B; always advance >= 1
            base = cum[i] - n[i]
            j = int(np.searchsorted(cum, base + B, side="right"))
            j = max(j, i + 1)
            seq[i:j] = s
            s += 1
            i = j
        return pd.DataFrame({
            id_col: g[id_col].to_numpy(np.int64),
            "shard": g["shard"].to_numpy(np.int64),
            "seq": seq,
            "n_toks": n,
        })

    return (
        ds.map_batches(counts, batch_format="pyarrow")
        .groupby("shard")
        .map_groups(pack, batch_format="pandas")
    )


def assemble_sequences(ds, *, key_col: str, order_cols: list[str],
                       token_col: str, sep: str = " "):
    """Ordered per-key concatenation -- SQL ``string_agg(token, sep
    ORDER BY ...) GROUP BY key`` -- the "assemble the user's session /
    conversation into one training example" step.

    Scale shape: one hash-partition cogroup on the key; within a
    partition ONE lexsort orders every key's rows, run offsets rebuild
    an Arrow list array, and a single ``pc.binary_join`` concatenates
    ALL keys' sequences vectorized (no per-key Python join).

    Returns ``(key_col, n_items, seq)``.
    """
    import pandas as pd
    import pyarrow.compute as pc

    from equi7grid_ray.stages.aggregate import cogroup

    def resolve(g: pd.DataFrame) -> pd.DataFrame:
        keys = g[key_col].to_numpy(np.int64)
        sort_cols = [g[c].to_numpy() for c in reversed(order_cols)]
        order = np.lexsort(tuple(sort_cols) + (keys,))
        sk = keys[order]
        toks = pa.array(g[token_col].to_numpy()[order].tolist(),
                        pa.string())
        new_run = np.empty(len(sk), dtype=bool)
        if len(sk):
            new_run[0] = True
            new_run[1:] = sk[1:] != sk[:-1]
        starts = np.flatnonzero(new_run)
        offsets = np.concatenate([starts, [len(sk)]]).astype(np.int32)
        lst = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), toks)
        joined = pc.binary_join(lst, sep)
        lens = np.diff(offsets).astype(np.int64)
        return pd.DataFrame({
            key_col: pd.Series(sk[starts], dtype=np.int64),
            "n_items": pd.Series(lens, dtype=np.int64),
            "seq": pd.Series(joined.to_pylist(), dtype=object),
        })

    cols = list(dict.fromkeys([key_col, token_col] + order_cols))
    return cogroup(ds.select_columns(cols), [key_col], resolve,
                   n_partitions=32)
