"""Small shared Arrow helpers for zero-copy batch access patterns."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

__all__ = ["binary_view", "continent_codes", "collect_tables",
           "single_group"]


def binary_view(col) -> tuple[memoryview, np.ndarray]:
    """(value-buffer memoryview, int64 offsets) for a binary/string
    column -- per-row payloads are ``data[offs[j]:offs[j+1]]`` slices,
    no per-row Python bytes copies.  A single-chunk column is read in
    place; only a multi-chunk one is concatenated."""
    if isinstance(col, pa.ChunkedArray):
        col = col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()
    bufs = col.buffers()
    wide = pa.types.is_large_binary(col.type) or pa.types.is_large_string(col.type)
    odt = np.int64 if wide else np.int32
    offs = np.frombuffer(bufs[1], dtype=odt)[col.offset : col.offset + len(col) + 1]
    data = memoryview(bufs[2]) if bufs[2] is not None else memoryview(b"")
    return data, offs.astype(np.int64)


def continent_codes(col) -> tuple[np.ndarray, list[str]]:
    """(codes, dictionary) for a string/dictionary continent column --
    grouping by ``codes == k`` avoids materializing per-row Python
    strings."""
    import pyarrow.compute as pc

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if not pa.types.is_dictionary(col.type):
        col = pc.dictionary_encode(col)
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    codes = np.asarray(col.indices)
    dictionary = col.dictionary.to_pylist()
    return codes, dictionary


def payload_sums(col, dtype, nodata=None) -> tuple[np.ndarray, np.ndarray]:
    """Per-row (sum, count) over a binary column of C-order numeric
    payloads: ONE reduceat pass over the concatenated value buffer, no
    per-row copies.  ``nodata`` values are excluded from both sum and
    count when given; empty payloads yield (0, 0)."""
    dt = np.dtype(dtype)
    data, offs = binary_view(col)
    # only the column's own byte range: a sliced array's value buffer can
    # hold other rows' payloads before offs[0] and past offs[-1]
    lo = int(offs[0])
    flat = np.frombuffer(data[lo : int(offs[-1])], dt).astype(np.int64)
    oe = (offs - lo) // dt.itemsize  # element offsets into flat
    n = len(oe) - 1
    if not len(flat):
        return np.zeros(n, np.int64), np.zeros(n, np.int64)
    valid = (flat != nodata) if nodata is not None else np.ones(len(flat), bool)
    # cumsum-based segment sums: exact for EMPTY segments anywhere
    # (reduceat with clamped indices silently splits the row before a
    # trailing empty payload -- caught by the property test)
    cs = np.concatenate([[0], np.cumsum(np.where(valid, flat, 0))])
    cc = np.concatenate([[0], np.cumsum(valid.astype(np.int64))])
    sums = cs[oe[1:]] - cs[oe[:-1]]
    cnts = cc[oe[1:]] - cc[oe[:-1]]
    return sums, cnts


def collect_tables(ds, schema: "pa.Schema | None" = None) -> pa.Table:
    """Materialize a (SMALL, bounded) Dataset as one pyarrow Table.

    Only for results whose size is bounded by construction (sketch
    registers, per-task partials, top-k merges) -- never whole inputs.
    Returns an empty table with ``schema`` (when given) if the Dataset
    has no rows, where pa.concat_tables would raise."""
    tables = [
        b if isinstance(b, pa.Table) else pa.Table.from_batches([b])
        for b in ds.iter_batches(batch_format="pyarrow")
    ]
    if not tables:
        return pa.table({}) if schema is None else schema.empty_table()
    return pa.concat_tables(tables)


def single_group(ds, fn, out_cols: list[str], *,
                 batch_format: str = "pandas"):
    """Run ``fn`` once over ALL rows of ``ds`` (a whole-dataset
    reduction): a cogroup with no key and one partition, projected to
    ``out_cols`` (passed explicitly so no schema inference executes the
    plan early).  ``ds`` must already be reduced to a bounded size
    (partials)."""
    from equi7grid_ray.stages.aggregate import cogroup

    return cogroup(ds, [], fn, n_partitions=1,
                   batch_format=batch_format).select_columns(out_cols)
