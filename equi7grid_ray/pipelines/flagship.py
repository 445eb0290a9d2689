"""Flagship pipeline: image table -> per-row tile assignments -> (optional)
partitioned parquet sink.

Ray-Data shape (cf. the reference's serial/mp.Pool fan-out at
warp.py:424-578):

    read_parquet (pruned columns)
      -> map_batches(make_assign_fn: broadcast TileAssigner, zero-copy Arrow)
      -> [optional] groupby coarse cell / write_parquet partitioned

Everything streams; nothing materializes the full dataset.  The
resumable variant, ``run_flagship_checkpointed``, hands its fragments to
``checkpoint.run_fragments``, the runner the warp sink uses too:
``_ingest_fragment`` is the per-fragment task body.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np
import pyarrow as pa

from equi7grid_ray.grid import GridSpec
from equi7grid_ray.stages.tile_assign import make_assign_fn
from equi7grid_ray.state import checkpoint


def tile_assignments(
    ds,
    *,
    tiling_id: str = "T6",
    spec: GridSpec | None = None,
    decode: bool = False,
    passthrough: tuple[str, ...] = (),
    batch_size: int = 8192,
    emit_cell: bool = True,
    emit_xy: bool = True,
    emit_id: bool = True,
):
    """Attach the tile-assignment stage to a Dataset of image rows:
    task-based with the assigner broadcast once and cached per worker
    process (elastic scheduling; same amortization as an actor pool
    since worker processes persist)."""
    return ds.map_batches(
        make_assign_fn(
            tiling_id=tiling_id, spec=spec, decode=decode,
            passthrough=passthrough, emit_cell=emit_cell, emit_xy=emit_xy,
            emit_id=emit_id),
        batch_format="pyarrow",
        batch_size=batch_size,
        num_cpus=1,
    )


def tile_assignments_from_files(
    files,
    *,
    columns=None,
    tiling_id: str = "T6",
    spec: GridSpec | None = None,
    decode: bool = False,
    passthrough: tuple[str, ...] = (),
    emit_cell: bool = True,
    emit_xy: bool = True,
    emit_id: bool = True,
):
    """Read-in-map variant of :func:`tile_assignments`: the input Dataset
    holds groups of file PATHS; each task reads its group's files with
    plain pyarrow and runs the assigner in the same task.

    Rationale: Ray Data's built-in parquet reader iterates 10k-row batch
    slices with per-batch schema handling -- measured ~1 us/row vs
    ~0.06 us/row for a straight ``pq.read_table`` of the same (page-cached)
    file.  On the assignment hot path that read overhead is ~40% of the
    work and scales worse than the compute, so the headline pipeline reads
    inside the map task.

    A task is a contiguous group of files, at most one task per cluster
    CPU (:func:`_file_groups`): every Ray Data task pays a fixed ~10 ms
    of scheduling, so tasks queued for the same CPU slot only add that
    cost.  The CPU count is read once, when this Dataset is built; a
    cluster that grows later keeps the groups, and one with no CPU yet
    (an autoscaler still adding workers) runs one task per file.  A
    cluster with at least as many CPUs as files also runs one task per
    file.  Retry granularity is the group (a failed task re-reads its
    group's files); each row group must fit in a worker heap.  A task
    yields one assigned table per row group; consecutive row groups of
    up to ``_CALL_BYTES`` of input share one assigner call (one pass of
    its fallback path, see :func:`_assign_row_groups`).  An empty
    ``files`` raises ValueError before any Ray work.
    """
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd

    files = [str(f) for f in files]
    if not files:
        raise ValueError("tile_assignments_from_files: the file list is empty")
    assign = make_assign_fn(
        tiling_id=tiling_id, spec=spec, decode=decode, passthrough=passthrough,
        emit_cell=emit_cell, emit_xy=emit_xy, emit_id=emit_id,
    )

    def read_and_assign(batch: pa.Table):
        # read one row group at a time and yield one assigned table per
        # row group: consecutive row groups share one assigner call (its
        # fallback pass) up to _CALL_BYTES of input, so task heap usage
        # is bounded by that, not by the file or group size
        def row_groups():
            for paths in batch.column("paths").to_pylist():
                for path in paths:
                    pf = pq.ParquetFile(path)
                    for rg in range(pf.num_row_groups):
                        yield pf.read_row_group(rg, columns=columns, use_threads=False)

        yield from _assign_row_groups(row_groups(), assign)

    if not ray.is_initialized():
        ray.init()  # what Ray Data itself does before its first task
    groups = _file_groups(files, int(ray.cluster_resources().get("CPU", 0)))
    ds = rd.from_items([{"paths": g} for g in groups],
                       override_num_blocks=len(groups))
    return ds.map_batches(read_and_assign, batch_format="pyarrow", num_cpus=1)


def _file_groups(files: list[str], n_cpus: int) -> list[list[str]]:
    """``files`` in ``min(len(files), n_cpus)`` contiguous groups whose
    sizes differ by at most one, in input order, none empty; with no CPU
    (``n_cpus`` 0), one group per file."""
    n = min(len(files), n_cpus) if n_cpus > 0 else len(files)
    return [list(g) for g in np.array_split(np.array(files, dtype=object), n)]


#: input bytes (``Table.nbytes``) of the consecutive row groups that
#: share one assigner call; a larger row group is a call of its own
_CALL_BYTES = 8 << 20


def _assign_row_groups(tables, assign):
    """``assign(t)`` for each table of the iterable ``tables``, in order:
    consecutive tables of at most :data:`_CALL_BYTES` together go to one
    ``assign.many`` call, so they share its fixed per-call cost."""
    group, size = [], 0
    for t in tables:
        if group and size + t.nbytes > _CALL_BYTES:
            yield from assign.many(group)
            group, size = [], 0
        group.append(t)
        size += t.nbytes
    if group:
        yield from assign.many(group)


def _ingest_fragment(path: str, *, out_dir: str, assign, columns) -> None:
    """One fragment, start to commit: read its row groups -> assign ->
    partition write, with the read and assign seconds in ``stage_s``."""
    import pyarrow.parquet as pq

    stage_s = {"read": 0.0, "assign": 0.0}
    pf = pq.ParquetFile(path)

    def row_groups():
        for rg in range(pf.num_row_groups):
            t0 = time.perf_counter()
            t = pf.read_row_group(rg, columns=columns, use_threads=False)
            stage_s["read"] += time.perf_counter() - t0
            yield t

    t0 = time.perf_counter()
    parts = list(_assign_row_groups(row_groups(), assign))
    stage_s["assign"] = time.perf_counter() - t0 - stage_s["read"]
    checkpoint.write_equi7_partition(
        out_dir, Path(path).stem, pa.concat_tables(parts) if parts else None,
        input_fragments=[path], rows_in=pf.metadata.num_rows,  # no second pass
        extra={"stage_s": stage_s})


def run_flagship_checkpointed(
    input_path: str,
    out_dir: str,
    *,
    tiling_id: str = "T6",
    decode: bool = False,
) -> dict:
    """Flagship with per-input-fragment checkpointing: each pending
    fragment of ``input_path`` (one parquet file or a directory of them)
    runs as one ``checkpoint.run_fragments`` task (read -> assign ->
    atomic per-(continent, tile) partitioned write + manifest row with
    lineage, per-tile counts, a data checksum and ``stage_s``
    {read, assign, write}); a rerun skips completed fragments.  Fragments
    run concurrently (they are independent resume units), the input is
    read once (rows_in comes from the fragment metadata, not a second
    pass), and the output layout mirrors the reference's
    ``EQUI7_{continent}/{tilename}/`` directory scheme (warp.py:276-288)
    one level down in each fragment partition.  A fragment that fails
    gets no manifest; the others still commit, then this raises
    ``RuntimeError`` naming the failed fragments.  Returns the manifest
    counter summary."""
    columns = ["image_id", "bytes", "w", "h", "fmt"] if decode else None
    return checkpoint.run_fragments(
        input_path, out_dir, _ingest_fragment,
        dict(assign=make_assign_fn(tiling_id=tiling_id, decode=decode), columns=columns))


def tile_histogram(assignments) -> "pa.Table":
    """Small grouped aggregate over the assignment stream: rows per tile.
    Pre-aggregates inside map_batches (combiner), so at most |tiles|
    rows leave each block; the bounded partials fold on the driver."""

    def partial_counts(batch: pa.Table) -> pa.Table:
        col = batch.column("tile")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        if pa.types.is_dictionary(col.type):
            # dictionary-encoded hot path: bincount the int32 indices --
            # no string materialization at all
            idx = col.indices.to_numpy(zero_copy_only=False)
            counts = np.bincount(idx, minlength=len(col.dictionary))
            nz = np.flatnonzero(counts)
            return pa.table(
                {
                    "tile": col.dictionary.take(pa.array(nz)).cast(pa.string()),
                    "partial_n": pa.array(counts[nz], pa.int64()),
                }
            )
        import pyarrow.compute as pc

        vc = pc.value_counts(col)
        return pa.table(
            {
                "tile": vc.field("values").cast(pa.string()),
                "partial_n": vc.field("counts").cast(pa.int64()),
            }
        )

    partial = assignments.map_batches(partial_counts, batch_format="pyarrow")
    # The partials are <= |tasks| x |tiles| rows -- a few MB even at 10^6
    # tasks -- so the final combine STREAMS them to the driver and folds
    # every ~500k rows with ONE Arrow group_by, keeping memory O(|tiles|).
    # (iter_batches also keeps the map phase at full parallelism: an
    # AllToAllOperator in the same plan makes Ray's resource allocator
    # reserve ~half the CPUs for the pending shuffle -- measured 2x wall
    # -- and Ray's sort-aggregate costs ~40 ms per input block regardless
    # of size: 64 tiny blocks = 2.5 s vs 0.25 s for this combine.  A
    # bounded terminal aggregate is the sanctioned driver-side case.)
    acc: list[pa.Table] = []
    n_acc_rows = 0
    out = None

    def fold(tables: list[pa.Table]):
        merged = pa.concat_tables(tables).group_by("tile") \
            .aggregate([("partial_n", "sum")])
        return merged.rename_columns(["tile", "partial_n"])

    for b in partial.iter_batches(batch_format="pyarrow", batch_size=None):
        t = b if isinstance(b, pa.Table) else pa.Table.from_batches([b])
        acc.append(t)
        n_acc_rows += t.num_rows
        if n_acc_rows >= 500_000:
            acc = [fold(acc)]
            n_acc_rows = acc[0].num_rows
    out = fold(acc) if acc else pa.table(
        {"tile": pa.array([], pa.string()),
         "partial_n": pa.array([], pa.int64())})
    return out.rename_columns(["tile", "n"]).sort_by("tile")
