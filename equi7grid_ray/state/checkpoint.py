"""Per-partition checkpoint manifests: resumable output, lineage,
counters (north-rule component; the reference has no counterpart --
its mp.Pool fan-out silently drops failed tasks, warp.py:567-576).

Layout: one output directory per logical partition (one input
fragment), written atomically (tmp dir + rename), plus one manifest
JSON row per completed partition:

    out_dir/
      _manifest/part-<id>.json   {partition_id, input_fragments, rows_in,
                                  rows_out, n_tiles, tile_counts, checksum,
                                  stem, engine_version, ts, ...extra}
      part-<id>/EQUI7_<continent>/<tile>/...

``commit_partition`` is the one commit path: it skips a partition whose
manifest exists, streams ``(relative path, bytes)`` pairs into
``.tmp-part-<id>``, renames it to ``part-<id>`` and records the manifest
row.  ``write_equi7_partition`` (parquet, one file per tile) and
``write_equi7_raster_partition`` (pre-encoded GeoTIFF bytes) are thin
wrappers that each keep their own checksum and ``tile_counts``
spelling, so manifests written before stay valid for resume.
``tile_counts`` holds every tile of the partition.  A nested
``extra["stage_s"]`` dict gets ``write``, the commit's own seconds; it
stays nested so ``Manifest.counters()`` (which totals top-level
numbers) skips it.

``run_fragments`` is the one fragment runner: it resolves the input
fragments, drops those ``pending_partitions`` says are done, runs one Ray
task per pending fragment that commits its own partition, and raises
one ``RuntimeError`` naming every fragment that failed (the others still
commit; a rerun redoes only the failed ones).
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
import traceback
from collections import Counter
from collections.abc import Callable, Iterable
from pathlib import Path

__all__ = [
    "Manifest",
    "commit_partition",
    "write_equi7_partition",
    "write_equi7_raster_partition",
    "table_checksum",
    "pending_partitions",
    "fragment_paths",
    "run_fragments",
]

ENGINE_VERSION = 1


class Manifest:
    def __init__(self, out_dir: str | Path):
        self.root = Path(out_dir)
        self.mdir = self.root / "_manifest"
        self.mdir.mkdir(parents=True, exist_ok=True)

    def done(self, partition_id: str) -> bool:
        return (self.mdir / f"part-{partition_id}.json").exists()

    def record(self, partition_id: str, **info) -> None:
        p = self.mdir / f"part-{partition_id}.json"
        tmp = p.with_suffix(".tmp")
        info = {"partition_id": partition_id, "engine_version": ENGINE_VERSION,
                "ts": time.time(), **info}
        tmp.write_text(json.dumps(info))
        tmp.rename(p)

    def load_all(self) -> list[dict]:
        return [json.loads(f.read_text()) for f in sorted(self.mdir.glob("part-*.json"))]

    def counters(self) -> dict:
        tot: dict[str, float] = {}
        for m in self.load_all():
            for k, v in m.items():
                if isinstance(v, (int, float)) and k not in ("ts", "engine_version"):
                    tot[k] = tot.get(k, 0) + v
        return tot


def commit_partition(out_dir: str | Path, pid: str, files: Iterable[tuple[str, bytes]], *,
                     input_fragments: list[str] | None, rows_in: int, rows_out: int,
                     tile_counts: dict[str, int], checksum: Callable[[], str], stem: str,
                     extra: dict | None) -> str | None:
    """Atomically commit partition ``pid``: write each ``(relative path,
    bytes)`` pair of ``files`` (consumed one at a time) under a fresh
    ``.tmp-part-<pid>``, rename it to ``part-<pid>`` and record the
    manifest row.  ``checksum`` is called once the files are written, so
    a digest can be taken as they stream past.  Returns the partition
    path, or None (nothing consumed) when the manifest marks ``pid``
    complete."""
    t0 = time.perf_counter()
    man = Manifest(out_dir)
    if man.done(pid):
        return None
    tmp = man.root / f".tmp-part-{pid}"
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir(parents=True)
    for rel, data in files:
        f = tmp / rel
        f.parent.mkdir(parents=True, exist_ok=True)
        f.write_bytes(data)
    pdir = man.root / f"part-{pid}"
    if pdir.exists():
        shutil.rmtree(pdir)
    tmp.rename(pdir)
    digest = checksum()
    extra = dict(extra or {})
    if isinstance(extra.get("stage_s"), dict):
        extra["stage_s"] = {**extra["stage_s"], "write": time.perf_counter() - t0}
    man.record(
        pid,
        input_fragments=input_fragments or [],
        rows_in=rows_in,
        rows_out=rows_out,
        n_tiles=len(tile_counts),
        tile_counts=tile_counts,
        checksum=digest,
        stem=stem,
        **extra,
    )
    return str(pdir)


def table_checksum(table) -> str:
    """sha256 over the LOGICAL content of every column (sorted column
    order) + the row count -- a real DATA digest, not a schema hash.

    Canonicalized via Arrow IPC serialization of a combined-chunks copy:
    raw value buffers include slice offsets, padding and bytes outside the
    logical slice, so hashing them directly makes the digest depend on how
    the table was assembled (take/slice vs concat) rather than on what it
    contains (round-2 advisor, low)."""
    import pyarrow as pa
    import pyarrow.ipc as ipc

    checksum = hashlib.sha256()
    canon = table.select(sorted(table.column_names)).combine_chunks()
    # IPC truncates but does not REBASE variable-length offset buffers of
    # sliced arrays (a slice's string offsets still start at a nonzero
    # value), so rebuild compactly when any chunk carries a slice offset
    if any(c.offset != 0 for col in canon.columns for c in col.chunks):
        import numpy as np

        canon = canon.take(pa.array(np.arange(canon.num_rows), pa.int64()))
    sink = pa.BufferOutputStream()
    with ipc.new_stream(sink, canon.schema) as writer:
        writer.write_table(canon)
    checksum.update(memoryview(sink.getvalue()))
    checksum.update(str(table.num_rows).encode())
    return checksum.hexdigest()[:16]


def write_equi7_partition(
    out_dir: str | Path,
    partition_id: str,
    table,
    *,
    input_fragments: list[str] | None = None,
    rows_in: int | None = None,
    naming_traffo=None,
    row_group_size: int = 65_536,
    extra: dict | None = None,
) -> str | None:
    """Atomically write one fragment partition in the reference's
    ``EQUI7_{continent}/{tilename}/`` layout (warp.py:276-288), one file
    per tile named ``naming_traffo(stem, f"{continent}_{tile}")``
    (default ``{stem}_{continent}_{tile}.parquet``), plus a manifest row
    with lineage, per-tile counts and a data checksum
    (``table_checksum``).

    The parquet sink of run_flagship_checkpointed and
    resample_to_equi7_tiles.  ``table`` must carry ``continent`` and
    ``tile`` columns.  Returns the partition path, or None when the
    manifest says it is already complete."""
    import pyarrow as pa
    import pyarrow.compute as pc

    n = table.num_rows if table is not None else 0
    files, tile_counts, checksum = (), {}, lambda: ""
    if n:
        vc = pc.value_counts(table.column("tile").cast(pa.string()))
        tile_counts = {str(d["values"]): int(d["counts"]) for d in vc.to_pylist()}
        files = _tile_parquet_files(table, partition_id, naming_traffo, row_group_size)
        checksum = lambda: table_checksum(table)  # noqa: E731
    return commit_partition(
        out_dir, partition_id, files,
        input_fragments=input_fragments,
        rows_in=n if rows_in is None else rows_in,
        rows_out=n,
        tile_counts=tile_counts,
        checksum=checksum,
        stem=partition_id if naming_traffo is None else naming_traffo(partition_id, ""),
        extra=extra,
    )


def _tile_parquet_files(table, pid: str, naming_traffo, row_group_size: int):
    """``(relative path, parquet bytes)`` per tile of ``table``, rows
    sorted stably by (continent, tile)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    cont = table.column("continent").cast(pa.string()).to_numpy(zero_copy_only=False)
    tile = table.column("tile").cast(pa.string()).to_numpy(zero_copy_only=False)
    key = np.char.add(np.char.add(cont.astype("U2"), "/"), tile.astype("U16"))
    order = np.argsort(key, kind="stable")
    sm = table.take(pa.array(order))
    skey = key[order]
    cuts = np.flatnonzero(np.concatenate([[True], skey[1:] != skey[:-1]]))
    bounds = np.concatenate([cuts, [len(skey)]])
    for i, st in enumerate(cuts):
        c, t = skey[st].split("/")
        # reference layout (warp.py:276-288): directory is the PARTIAL
        # tile name (EQUI7_AS/E018N072T6), file suffix the full name
        # (AS_E018N072T6); full-named tile columns are normalized here
        part_name = t.removeprefix(f"{c}_")
        ftile = f"{c}_{part_name}"
        fname = (naming_traffo(pid, ftile) if naming_traffo is not None
                 else f"{pid}_{ftile}.parquet")
        buf = pa.BufferOutputStream()
        pq.write_table(sm.slice(st, int(bounds[i + 1] - st)), buf,
                       row_group_size=row_group_size)
        yield f"EQUI7_{c}/{part_name}/{fname}", buf.getvalue()


def write_equi7_raster_partition(
    out_dir: str | Path,
    partition_id: str,
    table,
    *,
    input_fragments: list[str] | None = None,
    rows_in: int | None = None,
    extra: dict | None = None,
) -> str | None:
    """Atomically write one partition of PRE-ENCODED raster files in the
    reference's ``EQUI7_{continent}/{tilename}/`` layout (warp.py:276-288
    via rasterio.open(...,'w'); here the bytes arrive already encoded by
    GTiffEncodeStage and this writer only places files, in the task that
    encoded them).  The checksum is a sha256 over the payloads in row
    order.

    ``table`` columns: ``continent``, ``tile`` (partial or full name),
    ``fname``, ``data`` (binary).  Returns the partition path, or None
    when the manifest marks it complete (resume)."""
    import pyarrow as pa

    n = table.num_rows if table is not None else 0
    csum = hashlib.sha256()
    files, tile_counts = (), {}
    if n:
        cont = table.column("continent").cast(pa.string()).to_pylist()
        tile = table.column("tile").cast(pa.string()).to_pylist()
        parts = [t.removeprefix(f"{c}_") for c, t in zip(cont, tile)]
        tile_counts = dict(sorted(Counter(parts).items()))
        fname = table.column("fname").cast(pa.string()).to_pylist()

        def files_and_digest():
            for c, p, f, d in zip(cont, parts, fname, table.column("data")):
                payload = d.as_buffer()
                csum.update(payload)
                yield f"EQUI7_{c}/{p}/{f}", payload

        files = files_and_digest()
    return commit_partition(
        out_dir, partition_id, files,
        input_fragments=input_fragments,
        rows_in=n if rows_in is None else rows_in,
        rows_out=n,
        tile_counts=tile_counts,
        checksum=csum.hexdigest,
        stem=partition_id,
        extra=extra,
    )


def pending_partitions(out_dir: str | Path, partition_ids: list[str]) -> list[str]:
    """The subset of partitions still to compute (resume support)."""
    man = Manifest(out_dir)
    return [p for p in partition_ids if not man.done(p)]


def fragment_paths(input_path: str | Path) -> list[str]:
    """The input fragments of ``input_path``: the file itself, or every
    ``*.parquet`` directly under a directory, sorted.  A fragment's
    partition id is its file stem."""
    p = Path(input_path)
    frags = [str(p)] if p.is_file() else sorted(str(f) for f in p.glob("*.parquet"))
    if not frags:
        raise ValueError(f"no parquet fragments under {input_path}")
    return frags


def run_fragments(input_path: str | Path, out_dir: str | Path,
                  commit_fragment: Callable[..., None], fn_kwargs: dict,
                  *, max_tasks: int | None = None) -> dict:
    """Commit every pending fragment of ``input_path`` as one partition
    of ``out_dir``; returns the manifest counter totals.

    One Ray Data pass: each pending fragment is one task-based
    ``map_batches`` task (one CPU; at most ``max_tasks`` at a time) that
    calls ``commit_fragment(path, out_dir=out_dir, **fn_kwargs)``, which
    must commit the fragment's partition itself.  The driver collects
    one ``(partition_id, error)`` row per fragment.  A fragment that
    raises gets no manifest while the others still commit; then this
    raises ``RuntimeError`` naming every failed fragment."""
    import ray.data as rd

    frags = {Path(f).stem: f for f in fragment_paths(input_path)}
    todo = [frags[p] for p in pending_partitions(out_dir, list(frags))]
    if todo:
        ds = rd.from_items([{"path": f} for f in todo], override_num_blocks=len(todo))
        summary = ds.map_batches(
            _commit_fragments, batch_format="pyarrow", batch_size=1,
            fn_kwargs=dict(commit_fragment=commit_fragment, out_dir=str(out_dir),
                           fn_kwargs=fn_kwargs),
            concurrency=min(max_tasks or len(todo), len(todo)), num_cpus=1,
        ).take_all()
        failed = [f"{r['partition_id']}: {r['error']}" for r in summary if r["error"]]
        if failed:
            raise RuntimeError(f"{len(failed)} of {len(todo)} fragments failed:\n"
                               + "\n".join(failed))
    return Manifest(out_dir).counters()


def _commit_fragments(batch, *, commit_fragment, out_dir: str, fn_kwargs: dict):
    """map_batches task over fragment paths: commit each one, and report
    its error (with the traceback tail) instead of raising, so the other
    fragments of the pass still commit."""
    import pyarrow as pa

    pids, errors = [], []
    for path in batch.column("path").to_pylist():
        try:
            commit_fragment(path, out_dir=out_dir, **fn_kwargs)
            errors.append("")
        except Exception as e:  # reported per fragment; the driver raises
            tb = "".join(traceback.format_exception(e))
            errors.append(f"{type(e).__name__}: {e}\n{tb[-1500:]}")
        pids.append(Path(path).stem)
    return pa.table({"partition_id": pa.array(pids, pa.string()),
                     "error": pa.array(errors, pa.string())})
