"""Per-partition checkpoint manifests: resumable output, lineage,
counters (north-rule component; the reference has no counterpart --
its mp.Pool fan-out silently drops failed tasks,
/root/reference/src/equi7grid/warp.py:567-576).

Layout: one output directory per logical partition (input fragment or
key range), written atomically (tmp dir + rename), plus one manifest
JSON row per completed partition:

    out_dir/
      _manifest/part-<id>.json   {partition_id, input_fragments, rows_in,
                                  rows_out, tile_counts, checksum,
                                  wall_sec, engine_version, ...extra}
      part-<id>/...parquet

``tile_counts`` holds every tile of the partition.  The warp sink passes
``extra={"pairs", "windows_empty", "stage_s"}``; the writers fill in
``stage_s["write"]``, and ``stage_s`` stays nested so that
``Manifest.counters()`` (which totals top-level numbers) skips it.

On restart, ``pending_partitions`` skips every partition whose manifest
exists -- a failed run re-does only unfinished partitions.  A
``CounterActor`` (named detached-lite actor) aggregates in-flight
counters across tasks for progress/metrics.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from pathlib import Path

__all__ = [
    "Manifest",
    "write_partition",
    "write_equi7_partition",
    "table_checksum",
    "pending_partitions",
    "CounterActor",
    "get_counter",
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


def write_partition(
    out_dir: str | Path,
    partition_id: str,
    table,
    *,
    input_fragments: list[str] | None = None,
    rows_in: int | None = None,
    extra: dict | None = None,
) -> str | None:
    """Atomically write one partition (skip if its manifest exists).

    Returns the partition path, or None when already complete."""
    import pyarrow.parquet as pq

    man = Manifest(out_dir)
    if man.done(partition_id):
        return None
    pdir = man.root / f"part-{partition_id}"
    tmp = man.root / f".tmp-part-{partition_id}"
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir(parents=True)
    pq.write_table(table, tmp / "data.parquet", row_group_size=65_536)
    if pdir.exists():
        shutil.rmtree(pdir)
    tmp.rename(pdir)

    # real DATA checksum (advisor round-1 fix): see table_checksum
    digest = table_checksum(table)
    tile_counts = {}
    if "tile" in table.column_names:
        import pyarrow.compute as pc

        vc = pc.value_counts(table.column("tile"))
        tile_counts = {str(d["values"]): int(d["counts"]) for d in vc.to_pylist()}
    man.record(
        partition_id,
        input_fragments=input_fragments or [],
        rows_in=rows_in if rows_in is not None else table.num_rows,
        rows_out=table.num_rows,
        n_tiles=len(tile_counts),
        tile_counts=tile_counts,
        checksum=digest,
        **(extra or {}),
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
    with lineage, per-tile counts and a data checksum.

    The shared implementation behind run_flagship_checkpointed and
    resample_to_equi7_tiles (previously triplicated).  ``table`` must
    carry ``continent`` and ``tile`` columns.  Returns the partition
    path, or None when the manifest says it is already complete."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    t0 = time.perf_counter()
    man = Manifest(out_dir)
    if man.done(partition_id):
        return None
    pid = partition_id
    stem = pid if naming_traffo is None else naming_traffo(pid, "")
    tmp = man.root / f".tmp-part-{pid}"
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir(parents=True)
    if table is None or table.num_rows == 0:
        pdir = man.root / f"part-{pid}"
        if pdir.exists():
            shutil.rmtree(pdir)
        tmp.rename(pdir)
        man.record(pid, input_fragments=input_fragments or [],
                   rows_in=rows_in or 0, rows_out=0, n_tiles=0,
                   tile_counts={}, checksum="", stem=stem,
                   **_with_write_s(extra, t0))
        return str(pdir)

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
        fname = (
            naming_traffo(pid, ftile)
            if naming_traffo is not None
            else f"{pid}_{ftile}.parquet"
        )
        d = tmp / f"EQUI7_{c}" / part_name
        d.mkdir(parents=True, exist_ok=True)
        pq.write_table(sm.slice(st, int(bounds[i + 1] - st)), d / fname,
                       row_group_size=row_group_size)
    pdir = man.root / f"part-{pid}"
    if pdir.exists():
        shutil.rmtree(pdir)
    tmp.rename(pdir)
    vc = pc.value_counts(table.column("tile").cast(pa.string()))
    tile_counts = {str(d_["values"]): int(d_["counts"]) for d_ in vc.to_pylist()}
    man.record(
        pid,
        input_fragments=input_fragments or [],
        rows_in=rows_in if rows_in is not None else table.num_rows,
        rows_out=table.num_rows,
        n_tiles=len(vc),
        tile_counts=tile_counts,
        checksum=table_checksum(table),
        stem=stem,
        **_with_write_s(extra, t0),
    )
    return str(pdir)


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
    encoded them).

    ``table`` columns: ``continent``, ``tile`` (partial or full name),
    ``fname``, ``data`` (binary).  Returns the partition path, or None
    when the manifest marks it complete (resume)."""
    import hashlib

    import pyarrow as pa

    t0 = time.perf_counter()
    man = Manifest(out_dir)
    if man.done(partition_id):
        return None
    pid = partition_id
    tmp = man.root / f".tmp-part-{pid}"
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir(parents=True)
    csum = hashlib.sha256()
    tile_counts: dict[str, int] = {}
    if table is not None and table.num_rows:
        cont = table.column("continent").cast(pa.string()).to_pylist()
        tile = table.column("tile").cast(pa.string()).to_pylist()
        fname = table.column("fname").cast(pa.string()).to_pylist()
        data = table.column("data")
        for i, (c, t, f) in enumerate(zip(cont, tile, fname)):
            part_name = t.removeprefix(f"{c}_")
            d = tmp / f"EQUI7_{c}" / part_name
            d.mkdir(parents=True, exist_ok=True)
            payload = data[i].as_py()
            (d / f).write_bytes(payload)
            csum.update(payload)
            tile_counts[part_name] = tile_counts.get(part_name, 0) + 1
    pdir = man.root / f"part-{pid}"
    if pdir.exists():
        shutil.rmtree(pdir)
    tmp.rename(pdir)
    man.record(
        pid,
        input_fragments=input_fragments or [],
        rows_in=rows_in if rows_in is not None else
        (table.num_rows if table is not None else 0),
        rows_out=table.num_rows if table is not None else 0,
        n_tiles=len(tile_counts),
        tile_counts=dict(sorted(tile_counts.items())),
        checksum=csum.hexdigest(),
        stem=pid,
        **_with_write_s(extra, t0),
    )
    return str(pdir)


def _with_write_s(extra: dict | None, t0: float) -> dict:
    """``extra`` for a manifest row; a nested ``stage_s`` dict in it gets
    ``write``: the writer's seconds since ``t0``, up to the manifest."""
    extra = dict(extra or {})
    if isinstance(extra.get("stage_s"), dict):
        extra["stage_s"] = {**extra["stage_s"], "write": time.perf_counter() - t0}
    return extra


def pending_partitions(out_dir: str | Path, partition_ids: list[str]) -> list[str]:
    """The subset of partitions still to compute (resume support)."""
    man = Manifest(out_dir)
    return [p for p in partition_ids if not man.done(p)]


class CounterActor:
    """Shared mutable counters (the one piece of state the Dataset API
    can't express).  Instantiate via ``get_counter(name)``."""

    def __init__(self):
        self._c: dict[str, float] = {}

    def add(self, key: str, value: float = 1.0) -> None:
        self._c[key] = self._c.get(key, 0.0) + value

    def get(self, key: str) -> float:
        return self._c.get(key, 0.0)

    def all(self) -> dict[str, float]:
        return dict(self._c)


def get_counter(name: str = "e7ray_counters"):
    """Get-or-create the named counter actor (survives across jobs in a
    session; call ``ray.kill`` to drop)."""
    import ray

    try:
        return ray.get_actor(name)
    except ValueError:
        return (
            ray.remote(CounterActor)
            .options(name=name, lifetime="detached", get_if_exists=True)
            .remote()
        )
