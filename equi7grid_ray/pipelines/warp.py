"""End-to-end warp pipeline: the ``resample_to_equi7_tiles`` and
``get_overlapping_tiles`` surface (the reference's warp.py:333-401
router, :404-420 name resolution, :424-578 fan-out) as a resumable Ray
Data pipeline.

The reference fans out one mp.Pool task per tile (warp.py:567-574).
Here ``checkpoint.run_fragments`` runs each pending input fragment as one
Ray task, and ``_warp_fragment`` is that task's body: it reads the
fragment with pyarrow, runs expand -> regrid -> [tile filter] ->
[GeoTIFF encode] with stage objects it builds itself, and commits its
own ``part-<fragment>`` directory and manifest through the partition
writers of ``state/checkpoint.py``.  The Ray driver receives one small
summary row per fragment; no pixel or tile bytes pass through it.  The
fragment is the resume unit: a rerun skips every fragment whose manifest
exists.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from pathlib import Path

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from equi7grid_ray import roi as roi_mod
from equi7grid_ray.grid import GridSpec
from equi7grid_ray.stages.regrid import (
    GTiffEncodeStage,
    expand_and_regrid,
    expansion_grid,
    task_cap,
)
from equi7grid_ray.state import checkpoint

__all__ = ["get_overlapping_tiles", "ftilenames_to_tiles", "resample_to_equi7_tiles"]


def get_overlapping_tiles(
    *,
    xy_bbox_map: dict | None = None,
    geog_bbox=None,
    roi_geom=None,
    tiling_id: str = "T6",
    cover_land: bool = False,
    spec: GridSpec | None = None,
) -> list[str]:
    """Dispatch router (warp.py:333-401): exactly one ROI flavour must be
    given; raises ValueError otherwise."""
    given = [v is not None for v in (xy_bbox_map, geog_bbox, roi_geom)]
    if sum(given) != 1:
        raise ValueError(
            "give exactly one of xy_bbox_map / geog_bbox / roi_geom"
        )
    if xy_bbox_map is not None:
        out: list[str] = []
        for continent, bbox in xy_bbox_map.items():
            out.extend(
                roi_mod.tiles_in_proj_bbox(
                    continent, bbox, tiling_id, cover_land=cover_land, spec=spec
                )
            )
        return out
    if geog_bbox is not None:
        return roi_mod.tiles_in_geog_bbox(
            geog_bbox, tiling_id, cover_land=cover_land, spec=spec
        )
    return roi_mod.tiles_in_geom(
        roi_geom, tiling_id, cover_land=cover_land, spec=spec
    )


def ftilenames_to_tiles(ftilenames: list[str], spec: GridSpec | None = None):
    """Full tilenames -> TileInfo list (warp.py:404-420)."""
    from equi7grid_ray import api

    return [api.get_tile_from_name(n, spec) for n in ftilenames]


def _warp_fragment(path: str, *, out_dir: str, out_format: str,
                   batch_size: int, keep: list[str] | None, naming_traffo,
                   regrid_kw: dict, encode_kw: dict) -> None:
    """One fragment, start to commit: read -> expand -> regrid -> [tile
    filter] -> [encode] -> partition write."""
    pid = Path(path).stem
    t0 = time.perf_counter()
    t = pq.read_table(path, use_threads=False)
    stage_s = {"read": time.perf_counter() - t0, "expand": 0.0, "regrid": 0.0,
               "encode": 0.0}
    wins = expand_and_regrid(t, batch_size=batch_size, stage_s=stage_s, **regrid_kw)
    pairs = wins.num_rows if wins is not None else 0
    if wins is not None and keep is not None:
        wins = wins.filter(pc.is_in(wins.column("tile").cast(pa.string()),
                                    value_set=pa.array(keep, pa.string())))
    facts = {"pairs": pairs, "windows_empty": 0, "stage_s": stage_s}
    common = dict(input_fragments=[path], rows_in=t.num_rows, extra=facts)
    if out_format == "parquet":
        checkpoint.write_equi7_partition(
            out_dir, pid, wins, naming_traffo=naming_traffo, **common)
        return
    t0 = time.perf_counter()
    tifs = None
    if wins is not None and wins.num_rows:
        encode = GTiffEncodeStage(naming_traffo=naming_traffo, stem=pid, **encode_kw)
        step = max(1, batch_size // 64)  # whole-tile payloads
        tifs = pa.concat_tables(encode(wins.slice(s, step))
                                for s in range(0, wins.num_rows, step))
        facts["windows_empty"] = wins.num_rows - tifs.num_rows
    stage_s["encode"] = time.perf_counter() - t0
    checkpoint.write_equi7_raster_partition(out_dir, pid, tifs, **common)


def resample_to_equi7_tiles(
    input_path: str,
    out_dir: str,
    *,
    tiling_id: str = "T6",
    spec: GridSpec | None = None,
    ftilenames: list[str] | None = None,
    resampling: str = "nearest",
    naming_traffo: Callable[[str, str], str] | None = None,
    out_format: str = "parquet",
    nodata: float = 0,
    src_crs: str = "geog",
    src_res: float | None = None,
    compress_type: str = "deflate",
    tif_is_tiled: bool = False,
    tile_blocksize: int = 256,
    tif_overviews: tuple[int, ...] | None = None,
    batch_size: int = 1024,
    concurrency=(1, 8),
) -> dict:
    """Image parquet -> regridded tiles, resumable per input fragment.
    ``input_path`` is one fragment file or a directory of ``*.parquet``
    fragments.

    ``out_format="parquet"`` writes pixel-window rows per tile;
    ``out_format="gtiff"`` writes one full-tile GeoTIFF per (image,
    tile) -- the reference's actual sink (warp.py:290-330: compress /
    tiled / blocksize kwargs map to ``compress_type``
    ("deflate"|"none"|"lzw"; the reference's zstd needs libzstd, absent
    here), ``tif_is_tiled`` and ``tile_blocksize``).

    The source grid is ``src_crs`` ('geog' or 'webmercator') at
    ``src_res`` units per pixel: degrees for geog (default
    ``SRC_RES_DEG``), metres for webmercator (default 1000); see
    ``stages.regrid.SourceGrid``.  Any other ``src_crs`` raises
    ValueError before a fragment runs.

    Every pending fragment is one ``checkpoint.run_fragments`` task (one
    CPU; at most ``task_cap(concurrency)`` at a time) that regrids,
    encodes and writes its ``EQUI7_{continent}/{tile}/`` partition and
    manifest itself; the manifest also records ``pairs``,
    ``windows_empty`` and per-stage seconds (``stage_s``).  A fragment
    that fails gets no manifest; the others still commit, then this
    raises ``RuntimeError`` naming the failed fragments.

    ``ftilenames`` restricts output to an explicit tile list (the
    reference's explicit-tiles path); ``naming_traffo(stem, ftilename)``
    customizes file stems (warp.py:243-248 hook).
    Returns the manifest counter summary."""
    if out_format not in ("parquet", "gtiff"):
        raise ValueError(f"unknown out_format {out_format!r}")
    expansion_grid(src_crs, src_res)
    kw = dict(
        out_format=out_format, batch_size=batch_size,
        keep=sorted(set(ftilenames)) if ftilenames else None,
        naming_traffo=naming_traffo,
        regrid_kw=dict(
            tiling_id=tiling_id, spec=spec, resampling=resampling,
            nodata=nodata, src_crs=src_crs, src_res=src_res,
        ),
        encode_kw=dict(
            tiling_id=tiling_id, spec=spec, compress=compress_type,
            tiled_tif=tif_is_tiled, blocksize=tile_blocksize,
            overviews=tif_overviews,
        ),
    )
    return checkpoint.run_fragments(input_path, out_dir, _warp_fragment, kw,
                                    max_tasks=task_cap(concurrency))
