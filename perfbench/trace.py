"""Spans around the engine's layer functions, recorded from the
benchmark's own files.

``Tracer`` patches each layer function where its caller looks it up
(``equi7grid_ray.stages.tile_assign.tile_ll_from_xy``, a class attribute
for methods) with a wrapper that records the call's duration, the time
its child spans cover, and a few counts taken from its arguments and
result.  A layer's self time is its duration minus its children's.
Spans are kept in memory as per-name sums; nothing inside the engine
changes.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

import numpy as np


def _size(a) -> int:
    return int(np.size(a))


def _rows_in_out(args, res):
    return {"rows": args[1].num_rows, "out": res.num_rows}


def _gather_counts(args, res):
    px = (np.asarray(res.column("win_h"), np.int64) * np.asarray(res.column("win_w"), np.int64))
    return {"rows": args[1].num_rows, "px": int(px.sum())}


def _write_counts(args, res):
    t = args[2]
    return {"rows": t.num_rows if t is not None else 0}


def _raster_write_counts(args, res):
    t = args[2]
    return {"rows": t.num_rows if t is not None else 0,
            "driver_bytes": t.nbytes if t is not None else 0}


#: (module, attribute, span name, counts(args, result) -> dict | None)
SPANS = [
    ("equi7grid_ray.interp", "build_zone_projectors", "interp.build", None),
    ("equi7grid_ray.interp", "CubicGridProjector.__call__", "interp.project",
     lambda a, r: {"rows": _size(a[1])}),
    ("equi7grid_ray.zones", "ZoneClassifier.classify_bits", "zones.classify",
     lambda a, r: {"rows": _size(a[1]), "unzoned": int((r == 0).sum())}),
    ("equi7grid_ray.zones", "ZoneClassifier.classify", "zones.classify",
     lambda a, r: {"rows": _size(a[1]), "unzoned": int((~r.any(axis=1)).sum())}),
    ("equi7grid_ray.stages.tile_assign", "tile_ll_from_xy", "grid.floor",
     lambda a, r: {"rows": _size(a[0])}),
    ("equi7grid_ray.stages.tile_assign", "full_names", "grid.names",
     lambda a, r: {"rows": _size(r)}),
    ("equi7grid_ray.stages.regrid", "full_names", "grid.names",
     lambda a, r: {"rows": _size(r)}),
    ("equi7grid_ray.grid", "full_names", "grid.names", lambda a, r: {"rows": _size(r)}),
    ("equi7grid_ray.grid", "parse_tile_names", "grid.names",
     lambda a, r: {"rows": _size(r["ll_x"])}),
    ("equi7grid_ray.tiling_state", "ContinentTiling.lookup", "tiling_state.lookup",
     lambda a, r: {"rows": _size(r), "miss": int((r < 0).sum())}),
    ("equi7grid_ray.stages.tile_assign", "get_grid_state", "tiling_state.grid_state", None),
    ("equi7grid_ray.stages.regrid", "get_grid_state", "tiling_state.grid_state", None),
    ("equi7grid_ray.stages.tile_assign", "TileAssigner.__call__", "tile_assign.emit",
     _rows_in_out),
    ("equi7grid_ray.stages.tile_assign", "png_stream_stats", "codec.png",
     lambda a, r: {"rows": 1}),
    ("equi7grid_ray.stages.tile_assign", "decode_image", "codec.png_fallback",
     lambda a, r: {"rows": 1}),
    ("pyarrow.parquet", "ParquetFile.read_row_group", "flagship.read",
     lambda a, r: {"rows": r.num_rows}),
    ("pyarrow.parquet", "read_table", "flagship.read", lambda a, r: {"rows": r.num_rows}),
    ("equi7grid_ray.pipelines.flagship", "tile_histogram", "flagship.fold", None),
    ("perfbench.workloads", "px_histogram", "flagship.fold", None),
    ("equi7grid_ray.aeqd", "forward", "aeqd.forward", lambda a, r: {"rows": _size(a[1])}),
    ("equi7grid_ray.aeqd", "inverse", "aeqd.inverse", lambda a, r: {"rows": _size(a[1])}),
    ("equi7grid_ray.stages.regrid", "ExpandTilePairs.__call__", "regrid.expand",
     _rows_in_out),
    ("equi7grid_ray.stages.regrid", "RegridStage.__call__", "regrid.gather",
     _gather_counts),
    ("equi7grid_ray.stages.regrid", "GTiffEncodeStage.__call__", "gtiff.place",
     _rows_in_out),
    ("equi7grid_ray.gtiff", "encode_gtiff", "gtiff.encode",
     lambda a, r: {"rows": 1, "bytes": len(r)}),
    ("equi7grid_ray.state.checkpoint", "write_equi7_partition", "checkpoint.write",
     _write_counts),
    ("equi7grid_ray.state.checkpoint", "write_equi7_raster_partition", "checkpoint.write",
     _raster_write_counts),
    ("equi7grid_ray.state.checkpoint", "table_checksum", "checkpoint.checksum",
     lambda a, r: {"rows": a[0].num_rows}),
]


class Tracer:
    """Context manager: patches every span target on entry, restores the
    originals on exit.  ``stats[name]`` holds ``calls``, ``total`` (s,
    outermost calls only), ``self`` (s) and the summed counts."""

    def __init__(self, spans=SPANS):
        self.spans = spans
        self.stats: dict[str, dict] = defaultdict(lambda: defaultdict(float))
        self._stack: list[list] = []
        self._saved: list[tuple] = []

    def _wrap(self, fn, name, counts):
        stack, stats = self._stack, self.stats

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                s = stats[name]
                s["calls"] += 1
                s["self"] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if not any(f[0] == name for f in stack):
                    s["total"] += dur
            if counts is not None:
                for k, v in counts(args, res).items():
                    s[k] += v
            return res

        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "Tracer":
        for mod_name, attr, name, counts in self.spans:
            owner = importlib.import_module(mod_name)
            *path, leaf = attr.split(".")
            for p in path:
                owner = getattr(owner, p)
            orig = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
            self._saved.append((owner, leaf, orig))
            setattr(owner, leaf, self._wrap(orig, name, counts))
        return self

    def __exit__(self, *exc) -> None:
        for owner, leaf, orig in reversed(self._saved):
            setattr(owner, leaf, orig)
        self._saved.clear()


def cold_caches() -> None:
    """Drop the engine's process-level caches (grid state, zone
    classifier, land polygon, interpolation grids, assigners) so the next
    build pays what a fresh process pays."""
    from equi7grid_ray import interp, land, tiling_state, zones
    from equi7grid_ray.stages import tile_assign

    for mod, name in ((tiling_state, "_states"), (zones, "_classifiers"),
                      (interp, "_CACHE"), (tile_assign, "_PROC_CACHE")):
        getattr(mod, name).clear()
    land._cached = None


class RayDataStats:
    """Collects per-operator wall and UDF time from every Dataset the
    engine consumes (``iter_batches`` / ``materialize``) while active."""

    #: operator-name fragment -> metric slug (first match wins)
    OPERATORS = (("ExpandTilePairs", "expand"), ("RegridStage", "regrid"),
                 ("GTiffEncodeStage", "encode"), ("read_and_assign", "assign"),
                 ("ReadParquet", "read"))

    def __init__(self):
        self.datasets: list = []
        self._saved: list = []

    def __enter__(self) -> "RayDataStats":
        import ray.data as rd

        for attr in ("iter_batches", "materialize"):
            orig = rd.Dataset.__dict__[attr]
            self._saved.append((attr, orig))

            def capture(ds, *a, _orig=orig, **kw):
                self.datasets.append(ds)
                return _orig(ds, *a, **kw)

            setattr(rd.Dataset, attr, capture)
        return self

    def __exit__(self, *exc) -> None:
        import ray.data as rd

        for attr, orig in self._saved:
            setattr(rd.Dataset, attr, orig)
        self._saved.clear()

    def operator_seconds(self) -> dict[str, dict[str, float]]:
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"wall_s": 0.0, "udf_s": 0.0})
        seen = set()

        def walk(summary):
            for op in summary.operators_stats:
                slug = next((s for frag, s in self.OPERATORS if frag in op.operator_name), None)
                key = (id(summary), op.operator_name)
                if slug is None or key in seen:
                    continue
                seen.add(key)
                out[slug]["wall_s"] += (op.wall_time or {}).get("sum", 0.0)
                out[slug]["udf_s"] += (op.udf_time or {}).get("sum", 0.0)
            for p in summary.parents:
                walk(p)

        for ds in self.datasets:
            walk(ds._get_stats_summary())
        return dict(out)
