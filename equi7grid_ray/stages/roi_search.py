"""Batched ROI -> tiles search over a Dataset of ROI rows.

The 10^12-row version of the reference's ``get_tiles_in_geog_bbox``
(SURVEY 3.2 / north-rule "groupby-aggregate shuffle keyed on coarse
cells"): every input row carries its own small bbox; the stage probes a
(2k+1)^2 lon/lat grid per ROI (vectorized across the whole batch), zone
classifies all probes at once, projects per continent and floors to
tiles.  Exact for ROIs up to ~2 probe spacings smaller than a tile --
the intended shape for per-scene footprints; arbitrarily large ROIs go
through the atlas-based driver API (equi7grid_ray.roi).

Downstream the tile (or its coarse cell) is the shuffle key; use
``cells.salt_keys`` for the EU/AS hot zones before a groupby.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from equi7grid_ray import aeqd
from equi7grid_ray.grid import GridSpec, tile_ll_from_xy
from equi7grid_ray.tiling_state import get_grid_state

__all__ = ["BBoxTilesStage", "roi_tile_counts"]


class BBoxTilesStage:
    """map_batches: rows (roi_id, lon_min, lat_min, lon_max, lat_max) ->
    rows (roi_id, continent, tile) per overlapped tile."""

    def __init__(self, tiling_id: str = "T6", spec: GridSpec | None = None,
                 probes_per_axis: int | None = None):
        self.spec = spec or GridSpec.standard()
        self.state = get_grid_state(self.spec)
        self.tiling = self.spec.tiling_name(tiling_id)
        self.tile_size = self.spec.tile_size(tiling_id)
        self.index = self.state.tile_index(self.tiling)
        self.k = probes_per_axis

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        lon0 = batch.column("lon_min").to_numpy(zero_copy_only=False)
        lat0 = batch.column("lat_min").to_numpy(zero_copy_only=False)
        lon1 = batch.column("lon_max").to_numpy(zero_copy_only=False)
        lat1 = batch.column("lat_max").to_numpy(zero_copy_only=False)

        index = self.index
        out_row: list[np.ndarray] = []
        out_tidx: list[np.ndarray] = []

        # per-ROW probe density: one batch-wide k keyed off the largest
        # bbox over-probes mixed batches 25x (a 16x16 grid for every
        # footprint-sized ROI), so rows are bucketed by their own span
        # and each bucket probed at its own density
        if self.k is not None:
            buckets = [(np.arange(n), self.k)]
        else:
            span = np.maximum(lon1 - lon0, lat1 - lat0)
            krow = np.clip(np.ceil(span / 0.15).astype(np.int64) + 1, 3, 16)
            buckets = [
                (np.flatnonzero(krow == kv), int(kv))
                for kv in np.unique(krow)
            ]

        for sub, k in buckets:
            if len(sub) == 0:
                continue
            f = np.linspace(0.0, 1.0, k)
            # probe grid per ROI: (k*k, len(sub))
            pl = lon0[sub][None, :] + np.repeat(f, k)[:, None] * (lon1 - lon0)[sub][None, :]
            pb = lat0[sub][None, :] + np.tile(f, k)[:, None] * (lat1 - lat0)[sub][None, :]
            member = self.state.zc.classify(pl.ravel(), pb.ravel()).reshape(
                k * k, len(sub), -1
            )
            for rank, (cont, zc_col) in enumerate(zip(index.continents, index.zone_cols)):
                m = member[:, :, zc_col]
                if not m.any():
                    continue
                pr, rows = np.nonzero(m)
                x, y = aeqd.forward(cont, pl[pr, rows], pb[pr, rows])
                llx, lly = tile_ll_from_xy(x, y, self.tile_size)
                pos = index.locate(rank, llx, lly)
                ok = pos >= 0
                grows = sub[rows[ok]]  # back to batch row ids
                key = grows * np.int64(1 << 32) + pos[ok]
                _, uniq = np.unique(key, return_index=True)
                out_row.append(grows[uniq])
                out_tidx.append(pos[ok][uniq])

        if not out_row:
            return pa.table({
                "roi_id": batch.column("roi_id").take(pa.array(np.empty(0, np.int64))),
                "continent": pa.array([], pa.string()),
                "tile": pa.array([], pa.string()),
            })
        rows = np.concatenate(out_row)
        tidx = np.concatenate(out_tidx)
        conts = np.asarray(index.continents, "U2")[index.rank[tidx]]
        return pa.table({
            "roi_id": batch.column("roi_id").take(pa.array(rows)),
            "continent": pa.array(conts),
            "tile": pa.array(index.names[tidx]),
        })


def roi_tile_counts(ds, tiling_id: str = "T6", spec: GridSpec | None = None,
                    batch_size: int = 8192):
    """ROI rows -> per-tile ROI counts ``n``: the coarse-cell-keyed
    groupby-aggregate shuffle with per-batch partials
    (``tilestats.tile_counts``)."""
    from equi7grid_ray.stages.tilestats import tile_counts

    hits = ds.map_batches(
        BBoxTilesStage,
        fn_constructor_kwargs=dict(tiling_id=tiling_id, spec=spec),
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=(1, 8),
        num_cpus=1,
    )
    return tile_counts(hits, name="n")
