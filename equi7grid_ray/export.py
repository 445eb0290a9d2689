"""Export surface: tiles inventory -> Arrow/Parquet, grid definitions ->
JSON, tiling systems -> OGC TileMatrixSet JSON, tile boundaries -> WKT.

Mirrors the reference's export block (to_grid_def/to_file at
/root/reference/src/equi7grid/core.py:605-648, write_grid_def at
_create_grids.py:103-108, and the to_geodataframe/to_shapefile/
to_ogc_standard exports shown in docs/guides/tiling_system.ipynb).
Shapefile/GeoDataFrame need fiona/geopandas (absent) -- the tabular
equivalent here is an Arrow table of tiles with WKT geometry, written
to Parquet (a GeoDataFrame is one `gpd.GeoSeries.from_wkt` away for
reference users)."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pyarrow as pa

from equi7grid_ray.constants import CONTINENTS
from equi7grid_ray.grid import GridSpec
from equi7grid_ray.tiling_state import get_grid_state

__all__ = ["tiles_table", "write_tiles_parquet", "to_ogc_tms_json", "write_grid_def"]


def tiles_table(
    tiling_id: str = "T6",
    *,
    spec: GridSpec | None = None,
    continents: list[str] | None = None,
    with_wkt: bool = True,
) -> pa.Table:
    """The full tile inventory as an Arrow table (tile, continent, ll_x,
    ll_y, tile_size, sampling, covers_land [, boundary_wkt])."""
    spec = spec or GridSpec.standard()
    index = get_grid_state(spec).tile_index(tiling_id)
    t = index.tile_size
    s = spec.sampling_of(tiling_id)
    parts = []
    for c in continents or index.continents:
        ct = index.tilings[c]
        n = len(ct.ll_x)
        cols = {
            "tile": pa.array(index.continent_names(c).tolist()),
            "continent": pa.array([c] * n),
            "ll_x": pa.array(ct.ll_x, pa.float64()),
            "ll_y": pa.array(ct.ll_y, pa.float64()),
            "tile_size": pa.array(np.full(n, t), pa.float64()),
            "sampling": pa.array(np.full(n, s), pa.float64()),
            "covers_land": pa.array(ct.covers_land, pa.bool_()),
        }
        if with_wkt:
            x0 = ct.ll_x
            y0 = ct.ll_y
            x1 = ct.ll_x + t
            y1 = ct.ll_y + t
            wkt = [
                f"POLYGON (({a} {b}, {a} {d}, {c} {d}, {c} {b}, {a} {b}))"
                for a, b, c, d in zip(x0, y0, x1, y1)
            ]
            cols["boundary_wkt"] = pa.array(wkt)
            # geographic footprint (tile corners inverse-projected; rings
            # near the antimeridian may span the +-180 seam -- consumers
            # should wrap)
            from equi7grid_ray import aeqd

            cx = np.concatenate([x0, x0, x1, x1])
            cy = np.concatenate([y0, y1, y1, y0])
            lon, lat = aeqd.inverse(c, cx, cy)
            lon = lon.reshape(4, n)
            lat = lat.reshape(4, n)
            gwkt = [
                "POLYGON (("
                + ", ".join(f"{lon[k, i]:.6f} {lat[k, i]:.6f}" for k in (0, 1, 2, 3, 0))
                + "))"
                for i in range(n)
            ]
            cols["geog_wkt"] = pa.array(gwkt)
        parts.append(pa.table(cols))
    return pa.concat_tables(parts)


def write_tiles_parquet(path: str | Path, tiling_id: str = "T6", **kwargs) -> Path:
    import pyarrow.parquet as pq

    p = Path(path)
    pq.write_table(tiles_table(tiling_id, **kwargs), p)
    return p


def to_ogc_tms_json(continent: str, spec: GridSpec | None = None) -> dict:
    """Minimal OGC TileMatrixSet 2.0 JSON for one continental system."""
    spec = spec or GridSpec.standard()
    c = CONTINENTS[continent]
    state = get_grid_state(spec)
    matrices = []
    for lvl in sorted(spec.tilings):
        name, size = spec.tilings[lvl]
        s = spec.sampling_of(lvl)
        ct = state.tiles(continent, lvl)
        max_x = float(ct.ll_x.max() + size) if len(ct.ll_x) else 0.0
        max_y = float(ct.ll_y.max() + size) if len(ct.ll_y) else 0.0
        matrices.append(
            {
                "id": name,
                "scaleDenominator": s / 0.28e-3,  # OGC convention: 0.28 mm/px
                "cellSize": s,
                "pointOfOrigin": [c.min_x, max_y],
                "tileWidth": int(size / s),
                "tileHeight": int(size / s),
                "matrixWidth": int(np.ceil((max_x - c.min_x) / size)),
                "matrixHeight": int(np.ceil((max_y - c.min_y) / size)),
            }
        )
    return {
        "id": f"Equi7_{continent}",
        "title": f"Equi7Grid {continent} tiling system",
        "crs": f"EPSG:{c.epsg}",
        "orderedAxes": ["E", "N"],
        "tileMatrices": matrices,
    }


def write_grid_def(path: str | Path, spec: GridSpec | None = None) -> Path:
    """Grid definition JSON (create_standard_equi7 parity,
    _create_grids.py:103-108)."""
    spec = spec or GridSpec.standard()
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(json.dumps(spec.to_grid_def(), indent=2))
    return p
