"""Regenerate the continental zone geometries as plain numpy ring arrays.

Reads the reference's GeoParquet zone files
(/root/reference/src/equi7grid/data/zones/*.parquet -- single-row tables,
column ``geometry`` = WKB Polygon/MultiPolygon in EPSG:4326, column
``name``), parses the WKB with a hand-rolled reader (no shapely in this
sandbox) and stores the rings in ``equi7grid_ray/data/zones_geog.npz``:

    {zone}{suffix}_ring{i}_xy : (N, 2) float64 lon/lat ring vertices
    {zone}{suffix}_ring{i}_hole : () bool

Run once at build time::

    python -m equi7grid_ray.sources.zone_build
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from equi7grid_ray.datafiles import DATA_DIR

_WKB_POINT = 1
_WKB_POLYGON = 3
_WKB_MULTIPOLYGON = 6

ZONES_NPZ = DATA_DIR / "zones_geog.npz"
REFERENCE_ZONE_DIR = Path("/root/reference/src/equi7grid/data/zones")


def parse_wkb_polygons(buf: bytes) -> list[tuple[np.ndarray, bool]]:
    """Parse a WKB Polygon or MultiPolygon into [(ring_xy, is_hole), ...]."""
    rings: list[tuple[np.ndarray, bool]] = []
    offset = 0

    def read_polygon(off: int) -> int:
        bo = "<" if buf[off] == 1 else ">"
        (gtype,) = struct.unpack_from(bo + "I", buf, off + 1)
        base_type = gtype & 0xFF
        if base_type != _WKB_POLYGON:
            raise ValueError(f"expected Polygon, got wkb type {gtype}")
        (n_rings,) = struct.unpack_from(bo + "I", buf, off + 5)
        off += 9
        for ring_i in range(n_rings):
            (n_pts,) = struct.unpack_from(bo + "I", buf, off)
            off += 4
            xy = np.frombuffer(buf, dtype=bo + "f8", count=2 * n_pts, offset=off)
            rings.append((xy.reshape(-1, 2).copy(), ring_i > 0))
            off += 16 * n_pts
        return off

    bo = "<" if buf[0] == 1 else ">"
    (gtype,) = struct.unpack_from(bo + "I", buf, 1)
    base_type = gtype & 0xFF
    if base_type == _WKB_POLYGON:
        read_polygon(0)
    elif base_type == _WKB_MULTIPOLYGON:
        (n_polys,) = struct.unpack_from(bo + "I", buf, 5)
        offset = 9
        for _ in range(n_polys):
            offset = read_polygon(offset)
    else:
        raise ValueError(f"unsupported wkb geometry type {gtype}")
    return rings


def build(out_path: Path = ZONES_NPZ, zone_dir: Path = REFERENCE_ZONE_DIR) -> Path:
    import pyarrow.parquet as pq

    arrays: dict[str, np.ndarray] = {}
    for f in sorted(zone_dir.glob("*.parquet")):
        stem = f.stem  # e.g. eu_zone or eu_zone_bfrd
        zone = stem[:2].upper()
        buffered = stem.endswith("_bfrd")
        key = f"{zone}{'_bfrd' if buffered else ''}"
        tbl = pq.read_table(f, columns=["geometry"])
        wkb = tbl.column("geometry")[0].as_py()
        rings = parse_wkb_polygons(wkb)
        for i, (xy, hole) in enumerate(rings):
            arrays[f"{key}_ring{i}_xy"] = xy
            arrays[f"{key}_ring{i}_hole"] = np.asarray(hole)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(out_path, **arrays)
    return out_path


def load_zone_rings(buffered: bool = False) -> dict[str, list[tuple[np.ndarray, bool]]]:
    """Load regenerated zone rings: {continent: [(ring_xy, is_hole), ...]}."""
    if not ZONES_NPZ.exists():
        build()
    data = np.load(ZONES_NPZ)
    suffix = "_bfrd" if buffered else ""
    zones: dict[str, list[tuple[np.ndarray, bool]]] = {}
    for name in data.files:
        if not name.endswith("_xy"):
            continue
        key, _, ring = name.rpartition("_ring")
        ring_i = ring[: -len("_xy")]
        if key.endswith("_bfrd") != bool(suffix):
            continue
        zone = key[:2]
        hole = bool(data[f"{key}_ring{ring_i}_hole"])
        zones.setdefault(zone, []).append((data[name], hole))
    return zones


if __name__ == "__main__":
    p = build()
    z = load_zone_rings()
    print(f"wrote {p} ({p.stat().st_size/1e6:.2f} MB)")
    for k, rings in sorted(z.items()):
        print(k, [(len(xy), hole) for xy, hole in rings])
