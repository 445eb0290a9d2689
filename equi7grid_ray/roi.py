"""ROI -> tiles search: geographic bboxes (antimeridian-aware), arbitrary
polygons, and projected bboxes.

Mirrors /root/reference/src/equi7grid/core.py:230-290 (tiling-system
level) and :454-518 (grid level, continents iterated in ``system_order``
with x-then-y ordering inside a continent,
tests/test_equi7grid.py:273-282).  Implementation uses the precomputed
tile atlas (see tiling_state.py) -- sample membership tests only, fully
vectorized, no polygon clipping at query time.
"""

from __future__ import annotations

import numpy as np

from equi7grid_ray import aeqd
from equi7grid_ray.grid import GridSpec
from equi7grid_ray.tiling_state import (ContinentTiling, GridState, TileIndex, _ROI_SEG_DEG,
                                        _densify_ring, get_grid_state)

__all__ = [
    "GeogBBoxROI",
    "GeogPolygonROI",
    "tiles_in_geog_bbox",
    "tiles_in_geom",
    "tiles_in_proj_bbox",
]


class GeogBBoxROI:
    """Geographic bbox; lon_min > lon_max means antimeridian crossing
    (reference doc: grid.ipynb 'important' note)."""

    def __init__(self, lon_min, lat_min, lon_max, lat_max):
        self.lon_min, self.lat_min = float(lon_min), float(lat_min)
        self.lon_max, self.lat_max = float(lon_max), float(lat_max)
        self.wrap = self.lon_min > self.lon_max

    def contains(self, lon, lat) -> np.ndarray:
        lon = np.asarray(lon, dtype=np.float64)
        lat = np.asarray(lat, dtype=np.float64)
        latok = (lat >= self.lat_min) & (lat <= self.lat_max)
        if self.wrap:
            lonok = (lon >= self.lon_min) | (lon <= self.lon_max)
        else:
            lonok = (lon >= self.lon_min) & (lon <= self.lon_max)
        return latok & lonok

    def boundary_samples(self) -> tuple[np.ndarray, np.ndarray]:
        lon_max = self.lon_max + 360.0 if self.wrap else self.lon_max
        ring = np.array(
            [
                [self.lon_min, self.lat_min],
                [lon_max, self.lat_min],
                [lon_max, self.lat_max],
                [self.lon_min, self.lat_max],
                [self.lon_min, self.lat_min],
            ]
        )
        dens = _densify_ring(ring, _ROI_SEG_DEG)
        lon = np.remainder(dens[:, 0] + 180.0, 360.0) - 180.0
        return lon, dens[:, 1]


class GeogPolygonROI:
    """Arbitrary geographic polygon; vertices may use a continuous
    (unwrapped) longitude frame across the antimeridian."""

    def __init__(self, ring_xy):
        p = np.asarray(ring_xy, dtype=np.float64)
        # unwrap: keep successive deltas within +-180
        lon = p[:, 0].copy()
        for i in range(1, len(lon)):
            d = lon[i] - lon[i - 1]
            if d > 180.0:
                lon[i:] -= 360.0
            elif d < -180.0:
                lon[i:] += 360.0
        self.ring = np.column_stack([lon, p[:, 1]])
        from equi7grid_ray.zones import GeoPolygon

        self.poly = GeoPolygon([(self.ring, False)], bin_width=1.0)
        self._cx = 0.5 * (self.ring[:, 0].min() + self.ring[:, 0].max())

    def contains(self, lon, lat) -> np.ndarray:
        lon = np.asarray(lon, dtype=np.float64)
        lat = np.asarray(lat, dtype=np.float64)
        shift = np.round((self._cx - lon) / 360.0) * 360.0
        return self.poly.contains(lon + shift, lat)

    def boundary_samples(self) -> tuple[np.ndarray, np.ndarray]:
        dens = _densify_ring(self.ring, _ROI_SEG_DEG)
        lon = np.remainder(dens[:, 0] + 180.0, 360.0) - 180.0
        return lon, dens[:, 1]


def _continent_hits(state: GridState, ct: ContinentTiling, roi) -> np.ndarray:
    """Bool mask over the continent's tile table: tile intersects
    ROI ∩ zone."""
    n = len(ct.ll_x)
    if n == 0:
        return np.zeros(0, dtype=bool)
    # (a) atlas grid samples that are in-zone and inside the ROI
    hit = (
        roi.contains(ct.atlas_lon.astype(np.float64), ct.atlas_lat.astype(np.float64))
        & ct.atlas_inzone
    ).any(axis=1)
    # (b) zone-edge extras (boundary tiles with sliver zone overlap)
    if len(ct.extra_lon):
        ehit = roi.contains(ct.extra_lon.astype(np.float64), ct.extra_lat.astype(np.float64))
        counts = np.diff(ct.extra_offsets)
        np.logical_or.at(hit, np.repeat(np.arange(n), counts), ehit)
    # (c) densified ROI boundary points inside the zone -> their tiles
    blon, blat = roi.boundary_samples()
    zin = state.zc.contains(ct.continent, blon, blat)
    if zin.any():
        px, py = aeqd.forward(ct.continent, blon[zin], blat[zin])
        t = ct.tile_size
        idx = ct.lookup(np.floor(px / t) * t, np.floor(py / t) * t)
        hit[idx[idx >= 0]] = True
    return hit


def _emit(index: TileIndex, per_continent_masks, cover_land: bool) -> list[str]:
    """Names of the masked tiles, continent by continent in the order
    given, (ll_x, ll_y) order within one."""
    names: list[str] = []
    for continent, mask in per_continent_masks:
        if cover_land:
            mask = mask & index.tilings[continent].covers_land
        names.extend(index.continent_names(continent, np.flatnonzero(mask)).tolist())
    return names


def _tiles_hit(roi, tiling_id, cover_land: bool, spec: GridSpec | None,
               continents: list[str] | None) -> list[str]:
    """Names of the tiles ``roi`` hits, continent by continent in
    ``continents`` order (default: the spec's)."""
    state = get_grid_state(spec)
    index = state.tile_index(tiling_id)
    masks = [(c, _continent_hits(state, index.tilings[c], roi))
             for c in continents or index.continents]
    return _emit(index, masks, cover_land)


def tiles_in_geog_bbox(
    bbox,
    tiling_id: int | str = "T6",
    *,
    cover_land: bool = False,
    spec: GridSpec | None = None,
    continents: list[str] | None = None,
) -> list[str]:
    """All tiles intersecting the geographic bbox, ordered by
    ``system_order`` then (ll_x, ll_y)."""
    return _tiles_hit(GeogBBoxROI(*bbox), tiling_id, cover_land, spec, continents)


def tiles_in_geom(
    ring_xy,
    tiling_id: int | str = "T6",
    *,
    cover_land: bool = False,
    spec: GridSpec | None = None,
    continents: list[str] | None = None,
    crs: str = "geog",
) -> list[str]:
    """All tiles intersecting an arbitrary polygon.

    ``crs='geog'`` (default): ring vertices are lon/lat.
    ``crs='<continent>'`` (e.g. 'EU'): a *projected* geometry in that
    continent's plane (the reference's ProjGeom flavour) -- densified in
    proj space, inverse-projected, then searched geographically."""
    if crs != "geog":
        ring = np.asarray(ring_xy, dtype=np.float64)
        dens = _densify_ring(ring, 50_000.0)  # <=50 km proj segments
        lon, lat = aeqd.inverse(crs, dens[:, 0], dens[:, 1])
        ring_xy = np.column_stack([lon, lat])
    return _tiles_hit(GeogPolygonROI(ring_xy), tiling_id, cover_land, spec, continents)


def tiles_in_proj_bbox(
    continent: str,
    bbox,
    tiling_id: int | str = "T6",
    *,
    cover_land: bool = False,
    spec: GridSpec | None = None,
) -> list[str]:
    """Tiles of one continent overlapping a projected bbox
    (cf. tests/test_equi7grid.py:388-402)."""
    index = get_grid_state(spec).tile_index(tiling_id)
    ct = index.tilings[continent]
    t = ct.tile_size
    x0, y0, x1, y1 = (float(v) for v in bbox)
    mask = (
        (ct.ll_x < x1)
        & (ct.ll_x + t > x0)
        & (ct.ll_y < y1)
        & (ct.ll_y + t > y0)
    )
    return _emit(index, [(continent, mask)], cover_land)
