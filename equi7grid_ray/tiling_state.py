"""Per-continent tiling state: projected zone polygons, exact tile sets
per tiling level, a precomputed "tile sample atlas", and the unified
geometry->tiles search that backs every ROI query.

Reference semantics reproduced (with a different, batch-oriented design):
- tile enumeration / zone clipping:
  /root/reference/src/equi7grid/core.py:230-290, 454-518 (pytileproj
  ``get_tiles_in_geog_bbox`` / ``get_tiles_in_geom``),
- tile-in-zone validation: core.py:204-205,
- covers_land: core.py:60-77 + 400-411 (built here from the synthetic
  land polygon, since the reference's land.parquet blob is missing --
  see SURVEY.md section 5).

Design: instead of clipping projected rings per query (the reference's
shapely path), each (continent, tiling) precomputes

  * its exact tile set (cells classified inside / boundary / outside
    against the projected zone polygon, exact rect-vs-polygon tests on
    the boundary cells),
  * an "atlas" of per-tile sample points with cached inverse-projected
    lon/lat and in-zone flags (plus zone-boundary points for tiles that
    barely touch the zone).

A query region R then hits tile T iff some atlas sample of T lies in R
(samples are true points of T∩zone -> no false positives) or some
densified boundary sample of R lands in T while inside the zone (catches
R smaller than the sample spacing).  All tests are vectorized numpy;
state is built once per process and cached on disk, so Ray workers doing
``map_batches`` reuse it via a module-level singleton.

Above the per-continent tilings, each tiling of a GridSpec has one
:class:`TileIndex` (``GridState.tile_index``): the continents in spec
order with their zone bits, the global tile-name dictionary
(continent-major, (ll_x, ll_y) order within a continent) with each
continent's offset, the continent rank and ``covers_land`` of every
entry, and ``locate`` from a tile corner to its dictionary index.  Tile
assignment (and its cell -> tile table), the batched ROI search, pair
expansion, kNN tiles, the ROI functions and the tile inventory export
all read their tiles and names from it; none builds names itself.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, fields

import numpy as np

from equi7grid_ray import aeqd, datafiles
from equi7grid_ray.constants import CONTINENTS, DEF_SEG_LEN_DEG
from equi7grid_ray.grid import GridSpec, full_names
from equi7grid_ray.zones import GeoPolygon, get_zone_classifier
from equi7grid_ray.sources.zone_build import ZONES_NPZ, load_zone_rings

#: bump when the tile-set/atlas build algorithm changes (keys disk caches)
_BUILD_VERSION = 4

#: atlas sample spacing target (m); per-tiling grid k = tile_size/spacing
_ATLAS_SPACING = 40_000.0
_ROI_SEG_DEG = 0.05  # densification step for ROI boundaries (deg)


def _densify_ring(xy: np.ndarray, max_seg: float) -> np.ndarray:
    """Insert vertices so no segment exceeds ``max_seg`` (same role as the
    reference's 0.1 deg segmentation before projecting, core.py:409)."""
    p = np.asarray(xy, dtype=np.float64)
    if not (p[0] == p[-1]).all():
        p = np.vstack([p, p[:1]])
    a, b = p[:-1], p[1:]
    seglen = np.maximum(np.abs(b - a)[:, 0], np.abs(b - a)[:, 1])
    nseg = np.maximum(1, np.ceil(seglen / max_seg).astype(np.int64))
    reps = np.repeat(np.arange(len(a)), nseg)
    # fractional position within each original segment
    t = (np.arange(len(reps)) - np.repeat(np.cumsum(nseg) - nseg, nseg)) / nseg[reps]
    pts = a[reps] + t[:, None] * (b[reps] - a[reps])
    return np.vstack([pts, p[-1:]])


class ProjZone:
    """One continent's projection zone in its own AEQD plane."""

    def __init__(self, continent: str, buffered: bool = False):
        self.continent = continent
        rings = load_zone_rings(buffered=buffered)[continent]
        proj_rings: list[tuple[np.ndarray, bool]] = []
        for xy, hole in rings:
            dens = _densify_ring(xy, DEF_SEG_LEN_DEG)
            x, y = aeqd.forward(continent, dens[:, 0], dens[:, 1])
            proj_rings.append((np.column_stack([x, y]), hole))
        self.poly = GeoPolygon(proj_rings, bin_width=100_000.0)
        self.bbox = self.poly.bbox

    def contains(self, x, y) -> np.ndarray:
        return self.poly.contains(x, y)


# ---------------------------------------------------------------------------
# tile sets + atlas
# ---------------------------------------------------------------------------


@dataclass
class ContinentTiling:
    """Exact tile set + sample atlas for one (continent, tiling)."""

    continent: str
    tiling: str
    tile_size: float
    ll_x: np.ndarray  # (ntiles,) sorted by (ll_x, ll_y)
    ll_y: np.ndarray
    covers_land: np.ndarray  # (ntiles,) bool
    # atlas: regular grid samples (k*k per tile) + ragged boundary extras
    atlas_lon: np.ndarray  # (ntiles, k*k) float32
    atlas_lat: np.ndarray
    atlas_inzone: np.ndarray  # (ntiles, k*k) bool
    extra_offsets: np.ndarray  # (ntiles+1,) into extra_* (zone-edge points)
    extra_lon: np.ndarray
    extra_lat: np.ndarray

    def __post_init__(self):
        # dense tile index over the box of (round(ll_x/1e5), round(ll_y/1e5))
        # keys: -1 where no tile sits, plus one trailing -1 cell that every
        # out-of-box or non-finite corner is sent to
        kx = np.round(np.asarray(self.ll_x, dtype=np.float64) / 1e5)
        ky = np.round(np.asarray(self.ll_y, dtype=np.float64) / 1e5)
        if len(kx):
            self._k0 = (kx.min(), ky.min())
            self._box = (int(kx.max() - kx.min()) + 1, int(ky.max() - ky.min()) + 1)
        else:
            self._k0, self._box = (0.0, 0.0), (0, 0)
        nx, ny = self._box
        cells = ((kx - self._k0[0]) * ny + (ky - self._k0[1])).astype(np.int64)
        assert len(np.unique(cells)) == len(cells), "duplicate tile corners"
        self._index = np.full(nx * ny + 1, -1, dtype=np.int64)
        self._index[cells] = np.arange(len(cells))

    def without_atlas(self) -> ContinentTiling:
        """This tile set and its :meth:`lookup`, with the sample atlas
        (the ``atlas_*`` and ``extra_*`` fields) set to None."""
        out = copy.copy(self)
        for f in ("atlas_lon", "atlas_lat", "atlas_inzone", "extra_offsets",
                  "extra_lon", "extra_lat"):
            setattr(out, f, None)
        return out

    def lookup(self, ll_x, ll_y) -> np.ndarray:
        """Indices into the tile arrays, -1 where (ll_x, ll_y) is not a
        valid tile of this continent/tiling (corners snap to the nearest
        100 km key)."""
        i = np.round(np.asarray(ll_x, dtype=np.float64) / 1e5) - self._k0[0]
        j = np.round(np.asarray(ll_y, dtype=np.float64) / 1e5) - self._k0[1]
        nx, ny = self._box
        inbox = (i >= 0) & (i < nx) & (j >= 0) & (j < ny)  # False for NaN
        with np.errstate(invalid="ignore"):  # inf - inf on a masked-off row
            cell = np.where(inbox, i * ny + j, nx * ny)
        return self._index.take(cell.astype(np.int64))


def _rect_poly_intersects(poly: GeoPolygon, rx0, ry0, rx1, ry1) -> bool:
    """Exact closed-set rectangle-vs-polygon intersection test."""
    cx = np.array([rx0, rx0, rx1, rx1])
    cy = np.array([ry0, ry1, ry0, ry1])
    if poly.contains(cx, cy).any():
        return True
    # polygon vertex inside rect
    for xy, _h in poly.rings:
        m = (xy[:, 0] >= rx0) & (xy[:, 0] <= rx1) & (xy[:, 1] >= ry0) & (xy[:, 1] <= ry1)
        if m.any():
            return True
    return _edges_cross_rect(poly, rx0, ry0, rx1, ry1)


def _edges_cross_rect(poly: GeoPolygon, rx0, ry0, rx1, ry1, *, strict: bool = False) -> bool:
    """Any polygon-ring edge meeting the rectangle (Liang-Barsky clip
    accept over the edges whose bbox touches it).  ``strict`` asks for a
    clipped piece of positive length (``t0 < t1``), not just a point."""
    x1, y1, x2, y2 = poly.x1, poly.y1, poly.x2, poly.y2
    bb = (
        (np.minimum(x1, x2) <= rx1)
        & (np.maximum(x1, x2) >= rx0)
        & (np.minimum(y1, y2) <= ry1)
        & (np.maximum(y1, y2) >= ry0)
    )
    if not bb.any():
        return False
    x1, y1, x2, y2 = x1[bb], y1[bb], x2[bb], y2[bb]
    dx, dy = x2 - x1, y2 - y1
    t0 = np.zeros(len(x1))
    t1 = np.ones(len(x1))
    ok = np.ones(len(x1), dtype=bool)
    for p, q in (
        (-dx, x1 - rx0),
        (dx, rx1 - x1),
        (-dy, y1 - ry0),
        (dy, ry1 - y1),
    ):
        zero = p == 0
        ok &= ~(zero & (q < 0))
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.where(zero, 0.0, q / np.where(p == 0, 1.0, p))
        t0 = np.where(~zero & (p < 0), np.maximum(t0, r), t0)
        t1 = np.where(~zero & (p > 0), np.minimum(t1, r), t1)
    return bool((ok & ((t0 < t1) if strict else (t0 <= t1))).any())


def _build_continent_tiling(
    continent: str, tiling: str, tile_size: float, pz: ProjZone,
    land_geo: GeoPolygon | None, zc,
) -> ContinentTiling:
    cdef = CONTINENTS[continent]
    t = tile_size
    bx0, by0, bx1, by1 = pz.bbox
    ix0 = max(int(np.floor(bx0 / t)), int(np.floor(cdef.min_x / t)))
    iy0 = max(int(np.floor(by0 / t)), int(round(cdef.min_y / t)))
    ix1 = int(np.floor(bx1 / t))
    iy1 = int(np.floor(by1 / t))
    nx, ny = ix1 - ix0 + 1, iy1 - iy0 + 1

    # mark boundary cells by sampling the projected zone edges
    bnd = np.zeros((nx, ny), dtype=bool)
    x1, y1, x2, y2 = pz.poly.x1, pz.poly.y1, pz.poly.x2, pz.poly.y2
    seglen = np.hypot(x2 - x1, y2 - y1)
    nsamp = np.maximum(2, np.ceil(seglen / (t / 16.0)).astype(np.int64) + 1)
    tt = np.concatenate([np.linspace(0.0, 1.0, int(k)) for k in nsamp])
    ei = np.repeat(np.arange(len(x1)), nsamp)
    sx = x1[ei] + tt * (x2[ei] - x1[ei])
    sy = y1[ei] + tt * (y2[ei] - y1[ei])
    ci = np.floor(sx / t).astype(np.int64) - ix0
    ri = np.floor(sy / t).astype(np.int64) - iy0
    inb = (ci >= 0) & (ci < nx) & (ri >= 0) & (ri < ny)
    bnd[ci[inb], ri[inb]] = True
    d = bnd.copy()
    d[1:, :] |= bnd[:-1, :]
    d[:-1, :] |= bnd[1:, :]
    d[:, 1:] |= d[:, :-1].copy()
    d[:, :-1] |= d[:, 1:].copy()
    bnd = d

    # non-boundary cells: inside iff center inside
    gx, gy = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    cxs = (gx.ravel() + ix0) * t + t / 2.0
    cys = (gy.ravel() + iy0) * t + t / 2.0
    bflat = bnd.ravel()
    inside = np.zeros(nx * ny, dtype=bool)
    nb = ~bflat
    inside[nb] = pz.contains(cxs[nb], cys[nb])
    # boundary cells: exact rect test
    for idx in np.flatnonzero(bflat):
        rx0 = (gx.ravel()[idx] + ix0) * t
        ry0 = (gy.ravel()[idx] + iy0) * t
        inside[idx] = _rect_poly_intersects(pz.poly, rx0, ry0, rx0 + t, ry0 + t)

    sel = np.flatnonzero(inside)
    ll_x = (gx.ravel()[sel] + ix0).astype(np.float64) * t
    ll_y = (gy.ravel()[sel] + iy0).astype(np.float64) * t
    is_bnd_tile = bflat[sel]

    # sort by key (x then y)
    keyx = np.round(ll_x / 1e5).astype(np.int64) * 4096 + (
        np.round(ll_y / 1e5).astype(np.int64) + 1024
    )
    order = np.argsort(keyx)
    ll_x, ll_y, is_bnd_tile = ll_x[order], ll_y[order], is_bnd_tile[order]
    ntiles = len(ll_x)

    # ---- atlas: k*k grid samples per tile --------------------------------
    k = max(3, int(round(t / _ATLAS_SPACING)))
    offs = (np.arange(k) + 0.5) / k * t
    ox, oy = np.meshgrid(offs, offs, indexing="ij")
    ox, oy = ox.ravel(), oy.ravel()
    ax = (ll_x[:, None] + ox[None, :]).ravel()
    ay = (ll_y[:, None] + oy[None, :]).ravel()
    inzone = pz.contains(ax, ay).reshape(ntiles, k * k)
    lon, lat = aeqd.inverse(continent, ax, ay)
    atlas_lon = lon.reshape(ntiles, k * k).astype(np.float32)
    atlas_lat = lat.reshape(ntiles, k * k).astype(np.float32)

    # ---- zone-edge extras for boundary tiles -----------------------------
    # reuse the zone-edge samples (sx, sy): they are true points of the
    # closed zone; bucket them per tile (capped).  Also add in-zone tile
    # corners -- exact points of tile ∩ zone covering corner-sliver
    # overlaps smaller than the sample spacing.
    skey = np.round(ll_x / t).astype(np.int64) * 4096 + (
        np.round(ll_y / t).astype(np.int64) + 1024
    )
    tkey = np.floor(sx / t).astype(np.int64) * 4096 + (
        np.floor(sy / t).astype(np.int64) + 1024
    )
    pos = np.clip(np.searchsorted(skey, tkey), 0, max(ntiles - 1, 0))
    hit = (skey[pos] == tkey) if ntiles else np.zeros(len(tkey), bool)
    crx = np.concatenate([ll_x, ll_x + t, ll_x, ll_x + t])
    cry = np.concatenate([ll_y, ll_y, ll_y + t, ll_y + t])
    crin = pz.contains(crx, cry)
    cidx = np.tile(np.arange(ntiles), 4)[crin]
    exs: list[np.ndarray] = [np.empty(0)] * ntiles
    eys: list[np.ndarray] = [np.empty(0)] * ntiles
    cap = 64
    for p in np.unique(np.concatenate([pos[hit], cidx])):
        m = np.flatnonzero(hit & (pos == p))
        if len(m) > cap:
            m = m[:: len(m) // cap + 1]
        cm = cidx == p
        exs[p] = np.concatenate([sx[m], crx[crin][cm]])
        eys[p] = np.concatenate([sy[m], cry[crin][cm]])
    counts = np.array([len(a) for a in exs], dtype=np.int64)
    extra_offsets = np.concatenate([[0], np.cumsum(counts)])
    extra_x = np.concatenate(exs) if ntiles else np.empty(0)
    extra_y = np.concatenate(eys) if ntiles else np.empty(0)
    if len(extra_x):
        elon, elat = aeqd.inverse(continent, extra_x, extra_y)
    else:
        elon = elat = np.empty(0)

    # ---- covers_land -----------------------------------------------------
    # Reference semantics (core.py:400-414): the tiling system's land
    # geometry is land CLIPPED TO THE ZONE (shapely.intersection of
    # proj_zone_geog and the land polygon) before the per-tile extent
    # intersection -- so a zone-edge tile grazing a NEIGHBORING
    # continent's land does NOT cover land (pinned by the reference's
    # own Siberia/Alaska golden, tests/test_equi7grid.py:371-385: the
    # AS tiles over west Alaska are absent).  Atlas samples therefore
    # stay restricted to the in-zone mask.
    covers = np.zeros(ntiles, dtype=bool)
    if land_geo is not None and ntiles:
        flat_in = inzone.ravel()
        lnd = np.zeros(ntiles * k * k, dtype=bool)
        lnd[flat_in] = land_geo.contains(
            atlas_lon.ravel()[flat_in].astype(np.float64),
            atlas_lat.ravel()[flat_in].astype(np.float64),
        )
        covers = lnd.reshape(ntiles, k * k).any(axis=1)
        # extras (zone-edge points, e.g. coastal slivers)
        if len(extra_x):
            lhit = land_geo.contains(elon, elat)
            upd = np.zeros(ntiles, dtype=bool)
            np.logical_or.at(upd, np.repeat(np.arange(ntiles), counts), lhit)
            covers |= upd
        # land boundary samples -> tiles (catches land smaller than
        # spacing); zone-clipped like the atlas test (reference
        # core.py:400-414)
        for xy, _h in land_geo.rings:
            dens = _densify_ring(xy, _ROI_SEG_DEG * 4)
            zin = zc.contains(continent, dens[:, 0], dens[:, 1])
            if not zin.any():
                continue
            px, py = aeqd.forward(continent, dens[zin, 0], dens[zin, 1])
            lx = np.floor(px / t) * t
            ly = np.floor(py / t) * t
            kk = np.round(lx / 1e5).astype(np.int64) * 4096 + (
                np.round(ly / 1e5).astype(np.int64) + 1024
            )
            p2 = np.clip(np.searchsorted(keyx[order], kk), 0, ntiles - 1)
            covers[p2[keyx[order][p2] == kk]] = True

    return ContinentTiling(
        continent=continent,
        tiling=tiling,
        tile_size=t,
        ll_x=ll_x,
        ll_y=ll_y,
        covers_land=covers,
        atlas_lon=atlas_lon,
        atlas_lat=atlas_lat,
        atlas_inzone=inzone,
        extra_offsets=extra_offsets,
        extra_lon=np.asarray(elon, dtype=np.float32),
        extra_lat=np.asarray(elat, dtype=np.float32),
    )


class TileIndex:
    """The tile set of one (GridSpec, tiling), declared once: which tiles
    exist, the dictionary index and name of each, and each continent's
    zone bit.  Tile assignment, ROI search, expansion, kNN and export
    all read it; :meth:`GridState.tile_index` builds it on first use.

    - ``continents``: the spec's continents in order; ``zone_cols[r]``
      is the zone bit (``ZoneClassifier.classify`` column) of continent
      rank ``r``, ``tilings[c]`` its :class:`ContinentTiling`;
    - ``names``: the global name dictionary, continent-major and in
      (ll_x, ll_y) order within a continent; ``offsets[c]`` is the
      index of continent ``c``'s first tile in it;
    - ``rank`` and ``covers_land``: per dictionary entry, each with a
      trailing "no tile" entry (rank -1, no land) that index -1 reads.
    """

    def __init__(self, state: GridState, tiling: str):
        spec = state.spec
        self.tiling = tiling
        self.tile_size = spec.tile_size(tiling)
        self.continents = spec.continents()
        self.zone_cols = [state.zc.order.index(c) for c in self.continents]
        self.tilings = {c: state.tiles(c, tiling) for c in self.continents}
        names = [full_names(c, ct.ll_x, ct.ll_y, tiling) for c, ct in self.tilings.items()]
        sizes = [len(nm) for nm in names]
        self.offsets = dict(zip(self.continents, np.cumsum([0] + sizes[:-1]).tolist()))
        self.names = np.concatenate(names) if names else np.empty(0, dtype="U16")
        self.rank = np.append(
            np.repeat(np.arange(len(sizes), dtype=np.int8), sizes), np.int8(-1))
        self.covers_land = np.concatenate(
            [ct.covers_land for ct in self.tilings.values()] + [[False]]).astype(bool)

    def locate(self, rank: int, ll_x, ll_y) -> np.ndarray:
        """Dictionary index of each tile corner of continent ``rank``, -1
        for a corner outside its tile set."""
        cont = self.continents[rank]
        pos = self.tilings[cont].lookup(ll_x, ll_y)
        return np.where(pos >= 0, pos + self.offsets[cont], -1)

    def without_atlas(self) -> TileIndex:
        """A copy whose tilings carry no sample atlas
        (:meth:`ContinentTiling.without_atlas`): what a broadcast tile
        assigner ships, since :meth:`locate` never reads the atlas."""
        out = copy.copy(self)
        out.tilings = {c: ct.without_atlas() for c, ct in self.tilings.items()}
        return out

    def continent_names(self, continent: str, sel=slice(None)) -> np.ndarray:
        """Names of ``continent``'s tiles; ``sel`` picks positions in its
        tile arrays."""
        off = self.offsets[continent]
        return self.names[off : off + len(self.tilings[continent].ll_x)][sel]


# ---------------------------------------------------------------------------
# GridState: the broadcastable, process-cached bundle
# ---------------------------------------------------------------------------


class GridState:
    """All immutable spatial state for one GridSpec; built lazily, cached
    per process (and per tiling on disk).  In Ray pipelines, worker tasks
    call :func:`get_grid_state` inside ``map_batches`` callables -- the
    first call per worker builds/loads, subsequent batches reuse."""

    def __init__(self, spec: GridSpec):
        self.spec = spec
        self.zc = get_zone_classifier(buffered=spec.buffered)
        self._proj_zones: dict[str, ProjZone] = {}
        self._tilings: dict[tuple[str, str], ContinentTiling] = {}
        self._tile_indexes: dict[str, TileIndex] = {}
        from equi7grid_ray.land import get_land_polygon

        self._land = get_land_polygon()

    def proj_zone(self, continent: str) -> ProjZone:
        if continent not in self._proj_zones:
            self._proj_zones[continent] = ProjZone(continent, self.spec.buffered)
        return self._proj_zones[continent]

    def tiles(self, continent: str, tiling_id: int | str) -> ContinentTiling:
        tiling = self.spec.tiling_name(tiling_id)
        key = (continent, tiling)
        if key in self._tilings:
            return self._tilings[key]
        from equi7grid_ray.land import LAND_VERSION

        t = self.spec.tile_size(tiling)
        p = datafiles.data_file(
            f"tiles_{continent}_{tiling}", ".npz", ZONES_NPZ.read_bytes(), json.dumps(
                [tiling, t, self.spec.buffered, LAND_VERSION, _BUILD_VERSION]).encode())
        # the nine arrays after continent, tiling and tile_size
        arrays = [f.name for f in fields(ContinentTiling)][3:]

        def load(p):
            d = np.load(p)
            return ContinentTiling(continent, tiling, t, **{a: d[a] for a in arrays})

        ct = self._tilings[key] = datafiles.load_or_build(
            p, load,
            lambda: _build_continent_tiling(
                continent, tiling, t, self.proj_zone(continent), self._land, self.zc),
            lambda f, ct: np.savez_compressed(f, **{a: getattr(ct, a) for a in arrays}))
        return ct

    def tile_index(self, tiling_id: int | str) -> TileIndex:
        """The :class:`TileIndex` of one tiling, built on first use."""
        tiling = self.spec.tiling_name(tiling_id)
        if tiling not in self._tile_indexes:
            self._tile_indexes[tiling] = TileIndex(self, tiling)
        return self._tile_indexes[tiling]


_states: dict[tuple, GridState] = {}


def get_grid_state(spec: GridSpec | None = None) -> GridState:
    spec = spec or GridSpec.standard()
    key = (
        json.dumps(spec.sampling, sort_keys=True) if isinstance(spec.sampling, dict) else spec.sampling,
        tuple(sorted(spec.tilings.items())),
        spec.buffered,
        spec.continent_order,
    )
    if key not in _states:
        _states[key] = GridState(spec)
    return _states[key]
