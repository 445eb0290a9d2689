"""Continental zone geometry: vectorized point-in-polygon and the coarse
raster classifier used on the hot zone-assignment path.

Role equivalence: what the reference delegates to shapely
``contains``/``intersects`` against the zone GeoParquets
(/root/reference/src/equi7grid/core.py:400-411, pytileproj zone checks)
is re-expressed here as numpy even-odd crossing tests.  The zone
classifier answers from

- a 0.1 deg raster that classifies each cell per zone as inside /
  outside / boundary (coarse cell pre-index in the H3/S2 role of the
  north rule), and
- per (zone, boundary cell), a parity bit and the few edges that reach
  the cell (:func:`_build_boundary_cells`): only boundary-cell points
  take the exact crossing test, against that short list.

:class:`GeoPolygon` keeps a longitude-bucket edge index for its other
callers (land, ROI, projected tiling polygons).

Everything is vectorized over point arrays; no Python-per-row in any
query path.
"""

from __future__ import annotations

import json

import numpy as np

from equi7grid_ray import datafiles
from equi7grid_ray.constants import DEFAULT_CONTINENT_ORDER
from equi7grid_ray.sources.zone_build import ZONES_NPZ, load_zone_rings

__all__ = ["GeoPolygon", "ZoneClassifier", "get_zone_classifier"]

_RASTER_RES = 0.1

#: metres a cell's projected footprint keeps from every tile edge before
#: the cell -> tile table answers for it (see build_cell_tile_table)
CELL_TABLE_MARGIN = 1_000.0
#: bump when the cell -> tile table build changes (keys the table files)
_CELL_TABLE_VERSION = 1
_TABLE_BAND_ROWS = 64


def _corner_max(a: np.ndarray) -> np.ndarray:
    """Per cell, the max of a node array over the cell's four corners."""
    return np.maximum(np.maximum(a[:-1, :-1], a[1:, :-1]),
                      np.maximum(a[:-1, 1:], a[1:, 1:]))


def _load_raster(path) -> tuple[np.ndarray, np.ndarray]:
    d = np.load(path)
    return d["inside"], d["boundary"]


def _ragged(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(owner, value)`` for every value of every range ``[lo[i], hi[i])``,
    in order (the ragged repeat/cumsum-offset expansion)."""
    n = np.maximum(hi - lo, 0)
    owner = np.repeat(np.arange(len(n)), n)
    start = np.cumsum(n) - n
    return owner, lo[owner] + np.arange(len(owner)) - start[owner]


def _up_crossings(x1, y1, x2, y2, px, py) -> np.ndarray:
    """Whether the upward ray from each ``(px, py)`` crosses its edge
    ``(x1, y1)-(x2, y2)``: the even-odd test's one predicate, shared by
    :meth:`GeoPolygon.contains` and the zone classifier's boundary cells."""
    crossing = (x1 > px) != (x2 > px)
    with np.errstate(divide="ignore", invalid="ignore"):
        ylat = y1 + (px - x1) * (y2 - y1) / (x2 - x1)
    return crossing & (ylat > py)


#: degrees each zone-boundary cell is widened by on every side before
#: its edges are sorted; ``cell_index`` puts a point within ~1e-12 deg
#: of its cell, so the widened cell holds every point mapped to it
_CELL_EPS = 1e-9
#: y of a breakpoint's pseudo-edge ``(b, _FAR, inf, _FAR)``: it lies
#: above every point and its crossing test is exactly ``[b <= px]``
_FAR = 1e300
#: bump when the boundary-cell build changes (keys the edge-list files)
_BOUNDARY_CELLS_VERSION = 1


def _zone_boundary_cells(poly: GeoPolygon, cells: np.ndarray, shape, res: float):
    """One zone's boundary cells (flat raster cells, ascending): the
    parity bit of each, then ``(cell position, x1, y1, x2, y2)`` of its
    items.

    A point's crossing count is a sum over every edge of
    ``[(x1 > px) != (x2 > px)] & [ylat > py]``.  For a point in the cell
    widened by :data:`_CELL_EPS` (column ``[X0, X1]``, rows ``[Y0, Y1]``)
    an edge whose x-span misses the column, or that lies wholly below
    the cell, adds 0.  An edge wholly above the cell adds
    ``[x1 <= px] XOR [x2 <= px]``: an endpoint left of the column adds
    a constant 1 (summed into the parity bit) and one inside it a
    breakpoint ``[b <= px]``, stored as the pseudo-edge
    ``(b, _FAR, inf, _FAR)`` whose crossing test is exactly that term.
    Only the parity of each breakpoint's count is kept, so the two
    "above" edges that share a vertex cancel.  Every other edge reaching
    the column is an item as it is, tested with the same formula."""
    nrow, ncol = shape
    e = _CELL_EPS
    x0 = -180.0 + res * np.arange(ncol) - e
    x1_ = -180.0 + res * np.arange(1, ncol + 1) + e
    y0 = -90.0 + res * np.arange(nrow) - e
    y1_ = -90.0 + res * np.arange(1, nrow + 1) + e
    r, c = np.divmod(cells, ncol)
    ckey = c * nrow + r  # column-major: a column's cells are contiguous
    o = np.argsort(ckey)
    ckey = ckey[o]
    has_col = np.zeros(ncol, dtype=bool)
    has_col[c] = True

    ex1, ey1, ex2, ey2 = poly.x1, poly.y1, poly.x2, poly.y2
    xmin, xmax = np.minimum(ex1, ex2), np.maximum(ex1, ex2)
    # (edge, column) pairs: the columns each edge's x-span reaches, one
    # column of slack on each side, then the exact overlap test
    c_lo = np.clip(np.floor((xmin + 180.0) / res).astype(np.int64) - 1, 0, ncol)
    c_hi = np.clip(np.floor((xmax + 180.0) / res).astype(np.int64) + 2, 0, ncol)
    k, col = _ragged(c_lo, c_hi)
    keep = has_col[col] & (xmax[k] >= x0[col]) & (xmin[k] <= x1_[col])
    k, col = k[keep], col[keep]
    # the edge is wholly above the rows below r_lo and wholly below the
    # rows from r_hi up; the rows in between hold it as an item
    r_lo = np.searchsorted(y1_, np.minimum(ey1, ey2)[k], "left")
    r_hi = np.searchsorted(y0, np.maximum(ey1, ey2)[k], "right")
    base = col * nrow
    pair, pos = _ragged(np.searchsorted(ckey, base + r_lo),
                        np.searchsorted(ckey, base + r_hi))
    item_pos = [pos]
    item_xy = [np.column_stack([ex1, ey1, ex2, ey2])[k[pair]]]

    # endpoints of the edges above each cell: incidence (column, x, r_lo)
    px_ = np.concatenate([ex1[k], ex2[k]])
    pcol = np.concatenate([col, col])
    prlo = np.concatenate([r_lo, r_lo])
    left = px_ < x0[pcol]
    inside = ~left & (px_ <= x1_[pcol])
    # parity: the left endpoints of the column's edges with r_lo > row
    lk = np.sort(pcol[left] * nrow + prlo[left])
    n_left = (np.searchsorted(lk, (ckey // nrow + 1) * nrow, "left")
              - np.searchsorted(lk, ckey, "right"))
    parity = np.empty(len(ckey), dtype=np.uint8)
    parity[o] = n_left & 1

    # breakpoints: per (column, x), the count of incidences with
    # r_lo > row is odd on [r_lo[i-1], r_lo[i]) (from row 0 for a
    # group's first) for each i an even number of places before the
    # group's last, in r_lo order
    bc, bx, br = pcol[inside], px_[inside], prlo[inside]
    s = np.lexsort((br, bx, bc))
    bc, bx, br = bc[s], bx[s], br[s]
    first = np.ones(len(bc), dtype=bool)
    first[1:] = (bc[1:] != bc[:-1]) | (bx[1:] != bx[:-1])
    group = np.cumsum(first) - 1
    gend = np.append(np.flatnonzero(first)[1:], len(bc))
    i = np.arange(len(bc))
    odd = (gend[group] - 1 - i) % 2 == 0
    lo = np.where(first, 0, np.roll(br, 1))[odd]
    hi = br[odd]
    bbase = bc[odd] * nrow
    j, pos = _ragged(np.searchsorted(ckey, bbase + lo), np.searchsorted(ckey, bbase + hi))
    b = bx[odd][j]
    item_pos.append(pos)
    item_xy.append(np.column_stack([b, np.full_like(b, _FAR), np.full_like(b, np.inf),
                                    np.full_like(b, _FAR)]))
    # back from column-major positions to the cells' ascending order
    return parity, o[np.concatenate(item_pos)], np.concatenate(item_xy)


def _build_boundary_cells(polys: dict, order: list[str], packed: np.ndarray,
                          res: float) -> dict[str, np.ndarray]:
    """Every (zone, boundary cell) of the packed raster, sorted by key
    ``cell * 8 + zone bit``: ``parity`` (uint8) and the cell's items
    ``items[offsets[i]:offsets[i + 1]]``, rows of the deduplicated
    ``(x1, y1, x2, y2)`` table ``edges`` (see :func:`_zone_boundary_cells`).
    A point of a boundary cell is in the zone iff it lies in the zone's
    bbox and ``parity`` XOR its crossings of the items is 1: the same
    bits as the even-odd test over all of the zone's edges."""
    bnd = (packed >> 8).ravel()
    keys, parity, pos, xy = [], [], [], []
    n = 0
    for zi, zone in enumerate(order):
        cells = np.flatnonzero(bnd & (1 << zi))
        if zone not in polys or not len(cells):
            continue
        par, p, e = _zone_boundary_cells(polys[zone], cells, packed.shape, res)
        keys.append(cells * 8 + zi)
        parity.append(par)
        pos.append(p + n)
        xy.append(e)
        n += len(cells)
    keys = np.concatenate(keys)
    o = np.argsort(keys)
    rank = np.empty(n, dtype=np.int64)
    rank[o] = np.arange(n)
    pos = rank[np.concatenate(pos)]
    s = np.argsort(pos, kind="stable")
    # exact (bitwise) dedup of the item rows
    edges, inv = np.unique(np.concatenate(xy)[s].view(np.uint64), axis=0, return_inverse=True)
    return {
        "keys": keys[o].astype(np.int32),
        "parity": np.concatenate(parity)[o],
        "offsets": np.append(0, np.cumsum(np.bincount(pos, minlength=n))).astype(np.int32),
        "items": inv.ravel().astype(np.int32),
        "edges": edges.view(np.float64),
    }


class GeoPolygon:
    """A multipolygon with vectorized even-odd PIP (works in geographic
    lon/lat or any planar frame; holes handled by parity)."""

    def __init__(self, rings: list[tuple[np.ndarray, bool]], bin_width: float = 0.25):
        self.rings = rings
        segs = []
        for xy, _hole in rings:
            p = np.asarray(xy, dtype=np.float64)
            if not (p[0] == p[-1]).all():
                p = np.vstack([p, p[:1]])
            segs.append(np.column_stack([p[:-1], p[1:]]))
        e = np.vstack(segs) if segs else np.empty((0, 4))
        self.x1, self.y1, self.x2, self.y2 = e[:, 0], e[:, 1], e[:, 2], e[:, 3]
        allx = np.concatenate([r[0][:, 0] for r in rings])
        ally = np.concatenate([r[0][:, 1] for r in rings])
        self.bbox = (allx.min(), ally.min(), allx.max(), ally.max())
        # longitude-bucket edge index
        self.bin_width = bin_width
        self._x0 = self.bbox[0]
        lo = np.floor((np.minimum(self.x1, self.x2) - self._x0) / bin_width).astype(np.int64)
        hi = np.floor((np.maximum(self.x1, self.x2) - self._x0) / bin_width).astype(np.int64)
        self._nbins = int(np.floor((self.bbox[2] - self._x0) / bin_width)) + 1
        # bucket membership: edge k covers bins lo[k]..hi[k]
        idx, bins = _ragged(lo, hi + 1)
        order = np.argsort(bins, kind="stable")
        self._bucket_edges = idx[order]
        self._bucket_offsets = np.searchsorted(bins[order], np.arange(self._nbins + 1))

    def contains(self, x, y) -> np.ndarray:
        """Even-odd PIP, vectorized over points (any input shape).

        One flat (point, candidate-edge) pair stream built with the
        ragged repeat/cumsum-offset pattern -- no Python loop over
        buckets (the old per-unique-bucket loop paid ~20 us of gather /
        broadcast overhead per bucket, which dominated the zone hot
        path's boundary fallback at ~19 us/point).  Pair blocks are
        chunked so memory stays bounded for huge point batches."""
        shape = np.asarray(x).shape
        x = np.asarray(x, dtype=np.float64).ravel()
        y = np.asarray(y, dtype=np.float64).ravel()
        out = np.zeros(x.shape, dtype=bool)
        bx0, by0, bx1, by1 = self.bbox
        inb = (x >= bx0) & (x <= bx1) & (y >= by0) & (y <= by1)
        if not inb.any():
            return out.reshape(shape)
        xi = x[inb]
        yi = y[inb]
        bins = np.floor((xi - self._x0) / self.bin_width).astype(np.int64)
        off = self._bucket_offsets
        cnt = off[bins + 1] - off[bins]
        res = np.zeros(xi.shape, dtype=bool)
        nz = np.flatnonzero(cnt)
        # chunk points so the pair stream stays < ~4M rows
        csizes = np.cumsum(cnt[nz])
        bounds = np.searchsorted(csizes, np.arange(0, csizes[-1], 4_000_000)
                                 if len(csizes) else np.empty(0, np.int64))
        bounds = np.append(bounds, len(nz))
        for a, b in zip(bounds[:-1], bounds[1:]):
            pts = nz[a:b]
            c = cnt[pts]
            total = int(c.sum())
            if total == 0:
                continue
            first = off[bins[pts]]
            ptid, pos = _ragged(first, first + c)
            eidx = self._bucket_edges[pos]
            hits = _up_crossings(self.x1[eidx], self.y1[eidx], self.x2[eidx],
                                 self.y2[eidx], xi[pts][ptid], yi[pts][ptid])
            odd = np.bincount(ptid, weights=hits,
                              minlength=len(pts)).astype(np.int64)
            res[pts] = odd % 2 == 1
        out[inb] = res
        return out.reshape(shape)


class ZoneClassifier:
    """Batch classifier: which continental zones contain each lon/lat.

    Fast path = raster bit lookup; boundary cells fall back to the exact
    bucketed PIP.  Returns a (n_points, n_zones) bool matrix in the
    order of ``self.order``.
    """

    def __init__(self, buffered: bool = False, order: list[str] | None = None):
        self.buffered = buffered
        self.order = list(order or DEFAULT_CONTINENT_ORDER)
        rings = load_zone_rings(buffered=buffered)
        self.polys = {z: GeoPolygon(r) for z, r in rings.items()}
        self.res = _RASTER_RES
        sfx = "bfrd" if buffered else "std"
        inside, boundary = datafiles.load_or_build(
            datafiles.data_file(f"zone_raster_{sfx}", ".npz", ZONES_NPZ.read_bytes()),
            _load_raster, self._build_raster,
            lambda f, r: np.savez_compressed(f, inside=r[0], boundary=r[1]))
        # interleaved (inside | boundary << 8) uint16 raster: the hot
        # path does ONE random gather per point instead of two -- both
        # bytes share a cache line, halving random memory transactions
        # (the binding resource at full-machine concurrency).  The two
        # uint8 rasters are not kept.
        self._packed = (inside.astype(np.uint16)
                        | (boundary.astype(np.uint16) << 8))
        # the exact test of a boundary-cell point reads only its cell's
        # entry; a zone's bbox still bounds it, as in GeoPolygon.contains
        self._bcells = self._load_boundary_cells()
        self._bbox = np.full((8, 4), np.nan)
        for zi, zone in enumerate(self.order):
            if zone in self.polys:
                self._bbox[zi] = self.polys[zone].bbox
        self._cell_tables: dict[str, np.ndarray] = {}

    def __getstate__(self) -> dict:
        # a pickled classifier (e.g. inside a broadcast TileAssigner) does
        # not carry the cell -> tile tables other callers loaded; the
        # assigner holds its own
        return {**self.__dict__, "_cell_tables": {}}

    def _load_boundary_cells(self) -> dict[str, np.ndarray]:
        """The per-(zone, boundary cell) items of :func:`_build_boundary_cells`
        from their file in the package data directory (tracked for both
        zone specs).  Inside a Ray worker a missing file is not built:
        the classifier has no other exact path, so that raises."""
        sfx = "bfrd" if self.buffered else "std"
        p = datafiles.data_file(
            f"zone_edges_{sfx}", ".npz", ZONES_NPZ.read_bytes(),
            json.dumps([self.order, _CELL_EPS, _BOUNDARY_CELLS_VERSION]).encode())
        d = datafiles.load_or_build(
            p, lambda f: dict(np.load(f)),
            lambda: _build_boundary_cells(self.polys, self.order, self._packed, self.res),
            lambda f, d: np.savez(f, **d), optional=True)
        if d is None:
            raise RuntimeError(
                f"{p.name} is missing: build it outside Ray with "
                f"ZoneClassifier(buffered={self.buffered})")
        return d

    # -- raster ------------------------------------------------------------

    def _build_raster(self) -> tuple[np.ndarray, np.ndarray]:
        res = self.res
        ncol = int(round(360.0 / res))
        nrow = int(round(180.0 / res))
        inside_bits = np.zeros((nrow, ncol), dtype=np.uint8)
        boundary_bits = np.zeros((nrow, ncol), dtype=np.uint8)
        lat_centers = -90.0 + res * (np.arange(nrow) + 0.5)
        lon_centers = -180.0 + res * (np.arange(ncol) + 0.5)
        for zi, zone in enumerate(self.order):
            poly = self.polys.get(zone)
            if poly is None:
                continue
            bit = np.uint8(1 << zi)
            bnd = np.zeros((nrow, ncol), dtype=bool)
            # mark boundary cells by sampling each edge densely
            x1, y1, x2, y2 = poly.x1, poly.y1, poly.x2, poly.y2
            seglen = np.maximum(np.abs(x2 - x1), np.abs(y2 - y1))
            nsamp = np.maximum(2, np.ceil(seglen / (0.4 * res)).astype(np.int64) + 1)
            total = int(nsamp.sum())
            t = np.concatenate([np.linspace(0.0, 1.0, int(k)) for k in nsamp])
            ei = np.repeat(np.arange(len(x1)), nsamp)
            sx = x1[ei] + t * (x2[ei] - x1[ei])
            sy = y1[ei] + t * (y2[ei] - y1[ei])
            ci = np.clip(((sx + 180.0) / res).astype(np.int64), 0, ncol - 1)
            ri = np.clip(((sy + 90.0) / res).astype(np.int64), 0, nrow - 1)
            bnd[ri, ci] = True
            del t, ei, sx, sy, ci, ri
            assert total < 50_000_000
            # dilate by one cell (guards sample spacing + cell-edge cases)
            d = bnd.copy()
            d[1:, :] |= bnd[:-1, :]
            d[:-1, :] |= bnd[1:, :]
            d[:, 1:] |= d[:, :-1].copy()
            d[:, :-1] |= d[:, 1:].copy()
            bnd = d
            # scanline fill on cell centers
            fill = np.zeros((nrow, ncol), dtype=bool)
            y1e, y2e = y1, y2
            for r, lat in enumerate(lat_centers):
                m = (y1e > lat) != (y2e > lat)
                if not m.any():
                    continue
                xs = x1[m] + (lat - y1[m]) * (x2[m] - x1[m]) / (y2[m] - y1[m])
                xs.sort()
                cnt = np.searchsorted(xs, lon_centers, side="right")
                fill[r] = cnt % 2 == 1
            inside_bits |= np.where(fill & ~bnd, bit, 0).astype(np.uint8)
            boundary_bits |= np.where(bnd, bit, 0).astype(np.uint8)
        return inside_bits, boundary_bits

    # -- queries -----------------------------------------------------------

    def classify(self, lon, lat) -> np.ndarray:
        """(n, len(order)) bool: zone membership per point, the bit-unpack
        of :meth:`classify_bits` (same validity rule: a non-finite row,
        or one with |lon| > 180 or |lat| > 90, is in no zone)."""
        bits = self._zone_bits(lon, lat)
        return (bits[:, None] >> np.arange(len(self.order), dtype=np.uint8)) & 1 == 1

    def cell_index(self, lon, lat) -> tuple[np.ndarray, np.ndarray]:
        """(flat raster cell, valid) per lon/lat: the cell is
        ``row * ncol + col`` of the 0.1 deg raster, and ``valid`` is False
        for a non-finite row or one with |lon| > 180 or |lat| > 90.
        Such rows still get a cell in range (fmax/fmin clamp in float, so
        NaN and inf land in the raster before the int32 cast); callers
        mask them with ``valid``.  lon = 180 and lat = 90 fall in the last
        column and row."""
        lon = np.asarray(lon, dtype=np.float64).ravel()
        lat = np.asarray(lat, dtype=np.float64).ravel()
        nrow, ncol = self._packed.shape
        valid = (np.abs(lon) <= 180.0) & (np.abs(lat) <= 90.0)  # False for NaN
        ci = np.fmin(np.fmax((lon + 180.0) / self.res, 0.0), ncol - 1).astype(np.int32)
        ri = np.fmin(np.fmax((lat + 90.0) / self.res, 0.0), nrow - 1).astype(np.int32)
        return ri * ncol + ci, valid

    def classify_bits(self, lon, lat) -> np.ndarray:
        """(n,) uint8 zone-membership bitmask (bit i = self.order[i]).

        Packed variant of :meth:`classify` for the hot assignment path:
        1 byte/row of traffic instead of 7 -- at 32-way concurrency the
        wide bool matrix is measurable DRAM pressure.  A non-finite row,
        or one with |lon| > 180 or |lat| > 90, gets no bits.  A row in a
        zone's boundary cell takes the exact even-odd test in one flat
        pass over its (row, zone) pairs, each against its cell's short
        item list; the bits equal ``GeoPolygon.contains`` of the zone."""
        lon = np.asarray(lon, dtype=np.float64).ravel()
        lat = np.asarray(lat, dtype=np.float64).ravel()
        cell, valid = self.cell_index(lon, lat)
        # one flat gather: inside | boundary << 8; invalid rows lose
        # their bits
        pk = self._packed.ravel().take(cell)
        pk *= valid
        out = (pk & 0xFF).astype(np.uint8)
        rows = np.flatnonzero(pk >> 8)
        if len(rows):
            # a cell's boundary bits and inside bits are disjoint
            out[rows] |= self._boundary_bits(lon[rows], lat[rows], cell[rows],
                                             (pk[rows] >> 8).astype(np.uint8))
        return out

    def _boundary_bits(self, x, y, cell, bb) -> np.ndarray:
        """The zone bits, among ``bb``, of points in boundary cells."""
        bc = self._bcells
        # (point, zone) pairs, one per boundary bit
        p, z = np.nonzero(np.unpackbits(bb[:, None], axis=1, bitorder="little"))
        entry = np.searchsorted(bc["keys"], cell[p] * 8 + z)
        x, y = x[p], y[p]
        box = self._bbox[z]
        inb = (x >= box[:, 0]) & (x <= box[:, 2]) & (y >= box[:, 1]) & (y <= box[:, 3])
        off = bc["offsets"]
        pid, j = _ragged(off[entry], off[entry + 1])
        e = bc["edges"][bc["items"][j]]
        hits = _up_crossings(e[:, 0], e[:, 1], e[:, 2], e[:, 3], x[pid], y[pid])
        odd = np.bincount(pid, weights=hits, minlength=len(p)).astype(np.uint8) & 1
        inside = inb & ((bc["parity"][entry] ^ odd) == 1)
        return np.bincount(p, weights=inside.astype(np.int64) << z,
                           minlength=len(bb)).astype(np.uint8)

    # the kernel under a second name for classify: a span wrapped around
    # either public name then counts each row once
    _zone_bits = classify_bits

    def contains(self, zone: str, lon, lat) -> np.ndarray:
        zi = self.order.index(zone)
        return self.classify(lon, lat)[:, zi]

    # -- cell -> tile table ------------------------------------------------

    def build_cell_tile_table(self, zones, tile_size: float,
                              rows: tuple[int, int] | None = None) -> np.ndarray:
        """(nrow, ncol) int32 table over the raster: the tile every point
        of a cell is assigned to, or -1.

        ``zones`` lists ``(bit, project, locate)`` per zone:
        ``project(lon, lat) -> (x, y)`` is the zone's forward projection
        and ``locate(ll_x, ll_y)`` maps a tile's lower-left corner to the
        value to store (-1 for a tile outside the zone's tile set).  A
        cell gets a value when (a) its raster entry has no boundary bit
        and exactly this zone's inside bit, so :meth:`classify_bits`
        answers that one zone for every point of the cell, and (b) its
        whole projected footprint, widened by :data:`CELL_TABLE_MARGIN`
        on every side, lies in one tile.  ``rows`` builds just the raster
        rows ``[r0, r1)``; each cell depends only on its own samples, so
        any split gives the same values.

        Sampling and the margin bound: the footprint is sampled at the
        cell's four corners, nodes of the 0.1 deg lattice shared with the
        neighbouring cells (nodes past a pole continue over it,
        ``f(lon, 90 + d) = f(lon + 180, 90 - d)``).  The bilinear
        interpolant of the corners is a convex combination of them, and
        the projection differs from it by at most
        ``(h_lon**2 max|f_lon,lon| + h_lat**2 max|f_lat,lat|) / 8`` per
        coordinate.  ``h**2 f''`` is estimated at each corner from the
        second difference of the lattice nodes around it, and the
        cell's box is widened by that bound on top of the margin.  Over
        every table cell of the standard and buffered specs the bound is
        at most 6.1 m, so the 1 km margin covers an estimate off by more
        than two orders of magnitude, the < 2 mm error of the
        interpolated projector against the exact solver
        (``tests/test_interp.py``) and the float rounding of the cell
        index: the table gives the tile the projector and the exact
        solver give."""
        nrow, ncol = self._packed.shape
        r0, r1 = (0, nrow) if rows is None else rows
        res = self.res
        m = CELL_TABLE_MARGIN
        t = float(tile_size)
        out = np.full((r1 - r0, ncol), -1, dtype=np.int32)
        for a in range(r0, r1, _TABLE_BAND_ROWS):
            b = min(r1, a + _TABLE_BAND_ROWS)
            nb = b - a
            pk = self._packed[a:b]
            for bit, project, locate in zones:
                # boundary-free cells holding exactly this zone's bit
                cells = pk == np.uint16(bit)
                if not cells.any():
                    continue
                # lattice nodes (a - 1 + k, j - 1): each cell's four
                # corners plus the one-node ring its second differences read
                ring = np.zeros((nb + 3, ncol), dtype=bool)
                for d in range(4):
                    ring[d:d + nb] |= cells
                need = np.zeros((nb + 3, ncol + 3), dtype=bool)
                for d in range(4):
                    need[:, d:d + ncol] |= ring
                k, j = np.nonzero(need)
                lat = -90.0 + res * (a - 1 + k)
                lon = -180.0 + res * (j - 1)
                over = np.abs(lat) > 90.0
                lon = np.where(over, (lon + 360.0) % 360.0 - 180.0, lon)
                lat = np.where(over, np.copysign(180.0, lat) - lat, lat)
                box_ok = cells.copy()
                tile_ij = []
                for v in project(lon, lat):
                    g = np.full(need.shape, np.nan)
                    g[k, j] = v
                    c = g[1:nb + 2, 1:ncol + 2]  # the corner nodes
                    d_lon = np.abs(g[1:nb + 2, :ncol + 1] - 2.0 * c + g[1:nb + 2, 2:])
                    d_lat = np.abs(g[:nb + 1, 1:ncol + 2] - 2.0 * c + g[2:, 1:ncol + 2])
                    err = (_corner_max(d_lon) + _corner_max(d_lat)) / 8.0
                    lo = np.minimum(np.minimum(c[:-1, :-1], c[1:, :-1]),
                                    np.minimum(c[:-1, 1:], c[1:, 1:]))
                    hi = np.maximum(np.maximum(c[:-1, :-1], c[1:, :-1]),
                                    np.maximum(c[:-1, 1:], c[1:, 1:]))
                    with np.errstate(invalid="ignore"):
                        i0 = np.floor((lo - m - err) / t)
                        box_ok &= i0 == np.floor((hi + m + err) / t)
                    tile_ij.append(i0)
                tx, ty = (i[box_ok] * t for i in tile_ij)
                out[a - r0:b - r0][box_ok] = locate(tx, ty)
        return out

    def cell_tile_table(self, name: str, key: bytes, build) -> np.ndarray | None:
        """The flat cell -> tile table ``build()`` makes, with a trailing
        -1 cell, from its file in the package data directory.

        The file name hashes the zone raster, ``key`` (the caller's tile
        set, dictionary and tile size), the margin and the build version,
        so a change to any of them misses the file.  The table is int16
        while its values fit.  Inside a Ray worker a missing table is not
        built: the call returns None and the caller assigns without it."""
        sfx = "bfrd" if self.buffered else "std"
        p = datafiles.data_file(
            f"celltiles_{sfx}_{name}", ".npz", memoryview(self._packed), key,
            json.dumps([CELL_TABLE_MARGIN, _CELL_TABLE_VERSION]).encode())

        def save(f, t):
            if t.max(initial=-1) <= np.iinfo(np.int16).max:
                t = t.astype(np.int16)
            np.savez_compressed(f, table=t)

        if p.name not in self._cell_tables:
            table = datafiles.load_or_build(
                p, lambda p: np.load(p)["table"], build, save, optional=True)
            if table is None:
                return None
            self._cell_tables[p.name] = np.append(table.ravel(), table.dtype.type(-1))
        return self._cell_tables[p.name]


_classifiers: dict[bool, ZoneClassifier] = {}


def get_zone_classifier(buffered: bool = False) -> ZoneClassifier:
    """Process-local cached classifier (built once per worker)."""
    if buffered not in _classifiers:
        _classifiers[buffered] = ZoneClassifier(buffered=buffered)
    return _classifiers[buffered]
