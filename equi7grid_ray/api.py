"""Scalar/driver-side API mirroring the reference's surface.

A user of TUW-GEO/Equi7Grid finds the same operations here (same
semantics, batch-first internals):

    reference (core.py)                     -> engine
    get_standard_equi7grid(sampling, ...)      GridSpec.standard(...)
    grid.lonlat_to_xy(lon, lat)                lonlat_to_xy(...)
    grid.get_systems_from_lonlat               get_systems_from_lonlat
    system.lonlat_to_xy / xy_to_lonlat         aeqd.forward / inverse (+zone check)
    system.get_tile_from_lonlat/_xy            get_tile_from_lonlat/_xy
    grid.get_tile_from_name                    get_tile_from_name
    system.get_children_from_name/_parent_     get_children_from_name/_parent_
    grid.get_tiles_in_geog_bbox/_geom          roi.tiles_in_geog_bbox/_geom
    system.get_tiles_in_bbox                   roi.tiles_in_proj_bbox
    calc_length_distortion(_on_ellipsoid)      aeqd.length_distortion_*
    allowed_samplings                          grid.allowed_samplings

Tile objects are lightweight dataclasses (TileInfo) computed on the fly
from closed-form math -- the batch pipelines never materialize them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from equi7grid_ray import aeqd
from equi7grid_ray.constants import CONTINENTS
from equi7grid_ray.errors import GeomOutOfZoneError, TileOutOfZoneError
from equi7grid_ray.grid import (
    GridSpec,
    children_ll,
    full_names,
    parent_ll,
    parse_tile_names,
    rc2xy,
    tile_geotrans,
    tile_ll_from_xy,
    xy2rc,
)
from equi7grid_ray.tiling_state import _edges_cross_rect, _rect_poly_intersects, get_grid_state


@dataclass(frozen=True)
class TileInfo:
    """One Equi7 tile (cf. Equi7Tile, /root/reference/src/equi7grid/core.py:39-52)."""

    name: str
    continent: str
    tiling: str
    ll_x: float
    ll_y: float
    tile_size: float
    sampling: float
    #: APPROXIMATE: derived from the synthetic coastline in land.py (the
    #: reference's land.parquet blob is missing upstream); global land-T6
    #: count is 668 vs the reference's documented 864.  Wire the real
    #: land polygon in and bump land.LAND_VERSION when available.
    covers_land: bool
    px_origin: str = "ll"

    @property
    def outer_boundary_extent(self) -> tuple:
        return (self.ll_x, self.ll_y, self.ll_x + self.tile_size, self.ll_y + self.tile_size)

    @property
    def coord_extent(self) -> tuple:
        """Pixel-origin extent for 'll' (golden tests/test_equi7grid.py:160-161)."""
        s = self.sampling
        return (self.ll_x, self.ll_y, self.ll_x + self.tile_size - s, self.ll_y + self.tile_size - s)

    @property
    def outer_boundary_corners(self) -> tuple:
        x0, y0, x1, y1 = self.outer_boundary_extent
        return ((x0, y0), (x0, y1), (x1, y1), (x1, y0))

    @property
    def shape(self) -> tuple[int, int]:
        n = int(round(self.tile_size / self.sampling))
        return (n, n)

    n_rows = property(lambda self: self.shape[0])
    n_cols = property(lambda self: self.shape[1])
    width = property(lambda self: self.shape[1])
    height = property(lambda self: self.shape[0])
    x_pixel_size = property(lambda self: self.sampling)
    y_pixel_size = property(lambda self: self.sampling)
    ur_x = property(lambda self: self.ll_x + self.tile_size)
    ur_y = property(lambda self: self.ll_y + self.tile_size)

    @property
    def geotrans(self) -> tuple:
        return tile_geotrans(self.ll_x, self.ll_y, self.tile_size, self.sampling)

    def rc2xy(self, r, c, px_origin: str | None = None):
        return rc2xy(r, c, self.ll_x, self.ll_y, self.tile_size, self.sampling,
                     px_origin or self.px_origin)

    def xy2rc(self, x, y, px_origin: str | None = None):
        return xy2rc(x, y, self.ll_x, self.ll_y, self.tile_size, self.sampling,
                     px_origin or self.px_origin)

    def x_coords(self, px_origin: str | None = None) -> np.ndarray:
        n = self.shape[1]
        return self.rc2xy(np.zeros(n), np.arange(n), px_origin)[0]

    def y_coords(self, px_origin: str | None = None) -> np.ndarray:
        n = self.shape[0]
        return self.rc2xy(np.arange(n), np.zeros(n), px_origin)[1]

    def xy_coords(self, px_origin: str | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(X, Y) coordinate meshgrids of every pixel (reference
        RasterGeometry.xy_coords parity); shape == self.shape each."""
        return np.meshgrid(self.x_coords(px_origin), self.y_coords(px_origin))

    # topology vs an axis-aligned extent or point set
    def intersects_extent(self, extent) -> bool:
        x0, y0, x1, y1 = extent
        return not (
            x1 < self.ll_x or x0 > self.ur_x or y1 < self.ll_y or y0 > self.ur_y
        )

    def contains_xy(self, x, y) -> np.ndarray:
        x = np.asarray(x)
        y = np.asarray(y)
        return (x >= self.ll_x) & (x <= self.ur_x) & (y >= self.ll_y) & (y <= self.ur_y)

    # ------------------------------------------------------------------
    # polygon topology vs a projected-geometry ring (the reference's
    # shapely-backed tile topology, docs/guides/tile.ipynb "Topological
    # operations" over core.py:39-52 tile objects).  ``geom`` is an
    # (N, 2) ring of projected coordinates in this tile's continental
    # CRS, or a prebuilt zones.GeoPolygon.
    # ------------------------------------------------------------------

    _EPS = 1e-6  # interior shrink (metres) for open-set tests

    @staticmethod
    def _as_poly(geom):
        from equi7grid_ray.zones import GeoPolygon

        if isinstance(geom, GeoPolygon):
            return geom
        ring = np.asarray(geom, dtype=np.float64)
        return GeoPolygon([(ring, False)])

    def _closed_intersects(self, poly) -> bool:
        return _rect_poly_intersects(poly, self.ll_x, self.ll_y, self.ur_x, self.ur_y)

    def _interior_intersects(self, poly) -> bool:
        e = self._EPS
        return _rect_poly_intersects(
            poly, self.ll_x + e, self.ll_y + e, self.ur_x - e, self.ur_y - e
        )

    def intersects(self, geom) -> bool:
        """Closed-set intersection (shares at least one point)."""
        return self._closed_intersects(self._as_poly(geom))

    def within(self, geom) -> bool:
        """Tile entirely inside the geometry (tile subset of geom)."""
        poly = self._as_poly(geom)
        cx = np.array([self.ll_x, self.ll_x, self.ur_x, self.ur_x])
        cy = np.array([self.ll_y, self.ur_y, self.ll_y, self.ur_y])
        if not poly.contains(cx, cy).all():
            return False
        # no geometry-boundary edge may cross the tile interior
        e = self._EPS
        for xy, _h in poly.rings:
            inside = (
                (xy[:, 0] > self.ll_x + e)
                & (xy[:, 0] < self.ur_x - e)
                & (xy[:, 1] > self.ll_y + e)
                & (xy[:, 1] < self.ur_y - e)
            )
            if inside.any():
                return False
        return not self._boundary_crosses_interior(poly)

    def contains_geom(self, geom) -> bool:
        """Geometry entirely inside the tile."""
        poly = self._as_poly(geom)
        for xy, _h in poly.rings:
            ok = (
                (xy[:, 0] >= self.ll_x)
                & (xy[:, 0] <= self.ur_x)
                & (xy[:, 1] >= self.ll_y)
                & (xy[:, 1] <= self.ur_y)
            )
            if not ok.all():
                return False
        return True

    def overlaps(self, geom) -> bool:
        """Interiors intersect and neither side contains the other
        (shapely ``overlaps`` for equal-dimension geometries)."""
        poly = self._as_poly(geom)
        return (
            self._interior_intersects(poly)
            and not self.within(poly)
            and not self.contains_geom(poly)
        )

    def touches(self, geom) -> bool:
        """Boundaries meet but interiors do not intersect."""
        poly = self._as_poly(geom)
        return self._closed_intersects(poly) and not self._interior_intersects(poly)

    def _boundary_crosses_interior(self, poly) -> bool:
        """Any polygon-ring edge passing through the OPEN tile rect."""
        e = self._EPS
        return _edges_cross_rect(poly, self.ll_x + e, self.ll_y + e,
                                 self.ur_x - e, self.ur_y - e, strict=True)

    @property
    def boundary_wkt(self) -> str:
        x0, y0, x1, y1 = self.outer_boundary_extent
        return (
            f"POLYGON (({x0} {y0}, {x0} {y1}, {x1} {y1}, {x1} {y0}, {x0} {y0}))"
        )


def _tile_info(spec: GridSpec, continent: str, ll_x: float, ll_y: float,
               tiling_id) -> TileInfo:
    state = get_grid_state(spec)
    tiling = spec.tiling_name(tiling_id)
    ct = state.tiles(continent, tiling)
    idx = int(ct.lookup(np.array([ll_x]), np.array([ll_y]))[0])
    covers = bool(ct.covers_land[idx]) if idx >= 0 else False
    name = str(full_names(continent, np.array([ll_x]), np.array([ll_y]), tiling)[0])
    return TileInfo(
        name=name, continent=continent, tiling=tiling, ll_x=ll_x, ll_y=ll_y,
        tile_size=spec.tile_size(tiling), sampling=spec.sampling_of(tiling),
        covers_land=covers,
    )


def get_systems_from_lonlat(lon: float, lat: float, spec: GridSpec | None = None) -> list[str]:
    """Ordered continents whose zone contains the point
    (cf. core.py get_systems_from_lonlat usage at :436)."""
    spec = spec or GridSpec.standard()
    state = get_grid_state(spec)
    conts = spec.continents()
    mask = state.zc.classify([lon], [lat])[0]
    order = {z: i for i, z in enumerate(state.zc.order)}
    return [c for c in conts if mask[order[c]]]


def lonlat_to_xy(lon: float, lat: float, spec: GridSpec | None = None) -> dict[str, tuple[float, float]]:
    """{continent: (x, y)} for every zone containing the point, ordered by
    continent_order; raises GeomOutOfZoneError when empty
    (goldens tests/test_equi7grid.py:405-439)."""
    spec = spec or GridSpec.standard()
    systems = get_systems_from_lonlat(lon, lat, spec)
    if not systems:
        raise GeomOutOfZoneError(f"({lon}, {lat}) is outside every requested zone")
    out = {}
    for c in systems:
        x, y = aeqd.forward(c, lon, lat)
        out[c] = (float(x), float(y))
    return out


def system_lonlat_to_xy(continent: str, lon, lat, *, check_zone: bool = True,
                        spec: GridSpec | None = None):
    """One continent's forward transform; optional zone check raises
    GeomOutOfZoneError (scalar parity with TilingSystem.lonlat_to_xy)."""
    if check_zone:
        state = get_grid_state(spec or GridSpec.standard())
        if not state.zc.contains(continent, np.atleast_1d(lon), np.atleast_1d(lat)).all():
            raise GeomOutOfZoneError(f"point outside {continent} zone")
    return aeqd.forward(continent, lon, lat)


def system_xy_to_lonlat(continent: str, x, y):
    return aeqd.inverse(continent, x, y)


def get_tile_from_xy(continent: str, x: float, y: float, tiling_id=None,
                     spec: GridSpec | None = None) -> TileInfo:
    spec = spec or GridSpec.standard()
    tiling_id = tiling_id or spec.first_tiling()
    t = spec.tile_size(tiling_id)
    ll_x, ll_y = tile_ll_from_xy(x, y, t)
    return _tile_info(spec, continent, float(ll_x), float(ll_y), tiling_id)


def get_tile_from_lonlat(lon: float, lat: float, tiling_id=None,
                         continent: str | None = None,
                         spec: GridSpec | None = None) -> TileInfo:
    spec = spec or GridSpec.standard()
    if continent is None:
        systems = get_systems_from_lonlat(lon, lat, spec)
        if not systems:
            raise GeomOutOfZoneError(f"({lon}, {lat}) outside every zone")
        continent = systems[0]
    x, y = aeqd.forward(continent, lon, lat)
    return get_tile_from_xy(continent, float(x), float(y), tiling_id, spec)


def _parse_name(name: str, spec: GridSpec) -> dict:
    """One tile name decoded by ``parse_tile_names``; ValueError for any
    other shape, an unknown tiling or an off-grid corner."""
    p = parse_tile_names(name, spec)
    if not bool(p["valid"]):
        raise ValueError(f"The given tilename '{name}' is not valid.")
    return p


def get_tile_from_name(name: str, spec: GridSpec | None = None) -> TileInfo:
    """Parse + validate a full tilename (ValueError for malformed names
    and off-grid corners, TileOutOfZoneError outside the zone;
    core.py:172-228)."""
    spec = spec or GridSpec.standard()
    p = _parse_name(name, spec)
    continent = str(p["continent"])
    if continent not in CONTINENTS:
        raise ValueError(f"unknown continent in '{name}'")
    state = get_grid_state(spec)
    ct = state.tiles(continent, str(p["tiling"]))
    idx = int(ct.lookup(np.array([p["ll_x"]]), np.array([p["ll_y"]]))[0])
    if idx < 0:
        raise TileOutOfZoneError(f"tile '{name}' lies outside the {continent} zone")
    return _tile_info(spec, continent, float(p["ll_x"]), float(p["ll_y"]), str(p["tiling"]))


def get_children_from_name(name: str, spec: GridSpec | None = None) -> list[TileInfo]:
    """Children at the next higher level (core.py:326-340)."""
    spec = spec or GridSpec.standard()
    p = _parse_name(name, spec)
    lvl = spec.level_of(str(p["tiling"]))
    child_lvl = lvl + 1
    if child_lvl not in spec.tilings:
        raise KeyError(f"no tiling below {p['tiling']}")
    cx, cy = children_ll(
        float(p["ll_x"]), float(p["ll_y"]), spec.tile_size(lvl), spec.tile_size(child_lvl)
    )
    out = []
    state = get_grid_state(spec)
    ct = state.tiles(str(p["continent"]), child_lvl)
    idx = ct.lookup(cx, cy)
    for x, y, i in zip(cx, cy, idx):
        if i >= 0:  # children outside the zone are skipped
            out.append(_tile_info(spec, str(p["continent"]), float(x), float(y), child_lvl))
    return out


def get_parent_from_name(name: str, spec: GridSpec | None = None) -> TileInfo:
    """Parent at the next lower level (core.py:342-356)."""
    spec = spec or GridSpec.standard()
    p = _parse_name(name, spec)
    lvl = spec.level_of(str(p["tiling"]))
    parent_lvl = lvl - 1
    if parent_lvl not in spec.tilings:
        raise KeyError(f"no tiling above {p['tiling']}")
    px, py = parent_ll(p["ll_x"], p["ll_y"], spec.tile_size(parent_lvl))
    return _tile_info(spec, str(p["continent"]), float(px), float(py), parent_lvl)


def calc_length_distortion(continent: str, x, y):
    return aeqd.length_distortion_planar(continent, x, y)


def calc_length_distortion_on_ellipsoid(lon: float, lat: float,
                                        spec: GridSpec | None = None):
    """Distortion in the first zone containing the point (core.py:416-452)."""
    systems = get_systems_from_lonlat(lon, lat, spec)
    if not systems:
        raise GeomOutOfZoneError(f"({lon}, {lat}) outside every zone")
    return float(aeqd.length_distortion_ellipsoid(systems[0], lon, lat))
