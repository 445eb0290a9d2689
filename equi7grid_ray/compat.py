"""Drop-in compatibility surface mirroring the reference package's
public API (``equi7grid.core``), so a reference user can switch without
rewriting call sites:

    from equi7grid_ray.compat import get_standard_equi7grid
    grid = get_standard_equi7grid(500)
    grid.EU.lonlat_to_xy(15.1, 45.3)
    [t.name for t in grid.get_tiles_in_geog_bbox((16, 48, 18, 50), "T6")]
    tile = grid.get_tile_from_name("EU500M_E048N012T6")
    tile.rc2xy(444, 333); tile.xy2rc(3166500, 5178000)

Name scheme parity: the reference's *full* tilenames carry the sampling
("EU500M_E048N012T6", core.py:134-151); the engine's internal names are
"EU_E048N012T6".  This layer translates both ways.

Thin wrappers only -- every computation delegates to the engine modules
(api/roi/grid/aeqd); nothing here re-implements math.  Reference
surface: core.py:39-651.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from equi7grid_ray import api, roi
from equi7grid_ray.grid import GridSpec, allowed_samplings  # noqa: F401 (re-export)

__all__ = [
    "Equi7Tile",
    "Equi7TilingSystem",
    "Equi7Grid",
    "get_standard_equi7grid",
    "get_user_equi7grid",
    "get_equi7grid_from_grid_def",
    "get_equi7grid_from_file",
    "allowed_samplings",
    "get_overlapping_tiles",
    "ftilenames_to_tiles",
    "resample_to_equi7_tiles",
]


def _sampling_token(sampling: float) -> str:
    s = float(sampling)
    return f"{int(s)}M" if s == int(s) else f"{s}M"


@dataclass
class Equi7Tile:
    """Reference-tile facade over the engine's TileInfo."""

    _info: api.TileInfo

    @property
    def name(self) -> str:
        i = self._info
        part = i.name.split("_", 1)[1]
        return f"{i.continent}{_sampling_token(i.sampling)}_{part}"

    def __str__(self) -> str:
        return self.name

    # raster addressing ------------------------------------------------
    def rc2xy(self, r, c, px_origin: str | None = None):
        return self._info.rc2xy(r, c, px_origin)

    def xy2rc(self, x, y, px_origin: str | None = None):
        return self._info.xy2rc(x, y, px_origin)

    @property
    def n_rows(self) -> int:
        return self._info.shape[0]

    @property
    def n_cols(self) -> int:
        return self._info.shape[1]

    @property
    def x_pixel_size(self) -> float:
        return self._info.sampling

    @property
    def y_pixel_size(self) -> float:
        return self._info.sampling

    @property
    def outer_boundary_corners(self):
        return self._info.outer_boundary_corners

    @property
    def outer_boundary_extent(self):
        return self._info.outer_boundary_extent

    @property
    def covers_land(self) -> bool:
        return self._info.covers_land

    def __getattr__(self, item):  # anything else: the engine TileInfo
        # guard dunder/underscore probes (pickle/copy look for
        # __setstate__ etc. BEFORE _info exists -- unguarded delegation
        # recurses forever)
        if item.startswith("_"):
            raise AttributeError(item)
        return getattr(self._info, item)


def _strip_sampling(ftilename: str) -> str:
    """'EU500M_E048N012T6' -> 'EU_E048N012T6' (engine-internal)."""
    head, _, rest = ftilename.partition("_")
    if len(head) > 2:  # sampling token present
        head = head[:2]
    return f"{head}_{rest}" if rest else ftilename


class Equi7TilingSystem:
    """Per-continent system facade (reference core.py:55-357)."""

    def __init__(self, continent: str, spec: GridSpec):
        self.continent = continent
        self.spec = spec

    # coordinate transforms -------------------------------------------
    def lonlat_to_xy(self, lon, lat, *, check_zone: bool = True):
        return api.system_lonlat_to_xy(
            self.continent, lon, lat, check_zone=check_zone, spec=self.spec
        )

    def xy_to_lonlat(self, x, y):
        return api.system_xy_to_lonlat(self.continent, x, y)

    def calc_length_distortion(self, x, y):
        return api.calc_length_distortion(self.continent, x, y)

    # tile accessors ---------------------------------------------------
    def get_tile_from_lonlat(self, lon, lat, tiling_id=None) -> Equi7Tile:
        return Equi7Tile(api.get_tile_from_lonlat(
            lon, lat, tiling_id, continent=self.continent, spec=self.spec
        ))

    def get_tile_from_xy(self, x, y, tiling_id=None) -> Equi7Tile:
        return Equi7Tile(api.get_tile_from_xy(
            self.continent, x, y, tiling_id, spec=self.spec
        ))

    def get_tile_from_name(self, ftilename: str) -> Equi7Tile:
        return Equi7Tile(api.get_tile_from_name(
            _strip_sampling(ftilename), self.spec
        ))

    def get_children_from_name(self, ftilename: str) -> Iterator[Equi7Tile]:
        for t in api.get_children_from_name(_strip_sampling(ftilename), self.spec):
            yield Equi7Tile(t)

    def get_parent_from_name(self, ftilename: str) -> Equi7Tile:
        return Equi7Tile(api.get_parent_from_name(
            _strip_sampling(ftilename), self.spec
        ))

    # ROI search -------------------------------------------------------
    def get_tiles_in_bbox(self, bbox, tiling_id="T6", *,
                          cover_land: bool = False) -> Iterator[Equi7Tile]:
        for name in roi.tiles_in_proj_bbox(
            self.continent, bbox, tiling_id, cover_land=cover_land, spec=self.spec
        ):
            yield Equi7Tile(api.get_tile_from_name(name, self.spec))

    def get_tiles_in_geog_bbox(self, bbox, tiling_id="T6", *,
                               cover_land: bool = False) -> Iterator[Equi7Tile]:
        for name in roi.tiles_in_geog_bbox(
            bbox, tiling_id, cover_land=cover_land, spec=self.spec,
            continents=[self.continent],
        ):
            yield Equi7Tile(api.get_tile_from_name(name, self.spec))

    def get_tiles_in_geom(self, geom, tiling_id="T6", *,
                          cover_land: bool = False,
                          crs: str = "geog") -> Iterator[Equi7Tile]:
        for name in roi.tiles_in_geom(
            geom, tiling_id, cover_land=cover_land, spec=self.spec,
            continents=[self.continent], crs=crs,
        ):
            yield Equi7Tile(api.get_tile_from_name(name, self.spec))


class Equi7Grid:
    """Whole-grid facade (reference core.py:359-535): per-continent
    systems as attributes AF..SA plus grid-level queries."""

    def __init__(self, spec: GridSpec):
        self.spec = spec
        for cont in spec.continents():
            setattr(self, cont, Equi7TilingSystem(cont, spec))

    @property
    def system_order(self) -> list[str]:
        return list(self.spec.continents())

    def __getitem__(self, continent: str) -> Equi7TilingSystem:
        return getattr(self, continent)

    def __contains__(self, lonlat) -> bool:
        lon, lat = lonlat
        return bool(api.get_systems_from_lonlat(lon, lat, self.spec))

    def get_systems_from_lonlat(self, lon, lat) -> list[str]:
        return api.get_systems_from_lonlat(lon, lat, self.spec)

    def lonlat_to_xy(self, lon, lat) -> dict[str, tuple[float, float]]:
        return api.lonlat_to_xy(lon, lat, self.spec)

    def calc_length_distortion_on_ellipsoid(self, lon, lat):
        return api.calc_length_distortion_on_ellipsoid(lon, lat)

    def get_tile_from_name(self, ftilename: str) -> Equi7Tile:
        return Equi7Tile(api.get_tile_from_name(
            _strip_sampling(ftilename), self.spec
        ))

    def get_tiles_in_geog_bbox(self, bbox, tiling_id="T6", *,
                               cover_land: bool = False) -> Iterator[Equi7Tile]:
        for name in roi.tiles_in_geog_bbox(
            bbox, tiling_id, cover_land=cover_land, spec=self.spec
        ):
            yield Equi7Tile(api.get_tile_from_name(name, self.spec))

    def get_tiles_in_geom(self, geom, tiling_id="T6", *,
                          cover_land: bool = False,
                          crs: str = "geog") -> Iterator[Equi7Tile]:
        for name in roi.tiles_in_geom(
            geom, tiling_id, cover_land=cover_land, spec=self.spec, crs=crs
        ):
            yield Equi7Tile(api.get_tile_from_name(name, self.spec))


def get_standard_equi7grid(sampling, *, buffered: bool = False,
                           continent_order=None) -> Equi7Grid:
    """Reference core.py:572-602."""
    return Equi7Grid(GridSpec.standard(
        sampling=sampling, buffered=buffered,
        continent_order=list(continent_order) if continent_order else None,
    ))


def get_user_equi7grid(sampling, tiling_defs, *, buffered: bool = False,
                       continent_order=None) -> Equi7Grid:
    """Reference core.py:538-569."""
    return Equi7Grid(GridSpec(
        sampling=sampling, tilings=tiling_defs, buffered=buffered,
        continent_order=list(continent_order) if continent_order else None,
    ))


def get_equi7grid_from_grid_def(grid_def: dict) -> Equi7Grid:
    """Reference core.py:605-629."""
    return Equi7Grid(GridSpec.from_grid_def(grid_def))


def get_equi7grid_from_file(path) -> Equi7Grid:
    """Reference core.py:632-648."""
    return Equi7Grid(GridSpec.from_file(path))


# --- warp entry points (reference warp.py:333-401, 404-420, 424-578) --------

def _compat_tiling(e7grid: Equi7Grid, tiling_id) -> str:
    """Reference tiling_id semantics: 0 (or any level int) selects by
    level, default = first level (warp.py:340)."""
    if tiling_id == 0:
        return e7grid.spec.first_tiling()
    return e7grid.spec.tiling_name(tiling_id)


def _gtiff_source_meta(filepath):
    """Read a GeoTIFF input file (the reference's ACTUAL input flavour,
    test_warp.py:43-124 fixtures) and derive the engine's source-grid
    parameters: (array, src_crs, center_lon, center_lat, res, nodata).

    Geographic CRS (GeoKey model 2): north-up lon/lat grid, ``res`` =
    pixel size in degrees.  EPSG:3857: webmercator grid, ``res`` in
    metres.  Other projected CRSs raise (the two families are what the
    reference's warp tests exercise)."""
    from equi7grid_ray.gtiff import read_gtiff

    g = read_gtiff(filepath)
    if g.geotrans is None:
        raise ValueError(f"{filepath}: no geotransform")
    gt = g.geotrans
    a = g.array
    h, w = a.shape[-2], a.shape[-1]
    cx = gt[0] + w / 2.0 * gt[1]
    cy = gt[3] + h / 2.0 * gt[5]
    model = g.geokeys.get(1024)
    if model == 2:  # geographic
        return g, "geog", cx, cy, gt[1], g.nodata
    if g.crs_epsg == 3857:
        from equi7grid_ray import mercator

        lon, lat = mercator.inverse(np.array([cx]), np.array([cy]))
        return g, "webmercator", float(lon[0]), float(lat[0]), gt[1], g.nodata
    raise NotImplementedError(
        f"GeoTIFF input CRS EPSG:{g.crs_epsg}: only geographic and "
        "EPSG:3857 source grids are supported")


def _gtiff_to_row_parquet(filepath, tmp_dir) -> tuple:
    """Materialize one GeoTIFF as a single-row image parquet fragment
    (the engine's source schema); returns (fragment_dir, src_crs,
    res)."""
    import pyarrow.parquet as pq

    g, src_crs, lon_c, lat_c, res, nodata = _gtiff_source_meta(filepath)
    a = g.array
    bands = 1 if a.ndim == 2 else a.shape[0]
    h, w = a.shape[-2], a.shape[-1]
    import pyarrow as _pa

    t = _pa.table({
        "image_id": _pa.array([Path(filepath).stem], _pa.string()),
        "bytes": _pa.array([np.ascontiguousarray(a).tobytes()],
                           _pa.large_binary()),
        "w": _pa.array([w], _pa.int32()),
        "h": _pa.array([h], _pa.int32()),
        "fmt": _pa.array(["raw"], _pa.string()),
        "dtype": _pa.array([a.dtype.name], _pa.string()),
        "bands": _pa.array([bands], _pa.int32()),
        "lon": _pa.array([lon_c], _pa.float64()),
        "lat": _pa.array([lat_c], _pa.float64()),
        **({"scale": _pa.array([g.scale], _pa.float64())}
           if g.scale is not None else {}),
        **({"offset": _pa.array([g.offset], _pa.float64())}
           if g.offset is not None else {}),
    })
    d = Path(tmp_dir)
    d.mkdir(parents=True, exist_ok=True)
    pq.write_table(t, d / f"{Path(filepath).stem}.parquet")
    return d, src_crs, res, nodata


def _parquet_footprint_bbox(filepath, *, accurate: bool,
                            image_nodata=None) -> tuple:
    """Union geographic bbox of the image rows in a parquet file -- the
    filepath ROI flavour (warp.py:388-393: get_raster_boundary /
    get_raster_extent).  ``accurate=True`` decodes every payload and
    unions the valid-data outlines (stages/boundary.accurate_boundary);
    else the declared extents."""
    import pyarrow.parquet as pq

    from equi7grid_ray.codec import decode_image
    from equi7grid_ray.stages import boundary
    from equi7grid_ray.stages.regrid import SRC_RES_DEG

    t = pq.read_table(filepath)
    lon = t.column("lon").to_numpy()
    lat = t.column("lat").to_numpy()
    ws = t.column("w").to_numpy()
    hs = t.column("h").to_numpy()
    bboxes = []
    if accurate:
        fmts = t.column("fmt").to_pylist()
        dts = (t.column("dtype").to_pylist()
               if "dtype" in t.column_names else ["uint8"] * t.num_rows)
        payloads = t.column("bytes")
        for j in range(t.num_rows):
            img = decode_image(payloads[j].as_py(), fmts[j],
                               int(ws[j]), int(hs[j]), dtype=dts[j])
            if img.ndim == 3:
                img = img[0] if img.shape[0] <= 4 else img[..., 0]
            ring = boundary.accurate_boundary(
                img, nodata=image_nodata, lon_c=float(lon[j]),
                lat_c=float(lat[j]), res=SRC_RES_DEG)
            if len(ring):
                bboxes.append((ring[:, 0].min(), ring[:, 1].min(),
                               ring[:, 0].max(), ring[:, 1].max()))
    if not bboxes:
        for j in range(t.num_rows):
            bboxes.append(boundary.raster_extent(
                float(lon[j]), float(lat[j]), int(ws[j]), int(hs[j]),
                SRC_RES_DEG))
    b = np.asarray(bboxes)
    return (float(b[:, 0].min()), float(b[:, 1].min()),
            float(b[:, 2].max()), float(b[:, 3].max()))


def get_overlapping_tiles(
    e7grid: Equi7Grid,
    *,
    tiling_id=0,
    xy_bbox_map=None,
    geog_bbox=None,
    roi_geom=None,
    filepath=None,
    cover_land: bool = False,
    accurate_boundary: bool = False,
) -> list[Equi7Tile]:
    """Reference warp.py:333-401 under its own argument names: exactly
    one ROI flavour (or ``filepath``, whose footprint becomes a geog
    bbox); returns Equi7Tile facades."""
    from equi7grid_ray.pipelines import warp as warp_mod

    tiling = _compat_tiling(e7grid, tiling_id)
    given = [v is not None
             for v in (xy_bbox_map, geog_bbox, roi_geom, filepath)]
    if sum(given) != 1:
        raise ValueError(
            "One of the arguments must be set: 'xy_bbox_map', "
            "'geog_bbox', 'roi_geom', or 'filepath'."
        )
    if filepath is not None:
        if str(filepath).endswith((".tif", ".tiff")):
            import pyarrow as pa

            from equi7grid_ray.stages.regrid import PROBES_5, SourceGrid

            g, src_crs, lon_c, lat_c, res, _nd = _gtiff_source_meta(filepath)
            h, w = g.array.shape[-2:]
            grid = SourceGrid(src_crs, res)
            cx, cy = grid.centers(pa.table({"lon": [lon_c], "lat": [lat_c]}))
            lo, la = grid.point(cx, cy, w, h, *PROBES_5)
            geog_bbox = (lo.min(), la.min(), lo.max(), la.max())
        else:
            geog_bbox = _parquet_footprint_bbox(
                filepath, accurate=accurate_boundary)
    names = warp_mod.get_overlapping_tiles(
        xy_bbox_map=xy_bbox_map, geog_bbox=geog_bbox, roi_geom=roi_geom,
        tiling_id=tiling, cover_land=cover_land, spec=e7grid.spec,
    )
    return [e7grid.get_tile_from_name(n) for n in names]


def ftilenames_to_tiles(ftilenames: list[str],
                        e7grid: Equi7Grid) -> list[Equi7Tile]:
    """Reference warp.py:404-420."""
    return [e7grid.get_tile_from_name(n) for n in ftilenames]


#: reference compress types we transparently substitute: zstd needs
#: libzstd, absent from this sandbox; deflate is the lossless stand-in
#: (documented substitution, not silent).  LZW -- the reference's
#: DEFAULT compress_type -- is implemented for real (gtiff._lzw_encode).
_COMPRESS_SUBSTITUTED = {"zstd"}


def resample_to_equi7_tiles(
    filepath,
    e7grid: Equi7Grid,
    output_dirpath,
    *,
    tiling_id=0,
    xy_bbox_map=None,
    geog_bbox=None,
    roi_geom=None,
    cover_land: bool = False,
    accurate_boundary: bool = False,
    ftilenames: list[str] | None = None,
    band: int = 1,
    image_nodata: float | None = None,
    resampling_type=None,
    compress_type: str = "LZW",
    naming_traffo=None,
    tile_nodata: float | None = None,
    tile_dtype=None,
    tile_scale: float | None = None,
    tile_offset: float | None = None,
    tile_blocksize: int | None = None,
    tif_is_tiled: bool = True,
    overwrite: bool = False,
    create_e7_folder: bool = True,
    n_tasks: int = 1,
    src_res_deg: float | None = None,
) -> list:
    """Reference warp.py:424-578 under its own argument names, on the
    parquet-pixel backend: ``filepath`` is an image-row parquet file (or
    a directory of fragments), the sink is the GeoTIFF pipeline
    (``EQUI7_{continent}/{tilename}/`` layout), ``n_tasks`` maps to the
    map_batches concurrency, and the return value is the list of written
    tile paths.

    Substitutions and honest gates: LZW (the reference default) is a
    real pure-python TIFF-LZW codec; zstd maps to deflate (libzstd
    absent from this sandbox; see ``_COMPRESS_SUBSTITUTED``); ``band``
    must be 1 (payload rows are
    band-complete); ``tile_dtype``/``tile_scale``/``tile_offset`` are
    row-driven here (per-row ``dtype``/``scale``/``offset`` columns) and
    raise if forced; ``create_e7_folder=False`` is unsupported.
    ``src_res_deg`` is the pixel size of parquet image rows (default
    ``SRC_RES_DEG``); a GeoTIFF input takes its CRS and pixel size from
    the file."""
    from pathlib import Path as _Path

    from equi7grid_ray.pipelines import warp as warp_mod
    from equi7grid_ray.state import checkpoint

    if band != 1:
        raise NotImplementedError("band selection: payload rows are "
                                  "band-complete (bands column)")
    for arg, name in ((tile_dtype, "tile_dtype"), (tile_scale, "tile_scale"),
                      (tile_offset, "tile_offset")):
        if arg is not None:
            raise NotImplementedError(
                f"{name} is row-driven on this backend (per-row "
                "dtype/scale/offset columns)")
    if not create_e7_folder:
        raise NotImplementedError("create_e7_folder=False")

    tiling = _compat_tiling(e7grid, tiling_id)
    comp = str(compress_type or "deflate").lower()
    if comp in _COMPRESS_SUBSTITUTED:
        comp = "deflate"
    if comp not in ("deflate", "none", "lzw"):
        raise ValueError(f"unsupported compress_type {compress_type!r}")

    rs = resampling_type
    if rs is None:
        rs = "nearest"
    elif not isinstance(rs, str):
        rs = getattr(rs, "name", str(rs))  # rasterio.Resampling enum shape
    rs = {"cubicspline": "cubic_spline"}.get(rs, rs)

    keep = None
    if ftilenames:
        keep = [_strip_sampling(n) for n in ftilenames]
    elif any(v is not None for v in (xy_bbox_map, geog_bbox, roi_geom)):
        tiles = get_overlapping_tiles(
            e7grid, tiling_id=tiling_id, xy_bbox_map=xy_bbox_map,
            geog_bbox=geog_bbox, roi_geom=roi_geom, cover_land=cover_land,
        )
        keep = [t._info.name for t in tiles]

    src = _Path(filepath)
    if src.suffix.lower() in (".tif", ".tiff"):
        # the reference's actual input flavour: convert the raster to a
        # one-row image parquet fragment and derive the source grid
        import tempfile

        frag_dir = _Path(tempfile.mkdtemp(prefix="e7r_gtiff_in_"))
        input_path, src_crs, src_res, tif_nodata = _gtiff_to_row_parquet(
            src, frag_dir)
        if image_nodata is None and tif_nodata is not None:
            # reference default: nodata from the file metadata
            # (warp.py:291 src nodatavals)
            image_nodata = tif_nodata
    else:
        input_path = src  # one fragment file or a directory of them
        src_crs, src_res = "geog", src_res_deg
    out = _Path(output_dirpath)
    if overwrite and (out / "_manifest").exists():
        import shutil as _shutil

        _shutil.rmtree(out / "_manifest")

    traffo = None
    if naming_traffo is not None:
        # reference signature: naming_traffo(filepath, ftilename)
        traffo = lambda stem, ftile: naming_traffo(src, ftile)  # noqa: E731

    warp_mod.resample_to_equi7_tiles(
        str(input_path), str(out),
        tiling_id=tiling, spec=e7grid.spec,
        ftilenames=keep,
        resampling=rs,
        naming_traffo=traffo,
        out_format="gtiff",
        nodata=(tile_nodata if tile_nodata is not None
                else (image_nodata if image_nodata is not None else 0)),
        src_crs=src_crs,
        src_res=src_res,
        compress_type=comp,
        tif_is_tiled=tif_is_tiled,
        tile_blocksize=tile_blocksize or 256,
        concurrency=(1, max(1, int(n_tasks))),
    )
    # this call's fragments only: other partitions in ``out`` may come
    # from earlier calls on other inputs
    return sorted(f for frag in checkpoint.fragment_paths(input_path)
                  for f in (out / f"part-{_Path(frag).stem}").glob("EQUI7_*/*/*.tif"))
