"""Grid specification, tile-name codec and tile raster math -- all pure,
vectorized numpy functions over arrays of coordinates / names.

Tiles are *data* (rows with continent, tiling, ll_x, ll_y), never objects;
every function here maps arrays to arrays so it can sit inside a Ray Data
``map_batches`` with no per-row Python.

Reference semantics pinned by:
- name codec: /root/reference/src/equi7grid/core.py:109-151 (build) and
  :172-207 (parse + validation),
- point->tile / rc<->xy / extents:
  /root/reference/tests/test_equi7grid.py:120-174,
- parent/children: /root/reference/src/equi7grid/core.py:326-356,
- allowed samplings: /root/reference/src/equi7grid/core.py:651-665 with
  MAX_SAMPLING from _const.py:7,
- grid construction options:
  /root/reference/src/equi7grid/core.py:538-602 (sampling maps, buffered,
  continent_order) and _create_grids.py:94-100 (standard tilings).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from equi7grid_ray.constants import (
    CONTINENTS,
    DEFAULT_CONTINENT_ORDER,
    MAX_SAMPLING,
    STANDARD_TILINGS,
)

__all__ = [
    "GridSpec",
    "allowed_samplings",
    "tile_ll_from_xy",
    "partial_names",
    "full_names",
    "parse_tile_names",
    "tile_lattice",
    "lattice_key",
    "parent_ll",
    "children_ll",
    "rc2xy",
    "xy2rc",
    "tile_geotrans",
]


def allowed_samplings(tile_size: float) -> list[float]:
    """Divisors of ``tile_size`` that are valid pixel sizes (<= 10 km)."""
    ts = int(tile_size)
    cap = int(min(MAX_SAMPLING, tile_size))
    return [float(s) for s in range(1, cap + 1) if ts % s == 0]


@dataclass(frozen=True)
class GridSpec:
    """Immutable description of an Equi7-style grid.

    ``tilings`` maps level -> (tiling name, tile size m); ``sampling`` is a
    single pixel size or a per-tiling map (keys may be tiling names or
    levels).  ``continent_order`` both restricts and orders the continents
    used (reference: "other continents are not touched", grid.ipynb).
    """

    sampling: float | dict = 500.0
    tilings: dict[int, tuple[str, float]] = field(
        default_factory=lambda: dict(STANDARD_TILINGS)
    )
    buffered: bool = False
    continent_order: tuple[str, ...] = tuple(DEFAULT_CONTINENT_ORDER)

    @staticmethod
    def standard(
        sampling: float | dict = 500.0,
        *,
        buffered: bool = False,
        continent_order: list[str] | None = None,
    ) -> "GridSpec":
        return GridSpec(
            sampling=sampling,
            buffered=buffered,
            continent_order=tuple(continent_order or DEFAULT_CONTINENT_ORDER),
        )

    # -- tiling lookups ----------------------------------------------------

    def level_of(self, tiling_id: int | str) -> int:
        if isinstance(tiling_id, int) and tiling_id in self.tilings:
            return tiling_id
        for lvl, (name, _) in self.tilings.items():
            if name == tiling_id:
                return lvl
        raise KeyError(f"unknown tiling id {tiling_id!r}")

    def tiling_name(self, tiling_id: int | str) -> str:
        return self.tilings[self.level_of(tiling_id)][0]

    def tile_size(self, tiling_id: int | str) -> float:
        return self.tilings[self.level_of(tiling_id)][1]

    def first_tiling(self) -> str:
        return self.tilings[min(self.tilings)][0]

    def sampling_of(self, tiling_id: int | str) -> float:
        if isinstance(self.sampling, dict):
            name = self.tiling_name(tiling_id)
            lvl = self.level_of(tiling_id)
            for key in (name, lvl, str(lvl)):
                if key in self.sampling:
                    return float(self.sampling[key])
            raise KeyError(f"no sampling configured for tiling {name}")
        return float(self.sampling)

    def continents(self) -> list[str]:
        return [c for c in self.continent_order if c in CONTINENTS]

    def continent_rank(self, continent: str) -> int:
        return self.continents().index(continent)

    def validate(self) -> None:
        for tid in self.tilings:
            s = self.sampling_of(tid)
            ts = self.tile_size(tid)
            if (ts % s) != 0 or s > MAX_SAMPLING:
                name = self.tiling_name(tid)
                raise ValueError(f"sampling {s} invalid for tiling {name} ({ts} m)")

    # -- JSON round trip (to_grid_def/from_grid_def parity,
    #    /root/reference/src/equi7grid/core.py:605-648) --------------------

    def to_grid_def(self) -> dict:
        return {
            "tilings": {
                str(lvl): {"name": name, "tile_shape": size}
                for lvl, (name, size) in self.tilings.items()
            },
            "systems": {
                name: {
                    "epsg": c.epsg,
                    "lat_0": c.lat_0,
                    "lon_0": c.lon_0,
                    "x_0": c.x_0,
                    "y_0": c.y_0,
                    "min_xy": [c.min_x, c.min_y],
                }
                for name, c in CONTINENTS.items()
                if name in self.continent_order
            },
            "buffered": self.buffered,
            "system_order": list(self.continent_order),
        }

    def to_file(self, path: str | Path, *, include_sampling: bool = True) -> None:
        d = self.to_grid_def()
        if include_sampling:
            d["sampling"] = self.sampling
        Path(path).write_text(json.dumps(d, indent=2))

    @staticmethod
    def from_grid_def(
        d: dict, sampling: float | dict | None = None, *, continent_order=None
    ) -> "GridSpec":
        tilings = {
            int(lvl): (t["name"], float(t["tile_shape"]))
            for lvl, t in d["tilings"].items()
        }
        return GridSpec(
            sampling=sampling if sampling is not None else d.get("sampling", 500.0),
            tilings=tilings,
            buffered=bool(d.get("buffered", False)),
            continent_order=tuple(
                continent_order or d.get("system_order") or DEFAULT_CONTINENT_ORDER
            ),
        )

    @staticmethod
    def from_file(path: str | Path) -> "GridSpec":
        return GridSpec.from_grid_def(json.loads(Path(path).read_text()))


# ---------------------------------------------------------------------------
# point -> tile and the tile-name codec (vectorized)
# ---------------------------------------------------------------------------


def tile_ll_from_xy(x, y, tile_size: float) -> tuple[np.ndarray, np.ndarray]:
    """Lower-left corner of the containing tile (floor snap)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    ll_x = np.floor(x / tile_size) * tile_size
    ll_y = np.floor(y / tile_size) * tile_size
    return ll_x, ll_y


def partial_names(ll_x, ll_y, tiling_name: str) -> np.ndarray:
    """Vectorized ``E{x}{N|S}{y}T{n}`` builder from lower-left corners in
    metres (cf. /root/reference/src/equi7grid/core.py:109-132)."""
    tx = np.rint(np.asarray(ll_x, dtype=np.float64) / 1e5).astype(np.int64)
    ty = np.rint(np.asarray(ll_y, dtype=np.float64) / 1e5).astype(np.int64)
    suffix = "T" + tiling_name[1:]
    xs = np.char.zfill(tx.astype("U"), 3)
    ylab = np.where(ty < 0, "S", "N")
    ys = np.char.zfill(np.abs(ty).astype("U"), 3)
    return np.char.add(
        np.char.add(np.char.add(np.char.add("E", xs), ylab), ys), suffix
    )


def full_names(continent, ll_x, ll_y, tiling_name: str) -> np.ndarray:
    """``{continent}_{partial}`` (cf. core.py:134-151)."""
    part = partial_names(ll_x, ll_y, tiling_name)
    cont = np.broadcast_to(np.asarray(continent, dtype="U2"), part.shape)
    return np.char.add(np.char.add(cont, "_"), part)


#: continent code table: a tile's continent index is its rank here
#: (alphabetical, so index order is tile-name order)
CONTINENT_CODES = tuple(sorted(CONTINENTS))

# fixed-width name layout ``CC_E###N###T#``: the fixed marker
# characters and the digit positions of the easting, northing and
# tiling tokens
_MARK_POS, _MARK_CHARS = [2, 3, 11], np.array([ord(c) for c in "_ET"])
_DIGITS = [4, 5, 6, 8, 9, 10, 12]


def parse_tile_names(
    names, spec: GridSpec | None = None
) -> dict[str, np.ndarray]:
    """Parse full tile names vectorized (one fixed-width decode, no
    per-name Python).

    The accepted shape is exactly the 13 characters :func:`full_names`
    writes: two upper-case letters, ``_E``, three easting digits, ``N``
    or ``S``, three northing digits, ``T`` and one tiling digit (e.g.
    ``EU_E048N012T6``, ``AS_E066S018T6``).  Returns a dict with
    ``continent``, ``tiling``, ``ll_x``, ``ll_y`` (metres; ``S``
    northings negative; NaN where the name has another shape) and
    ``valid``: False for any other shape, a tiling the spec does not
    define, or an x/y that is not a multiple of the tile size (the
    reference raises ValueError there, core.py:197-199; zone
    containment is a separate check).  Scalar in, scalars out.
    """
    spec = spec or GridSpec.standard()
    arr = np.asarray(names, dtype="U")
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    width = max(arr.dtype.itemsize // 4, 13)
    code = arr.astype(f"U{width}").view(np.uint32).reshape(len(arr), width)
    digit = code[:, _DIGITS].astype(np.int64) - ord("0")
    upper = (code[:, :2] >= ord("A")) & (code[:, :2] <= ord("Z"))
    south = code[:, 7] == ord("S")
    shape_ok = (
        upper.all(axis=1)
        & ((digit >= 0) & (digit <= 9)).all(axis=1)
        & (code[:, _MARK_POS] == _MARK_CHARS).all(axis=1)
        & (south | (code[:, 7] == ord("N")))
        & (code[:, 13:] == 0).all(axis=1)
    )
    tx = digit[:, 0] * 100 + digit[:, 1] * 10 + digit[:, 2]
    ty = digit[:, 3] * 100 + digit[:, 4] * 10 + digit[:, 5]
    ll_x = np.where(shape_ok, tx * 1e5, np.nan)
    ll_y = np.where(shape_ok, np.where(south, -ty, ty) * 1e5, np.nan)
    continent = np.ascontiguousarray(code[:, :2]).view("U2")[:, 0]
    tiling = np.ascontiguousarray(code[:, 11:13]).view("U2")[:, 0]
    size = np.full(len(arr), np.nan)
    for name, tile_size in spec.tilings.values():
        size[tiling == name] = tile_size
    with np.errstate(invalid="ignore"):
        valid = shape_ok & (np.mod(ll_x, size) == 0) & (np.mod(ll_y, size) == 0)
    out = {
        "continent": continent,
        "tiling": tiling,
        "ll_x": ll_x,
        "ll_y": ll_y,
        "valid": valid,
    }
    if scalar:
        out = {k: v[0] for k, v in out.items()}
    return out


def tile_lattice(names) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lattice coordinates of full tile names: (continent index into
    :data:`CONTINENT_CODES`, easting, signed northing), the last two in
    100 km units (``ll_x / 1e5``, ``ll_y / 1e5``) -- the integer lattice
    every tile-neighbourhood operator walks in tile-size steps (6 at
    T6).  ValueError on a name :func:`parse_tile_names` cannot decode."""
    names = np.atleast_1d(np.asarray(names, dtype="U"))
    p = parse_tile_names(names)
    bad = np.isnan(p["ll_x"])
    if bad.any():
        raise ValueError(f"malformed tile name {names[bad][0]!r}")
    cidx = np.searchsorted(np.asarray(CONTINENT_CODES), p["continent"])
    return (cidx.astype(np.int64),
            np.rint(p["ll_x"] / 1e5).astype(np.int64),
            np.rint(p["ll_y"] / 1e5).astype(np.int64))


def lattice_key(cidx, te, tn) -> np.ndarray:
    """int64 key of a (continent index, easting, northing) lattice
    point; offsets of +1200 keep every halo shift non-negative."""
    return ((np.asarray(cidx, np.int64) * 4000 + te + 1200) * 4000
            + tn + 1200)


def parent_ll(ll_x, ll_y, parent_size: float) -> tuple[np.ndarray, np.ndarray]:
    """Parent tile lower-left at the next *lower* level (bigger tiles),
    cf. core.py:342-356."""
    return tile_ll_from_xy(ll_x, ll_y, parent_size)


def children_ll(
    ll_x: float, ll_y: float, tile_size: float, child_size: float
) -> tuple[np.ndarray, np.ndarray]:
    """All child lower-left corners at the next *higher* level
    (cf. core.py:326-340; T6->4xT3, T3->9xT1)."""
    n = int(round(tile_size / child_size))
    off = np.arange(n) * child_size
    cx, cy = np.meshgrid(ll_x + off, ll_y + off, indexing="ij")
    return cx.ravel(), cy.ravel()


# ---------------------------------------------------------------------------
# tile raster math
# ---------------------------------------------------------------------------

_ORIGIN_OFFSETS = {
    # px_origin -> (dx, dy) in units of sampling, applied to the
    # lower-left anchor produced by rc2xy's base formula
    "ll": (0.0, 0.0),
    "lr": (1.0, 0.0),
    "ul": (0.0, 1.0),
    "ur": (1.0, 1.0),
    "c": (0.5, 0.5),
}


def rc2xy(
    r, c, ll_x, ll_y, tile_size: float, sampling: float, px_origin: str = "ll"
) -> tuple[np.ndarray, np.ndarray]:
    """Pixel (row from top, col) -> world coords at the chosen pixel origin.

    Goldens: /root/reference/tests/test_equi7grid.py:120-142.
    """
    r = np.asarray(r, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    n_rows = tile_size / sampling
    dx, dy = _ORIGIN_OFFSETS[px_origin]
    x = ll_x + (c + dx) * sampling
    y = ll_y + (n_rows - 1.0 - r + dy) * sampling
    return x, y


def xy2rc(
    x, y, ll_x, ll_y, tile_size: float, sampling: float, px_origin: str = "ll"
) -> tuple[np.ndarray, np.ndarray]:
    """World coords -> pixel (row, col).

    Row counts from the tile's outer *top* edge so that y exactly on a
    pixel's lower edge belongs to that pixel (golden: (3166500, 5178000)
    -> (444, 333), tests/test_equi7grid.py:145-151).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    dx, dy = _ORIGIN_OFFSETS[px_origin]
    ur_y = ll_y + tile_size
    c = np.floor((x - ll_x - dx * sampling) / sampling).astype(np.int64)
    r = np.floor((ur_y + dy * sampling - y) / sampling).astype(np.int64)
    return r, c


def tile_geotrans(ll_x, ll_y, tile_size: float, sampling: float) -> tuple:
    """GDAL geotransform (ul_x, sx, 0, ul_y, 0, -sy)
    (consumed at /root/reference/src/equi7grid/warp.py:291)."""
    return (ll_x, sampling, 0.0, ll_y + tile_size, 0.0, -sampling)


def pixel_to_world_coords(affine, pixel_coords) -> "np.ndarray":
    """General 2x3 affine pixel -> world transform, vectorized.

    Parity with /root/reference/src/equi7grid/warp.py:50-75: ``affine``
    is the 6-tuple (a, b, c, d, e, f) of a rasterio-style Affine (row
    major: x = a*col + b*row + c; y = d*col + e*row + f; a trailing
    (0, 0, 1) row is accepted and ignored); ``pixel_coords`` is (n, 2)
    with columns (col, row).  Returns (n, 2) world (x, y)."""
    a, b, c, d, e, f = tuple(affine)[:6]
    p = np.asarray(pixel_coords, dtype=np.float64)
    out = np.empty_like(p)
    out[:, 0] = p[:, 0] * a + p[:, 1] * b + c
    out[:, 1] = p[:, 0] * d + p[:, 1] * e + f
    return out
