"""Gridded interpolation of the AEQD forward projection.

The Karney inverse-geodesic solve behind ``aeqd.forward`` costs ~1.5 us
per point and streams ~30 float64 temporaries per Newton pass -- at high
worker concurrency the hot tile-assignment path becomes DRAM-bound on
those temporaries.  This module trades that for a precomputed per-zone
lookup grid + separable 4-point Lagrange (bicubic) interpolation:

* build once per (continent, bbox, step): exact ``aeqd.forward``
  evaluated on a regular ``step``-degree lon/lat grid, stored as ONE
  flat row-major ``complex128`` array ``g = x + 1j*y`` (1.4-8.9 MB per
  zone, 31 MB for the six non-polar zones).  The grid is saved once as
  an uncompressed ``.npy`` file in the package data directory, named by
  a hash of everything it depends on (see :func:`get_projector`), and
  every process maps that file read-only: processes on one machine
  share its pages, and a pickled projector is just its key;
* evaluate per batch: one flat base index, then 16 ``g.take`` taps (4
  rows x 4 columns) that each fetch x and y together, ~40 flops per
  point.  A real weight times a complex tap scales both components
  exactly, so x and y are bit-identical to interpolating separate x and
  y grids.  Every row is interpolated; rows in the exact bands (see
  ``CubicGridProjector.EXACT_LAT``) are then overwritten with
  ``aeqd.forward``.

The assigner calls the projector only for the rows its cell -> tile
table cannot answer: with ``emit_xy=False`` that is the ~5.5 % of a
global sweep whose 0.1 deg cell straddles a tile or zone edge (see
``stages/tile_assign.py``); ``emit_xy=True`` rows all come here.

Measured on one core of a shared x86-64 VM (``perfbench/run.py
--workload assign_points --trace 1``, median of four runs): 0.38 us/row
for the projection layer, exact bands included, against 0.66 us/row for
a separate-x/y kernel that gathered the non-band rows out and scattered
them back.
The ``gather_complex_16tap`` probe in ``tools/ceiling_probes.py`` is
the engine-free ceiling for the 16-tap gather pattern.

Accuracy: 4-point Lagrange interpolation of a C^inf function has error
O(step^4 * |f''''|).  Measured against the exact solver on dense random
points the max error at step=0.25 deg is < 2e-3 m (see
tests/test_interp.py) -- more than two orders inside the reference's own
pinned accuracy contract of rtol=1e-7 (~0.6 m at zone scale, its
tests/test_equi7grid.py:50-99), so tile assignments are identical to the
exact path except for points within that 2 mm of a tile edge, where
either tile may come out (a random sweep all but never has one; of
points placed 1 mm off the T6 tile edges, about 30 % flip).  The same design -- approximate the exact
transformer on a grid, bounded by an error budget -- is what GDAL's
default approximate transformer and PROJ interpolation grids do.

The AEQD projection is smooth everywhere except the antipode of the
projection center; grid nodes within ~0.5 deg of the antipode may carry
inaccurate values, but no point that zone-classifies into a continent
lies anywhere near that continent's antipode, and the interpolation
stencil is strictly local (4x4 cells).
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np

from equi7grid_ray import aeqd, datafiles
from equi7grid_ray.constants import CONTINENTS, ContinentDef

__all__ = ["CubicGridProjector", "build_zone_projectors", "get_projector"]

#: bump whenever ``aeqd.forward`` (or the geodesic solver under it)
#: changes its output, or the grid layout changes: keys the grid files
_GRID_VERSION = 1


def _lagrange_weights(f: np.ndarray) -> tuple[np.ndarray, ...]:
    """4-point Lagrange weights for taps at offsets (-1, 0, 1, 2) given
    the fractional position f in [0, 1)."""
    fm = f - 1.0
    fp = f + 1.0
    f2 = f - 2.0
    w0 = -f * fm * f2 / 6.0
    w1 = fp * fm * f2 / 2.0
    w2 = -fp * f * f2 / 2.0
    w3 = fp * f * fm / 6.0
    return w0, w1, w2, w3


class CubicGridProjector:
    """Per-zone forward projector: lon/lat (deg) -> AEQD x/y (m).

    The grid is mapped from its file, named by a hash of the continent
    definition, bbox, step and :data:`_GRID_VERSION`; a missing file is
    built and written first, except inside a Ray worker, where ``g`` is
    then None.  Pickles as its key: unpickling goes through
    :func:`get_projector`."""

    def __init__(
        self,
        continent: str | ContinentDef,
        bbox: tuple[float, float, float, float],
        step: float = 0.25,
    ):
        self.continent = continent
        self.bbox = tuple(float(v) for v in bbox)
        cdef = aeqd._cdef(continent)
        self._far_lon = (cdef.lon_0 + 180.0 + 180.0) % 360.0 - 180.0
        lon0, lat0, lon1, lat1 = bbox
        pad = 2.0 * step
        lon0 -= pad
        lon1 += pad
        lat0 -= pad
        lat1 += pad
        self.step = float(step)
        self.lon0 = float(lon0)
        self.lat0 = float(lat0)
        self.nlon = int(np.ceil((lon1 - lon0) / step)) + 1
        self.nlat = int(np.ceil((lat1 - lat0) / step)) + 1
        key = json.dumps([dataclasses.astuple(cdef), list(self.bbox), self.step,
                          _GRID_VERSION])
        # a plain ndarray view of the map: the 16 gathers in __call__ take
        # 1.3-1.4x as long on the np.memmap subclass itself
        self.g = datafiles.load_or_build(
            datafiles.data_file(f"interpgrid_{cdef.name}", ".npy", key.encode()),
            lambda p: np.load(p, mmap_mode="r").view(np.ndarray),
            self._solve, np.save, optional=True)

    def _solve(self) -> np.ndarray:
        """The flat row-major (nlat, nlon) grid of ``x + 1j*y``: one
        gather fetches both coordinates of a node."""
        lons = self.lon0 + self.step * np.arange(self.nlon)
        lats = self.lat0 + self.step * np.arange(self.nlat)
        glon, glat = np.meshgrid(lons, lats)
        glon = glon.ravel()
        glat = glat.ravel()
        # grid nodes past a pole continue the projection smoothly OVER the
        # pole: f(lon, 90 + d) == f(lon + 180, 90 - d).  (Clipping them to
        # the pole instead would put a wrong sample at the node position
        # and cost km-scale interpolation error for points near lat 90.)
        over = glat > 90.0
        under = glat < -90.0
        glon_e = np.where(over | under, glon + 180.0, glon)
        glat_e = np.where(over, 180.0 - glat, np.where(under, -180.0 - glat, glat))
        x, y = aeqd.forward(self.continent, glon_e, glat_e)
        g = np.empty(self.nlat * self.nlon, dtype=np.complex128)
        g.real = x
        g.imag = y
        return g

    def __reduce__(self):
        return get_projector, (self.continent, self.bbox, self.step)

    #: exact-solver bands: the interpolation error concentrates (a) in
    #: the last degree at the poles and (b) in a narrow band along the
    #: projection center's far meridian (lon_0 + 180), where the
    #: azimuth-of-departure changes fastest (measured up to ~0.5 m there
    #: vs < 1e-4 m everywhere else).  Together the bands cover ~1.5% of a
    #: uniform global sweep.
    EXACT_LAT = 89.0
    EXACT_FAR_LON_BAND = 2.0

    def __call__(self, lon, lat) -> tuple[np.ndarray, np.ndarray]:
        lon = np.asarray(lon, dtype=np.float64)
        lat = np.asarray(lat, dtype=np.float64)
        t = (lon - self.lon0) / self.step
        u = (lat - self.lat0) / self.step
        # integer cell such that the 4-tap window [i-1, i+2] stays in-grid
        it = np.clip(t.astype(np.int64), 1, self.nlon - 3)
        iu = np.clip(u.astype(np.int64), 1, self.nlat - 3)
        wt = _lagrange_weights(t - it)
        wu = _lagrange_weights(u - iu)
        # one flat base index; tap (a, b) is g[base + a*nlon + b].  A
        # real weight times a complex tap scales x and y exactly, so each
        # component is summed in the same order as a separate x/y kernel.
        base = (iu - 1) * self.nlon + (it - 1)
        g = self.g
        acc = np.zeros(len(base), dtype=np.complex128)
        for a in range(4):
            row = base + a * self.nlon
            r = (
                wt[0] * g.take(row)
                + wt[1] * g.take(row + 1)
                + wt[2] * g.take(row + 2)
                + wt[3] * g.take(row + 3)
            )
            acc += wu[a] * r
        x, y = acc.real, acc.imag
        far = np.abs(
            (lon - self._far_lon + 180.0) % 360.0 - 180.0
        ) < self.EXACT_FAR_LON_BAND
        exact = np.flatnonzero((np.abs(lat) > self.EXACT_LAT) | far)
        if len(exact):
            x[exact], y[exact] = aeqd.forward(
                self.continent, lon[exact], lat[exact]
            )
        return x, y


_CACHE: dict[tuple, CubicGridProjector] = {}


def get_projector(
    continent: str | ContinentDef, bbox: tuple[float, float, float, float],
    step: float = 0.25,
) -> CubicGridProjector | None:
    """Process-cached projector.  Its grid is a pure function of the
    continent definition, bbox and step, so it lives in a file named by
    a hash of those and :data:`_GRID_VERSION`; a miss builds the file
    (~0.5 s per zone).  Inside a Ray worker a missing file is not built:
    the call returns None and the caller projects with ``aeqd.forward``
    (as with ``exact_projection=True``)."""
    key = (continent, tuple(float(v) for v in bbox), float(step))
    proj = _CACHE.get(key)
    if proj is None:
        proj = CubicGridProjector(*key)
        if proj.g is None:
            return None
        _CACHE[key] = proj
    return proj


def build_zone_projectors(
    polys: dict, continents: list[str], step: float = 0.25
) -> dict[str, CubicGridProjector | None]:
    """Build projectors for the non-polar continents from the zone
    classifier's polygon bboxes (the only region whose points can
    classify into the zone).  The polar AN zone keeps the exact
    closed-form polar-aspect forward (already cheap).  Inside a Ray
    worker a zone whose grid file is missing maps to None."""
    out: dict[str, CubicGridProjector | None] = {}
    for cont in continents:
        if CONTINENTS[cont].polar:
            continue
        poly = polys.get(cont)
        if poly is None:
            continue
        out[cont] = get_projector(cont, poly.bbox, step=step)
    return out
