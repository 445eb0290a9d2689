"""Gridded interpolation of the AEQD forward projection.

The Karney inverse-geodesic solve behind ``aeqd.forward`` costs ~1.5 us
per point and streams ~30 float64 temporaries per Newton pass -- at high
worker concurrency the hot tile-assignment path becomes DRAM-bound on
those temporaries.  This module trades that for a precomputed per-zone
lookup grid + separable 4-point Lagrange (bicubic) interpolation:

* build once per (continent, bbox): exact ``aeqd.forward`` evaluated on a
  regular ``step``-degree lon/lat grid, stored as ONE flat row-major
  ``complex128`` array ``g = x + 1j*y`` (1.4-8.9 MB per zone, 31 MB for
  the six non-polar zones; built on the driver and broadcast with the
  stage state);
* evaluate per batch: one flat base index, then 16 ``g.take`` taps (4
  rows x 4 columns) that each fetch x and y together, ~40 flops per
  point.  A real weight times a complex tap scales both components
  exactly, so x and y are bit-identical to interpolating separate x and
  y grids.  Every row is interpolated; rows in the exact bands (see
  ``CubicGridProjector.EXACT_LAT``) are then overwritten with
  ``aeqd.forward``.

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
exact path.  The same design -- approximate the exact
transformer on a grid, bounded by an error budget -- is what GDAL's
default approximate transformer and PROJ interpolation grids do.

The AEQD projection is smooth everywhere except the antipode of the
projection center; grid nodes within ~0.5 deg of the antipode may carry
inaccurate values, but no point that zone-classifies into a continent
lies anywhere near that continent's antipode, and the interpolation
stencil is strictly local (4x4 cells).
"""

from __future__ import annotations

import numpy as np

from equi7grid_ray import aeqd
from equi7grid_ray.constants import ContinentDef

__all__ = ["CubicGridProjector", "build_zone_projectors"]


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
    """Per-zone forward projector: lon/lat (deg) -> AEQD x/y (m)."""

    def __init__(
        self,
        continent: str | ContinentDef,
        bbox: tuple[float, float, float, float],
        step: float = 0.25,
    ):
        self.continent = continent
        cdef = continent if isinstance(continent, ContinentDef) else None
        if cdef is None:
            from equi7grid_ray.constants import CONTINENTS

            cdef = CONTINENTS[continent]
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
        nlon = int(np.ceil((lon1 - lon0) / step)) + 1
        nlat = int(np.ceil((lat1 - lat0) / step)) + 1
        lons = lon0 + step * np.arange(nlon)
        lats = lat0 + step * np.arange(nlat)
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
        x, y = aeqd.forward(continent, glon_e, glat_e)
        # flat row-major (nlat, nlon) grid of x + 1j*y: one gather fetches
        # both coordinates of a node
        self.g = np.empty(nlat * nlon, dtype=np.complex128)
        self.g.real = x
        self.g.imag = y
        self.nlon = nlon
        self.nlat = nlat

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

    @property
    def nbytes(self) -> int:
        return self.g.nbytes


_CACHE: dict[tuple, CubicGridProjector] = {}


def get_projector(
    continent: str, bbox: tuple[float, float, float, float], step: float = 0.25
) -> CubicGridProjector:
    """Process-cached projector (grids are pure functions of
    continent/bbox/step; reuse across stages and tests)."""
    key = (str(continent), tuple(round(float(v), 6) for v in bbox), float(step))
    if key not in _CACHE:
        _CACHE[key] = CubicGridProjector(continent, bbox, step=step)
    return _CACHE[key]


def build_zone_projectors(
    polys: dict, continents: list[str], step: float = 0.25
) -> dict[str, CubicGridProjector]:
    """Build projectors for the non-polar continents from the zone
    classifier's polygon bboxes (the only region whose points can
    classify into the zone).  The polar AN zone keeps the exact
    closed-form polar-aspect forward (already cheap)."""
    from equi7grid_ray.constants import CONTINENTS

    out: dict[str, CubicGridProjector] = {}
    for cont in continents:
        cdef = CONTINENTS[cont]
        if cdef.polar:
            continue
        poly = polys.get(cont)
        if poly is None:
            continue
        x0, y0, x1, y1 = poly.bbox
        out[cont] = get_projector(cont, (x0, y0, x1, y1), step=step)
    return out
