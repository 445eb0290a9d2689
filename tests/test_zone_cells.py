"""Exact zone test per boundary cell.

``ZoneClassifier.classify_bits`` answers a point in a zone-boundary cell
from that cell's parity bit and short item list (``zones.
_build_boundary_cells``).  These tests hold it to the even-odd test of
each zone's whole polygon (``GeoPolygon.contains``) on the points where a
wrong item list would show -- vertices, points on edges, cell corners
and edges, jittered vertices -- and check the tracked structure files:
a rebuild equals the file, and a Ray worker never builds a missing one."""

from __future__ import annotations

import numpy as np
import pytest

from equi7grid_ray import zones


def _oracle_bits(zc, lon, lat) -> np.ndarray:
    """The zone bits of the raster with every boundary bit settled by
    the zone polygon's own even-odd test."""
    lon = np.asarray(lon, np.float64).ravel()
    lat = np.asarray(lat, np.float64).ravel()
    cell, valid = zc.cell_index(lon, lat)
    pk = zc._packed.ravel().take(cell) * valid
    out = (pk & 0xFF).astype(np.uint8)
    bb = (pk >> 8).astype(np.uint8)
    for zi, zone in enumerate(zc.order):
        m = (bb & (1 << zi)) != 0
        if m.any():
            inside = zc.polys[zone].contains(lon[m], lat[m])
            out[m] = np.where(inside, out[m] | (1 << zi), out[m])
    return out


def _point_sets(zc):
    rng = np.random.default_rng(31)
    polys = zc.polys.values()
    x1 = np.concatenate([p.x1 for p in polys])
    y1 = np.concatenate([p.y1 for p in polys])
    x2 = np.concatenate([p.x2 for p in polys])
    y2 = np.concatenate([p.y2 for p in polys])
    t = rng.random(len(x1))
    yield "vertices", x1, y1
    yield "on edges", x1 + t * (x2 - x1), y1 + t * (y2 - y1)
    yield "cell corners", np.round(x1, 1), np.round(y1, 1)
    yield "vertex x, cell edge y", x1, np.round(y1, 1)
    yield "cell edge x, vertex y", np.round(x1, 1), y1
    for s in (0.2, 1e-6, 1e-11):
        yield f"jittered {s}", x1 + rng.uniform(-s, s, len(x1)), y1 + rng.uniform(-s, s, len(y1))
    n = 200_000
    lon = rng.uniform(-180, 180, n)
    lat = rng.uniform(-90, 90, n)
    lon[:6] = [np.nan, 0.0, 200.0, 180.0, -180.0, np.inf]
    lat[:6] = [0.0, 95.0, 0.0, 90.0, -90.0, 0.0]
    yield "global sweep", lon, lat


@pytest.mark.parametrize("buffered", [False, True])
def test_classify_bits_equal_polygon_even_odd(buffered):
    zc = zones.ZoneClassifier(buffered=buffered)
    order = np.arange(len(zc.order), dtype=np.uint8)
    for name, lon, lat in _point_sets(zc):
        got = zc.classify_bits(lon, lat)
        n_boundary = int(((zc._packed.ravel().take(zc.cell_index(lon, lat)[0]) >> 8) != 0).sum())
        assert n_boundary > 0, name
        np.testing.assert_array_equal(got, _oracle_bits(zc, lon, lat), err_msg=name)
        # classify is the bit-unpack of the same kernel
        np.testing.assert_array_equal(zc.classify(lon, lat), (got[:, None] >> order) & 1 == 1,
                                      err_msg=name)
    bits = zc.classify_bits([np.nan, 0.0, 200.0], [0.0, 95.0, 0.0])
    assert (bits == 0).all()


@pytest.mark.parametrize("buffered", [False, True])
def test_rebuilt_boundary_cells_equal_tracked_file(buffered):
    """The structure a classifier loads is the tracked file's, and a
    rebuild from the polygons and raster gives the same arrays."""
    zc = zones.ZoneClassifier(buffered=buffered)
    rebuilt = zones._build_boundary_cells(zc.polys, zc.order, zc._packed, zc.res)
    assert rebuilt.keys() == zc._bcells.keys()
    for k, v in rebuilt.items():
        assert v.dtype == zc._bcells[k].dtype, k
        np.testing.assert_array_equal(v, zc._bcells[k], err_msg=k)
    # one entry per (zone, boundary cell) of the raster
    n = sum(int(((zc._packed >> (8 + zi)) & 1).sum()) for zi in range(len(zc.order)))
    assert len(rebuilt["keys"]) == n


def test_ray_worker_never_builds_boundary_cells(ray_session, tmp_path):
    import ray

    @ray.remote(num_cpus=1)
    def load(data_dir):
        from pathlib import Path

        from equi7grid_ray import datafiles, zones

        def build(*_a):
            raise AssertionError("built inside a Ray worker")

        zc = zones.ZoneClassifier()
        saved = datafiles.DATA_DIR, zones._build_boundary_cells
        datafiles.DATA_DIR, zones._build_boundary_cells = Path(data_dir), build
        try:
            zc._load_boundary_cells()
        except RuntimeError as e:
            return str(e)
        finally:
            datafiles.DATA_DIR, zones._build_boundary_cells = saved
        return None

    msg = ray.get(load.remote(str(tmp_path)))
    assert msg is not None and "zone_edges_std_" in msg and "outside Ray" in msg
    assert not any(tmp_path.iterdir())

