"""Cell -> tile table of the ``emit_xy=False`` assign path.

A row in a table cell takes its tile from one gather; every other row
takes the full path (zone classify, projection, tile floor, lookup).
These tests hold the table path to the two table-free paths row by row:
``exact_projection=True`` (the Karney solver) and ``emit_xy=True`` (the
interpolated projector), on inputs chosen to sit where a wrong table
entry would show -- tile edges, the antimeridian, the poles -- and check
the table file itself: rebuilt bands are bit-equal to the tracked file,
and a changed key misses the cache."""

from __future__ import annotations

import io

import numpy as np
import pyarrow as pa
import pytest

from equi7grid_ray import aeqd, datafiles, zones
from equi7grid_ray.grid import GridSpec, tile_ll_from_xy
from equi7grid_ray.stages.tile_assign import TileAssigner

NCOL = 3600


def _assigners(tiling="T6", spec=None, **kw):
    return (TileAssigner(tiling, spec=spec, emit_xy=False, **kw),
            TileAssigner(tiling, spec=spec, emit_xy=False, exact_projection=True, **kw),
            TileAssigner(tiling, spec=spec, emit_xy=True, **kw))


@pytest.fixture(scope="module")
def t6():
    return _assigners("T6")


def _batch(lon, lat) -> pa.Table:
    lon = np.asarray(lon, np.float64)
    return pa.table({"image_id": pa.array(np.arange(len(lon), dtype=np.int64)),
                     "lon": lon, "lat": np.asarray(lat, np.float64)})


def _assert_paths_agree(assigners, batch, exact=True):
    table, exact_path, full = assigners
    got = table(batch)
    assert got.num_rows > 0
    if exact:
        assert got.equals(exact_path(batch))
    assert got.equals(full(batch).select(got.column_names))
    return got


def _table_rows(ta, lon, lat) -> np.ndarray:
    cell, valid = ta.zc.cell_index(lon, lat)
    return np.where(valid, ta._cell_table.take(cell), -1)


def test_uniform_sweep_with_invalid_rows(t6):
    rng = np.random.default_rng(11)
    n = 50_000
    lon = rng.uniform(-180.0, 180.0, n)
    lat = rng.uniform(-90.0, 90.0, n)
    bad = rng.choice(n, 200, replace=False)
    lon[bad[:50]] = np.nan
    lat[bad[50:100]] = 95.0
    lon[bad[100:150]] = 200.0
    lat[bad[150:]] = -np.inf
    assert (_table_rows(t6[0], lon, lat) >= 0).mean() > 0.9
    got = _assert_paths_agree(t6, _batch(lon, lat))
    # grouped by continent rank, then ascending input row
    rank = got.column("continent").combine_chunks().indices.to_numpy()
    ids = got.column("image_id").to_numpy()
    assert (np.diff(rank) >= 0).all()
    assert (np.diff(ids)[np.diff(rank) == 0] > 0).all()
    assert not np.isin(bad, ids).any()


def test_antimeridian_and_polar_bands(t6):
    rng = np.random.default_rng(3)
    n = 4_000
    lon = np.concatenate([
        rng.uniform(179.0, 180.0, n), rng.uniform(-180.0, -179.0, n),
        np.full(n, 180.0), np.full(n, -180.0),
        rng.uniform(-180.0, 180.0, 4 * n),
        np.round(rng.uniform(-180.0, 180.0, n), 1),  # on cell edges
    ])
    lat = np.concatenate([
        rng.uniform(-90.0, 90.0, 4 * n),
        rng.uniform(89.0, 90.0, n), rng.uniform(-90.0, -89.0, n),
        np.full(n, 90.0), np.full(n, -90.0),
        np.round(rng.uniform(-90.0, 90.0, n), 1),
    ])
    assert (_table_rows(t6[0], lon, lat) >= 0).any()
    _assert_paths_agree(t6, _batch(lon, lat))


@pytest.mark.parametrize("tiling", ["T6", "T1"])
def test_points_a_millimetre_either_side_of_tile_edges(tiling, t6):
    """For every tile edge, points 1 mm inside and 1 mm outside it,
    wherever the point's cell or a neighbour of it is a table cell: no
    such point takes the table, and the table path equals the full
    path.  (An edge of one zone's tile may lie inside another zone,
    where the table holds that zone's tile.)  The exact solver is left
    out here: within its 2 mm error
    budget of an edge the interpolated projector may pick the other
    tile, with or without the table (the table answers only for cells
    at least the margin away from every edge)."""
    assigners = t6 if tiling == "T6" else _assigners(tiling)
    ta = assigners[0]
    tbl = ta._cell_table[:-1].reshape(-1, NCOL) >= 0
    near = tbl.copy()  # a table cell in the 3x3 neighbourhood
    near[1:] |= tbl[:-1]
    near[:-1] |= tbl[1:]
    near[:, 1:] |= near[:, :-1].copy()
    near[:, :-1] |= near[:, 1:].copy()
    t = ta.tile_size
    frac = (np.arange(4) + 0.5) / 4
    lons, lats, ranks = [], [], []
    for rank, cont in enumerate(ta.continents):
        ct = ta.index.tilings[cont]
        for (ex, ey), (nx, ny) in ((((0, 1), (0, 0)), (1, 0)),
                                   (((0, 0), (0, 1)), (0, 1))):
            # points along the west (south) edge of every tile
            x = ct.ll_x[:, None] + t * (ex[0] + ex[1] * frac)[None, :]
            y = ct.ll_y[:, None] + t * (ey[0] + ey[1] * frac)[None, :]
            for side in (-1e-3, 1e-3):
                lo, la = aeqd.inverse(cont, (x + side * nx).ravel(), (y + side * ny).ravel())
                lons.append(lo)
                lats.append(la)
                ranks.append(np.full(len(lo), rank))
    lon, lat, rank = (np.concatenate(a) for a in (lons, lats, ranks))
    cell, valid = ta.zc.cell_index(lon, lat)
    keep = valid & near.ravel()[cell]
    assert keep.sum() > 1000
    lon, lat, rank = lon[keep], lat[keep], rank[keep]
    assert (ta.index.rank[_table_rows(ta, lon, lat)] != rank).all()
    _assert_paths_agree(assigners, _batch(lon, lat), exact=False)


def _lattice_check(ta, cells: np.ndarray, k: int = 21, chunk: int = 2_000):
    """Every point of a k x k lattice over each table cell (edges
    included) projects into the tile the table names."""
    frac = np.linspace(0.0, 1.0, k)
    fl, fp = (a.ravel() for a in np.meshgrid(frac, frac))
    table = ta._cell_table
    for st in range(0, len(cells), chunk):
        c = cells[st:st + chunk]
        r, q = np.divmod(c, NCOL)
        lon = (-180.0 + 0.1 * (q[:, None] + fl[None, :])).ravel()
        lat = (-90.0 + 0.1 * (r[:, None] + fp[None, :])).ravel()
        want = np.repeat(table[c], k * k)
        rank = ta.index.rank[want]
        for ri, cont in enumerate(ta.continents):
            m = rank == ri
            if not m.any():
                continue
            x, y = ta._project(cont, lon[m], lat[m])
            got = ta.index.locate(ri, *tile_ll_from_xy(x, y, ta.tile_size))
            np.testing.assert_array_equal(got, want[m])


def test_dense_lattice_in_sampled_and_near_edge_cells(t6, monkeypatch):
    ta = t6[0]
    table = ta._cell_table[:-1]
    cells = np.flatnonzero(table >= 0)
    rng = np.random.default_rng(5)
    _lattice_check(ta, rng.choice(cells, 20_000, replace=False))
    # the cells within 5 km of a tile edge: table cells that a 5 km
    # margin would leave out
    monkeypatch.setattr(zones, "CELL_TABLE_MARGIN", 5_000.0)
    wide = ta.zc.build_cell_tile_table(ta.table_zones(), ta.tile_size).ravel()
    assert ((wide >= 0) <= (table >= 0)).all()
    assert (wide[wide >= 0] == table[wide >= 0]).all()
    near = np.flatnonzero((table >= 0) & (wide < 0))
    assert len(near) > 10_000
    _lattice_check(ta, near)


def _ipc(t: pa.Table) -> bytes:
    sink = io.BytesIO()
    with pa.ipc.new_stream(sink, t.schema) as w:
        w.write_table(t)
    return sink.getvalue()


@pytest.mark.parametrize("emit_id", [True, False])
@pytest.mark.parametrize("emit_cell", [True, False])
def test_arrow_ipc_bytes_equal_table_free_run(emit_id, emit_cell):
    from equi7grid_ray.sources.images import make_batch

    rng = np.random.default_rng(17)
    n = 30_000
    lon = rng.uniform(-180.0, 180.0, n)
    lat = rng.uniform(-90.0, 90.0, n)
    lon[:30] = np.nan
    lat[30:60] = 95.0
    kw = dict(emit_cell=emit_cell, emit_id=emit_id)
    table, exact, _ = _assigners(**kw)
    batch = _batch(lon, lat)
    assert _ipc(table(batch)) == _ipc(exact(batch))
    images = make_batch(0, 300)
    table, exact, _ = _assigners(decode=True, **kw)
    assert _ipc(table(images)) == _ipc(exact(images))


@pytest.mark.parametrize("buffered", [False, True])
def test_rebuilt_bands_bit_equal_tracked_table(buffered):
    """South polar, mid-latitude and north polar bands (every band spans
    the antimeridian) rebuild bit-equal to the tracked T6 table."""
    ta = TileAssigner(spec=GridSpec.standard(buffered=buffered), emit_xy=False)
    zc = ta.zc
    tracked = ta._cell_table[:-1].reshape(-1, NCOL)
    for r0, r1 in ((0, 20), (1290, 1310), (1780, 1800)):
        band = zc.build_cell_tile_table(ta.table_zones(), ta.tile_size, rows=(r0, r1))
        np.testing.assert_array_equal(band, tracked[r0:r1])
        assert (band >= 0).any()


def test_changed_key_misses_the_cache(tmp_path, monkeypatch):
    calls = []

    def build():
        calls.append(1)
        return np.arange(6480000, dtype=np.int32).reshape(1800, 3600) % 7 - 1

    zc = zones.get_zone_classifier()
    zc._cell_tables.clear()
    monkeypatch.setattr(datafiles, "DATA_DIR", tmp_path)
    a = zc.cell_tile_table("T6", b"key-1", build)
    assert len(calls) == 1 and a.dtype == np.int16 and a[-1] == -1
    # with the process cache empty, the file is loaded, not rebuilt
    zc._cell_tables.clear()
    b = zc.cell_tile_table("T6", b"key-1", build)
    assert len(calls) == 1 and np.array_equal(a, b)
    zc.cell_tile_table("T6", b"key-2", build)
    assert len(calls) == 2
    files = sorted(p.name for p in tmp_path.iterdir())
    assert len(files) == 2 and all(f.startswith("celltiles_std_T6_") for f in files)
    zc._cell_tables.clear()


def test_ray_worker_never_builds_a_missing_table(ray_session, tmp_path):
    import ray

    @ray.remote(num_cpus=1)
    def load(data_dir):
        from pathlib import Path

        from equi7grid_ray import datafiles, zones

        def build():
            raise AssertionError("built inside a Ray worker")

        zc = zones.ZoneClassifier()
        saved, datafiles.DATA_DIR = datafiles.DATA_DIR, Path(data_dir)
        try:
            return zc.cell_tile_table("T6", b"absent", build)
        finally:
            datafiles.DATA_DIR = saved

    assert ray.get(load.remote(str(tmp_path))) is None
    assert not any(p.name.startswith("celltiles_") for p in tmp_path.iterdir())

    # nor a projector grid: an assigner unpickled in a worker that finds
    # no grid file projects with the exact solver
    @ray.remote(num_cpus=1)
    def assign(data_dir, blob, batch):
        import pickle
        from pathlib import Path

        from equi7grid_ray import datafiles, interp

        def solve(self):
            raise AssertionError("grid built inside a Ray worker")

        saved = datafiles.DATA_DIR, interp._CACHE, interp.CubicGridProjector._solve
        datafiles.DATA_DIR, interp._CACHE = Path(data_dir), {}
        interp.CubicGridProjector._solve = solve
        try:
            ta = pickle.loads(blob)
            return ta._proj, ta(batch)
        finally:
            datafiles.DATA_DIR, interp._CACHE, interp.CubicGridProjector._solve = saved

    import pickle

    rng = np.random.default_rng(23)
    batch = _batch(rng.uniform(-180.0, 180.0, 20_000), rng.uniform(-90.0, 90.0, 20_000))
    for kw in (dict(emit_xy=False, emit_cell=False, emit_id=False), {}):
        ta = TileAssigner("T6", **kw)
        assert sorted(ta._proj) == ["AF", "AS", "EU", "NA", "OC", "SA"]
        proj, got = ray.get(assign.remote(str(tmp_path), pickle.dumps(ta), batch))
        assert proj == dict.fromkeys(ta._proj)
        # the whole output, so its tile histogram too
        assert got.equals(TileAssigner("T6", exact_projection=True, **kw)(batch))
    assert not any(tmp_path.iterdir())


def test_broadcast_assigner_pickle_size():
    """The projector grids pickle by key: a broadcast T6 assigner is
    its zone raster, cell -> tile table and tile index (64.2 MB when
    the grids went by value)."""
    import pickle

    ta = TileAssigner("T6", emit_xy=False, emit_cell=False, emit_id=False)
    assert len(pickle.dumps(ta)) <= 34_000_000


def test_broadcast_assigner_ships_no_atlas():
    """A pickled assigner's tile index keeps what ``locate`` reads and
    drops the sample atlas; the process's shared index keeps its atlas,
    and the unpickled assigner gives the same output."""
    import pickle

    ta = TileAssigner("T6", emit_xy=False)
    back = pickle.loads(pickle.dumps(ta))
    for cont, ct in back.index.tilings.items():
        assert ct.atlas_lon is None and ct.extra_lon is None
        assert ta.index.tilings[cont].atlas_lon is not None
        np.testing.assert_array_equal(ct._index, ta.index.tilings[cont]._index)
    rng = np.random.default_rng(41)
    batch = _batch(rng.uniform(-180, 180, 50_000), rng.uniform(-90, 90, 50_000))
    assert back(batch).equals(ta(batch))


def _ipc(t: pa.Table) -> bytes:
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, t.schema) as w:
        w.write_table(t)
    return sink.getvalue().to_pybytes()


@pytest.mark.parametrize("emit_xy,misses", [(False, False), (True, False), (True, True)])
def test_assign_many_bytes_equal_single_calls(emit_xy, misses):
    """A batch over ``2 * CHUNK_ROWS`` rows is the concatenation of its
    ``CHUNK_ROWS`` slices, each assigned alone; ``assign_many`` over
    small, large and empty batches gives each batch's own bytes.  With
    ``misses``, every third tile column is taken out of the tile set, so
    each slice appends its own out-of-set names to its dictionary."""
    import copy

    ta = TileAssigner("T6", emit_xy=emit_xy)
    if misses:
        index = copy.copy(ta.index)
        locate = index.locate
        index.locate = lambda rank, llx, lly: np.where(
            np.floor(llx / ta.tile_size) % 3 == 0, -1, locate(rank, llx, lly))
        ta.index = index
    rng = np.random.default_rng(43)
    n = 300_000
    lon, lat = rng.uniform(-180, 180, n), rng.uniform(-90, 90, n)
    bad = rng.choice(n, 30, replace=False)
    lon[bad[:10]], lat[bad[10:20]], lon[bad[20:]] = np.nan, 95.0, 200.0
    big = _batch(lon, lat)
    c = ta.CHUNK_ROWS
    assert n > 2 * c
    whole = ta(big)
    assert whole.column("tile").num_chunks == -(-n // c)
    assert _ipc(whole) == _ipc(pa.concat_tables(
        [ta(big.slice(st, c)) for st in range(0, n, c)]))
    batches = [big.slice(0, 5_000), big, big.slice(0, 0), big.slice(7, 2 * c)]
    got = ta.assign_many(batches)
    assert [_ipc(t) for t in got] == [_ipc(ta(b)) for b in batches]
    assert ta.assign_many([]) == []
    if misses:
        assert len(whole.column("tile").chunk(1).dictionary) > len(ta.index.names)


def test_cache_write_is_atomic(tmp_path):
    """A cache write that raises midway leaves no file at the final
    name and no temporary file; a whole write lands at the final name."""
    from equi7grid_ray.datafiles import write_atomic

    p = tmp_path / "cache.npz"

    def fail(f):
        f.write(b"half a zip")
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        write_atomic(p, fail)
    assert not any(tmp_path.iterdir())
    write_atomic(p, lambda f: np.savez_compressed(f, a=np.arange(3)))
    assert [q.name for q in tmp_path.iterdir()] == ["cache.npz"]
    assert np.load(p)["a"].tolist() == [0, 1, 2]


def test_broadcast_assigner_pickles_only_its_own_tiling():
    """A pickled assigner carries its zone classifier and its own tile
    index, not the shared GridState: its size does not grow when other
    tilings were loaded in the same process first."""
    import subprocess
    import sys

    code = (
        "import pickle\n"
        "from equi7grid_ray.stages.tile_assign import TileAssigner\n"
        "size = lambda: len(pickle.dumps(TileAssigner('T3', exact_projection=True)))\n"
        "fresh = size()\n"
        "TileAssigner('T6', exact_projection=True)\n"
        "TileAssigner('T1', exact_projection=True)\n"
        "print(fresh, size())\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    fresh, after = map(int, out.stdout.split())
    assert fresh == after
