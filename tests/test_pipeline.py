"""Flagship pipeline tests: end-to-end Ray runs, ordered output parity,
API coverage details."""

import numpy as np
import pyarrow as pa
import pytest

from equi7grid_ray.sources.images import make_batch


def test_flagship_end_to_end(ray_session, tmp_path):
    import ray.data as rd

    from equi7grid_ray.pipelines.flagship import tile_assignments, tile_histogram

    ds = rd.from_arrow(make_batch(0, 2000))
    out = tile_assignments(ds, decode=True, batch_size=512)
    # reference order: continents by system_order, tiles x-then-y
    table = out.sort(["continent_rank", "ll_x", "ll_y"]).to_pandas()
    assert len(table) >= 1995  # ~every image lands in >= 1 zone
    # ordered: continent_rank ascending, then ll_x, ll_y within
    r = table["continent_rank"].to_numpy()
    assert (np.diff(r) >= 0).all()
    for rank in np.unique(r):
        seg = table[table.continent_rank == rank]
        key = seg.ll_x.to_numpy() * 4096 + seg.ll_y.to_numpy() / 1e5
        assert (np.diff(key) >= 0).all()
    assert "px_mean" in table.columns  # decode ran

    hist = tile_histogram(tile_assignments(rd.from_arrow(make_batch(0, 2000)))).to_pandas()
    assert hist.n.sum() == len(table)


def test_api_details():
    from equi7grid_ray import api
    from equi7grid_ray.errors import GeomOutOfZoneError

    with pytest.raises(GeomOutOfZoneError):
        api.system_lonlat_to_xy("EU", -100.0, 10.0)  # far outside EU zone

    t = api.get_tile_from_name("EU_E048N012T6")
    assert t.covers_land  # Balkans tile
    xs = t.x_coords()
    assert len(xs) == 1200 and xs[0] == 4800000.0 and xs[-1] == 5399500.0
    ys = t.y_coords()
    assert ys[0] == 1799500.0 and ys[-1] == 1200000.0
    assert t.intersects_extent((5.3e6, 1.1e6, 5.5e6, 1.3e6))
    assert not t.intersects_extent((6.0e6, 1.1e6, 6.2e6, 1.3e6))
    assert t.boundary_wkt.startswith("POLYGON ((4800000.0 1200000.0")
    assert bool(t.contains_xy(5.0e6, 1.5e6))


def test_entry_contract(ray_session):
    import __ray_entry__ as e

    ds = e.entry()
    n = ds.count()
    assert n > 5000
    cols = set(ds.schema().names)
    assert {"image_id", "continent", "tile", "covers_land"} <= cols
    qs = e.queries()
    orc = e.oracle_sql()
    assert set(orc) == set(qs)  # every query has an oracle and vice versa
    assert len(qs) >= 25 and len(orc) >= 12
    # README advertises the exact counts; keep it from drifting.
    import re
    from pathlib import Path

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    m = re.search(r"exposes (\d+) operator queries; (\d+) carry", readme)
    assert m, "README query-count sentence missing"
    assert (int(m.group(1)), int(m.group(2))) == (len(qs), len(orc))


def test_query_window_matches_driver_snapshot():
    """The driver checks the first 50 queries() entries, in order; the
    CORRECTNESS_r05.json snapshot records that window."""
    import json
    from pathlib import Path

    import __ray_entry__ as e

    snap = Path(__file__).resolve().parent.parent / "CORRECTNESS_r05.json"
    keys = list(e.queries())
    assert len(keys) == 273
    assert keys[:50] == list(json.loads(snap.read_text()))


def test_query_order_is_pinned():
    """queries() keeps the order in tests/data/query_order.txt: the
    snapshot window above and bench.py's sweep both follow it."""
    from pathlib import Path

    import __ray_entry__ as e

    pinned = (Path(__file__).resolve().parent / "data" / "query_order.txt").read_text().split()
    assert list(e.queries()) == pinned


def test_each_oracle_has_exactly_one_q_function():
    """A query is declared once: an oracle_sql() entry (non-empty SQL)
    plus a module-level q_<name>; no q_* callable is left unregistered."""
    import __ray_entry__ as e

    orc = e.oracle_sql()
    q_callables = {n for n, v in vars(e).items() if n.startswith("q_") and callable(v)}
    assert q_callables == {f"q_{n}" for n in orc}
    assert all(isinstance(sql, str) and sql.strip() for sql in orc.values())
    assert all(e.queries()[n] is getattr(e, f"q_{n}") for n in orc)


def test_make_assign_fn_rejects_bad_argument_at_call(ray_session):
    """With Ray up the assigner is built on the caller, so a bad
    argument raises there instead of inside every worker task."""
    from equi7grid_ray.stages.tile_assign import make_assign_fn

    with pytest.raises(KeyError, match="unknown tiling id"):
        make_assign_fn(tiling_id="T9")


def test_make_assign_fn_broadcasts_once_per_config(ray_session):
    """Equal assigner configs share one ray.put; another config, a
    cleared process cache or a new Ray session gets a new put."""
    import inspect

    import ray

    from equi7grid_ray.stages import tile_assign

    def ref_of(fn):
        return inspect.getclosurevars(fn).nonlocals["ref"]

    kw = dict(tiling_id="T6", emit_cell=False)
    a = tile_assign.make_assign_fn(**kw)
    b = tile_assign.make_assign_fn(**kw)
    assert ref_of(a) is not None and ref_of(a) == ref_of(b)
    # spelling out a default names the same config
    assert ref_of(tile_assign.make_assign_fn(decode=False, **kw)) == ref_of(a)
    other = tile_assign.make_assign_fn(tiling_id="T3", emit_cell=False)
    assert ref_of(other) != ref_of(a)
    tile_assign._PROC_CACHE.clear()
    c = tile_assign.make_assign_fn(**kw)
    assert ref_of(c) != ref_of(a)

    ray.shutdown()
    ray.init(address="local", num_cpus=4, include_dashboard=False,
             logging_level="ERROR")
    d = tile_assign.make_assign_fn(**kw)
    assert ref_of(d) != ref_of(c)
    out = ray.get(ray.remote(lambda f: f(make_batch(0, 50)).num_rows).remote(d))
    assert out > 0


def test_flagship_checkpointed_resume(ray_session, tmp_path):
    import json

    import pyarrow.parquet as pq

    from equi7grid_ray.pipelines.flagship import run_flagship_checkpointed

    src = tmp_path / "frags"
    src.mkdir()
    pq.write_table(make_batch(0, 600), src / "f0.parquet")
    pq.write_table(make_batch(600, 600), src / "f1.parquet")
    out = tmp_path / "ckpt"
    c1 = run_flagship_checkpointed(str(src), str(out))
    assert c1["rows_out"] >= 1195
    files = sorted((out / "_manifest").glob("*.json"))
    assert len(files) == 2
    m0 = json.loads(files[0].read_text())
    assert m0["n_tiles"] >= 1 and m0["rows_in"] == 600
    stamps = [f.stat().st_mtime for f in files]
    # rerun skips both fragments
    c2 = run_flagship_checkpointed(str(src), str(out))
    assert c2 == c1
    assert [f.stat().st_mtime for f in sorted((out / "_manifest").glob("*.json"))] == stamps


def test_flagship_checkpointed_tile_layout(ray_session, tmp_path):
    """The per-fragment output mirrors the reference's
    EQUI7_{continent}/{tilename}/ directory scheme (warp.py:276-288) and
    every tile directory holds only its own tile's rows."""
    import pyarrow.parquet as pq

    from equi7grid_ray.pipelines.flagship import run_flagship_checkpointed

    src = tmp_path / "frags"
    src.mkdir()
    pq.write_table(make_batch(0, 300), src / "f0.parquet")
    out = tmp_path / "ckpt"
    run_flagship_checkpointed(str(src), str(out))
    tile_dirs = sorted((out / "part-f0").glob("EQUI7_*/**/*.parquet"))
    assert len(tile_dirs) >= 50  # global sweep hits many tiles
    seen_conts = set()
    for f in tile_dirs[:20]:
        cont = f.parent.parent.name.removeprefix("EQUI7_")
        tile = f.parent.name  # PARTIAL name dir (reference warp.py:276-288)
        assert "_" not in tile
        seen_conts.add(cont)
        t = pq.read_table(f)
        tiles = set(t.column("tile").cast("string").to_pylist())
        assert tiles == {f"{cont}_{tile}"}
    assert len(seen_conts) >= 1


def test_flagship_checkpointed_stale_tmp_recovery(ray_session, tmp_path):
    """A crash mid-fragment leaves a stale .tmp-part dir and no manifest
    row: the rerun must clean it up and complete the fragment."""
    import pyarrow.parquet as pq

    from equi7grid_ray.pipelines.flagship import run_flagship_checkpointed

    src = tmp_path / "frags"
    src.mkdir()
    pq.write_table(make_batch(0, 200), src / "f0.parquet")
    out = tmp_path / "ckpt"
    stale = out / ".tmp-part-f0" / "EQUI7_XX" / "BOGUS"
    stale.mkdir(parents=True)
    (stale / "data.parquet").write_bytes(b"garbage")
    c = run_flagship_checkpointed(str(src), str(out))
    assert c["rows_out"] >= 199
    assert not (out / ".tmp-part-f0").exists()
    assert (out / "part-f0").exists()
    assert not list((out / "part-f0").glob("EQUI7_XX*"))


def test_decode_batch_edge_cases():
    """Review round-2 regressions: 1-byte final raw payload must not be
    double-counted; unknown formats raise; payload/size mismatch raises."""
    import pyarrow as pa
    import pytest

    from equi7grid_ray.stages.tile_assign import TileAssigner

    ta = TileAssigner(decode=True, emit_cell=False, emit_xy=False,
                      exact_projection=True)

    def mkbatch(payloads, fmts, ws, hs):
        n = len(payloads)
        return pa.table({
            "image_id": pa.array([f"img{i:012d}" for i in range(n)]),
            "bytes": pa.array(payloads, pa.binary()),
            "w": pa.array(ws, pa.int32()),
            "h": pa.array(hs, pa.int32()),
            "fmt": pa.array(fmts, pa.string()),
            "lon": pa.array([10.0] * n),
            "lat": pa.array([48.0] * n),
        })

    # 1-byte raw payload at the very end of the buffer
    out = ta(mkbatch([bytes([40, 60]), bytes([200])],
                     ["raw", "raw"], [2, 1], [1, 1]))
    means = dict(zip(
        out.column("image_id").to_pylist(),
        out.column("px_mean").to_pylist(),
    ))
    assert means["img000000000000"] == 50.0
    assert means["img000000000001"] == 200.0  # was 400.0 (double count)

    with pytest.raises(NotImplementedError):
        ta(mkbatch([b"xx"], ["jpeg"], [1, ], [2, ]))

    with pytest.raises(ValueError):
        ta(mkbatch([bytes(5)], ["raw"], [2], [2]))  # 5 bytes for w*h=4


def test_checkpointed_empty_fragment(ray_session, tmp_path):
    """A zero-row input fragment completes with an empty manifest row
    instead of crashing concat_tables (review round-2)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from equi7grid_ray.pipelines.flagship import run_flagship_checkpointed

    src = tmp_path / "frags"
    src.mkdir()
    pq.write_table(make_batch(0, 100), src / "f0.parquet")
    empty = make_batch(0, 1).slice(0, 0)
    pq.write_table(empty, src / "f1.parquet")
    out = tmp_path / "ckpt"
    c = run_flagship_checkpointed(str(src), str(out))
    assert c["rows_out"] >= 99
    files = sorted((out / "_manifest").glob("*.json"))
    assert len(files) == 2


def test_ipc_roundtrip_exact(ray_session, tmp_path):
    """Arrow IPC export -> read_binary_files + ipc decode round-trips
    every Arrow type exactly (timestamps and doubles included)."""
    import pyarrow.parquet as pq

    from equi7grid_ray.sources.text_formats import export_ipc, read_ipc_table

    sf = "/root/testdata/sf0.001"
    cols = ["l_orderkey", "l_extendedprice", "l_shipdate"]
    path = export_ipc(sf, "lineitem", cols)
    got = read_ipc_table(path).to_pandas() \
        .sort_values(cols).reset_index(drop=True)
    exp = pq.read_table(f"{sf}/lineitem.parquet", columns=cols) \
        .to_pandas().sort_values(cols).reset_index(drop=True)
    assert got.equals(exp[got.columns])


_POINT_KW = dict(emit_cell=False, emit_xy=False, emit_id=False)


def _point_files(d, n_files: int) -> list:
    """``n_files`` parquet files of two row groups each, every group
    with a NaN, a lat = 95 and a lon = 200 row among its points."""
    import pyarrow.parquet as pq

    rng = np.random.default_rng(20)
    files = []
    for k in range(n_files):
        lon = rng.uniform(-180, 180, 600)
        lat = rng.uniform(-80, 80, 600)
        for g in (0, 300):
            lon[g], lat[g + 1], lon[g + 2] = np.nan, 95.0, 200.0
        files.append(d / f"part-{k}.parquet")
        pq.write_table(pa.table({"image_id": np.arange(600) + 600 * k, "lon": lon, "lat": lat}),
                       files[-1], row_group_size=300)
    return files


@pytest.mark.parametrize("n_files", [3, 7])
def test_tile_assignments_from_files_matches_in_process(ray_session, tmp_path, n_files):
    """On the 4-CPU session (7 files: 4 tasks of grouped files; 3 files:
    one task each) the tile histogram equals the in-process assigner's
    over every row group."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from equi7grid_ray.pipelines.flagship import tile_assignments_from_files, tile_histogram
    from equi7grid_ray.stages.tile_assign import TileAssigner

    files = _point_files(tmp_path, n_files)
    got = tile_histogram(tile_assignments_from_files(files, columns=["lon", "lat"], **_POINT_KW))
    assigner = TileAssigner(**_POINT_KW)
    want = pc.value_counts(pa.concat_tables([
        assigner(pq.ParquetFile(f).read_row_group(rg, columns=["lon", "lat"]))
        for f in files for rg in range(2)]).column("tile").cast(pa.string()))
    assert 0 < sum(got.column("n").to_pylist()) < 600 * n_files
    assert dict(zip(got.column("tile").to_pylist(), got.column("n").to_pylist())) == \
        dict(zip(want.field("values").to_pylist(), want.field("counts").to_pylist()))


def _ipc(t: pa.Table) -> bytes:
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, t.schema) as w:
        w.write_table(t)
    return sink.getvalue().to_pybytes()


def _image_files(d, n_files: int) -> list:
    """``n_files`` parquet files of ``make_batch`` images (raw and PNG),
    three row groups each."""
    import pyarrow.parquet as pq

    files = []
    for k in range(n_files):
        files.append(d / f"img-{k}.parquet")
        pq.write_table(make_batch(90 * k, 90), files[-1], row_group_size=30)
    return files


@pytest.mark.parametrize("kind", ["points", "images"])
def test_row_groups_share_assign_calls_table_by_table(tmp_path, monkeypatch, kind):
    """The read-in-map loop hands consecutive row groups to one
    ``assign.many`` call up to ``_CALL_BYTES`` of input (a larger row
    group alone) and yields, table by table, the bytes of one ``assign``
    call per row group."""
    import pyarrow.parquet as pq

    from equi7grid_ray.pipelines import flagship
    from equi7grid_ray.stages.tile_assign import make_assign_fn

    if kind == "points":
        files, columns = _point_files(tmp_path, 3), ["lon", "lat"]
        assign = make_assign_fn(broadcast=False, **_POINT_KW)
    else:
        files, columns = _image_files(tmp_path, 2), None
        assign = make_assign_fn(broadcast=False, decode=True, emit_xy=False)
    tables = [pq.ParquetFile(f).read_row_group(rg, columns=columns)
              for f in files for rg in range(pq.ParquetFile(f).num_row_groups)]
    want = [_ipc(assign(t)) for t in tables]
    calls = []
    many = assign.many

    def spy(batches):
        calls.append(len(batches))
        return many(batches)

    assign.many = spy
    # room for two row groups: a size bound, not a row-group count
    size = max(t.nbytes for t in tables)
    monkeypatch.setattr(flagship, "_CALL_BYTES", 2 * size)
    got = list(flagship._assign_row_groups(iter(tables), assign))
    assert [_ipc(t) for t in got] == want
    assert sum(calls) == len(tables) and max(calls) == 2
    # a row group over the bound is a call of its own
    calls.clear()
    monkeypatch.setattr(flagship, "_CALL_BYTES", size // 2)
    got = list(flagship._assign_row_groups(iter(tables), assign))
    assert [_ipc(t) for t in got] == want and calls == [1] * len(tables)
    # the default bound takes all of these small row groups in one call
    calls.clear()
    monkeypatch.undo()
    assert [_ipc(t) for t in flagship._assign_row_groups(iter(tables), assign)] == want
    assert calls == [len(tables)]


def test_tile_assignments_from_files_rows_equal_per_row_group(ray_session, tmp_path):
    """Through Ray, with grouped assigner calls: the output rows, in
    order, are those of one in-process ``assign`` call per row group."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd

    from equi7grid_ray.pipelines.flagship import tile_assignments_from_files
    from equi7grid_ray.stages.tile_assign import TileAssigner

    files = _image_files(tmp_path, 7)
    kw = dict(decode=True, emit_xy=False, passthrough=("fmt",))
    ctx = rd.DataContext.get_current()
    saved = ctx.execution_options.preserve_order
    ctx.execution_options.preserve_order = True
    try:
        got = tile_assignments_from_files(files, **kw).to_arrow_refs()
    finally:
        ctx.execution_options.preserve_order = saved
    got = pa.concat_tables(ray.get(got))
    assigner = TileAssigner(**kw)
    want = pa.concat_tables([assigner(pq.ParquetFile(f).read_row_group(rg))
                             for f in files for rg in range(3)])
    assert got.num_rows == want.num_rows > 0
    for name in want.column_names:
        g, w = got.column(name), want.column(name)
        if pa.types.is_dictionary(w.type):
            g, w = pc.cast(g, pa.string()), pc.cast(w, pa.string())
        assert g.to_pylist() == w.to_pylist(), name


def test_file_groups_contiguous_at_most_one_per_cpu():
    from equi7grid_ray.pipelines.flagship import _file_groups

    files = [f"f{i}.parquet" for i in range(7)]
    groups = _file_groups(files, 4)
    assert [len(g) for g in groups] == [2, 2, 2, 1]
    assert sum(groups, []) == files
    assert _file_groups(files[:3], 4) == [[f] for f in files[:3]]
    assert _file_groups(files[:4], 1) == [files[:4]]
    assert _file_groups(files, 0) == [[f] for f in files]  # no CPU yet


def test_tile_assignments_from_files_empty_list_raises(monkeypatch):
    """An empty file list is named on the caller before the assigner is
    built or broadcast (and before Ray's own ``parallelism`` error)."""
    from equi7grid_ray.pipelines import flagship

    def no_assigner(**_kw):
        raise AssertionError("assigner built for an empty file list")

    monkeypatch.setattr(flagship, "make_assign_fn", no_assigner)
    with pytest.raises(ValueError, match="file list is empty"):
        flagship.tile_assignments_from_files([])
