"""Staleness guards for the committed oracle-lookup goldens
(equi7grid_ray/data/oracle/*, generated by tools/gen_oracle_lookups.py).

The geodesic queries' DuckDB oracles join these parquets; if the
engine's assignment/ROI/export behaviour drifts from the committed
goldens these tests fail, forcing a regeneration (and making the drift
visible in review)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from equi7grid_ray.datafiles import DATA_DIR

ORACLE = DATA_DIR / "oracle"


def test_tiles_t6_golden_matches_export():
    golden = pq.read_table(ORACLE / "tiles_t6.parquet")
    from equi7grid_ray.export import tiles_table

    live = tiles_table("T6")
    assert golden.schema.names == live.schema.names
    assert golden.equals(live)


def test_sweep_assign_golden_sample(ray_session):
    import ray.data as rd

    from equi7grid_ray import aeqd
    from equi7grid_ray.grid import GridSpec
    from equi7grid_ray.pipelines.flagship import tile_assignments
    from equi7grid_ray.stages.tile_assign import TileAssigner
    from equi7grid_ray.tiling_state import get_grid_state

    golden = pq.read_table(ORACLE / "sweep_assign.parquet")
    idx = np.arange(0, golden.num_rows, max(1, golden.num_rows // 400))
    g = golden.take(pa.array(idx))
    n = g.num_rows
    src = pa.table({
        "image_id": pa.array(np.arange(n, dtype=np.int64), pa.int64()),
        "lon_udeg": g.column("lon_udeg"),
        "lat_udeg": g.column("lat_udeg"),
    })

    assigned = tile_assignments(rd.from_arrow(src),
                                emit_cell=False).to_pandas()
    tile = np.full(n, None, dtype=object)
    tile[assigned["image_id"].to_numpy(np.int64)] = \
        assigned["tile"].astype(str).to_numpy()
    assert tile.tolist() == g.column("tile").to_pylist()

    exact = rd.from_arrow(src).map_batches(
        TileAssigner,
        fn_constructor_kwargs=dict(emit_cell=False, exact_projection=True),
        batch_format="pyarrow", concurrency=(1, 2), num_cpus=1,
    ).to_pandas()
    continent = np.full(n, None, dtype=object)
    kb_live = np.full(n, None, dtype=object)
    eid = exact["image_id"].to_numpy(np.int64)
    econt = exact["continent"].astype(str).to_numpy()
    ex = exact["x"].to_numpy(np.float64)
    ey = exact["y"].to_numpy(np.float64)
    continent[eid] = econt
    for c in np.unique(econt):
        m = econt == c
        k = aeqd.length_distortion_planar(str(c), ex[m], ey[m])
        kb = np.clip((np.nan_to_num(k, nan=1.0) - 1.0) * 100,
                     0, 99).astype(np.int64)
        for i, v in zip(eid[m], kb):
            kb_live[i] = int(v)
    assert continent.tolist() == g.column("continent").to_pylist()
    assert kb_live.tolist() == g.column("k_pct_bucket").to_pylist()

    state = get_grid_state(GridSpec.standard(buffered=True))
    nz = state.zc.classify(
        g.column("lon_udeg").to_numpy() / 1e6,
        g.column("lat_udeg").to_numpy() / 1e6,
    ).sum(axis=1).astype(np.int64)
    assert nz.tolist() == g.column("n_zones").to_pylist()


def test_sweep_roi_tiles_golden_sample(ray_session):
    import ray.data as rd

    from equi7grid_ray.stages.roi_search import BBoxTilesStage

    golden = pq.read_table(ORACLE / "sweep_roi_tiles.parquet").to_pandas()
    centers = golden[["lon_udeg", "lat_udeg"]].drop_duplicates()
    centers = centers.iloc[:: max(1, len(centers) // 150)].reset_index(drop=True)
    lon = centers["lon_udeg"].to_numpy(np.int64) / 1e6
    lat = centers["lat_udeg"].to_numpy(np.int64) / 1e6
    rois = pa.table({
        "roi_id": pa.array(np.arange(len(centers), dtype=np.int64)),
        "lon_min": pa.array(np.maximum(lon - 0.2, -180.0)),
        "lat_min": pa.array(np.maximum(lat - 0.2, -90.0)),
        "lon_max": pa.array(np.minimum(lon + 0.2, 180.0)),
        "lat_max": pa.array(np.minimum(lat + 0.2, 90.0)),
    })
    hits = rd.from_arrow(rois).map_batches(
        BBoxTilesStage, fn_constructor_kwargs=dict(tiling_id="T6"),
        batch_format="pyarrow", concurrency=(1, 2), num_cpus=1,
    ).to_pandas()
    live = {
        (int(centers["lon_udeg"][r]), int(centers["lat_udeg"][r]), t)
        for r, t in zip(hits["roi_id"].to_numpy(np.int64),
                        hits["tile"].astype(str))
    }
    sampled_keys = set(zip(centers["lon_udeg"].astype(int),
                           centers["lat_udeg"].astype(int)))
    want = {
        (int(r.lon_udeg), int(r.lat_udeg), r.tile)
        for r in golden.itertuples()
        if (int(r.lon_udeg), int(r.lat_udeg)) in sampled_keys
    }
    assert live == want


def test_image_tiles_golden_sample():
    """image->tile lookup (tile_mosaic oracle) stays in sync with the
    engine's TileAssigner over the synthetic image sweep."""
    from equi7grid_ray.sources.images import make_batch
    from equi7grid_ray.stages.tile_assign import TileAssigner

    golden = pq.read_table(ORACLE / "image_tiles.parquet")
    lut = dict(zip(golden.column("i").to_pylist(),
                   golden.column("tile").to_pylist()))
    asn = TileAssigner(emit_cell=False, emit_xy=False)
    out = asn(make_batch(0, 250).select(["image_id"]))
    ids = [int(s[3:]) for s in out.column("image_id").to_pylist()]
    tiles = out.column("tile").to_pylist()
    expect = {i: t for i, t in lut.items() if i < 250}
    assert dict(zip(ids, tiles)) == expect


def test_image_tiles_oracles_restrict_scene_range():
    """The image_tiles golden may grow (it covers the largest scene
    count any query uses); every oracle that reads it must therefore
    restrict to its own scene range — either by joining i against its
    img CTE or with an explicit i < N filter.  (This caught 5 silently
    broken oracles when the golden grew 2000 -> 2200.)"""
    import __ray_entry__ as e

    offenders = [
        name for name, sql in e.oracle_sql().items()
        if "image_tiles.parquet" in sql
        and "a.i = im.i" not in sql and "i < 2000" not in sql
    ]
    assert offenders == []
