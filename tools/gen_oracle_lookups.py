"""Generate the committed oracle-lookup parquets under
``equi7grid_ray/data/oracle/``.

The geodesic operators (zone PIP + ellipsoidal AEQD forward, ROI tile
search, planar distortion on projected coords) are not SQL-expressible,
so their DuckDB oracles join these PINNED lookup tables instead: the
lookup maps each derived-sweep coordinate (exact integer microdegrees,
reproducible bit-for-bit in SQL) to the engine's assignment outputs.
The tables are goldens -- generated once by this tool, committed, and
guarded by tests/test_oracle_lookups.py which regenerates a sample and
compares.  Any regression in the geodesic pipeline then shows up as an
oracle hash mismatch exactly like the SQL-mirrored operators.

Coverage: the distinct derived coordinates of the sf0.001 and sf0.01
lineitem tables (the driver's correctness gate runs at sf0.01; sf0.1 is
bench-only and stays rows-only for these queries).

Usage: python tools/gen_oracle_lookups.py [sf_dir ...]
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from equi7grid_ray.datafiles import DATA_DIR

OUT_DIR = DATA_DIR / "oracle"
DEFAULT_SFS = ["/root/testdata/sf0.001", "/root/testdata/sf0.01"]


def distinct_udeg(sf_dirs: list[str]) -> pa.Table:
    """Distinct (lon_udeg, lat_udeg) over the full lineitem sweep of
    every sf dir (the same integer derivation as __ray_entry__)."""
    from __ray_entry__ import _derive_udeg

    pairs = set()
    lon_all, lat_all = [], []
    for d in sf_dirs:
        t = pq.read_table(f"{d}/lineitem.parquet",
                          columns=["l_orderkey", "l_partkey"])
        lon, lat = _derive_udeg(t)
        lon_all.append(lon)
        lat_all.append(lat)
    lon = np.concatenate(lon_all)
    lat = np.concatenate(lat_all)
    key = lon * np.int64(1 << 32) + lat  # lat < 2^28, no overlap
    _, idx = np.unique(key, return_index=True)
    del pairs
    return pa.table({
        "lon_udeg": pa.array(lon[idx], pa.int64()),
        "lat_udeg": pa.array(lat[idx], pa.int64()),
    })


def gen_sweep_assign(domain: pa.Table) -> pa.Table:
    """(lon_udeg, lat_udeg) -> tile (flagship interp path), continent /
    k_pct_bucket (TileAssigner exact path), n_zones (buffered
    classify)."""
    import ray.data as rd

    from equi7grid_ray import aeqd
    from equi7grid_ray.grid import GridSpec
    from equi7grid_ray.pipelines.flagship import tile_assignments
    from equi7grid_ray.stages.tile_assign import TileAssigner
    from equi7grid_ray.tiling_state import get_grid_state

    n = domain.num_rows
    lon = domain.column("lon_udeg").to_numpy()
    lat = domain.column("lat_udeg").to_numpy()
    src = pa.table({
        "image_id": pa.array(np.arange(n, dtype=np.int64), pa.int64()),
        "lon_udeg": domain.column("lon_udeg"),
        "lat_udeg": domain.column("lat_udeg"),
    })

    # flagship (interp-grid) path: the `tile` column of tile_assign_real
    assigned = tile_assignments(rd.from_arrow(src), emit_cell=False,
                                batch_size=65_536).to_pandas()
    tile = np.full(n, None, dtype=object)
    tile[assigned["image_id"].to_numpy(np.int64)] = \
        assigned["tile"].astype(str).to_numpy()

    # exact-projection path: continent + planar distortion bucket
    exact = rd.from_arrow(src).map_batches(
        TileAssigner,
        fn_constructor_kwargs=dict(emit_cell=False, exact_projection=True),
        batch_format="pyarrow", concurrency=(1, 2), num_cpus=1,
    ).to_pandas()
    continent = np.full(n, None, dtype=object)
    kbucket = np.full(n, -1, dtype=np.int64)
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
        kbucket[eid[m]] = kb

    # buffered zone multiplicity
    state = get_grid_state(GridSpec.standard(buffered=True))
    nz = state.zc.classify(lon / 1e6, lat / 1e6).sum(axis=1).astype(np.int64)

    kb_arr = pa.array(
        [None if v < 0 else int(v) for v in kbucket], pa.int64())
    return pa.table({
        "lon_udeg": domain.column("lon_udeg"),
        "lat_udeg": domain.column("lat_udeg"),
        "tile": pa.array(tile, pa.string()),
        "continent": pa.array(continent, pa.string()),
        "k_pct_bucket": kb_arr,
        "n_zones": pa.array(nz, pa.int64()),
    })


def gen_roi_tiles(domain: pa.Table) -> pa.Table:
    """(lon_udeg, lat_udeg) -> tiles hit by the 0.4-deg ROI box centered
    there (BBoxTilesStage, exactly q_roi_search_geodesic's box rule),
    restricted to the (l_orderkey + l_partkey) % 3 == 1 sweep subset's
    coordinate domain (callers pass that domain)."""
    import ray.data as rd

    from equi7grid_ray.stages.roi_search import BBoxTilesStage

    n = domain.num_rows
    lon = domain.column("lon_udeg").to_numpy() / 1e6
    lat = domain.column("lat_udeg").to_numpy() / 1e6
    rois = pa.table({
        "roi_id": pa.array(np.arange(n, dtype=np.int64), pa.int64()),
        "lon_min": pa.array(np.maximum(lon - 0.2, -180.0)),
        "lat_min": pa.array(np.maximum(lat - 0.2, -90.0)),
        "lon_max": pa.array(np.minimum(lon + 0.2, 180.0)),
        "lat_max": pa.array(np.minimum(lat + 0.2, 90.0)),
    })
    hits = rd.from_arrow(rois).map_batches(
        BBoxTilesStage, fn_constructor_kwargs=dict(tiling_id="T6"),
        batch_format="pyarrow", batch_size=8192,
        concurrency=(1, 8), num_cpus=1,
    ).to_pandas()
    rid = hits["roi_id"].to_numpy(np.int64)
    return pa.table({
        "lon_udeg": domain.column("lon_udeg").take(pa.array(rid)),
        "lat_udeg": domain.column("lat_udeg").take(pa.array(rid)),
        "tile": pa.array(hits["tile"].astype(str).to_numpy(), pa.string()),
    })


def filtered_subset(domain_sfs: list[str]) -> pa.Table:
    """Distinct coordinates of the (l_orderkey + l_partkey) % 3 == 1
    subset (the deterministic stand-in for the old .limit(20k))."""
    from __ray_entry__ import _derive_udeg

    lon_all, lat_all = [], []
    for d in domain_sfs:
        t = pq.read_table(f"{d}/lineitem.parquet",
                          columns=["l_orderkey", "l_partkey"])
        ok = t.column("l_orderkey").to_numpy().astype(np.int64)
        kp = t.column("l_partkey").to_numpy().astype(np.int64)
        keep = (ok + kp) % 3 == 1
        lon, lat = _derive_udeg(t)
        lon_all.append(lon[keep])
        lat_all.append(lat[keep])
    lon = np.concatenate(lon_all)
    lat = np.concatenate(lat_all)
    key = lon * np.int64(1 << 32) + lat
    _, idx = np.unique(key, return_index=True)
    return pa.table({
        "lon_udeg": pa.array(lon[idx], pa.int64()),
        "lat_udeg": pa.array(lat[idx], pa.int64()),
    })


def gen_image_tiles(n: int = 2200) -> pa.Table:
    """image index -> assigned T6 tile for the synthetic image fixture
    (the centers_for_index sweep), via the engine's own TileAssigner.
    Pins the geodesic center assignment that the tile_mosaic oracle
    joins (unassigned centers -- the few that fall between zone
    polygons -- are absent, matching the engine's drop semantics)."""
    import pyarrow.compute as pc

    from equi7grid_ray.sources.images import make_batch
    from equi7grid_ray.stages.tile_assign import TileAssigner

    asn = TileAssigner(emit_cell=False, emit_xy=False)
    parts = []
    for st in range(0, n, 500):
        out = asn(make_batch(st, min(500, n - st)).select(["image_id"]))
        parts.append(out.select(["image_id", "tile"]))
    t = pa.concat_tables(parts)
    i = pc.cast(pc.utf8_slice_codeunits(t.column("image_id"), 3, 32),
                pa.int64())
    return pa.table({"i": i,
                     "tile": pc.cast(t.column("tile"), pa.string())})


def gen_query_pins(sf_dirs: list[str]) -> None:
    """Pin the results of the non-SQL-expressible queries as lookup
    goldens (the driver's correctness gate then compares every future
    live run against these -- the approval-test role of the reference's
    tests/resources/approved/ directory):

    - regrid_sample / regrid_int16 / gtiff_roundtrip: sf-independent
      synthetic fixtures -> one pin each (geodesic resampling pixel
      checksums; GeoTIFF container round-trip),
    - kmeans_clusters: sf-DEPENDENT (embeddings input), so the pin
      carries a ``sum_label`` discriminator column (exact-integer input
      fingerprint; row COUNTS collide across the sf dirs) and the SQL
      oracle selects the stripe matching
      ``(SELECT sum(label) FROM embeddings)``.
    """
    import __ray_entry__ as e

    qs = e.queries()
    for name in ("regrid_sample", "regrid_int16", "regrid_cubic",
                 "gtiff_roundtrip"):
        t = _to_table(qs[name](sf_dirs[0]))
        t = t.sort_by([(c, "ascending") for c in t.column_names])
        pq.write_table(t, OUT_DIR / f"{name}_pin.parquet",
                       compression="zstd")
        print(f"{name}_pin: {t.num_rows} rows")

    parts = []
    for d in sf_dirs:
        lab = pq.read_table(f"{d}/embeddings.parquet", columns=["label"])
        sum_label = int(np.asarray(
            lab.column("label").to_numpy(zero_copy_only=False),
            dtype=np.int64).sum())
        t = _to_table(qs["kmeans_clusters"](d))
        t = t.append_column("sum_label",
                            pa.array([sum_label] * t.num_rows, pa.int64()))
        parts.append(t)
        print(f"kmeans pin @{d}: {t.num_rows} clusters, sum_label={sum_label}")
    pq.write_table(pa.concat_tables(parts), OUT_DIR / "kmeans_pin.parquet",
                   compression="zstd")


def _to_table(res) -> pa.Table:
    import pandas as pd

    if isinstance(res, pa.Table):
        return res
    if isinstance(res, pd.DataFrame):
        return pa.Table.from_pandas(res, preserve_index=False)
    return pa.concat_tables(
        b if isinstance(b, pa.Table) else pa.Table.from_batches([b])
        for b in res.iter_batches(batch_format="pyarrow")
    )


def main() -> int:
    import ray

    sf_dirs = sys.argv[1:] or DEFAULT_SFS
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=16, include_dashboard=False,
                 logging_level="ERROR")
    import ray.data as rd

    rd.DataContext.get_current().enable_progress_bars = False
    OUT_DIR.mkdir(parents=True, exist_ok=True)

    domain = distinct_udeg(sf_dirs)
    print(f"assign domain: {domain.num_rows} distinct coords")
    assign = gen_sweep_assign(domain)
    pq.write_table(assign, OUT_DIR / "sweep_assign.parquet",
                   compression="zstd")

    sub = filtered_subset(sf_dirs)
    print(f"roi domain: {sub.num_rows} distinct filtered coords")
    roi = gen_roi_tiles(sub)
    pq.write_table(roi, OUT_DIR / "sweep_roi_tiles.parquet",
                   compression="zstd")

    from equi7grid_ray.export import tiles_table

    pq.write_table(tiles_table("T6"), OUT_DIR / "tiles_t6.parquet",
                   compression="zstd")
    pq.write_table(gen_image_tiles(), OUT_DIR / "image_tiles.parquet",
                   compression="zstd")
    gen_query_pins(sf_dirs)
    for f in sorted(OUT_DIR.glob("*.parquet")):
        print(f, f.stat().st_size // 1024, "KiB",
              pq.read_metadata(f).num_rows, "rows")
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
