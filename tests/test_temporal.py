"""Temporal compositing (stages/temporal.py): scene cell means,
per-(tile, cell) exact temporal median, two-epoch change detection.

Parity against naive pandas references (independent of the stage's
lexsort / sentinel tricks), plus the lower-median tie rule and the
single-epoch-drop edge the SQL oracle relies on.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from equi7grid_ray.sources.images import make_batch
from equi7grid_ray.stages.temporal import (
    SceneCellMeans,
    tile_change_detect,
    tile_temporal_median,
)


def _cells_table():
    rng = np.random.default_rng(7)
    n = 4000
    tiles = np.array(["EU_E048N012T6", "EU_E054N012T6", "AS_E066N030T6"])
    return pa.table({
        "tile": pa.array(tiles[rng.integers(0, 3, n)].tolist(), pa.string()),
        "gr": pa.array(rng.integers(0, 4, n).astype(np.int32), pa.int32()),
        "gc": pa.array(rng.integers(0, 4, n).astype(np.int32), pa.int32()),
        "epoch": pa.array(rng.integers(0, 2, n), pa.int64()),
        "m": pa.array(rng.integers(0, 256, n), pa.int64()),
    })


def test_scene_cell_means_match_naive():
    batch = make_batch(0, 12)
    batch = batch.append_column(
        "tile", pa.array([f"T{j % 2}" for j in range(12)], pa.string()))
    out = SceneCellMeans(grid=8)(batch).to_pandas()
    sizes = (32, 64, 128)
    for i in (0, 5, 11):
        w, h = sizes[i % 3], sizes[(i // 3) % 3]
        r = np.arange(h, dtype=np.int64)[:, None]
        c = np.arange(w, dtype=np.int64)[None, :]
        img = (r * h + c * w + i) % 256
        sr, sc = h // 8, w // 8
        m = img.reshape(8, sr, 8, sc).sum(axis=(1, 3)) // (sr * sc)
        # row block i covers cells of scene i in emit order
        blk = out.iloc[i * 64 : (i + 1) * 64]
        assert (blk.tile == f"T{i % 2}").all()
        assert (blk.epoch == i % 2).all()
        got = blk.pivot(index="gr", columns="gc", values="m").to_numpy()
        assert (got == m).all()


def test_temporal_median_matches_pandas(ray_session, assert_shared_partition):
    import ray.data as rd

    t = _cells_table()
    assert_shared_partition(32, tile=t.column("tile"))
    got = tile_temporal_median(rd.from_arrow(t)) \
        .to_pandas().sort_values(["tile", "gr", "gc"]).reset_index(drop=True)
    df = t.to_pandas()

    def lower_median(s: pd.Series) -> int:
        v = np.sort(s.to_numpy())
        return int(v[(len(v) - 1) // 2])

    ref = df.groupby(["tile", "gr", "gc"], as_index=False).agg(
        n_sc=("m", "size"), v_med=("m", lower_median),
        v_min=("m", "min"), v_max=("m", "max"))
    ref = ref.sort_values(["tile", "gr", "gc"]).reset_index(drop=True)
    for col in ("n_sc", "v_med", "v_min", "v_max"):
        assert (got[col].to_numpy() == ref[col].to_numpy()).all(), col
    assert (got["tile"] == ref["tile"]).all()


def test_lower_median_tie_rule(ray_session, assert_shared_partition):
    # even count: lower middle (DuckDB quantile_disc(0.5)), not the mean
    import ray.data as rd

    # tile T8 shares T's partition: [5, 6] -> lower middle 5
    t = pa.table({
        "tile": pa.array(["T"] * 4 + ["T8"] * 2, pa.string()),
        "gr": pa.array([0] * 6, pa.int32()),
        "gc": pa.array([0] * 6, pa.int32()),
        "epoch": pa.array([0, 1, 0, 1, 0, 1], pa.int64()),
        "m": pa.array([10, 40, 20, 30, 6, 5], pa.int64()),
    })
    assert_shared_partition(32, tile=t.column("tile"))
    out = tile_temporal_median(rd.from_arrow(t)).to_pandas() \
        .set_index("tile")
    assert len(out) == 2
    assert out.loc["T", "v_med"] == 20  # sorted [10,20,30,40] -> idx (4-1)//2
    assert out.loc["T", "n_sc"] == 4
    assert out.loc["T8", "v_med"] == 5


def test_change_detect_matches_pandas(ray_session, assert_shared_partition):
    import ray.data as rd

    t = _cells_table()
    assert_shared_partition(32, tile=t.column("tile"), gr=t.column("gr"),
                            gc=t.column("gc"))
    got = tile_change_detect(rd.from_arrow(t), thresh=8) \
        .to_pandas().sort_values("tile").reset_index(drop=True)
    df = t.to_pandas()
    cell = df.groupby(["tile", "gr", "gc"]).apply(
        lambda g: pd.Series({
            "v0": g.loc[g.epoch == 0, "m"].max(),
            "v1": g.loc[g.epoch == 1, "m"].max(),
        }), include_groups=False).reset_index()
    cell = cell.dropna()
    cell["absd"] = (cell.v1 - cell.v0).abs().astype(np.int64)
    ref = cell.groupby("tile", as_index=False).agg(
        n_cells=("absd", "size"),
        n_changed=("absd", lambda s: int((s >= 8).sum())),
        sum_absd=("absd", "sum"))
    ref = ref.sort_values("tile").reset_index(drop=True)
    for col in ("n_cells", "n_changed", "sum_absd"):
        assert (got[col].to_numpy() == ref[col].to_numpy()).all(), col


def test_change_detect_drops_single_epoch_cells(ray_session):
    import ray.data as rd

    t = pa.table({
        "tile": pa.array(["T", "T", "T"], pa.string()),
        "gr": pa.array([0, 0, 1], pa.int32()),
        "gc": pa.array([0, 0, 0], pa.int32()),
        "epoch": pa.array([0, 1, 0], pa.int64()),  # cell (1,0): epoch 0 only
        "m": pa.array([100, 120, 50], pa.int64()),
    })
    out = tile_change_detect(rd.from_arrow(t), thresh=8).to_pandas()
    assert len(out) == 1
    assert out["n_cells"].iloc[0] == 1
    assert out["n_changed"].iloc[0] == 1
    assert out["sum_absd"].iloc[0] == 20


def test_tile_trend_crafted(ray_session, assert_shared_partition):
    import ray.data as rd

    from equi7grid_ray.stages.temporal import tile_trend

    # cell (0,0): perfect slope +3/step over t = 0,2,4; cell (1,1):
    # constant (slope 0); cell (2,2): single scene (den 0 -> 0); cell
    # (1,5) shares (0,0)'s partition: constant (slope 0)
    t = pa.table({
        "tile": pa.array(["T"] * 9, pa.string()),
        "gr": pa.array([0, 0, 0, 1, 1, 1, 2, 1, 1], pa.int32()),
        "gc": pa.array([0, 0, 0, 1, 1, 1, 2, 5, 5], pa.int32()),
        "i": pa.array([0, 2, 4, 1, 3, 5, 9, 0, 2], pa.int64()),
        "epoch": pa.array([0, 0, 0, 1, 1, 1, 1, 0, 0], pa.int64()),
        "m": pa.array([10, 16, 22, 7, 7, 7, 99, 4, 4], pa.int64()),
    })
    assert_shared_partition(32, tile=t.column("tile"), gr=t.column("gr"),
                            gc=t.column("gc"))
    out = tile_trend(rd.from_arrow(t)).to_pandas() \
        .set_index(["gr", "gc"])
    r = out.loc[(0, 0)]
    # slope = 3 per unit t: num/den = 3 -> trend_q6 = 3e6
    assert r.slope_num / r.slope_den == 3.0
    assert r.trend_q6 == 3_000_000
    assert out.loc[(1, 1)].slope_num == 0
    assert out.loc[(1, 1)].trend_q6 == 0
    assert out.loc[(2, 2)].slope_den == 0
    assert out.loc[(2, 2)].trend_q6 == 0
    assert out.loc[(1, 5)].slope_num == 0


def test_tile_trend_negative_truncation(ray_session, assert_shared_partition):
    import ray.data as rd

    from equi7grid_ray.stages.temporal import tile_trend

    # slope = -1/3: trunc(1e6 * -1/3) = -333333 (toward zero, the
    # DuckDB // rule), NOT floor (-333334)
    # plus cell (1,5), one scene, in (0,0)'s partition
    t = pa.table({
        "tile": pa.array(["T"] * 4, pa.string()),
        "gr": pa.array([0, 0, 0, 1], pa.int32()),
        "gc": pa.array([0, 0, 0, 5], pa.int32()),
        "i": pa.array([0, 3, 6, 0], pa.int64()),
        "epoch": pa.array([0, 0, 0, 0], pa.int64()),
        "m": pa.array([2, 1, 0, 9], pa.int64()),
    })
    assert_shared_partition(32, tile=t.column("tile"), gr=t.column("gr"),
                            gc=t.column("gc"))
    out = tile_trend(rd.from_arrow(t)).to_pandas().set_index(["gr", "gc"])
    assert out.loc[(0, 0)].trend_q6 == -333_333
    assert out.loc[(1, 5)].trend_q6 == 0


def test_tile_anomaly_matches_scalar(ray_session):
    """Exact z^2 rule vs a float-reference implementation on values
    safely away from the threshold boundary, plus a crafted exact
    boundary case below."""
    import ray.data as rd

    from equi7grid_ray.stages.temporal import tile_anomaly

    rng = np.random.default_rng(11)
    rows = []
    for tile in ("T_A", "T_B"):
        for cell in range(6):
            n = int(rng.integers(3, 9))
            for k in range(n):
                v = int(rng.integers(0, 50))
                if k == 0 and cell % 2 == 0:
                    v += 200  # plant an outlier
                rows.append((tile, cell // 3, cell % 3, 100 * cell + k, v))
    t = pa.table({
        "tile": pa.array([r[0] for r in rows]),
        "gr": pa.array([r[1] for r in rows], pa.int32()),
        "gc": pa.array([r[2] for r in rows], pa.int32()),
        "i": pa.array([r[3] for r in rows], pa.int64()),
        "m": pa.array([r[4] for r in rows], pa.int64()),
    })
    got = tile_anomaly(rd.from_arrow(t), t=2, min_n=3).to_pandas()
    got = got.sort_values(["tile", "gr", "gc"]).reset_index(drop=True)
    df = t.to_pandas()
    exp = []
    for (tile, gr, gc), g in df.groupby(["tile", "gr", "gc"]):
        m = g.m.to_numpy().astype(np.int64)
        n = len(m)
        if n < 3:
            continue
        s, ss = int(m.sum()), int((m * m).sum())
        flags = (m * n - s) ** 2 > 4 * (n * ss - s * s)
        exp.append((tile, gr, gc, n, int(flags.sum()),
                    int(g.i.to_numpy()[flags].sum())))
    exp = pd.DataFrame(exp, columns=["tile", "gr", "gc", "n_sc", "n_outl",
                                     "outl_scene_sum"])
    exp = exp.sort_values(["tile", "gr", "gc"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got.astype({"n_sc": "int64", "n_outl": "int64",
                    "outl_scene_sum": "int64"}),
        exp.astype({"gr": got.gr.dtype, "gc": got.gc.dtype,
                    "n_sc": "int64", "n_outl": "int64",
                    "outl_scene_sum": "int64"}))


def test_tile_anomaly_exact_boundary_not_flagged(ray_session):
    """The rule is a strict >, so dev^2 == t^2 * var-term must NOT
    flag.  An all-identical stack hits the boundary exactly (0 > 0);
    a sub-threshold asymmetric stack must also stay clean."""
    import ray.data as rd

    from equi7grid_ray.stages.temporal import tile_anomaly

    t = pa.table({
        "tile": pa.array(["T"] * 6),
        "gr": pa.array([0, 0, 0, 1, 1, 1], pa.int32()),
        "gc": pa.array([0] * 6, pa.int32()),
        "i": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
        "m": pa.array([5, 5, 5, 0, 0, 6], pa.int64()),
    })
    out = tile_anomaly(rd.from_arrow(t), t=2, min_n=3).to_pandas()
    assert len(out) == 2 and out.n_outl.sum() == 0


def test_tile_anomaly_min_n_skips_thin_cells(ray_session):
    import ray.data as rd

    from equi7grid_ray.stages.temporal import tile_anomaly

    t = pa.table({
        "tile": pa.array(["T", "T"]),
        "gr": pa.array([0, 0], pa.int32()),
        "gc": pa.array([0, 0], pa.int32()),
        "i": pa.array([1, 2], pa.int64()),
        "m": pa.array([0, 255], pa.int64()),
    })
    assert tile_anomaly(rd.from_arrow(t), min_n=3).count() == 0


def test_best_scene_cell_tie_rule(ray_session):
    """argmax with tie -> smallest scene index."""
    import ray.data as rd

    from equi7grid_ray.stages.temporal import tile_best_scene_cell

    t = pa.table({
        "tile": pa.array(["T"] * 5),
        "gr": pa.array([0, 0, 0, 1, 1], pa.int32()),
        "gc": pa.array([0, 0, 0, 0, 0], pa.int32()),
        "i": pa.array([9, 2, 5, 1, 2], pa.int64()),
        "m": pa.array([7, 7, 3, 4, 9], pa.int64()),
    })
    out = (tile_best_scene_cell(rd.from_arrow(t)).to_pandas()
           .sort_values(["gr"]).reset_index(drop=True))
    assert out.best_scene.tolist() == [2, 2]  # tie at m=7 -> scene 2
    assert out.best_m.tolist() == [7, 9]


def test_tile_similarity_crafted(ray_session):
    """Identical composites pair at d2=0; cross-continent pairs are
    excluded; above-threshold pairs drop."""
    import ray.data as rd

    from equi7grid_ray.stages.mosaic import tile_similarity

    rows = []
    grids = {
        "EU_E006N006T6": 0,     # base pattern
        "EU_E012N006T6": 0,     # identical -> d2 = 0
        "EU_E018N006T6": 5,     # offset 5 per cell -> d2 = 64*25 = 1600
        "AF_E006N006T6": 0,     # identical but other continent
    }
    for tile, off in grids.items():
        for gr in range(8):
            for gc in range(8):
                rows.append((tile, gr, gc, (gr * 8 + gc) % 7 + off))
    t = pa.table({
        "tile": pa.array([r[0] for r in rows]),
        "gr": pa.array([r[1] for r in rows], pa.int32()),
        "gc": pa.array([r[2] for r in rows], pa.int32()),
        "v_max": pa.array([r[3] for r in rows], pa.int64()),
    })
    out = tile_similarity(rd.from_arrow(t), max_d2=1600).to_pandas()
    pairs = {(a, b): d for a, b, d in zip(out.tile_a, out.tile_b, out.d2)}
    assert pairs == {
        ("EU_E006N006T6", "EU_E012N006T6"): 0,
        ("EU_E006N006T6", "EU_E018N006T6"): 1600,
        ("EU_E012N006T6", "EU_E018N006T6"): 1600,
    }
    tight = tile_similarity(rd.from_arrow(t), max_d2=1599).to_pandas()
    assert len(tight) == 1


def test_mk_trend_matches_brute_pairs(ray_session, assert_shared_partition):
    """tile_mk_trend's lag sweep vs a per-group O(n^2) pair loop."""
    import ray.data as rd

    from equi7grid_ray.stages.temporal import tile_mk_trend

    rng = np.random.default_rng(11)
    n = 3000
    tiles = np.array(["EU_E048N012T6", "EU_E054N012T6", "AS_E066N030T6"])
    df = pd.DataFrame({
        "tile": tiles[rng.integers(0, 3, n)],
        "gr": rng.integers(0, 3, n).astype(np.int32),
        "gc": rng.integers(0, 3, n).astype(np.int32),
        "i": rng.permutation(n).astype(np.int64),
        "m": rng.integers(0, 5, n).astype(np.int64),  # many ties
    })
    assert_shared_partition(32, tile=df["tile"], gr=df["gr"], gc=df["gc"])
    out = tile_mk_trend(rd.from_arrow(pa.Table.from_pandas(df))).to_pandas()
    got = {(r.tile, r.gr, r.gc): (r.n_sc, r.mk_s, r.n_pairs)
           for r in out.itertuples()}
    exp = {}
    for key, g in df.groupby(["tile", "gr", "gc"]):
        g = g.sort_values("i")
        v = g["m"].to_numpy()
        s = sum(int(np.sign(v[j] - v[i]))
                for i in range(len(v)) for j in range(i + 1, len(v)))
        exp[key] = (len(v), s, len(v) * (len(v) - 1) // 2)
    assert got == exp


def test_tile_iqr_rank_rule(ray_session):
    """quantile_disc rank rule pinned across stack depths 1..6 against
    a scalar ceil-rank reference."""
    import math

    import ray.data as rd

    from equi7grid_ray.stages.temporal import tile_iqr_composite

    rng = np.random.default_rng(11)
    rows = {"tile": [], "gr": [], "gc": [], "i": [], "m": []}
    stacks = {}
    for cell in range(12):
        n = cell % 6 + 1
        vals = rng.integers(0, 256, n)
        stacks[(cell // 8, cell % 8)] = np.sort(vals)
        for k, v in enumerate(vals):
            rows["tile"].append("EU_E048N012T6")
            rows["gr"].append(cell // 8)
            rows["gc"].append(cell % 8)
            rows["i"].append(k)
            rows["m"].append(int(v))
    t = pa.table({
        "tile": pa.array(rows["tile"], pa.string()),
        "gr": pa.array(rows["gr"], pa.int32()),
        "gc": pa.array(rows["gc"], pa.int32()),
        "i": pa.array(rows["i"], pa.int64()),
        "m": pa.array(rows["m"], pa.int64()),
    })
    out = tile_iqr_composite(rd.from_arrow(t)).to_pandas()
    for r in out.itertuples():
        s = stacks[(r.gr, r.gc)]
        n = len(s)
        q1 = int(s[max(1, math.ceil(0.25 * n)) - 1])
        q3 = int(s[max(1, math.ceil(0.75 * n)) - 1])
        assert (r.n_sc, r.v_q1, r.v_q3, r.iqr) == (n, q1, q3, q3 - q1)


def test_tile_transition_matrix_crafted(ray_session,
                                        assert_shared_partition):
    import ray.data as rd

    from equi7grid_ray.stages.temporal import tile_transition_matrix

    # EU tile, 3 cells across 2 epochs:
    #  cell (0,0): e0 max 10 (class 0), e1 max 200 (class 3)
    #  cell (0,1): e0 max 100 (class 1), e1 max 100 (class 1)
    #  cell (1,0): e0 only -> dropped
    #  cell (0,3): e0 only -> dropped (shares (0,0)'s partition)
    rows = [
        ("EU_E012N012T6", 0, 0, 10, 0), ("EU_E012N012T6", 0, 0, 5, 0),
        ("EU_E012N012T6", 0, 0, 200, 1),
        ("EU_E012N012T6", 0, 1, 100, 0), ("EU_E012N012T6", 0, 1, 90, 1),
        ("EU_E012N012T6", 0, 1, 100, 1),
        ("EU_E012N012T6", 1, 0, 50, 0),
        ("EU_E012N012T6", 0, 3, 70, 0),
    ]
    tbl = pa.table({
        "tile": pa.array([r[0] for r in rows]),
        "gr": pa.array([r[1] for r in rows], pa.int64()),
        "gc": pa.array([r[2] for r in rows], pa.int64()),
        "m": pa.array([r[3] for r in rows], pa.int64()),
        "epoch": pa.array([r[4] for r in rows], pa.int64()),
    })
    assert_shared_partition(32, tile=tbl.column("tile"), gr=tbl.column("gr"),
                            gc=tbl.column("gc"))
    got = tile_transition_matrix(rd.from_arrow(tbl)) \
        .to_pandas().sort_values(["c0", "c1"]).reset_index(drop=True)
    assert list(map(tuple, got.to_numpy())) == [
        ("EU", 0, 3, 1), ("EU", 1, 1, 1)]
