"""Temporal compositing over the per-tile scene stack.

The reference's tiled fan-out (reference warp.py resample_to_equi7_tiles)
produces one raster per (scene, tile); a time-series archive holds a
STACK of scenes per tile, and the classic EO products over that stack
are the temporal-median composite (the robust cloud/outlier-free
mosaic) and two-epoch change detection.  Ray-Data shape:

    images -> TileAssigner -> SceneCellMeans   (decode + G x G exact
                                                block means; pixels
                                                never leave this stage)
           -> [median]  hash-partition by tile -> ONE lexsort pass per
                        partition (exact lower-median, min, max)
           -> [change]  conditional per-epoch max -> hash_aggregate
                        (tile, cell) -> per-tile delta rollup

Exchange volume is G*G rows per (scene, tile) -- independent of image
resolution.  All arithmetic is exact integers (block mean = sum //
npx; lower-median = sorted[(n-1)//2], DuckDB's quantile_disc(0.5)
rule), so both products are SQL-mirrorable through the synthetic pixel
formula joined to the pinned image->tile lookup golden.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from equi7grid_ray.stages.aggregate import cogroup, hash_aggregate
from equi7grid_ray.stages.multimodal import frames

__all__ = ["SceneCellMeans", "tile_temporal_median", "tile_change_detect",
           "tile_trend", "tile_anomaly", "tile_best_scene_cell",
           "tile_mk_trend", "tile_iqr_composite"]


class SceneCellMeans:
    """Per (scene, tile): the G x G exact block-mean grid as rows
    ``(tile, gr, gc, epoch, m)``.  ``epoch`` = scene index parity
    (stand-in for an acquisition-time bucket), derived from the
    ``image_id`` index."""

    def __init__(self, grid: int = 8):
        self.g = grid

    def __call__(self, batch: pa.Table) -> pa.Table:
        tiles = batch.column("tile").to_pylist()
        idx = pc.cast(
            pc.utf8_slice_codeunits(batch.column("image_id"), 3, 32),
            pa.int64(),
        ).to_numpy(zero_copy_only=False)
        G = self.g
        cells = G * G
        n = batch.num_rows
        tile_col: list[str] = []
        scene = np.empty(n * cells, np.int64)
        epoch = np.empty(n * cells, np.int64)
        means = np.empty(n * cells, np.int64)
        k = 0
        for j, img in frames(batch):
            sr, sc = img.shape[0] // G, img.shape[1] // G
            if sr == 0 or sc == 0:
                continue
            m = img[: sr * G, : sc * G].reshape(G, sr, G, sc) \
                .sum(axis=(1, 3), dtype=np.int64) // (sr * sc)
            tile_col.extend([tiles[j]] * cells)
            scene[k : k + cells] = int(idx[j])
            epoch[k : k + cells] = int(idx[j]) % 2
            means[k : k + cells] = m.reshape(-1)
            k += cells
        gr, gc = np.divmod(
            np.tile(np.arange(cells, dtype=np.int32), k // cells), G)
        return pa.table({
            "tile": pa.array(tile_col, pa.string()),
            "gr": pa.array(gr, pa.int32()),
            "gc": pa.array(gc, pa.int32()),
            "i": pa.array(scene[:k], pa.int64()),
            "epoch": pa.array(epoch[:k], pa.int64()),
            "m": pa.array(means[:k], pa.int64()),
        })


def tile_temporal_median(cells):
    """Per (tile, gr, gc): exact lower-median / min / max / count of
    the per-scene block means.  One hash partition on ``tile`` (all
    cells of one tile colocate), then ONE np.lexsort + group-boundary
    pass per partition -- no per-group Python."""
    def medians(g: pd.DataFrame) -> pd.DataFrame:
        tcode, tuniq = pd.factorize(g["tile"], sort=False)
        gr = g["gr"].to_numpy()
        gc = g["gc"].to_numpy()
        m = g["m"].to_numpy()
        order = np.lexsort((m, gc, gr, tcode))
        tc, gr, gc, m = tcode[order], gr[order], gc[order], m[order]
        new = np.empty(len(m), bool)
        new[0] = True
        new[1:] = (tc[1:] != tc[:-1]) | (gr[1:] != gr[:-1]) \
            | (gc[1:] != gc[:-1])
        starts = np.flatnonzero(new)
        counts = np.diff(np.append(starts, len(m)))
        med = m[starts + (counts - 1) // 2]
        return pd.DataFrame({
            "tile": tuniq.take(tc[starts]),
            "gr": gr[starts],
            "gc": gc[starts],
            "n_sc": counts.astype(np.int64),
            "v_med": med.astype(np.int64),
            "v_min": m[starts].astype(np.int64),
            "v_max": m[starts + counts - 1].astype(np.int64),
        })

    return cogroup(cells, ["tile"], medians, n_partitions=32)


def tile_mk_trend(cells):
    """Per-(tile, cell) Mann-Kendall trend statistic over the scene
    stack -- the NONPARAMETRIC counterpart of :func:`tile_trend`'s
    least-squares slope and the standard EO monotonic-trend test
    (robust to outliers, no distribution assumption):

        S = sum over scene pairs i < j of sign(v_j - v_i)

    ordered by scene index, all exact integers.  Emits
    (tile, gr, gc, n_sc, mk_s, n_pairs) with n_pairs = n*(n-1)/2 (the
    tie-free variance denominator's pair mass).

    Shape: one hash partition on the cell key, one lexsort per
    partition, then max-group-size LAG SWEEPS -- for each lag d the
    comparison v[k+d] vs v[k] is one vectorized pass over the whole
    partition masked to same-group rows, so Python cost is O(max
    stack depth), never O(groups) or O(pairs)."""
    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({
            "tile": pc.cast(batch.column("tile"), pa.string()),
            "gr": batch.column("gr"),
            "gc": batch.column("gc"),
            "i": batch.column("i"),
            "m": batch.column("m"),
        })

    def mk(g: pd.DataFrame) -> pd.DataFrame:
        tcode, _ = pd.factorize(g["tile"], sort=False)
        gr = g["gr"].to_numpy(np.int64)
        gc = g["gc"].to_numpy(np.int64)
        span = max(int(gr.max()), int(gc.max())) + 1 if len(g) else 1
        _, code = np.unique(
            (tcode.astype(np.int64) * span + gr) * span + gc,
            return_inverse=True)
        i = g["i"].to_numpy(np.int64)
        v = g["m"].to_numpy(np.int64)
        order = np.lexsort((i, code))
        code, v = code[order], v[order]
        n_grp = int(code.max()) + 1
        n = np.bincount(code, minlength=n_grp).astype(np.int64)
        s = np.zeros(n_grp, np.int64)
        for d in range(1, int(n.max())):
            same = code[d:] == code[:-d]
            if not same.any():
                break
            sgn = np.sign(v[d:] - v[:-d]).astype(np.int64)
            np.add.at(s, code[:-d][same], sgn[same])
        # groups are contiguous after the lexsort and every code value
        # 0..n_grp-1 occurs, so starts[g] is group g's first row
        starts = np.flatnonzero(np.diff(code, prepend=-1))
        rows = g.iloc[order[starts]]
        return pd.DataFrame({
            "tile": rows["tile"].to_numpy(),
            "gr": rows["gr"].to_numpy(),
            "gc": rows["gc"].to_numpy(),
            "n_sc": n,
            "mk_s": s,
            "n_pairs": n * (n - 1) // 2,
        })

    return cogroup(cells.map_batches(prep, batch_format="pyarrow"),
                   ["tile", "gr", "gc"], mk, n_partitions=32)


def tile_trend(cells, *, q: int = 10**6):
    """Per-(tile, cell) temporal TREND of the block means over scene
    index (the exact-integer least-squares slope -- the land-change /
    vegetation-trend primitive):

        num = n * sum(t*v) - sum(t) * sum(v)
        den = n * sum(t^2) - sum(t)^2        (>= 0; 0 when n == 1)
        trend_q6 = trunc(1e6 * num / den)    (DuckDB // rule)

    Five integer sums ride ONE keyed aggregate (per-batch combiner via
    hash_aggregate); the slope math is a closed-form map over the cell
    table.  Bounds: t < 2^11, v < 2^8, n <= scenes -> 1e6 * num stays
    well inside int64."""
    def sums(batch: pa.Table) -> pa.Table:
        t = batch.column("i").to_numpy()
        v = batch.column("m").to_numpy()
        return pa.table({
            "tile": batch.column("tile"),
            "gr": batch.column("gr"),
            "gc": batch.column("gc"),
            "one": pa.array(np.ones(batch.num_rows, np.int64)),
            "t": pa.array(t, pa.int64()),
            "v": pa.array(v, pa.int64()),
            "tv": pa.array(t * v, pa.int64()),
            "tt": pa.array(t * t, pa.int64()),
        })

    agg = hash_aggregate(
        cells.map_batches(sums, batch_format="pyarrow"),
        keys=["tile", "gr", "gc"],
        aggs={"n_sc": ("one", "sum"), "st": ("t", "sum"),
              "sv": ("v", "sum"), "stv": ("tv", "sum"),
              "stt": ("tt", "sum")},
        n_partitions=32,
    )

    def slope(batch: pa.Table) -> pa.Table:
        n = batch.column("n_sc").to_numpy()
        st = batch.column("st").to_numpy()
        sv = batch.column("sv").to_numpy()
        stv = batch.column("stv").to_numpy()
        stt = batch.column("stt").to_numpy()
        num = n * stv - st * sv
        den = n * stt - st * st
        safe = np.where(den == 0, 1, den)
        tq = np.abs(num) * q // safe  # den >= 0: sign comes from num
        tq = np.where(num < 0, -tq, tq)
        tq = np.where(den == 0, 0, tq)
        return pa.table({
            "tile": batch.column("tile"),
            "gr": batch.column("gr"),
            "gc": batch.column("gc"),
            "n_sc": batch.column("n_sc"),
            "slope_num": pa.array(num, pa.int64()),
            "slope_den": pa.array(den, pa.int64()),
            "trend_q6": pa.array(tq, pa.int64()),
        })

    return agg.map_batches(slope, batch_format="pyarrow")


def tile_change_detect(cells, *, thresh: int = 8):
    """Two-epoch change detection per tile: epoch-0 vs epoch-1 MAX
    composites compared cell-by-cell; a cell "changed" when
    ``|v1 - v0| >= thresh``.  Cells observed in only one epoch are
    dropped (no basis for a delta).  Emits per tile: ``n_cells``,
    ``n_changed``, ``sum_absd``.

    Shape: the conditional per-epoch maxes ride ONE keyed aggregate
    (block means are >= 0, so -1 is a safe absent sentinel); the
    per-tile rollup aggregates the already-tiny cell table."""

    def split_epochs(batch: pa.Table) -> pa.Table:
        m = batch.column("m").to_numpy()
        ep = batch.column("epoch").to_numpy()
        return pa.table({
            "tile": batch.column("tile"),
            "gr": batch.column("gr"),
            "gc": batch.column("gc"),
            "m0": pa.array(np.where(ep == 0, m, -1), pa.int64()),
            "m1": pa.array(np.where(ep == 1, m, -1), pa.int64()),
        })

    per_cell = hash_aggregate(
        cells.map_batches(split_epochs, batch_format="pyarrow"),
        keys=["tile", "gr", "gc"],
        aggs={"v0": ("m0", "max"), "v1": ("m1", "max")},
        n_partitions=32,
    )

    def deltas(batch: pa.Table) -> pa.Table:
        v0 = batch.column("v0").to_numpy()
        v1 = batch.column("v1").to_numpy()
        keep = (v0 >= 0) & (v1 >= 0)
        absd = np.abs(v1 - v0)
        return pa.table({
            "tile": batch.column("tile").filter(pa.array(keep)),
            "one": pa.array(np.ones(int(keep.sum()), np.int64)),
            "changed": pa.array(
                (absd[keep] >= thresh).astype(np.int64), pa.int64()),
            "absd": pa.array(absd[keep], pa.int64()),
        })

    return hash_aggregate(
        per_cell.map_batches(deltas, batch_format="pyarrow"),
        keys=["tile"],
        aggs={
            "n_cells": ("one", "sum"),
            "n_changed": ("changed", "sum"),
            "sum_absd": ("absd", "sum"),
        },
        n_partitions=32,
    )


def tile_anomaly(cells, *, t: int = 2, min_n: int = 3):
    """Per-(tile, cell) temporal OUTLIER screening: a scene's block
    mean is anomalous when its exact z-score exceeds ``t`` —
    cross-multiplied so no division or sqrt appears:

        z^2 > t^2   <=>   (m*n - s)^2 > t^2 * (n*ss - s^2)

    with per-cell n = scene count, s = sum m, ss = sum m^2 (the cloud /
    sensor-glitch screen that precedes compositing).  Cells with fewer
    than ``min_n`` scenes are skipped (no usable variance).  Emits

        tile, gr, gc, n_sc, n_outl, outl_scene_sum

    (``outl_scene_sum`` = sum of flagged scene indices — an
    order-independent witness the SQL mirror recomputes).  One tile
    hash partition, one lexsort + reduceat pass per partition."""
    t2 = t * t

    def screen(g: pd.DataFrame) -> pd.DataFrame:
        tcode, tuniq = pd.factorize(g["tile"], sort=False)
        gr = g["gr"].to_numpy()
        gc = g["gc"].to_numpy()
        m = g["m"].to_numpy().astype(np.int64)
        sc = g["i"].to_numpy().astype(np.int64)
        order = np.lexsort((sc, gc, gr, tcode))
        tc, gr, gc, m, sc = (a[order] for a in (tcode, gr, gc, m, sc))
        new = np.empty(len(m), bool)
        new[0] = True
        new[1:] = (tc[1:] != tc[:-1]) | (gr[1:] != gr[:-1]) \
            | (gc[1:] != gc[:-1])
        starts = np.flatnonzero(new)
        counts = np.diff(np.append(starts, len(m))).astype(np.int64)
        gid = np.cumsum(new) - 1
        n = counts[gid]
        s = np.add.reduceat(m, starts)[gid]
        ss = np.add.reduceat(m * m, starts)[gid]
        dev = m * n - s
        flag = (dev * dev > t2 * (n * ss - s * s)) & (n >= min_n)
        keep = counts >= min_n
        out = pd.DataFrame({
            "tile": tuniq.take(tc[starts]),
            "gr": gr[starts].astype(np.int32),
            "gc": gc[starts].astype(np.int32),
            "n_sc": counts,
            "n_outl": np.add.reduceat(flag.astype(np.int64), starts),
            "outl_scene_sum": np.add.reduceat(
                np.where(flag, sc, 0), starts),
        })
        return out[keep].reset_index(drop=True)

    return cogroup(cells, ["tile"], screen, n_partitions=32)


def tile_best_scene_cell(cells):
    """Per-(tile, cell) PROVENANCE of the max composite: which scene
    supplied the winning value (ties -> smallest scene index, the
    deterministic rule row_number() mirrors).  One lexsort per tile
    partition — the argmax rides the same pass that would build the
    composite, so provenance costs nothing extra at 100 TB.  Emits
    (tile, gr, gc, best_scene, best_m)."""
    def argmax(g: pd.DataFrame) -> pd.DataFrame:
        tcode, tuniq = pd.factorize(g["tile"], sort=False)
        gr = g["gr"].to_numpy()
        gc = g["gc"].to_numpy()
        m = g["m"].to_numpy().astype(np.int64)
        sc = g["i"].to_numpy().astype(np.int64)
        # sort so each group's FIRST row is its winner: (-m, scene)
        order = np.lexsort((sc, -m, gc, gr, tcode))
        tc, gr, gc, m, sc = (a[order] for a in (tcode, gr, gc, m, sc))
        new = np.empty(len(m), bool)
        new[0] = True
        new[1:] = (tc[1:] != tc[:-1]) | (gr[1:] != gr[:-1]) \
            | (gc[1:] != gc[:-1])
        first = np.flatnonzero(new)
        return pd.DataFrame({
            "tile": tuniq.take(tc[first]),
            "gr": gr[first].astype(np.int32),
            "gc": gc[first].astype(np.int32),
            "best_scene": sc[first],
            "best_m": m[first],
        })

    return cogroup(cells, ["tile"], argmax, n_partitions=32)


def tile_iqr_composite(cells):
    """Per (tile, gr, gc): exact QUARTILE composite over the scene
    stack -- the robust-compositing counterpart of
    :func:`tile_temporal_median` (Q1/Q3 band composites and their
    spread are the standard cloud/outlier-robust EO products; the IQR
    doubles as the per-cell variability map).

    Quartiles use DuckDB's ``quantile_disc`` rank rule: the element at
    1-based rank ``max(1, ceil(q * n))`` of the sorted stack, so the
    SQL mirror is bit-exact.  Emits
    (tile, gr, gc, n_sc, v_q1, v_q3, iqr).

    Same shape as the median composite: one hash partition on tile,
    ONE lexsort + group-boundary pass per partition."""
    def quartiles(g: pd.DataFrame) -> pd.DataFrame:
        tcode, tuniq = pd.factorize(g["tile"], sort=False)
        gr = g["gr"].to_numpy()
        gc = g["gc"].to_numpy()
        m = g["m"].to_numpy()
        order = np.lexsort((m, gc, gr, tcode))
        tc, gr, gc, m = tcode[order], gr[order], gc[order], m[order]
        new = np.empty(len(m), bool)
        new[0] = True
        new[1:] = (tc[1:] != tc[:-1]) | (gr[1:] != gr[:-1]) \
            | (gc[1:] != gc[:-1])
        starts = np.flatnonzero(new)
        counts = np.diff(np.append(starts, len(m)))
        # 1-based rank ceil(q*n) in IEEE doubles (the quantile_disc
        # rule; see stages/quantiles.py for the determinism argument)
        r1 = np.maximum(1, np.ceil(0.25 * counts)).astype(np.int64)
        r3 = np.maximum(1, np.ceil(0.75 * counts)).astype(np.int64)
        q1 = m[starts + r1 - 1].astype(np.int64)
        q3 = m[starts + r3 - 1].astype(np.int64)
        return pd.DataFrame({
            "tile": tuniq.take(tc[starts]),
            "gr": gr[starts],
            "gc": gc[starts],
            "n_sc": counts.astype(np.int64),
            "v_q1": q1,
            "v_q3": q3,
            "iqr": q3 - q1,
        })

    return cogroup(cells, ["tile"], quartiles, n_partitions=32)


def sax_motifs(counts, *, key: str = "event_type", hr_col: str = "hr",
               n_col: str = "n", box: int = 4, word: int = 3):
    """SAX symbolic motif mining (Lin/Keogh's Symbolic Aggregate
    approXimation, exact-integer variant) over a per-(key, hour) count
    series: the shared dense hour frame is cut into ``box``-hour
    pieces, each piece's SUM (equal-width boxes, so sums order like
    means -- no division) is coded 0-3 by the key's own quantile_disc
    quartiles (code = #thresholds strictly exceeded; ties share a
    code), and every sliding ``word``-gram of codes is counted -- the
    recurring-shape census (daily surge / overnight lull patterns).
    The trailing partial box is dropped.

    ``counts``: a bounded keyed aggregate (key, hr, n).  The fold runs
    once over that bounded table (single_group); per key it is one
    dense scatter + reshape-sum + searchsorted-free threshold count.
    SQL mirrors with quantile_disc + lead() windows."""
    from equi7grid_ray.arrowutil import single_group

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        import math

        mn = int(g[hr_col].min())
        mx = int(g[hr_col].max())
        horizon = mx - mn + 1
        nbox = horizon // box
        rows = []
        for k, gg in g.groupby(key, sort=False):
            dense = np.zeros(horizon, np.int64)
            dense[gg[hr_col].to_numpy(np.int64) - mn] = \
                gg[n_col].to_numpy(np.int64)
            if nbox < word:
                continue
            v = dense[:nbox * box].reshape(nbox, box).sum(1)
            sv = np.sort(v)
            thr = [sv[max(1, math.ceil(q * len(v))) - 1]
                   for q in (0.25, 0.5, 0.75)]
            s = (v > thr[0]).astype(np.int64) + (v > thr[1]) + (v > thr[2])
            motif = np.zeros(nbox - word + 1, np.int64)
            for j in range(word):
                motif = motif * 4 + s[j:nbox - word + 1 + j]
            mid, cnt = np.unique(motif, return_counts=True)
            rows.append(pd.DataFrame({
                key: k, "motif": mid.astype(np.int64),
                "n": cnt.astype(np.int64)}))
        if not rows:
            return pd.DataFrame({key: pd.Series([], dtype=object),
                                 "motif": pd.Series([], dtype=np.int64),
                                 "n": pd.Series([], dtype=np.int64)})
        return pd.concat(rows, ignore_index=True)

    return single_group(counts, fold, [key, "motif", "n"])


def tile_transition_matrix(cells, *, class_div: int = 64):
    """Two-epoch class-transition (land-cover change) matrix: epoch-0
    vs epoch-1 per-cell MAX composites classified into
    ``256 // class_div`` brightness classes, cross-tabulated per
    continent -- the confusion-matrix census EO change analysis reads
    before mapping anything (which class flips into which).  Cells
    observed in only one epoch are dropped.

    Same single conditional-max keyed aggregate as tile_change_detect
    (-1 absent sentinel rides the max); the matrix rollup output is
    bounded 7 x k^2.  SQL mirrors the cell CTE + floor-division
    classes."""
    import pyarrow.compute as _pc

    def split_epochs(batch: pa.Table) -> pa.Table:
        m = batch.column("m").to_numpy()
        ep = batch.column("epoch").to_numpy()
        return pa.table({
            "tile": batch.column("tile"),
            "gr": batch.column("gr"),
            "gc": batch.column("gc"),
            "m0": pa.array(np.where(ep == 0, m, -1), pa.int64()),
            "m1": pa.array(np.where(ep == 1, m, -1), pa.int64()),
        })

    per_cell = hash_aggregate(
        cells.map_batches(split_epochs, batch_format="pyarrow"),
        keys=["tile", "gr", "gc"],
        aggs={"v0": ("m0", "max"), "v1": ("m1", "max")},
        n_partitions=32,
    )

    def classify(batch: pa.Table) -> pa.Table:
        v0 = batch.column("v0").to_numpy()
        v1 = batch.column("v1").to_numpy()
        keep = (v0 >= 0) & (v1 >= 0)
        t = batch.filter(pa.array(keep))
        return pa.table({
            "continent": _pc.utf8_slice_codeunits(t.column("tile"), 0, 2),
            "c0": pa.array(v0[keep] // class_div, pa.int64()),
            "c1": pa.array(v1[keep] // class_div, pa.int64()),
        })

    return hash_aggregate(
        per_cell.map_batches(classify, batch_format="pyarrow"),
        keys=["continent", "c0", "c1"],
        aggs={"n_cells": ("c0", "count")},
        n_partitions=8,
    )
