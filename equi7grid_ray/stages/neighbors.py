"""Grid-partitioned spatial self-join: all pairs within a radius.

The reference answers "which tiles does this ROI touch" (core.py
get_tiles_in_* family); the corpus-scale sibling question is "which
ROWS are near each other" -- collocated imagery, duplicate acquisition
detection, spatial nearest-neighbour graphs. All-pairs is O(n^2); the
standard distributed shape (grid / PBSM spatial join) is:

1. hash every point to a square cell of side >= radius;
2. REPLICATE each point into its 8 neighbour cells (factor-9 map-side
   blowup of (id, x, y) metadata only -- never payloads);
3. shuffle by cell, one vectorized self-merge per hash PARTITION of
   cells (``aggregate.cogroup``: one pandas merge per partition, never
   per cell);
4. emit pair (a, b) exactly once via the canonical-cell rule: only
   where the SMALLER id is in its home cell (a replica pair is
   counted in the home cell of its min-id endpoint and nowhere else).

Cell side >= radius guarantees the 3x3 neighbourhood covers every
qualifying pair, so the output is EXACT -- the SQL oracle is the plain
O(n^2) inequality self-join.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from equi7grid_ray.stages.aggregate import cogroup

__all__ = ["neighbor_pairs", "rect_overlap_join", "snap_to_segments"]

def neighbor_pairs(ds, *, radius: float, x_col: str = "x", y_col: str = "y",
                   id_col: str = "id", cell_size: float | None = None):
    """All distinct pairs (id_a < id_b) within euclidean ``radius``.

    Returns a Dataset ``(id_a, id_b, d2)`` where ``d2`` is the squared
    distance (exact integer when the inputs are integral).
    """
    cell = float(cell_size if cell_size is not None else radius)
    if cell < radius:
        raise ValueError("cell_size must be >= radius")
    r2 = float(radius) * float(radius)

    def replicate(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        x = batch.column(x_col).to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        y = batch.column(y_col).to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        cx = np.floor(x / cell).astype(np.int64)
        cy = np.floor(y / cell).astype(np.int64)
        n = len(ids)
        outs = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                ck = (cx + dx) * np.int64(1 << 31) + (cy + dy)
                outs.append((ck, dx == 0 and dy == 0))
        ck_all = np.concatenate([o[0] for o in outs])
        home = np.concatenate([
            np.full(n, o[1], dtype=bool) for o in outs])
        return pa.table({
            "ck": pa.array(ck_all, pa.int64()),
            id_col: pa.array(np.tile(ids, 9), pa.int64()),
            "x": pa.array(np.tile(x, 9)),
            "y": pa.array(np.tile(y, 9)),
            "home": pa.array(home),
        })

    def resolve(g: pd.DataFrame) -> pd.DataFrame:
        # ONE vectorized merge over this partition's cells.  The LEFT
        # side carries only HOME rows: the canonical rule emits a pair
        # (a < b) solely where a is home, so home x replicated is the
        # complete candidate set -- a 9x smaller intermediate than the
        # naive all x all self-merge (each cell holds ~9x replicas).
        cols = ["ck", id_col, "x", "y"]
        left = g.loc[g["home"].to_numpy(bool), cols]
        j = left.merge(g[cols], on="ck", suffixes=("_a", "_b"))
        a_id = j[f"{id_col}_a"].to_numpy(np.int64)
        b_id = j[f"{id_col}_b"].to_numpy(np.int64)
        dx = j["x_a"].to_numpy() - j["x_b"].to_numpy()
        dy = j["y_a"].to_numpy() - j["y_b"].to_numpy()
        d2 = dx * dx + dy * dy
        keep = (a_id < b_id) & (d2 <= r2)
        return pd.DataFrame({
            "id_a": a_id[keep],
            "id_b": b_id[keep],
            "d2": d2[keep],
        })

    rep = ds.map_batches(replicate, batch_format="pyarrow")
    return cogroup(rep, ["ck"], resolve, n_partitions=32)


def rect_overlap_join(ds, *, id_col: str = "id", x0_col: str = "x0",
                      x1_col: str = "x1", y0_col: str = "y0",
                      y1_col: str = "y1", cell_shift: int = 8):
    """All distinct pairs (id_a < id_b) of rectangles with POSITIVE
    intersection area (touching edges don't count) — scene-footprint
    overlap detection, the 2-D interval join (the reference's
    get_overlapping_tiles is the one-rect-vs-grid special case).

    PBSM shape: each rect replicates to every ``2^cell_shift``-sized
    grid cell its bbox touches ((id, bbox) metadata only — a rect
    spanning k cells costs k 40-byte rows); one vectorized self-merge
    per cell-hash partition; a pair is emitted EXACTLY ONCE via the
    reference-point rule (only the cell containing the intersection's
    min corner reports it).  Output (id_a, id_b, ov_area), exact
    integers.  SQL oracle: the plain O(n^2) inequality join."""
    s = cell_shift

    def replicate(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        x0 = batch.column(x0_col).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        x1 = batch.column(x1_col).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        y0 = batch.column(y0_col).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        y1 = batch.column(y1_col).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        cx0, cx1 = x0 >> s, x1 >> s
        cy0, cy1 = y0 >> s, y1 >> s
        ncx = cx1 - cx0 + 1
        ncy = cy1 - cy0 + 1
        reps = ncx * ncy
        ridx = np.repeat(np.arange(len(ids), dtype=np.int64), reps)
        starts = np.zeros(len(ids) + 1, np.int64)
        np.cumsum(reps, out=starts[1:])
        local = np.arange(starts[-1], dtype=np.int64) \
            - np.repeat(starts[:-1], reps)
        cx = cx0[ridx] + local // ncy[ridx]
        cy = cy0[ridx] + local % ncy[ridx]
        return pa.table({
            "id": pa.array(ids[ridx], pa.int64()),
            "x0": pa.array(x0[ridx], pa.int64()),
            "x1": pa.array(x1[ridx], pa.int64()),
            "y0": pa.array(y0[ridx], pa.int64()),
            "y1": pa.array(y1[ridx], pa.int64()),
            "cx": pa.array(cx, pa.int64()),
            "cy": pa.array(cy, pa.int64()),
        })

    def resolve(g: pd.DataFrame) -> pd.DataFrame:
        m = g.merge(g, on=["cx", "cy"], suffixes=("_a", "_b"))
        m = m[m.id_a < m.id_b]
        if m.empty:
            return pd.DataFrame({
                "id_a": pd.Series([], dtype=np.int64),
                "id_b": pd.Series([], dtype=np.int64),
                "ov_area": pd.Series([], dtype=np.int64)})
        ox = (np.minimum(m.x1_a, m.x1_b)
              - np.maximum(m.x0_a, m.x0_b)).to_numpy()
        oy = (np.minimum(m.y1_a, m.y1_b)
              - np.maximum(m.y0_a, m.y0_b)).to_numpy()
        # reference point: the intersection's min corner must lie in
        # THIS cell (dedupes across replicas exactly once)
        ix = np.maximum(m.x0_a, m.x0_b).to_numpy() >> s
        iy = np.maximum(m.y0_a, m.y0_b).to_numpy() >> s
        keep = (ox > 0) & (oy > 0) & (ix == m.cx.to_numpy()) \
            & (iy == m.cy.to_numpy())
        m = m[keep]
        return pd.DataFrame({
            "id_a": m.id_a.to_numpy(),
            "id_b": m.id_b.to_numpy(),
            "ov_area": (ox * oy)[keep],
        })

    return cogroup(ds.map_batches(replicate, batch_format="pyarrow"),
                   ["cx", "cy"], resolve, n_partitions=32)


def snap_to_segments(ds, segments: np.ndarray, *, x_col: str = "x",
                     y_col: str = "y", q: int = 1024,
                     close_d2q: int | None = None):
    """Snap every point to its nearest NETWORK SEGMENT (map-matching's
    inner kernel / nearest-road assignment), exactly in integers.

    ``segments``: (K, 4) int64 ``[ax, ay, bx, by]`` rows, the SMALL
    broadcast side.  Point-to-segment squared distance is the clamped
    projection: with ``L = |B-A|^2`` and ``dot = (P-A).(B-A)``,

        dot <= 0  ->  d2q = |P-A|^2 * q
        dot >= L  ->  d2q = |P-B|^2 * q
        else      ->  d2q = ((|P-A|^2 * L - dot^2) * q) // L

    -- the interior case is the exact rational distance scaled by q
    and floored, so engine and SQL share one deterministic quantized
    rule (the winner is argmin (d2q, seg_id); q controls tie
    granularity, not correctness of the top-1 for separations above
    1/q).  Coordinate bound: |coord| < ~1500 keeps the worst term
    |P-A|^2 * L * q under int64.

    Shape: K vectorized passes per batch (segments broadcast), then a
    bounded per-segment keyed aggregate: ``seg_id, n_points, n_close,
    min_d2q``.  No shuffle of points."""
    from equi7grid_ray.stages.aggregate import hash_aggregate

    seg = np.asarray(segments, np.int64)
    if close_d2q is None:
        close_d2q = 100 * q

    def snap(batch: pa.Table) -> pa.Table:
        px = batch.column(x_col).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        py = batch.column(y_col).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        best = np.full(len(px), np.iinfo(np.int64).max, np.int64)
        best_id = np.zeros(len(px), np.int64)
        for s in range(len(seg)):
            ax, ay, bx, by = (int(v) for v in seg[s])
            ux, uy = bx - ax, by - ay
            L = ux * ux + uy * uy
            dx, dy = px - ax, py - ay
            dot = dx * ux + dy * uy
            pa2 = dx * dx + dy * dy
            ex, ey = px - bx, py - by
            pb2 = ex * ex + ey * ey
            inner = ((pa2 * L - dot * dot) * q) // L
            d2q = np.where(dot <= 0, pa2 * q,
                           np.where(dot >= L, pb2 * q, inner))
            win = d2q < best
            best = np.where(win, d2q, best)
            best_id = np.where(win, s, best_id)
        return pa.table({
            "seg_id": pa.array(best_id, pa.int64()),
            "d2q": pa.array(best, pa.int64()),
            "close": pa.array((best <= close_d2q).astype(np.int64),
                              pa.int64()),
        })

    return hash_aggregate(
        ds.map_batches(snap, batch_format="pyarrow"),
        keys=["seg_id"],
        aggs={"n_points": ("d2q", "count"), "n_close": ("close", "sum"),
              "min_d2q": ("d2q", "min")},
        n_partitions=4,
    )
