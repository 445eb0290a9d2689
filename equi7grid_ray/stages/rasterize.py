"""Vector→raster: rasterize a polygon layer onto a point/cell grid.

The reference's geometry search (reference core get_tiles_in_geom /
_tile_in_zone PIP) answers "which TILES intersect this polygon"; the
raster-side sibling at archive scale is "which CELLS of the grid fall
INSIDE each polygon" — zonal masks, AOI clipping, label rasterization.

Exact-integer ray casting: for cell center (px, py) and directed edge
(x1,y1)→(x2,y2), the rightward ray crosses iff

    (y1 > py) != (y2 > py)                      -- spans the scanline
    and  t = (x2-x1)*(py-y1) - (px-x1)*(y2-y1)  -- cross-multiplied
         { t > 0  if y2 > y1,  t < 0 otherwise }   intersection test

(no division, no floats — the SQL oracle restates the identical
inequalities, so boundary cells agree bit-for-bit).  Odd crossing
parity = inside.

Ray-Data shape: the polygon layer is the SMALL side (a vector layer is
KBs–MBs) — broadcast once into every map_batches task; the cell grid
is the big side and streams.  Per batch each polygon does a vectorized
bbox prefilter then an O(edges) sweep of numpy comparisons over the
surviving cells, and only O(n_polys) partial rows leave the task; one
metadata-only hash_aggregate folds the partials.  Nothing all-to-all,
nothing materialized.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from equi7grid_ray.stages.aggregate import hash_aggregate

__all__ = ["point_in_polygon_mask", "rasterize_polygons",
           "rasterize_majority", "poly_stats", "poly_simplify",
           "poly_self_intersections"]


def rasterize_majority(cells, polys: pa.Table, *, px_col: str = "px",
                       py_col: str = "py", value_col: str = "v"):
    """Zonal MAJORITY (mode) — the categorical zonal statistic (land
    cover class per region): for each polygon, the most frequent cell
    value over its footprint, ties -> smallest value.  Same broadcast
    PIP as rasterize_polygons, but each batch emits (poly, value,
    count) partials (bounded by n_polys x distinct values), one keyed
    aggregate folds them, and a tiny per-poly resolve picks the mode.
    Output: poly_id, mode_v, mode_n, n_vals (distinct values seen)."""
    import pandas as pd
    import ray

    ids = polys.column("poly_id").to_pylist()
    vxs = [np.asarray(v, np.int64) for v in polys.column("vx").to_pylist()]
    vys = [np.asarray(v, np.int64) for v in polys.column("vy").to_pylist()]
    boxes = [(int(vx.min()), int(vx.max()), int(vy.min()), int(vy.max()))
             for vx, vy in zip(vxs, vys)]
    layer_ref = ray.put((ids, vxs, vys, boxes))

    def partials(batch: pa.Table) -> pa.Table:
        lids, lvx, lvy, lboxes = ray.get(layer_ref)
        px = batch.column(px_col).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        py = batch.column(py_col).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        val = batch.column(value_col).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        out_id, out_v, out_n = [], [], []
        for pid, vx, vy, (x0, x1, y0, y1) in zip(lids, lvx, lvy, lboxes):
            cand = np.flatnonzero((px >= x0) & (px <= x1)
                                  & (py >= y0) & (py <= y1))
            if len(cand) == 0:
                continue
            m = point_in_polygon_mask(px[cand], py[cand], vx, vy)
            if not m.any():
                continue
            u, cnt = np.unique(val[cand[m]], return_counts=True)
            out_id.extend([pid] * len(u))
            out_v.extend(u.tolist())
            out_n.extend(cnt.tolist())
        return pa.table({
            "poly_id": pa.array(out_id, pa.int64()),
            "v": pa.array(out_v, pa.int64()),
            "n": pa.array(out_n, pa.int64()),
        })

    counts = hash_aggregate(
        cells.map_batches(partials, batch_format="pyarrow"),
        keys=["poly_id", "v"], aggs={"n": ("n", "sum")},
        n_partitions=8)

    def mode(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["n", "v"], ascending=[False, True],
                          kind="stable")
        top = g.iloc[0]
        return pd.DataFrame({
            "poly_id": [top.poly_id], "mode_v": [top.v],
            "mode_n": [top.n], "n_vals": [len(g)],
        })

    return counts.groupby("poly_id").map_groups(mode,
                                                batch_format="pandas")


def poly_stats(ds, *, id_col: str = "poly_id", x_col: str = "vx",
               y_col: str = "vy"):
    """Vector-layer geometry statistics, one row per ring, computed as
    a single vectorized pass over the Arrow list columns (offsets +
    flat values — zero per-ring Python).  All outputs are the exact
    integer shoelace forms (signed; denominators cleared):

        area2   = sum x_i*y_{i+1} - x_{i+1}*y_i        (= 2*A)
        edge_sq = sum (x_{i+1}-x_i)^2 + (y_{i+1}-y_i)^2
        cx6a    = sum (x_i+x_{i+1}) * (x_i*y_{i+1} - x_{i+1}*y_i)
        cy6a    = sum (y_i+y_{i+1}) * (x_i*y_{i+1} - x_{i+1}*y_i)
        (centroid = (cx6a, cy6a) / (3 * area2), left rational)
        min/max x/y                                     (bbox)

    Self-intersecting rings are fine — the outputs are DEFINED as
    these formulas (signed area semantics), which is also what the SQL
    mirror computes.  Map-only: no shuffle, scales with the layer."""

    def stats(batch: pa.Table) -> pa.Table:
        xs = batch.column(x_col).combine_chunks()
        ys = batch.column(y_col).combine_chunks()
        if isinstance(xs, pa.ChunkedArray):
            xs, ys = xs.chunk(0), ys.chunk(0)
        offs = xs.offsets.to_numpy().astype(np.int64)
        # rebase: a sliced ListArray's values buffer can extend past the
        # last ring; trim so reduceat's implicit final segment ends there
        x = xs.values.to_numpy().astype(np.int64)[offs[0]:offs[-1]]
        y = ys.values.to_numpy().astype(np.int64)[offs[0]:offs[-1]]
        offs = offs - offs[0]
        first, last = offs[:-1], offs[1:] - 1
        nv = offs[1:] - offs[:-1]
        nxt = np.arange(1, len(x) + 1, dtype=np.int64)
        nxt[last] = first
        xn, yn = x[nxt], y[nxt]
        cr = x * yn - xn * y
        area2 = np.add.reduceat(cr, first)
        edge = np.add.reduceat((xn - x) ** 2 + (yn - y) ** 2, first)
        cx6a = np.add.reduceat((x + xn) * cr, first)
        cy6a = np.add.reduceat((y + yn) * cr, first)
        min_x = np.minimum.reduceat(x, first)
        max_x = np.maximum.reduceat(x, first)
        min_y = np.minimum.reduceat(y, first)
        max_y = np.maximum.reduceat(y, first)
        cols = {"nv": nv, "area2": area2, "edge_sq": edge,
                "cx6a": cx6a, "cy6a": cy6a, "min_x": min_x,
                "max_x": max_x, "min_y": min_y, "max_y": max_y}
        return pa.table(
            {id_col: batch.column(id_col),
             **{k: pa.array(v.astype(np.int64), pa.int64())
                for k, v in cols.items()}})

    return ds.map_batches(stats, batch_format="pyarrow")


def point_in_polygon_mask(px: np.ndarray, py: np.ndarray,
                          vx: np.ndarray, vy: np.ndarray) -> np.ndarray:
    """Exact-integer ray-casting PIP: boolean mask of the points
    (px, py) strictly-parity-inside the closed polygon (vx, vy).
    Vertices and points must be integral (int64)."""
    px = px.astype(np.int64)
    py = py.astype(np.int64)
    inside = np.zeros(len(px), dtype=bool)
    nv = len(vx)
    for e in range(nv):
        x1, y1 = int(vx[e]), int(vy[e])
        x2, y2 = int(vx[(e + 1) % nv]), int(vy[(e + 1) % nv])
        if y1 == y2:
            continue
        spans = (y1 > py) != (y2 > py)
        t = (x2 - x1) * (py - y1) - (px - x1) * (y2 - y1)
        crosses = spans & ((t > 0) if y2 > y1 else (t < 0))
        inside ^= crosses
    return inside


def rasterize_polygons(cells, polys: pa.Table, *, px_col: str = "px",
                       py_col: str = "py", value_col: str | None = None):
    """Rasterize the (small, broadcast) polygon table onto the
    streaming cell grid.

    ``polys``: columns ``poly_id:int64, vx:list<int64>, vy:list<int64>``
    (closed rings, implicit last→first edge).  Returns one row per
    polygon that covers at least one cell:

        poly_id, n_cells, sum_px, sum_py [, sum_v, max_v]

    (the exact centroid numerators of the covered-cell set; with
    ``value_col`` the op is ZONAL STATISTICS — sum and max of the cell
    value over each polygon's footprint).  Cells on multiple polygons
    count once per polygon."""
    import ray

    ids = polys.column("poly_id").to_pylist()
    vxs = [np.asarray(v, np.int64) for v in polys.column("vx").to_pylist()]
    vys = [np.asarray(v, np.int64) for v in polys.column("vy").to_pylist()]
    boxes = [(int(vx.min()), int(vx.max()), int(vy.min()), int(vy.max()))
             for vx, vy in zip(vxs, vys)]
    layer_ref = ray.put((ids, vxs, vys, boxes))

    def partials(batch: pa.Table) -> pa.Table:
        lids, lvx, lvy, lboxes = ray.get(layer_ref)
        px = batch.column(px_col).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        py = batch.column(py_col).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        val = (batch.column(value_col).to_numpy(zero_copy_only=False)
               .astype(np.int64) if value_col else None)
        out_id, out_n, out_sx, out_sy = [], [], [], []
        out_sv, out_mv = [], []
        for pid, vx, vy, (x0, x1, y0, y1) in zip(lids, lvx, lvy, lboxes):
            cand = np.flatnonzero((px >= x0) & (px <= x1)
                                  & (py >= y0) & (py <= y1))
            if len(cand) == 0:
                continue
            m = point_in_polygon_mask(px[cand], py[cand], vx, vy)
            if not m.any():
                continue
            hit = cand[m]
            out_id.append(pid)
            out_n.append(len(hit))
            out_sx.append(int(px[hit].sum()))
            out_sy.append(int(py[hit].sum()))
            if val is not None:
                out_sv.append(int(val[hit].sum()))
                out_mv.append(int(val[hit].max()))
        cols = {
            "poly_id": pa.array(out_id, pa.int64()),
            "n_cells": pa.array(out_n, pa.int64()),
            "sum_px": pa.array(out_sx, pa.int64()),
            "sum_py": pa.array(out_sy, pa.int64()),
        }
        if val is not None:
            cols["sum_v"] = pa.array(out_sv, pa.int64())
            cols["max_v"] = pa.array(out_mv, pa.int64())
        return pa.table(cols)

    part = cells.map_batches(partials, batch_format="pyarrow")
    aggs = {"n_cells": ("n_cells", "sum"), "sum_px": ("sum_px", "sum"),
            "sum_py": ("sum_py", "sum")}
    if value_col:
        aggs["sum_v"] = ("sum_v", "sum")
        aggs["max_v"] = ("max_v", "max")
    return hash_aggregate(part, keys=["poly_id"], aggs=aggs,
                          n_partitions=8)


def poly_simplify(ds, *, tol2: int, id_col: str = "poly_id",
                  x_col: str = "vx", y_col: str = "vy"):
    """Radial-distance polyline simplification (the cheap GIS
    pre-filter before Douglas-Peucker): vertex 0 is always kept; each
    later vertex is kept iff its SQUARED distance from the last KEPT
    vertex exceeds ``tol2`` (exact integers, no sqrt).  Emits one row
    per ring: (id, nv, n_kept, kept_cksum) with kept_cksum =
    sum(x + 7*y) over kept vertices, pinning the kept SET, not just
    its size.

    The keep rule is a sequential recurrence along each ring, but
    rings are short and independent: the scan runs as max(nv)
    VECTORIZED steps across ALL rings in the batch (each step one
    masked gather/update over the ring axis) -- no per-ring Python.
    Map-only, no shuffle.  The SQL mirror walks the same recurrence as
    a recursive CTE."""

    def fn(batch: pa.Table) -> pa.Table:
        xs = batch.column(x_col).combine_chunks()
        ys = batch.column(y_col).combine_chunks()
        if isinstance(xs, pa.ChunkedArray):
            xs, ys = xs.chunk(0), ys.chunk(0)
        offs = xs.offsets.to_numpy().astype(np.int64)
        x = xs.values.to_numpy().astype(np.int64)
        y = ys.values.to_numpy().astype(np.int64)
        starts = offs[:-1]
        nv = np.diff(offs)
        n = len(nv)
        lx = x[starts].copy()
        ly = y[starts].copy()
        kept = np.ones(n, np.int64)
        cks = lx + 7 * ly
        for p in range(1, int(nv.max()) if n else 0):
            valid = np.flatnonzero(nv > p)
            idx = starts[valid] + p
            xi, yi = x[idx], y[idx]
            d2 = (xi - lx[valid]) ** 2 + (yi - ly[valid]) ** 2
            sel = valid[d2 > tol2]
            xi, yi = xi[d2 > tol2], yi[d2 > tol2]
            lx[sel], ly[sel] = xi, yi
            kept[sel] += 1
            cks[sel] += xi + 7 * yi
        return pa.table({
            id_col: batch.column(id_col),
            "nv": pa.array(nv, pa.int64()),
            "n_kept": pa.array(kept, pa.int64()),
            "kept_cksum": pa.array(cks, pa.int64()),
        })

    return ds.map_batches(fn, batch_format="pyarrow")


def poly_self_intersections(ds, *, id_col: str = "poly_id",
                            x_col: str = "vx", y_col: str = "vy"):
    """Ring validity audit: per ring, the number of PROPERLY-crossing
    non-adjacent segment pairs (OGC simple-feature validity's main
    clause; 0 = simple).  The predicate is the exact-integer two-sided
    orientation test -- cross products of cleared ccw determinants --
    so it stays hash-oracle-able: segments (p1p2, p3p4) properly cross
    iff ccw(p1,p2,p3)*ccw(p1,p2,p4) < 0 AND ccw(p3,p4,p1)*ccw(p3,p4,p2)
    < 0 (touching / collinear overlap does NOT count).  Coordinates
    must satisfy |coord| < 2^14 so the ccw product fits int64.

    Vectorization: segment pairs enumerate per OFFSET d (pair (k, k+d),
    d = 2 .. max_nv-1) -- max(nv) vectorized rounds over the flat
    vertex buffer, the poly_simplify pattern; the wrap-adjacent pair
    (0, nv-1) is masked.  Map-only, one output row per ring."""

    def stats(batch: pa.Table) -> pa.Table:
        xs = batch.column(x_col).combine_chunks()
        ys = batch.column(y_col).combine_chunks()
        if isinstance(xs, pa.ChunkedArray):
            xs, ys = xs.chunk(0), ys.chunk(0)
        offs = xs.offsets.to_numpy().astype(np.int64)
        x = xs.values.to_numpy().astype(np.int64)[offs[0]:offs[-1]]
        y = ys.values.to_numpy().astype(np.int64)[offs[0]:offs[-1]]
        offs = offs - offs[0]
        first, last = offs[:-1], offs[1:] - 1
        nv = offs[1:] - offs[:-1]
        nxt = np.arange(1, len(x) + 1, dtype=np.int64)
        nxt[last] = first
        x2, y2 = x[nxt], y[nxt]          # segment k: (x,y)[k] -> (x2,y2)[k]
        i = np.arange(len(x), dtype=np.int64) - np.repeat(first, nv)
        s_rep = np.repeat(nv, nv)
        ring = np.repeat(np.arange(len(nv), dtype=np.int64), nv)
        n_cross = np.zeros(len(nv), np.int64)

        def ccw(ax, ay, bx, by, cx, cy):
            return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)

        for d in range(2, int(nv.max()) if len(nv) else 2):
            valid = (i + d < s_rep) & ~((i == 0) & (d == s_rep - 1))
            a = np.flatnonzero(valid)
            if not len(a):
                continue
            b = a + d
            d1 = ccw(x[a], y[a], x2[a], y2[a], x[b], y[b])
            d2 = ccw(x[a], y[a], x2[a], y2[a], x2[b], y2[b])
            d3 = ccw(x[b], y[b], x2[b], y2[b], x[a], y[a])
            d4 = ccw(x[b], y[b], x2[b], y2[b], x2[a], y2[a])
            hit = (d1 * d2 < 0) & (d3 * d4 < 0)
            if hit.any():
                n_cross += np.bincount(ring[a][hit], minlength=len(nv))
        return pa.table({
            id_col: batch.column(id_col),
            "nv": pa.array(nv, pa.int64()),
            "n_cross": pa.array(n_cross, pa.int64()),
        })

    return ds.map_batches(stats, batch_format="pyarrow")
