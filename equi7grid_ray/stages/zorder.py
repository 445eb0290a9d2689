"""Z-order (Morton) spatial locality keys and range pruning.

The reference enumerates tiles row-major per continent (pytileproj TMS
sweep, reference core.py:230-261); at 100 TB the analogous need is a
LINEARIZED spatial sort key so that (a) `ds.sort(zkey)` co-locates
spatially adjacent rows into the same blocks / output files and (b) a
rectangle query prunes whole key RANGES (and therefore whole parquet
row groups via min/max statistics) instead of scanning everything.
Morton interleaving is the classic answer (Orenstein & Merrett 1984;
the same curve S2/geohash/Delta-Lake Z-ORDER use).

Everything here is closed-form integer bit math -- fully vectorized
numpy on uint64, no state, no shuffle -- so the SQL oracle mirrors it
exactly with bigint `&`/`|`/`<<` arithmetic.

Scale shape: `add_zorder_column` is a pure map stage; the intended
pattern downstream is ``ds.sort("zkey")`` (one range shuffle -- the
ONLY all-to-all, and it replaces what would otherwise be a per-query
scan forever after) followed by `write_parquet`; `zorder_ranges`
decomposes a query rectangle into at most ``4 * levels`` disjoint key
intervals that a reader pushes down as parquet row-group filters.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

__all__ = [
    "spread_bits16",
    "morton_key",
    "morton_decode",
    "hilbert_key",
    "add_zorder_column",
    "zorder_ranges",
    "filter_bbox_via_zorder",
    "write_zordered",
]

_M1 = np.uint64(0x00FF_00FF_00FF_00FF)
_M2 = np.uint64(0x0F0F_0F0F_0F0F_0F0F)
_M3 = np.uint64(0x3333_3333_3333_3333)
_M4 = np.uint64(0x5555_5555_5555_5555)


def spread_bits16(v: np.ndarray) -> np.ndarray:
    """Spread the low 16 bits of each uint64 so bit i lands at 2*i
    (the standard mask-shift ladder; SQL-mirrorable with 4 steps)."""
    v = v.astype(np.uint64) & np.uint64(0xFFFF)
    v = (v | (v << np.uint64(8))) & _M1
    v = (v | (v << np.uint64(4))) & _M2
    v = (v | (v << np.uint64(2))) & _M3
    v = (v | (v << np.uint64(1))) & _M4
    return v


def morton_key(cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
    """Interleave two 16-bit cell coordinates into a 32-bit Morton key
    (x in even bits, y in odd bits). Returns int64 (non-negative)."""
    k = spread_bits16(np.asarray(cx)) | (spread_bits16(np.asarray(cy))
                                         << np.uint64(1))
    return k.astype(np.int64)


def morton_decode(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`morton_key`."""
    k = np.asarray(key).astype(np.int64).view(np.uint64)

    def compact(v: np.ndarray) -> np.ndarray:
        v = v & _M4
        v = (v | (v >> np.uint64(1))) & _M3
        v = (v | (v >> np.uint64(2))) & _M2
        v = (v | (v >> np.uint64(4))) & _M1
        v = (v | (v >> np.uint64(8))) & np.uint64(0xFFFF)
        return v

    return (compact(k).astype(np.int64),
            compact(k >> np.uint64(1)).astype(np.int64))


def add_zorder_column(ds, *, x_col: str = "x", y_col: str = "y",
                      x_range: tuple[float, float], y_range: tuple[float, float],
                      bits: int = 16, out_col: str = "zkey"):
    """Append a Morton key column: coordinates are scaled to the
    ``2**bits`` cell grid over the given ranges (values at the upper
    edge clamp into the last cell). Pure map stage, zero shuffle."""
    if not 1 <= bits <= 16:
        raise ValueError("bits must be in [1, 16]")
    x0, x1 = float(x_range[0]), float(x_range[1])
    y0, y1 = float(y_range[0]), float(y_range[1])
    n = np.int64(1 << bits)

    def stage(batch: pa.Table) -> pa.Table:
        x = batch.column(x_col).to_numpy(zero_copy_only=False)
        y = batch.column(y_col).to_numpy(zero_copy_only=False)
        cx = np.clip(((x - x0) * int(n) / (x1 - x0)).astype(np.int64), 0, n - 1)
        cy = np.clip(((y - y0) * int(n) / (y1 - y0)).astype(np.int64), 0, n - 1)
        key = morton_key(cx, cy)
        return batch.append_column(out_col, pa.array(key, pa.int64()))

    return ds.map_batches(stage, batch_format="pyarrow")


def zorder_ranges(cx0: int, cy0: int, cx1: int, cy1: int,
                  *, bits: int = 16, max_ranges: int = 64) -> list[tuple[int, int]]:
    """Decompose the inclusive cell rectangle [cx0..cx1] x [cy0..cy1]
    into disjoint, sorted, inclusive Morton-key intervals.

    Quadtree descent: a node whose square is fully inside the rectangle
    contributes its whole contiguous key block; a partial overlap
    recurses; to bound the interval count, once ``max_ranges`` would be
    exceeded the remaining partial nodes contribute their (slightly
    over-covering) full blocks -- the caller must re-verify rows with
    the exact predicate, which :func:`filter_bbox_via_zorder` does.
    Adjacent intervals are merged before returning.
    """
    if cx1 < cx0 or cy1 < cy0:
        return []
    out: list[tuple[int, int]] = []
    # stack entries: (level, cell_x, cell_y) where the node spans
    # 2**(bits-level) cells per side
    stack = [(0, 0, 0)]
    while stack:
        lvl, nx, ny = stack.pop()
        side = 1 << (bits - lvl)
        x_lo, y_lo = nx * side, ny * side
        x_hi, y_hi = x_lo + side - 1, y_lo + side - 1
        if x_hi < cx0 or x_lo > cx1 or y_hi < cy0 or y_lo > cy1:
            continue
        key_lo = int(morton_key(np.array([x_lo]), np.array([y_lo]))[0])
        block = side * side
        full = (cx0 <= x_lo and x_hi <= cx1 and cy0 <= y_lo and y_hi <= cy1)
        if full or lvl == bits or len(out) + len(stack) >= max_ranges:
            out.append((key_lo, key_lo + block - 1))
            continue
        h = side // 2
        for dy in (1, 0):
            for dx in (1, 0):
                stack.append((lvl + 1, nx * 2 + dx, ny * 2 + dy))
    out.sort()
    merged: list[tuple[int, int]] = []
    for lo, hi in out:
        if merged and lo <= merged[-1][1] + 1:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def filter_bbox_via_zorder(ds, bbox: tuple[float, float, float, float], *,
                           x_col: str = "x", y_col: str = "y",
                           zkey_col: str = "zkey",
                           x_range: tuple[float, float],
                           y_range: tuple[float, float], bits: int = 16):
    """Exact bbox filter that prunes by Morton-key intervals FIRST
    (searchsorted against the broadcast range table -- the in-memory
    analogue of parquet row-group min/max pushdown on a zkey-sorted
    layout), then applies the exact coordinate predicate."""
    x0, x1 = float(x_range[0]), float(x_range[1])
    y0, y1 = float(y_range[0]), float(y_range[1])
    n = 1 << bits
    bx0, by0, bx1, by1 = (float(v) for v in bbox)

    def cell_of(v, lo, hi):
        return int(np.clip(int((v - lo) * n / (hi - lo)), 0, n - 1))

    ranges = zorder_ranges(cell_of(bx0, x0, x1), cell_of(by0, y0, y1),
                           cell_of(bx1, x0, x1), cell_of(by1, y0, y1),
                           bits=bits)
    los = np.array([r[0] for r in ranges], dtype=np.int64)
    his = np.array([r[1] for r in ranges], dtype=np.int64)

    def stage(batch: pa.Table) -> pa.Table:
        if len(los) == 0 or batch.num_rows == 0:
            return batch.slice(0, 0)
        k = batch.column(zkey_col).to_numpy(zero_copy_only=False)
        pos = np.searchsorted(los, k, side="right") - 1
        inr = (pos >= 0) & (k <= his[np.maximum(pos, 0)])
        x = batch.column(x_col).to_numpy(zero_copy_only=False)
        y = batch.column(y_col).to_numpy(zero_copy_only=False)
        keep = inr & (x >= bx0) & (x <= bx1) & (y >= by0) & (y <= by1)
        return batch.filter(pa.array(keep))

    return ds.map_batches(stage, batch_format="pyarrow")


def write_zordered(ds, path: str, *, x_col: str = "x", y_col: str = "y",
                   x_range: tuple[float, float],
                   y_range: tuple[float, float], bits: int = 16,
                   row_group_rows: int = 4096):
    """Write a spatially-clustered parquet layout: Morton keys added,
    ONE range shuffle (`ds.sort("zkey")` -- the only all-to-all, paid
    once at ingest), then parquet with small row groups so the key's
    min/max statistics prune rectangle queries forever after."""
    keyed = add_zorder_column(ds, x_col=x_col, y_col=y_col,
                              x_range=x_range, y_range=y_range, bits=bits)
    keyed.sort("zkey").write_parquet(path, row_group_size=row_group_rows)
    return path


def hilbert_key(cx: np.ndarray, cy: np.ndarray, bits: int = 13) -> np.ndarray:
    """Hilbert-curve distance of 2-D cell coordinates (the
    locality-tighter alternative to :func:`morton_key`: every curve
    step is grid-adjacent, so range scans touch contiguous cells --
    the layout S2/Uber-H3-flavored archives prefer for range-heavy
    reads).  The standard iterative xy->d walk (one rotate/reflect per
    level, MSB first), fully vectorized: ``bits`` numpy passes over the
    whole array, no per-row Python.  SQL mirror unrolls the same loop
    as chained CTEs (sqlgen.hilbert_hist_sql)."""
    x = np.asarray(cx).astype(np.int64).copy()
    y = np.asarray(cy).astype(np.int64).copy()
    n = np.int64(1 << bits)
    d = np.zeros_like(x)
    s = np.int64(1) << np.int64(bits - 1)
    while s > 0:
        rx = ((x & s) > 0).astype(np.int64)
        ry = ((y & s) > 0).astype(np.int64)
        d += s * s * ((3 * rx) ^ ry)
        # rotate/reflect the quadrant (classic rot(): only when ry == 0)
        flip = (ry == 0) & (rx == 1)
        x2 = np.where(flip, n - 1 - x, x)
        y2 = np.where(flip, n - 1 - y, y)
        swap = ry == 0
        x, y = np.where(swap, y2, x2), np.where(swap, x2, y2)
        s >>= np.int64(1)
    return d


def quadtree_leaves(ds, *, x_col: str = "x", y_col: str = "y",
                    bits: int = 20, max_depth: int = 4, cap: int = 500):
    """Adaptive quadtree binning: split the [0, 2^bits)^2 domain until
    every leaf holds <= ``cap`` points or ``max_depth`` is reached --
    the density-adaptive partitioning that gives skewed point data
    even-sized work units (cell_pyramid's fixed levels can't).

    Because a parent's count >= any child's, the leaf frontier is
    simply: depth-0 if the root fits, else every node whose PARENT
    exceeds ``cap`` and that itself fits (or sits at max_depth).  The
    engine aggregates ONE keyed histogram at max_depth (<= 4^max_depth
    rows -- bounded regardless of input size), rolls parents up and
    selects the frontier in a single fold; SQL mirrors with stacked
    GROUP BYs + parent joins.  Output: ``depth, qx, qy, n_points``."""
    import pandas as pd

    from equi7grid_ray.arrowutil import single_group
    from equi7grid_ray.stages.aggregate import hash_aggregate

    shift = bits - max_depth

    def leaf_cells(batch: pa.Table) -> pa.Table:
        x = batch.column(x_col).to_numpy(zero_copy_only=False) \
            .astype(np.int64) >> shift
        y = batch.column(y_col).to_numpy(zero_copy_only=False) \
            .astype(np.int64) >> shift
        return pa.table({"qx": pa.array(x, pa.int64()),
                         "qy": pa.array(y, pa.int64())})

    hist = hash_aggregate(
        ds.map_batches(leaf_cells, batch_format="pyarrow"),
        keys=["qx", "qy"], aggs={"n": ("qx", "count")},
        n_partitions=8)

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        lv = {max_depth: g.groupby(["qx", "qy"], as_index=False)["n"]
              .sum()}
        for d in range(max_depth - 1, -1, -1):
            c = lv[d + 1].copy()
            c["qx"] //= 2
            c["qy"] //= 2
            lv[d] = c.groupby(["qx", "qy"], as_index=False)["n"].sum()
        out = []
        root_n = int(lv[0]["n"].sum())
        if root_n <= cap:
            out.append((0, 0, 0, root_n))
        else:
            for d in range(1, max_depth + 1):
                c = lv[d]
                par = lv[d - 1].rename(columns={"n": "pn"})
                c = c.assign(px=c["qx"] // 2, py=c["qy"] // 2).merge(
                    par, left_on=["px", "py"], right_on=["qx", "qy"],
                    suffixes=("", "_p"))
                keep = (c["pn"] > cap) & ((c["n"] <= cap)
                                          | (d == max_depth))
                for r in c.loc[keep].itertuples():
                    out.append((d, int(r.qx), int(r.qy), int(r.n)))
        return pd.DataFrame(out, columns=["depth", "qx", "qy",
                                          "n_points"]) \
            .astype({"depth": np.int64, "qx": np.int64, "qy": np.int64,
                     "n_points": np.int64})

    return single_group(hist, fold, ["depth", "qx", "qy", "n_points"])
