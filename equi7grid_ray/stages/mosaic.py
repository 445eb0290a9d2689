"""Tile mosaic compositing: many overlapping scenes -> one composite
raster grid per Equi7 tile.

This is the step downstream of the reference's tiled fan-out
(reference warp.py resample_to_equi7_tiles produces one file per
(scene, tile); a mosaic folds the per-tile stack into a single
composite).  The Ray-Data shape:

    images -> TileAssigner (tile per scene center)
           -> MosaicGrid   (decode + G x G block-mean grid + PER-BATCH
                            tile partials: the combiner-before-shuffle)
           -> hash_aggregate(tile, gr, gc)  (max / sum / scene count)

Only G*G*|tiles-per-batch| partial rows ever shuffle -- pixels never
leave the decode stage, so the exchange volume is independent of image
resolution.  All arithmetic is exact integers (block mean = block_sum
// block_px), so the composite is SQL-mirrorable through the synthetic
pixel formula joined to the pinned image->tile lookup golden
(tools/gen_oracle_lookups.py).

The stencil operators over the composite (focal mean, gradient /
aspect, D8 flow / accumulation / basins, TRI) share one cross-tile
halo exchange, :func:`_halo_exchange` (scatter -> hash_aggregate ->
cogroup join), and one neighbour-key wrap, :func:`_neighbour_keys`;
cells are placed on the tile lattice by ``grid.tile_lattice``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from equi7grid_ray.grid import lattice_key, tile_lattice
from equi7grid_ray.stages.aggregate import hash_aggregate
from equi7grid_ray.stages.multimodal import frames

__all__ = ["MosaicGrid", "tile_mosaic", "tile_focal_mean",
           "tile_similarity", "MaskedMosaicGrid", "tile_clear_composite",
           "tile_gradient", "tile_flow_d8", "tile_flow_accum",
           "tile_basins", "tile_tri", "tile_aspect"]


class MosaicGrid:
    """Actor-pool stage: per image, a G x G block-MEAN grid in exact
    integers, folded within the batch into per-(tile, cell) composite
    partials (v_max / v_sum / n_img).  Emits at most
    ``G * G * tiles_in_batch`` rows per batch."""

    def __init__(self, grid: int = 8, id_col: str = "image_id"):
        self.g = grid
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        tiles = batch.column("tile").to_pylist()
        G = self.g
        acc: dict[str, list] = {}
        for j, img in frames(batch):
            sr, sc = img.shape[0] // G, img.shape[1] // G
            if sr == 0 or sc == 0:
                continue
            m = img[: sr * G, : sc * G].reshape(G, sr, G, sc) \
                .sum(axis=(1, 3), dtype=np.int64) // (sr * sc)
            a = acc.get(tiles[j])
            if a is None:
                acc[tiles[j]] = [m.copy(), m.astype(np.int64), 1]
            else:
                np.maximum(a[0], m, out=a[0])
                a[1] += m
                a[2] += 1
        n_tiles = len(acc)
        cells = G * G
        tile_col = []
        vmax = np.empty(n_tiles * cells, np.int64)
        vsum = np.empty(n_tiles * cells, np.int64)
        nimg = np.empty(n_tiles * cells, np.int64)
        gr, gc = np.divmod(np.tile(np.arange(cells, dtype=np.int32), n_tiles), G)
        for k, (t, (mx, sm, n)) in enumerate(acc.items()):
            tile_col.extend([t] * cells)
            vmax[k * cells : (k + 1) * cells] = mx.reshape(-1)
            vsum[k * cells : (k + 1) * cells] = sm.reshape(-1)
            nimg[k * cells : (k + 1) * cells] = n
        return pa.table({
            "tile": pa.array(tile_col, pa.string()),
            "gr": pa.array(gr.astype(np.int32), pa.int32()),
            "gc": pa.array(gc.astype(np.int32), pa.int32()),
            "v_max": pa.array(vmax, pa.int64()),
            "v_sum": pa.array(vsum, pa.int64()),
            "n_img": pa.array(nimg, pa.int64()),
        })


def tile_mosaic(ds, *, grid: int = 8):
    """images-with-tile Dataset -> per-(tile, cell) composite: the
    elementwise MAX composite, the SUM (mean numerator), and the scene
    count.  ``ds`` must carry (tile, bytes, w, h, fmt) -- i.e. the
    output of pipelines.flagship.tile_assignments with the payload
    columns passed through."""
    grids = ds.map_batches(
        MosaicGrid,
        fn_constructor_kwargs=dict(grid=grid),
        batch_format="pyarrow",
        concurrency=(1, 4),
        num_cpus=1,
    )
    return hash_aggregate(
        grids,
        keys=["tile", "gr", "gc"],
        aggs={
            "v_max": ("v_max", "max"),
            "v_sum": ("v_sum", "sum"),
            "n_img": ("n_img", "sum"),
        },
        n_partitions=32,
    )


def _cell_coords(b: pa.Table):
    """(continent index, easting, signed northing, gr, gc) int64 arrays
    of a composite batch: the tile's lattice point plus the cell."""
    cidx, te, tn = tile_lattice(b.column("tile").to_numpy(zero_copy_only=False))
    gr = b.column("gr").to_numpy(zero_copy_only=False).astype(np.int64)
    gc = b.column("gc").to_numpy(zero_copy_only=False).astype(np.int64)
    return cidx, te, tn, gr, gc


def _packed_keys(cidx, te, tn, gr, gc, grid=8):
    """int64 key of a composite cell: its tile's lattice key, then the
    cell (gr, gc) of the ``grid`` x ``grid`` block grid."""
    return lattice_key(cidx, te, tn) * grid * grid + gr * grid + gc


def _neighbour_keys(cidx, te, tn, gr, gc, dr, dc, grid):
    """Packed key of the cell at offset (dr, dc) from (gr, gc): a cell
    beyond a tile edge wraps into the +/-6 easting / northing neighbour
    tile of the SAME continent (gr is south-positive; Equi7 zones are
    disjoint projections, so there is no cross-continent adjacency)."""
    tr, tc = gr + dr, gc + dc
    sn = tn + np.where(tr < 0, 6, 0) - np.where(tr >= grid, 6, 0)
    se = te + np.where(tc < 0, -6, 0) + np.where(tc >= grid, 6, 0)
    return _packed_keys(cidx, se, sn, tr % grid, tc % grid, grid)


def _halo_exchange(mosaic, *, value: str, grid: int, offsets, contrib):
    """The cross-tile halo exchange every stencil operator runs: join
    each composite cell with per-column SUMS over its neighbours at
    ``offsets`` ((dr, dc) pairs).  ``contrib(k, v)`` maps the values
    ``v`` of the cells that are some center's neighbour at
    ``offsets[k]`` to {column: int64 array}.

    Shape: the bounded composite (|tiles| * grid^2 rows) materializes
    once; each cell SCATTERS its contributions to the centers it
    neighbours as packed int64 keys (metadata only, no pixel moves),
    one hash_aggregate sums them, and one partition-cogroup join puts
    the sums back onto the existing centers (phantom centers drop).
    Returns a Dataset of (fkey, tile, gr, gc, v, <contrib columns>)."""
    from equi7grid_ray.stages.join import shuffle_hash_join

    mosaic = mosaic.materialize()  # bounded: |tiles| * grid^2
    cols = list(contrib(0, np.zeros(0, np.int64)))  # contribution names

    def scatter(b: pa.Table) -> pa.Table:
        cidx, te, tn, gr, gc = _cell_coords(b)
        v = b.column(value).to_numpy(zero_copy_only=False).astype(np.int64)
        parts = [contrib(k, v) for k in range(len(offsets))]
        keys = [_neighbour_keys(cidx, te, tn, gr, gc, -dr, -dc, grid)
                for dr, dc in offsets]
        out = {"fkey": pa.array(np.concatenate(keys), pa.int64())}
        for c in cols:
            out[c + "_"] = pa.array(
                np.concatenate([p[c] for p in parts]), pa.int64())
        return pa.table(out)

    sums = hash_aggregate(
        mosaic.map_batches(scatter, batch_format="pyarrow"),
        keys=["fkey"], aggs={c: (c + "_", "sum") for c in cols},
        n_partitions=32,
    )

    def centers(b: pa.Table) -> pa.Table:
        return pa.table({
            "fkey": pa.array(_packed_keys(*_cell_coords(b), grid), pa.int64()),
            "tile": b.column("tile"),
            "gr": b.column("gr"),
            "gc": b.column("gc"),
            "v": b.column(value).cast(pa.int64()),
        })

    return shuffle_hash_join(
        mosaic.map_batches(centers, batch_format="pyarrow"), sums,
        on="fkey", n_partitions=32,
        # static hint: sums is an aggregate output -- schema() on it
        # would run the whole scatter+fold once during plan build
        right_schema=pa.schema([("fkey", pa.int64())]
                               + [(c, pa.int64()) for c in cols]))


def tile_focal_mean(mosaic, *, value: str = "v_max", grid: int = 8):
    """3x3 focal (moving-window) mean over the tile-mosaic composite,
    ACROSS tile boundaries -- the distributed stencil / halo-exchange
    step of map-algebra toolchains.  Edge cells read the adjacent cells
    of the neighbour tiles (:func:`_neighbour_keys`).  Windows keep
    whatever neighbours exist: focal = sum // count over present cells
    (exact integers).  Shape: one :func:`_halo_exchange` over the 9
    window offsets, then a map-only finish."""
    offsets = [(dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1)]
    joined = _halo_exchange(
        mosaic, value=value, grid=grid, offsets=offsets,
        contrib=lambda k, v: {"wsum": v, "wn": np.ones_like(v)})

    def finish(b: pa.Table) -> pa.Table:
        ws = b.column("wsum").to_numpy(zero_copy_only=False)
        wn = b.column("wn").to_numpy(zero_copy_only=False)
        return pa.table({
            "tile": b.column("tile"),
            "gr": b.column("gr"),
            "gc": b.column("gc"),
            "focal": pa.array(ws // wn, pa.int64()),
            "wn": pa.array(wn.astype(np.int64), pa.int64()),
        })

    return joined.map_batches(finish, batch_format="pyarrow")


def tile_similarity(mosaic, *, max_d2: int, grid: int = 8,
                    value: str = "v_max", batch_tiles: int = 256):
    """Content-based tile retrieval: all pairs of SAME-CONTINENT tiles
    whose composite grids sit within squared-L2 distance ``max_d2`` —
    "find tiles that look like this one" over the archive's composite
    layer (duplicate-coverage detection, mosaic seam diagnosis).

    The composite is bounded (|tiles| * grid^2 rows — ~1.7M rows for
    the full planet at T6), so it broadcasts ONCE via ray.put as a
    dense int64 matrix; tile row-chunks then stream against it with
    one (chunk x |tiles|) matmul per batch (the ANN brute-force
    shape), emitting only qualifying (tile_a < tile_b, d2) pairs.
    Missing cells are 0-filled (scene grids always cover the full
    G x G here; the fill rule is part of the contract the SQL mirror
    restates)."""
    import ray
    import ray.data as rd

    from equi7grid_ray.arrowutil import collect_tables

    cells = grid * grid
    t = collect_tables(
        mosaic.map_batches(
            lambda b: b.select(["tile", "gr", "gc", value]),
            batch_format="pyarrow"),
        schema=None)
    tiles, tinv = np.unique(
        np.asarray(t.column("tile").to_pylist()), return_inverse=True)
    m = np.zeros((len(tiles), cells), np.int64)
    gr = t.column("gr").to_numpy(zero_copy_only=False).astype(np.int64)
    gc = t.column("gc").to_numpy(zero_copy_only=False).astype(np.int64)
    v = t.column(value).to_numpy(zero_copy_only=False).astype(np.int64)
    m[tinv, gr * grid + gc] = v
    ccode = tile_lattice(tiles)[0]
    mat_ref = ray.put((tiles, m, ccode))

    def pairs(batch: pa.Table) -> pa.Table:
        ltiles, lm, lcc = ray.get(mat_ref)
        idx = batch.column("id").to_numpy().astype(np.int64)
        idx = idx[idx < len(ltiles)]
        if len(idx) == 0:
            return pa.table({"tile_a": pa.array([], pa.string()),
                             "tile_b": pa.array([], pa.string()),
                             "d2": pa.array([], pa.int64())})
        a = lm[idx]
        sq = (lm * lm).sum(1)
        d2 = sq[idx][:, None] + sq[None, :] - 2 * (a @ lm.T)
        jj = np.arange(len(ltiles))
        mask = (d2 <= max_d2) & (idx[:, None] < jj[None, :]) \
            & (lcc[idx][:, None] == lcc[None, :])
        ai, bj = np.nonzero(mask)
        return pa.table({
            "tile_a": pa.array(ltiles[idx[ai]], pa.string()),
            "tile_b": pa.array(ltiles[bj], pa.string()),
            "d2": pa.array(d2[ai, bj], pa.int64()),
        })

    n_chunks = -(-len(tiles) // batch_tiles)
    return rd.range(n_chunks * batch_tiles).map_batches(
        pairs, batch_format="pyarrow", batch_size=batch_tiles)


class MaskedMosaicGrid(MosaicGrid):
    """Cloud-masked variant of :class:`MosaicGrid`: a (scene, cell)
    observation whose block mean >= ``cloud_t`` is treated as cloudy
    (the bright-pixel screen optical EO compositors run before
    best-pixel selection); per (tile, cell) the batch emits

        n_img   -- total observations
        n_clear -- observations below the threshold
        max_clear -- MAX over clear observations (-1 sentinel when the
                     cell has no clear view in this batch; -1 is the
                     partial's identity under max and survives to the
                     final composite only for never-clear cells)

    Same exchange bound as the parent: G*G*|tiles-in-batch| rows."""

    def __init__(self, grid: int = 8, cloud_t: int = 200,
                 id_col: str = "image_id"):
        super().__init__(grid=grid, id_col=id_col)
        self.cloud_t = cloud_t

    def __call__(self, batch: pa.Table) -> pa.Table:
        tiles = batch.column("tile").to_pylist()
        G, T = self.g, self.cloud_t
        acc: dict[str, list] = {}
        for j, img in frames(batch):
            sr, sc = img.shape[0] // G, img.shape[1] // G
            if sr == 0 or sc == 0:
                continue
            m = img[: sr * G, : sc * G].reshape(G, sr, G, sc) \
                .sum(axis=(1, 3), dtype=np.int64) // (sr * sc)
            clear = m < T
            mc = np.where(clear, m, -1)
            a = acc.get(tiles[j])
            if a is None:
                acc[tiles[j]] = [np.ones_like(m), clear.astype(np.int64),
                                 mc]
            else:
                a[0] += 1
                a[1] += clear
                np.maximum(a[2], mc, out=a[2])
        n_tiles = len(acc)
        cells = G * G
        tile_col = []
        nimg = np.empty(n_tiles * cells, np.int64)
        nclr = np.empty(n_tiles * cells, np.int64)
        mxc = np.empty(n_tiles * cells, np.int64)
        gr, gc = np.divmod(
            np.tile(np.arange(cells, dtype=np.int32), n_tiles), G)
        for k, (t, (nt, nc, mx)) in enumerate(acc.items()):
            tile_col.extend([t] * cells)
            nimg[k * cells : (k + 1) * cells] = nt.reshape(-1)
            nclr[k * cells : (k + 1) * cells] = nc.reshape(-1)
            mxc[k * cells : (k + 1) * cells] = mx.reshape(-1)
        return pa.table({
            "tile": pa.array(tile_col, pa.string()),
            "gr": pa.array(gr.astype(np.int32), pa.int32()),
            "gc": pa.array(gc.astype(np.int32), pa.int32()),
            "n_img": pa.array(nimg, pa.int64()),
            "n_clear": pa.array(nclr, pa.int64()),
            "max_clear": pa.array(mxc, pa.int64()),
        })


def tile_clear_composite(ds, *, grid: int = 8, cloud_t: int = 200):
    """Cloud-masked best-pixel composite: per (tile, cell) the total
    and clear observation counts and the MAX over clear observations
    (-1 where the cell never had a clear view -- the gap-fill
    worklist).  Same pixels-never-shuffle shape as tile_mosaic."""
    grids = ds.map_batches(
        MaskedMosaicGrid,
        fn_constructor_kwargs=dict(grid=grid, cloud_t=cloud_t),
        batch_format="pyarrow",
        concurrency=(1, 4),
        num_cpus=1,
    )
    return hash_aggregate(
        grids,
        keys=["tile", "gr", "gc"],
        aggs={
            "n_img": ("n_img", "sum"),
            "n_clear": ("n_clear", "sum"),
            "max_clear": ("max_clear", "max"),
        },
        n_partitions=32,
    )


def tile_gradient(mosaic, *, value: str = "v_max", grid: int = 8):
    """Central-difference gradient (the slope/roughness map-algebra
    step) over the tile-mosaic composite, ACROSS tile boundaries via
    the shared :func:`_halo_exchange`:

        gx = v(east neighbour) - v(west neighbour)
        gy = v(south neighbour) - v(north neighbour)   (gr south-positive)
        g1 = |gx| + |gy|   (exact L1 gradient magnitude)

    Only cells with BOTH horizontal and BOTH vertical neighbours
    present are emitted (the interior after halo exchange -- a
    derivative needs both sides).  The neighbour at (dr, dc) adds
    dc * v to gx and dr * v to gy; nx / ny count the neighbours."""
    offsets = [(0, 1), (0, -1), (1, 0), (-1, 0)]

    def contrib(k, v):
        dr, dc = offsets[k]
        one = np.ones_like(v)
        return {"gx": dc * v, "gy": dr * v,
                "nx": abs(dc) * one, "ny": abs(dr) * one}

    joined = _halo_exchange(mosaic, value=value, grid=grid,
                            offsets=offsets, contrib=contrib)

    def finish(b: pa.Table) -> pa.Table:
        nx = b.column("nx").to_numpy(zero_copy_only=False)
        ny = b.column("ny").to_numpy(zero_copy_only=False)
        gx = b.column("gx").to_numpy(zero_copy_only=False)
        gy = b.column("gy").to_numpy(zero_copy_only=False)
        keep = (nx == 2) & (ny == 2)
        t = pa.table({
            "tile": b.column("tile"),
            "gr": b.column("gr"),
            "gc": b.column("gc"),
            "gx": pa.array(gx.astype(np.int64), pa.int64()),
            "gy": pa.array(gy.astype(np.int64), pa.int64()),
            "g1": pa.array((np.abs(gx) + np.abs(gy)).astype(np.int64),
                           pa.int64()),
        })
        return t.filter(pa.array(keep))

    return joined.map_batches(finish, batch_format="pyarrow")


#: D8 direction table in PRIORITY order (ties pick the earliest):
#: (dr, dc, ESRI code) with gr south-positive -- E, SE, S, SW, W, NW,
#: N, NE; codes 1, 2, 4, ..., 128.
_D8 = ((0, 1, 1), (1, 1, 2), (1, 0, 4), (1, -1, 8),
       (0, -1, 16), (-1, -1, 32), (-1, 0, 64), (-1, 1, 128))


def _d8_neighbours(mosaic, *, value: str, grid: int):
    """D8 halo exchange: every composite cell joined with its 8
    Moore-neighbour values, packed into 8-bit fields of two int64
    columns (composite values are 8-bit block means, so one SUM
    reconstructs all 8 and the exchange moves 3 ints per scatter row
    instead of 16 columns).  Returns a Dataset of

        (fkey, tile, gr, gc, v, pa8, pb8, nn)

    where nn is the number of neighbours present (interior = 8)."""

    def contrib(k, v):
        if v.size and (v.min() < 0 or v.max() > 255):
            raise ValueError("D8 stages require an 8-bit composite")
        z = np.zeros_like(v)
        return {"pa8": v << (8 * k) if k < 4 else z,
                "pb8": v << (8 * (k - 4)) if k >= 4 else z,
                "nn": np.ones_like(v)}

    return _halo_exchange(mosaic, value=value, grid=grid,
                          offsets=[(dr, dc) for dr, dc, _ in _D8],
                          contrib=contrib)


def _d8_steepest(b: pa.Table):
    """(best drop, priority index of the first max) per row of a
    _d8_neighbours batch."""
    v = b.column("v").to_numpy(zero_copy_only=False)
    p8 = (b.column("pa8").to_numpy(zero_copy_only=False),
          b.column("pb8").to_numpy(zero_copy_only=False))
    drops = np.stack([
        v - ((p8[k // 4] >> (8 * (k % 4))) & 255)
        for k in range(8)
    ])  # priority order along axis 0
    return drops.max(axis=0), drops.argmax(axis=0)  # argmax = FIRST max


def tile_flow_d8(mosaic, *, value: str = "v_max", grid: int = 8):
    """D8 flow routing over the tile-mosaic composite treated as a DEM
    (the first step of every hydrology toolchain: flow direction +
    steepest drop per cell), ACROSS tile boundaries via the shared
    :func:`_halo_exchange`.

    Per cell with ALL 8 Moore neighbours present (the interior after
    halo exchange):

        drop_k = v(center) - v(neighbour_k)         (unit-distance D8)
        dir    = ESRI code of the steepest positive drop, ties going
                 to the first of E, SE, S, SW, W, NW, N, NE
        dir = 0, drop = 0 when no neighbour is lower (pit / flat)

    Shape: the :func:`_d8_neighbours` packed halo exchange (one
    hash_aggregate + one cogroup join), then a map-only finish."""
    joined = _d8_neighbours(mosaic, value=value, grid=grid)
    codes = np.array([c for _, _, c in _D8], np.int64)

    def finish(b: pa.Table) -> pa.Table:
        nn = b.column("nn").to_numpy(zero_copy_only=False)
        best, first = _d8_steepest(b)
        pos = best > 0
        t = pa.table({
            "tile": b.column("tile"),
            "gr": b.column("gr"),
            "gc": b.column("gc"),
            "dir": pa.array(np.where(pos, codes[first], 0), pa.int64()),
            "drop": pa.array(np.where(pos, best, 0), pa.int64()),
        })
        return t.filter(pa.array(nn == 8))

    return joined.map_batches(finish, batch_format="pyarrow")


#: column types of the D8 edge list: the composite's (tile, gr, gc),
#: the packed cell key, its downstream key and the elevation
_D8_BASE = pa.schema([
    ("tile", pa.string()), ("gr", pa.int32()), ("gc", pa.int32()),
    ("fkey", pa.int64()), ("down", pa.int64()), ("v", pa.int64()),
])


def _d8_flow_graph(mosaic, *, value: str, grid: int):
    """The D8 flow graph over the interior cells (all 8 Moore
    neighbours present), collected for one in-task pass: the
    ``_D8_BASE`` edge table, where ``down`` is the packed key of the
    steepest-drop neighbour (-1 on pits/flats), each cell's downstream
    row index ``tgt`` and the mask ``has`` of cells whose downstream
    cell is interior (pits, flats and outlets have none).  METADATA
    only -- 3 ints per interior cell of the composite, never pixels."""
    from equi7grid_ray.arrowutil import collect_tables

    joined = _d8_neighbours(mosaic, value=value, grid=grid)

    def edges(b: pa.Table) -> pa.Table:
        nn = b.column("nn").to_numpy(zero_copy_only=False)
        best, first = _d8_steepest(b)
        dr = np.array([d[0] for d in _D8], np.int64)[first]
        dc = np.array([d[1] for d in _D8], np.int64)[first]
        down = _neighbour_keys(*_cell_coords(b), dr, dc, grid)
        t = pa.table({
            "tile": b.column("tile"),
            "gr": b.column("gr"),
            "gc": b.column("gc"),
            "fkey": b.column("fkey"),
            "down": pa.array(np.where(best > 0, down, -1), pa.int64()),
            "v": b.column("v"),
        })
        return t.filter(pa.array(nn == 8))

    et = collect_tables(joined.map_batches(edges, batch_format="pyarrow"),
                        schema=_D8_BASE).cast(_D8_BASE)
    keys = et.column("fkey").to_numpy()
    down = et.column("down").to_numpy()
    order = np.argsort(keys)
    pos = np.searchsorted(keys[order], down)
    tgt = order[np.clip(pos, 0, len(keys) - 1)]
    has = (down >= 0) & (keys[tgt] == down)
    return et, tgt, has


def tile_flow_accum(mosaic, *, value: str = "v_max", grid: int = 8):
    """D8 flow ACCUMULATION over the tile composite: per interior cell
    the count of interior cells (including itself) whose downstream
    D8 path passes through it -- the drainage-area map, step two of
    the hydrology toolchain.  Edges whose target is a pit/flat (dir 0)
    or leaves the interior set are outlets.

    The flow graph is acyclic with depth <= 255: elevation strictly
    DECREASES along every D8 edge and composite values are 8-bit, so
    a path can take at most 255 steps.  That bound picks the
    algorithm: cells are processed in descending-elevation bands
    (cells of equal elevation can never flow into each other), each
    band pushing its finished accumulation downstream -- <= 256
    exact vectorized passes, no fixpoint detection needed.

    Shape: the (cell, down, v) edge list is METADATA (3 ints per
    interior cell), collected once by :func:`_d8_flow_graph`; the
    band fold (``np.add.at`` per band) runs in one task.  Returns
    ``(tile, gr, gc, acc)``; a composite with no interior cell gives
    zero rows."""
    import ray.data as rd

    et, tgt, has = _d8_flow_graph(mosaic, value=value, grid=grid)
    v = et.column("v").to_numpy()
    acc = np.ones(et.num_rows, np.int64)
    for lvl in np.unique(v)[::-1]:  # descending elevation bands
        band = np.flatnonzero((v == lvl) & has)
        if len(band):
            np.add.at(acc, tgt[band], acc[band])
    return rd.from_arrow(et.select(["tile", "gr", "gc"]).append_column(
        "acc", pa.array(acc, pa.int64())))


def tile_basins(mosaic, *, value: str = "v_max", grid: int = 8):
    """Watershed BASIN delineation over the tile composite treated as
    a DEM -- hydrology step three after :func:`tile_flow_d8`
    (direction) and :func:`tile_flow_accum` (drainage area): label
    every interior cell with its terminal sink (the cell its D8 path
    ends at: a pit/flat, or an outlet whose steepest neighbour left
    the interior set) and report each basin.

    Emits one row per basin: the sink's (tile, gr, gc), its elevation
    ``v_sink``, the member count ``n_cells`` and the exact sum of
    member elevations ``sum_v`` (the sink is a member of its own
    basin), so the full cell->basin partition is pinned by mass.

    The flow graph is functional and acyclic with depth <= 255
    (elevation strictly drops along every edge, 8-bit values), so
    POINTER DOUBLING reaches every sink in <= 8 rounds -- no fixpoint
    detection.  The rounds and the per-basin fold run in one task over
    the collected :func:`_d8_flow_graph`; a composite with no interior
    cell gives zero rows."""
    import ray.data as rd

    et, tgt, has = _d8_flow_graph(mosaic, value=value, grid=grid)
    n = et.num_rows
    ptr = np.where(has, tgt, np.arange(n))
    for _ in range(8):  # 2^8 >= max path depth 255
        ptr = ptr[ptr]
    v = et.column("v").to_numpy()
    cnt = np.bincount(ptr, minlength=n).astype(np.int64)
    sv = np.zeros(n, np.int64)
    np.add.at(sv, ptr, v)
    sink = np.flatnonzero(cnt > 0)
    out = et.select(["tile", "gr", "gc"]).take(sink)
    return rd.from_arrow(pa.table({
        "tile": out.column("tile"),
        "gr": out.column("gr"),
        "gc": out.column("gc"),
        "v_sink": pa.array(v[sink], pa.int64()),
        "n_cells": pa.array(cnt[sink], pa.int64()),
        "sum_v": pa.array(sv[sink], pa.int64()),
    }))


def tile_tri(mosaic, *, value: str = "v_max", grid: int = 8):
    """Terrain Ruggedness Index (Riley et al. 1999, the sqrt-free
    integer form) over the tile composite with cross-tile halo
    exchange: per interior cell the sum of absolute differences to its
    8 Moore neighbours

        tri = sum_k |v(center) - v(neighbour_k)|

    -- the roughness screen that complements slope (tile_gradient) and
    flow (tile_flow_*).  Reuses the packed D8 halo exchange; cells
    missing any neighbour are dropped."""
    joined = _d8_neighbours(mosaic, value=value, grid=grid)

    def finish(b: pa.Table) -> pa.Table:
        nn = b.column("nn").to_numpy(zero_copy_only=False)
        v = b.column("v").to_numpy(zero_copy_only=False)
        p8 = (b.column("pa8").to_numpy(zero_copy_only=False),
              b.column("pb8").to_numpy(zero_copy_only=False))
        tri = np.zeros(len(v), np.int64)
        for k in range(8):
            tri += np.abs(v - ((p8[k // 4] >> (8 * (k % 4))) & 255))
        t = pa.table({
            "tile": b.column("tile"),
            "gr": b.column("gr"),
            "gc": b.column("gc"),
            "tri": pa.array(tri, pa.int64()),
        })
        return t.filter(pa.array(nn == 8))

    return joined.map_batches(finish, batch_format="pyarrow")


def tile_aspect(mosaic, *, value: str = "v_max", grid: int = 8):
    """Aspect (downslope compass facing) HISTOGRAM per continent over
    the tile composite -- the terrain-exposure rollup next to
    tile_gradient's slope map.  Central differences with the same halo
    exchange; the downslope vector (u, w) = (-gx, -gy) classifies into
    8 sectors with EXACT integer tests (45-degree boundaries land on
    |u| == |w|):

        flat (0)  u = w = 0
        E/W       |u| > |w|  ->  1 (u > 0) / 5 (u < 0)
        S/N       |w| > |u|  ->  3 (w > 0) / 7 (w < 0)
        diagonals |u| = |w|  ->  SE 2, SW 4, NW 6, NE 8

    (gr is south-positive, so w > 0 faces south).  Output: one row per
    (continent, aspect) with the cell count -- bounded 7 x 9."""
    import pyarrow.compute as pc

    grad = tile_gradient(mosaic, value=value, grid=grid)

    def classify(b: pa.Table) -> pa.Table:
        gx = b.column("gx").to_numpy(zero_copy_only=False)
        gy = b.column("gy").to_numpy(zero_copy_only=False)
        u, w = -gx, -gy
        au, aw = np.abs(u), np.abs(w)
        code = np.zeros(len(u), np.int64)
        card = au > aw
        code = np.where(card & (u > 0), 1, code)
        code = np.where(card & (u < 0), 5, code)
        vert = aw > au
        code = np.where(vert & (w > 0), 3, code)
        code = np.where(vert & (w < 0), 7, code)
        diag = (au == aw) & (au > 0)
        code = np.where(diag & (u > 0) & (w > 0), 2, code)
        code = np.where(diag & (u < 0) & (w > 0), 4, code)
        code = np.where(diag & (u < 0) & (w < 0), 6, code)
        code = np.where(diag & (u > 0) & (w < 0), 8, code)
        return pa.table({
            "continent": pc.utf8_slice_codeunits(b.column("tile"), 0, 2),
            "aspect": pa.array(code, pa.int64()),
        })

    return hash_aggregate(
        grad.map_batches(classify, batch_format="pyarrow"),
        keys=["continent", "aspect"],
        aggs={"n": ("aspect", "count")}, n_partitions=8)
