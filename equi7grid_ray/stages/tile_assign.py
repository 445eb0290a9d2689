"""The flagship hot path: image rows -> Equi7 tile assignments, as a
stateful ``map_batches`` callable over zero-copy Arrow batches.

Pipeline per batch (all vectorized):

  decode (optional)  ->  zone classify (raster PIP)  ->  per-continent
  AEQD forward  ->  tile floor + name codec  ->  covers_land lookup

With ``emit_xy=False`` (and the interpolated projector) most rows skip
everything after decode: a cell -> tile table over the 0.1 deg zone
raster (``ZoneClassifier.build_cell_tile_table``) names the tile of
every cell that lies in one zone and, with a 1 km margin, in one tile.
Each row takes one gather into it; only the rows of the other cells --
those that straddle a tile or zone edge, and invalid coordinates -- take
the path above.  The output is the same, row for row and byte for byte.
That full path runs once per call: ``TileAssigner.assign_many`` runs it
over the fallback rows of several batches (the read-in-map loop's
consecutive row groups) and still returns one table per batch.

One row is emitted per (image x containing zone) -- the reference's
``Grid.lonlat_to_xy`` multi-zone semantics (core.py + pytileproj,
tests/test_equi7grid.py:405-439) as a vectorized explode, grouped by
continent rank, then ascending input row.  The heavy spatial state (zone
raster, tile tables, cell -> tile table, projector grids) is built/loaded
once per actor in ``__init__`` (actor-pool stage), never per batch.
"""

from __future__ import annotations

import functools
import inspect
import json

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from equi7grid_ray import aeqd
from equi7grid_ray.arrowutil import binary_view
from equi7grid_ray.cells import cell_id
from equi7grid_ray.codec import U32_SUM_MAX_SAMPLES, decode_image, png_stream_stats
from equi7grid_ray.grid import GridSpec, full_names, tile_ll_from_xy
from equi7grid_ray.sources.images import centers_for_index
from equi7grid_ray.tiling_state import get_grid_state

__all__ = ["TileAssigner", "derive_lonlat", "CELL_LEVEL"]

#: default coarse-cell level for the shuffle key (~0.7 deg cells)
CELL_LEVEL = 9


def derive_lonlat(batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    """Center lon/lat for a batch: use explicit columns when present,
    else integer-microdegree columns, else the deterministic image_id
    sweep (sources/images.py)."""
    names = batch.column_names
    if "lon" in names and "lat" in names:
        return (
            batch.column("lon").to_numpy(zero_copy_only=False),
            batch.column("lat").to_numpy(zero_copy_only=False),
        )
    if "lon_udeg" in names:
        return (
            batch.column("lon_udeg").to_numpy(zero_copy_only=False) / 1e6,
            batch.column("lat_udeg").to_numpy(zero_copy_only=False) / 1e6,
        )
    # image_id is "img%012d": strip the prefix and cast in Arrow (no
    # Python-level loop over 100k+ strings)
    idx = pc.cast(
        pc.utf8_slice_codeunits(batch.column("image_id"), 3, 32), pa.int64()
    ).to_numpy(zero_copy_only=False)
    return centers_for_index(idx)


def _cat(parts: list[np.ndarray]) -> np.ndarray:
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


_DECODABLE = pa.array(["png", "raw"])


def _decode_means(batch: pa.Table) -> np.ndarray:
    """Decoded pixel mean per row of the ``bytes``/``fmt``/``w``/``h``
    columns.  Payloads are read in place from the Arrow value buffer (no
    per-row bytes copies).  A raw row is one exact integer sum over its
    payload; a PNG row takes exact streaming stats, and only a filtered
    or paletted PNG is fully decoded.  A null or unknown ``fmt``, or a
    payload whose size disagrees with its ``w``/``h``, raises."""
    fmt_col = batch.column("fmt")
    if fmt_col.null_count:
        j = int(np.flatnonzero(pc.is_null(fmt_col).to_numpy(zero_copy_only=False))[0])
        raise ValueError(f"null fmt at row {j}")
    known = pc.is_in(fmt_col, value_set=_DECODABLE)
    if not pc.all(known, min_count=0).as_py():
        bad = pc.unique(pc.filter(fmt_col, pc.invert(known))).to_pylist()
        raise NotImplementedError(
            f"image format(s) {bad}: real codecs unavailable in sandbox"
        )
    data, offs = binary_view(batch.column("bytes"))
    is_png = pc.equal(fmt_col, "png").to_numpy(zero_copy_only=False)
    ws = batch.column("w").to_numpy().astype(np.int64)
    hs = batch.column("h").to_numpy().astype(np.int64)
    px_mean = np.empty(batch.num_rows, dtype=np.float64)

    # raw rows decode to exactly their payload bytes: one sum per row over
    # its own slice of the value buffer
    raw_rows = np.flatnonzero(~is_png)
    if len(raw_rows):
        starts = offs[raw_rows]
        ends = offs[raw_rows + 1]
        npx = ws[raw_rows] * hs[raw_rows]
        bad = np.flatnonzero(ends - starts != npx)
        if len(bad):
            k = bad[0]
            raise ValueError(
                f"raw payload length mismatch at row {raw_rows[k]}: "
                f"{ends[k] - starts[k]} bytes for w*h={npx[k]}"
            )
        values = np.frombuffer(data, dtype=np.uint8)
        # a uint32 sum of 8-bit samples is exact up to U32_SUM_MAX_SAMPLES
        acc = np.uint32 if npx.max() <= U32_SUM_MAX_SAMPLES else np.uint64
        sums = np.fromiter(
            (np.add.reduce(values[a:b], dtype=acc)
             for a, b in zip(starts.tolist(), ends.tolist())),
            dtype=np.int64, count=len(raw_rows),
        )
        px_mean[raw_rows] = sums / np.maximum(npx, 1)

    offl, wl, hl = offs.tolist(), ws.tolist(), hs.tolist()
    for j in np.flatnonzero(is_png).tolist():
        buf = data[offl[j] : offl[j + 1]]
        w, h = wl[j], hl[j]
        # streaming inflate: exact integer pixel sum through a bounded
        # window, no decoded-frame materialization
        st = png_stream_stats(buf, sumsq=False)
        if st is None:  # filtered or paletted PNG: full reconstruction
            img = decode_image(buf, "png", w, h, copy=False)
            (hh, ww), mean = img.shape[:2], img.mean()
        else:
            psum, _sq, hh, ww, ch, _ = st
            mean = psum / max(hh * ww * ch, 1)
        if (ww, hh) != (w, h):
            raise ValueError(
                f"PNG size mismatch at row {j}: IHDR is {ww}x{hh}, "
                f"the w/h columns say {w}x{h}"
            )
        px_mean[j] = mean
    return px_mean


class TileAssigner:
    """Actor-pool stage: ``ds.map_batches(TileAssigner, fn_constructor_kwargs=...,
    batch_format='pyarrow', concurrency=N)``.

    ``emit_xy=False`` assigners load the cell -> tile table of their
    (grid spec, tiling) in ``__init__``: the T6 tables of
    ``GridSpec.standard()`` and ``standard(buffered=True)`` ship in
    ``data/``; any other is built on first use (a few seconds) and cached
    there -- but never inside a Ray worker, where a missing table means
    every row takes the full path.  The same holds for the projector
    grids (``interp.get_projector``): a worker that finds a zone's grid
    file missing projects that zone with ``aeqd.forward``.
    ``exact_projection=True`` uses no table: every row goes through
    ``aeqd.forward``.  A pickled assigner ships its tile index without
    the tilings' sample atlases (``TileIndex.without_atlas``)."""

    def __init__(
        self,
        tiling_id: str = "T6",
        *,
        spec: GridSpec | None = None,
        decode: bool = False,
        emit_cell: bool = True,
        emit_xy: bool = True,
        emit_id: bool = True,
        passthrough: tuple[str, ...] = (),
        exact_projection: bool = False,
    ):
        self.spec = spec or GridSpec.standard()
        # keep only this assigner's pieces of the shared GridState: a
        # broadcast assigner pickles its attributes, and the state also
        # holds every other tiling any caller in the process loaded
        state = get_grid_state(self.spec)
        self.zc = state.zc
        self.tiling = self.spec.tiling_name(tiling_id)
        self.tile_size = self.spec.tile_size(tiling_id)
        self.decode = decode
        self.emit_cell = emit_cell
        self.emit_xy = emit_xy
        # emit_id=False is the projection-pushdown path for terminal
        # aggregates (tile histogram) that never read the id column:
        # skips an 8B read + 16B gather + 8B emit per row -- measurable
        # against a shared memory bus at full-machine concurrency.
        self.emit_id = emit_id
        self.passthrough = passthrough
        # the tiling's tile set, name dictionary and zone bits: output
        # tiles are dictionary-encoded over ``index.names`` (an index
        # gather replaces any per-row string work)
        self.index = state.tile_index(self.tiling)
        self.continents = self.index.continents
        self._dict_values = pa.array(self.index.names)
        self._cont_values = pa.array(np.asarray(self.continents, dtype="U2"))
        # forward projectors: gridded bicubic interpolation of the exact
        # AEQD forward per non-polar zone (max error < 1e-3 m, two-plus
        # orders inside the reference accuracy contract of rtol 1e-7 --
        # see equi7grid_ray/interp.py).  Pass exact_projection=True to
        # force the Karney solver everywhere.
        self._proj = {}
        if not exact_projection:
            from equi7grid_ray.interp import build_zone_projectors

            self._proj = build_zone_projectors(
                self.zc.polys, self.continents
            )
        # cell -> tile table: emit_xy=False rows in a cell that lies in one
        # zone and one tile skip classify/project/floor/lookup
        self._cell_table = None
        if not emit_xy and not exact_projection:
            self._cell_table = self._load_cell_table()

    def __getstate__(self) -> dict:
        # a pickled (broadcast) assigner ships only what locate reads of
        # each tile set, not the sample atlases ROI search and expansion read
        return {**self.__dict__, "index": self.index.without_atlas()}

    def _project(self, cont: str, lon, lat) -> tuple[np.ndarray, np.ndarray]:
        proj = self._proj.get(cont)
        if proj is not None:
            return proj(lon, lat)
        return aeqd.forward(cont, lon, lat)

    def table_zones(self) -> list:
        """``(zone bit, project, locate)`` per continent: the input of
        ``ZoneClassifier.build_cell_tile_table`` for this assigner."""
        index = self.index
        return [
            (1 << col, functools.partial(self._project, cont),
             functools.partial(index.locate, rank))
            for rank, (cont, col) in enumerate(zip(index.continents, index.zone_cols))
        ]

    def _load_cell_table(self) -> np.ndarray | None:
        zc = self.zc
        key = json.dumps([self.tiling, self.tile_size, zc.order, self.continents,
                          self.index.names.tolist()]).encode()
        return zc.cell_tile_table(
            self.tiling, key,
            lambda: zc.build_cell_tile_table(self.table_zones(), self.tile_size))

    #: top-level cache block: a batch of more than ``2 * CHUNK_ROWS``
    #: rows (and no decode) is assigned in slices of this many rows, each
    #: emitted as its own table (rows grouped by continent rank, then
    #: input row) and concatenated.  The fast path's ~20 batch-length arrays (projection,
    #: floor, lookup, take) stay near L2 instead of streaming every
    #: intermediate through DRAM -- the difference between ~1.7 and ~4
    #: us/row/core at 32-way concurrency on a shared memory bus.  The
    #: fallback pass runs once per call over every slice's fallback rows.
    CHUNK_ROWS = 65_536

    def __call__(self, batch: pa.Table) -> pa.Table:
        return self.assign_many([batch])[0]

    def assign_many(self, batches: list[pa.Table]) -> list[pa.Table]:
        """``[self(b) for b in batches]``, byte for byte, with one
        fallback pass (classify -> project -> floor -> locate) over the
        fallback rows of all of them: that pass has a fixed cost per call
        (tens of numpy calls per continent, a Karney solve for the polar
        rows), so consecutive small batches share it."""
        if not batches:
            return []
        split = [
            [b.slice(st, self.CHUNK_ROWS) for st in range(0, b.num_rows, self.CHUNK_ROWS)]
            if b.num_rows > 2 * self.CHUNK_ROWS and not self.decode else [b]
            for b in batches
        ]
        outs = iter(self._assign_chunks([c for chunks in split for c in chunks]))
        return [next(outs) if len(chunks) == 1 else pa.concat_tables([next(outs) for _ in chunks])
                for chunks in split]

    def _assign_chunks(self, chunks: list[pa.Table]) -> list[pa.Table]:
        zc = self.zc
        table = self._cell_table
        pre = []  # per chunk: lon, lat, px_mean, fallback rows, table tiles
        for chunk in chunks:
            lon, lat = derive_lonlat(chunk)
            px_mean = _decode_means(chunk) if self.decode else None
            if table is None:
                # every row takes the full path
                pre.append((lon, lat, px_mean, None, None))
            else:
                # one gather per row; only the rows of a -1 cell (zone or
                # tile edge, invalid coordinates) take the full path
                cell, valid = zc.cell_index(lon, lat)
                hit = np.where(valid, table.take(cell), -1)
                pre.append((lon, lat, px_mean, np.flatnonzero(hit < 0), hit))
        fb_lon = _cat([p[0] if p[3] is None else p[0][p[3]] for p in pre])
        fb_lat = _cat([p[1] if p[3] is None else p[1][p[3]] for p in pre])
        sizes = [len(p[0]) if p[3] is None else len(p[3]) for p in pre]
        fall = self._fallback(fb_lon, fb_lat, np.cumsum([0] + sizes))
        return [self._emit(chunk, *p, [f[i] for f in fall])
                for i, (chunk, p) in enumerate(zip(chunks, pre))]

    def _fallback(self, lon, lat, off: np.ndarray) -> list[list]:
        """The full path over the fallback rows of every chunk, chunk
        ``i`` holding rows ``off[i]:off[i + 1]`` of ``lon``/``lat``: per
        continent rank, per chunk, None or ``(rows, x, y, ll_x, ll_y,
        tile, miss, names)`` -- its rows in the zone (positions in its
        fallback rows, ascending), their projection, tile corner and
        dictionary index, which of them miss the tile set and those
        tiles' names."""
        # packed uint8 zone bitmask: 1 byte/row instead of a (n, 7)
        # bool matrix (DRAM pressure at high concurrency)
        bits = self.zc.classify_bits(lon, lat)
        index = self.index
        fall = []
        for rank, (cont, zc_col) in enumerate(zip(index.continents, index.zone_cols)):
            sel = np.flatnonzero(bits & np.uint8(1 << zc_col))
            if len(sel) == 0:
                fall.append([None] * (len(off) - 1))
                continue
            x, y = self._project(cont, lon[sel], lat[sel])
            llx, lly = tile_ll_from_xy(x, y, self.tile_size)
            tidx = index.locate(rank, llx, lly).astype(np.int32)
            miss = tidx < 0  # zone-edge float cases: format those few names
            names = full_names(cont, llx[miss], lly[miss], self.tiling) if miss.any() else None
            cut = np.searchsorted(sel, off)
            n_miss = np.append(0, np.cumsum(miss))[cut]
            fall.append([
                (sel[a:b] - o, x[a:b], y[a:b], llx[a:b], lly[a:b], tidx[a:b], miss[a:b],
                 names[m0:m1] if m1 > m0 else None) if b > a else None
                for a, b, o, m0, m1 in zip(cut[:-1], cut[1:], off, n_miss[:-1], n_miss[1:])
            ])
        return fall

    def _emit(self, batch: pa.Table, lon, lat, px_mean, fb, hit, fall: list) -> pa.Table:
        """One chunk's output table from its fallback results ``fall``
        (per continent rank) and, with the cell table, its table tiles
        ``hit``."""
        if fb is not None:
            hit_rank = self.index.rank.take(hit)  # -1 -> trailing "no tile"
            tid = hit.astype(np.int32)

        emit_xy = self.emit_xy
        out_idx: list[np.ndarray] = []
        out_rank: list[np.ndarray] = []
        out_x: list[np.ndarray] = []
        out_y: list[np.ndarray] = []
        out_llx: list[np.ndarray] = []
        out_lly: list[np.ndarray] = []
        out_tidx: list[np.ndarray] = []
        n_out = 0
        miss_pos: list[np.ndarray] = []
        miss_names: list[np.ndarray] = []
        index = self.index
        for rank, f in enumerate(fall):
            rows = np.empty(0, dtype=np.int64)
            miss_rows = None
            if f is not None:
                rows, x, y, llx, lly, tidx, miss, names = f
                if fb is not None:
                    rows = fb[rows]
                if names is not None:
                    miss_rows = rows[miss]
                    miss_names.append(names)
            if fb is not None:
                # merge this continent's table rows with its full-path rows
                in_rank = hit_rank == rank
                if len(rows):
                    in_rank[rows] = True
                    tid[rows] = tidx
                rows = np.flatnonzero(in_rank)
                tidx = tid[rows]
            if len(rows) == 0:
                continue
            if miss_rows is not None:
                miss_pos.append(n_out + np.searchsorted(rows, miss_rows))
            n_out += len(rows)
            out_idx.append(rows)
            out_rank.append(np.full(len(rows), rank, dtype=np.int8))
            out_tidx.append(tidx)
            if emit_xy:  # projected coords only concatenated when emitted
                out_x.append(x)
                out_y.append(y)
                out_llx.append(llx)
                out_lly.append(lly)

        if not out_idx:
            idx = np.empty(0, dtype=np.int64)
            rank = np.empty(0, dtype=np.int8)
            x = y = llx = lly = np.empty(0)
            tidx = np.empty(0, dtype=np.int32)
        else:
            idx = np.concatenate(out_idx)
            rank = np.concatenate(out_rank)
            tidx = np.concatenate(out_tidx)
            if emit_xy:
                x = np.concatenate(out_x)
                y = np.concatenate(out_y)
                llx = np.concatenate(out_llx)
                lly = np.concatenate(out_lly)

        dict_values = self._dict_values
        if miss_pos:
            # rare zone-edge float cases: append the few out-of-table names
            # to the dictionary and rewrite just those indices -- the hot
            # rows keep their zero-copy dictionary encoding
            uniq, inv = np.unique(np.concatenate(miss_names), return_inverse=True)
            tidx = tidx.copy()
            tidx[np.concatenate(miss_pos)] = np.int32(len(dict_values)) + inv.astype(np.int32)
            dict_values = pa.concat_arrays(
                [dict_values, pa.array(uniq.tolist(), pa.string())]
            )
        # an appended (out-of-table) name clips to the trailing "no land"
        land = index.covers_land.take(tidx, mode="clip")
        tile_col = pa.DictionaryArray.from_arrays(pa.array(tidx), dict_values)
        cont_col = pa.DictionaryArray.from_arrays(
            pa.array(rank.astype(np.int32)), self._cont_values
        )

        cols: dict[str, pa.Array] = {}
        if self.emit_id:
            cols["image_id"] = batch.column("image_id").take(pa.array(idx))
        cols["continent"] = cont_col
        cols["tile"] = tile_col
        cols["covers_land"] = pa.array(land, pa.bool_())
        if self.emit_xy:  # skip for minimal tile-assignment output
            cols["continent_rank"] = pa.array(rank, pa.int8())
            cols["x"] = pa.array(x, pa.float64())
            cols["y"] = pa.array(y, pa.float64())
            cols["ll_x"] = pa.array(llx, pa.float64())
            cols["ll_y"] = pa.array(lly, pa.float64())
        if self.emit_cell:
            cols["cell"] = pa.array(cell_id(lon[idx], lat[idx], CELL_LEVEL), pa.int64())
        if px_mean is not None:
            cols["px_mean"] = pa.array(px_mean[idx], pa.float64())
        for name in self.passthrough:
            if name in batch.column_names:
                cols[name] = batch.column(name).take(pa.array(idx))
        return pa.table(cols)


#: bounded process cache, oldest entry evicted first.  On the driver it
#: holds the broadcast ObjectRef per (Ray session, assigner config), so
#: every pipeline over one config shares one ``ray.put``; in a worker it
#: holds the deserialized TileAssigner per broadcast ref (per config when
#: built without Ray).
_PROC_CACHE: dict[str, object] = {}


def _cache_put(key: str, value):
    while len(_PROC_CACHE) >= 4:
        _PROC_CACHE.pop(next(iter(_PROC_CACHE)))
    _PROC_CACHE[key] = value
    return value


def make_assign_fn(broadcast: bool = True, **kwargs):
    """Task-based variant of the stage with broadcast state.

    When Ray is up, the TileAssigner (zone raster and boundary-cell edge
    lists, cell -> tile table, tile index without its sample atlases and
    name dictionary: ~33 MB of numpy for the T6
    ``emit_xy=False`` config; its interpolation grids pickle by key and
    each process maps them from their files) is built on the driver and
    ``ray.put`` once per (assigner config, Ray session): the
    ref is kept in ``_PROC_CACHE``, so later pipelines over an equal
    config reuse it and each worker process, which caches the assigner
    it deserializes under that ref, hits its cache on every pass (`small-
    side lookup broadcast once, read in every task` -- never rebuilt per
    worker, never re-shipped per batch or per pipeline).  Builds per
    process instead when Ray isn't initialised (plain local use) or with
    ``broadcast=False``.  A bad argument raises here, on the caller, not
    later in every task.  The returned ``assign(batch)`` has a ``many``
    attribute, ``assign.many(batches)``: :meth:`TileAssigner.assign_many`
    of the same assigner."""
    import ray

    bound = inspect.signature(TileAssigner).bind(**kwargs)
    bound.apply_defaults()
    key = repr(sorted(bound.arguments.items()))
    ref = None
    if broadcast and ray.is_initialized():
        # job id + node id: a new local cluster gets a new node id, a new
        # driver on a running cluster a new job id, so a ref from a shut
        # down session is never handed out again
        ctx = ray.get_runtime_context()
        put_key = f"ref {ctx.get_node_id()} {ctx.get_job_id()} {key}"
        ref = _PROC_CACHE.get(put_key)
        if ref is None:
            ref = _cache_put(put_key, ray.put(TileAssigner(**kwargs)))
        key = key + str(ref)

    def assign(batch: pa.Table) -> pa.Table:
        return _cached_assigner(key, ref, kwargs)(batch)

    def many(batches: list[pa.Table]) -> list[pa.Table]:
        return _cached_assigner(key, ref, kwargs).assign_many(batches)

    assign.many = many
    return assign


def _cached_assigner(key: str, ref, kwargs: dict) -> TileAssigner:
    """This process's assigner for ``key``, fetched from ``ref`` (built
    from ``kwargs`` without one) on first use.  A module-level function:
    a closure shipped to a worker would otherwise carry a pickled copy of
    the driver's cache as its own global instead of the worker's."""
    ta = _PROC_CACHE.get(key)
    if ta is None:
        if ref is not None:
            import ray

            ta = ray.get(ref)
        else:
            ta = TileAssigner(**kwargs)
        _cache_put(key, ta)
    return ta
