"""The flagship hot path: image rows -> Equi7 tile assignments, as a
stateful ``map_batches`` callable over zero-copy Arrow batches.

Pipeline per batch (all vectorized):

  decode (optional)  ->  zone classify (raster PIP)  ->  per-continent
  AEQD forward  ->  tile floor + name codec  ->  covers_land lookup

One row is emitted per (image x containing zone) -- the reference's
``Grid.lonlat_to_xy`` multi-zone semantics (core.py + pytileproj,
tests/test_equi7grid.py:405-439) as a vectorized explode.  The heavy
spatial state (zone raster, tile tables) is built/loaded once per actor
in ``__init__`` (actor-pool stage), never per batch.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from equi7grid_ray import aeqd
from equi7grid_ray.arrowutil import binary_view
from equi7grid_ray.cells import cell_id
from equi7grid_ray.codec import decode_image, png_stream_stats
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
        sums = np.fromiter(
            (values[a:b].sum(dtype=np.int64)
             for a, b in zip(starts.tolist(), ends.tolist())),
            dtype=np.int64, count=len(raw_rows),
        )
        px_mean[raw_rows] = sums / np.maximum(npx, 1)

    for j in np.flatnonzero(is_png).tolist():
        buf = data[offs[j] : offs[j + 1]]
        w, h = int(ws[j]), int(hs[j])
        # streaming inflate: exact integer pixel sum through a bounded
        # window, no decoded-frame materialization
        st = png_stream_stats(buf)
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
    batch_format='pyarrow', concurrency=N)``."""

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
        self.state = get_grid_state(self.spec)
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
        self.continents = self.spec.continents()
        self.zone_cols = [self.state.zc.order.index(c) for c in self.continents]
        self._tilings = {c: self.state.tiles(c, self.tiling) for c in self.continents}
        # precomputed full-name table per continent: the per-row "codec"
        # becomes an indexed gather instead of string formatting
        self._names = {
            c: full_names(c, ct.ll_x, ct.ll_y, self.tiling)
            for c, ct in self._tilings.items()
        }
        # global dictionary for dictionary-encoded output (index gather
        # replaces any per-row string work)
        self._dict_offsets = {}
        off = 0
        parts = []
        for c in self.continents:
            self._dict_offsets[c] = off
            parts.append(self._names[c])
            off += len(self._names[c])
        self._dict_values = pa.array(
            np.concatenate(parts) if parts else np.empty(0, dtype="U16")
        )
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
                self.state.zc.polys, self.continents
            )

    #: top-level cache block: the assign pipeline materializes ~20
    #: batch-length arrays (projection, floor, lookup, take); slicing the
    #: batch keeps that working set near L2 instead of streaming every
    #: intermediate through DRAM -- the difference between ~1.7 and ~4
    #: us/row/core at 32-way concurrency on a shared memory bus.
    CHUNK_ROWS = 65_536

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows > 2 * self.CHUNK_ROWS and not self.decode:
            parts = [
                self._assign(batch.slice(st, self.CHUNK_ROWS))
                for st in range(0, batch.num_rows, self.CHUNK_ROWS)
            ]
            return pa.concat_tables(parts)
        return self._assign(batch)

    def _assign(self, batch: pa.Table) -> pa.Table:
        lon, lat = derive_lonlat(batch)

        px_mean = _decode_means(batch) if self.decode else None

        # packed uint8 zone bitmask: 1 byte/row instead of a (n, 7) bool
        # matrix (DRAM pressure at high concurrency)
        bits = self.state.zc.classify_bits(lon, lat)

        emit_xy = self.emit_xy
        out_idx: list[np.ndarray] = []
        out_rank: list[np.ndarray] = []
        out_x: list[np.ndarray] = []
        out_y: list[np.ndarray] = []
        out_llx: list[np.ndarray] = []
        out_lly: list[np.ndarray] = []
        out_land: list[np.ndarray] = []
        out_tidx: list[np.ndarray] = []
        any_miss = False
        miss_names: list[tuple[int, np.ndarray, np.ndarray, str]] = []
        for rank, (cont, zc_col) in enumerate(zip(self.continents, self.zone_cols)):
            rows = np.flatnonzero(bits & np.uint8(1 << zc_col))
            if len(rows) == 0:
                continue
            proj = self._proj.get(cont)
            if proj is not None:
                x, y = proj(lon[rows], lat[rows])
            else:
                x, y = aeqd.forward(cont, lon[rows], lat[rows])
            llx, lly = tile_ll_from_xy(x, y, self.tile_size)
            ct = self._tilings[cont]
            pos = ct.lookup(llx, lly)
            safe = np.maximum(pos, 0)
            land = np.where(pos >= 0, ct.covers_land[safe], False)
            tidx = safe.astype(np.int32) + np.int32(self._dict_offsets[cont])
            miss = pos < 0
            if miss.any():  # zone-edge float cases: format those few names
                any_miss = True
                miss_names.append(
                    (sum(len(a) for a in out_idx), miss,
                     full_names(cont, llx[miss], lly[miss], self.tiling), cont)
                )
            out_idx.append(rows)
            out_rank.append(np.full(len(rows), rank, dtype=np.int8))
            out_land.append(land)
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
            land = np.empty(0, dtype=bool)
            tidx = np.empty(0, dtype=np.int32)
        else:
            idx = np.concatenate(out_idx)
            rank = np.concatenate(out_rank)
            land = np.concatenate(out_land)
            tidx = np.concatenate(out_tidx)
            if emit_xy:
                x = np.concatenate(out_x)
                y = np.concatenate(out_y)
                llx = np.concatenate(out_llx)
                lly = np.concatenate(out_lly)

        dict_values = self._dict_values
        if any_miss:
            # rare zone-edge float cases: append the few out-of-table names
            # to the dictionary and rewrite just those indices -- the hot
            # rows keep their zero-copy dictionary encoding
            mpos: list[np.ndarray] = []
            mname: list[np.ndarray] = []
            for off, miss, mn, _c in miss_names:
                mpos.append(off + np.flatnonzero(miss))
                mname.append(mn)
            mpos_all = np.concatenate(mpos)
            uniq, inv = np.unique(np.concatenate(mname), return_inverse=True)
            tidx = tidx.copy()
            tidx[mpos_all] = np.int32(len(dict_values)) + inv.astype(np.int32)
            dict_values = pa.concat_arrays(
                [dict_values, pa.array(uniq.tolist(), pa.string())]
            )
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


_PROC_CACHE: dict[str, TileAssigner] = {}


def make_assign_fn(broadcast: bool = True, **kwargs):
    """Task-based variant of the stage with broadcast state.

    When Ray is up, the TileAssigner (zone raster + tile tables + name
    dictionaries, ~tens of MB of numpy) is built ONCE on the driver and
    ``ray.put`` into the object store; each worker process deserializes
    it zero-copy on first use and caches it (`small-side lookup broadcast
    once, read in every task` -- never rebuilt per worker, never
    re-shipped per batch).  Builds per process instead when Ray isn't
    initialised (plain local use) or with ``broadcast=False``.  A bad
    argument raises here, on the caller, not later in every task."""
    import ray

    key = repr(sorted(kwargs.items(), key=lambda kv: kv[0]))
    ref = None
    if broadcast and ray.is_initialized():
        ref = ray.put(TileAssigner(**kwargs))
        key = key + str(ref)

    def assign(batch: pa.Table) -> pa.Table:
        ta = _PROC_CACHE.get(key)
        if ta is None:
            if ref is not None:
                import ray

                ta = ray.get(ref)
            else:
                ta = TileAssigner(**kwargs)
            # bounded cache: every make_assign_fn call carries a fresh
            # ObjectRef in its key, so long-lived workers would otherwise
            # accumulate one ~50 MB assigner per pipeline construction
            while len(_PROC_CACHE) >= 4:
                _PROC_CACHE.pop(next(iter(_PROC_CACHE)))
            _PROC_CACHE[key] = ta
        return ta(batch)

    return assign
