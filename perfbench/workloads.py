"""The four benchmark workloads.

Each workload owns four things:

* seeded inputs, written once per (seed, scale) under the work directory
  together with the oracle's expected result, and never timed;
* ``run_ray``: the engine's public Ray pipeline, called as a user would;
* ``run_local``: an in-process replay of the same input through the same
  public layer functions, in the order and batch sizes the Ray pipeline
  uses them (the traced run patches those functions);
* ``check``: compares an output with an oracle that shares no code with
  the path under test.  The oracles use exact point-in-polygon zone tests,
  the exact ``aeqd.forward``/``aeqd.inverse`` solvers and the documented
  closed-form image pattern; tile names and pixel centres are computed
  here, not by the engine.
"""

from __future__ import annotations

import json
import shutil
from collections import Counter
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

TILING = "T6"
TILE_SIZE = 600_000.0
SAMPLING = 500.0  # T6 default sampling (m / pixel)
NPIX = int(TILE_SIZE / SAMPLING)
SRC_RES_DEG = 0.001  # pixel size of the synthetic source rasters
# the synthetic image table's documented sweep and pixel pattern
# (equi7grid_ray/sources/images.py module docstring)
PHI = 137.50776405
PSI = 73.50776405
SIZES = (32, 64, 128)
IMAGE_COLUMNS = ["image_id", "bytes", "w", "h", "fmt"]


# ---------------------------------------------------------------------------
# oracles (independent of the engine's assign / regrid code paths)
# ---------------------------------------------------------------------------


def _continents() -> list[str]:
    from equi7grid_ray.grid import GridSpec

    return GridSpec.standard().continents()


def _zone_polygons() -> dict:
    """The Equi7 zone polygons -- the definition of zone membership."""
    from equi7grid_ray.zones import ZoneClassifier

    return ZoneClassifier().polys


def _tile_name(cont: str, tx: int, ty: int) -> str:
    """Equi7 full tile name from tile indices (``EU_E048N012T6``)."""
    km100 = int(TILE_SIZE // 100_000)
    ns = "S" if ty < 0 else "N"
    return f"{cont}_E{tx * km100:03d}{ns}{abs(ty) * km100:03d}{TILING}"


def oracle_assign(lon: np.ndarray, lat: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """(row index, tile name) for every (row, containing zone) pair, by
    exact point-in-polygon and the exact AEQD forward solver.  Invalid
    coordinates (NaN, |lat| > 90, |lon| > 180) produce no pair, which is
    the engine's documented drop behaviour."""
    from equi7grid_ray import aeqd

    lon = np.asarray(lon, np.float64)
    lat = np.asarray(lat, np.float64)
    valid = np.isfinite(lon) & np.isfinite(lat) & (np.abs(lat) <= 90) & (np.abs(lon) <= 180)
    polys = _zone_polygons()
    rows: list[np.ndarray] = []
    names: list[str] = []
    for cont in _continents():
        cand = np.flatnonzero(valid)
        inside = polys[cont].contains(lon[cand], lat[cand])
        sel = cand[inside]
        if not len(sel):
            continue
        x, y = aeqd.forward(cont, lon[sel], lat[sel])
        tx = np.floor(np.asarray(x) / TILE_SIZE).astype(np.int64)
        ty = np.floor(np.asarray(y) / TILE_SIZE).astype(np.int64)
        rows.append(sel)
        names.extend(_tile_name(cont, int(a), int(b)) for a, b in zip(tx, ty))
    return (np.concatenate(rows) if rows else np.empty(0, np.int64)), names


def image_centers(i: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    i = np.asarray(i, dtype=np.float64)
    return -180.0 + np.mod(i * PHI, 360.0), -90.0 + np.mod(i * PSI, 180.0)


def image_shape(i: int) -> tuple[int, int]:
    """(h, w) of synthetic image row ``i``."""
    return SIZES[(i // 3) % 3], SIZES[i % 3]


def image_pixels(i: int) -> np.ndarray:
    h, w = image_shape(i)
    r = np.arange(h, dtype=np.int64)[:, None]
    c = np.arange(w, dtype=np.int64)[None, :]
    return (r * h + c * w + i) % 256


def image_px_mean(idx: np.ndarray) -> np.ndarray:
    """Closed-form mean pixel of each image: the pattern's mean depends
    on the row only through (h, w, i % 256)."""
    out = np.empty(len(idx), np.float64)
    memo: dict[tuple[int, int], float] = {}
    for j, i in enumerate(idx.tolist()):
        h, w = image_shape(i)
        key = (h * 1000 + w, i % 256)
        if key not in memo:
            memo[key] = float(image_pixels(i).mean())
        out[j] = memo[key]
    return out


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------


class Inputs:
    """A generated input: parquet fragments under ``dir`` plus the
    oracle's expectation (JSON-serializable) and the row count a pass
    processes."""

    def __init__(self, dir: Path, rows: int, expected: dict):
        self.dir = Path(dir)
        self.rows = rows
        self.expected = expected

    @property
    def files(self) -> list[str]:
        return sorted(str(p) for p in self.dir.glob("*.parquet"))


class Workload:
    name = ""
    ray_cpus = 1  # logical CPUs given to ray.init
    assign_kwargs: dict = {}  # TileAssigner arguments of the assign workloads

    def __init__(self, scale: float = 1.0):
        self.scale = scale

    def _n(self, n: int, floor: int = 8) -> int:
        return max(floor, int(round(n * self.scale)))

    def inputs(self, work: Path, seed: int) -> Inputs:
        d = Path(work) / "inputs" / f"{self.name}-s{seed}-x{self.scale:g}"
        done = d / "expected.json"
        if not done.exists():
            if d.exists():
                shutil.rmtree(d)
            d.mkdir(parents=True)
            rows, expected = self._generate(d, seed)
            tmp = done.with_suffix(".tmp")
            tmp.write_text(json.dumps({"rows": rows, "expected": expected}))
            tmp.rename(done)
        meta = json.loads(done.read_text())
        return Inputs(d, meta["rows"], meta["expected"])

    def _generate(self, d: Path, seed: int) -> tuple[int, dict]:
        raise NotImplementedError

    def build_engine(self) -> None:
        """Build the driver-side engine state this workload's set-up
        pays for (called with cold process caches)."""
        from equi7grid_ray.stages.tile_assign import make_assign_fn

        make_assign_fn(**self.assign_kwargs)

    def build_local(self) -> None:
        """The same engine state, built in-process without Ray."""
        from equi7grid_ray.stages.tile_assign import TileAssigner

        TileAssigner(**self.assign_kwargs)

    def extra_layers(self, inp: Inputs) -> dict[str, float]:
        """Layer metrics measured outside the replay (none by default)."""
        return {}

    def run_ray(self, inp: Inputs, out_dir: Path):
        raise NotImplementedError

    def run_local(self, inp: Inputs, out_dir: Path):
        raise NotImplementedError

    def check(self, inp: Inputs, out, sample: int | None = 0) -> list[str]:
        """Error messages (empty when ``out`` is right); ``sample``
        picks which partitions or tiles get the expensive checks."""
        raise NotImplementedError


def _read_assign_local(files, columns, assign) -> list[pa.Table]:
    """The read-in-map loop of ``tile_assignments_from_files``: one row
    group at a time through the assigner."""
    out = []
    for path in files:
        pf = pq.ParquetFile(path)
        for rg in range(pf.num_row_groups):
            out.append(assign(pf.read_row_group(rg, columns=columns, use_threads=False)))
    return out


class LocalDataset:
    """In-process stand-in for the two Dataset methods the terminal
    aggregates use, so ``tile_histogram`` runs unchanged without Ray."""

    def __init__(self, tables: list[pa.Table]):
        self.tables = tables

    def map_batches(self, fn, **_kw) -> "LocalDataset":
        return LocalDataset([fn(t) for t in self.tables])

    def iter_batches(self, **_kw):
        return iter(self.tables)


def _hist_dict(table: pa.Table) -> dict[str, int]:
    return dict(zip(table.column("tile").to_pylist(), table.column("n").to_pylist()))


def _compare_counts(got: dict, want: dict, what: str) -> list[str]:
    if got == want:
        return []
    keys = sorted(set(got) | set(want))
    bad = [k for k in keys if got.get(k) != want.get(k)]
    return [f"{what}: {len(bad)} of {len(keys)} tiles differ, e.g. "
            + ", ".join(f"{k}: got {got.get(k)} want {want.get(k)}" for k in bad[:3])]


# ---------------------------------------------------------------------------
# assign_points
# ---------------------------------------------------------------------------


class AssignPoints(Workload):
    """Metadata-only points from the global sweep, 0.1 % invalid."""

    name = "assign_points"
    n_points = 400_000
    n_files = 4
    columns = ["lon", "lat"]
    assign_kwargs = dict(tiling_id=TILING, decode=False, emit_cell=False,
                         emit_xy=False, emit_id=False)

    def _generate(self, d, seed):
        n = self._n(self.n_points, 64)
        rng = np.random.default_rng(seed)
        start = int(rng.integers(0, 2**31))
        idx = np.arange(start, start + n, dtype=np.int64)
        lon, lat = image_centers(idx)
        bad = rng.choice(n, max(4, n // 1000), replace=False)
        kind = np.arange(len(bad)) % 4
        sign = rng.choice([-1.0, 1.0], len(bad))
        lon[bad[kind == 0]] = np.nan
        lat[bad[kind == 1]] = np.nan
        lat[bad[kind == 2]] = sign[kind == 2] * (90.0 + rng.uniform(0.01, 10, (kind == 2).sum()))
        lon[bad[kind == 3]] = sign[kind == 3] * (180.0 + rng.uniform(0.01, 30, (kind == 3).sum()))
        per = -(-n // self.n_files)
        for k, st in enumerate(range(0, n, per)):
            sl = slice(st, min(n, st + per))
            pq.write_table(pa.table({"image_id": idx[sl], "lon": lon[sl], "lat": lat[sl]}),
                           d / f"part-{k:04d}.parquet", row_group_size=131_072)
        _, names = oracle_assign(lon, lat)
        return n, {"hist": dict(Counter(names))}

    def run_ray(self, inp, out_dir):
        from equi7grid_ray.pipelines.flagship import tile_assignments_from_files, tile_histogram

        out = tile_assignments_from_files(inp.files, columns=self.columns, **self.assign_kwargs)
        return _hist_dict(tile_histogram(out))

    def run_local(self, inp, out_dir):
        from equi7grid_ray.pipelines import flagship
        from equi7grid_ray.stages.tile_assign import make_assign_fn

        parts = _read_assign_local(inp.files, self.columns,
                                   make_assign_fn(broadcast=False, **self.assign_kwargs))
        return _hist_dict(flagship.tile_histogram(LocalDataset(parts)))

    def check(self, inp, out, sample=0):
        return _compare_counts(out, inp.expected["hist"], "tile histogram")


# ---------------------------------------------------------------------------
# decode_assign_images
# ---------------------------------------------------------------------------


def tile_px_partials(batch: pa.Table) -> pa.Table:
    """Benchmark-side terminal: per-tile row count and px_mean sum of one
    assignment batch (runs inside the Ray task, fused with the assign)."""
    t = pa.table({"tile": batch.column("tile").cast(pa.string()),
                  "px_mean": batch.column("px_mean")})
    g = t.group_by("tile").aggregate([("px_mean", "count"), ("px_mean", "sum")])
    return g.rename_columns([c.replace("px_mean_", "") for c in g.column_names])


def px_histogram(assignments) -> dict[str, tuple[int, float]]:
    """Terminal aggregate in the shape of ``tile_histogram``: per-block
    partials, folded on the driver into {tile: (rows, px_mean sum)}."""
    partial = assignments.map_batches(tile_px_partials, batch_format="pyarrow")
    tables = [b if isinstance(b, pa.Table) else pa.Table.from_batches([b])
              for b in partial.iter_batches(batch_format="pyarrow", batch_size=None)]
    if not tables:
        return {}
    g = pa.concat_tables(tables).group_by("tile").aggregate([("count", "sum"), ("sum", "sum")])
    return {t: (int(n), float(s)) for t, n, s in zip(
        g.column("tile").to_pylist(), g.column("count_sum").to_pylist(),
        g.column("sum_sum").to_pylist())}


class DecodeAssignImages(Workload):
    """The image+caption table (50/50 raw/PNG, 32/64/128 px), decoded."""

    name = "decode_assign_images"
    n_images = 6000
    n_files = 2
    columns = IMAGE_COLUMNS
    assign_kwargs = dict(tiling_id=TILING, decode=True, emit_cell=False, emit_xy=False)

    def _generate(self, d, seed):
        from equi7grid_ray.sources.images import make_batch

        n = self._n(self.n_images, 16)
        start = int(np.random.default_rng(seed).integers(0, 2**30))
        per = -(-n // self.n_files)
        for k, st in enumerate(range(0, n, per)):
            m = min(per, n - st)
            pq.write_table(make_batch(start + st, m), d / f"part-{k:04d}.parquet",
                           row_group_size=4096, compression="none")
        idx = np.arange(start, start + n, dtype=np.int64)
        rows, names = oracle_assign(*image_centers(idx))
        px = image_px_mean(idx)
        acc: dict[str, list] = {}
        for r, t in zip(rows.tolist(), names):
            e = acc.setdefault(t, [0, 0.0])
            e[0] += 1
            e[1] += float(px[r])
        return n, {"tiles": acc}

    def run_ray(self, inp, out_dir):
        from equi7grid_ray.pipelines.flagship import tile_assignments_from_files

        out = tile_assignments_from_files(inp.files, columns=self.columns, **self.assign_kwargs)
        return px_histogram(out)

    def run_local(self, inp, out_dir):
        from equi7grid_ray.stages.tile_assign import make_assign_fn

        parts = _read_assign_local(inp.files, self.columns,
                                   make_assign_fn(broadcast=False, **self.assign_kwargs))
        return px_histogram(LocalDataset(parts))

    def extra_layers(self, inp, repeats: int = 5):
        """Raw-payload decode cost: the assigner with decode=True minus
        decode=False on the same raw rows (median of ``repeats``)."""
        import time

        from equi7grid_ray.stages.tile_assign import TileAssigner

        t = pq.ParquetFile(inp.files[0]).read_row_group(0, columns=self.columns)
        raw = t.filter(pa.compute.equal(t.column("fmt"), "raw"))
        with_decode = TileAssigner(**self.assign_kwargs)
        without = TileAssigner(**{**self.assign_kwargs, "decode": False})
        diffs = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            with_decode(raw)
            t1 = time.perf_counter()
            without(raw)
            diffs.append((t1 - t0) - (time.perf_counter() - t1))
        return {"tile_assign.raw_decode_us_per_row":
                float(np.median(diffs)) / max(1, raw.num_rows) * 1e6}

    def check(self, inp, out, sample=0):
        want = inp.expected["tiles"]
        errs = _compare_counts({t: v[0] for t, v in out.items()},
                               {t: v[0] for t, v in want.items()}, "per-tile rows")
        bad = [t for t, v in want.items() if t in out
               and abs(out[t][1] - v[1]) > 1e-9 * max(1.0, abs(v[1]))]
        if bad:
            errs.append(f"px_mean sums differ on {len(bad)} tiles, e.g. {bad[0]}: "
                        f"got {out[bad[0]][1]!r} want {want[bad[0]][1]!r}")
        return errs


# ---------------------------------------------------------------------------
# ingest_checkpointed
# ---------------------------------------------------------------------------

#: hot spots (lon, lat): three European and three Asian metro areas
HOT_SPOTS = ((16.37, 48.21), (2.35, 48.86), (-3.70, 40.42),
             (139.69, 35.69), (77.21, 28.61), (121.47, 31.23))


class IngestCheckpointed(Workload):
    """Skewed points written as checkpointed EQUI7_{continent}/{tile}
    partitions with manifests."""

    name = "ingest_checkpointed"
    n_fragments = 2
    rows_per_fragment = 1000
    row_group = 4096
    hot_frac = 0.7
    hot_sigma_deg = 0.75
    assign_kwargs = dict(tiling_id=TILING, decode=False)

    def _generate(self, d, seed):
        rng = np.random.default_rng(seed)
        per = self._n(self.rows_per_fragment, 16)
        expected = {}
        for k in range(self.n_fragments):
            hot = rng.random(per) < self.hot_frac
            spot = np.asarray(HOT_SPOTS)[rng.integers(0, len(HOT_SPOTS), per)]
            lon = np.where(hot, spot[:, 0] + rng.normal(0, self.hot_sigma_deg, per),
                           rng.uniform(-180, 180, per))
            lat = np.where(hot, spot[:, 1] + rng.normal(0, self.hot_sigma_deg, per),
                           np.degrees(np.arcsin(rng.uniform(-1, 1, per))))
            lat = np.clip(lat, -89.9, 89.9)
            ids = np.arange(k * per, (k + 1) * per, dtype=np.int64)
            pid = f"frag-{k:04d}"
            pq.write_table(pa.table({"image_id": ids, "lon": lon, "lat": lat}),
                           d / f"{pid}.parquet", row_group_size=self.row_group)
            _, names = oracle_assign(lon, lat)
            expected[pid] = {"first_id": int(ids[0]), "rows_in": per,
                             "tile_counts": dict(Counter(names))}
        return per * self.n_fragments, expected

    def run_ray(self, inp, out_dir):
        from equi7grid_ray.pipelines.flagship import run_flagship_checkpointed

        run_flagship_checkpointed(str(inp.dir), str(out_dir), **self.assign_kwargs)
        return Path(out_dir)

    def run_local(self, inp, out_dir):
        """Per fragment, the body of ``run_flagship_checkpointed``'s task."""
        from equi7grid_ray.state import checkpoint
        from equi7grid_ray.stages.tile_assign import make_assign_fn

        assign = make_assign_fn(broadcast=False, **self.assign_kwargs)
        for frag in inp.files:
            pf = pq.ParquetFile(frag)
            parts = [assign(pf.read_row_group(rg, use_threads=False))
                     for rg in range(pf.num_row_groups)]
            checkpoint.write_equi7_partition(
                str(out_dir), Path(frag).stem, pa.concat_tables(parts),
                input_fragments=[frag], rows_in=pf.metadata.num_rows)
        return Path(out_dir)

    def check(self, inp, out, sample: int | None = 0):
        errs: list[str] = []
        manifests = {}
        for f in sorted((out / "_manifest").glob("part-*.json")):
            m = json.loads(f.read_text())
            manifests[m["partition_id"]] = m
        if sorted(manifests) != sorted(inp.expected):
            return [f"manifests {sorted(manifests)} != fragments {sorted(inp.expected)}"]
        for pid, want in inp.expected.items():
            m = manifests[pid]
            counts = want["tile_counts"]
            if m["rows_in"] != want["rows_in"] or m["rows_out"] != sum(counts.values()):
                errs.append(f"{pid}: rows_in/out {m['rows_in']}/{m['rows_out']} != "
                            f"{want['rows_in']}/{sum(counts.values())}")
            if m["n_tiles"] != len(counts):
                errs.append(f"{pid}: n_tiles {m['n_tiles']} != {len(counts)}")
            errs += _compare_counts({t: c for t, c in m["tile_counts"].items()},
                                    {t: counts.get(t) for t in m["tile_counts"]},
                                    f"{pid} manifest tile_counts")
            files = list((out / f"part-{pid}").glob("EQUI7_*/*/*.parquet"))
            if len(files) != len(counts):
                errs.append(f"{pid}: {len(files)} tile files != {len(counts)} tiles")
        pids = sorted(inp.expected)
        if sample is not None and not errs:
            pid = pids[sample % len(pids)]
            got = partition_checksum(out / f"part-{pid}", inp.expected[pid]["first_id"],
                                     self.row_group)
            if got != manifests[pid]["checksum"]:
                errs.append(f"{pid}: checksum of re-read files {got} != manifest "
                            f"{manifests[pid]['checksum']}")
        return errs


def partition_checksum(pdir: Path, first_id: int, row_group: int) -> str:
    """Manifest checksum recomputed from a partition's re-read tile files.

    The writer checksums the assigned fragment before it sorts rows into
    per-tile files, so the re-read rows are put back in emit order: row
    group, then continent in grid order, then input row."""
    from equi7grid_ray.state.checkpoint import table_checksum

    files = sorted(pdir.glob("EQUI7_*/*/*.parquet"))
    t = pa.concat_tables([pq.read_table(f) for f in files])
    pos = t.column("image_id").to_numpy() - first_id
    rank = {c: k for k, c in enumerate(_continents())}
    cont = t.column("continent").cast(pa.string()).to_pylist()
    order = np.lexsort((pos, np.array([rank[c] for c in cont]), pos // row_group))
    return table_checksum(t.take(pa.array(order)))


# ---------------------------------------------------------------------------
# warp_gtiff
# ---------------------------------------------------------------------------


class WarpGTiff(Workload):
    """Image fragments warped to full-tile GeoTIFFs.

    ``regrid_pipeline`` reserves one CPU for its read task and one for
    each of its actor pools; with fewer than 3 logical CPUs only the
    first pool starts and the run hangs, so Ray gets 4 here."""

    name = "warp_gtiff"
    ray_cpus = 4
    n_fragments = 1
    images_per_fragment = 32
    tiles_checked = 3

    def _generate(self, d, seed):
        from equi7grid_ray.sources.images import make_batch

        per = self._n(self.images_per_fragment, 2)
        start = int(np.random.default_rng(seed).integers(0, 2**30))
        for k in range(self.n_fragments):
            pq.write_table(make_batch(start + k * per, per), d / f"frag-{k:04d}.parquet",
                           compression="none")
        return per * self.n_fragments, {"images_per_fragment": per}

    def build_engine(self):
        from equi7grid_ray.tiling_state import get_grid_state

        st = get_grid_state()
        for c in _continents():
            st.tiles(c, TILING)

    def build_local(self):
        from equi7grid_ray.stages.regrid import ExpandTilePairs

        ExpandTilePairs(tiling_id=TILING)

    def run_ray(self, inp, out_dir):
        from equi7grid_ray.pipelines.warp import resample_to_equi7_tiles

        resample_to_equi7_tiles(str(inp.dir), str(out_dir), tiling_id=TILING, out_format="gtiff")
        return Path(out_dir)

    def run_local(self, inp, out_dir, batch_size: int = 1024):
        """Per fragment, the stages of ``resample_to_equi7_tiles`` with
        the batch sizes its Ray pipeline uses, then the driver write."""
        from equi7grid_ray.stages.regrid import ExpandTilePairs, GTiffEncodeStage, RegridStage
        from equi7grid_ray.state import checkpoint

        expand = ExpandTilePairs(tiling_id=TILING)
        regrid = RegridStage(tiling_id=TILING)
        for frag in inp.files:
            pid = Path(frag).stem
            encode = GTiffEncodeStage(tiling_id=TILING, stem=pid)
            t = pq.read_table(frag)
            pairs = [expand(t.slice(s, batch_size)) for s in range(0, t.num_rows, batch_size)]
            wins = [regrid(p.slice(s, batch_size)) for p in pairs
                    for s in range(0, p.num_rows, batch_size)]
            step = max(1, batch_size // 64)
            enc = [encode(w.slice(s, step)) for w in wins for s in range(0, w.num_rows, step)]
            checkpoint.write_equi7_raster_partition(
                str(out_dir), pid, pa.concat_tables(enc) if enc else None,
                input_fragments=[frag], rows_in=t.num_rows)
        return Path(out_dir)

    def check(self, inp, out, sample: int | None = 0):
        errs = []
        per = inp.expected["images_per_fragment"]
        tifs = []
        for frag in inp.files:
            pid = Path(frag).stem
            mf = out / "_manifest" / f"part-{pid}.json"
            if not mf.exists():
                errs.append(f"{pid}: no manifest")
                continue
            m = json.loads(mf.read_text())
            found = sorted((out / f"part-{pid}").glob("EQUI7_*/*/*.tif"))
            if m["rows_in"] != per or m["rows_out"] != len(found) or not found:
                errs.append(f"{pid}: rows_in/out {m['rows_in']}/{m['rows_out']} with "
                            f"{len(found)} files for {per} images")
            tifs += [(pid, f) for f in found]
        if sample is not None and tifs:
            rng = np.random.default_rng(sample)
            for k in rng.choice(len(tifs), min(self.tiles_checked, len(tifs)), replace=False):
                errs += check_tile(*tifs[int(k)])
        return errs


def check_tile(pid: str, path: Path) -> list[str]:
    """Decode one written tile and compare it with nearest-neighbour
    source values at exact ``aeqd.inverse`` pixel centres: inside the
    source footprint (plus a 2-pixel margin) every pixel is compared,
    outside it every pixel must be nodata."""
    from equi7grid_ray import aeqd
    from equi7grid_ray.gtiff import decode_gtiff

    cont = path.parent.parent.name.removeprefix("EQUI7_")
    part = path.parent.name
    ftile = f"{cont}_{part}"
    i = int(path.name[len(pid) + 4: -len(ftile) - 5].removeprefix("img"))
    llx = float(part[1:4]) * 1e5
    lly = (-1 if part[4] == "S" else 1) * float(part[5:8]) * 1e5
    arr = decode_gtiff(path.read_bytes()).array
    if arr.shape != (NPIX, NPIX):
        return [f"{path.name}: shape {arr.shape}"]
    h, w = image_shape(i)
    lon0, lat0 = (float(v[0]) for v in image_centers(np.array([i])))
    # footprint outline -> tile pixel box
    f = np.linspace(-0.5, 0.5, 9)
    ex = np.concatenate([f, f, np.full(9, -0.5), np.full(9, 0.5)])
    ey = np.concatenate([np.full(9, -0.5), np.full(9, 0.5), f, f])
    x, y = aeqd.forward(cont, lon0 + ex * w * SRC_RES_DEG,
                        np.clip(lat0 + ey * h * SRC_RES_DEG, -90, 90))
    c0 = max(0, int(np.floor((np.min(x) - llx) / SAMPLING)) - 2)
    c1 = min(NPIX, int(np.ceil((np.max(x) - llx) / SAMPLING)) + 2)
    r0 = max(0, int(np.floor((lly + TILE_SIZE - np.max(y)) / SAMPLING)) - 2)
    r1 = min(NPIX, int(np.ceil((lly + TILE_SIZE - np.min(y)) / SAMPLING)) + 2)
    expect = np.zeros((NPIX, NPIX), np.uint8)
    if r1 > r0 and c1 > c0:
        rr, cc = np.mgrid[r0:r1, c0:c1]
        glon, glat = aeqd.inverse(cont, llx + (cc + 0.5) * SAMPLING,
                                  lly + TILE_SIZE - (rr + 0.5) * SAMPLING)
        u = np.rint((glon - lon0) / SRC_RES_DEG + w / 2.0 - 0.5).astype(np.int64)
        v = np.rint((lat0 - glat) / SRC_RES_DEG + h / 2.0 - 0.5).astype(np.int64)
        ok = (u >= 0) & (u < w) & (v >= 0) & (v < h)
        expect[r0:r1, c0:c1] = np.where(ok, (v * h + u * w + i) % 256, 0)
    bad = int((arr != expect).sum())
    if bad:
        return [f"{path.name}: {bad} pixels differ from the nearest-neighbour oracle"]
    if not expect.any():
        return [f"{path.name}: written tile has no source pixel"]
    return []


WORKLOADS = {w.name: w for w in (AssignPoints, DecodeAssignImages, IngestCheckpointed, WarpGTiff)}
