"""Benchmark harness (driver contract).

Prints ONE JSON line:
  {"metric": "...", "value": <headline sec>, "unit": "sec",
   "queries": {...per-query sec...}, "sf": ..., "num_cpus": N,
   "rows_per_sec": {...}}

Headline = the north-star path (BASELINE.json "metric"): synthetic
image+caption rows through decode -> zone PIP -> AEQD forward -> tile
assign, plus a larger 256M-row metadata-only assign run.  Inputs are generated
deterministically once and cached under /tmp (generation excluded from
timing; one warm pass primes the page cache).

``--scaling`` re-runs the headline in fresh processes at
RAY_GRAFT_CPUS=8 and 32 on the same input and reports throughputs +
scaling efficiency (the sandbox stand-in for the N vs 4N cluster-size
criterion), appending the result to BENCH/BASELINE.md.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

N_DECODE_ROWS = 1_000_000
N_ASSIGN_ROWS = 256_000_000
# file counts sized so both 8- and 32-cpu runs split the files evenly.
# tile_assignments_from_files runs one read->assign task per group of
# contiguous files, at most one per CPU (64 files: 8 tasks of 8 files on
# 8 cpus, 32 tasks of 2 on 32), i.e. ONE static wave where one task per
# file used to give many waves that balance load as workers free up.
# The grouping was measured only on a 1-cpu cluster (perfbench); its
# effect on these 8- and 32-cpu runs is unmeasured.  Each group is one
# override_num_blocks block, so the read stays unsplit and FUSES with the
# assign; the image payloads never transit the object store -- decisive
# on this VM (~4 GB/s aggregate memory bandwidth, slow first-touch paging).
N_DECODE_FILES = 128
N_ASSIGN_FILES = 64
SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
# float32-coordinate input variant (half the bytes/row on the assign
# sweep): a measured data point for the DRAM-bandwidth analysis, NOT the
# default (round-2 advisor discussion)
COORD_F32 = os.environ.get("GRAFT_COORD_F32") == "1"


def _gen_inputs() -> tuple[str, str]:
    """Generate (once) the bench inputs; cached across runs."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from equi7grid_ray.sources.images import centers_for_index, write_images_parquet

    img_dir = Path(f"/tmp/e7r_bench_images_{N_DECODE_ROWS}_f{N_DECODE_FILES}")
    if not (img_dir / "_DONE").exists():
        import ray

        # parallel generation: one task per file
        @ray.remote(num_cpus=1)
        def gen_part(start: int, n: int) -> None:
            import pyarrow.parquet as pq
            from equi7grid_ray.sources.images import make_batch
            f = img_dir / f"part-{start:012d}-{n}.parquet"
            if f.exists():
                return
            tmp = f.with_suffix(f".{start}.tmp")
            pq.write_table(make_batch(start, n), tmp, row_group_size=4096,
                           compression="none")
            tmp.rename(f)

        img_dir.mkdir(parents=True, exist_ok=True)
        step = -(-N_DECODE_ROWS // N_DECODE_FILES)
        ray.get([gen_part.remote(s, min(step, N_DECODE_ROWS - s))
                 for s in range(0, N_DECODE_ROWS, step)])
        (img_dir / "_DONE").touch()

    meta_dir = Path(
        f"/tmp/e7r_bench_meta_{N_ASSIGN_ROWS}_f{N_ASSIGN_FILES}"
        + ("_f32" if COORD_F32 else "")
    )
    if not (meta_dir / "_DONE").exists():
        import ray

        @ray.remote(num_cpus=1)
        def gen_meta(s: int, e: int) -> None:
            import numpy as np
            import pyarrow as pa
            import pyarrow.parquet as pq
            from equi7grid_ray.sources.images import centers_for_index
            f = meta_dir / f"part-{s:012d}.parquet"
            if f.exists():
                return
            idx = np.arange(s, e, dtype=np.int64)
            lon, lat = centers_for_index(idx)
            if os.environ.get("GRAFT_COORD_F32") == "1":
                lon = lon.astype(np.float32)
                lat = lat.astype(np.float32)
            tmp = f.with_suffix(f".{s}.tmp")
            pq.write_table(
                pa.table({"image_id": pa.array(idx, pa.int64()),
                          "lon": pa.array(lon), "lat": pa.array(lat)}),
                tmp, row_group_size=131_072,
            )
            tmp.rename(f)

        meta_dir.mkdir(parents=True, exist_ok=True)
        chunk = -(-N_ASSIGN_ROWS // N_ASSIGN_FILES)
        ray.get([gen_meta.remote(s, min(s + chunk, N_ASSIGN_ROWS))
                 for s in range(0, N_ASSIGN_ROWS, chunk)])
        (meta_dir / "_DONE").touch()
    return str(img_dir), str(meta_dir)


def _headline(img_dir: str, meta_dir: str) -> dict:
    import ray.data as rd

    from equi7grid_ray.pipelines.flagship import tile_assignments, tile_histogram

    times: dict[str, float] = {}
    rates: dict[str, float] = {}

    # one block per input file: keeps the read unsplit so Ray Data fuses
    # ReadParquet->MapBatches(assign) into a single task -- input bytes go
    # page cache -> task heap, never through the object store.  batch_size
    # is left unset for the same reason (a bundling constraint would veto
    # fusion); each task maps over its whole file (250k meta rows / ~8k
    # image rows -- both fit worker heaps comfortably).

    # warm the page cache (untimed): both inputs, all columns
    rd.read_parquet(meta_dir, columns=["image_id"]).count()
    rd.read_parquet(img_dir, columns=["bytes"]).map_batches(
        lambda t: t.select(["bytes"]).slice(0, 1), batch_format="pyarrow"
    ).count()

    # Each phase runs twice in the same cluster and reports the faster
    # pass: with seconds-scale phases, worker spawn / import / plasma
    # first-touch cold-start would otherwise dominate the measurement
    # (observed 2x run-to-run swings).  Steady-state throughput is what
    # the N-vs-4N scaling criterion compares.
    n_assign = 0

    import glob as _glob

    from equi7grid_ray.pipelines.flagship import tile_assignments_from_files

    def run_assign() -> int:
        files = sorted(_glob.glob(f"{meta_dir}/*.parquet"))
        # projection pushdown: the tile histogram terminal never reads
        # the id column, so neither the read nor the assign emits it
        out = tile_assignments_from_files(files, columns=["lon", "lat"],
                                          decode=False, emit_cell=False,
                                          emit_xy=False, emit_id=False)
        # terminal aggregate: per-tile histogram with the combiner fused
        # into the assign task (read->assign->partial_counts is ONE task;
        # only |tiles|-row partials hit the object store / shuffle)
        hist = tile_histogram(out).to_pandas()
        return int(hist["n"].sum())

    def run_decode() -> int:
        files = sorted(_glob.glob(f"{img_dir}/*.parquet"))
        out = tile_assignments_from_files(
            files, columns=["image_id", "bytes", "w", "h", "fmt"],
            decode=True, emit_cell=False, emit_xy=False)
        hist = tile_histogram(out).to_pandas()
        assert len(hist) > 1000
        return int(hist["n"].sum())

    for name, fn in (("assign_256m", run_assign), ("decode_assign_1m", run_decode)):
        best = float("inf")
        # high concurrency levels need several passes to reach steady
        # state (32 workers spawning + broadcast-state fetch + plasma
        # first-touch: measured 16 -> 13 -> 10.5 -> 9.6s over trials)
        trials = 3 if name == "assign_256m" else 4
        for _trial in range(trials):
            time.sleep(2)  # let the object store settle between heavy runs
            t0 = time.time()
            n = fn()
            best = min(best, time.time() - t0)
        times[name] = best
        if name == "assign_256m":
            n_assign = n
            rates["assign_rows_per_sec"] = n / best
        else:
            rates["decode_rows_per_sec"] = N_DECODE_ROWS / best
    return {"times": times, "rates": rates, "n_assign": n_assign}


def _driver_queries() -> dict[str, float]:
    import ray.data as rd

    import __ray_entry__ as e

    # untimed session warm-up: spawn worker processes and touch the input
    # page cache so the first timed query doesn't absorb the cold start
    for tbl in ("lineitem", "documents", "events", "embeddings"):
        rd.read_parquet(f"{SF_DIR}/{tbl}.parquet").map_batches(
            lambda t: t.slice(0, 1), batch_format="pyarrow"
        ).count()

    out: dict[str, float] = {}
    # every query, in queries() order (pinned by
    # tests/data/query_order.txt, so runs stay comparable)
    for name, fn in e.queries().items():
        best = float("inf")
        for _trial in range(2):  # best-of-2: the VM's run-to-run noise
            t0 = time.time()     # is +-30% on seconds-scale queries
            res = fn(SF_DIR)
            if hasattr(res, "count"):
                res.count()  # consume the stream
            best = min(best, time.time() - t0)
        out[name] = round(best, 3)
    return out


def run_bench(headline_only: bool = False) -> dict:
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=NUM_CPUS,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False

    img_dir, meta_dir = _gen_inputs()
    # Run the small sf0.1 driver queries FIRST, then restart the Ray
    # session before the heavy headline phases: in round 2 the order was
    # reversed and every small query measured ~3x slower than round 1 --
    # the 256M-row sweeps leave 32 bloated workers, a full object store
    # and an evicted page cache behind (round-2 verdict "Performance"
    # regression flag).  A session boundary + cool-down isolates them.
    small: dict[str, float] = {}
    if not headline_only:
        small = _driver_queries()
        ray.shutdown()
        time.sleep(3)
        ray.init(
            address="local",
            num_cpus=NUM_CPUS,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
        ray.data.DataContext.get_current().enable_progress_bars = False
    h = _headline(img_dir, meta_dir)
    queries = dict(h["times"])
    queries.update(small)
    value = sum(h["times"].values())
    result = {
        "metric": "tile-assignments/sec (decode->PIP->tile-assign headline)",
        "value": round(value, 3),
        "unit": "sec",
        "queries": queries,
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "rows_per_sec": {k: round(v) for k, v in h["rates"].items()},
    }
    ray.shutdown()
    return result


def run_scaling() -> dict:
    """Same job, fresh processes, N vs 4N CPUs (two pairs: 4->16, 8->32).

    This single-VM stand-in for the two-cluster-size criterion measures
    throughput scaling of the headline pipeline.  Note: the sandbox's
    aggregate memory bandwidth saturates near 4 GB/s (measured, see
    BENCH/BASELINE.md), which caps wall-clock scaling of copy-heavy
    stages at high core counts -- a real N->4N *node* scale-out
    multiplies memory bandwidth with node count and does not hit this."""
    def run(ncpu: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu))
        if COORD_F32:
            env["GRAFT_COORD_F32"] = "1"
        # Confine each level to exactly `ncpu` HARDWARE threads: on a
        # real N- vs 4N-node cluster, Ray's per-node system processes
        # (raylet, GCS, driver) share every node's cores at BOTH sizes.
        # Unconfined, the small level gets a free ride -- its raylet and
        # driver run on the box's idle cores -- which understates true
        # cluster scaling.  taskset puts that overhead inside the
        # measured budget at both levels.
        cmd = [sys.executable, "bench.py", "--headline-only"]
        if os.path.exists("/usr/bin/taskset"):
            cmd = ["taskset", "-c", f"0-{ncpu - 1}"] + cmd
        out = subprocess.run(
            cmd, env=env, capture_output=True, text=True, check=True,
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    levels = (8, 32) if COORD_F32 else (4, 16, 8, 32)
    results = {n: run(n) for n in levels}
    pairs = {}
    for lo_n, hi_n in (((8, 32),) if COORD_F32 else ((4, 16), (8, 32))):
        t_lo = results[lo_n]["value"]
        t_hi = results[hi_n]["value"]
        pairs[f"{lo_n}to{hi_n}"] = {
            f"sec_{lo_n}": t_lo,
            f"sec_{hi_n}": t_hi,
            "scaling_efficiency": round((t_lo / t_hi) / (hi_n / lo_n), 3),
        }
    res = {"pairs": pairs,
           "rows_per_sec": {n: r["rows_per_sec"] for n, r in results.items()}}
    md = Path("BENCH/BASELINE.md")
    md.parent.mkdir(exist_ok=True)
    stamp = time.strftime("%Y-%m-%d %H:%M:%S")
    with md.open("a") as f:
        f.write(f"\n## Scaling run {stamp}"
                + (" (float32-coordinate input variant)" if COORD_F32 else "")
                + "\n\n")
        f.write("| num_cpus | headline sec | assign rows/s | decode rows/s |\n|---|---|---|---|\n")
        for n in sorted(levels):
            r = results[n]
            f.write(f"| {n} | {r['value']} | {r['rows_per_sec']['assign_rows_per_sec']} | {r['rows_per_sec']['decode_rows_per_sec']} |\n")
        for k, p in pairs.items():
            f.write(f"\nScaling efficiency {k.replace('to', ' -> ')} cpus: **{p['scaling_efficiency']}** (target >= 0.8)\n")
    return res


def run_alu(n_points: int = 96_000_000) -> dict:
    """ALU-bound ENGINE pipeline (no input bytes, no broadcast-raster
    gathers): in-task coordinate generation -> Karney-series geodesic
    length distortion -> 1-row partial fold per task.  The access mix
    is pure register/L1 arithmetic, the one resource class the box DOES
    scale 8->32 (ceiling probes: 0.75-0.89) -- so this isolates
    engine-added serialization from the DRAM ceiling that caps the
    payload headline."""
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=NUM_CPUS,
                 include_dashboard=False, ignore_reinit_error=True,
                 logging_level="ERROR")
    import ray.data as rd

    rd.DataContext.get_current().enable_progress_bars = False
    blocks = max(NUM_CPUS * 8, 64)
    per = n_points // blocks

    def work(batch):
        import numpy as np
        import pyarrow as _pa

        from equi7grid_ray.aeqd import length_distortion_ellipsoid

        j = int(batch.column("id")[0].as_py())
        rng = np.random.default_rng(j)
        lon = rng.uniform(-40.0, 40.0, per)   # EU zone interior
        lat = rng.uniform(30.0, 70.0, per)
        # 8k-point chunks keep the ~30 numpy temporaries of the Karney
        # series chain L2-resident -- full-block numpy would stream
        # every temporary through DRAM and measure the memory ceiling,
        # not the arithmetic
        acc = 0.0
        chunk = 8192
        for s0 in range(0, per, chunk):
            k = length_distortion_ellipsoid(
                "EU", lon[s0:s0 + chunk], lat[s0:s0 + chunk])
            acc += float(k.sum())
        return _pa.table({"s": _pa.array([acc]),
                          "n": _pa.array([per])})

    # untimed warm-up: spawn the worker pool + import numpy/pyarrow in
    # every worker, so both parallelism levels measure steady state
    # (at 32 procs the pool spawn alone is seconds -- a real cluster
    # has long-lived workers at both sizes)
    rd.range(NUM_CPUS * 2, override_num_blocks=NUM_CPUS * 2).map_batches(
        work, batch_format="pyarrow").count()

    t0 = time.time()
    parts = rd.range(blocks, override_num_blocks=blocks).map_batches(
        work, batch_format="pyarrow")
    tot = sum(sum(b["n"].to_pylist()) for b in
              parts.iter_batches(batch_format="pyarrow"))
    dt = time.time() - t0
    ray.shutdown()
    return {"metric": "alu-distortions/sec", "value": round(dt, 3),
            "unit": "sec", "n_points": tot, "num_cpus": NUM_CPUS,
            "rows_per_sec": {"alu_rows_per_sec": round(tot / dt)}}


def run_scaling_alu() -> dict:
    """8 vs 32 cpus on the ALU-bound engine pipeline (fresh
    taskset-confined processes, same protocol as run_scaling)."""
    def run(ncpu: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu))
        cmd = [sys.executable, "bench.py", "--alu-only"]
        if os.path.exists("/usr/bin/taskset"):
            cmd = ["taskset", "-c", f"0-{ncpu - 1}"] + cmd
        out = subprocess.run(cmd, env=env, capture_output=True, text=True,
                             check=True).stdout
        return json.loads(out.strip().splitlines()[-1])

    results = {n: run(n) for n in (8, 32)}
    eff = round((results[8]["value"] / results[32]["value"]) / 4.0, 3)
    res = {"sec_8": results[8]["value"], "sec_32": results[32]["value"],
           "scaling_efficiency_8to32": eff,
           "rows_per_sec": {n: r["rows_per_sec"] for n, r in results.items()}}
    md = Path("BENCH/BASELINE.md")
    md.parent.mkdir(exist_ok=True)
    with md.open("a") as f:
        f.write(f"\n## ALU-bound engine scaling run "
                f"{time.strftime('%Y-%m-%d %H:%M:%S')}\n\n"
                "In-task coordinate generation -> Karney geodesic "
                "distortion -> 1-row partials (no input bytes, no "
                "raster gathers): the register/L1 access class the box "
                "scales.\n\n")
        f.write("| num_cpus | sec | distortions/s |\n|---|---|---|\n")
        for n in (8, 32):
            r = results[n]
            f.write(f"| {n} | {r['value']} | "
                    f"{r['rows_per_sec']['alu_rows_per_sec']} |\n")
        f.write(f"\nScaling efficiency 8 -> 32 cpus: **{eff}**\n")
    return res


if __name__ == "__main__":
    if "--scaling-alu" in sys.argv:
        print(json.dumps(run_scaling_alu()))
    elif "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    elif "--alu-only" in sys.argv:
        print(json.dumps(run_alu()))
    else:
        print(json.dumps(run_bench(headline_only="--headline-only" in sys.argv)))
