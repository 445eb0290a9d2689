"""Engine benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  ``--trace 0`` runs the workload's public
Ray pipeline in a closed loop (one pass at a time) for ``--seconds`` of
timed passes and reports the end-to-end metrics; ``--trace 1`` replays
the same input in-process without Ray with spans around each layer, then
runs one untraced Ray pass for Ray Data's per-operator times, and reports
the per-layer metrics.  Every pass's output is checked against an
independent oracle.  Metric names and units come from BENCHMARK.json; the
last stdout line is the JSON result.  ``--workload all`` runs every
workload in turn and prints one summary line each.

Inputs, outputs and Ray's session files live under ``.bench_work/`` and
``.ray/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
OUT = WORK / "out"
SETUP_REPEATS = 3  # cold engine-state builds per run; setup_s uses the median
MIN_PASSES = 4
# untimed passes before the timed loop; setup_s ends with the first one.
# The engine's per-process caches (one broadcast assigner per pipeline,
# up to four) fill over the first passes, and timing them would tie the
# memory and rate figures to how many passes a run happens to make.
WARMUP_PASSES = 3
DEADLINE_S = 165.0  # every run ends well inside the 180 s limit
OBJECT_STORE_BYTES = 384 << 20
AF_UNIX_MAX = 107
RAY_SESSION_SOCKET_CHARS = 64  # "/session_<date>_<time>_<us>_<pid>/sockets/plasma_store"


def process_age() -> float:
    """Seconds since this process started (from /proc, 10 ms ticks)."""
    with open("/proc/self/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# process tree: memory sampling and cleanup
# ---------------------------------------------------------------------------


def _children_map() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        kids.setdefault(ppid, []).append(int(d))
    return kids


def descendants(pid: int) -> list[int]:
    kids, out, todo = _children_map(), [], [pid]
    while todo:
        for c in kids.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def _rss_bytes(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/statm") as f:
            return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, IndexError, ValueError):
        return 0


def _is_ray_worker(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read(5) == b"ray::"
    except OSError:
        return False


def tree_rss(pid: int) -> tuple[int, int]:
    """(summed RSS of ``pid`` and its Ray worker descendants, workers)."""
    workers = [c for c in descendants(pid) if _is_ray_worker(c)]
    return _rss_bytes(pid) + sum(_rss_bytes(c) for c in workers), len(workers)


class RssSampler:
    """Samples :func:`tree_rss` of this process from a thread until
    stopped; :meth:`mark` returns the peak since the previous mark."""

    def __init__(self, period: float = 0.2):
        self.period = period
        self.peak = (0, 0)
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        pid = os.getpid()
        while True:
            sample = tree_rss(pid)
            with self._lock:
                self.peak = max(self.peak, sample)
            if self._stop.wait(self.period):
                return

    def mark(self) -> tuple[int, int]:
        """(peak bytes, workers at that peak) since the last mark."""
        with self._lock:
            peak, self.peak = self.peak, tree_rss(os.getpid())
        return peak

    def __enter__(self) -> "RssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (OSError, IndexError):
        return False


def kill_tree(timeout: float = 15.0) -> None:
    """SIGKILL every descendant of this process and wait until all have
    ended (reaping this process's own children)."""
    pids = descendants(os.getpid())
    for c in pids:
        try:
            os.kill(c, signal.SIGKILL)
        except OSError:
            pass
    deadline = time.monotonic() + timeout
    while True:
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            pass
        pids = [p for p in pids if _alive(p)]
        if not pids or time.monotonic() > deadline:
            return
        time.sleep(0.05)


# ---------------------------------------------------------------------------
# Ray session
# ---------------------------------------------------------------------------


class RaySession:
    def __init__(self, cpus: int):
        self.cpus = cpus
        self.tmp = ROOT / ".ray"

    def __enter__(self) -> "RaySession":
        import logging

        import ray
        import ray.data as rd

        if len(str(self.tmp)) + RAY_SESSION_SOCKET_CHARS > AF_UNIX_MAX:
            raise SystemExit(f"perfbench: {self.tmp} is too long for Ray's unix sockets; "
                             "run from a checkout with a shorter path")
        # Ray workers import the engine and this package from the root
        os.environ["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT), os.environ.get("PYTHONPATH")) if p)
        os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
        # Ray kills a worker idle for a second; the output checks between
        # passes would then decide how many workers (each with its own
        # copy of the engine state) a pass finds alive or has to start
        ray.init(address="local", num_cpus=self.cpus, include_dashboard=False,
                 logging_level="ERROR", log_to_driver=False,
                 object_store_memory=OBJECT_STORE_BYTES, _temp_dir=str(self.tmp),
                 _system_config={"idle_worker_killing_time_threshold_ms": 600_000})
        rd.DataContext.get_current().enable_progress_bars = False
        logging.getLogger("ray.data").setLevel(logging.WARNING)
        return self

    def __exit__(self, *exc) -> None:
        import ray

        ray.shutdown()
        shutil.rmtree(self.tmp, ignore_errors=True)


def call_with_timeout(fn, timeout: float, *args):
    """Run ``fn(*args)`` in a thread; raise TimeoutError after
    ``timeout`` seconds (the thread is abandoned)."""
    box: dict = {}

    def target():
        try:
            box["value"] = fn(*args)
        except BaseException as e:  # handed to the caller below
            box["error"] = e

    th = threading.Thread(target=target, daemon=True)
    th.start()
    th.join(timeout)
    if th.is_alive():
        raise TimeoutError(f"{getattr(fn, '__qualname__', fn)} exceeded {timeout:.0f} s")
    if "error" in box:
        raise box["error"]
    return box["value"]


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


class Ledger:
    """Attempted / failed passes, and the time spent checking outputs
    (never part of a timed figure)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.check_s = 0.0
        self.rss: RssSampler | None = None
        self.pass_peaks: list[tuple[int, int]] = []

    def record(self, wl, inp, fn, timeout: float):
        """One pass: run, then check.  Returns the run's duration,
        or None when the pass raised, timed out or failed its check."""
        self.attempted += 1
        # outputs stay until the run ends: deleting files between passes
        # leaves file-system work that would overlap the next timed pass
        out_dir = OUT / f"pass-{self.attempted:04d}"
        if self.rss:
            self.rss.mark()
        t0 = time.perf_counter()
        dt = None
        try:
            out = call_with_timeout(fn, timeout, inp, out_dir)
            dt = time.perf_counter() - t0
            if self.rss:
                self.pass_peaks.append(self.rss.mark())
            errs = wl.check(inp, out, self.attempted)
        except Exception as e:  # a failing pass is counted, not fatal
            errs = [f"{type(e).__name__}: {e}"]
        if dt is not None:
            self.check_s += time.perf_counter() - t0 - dt
        if errs:
            self.failed += 1
            for e in errs[:5]:
                log(f"{wl.name} pass {self.attempted} failed: {e}")
            return None
        return dt


def remaining(t_start: float) -> float:
    return DEADLINE_S - (time.perf_counter() - t_start)


def timed_run(wl, inp, seconds: float, t_start: float, excluded: float) -> tuple[Ledger, dict]:
    """End-to-end metrics: closed loop of Ray passes, one at a time."""
    from perfbench.trace import cold_caches

    ledger = Ledger()
    with RaySession(wl.ray_cpus):
        builds = []
        for _ in range(SETUP_REPEATS):
            cold_caches()
            t0 = time.perf_counter()
            wl.build_engine()
            builds.append(time.perf_counter() - t0)
        # first warm-up pass: spawns workers and ships the broadcast state
        ledger.record(wl, inp, wl.run_ray, remaining(t_start))
        setup_s = (time.perf_counter() - t_start - excluded - ledger.check_s
                   - sum(builds) + statistics.median(builds))
        for _ in range(WARMUP_PASSES - 1):
            ledger.record(wl, inp, wl.run_ray, remaining(t_start))
        times: list[float] = []
        with RssSampler() as ledger.rss:
            while remaining(t_start) > 5 and ledger.failed < 3 and not (
                    sum(times) >= seconds and len(times) >= MIN_PASSES):
                dt = ledger.record(wl, inp, wl.run_ray, remaining(t_start))
                if dt is not None:
                    times.append(dt)
    if not times:
        raise SystemExit(f"perfbench: {wl.name}: no pass succeeded")
    peaks = sorted(ledger.pass_peaks)
    log(f"{wl.name}: {len(times)} timed passes, median {statistics.median(times):.4f} s, "
        f"range {min(times):.4f}-{max(times):.4f} s, "
        f"engine builds {[round(b, 3) for b in builds]} s, "
        f"pass peak RSS {peaks[0][0] / 1e6:.0f}-{peaks[-1][0] / 1e6:.0f} MB "
        f"with {peaks[0][1]}-{peaks[-1][1]} workers; pass times "
        f"{[round(t, 3) for t in times]}")
    return ledger, {"rows_per_s": inp.rows / statistics.median(times),
                    "setup_s": setup_s,
                    "peak_rss_mb": statistics.median(p[0] for p in peaks) / 1e6}


def _per(stats, name, key, scale=1e6, denom="rows"):
    s = stats.get(name)
    if not s or not s.get(denom):
        return 0.0
    return s[key] / s[denom] * scale


def traced_run(wl, inp, seconds: float, t_start: float) -> tuple[Ledger, dict]:
    """Per-layer metrics: in-process replays without Ray (untraced and
    traced, alternating, for about ``seconds``), then one untraced Ray
    pass for Ray Data's per-operator times."""
    from perfbench.trace import SPANS, RayDataStats, Tracer, cold_caches

    ledger = Ledger()
    cold_caches()
    with Tracer() as build:
        wl.build_local()
    ledger.record(wl, inp, wl.run_local, remaining(t_start))  # warm caches
    untraced, traced, files = [], [], []
    tracer = Tracer()

    def traced_pass(inp, out_dir):
        with tracer:
            out = wl.run_local(inp, out_dir)
        parts = list(Path(out_dir).glob("part-*")) if isinstance(out, Path) else []
        if parts:
            files.append(sum(1 for p in parts for f in p.rglob("*") if f.is_file()) / len(parts))
        return out

    while remaining(t_start) > 60 and ledger.failed < 3 and not (
            sum(untraced) + sum(traced) >= seconds and len(traced) >= 3):
        for fn, sink in ((wl.run_local, untraced), (traced_pass, traced)):
            dt = ledger.record(wl, inp, fn, remaining(t_start))
            if dt is not None:
                sink.append(dt)
    extra = wl.extra_layers(inp)
    with RaySession(wl.ray_cpus):
        wl.build_engine()
        ledger.record(wl, inp, wl.run_ray, remaining(t_start))
        with RayDataStats() as rds:
            ray_wall = ledger.record(wl, inp, wl.run_ray, remaining(t_start))
        ops = rds.operator_seconds()
    if not (untraced and traced and ray_wall):
        raise SystemExit(f"perfbench: {wl.name}: traced run had failing passes")

    st = {k: {kk: v / len(traced) for kk, v in s.items()} for k, s in tracer.stats.items()}
    wall_u, wall_t = statistics.median(untraced), statistics.median(traced)
    png_fallback = (st.get("codec.png_fallback", {}).get("rows", 0.0)
                    / max(1.0, st.get("codec.png", {}).get("rows", 0.0)))
    m = {
        "interp.project_us_per_row": _per(st, "interp.project", "self"),
        "interp.build_s": build.stats["interp.build"]["total"],
        "zones.classify_us_per_row": _per(st, "zones.classify", "self"),
        "zones.unzoned_rows": st.get("zones.classify", {}).get("unzoned", 0.0),
        "grid.floor_us_per_row": _per(st, "grid.floor", "self"),
        "grid.names_us_per_row": _per(st, "grid.names", "self"),
        "tiling_state.lookup_us_per_row": _per(st, "tiling_state.lookup", "self"),
        "tiling_state.lookup_miss_frac": _per(st, "tiling_state.lookup", "miss", 1.0),
        "tiling_state.grid_state_s": build.stats["tiling_state.grid_state"]["total"],
        "tile_assign.emit_us_per_row": _per(st, "tile_assign.emit", "self"),
        "tile_assign.rows_in": st.get("tile_assign.emit", {}).get("rows", 0.0),
        "tile_assign.rows_out": st.get("tile_assign.emit", {}).get("out", 0.0),
        "tile_assign.raw_decode_us_per_row": 0.0,
        # every PNG row calls png_stream_stats once; filtered ones then
        # fall back to a full decode_image
        "codec.png_us_per_row": (_per(st, "codec.png", "self")
                                 + _per(st, "codec.png_fallback", "self") * png_fallback),
        "codec.png_fallback_frac": png_fallback,
        "flagship.read_us_per_row": _per(st, "flagship.read", "self"),
        "flagship.fold_s": st.get("flagship.fold", {}).get("total", 0.0),
        "aeqd.forward_us_per_row": _per(st, "aeqd.forward", "self"),
        "aeqd.inverse_us_per_px": _per(st, "aeqd.inverse", "self"),
        "regrid.expand_us_per_image": _per(st, "regrid.expand", "self"),
        "regrid.gather_us_per_px": _per(st, "regrid.gather", "self", 1e6, "px"),
        "regrid.pairs_per_image": _per(st, "regrid.expand", "out", 1.0),
        "regrid.empty_window_frac": 1.0 - _per(st, "gtiff.place", "out", 1.0)
        if "gtiff.place" in st else 0.0,
        "gtiff.place_ms_per_tile": _per(st, "gtiff.place", "self", 1e3, "out"),
        "gtiff.encode_ms_per_tile": _per(st, "gtiff.encode", "self", 1e3),
        "gtiff.bytes_per_tile": _per(st, "gtiff.encode", "bytes", 1.0),
        "checkpoint.write_us_per_row": _per(st, "checkpoint.write", "self"),
        "checkpoint.files_per_partition": statistics.median(files) if files else 0.0,
        "checkpoint.checksum_us_per_row": _per(st, "checkpoint.checksum", "self"),
        "warp.driver_mb": st.get("checkpoint.write", {}).get("driver_bytes", 0.0) / 1e6,
        "raydata.ray_wall_s": ray_wall,
        "raydata.overhead_frac": 1.0 - wall_u / ray_wall,
        "trace.untraced_wall_s": wall_u,
        "trace.traced_wall_s": wall_t,
        "trace.overhead_frac": (wall_t - wall_u) / wall_u,
        "trace.accounted_frac": sum(s["self"] for s in st.values()) / wall_u,
        # the replay's own code between layer calls (slicing, concatenation)
        "trace.unattributed_frac": 1.0 - sum(s["self"] for s in st.values()) / wall_t,
    }
    for slug in ("assign", "read", "expand", "regrid", "encode"):
        for k in ("wall_s", "udf_s"):
            m[f"raydata.{slug}.{k}"] = ops.get(slug, {}).get(k, 0.0)
    m.update(extra)
    for name, s in sorted(st.items(), key=lambda kv: -kv[1]["self"]):
        log(f"{wl.name} span {name}: self {s['self'] * 1e3:.2f} ms/pass, "
            f"calls {s['calls']:.0f}, rows {s.get('rows', 0):.0f}")
    unreached = sorted({span[2] for span in SPANS} - set(st) - set(build.stats))
    unreached += [f"raydata.{slug}" for _, slug in RayDataStats.OPERATORS if slug not in ops]
    log(f"{wl.name}: not on this workload's path: {', '.join(unreached)} "
        "(never called in its replay or Ray plan; their metrics read 0)")
    return ledger, m


def run_all(args) -> int:
    """Every workload in turn; one summary line each."""
    from perfbench.workloads import WORKLOADS

    for name in WORKLOADS:
        r = subprocess.run([sys.executable, str(Path(__file__)), "--workload", name,
                            "--seed", str(args.seed), "--seconds", str(args.seconds),
                            "--trace", "0", "--scale", str(args.scale)],
                           cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200)
        lines = r.stdout.strip().splitlines()
        if r.returncode or not lines:
            print(f"{name}: exit code {r.returncode}")
            continue
        res = json.loads(lines[-1])
        cells = [f"{k}={v['value']:.6g} {v['unit']}" for k, v in res["metrics"].items()]
        cells.append(f"failed_frac={res['failed'] / res['attempted']:.3g} ratio "
                     f"({res['failed']}/{res['attempted']} passes)")
        print(f"{name}: " + "  ".join(cells), flush=True)
    return 0


def main(argv=None) -> int:
    t_start = time.perf_counter() - process_age()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="input size multiplier (the tests use small ones)")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT))
    try:
        import equi7grid_ray
    except ImportError as e:
        log(f"the engine package is not importable from {ROOT}: {e}")
        return 2
    if Path(equi7grid_ray.__file__).resolve().parent.parent != ROOT:
        log(f"equi7grid_ray resolves outside {ROOT}")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload == "all":
        return run_all(args)
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        log(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
        return 2
    wl = WORKLOADS[args.workload](scale=args.scale)

    t0 = time.perf_counter()
    inp = wl.inputs(WORK, args.seed)
    shutil.rmtree(OUT, ignore_errors=True)
    excluded = time.perf_counter() - t0
    try:
        if args.trace:
            ledger, values = traced_run(wl, inp, args.seconds, t_start)
        else:
            ledger, values = timed_run(wl, inp, args.seconds, t_start, excluded)
    finally:
        kill_tree()
        shutil.rmtree(OUT, ignore_errors=True)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        log(f"metrics not produced: {missing}")
        return 3
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
