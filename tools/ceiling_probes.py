"""Engine-free box-ceiling probes for the N -> 4N scaling analysis.

The two-cluster-size criterion is stood in for by running the same job
at 8 and 32 CPUs on this single VM.  These probes characterize what the
VM itself delivers from 8 -> 32 processes for each resource class the
engine's hot path uses -- pure numpy, multiprocessing, no Ray anywhere,
each level taskset-confined like the bench.  Whatever they measure is
an upper bound on ANY software's 8 -> 32 scaling for that access
pattern on this box; a real 4x *node* scale-out multiplies every one of
these resources by 4 instead of contending for one socket's uncore.

Usage: python tools/ceiling_probes.py [procs ...]   (default: 1 8 32)
Prints one JSON line per (probe, procs) and a final efficiency summary.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import subprocess
import sys
import time

import numpy as np


def _alu(n_iter: int, out) -> None:
    """L1-resident vector arithmetic: pure core throughput."""
    a = np.arange(4096, dtype=np.float64)  # 32 KB
    t0 = time.time()
    s = 0.0
    for _ in range(n_iter):
        s += float((a * 1.0000001 + 0.5).sum())
    out.put((n_iter * len(a), time.time() - t0))


def _gather_cache(n_iter: int, out) -> None:
    """Cache-resident random gathers (256 KB state + 32 KB indices)."""
    state = np.arange(32_768, dtype=np.float64)
    idx = np.random.default_rng(os.getpid()).integers(0, len(state), 4096)
    t0 = time.time()
    s = 0.0
    for _ in range(n_iter):
        s += state[idx].sum()
        idx = (idx * 1103515245 + 12345) % len(state)
    out.put((n_iter * len(idx), time.time() - t0))


def _gather_dram(n_iter: int, out) -> None:
    """Random gathers into a per-process 55 MB state (the assigner's
    zone-raster/interp-grid class when the aggregate working set
    exceeds the shared LLC)."""
    state = np.arange(55_000_000 // 8, dtype=np.float64)
    idx = np.random.default_rng(os.getpid()).integers(0, len(state), 262_144)
    t0 = time.time()
    s = 0.0
    for _ in range(n_iter):
        s += state[idx].sum()
        idx = (idx * 1103515245 + 12345) % len(state)
    out.put((n_iter * len(idx), time.time() - t0))


def _gather_complex_16tap(n_iter: int, out) -> None:
    """The bicubic projection's access pattern, engine-free: per row, a
    4x4 stencil of complex128 gathers (16 taps) into a 31 MB flat grid
    of x + 1j*y nodes, summed.  Measures rows/s; 1e6 / rate is the
    us/row ceiling to set next to ``interp.project_us_per_row``."""
    nlon = 1400
    g = np.ones(31_000_000 // 16, dtype=np.complex128)
    nlat = len(g) // nlon
    ncell = (nlat - 3) * (nlon - 3)  # stencil corners that keep 4x4 in-grid
    cell = np.random.default_rng(os.getpid()).integers(0, ncell, 65_536)
    t0 = time.time()
    s = 0.0
    for _ in range(n_iter):
        base = cell // (nlon - 3) * nlon + cell % (nlon - 3)
        acc = np.zeros(len(base), dtype=np.complex128)
        for a in range(4):
            row = base + a * nlon
            acc += g.take(row) + g.take(row + 1) + g.take(row + 2) + g.take(row + 3)
        s += float(acc.real.sum())
        cell = (cell * 1103515245 + 12345) % ncell
    out.put((n_iter * len(cell), time.time() - t0))


def _stream(n_iter: int, out) -> None:
    """Sequential streaming over a 256 MB buffer: DRAM bandwidth."""
    a = np.ones(32_000_000, dtype=np.float64)  # 256 MB
    t0 = time.time()
    s = 0.0
    for _ in range(n_iter):
        s += float(a.sum())
    out.put((n_iter * a.nbytes, time.time() - t0))


def _decode_mix(n_iter: int, out) -> None:
    """The decode phase's exact per-row work, engine-free: 50/50 raw /
    zlib-PNG-scanline payloads in the bench fixture's size mix (32/64/128
    px), per row one zlib inflate (png) or nothing (raw) plus one
    vectorized uint8 sum over the payload.  Measures rows/s; the ratio
    probe(32)/probe(8)/4 is the box's ceiling for the decode stage's
    access pattern (zlib inner loop + one sequential pass per payload),
    with zero scheduler/object-store involvement."""
    import zlib

    rng = np.random.default_rng(os.getpid())
    sizes = (32, 64, 128)
    png_payloads = []
    raw_payloads = []
    for i in range(384):
        w = sizes[i % 3]
        h = sizes[(i // 3) % 3]
        img = rng.integers(0, 255, (h, w + 1), dtype=np.uint8)
        img[:, 0] = 0  # PNG filter byte per scanline
        if i % 2:
            png_payloads.append(zlib.compress(img.tobytes(), 6))
        else:
            raw_payloads.append(img[:, 1:].tobytes())
    t0 = time.time()
    s = 0
    for _ in range(n_iter):
        for p in png_payloads:
            d = zlib.decompress(p)
            s += int(np.frombuffer(d, np.uint8).sum(dtype=np.int64))
        for r in raw_payloads:
            s += int(np.frombuffer(r, np.uint8).sum(dtype=np.int64))
    out.put((n_iter * 384, time.time() - t0))


def _deflate_strip(n_iter: int, out) -> None:
    """The warp encode's per-tile work, engine-free: ``zlib.compress``
    at level 6 of one 54x1200 uint8 window strip (a T6 tile's strip at
    500 m, nodata 0 around a 24x24 patch of the synthetic image
    pattern).  Measures strips/s; a tile whose window sits in one strip
    costs one such call, so 1e3 / rate is the ms/tile ceiling to set
    next to ``gtiff.place_ms_per_tile + gtiff.encode_ms_per_tile``."""
    import zlib

    strip = np.zeros((54, 1200), dtype=np.uint8)
    r = np.arange(24)[:, None]
    c = np.arange(24)[None, :]
    strip[15:39, 600:624] = (r * 24 + c * 24 + 7) % 256
    raw = strip.tobytes()
    t0 = time.time()
    s = 0
    for _ in range(n_iter):
        s += len(zlib.compress(raw, 6))
    out.put((n_iter, time.time() - t0))


PROBES = {
    "alu_l1": (_alu, 40_000, "ops/s"),
    "gather_cache": (_gather_cache, 80_000, "gathers/s"),
    "gather_dram_55mb": (_gather_dram, 80, "gathers/s"),
    "gather_complex_16tap": (_gather_complex_16tap, 60, "rows/s"),
    "stream_256mb": (_stream, 12, "bytes/s"),
    "decode_mix": (_decode_mix, 60, "rows/s"),
    "deflate_strip": (_deflate_strip, 10_000, "strips/s"),
}


def run_probe(name: str, k: int) -> float:
    fn, n_iter, _unit = PROBES[name]
    q = mp.Queue()
    ps = [mp.Process(target=fn, args=(n_iter, q)) for _ in range(k)]
    t0 = time.time()
    for p in ps:
        p.start()
    tot = 0
    for _ in ps:
        g, _dt = q.get()
        tot += g
    for p in ps:
        p.join()
    return tot / (time.time() - t0)


def main() -> int:
    levels = [int(a) for a in sys.argv[1:]] or [1, 8, 32]
    if os.environ.get("_CEILING_CHILD"):
        # confined child: run every probe at this level
        k = levels[0]
        res = {name: run_probe(name, k) for name in PROBES}
        print(json.dumps({"procs": k, "rates": res}))
        return 0
    results = {}
    for k in levels:
        cmd = [sys.executable, __file__, str(k)]
        if os.path.exists("/usr/bin/taskset"):
            cmd = ["taskset", "-c", f"0-{k - 1}"] + cmd
        env = dict(os.environ, _CEILING_CHILD="1")
        out = subprocess.run(cmd, env=env, capture_output=True, text=True,
                             check=True).stdout
        row = json.loads(out.strip().splitlines()[-1])
        results[k] = row["rates"]
        print(json.dumps(row))
    if 8 in results and 32 in results:
        eff = {name: round(results[32][name] / results[8][name] / 4.0, 3)
               for name in PROBES}
        print(json.dumps({"scaling_efficiency_8to32": eff}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
