"""Tests of the benchmark itself: a tiny run of every workload, a planted
wrong result per workload that its output check must catch, and the
traced run's per-layer metric set.

    python3 -m pytest perfbench/tests -q

Run from the repository root.  The tiny runs start Ray and take about
half a minute each.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench.workloads import WORKLOADS  # noqa: E402

SCALE = 0.02  # tiny inputs
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str) -> tuple[dict, str]:
    r = subprocess.run([sys.executable, "perfbench/run.py", *args, "--scale", str(SCALE)],
                       cwd=ROOT, capture_output=True, text=True, timeout=200)
    assert r.returncode == 0, r.stderr[-3000:]
    return json.loads(r.stdout.strip().splitlines()[-1]), r.stderr


def _names(kind: str) -> list[str]:
    return [m["name"] for m in SPEC[kind]]


def test_spec_names_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
    assert "setup_s" in _names("end_to_end")


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run(name):
    res, _ = _run("--workload", name, "--seed", "1", "--seconds", "1", "--trace", "0")
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 2
    assert list(res["metrics"]) == _names("end_to_end")
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_emits_every_layer_metric(name):
    res, err = _run("--workload", name, "--seed", "1", "--seconds", "1", "--trace", "1")
    assert res["correct"]
    assert list(res["metrics"]) == _names("per_layer")
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert m["trace.untraced_wall_s"] > 0 and m["trace.traced_wall_s"] > 0
    # layers the workload never reaches are reported as 0 and named
    assert "not on this workload's path:" in err


# -- planted wrong results: each check must fire -----------------------------


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("perfbench")


def _local(name, work):
    wl = WORKLOADS[name](scale=SCALE)
    inp = wl.inputs(work, seed=3)
    out = wl.run_local(inp, work / f"out-{name}")
    assert wl.check(inp, out) == []
    return wl, inp, out


def test_assign_points_check_fires(work):
    wl, inp, hist = _local("assign_points", work)
    tile = next(iter(hist))
    assert wl.check(inp, {**hist, tile: hist[tile] + 1})
    assert wl.check(inp, {k: v for k, v in hist.items() if k != tile})


def test_decode_assign_images_check_fires(work):
    wl, inp, tiles = _local("decode_assign_images", work)
    tile = next(iter(tiles))
    n, s = tiles[tile]
    assert wl.check(inp, {**tiles, tile: (n, s + 1.0)})  # one pixel mean off
    assert wl.check(inp, {**tiles, tile: (n + 1, s)})


def test_ingest_checkpointed_check_fires(work):
    wl, inp, out = _local("ingest_checkpointed", work)
    # change one value in one tile file: the manifest counts still
    # match, the checksum of the re-read files must not
    f = sorted(out.glob("part-*/EQUI7_*/*/*.parquet"))[0]
    pid = f.relative_to(out).parts[0].removeprefix("part-")
    t = pq.read_table(f)
    x = t.column("x").to_pylist()
    x[0] += 1.0
    pq.write_table(t.set_column(t.schema.get_field_index("x"), "x", pa.array(x)), f)
    assert wl.check(inp, out, sorted(inp.expected).index(pid))
    # a manifest that claims one row too many
    mf = out / "_manifest" / f"part-{pid}.json"
    m = json.loads(mf.read_text())
    m["rows_out"] += 1
    mf.write_text(json.dumps(m))
    assert wl.check(inp, out, None)


def test_warp_gtiff_check_fires(work):
    from equi7grid_ray.gtiff import decode_gtiff, write_gtiff

    wl, inp, out = _local("warp_gtiff", work)
    f = sorted(out.glob("part-*/EQUI7_*/*/*.tif"))[0]
    img = decode_gtiff(f.read_bytes())
    arr = img.array.copy()
    r, c = (int(v[0]) for v in arr.nonzero())
    arr[r, c] ^= 0x55  # one wrong pixel
    write_gtiff(str(f), arr, geotrans=img.geotrans, nodata=img.nodata)
    errs = [e for k in range(50) for e in wl.check(inp, out, k)]
    assert any(f.name in e and "pixels differ" in e for e in errs)
