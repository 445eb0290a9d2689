"""Warp sink as one Ray task per fragment: no hang below 3 CPUs, resume
to byte-identical output after a worker crash or a failing fragment,
no tile bytes through the driver, complete manifest tile counts and
per-fragment stage facts."""

import json
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from equi7grid_ray.pipelines.warp import resample_to_equi7_tiles
from equi7grid_ray.sources.images import make_batch
from equi7grid_ray.state.checkpoint import (
    Manifest,
    write_equi7_partition,
    write_equi7_raster_partition,
    write_partition,
)

REPO = Path(__file__).resolve().parent.parent
SUFFIX = {"gtiff": ".tif", "parquet": ".parquet"}


def _fragments(d: Path, truncate_png: bool = False) -> Path:
    """Two 12-image fragments; ``truncate_png`` cuts one PNG payload of
    frag-b in half."""
    d.mkdir(parents=True, exist_ok=True)
    pq.write_table(make_batch(0, 12), d / "frag-a.parquet")
    b = make_batch(12, 12)
    if truncate_png:
        fmts = b.column("fmt").to_pylist()
        payloads = b.column("bytes").to_pylist()
        j = fmts.index("png")
        payloads[j] = payloads[j][: len(payloads[j]) // 2]
        b = b.set_column(b.schema.get_field_index("bytes"), "bytes",
                         pa.array(payloads, pa.binary()))
    pq.write_table(b, d / "frag-b.parquet")
    return d


def _naming(suffix: str, crash_marker: str | None = None, crash_at: int = 3):
    """File-naming hook.  With ``crash_marker`` the ``crash_at``-th call
    across all workers kills its worker process once (the marker file
    is created exclusively, so exactly one call exits)."""

    def traffo(stem, ftile):
        import os

        if crash_marker is not None:
            with open(crash_marker + ".calls", "a") as f:
                f.write("x")
            if os.path.getsize(crash_marker + ".calls") >= crash_at:
                try:
                    os.close(os.open(crash_marker, os.O_CREAT | os.O_EXCL))
                except FileExistsError:
                    pass
                else:
                    os._exit(1)
        return f"{stem}_{ftile}{suffix}"

    return traffo


def _outputs(out: Path):
    """(manifest facts per partition, {relative file path: bytes})."""
    mans = {
        m["partition_id"]: (m["checksum"], m["rows_out"], m["n_tiles"], m["tile_counts"])
        for m in Manifest(out).load_all()
    }
    files = {str(p.relative_to(out)): p.read_bytes()
             for p in sorted(out.glob("part-*/**/*")) if p.is_file()}
    return mans, files


def test_no_hang_with_one_cpu(tmp_path):
    """With one logical CPU both sinks of the warp and a bare
    regrid_pipeline finish (three actor pools used to wait forever for
    CPUs that never freed up)."""
    src = _fragments(tmp_path / "imgs")
    script = textwrap.dedent(f"""
        import ray, ray.data as rd
        from equi7grid_ray.pipelines.warp import resample_to_equi7_tiles
        from equi7grid_ray.sources.images import make_batch
        from equi7grid_ray.stages.regrid import regrid_pipeline

        ray.init(address="local", num_cpus=1, include_dashboard=False,
                 logging_level="ERROR")
        c = resample_to_equi7_tiles({str(src)!r}, {str(tmp_path / "out")!r},
                                    out_format="gtiff")
        n = regrid_pipeline(rd.from_arrow(make_batch(0, 8))).count()
        print("DONE", int(c["rows_out"]), n)
        ray.shutdown()
    """)
    env = {**os.environ, "PYTHONPATH": str(REPO)}
    # own process group: on a hang, the child's Ray processes die with it
    p = subprocess.Popen([sys.executable, "-c", script], cwd=REPO, env=env,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                         start_new_session=True)
    try:
        stdout, stderr = p.communicate(timeout=180)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        pytest.fail("warp with one CPU did not finish within 180 s")
    assert p.returncode == 0, stderr[-2000:]
    done = [ln for ln in stdout.splitlines() if ln.startswith("DONE")]
    _, rows_out, n = done[-1].split()
    assert int(rows_out) >= 20 and int(n) >= 8


@pytest.mark.parametrize("out_format", ["gtiff", "parquet"])
def test_worker_crash_mid_fragment_resumes_byte_identical(ray_session, tmp_path, out_format):
    """A worker that dies in the middle of a fragment (inside the naming
    hook: during encode for gtiff, between tile files for parquet) is
    retried by Ray; the result equals a clean run's, file for file."""
    src = _fragments(tmp_path / "imgs")
    sfx = SUFFIX[out_format]
    resample_to_equi7_tiles(str(src), str(tmp_path / "clean"), out_format=out_format,
                            naming_traffo=_naming(sfx))
    marker = str(tmp_path / "crashed")
    resample_to_equi7_tiles(str(src), str(tmp_path / "crash"), out_format=out_format,
                            naming_traffo=_naming(sfx, marker))
    assert os.path.exists(marker), "the crash hook never fired"
    clean, crash = _outputs(tmp_path / "clean"), _outputs(tmp_path / "crash")
    assert sorted(clean[0]) == ["frag-a", "frag-b"]
    assert crash == clean
    assert not list((tmp_path / "crash").glob(".tmp-part-*"))


def test_failing_fragment_leaves_no_partition_and_reruns_clean(ray_session, tmp_path):
    """A fragment whose PNG payload is truncated makes the call raise;
    the good fragment is committed, the bad one leaves nothing behind,
    and once its input is fixed a rerun completes to a clean run's
    output."""
    good = _fragments(tmp_path / "good")
    resample_to_equi7_tiles(str(good), str(tmp_path / "clean"), out_format="gtiff")

    src = _fragments(tmp_path / "imgs", truncate_png=True)
    out = tmp_path / "out"
    with pytest.raises(RuntimeError, match="frag-b.*truncated or corrupt PNG"):
        resample_to_equi7_tiles(str(src), str(out), out_format="gtiff")
    man = Manifest(out)
    assert man.done("frag-a") and (out / "part-frag-a").is_dir()
    assert not man.done("frag-b")
    assert not (out / "part-frag-b").exists()
    assert not list(out.glob(".tmp-part-*"))

    _fragments(src)  # fixed payload
    resample_to_equi7_tiles(str(src), str(out), out_format="gtiff")
    assert _outputs(out) == _outputs(tmp_path / "clean")


def test_driver_writes_no_tiles(ray_session, tmp_path, monkeypatch):
    """The raster writer raises if called in the driver, yet the gtiff
    warp succeeds; what the driver collects carries no binary value."""
    import ray.data as rd

    from equi7grid_ray.state import checkpoint

    def no_driver_writes(*a, **kw):
        raise AssertionError("partition written in the driver")

    monkeypatch.setattr(checkpoint, "write_equi7_raster_partition", no_driver_writes)
    collected = []
    take_all = rd.Dataset.take_all

    def spy(ds, *a, **kw):
        rows = take_all(ds, *a, **kw)
        collected.extend(rows)
        return rows

    monkeypatch.setattr(rd.Dataset, "take_all", spy)
    src = _fragments(tmp_path / "imgs")
    c = resample_to_equi7_tiles(str(src), str(tmp_path / "out"), out_format="gtiff")
    assert c["rows_out"] >= 20
    assert len(list((tmp_path / "out").glob("part-*/EQUI7_*/*/*.tif"))) == c["rows_out"]
    assert len(collected) == 2
    assert not any(isinstance(v, (bytes, bytearray, memoryview))
                   for r in collected for v in r.values())


def test_manifest_stage_facts(ray_session, tmp_path):
    """Each warp manifest carries the fragment's expand output rows, the
    windows the encoder dropped and per-stage seconds; the seconds stay
    nested, so the manifest counter totals do not include them."""
    src = _fragments(tmp_path / "imgs")
    for fmt in ("gtiff", "parquet"):
        out = tmp_path / fmt
        counters = resample_to_equi7_tiles(str(src), str(out), out_format=fmt)
        for m in Manifest(out).load_all():
            assert m["pairs"] >= m["rows_out"] > 0
            assert m["windows_empty"] >= 0
            if fmt == "gtiff":
                assert m["pairs"] - m["windows_empty"] == m["rows_out"]
            assert sorted(m["stage_s"]) == ["encode", "expand", "read", "regrid", "write"]
            assert all(v >= 0 for v in m["stage_s"].values())
        assert "stage_s" not in counters and counters["pairs"] >= counters["rows_out"]


def _many_tiles_table(n_tiles: int = 60, per_tile: int = 2) -> pa.Table:
    tiles = [f"EU_E{k * 6:03d}N000T6" for k in range(n_tiles) for _ in range(per_tile)]
    return pa.table({
        "continent": pa.array(["EU"] * len(tiles), pa.string()),
        "tile": pa.array(tiles, pa.string()),
        "fname": pa.array([f"f{i}_{t}.tif" for i, t in enumerate(tiles)], pa.string()),
        "data": pa.array([bytes([i % 256]) * 8 for i in range(len(tiles))],
                         pa.large_binary()),
    })


@pytest.mark.parametrize("writer", [write_partition, write_equi7_partition,
                                    write_equi7_raster_partition])
def test_manifest_tile_counts_complete_past_50_tiles(tmp_path, writer):
    t = _many_tiles_table()
    writer(tmp_path, "p0", t)
    m = json.loads((tmp_path / "_manifest" / "part-p0.json").read_text())
    assert m["n_tiles"] == 60 == len(m["tile_counts"])
    assert sum(m["tile_counts"].values()) == m["rows_out"] == t.num_rows
