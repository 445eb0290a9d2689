"""The engine's data files: one directory, one naming rule."""

from __future__ import annotations

import re
import subprocess
from pathlib import Path

from equi7grid_ray import datafiles, interp, tiling_state, zones
from equi7grid_ray.grid import GridSpec
from equi7grid_ray.stages.tile_assign import TileAssigner

ROOT = Path(__file__).resolve().parent.parent
#: the tracked families: zone rasters, zone boundary-cell edge lists, T6
#: tile tables, T6 cell tables
TRACKED = re.compile(
    r"zone_raster_(std|bfrd)_|zone_edges_(std|bfrd)_|tiles_[A-Z]{2}_T6_|celltiles_(std|bfrd)_T6_")


def test_file_names_are_the_tracked_files(monkeypatch):
    """From cold process caches, the two T6 ``emit_xy=False`` assigners
    of the standard and buffered specs ask ``data_file`` for exactly the
    tracked zone raster, zone edge list, tile table and cell table
    files, and write no file."""
    specs = [GridSpec.standard(), GridSpec.standard(buffered=True)]
    for spec in specs:  # a fresh checkout maps its projector grids first
        TileAssigner("T6", spec=spec, emit_xy=False)
    names = []
    data_file = datafiles.data_file

    def spy(*args):
        p = data_file(*args)
        names.append(p.name)
        return p

    monkeypatch.setattr(datafiles, "data_file", spy)
    for mod, cache in ((zones, "_classifiers"), (tiling_state, "_states"), (interp, "_CACHE")):
        monkeypatch.setattr(mod, cache, {})
    before = {p.name: p.stat().st_mtime_ns for p in datafiles.DATA_DIR.iterdir()}
    for spec in specs:
        TileAssigner("T6", spec=spec, emit_xy=False)
    assert {p.name: p.stat().st_mtime_ns for p in datafiles.DATA_DIR.iterdir()} == before

    tracked = subprocess.run(
        ["git", "ls-files", "equi7grid_ray/data"], cwd=ROOT, check=True,
        capture_output=True, text=True).stdout.split()
    tracked = {Path(p).name for p in tracked if TRACKED.match(Path(p).name)}
    assert len(tracked) == 2 + 2 + 2 * 7 + 2
    assert {n for n in names if TRACKED.match(n)} == tracked
