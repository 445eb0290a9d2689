"""The engine's precomputed data files, declared once.

The engine keeps its precomputed per-cell state -- zone rasters, tile
tables, cell -> tile tables, projector grids -- in :data:`DATA_DIR`, in
files whose names hash everything they depend on (:func:`data_file`).
:func:`load_or_build` is the one place such a file is looked up, built
and written.  A missing file is built by the first process that needs
it; an ``optional`` file is not built inside a Ray worker at all (the
caller falls back to a path that needs no file)."""

from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

__all__ = ["DATA_DIR", "data_file", "load_or_build", "write_atomic"]

#: the package data directory: committed inputs and every cache file
DATA_DIR = Path(__file__).resolve().parent / "data"


def data_file(stem: str, suffix: str, *parts) -> Path:
    """``DATA_DIR/{stem}_{h}{suffix}``, ``h`` the first 12 hex digits of
    a sha256 over the byte parts (bytes or buffers) in order."""
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return DATA_DIR / f"{stem}_{h.hexdigest()[:12]}{suffix}"


def load_or_build(path: Path, load, build, save, *, optional: bool = False):
    """``load(path)``, first writing the file with ``save(f, build())``
    if it is missing.  What a process uses is always what ``load``
    returns, also right after it wrote the file.  A missing
    ``optional`` file is not built inside a Ray worker: the call
    returns None."""
    if not path.exists():
        if optional and _in_ray_worker():
            return None
        obj = build()
        write_atomic(path, lambda f: save(f, obj))
    return load(path)


def _in_ray_worker() -> bool:
    ray = sys.modules.get("ray")
    return (ray is not None and ray.is_initialized()
            and ray.get_runtime_context().worker.mode == ray.WORKER_MODE)


def write_atomic(path: Path, write) -> None:
    """Create ``path`` so that a concurrent reader sees the whole file
    or none: ``write(f)`` fills a temporary file next to it, which is
    then renamed into place.  If ``write`` raises, the temporary file is
    removed and ``path`` is left as it was."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            write(f)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
