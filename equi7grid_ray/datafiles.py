"""Cache files under the package data directory.

The engine keeps its precomputed per-cell state -- zone rasters, tile
tables, cell -> tile tables, projector grids -- in ``data/``, in files
whose names hash everything they depend on.  A missing file is built by
the first process that needs it; inside a Ray worker it is not built at
all (the caller falls back to a path that needs no file)."""

from __future__ import annotations

import os
import sys
from pathlib import Path

__all__ = ["in_ray_worker", "write_atomic"]


def in_ray_worker() -> bool:
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
