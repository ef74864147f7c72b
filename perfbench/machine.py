"""Machine and library record written next to every benchmark result."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

# The benchmark pins BLAS to one thread: the per-step vectors are far too
# small for a second thread to help, and one thread keeps runs on a shared
# two-core machine steadier. Bundle bytes are the same at 1 thread and at the
# default count.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cache_sizes() -> dict[str, str]:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            sizes[f"L{level}"] = size
    return sizes


def last_level_cache_bytes() -> int | None:
    sizes = _cache_sizes()
    if not sizes:
        return None
    size = sizes[max(sizes)]
    scale = {"K": 1024, "M": 1024**2}.get(size[-1], 1)
    return int(size.rstrip("KM")) * scale


def _git_sha(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown: the checkout is not a git repository"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown: git rev-parse failed"
    return out.stdout.strip()


def _blas() -> dict[str, str]:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return {"name": "unknown", "version": "unknown"}
    return {"name": str(deps.get("name")), "version": str(deps.get("version"))}


def record(root: Path) -> dict:
    import numpy as np
    import scipy

    return {
        "git_sha": _git_sha(root),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "blas_threads": {name: os.environ.get(name) for name in BLAS_ENV},
        "caches": _cache_sizes(),
    }
