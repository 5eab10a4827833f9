"""Machine and software record written with every benchmark run."""

from __future__ import annotations

import ctypes
import os
import platform
import sys
from pathlib import Path


def _read(path) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def cpu_model() -> str | None:
    text = _read("/proc/cpuinfo") or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def cache_sizes() -> dict[str, str]:
    """Unified/data cache sizes of CPU 0 by level, e.g. ``{"L2": "2048K"}``."""
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level and size and kind in ("Unified", "Data"):
            out[f"L{level}"] = size
    return out


def blas_record() -> dict:
    """BLAS vendor from numpy's build record and the thread count the loaded
    OpenBLAS reports (``None`` where that library cannot be queried)."""
    import numpy as np

    info = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    maps = _read("/proc/self/maps") or ""
    libs = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()})
    for lib_path in libs:
        try:
            lib = ctypes.CDLL(lib_path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
        if threads is not None:
            break
    return {
        "vendor": info.get("name"),
        "version": info.get("version"),
        "threads": threads,
        "env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                           "MKL_NUM_THREADS") if k in os.environ},
    }


def git_commit(root: Path) -> str | None:
    """Commit of a git checkout at ``root``, read from ``.git`` without running
    git; ``None`` when ``root`` is not a git checkout."""
    head = _read(root / ".git" / "HEAD")
    if head is None:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read(root / ".git" / ref)
    if direct:
        return direct
    for line in (_read(root / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def machine_record(root: Path) -> dict:
    import numpy as np
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model(),
        "caches": cache_sizes(),
        "blas": blas_record(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(root),
    }
