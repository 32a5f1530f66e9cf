"""Environment record attached to every benchmark result."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

# thread-count getters exported by the OpenBLAS builds numpy and scipy ship
_BLAS_THREAD_GETTERS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads")


def _blas_threads() -> dict[str, int]:
    """Resolved thread count of each loaded OpenBLAS library, by file name."""
    found = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return found
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in _BLAS_THREAD_GETTERS:
            getter = getattr(lib, sym, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                found[Path(path).name] = int(getter())
                break
    return found


def _blas_config(show_config) -> str:
    try:
        blas = show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def _git_commit(root: Path) -> str | None:
    """HEAD of the repository whose top level is ``root``, else None."""
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root.resolve():
        return None
    return lines[1]


def _source_digest(root: Path) -> str:
    """sha256 over the package sources, for checkouts that are not git repositories."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def record(root: Path, workload: str, seed: int, seconds: int, trace: bool) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_numpy": _blas_config(numpy.show_config),
        "blas_scipy": _blas_config(scipy.show_config),
        "blas_threads": _blas_threads(),
        "workers": 1,
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root),
        "executable": Path(sys.executable).name,
    }
