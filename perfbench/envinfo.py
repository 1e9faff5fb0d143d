"""Read-only record of the machine a result was measured on."""

from __future__ import annotations

import ctypes
import os
import platform

import numpy as np

_CACHE_DIR = "/sys/devices/system/cpu/cpu0/cache"
_BLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def _size_mib(text: str) -> float:
    units = {"K": 2**10, "M": 2**20, "G": 2**30}
    factor = units.get(text[-1].upper(), 1)
    number = text[:-1] if text[-1].upper() in units else text
    return int(number) * factor / 2**20


def cache_sizes_mib() -> dict:
    """Data and unified cache sizes of CPU 0 by level, from sysfs."""
    sizes = {}
    try:
        entries = sorted(os.listdir(_CACHE_DIR))
    except OSError:
        return sizes
    for entry in entries:
        base = os.path.join(_CACHE_DIR, entry)
        level, kind, size = (_read(os.path.join(base, f)) for f in ("level", "type", "size"))
        if level and size and kind in ("Data", "Unified"):
            sizes[f"l{level}_mib"] = _size_mib(size)
    return sizes


def _openblas_library() -> str | None:
    maps = _read("/proc/self/maps") or ""
    for line in maps.splitlines():
        path = line.split()[-1]
        if "openblas" in os.path.basename(path) and ".so" in path:
            return path
    return None


def blas_threads() -> int | None:
    """Threads OpenBLAS will use, asked of the library numpy loaded."""
    path = _openblas_library()
    if path is None:
        return None
    lib = ctypes.CDLL(path)
    for symbol in _BLAS_THREAD_SYMBOLS:
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def blas_version() -> str | None:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError, ValueError):
        return None


def record() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": blas_version(),
        "blas_threads": blas_threads(),
        **cache_sizes_mib(),
    }
