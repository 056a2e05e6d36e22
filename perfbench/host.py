"""Host description: CPUs, caches, Python, numpy and the BLAS in use.

Everything here only reads ``/proc`` and ``/sys``.
"""

import ctypes
import os
import platform

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
# thread-count getters of the BLAS builds numpy ships with
_BLAS_GETTERS = ("openblas_get_num_threads", "openblas_get_num_threads64_",
                 "scipy_openblas_get_num_threads64_",
                 "scipy_openblas_get_num_threads", "MKL_Get_Max_Threads")


def _read(path):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return None


def cpu_model() -> str:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def caches() -> dict:
    """Data and unified cache sizes of cpu0 in bytes, keyed L1d/L2/L3."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    out = {}
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        level = _read(f"{base}/{index}/level")
        kind = _read(f"{base}/{index}/type")
        size = _read(f"{base}/{index}/size")
        if not (level and kind and size) or kind == "Instruction":
            continue
        units = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}
        nbytes = int(size[:-1]) * units[size[-1]] if size[-1] in units \
            else int(size)
        out[f"L{level}" + ("d" if kind == "Data" else "")] = nbytes
    return out


def blas_threads():
    """Thread count the loaded BLAS resolved, or None if it is not found."""
    maps = _read("/proc/self/maps") or ""
    libs = {line.split()[-1] for line in maps.splitlines()
            if "blas" in line.lower() and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in _BLAS_GETTERS:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def describe() -> dict:
    """Host facts for the result; call after numpy is imported."""
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "affinity_count": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "cache_bytes": caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version",
                                          "openblas configuration")},
        "blas_threads": blas_threads(),
    }
