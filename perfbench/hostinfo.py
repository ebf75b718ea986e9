"""The environment record attached to every benchmark result."""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

# Pinned to 1 before numpy is first imported (see run.py).
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

# glibc raises its mmap threshold as a process frees large blocks, so the
# page faults a command takes for its large temporaries (most of a
# `sample` command's time) depend on the heap's history, and differed by 2x
# between otherwise identical runs.  Fixing the threshold at glibc's initial
# 128 KiB makes every block of that size or more a fresh mapping, in every
# run (see run.py, which re-executes itself with this setting).
MALLOC_TUNABLES = "glibc.malloc.mmap_threshold=131072"

MIB = 1024 * 1024


def _read(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return ""


def _size_bytes(text: str) -> int:
    units = {"K": 1024, "M": MIB, "G": 1024 * MIB}
    if text and text[-1] in units:
        return int(text[:-1]) * units[text[-1]]
    return int(text) if text.isdigit() else 0


def cpu_caches() -> list:
    """Cache levels of CPU 0 as reported by sysfs: level, type, size."""
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        caches.append(
            {
                "level": int(_read(index / "level") or 0),
                "type": _read(index / "type"),
                "size_bytes": _size_bytes(_read(index / "size")),
            }
        )
    return caches


def cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor()


def mem_total_bytes() -> int:
    for line in _read("/proc/meminfo").splitlines():
        if line.startswith("MemTotal:"):
            return int(line.split()[1]) * 1024
    return 0


def blas_info() -> dict:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 prints only
        return {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {k: blas[k] for k in ("name", "version", "openblas configuration") if k in blas}


def collect(largest_array_bytes: int) -> dict:
    import numpy as np
    import scipy

    caches = cpu_caches()
    llc = max((c["size_bytes"] for c in caches if c["type"] != "Instruction"), default=0)
    mem = mem_total_bytes()
    notes = [
        "CPU frequency scaling and the page cache are outside the benchmark's "
        "control; it drops no caches and pins no frequency.",
        "latents measures page-cache-hot I/O: its containers are written during "
        "set-up and a warm-up round reads them before timing.",
        "The closed loop runs one client: one command at a time in one process, "
        "BLAS/OpenMP threads pinned to 1.",
        "glibc's mmap threshold is fixed at 128 KiB (glibc_tunables), so the page "
        "faults of large temporaries do not depend on the heap's history.",
        "work_per_s and setup_s use rescaled times: wall time x 10 ms / the "
        "yardstick kernel's time around the command, which divides out most "
        "of the drift other tenants cause; plain wall figures are printed beside.",
    ]
    if largest_array_bytes < 4 * llc:
        notes.append(
            f"The 'arrays >= 4x LLC' bandwidth rule is not met: the largest array is "
            f"{largest_array_bytes / MIB:.0f} MiB against a last-level cache of "
            f"{llc / MIB:.0f} MiB on a {mem / (1024 * MIB):.1f} GiB machine, so working "
            f"sets are partly cache-resident."
        )
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model(),
        "caches": caches,
        "mem_total_bytes": mem,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "libc": " ".join(platform.libc_ver()),
        "glibc_tunables": os.environ.get("GLIBC_TUNABLES"),
        "notes": notes,
    }
