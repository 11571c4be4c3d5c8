"""BLAS thread pinning and the run envelope printed with every result.

:func:`pin_blas_threads` must run before NumPy is imported: OpenBLAS and
OpenMP read their thread counts once, when the library loads.  On a
2-core host the thread count alone moves evaluator C at n = 125 by about
4x, so every number this benchmark prints is single-threaded.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class PinningError(RuntimeError):
    """The thread variables were not in force when NumPy was loaded."""


def pin_blas_threads() -> None:
    """Set every BLAS/OpenMP thread variable to 1; refuse if NumPy is loaded."""
    if "numpy" in sys.modules:
        raise PinningError("numpy was imported before the BLAS thread variables were pinned")
    for var in THREAD_VARS:
        os.environ[var] = "1"


def blas_threads_in_effect() -> dict:
    """Thread counts the loaded OpenBLAS libraries report, by library file.

    Only the scipy-openblas builds that NumPy and SciPy wheels bundle are
    queried; other BLAS builds leave the dict empty and the pinned
    environment is the only evidence.
    """
    import ctypes

    import numpy
    import scipy

    found = {}
    for package, symbol in ((numpy, "scipy_openblas_get_num_threads64_"),
                            (scipy, "scipy_openblas_get_num_threads")):
        libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for path in sorted(libs.glob("libscipy_openblas*.so")):
            # dlopen of a loaded library returns the handle already in use
            func = getattr(ctypes.CDLL(str(path)), symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                found[path.name] = int(func())
    return found


def check_pinned() -> dict:
    """Verify the pins held through the NumPy import; returns the evidence."""
    unpinned = {var: os.environ.get(var) for var in THREAD_VARS if os.environ.get(var) != "1"}
    if unpinned:
        raise PinningError(f"thread variables not pinned to 1: {unpinned}")
    in_effect = blas_threads_in_effect()
    wrong = {lib: n for lib, n in in_effect.items() if n != 1}
    if wrong:
        raise PinningError(f"BLAS libraries run with more than one thread: {wrong}")
    return in_effect


def _git_commit(root: Path) -> str | None:
    """HEAD of the repository at `root`; None in a source tree without git."""
    try:
        proc = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
            # look no higher than `root` for a repository
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_envelope(root: Path, seed: int, workload: str, blas_threads: dict) -> dict:
    """Host, interpreter, library and thread facts that produced a result."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "git_commit": _git_commit(root),
        "host": platform.node(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_vars": {var: os.environ.get(var) for var in THREAD_VARS},
        "blas_threads_in_effect": blas_threads,
    }
