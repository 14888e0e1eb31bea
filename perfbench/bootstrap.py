"""Process set-up shared by the benchmark scripts; call ``prepare`` before
numpy or steplab is imported."""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

# The benchmark's arrays are a few float64 values each, so BLAS threads only
# add scheduling noise; one thread is within any machine's core count.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


class MissingProgram(RuntimeError):
    """The checkout holds no steplab sources to benchmark."""


def prepare():
    """Pin BLAS threads and put the checkout's ``src`` first on the path.

    Returns ``/proc/loadavg`` as read before any work started (``None``
    where the file does not exist).
    """
    try:
        with open("/proc/loadavg") as fh:
            loadavg = fh.read().strip()
    except OSError:
        loadavg = None
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC, "steplab", "__init__.py")):
        raise MissingProgram(f"no steplab package under {SRC}")
    sys.path.insert(0, SRC)
    import steplab
    if os.path.dirname(os.path.abspath(steplab.__file__)) != \
            os.path.join(SRC, "steplab"):
        raise MissingProgram(f"steplab imported from {steplab.__file__}, "
                             f"not from {SRC}")
    return loadavg


def machine_facts(loadavg):
    import platform

    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "loadavg_at_start": loadavg,
    }
