"""BLAS threads, the heap setting and the environment record kept with
every result.

Imports only the standard library at module level, so the thread
variables can be set before anything loads numpy.
"""

import ctypes
import glob
import os
import platform

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# mallopt parameters, from glibc's malloc.h.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3


def pin_blas_threads():
    """Pin BLAS to one thread in this process and the children it starts.

    Must run before numpy is imported.
    """
    for name in BLAS_THREAD_VARIABLES:
        os.environ[name] = "1"


def keep_freed_memory():
    """Make glibc keep freed memory in this process instead of returning it.

    By default every array above 128 KiB is mapped and unmapped afresh, so
    each large-n pass page-faulted about 25 000 pages (100 MB) back in.  On
    a virtual machine whose free pages go back to the host those faults
    took about a fifth of the pass, a share that swings with the host's
    memory pressure.  Arrays up to 32 MiB (a dense matrix of size 2000)
    now come from the heap, and the heap is never trimmed.  Returns
    whether glibc accepted both settings.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return False
    return bool(mallopt(M_MMAP_THRESHOLD, 32 * 1024 * 1024)) and bool(mallopt(M_TRIM_THRESHOLD, 2 ** 31 - 1))


def blas_threads():
    """Threads each loaded OpenBLAS will use, asked from the library itself.

    numpy and scipy each bundle their own OpenBLAS; both are asked.  A
    library whose entry point cannot be found is reported as None.
    """
    import numpy
    import scipy.linalg  # noqa: F401  (loads scipy's BLAS)

    found = {}
    for package, pattern in (("numpy", "numpy.libs/*openblas*.so*"),
                             ("scipy", "scipy.libs/*openblas*.so*")):
        base = os.path.dirname(os.path.dirname(__import__(package).__file__))
        found[package] = None
        for path in glob.glob(os.path.join(base, pattern)):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                getter = getattr(lib, symbol, None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    found[package] = getter()
                    break
    return found


def describe():
    """Versions, processor and thread settings of this process."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_env": {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
    }


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()
