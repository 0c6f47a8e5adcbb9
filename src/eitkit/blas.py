"""Thread counts of the OpenBLAS runtimes that numpy and scipy bundle.

numpy and scipy wheels each ship their own OpenBLAS, in ``numpy.libs/`` and
``scipy.libs/`` next to the package, and each runtime keeps its own thread
pool. On a small host the two pools' spinning workers contend with the main
thread for the cores during the many small BLAS calls of an ADMM loop, so
the command line runs its verbs with both pools at one thread.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from pathlib import Path

import numpy
import scipy


@functools.cache
def _runtimes() -> tuple:
    """The (get, set) thread-count functions of each runtime found."""
    found = []
    for package in (numpy, scipy):
        libdir = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
        for lib in sorted(libdir.glob("*openblas*")):
            handle = ctypes.CDLL(str(lib))
            for suffix in ("64_", ""):
                get = getattr(handle, f"scipy_openblas_get_num_threads{suffix}", None)
                put = getattr(handle, f"scipy_openblas_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    found.append((get, put))
                    break
    return tuple(found)


def threads() -> int | None:
    """The largest thread count of the runtimes, or None where none is found."""
    return max((get() for get, _ in _runtimes()), default=None)


@contextlib.contextmanager
def single_thread():
    """Run the body with every runtime on one thread, and restore each
    runtime's count on the way out, whether the body returns or raises."""
    before = [get() for get, _ in _runtimes()]
    try:
        for _, put in _runtimes():
            put(1)
        yield
    finally:
        for (_, put), count in zip(_runtimes(), before):
            put(count)
