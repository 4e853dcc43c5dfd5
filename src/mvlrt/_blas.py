"""Run the library's small-matrix loops with OpenBLAS on one thread.

numpy and scipy wheels each bundle their own OpenBLAS, and both start a
thread pool sized to the machine. On the matrices the split and replicate
loops factor, a few dozen to a few hundred columns, waking those threads
costs more than the arithmetic. ``single_thread_blas`` sets every bundled
library it finds to one thread and restores the previous counts when the
outermost scope exits, also when it exits by an exception.

The thread count is a process-wide setting of each library, not a
per-thread one, so all scopes share one depth count: the first to enter
saves the counts, the last to leave restores them. Libraries are looked up
on first use, in the wheels' library folders, and cached. Each one found is
opened, and so loaded if it is not yet: the package loads scipy only where a
call needs it, often inside a scope, and a later ``import scipy.linalg``
then uses the copy already loaded, so the cache stays valid. Builds that
export no known setter (MKL, numpy < 2 wheels) make the scope a no-op.
"""

from __future__ import annotations

import ctypes
import glob
import importlib.util
import os
import threading
from contextlib import contextmanager

# (getter, setter) exported by numpy's ILP64 build and by scipy's LP64 build
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
)

_libraries = None
_lock = threading.Lock()
_depth = 0
_saved = ()


def _find_libraries() -> list:
    """(get, set) function pairs of the OpenBLAS copies bundled with numpy and scipy."""
    found = []
    for name in ("numpy", "scipy"):
        spec = importlib.util.find_spec(name)
        if spec is None or spec.origin is None:
            continue
        root = os.path.dirname(spec.origin)
        # wheels keep bundled libraries in <pkg>.libs (Linux, Windows) or <pkg>/.dylibs (macOS)
        for libdir in (root + ".libs", os.path.join(root, ".dylibs")):
            for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
                try:
                    lib = ctypes.CDLL(path)
                except OSError:
                    continue
                for get_name, set_name in _SYMBOLS:
                    if hasattr(lib, get_name) and hasattr(lib, set_name):
                        get, put = getattr(lib, get_name), getattr(lib, set_name)
                        get.argtypes, get.restype = [], ctypes.c_int
                        put.argtypes, put.restype = [ctypes.c_int], None
                        found.append((get, put))
                        break
    return found


def _libs() -> list:
    global _libraries
    if _libraries is None:
        _libraries = _find_libraries()
    return _libraries


def thread_counts() -> tuple:
    """Current thread count of each bundled OpenBLAS found, in lookup order."""
    return tuple(get() for get, _ in _libs())


@contextmanager
def single_thread_blas():
    """Pin every bundled OpenBLAS to one thread for the body of the block.

    Also works as a decorator, ``@single_thread_blas()``, which enters a
    fresh scope on each call.
    """
    global _depth, _saved
    with _lock:
        if _depth == 0:
            _saved = tuple((put, get()) for get, put in _libs())
            for put, _ in _saved:
                put(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                for put, count in _saved:
                    put(count)
                _saved = ()
