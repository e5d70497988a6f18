"""The BLAS thread policy: numerics whose bytes depend on the thread count run
on one thread of numpy's bundled OpenBLAS.

`one_thread()` is a context manager, so it also decorates functions. It holds a
re-entrant lock, so guarded code may call guarded code (`deep.train` scores
validation through `HarmonizerModel.harmonize_many`), and concurrent callers
cannot restore each other's count. Under another BLAS the getter and setter
are no-ops: that BLAS keeps its own thread count, and bytes are promised only
at a fixed one.
"""

from __future__ import annotations

import contextlib
import ctypes
import threading

import numpy as np

try:  # the thread-count getter and setter of numpy's bundled OpenBLAS
    _lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    _get_threads = _lib.scipy_openblas_get_num_threads64_
    _get_threads.argtypes, _get_threads.restype = [], ctypes.c_int
    _set_threads = _lib.scipy_openblas_set_num_threads64_
    _set_threads.argtypes, _set_threads.restype = [ctypes.c_int], None
except (OSError, AttributeError):
    def _get_threads() -> int:
        return 1

    def _set_threads(count: int) -> None:
        pass

_LOCK = threading.RLock()


@contextlib.contextmanager
def one_thread():
    """Run the block (or the decorated function) on one BLAS thread, then
    restore the caller's thread count."""
    with _LOCK:
        threads = _get_threads()
        _set_threads(1)
        try:
            yield
        finally:
            _set_threads(threads)
