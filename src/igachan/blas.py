"""One BLAS thread for the length of a block.

numpy's wheels ship their own OpenBLAS in a vendored-library directory
beside the package (``numpy.libs``, or ``numpy/.dylibs`` on macOS).  Left
at its default, it splits each large product over every core and its idle
workers spin after the call, so a sweep that runs one trial at a time
burns about one extra core, and a threaded product sums in an order that
depends on the core count.  :func:`one_blas_thread` holds that library at
one thread and restores the caller's count on exit, so results are the
same on every host.  The library is looked up at the first entry, not at
import.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from pathlib import Path

import numpy as np

__all__ = ["one_blas_thread"]

# (get, set) symbol pairs: scipy-openblas builds with 64-bit integers, then
# plain OpenBLAS
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _thread_count_functions():
    """(get, set) of numpy's vendored OpenBLAS, or None where none is found."""
    package = Path(np.__file__).resolve().parent
    for libdir in (package.parent / "numpy.libs", package / ".dylibs"):
        for path in sorted(libdir.glob("*openblas*")):
            try:
                lib = ctypes.CDLL(str(path))
            except OSError:
                continue
            for get_name, set_name in _SYMBOLS:
                get = getattr(lib, get_name, None)
                set_ = getattr(lib, set_name, None)
                if get is not None and set_ is not None:
                    get.argtypes, get.restype = (), ctypes.c_int
                    set_.argtypes, set_.restype = (ctypes.c_int,), None
                    return get, set_
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with numpy's BLAS on the calling thread alone.

    The caller's thread count comes back on exit, also when the block
    raises.  Where numpy's OpenBLAS or its setter is not found, the block
    runs unchanged.
    """
    functions = _thread_count_functions()
    if functions is None:
        yield
        return
    get, set_ = functions
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)
