"""The thread count of the OpenBLAS library that numpy calls.

The encoder's matrices are small (d_model 64 by default). When OpenBLAS
splits a product across threads, the calling thread spins until the workers
are done, and that wait counts as its CPU time. On a 2-CPU machine with one
busy process beside it, evaluating 16 pairs at L 512 on two threads took
1.46 times the calling thread's CPU seconds that it took alone; on one
thread it took no more. The bytes of a checkpoint depended on the count
too: at batch 16 OpenBLAS summed some products in another order on two
threads than on one. So ``harness`` runs training and evaluation on one
BLAS thread through ``blas_threads(1)``, whatever the environment sets.

The library is found among the shared objects this process has mapped, so
no package is needed. Where there is no OpenBLAS (or no ``/proc``),
``blas_threads`` changes nothing.
"""

from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager

# (get, set) entry-point names: numpy's bundled scipy-openblas, the
# 64-bit-integer build, the plain build.
_ENTRY_POINTS = [
    (f"{lib}_get_num_threads{suffix}", f"{lib}_set_num_threads{suffix}")
    for lib, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", ""))
]


@functools.cache
def _openblas():
    """(get, set) of the mapped OpenBLAS, or None."""
    import numpy  # noqa: F401 - maps the BLAS library numpy links

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {
                line.split(maxsplit=5)[-1].strip()
                for line in fh if "openblas" in line and ".so" in line
            }
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # e.g. a mapping whose file was replaced since
            continue
        for get_name, set_name in _ENTRY_POINTS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


def get_threads() -> int | None:
    """OpenBLAS's current thread count, None without OpenBLAS."""
    calls = _openblas()
    return calls[0]() if calls else None


@contextmanager
def blas_threads(n: int):
    """Run the block on ``n`` OpenBLAS threads, then restore the count."""
    calls = _openblas()
    if calls is None:
        yield
        return
    get, set_ = calls
    previous = get()
    set_(n)
    try:
        yield
    finally:
        set_(previous)
