"""The one tracemalloc helper of the memory guards."""

from __future__ import annotations

import tracemalloc


def traced_peak(fn):
    """(``fn()``, peak bytes, bytes still held on return) of the Python and
    numpy allocations that ``fn()`` makes."""
    tracemalloc.start()
    try:
        result = fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak, current
