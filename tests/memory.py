"""Traced peak allocation of one call, for the tests that bound a stage's memory."""

import tracemalloc


def traced_peak(fn, *args):
    """Peak bytes that ``tracemalloc`` traced while ``fn(*args)`` ran.

    Tracing starts with the call, so memory held before it is not counted;
    numpy reports its array buffers to ``tracemalloc``."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
