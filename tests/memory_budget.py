"""The traced peak of one call, for the tests' memory budgets."""

import tracemalloc

# np.unique and np.quantile import numpy.ma on their first call, about 1 MiB
# traced; importing it here keeps that out of every budget, whichever test
# runs first.
import numpy.ma  # noqa: F401


def traced_peak(run):
    """Call ``run()`` under tracemalloc; return its traced peak in bytes and
    its result."""
    tracemalloc.start()
    try:
        result = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, result
