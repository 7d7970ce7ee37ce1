"""The traced peak of one call, for the tests' memory budgets."""

import tracemalloc

# The library imports no numpy.ma (tests/test_cli.py checks), but the tests'
# own np.quantile calls import it on their first call, about 1 MiB traced;
# importing it here keeps that out of every budget, whichever test runs
# first.
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
