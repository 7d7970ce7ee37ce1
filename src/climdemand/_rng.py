"""Deterministic random-stream derivation.

All stochastic routines in the package draw from generators produced here.
A stream is identified by a master seed, a short text label naming the
consumer, and optional integer indices (replicate number, tree number).
Identical identifiers always yield identical streams, so results cannot
depend on scheduling or on how many worker threads execute the replicates.
"""

from __future__ import annotations

import zlib

import numpy as np


def substream(seed: int, label: str, *indices: int) -> np.random.Generator:
    """Return the :class:`numpy.random.Generator` for ``(seed, label, *indices)``.

    Parameters
    ----------
    seed : int
        Non-negative master seed.
    label : str
        Name of the consuming routine, e.g. ``"gc-unconditional"``.
    indices : int
        Optional replicate coordinates (bootstrap index, tree index, ...).
    """
    if seed < 0:
        raise ValueError("master seed must be non-negative")
    entropy = [int(seed), zlib.crc32(label.encode("utf-8")), *(int(i) for i in indices)]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def row_indices(seed: int, label: str, replicates: range, n_rows: int) -> np.ndarray:
    """Row-resampling indices, one row of ``n_rows`` draws per replicate.

    Row ``i`` of the (len(replicates), n_rows) result holds uniform draws
    from 0..n_rows-1 on replicate ``replicates[i]``'s own substream, so a
    replicate's draws do not depend on which block of replicates asks.
    """
    indices = np.empty((len(replicates), n_rows), dtype=np.intp)
    for i, b in enumerate(replicates):
        indices[i] = substream(seed, label, b).integers(0, n_rows, size=n_rows)
    return indices
