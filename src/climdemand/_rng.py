"""Deterministic random streams and the bootstrap replicate layer.

All stochastic routines in the package draw from generators produced here.
A stream is identified by a master seed, a short text label naming the
consumer, and optional integer indices (replicate number, tree number).
Identical identifiers always yield identical streams, so results cannot
depend on scheduling or on how many worker threads execute the replicates.

Every bootstrap null checks its replicate count and seed, draws its indices
and scores its statistic here, by :func:`replicate_problems`,
:func:`replicate_draws` and :func:`mc_p_value`.
"""

from __future__ import annotations

import zlib

import numpy as np

from .errors import ConfigError, InvalidInputError, ShapeError

MIN_REPLICATES = 100


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


def replicate_problems(n_replicates, seed) -> dict[str, str]:
    """Problems with a bootstrap's replicate count and master seed, by field."""
    problems = {}
    for field, value, floor in (("n_replicates", n_replicates, MIN_REPLICATES), ("seed", seed, 0)):
        if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < floor:
            problems[field] = f"must be an integer >= {floor}, got {value!r}"
    return problems


def check_replicates(n_replicates, seed) -> None:
    """Raise :func:`replicate_problems`' findings as one :class:`ConfigError`."""
    problems = replicate_problems(n_replicates, seed)
    if problems:
        raise ConfigError(problems)


def stationary_bootstrap_indices(
    n: int, expected_block_length: float, rng: np.random.Generator
) -> np.ndarray:
    """Index path of one stationary-bootstrap draw (wrap-around blocks).

    Block starts are uniform; at every step a new block begins with
    probability ``1 / expected_block_length``, so block lengths are
    geometric with the requested mean.
    """
    if n <= 0:
        raise ShapeError("cannot resample an empty series")
    if not expected_block_length >= 1.0:
        raise InvalidInputError(
            f"expected block length must be >= 1, got {expected_block_length!r}"
        )
    starts = rng.integers(0, n, size=n)
    restart = rng.random(n) < 1.0 / expected_block_length
    restart[0] = True
    restart_positions = np.flatnonzero(restart)
    block_id = np.cumsum(restart) - 1
    anchor_pos = restart_positions[block_id]
    anchor_val = starts[restart_positions][block_id]
    return (anchor_val + (np.arange(n) - anchor_pos)) % n


def replicate_draws(
    seed: int, label: str, replicates: range, *draws: tuple[int, float | None]
) -> list[np.ndarray]:
    """Resampling indices of a block of bootstrap replicates, one
    (len(replicates), n) array per draw ``(n, block_length)``: n uniform
    rows from 0..n-1 when ``block_length`` is None, else a
    :func:`stationary_bootstrap_indices` path.  Replicate ``b`` makes its
    draws, in the order given, from ``substream(seed, label, b)``, so they
    do not depend on which block of replicates asks.
    """
    out = [np.empty((len(replicates), n), dtype=np.intp) for n, _ in draws]
    for i, b in enumerate(replicates):
        rng = substream(seed, label, b)
        for indices, (n, block_length) in zip(out, draws):
            if block_length is None:
                indices[i] = rng.integers(0, n, size=n)
            else:
                indices[i] = stationary_bootstrap_indices(n, block_length, rng)
    return out


def mc_p_value(null: np.ndarray, observed: float | np.ndarray):
    """Monte Carlo p-value (1 + #{null >= observed}) / (1 + R), never zero."""
    return (1.0 + np.count_nonzero(null >= observed, axis=0)) / (1.0 + len(null))
