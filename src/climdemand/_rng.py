"""Deterministic random streams and the bootstrap replicate layer.

All stochastic routines in the package draw from generators produced here.
A stream is identified by a master seed, a short text label naming the
consumer, and optional integer indices (replicate number, tree number).
Identical identifiers always yield identical streams, so results cannot
depend on scheduling or on how many worker threads execute the replicates.

Every bootstrap null checks its replicate count and seed, draws its indices
and scores its statistic here, by :func:`replicate_problems`,
:func:`replicate_draws` and :func:`mc_p_value`.  :func:`replicate_draws`
holds its last request as read-only int16 (weekly series) index arrays, the
same bytes a fresh request would give.
"""

from __future__ import annotations

import functools
import zlib

import numpy as np

from .errors import ConfigError, InvalidInputError, ShapeError, integer_problem

MIN_REPLICATES = 100


def substream(seed: int, label: str, *indices: int) -> np.random.Generator:
    """Return the :class:`numpy.random.Generator` for ``(seed, label, *indices)``.

    Parameters
    ----------
    seed : int
        Non-negative master seed; anything else is a :class:`ConfigError`.
    label : str
        Name of the consuming routine, e.g. ``"gc-unconditional"``.
    indices : int
        Optional replicate coordinates (bootstrap index, tree index, ...).
    """
    problems = seed_problems(seed)
    if problems:
        raise ConfigError(problems)
    entropy = [int(seed), zlib.crc32(label.encode("utf-8")), *(int(i) for i in indices)]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def replicate_problems(n_replicates, seed) -> dict[str, str]:
    """Problems with a bootstrap's replicate count and master seed, by field."""
    checks = (("n_replicates", n_replicates, MIN_REPLICATES), ("seed", seed, 0))
    return {field: p for field, value, floor in checks if (p := integer_problem(value, floor))}


def seed_problems(seed) -> dict[str, str]:
    """:func:`replicate_problems`' rule for a master seed alone."""
    return replicate_problems(MIN_REPLICATES, seed)


def check_replicates(n_replicates, seed) -> None:
    """Raise :func:`replicate_problems`' findings as one :class:`ConfigError`."""
    problems = replicate_problems(n_replicates, seed)
    if problems:
        raise ConfigError(problems)


def _stationary_paths(starts: np.ndarray, uniforms: np.ndarray, block_length: float) -> np.ndarray:
    """Stationary-bootstrap index paths (..., n) from their raw draws: blocks
    start at step 0 and where ``uniforms < 1 / block_length``."""
    n = starts.shape[-1]
    if n <= 0:
        raise ShapeError("cannot resample an empty series")
    if not block_length >= 1.0:
        raise InvalidInputError(f"expected block length must be >= 1, got {block_length!r}")
    step = np.arange(n)
    restart = uniforms < 1.0 / block_length
    restart[..., 0] = True
    anchor = np.maximum.accumulate(np.where(restart, step, 0), axis=-1)
    return (np.take_along_axis(starts, anchor, axis=-1) + (step - anchor)) % n


def stationary_bootstrap_indices(
    n: int, expected_block_length: float, rng: np.random.Generator
) -> np.ndarray:
    """Index path of one stationary-bootstrap draw (wrap-around blocks).

    Block starts are uniform; at every step a new block begins with
    probability ``1 / expected_block_length``, so block lengths are
    geometric with the requested mean.  The path draws ``integers(0, n, n)``
    starts, then ``random(n)`` uniforms.
    """
    starts = rng.integers(0, n, size=n)
    return _stationary_paths(starts, rng.random(n), expected_block_length)


def replicate_draws(
    seed: int, label: str, replicates: range, *draws: tuple[int, float | None]
) -> tuple[np.ndarray, ...]:
    """Resampling indices of a block of bootstrap replicates, one
    (len(replicates), n) array per draw ``(n, block_length)``: n uniform
    rows from 0..n-1 when ``block_length`` is None, else a
    :func:`stationary_bootstrap_indices` path.  Replicate ``b`` makes its
    draws, in the order given, from ``substream(seed, label, b)``, so they
    do not depend on which block of replicates asks.  Stationary paths are
    assembled from those raw draws ``_ASSEMBLY_BLOCK`` replicates at a time.

    The draws depend on nothing but the arguments, so one request is
    computed once: the last one is held (``replicate_draws.cache_clear()``
    drops it), and every array comes back read-only, in the smallest signed
    integer dtype that holds n - 1.
    """
    problems = seed_problems(seed)
    if problems:
        raise ConfigError(problems)
    return _held_draws(int(seed), label, replicates, draws)


# Replicates whose stationary paths are assembled together; the assembly
# holds about six (block, n) int64 temporaries, and any block size gives the
# same paths.
_ASSEMBLY_BLOCK = 32


@functools.lru_cache(maxsize=1)
def _held_draws(seed: int, label: str, replicates: range, draws: tuple) -> tuple[np.ndarray, ...]:
    out = tuple(np.empty((len(replicates), n), np.min_scalar_type(-max(n, 1))) for n, _ in draws)
    for lo in range(0, len(replicates), _ASSEMBLY_BLOCK):
        block = replicates[lo : lo + _ASSEMBLY_BLOCK]
        starts = [None if L is None else np.empty((len(block), n), np.intp) for n, L in draws]
        uniforms = [None if L is None else np.empty((len(block), n)) for n, L in draws]
        for i, b in enumerate(block):
            rng = substream(seed, label, b)
            for rows, start, u, (n, _) in zip(out, starts, uniforms, draws):
                if u is None:
                    rows[lo + i] = rng.integers(0, n, size=n)
                else:
                    start[i] = rng.integers(0, n, size=n)
                    rng.random(out=u[i])
        for rows, start, u, (_, block_length) in zip(out, starts, uniforms, draws):
            if u is not None:
                rows[lo : lo + len(block)] = _stationary_paths(start, u, block_length)
    for rows in out:
        rows.flags.writeable = False
    return out


replicate_draws.cache_clear = _held_draws.cache_clear


def mc_p_value(null: np.ndarray, observed: float | np.ndarray):
    """Monte Carlo p-value (1 + #{null >= observed}) / (1 + R), never zero."""
    return (1.0 + np.count_nonzero(null >= observed, axis=0)) / (1.0 + len(null))
