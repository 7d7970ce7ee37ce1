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

Replicate ``b``'s indices are the values that ``substream(seed, label, b)``'s
``integers(0, n, size=n)`` and ``random(n)`` calls return, computed without
a ``Generator`` per replicate.  One numpy pass seeds every replicate of a
request: ``SeedSequence([seed, crc32(label), b])``'s uint32 hash, then
PCG64's two 128-bit seeding steps.  One ``PCG64`` takes each replicate's
state and returns all of its raw 64-bit words in one ``random_raw`` call,
and a block of replicates' words becomes draws at once, as numpy's
``Generator`` turns them into draws:

- an integer below n is Lemire's bound ``(u32 * n) >> 32`` of a 32-bit
  input (``buffered_bounded_lemire_uint32``).  A word gives its low half,
  then its high half, taken by arithmetic; an unused high half waits for the
  next integer draw, as ``has_uint32`` keeps it.  n = 1 draws nothing;
- a uniform is ``(word >> 11) * 2**-53`` (``next_double``).

Two kinds of replicate go through ``substream`` and its ``Generator``
instead: one whose low product word falls below ``(2**32 - n) % n``, where
numpy rejects the input and draws another, and one whose index ``b`` is not
below 2**32, which SeedSequence takes as two entropy words.
"""

from __future__ import annotations

import functools
import zlib

import numpy as np

from .errors import ConfigError, InvalidInputError, ShapeError, integer_problem, real_problem

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
    if problem := real_problem(block_length, "[1, inf)"):
        raise InvalidInputError(f"block_length {problem}")
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
    if problem := integer_problem(n, 1):
        raise InvalidInputError(f"n {problem}")
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
    do not depend on which block of replicates asks.  They are computed from
    the stream's raw words and stationary paths assembled from them
    ``_ASSEMBLY_BLOCK`` replicates at a time, as the module docstring says.

    The draws depend on nothing but the arguments, so one request is
    computed once: the last one is held (``replicate_draws.cache_clear()``
    drops it), and every array comes back read-only, in the smallest signed
    integer dtype that holds n - 1.
    """
    problems = seed_problems(seed)
    if problems:
        raise ConfigError(problems)
    return _held_draws(int(seed), label, replicates, draws)


# Replicates whose raw words are drawn and turned into paths together; the
# block holds its words, then about six (block, n) int64 temporaries while
# its paths are assembled, and any block size gives the same paths.
_ASSEMBLY_BLOCK = 32

# SeedSequence's hash constants (numpy/random/bit_generator.pyx) and PCG64's
# 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h).
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = 2**32 - 1


def _hasher(const: int, mult: int):
    """SeedSequence's ``hashmix`` on uint32 arrays, with its running constant."""

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const
        return value ^ value >> 16

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_L - y * _MIX_R
    return result ^ result >> 16


def _generate_state(seed: int, label: str, replicates: np.ndarray) -> np.ndarray:
    """``SeedSequence([seed, crc32(label), b]).generate_state(4, np.uint64)``
    for each uint32 ``b`` of ``replicates``, as a (4, len(replicates)) array.

    SeedSequence hashes its entropy words into a 4-word pool and then hashes
    the pool out again, both in fixed uint32 steps that do not branch on the
    data, so this runs them on whole arrays of replicates at once."""
    seed_words = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    constants = [*seed_words, zlib.crc32(label.encode("utf-8"))]
    entropy = [np.full(replicates.shape, w, np.uint32) for w in constants] + [replicates]
    hashmix = _hasher(_INIT_A, _MULT_A)
    zeros = np.zeros(replicates.shape, np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zeros) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hasher(_INIT_B, _MULT_B)
    out = [hashmix(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(8)]
    return np.stack([out[k] | out[k + 1] << 32 for k in range(0, 8, 2)])


def _pcg64_states(words: np.ndarray) -> np.ndarray:
    """PCG64's (state high, state low, inc high, inc low) uint64 words as
    seeded from (4, m) ``generate_state`` words ``(seed, stream)``: ``inc``
    is ``2 * stream + 1`` and the state ``(seed + inc) * multiplier + inc``,
    modulo 2**128, two steps of the LCG from 0 with the seed added between."""
    seed_hi, seed_lo, stream_hi, stream_lo = words
    inc_hi, inc_lo = stream_hi << 1 | stream_lo >> 63, stream_lo << 1 | 1
    lo = seed_lo + inc_lo
    hi = seed_hi + inc_hi + (lo < inc_lo)
    # The 64 x 64-bit product lo * (multiplier's low word), in 32-bit parts.
    m_hi, m_lo = _PCG_MULT >> 64, _PCG_MULT & 2**64 - 1
    x0, x1, y0, y1 = lo & _MASK32, lo >> 32, m_lo & _MASK32, m_lo >> 32
    p00, p01, p10 = x0 * y0, x0 * y1, x1 * y0
    mid = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    state_lo = (p00 & _MASK32 | mid << 32) + inc_lo
    state_hi = x1 * y1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32) + lo * m_hi + hi * m_lo
    return np.stack([state_hi + inc_hi + (state_lo < inc_lo), state_lo, inc_hi, inc_lo])


def _word_layout(draws: tuple) -> tuple[list, int]:
    """Where each draw ``(n, block_length)`` takes its values in a
    replicate's raw 64-bit words, and how many words the request takes.

    Per draw: its n 32-bit integer inputs as ``(carried, first)`` (None for
    n = 1, which draws nothing), and the word slice of its n uniforms (None
    without a block length).  The inputs are the high half of word
    ``carried``, if not None, then the low and high halves of the words from
    ``first`` on: as with numpy's ``has_uint32`` buffer, an unused high half
    waits for the next integer draw, and uniforms, which take whole words,
    skip it."""
    word, carried, layout = 0, None, []
    for n, block_length in draws:
        integers = None
        if n > 1:
            integers = (carried, word)
            fresh = n - (carried is not None)
            word += (fresh + 1) // 2
            carried = word - 1 if fresh % 2 else None
        uniforms = None
        if block_length is not None:
            uniforms = slice(word, word + n)
            word += n
        layout.append((integers, uniforms))
    return layout, word


def _bounded(words: np.ndarray, integers, n: int, out: np.ndarray) -> np.ndarray | bool:
    """Write each row's n integers below n into ``out``, from the inputs
    ``integers`` places in ``words``, by Lemire's method as numpy's
    ``buffered_bounded_lemire_uint32`` takes it; return the rows where numpy
    would reject an input and draw another."""
    if integers is None:
        out[...] = 0
        return False
    carried, first = integers
    product = np.empty(out.shape, np.uint64)
    if carried is not None:
        np.right_shift(words[:, carried], 32, out=product[:, 0])
    fresh = product[:, carried is not None :]
    lows, highs = fresh[:, 0::2], fresh[:, 1::2]
    np.bitwise_and(words[:, first : first + lows.shape[1]], _MASK32, out=lows)
    np.right_shift(words[:, first : first + highs.shape[1]], 32, out=highs)
    product *= n
    np.right_shift(product, 32, out=out, casting="unsafe")
    product &= _MASK32
    return (product < (2**32 - n) % n).any(axis=1)


@functools.lru_cache(maxsize=1)
def _held_draws(seed: int, label: str, replicates: range, draws: tuple) -> tuple[np.ndarray, ...]:
    out = tuple(np.empty((len(replicates), n), np.min_scalar_type(-max(n, 1))) for n, _ in draws)
    layout, n_words = _word_layout(draws)
    # -1 marks an index that SeedSequence takes as more than one entropy word.
    index = np.array([b if 0 <= b <= _MASK32 else -1 for b in replicates], np.int64)
    seeded = _pcg64_states(_generate_state(seed, label, np.maximum(index, 0).astype(np.uint32)))
    bitgen = np.random.PCG64(0)
    for lo in range(0, len(replicates), _ASSEMBLY_BLOCK):
        hi = min(lo + _ASSEMBLY_BLOCK, len(replicates))
        block = replicates[lo:hi]
        state_hi, state_lo, inc_hi, inc_lo = seeded[:, lo:hi].astype(object)
        words = np.empty((len(block), n_words), np.uint64)
        for i, (state, inc) in enumerate(zip(state_hi << 64 | state_lo, inc_hi << 64 | inc_lo)):
            bitgen.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            words[i] = bitgen.random_raw(n_words)
        redraw = index[lo:hi] < 0
        starts, uniforms = [], []
        for rows, (n, block_length), (integers, span) in zip(out, draws, layout):
            if block_length is None:
                start = rows[lo:hi]
            else:
                start = np.empty((len(block), n), np.intp)
            redraw |= _bounded(words, integers, n, start)
            starts.append(start)
            uniforms.append(None if span is None else (words[:, span] >> 11) * 2.0**-53)
        # The words go before the paths are assembled, which sets the peak.
        del words
        for i in np.flatnonzero(redraw):
            rng = substream(seed, label, block[i])
            for start, u, (n, _) in zip(starts, uniforms, draws):
                start[i] = rng.integers(0, n, size=n)
                if u is not None:
                    rng.random(out=u[i])
        for rows, start, u, (_, block_length) in zip(out, starts, uniforms, draws):
            if u is not None:
                rows[lo:hi] = _stationary_paths(start, u, block_length)
    for rows in out:
        rows.flags.writeable = False
    return out


replicate_draws.cache_clear = _held_draws.cache_clear


def mc_p_value(null: np.ndarray, observed: float | np.ndarray):
    """Monte Carlo p-value (1 + #{null >= observed}) / (1 + R), never zero."""
    return (1.0 + np.count_nonzero(null >= observed, axis=0)) / (1.0 + len(null))
