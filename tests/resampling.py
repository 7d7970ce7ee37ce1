"""Reference resampling paths that tests compare the library's draws against."""

import numpy as np


def stationary_bootstrap_indices(n, expected_block_length, rng):
    """Index path of one stationary-bootstrap draw (wrap-around blocks),
    drawn and assembled on its own, step by step from the block starts.

    Block starts are uniform; at every step a new block begins with
    probability ``1 / expected_block_length``, so block lengths are
    geometric with the requested mean.  The path draws ``integers(0, n, n)``
    starts, then ``random(n)`` uniforms, as each replicate of
    ``_rng.replicate_draws`` does.
    """
    starts = rng.integers(0, n, size=n)
    restart = rng.random(n) < 1.0 / expected_block_length
    restart[0] = True
    restart_positions = np.flatnonzero(restart)
    block_id = np.cumsum(restart) - 1
    anchor_pos = restart_positions[block_id]
    anchor_val = starts[restart_positions][block_id]
    return (anchor_val + (np.arange(n) - anchor_pos)) % n
