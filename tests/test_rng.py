"""Tests for the replicate layer: draws, replicate-count checks, p-values."""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from climdemand._rng import (
    MIN_REPLICATES,
    mc_p_value,
    replicate_draws,
    stationary_bootstrap_indices,
    substream,
)
from climdemand.diagnostics import arch_lm_test, portmanteau_test
from climdemand.errors import ConfigError
from climdemand.forest import ForestConfig
from climdemand.spectral import GcBootstrapConfig
from climdemand.synth import SynthConfig
from climdemand.trend import TrendFitConfig
from climdemand.varx import fit_varx, granger_test_time_domain, residual_bootstrap


def _model():
    rng = np.random.default_rng(0)
    return fit_varx(rng.normal(size=(80, 2)), order=1, names=("cause", "effect"))


def _residuals():
    return np.random.default_rng(1).normal(size=(60, 2))


ENTRY_POINTS = {
    "GcBootstrapConfig": lambda **kw: GcBootstrapConfig(**kw),
    "residual_bootstrap": lambda **kw: residual_bootstrap(_model(), **kw),
    "granger_test_time_domain": lambda **kw: granger_test_time_domain(
        _model(), "cause", "effect", **kw
    ),
    "portmanteau_test": lambda **kw: portmanteau_test(_residuals(), lags=4, **kw),
    "arch_lm_test": lambda **kw: arch_lm_test(_residuals(), lags=4, **kw),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize(
    "field, value",
    [
        ("n_replicates", 99),
        ("n_replicates", True),
        ("n_replicates", 150.5),
        ("seed", -1),
        ("seed", 1.5),
    ],
)
def test_bad_replicate_count_or_seed_is_a_config_error(entry, field, value):
    arguments = {"n_replicates": 100, "seed": 0, field: value}
    with pytest.raises(ConfigError) as excinfo:
        ENTRY_POINTS[entry](**arguments)
    assert set(excinfo.value.fields) == {field}


def test_floor_is_accepted_everywhere():
    assert GcBootstrapConfig(n_replicates=MIN_REPLICATES, seed=np.int64(3)).seed == 3
    result = portmanteau_test(_residuals(), lags=4, n_replicates=MIN_REPLICATES)
    assert result.n_replicates == MIN_REPLICATES


def reference_stationary_path(n, expected_block_length, rng):
    """One stationary-bootstrap path drawn and assembled on its own, step
    by step from the block starts: the per-path loop the block-wise
    assembly must reproduce."""
    starts = rng.integers(0, n, size=n)
    restart = rng.random(n) < 1.0 / expected_block_length
    restart[0] = True
    restart_positions = np.flatnonzero(restart)
    block_id = np.cumsum(restart) - 1
    anchor_pos = restart_positions[block_id]
    anchor_val = starts[restart_positions][block_id]
    return (anchor_val + (np.arange(n) - anchor_pos)) % n


SEEDED = {
    "substream": lambda seed: substream(seed, "label"),
    "ForestConfig": lambda seed: ForestConfig(seed=seed),
    "SynthConfig": lambda seed: SynthConfig(seed=seed),
    "TrendFitConfig": lambda seed: TrendFitConfig(seed=seed),
}


@pytest.mark.parametrize("entry", sorted(SEEDED))
@pytest.mark.parametrize("seed", [1.5, True, -1])
def test_seed_that_is_not_a_nonnegative_integer_is_a_config_error(entry, seed):
    with pytest.raises(ConfigError) as excinfo:
        SEEDED[entry](seed)
    assert set(excinfo.value.fields) == {"seed"}


class TestReplicateDraws:
    @pytest.mark.parametrize("block_length", [1.0, 4.0, 1e12])
    def test_block_paths_match_per_path_reference(self, block_length):
        m, n = 37, 53
        rows, paths = replicate_draws(
            9, "label", range(40), (m, None), (n, block_length)
        )
        for b in range(40):
            rng = substream(9, "label", b)
            assert_array_equal(rows[b], rng.integers(0, m, size=m))
            assert_array_equal(paths[b], reference_stationary_path(n, block_length, rng))
        assert_array_equal(
            stationary_bootstrap_indices(n, block_length, substream(9, "label", 3)),
            reference_stationary_path(n, block_length, substream(9, "label", 3)),
        )

    def test_block_of_64_equals_two_blocks_of_32_and_single_replicates(self):
        draws = ((30, None), (45, 3.0), (45, 3.0))
        whole = replicate_draws(4, "label", range(0, 64), *draws)
        halves = zip(
            replicate_draws(4, "label", range(0, 32), *draws),
            replicate_draws(4, "label", range(32, 64), *draws),
        )
        for block, (first, second) in zip(whole, halves):
            assert_array_equal(block, np.concatenate([first, second]))
        singles = [replicate_draws(4, "label", range(b, b + 1), *draws) for b in range(64)]
        for d, block in enumerate(whole):
            assert_array_equal(block, np.concatenate([single[d] for single in singles]))

    def test_each_replicate_draws_in_order_from_its_own_stream(self):
        rows, path = replicate_draws(5, "label", range(3, 7), (40, None), (30, 4.0))
        assert rows.shape == (4, 40) and path.shape == (4, 30)
        for i, b in enumerate(range(3, 7)):
            rng = substream(5, "label", b)
            assert_array_equal(rows[i], rng.integers(0, 40, size=40))
            assert_array_equal(path[i], stationary_bootstrap_indices(30, 4.0, rng))

    def test_blocks_do_not_change_the_draws(self):
        (whole,) = replicate_draws(2, "label", range(10), (25, 3.0))
        parts = [replicate_draws(2, "label", range(a, b), (25, 3.0))[0]
                 for a, b in ((0, 3), (3, 4), (4, 10))]
        assert_array_equal(np.concatenate(parts), whole)


class TestMcPValue:
    def test_adds_one_to_count_and_replicates(self):
        null = np.array([0.5, 2.0, 3.0, 1.0])
        assert mc_p_value(null, 2.0) == pytest.approx(3.0 / 5.0)
        assert mc_p_value(null, 9.0) == pytest.approx(1.0 / 5.0)

    def test_scores_columns_separately(self):
        null = np.array([[0.0, 5.0], [2.0, 5.0], [4.0, 5.0]])
        assert_array_equal(mc_p_value(null, np.array([1.0, 6.0])), [3.0 / 4.0, 1.0 / 4.0])
