"""Tests for the replicate layer: draws, replicate-count checks, p-values."""

import zlib

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from climdemand import _rng
from climdemand._rng import MIN_REPLICATES, mc_p_value, replicate_draws, substream
from climdemand.diagnostics import arch_lm_test, portmanteau_test
from climdemand.errors import ConfigError
from climdemand.forest import ForestConfig
from climdemand.spectral import (
    GcBootstrapConfig,
    _unconditional_thresholds,
    unconditional_gc_spectrum,
)
from climdemand.synth import SynthConfig
from climdemand.varx import fit_varx, residual_bootstrap
from memory_budget import traced_peak
from resampling import stationary_bootstrap_indices


def _model():
    rng = np.random.default_rng(0)
    return fit_varx(rng.normal(size=(80, 2)), order=1, names=("cause", "effect"))


def _residuals():
    return np.random.default_rng(1).normal(size=(60, 2))


ENTRY_POINTS = {
    "GcBootstrapConfig": lambda **kw: GcBootstrapConfig(**kw),
    "residual_bootstrap": lambda **kw: residual_bootstrap(_model(), **kw),
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


SEEDED = {
    "substream": lambda seed: substream(seed, "label"),
    "ForestConfig": lambda seed: ForestConfig(seed=seed),
    "SynthConfig": lambda seed: SynthConfig(seed=seed),
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
            assert_array_equal(paths[b], stationary_bootstrap_indices(n, block_length, rng))

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


class TestHeldDraws:
    REQUEST = (3, "label", range(20), (30, None), (40, 4.0))

    def setup_method(self):
        replicate_draws.cache_clear()

    def test_hit_equals_a_fresh_draw(self):
        held = replicate_draws(*self.REQUEST)
        hit = replicate_draws(*self.REQUEST)
        assert all(a is b for a, b in zip(held, hit))
        replicate_draws.cache_clear()
        for a, b in zip(hit, replicate_draws(*self.REQUEST)):
            assert_array_equal(a, b)

    def test_arrays_are_read_only_and_compact(self):
        for n, dtype in ((128, np.int8), (129, np.int16), (390, np.int16)):
            for rows in replicate_draws(0, "label", range(2), (n, None), (n, 8.0)):
                assert rows.dtype == dtype
                with pytest.raises(ValueError, match="read-only"):
                    rows[0, 0] = 1

    @pytest.mark.parametrize("seed", [True, 1.0, 1.5, -1])
    def test_held_seed_one_does_not_answer_another_seed(self, seed):
        replicate_draws(1, "label", range(3), (10, None))
        with pytest.raises(ConfigError) as excinfo:
            replicate_draws(seed, "label", range(3), (10, None))
        assert set(excinfo.value.fields) == {"seed"}

    def test_a_different_request_evicts_the_held_one(self):
        other = (4, "label", range(20), (30, None), (40, 4.0))
        first = replicate_draws(*self.REQUEST)
        second = replicate_draws(*other)
        again = replicate_draws(*self.REQUEST)
        assert again[0] is not first[0]
        assert_array_equal(again[1], first[1])
        assert replicate_draws(*other)[0] is not second[0]

    def test_held_paths_do_not_carry_one_pair_into_the_next(self):
        rng = np.random.default_rng(12)
        pair_a = rng.normal(size=(2, 120))
        pair_b = rng.normal(size=(2, 120))
        cfg = GcBootstrapConfig(n_replicates=100, seed=8, max_var_order=2)
        alone = unconditional_gc_spectrum(*pair_b, cfg)
        alone_medians = _unconditional_thresholds(*pair_b, cfg).medians
        replicate_draws.cache_clear()
        unconditional_gc_spectrum(*pair_a, cfg)
        after = unconditional_gc_spectrum(*pair_b, cfg)
        for field in ("estimate", "threshold_pointwise", "threshold_bonferroni"):
            assert np.asarray(getattr(after, field)).tobytes() == np.asarray(
                getattr(alone, field)
            ).tobytes()
        after_medians = _unconditional_thresholds(*pair_b, cfg).medians
        assert after_medians.tobytes() == alone_medians.tobytes()

    def test_paths_are_assembled_within_a_memory_budget(self):
        # The conditional null's request at 300 replicates of 390 weeks; its
        # int16 results take 0.46 MB.  numpy.random is imported lazily: a
        # first substream before tracing keeps its import out of the peak
        # (1.8 MiB with it, 1.1 without), whatever test ran first.
        substream(0, "warm")
        peak, _ = traced_peak(
            lambda: replicate_draws(0, "label", range(300), (386, None), (390, 8.0))
        )
        assert peak <= 2 * 2**20


def reference_draws(seed, label, b, draws):
    """Replicate b's arrays for ``draws`` from its own ``substream``, one
    ``integers`` (and ``random``) call after another."""
    rng = substream(seed, label, b)
    return [
        rng.integers(0, n, size=n) if block_length is None
        else stationary_bootstrap_indices(n, block_length, rng)
        for n, block_length in draws
    ]


NULL_LABELS = (
    "gc-unconditional", "gc-conditional", "varx-bootstrap", "portmanteau-null", "arch-null",
)


@pytest.fixture
def substream_calls(monkeypatch):
    """The indices of every ``substream`` call the replicate layer makes."""
    calls = []

    def counted(seed, label, *indices):
        calls.append(indices)
        return substream(seed, label, *indices)

    monkeypatch.setattr(_rng, "substream", counted)
    return calls


class TestArrayDraws:
    """The array seeding pass and the word transforms against numpy."""

    def setup_method(self):
        replicate_draws.cache_clear()

    @pytest.mark.parametrize("label", NULL_LABELS)
    @pytest.mark.parametrize("seed", [0, 7919, 2**32 + 5, 2**64 + 3])
    def test_seeding_pass_equals_seed_sequence_and_pcg64(self, seed, label):
        replicates = [0, 1, 2**32 - 1]
        words = _rng._generate_state(seed, label, np.array(replicates, np.uint32))
        state_hi, state_lo, inc_hi, inc_lo = _rng._pcg64_states(words).astype(object)
        for i, b in enumerate(replicates):
            sequence = np.random.SeedSequence([seed, zlib.crc32(label.encode("utf-8")), b])
            assert_array_equal(words[:, i], sequence.generate_state(4, np.uint64))
            reference = np.random.PCG64(sequence).state["state"]
            assert state_hi[i] << 64 | state_lo[i] == reference["state"]
            assert inc_hi[i] << 64 | inc_lo[i] == reference["inc"]

    def test_indices_of_two_words_draw_through_substream(self, substream_calls):
        draws = ((30, None), (40, 4.0))
        replicates = range(2**32 - 2, 2**32 + 2)
        drawn = replicate_draws(3, "label", replicates, *draws)
        assert substream_calls == [(2**32,), (2**32 + 1,)]
        for i, b in enumerate(replicates):
            for rows, reference in zip(drawn, reference_draws(3, "label", b, draws)):
                assert_array_equal(rows[i], reference)

    def test_rejected_bounded_draw_is_redrawn_through_substream(self, substream_calls):
        # Found by search: replicate 34417 of seed 0's unconditional null
        # draws a 32-bit input that Lemire's method rejects at n = 390.
        seed, label, rejected = 0, "gc-unconditional", 34417
        draws = ((390, 8.0), (390, 8.0))
        # Without a rejection the draws take 2 * (195 + 390) words.
        rng = substream(seed, label, rejected)
        for n, _ in draws:
            rng.integers(0, n, size=n)
            rng.random(n)
        unrejected = substream(seed, label, rejected).bit_generator
        unrejected.random_raw(2 * (195 + 390))
        assert rng.bit_generator.state != unrejected.state
        replicates = range(rejected - 20, rejected + 20)
        drawn = replicate_draws(seed, label, replicates, *draws)
        assert substream_calls == [(rejected,)]
        for i, b in enumerate(replicates):
            for rows, reference in zip(drawn, reference_draws(seed, label, b, draws)):
                assert_array_equal(rows[i], reference)

    @pytest.mark.parametrize(
        "draws",
        [
            ((389, None), (390, 8.0)),
            ((3, 2.0), (4, None), (5, None)),
            ((1, None), (5, None), (1, 2.0), (6, 3.0)),
        ],
        ids=["conditional-null", "carry-skips-uniforms", "n-one"],
    )
    def test_half_words_carry_as_numpy_does(self, draws):
        drawn = replicate_draws(11, "gc-conditional", range(40), *draws)
        for b in range(40):
            for rows, reference in zip(drawn, reference_draws(11, "gc-conditional", b, draws)):
                assert_array_equal(rows[b], reference)


class TestMcPValue:
    def test_adds_one_to_count_and_replicates(self):
        null = np.array([0.5, 2.0, 3.0, 1.0])
        assert mc_p_value(null, 2.0) == pytest.approx(3.0 / 5.0)
        assert mc_p_value(null, 9.0) == pytest.approx(1.0 / 5.0)

    def test_scores_columns_separately(self):
        null = np.array([[0.0, 5.0], [2.0, 5.0], [4.0, 5.0]])
        assert_array_equal(mc_p_value(null, np.array([1.0, 6.0])), [3.0 / 4.0, 1.0 / 4.0])


class TestReplicateBlocks:
    def test_blocks_cover_the_replicates_in_order(self):
        assert list(_rng.replicate_blocks(70)) == [slice(0, 32), slice(32, 64), slice(64, 70)]
        assert list(_rng.replicate_blocks(200, recursion=True)) == [
            slice(0, 128), slice(128, 200)
        ]
        assert list(_rng.replicate_blocks(0)) == []

    def test_sizes_are_read_at_each_call(self, monkeypatch):
        monkeypatch.setattr(_rng, "FIT_BLOCK", 7)
        monkeypatch.setattr(_rng, "RECURSION_BLOCK", 10)
        assert [b.stop for b in _rng.replicate_blocks(15)] == [7, 14, 15]
        assert [b.stop for b in _rng.replicate_blocks(15, recursion=True)] == [10, 15]


# The decision quantiles the library takes: pointwise and Bonferroni at
# alpha = 0.05 over 195 frequencies, and the bands' 2.5% and 97.5%.
QUANTILES = [0.0, 0.025, 0.5, 0.95, 0.975, 1.0 - 2.0 * 0.05 / 195, 1.0]


def quantile_cases():
    rng = np.random.default_rng(40)
    ties = rng.integers(0, 4, size=(57, 3, 2)).astype(float)
    with_nan = rng.normal(size=(40, 3))
    with_nan[17, 1] = np.nan
    return {
        "normal": rng.normal(size=1000),
        "ties": ties[:, 0, 0],
        "one": np.array([2.5]),
        "nan": np.r_[rng.normal(size=20), np.nan],
        "stack": rng.normal(size=(150, 4, 2, 2)),
        "stack_ties": ties,
        "stack_of_one": rng.normal(size=(1, 3)),
        "stack_nan_slice": with_nan,
    }


class TestQuantile:
    @pytest.mark.parametrize("q", QUANTILES)
    @pytest.mark.parametrize("case", sorted(quantile_cases()))
    def test_matches_numpy_bit_for_bit(self, case, q):
        values = quantile_cases()[case]
        expected = np.quantile(values, q, axis=0)
        got = _rng.quantile(values, q)
        assert type(got) is type(expected)
        assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()

    def test_matches_numpy_on_random_samples(self):
        rng = np.random.default_rng(41)
        for trial in range(500):
            n = int(rng.integers(1, 200))
            shape = (n,) if trial % 2 else (n, 3)
            values = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300)
            if trial % 3 == 0:
                values = np.round(values, 1)
            q = float(rng.random())
            expected = np.quantile(values, q, axis=0)
            assert np.asarray(_rng.quantile(values, q)).tobytes() == np.asarray(expected).tobytes()

    def test_partitions_in_place_only_when_asked(self):
        values = np.random.default_rng(42).normal(size=(60, 3))
        before = values.copy()
        expected = np.quantile(before, 0.975, axis=0)
        assert_array_equal(_rng.quantile(values, 0.975), expected)
        assert_array_equal(values, before)
        assert_array_equal(_rng.quantile(values, 0.975, overwrite_input=True), expected)
        assert not np.array_equal(values, before)
        assert_array_equal(np.sort(values, axis=0), np.sort(before, axis=0))
