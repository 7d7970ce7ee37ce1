"""Tests for the residual diagnostics: portmanteau and ARCH-LM."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from climdemand import _rng, diagnostics
from climdemand._rng import replicate_draws
from climdemand.diagnostics import (
    _arch_lm_batch,
    arch_lm_test,
    portmanteau_test,
)
from climdemand.errors import (
    ConfigError,
    DegenerateInputError,
    InvalidInputError,
)
from memory_budget import traced_peak


def loop_portmanteau(u, lags):
    """Plain-loop reference implementation of the portmanteau statistic."""
    u = u - u.mean(axis=0)
    n = u.shape[0]
    c0 = (u.T @ u) / n
    c0_inv = np.linalg.inv(c0)
    total = 0.0
    for j in range(1, lags + 1):
        cj = sum(np.outer(u[t], u[t - j]) for t in range(j, n)) / n
        total += np.trace(cj.T @ c0_inv @ cj @ c0_inv) / (n - j)
    return n * n * total


def loop_arch_lm(u, lags):
    """Reference ARCH-LM: per-equation OLS of squared residuals on lags."""
    n_rows, n_eq = u.shape
    out = np.empty(n_eq)
    for k in range(n_eq):
        z = u[:, k] ** 2
        y = z[lags:]
        cols = [np.ones(n_rows - lags)]
        cols += [z[lags - j : n_rows - j] for j in range(1, lags + 1)]
        design = np.column_stack(cols)
        beta, *_ = np.linalg.lstsq(design, y, rcond=None)
        resid = y - design @ beta
        tss = np.sum((y - y.mean()) ** 2)
        out[k] = (n_rows - lags) * (1.0 - resid @ resid / tss)
    return out


class TestStatisticOracles:
    def test_portmanteau_matches_loop_reference(self):
        rng = np.random.default_rng(0)
        u = rng.normal(size=(40, 2))
        assert portmanteau_test(u, 3).statistic == pytest.approx(
            loop_portmanteau(u, 3), rel=1e-10
        )

    def test_portmanteau_univariate_matches_loop(self):
        rng = np.random.default_rng(1)
        u = rng.normal(size=(60,))
        assert portmanteau_test(u, 5).statistic == pytest.approx(
            loop_portmanteau(u[:, None], 5), rel=1e-10
        )

    def test_arch_lm_matches_loop_reference(self):
        rng = np.random.default_rng(2)
        u = rng.normal(size=(80, 2))
        assert_allclose(arch_lm_test(u, 3).statistics, loop_arch_lm(u, 3), rtol=1e-8)

    def test_arch_lm_replicate_does_not_depend_on_its_stack(self):
        # A replicate whose squared residuals are constant has a singular
        # Gram matrix; the other replicates of its stack keep their bits.
        noise = np.random.default_rng(0).normal(size=(2, 120, 1))
        flat = np.where(np.arange(120) % 2, 1.0, -1.0)[None, :, None]
        alone = _arch_lm_batch(noise, 4)
        mixed = _arch_lm_batch(np.concatenate([noise, flat]), 4)
        assert mixed[:2].tobytes() == alone.tobytes()
        assert mixed[2, 0] == 0.0

    def test_portmanteau_nonnegative_and_grows_with_lags(self):
        rng = np.random.default_rng(3)
        u = rng.normal(size=(120, 2))
        q3 = portmanteau_test(u, 3).statistic
        q8 = portmanteau_test(u, 8).statistic
        assert 0.0 <= q3 <= q8

    def test_arch_lm_bounded_by_sample_size(self):
        rng = np.random.default_rng(4)
        u = rng.normal(size=(90, 2))
        stats = arch_lm_test(u, 4).statistics
        assert np.all(stats >= 0.0)
        assert np.all(stats <= 90 - 4)


class TestCalibration:
    def test_portmanteau_level_near_nominal_on_white_noise(self):
        rejections = 0
        n_sims = 120
        for s in range(n_sims):
            u = np.random.default_rng(10_000 + s).normal(size=(300, 2))
            result = portmanteau_test(u, lags=12, n_replicates=199, seed=s)
            rejections += result.p_value <= 0.05
        assert 0.01 * n_sims <= rejections <= 0.10 * n_sims

    def test_arch_level_not_inflated_on_white_noise(self):
        rejections = 0
        n_sims = 80
        for s in range(n_sims):
            u = np.random.default_rng(20_000 + s).normal(size=(300, 2))
            result = arch_lm_test(u, lags=12, n_replicates=199, seed=s)
            rejections += result.p_value <= 0.05
        # Bonferroni makes the combined test conservative, never liberal.
        assert rejections <= 0.09 * n_sims

    def test_portmanteau_detects_autocorrelation(self):
        detected = 0
        for s in range(40):
            rng = np.random.default_rng(30_000 + s)
            u = np.zeros((300, 2))
            eps = rng.normal(size=(300, 2))
            for t in range(1, 300):
                u[t] = 0.6 * u[t - 1] + eps[t]
            result = portmanteau_test(u, lags=12, n_replicates=199, seed=s)
            detected += result.p_value <= 0.05
        assert detected >= 38

    def test_arch_detects_conditional_heteroskedasticity(self):
        detected = 0
        for s in range(40):
            rng = np.random.default_rng(40_000 + s)
            eps = rng.normal(size=300)
            u = np.zeros(300)
            sigma_sq = 1.0
            for t in range(1, 300):
                sigma_sq = 0.3 + 0.65 * u[t - 1] ** 2
                u[t] = np.sqrt(sigma_sq) * eps[t]
            result = arch_lm_test(u, lags=12, n_replicates=199, seed=s)
            detected += result.p_value <= 0.05
        assert detected >= 36

    def test_arch_process_passes_portmanteau(self):
        # ARCH residuals are serially uncorrelated in levels, so the
        # portmanteau test should stay near its nominal level on them.
        rejections = 0
        for s in range(40):
            rng = np.random.default_rng(50_000 + s)
            eps = rng.normal(size=400)
            u = np.zeros(400)
            for t in range(1, 400):
                u[t] = np.sqrt(0.3 + 0.5 * u[t - 1] ** 2) * eps[t]
            result = portmanteau_test(u, lags=12, n_replicates=199, seed=s)
            rejections += result.p_value <= 0.05
        assert rejections <= 8


class TestBlockedNull:
    def test_blocks_do_not_change_the_null(self, monkeypatch):
        u = np.random.default_rng(13).normal(size=(200, 2))

        def results(block):
            monkeypatch.setattr(_rng, "FIT_BLOCK", block)
            port = portmanteau_test(u, lags=6, n_replicates=150, seed=4)
            arch = arch_lm_test(u, lags=6, n_replicates=150, seed=4)
            return np.r_[
                port.statistic, port.p_value, arch.statistics, arch.p_values, arch.p_value
            ].tobytes()

        assert results(7) == results(150)

    def test_slices_do_not_change_arch_lm(self, monkeypatch):
        # ARCH-LM scores each fit block _rng.FACTOR_SLICE replicates at a
        # time.  In the hand-built stack, replicate 5's first equation has
        # constant squared residuals, so its Gram matrix is singular and
        # _solve_or_pinv runs inside whichever slice holds it.
        u = np.random.default_rng(15).normal(size=(200, 2))
        stack = np.random.default_rng(16).normal(size=(13, 120, 2))
        stack[5, :, 0] = np.where(stack[5, :, 0] > 0.0, 1.5, -1.5)

        fallbacks = []
        solve = diagnostics._solve_or_pinv
        monkeypatch.setattr(diagnostics, "_solve_or_pinv",
                            lambda g, m: fallbacks.append(g) or solve(g, m))

        def results(size):
            monkeypatch.setattr(_rng, "FACTOR_SLICE", size)
            arch = arch_lm_test(u, lags=6, n_replicates=150, seed=4)
            fallbacks.clear()
            batch = _arch_lm_batch(stack, 6)
            # The slice that holds replicate 5 falls back, one call each.
            assert len(fallbacks) == min(size, len(stack))
            return np.r_[arch.statistics, arch.p_values, arch.p_value].tobytes(), batch.tobytes()

        default = _rng.FACTOR_SLICE
        assert results(1) == results(default) == results(32)
        alone = [_arch_lm_batch(stack[b : b + 1], 6)[0] for b in range(len(stack))]
        assert results(default)[1] == np.array(alone).tobytes()
        assert alone[5][0] == 0.0

    @pytest.mark.parametrize(
        "test, budget_mib", [(portmanteau_test, 2.0), (arch_lm_test, 1.5)]
    )
    def test_null_runs_within_a_memory_budget(self, test, budget_mib):
        # About the benchmark screen's size: 386 x 2 residuals, 12 lags and 500
        # replicates.  Scored all at once, the portmanteau null peaked at
        # 6.3 MiB and the ARCH-LM null at 45.6 MiB; in blocks, 0.8 and 3.3.
        # ARCH-LM scored a factor slice at a time into one design, 1.0.
        u = np.random.default_rng(14).normal(size=(386, 2))
        replicate_draws.cache_clear()
        peak, _ = traced_peak(lambda: test(u, lags=12, n_replicates=500, seed=0))
        assert peak <= budget_mib * 2**20


class TestInterface:
    def test_deterministic_given_seed(self):
        u = np.random.default_rng(5).normal(size=(200, 2))
        a = portmanteau_test(u, lags=6, n_replicates=150, seed=9)
        b = portmanteau_test(u, lags=6, n_replicates=150, seed=9)
        assert a == b
        c = arch_lm_test(u, lags=6, n_replicates=150, seed=9)
        d = arch_lm_test(u, lags=6, n_replicates=150, seed=9)
        assert c.p_value == d.p_value
        assert_allclose(c.p_values, d.p_values)

    def test_p_value_floor(self):
        rng = np.random.default_rng(6)
        u = np.zeros((300, 1))
        eps = rng.normal(size=300)
        for t in range(1, 300):
            u[t] = 0.9 * u[t - 1, 0] + eps[t]
        result = portmanteau_test(u, lags=12, n_replicates=100, seed=0)
        assert result.p_value == pytest.approx(1.0 / 101.0)

    def test_too_few_rows(self):
        u = np.random.default_rng(7).normal(size=(20, 2))
        with pytest.raises(ConfigError) as exc:
            portmanteau_test(u, lags=19)
        assert "lags" in exc.value.fields
        with pytest.raises(ConfigError):
            arch_lm_test(u, 10)

    def test_bad_lags(self):
        u = np.random.default_rng(8).normal(size=(100, 2))
        with pytest.raises(ConfigError):
            portmanteau_test(u, 0)
        with pytest.raises(ConfigError):
            arch_lm_test(u, -3)

    def test_replicate_floor(self):
        u = np.random.default_rng(9).normal(size=(100, 2))
        with pytest.raises(ConfigError):
            portmanteau_test(u, lags=4, n_replicates=50)
        with pytest.raises(ConfigError):
            arch_lm_test(u, lags=4, n_replicates=50)

    def test_constant_column_rejected(self):
        u = np.random.default_rng(10).normal(size=(100, 2))
        u[:, 1] = 2.5
        with pytest.raises(DegenerateInputError):
            portmanteau_test(u, 4)

    def test_non_finite_rejected(self):
        u = np.random.default_rng(11).normal(size=(100, 2))
        u[3, 0] = np.nan
        with pytest.raises(InvalidInputError):
            portmanteau_test(u, 4)
        with pytest.raises(InvalidInputError):
            arch_lm_test(np.full((100, 1), np.inf), lags=4)

    def test_combined_p_is_bonferroni(self):
        u = np.random.default_rng(12).normal(size=(250, 3))
        result = arch_lm_test(u, lags=8, n_replicates=150, seed=2)
        assert result.p_value == pytest.approx(
            min(1.0, 3 * result.p_values.min())
        )
        assert result.statistics.shape == (3,)
