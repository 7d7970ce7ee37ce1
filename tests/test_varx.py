"""Tests for VARX estimation, bootstrap inference, IRF and FEVD."""

import dataclasses
import datetime as dt

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from climdemand import _rng
from climdemand._rng import replicate_draws
from climdemand.errors import (
    AlignmentError,
    ConfigError,
    InsufficientDataError,
    InvalidInputError,
    NumericalError,
    RankDeficiencyError,
    ShapeError,
    StabilityError,
)
from climdemand.varx import (
    VarxBootstrap,
    build_exogenous,
    bias_correct,
    fevd,
    fit_varx,
    forecast_recursive,
    irf,
    residual_bootstrap,
    stability_check,
)
from memory_budget import traced_peak


def weekly_axis(n, start=dt.date(2016, 1, 4)):
    return tuple(start + dt.timedelta(days=7 * k) for k in range(n))


def simulate_varx2(rng, T=400, with_exog=True):
    """Bivariate VARX(2) with Fourier exogenous terms and known parameters."""
    A1 = np.array([[0.5, 0.1], [0.2, 0.3]])
    A2 = np.array([[-0.2, 0.0], [0.1, 0.15]])
    intercept = np.array([0.5, -0.3])
    weeks = weekly_axis(T)
    design = build_exogenous(weeks, harmonics=1)
    B = (
        np.array([[0.8, -0.4, 0.0], [0.3, 0.6, 0.0]])
        if with_exog
        else np.zeros((2, 3))
    )
    y = np.zeros((T, 2))
    for t in range(2, T):
        y[t] = (
            intercept
            + A1 @ y[t - 1]
            + A2 @ y[t - 2]
            + B @ design.values[t]
            + rng.normal(size=2)
        )
    return y, design, intercept, (A1, A2), B


def norm_power_radius(matrix, squarings=40):
    """Spectral radius via ||M^(2^n)||^(1/2^n) with renormalized squaring."""
    m = matrix.astype(float)
    log_scale = 0.0
    weight = 1.0
    for _ in range(squarings):
        norm = np.linalg.norm(m, 2)
        if norm == 0.0:
            return 0.0
        log_scale += weight * np.log(norm)
        m = (m / norm) @ (m / norm)
        weight /= 2.0
    log_scale += weight * np.log(np.linalg.norm(m, 2))
    return float(np.exp(log_scale))


class TestExogenousDesign:
    def test_august_dummy_flags_exactly_one_week(self):
        # 2020-08-15 fell on a Saturday; its week starts Monday 2020-08-10.
        weeks = weekly_axis(6, start=dt.date(2020, 7, 27))
        design = build_exogenous(weeks)
        dummy = design.values[:, design.column_names.index("august15")]
        assert_array_equal(dummy, [0.0, 0.0, 1.0, 0.0, 0.0, 0.0])

    def test_fourier_identity_and_periodicity(self):
        design = build_exogenous(weekly_axis(160), harmonics=1)
        sin = design.values[:, 0]
        cos = design.values[:, 1]
        assert_allclose(sin**2 + cos**2, np.ones(160), atol=1e-12)
        assert_allclose(sin[52:], sin[:-52], atol=1e-12)
        assert_allclose(cos[52:], cos[:-52], atol=1e-12)

    def test_baseline_columns_appended(self):
        weeks = weekly_axis(10)
        fitted = np.arange(10.0)
        design = build_exogenous(weeks, baselines={"demand_baseline": fitted})
        assert design.column_names[-1] == "demand_baseline"
        assert_array_equal(design.values[:, -1], fitted)

    def test_baseline_length_mismatch(self):
        with pytest.raises(AlignmentError):
            build_exogenous(weekly_axis(10), baselines={"b": np.arange(9.0)})


class TestFit:
    def test_ar1_matches_centered_regression(self):
        rng = np.random.default_rng(0)
        y = np.zeros(300)
        for t in range(1, 300):
            y[t] = 0.2 + 0.6 * y[t - 1] + rng.normal()
        model = fit_varx(y[:, None], order=1, names=("y",))
        x, z = y[:-1], y[1:]
        slope = np.sum((x - x.mean()) * (z - z.mean())) / np.sum((x - x.mean()) ** 2)
        assert model.endo_coef[0, 0, 0] == pytest.approx(slope, abs=1e-10)

    def test_known_varx2_recovered_within_3se(self):
        rng = np.random.default_rng(1)
        y, design, intercept, (A1, A2), B = simulate_varx2(rng)
        model = fit_varx(y, design, order=2, names=("a", "b"))
        assert np.all(np.abs(model.endo_coef[0] - A1) < 3 * model.endo_se[0])
        assert np.all(np.abs(model.endo_coef[1] - A2) < 3 * model.endo_se[1])
        assert np.all(np.abs(model.exo_coef - B) < 3 * model.exo_se)
        assert np.all(np.abs(model.intercept - intercept) < 3 * model.intercept_se)

    def test_residuals_centered(self):
        rng = np.random.default_rng(2)
        y, design, *_ = simulate_varx2(rng)
        model = fit_varx(y, design, order=2)
        assert np.max(np.abs(model.residuals.mean(axis=0))) < 1e-10

    def test_bic_selects_true_order(self):
        rng = np.random.default_rng(3)
        y, design, *_ = simulate_varx2(rng, T=3000)
        model = fit_varx(y, design, max_order=4)
        assert model.order == 2
        assert set(model.bic_by_order) == {1, 2, 3, 4}

    def test_zero_exog_column_named(self):
        rng = np.random.default_rng(4)
        y = rng.normal(size=(200, 2))
        exog = np.zeros((200, 1))
        with pytest.raises(RankDeficiencyError) as exc:
            fit_varx(y, exog, order=1)
        assert "x1" in exc.value.columns

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            fit_varx(np.random.default_rng(5).normal(size=(15, 2)), order=2)

    def test_design_truncation_from_longer_exog(self):
        rng = np.random.default_rng(6)
        y, design, *_ = simulate_varx2(rng, T=200)
        longer = build_exogenous(weekly_axis(260), harmonics=1)
        model = fit_varx(y, longer, order=2)
        assert_array_equal(model.exog_values, longer.values[:200])


def oracle_simulate_batch(intercept, endo_coef, exo_coef, exog_values, initial, innovations):
    """Recursive simulation, (B, T, K) from the observed first p rows."""
    n_rep, n_inno, K = innovations.shape
    p = initial.shape[0]
    T = p + n_inno
    deterministic = intercept[None, :] + exog_values @ exo_coef.T
    out = np.empty((n_rep, T, K))
    out[:, :p] = initial[None, :, :]
    for t in range(p, T):
        acc = np.broadcast_to(deterministic[t], (n_rep, K)).copy()
        for lag in range(p):
            acc += out[:, t - 1 - lag] @ endo_coef[lag].T
        out[:, t] = acc + innovations[:, t - p]
    return out


def oracle_batched_refit(simulated, exog_values, order):
    """Equation-wise OLS per replicate by LU solves; (coef, resid_cov)."""
    n_rep, T, K = simulated.shape
    n = T - order
    blocks = [np.ones((n_rep, n, 1))]
    for lag in range(1, order + 1):
        blocks.append(simulated[:, order - lag : T - lag])
    blocks.append(np.broadcast_to(exog_values[order:], (n_rep, n, exog_values.shape[1])))
    design = np.concatenate(blocks, axis=2)
    target = simulated[:, order:]
    gram = design.transpose(0, 2, 1) @ design
    coef = np.linalg.solve(gram, design.transpose(0, 2, 1) @ target)
    residuals = target - design @ coef
    resid_cov = residuals.transpose(0, 2, 1) @ residuals / (n - design.shape[2])
    return coef, resid_cov


class TestBootstrap:
    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(7)
        y, design, *_ = simulate_varx2(rng, T=250)
        model = fit_varx(y, design, order=2)
        a = residual_bootstrap(model, n_replicates=150, seed=11)
        b = residual_bootstrap(model, n_replicates=150, seed=11)
        assert_array_equal(a.endo_draws, b.endo_draws)
        assert_array_equal(a.endo_lower, b.endo_lower)
        c = residual_bootstrap(model, n_replicates=150, seed=12)
        assert not np.array_equal(a.endo_draws, c.endo_draws)

    @pytest.mark.parametrize("block", [7, 64])
    def test_blocked_draws_equal_one_shot_draws(self, monkeypatch, block):
        # Replicates are simulated in recursion blocks and refit in fit
        # blocks of a recursion block to bound memory; no draw may depend on
        # either size.
        rng = np.random.default_rng(8)
        y, design, *_ = simulate_varx2(rng, T=250)
        model = fit_varx(y, design, order=2)
        monkeypatch.setattr(_rng, "RECURSION_BLOCK", 10**6)
        monkeypatch.setattr(_rng, "FIT_BLOCK", 10**6)
        whole = residual_bootstrap(model, n_replicates=150, seed=3)
        monkeypatch.setattr(_rng, "RECURSION_BLOCK", block)
        for fit_block in (5, 32, 10**6):
            monkeypatch.setattr(_rng, "FIT_BLOCK", fit_block)
            blocked = residual_bootstrap(model, n_replicates=150, seed=3)
            for field in ("intercept_draws", "endo_draws", "exo_draws", "resid_cov_draws",
                          "endo_lower", "endo_upper", "exo_lower", "exo_upper"):
                assert_array_equal(getattr(blocked, field), getattr(whole, field))

    def test_singular_replicate_is_an_error(self, monkeypatch):
        # One replicate of the second refit slice gets a singular design:
        # the bootstrap rejects the run once its block of 128 replicates is
        # refit, four slices of 32.
        from climdemand import varbase

        rng = np.random.default_rng(9)
        y, design, *_ = simulate_varx2(rng, T=250)
        model = fit_varx(y, design, order=2, names=("a", "b"))
        least_squares = varbase.least_squares
        slices = []

        def flagging(matrix, q):
            coef, r_inv, r22, failed = least_squares(matrix, q)
            slices.append(len(matrix))
            if len(slices) == 2:
                failed[5] = True
            return coef, r_inv, r22, failed

        monkeypatch.setattr(varbase, "least_squares", flagging)
        with pytest.raises(NumericalError,
                           match="^a bootstrap replicate produced a singular regression design$"):
            residual_bootstrap(model, n_replicates=150, seed=1)
        assert slices == [32, 32, 32, 32]

    @pytest.mark.parametrize("bootstrap", ["residual_bootstrap", "fevd", "irf"])
    def test_runs_within_a_memory_budget(self, bootstrap):
        # The pipeline's VARX size: 338 weeks of two variables, five
        # exogenous columns (two Fourier terms, the August dummy, two
        # baselines), order 2, 1000 replicates.  Refit 128 replicates per
        # QR, the residual bootstrap peaked at 10.9 MiB; refit 32 at a time,
        # 4.7; refit as simulate_var returns the samples, with no copy that
        # adds the initial rows and no innovations held through the refit,
        # 3.3; with no R11^-1 kept per replicate, 3.2.  The FEVD of all 1000
        # draws at once peaked at 4.8 MiB; 128 replicates at a time, 1.0.
        # The IRF at 52 horizons, of all draws at once and banded by
        # np.quantile, peaked at 3.3 MiB; 128 replicates at a time and
        # banded in place, 2.0.
        rng = np.random.default_rng(26)
        y, design, *_ = simulate_varx2(rng, T=338)
        baselines = {f"b{i}": rng.normal(size=338) for i in range(2)}
        exog = build_exogenous(weekly_axis(338), baselines=baselines, harmonics=1)
        model = fit_varx(y, exog, order=2, names=("a", "b"))
        if bootstrap == "fevd":
            inference = residual_bootstrap(model, n_replicates=1000)
            run, budget_mib = (lambda: fevd(model, inference=inference)), 1.5
        elif bootstrap == "irf":
            inference = residual_bootstrap(model, n_replicates=1000)
            run, budget_mib = (lambda: irf(model, horizon=52, inference=inference)), 2.5
        else:
            run, budget_mib = (lambda: residual_bootstrap(model, n_replicates=1000)), 4.0
        replicate_draws.cache_clear()
        peak, _ = traced_peak(run)
        assert peak <= budget_mib * 2**20

    def test_draws_match_per_replicate_oracle(self):
        # Oracle: the bootstrap as a separate simulator and refit computed
        # it, one replicate stream at a time and with its own solves.
        from climdemand._rng import substream

        rng = np.random.default_rng(10)
        y, design, *_ = simulate_varx2(rng, T=250)
        model = fit_varx(y, design, max_order=3)
        boot = residual_bootstrap(model, n_replicates=150, seed=6)
        centered = model.residuals - model.residuals.mean(axis=0)
        n = centered.shape[0]
        indices = np.stack(
            [substream(6, "varx-bootstrap", b).integers(0, n, size=n) for b in range(150)]
        )
        simulated = oracle_simulate_batch(
            model.intercept, model.endo_coef, model.exo_coef, model.exog_values,
            model.endog[: model.order], centered[indices],
        )
        coef, resid_cov = oracle_batched_refit(simulated, model.exog_values, model.order)
        p, K = model.order, model.n_variables
        expected = {
            "intercept_draws": coef[:, 0, :],
            "endo_draws": coef[:, 1 : 1 + p * K].reshape(150, p, K, K).transpose(0, 1, 3, 2),
            "exo_draws": coef[:, 1 + p * K :].transpose(0, 2, 1),
            "resid_cov_draws": resid_cov,
        }
        for field, oracle in expected.items():
            drawn = getattr(boot, field)
            assert drawn.shape == oracle.shape
            scale = np.max(np.abs(oracle))
            assert np.max(np.abs(drawn - oracle)) <= 1e-12 * scale, field

    def test_noiseless_system_gives_degenerate_intervals(self):
        # Exact linear recursion: residuals are zero to machine precision,
        # so every replicate reproduces the same coefficients.
        A = np.array([[0.8, 0.1], [0.05, 0.7]])
        y = np.zeros((60, 2))
        y[0] = [5.0, -3.0]
        for t in range(1, 60):
            y[t] = A @ y[t - 1]
        model = fit_varx(y, order=1)
        boot = residual_bootstrap(model, n_replicates=120, seed=0)
        width = boot.endo_upper - boot.endo_lower
        assert np.max(width) < 1e-8
        assert np.max(np.abs(boot.endo_draws - model.endo_coef)) < 1e-8

    def test_interval_coverage_reasonable(self):
        # Small-scale check of the nested-simulation property; the full
        # 200-system criterion lives in the acceptance suite.
        covered = 0
        for seed in range(30):
            rng = np.random.default_rng(2_000 + seed)
            y = np.zeros((300, 1))
            for t in range(1, 300):
                y[t] = 0.3 + 0.55 * y[t - 1] + rng.normal()
            model = fit_varx(y, order=1)
            boot = residual_bootstrap(model, n_replicates=200, seed=seed)
            covered += (
                boot.endo_lower[0, 0, 0] <= 0.55 <= boot.endo_upper[0, 0, 0]
            )
        assert covered >= 24

    def test_replicate_floor(self):
        rng = np.random.default_rng(8)
        y, design, *_ = simulate_varx2(rng, T=200)
        model = fit_varx(y, design, order=2)
        with pytest.raises(ConfigError):
            residual_bootstrap(model, n_replicates=99)


class TestBiasCorrection:
    @staticmethod
    def fake_inference(model, endo_mean):
        """Two symmetric draws around the requested means."""
        spread = 0.01
        endo = np.stack([endo_mean + spread, endo_mean - spread])
        intercept = np.stack([model.intercept + spread, model.intercept - spread])
        exo = np.stack([model.exo_coef + spread, model.exo_coef - spread])
        cov = np.stack([model.resid_cov, model.resid_cov])
        zeros = np.zeros_like
        return VarxBootstrap(
            n_replicates=2,
            intercept_draws=intercept,
            endo_draws=endo,
            exo_draws=exo,
            resid_cov_draws=cov,
            intercept_lower=zeros(model.intercept),
            intercept_upper=zeros(model.intercept),
            intercept_significant=model.intercept > np.inf,
            endo_lower=zeros(model.endo_coef),
            endo_upper=zeros(model.endo_coef),
            endo_significant=model.endo_coef > np.inf,
            exo_lower=zeros(model.exo_coef),
            exo_upper=zeros(model.exo_coef),
            exo_significant=model.exo_coef > np.inf,
        )

    def fitted_ar1(self, phi=0.6):
        rng = np.random.default_rng(9)
        y = np.zeros(200)
        for t in range(1, 200):
            y[t] = phi * y[t - 1] + rng.normal()
        return fit_varx(y[:, None], order=1)

    def test_zero_bias_is_identity(self):
        model = self.fitted_ar1()
        inference = self.fake_inference(model, model.endo_coef)
        correction = bias_correct(model, inference)
        assert correction.delta_applied == 1.0
        assert_array_equal(correction.model.endo_coef, model.endo_coef)
        assert_array_equal(correction.model.intercept, model.intercept)

    def test_ar_bias_is_counteracted_upward(self):
        # Least squares biases the AR coefficient downward in short samples;
        # the bootstrap correction should push it back up on average.
        raised = 0
        for seed in range(120):
            rng = np.random.default_rng(3_000 + seed)
            y = np.zeros(100)
            for t in range(1, 100):
                y[t] = 0.9 * y[t - 1] + rng.normal()
            model = fit_varx(y[:, None], order=1)
            if model.companion_radius >= 1.0:
                continue
            boot = residual_bootstrap(model, n_replicates=100, seed=seed)
            corrected = bias_correct(model, boot).model
            raised += corrected.endo_coef[0, 0, 0] > model.endo_coef[0, 0, 0]
        assert raised > 80

    def test_shrinkage_restores_stability(self):
        model = dataclasses.replace(
            self.fitted_ar1(), endo_coef=np.array([[[0.98]]]), companion_radius=0.98
        )
        # Draw mean sits below the estimate, so subtracting the bias pushes
        # the coefficient to 1.02 and shrinkage has to kick in.
        inference = self.fake_inference(model, np.array([[[0.94]]]))
        correction = bias_correct(model, inference)
        assert correction.delta_applied < 1.0
        assert correction.model.companion_radius < 1.0
        assert correction.model.endo_coef[0, 0, 0] > 0.98

    def test_unstable_point_estimate_raises(self):
        model = dataclasses.replace(
            self.fitted_ar1(), endo_coef=np.array([[[1.01]]]), companion_radius=1.01
        )
        inference = self.fake_inference(model, np.array([[[1.0]]]))
        with pytest.raises(StabilityError):
            bias_correct(model, inference)


class TestDrawShapes:
    """Bands and bias corrections take only draws of the model's own shape."""

    @staticmethod
    def fits():
        rng = np.random.default_rng(12)
        y, z = rng.normal(size=(200, 2)), rng.normal(size=(200, 3))
        exog = rng.normal(size=(200, 1))
        return {
            "a": fit_varx(y, order=1),
            "order 2": fit_varx(y, order=2),
            "3 variables": fit_varx(z, order=1),
            "1 exogenous column": fit_varx(y, exog, order=1),
        }

    @pytest.mark.parametrize("other", ["order 2", "3 variables", "1 exogenous column"])
    def test_draws_of_another_model_are_a_shape_error(self, other):
        fits = self.fits()
        model, boot = fits["a"], residual_bootstrap(fits[other], 100, 0)
        for call in (
            lambda: irf(model, 5, boot),
            lambda: fevd(model, inference=boot),
            lambda: bias_correct(model, boot),
        ):
            with pytest.raises(ShapeError, match="bootstrap draws of lag shape"):
                call()


class TestForecast:
    def test_zero_coefficients_follow_exogenous_path(self):
        rng = np.random.default_rng(10)
        y, design, *_ = simulate_varx2(rng, T=200)
        model = fit_varx(y, design, order=2)
        stripped = dataclasses.replace(
            model,
            endo_coef=np.zeros_like(model.endo_coef),
            intercept=np.array([1.0, -2.0]),
            exo_coef=np.array([[2.0, 0.0, 0.0], [0.0, 3.0, 0.0]]),
        )
        future = np.column_stack(
            [np.linspace(0, 1, 8), np.linspace(1, 0, 8), np.zeros(8)]
        )
        out = forecast_recursive(stripped, 8, future)
        expected = np.array([1.0, -2.0])[None, :] + future @ stripped.exo_coef.T
        assert_allclose(out, expected, atol=1e-12)

    def test_ar1_halving_path(self):
        rng = np.random.default_rng(11)
        y = rng.normal(size=(120, 1))
        y[-1, 0] = 8.0
        model = fit_varx(y, order=1)
        halving = dataclasses.replace(
            model,
            endo_coef=np.array([[[0.5]]]),
            intercept=np.zeros(1),
        )
        out = forecast_recursive(halving, 3)
        assert_allclose(out[:, 0], [4.0, 2.0, 1.0], atol=1e-12)

    def test_exog_horizon_too_short(self):
        rng = np.random.default_rng(12)
        y, design, *_ = simulate_varx2(rng, T=200)
        model = fit_varx(y, design, order=2)
        with pytest.raises(AlignmentError):
            forecast_recursive(model, 10, design.values[:5])
        with pytest.raises(AlignmentError):
            forecast_recursive(model, 10)

    def test_stable_forecast_approaches_mean(self):
        rng = np.random.default_rng(13)
        y = np.zeros(400)
        for t in range(1, 400):
            y[t] = 1.0 + 0.7 * y[t - 1] + rng.normal()
        model = fit_varx(y[:, None], order=1)
        path = forecast_recursive(model, 60)[:, 0]
        phi = model.endo_coef[0, 0, 0]
        mean = model.intercept[0] / (1.0 - phi)
        gaps = np.abs(path - mean)
        assert gaps[-1] < 1e-3 * abs(mean)
        assert np.all(np.diff(gaps) <= 1e-12)


class TestImpulseResponses:
    def fit_stable(self, seed=14, T=300):
        rng = np.random.default_rng(seed)
        y, design, *_ = simulate_varx2(rng, T=T)
        return fit_varx(y, design, order=2, names=("temp", "demand"))

    def test_horizon_zero_is_cholesky(self):
        model = self.fit_stable()
        result = irf(model, horizon=5)
        assert_allclose(
            result.responses[0], np.linalg.cholesky(model.resid_cov), atol=1e-12
        )

    def test_var1_closed_form(self):
        rng = np.random.default_rng(15)
        y = np.zeros((500, 2))
        A = np.array([[0.6, 0.15], [0.1, 0.4]])
        for t in range(1, 500):
            y[t] = A @ y[t - 1] + rng.multivariate_normal(
                np.zeros(2), [[1.0, 0.3], [0.3, 0.5]]
            )
        model = fit_varx(y, order=1)
        result = irf(model, horizon=12)
        L = np.linalg.cholesky(model.resid_cov)
        A_hat = model.endo_coef[0]
        for h in range(13):
            assert_allclose(
                result.responses[h],
                np.linalg.matrix_power(A_hat, h) @ L,
                atol=1e-10,
            )

    def test_decoupled_system_has_zero_cross_responses(self):
        model = self.fit_stable()
        decoupled = dataclasses.replace(
            model,
            endo_coef=np.array(
                [[[0.5, 0.0], [0.0, 0.3]], [[0.1, 0.0], [0.0, 0.2]]]
            ),
            resid_cov=np.diag([1.0, 2.0]),
        )
        result = irf(decoupled, horizon=10)
        assert_allclose(result.responses[:, 0, 1], 0.0, atol=1e-14)
        assert_allclose(result.responses[:, 1, 0], 0.0, atol=1e-14)

    def test_unstable_model_rejected(self):
        model = self.fit_stable()
        runaway = dataclasses.replace(
            model, endo_coef=np.array([[[1.1, 0.0], [0.0, 0.2]], np.zeros((2, 2))])
        )
        with pytest.raises(StabilityError):
            irf(runaway, horizon=5)

    def test_bands_bracket_each_other(self):
        model = self.fit_stable()
        boot = residual_bootstrap(model, n_replicates=150, seed=3)
        result = irf(model, horizon=8, inference=boot)
        assert result.lower.shape == result.responses.shape
        assert np.all(result.lower <= result.upper + 1e-12)

    @pytest.mark.parametrize("block", [7, 64])
    def test_blocked_bands_equal_one_shot_bands(self, monkeypatch, block):
        # The draws go through the responses a block at a time, and are
        # banded by partitioning them in place, to bound memory; no band may
        # depend on the block size, and each is np.quantile of the responses.
        from climdemand.varx import _phi_matrices

        model = self.fit_stable()
        boot = residual_bootstrap(model, n_replicates=150, seed=3)
        monkeypatch.setattr(_rng, "RECURSION_BLOCK", 10**6)
        whole = irf(model, horizon=20, inference=boot)
        monkeypatch.setattr(_rng, "RECURSION_BLOCK", block)
        blocked = irf(model, horizon=20, inference=boot)
        for field in ("responses", "lower", "upper"):
            assert_array_equal(getattr(blocked, field), getattr(whole, field))
        factors = np.linalg.cholesky(boot.resid_cov_draws)
        draws = _phi_matrices(boot.endo_draws, 20) @ factors[:, None]
        assert_array_equal(whole.lower, np.quantile(draws, 0.025, axis=0))
        assert_array_equal(whole.upper, np.quantile(draws, 0.975, axis=0))


class TestFevd:
    def test_shares_sum_to_one(self):
        rng = np.random.default_rng(16)
        y, design, *_ = simulate_varx2(rng, T=300)
        model = fit_varx(y, design, order=2)
        result = fevd(model)
        assert result.horizons == tuple(range(4, 53, 4))
        assert_allclose(result.shares.sum(axis=2), 1.0, atol=1e-12)
        assert np.all(result.shares >= 0.0)
        assert np.all(result.shares <= 1.0)

    def test_decoupled_system_own_share_is_one(self):
        rng = np.random.default_rng(17)
        y, design, *_ = simulate_varx2(rng, T=300)
        model = fit_varx(y, design, order=2)
        decoupled = dataclasses.replace(
            model,
            endo_coef=np.array(
                [[[0.5, 0.0], [0.0, 0.3]], [[0.1, 0.0], [0.0, 0.2]]]
            ),
            resid_cov=np.diag([1.0, 2.0]),
        )
        result = fevd(decoupled, horizons=(1, 4, 12))
        for h in range(3):
            assert_allclose(result.shares[h], np.eye(2), atol=1e-14)

    def test_bootstrap_summaries(self):
        rng = np.random.default_rng(18)
        y, design, *_ = simulate_varx2(rng, T=300)
        model = fit_varx(y, design, order=2)
        boot = residual_bootstrap(model, n_replicates=150, seed=4)
        result = fevd(model, horizons=(4, 8), inference=boot)
        assert result.mean.shape == result.shares.shape
        assert np.all(result.lower <= result.mean + 1e-12)
        assert np.all(result.mean <= result.upper + 1e-12)

    @pytest.mark.parametrize("block", [7, 64])
    def test_blocked_bands_equal_one_shot_bands(self, monkeypatch, block):
        # The draws go through the decomposition a block at a time to bound
        # memory; no band may depend on the block size.
        rng = np.random.default_rng(18)
        y, design, *_ = simulate_varx2(rng, T=300)
        model = fit_varx(y, design, order=2)
        boot = residual_bootstrap(model, n_replicates=150, seed=4)
        monkeypatch.setattr(_rng, "RECURSION_BLOCK", 10**6)
        whole = fevd(model, inference=boot)
        monkeypatch.setattr(_rng, "RECURSION_BLOCK", block)
        blocked = fevd(model, inference=boot)
        for field in ("shares", "mean", "lower", "upper"):
            assert_array_equal(getattr(blocked, field), getattr(whole, field))

    def test_bad_horizons(self):
        rng = np.random.default_rng(19)
        y, design, *_ = simulate_varx2(rng, T=300)
        model = fit_varx(y, design, order=2)
        with pytest.raises(InvalidInputError):
            fevd(model, horizons=(0, 4))

    @pytest.mark.parametrize(
        "first_lag, radius", [(1.0, "1.0000"), (1.1, "1.1000")], ids=["unit_root", "explosive"]
    )
    def test_unstable_model_rejected(self, first_lag, radius):
        rng = np.random.default_rng(19)
        y, design, *_ = simulate_varx2(rng, T=300)
        model = fit_varx(y, design, order=2)
        unstable = dataclasses.replace(
            model, endo_coef=np.array([[[first_lag, 0.0], [0.0, 0.2]], np.zeros((2, 2))])
        )
        with pytest.raises(StabilityError, match=f"companion radius is {radius}"):
            fevd(unstable, horizons=(4, 8))


class TestStability:
    def test_scalar_ar(self):
        rng = np.random.default_rng(25)
        y = rng.normal(size=(100, 1))
        model = fit_varx(y, order=1)
        halved = dataclasses.replace(model, endo_coef=np.array([[[0.5]]]))
        assert stability_check(halved) == pytest.approx(0.5, abs=1e-12)

    def test_zero_coefficients(self):
        rng = np.random.default_rng(26)
        y = rng.normal(size=(100, 2))
        model = fit_varx(y, order=2)
        silent = dataclasses.replace(model, endo_coef=np.zeros((2, 2, 2)))
        assert stability_check(silent) == 0.0

    def test_matches_norm_power_oracle(self):
        rng = np.random.default_rng(27)
        y, design, *_ = simulate_varx2(rng, T=400)
        model = fit_varx(y, design, order=2)
        K = 2
        companion = np.zeros((4, 4))
        companion[:K, :K] = model.endo_coef[0]
        companion[:K, K:] = model.endo_coef[1]
        companion[K:, :K] = np.eye(K)
        assert stability_check(model) == pytest.approx(
            norm_power_radius(companion), abs=1e-8
        )
