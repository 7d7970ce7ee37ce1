"""Tests for the shared lasso solver (homotopy path plus gap certificate).

The oracle is a copy of the cyclic coordinate descent both the trend and
the sparse VAR used before the homotopy solver, run from zero to the trend's
relative duality gap of 1e-12 (at the sparse VAR's 1e-8 it is accurate to
only about 1e-7 in the coefficients).  Every case checks the solver's
certificate, the KKT conditions, determinism, and agreement with the oracle
in support, coefficients and fitted values.
"""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from climdemand.errors import ConvergenceError, InvalidInputError
from climdemand.lasso import lasso_path, solve_lasso
from climdemand.synth import SynthConfig, generate_synthetic_panel
from climdemand.trend import TrendFitConfig, changepoint_grid, seasonal_design
from climdemand.varbase import simulate_var

TREND_TOL = 1e-12
TREND_MAX_ITER = 200_000
VAR_TOL = 1e-8
VAR_MAX_ITER = 50_000
ORACLE_TOL = 1e-12


def duality_gap(gram, moment, y_sq_mean, lam, beta, gram_beta):
    resid_sq_mean = max(y_sq_mean - 2.0 * moment @ beta + beta @ gram_beta, 0.0)
    primal = 0.5 * resid_sq_mean + lam * np.abs(beta).sum()
    corr_max = np.max(np.abs(moment - gram_beta)) if moment.size else 0.0
    shrink = 1.0 if corr_max <= lam or corr_max == 0.0 else lam / corr_max
    dual = shrink * (y_sq_mean - moment @ beta) - 0.5 * shrink**2 * resid_sq_mean
    return primal - dual


def soft_threshold(value, threshold):
    if value > threshold:
        return value - threshold
    if value < -threshold:
        return value + threshold
    return 0.0


def coordinate_descent(gram, moment, y_sq_mean, lam, tol, max_sweeps):
    """Cyclic coordinate descent from zero until the gap is certified."""
    q = moment.size
    beta = np.zeros(q)
    gram_beta = np.zeros(q)
    diag = np.diag(gram).copy()
    scale = max(1.0, y_sq_mean)
    gap = duality_gap(gram, moment, y_sq_mean, lam, beta, gram_beta)
    sweeps = 0
    while gap > tol * scale:
        assert sweeps < max_sweeps, "oracle did not converge"
        for j in range(q):
            if diag[j] <= 0.0:
                continue
            rho = moment[j] - gram_beta[j] + diag[j] * beta[j]
            new = soft_threshold(rho, lam) / diag[j]
            delta = new - beta[j]
            if delta != 0.0:
                gram_beta += gram[:, j] * delta
                beta[j] = new
        sweeps += 1
        gap = duality_gap(gram, moment, y_sq_mean, lam, beta, gram_beta)
    return beta, gap, sweeps


def covariance_form(design, y):
    n = len(y)
    return design.T @ design / n, design.T @ y / n, float(y @ y) / n


def trend_problem(y, config):
    """The changepoint lasso of ``fit_trend_model``, rebuilt test-side."""
    n = y.size
    penalty = config.changepoint_penalty
    if penalty is None:
        penalty = 10.0 * float(np.std(y))
    t = np.arange(n, dtype=float)
    unpenalized = np.column_stack(
        [t, np.ones(n), seasonal_design(t, config.n_harmonics, config.period)]
    )
    hinges = np.maximum(t[:, None] - changepoint_grid(n, config.n_changepoints), 0.0)
    q, _ = np.linalg.qr(unpenalized)
    design = hinges - q @ (q.T @ hinges)
    target = y - q @ (q.T @ y)
    return design, target, penalty / (2.0 * n)


def var_design(data, order):
    work = (data - data.mean(axis=0)) / data.std(axis=0)
    T = len(work)
    target = work[order:]
    design = np.hstack([work[order - lag : T - lag] for lag in range(1, order + 1)])
    return design - design.mean(axis=0), target - target.mean(axis=0)


def assert_kkt(gram, moment, lam, beta, rel=1e-9):
    corr = moment - gram @ beta
    slack = rel * max(lam, np.max(np.abs(moment), initial=0.0))
    zero = beta == 0.0
    assert np.all(np.abs(corr[zero]) <= lam + slack)
    assert np.all(np.abs(corr[~zero] - lam * np.sign(beta[~zero])) <= slack)


def check_against_oracle(design, y, lam, tol, max_iter):
    """Certified, KKT, deterministic, and the oracle's solution."""
    gram, moment, y_sq_mean = covariance_form(design, y)
    beta, gap, iterations = solve_lasso(gram, moment, y_sq_mean, lam, tol, max_iter)
    again = solve_lasso(gram, moment, y_sq_mean, lam, tol, max_iter)
    assert_array_equal(again[0], beta)
    assert again[1:] == (gap, iterations)
    assert gap <= tol * max(1.0, y_sq_mean)
    assert_kkt(gram, moment, lam, beta)
    oracle, _, _ = coordinate_descent(
        gram, moment, y_sq_mean, lam, ORACLE_TOL, TREND_MAX_ITER
    )
    assert_array_equal(beta != 0.0, oracle != 0.0)
    if np.any(oracle):
        assert np.max(np.abs(beta - oracle)) <= 1e-8 * np.max(np.abs(oracle))
        fitted = design @ oracle
        assert np.max(np.abs(design @ beta - fitted)) <= 1e-8 * np.max(np.abs(fitted))
    return beta, iterations


class TestTrendProblems:
    @pytest.mark.parametrize("column", ["drug_demand", "temperature"])
    def test_pipeline_training_window(self, column):
        # The default pipeline fits both baselines on the first 338 weeks of
        # the seed-0 panel with the default configuration.
        y = generate_synthetic_panel(SynthConfig(seed=0)).column(column)[:338]
        design, target, lam = trend_problem(y, TrendFitConfig())
        check_against_oracle(design, target, lam, TREND_TOL, TREND_MAX_ITER)

    @pytest.mark.parametrize("penalty", [0.1, 1.0, 10.0, 100.0, 1000.0])
    def test_penalty_path_series(self, penalty):
        # The series of test_trend's penalty-path monotonicity test.
        rng = np.random.default_rng(5)
        t = np.arange(200, dtype=float)
        y = (
            10.0
            + 0.1 * t
            + 0.6 * np.maximum(t - 50.0, 0.0)
            - 0.9 * np.maximum(t - 120.0, 0.0)
            + rng.normal(scale=2.0, size=200)
        )
        config = TrendFitConfig(n_harmonics=0, changepoint_penalty=penalty)
        design, target, lam = trend_problem(y, config)
        check_against_oracle(design, target, lam, TREND_TOL, TREND_MAX_ITER)


class TestSparseVarProblems:
    def test_select_lambda_grid(self):
        rng = np.random.default_rng(11)
        coef = np.array(
            [
                [[0.35, -0.30, 0.0], [0.0, 0.55, 0.0], [0.1, 0.0, 0.4]],
                [[0.10, 0.00, 0.0], [0.0, 0.00, 0.0], [0.0, 0.0, 0.0]],
            ]
        )
        data = simulate_var(np.zeros(3), coef, rng.normal(size=(500, 3)))[len(coef) + 200 :]
        design, target = var_design(data, order=4)
        n = len(target)
        top = np.max(np.abs(design.T @ target)) / n
        for lam in np.geomspace(top, top * 1e-3, 16):
            for k in range(3):
                check_against_oracle(design, target[:, k], lam, VAR_TOL, VAR_MAX_ITER)


class TestEdgeCases:
    def test_at_or_above_lambda_max_is_all_zero(self):
        rng = np.random.default_rng(1)
        design = rng.normal(size=(60, 5))
        y = design[:, 0] + rng.normal(size=60)
        gram, moment, y_sq_mean = covariance_form(design, y)
        top = float(np.max(np.abs(moment)))
        for lam in (top, 2.0 * top):
            beta, gap, iterations = solve_lasso(gram, moment, y_sq_mean, lam, 1e-8, 10)
            assert_array_equal(beta, np.zeros(5))
            assert gap == 0.0 and iterations == 0

    def test_zero_diagonal_column_stays_zero(self):
        rng = np.random.default_rng(2)
        design = rng.normal(size=(80, 6))
        y = design @ np.array([1.0, -0.5, 0.0, 0.8, 0.0, 0.3]) + rng.normal(size=80)
        design[:, 2] = 0.0
        beta, _ = check_against_oracle(design, y, 0.05, VAR_TOL, VAR_MAX_ITER)
        assert beta[2] == 0.0

    def test_no_columns(self):
        beta, gap, iterations = solve_lasso(np.zeros((0, 0)), np.zeros(0), 2.0, 0.1, 1e-8, 10)
        assert beta.shape == (0,)
        assert gap == 0.0 and iterations == 0

    def test_identical_columns_fall_back_to_descent(self):
        # Two copies of the same column tie at every event and make the
        # active Gram matrix singular, so the path stops at its first step
        # and coordinate descent finishes from zero: the oracle's run, plus
        # the one path step.
        rng = np.random.default_rng(3)
        base = rng.normal(size=(80, 4))
        design = np.column_stack([base, base[:, 1]])
        y = base @ np.array([0.5, 2.0, 0.0, -1.0]) + rng.normal(size=80)
        gram, moment, y_sq_mean = covariance_form(design, y)
        gram[4, :] = gram[1, :]
        gram[:, 4] = gram[:, 1]
        moment[4] = moment[1]
        beta, gap, iterations = solve_lasso(gram, moment, y_sq_mean, 0.1, 1e-8, 1000)
        oracle, oracle_gap, sweeps = coordinate_descent(gram, moment, y_sq_mean, 0.1, 1e-8, 1000)
        assert_array_equal(beta, oracle)
        assert gap == oracle_gap
        assert iterations == sweeps + 1
        # Descent stops at the gap tolerance, not at the exact optimum.
        assert_kkt(gram, moment, 0.1, beta, rel=1e-6)
        with pytest.raises(ConvergenceError) as excinfo:
            solve_lasso(gram, moment, y_sq_mean, 0.1, 1e-8, 2)
        assert excinfo.value.gap > 1e-8 * max(1.0, y_sq_mean)


def assert_path_is_single_solves(gram, moment, y_sq_mean, lams, tol, max_iter):
    """``lasso_path`` gives every penalty the bytes, gap and iterations of
    ``solve_lasso`` at that penalty alone, or the same error and gap."""
    results = lasso_path(gram, moment, y_sq_mean, lams, tol, max_iter)
    assert len(results) == len(lams)
    for lam, result in zip(lams, results):
        try:
            beta, gap, iterations = solve_lasso(gram, moment, y_sq_mean, lam, tol, max_iter)
        except ConvergenceError as exc:
            assert isinstance(result, ConvergenceError)
            assert (str(result), result.gap) == (str(exc), exc.gap)
            continue
        assert not isinstance(result, ConvergenceError)
        assert result[0].tobytes() == beta.tobytes()
        assert result[1:] == (gap, iterations)
    return results


class TestPath:
    def var_problem(self, k=0):
        rng = np.random.default_rng(11)
        coef = np.array(
            [
                [[0.35, -0.30, 0.0], [0.0, 0.55, 0.0], [0.1, 0.0, 0.4]],
                [[0.10, 0.00, 0.0], [0.0, 0.00, 0.0], [0.0, 0.0, 0.0]],
            ]
        )
        data = simulate_var(np.zeros(3), coef, rng.normal(size=(500, 3)))[len(coef) + 200 :]
        design, target = var_design(data, order=4)
        return covariance_form(design, target[:, k])

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_grid_points_are_single_solves(self, k):
        gram, moment, y_sq_mean = self.var_problem(k)
        top = float(np.max(np.abs(moment)))
        grid = np.geomspace(top, top * 1e-3, 16)
        # Above and at lambda_max, a repeated value, and zero penalty.
        lams = [2.0 * top, top, *grid[1:8], grid[7], *grid[8:], 0.0]
        results = assert_path_is_single_solves(gram, moment, y_sq_mean, lams, VAR_TOL, VAR_MAX_ITER)
        assert not any(np.any(results[g][0]) for g in (0, 1))
        assert results[8][0].tobytes() == results[9][0].tobytes()
        assert results[-1][1:] == (0.0, 0)
        iterations = [result[2] for result in results[:-1]]
        assert iterations == sorted(iterations) and iterations[-1] > 1

    def test_budget_errors_are_single_solves(self):
        # The budget reaches the larger penalties and not the smaller ones.
        gram, moment, y_sq_mean = self.var_problem()
        top = float(np.max(np.abs(moment)))
        lams = list(np.geomspace(top, top * 1e-3, 16))
        results = assert_path_is_single_solves(gram, moment, y_sq_mean, lams, VAR_TOL, 4)
        failed = [isinstance(result, ConvergenceError) for result in results]
        assert failed == sorted(failed) and 0 < sum(failed) < len(lams)

    @pytest.mark.parametrize("max_iter", [1000, 30, 2])
    def test_identical_columns_run_descent_at_every_point(self, max_iter):
        # The active Gram matrix turns singular at the first step, so every
        # penalty below lambda_max starts descent from the path's last point.
        rng = np.random.default_rng(3)
        base = rng.normal(size=(80, 4))
        design = np.column_stack([base, base[:, 1]])
        y = base @ np.array([0.5, 2.0, 0.0, -1.0]) + rng.normal(size=80)
        gram, moment, y_sq_mean = covariance_form(design, y)
        gram[4, :] = gram[1, :]
        gram[:, 4] = gram[:, 1]
        moment[4] = moment[1]
        lams = [0.5, 0.1, 0.1, 0.02]
        results = assert_path_is_single_solves(gram, moment, y_sq_mean, lams, 1e-8, max_iter)
        if max_iter == 1000:
            assert all(result[2] > 1 for result in results)

    def test_descent_after_the_path_is_single_solves(self):
        # At a relative gap of 1e-16 the exact points of the smaller
        # penalties miss the tolerance and descent sweeps finish them.
        gram, moment, y_sq_mean = self.var_problem()
        top = float(np.max(np.abs(moment)))
        lams = list(np.geomspace(top, top * 1e-3, 16))
        loose = lasso_path(gram, moment, y_sq_mean, lams, VAR_TOL, VAR_MAX_ITER)
        tight = assert_path_is_single_solves(gram, moment, y_sq_mean, lams, 1e-16, 200)
        swept = [t[2] > l[2] for t, l in zip(tight, loose)]
        assert any(swept) and not all(swept)

    def test_trend_penalties_are_single_solves(self):
        rng = np.random.default_rng(5)
        t = np.arange(200, dtype=float)
        y = 10.0 + 0.6 * np.maximum(t - 50.0, 0.0) + rng.normal(scale=2.0, size=200)
        design, target, _ = trend_problem(y, TrendFitConfig(n_harmonics=0, changepoint_penalty=1.0))
        gram, moment, y_sq_mean = covariance_form(design, target)
        lams = [lam / 400.0 for lam in (1000.0, 100.0, 10.0, 1.0, 0.1)]
        assert_path_is_single_solves(gram, moment, y_sq_mean, lams, TREND_TOL, TREND_MAX_ITER)

    def test_penalties_must_not_increase(self):
        gram, moment, y_sq_mean = self.var_problem()
        with pytest.raises(InvalidInputError, match="non-increasing"):
            lasso_path(gram, moment, y_sq_mean, (0.01, 0.1), VAR_TOL, VAR_MAX_ITER)
