import numpy as np
import pytest
from numpy.testing import assert_allclose

from climdemand.errors import (
    ConvergenceError,
    DegenerateInputError,
    InvalidInputError,
)
from climdemand import sparsevar
from climdemand.sparsevar import (
    CoefficientTable,
    coefficient_table,
    fit_lasso_var,
    lambda_max,
    select_lambda,
)
from climdemand.varbase import lag_design, simulate_var


def standardized_lagged(data, order):
    """Test-side reconstruction of the regression the module solves."""
    work = (data - data.mean(axis=0)) / data.std(axis=0)
    T = len(work)
    target = work[order:]
    design = np.hstack([work[order - l : T - l] for l in range(1, order + 1)])
    return target - target.mean(axis=0), design - design.mean(axis=0)


def fista_lasso(design, y, lam, iters=20_000):
    """Independent proximal-gradient solver for the same objective."""
    n, q = design.shape
    lipschitz = np.linalg.eigvalsh(design.T @ design / n).max()
    beta = np.zeros(q)
    z = beta.copy()
    t = 1.0
    for _ in range(iters):
        grad = design.T @ (design @ z - y) / n
        step = z - grad / lipschitz
        nxt = np.sign(step) * np.maximum(np.abs(step) - lam / lipschitz, 0.0)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        z = nxt + (t - 1.0) / t_next * (nxt - beta)
        beta = nxt
        t = t_next
    return beta


def simulate_panel(T, rng):
    coef = np.array(
        [
            [[0.35, -0.30, 0.0], [0.0, 0.55, 0.0], [0.1, 0.0, 0.4]],
            [[0.10, 0.00, 0.0], [0.0, 0.00, 0.0], [0.0, 0.0, 0.0]],
        ]
    )
    shocks = rng.normal(size=(T + 200, 3))
    return simulate_var(np.zeros(3), coef, shocks)[len(coef) + 200 :], coef


class TestAgainstLeastSquares:
    def test_zero_penalty_matches_ols(self):
        rng = np.random.default_rng(101)
        data, _ = simulate_panel(300, rng)
        model = fit_lasso_var(data, order=2, lam=0.0)
        target, design = standardized_lagged(data, 2)
        ols, *_ = np.linalg.lstsq(design, target, rcond=None)
        for k in range(3):
            fitted = model.coef[:, k, :].reshape(-1)
            assert_allclose(fitted, ols[:, k], rtol=0, atol=1e-6)

    def test_lambda_max_zeroes_everything(self):
        rng = np.random.default_rng(55)
        data, _ = simulate_panel(250, rng)
        top = lambda_max(data, order=4)
        model = fit_lasso_var(data, order=4, lam=top)
        assert np.all(model.coef == 0.0)
        just_below = fit_lasso_var(data, order=4, lam=top * 0.999)
        assert np.any(just_below.coef != 0.0)


class TestOptimalityCertificates:
    def test_kkt_conditions(self):
        rng = np.random.default_rng(7)
        data, _ = simulate_panel(350, rng)
        lam = 0.35 * lambda_max(data, order=3)
        model = fit_lasso_var(data, order=3, lam=lam)
        target, design = standardized_lagged(data, 3)
        n = len(target)
        for k in range(3):
            beta = model.coef[:, k, :].reshape(-1)
            resid = target[:, k] - design @ beta
            corr = design.T @ resid / n
            zero = beta == 0.0
            assert np.all(np.abs(corr[zero]) <= lam + 1e-6)
            active = ~zero
            assert np.max(np.abs(corr[active] - lam * np.sign(beta[active]))) <= 1e-6

    def test_matches_proximal_gradient(self):
        rng = np.random.default_rng(21)
        data, _ = simulate_panel(200, rng)
        lam = 0.2 * lambda_max(data, order=2)
        model = fit_lasso_var(data, order=2, lam=lam)
        target, design = standardized_lagged(data, 2)
        for k in range(3):
            oracle = fista_lasso(design, target[:, k], lam)
            assert_allclose(model.coef[:, k, :].reshape(-1), oracle, atol=1e-5)

    def test_duality_gap_certified(self):
        rng = np.random.default_rng(3)
        data, _ = simulate_panel(220, rng)
        model = fit_lasso_var(data, order=4, lam=0.05)
        assert np.all(model.duality_gap <= 1e-8)

    def test_sparsity_grows_with_penalty(self):
        rng = np.random.default_rng(13)
        data, _ = simulate_panel(300, rng)
        top = lambda_max(data, order=4)
        shares = [
            np.mean(fit_lasso_var(data, order=4, lam=f * top).coef != 0.0)
            for f in (0.01, 0.1, 0.4, 1.0)
        ]
        assert all(a >= b for a, b in zip(shares, shares[1:]))
        assert shares[-1] == 0.0


class TestQualitativePattern:
    def test_own_lag_dominates_and_temperature_negative(self):
        # Demand equation built with a strong own lag 1 and a negative
        # temperature lag 1; a light penalty should keep that layout.
        rng = np.random.default_rng(2023)
        data, _ = simulate_panel(400, rng)
        names = ("demand", "temperature", "noise")
        lam = 0.05 * lambda_max(data, order=2, names=names)
        model = fit_lasso_var(data, order=2, lam=lam, names=names)
        table = coefficient_table(model, "demand")
        values = dict(zip(table.variables, table.values))
        own = values["demand"]
        assert np.argmax(np.abs(table.values).max(axis=1)) == 0
        assert abs(own[0]) == np.max(np.abs(table.values))
        assert values["temperature"][0] < 0.0

    def test_table_layout(self):
        rng = np.random.default_rng(17)
        data, _ = simulate_panel(250, rng)
        model = fit_lasso_var(data, order=4, lam=0.1, names=("a", "b", "c"))
        table = coefficient_table(model, "b")
        assert isinstance(table, CoefficientTable)
        assert table.equation == "b"
        assert table.variables == ("a", "b", "c")
        assert table.values.shape == (3, 4)
        k = 1
        for j in range(3):
            assert_allclose(table.values[j], model.coef[:, k, j])

    def test_unknown_equation(self):
        rng = np.random.default_rng(17)
        data, _ = simulate_panel(250, rng)
        model = fit_lasso_var(data, order=2, lam=0.1)
        with pytest.raises(KeyError):
            coefficient_table(model, "demand")


class TestSelectLambda:
    def test_pure_noise_prefers_largest_penalty(self):
        # White noise has nothing to fit, so the near-null model should win
        # the rolling comparison most of the time.  Order 4 gives the loose
        # penalty enough spurious coefficients to hurt its forecasts.
        wins = 0
        for seed in range(100):
            rng = np.random.default_rng(40_000 + seed)
            data = rng.normal(size=(100, 3))
            grid = (0.7, 0.01)
            lam = select_lambda(data, order=4, grid=grid, n_origins=20)
            wins += lam == 0.7
        assert wins >= 80

    def test_structured_data_prefers_light_penalty(self):
        rng = np.random.default_rng(606)
        data, _ = simulate_panel(260, rng)
        lam = select_lambda(data, order=2, grid=(0.9, 0.02), n_origins=12)
        assert lam == 0.02

    def test_empty_grid(self):
        data = np.random.default_rng(0).normal(size=(80, 2))
        for grid in [(), 0.1, np.full((2, 2), 0.1)]:  # and grids that are no sequence
            with pytest.raises(InvalidInputError, match="grid must be a non-empty sequence"):
                select_lambda(data, grid=grid)


def per_penalty_select(data, order, grid, n_origins):
    """select_lambda as one fit_lasso_var per (origin, grid value), each
    window's one-step prediction rebuilt from the fitted model."""
    T, K = data.shape
    if grid is None:
        top = lambda_max(data, order)
        grid = np.geomspace(top, top * 1e-3, 16)
    grid = np.asarray(sorted(grid, reverse=True), dtype=float)
    min_train = max(order + K * order + 2, 5 * order, T - n_origins)
    mse = np.zeros(grid.size)
    for t0 in range(min_train, T - 1):
        window = data[: t0 + 1]
        for g, lam in enumerate(grid):
            model = fit_lasso_var(window, order=order, lam=lam)
            actual = (data[t0 + 1] - model.column_means) / model.column_sds
            work = (window - model.column_means) / model.column_sds
            target, design = lag_design(work, order)
            last = np.concatenate([work[len(work) - lag] for lag in range(1, order + 1)])
            flat = model.coef.transpose(1, 0, 2).reshape(K, -1)
            pred = target.mean(axis=0) + flat @ (last - design[:, 1:].mean(axis=0))
            mse[g] += float(np.sum((actual - pred) ** 2))
    return float(grid[int(np.argmin(mse))])


class TestSharedPath:
    @pytest.mark.parametrize(
        "data, order, grid, n_origins",
        [
            (simulate_panel(160, np.random.default_rng(8))[0], 2, None, 10),
            (simulate_panel(120, np.random.default_rng(9))[0], 4, (0.3, 0.0, 0.05, 0.05, 9.0), 6),
            (np.random.default_rng(40_001).normal(size=(100, 3)), 4, None, 20),
            (np.random.default_rng(40_002).normal(size=(100, 3)), 4, (0.7, 0.01), 20),
        ],
        ids=["var2-default-grid", "var4-zero-repeat-above", "noise-default-grid", "noise-two"],
    )
    def test_same_penalty_as_one_fit_per_grid_value(self, data, order, grid, n_origins):
        assert select_lambda(data, order=order, grid=grid, n_origins=n_origins) == (
            per_penalty_select(data, order, grid, n_origins)
        )

    @pytest.mark.parametrize("budget", [1, 3])
    def test_same_convergence_error_as_one_fit_per_grid_value(self, monkeypatch, budget):
        data, _ = simulate_panel(120, np.random.default_rng(10))
        monkeypatch.setattr(sparsevar, "MAX_SWEEPS", budget)
        with pytest.raises(ConvergenceError) as expected:
            per_penalty_select(data, 2, None, 8)
        with pytest.raises(ConvergenceError) as excinfo:
            select_lambda(data, order=2, n_origins=8)
        assert str(excinfo.value) == str(expected.value)
        assert excinfo.value.gap == expected.value.gap

    def test_each_window_is_standardized_and_lagged_once(self, monkeypatch):
        data, _ = simulate_panel(100, np.random.default_rng(12))
        calls = {"_standardize": 0, "lag_design": 0}
        for name in calls:
            def spy(*args, _real=getattr(sparsevar, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(sparsevar, name, spy)
        select_lambda(data, order=2, grid=np.geomspace(1.0, 1e-3, 16), n_origins=9)
        assert calls == {"_standardize": 8, "lag_design": 8}  # origins 91..98


class TestValidation:
    def test_constant_column_named(self):
        data = np.column_stack(
            [np.random.default_rng(0).normal(size=100), np.full(100, 3.0)]
        )
        with pytest.raises(DegenerateInputError, match="y1"):
            fit_lasso_var(data, order=2, lam=0.1)

    def test_constant_column_in_training_windows_named(self):
        data = np.column_stack(
            [np.random.default_rng(0).normal(size=100), np.full(100, 3.0)]
        )
        data[-1, 1] = 4.0  # moves only after the last training window
        with pytest.raises(DegenerateInputError, match="constant columns: y1"):
            select_lambda(data, order=2, grid=(0.1,))

    def test_negative_penalty(self):
        with pytest.raises(InvalidInputError):
            fit_lasso_var(np.random.default_rng(0).normal(size=(100, 2)), lam=-1.0)

    def test_convergence_error_carries_gap(self, monkeypatch):
        rng = np.random.default_rng(9)
        data, _ = simulate_panel(150, rng)
        monkeypatch.setattr(sparsevar, "MAX_SWEEPS", 1)
        with pytest.raises(ConvergenceError) as excinfo:
            fit_lasso_var(data, order=2, lam=1e-6)
        assert excinfo.value.gap is not None and excinfo.value.gap > 0
