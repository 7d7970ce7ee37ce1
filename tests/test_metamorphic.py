"""Metamorphic relations: how a statistic must change when its input does.

Each test runs a statistic twice, on an input and on a transformed copy, and
checks the relation between the two results, so it needs no oracle and no
pinned value.  A relation that holds bit for bit is asserted bit for bit;
elsewhere the tolerance is about ten times the largest drift measured over
20 seeds, given beside it.  The causality spectra's relation (estimates and
decisions under affine maps of each series) is
``tests/test_spectral.py::TestAffineInvariance::test_affine_maps_keep_every_decision``.
"""

import datetime as dt

import numpy as np
import pytest
from numpy.testing import assert_allclose

from climdemand.forest import ForestConfig, SupervisedDataset, train_forest
from climdemand.panel import PanelDataset, read_panel_csv, write_panel_csv
from climdemand.trend import fit_trend_model, forecast
from climdemand.varbase import fit_var
from climdemand.varx import fit_varx

SEEDS = [0, 1, 2]


def var_sample(seed, n_exog=0, T=300):
    """A stable three-variable VAR(1), with ``n_exog`` exogenous columns."""
    rng = np.random.default_rng(seed)
    A = np.array([[0.5, 0.2, 0.0], [0.1, 0.4, -0.2], [0.0, 0.3, 0.3]])
    exog = rng.normal(size=(T, n_exog))
    loading = rng.normal(size=(3, n_exog))
    y = np.zeros((T, 3))
    for t in range(1, T):
        y[t] = A @ y[t - 1] + loading @ exog[t] + rng.normal(size=3)
    return y, exog


class TestForest:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_structure_is_invariant_to_increasing_feature_transforms(self, seed):
        # Splits are searched on dense ranks, so a strictly increasing map
        # of a feature keeps every tree's splits, children, leaf means and
        # impurity gains.  Split values are midpoints of the mapped values
        # and do move, so predictions may differ off the in-bag rows.
        rng = np.random.default_rng(seed)
        continuous = rng.normal(size=300)
        tied = rng.integers(-3, 4, size=300).astype(float)
        other = rng.normal(size=300)
        target = np.sin(continuous) + 0.5 * tied + 0.3 * other + rng.normal(size=300) * 0.2
        names = ("continuous", "tied", "other")
        config = ForestConfig(n_trees=50, block_length=10, seed=seed)
        base = train_forest(
            SupervisedDataset(names, np.column_stack([continuous, tied, other]), target), config
        )
        mapped = train_forest(
            SupervisedDataset(
                names, np.column_stack([np.exp(continuous), tied**3 + 7.0, other]), target
            ),
            config,
        )
        assert base.feature.tobytes() == mapped.feature.tobytes()
        assert base.left.tobytes() == mapped.left.tobytes()
        assert base.offsets.tobytes() == mapped.offsets.tobytes()
        leaves = base.feature < 0
        assert base.split_value[leaves].tobytes() == mapped.split_value[leaves].tobytes()
        assert base.importance.tobytes() == mapped.importance.tobytes()
        assert not np.array_equal(base.split_value[~leaves], mapped.split_value[~leaves])


class TestVar:
    PERM = np.array([2, 0, 1])

    def assert_permuted(self, base, permuted, exog_perm):
        p = self.PERM
        assert permuted.order == base.order
        # Largest drift measured over 20 seeds: 7.8e-16 (VAR), 1.8e-15 (VARX).
        tol = dict(rtol=0.0, atol=2e-14)
        assert_allclose(permuted.intercept, base.intercept[p], **tol)
        assert_allclose(permuted.endo_coef, base.endo_coef[:, p][:, :, p], **tol)
        assert_allclose(permuted.exo_coef, base.exo_coef[p][:, exog_perm], **tol)
        assert_allclose(permuted.resid_cov, base.resid_cov[p][:, p], **tol)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_var_coefficients_follow_a_permutation_of_variables(self, seed):
        y, _ = var_sample(seed)
        self.assert_permuted(fit_var(y), fit_var(y[:, self.PERM]), np.arange(0))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_varx_coefficients_follow_a_permutation_of_variables(self, seed):
        y, exog = var_sample(seed, n_exog=2)
        exog_perm = np.array([1, 0])
        self.assert_permuted(
            fit_varx(y, exog), fit_varx(y[:, self.PERM], exog[:, exog_perm]), exog_perm
        )


class TestTrend:
    @staticmethod
    def series(seed, n=338):
        rng = np.random.default_rng(seed)
        t = np.arange(n)
        kink = np.where(t > 200, 0.5 * (t - 200), 0.0)
        season = 10.0 * np.sin(2 * np.pi * t / 52)
        return 100.0 + 0.3 * t + kink + season + 3.0 * rng.normal(size=n)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_forecast_follows_a_shift_of_the_target(self, seed):
        y = self.series(seed)
        base = forecast(fit_trend_model(y), 52)
        shifted = forecast(fit_trend_model(y + 5000.0), 52)
        # Largest drift measured over 20 seeds: 1.5e-11.
        assert_allclose(shifted, base + 5000.0, rtol=0.0, atol=2e-10)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_forecast_follows_a_scaling_of_the_target(self, seed):
        y = self.series(seed)
        base = forecast(fit_trend_model(y), 52)
        scaled = forecast(fit_trend_model(3.0 * y), 52)
        # Largest relative drift measured over 20 seeds: 2.6e-15.
        assert_allclose(scaled, 3.0 * base, rtol=3e-14, atol=0.0)


class TestPanelFile:
    def test_write_read_write_is_a_fixed_point(self, tmp_path):
        # Values are written to 10 significant digits, so the first write
        # rounds; the values read back then write the same bytes.
        rng = np.random.default_rng(3)
        weeks = tuple(dt.date(2020, 1, 6) + dt.timedelta(weeks=i) for i in range(60))
        columns = {
            "demand": rng.normal(size=60) * 1e4,
            'name, "quoted"': rng.normal(size=60) * 1e-7,
            "températures": np.r_[-0.0, 1e300, -1e-300, rng.normal(size=57)],
        }
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        write_panel_csv(PanelDataset(weeks, columns), str(first))
        panel = read_panel_csv(str(first))
        write_panel_csv(panel, str(second))
        assert second.read_bytes() == first.read_bytes()
        assert read_panel_csv(str(second)).equals(panel)
        assert panel.column_names == tuple(columns)
