import ast
import dataclasses
import datetime as dt
import inspect
import pathlib
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from climdemand import _rng, spectral, varbase, varx
from climdemand._rng import replicate_draws
from climdemand.errors import (
    InsufficientDataError,
    InvalidInputError,
    RankDeficiencyError,
)
from climdemand.panel import PanelDataset
from climdemand.varbase import (
    VarxModel,
    bic_path,
    companion_matrix,
    fit_var,
    lag_design,
    refit,
    select_order,
    simulate_var,
    spectral_radius,
    validate_series,
)
from climdemand.varx import (
    VarxBootstrap,
    bias_correct,
    fevd,
    fit_varx,
    forecast_recursive,
    irf,
    residual_bootstrap,
)


def simulate(coef, sigma_chol, T, rng, intercept=None, burn=200):
    p, K, _ = coef.shape
    if intercept is None:
        intercept = np.zeros(K)
    shocks = rng.normal(size=(T + burn, K)) @ sigma_chol.T
    return simulate_var(intercept, coef, shocks)[p + burn :]


class TestSimulateVar:
    def test_matches_hand_recursion(self):
        coef = np.array([[[0.5]]])
        innov = np.array([[1.0], [0.0], [2.0]])
        out = simulate_var(np.array([0.25]), coef, innov, initial=np.array([[8.0]]))
        # y0 = 8, y1 = .25 + .5*8 + 1, y2 = .25 + .5*y1, y3 = .25 + .5*y2 + 2
        assert_allclose(out[:, 0], [8.0, 5.25, 2.875, 3.6875])

    def test_two_lags(self):
        coef = np.array([[[0.5]], [[-0.25]]])
        innov = np.zeros((2, 1))
        out = simulate_var(np.zeros(1), coef, innov, initial=np.array([[1.0], [2.0]]))
        # y3 = .5*2 - .25*1 = .75 ; y4 = .5*.75 - .25*2 = -0.125
        assert_allclose(out[:, 0], [1.0, 2.0, 0.75, -0.125])


    def test_stack_matches_one_sequence_at_a_time(self):
        rng = np.random.default_rng(3)
        coef = np.array([[[0.5, 0.1], [0.0, 0.3]], [[-0.2, 0.0], [0.1, 0.1]]])
        innovations = rng.normal(size=(5, 40, 2))
        initial = rng.normal(size=(2, 2))
        stacked = simulate_var(np.array([0.1, -0.2]), coef, innovations, initial)
        for b in range(5):
            one = simulate_var(np.array([0.1, -0.2]), coef, innovations[b], initial)
            assert_allclose(stacked[b], one, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("initial", [None, np.array([[1.5, -2.0], [0.5, 3.0]])])
    def test_sample_starts_with_the_initial_rows(self, initial):
        coef = np.array([[[0.5, 0.1], [0.0, 0.3]], [[-0.2, 0.0], [0.1, 0.1]]])
        innovations = np.random.default_rng(5).normal(size=(3, 10, 2))
        expected = np.zeros((2, 2)) if initial is None else initial
        stacked = simulate_var(np.array([0.1, -0.2]), coef, innovations, initial)
        one = simulate_var(np.array([0.1, -0.2]), coef, innovations[0], initial)
        assert stacked.shape == (3, 12, 2) and one.shape == (12, 2)
        assert_array_equal(stacked[:, :2], np.broadcast_to(expected, (3, 2, 2)))
        assert_array_equal(one[:2], expected)

    def test_per_row_deterministic_term(self):
        coef = np.array([[[0.5]]])
        out = simulate_var(np.array([[1.0], [0.0]]), coef, np.zeros((2, 1)), np.array([[2.0]]))
        assert_allclose(out[:, 0], [2.0, 2.0, 1.0])

    @pytest.mark.parametrize("p, K, B", [(1, 1, 1), (2, 2, 7), (4, 2, 32), (3, 4, 5)])
    def test_equals_step_by_step_recursion_bit_for_bit(self, p, K, B):
        # The recursion as written out, with new arrays at every step and
        # lag; the buffered one does the same arithmetic.
        rng = np.random.default_rng([p, K, B])
        coef = rng.normal(scale=0.3 / p, size=(p, K, K))
        innovations = rng.normal(size=(B, 50, K))
        intercept = rng.normal(size=(50, K))
        initial = rng.normal(size=(p, K))
        want = np.empty((B, p + 50, K))
        want[:, :p] = initial
        for t in range(50):
            acc = np.broadcast_to(intercept[t], (B, K)).copy()
            for lag in range(p):
                acc += want[:, p + t - 1 - lag] @ coef[lag].T
            want[:, p + t] = acc + innovations[:, t]
        got = simulate_var(intercept, coef, innovations, initial)
        assert got.tobytes() == want.tobytes()


class TestCompanion:
    def test_order_one_is_coefficient(self):
        coef = np.array([[[0.5, 0.1], [0.0, 0.3]]])
        assert_allclose(companion_matrix(coef), coef[0])
        assert_allclose(spectral_radius(coef), 0.5)

    def test_scalar_ar2_roots(self):
        # Companion eigenvalues of y_t = a y_{t-1} + b y_{t-2} solve
        # z^2 - a z - b = 0; compare against the polynomial roots.
        a, b = 0.6, -0.2
        coef = np.array([[[a]], [[b]]])
        expected = np.max(np.abs(np.roots([1.0, -a, -b])))
        assert_allclose(spectral_radius(coef), expected, rtol=1e-12)


class TestLagDesign:
    def test_layout(self):
        data = np.arange(12, dtype=float).reshape(6, 2)
        target, design = lag_design(data, 2)
        assert target.shape == (4, 2)
        assert design.shape == (4, 5)
        assert_allclose(design[:, 0], 1.0)
        assert_allclose(design[0], [1.0, 2.0, 3.0, 0.0, 1.0])  # lag1 then lag2
        assert_allclose(target[0], [4.0, 5.0])


class TestFitVar:
    def test_recovers_diagonal_var1(self):
        rng = np.random.default_rng(1729)
        coef = 0.5 * np.eye(2)[None]
        data = simulate(coef, np.linalg.cholesky(np.eye(2)), 2000, rng)
        model = fit_var(data, max_order=4)
        assert model.order == 1
        assert np.max(np.abs(model.endo_coef[0] - 0.5 * np.eye(2))) < 0.05
        assert model.companion_radius < 1.0
        assert model.nobs == 2000 - model.order

    def test_white_noise_coefficients_within_three_se(self):
        # Simulation oracle: pooled over seeds, nearly all coefficient
        # estimates on independent white noise sit inside +-3 SE of zero.
        total = 0
        inside = 0
        orders = []
        for seed in range(50):
            rng = np.random.default_rng(9000 + seed)
            data = rng.normal(size=(400, 2))
            model = fit_var(data, max_order=4)
            orders.append(model.order)
            total += model.endo_coef.size
            inside += int(np.sum(np.abs(model.endo_coef) < 3.0 * model.endo_se))
        assert inside / total >= 0.95
        assert min(orders) >= 1

    def test_selects_true_order_two(self):
        rng = np.random.default_rng(7)
        coef = np.array(
            [
                [[0.3, 0.0], [0.2, 0.2]],
                [[-0.4, 0.1], [0.0, 0.35]],
            ]
        )
        data = simulate(coef, np.linalg.cholesky(np.eye(2)), 3000, rng)
        model = fit_var(data, max_order=4)
        assert model.order == 2
        assert np.max(np.abs(model.endo_coef - coef)) < 0.08

    def test_residuals_orthogonal_to_design(self):
        rng = np.random.default_rng(12)
        data = simulate(
            np.array([[[0.4, 0.1], [0.0, 0.5]]]),
            np.linalg.cholesky(np.array([[1.0, 0.4], [0.4, 2.0]])),
            600,
            rng,
        )
        model = fit_var(data, max_order=3)
        _, design = lag_design(data, model.order)
        moments = design.T @ model.residuals
        assert np.max(np.abs(moments)) < 1e-7
        cov = model.resid_cov
        assert_allclose(cov, cov.T, rtol=0, atol=1e-14)
        assert np.all(np.linalg.eigvalsh(cov) > 0)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(55)
        data = simulate(
            np.array([[[0.4, 0.2], [-0.1, 0.5]]]),
            np.linalg.cholesky(np.eye(2)),
            800,
            rng,
        )
        scale = np.diag([3.0, 0.25])
        base = fit_var(data, max_order=4)
        scaled = fit_var(data @ scale, max_order=4)
        assert scaled.order == base.order
        for l in range(base.order):
            expected = scale @ base.endo_coef[l] @ np.linalg.inv(scale)
            assert_allclose(scaled.endo_coef[l], expected, rtol=1e-8, atol=1e-10)

    def test_duplicate_column_names_culprits(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=500)
        data = np.column_stack([x, x])
        with pytest.raises(RankDeficiencyError) as excinfo:
            fit_var(data, max_order=2, names=("a", "b"))
        assert excinfo.value.columns
        assert all(col.split(".")[0] in {"a", "b"} for col in excinfo.value.columns)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            fit_var(np.zeros((12, 2)) + np.arange(12)[:, None], max_order=4)

    def test_a_variable_named_twice_is_rejected(self):
        values = np.random.default_rng(3).normal(size=(20, 3))
        weeks = tuple(dt.date(2020, 1, 6) + dt.timedelta(days=7 * i) for i in range(20))
        panel = PanelDataset(weeks, {"a": values[:, 0], "b": values[:, 1]})
        for data, names in ((values, ("a", "b", "a")), (panel, ("a", "a"))):
            with pytest.raises(InvalidInputError, match="duplicate variable name in data: a$"):
                validate_series(data, names)
        with pytest.raises(InvalidInputError, match="VAR data: a$"):
            fit_var(values, max_order=2, names=("a", "b", "a"))

    def test_fixed_order(self):
        rng = np.random.default_rng(31)
        data = rng.normal(size=(300, 2))
        model = fit_var(data, order=3)
        assert model.order == 3
        assert model.endo_coef.shape == (3, 2, 2)

    def test_exact_lag_relation_raises_in_both_fronts(self):
        # y1 is y0 two weeks earlier: some candidate order fits y1 exactly
        # or repeats a column, so BIC cannot rank the orders and both
        # fronts refuse, naming columns (neither may pick order 2 at -inf).
        rng = np.random.default_rng(0)
        noise = rng.normal(size=302)
        data = np.column_stack([noise[2:], noise[:-2]])
        with pytest.raises(RankDeficiencyError) as var_error:
            fit_var(data, max_order=4)
        with pytest.raises(RankDeficiencyError) as varx_error:
            fit_varx(data, max_order=4)
        assert var_error.value.columns
        assert varx_error.value.columns == var_error.value.columns

    def test_bad_order(self):
        with pytest.raises(InvalidInputError):
            fit_var(np.random.default_rng(0).normal(size=(100, 2)), order=0)

    def test_rejects_nan(self):
        data = np.random.default_rng(0).normal(size=(100, 2))
        data[10, 1] = np.nan
        with pytest.raises(InvalidInputError):
            fit_var(data)


def assert_same_fields(a, b):
    """Two dataclass instances equal bit for bit, field by field."""
    assert type(a) is type(b)
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, np.ndarray):
            assert x.shape == y.shape and x.tobytes() == y.tobytes(), field.name
        else:
            assert x == y, field.name


class TestOneModelType:
    """A VAR is a VARX with no exogenous columns: one type, one builder."""

    @staticmethod
    def data():
        data = np.random.default_rng(41).normal(size=(200, 2))
        data[:, 1] += 0.5 * np.roll(data[:, 0], 1)
        return data

    @pytest.mark.parametrize("order", [None, 3])
    def test_fit_var_is_fit_varx_without_exogenous_columns(self, order):
        data = self.data()
        var = fit_var(data, order=order, names=("a", "b"))
        assert isinstance(var, VarxModel)
        assert var.exog_names == ()
        assert var.exo_coef.shape == var.exo_se.shape == (2, 0)
        assert var.exog_values.shape == (200, 0)
        assert_same_fields(var, fit_varx(data, order=order, names=("a", "b")))

    def test_varx_tools_take_a_plain_var_fit(self):
        data = self.data()
        var, varx_fit = fit_var(data), fit_varx(data)
        boot = residual_bootstrap(var, 100, 3)
        assert_same_fields(boot, residual_bootstrap(varx_fit, 100, 3))
        assert isinstance(boot, VarxBootstrap)
        for call in (
            lambda m: irf(m, 8, boot),
            lambda m: fevd(m, inference=boot),
            lambda m: bias_correct(m, boot).model,
        ):
            assert_same_fields(call(var), call(varx_fit))
        assert forecast_recursive(var, 6).tobytes() == forecast_recursive(varx_fit, 6).tobytes()

    def test_one_builder_constructs_the_model(self):
        # VarxModel( appears in one function, and neither front calls the
        # other, so each front's time is its own fits' time.
        package = pathlib.Path(varbase.__file__).parent
        builders = {
            f"{path.stem}.{function.name}"
            for path in package.glob("*.py")
            for function in ast.walk(ast.parse(path.read_text()))
            if isinstance(function, ast.FunctionDef)
            for node in ast.walk(function)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "VarxModel"
        }
        assert builders == {"varbase._fit"}
        assert not hasattr(varbase, "VarModel") and not hasattr(varbase, "fit_single")

        def called(function):
            tree = ast.parse(inspect.getsource(function))
            return {n.func.id for n in ast.walk(tree) if isinstance(n, ast.Call)
                    and isinstance(n.func, ast.Name)}

        assert "_fit" in called(fit_var) and "_fit" in called(fit_varx)
        assert "fit_varx" not in called(fit_var) and "fit_var" not in called(fit_varx)


class TestStackCore:
    def test_stack_equals_single_fits_and_masks_failures(self):
        rng = np.random.default_rng(21)
        stack = rng.normal(size=(6, 200, 2))
        stack[:, :, 1] += 0.6 * np.roll(stack[:, :, 0], 2, axis=1)
        stack[3, :, 1] = stack[3, :, 0]  # singular at every order
        path = bic_path(stack, 4)
        assert np.isnan(path[3]).all()
        assert not np.isnan(np.delete(path, 3, axis=0)).any()
        ok = np.array([b for b in range(6) if b != 3])
        groups, failed = refit(stack[ok], select_order(path[ok]))
        assert not failed.any()
        assert [g.order for g in groups] == sorted({g.order for g in groups})
        assert sorted(np.concatenate([g.index for g in groups])) == list(range(5))
        for group in groups:
            for i, b in zip(group.index, ok[group.index]):
                model = fit_var(stack[b], max_order=4)
                assert model.order == group.order
                assert list(model.bic_by_order.values()) == list(path[b])
                assert_allclose(model.intercept, group.coef[i, 0], rtol=0, atol=0)
                assert_allclose(model.resid_cov, group.resid_cov[i], rtol=0, atol=0)

    def test_refit_reports_singular_series(self):
        rng = np.random.default_rng(22)
        stack = rng.normal(size=(3, 120, 2))
        stack[1, :, 1] = 2.0 * stack[1, :, 0]
        groups, failed = refit(stack, np.array([1, 1, 1]))
        assert failed.tolist() == [False, True, False]
        assert groups[0].index.tolist() == [0, 2]

    def test_sliced_refit_equals_single_fits(self, monkeypatch):
        # refit factors at most _rng.FIT_BLOCK series per QR.  Orders 1, 2, 3
        # take 14, 13 and 13 of 40 series, so each group spans two slices
        # of 7; series 23 (order 3, the 8th of its group) is singular and
        # sits in its group's second slice.
        rng = np.random.default_rng(23)
        stack = rng.normal(size=(40, 150, 2))
        stack[:, :, 1] += 0.5 * np.roll(stack[:, :, 0], 1, axis=1)
        stack[23, :, 1] = 3.0 * stack[23, :, 0]
        exog = rng.normal(size=(150, 3))
        orders = np.resize([1, 2, 3], 40)
        monkeypatch.setattr(_rng, "FIT_BLOCK", 10**6)
        whole, whole_failed = refit(stack, orders, exog)
        monkeypatch.setattr(_rng, "FIT_BLOCK", 7)
        groups, failed = refit(stack, orders, exog)
        assert np.flatnonzero(failed).tolist() == [23]
        assert_array_equal(failed, whole_failed)
        assert [g.order for g in groups] == [g.order for g in whole] == [1, 2, 3]
        for group, unsliced in zip(groups, whole):
            members = np.flatnonzero(orders == group.order)
            assert_array_equal(group.index, members[members != 23])
            for field in ("index", "coef", "resid_cov"):
                assert_array_equal(getattr(group, field), getattr(unsliced, field))
            for i, b in enumerate(group.index):
                (alone,), alone_failed = refit(stack[b : b + 1], orders[b : b + 1], exog)
                assert not alone_failed[0]
                for field in ("coef", "resid_cov"):
                    assert_array_equal(getattr(group, field)[i], getattr(alone, field)[0])


class TestQrCore:
    @staticmethod
    def noiseless_var1():
        A = np.array([[0.8, 0.1], [0.05, 0.7]])
        y = np.zeros((60, 2))
        y[0] = [5.0, -3.0]
        for t in range(1, 60):
            y[t] = A @ y[t - 1]
        return y

    def test_exact_fit_keeps_a_finite_log_determinant(self):
        # The noiseless VAR(1) of test_varx's degenerate-interval test: its
        # residuals are rounding noise, which the normal equations' S_yy - M'C
        # cancelled to a non-positive determinant in some bootstrap samples.
        y = self.noiseless_var1()
        path = bic_path(y[None], 1)
        assert np.isfinite(path).all() and path[0, 0] < -100.0
        model = fit_varx(y, order=1)
        centered = model.residuals - model.residuals.mean(axis=0)
        n = centered.shape[0]
        (rows,) = replicate_draws(0, "varx-bootstrap", range(120), (n, None))
        innovations = centered[rows]
        samples = simulate_var(model.intercept, model.endo_coef, innovations, y[:1])
        replicate_path = bic_path(samples, 1)
        assert np.isfinite(replicate_path).all()
        assert replicate_path.max() < -100.0

    def test_path_matches_explicit_residuals(self):
        rng = np.random.default_rng(23)
        K, M, max_order = 2, 3, 3
        stack = rng.normal(size=(4, 150, K))
        exog = rng.normal(size=(150, M))
        path = bic_path(stack, max_order, exog)
        n = 150 - max_order
        for b in range(4):
            for p in range(1, max_order + 1):
                # Order p on the common sample t = max_order..T-1.
                start = max_order - p
                target, design = lag_design(stack[b, start:], p, exog[start:])
                coef, *_ = np.linalg.lstsq(design, target, rcond=None)
                resid = target - design @ coef
                logdet = np.linalg.slogdet(resid.T @ resid / n)[1]
                penalty = np.log(n) / n * (p * K * K + K * (M + 1))
                assert_allclose(path[b, p - 1], logdet + penalty, rtol=1e-13)

    def test_layout_premises_of_the_stacked_fits(self):
        # The fits factorise column-major designs but multiply C-ordered
        # ones.  Their bits stay put only while QR's R does not depend on
        # the layout, and the matrix products keep reading C-ordered data.
        rng = np.random.default_rng(24)
        stack = rng.normal(size=(32, 386, 11))
        per_matrix_fortran = np.swapaxes(np.swapaxes(stack, 1, 2).copy(), 1, 2)
        assert per_matrix_fortran.strides[1] == stack.itemsize
        r = np.linalg.qr(stack, mode="r")
        assert r.tobytes() == np.linalg.qr(per_matrix_fortran, mode="r").tobytes()

        data, exog = rng.normal(size=(4, 60, 2)), rng.normal(size=(60, 3))
        assert varbase._augmented(data, 3, exog).strides[1:] == (8, 57 * 8)
        target, design = lag_design(data, 3, exog)
        c_ordered = np.zeros((4, 57, 1 + 3 + (3 + 1) * 2))
        assert target.strides == c_ordered[..., -2:].strides
        assert design.strides == c_ordered[..., np.arange(10)].strides

    @pytest.mark.parametrize("size", ["1", "s-1", "s", "s+1", "32"])
    def test_sliced_factor_equals_per_matrix_qr(self, size):
        # _qr_factor factors _rng.FACTOR_SLICE matrices at a time; R and the
        # small-pivot mask of every matrix are those of its own QR, however
        # the stack falls into slices.  The last matrix has a column that
        # its first two columns span.
        s = _rng.FACTOR_SLICE
        count = {"1": 1, "s-1": s - 1, "s": s, "s+1": s + 1, "32": 32}[size]
        stack = np.swapaxes(np.random.default_rng(25).normal(size=(count, 7, 120)), 1, 2)
        stack[-1, :, 4] = stack[-1, :, 0] - 2.0 * stack[-1, :, 1]
        r, small = varbase._qr_factor(stack)
        assert r.shape == (count, 7, 7)
        for matrix, r_b, small_b in zip(stack, r, small):
            assert r_b.tobytes() == np.linalg.qr(matrix, mode="r").tobytes()
            assert_array_equal(small_b, varbase._qr_factor(matrix)[1])
        assert small[-1].tolist() == [False] * 4 + [True, False, False]
        assert not small[:-1].any()

    def test_core_modules_use_the_qr_primitive_only(self):
        # One least-squares primitive for the VAR core and the causality
        # nulls: no SVD solves and no raw LAPACK calls.
        forbidden = re.compile(r"\b(lstsq|pinv)\b|scipy\.linalg|lapack")
        for module in (varbase, spectral, varx):
            found = [m.group(0) for m in forbidden.finditer(inspect.getsource(module))]
            assert not found, f"{module.__name__} calls {found}"

    def test_replicates_draw_through_the_replicate_layer_only(self):
        # One way to derive per-replicate bootstrap indices: every null asks
        # _rng.replicate_draws; only the forest (one generator per tree, used
        # all through its growth) and the synthetic generator own a stream.
        package = pathlib.Path(varbase.__file__).parent
        callers = {
            path.name
            for path in package.glob("*.py")
            if re.search(r"\bsubstream\(", path.read_text())
        }
        assert callers <= {"_rng.py", "forest.py", "synth.py"}, callers
        assert not [
            path.name for path in package.glob("*.py") if "row_indices" in path.read_text()
        ]
