"""L1-penalized vector autoregression, one lasso per equation.

Each equation is a lasso on the shared lagged design.  Variables are
standardized first (zero mean, unit standard deviation per column), lags are
built from the standardized panel, and design and target are then centered
within the regression sample so the intercept is handled exactly without
being penalized.  The per-equation objective is

    (1 / 2n) * ||y - X b||^2 + lam * ||b||_1

with n the number of regression rows; a coefficient is therefore driven to
exactly zero once ``lam`` reaches ``max_j |<x_j, y>| / n``.  One helper
builds a window's problem (standardization, Gram and moment matrices,
centring means) once, and every equation is solved by
:func:`climdemand.lasso.lasso_path`: the homotopy path from ``lam_max``,
an exact KKT solve on the active set at each penalty, and a Fenchel
duality-gap certificate, so each returned solution is a certified optimum.
A fit solves at one penalty; the penalty search follows one path per
window and equation down its whole grid and reads it off at every grid
value.  Zero penalty is plain least squares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    ConvergenceError,
    DegenerateInputError,
    InsufficientDataError,
    InvalidInputError,
    UnknownColumnError,
    integer_problem,
    real_problem,
)
from .lasso import lasso_path
from .varbase import lag_design, validate_series

DUALITY_GAP_TOL = 1e-8
MAX_SWEEPS = 50_000


@dataclass
class SparseVarModel:
    """Fitted penalized VAR.  Coefficients are in standardized units.

    ``coef[l][i, j]`` is the effect of (standardized) variable ``j`` at lag
    ``l + 1`` on (standardized) variable ``i``.
    """

    variable_names: tuple[str, ...]
    order: int
    lam: float
    coef: np.ndarray
    column_means: np.ndarray
    column_sds: np.ndarray
    standardized: bool
    nobs: int
    duality_gap: np.ndarray
    n_sweeps: np.ndarray

    @property
    def n_variables(self) -> int:
        return len(self.variable_names)


@dataclass
class CoefficientTable:
    """One equation's coefficients arranged variable-by-lag."""

    equation: str
    variables: tuple[str, ...]
    values: np.ndarray  # (n_variables, order)


def _standardize(arr: np.ndarray, names: Sequence[str], standardize: bool = True):
    """The columns a fit runs on, with their means and scales: zero mean and
    unit standard deviation, or unchanged (zero means, unit scales) when not
    ``standardize``.  A constant column is a :class:`DegenerateInputError`
    naming it either way."""
    sds = arr.std(axis=0)
    flat = [names[j] for j in np.flatnonzero(sds == 0.0)]
    if flat:
        raise DegenerateInputError("constant columns: " + ", ".join(flat))
    if not standardize:
        return arr, np.zeros(arr.shape[1]), np.ones(arr.shape[1])
    means = arr.mean(axis=0)
    return (arr - means) / sds, means, sds


class _Problem(NamedTuple):
    """A window's lasso problem in covariance form: its standardized
    columns with their means and scales, the Gram matrix and moments of the
    centred lagged design, each equation's ``y'y / n`` and the two
    centring means."""

    work: np.ndarray
    means: np.ndarray
    sds: np.ndarray
    gram: np.ndarray
    moments: np.ndarray
    y_sq_means: tuple[float, ...]
    design_mean: np.ndarray
    target_mean: np.ndarray


def _problem(arr: np.ndarray, names, order: int, standardize: bool = True) -> _Problem:
    """The lagged lasso problem on ``arr``'s standardized columns.  Design
    (without its intercept column) and target are centred within the
    regression sample, which drops the unpenalized intercept exactly, so
    the lambda_max identity holds as stated."""
    work, means, sds = _standardize(arr, names, standardize)
    target, design = lag_design(work, order)
    design_mean = design[:, 1:].mean(axis=0)
    target_mean = target.mean(axis=0)
    design = design[:, 1:] - design_mean
    target = target - target_mean
    n = target.shape[0]
    y_sq_means = tuple(float(target[:, k] @ target[:, k]) / n for k in range(arr.shape[1]))
    return _Problem(
        work, means, sds, design.T @ design / n, design.T @ target / n, y_sq_means,
        design_mean, target_mean,
    )


def _fits(problem: _Problem, order: int, lams):
    """Every equation of ``problem`` at each penalty of the non-increasing
    ``lams``, one lasso path per equation; yields per penalty the
    coefficients (order, K, K), duality gaps and iterations.  The first
    :class:`ConvergenceError` in (penalty, equation) order is raised."""
    K = len(problem.y_sq_means)
    paths = [
        lasso_path(problem.gram, problem.moments[:, k], problem.y_sq_means[k], lams,
                   DUALITY_GAP_TOL, MAX_SWEEPS)
        for k in range(K)
    ]
    for results in zip(*paths):
        coef = np.empty((order, K, K))
        gaps = np.empty(K)
        sweeps = np.empty(K, dtype=int)
        for k, result in enumerate(results):
            if isinstance(result, ConvergenceError):
                raise result
            beta, gaps[k], sweeps[k] = result
            coef[:, k, :] = beta.reshape(order, K)
        yield coef, gaps, sweeps


def _check_order(order) -> None:
    if problem := integer_problem(order, 1):
        raise InvalidInputError(f"order {problem}")


def fit_lasso_var(
    data,
    order: int = 4,
    lam: float = 0.0,
    standardize: bool = True,
    names: Sequence[str] | None = None,
) -> SparseVarModel:
    """Fit the penalized VAR equation by equation.

    Parameters
    ----------
    data : PanelDataset or array_like of shape (T, K)
        Weekly panel; every column enters every equation at lags 1..order.
    order : int
        Number of lags.
    lam : float
        L1 penalty weight on the (1/2n) squared-error scale.  Zero gives
        plain least squares.
    standardize : bool
        Standardize columns before fitting (the stored coefficients always
        refer to the scale the fit ran on).

    Every equation is solved to a relative duality gap of
    ``DUALITY_GAP_TOL`` within ``MAX_SWEEPS`` iterations (path steps plus
    descent sweeps); ``n_sweeps`` records the iterations each used.
    """
    arr, names = validate_series(data, names)
    T, K = arr.shape
    _check_order(order)
    if problem := real_problem(lam, "[0, inf)"):
        raise InvalidInputError(f"lam {problem}")
    if T - order <= K * order + 1:
        raise InsufficientDataError(
            f"need more than {order + K * order + 1} rows for order {order} "
            f"with {K} variables, got {T}"
        )
    window = _problem(arr, names, order, standardize)
    ((coef, gaps, sweeps),) = _fits(window, order, (lam,))
    return SparseVarModel(
        variable_names=names,
        order=order,
        lam=float(lam),
        coef=coef,
        column_means=window.means,
        column_sds=window.sds,
        standardized=standardize,
        nobs=T - order,
        duality_gap=gaps,
        n_sweeps=sweeps,
    )


def lambda_max(data, order: int = 4, names: Sequence[str] | None = None) -> float:
    """Smallest penalty that zeroes every coefficient of every equation."""
    arr, names = validate_series(data, names)
    return float(np.max(np.abs(_problem(arr, names, order).moments)))


def select_lambda(
    data,
    order: int = 4,
    grid: Sequence[float] | None = None,
    n_origins: int = 24,
    names: Sequence[str] | None = None,
) -> float:
    """Pick the penalty by rolling-origin one-step forecast error.

    For every origin t0 in the evaluation tail, the window of rows up to t0
    is standardized on its own and its lasso problem built once; each
    equation follows one lasso path down the whole grid, read off at every
    grid value (each point is the fit :func:`fit_lasso_var` gives the
    window at that value).  Each grid value's model is scored on its
    one-step prediction of row t0 + 1, and errors are accumulated in
    standardized units across all equations.  The grid value with the
    smallest mean squared error wins; ties go to the larger (sparser)
    penalty.
    """
    arr, names = validate_series(data, names)
    T, K = arr.shape
    _check_order(order)
    if problem := integer_problem(n_origins, 1):
        raise InvalidInputError(f"n_origins {problem}")
    if grid is None:
        top = lambda_max(arr, order, names)
        grid = np.geomspace(top, top * 1e-3, 16)
    if np.ndim(grid) != 1 or len(grid) == 0:
        raise InvalidInputError(f"grid must be a non-empty sequence, got {grid!r}")
    for lam in grid:
        if problem := real_problem(lam, "[0, inf)"):
            raise InvalidInputError(f"every grid value {problem}")
    grid = np.asarray(sorted(grid, reverse=True), dtype=float)
    min_train = max(order + K * order + 2, 5 * order, T - n_origins)
    origins = range(min_train, T - 1)
    if len(origins) == 0:
        raise InsufficientDataError(
            f"no forecast origins left: T={T}, first usable origin {min_train}"
        )
    mse = np.zeros(grid.size)
    for t0 in origins:
        window = _problem(arr[: t0 + 1], names, order)
        actual = (arr[t0 + 1] - window.means) / window.sds
        last = np.concatenate([window.work[t0 + 1 - lag] for lag in range(1, order + 1)])
        for g, (coef, _, _) in enumerate(_fits(window, order, grid)):
            flat = coef.transpose(1, 0, 2).reshape(K, -1)
            pred = window.target_mean + flat @ (last - window.design_mean)
            mse[g] += float(np.sum((actual - pred) ** 2))
    best = int(np.argmin(mse))  # grid is sorted descending: first min is largest lam
    return float(grid[best])


def coefficient_table(model: SparseVarModel, equation: str) -> CoefficientTable:
    """Arrange one equation's coefficients as variables x lags."""
    if equation not in model.variable_names:
        raise UnknownColumnError([equation], model.variable_names)
    k = model.variable_names.index(equation)
    values = model.coef[:, k, :].T  # (K, order)
    return CoefficientTable(
        equation=equation,
        variables=model.variable_names,
        values=values.copy(),
    )
