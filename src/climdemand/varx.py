"""Vector autoregression with exogenous regressors.

Estimation is equation-wise least squares on lagged endogenous values plus a
deterministic exogenous block (seasonal Fourier terms, a calendar dummy and
baseline fitted values), done by the VAR core of :mod:`climdemand.varbase`:
:func:`fit_varx` is its validating front for one series.  It shares the
core's builder with :func:`climdemand.varbase.fit_var`, so both return a
:class:`VarxModel` (a plain VAR's has no exogenous columns) and every tool
here takes either.  Inference comes from a residual bootstrap that
re-simulates the system from its first ``p`` rows and refits each simulated
sample as it comes, on the same core, a recursion block of replicates
(:func:`climdemand._rng.replicate_blocks`) at a time.  It feeds bias
correction with a stability safeguard, impulse responses and forecast-error
variance decompositions (bands from draws whose shapes must match the
model's, pushed through a recursion block at a time).

Variable order matters for the orthogonalized quantities: innovations are
factored by the Cholesky decomposition in the order the variables appear, so
callers should place the contemporaneously-first variable first.
"""

from __future__ import annotations

import dataclasses
import datetime as dt

import numpy as np

from ._rng import check_replicates, quantile, replicate_blocks, replicate_draws
from .errors import (
    AlignmentError,
    InvalidInputError,
    NumericalError,
    ShapeError,
    StabilityError,
    integer_problem,
)
from .panel import finite_array
from .varbase import (
    VarxModel,
    _fit,
    refit,
    simulate_var,
    spectral_radius,
    unpack_coefficients,
    validate_series,
)

__all__ = [
    "ExogenousDesign",
    "VarxModel",
    "VarxBootstrap",
    "BiasCorrection",
    "IrfResult",
    "FevdResult",
    "build_exogenous",
    "fit_varx",
    "residual_bootstrap",
    "bias_correct",
    "forecast_recursive",
    "irf",
    "fevd",
    "stability_check",
]

DEFAULT_FEVD_HORIZONS = tuple(range(4, 53, 4))


@dataclasses.dataclass(frozen=True)
class ExogenousDesign:
    """Deterministic regressors on a weekly axis.

    The axis may extend past the estimation sample; the fitting routine uses
    the first rows and the forecaster the rows beyond them.
    """

    column_names: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        values = finite_array(self.values, "exogenous values", ndim=2)
        if len(self.column_names) != values.shape[1]:
            raise ShapeError("exogenous column names must match the value columns")
        values.setflags(write=False)
        object.__setattr__(self, "column_names", tuple(self.column_names))
        object.__setattr__(self, "values", values)

    @property
    def n_weeks(self) -> int:
        return self.values.shape[0]


def _week_contains_august_15(week_start: dt.date) -> bool:
    mid_august = dt.date(week_start.year, 8, 15)
    return week_start <= mid_august <= week_start + dt.timedelta(days=6)


def build_exogenous(
    week_starts,
    baselines: dict[str, np.ndarray] | None = None,
    harmonics: int = 1,
    period: int = 52,
) -> ExogenousDesign:
    """Seasonal Fourier terms, a mid-August dummy and baseline columns.

    Parameters
    ----------
    week_starts : sequence of datetime.date
        Week axis; it should cover the estimation sample plus any forecast
        horizon so the same design serves both.
    baselines : dict, optional
        Named series (baseline fitted values and their forecasts) aligned
        with ``week_starts``.
    harmonics : int
        Number of Fourier harmonic pairs.
    period : int
        Seasonal period in weeks.

    Returns
    -------
    ExogenousDesign
        Columns ordered sin/cos per harmonic, then the dummy, then the
        baselines in mapping order.
    """
    for name, value, floor in (("harmonics", harmonics, 0), ("period", period, 2)):
        if problem := integer_problem(value, floor):
            raise InvalidInputError(f"{name} {problem}")
    weeks = tuple(week_starts)
    n = len(weeks)
    if n == 0:
        raise InvalidInputError("week_starts is empty")
    t = np.arange(n, dtype=float)
    names: list[str] = []
    columns: list[np.ndarray] = []
    for k in range(1, harmonics + 1):
        angle = 2.0 * np.pi * k * t / period
        names.append(f"seasonal_sin_{k}")
        columns.append(np.sin(angle))
        names.append(f"seasonal_cos_{k}")
        columns.append(np.cos(angle))
    names.append("august15")
    columns.append(
        np.array([float(_week_contains_august_15(w)) for w in weeks])
    )
    for name, series in (baselines or {}).items():
        values = np.asarray(series, dtype=float)
        if values.ndim != 1 or values.size != n:
            raise AlignmentError(
                f"baseline {name!r} has {values.size} values for {n} weeks"
            )
        names.append(name)
        columns.append(values)
    return ExogenousDesign(tuple(names), np.column_stack(columns))


def _as_exog(exog, n_rows: int) -> tuple[np.ndarray, tuple[str, ...]]:
    if exog is None:
        return np.empty((n_rows, 0)), ()
    if isinstance(exog, ExogenousDesign):
        if exog.n_weeks < n_rows:
            raise AlignmentError(
                f"exogenous design covers {exog.n_weeks} weeks; the sample has "
                f"{n_rows}"
            )
        return exog.values[:n_rows], exog.column_names
    values = finite_array(exog, "exogenous values", ndim=2)
    if values.shape[0] != n_rows:
        raise AlignmentError(
            f"exogenous array must have {n_rows} rows to match the sample"
        )
    return values, tuple(f"x{i + 1}" for i in range(values.shape[1]))


def fit_varx(
    endog,
    exog=None,
    order: int | None = None,
    max_order: int = 4,
    names=None,
) -> VarxModel:
    """Fit a VARX by equation-wise least squares.

    Parameters
    ----------
    endog : ndarray, shape (T, K)
        Endogenous variables, one column each.
    exog : ExogenousDesign or ndarray, optional
        Deterministic regressors.  A design longer than ``T`` is truncated
        to the sample; raw arrays must match ``T`` exactly.
    order : int, optional
        Lag order.  ``None`` selects the order in 1..``max_order`` by BIC on
        the common sample, then refits on the full usable sample.
    max_order : int
        Upper bound for order selection.
    names : sequence of str, optional
        Endogenous variable names.

    Returns
    -------
    VarxModel

    Raises
    ------
    InsufficientDataError
        Fewer than 10 residual degrees of freedom at the widest order:
        ``T - p <= K * p + M + 10``.
    RankDeficiencyError
        A candidate order's design is singular or leaves a non-positive
        residual determinant; the collinear columns, exogenous ones
        included, are named.
    """
    data, var_names = validate_series(endog, names, "endogenous data")
    exog_values, exog_names = _as_exog(exog, data.shape[0])
    return _fit(data, var_names, max_order, order, exog_values, exog_names)


def stability_check(model: VarxModel) -> float:
    """Largest companion-matrix eigenvalue modulus of the lag polynomial."""
    return spectral_radius(model.endo_coef)


@dataclasses.dataclass(frozen=True)
class VarxBootstrap:
    """Residual-bootstrap draws and the percentile bands derived from them.

    ``*_significant`` flags mark coefficients whose 95% interval excludes
    zero.
    """

    n_replicates: int
    intercept_draws: np.ndarray
    endo_draws: np.ndarray
    exo_draws: np.ndarray
    resid_cov_draws: np.ndarray
    intercept_lower: np.ndarray
    intercept_upper: np.ndarray
    intercept_significant: np.ndarray
    endo_lower: np.ndarray
    endo_upper: np.ndarray
    endo_significant: np.ndarray
    exo_lower: np.ndarray
    exo_upper: np.ndarray
    exo_significant: np.ndarray


def _check_draws(model: VarxModel, inference: VarxBootstrap) -> None:
    """Bootstrap draws must come from a model of ``model``'s shape: its
    order, variables and exogenous columns."""
    drawn = (inference.endo_draws.shape[1:], inference.exo_draws.shape[1:])
    if drawn != (model.endo_coef.shape, model.exo_coef.shape):
        raise ShapeError(
            f"bootstrap draws of lag shape {drawn[0]} and exogenous shape {drawn[1]} "
            f"do not fit a model of {model.endo_coef.shape} and {model.exo_coef.shape}"
        )


def _percentile_bands(
    draws: np.ndarray, overwrite_input: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """95% percentile bands over the draws' first axis and whether each
    excludes zero; with ``overwrite_input`` the draws are partitioned in
    place, so only a temporary may be passed."""
    lower = quantile(draws, 0.025, overwrite_input)
    upper = quantile(draws, 0.975, overwrite_input)
    significant = (lower > 0.0) | (upper < 0.0)
    return lower, upper, significant


def residual_bootstrap(
    model: VarxModel, n_replicates: int = 1000, seed: int = 0
) -> VarxBootstrap:
    """Recursive residual bootstrap of a fitted VARX.

    Residuals are centered, resampled by rows with replacement per
    replicate, and fed through the fitted recursion with the observed first
    ``p`` rows as initial values and the exogenous block held fixed.  Each
    simulated sample is refit with the same order, giving coefficient draws
    and 95% percentile intervals.

    Replicate ``b`` draws from its own named RNG substream, so results are
    reproducible and independent of execution layout.
    """
    check_replicates(n_replicates, seed)
    p = model.order
    centered = model.residuals - model.residuals.mean(axis=0)
    n = centered.shape[0]
    deterministic = (model.intercept[None, :] + model.exog_values @ model.exo_coef.T)[p:]
    coefs, covs = [], []
    for block in replicate_blocks(n_replicates, recursion=True):
        rows = replicate_draws(seed, "varx-bootstrap", range(n_replicates)[block], (n, None))[0]
        # The resampled innovations are a temporary, freed before the refit.
        samples = simulate_var(deterministic, model.endo_coef, centered[rows], model.endog[:p])
        groups, failed = refit(samples, np.full(len(samples), p), model.exog_values)
        if failed.any():
            raise NumericalError("a bootstrap replicate produced a singular regression design")
        coefs.append(groups[0].coef)
        covs.append(groups[0].resid_cov)
    coef = np.concatenate(coefs)
    resid_cov_draws = np.concatenate(covs)
    draws = unpack_coefficients(coef, p)
    # Lower, upper and significant of the intercept, lag and exogenous
    # blocks, in VarxBootstrap's field order.
    bands = [band for block in draws for band in _percentile_bands(block)]
    return VarxBootstrap(n_replicates, *draws, resid_cov_draws, *bands)


# Factor by which bias_correct shrinks the bias term until the model is stable.
SHRINK_STEP = 0.9


@dataclasses.dataclass(frozen=True)
class BiasCorrection:
    """Bias-corrected model plus the shrink factor that kept it stable."""

    model: VarxModel
    delta_applied: float
    intercept_bias: np.ndarray
    endo_bias: np.ndarray
    exo_bias: np.ndarray


def bias_correct(model: VarxModel, inference: VarxBootstrap) -> BiasCorrection:
    """Subtract the bootstrap bias estimate, shrinking until stable.

    The bias is the mean of the coefficient draws minus the point estimate.
    If subtracting it pushes the companion spectral radius to 1 or beyond,
    the whole bias term is multiplied by ``SHRINK_STEP`` (0.9) repeatedly until
    the corrected system is stable; ``delta_applied`` records the final
    factor.  The corrected model keeps the original least-squares residuals
    and covariance, which remain the innovation estimates used downstream.

    Raises
    ------
    StabilityError
        The uncorrected point estimate is itself unstable, so no amount of
        shrinkage can terminate.
    ShapeError
        The draws come from a model of another order, variable count or
        exogenous column count.
    """
    _check_draws(model, inference)
    if spectral_radius(model.endo_coef) >= 1.0:
        raise StabilityError(
            "the point estimate has companion spectral radius "
            f"{model.companion_radius:.4f} >= 1; bias correction cannot "
            "produce a stable model"
        )
    intercept_bias = inference.intercept_draws.mean(axis=0) - model.intercept
    endo_bias = inference.endo_draws.mean(axis=0) - model.endo_coef
    exo_bias = inference.exo_draws.mean(axis=0) - model.exo_coef
    delta = 1.0
    while spectral_radius(model.endo_coef - delta * endo_bias) >= 1.0:
        delta *= SHRINK_STEP
    corrected_endo = model.endo_coef - delta * endo_bias
    corrected = dataclasses.replace(
        model,
        intercept=model.intercept - delta * intercept_bias,
        endo_coef=corrected_endo,
        exo_coef=model.exo_coef - delta * exo_bias,
        companion_radius=spectral_radius(corrected_endo),
        bic_by_order=model.bic_by_order,
    )
    return BiasCorrection(
        model=corrected,
        delta_applied=delta,
        intercept_bias=intercept_bias,
        endo_bias=endo_bias,
        exo_bias=exo_bias,
    )


def forecast_recursive(
    model: VarxModel, horizon: int, exog_future: np.ndarray | None = None
) -> np.ndarray:
    """Iterated one-step forecasts, feeding predictions back as lags.

    Parameters
    ----------
    model : VarxModel
    horizon : int
        Number of weeks ahead.
    exog_future : ndarray, shape (horizon, M), optional
        Exogenous rows for the forecast weeks; required whenever the model
        has exogenous columns; a 1-D array is one column.  Extra trailing
        rows are ignored.

    Returns
    -------
    ndarray, shape (horizon, K)
    """
    if problem := integer_problem(horizon, 1):
        raise InvalidInputError(f"horizon {problem}")
    K = model.n_variables
    M = model.n_exog
    if M:
        if exog_future is None:
            raise AlignmentError(
                "the model has exogenous columns; exog_future is required"
            )
        future = finite_array(exog_future, "exog_future", ndim=2)
        if future.shape[1] != M:
            raise ShapeError(f"exog_future must have {M} columns")
        if future.shape[0] < horizon:
            raise AlignmentError(
                f"exog_future covers {future.shape[0]} weeks; horizon is "
                f"{horizon}"
            )
        future = future[:horizon]
    else:
        future = np.zeros((horizon, 0))
    deterministic = model.intercept + future @ model.exo_coef.T
    return simulate_var(
        deterministic, model.endo_coef, np.zeros((horizon, K)), model.endog[-model.order :]
    )[model.order :]


def _phi_matrices(endo_coef: np.ndarray, horizon: int) -> np.ndarray:
    """Moving-average matrices Phi_0..Phi_horizon of the lag recursion.

    ``endo_coef`` is (p, K, K) or a stack (..., p, K, K); the result is
    (..., horizon + 1, K, K).
    """
    *lead, p, K, _ = endo_coef.shape
    phi = np.zeros((*lead, horizon + 1, K, K))
    phi[..., 0, :, :] = np.eye(K)
    for h in range(1, horizon + 1):
        for lag in range(min(h, p)):
            phi[..., h, :, :] += endo_coef[..., lag, :, :] @ phi[..., h - 1 - lag, :, :]
    return phi


def _cholesky(cov: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            "residual covariance is not positive definite; orthogonalized "
            "responses are undefined"
        ) from exc


@dataclasses.dataclass(frozen=True)
class IrfResult:
    """Orthogonalized impulse responses to one-SD shocks.

    ``responses[h, i, j]`` is the response of variable ``i`` at horizon
    ``h`` to the orthogonalized shock of variable ``j``; bands are 95%
    bootstrap percentiles when inference was supplied.
    """

    variable_names: tuple[str, ...]
    horizon: int
    responses: np.ndarray
    lower: np.ndarray | None
    upper: np.ndarray | None


def irf(
    model: VarxModel, horizon: int = 26, inference: VarxBootstrap | None = None
) -> IrfResult:
    """Impulse responses over horizons 0..``horizon``.

    Shocks are orthogonalized by the lower Cholesky factor of the residual
    covariance in the model's variable order.  With ``inference`` given,
    each bootstrap replicate's coefficients and covariance are pushed
    through the same computation for percentile bands, a recursion block
    (:data:`climdemand._rng.RECURSION_BLOCK`) of replicates at a time, and
    the bands are taken by partitioning those responses in place; no block
    size changes a band.  Draws of another model's shape are a
    :class:`ShapeError`.
    """
    if problem := integer_problem(horizon, 1):
        raise InvalidInputError(f"horizon {problem}")
    if spectral_radius(model.endo_coef) >= 1.0:
        raise StabilityError(
            "impulse responses require a stable model; companion radius is "
            f"{spectral_radius(model.endo_coef):.4f}"
        )
    responses = _phi_matrices(model.endo_coef, horizon) @ _cholesky(
        model.resid_cov
    )
    lower = upper = None
    if inference is not None:
        _check_draws(model, inference)
        draws = np.empty((len(inference.endo_draws), *responses.shape))
        for block in replicate_blocks(len(draws), recursion=True):
            factors = _cholesky(inference.resid_cov_draws[block])
            draws[block] = _phi_matrices(inference.endo_draws[block], horizon) @ factors[:, None]
        lower, upper, _ = _percentile_bands(draws, overwrite_input=True)
    return IrfResult(
        variable_names=model.variable_names,
        horizon=horizon,
        responses=responses,
        lower=lower,
        upper=upper,
    )


@dataclasses.dataclass(frozen=True)
class FevdResult:
    """Forecast-error variance shares per (variable, shock, horizon).

    ``shares[h, i, j]`` is the fraction of variable ``i``'s forecast-error
    variance at ``horizons[h]`` attributed to the orthogonalized shock of
    variable ``j``; rows sum to one.
    """

    variable_names: tuple[str, ...]
    horizons: tuple[int, ...]
    shares: np.ndarray
    mean: np.ndarray | None
    lower: np.ndarray | None
    upper: np.ndarray | None


def _fevd_shares(
    endo_coef: np.ndarray, resid_cov: np.ndarray, horizons: tuple[int, ...]
) -> np.ndarray:
    """Shares (..., len(horizons), K, K) for one system or a stack of them."""
    factor = _cholesky(resid_cov)[..., None, :, :]
    theta = _phi_matrices(endo_coef, max(horizons) - 1) @ factor
    cumulative = np.cumsum(theta**2, axis=-3)
    picked = cumulative[..., [h - 1 for h in horizons], :, :]
    return picked / picked.sum(axis=-1, keepdims=True)


def fevd(
    model: VarxModel,
    horizons: tuple[int, ...] = DEFAULT_FEVD_HORIZONS,
    inference: VarxBootstrap | None = None,
) -> FevdResult:
    """Orthogonalized forecast-error variance decomposition.

    Shares accumulate squared impulse-response terms up to each horizon and
    normalize per variable, so they are nonnegative and sum to one exactly.
    Bands and the mean come from ``inference``: its draws go through the
    decomposition a recursion block
    (:data:`climdemand._rng.RECURSION_BLOCK`) of replicates at a time, and,
    as for :func:`irf`, the bands are taken by partitioning those shares in
    place, after their mean.  No block size changes a bit.
    """
    horizons = tuple(horizons)
    if not horizons:
        raise InvalidInputError("horizons must not be empty")
    for h in horizons:
        if problem := integer_problem(h, 1):
            raise InvalidInputError(f"every horizon {problem}")
    horizons = tuple(map(int, horizons))
    if spectral_radius(model.endo_coef) >= 1.0:
        raise StabilityError(
            "variance decomposition requires a stable model; companion "
            f"radius is {spectral_radius(model.endo_coef):.4f}"
        )
    shares = _fevd_shares(model.endo_coef, model.resid_cov, horizons)
    mean = lower = upper = None
    if inference is not None:
        _check_draws(model, inference)
        draws = np.empty((len(inference.endo_draws), *shares.shape))
        for block in replicate_blocks(len(draws), recursion=True):
            draws[block] = _fevd_shares(
                inference.endo_draws[block], inference.resid_cov_draws[block], horizons
            )
        mean = draws.mean(axis=0)
        lower, upper, _ = _percentile_bands(draws, overwrite_input=True)
    return FevdResult(
        variable_names=model.variable_names,
        horizons=horizons,
        shares=shares,
        mean=mean,
        lower=lower,
        upper=upper,
    )
