"""Least-squares vector autoregression core.

Every VAR in the package is estimated here, single fits (:func:`fit_var`,
``varx.fit_varx``) and bootstrap replicates alike, on a stack of series
(B, T, K) with optional shared exogenous columns.  Both single-fit fronts
validate their own input and hand it to one builder, which returns a
:class:`VarxModel`; a VAR is a VARX whose exogenous block is empty.
Estimation is equation-wise OLS on a common design (identical regressors
per equation, so joint GLS collapses to OLS), and every least-squares
problem is one stacked Householder QR (:func:`least_squares`) of
``[1, exog, lag 1..p, Y]``; the causality nulls' projections use the same
primitive.  :func:`bic_path` scores orders 1..max_order on the common sample
t = max_order..T-1 from one factorisation, :func:`refit` solves each series
of a stack at its order on its full usable sample (coefficients and residual
covariance only, what the bootstraps read), and :func:`simulate_var`
iterates the recursion into whole samples, initial rows first, which the
bootstraps refit as they come.  A single fit solves its order with its own
QR, whose ``R11^-1`` gives the inverse Gram matrix behind its standard
errors.  A design with a small QR
pivot, or a residual covariance with a non-positive determinant, marks a
series failed; single fits raise :class:`RankDeficiencyError` naming the
columns with small pivots, bootstraps count or reject the replicate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._rng import factor_slices, replicate_blocks
from .errors import (
    InsufficientDataError,
    InvalidInputError,
    RankDeficiencyError,
    ShapeError,
    integer_problem,
)
from .panel import PanelDataset, finite_array


def validate_series(data, names=None, what: str = "data") -> tuple[np.ndarray, tuple[str, ...]]:
    """A finite (T, K) matrix and its K variable names.

    ``data`` is a :class:`PanelDataset` (all its columns, or those named) or
    an array; a 1-d array is one variable.  Unnamed variables are called
    ``y0, y1, ...``.  A name given twice is an :class:`InvalidInputError`.
    """
    if isinstance(data, PanelDataset):
        names = data.column_names if names is None else _unique_names(names, what)
        return data.matrix(names), names
    arr = finite_array(data, what, ndim=2)
    if arr.shape[1] < 1:
        raise ShapeError(f"{what} must be a (T, K) matrix, got shape {arr.shape}")
    if names is None:
        return arr, tuple(f"y{i}" for i in range(arr.shape[1]))
    names = _unique_names(names, what)
    if len(names) != arr.shape[1]:
        raise ShapeError(f"{len(names)} names for {arr.shape[1]} variables")
    return arr, names


def _unique_names(names, what: str) -> tuple[str, ...]:
    names = tuple(names)
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise InvalidInputError(f"duplicate variable name in {what}: {', '.join(repeated)}")
    return names


def _augmented(data: np.ndarray, order: int, exog: np.ndarray | None = None) -> np.ndarray:
    """``[1, exog, lag 1..order, Y]`` over t = order..T-1, the matrix every
    fit factorises, filled column by column in per-matrix column-major
    order, the QR's own.  The exogenous columns come before the lags, so
    each lower order's design is a leading block of columns.  QR bits do
    not depend on the layout but matrix products' do: those read a
    C-ordered copy."""
    if problem := integer_problem(order, 1):
        raise InvalidInputError(f"order {problem}")
    T, K = data.shape[-2:]
    n = T - order
    if n <= 0:
        raise InsufficientDataError(f"need more than {order} rows, got {T}")
    M = 0 if exog is None else exog.shape[1]
    columns = np.empty(data.shape[:-2] + (1 + M + (order + 1) * K, n))
    series = np.swapaxes(data, -1, -2)
    columns[..., 0, :] = 1.0
    if exog is not None:
        columns[..., 1 : 1 + M, :] = exog[order:].T
    for block, lag in enumerate([*range(1, order + 1), 0]):
        first = 1 + M + block * K
        columns[..., first : first + K, :] = series[..., order - lag : T - lag]
    return np.swapaxes(columns, -1, -2)


def _public_rows(q: int, M: int) -> np.ndarray:
    """Reorders the design columns ``[1, exog, lags]`` as ``[1, lags, exog]``."""
    return np.r_[0, 1 + M : q, 1 : 1 + M]


def lag_design(
    data: np.ndarray, order: int, exog: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Stack the regression target and design for a VAR(order).

    ``data`` is (T, K) or a stack (B, T, K); ``exog`` (T, M) is shared by the
    stack.  Rows are t = order..T-1.  Design columns are an intercept, then
    the K variables at lag 1, lag 2, ..., then any exogenous columns at
    time t.
    """
    matrix = np.ascontiguousarray(_augmented(data, order, exog))
    q = matrix.shape[-1] - data.shape[-1]
    M = 0 if exog is None else exog.shape[1]
    return matrix[..., q:], matrix[..., _public_rows(q, M)]


def _qr_factor(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """R of the Householder QR of each (n, c) matrix of a stack, and the mask
    of small pivots, |r_ii| <= max_j |r_jj| * max(n, c) * eps or not finite:
    the columns that the columns before them span to rounding.  The stack is
    factored :data:`climdemand._rng.FACTOR_SLICE` matrices at a time, so the
    copy np.linalg.qr makes of its input covers one slice."""
    stack = matrix.reshape((-1, *matrix.shape[-2:]))
    r = np.concatenate([np.linalg.qr(stack[part], mode="r") for part in factor_slices(len(stack))])
    r = r.reshape(matrix.shape[:-2] + r.shape[-2:])
    diag = np.abs(np.diagonal(r, axis1=-2, axis2=-1))
    tol = diag.max(axis=-1, keepdims=True) * max(matrix.shape[-2:]) * np.finfo(float).eps
    return r, ~(diag > tol)


def least_squares(matrix: np.ndarray, q: int):
    """Least squares of the last columns of each matrix of a stack on its
    first ``q`` columns, from one QR: ``R = [[R11, R12], [0, R22]]``.

    Returns the (..., q, r) coefficients ``R11^-1 R12``, ``R11^-1`` (the
    inverse Gram matrix is ``R11^-1 R11^-T``), ``R22`` (the residual
    cross-product is ``R22' R22``) and the mask of fits whose design has a
    small pivot; their values mean nothing.
    """
    r, small = _qr_factor(matrix)
    failed = small[..., :q].any(axis=-1)
    r_inv = np.linalg.inv(np.where(failed[..., None, None], np.eye(q), r[..., :q, :q]))
    return r_inv @ r[..., :q, q:], r_inv, r[..., q:, q:], failed


def bic_path(data: np.ndarray, max_order: int, exog: np.ndarray | None = None) -> np.ndarray:
    """BIC of orders 1..max_order for each series of a (B, T, K) stack.

    All orders share the common sample t = max_order..T-1 and one QR of
    ``[1, exog, lag 1..max_order, Y]``: order p's design is its leading c_p
    columns, so its residual cross-product is ``R[c_p:, Y]' R[c_p:, Y]``.
    The penalty counts p*K*K lag coefficients plus K*(M + 1) intercepts and
    exogenous coefficients.  Returns (B, max_order); an entry is NaN where
    that order's design has a small pivot or its residual covariance
    determinant is not positive.
    """
    B, T, K = data.shape
    M = 0 if exog is None else exog.shape[1]
    n = T - max_order
    r, small = _qr_factor(_augmented(data, max_order, exog))
    path = np.full((B, max_order), np.nan)
    for p in range(1, max_order + 1):
        c = 1 + M + p * K
        resid = r[:, c:, -K:]
        sign, logdet = np.linalg.slogdet(resid.transpose(0, 2, 1) @ resid / n)
        ok = ~small[:, :c].any(axis=1) & (sign > 0)
        path[ok, p - 1] = logdet[ok] + np.log(n) / n * (p * K * K + K * (M + 1))
    return path


def select_order(path: np.ndarray) -> np.ndarray:
    """Minimum-BIC order of each row of a path (ties go to the lower order)."""
    return np.argmin(path, axis=-1) + 1


@dataclass
class OrderFit:
    """Least-squares fits of the series of a stack that share one order.

    ``coef[b]`` is (q, K) with rows intercept, lag 1..order blocks, then
    exogenous columns; ``resid_cov`` is degrees-of-freedom adjusted.
    ``index`` locates the fits in the stack.
    """

    order: int
    index: np.ndarray
    coef: np.ndarray
    resid_cov: np.ndarray


def refit(
    data: np.ndarray, orders: np.ndarray, exog: np.ndarray | None = None
) -> tuple[list[OrderFit], np.ndarray]:
    """Least squares for each series of a (B, T, K) stack at its own order.

    Each series uses its full usable sample t = order..T-1, one stacked
    design per order and fit block (:func:`climdemand._rng.replicate_blocks`)
    of its series, factored a slice at a time (:func:`_qr_factor`), so a
    block holds its designs once and one slice's copy.  Series are grouped by
    order, in increasing order.  Returns the groups and the (B,) mask of
    series whose design has a small pivot, which no group holds.
    """
    orders = np.asarray(orders)
    K = data.shape[2]
    M = 0 if exog is None else exog.shape[1]
    failed = np.zeros(len(data), bool)
    groups: list[OrderFit] = []
    # Not np.unique: its first call imports numpy.ma, about 1 MiB under
    # tracemalloc, inside whichever bootstrap refits first.
    for p in sorted(set(orders.tolist())):
        index = np.flatnonzero(orders == p)
        parts = []
        for block in replicate_blocks(index.size):
            part = index[block]
            sample = data if part.size == len(data) else data[part]
            matrix = _augmented(sample, p, exog)
            n, q = matrix.shape[1], matrix.shape[2] - K
            coef, _, r22, bad = least_squares(matrix, q)
            failed[part[bad]] = True
            keep = ~bad
            r22 = r22[keep]
            parts.append((
                part[keep], coef[keep][:, _public_rows(q, M)],
                r22.transpose(0, 2, 1) @ r22 / (n - q),
            ))
        fit = parts[0] if len(parts) == 1 else [np.concatenate(f) for f in zip(*parts)]
        if fit[0].size:
            groups.append(OrderFit(p, *fit))
    return groups, failed


def _rank_error(data, names, order, exog, exog_names) -> RankDeficiencyError:
    """Name the columns of a failed order-``order`` fit that have small
    pivots in the QR of ``[1, exog, lags, Y]``: design columns, and targets
    that an exact fit makes dependent on the design."""
    _, small = _qr_factor(_augmented(data, order, exog))
    lags = [f"{name}.l{lag}" for lag in range(1, order + 1) for name in names]
    columns = ["const", *exog_names, *lags, *names]
    return RankDeficiencyError([c for c, bad in zip(columns, small) if bad])


def check_sample_size(T: int, K: int, M: int, order: int) -> None:
    """Require at least 10 residual degrees of freedom at ``order``.

    A VAR(p) in K variables with M exogenous columns has T - p rows and
    1 + K*p + M regressors, so the rule is T - p > K*p + M + 10.
    """
    if T - order <= K * order + M + 10:
        raise InsufficientDataError(
            f"{T} observations are too few for a VAR({order}) in {K} variables "
            f"with {M} exogenous columns: need T - p > K*p + M + 10"
        )


@dataclass(frozen=True)
class VarxModel:
    """Fitted VARX(p) system; a plain VAR has no exogenous columns.

    ``endo_coef[l][i, j]`` is the effect of variable ``j`` at lag ``l+1`` on
    equation ``i``; ``exo_coef[i, m]`` the effect of exogenous column ``m``.
    ``resid_cov`` is the degrees-of-freedom adjusted residual covariance.
    The training data and its exogenous rows are kept on the model so that
    bootstrap inference and forecasting need no further alignment.
    """

    variable_names: tuple[str, ...]
    exog_names: tuple[str, ...]
    order: int
    intercept: np.ndarray
    endo_coef: np.ndarray
    exo_coef: np.ndarray
    resid_cov: np.ndarray
    residuals: np.ndarray
    intercept_se: np.ndarray
    endo_se: np.ndarray
    exo_se: np.ndarray
    gram_inv: np.ndarray
    companion_radius: float
    nobs: int
    endog: np.ndarray
    exog_values: np.ndarray
    bic: float
    bic_by_order: dict[int, float]

    @property
    def n_variables(self) -> int:
        return len(self.variable_names)

    @property
    def n_exog(self) -> int:
        return len(self.exog_names)


def companion_matrix(coef: np.ndarray) -> np.ndarray:
    """Companion form of the lag polynomial: (K*p, K*p)."""
    p, K, _ = coef.shape
    top = np.concatenate([coef[l] for l in range(p)], axis=1)
    if p == 1:
        return top
    body = np.eye(K * (p - 1), K * p)
    return np.vstack([top, body])


def spectral_radius(coef: np.ndarray) -> float:
    """Largest modulus among companion-matrix eigenvalues."""
    return float(np.max(np.abs(np.linalg.eigvals(companion_matrix(coef)))))


def lag_coefficients(coef: np.ndarray, order: int) -> np.ndarray:
    """``(..., order, K, K)`` lag matrices from stacked ``(..., q, K)`` rows."""
    K = coef.shape[-1]
    lags = coef[..., 1 : 1 + order * K, :]
    return np.swapaxes(lags.reshape(coef.shape[:-2] + (order, K, K)), -1, -2)


def unpack_coefficients(stacked: np.ndarray, order: int) -> tuple[np.ndarray, ...]:
    """Split stacked (..., q, K) coefficient rows into the (..., K)
    intercept, the (..., order, K, K) lag matrices and the (..., K, M)
    exogenous block."""
    K = stacked.shape[-1]
    exo = np.swapaxes(stacked[..., 1 + order * K :, :], -1, -2)
    return stacked[..., 0, :], lag_coefficients(stacked, order), exo


def _fit(data: np.ndarray, names: tuple[str, ...], max_order: int, order: int | None,
         exog: np.ndarray, exog_names: tuple[str, ...]) -> VarxModel:
    """The core at B = 1, behind both fronts, :func:`fit_var` and
    ``varx.fit_varx``: validated (T, K) data and (T, M) exogenous rows.

    Checks the order (``max_order`` when the order is chosen) and the
    sample size, scores orders 1..max_order (1..order when the order is
    fixed), raising :class:`RankDeficiencyError` if any fails,
    selects or keeps the order, and solves it on its full usable sample:
    coefficients, residuals, and standard errors from the inverse Gram
    matrix ``R11^-1 R11^-T`` of the same QR.
    """
    T, K = data.shape
    M = exog.shape[1]
    widest, what = (max_order, "max_order") if order is None else (order, "order")
    if problem := integer_problem(widest, 1):
        raise InvalidInputError(f"{what} {problem}")
    check_sample_size(T, K, M, widest)
    path = bic_path(data[None], widest, exog)[0]
    bad = np.flatnonzero(np.isnan(path))
    if bad.size:
        raise _rank_error(data, names, int(bad[0]) + 1, exog, exog_names)
    if order is None:
        order = int(select_order(path))
    matrix = _augmented(data, order, exog)
    n, q = matrix.shape[0], matrix.shape[1] - K
    coef, r_inv, r22, failed = least_squares(matrix, q)
    if failed:
        raise _rank_error(data, names, order, exog, exog_names)
    resid_cov = r22.T @ r22 / (n - q)
    design = np.ascontiguousarray(matrix)
    residuals = design[:, q:] - design[:, :q] @ coef
    rows = _public_rows(q, M)
    gram_inv = (r_inv @ r_inv.T)[rows][:, rows]
    intercept, endo_coef, exo_coef = unpack_coefficients(coef[rows], order)
    # Per-equation OLS standard errors from sigma_kk * diag((X'X)^-1).
    se = np.sqrt(np.outer(np.diag(gram_inv), np.diag(resid_cov)))
    intercept_se, endo_se, exo_se = unpack_coefficients(se, order)
    bic_by_order = {p + 1: float(v) for p, v in enumerate(path)}
    return VarxModel(
        names, exog_names, order, intercept, endo_coef, exo_coef, resid_cov, residuals,
        intercept_se, endo_se, exo_se, gram_inv, spectral_radius(endo_coef),
        residuals.shape[0], data, exog, bic_by_order[order], bic_by_order,
    )


def fit_var(
    data,
    max_order: int = 4,
    order: int | None = None,
    names: Sequence[str] | None = None,
) -> VarxModel:
    """Fit a VAR by equation-wise least squares: ``varx.fit_varx`` with no
    exogenous columns, so ``exog_names`` is empty and ``exo_coef``,
    ``exo_se`` and ``exog_values`` have no columns.

    ``data`` is a :class:`PanelDataset` or a (T, K) array in time order,
    ``names`` its variable names.  The order is ``order`` if given, else the
    BIC choice in 1..``max_order``.  A singular design at some candidate
    order is a :class:`RankDeficiencyError` naming the collinear columns.
    """
    arr, names = validate_series(data, names, "VAR data")
    return _fit(arr, names, max_order, order, np.empty((len(arr), 0)), ())


def simulate_var(
    intercept: np.ndarray,
    coef: np.ndarray,
    innovations: np.ndarray,
    initial: np.ndarray | None = None,
) -> np.ndarray:
    """Iterate the VAR recursion over given innovation sequences.

    ``innovations`` is one sequence (n, K) or a stack (B, n, K).
    ``intercept`` is the deterministic term, (K,) or one row per innovation
    row (n, K) (intercept plus exogenous part).  ``initial`` holds the
    ``order`` pre-sample rows shared by the stack (zeros when omitted).  The
    result is the whole sample, (order + n, K) or (B, order + n, K): the
    initial rows first, then one row per innovation row.
    """
    p, K, _ = coef.shape
    innovations = np.asarray(innovations, dtype=float)
    single = innovations.ndim == 2
    stack = innovations[None] if single else innovations
    B, n, _ = stack.shape
    deterministic = np.broadcast_to(intercept, (n, K))
    # Transposed views, not copies: the product then takes the same BLAS
    # path as ``x @ coef[lag].T``, and gives the same bits.
    lags = np.swapaxes(coef, 1, 2)
    out = np.empty((B, p + n, K))
    out[:, :p] = 0.0 if initial is None else np.asarray(initial, dtype=float)
    acc, term = np.empty((B, K)), np.empty((B, K))
    for t in range(n):
        acc[...] = deterministic[t]
        for lag in range(p):
            acc += np.matmul(out[:, p + t - 1 - lag], lags[lag], out=term)
        np.add(acc, stack[:, t], out=out[:, p + t])
    return out[0] if single else out
