"""Frequency-domain Granger causality with bootstrap significance thresholds.

The causality measure at frequency f is the log ratio of the effect
variable's spectral density to the part of it driven by the effect's own
(orthogonalized) innovation.  It is zero at every frequency exactly when the
cause does not enter the effect's equations, and positive otherwise.

Significance is judged against a resampling null: cause and effect are
resampled by independent stationary bootstraps (geometric block lengths,
wrap-around), which preserves each series' own dependence while destroying
any relation between them.  Each resample is pushed through the same
estimation path as the observed data, its measure is reduced to the median
across frequencies, and thresholds are quantiles of those medians: the
(1 - alpha) quantile pointwise, and the (1 - 2 alpha / F) quantile for a
familywise (Bonferroni-corrected over the F frequencies) decision.  Both
thresholds are flat lines over frequency.  A replicate whose fit or
decomposition fails is left out of the quantiles and counted in
``n_failed``.

Both nulls run on the VAR core of :mod:`climdemand.varbase` in blocks of
replicates.  The unconditional null asks :func:`climdemand._rng.replicate_draws`
once for all of its replicates' index paths and slices them into blocks; the
paths depend only on the seed, the replicate count, the series length and
the block length, so every pair screened with one configuration reuses the
held paths.  Per block it takes one BIC path and one refit, then one
decomposition per lag order present.

For the conditional measure, cause and effect are first projected on the
conditioning series (contemporaneous value and as many lags as the
(effect, conditioning) VAR selected); the unconditional measure of the
projection residuals is the conditional measure.  Null replicates keep the
(effect, conditioning) dynamics via a residual bootstrap of their joint VAR,
simulated for all replicates in one call, and draw the cause independently
by stationary bootstrap; each replicate then goes through the full
conditional estimation path.  Per block, one BIC path and one refit of the
stacked (effect, conditioning) pairs give the projection orders, the
replicates of each order are projected by one stacked QR, and their
projection residuals take the unconditional null's path.

Every replicate draws from its own substream ``(seed, label, b)``, so results
do not depend on how replicates are blocked or whether their paths were held
from an earlier pair: outputs are byte-identical either way.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from ._rng import replicate_draws, replicate_problems
from .errors import (
    AlignmentError,
    ConfigError,
    DegenerateInputError,
    InsufficientDataError,
    InvalidInputError,
    NumericalError,
    ShapeError,
    integer_problem,
    real_problem,
)
from .panel import WeeklySeries, finite_array
from .varbase import (
    VarxModel,
    bic_path,
    check_sample_size,
    fit_var,
    lag_coefficients,
    lag_design,
    least_squares,
    refit,
    select_order,
    simulate_var,
)


# Null replicates fit together.  Smaller than the VARX bootstrap's block:
# with 128 replicates (a 3.6 MB design per block) the unconditional null,
# which runs early in the pipeline, raised the default pipeline's peak RSS
# by about 6 MB (glibc on Linux x86-64); 32 kept it level and cost the null
# 4% more time.
_NULL_BLOCK = 32


@dataclass(frozen=True)
class GcBootstrapConfig:
    """Settings for the bootstrap significance thresholds.

    ``expected_block_length`` of ``None`` defaults to ``ceil(T ** (1/3))``
    for a series of length T.
    """

    n_replicates: int = 1000
    alpha: float = 0.05
    expected_block_length: float | None = None
    max_var_order: int = 4
    seed: int = 0

    def __post_init__(self):
        problems = replicate_problems(self.n_replicates, self.seed)
        if problem := real_problem(self.alpha, "(0, 0.5]"):
            problems["alpha"] = problem
        block = self.expected_block_length
        if block is not None and (problem := real_problem(block, "[1, inf)")):
            problems["expected_block_length"] = problem
        if problem := integer_problem(self.max_var_order, 1):
            problems["max_var_order"] = problem
        if problems:
            raise ConfigError(problems)

    def block_length(self, n: int) -> float:
        if self.expected_block_length is not None:
            return float(self.expected_block_length)
        return float(math.ceil(n ** (1.0 / 3.0)))


@dataclass
class SpectralDecomposition:
    """Split of the effect's spectral density at each frequency.

    ``total = intrinsic + cross`` where ``intrinsic`` is the contribution of
    the effect's own orthogonalized innovation and ``cross`` the part routed
    through the cause's innovation.  The causality measure is
    ``log(total / intrinsic)``.  For a conditional decomposition (of the
    projection residuals) ``projection_order`` is the projection's lag
    order; it is ``None`` otherwise.
    """

    frequencies: np.ndarray
    total: np.ndarray
    intrinsic: np.ndarray
    cross: np.ndarray
    projection_order: int | None = None

    @property
    def measure(self) -> np.ndarray:
        return np.log1p(self.cross / self.intrinsic)


@dataclass
class SpectrumResult:
    """Causality spectrum with its bootstrap decision thresholds.

    ``n_replicates`` null replicates set the thresholds; ``n_failed`` more
    were drawn but failed to fit or decompose.
    """

    cause_name: str
    effect_name: str
    conditioning_name: str | None
    frequencies: np.ndarray
    estimate: np.ndarray
    threshold_pointwise: float
    threshold_bonferroni: float
    alpha: float
    n_replicates: int
    var_order: int
    n_failed: int

    @property
    def significant_pointwise(self) -> np.ndarray:
        return self.estimate > self.threshold_pointwise

    @property
    def significant_bonferroni(self) -> np.ndarray:
        return self.estimate > self.threshold_bonferroni


def _check_pair(cause, effect, what_cause="cause", what_effect="effect"):
    x, y = finite_array(cause, what_cause), finite_array(effect, what_effect)
    x_name = cause.name if isinstance(cause, WeeklySeries) else what_cause
    y_name = effect.name if isinstance(effect, WeeklySeries) else what_effect
    if x.size != y.size:
        raise AlignmentError(
            f"series lengths differ: {x_name} has {x.size}, {y_name} has {y.size}"
        )
    if (
        isinstance(cause, WeeklySeries)
        and isinstance(effect, WeeklySeries)
        and cause.week_starts != effect.week_starts
    ):
        raise AlignmentError(f"{x_name} and {y_name} are on different week axes")
    for arr, name in ((x, x_name), (y, y_name)):
        if np.ptp(arr) == 0.0:
            raise DegenerateInputError(f"series {name!r} has zero variance")
    return x, y, x_name, y_name


def fourier_frequencies(n: int) -> np.ndarray:
    """Evaluation grid i/n for i = 1..floor(n/2), in cycles per week."""
    return np.arange(1, n // 2 + 1) / float(n)


# Why a decomposition fails, by failure code (code 0 is success).
_DECOMPOSITION_FAILURES = (
    None,
    (DegenerateInputError, "innovation covariance is singular"),
    (NumericalError, "lag polynomial is non-invertible at some frequency"),
    (NumericalError, "spectral decomposition produced non-finite values"),
    (NumericalError, "effect's own spectral term vanished at some frequency"),
)


def _decompose(
    coef: np.ndarray, resid_cov: np.ndarray, frequencies: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cross and intrinsic spectral terms of the effect (variable 1).

    Works on a stack of B bivariate systems: ``coef`` (B, p, 2, 2) and
    ``resid_cov`` (B, 2, 2) give (B, F) terms and a (B,) failure code, an
    index into ``_DECOMPOSITION_FAILURES``.  The innovation of the cause
    (variable 0) is orthogonalized against the effect's innovation, so the
    effect's own term keeps variance s22 and the cross term carries the
    residual cause variance s11 - s12^2 / s22.

    All arithmetic is real.  The real and imaginary parts of the lag
    polynomial ``L = I - sum_l A_l exp(-2 pi i f l)`` come from one product
    of the coefficients with a (p, 2F) cosine and sine table.  The effect's
    transfer terms are ``-L10 / det L`` (cause) and ``(L00 - L10 s12 / s22)
    / det L`` (own, rotated), so their squared moduli are squared moduli of
    the numerators over ``|det L|^2``, and no complex number is divided.
    The determinant test ``|det L| < 1e-14`` is ``|det L|^2 < 1e-28`` at
    any frequency.  A system whose polynomial entries exceed about 1e154,
    where their squares overflow, fails with code 3 unless that test holds.
    """
    B, p = coef.shape[:2]
    s11 = resid_cov[:, 0, 0, None]
    s12 = resid_cov[:, 0, 1, None]
    s22 = resid_cov[:, 1, 1, None]
    angle = np.outer(np.arange(1, p + 1), 2.0 * np.pi * frequencies)
    # Row (b, i, j) of the terms holds A_1..A_p's entry (i, j) of system b.
    terms = np.ascontiguousarray(coef.transpose(0, 2, 3, 1)).reshape(4 * B, p)
    # Failed systems divide by zero or overflow; their codes say so.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        poly = terms @ np.hstack([-np.cos(angle), np.sin(angle)])
        real, imag = poly.reshape(B, 2, 2, 2, -1).transpose(3, 1, 2, 0, 4)
        real[0, 0] += 1.0
        real[1, 1] += 1.0
        (r00, r01), (r10, r11) = real
        (i00, i01), (i10, i11) = imag
        det_real = r00 * r11 - i00 * i11 - (r01 * r10 - i01 * i10)
        det_imag = r00 * i11 + i00 * r11 - (r01 * i10 + i01 * r10)
        det_sq = det_real**2 + det_imag**2
        rotation = s12 / s22
        cross = (s11 - s12 * s12 / s22) * (r10**2 + i10**2) / det_sq
        intrinsic = s22 * ((r00 - rotation * r10) ** 2 + (i00 - rotation * i10) ** 2) / det_sq
        failure = np.select(
            [
                (s22[:, 0] <= 0.0) | (s11[:, 0] <= 0.0),
                np.any(det_sq < 1e-28, axis=1),
                ~(np.isfinite(cross).all(axis=1) & np.isfinite(intrinsic).all(axis=1)),
                np.any(intrinsic <= 0.0, axis=1),
            ],
            [1, 2, 3, 4],
            0,
        )
    return cross, intrinsic, failure


def spectral_decomposition(model: VarxModel, frequencies: np.ndarray) -> SpectralDecomposition:
    """Decompose a fitted bivariate VAR (cause first, effect second)."""
    if model.n_variables != 2:
        raise ShapeError("spectral decomposition requires a bivariate model")
    cross, intrinsic, failure = _decompose(
        model.endo_coef[None], model.resid_cov[None], frequencies
    )
    if failure[0]:
        error, message = _DECOMPOSITION_FAILURES[failure[0]]
        raise error(message)
    return SpectralDecomposition(
        frequencies=np.asarray(frequencies, dtype=float),
        total=cross[0] + intrinsic[0],
        intrinsic=intrinsic[0],
        cross=cross[0],
    )


@dataclass
class BootstrapThresholds:
    """Null-median distribution and the two decision quantiles drawn from it."""

    pointwise: float
    bonferroni: float
    medians: np.ndarray
    n_failed: int


def _thresholds(raw: np.ndarray, cfg: GcBootstrapConfig, n_frequencies: int) -> BootstrapThresholds:
    """Decision quantiles of the finite replicate medians; NaN ones failed."""
    medians = raw[np.isfinite(raw)]
    n_failed = int(raw.size - medians.size)
    if medians.size < max(50, cfg.n_replicates // 2):
        raise NumericalError(
            f"too many bootstrap replicates failed ({n_failed} of {raw.size})"
        )
    return BootstrapThresholds(
        pointwise=float(np.quantile(medians, 1.0 - cfg.alpha)),
        bonferroni=float(np.quantile(medians, 1.0 - 2.0 * cfg.alpha / n_frequencies)),
        medians=medians,
        n_failed=n_failed,
    )


def _median_measure(ratio: np.ndarray) -> np.ndarray:
    """``np.median(np.log1p(ratio), axis=1)``, bit for bit, from the middle
    entries alone: ``log1p`` is monotone, so it is taken of the one or two
    entries that a partial sort puts in the middle, and two are averaged as
    :func:`numpy.median` averages them."""
    F = ratio.shape[1]
    middle = slice((F - 1) // 2, F // 2 + 1)
    kth = [middle.start, middle.stop - 1]
    return np.log1p(np.partition(ratio, kth, axis=1)[:, middle]).mean(axis=1)


def _null_medians(samples: np.ndarray, max_order: int, frequencies: np.ndarray) -> np.ndarray:
    """Median causality measure of each (cause, effect) sample of a stack.

    Each sample goes the observed data's way: BIC order over 1..max_order,
    refit, decomposition.  A sample is NaN where :func:`fit_var` would raise
    :class:`RankDeficiencyError` or the decomposition fails.
    """
    medians = np.full(len(samples), np.nan)
    path = bic_path(samples, max_order)
    fitted = np.flatnonzero(~np.isnan(path).any(axis=1))
    groups, _ = refit(samples[fitted], select_order(path[fitted]))
    for fit in groups:
        cross, intrinsic, failure = _decompose(
            lag_coefficients(fit.coef, fit.order), fit.resid_cov, frequencies
        )
        ok = failure == 0
        medians[fitted[fit.index[ok]]] = _median_measure(cross[ok] / intrinsic[ok])
    return medians


def _unconditional_thresholds(
    x: np.ndarray, y: np.ndarray, cfg: GcBootstrapConfig
) -> BootstrapThresholds:
    """Null thresholds for the unconditional measure of checked series long
    enough for ``cfg.max_var_order``.

    Each replicate resamples cause and effect independently (stationary
    bootstrap), refits the VAR with the same BIC selection, and records the
    median measure across frequencies, as batched array arithmetic.
    """
    n = x.size
    frequencies = fourier_frequencies(n)
    block = cfg.block_length(n)
    causes, effects = replicate_draws(
        cfg.seed, "gc-unconditional", range(cfg.n_replicates), (n, block), (n, block)
    )
    raw = np.empty(cfg.n_replicates)
    for start in range(0, cfg.n_replicates, _NULL_BLOCK):
        stop = min(start + _NULL_BLOCK, cfg.n_replicates)
        samples = np.stack([x[causes[start:stop]], y[effects[start:stop]]], axis=2)
        raw[start:stop] = _null_medians(samples, cfg.max_var_order, frequencies)
    return _thresholds(raw, cfg, frequencies.size)


def _spectrum_result(
    names, observed: SpectralDecomposition, var_order: int, thresholds: BootstrapThresholds,
    alpha: float,
) -> SpectrumResult:
    """The result of a spectrum from its (cause, effect, conditioning) names,
    the observed decomposition and the null's thresholds."""
    return SpectrumResult(
        *names,
        frequencies=observed.frequencies,
        estimate=observed.measure,
        threshold_pointwise=thresholds.pointwise,
        threshold_bonferroni=thresholds.bonferroni,
        alpha=alpha,
        n_replicates=int(thresholds.medians.size),
        var_order=var_order,
        n_failed=thresholds.n_failed,
    )


def unconditional_gc_spectrum(
    cause, effect, cfg: GcBootstrapConfig = GcBootstrapConfig(), threads: int = 1
) -> SpectrumResult:
    """Unconditional causality spectrum of cause -> effect with thresholds.

    The series are checked once, for the observed fit and the null alike.
    ``threads`` is accepted and has no effect.
    """
    x, y, x_name, y_name = _check_pair(cause, effect)
    model = fit_var(np.column_stack([x, y]), max_order=cfg.max_var_order, names=(x_name, y_name))
    observed = spectral_decomposition(model, fourier_frequencies(x.size))
    thresholds = _unconditional_thresholds(x, y, cfg)
    return _spectrum_result((x_name, y_name, None), observed, model.order, thresholds, cfg.alpha)


def _project_on_conditioning(
    series: np.ndarray, conditioning: np.ndarray, order: int
) -> tuple[np.ndarray, np.ndarray]:
    """Residuals of series (B, n, S) regressed on [1, w_t, w_{t-1}, ...,
    w_{t-order}] of their conditioning series (B, n), over t = order..n-1,
    by one stacked QR; and the (B,) mask of singular designs."""
    target, design = lag_design(conditioning[:, :, None], order)
    matrix = np.concatenate([design, target, series[:, order:]], axis=2)
    coef, _, _, failed = least_squares(matrix, 2 + order)
    return matrix[:, :, 2 + order :] - matrix[:, :, : 2 + order] @ coef, failed


def _explained(resid: np.ndarray, cause_sd) -> np.ndarray:
    """Whether projection residuals (..., rows) are fully explained by the
    conditioning series; ``cause_sd`` is the standard deviation of the
    cause series they belong to."""
    return (np.ptp(resid, axis=-1) == 0.0) | (
        np.std(resid, axis=-1) < 1e-12 * np.maximum(1.0, cause_sd)
    )


def _check_triple(cause, effect, conditioning):
    """:func:`_check_pair` of (cause, effect), then of (cause, conditioning)."""
    x, y, x_name, y_name = _check_pair(cause, effect)
    _, w, _, w_name = _check_pair(cause, conditioning, what_effect="conditioning")
    return x, y, w, x_name, y_name, w_name


def _observed_conditional(
    x: np.ndarray, y: np.ndarray, w: np.ndarray, pair_model: VarxModel, max_order: int
) -> SpectralDecomposition:
    """Decomposition of the cause/effect projection residuals of checked
    series, given their fitted (effect, conditioning) VAR, whose BIC order
    is the projection's; frequencies stay on the original i/T grid."""
    frequencies = fourier_frequencies(x.size)
    order = pair_model.order
    resid, singular = _project_on_conditioning(np.column_stack([x, y])[None], w[None], order)
    if singular[0]:
        raise DegenerateInputError("the conditioning series and its lags are collinear")
    for k, name in enumerate(("cause", "effect")):
        if _explained(resid[0, :, k], np.std(x)):
            raise DegenerateInputError(
                f"{name} series is fully explained by the conditioning series"
            )
    model = fit_var(resid[0], max_order=max_order)
    return dataclasses.replace(
        spectral_decomposition(model, frequencies), projection_order=order
    )


def _conditional_null_medians(
    causes: np.ndarray, pairs: np.ndarray, max_order: int, frequencies: np.ndarray
) -> np.ndarray:
    """Median conditional measure of each replicate of a stack: causes
    (B, n) and (effect, conditioning) pairs (B, n, 2).

    Each replicate goes the observed series' way (:func:`_check_triple`,
    the (effect, conditioning) fit, :func:`_observed_conditional`): one BIC
    path and refit over the stacked pairs give the projection orders, and
    the projection residuals of each order go through :func:`_null_medians`.
    A replicate is NaN where that way would raise
    :class:`RankDeficiencyError`, :class:`NumericalError` or
    :class:`DegenerateInputError`; of the other errors it would raise, the
    one of the first such replicate is raised.
    """
    B, n = causes.shape
    effects, conditioning = pairs[:, :, 0], pairs[:, :, 1]
    medians = np.full(B, np.nan)
    escapes: list[tuple[int, Exception]] = []
    # _check_triple checks the effect's values, the cause's and
    # the effect's spread, then the conditioning's values and spread.
    finite_effect = np.isfinite(effects).all(axis=1)
    finite_conditioning = np.isfinite(conditioning).all(axis=1)
    with np.errstate(invalid="ignore"):
        varies = [np.ptp(a, axis=1) != 0.0 for a in (causes, effects, conditioning)]
    pair_varies = finite_effect & varies[0] & varies[1]
    for bad, what in (
        (~finite_effect, "effect"),
        (pair_varies & ~finite_conditioning, "conditioning"),
    ):
        if bad.any():
            escapes.append((np.argmax(bad), InvalidInputError(f"{what} must be finite")))
    live = np.flatnonzero(pair_varies & finite_conditioning & varies[2])

    path = bic_path(pairs[live], max_order)
    ranked = ~np.isnan(path).any(axis=1)
    orders = select_order(path[ranked])
    _, failed = refit(pairs[live[ranked]], orders)
    fitted, orders = live[ranked][~failed], orders[~failed]

    for p in sorted(set(orders.tolist())):
        members = fitted[orders == p]
        resid, singular = _project_on_conditioning(
            np.stack([causes[members], effects[members]], axis=2), conditioning[members], p
        )
        cause_sd = np.std(causes[members], axis=1)
        explained = singular | _explained(resid[:, :, 0], cause_sd) | _explained(
            resid[:, :, 1], cause_sd
        )
        kept = members[~explained]
        if not kept.size:
            continue
        try:
            check_sample_size(n - p, 2, 0, max_order)
        except InsufficientDataError as exc:
            escapes.append((kept[0], exc))
            continue
        medians[kept] = _null_medians(resid[~explained], max_order, frequencies)
    if escapes:
        raise min(escapes, key=lambda escape: escape[0])[1]
    return medians


def _conditional_thresholds(
    x: np.ndarray, pair_model: VarxModel, cfg: GcBootstrapConfig
) -> BootstrapThresholds:
    """Null thresholds for the conditional measure of a checked cause, given
    the fitted (effect, conditioning) VAR.

    Each replicate regenerates (effect, conditioning) by a residual
    bootstrap of that VAR, resamples the cause by stationary bootstrap and
    takes the observed series' way, batched per block of replicates.
    """
    n = x.size
    frequencies = fourier_frequencies(n)
    order = pair_model.order
    resid = pair_model.residuals - pair_model.residuals.mean(axis=0)
    m = resid.shape[0]
    block = cfg.block_length(n)
    rows, cause_rows = replicate_draws(
        cfg.seed, "gc-conditional", range(cfg.n_replicates), (m, None), (n, block)
    )
    # Every replicate starts from the observed first ``order`` weeks.
    pairs = simulate_var(
        pair_model.intercept, pair_model.endo_coef, resid[rows], pair_model.endog[:order]
    )
    raw = np.empty(cfg.n_replicates)
    for start in range(0, cfg.n_replicates, _NULL_BLOCK):
        stop = min(start + _NULL_BLOCK, cfg.n_replicates)
        raw[start:stop] = _conditional_null_medians(
            x[cause_rows[start:stop]], pairs[start:stop], cfg.max_var_order, frequencies
        )
    return _thresholds(raw, cfg, frequencies.size)


def conditional_gc_spectrum(
    cause,
    effect,
    conditioning,
    cfg: GcBootstrapConfig = GcBootstrapConfig(),
    threads: int = 1,
) -> SpectrumResult:
    """Conditional causality spectrum of cause -> effect given conditioning.

    Null replicates regenerate (effect, conditioning) by a residual bootstrap
    of their joint VAR (keeping their dynamics and mutual dependence) while
    the cause is resampled independently by stationary bootstrap; every
    replicate then goes through the full conditional estimation path.  The
    replicates run in blocks of ``_NULL_BLOCK``: per block, one BIC path and
    one refit of the stacked (effect, conditioning) pairs select the
    projection orders, the replicates of each order are projected by one
    stacked QR, and their residuals go through the unconditional null's
    stacked fit and decomposition.  The series are checked and their
    (effect, conditioning) VAR is fitted once, for the observed
    decomposition and the null alike.  ``threads`` is accepted and has no
    effect.
    """
    x, y, w, x_name, y_name, w_name = _check_triple(cause, effect, conditioning)
    pair_model = fit_var(
        np.column_stack([y, w]), max_order=cfg.max_var_order, names=(y_name, w_name)
    )
    observed = _observed_conditional(x, y, w, pair_model, cfg.max_var_order)
    thresholds = _conditional_thresholds(x, pair_model, cfg)
    return _spectrum_result(
        (x_name, y_name, w_name), observed, observed.projection_order, thresholds, cfg.alpha
    )
