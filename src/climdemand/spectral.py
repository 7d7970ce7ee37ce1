"""Frequency-domain Granger causality with bootstrap significance thresholds.

The causality measure at frequency f is the log ratio of the effect
variable's spectral density to the part of it driven by the effect's own
(orthogonalized) innovation.  It is zero at every frequency exactly when the
cause does not enter the effect's equations, and positive otherwise.

Significance is judged against a resampling null: cause and effect are
resampled by independent stationary bootstraps (geometric block lengths,
wrap-around), which preserves each series' own dependence while destroying
any relation between them.  The observed spectrum is replicate zero of its
null: the observed series and every resample go through one stacked
estimator, which gives each sample's order, cross/intrinsic ratio over
frequency and failure code.  Each resample's measure is reduced to the
median across frequencies, and thresholds are quantiles of those medians:
the (1 - alpha) quantile pointwise, and the (1 - 2 alpha / F) quantile for a
familywise (Bonferroni-corrected over the F frequencies) decision.  Both
thresholds are flat lines over frequency.  A replicate whose spectrum fails
is left out of the quantiles and counted in ``n_failed``; the observed
series raise the error for that failure, with the same message.

Both nulls run on the VAR core of :mod:`climdemand.varbase` in fit blocks of
:func:`climdemand._rng.replicate_blocks`, and take their thresholds by
:func:`climdemand._rng.quantile`.  The unconditional null asks
:func:`climdemand._rng.replicate_draws` once for all of its replicates'
index paths and slices them into blocks; the
paths depend only on the seed, the replicate count, the series length and
the block length, so every pair screened with one configuration reuses the
held paths.  Per block it takes one BIC path and one refit, then one
decomposition per lag order present.

For the conditional measure, cause and effect are first projected on the
conditioning series (contemporaneous value and as many lags as the
(effect, conditioning) VAR selected); the unconditional measure of the
projection residuals is the conditional measure.  Null replicates keep the
(effect, conditioning) dynamics via a residual bootstrap of their joint VAR,
simulated one recursion block at a time, and draw the cause independently
by stationary bootstrap; each replicate then goes through the full
conditional estimation path.  Per fit block, one BIC path and one refit of
the stacked (effect, conditioning) pairs give the projection orders, the
replicates of each order are projected by one stacked QR, and their
projection residuals take the unconditional null's path.

Every replicate draws from its own substream ``(seed, label, b)``, so results
do not depend on how replicates are blocked or whether their paths were held
from an earlier pair: outputs are byte-identical either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._rng import quantile, replicate_blocks, replicate_draws, replicate_problems
from .errors import (
    AlignmentError,
    ConfigError,
    DegenerateInputError,
    InsufficientDataError,
    InvalidInputError,
    NumericalError,
    RankDeficiencyError,
    integer_problem,
    real_problem,
)
from .panel import WeeklySeries, finite_array
from .varbase import (
    VarxModel,
    _rank_error,
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


# Why a spectrum fails, by failure code (code 0 is success): the
# decomposition's four ways, a VAR fit with a small pivot, the projection's.
_FAILURES = (
    None,
    (DegenerateInputError, "innovation covariance is singular"),
    (NumericalError, "lag polynomial is non-invertible at some frequency"),
    (NumericalError, "spectral decomposition produced non-finite values"),
    (NumericalError, "effect's own spectral term vanished at some frequency"),
    (RankDeficiencyError, None),
    (DegenerateInputError, "the conditioning series and its lags are collinear"),
    (DegenerateInputError, "cause series is fully explained by the conditioning series"),
    (DegenerateInputError, "effect series is fully explained by the conditioning series"),
)


def _decompose(
    coef: np.ndarray, resid_cov: np.ndarray, frequencies: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cross and intrinsic spectral terms of the effect (variable 1).

    Works on a stack of B bivariate systems: ``coef`` (B, p, 2, 2) and
    ``resid_cov`` (B, 2, 2) give (B, F) terms and a (B,) failure code, an
    index into ``_FAILURES``.  The innovation of the cause
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
        pointwise=float(quantile(medians, 1.0 - cfg.alpha)),
        bonferroni=float(quantile(medians, 1.0 - 2.0 * cfg.alpha / n_frequencies)),
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


def _spectra(
    samples: np.ndarray, max_order: int, frequencies: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """BIC order, cross/intrinsic ratio over frequency (the measure is its
    ``log1p``) and failure code of each (cause, effect) sample of a
    (B, n, 2) stack: BIC order over 1..max_order, refit, decomposition.  A
    failed sample's ratio is NaN, and so is its :func:`_median_measure`."""
    ratio = np.full((len(samples), frequencies.size), np.nan)
    failure = np.full(len(samples), 5)
    path = bic_path(samples, max_order)
    orders = select_order(path)
    fitted = np.flatnonzero(~np.isnan(path).any(axis=1))
    groups, _ = refit(samples[fitted], orders[fitted])
    for fit in groups:
        cross, intrinsic, code = _decompose(
            lag_coefficients(fit.coef, fit.order), fit.resid_cov, frequencies
        )
        rows, ok = fitted[fit.index], code == 0
        failure[rows] = code
        ratio[rows[ok]] = cross[ok] / intrinsic[ok]
    return orders, ratio, failure


def _failure(code: int, sample: np.ndarray, names, max_order: int) -> Exception:
    """The error of failure ``code`` of a spectrum whose VAR is fitted to
    ``sample`` (T, 2), variables called ``names``.  A small pivot is named
    as :func:`fit_var` names it, at the first order whose fit fails: the
    BIC path's first NaN, where ``argmin`` stops, else the BIC order."""
    error, message = _FAILURES[code]
    if message is not None:
        return error(message)
    order = int(select_order(bic_path(sample[None], max_order))[0])
    return _rank_error(sample, names, order, None, ())


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
    for block in replicate_blocks(cfg.n_replicates):
        samples = np.stack([x[causes[block]], y[effects[block]]], axis=2)
        raw[block] = _median_measure(_spectra(samples, cfg.max_var_order, frequencies)[1])
    return _thresholds(raw, cfg, frequencies.size)


def _spectrum_result(
    names, frequencies: np.ndarray, order, ratio: np.ndarray,
    thresholds: BootstrapThresholds, alpha: float,
) -> SpectrumResult:
    """The result of a spectrum from its (cause, effect, conditioning) names,
    the observed order and cross/intrinsic ratio, and the null's
    thresholds."""
    return SpectrumResult(
        *names,
        frequencies=frequencies,
        estimate=np.log1p(ratio),
        threshold_pointwise=thresholds.pointwise,
        threshold_bonferroni=thresholds.bonferroni,
        alpha=alpha,
        n_replicates=int(thresholds.medians.size),
        var_order=int(order),
        n_failed=thresholds.n_failed,
    )


def unconditional_gc_spectrum(
    cause, effect, cfg: GcBootstrapConfig = GcBootstrapConfig(), threads: int = 1
) -> SpectrumResult:
    """Unconditional causality spectrum of cause -> effect with thresholds.

    The series are checked once, for the observed spectrum and the null
    alike; the observed spectrum is the null's :func:`_spectra` of a
    one-sample stack.  ``threads`` is accepted and has no effect.
    """
    x, y, x_name, y_name = _check_pair(cause, effect)
    check_sample_size(x.size, 2, 0, cfg.max_var_order)
    data = np.column_stack([x, y])
    frequencies = fourier_frequencies(x.size)
    orders, ratio, failure = _spectra(data[None], cfg.max_var_order, frequencies)
    if failure[0]:
        raise _failure(failure[0], data, (x_name, y_name), cfg.max_var_order)
    thresholds = _unconditional_thresholds(x, y, cfg)
    return _spectrum_result(
        (x_name, y_name, None), frequencies, orders[0], ratio[0], thresholds, cfg.alpha
    )


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


def _check_triple(cause, effect, conditioning):
    """:func:`_check_pair` of (cause, effect), then of (cause, conditioning)."""
    x, y, x_name, y_name = _check_pair(cause, effect)
    _, w, _, w_name = _check_pair(cause, conditioning, what_effect="conditioning")
    return x, y, w, x_name, y_name, w_name


def _conditional_spectra(
    causes: np.ndarray, pairs: np.ndarray, max_order: int, frequencies: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_spectra`'s outputs, with the projection order, for the
    conditional spectrum of each replicate of a stack: causes (B, n) and
    (effect, conditioning) pairs (B, n, 2).

    Each replicate goes through :func:`_check_triple`'s checks, then one BIC
    path and refit of the stacked pairs give the projection orders, the
    replicates of each order are projected by one stacked QR, and their
    residuals go through :func:`_spectra`.  Code 5 also marks a failed
    (effect, conditioning) fit or a constant series; 6 to 8 a singular
    projection and an explained cause or effect.  Of the other errors the
    checks and fits would raise, the first replicate's is raised.
    """
    B, n = causes.shape
    effects, conditioning = pairs[:, :, 0], pairs[:, :, 1]
    orders = np.zeros(B, dtype=int)
    ratio = np.full((B, frequencies.size), np.nan)
    failure = np.full(B, 5)
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
    orders[live] = select_order(path)
    ranked = live[~np.isnan(path).any(axis=1)]
    _, failed = refit(pairs[ranked], orders[ranked])
    fitted = ranked[~failed]

    for p in sorted(set(orders[fitted].tolist())):
        members = fitted[orders[fitted] == p]
        resid, singular = _project_on_conditioning(
            np.stack([causes[members], effects[members]], axis=2), conditioning[members], p
        )
        # A residual series the conditioning explains is constant, or
        # rounding-small next to the cause's spread.  Each is reduced on its
        # own: over (B, rows, 2), numpy's inner loop runs two entries long.
        cause_sd = np.std(causes[members], axis=1)
        explained = [
            (np.ptp(r, axis=1) == 0.0) | (np.std(r, axis=1) < 1e-12 * np.maximum(1.0, cause_sd))
            for r in (resid[:, :, 0], resid[:, :, 1])
        ]
        code = np.select([singular, *explained], [6, 7, 8], 0)
        failure[members] = code
        rows = members[code == 0]
        if not rows.size:
            continue
        try:
            check_sample_size(n - p, 2, 0, max_order)
        except InsufficientDataError as exc:
            escapes.append((rows[0], exc))
            continue
        _, ratio[rows], failure[rows] = _spectra(resid[code == 0], max_order, frequencies)
    if escapes:
        raise min(escapes, key=lambda escape: escape[0])[1]
    return orders, ratio, failure


def _conditional_thresholds(
    x: np.ndarray, pair_model: VarxModel, cfg: GcBootstrapConfig
) -> BootstrapThresholds:
    """Null thresholds for the conditional measure of a checked cause, given
    the fitted (effect, conditioning) VAR.

    Each replicate regenerates (effect, conditioning) by a residual
    bootstrap of that VAR, resamples the cause by stationary bootstrap and
    takes the observed series' way, a recursion block of pairs simulated
    at a time and scored a fit block at a time.
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
    raw = np.empty(cfg.n_replicates)
    for block in replicate_blocks(cfg.n_replicates, recursion=True):
        # Every replicate starts from the observed first ``order`` weeks.
        pairs = simulate_var(
            pair_model.intercept, pair_model.endo_coef, resid[rows[block]],
            pair_model.endog[:order],
        )
        causes, scored = cause_rows[block], raw[block]
        for part in replicate_blocks(len(pairs)):
            scored[part] = _median_measure(_conditional_spectra(
                x[causes[part]], pairs[part], cfg.max_var_order, frequencies
            )[1])
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
    pairs are simulated :data:`climdemand._rng.RECURSION_BLOCK` replicates
    at a time, so the null's memory does not grow with ``n_replicates``
    beyond its index draws and one median per replicate.  Each recursion
    block is scored in fit blocks (:data:`climdemand._rng.FIT_BLOCK`): one
    BIC path and one refit of the stacked (effect, conditioning) pairs
    select the projection orders, the replicates of each order are
    projected by one stacked QR, and their residuals go through the
    unconditional null's stacked fit and decomposition.  No block size
    changes a bit of the result.  The series are checked and their
    (effect, conditioning) VAR is fitted once, for the observed spectrum
    (:func:`_conditional_spectra` of a one-sample stack) and the null
    alike.  ``threads`` is accepted and has no effect.
    """
    x, y, w, x_name, y_name, w_name = _check_triple(cause, effect, conditioning)
    pair_model = fit_var(
        np.column_stack([y, w]), max_order=cfg.max_var_order, names=(y_name, w_name)
    )
    frequencies = fourier_frequencies(x.size)
    orders, ratio, failure = _conditional_spectra(
        x[None], pair_model.endog[None], cfg.max_var_order, frequencies
    )
    if failure[0]:
        # The projection residuals' VAR names its variables as fit_var
        # names unnamed ones.
        resid, _ = _project_on_conditioning(np.column_stack([x, y])[None], w[None], orders[0])
        raise _failure(failure[0], resid[0], ("y0", "y1"), cfg.max_var_order)
    thresholds = _conditional_thresholds(x, pair_model, cfg)
    return _spectrum_result(
        (x_name, y_name, w_name), frequencies, orders[0], ratio[0], thresholds, cfg.alpha
    )
