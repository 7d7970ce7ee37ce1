"""Residual diagnostics for fitted dynamic models.

Serial correlation is checked with a multivariate portmanteau statistic and
conditional heteroskedasticity with per-equation ARCH-LM statistics.  Neither
reference distribution is taken from asymptotic theory.  Both tests calibrate
their null by resampling whole residual rows with replacement, which destroys
serial structure while preserving the cross-sectional covariance, and report
p-values with the add-one adjustment so that zero is never returned.

The resampled replicates are scored a fit block
(:func:`climdemand._rng.replicate_blocks`) at a time, as the causality nulls
are, and ARCH-LM scores each block a factor slice
(:func:`climdemand._rng.factor_slices`) at a time into one design, 0.3 MB
at 12 lags and 386 rows, where all 500 replicates at once took 19 MB per
equation and a fresh design per block and equation 1.2 MB.  Each
replicate's arithmetic is its own, so neither size changes a bit.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ._rng import (
    check_replicates,
    factor_slices,
    mc_p_value,
    replicate_blocks,
    replicate_draws,
)
from .errors import ConfigError, DegenerateInputError, InvalidInputError, integer_problem
from .panel import finite_array

__all__ = [
    "PortmanteauResult",
    "ArchLmResult",
    "portmanteau_test",
    "arch_lm_test",
]


@dataclasses.dataclass(frozen=True)
class PortmanteauResult:
    """Outcome of the serial-correlation test on a residual matrix."""

    statistic: float
    p_value: float
    lags: int
    n_replicates: int


@dataclasses.dataclass(frozen=True)
class ArchLmResult:
    """Per-equation ARCH-LM statistics with a Bonferroni-combined p-value."""

    statistics: np.ndarray
    p_values: np.ndarray
    p_value: float
    lags: int
    n_replicates: int


def _residuals(residuals, lags, rows_per_lag: int, extra_rows: int) -> np.ndarray:
    """Finite, non-empty (T, K) residuals (a 1-D series is one column), with
    ``lags`` an integer >= 1 that leaves T >= rows_per_lag * lags + extra_rows."""
    u = finite_array(residuals, "residuals", ndim=2)
    if u.size == 0:
        raise InvalidInputError("residuals are empty")
    problem = integer_problem(lags, 1)
    if problem is None and len(u) < rows_per_lag * lags + extra_rows:
        problem = (
            f"needs at least {rows_per_lag * lags + extra_rows} residual rows at "
            f"{lags} lags, got {len(u)}"
        )
    if problem:
        raise ConfigError({"lags": problem})
    return u


def _null_statistics(batch, u: np.ndarray, lags: int, n_replicates: int, seed: int, label: str):
    """``batch`` statistics of every row-resampled replicate of ``u``, in
    replicate order, scored a fit block at a time."""
    rows = replicate_draws(seed, label, range(n_replicates), (len(u), None))[0]
    return np.concatenate([batch(u[rows[block]], lags) for block in replicate_blocks(n_replicates)])


def _portmanteau_batch(u: np.ndarray, lags: int) -> np.ndarray:
    """Portmanteau statistics for a (B, T, K) stack of residual matrices."""
    u = u - u.mean(axis=1, keepdims=True)
    n = u.shape[1]
    c0 = np.swapaxes(u, 1, 2) @ u / n
    try:
        c0_inv = np.linalg.inv(c0)
    except np.linalg.LinAlgError:
        raise DegenerateInputError(
            "residual covariance is singular; a residual column is constant"
        ) from None
    stat = np.zeros(u.shape[0])
    for j in range(1, lags + 1):
        cj = np.swapaxes(u[:, j:], 1, 2) @ u[:, : n - j] / n
        stat += np.einsum("bkl,bkl->b", cj, c0_inv @ cj @ c0_inv) / (n - j)
    return n * n * stat


def portmanteau_test(
    residuals, lags: int = 12, n_replicates: int = 500, seed: int = 0
) -> PortmanteauResult:
    """Serial-correlation test with a row-resampled null distribution.

    The statistic is the multivariate portmanteau statistic over
    autocovariances 1..lags, ``T^2 * sum_j tr(C_j' C_0^{-1} C_j C_0^{-1}) /
    (T - j)`` with ``C_j`` the lag-j residual autocovariance.  Large values
    indicate leftover serial correlation.
    """
    u = _residuals(residuals, lags, 1, 2)
    check_replicates(n_replicates, seed)
    observed = float(_portmanteau_batch(u[None, :, :], lags)[0])
    null = _null_statistics(_portmanteau_batch, u, lags, n_replicates, seed, "portmanteau-null")
    return PortmanteauResult(
        statistic=observed,
        p_value=float(mc_p_value(null, observed)),
        lags=lags,
        n_replicates=n_replicates,
    )


def _solve_or_pinv(gram: np.ndarray, moment: np.ndarray) -> np.ndarray:
    """``gram^-1 moment``, or its minimum-norm solution if ``gram`` is singular."""
    try:
        return np.linalg.solve(gram, moment)
    except np.linalg.LinAlgError:
        return np.linalg.pinv(gram) @ moment


def _arch_lm_batch(u: np.ndarray, lags: int) -> np.ndarray:
    """ARCH-LM statistics, shape (B, K), for a (B, T, K) residual stack,
    scored :data:`climdemand._rng.FACTOR_SLICE` replicates at a time into one
    design."""
    n_batch, n_rows, n_eq = u.shape
    n = n_rows - lags
    slices = list(factor_slices(n_batch))
    design = np.empty((slices[0].stop, n, lags + 1))
    design[:, :, 0] = 1.0
    stats = np.empty((n_batch, n_eq))
    for part in slices:
        z = u[part] * u[part]
        x = design[: len(z)]
        for k in range(n_eq):
            zk = z[:, :, k]
            target = zk[:, lags:]
            for j in range(1, lags + 1):
                x[:, :, j] = zk[:, lags - j : n_rows - j]
            gram = x.transpose(0, 2, 1) @ x
            moment = np.einsum("bnq,bn->bq", x, target)
            try:
                beta = np.linalg.solve(gram, moment[:, :, None])[:, :, 0]
            except np.linalg.LinAlgError:
                # Only the singular replicates fall back, so a replicate's
                # statistic does not depend on the others in its stack.
                beta = np.array([_solve_or_pinv(g, m) for g, m in zip(gram, moment)])
            rss = np.einsum("bn,bn->b", target, target) - np.einsum(
                "bq,bq->b", beta, moment
            )
            centered = target - target.mean(axis=1, keepdims=True)
            tss = np.einsum("bn,bn->b", centered, centered)
            # Constant squared residuals carry no ARCH signal at all.
            safe = tss > 0.0
            r_sq = np.zeros(len(z))
            r_sq[safe] = 1.0 - np.clip(rss[safe], 0.0, None) / tss[safe]
            stats[part, k] = n * np.clip(r_sq, 0.0, 1.0)
    return stats


def arch_lm_test(
    residuals, lags: int = 12, n_replicates: int = 500, seed: int = 0
) -> ArchLmResult:
    """Conditional-heteroskedasticity test with a row-resampled null.

    The statistic of each equation is ARCH-LM's n R^2 of its squared
    residuals on their own ``lags`` lags.  Each equation gets its own
    p-value; the combined p-value applies a Bonferroni correction across
    equations, so it stays valid however the equations are correlated.
    """
    u = _residuals(residuals, lags, 2, 3)
    check_replicates(n_replicates, seed)
    observed = _arch_lm_batch(u[None, :, :], lags)[0]
    null = _null_statistics(_arch_lm_batch, u, lags, n_replicates, seed, "arch-null")
    p_values = mc_p_value(null, observed)
    combined = min(1.0, u.shape[1] * float(p_values.min()))
    return ArchLmResult(
        statistics=observed,
        p_values=p_values,
        p_value=combined,
        lags=lags,
        n_replicates=n_replicates,
    )
