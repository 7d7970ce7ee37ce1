"""Exact lasso on covariance statistics, shared by the trend and the sparse VAR.

Both penalized fits reduce to the lasso in covariance form

    minimize over b:  0.5 * b' G b - m' b + lam * ||b||_1

with ``G = X'X / n`` and ``m = X'y / n``; up to the constant ``y'y / 2n``
this is ``(1 / 2n) * ||y - X b||^2 + lam * ||b||_1``.  The solver follows the
solution path from ``lam_max = max_j |m_j|``, where every coefficient is
zero, down a non-increasing sequence of penalties with the homotopy method
(Osborne, Presnell & Turlach 2000; LARS with the lasso modification, Efron
et al. 2004).  Between two events the active coefficients move linearly; a
step ends where an inactive column's correlation reaches the penalty (it
joins) or an active coefficient reaches zero (it leaves).  Columns whose
events tie join or leave together.  The path is followed once, down to the
smallest penalty, and read off at each penalty a step passes: there the
KKT system is solved once more, exactly, on the step's active set, as a
path followed to that penalty alone would end.  A descending grid of
penalties is the usual way to choose one (Friedman, Hastie & Tibshirani
2010); :func:`solve_lasso` is the one-penalty case.

Each penalty's result is certified by the Fenchel duality gap against
``tol * max(1, y'y / n)``.  When the path cannot be followed to the end (a
singular active Gram matrix, e.g. from duplicated columns) or its point
misses the tolerance, cyclic coordinate descent continues from the path's
point until the gap is certified; on a well-posed problem it runs no sweep.
The path steps to a penalty and its descent sweeps share one iteration
budget.  Zero penalty is least squares.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError, InvalidInputError

# Events whose step lengths agree to this relative precision happen together.
_TIE = 1e-10


def _soft_threshold(value: float, threshold: float) -> float:
    if value > threshold:
        return value - threshold
    if value < -threshold:
        return value + threshold
    return 0.0


def _duality_gap(
    gram: np.ndarray,
    moment: np.ndarray,
    y_sq_mean: float,
    lam: float,
    beta: np.ndarray,
    gram_beta: np.ndarray,
) -> float:
    # primal
    resid_sq_mean = y_sq_mean - 2.0 * moment @ beta + beta @ gram_beta
    resid_sq_mean = max(resid_sq_mean, 0.0)
    primal = 0.5 * resid_sq_mean + lam * np.abs(beta).sum()
    # dual candidate: rescale r/n into the feasible set ||X'theta||_inf <= lam
    corr = moment - gram_beta
    corr_max = np.max(np.abs(corr)) if moment.size else 0.0
    shrink = 1.0 if corr_max <= lam or corr_max == 0.0 else lam / corr_max
    dual = shrink * (y_sq_mean - moment @ beta) - 0.5 * shrink**2 * resid_sq_mean
    return primal - dual


def _out_of_budget(max_iter: int, gap: float) -> ConvergenceError:
    return ConvergenceError(
        f"lasso solver did not converge in {max_iter} iterations", gap=float(gap)
    )


def _solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``np.linalg.solve``, NaN where the matrix is singular."""
    try:
        return np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError:
        return np.full(rhs.shape, np.nan)


def _homotopy(gram: np.ndarray, moment: np.ndarray, y_sq_mean: float, lams: list[float],
              max_iter: int) -> list[tuple[np.ndarray, int] | ConvergenceError]:
    """Follow the lasso path from ``lam_max`` once, down through the
    positive, non-increasing penalties ``lams``.

    Returns, per penalty, the path's point there and the number of steps
    taken to reach it.  The point is the exact active-set solution at the
    penalty, or the last point reached when the active Gram matrix turned
    singular.  A penalty that ``max_iter`` steps do not reach gets the
    :class:`ConvergenceError` carrying the gap there instead.  Only event
    steps (a column joins or leaves) advance the path, and a penalty that
    falls inside a step is read off a copy, so each penalty's result is
    that of a path followed to it alone.
    """
    q = moment.size
    beta = np.zeros(q)
    usable = np.diag(gram) > 0.0
    corr = np.where(usable, moment, 0.0)
    level = float(np.max(np.abs(corr))) if q else 0.0
    points = [(np.zeros(q), 0) for lam in lams if level <= lam]
    active = usable & (np.abs(corr) >= level * (1.0 - _TIE))
    signs = np.where(active, np.sign(corr), 0.0)
    free = usable & ~active
    steps = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        while len(points) < len(lams):
            pending = lams[len(points):]
            if steps >= max_iter:
                gram_beta = gram @ beta
                gaps = [_duality_gap(gram, moment, y_sq_mean, lam, beta, gram_beta)
                        for lam in pending]
                return points + [_out_of_budget(max_iter, gap) for gap in gaps]
            steps += 1
            idx = np.flatnonzero(active)
            rows = gram[idx]
            active_gram = rows[:, idx]
            direction = _solve(active_gram, signs[idx])
            if not np.isfinite(direction).all():
                return points + [(beta.copy(), steps) for _ in pending]
            # Along the step gamma, free correlations move as
            # corr - gamma * slope and active ones as +-(level - gamma).
            slope = direction @ rows
            up = (level - corr) / (1.0 - slope)
            down = (level + corr) / (1.0 + slope)
            up[~(free & (up > 0.0))] = np.inf
            down[~(free & (down > 0.0))] = np.inf
            join = np.minimum(up, down)
            leave = -beta[idx] / direction
            leave[~(leave > 0.0)] = np.inf
            event = min(join.min(initial=np.inf), leave.min(initial=np.inf))
            for lam in pending:
                to_end = level - lam
                if to_end > event:
                    break
                # The penalty is reached inside this step: the stepped point,
                # replaced by the exact KKT solve on the active set.
                point = beta.copy()
                point[idx] += to_end * direction
                exact = _solve(active_gram, moment[idx] - lam * signs[idx])
                if np.isfinite(exact).all():
                    point = np.zeros(q)
                    point[idx] = exact
                points.append((point, steps))
            if len(points) == len(lams):
                break
            beta[idx] += event * direction
            level -= event
            corr = moment - gram @ beta
            joined = join <= event * (1.0 + _TIE)
            dropped = idx[leave <= event * (1.0 + _TIE)]
            signs[joined] = np.where(up[joined] <= down[joined], 1.0, -1.0)
            active[joined] = True
            active[dropped] = False
            beta[dropped] = 0.0
            signs[dropped] = 0.0
            # A column that just left may not rejoin on the next step.
            free = usable & ~active
            free[dropped] = False
    return points


def _descend(gram: np.ndarray, moment: np.ndarray, y_sq_mean: float, lam: float, tol: float,
             max_iter: int, beta: np.ndarray, iterations: int):
    """Coordinate descent from a path point until the gap is certified:
    (coefficients, gap, iterations), or the :class:`ConvergenceError` once
    ``max_iter`` iterations are spent."""
    gram_beta = gram @ beta
    diag = np.diag(gram).copy()
    updatable = diag > 0.0
    scale = max(1.0, y_sq_mean)
    gap = _duality_gap(gram, moment, y_sq_mean, lam, beta, gram_beta)
    while gap > tol * scale:
        if iterations >= max_iter:
            return _out_of_budget(max_iter, gap)
        for j in range(moment.size):
            if not updatable[j]:
                continue
            rho = moment[j] - gram_beta[j] + diag[j] * beta[j]
            new = _soft_threshold(rho, lam) / diag[j]
            delta = new - beta[j]
            if delta != 0.0:
                gram_beta += gram[:, j] * delta
                beta[j] = new
        iterations += 1
        gap = _duality_gap(gram, moment, y_sq_mean, lam, beta, gram_beta)
    return beta, float(gap), iterations


def lasso_path(gram: np.ndarray, moment: np.ndarray, y_sq_mean: float, lams, tol: float,
               max_iter: int) -> list[tuple[np.ndarray, float, int] | ConvergenceError]:
    """Lasso at every penalty of the non-increasing sequence ``lams`` on
    one set of covariance statistics, from one homotopy path.

    Each penalty gets what :func:`solve_lasso` gives for it alone: the
    tuple (coefficients, final duality gap, iterations used), or the
    :class:`ConvergenceError` it would raise, returned in the tuple's place
    so the caller chooses which error surfaces first.
    """
    if any(a < b for a, b in zip(lams, lams[1:])):
        raise InvalidInputError(f"penalties must be non-increasing, got {lams!r}")
    points = iter(_homotopy(gram, moment, y_sq_mean, [lam for lam in lams if lam != 0.0],
                            max_iter))
    results = []
    for lam in lams:
        if lam == 0.0:
            # The unpenalized problem is plain least squares; the duality gap
            # degenerates there (the feasible dual set is X'theta = 0), so
            # solve the normal equations directly instead of iterating.
            beta, *_ = np.linalg.lstsq(gram, moment, rcond=None)
            results.append((beta, 0.0, 0))
        elif isinstance(point := next(points), ConvergenceError):
            results.append(point)
        else:
            results.append(_descend(gram, moment, y_sq_mean, lam, tol, max_iter, *point))
    return results


def solve_lasso(
    gram: np.ndarray,
    moment: np.ndarray,
    y_sq_mean: float,
    lam: float,
    tol: float,
    max_iter: int,
) -> tuple[np.ndarray, float, int]:
    """Lasso on precomputed covariance statistics: :func:`lasso_path` at
    the one penalty ``lam``.

    ``gram = X'X / n``, ``moment = X'y / n``, ``y_sq_mean = y'y / n``.
    Returns (coefficients, final duality gap, iterations used), where the
    iterations count path steps plus descent sweeps.  Raises
    :class:`ConvergenceError`, carrying the current gap, when ``max_iter``
    iterations do not certify the gap below ``tol * max(1, y_sq_mean)``.
    Columns with a zero diagonal keep a zero coefficient.
    """
    (result,) = lasso_path(gram, moment, y_sq_mean, (lam,), tol, max_iter)
    if isinstance(result, ConvergenceError):
        raise result
    return result
