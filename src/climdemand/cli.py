"""Command-line front end: orchestration, seeding, and report emission.

Every subcommand reads inputs from explicit paths, writes its outputs
atomically (temp file + rename) under ``--out-dir``, and records the resolved
parameters plus the master seed in ``<command>_manifest.json`` so any
stochastic run can be reproduced from that file alone.  Failures exit nonzero
and print a single JSON object to stderr; configuration problems list every
violated field at once.

One table, ``_OPTIONS``, declares every option; the flags, the configuration
file keys and the manifest's ``parameters`` all derive from it.  Options may
also come from a configuration file (``--config``)::

    [run]
    seed = 7
    out_dir = results

    [gc]
    replicates = 1000
    alpha = 0.05

The format is flat ``key = value`` pairs named like the long options with
underscores (``evaluate``'s ``--forecast`` is the key ``forecasts``), under a
section per subcommand plus ``[run]``.  An option is its flag, else its key
in the subcommand's section, else in ``[run]`` (a fallback for every key),
else its default; required options may come from the file too.  Unknown
sections and keys are errors; environment variables are never consulted.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import itertools
import json
import os
import sys
from typing import Iterator

import numpy as np

from ._rng import MIN_REPLICATES, replicate_draws
from .errors import (
    AlignmentError,
    ConfigError,
    FileAccessError,
    InsufficientDataError,
    InvalidInputError,
    ToolkitError,
    UnknownColumnError,
    integer_problem,
)
from .features import NATIONAL_CLIMATE_COLUMNS, FeatureConfig, aggregate_weekly_national
from .forest import (
    ForestConfig,
    SupervisedDataset,
    impurity_importance,
    lagged_design_matrix,
    lagged_feature_rows,
    oob_metrics,
    predict,
    train_forest,
)
from .hpfilter import hp_cycle, seasonal_adjust
from .metrics import (
    METRIC_COLUMNS,
    MetricReport,
    compare_models,
    evaluate_forecast,
)
from .panel import (
    PanelDataset,
    TextLines,
    _atomic_write_text,
    format_float,
    quote_cell,
    read_daily_csv,
    read_panel_csv,
    write_daily_csv,
    write_panel_csv,
)
from .sparsevar import coefficient_table, fit_lasso_var, select_lambda
from .spectral import GcBootstrapConfig, conditional_gc_spectrum, unconditional_gc_spectrum
from .synth import SynthConfig, generate_synthetic_daily, synthetic_panel_from_daily
from .trend import TrendModel, fit_trend_model, fitted_values, seasonal_shortfall
from .trend import forecast as trend_forecast
from .varx import build_exogenous, fevd, fit_varx, forecast_recursive, irf, residual_bootstrap

@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Resolved invocation: what ran, where it wrote, and its seed."""

    command: str
    out_dir: str
    seed: int
    parameters: dict

    def manifest(self) -> dict:
        # (command, parameters, seed) must be sufficient to reproduce the
        # files byte for byte.
        return {
            "command": self.command,
            "seed": self.seed,
            "parameters": self.parameters,
        }


# ---------------------------------------------------------------------------
# small emission helpers


def _out_path(run: RunConfig, name: str) -> str:
    os.makedirs(run.out_dir, exist_ok=True)
    return os.path.join(run.out_dir, name)


def _format_cell(value) -> str:
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if isinstance(value, str):
        return quote_cell(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format_float(float(value))


def _csv_lines(header: tuple[str, ...], rows: list) -> Iterator[str]:
    for row in itertools.chain([header], rows):
        yield ",".join(map(_format_cell, row))


def _write_csv(path: str, header: tuple[str, ...], rows) -> None:
    # The rows are kept so the text can be made again (TextLines.encode).
    _atomic_write_text(path, TextLines(_csv_lines, header, list(rows)))


def _write_json(path: str, payload: dict) -> None:
    _atomic_write_text(path, TextLines(lambda: [json.dumps(payload, indent=2, sort_keys=True)]))


def _write_manifest(run: RunConfig) -> None:
    _write_json(_out_path(run, f"{run.command}_manifest.json"), run.manifest())


def _require_columns(panel: PanelDataset, names) -> None:
    missing = [n for n in names if n not in panel.column_names]
    if missing:
        raise UnknownColumnError(missing, panel.column_names)


def _require_drivers(panel: PanelDataset, model_name: str, target: str,
                     drivers: tuple[str, ...]) -> None:
    """The target and drivers of ``fit`` and ``forecast``, whatever the model:
    panel columns, and each driver named once and other than the target.
    The VARX needs at least one driver; trend and forest need none."""
    if model_name == "varx" and not drivers:
        raise InvalidInputError("--drivers must name at least one column for --model varx")
    _require_columns(panel, (target, *drivers))
    for i, name in enumerate(drivers):
        if name == target:
            raise InvalidInputError(f"--drivers and --target must differ, both name {name!r}")
        if name in drivers[:i]:
            raise InvalidInputError(f"--drivers names {name!r} more than once")


def _check_window(train_length: int, horizon: int, n_weeks: int) -> None:
    if min(train_length, horizon) < 1 or train_length + horizon > n_weeks:
        raise AlignmentError(
            f"--train-length {train_length} and --horizon {horizon} must be positive "
            f"and together fit the panel's {n_weeks} weeks"
        )


def _forecast_axis(panel: PanelDataset, train_length: int, horizon: int):
    _check_window(train_length, horizon, panel.n_weeks)
    return panel.week_starts[train_length : train_length + horizon]


# ---------------------------------------------------------------------------
# shared model recipes (used by fit, forecast, and pipeline)


def _gc_series(panel: PanelDataset, name: str, raw: bool) -> np.ndarray:
    """Column prepared for the causality spectrum.

    The default pipeline detrends with the HP filter and projects out the
    annual Fourier component; the weekly smoothing constant passes the
    annual cycle into the HP cycle, and a shared calendar cycle shows up as
    spurious two-way predictability.
    """
    if raw:
        return panel.column(name)
    return seasonal_adjust(hp_cycle(panel.series(name))).values


def _fit_trends(panel: PanelDataset, names: tuple[str, ...], train_length: int,
                trends: dict[str, TrendModel]) -> dict[str, TrendModel]:
    """Add to ``trends`` one fit per column not yet in it, each on the
    column's first ``train_length`` weeks; returns ``trends``.  A window
    shorter than one seasonal period, on which the library's fit only
    warns, is an :class:`InsufficientDataError` before any fit."""
    _require_columns(panel, names)
    shortfall = seasonal_shortfall(min(train_length, panel.n_weeks))
    if shortfall and any(name not in trends for name in names):
        raise InsufficientDataError(shortfall)
    for name in names:
        if name not in trends:
            trends[name] = fit_trend_model(panel.column(name)[:train_length])
    return trends


def _trend_baseline(model: TrendModel, horizon: int) -> np.ndarray:
    """Fitted values over the training weeks plus the forecast beyond them."""
    fitted = fitted_values(model, np.arange(float(model.n_obs)))
    if horizon == 0:
        return fitted
    return np.concatenate([fitted, trend_forecast(model, horizon)])


def _varx_recipe(panel: PanelDataset, target: str, drivers: tuple[str, ...],
                 train_length: int, horizon: int, harmonics: int,
                 trends: dict[str, TrendModel]):
    """Temperature-augmented VARX: endogenous target + drivers, exogenous
    seasonal terms plus per-variable baselines from their trend fits, which
    are added to ``trends`` where missing."""
    names = (target,) + drivers
    _fit_trends(panel, names, train_length, trends)
    baselines = {
        f"{name}_baseline": _trend_baseline(trends[name], horizon) for name in names
    }
    axis = panel.week_starts[: train_length + horizon]
    design = build_exogenous(axis, baselines=baselines, harmonics=harmonics)
    endog = np.column_stack([panel.column(n)[:train_length] for n in names])
    model = fit_varx(endog, design, max_order=4, names=names)
    return model, design


# Every forest the CLI grows resamples 52-week blocks, one year of weeks.
_FOREST_BLOCK_LENGTH = 52


def _check_forest_rows(train_length: int, lags: int) -> None:
    """A forest's ``train_length - lags`` training rows must hold one block."""
    if train_length - lags < _FOREST_BLOCK_LENGTH:
        raise AlignmentError(
            f"--train-length {train_length} less --lags {lags} leaves "
            f"{train_length - lags} forest training rows; its {_FOREST_BLOCK_LENGTH}-week "
            f"bootstrap blocks need at least {_FOREST_BLOCK_LENGTH}"
        )


def _forest_recipe(panel: PanelDataset, target: str, drivers: tuple[str, ...],
                   train_length: int, horizon: int, harmonics: int, lags: int,
                   trees: int, seed: int, trends: dict[str, TrendModel]):
    """Block-bootstrap forest on the first ``train_length`` weeks' lagged
    design (target lags, driver-baseline lags, calendar terms) and its
    recursive forecast of the ``horizon`` weeks after them.  The training
    rows are checked before the drivers' trend fits are added to ``trends``.

    Returns ``(model, training rows, forecast values)``.
    """
    _check_forest_rows(train_length, lags)
    _fit_trends(panel, drivers, train_length, trends)
    train_rows = train_length - lags
    axis = panel.week_starts[: train_length + horizon]
    design = build_exogenous(axis, harmonics=harmonics)
    columns = {target: panel.column(target)[: train_length + horizon]}
    for name in drivers:
        columns[f"{name}_baseline"] = _trend_baseline(trends[name], horizon)
    extras = design.column_names
    for j, name in enumerate(extras):
        columns[name] = design.values[:, j]
    feature_panel = PanelDataset(axis, columns)
    dataset = lagged_design_matrix(feature_panel, target, lags=lags, extra_columns=extras)
    training = SupervisedDataset(
        dataset.feature_names, dataset.features[:train_rows], dataset.target[:train_rows]
    )
    cfg = ForestConfig(n_trees=trees, block_length=_FOREST_BLOCK_LENGTH, seed=seed)
    model = train_forest(training, cfg)
    values = _forest_recursive_forecast(
        model, feature_panel, target, train_length, horizon, lags, extras
    )
    return model, training, values


def _forest_recursive_forecast(model, feature_panel: PanelDataset, target: str,
                               train_length: int, horizon: int, lags: int,
                               extras: tuple[str, ...]) -> np.ndarray:
    """Iterate one-step predictions, feeding each back as the next lag."""
    history = np.array(feature_panel.column(target), dtype=float)
    for t in range(train_length, train_length + horizon):
        row = lagged_feature_rows(
            feature_panel, target, np.array([t]), lags, extras, target=history
        )
        history[t] = predict(model, row[0])
    return history[train_length : train_length + horizon]


# ---------------------------------------------------------------------------
# subcommands


def _emit_synthetic(run: RunConfig, cfg: SynthConfig) -> tuple[str, str]:
    """Write the synthetic daily climate CSV and the weekly panel CSV and
    return their paths."""
    daily = generate_synthetic_daily(cfg)
    paths = _out_path(run, "synthetic_daily.csv"), _out_path(run, "synthetic_panel.csv")
    write_daily_csv(daily, paths[0])
    write_panel_csv(synthetic_panel_from_daily(cfg, daily), paths[1])
    return paths


def cmd_synth(run: RunConfig, cfg: SynthConfig) -> None:
    """Emit the synthetic daily climate CSV and the weekly panel CSV."""
    _emit_synthetic(run, cfg)
    _write_manifest(run)


def cmd_features(run: RunConfig, daily_path: str, out_name: str,
                 cfg: FeatureConfig) -> None:
    """Aggregate a regional daily climate CSV into the national weekly panel."""
    panel = aggregate_weekly_national(read_daily_csv(daily_path), cfg)
    write_panel_csv(panel, _out_path(run, out_name))
    _write_manifest(run)


def _emit_spectrum(run: RunConfig, panel: PanelDataset, cause: str, effect: str,
                   conditioning: str | None, cfg: GcBootstrapConfig, raw: bool) -> None:
    """Estimate one causality spectrum and emit its decision CSV."""
    names = [cause, effect] + ([conditioning] if conditioning else [])
    _require_columns(panel, names)
    if repeated := sorted({name for name in names if names.count(name) > 1}):
        raise InvalidInputError(
            "column named twice among --cause, --effect and --conditioning: "
            + ", ".join(repeated)
        )
    x = _gc_series(panel, cause, raw)
    y = _gc_series(panel, effect, raw)
    if conditioning:
        z = _gc_series(panel, conditioning, raw)
        result = conditional_gc_spectrum(x, y, z, cfg)
        name = f"gc_{cause}_to_{effect}_given_{conditioning}.csv"
    else:
        result = unconditional_gc_spectrum(x, y, cfg)
        name = f"gc_{cause}_to_{effect}.csv"
    point = result.significant_pointwise
    family = result.significant_bonferroni
    _write_csv(
        _out_path(run, name),
        ("frequency_cycles_per_week", "estimate", "threshold_alpha",
         "threshold_bonferroni", "sig_alpha", "sig_bonferroni"),
        (
            (freq, result.estimate[i], result.threshold_pointwise,
             result.threshold_bonferroni, bool(point[i]), bool(family[i]))
            for i, freq in enumerate(result.frequencies)
        ),
    )


def cmd_gc(run: RunConfig, panel_path: str, cause: str, effect: str,
           conditioning: str | None, cfg: GcBootstrapConfig, raw: bool) -> None:
    """Estimate one causality spectrum and emit the decision CSV."""
    _emit_spectrum(run, read_panel_csv(panel_path), cause, effect, conditioning, cfg, raw)
    _write_manifest(run)


def _emit_selection(run: RunConfig, panel: PanelDataset, target: str, lags: int,
                    cfg: ForestConfig) -> None:
    """Train the block-bootstrap forest on ``panel``'s lagged design and emit
    the importance ranking plus out-of-bag accuracy."""
    dataset = lagged_design_matrix(panel, target, lags=lags)
    model = train_forest(dataset, cfg)
    _write_csv(
        _out_path(run, f"importance_{target}.csv"),
        ("feature", "score"),
        impurity_importance(model).ranked(),
    )
    _write_json(_out_path(run, f"oob_{target}.json"), _oob_payload(model, dataset))


def cmd_select(run: RunConfig, panel_path: str, target: str,
               columns: tuple[str, ...], lags: int, cfg: ForestConfig) -> None:
    """Rank the lagged predictors by forest importance (see ``_emit_selection``).

    An empty ``columns`` means every panel column except the target.
    """
    panel = read_panel_csv(panel_path)
    _require_columns(panel, (target,) + columns)
    if not columns:
        columns = tuple(n for n in panel.column_names if n != target)
    kept = (target,) + tuple(c for c in columns if c != target)
    _emit_selection(run, panel.select(kept), target, lags, cfg)
    _write_manifest(run)


def _oob_payload(model, dataset) -> dict:
    oob = oob_metrics(model, dataset)
    return {
        "rmse": float(oob.rmse),
        "rsr": float(oob.rsr),
        "r2": float(oob.r2),
        "n_rows": int(oob.n_rows),
        "n_covered": int(oob.n_covered),
        "n_never_oob": int(oob.n_never_oob),
    }


def cmd_sparse_var(run: RunConfig, panel_path: str, columns: tuple[str, ...],
                   equation: str, order: int, penalty: float | None,
                   raw: bool) -> None:
    """Fit the penalized VAR on deseasonalized cycles and tabulate one
    equation's coefficients variable-by-lag.

    When ``penalty`` is omitted it is chosen by rolling-origin one-step
    forecast error, which is deterministic, so the run is reproducible
    either way.
    """
    panel = read_panel_csv(panel_path)
    _require_columns(panel, columns)
    if equation not in columns:
        raise InvalidInputError(
            f"equation {equation!r} is not among the modeled columns: "
            + ", ".join(columns)
        )
    data = np.column_stack([_gc_series(panel, name, raw) for name in columns])
    lam = penalty if penalty is not None else select_lambda(data, order=order, names=columns)
    model = fit_lasso_var(data, order=order, lam=lam, names=columns)
    table = coefficient_table(model, equation)
    _write_csv(
        _out_path(run, f"sparse_var_{equation}.csv"),
        ("variable",) + tuple(f"lag{k}" for k in range(1, order + 1)),
        (
            (table.variables[i],) + tuple(table.values[i])
            for i in range(len(table.variables))
        ),
    )
    _write_manifest(run)


def _varx_coefficient_rows(model, boot):
    for i, equation in enumerate(model.variable_names):
        yield (equation, "intercept", model.intercept[i],
               boot.intercept_lower[i], boot.intercept_upper[i],
               bool(boot.intercept_significant[i]))
        for lag in range(model.order):
            for j, variable in enumerate(model.variable_names):
                yield (equation, f"{variable}.l{lag + 1}",
                       model.endo_coef[lag, i, j],
                       boot.endo_lower[lag, i, j], boot.endo_upper[lag, i, j],
                       bool(boot.endo_significant[lag, i, j]))
        for m, exog in enumerate(model.exog_names):
            yield (equation, exog, model.exo_coef[i, m],
                   boot.exo_lower[i, m], boot.exo_upper[i, m],
                   bool(boot.exo_significant[i, m]))


def _irf_rows(result):
    for j, impulse in enumerate(result.variable_names):
        for i, response in enumerate(result.variable_names):
            for h in range(result.horizon + 1):
                yield (impulse, response, h, result.responses[h, i, j],
                       result.lower[h, i, j], result.upper[h, i, j])


def _fevd_rows(result):
    for i, variable in enumerate(result.variable_names):
        for j, source in enumerate(result.variable_names):
            for k, horizon in enumerate(result.horizons):
                yield (variable, source, horizon, result.mean[k, i, j],
                       result.lower[k, i, j], result.upper[k, i, j])


def _fit_varx_artifacts(run: RunConfig, model, replicates: int,
                        irf_horizon: int) -> None:
    """Bootstrap, IRF and FEVD, all computed before any of their three
    files is written."""
    boot = residual_bootstrap(model, n_replicates=replicates, seed=run.seed)
    impulse = irf(model, horizon=irf_horizon, inference=boot)
    decomposition = fevd(model, inference=boot)
    _write_csv(
        _out_path(run, "varx_coefficients.csv"),
        ("equation", "coefficient", "estimate", "lower", "upper", "significant"),
        _varx_coefficient_rows(model, boot),
    )
    _write_csv(
        _out_path(run, "varx_irf.csv"),
        ("impulse", "response", "horizon", "value", "lower", "upper"),
        _irf_rows(impulse),
    )
    _write_csv(
        _out_path(run, "varx_fevd.csv"),
        ("variable", "source", "horizon", "mean", "lower", "upper"),
        _fevd_rows(decomposition),
    )


def cmd_fit(run: RunConfig, panel_path: str, model_name: str, target: str,
            drivers: tuple[str, ...], harmonics: int, lags: int,
            replicates: int, trees: int, irf_horizon: int) -> None:
    """Train one model on the whole panel and emit its fit artifacts."""
    panel = read_panel_csv(panel_path)
    _require_drivers(panel, model_name, target, drivers)
    n = panel.n_weeks
    if model_name == "trend":
        trend = _fit_trends(panel, (target,), n, {})[target]
        columns = {target: panel.column(target),
                   f"{target}_baseline_fitted": _trend_baseline(trend, 0)}
        write_panel_csv(PanelDataset(panel.week_starts, columns),
                        _out_path(run, f"trend_fit_{target}.csv"))
    elif model_name == "varx":
        model, _ = _varx_recipe(panel, target, drivers, n, 0, harmonics, {})
        _fit_varx_artifacts(run, model, replicates, irf_horizon)
    else:
        model, training, _ = _forest_recipe(
            panel, target, drivers, n, 0, harmonics, lags, trees, run.seed, {}
        )
        _write_json(_out_path(run, f"forest_oob_{target}.json"), _oob_payload(model, training))
    _write_manifest(run)


def _forecast(run: RunConfig, panel: PanelDataset, model_name: str, target: str,
              drivers: tuple[str, ...], train_length: int, horizon: int,
              harmonics: int, lags: int, trees: int,
              trends: dict[str, TrendModel]):
    """Train ``model_name`` on the first ``train_length`` weeks, emit its
    forecast of the next ``horizon`` as a panel CSV, and return the file's
    path and the model.  Trend fits missing from ``trends`` are added to it.
    """
    axis = _forecast_axis(panel, train_length, horizon)
    column = f"{target}_baseline_forecast" if model_name == "trend" else f"{target}_forecast"
    if model_name == "trend":
        model = _fit_trends(panel, (target,), train_length, trends)[target]
        values = trend_forecast(model, horizon)
    elif model_name == "varx":
        model, design = _varx_recipe(
            panel, target, drivers, train_length, horizon, harmonics, trends
        )
        values = forecast_recursive(model, horizon, design.values[train_length:])[:, 0]
    else:
        model, _, values = _forest_recipe(
            panel, target, drivers, train_length, horizon, harmonics, lags, trees,
            run.seed, trends,
        )
    path = _out_path(run, f"forecast_{model_name}_{target}.csv")
    write_panel_csv(PanelDataset(axis, {column: values}), path)
    return path, model


def cmd_forecast(run: RunConfig, panel_path: str, model_name: str, target: str,
                 drivers: tuple[str, ...], train_length: int, horizon: int,
                 harmonics: int, lags: int, trees: int) -> None:
    """Train on the first ``train_length`` weeks and forecast ``horizon``."""
    panel = read_panel_csv(panel_path)
    _require_drivers(panel, model_name, target, drivers)
    _forecast(run, panel, model_name, target, drivers, train_length, horizon,
              harmonics, lags, trees, {})
    _write_manifest(run)


def _read_forecast(path: str) -> tuple[tuple, np.ndarray]:
    table = read_panel_csv(path)
    if len(table.column_names) != 1:
        raise InvalidInputError(
            f"forecast file {path!r} must have exactly one value column, "
            f"found: {', '.join(table.column_names)}"
        )
    return table.week_starts, table.column(table.column_names[0])


def cmd_evaluate(run: RunConfig, panel_path: str, target: str,
                 forecasts: dict[str, str], train_length: int,
                 horizon: int) -> None:
    """Score forecast files against the panel's holdout window."""
    panel = read_panel_csv(panel_path)
    _require_columns(panel, (target,))
    axis = _forecast_axis(panel, train_length, horizon)
    train = panel.column(target)[:train_length]
    actual = panel.column(target)[train_length : train_length + horizon]
    reports: dict[str, MetricReport] = {}
    for name, path in forecasts.items():
        weeks, values = _read_forecast(path)
        if weeks != tuple(axis):
            raise AlignmentError(
                f"forecast {name!r} covers {weeks[0]}..{weeks[-1]}; the "
                f"holdout window is {axis[0]}..{axis[-1]}"
            )
        reports[name] = evaluate_forecast(actual, values, train)
    payload = {
        name: {c: float(v) for c, v in zip(METRIC_COLUMNS, report.values())}
        for name, report in reports.items()
    }
    _write_json(_out_path(run, "metrics.json"), payload)
    if len(reports) >= 2:
        table = compare_models(reports)
        header = ("model",) + table.columns + tuple(f"best_{c}" for c in table.columns)
        _write_csv(_out_path(run, "comparison.csv"), header, table.to_rows())
        _write_json(
            _out_path(run, "comparison.json"),
            {
                "columns": list(table.columns),
                "models": {
                    name: {
                        "values": dict(zip(table.columns, map(float, table.values[i]))),
                        "best": dict(zip(table.columns, map(bool, table.best[i]))),
                    }
                    for i, name in enumerate(table.model_names)
                },
            },
        )
    _write_manifest(run)


def cmd_pipeline(run: RunConfig, synth_cfg: SynthConfig, target: str,
                 driver: str, train_length: int, horizon: int,
                 replicates: int, trees: int, lags: int, harmonics: int,
                 irf_horizon: int) -> None:
    """Full synthetic reproduction: generate, aggregate, screen, select,
    fit all model families, forecast, and tabulate accuracy.

    Each stage writes its files through the same function as the matching
    subcommand.  Stage 2 builds the weekly panel from the daily and panel
    files stage 1 wrote; stages 3-6 work on that panel in memory, not on
    the ``weekly_panel.csv`` written from it; stage 7 scores the forecast
    files read back from disk, as ``evaluate`` does.
    """
    # Fail before stage 1 writes anything: the target (a column of the
    # synthetic panel) and the driver (another climate column of stage 2's
    # panel), the forecast window, the integer settings of the later stages
    # (the GC replicate floor is the VARX bootstrap's too; the option table
    # has checked the seed), and the training rows of both forests, which
    # each train on train_length - lags.
    if target not in (known := ("drug_demand", *NATIONAL_CLIMATE_COLUMNS)):
        raise UnknownColumnError([target], known)
    if driver == target:
        raise InvalidInputError(f"--driver and --target must differ, both are {target!r}")
    if driver not in (known := [n for n in NATIONAL_CLIMATE_COLUMNS if n != target]):
        raise UnknownColumnError([driver], known)
    _check_window(train_length, horizon, synth_cfg.n_weeks)
    settings = (("replicates", replicates, MIN_REPLICATES), ("trees", trees, 1),
                ("lags", lags, 1), ("harmonics", harmonics, 0), ("irf_horizon", irf_horizon, 1))
    problems = {name: p for name, value, floor in settings if (p := integer_problem(value, floor))}
    if problems:
        raise ConfigError(problems)
    _check_forest_rows(train_length, lags)
    gc_cfg = GcBootstrapConfig(n_replicates=replicates, seed=run.seed)

    # Stage 1: synthetic world.
    daily_path, synthetic_path = _emit_synthetic(run, synth_cfg)

    # Stage 2: climate features from the daily file, demand joined back on.
    climate = aggregate_weekly_national(read_daily_csv(daily_path), FeatureConfig())
    demand = read_panel_csv(synthetic_path).column(target)
    columns = {target: demand}
    columns.update({n: climate.column(n) for n in climate.column_names})
    panel = PanelDataset(climate.week_starts, columns)
    panel_path = _out_path(run, "weekly_panel.csv")
    write_panel_csv(panel, panel_path)

    # Stage 3: causality screen, both directions.
    for cause, effect in ((driver, target), (target, driver)):
        _emit_spectrum(run, panel, cause, effect, None, gc_cfg, raw=False)
    # Both directions drew the same null indices, held by replicate_draws
    # (1.6 MB at 1000 replicates); nothing asks for them again, so release
    # them before the forests, which set the run's peak memory.
    replicate_draws.cache_clear()

    # Stage 4: importance ranking on the screened predictor set; the
    # selection forest is freed on return, before stage 6 grows the next.
    forest_cfg = ForestConfig(n_trees=trees, block_length=_FOREST_BLOCK_LENGTH, seed=run.seed)
    train_panel = panel.slice_weeks(0, train_length).select((target, driver))
    _emit_selection(run, train_panel, target, lags, forest_cfg)

    # Stages 5-6: forecasts from all three families, sharing two trend fits,
    # and the VARX fit artifacts (coefficients, IRF, FEVD).
    trends: dict[str, TrendModel] = {}
    forecast_paths: dict[str, str] = {}
    for name in _MODELS:
        forecast_paths[name], model = _forecast(
            run, panel, name, target, (driver,), train_length, horizon, harmonics,
            lags, trees, trends,
        )
        if name == "varx":
            _fit_varx_artifacts(run, model, replicates, irf_horizon)

    # Stage 7: evaluation table from the emitted forecast files.
    evaluate_run = dataclasses.replace(
        run,
        command="evaluate",
        parameters={
            "panel": panel_path,
            "target": target,
            "forecasts": forecast_paths,
            "train_length": train_length,
            "horizon": horizon,
        },
    )
    cmd_evaluate(evaluate_run, panel_path, target, forecast_paths, train_length, horizon)
    _write_manifest(run)


# ---------------------------------------------------------------------------
# the option table: flags, configuration-file keys and manifest parameters


def _cast(parse, expected: str, valid=lambda value: True):
    """Wrap ``parse`` so that a bad value reads as what was expected."""
    def cast(text):
        try:
            value = parse(text)
            if valid(value):
                return value
        except (KeyError, ValueError):
            pass
        raise ValueError(f"expected {expected}, got {text!r}")
    return cast


def _items(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _forecast_pairs(entries) -> dict[str, str]:
    """NAME=PATH pairs from repeated flags or one comma-separated file value."""
    pairs: dict[str, str] = {}
    for entry in _items(entries) if isinstance(entries, str) else entries:
        name, sep, path = (part.strip() for part in entry.partition("="))
        if not (sep and name and path):
            raise InvalidInputError(f"--forecast expects NAME=PATH, got {entry!r}")
        if name in pairs:
            raise InvalidInputError(f"--forecast names {name!r} more than once")
        pairs[name] = path
    if not pairs:
        raise InvalidInputError("evaluate needs at least one --forecast NAME=PATH")
    return pairs


_INT = _cast(int, "an integer")
_FLOAT = _cast(float, "a number")
_INTS = _cast(lambda text: tuple(int(p) for p in _items(text)), "comma-separated integers")
_FLOATS = _cast(lambda text: tuple(float(p) for p in _items(text)), "comma-separated numbers")
_BOOL = _cast(lambda text: configparser.ConfigParser.BOOLEAN_STATES[text.lower()], "a boolean")
_MODELS = ("trend", "varx", "forest")


@dataclasses.dataclass(frozen=True)
class _Option:
    """One option: its flag, its configuration-file key, its manifest entry.

    ``commands`` names the subcommands that take it; global options (none)
    serve every command.  ``cast`` turns flag and file text alike into the
    value.  A callable ``default`` gets the values resolved before it.
    ``flag`` holds extra ``add_argument`` keywords.
    """

    name: str
    commands: str
    cast: object = str
    default: object = None
    help: str | None = None
    required: bool = False
    flag: tuple = ()

    def serves(self, command: str) -> bool:
        return not self.commands or command in self.commands.split()


# Row order is the flag order of each command's --help.
_OPTIONS = (
    _Option("seed", "", _cast(int, "an integer >= 0", lambda v: v >= 0), 0,
            "master seed (default 0)"),
    _Option("out_dir", "", str, ".", "output directory (default .)"),
    _Option("threads", "", _cast(int, "an integer >= 1", lambda v: v >= 1), 1,
            "accepted for compatibility; no command uses it any more"),
    _Option("n_weeks", "synth", _INT),
    _Option("n_weeks", "pipeline", _INT, SynthConfig.n_weeks),
    _Option("demand_noise_sd", "synth", _FLOAT),
    _Option("coupling", "synth", _FLOATS,
            help="comma-separated lag coefficients, e.g. --coupling=-2500,-1000"),
    _Option("break_weeks", "synth", _INTS,
            help="comma-separated level-shift weeks; empty for none"),
    _Option("level_shifts", "synth", _FLOATS,
            help="comma-separated shift sizes, one per break week "
                 "(use --level-shifts=-100,50 for negatives)"),
    _Option("daily", "features", help="regional daily climate CSV", required=True),
    _Option("out", "features", str, "weekly_panel.csv",
            "output panel file name (default weekly_panel.csv)"),
    _Option("wet_day_threshold_mm", "features", _FLOAT, 1.0),
    _Option("extreme_quantile", "features", _FLOAT, 0.999),
    _Option("panel", "gc select sparse-var fit forecast evaluate", required=True),
    _Option("cause", "gc", required=True),
    _Option("effect", "gc", required=True),
    _Option("conditioning", "gc", help="project this column out first"),
    _Option("model", "fit forecast", _cast(str, "trend, varx or forest", _MODELS.__contains__),
            required=True, flag=(("metavar", "{trend,varx,forest}"),)),
    _Option("target", "select fit forecast evaluate pipeline", str, "drug_demand"),
    _Option("driver", "pipeline", str, "temperature"),
    _Option("columns", "select", _items, (),
            "comma-separated candidate columns (default: all)"),
    _Option("columns", "sparse-var", _items, ("drug_demand", "temperature"),
            "comma-separated panel columns to model"),
    _Option("equation", "sparse-var", str,
            lambda values: values["columns"][0] if values["columns"] else "",
            "equation to tabulate (default: first column)"),
    _Option("drivers", "fit forecast", _items, ("temperature",),
            "comma-separated climate drivers (default temperature)"),
    _Option("forecasts", "evaluate", _forecast_pairs,
            help="repeatable; e.g. --forecast varx=out/forecast_varx.csv", required=True,
            flag=(("option", "--forecast"), ("action", "append"), ("metavar", "NAME=PATH"))),
    _Option("harmonics", "fit forecast pipeline", _INT, 1),
    _Option("lags", "select fit forecast pipeline", _INT, 4),
    _Option("trees", "select fit forecast pipeline", _INT, 1000),
    _Option("replicates", "gc fit pipeline", _INT, 1000),
    _Option("alpha", "gc", _FLOAT, 0.05),
    _Option("block_length", "gc", _FLOAT),
    _Option("max_var_order", "gc", _INT, 4),
    _Option("block_length", "select", _INT, 52),
    _Option("min_node_size", "select", _INT, 5),
    _Option("order", "sparse-var", _INT, 4),
    _Option("penalty", "sparse-var", _FLOAT,
            help="L1 weight; rolling-origin selection when omitted"),
    _Option("raw", "gc sparse-var", _BOOL, False,
            "use the columns as-is (skip HP detrending and deseasonalization)",
            flag=(("action", "store_const"), ("const", "true"))),
    _Option("irf_horizon", "fit pipeline", _INT, 26),
    _Option("train_length", "forecast evaluate", _INT, 338),
    _Option("horizon", "forecast evaluate pipeline", _INT, 52),
    _Option("train_length", "pipeline", _INT,
            lambda values: values["n_weeks"] - values["horizon"],
            "training weeks (default: n_weeks - horizon)"),
)


def _synth_config(seed: int, given: dict) -> SynthConfig:
    """The synthetic world of ``synth`` and ``pipeline``.  Unless break weeks
    or level shifts are given, a panel of ``n_weeks`` keeps the default level
    breaks that fall inside it; given ones are checked as they are."""
    if "break_weeks" not in given and "level_shifts" not in given:
        n_weeks = given.get("n_weeks", SynthConfig.n_weeks)
        breaks = [
            (week, shift)
            for week, shift in zip(SynthConfig.break_weeks, SynthConfig.level_shifts)
            if week < n_weeks
        ]
        given = {**given, "break_weeks": tuple(week for week, _ in breaks),
                 "level_shifts": tuple(shift for _, shift in breaks)}
    return SynthConfig(seed=seed, **given)


def _run_synth(run: RunConfig, p: dict) -> None:
    given = {k: v for k, v in p.items() if v is not None}
    if "coupling" in given:
        given["temperature_coupling"] = given.pop("coupling")
    cfg = _synth_config(run.seed, given)
    cmd_synth(dataclasses.replace(run, parameters={"seed": run.seed, **given}), cfg)


def _run_pipeline(run: RunConfig, p: dict) -> None:
    cmd_pipeline(run, _synth_config(run.seed, {"n_weeks": p.pop("n_weeks")}), **p)


# Subcommand: (help, call).  A call passes the resolved options to its cmd_*
# function, looked up when it runs: by keyword where the parameter has the
# option's name, else by position or inside a config object.
_COMMANDS = {
    "synth": ("generate the synthetic daily + weekly files", _run_synth),
    "features": ("aggregate a daily climate CSV to weekly",
                 lambda run, p: cmd_features(run, p.pop("daily"), p.pop("out"),
                                             FeatureConfig(**p))),
    "gc": ("causality spectrum between two panel columns", lambda run, p: cmd_gc(
        run, p["panel"], p["cause"], p["effect"], p["conditioning"],
        GcBootstrapConfig(p["replicates"], p["alpha"], p["block_length"],
                          p["max_var_order"], seed=run.seed),
        p["raw"],
    )),
    "select": ("rank lagged predictors by forest importance", lambda run, p: cmd_select(
        run, p["panel"], p["target"], p["columns"], p["lags"],
        ForestConfig(n_trees=p["trees"], min_node_size=p["min_node_size"],
                     block_length=p["block_length"], seed=run.seed),
    )),
    "sparse-var": ("penalized VAR coefficient table on deseasonalized cycles",
                   lambda run, p: cmd_sparse_var(run, p.pop("panel"), **p)),
    "fit": ("train a model on the full panel and emit fit artifacts",
            lambda run, p: cmd_fit(run, p.pop("panel"), p.pop("model"), **p)),
    "forecast": ("train on the first weeks and forecast the following ones",
                 lambda run, p: cmd_forecast(run, p.pop("panel"), p.pop("model"), **p)),
    "evaluate": ("score forecast files on the holdout window",
                 lambda run, p: cmd_evaluate(run, p.pop("panel"), **p)),
    "pipeline": ("synthetic end-to-end reproduction run", _run_pipeline),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="climdemand",
        description=(
            "Frequency-domain climate-demand causality screening and demand "
            "forecasting on weekly panels."
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "Configuration file (--config): INI sections, one per subcommand plus\n"
            "[run], with keys named like the long options with underscores (the key\n"
            "for evaluate's --forecast is forecasts).  An option is its flag, else its\n"
            "key in the subcommand's section, else in [run] (a fallback for every\n"
            "key), else its default; required options may come from the file.\n"
            "Unknown sections and keys are errors; the environment is ignored.\n"
        ),
    )
    parser.add_argument("--config", help="INI configuration file")
    commands = parser.add_subparsers(dest="command", required=True)
    targets = {name: commands.add_parser(name, help=text)
               for name, (text, _) in _COMMANDS.items()}
    for opt in _OPTIONS:
        flag = dict(opt.flag)
        option = flag.pop("option", "--" + opt.name.replace("_", "-"))
        for target in [targets[c] for c in opt.commands.split()] or [parser]:
            target.add_argument(option, dest=opt.name, help=opt.help, **flag)
    return parser


def _read_config(path: str | None) -> dict[str, dict[str, str]]:
    if path is None:
        return {}
    parser = configparser.ConfigParser()
    try:
        if not parser.read(path, encoding="utf-8"):
            raise InvalidInputError(f"configuration file not found: {path!r}")
        return {s: dict(parser.items(s)) for s in parser.sections()}
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise InvalidInputError(f"configuration file {path!r}: {exc}") from None


def _resolve(command: str, args: argparse.Namespace, sections: dict) -> dict:
    """Each option of ``command``: its flag, else its key in the command's
    section, else in [run], else its default.  Unknown sections and keys
    (a section takes its command's options, [run] any command's), bad
    values and missing required options are reported together."""
    keys = {c: {o.name for o in _OPTIONS if o.serves(c)} for c in _COMMANDS}
    keys["run"] = {o.name for o in _OPTIONS}
    problems = {s: "unknown configuration section" for s in sections if s not in keys}
    problems.update({
        f"{s}.{k}": "unknown option" for s in keys if s in sections
        for k in sections[s] if k not in keys[s]
    })
    values: dict = {}
    for opt in _OPTIONS:
        if not opt.serves(command):
            continue
        text, where = getattr(args, opt.name), ""
        for section in (command, "run"):
            if text is None:
                text, where = sections.get(section, {}).get(opt.name), f" in [{section}]"
        if text is None:
            if opt.required:
                problems[opt.name] = "required; pass the flag or set the key in --config"
            values[opt.name] = opt.default(values) if callable(opt.default) else opt.default
            continue
        try:
            values[opt.name] = opt.cast(text)
        except ToolkitError:
            raise
        except ValueError as exc:
            problems[opt.name] = f"{exc}{where}"
    if problems:
        raise ConfigError(problems)
    return values


# Config fields set by an option of another name; errors name the option.
_OPTION_OF_FIELD = {"n_replicates": "replicates", "expected_block_length": "block_length",
                    "n_trees": "trees", "temperature_coupling": "coupling"}


def _dispatch(args: argparse.Namespace) -> None:
    values = _resolve(args.command, args, _read_config(args.config))
    del values["threads"]  # accepted for compatibility; nothing reads it
    run = RunConfig(
        command=args.command,
        out_dir=values.pop("out_dir"),
        seed=values.pop("seed"),
        parameters=dict(values),  # a copy: the calls pop from values
    )
    try:
        _COMMANDS[args.command][1](run, values)
    except ConfigError as exc:
        raise ConfigError({_OPTION_OF_FIELD.get(k, k): v for k, v in exc.fields.items()}) from None


def _error_payload(exc: ToolkitError) -> dict:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    fields = getattr(exc, "fields", None)
    if fields:
        payload["fields"] = dict(fields)
    columns = getattr(exc, "columns", None)
    if columns:
        payload["columns"] = list(columns)
    line = getattr(exc, "line", None)
    if line is not None:
        payload["line"] = line
    path = getattr(exc, "path", None)
    if path is not None:
        payload["path"] = os.fsdecode(path)
    return payload


def _report_error(exc: ToolkitError) -> int:
    sys.stderr.write(json.dumps(_error_payload(exc), sort_keys=True) + "\n")
    return 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _dispatch(args)
    except ToolkitError as exc:
        return _report_error(exc)
    except OSError as exc:
        # Unreadable inputs and unwritable outputs are user errors too.
        return _report_error(FileAccessError(str(exc), path=exc.filename))
    return 0


if __name__ == "__main__":
    sys.exit(main())
