"""Command-line front end: orchestration, seeding, and report emission.

Every subcommand reads inputs from explicit paths, writes its outputs
atomically (temp file + rename) under ``--out-dir``, and records the resolved
parameters plus the master seed in ``<command>_manifest.json`` so any
stochastic run can be reproduced from that file alone.  Failures exit nonzero
and print a single JSON object to stderr; configuration problems list every
violated field at once.

Options may also come from a configuration file (``--config``)::

    [run]
    seed = 7
    out_dir = results

    [gc]
    replicates = 1000
    alpha = 0.05

The format is flat ``key = value`` pairs under a section per subcommand plus
the common ``[run]`` section.  Explicit command-line flags win over the file;
environment variables are never consulted.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import os
import sys

import numpy as np

from .errors import (
    AlignmentError,
    ConfigError,
    FileAccessError,
    InvalidInputError,
    ToolkitError,
    UnknownColumnError,
)
from .features import FeatureConfig, aggregate_weekly_national
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
    SplitSpec,
    compare_models,
    evaluate_forecast,
)
from .panel import (
    PanelDataset,
    _atomic_write_text,
    format_float,
    read_daily_csv,
    read_panel_csv,
    write_daily_csv,
    write_panel_csv,
)
from .sparsevar import coefficient_table, fit_lasso_var, select_lambda
from .spectral import GcBootstrapConfig, conditional_gc_spectrum, unconditional_gc_spectrum
from .synth import SynthConfig, generate_synthetic_daily, synthetic_panel_from_daily
from .trend import TrendFitConfig, TrendModel, fit_trend_model, fitted_values
from .trend import forecast as trend_forecast
from .varx import build_exogenous, fevd, fit_varx, forecast_recursive, irf, residual_bootstrap

_CONFIG_SECTIONS = (
    "run",
    "features",
    "gc",
    "select",
    "sparse-var",
    "fit",
    "forecast",
    "evaluate",
    "synth",
    "pipeline",
)


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Resolved invocation: what ran, where it wrote, and its seed."""

    command: str
    out_dir: str
    seed: int
    threads: int
    parameters: dict

    def manifest(self) -> dict:
        # threads is accepted but no command uses it, so it stays out of
        # the manifest; (command, parameters, seed) must be
        # sufficient to reproduce the files byte for byte.
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
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format_float(float(value))


def _write_csv(path: str, header: tuple[str, ...], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_format_cell(cell) for cell in row))
    _atomic_write_text(path, "\n".join(lines) + "\n")


def _write_json(path: str, payload: dict) -> None:
    _atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_manifest(run: RunConfig) -> None:
    _write_json(_out_path(run, f"{run.command}_manifest.json"), run.manifest())


def _require_columns(panel: PanelDataset, names) -> None:
    missing = [n for n in names if n not in panel.column_names]
    if missing:
        raise UnknownColumnError(missing, panel.column_names)


def _forecast_axis(panel: PanelDataset, train_length: int, horizon: int):
    if train_length + horizon > panel.n_weeks:
        raise AlignmentError(
            f"train_length {train_length} + horizon {horizon} exceeds the "
            f"panel's {panel.n_weeks} weeks"
        )
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
                trend_cfg: TrendFitConfig) -> dict[str, TrendModel]:
    """One trend fit per column on its first ``train_length`` weeks."""
    _require_columns(panel, names)
    return {
        name: fit_trend_model(panel.column(name)[:train_length], trend_cfg)
        for name in names
    }


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
    seasonal terms plus per-variable baselines from the fitted ``trends``."""
    names = (target,) + drivers
    baselines = {
        f"{name}_baseline": _trend_baseline(trends[name], horizon) for name in names
    }
    axis = panel.week_starts[: train_length + horizon]
    design = build_exogenous(axis, baselines=baselines, harmonics=harmonics)
    endog = np.column_stack([panel.column(n)[:train_length] for n in names])
    model = fit_varx(endog, design, max_order=4, names=names)
    return model, design


def _forest_features(panel: PanelDataset, target: str, drivers: tuple[str, ...],
                     train_length: int, horizon: int, harmonics: int, lags: int,
                     trends: dict[str, TrendModel]):
    """Lagged forest design: target lags, driver-baseline lags, calendar terms."""
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
    return feature_panel, dataset, extras


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


def cmd_synth(run: RunConfig, cfg: SynthConfig) -> None:
    """Emit the synthetic daily climate CSV and the weekly panel CSV."""
    records = generate_synthetic_daily(cfg)
    write_daily_csv(records, _out_path(run, "synthetic_daily.csv"))
    panel = synthetic_panel_from_daily(cfg, records)
    write_panel_csv(panel, _out_path(run, "synthetic_panel.csv"))
    _write_manifest(run)


def cmd_features(run: RunConfig, daily_path: str, out_name: str,
                 cfg: FeatureConfig) -> None:
    """Aggregate regional daily records into the national weekly panel."""
    records = read_daily_csv(daily_path)
    panel = aggregate_weekly_national(records, cfg)
    write_panel_csv(panel, _out_path(run, out_name))
    _write_manifest(run)


_SPECTRUM_HEADER = (
    "frequency_cycles_per_week",
    "estimate",
    "threshold_alpha",
    "threshold_bonferroni",
    "sig_alpha",
    "sig_bonferroni",
)


def _spectrum_rows(result):
    point = result.significant_pointwise
    family = result.significant_bonferroni
    for i, freq in enumerate(result.frequencies):
        yield (
            freq,
            result.estimate[i],
            result.threshold_pointwise,
            result.threshold_bonferroni,
            bool(point[i]),
            bool(family[i]),
        )


def cmd_gc(run: RunConfig, panel_path: str, cause: str, effect: str,
           conditioning: str | None, cfg: GcBootstrapConfig, raw: bool) -> str:
    """Estimate one causality spectrum and emit the decision CSV."""
    panel = read_panel_csv(panel_path)
    wanted = [cause, effect] + ([conditioning] if conditioning else [])
    _require_columns(panel, wanted)
    x = _gc_series(panel, cause, raw)
    y = _gc_series(panel, effect, raw)
    if conditioning:
        z = _gc_series(panel, conditioning, raw)
        result = conditional_gc_spectrum(x, y, z, cfg)
        name = f"gc_{cause}_to_{effect}_given_{conditioning}.csv"
    else:
        result = unconditional_gc_spectrum(x, y, cfg)
        name = f"gc_{cause}_to_{effect}.csv"
    _write_csv(_out_path(run, name), _SPECTRUM_HEADER, _spectrum_rows(result))
    _write_manifest(run)
    return name


def cmd_select(run: RunConfig, panel_path: str, target: str,
               columns: tuple[str, ...], lags: int, cfg: ForestConfig) -> None:
    """Train the block-bootstrap forest on the lagged design and emit the
    importance ranking plus out-of-bag accuracy.

    An empty ``columns`` means every panel column except the target.
    """
    panel = read_panel_csv(panel_path)
    _require_columns(panel, (target,) + columns)
    if not columns:
        columns = tuple(n for n in panel.column_names if n != target)
    kept = (target,) + tuple(c for c in columns if c != target)
    sub = PanelDataset(panel.week_starts, {n: panel.column(n) for n in kept})
    dataset = lagged_design_matrix(sub, target, lags=lags)
    model = train_forest(dataset, cfg)
    ranking = impurity_importance(model)
    _write_csv(
        _out_path(run, f"importance_{target}.csv"),
        ("feature", "score"),
        ranking.ranked(),
    )
    _write_json(_out_path(run, f"oob_{target}.json"), _oob_payload(model, dataset))
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
                   raw: bool) -> float:
    """Fit the penalized VAR on deseasonalized cycles and tabulate one
    equation's coefficients variable-by-lag.

    When ``penalty`` is omitted it is chosen by rolling-origin one-step
    forecast error, which is deterministic, so the run is reproducible
    either way.  Returns the penalty actually used.
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
    return lam


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
    boot = residual_bootstrap(model, n_replicates=replicates, seed=run.seed)
    _write_csv(
        _out_path(run, "varx_coefficients.csv"),
        ("equation", "coefficient", "estimate", "lower", "upper", "significant"),
        _varx_coefficient_rows(model, boot),
    )
    impulse = irf(model, horizon=irf_horizon, inference=boot)
    _write_csv(
        _out_path(run, "varx_irf.csv"),
        ("impulse", "response", "horizon", "value", "lower", "upper"),
        _irf_rows(impulse),
    )
    decomposition = fevd(model, inference=boot)
    _write_csv(
        _out_path(run, "varx_fevd.csv"),
        ("variable", "source", "horizon", "mean", "lower", "upper"),
        _fevd_rows(decomposition),
    )


def cmd_fit(run: RunConfig, panel_path: str, model_name: str, target: str,
            drivers: tuple[str, ...], harmonics: int, lags: int,
            replicates: int, trees: int, irf_horizon: int,
            trend_cfg: TrendFitConfig) -> None:
    """Train one model on the whole panel and emit its fit artifacts."""
    panel = read_panel_csv(panel_path)
    _require_columns(panel, (target,))
    n = panel.n_weeks
    if model_name == "trend":
        model = fit_trend_model(panel.column(target), trend_cfg)
        fitted = fitted_values(model, np.arange(float(n)))
        _write_csv(
            _out_path(run, f"trend_fit_{target}.csv"),
            ("week_start", target, f"{target}_baseline_fitted"),
            (
                (panel.week_starts[i].isoformat(), panel.column(target)[i], fitted[i])
                for i in range(n)
            ),
        )
    elif model_name == "varx":
        trends = _fit_trends(panel, (target,) + drivers, n, trend_cfg)
        model, _ = _varx_recipe(panel, target, drivers, n, 0, harmonics, trends)
        _fit_varx_artifacts(run, model, replicates, irf_horizon)
    else:
        trends = _fit_trends(panel, drivers, n, trend_cfg)
        _, dataset, _ = _forest_features(
            panel, target, drivers, n, 0, harmonics, lags, trends
        )
        cfg = ForestConfig(n_trees=trees, block_length=52, seed=run.seed)
        model = train_forest(dataset, cfg)
        _write_json(_out_path(run, f"forest_oob_{target}.json"), _oob_payload(model, dataset))
    _write_manifest(run)


def cmd_forecast(run: RunConfig, panel_path: str, model_name: str, target: str,
                 drivers: tuple[str, ...], train_length: int, horizon: int,
                 harmonics: int, lags: int, trees: int,
                 trend_cfg: TrendFitConfig) -> str:
    """Train on the first ``train_length`` weeks and forecast ``horizon``."""
    panel = read_panel_csv(panel_path)
    _require_columns(panel, (target,))
    axis = _forecast_axis(panel, train_length, horizon)
    if model_name == "trend":
        model = fit_trend_model(panel.column(target)[:train_length], trend_cfg)
        values = trend_forecast(model, horizon)
        column = f"{target}_baseline_forecast"
    elif model_name == "varx":
        trends = _fit_trends(panel, (target,) + drivers, train_length, trend_cfg)
        model, design = _varx_recipe(
            panel, target, drivers, train_length, horizon, harmonics, trends
        )
        values = forecast_recursive(model, horizon, design.values[train_length:])[:, 0]
        column = f"{target}_forecast"
    else:
        trends = _fit_trends(panel, drivers, train_length, trend_cfg)
        feature_panel, dataset, extras = _forest_features(
            panel, target, drivers, train_length, horizon, harmonics, lags, trends
        )
        train_rows = train_length - lags
        training = SupervisedDataset(
            dataset.feature_names,
            dataset.features[:train_rows],
            dataset.target[:train_rows],
        )
        cfg = ForestConfig(n_trees=trees, block_length=52, seed=run.seed)
        model = train_forest(training, cfg)
        values = _forest_recursive_forecast(
            model, feature_panel, target, train_length, horizon, lags, extras
        )
        column = f"{target}_forecast"
    name = f"forecast_{model_name}_{target}.csv"
    _write_csv(
        _out_path(run, name),
        ("week_start", column),
        ((axis[i].isoformat(), values[i]) for i in range(horizon)),
    )
    _write_manifest(run)
    return name


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
                 horizon: int) -> dict[str, MetricReport]:
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
    return reports


def cmd_pipeline(run: RunConfig, synth_cfg: SynthConfig, target: str,
                 driver: str, train_length: int, horizon: int,
                 replicates: int, trees: int, lags: int, harmonics: int,
                 irf_horizon: int) -> None:
    """Full synthetic reproduction: generate, aggregate, screen, select,
    fit all model families, forecast, and tabulate accuracy.

    Every stage consumes the files the stage before it wrote, so the run
    also exercises the CSV round trips the individual subcommands rely on.
    """
    trend_cfg = TrendFitConfig(seed=run.seed)

    # Stage 1: synthetic world.
    records = generate_synthetic_daily(synth_cfg)
    daily_path = _out_path(run, "synthetic_daily.csv")
    write_daily_csv(records, daily_path)
    write_panel_csv(
        synthetic_panel_from_daily(synth_cfg, records),
        _out_path(run, "synthetic_panel.csv"),
    )

    # Stage 2: climate features from the daily file, demand joined back on.
    climate = aggregate_weekly_national(read_daily_csv(daily_path), FeatureConfig())
    demand = read_panel_csv(_out_path(run, "synthetic_panel.csv")).column(target)
    columns = {target: demand}
    columns.update({n: climate.column(n) for n in climate.column_names})
    panel = PanelDataset(climate.week_starts, columns)
    panel_path = _out_path(run, "weekly_panel.csv")
    write_panel_csv(panel, panel_path)

    # Stage 3: causality screen, both directions.
    gc_cfg = GcBootstrapConfig(n_replicates=replicates, seed=run.seed)
    for cause, effect in ((driver, target), (target, driver)):
        x = _gc_series(panel, cause, raw=False)
        y = _gc_series(panel, effect, raw=False)
        result = unconditional_gc_spectrum(x, y, gc_cfg)
        _write_csv(
            _out_path(run, f"gc_{cause}_to_{effect}.csv"),
            _SPECTRUM_HEADER,
            _spectrum_rows(result),
        )

    # Stage 4: importance ranking on the screened predictor set.
    train_panel = panel.slice_weeks(0, train_length)
    sub = PanelDataset(
        train_panel.week_starts,
        {n: train_panel.column(n) for n in (target, driver)},
    )
    dataset = lagged_design_matrix(sub, target, lags=lags)
    forest_cfg = ForestConfig(n_trees=trees, block_length=52, seed=run.seed)
    selection = train_forest(dataset, forest_cfg)
    _write_csv(
        _out_path(run, f"importance_{target}.csv"),
        ("feature", "score"),
        impurity_importance(selection).ranked(),
    )
    _write_json(_out_path(run, f"oob_{target}.json"), _oob_payload(selection, dataset))
    # The forests set the run's peak memory: release this one before stage 6
    # grows the next.
    del selection

    # Stage 5: fit artifacts for the VARX (coefficients, IRF, FEVD).  The
    # trend fits also give the stage-6 trend forecast and forest baseline.
    trends = _fit_trends(panel, (target, driver), train_length, trend_cfg)
    varx_model, varx_design = _varx_recipe(
        panel, target, (driver,), train_length, horizon, harmonics, trends
    )
    _fit_varx_artifacts(run, varx_model, replicates, irf_horizon)

    # Stage 6: forecasts from all three families.
    forecast_paths: dict[str, str] = {}

    axis = _forecast_axis(panel, train_length, horizon)

    def emit(name: str, column: str, values: np.ndarray) -> None:
        file_name = f"forecast_{name}_{target}.csv"
        _write_csv(
            _out_path(run, file_name),
            ("week_start", column),
            ((axis[i].isoformat(), values[i]) for i in range(horizon)),
        )
        forecast_paths[name] = _out_path(run, file_name)

    emit("trend", f"{target}_baseline_forecast", trend_forecast(trends[target], horizon))
    emit(
        "varx",
        f"{target}_forecast",
        forecast_recursive(varx_model, horizon, varx_design.values[train_length:])[:, 0],
    )

    feature_panel, forest_dataset, extras = _forest_features(
        panel, target, (driver,), train_length, horizon, harmonics, lags, trends
    )
    train_rows = train_length - lags
    training = SupervisedDataset(
        forest_dataset.feature_names,
        forest_dataset.features[:train_rows],
        forest_dataset.target[:train_rows],
    )
    predictive = train_forest(training, forest_cfg)
    emit(
        "forest",
        f"{target}_forecast",
        _forest_recursive_forecast(
            predictive, feature_panel, target, train_length, horizon, lags, extras
        ),
    )

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
# argument parsing and config-file resolution


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="climdemand",
        description=(
            "Frequency-domain climate-demand causality screening and demand "
            "forecasting on weekly panels."
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "Configuration file (--config) format: INI-style sections, one per\n"
            "subcommand plus [run] for the global options, flat key = value\n"
            "pairs using the long option names with underscores.  Command-line\n"
            "flags override the file; environment variables are ignored.\n"
            "\n"
            "Example:\n"
            "    [run]\n"
            "    seed = 7\n"
            "    out_dir = results\n"
            "\n"
            "    [pipeline]\n"
            "    replicates = 1000\n"
            "    trees = 1000\n"
        ),
    )
    parser.add_argument("--config", help="INI configuration file")
    parser.add_argument("--seed", type=int, help="master seed (default 0)")
    parser.add_argument("--out-dir", help="output directory (default .)")
    parser.add_argument(
        "--threads", type=int,
        help="accepted for compatibility; no command uses it any more",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("synth", help="generate the synthetic daily + weekly files")
    p.add_argument("--n-weeks", type=int)
    p.add_argument("--demand-noise-sd", type=float)
    p.add_argument("--coupling",
                   help="comma-separated lag coefficients, e.g. --coupling=-2500,-1000")
    p.add_argument("--break-weeks", help="comma-separated level-shift weeks; empty for none")
    p.add_argument("--level-shifts",
                   help="comma-separated shift sizes, one per break week "
                        "(use --level-shifts=-100,50 for negatives)")

    p = commands.add_parser("features", help="aggregate a daily climate CSV to weekly")
    p.add_argument("--daily", required=True, help="regional daily climate CSV")
    p.add_argument("--out", help="output panel file name (default weekly_panel.csv)")
    p.add_argument("--wet-day-threshold-mm", type=float)
    p.add_argument("--extreme-quantile", type=float)

    p = commands.add_parser("gc", help="causality spectrum between two panel columns")
    p.add_argument("--panel", required=True)
    p.add_argument("--cause", required=True)
    p.add_argument("--effect", required=True)
    p.add_argument("--conditioning", help="project this column out first")
    p.add_argument("--replicates", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--block-length", type=float)
    p.add_argument("--max-var-order", type=int)
    p.add_argument(
        "--raw", action="store_true", default=None,
        help="use the columns as-is (skip HP detrending and deseasonalization)",
    )

    p = commands.add_parser("select", help="rank lagged predictors by forest importance")
    p.add_argument("--panel", required=True)
    p.add_argument("--target")
    p.add_argument("--columns", help="comma-separated candidate columns (default: all)")
    p.add_argument("--lags", type=int)
    p.add_argument("--trees", type=int)
    p.add_argument("--block-length", type=int)
    p.add_argument("--min-node-size", type=int)

    p = commands.add_parser(
        "sparse-var",
        help="penalized VAR coefficient table on deseasonalized cycles",
    )
    p.add_argument("--panel", required=True)
    p.add_argument("--columns", help="comma-separated panel columns to model")
    p.add_argument("--equation", help="equation to tabulate (default: first column)")
    p.add_argument("--order", type=int)
    p.add_argument("--penalty", type=float,
                   help="L1 weight; rolling-origin selection when omitted")
    p.add_argument(
        "--raw", action="store_true", default=None,
        help="use the columns as-is (skip HP detrending and deseasonalization)",
    )

    for name, help_text in (
        ("fit", "train a model on the full panel and emit fit artifacts"),
        ("forecast", "train on the first weeks and forecast the following ones"),
    ):
        p = commands.add_parser(name, help=help_text)
        p.add_argument("--panel", required=True)
        p.add_argument("--model", required=True, choices=("trend", "varx", "forest"))
        p.add_argument("--target")
        p.add_argument("--drivers",
                       help="comma-separated climate drivers (default temperature)")
        p.add_argument("--harmonics", type=int)
        p.add_argument("--lags", type=int)
        p.add_argument("--trees", type=int)
        if name == "fit":
            p.add_argument("--replicates", type=int)
            p.add_argument("--irf-horizon", type=int)
        else:
            p.add_argument("--train-length", type=int)
            p.add_argument("--horizon", type=int)

    p = commands.add_parser("evaluate", help="score forecast files on the holdout window")
    p.add_argument("--panel", required=True)
    p.add_argument("--target")
    p.add_argument("--forecast", action="append", metavar="NAME=PATH",
                   help="repeatable; e.g. --forecast varx=out/forecast_varx.csv")
    p.add_argument("--train-length", type=int)
    p.add_argument("--horizon", type=int)

    p = commands.add_parser("pipeline", help="synthetic end-to-end reproduction run")
    p.add_argument("--n-weeks", type=int)
    p.add_argument("--target")
    p.add_argument("--driver")
    p.add_argument("--train-length", type=int)
    p.add_argument("--horizon", type=int)
    p.add_argument("--replicates", type=int)
    p.add_argument("--trees", type=int)
    p.add_argument("--lags", type=int)
    p.add_argument("--harmonics", type=int)
    p.add_argument("--irf-horizon", type=int)

    return parser


class _Resolver:
    """Layered option lookup: explicit flag, then config file, then default."""

    def __init__(self, args: argparse.Namespace, parser: configparser.ConfigParser,
                 section: str):
        self.args = args
        self.parser = parser
        self.section = section

    def _from_file(self, key: str, cast):
        for section in (self.section, "run"):
            if self.parser.has_option(section, key):
                raw = self.parser.get(section, key)
                if cast is bool:
                    return self.parser.getboolean(section, key)
                return cast(raw)
        return None

    def get(self, key: str, default=None, cast=str):
        value = getattr(self.args, key, None)
        if value is not None:
            return value
        value = self._from_file(key, cast)
        if value is not None:
            return value
        return default


def _load_config_file(path: str | None) -> configparser.ConfigParser:
    parser = configparser.ConfigParser()
    if path is not None:
        read = parser.read(path)
        if not read:
            raise InvalidInputError(f"configuration file not found: {path!r}")
        unknown = [s for s in parser.sections() if s not in _CONFIG_SECTIONS]
        if unknown:
            raise ConfigError(
                {s: "unknown configuration section" for s in unknown}
            )
    return parser


def _float_tuple(text: str) -> tuple[float, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(float(part) for part in text.split(","))


def _name_tuple(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _parse_forecast_pairs(entries) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for entry in entries:
        name, sep, path = entry.partition("=")
        if not sep or not name.strip() or not path.strip():
            raise InvalidInputError(
                f"--forecast expects NAME=PATH, got {entry!r}"
            )
        pairs[name.strip()] = path.strip()
    if not pairs:
        raise InvalidInputError("evaluate needs at least one --forecast NAME=PATH")
    return pairs


def _dispatch(args: argparse.Namespace) -> None:
    file_cfg = _load_config_file(args.config)
    opt = _Resolver(args, file_cfg, args.command)
    run = RunConfig(
        command=args.command,
        out_dir=opt.get("out_dir", ".", cast=str),
        seed=opt.get("seed", 0, cast=int),
        threads=opt.get("threads", 1, cast=int),
        parameters={},
    )
    if run.seed < 0:
        raise ConfigError({"seed": "must be nonnegative"})
    if run.threads < 1:
        raise ConfigError({"threads": "must be at least 1"})

    if args.command == "synth":
        kwargs = {"seed": run.seed}
        n_weeks = opt.get("n_weeks", cast=int)
        if n_weeks is not None:
            kwargs["n_weeks"] = n_weeks
        noise = opt.get("demand_noise_sd", cast=float)
        if noise is not None:
            kwargs["demand_noise_sd"] = noise
        coupling = opt.get("coupling", cast=str)
        if coupling is not None:
            kwargs["temperature_coupling"] = _float_tuple(coupling)
        breaks = opt.get("break_weeks", cast=str)
        if breaks is not None:
            kwargs["break_weeks"] = tuple(int(w) for w in _float_tuple(breaks))
        shifts = opt.get("level_shifts", cast=str)
        if shifts is not None:
            kwargs["level_shifts"] = _float_tuple(shifts)
        cfg = SynthConfig(**kwargs)
        run = dataclasses.replace(
            run, parameters={k: list(v) if isinstance(v, tuple) else v
                             for k, v in kwargs.items()},
        )
        cmd_synth(run, cfg)

    elif args.command == "features":
        feature_cfg = FeatureConfig(
            wet_day_threshold_mm=opt.get("wet_day_threshold_mm", 1.0, cast=float),
            extreme_quantile=opt.get("extreme_quantile", 0.999, cast=float),
        )
        out_name = opt.get("out", "weekly_panel.csv")
        run = dataclasses.replace(
            run,
            parameters={
                "daily": args.daily,
                "out": out_name,
                "wet_day_threshold_mm": feature_cfg.wet_day_threshold_mm,
                "extreme_quantile": feature_cfg.extreme_quantile,
            },
        )
        cmd_features(run, args.daily, out_name, feature_cfg)

    elif args.command == "gc":
        gc_cfg = GcBootstrapConfig(
            n_replicates=opt.get("replicates", 1000, cast=int),
            alpha=opt.get("alpha", 0.05, cast=float),
            expected_block_length=opt.get("block_length", cast=float),
            max_var_order=opt.get("max_var_order", 4, cast=int),
            seed=run.seed,
        )
        raw = bool(opt.get("raw", False, cast=bool))
        run = dataclasses.replace(
            run,
            parameters={
                "panel": args.panel,
                "cause": args.cause,
                "effect": args.effect,
                "conditioning": args.conditioning,
                "replicates": gc_cfg.n_replicates,
                "alpha": gc_cfg.alpha,
                "block_length": gc_cfg.expected_block_length,
                "max_var_order": gc_cfg.max_var_order,
                "raw": raw,
            },
        )
        cmd_gc(run, args.panel, args.cause, args.effect, args.conditioning,
               gc_cfg, raw)

    elif args.command == "select":
        target = opt.get("target", "drug_demand")
        columns = opt.get("columns", cast=str)
        column_names = _name_tuple(columns) if columns else ()
        forest_cfg = ForestConfig(
            n_trees=opt.get("trees", 1000, cast=int),
            min_node_size=opt.get("min_node_size", 5, cast=int),
            block_length=opt.get("block_length", 52, cast=int),
            seed=run.seed,
        )
        lags = opt.get("lags", 4, cast=int)
        run = dataclasses.replace(
            run,
            parameters={
                "panel": args.panel,
                "target": target,
                "columns": list(column_names),
                "lags": lags,
                "trees": forest_cfg.n_trees,
                "block_length": forest_cfg.block_length,
                "min_node_size": forest_cfg.min_node_size,
            },
        )
        cmd_select(run, args.panel, target, column_names, lags, forest_cfg)

    elif args.command == "sparse-var":
        columns = _name_tuple(opt.get("columns", "drug_demand,temperature"))
        equation = opt.get("equation", columns[0] if columns else "")
        order = opt.get("order", 4, cast=int)
        penalty = opt.get("penalty", cast=float)
        raw = bool(opt.get("raw", False, cast=bool))
        run = dataclasses.replace(
            run,
            parameters={
                "panel": args.panel,
                "columns": list(columns),
                "equation": equation,
                "order": order,
                "penalty": penalty,
                "raw": raw,
            },
        )
        cmd_sparse_var(run, args.panel, columns, equation, order, penalty, raw)

    elif args.command in ("fit", "forecast"):
        target = opt.get("target", "drug_demand")
        drivers_text = opt.get("drivers", "temperature")
        drivers = _name_tuple(drivers_text)
        harmonics = opt.get("harmonics", 1, cast=int)
        lags = opt.get("lags", 4, cast=int)
        trees = opt.get("trees", 1000, cast=int)
        trend_cfg = TrendFitConfig(seed=run.seed)
        common = {
            "panel": args.panel,
            "model": args.model,
            "target": target,
            "drivers": list(drivers),
            "harmonics": harmonics,
            "lags": lags,
            "trees": trees,
        }
        if args.command == "fit":
            replicates = opt.get("replicates", 1000, cast=int)
            irf_horizon = opt.get("irf_horizon", 26, cast=int)
            run = dataclasses.replace(
                run,
                parameters={**common, "replicates": replicates,
                            "irf_horizon": irf_horizon},
            )
            cmd_fit(run, args.panel, args.model, target, drivers, harmonics,
                    lags, replicates, trees, irf_horizon, trend_cfg)
        else:
            train_length = opt.get("train_length", 338, cast=int)
            horizon = opt.get("horizon", 52, cast=int)
            run = dataclasses.replace(
                run,
                parameters={**common, "train_length": train_length,
                            "horizon": horizon},
            )
            cmd_forecast(run, args.panel, args.model, target, drivers,
                         train_length, horizon, harmonics, lags, trees, trend_cfg)

    elif args.command == "evaluate":
        target = opt.get("target", "drug_demand")
        entries = args.forecast or []
        from_file = opt.get("forecasts", cast=str)
        if not entries and from_file:
            entries = [part.strip() for part in from_file.split(",") if part.strip()]
        forecasts = _parse_forecast_pairs(entries)
        train_length = opt.get("train_length", 338, cast=int)
        horizon = opt.get("horizon", 52, cast=int)
        run = dataclasses.replace(
            run,
            parameters={
                "panel": args.panel,
                "target": target,
                "forecasts": forecasts,
                "train_length": train_length,
                "horizon": horizon,
            },
        )
        cmd_evaluate(run, args.panel, target, forecasts, train_length, horizon)

    else:  # pipeline
        synth_kwargs = {"seed": run.seed}
        n_weeks = opt.get("n_weeks", cast=int)
        if n_weeks is not None:
            synth_kwargs["n_weeks"] = n_weeks
        synth_cfg = SynthConfig(**synth_kwargs)
        params = {
            "target": opt.get("target", "drug_demand"),
            "driver": opt.get("driver", "temperature"),
            "train_length": opt.get("train_length", 338, cast=int),
            "horizon": opt.get("horizon", 52, cast=int),
            "replicates": opt.get("replicates", 1000, cast=int),
            "trees": opt.get("trees", 1000, cast=int),
            "lags": opt.get("lags", 4, cast=int),
            "harmonics": opt.get("harmonics", 1, cast=int),
            "irf_horizon": opt.get("irf_horizon", 26, cast=int),
        }
        run = dataclasses.replace(
            run, parameters={**params, "n_weeks": synth_cfg.n_weeks}
        )
        cmd_pipeline(run, synth_cfg, **params)


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
