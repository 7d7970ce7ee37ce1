"""Climate-to-demand causality spectra and weekly demand forecasting toolkit.

The package is organized around a weekly national panel (``PanelDataset``):
climate feature construction from a regional daily table (``DailyClimate``),
frequency-domain Granger causality with stationary-bootstrap thresholds, and
three demand model families (structural trend, VARX, lag-embedded random
forest) scored on a common holdout.  ``climdemand.cli`` exposes the same
steps as subcommands of the ``climdemand`` console script.
"""

from climdemand.diagnostics import arch_lm_test, portmanteau_test
from climdemand.errors import (
    AlignmentError,
    ConfigError,
    ConvergenceError,
    DegenerateInputError,
    IngestionError,
    InsufficientDataError,
    InvalidInputError,
    MetricUndefinedError,
    RankDeficiencyError,
    ShapeError,
    StabilityError,
    ToolkitError,
)
from climdemand.features import FeatureConfig, aggregate_weekly_national
from climdemand.forest import (
    ForestConfig,
    impurity_importance,
    lagged_design_matrix,
    oob_metrics,
    train_forest,
)
from climdemand.hpfilter import hp_cycle, hp_trend, seasonal_adjust
from climdemand.metrics import compare_models, evaluate_forecast
from climdemand.panel import (
    DailyClimate,
    PanelDataset,
    read_daily_csv,
    read_panel_csv,
    write_daily_csv,
    write_panel_csv,
)
from climdemand.sparsevar import fit_lasso_var, lambda_max, select_lambda
from climdemand.spectral import (
    GcBootstrapConfig,
    conditional_gc_spectrum,
    unconditional_gc_spectrum,
)
from climdemand.synth import SynthConfig, generate_synthetic_daily, generate_synthetic_panel
from climdemand.trend import TrendFitConfig, fit_trend_model
from climdemand.varx import (
    bias_correct,
    build_exogenous,
    fevd,
    fit_varx,
    forecast_recursive,
    irf,
    residual_bootstrap,
)

__version__ = "0.1.0"

__all__ = [
    "AlignmentError",
    "ConfigError",
    "ConvergenceError",
    "DailyClimate",
    "DegenerateInputError",
    "FeatureConfig",
    "ForestConfig",
    "GcBootstrapConfig",
    "IngestionError",
    "InsufficientDataError",
    "InvalidInputError",
    "MetricUndefinedError",
    "PanelDataset",
    "RankDeficiencyError",
    "ShapeError",
    "StabilityError",
    "SynthConfig",
    "ToolkitError",
    "TrendFitConfig",
    "aggregate_weekly_national",
    "arch_lm_test",
    "bias_correct",
    "build_exogenous",
    "compare_models",
    "conditional_gc_spectrum",
    "evaluate_forecast",
    "fevd",
    "fit_lasso_var",
    "fit_trend_model",
    "fit_varx",
    "forecast_recursive",
    "generate_synthetic_daily",
    "generate_synthetic_panel",
    "hp_cycle",
    "hp_trend",
    "impurity_importance",
    "irf",
    "lagged_design_matrix",
    "lambda_max",
    "oob_metrics",
    "portmanteau_test",
    "read_daily_csv",
    "read_panel_csv",
    "residual_bootstrap",
    "seasonal_adjust",
    "select_lambda",
    "train_forest",
    "unconditional_gc_spectrum",
    "write_daily_csv",
    "write_panel_csv",
]
