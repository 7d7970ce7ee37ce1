"""End-to-end command-line tests on small synthetic inputs.

Each test drives ``climdemand.cli.main`` the way a shell would: string
arguments in, files and exit codes out.  Sizes are kept small so the whole
module runs in seconds; the full-size reproduction run lives in the
acceptance suite.
"""

import inspect
import itertools
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from climdemand.cli import main as cli_main
from climdemand.features import FeatureConfig
from climdemand.forest import ForestConfig
from climdemand.panel import (
    DAILY_CSV_HEADER,
    PanelDataset,
    format_float,
    read_panel_csv,
    write_panel_csv,
)
from climdemand.spectral import GcBootstrapConfig
from climdemand.synth import SynthConfig

SMALL_SYNTH = (
    "synth",
    "--n-weeks", "140",
    "--break-weeks", "40,90",
    "--level-shifts=-20000,12000",
)


def run_cli(*args):
    return cli_main([str(a) for a in args])


def make_panel(tmp_path, seed=0):
    """Generate a small synthetic panel and return its path."""
    out = tmp_path / "data"
    assert run_cli("--seed", seed, "--out-dir", out, *SMALL_SYNTH) == 0
    return out / "synthetic_panel.csv"


def error_json(capsys):
    err = capsys.readouterr().err
    return json.loads(err)


def file_bytes(root):
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def as_flags(options):
    """Command-line flags for ``{option: value}``; a list repeats the flag."""
    argv = []
    for name, value in options.items():
        flag = "--" + ("forecast" if name == "forecasts" else name).replace("_", "-")
        if value is True:
            argv.append(flag)
        else:
            argv += [f"{flag}={v}" for v in (value if isinstance(value, list) else [value])]
    return argv


def write_config(path, sections):
    """INI file from ``{section: {option: value}}``; a list joins with commas."""
    path.write_text("".join(
        f"[{name}]\n" + "".join(
            f"{k} = {','.join(v) if isinstance(v, list) else v}\n" for k, v in keys.items()
        )
        for name, keys in sections.items()
    ))
    return path


def captured_call(*argv):
    """Run the CLI with every cmd_* function replaced by a recorder and return
    the one call's ``run`` and its other arguments by parameter name."""
    from climdemand import cli

    calls = []
    with pytest.MonkeyPatch.context() as patch:
        for name, function in list(vars(cli).items()):
            if name.startswith("cmd_"):
                signature = inspect.signature(function)
                patch.setattr(
                    cli, name,
                    lambda *a, _sig=signature, **k: calls.append(_sig.bind(*a, **k).arguments),
                )
        assert run_cli(*argv) == 0
    (arguments,) = calls
    return arguments.pop("run"), arguments


class TestSynthAndFeatures:
    def test_synth_writes_panel_daily_and_manifest(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("--seed", 3, "--out-dir", out, *SMALL_SYNTH) == 0
        panel = read_panel_csv(str(out / "synthetic_panel.csv"))
        assert panel.n_weeks == 140
        assert panel.column_names[0] == "drug_demand"
        manifest = json.loads((out / "synth_manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["seed"] == 3
        assert manifest["parameters"]["n_weeks"] == 140
        assert manifest["parameters"]["break_weeks"] == [40, 90]

    def test_synth_generates_the_daily_records_once(self, tmp_path, monkeypatch):
        from climdemand import cli, synth

        calls = []
        generate = synth.generate_synthetic_daily

        def counted(cfg):
            calls.append(cfg)
            return generate(cfg)

        monkeypatch.setattr(synth, "generate_synthetic_daily", counted)
        monkeypatch.setattr(cli, "generate_synthetic_daily", counted)
        assert run_cli("--seed", 3, "--out-dir", tmp_path, *SMALL_SYNTH) == 0
        assert len(calls) == 1

    def test_features_rebuilds_climate_columns(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("--seed", 1, "--out-dir", out, *SMALL_SYNTH) == 0
        assert run_cli(
            "--out-dir", out, "features", "--daily", out / "synthetic_daily.csv"
        ) == 0
        weekly = read_panel_csv(str(out / "weekly_panel.csv"))
        source = read_panel_csv(str(out / "synthetic_panel.csv"))
        # The daily file carries climate only; demand stays with the panel.
        assert "drug_demand" not in weekly.column_names
        assert weekly.week_starts == source.week_starts
        np.testing.assert_allclose(
            weekly.column("temperature"), source.column("temperature"), rtol=1e-9
        )

    def test_synth_breaks_can_be_disabled(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(
            "--seed", 0, "--out-dir", out,
            "synth", "--n-weeks", "80", "--break-weeks", "", "--level-shifts", "",
        )
        assert code == 0
        assert read_panel_csv(str(out / "synthetic_panel.csv")).n_weeks == 80


    def test_short_synth_keeps_the_default_breaks_inside_it(self, tmp_path):
        # The default level breaks sit at weeks 222 and 298.  A shorter synth
        # panel keeps those inside it, as the pipeline's does, so both write
        # the same synthetic files, and the manifest replays them.
        synth, pipeline, replay = (tmp_path / name for name in ("synth", "pipeline", "replay"))
        assert run_cli("--out-dir", synth, "synth", "--n-weeks", 160) == 0
        assert run_cli(
            "--out-dir", pipeline, "pipeline", "--n-weeks", 160, "--replicates", 100,
            "--trees", 5,
        ) == 0
        for name in ("synthetic_daily.csv", "synthetic_panel.csv"):
            assert (synth / name).read_bytes() == (pipeline / name).read_bytes()
        manifest = json.loads((synth / "synth_manifest.json").read_text())
        parameters = {k: v for k, v in manifest["parameters"].items() if k != "seed"}
        assert run_cli(
            "--seed", manifest["seed"], "--out-dir", replay, "synth", *as_flags(parameters)
        ) == 0
        assert file_bytes(replay) == file_bytes(synth)


class TestErrorReporting:
    def test_unknown_column_named(self, tmp_path, capsys):
        panel = make_panel(tmp_path)
        code = run_cli(
            "--out-dir", tmp_path, "gc",
            "--panel", panel, "--cause", "nope", "--effect", "drug_demand",
        )
        assert code == 1
        payload = error_json(capsys)
        assert payload["error"] == "UnknownColumnError"
        assert payload["columns"] == ["nope"]
        assert "nope" in payload["message"]

    def test_config_error_lists_every_violated_field(self, tmp_path, capsys):
        code = run_cli(
            "--out-dir", tmp_path, "synth",
            "--n-weeks", "5", "--demand-noise-sd=-3",
        )
        assert code == 1
        payload = error_json(capsys)
        assert payload["error"] == "ConfigError"
        assert {"n_weeks", "demand_noise_sd"} <= set(payload["fields"])

    def test_ingestion_error_carries_line_number(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "week_start,drug_demand\n2016-01-04,1.0\n2016-01-12,2.0\n"
        )
        code = run_cli(
            "--out-dir", tmp_path, "gc",
            "--panel", bad, "--cause", "drug_demand", "--effect", "drug_demand",
        )
        assert code == 1
        payload = error_json(capsys)
        assert payload["error"] == "IngestionError"
        assert payload["line"] == 3

    def test_evaluate_rejects_misaligned_forecast(self, tmp_path, capsys):
        panel = make_panel(tmp_path)
        out = tmp_path / "out"
        assert run_cli(
            "--seed", 0, "--out-dir", out, "forecast",
            "--panel", panel, "--model", "trend",
            "--train-length", "100", "--horizon", "8",
        ) == 0
        code = run_cli(
            "--out-dir", out, "evaluate", "--panel", panel,
            "--forecast", f"trend={out / 'forecast_trend_drug_demand.csv'}",
            "--train-length", "100", "--horizon", "20",
        )
        assert code == 1
        assert error_json(capsys)["error"] == "AlignmentError"

    def test_unknown_config_section_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[bogus]\nx = 1\n")
        code = run_cli("--config", cfg, "--out-dir", tmp_path, *SMALL_SYNTH)
        assert code == 1
        payload = error_json(capsys)
        assert payload["error"] == "ConfigError"
        assert "bogus" in payload["fields"]

    @pytest.mark.parametrize("cell", [b"caf\xe9", b"1" * 200_000], ids=["latin-1", "oversized"])
    @pytest.mark.parametrize("command, header", [
        (("gc", "--cause", "x", "--effect", "x", "--panel"), b"week_start,x\n2016-01-04,1\n"),
        (("features", "--daily"), ",".join(DAILY_CSV_HEADER).encode() + b"\n"),
    ], ids=["panel", "daily"])
    def test_unreadable_csv_cell_is_an_ingestion_error(self, tmp_path, capsys, command, header,
                                                       cell):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(header + cell + b"\n")
        assert run_cli("--out-dir", tmp_path, *command, bad) == 1
        payload = error_json(capsys)
        assert payload["error"] == "IngestionError"
        assert payload["line"] == header.count(b"\n") + 1

    def test_config_file_that_is_not_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_bytes(b"[synth]\nn_weeks = 1\xe9\n")
        code = run_cli("--config", cfg, "--out-dir", tmp_path, *SMALL_SYNTH)
        assert code == 1
        payload = error_json(capsys)
        assert payload["error"] == "InvalidInputError"
        assert "can't decode byte 0xe9" in payload["message"]

    def test_missing_config_file(self, tmp_path, capsys):
        code = run_cli(
            "--config", tmp_path / "absent.ini", "--out-dir", tmp_path, "synth"
        )
        assert code == 1
        assert error_json(capsys)["error"] == "InvalidInputError"

    def test_out_dir_below_a_regular_file(self, tmp_path, capsys):
        blocker = tmp_path / "afile"
        blocker.write_text("")
        code = run_cli("--out-dir", blocker / "sub", *SMALL_SYNTH)
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        payload = json.loads(err)
        assert payload["error"] == "FileAccessError"
        assert payload["path"] == str(blocker / "sub")

    @pytest.mark.parametrize("penalty", [(), ("--penalty", "0.1")])
    def test_sparse_var_order_zero(self, tmp_path, capsys, penalty):
        # Without --penalty the order reaches the penalty search first.
        panel = make_panel(tmp_path)
        capsys.readouterr()
        code = run_cli(
            "--out-dir", tmp_path / "out", "sparse-var", "--panel", panel,
            "--order", "0", *penalty,
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        payload = json.loads(err)
        assert payload["error"] == "InvalidInputError"
        assert "order" in payload["message"]

    def test_sparse_var_column_named_twice(self, tmp_path, capsys):
        panel = make_panel(tmp_path)
        capsys.readouterr()
        code = run_cli(
            "--out-dir", tmp_path / "out", "sparse-var", "--panel", panel,
            "--columns", "drug_demand,drug_demand", "--order", "2",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        payload = json.loads(err)
        assert payload["error"] == "InvalidInputError"
        assert payload["message"].endswith("duplicate variable name in data: drug_demand")
        assert not (tmp_path / "out" / "sparse_var_drug_demand.csv").exists()

    @pytest.mark.parametrize("roles", [
        {"cause": "temperature", "effect": "temperature"},
        {"cause": "temperature", "effect": "drug_demand", "conditioning": "temperature"},
        {"cause": "drug_demand", "effect": "temperature", "conditioning": "temperature"},
    ])
    def test_gc_column_named_twice(self, tmp_path, capsys, roles):
        panel = make_panel(tmp_path)
        capsys.readouterr()
        out = tmp_path / "out"
        code = run_cli(
            "--out-dir", out, "gc", "--panel", panel, "--replicates", 100, *as_flags(roles)
        )
        assert code == 1
        payload = error_json(capsys)
        assert payload["error"] == "InvalidInputError"
        assert payload["message"] == (
            "column named twice among --cause, --effect and --conditioning: temperature"
        )
        assert not out.exists() or not list(out.iterdir())

    def test_unknown_names_raise_toolkit_errors(self, tmp_path):
        # Every lookup by name fails with the toolkit's error (still a KeyError).
        from climdemand.errors import ToolkitError
        from climdemand.forest import lagged_design_matrix
        from climdemand.sparsevar import coefficient_table, fit_lasso_var

        panel = read_panel_csv(str(make_panel(tmp_path)))
        data = panel.matrix(("drug_demand", "temperature"))
        sparse_model = fit_lasso_var(data, order=2, lam=0.1, names=("drug_demand", "temperature"))
        sites = (
            lambda: panel.column("nope"),
            lambda: lagged_design_matrix(panel, "nope", lags=2),
            lambda: lagged_design_matrix(panel, "drug_demand", lags=2, extra_columns=("nope",)),
            lambda: coefficient_table(sparse_model, "nope"),
        )
        for site in sites:
            with pytest.raises(ToolkitError) as excinfo:
                site()
            assert isinstance(excinfo.value, KeyError)
            assert excinfo.value.columns == ["nope"]
            assert str(excinfo.value).startswith("unknown column 'nope'; available: ")

    @pytest.mark.parametrize("drivers, error, message", [
        ("nope", "UnknownColumnError", "unknown column 'nope'; available: "),
        ("temperature,temperature", "InvalidInputError",
         "--drivers names 'temperature' more than once"),
        ("drug_demand", "InvalidInputError",
         "--drivers and --target must differ, both name 'drug_demand'"),
        ("", "InvalidInputError", "--drivers must name at least one column for --model varx"),
    ], ids=["unknown", "repeated", "target", "empty"])
    @pytest.mark.parametrize("model", ["trend", "varx", "forest"])
    @pytest.mark.parametrize("command", ["fit", "forecast"])
    def test_drivers_checked_for_every_model(self, tmp_path, capsys, command, model, drivers,
                                             error, message):
        panel = make_panel(tmp_path)
        if error == "UnknownColumnError":
            message += ", ".join(read_panel_csv(str(panel)).column_names)
        window = ("--train-length", 100, "--horizon", 8) if command == "forecast" else ()
        capsys.readouterr()
        out = tmp_path / "out"
        out.mkdir()
        code = run_cli(
            "--out-dir", out, command, "--panel", panel, "--model", model, "--drivers", drivers,
            *window,
        )
        if not drivers and model != "varx":
            # Trend and forest fit the target alone.
            assert code == 0
            return
        assert code == 1
        payload = error_json(capsys)
        assert (payload["error"], payload["message"]) == (error, message)
        assert not list(out.iterdir())

    def test_missing_panel_file(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        code = run_cli(
            "--out-dir", tmp_path, "gc",
            "--panel", missing, "--cause", "temperature", "--effect", "drug_demand",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        payload = json.loads(err)
        assert payload["error"] == "FileAccessError"
        assert payload["path"] == str(missing)
        assert "No such file" in payload["message"]

    def test_bad_values_are_config_errors(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.ini", {"gc": {"replicates": "abc", "raw": "maybe"}})
        code = run_cli(
            "--config", cfg, "--out-dir", tmp_path, "gc",
            "--panel", "p.csv", "--cause", "temperature", "--effect", "drug_demand",
        )
        assert code == 1
        payload = error_json(capsys)
        assert payload["error"] == "ConfigError"
        assert set(payload["fields"]) == {"replicates", "raw"}
        assert "'abc' in [gc]" in payload["fields"]["replicates"]

        assert run_cli("--out-dir", tmp_path, "--seed=x", "synth", "--coupling", "abc") == 1
        payload = error_json(capsys)
        assert payload["error"] == "ConfigError"
        assert set(payload["fields"]) == {"coupling", "seed"}

    @pytest.mark.parametrize("argv, sections, option, problem", [
        (("gc", "--replicates", "50"), {}, "replicates", "must be an integer >= 100, got 50"),
        (("gc",), {"gc": {"replicates": 50}}, "replicates", "must be an integer >= 100, got 50"),
        (("gc", "--block-length", "inf"), {}, "block_length",
         "must be a finite number in [1, inf), got inf"),
        (("select", "--trees", "0"), {}, "trees", "must be an integer >= 1, got 0"),
        (("synth", "--coupling", "9,9"), {}, "coupling",
         "every value must be a finite number in (-inf, 0], got 9.0"),
        (("fit", "--model", "varx", "--replicates", "50"), {}, "replicates",
         "must be an integer >= 100, got 50"),
    ], ids=["gc-flag", "gc-file", "gc-block-length", "select", "synth", "fit-varx"])
    def test_config_errors_name_the_option(self, tmp_path, capsys, argv, sections, option,
                                           problem):
        # A command's config object names its own fields (n_replicates,
        # expected_block_length, n_trees, temperature_coupling); the error
        # names the option that set the value.
        run = {"panel": make_panel(tmp_path), "cause": "temperature", "effect": "drug_demand"}
        cfg = write_config(tmp_path / "cfg.ini", {"run": run, **sections})
        assert run_cli("--config", cfg, "--out-dir", tmp_path / "out", *argv) == 1
        payload = error_json(capsys)
        assert payload["error"] == "ConfigError"
        assert payload["fields"] == {option: problem}
        assert payload["message"] == f"invalid configuration ({option}: {problem})"

    def test_fractional_break_weeks_rejected(self, tmp_path, capsys):
        code = run_cli(
            "--out-dir", tmp_path, "synth", "--n-weeks", "80",
            "--break-weeks", "40.7", "--level-shifts", "100",
        )
        assert code == 1
        payload = error_json(capsys)
        assert payload["error"] == "ConfigError"
        assert set(payload["fields"]) == {"break_weeks"}
        assert not list(tmp_path.iterdir())

    def test_unknown_config_keys_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.ini", {
            "run": {"seed": 1, "trees": 30, "nope": 1},
            "gc": {"replicate": 10, "replicates": 100},
            "synth": {"trees": 30},
        })
        assert run_cli("--config", cfg, "--out-dir", tmp_path, *SMALL_SYNTH) == 1
        payload = error_json(capsys)
        assert payload["error"] == "ConfigError"
        # [run] takes any command's option; a section takes its command's.
        assert set(payload["fields"]) == {"run.nope", "gc.replicate", "synth.trees"}

    def test_missing_required_options_listed_together(self, tmp_path, capsys):
        assert run_cli("--out-dir", tmp_path, "gc", "--cause", "temperature") == 1
        payload = error_json(capsys)
        assert payload["error"] == "ConfigError"
        assert set(payload["fields"]) == {"panel", "effect"}

        assert run_cli("--out-dir", tmp_path, "forecast", "--model", "arima") == 1
        payload = error_json(capsys)
        assert payload["error"] == "ConfigError"
        assert set(payload["fields"]) == {"panel", "model"}
        assert "trend, varx or forest" in payload["fields"]["model"]

    def test_pipeline_window_checked_before_any_output(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli(
            "--out-dir", out, "pipeline", "--n-weeks", "380", "--train-length", "338",
            "--replicates", "100", "--trees", "10",
        )
        assert code == 1
        payload = error_json(capsys)
        assert payload["error"] == "AlignmentError"
        assert payload["message"] == (
            "--train-length 338 and --horizon 52 must be positive "
            "and together fit the panel's 380 weeks"
        )
        assert not out.exists() or not list(out.iterdir())
        # A default window that cannot fit names the flags too.
        assert run_cli("--out-dir", out, "pipeline", "--n-weeks", "40") == 1
        assert error_json(capsys)["message"].startswith("--train-length -12 and --horizon 52 ")
        assert not out.exists() or not list(out.iterdir())

    def test_pipeline_replicates_checked_before_any_output(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("--out-dir", out, "pipeline", "--replicates", "50") == 1
        payload = error_json(capsys)
        assert payload["error"] == "ConfigError"
        assert payload["fields"] == {"replicates": "must be an integer >= 100, got 50"}
        assert not out.exists() or not list(out.iterdir())

    def test_pipeline_forest_rows_checked_before_any_output(self, tmp_path, capsys):
        # 50 training weeks less 4 lags leave 46 rows: too few for the
        # selection forest of stage 4 as for the forecasting forest.
        out = tmp_path / "out"
        code = run_cli(
            "--out-dir", out, "pipeline", "--n-weeks", "100", "--horizon", "50",
            "--replicates", "100", "--trees", "5",
        )
        assert code == 1
        payload = error_json(capsys)
        assert payload["error"] == "AlignmentError"
        assert payload["message"] == (
            "--train-length 50 less --lags 4 leaves 46 forest training rows; "
            "its 52-week bootstrap blocks need at least 52"
        )
        assert not out.exists() or not list(out.iterdir())

    @staticmethod
    def occupied_out_dir(tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "kept.txt").write_text("kept\n")
        return out

    @pytest.mark.parametrize("option, value, floor", [
        ("trees", 0, 1), ("lags", 0, 1), ("harmonics", -1, 0), ("irf_horizon", 0, 1),
    ])
    def test_pipeline_settings_checked_before_any_output(
        self, tmp_path, capsys, option, value, floor
    ):
        out = self.occupied_out_dir(tmp_path)
        before = file_bytes(out)
        code = run_cli(
            "--out-dir", out, "pipeline", "--n-weeks", 160, "--replicates", 100,
            *as_flags({option: value}),
        )
        assert code == 1
        payload = error_json(capsys)
        assert payload["error"] == "ConfigError"
        assert payload["fields"] == {option: f"must be an integer >= {floor}, got {value}"}
        assert file_bytes(out) == before

    def test_pipeline_settings_reported_together(self, tmp_path, capsys):
        out = self.occupied_out_dir(tmp_path)
        before = file_bytes(out)
        bad = {"replicates": 50, "trees": 0, "lags": 0, "harmonics": -1, "irf_horizon": 0}
        assert run_cli("--out-dir", out, "pipeline", *as_flags(bad)) == 1
        assert set(error_json(capsys)["fields"]) == set(bad)
        assert file_bytes(out) == before

    CLIMATE = ("temperature, wind_speed, cloud_cover, specific_humidity, precipitation, fwi, "
               "temperature_sd, extreme_rainfall, wet_days")

    @pytest.mark.parametrize("columns, error, message", [
        ({"driver": "nosuch"}, "UnknownColumnError",
         f"unknown column 'nosuch'; available: {CLIMATE}"),
        ({"target": "nosuch"}, "UnknownColumnError",
         f"unknown column 'nosuch'; available: drug_demand, {CLIMATE}"),
        ({"driver": "drug_demand"}, "InvalidInputError",
         "--driver and --target must differ, both are 'drug_demand'"),
        # Stage 2's panel holds the target and the climate columns only.
        ({"target": "fwi", "driver": "drug_demand"}, "UnknownColumnError",
         "unknown column 'drug_demand'; available: " + CLIMATE.replace(" fwi,", "")),
    ])
    def test_pipeline_columns_checked_before_any_output(
        self, tmp_path, capsys, columns, error, message
    ):
        out = self.occupied_out_dir(tmp_path)
        before = file_bytes(out)
        code = run_cli(
            "--out-dir", out, "pipeline", "--n-weeks", 160, "--replicates", 100,
            "--trees", 5, *as_flags(columns),
        )
        assert code == 1
        payload = error_json(capsys)
        assert (payload["error"], payload["message"]) == (error, message)
        assert file_bytes(out) == before

    def test_fit_varx_computes_every_artifact_before_writing(self, tmp_path, capsys):
        panel = make_panel(tmp_path)
        out = self.occupied_out_dir(tmp_path)
        before = file_bytes(out)
        code = run_cli(
            "--out-dir", out, "fit", "--panel", panel, "--model", "varx",
            "--replicates", 100, "--irf-horizon", 0,
        )
        assert code == 1
        payload = error_json(capsys)
        assert payload["error"] == "InvalidInputError"
        assert payload["message"] == "horizon must be an integer >= 1, got 0"
        assert file_bytes(out) == before

    def test_evaluate_requires_name_path_pairs(self, tmp_path, capsys):
        panel = make_panel(tmp_path)
        code = run_cli(
            "--out-dir", tmp_path, "evaluate", "--panel", panel,
            "--forecast", "justapath.csv",
        )
        assert code == 1
        assert error_json(capsys)["error"] == "InvalidInputError"

    @pytest.mark.parametrize("given", ["flags", "config"])
    def test_evaluate_rejects_a_repeated_forecast_name(self, tmp_path, capsys, given):
        panel = make_panel(tmp_path)
        out = tmp_path / "out"
        for train_length in (100, 101):
            assert run_cli(
                "--out-dir", tmp_path / str(train_length), "forecast", "--panel", panel,
                "--model", "trend", "--train-length", train_length, "--horizon", 8,
            ) == 0
        first = tmp_path / "100" / "forecast_trend_drug_demand.csv"
        second = tmp_path / "101" / "forecast_trend_drug_demand.csv"
        pairs = [f"a={first}", f"a={second}"]
        if given == "flags":
            argv = ["evaluate", *as_flags({"forecasts": pairs})]
        else:
            cfg = write_config(tmp_path / "cfg.ini", {"evaluate": {"forecasts": pairs}})
            argv = ["--config", cfg, "evaluate"]
        code = run_cli("--out-dir", out, *argv, "--panel", panel,
                       "--train-length", 100, "--horizon", 8)
        assert code == 1
        payload = error_json(capsys)
        assert payload["error"] == "InvalidInputError"
        assert "'a'" in payload["message"]
        assert not out.exists()

    @pytest.mark.parametrize("train_length", [3, 4, 30, 55])
    def test_forest_needs_a_block_of_training_rows(self, tmp_path, capsys, monkeypatch,
                                                   train_length):
        # Every window here fits the 140-week panel with its 30-week horizon,
        # so only the forest's own training rows can fail, before any trend
        # baseline is fitted or a forest trained.
        from climdemand import cli

        def no_training(*args, **kwargs):
            raise AssertionError("a forest was trained")

        def no_trend_fit(*args, **kwargs):
            raise AssertionError("a trend baseline was fitted")

        panel = make_panel(tmp_path)
        monkeypatch.setattr(cli, "train_forest", no_training)
        monkeypatch.setattr(cli, "fit_trend_model", no_trend_fit)
        out = tmp_path / "out"
        code = run_cli(
            "--out-dir", out, "forecast", "--panel", panel, "--model", "forest",
            "--train-length", train_length, "--lags", 4, "--horizon", 30,
        )
        assert code == 1
        payload = error_json(capsys)
        assert payload["error"] == "AlignmentError"
        assert payload["message"].startswith(
            f"--train-length {train_length} less --lags 4 leaves {train_length - 4} "
        )
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ("fit", "--model", "trend"),
        ("forecast", "--model", "trend", "--train-length", 3, "--horizon", 2),
    ])
    def test_trend_on_under_a_period_is_a_json_error(self, tmp_path, capsys, argv):
        # The library's fit warns on a window under one seasonal period; the
        # command stops before it fits or writes anything.
        header, *rows = make_panel(tmp_path).read_text().splitlines()
        panel = tmp_path / "short.csv"
        panel.write_text("\n".join([header, *rows[:5]]) + "\n")
        out = tmp_path / "out"
        weeks = 5 if argv[0] == "fit" else 3
        assert run_cli("--out-dir", out, argv[0], "--panel", panel, *argv[1:]) == 1
        assert error_json(capsys) == {
            "error": "InsufficientDataError",
            "message": f"series has {weeks} weeks, shorter than one period of 52; "
                       "seasonal coefficients are not identifiable",
        }
        assert not out.exists()

    def test_forest_trains_on_exactly_one_block(self, tmp_path):
        panel = make_panel(tmp_path)
        assert run_cli(
            "--out-dir", tmp_path / "out", "forecast", "--panel", panel, "--model", "forest",
            "--train-length", 56, "--lags", 4, "--horizon", 8, "--trees", 5,
        ) == 0


def _cell(rows, rng):
    """A random data row and a random value column of it."""
    return int(rng.integers(len(rows))), int(rng.integers(1, len(rows[0])))


def _set_cell(header, rows, rng):
    r, c = _cell(rows, rng)
    rows[r][c] = str(rng.choice(["abc", "nan", "inf", "", "1e999", "--1"]))


def _drop_cell(header, rows, rng):
    r, c = _cell(rows, rng)
    del rows[r][c]


def _add_cell(header, rows, rng):
    r, c = _cell(rows, rng)
    rows[r].insert(c, "1.0")


def _delete_row(header, rows, rng):
    del rows[_cell(rows, rng)[0]]


def _duplicate_row(header, rows, rng):
    r = _cell(rows, rng)[0]
    rows.insert(r, list(rows[r]))


def _swap_rows(header, rows, rng):
    r = min(_cell(rows, rng)[0], len(rows) - 2)
    rows[r], rows[r + 1] = rows[r + 1], rows[r]


def _keep_first_rows(header, rows, rng):
    del rows[int(rng.integers(1, 60)):]


def _constant_column(header, rows, rng):
    c = _cell(rows, rng)[1]
    for row in rows:
        row[c] = "1.5"


def _rename_column(header, rows, rng):
    header[int(rng.integers(len(header)))] += "_x"


def _truncate(header, rows, rng):
    """Cut the file inside a random cell."""
    r, c = _cell(rows, rng)
    rows[r][c] = rows[r][c][: int(rng.integers(len(rows[r][c])))]
    del rows[r][c + 1:], rows[r + 1:]


# Each mutation edits the header's cells and the data rows' cells in place.
PANEL_MUTATIONS = (
    _set_cell, _drop_cell, _add_cell, _delete_row, _duplicate_row, _swap_rows,
    _keep_first_rows, _constant_column, _rename_column, _truncate,
)

# Every command that reads a panel, at sizes that run in hundredths of a second.
PANEL_COMMANDS = (
    ("gc", "--cause", "temperature", "--effect", "drug_demand", "--replicates", 100),
    ("gc", "--cause", "temperature", "--effect", "drug_demand", "--conditioning", "fwi",
     "--replicates", 100),
    ("select", "--trees", 10, "--lags", 2),
    ("fit", "--model", "trend"),
    ("fit", "--model", "varx", "--replicates", 100, "--irf-horizon", 4),
    ("fit", "--model", "forest", "--trees", 10, "--lags", 2),
    ("forecast", "--model", "trend", "--train-length", 100, "--horizon", 20),
    ("forecast", "--model", "varx", "--train-length", 100, "--horizon", 20),
    ("forecast", "--model", "forest", "--train-length", 100, "--horizon", 20,
     "--trees", 10, "--lags", 2),
    ("sparse-var",),
)


class TestBadInput:
    def test_mutated_panels_exit_with_a_json_error_or_succeed(self, tmp_path, capsys):
        # Each mutation of the synthetic panel goes through every command;
        # none may raise out of main.
        lines = make_panel(tmp_path).read_text().splitlines()
        path, out = tmp_path / "mutated.csv", tmp_path / "out"
        escaped, codes = [], []
        for case, (mutation, command) in enumerate(
            itertools.product(PANEL_MUTATIONS, PANEL_COMMANDS)
        ):
            header, *rows = [line.split(",") for line in lines]
            mutation(header, rows, np.random.default_rng(case))
            path.write_text("\n".join(",".join(cells) for cells in [header, *rows]) + "\n")
            name = f"case {case}: {mutation.__name__} -> {command}"
            try:
                code = run_cli("--out-dir", out, command[0], "--panel", path, *command[1:])
            except Exception as exc:  # the failure this test guards against
                escaped.append(f"{name}: {exc!r}")
                continue
            err = capsys.readouterr().err
            if code == 1:
                payload = json.loads(err)
                assert {"error", "message"} <= set(payload), name
            else:
                assert (code, err) == (0, ""), name
            codes.append(code)
        assert not escaped
        assert 0 in codes and 1 in codes


class TestConfigPrecedence:
    def test_flag_beats_file_beats_default(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            "[run]\nseed = 5\n\n"
            "[synth]\nn_weeks = 80\nbreak_weeks = 30\nlevel_shifts = -5000\n"
        )
        out = tmp_path / "out"
        assert run_cli(
            "--config", cfg, "--seed", 9, "--out-dir", out, "synth"
        ) == 0
        manifest = json.loads((out / "synth_manifest.json").read_text())
        assert manifest["seed"] == 9           # flag over file
        assert manifest["parameters"]["n_weeks"] == 80  # file over default
        assert read_panel_csv(str(out / "synthetic_panel.csv")).n_weeks == 80

    def test_section_values_reach_the_command(self, tmp_path):
        panel = make_panel(tmp_path)
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[select]\ntrees = 30\nlags = 2\n")
        out = tmp_path / "sel"
        assert run_cli(
            "--config", cfg, "--seed", 0, "--out-dir", out, "select",
            "--panel", panel, "--columns", "temperature",
        ) == 0
        manifest = json.loads((out / "select_manifest.json").read_text())
        assert manifest["parameters"]["trees"] == 30
        assert manifest["parameters"]["lags"] == 2
        header, *rows = (out / "importance_drug_demand.csv").read_text().splitlines()
        assert header == "feature,score"
        # lags = 2 for target + one candidate -> four lagged features
        assert len(rows) == 4


    def test_required_options_come_from_the_file(self, tmp_path):
        options = {
            "panel": "p.csv", "cause": "temperature", "effect": "drug_demand",
            "conditioning": "precipitation", "replicates": 150, "alpha": 0.1,
        }
        cfg = write_config(tmp_path / "cfg.ini", {
            "run": {"panel": "p.csv", "effect": "drug_demand", "replicates": 150},
            "gc": {"cause": "temperature", "conditioning": "precipitation", "alpha": 0.1},
        })
        from_file = captured_call("--config", cfg, "gc")
        from_flags = captured_call("gc", *as_flags(options))
        assert repr(from_file) == repr(from_flags)
        assert from_file[1]["conditioning"] == "precipitation"


# The option table's parity check.  GLOBALS plus EVERY_OPTION sets each option
# of a command to a value off its default; MINIMAL gives only what a command
# needs.  CAPTURED holds what the cmd_* function received in each case, as
# recorded from the hand-written parser the table replaced: the manifest's
# ``parameters``, then the arguments after ``run`` by parameter name.
GLOBALS = {"seed": 7, "out_dir": "results", "threads": 2}

MINIMAL = {
    "synth": {},
    "features": {"daily": "d.csv"},
    "gc": {"panel": "p.csv", "cause": "temperature", "effect": "drug_demand"},
    "select": {"panel": "p.csv"},
    "sparse-var": {"panel": "p.csv"},
    "fit": {"panel": "p.csv", "model": "trend"},
    "forecast": {"panel": "p.csv", "model": "varx"},
    "evaluate": {"panel": "p.csv", "forecasts": ["trend=t.csv"]},
    "pipeline": {},
}

EVERY_OPTION = {
    "synth": {"n_weeks": 150, "demand_noise_sd": 900.5, "coupling": "-2500,-1000.5",
              "break_weeks": "30,60", "level_shifts": "-100,50"},
    "features": {"daily": "d.csv", "out": "w.csv", "wet_day_threshold_mm": 0.5,
                 "extreme_quantile": 0.99},
    "gc": {"panel": "p.csv", "cause": "temperature", "effect": "drug_demand",
           "conditioning": "precipitation", "replicates": 150, "alpha": 0.1,
           "block_length": 2.5, "max_var_order": 3, "raw": True},
    "select": {"panel": "p.csv", "target": "temperature", "columns": "drug_demand,wind_speed",
               "lags": 2, "trees": 30, "block_length": 26, "min_node_size": 3},
    "sparse-var": {"panel": "p.csv", "columns": "temperature,drug_demand",
                   "equation": "drug_demand", "order": 2, "penalty": 0.5, "raw": True},
    "fit": {"panel": "p.csv", "model": "forest", "target": "y",
            "drivers": "temperature,wind_speed", "harmonics": 2, "lags": 3, "trees": 20,
            "replicates": 200, "irf_horizon": 12},
    "forecast": {"panel": "p.csv", "model": "varx", "target": "y", "drivers": "precipitation",
                 "harmonics": 0, "lags": 2, "trees": 40, "train_length": 100, "horizon": 20},
    "evaluate": {"panel": "p.csv", "target": "y", "forecasts": ["trend=t.csv", "varx=v.csv"],
                 "train_length": 100, "horizon": 20},
    "pipeline": {"n_weeks": 320, "target": "drug_demand", "driver": "precipitation",
                 "train_length": 250, "horizon": 40, "replicates": 120, "trees": 25,
                 "lags": 3, "harmonics": 2, "irf_horizon": 10},
}

# Options the hand-written parser read from the command line only.
FLAG_ONLY = {"panel", "cause", "effect", "conditioning", "daily", "model"}

CAPTURED = {
    "synth": (
        ({"seed": 0}, {"cfg": SynthConfig(seed=0)}),
        ({"break_weeks": [30, 60], "demand_noise_sd": 900.5, "level_shifts": [-100.0, 50.0],
          "n_weeks": 150, "seed": 7, "temperature_coupling": [-2500.0, -1000.5]},
         {"cfg": SynthConfig(n_weeks=150, temperature_coupling=(-2500.0, -1000.5),
                             break_weeks=(30, 60), level_shifts=(-100.0, 50.0),
                             demand_noise_sd=900.5, seed=7)}),
    ),
    "features": (
        ({"daily": "d.csv", "extreme_quantile": 0.999, "out": "weekly_panel.csv",
          "wet_day_threshold_mm": 1.0},
         {"daily_path": "d.csv", "out_name": "weekly_panel.csv", "cfg": FeatureConfig()}),
        ({"daily": "d.csv", "extreme_quantile": 0.99, "out": "w.csv",
          "wet_day_threshold_mm": 0.5},
         {"daily_path": "d.csv", "out_name": "w.csv", "cfg": FeatureConfig(0.5, 0.99)}),
    ),
    "gc": (
        ({"alpha": 0.05, "block_length": None, "cause": "temperature", "conditioning": None,
          "effect": "drug_demand", "max_var_order": 4, "panel": "p.csv", "raw": False,
          "replicates": 1000},
         {"panel_path": "p.csv", "cause": "temperature", "effect": "drug_demand",
          "conditioning": None, "cfg": GcBootstrapConfig(seed=0), "raw": False}),
        ({"alpha": 0.1, "block_length": 2.5, "cause": "temperature",
          "conditioning": "precipitation", "effect": "drug_demand", "max_var_order": 3,
          "panel": "p.csv", "raw": True, "replicates": 150},
         {"panel_path": "p.csv", "cause": "temperature", "effect": "drug_demand",
          "conditioning": "precipitation",
          "cfg": GcBootstrapConfig(n_replicates=150, alpha=0.1, expected_block_length=2.5,
                                   max_var_order=3, seed=7),
          "raw": True}),
    ),
    "select": (
        ({"block_length": 52, "columns": [], "lags": 4, "min_node_size": 5, "panel": "p.csv",
          "target": "drug_demand", "trees": 1000},
         {"panel_path": "p.csv", "target": "drug_demand", "columns": (), "lags": 4,
          "cfg": ForestConfig(seed=0)}),
        ({"block_length": 26, "columns": ["drug_demand", "wind_speed"], "lags": 2,
          "min_node_size": 3, "panel": "p.csv", "target": "temperature", "trees": 30},
         {"panel_path": "p.csv", "target": "temperature",
          "columns": ("drug_demand", "wind_speed"), "lags": 2,
          "cfg": ForestConfig(n_trees=30, min_node_size=3, block_length=26, seed=7)}),
    ),
    "sparse-var": (
        ({"columns": ["drug_demand", "temperature"], "equation": "drug_demand", "order": 4,
          "panel": "p.csv", "penalty": None, "raw": False},
         {"panel_path": "p.csv", "columns": ("drug_demand", "temperature"),
          "equation": "drug_demand", "order": 4, "penalty": None, "raw": False}),
        ({"columns": ["temperature", "drug_demand"], "equation": "drug_demand", "order": 2,
          "panel": "p.csv", "penalty": 0.5, "raw": True},
         {"panel_path": "p.csv", "columns": ("temperature", "drug_demand"),
          "equation": "drug_demand", "order": 2, "penalty": 0.5, "raw": True}),
    ),
    "fit": (
        ({"drivers": ["temperature"], "harmonics": 1, "irf_horizon": 26, "lags": 4,
          "model": "trend", "panel": "p.csv", "replicates": 1000, "target": "drug_demand",
          "trees": 1000},
         {"panel_path": "p.csv", "model_name": "trend", "target": "drug_demand",
          "drivers": ("temperature",), "harmonics": 1, "lags": 4, "replicates": 1000,
          "trees": 1000, "irf_horizon": 26}),
        ({"drivers": ["temperature", "wind_speed"], "harmonics": 2, "irf_horizon": 12,
          "lags": 3, "model": "forest", "panel": "p.csv", "replicates": 200, "target": "y",
          "trees": 20},
         {"panel_path": "p.csv", "model_name": "forest", "target": "y",
          "drivers": ("temperature", "wind_speed"), "harmonics": 2, "lags": 3,
          "replicates": 200, "trees": 20, "irf_horizon": 12}),
    ),
    "forecast": (
        ({"drivers": ["temperature"], "harmonics": 1, "horizon": 52, "lags": 4,
          "model": "varx", "panel": "p.csv", "target": "drug_demand", "train_length": 338,
          "trees": 1000},
         {"panel_path": "p.csv", "model_name": "varx", "target": "drug_demand",
          "drivers": ("temperature",), "train_length": 338, "horizon": 52, "harmonics": 1,
          "lags": 4, "trees": 1000}),
        ({"drivers": ["precipitation"], "harmonics": 0, "horizon": 20, "lags": 2,
          "model": "varx", "panel": "p.csv", "target": "y", "train_length": 100, "trees": 40},
         {"panel_path": "p.csv", "model_name": "varx", "target": "y",
          "drivers": ("precipitation",), "train_length": 100, "horizon": 20, "harmonics": 0,
          "lags": 2, "trees": 40}),
    ),
    "evaluate": (
        ({"forecasts": {"trend": "t.csv"}, "horizon": 52, "panel": "p.csv",
          "target": "drug_demand", "train_length": 338},
         {"panel_path": "p.csv", "target": "drug_demand", "forecasts": {"trend": "t.csv"},
          "train_length": 338, "horizon": 52}),
        ({"forecasts": {"trend": "t.csv", "varx": "v.csv"}, "horizon": 20, "panel": "p.csv",
          "target": "y", "train_length": 100},
         {"panel_path": "p.csv", "target": "y",
          "forecasts": {"trend": "t.csv", "varx": "v.csv"}, "train_length": 100,
          "horizon": 20}),
    ),
    "pipeline": (
        ({"driver": "temperature", "harmonics": 1, "horizon": 52, "irf_horizon": 26,
          "lags": 4, "n_weeks": 390, "replicates": 1000, "target": "drug_demand",
          "train_length": 338, "trees": 1000},
         {"synth_cfg": SynthConfig(seed=0), "target": "drug_demand", "driver": "temperature",
          "train_length": 338, "horizon": 52, "replicates": 1000, "trees": 1000, "lags": 4,
          "harmonics": 1, "irf_horizon": 26}),
        ({"driver": "precipitation", "harmonics": 2, "horizon": 40, "irf_horizon": 10,
          "lags": 3, "n_weeks": 320, "replicates": 120, "target": "drug_demand",
          "train_length": 250, "trees": 25},
         {"synth_cfg": SynthConfig(n_weeks=320, seed=7), "target": "drug_demand",
          "driver": "precipitation", "train_length": 250, "horizon": 40, "replicates": 120,
          "trees": 25, "lags": 3, "harmonics": 2, "irf_horizon": 10}),
    ),
}


class TestOptionTable:
    @pytest.mark.parametrize("given", ["defaults", "flags", "config"])
    @pytest.mark.parametrize("command", list(CAPTURED))
    def test_command_receives_the_recorded_manifest_and_arguments(
        self, tmp_path, command, given
    ):
        options = EVERY_OPTION[command]
        if given == "defaults":
            argv = [command, *as_flags(MINIMAL[command])]
        elif given == "flags":
            argv = [*as_flags(GLOBALS), command, *as_flags(options)]
        else:
            # The global options under [run]; the command's alternate between
            # its own section and the [run] fallback.
            sections = {"run": dict(GLOBALS), command: {}}
            in_file = [k for k in options if k not in FLAG_ONLY]
            for i, name in enumerate(in_file):
                sections[command if i % 2 == 0 else "run"][name] = options[name]
            cfg = write_config(tmp_path / "cfg.ini", sections)
            flags = {k: v for k, v in options.items() if k in FLAG_ONLY}
            argv = ["--config", cfg, command, *as_flags(flags)]
        run, arguments = captured_call(*argv)

        defaults = given == "defaults"
        parameters, expected = CAPTURED[command][0 if defaults else 1]
        manifest = {"command": command, "seed": 0 if defaults else 7, "parameters": parameters}
        assert json.dumps(run.manifest(), sort_keys=True) == json.dumps(manifest, sort_keys=True)
        assert run.out_dir == ("." if defaults else "results")
        assert repr(arguments) == repr(expected)


class TestCommandOutputs:
    def test_gc_spectrum_schema(self, tmp_path):
        panel = make_panel(tmp_path)
        out = tmp_path / "out"
        assert run_cli(
            "--seed", 0, "--out-dir", out, "--threads", 2, "gc",
            "--panel", panel, "--cause", "temperature", "--effect", "drug_demand",
            "--replicates", 100,
        ) == 0
        lines = (out / "gc_temperature_to_drug_demand.csv").read_text().splitlines()
        assert lines[0] == (
            "frequency_cycles_per_week,estimate,threshold_alpha,"
            "threshold_bonferroni,sig_alpha,sig_bonferroni"
        )
        assert len(lines) - 1 == 70  # floor(140 / 2) frequencies
        cells = np.array([line.split(",") for line in lines[1:]])
        freqs = cells[:, 0].astype(float)
        assert freqs[0] == pytest.approx(1.0 / 140.0)
        assert np.all(np.diff(freqs) > 0)
        # Thresholds are scalar across frequencies; flags match the rule.
        assert len(set(cells[:, 2])) == 1 and len(set(cells[:, 3])) == 1
        estimate = cells[:, 1].astype(float)
        flagged = cells[:, 4] == "true"
        np.testing.assert_array_equal(flagged, estimate > float(cells[0, 2]))

    def test_conditional_gc_file_name(self, tmp_path):
        panel = make_panel(tmp_path)
        out = tmp_path / "out"
        assert run_cli(
            "--seed", 0, "--out-dir", out, "--threads", 2, "gc",
            "--panel", panel, "--cause", "temperature", "--effect", "drug_demand",
            "--conditioning", "precipitation", "--replicates", 100,
        ) == 0
        name = "gc_temperature_to_drug_demand_given_precipitation.csv"
        assert (out / name).exists()

    def test_select_scores_descending(self, tmp_path):
        panel = make_panel(tmp_path)
        out = tmp_path / "out"
        assert run_cli(
            "--seed", 0, "--out-dir", out, "--threads", 2, "select",
            "--panel", panel, "--columns", "temperature", "--trees", 40,
        ) == 0
        rows = (out / "importance_drug_demand.csv").read_text().splitlines()[1:]
        names = [r.split(",")[0] for r in rows]
        scores = [float(r.split(",")[1]) for r in rows]
        assert scores == sorted(scores, reverse=True)
        assert set(names) == {
            f"{v}.l{k}" for v in ("drug_demand", "temperature") for k in (1, 2, 3, 4)
        }
        oob = json.loads((out / "oob_drug_demand.json").read_text())
        assert set(oob) == {"rmse", "rsr", "r2", "n_rows", "n_covered", "n_never_oob"}
        assert oob["n_rows"] == 136

    def test_sparse_var_table(self, tmp_path):
        panel = make_panel(tmp_path)
        out = tmp_path / "out"
        assert run_cli("--out-dir", out, "sparse-var", "--panel", panel) == 0
        lines = (out / "sparse_var_drug_demand.csv").read_text().splitlines()
        assert lines[0] == "variable,lag1,lag2,lag3,lag4"
        assert [l.split(",")[0] for l in lines[1:]] == ["drug_demand", "temperature"]

    def test_sparse_var_huge_penalty_zeroes_table(self, tmp_path):
        panel = make_panel(tmp_path)
        out = tmp_path / "out"
        assert run_cli(
            "--out-dir", out, "sparse-var", "--panel", panel, "--penalty", "1e9"
        ) == 0
        lines = (out / "sparse_var_drug_demand.csv").read_text().splitlines()
        for line in lines[1:]:
            assert line.split(",")[1:] == ["0", "0", "0", "0"]

    def test_gc_raw_is_the_spectrum_of_the_raw_columns(self, tmp_path):
        from climdemand.spectral import unconditional_gc_spectrum

        panel_path = make_panel(tmp_path)
        out = tmp_path / "out"
        assert run_cli(
            "--seed", 4, "--out-dir", out, "gc", "--panel", panel_path,
            "--cause", "temperature", "--effect", "drug_demand", "--replicates", 100, "--raw",
        ) == 0
        panel = read_panel_csv(str(panel_path))
        result = unconditional_gc_spectrum(
            panel.column("temperature"), panel.column("drug_demand"),
            GcBootstrapConfig(n_replicates=100, seed=4),
        )
        cells = [line.split(",") for line in
                 (out / "gc_temperature_to_drug_demand.csv").read_text().splitlines()[1:]]
        assert [row[1] for row in cells] == [format_float(v) for v in result.estimate]
        assert {(row[2], row[3]) for row in cells} == {
            (format_float(result.threshold_pointwise), format_float(result.threshold_bonferroni))
        }

    def test_sparse_var_raw_is_the_fit_of_the_raw_columns(self, tmp_path):
        from climdemand.sparsevar import coefficient_table, fit_lasso_var, select_lambda

        panel_path = make_panel(tmp_path)
        out = tmp_path / "out"
        assert run_cli("--out-dir", out, "sparse-var", "--panel", panel_path, "--raw") == 0
        panel = read_panel_csv(str(panel_path))
        names = ("drug_demand", "temperature")
        data = np.column_stack([panel.column(name) for name in names])
        lam = select_lambda(data, order=4, names=names)
        table = coefficient_table(fit_lasso_var(data, order=4, lam=lam, names=names),
                                  "drug_demand")
        rows = [line.split(",") for line in
                (out / "sparse_var_drug_demand.csv").read_text().splitlines()[1:]]
        assert rows == [[name, *map(format_float, values)]
                        for name, values in zip(table.variables, table.values)]

    def test_select_without_columns_ranks_every_other_column(self, tmp_path):
        panel_path = make_panel(tmp_path)
        out = tmp_path / "out"
        assert run_cli(
            "--seed", 0, "--out-dir", out, "select", "--panel", panel_path, "--trees", 10,
        ) == 0
        rows = (out / "importance_drug_demand.csv").read_text().splitlines()[1:]
        columns = read_panel_csv(str(panel_path)).column_names
        assert len(columns) == 10 and columns[0] == "drug_demand"
        assert {row.split(",")[0] for row in rows} == {
            f"{name}.l{k}" for name in columns for k in (1, 2, 3, 4)
        }

    def test_fit_trend_emits_aligned_fitted_values(self, tmp_path):
        panel_path = make_panel(tmp_path)
        out = tmp_path / "out"
        assert run_cli(
            "--seed", 0, "--out-dir", out, "fit",
            "--panel", panel_path, "--model", "trend",
        ) == 0
        fit = read_panel_csv(str(out / "trend_fit_drug_demand.csv"))
        source = read_panel_csv(str(panel_path))
        assert fit.week_starts == source.week_starts
        np.testing.assert_allclose(
            fit.column("drug_demand"), source.column("drug_demand"), rtol=1e-9
        )
        residual = fit.column("drug_demand") - fit.column("drug_demand_baseline_fitted")
        assert np.std(residual) < np.std(source.column("drug_demand"))

    def test_fit_varx_emits_three_reports(self, tmp_path):
        panel = make_panel(tmp_path)
        out = tmp_path / "out"
        assert run_cli(
            "--seed", 0, "--out-dir", out, "--threads", 2, "fit",
            "--panel", panel, "--model", "varx", "--replicates", 100,
        ) == 0
        coef = (out / "varx_coefficients.csv").read_text().splitlines()
        assert coef[0] == "equation,coefficient,estimate,lower,upper,significant"
        assert any(row.startswith("drug_demand,temperature.l1,") for row in coef)
        irf_lines = (out / "varx_irf.csv").read_text().splitlines()
        assert irf_lines[0] == "impulse,response,horizon,value,lower,upper"
        fevd_lines = (out / "varx_fevd.csv").read_text().splitlines()
        assert fevd_lines[0] == "variable,source,horizon,mean,lower,upper"
        shares = np.array([r.split(",")[3] for r in fevd_lines[1:]], dtype=float)
        assert np.all((shares >= 0.0) & (shares <= 1.0))

    def test_fit_forest_emits_oob_accuracy(self, tmp_path):
        panel = make_panel(tmp_path)
        out = tmp_path / "out"
        assert run_cli(
            "--seed", 0, "--out-dir", out, "fit",
            "--panel", panel, "--model", "forest", "--trees", 40,
        ) == 0
        oob = json.loads((out / "forest_oob_drug_demand.json").read_text())
        assert set(oob) == {"rmse", "rsr", "r2", "n_rows", "n_covered", "n_never_oob"}
        # 140 weeks less 4 lags, each out of bag in some of the 40 trees.
        assert oob["n_rows"] == 136
        assert (oob["n_covered"], oob["n_never_oob"]) == (136, 0)
        assert 0.0 < oob["rsr"] < 1.0
        assert oob["r2"] == 1.0 - oob["rsr"] ** 2
        assert (out / "fit_manifest.json").exists()

    def test_forecast_then_evaluate_composes(self, tmp_path):
        panel = make_panel(tmp_path)
        out = tmp_path / "out"
        for model in ("trend", "varx", "forest"):
            assert run_cli(
                "--seed", 0, "--out-dir", out, "--threads", 2, "forecast",
                "--panel", panel, "--model", model,
                "--train-length", 100, "--horizon", 26, "--trees", 40,
            ) == 0
        assert run_cli(
            "--out-dir", out, "evaluate", "--panel", panel,
            "--forecast", f"trend={out / 'forecast_trend_drug_demand.csv'}",
            "--forecast", f"varx={out / 'forecast_varx_drug_demand.csv'}",
            "--forecast", f"forest={out / 'forecast_forest_drug_demand.csv'}",
            "--train-length", 100, "--horizon", 26,
        ) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert set(metrics) == {"trend", "varx", "forest"}
        for report in metrics.values():
            assert set(report) == {"mape", "rmse", "rsr", "r2", "mase"}
            assert report["r2"] == pytest.approx(1.0 - report["rsr"] ** 2, abs=1e-9)
        table = (out / "comparison.csv").read_text().splitlines()
        assert table[0].startswith("model,mape,rmse,rsr,r2,mase,best_")
        assert len(table) == 4
        payload = json.loads((out / "comparison.json").read_text())
        assert set(payload["models"]) == {"trend", "varx", "forest"}

    def test_a_target_name_with_a_comma_survives_forecast_and_evaluate(self, tmp_path):
        # Written names are quoted as the csv module would, so a column name
        # the reader accepts reads back from every file the CLI writes.
        source = read_panel_csv(str(make_panel(tmp_path)))
        target = 'demand, "total"'
        columns = {target if n == "drug_demand" else n: v for n, v in source.columns.items()}
        panel = tmp_path / "renamed.csv"
        write_panel_csv(PanelDataset(source.week_starts, columns), str(panel))
        out = tmp_path / "out"
        window = ("--train-length", 100, "--horizon", 26, "--target", target)
        assert run_cli("--out-dir", out, "forecast", "--panel", panel,
                       "--model", "trend", *window) == 0
        forecast = out / f"forecast_trend_{target}.csv"
        assert forecast.read_text().splitlines()[0] == (
            'week_start,"demand, ""total""_baseline_forecast"'
        )
        assert run_cli("--out-dir", out, "evaluate", "--panel", panel,
                       "--forecast", f"trend={forecast}", *window) == 0
        assert set(json.loads((out / "metrics.json").read_text())) == {"trend"}


class TestDeterminism:
    def run_all(self, base, panel, threads, seed=11):
        out = base / "out"
        assert run_cli(
            "--seed", seed, "--out-dir", out, "--threads", threads, "gc",
            "--panel", panel, "--cause", "temperature", "--effect", "drug_demand",
            "--replicates", 100,
        ) == 0
        assert run_cli(
            "--seed", seed, "--out-dir", out, "--threads", threads, "select",
            "--panel", panel, "--columns", "temperature", "--trees", 40,
        ) == 0
        assert run_cli(
            "--seed", seed, "--out-dir", out, "--threads", threads, "forecast",
            "--panel", panel, "--model", "forest",
            "--train-length", 100, "--horizon", 12, "--trees", 40,
        ) == 0
        assert run_cli(
            "--seed", seed, "--out-dir", out, "--threads", threads, "fit",
            "--panel", panel, "--model", "varx", "--replicates", 100,
        ) == 0
        return file_bytes(out)

    def test_byte_identical_across_runs_and_threads(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        panel = make_panel(tmp_path)
        rel = panel.relative_to(tmp_path)
        first = self.run_all(tmp_path / "a", rel, threads=1)
        again = self.run_all(tmp_path / "b", rel, threads=1)
        threaded = self.run_all(tmp_path / "c", rel, threads=4)
        assert first
        assert set(first) == set(again) == set(threaded)
        for name in first:
            assert first[name] == again[name], name
            assert first[name] == threaded[name], name


    def test_pipeline_byte_identical_across_blas_threads(self, tmp_path):
        # OpenBLAS sizes its thread pool when numpy loads, so each pool size
        # runs in a process of its own, from its own directory with the same
        # relative out-dir, which evaluate_manifest.json records.
        import climdemand

        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        if "openblas" not in blas.lower():
            pytest.skip(f"OPENBLAS_NUM_THREADS does not size {blas}'s thread pool")
        src = str(pathlib.Path(climdemand.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        outputs = []
        for threads in ("1", "2"):
            cwd = tmp_path / f"blas{threads}"
            cwd.mkdir()
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}
            subprocess.run(
                [sys.executable, "-m", "climdemand.cli", "--seed", "3", "--out-dir", "out",
                 "pipeline", "--n-weeks", "160", "--train-length", "134", "--horizon", "26",
                 "--replicates", "100", "--trees", "20"],
                cwd=cwd, env=env, check=True, capture_output=True, timeout=600,
            )
            outputs.append(file_bytes(cwd / "out"))
        assert "evaluate_manifest.json" in outputs[0]
        assert outputs[0] == outputs[1]


class TestPipeline:
    def test_small_pipeline_writes_every_artifact(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "pipe"
        assert run_cli(
            "--seed", 0, "--out-dir", "pipe", "--threads", 4, "pipeline",
            "--replicates", 100, "--trees", 50,
        ) == 0
        expected = {
            "synthetic_daily.csv",
            "synthetic_panel.csv",
            "weekly_panel.csv",
            "gc_temperature_to_drug_demand.csv",
            "gc_drug_demand_to_temperature.csv",
            "importance_drug_demand.csv",
            "oob_drug_demand.json",
            "varx_coefficients.csv",
            "varx_irf.csv",
            "varx_fevd.csv",
            "forecast_trend_drug_demand.csv",
            "forecast_varx_drug_demand.csv",
            "forecast_forest_drug_demand.csv",
            "metrics.json",
            "comparison.csv",
            "comparison.json",
            "evaluate_manifest.json",
            "pipeline_manifest.json",
        }
        assert expected <= {p.name for p in out.iterdir()}
        # Every emitted panel-shaped file must parse as a downstream input.
        for name in ("synthetic_panel.csv", "weekly_panel.csv",
                     "forecast_varx_drug_demand.csv"):
            read_panel_csv(str(out / name))
        metrics = json.loads((out / "metrics.json").read_text())
        assert set(metrics) == {"trend", "varx", "forest"}

    def test_stages_share_their_fits(self, tmp_path, monkeypatch):
        # Two trend fits (target and driver) serve the trend forecast, the
        # VARX baselines and the forest baseline; one forest selects and one
        # forecasts; the VARX behind the forecast also gives the fit artifacts.
        from climdemand import cli

        calls = {}

        def spy(name):
            function = getattr(cli, name)

            def counted(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return function(*args, **kwargs)
            monkeypatch.setattr(cli, name, counted)

        for name in ("fit_trend_model", "train_forest", "fit_varx", "residual_bootstrap"):
            spy(name)
        assert run_cli(
            "--out-dir", tmp_path, "pipeline", "--replicates", 100, "--trees", 10,
        ) == 0
        assert calls == {
            "fit_trend_model": 2, "train_forest": 2, "fit_varx": 1, "residual_bootstrap": 1,
        }

    def test_short_panel_keeps_the_breaks_inside_it(self, tmp_path):
        # The default level breaks sit at weeks 222 and 298; a shorter
        # pipeline panel keeps those inside it instead of rejecting an option
        # the pipeline does not take.
        out = tmp_path / "out"
        assert run_cli(
            "--out-dir", out, "pipeline", "--n-weeks", 200, "--replicates", 100,
            "--trees", 10, "--train-length", 140, "--horizon", 52,
        ) == 0
        assert read_panel_csv(str(out / "synthetic_panel.csv")).n_weeks == 200
        _, arguments = captured_call(
            "pipeline", "--n-weeks", 260, "--train-length", 200, "--horizon", 52
        )
        assert arguments["synth_cfg"] == SynthConfig(
            n_weeks=260, break_weeks=(222,), level_shifts=(-32_000.0,)
        )

    def test_training_window_follows_the_panel_length(self, tmp_path):
        # The default training window is every week before the horizon, so
        # a shorter panel runs without window flags.
        out = tmp_path / "out"
        assert run_cli(
            "--out-dir", out, "pipeline", "--n-weeks", 200, "--replicates", 100,
            "--trees", 10,
        ) == 0
        manifest = json.loads((out / "pipeline_manifest.json").read_text())
        assert (manifest["parameters"]["train_length"], manifest["parameters"]["horizon"]) == (
            148, 52
        )
