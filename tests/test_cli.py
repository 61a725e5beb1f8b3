"""CLI subcommands, exit codes, and output determinism."""

import ast
import contextlib
import functools
import io
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import socchange as sc
from socchange import _kernels
from socchange.climate import KA_OFFSET
from socchange.cli import main

from conftest import below_floor, write_scenario_inputs


DEMO = Path(__file__).resolve().parents[1] / "data" / "demo"
DATA = Path(__file__).parent / "data"


def _read_totals(path):
    traj = sc.read_trajectory(path)
    return traj


def _demo_with_cell(tmp_path, name, row_prefix, column, value):
    """Copy the demo site, replacing one cell of the row starting with row_prefix.

    Returns (config path, line number of the edited row)."""
    for path in DEMO.iterdir():
        shutil.copy(path, tmp_path / path.name)
    if column in ("pet_mm", "daylength_h"):
        (tmp_path / name).write_text(_demo_climate_with(column))
    lines = (tmp_path / name).read_text().splitlines()
    col = lines[0].split(",").index(column)
    line_no = next(i for i, line in enumerate(lines, 1)
                   if line.startswith(row_prefix))
    cells = lines[line_no - 1].split(",")
    cells[col] = value
    lines[line_no - 1] = ",".join(cells)
    (tmp_path / name).write_text("\n".join(lines) + "\n")
    return tmp_path / "scenario.cfg", line_no


@functools.cache
def _demo_climate_with(column):
    """The demo climate CSV with a pet_mm or daylength_h column added, filled
    with the values the demo derives from its latitude."""
    config = sc.load_config(DEMO / "scenario.cfg")
    series = sc.build_scenario(config).site.climate
    extra = (series.pet if column == "pet_mm"
             else sc.climate.day_lengths(config.latitude_deg, series.years))
    lines = (DEMO / "climate.csv").read_text().splitlines()
    rows = [f"{line},{value!r}"
            for line, value in zip(lines[1:], extra.ravel().tolist())]
    return "\n".join([f"{lines[0]},{column}"] + rows) + "\n"


def _demo_with_key(tmp_path, key, value):
    """Copy the demo site with one config key set to value (added if absent).

    soc_active_tc_ha replaces plant_input_tc_ha_yr, as the two exclude each
    other. Returns the config path."""
    for path in DEMO.iterdir():
        shutil.copy(path, tmp_path / path.name)
    config = tmp_path / "scenario.cfg"
    drop = {key} | ({"plant_input_tc_ha_yr"} if key == "soc_active_tc_ha"
                    else set())
    lines = [line for line in config.read_text().splitlines()
             if line.partition("=")[0].strip() not in drop]
    config.write_text("\n".join(lines + [f"{key} = {value}"]) + "\n")
    return config


class TestSimulateCommand:
    def test_writes_csv_and_prints_annual_means(self, tmp_path, capsys):
        config = write_scenario_inputs(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", str(config), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "annual mean dsoc" in captured.out
        assert (out / "trajectory.csv").exists()
        years = re.findall(r"^\s+(\d{4})\s", captured.out, re.MULTILINE)
        assert years[0] == "2006" and years[-1] == "2019"

    def test_negative_ratio_exits_one(self, tmp_path, capsys):
        config = write_scenario_inputs(tmp_path, r=-0.5)
        assert main(["simulate", str(config)]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_climate_exits_two(self, tmp_path, capsys):
        config = write_scenario_inputs(tmp_path)
        (tmp_path / "climate.csv").unlink()
        assert main(["simulate", str(config)]) == 2
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("name, row_prefix, column, value", [
        ("npp.csv", "2007,", "npp", "nan"),
        ("climate.csv", "2008,3,", "temp_c", "inf"),
    ])
    def test_non_finite_input_exits_two(self, tmp_path, capsys, name,
                                        row_prefix, column, value):
        config, line_no = _demo_with_cell(tmp_path, name, row_prefix, column,
                                          value)
        out = tmp_path / "out"
        assert main(["simulate", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"line {line_no}" in err and repr(column) in err
        assert not (out / "trajectory.csv").exists()

    def test_overflowing_npp_ratio_exits_two(self, tmp_path, capsys):
        # 1e300 / 1e-300 overflows to an infinite ratio for 2009
        config, _ = _demo_with_cell(tmp_path, "npp.csv", "2005,", "npp",
                                    "1e-300")
        npp = tmp_path / "npp.csv"
        npp.write_text(npp.read_text().replace("2009,534.28", "2009,1e300"))
        out = tmp_path / "out"
        assert main(["simulate", str(config), "--out", str(out)]) == 2
        assert "2009" in capsys.readouterr().err
        assert not (out / "trajectory.csv").exists()

    def test_negative_rain_exits_two(self, tmp_path, capsys):
        config, _ = _demo_with_cell(tmp_path, "climate.csv", "2008,3,",
                                    "rain_mm", "-13.6")
        out = tmp_path / "out"
        assert main(["simulate", str(config), "--out", str(out)]) == 2
        assert "2008-03" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("year", ["12005000000000000000000000000", "0",
                                      "10000", "-2008"])
    def test_year_outside_calendar_exits_two(self, tmp_path, capsys, year):
        config, line_no = _demo_with_cell(tmp_path, "climate.csv", "2008,3,",
                                          "year", year)
        out = tmp_path / "out"
        assert main(["simulate", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"line {line_no}: 'year' value {year} outside 1..9999" in err
        assert len(err.splitlines()) == 1, err
        assert not out.exists()

    def test_one_year_beyond_int64_exits_two(self, tmp_path, capsys):
        # a whole year past int64 once reached ClimateSeries.build and ended
        # in an OverflowError traceback
        for path in DEMO.iterdir():
            shutil.copy(path, tmp_path / path.name)
        rows = [f"12005000000000000000000000000,{month},10.0,50.0"
                for month in range(1, 13)]
        (tmp_path / "climate.csv").write_text(
            "\n".join(["year,month,temp_c,rain_mm", *rows]) + "\n")
        assert main(["simulate", str(tmp_path / "scenario.cfg")]) == 2
        err = capsys.readouterr().err
        assert "line 2: 'year'" in err
        assert len(err.splitlines()) == 1, err

    def test_spaces_after_header_commas_change_nothing(self, tmp_path):
        out = {}
        for variant in ("plain", "spaced"):
            site = tmp_path / variant
            site.mkdir()
            for path in DEMO.iterdir():
                lines = path.read_text().splitlines()
                if variant == "spaced" and path.suffix == ".csv":
                    lines[0] = lines[0].replace(",", ", ")
                (site / path.name).write_text("\n".join(lines) + "\n")
            assert main(["simulate", str(site / "scenario.cfg"),
                         "--out", str(site / "out")]) == 0
            out[variant] = (site / "out" / "trajectory.csv").read_bytes()
        assert out["spaced"] == out["plain"]

    @pytest.mark.parametrize("cover", ["-5", "0"])
    def test_cover_outside_unit_interval_exits_two(self, tmp_path, capsys,
                                                   cover):
        table = (DATA / "density_table1.csv").read_text().replace(
            "1,0.025,0.05,0.0,0.6", f"1,0.025,0.05,0.0,{cover}")
        (tmp_path / "density.csv").write_text(table)
        config = _demo_with_key(tmp_path, "density_csv", "density.csv")
        out = tmp_path / "out"
        assert main(["simulate", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "line 2: 'cover_arable'" in err and "outside (0, 1]" in err
        assert len(err.splitlines()) == 1, err
        assert not out.exists()

    def test_deterministic_outputs(self, tmp_path):
        config = write_scenario_inputs(tmp_path, fym_baseline_tc_ha_yr=0.5,
                                       plant_input_tc_ha_yr=0.5)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["simulate", str(config), "--out", str(out)]) == 0
            assert main(["sensitivity", str(config), "--param", "np1",
                         "--out", str(out)]) == 0
            assert main(["control", str(config), "--epsilon", "0.3",
                         "--out", str(out)]) == 0
        for name in ("trajectory.csv", "sensitivity_np1.csv",
                     "control_eps0p3.csv", "trajectory_eps0p3.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_scheme_override_and_plot(self, tmp_path):
        config = write_scenario_inputs(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", str(config), "--scheme", "rothc_discrete",
                     "--out", str(out), "--plot"]) == 0
        header = (out / "trajectory.csv").read_text().splitlines()[0]
        assert "scheme=rothc_discrete" in header
        svg = (out / "trajectory.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_absolute_mode(self, tmp_path):
        config = write_scenario_inputs(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", str(config), "--mode", "absolute",
                     "--out", str(out)]) == 0
        traj = _read_totals(out / "trajectory.csv")
        assert np.all(traj.states >= -1e-12)
        assert traj.meta["mode"] == "absolute"

    def test_controlled_policy_runs_at_the_baseline_share(self, tmp_path):
        config = _demo_with_key(tmp_path, "fym_mode", "controlled")
        out = tmp_path / "out"
        assert main(["simulate", str(config), "--out", str(out)]) == 0
        assert (out / "control.csv").exists()
        traj = _read_totals(out / "trajectory.csv")
        baseline = sc.build_scenario(sc.load_config(config)).baseline
        assert float(traj.meta["epsilon"]) == baseline.P0 / (baseline.P0
                                                              + baseline.F0)
        assert traj.totals.min() >= -1e-9

    def test_controlled_policy_in_absolute_mode_writes_nothing(self, tmp_path,
                                                                capsys):
        config = _demo_with_key(tmp_path, "fym_mode", "controlled")
        out = tmp_path / "out"
        assert main(["simulate", str(config), "--mode", "absolute",
                     "--out", str(out)]) == 1
        assert "delta mode only" in capsys.readouterr().err
        assert not out.exists()

    def test_controlled_policy_on_the_discrete_step_writes_nothing(
            self, tmp_path, capsys):
        # the controlled loop takes the non-standard step only
        config = _demo_with_key(tmp_path, "fym_mode", "controlled")
        out = tmp_path / "out"
        assert main(["simulate", str(config), "--scheme", "rothc_discrete",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and (
            "nonstandard scheme in delta mode only, got rothc_discrete in "
            "delta mode") in err, err
        assert not out.exists()


class TestZeroRatio:
    """r = 0 runs under either cover mode, and for every sensitivity but
    the one to r, whose derivative needs r > 0."""

    @pytest.fixture
    def forest(self, tmp_path):
        config = _demo_with_key(tmp_path, "dpm_rpm_ratio", "0")
        config.write_text(config.read_text().replace("land_class = arable",
                                                     "land_class = forest"))
        return config

    @pytest.mark.parametrize("cover_mode", ["timed", "smooth"])
    @pytest.mark.parametrize("command", [
        ["simulate"], ["control", "--epsilon", "0,0.5"],
        ["sensitivity", "--param", "np1"], ["sensitivity", "--param", "temp1"],
    ], ids=["simulate", "control", "np1", "temp1"])
    def test_runs(self, forest, tmp_path, command, cover_mode):
        forest.write_text(forest.read_text() + f"cover_mode = {cover_mode}\n")
        out = tmp_path / "out"
        assert main([command[0], str(forest), *command[1:],
                     "--out", str(out)]) == 0
        assert _written_values_finite(out)

    def test_sensitivity_to_r_exits_one(self, forest, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["sensitivity", str(forest), "--param", "r",
                     "--out", str(out)]) == 1
        assert "DPM/RPM ratio must be positive, got 0.0" in (
            capsys.readouterr().err)
        assert not out.exists()


class TestConfigValues:
    @pytest.mark.parametrize("key, value", [
        ("dpm_rpm_ratio", "nan"), ("depth_cm", "nan"), ("depth_cm", "inf"),
        ("plant_input_tc_ha_yr", "nan"), ("fym_baseline_tc_ha_yr", "-inf"),
        ("soc_active_tc_ha", "nan"),
        ("fym_monthly_tc_ha", ",".join(["0.05"] * 11 + ["nan"])),
    ])
    def test_non_finite_value_exits_one_naming_key(self, tmp_path, capsys,
                                                   key, value):
        config = _demo_with_key(tmp_path, key, value)
        if key == "fym_monthly_tc_ha":
            config.write_text(config.read_text() + "fym_mode = fixed\n")
        out = tmp_path / "out"
        assert main(["simulate", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"key {key!r}: non-finite value" in err
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("latitude", ["75", "-75"])
    def test_polar_latitude_runs(self, tmp_path, latitude):
        # beyond the polar circles whole months have day length 0, PET 0
        config = _demo_with_key(tmp_path, "latitude_deg", latitude)
        out = tmp_path / "out"
        for command in (["simulate"], ["sensitivity", "--param", "temp1"],
                        ["control", "--epsilon", "0.5"]):
            assert main([command[0], str(config), *command[1:], "--out",
                         str(out)]) == 0, command
        assert _written_values_finite(out)

    @pytest.mark.parametrize("lines, message", [
        (["fym_mode = bogus"], "unknown FYM mode 'bogus'"),
        (["fym_mode = fixed"], "needs 12 non-negative monthly densities"),
        (["fym_mode = fixed", "fym_monthly_tc_ha = " + ",".join(["0.1"] * 11)],
         "needs 12 non-negative monthly densities"),
        (["fym_mode = fixed",
          "fym_monthly_tc_ha = " + ",".join(["0.1"] * 11 + ["-0.1"])],
         "needs 12 non-negative monthly densities"),
        (["fym_mode = controlled", "epsilon = 0.5"], "unknown key 'epsilon'"),
        (["fym_monthly_tc_ha = " + ",".join(["0.1"] * 12)],
         "need fym_mode = fixed, not 'none'"),
        (["fym_mode = controlled",
          "fym_monthly_tc_ha = " + ",".join(["0.1"] * 12)],
         "need fym_mode = fixed, not 'controlled'"),
    ], ids=["unknown-mode", "fixed-no-densities", "fixed-11-densities",
            "fixed-negative-density", "epsilon-key", "densities-without-mode",
            "controlled-densities"])
    def test_bad_manure_policy_exits_one(self, tmp_path, capsys, lines,
                                         message):
        config = _demo_with_key(tmp_path, *lines[0].split(" = "))
        config.write_text(config.read_text()
                          + "".join(f"{line}\n" for line in lines[1:]))
        out = tmp_path / "out"
        assert main(["simulate", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and message in err, err
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["simulate"], ["sensitivity", "--param", "temp1"],
        ["sensitivity", "--param", "r", "--dt", "0.05"],
        ["control", "--epsilon", "0.5"], ["equilibrium", "--inputs", "1", "0"],
    ], ids=["simulate", "sensitivity", "sensitivity-dt-option", "control",
            "equilibrium"])
    @pytest.mark.parametrize("key, value", [
        ("scheme", "rothc_discrete"), ("sensitivity_dt", "5"),
        ("sensitivity_dt", "1e-7"),
    ], ids=["scheme", "dt-over-a-month", "dt-below-the-floor"])
    def test_a_bad_value_exits_one_whatever_the_command(
            self, tmp_path, capsys, command, key, value):
        # the step and the scheme are the options --scheme and --dt only:
        # every command rejects either key, whatever its value
        message = f"unknown key {key!r}"
        config = _demo_with_key(tmp_path, key, value)
        out = tmp_path / "out"
        argv = [command[0], str(config), *command[1:]]
        if command[0] != "equilibrium":
            argv += ["--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and message in err, err
        assert not out.exists()

    @pytest.mark.parametrize("dt", ["nan", "0", "inf", "-inf", "-1", "1.5",
                                    "-1e-3", "1e-7"])
    def test_sensitivity_step_outside_one_month_exits_one(self, tmp_path,
                                                          capsys, dt):
        # the 1e-6 floor is checked before the sample cap, so a step below
        # it is reported as such, although the command records every step
        message = ("sensitivity step 1e-07 is below 1e-06 months"
                   if dt == "1e-7" else "sensitivity step must be in (0, 1]")
        out = tmp_path / "out"
        for option in ([f"--dt={dt}"], ["--dt", dt]):
            assert main(["sensitivity", str(DEMO / "scenario.cfg"), "--param",
                         "temp1", *option, "--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"configuration error: {message}"), err
            assert not out.exists()

    def test_sensitivity_step_recording_too_many_samples_exits_one(
            self, tmp_path, capsys):
        # above the floor: 10 000 steps a month over the demo's 14 years
        out = tmp_path / "out"
        assert main(["sensitivity", str(DEMO / "scenario.cfg"), "--param",
                     "r", "--dt", "1e-4", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: sensitivity step 0.0001 "
                              "would record"), err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["plant_input_tc_ha_yr",
                                     "fym_baseline_tc_ha_yr",
                                     "soc_active_tc_ha"])
    def test_overflowing_baseline_exits_three(self, tmp_path, capsys, key):
        config = _demo_with_key(tmp_path, key, "1e300")
        assert main(["equilibrium", str(config), "--inputs", "1", "0"]) == 3
        assert "could not bracket" in capsys.readouterr().err

    def test_overflowing_ratio_derivative_exits_three(self, tmp_path, capsys):
        config = _demo_with_key(tmp_path, "dpm_rpm_ratio", "1e300")
        out = tmp_path / "out"
        assert main(["sensitivity", str(config), "--param", "r",
                     "--out", str(out)]) == 3
        assert "(r + 1)^2 overflows" in capsys.readouterr().err
        assert not out.exists()


class TestSensitivityCommand:
    def test_np1_summary_nonnegative(self, tmp_path, capsys):
        config = write_scenario_inputs(tmp_path)
        out = tmp_path / "out"
        assert main(["sensitivity", str(config), "--param", "np1",
                     "--out", str(out)]) == 0
        summary = capsys.readouterr().out
        match = re.search(r"min=(\S+) max=(\S+) final=(\S+)", summary)
        assert match and float(match.group(1)) >= 0.0
        assert (out / "sensitivity_np1.csv").exists()

    def test_temp1_summary_nonpositive(self, tmp_path, capsys):
        config = write_scenario_inputs(tmp_path)
        assert main(["sensitivity", str(config), "--param", "temp1",
                     "--out", str(tmp_path / "out")]) == 0
        match = re.search(r"max=(\S+)", capsys.readouterr().out)
        assert float(match.group(1)) <= 0.0

    def test_r_series_spans_horizon(self, tmp_path):
        config = write_scenario_inputs(tmp_path)
        out = tmp_path / "out"
        assert main(["sensitivity", str(config), "--param", "r", "--dt", "0.05",
                     "--out", str(out)]) == 0
        lines = (out / "sensitivity_r.csv").read_text().splitlines()
        last_t = float(lines[-1].split(",")[0])
        assert last_t == pytest.approx(12.0 * 15)

    def test_unknown_param_rejected_by_argparse(self, tmp_path):
        config = write_scenario_inputs(tmp_path)
        with pytest.raises(SystemExit):
            main(["sensitivity", str(config), "--param", "clay"])


class TestControlCommand:
    def test_epsilon_zero_maintenance(self, tmp_path):
        config = write_scenario_inputs(tmp_path, fym_baseline_tc_ha_yr=0.5,
                                       plant_input_tc_ha_yr=0.5)
        out = tmp_path / "out"
        assert main(["control", str(config), "--epsilon", "0",
                     "--out", str(out)]) == 0
        traj = _read_totals(out / "trajectory_eps0.csv")
        assert np.max(np.abs(traj.totals)) <= 1e-9
        assert (out / "control_eps0.csv").exists()

    def test_sweep_ordering_and_file_count(self, tmp_path):
        config = write_scenario_inputs(tmp_path, warming=0.15, np_trend=0.0,
                                       r=1.0, fym_baseline_tc_ha_yr=0.5,
                                       plant_input_tc_ha_yr=0.5)
        out = tmp_path / "out"
        assert main(["control", str(config),
                     "--epsilon", "0,0.2,0.5,0.8", "--out", str(out)]) == 0
        files = sorted(out.glob("trajectory_eps*.csv"))
        assert len(files) == 4
        means = []
        for eps in ("0", "0p2", "0p5", "0p8"):
            traj = _read_totals(out / f"trajectory_eps{eps}.csv")
            means.append([traj.annual_means()[y] for y in range(2006, 2020)])
        means = np.array(means)
        assert np.all(np.diff(means, axis=0) >= -1e-12)

    def test_epsilon_one_routed_to_uncontrolled(self, tmp_path, capsys):
        config = write_scenario_inputs(tmp_path, fym_baseline_tc_ha_yr=0.5,
                                       plant_input_tc_ha_yr=0.5)
        out = tmp_path / "out"
        assert main(["control", str(config), "--epsilon", "1",
                     "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "no manure" in captured.out and captured.err == ""
        assert (out / "trajectory_eps1.csv").exists()
        assert not (out / "control_eps1.csv").exists()

    @pytest.mark.parametrize("policy", [
        ["fym_mode = controlled"],
        ["fym_mode = fixed", "fym_monthly_tc_ha = " + ",".join(["0.1"] * 12)],
    ], ids=["controlled", "fixed"])
    def test_epsilon_one_runs_without_the_configured_manure(self, tmp_path,
                                                            policy):
        plain = tmp_path / "plain"
        assert main(["control", str(DEMO / "scenario.cfg"), "--epsilon", "1",
                     "--out", str(plain)]) == 0
        config = _demo_with_key(tmp_path, *policy[0].split(" = "))
        config.write_text(config.read_text()
                          + "".join(f"{line}\n" for line in policy[1:]))
        out = tmp_path / "out"
        assert main(["control", str(config), "--epsilon", "0,1",
                     "--out", str(out)]) == 0
        assert (out / "trajectory_eps0.csv").exists()
        assert ((out / "trajectory_eps1.csv").read_bytes()
                == (plain / "trajectory_eps1.csv").read_bytes())

    def test_bad_value_late_in_the_list_writes_no_file(self, tmp_path,
                                                        capsys):
        out = tmp_path / "out"
        assert main(["control", str(DEMO / "scenario.cfg"), "--epsilon",
                     "0.5,2", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert "epsilon must be in [0, 1)" in err
        assert not out.exists()

    def test_a_run_below_the_floor_exits_three_with_no_file(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(_kernels, "controlled_recurrence",
                            below_floor(-1e-6))
        out = tmp_path / "out"
        assert main(["control", str(DEMO / "scenario.cfg"), "--epsilon",
                     "0,0.5", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "below the floor" in err, err
        assert not out.exists()

    def test_negative_zero_is_written_as_zero(self, tmp_path):
        out = tmp_path / "out"
        assert main(["control", str(DEMO / "scenario.cfg"), "--epsilon", "-0",
                     "--out", str(out)]) == 0
        assert sorted(path.name for path in out.iterdir()) == [
            "control_eps0.csv", "trajectory_eps0.csv"]
        for name in ("control_eps0.csv", "trajectory_eps0.csv"):
            first = (out / name).read_text().splitlines()[0].split()
            assert "epsilon=0.0" in first, first

    def test_bad_epsilon_list(self, tmp_path, capsys):
        config = write_scenario_inputs(tmp_path, fym_baseline_tc_ha_yr=0.5)
        assert main(["control", str(config), "--epsilon", "0.2;0.5"]) == 1

    @pytest.mark.parametrize("values", ["0.2,0.20", "0,0.3,1e-0,1",
                                        "0.5,0.5000001", "0,-0"])
    def test_epsilon_values_sharing_a_file_tag_exit_one(self, tmp_path,
                                                        capsys, values):
        out = tmp_path / "out"
        assert main(["control", str(DEMO / "scenario.cfg"), "--epsilon",
                     values, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "same files" in err, err
        assert not out.exists()


class TestUnwritableOutput:
    """An output path that cannot be written is a data error (exit 2) with
    one ``data error: cannot write`` line, never a traceback."""

    COMMANDS = {
        "simulate": (["simulate"], "trajectory.svg"),
        "sensitivity": (["sensitivity", "--param", "np1"],
                        "sensitivity_np1.svg"),
        "control": (["control", "--epsilon", "0"], "control_dsoc.svg"),
    }

    @staticmethod
    def _exits_two(capsys, argv, path):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [err.rstrip("\n")], err
        assert err.startswith(f"data error: cannot write {path}: "), err

    @pytest.mark.parametrize("command", COMMANDS)
    def test_out_an_existing_file(self, tmp_path, capsys, command):
        config = write_scenario_inputs(tmp_path, fym_baseline_tc_ha_yr=0.5,
                                       plant_input_tc_ha_yr=0.5)
        args, _ = self.COMMANDS[command]
        out = tmp_path / "taken"
        out.write_text("")
        self._exits_two(capsys, [args[0], str(config), *args[1:],
                                 "--out", str(out)], out)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_chart_path_a_directory(self, tmp_path, capsys, command):
        config = write_scenario_inputs(tmp_path, fym_baseline_tc_ha_yr=0.5,
                                       plant_input_tc_ha_yr=0.5)
        args, chart = self.COMMANDS[command]
        out = tmp_path / "out"
        (out / chart).mkdir(parents=True)
        self._exits_two(capsys, [args[0], str(config), *args[1:],
                                 "--out", str(out), "--plot"], out / chart)
        # the files land together, so the failed run leaves none of its CSVs
        assert [path.name for path in out.iterdir()] == [chart]

    def test_console_entry_prints_no_traceback(self, tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("")
        proc = _run_python("-m", "socchange.cli", "simulate",
                           "data/demo/scenario.cfg", "--out", str(taken))
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"data error: cannot write {taken}: ")


class TestOutputsLandTogether:
    """A command's files move into --out together, once all are written: a
    failed command leaves --out as it was, prints nothing on stdout and
    leaves no temporary file behind."""

    @staticmethod
    def _listing(out):
        return {path.name: path.read_bytes() if path.is_file() else None
                for path in out.iterdir()}

    def _fails_on_a_directory(self, capsys, argv, out, taken):
        (out / taken).mkdir(parents=True)
        before = self._listing(out)
        assert main([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [captured.err.rstrip("\n")]
        assert captured.err.startswith(
            f"data error: cannot write {out / taken}: "), captured.err
        assert self._listing(out) == before
        assert list((out / taken).iterdir()) == []

    def test_a_sweep_with_a_directory_at_its_last_file(self, tmp_path, capsys):
        out = tmp_path / "out"
        self._fails_on_a_directory(
            capsys, ["control", str(DEMO / "scenario.cfg"), "--epsilon",
                     "0,0.5"], out, "trajectory_eps0p5.csv")
        assert [path.name for path in out.iterdir()] == [
            "trajectory_eps0p5.csv"]

    def test_a_sweep_through_epsilon_one_prints_one_line(self, tmp_path,
                                                         capsys):
        # the epsilon=1 note is a report line, printed only once files land
        out = tmp_path / "out"
        self._fails_on_a_directory(
            capsys, ["control", str(DEMO / "scenario.cfg"), "--epsilon",
                     "0,1"], out, "trajectory_eps1.csv")

    def test_a_controlled_simulate_with_a_directory_at_its_trajectory(
            self, tmp_path, capsys):
        # the run writes control.csv beside trajectory.csv
        config = _demo_with_key(tmp_path, "fym_mode", "controlled")
        out = tmp_path / "out"
        self._fails_on_a_directory(capsys, ["simulate", str(config)], out,
                                   "trajectory.csv")
        assert [path.name for path in out.iterdir()] == ["trajectory.csv"]

    def test_an_earlier_run_keeps_its_bytes(self, tmp_path, capsys):
        out, other = tmp_path / "out", tmp_path / "other"
        assert main(["control", str(DEMO / "scenario.cfg"), "--epsilon",
                     "0,0.5", "--plot", "--out", str(out)]) == 0
        config = _demo_with_key(tmp_path, "dpm_rpm_ratio", "2.0")
        argv = ["control", str(config), "--epsilon", "0,0.8", "--plot"]
        # a run on this config would overwrite three earlier files' bytes
        assert main([*argv, "--out", str(other)]) == 0
        capsys.readouterr()
        earlier, overwrite = self._listing(out), self._listing(other)
        shared = set(earlier) & set(overwrite)
        assert shared == {"control_eps0.csv", "trajectory_eps0.csv",
                          "control_dsoc.svg"}
        assert all(earlier[name] != overwrite[name] for name in shared)
        self._fails_on_a_directory(capsys, argv, out, "trajectory_eps0p8.csv")

    def test_a_failed_write_leaves_no_new_out(self, tmp_path, capsys,
                                              monkeypatch):
        def non_finite(*args):
            trajectory = sc.simulate(*args)
            trajectory.totals[-1] = math.nan
            return trajectory
        monkeypatch.setattr("socchange.cli.simulate", non_finite)
        out = tmp_path / "out"
        assert main(["simulate", str(DEMO / "scenario.cfg"), "--out",
                     str(out)]) == 3
        captured = capsys.readouterr()
        # the message names the output, not the staging directory
        assert captured.out == "" and captured.err == (
            "numerical error: non-finite value in the output for "
            f"{out / 'trajectory.csv'}; nothing written\n")
        assert not out.exists()

    def test_a_successful_run_leaves_only_its_files(self, tmp_path):
        out = tmp_path / "out"
        assert main(["control", str(DEMO / "scenario.cfg"), "--epsilon",
                     "0,0.5", "--plot", "--out", str(out)]) == 0
        assert sorted(path.name for path in out.iterdir()) == [
            "control_dsoc.svg", "control_eps0.csv", "control_eps0p5.csv",
            "trajectory_eps0.csv", "trajectory_eps0p5.csv"]


class TestEquilibriumCommand:
    def test_inputs_then_soc_round_trip(self, tmp_path, capsys):
        config = write_scenario_inputs(tmp_path)
        assert main(["equilibrium", str(config), "--inputs", "1", "0"]) == 0
        out = capsys.readouterr().out
        pools = {m.group(1): float(m.group(2)) for m in
                 re.finditer(r"c0\.(\w+) = (\S+)", out)}
        soc_active = sum(pools.values())
        assert main(["equilibrium", str(config), "--soc",
                     str(soc_active)]) == 0
        out2 = capsys.readouterr().out
        p0 = float(re.search(r"P0 = (\S+)", out2).group(1))
        assert p0 == pytest.approx(1.0, rel=1e-9)

    def test_zero_soc_all_zero_report(self, tmp_path, capsys):
        config = write_scenario_inputs(tmp_path)
        assert main(["equilibrium", str(config), "--soc", "0"]) == 0
        out = capsys.readouterr().out
        assert re.search(r"P0 = 0(\.0)?\b", out)
        assert "c_iom = 0" in out

    @pytest.mark.parametrize("option", [["--inputs", "1", "0"],
                                        ["--soc", "14.9"]])
    def test_one_root_solve(self, monkeypatch, option):
        # the scenario build solves none; the command one, for SOC_total
        # and c_iom together
        calls = []
        solve = sc.soc_total_from_active

        def counted(soc_active):
            calls.append(soc_active)
            return solve(soc_active)
        for module in ("socchange.equilibrium", "socchange.cli"):
            monkeypatch.setattr(f"{module}.soc_total_from_active", counted)
        assert main(["equilibrium", str(DEMO / "scenario.cfg"), *option]) == 0
        assert len(calls) == 1

    def test_residual_always_tiny(self, tmp_path, capsys):
        config = write_scenario_inputs(tmp_path)
        for argv in (["--inputs", "2.5", "0.5"], ["--soc", "35"]):
            assert main(["equilibrium", str(config)] + argv) == 0
            out = capsys.readouterr().out
            residual = float(re.search(r"residual = (\S+)", out).group(1))
            assert residual < 1e-10

    def test_large_active_soc_solves(self, capsys):
        assert main(["equilibrium", str(DEMO / "scenario.cfg"),
                     "--soc", "1e6"]) == 0
        assert "c_iom = 551322.5967" in capsys.readouterr().out

    def test_active_soc_near_the_falloon_peak_solves(self, capsys):
        # MAX_ACTIVE_SOC is about 1.2673e8 t C/ha
        assert main(["equilibrium", str(DEMO / "scenario.cfg"),
                     "--soc", "1.26e8"]) == 0
        c_iom = re.search(r"c_iom = (\S+)", capsys.readouterr().out)
        assert float(c_iom.group(1)) > 0

    def test_infeasible_baseline_exits_three(self, tmp_path, capsys):
        config = write_scenario_inputs(tmp_path, fym_baseline_tc_ha_yr=100.0)
        assert main(["equilibrium", str(config), "--soc", "1.0"]) == 3
        assert "negative" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("argv", [
        ["--soc", "nan"], ["--soc", "inf"], ["--soc=-inf"],
        ["--inputs", "nan", "0"], ["--inputs", "1", "inf"],
        ["--soc", "-1e-3"], ["--soc", "-inf"], ["--inputs", "1", "-inf"]])
    def test_non_finite_value_is_a_config_error(self, tmp_path, capsys,
                                                argv):
        # a negative value after a space is a value, not an option
        config = write_scenario_inputs(tmp_path)
        assert main(["equilibrium", str(config)] + argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error:"), err
        assert len(err.splitlines()) == 1, err


def _run_python(*args):
    """Run the interpreter on the repository's src/ from the repository root."""
    src = str(DEMO.parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, cwd=DEMO.parents[1], timeout=300,
                          env=dict(os.environ, PYTHONPATH=path))


class TestRuntimeImports:
    """numpy is the only runtime dependency: scipy is for the tests only."""

    def test_package_and_cli_load_no_scipy(self):
        proc = _run_python("-c", "import socchange, socchange.cli, sys; "
                                 "print(*sorted(sys.modules))")
        assert proc.returncode == 0, proc.stderr
        loaded = proc.stdout.split()
        assert "socchange.cli" in loaded and "numpy" in loaded
        assert [m for m in loaded if m.split(".")[0] == "scipy"] == []

    def test_equilibrium_command_imports_no_scipy(self):
        proc = _run_python("-X", "importtime", "-m", "socchange.cli",
                           "equilibrium", "data/demo/scenario.cfg",
                           "--soc", "14.9")
        assert proc.returncode == 0, proc.stderr
        assert "P0 = " in proc.stdout
        imported = [line.rpartition("|")[2].strip()
                    for line in proc.stderr.splitlines()
                    if line.startswith("import time:")]
        assert "socchange.equilibrium" in imported
        assert [m for m in imported if m.split(".")[0] == "scipy"] == []


class TestReadmeExample:
    def test_library_example_prints_the_horizon_annual_means(self):
        readme = (DEMO.parents[1] / "README.md").read_text()
        [example] = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
        proc = _run_python("-c", example)
        assert proc.returncode == 0, proc.stderr
        means = ast.literal_eval(proc.stdout.strip())
        assert list(means) == list(range(2006, 2020))


class TestVersion:
    def test_version_prints_scheme_identifiers(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "socchange" in out and "nonstandard" in out


# k_a pole of the unedited demo site: its 2005 mean temperature less KA_OFFSET
_DEMO_POLE = float(np.loadtxt(DEMO / "climate.csv", delimiter=",", skiprows=1,
                               max_rows=12)[:, 2].mean() - KA_OFFSET)

_EXTREME_CELLS = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e300", "-1e300", "1e-300",
                     "1e120", "-300", "0", "10000",
                     "12005000000000000000000000000"]),
    st.floats(-1e-3, 1e-3).map(lambda d: repr(_DEMO_POLE + d)))

_FUZZED_CELL = st.one_of(
    st.tuples(st.just("climate.csv"),
              st.builds("{},{},".format, st.integers(2005, 2019),
                        st.integers(1, 12)),
              st.sampled_from(["temp_c", "rain_mm", "pet_mm",
                               "daylength_h", "year"])),
    st.tuples(st.just("npp.csv"),
              st.builds("{},".format, st.integers(2005, 2019)),
              st.just("npp")))


_FLOAT_CONFIG_KEYS = ("latitude_deg", "clay_pct", "depth_cm", "dpm_rpm_ratio",
                      "bare_months", "eta", "plant_input_tc_ha_yr",
                      "fym_baseline_tc_ha_yr", "soc_active_tc_ha")

_CONFIG_EDIT = st.sampled_from(
    [(key, value) for key in _FLOAT_CONFIG_KEYS
     for value in ("nan", "inf", "-inf", "0", "-1", "1e300")]
    + [(key, value) for key in ("baseline_year", "horizon_years")
       for value in ("0", "-1")])

_FUZZED_COMMANDS = (["simulate"], ["sensitivity", "--param", "temp1"],
                    ["sensitivity", "--param", "r"],
                    ["control", "--epsilon", "0.5"])


def _written_values_finite(out: Path) -> bool:
    for path in out.rglob("*.csv"):
        rows = [line for line in path.read_text().splitlines()
                if not line.startswith("#")]
        for line in rows[1:]:
            if not all(math.isfinite(float(v)) for v in line.split(",")):
                return False
    return True


class TestFuzzedInputs:
    # a numeric warning is a failure here, as under the CI package job
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=100, deadline=None)
    @given(cell=_FUZZED_CELL, value=_EXTREME_CELLS)
    @example(cell=("climate.csv", "2005,3,", "temp_c"), value="-1e300")
    @example(cell=("climate.csv", "2010,7,", "temp_c"), value="-300")
    @example(cell=("climate.csv", "2010,7,", "temp_c"), value="1e300")
    @example(cell=("climate.csv", "2010,7,", "pet_mm"), value="1e300")
    @example(cell=("climate.csv", "2010,7,", "daylength_h"), value="1e300")
    @example(cell=("climate.csv", "2010,7,", "daylength_h"), value="1e-300")
    @example(cell=("climate.csv", "2006,1,", "daylength_h"), value="-300")
    @example(cell=("climate.csv", "2010,7,", "year"),
             value="12005000000000000000000000000")
    def test_one_extreme_cell_never_yields_non_finite_output(self, cell,
                                                            value):
        # an error is one stderr line; a success writes only finite values
        name, row_prefix, column = cell
        with tempfile.TemporaryDirectory() as tmp:
            config, _ = _demo_with_cell(Path(tmp), name, row_prefix, column,
                                        value)
            for command in (["simulate"], ["sensitivity", "--param", "temp1"],
                            ["control", "--epsilon", "0.5"]):
                out = Path(tmp) / command[0]
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    code = main([command[0], str(config), *command[1:],
                                 "--out", str(out)])
                if code == 0:
                    assert _written_values_finite(out), (command, cell, value)
                else:
                    assert code in (1, 2, 3), (command, cell, value)
                    assert len(err.getvalue().splitlines()) == 1, \
                        err.getvalue()

    @settings(max_examples=40, deadline=None)
    @given(edit=_CONFIG_EDIT, command=st.sampled_from(_FUZZED_COMMANDS))
    def test_one_extreme_config_value_exits_cleanly(self, edit, command):
        # an error is one stderr line (a traceback would propagate out of
        # main); a success writes only finite values
        key, value = edit
        with tempfile.TemporaryDirectory() as tmp:
            config = _demo_with_key(Path(tmp), key, value)
            out = Path(tmp) / "out"
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main([command[0], str(config), *command[1:],
                             "--out", str(out)])
            if code == 0:
                assert _written_values_finite(out), (command, key, value)
            else:
                assert code in (1, 2, 3), (command, key, value)
                assert len(err.getvalue().splitlines()) == 1, err.getvalue()
