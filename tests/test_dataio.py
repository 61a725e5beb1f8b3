"""Loaders, config parsing, and deterministic writers."""

import dataclasses
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import socchange as sc
from socchange import dataio
from socchange.errors import ConfigError, DataError, NumericsError

from conftest import (make_scenario, synthetic_climate, write_climate_csv,
                      write_scenario_inputs)

DATA = Path(__file__).parent / "data"
DEMO = Path(__file__).resolve().parents[1] / "data" / "demo"

# the required config keys, in declaration order
CONFIG_KEYS = ["clay_pct = 50", "depth_cm = 23", "baseline_year = 2005",
               "horizon_years = 14", "dpm_rpm_ratio = 1.44",
               "climate_csv = climate.csv", "npp_csv = npp.csv"]


@pytest.fixture
def row_parser():
    """A spy on the loaders' row parser, which no valid table needs."""
    with mock.patch.object(dataio, "_parse_rows",
                           wraps=dataio._parse_rows) as spy:
        yield spy


class TestLoadClimate:
    def test_fifteen_years_give_180_records(self, tmp_path, site50):
        climate = synthetic_climate(2005, 15, site50, seed=2)
        write_climate_csv(tmp_path / "c.csv", climate)
        loaded = sc.load_climate(tmp_path / "c.csv", site50, latitude_deg=41.0)
        assert loaded.nyears == 15
        assert loaded.temp.size == 180
        np.testing.assert_allclose(loaded.temp, climate.temp, rtol=1e-15)

    def test_gap_reported_by_month(self, tmp_path, site50):
        climate = synthetic_climate(2006, 3, site50)
        write_climate_csv(tmp_path / "c.csv", climate)
        lines = (tmp_path / "c.csv").read_text().splitlines()
        kept = [ln for ln in lines if not ln.startswith("2007,3,")]
        (tmp_path / "gap.csv").write_text("\n".join(kept) + "\n")
        with pytest.raises(DataError, match="gap at 2007-03"):
            sc.load_climate(tmp_path / "gap.csv", site50, latitude_deg=41.0)

    def test_duplicate_month_rejected_with_line(self, tmp_path, site50):
        climate = synthetic_climate(2006, 1, site50)
        write_climate_csv(tmp_path / "c.csv", climate)
        text = (tmp_path / "c.csv").read_text()
        (tmp_path / "dup.csv").write_text(text + "2006,5,10.0,40.0\n")
        with pytest.raises(DataError, match="line 14: duplicate month 2006-05$"):
            sc.load_climate(tmp_path / "dup.csv", site50, latitude_deg=41.0)

    def test_repeat_in_a_long_file_names_the_later_line(self, tmp_path,
                                                        site50):
        climate = synthetic_climate(2006, 100, site50)
        write_climate_csv(tmp_path / "c.csv", climate)
        lines = (tmp_path / "c.csv").read_text().splitlines()
        lines[-1] = lines[600]   # 2055-12 again, on line 1201
        (tmp_path / "dup.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError,
                           match="line 1201: duplicate month 2055-12$"):
            sc.load_climate(tmp_path / "dup.csv", site50, latitude_deg=41.0)

    @pytest.mark.parametrize("row, message", [
        ("0,13,", "'year' value 0 outside 1..9999"),
        ("2005,14,", "month 14 outside 1..12"),   # 2005-14 is 2006-02
        ("2006,2,", "duplicate month 2006-02"),
    ])
    def test_first_row_check_named_on_a_line(self, tmp_path, site50, row,
                                             message):
        # a line that fails several checks is named by the first of year,
        # month, repeat
        climate = synthetic_climate(2006, 2, site50)
        write_climate_csv(tmp_path / "c.csv", climate)
        lines = (tmp_path / "c.csv").read_text().splitlines()
        lines[13] = row + lines[13].split(",", 2)[2]
        (tmp_path / "bad.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=f"line 14: {message}$"):
            sc.load_climate(tmp_path / "bad.csv", site50, latitude_deg=41.0)

    def test_non_numeric_cell_names_line(self, tmp_path, site50):
        climate = synthetic_climate(2006, 1, site50)
        write_climate_csv(tmp_path / "c.csv", climate)
        lines = (tmp_path / "c.csv").read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0] + ",n/a"
        (tmp_path / "bad.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="line 4"):
            sc.load_climate(tmp_path / "bad.csv", site50, latitude_deg=41.0)

    @pytest.mark.parametrize("temp", ["-300", "-273.16", "-1e300"])
    def test_temperature_below_absolute_zero_names_month(self, tmp_path,
                                                         site50, temp):
        climate = synthetic_climate(2006, 2, site50)
        write_climate_csv(tmp_path / "c.csv", climate)
        lines = (tmp_path / "c.csv").read_text().splitlines()
        cells = lines[15].split(",")   # 2007-03, after the header
        cells[2] = temp
        lines[15] = ",".join(cells)
        (tmp_path / "cold.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="absolute zero.* 2007-03"):
            sc.load_climate(tmp_path / "cold.csv", site50, latitude_deg=41.0)

    def test_pet_column_skips_thornthwaite(self, tmp_path, site50):
        climate = synthetic_climate(2005, 2, site50, seed=3)
        write_climate_csv(tmp_path / "with_pet.csv", climate, with_pet=True)
        loaded = sc.load_climate(tmp_path / "with_pet.csv", site50)
        np.testing.assert_allclose(loaded.pet, climate.pet, rtol=1e-15)

    def test_dual_route_acc_consistency(self, tmp_path, site50):
        # acc from a recomputed-pet load matches acc from the same pet
        # written explicitly into the file
        climate = synthetic_climate(2005, 3, site50, seed=4)
        write_climate_csv(tmp_path / "plain.csv", climate)
        recomputed = sc.load_climate(tmp_path / "plain.csv", site50,
                                     latitude_deg=41.0)
        write_climate_csv(tmp_path / "explicit.csv", recomputed, with_pet=True)
        explicit = sc.load_climate(tmp_path / "explicit.csv", site50)
        np.testing.assert_allclose(explicit.acc, recomputed.acc, atol=1e-12)

    def test_daylength_column_overrides_solar_model(self, tmp_path, site50):
        climate = synthetic_climate(2006, 1, site50, seed=5)
        lines = ["year,month,temp_c,rain_mm,daylength_h"]
        for m in range(12):
            lines.append(f"2006,{m + 1},{float(climate.temp[0, m])!r},"
                         f"{float(climate.rain[0, m])!r},12.0")
        (tmp_path / "dl.csv").write_text("\n".join(lines) + "\n")
        loaded = sc.load_climate(tmp_path / "dl.csv", site50)
        ndays = sc.climate.month_lengths(2006)
        expected = sc.thornthwaite_pet(climate.temp[0], np.full(12, 12.0),
                                       ndays)
        np.testing.assert_allclose(loaded.pet[0], expected, rtol=1e-14)

    def test_missing_file(self, site50):
        with pytest.raises(DataError):
            sc.load_climate("/nonexistent/climate.csv", site50)

    @pytest.mark.parametrize("payload", [
        "", "garbage without commas\n", "year,month\n2005,1\n",
        "year,month,temp_c,rain_mm\n2005,13,1.0,2.0\n",
        "\x00\x01binary\x02\n",
    ])
    def test_loader_total_over_malformed_input(self, tmp_path, site50,
                                               payload):
        (tmp_path / "junk.csv").write_text(payload)
        with pytest.raises(DataError):
            sc.load_climate(tmp_path / "junk.csv", site50, latitude_deg=41.0)

    def test_spaces_after_header_commas(self, tmp_path, site50):
        climate = synthetic_climate(2005, 2, site50, seed=6)
        write_climate_csv(tmp_path / "c.csv", climate, with_pet=True)
        lines = (tmp_path / "c.csv").read_text().splitlines()
        lines[0] = lines[0].replace(",", ", ")
        (tmp_path / "spaced.csv").write_text("\n".join(lines) + "\n")
        plain = sc.load_climate(tmp_path / "c.csv", site50)
        spaced = sc.load_climate(tmp_path / "spaced.csv", site50)
        for name in ("temp", "rain", "pet", "acc"):
            np.testing.assert_array_equal(getattr(spaced, name),
                                          getattr(plain, name))

    def test_line_numbers_count_blank_lines(self, tmp_path, site50):
        climate = synthetic_climate(2006, 1, site50)
        write_climate_csv(tmp_path / "c.csv", climate)
        lines = (tmp_path / "c.csv").read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0] + ",n/a"
        lines[1:1] = ["", ""]
        (tmp_path / "bad.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="line 6: non-numeric"):
            sc.load_climate(tmp_path / "bad.csv", site50, latitude_deg=41.0)

    def test_rule_fault_read_whole_counts_blank_lines(self, tmp_path, site50,
                                                      row_parser):
        climate = synthetic_climate(2006, 2, site50)
        write_climate_csv(tmp_path / "c.csv", climate)
        lines = (tmp_path / "c.csv").read_text().splitlines()
        lines[5] = lines[5].replace("2006,5,", "2006,13,")
        lines[1:1] = ["", ""]
        (tmp_path / "bad.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="line 8: month 13 outside 1..12$"):
            sc.load_climate(tmp_path / "bad.csv", site50, latitude_deg=41.0)
        assert row_parser.call_count == 0

    @pytest.mark.parametrize("first, second, message", [
        ((2, "n/a"), (1, "13"), "line 4: non-numeric 'temp_c' value 'n/a'"),
        ((1, "13"), (2, "n/a"), "line 4: month 13 outside 1..12"),
    ], ids=["bad-cell-first", "bad-month-first"])
    def test_first_fault_in_file_order_is_reported(self, tmp_path, site50,
                                                   first, second, message):
        # each fault alone is an error; with two, the earlier line wins
        climate = synthetic_climate(2006, 2, site50)
        write_climate_csv(tmp_path / "c.csv", climate)
        lines = (tmp_path / "c.csv").read_text().splitlines()
        for line_no, (column, value) in ((4, first), (20, second)):
            cells = lines[line_no - 1].split(",")
            cells[column] = value
            lines[line_no - 1] = ",".join(cells)
        (tmp_path / "bad.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=f"bad.csv: {message}$"):
            sc.load_climate(tmp_path / "bad.csv", site50, latitude_deg=41.0)

    def test_bad_cell_named_before_a_rule_fault_on_its_line(self, tmp_path,
                                                            site50):
        # the row parser stops at the bad cell, so its row meets no rule
        climate = synthetic_climate(2006, 2, site50)
        write_climate_csv(tmp_path / "c.csv", climate)
        lines = (tmp_path / "c.csv").read_text().splitlines()
        lines[3] = "2006,13," + lines[3].split(",")[2] + ",x"
        (tmp_path / "bad.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError,
                           match="line 4: non-numeric 'rain_mm' value 'x'$"):
            sc.load_climate(tmp_path / "bad.csv", site50, latitude_deg=41.0)

    @pytest.mark.parametrize("column, value, message", [
        (3, "x", "non-numeric 'rain_mm' value 'x'"),
        (2, "nan", "non-finite 'temp_c' value 'nan'"),
        (0, "2105.5", "non-integer 'year' value '2105.5'"),
    ])
    def test_bad_cell_in_last_of_1200_rows_names_its_line(
            self, tmp_path, site50, column, value, message):
        climate = synthetic_climate(2006, 100, site50)
        write_climate_csv(tmp_path / "c.csv", climate)
        lines = (tmp_path / "c.csv").read_text().splitlines()
        cells = lines[-1].split(",")
        cells[column] = value
        lines[-1] = ",".join(cells)
        (tmp_path / "bad.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=f"line 1201: {message}$"):
            sc.load_climate(tmp_path / "bad.csv", site50, latitude_deg=41.0)

    def test_month_13_in_place_of_january_rejected(self, tmp_path, site50):
        # 2006-13 would be 2007-01 by month count: the whole-column checks
        # must reject the month itself, not only gaps and duplicates
        climate = synthetic_climate(2006, 2, site50)
        write_climate_csv(tmp_path / "c.csv", climate)
        text = (tmp_path / "c.csv").read_text()
        (tmp_path / "bad.csv").write_text(text.replace("\n2007,1,", "\n2006,13,"))
        with pytest.raises(DataError, match="line 14: month 13 outside 1..12"):
            sc.load_climate(tmp_path / "bad.csv", site50, latitude_deg=41.0)

    def test_rows_in_any_order_load_as_sorted(self, tmp_path, site50):
        climate = synthetic_climate(2005, 3, site50, seed=8)
        write_climate_csv(tmp_path / "c.csv", climate, with_pet=True)
        header, *rows = (tmp_path / "c.csv").read_text().splitlines()
        (tmp_path / "shuffled.csv").write_text(
            "\n".join([header, *rows[::-1]]) + "\n")
        plain = sc.load_climate(tmp_path / "c.csv", site50)
        shuffled = sc.load_climate(tmp_path / "shuffled.csv", site50)
        for name in ("temp", "rain", "pet", "acc"):
            np.testing.assert_array_equal(getattr(shuffled, name),
                                          getattr(plain, name))


_LOADERS = {
    "climate": lambda path: sc.load_climate(path, sc.max_deficit(50.0, 23.0),
                                            latitude_deg=41.0),
    "npp": lambda path: sc.load_npp(path, 2005),
    "density": sc.load_density_table,
}
_HEADERS = {"climate": "year,month,temp_c,rain_mm", "npp": "year,npp",
            "density": "month,forest"}


@pytest.mark.parametrize("loader", sorted(_LOADERS))
@pytest.mark.parametrize("body, message", [
    ("", "empty file"),
    ("year,day\n2005,1\n", "header must contain"),
    ("{header}\n\n2005\n", "line 3: too few columns"),
    ("{header}\n" + "9" * 200_000 + "\n", "malformed CSV"),
], ids=["empty", "header", "short-row", "oversized-field"])
def test_table_reader_errors_shared_by_loaders(tmp_path, loader, body,
                                               message):
    (tmp_path / "t.csv").write_text(body.format(header=_HEADERS[loader]))
    with pytest.raises(DataError, match=message):
        _LOADERS[loader](tmp_path / "t.csv")


def test_valid_tables_take_the_fast_path(tmp_path, row_parser, site50,
                                         arable_scenario):
    # loadtxt reads a 100-year file about five times as fast as the row
    # parser, so a valid table that fell back to it would cost every run
    write_climate_csv(tmp_path / "century.csv",
                      synthetic_climate(2000, 100, site50, seed=4))
    assert sc.load_climate(tmp_path / "century.csv", site50,
                           latitude_deg=41.0).nyears == 100
    assert sc.load_climate(DEMO / "climate.csv", site50,
                           latitude_deg=41.0).nyears > 0
    assert sc.load_npp(DEMO / "npp.csv", 2005)[2005] == 1.0
    assert "arable" in sc.load_density_table(DATA / "density_table1.csv")[1]
    sc.write_trajectory(tmp_path / "traj.csv", sc.simulate(arable_scenario))
    assert len(sc.read_trajectory(tmp_path / "traj.csv").t) > 0
    assert row_parser.call_count == 0


class TestLoadNpp:
    def test_spaces_after_header_commas(self, tmp_path):
        rows = ["year, npp"] + [f"{2005 + n},{500.0 + n}" for n in range(3)]
        (tmp_path / "npp.csv").write_text("\n".join(rows) + "\n")
        assert sc.load_npp(tmp_path / "npp.csv", 2005) == {
            2005: 1.0, 2006: 501.0 / 500.0, 2007: 502.0 / 500.0}

    def test_constant_column_gives_unit_ratios(self, tmp_path):
        rows = ["year,npp"] + [f"{2005 + n},512.5" for n in range(5)]
        (tmp_path / "npp.csv").write_text("\n".join(rows) + "\n")
        ratios = sc.load_npp(tmp_path / "npp.csv", 2005)
        assert all(v == pytest.approx(1.0, rel=1e-15) for v in ratios.values())
        assert ratios[2005] == 1.0

    def test_missing_baseline_year(self, tmp_path):
        (tmp_path / "npp.csv").write_text("year,npp\n2006,500\n")
        with pytest.raises(DataError, match="2005"):
            sc.load_npp(tmp_path / "npp.csv", 2005)

    def test_zero_baseline_guarded(self, tmp_path):
        (tmp_path / "npp.csv").write_text("year,npp\n2005,0.0\n2006,500\n")
        with pytest.raises(DataError, match="zero"):
            sc.load_npp(tmp_path / "npp.csv", 2005)

    @pytest.mark.parametrize("base", ["0.0", "-500.0"])
    def test_baseline_not_above_zero_named_with_its_file(self, tmp_path,
                                                          base):
        # a negative baseline would flip the sign of every ratio back to > 0
        path = tmp_path / "npp.csv"
        path.write_text(f"year,npp\n2005,{base}\n2006,-510\n")
        with pytest.raises(DataError, match=re.escape(
                f"{path}: baseline NPP {base} for 2005 is not above zero, "
                "ratios undefined")):
            sc.load_npp(path, 2005)

    @pytest.mark.parametrize("year", ["0", "-5", "10000",
                                      "99999999999999999999"])
    def test_year_outside_the_datetime_range(self, tmp_path, year):
        (tmp_path / "npp.csv").write_text(
            f"year,npp\n2005,500\n{year},510\n2006,520\n")
        with pytest.raises(DataError, match=f"line 3: 'year' value {year} "
                           "outside 1..9999"):
            sc.load_npp(tmp_path / "npp.csv", 2005)


class TestLoadDensityTable:
    def test_shipped_table(self):
        densities, covers = sc.load_density_table(DATA / "density_table1.csv")
        assert densities["arable"].proportions[6] == 0.5
        assert densities["grassland"].proportions[0] == 0.05
        assert covers["arable"][7] == 1.0
        assert covers["arable"][6] == 0.6
        for cls in ("forest", "grassland", "arable"):
            assert densities[cls].proportions.sum() == pytest.approx(
                1.0, abs=1e-9)

    def test_bad_sum_rejected_naming_class(self, tmp_path):
        text = (DATA / "density_table1.csv").read_text()
        broken = text.replace("7,0.05,0.15,0.5,0.6", "7,0.05,0.15,0.49,0.6")
        (tmp_path / "bad.csv").write_text(broken)
        with pytest.raises(DataError, match="arable"):
            sc.load_density_table(tmp_path / "bad.csv")

    def test_reordered_rows_accepted(self, tmp_path):
        lines = (DATA / "density_table1.csv").read_text().splitlines()
        reordered = [lines[0]] + lines[1:][::-1]
        (tmp_path / "rev.csv").write_text("\n".join(reordered) + "\n")
        densities, _ = sc.load_density_table(tmp_path / "rev.csv")
        assert densities["arable"].proportions[6] == 0.5

    def test_missing_month_rejected(self, tmp_path):
        lines = (DATA / "density_table1.csv").read_text().splitlines()
        (tmp_path / "short.csv").write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(DataError, match="month 12"):
            sc.load_density_table(tmp_path / "short.csv")

    def test_spaces_after_header_commas(self, tmp_path):
        lines = (DATA / "density_table1.csv").read_text().splitlines()
        lines[0] = lines[0].replace(",", ", ")
        (tmp_path / "spaced.csv").write_text("\n".join(lines) + "\n")
        densities, covers = sc.load_density_table(tmp_path / "spaced.csv")
        shipped, shipped_covers = sc.load_density_table(
            DATA / "density_table1.csv")
        for cls, density in shipped.items():
            np.testing.assert_array_equal(densities[cls].proportions,
                                          density.proportions)
        np.testing.assert_array_equal(covers["arable"],
                                      shipped_covers["arable"])

    def test_cover_of_an_unknown_class_ignored(self, tmp_path):
        lines = (DATA / "density_table1.csv").read_text().splitlines()
        lines = [line + (",cover_orchard" if n == 0 else ",7")
                 for n, line in enumerate(lines)]
        (tmp_path / "extra.csv").write_text("\n".join(lines) + "\n")
        _, covers = sc.load_density_table(tmp_path / "extra.csv")
        assert list(covers) == ["arable"]

    @pytest.mark.parametrize("cover", ["-5", "0", "0.0", "1.0000001", "2"])
    def test_cover_outside_unit_interval_names_line_and_column(self, tmp_path,
                                                               cover):
        text = (DATA / "density_table1.csv").read_text()
        (tmp_path / "bad.csv").write_text(
            text.replace("1,0.025,0.05,0.0,0.6", f"1,0.025,0.05,0.0,{cover}"))
        with pytest.raises(DataError,
                           match=r"line 2: 'cover_arable' .* outside \(0, 1\]"):
            sc.load_density_table(tmp_path / "bad.csv")


class TestConfig:
    def test_full_round_trip_build(self, tmp_path):
        config_path = write_scenario_inputs(tmp_path)
        config = sc.load_config(config_path)
        scenario = sc.build_scenario(config)
        assert scenario.site.horizon == 14
        assert scenario.r == 1.44
        assert scenario.baseline.epsilon == 1.0
        traj = sc.simulate(scenario)
        assert traj.t.shape[0] == 14 * 12 + 1

    def test_density_csv_used_when_given(self, tmp_path):
        config_path = write_scenario_inputs(
            tmp_path, density_csv=str(DATA / "density_table1.csv"))
        scenario = sc.build_scenario(sc.load_config(config_path))
        assert scenario.site.density.proportions[6] == 0.5

    def test_fixed_manure_config_runs(self, tmp_path):
        monthly = ",".join(["0.02"] * 12)
        config_path = write_scenario_inputs(
            tmp_path, fym_mode="fixed", fym_monthly_tc_ha=monthly,
            fym_baseline_tc_ha_yr=0.3, plant_input_tc_ha_yr=0.9)
        scenario = sc.build_scenario(sc.load_config(config_path))
        assert scenario.fym.mode == "fixed"
        np.testing.assert_allclose(scenario.fym.monthly_density, 0.02)
        traj = sc.simulate(scenario)
        assert np.all(np.isfinite(traj.totals))

    def test_bare_months_propagates_to_reference(self, tmp_path):
        config_path = write_scenario_inputs(tmp_path, bare_months=6.0)
        scenario = sc.build_scenario(sc.load_config(config_path))
        assert scenario.site.reference.n_bare == 6.0
        # smooth cover factor for high ratios approaches 0.6 + 6/30
        assert scenario.site.reference.rho0(1e6) == pytest.approx(
            scenario.site.reference.kb0 * 0.8, rel=1e-9)

    def test_unknown_key_rejected(self, tmp_path):
        config_path = write_scenario_inputs(tmp_path)
        with open(config_path, "a") as fh:
            fh.write("soil_flavour = chocolate\n")
        with pytest.raises(ConfigError, match="soil_flavour"):
            sc.load_config(config_path)

    def test_missing_required_key(self, tmp_path):
        (tmp_path / "bad.cfg").write_text("clay_pct = 50\n")
        with pytest.raises(ConfigError, match="depth_cm"):
            sc.load_config(tmp_path / "bad.cfg")

    def test_duplicate_key_rejected(self, tmp_path):
        config_path = write_scenario_inputs(tmp_path)
        with open(config_path, "a") as fh:
            fh.write("clay_pct = 30\n")
        with pytest.raises(ConfigError, match="duplicate"):
            sc.load_config(config_path)

    def test_every_key_kind_has_a_parser(self):
        # a ScenarioConfig field of a new type needs a parser to be a key
        assert set(dataio._KEY_KINDS.values()) == set(dataio._PARSERS)

    @pytest.mark.parametrize("lines, message", [
        (CONFIG_KEYS + ["eta = half"],
         "{path}: key 'eta': non-numeric value 'half'"),
        (CONFIG_KEYS[:3] + ["horizon_years = 14.0"] + CONFIG_KEYS[4:],
         "{path}: key 'horizon_years': non-integer value '14.0'"),
        (CONFIG_KEYS + ["fym_monthly_tc_ha = 0.1,0.2,x"],
         "{path}: key 'fym_monthly_tc_ha': expected 12 comma-separated "
         "numbers"),
        (CONFIG_KEYS + ["latitude_deg = nan"],
         "{path}: key 'latitude_deg': non-finite value 'nan'"),
        (CONFIG_KEYS + ["fym_monthly_tc_ha = 0.1,inf"],
         "{path}: key 'fym_monthly_tc_ha': non-finite value '0.1,inf'"),
        (CONFIG_KEYS + ["epsilon = 0.5"], "{path}: unknown key 'epsilon'"),
        (CONFIG_KEYS + ["base_dir = /"], "{path}: unknown key 'base_dir'"),
        # a bad value before an unknown key is named first
        (CONFIG_KEYS + ["eta = ?", "epsilon = 0.5"],
         "{path}: key 'eta': non-numeric value '?'"),
        (["clay_pct = 50", "climate_csv = climate.csv"],
         "{path}: missing required keys: depth_cm, baseline_year, "
         "horizon_years, dpm_rpm_ratio, npp_csv"),
        # missing keys are named before any bad value
        (["# nothing set", "eta = half"],
         "{path}: missing required keys: clay_pct, depth_cm, baseline_year, "
         "horizon_years, dpm_rpm_ratio, climate_csv, npp_csv"),
        (CONFIG_KEYS[:2] + ["", "depth"] + CONFIG_KEYS[2:],
         "{path}: line 4: expected key = value"),
        (CONFIG_KEYS + ["clay_pct=30"], "{path}: line 8: duplicate key "
         "'clay_pct'"),
        (None, "cannot read config {path}: [Errno 2] No such file or "
         "directory: '{path}'"),
    ])
    def test_load_config_messages(self, tmp_path, lines, message):
        path = tmp_path / "scenario.cfg"
        if lines is not None:
            path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError) as info:
            sc.load_config(path)
        assert str(info.value) == message.format(path=path)

    def test_both_baseline_forms_rejected(self, tmp_path):
        config_path = write_scenario_inputs(tmp_path,
                                            plant_input_tc_ha_yr=1.0,
                                            soc_active_tc_ha=40.0)
        with pytest.raises(ConfigError, match="not both"):
            sc.build_scenario(sc.load_config(config_path))


class TestWriters:
    def test_trajectory_round_trip(self, tmp_path, arable_scenario):
        traj = sc.simulate(arable_scenario)
        out = tmp_path / "traj.csv"
        sc.write_trajectory(out, traj)
        back = sc.read_trajectory(out)
        np.testing.assert_allclose(back.states, traj.states, atol=1e-12)
        np.testing.assert_array_equal(back.states, traj.states)
        np.testing.assert_array_equal(back.t, traj.t)
        np.testing.assert_array_equal(back.year, traj.year)

    def test_byte_identical_reruns(self, tmp_path):
        scen_a = make_scenario(seed=12)
        scen_b = make_scenario(seed=12)
        sc.write_trajectory(tmp_path / "a.csv", sc.simulate(scen_a))
        sc.write_trajectory(tmp_path / "b.csv", sc.simulate(scen_b))
        assert (tmp_path / "a.csv").read_bytes() == \
            (tmp_path / "b.csv").read_bytes()
        # a warm rerun of a config, another site built and run in between:
        # the plain runs of both schemes and the controlled loop at every
        # share give the same bytes
        configs = {}
        for name, r in (("controlled", 1.44), ("other", 0.67)):
            (tmp_path / name).mkdir()
            configs[name] = write_scenario_inputs(
                tmp_path / name, r=r, fym_baseline_tc_ha_yr=0.5,
                fym_mode="controlled")

        def run(config):
            scen = sc.build_scenario(sc.load_config(config))
            plain = dataclasses.replace(scen, fym=sc.FymPolicy())
            out = [sc.simulate(plain, scheme=scheme, mode=mode).states
                   for scheme, mode in (("nonstandard", "delta"),
                                        ("rothc_discrete", "absolute"))]
            for eps in (0.0, 0.2, 0.5, 0.8):
                traj, schedule = sc.simulate_controlled(scen, eps)
                out += [traj.states, schedule.f0]
            return [array.tobytes() for array in out]

        first = run(configs["controlled"])
        run(configs["other"])
        assert run(configs["controlled"]) == first

    def test_empty_trajectory_header_only(self, tmp_path):
        empty = sc.Trajectory(t=np.empty(0), year=np.empty(0, dtype=int),
                              month=np.empty(0, dtype=int),
                              states=np.empty((0, 4)), totals=np.empty(0),
                              scheme="nonstandard", mode="delta",
                              meta={"scheme": "nonstandard"})
        out = tmp_path / "empty.csv"
        sc.write_trajectory(out, empty)
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("#")
        assert lines[1].startswith("year,month")

    def test_empty_trajectory_reads_back(self, tmp_path):
        empty = sc.Trajectory(t=np.empty(0), year=np.empty(0, dtype=int),
                              month=np.empty(0, dtype=int),
                              states=np.empty((0, 4)), totals=np.empty(0),
                              scheme="nonstandard", mode="delta",
                              meta={"scheme": "nonstandard"})
        sc.write_trajectory(tmp_path / "empty.csv", empty)
        back = sc.read_trajectory(tmp_path / "empty.csv")
        assert back.states.shape == (0, 4)
        assert back.t.shape == back.year.shape == (0,)

    @pytest.mark.parametrize("column, value, message", [
        (4, "x", "non-numeric 'rpm' value 'x'"),
        (7, "nan", "non-finite 'total' value 'nan'"),
        (1, "1.5", "non-integer 'month' value '1.5'"),
        (0, "9" * 30, "'year' value 9{30} outside the int64 range"),
        (7, None, "too few columns"),
    ], ids=["non-numeric", "nan", "non-integer", "int64", "short-row"])
    def test_bad_trajectory_cell_names_line_and_column(
            self, tmp_path, arable_scenario, column, value, message):
        sc.write_trajectory(tmp_path / "traj.csv", sc.simulate(arable_scenario))
        lines = (tmp_path / "traj.csv").read_text().splitlines()
        cells = lines[4].split(",")   # the third sample, after meta and header
        if value is None:
            del cells[column]
        else:
            cells[column] = value
        lines[4] = ",".join(cells)
        (tmp_path / "bad.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=f"bad.csv: line 5: {message}$"):
            sc.read_trajectory(tmp_path / "bad.csv")

    def test_trajectory_without_its_metadata_line_rejected(
            self, tmp_path, arable_scenario):
        sc.write_trajectory(tmp_path / "traj.csv", sc.simulate(arable_scenario))
        lines = (tmp_path / "traj.csv").read_text().splitlines()
        (tmp_path / "bad.csv").write_text("\n".join(lines[1:]) + "\n")
        with pytest.raises(DataError, match="bad.csv: not a trajectory file"):
            sc.read_trajectory(tmp_path / "bad.csv")

    def test_trajectory_header_names_checked(self, tmp_path, arable_scenario):
        sc.write_trajectory(tmp_path / "traj.csv", sc.simulate(arable_scenario))
        text = (tmp_path / "traj.csv").read_text()
        (tmp_path / "bad.csv").write_text(text.replace(",total\n", ",sum\n"))
        with pytest.raises(DataError, match="header must contain"):
            sc.read_trajectory(tmp_path / "bad.csv")

    def test_sensitivity_columns(self, tmp_path, arable_scenario):
        series = sc.sensitivity("np1", arable_scenario, dt=0.05)
        out = tmp_path / "s.csv"
        sc.write_sensitivity(out, series)
        lines = out.read_text().splitlines()
        assert lines[1] == "t,s1,s2,s3,s4,s_dsoc"
        parts = lines[2].split(",")
        assert float(parts[0]) == series.t[0]
        assert len(parts) == 6

    def test_control_columns_and_cumulative(self, tmp_path):
        scen = make_scenario(r=1.0, F0=0.5, P0=0.5, warming=0.15, np_trend=0.0,
                             seed=7)
        _, schedule = sc.simulate_controlled(scen, 0.2)
        out = tmp_path / "ctrl.csv"
        sc.write_control(out, schedule)
        lines = out.read_text().splitlines()
        assert lines[1] == "year,month,f0,f,cumulative"
        last = lines[-1].split(",")
        expected_total = sum(schedule.annual_totals().values())
        assert float(last[4]) == pytest.approx(expected_total, rel=1e-12)

    @pytest.mark.parametrize("writer", ["trajectory", "sensitivity",
                                        "control"])
    def test_non_finite_value_raises_before_writing(self, tmp_path, writer):
        scen = make_scenario(r=1.0, F0=0.5, P0=0.5, warming=0.15, seed=7)
        if writer == "trajectory":
            result = sc.simulate(scen)
            result.states[3, 1] = np.nan
        elif writer == "sensitivity":
            result = sc.sensitivity("np1", scen, dt=0.05)
            result.s_dsoc[-1] = np.inf
        else:
            _, result = sc.simulate_controlled(scen, 0.2)
            result.f0[5] = np.nan
        out = tmp_path / "out.csv"
        with pytest.raises(NumericsError, match="non-finite"):
            getattr(sc, f"write_{writer}")(out, result)
        assert not out.exists()

    @pytest.mark.parametrize("year", [2 ** 53 + 1, -2 ** 53 - 1,
                                      np.iinfo(np.int64).min])
    def test_integer_beyond_2_53_raises_before_writing(self, tmp_path, year):
        # float64 holds every integer up to 2^53, and the formatter prints
        # integers through it; up to 2^53 they print exactly
        traj = sc.simulate(make_scenario(horizon=1))
        out = tmp_path / "out.csv"
        traj.year[:] = 2 ** 53
        sc.write_trajectory(out, traj)
        assert out.read_text().splitlines()[2].startswith(
            "9007199254740992,0,12.0,")
        out.unlink()
        traj.year[-1] = year
        with pytest.raises(NumericsError, match="integer beyond 2\\*\\*53"):
            sc.write_trajectory(out, traj)
        assert not out.exists()

    @pytest.mark.parametrize("writer", ["trajectory", "sensitivity",
                                        "control"])
    @pytest.mark.parametrize("blocks, extra", [
        (0, 1), (1, -1), (1, 0), (1, 1), (2, 5)],
        ids=["1", "B-1", "B", "B+1", "2B+5"])
    def test_blocks_past_the_first_write_the_same_bytes(self, tmp_path,
                                                        writer, blocks, extra):
        # rows are written B at a time; the file is the one-join form
        n = blocks * dataio._WRITE_BLOCK_ROWS + extra
        rng = np.random.default_rng(8)

        def floats(*shape):
            # magnitudes from 1e-30 to 1e30, with -0.0 and 5e-324 among them
            values = (rng.standard_normal(shape)
                      * 10.0 ** rng.integers(-30, 31, shape))
            values.reshape(-1)[::7] = -0.0
            values.reshape(-1)[3::11] = 5e-324
            return values

        year, month = 2005 + np.arange(n) // 12, np.arange(n) % 12 + 1
        if writer == "trajectory":
            states = floats(n, 4)
            result = sc.Trajectory(t=floats(n), year=year, month=month,
                                   states=states, totals=states.sum(axis=1),
                                   scheme="nonstandard", mode="delta",
                                   meta={"scheme": "nonstandard"})
            header = "year,month,t_months,dpm,rpm,bio,hum,total"
            columns = [year, month, result.t, *states.T, result.totals]
        elif writer == "sensitivity":
            s = floats(n, 4)
            result = sc.SensitivitySeries(parameter="r", t=floats(n), s=s,
                                          s_dsoc=s.sum(axis=1),
                                          delta=floats(n, 4), meta={})
            header = "t,s1,s2,s3,s4,s_dsoc"
            columns = [result.t, *s.T, result.s_dsoc]
        else:
            f0, f = floats(n), floats(n)
            result = sc.ControlSchedule(t=np.arange(n) / 3.0, year=year,
                                        month=month, f0=f0, f=f,
                                        epsilon=0.5,
                                        meta={"dt": 0.25, "hold": "zoh",
                                              "F0": 1.0})
            header = "year,month,f0,f,cumulative"
            columns = [year, month, f0, f, np.cumsum(f * 0.25)]
        out = tmp_path / "long.csv"
        getattr(sc, f"write_{writer}")(out, result)
        rows = [",".join(map(repr, row))
                for row in zip(*(column.tolist() for column in columns))]
        lines = out.read_text().splitlines()
        expected = "\n".join([lines[0], header, *rows]) + "\n"
        assert out.read_bytes() == expected.encode()
        assert len(lines) == n + 2

    def test_unwritable_path_is_a_data_error(self, tmp_path, arable_scenario):
        traj = sc.simulate(arable_scenario)
        with pytest.raises(DataError, match="cannot write"):
            sc.write_trajectory(tmp_path / "missing" / "t.csv", traj)
        with pytest.raises(DataError, match="cannot write"):
            sc.write_trajectory(tmp_path, traj)

    def test_metadata_line_carries_scheme_and_no_digest(self, tmp_path,
                                                        arable_scenario):
        # line 1 lists the run's metadata and nothing derived from it
        traj = sc.simulate(arable_scenario)
        sc.write_trajectory(tmp_path / "t.csv", traj)
        header = (tmp_path / "t.csv").read_text().splitlines()[0]
        assert header.startswith(f"# socchange={sc.__version__} "
                                 "kind=trajectory ")
        assert "scheme=nonstandard" in header
        assert "scenario=" not in header
