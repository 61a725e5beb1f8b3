"""Loaders, config parsing, and deterministic writers."""

from pathlib import Path

import numpy as np
import pytest

import socchange as sc
from socchange.errors import ConfigError, DataError, NumericsError

from conftest import (make_scenario, synthetic_climate, write_climate_csv,
                      write_scenario_inputs)

DATA = Path(__file__).parent / "data"


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
        with pytest.raises(DataError, match="duplicate month 2006-05"):
            sc.load_climate(tmp_path / "dup.csv", site50, latitude_deg=41.0)

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


class TestLoadDensityTable:
    def test_shipped_table(self):
        densities, covers = sc.load_density_table(DATA / "density_table1.csv")
        assert densities["arable"].proportion(7) == 0.5
        assert densities["grassland"].proportion(1) == 0.05
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
        assert densities["arable"].proportion(7) == 0.5

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
        assert scenario.horizon == 14
        assert scenario.r == 1.44
        assert scenario.baseline.epsilon == 1.0
        traj = sc.simulate(scenario)
        assert traj.t.shape[0] == 14 * 12 + 1

    def test_density_csv_used_when_given(self, tmp_path):
        config_path = write_scenario_inputs(
            tmp_path, density_csv=str(DATA / "density_table1.csv"))
        scenario = sc.build_scenario(sc.load_config(config_path))
        assert scenario.density.proportion(7) == 0.5

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
        assert scenario.reference.n_bare == 6.0
        # smooth cover factor for high ratios approaches 0.6 + 6/30
        assert scenario.reference.rho0(1e6) == pytest.approx(
            scenario.reference.kb0 * 0.8, rel=1e-9)

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

    def test_blocks_past_the_first_write_the_same_bytes(self, tmp_path):
        # rows are written 2 048 at a time; the file is the one-join form
        n = 2 * 2048 + 5
        rng = np.random.default_rng(8)
        states = rng.standard_normal((n, 4)) * 10.0 ** rng.integers(-30, 30,
                                                                   (n, 4))
        traj = sc.Trajectory(t=np.arange(n) / 3.0,
                             year=2005 + np.arange(n) // 12,
                             month=np.arange(n) % 12 + 1, states=states,
                             totals=states.sum(axis=1), scheme="nonstandard",
                             mode="delta", meta={"scheme": "nonstandard"})
        out = tmp_path / "long.csv"
        sc.write_trajectory(out, traj)
        rows = [",".join(map(repr, row)) for row in zip(
            traj.year.tolist(), traj.month.tolist(), traj.t.tolist(),
            *traj.states.T.tolist(), traj.totals.tolist())]
        lines = out.read_text().splitlines()
        expected = "\n".join([lines[0],
                              "year,month,t_months,dpm,rpm,bio,hum,total",
                              *rows]) + "\n"
        assert out.read_bytes() == expected.encode()
        assert len(lines) == n + 2

    def test_unwritable_path_is_a_data_error(self, tmp_path, arable_scenario):
        traj = sc.simulate(arable_scenario)
        with pytest.raises(DataError, match="cannot write"):
            sc.write_trajectory(tmp_path / "missing" / "t.csv", traj)
        with pytest.raises(DataError, match="cannot write"):
            sc.write_trajectory(tmp_path, traj)

    def test_metadata_line_carries_scheme_and_hash(self, tmp_path,
                                                   arable_scenario):
        traj = sc.simulate(arable_scenario)
        sc.write_trajectory(tmp_path / "t.csv", traj)
        header = (tmp_path / "t.csv").read_text().splitlines()[0]
        assert "scheme=nonstandard" in header
        assert "scenario=" in header
        assert "socchange=" in header
