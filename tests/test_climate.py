"""Thornthwaite PET, moisture deficit, and the three rate modifiers."""

import calendar
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import socchange as sc
from socchange.climate import KA_OFFSET
from socchange.errors import ConfigError, DataError

from conftest import constant_climate, synthetic_climate

N_2006 = np.array([31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])


class TestThornthwaite:
    def test_all_zero_temperatures_give_zero_pet(self):
        pet = sc.thornthwaite_pet(np.zeros(12), np.full(12, 12.0), N_2006)
        np.testing.assert_array_equal(pet, np.zeros(12))

    def test_synthetic_ramp_matches_scalar_oracle(self):
        # frozen from a 40-digit evaluation: temps 5..16 degC, L = 12 h,
        # calendar-2006 month lengths
        expected = np.array([
            22.347302714488915, 24.666541850642919, 32.355102901050323,
            36.264717143865042, 42.656419518542451, 46.352156639572109,
            53.190708634333229, 58.532517356434993, 61.857101999264034,
            69.347060693794312, 72.400641548416612, 80.317467493775022,
        ])
        temps = np.arange(5.0, 17.0)
        pet = sc.thornthwaite_pet(temps, np.full(12, 12.0), N_2006)
        np.testing.assert_allclose(pet, expected, rtol=1e-9)

    def test_exponent_polynomial_at_zero_heat_index(self):
        # a(I = 0) = 0.49: a single slightly-positive month exercises it
        temps = np.full(12, -5.0)
        temps[6] = 1e-12
        pet = sc.thornthwaite_pet(temps, np.full(12, 12.0), N_2006)
        heat = (1e-12 / 5.0) ** 1.5
        expected = 16.0 * (31 / 30) * (10.0 * 1e-12 / heat) ** (
            6.7e-7 * heat**3 - 7.7e-5 * heat**2 + 1.8e-2 * heat + 0.49)
        assert pet[6] == pytest.approx(expected, rel=1e-9)
        assert np.all(pet[temps <= 0] == 0.0)

    def test_negative_months_do_not_feed_heat_index(self):
        warm = np.array([0, 0, 0, 0, 10, 12, 15, 14, 11, 0, 0, 0], dtype=float)
        cold = warm.copy()
        cold[[0, 1, 11]] = -20.0
        pet_warm = sc.thornthwaite_pet(warm, np.full(12, 12.0), N_2006)
        pet_cold = sc.thornthwaite_pet(cold, np.full(12, 12.0), N_2006)
        np.testing.assert_allclose(pet_warm, pet_cold, rtol=1e-13)

    @pytest.mark.parametrize("bad", [-1.0, math.nan])
    def test_negative_or_nan_day_length_rejected(self, bad):
        ld = np.full(12, 12.0)
        ld[3] = bad
        with pytest.raises(DataError, match="non-negative"):
            sc.thornthwaite_pet(np.full(12, 10.0), ld, N_2006)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_polar_night_month_has_zero_pet(self):
        # beyond the polar circles day_lengths gives 0 h for whole months
        ld = sc.climate.day_lengths(75.0, 2006)
        assert ld[0] == 0.0 and ld[6] > 0.0
        pet = sc.thornthwaite_pet(np.full(12, 10.0), ld, N_2006)
        assert pet[0] == 0.0 and np.all(pet[ld > 0] > 0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("hot", [1e120, 1e300])
    def test_overflowing_heat_index_rejected(self, hot):
        # a NaN PET would otherwise clamp the whole year's deficit to M; the
        # overflow itself is no RuntimeWarning
        temps = np.full(12, 10.0)
        temps[6] = hot
        with pytest.raises(DataError, match="not finite"):
            sc.thornthwaite_pet(temps, np.full(12, 12.0), N_2006)


class TestMaxDeficit:
    def test_paper_site_values(self):
        site = sc.max_deficit(50.0, 23.0)
        assert site.M == pytest.approx(-60.0, abs=1e-12)
        assert site.Mb == pytest.approx(-26.64, abs=1e-12)

    def test_zero_clay(self):
        assert sc.max_deficit(0.0, 23.0).M == pytest.approx(-20.0, abs=1e-12)

    @given(st.floats(min_value=0, max_value=100),
           st.floats(min_value=0.1, max_value=300))
    def test_ratio_is_defining_constant(self, cly, d):
        site = sc.max_deficit(cly, d)
        assert site.Mb == pytest.approx(0.444 * site.M, rel=1e-15)
        assert site.M <= site.Mb <= 0.0

    def test_domain_errors(self):
        with pytest.raises(ConfigError):
            sc.max_deficit(-1.0, 23.0)
        with pytest.raises(ConfigError):
            sc.max_deficit(50.0, 0.0)


class TestAccumulatedDeficit:
    def test_wet_year_stays_zero(self):
        acc = sc.accumulated_deficit(np.full(12, 80.0), np.full(12, 50.0), -60.0)
        np.testing.assert_array_equal(acc, np.zeros(12))

    def test_zero_capacity_collapses(self):
        acc = sc.accumulated_deficit(np.zeros(12), np.full(12, 10.0), 0.0)
        np.testing.assert_array_equal(acc, np.zeros(12))

    def test_hand_iterated_dry_year(self):
        # hand iteration with deficit starting in month 1: -10 per month,
        # clamped at M = -60 from month 6 onward
        acc = sc.accumulated_deficit(np.zeros(12), np.full(12, 10.0), -60.0)
        expected = [-10, -20, -30, -40, -50, -60, -60, -60, -60, -60, -60, -60]
        np.testing.assert_allclose(acc, expected, atol=1e-12)

    def test_recovery_wets_toward_zero(self):
        rain = np.array([0, 0, 0, 0, 0, 0, 40, 40, 40, 40, 40, 40], dtype=float)
        pet = np.full(12, 10.0)
        acc = sc.accumulated_deficit(rain, pet, -60.0)
        expected = [-10, -20, -30, -40, -50, -60, -30, 0, 0, 0, 0, 0]
        np.testing.assert_allclose(acc, expected, atol=1e-12)

    def test_leading_wet_months_stay_zero(self):
        rain = np.array([50, 50, 50, 0, 0, 0, 0, 0, 0, 0, 0, 0], dtype=float)
        pet = np.full(12, 20.0)
        acc = sc.accumulated_deficit(rain, pet, -60.0)
        expected = [0, 0, 0, -20, -40, -60, -60, -60, -60, -60, -60, -60]
        np.testing.assert_allclose(acc, expected, atol=1e-12)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_always_clamped_and_nonincreasing_while_dry(self, seed):
        rng = np.random.default_rng(seed)
        rain = rng.uniform(0, 100, 12)
        pet = rng.uniform(0, 100, 12)
        m = -rng.uniform(1, 120)
        acc = sc.accumulated_deficit(rain, pet, m)
        assert np.all(acc <= 0.0) and np.all(acc >= m)
        for i in range(1, 12):
            if pet[i] > rain[i]:
                assert acc[i] <= acc[i - 1] + 1e-12


class TestTemperatureModifier:
    def test_anchored_at_reference(self):
        assert sc.rate_modifier_temperature(14.27, 14.27) == pytest.approx(
            1.0, abs=1e-12)

    def test_high_temperature_asymptote(self):
        # the logistic approaches 47.91/2 as 1/u: +1000 degC is still ~5% shy,
        # so the limit is checked far out and the approach checked monotone
        assert sc.rate_modifier_temperature(14.0 + 1e6, 14.0) == pytest.approx(
            47.91 / 2.0, rel=1e-3)
        seq = [sc.rate_modifier_temperature(14.0 + t, 14.0)
               for t in (1e2, 1e3, 1e4, 1e5)]
        assert np.all(np.diff(seq) > 0)
        assert np.all(np.asarray(seq) < 47.91 / 2.0)

    def test_monotone_on_grid(self):
        temp0 = 14.0
        grid = np.arange(temp0 - 5.0, temp0 + 15.0, 0.1)
        values = [sc.rate_modifier_temperature(t, temp0) for t in grid]
        assert np.all(np.diff(values) > 0)
        assert sc.rate_modifier_temperature(temp0 + 5, temp0) > 1.0

    def test_pole_rejected_with_pole_named(self):
        temp0 = 14.0
        pole = temp0 - KA_OFFSET
        with pytest.raises(ConfigError, match=f"{pole:.2f}"):
            sc.rate_modifier_temperature(pole + 0.005, temp0)


class TestMoistureModifier:
    def test_endpoints_and_continuity(self, site50):
        assert sc.rate_modifier_moisture(0.0, site50) == 1.0
        assert sc.rate_modifier_moisture(site50.M, site50) == pytest.approx(
            0.2, abs=1e-14)
        limit_above = sc.rate_modifier_moisture(site50.Mb, site50)
        limit_below = sc.rate_modifier_moisture(site50.Mb - 1e-12, site50)
        assert limit_above == pytest.approx(1.0, abs=1e-12)
        assert limit_below == pytest.approx(1.0, abs=1e-10)

    @given(st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=100.0))
    def test_bounded(self, frac, cly):
        site = sc.max_deficit(cly, 23.0)
        acc = site.M * frac
        assert 0.2 <= sc.rate_modifier_moisture(acc, site) <= 1.0

    def test_out_of_range_rejected(self, site50):
        with pytest.raises(ConfigError):
            sc.rate_modifier_moisture(0.5, site50)
        with pytest.raises(ConfigError):
            sc.rate_modifier_moisture(site50.M - 1.0, site50)


ARABLE_COVER = sc.dynamics.ARABLE_COVER_SCHEDULE


class TestCoverModifiers:
    def test_timed_arable_august_bare(self):
        assert sc.rate_modifier_cover_timed(8, 1.44, ARABLE_COVER) == 1.0

    def test_timed_arable_july_vegetated(self):
        assert sc.rate_modifier_cover_timed(7, 1.44, ARABLE_COVER) == 0.6

    def test_timed_grassland_always_vegetated(self):
        for month in range(1, 13):
            assert sc.rate_modifier_cover_timed(month, 0.67, None) == 0.6

    def test_arable_without_schedule_rejected(self):
        with pytest.raises(ConfigError):
            sc.rate_modifier_cover_timed(3, 1.44, None)

    def test_smooth_small_ratio_limit(self):
        assert sc.rate_modifier_cover_smooth(1e-9, 4.0) == pytest.approx(
            0.6, abs=1e-12)

    def test_smooth_at_unit_ratio(self):
        # x(1) = 0 so the sigmoid is exactly 1/2
        assert sc.rate_modifier_cover_smooth(1.0, 4.0) == pytest.approx(
            0.6 + 4.0 / 60.0, abs=1e-15)

    def test_smooth_large_ratio_asymptote(self):
        assert sc.rate_modifier_cover_smooth(1e9, 4.0) == pytest.approx(
            0.6 + 4.0 / 30.0, rel=1e-9)

    def test_smooth_monotone_in_ratio(self):
        grid = np.linspace(0.01, 100.0, 2000)
        vals = [sc.rate_modifier_cover_smooth(r, 4.0) for r in grid]
        assert np.all(np.diff(vals) >= 0)

    def test_smooth_rejects_nonpositive_ratio(self):
        with pytest.raises(ConfigError):
            sc.rate_modifier_cover_smooth(0.0, 4.0)

    def test_kc_range(self):
        for r in (0.01, 0.5, 1.0, 3.0, 50.0):
            assert 0.6 <= sc.rate_modifier_cover_smooth(r, 4.0) <= 1.0


class TestRhoComposition:
    def test_product_recomposition(self, site50):
        ref = sc.ReferenceState(temp0=14.0, acc0=-20.0, site=site50)
        rho = sc.rho_monthly(16.5, -35.0, 9, 1.44, ref, "timed", ARABLE_COVER)
        expected = (sc.rate_modifier_temperature(16.5, 14.0)
                    * sc.rate_modifier_moisture(-35.0, site50)
                    * sc.rate_modifier_cover_timed(9, 1.44, ARABLE_COVER))
        assert rho == pytest.approx(expected, rel=1e-12)

    def test_reference_product_is_060(self, site50):
        # wet soil, reference temperature, vegetated cover
        ref = sc.ReferenceState(temp0=14.0, acc0=0.0, site=site50)
        rho = sc.rho_monthly(14.0, 0.0, 5, 0.25, ref, "timed", None)
        assert rho == pytest.approx(0.6, abs=1e-12)

    def test_rho0_strips_cover_dependence(self, site50):
        ref = sc.ReferenceState(temp0=14.0, acc0=-22.0, site=site50)
        ratios = [0.25, 0.67, 1.44, 10.0]
        kb = [ref.rho0(r) / sc.rate_modifier_cover_smooth(r, ref.n_bare)
              for r in ratios]
        np.testing.assert_allclose(kb, kb[0], rtol=1e-14)


class TestAnnualAverages:
    def test_reference_anchoring(self, site50):
        climate = synthetic_climate(2005, 3, site50, seed=5)
        ref = sc.reference_from_climate(climate, 2005, site50)
        assert sc.rate_modifier_temperature(ref.temp0, ref.temp0) == \
            pytest.approx(1.0, abs=1e-12)

    def test_means_are_plain_averages(self, site50):
        climate = synthetic_climate(2005, 3, site50, seed=6)
        temp_n, acc_n = sc.annual_averages(climate, 2006)
        assert temp_n == pytest.approx(climate.temp[1].mean(), rel=1e-15)
        assert acc_n == pytest.approx(climate.acc[1].mean(), rel=1e-15)

    def test_constant_climate_is_stationary(self, site50):
        climate = constant_climate(2005, 4, site50)
        ref = sc.reference_from_climate(climate, 2005, site50)
        temps, accs = sc.annual_averages(climate, np.arange(2006, 2009))
        avg = sc.AveragedModel(temps=temps, accs=accs, np_ratios=np.ones(3),
                               reference=ref, T=12.0)
        for n in (1, 2, 3):
            for r in (0.25, 0.67, 1.44):
                assert avg.rho_n(n, r) == pytest.approx(ref.rho0(r), rel=1e-12)

    def test_missing_year_is_data_error(self, site50):
        climate = constant_climate(2005, 2, site50)
        with pytest.raises(DataError, match="2009"):
            sc.annual_averages(climate, 2009)

    def test_elementwise_over_years(self, site50):
        climate = synthetic_climate(2005, 4, site50, seed=7)
        years = np.arange(2005, 2009)
        temps, accs = sc.annual_averages(climate, years)
        per_year = [sc.annual_averages(climate, int(y)) for y in years]
        np.testing.assert_array_equal(temps, [t for t, _ in per_year])
        np.testing.assert_array_equal(accs, [a for _, a in per_year])


class TestDayLengths:
    def test_equator_always_twelve_hours(self):
        ld = sc.climate.day_lengths(0.0, 2006)
        np.testing.assert_allclose(ld, 12.0, atol=0.2)

    def test_northern_summer_longer(self):
        ld = sc.climate.day_lengths(41.0, 2006)
        assert ld[5] > 14.0 > 12.0 > ld[11]
        assert ld[5] == max(ld)

    def test_mean_over_year_near_twelve(self):
        ld = sc.climate.day_lengths(41.0, 2006)
        assert np.average(ld, weights=N_2006) == pytest.approx(12.0, abs=0.15)

    def test_polar_extremes_stay_finite(self):
        for lat in (-90.0, 90.0):
            ld = sc.climate.day_lengths(lat, 2006)
            assert np.all(np.isfinite(ld))
            assert np.all((ld >= 0.0) & (ld <= 24.0))


    @pytest.mark.parametrize("lat", [-90.0, -66.0, -41.0, 0.0, 23.4, 41.0,
                                     67.0, 90.0])
    @pytest.mark.parametrize("year", [2006, 2008])
    def test_matches_per_day_loop(self, lat, year):
        # numpy's sin/tan/arccos and the blocked monthly sums may differ from
        # the math loop by a few ulp of 24 h
        np.testing.assert_allclose(sc.climate.day_lengths(lat, year),
                                   _day_lengths_loop(lat, year),
                                   rtol=0, atol=1e-13)


def _day_lengths_loop(latitude_deg, year):
    """Reference: the per-day solar-declination loop."""
    lat = math.radians(latitude_deg)
    ndays = sc.climate.month_lengths(year)
    out = np.empty(12)
    doy = 1
    for m in range(12):
        total = 0.0
        for _ in range(ndays[m]):
            decl = 0.409 * math.sin(2.0 * math.pi * doy / 365.0 - 1.39)
            cos_ws = min(max(-math.tan(lat) * math.tan(decl), -1.0), 1.0)
            total += (24.0 / math.pi) * math.acos(cos_ws)
            doy += 1
        out[m] = total / ndays[m]
    return out


class TestElementwise:
    """Array calls of the monthly formulas equal their scalar calls."""

    def test_modifiers_and_product(self, site50):
        rng = np.random.default_rng(11)
        temps = rng.uniform(-5.0, 35.0, 60)
        accs = rng.uniform(site50.M, 0.0, 60)
        accs[:5] = [0.0, site50.M, site50.Mb, site50.Mb - 1e-9, -1e-12]
        months = rng.integers(1, 13, 60)
        ref = sc.ReferenceState(temp0=14.0, acc0=-20.0, site=site50)
        np.testing.assert_array_equal(
            sc.rate_modifier_temperature(temps, 14.0),
            [sc.rate_modifier_temperature(t, 14.0) for t in temps])
        np.testing.assert_array_equal(
            sc.rate_modifier_moisture(accs, site50),
            [sc.rate_modifier_moisture(a, site50) for a in accs])
        for r, schedule in ((1.44, ARABLE_COVER), (0.67, None)):
            np.testing.assert_array_equal(
                sc.rate_modifier_cover_timed(months, r, schedule),
                [sc.rate_modifier_cover_timed(int(m), r, schedule)
                 for m in months])
            for mode in ("timed", "smooth"):
                np.testing.assert_array_equal(
                    sc.rho_monthly(temps, accs, months, r, ref, mode, schedule),
                    [sc.rho_monthly(t, a, int(m), r, ref, mode, schedule)
                     for t, a, m in zip(temps, accs, months)])

    def test_scalar_calls_return_scalars(self, site50):
        assert np.ndim(sc.rate_modifier_moisture(-10.0, site50)) == 0
        assert np.ndim(sc.rate_modifier_cover_timed(3, 0.5)) == 0
        assert np.ndim(sc.rate_modifier_cover_timed(3, 1.5, ARABLE_COVER)) == 0

    def test_array_domain_errors_name_the_culprit(self, site50):
        temp0 = 14.0
        pole = temp0 - KA_OFFSET
        with pytest.raises(ConfigError, match=f"{pole:.2f}"):
            sc.rate_modifier_temperature(np.array([20.0, pole + 0.005]), temp0)
        with pytest.raises(ConfigError, match="0.5"):
            sc.rate_modifier_moisture(np.array([-1.0, 0.5]), site50)
        with pytest.raises(ConfigError, match="13"):
            sc.rate_modifier_cover_timed(np.array([1, 13]), 0.5)

    def test_series_index(self, site50):
        climate = constant_climate(2005, 3, site50)
        np.testing.assert_array_equal(
            climate.index(np.array([[2005, 2007], [2006, 2006]])),
            [[0, 2], [1, 1]])
        with pytest.raises(DataError, match="2008"):
            climate.index(np.array([2006, 2008]))


class TestClimateSeries:
    def test_leap_year_month_lengths(self):
        np.testing.assert_array_equal(
            sc.climate.month_lengths(2008)[1:3], [29, 31])
        assert sc.climate.month_lengths(2008).sum() == 366
        assert sc.climate.month_lengths(2007).sum() == 365

    def test_pet_skipped_when_given(self, site50):
        temps = np.full((1, 12), 15.0)
        rains = np.full((1, 12), 30.0)
        given_pet = np.full((1, 12), 45.0)
        series = sc.ClimateSeries.build(2005, temps, rains, site50,
                                        pet=given_pet)
        np.testing.assert_array_equal(series.pet, given_pet)

    @pytest.mark.parametrize("name, value", [("rain", -1e300), ("rain", -13.6),
                                             ("rain", math.nan), ("pet", -1.0)])
    def test_negative_rain_or_pet_rejected(self, site50, name, value):
        inputs = {"temp": np.full((2, 12), 15.0), "rain": np.full((2, 12), 30.0),
                  "pet": np.full((2, 12), 45.0)}
        inputs[name][1, 2] = value
        with pytest.raises(DataError, match=f"{name} must be >= 0 .* 2006-03"):
            sc.ClimateSeries.build(2005, inputs["temp"], inputs["rain"],
                                   site50, pet=inputs["pet"])

    def test_acc_derived_consistently_between_pet_routes(self, site50):
        # same pet supplied explicitly vs recomputed from temperature
        temps = 14 + 8 * np.sin(2 * np.pi * (np.arange(12) - 3) / 12)
        rains = np.full(12, 40.0)
        computed = sc.ClimateSeries.build(2005, temps[None, :], rains[None, :],
                                          site50, latitude_deg=41.0)
        explicit = sc.ClimateSeries.build(2005, temps[None, :], rains[None, :],
                                          site50, pet=computed.pet)
        np.testing.assert_allclose(explicit.acc, computed.acc, atol=1e-12)

    def test_acc_in_bounds(self, site50):
        climate = synthetic_climate(2005, 6, site50, seed=9)
        assert np.all(climate.acc <= 0.0)
        assert np.all(climate.acc >= site50.M)


def _pet_year(temps, day_lengths_h, month_days):
    """Reference: one year of Thornthwaite PET over the warm months only,
    with a scalar heat index."""
    pet = np.zeros(12)
    warm = temps > 0.0
    heat = sum((t / 5.0) ** 1.5 for t in temps[warm])
    if heat == 0.0:
        return pet
    a = 6.7e-7 * heat**3 - 7.7e-5 * heat**2 + 1.8e-2 * heat + 0.49
    pet[warm] = (16.0 * (day_lengths_h[warm] / 12.0)
                 * (month_days[warm] / 30.0) * (10.0 * temps[warm] / heat) ** a)
    return pet


def _deficit_year(rain, pet, M):
    """Reference: the per-month deficit loop over one year."""
    acc = np.zeros(12)
    started = False
    prev = 0.0
    for m in range(12):
        if not started:
            if pet[m] <= rain[m]:
                continue
            started = True
        prev = min(max(M, prev + rain[m] - pet[m]), 0.0)
        acc[m] = prev
    return acc


# common and leap years, century rules included
_YEARS = np.array([1900, 2000, 2006, 2008, 2023, 2024])


def _mixed_years(seed):
    """Temperatures of six years: mixed-sign, all-warm and all-cold rows."""
    temps = np.random.default_rng(seed).uniform(-8.0, 30.0, (6, 12))
    temps[1] = np.abs(temps[1]) + 0.5
    temps[4] = -np.abs(temps[4]) - 0.5   # zero heat index: a zero-PET year
    return temps


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestWholeArrays:
    """Calls over a (year, month) grid equal per-year calls and oracles."""

    def test_month_lengths_per_year(self):
        ndays = sc.climate.month_lengths(_YEARS)
        assert ndays.shape == (6, 12)
        np.testing.assert_array_equal(
            ndays, [sc.climate.month_lengths(int(y)) for y in _YEARS])
        np.testing.assert_array_equal(
            ndays[:, 1], [28 + calendar.isleap(int(y)) for y in _YEARS])
        assert sc.climate.month_lengths(_YEARS.reshape(2, 3)).shape == (2, 3, 12)

    @pytest.mark.parametrize("lat", [-90.0, -41.0, 0.0, 41.0, 67.0, 90.0])
    def test_day_lengths_per_year(self, lat):
        ld = sc.climate.day_lengths(lat, _YEARS)
        np.testing.assert_array_equal(
            ld, [sc.climate.day_lengths(lat, int(y)) for y in _YEARS])
        np.testing.assert_allclose(
            ld, [_day_lengths_loop(lat, int(y)) for y in _YEARS],
            rtol=0, atol=1e-13)
        assert sc.climate.day_lengths(lat, _YEARS.reshape(3, 2)).shape == (3, 2, 12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pet_per_year(self, seed):
        temps = _mixed_years(seed)
        ld = sc.climate.day_lengths(41.0, _YEARS)
        ndays = sc.climate.month_lengths(_YEARS)
        pet = sc.thornthwaite_pet(temps, ld, ndays)
        np.testing.assert_array_equal(
            pet, [sc.thornthwaite_pet(temps[i], ld[i], ndays[i])
                  for i in range(6)])
        np.testing.assert_allclose(
            pet, [_pet_year(temps[i], ld[i], ndays[i]) for i in range(6)],
            rtol=1e-13, atol=0)
        np.testing.assert_array_equal(pet[4], np.zeros(12))
        assert np.all(pet[temps <= 0.0] == 0.0)

    def test_pet_day_lengths_broadcast_over_years(self):
        temps = _mixed_years(3)
        ndays = sc.climate.month_lengths(_YEARS)
        ld = np.linspace(9.0, 15.0, 12)
        np.testing.assert_array_equal(
            sc.thornthwaite_pet(temps, ld, ndays),
            sc.thornthwaite_pet(temps, np.tile(ld, (6, 1)), ndays))

    def test_deficit_equals_month_loop(self):
        rng = np.random.default_rng(4)
        rain = rng.uniform(0.0, 100.0, (40, 12))
        pet = rng.uniform(0.0, 100.0, (40, 12))
        rain[0], pet[0] = 0.0, 10.0    # reaches M = -60 exactly in June
        rain[1], pet[1] = 0.0, 30.0    # lands on M, then clamps
        rain[2], pet[2] = 80.0, 50.0   # never starts
        acc = sc.accumulated_deficit(rain, pet, -60.0)
        np.testing.assert_array_equal(
            acc, [_deficit_year(rain[i], pet[i], -60.0) for i in range(40)])
        assert acc[0, 5] == acc[1, 1] == -60.0
        np.testing.assert_array_equal(
            sc.accumulated_deficit(rain.reshape(4, 10, 12),
                                   pet.reshape(4, 10, 12), -60.0),
            acc.reshape(4, 10, 12))

    @pytest.mark.parametrize("daylength_shape", [(12,), (6, 12)])
    def test_series_build_equals_per_year_calls(self, site50, daylength_shape):
        temps = _mixed_years(5)
        rain = np.random.default_rng(5).uniform(0.0, 90.0, (6, 12))
        ld = np.broadcast_to(np.linspace(9.0, 15.0, 12), daylength_shape)
        built = {
            "latitude": sc.ClimateSeries.build(1900, temps, rain, site50,
                                               latitude_deg=41.0),
            "day lengths": sc.ClimateSeries.build(1900, temps, rain, site50,
                                                  day_lengths_h=ld)}
        years = np.arange(1900, 1906)
        for route, series in built.items():
            for i, year in enumerate(years):
                ld_i = (sc.climate.day_lengths(41.0, int(year))
                        if route == "latitude"
                        else np.broadcast_to(ld, (6, 12))[i])
                ndays = sc.climate.month_lengths(int(year))
                np.testing.assert_array_equal(series.month_days[i], ndays)
                np.testing.assert_array_equal(
                    series.pet[i], sc.thornthwaite_pet(temps[i], ld_i, ndays))
                np.testing.assert_array_equal(
                    series.acc[i], _deficit_year(rain[i], series.pet[i],
                                                 site50.M))

    def test_shapes_that_do_not_broadcast_rejected(self, site50):
        with pytest.raises(DataError, match="12 monthly values"):
            sc.thornthwaite_pet(np.full(11, 10.0), np.full(11, 12.0), N_2006[:11])
        with pytest.raises(DataError, match="12 monthly values"):
            sc.accumulated_deficit(np.zeros((3, 12)), np.zeros((2, 12)), -60.0)
        with pytest.raises(DataError, match="12 monthly values"):
            sc.ClimateSeries.build(2005, np.full((2, 12), 10.0),
                                   np.full((2, 12), 30.0), site50,
                                   day_lengths_h=np.full((3, 12), 12.0))
