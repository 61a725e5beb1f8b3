"""Plant-input densities, NPP ratios, and the delta forcing."""

import dataclasses
import re

import numpy as np
import pytest

import socchange as sc
from socchange.errors import ConfigError, DataError
from socchange.sensitivity import build_averaged_model
from socchange.stepping import _monthly_forcing

from conftest import (constant_climate, hand_months, make_scenario,
                      synthetic_climate)


class TestPlantDensity:
    def test_arable_july_half(self):
        assert sc.PlantInputDensity.standard("arable").proportions[6] == 0.5

    def test_grassland_january(self):
        density = sc.PlantInputDensity.standard("grassland")
        assert density.proportions[0] == 0.05

    @pytest.mark.parametrize("land_class", ["forest", "grassland", "arable"])
    def test_normalization(self, land_class):
        density = sc.PlantInputDensity.standard(land_class)
        total = sum(density.proportions)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_unknown_class_rejected(self):
        with pytest.raises(ConfigError):
            sc.PlantInputDensity.standard("wetland")

    def test_bad_sum_rejected(self):
        props = np.full(12, 1.0 / 12.0)
        props[0] += 1e-6
        with pytest.raises(DataError):
            sc.PlantInputDensity(props, "grassland")

    @pytest.mark.parametrize("props, land_class, error, message", [
        (np.full(11, 1 / 11), "forest", DataError, "needs 12 monthly"),
        (np.r_[-0.1, 1.1, np.zeros(10)], "forest", DataError,
         "negative proportion in forest"),
        (np.full(12, 1 / 12), "wetland", ConfigError,
         "unknown land class 'wetland'"),
    ], ids=["short", "negative", "class"])
    def test_malformed_density_rejected(self, props, land_class, error,
                                        message):
        with pytest.raises(error, match=message):
            sc.PlantInputDensity(props, land_class)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_proportions_rejected(self, bad):
        # NaN passed both the sign and the sum tests
        with pytest.raises(DataError, match="non-finite proportion"):
            sc.PlantInputDensity(np.full(12, bad), "arable")

    def test_annual_integral_of_density_is_one(self, arable_scenario):
        # step-function density p_m / dt_m integrates to exactly 1 per year
        site = arable_scenario.site
        record = site.month_operators
        year = record.year_index == 1
        total = ((record.supply[year] * record.dt[year]).sum()
                 / site.np_by_year[1])
        assert total == pytest.approx(1.0, rel=1e-14)

    def test_periodic_across_years(self, arable_scenario):
        assert arable_scenario.site.density.proportions[6] == 0.5
        # same proportion consumed for month 7 of every delta year
        month = arable_scenario.site.month_operators.month
        july = month == 7
        assert np.unique(month[july]).size == 1


class TestClassForRatio:
    @pytest.mark.parametrize("r,expected", [
        (1e-4, "forest"), (0.25, "forest"), (0.499, "forest"),
        (0.5, "grassland"), (0.95, "grassland"),
        (1.0, "arable"), (1.44, "arable"), (100.0, "arable"),
    ])
    def test_bands(self, r, expected):
        assert sc.class_for_ratio(r) == expected

    @pytest.mark.parametrize("r", [-0.1, float("nan")])
    def test_negative_or_nan_ratio_rejected(self, r):
        # NaN fell through every band to "arable"
        with pytest.raises(ConfigError,
                           match=f"DPM/RPM ratio must be >= 0, got {r}"):
            sc.class_for_ratio(r)


def _delta_forcing(scen):
    """The delta equation's forcing b per month over the time grid."""
    return _monthly_forcing(scen, "delta")


def _fixed(scen, densities):
    return sc.Scenario(scen.site, sc.FymPolicy("fixed", densities))


class TestDeltaForcingNoFym:
    """The delta forcing with no manure density, month by month."""

    def test_direction_parallel_to_plant_input(self, arable_scenario):
        b = _delta_forcing(arable_scenario)
        a_g = arable_scenario.mats.a_g
        scale = b[:, 0] / a_g[0]
        np.testing.assert_allclose(b, scale[:, None] * a_g, atol=1e-15)
        assert np.all(b[:, 2] == 0.0) and np.all(b[:, 3] == 0.0)

    def test_recomposition_from_primitives(self, arable_scenario):
        scen = arable_scenario
        hand = hand_months(scen.site)
        expected = (hand.supply - hand.q)[:, None] * scen.mats.a_g
        np.testing.assert_allclose(_delta_forcing(scen), expected,
                                   rtol=1e-12, atol=1e-15)

    def test_annual_balance_under_stationary_forcing(self, stationary_scenario):
        # rho == rho0 and N_P = 1: the dt-weighted forcing sums to zero
        scen = stationary_scenario
        dt = scen.site.month_operators.dt
        total = (dt[:12, None] * _delta_forcing(scen)[:12]).sum(axis=0)
        assert np.max(np.abs(total)) < 1e-10

    def test_no_density_on_manure_baseline_is_zero_density(self):
        # with F0 > 0, no manure is f/F0 = 0 in the a_f share, not an error
        scen = make_scenario(F0=0.3)
        np.testing.assert_array_equal(
            _delta_forcing(scen), _delta_forcing(_fixed(scen, np.zeros(12))))


@pytest.fixture(scope="module")
def manure_scenario():
    return make_scenario(F0=0.4, P0=0.8)


MANURE_DENSITIES = np.linspace(0.0, 0.3, 12)


class TestDeltaForcingFym:
    """The delta forcing with a manure density, month by month."""

    def test_epsilon_one_limit_reproduces_no_fym(self, arable_scenario):
        # evaluated formulaically: with eps = 1 the a_f share vanishes
        scen = arable_scenario
        eps, f0 = scen.baseline.epsilon, 0.0
        assert eps == 1.0
        hand = hand_months(scen.site)
        manual = (eps * (hand.supply - hand.q)[:, None] * scen.mats.a_g
                  + (1 - eps) * (f0 - hand.q)[:, None] * scen.mats.a_f)
        b = _delta_forcing(scen)
        np.testing.assert_allclose(manual, b, rtol=1e-14, atol=1e-15)
        # an exact zero a_f share leaves HUM, which only a_f feeds, at zero
        assert scen.mats.a_f[3] != 0.0 and np.all(b[:, 3] == 0.0)

    def test_pure_replacement_zero_forcing(self, site50):
        # eps = 0 and manure exactly replacing turnover: no forcing at all
        climate = constant_climate(2005, 15, site50)
        scen = make_scenario(P0=0.0, F0=1.0, climate=climate, np_trend=0.0,
                             cover_mode="smooth")
        densities = scen.baseline.F0 * hand_months(scen.site).q[:12]
        b = _delta_forcing(_fixed(scen, densities))
        assert np.max(np.abs(b[:12])) < 1e-14

    def test_projection_identity(self, manure_scenario):
        # 1^T of the forcing equals the scalar form of the index dynamics
        scen = manure_scenario
        eps = scen.baseline.epsilon
        hand = hand_months(scen.site)
        f_value = MANURE_DENSITIES[hand.month - 1]
        b = _delta_forcing(_fixed(scen, MANURE_DENSITIES))
        expected = (eps * (hand.supply - hand.q / eps)
                    + (1 - eps) * f_value / scen.baseline.F0)
        np.testing.assert_allclose(b.sum(axis=1), expected, rtol=1e-12,
                                   atol=1e-15)

    def test_span_of_both_directions(self, manure_scenario):
        scen = manure_scenario
        b = _delta_forcing(_fixed(scen, MANURE_DENSITIES))
        basis = np.column_stack([scen.mats.a_g, scen.mats.a_f])
        coeffs, *_ = np.linalg.lstsq(basis, b.T, rcond=None)
        assert np.max(np.abs(b - (basis @ coeffs).T)) < 1e-12

    def test_zero_baseline_manure_rejected(self, arable_scenario):
        # a density cannot be normalized by F0 = 0
        with pytest.raises(ConfigError, match=re.escape(
                "fixed manure forcing in delta mode needs a baseline manure "
                "total F0 > 0 (the forcing is normalized by it)")):
            sc.simulate(_fixed(arable_scenario, np.full(12, 0.1)))


class TestMonthRecord:
    """The site's month record, shared by every policy, against its months
    worked out one at a time."""

    @staticmethod
    def _assert_hand_months(site):
        record = site.month_operators
        hand = hand_months(site)
        for got, want in ((record.year_index, hand.n),
                          (record.month, hand.month), (record.dt, hand.dt),
                          (record.rhos, hand.rho), (record.supply, hand.supply),
                          (record.q, hand.q)):
            np.testing.assert_array_equal(got, want)
        return record.supply, record.q

    def test_smooth_cover_record(self):
        self._assert_hand_months(
            make_scenario(r=0.67, cover_mode="smooth").site)

    @pytest.mark.parametrize("r", [0.25, 0.67, 1.44])
    def test_supply_and_q_are_the_site_formulas(self, r):
        supply, q = self._assert_hand_months(make_scenario(r=r, F0=0.4).site)
        for array in (supply, q):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0


class TestSiteCover:
    """``Site.cover``, the soil-cover factor of each calendar month, decided
    once from the cover mode, the ratio and a given schedule."""

    BARE_AUGUST_TO_NOVEMBER = [0.6] * 7 + [1.0] * 4 + [0.6]

    @pytest.mark.parametrize("r", [0.0, 0.25, 0.67, 0.999])
    def test_default_below_unit_ratio_is_vegetated(self, r):
        np.testing.assert_array_equal(make_scenario(r=r).site.cover,
                                      np.full(12, 0.6))

    @pytest.mark.parametrize("r", [1.0, 1.44])
    def test_arable_default_is_bare_august_to_november(self, r):
        np.testing.assert_array_equal(make_scenario(r=r).site.cover,
                                      self.BARE_AUGUST_TO_NOVEMBER)

    @pytest.mark.parametrize("r", [0.25, 0.67, 1.44])
    def test_given_schedule_applies_at_any_ratio(self, r):
        schedule = np.linspace(0.55, 1.0, 12)
        site = dataclasses.replace(make_scenario(r=r).site,
                                   cover_schedule=schedule)
        np.testing.assert_array_equal(site.cover, schedule)
        TestMonthRecord._assert_hand_months(site)

    @pytest.mark.parametrize("r", [0.0, 0.25, 0.67, 1.44])
    def test_smooth_takes_the_smooth_factor_in_every_month(self, r):
        site = make_scenario(r=r, cover_mode="smooth").site
        np.testing.assert_array_equal(site.cover, np.full(
            12, sc.rate_modifier_cover_smooth(r, site.reference.n_bare)))

    def test_smooth_with_a_schedule_rejected(self):
        site = make_scenario(r=0.25, cover_mode="smooth").site
        with pytest.raises(ConfigError, match="cover_mode = timed, not "
                           "'smooth'"):
            dataclasses.replace(site, cover_schedule=np.full(12, 0.6))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError, match="unknown cover mode 'bogus'"):
            make_scenario(cover_mode="bogus")

    def test_month_record_rho_is_the_factor_product(self):
        site = make_scenario(r=1.44).site
        record, climate, ref = site.month_operators, site.climate, site.reference
        for j in (6, 7, 10, 11):   # July, August, November, December
            i, m = site.climate_rows.start, record.month[j]
            expected = (sc.rate_modifier_temperature(climate.temp[i, m - 1],
                                                     ref.temp0)
                        * sc.rate_modifier_moisture(climate.acc[i, m - 1],
                                                    ref.site)
                        * self.BARE_AUGUST_TO_NOVEMBER[m - 1])
            assert record.rhos[j] == pytest.approx(expected, rel=1e-12)

    def test_cover_is_read_only_and_rebuilt_by_replace(self):
        schedule = np.full(12, 0.8)
        site = dataclasses.replace(make_scenario(r=1.44).site,
                                   cover_schedule=schedule)
        schedule[0] = 0.3
        assert site.cover[0] == 0.8
        with pytest.raises(ValueError, match="read-only"):
            site.cover[0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            site.cover = np.ones(12)
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(site, cover=np.ones(12))
        smooth = dataclasses.replace(site, cover_mode="smooth",
                                     cover_schedule=None)
        np.testing.assert_array_equal(smooth.cover, np.full(
            12, sc.rate_modifier_cover_smooth(1.44, site.reference.n_bare)))


class TestClimateRows:
    """A site reads delta years 1..horizon from its climate table, wherever
    the baseline year sits in it, and no row outside them."""

    @pytest.mark.parametrize("lead, tail", [(0, 0), (3, 0), (0, 4), (2, 5)])
    def test_rows_are_the_horizon_years(self, site50, lead, tail):
        climate = synthetic_climate(2005 - lead, lead + 15 + tail, site50,
                                    seed=3, warming=0.05)
        scen = make_scenario(climate=climate)
        site = scen.site
        assert site.climate_rows == slice(lead + 1, lead + 15)
        TestMonthRecord._assert_hand_months(site)
        years = np.arange(2006, 2020)
        temps, accs = sc.annual_averages(climate, years)
        avg = build_averaged_model(scen)
        np.testing.assert_array_equal(avg.temps, temps)
        np.testing.assert_array_equal(avg.accs, accs)
        np.testing.assert_array_equal(
            avg.np_ratios, [site.np_ratios[int(y)] for y in years])

    def test_table_starting_after_the_baseline_year_rejected(
            self, site50, arable_scenario):
        later = constant_climate(2006, 20, site50)
        with pytest.raises(DataError, match="2005"):
            dataclasses.replace(arable_scenario.site, climate=later)

    def test_baseline_ratio_defaults_to_one(self, arable_scenario):
        site = arable_scenario.site
        ratios = {y: v for y, v in site.np_ratios.items()
                  if y != site.baseline_year}
        unset = dataclasses.replace(site, np_ratios=ratios)
        assert unset.np_by_year[0] == 1.0
        np.testing.assert_array_equal(unset.np_by_year[1:],
                                      site.np_by_year[1:])


class TestDeltaSoc:
    def test_plant_direction_normalized(self, arable_scenario):
        assert arable_scenario.mats.a_g.sum() == pytest.approx(1.0, abs=1e-15)


class TestFymPolicy:
    """A controlled policy carries no ε: ``simulate_controlled`` takes it and
    is the one place that checks it. Monthly densities belong to the fixed
    mode alone."""

    @pytest.mark.parametrize("eps", [0.0, 0.5])
    def test_controlled_epsilon_in_closed_unit_interval(self, manure_scenario,
                                                        eps):
        _, schedule = sc.simulate_controlled(manure_scenario, eps)
        assert schedule.epsilon == eps

    @pytest.mark.parametrize("eps", [-1e-12, 1.0 + 1e-12, float("nan")])
    def test_controlled_epsilon_outside_is_rejected(self, manure_scenario,
                                                    eps):
        with pytest.raises(ConfigError, match=r"epsilon must be in \[0, 1\)"):
            sc.simulate_controlled(manure_scenario, eps)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_fixed_densities_rejected(self, bad):
        with pytest.raises(ConfigError, match="needs 12 non-negative monthly "
                           r"densities \(fym_monthly_tc_ha\), all finite"):
            sc.FymPolicy("fixed", np.full(12, bad))

    @pytest.mark.parametrize("mode", ["none", "controlled"])
    def test_densities_outside_fixed_mode_are_rejected(self, mode):
        with pytest.raises(ConfigError,
                           match=f"need fym_mode = fixed, not '{mode}'"):
            sc.FymPolicy(mode, np.full(12, 0.1))


class TestScenarioValidation:
    def test_missing_npp_year_is_error(self, site50):
        climate = constant_climate(2005, 15, site50)
        ref = sc.reference_from_climate(climate, 2005, site50)
        params = sc.SoilParams.for_site(50.0, 23.0, 1.0)
        mats = sc.build_matrices(params)
        baseline = sc.BaselineState.from_inputs(1.0, 0.0, ref.rho0(1.0),
                                                mats, 12.0)
        ratios = {2005 + n: 1.0 for n in range(0, 14)}   # 2019 missing
        with pytest.raises(DataError, match="2019"):
            sc.Site(baseline_year=2005, horizon=14, params=params,
                    mats=mats,
                    density=sc.PlantInputDensity.standard("arable"),
                    climate=climate, reference=ref, baseline=baseline,
                    np_ratios=ratios)

    def test_missing_climate_year_is_error(self, site50):
        climate = constant_climate(2005, 5, site50)
        ref = sc.reference_from_climate(climate, 2005, site50)
        params = sc.SoilParams.for_site(50.0, 23.0, 1.0)
        mats = sc.build_matrices(params)
        baseline = sc.BaselineState.from_inputs(1.0, 0.0, ref.rho0(1.0),
                                                mats, 12.0)
        ratios = {2005 + n: 1.0 for n in range(0, 15)}
        with pytest.raises(DataError, match="2019"):
            sc.Site(baseline_year=2005, horizon=14, params=params,
                    mats=mats,
                    density=sc.PlantInputDensity.standard("arable"),
                    climate=climate, reference=ref, baseline=baseline,
                    np_ratios=ratios)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
    def test_nonpositive_or_nan_ratio_is_error(self, site50, bad):
        climate = constant_climate(2005, 15, site50)
        ref = sc.reference_from_climate(climate, 2005, site50)
        params = sc.SoilParams.for_site(50.0, 23.0, 1.0)
        mats = sc.build_matrices(params)
        baseline = sc.BaselineState.from_inputs(1.0, 0.0, ref.rho0(1.0),
                                                mats, 12.0)
        ratios = {2005 + n: 1.0 for n in range(0, 15)}
        ratios[2009] = bad
        with pytest.raises(DataError, match="2009 must be positive"):
            sc.Site(baseline_year=2005, horizon=14, params=params,
                    mats=mats,
                    density=sc.PlantInputDensity.standard("arable"),
                    climate=climate, reference=ref, baseline=baseline,
                    np_ratios=ratios)

    @pytest.mark.parametrize("schedule", [
        np.full(12, np.nan), np.full(12, -1.0), np.full(5, 0.6),
        np.r_[np.full(11, 0.6), 1.5], np.r_[np.full(11, 0.6), 0.0]],
        ids=["nan", "negative", "short", "above_one", "zero"])
    def test_cover_schedule_outside_unit_interval_rejected(
            self, arable_scenario, schedule):
        # NaN ran to non-finite states, -1 to a negative rate modifier, and
        # a short schedule to a bare IndexError
        with pytest.raises(DataError, match=re.escape(
                "cover schedule needs 12 monthly factors in (0, 1]")):
            dataclasses.replace(arable_scenario.site, cover_schedule=schedule)

    def test_np_ratio_of_the_baseline_year_is_the_stored_one(
            self, arable_scenario):
        scen = arable_scenario
        assert scen.site.np_ratios[scen.site.baseline_year] == 1.0
        np.testing.assert_array_equal(
            scen.site.np_by_year[[0, 1, 14]],
            [1.0, scen.site.np_ratios[2006], scen.site.np_ratios[2019]])

