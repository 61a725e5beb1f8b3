"""Published site values; runs only when the CRU/MOD17 extracts are present.

Place the aggregated extracts as data/alta_murgia/climate.csv (monthly
year,month,temp_c,rain_mm for 2005-2019 at the park grid point) and
data/alta_murgia/npp.csv (annual year,npp) to enable these tests.
"""

import numpy as np
import pytest

import socchange as sc
from socchange.sensitivity import build_averaged_model

from conftest import alta_murgia_scenario, needs_alta_murgia

pytestmark = needs_alta_murgia


@pytest.fixture(scope="module")
def site_scenario():
    return alta_murgia_scenario(r=1.44)


class TestSiteValues:
    def test_mean_2006_temperature(self, site_scenario):
        temp1, _ = sc.annual_averages(site_scenario.site.climate, 2006)
        assert round(temp1, 2) == 14.27

    def test_npp_ratio_2006(self, site_scenario):
        np1 = site_scenario.site.np_by_year[1]
        assert np1 == pytest.approx(1.08, rel=5e-3)

    def test_first_year_forcing_imbalance(self, site_scenario):
        avg = build_averaged_model(site_scenario)
        assert sc.theta(1, avg) == pytest.approx(4.3620e-4, rel=0.02)


class TestSiteTrends:
    def test_arable_annual_means_decreasing(self):
        for r in (1.0, 1.44, 100.0):
            scen = alta_murgia_scenario(r=r)
            means = sc.simulate(scen).annual_means()
            tail = [means[y] for y in range(2008, 2020)]
            assert all(b < a for a, b in zip(tail, tail[1:]))
            assert all(v < 0 for v in tail)

    def test_grassland_positive_from_2011(self):
        means = sc.simulate(alta_murgia_scenario(r=0.95)).annual_means()
        assert all(means[y] > 0 for y in range(2011, 2020))

    def test_forest_trends_close_and_recovering(self):
        finals = {}
        for r in (1e-4, 0.25, 0.5):
            means = sc.simulate(alta_murgia_scenario(r=r)).annual_means()
            finals[r] = means[2019]
            assert means[2019] > min(means.values())
        spread = max(finals.values()) - min(finals.values())
        assert spread <= 0.10 * max(abs(v) for v in finals.values())


class TestSiteSensitivities:
    def test_temperature_sensitivity_negative_and_decreasing(self):
        scen = alta_murgia_scenario(r=0.25, horizon=1)
        series = sc.sensitivity("temp1", scen, dt=0.01, record_all=True)
        assert series.s_dsoc.max() <= 0.0
        assert np.all(np.diff(series.s_dsoc) <= 1e-15)

    def test_npp_sensitivity_nonnegative(self):
        scen = alta_murgia_scenario(r=0.25, horizon=1)
        series = sc.sensitivity("np1", scen, dt=0.01)
        assert series.s_dsoc.min() >= 0.0

    def test_ratio_sensitivity_sign_opposite_imbalance(self):
        scen = alta_murgia_scenario(r=0.25, horizon=1)
        avg = build_averaged_model(scen)
        series = sc.sensitivity("r", scen, dt=0.01)
        if sc.theta(1, avg) > 0:
            assert series.s_dsoc.max() <= 1e-15
        else:
            assert series.s_dsoc.min() >= -1e-15


class TestSiteControl:
    def test_modifier_ordering_across_epsilon(self):
        # larger plant share needs a larger modifier wherever manure is the
        # only input; aggregate applications are ordered as well
        scen = alta_murgia_scenario(r=1.0, F0=0.5, P0=0.5)
        schedules = {}
        for eps in (0.0, 0.2, 0.5, 0.8):
            _, schedule = sc.simulate_controlled(scen, eps)
            schedules[eps] = schedule
        props = scen.site.density.proportions[schedules[0.0].month - 1]
        for lo, hi in ((0.0, 0.2), (0.2, 0.5), (0.5, 0.8)):
            a, b = schedules[lo].f0, schedules[hi].f0
            sel = (a > 0) & (b > 0) & (props == 0.0)
            assert sel.sum() > 0
            assert np.all(b[sel] >= a[sel] - 1e-12)
            assert sum(schedules[hi].annual_totals().values()) >= \
                sum(schedules[lo].annual_totals().values()) - 1e-12
