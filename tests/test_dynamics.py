"""Plant-input densities, NPP ratios, and the delta forcing."""

import numpy as np
import pytest

import socchange as sc
from socchange.errors import ConfigError, DataError
from socchange.stepping import build_time_grid

from conftest import constant_climate, make_scenario


class TestPlantDensity:
    def test_arable_july_half(self):
        assert sc.PlantInputDensity.standard("arable").proportion(7) == 0.5

    def test_grassland_january(self):
        assert sc.PlantInputDensity.standard("grassland").proportion(1) == 0.05

    @pytest.mark.parametrize("land_class", ["forest", "grassland", "arable"])
    def test_normalization(self, land_class):
        density = sc.PlantInputDensity.standard(land_class)
        total = sum(density.proportion(m) for m in range(1, 13))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_unknown_class_rejected(self):
        with pytest.raises(ConfigError):
            sc.PlantInputDensity.standard("wetland").proportion(1)

    def test_bad_sum_rejected(self):
        props = np.full(12, 1.0 / 12.0)
        props[0] += 1e-6
        with pytest.raises(DataError):
            sc.PlantInputDensity(props, "grassland")

    def test_annual_integral_of_density_is_one(self, arable_scenario):
        # step-function density p_m / dt_m integrates to exactly 1 per year
        grid = build_time_grid(arable_scenario.site)
        year = grid.year_index == 1
        dts = grid.dt[year]
        months = grid.month[year]
        total = sum(arable_scenario.site.density.density(int(m), dt) * dt
                    for m, dt in zip(months, dts))
        assert total == pytest.approx(1.0, rel=1e-14)

    def test_periodic_across_years(self, arable_scenario):
        assert arable_scenario.site.density.proportion(7) == 0.5
        # same proportion consumed for month 7 of every delta year
        grid = build_time_grid(arable_scenario.site)
        july = grid.month == 7
        assert np.unique(grid.month[july]).size == 1


class TestClassForRatio:
    @pytest.mark.parametrize("r,expected", [
        (1e-4, "forest"), (0.25, "forest"), (0.499, "forest"),
        (0.5, "grassland"), (0.95, "grassland"),
        (1.0, "arable"), (1.44, "arable"), (100.0, "arable"),
    ])
    def test_bands(self, r, expected):
        assert sc.class_for_ratio(r) == expected


class TestDeltaForcingNoFym:
    """delta_forcing with no manure density."""

    def test_direction_parallel_to_plant_input(self, arable_scenario):
        b = sc.delta_forcing(7, 1, arable_scenario.site)
        a_g = arable_scenario.mats.a_g
        scale = b[0] / a_g[0]
        np.testing.assert_allclose(b, scale * a_g, atol=1e-15)
        assert b[2] == 0.0 and b[3] == 0.0

    def test_recomposition_from_primitives(self, arable_scenario):
        scen = arable_scenario
        n, month = 3, 5
        grid = build_time_grid(scen.site)
        j = (n - 1) * 12 + (month - 1)
        dt = grid.dt[j]
        rho = scen.site.rho_at(n, month)
        ghat = scen.site.density.proportion(month) / dt
        q = rho / (scen.params.T * scen.baseline.rho0)
        expected = (scen.site.np_ratio(n) * ghat - q) * scen.mats.a_g
        got = sc.delta_forcing(month, n, scen.site)
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_annual_balance_under_stationary_forcing(self, stationary_scenario):
        # rho == rho0 and N_P = 1: the dt-weighted forcing sums to zero
        scen = stationary_scenario
        grid = build_time_grid(scen.site)
        total = np.zeros(4)
        for j in range(12):
            b = sc.delta_forcing(int(grid.month[j]), 1, scen.site,
                                 dt_m=grid.dt[j])
            total += grid.dt[j] * b
        assert np.max(np.abs(total)) < 1e-10

    def test_no_density_on_manure_baseline_is_zero_density(self):
        # with F0 > 0, no manure is f/F0 = 0 in the a_f share, not an error
        scen = make_scenario(F0=0.3)
        grid = build_time_grid(scen.site)
        n, m = grid.year_index, grid.month
        np.testing.assert_array_equal(
            sc.delta_forcing(m, n, scen.site),
            sc.delta_forcing(m, n, scen.site, np.zeros(grid.nsteps)))


@pytest.fixture(scope="module")
def manure_scenario():
    return make_scenario(F0=0.4, P0=0.8)


class TestDeltaForcingFym:
    """delta_forcing with a manure density."""

    def test_epsilon_one_limit_reproduces_no_fym(self, arable_scenario):
        # evaluated formulaically: with eps = 1 the a_f share vanishes
        scen = arable_scenario
        b_no = sc.delta_forcing(4, 1, scen.site)
        eps, f0 = 1.0, 0.0
        rho = scen.site.rho_at(1, 4)
        grid = build_time_grid(scen.site)
        dt = grid.dt[3]
        ghat = scen.site.density.proportion(4) / dt
        q = rho / (scen.params.T * scen.baseline.rho0)
        manual = (eps * (scen.site.np_ratio(1) * ghat - q) * scen.mats.a_g
                  + (1 - eps) * (f0 - q) * scen.mats.a_f)
        np.testing.assert_allclose(manual, b_no, rtol=1e-14)

    def test_pure_replacement_zero_forcing(self, site50):
        # eps = 0 and manure exactly replacing turnover: no forcing at all
        climate = constant_climate(2005, 15, site50)
        scen = make_scenario(P0=0.0, F0=1.0, climate=climate, np_trend=0.0,
                             cover_mode="smooth")
        grid = build_time_grid(scen.site)
        for j in range(12):
            month = int(grid.month[j])
            rho = scen.site.rho_at(1, month)
            f_value = (scen.baseline.F0 * rho
                       / (scen.params.T * scen.baseline.rho0))
            b = sc.delta_forcing(month, 1, scen.site, f_value, dt_m=grid.dt[j])
            assert np.max(np.abs(b)) < 1e-14

    def test_projection_identity(self, manure_scenario):
        # 1^T of the forcing equals the scalar form of the index dynamics
        scen = manure_scenario
        eps = scen.baseline.epsilon
        grid = build_time_grid(scen.site)
        for (n, month, f_value) in [(1, 2, 0.05), (2, 7, 0.3), (3, 11, 0.0)]:
            j = (n - 1) * 12 + (month - 1)
            dt = grid.dt[j]
            rho = scen.site.rho_at(n, month)
            ghat = scen.site.density.proportion(month) / dt
            q = rho / (scen.params.T * scen.baseline.rho0)
            b = sc.delta_forcing(month, n, scen.site, f_value, dt_m=dt)
            expected = (eps * (scen.site.np_ratio(n) * ghat - q / eps)
                        + (1 - eps) * f_value / scen.baseline.F0)
            assert b.sum() == pytest.approx(expected, rel=1e-12)

    def test_span_of_both_directions(self, manure_scenario):
        scen = manure_scenario
        b = sc.delta_forcing(7, 1, scen.site, 0.2)
        basis = np.column_stack([scen.mats.a_g, scen.mats.a_f])
        coeffs, residual, *_ = np.linalg.lstsq(basis, b, rcond=None)
        reconstructed = basis @ coeffs
        assert np.max(np.abs(b - reconstructed)) < 1e-12

    def test_zero_baseline_manure_rejected(self, arable_scenario):
        # a density cannot be normalized by F0 = 0
        with pytest.raises(ConfigError, match="F0 > 0"):
            sc.delta_forcing(1, 1, arable_scenario.site, 0.1)


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

    def test_np_ratio_of_the_baseline_year_is_the_stored_one(
            self, arable_scenario):
        scen = arable_scenario
        assert scen.site.np_ratios[scen.site.baseline_year] == 1.0
        np.testing.assert_array_equal(
            scen.site.np_ratio([0, 1, 14, 0]),
            [1.0, scen.site.np_ratios[2006], scen.site.np_ratios[2019], 1.0])

    @pytest.mark.parametrize("n", [-1, [1, -2], 15, [[0, 1], [15, 2]]])
    def test_np_ratio_outside_the_horizon_rejected(self, arable_scenario, n):
        # a negative year would otherwise index from the end
        with pytest.raises(ConfigError, match=r"outside 0\.\.14"):
            arable_scenario.site.np_ratio(n)


class TestWholeGridCalls:
    """One call over the whole time grid equals the per-month scalar calls."""

    @staticmethod
    def _grid(scen):
        grid = build_time_grid(scen.site)
        return grid, grid.year_index, grid.month

    def test_rho_density_ratio_and_dt(self, arable_scenario):
        scen = arable_scenario
        grid, n, m = self._grid(scen)
        pairs = list(zip(n.tolist(), m.tolist()))
        np.testing.assert_array_equal(
            scen.site.rho_at(n, m), [scen.site.rho_at(k, j) for k, j in pairs])
        np.testing.assert_array_equal(
            scen.site.np_ratio(n), [scen.site.np_ratio(k) for k, _ in pairs])
        np.testing.assert_array_equal(
            scen.site.dt_at(n, m), [scen.site.dt_at(k, j) for k, j in pairs])
        np.testing.assert_array_equal(scen.site.dt_at(n, m), grid.dt)
        np.testing.assert_array_equal(
            scen.site.density.density(m, grid.dt),
            [scen.site.density.density(j, dt)
             for j, dt in zip(m.tolist(), grid.dt)])

    def test_smooth_cover_rho(self):
        scen = make_scenario(r=0.67, cover_mode="smooth")
        _, n, m = self._grid(scen)
        np.testing.assert_array_equal(
            scen.site.rho_at(n, m),
            [scen.site.rho_at(k, j) for k, j in zip(n, m)])

    @pytest.mark.parametrize("given", [False, True])
    def test_no_fym_forcing(self, arable_scenario, given):
        scen = arable_scenario
        grid, n, m = self._grid(scen)
        extra = ({"rho_m": scen.site.rho_at(n, m), "dt_m": grid.dt} if given
                 else {})
        whole = sc.delta_forcing(m, n, scen.site, **extra)
        assert whole.shape == (grid.nsteps, 4)
        for j in range(grid.nsteps):
            one = {key: value[j] for key, value in extra.items()}
            np.testing.assert_array_equal(
                whole[j],
                sc.delta_forcing(int(m[j]), int(n[j]), scen.site, **one))

    @pytest.mark.parametrize("given", [False, True])
    def test_fym_forcing(self, manure_scenario, given):
        scen = manure_scenario
        grid, n, m = self._grid(scen)
        f_values = np.linspace(0.0, 0.3, grid.nsteps)
        extra = ({"rho_m": scen.site.rho_at(n, m), "dt_m": grid.dt} if given
                 else {})
        whole = sc.delta_forcing(m, n, scen.site, f_values, **extra)
        assert whole.shape == (grid.nsteps, 4)
        for j in range(grid.nsteps):
            one = {key: value[j] for key, value in extra.items()}
            np.testing.assert_array_equal(
                whole[j], sc.delta_forcing(int(m[j]), int(n[j]), scen.site,
                                           float(f_values[j]), **one))

    def test_month_outside_year_rejected_in_arrays(self, arable_scenario):
        with pytest.raises(ConfigError, match="13"):
            arable_scenario.site.density.proportion(np.array([1, 13]))

    def test_missing_year_named_in_arrays(self, arable_scenario):
        with pytest.raises(DataError, match="2025"):
            arable_scenario.site.rho_at(np.array([1, 20]), np.array([1, 1]))
