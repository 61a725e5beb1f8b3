"""Averaged model, closed-form first year, and direct-method sensitivities."""

import tracemalloc
import warnings

import numpy as np
import pytest

import socchange as sc
from socchange import _kernels
from socchange.climate import KA_OFFSET
from socchange.errors import ConfigError
from socchange.sensitivity import (MAX_RECORDED_SAMPLES, _grids,
                                   build_averaged_model)

from conftest import make_scenario


@pytest.fixture(scope="module")
def scen():
    return make_scenario(r=0.67, warming=0.08, np_trend=0.012, seed=4)


@pytest.fixture(scope="module")
def avg(scen):
    return build_averaged_model(scen)


class TestAveragedModel:
    def test_theta_r_independent_through_definition(self, avg):
        for n in (1, 5, 11):
            values = []
            for r in (0.25, 0.67, 1.44):
                values.append((avg.np_ratio(n)
                               - avg.rho_n(n, r) / avg.rho0(r)) / avg.T)
            np.testing.assert_allclose(values, sc.theta(n, avg), atol=1e-12)

    def test_theta_zero_when_balanced(self, avg):
        n = 2
        balanced = avg.with_np(n, avg.climate_factor(n) / avg.reference.kb0)
        assert sc.theta(n, balanced) == pytest.approx(0.0, abs=1e-15)

    def test_missing_year_rejected(self, avg):
        # year 0 must not wrap round to the last year
        calls = (lambda n: sc.theta(n, avg), lambda n: avg.rho_n(n, 0.67),
                 avg.climate_factor, avg.np_ratio,
                 lambda n: avg.with_temp(n, 15.0),
                 lambda n: avg.with_np(n, 1.0))
        for call in calls:
            for n in (0, avg.horizon + 1, np.array([1, 0])):
                with pytest.raises(ConfigError, match="outside"):
                    call(n)

    def test_theta_elementwise_over_years(self, avg):
        years = np.arange(1, avg.horizon + 1)
        np.testing.assert_array_equal(
            sc.theta(years, avg), [sc.theta(int(n), avg) for n in years])


class TestAveragedDeltaSolve:
    def test_zero_imbalance_stays_zero(self, avg, scen):
        flat = avg
        for n in range(1, avg.horizon + 1):
            flat = flat.with_np(n, flat.climate_factor(n) / flat.reference.kb0)
        _, states = sc.averaged_delta_solve(flat, 0.67, scen.mats, dt=0.05)
        assert np.max(np.abs(states)) < 1e-14

    def test_first_year_matches_closed_form(self, avg, scen):
        # first-order scheme: dt small enough that the global error sits
        # comfortably under the 1e-8 absolute target
        times, states = sc.averaged_delta_solve(avg, 0.67, scen.mats,
                                                dt=2e-4, n_years=1)
        for i in range(1, 13):
            t = times[i]
            exact = sc.closed_form_first_year(t, avg, 0.67, scen.mats)
            assert np.max(np.abs(states[i] - exact)) < 1e-8

    def test_index_sign_follows_imbalance(self, avg, scen):
        th1 = sc.theta(1, avg)
        assert th1 != 0.0
        _, states = sc.averaged_delta_solve(avg, 0.67, scen.mats, dt=0.01,
                                            n_years=1)
        sums = states[1:].sum(axis=1)
        assert np.all(np.sign(sums) == np.sign(th1))

    def test_monthly_sampling_shape(self, avg, scen):
        times, states = sc.averaged_delta_solve(avg, 0.67, scen.mats, dt=0.01)
        assert times.shape[0] == 12 * avg.horizon + 1
        assert states.shape == (times.shape[0], 4)
        assert np.all(np.diff(times) > 0)


class TestClosedFormFirstYear:
    def test_zero_at_the_start(self, avg, scen):
        out = sc.closed_form_first_year(avg.T, avg, 0.67, scen.mats)
        np.testing.assert_array_equal(out, np.zeros(4))

    def test_initial_slope_is_imbalance_times_direction(self, avg, scen):
        h = 1e-7
        out = sc.closed_form_first_year(avg.T + h, avg, 0.67, scen.mats)
        slope = out / h
        expected = sc.theta(1, avg) * scen.mats.a_g
        np.testing.assert_allclose(slope, expected, rtol=1e-5, atol=1e-9)

    def test_outside_first_year_rejected(self, avg, scen):
        with pytest.raises(ConfigError):
            sc.closed_form_first_year(avg.T * 2 + 0.1, avg, 0.67, scen.mats)
        with pytest.raises(ConfigError):
            sc.closed_form_first_year(avg.T - 0.1, avg, 0.67, scen.mats)


class TestModifierDerivatives:
    def test_temp_derivative_positive_and_fd_consistent(self, avg):
        ref = avg.reference
        r, h = 0.67, 1e-4
        got = sc.drho_dtemp(avg.temps[0], ref.temp0, avg.accs[0], ref.site,
                            r, ref.n_bare)
        assert got > 0
        up = avg.with_temp(1, avg.temps[0] + h).rho_n(1, r)
        down = avg.with_temp(1, avg.temps[0] - h).rho_n(1, r)
        fd = (up - down) / (2 * h)
        assert got == pytest.approx(fd, rel=1e-5)

    def test_temp_derivative_at_reference_point(self, avg):
        # at Temp1 = Temp0 the closed form collapses to
        # (106.06/47.91) k_b k_c * 46.91 / (106.06/ln 46.91)^2
        ref = avg.reference
        r = 0.67
        kb = sc.rate_modifier_moisture(avg.accs[0], ref.site)
        kc = sc.rate_modifier_cover_smooth(r, ref.n_bare)
        offset = 106.06 / np.log(46.91)
        expected = (106.06 / 47.91) * kb * kc * 46.91 / offset**2
        got = sc.drho_dtemp(ref.temp0, ref.temp0, avg.accs[0], ref.site,
                            r, ref.n_bare)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_temp_derivative_rejects_the_pole(self, avg):
        ref = avg.reference
        pole = ref.temp0 - KA_OFFSET
        with pytest.raises(ConfigError, match=f"{pole:.2f}"):
            sc.drho_dtemp(pole + 0.005, ref.temp0, avg.accs[0], ref.site,
                          0.67, ref.n_bare)

    @pytest.mark.parametrize("above", [0.02, 0.05, 0.14])
    def test_temp_derivative_finite_just_above_the_pole(self, avg, above):
        # k_a underflows to 0 here while e^{E/u} overflows; the derivative
        # is ~0, not 0 * inf
        ref = avg.reference
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sc.drho_dtemp(ref.temp0 - KA_OFFSET + above, ref.temp0,
                                avg.accs[0], ref.site, 0.67, ref.n_bare)
        assert np.isfinite(got) and got >= 0.0

    def test_r_derivative_at_unit_ratio(self, avg):
        ref = avg.reference
        ka = sc.rate_modifier_temperature(avg.temps[0], ref.temp0)
        kb = sc.rate_modifier_moisture(avg.accs[0], ref.site)
        got = sc.drho_dr(avg.temps[0], ref.temp0, avg.accs[0], ref.site,
                         1.0, ref.n_bare)
        assert got == pytest.approx(ka * kb * ref.n_bare / 4.0, rel=1e-12)

    def test_r_derivative_fd_consistent(self, avg):
        ref = avg.reference
        r, h = 0.67, 1e-6
        got = sc.drho_dr(avg.temps[0], ref.temp0, avg.accs[0], ref.site,
                         r, ref.n_bare)
        fd = (avg.rho_n(1, r + h) - avg.rho_n(1, r - h)) / (2 * h)
        assert got == pytest.approx(fd, rel=1e-4)
        assert got > 0

    def test_r_derivative_vanishes_at_large_ratio(self, avg):
        ref = avg.reference
        far = sc.drho_dr(avg.temps[0], ref.temp0, avg.accs[0], ref.site,
                         1e6, ref.n_bare)
        assert far == pytest.approx(0.0, abs=1e-12)

    def test_nonpositive_ratio_rejected(self, avg):
        ref = avg.reference
        with pytest.raises(ConfigError):
            sc.drho_dr(avg.temps[0], ref.temp0, avg.accs[0], ref.site,
                       0.0, ref.n_bare)


def _end_of_year_index(series, n):
    return int(np.argmin(np.abs(series.t - 12.0 * (n + 1))))


def _solve_dsoc_end(avg, r, params, n_years, dt):
    mats = sc.build_matrices(params)
    _, states = sc.averaged_delta_solve(avg, r, mats, dt=dt, n_years=n_years)
    return states.sum(axis=1)


class TestSensitivitySeries:
    def test_initial_sample_zero_for_all_parameters(self, scen):
        for param in ("temp1", "np1", "r"):
            series = sc.sensitivity(param, scen, dt=0.05)
            np.testing.assert_array_equal(series.s[0], np.zeros(4))
            assert series.t[0] == pytest.approx(12.0)

    def test_np1_nonnegative_over_first_year(self, scen):
        series = sc.sensitivity("np1", scen, dt=0.01)
        assert series.s_dsoc.min() >= 0.0
        assert series.t[-1] == pytest.approx(24.0)

    def test_temp1_nonpositive_over_first_year(self, scen):
        series = sc.sensitivity("temp1", scen, dt=0.01)
        assert series.s_dsoc.max() <= 0.0

    def test_r_sign_opposite_imbalance(self, scen, avg):
        th1 = sc.theta(1, avg)
        series = sc.sensitivity("r", scen, dt=0.01)
        first_year = series.s_dsoc[(series.t > 12.0) & (series.t <= 24.0)]
        if th1 > 0:
            assert np.all(first_year <= 1e-15)
        else:
            assert np.all(first_year >= -1e-15)

    def test_r_series_spans_horizon(self, scen):
        series = sc.sensitivity("r", scen, dt=0.05)
        assert series.t[-1] == pytest.approx(12.0 * (scen.site.horizon + 1))

    def test_unknown_parameter_rejected(self, scen):
        with pytest.raises(ConfigError):
            sc.sensitivity("clay", scen)

    @pytest.mark.parametrize("dt", [0.0, -1.0, 1.5, np.inf, -np.inf, np.nan])
    def test_step_outside_one_month_rejected(self, scen, avg, dt):
        with pytest.raises(ConfigError, match="sensitivity step"):
            sc.sensitivity("np1", scen, dt=dt)
        with pytest.raises(ConfigError, match="sensitivity step"):
            sc.averaged_delta_solve(avg, 0.67, scen.mats, dt=dt)

    @pytest.mark.parametrize("dt", ["tiny", "past-cap", "subnormal"])
    def test_recorded_step_past_the_cap_rejected_before_allocating(
            self, scen, dt, monkeypatch):
        # one month is 1 (T = 12): the smallest per-month count past the cap
        nyears = scen.site.horizon
        past_cap = MAX_RECORDED_SAMPLES // (12 * nyears) + 1
        dt = {"tiny": 1e-300, "past-cap": 1.0 / past_cap,
              "subnormal": 5e-324}[dt]

        def kernel(*args):
            raise AssertionError("the kernel ran")

        monkeypatch.setattr(_kernels, "sensitivity_recurrence", kernel)
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match=f"sensitivity step {dt}"):
                sc.sensitivity("r", scen, dt=dt, record_all=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, peak

    def test_cap_counts_recorded_samples_only(self, scen):
        nyears = scen.site.horizon
        at_cap = MAX_RECORDED_SAMPLES // (12 * nyears)
        assert _grids(12.0, 1.0 / at_cap, True, nyears)[0] * nyears \
            <= MAX_RECORDED_SAMPLES
        nsub, _, record_every = _grids(12.0, 1e-300, False, nyears)
        assert nsub // record_every == 12

    def test_sub_monthly_step_snaps_to_divide_a_month(self, scen):
        assert sc.sensitivity("np1", scen, dt=0.3).meta["dt"] == 1.0 / 3.0
        assert sc.sensitivity("np1", scen, dt=1.0).meta["dt"] == 1.0

    def test_temp1_finite_difference_validation(self, scen, avg):
        h, dt = 1e-4, 0.01
        series = sc.sensitivity("temp1", scen, dt=dt)
        up = _solve_dsoc_end(avg.with_temp(1, avg.temps[0] + h), 0.67,
                             scen.params, 1, dt)
        down = _solve_dsoc_end(avg.with_temp(1, avg.temps[0] - h), 0.67,
                               scen.params, 1, dt)
        fd = (up[-1] - down[-1]) / (2 * h)
        assert series.s_dsoc[-1] == pytest.approx(fd, rel=1e-3)

    def test_np1_finite_difference_validation(self, scen, avg):
        h, dt = 1e-4, 0.01
        series = sc.sensitivity("np1", scen, dt=dt)
        up = _solve_dsoc_end(avg.with_np(1, avg.np_ratio(1) + h), 0.67,
                             scen.params, 1, dt)
        down = _solve_dsoc_end(avg.with_np(1, avg.np_ratio(1) - h), 0.67,
                               scen.params, 1, dt)
        fd = (up[-1] - down[-1]) / (2 * h)
        assert series.s_dsoc[-1] == pytest.approx(fd, rel=1e-3)

    def test_r_finite_difference_validation_across_years(self, scen, avg):
        h, dt = 1e-4, 0.01
        series = sc.sensitivity("r", scen, dt=dt)
        up = _solve_dsoc_end(avg, 0.67 + h, scen.params.with_ratio(0.67 + h),
                             scen.site.horizon, dt)
        down = _solve_dsoc_end(avg, 0.67 - h, scen.params.with_ratio(0.67 - h),
                               scen.site.horizon, dt)
        for n in (1, 3, scen.site.horizon):
            idx = _end_of_year_index(series, n)
            fd = (up[12 * n] - down[12 * n]) / (2 * h)
            assert series.s_dsoc[idx] == pytest.approx(fd, rel=1e-3)

    @pytest.mark.parametrize("param, n_years", [("temp1", 1), ("np1", 1),
                                                ("r", None)])
    def test_delta_half_is_the_plain_solve_on_every_substep(self, scen, avg,
                                                            param, n_years):
        series = sc.sensitivity(param, scen, dt=0.01, record_all=True)
        times, states = sc.averaged_delta_solve(avg, 0.67, scen.mats, dt=0.01,
                                                n_years=n_years,
                                                record_all=True)
        np.testing.assert_array_equal(series.t, times)
        np.testing.assert_array_equal(series.delta, states)

    def test_co_integrated_delta_matches_plain_solve(self, scen, avg):
        series = sc.sensitivity("np1", scen, dt=0.01)
        _, states = sc.averaged_delta_solve(avg, 0.67, scen.mats, dt=0.01,
                                            n_years=1)
        np.testing.assert_allclose(series.delta, states, atol=1e-14)
