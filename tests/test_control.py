"""Feedback manure law and the controlled simulation guarantee."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

import socchange as sc
from socchange import _kernels, control, stepping
from socchange.dataio import build_scenario, load_config
from socchange.errors import ConfigError, NumericsError

from conftest import below_floor, hand_months, make_scenario
from kernel_oracles import exact_flow, maintenance_rate

DEMO_CONFIG = (Path(__file__).resolve().parents[1] / "data" / "demo"
               / "scenario.cfg")
T = 12.0
EPS_SWEEP = (0.0, 0.2, 0.5, 0.8)


@pytest.fixture(scope="module")
def declining_scenario():
    """Warming with flat NPP: uncontrolled index goes clearly negative."""
    return make_scenario(r=1.0, F0=0.5, P0=0.5, warming=0.15, np_trend=0.0,
                         seed=7)


@pytest.fixture(scope="module")
def controlled_runs(declining_scenario):
    return {eps: sc.simulate_controlled(declining_scenario, eps)
            for eps in EPS_SWEEP}


class TestMaintenanceRate:
    def test_stationary_zero_state_gives_one_over_T(self, arable_scenario):
        k = arable_scenario.params.k
        delta = arable_scenario.params.delta
        rho0 = arable_scenario.baseline.rho0
        rate = maintenance_rate(np.zeros(4), rho0, 0.0, 1.0, 0.0, T,
                                rho0, delta, k)
        assert rate == pytest.approx(1.0 / T, rel=1e-14)
        assert rate > 0

    def test_zero_epsilon_form_positive_for_nonnegative_weighted_state(self):
        params = sc.SoilParams.for_site(50.0, 23.0, 1.0)
        rng = np.random.default_rng(1)
        for _ in range(100):
            dc = rng.uniform(0.0, 1.0, 4)
            rate = maintenance_rate(dc, rng.uniform(0.1, 2.0), 0.3, 1.1,
                                    0.0, T, 0.5, params.delta, params.k)
            assert rate > 0

    def test_recomposition_from_primitives(self):
        params = sc.SoilParams.for_site(50.0, 23.0, 1.44)
        rng = np.random.default_rng(2)
        for _ in range(50):
            dc = rng.standard_normal(4) * 0.1
            rho, ghat, np_n = rng.uniform(0.1, 2.0, 3)
            eps = rng.uniform(0.0, 0.95)
            rho0 = rng.uniform(0.3, 0.8)
            expected = (rho / (1 - eps)
                        * (params.delta * float(params.k @ dc) + 1 / (T * rho0))
                        - eps / (1 - eps) * np_n * ghat)
            got = maintenance_rate(dc, rho, ghat, np_n, eps, T, rho0,
                                   params.delta, params.k)
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_epsilon_one_rejected(self):
        params = sc.SoilParams.for_site(50.0, 23.0, 1.44)
        with pytest.raises(ConfigError):
            maintenance_rate(np.zeros(4), 0.5, 0.1, 1.0, 1.0, T, 0.5,
                             params.delta, params.k)


class TestSimulateControlled:
    def test_floor_enforced_at_every_sample(self, controlled_runs):
        for eps, (traj, _) in controlled_runs.items():
            assert traj.totals.min() >= -1e-9, f"floor violated at eps={eps}"

    @pytest.mark.parametrize("dsoc", [-2e-9, -1e-6])
    def test_a_state_below_the_floor_is_a_numerics_error(
            self, declining_scenario, monkeypatch, dsoc):
        monkeypatch.setattr(_kernels, "controlled_recurrence",
                            below_floor(dsoc))
        with pytest.raises(NumericsError, match="below the floor -1e-09"):
            sc.simulate_controlled(declining_scenario, 0.5)

    def test_a_state_within_the_floor_passes(self, declining_scenario,
                                             monkeypatch):
        monkeypatch.setattr(_kernels, "controlled_recurrence",
                            below_floor(-0.5e-9))
        traj, _ = sc.simulate_controlled(declining_scenario, 0.5)
        assert -1e-9 <= traj.totals.min() < 0.0

    def test_zero_epsilon_is_pure_maintenance(self, controlled_runs):
        traj, schedule = controlled_runs[0.0]
        assert np.max(np.abs(traj.totals)) <= 1e-9
        assert np.all(schedule.f0 >= 0.0)

    def test_negative_zero_epsilon_runs_as_zero(self, tmp_path):
        scenario = build_scenario(load_config(DEMO_CONFIG))
        traj, schedule = sc.simulate_controlled(scenario, -0.0)
        zero_traj, zero_schedule = sc.simulate_controlled(scenario, 0.0)
        for eps in (traj.meta["epsilon"], schedule.epsilon):
            assert eps == 0.0 and np.copysign(1.0, eps) == 1.0
        for path, write, got, want in (
                (tmp_path / "t.csv", sc.write_trajectory, traj, zero_traj),
                (tmp_path / "c.csv", sc.write_control, schedule,
                 zero_schedule)):
            write(path, got)
            first = path.read_text().splitlines()[0]
            assert "epsilon=0.0" in first.split(), first
            write(tmp_path / "zero.csv", want)
            assert path.read_bytes() == (tmp_path / "zero.csv").read_bytes()

    def test_annual_means_non_decreasing_in_epsilon(self, controlled_runs):
        means = {eps: traj.annual_means()
                 for eps, (traj, _) in controlled_runs.items()}
        years = sorted(means[0.0])
        for lo, hi in zip(EPS_SWEEP[:-1], EPS_SWEEP[1:]):
            for year in years:
                assert means[hi][year] >= means[lo][year] - 1e-12

    def test_paired_uncontrolled_run_goes_negative(self, declining_scenario,
                                                   controlled_runs):
        uncontrolled = sc.simulate(declining_scenario)
        assert uncontrolled.totals.min() < -1e-3
        traj, _ = controlled_runs[0.5]
        assert traj.totals.min() >= -1e-9

    def test_monthly_increments_split_by_clamping(self, controlled_runs):
        # active control holds the index exactly; a clamped month raises it
        traj, schedule = controlled_runs[0.5]
        increments = np.diff(traj.totals)
        active = schedule.f0 > 0
        assert np.any(active) and np.any(~active)
        assert np.max(np.abs(increments[active])) <= 1e-9
        assert np.all(increments[~active] > -1e-12)
        assert increments[~active].max() > 1e-4

    def test_schedule_invariant_under_input_rescaling(self, declining_scenario):
        scen = declining_scenario
        scaled = make_scenario(r=1.0, F0=5.0, P0=5.0, warming=0.15,
                               np_trend=0.0, seed=7)
        _, sched_a = sc.simulate_controlled(scen, 0.4)
        _, sched_b = sc.simulate_controlled(scaled, 0.4)
        np.testing.assert_allclose(sched_a.f0, sched_b.f0, rtol=1e-12)

    def test_discrete_rate_reproducible_from_states(self, controlled_runs,
                                                    declining_scenario):
        # recompose the applied rate from the recorded month-start states
        scen = declining_scenario
        traj, schedule = controlled_runs[0.2]
        eps = 0.2
        hand = hand_months(scen.site)
        mats = scen.mats
        params = scen.params
        for j in (0, 7, 50, 120):
            c = traj.states[j]
            dt, rho, q = hand.dt[j], hand.rho[j], hand.q[j]
            g_term = eps * (hand.supply[j] - q)
            phiv = sc.phi1_scalar(-dt * rho * params.k)
            w = params.delta * phiv + (params.alpha * phiv[2]
                                       + params.beta * phiv[3])
            decay = (params.delta / dt) * float((1 - np.exp(-dt * rho * params.k)) @ c)
            expected = max(0.0, q + (decay - g_term * float(w @ mats.a_g))
                           / ((1 - eps) * float(w @ mats.a_f)))
            assert schedule.f0[j] == pytest.approx(expected, rel=1e-12,
                                                   abs=1e-15)

    def test_discrete_rate_converges_to_continuous_law(self, declining_scenario):
        # the month-step maintenance rate tends to the analytic rate as dt->0
        scen = declining_scenario
        params = scen.params
        mats = scen.mats
        rng = np.random.default_rng(3)
        dc = rng.standard_normal(4) * 0.05
        rho, eps, n, m = 0.6, 0.3, 1, 7
        ghat_prop = scen.site.density.proportions[m - 1]
        np_ratio = scen.site.np_ratios[scen.site.baseline_year + n]
        gaps = []
        for dt in (1.0, 0.1, 0.01, 0.001):
            ghat = ghat_prop / 1.0   # density per month, dt-independent here
            q = rho / (T * scen.baseline.rho0)
            g_term = eps * (np_ratio * ghat - q)
            phiv = sc.phi1_scalar(-dt * rho * params.k)
            w = params.delta * phiv + (params.alpha * phiv[2]
                                       + params.beta * phiv[3])
            decay = (params.delta / dt) * float(
                (1 - np.exp(-dt * rho * params.k)) @ dc)
            discrete = q + (decay - g_term * float(w @ mats.a_g)) \
                / ((1 - eps) * float(w @ mats.a_f))
            continuous = maintenance_rate(dc, rho, ghat, np_ratio,
                                          eps, T, scen.baseline.rho0,
                                          params.delta, params.k)
            gaps.append(abs(discrete - continuous))
        assert gaps[-1] < 1e-3 * max(1.0, abs(continuous))
        assert gaps[0] > gaps[-1]
        ratios = np.array(gaps[:-1]) / np.array(gaps[1:])
        assert np.all(ratios > 5.0)

    def test_epsilon_one_and_bad_baseline_rejected(self, declining_scenario):
        with pytest.raises(ConfigError, match="simulate"):
            sc.simulate_controlled(declining_scenario, 1.0)
        no_manure = make_scenario(r=1.0, F0=0.0)
        with pytest.raises(ConfigError):
            sc.simulate_controlled(no_manure, 0.2)

    def test_modifier_ordering_in_epsilon_on_replacement_months(
            self, declining_scenario, controlled_runs):
        # wherever manure is the only input and both runs apply manure, a
        # larger plant share needs a (pointwise) larger modifying factor
        scen = declining_scenario
        months = controlled_runs[0.0][1].month
        props = scen.site.density.proportions[months - 1]
        for lo, hi in zip(EPS_SWEEP[:-1], EPS_SWEEP[1:]):
            a = controlled_runs[lo][1].f0
            b = controlled_runs[hi][1].f0
            sel = (a > 0) & (b > 0) & (props == 0.0)
            assert sel.sum() > 0
            assert np.all(b[sel] >= a[sel] - 1e-12)

    def test_annual_totals_positive_and_sized(self, controlled_runs):
        _, schedule = controlled_runs[0.2]
        totals = schedule.annual_totals()
        assert sorted(totals) == list(range(2006, 2020))
        assert all(v >= 0.0 for v in totals.values())
        assert any(v > 0.0 for v in totals.values())


class TestExactFlowReplay:
    """The floor holds for the scheme's increment, which the law zeroes,
    not for the exact flow under the same monthly manure. The demo sweep's
    schedules are replayed through ``exact_flow``; its minimum Δsoc is
    reported, not gated (-1.18e-7 at ε = 0.8, month 3, with numpy 2.4.6)."""

    def test_replay_forcing_is_the_fixed_policy_forcing(self):
        scenario = build_scenario(load_config(DEMO_CONFIG))
        density = np.linspace(0.01, 0.08, 12)
        record, F0 = scenario.site.month_operators, scenario.baseline.F0
        f = density[record.month - 1]
        schedule = control.ControlSchedule(
            t=record.t_end - record.dt, year=record.year_index,
            month=record.month, f0=f / F0, f=f,
            epsilon=scenario.baseline.epsilon, meta={"F0": F0})
        fixed = dataclasses.replace(scenario,
                                    fym=sc.FymPolicy("fixed", density))
        np.testing.assert_array_equal(exact_flow(scenario, schedule=schedule),
                                      exact_flow(fixed))

    def test_demo_schedules_through_the_exact_flow(self, record_property):
        scenario = build_scenario(load_config(DEMO_CONFIG))
        lowest = []
        for eps in (0.2, 0.5, 0.8):
            trajectory, schedule = sc.simulate_controlled(scenario, eps)
            assert trajectory.totals.min() >= control.DSOC_FLOOR
            totals = exact_flow(scenario, schedule=schedule).sum(axis=1)
            assert np.all(np.isfinite(totals))
            lowest.append((float(totals.min()), eps, int(totals.argmin())))
        dsoc, eps, month = min(lowest)
        record_property("exact_flow_min_dsoc", dsoc)
        print(f"exact-flow replay: min dsoc {dsoc:.3e} at epsilon={eps:g}, "
              f"month {month}")


def _sharing_scenario():
    return make_scenario(r=1.0, F0=0.5, P0=0.5, warming=0.15, np_trend=0.0,
                         seed=7)


def _arrays(trajectory, schedule=None):
    out = {name: getattr(trajectory, name)
           for name in ("t", "year", "month", "states", "totals")}
    if schedule is not None:
        out.update({f"schedule.{name}": getattr(schedule, name)
                    for name in ("t", "year", "month", "f0", "f")})
        out["schedule.dt"] = schedule.meta["dt"]
    return out


# every monthly run on one scenario, each returning its output arrays
_MONTHLY_RUNS = {
    "simulate-delta": lambda s: _arrays(sc.simulate(s)),
    "simulate-absolute-rothc": lambda s: _arrays(
        sc.simulate(s, scheme="rothc_discrete", mode="absolute")),
    "rk4": lambda s: _arrays(sc.rk4_reference(s, refine=4)),
    **{f"control-{eps}": (lambda s, eps=eps: _arrays(
        *sc.simulate_controlled(s, eps))) for eps in EPS_SWEEP},
}


class TestSharedMonthOperators:
    def test_runs_on_one_scenario_match_runs_on_fresh_ones(self, monkeypatch):
        calls = []
        build = stepping.build_time_grid
        monkeypatch.setattr(stepping, "build_time_grid",
                            lambda site: calls.append(site) or build(site))
        shared = _sharing_scenario()
        for name, run in _MONTHLY_RUNS.items():
            fresh = run(_sharing_scenario())
            for key, array in run(shared).items():
                assert array.dtype == fresh[key].dtype, (name, key)
                np.testing.assert_array_equal(array, fresh[key],
                                              err_msg=f"{name} {key}")
        assert sum(s is shared.site for s in calls) == 1
        shorter = sc.Scenario(dataclasses.replace(
            shared.site, horizon=shared.site.horizon - 1))
        assert (len(shorter.site.month_operators.dt)
                == 12 * shorter.site.horizon)
        assert sum(s is shorter.site for s in calls) == 1
        assert (len(shared.site.month_operators.dt)
                == 12 * shared.site.horizon)

    def test_a_policy_change_shares_the_site_operators(self, monkeypatch):
        grids, maps = [], []
        build_grid = stepping.build_time_grid
        build_maps = control._control_maps
        monkeypatch.setattr(stepping, "build_time_grid", lambda site:
                            grids.append(site) or build_grid(site))
        monkeypatch.setattr(control, "_control_maps", lambda site:
                            maps.append(site) or build_maps(site))
        shared = _sharing_scenario()
        plain = sc.simulate(shared)
        sc.simulate_controlled(shared, 0.2)
        assert len(grids) == len(maps) == 1
        fixed = dataclasses.replace(
            shared, fym=sc.FymPolicy("fixed", np.full(12, 0.05)))
        bare = sc.Scenario(shared.site)
        for other in (fixed, bare):
            sc.simulate_controlled(other, 0.2)
            assert other.site.month_operators is shared.site.month_operators
            assert other.site.control_maps is shared.site.control_maps
        # the policy is read per run, not cached with the operators
        assert not np.array_equal(sc.simulate(fixed).states, plain.states)
        np.testing.assert_array_equal(sc.simulate(bare).states, plain.states)
        assert len(grids) == len(maps) == 1

    def test_record_is_named_and_read_only(self):
        record = _sharing_scenario().site.month_operators
        assert isinstance(record, sc.MonthRecord)
        assert record._fields == (
            "year_index", "month", "dt", "t_end", "rhos", "eks", "fmats",
            "dir_g", "dir_f", "supply", "q")
        for name in record._fields:
            assert not getattr(record, name).flags.writeable, name

    def test_control_maps_built_once_for_every_epsilon(self, monkeypatch):
        calls = []
        build = control._control_maps
        monkeypatch.setattr(control, "_control_maps",
                            lambda site: calls.append(site) or build(site))
        shared = _sharing_scenario()
        for eps in EPS_SWEEP:
            sc.simulate_controlled(shared, eps)
        assert len(calls) == 1 and calls[0] is shared.site

    def test_zero_epsilon_builds_no_control_maps(self, monkeypatch):
        def refuse(site):
            raise AssertionError("an ε = 0 run built the control maps")
        monkeypatch.setattr(control, "_control_maps", refuse)
        traj, schedule = sc.simulate_controlled(_sharing_scenario(), 0.0)
        assert not traj.states.any() and np.all(schedule.f0 > 0.0)

    def test_control_maps_are_read_only(self):
        for array in _sharing_scenario().site.control_maps:
            assert not array.flags.writeable

    @pytest.mark.parametrize("name", sorted(_MONTHLY_RUNS))
    def test_writing_into_outputs_cannot_change_a_later_run(self, name):
        expected = _MONTHLY_RUNS[name](_sharing_scenario())
        shared = _sharing_scenario()
        for other in _MONTHLY_RUNS.values():
            for array in other(shared).values():
                try:
                    array[...] = 7
                except ValueError:   # an array the scenario shares
                    assert not array.flags.writeable
        for key, array in _MONTHLY_RUNS[name](shared).items():
            np.testing.assert_array_equal(array, expected[key], err_msg=key)
