"""Matrix functions, the two step maps, the time grid, and full trajectories."""

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st

import socchange as sc
from socchange import _kernels, stepping
from socchange.errors import ConfigError

from conftest import (REPO_ROOT, constant_climate, hand_months,
                      make_scenario, synthetic_climate)
from kernel_oracles import (exact_flow, nonstandard_step,
                            nonstandard_step_incremental, phi_matrix,
                            rothc_discrete_step, transition_matrix)


@pytest.fixture(scope="module")
def mats():
    return sc.build_matrices(sc.SoilParams.for_site(50.0, 23.0, 1.44))


def _phi_series(z, terms=20):
    """Truncated Taylor series of (e^Z - 1)/Z, the independent matrix oracle."""
    out = np.eye(z.shape[0])
    term = np.eye(z.shape[0])
    for j in range(1, terms):
        term = term @ z / (j + 1)
        out = out + term
    return out


class TestPhiScalar:
    def test_removable_singularity(self):
        assert sc.phi1_scalar(0.0) == 1.0

    def test_unit_argument(self):
        assert sc.phi1_scalar(1.0) == pytest.approx(1.71828182845904523536,
                                                    rel=1e-15)

    def test_tiny_negative_argument_extended_precision(self):
        # frozen from a 40-digit evaluation of (e^z - 1)/z at z = -1e-8
        assert sc.phi1_scalar(-1e-8) == pytest.approx(0.9999999950000000166667,
                                                      rel=1e-14)

    def test_series_and_direct_branches_agree_at_cutoff(self):
        for z in (9.9e-7, -9.9e-7, 1.1e-6, -1.1e-6):
            direct = np.expm1(z) / z
            assert sc.phi1_scalar(z) == pytest.approx(direct, rel=1e-12)

    def test_vectorized(self):
        z = np.array([-1.0, 0.0, 1.0])
        out = sc.phi1_scalar(z)
        np.testing.assert_allclose(
            out, [1.0 - np.exp(-1.0), 1.0, np.e - 1.0], rtol=1e-14)


class TestPhiMatrix:
    def test_identity_at_vanishing_step(self, mats):
        phi = phi_matrix(1e-12, 0.5, mats)
        assert np.max(np.abs(phi - np.eye(4))) < 1e-9

    def test_matches_series_oracle(self, mats):
        for dt, rho in [(1.0, 0.55), (0.7, 1.2), (2.0, 0.3)]:
            phi = phi_matrix(dt, rho, mats)
            series = _phi_series(dt * rho * mats.A @ mats.i_minus_lambda_inv)
            assert np.max(np.abs(phi - series)) < 1e-12

    def test_commutes_with_atilde(self, mats):
        phi = phi_matrix(1.0, 0.6, mats)
        atilde = mats.A @ mats.i_minus_lambda_inv
        comm = phi @ atilde - atilde @ phi
        assert np.max(np.abs(comm)) < 1e-12


class TestTransitionMatrix:
    def test_identity_at_zero(self, mats):
        np.testing.assert_allclose(transition_matrix(0.0, 0.5, mats),
                                   np.eye(4), atol=1e-15)

    def test_equivalence_of_step_forms(self, mats):
        # I + dt phi(dt rho Atilde) rho A reproduces F(dt rho); this is the
        # algebra behind the two equivalent one-step formulations
        for dt, rho in [(1.0, 0.55), (0.5, 1.3), (1.02, 0.2)]:
            lhs = np.eye(4) + dt * phi_matrix(dt, rho, mats) @ (rho * mats.A)
            rhs = transition_matrix(dt, rho, mats)
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_long_time_limit_is_lambda(self, mats):
        far = transition_matrix(1e9, 1.0, mats)
        np.testing.assert_allclose(far, mats.Lambda, atol=1e-12)

    def test_entrywise_nonnegative(self, mats):
        rng = np.random.default_rng(0)
        for _ in range(200):
            f = transition_matrix(rng.uniform(0, 3), rng.uniform(0.05, 2.5),
                                  mats)
            assert f.min() >= 0.0


class TestNonstandardStep:
    def test_equilibrium_fixed_for_any_step(self, mats):
        T = 12.0
        b = (1.3 * mats.a_g + 0.4 * mats.a_f) / T
        rho0 = 0.55
        cstar = sc.equilibrium_pools(1.3, 0.4, rho0, mats, T)
        for dt in (0.3, 1.0, 1.02, 2.7):
            stepped = nonstandard_step(cstar, dt, rho0, b, mats)
            assert np.max(np.abs(stepped - cstar) / cstar) < 1e-11

    @given(st.floats(min_value=0.0, max_value=100.0),
           st.floats(min_value=0.0, max_value=50.0),
           st.floats(min_value=0.0, max_value=0.5),
           st.floats(min_value=0.05, max_value=2.0),
           st.floats(min_value=0.05, max_value=3.0),
           st.floats(min_value=0.0, max_value=5.0),
           st.floats(min_value=0.0, max_value=5.0))
    @settings(max_examples=80)
    def test_equilibrium_fixed_across_parameter_domain(
            self, cly, r, eta, rho0, dt, p0, f0):
        params = sc.SoilParams.for_site(cly, 23.0, r, eta=eta)
        mats = sc.build_matrices(params)
        b = (p0 * mats.a_g + f0 * mats.a_f) / params.T
        cstar = sc.equilibrium_pools(p0, f0, rho0, mats, params.T)
        stepped = nonstandard_step(cstar, dt, rho0, b, mats)
        scale = max(1.0, float(np.max(np.abs(cstar))))
        assert np.max(np.abs(stepped - cstar)) / scale < 1e-12

    @settings(deadline=None)   # the example count comes from the profile
    @given(cly=st.floats(0.0, 100.0), r=st.floats(0.01, 10.0),
           eta=st.floats(0.0, 0.5), rho=st.floats(1e-3, 24.0),
           dt=st.floats(1e-6, 1.0), p0=st.floats(0.01, 5.0),
           f0=st.floats(0.0, 5.0), nsteps=st.integers(1, 1200))
    def test_constant_forcing_run_stays_at_equilibrium(
            self, cly, r, eta, rho, dt, p0, f0, nsteps):
        # dynamic consistency (Anguelov & Lubuma 2001): a run of the
        # non-standard map from the equilibrium, chained as simulate chains
        # its months, stays there for any step up to a month; the round-off
        # grows at most about one ulp a step (1.3e-13 over 600 steps seen)
        mats = sc.build_matrices(sc.SoilParams.for_site(cly, 23.0, r, eta=eta))
        cstar = sc.equilibrium_pools(p0, f0, rho, mats, 12.0)
        b = (p0 * mats.a_g + f0 * mats.a_f) / 12.0
        _, fmat, phiv = stepping._step_factors(dt * rho, mats)
        gvec = dt * stepping._phi_times(phiv, mats, b)
        states = _kernels.affine_recurrence(
            np.repeat(fmat[None], nsteps, axis=0),
            np.repeat(gvec[None], nsteps, axis=0), cstar)
        assert np.max(np.abs(states - cstar)) <= 1e-12 * np.max(cstar)

    def test_homogeneous_contraction(self, mats):
        rng = np.random.default_rng(1)
        state = rng.uniform(0.1, 5.0, 4)
        stepped = nonstandard_step(state, 1.0, 0.5, np.zeros(4), mats)
        assert np.linalg.norm(stepped) < np.linalg.norm(state)
        np.testing.assert_allclose(
            stepped, transition_matrix(1.0, 0.5, mats) @ state, rtol=1e-14)

    def test_two_forms_agree_on_random_steps(self, mats):
        rng = np.random.default_rng(2)
        for _ in range(300):
            state = rng.standard_normal(4)
            b = rng.standard_normal(4)
            dt = rng.uniform(0.1, 2.0)
            rho = rng.uniform(0.05, 2.0)
            via_inc = nonstandard_step_incremental(state, dt, rho, b, mats)
            via_trans = nonstandard_step(state, dt, rho, b, mats)
            scale = max(1.0, np.max(np.abs(via_trans)))
            assert np.max(np.abs(via_inc - via_trans)) / scale < 1e-12

    def test_first_order_convergence_against_exact_flow(self, mats):
        # exact constant-coefficient solution via the dense matrix exponential
        rho, T_end = 0.5, 12.0
        b = 0.7 * mats.a_g / 12.0
        c0 = np.array([0.5, 3.0, 0.4, 9.0])
        cstar = -np.linalg.solve(rho * mats.A, b)
        exact = cstar + sla.expm(T_end * rho * mats.A) @ (c0 - cstar)
        errors = []
        for dt in (1.0, 0.5, 0.25, 0.125):
            c = c0.copy()
            for _ in range(int(T_end / dt)):
                c = nonstandard_step(c, dt, rho, b, mats)
            errors.append(np.max(np.abs(c - exact)))
        orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert np.all(np.abs(orders - 1.0) < 0.15)

    def test_halving_dt_halves_error(self, mats):
        rho = 0.5
        b = 0.7 * mats.a_g / 12.0
        c0 = np.array([0.5, 3.0, 0.4, 9.0])
        cstar = -np.linalg.solve(rho * mats.A, b)
        exact_1 = cstar + sla.expm(1.0 * rho * mats.A) @ (c0 - cstar)
        e1 = np.max(np.abs(nonstandard_step(c0, 1.0, rho, b, mats) - exact_1))
        exact_h = cstar + sla.expm(0.5 * rho * mats.A) @ (c0 - cstar)
        c_half = nonstandard_step(c0, 0.5, rho, b, mats)
        c_half = nonstandard_step(c_half, 0.5, rho, b, mats)
        exact_full = cstar + sla.expm(1.0 * rho * mats.A) @ (c0 - cstar)
        e2 = np.max(np.abs(c_half - exact_full))
        assert e2 == pytest.approx(e1 / 2.0, rel=0.10)


class TestRothcDiscreteStep:
    def test_same_homogeneous_part(self, mats):
        state = np.array([1.0, 2.0, 0.5, 7.0])
        a = rothc_discrete_step(state, 1.0, 0.6, np.zeros(4), mats)
        b = nonstandard_step(state, 1.0, 0.6, np.zeros(4), mats)
        np.testing.assert_allclose(a, b, rtol=1e-14)

    def test_equilibrium_drift_equals_algebraic_residual(self, mats):
        T = 12.0
        b = (1.0 * mats.a_g) / T
        rho0 = 0.5
        cstar = sc.equilibrium_pools(1.0, 0.0, rho0, mats, T)
        dt = 1.0
        stepped = rothc_discrete_step(cstar, dt, rho0, b, mats)
        drift = stepped - cstar
        residual = dt * (np.eye(4) - phi_matrix(dt, rho0, mats)) @ b
        np.testing.assert_allclose(drift, residual, atol=1e-14)
        assert np.max(np.abs(drift)) > 0

    def test_schemes_merge_quadratically(self, mats):
        state = np.array([0.3, 1.0, 0.2, 4.0])
        b = 0.4 * mats.a_g
        diffs = []
        for dt in (0.4, 0.2, 0.1):
            a = nonstandard_step(state, dt, 0.8, b, mats)
            r = rothc_discrete_step(state, dt, 0.8, b, mats)
            diffs.append(np.max(np.abs(a - r)))
        ratios = np.array(diffs[:-1]) / np.array(diffs[1:])
        assert np.all(np.abs(ratios - 4.0) < 1.0)


_SCAN_STEP = 0.01
_SCAN_TAUS = _SCAN_STEP * np.arange(1, 6001)   # τ = Δt ρ over (0, 60]
_SCAN_CLAYS = np.linspace(0.0, 100.0, 21)
_FROM_THE_START = _SCAN_TAUS[0]
# the first negative τ of the manure direction a_f at r = 1.44, by η, and
# of the plant direction a_g at η = 0.49, by r
_BY_ETA = [(0.0, _FROM_THE_START), (0.05, _FROM_THE_START), (0.1, 1.38),
           (0.2, 6.26), (0.4, 20.48), (0.49, 33.15)]
_BY_RATIO = [(0.05, _FROM_THE_START), (0.1, 2.94), (0.25, 9.87),
             (0.67, 25.35), (1.44, 46.05), (5.0, np.inf)]


def _scan_mats(r, eta):
    return [sc.build_matrices(sc.SoilParams.for_site(cly, 23.0, r, eta))
            for cly in _SCAN_CLAYS]


class TestPositivityDomain:
    """Where a month's input direction Δt φ(τÃ) a keeps every pool's input
    non-negative. Ã is not Metzler, so its BIO entry turns negative past a
    τ that depends on the site; the exact flow's φ(τA) a never does, since
    A is. The engine guards neither: these pin the domain as measured, on a
    scan of τ and the minimum over clay 0-100."""

    @staticmethod
    def _first_negative_bio_tau(direction, r, eta):
        """The first scanned τ at which the BIO entry is negative, over every
        clay; inf if none. Δt > 0 does not change the sign."""
        firsts = [np.inf]
        for mats in _scan_mats(r, eta):
            phivs = stepping._step_factors(_SCAN_TAUS, mats)[2]
            bio = stepping._phi_times(phivs, mats, getattr(mats, direction))
            firsts.extend(_SCAN_TAUS[bio[:, 2] < 0][:1])
        return min(firsts)

    @staticmethod
    def _assert_pinned(got, want):
        if want in (_FROM_THE_START, np.inf):
            assert got == want
        else:
            assert abs(got - want) <= _SCAN_STEP * (1 + 1e-9), got

    @pytest.mark.parametrize("eta, want", _BY_ETA)
    def test_manure_direction_by_eta(self, eta, want):
        self._assert_pinned(self._first_negative_bio_tau("a_f", 1.44, eta),
                            want)

    @pytest.mark.parametrize("r, want", _BY_RATIO)
    def test_plant_direction_by_ratio(self, r, want):
        self._assert_pinned(self._first_negative_bio_tau("a_g", r, 0.49),
                            want)

    @pytest.mark.parametrize("r, eta", [(1.44, eta) for eta, _ in _BY_ETA]
                             + [(r, 0.49) for r, _ in _BY_RATIO])
    def test_exact_flow_inputs_stay_non_negative(self, r, eta):
        # φ(τA) a = V diag(φ(τλ)) V⁻¹ a, within the round-off of V's products
        for mats in _scan_mats(r, eta):
            lam, vecs = np.linalg.eig(mats.A)
            phis = sc.phi1_scalar(_SCAN_TAUS[:, None] * lam)
            for a in (mats.a_g, mats.a_f):
                flow = (phis * np.linalg.solve(vecs, a)) @ vecs.T
                assert flow.min() >= -1e-15, (mats.delta, flow.min())


class TestTimeGrid:
    """The month record's grid fields: year_index, month, dt and t_end."""

    def test_months_sum_to_year_length(self, arable_scenario):
        grid = arable_scenario.site.month_operators
        for n in range(1, arable_scenario.site.horizon + 1):
            assert grid.dt[grid.year_index == n].sum() == pytest.approx(
                12.0, abs=1e-12)

    def test_leap_year_weighting(self, site50):
        climate = constant_climate(2007, 3, site50)   # 2008 is a leap year
        scen = make_scenario(baseline_year=2007, horizon=2, climate=climate)
        grid = scen.site.month_operators
        feb_leap = grid.dt[(grid.year_index == 1) & (grid.month == 2)][0]
        feb_norm = grid.dt[(grid.year_index == 2) & (grid.month == 2)][0]
        assert feb_leap == pytest.approx(12.0 * 29 / 366, rel=1e-14)
        assert feb_norm == pytest.approx(12.0 * 28 / 365, rel=1e-14)

    def test_positive_steps_and_increasing_times(self, arable_scenario):
        grid = arable_scenario.site.month_operators
        assert np.all(grid.dt > 0)
        assert np.all(np.diff(grid.t_end) > 0)
        t = grid.sample_axis(arable_scenario.site.baseline_year)[0]
        assert t[0] == pytest.approx(12.0, abs=1e-12)

    @pytest.mark.parametrize("baseline_year", [2005, 2007])
    def test_matches_month_by_month_loop(self, site50, baseline_year):
        # the same sums in the same order: equal to the last bit
        climate = synthetic_climate(baseline_year, 21, site50, seed=3)
        scen = make_scenario(baseline_year=baseline_year, horizon=20,
                             climate=climate)
        grid = scen.site.month_operators
        years, months, dts, t_end = _time_grid_loop(scen)
        np.testing.assert_array_equal(grid.year_index, years)
        np.testing.assert_array_equal(grid.month, months)
        np.testing.assert_array_equal(grid.dt, dts)
        np.testing.assert_array_equal(grid.t_end, t_end)


def _time_grid_loop(scenario):
    """Reference: the month-by-month time grid with a running year sum."""
    site = scenario.site
    T = site.params.T
    years, months, dts = [], [], []
    for n in range(1, site.horizon + 1):
        ndays = site.climate.month_days[n + site.baseline_year
                                        - site.climate.start_year]
        for m in range(1, 13):
            years.append(n)
            months.append(m)
            dts.append(T * ndays[m - 1] / ndays.sum())
    t_end = []
    for j, (n, dt) in enumerate(zip(years, dts)):
        acc = T * n if j == 0 or n != years[j - 1] else acc
        acc += dt
        t_end.append(acc)
    return years, months, dts, t_end


class TestSimulate:
    def test_zero_forcing_zero_trajectory(self, zero_forcing_scenario):
        traj = sc.simulate(zero_forcing_scenario)
        assert np.max(np.abs(traj.totals)) < 1e-12
        assert np.max(np.abs(traj.states)) < 1e-12

    def test_initial_sample_is_zero_and_times_increase(self, arable_scenario):
        traj = sc.simulate(arable_scenario)
        assert traj.totals[0] == 0.0
        assert np.all(np.diff(traj.t) > 0)
        assert traj.t.shape[0] == 12 * arable_scenario.site.horizon + 1

    def test_matches_fine_step_fourth_order_reference(self, arable_scenario):
        traj = sc.simulate(arable_scenario)
        ref = sc.rk4_reference(arable_scenario, refine=100)
        denom = np.max(np.abs(ref.totals))
        assert np.max(np.abs(traj.totals - ref.totals)) / denom < 0.02

    def test_absolute_mode_stays_nonnegative(self):
        for seed in range(4):
            scen = make_scenario(seed=seed, r=[0.25, 0.67, 1.44, 5.0][seed],
                                 F0=0.2 if seed % 2 else 0.0,
                                 P0=1.0)
            traj = sc.simulate(scen, mode="absolute")
            assert traj.states.min() >= -1e-12

    def test_absolute_mode_starts_at_equilibrium(self, arable_scenario):
        traj = sc.simulate(arable_scenario, mode="absolute")
        np.testing.assert_allclose(traj.states[0],
                                   arable_scenario.baseline.c0, rtol=1e-14)

    def test_annual_means_cover_horizon(self, arable_scenario):
        means = sc.simulate(arable_scenario).annual_means()
        assert sorted(means) == list(range(2006, 2020))

    def test_delta_soc_identity_along_trajectory(self, arable_scenario):
        # d(dsoc) from the summed components matches the column-sum form
        # at every monthly sample
        scen = arable_scenario
        traj = sc.simulate(scen)
        hand = hand_months(scen.site)
        ones = np.ones(4)
        for j in range(hand.n.shape[0]):
            rho = hand.rho[j]
            # no manure and F0 = 0: the plant term (N_P ĝ - ρ/(T ρ0)) a_g
            b = (hand.supply[j] - hand.q[j]) * scen.mats.a_g
            dc = traj.states[j]
            lhs = ones @ (rho * (scen.mats.A @ dc) + b)
            rhs = -rho * scen.params.delta * (scen.params.k @ dc) + ones @ b
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_cover_mode_switch_changes_arable_forcing(self, arable_scenario):
        smooth = make_scenario(r=1.44, cover_mode="smooth")
        timed = sc.simulate(arable_scenario)
        other = sc.simulate(smooth)
        assert np.max(np.abs(timed.totals - other.totals)) > 1e-6
        assert timed.meta["cover_mode"] == "timed"
        assert other.meta["cover_mode"] == "smooth"

    def test_controlled_policy_routed_elsewhere(self, site50):
        scen = make_scenario(F0=0.5, fym=sc.FymPolicy(mode="controlled"))
        with pytest.raises(ConfigError):
            sc.simulate(scen)

    def test_fixed_manure_without_baseline_total_rejected_in_delta(self):
        fixed = sc.FymPolicy(mode="fixed", monthly_density=np.full(12, 0.01))
        scen = make_scenario(F0=0.0, fym=fixed)
        with pytest.raises(ConfigError, match="F0 > 0"):
            sc.simulate(scen)
        # absolute mode takes the density directly and needs no normalization
        traj = sc.simulate(scen, mode="absolute")
        assert traj.states.min() >= -1e-12

    def test_unknown_scheme_rejected(self, arable_scenario):
        with pytest.raises(ConfigError):
            sc.simulate(arable_scenario, scheme="euler")


class TestSchemeComparison:
    def test_discrete_rothc_runs_and_diverges_from_nonstandard(
            self, arable_scenario):
        ns = sc.simulate(arable_scenario, scheme="nonstandard")
        rd = sc.simulate(arable_scenario, scheme="rothc_discrete")
        assert ns.totals.shape == rd.totals.shape
        assert np.max(np.abs(ns.totals - rd.totals)) > 0


@pytest.fixture(scope="module",
                params=[(r, seed) for r in (0.25, 0.67, 1.44)
                        for seed in (1, 2, 3)] + ["demo"],
                ids=lambda p: p if p == "demo" else "r{}-seed{}".format(*p))
def flow_scenario(request):
    if request.param == "demo":
        return sc.build_scenario(
            sc.load_config(REPO_ROOT / "data" / "demo" / "scenario.cfg"))
    r, seed = request.param
    return make_scenario(r=r, seed=seed)


@pytest.mark.parametrize("mode", ["delta", "absolute"])
class TestExactFlow:
    """The exact monthly flow on the schemes' own forcing: the fine-step RK4
    reference resolves it (measured gap at most 3.5e-13 of the state scale),
    and the non-standard scheme stays closer to it than the discrete RothC
    step (10-70x on the largest state gap over these 20 runs)."""

    def test_matches_fine_step_fourth_order_reference(self, flow_scenario,
                                                      mode):
        exact = exact_flow(flow_scenario, mode)
        ref = sc.rk4_reference(flow_scenario, mode, refine=100).states
        scale = max(1.0, np.max(np.abs(ref)))
        assert np.max(np.abs(exact - ref)) <= 1e-11 * scale

    def test_nonstandard_closer_than_discrete_rothc(self, flow_scenario, mode):
        exact = exact_flow(flow_scenario, mode)
        gaps = [np.max(np.abs(sc.simulate(flow_scenario, scheme, mode).states
                              - exact))
                for scheme in ("nonstandard", "rothc_discrete")]
        assert gaps[0] < gaps[1]
