"""The kernels agree with their step-by-step loop oracles.

The month loops step augmented maps: ``affine_recurrence`` applies
[[F, g], [0, 1]] to [c; 1], the same sums in the same order as c <- F c + g,
so it equals its oracle bit for bit. ``controlled_recurrence`` carries ε as
a sixth entry and the unclamped factor, (1 - ε) f̂ = ŵ·[c; 1; ε], as a seventh
that row 6 of each month's map predicts for the next month, so f̂ is rounded
differently from the oracle's feedback law, written from α, β, δ, φ(-τk) and the clamp and checked through
``simulate_controlled``: states and f0 within 1e-12 × max(1, max|oracle|),
the clamped months identical, up to 1 200 months.

The closed-form kernels are checked relative to the largest oracle value.
Matrix powers sum in a different order than the loops; the measured gap is
below 2e-13 up to 1 200 steps per call and below 5e-12 over 240 000 steps, so
the bounds are 1e-12 and 1e-10.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import socchange as sc
from socchange import _kernels
from socchange.pools import DPM_RPM_SHIFT
from socchange.stepping import (_phi_times, _phi_times_a, _step_factors,
                                build_time_grid)

import kernel_oracles as oracle
from conftest import make_scenario

TOL = 1e-12
TOL_LONG = 1e-10


def _assert_close(got, want, tol=TOL):
    assert got.shape == want.shape
    gap = float(np.max(np.abs(got - want), initial=0.0))
    assert gap <= tol * float(np.max(np.abs(want), initial=0.0)), gap


def _random_setup(seed, nsteps=24):
    rng = np.random.default_rng(seed)
    fmats = np.stack([np.eye(4) - 0.05 * rng.uniform(0, 1, (4, 4))
                      for _ in range(nsteps)])
    gvecs = 0.01 * rng.standard_normal((nsteps, 4))
    c0 = rng.uniform(0, 1, 4)
    return fmats, gvecs, c0


def _controlled_oracle(scenario, eps):
    """The oracle's feedback law, written from α, β, δ, φ(-τk) and the clamp,
    on the scenario's months with the scalar operator builders."""
    grid = build_time_grid(scenario.site)
    mats, params = scenario.mats, scenario.params
    n, m, dts = grid.year_index, grid.month, grid.dt
    rhos = scenario.site.rho_at(n, m)
    taus = np.outer(dts * rhos, mats.k)
    qs = rhos / (params.T * scenario.baseline.rho0)
    epsg = eps * (scenario.site.np_ratio(n)
                  * scenario.site.density.density(m, dts) - qs)
    fmats = np.stack([oracle.transition_matrix(dt, rho, mats)
                      for dt, rho in zip(dts, rhos)])
    phimats = np.stack([dt * oracle.phi_matrix(dt, rho, mats)
                        for dt, rho in zip(dts, rhos)])
    return oracle.controlled_recurrence(
        fmats, phimats, np.exp(-taus), sc.phi1_scalar(-taus), dts, epsg, qs,
        mats.a_g, mats.a_f, params.alpha, params.beta, params.delta, eps)


def _assert_controlled_matches_oracle(scenario, eps):
    """States and f0 within 1e-12 × max(1, max|oracle|), the same clamped
    months. The floor of 1 covers ε = 0, where the oracle state is exactly 0
    and the kernel's is round-off. Returns the checked run."""
    traj, schedule = sc.simulate_controlled(scenario, eps)
    states, f0 = _controlled_oracle(scenario, eps)
    for got, want in ((traj.states, states), (schedule.f0, f0)):
        gap = float(np.max(np.abs(got - want)))
        assert gap <= TOL * max(1.0, float(np.max(np.abs(want)))), \
            (eps, gap)
    np.testing.assert_array_equal(schedule.f0 == 0.0, f0 == 0.0)
    return traj, schedule


def _sub_monthly_step(dt, rho=0.9, r=0.67):
    """F and φ(τÃ) of the non-standard step at a sub-monthly dt, τ = dt ρ."""
    mats = sc.build_matrices(sc.SoilParams.for_site(50.0, 23.0, r))
    fmat = oracle.transition_matrix(dt, rho, mats)
    phimat = oracle.phi_matrix(dt, rho, mats)
    return mats, fmat, phimat


class TestPathEquivalence:
    def test_affine_recurrence(self):
        fmats, gvecs, c0 = _random_setup(0)
        np.testing.assert_array_equal(
            _kernels.affine_recurrence(fmats, gvecs, c0),
            oracle.affine_recurrence(fmats, gvecs, c0))
        # constant coefficients: the same steps as the constant-F oracle
        const = np.repeat(fmats[:1], 24, axis=0)
        gconst = np.repeat(gvecs[:1], 24, axis=0)
        np.testing.assert_array_equal(
            _kernels.affine_recurrence(const, gconst, c0)[1:],
            oracle.affine_recurrence_const(fmats[0], gvecs[0], c0, 24, 1))
        # month-varying steps sharing one fixed point keep it
        gfixed = np.einsum("jab,b->ja", np.eye(4) - fmats, c0)
        states = _kernels.affine_recurrence(fmats, gfixed, c0)
        np.testing.assert_allclose(states, np.tile(c0, (25, 1)), rtol=1e-14)

    def test_affine_recurrence_on_a_century(self, monkeypatch):
        # the months simulate steps, 1 200 of them, bit for bit
        kernel = _kernels.affine_recurrence
        calls = []

        def recorded(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(_kernels, "affine_recurrence", recorded)
        scenario = make_scenario(r=0.67, horizon=100, seed=7)
        for mode in ("delta", "absolute"):
            states = sc.simulate(scenario, mode=mode).states
            assert states.shape == (1201, 4)
            np.testing.assert_array_equal(states,
                                          oracle.affine_recurrence(*calls[-1]))

    def test_affine_recurrence_const(self):
        fmats, gvecs, c0 = _random_setup(1, nsteps=1)
        args = (fmats[0], gvecs[0], c0, 120, 10)
        _assert_close(_kernels.affine_recurrence_const(*args),
                      oracle.affine_recurrence_const(*args))

    def test_affine_recurrence_const_long_horizon(self):
        # criterion 3's first year: dt = 5e-5, 240 000 steps, monthly samples
        mats, fmat, phimat = _sub_monthly_step(5e-5)
        args = (fmat, 5e-5 * phimat @ (0.03 * mats.a_g), np.zeros(4), 240_000,
                20_000)
        _assert_close(_kernels.affine_recurrence_const(*args),
                      oracle.affine_recurrence_const(*args), TOL_LONG)

    def test_sensitivity_recurrence(self):
        rng = np.random.default_rng(2)
        fmat = np.eye(4) - 0.04 * rng.uniform(0, 1, (4, 4))
        phimat = np.eye(4) + 0.1 * rng.standard_normal((4, 4))
        coup = phimat @ (0.1 * rng.standard_normal((4, 4)))
        w = phimat @ rng.standard_normal(4)
        bc = phimat @ rng.standard_normal(4)
        z = np.zeros(4)
        mats, fmat_d, phimat_d = _sub_monthly_step(0.01)
        cases = [(fmat, 0.01, coup, w, bc, z, z, 60, 5),
                 (fmat_d, 0.01, phimat_d @ (0.7 * mats.A),
                  phimat_d @ (0.2 * mats.a_g), phimat_d @ (0.3 * mats.a_g),
                  z, z, 1200, 1)]
        for args in cases:
            got = _kernels.sensitivity_recurrence(*args)
            want = oracle.sensitivity_recurrence(*args)
            _assert_close(got[0], want[0])
            _assert_close(got[1], want[1])

    def test_rk4_piecewise(self):
        rng = np.random.default_rng(3)
        amats = np.stack([-0.1 * np.diag(rng.uniform(0.1, 1, 4))
                          for _ in range(6)])
        bvecs = rng.standard_normal((6, 4)) * 0.1
        dts = rng.uniform(0.9, 1.1, 6)
        c0 = rng.uniform(0, 1, 4)
        mats = sc.build_matrices(sc.SoilParams.for_site(50.0, 23.0, 1.44))
        full = np.stack([rho * mats.A for rho in rng.uniform(0.2, 1.5, 6)])
        for m, nsub in ((amats, 20), (full, 100)):
            _assert_close(_kernels.rk4_piecewise(m, bvecs, dts, nsub, c0),
                          oracle.rk4_piecewise(m, bvecs, dts, nsub, c0))

    def test_controlled_recurrence(self):
        for r in (1.44, 0.67, 0.25):
            for horizon in (14, 100):
                scenario = make_scenario(r=r, F0=0.5, P0=0.5, warming=0.15,
                                         np_trend=0.0, seed=7,
                                         horizon=horizon)
                for eps in (0.0, 0.2, 0.5, 0.8, 0.95):
                    _assert_controlled_matches_oracle(scenario, eps)


def _century_site(r):
    return make_scenario(r=r, F0=0.5, P0=0.5, warming=0.15, np_trend=0.01,
                         seed=7, horizon=100).site


class TestMonthOperators:
    """The per-site month operators and control maps on a 100-year site
    against the oracle's φ matrices and a looped product."""

    @pytest.mark.parametrize("r", [0.25, 0.67, 1.44])
    def test_directions_are_dt_phi_of_the_input_vectors(self, r):
        site = _century_site(r)
        grid, rhos, _, _, dir_g, dir_f = site.month_operators
        mats = site.mats
        for got, a in ((dir_g, mats.a_g), (dir_f, mats.a_f)):
            want = np.stack([dt * oracle.phi_matrix(dt, rho, mats) @ a
                             for dt, rho in zip(grid.dt, rhos)])
            _assert_close(got, want, 1e-15)

    @pytest.mark.parametrize("r", [0.25, 0.67, 1.44])
    def test_prediction_row_is_the_next_weights_times_the_map(self, r):
        site = _century_site(r)
        eks, dir_f = site.month_operators[2], site.month_operators[5]
        clamped, free, first = site.control_maps
        # ŵ_j = [δ(1 - e_j), -1ᵀg₀_j, -1ᵀ(g₁ - g₀)_j] / 1ᵀv̂_j
        w = np.column_stack((site.mats.delta * (1.0 - eks),
                             -clamped[:, :4, 4].sum(axis=1),
                             -clamped[:, :4, 5].sum(axis=1)))
        w /= dir_f.sum(axis=1)[:, None]
        np.testing.assert_array_equal(first, w[0])
        for maps in (clamped, free):
            for j in range(maps.shape[0] - 1):
                _assert_close(maps[j, 6, :6], w[j + 1] @ maps[j, :6, :6],
                              1e-14)
            assert not maps[-1, 6].any()

    @pytest.mark.parametrize("r", [0.25, 0.67, 1.44])
    def test_zero_epsilon_control_holds_the_state_at_zero(self, r):
        scenario = sc.Scenario(_century_site(r))
        scale = np.abs(sc.simulate(scenario).states).max()
        states = sc.simulate_controlled(scenario, 0.0)[0].states
        assert np.abs(states).max() <= 1e-15 * scale


class TestPhiClosedForms:
    """φ(τÃ) applied from φ(-τk) without forming it, against the oracle's
    φ matrix: within 1e-15 of the largest entry at each τ in (0, 3]."""

    @pytest.mark.parametrize("r", [0.25, 0.67, 1.44])
    def test_phi_times_a_and_vectors(self, r):
        mats = sc.build_matrices(sc.SoilParams.for_site(50.0, 23.0, r))
        taus = np.linspace(0.06, 3.0, 50)
        phivs = _step_factors(taus, mats)[2]
        phimats = [oracle.phi_matrix(tau, 1.0, mats) for tau in taus]
        cases = [(_phi_times_a(phivs, mats), mats.A)] + [
            (_phi_times(phivs, mats, v), v) for v in (mats.a_g, DPM_RPM_SHIFT)]
        for got, x in cases:
            for got_tau, phimat in zip(got, phimats):
                _assert_close(got_tau, phimat @ x, 1e-15)


def test_fewer_steps_than_one_stride_records_nothing():
    z = np.zeros(4)
    assert _kernels.affine_recurrence_const(np.eye(4), z, z, 4, 5).shape == (0, 4)
    cs, ss = _kernels.sensitivity_recurrence(np.eye(4), 1.0, np.eye(4),
                                             z, z, z, z, 0, 1)
    assert cs.shape == ss.shape == (0, 4)


_unit = st.floats(-1.0, 1.0, allow_nan=False)


def _vector(n=4):
    return st.lists(_unit, min_size=n, max_size=n).map(np.array)


@st.composite
def _contractive(draw):
    a = draw(_vector(16)).reshape(4, 4)
    norm = np.linalg.norm(a, 2)
    assume(norm > 1e-3)
    return a * draw(st.floats(0.1, 0.999)) / norm


@st.composite
def _schedule(draw):
    """(nsteps, record_every): the doubling edges around 1, 2 and 1024
    samples, at most 1 200 steps, with a partial last stride when the
    stride exceeds one step."""
    nsamples = draw(st.sampled_from([1, 2, 3, 1023, 1024, 1025]))
    record_every = 1 if nsamples > 3 else draw(st.integers(1, 300))
    extra = draw(st.integers(0, record_every - 1))
    return nsamples * record_every + extra, record_every


class TestClosedFormProperties:
    @settings(max_examples=40, deadline=None)
    @given(_contractive(), _vector(), _vector(), _schedule())
    def test_affine_recurrence_const(self, fmat, gvec, c0, schedule):
        args = (fmat, gvec, c0, *schedule)
        _assert_close(_kernels.affine_recurrence_const(*args),
                      oracle.affine_recurrence_const(*args))

    @settings(max_examples=25, deadline=None)
    @given(_contractive(), st.floats(1e-3, 0.1), _vector(16), _vector(),
           _vector(), _vector(), _schedule())
    def test_sensitivity_recurrence(self, fmat, dt, coup, w, bc, c0,
                                    schedule):
        args = (fmat, dt, coup.reshape(4, 4), w, bc, c0, np.zeros(4),
                *schedule)
        got = _kernels.sensitivity_recurrence(*args)
        want = oracle.sensitivity_recurrence(*args)
        _assert_close(got[0], want[0])
        _assert_close(got[1], want[1])


class TestControlledEdges:
    @settings(max_examples=60, deadline=None)
    @given(eps=st.one_of(st.sampled_from([0.0, 1.0 - 1e-12]),
                         st.floats(0.0, 1.0 - 1e-12)),
           r=st.sampled_from([1e-6, 0.25, 0.67, 1.44, 3.0]),
           horizon=st.integers(1, 3), seed=st.integers(0, 2**16))
    def test_controlled_runs_at_config_edges(self, eps, r, horizon, seed):
        scenario = make_scenario(r=r, F0=0.5, P0=0.5, warming=0.15,
                                 horizon=horizon, seed=seed)
        traj, schedule = _assert_controlled_matches_oracle(scenario, eps)
        assert np.all(np.isfinite(traj.states))
        assert np.all(np.isfinite(schedule.f0))
        assert np.all(schedule.f0 >= 0.0)
        assert traj.totals.min() >= -1e-9
