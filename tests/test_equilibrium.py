"""Falloon IOM partition, the SOC scalar solve, and equilibrium initialization."""

import math

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st

import socchange as sc
from socchange import equilibrium
from socchange.errors import (ConfigError, InfeasibleBaselineError,
                             NumericsError)

T = 12.0


@pytest.fixture(scope="module")
def setup50():
    params = sc.SoilParams.for_site(50.0, 23.0, 1.44)
    return params, sc.build_matrices(params)


class TestIomFromSoc:
    def test_zero(self):
        assert sc.iom_from_soc(0.0) == 0.0

    def test_soc50_scalar_oracle(self):
        # frozen from a 40-digit evaluation of 0.049 * 50**1.139
        assert sc.iom_from_soc(50.0) == pytest.approx(4.2201016790157555,
                                                      rel=1e-14)

    def test_inert_fraction_below_unity_over_plausible_range(self):
        grid = np.linspace(1.0, 300.0, 1000)
        iom = 0.049 * grid**1.139
        assert np.all(iom < grid)
        for soc in (1.0, 47.0, 300.0):
            assert sc.iom_from_soc(soc) < soc

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            sc.iom_from_soc(-1.0)


def _bracketing_scan(soc_active, lo, hi, stages=4, points=1000):
    """Zooming dense-grid sign-change scan, independent of the solver."""
    def residual(s):
        return 0.049 * s**1.139 - s + soc_active
    for _ in range(stages):
        grid = np.linspace(lo, hi, points)
        values = residual(grid)
        idx = np.nonzero(np.diff(np.sign(values)) != 0)[0]
        assert idx.size >= 1
        lo, hi = grid[idx[0]], grid[idx[0] + 1]
    return 0.5 * (lo + hi)


class TestSocTotalFromActive:
    def test_trivial_root(self):
        assert sc.soc_total_from_active(0.0) == 0.0

    @pytest.mark.parametrize("soc_total", [10.0, 40.0, 80.0])
    def test_round_trip_with_falloon(self, soc_total):
        active = soc_total - sc.iom_from_soc(soc_total)
        assert sc.soc_total_from_active(active) == pytest.approx(
            soc_total, rel=1e-9)

    def test_against_dense_grid_scan(self):
        root = sc.soc_total_from_active(40.0)
        scanned = _bracketing_scan(40.0, 40.0, 60.0)
        assert root == pytest.approx(scanned, abs=1e-8)

    def test_residual_below_tolerance(self):
        for soc in (1.0, 25.0, 150.0):
            root = sc.soc_total_from_active(soc)
            assert abs(0.049 * root**1.139 - root + soc) < 1e-10

    def test_every_active_soc_below_the_peak_solves(self):
        # the residual's rounding grows with the root, so its check scales
        # with it; at the peak itself no bracket exists
        for soc in np.geomspace(1e3, equilibrium.MAX_ACTIVE_SOC, 400)[:-1]:
            root = sc.soc_total_from_active(float(soc))
            assert abs(0.049 * root**1.139 - root + soc) <= 1e-10 * root

    def test_strictly_increasing(self):
        grid = np.linspace(0.5, 200.0, 400)
        roots = np.array([sc.soc_total_from_active(s) for s in grid])
        assert np.all(np.diff(roots) > 0)

    @pytest.mark.parametrize("soc", [1e10, 1e300])
    def test_no_root_is_numerics_error(self, soc):
        # s - 0.049 s^1.139 peaks near 1.2e8; at 1e300 s^1.139 overflows
        with pytest.raises(NumericsError, match="could not bracket"):
            sc.soc_total_from_active(soc)


def _falloon_bracket(soc):
    """soc_total_from_active's residual and bracket (hi is the last tried)."""
    coeff, power = equilibrium.FALLOON_COEFF, equilibrium.FALLOON_POWER

    def residual(s):
        try:
            return coeff * s**power - s + soc
        except OverflowError:
            return math.inf
    frac = coeff * soc ** (power - 1.0)
    hi = soc / (1.0 - frac) if frac < 1.0 else 2.0 * soc
    for _ in range(200):
        if residual(hi) <= 0.0:
            break
        hi *= 1.5
    return residual, soc, hi


def _solve_counted(solver, f, a, b, **tolerances):
    """(root, or None on an error) and the number of calls of f."""
    calls = 0

    def counted(x):
        nonlocal calls
        calls += 1
        return f(x)
    try:
        root = solver(counted, a, b, **tolerances)
    except (ValueError, RuntimeError, NumericsError):
        root = None
    return root, calls


_SOC_TOLERANCES = dict(xtol=1e-14, rtol=8.9e-16, maxiter=200)

# roots exist for soc up to about 1.27e8 (the peak of s - 0.049 s^1.139)
_ORACLE_SOCS = [float(v) for v in np.logspace(-12, 300, 200)] + [
    float(v) for v in np.logspace(-12, 8, 200)] + [14.9, 5e-324, 1e307]

_SMOOTH = [(lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0),
           (lambda x: math.cos(x) - x, 0.0, 1.0),
           (lambda x: math.exp(x) - 10.0, 0.0, 5.0),
           # steep, and flat at a ninefold root: many steps are bisections
           (lambda x: math.tanh(50.0 * (x - 0.3)), -1.0, 1.0),
           (lambda x: (x - 1.0)**9, 0.0, 3.0)]


class TestBrentq:
    """The pure-Python port against scipy.optimize.brentq, bit for bit."""

    def test_falloon_roots_and_call_counts_match_scipy(self):
        rooted = 0
        for soc in _ORACLE_SOCS:
            residual, lo, hi = _falloon_bracket(soc)
            ours = _solve_counted(equilibrium.brentq, residual, lo, hi,
                                  **_SOC_TOLERANCES)
            theirs = _solve_counted(scipy.optimize.brentq, residual, lo, hi,
                                    **_SOC_TOLERANCES)
            assert ours == theirs, soc
            rooted += ours[0] is not None
        assert rooted >= 200

    @pytest.mark.parametrize("xtol, rtol", [(2e-12, 8.9e-16),
                                            (1e-14, 8.9e-16), (1e-6, 1e-6)])
    @pytest.mark.parametrize("case", range(len(_SMOOTH)))
    def test_smooth_roots_and_call_counts_match_scipy(self, case, xtol, rtol):
        f, a, b = _SMOOTH[case]
        for lo, hi in ((a, b), (b, a)):
            ours = _solve_counted(equilibrium.brentq, f, lo, hi, xtol=xtol,
                                  rtol=rtol, maxiter=200)
            theirs = _solve_counted(scipy.optimize.brentq, f, lo, hi,
                                    xtol=xtol, rtol=rtol, maxiter=200)
            assert ours[0] is not None and ours == theirs

    def test_soc_total_from_active_returns_the_scipy_root(self):
        residual, lo, hi = _falloon_bracket(14.9)
        assert sc.soc_total_from_active(14.9) == scipy.optimize.brentq(
            residual, lo, hi, **_SOC_TOLERANCES)

    @pytest.mark.parametrize("f, a, b, tolerances", [
        (lambda x: x * x + 1.0, -1.0, 1.0, {}),                  # same sign
        (lambda x: (x - 1.0)**9, 0.0, 3.0, {"maxiter": 1}),      # hard root
        (lambda x: x - 0.5, 0.0, 1.0, {"rtol": 1e-16}),          # rtol floor
        (lambda x: x - 0.5, 0.0, 1.0, {"xtol": 0.0}),            # xtol floor
        (lambda x: math.nan if x > 0.2 else x - 0.5, 0.0, 1.0, {}),  # NaN
    ])
    def test_failures_are_numerics_errors(self, f, a, b, tolerances):
        kwargs = dict(xtol=2e-12, rtol=8.9e-16, maxiter=100) | tolerances
        with pytest.raises(NumericsError):
            equilibrium.brentq(f, a, b, **kwargs)
        with pytest.raises((ValueError, RuntimeError)):
            scipy.optimize.brentq(f, a, b, **kwargs)


class TestEquilibriumPools:
    def test_zero_inputs_zero_state(self, setup50):
        _, mats = setup50
        c0 = sc.equilibrium_pools(0.0, 0.0, 0.5, mats, T)
        np.testing.assert_array_equal(c0, np.zeros(4))

    def test_defining_residual(self, setup50):
        _, mats = setup50
        c0 = sc.equilibrium_pools(1.3, 0.4, 0.55, mats, T)
        residual = 0.55 * (mats.A @ c0) + (1.3 * mats.a_g + 0.4 * mats.a_f) / T
        assert np.max(np.abs(residual)) / np.max(np.abs(c0)) < 1e-12

    def test_against_dense_linear_solve(self, setup50):
        # independent route: assemble A entrywise from the RothC flow
        # structure and solve with the generic dense solver
        params, mats = setup50
        rho0 = 0.47
        a = np.array([
            [-params.k[0], 0, 0, 0],
            [0, -params.k[1], 0, 0],
            [params.alpha * params.k[0], params.alpha * params.k[1],
             (params.alpha - 1) * params.k[2], params.alpha * params.k[3]],
            [params.beta * params.k[0], params.beta * params.k[1],
             params.beta * params.k[2], (params.beta - 1) * params.k[3]],
        ])
        b = (1.0 * mats.a_g + 0.0 * mats.a_f) / T
        expected = np.linalg.solve(rho0 * a, -b)
        got = sc.equilibrium_pools(1.0, 0.0, rho0, mats, T)
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_componentwise_nonnegative(self, setup50):
        _, mats = setup50
        rng = np.random.default_rng(3)
        for _ in range(50):
            p0, f0 = rng.uniform(0, 10, 2)
            c0 = sc.equilibrium_pools(p0, f0, rng.uniform(0.1, 2.0), mats, T)
            assert np.all(c0 >= 0)

    def test_linear_scaling(self, setup50):
        _, mats = setup50
        c1 = sc.equilibrium_pools(1.2, 0.6, 0.5, mats, T)
        c2 = sc.equilibrium_pools(2.4, 1.2, 0.5, mats, T)
        np.testing.assert_allclose(c2, 2.0 * c1, rtol=1e-14)

    def test_invalid_rho_rejected(self, setup50):
        _, mats = setup50
        with pytest.raises(ConfigError):
            sc.equilibrium_pools(1.0, 0.0, 0.0, mats, T)


class TestInferInitialPlantInput:
    @given(st.floats(min_value=0.0, max_value=20.0),
           st.floats(min_value=0.0, max_value=20.0),
           st.floats(min_value=0.05, max_value=2.0))
    @settings(max_examples=60)
    def test_inverse_round_trip(self, p0, f0, rho0):
        params = sc.SoilParams.for_site(50.0, 23.0, 1.44)
        mats = sc.build_matrices(params)
        c0 = sc.equilibrium_pools(p0, f0, rho0, mats, T)
        back = sc.BaselineState.from_active_soc(c0.sum(), f0, rho0, mats,
                                                params)
        assert back.P0 == pytest.approx(p0, rel=1e-10, abs=1e-10)
        assert back.P0 + back.F0 == pytest.approx(p0 + f0, rel=1e-10,
                                                  abs=1e-10)

    def test_zero_manure_recovers_turnover(self, setup50):
        # P0 + F0 = T rho0 delta k^T c0 at the equilibrium
        params, mats = setup50
        c0 = sc.equilibrium_pools(1.7, 0.0, 0.5, mats, T)
        total = T * 0.5 * params.delta * float(params.k @ c0)
        assert total == pytest.approx(1.7, rel=1e-14)
        back = sc.BaselineState.from_active_soc(c0.sum(), 0.0, 0.5, mats,
                                                params)
        assert back.P0 == pytest.approx(total, rel=1e-14)
        assert back.P0 + back.F0 == back.P0

    def test_alternative_identity_via_column_sums(self, setup50):
        # P0 + F0 = -T rho0 1^T A c0, cross-checked against the k-form
        params, mats = setup50
        c0 = sc.equilibrium_pools(2.3, 0.1, 0.6, mats, T)
        total = T * 0.6 * params.delta * float(params.k @ c0)
        alt = -T * 0.6 * float(np.ones(4) @ mats.A @ c0)
        assert total == pytest.approx(alt, rel=1e-12)

    def test_infeasible_baseline(self, setup50):
        params, mats = setup50
        with pytest.raises(InfeasibleBaselineError):
            sc.BaselineState.from_active_soc(4e-6, 100.0, 0.5, mats, params)


class TestBaselineState:
    def test_invariants(self, setup50):
        params, mats = setup50
        baseline = sc.BaselineState.from_inputs(1.0, 0.5, 0.5, mats, T)
        assert baseline.residual(mats, T) / np.max(np.abs(baseline.c0)) < 1e-10
        assert baseline.epsilon == pytest.approx(1.0 / 1.5, rel=1e-14)

    def test_from_active_soc_round_trip(self, setup50):
        params, mats = setup50
        forward = sc.BaselineState.from_inputs(1.7, 0.0, 0.5, mats, T)
        back = sc.BaselineState.from_active_soc(float(forward.c0.sum()), 0.0,
                                                0.5, mats, params)
        assert back.P0 == pytest.approx(1.7, rel=1e-9)
        np.testing.assert_allclose(back.c0, forward.c0, rtol=1e-9)

    def test_max_active_soc_is_the_falloon_peak(self):
        # s - iom(s) over total SOC s peaks at MAX_ACTIVE_SOC, 1.27e8 t C/ha
        s = equilibrium._PEAK_TOTAL_SOC * np.linspace(0.9, 1.1, 2001)
        active = s - equilibrium.FALLOON_COEFF * s**equilibrium.FALLOON_POWER
        assert equilibrium.MAX_ACTIVE_SOC == pytest.approx(active.max(),
                                                          rel=1e-12)
        assert abs(s[np.argmax(active)] / equilibrium._PEAK_TOTAL_SOC - 1) \
            < 1e-4
        with pytest.raises(NumericsError, match="could not bracket"):
            sc.soc_total_from_active(equilibrium.MAX_ACTIVE_SOC * 1.000001)

    @pytest.mark.parametrize("P0, F0", [(1e300, 0.0), (0.0, 1e300),
                                        (1e9, 1e9)])
    def test_active_soc_without_a_total_is_rejected(self, setup50, P0, F0):
        params, mats = setup50
        with pytest.raises(NumericsError, match="could not bracket"):
            sc.BaselineState.from_inputs(P0, F0, 0.5, mats, T)

    def test_baseline_build_solves_no_root(self, setup50, monkeypatch):
        def no_root(*args, **kwargs):
            raise AssertionError("root solve in a baseline build")
        monkeypatch.setattr(equilibrium, "brentq", no_root)
        params, mats = setup50
        sc.BaselineState.from_inputs(1.0, 0.5, 0.5, mats, T)
        sc.BaselineState.from_active_soc(14.9, 0.5, 0.5, mats, params)
