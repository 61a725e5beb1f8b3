"""``sensitivity`` against the averaged model's exact solution.

Within delta year n the averaged model is autonomous, so the state c and
the sensitivity s map over the year by e^{T M_n} of the block matrix
M_n = [[ρⁿA, κ_n A, ω_n v], [0, ρⁿA, θⁿa_g], [0, 0, 0]] acting on
[s; c; 1] (``kernel_oracles.exact_averaged``). ``sensitivity``
co-integrates the same system with the non-standard step and the coupling
frozen at each substep's left end, a first-order scheme, so at the year
ends its error is C·dt: it must stay within a stated C·dt and halve with
dt. The errors are the largest gap in s_dsoc over the year ends, as a share
of the largest exact |s_dsoc|.

The example count comes from the Hypothesis profile (``--hypothesis-profile
=ci`` runs 1 000).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import socchange as sc
from socchange.sensitivity import (DEFAULT_SENSITIVITY_DT, PARAMETERS,
                                   build_averaged_model,
                                   closed_form_first_year)

from conftest import REPO_ROOT, make_scenario
from kernel_oracles import exact_averaged

# the demo at the default dt; measured 1.43e-5, 1.79e-5 and 8.69e-6
DEMO_ERROR = {"temp1": 1.5e-5, "np1": 1.9e-5, "r": 9.2e-6}
# error per month of dt on drawn sites; measured at most 2.4e-3 (temp1),
# 1.9e-3 (np1) and 2.5e-2 (r, largest for r near 1, where ∂ρ/∂r peaks)
ERROR_PER_DT = {"temp1": 5e-3, "np1": 5e-3, "r": 5e-2}
# the error at dt = 0.02 over the error at dt = 0.01: first order
HALVING = (1.9, 2.1)


def error(scenario, parameter, dt):
    """Largest |s_dsoc - exact s_dsoc| at a year end, as a share of the
    largest exact |s_dsoc|."""
    exact = exact_averaged(scenario, parameter)[0].sum(axis=1)
    series = sc.sensitivity(parameter, scenario, dt=dt)
    years = np.arange(len(exact))
    # one sample a month, the zero sample at the baseline year's end first
    np.testing.assert_allclose(series.t[::12], series.t[0] * (1 + years))
    return float(np.max(np.abs(series.s_dsoc[::12] - exact))
                 / np.max(np.abs(exact)))


@pytest.fixture(scope="module")
def demo():
    return sc.build_scenario(sc.load_config(REPO_ROOT / "data" / "demo"
                                            / "scenario.cfg"))


def test_the_oracle_state_is_the_closed_form_first_year(demo):
    avg = build_averaged_model(demo)
    c = exact_averaged(demo, "np1")[1][1]
    closed = closed_form_first_year(2 * avg.T, avg, demo.r, demo.mats)
    np.testing.assert_allclose(c, closed, rtol=0, atol=1e-12 * np.abs(closed)
                               .max())


@pytest.mark.parametrize("parameter", PARAMETERS)
def test_demo_error_at_the_default_step(demo, parameter):
    fine = error(demo, parameter, DEFAULT_SENSITIVITY_DT)
    assert fine <= DEMO_ERROR[parameter], fine
    coarse = error(demo, parameter, 2 * DEFAULT_SENSITIVITY_DT)
    assert HALVING[0] <= coarse / fine <= HALVING[1], (coarse, fine)


@settings(deadline=None)   # the example count comes from the profile
@given(r=st.floats(0.05, 3.0), cly=st.floats(5.0, 80.0),
       horizon=st.integers(1, 30), seed=st.integers(0, 2**16),
       warming=st.floats(-0.1, 0.2), np_trend=st.floats(-0.02, 0.03))
def test_first_order_convergence_on_drawn_sites(r, cly, horizon, seed,
                                                warming, np_trend):
    scenario = make_scenario(r=r, cly=cly, horizon=horizon, seed=seed,
                             warming=warming, np_trend=np_trend)
    for parameter in PARAMETERS:
        fine = error(scenario, parameter, 0.01)
        assert fine <= ERROR_PER_DT[parameter] * 0.01, (parameter, fine)
        coarse = error(scenario, parameter, 0.02)
        assert HALVING[0] <= coarse / fine <= HALVING[1], \
            (parameter, coarse, fine)
