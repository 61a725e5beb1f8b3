"""The bridge climate, on which the monthly and the annually averaged models
coincide.

The sensitivities differentiate the averaged model; ``simulate`` steps the
monthly one. On the bridge site every month of a delta year sits at the
year's mean: one temperature a year (rising 0.1 °C a year), pet_mm = rain_mm
= 60 so that the deficit stays 0, NPP rising 1 % a year, the smooth cover
factor and no manure. The plant-input density gives each month its share of
a 365-day year, so over a horizon with no leap year (2013-2015) each month's
input rate is the year's mean rate. The exact monthly flow is then the
averaged model's exact yearly map e^{T M_n}, M_n = [[ρⁿA, θⁿa_g], [0, 0]],
to round-off, and ``simulate`` differs from it by its scheme's error only.
"""

import calendar

import numpy as np
import pytest
import scipy.linalg as sla

import socchange as sc
from socchange.sensitivity import build_averaged_model, theta

from kernel_oracles import exact_flow

# gaps as a share of the map's largest |Δsoc| at a year end; measured on
# the bridge: 7.1e-14 for the exact flow, 1.5e-3 for simulate
EXACT_GAP_BOUND = 1e-12
SIMULATE_GAP_BOUND = 2e-3


def bridge_site(directory, baseline_year=2012, horizon=3, density="days"):
    """The bridge site's files under ``directory``, with the demo soil, and
    its scenario; ``density="uniform"`` gives each month 1/12 instead."""
    directory.mkdir(parents=True, exist_ok=True)
    years = range(baseline_year, baseline_year + horizon + 1)
    climate = ["year,month,temp_c,rain_mm,pet_mm"] + [
        f"{year},{month},{15.0 + 0.1 * (year - baseline_year)!r},60.0,60.0"
        for year in years for month in range(1, 13)]
    npp = ["year,npp"] + [f"{year},{500.0 * 1.01 ** (year - baseline_year)!r}"
                          for year in years]
    days = [calendar.monthrange(2013, month)[1] for month in range(1, 13)]
    shares = [d / 365 for d in days] if density == "days" else [1 / 12] * 12
    table = ["month,arable"] + [f"{month},{share!r}"
                                for month, share in enumerate(shares, 1)]
    for name, lines in (("climate.csv", climate), ("npp.csv", npp),
                        ("density.csv", table)):
        (directory / name).write_text("\n".join(lines) + "\n")
    config = directory / "scenario.cfg"
    config.write_text(
        f"clay_pct = 50\ndepth_cm = 23\nbaseline_year = {baseline_year}\n"
        f"horizon_years = {horizon}\nland_class = arable\n"
        "dpm_rpm_ratio = 1.44\nbare_months = 4\neta = 0.49\n"
        "plant_input_tc_ha_yr = 1.0\ncover_mode = smooth\n"
        "climate_csv = climate.csv\nnpp_csv = npp.csv\n"
        "density_csv = density.csv\n")
    return sc.build_scenario(sc.load_config(config))


def averaged_map(scenario):
    """Year-end states of the averaged model's exact flow from the zero
    state, year 0 first: c <- e^{T M_n} (c, 1)."""
    averaged = build_averaged_model(scenario)
    mats = scenario.mats
    state = np.zeros(5)
    state[4] = 1.0
    states = [state[:4]]
    for n in range(1, averaged.horizon + 1):
        m = np.zeros((5, 5))
        m[:4, :4] = averaged.rho_n(n, scenario.r) * mats.A
        m[:4, 4] = theta(n, averaged) * mats.a_g
        state = sla.expm(averaged.T * m) @ state
        states.append(state[:4])
    return np.array(states)


def gap(monthly_states, scenario):
    """Largest |Δsoc - Δsoc of the map| at a year end, as a share of the
    map's largest |Δsoc|."""
    reference = averaged_map(scenario).sum(axis=1)
    dsoc = monthly_states[::12].sum(axis=1)
    return float(np.abs(dsoc - reference).max() / np.abs(reference).max())


@pytest.fixture(scope="module")
def bridge(tmp_path_factory):
    return bridge_site(tmp_path_factory.mktemp("bridge"))


def test_every_month_of_a_year_has_the_year_rate(bridge):
    record = bridge.site.month_operators
    assert bridge.baseline.epsilon == 1.0
    assert np.ptp(record.rhos.reshape(-1, 12), axis=1).max() == 0.0
    forcing = (record.supply - record.q).reshape(-1, 12)   # N_P ĝ - q
    assert np.ptp(forcing, axis=1).max() <= 1e-15 * record.supply.max()


def test_exact_monthly_flow_is_the_averaged_map(bridge):
    assert gap(exact_flow(bridge), bridge) <= EXACT_GAP_BOUND


def test_simulate_differs_from_the_map_by_its_scheme_error(bridge):
    assert gap(sc.simulate(bridge).states, bridge) <= SIMULATE_GAP_BOUND


def test_leap_years_and_a_uniform_density_leave_the_bridge(tmp_path):
    # reported, not gated: a 12-row density cannot follow Feb 29 (the
    # horizon 2006-2019 has three leap years), and a 1/12 density gives a
    # month the same input whatever its length
    leap = bridge_site(tmp_path / "leap", baseline_year=2005, horizon=14)
    uniform = bridge_site(tmp_path / "uniform", density="uniform")
    gaps = {"leap years": gap(exact_flow(leap), leap),
            "uniform density": gap(exact_flow(uniform), uniform)}
    print("exact monthly flow against the averaged map:", gaps)
    assert min(gaps.values()) > EXACT_GAP_BOUND
