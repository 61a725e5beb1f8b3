"""Shared fixtures: synthetic climates/scenarios and optional site data gating."""

from __future__ import annotations

import dataclasses
import os
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import settings

import socchange as sc
from socchange import _kernels

REPO_ROOT = Path(__file__).resolve().parent.parent

# ``--hypothesis-profile=ci``: more examples for the tests that take their
# count from the profile (the loader differential test), and no deadline
settings.register_profile("ci", max_examples=1000, deadline=None)

# Optional third-party extracts (CRU TS / MOD17 aggregates); tests that
# reproduce published site values skip when these are absent.
ALTA_MURGIA_DIR = Path(os.environ.get("SOCCHANGE_ALTA_MURGIA_DIR",
                                      REPO_ROOT / "data" / "alta_murgia"))


def synthetic_climate(start_year: int, nyears: int, site, seed: int = 0,
                      warming: float = 0.0, latitude: float = 41.0,
                      wet: bool = False) -> sc.ClimateSeries:
    """Seasonal sinusoid climate with seeded noise and optional warming trend."""
    rng = np.random.default_rng(seed)
    m = np.arange(12)
    temps = np.empty((nyears, 12))
    rains = np.empty((nyears, 12))
    for i in range(nyears):
        temps[i] = (14.0 + warming * i + 8.0 * np.sin(2 * np.pi * (m - 3) / 12)
                    + 0.3 * rng.standard_normal(12))
        base = 120.0 if wet else 55.0
        rains[i] = base + 30.0 * np.cos(2 * np.pi * m / 12) \
            + 5.0 * rng.standard_normal(12)
    return sc.ClimateSeries.build(start_year, temps, np.clip(rains, 0.0, None),
                                  site, latitude_deg=latitude)


def below_floor(dsoc, month=30):
    """``controlled_recurrence`` with the Δsoc of state ``month`` moved to
    ``dsoc``, to patch over ``socchange._kernels.controlled_recurrence``."""
    kernel = _kernels.controlled_recurrence

    def shifted(*args):
        x = kernel(*args)
        x[month, 0] += dsoc - x[month, :4].sum()
        return x
    return shifted


def with_year(avg, name: str, n: int, value: float):
    """A copy of the averaged model ``avg`` whose per-year array ``name``
    (temps, accs or np_ratios) holds ``value`` in delta year n."""
    values = getattr(avg, name).copy()
    values[n - 1] = value
    return dataclasses.replace(avg, **{name: values})


class HandMonths(NamedTuple):
    """Per month of a site's horizon, in run order."""

    n: np.ndarray        # delta year
    month: np.ndarray    # 1..12
    dt: np.ndarray       # months
    rho: np.ndarray      # left-endpoint rate modifier
    supply: np.ndarray   # N_P ĝ
    q: np.ndarray        # ρ/(T ρ0)


def hand_cover(site, m: int) -> float:
    """The soil-cover factor of calendar month m, restated from the site's
    ratio, cover mode and schedule: under ``smooth`` the smooth factor of r;
    under ``timed`` the given schedule, else bare (1) from August to November
    at r >= 1 and vegetated (0.6) in every other month and class."""
    if site.cover_mode == "smooth":
        return sc.rate_modifier_cover_smooth(site.r, site.reference.n_bare)
    if site.cover_schedule is not None:
        return float(site.cover_schedule[m - 1])
    return 1.0 if site.r >= 1.0 and 8 <= m <= 11 else 0.6


def hand_months(site) -> HandMonths:
    """The site's months one at a time from its raw inputs: the NPP ratio
    of calendar year baseline+n, that year's climate-table row, the density's
    proportions, the scalar temperature and moisture factors and
    ``hand_cover``. An oracle for the month record that shares none of its
    code."""
    T, climate, ref = site.params.T, site.climate, site.reference
    months = []
    for n in range(1, site.horizon + 1):
        year = site.baseline_year + n
        i = year - climate.start_year
        days = climate.month_days[i]
        for m in range(1, 13):
            dt = T * days[m - 1] / days.sum()
            rho = (sc.rate_modifier_temperature(climate.temp[i, m - 1],
                                                ref.temp0)
                   * sc.rate_modifier_moisture(climate.acc[i, m - 1], ref.site)
                   * hand_cover(site, m))
            supply = site.np_ratios[year] * (site.density.proportions[m - 1]
                                             / dt)
            months.append((n, m, dt, rho, supply))
    n, month, dt, rho, supply = (np.array(v) for v in zip(*months))
    return HandMonths(n, month, dt, rho, supply,
                      rho / (T * site.baseline.rho0))


def constant_climate(start_year: int, nyears: int, site,
                     temp: float = 14.0, rain: float = 200.0) -> sc.ClimateSeries:
    """Stationary climate: every month identical, rain >> pet so acc = 0."""
    temps = np.full((nyears, 12), temp)
    rains = np.full((nyears, 12), rain)
    return sc.ClimateSeries.build(start_year, temps, rains, site,
                                  latitude_deg=41.0)


def make_scenario(r: float = 1.44, cly: float = 50.0, depth: float = 23.0,
                  baseline_year: int = 2005, horizon: int = 14,
                  seed: int = 1, warming: float = 0.05,
                  np_trend: float = 0.01, P0: float = 1.0, F0: float = 0.0,
                  climate: sc.ClimateSeries | None = None,
                  cover_mode: str = "timed",
                  fym: sc.FymPolicy | None = None,
                  land_class: str | None = None) -> sc.Scenario:
    site = sc.max_deficit(cly, depth)
    if climate is None:
        climate = synthetic_climate(baseline_year, horizon + 1, site,
                                    seed=seed, warming=warming)
    reference = sc.reference_from_climate(climate, baseline_year, site)
    params = sc.SoilParams.for_site(cly, depth, r)
    mats = sc.build_matrices(params)
    rho0 = reference.rho0(r)
    baseline = sc.BaselineState.from_inputs(P0, F0, rho0, mats, params.T)
    np_ratios = {baseline_year + n: 1.0 + np_trend * n
                 for n in range(horizon + 1)}
    density = sc.PlantInputDensity.standard(
        land_class or sc.class_for_ratio(r))
    site = sc.Site(baseline_year=baseline_year, horizon=horizon,
                   params=params, mats=mats, density=density,
                   climate=climate, reference=reference,
                   baseline=baseline, np_ratios=np_ratios,
                   cover_mode=cover_mode)
    return sc.Scenario(site, fym or sc.FymPolicy())


@pytest.fixture(scope="session")
def site50():
    return sc.max_deficit(50.0, 23.0)


@pytest.fixture(scope="session")
def arable_scenario():
    return make_scenario(r=1.44)


@pytest.fixture(scope="session")
def stationary_scenario(site50):
    """Constant climate, flat NPP: the delta forcing balances over each year."""
    climate = constant_climate(2005, 15, site50)
    return make_scenario(r=1.44, climate=climate, warming=0.0, np_trend=0.0,
                         cover_mode="smooth")


@pytest.fixture(scope="session")
def zero_forcing_scenario(site50):
    """Uniform input density over non-leap years and stationary climate:
    the monthly forcing vanishes identically, not just on annual average."""
    climate = constant_climate(2005, 3, site50)
    ndays = sc.climate.month_lengths(2006).astype(float)
    density = sc.PlantInputDensity(ndays / ndays.sum(), "arable")
    scen = make_scenario(r=1.44, climate=climate, baseline_year=2005,
                         horizon=2, warming=0.0, np_trend=0.0,
                         cover_mode="smooth")
    return sc.Scenario(sc.Site(
        baseline_year=2005, horizon=2, params=scen.params, mats=scen.mats,
        density=density, climate=climate, reference=scen.site.reference,
        baseline=scen.baseline, np_ratios=scen.site.np_ratios,
        cover_mode="smooth"))


def write_climate_csv(path: Path, climate: sc.ClimateSeries,
                      with_pet: bool = False) -> None:
    lines = ["year,month,temp_c,rain_mm" + (",pet_mm" if with_pet else "")]
    for i, year in enumerate(climate.years):
        for m in range(12):
            row = (f"{year},{m + 1},{float(climate.temp[i, m])!r},"
                   f"{float(climate.rain[i, m])!r}")
            if with_pet:
                row += f",{float(climate.pet[i, m])!r}"
            lines.append(row)
    path.write_text("\n".join(lines) + "\n")


def write_scenario_inputs(tmp_path: Path, r: float = 1.44, seed: int = 1,
                          warming: float = 0.05, np_trend: float = 0.01,
                          nyears: int = 15, baseline_year: int = 2005,
                          **config_overrides) -> Path:
    """Generate climate/NPP CSVs plus a config file; returns the config path."""
    site = sc.max_deficit(50.0, 23.0)
    climate = synthetic_climate(baseline_year, nyears, site, seed=seed,
                                warming=warming)
    write_climate_csv(tmp_path / "climate.csv", climate)
    npp_lines = ["year,npp"]
    for n in range(nyears):
        npp_lines.append(f"{baseline_year + n},{1.0 + np_trend * n!r}")
    (tmp_path / "npp.csv").write_text("\n".join(npp_lines) + "\n")
    settings = {
        "latitude_deg": 41.0,
        "clay_pct": 50.0,
        "depth_cm": 23.0,
        "baseline_year": baseline_year,
        "horizon_years": nyears - 1,
        "dpm_rpm_ratio": r,
        "climate_csv": "climate.csv",
        "npp_csv": "npp.csv",
    }
    settings.update(config_overrides)
    cfg_lines = ["# generated test scenario"]
    cfg_lines += [f"{key} = {value}" for key, value in settings.items()]
    config_path = tmp_path / "scenario.cfg"
    config_path.write_text("\n".join(cfg_lines) + "\n")
    return config_path


def alta_murgia_available() -> bool:
    return (ALTA_MURGIA_DIR / "climate.csv").exists() and \
        (ALTA_MURGIA_DIR / "npp.csv").exists()


needs_alta_murgia = pytest.mark.skipif(
    not alta_murgia_available(),
    reason="CRU/MOD17 site extracts not present under data/alta_murgia/")


def alta_murgia_scenario(r: float, horizon: int = 14, **kwargs) -> sc.Scenario:
    site = sc.max_deficit(50.0, 23.0)
    climate = sc.load_climate(ALTA_MURGIA_DIR / "climate.csv", site,
                              latitude_deg=40.75)
    np_ratios = sc.load_npp(ALTA_MURGIA_DIR / "npp.csv", 2005)
    reference = sc.reference_from_climate(climate, 2005, site)
    params = sc.SoilParams.for_site(50.0, 23.0, r)
    mats = sc.build_matrices(params)
    baseline = sc.BaselineState.from_inputs(
        kwargs.pop("P0", 1.0), kwargs.pop("F0", 0.0),
        reference.rho0(r), mats, params.T)
    density = sc.PlantInputDensity.standard(sc.class_for_ratio(r))
    return sc.Scenario(sc.Site(baseline_year=2005, horizon=horizon,
                               params=params, mats=mats, density=density,
                               climate=climate, reference=reference,
                               baseline=baseline, np_ratios=np_ratios,
                               **kwargs))
