"""Seeded input generator: climate, NPP and scenario config files per site.

Categorical site properties follow fixed shares of the site index (never a
random draw), so every seed gives the same mix of code paths and the same
shape of op-time distribution; the seed only moves the continuous values
(latitude, clay, climate and NPP series, inputs). Files are written with
fixed-precision formatting, so one seed always gives byte-identical files.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

RATIOS = (0.25, 0.67, 1.44)   # forest, grassland, arable via class_for_ratio

# ensemble pool: 24 sites; each share below is 1/4, 1/3 or 3/8, never 1/2
ENSEMBLE_SITES = 24
ENSEMBLE_BASELINE_YEAR = 2000
ENSEMBLE_HORIZON = 100

# fine_grid pool: the demo's 14-year horizon, one site per land class, twice
FINE_SITES = 6
FINE_BASELINE_YEAR = 2005
FINE_HORIZON = 14


def ensemble_properties(i: int) -> dict:
    """Categorical properties of ensemble site i (fixed shares, no draws)."""
    return {
        "dpm_rpm_ratio": RATIOS[i % 3],
        "pet": (i // 2) % 4 == 1,                  # 6/24: bypasses Thornthwaite
        "cover_mode": "smooth" if i % 8 in (1, 4, 6) else "timed",   # 9/24
        "soc_active": (i // 3) % 3 == 0,           # 9/24: reverse-mode baseline
        "fym_mode": "controlled" if (i // 4) % 3 == 1 else "fixed",  # 8/24
    }


def fine_properties(i: int) -> dict:
    return {"dpm_rpm_ratio": RATIOS[i % 3], "pet": False,
            "cover_mode": "timed", "soc_active": False, "fym_mode": "none"}


def _climate_rows(rng, start_year: int, nyears: int, with_pet: bool):
    mean = rng.uniform(9.0, 17.0)
    amplitude = rng.uniform(5.0, 10.0)
    warming = rng.uniform(0.0, 0.04)
    rain_base = rng.uniform(40.0, 110.0)
    m = np.arange(12)
    rows = []
    for y in range(nyears):
        temp = (mean + warming * y + amplitude * np.sin(2 * np.pi * (m - 3) / 12)
                + 0.5 * rng.standard_normal(12))
        rain = np.clip(rain_base + 30.0 * np.cos(2 * np.pi * m / 12)
                       + 8.0 * rng.standard_normal(12), 0.0, None)
        pet = np.clip(15.0 + 5.0 * (temp - 2.0), 1.0, None)
        for k in range(12):
            cells = [str(start_year + y), str(k + 1), f"{temp[k]:.4f}",
                     f"{rain[k]:.3f}"]
            if with_pet:
                cells.append(f"{pet[k]:.3f}")
            rows.append(",".join(cells))
    header = "year,month,temp_c,rain_mm" + (",pet_mm" if with_pet else "")
    return [header] + rows


def _npp_rows(rng, start_year: int, nyears: int):
    base = rng.uniform(400.0, 700.0)
    trend = rng.uniform(-0.003, 0.01)
    rows = ["year,npp"]
    for y in range(nyears):
        value = base * (1.0 + trend * y) * (1.0 + 0.03 * rng.standard_normal())
        rows.append(f"{start_year + y},{value:.3f}")
    return rows


def write_site(directory: Path, i: int, rng, props: dict, baseline_year: int,
               horizon: int) -> Path:
    """Write site i's climate, NPP and config files; return the config path."""
    name = f"site{i:02d}"
    nyears = horizon + 1
    climate = _climate_rows(rng, baseline_year, nyears, props["pet"])
    npp = _npp_rows(rng, baseline_year, nyears)
    (directory / f"{name}_climate.csv").write_text("\n".join(climate) + "\n")
    (directory / f"{name}_npp.csv").write_text("\n".join(npp) + "\n")
    cfg = [
        f"latitude_deg = {rng.uniform(30.0, 55.0):.3f}",
        f"clay_pct = {rng.uniform(10.0, 60.0):.2f}",
        f"depth_cm = {rng.choice([23, 30])}",
        f"baseline_year = {baseline_year}",
        f"horizon_years = {horizon}",
        f"dpm_rpm_ratio = {props['dpm_rpm_ratio']}",
        f"cover_mode = {props['cover_mode']}",
        f"climate_csv = {name}_climate.csv",
        f"npp_csv = {name}_npp.csv",
        f"fym_baseline_tc_ha_yr = {rng.uniform(0.2, 0.8):.3f}",
    ]
    if props["soc_active"]:
        cfg.append(f"soc_active_tc_ha = {rng.uniform(15.0, 45.0):.3f}")
    else:
        cfg.append(f"plant_input_tc_ha_yr = {rng.uniform(0.8, 3.0):.3f}")
    cfg.append(f"fym_mode = {props['fym_mode']}")
    if props["fym_mode"] == "fixed":
        monthly = rng.uniform(0.0, 0.08, 12)
        cfg.append("fym_monthly_tc_ha = " + ",".join(f"{v:.4f}" for v in monthly))
    path = directory / f"{name}.cfg"
    path.write_text("\n".join(cfg) + "\n")
    return path


def generate(directory, workload: str, seed: int, nsites: int | None = None):
    """Write a workload's site pool into ``directory``; return config paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if workload == "ensemble":
        props, year, horizon = ensemble_properties, ENSEMBLE_BASELINE_YEAR, ENSEMBLE_HORIZON
        nsites = ENSEMBLE_SITES if nsites is None else nsites
    elif workload == "fine_grid":
        props, year, horizon = fine_properties, FINE_BASELINE_YEAR, FINE_HORIZON
        nsites = FINE_SITES if nsites is None else nsites
    else:
        raise ValueError(f"no generated inputs for workload {workload!r}")
    rng = np.random.default_rng(seed)
    return [write_site(directory, i, rng, props(i), year, horizon)
            for i in range(nsites)]
