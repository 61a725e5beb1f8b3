"""CSV ingestion, scenario configuration, and deterministic result output.

All loaders raise structured errors (never crash on malformed input) with
line numbers where applicable; writers emit byte-deterministic CSV with a
single metadata comment line and full round-trip float precision.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .climate import (DEFAULT_BARE_MONTHS, ClimateSeries, SiteMoisture,
                      max_deficit, reference_from_climate)
from .control import ControlSchedule
from .dynamics import (ARABLE_COVER_SCHEDULE, LAND_CLASSES, FymPolicy,
                       PlantInputDensity, Scenario, class_for_ratio)
from .equilibrium import BaselineState
from .errors import ConfigError, DataError, NumericsError
from .pools import DEFAULT_ETA, SoilParams, build_matrices
from .sensitivity import DEFAULT_SENSITIVITY_DT, SensitivitySeries
from .stepping import Trajectory

Array = np.ndarray


def _parse_float(text: str, path, line_no: int, column: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise DataError(
            f"{path}: line {line_no}: non-numeric {column!r} value {text!r}") from None
    if not math.isfinite(value):
        raise DataError(
            f"{path}: line {line_no}: non-finite {column!r} value {text!r}")
    return value


def _parse_int(text: str, path, line_no: int, column: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise DataError(
            f"{path}: line {line_no}: non-integer {column!r} value {text!r}") from None


def _read_table(path, kind: str, required) -> tuple[dict[str, int], list]:
    """Read a CSV table with a header row.

    Returns the column index of each stripped header name, and the data
    rows as (line number, cells) pairs, blank rows skipped. Raises
    DataError for an unreadable or empty file, malformed CSV, a header
    without a ``required`` column, or a row shorter than the header.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise DataError(f"cannot read {kind} {path}: {exc}") from None
    reader = csv.reader(text.splitlines())
    try:
        header = next(reader, None)
        rows = [(reader.line_num, row) for row in reader if row]
    except csv.Error as exc:
        raise DataError(f"{path}: malformed CSV: {exc}") from None
    if header is None:
        raise DataError(f"{path}: empty file")
    columns = {name.strip(): i for i, name in enumerate(header)}
    if not set(required).issubset(columns):
        raise DataError(f"{path}: header must contain {list(required)}, "
                        f"got {list(columns)}")
    for line_no, row in rows:
        if len(row) < len(header):
            raise DataError(f"{path}: line {line_no}: too few columns")
    return columns, rows


def load_climate(path, site: SiteMoisture,
                 latitude_deg: Optional[float] = None) -> ClimateSeries:
    """Load a monthly climate CSV and derive PET (if absent) and deficits.

    Expected header: year,month,temp_c,rain_mm[,pet_mm][,daylength_h].
    The series must cover whole contiguous years.
    """
    columns, rows = _read_table(path, "climate file",
                                ("year", "month", "temp_c", "rain_mm"))
    names = [name for name in ("temp_c", "rain_mm", "pet_mm", "daylength_h")
             if name in columns]
    cells: dict[int, int] = {}   # months since year 0 -> row of values
    values = []
    for line_no, row in rows:
        year = _parse_int(row[columns["year"]], path, line_no, "year")
        month = _parse_int(row[columns["month"]], path, line_no, "month")
        if not 1 <= month <= 12:
            raise DataError(f"{path}: line {line_no}: month {month} outside 1..12")
        if year * 12 + month - 1 in cells:
            raise DataError(f"{path}: line {line_no}: duplicate month "
                            f"{year}-{month:02d}")
        cells[year * 12 + month - 1] = len(values)
        values.append([_parse_float(row[columns[name]], path, line_no, name)
                       for name in names])
    if not values:
        raise DataError(f"{path}: no data rows")
    # whole contiguous years: the k-th month in calendar order is k months
    # after January of the first year, and the count is a multiple of 12
    start_year = min(cells) // 12
    order = sorted(cells)
    gap = next((k for k, cell in enumerate(order)
                if cell != start_year * 12 + k), len(order))
    if gap < len(order) or gap % 12:
        raise DataError(f"{path}: gap at {start_year + gap // 12}-"
                        f"{gap % 12 + 1:02d}")
    table = np.array(values)[[cells[cell] for cell in order]]
    grid = dict(zip(names, table.T.reshape(len(names), -1, 12)))
    return ClimateSeries.build(start_year, grid["temp_c"], grid["rain_mm"],
                               site, pet=grid.get("pet_mm"),
                               latitude_deg=latitude_deg,
                               day_lengths_h=grid.get("daylength_h"))


def load_npp(path, baseline_year: int) -> dict[int, float]:
    """Load annual NPP and normalize by the baseline year (ratio 1 there)."""
    columns, rows = _read_table(path, "NPP file", ("year", "npp"))
    values: dict[int, float] = {}
    for line_no, row in rows:
        year = _parse_int(row[columns["year"]], path, line_no, "year")
        if year in values:
            raise DataError(f"{path}: line {line_no}: duplicate year {year}")
        values[year] = _parse_float(row[columns["npp"]], path, line_no, "npp")
    if baseline_year not in values:
        raise DataError(f"{path}: baseline year {baseline_year} missing")
    base = values[baseline_year]
    if base == 0:
        raise DataError(f"{path}: baseline NPP is zero, ratios undefined")
    return {year: v / base for year, v in values.items()}


def load_density_table(path):
    """Load plant-input densities and cover schedules keyed by land class.

    Expected header: month,forest,grassland,arable plus optional cover_<class>
    columns, each cover factor in (0, 1]; rows may appear in any order
    (keyed by month). Returns (densities, covers) dicts.
    """
    columns, rows = _read_table(path, "density table", ("month",))
    classes = [c for c in LAND_CLASSES if c in columns]
    if not classes:
        raise DataError(f"{path}: no land-class columns found")
    cover_cols = [name for name in columns if name.startswith("cover_")]
    dens = {c: np.full(12, np.nan) for c in classes}
    covers = {c.removeprefix("cover_"): np.full(12, np.nan) for c in cover_cols}
    seen = set()
    for line_no, row in rows:
        m = _parse_int(row[columns["month"]], path, line_no, "month")
        if not 1 <= m <= 12:
            raise DataError(f"{path}: line {line_no}: month {m} outside 1..12")
        if m in seen:
            raise DataError(f"{path}: line {line_no}: duplicate month {m}")
        seen.add(m)
        for c in classes:
            dens[c][m - 1] = _parse_float(row[columns[c]], path, line_no, c)
        for col in cover_cols:
            cover = _parse_float(row[columns[col]], path, line_no, col)
            if not 0.0 < cover <= 1.0:
                raise DataError(f"{path}: line {line_no}: {col!r} value "
                                f"{cover!r} outside (0, 1]")
            covers[col.removeprefix("cover_")][m - 1] = cover
    if len(seen) != 12:
        missing = sorted(set(range(1, 13)) - seen)
        raise DataError(f"{path}: missing month {missing[0]}")
    densities = {}
    for c in classes:
        try:
            densities[c] = PlantInputDensity(dens[c], c)
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from None
    return densities, covers


@dataclass
class ScenarioConfig:
    """Flat key=value scenario configuration with units in the key names."""

    clay_pct: float
    depth_cm: float
    baseline_year: int
    horizon_years: int
    dpm_rpm_ratio: float
    climate_csv: str
    npp_csv: str
    latitude_deg: Optional[float] = None
    land_class: Optional[str] = None
    bare_months: float = DEFAULT_BARE_MONTHS
    eta: float = DEFAULT_ETA
    plant_input_tc_ha_yr: Optional[float] = None
    soc_active_tc_ha: Optional[float] = None
    fym_baseline_tc_ha_yr: float = 0.0
    epsilon: Optional[float] = None
    fym_mode: str = "none"
    fym_monthly_tc_ha: Optional[list] = None
    cover_mode: str = "timed"
    scheme: str = "nonstandard"
    sensitivity_dt: float = DEFAULT_SENSITIVITY_DT
    density_csv: Optional[str] = None
    base_dir: Path = field(default_factory=Path)

    def resolve(self, name: str) -> Path:
        p = Path(name)
        return p if p.is_absolute() else self.base_dir / p


_REQUIRED_KEYS = ("clay_pct", "depth_cm", "baseline_year", "horizon_years",
                  "dpm_rpm_ratio", "climate_csv", "npp_csv")

_FLOAT_KEYS = ("clay_pct", "depth_cm", "dpm_rpm_ratio", "latitude_deg",
               "bare_months", "eta", "plant_input_tc_ha_yr",
               "soc_active_tc_ha", "fym_baseline_tc_ha_yr", "epsilon",
               "sensitivity_dt")
_INT_KEYS = ("baseline_year", "horizon_years")
_STR_KEYS = ("climate_csv", "npp_csv", "density_csv", "land_class",
             "fym_mode", "cover_mode", "scheme")


def load_config(path) -> ScenarioConfig:
    """Parse the flat key = value config format (# comments allowed)."""
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    raw: dict[str, str] = {}
    for line_no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}: line {line_no}: expected key = value")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key in raw:
            raise ConfigError(f"{path}: line {line_no}: duplicate key {key!r}")
        raw[key] = value
    missing = [k for k in _REQUIRED_KEYS if k not in raw]
    if missing:
        raise ConfigError(f"{path}: missing required keys: {', '.join(missing)}")
    kwargs: dict = {"base_dir": path.parent}
    for key, value in raw.items():
        if key in _FLOAT_KEYS:
            try:
                kwargs[key] = float(value)
            except ValueError:
                raise ConfigError(f"{path}: key {key!r}: non-numeric value "
                                  f"{value!r}") from None
        elif key in _INT_KEYS:
            try:
                kwargs[key] = int(value)
            except ValueError:
                raise ConfigError(f"{path}: key {key!r}: non-integer value "
                                  f"{value!r}") from None
        elif key == "fym_monthly_tc_ha":
            try:
                kwargs[key] = [float(v) for v in value.split(",")]
            except ValueError:
                raise ConfigError(f"{path}: key {key!r}: expected 12 "
                                  f"comma-separated numbers") from None
        elif key in _STR_KEYS:
            kwargs[key] = value
        else:
            raise ConfigError(f"{path}: unknown key {key!r}")
        if key in _FLOAT_KEYS + ("fym_monthly_tc_ha",) and not np.all(
                np.isfinite(kwargs[key])):
            raise ConfigError(f"{path}: key {key!r}: non-finite value "
                              f"{value!r}")
    return ScenarioConfig(**kwargs)


def build_scenario(config: ScenarioConfig) -> Scenario:
    """Assemble a full Scenario from a parsed configuration."""
    r = config.dpm_rpm_ratio
    if r < 0:
        raise ConfigError(f"dpm_rpm_ratio must be >= 0, got {r}")
    params = SoilParams.for_site(config.clay_pct, config.depth_cm, r,
                                 eta=config.eta)
    mats = build_matrices(params)
    site = max_deficit(config.clay_pct, config.depth_cm)
    climate = load_climate(config.resolve(config.climate_csv), site,
                           latitude_deg=config.latitude_deg)
    reference = reference_from_climate(climate, config.baseline_year, site,
                                       n_bare=config.bare_months)
    np_ratios = load_npp(config.resolve(config.npp_csv), config.baseline_year)

    land_class = config.land_class or class_for_ratio(r)
    cover_schedule = ARABLE_COVER_SCHEDULE.copy()
    if config.density_csv is not None:
        densities, covers = load_density_table(config.resolve(config.density_csv))
        if land_class not in densities:
            raise ConfigError(f"density table lacks class {land_class!r}")
        density = densities[land_class]
        if land_class in covers:
            cover_schedule = covers[land_class]
    else:
        density = PlantInputDensity.standard(land_class)

    rho0 = reference.rho0(r) if r > 0 else reference.kb0 * 0.6
    f0_total = config.fym_baseline_tc_ha_yr
    if config.soc_active_tc_ha is not None:
        if config.plant_input_tc_ha_yr is not None:
            raise ConfigError("give either plant_input_tc_ha_yr or "
                              "soc_active_tc_ha, not both")
        baseline = BaselineState.from_active_soc(config.soc_active_tc_ha,
                                                 f0_total, rho0, mats, params)
    else:
        p0 = 1.0 if config.plant_input_tc_ha_yr is None else config.plant_input_tc_ha_yr
        baseline = BaselineState.from_inputs(p0, f0_total, rho0, mats, params.T)

    if config.fym_mode == "fixed":
        if config.fym_monthly_tc_ha is None or len(config.fym_monthly_tc_ha) != 12:
            raise ConfigError("fixed FYM mode needs fym_monthly_tc_ha with 12 values")
        fym = FymPolicy(mode="fixed",
                        monthly_density=np.array(config.fym_monthly_tc_ha))
    elif config.fym_mode == "controlled":
        eps = baseline.epsilon if config.epsilon is None else config.epsilon
        fym = FymPolicy(mode="controlled", epsilon=eps)
    elif config.fym_mode == "none":
        fym = FymPolicy()
    else:
        raise ConfigError(f"unknown fym_mode {config.fym_mode!r}")

    return Scenario(baseline_year=config.baseline_year,
                    horizon=config.horizon_years, params=params, mats=mats,
                    density=density, climate=climate, reference=reference,
                    baseline=baseline, np_ratios=np_ratios, fym=fym,
                    cover_mode=config.cover_mode,
                    cover_schedule=cover_schedule)


def scenario_digest(meta: dict) -> str:
    """Short deterministic identifier for a run's metadata."""
    canon = json.dumps({k: v for k, v in sorted(meta.items())
                        if not isinstance(v, np.ndarray)},
                       sort_keys=True, default=str)
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def _meta_line(kind: str, meta: dict) -> str:
    pairs = " ".join(f"{k}={meta[k]}" for k in sorted(meta)
                     if not isinstance(meta[k], np.ndarray))
    return (f"# socchange={__version__} kind={kind} scenario={scenario_digest(meta)}"
            + (f" {pairs}" if pairs else ""))


def write_trajectory(path, trajectory: Trajectory) -> None:
    """Trajectory CSV: year,month,t_months,dpm,rpm,bio,hum,total."""
    _write_csv(path, _meta_line("trajectory", trajectory.meta),
               "year,month,t_months,dpm,rpm,bio,hum,total",
               trajectory.year.astype(int), trajectory.month.astype(int),
               trajectory.t, *trajectory.states.T, trajectory.totals)


def read_trajectory(path) -> Trajectory:
    """Reload a trajectory CSV written by write_trajectory."""
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise DataError(f"cannot read trajectory {path}: {exc}") from None
    if len(lines) < 2 or not lines[0].startswith("#"):
        raise DataError(f"{path}: not a trajectory file")
    meta: dict = {}
    for token in lines[0].lstrip("# ").split():
        key, _, value = token.partition("=")
        meta[key] = value
    rows = [line.split(",") for line in lines[2:] if line]
    year = np.array([int(r[0]) for r in rows])
    month = np.array([int(r[1]) for r in rows])
    t = np.array([float(r[2]) for r in rows])
    states = np.array([[float(v) for v in r[3:7]] for r in rows])
    totals = np.array([float(r[7]) for r in rows])
    if states.size == 0:
        states = states.reshape(0, 4)
    return Trajectory(t=t, year=year, month=month, states=states,
                      totals=totals, scheme=meta.get("scheme", ""),
                      mode=meta.get("mode", ""), meta=meta)


def write_sensitivity(path, series: SensitivitySeries) -> None:
    """Sensitivity CSV: t,s1,s2,s3,s4,s_dsoc."""
    _write_csv(path, _meta_line("sensitivity", series.meta),
               "t,s1,s2,s3,s4,s_dsoc", series.t, *series.s.T, series.s_dsoc)


def write_control(path, schedule: ControlSchedule) -> None:
    """Control CSV: year,month,f0,f,cumulative manure (t C ha^-1)."""
    meta = {"epsilon": schedule.epsilon, "hold": schedule.meta.get("hold"),
            "F0": schedule.meta.get("F0")}
    _write_csv(path, _meta_line("control", meta), "year,month,f0,f,cumulative",
               schedule.year.astype(int), schedule.month.astype(int),
               schedule.f0, schedule.f,
               np.cumsum(schedule.f * schedule.meta["dt"]))


_WRITE_BLOCK_ROWS = 2048


def _write_csv(path, meta_line: str, header: str, *columns: Array) -> None:
    """Write one row per sample: integer columns as integers, floats as the
    shortest decimal that round-trips exactly.

    Rows are formatted and written in blocks of ``_WRITE_BLOCK_ROWS``, so
    memory does not grow with the row count. Raises NumericsError, before
    the file is opened, if a value is not finite.
    """
    path = Path(path)
    if not all(np.all(np.isfinite(column)) for column in columns):
        raise NumericsError(f"non-finite value in the output for {path}; "
                            "nothing written")
    try:
        with path.open("w") as out:
            out.write(f"{meta_line}\n{header}\n")
            for start in range(0, len(columns[0]), _WRITE_BLOCK_ROWS):
                rows = zip(*(column[start:start + _WRITE_BLOCK_ROWS].tolist()
                             for column in columns))
                out.write("\n".join(",".join(map(repr, row)) for row in rows)
                          + "\n")
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from None
