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
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .climate import (DEFAULT_BARE_MONTHS, ClimateSeries, SiteMoisture,
                      max_deficit, reference_from_climate)
from .control import ControlSchedule
from .dynamics import (ARABLE_COVER_SCHEDULE, LAND_CLASSES, FymPolicy,
                       PlantInputDensity, Scenario, Site, class_for_ratio)
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


_INT64 = np.iinfo(np.int64)


def _parse_row(path, line_no: int, row, columns: dict[str, int],
               fields) -> list:
    """One row's (name, kind) fields parsed cell by cell, kind ``int`` or
    ``float``. Raises DataError naming the line and column of the first
    cell that is not a finite float or an int64 integer."""
    values = []
    for name, kind in fields:
        text = row[columns[name]]
        if kind is float:
            values.append(_parse_float(text, path, line_no, name))
            continue
        value = _parse_int(text, path, line_no, name)
        if not _INT64.min <= value <= _INT64.max:
            raise DataError(f"{path}: line {line_no}: {name!r} value {value} "
                            "outside the int64 range")
        values.append(value)
    return values


def _read_text(path, kind: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise DataError(f"cannot read {kind} {path}: {exc}") from None


def _header_columns(header: list[str]) -> dict[str, int]:
    return {name.strip(): i for i, name in enumerate(header)}


def _read_table(path, lines, required,
                skip: int = 0) -> tuple[dict[str, int], list]:
    """Parse CSV ``lines`` of ``path`` with a header row after ``skip``
    leading lines.

    Returns the column index of each stripped header name, and the data
    rows as (physical line number, cells) pairs, blank rows skipped. Raises
    DataError for an empty file, malformed CSV, a header without a
    ``required`` column, or a row shorter than the header.
    """
    reader = csv.reader(lines[skip:])
    try:
        header = next(reader, None)
        rows = [(reader.line_num + skip, row) for row in reader if row]
    except csv.Error as exc:
        raise DataError(f"{path}: malformed CSV: {exc}") from None
    if header is None:
        raise DataError(f"{path}: empty file")
    columns = _header_columns(header)
    if not set(required).issubset(columns):
        raise DataError(f"{path}: header must contain {list(required)}, "
                        f"got {list(columns)}")
    for line_no, row in rows:
        if len(row) < len(header):
            raise DataError(f"{path}: line {line_no}: too few columns")
    return columns, rows


_INT_COLUMNS = ("year", "month")


def _fast_table(text: str, lines: list[str], required, optional=(),
                skip: int = 0) -> Optional[dict[str, Array]]:
    """The ``required`` columns, and those of ``optional`` in the header,
    read by numpy's C ``loadtxt``: int64 for year and month, else float64.

    Returns None wherever it and the row path (``_read_table`` and the cell
    parsers) could disagree, for the row path to decide: a quote (loadtxt
    splits a quoted comma), a NUL (csv rejects one before Python 3.11), a
    line over the csv field limit, a missing column, no data row, any
    loadtxt error or warning, or a value that is not finite.
    """
    limit = csv.field_size_limit()
    if ('"' in text or "\0" in text or len(lines) <= skip
            or len(text) > limit and max(map(len, lines)) > limit):
        return None
    header = next(csv.reader(lines[skip:skip + 1]))
    columns = _header_columns(header)
    if not set(required).issubset(columns):
        return None
    names = [*required, *(name for name in optional if name in columns)]
    usecols = [columns[name] for name in names]
    dtype = [(name, np.int64 if name in _INT_COLUMNS else np.float64)
             for name in names]
    if len(header) - 1 not in usecols:   # so that a short row fails
        usecols.append(len(header) - 1)
        dtype.append(("", "U1"))
    with warnings.catch_warnings():
        # numpy < 2 reads "2000.0" into an int64 column with a warning
        warnings.simplefilter("error")
        try:
            table = np.loadtxt(lines[skip + 1:], dtype=dtype, delimiter=",",
                               comments=None, ndmin=1, usecols=usecols)
        except (ValueError, OverflowError, Warning):
            return None
    if not len(table) or not all(np.isfinite(table[name]).all()
                                 for name, kind in dtype if kind is np.float64):
        return None
    return {name: table[name] for name in names}


_CLIMATE_COLUMNS = ("year", "month", "temp_c", "rain_mm")
_CLIMATE_OPTIONAL = ("pet_mm", "daylength_h")


def _climate_grid(path, table):
    """(start year, {name: (nyears, 12) array}) from a climate table in
    file order.

    Returns None if a year or month is out of range or repeated, for the
    row path to name the row, and raises DataError at the first gap.
    """
    year, month = table["year"], table["month"]
    if not (np.all((year >= 1) & (year <= 9999))
            and np.all((month >= 1) & (month <= 12))):
        return None
    cells = year * 12 + month - 1     # months since year 0
    order = np.argsort(cells, kind="stable")
    cells = cells[order]
    if np.any(cells[1:] == cells[:-1]):
        return None
    # whole contiguous years: the k-th month in calendar order is k months
    # after January of the first year, and the count is a multiple of 12;
    # as the cells are sorted and distinct, the first gap is the number of
    # months in place
    start_year = int(cells[0]) // 12
    gap = int(np.sum(cells == start_year * 12 + np.arange(len(cells))))
    if gap < len(cells) or gap % 12:
        raise DataError(f"{path}: gap at {start_year + gap // 12}-"
                        f"{gap % 12 + 1:02d}")
    return start_year, {name: column[order].reshape(-1, 12)
                        for name, column in table.items()
                        if name not in _INT_COLUMNS}


def _climate_by_rows(path, lines) -> dict[str, Array]:
    """The climate table of ``_fast_table``, read row by row, raising
    DataError at the first row that is bad or repeats a month."""
    columns, rows = _read_table(path, lines, _CLIMATE_COLUMNS)
    names = [name for name in _CLIMATE_COLUMNS + _CLIMATE_OPTIONAL
             if name in columns]
    fields = [(name, float) for name in names[2:]]
    seen = set()   # months since year 0
    table = []
    for line_no, row in rows:
        year = _parse_int(row[columns["year"]], path, line_no, "year")
        month = _parse_int(row[columns["month"]], path, line_no, "month")
        if not 1 <= year <= 9999:   # the datetime range
            raise DataError(f"{path}: line {line_no}: 'year' value {year} "
                            "outside 1..9999")
        if not 1 <= month <= 12:
            raise DataError(f"{path}: line {line_no}: month {month} outside 1..12")
        if year * 12 + month - 1 in seen:
            raise DataError(f"{path}: line {line_no}: duplicate month "
                            f"{year}-{month:02d}")
        seen.add(year * 12 + month - 1)
        table.append([year, month,
                      *_parse_row(path, line_no, row, columns, fields)])
    if not table:
        raise DataError(f"{path}: no data rows")
    return {name: np.array(column) for name, column in zip(names, zip(*table))}


def load_climate(path, site: SiteMoisture,
                 latitude_deg: Optional[float] = None) -> ClimateSeries:
    """Load a monthly climate CSV and derive PET (if absent) and deficits.

    Expected header: year,month,temp_c,rain_mm[,pet_mm][,daylength_h].
    The series must cover whole contiguous years. The table is read whole;
    only a file that ``_fast_table`` declines, or that fails a row check,
    is read again row by row, so the error names the first bad line.
    """
    text = _read_text(path, "climate file")
    lines = text.splitlines()
    table = _fast_table(text, lines, _CLIMATE_COLUMNS, _CLIMATE_OPTIONAL)
    grid = None if table is None else _climate_grid(path, table)
    start_year, grid = grid or _climate_grid(path, _climate_by_rows(path, lines))
    return ClimateSeries.build(start_year, grid["temp_c"], grid["rain_mm"],
                               site, pet=grid.get("pet_mm"),
                               latitude_deg=latitude_deg,
                               day_lengths_h=grid.get("daylength_h"))


def load_npp(path, baseline_year: int) -> dict[int, float]:
    """Load annual NPP and normalize by the baseline year (ratio 1 there)."""
    text = _read_text(path, "NPP file")
    lines = text.splitlines()
    table = _fast_table(text, lines, ("year", "npp"))
    if table is not None:
        values = dict(zip(table["year"].tolist(), table["npp"].tolist()))
    if table is None or len(values) < len(table["year"]):   # a repeated year
        columns, rows = _read_table(path, lines, ("year", "npp"))
        values = {}
        for line_no, row in rows:
            year = _parse_int(row[columns["year"]], path, line_no, "year")
            if year in values:
                raise DataError(f"{path}: line {line_no}: duplicate year {year}")
            values[year] = _parse_float(row[columns["npp"]], path, line_no,
                                        "npp")
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
    lines = _read_text(path, "density table").splitlines()
    columns, rows = _read_table(path, lines, ("month",))
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
               "soc_active_tc_ha", "fym_baseline_tc_ha_yr", "sensitivity_dt")
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
    moisture = max_deficit(config.clay_pct, config.depth_cm)
    climate = load_climate(config.resolve(config.climate_csv), moisture,
                           latitude_deg=config.latitude_deg)
    reference = reference_from_climate(climate, config.baseline_year, moisture,
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

    site = Site(baseline_year=config.baseline_year,
                horizon=config.horizon_years, params=params, mats=mats,
                density=density, climate=climate, reference=reference,
                baseline=baseline, np_ratios=np_ratios,
                cover_mode=config.cover_mode, cover_schedule=cover_schedule)
    return Scenario(site, FymPolicy(config.fym_mode, config.fym_monthly_tc_ha))


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


_TRAJECTORY_COLUMNS = ("year", "month", "t_months", "dpm", "rpm", "bio",
                       "hum", "total")


def read_trajectory(path) -> Trajectory:
    """Reload a trajectory CSV written by write_trajectory.

    Raises DataError naming the line and column of a short row, or of a
    cell that is not a finite number of its column's kind.
    """
    text = _read_text(path, "trajectory")
    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].startswith("#"):
        raise DataError(f"{path}: not a trajectory file")
    meta: dict = {}
    for token in lines[0].lstrip("# ").split():
        key, _, value = token.partition("=")
        meta[key] = value
    table = _fast_table(text, lines, _TRAJECTORY_COLUMNS, skip=1)
    if table is None:
        columns, rows = _read_table(path, lines, _TRAJECTORY_COLUMNS, skip=1)
        fields = [(name, int if name in _INT_COLUMNS else float)
                  for name in _TRAJECTORY_COLUMNS]
        parsed = [_parse_row(path, line_no, row, columns, fields)
                  for line_no, row in rows]
        table = {name: np.array([row[i] for row in parsed], dtype=kind)
                 for i, (name, kind) in enumerate(fields)}
    year, month, t, *pools, totals = table.values()
    return Trajectory(t=t, year=year, month=month,
                      states=np.column_stack(pools),
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
