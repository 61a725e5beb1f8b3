"""CSV ingestion, scenario configuration, and deterministic result output.

All loaders raise structured errors (never crash on malformed input) with
line numbers where applicable; writers emit byte-deterministic CSV with a
single metadata comment line and every float exactly as Python's ``repr``
prints it, the shortest decimal that round-trips, produced for whole blocks
by ``_floatfmt`` (the tests hold it to ``repr`` itself).
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from ._floatfmt import EXACT_INT, format_rows
from .climate import (DEFAULT_BARE_MONTHS, ClimateSeries, SiteMoisture,
                      max_deficit, reference_from_climate)
from .control import ControlSchedule
from .dynamics import (LAND_CLASSES, FymPolicy, PlantInputDensity, Scenario,
                       Site, class_for_ratio)
from .equilibrium import BaselineState
from .errors import ConfigError, DataError, NumericsError, writing
from .pools import DEFAULT_ETA, SoilParams, build_matrices
from .sensitivity import SensitivitySeries
from .stepping import Trajectory

Array = np.ndarray


_INT64 = np.iinfo(np.int64)
_INT_COLUMNS = ("year", "month")


def _read_text(path, kind: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise DataError(f"cannot read {kind} {path}: {exc}") from None


def _header_columns(header: list[str]) -> dict[str, int]:
    return {name.strip(): i for i, name in enumerate(header)}


def _fast_table(text: str, lines: list[str], required, optional=(),
                skip: int = 0) -> Optional[dict[str, Array]]:
    """The ``required`` columns, and those of ``optional`` in the header,
    read by numpy's C ``loadtxt``: int64 for year and month, else float64.

    Returns None wherever it and the row parser (``_parse_rows``) could
    disagree, for the row parser to decide: a quote (loadtxt splits a quoted
    comma), a NUL (csv rejects one before Python 3.11), a line over the csv
    field limit, a missing column, no data row, any loadtxt error or
    warning, or a value that is not finite.
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


def _cell(name: str, text: str):
    """A year or month cell as an int, any other as a finite float; raises
    ValueError naming the column and the text."""
    kind = "integer" if name in _INT_COLUMNS else "numeric"
    try:
        value = int(text) if name in _INT_COLUMNS else float(text)
    except ValueError:
        raise ValueError(f"non-{kind} {name!r} value {text!r}") from None
    if kind == "numeric" and not math.isfinite(value):
        raise ValueError(f"non-finite {name!r} value {text!r}")
    return value


def _parse_rows(path, lines: list[str], required, optional=(), skip: int = 0):
    """``_read_columns`` by csv and Python's ``int`` and ``float``, row by
    row up to the first bad cell; an integer column that overflows int64
    holds Python ints. Raises DataError for an empty file, malformed CSV, a
    header without a ``required`` column, or a row shorter than the header.
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
    names = [*required, *(name for name in optional if name in columns)]
    parsed, error = [], None
    for line_no, row in rows:
        try:
            parsed.append([_cell(name, row[columns[name]]) for name in names])
        except ValueError as exc:
            error = DataError(f"{path}: line {line_no}: {exc}")
            break
    table = {}
    for i, name in enumerate(names):
        values = [row[i] for row in parsed]
        try:
            table[name] = np.array(values, dtype=np.int64 if name in
                                   _INT_COLUMNS else np.float64)
        except OverflowError:   # Python ints, for a row rule to name
            table[name] = np.array(values, dtype=object)
    return table, [line_no for line_no, _ in rows[:len(parsed)]], error


def _read_columns(path, text: str, required, optional=(), skip: int = 0):
    """The ``required`` columns of the CSV ``text`` of ``path``, whose
    header row follows ``skip`` leading lines, and those of ``optional`` in
    the header: int64 for year and month (or ints past int64), else float64.

    Returns (columns, line_nos, error): the physical line of each data row,
    and the DataError of the first cell that is not a number of its
    column's kind, or None; the columns stop before that cell's row. Only a
    text that ``_fast_table`` declines is parsed row by row.
    """
    lines = text.splitlines()
    table = _fast_table(text, lines, required, optional, skip)
    if table is None:
        return _parse_rows(path, lines, required, optional, skip)
    count = len(lines) - skip - 1
    if len(table[required[0]]) == count:   # no line was empty
        return table, range(skip + 2, skip + 2 + count), None
    # loadtxt skips the empty lines, as csv does
    return table, [n for n, line in enumerate(lines[skip + 1:], skip + 2)
                   if line], None


def _check_rows(path, line_nos, rules, error=None) -> None:
    """Raise DataError at the first line, in file order, that a rule
    rejects, else the reader's pending cell ``error``. A rule is (mask of
    the rejected rows, message template, the columns that fill it on that
    row); on a line that several rules reject, the first one is named."""
    faults = [(int(np.argmax(bad)), k) for k, (bad, _, _) in enumerate(rules)
              if bad.any()]
    if faults:
        i, k = min(faults)
        _, message, columns = rules[k]
        raise DataError(f"{path}: line {line_nos[i]}: "
                        + message.format(*(c.tolist()[i] for c in columns)))
    if error is not None:
        raise error


def _repeated(keys: Array) -> Array:
    """Mask of the rows whose key is on an earlier row."""
    order = np.argsort(keys, kind="stable")   # equal keys in file order
    ranked = keys[order]
    repeated = np.zeros(len(keys), dtype=bool)
    repeated[order[1:][ranked[1:] == ranked[:-1]]] = True
    return repeated


def _year_rule(year: Array):
    return ((year < 1) | (year > 9999),   # the datetime range
            "'year' value {} outside 1..9999", (year,))


def _month_rule(month: Array):
    return (month < 1) | (month > 12), "month {} outside 1..12", (month,)


_CLIMATE_COLUMNS = ("year", "month", "temp_c", "rain_mm")
_CLIMATE_OPTIONAL = ("pet_mm", "daylength_h")


def load_climate(path, site: SiteMoisture,
                 latitude_deg: Optional[float] = None) -> ClimateSeries:
    """Load a monthly climate CSV and derive PET (if absent) and deficits.

    Expected header: year,month,temp_c,rain_mm[,pet_mm][,daylength_h].
    The rows may come in any order, and must cover whole contiguous years.
    """
    table, line_nos, error = _read_columns(
        path, _read_text(path, "climate file"), _CLIMATE_COLUMNS,
        _CLIMATE_OPTIONAL)
    year, month = table["year"], table["month"]
    cells = year * 12 + month - 1     # months since year 0
    _check_rows(path, line_nos, [
        _year_rule(year),
        _month_rule(month),
        (_repeated(cells), "duplicate month {}-{:02d}", (year, month)),
    ], error)
    if not len(cells):
        raise DataError(f"{path}: no data rows")
    # whole contiguous years: the k-th month in calendar order is k months
    # after January of the first year, and the count is a multiple of 12;
    # as the cells are sorted and distinct, the first gap is the number of
    # months in place
    order = np.argsort(cells)
    cells = cells[order]
    start_year = int(cells[0]) // 12
    gap = int(np.sum(cells == start_year * 12 + np.arange(len(cells))))
    if gap < len(cells) or gap % 12:
        raise DataError(f"{path}: gap at {start_year + gap // 12}-"
                        f"{gap % 12 + 1:02d}")
    grid = {name: column[order].reshape(-1, 12)
            for name, column in table.items() if name not in _INT_COLUMNS}
    return ClimateSeries.build(start_year, grid["temp_c"], grid["rain_mm"],
                               site, pet=grid.get("pet_mm"),
                               latitude_deg=latitude_deg,
                               day_lengths_h=grid.get("daylength_h"))


def load_npp(path, baseline_year: int) -> dict[int, float]:
    """Load annual NPP and normalize by the baseline year (ratio 1 there)."""
    table, line_nos, error = _read_columns(path, _read_text(path, "NPP file"),
                                           ("year", "npp"))
    year = table["year"]
    _check_rows(path, line_nos, [
        _year_rule(year),
        (_repeated(year), "duplicate year {}", (year,)),
    ], error)
    values = dict(zip(year.tolist(), table["npp"].tolist()))
    if baseline_year not in values:
        raise DataError(f"{path}: baseline year {baseline_year} missing")
    base = values[baseline_year]
    if not base > 0:
        raise DataError(f"{path}: baseline NPP {base!r} for {baseline_year} "
                        "is not above zero, ratios undefined")
    return {year: v / base for year, v in values.items()}


_COVER_COLUMNS = tuple(f"cover_{c}" for c in LAND_CLASSES)


def load_density_table(path):
    """Load plant-input densities and cover schedules keyed by land class.

    Expected header: month plus any of forest,grassland,arable and of the
    cover_<class> columns of those classes, each cover factor in (0, 1];
    other columns are ignored. Rows may appear in any order (keyed by
    month). Returns (densities, covers) dicts.
    """
    table, line_nos, error = _read_columns(
        path, _read_text(path, "density table"), ("month",),
        LAND_CLASSES + _COVER_COLUMNS)
    classes = [c for c in LAND_CLASSES if c in table]
    if not classes:
        raise DataError(f"{path}: no land-class columns found")
    month = table["month"]
    covers = {name: table[name] for name in _COVER_COLUMNS if name in table}
    _check_rows(path, line_nos, [
        _month_rule(month),
        (_repeated(month), "duplicate month {}", (month,)),
        *(((cover <= 0.0) | (cover > 1.0),
           f"{name!r} value {{!r}} outside (0, 1]", (cover,))
          for name, cover in covers.items()),
    ], error)
    if len(month) < 12:
        missing = set(range(1, 13)) - set(month.tolist())
        raise DataError(f"{path}: missing month {min(missing)}")
    order = np.argsort(month)
    densities = {}
    for c in classes:
        try:
            densities[c] = PlantInputDensity(table[c][order], c)
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from None
    return densities, {name.removeprefix("cover_"): cover[order]
                       for name, cover in covers.items()}


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
    density_csv: Optional[str] = None
    base_dir: Path = field(default_factory=Path)

    def resolve(self, name: str) -> Path:
        p = Path(name)
        return p if p.is_absolute() else self.base_dir / p


# each key's kind is its field's type; base_dir, a Path, is the config's
# directory and no key
_KEY_KINDS = {f.name: f.type.removeprefix("Optional[").removesuffix("]")
              for f in fields(ScenarioConfig) if f.type != "Path"}
_REQUIRED_KEYS = [f.name for f in fields(ScenarioConfig)
                  if f.default is MISSING and f.default_factory is MISSING]
# (parser, message on a ValueError) by kind
_PARSERS = {
    "float": (float, "non-numeric value {!r}"),
    "int": (int, "non-integer value {!r}"),
    "str": (str, None),
    "list": (lambda v: [float(x) for x in v.split(",")],
             "expected 12 comma-separated numbers"),
}


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
        if key not in _KEY_KINDS:
            raise ConfigError(f"{path}: unknown key {key!r}")
        kind = _KEY_KINDS[key]
        parse, message = _PARSERS[kind]
        try:
            kwargs[key] = parse(value)
        except ValueError:
            raise ConfigError(f"{path}: key {key!r}: "
                              + message.format(value)) from None
        if kind in ("float", "list") and not np.all(np.isfinite(kwargs[key])):
            raise ConfigError(f"{path}: key {key!r}: non-finite value "
                              f"{value!r}")
    return ScenarioConfig(**kwargs)


def build_scenario(config: ScenarioConfig) -> Scenario:
    """Assemble a full Scenario from a parsed configuration."""
    r = config.dpm_rpm_ratio
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
    cover_schedule = None
    if config.density_csv is not None:
        densities, covers = load_density_table(config.resolve(config.density_csv))
        if land_class not in densities:
            raise ConfigError(f"density table lacks class {land_class!r}")
        density = densities[land_class]
        cover_schedule = covers.get(land_class)
    else:
        density = PlantInputDensity.standard(land_class)

    rho0 = reference.rho0(r)
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


def _meta_line(kind: str, meta: dict) -> str:
    pairs = " ".join(f"{k}={meta[k]}" for k in sorted(meta)
                     if not isinstance(meta[k], np.ndarray))
    return (f"# socchange={__version__} kind={kind}"
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
    meta = dict(token.partition("=")[::2]
                for token in lines[0].lstrip("# ").split())
    table, line_nos, error = _read_columns(path, text, _TRAJECTORY_COLUMNS,
                                           skip=1)
    _check_rows(path, line_nos, [
        ((table[name] < _INT64.min) | (table[name] > _INT64.max),
         f"{name!r} value {{}} outside the int64 range", (table[name],))
        for name in _INT_COLUMNS], error)
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


_WRITE_BLOCK_ROWS = 1024


def _write_csv(path, meta_line: str, header: str, *columns: Array) -> None:
    """Write one row per sample: integer columns as integers, floats as
    Python's ``repr`` prints them, the shortest decimal that round-trips
    exactly (``_floatfmt.format_rows``).

    Rows go out in blocks of ``_WRITE_BLOCK_ROWS``, so memory does not grow
    with the row count. Raises NumericsError, before the file is opened, if
    a value is not finite or an integer is beyond ``EXACT_INT`` in size.
    """
    path = Path(path)
    if not all(np.all(np.isfinite(column)) for column in columns):
        raise NumericsError(f"non-finite value in the output for {path}; "
                            "nothing written")
    if any(np.any((column < -EXACT_INT) | (column > EXACT_INT))
           for column in columns if column.dtype.kind in "iu"):
        raise NumericsError(f"integer beyond 2**53 in the output for {path}; "
                            "nothing written")
    with writing(path), path.open("wb") as out:
        out.write(f"{meta_line}\n{header}\n".encode())
        for start in range(0, len(columns[0]), _WRITE_BLOCK_ROWS):
            block = slice(start, start + _WRITE_BLOCK_ROWS)
            out.write(format_rows([column[block] for column in columns]))
