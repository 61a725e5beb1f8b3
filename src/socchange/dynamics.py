"""SOC change index state and forcing terms for the delta dynamics.

The change index normalizes pool deviations from the baseline equilibrium by
the baseline-year inputs, so its forcing depends only on dimensionless
quantities: the monthly plant-input density, the annual NPP ratios, and the
ratio of the monthly rate modifier to its reference value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .climate import ClimateSeries, ReferenceState, rho_monthly
from .equilibrium import BaselineState
from .errors import ConfigError, DataError
from .pools import CompartmentMatrices, SoilParams

Array = np.ndarray

LAND_CLASSES = ("forest", "grassland", "arable")

DENSITY_SUM_TOL = 1e-9

# monthly distribution of plant carbon inputs per land-use class (fractions of
# the annual total; each column sums to 1)
PLANT_INPUT_DISTRIBUTION = {
    "forest": np.array([0.025, 0.025, 0.025, 0.025, 0.05, 0.05,
                        0.05, 0.05, 0.20, 0.20, 0.20, 0.10]),
    "grassland": np.array([0.05, 0.05, 0.05, 0.05, 0.10, 0.15,
                           0.15, 0.10, 0.10, 0.10, 0.05, 0.05]),
    "arable": np.array([0.0, 0.0, 0.0, 1.0 / 6.0, 1.0 / 6.0, 1.0 / 6.0,
                        0.5, 0.0, 0.0, 0.0, 0.0, 0.0]),
}

# monthly soil-cover modifier for the arable class (bare August-November);
# sub-arable classes are always vegetated at 0.6
ARABLE_COVER_SCHEDULE = np.array([0.6, 0.6, 0.6, 0.6, 0.6, 0.6,
                                  0.6, 1.0, 1.0, 1.0, 1.0, 0.6])


def class_for_ratio(r: float) -> str:
    """Land-use class implied by the DPM/RPM ratio."""
    if r < 0:
        raise ConfigError(f"DPM/RPM ratio must be >= 0, got {r}")
    if r < 0.5:
        return "forest"
    if r < 1.0:
        return "grassland"
    return "arable"


@dataclass(frozen=True)
class PlantInputDensity:
    """Annual-periodic monthly proportions of plant carbon input."""

    proportions: Array
    land_class: str

    def __post_init__(self):
        p = np.asarray(self.proportions, dtype=float)
        if p.shape != (12,):
            raise DataError("plant input density needs 12 monthly proportions")
        if np.any(p < 0):
            raise DataError(f"negative proportion in {self.land_class} density")
        if abs(p.sum() - 1.0) > DENSITY_SUM_TOL:
            raise DataError(
                f"{self.land_class} proportions sum to {p.sum():.12f}, not 1")
        if self.land_class not in LAND_CLASSES:
            raise ConfigError(f"unknown land class {self.land_class!r}")

    @classmethod
    def standard(cls, land_class: str) -> "PlantInputDensity":
        if land_class not in PLANT_INPUT_DISTRIBUTION:
            raise ConfigError(f"unknown land class {land_class!r}")
        return cls(PLANT_INPUT_DISTRIBUTION[land_class].copy(), land_class)

    def proportion(self, month: int) -> float:
        if not 1 <= month <= 12:
            raise ConfigError(f"month must be in 1..12, got {month}")
        return float(self.proportions[month - 1])

    def density(self, month: int, dt_m: float) -> float:
        """Input density (month^-1): proportion over the month length."""
        return self.proportion(month) / dt_m


def plant_density(month: int, land_class: str) -> float:
    """Standard Table proportion of annual input delivered in a month."""
    return PlantInputDensity.standard(land_class).proportion(month)


@dataclass(frozen=True)
class FymPolicy:
    """Farmyard-manure forcing: absent, a fixed density, or feedback-controlled."""

    mode: str = "none"                      # none | fixed | controlled
    monthly_density: Optional[Array] = None  # t C ha^-1 month^-1, fixed mode
    epsilon: Optional[float] = None          # controlled mode

    def __post_init__(self):
        if self.mode not in ("none", "fixed", "controlled"):
            raise ConfigError(f"unknown FYM mode {self.mode!r}")
        if self.mode == "fixed":
            if self.monthly_density is None:
                raise ConfigError("fixed FYM mode requires monthly densities")
            d = np.asarray(self.monthly_density, dtype=float)
            if d.shape != (12,) or np.any(d < 0):
                raise ConfigError("fixed FYM needs 12 non-negative densities")
        if self.mode == "controlled":
            if self.epsilon is None or not 0.0 <= self.epsilon <= 1.0:
                raise ConfigError("controlled FYM mode requires epsilon in [0, 1]")


@dataclass(frozen=True)
class Scenario:
    """Everything needed to run one SOC change simulation."""

    baseline_year: int
    horizon: int                       # delta years n = 1..horizon
    params: SoilParams
    mats: CompartmentMatrices
    density: PlantInputDensity
    climate: ClimateSeries
    reference: ReferenceState
    baseline: BaselineState
    np_ratios: dict[int, float]        # year -> N_P^(n); baseline year -> 1
    fym: FymPolicy = field(default_factory=FymPolicy)
    cover_mode: str = "timed"
    cover_schedule: Array = field(default_factory=lambda: ARABLE_COVER_SCHEDULE.copy())

    def __post_init__(self):
        if self.horizon < 1:
            raise ConfigError(f"horizon must be >= 1, got {self.horizon}")
        if self.cover_mode not in ("timed", "smooth"):
            raise ConfigError(f"unknown cover mode {self.cover_mode!r}")
        for n in range(1, self.horizon + 1):
            year = self.baseline_year + n
            if year not in self.np_ratios:
                raise DataError(f"NPP ratio missing for year {year}")
            if not self.np_ratios[year] > 0:
                raise DataError(f"NPP ratio for {year} must be positive")
        self.climate.index(self.baseline_year)
        self.climate.index(self.baseline_year + self.horizon)

    @property
    def r(self) -> float:
        return self.params.r

    @property
    def rho0(self) -> float:
        return self.baseline.rho0

    def np_ratio(self, n: int) -> float:
        if n == 0:
            return 1.0
        return self.np_ratios[self.baseline_year + n]

    def rho_at(self, n: int, month: int) -> float:
        """Monthly rate modifier for delta year n (year baseline+n)."""
        i = self.climate.index(self.baseline_year + n)
        return rho_monthly(self.climate.temp[i, month - 1],
                           self.climate.acc[i, month - 1], month, self.r,
                           self.reference, self.cover_mode, self.cover_schedule)


@dataclass(frozen=True)
class DeltaState:
    """Normalized pool deviation and its scalar sum (the SOC change index)."""

    delta_c: Array
    delta_soc: float

    @classmethod
    def from_components(cls, delta_c) -> "DeltaState":
        arr = np.asarray(delta_c, dtype=float)
        if arr.shape != (4,) or not np.all(np.isfinite(arr)):
            raise ConfigError(f"delta state must be a finite 4-vector, got {arr}")
        return cls(delta_c=arr, delta_soc=float(arr.sum()))


def delta_soc(state: DeltaState) -> float:
    """Sum of the four delta components."""
    return float(np.asarray(state.delta_c).sum())


def delta_forcing_no_fym(month: int, n: int, scenario: Scenario,
                         rho_m: Optional[float] = None,
                         dt_m: Optional[float] = None) -> Array:
    """Forcing of the no-manure delta equation: parallel to a_g.

    (N_P^(n) ghat_r(m) - rho(m) / (T rho0)) a_g with ghat the monthly
    proportion converted to a density.
    """
    if scenario.baseline.F0 != 0.0:
        raise ConfigError("baseline has manure input; use delta_forcing_fym")
    rho_m = scenario.rho_at(n, month) if rho_m is None else rho_m
    dt_m = _month_dt(scenario, n, month) if dt_m is None else dt_m
    ghat = scenario.density.density(month, dt_m)
    scale = scenario.np_ratio(n) * ghat - rho_m / (scenario.params.T * scenario.rho0)
    return scale * scenario.mats.a_g


def delta_forcing_fym(month: int, n: int, scenario: Scenario, f_value: float,
                      rho_m: Optional[float] = None,
                      dt_m: Optional[float] = None) -> Array:
    """Forcing of the manure-driven delta equation: in span{a_g, a_f}.

    f_value is the manure density (t C ha^-1 month^-1); the a_f share is
    weighted by 1-eps and normalized by the baseline manure total F0.
    """
    baseline = scenario.baseline
    if baseline.F0 <= 0.0:
        raise ConfigError("delta_forcing_fym requires baseline manure F0 > 0")
    eps = baseline.epsilon
    rho_m = scenario.rho_at(n, month) if rho_m is None else rho_m
    dt_m = _month_dt(scenario, n, month) if dt_m is None else dt_m
    ghat = scenario.density.density(month, dt_m)
    q = rho_m / (scenario.params.T * scenario.rho0)
    plant = eps * (scenario.np_ratio(n) * ghat - q)
    manure = (1.0 - eps) * (f_value / baseline.F0 - q)
    return plant * scenario.mats.a_g + manure * scenario.mats.a_f


def _month_dt(scenario: Scenario, n: int, month: int) -> float:
    i = scenario.climate.index(scenario.baseline_year + n)
    ndays = scenario.climate.month_days[i]
    return scenario.params.T * ndays[month - 1] / ndays.sum()
