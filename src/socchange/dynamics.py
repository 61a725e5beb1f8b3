"""Sites, plant-input densities and manure policies of the SOC change index.

A site holds everything a run reads except the manure policy; a scenario is
a site under a policy. The dimensionless per-month quantities that force the
change index (the NPP ratio, the plant-input density and the rate-modifier
ratio) belong to the site.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter
from typing import Optional

import numpy as np

from .climate import ClimateSeries, ReferenceState
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
    if not r >= 0:   # negative or NaN
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
        if not np.all(np.isfinite(p)):
            raise DataError(
                f"non-finite proportion in {self.land_class} density")
        if not np.all(p >= 0):
            raise DataError(f"negative proportion in {self.land_class} density")
        if not abs(p.sum() - 1.0) <= DENSITY_SUM_TOL:
            raise DataError(
                f"{self.land_class} proportions sum to {p.sum():.12f}, not 1")
        if self.land_class not in LAND_CLASSES:
            raise ConfigError(f"unknown land class {self.land_class!r}")
        object.__setattr__(self, "proportions", p)

    @classmethod
    def standard(cls, land_class: str) -> "PlantInputDensity":
        if land_class not in PLANT_INPUT_DISTRIBUTION:
            raise ConfigError(f"unknown land class {land_class!r}")
        return cls(PLANT_INPUT_DISTRIBUTION[land_class].copy(), land_class)


@dataclass(frozen=True)
class FymPolicy:
    """Farmyard-manure forcing: absent, a fixed density, or feedback-controlled
    (at the plant-input share ε given to ``simulate_controlled``)."""

    mode: str = "none"                      # none | fixed | controlled
    monthly_density: Optional[Array] = None  # t C ha^-1 month^-1, fixed mode

    def __post_init__(self):
        if self.mode not in ("none", "fixed", "controlled"):
            raise ConfigError(f"unknown FYM mode {self.mode!r}")
        if self.mode == "fixed":
            # None gives a 0-d NaN, which the shape test rejects
            d = np.asarray(self.monthly_density, dtype=float)
            if d.shape != (12,) or not np.all(np.isfinite(d) & (d >= 0)):
                raise ConfigError("fixed FYM mode needs 12 non-negative "
                                  "monthly densities (fym_monthly_tc_ha), "
                                  "all finite")
        elif self.monthly_density is not None:
            raise ConfigError("monthly FYM densities (fym_monthly_tc_ha) need "
                              f"fym_mode = fixed, not {self.mode!r}")


@dataclass(frozen=True)
class Site:
    """One site's soil, climate, plant inputs and horizon: everything a run
    reads except the manure policy."""

    baseline_year: int
    horizon: int                       # delta years n = 1..horizon
    params: SoilParams
    mats: CompartmentMatrices
    density: PlantInputDensity
    climate: ClimateSeries
    reference: ReferenceState
    baseline: BaselineState
    np_ratios: dict[int, float]        # year -> N_P^(n); baseline year -> 1
    cover_mode: str = "timed"
    cover_schedule: Array = field(default_factory=lambda: ARABLE_COVER_SCHEDULE.copy())
    # N_P^(n) by delta year n = 0..horizon, from np_ratios
    np_by_year: Array = field(init=False, repr=False, compare=False)
    # the climate rows of delta years 1..horizon: the run's months, in order
    climate_rows: slice = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.horizon < 1:
            raise ConfigError(f"horizon must be >= 1, got {self.horizon}")
        if self.cover_mode not in ("timed", "smooth"):
            raise ConfigError(f"unknown cover mode {self.cover_mode!r}")
        cover = np.asarray(self.cover_schedule, dtype=float)
        if cover.shape != (12,) or not np.all((cover > 0.0) & (cover <= 1.0)):
            raise DataError("cover schedule needs 12 monthly factors in (0, 1]")
        for n in range(1, self.horizon + 1):
            year = self.baseline_year + n
            if year not in self.np_ratios:
                raise DataError(f"NPP ratio missing for year {year}")
            if not 0.0 < self.np_ratios[year] < math.inf:
                raise DataError(
                    f"NPP ratio for {year} must be positive and finite, "
                    f"got {self.np_ratios[year]}")
        object.__setattr__(self, "np_by_year", np.array(
            [self.np_ratios.get(self.baseline_year + n, 1.0)
             for n in range(self.horizon + 1)], dtype=float))
        # a series is whole consecutive years, so checking both ends of the
        # horizon covers every row between them
        first = int(self.climate.index(self.baseline_year)) + 1
        self.climate.index(self.baseline_year + self.horizon)
        object.__setattr__(self, "climate_rows",
                           slice(first, first + self.horizon))

    @cached_property
    def month_operators(self):
        """The site's ``stepping.MonthRecord``, read by field name. Built on
        first use and shared, read-only, by every monthly run on this site,
        whatever its manure policy."""
        from . import stepping   # stepping imports this module
        return stepping._month_operators(self)

    @cached_property
    def control_maps(self):
        """(maps, first) of ``control._control_maps``, built on first use
        and shared, read-only, by every controlled run with ε > 0 on this
        site (ε = 0 is solved in closed form and reads none)."""
        from . import control   # control imports this module
        return control._control_maps(self)

    r = property(attrgetter("params.r"))

    @property
    def meta(self) -> dict:
        """The run-metadata keys that describe the site."""
        return {"cover_mode": self.cover_mode, "dpm_rpm_ratio": self.r,
                "baseline_year": self.baseline_year, "horizon": self.horizon}


@dataclass(frozen=True)
class Scenario:
    """A site under a manure policy. A new policy on the same site shares
    the site's month operators and control maps."""

    site: Site
    fym: FymPolicy = FymPolicy()

    # the site's names that callers read off a scenario
    baseline = property(attrgetter("site.baseline"))
    mats = property(attrgetter("site.mats"))
    params = property(attrgetter("site.params"))
    r = property(attrgetter("site.r"))

