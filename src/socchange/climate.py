"""Climate preprocessing: PET, soil moisture deficit, and the rate modifiers.

The decomposition rate modifier rho(t) is the product of a temperature factor
k_a (anchored to 1 at the baseline-year mean temperature), a moisture factor
k_b driven by the accumulated soil moisture deficit, and a soil-cover factor
k_c (a timed monthly schedule for simulation, or a smooth function of the
DPM/RPM ratio for sensitivity analysis).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError

Array = np.ndarray

# k_a anchoring offset: k_a equals 47.91/(1+46.91) = 1 at temp == temp0
KA_SCALE = 47.91
KA_EXPONENT = 106.06
KA_OFFSET = 106.06 / math.log(46.91)

KB_MIN = 0.2
KC_VEGETATED = 0.6

DEFAULT_BARE_MONTHS = 4.0

ABSOLUTE_ZERO_C = -273.15

_MONTH_DAYS = np.array([31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])
_MONTH_DAYS_LEAP = np.array([31, 29, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])


def _is_leap(year) -> Array:
    year = np.asarray(year)
    return (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))


def month_lengths(year) -> Array:
    """Days per month (Feb = 29 in leap years); shape year.shape + (12,)."""
    return np.where(_is_leap(year)[..., None], _MONTH_DAYS_LEAP, _MONTH_DAYS)


def day_lengths(latitude_deg: float, year) -> Array:
    """Monthly mean day length (h), solar model; shape year.shape + (12,)."""
    if not -90.0 <= latitude_deg <= 90.0:
        raise ConfigError(f"latitude must be in [-90, 90] deg, got {latitude_deg}")
    doy = np.arange(1, 367)
    decl = 0.409 * np.sin(2.0 * np.pi * doy / 365.0 - 1.39)
    cos_ws = np.clip(-math.tan(math.radians(latitude_deg)) * np.tan(decl), -1.0, 1.0)
    hours = (24.0 / math.pi) * np.arccos(cos_ws)
    # one row per calendar, common then leap
    by_calendar = np.stack([
        np.add.reduceat(hours[:ndays.sum()], np.cumsum(ndays) - ndays) / ndays
        for ndays in (_MONTH_DAYS, _MONTH_DAYS_LEAP)])
    return by_calendar[_is_leap(year).astype(int)]


def _monthly(*arrays) -> list[Array]:
    """Broadcast float arrays whose last axis is the 12 months."""
    try:
        arrays = np.broadcast_arrays(*(np.asarray(a, float) for a in arrays))
    except ValueError:
        arrays = [np.empty(0)]
    if arrays[0].shape[-1:] != (12,):
        raise DataError("expected 12 monthly values on the last axis, with "
                        "leading axes that broadcast")
    return arrays


def thornthwaite_pet(monthly_temps, day_lengths_h, month_days) -> Array:
    """Monthly potential evapotranspiration (mm) from mean temperatures.

    Elementwise over leading (year) axes, months last. Months with
    non-positive temperature contribute nothing to the heat index and get
    pet = 0; a zero heat index yields an all-zero year. A polar-night month
    (day length 0) gets pet = 0.
    """
    temps, ld, nm = _monthly(monthly_temps, day_lengths_h, month_days)
    if not np.all(ld >= 0):   # NaN included
        raise DataError("day lengths must be non-negative")
    positive = temps > 0.0
    # float64 powers of extreme temperatures overflow to inf, caught below;
    # cold months and zero-heat years are computed, then masked to 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        heat = np.sum(np.where(positive, temps / 5.0, 0.0) ** 1.5, axis=-1,
                      keepdims=True)
        a = 6.7e-7 * heat**3 - 7.7e-5 * heat**2 + 1.8e-2 * heat + 0.49
        pet = 16.0 * (ld / 12.0) * (nm / 30.0) * (10.0 * temps / heat) ** a
    pet = np.where(positive & (heat > 0.0), pet, 0.0)
    if not np.all(np.isfinite(pet)):   # heat**2 overflows: a is inf - inf
        raise DataError(f"Thornthwaite PET is not finite for monthly "
                        f"temperatures up to {temps.max()} degC")
    return pet


@dataclass(frozen=True)
class SiteMoisture:
    """Maximum soil moisture deficit M and respiration slow-down point Mb (mm)."""

    M: float
    Mb: float


def max_deficit(cly: float, d: float) -> SiteMoisture:
    """Site moisture limits from clay percentage and sampling depth (cm)."""
    if not 0.0 <= cly <= 100.0:
        raise ConfigError(f"clay content must be in [0, 100] %, got {cly}")
    if d <= 0:
        raise ConfigError(f"depth must be positive, got {d}")
    m = -(20.0 + 1.3 * cly - 0.01 * cly * cly) * d / 23.0
    return SiteMoisture(M=m, Mb=0.444 * m)


def accumulated_deficit(rain, pet, M: float) -> Array:
    """Accumulated soil moisture deficit over years of monthly data.

    Elementwise over leading (year) axes, months last. Zero through the
    leading run of months with pet <= rain; from the first month where pet
    exceeds rain the running balance rain - pet accrues, clamped to [M, 0].
    Resets each year.
    """
    rain, pet = _monthly(rain, pet)
    if M > 0:
        raise ConfigError(f"maximum deficit M must be <= 0, got {M}")
    acc = np.zeros(rain.shape)
    started = np.zeros(rain.shape[:-1], dtype=bool)
    prev = np.zeros(rain.shape[:-1])
    for m in range(12):
        started |= pet[..., m] > rain[..., m]
        prev = np.where(started, np.minimum(
            np.maximum(M, prev + rain[..., m] - pet[..., m]), 0.0), 0.0)
        acc[..., m] = prev
    return acc


def rate_modifier_temperature(temp, temp0: float):
    """Temperature rate modifier, equal to 1 at the reference temperature.

    Elementwise over ``temp``.
    """
    u = np.asarray(temp, dtype=float) + KA_OFFSET - temp0
    if np.any(u <= 0.01):
        pole = temp0 - KA_OFFSET
        raise ConfigError(
            f"temperature {np.min(temp)} too close to the modifier pole at "
            f"{pole:.2f} degC (reference {temp0} degC)")
    with np.errstate(over="ignore"):   # near the pole k_a tends to 0 exactly
        return KA_SCALE / (1.0 + np.exp(KA_EXPONENT / u))


def rate_modifier_moisture(acc, site: SiteMoisture):
    """Moisture rate modifier in [0.2, 1] from the accumulated deficit.

    Elementwise over ``acc``.
    """
    acc = np.asarray(acc, dtype=float)
    outside = (acc > 0.0) | (acc < site.M)
    if np.any(outside):
        raise ConfigError(f"deficit {acc[outside][0]} outside [{site.M}, 0]")
    slowed = KB_MIN + (1.0 - KB_MIN) * (site.M - acc) / (site.M - site.Mb)
    return np.where(acc >= site.Mb, 1.0, slowed)[()]


def rate_modifier_cover_timed(month, r: float, cover_schedule=None):
    """Soil-cover rate modifier from the monthly schedule (periodic in the year).

    Below the arable threshold (r < 1) the soil is always vegetated (0.6);
    at or above it the monthly schedule alternates between 0.6 and 1.
    Elementwise over ``month``.
    """
    month = np.asarray(month)
    outside = (month < 1) | (month > 12)
    if np.any(outside):
        raise ConfigError(f"month must be in 1..12, got {month[outside][0]}")
    if r < 1.0:
        return np.full(month.shape, KC_VEGETATED)[()]
    if cover_schedule is None:
        raise ConfigError("arable class (r >= 1) requires a cover schedule")
    return np.asarray(cover_schedule, dtype=float)[month - 1]


def rate_modifier_cover_smooth(r: float, n_bare: float = DEFAULT_BARE_MONTHS) -> float:
    """Smooth annual-mean soil-cover modifier as a function of the DPM/RPM ratio."""
    if r <= 0:
        raise ConfigError(f"DPM/RPM ratio must be positive, got {r}")
    if not 0.0 <= n_bare <= 12.0:
        raise ConfigError(f"bare months must be in [0, 12], got {n_bare}")
    x = 30.0 * (r - 1.0) / r
    sig = math.exp(x) / (1.0 + math.exp(x)) if x < 0 else 1.0 / (1.0 + math.exp(-x))
    return KC_VEGETATED + (n_bare / 30.0) * sig


@dataclass(frozen=True)
class ReferenceState:
    """Baseline-year averages anchoring the rate modifiers."""

    temp0: float
    acc0: float
    site: SiteMoisture
    n_bare: float = DEFAULT_BARE_MONTHS

    @property
    def kb0(self) -> float:
        return rate_modifier_moisture(self.acc0, self.site)

    def rho0(self, r: float) -> float:
        """Reference modifier rho0(r) = k_b(acc0) * k_c(r); k_a(temp0) = 1."""
        return self.kb0 * rate_modifier_cover_smooth(r, self.n_bare)


def rho_monthly(temp, acc, month, r: float, reference: ReferenceState,
                cover_mode: str = "timed", cover_schedule=None):
    """Product rate modifier, elementwise over month records (temp, acc, month)."""
    ka = rate_modifier_temperature(temp, reference.temp0)
    kb = rate_modifier_moisture(acc, reference.site)
    if cover_mode == "timed":
        kc = rate_modifier_cover_timed(month, r, cover_schedule)
    elif cover_mode == "smooth":
        kc = rate_modifier_cover_smooth(r, reference.n_bare)
    else:
        raise ConfigError(f"unknown cover mode {cover_mode!r}")
    return ka * kb * kc


@dataclass(frozen=True)
class ClimateSeries:
    """Contiguous monthly climate over whole years, with derived deficits."""

    start_year: int
    temp: Array   # (nyears, 12) degC
    rain: Array   # (nyears, 12) mm
    pet: Array    # (nyears, 12) mm
    acc: Array    # (nyears, 12) mm, <= 0
    month_days: Array  # (nyears, 12) days

    @classmethod
    def build(cls, start_year: int, temp, rain, site: SiteMoisture,
              pet=None, latitude_deg=None, day_lengths_h=None) -> "ClimateSeries":
        """Assemble a series, computing PET (Thornthwaite) and deficits as needed.

        When ``pet`` is omitted, day lengths come from ``day_lengths_h``
        (per year-month) or from ``latitude_deg`` via the solar model.
        """
        temp = np.atleast_2d(np.asarray(temp, dtype=float))
        rain = np.atleast_2d(np.asarray(rain, dtype=float))
        nyears = temp.shape[0]
        if temp.shape != (nyears, 12) or rain.shape != temp.shape:
            raise DataError("temperature and rainfall must be (nyears, 12)")
        cold = np.argwhere(temp < ABSOLUTE_ZERO_C)
        if cold.size:
            i, m = cold[0]
            raise DataError(f"temperature below absolute zero, "
                            f"{float(temp[i, m])!r} degC in "
                            f"{start_year + i}-{m + 1:02d}")
        years = start_year + np.arange(nyears)
        ndays = month_lengths(years)
        if pet is not None:
            pet_arr = np.asarray(pet, dtype=float)
        elif day_lengths_h is not None:
            pet_arr = thornthwaite_pet(temp, day_lengths_h, ndays)
        elif latitude_deg is not None:
            pet_arr = thornthwaite_pet(temp, day_lengths(latitude_deg, years),
                                       ndays)
        else:
            raise ConfigError("PET missing: provide pet, day lengths, or latitude")
        pet_arr = np.atleast_2d(pet_arr)
        if pet_arr.shape != temp.shape:
            raise DataError("pet must match temperature shape")
        for name, values in (("rain", rain), ("pet", pet_arr)):
            bad = np.argwhere(~(values >= 0))   # negative or NaN
            if bad.size:
                i, m = bad[0]
                raise DataError(f"{name} must be >= 0 mm, got "
                                f"{float(values[i, m])!r} in "
                                f"{start_year + i}-{m + 1:02d}")
        acc = accumulated_deficit(rain, pet_arr, site.M)
        return cls(start_year=start_year, temp=temp, rain=rain,
                   pet=pet_arr, acc=acc, month_days=ndays)

    @property
    def nyears(self) -> int:
        return self.temp.shape[0]

    @property
    def years(self) -> Array:
        return np.arange(self.start_year, self.start_year + self.nyears)

    def index(self, year):
        """Row of each calendar year in the series, elementwise over ``year``."""
        year = np.asarray(year)
        i = year - self.start_year
        missing = (i < 0) | (i >= self.nyears)
        if np.any(missing):
            raise DataError(f"climate data missing for year {year[missing][0]}")
        return i


def annual_averages(series: ClimateSeries, year):
    """Arithmetic means of monthly temperature and deficit per calendar year.

    Elementwise over ``year``.
    """
    i = series.index(year)
    return series.temp[i].mean(axis=-1), series.acc[i].mean(axis=-1)


def reference_from_climate(series: ClimateSeries, baseline_year: int,
                           site: SiteMoisture,
                           n_bare: float = DEFAULT_BARE_MONTHS) -> ReferenceState:
    """Reference state from the baseline year's annual averages."""
    temp0, acc0 = annual_averages(series, baseline_year)
    return ReferenceState(temp0=float(temp0), acc0=float(acc0), site=site,
                          n_bare=n_bare)
