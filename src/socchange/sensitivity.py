"""Direct-method sensitivities of the SOC change index over the averaged model.

The non-autonomous delta dynamics is replaced year by year with its
autonomous counterpart (annually averaged temperature and deficit, smooth
soil-cover factor); the sensitivity to a parameter then solves a second
linear system sharing the homogeneous matrix, co-integrated on a sub-monthly
grid with the same non-standard step.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import _kernels
from .climate import (KA_EXPONENT, KA_OFFSET, KA_SCALE, ReferenceState,
                      annual_averages, rate_modifier_cover_smooth,
                      rate_modifier_moisture, rate_modifier_temperature)
from .dynamics import Scenario
from .errors import ConfigError
from .pools import DPM_RPM_SHIFT, CompartmentMatrices, SoilParams, build_matrices
from .stepping import phi1_dense, phi_matrix, transition_matrix

Array = np.ndarray

PARAMETERS = ("temp1", "np1", "r")

DEFAULT_SENSITIVITY_DT = 0.01


@dataclass(frozen=True)
class AveragedModel:
    """Per-year averaged forcing for the autonomous delta dynamics."""

    temps: Array       # Temp^(n) for n = 1..horizon
    accs: Array        # Acc^(n)
    np_ratios: Array   # N_P^(n)
    reference: ReferenceState
    T: float

    @property
    def horizon(self) -> int:
        return self.temps.shape[0]

    def climate_factor(self, n: int) -> float:
        """k_a(Temp^n) k_b(Acc^n); the cover factor cancels against rho0."""
        return (rate_modifier_temperature(self.temps[n - 1], self.reference.temp0)
                * rate_modifier_moisture(self.accs[n - 1], self.reference.site))

    def rho_n(self, n: int, r: float) -> float:
        return self.climate_factor(n) * rate_modifier_cover_smooth(
            r, self.reference.n_bare)

    def rho0(self, r: float) -> float:
        return self.reference.rho0(r)

    def np_ratio(self, n: int) -> float:
        return float(self.np_ratios[n - 1])

    def with_temp(self, n: int, temp: float) -> "AveragedModel":
        temps = self.temps.copy()
        temps[n - 1] = temp
        return replace(self, temps=temps)

    def with_np(self, n: int, value: float) -> "AveragedModel":
        ratios = self.np_ratios.copy()
        ratios[n - 1] = value
        return replace(self, np_ratios=ratios)


def build_averaged_model(scenario: Scenario) -> AveragedModel:
    temps = np.empty(scenario.horizon)
    accs = np.empty(scenario.horizon)
    ratios = np.empty(scenario.horizon)
    for n in range(1, scenario.horizon + 1):
        temps[n - 1], accs[n - 1] = annual_averages(
            scenario.climate, scenario.baseline_year + n)
        ratios[n - 1] = scenario.np_ratio(n)
    return AveragedModel(temps=temps, accs=accs, np_ratios=ratios,
                         reference=scenario.reference, T=scenario.params.T)


def theta(n: int, averaged: AveragedModel) -> float:
    """Normalized annual forcing imbalance; independent of the DPM/RPM ratio."""
    if not 1 <= n <= averaged.horizon:
        raise ConfigError(f"year index {n} outside 1..{averaged.horizon}")
    return (averaged.np_ratio(n)
            - averaged.climate_factor(n) / averaged.reference.kb0) / averaged.T


def _grids(T: float, dt: float, record_all: bool):
    """Per-year substep count and recording stride; dt snaps to divide a month."""
    month = T / 12.0
    per_month = max(1, round(month / dt))
    dt_eff = month / per_month
    record_every = 1 if record_all else per_month
    return 12 * per_month, dt_eff, record_every


def averaged_delta_solve(averaged: AveragedModel, r: float,
                         mats: CompartmentMatrices,
                         dt: float = DEFAULT_SENSITIVITY_DT,
                         n_years=None, record_all: bool = False):
    """Integrate the autonomous delta dynamics from the zero state at t0+T.

    Returns (times, states): times in months since t0, states (nsamples, 4),
    the zero initial sample included.
    """
    n_years = averaged.horizon if n_years is None else n_years
    nsub, dt_eff, record_every = _grids(averaged.T, dt, record_all)
    times = [averaged.T]
    states = [np.zeros(4)]
    c = np.zeros(4)
    for n in range(1, n_years + 1):
        rho = averaged.rho_n(n, r)
        fmat = transition_matrix(dt_eff, rho, mats)
        phimat = dt_eff * phi_matrix(dt_eff, rho, mats)
        gvec = phimat @ (theta(n, averaged) * mats.a_g)
        samples = _kernels.affine_recurrence_const(fmat, gvec, c, nsub, record_every)
        c = samples[-1].copy()
        t0_year = averaged.T * n
        times.extend(t0_year + dt_eff * record_every * np.arange(1, samples.shape[0] + 1))
        states.append(samples)
    return np.array(times), np.vstack([states[0][None, :], *states[1:]])


def closed_form_first_year(t: float, averaged: AveragedModel, r: float,
                           mats: CompartmentMatrices) -> Array:
    """Exact first-delta-year solution (t - t0 - T) θ¹ φ((t-t0-T) ρ¹ A) a_g.

    t is in months since t0 and must lie in the first delta year; φ acts on
    the full matrix A (dense scaling-and-squaring, no similarity shortcut).
    """
    tau = t - averaged.T
    if not 0.0 <= tau <= averaged.T:
        raise ConfigError(f"t={t} outside the first delta year "
                          f"[{averaged.T}, {2 * averaged.T}]")
    if tau == 0.0:
        return np.zeros(4)
    rho1 = averaged.rho_n(1, r)
    return tau * theta(1, averaged) * (phi1_dense(tau * rho1 * mats.A) @ mats.a_g)


def drho_dtemp(temp1: float, temp0: float, acc1: float, site, r: float,
               n_bare: float) -> float:
    """Closed-form derivative of the averaged modifier w.r.t. Temp^(1); > 0."""
    ka = rate_modifier_temperature(temp1, temp0)   # raises at the pole
    u = temp1 + KA_OFFSET - temp0
    expo = np.exp(KA_EXPONENT / u)
    kb = rate_modifier_moisture(acc1, site)
    kc = rate_modifier_cover_smooth(r, n_bare)
    return (KA_EXPONENT / KA_SCALE) * ka * ka * kb * kc * expo / (u * u)


def drho_dr(temp_n: float, temp0: float, acc_n: float, site, r: float,
            n_bare: float) -> float:
    """Closed-form derivative of the averaged modifier w.r.t. the ratio r; > 0."""
    if r <= 0:
        raise ConfigError(f"DPM/RPM ratio must be positive, got {r}")
    ka = rate_modifier_temperature(temp_n, temp0)
    kb = rate_modifier_moisture(acc_n, site)
    x = 30.0 * (r - 1.0) / r
    if x < 0:
        ex = np.exp(x)
        sig_sq = ex / (1.0 + ex) ** 2
    else:
        ex = np.exp(-x)
        sig_sq = ex / (1.0 + ex) ** 2
    return ka * kb * n_bare * sig_sq / (r * r)


@dataclass(frozen=True)
class SensitivitySeries:
    """Samples of the sensitivity system for one parameter tag."""

    parameter: str
    t: Array          # months since t0
    s: Array          # (nsamples, 4)
    s_dsoc: Array     # component sums
    delta: Array      # co-integrated averaged delta state (nsamples, 4)
    meta: dict


def sensitivity(parameter: str, scenario: Scenario,
                dt: float = DEFAULT_SENSITIVITY_DT,
                record_all: bool = False,
                averaged: AveragedModel | None = None,
                params: SoilParams | None = None) -> SensitivitySeries:
    """Co-integrate the averaged delta state and its parameter sensitivity.

    temp1 and np1 are defined on the first delta year only; r runs over the
    whole horizon. All three start from a zero sensitivity at t0 + T.
    """
    if parameter not in PARAMETERS:
        raise ConfigError(f"unknown sensitivity parameter {parameter!r}; "
                          f"choose from {PARAMETERS}")
    avg = build_averaged_model(scenario) if averaged is None else averaged
    params = scenario.params if params is None else params
    mats = build_matrices(params)
    r = params.r
    ref = avg.reference
    n_years = 1 if parameter in ("temp1", "np1") else avg.horizon
    nsub, dt_eff, record_every = _grids(avg.T, dt, record_all)

    times = [avg.T]
    svals = [np.zeros(4)]
    cvals = [np.zeros(4)]
    c = np.zeros(4)
    s = np.zeros(4)
    for n in range(1, n_years + 1):
        rho = avg.rho_n(n, r)
        fmat = transition_matrix(dt_eff, rho, mats)
        phimat = dt_eff * phi_matrix(dt_eff, rho, mats)
        bc = theta(n, avg) * mats.a_g
        if parameter == "temp1":
            dr = drho_dtemp(avg.temps[0], ref.temp0, avg.accs[0], ref.site,
                            r, ref.n_bare)
            coup = dr * mats.A
            w = -dr * mats.a_g / (avg.T * avg.rho0(r))
        elif parameter == "np1":
            coup = np.zeros((4, 4))
            w = mats.a_g / avg.T
        else:
            dr = drho_dr(avg.temps[n - 1], ref.temp0, avg.accs[n - 1],
                         ref.site, r, ref.n_bare)
            coup = dr * mats.A
            w = theta(n, avg) * DPM_RPM_SHIFT / (r + 1.0) ** 2
        cs, ss = _kernels.sensitivity_recurrence(
            fmat, phimat, coup, w, bc, c, s, nsub, record_every)
        c = cs[-1].copy()
        s = ss[-1].copy()
        t0_year = avg.T * n
        times.extend(t0_year + dt_eff * record_every * np.arange(1, cs.shape[0] + 1))
        svals.append(ss)
        cvals.append(cs)
    t = np.array(times)
    s_arr = np.vstack([svals[0][None, :], *svals[1:]])
    c_arr = np.vstack([cvals[0][None, :], *cvals[1:]])
    meta = {"parameter": parameter, "dt": dt_eff, "years": n_years,
            "dpm_rpm_ratio": r}
    return SensitivitySeries(parameter=parameter, t=t, s=s_arr,
                             s_dsoc=s_arr.sum(axis=1), delta=c_arr, meta=meta)
