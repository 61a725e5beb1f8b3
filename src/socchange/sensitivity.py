"""Direct-method sensitivities of the SOC change index over the averaged model.

The non-autonomous delta dynamics is replaced year by year with its
autonomous counterpart (annually averaged temperature and deficit, smooth
soil-cover factor); the sensitivity to a parameter then solves a second
linear system sharing the homogeneous matrix, co-integrated on a sub-monthly
grid with the same non-standard step, φ(τÃ) applied from the per-τ factors
of ``stepping._step_factors`` as on the monthly paths. The exact first year,
their independent check, takes φ of the full matrix A from its eigenvectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .climate import (KA_EXPONENT, KA_OFFSET, KA_SCALE, ReferenceState,
                      rate_modifier_cover_smooth, rate_modifier_moisture,
                      rate_modifier_temperature)
from .dynamics import Scenario
from .errors import ConfigError, NumericsError
from .pools import DPM_RPM_SHIFT, CompartmentMatrices
from .stepping import (_phi_times, _phi_times_a, _pool_sum, _step_factors,
                       phi1_scalar)

Array = np.ndarray

PARAMETERS = ("temp1", "np1", "r")

DEFAULT_SENSITIVITY_DT = 0.01

# samples a record_all run keeps over its horizon (the demo: 16 800 at dt 0.01)
MAX_RECORDED_SAMPLES = 1_000_000

# below about 1e-10 months e^{-τk} rounds to 1 and the ~1e12 substeps of a
# year drift without an error
MIN_SENSITIVITY_DT = 1e-6


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

    def _row(self, n):
        """Row of each delta year n in the per-year arrays; n in 1..horizon."""
        n = np.asarray(n)
        outside = (n < 1) | (n > self.horizon)
        if np.any(outside):
            raise ConfigError(f"year index {n[outside][0]} outside "
                              f"1..{self.horizon}")
        return n - 1

    def climate_factor(self, n):
        """k_a(Temp^n) k_b(Acc^n); the cover factor cancels against rho0.

        Elementwise over the delta years ``n``, as are ``rho_n`` and
        ``np_ratio``.
        """
        i = self._row(n)
        return (rate_modifier_temperature(self.temps[i], self.reference.temp0)
                * rate_modifier_moisture(self.accs[i], self.reference.site))

    def rho_n(self, n, r: float):
        return self.climate_factor(n) * rate_modifier_cover_smooth(
            r, self.reference.n_bare)

    def np_ratio(self, n):
        return self.np_ratios[self._row(n)]


def build_averaged_model(scenario: Scenario) -> AveragedModel:
    site = scenario.site
    climate, rows = site.climate, site.climate_rows
    return AveragedModel(temps=climate.temp[rows].mean(axis=-1),
                         accs=climate.acc[rows].mean(axis=-1),
                         np_ratios=site.np_by_year[1:].copy(),
                         reference=site.reference, T=site.params.T)


def theta(n, averaged: AveragedModel):
    """Normalized annual forcing imbalance; independent of the DPM/RPM ratio.

    Elementwise over the delta years ``n``.
    """
    return (averaged.np_ratio(n)
            - averaged.climate_factor(n) / averaged.reference.kb0) / averaged.T


def _grids(T: float, dt: float, record_all: bool, nyears: int):
    """Per-year substep count and recording stride; dt in
    [MIN_SENSITIVITY_DT, T/12] snaps to divide a month."""
    month = T / 12.0
    if not 0.0 < dt <= month:
        raise ConfigError(f"sensitivity step must be in (0, {month:g}] "
                          f"months, got {dt}")
    if dt < MIN_SENSITIVITY_DT:
        raise ConfigError(f"sensitivity step {dt} is below "
                          f"{MIN_SENSITIVITY_DT:g} months")
    per_month = round(month / dt)
    if record_all and 12 * per_month * nyears > MAX_RECORDED_SAMPLES:
        raise ConfigError(f"sensitivity step {dt} would record more than "
                          f"{MAX_RECORDED_SAMPLES} samples over {nyears} years")
    dt_eff = month / per_month
    record_every = 1 if record_all else per_month
    return 12 * per_month, dt_eff, record_every


def _co_integrate(avg: AveragedModel, r: float, mats: CompartmentMatrices,
                  dt: float, record_all: bool, kappa: Array, omega: Array,
                  v: Array):
    """Co-integrate the averaged delta state c and a sensitivity s.

    Year n (1..len(omega)) steps s <- F s + Δt φ(τÃ)(κ_n A c + ω_n v) beside
    c <- F c + Δt φ(τÃ) θ^n a_g, both from zero at t0+T, τ = Δt ρ^n. The c
    half never reads s. Returns (times, c, s), the zero initial sample
    included.
    """
    years = np.arange(1, omega.shape[0] + 1)
    nsub, dt_eff, record_every = _grids(avg.T, dt, record_all, years.shape[0])
    _, fmats, phivs = _step_factors(dt_eff * avg.rho_n(years, r), mats)
    coups = kappa[:, None, None] * _phi_times_a(phivs, mats)
    ws = omega[:, None] * _phi_times(phivs, mats, v)
    bcs = theta(years, avg)[:, None] * _phi_times(phivs, mats, mats.a_g)
    cs = [np.zeros((1, 4))]
    ss = [np.zeros((1, 4))]
    for j in range(years.shape[0]):
        c, s = _kernels.sensitivity_recurrence(
            fmats[j], dt_eff, coups[j], ws[j], bcs[j], cs[-1][-1],
            ss[-1][-1], nsub, record_every)
        cs.append(c)
        ss.append(s)
    times = (avg.T * years[:, None]
             + dt_eff * record_every * np.arange(1, nsub // record_every + 1))
    return np.append(avg.T, times), np.vstack(cs), np.vstack(ss)


def averaged_delta_solve(averaged: AveragedModel, r: float,
                         mats: CompartmentMatrices,
                         dt: float = DEFAULT_SENSITIVITY_DT,
                         n_years=None, record_all: bool = False):
    """Integrate the autonomous delta dynamics from the zero state at t0+T.

    Returns (times, states): times in months since t0, states (nsamples, 4),
    the zero initial sample included.
    """
    n_years = averaged.horizon if n_years is None else n_years
    zeros = np.zeros(n_years)
    times, states, _ = _co_integrate(averaged, r, mats, dt, record_all,
                                     zeros, zeros, mats.a_g)
    return times, states


def _eigen_a(mats: CompartmentMatrices) -> tuple[Array, Array, Array]:
    """A = V diag(λ) V^{-1} in closed form: (λ, V, V^{-1} a_g).

    A = -(I-Λ)D is block lower triangular, -k_DPM and -k_RPM on the diagonal
    above the BIO/HUM block B = [[b00, b01], [b10, b11]], whose discriminant
    (b00 - b11)² + 4 b01 b10 is > 0: λ is real and distinct. B's eigenpairs
    are μ with (0, 0, w); -k_i's eigenvector is (e_i, x), (B + k_i I) x =
    -A[2:, i]. Each root and w is formed without cancellation: B's larger
    diagonal entry d minus p = |h| + √(h² + b01 b10), h = (b00 - b11)/2, and
    the other root det(B)/(d - p).
    """
    a = mats.A
    b = a[2:, 2:]
    h = 0.5 * (b[0, 0] - b[1, 1])
    order = [1, 0] if h < 0 else [0, 1]   # d = b[order[0], order[0]]
    (d0, e01), (e10, d1) = b[np.ix_(order, order)]
    p = abs(h) + np.sqrt(h * h + e01 * e10)
    mu = d0 - p
    lam = np.array([a[0, 0], a[1, 1], mu, (d0 * d1 - e01 * e10) / mu])
    vecs = np.zeros((4, 4))
    vecs[[0, 1], [0, 1]] = 1.0
    vecs[2:, 2:] = np.array([[e01, p], [-p, e10]])[order]
    for i in (0, 1):
        vecs[2:, i] = -_solve2(b - lam[i] * np.eye(2), a[2:, i])
    a_g = mats.a_g
    coef = np.concatenate((a_g[:2], _solve2(
        vecs[2:, 2:], a_g[2:] - vecs[2:, :2] @ a_g[:2])))
    return lam, vecs, coef


def _solve2(m: Array, v: Array) -> Array:
    """m^{-1} v for a 2 x 2 matrix m, by Cramer's rule."""
    return (np.array([m[1, 1] * v[0] - m[0, 1] * v[1],
                      m[0, 0] * v[1] - m[1, 0] * v[0]])
            / (m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]))


def closed_form_first_year(t: float, averaged: AveragedModel, r: float,
                           mats: CompartmentMatrices) -> Array:
    """Exact first-delta-year solution (t - t0 - T) θ¹ φ((t-t0-T) ρ¹ A) a_g.

    t is in months since t0 and must lie in the first delta year; φ acts on
    the full matrix A through its eigendecomposition A = V diag(λ) V^{-1}
    (no similarity shortcut), so φ(τA) a_g = V (φ(τλ) ⊙ V^{-1} a_g), with
    every factor in closed form (``_eigen_a``).
    """
    tau = t - averaged.T
    if not 0.0 <= tau <= averaged.T:
        raise ConfigError(f"t={t} outside the first delta year "
                          f"[{averaged.T}, {2 * averaged.T}]")
    lam, vecs, coef = _eigen_a(mats)
    z = tau * averaged.rho_n(1, r) * lam
    return tau * theta(1, averaged) * (vecs @ (phi1_scalar(z) * coef))


def drho_dtemp(temp1: float, temp0: float, acc1: float, site, r: float,
               n_bare: float) -> float:
    """Closed-form derivative of the averaged modifier w.r.t. Temp^(1); > 0."""
    ka = rate_modifier_temperature(temp1, temp0)   # raises at the pole
    u = temp1 + KA_OFFSET - temp0
    kb = rate_modifier_moisture(acc1, site)
    kc = rate_modifier_cover_smooth(r, n_bare)
    # dk_a/du = (E/u²) k_a (1 - k_a/S): no e^{E/u} factor, which overflows
    # just above the pole where k_a is 0
    return KA_EXPONENT * ka * (1.0 - ka / KA_SCALE) * kb * kc / (u * u)


def drho_dr(temp_n, temp0: float, acc_n, site, r: float, n_bare: float):
    """Closed-form derivative of the averaged modifier w.r.t. the ratio r; > 0.

    Elementwise over (temp_n, acc_n).
    """
    if r <= 0:
        raise ConfigError(f"DPM/RPM ratio must be positive, got {r}")
    ka = rate_modifier_temperature(temp_n, temp0)
    kb = rate_modifier_moisture(acc_n, site)
    x = 30.0 * (r - 1.0) / r
    ex = np.exp(-abs(x))   # the logistic term is symmetric in x
    return ka * kb * n_bare * (ex / (1.0 + ex) ** 2) / (r * r)


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
                record_all: bool = False) -> SensitivitySeries:
    """Co-integrate the averaged delta state and its parameter sensitivity.

    temp1 and np1 are defined on the first delta year only; r runs over the
    whole horizon. All three start from a zero sensitivity at t0 + T.
    """
    if parameter not in PARAMETERS:
        raise ConfigError(f"unknown sensitivity parameter {parameter!r}; "
                          f"choose from {PARAMETERS}")
    avg = build_averaged_model(scenario)
    mats = scenario.mats
    r = scenario.r
    ref = avg.reference
    v = mats.a_g
    if parameter == "temp1":
        kappa = np.array([drho_dtemp(avg.temps[0], ref.temp0, avg.accs[0],
                                     ref.site, r, ref.n_bare)])
        omega = -kappa / (avg.T * ref.rho0(r))
    elif parameter == "np1":
        kappa, omega = np.zeros(1), np.array([1.0 / avg.T])
    else:
        kappa = drho_dr(avg.temps, ref.temp0, avg.accs, ref.site, r,
                        ref.n_bare)
        try:
            scale = (r + 1.0) ** 2   # dγ/dr = 1/(r + 1)²
        except OverflowError:
            raise NumericsError(f"(r + 1)^2 overflows for r={r}") from None
        omega = theta(np.arange(1, avg.horizon + 1), avg) / scale
        v = DPM_RPM_SHIFT
    t, c_arr, s_arr = _co_integrate(avg, r, mats, dt, record_all, kappa,
                                    omega, v)
    meta = {"parameter": parameter,
            "dt": _grids(avg.T, dt, record_all, omega.shape[0])[1],
            "years": omega.shape[0], "dpm_rpm_ratio": r}
    return SensitivitySeries(parameter=parameter, t=t, s=s_arr,
                             s_dsoc=_pool_sum(s_arr), delta=c_arr, meta=meta)
