"""Non-standard monthly stepping, the discrete RothC step, and trajectories.

The one-step map uses the matrix functions F(t) = Λ + (I-Λ)e^{-tD} and
φ(z) = (e^z - 1)/z of the similarity-reduced matrix Ã = -(I-Λ)D(I-Λ)^{-1},
so every step is closed-form for the fixed 4x4 structure. The scheme fixes
the continuous equilibria exactly for any step size; the original discrete
RothC step (F c + Δt b) does not. No step needs φ of the full matrix A;
only ``sensitivity.closed_form_first_year`` forms it, from A's eigenvectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import _kernels
from .climate import rho_monthly
from .dynamics import Scenario, Site
from .errors import ConfigError
from .pools import CompartmentMatrices

Array = np.ndarray

_PHI_SERIES_CUTOFF = 1e-6
SCHEMES = ("nonstandard", "rothc_discrete")


def phi1_scalar(z):
    """(e^z - 1)/z with the removable singularity handled by a short series."""
    z = np.asarray(z, dtype=float)
    small = np.abs(z) < _PHI_SERIES_CUTOFF
    safe = np.where(small, 1.0, z)
    out = np.where(small, 1.0 + z / 2.0 + z * z / 6.0, np.expm1(safe) / safe)
    return float(out) if out.ndim == 0 else out


def _pool_sum(a):
    """``a.sum(axis=1)`` of an (n, 4) array, bit for bit (its adds run left
    to right from 0.0), without numpy's reduction cost of ~19 ns a row."""
    return 0.0 + a[:, 0] + a[:, 1] + a[:, 2] + a[:, 3]


def _step_factors(taus, mats: CompartmentMatrices):
    """e^{-τk}, F(τ) and φ(-τk) for τ = Δt ρ of any shape, ahead of their
    vector or matrix axes: the one place the step's matrix functions are
    built, as φ(τÃ) = (I-Λ) diag(φ(-τk)) (I-Λ)^{-1}."""
    z = -np.asarray(taus, dtype=float)[..., None] * mats.k
    eks = np.exp(z)
    fmats = mats.Lambda + mats.i_minus_lambda * eks[..., None, :]
    return eks, fmats, phi1_scalar(z)


def _phi_times(phivs, mats: CompartmentMatrices, v):
    """φ(τÃ) v = (I-Λ)(φ(-τk) ⊙ (I-Λ)^{-1} v) for each row of φ(-τk)."""
    return (phivs * (mats.i_minus_lambda_inv @ v)) @ mats.i_minus_lambda.T


def _phi_times_a(phivs, mats: CompartmentMatrices):
    """φ(τÃ) A = -(I-Λ) diag(φ(-τk) ⊙ k) for each row of φ(-τk), since
    (I-Λ)^{-1} A = -D. Not (F - I)/τ: e^{-τk} - 1 cancels for small τ."""
    return -mats.i_minus_lambda * (phivs * mats.k)[..., None, :]


class MonthRecord(NamedTuple):
    """A site's months over the delta years, one entry per month, in the
    order the monthly runs step them; τ = Δt ρ."""

    year_index: Array   # delta year n
    month: Array        # 1..12
    dt: Array           # months; sums to T within each year
    t_end: Array        # months since baseline-year start, at month end
    rhos: Array         # left-endpoint ρ
    eks: Array          # e^{-τk}
    fmats: Array        # F(τ)
    dir_g: Array        # Δt φ(τÃ) a_g
    dir_f: Array        # Δt φ(τÃ) a_f
    supply: Array       # the plant supply N_P ĝ
    q: Array            # the rate-modifier ratio ρ/(T ρ0)

    def sample_axis(self, baseline_year: int) -> tuple[Array, Array, Array]:
        """(t, calendar year, month) per trajectory sample, initial sample first.

        The initial sample sits at the grid start, in the first delta year's
        calendar year, with month 0.
        """
        year = baseline_year + self.year_index
        return (np.concatenate(([self.t_end[0] - self.dt[0]], self.t_end)),
                np.concatenate(([year[0]], year)),
                np.concatenate(([0], self.month)))


def build_time_grid(site: Site) -> tuple[Array, Array, Array, Array]:
    """The grid (year_index, month, dt, t_end): a month of delta year n
    lasts T times its share of the days of calendar year baseline+n."""
    T = site.params.T
    nyears = site.horizon
    days = site.climate.month_days[site.climate_rows]
    dts = T * days / days.sum(axis=-1, keepdims=True)
    # absolute time in months since t0: delta year n starts at n*T exactly,
    # and each year's row [n T, dt_1, ..., dt_12] is summed in order
    steps = np.column_stack((T * np.arange(1, nyears + 1), dts))
    t_end = np.cumsum(steps, axis=1)[:, 1:].ravel()
    return (np.repeat(np.arange(1, nyears + 1), 12),
            np.tile(np.arange(1, 13), nyears), dts.ravel(), t_end)


@dataclass
class Trajectory:
    """Monthly samples of a simulated run, initial state included."""

    t: Array            # months since baseline-year start
    year: Array         # calendar year per sample (initial sample: start year)
    month: Array        # 0 for the initial sample, else 1..12
    states: Array       # (nsamples, 4) delta_c or pools
    totals: Array       # component sums per sample (Δsoc in delta mode)
    scheme: str
    mode: str
    meta: dict = field(default_factory=dict)

    def annual_means(self) -> dict[int, float]:
        """Mean of the 12 in-year monthly samples, keyed by calendar year."""
        in_year = self.month > 0
        out: dict[int, float] = {}
        for y in sorted(set(self.year[in_year].tolist())):
            out[int(y)] = float(self.totals[(self.year == y) & in_year].mean())
        return out


def _month_operators(site: Site) -> MonthRecord:
    """The site's ``MonthRecord``. Every monthly forcing lies in
    span{a_g, a_f}, so its Δt φ(τÃ) b is a combination of the two
    directions, each Δt (I-Λ)(φ(-τk) ⊙ (I-Λ)^{-1} a); N_P ĝ and q are the
    site's part of the coefficients, the same under every manure policy.
    Read through ``Site.month_operators``, which builds the record once per
    site for every monthly run on it, under any manure policy. The arrays
    are read-only, so no run or caller can change what a later run reads.
    """
    year_index, month, dt, t_end = build_time_grid(site)  # tracers patch it
    climate, rows = site.climate, site.climate_rows
    rhos = rho_monthly(climate.temp[rows].ravel(), climate.acc[rows].ravel(),
                       month, site.r, site.reference, site.cover_mode,
                       site.cover_schedule)
    mats = site.mats
    eks, fmats, phivs = _step_factors(dt * rhos, mats)
    dt_phivs = dt[:, None] * phivs
    record = MonthRecord(
        year_index, month, dt, t_end, rhos, eks, fmats,
        dir_g=_phi_times(dt_phivs, mats, mats.a_g),
        dir_f=_phi_times(dt_phivs, mats, mats.a_f),
        supply=site.np_by_year[year_index]
        * (site.density.proportions[month - 1] / dt),
        q=rhos / (site.params.T * site.baseline.rho0))
    for array in record:
        array.flags.writeable = False
    return record


def _monthly_forcing(scenario: Scenario, mode: str, scheme=None):
    """Per month over the horizon, from left-endpoint ρ: the forcing b, or
    the input of a one-step ``scheme``, Δt φ(τÃ) b for "nonstandard" (from
    the month directions) and Δt b for "rothc_discrete".

    b = g a_g + f a_f. In absolute mode g = P0 N_P ĝ and f is the manure
    density. The delta equation's forcing is normalized by the baseline
    inputs: g = ε (N_P ĝ - q) and f = (1-ε)(f/F0 - q), with f/F0 = 0 for
    no manure; at ε = 1 (F0 = 0) the a_f share is an exact zero, and a
    manure density, which F0 normalizes, needs F0 > 0.
    """
    fym, site = scenario.fym, scenario.site
    if fym.mode == "controlled":
        raise ConfigError("controlled runs go through simulate_controlled")
    if mode not in ("delta", "absolute"):
        raise ConfigError(f"unknown mode {mode!r}")
    record = site.month_operators
    baseline = site.baseline
    f_values = (np.asarray(fym.monthly_density, dtype=float)[record.month - 1]
                if fym.mode == "fixed" else None)
    if mode == "delta":
        if f_values is not None and baseline.F0 <= 0.0:
            raise ConfigError("fixed manure forcing in delta mode needs a "
                              "baseline manure total F0 > 0 (the forcing is "
                              "normalized by it)")
        f_ratio = 0.0 if f_values is None else f_values / baseline.F0
        g = baseline.epsilon * (record.supply - record.q)
        f = (1.0 - baseline.epsilon) * (f_ratio - record.q)
    else:
        g = baseline.P0 * record.supply
        f = np.zeros_like(g) if f_values is None else f_values
    if scheme == "nonstandard":
        return g[:, None] * record.dir_g + f[:, None] * record.dir_f
    b = g[:, None] * site.mats.a_g + f[:, None] * site.mats.a_f
    return record.dt[:, None] * b if scheme == "rothc_discrete" else b


def simulate(scenario: Scenario, scheme: str = "nonstandard",
             mode: str = "delta") -> Trajectory:
    """Run the monthly stepping over the horizon.

    Delta mode starts from the zero state at t0 + T; absolute mode starts
    from the baseline equilibrium pools (validation path).
    """
    if scheme not in SCHEMES:
        raise ConfigError(f"unknown scheme {scheme!r}")
    gvecs = _monthly_forcing(scenario, mode, scheme)
    record = scenario.site.month_operators
    c0 = np.zeros(4) if mode == "delta" else scenario.baseline.c0.astype(float)
    states = _kernels.affine_recurrence(record.fmats, gvecs, c0)
    t, year, month = record.sample_axis(scenario.site.baseline_year)
    meta = {"scheme": scheme, "mode": mode, "fym_mode": scenario.fym.mode,
            "epsilon": scenario.baseline.epsilon, **scenario.site.meta}
    return Trajectory(t=t, year=year, month=month, states=states,
                      totals=_pool_sum(states), scheme=scheme, mode=mode,
                      meta=meta)


def rk4_reference(scenario: Scenario, mode: str = "delta",
                  refine: int = 100) -> Trajectory:
    """Fine-step classical fourth-order reference on the same monthly forcing.

    Within each month the model coefficients are constant, so this resolves
    the exact flow that the monthly one-step schemes approximate.
    """
    bvecs = _monthly_forcing(scenario, mode)
    record = scenario.site.month_operators
    amats = record.rhos[:, None, None] * scenario.mats.A[None, :, :]
    c0 = np.zeros(4) if mode == "delta" else scenario.baseline.c0.astype(float)
    states = _kernels.rk4_piecewise(amats, bvecs, record.dt, refine, c0)
    t, year, month = record.sample_axis(scenario.site.baseline_year)
    return Trajectory(t=t, year=year, month=month, states=states,
                      totals=_pool_sum(states), scheme=f"rk4x{refine}",
                      mode=mode, meta={"scheme": f"rk4x{refine}", "mode": mode})
