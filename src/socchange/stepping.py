"""Non-standard monthly stepping, the discrete RothC step, and trajectories.

The one-step map uses the matrix functions F(t) = Λ + (I-Λ)e^{-tD} and
φ(z) = (e^z - 1)/z of the similarity-reduced matrix Ã = -(I-Λ)D(I-Λ)^{-1},
so every step is closed-form for the fixed 4x4 structure. The scheme fixes
the continuous equilibria exactly for any step size; the original discrete
RothC step (F c + Δt b) does not.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .dynamics import Scenario, Site, _delta_coefficients
from .errors import ConfigError
from .pools import CompartmentMatrices

Array = np.ndarray

_PHI_SERIES_CUTOFF = 1e-6


def phi1_scalar(z):
    """(e^z - 1)/z with the removable singularity handled by a short series."""
    z = np.asarray(z, dtype=float)
    small = np.abs(z) < _PHI_SERIES_CUTOFF
    safe = np.where(small, 1.0, z)
    out = np.where(small, 1.0 + z / 2.0 + z * z / 6.0, np.expm1(safe) / safe)
    return float(out) if out.ndim == 0 else out


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


def phi1_dense(z: Array, tol: float = 1e-12) -> Array:
    """φ applied to a dense square matrix by scaling-and-squaring on its series.

    Needed where the similarity reduction does not apply (functions of the
    full matrix A rather than Ã).
    """
    z = np.asarray(z, dtype=float)
    n = z.shape[0]
    norm = np.linalg.norm(z, 1)
    squarings = max(0, int(np.ceil(np.log2(norm / 0.25)))) if norm > 0.25 else 0
    zs = z / (2.0 ** squarings)
    term = np.eye(n)
    phi = np.eye(n)
    for j in range(1, 13):
        term = term @ zs / (j + 1)
        phi = phi + term
        if np.linalg.norm(term, 1) < tol:
            break
    # phi(2z) = (e^z + I) phi(z) / 2 with e^z = I + z phi(z)
    expz = np.eye(n) + zs @ phi
    for _ in range(squarings):
        phi = (expz + np.eye(n)) @ phi / 2.0
        expz = expz @ expz
    return phi


@dataclass(frozen=True)
class TimeGrid:
    """Monthly grid over the delta years: per step (year n, month, Δt, t_end)."""

    year_index: Array   # delta year n per step
    month: Array        # 1..12
    dt: Array           # months; sums to T within each year
    t_end: Array        # months since baseline-year start, at month end

    @property
    def nsteps(self) -> int:
        return self.dt.shape[0]

    @property
    def t_start(self) -> float:
        return float(self.t_end[0] - self.dt[0])

    def sample_axis(self, baseline_year: int) -> tuple[Array, Array, Array]:
        """(t, calendar year, month) per trajectory sample, initial sample first.

        The initial sample sits at the grid start, in the first delta year's
        calendar year, with month 0.
        """
        year = baseline_year + self.year_index
        return (np.concatenate(([self.t_start], self.t_end)),
                np.concatenate(([year[0]], year)),
                np.concatenate(([0], self.month)))


def build_time_grid(site: Site) -> TimeGrid:
    T = site.params.T
    nyears = site.horizon
    years = np.repeat(np.arange(1, nyears + 1), 12)
    months = np.tile(np.arange(1, 13), nyears)
    dts = site.dt_at(years, months)
    # absolute time in months since t0: delta year n starts at n*T exactly,
    # and each year's row [n T, dt_1, ..., dt_12] is summed in order
    rows = np.column_stack((T * np.arange(1, nyears + 1), dts.reshape(nyears, 12)))
    t_end = np.cumsum(rows, axis=1)[:, 1:].ravel()
    return TimeGrid(year_index=years, month=months, dt=dts, t_end=t_end)


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


def _month_operators(site: Site):
    """Time grid, left-endpoint ρ, e^{-τk}, F(τ), and the directions
    Δt φ(τÃ) a_g and Δt φ(τÃ) a_f per month, τ = Δt ρ.

    Every monthly forcing lies in span{a_g, a_f}, so its Δt φ(τÃ) b is a
    combination of the two directions, each Δt (I-Λ)(φ(-τk) ⊙ (I-Λ)^{-1} a).
    Read through ``Site.month_operators``, which builds them once per site
    for every monthly run on it, under any manure policy. The arrays are
    read-only, so no run or caller can change what a later run reads.
    """
    grid = build_time_grid(site)   # the module global: tracers patch it
    rhos = site.rho_at(grid.year_index, grid.month)
    mats = site.mats
    eks, fmats, phivs = _step_factors(grid.dt * rhos, mats)
    dt_phivs = grid.dt[:, None] * phivs
    operators = (rhos, eks, fmats, *(_phi_times(dt_phivs, mats, a)
                                     for a in (mats.a_g, mats.a_f)))
    for array in (grid.year_index, grid.month, grid.dt, grid.t_end,
                  *operators):
        array.flags.writeable = False
    return (grid, *operators)


def _monthly_forcing(scenario: Scenario, mode: str, scheme=None):
    """Per month over the horizon, from left-endpoint ρ: the forcing b, or
    the input of a one-step ``scheme``, Δt φ(τÃ) b for "nonstandard" (from
    the month directions) and Δt b for "rothc_discrete"."""
    fym, site = scenario.fym, scenario.site
    if fym.mode == "controlled":
        raise ConfigError("controlled runs go through simulate_controlled")
    if mode not in ("delta", "absolute"):
        raise ConfigError(f"unknown mode {mode!r}")
    grid, rhos, _, _, dir_g, dir_f = site.month_operators
    n, m = grid.year_index, grid.month
    f_values = (np.asarray(fym.monthly_density, dtype=float)[m - 1]
                if fym.mode == "fixed" else None)
    if mode == "delta":
        g, f = _delta_coefficients(m, n, site, f_values, rhos, grid.dt)
    else:
        g = site.baseline.P0 * site.np_ratio(n) * site.density.density(m, grid.dt)
        f = np.zeros_like(g) if f_values is None else f_values
    if scheme == "nonstandard":
        return g[:, None] * dir_g + f[:, None] * dir_f
    b = g[:, None] * site.mats.a_g + f[:, None] * site.mats.a_f
    return grid.dt[:, None] * b if scheme == "rothc_discrete" else b


def simulate(scenario: Scenario, scheme: str = "nonstandard",
             mode: str = "delta") -> Trajectory:
    """Run the monthly stepping over the horizon.

    Delta mode starts from the zero state at t0 + T; absolute mode starts
    from the baseline equilibrium pools (validation path).
    """
    if scheme not in ("nonstandard", "rothc_discrete"):
        raise ConfigError(f"unknown scheme {scheme!r}")
    gvecs = _monthly_forcing(scenario, mode, scheme)
    grid, _, _, fmats = scenario.site.month_operators[:4]
    c0 = np.zeros(4) if mode == "delta" else scenario.baseline.c0.astype(float)
    states = _kernels.affine_recurrence(fmats, gvecs, c0)
    t, year, month = grid.sample_axis(scenario.site.baseline_year)
    meta = {"scheme": scheme, "mode": mode, "fym_mode": scenario.fym.mode,
            "epsilon": scenario.baseline.epsilon, **scenario.site.meta}
    return Trajectory(t=t, year=year, month=month, states=states,
                      totals=states.sum(axis=1), scheme=scheme, mode=mode,
                      meta=meta)


def rk4_reference(scenario: Scenario, mode: str = "delta",
                  refine: int = 100) -> Trajectory:
    """Fine-step classical fourth-order reference on the same monthly forcing.

    Within each month the model coefficients are constant, so this resolves
    the exact flow that the monthly one-step schemes approximate.
    """
    bvecs = _monthly_forcing(scenario, mode)
    grid, rhos = scenario.site.month_operators[:2]
    amats = rhos[:, None, None] * scenario.mats.A[None, :, :]
    c0 = np.zeros(4) if mode == "delta" else scenario.baseline.c0.astype(float)
    states = _kernels.rk4_piecewise(amats, bvecs, grid.dt, refine, c0)
    t, year, month = grid.sample_axis(scenario.site.baseline_year)
    return Trajectory(t=t, year=year, month=month, states=states,
                      totals=states.sum(axis=1), scheme=f"rk4x{refine}",
                      mode=mode, meta={"scheme": f"rk4x{refine}", "mode": mode})
