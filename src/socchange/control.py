"""Farmyard-manure feedback keeping the SOC change index non-negative.

The continuous law replaces decomposition losses exactly whenever the
required manure rate is non-negative, and shuts off otherwise. The discrete
loop evaluates the same law against the monthly non-standard step (its
Δt→0 limit is the continuous formula), so the enforced floor holds at
round-off for every step size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .dynamics import Scenario, _delta_forcing
from .errors import ConfigError
from .stepping import Trajectory

Array = np.ndarray


@dataclass(frozen=True)
class ControlSchedule:
    """Applied manure modifying factor per month, with annual totals."""

    t: Array          # months since t0, at month start (rate applies over month)
    year: Array
    month: Array
    f0: Array         # modifying factor, month^-1
    f: Array          # density f0 * F0, t C ha^-1 month^-1
    epsilon: float
    meta: dict

    def annual_totals(self) -> dict[int, float]:
        """Manure applied per calendar year, t C ha^-1."""
        out: dict[int, float] = {}
        for y in np.unique(self.year):
            sel = self.year == y
            out[int(y)] = float((self.f[sel] * self.meta["dt"][sel]).sum())
        return out


def simulate_controlled(scenario: Scenario, epsilon: float):
    """Run the feedback-controlled delta dynamics over the horizon.

    Returns (Trajectory, ControlSchedule). The manure modifying factor is
    evaluated once per month from the state at the month's start and held
    constant over the month (zero-order hold), choosing the value that makes
    the non-standard step's Δsoc increment exactly zero when feasible.
    """
    if epsilon == 1.0:
        raise ConfigError("epsilon = 1 means no manure input; use simulate()")
    if not 0.0 <= epsilon < 1.0:
        raise ConfigError(f"epsilon must be in [0, 1), got {epsilon}")
    if scenario.baseline.F0 <= 0.0:
        raise ConfigError("controlled runs need a baseline manure total F0 > 0")
    grid, rhos, eks, fmats, phimats = scenario.month_operators
    mats = scenario.mats
    n, m = grid.year_index, grid.month
    phimats = grid.dt[:, None, None] * phimats
    # month j steps c <- F c + g + f v, g the manure-free forcing. f zeroes
    # the Δsoc increment, 1ᵀ(F c + g + f v) = 1ᵀc, and 1ᵀ(I - F) =
    # δ(1 - e^{-τk})ᵀ, so f = a + u·c with a = -1ᵀg / 1ᵀv and
    # u = δ(1 - e^{-τk}) / 1ᵀv; taken from e^{-τk}, u keeps the HUM entry
    # that the column sums of F would cancel (δτk is about 1e-3)
    gvecs = np.einsum("jab,jb->ja", phimats,
                      _delta_forcing(m, n, scenario, epsilon, 0.0, rhos, grid.dt))
    vvecs = (1.0 - epsilon) * (phimats @ mats.a_f)
    sum_v = vvecs.sum(axis=1)
    states, f0 = _kernels.controlled_recurrence(
        fmats, gvecs, vvecs, -gvecs.sum(axis=1) / sum_v,
        mats.delta * (1.0 - eks) / sum_v[:, None])

    t, year, month = grid.sample_axis(scenario.baseline_year)
    meta = {
        "scheme": "nonstandard",
        "mode": "delta",
        "cover_mode": scenario.cover_mode,
        "fym_mode": "controlled",
        "control_hold": "monthly",
        "baseline_year": scenario.baseline_year,
        "horizon": scenario.horizon,
        "dpm_rpm_ratio": scenario.r,
        "epsilon": epsilon,
    }
    trajectory = Trajectory(t=t, year=year, month=month, states=states,
                            totals=states.sum(axis=1), scheme="nonstandard",
                            mode="delta", meta=meta)
    schedule = ControlSchedule(
        t=grid.t_end - grid.dt, year=scenario.baseline_year + grid.year_index,
        month=grid.month, f0=f0, f=f0 * scenario.baseline.F0, epsilon=epsilon,
        meta={"dt": grid.dt, "F0": scenario.baseline.F0, "hold": "monthly"})
    return trajectory, schedule
