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
from .dynamics import Scenario, Site
from .errors import ConfigError, NumericsError
from .stepping import Trajectory, _pool_sum

Array = np.ndarray

DSOC_FLOOR = -1e-9   # the lowest Δsoc a controlled run may reach


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
        """Manure applied per calendar year, t C ha^-1; the months are
        whole years, as the time grid builds them."""
        totals = (self.f * self.meta["dt"]).reshape(-1, 12).sum(axis=1)
        return dict(zip(self.year[::12].tolist(), totals.tolist()))


def simulate_controlled(scenario: Scenario, epsilon: float):
    """Run the feedback-controlled delta dynamics over the horizon.

    Returns (Trajectory, ControlSchedule). The manure modifying factor is
    evaluated once per month from the state at the month's start and held
    constant over the month (zero-order hold), choosing the value that makes
    the non-standard step's Δsoc increment exactly zero when feasible. A
    Δsoc below ``DSOC_FLOOR`` is a NumericsError. At ε = 0 that value is
    the rate ratio q in every month and Δsoc stays exactly 0, so the run
    is returned in closed form, without the month loop or its maps.
    """
    if not 0.0 <= epsilon < 1.0:
        raise ConfigError(f"epsilon must be in [0, 1), got {epsilon} (1 means "
                          "no manure input: use simulate())")
    epsilon += 0.0   # -0.0 would reach the metadata and the files
    if scenario.baseline.F0 <= 0.0:
        raise ConfigError("controlled runs need a baseline manure total F0 > 0")
    site = scenario.site
    record = site.month_operators
    if epsilon == 0.0:
        # from c = 0 every month's factor is f̂′ = q > 0, never clamped, and
        # steps c′ = g₀ + q d_f = 0: the loop would step round-off only
        states = np.zeros((len(record.dt) + 1, 4))
        f0 = record.q
    else:
        maps, first = site.control_maps
        x0 = np.array((0, 0, 0, 0, 1, epsilon, first[4] + epsilon * first[5]))
        x = _kernels.controlled_recurrence(maps, x0)
        states = x[:, :4]
        f0 = x[:-1, 6] / (1.0 - epsilon)
    totals = _pool_sum(states)
    if totals.min() < DSOC_FLOOR:
        raise NumericsError(f"epsilon={epsilon:g}: dsoc {totals.min():.3e} at "
                            f"month {totals.argmin()} is below the floor "
                            f"{DSOC_FLOOR:g}")

    t, year, month = record.sample_axis(site.baseline_year)
    meta = {"scheme": "nonstandard", "mode": "delta", "fym_mode": "controlled",
            "control_hold": "monthly", "epsilon": epsilon, **site.meta}
    trajectory = Trajectory(t=t, year=year, month=month, states=states,
                            totals=totals, scheme="nonstandard",
                            mode="delta", meta=meta)
    schedule = ControlSchedule(
        t=record.t_end - record.dt,
        year=site.baseline_year + record.year_index, month=record.month,
        f0=f0, f=f0 * scenario.baseline.F0, epsilon=epsilon,
        meta={"dt": record.dt, "F0": scenario.baseline.F0, "hold": "monthly"})
    return trajectory, schedule


def _control_maps(site: Site):
    """(maps, first): the controlled run's month maps, for every ε > 0.

    Read through ``Site.control_maps``, built once per site from its month
    record; all read-only. ``maps`` is a 1-D object array of the (7, 7)
    views of one (n, 7, 7) block, stepped by the runs of every ε > 0 (an
    ε = 0 run is solved in closed form and builds none).

    Month j steps c <- F c + g + f v, g the manure-free forcing, and f
    zeroes the Δsoc increment, 1ᵀ(F c + g + f v) = 1ᵀc. As 1ᵀ(I - F) =
    δ(1 - e^{-τk})ᵀ, f = (δ(1 - e^{-τk})·c - 1ᵀg) / 1ᵀv; taken from
    e^{-τk}, it keeps the HUM entry that the column sums of F would cancel
    (δτk is about 1e-3). g is linear in ε, g = g₀ + ε(g₁ - g₀) with
    g₀ = -q d_f and g₁ = (N_P ĝ - q) d_g on the month directions
    d = Δt φ(τÃ) a, and v = (1 - ε)v̂ with v̂ = d_f, so f̂′ = (1 - ε)f =
    ŵ·[c; 1; ε] with ŵ free of ε.

    On x = [c; 1; ε; f̂′] the map of month j has c rows [F_j, g₀, g₁ - g₀,
    v̂_j], the manure input read from f̂′, which the kernel clamps at 0. Row
    6 is the next f̂′, ŵ_{j+1}ᵀ times the top six rows, formed as one
    batched product (zero in the last month). ``first`` is ŵ_0, the first
    month's f̂′ from [c; 1; ε].
    """
    record = site.month_operators
    g0 = -record.q[:, None] * record.dir_f
    dg = (record.supply - record.q)[:, None] * record.dir_g - g0
    w = np.column_stack((site.mats.delta * (1.0 - record.eks),
                         -_pool_sum(g0), -_pool_sum(dg)))
    w /= _pool_sum(record.dir_f)[:, None]
    maps = np.zeros((len(record.dt), 7, 7))
    maps[:, :4, :4] = record.fmats
    maps[:, :4, 4:] = np.stack((g0, dg, record.dir_f), axis=2)
    maps[:, 4, 4] = maps[:, 5, 5] = 1.0
    maps[:-1, 6] = (w[1:, None] @ maps[:-1, :6])[:, 0]
    first = w[0].copy()
    maps.flags.writeable = False
    views = np.fromiter(maps, dtype=object, count=len(maps))
    views.flags.writeable = first.flags.writeable = False
    return views, first
