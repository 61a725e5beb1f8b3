"""Baseline initialization: IOM partition, SOC root solve, equilibrium pools.

The baseline pool vector is the equilibrium of the constant-coefficient
dynamics over the reference year; running the relation in reverse infers the
baseline plant input from observed stocks.

The SOC root solve inverts the Falloon relation IOM = 0.049 SOC^1.139 on
the bracket [soc, Falloon peak], valid for every active SOC up to
MAX_ACTIVE_SOC, with Brent's method (Brent, *Algorithms for Minimization
without Derivatives*, 1973, ch. 4) as ported line for line from scipy's
``Zeros/brentq.c``: ``brentq`` returns ``scipy.optimize.brentq``'s root bit
for bit, after the same number of function evaluations.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InfeasibleBaselineError, NumericsError
from .pools import CompartmentMatrices, SoilParams

Array = np.ndarray

FALLOON_COEFF = 0.049
FALLOON_POWER = 1.139

# per unit of the root, at least 1e-10: the residual's rounding grows with
# the SOC (about 1e-16 x 1e6 at an active SOC of 1e6)
_ROOT_RESIDUAL_TOL = 1e-10
_BRENT_RTOL_FLOOR = 4 * sys.float_info.epsilon   # scipy's floor on rtol


def brentq(f, a: float, b: float, xtol: float, rtol: float,
           maxiter: int) -> float:
    """Root of f between a and b, where f(a) and f(b) differ in sign.

    Stops when the bracket half-width is below (xtol + rtol*|x|)/2. Raises
    NumericsError for a same-sign bracket, a NaN value of f, tolerances
    below scipy's floor (xtol <= 0 or rtol < 4 eps), or no convergence
    within maxiter iterations.
    """
    if xtol <= 0 or rtol < _BRENT_RTOL_FLOOR:
        raise NumericsError(f"root tolerances too small: xtol={xtol:g}, "
                            f"rtol={rtol:g}")

    def value(x):
        fx = f(x)
        if math.isnan(fx):
            raise NumericsError(f"root solve: function is NaN at x={x!r}")
        return fx

    xpre, xcur = a, b
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise NumericsError(f"root solve: f({a!r}) and f({b!r}) have the "
                            "same sign")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if (fpre != 0 and fcur != 0
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:   # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:              # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                # C's step is then inf or NaN, which the test below refuses
                stry = math.inf
            limit = abs(spre)
            if not limit < 3 * abs(sbis) - delta:   # C's MIN, NaN included
                limit = 3 * abs(sbis) - delta
            if 2 * abs(stry) < limit:   # good short step
                spre, scur = scur, stry
            else:                       # bisect
                spre = scur = sbis
        else:                           # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise NumericsError(f"root solve did not converge in {maxiter} "
                        f"iterations (last x={xcur!r})")


def iom_from_soc(soc_total: float) -> float:
    """Inert-pool carbon from total SOC (Falloon relation)."""
    if soc_total < 0:
        raise ConfigError(f"SOC must be non-negative, got {soc_total}")
    return FALLOON_COEFF * soc_total**FALLOON_POWER


# The active part s - 0.049 s^1.139 of a total SOC s rises from 0 to its
# peak at s = (0.049 * 1.139)^(-1/0.139), about 1.0e9 t C/ha, where it is
# MAX_ACTIVE_SOC, about 1.3e8 t C/ha; no total SOC has a larger active part.
_PEAK_TOTAL_SOC = (FALLOON_COEFF * FALLOON_POWER) ** (1.0 / (1.0 - FALLOON_POWER))
MAX_ACTIVE_SOC = _PEAK_TOTAL_SOC - iom_from_soc(_PEAK_TOTAL_SOC)


def _check_active_soc(soc_active: float) -> None:
    """NumericsError unless a total SOC has this active part (NaN has none)."""
    if not soc_active <= MAX_ACTIVE_SOC:
        raise NumericsError(
            f"could not bracket the SOC root for soc={soc_active}")


def soc_total_from_active(soc_active: float) -> float:
    """Total SOC whose Falloon IOM complement equals the active-pool sum.

    Solves 0.049*SOC^1.139 - SOC + soc = 0 for the unique root SOC in
    [soc, peak]: the residual is 0.049 soc^1.139 > 0 at soc and
    soc - MAX_ACTIVE_SOC <= 0 at the peak, so every soc up to
    MAX_ACTIVE_SOC has a root there.
    """
    if soc_active < 0:
        raise ConfigError(f"active SOC must be non-negative, got {soc_active}")
    if soc_active == 0.0:
        return 0.0
    _check_active_soc(soc_active)

    def residual(s):
        return FALLOON_COEFF * s**FALLOON_POWER - s + soc_active

    root = brentq(residual, soc_active, _PEAK_TOTAL_SOC, xtol=1e-14,
                  rtol=8.9e-16, maxiter=200)
    res = residual(root)
    tol = _ROOT_RESIDUAL_TOL * max(1.0, root)
    if abs(res) > tol:
        raise NumericsError(f"SOC root residual {res:.3e} exceeds {tol:.3e}")
    return float(root)


def equilibrium_pools(P0: float, F0: float, rho0: float,
                      mats: CompartmentMatrices, T: float) -> Array:
    """Equilibrium pool vector for constant inputs P0, F0 under modifier rho0."""
    if rho0 <= 0:
        raise ConfigError(f"reference modifier must be positive, got {rho0}")
    if P0 < 0 or F0 < 0:
        raise ConfigError(f"inputs must be non-negative, got P0={P0}, F0={F0}")
    b = (P0 * mats.a_g + F0 * mats.a_f) / T
    return -mats.a_inv() @ b / rho0


@dataclass(frozen=True)
class BaselineState:
    """Equilibrium baseline: pools, inputs and their split.

    The inert carbon is ``iom_from_soc(soc_total_from_active(c0.sum()))``;
    only the equilibrium command reports it, so no build solves for it.
    """

    c0: Array
    P0: float
    F0: float
    rho0: float

    @property
    def epsilon(self) -> float:
        """Plant share of the baseline input, P0/(P0 + F0); 1 with no input."""
        total_in = self.P0 + self.F0
        return self.P0 / total_in if total_in > 0 else 1.0

    @classmethod
    def from_inputs(cls, P0: float, F0: float, rho0: float,
                    mats: CompartmentMatrices, T: float) -> "BaselineState":
        c0 = equilibrium_pools(P0, F0, rho0, mats, T)
        _check_active_soc(float(c0.sum()))
        return cls(c0=c0, P0=P0, F0=F0, rho0=rho0)

    @classmethod
    def from_active_soc(cls, soc_active: float, F0: float, rho0: float,
                        mats: CompartmentMatrices, params: SoilParams) -> "BaselineState":
        """Reverse mode: distribute observed active SOC over the equilibrium shape."""
        if soc_active < 0:
            raise ConfigError(f"active SOC must be non-negative, got {soc_active}")
        T = params.T
        w_g = float(equilibrium_pools(1.0, 0.0, rho0, mats, T).sum())
        w_f = float(equilibrium_pools(0.0, 1.0, rho0, mats, T).sum())
        p0 = (soc_active - F0 * w_f) / w_g
        if p0 < 0:
            if p0 >= -1e-12 * max(1.0, soc_active):
                p0 = 0.0
            else:
                raise InfeasibleBaselineError(
                    f"inferred plant input {p0:.6g} is negative for active "
                    f"SOC {soc_active} with F0={F0}")
        return cls.from_inputs(p0, F0, rho0, mats, T)

    def residual(self, mats: CompartmentMatrices, T: float) -> float:
        """Max-norm of rho0 A c0 + (P0 a_g + F0 a_f)/T (zero at equilibrium)."""
        b = (self.P0 * mats.a_g + self.F0 * mats.a_f) / T
        return float(np.max(np.abs(self.rho0 * (mats.A @ self.c0) + b)))
