"""Baseline initialization: IOM partition, SOC root solve, equilibrium pools.

The baseline pool vector is the equilibrium of the constant-coefficient
dynamics over the reference year; running the relation in reverse infers the
baseline plant input from observed stocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import ConfigError, InfeasibleBaselineError, NumericsError
from .pools import CompartmentMatrices, SoilParams

Array = np.ndarray

FALLOON_COEFF = 0.049
FALLOON_POWER = 1.139

_ROOT_RESIDUAL_TOL = 1e-10


def iom_from_soc(soc_total: float) -> float:
    """Inert-pool carbon from total SOC (Falloon relation)."""
    if soc_total < 0:
        raise ConfigError(f"SOC must be non-negative, got {soc_total}")
    return FALLOON_COEFF * soc_total**FALLOON_POWER


def soc_total_from_active(soc_active: float) -> float:
    """Total SOC whose Falloon IOM complement equals the active-pool sum.

    Solves 0.049*SOC^1.139 - SOC + soc = 0 for the unique root SOC >= soc,
    bracketing from [soc, soc/(1 - 0.049*soc^0.139)] with geometric expansion.
    """
    if soc_active < 0:
        raise ConfigError(f"active SOC must be non-negative, got {soc_active}")
    if soc_active == 0.0:
        return 0.0

    def residual(s):
        try:
            return FALLOON_COEFF * s**FALLOON_POWER - s + soc_active
        except OverflowError:   # only where the residual is positive
            return math.inf

    lo = soc_active
    frac = FALLOON_COEFF * soc_active ** (FALLOON_POWER - 1.0)
    hi = soc_active / (1.0 - frac) if frac < 1.0 else 2.0 * soc_active
    for _ in range(200):
        if residual(hi) <= 0.0:
            break
        hi *= 1.5
    else:
        raise NumericsError(
            f"could not bracket the SOC root for soc={soc_active}")
    root = brentq(residual, lo, hi, xtol=1e-14, rtol=8.9e-16, maxiter=200)
    res = residual(root)
    if abs(res) > _ROOT_RESIDUAL_TOL:
        raise NumericsError(
            f"SOC root residual {res:.3e} exceeds {_ROOT_RESIDUAL_TOL}")
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
    """Equilibrium baseline: pools, inert carbon, inputs and their split."""

    c0: Array
    c_iom: float
    P0: float
    F0: float
    epsilon: float
    rho0: float

    @classmethod
    def from_inputs(cls, P0: float, F0: float, rho0: float,
                    mats: CompartmentMatrices, T: float) -> "BaselineState":
        c0 = equilibrium_pools(P0, F0, rho0, mats, T)
        total_in = P0 + F0
        eps = P0 / total_in if total_in > 0 else 1.0
        soc_active = float(c0.sum())
        soc_total = soc_total_from_active(soc_active)
        return cls(c0=c0, c_iom=iom_from_soc(soc_total), P0=P0, F0=F0,
                   epsilon=eps, rho0=rho0)

    @classmethod
    def from_active_soc(cls, soc_active: float, F0: float, rho0: float,
                        mats: CompartmentMatrices, params: SoilParams) -> "BaselineState":
        """Reverse mode: distribute observed active SOC over the equilibrium shape."""
        if soc_active < 0:
            raise ConfigError(f"active SOC must be non-negative, got {soc_active}")
        T = params.T
        a_inv = mats.a_inv()
        w_g = float(-(a_inv @ mats.a_g).sum() / (T * rho0))
        w_f = float(-(a_inv @ mats.a_f).sum() / (T * rho0))
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
