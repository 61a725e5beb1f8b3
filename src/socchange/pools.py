"""Soil parameterization and the compartment matrices.

The four active pools (DPM, RPM, BIO, HUM) decompose under first-order
kinetics; the decomposition matrix A factors exactly as -(I-Λ)D, which gives
closed forms for its inverse and for all matrix functions used by the
stepping scheme.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

Array = np.ndarray

# decomposition rate constants per reference interval (year): DPM, RPM, BIO, HUM
ANNUAL_RATE_CONSTANTS = np.array([10.0, 0.3, 0.66, 0.02])

# direction of d a_g / dr, up to the 1/(r+1)^2 factor
DPM_RPM_SHIFT = np.array([1.0, -1.0, 0.0, 0.0])

DEFAULT_ETA = 0.49


def texture_factor(cly: float) -> float:
    """Soil texture factor from clay percentage."""
    if not 0.0 <= cly <= 100.0:
        raise ConfigError(f"clay content must be in [0, 100] %, got {cly}")
    return 1.67 * (1.85 + 1.60 * np.exp(-0.0786 * cly))


def build_partition_fractions(cly: float) -> tuple[float, float, float]:
    """Return (alpha, beta, delta): BIO/HUM incorporation and CO2 loss fractions."""
    x = texture_factor(cly)
    alpha = 0.46 / (x + 1.0)
    beta = 1.0 / (x + 1.0) - alpha
    delta = 1.0 - alpha - beta
    return alpha, beta, delta


def default_rate_constants(T: float = 12.0) -> Array:
    """Rate constants per month for a reference interval of T months."""
    if T <= 0:
        raise ConfigError(f"months per year must be positive, got {T}")
    return ANNUAL_RATE_CONSTANTS / T


def plant_split(r: float) -> float:
    """Fraction of plant input routed to DPM for a DPM/RPM ratio r."""
    if not r >= 0:   # negative or NaN
        raise ConfigError(f"DPM/RPM ratio must be >= 0, got {r}")
    return r / (r + 1.0)


@dataclass(frozen=True)
class SoilParams:
    """Soil and land-use parameterization; immutable, gamma derived from r."""

    cly: float
    d: float
    T: float
    k: Array
    alpha: float
    beta: float
    delta: float
    r: float
    gamma: float
    eta: float

    @classmethod
    def for_site(cls, cly: float, d: float, r: float,
                 eta: float = DEFAULT_ETA, T: float = 12.0) -> "SoilParams":
        if d <= 0:
            raise ConfigError(f"soil depth must be positive, got {d}")
        if not 0.0 <= eta <= 0.5:
            raise ConfigError(f"eta must be in [0, 1/2], got {eta}")
        alpha, beta, delta = build_partition_fractions(cly)
        return cls(cly=cly, d=d, T=T, k=default_rate_constants(T),
                   alpha=alpha, beta=beta, delta=delta,
                   r=r, gamma=plant_split(r), eta=eta)


@dataclass(frozen=True)
class CompartmentMatrices:
    """A, Λ, δ and the input directions a_g, a_f for one parameter set."""

    A: Array
    Lambda: Array
    a_g: Array
    a_f: Array
    i_minus_lambda: Array = field(repr=False)
    i_minus_lambda_inv: Array = field(repr=False)
    k: Array = field(repr=False)
    delta: float

    def a_inv(self) -> Array:
        """Closed-form A^-1 = -D^-1 (I-Λ)^-1."""
        return -np.diag(1.0 / self.k) @ self.i_minus_lambda_inv


def build_matrices(params: SoilParams) -> CompartmentMatrices:
    """Assemble the compartment matrices for a parameter set.

    A = -(I-Λ)D exactly, so 1^T A = -δ k^T and (I-Λ)^-1 = I + Λ/δ
    (rank-one update), which keeps every matrix function closed-form.
    """
    alpha, beta, delta = params.alpha, params.beta, params.delta
    k = params.k
    lam = np.zeros((4, 4))
    lam[2, :] = alpha
    lam[3, :] = beta
    iml = np.eye(4) - lam
    iml_inv = np.eye(4) + lam / delta
    amat = -iml @ np.diag(k)
    a_g = np.array([params.gamma, 1.0 - params.gamma, 0.0, 0.0])
    a_f = np.array([params.eta, params.eta, 0.0, 1.0 - 2.0 * params.eta])
    return CompartmentMatrices(A=amat, Lambda=lam, a_g=a_g, a_f=a_f,
                               i_minus_lambda=iml, i_minus_lambda_inv=iml_inv,
                               k=k, delta=delta)
